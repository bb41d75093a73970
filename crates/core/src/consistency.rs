//! Consistent recovery and duplicate-tolerant output equivalence (§2.3).
//!
//! > **Definition (Consistent Recovery).** Recovery is consistent if and
//! > only if there exists a complete, failure-free execution of the
//! > computation that would result in a sequence of visible events
//! > equivalent to the sequence of visible events actually output in the
//! > failed and recovered run.
//!
//! The paper's equivalence allows the recovered run to *repeat* earlier
//! visible events (exactly-once output is impractical; users can overlook
//! duplicates), but nothing else may differ. This module implements that
//! equivalence as a dynamic program and packages the two constraints of the
//! definition: the *visible constraint* (output must extend a legal
//! failure-free sequence) and the *no-orphan constraint* (the computation
//! must run to completion).

/// Why a recovered output sequence failed the consistency check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConsistencyError {
    /// The recovered sequence emitted a token that is neither the next
    /// expected failure-free output nor a repeat of an already-delivered
    /// one. Holds the offending index into the recovered sequence.
    VisibleConstraint {
        /// Index of the offending output in the recovered sequence.
        at: usize,
    },
    /// The recovered run did not deliver the complete failure-free sequence
    /// (it stopped short — e.g. an orphan prevented completion). Holds the
    /// number of reference outputs that were delivered.
    Incomplete {
        /// Number of reference outputs that were delivered.
        delivered: usize,
    },
}

impl std::fmt::Display for ConsistencyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConsistencyError::VisibleConstraint { at } => write!(
                f,
                "visible constraint violated: output at index {at} extends no legal failure-free sequence"
            ),
            ConsistencyError::Incomplete { delivered } => write!(
                f,
                "no-orphan constraint violated: run incomplete after {delivered} delivered outputs"
            ),
        }
    }
}

/// Checks the paper's output equivalence: `recovered` must equal
/// `reference` except that it may additionally contain *repeats of earlier
/// events* of itself, and it must be complete (cover all of `reference`).
///
/// The check is a dynamic program over (recovered position, reference
/// position): at each recovered element we may either *match* it against the
/// next reference element, or *absorb* it as a duplicate of some
/// already-matched reference element. Backtracking (rather than a greedy
/// scan) is required because an element can be both a legal duplicate and
/// the next expected output.
///
/// # Examples
///
/// ```
/// use ft_core::consistency::check_equivalence;
///
/// // A failure between outputs 2 and 3 re-emitted output 2 on recovery.
/// assert!(check_equivalence(&[1, 2, 2, 3], &[1, 2, 3]).is_ok());
/// // Emitting something that never appears in the reference is not allowed.
/// assert!(check_equivalence(&[1, 99], &[1, 2]).is_err());
/// ```
pub fn check_equivalence(recovered: &[u64], reference: &[u64]) -> Result<(), ConsistencyError> {
    let m = reference.len();
    // reachable[j] = true if after consuming some prefix of `recovered` we
    // can be at reference position j. Process recovered elements one at a
    // time, updating the reachable set.
    let mut reachable = vec![false; m + 1];
    reachable[0] = true;
    for (i, &tok) in recovered.iter().enumerate() {
        let mut next = vec![false; m + 1];
        let mut any = false;
        for j in 0..=m {
            if !reachable[j] {
                continue;
            }
            // Option 1: match against the next reference element.
            if j < m && reference[j] == tok {
                next[j + 1] = true;
                any = true;
            }
            // Option 2: absorb as a duplicate of an already-matched element.
            if reference[..j].contains(&tok) {
                next[j] = true;
                any = true;
            }
        }
        if !any {
            return Err(ConsistencyError::VisibleConstraint { at: i });
        }
        reachable = next;
    }
    if reachable[m] {
        Ok(())
    } else {
        // The best (furthest) reachable position tells how much was
        // delivered.
        let delivered = (0..=m).rev().find(|&j| reachable[j]).unwrap_or(0);
        Err(ConsistencyError::Incomplete { delivered })
    }
}

/// Result of a full consistent-recovery check over a recovered run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryVerdict {
    /// Whether recovery was consistent.
    pub consistent: bool,
    /// Count of duplicate visible events the user observed (allowed).
    pub duplicates: usize,
    /// The failure reason, if inconsistent.
    pub error: Option<ConsistencyError>,
}

/// Full consistent-recovery check with duplicate accounting.
///
/// `recovered` is the visible token sequence the user actually saw across
/// the failed and recovered run; `reference` is the visible sequence of a
/// complete failure-free execution of the same computation.
pub fn check_consistent_recovery(recovered: &[u64], reference: &[u64]) -> RecoveryVerdict {
    match check_equivalence(recovered, reference) {
        Ok(()) => RecoveryVerdict {
            consistent: true,
            duplicates: recovered.len() - reference.len(),
            error: None,
        },
        Err(e) => RecoveryVerdict {
            consistent: false,
            duplicates: 0,
            error: Some(e),
        },
    }
}

/// Multi-process consistent-recovery check: each process's visible
/// subsequence must be duplicate-equivalent to its failure-free reference
/// subsequence.
///
/// Different failure-free executions of a computation may interleave
/// *independent* processes' outputs differently, so a single global
/// reference order is too strict; what the §2.3 definition pins down is
/// each process's own output sequence (cross-process order is constrained
/// only through causality, which the per-process sequences inherit from
/// the messages that produced them).
pub fn check_consistent_recovery_multi(
    recovered: &[(u32, u64)],
    reference: &[(u32, u64)],
) -> RecoveryVerdict {
    let pids: std::collections::BTreeSet<u32> =
        recovered.iter().chain(reference).map(|&(p, _)| p).collect();
    let mut duplicates = 0;
    for p in pids {
        let rec: Vec<u64> = recovered
            .iter()
            .filter(|&&(q, _)| q == p)
            .map(|&(_, t)| t)
            .collect();
        let rf: Vec<u64> = reference
            .iter()
            .filter(|&&(q, _)| q == p)
            .map(|&(_, t)| t)
            .collect();
        match check_equivalence(&rec, &rf) {
            Ok(()) => duplicates += rec.len() - rf.len(),
            Err(e) => {
                return RecoveryVerdict {
                    consistent: false,
                    duplicates: 0,
                    error: Some(e),
                }
            }
        }
    }
    RecoveryVerdict {
        consistent: true,
        duplicates,
        error: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sequences_are_equivalent() {
        assert!(check_equivalence(&[1, 2, 3], &[1, 2, 3]).is_ok());
        assert!(check_equivalence(&[], &[]).is_ok());
    }

    #[test]
    fn suffix_repeat_after_failure_is_allowed() {
        // Crash after emitting 1,2,3; recovery replays from a checkpoint
        // taken after 1, re-emitting 2,3 then continuing with 4.
        assert!(check_equivalence(&[1, 2, 3, 2, 3, 4], &[1, 2, 3, 4]).is_ok());
    }

    #[test]
    fn repeat_of_any_earlier_event_is_allowed() {
        assert!(check_equivalence(&[1, 2, 1, 3], &[1, 2, 3]).is_ok());
    }

    #[test]
    fn novel_token_violates_visible_constraint() {
        let err = check_equivalence(&[1, 99], &[1, 2]).unwrap_err();
        assert_eq!(err, ConsistencyError::VisibleConstraint { at: 1 });
    }

    #[test]
    fn coin_flip_heads_then_tails_is_inconsistent() {
        // Figure 1: no failure-free run outputs both heads (1) and tails (2).
        let heads_run = [1u64];
        let tails_run = [2u64];
        assert!(check_equivalence(&[1, 2], &heads_run).is_err());
        assert!(check_equivalence(&[1, 2], &tails_run).is_err());
    }

    #[test]
    fn incomplete_run_violates_no_orphan_constraint() {
        let err = check_equivalence(&[1, 2], &[1, 2, 3]).unwrap_err();
        assert_eq!(err, ConsistencyError::Incomplete { delivered: 2 });
    }

    #[test]
    fn duplicate_that_is_also_next_requires_backtracking() {
        // Reference 1,1,2. Recovered 1,1,1,2: the middle 1s can each be
        // either a duplicate or a match; only backtracking finds the split.
        assert!(check_equivalence(&[1, 1, 1, 2], &[1, 1, 2]).is_ok());
    }

    #[test]
    fn duplicate_before_first_delivery_is_illegal() {
        // A token can only repeat an *earlier delivered* event.
        let err = check_equivalence(&[2, 1, 2], &[1, 2]).unwrap_err();
        assert_eq!(err, ConsistencyError::VisibleConstraint { at: 0 });
    }

    #[test]
    fn out_of_order_delivery_is_inconsistent() {
        assert!(check_equivalence(&[2, 1], &[1, 2]).is_err());
    }

    #[test]
    fn verdict_counts_duplicates() {
        let v = check_consistent_recovery(&[1, 2, 2, 3], &[1, 2, 3]);
        assert!(v.consistent);
        assert_eq!(v.duplicates, 1);
        assert!(v.error.is_none());
    }

    #[test]
    fn verdict_reports_error() {
        let v = check_consistent_recovery(&[5], &[1]);
        assert!(!v.consistent);
        assert!(matches!(
            v.error,
            Some(ConsistencyError::VisibleConstraint { at: 0 })
        ));
    }

    #[test]
    fn empty_recovered_against_nonempty_reference_is_incomplete() {
        let err = check_equivalence(&[], &[1]).unwrap_err();
        assert_eq!(err, ConsistencyError::Incomplete { delivered: 0 });
    }

    #[test]
    fn long_sequences_run_fast() {
        // Sanity: the DP is O(n*m) worst case but the reachable set stays
        // small for realistic traces.
        let reference: Vec<u64> = (0..2000).collect();
        let mut recovered = reference.clone();
        recovered.insert(1000, 999); // One duplicate.
        assert!(check_equivalence(&recovered, &reference).is_ok());
    }

    #[test]
    fn multi_process_tolerates_reordered_independent_outputs() {
        // P0 and P1 each emit their own sequence; global interleaving
        // differs between the runs.
        let reference = [(0, 1), (1, 10), (0, 2), (1, 20)];
        let recovered = [(1, 10), (1, 20), (0, 1), (0, 2)];
        assert!(check_consistent_recovery_multi(&recovered, &reference).consistent);
    }

    #[test]
    fn multi_process_catches_per_process_divergence() {
        let reference = [(0, 1), (0, 2)];
        let recovered = [(0, 2), (0, 1)];
        assert!(!check_consistent_recovery_multi(&recovered, &reference).consistent);
    }

    #[test]
    fn multi_process_counts_duplicates_across_processes() {
        let reference = [(0, 1), (1, 10)];
        let recovered = [(0, 1), (0, 1), (1, 10), (1, 10)];
        let v = check_consistent_recovery_multi(&recovered, &reference);
        assert!(v.consistent);
        assert_eq!(v.duplicates, 2);
    }

    #[test]
    fn error_display() {
        let e = ConsistencyError::VisibleConstraint { at: 3 };
        assert!(e.to_string().contains("index 3"));
        let e = ConsistencyError::Incomplete { delivered: 7 };
        assert!(e.to_string().contains("7 delivered"));
    }
}
