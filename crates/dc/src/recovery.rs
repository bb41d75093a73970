//! Recovery strategy selection: full rollback vs component-level
//! microreboot, and the bounded retry ladder between them.
//!
//! The paper's recovery protocol is *full rollback*: the failed process is
//! restored to its last commit and every peer that consumed one of its
//! now-withdrawn uncommitted messages is rolled back too (the cascade of
//! §2.3). Candea et al.'s microreboot argument is that when faults are
//! frequent, restarting just the failed component — no message
//! withdrawal, no cascade, a much smaller reboot cost — wins on MTTR and
//! availability. The catch the Save-work theory makes precise: a partial
//! restart is consistent only when every event the component lost is
//! deterministically regenerable from its last commit; otherwise peers
//! keep state derived from events the component no longer remembers
//! producing, and recovery silently diverges.
//!
//! `plan_recovery` is the pure ladder decision: under
//! [`Strategy::Microreboot`], an incident gets up to
//! [`EscalationPolicy::max_attempts`] partial restarts with exponential
//! backoff, then escalates to the always-sound full rollback.

use ft_sim::cost::MS;

/// Which recovery path the runtime takes when a process fails.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Roll the failed process back to its last commit, withdraw its
    /// uncommitted sends, and cascade rollback to tainted receivers — the
    /// paper's protocol, always sound.
    #[default]
    FullRollback,
    /// Restart only the failed process from its last commit, leaving
    /// peers (and in-flight messages) untouched, with the
    /// [`EscalationPolicy`] ladder escalating to full rollback after
    /// repeated failures.
    Microreboot,
}

impl Strategy {
    /// Display/report name.
    pub fn name(self) -> &'static str {
        match self {
            Strategy::FullRollback => "full-rollback",
            Strategy::Microreboot => "microreboot",
        }
    }
}

/// The ladder's decision for the next recovery attempt of an incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RecoveryAction {
    /// Microreboot the component, resuming it after `delay_ns`.
    PartialRestart {
        /// Restart delay drawn from the policy's backoff schedule.
        delay_ns: u64,
    },
    /// Perform (or escalate to) a full rollback with cascades.
    FullRollback,
}

/// Decides the next recovery action for an incident that has already
/// consumed `attempts_so_far` partial restarts.
///
/// Under [`Strategy::FullRollback`] the answer is always a full rollback.
/// Under [`Strategy::Microreboot`], attempts `1..=max_attempts` are
/// partial restarts delayed by the policy's backoff schedule; once the
/// ladder is exhausted the incident escalates.
pub(crate) fn plan_recovery(
    strategy: Strategy,
    attempts_so_far: u32,
    policy: &EscalationPolicy,
) -> RecoveryAction {
    match strategy {
        Strategy::FullRollback => RecoveryAction::FullRollback,
        Strategy::Microreboot if attempts_so_far < policy.max_attempts => {
            RecoveryAction::PartialRestart {
                delay_ns: policy.attempt_delay_ns(attempts_so_far + 1),
            }
        }
        Strategy::Microreboot => RecoveryAction::FullRollback,
    }
}

/// The bounded retry/backoff ladder for microreboot recovery.
///
/// An incident is allowed `max_attempts` partial restarts; attempt `k`
/// (1-based) waits `base_delay_ns * backoff_factor^(k-1)` before resuming
/// the component. When the ladder is exhausted — the component keeps
/// failing — the runtime escalates to a full rollback, which is always
/// available as the sound fallback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EscalationPolicy {
    /// Partial-restart attempts before escalating to full rollback.
    pub max_attempts: u32,
    /// Restart delay of the first attempt, in simulated nanoseconds.
    pub base_delay_ns: u64,
    /// Multiplier applied to the delay after each failed attempt.
    pub backoff_factor: u64,
}

impl Default for EscalationPolicy {
    /// Three attempts at 5 ms, 10 ms, 20 ms — an order of magnitude under
    /// the 50 ms full-reboot delay, which is what makes microreboot's
    /// MTTR win measurable when the partial restart sticks.
    fn default() -> Self {
        EscalationPolicy {
            max_attempts: 3,
            base_delay_ns: 5 * MS,
            backoff_factor: 2,
        }
    }
}

impl EscalationPolicy {
    /// The restart delay of 1-based attempt `k`, saturating on overflow.
    ///
    /// # Panics
    ///
    /// Panics if `attempt` is 0 (attempts are 1-based).
    fn attempt_delay_ns(&self, attempt: u32) -> u64 {
        assert!(attempt > 0, "attempts are 1-based");
        self.base_delay_ns
            .saturating_mul(self.backoff_factor.saturating_pow(attempt - 1))
    }

    /// The full backoff schedule, for reports and directed tests.
    pub fn schedule(&self) -> Vec<u64> {
        (1..=self.max_attempts)
            .map(|k| self.attempt_delay_ns(k))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_rollback_never_retries_partially() {
        let p = EscalationPolicy::default();
        for attempts in 0..5 {
            assert_eq!(
                plan_recovery(Strategy::FullRollback, attempts, &p),
                RecoveryAction::FullRollback
            );
        }
    }

    #[test]
    fn microreboot_ladder_backs_off_then_escalates() {
        let p = EscalationPolicy {
            max_attempts: 3,
            base_delay_ns: 5 * MS,
            backoff_factor: 2,
        };
        assert_eq!(
            plan_recovery(Strategy::Microreboot, 0, &p),
            RecoveryAction::PartialRestart { delay_ns: 5 * MS }
        );
        assert_eq!(
            plan_recovery(Strategy::Microreboot, 1, &p),
            RecoveryAction::PartialRestart { delay_ns: 10 * MS }
        );
        assert_eq!(
            plan_recovery(Strategy::Microreboot, 2, &p),
            RecoveryAction::PartialRestart { delay_ns: 20 * MS }
        );
        assert_eq!(
            plan_recovery(Strategy::Microreboot, 3, &p),
            RecoveryAction::FullRollback
        );
        assert_eq!(
            plan_recovery(Strategy::Microreboot, 4, &p),
            RecoveryAction::FullRollback
        );
    }

    #[test]
    fn strategy_names() {
        assert_eq!(Strategy::FullRollback.name(), "full-rollback");
        assert_eq!(Strategy::Microreboot.name(), "microreboot");
        assert_eq!(Strategy::default(), Strategy::FullRollback);
    }

    #[test]
    fn escalation_schedule_doubles_from_base() {
        let p = EscalationPolicy {
            max_attempts: 4,
            base_delay_ns: 5 * MS,
            backoff_factor: 2,
        };
        assert_eq!(p.schedule(), vec![5 * MS, 10 * MS, 20 * MS, 40 * MS]);
        assert_eq!(p.attempt_delay_ns(1), 5 * MS);
        assert_eq!(p.attempt_delay_ns(4), 40 * MS);
    }

    #[test]
    fn escalation_delay_saturates() {
        let p = EscalationPolicy {
            max_attempts: 200,
            base_delay_ns: u64::MAX / 2,
            backoff_factor: 1000,
        };
        assert_eq!(p.attempt_delay_ns(100), u64::MAX);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn attempt_zero_panics() {
        EscalationPolicy::default().attempt_delay_ns(0);
    }
}
