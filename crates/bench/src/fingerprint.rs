//! Stable run fingerprints for cross-version regression gating.
//!
//! PR 1 proved trace determinism *within* a build (same seed + same plan
//! ⇒ same trace); the golden-fixture test turns that into a gate *across*
//! versions by pinning each workload's fingerprint in a committed file.
//! `std`'s `DefaultHasher` makes no stability promise between releases,
//! so the fingerprint is FNV-1a 64 — fixed by construction — over the
//! run's debug-formatted trace, visible outputs, and final simulated
//! time.

use ft_dc::harness::DcReport;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over a byte string.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The deterministic fingerprint of a recovery-runtime run: everything an
/// observer could see — the full event trace, the visible outputs with
/// their timestamps, and the final simulated time.
pub fn report_fingerprint(report: &DcReport) -> u64 {
    let mut repr = dense_debug(&report.trace);
    repr.push_str(&format!("{:?}", report.visibles));
    repr.push_str(&format!("{}", report.runtime));
    fnv1a_64(repr.as_bytes())
}

/// Bridge: the `Debug` rendering of the trace as it was when every event
/// carried its two vector clocks, rebuilt from derived clocks, so the
/// golden fixtures prove the derivation reproduces the recorded clocks.
fn dense_debug(trace: &ft_core::trace::Trace) -> String {
    use std::fmt::Write as _;
    let mut per_proc = vec![Vec::<String>::new(); trace.num_processes()];
    ft_core::clock::replay(trace, |e, c| {
        let mut s = String::new();
        write!(
            s,
            "Event {{ id: {:?}, kind: {:?}, clock: VectorClock {{ components: {:?} }}, \
             causal: VectorClock {{ components: {:?} }}, logged: {:?}, atomic_group: {:?} }}",
            e.id, e.kind, c.hb, c.causal, e.logged, e.atomic_group
        )
        .expect("writing to a String");
        per_proc[e.id.pid.index()].push(s);
    });
    let procs: Vec<String> = per_proc
        .iter()
        .map(|evs| format!("[{}]", evs.join(", ")))
        .collect();
    format!("Trace {{ events: [{}] }}", procs.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fingerprint_is_input_sensitive() {
        assert_ne!(fnv1a_64(b"trace-a"), fnv1a_64(b"trace-b"));
    }
}
