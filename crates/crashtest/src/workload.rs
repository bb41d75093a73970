//! The child's seed-scripted workload.
//!
//! Every operation is nd → commit → visible, the commit-prior-to-visible
//! shape whose Save-work obligation the durable backend discharges. The
//! nd values are a *stateless* function of `(seed, op index)` — not of
//! the incarnation — so a recovered child re-derives exactly the values
//! the canonical run drew and the final arena state is independent of
//! where (or whether) a crash landed.

use ft_mem::arena::{Arena, PAGE_SIZE};

/// One child workload: a name (for reports), the nd seed, and the
/// operation count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadSpec {
    /// Family name (the schedule's `workload`).
    pub name: String,
    /// Seed scripting the nd draws.
    pub seed: u64,
    /// Operations the child executes.
    pub ops: u64,
}

impl WorkloadSpec {
    /// The spec a schedule describes.
    pub fn from_schedule(s: &ft_check::CrashSchedule) -> Self {
        WorkloadSpec {
            name: s.workload.clone(),
            seed: s.seed,
            ops: s.ops,
        }
    }
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The op's non-deterministic draw: stateless in `(seed, i)`, so every
/// incarnation re-derives the same value.
pub fn nd_value(seed: u64, i: u64) -> u64 {
    splitmix(seed ^ splitmix(i.wrapping_add(1)))
}

/// The visible token op `i` emits (derived from its nd draw).
pub fn visible_token(seed: u64, i: u64) -> u64 {
    nd_value(seed, i).rotate_left(17) ^ i
}

/// The two arena pages op `i` dirties. Consecutive operations touch
/// disjoint page pairs (for any arena of ≥ 4 pages), which the
/// corruption trial relies on: a byte flipped in op `i`'s redo record
/// cannot be masked by op `i+1`'s replay.
#[expect(
    clippy::cast_possible_truncation,
    reason = "both values are reduced modulo the page count, a usize"
)]
pub fn op_pages(i: u64, total_pages: usize) -> (usize, usize) {
    let p = total_pages as u64;
    (((2 * i) % p) as usize, ((2 * i + 1) % p) as usize)
}

/// Performs op `i`'s writes: the nd value and a derived second word, one
/// into each of its two pages at an op-indexed offset.
#[expect(
    clippy::cast_possible_truncation,
    reason = "the offset is reduced modulo the page size after the narrowing; op counts are tiny"
)]
pub fn apply_op(arena: &mut Arena, seed: u64, i: u64) {
    let (a, b) = op_pages(i, arena.layout().total_pages());
    let off = ((i as usize) * 8) % PAGE_SIZE;
    let val = nd_value(seed, i);
    arena
        .write_pod::<u64>(a * PAGE_SIZE + off, val)
        .expect("workload write lands in the arena");
    arena
        .write_pod::<u64>(b * PAGE_SIZE + off, val.rotate_left(11))
        .expect("workload write lands in the arena");
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_mem::arena::Layout;

    #[test]
    fn nd_values_are_stateless_and_seed_steered() {
        assert_eq!(nd_value(7, 3), nd_value(7, 3));
        assert_ne!(nd_value(7, 3), nd_value(7, 4));
        assert_ne!(nd_value(7, 3), nd_value(8, 3));
    }

    #[test]
    fn consecutive_ops_touch_disjoint_pages() {
        let p = Layout::small().total_pages();
        for i in 0..100 {
            let (a1, b1) = op_pages(i, p);
            let (a2, b2) = op_pages(i + 1, p);
            assert_ne!(a1, b1);
            assert!(a1 != a2 && a1 != b2 && b1 != a2 && b1 != b2, "op {i}");
        }
    }

    #[test]
    fn replaying_the_same_ops_reproduces_the_arena() {
        let mut x = Arena::new(Layout::small());
        let mut y = Arena::new(Layout::small());
        for i in 0..10 {
            apply_op(&mut x, 7, i);
            x.commit();
        }
        // A different interleaving of commits, same ops.
        for i in 0..10 {
            apply_op(&mut y, 7, i);
        }
        y.commit();
        let n = x.size();
        assert_eq!(
            x.checksum(0, n).unwrap(),
            y.checksum(0, n).unwrap(),
            "final state must be a function of the op set alone"
        );
    }
}
