//! The §4 software fault injector: "running a version of the application
//! with changes in the source code to simulate a variety of programming
//! errors … overwriting random data in the stack or heap, changing the
//! destination variable, neglecting to initialize a variable, deleting a
//! branch, deleting a random line of source code, and off-by-one errors in
//! conditions like `>=` and `<`."
//!
//! Applications register *fault sites* by calling `FaultInjector` hooks
//! at branch points, loop bounds, initializations, and writes. An armed
//! [`FaultPlan`] names exactly one (fault type, site); when execution
//! reaches that site the fault *activates* — the hook perturbs behavior
//! and journals the activation into the trace — and a crash, if any,
//! follows later from ordinary consistency checks or wild accesses, just
//! as §2.5 models propagation failures. The injector also carries the
//! Table 1 end-to-end check's suppression switch: "we suppress the fault
//! activation during recovery, recover the process, and try to complete
//! the run."

use ft_core::fault::{FaultPlan, FaultType};
use ft_mem::arena::Region;
use ft_mem::mem::Mem;
use ft_sim::rng::SplitMix64;
use ft_sim::syscalls::{SysMem, Syscalls};

/// The per-process fault injector. Lives in the application struct: it
/// models the *source code*, so it is deliberately **not** checkpointed or
/// rolled back.
#[derive(Debug, Clone)]
pub(crate) struct FaultInjector {
    plan: Option<FaultPlan>,
    /// Suppress activations (the Table 1 end-to-end recovery check).
    pub suppressed: bool,
    visits: std::collections::HashMap<u64, u32>,
    rng: SplitMix64,
}

impl FaultInjector {
    /// No fault armed.
    pub(crate) fn none() -> Self {
        FaultInjector {
            plan: None,
            suppressed: false,
            visits: std::collections::HashMap::new(),
            rng: SplitMix64::new(0),
        }
    }

    /// Arms a fault plan.
    pub(crate) fn armed(plan: FaultPlan, seed: u64) -> Self {
        FaultInjector {
            plan: Some(plan),
            rng: SplitMix64::new(seed),
            ..FaultInjector::none()
        }
    }

    /// Visits `site` and reports whether `fault` activates there now.
    fn hit(&mut self, fault: FaultType, site: u64, sys: &mut dyn Syscalls) -> bool {
        let Some(plan) = self.plan else { return false };
        if plan.fault != fault || plan.site != site {
            return false;
        }
        let v = self.visits.entry(site).or_insert(0);
        *v += 1;
        if *v != plan.trigger_visit || self.suppressed {
            return false;
        }
        sys.note_fault_activation(plan.id);
        true
    }

    /// DeleteBranch hook: place at `if` statements; when it fires, the
    /// branch outcome is forced to `!taken`.
    pub(crate) fn branch(&mut self, site: u64, taken: bool, sys: &mut dyn Syscalls) -> bool {
        if self.hit(FaultType::DeleteBranch, site, sys) {
            !taken
        } else {
            taken
        }
    }

    /// DeleteInstruction hook: place before a statement; when it fires the
    /// statement must be skipped.
    pub(crate) fn deleted(&mut self, site: u64, sys: &mut dyn Syscalls) -> bool {
        self.hit(FaultType::DeleteInstruction, site, sys)
    }

    /// OffByOne hook: place at loop bounds and index computations; when it
    /// fires the value is perturbed by one (alternating direction by site).
    pub(crate) fn bound(&mut self, site: u64, n: usize, sys: &mut dyn Syscalls) -> usize {
        if self.hit(FaultType::OffByOne, site, sys) {
            if site.is_multiple_of(2) {
                n + 1
            } else {
                n.saturating_sub(1)
            }
        } else {
            n
        }
    }

    /// Initialization hook: place at buffer/variable initializations; when
    /// it fires, initialization must be skipped (the caller leaves stale
    /// data).
    pub(crate) fn skip_init(&mut self, site: u64, sys: &mut dyn Syscalls) -> bool {
        self.hit(FaultType::Initialization, site, sys)
    }

    /// DestinationReg hook: place at stores; returns a corrupted
    /// destination offset when it fires.
    pub(crate) fn dest(&mut self, site: u64, intended: usize, sys: &mut dyn Syscalls) -> usize {
        if self.hit(FaultType::DestinationReg, site, sys) {
            // The compiler picked the wrong register: a nearby slot, which
            // one depending on what the register happened to hold.
            intended ^ (8 << self.rng.below(4))
        } else {
            intended
        }
    }

    /// Bit-flip hook: place at the top of event-handling code; when it
    /// fires, flips a random bit in the stack or heap region (per the
    /// armed type). Corruption goes through the normal write path, so it
    /// rolls back like any other state.
    pub(crate) fn maybe_flip(&mut self, site: u64, sys: &mut dyn SysMem) {
        let (region, fault) = match self.plan.map(|p| p.fault) {
            Some(FaultType::StackBitFlip) => (Region::Stack, FaultType::StackBitFlip),
            Some(FaultType::HeapBitFlip) => (Region::Heap, FaultType::HeapBitFlip),
            _ => return,
        };
        if !self.hit(fault, site, sys) {
            return;
        }
        let mem: &mut Mem = sys.mem();
        // Target *live* data: the active stack frame sits at the bottom of
        // the stack region, and the live heap runs up to the allocator's
        // high-water mark. Flipping dead bytes models nothing.
        let range = match region {
            Region::Stack => {
                let r = mem.arena.region_range(Region::Stack);
                r.start..(r.start + 32).min(r.end)
            }
            _ => {
                let r = mem.arena.region_range(Region::Heap);
                r.start..mem.alloc.high_water().max(r.start + 64).min(r.end)
            }
        };
        let off = range.start + self.rng.index(range.end - range.start);
        let bit = u8::try_from(self.rng.below(8)).expect("draw is < 8");
        // A corruption that lands out of a mapped page cannot happen here
        // (regions are always mapped); the write is infallible.
        mem.arena.flip_bit(off, bit).expect("region is mapped");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_core::event::ProcessId;
    use ft_mem::arena::Layout;

    /// A minimal Syscalls stand-in for hook tests.
    struct NullSys {
        activations: Vec<u32>,
        mem: Mem,
        scratch: Vec<u8>,
    }

    impl SysMem for NullSys {
        fn mem(&mut self) -> &mut Mem {
            &mut self.mem
        }
    }

    impl Syscalls for NullSys {
        fn pid(&self) -> ProcessId {
            ProcessId(0)
        }
        fn now(&self) -> u64 {
            0
        }
        fn compute(&mut self, _ns: u64) {}
        fn gettimeofday(&mut self) -> u64 {
            0
        }
        fn random(&mut self) -> u64 {
            0
        }
        fn read_input(&mut self) -> Option<ft_sim::syscalls::Payload> {
            None
        }
        fn input_exhausted(&self) -> bool {
            true
        }
        fn send(&mut self, _to: ProcessId, _p: &[u8]) -> ft_sim::syscalls::SysResult<()> {
            Ok(())
        }
        fn try_recv(&mut self) -> Option<ft_sim::syscalls::Message> {
            None
        }
        fn visible(&mut self, _t: u64) {}
        fn take_signal(&mut self) -> Option<u32> {
            None
        }
        fn open(&mut self, _n: &str) -> ft_sim::syscalls::SysResult<u32> {
            Ok(0)
        }
        fn write_file(&mut self, _fd: u32, _b: &[u8]) -> ft_sim::syscalls::SysResult<()> {
            Ok(())
        }
        fn read_file(&mut self, _fd: u32, _l: usize) -> ft_sim::syscalls::SysResult<Vec<u8>> {
            Ok(Vec::new())
        }
        fn close(&mut self, _fd: u32) -> ft_sim::syscalls::SysResult<()> {
            Ok(())
        }
        fn note_fault_activation(&mut self, fault: u32) {
            self.activations.push(fault);
        }
        fn scratch(&mut self) -> &mut Vec<u8> {
            &mut self.scratch
        }
    }

    fn sys() -> NullSys {
        NullSys {
            activations: Vec::new(),
            mem: Mem::new(Layout::small()),
            scratch: Vec::new(),
        }
    }

    #[test]
    fn unarmed_injector_is_inert() {
        let mut f = FaultInjector::none();
        let mut s = sys();
        assert!(f.branch(1, true, &mut s));
        assert!(!f.branch(1, false, &mut s));
        assert!(!f.deleted(2, &mut s));
        assert_eq!(f.bound(3, 10, &mut s), 10);
        assert!(!f.skip_init(4, &mut s));
        assert_eq!(f.dest(5, 100, &mut s), 100);
        assert!(s.activations.is_empty());
    }

    #[test]
    fn delete_branch_flips_outcome_and_journals() {
        let plan = FaultPlan {
            fault: FaultType::DeleteBranch,
            site: 7,
            trigger_visit: 2,
            id: 42,
        };
        let mut f = FaultInjector::armed(plan, 1);
        let mut s = sys();
        // First visit: below the trigger.
        assert!(f.branch(7, true, &mut s));
        // The trigger visit: inverted.
        assert!(!f.branch(7, true, &mut s));
        assert!(f.branch(7, true, &mut s));
        assert_eq!(s.activations, vec![42]);
        // Other sites unaffected.
        assert!(f.branch(8, true, &mut s));
    }

    #[test]
    fn suppression_disables_activation() {
        let plan = FaultPlan {
            fault: FaultType::OffByOne,
            site: 1,
            trigger_visit: 1,
            id: 9,
        };
        let mut f = FaultInjector::armed(plan, 1);
        f.suppressed = true;
        let mut s = sys();
        assert_eq!(f.bound(1, 10, &mut s), 10);
        assert!(s.activations.is_empty());
    }

    #[test]
    fn off_by_one_perturbs_by_one() {
        let mut s = sys();
        let even = FaultPlan {
            fault: FaultType::OffByOne,
            site: 2,
            trigger_visit: 1,
            id: 1,
        };
        let mut f = FaultInjector::armed(even, 1);
        assert_eq!(f.bound(2, 10, &mut s), 11);
        let odd = FaultPlan {
            fault: FaultType::OffByOne,
            site: 3,
            trigger_visit: 1,
            id: 1,
        };
        let mut f = FaultInjector::armed(odd, 1);
        assert_eq!(f.bound(3, 10, &mut s), 9);
        assert_eq!(s.activations, [1, 1]);
        // One-shot: the saturating case needs its own armed injector.
        let mut f = FaultInjector::armed(odd, 1);
        assert_eq!(f.bound(3, 0, &mut s), 0, "saturating");
        assert_eq!(s.activations, [1, 1, 1], "the fault fired at n == 0");
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_bit_in_the_right_region() {
        for (fault, region) in [
            (FaultType::StackBitFlip, Region::Stack),
            (FaultType::HeapBitFlip, Region::Heap),
        ] {
            let plan = FaultPlan {
                fault,
                site: 5,
                trigger_visit: 1,
                id: 2,
            };
            let mut f = FaultInjector::armed(plan, 3);
            let mut s = sys();
            let before = s.mem.arena.read(0, s.mem.arena.size()).unwrap().to_vec();
            f.maybe_flip(5, &mut s);
            let mem = &s.mem;
            let after = mem.arena.read(0, mem.arena.size()).unwrap();
            let diff: Vec<usize> = (0..before.len())
                .filter(|&i| before[i] != after[i])
                .collect();
            assert_eq!(diff.len(), 1);
            let range = mem.arena.region_range(region);
            assert!(range.contains(&diff[0]), "{fault}: flipped outside region");
            assert_eq!(
                (before[diff[0]] ^ after[diff[0]]).count_ones(),
                1,
                "exactly one bit"
            );
        }
    }

    #[test]
    fn destination_reg_moves_the_store() {
        let plan = FaultPlan {
            fault: FaultType::DestinationReg,
            site: 0,
            trigger_visit: 1,
            id: 3,
        };
        let mut f = FaultInjector::armed(plan, 1);
        let mut s = sys();
        let d = f.dest(0, 256, &mut s);
        assert_ne!(d, 256);
    }

    #[test]
    fn one_shot_fault_fires_exactly_once() {
        let plan = FaultPlan {
            fault: FaultType::DeleteInstruction,
            site: 4,
            trigger_visit: 2,
            id: 5,
        };
        let mut f = FaultInjector::armed(plan, 1);
        let mut s = sys();
        assert!(!f.deleted(4, &mut s)); // Visit 1.
        assert!(f.deleted(4, &mut s)); // Visit 2: fires.
        assert!(!f.deleted(4, &mut s)); // Visit 3 (recovery replay): quiet.
        assert_eq!(s.activations, [5]);
    }
}
