//! # ft-faults — software fault injection
//!
//! The §4 fault model: "running a version of the application with changes
//! in the source code to simulate a variety of programming errors …
//! overwriting random data in the stack or heap, changing the destination
//! variable, neglecting to initialize a variable, deleting a branch,
//! deleting a random line of source code, and off-by-one errors in
//! conditions like `>=` and `<`."
//!
//! Applications register *fault sites* by calling [`FaultInjector`] hooks
//! at branch points, loop bounds, initializations, and writes. An injected
//! [`FaultPlan`] arms exactly one (fault type, site); when execution
//! reaches that site the fault *activates* — the hook perturbs behavior
//! and journals the activation into the trace — and a crash, if any,
//! follows later from ordinary consistency checks or wild accesses, just
//! as §2.5 models propagation failures.
//!
//! The injector also carries the Table 1 end-to-end check's suppression
//! switch: "we suppress the fault activation during recovery, recover the
//! process, and try to complete the run."
//!
//! Kernel faults (§4.2) are armed with [`KernelFaultPlan`]: a fault either
//! panics the node immediately (a stop failure) or corrupts a few syscall
//! results before panicking (a propagation failure), with the propagation
//! probability and corruption depth drawn per fault type.
//!
//! Network faults sit alongside both: a [`NetFaultSpec`] describes an
//! unreliable fabric (loss, duplication, reordering, partitions) and
//! builds the `ft-sim` transport's [`NetFaultPlan`], so a campaign can
//! combine environment failures with code and kernel bugs.
//!
//! Finally, [`arrivals`] generates *sustained* fault processes for the
//! availability campaign: seeded Poisson crash arrivals (deterministic,
//! O(1)-splittable per trial) and the bounded retry/backoff
//! [`EscalationPolicy`] for microreboot recovery — and [`population`]
//! scales the same machinery to workload traffic, merging millions of
//! open-loop client sessions into one O(1)-random-accessible Poisson
//! arrival stream for the kvstore campaign.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod crash;
pub mod population;

pub use arrivals::{EscalationPolicy, ExpSampler, PoissonArrivals};
pub use crash::CrashPoint;
pub use population::OpenLoopPopulation;

use ft_core::event::ProcessId;
use ft_mem::arena::Region;
use ft_mem::mem::Mem;
use ft_sim::cost::{SimTime, US};
use ft_sim::net::{NetFaultPlan, Partition};
use ft_sim::rng::SplitMix64;
use ft_sim::sim::Simulator;
use ft_sim::syscalls::{SysMem, Syscalls};

/// The seven application fault types of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultType {
    /// Flip a random bit in the stack region.
    StackBitFlip,
    /// Flip a random bit in the heap region.
    HeapBitFlip,
    /// Write a computed value to the wrong destination.
    DestinationReg,
    /// Neglect to initialize a variable/buffer.
    Initialization,
    /// Delete a branch (the guarded code always/never runs).
    DeleteBranch,
    /// Delete a source line (skip a statement).
    DeleteInstruction,
    /// Off-by-one in a condition (`>=` vs `>`, `<` vs `<=`).
    OffByOne,
}

impl FaultType {
    /// All seven, in Table 1's order.
    pub const ALL: [FaultType; 7] = [
        FaultType::StackBitFlip,
        FaultType::HeapBitFlip,
        FaultType::DestinationReg,
        FaultType::Initialization,
        FaultType::DeleteBranch,
        FaultType::DeleteInstruction,
        FaultType::OffByOne,
    ];

    /// Table 1's row label.
    pub fn name(self) -> &'static str {
        match self {
            FaultType::StackBitFlip => "Stack bit flip",
            FaultType::HeapBitFlip => "Heap bit flip",
            FaultType::DestinationReg => "Destination reg",
            FaultType::Initialization => "Initialization",
            FaultType::DeleteBranch => "Delete branch",
            FaultType::DeleteInstruction => "Delete instruction",
            FaultType::OffByOne => "Off by one",
        }
    }
}

impl std::fmt::Display for FaultType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One armed fault: a (type, site, trigger visit) triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// The fault type.
    pub fault: FaultType,
    /// The site it lives at (each hook call names its site). `site % n` is
    /// typically derived from a sweep counter, so any site can be hit.
    pub site: u64,
    /// Activate at exactly this visit of the site. The visit counter is
    /// physical (it keeps counting through recovery re-execution), so the
    /// fault is automatically *suppressed during recovery*, the Table 1
    /// end-to-end methodology (§4.1).
    pub trigger_visit: u32,
    /// Identifier journaled with activations.
    pub id: u32,
}

/// The per-process fault injector. Lives in the application struct: it
/// models the *source code*, so it is deliberately **not** checkpointed or
/// rolled back.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: Option<FaultPlan>,
    /// Suppress activations (the Table 1 end-to-end recovery check).
    pub suppressed: bool,
    visits: std::collections::HashMap<u64, u32>,
    activations: u32,
    rng: SplitMix64,
}

impl Default for FaultInjector {
    fn default() -> Self {
        FaultInjector::none()
    }
}

impl FaultInjector {
    /// No fault armed.
    pub fn none() -> Self {
        FaultInjector {
            plan: None,
            suppressed: false,
            visits: std::collections::HashMap::new(),
            activations: 0,
            rng: SplitMix64::new(0),
        }
    }

    /// Arms a fault plan.
    pub fn armed(plan: FaultPlan, seed: u64) -> Self {
        FaultInjector {
            plan: Some(plan),
            suppressed: false,
            visits: std::collections::HashMap::new(),
            activations: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// How many times the fault activated.
    pub fn activations(&self) -> u32 {
        self.activations
    }

    /// The armed plan, if any.
    pub fn plan(&self) -> Option<FaultPlan> {
        self.plan
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
        self.activations += 1;
        sys.note_fault_activation(plan.id);
        true
    }

    /// DeleteBranch hook: place at `if` statements; when it fires, the
    /// branch outcome is forced to `!taken`.
    pub fn branch(&mut self, site: u64, taken: bool, sys: &mut dyn Syscalls) -> bool {
        if self.hit(FaultType::DeleteBranch, site, sys) {
            !taken
        } else {
            taken
        }
    }

    /// DeleteInstruction hook: place before a statement; when it fires the
    /// statement must be skipped.
    pub fn deleted(&mut self, site: u64, sys: &mut dyn Syscalls) -> bool {
        self.hit(FaultType::DeleteInstruction, site, sys)
    }

    /// OffByOne hook: place at loop bounds and index computations; when it
    /// fires the value is perturbed by one (alternating direction by site).
    pub fn bound(&mut self, site: u64, n: usize, sys: &mut dyn Syscalls) -> usize {
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
    /// it fires, initialization must be skipped (the caller uses
    /// `alloc_uninit` or leaves stale data).
    pub fn skip_init(&mut self, site: u64, sys: &mut dyn Syscalls) -> bool {
        self.hit(FaultType::Initialization, site, sys)
    }

    /// DestinationReg hook: place at stores; returns a corrupted
    /// destination offset when it fires.
    pub fn dest(&mut self, site: u64, intended: usize, sys: &mut dyn Syscalls) -> usize {
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
    pub fn maybe_flip(&mut self, site: u64, sys: &mut dyn SysMem) {
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

/// A kernel fault campaign entry (§4.2): injected into the node kernel
/// under an application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelFaultPlan {
    /// The fault type (reusing the application taxonomy, as the paper
    /// does).
    pub fault: FaultType,
    /// When to inject (simulated time).
    pub inject_at: u64,
    /// Probability that the fault manifests as a propagation failure
    /// (corrupting syscall results) rather than an immediate panic.
    pub propagation_prob: f64,
    /// How many syscall results get corrupted before the panic, when it
    /// propagates.
    pub corrupt_calls: u32,
}

impl KernelFaultPlan {
    /// The per-type default shape: pointer-ish corruptions (bit flips,
    /// destination, off-by-one) tend to wild-write and panic fast; logic
    /// faults (deleted branch/instruction, initialization) linger and leak
    /// bad results to applications first.
    pub fn for_type(fault: FaultType, inject_at: u64) -> Self {
        let (propagation_prob, corrupt_calls) = match fault {
            FaultType::StackBitFlip => (0.25, 2),
            FaultType::HeapBitFlip => (0.30, 3),
            FaultType::DestinationReg => (0.20, 2),
            FaultType::Initialization => (0.35, 3),
            FaultType::DeleteBranch => (0.45, 4),
            FaultType::DeleteInstruction => (0.30, 3),
            FaultType::OffByOne => (0.35, 2),
        };
        KernelFaultPlan {
            fault,
            inject_at,
            propagation_prob,
            corrupt_calls,
        }
    }

    /// How long a propagating kernel fault lingers before the node dies.
    /// Only syscalls the application issues inside this window can catch a
    /// corrupted result — so the propagation *reach* scales with the
    /// application's syscall rate, the paper's hypothesized mechanism for
    /// the nvi/postgres difference (§4.2).
    pub const PANIC_DELAY_NS: u64 = 20_000_000;

    /// Injects the fault into `pid`'s kernel: decides stop vs. propagation
    /// with the plan's probability. A stop failure kills the node at
    /// `inject_at`; a propagation failure arms syscall-result corruption at
    /// `inject_at` and kills the node [`Self::PANIC_DELAY_NS`] later.
    /// Returns true if the fault will propagate.
    pub fn inject(&self, sim: &mut Simulator, pid: ProcessId, rng: &mut SplitMix64) -> bool {
        let propagate = rng.chance(self.propagation_prob);
        if propagate {
            sim.kernel_of_mut(pid)
                .arm_corruption(self.inject_at, self.corrupt_calls);
            sim.kill_at(pid, self.inject_at + Self::PANIC_DELAY_NS);
        } else {
            sim.kill_at(pid, self.inject_at);
        }
        propagate
    }
}

/// Builder for an unreliable-fabric description. Composes the network
/// fault types into one [`NetFaultPlan`] for the simulator's transport.
///
/// ```
/// use ft_faults::NetFaultSpec;
/// use ft_core::event::ProcessId;
///
/// let plan = NetFaultSpec::new(0xFAB)
///     .loss(0.05)
///     .duplication(0.01)
///     .reorder_window_us(300)
///     .partition(ProcessId(0), ProcessId(1), 1_000_000, 5_000_000)
///     .build();
/// assert_eq!(plan.partitions.len(), 2); // Both directions.
/// ```
#[derive(Debug, Clone)]
pub struct NetFaultSpec {
    plan: NetFaultPlan,
}

impl NetFaultSpec {
    /// A lossless fabric with the given fabric seed (independent of the
    /// simulator seed).
    pub fn new(seed: u64) -> Self {
        NetFaultSpec {
            plan: NetFaultPlan {
                seed,
                ..NetFaultPlan::default()
            },
        }
    }

    /// Sets the per-attempt drop probability.
    pub fn loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.plan.drop_prob = p;
        self
    }

    /// Sets the payload duplication probability.
    pub fn duplication(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "dup probability out of range");
        self.plan.dup_prob = p;
        self
    }

    /// Sets the reordering window in microseconds: arrivals are delayed by
    /// a random span of it, letting later sends overtake earlier ones.
    pub fn reorder_window_us(mut self, us: u64) -> Self {
        self.plan.reorder_window_ns = us * US;
        self
    }

    /// Sets the per-attempt latency jitter in microseconds.
    pub fn jitter_us(mut self, us: u64) -> Self {
        self.plan.jitter_ns = us * US;
        self
    }

    /// Adds a symmetric partition between `a` and `b` over `[start, end)`.
    pub fn partition(mut self, a: ProcessId, b: ProcessId, start: SimTime, end: SimTime) -> Self {
        assert!(start < end, "empty partition interval");
        for (f, t) in [(a.0, b.0), (b.0, a.0)] {
            self.plan.partitions.push(Partition {
                from: f,
                to: t,
                start,
                end,
            });
        }
        self
    }

    /// Adds a one-directional partition (asymmetric link failure).
    pub fn one_way_partition(
        mut self,
        from: ProcessId,
        to: ProcessId,
        start: SimTime,
        end: SimTime,
    ) -> Self {
        assert!(start < end, "empty partition interval");
        self.plan.partitions.push(Partition {
            from: from.0,
            to: to.0,
            start,
            end,
        });
        self
    }

    /// Overrides the transport's retransmission parameters.
    pub fn retransmit(
        mut self,
        rto_ns: SimTime,
        max_backoff_ns: SimTime,
        max_retries: u32,
    ) -> Self {
        self.plan.rto_ns = rto_ns;
        self.plan.max_backoff_ns = max_backoff_ns;
        self.plan.max_retries = max_retries;
        self
    }

    /// The built plan.
    pub fn build(self) -> NetFaultPlan {
        self.plan
    }

    /// Builds and installs the plan on a simulator (before the run).
    pub fn install(self, sim: &mut Simulator) {
        sim.install_net_fault_plan(self.plan);
    }

    /// The canonical lossy-fabric shape used by the degradation sweeps: a
    /// given loss rate plus light duplication and a reordering window on
    /// the order of the base network latency.
    pub fn lossy(seed: u64, loss: f64) -> Self {
        NetFaultSpec::new(seed)
            .loss(loss)
            .duplication(0.01)
            .reorder_window_us(200)
            .jitter_us(50)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_mem::arena::Layout;
    use ft_sim::sim::SimConfig;

    /// A minimal Syscalls stand-in for hook tests.
    struct NullSys {
        activations: Vec<u32>,
        mem: Mem,
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
        fn read_input(&mut self) -> Option<Vec<u8>> {
            None
        }
        fn input_exhausted(&self) -> bool {
            true
        }
        fn send(&mut self, _to: ProcessId, _p: Vec<u8>) -> ft_sim::syscalls::SysResult<()> {
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
    }

    fn sys() -> NullSys {
        NullSys {
            activations: Vec::new(),
            mem: Mem::new(Layout::small()),
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
        assert_eq!(f.activations(), 0);
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
        assert_eq!(f.activations(), 1);
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
        assert_eq!(f.activations(), 0);
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
        assert_eq!(f.activations(), 1);
        // One-shot: the saturating case needs its own armed injector.
        let mut f = FaultInjector::armed(odd, 1);
        assert_eq!(f.bound(3, 0, &mut s), 0, "saturating");
        assert_eq!(f.activations(), 1, "the fault fired at n == 0");
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
    fn kernel_plan_stop_vs_propagation() {
        let mut stop_count = 0;
        let mut prop_count = 0;
        for seed in 0..200 {
            let mut sim = Simulator::new(SimConfig::single_node(1, seed));
            let plan = KernelFaultPlan::for_type(FaultType::DeleteBranch, 0);
            let mut rng = SplitMix64::new(seed * 7 + 1);
            if plan.inject(&mut sim, ProcessId(0), &mut rng) {
                prop_count += 1;
                assert!(sim.kernel_of(ProcessId(0)).corrupting());
            } else {
                stop_count += 1;
            }
            // Either way the node is scheduled to die (a Kill is queued).
            assert!(!sim.kernel_of(ProcessId(0)).panicked());
        }
        // DeleteBranch propagates ~45% of the time.
        assert!(
            prop_count > 50 && stop_count > 50,
            "{prop_count}/{stop_count}"
        );
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
        assert_eq!(f.activations(), 1);
    }

    #[test]
    fn fault_type_names_match_table_1() {
        assert_eq!(FaultType::ALL.len(), 7);
        assert_eq!(FaultType::StackBitFlip.name(), "Stack bit flip");
        assert_eq!(FaultType::OffByOne.name(), "Off by one");
    }

    #[test]
    fn net_fault_spec_builds_every_fault_kind() {
        let spec = NetFaultSpec::new(9)
            .loss(0.1)
            .duplication(0.02)
            .reorder_window_us(100)
            .partition(ProcessId(0), ProcessId(2), 10, 20)
            .one_way_partition(ProcessId(1), ProcessId(0), 5, 15);
        let plan = spec.build();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.drop_prob, 0.1);
        assert_eq!(plan.partitions.len(), 3);
        // The symmetric partition covers both directions.
        assert!(plan
            .partitioned_until(ProcessId(0), ProcessId(2), 10)
            .is_some());
        assert!(plan
            .partitioned_until(ProcessId(2), ProcessId(0), 19)
            .is_some());
        assert!(plan
            .partitioned_until(ProcessId(0), ProcessId(2), 20)
            .is_none());
    }

    #[test]
    fn lossless_spec_exercises_nothing() {
        assert_eq!(
            NetFaultSpec::new(1).build(),
            NetFaultPlan {
                seed: 1,
                ..NetFaultPlan::default()
            }
        );
    }

    #[test]
    fn spec_installs_on_a_simulator() {
        let mut sim = Simulator::new(SimConfig::single_node(2, 5));
        NetFaultSpec::lossy(77, 0.05).install(&mut sim);
        let plan = sim.network().fault_plan().expect("plan installed");
        assert_eq!(plan.seed, 77);
        assert_eq!(plan.drop_prob, 0.05);
    }
}
