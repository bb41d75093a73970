//! Heap discipline of the DSM hot path, gated as exact integers.
//!
//! Discount Checking's premise is that all recoverable state lives in the
//! arena, so a DSM process must not rebuild anything per step. Four things
//! used to: every `step` of a DSM app re-derived its handle on a
//! throw-away arena (1.8 arena-sized allocations per event on
//! `treadmarks`), every barrier send materialized one `Vec` per diff run,
//! every Barnes-Hut force step boxed each inner node of its quadtree, and
//! the access stream kept one 32-byte record per field access. All four
//! are counted here with a counting global allocator, which is why this
//! file holds exactly one `#[test]`: a second test thread would allocate
//! into the same counters.

use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use ft_apps::scenarios;
use ft_core::access::ShmLog;
use ft_core::protocol::Protocol;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;
use ft_dsm::{BarrierStatus, Dsm, DSM_PAGE};
use ft_mem::arena::Layout;
use ft_mem::error::MemResult;
use ft_mem::mem::ArenaCell;
use ft_mem::PAGE_SIZE;
use ft_sim::sim::{SimConfig, Simulator};
use ft_sim::syscalls::{App, AppStatus, SysMem, WaitCond};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Allocations of exactly `WATCHED` bytes.
static WATCHED_ALLOCS: AtomicU64 = AtomicU64::new(0);
static WATCHED: [AtomicU64; 2] = [AtomicU64::new(0), AtomicU64::new(0)];

struct Counting;

fn count(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    if WATCHED.iter().any(|w| w.load(Relaxed) == size as u64) {
        WATCHED_ALLOCS.fetch_add(1, Relaxed);
    }
}

// SAFETY: delegates every call to `System` unchanged, only adding relaxed
// counter updates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: AllocLayout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's arguments, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs a scenario under the recovery runtime and returns how many
/// arena-sized blocks were allocated between the first step and the end
/// of the run, with the run's access stream. The harness owns every real
/// arena before the first step, so any such block is a scratch copy.
fn arena_sized_allocs_while_running(built: scenarios::Built) -> (u64, ShmLog) {
    let (sim, apps) = built.into_parts();
    let mut sizes: Vec<u64> = apps
        .iter()
        .map(|a| (a.layout().total_pages() * PAGE_SIZE) as u64)
        .collect();
    sizes.sort_unstable();
    sizes.dedup();
    assert!(sizes.len() <= WATCHED.len() && sizes.iter().all(|&s| s >= 32 * 1024));
    for (w, s) in WATCHED
        .iter()
        .zip(sizes.iter().chain(std::iter::repeat(&0)))
    {
        w.store(*s, Relaxed);
    }
    let harness = DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cbndv2pc), apps);
    let before = WATCHED_ALLOCS.load(Relaxed);
    let report = harness.run();
    let during = WATCHED_ALLOCS.load(Relaxed) - before;
    assert!(report.all_done);
    (during, report.shm)
}

/// Most allocations any one `barrier_pump` call of [`Sender`] made.
static MAX_PUMP_ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Runs in every other byte of the page: the most runs a page can carry.
const RUNS: usize = DSM_PAGE / 2;

const SENDER_LAYOUT: Layout = Layout {
    globals_pages: 1,
    stack_pages: 1,
    heap_pages: 8,
};

/// Dirties a whole page in `RUNS` one-byte runs, then completes one
/// barrier, counting what each pump allocates.
struct Sender {
    dsm: Dsm,
}

impl App for Sender {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        let phase: ArenaCell<u64> = ArenaCell::at(0);
        match phase.get(&sys.mem().arena)? {
            0 => {
                let m = sys.mem();
                self.dsm.init_attached(m)?;
                for i in 0..RUNS {
                    self.dsm.write_raw(m, 2 * i, &[0xFF])?;
                }
                phase.set(&mut m.arena, 1)?;
                Ok(AppStatus::Running)
            }
            1 => {
                let before = ALLOCS.load(Relaxed);
                let status = self.dsm.barrier_pump(sys)?;
                MAX_PUMP_ALLOCS.fetch_max(ALLOCS.load(Relaxed) - before, Relaxed);
                Ok(match status {
                    BarrierStatus::Done => {
                        phase.set(&mut sys.mem().arena, 2)?;
                        AppStatus::Running
                    }
                    BarrierStatus::Working => AppStatus::Running,
                    BarrierStatus::Blocked => AppStatus::Blocked(WaitCond::message()),
                })
            }
            _ => Ok(AppStatus::Done),
        }
    }

    fn layout(&self) -> Layout {
        SENDER_LAYOUT
    }
}

/// Over every Barnes-Hut force step: fewest and most allocations in one
/// step, steps, and allocations in all of them.
static FORCE: [AtomicU64; 4] = [
    AtomicU64::new(u64::MAX),
    AtomicU64::new(0),
    AtomicU64::new(0),
    AtomicU64::new(0),
];

/// A Barnes-Hut node, counting what its force steps allocate. The node's
/// phase word is the first word of its globals; 1 is the force phase.
struct ForceProbe(Box<dyn App>);

impl App for ForceProbe {
    fn step(&mut self, sys: &mut dyn SysMem) -> MemResult<AppStatus> {
        if ArenaCell::<u64>::at(0).get(&sys.mem().arena)? != 1 {
            return self.0.step(sys);
        }
        let before = ALLOCS.load(Relaxed);
        let status = self.0.step(sys);
        let n = ALLOCS.load(Relaxed) - before;
        FORCE[0].fetch_min(n, Relaxed);
        FORCE[1].fetch_max(n, Relaxed);
        FORCE[2].fetch_add(1, Relaxed);
        FORCE[3].fetch_add(n, Relaxed);
        status
    }

    fn layout(&self) -> Layout {
        self.0.layout()
    }
}

#[test]
fn dsm_steps_copy_no_arena_and_a_barrier_send_allocates_no_runs() {
    let (rebuilt, shm) = arena_sized_allocs_while_running(scenarios::treadmarks(11, 6));
    assert_eq!(rebuilt, 0, "a treadmarks step rebuilt its arena");
    // The stream is stored as runs (a force phase's 480 field reads are
    // one), at least ten records to a run.
    assert_eq!((shm.len(), shm.runs()), (19_248, 1_228));
    assert!(shm.runs() * 10 <= shm.len());
    assert_eq!(
        arena_sized_allocs_while_running(scenarios::taskfarm(9, 3)).0,
        0,
        "a taskfarm step rebuilt its arena"
    );

    // 160 force steps, over trees of 289 to 537 nodes: each allocates the
    // body array and the tree's one `Vec`, whatever the tree's size; one
    // of them also grows the access stream's run `Vec`.
    let (sim, apps) = scenarios::treadmarks(11, 40).into_parts();
    let apps = apps
        .into_iter()
        .map(|app| Box::new(ForceProbe(app)) as Box<dyn App>)
        .collect();
    let report = DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cbndv2pc), apps).run();
    assert!(report.all_done);
    assert_eq!(FORCE.each_ref().map(|c| c.load(Relaxed)), [2, 3, 160, 321]);

    let apps: Vec<Box<dyn App>> = (0..2)
        .map(|i| {
            let dsm = Dsm::attach(SENDER_LAYOUT, i, 2, 1).expect("the heap holds one page");
            Box::new(Sender { dsm }) as Box<dyn App>
        })
        .collect();
    let sim = Simulator::new(SimConfig::one_node_each(2, 5));
    let report = DcHarness::new(sim, DcConfig::discount_checking(Protocol::Cbndv2pc), apps).run();
    assert!(report.all_done);
    let max = MAX_PUMP_ALLOCS.load(Relaxed);
    // The payload, its shared copy, and the runtime's bookkeeping for one
    // send event — not one allocation per run.
    assert!(
        max > 0 && max <= 16,
        "{max} allocations in one barrier pump of {RUNS} runs"
    );
}
