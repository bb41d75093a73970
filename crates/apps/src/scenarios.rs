//! Scenario builders: configured simulators plus application sets for each
//! evaluation workload (§3's suite at bench scale).

use crate::barnes_hut;
use crate::editor::Editor;
use crate::game;
use crate::minidb::MiniDb;
use crate::workload::{cad_script, editor_script_with, minidb_script};
use crate::Cad;
use ft_core::event::ProcessId;
use ft_sim::script::{InputScript, SignalSchedule};
use ft_sim::sim::{SimConfig, Simulator};
use ft_sim::syscalls::App;
use ft_sim::{MS, SEC};

/// Shape metadata for a built scenario, carried alongside the simulator
/// so measurement code derives workload facts (client counts, process
/// counts) from the build instead of hardcoding them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioMeta {
    /// Processes in the run.
    pub processes: usize,
    /// Interactive game clients whose rendered frames the fps metric
    /// averages over. Zero for non-game workloads.
    pub clients: usize,
}

/// A built scenario ready to run.
pub struct Built {
    /// The configured simulator (scripts, signals, topology installed).
    pub sim: Simulator,
    /// The application set, indexed by process id.
    pub apps: Vec<Box<dyn App>>,
    /// Shape metadata.
    pub meta: ScenarioMeta,
}

impl Built {
    /// Splits into the pieces a harness constructor wants.
    pub fn into_parts(self) -> (Simulator, Vec<Box<dyn App>>) {
        (self.sim, self.apps)
    }
}

/// Wraps a simulator + app set as a non-game scenario (`clients == 0`).
fn built(sim: Simulator, apps: Vec<Box<dyn App>>) -> Built {
    let meta = ScenarioMeta {
        processes: apps.len(),
        clients: 0,
    };
    Built { sim, apps, meta }
}

/// The six workloads of the suite at the sizes the golden-trace fixtures
/// pin (each a [`family`] name with its size knob).
pub const GOLDEN: [(&str, usize); 6] = [
    ("nvi", 40),
    ("magic", 10),
    ("xpilot", 20),
    ("treadmarks", 8),
    ("taskfarm", 3),
    ("postgres", 10),
];

/// A family's builder at `(seed, size)`.
pub type Build = fn(u64, usize) -> Built;

/// The by-name family table: every family with its builder. The size is
/// nvi keys (`nvi-batch` is the §4 crash studies' session at 1 ms think
/// time), magic commands, xpilot frames, treadmarks iterations, taskfarm
/// workers, postgres or kvstore requests;
/// the `-racy`/`-fused`/`-skiprepl` names are the seeded mutants of the
/// family they prefix. This is the one list of families: [`family`]
/// resolves names through it and `ft-check` interns script names from it.
pub const FAMILIES: [(&str, Build); 11] = [
    ("nvi", nvi),
    ("nvi-batch", |seed, size| nvi_custom(seed, size, MS, false)),
    ("magic", magic),
    ("xpilot", |seed, size| xpilot(seed, size as u64)),
    ("treadmarks", |seed, size| treadmarks(seed, size as u64)),
    ("treadmarks-fused", |seed, size| {
        treadmarks_fused(seed, size as u64)
    }),
    ("taskfarm", |seed, size| taskfarm(seed, workers(size))),
    ("taskfarm-racy", |seed, size| {
        taskfarm_racy(seed, workers(size))
    }),
    ("postgres", postgres),
    ("kvstore", |seed, size| kvstore_check(seed, size as u64)),
    ("kvstore-skiprepl", |seed, size| {
        kvstore_check_mutant(seed, size as u64)
    }),
];

fn workers(size: usize) -> u32 {
    u32::try_from(size).expect("scenario sizes are small")
}

/// Builds a scenario family of [`FAMILIES`] by name at an explicit size;
/// `None` for a name that is no family.
///
/// # Panics
///
/// Panics if a taskfarm `size` does not fit the worker-count type.
pub fn family(name: &str, seed: u64, size: usize) -> Option<Built> {
    let (_, build) = FAMILIES.iter().find(|(family, _)| *family == name)?;
    Some(build(seed, size))
}

/// The nvi session: `keys` keystrokes at 100 ms think time, with a couple
/// of asynchronous signals (window resizes) over the session. Saves are
/// rare (every ~1000 keys) as in a real editing session.
pub fn nvi(seed: u64, keys: usize) -> Built {
    let mut sim = Simulator::new(SimConfig::single_node(1, seed));
    let script = editor_script_with(keys, seed ^ 0xED17, 1009, 499);
    sim.set_input_script(
        ProcessId(0),
        InputScript::think_time(100 * MS, script.into_iter().map(|k| [k])),
    );
    let span = keys as u64 * 100 * MS;
    sim.set_signal_schedule(
        ProcessId(0),
        SignalSchedule::new(vec![(span / 3, 28), (2 * span / 3, 28)]),
    );
    built(sim, vec![Box::new(Editor::new())])
}

/// The nvi session for the §4 crash studies: non-interactive (fast input)
/// with frequent saves, and with `eager_checks` the §2.6 crash-early
/// consistency checks running at every step (the mitigation ablation).
pub fn nvi_custom(seed: u64, keys: usize, think_ns: u64, eager_checks: bool) -> Built {
    let mut sim = Simulator::new(SimConfig::single_node(1, seed));
    let script = editor_script_with(keys, seed ^ 0xED17, 97, 43);
    sim.set_input_script(
        ProcessId(0),
        InputScript::evenly_spaced(0, think_ns, script.into_iter().map(|k| [k])),
    );
    // A couple of SIGWINCH-style signals land mid-session.
    let span = keys as u64 * think_ns;
    sim.set_signal_schedule(
        ProcessId(0),
        SignalSchedule::new(vec![(span / 3, 28), (2 * span / 3, 28)]),
    );
    let mut app = Editor::new();
    app.eager_checks = eager_checks;
    built(sim, vec![Box::new(app)])
}

/// The magic session: `commands` layout commands at 1 s think time.
pub fn magic(seed: u64, commands: usize) -> Built {
    let mut sim = Simulator::new(SimConfig::single_node(1, seed));
    sim.set_input_script(
        ProcessId(0),
        InputScript::think_time(SEC, cad_script(commands, seed ^ 0xCAD)),
    );
    built(sim, vec![Box::new(Cad)])
}

/// The xpilot session: 4 processes on 4 nodes, `frames` frames at 15 fps.
pub fn xpilot(seed: u64, frames: u64) -> Built {
    xpilot_with(seed, 3, frames)
}

/// An xpilot session with `clients` client processes (one node each, plus
/// the server's): the fps metric divides by this count via the metadata.
pub fn xpilot_with(seed: u64, clients: usize, frames: u64) -> Built {
    let sim = Simulator::new(SimConfig::one_node_each(clients + 1, seed));
    let apps = game::session_with(clients, frames);
    let meta = ScenarioMeta {
        processes: apps.len(),
        clients,
    };
    Built { sim, apps, meta }
}

/// The TreadMarks Barnes-Hut run: 4 DSM nodes, `iterations` N-body steps,
/// progress display every 50.
pub fn treadmarks(seed: u64, iterations: u64) -> Built {
    let sim = Simulator::new(SimConfig::one_node_each(4, seed));
    built(sim, barnes_hut::cluster(iterations, 50))
}

/// The lock-based TreadMarks workload (beyond the paper's suite): a
/// TSP-style self-scheduling task farm over `ft_dsm::lock` — grant-chain
/// message traffic instead of barrier broadcast, same few-visibles
/// profile.
pub fn taskfarm(seed: u64, workers: u32) -> Built {
    let sim = Simulator::new(SimConfig::one_node_each(workers as usize + 1, seed));
    built(sim, crate::taskfarm::farm(workers))
}

/// The seeded-mutation task farm for the `ft-analyze` self-test: workers
/// peek at the lock-protected task counter outside the critical section
/// (outputs unchanged; both race passes must flag the access).
pub fn taskfarm_racy(seed: u64, workers: u32) -> Built {
    let sim = Simulator::new(SimConfig::one_node_each(workers as usize + 1, seed));
    built(sim, crate::taskfarm::farm_racy(workers))
}

/// The seeded-race Barnes-Hut for the `ft-analyze` self-test: the force
/// and update phases are fused back into one barrier interval (outputs
/// unchanged; the happens-before pass must flag the partition pages).
pub fn treadmarks_fused(seed: u64, iterations: u64) -> Built {
    let sim = Simulator::new(SimConfig::one_node_each(4, seed));
    built(sim, barnes_hut::cluster_fused(iterations, 50))
}

/// A kvstore cluster from explicit parameters: `shards × replication`
/// servers plus gateways, one node each (servers crash independently).
pub fn kvstore_cluster(params: &crate::kvstore::KvParams) -> Built {
    let sim = Simulator::new(SimConfig::one_node_each(params.n_processes(), params.seed));
    built(sim, crate::kvstore::cluster(params))
}

/// The small kvstore shape (2 shards × 2 replicas + 2 gateways) for
/// smokes and golden fixtures.
pub fn kvstore_small(seed: u64) -> Built {
    kvstore_cluster(&crate::kvstore::KvParams::small(seed))
}

/// The tiny kvstore shape for `ft-check`'s exhaustive crash sweeps:
/// 2 shards × 2 replicas, one gateway, `requests` put-heavy requests.
pub fn kvstore_check(seed: u64, requests: u64) -> Built {
    kvstore_cluster(&crate::kvstore::KvParams::check(requests, seed))
}

/// The [`kvstore_check`] shape with the skip-replica-reinstall recovery
/// bug armed on every replica (the seeded mutant `ft-check` must catch).
pub fn kvstore_check_mutant(seed: u64, requests: u64) -> Built {
    let params = crate::kvstore::KvParams::check(requests, seed);
    let sim = Simulator::new(SimConfig::one_node_each(params.n_processes(), params.seed));
    built(sim, crate::kvstore::cluster_mutant(&params))
}

/// The postgres session: `requests` database requests at 50 ms spacing
/// (compute-heavy, syscall-light — the Table 2 contrast with nvi).
pub fn postgres(seed: u64, requests: usize) -> Built {
    let mut sim = Simulator::new(SimConfig::single_node(1, seed));
    sim.set_input_script(
        ProcessId(0),
        InputScript::evenly_spaced(0, 50 * MS, minidb_script(requests, seed ^ 0xDB)),
    );
    built(sim, vec![Box::new(MiniDb::new())])
}
