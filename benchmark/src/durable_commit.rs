//! `durable_commit`: the on-disk engine with real files. An op is a commit
//! of four 8-byte writes to four pages drawn by SplitMix64; a rep is a
//! window of [`WINDOW`] commits. After the prefix the store is dropped and
//! reopened [`OPENS`] times, which measures replay.
//!
//! Flush policy, fixed: `FsyncPolicy::EveryN(32)`, compaction at 32 MiB of
//! log, no watermark journal. Latencies are this sandbox's, not a device's.

use std::fs::{self, OpenOptions};
use std::path::{Path, PathBuf};
use std::time::Instant;

use ft_bench::stats::percentile;
use ft_mem::arena::{Layout, PAGE_SIZE};
use ft_mem::durable::{
    read_watermark, DurableOptions, DurableResult, DurableStore, FsyncPolicy, LOG_FILE,
};
use ft_sim::rng::SplitMix64;

use crate::metrics::Metrics;
use crate::probes;
use crate::span::Tracer;
use crate::workload::{measured, rep_seed, Rep, Workload};

/// 4 MiB: 1 + 15 + 1008 pages.
const LAYOUT: Layout = Layout {
    globals_pages: 1,
    stack_pages: 15,
    heap_pages: 1008,
};
const GROUP: u32 = 32;
const COMPACT_AT: u64 = 32 << 20;
const OPTIONS: DurableOptions = DurableOptions {
    fsync: FsyncPolicy::EveryN(GROUP),
    mutation: ft_mem::durable::DurableMutation::None,
    journal_watermark: false,
    compact_threshold: Some(COMPACT_AT),
};
/// A multiple of [`GROUP`], so every window ends on a synced log.
const WINDOW: usize = 4_000;
/// 40 000 commits: about 19 compaction cycles.
const PREFIX_WINDOWS: u64 = 10;
const OPENS: usize = 20;
const WRITES_PER_COMMIT: usize = 4;
const USER_BYTES_PER_COMMIT: u64 = 8 * WRITES_PER_COMMIT as u64;

/// Commits of the secondary `FsyncPolicy::Always` pass (traced runs only).
const ALWAYS_COMMITS: usize = 2_000;

/// Log traffic of the prefix's commits, whichever path made them.
#[derive(Default)]
struct LogCounts {
    commits: u64,
    /// Commits that ended in a compaction, which resets the log length, so
    /// their bytes are not in `log_bytes`.
    compactions: u64,
    log_bytes: u64,
    /// Of the staged path alone: the bundled `commit()` does not say when it
    /// synced.
    staged_commits: u64,
    staged_fsyncs: u64,
}

impl LogCounts {
    fn note(&mut self, log_len_before: u64, log_len_after: u64) {
        self.commits += 1;
        if log_len_after > log_len_before {
            self.log_bytes += log_len_after - log_len_before;
        } else {
            self.compactions += 1;
        }
    }
}

pub struct DurableCommit {
    seed: u64,
    dir: PathBuf,
    store: Option<DurableStore>,
    /// Latency of every commit made through the bundled `commit()`.
    commit_ns: Vec<u64>,
    log: LogCounts,
    replay_per_s: Vec<f64>,
    open_ms: Vec<f64>,
    io_failures: u64,
}

/// Four 8-byte writes to four pages drawn from `rng`.
fn write_four(store: &mut DurableStore, rng: &mut SplitMix64) {
    for _ in 0..WRITES_PER_COMMIT {
        let offset = rng.index(LAYOUT.total_pages()) * PAGE_SIZE + 8 * rng.index(PAGE_SIZE / 8);
        store
            .arena_mut()
            .write_pod::<u64>(offset, rng.next_u64())
            .expect("offset is inside the arena");
    }
}

/// `DurableStore::commit` taken apart into its public steps, under the same
/// policy: `pending` is the group-commit counter `commit` keeps privately.
fn commit_staged(
    store: &mut DurableStore,
    opts: &DurableOptions,
    pending: &mut u32,
    mut on_step: impl FnMut(&'static str, Instant, Instant),
) -> DurableResult<()> {
    let t0 = Instant::now();
    let staged = store.stage_commit();
    let t1 = Instant::now();
    on_step("stage", t0, t1);
    store.append_staged(&staged)?;
    let t2 = Instant::now();
    on_step("append", t1, t2);
    *pending += 1;
    let due = match opts.fsync {
        FsyncPolicy::Always => true,
        FsyncPolicy::EveryN(n) => *pending >= n.max(1),
        FsyncPolicy::Never => false,
    };
    let mut t3 = t2;
    if due {
        store.sync()?;
        *pending = 0;
        t3 = Instant::now();
        on_step("sync", t2, t3);
    }
    store.finish_staged(&staged);
    let t4 = Instant::now();
    on_step("finish", t3, t4);
    if opts
        .compact_threshold
        .is_some_and(|at| store.log_len() >= at)
    {
        store.compact()?;
        on_step("compact", t4, Instant::now());
    }
    Ok(())
}

impl DurableCommit {
    pub fn new(seed: u64, out_dir: &Path) -> Self {
        DurableCommit {
            seed,
            // Fixed width: the store allocates its paths, and the byte
            // counts must not follow the number of digits in a pid.
            dir: out_dir.join(format!("durable_commit-{:010}", std::process::id())),
            store: None,
            commit_ns: Vec::new(),
            log: LogCounts::default(),
            replay_per_s: Vec::new(),
            open_ms: Vec::new(),
            io_failures: 0,
        }
    }

    /// Drops the store and opens it again [`OPENS`] times: every open must
    /// come back at the same commit with the same bytes and a clean tail.
    fn reopen(&mut self, mut tracer: Option<&mut Tracer>, trial: u32) {
        let before = self.store.take().expect("set-up ran");
        let (digest, seq) = (before.state_digest(), before.seq());
        drop(before);
        for _ in 0..OPENS {
            let t0 = Instant::now();
            let opened = DurableStore::open(&self.dir.join("main"), OPTIONS);
            let t1 = Instant::now();
            let Ok((store, info)) = opened else {
                self.io_failures += 1;
                continue;
            };
            if let Some(tr) = tracer.as_deref_mut() {
                tr.push("open", "ft-mem", (t0, t1), None, trial);
            }
            let secs = t1.duration_since(t0).as_secs_f64();
            self.replay_per_s.push(info.replayed as f64 / secs);
            self.open_ms.push(secs * 1e3);
            let same = info.truncated_bytes == 0
                && info.seq == seq
                && store.seq() == seq
                && store.state_digest() == digest;
            self.io_failures += u64::from(!same);
            self.store = Some(store);
        }
        assert!(
            self.store.is_some(),
            "durable_commit: the store never reopened"
        );
    }

    /// Untimed power-cut check on a small second store that journals its
    /// fsync watermark: cut the log back to the watermark, reopen, and the
    /// state must be the one recorded at the commit the log then ends at.
    fn power_cut_holds(&self) -> DurableResult<bool> {
        let dir = self.dir.join("powercut");
        let opts = DurableOptions {
            fsync: FsyncPolicy::EveryN(8),
            journal_watermark: true,
            compact_threshold: None,
            ..OPTIONS
        };
        let mut store = DurableStore::create(&dir, Layout::small(), opts)?;
        let mut rng = SplitMix64::new(self.seed);
        let mut digests = vec![store.state_digest()];
        for _ in 0..50 {
            let offset = rng.index(Layout::small().total_pages()) * PAGE_SIZE;
            store
                .arena_mut()
                .write_pod::<u64>(offset, rng.next_u64())
                .expect("offset is inside the arena");
            store.commit()?;
            digests.push(store.state_digest());
        }
        drop(store);
        let watermark = read_watermark(&dir)?.expect("the store journals its watermark");
        OpenOptions::new()
            .write(true)
            .open(dir.join(LOG_FILE))?
            .set_len(watermark)?;
        let (store, info) = DurableStore::open(&dir, opts)?;
        // 50 commits synced every 8: the log was durable up to commit 48.
        Ok(info.seq == 48 && info.truncated_bytes == 0 && store.state_digest() == digests[48])
    }

    /// The staged path must leave the bytes the bundled call leaves: same
    /// commits on two small stores, one through each, compactions included.
    fn staged_matches_bundled(&self) -> DurableResult<bool> {
        let opts = DurableOptions {
            fsync: FsyncPolicy::EveryN(4),
            compact_threshold: Some(256 << 10),
            ..OPTIONS
        };
        let mut bundled = DurableStore::create(&self.dir.join("eq-bundled"), LAYOUT, opts)?;
        let mut staged = DurableStore::create(&self.dir.join("eq-staged"), LAYOUT, opts)?;
        let mut pending = 0;
        let (mut rng_b, mut rng_s) = (SplitMix64::new(self.seed), SplitMix64::new(self.seed));
        for _ in 0..100 {
            write_four(&mut bundled, &mut rng_b);
            bundled.commit()?;
            write_four(&mut staged, &mut rng_s);
            commit_staged(&mut staged, &opts, &mut pending, |_, _, _| {})?;
            if bundled.log_len() != staged.log_len() {
                return Ok(false);
            }
        }
        Ok(bundled.seq() == staged.seq() && bundled.state_digest() == staged.state_digest())
    }

    /// p50 of [`ALWAYS_COMMITS`] commits with an fsync each, on a store of
    /// the same shape. Reported, not gated: it is the sandbox's fsync.
    fn commit_always_us_p50(&self) -> DurableResult<f64> {
        let opts = DurableOptions {
            fsync: FsyncPolicy::Always,
            ..OPTIONS
        };
        let mut store = DurableStore::create(&self.dir.join("always"), LAYOUT, opts)?;
        let mut rng = SplitMix64::new(self.seed);
        let mut ns = Vec::with_capacity(ALWAYS_COMMITS);
        for _ in 0..ALWAYS_COMMITS {
            let t0 = Instant::now();
            write_four(&mut store, &mut rng);
            store.commit()?;
            ns.push(u64::try_from(t0.elapsed().as_nanos()).expect("a commit takes < 584 years"));
        }
        Ok(percentile(&ns, 50) as f64 / 1e3)
    }
}

impl Workload for DurableCommit {
    fn setup(&mut self) {
        self.store = None;
        self.store = Some(
            DurableStore::create(&self.dir.join("main"), LAYOUT, OPTIONS)
                .expect("durable_commit: cannot create the store under benchmark/out"),
        );
        self.commit_ns = Vec::with_capacity(64 * WINDOW);
        self.log = LogCounts::default();
    }

    fn prefix_reps(&self) -> u64 {
        PREFIX_WINDOWS
    }

    fn rate_name(&self) -> &'static str {
        "commits_per_s"
    }

    fn rep(&mut self, i: u64, mut tracer: Option<&mut Tracer>) -> Rep {
        let trial = u32::try_from(i).expect("fewer than 2^32 reps");
        let mut rng = SplitMix64::new(rep_seed(self.seed, i));
        let store = self.store.as_mut().expect("set-up ran");
        // Counts are the prefix's, whatever else the host fits in.
        let mut scratch = LogCounts::default();
        let log = if i < PREFIX_WINDOWS {
            &mut self.log
        } else {
            &mut scratch
        };
        let mut failed = 0u64;
        let mut window_ns = [0u64; WINDOW];
        let ((), cost) = measured(|| match tracer.as_deref_mut() {
            None => {
                for ns in &mut window_ns {
                    let c0 = Instant::now();
                    write_four(store, &mut rng);
                    let before = store.log_len();
                    failed += u64::from(store.commit().is_err());
                    *ns =
                        u64::try_from(c0.elapsed().as_nanos()).expect("a commit takes < 584 years");
                    log.note(before, store.log_len());
                }
            }
            Some(tr) => {
                let mut pending = 0;
                for _ in 0..WINDOW {
                    let c0 = Instant::now();
                    write_four(store, &mut rng);
                    let before = store.log_len();
                    let commit = tr.open("commit", "ft-mem", c0, trial);
                    let staged = commit_staged(store, &OPTIONS, &mut pending, |step, a, b| {
                        // A compaction follows the commit; it is not part of it.
                        let parent = (step != "compact").then_some(commit);
                        tr.push(step, "ft-mem", (a, b), parent, trial);
                        if step == "finish" {
                            tr.close(commit, b);
                        }
                    });
                    failed += u64::from(staged.is_err());
                    log.note(before, store.log_len());
                    log.staged_commits += 1;
                    log.staged_fsyncs += u64::from(pending == 0);
                }
            }
        });
        if tracer.is_none() {
            self.commit_ns.extend_from_slice(&window_ns);
        }
        if i + 1 == PREFIX_WINDOWS {
            self.reopen(tracer, trial);
        }
        let mut rep = Rep {
            ops: WINDOW as u64,
            attempted: WINDOW as u64,
            failed,
            digest: self.store.as_ref().expect("still open").log_len(),
            ..Rep::default()
        };
        rep.charge(cost);
        rep
    }

    fn finish(&mut self, m: &mut Metrics, tracer: Option<&Tracer>) -> (u64, u64) {
        self.store = None;
        let mut checks = vec![self.power_cut_holds()];
        if tracer.is_some() {
            checks.push(self.staged_matches_bundled());
        }
        let failed =
            self.io_failures + checks.iter().filter(|c| !matches!(c, Ok(true))).count() as u64;
        let attempted = (OPENS + checks.len()) as u64;

        let log = &self.log;
        let plain_commits = (log.commits - log.compactions) as f64;
        match tracer {
            None => {
                m.exact(
                    "commit_us_p50",
                    percentile(&self.commit_ns, 50) as f64 / 1e3,
                );
                m.exact(
                    "commit_us_p99",
                    percentile(&self.commit_ns, 99) as f64 / 1e3,
                );
                m.samples("recover_records_per_s", &self.replay_per_s);
                m.exact("log_bytes_per_commit", log.log_bytes as f64 / plain_commits);
            }
            Some(tracer) => {
                let us_p50 = |step: &str| percentile(&tracer.durations(step), 50) as f64 / 1e3;
                m.exact("ft-mem.durable.stage_us", us_p50("stage"));
                m.exact("ft-mem.durable.append_us", us_p50("append"));
                m.exact("ft-mem.durable.sync_us", us_p50("sync"));
                m.exact("ft-mem.durable.finish_us", us_p50("finish"));
                let compact_ms: Vec<f64> = tracer
                    .durations("compact")
                    .iter()
                    .map(|&ns| ns as f64 / 1e6)
                    .collect();
                m.samples("ft-mem.durable.compact_ms", &compact_ms);
                m.samples("ft-mem.durable.open_ms", &self.open_ms);
                m.exact(
                    "ft-mem.durable.fsyncs_per_commit",
                    log.staged_fsyncs as f64 / log.staged_commits as f64,
                );
                m.exact("ft-mem.durable.compactions", log.compactions as f64);
                m.exact(
                    "ft-mem.durable.write_amp",
                    log.log_bytes as f64 / (plain_commits * USER_BYTES_PER_COMMIT as f64),
                );
                match self.commit_always_us_p50() {
                    Ok(us) => m.exact("ft-mem.durable.commit_always_us_p50", us),
                    Err(e) => panic!("durable_commit: the FsyncPolicy::Always pass failed: {e}"),
                }
                probes::crc32(m);
                probes::arena(m);
            }
        }
        // Best effort: a leftover directory is under the ignored out/.
        let _ = fs::remove_dir_all(&self.dir);
        (attempted, failed)
    }
}
