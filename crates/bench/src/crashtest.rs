//! The real-process crash stage: `ft-crashtest`'s `kill -9` sweep as a
//! campaign stage.
//!
//! Every kill of the standard schedules (`ft_crashtest::standard_schedules`:
//! nvi and taskfarm, 254 kills) runs under fsync-per-commit and under no
//! fsync, each trial a real child (`campaign --child SPEC`) in a scratch
//! directory of its own: killed with `SIGKILL` where it self-suspends,
//! resumed, and judged (DESIGN §12). Then the three seeded engine bugs.
//! The rows count trials, failures by the check that fired and legal
//! duplicate visibles per workload × fsync policy × kill class, and name
//! the check that caught each mutant. The gate is zero honest failures
//! and every mutant caught; a failure's diagnostic travels in the gate's
//! error, never in `BENCH_crashtest.json`.

use std::path::PathBuf;

use ft_crashtest::{
    fsync_name, run_mutant, run_reference, run_trial, standard_schedules, Check, CrashSchedule,
    Failure, KillSpec, LossModel, TrialSpec, WorkloadSpec, KILL_CLASSES, MUTANTS,
};
use ft_mem::durable::DurableMutation;
use ft_sim::runner::run_indexed;

use crate::json::Json;
use crate::stage::Stage;

/// The crash stage: every schedule under both fsync policies, plus the
/// mutants.
#[derive(Debug, Clone)]
pub struct CrashtestStage {
    /// The binary the trials fork in `--child` mode: `campaign`.
    pub exe: PathBuf,
    /// The kill schedules, in report order.
    pub schedules: Vec<CrashSchedule>,
}

impl CrashtestStage {
    /// The standard schedules, forking the running binary.
    pub fn new() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
        let schedules = standard_schedules().into();
        Ok(CrashtestStage { exe, schedules })
    }
}

/// One schedule under one fsync policy: every kill, in schedule order,
/// with its trial's legal duplicate visibles or the failure.
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// The schedule's workload.
    pub workload: String,
    /// Fsync every commit (`always`) or never (`none`).
    pub fsync: bool,
    /// The trials.
    pub trials: Vec<(KillSpec, Result<usize, Failure>)>,
}

/// What [`CrashtestStage`] produces.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashtestRows {
    /// Workload-major, `always` before `none`.
    pub sweeps: Vec<Sweep>,
    /// Each mutant with the failure that caught it, or how it escaped.
    pub mutants: Vec<(DurableMutation, Result<Failure, String>)>,
}

fn duplicates<'a>(trials: impl Iterator<Item = &'a (KillSpec, Result<usize, Failure>)>) -> usize {
    trials.filter_map(|(_, o)| o.as_ref().ok()).sum()
}

/// A sweep's rows: one per kill class, with the loss model it implies.
fn class_rows(s: &Sweep) -> Json {
    Json::arr(KILL_CLASSES.iter().filter_map(|&class| {
        let trials: Vec<_> = s.trials.iter().filter(|t| t.0.class() == class).collect();
        let loss = LossModel::of(s.fsync, trials.first()?.0);
        let failed = |check| {
            let hit = |t: &&&(_, Result<_, Failure>)| matches!(&t.1, Err(f) if f.check == check);
            Json::from(trials.iter().filter(hit).count())
        };
        let failures = Json::obj(Check::ALL.map(|c| (c.name(), failed(c))));
        Some(Json::obj([
            ("kill", Json::from(class)),
            ("loss", Json::from(loss.name())),
            ("trials", Json::from(trials.len())),
            ("failures", failures),
            ("duplicates", Json::from(duplicates(trials.iter().copied()))),
        ]))
    }))
}

impl Stage for CrashtestStage {
    const NAME: &'static str = "crashtest";
    type Rows = CrashtestRows;

    fn run(&self, threads: usize) -> CrashtestRows {
        let exe = &self.exe;
        let sweeps: Vec<(&CrashSchedule, bool)> = (self.schedules.iter())
            .flat_map(|s| [(s, true), (s, false)])
            .collect();
        let canonical = run_indexed(sweeps.len(), threads, |i| {
            let (s, fsync) = sweeps[i];
            run_reference(exe, &WorkloadSpec::from_schedule(s), fsync)
        });
        let jobs: Vec<(usize, KillSpec)> = (sweeps.iter().enumerate())
            .flat_map(|(i, (s, _))| s.kills.iter().map(move |&kill| (i, kill)))
            .collect();
        let mut outcomes = run_indexed(jobs.len(), threads, |j| {
            let (i, kill) = jobs[j];
            let (s, fsync) = sweeps[i];
            let t = TrialSpec {
                workload: WorkloadSpec::from_schedule(s),
                kill,
                fsync,
                mutation: DurableMutation::None,
            };
            let canonical = canonical[i].as_ref().map_err(Failure::clone);
            canonical.and_then(|c| run_trial(exe, c, &t))
        })
        .into_iter();
        // `jobs` is sweep-major, so each sweep takes the next `kills.len()`.
        let sweeps = (sweeps.iter())
            .map(|&(s, fsync)| Sweep {
                workload: s.workload.clone(),
                fsync,
                trials: s.kills.iter().copied().zip(outcomes.by_ref()).collect(),
            })
            .collect();
        let mutants = run_indexed(MUTANTS.len(), threads, |i| {
            (MUTANTS[i], run_mutant(exe, MUTANTS[i]))
        });
        CrashtestRows { sweeps, mutants }
    }

    fn json(&self, rows: &CrashtestRows) -> Json {
        let failures = |s: &Sweep| s.trials.iter().filter(|(_, o)| o.is_err()).count();
        let sweeps = rows.sweeps.iter().map(|s| {
            Json::obj([
                ("workload", Json::from(s.workload.as_str())),
                ("fsync", Json::from(fsync_name(s.fsync))),
                ("trials", Json::from(s.trials.len())),
                ("failures", Json::from(failures(s))),
                ("duplicates", Json::from(duplicates(s.trials.iter()))),
                ("rows", class_rows(s)),
            ])
        });
        let mutants = rows.mutants.iter().map(|(m, c)| {
            let by = c.as_ref().map_or(Json::Null, |f| f.check.name().into());
            Json::obj([("mutant", Json::from(m.name())), ("caught_by", by)])
        });
        let total = |f: fn(&Sweep) -> usize| Json::from(rows.sweeps.iter().map(f).sum::<usize>());
        Json::obj([
            ("report", Json::from("crashtest")),
            ("trials", total(|s| s.trials.len())),
            ("failures", total(failures)),
            ("sweeps", Json::arr(sweeps)),
            ("mutants", Json::arr(mutants)),
        ])
    }

    /// Zero honest failures, and every mutant caught.
    fn gate(&self, rows: &CrashtestRows) -> Result<(), String> {
        let honest = rows.sweeps.iter().flat_map(|s| {
            let (w, fsync) = (&s.workload, fsync_name(s.fsync));
            s.trials.iter().filter_map(move |(kill, outcome)| {
                let class = kill.class();
                let line = |f| format!("{w} × fsync {fsync} × {class}: kill \"{kill}\": {f}");
                outcome.as_ref().err().map(line)
            })
        });
        let escaped = rows.mutants.iter().filter_map(|(m, caught)| {
            let how = caught.as_ref().err()?;
            Some(format!("mutant {} escaped: {how}", m.name()))
        });
        let errors: Vec<String> = honest.chain(escaped).collect();
        if errors.is_empty() {
            return Ok(());
        }
        let n = errors.len();
        Err(format!(
            "crashtest: {n} gate failures\n{}",
            errors.join("\n")
        ))
    }
}
