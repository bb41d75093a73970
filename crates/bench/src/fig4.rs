//! Figure 4's vertical-axis trend, measured: recovery time and constrained
//! re-execution length per protocol.
//!
//! §2.4: "Protocols further to the right in the protocol space have longer
//! recovery times because, after rollback, the recovery system must for
//! some time constrain reexecution to follow the path taken before the
//! failure." The stage kills the same non-interactive nvi session (1 ms
//! keys, the seed and length of Figure 8's nvi panel) four fifths of the
//! way through under each Figure 8 protocol and reports how much work
//! recovery replays (re-emitted visible events) and how much longer the
//! recovered run took than the failure-free baseline. The gate is the
//! figure's shape: the LOG protocols, which trade commits for constrained
//! re-execution, replay more visibles than every commit-per-event
//! protocol.

use ft_apps::scenarios;
use ft_core::event::{NdSource, ProcessId};
use ft_core::protocol::Protocol;
use ft_dc::harness::DcHarness;
use ft_dc::state::DcConfig;
use ft_sim::harness::run_plain_on;
use ft_sim::runner::run_indexed;
use ft_sim::MS;

use crate::campaign::{report, CampaignConfig};
use crate::json::Json;
use crate::stage::Stage;

/// One protocol's recovery from the shared kill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig4Row {
    /// The protocol.
    pub protocol: Protocol,
    /// Commits over the whole recovered run.
    pub ckpts: u64,
    /// Visible events emitted beyond the failure-free run's: what
    /// recovery re-executed past its last commit.
    pub replayed_visibles: usize,
    /// Simulated time beyond the failure-free baseline.
    pub extra_runtime_ns: u64,
}

/// The Figure 4 recovery-time stage.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Stage<'a>(pub &'a CampaignConfig);

impl Fig4Stage<'_> {
    fn kill_at(&self) -> u64 {
        self.0.fig8.nvi().size as u64 * MS * 4 / 5
    }
}

impl Stage for Fig4Stage<'_> {
    const NAME: &'static str = "fig4";
    type Rows = Vec<Fig4Row>;

    fn run(&self, threads: usize) -> Vec<Fig4Row> {
        let nvi = self.0.fig8.nvi();
        let build = || scenarios::nvi_custom(nvi.seed, nvi.size, MS, false);
        let (sim, mut apps) = build().into_parts();
        let base = run_plain_on(sim, &mut apps);
        assert!(base.all_done, "the failure-free session must complete");
        run_indexed(Protocol::FIGURE8.len(), threads, |i| {
            let protocol = Protocol::FIGURE8[i];
            let (mut sim, apps) = build().into_parts();
            sim.kill_at(ProcessId(0), self.kill_at());
            let report = DcHarness::new(sim, DcConfig::discount_checking(protocol), apps).run();
            assert!(report.all_done, "{protocol} did not recover");
            Fig4Row {
                protocol,
                ckpts: report.total_commits(),
                replayed_visibles: report.visibles.len() - base.visibles.len(),
                extra_runtime_ns: report.runtime - base.runtime,
            }
        })
    }

    fn json(&self, rows: &Vec<Fig4Row>) -> Json {
        let rows = rows.iter().map(|r| {
            Json::obj([
                ("protocol", Json::from(r.protocol.name())),
                ("ckpts", Json::from(r.ckpts)),
                ("replayed_visibles", Json::from(r.replayed_visibles)),
                ("extra_runtime_ns", Json::from(r.extra_runtime_ns)),
            ])
        });
        report(
            "fig4",
            self.0,
            [
                ("kill_at_ns", Json::from(self.kill_at())),
                ("rows", Json::arr(rows)),
            ],
        )
    }

    /// Every LOG protocol replays more visibles than every
    /// commit-per-event protocol.
    fn gate(&self, rows: &Vec<Fig4Row>) -> Result<(), String> {
        let (log, per_event): (Vec<&Fig4Row>, Vec<&Fig4Row>) = rows
            .iter()
            .partition(|r| r.protocol.logs(NdSource::UserInput));
        for l in &log {
            for p in &per_event {
                if l.replayed_visibles <= p.replayed_visibles {
                    return Err(format!(
                        "fig4: {} replayed {} visibles, not more than {}'s {}",
                        l.protocol, l.replayed_visibles, p.protocol, p.replayed_visibles
                    ));
                }
            }
        }
        Ok(())
    }
}
