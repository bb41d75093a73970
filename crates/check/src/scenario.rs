//! Workload specifications the checker can rebuild at any size.
//!
//! The model checker re-executes a scenario hundreds of times — once per
//! crash point — and the shrinker re-executes whole explorations at
//! smaller sizes. Both need a *recipe*, not a built simulator, so a
//! [`Workload`] names one of the `ft_apps::scenarios` families together
//! with its seed and a size parameter (keys, workers, iterations, frames)
//! that the shrinker may lower.

use ft_apps::scenarios::{self, Built};
use ft_core::protocol::Protocol;
use ft_dc::{CommitKill, DcConfig, Mutation};
use ft_faults::crash::{CrashPoint, Fault};

/// A rebuildable workload: scenario family + seed + size knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Scenario family: a name of `ft_apps::scenarios::FAMILIES`
    /// (`"kvstore-skiprepl"` is the seeded skip-replica-reinstall mutant
    /// the sweep self-test must flag).
    pub name: &'static str,
    /// Deterministic seed for all scripted inputs.
    pub seed: u64,
    /// Family-specific size (nvi keys, taskfarm workers, treadmarks
    /// iterations, xpilot frames, kvstore requests). The shrinker lowers
    /// this.
    pub size: usize,
}

impl Workload {
    /// Builds the scenario at an explicit size (the shrinker's entry
    /// point; use `self.size` for the configured size).
    pub fn build(&self, size: usize) -> Built {
        scenarios::family(self.name, self.seed, size)
            .unwrap_or_else(|| panic!("unknown workload family {:?}", self.name))
    }
}

/// Checker configuration: which protocol to verify and how to explore.
#[derive(Debug, Clone, Copy)]
pub struct CheckConfig {
    /// The recovery protocol under test.
    pub protocol: Protocol,
    /// Worker threads for the sharded exploration (`1` = serial
    /// reference path).
    pub threads: usize,
    /// The seeded runtime defect of the checker's self-test
    /// ([`Mutation::SkipPresendCommit`] breaks Save-work); must stay
    /// [`Mutation::None`] outside mutation tests.
    pub mutation: Mutation,
}

impl CheckConfig {
    /// A serial checker for `protocol` with the mutation off.
    pub fn new(protocol: Protocol) -> Self {
        CheckConfig {
            protocol,
            threads: 1,
            mutation: Mutation::None,
        }
    }

    /// The `DcConfig` for one run; a mid-commit kill becomes its one
    /// `InCommit` schedule entry.
    pub fn dc_config(&self, kill: Option<CommitKill>) -> DcConfig {
        let mut cfg = DcConfig::discount_checking(self.protocol);
        cfg.faults
            .extend(kill.map(|CommitKill { pid, nth, point }| {
                Fault::Kill(CrashPoint::InCommit { pid, nth, point })
            }));
        cfg.mutation = self.mutation;
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_build_at_size_one() {
        for (name, _) in scenarios::FAMILIES {
            let w = Workload {
                name,
                seed: 7,
                size: 1,
            };
            let built = w.build(w.size);
            assert!(built.meta.processes >= 1, "{name} built no processes");
        }
    }

    #[test]
    fn dc_config_carries_the_kill() {
        use ft_mem::arena::CommitCrashPoint;
        let cfg = CheckConfig::new(Protocol::Cpvs);
        let (pid, nth, point) = (1, 2, CommitCrashPoint::MidUndoWalk);
        let dc = cfg.dc_config(Some(CommitKill { pid, nth, point }));
        assert_eq!(
            dc.faults,
            [Fault::Kill(CrashPoint::InCommit { pid, nth, point })]
        );
        assert_eq!(dc.mutation, Mutation::None);
        assert!(cfg.dc_config(None).faults.is_empty());
    }
}
