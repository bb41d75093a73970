//! Availability-stage contracts: the microreboot MTTR advantage and the
//! seeded-mutant oracle self-test — on the CI smoke configuration the
//! campaign binary itself runs. (Thread-count invariance is
//! `stage_equivalence.rs`'s.)

use ft_bench::avail::AvailConfig;
use ft_bench::stage::Stage;
use ft_dc::recovery::Strategy;
use ft_dc::Mutation;

#[test]
fn microreboot_beats_full_rollback_on_some_workload() {
    let cfg = AvailConfig::quick();
    let result = cfg.run(4);
    let wins = result.rows.iter().any(|r| {
        r.strategy == Strategy::Microreboot
            && r.mutation == Mutation::None
            && result.rows.iter().any(|f| {
                f.workload == r.workload
                    && f.protocol == r.protocol
                    && f.strategy == Strategy::FullRollback
                    && r.stats.mttr_p50_ns < f.stats.mttr_p50_ns
            })
    });
    assert!(wins, "microreboot never beat full rollback on p50 MTTR");
}

#[test]
fn every_seeded_mutant_cell_is_flagged() {
    let cfg = AvailConfig::quick();
    let result = cfg.run(4);
    assert!(
        result.rows.iter().any(|r| r.mutation != Mutation::None),
        "quick config must carry mutants"
    );
    assert_eq!(cfg.gate(&result), Ok(()), "the campaign's own gate");
}

#[test]
fn real_cells_see_sustained_incidents() {
    let cfg = AvailConfig::quick();
    let result = cfg.run(4);
    for r in &result.rows {
        assert!(
            r.stats.incidents > 0,
            "{} {} {:?} saw no incidents — the arrival process is dead",
            r.workload,
            r.protocol.name(),
            r.strategy
        );
        assert!(r.stats.availability > 0.0 && r.stats.availability <= 1.0);
    }
}
