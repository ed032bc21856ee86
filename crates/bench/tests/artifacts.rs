//! The checked-in explorer baseline under `crates/bench/baselines/`
//! parses through `Baseline::load`, the parser the `--baseline` gate
//! reads it with (every gate threshold a number), and its small
//! workloads are re-explored from the `dist_ops` registry, so the
//! gate's counts and the registry's op lists cannot drift apart. The
//! certificate catalog next to it is never read back: the gate
//! compares its bytes with a fresh regeneration.

use std::sync::Arc;

use sl_api::sim::{explore_object_dag_with, DriveOps as _};
use sl_api::ObjectBuilder;
use sl_bench::workloads::{dist_config, dist_ops, ASpec};
use sl_bench::Baseline;
use sl_sim::PruneMode;

fn artifact(name: &str) -> String {
    format!("{}/baselines/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn checked_in_explorer_baseline_parses_with_every_gate() {
    let b = Baseline::load(&artifact("explorer_baseline.json"));
    for key in [
        "min_reuse_speedup",
        "min_speedup_4w",
        "min_speedup_8w",
        "min_ckpt_ratio",
        "min_dist_ratio",
    ] {
        assert!(b.number(key).is_some(), "gate threshold {key} is missing");
    }
    for (workload, unpruned, source, optimal) in [
        ("aba_1w1r", Some(56), 17, 10),
        ("aba_2w2r", Some(73_914), 7_228, 3_108),
        ("aba_mixed3", None, 2_746, 598),
        ("aba_mixed3_deep", None, 204_257, 23_888),
    ] {
        assert_eq!(b.workload_count(workload, "unpruned_replayed"), unpruned);
        assert_eq!(b.workload_count(workload, "dpor_replayed"), Some(source));
        assert_eq!(
            b.workload_count(workload, "optimal_dpor_replayed"),
            Some(optimal)
        );
    }
}

/// The registry's op lists explore to the schedule counts the baseline
/// records for them (`aba_2w2r` and `aba_mixed3_deep` take seconds in
/// debug builds; the sim-deep gate covers them). Optimal-DPOR rows run
/// with the op-pair certificate, as the gate's do, and cut no replay.
#[test]
fn registry_workloads_explore_to_the_baseline_counts() {
    let b = Baseline::load(&artifact("explorer_baseline.json"));
    for (name, mode, key) in [
        ("aba_1w1r", PruneMode::Unpruned, "unpruned_replayed"),
        ("aba_1w1r", PruneMode::SourceDpor, "dpor_replayed"),
        ("aba_1w1r", PruneMode::OptimalDpor, "optimal_dpor_replayed"),
        ("aba_mixed3", PruneMode::SourceDpor, "dpor_replayed"),
        (
            "aba_mixed3",
            PruneMode::OptimalDpor,
            "optimal_dpor_replayed",
        ),
    ] {
        let ops = dist_ops(name).unwrap_or_else(|| panic!("{name} is not in the registry"));
        let n = ops.len();
        let mut cfg = dist_config(mode, 1);
        if mode == PruneMode::OptimalDpor {
            cfg.statics = Some(Arc::new(sl_analyze::aba_certificate(n).static_conflicts()));
        }
        let explored = explore_object_dag_with::<ASpec, _, _, _>(
            |mem| ObjectBuilder::on(mem).processes(n).aba_register::<u64>(),
            &ops,
            |h, op| h.drive(op),
            &cfg,
        );
        let out = &explored.outcome;
        assert!(out.exhausted, "{name} {key}: not exhausted");
        assert_eq!(
            Some(out.schedules_replayed()),
            b.workload_count(name, key),
            "{name} {key}"
        );
        if mode == PruneMode::OptimalDpor {
            assert_eq!(out.cut_runs, 0, "{name}: optimal DPOR cut a replay");
        }
    }
}
