//! The refined-relation fuzz leg: random workloads explored
//! exhaustively under the syntactic `SourceDpor` reference and under
//! `OptimalDpor`, without and with the probed certificate installed,
//! must agree on the strong-linearizability verdict; any divergence is
//! shrunk to a locally minimal workload and reported. The fail-closed race
//! validator is armed the whole time, so this leg also stress-tests
//! the op-pair attribution on workload shapes the canned baselines
//! never run.
//!
//! Budgets are tier-1-sized; the `sim-deep` CI job rescales via the
//! same `SL_FUZZ_*` variables as the schedule fuzzer.

use std::sync::Arc;

use sl_api::fuzz::{fuzz_pruned_exploration, FuzzConfig};
use sl_api::ObjectBuilder;
use sl_mem::SmallRng;
use sl_sim::SimMem;
use sl_spec::types::{AbaSpec, MaxRegisterSpec, SnapshotSpec};
use sl_spec::{AbaOp, MaxRegisterOp, ProcId, SnapshotOp};

fn cfg() -> FuzzConfig {
    let mut cfg = FuzzConfig::from_env();
    // Tier-1 budget unless the environment rescales: each workload
    // costs three exhaustive explorations.
    if std::env::var("SL_FUZZ_WORKLOADS").is_err() {
        cfg.workloads = 4;
    }
    cfg
}

fn gen_aba_op(rng: &mut SmallRng, p: ProcId) -> AbaOp<u64> {
    if rng.gen_bool(0.5) {
        AbaOp::DWrite(p.index() as u64 * 10 + rng.gen_range(4) as u64)
    } else {
        AbaOp::DRead
    }
}

fn gen_snapshot_op(rng: &mut SmallRng, p: ProcId) -> SnapshotOp<u64> {
    if rng.gen_bool(0.5) {
        SnapshotOp::Update(p.index() as u64 * 100 + rng.gen_range(10) as u64)
    } else {
        SnapshotOp::Scan
    }
}

fn gen_max_op(rng: &mut SmallRng, _p: ProcId) -> MaxRegisterOp {
    if rng.gen_bool(0.5) {
        MaxRegisterOp::MaxWrite(rng.gen_range(4) as u64)
    } else {
        MaxRegisterOp::MaxRead
    }
}

#[test]
fn pruned_aba_verdicts_agree() {
    let cfg = cfg();
    let n = cfg.procs;
    let st = Arc::new(sl_analyze::aba_certificate(n).static_conflicts());
    fuzz_pruned_exploration(
        "aba/pruned",
        |mem: &SimMem| ObjectBuilder::on(mem).processes(n).aba_register::<u64>(),
        gen_aba_op,
        &AbaSpec::<u64>::new(n),
        st,
        &cfg,
    )
    .assert_clean();
}

#[test]
fn pruned_lin_aba_verdicts_agree() {
    let cfg = cfg();
    let n = cfg.procs;
    let st = Arc::new(sl_analyze::lin_aba_certificate(n).static_conflicts());
    fuzz_pruned_exploration(
        "lin-aba/pruned",
        |mem: &SimMem| {
            ObjectBuilder::on(mem)
                .processes(n)
                .lin_aba_register::<u64>()
        },
        gen_aba_op,
        &AbaSpec::<u64>::new(n),
        st,
        &cfg,
    )
    .assert_clean();
}

#[test]
fn pruned_atomic_aba_verdicts_agree() {
    let cfg = cfg();
    let n = cfg.procs;
    let st = Arc::new(sl_analyze::atomic_aba_certificate(n).static_conflicts());
    fuzz_pruned_exploration(
        "atomic-aba/pruned",
        |mem: &SimMem| {
            ObjectBuilder::on(mem)
                .processes(n)
                .atomic_aba_register::<u64>()
        },
        gen_aba_op,
        &AbaSpec::<u64>::new(n),
        st,
        &cfg,
    )
    .assert_clean();
}

#[test]
fn pruned_atomic_snapshot_verdicts_agree() {
    let cfg = cfg();
    let n = cfg.procs;
    let st = Arc::new(sl_analyze::atomic_snapshot_certificate(n).static_conflicts());
    fuzz_pruned_exploration(
        "atomic-snapshot/pruned",
        |mem: &SimMem| ObjectBuilder::on(mem).processes(n).atomic_snapshot::<u64>(),
        gen_snapshot_op,
        &SnapshotSpec::<u64>::new(n),
        st,
        &cfg,
    )
    .assert_clean();
}

#[test]
fn pruned_trie_max_register_verdicts_agree() {
    let cfg = cfg();
    let n = cfg.procs;
    let st = Arc::new(sl_analyze::trie_max_register_certificate(n).static_conflicts());
    fuzz_pruned_exploration(
        "trie-max-register/pruned",
        |mem: &SimMem| {
            ObjectBuilder::on(mem)
                .processes(n)
                .trie_max_register(sl_analyze::TRIE_CAPACITY)
        },
        gen_max_op,
        &MaxRegisterSpec,
        st,
        &cfg,
    )
    .assert_clean();
}
