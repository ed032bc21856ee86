//! The unpruned oracle, pinned. `PruneMode::Unpruned` explores every
//! schedule: each one is its own class under the all-dependent
//! relation. These counts, DAG sizes and verdicts were recorded from
//! the retired frame engine, which branched on every enabled process at
//! every decision. The task engine must reproduce them at every worker
//! count, with no cut replay and no pruned candidate.
//!
//! DAG sizes are pinned as `TreeDag::unique_nodes()`, not as
//! `structural_hash()`: the hash folds in process-global interned ids,
//! so it depends on interning order.

use sl_api::sim::{explore_object_dag, DriveOps, SimExplore};
use sl_api::{ObjectBuilder, SharedObject};
use sl_sim::{PruneMode, SimMem};
use sl_spec::types::{AbaSpec, MaxRegisterSpec};
use sl_spec::{AbaOp, MaxRegisterOp, SeqSpec};

/// What the oracle must reproduce on one workload.
struct Pin {
    runs: usize,
    dag_nodes: usize,
    holds: bool,
    /// 0 when the check holds.
    conflict_depth: usize,
}

fn assert_oracle<S, O, F>(
    name: &str,
    spec: &S,
    factory: F,
    ops: &[Vec<S::Op>],
    stem: &[usize],
    pin: Pin,
) where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    O::Handle: DriveOps<S>,
    F: Fn(&SimMem) -> O + Sync,
{
    for workers in [1, 2, 4, 8] {
        let cfg = SimExplore {
            mode: PruneMode::Unpruned,
            workers,
            stem: stem.to_vec(),
            ..SimExplore::default()
        };
        let explored = explore_object_dag::<S, _, _>(&factory, ops, &cfg);
        let out = &explored.outcome;
        let tag = format!("{name} at {workers} workers");
        assert!(out.exhausted && !out.partial, "{tag}: {out:?}");
        assert_eq!(out.cut_runs, 0, "{tag}: the oracle never cuts a replay");
        assert_eq!(out.pruned, 0, "{tag}: the oracle never prunes a candidate");
        assert_eq!(out.runs, pin.runs, "{tag}: schedules");
        assert_eq!(
            explored.dag.unique_nodes(),
            pin.dag_nodes,
            "{tag}: DAG nodes"
        );
        let report = explored.check_strong(spec);
        assert_eq!(report.holds, pin.holds, "{tag}: verdict");
        assert_eq!(
            report.conflict_depth, pin.conflict_depth,
            "{tag}: conflict depth"
        );
    }
}

#[test]
fn oracle_reproduces_algorithm2_one_write_one_read() {
    assert_oracle(
        "aba_1w1r",
        &AbaSpec::<u64>::new(2),
        |mem| ObjectBuilder::on(mem).processes(2).aba_register::<u64>(),
        &[vec![AbaOp::DWrite(9)], vec![AbaOp::DRead]],
        &[],
        Pin {
            runs: 56,
            dag_nodes: 80,
            holds: true,
            conflict_depth: 0,
        },
    );
}

#[test]
fn oracle_reproduces_algorithm2_two_writers_one_reader() {
    assert_oracle(
        "aba_mixed3",
        &AbaSpec::<u64>::new(3),
        |mem| ObjectBuilder::on(mem).processes(3).aba_register::<u64>(),
        &[
            vec![AbaOp::DWrite(9)],
            vec![AbaOp::DWrite(19)],
            vec![AbaOp::DRead],
        ],
        &[],
        Pin {
            runs: 61_408,
            dag_nodes: 1_079,
            holds: true,
            conflict_depth: 0,
        },
    );
}

/// Algorithm 1 under the Observation-4 stem `S` (dw1, dr1 up to its
/// second read, dw2): every extension, refuted.
#[test]
fn oracle_reproduces_the_observation4_refutation() {
    assert_oracle(
        "obs4",
        &AbaSpec::<u64>::new(2),
        |mem| {
            ObjectBuilder::on(mem)
                .processes(2)
                .lin_aba_register::<u64>()
        },
        &[vec![AbaOp::DWrite(7); 5], vec![AbaOp::DRead; 2]],
        &[0, 0, 0, 1, 1, 1, 0, 0, 0],
        Pin {
            runs: 11_440,
            dag_nodes: 545,
            holds: false,
            conflict_depth: 39,
        },
    );
}

/// The Aspnes–Attiya–Censor trie max-register with its top-down read:
/// refuted by the oracle. (Every reduction passes it; see the soundness
/// gap in the explorer's module docs, `crates/sim/src/explore.rs`.)
#[test]
fn oracle_reproduces_the_trie_max_register_refutation() {
    assert_oracle(
        "trie_max_register",
        &MaxRegisterSpec,
        |mem| ObjectBuilder::on(mem).processes(3).trie_max_register(4),
        &[
            vec![MaxRegisterOp::MaxWrite(1)],
            vec![MaxRegisterOp::MaxWrite(3)],
            vec![MaxRegisterOp::MaxRead],
        ],
        &[],
        Pin {
            runs: 1_568,
            dag_nodes: 518,
            holds: false,
            conflict_depth: 15,
        },
    );
}
