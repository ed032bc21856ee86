//! End-to-end checks of the pooled, parallel exploration harness: the
//! sharded DAG agrees with a materialised prefix tree and across worker
//! counts (the determinism contract of partitioned source-set DPOR),
//! on objects built through the public `ObjectBuilder` factory.

use std::sync::Arc;

use sl_api::sim::{explore_object_dag, DriveOps, PooledWorld, SimExplore};
use sl_api::{ObjectBuilder, SharedObject};
use sl_check::{check_strongly_linearizable, HistoryTree, TreeBuilder, TreeDag};
use sl_core::aba::SlAbaRegister;
use sl_sim::{ExploreOutcome, SimMem};
use sl_spec::types::{AbaSpec, SnapshotSpec};
use sl_spec::{AbaOp, AbaResp, SnapshotOp};

type ASpec = AbaSpec<u64>;
type SSpec = SnapshotSpec<u64>;
type AbaHandle = <SlAbaRegister<u64, SimMem> as SharedObject<SimMem>>::Handle;

fn aba(mem: &SimMem) -> SlAbaRegister<u64, SimMem> {
    ObjectBuilder::on(mem).processes(2).aba_register::<u64>()
}

/// The reference: every explored transcript materialised into one
/// prefix tree, replayed on the same pooled worlds the harness uses.
/// The tree accepts any ingestion order, so one shared builder serves
/// every worker.
fn reference_tree(
    workload: &[Vec<AbaOp<u64>>],
    cfg: &SimExplore,
) -> (ExploreOutcome, HistoryTree<ASpec>) {
    let apply = Arc::new(|h: &mut AbaHandle, op: &AbaOp<u64>| -> AbaResp<u64> { h.drive(op) });
    let builder: TreeBuilder<ASpec> = TreeBuilder::new();
    let outcome = cfg.explorer().explore_with(
        || PooledWorld::new(&aba, workload.len()),
        |world: &mut PooledWorld<ASpec, _>, driver| {
            world.replay(workload, &apply, driver, cfg.step_budget);
            builder.ingest(world.transcript());
        },
    );
    (outcome, builder.finish())
}

/// Theorem 12 through the pooled harness: a materialised tree and the
/// sharded DAG agree on counts, structure, and verdict at 1, 2, and 4
/// workers.
#[test]
fn pooled_tree_and_dag_explorations_agree_across_workers() {
    let workload = [
        vec![AbaOp::DWrite(9), AbaOp::DWrite(10)],
        vec![AbaOp::DRead],
    ];
    let mut reference: Option<(usize, u64, u64)> = None;
    for workers in [1usize, 2, 4] {
        let cfg = SimExplore {
            workers,
            ..SimExplore::default()
        };
        let (tree_outcome, tree) = reference_tree(&workload, &cfg);
        let dag = explore_object_dag::<ASpec, _, _>(aba, &workload, &cfg);
        assert!(tree_outcome.exhausted && dag.outcome.exhausted, "{workers}");
        assert_eq!(tree_outcome, dag.outcome, "{workers} workers");
        let tree_hash = TreeDag::from_tree(&tree).structural_hash();
        assert_eq!(
            tree_hash,
            dag.dag.structural_hash(),
            "{workers} workers: tree and sharded DAG hold different transcript sets"
        );
        assert!(check_strongly_linearizable(&ASpec::new(2), &tree).holds);
        assert!(dag.check_strong(&ASpec::new(2)).holds);
        match &reference {
            None => reference = Some((dag.outcome.runs, dag.outcome.pruned, tree_hash)),
            Some((runs, pruned, hash)) => {
                let (runs, pruned, hash) = (*runs, *pruned, *hash);
                assert_eq!(runs, dag.outcome.runs, "{workers} workers");
                assert_eq!(pruned, dag.outcome.pruned, "{workers} workers");
                assert_eq!(hash, tree_hash, "{workers} workers");
            }
        }
    }
}

/// The pooled world truly resets object state between replays: a
/// snapshot exploration whose scans would otherwise observe a previous
/// replay's updates still passes the strong-lin check at every worker
/// count.
#[test]
fn pooled_snapshot_exploration_is_clean_between_replays() {
    for workers in [1usize, 4] {
        let cfg = SimExplore {
            workers,
            ..SimExplore::default()
        };
        let explored = explore_object_dag::<SSpec, _, _>(
            |mem| ObjectBuilder::on(mem).processes(2).atomic_snapshot::<u64>(),
            &[vec![SnapshotOp::Update(5)], vec![SnapshotOp::Scan]],
            &cfg,
        );
        assert!(explored.outcome.exhausted);
        assert!(
            explored.check_strong(&SSpec::new(2)).holds,
            "{workers} workers: stale state leaked across a world reset"
        );
    }
}

/// Observation 4's object on its narrow two-process tree (Algorithm 1,
/// five `DWrite`s against two `DRead`s, under the proof's stem `S`):
/// every worker count publishes subtrees and grafts the stolen ones'
/// shards at the joins, and the DAG, the outcome and the refutation
/// are the sequential exploration's.
#[test]
fn grafted_observation4_dags_match_the_sequential_one() {
    let workload = [vec![AbaOp::DWrite(7); 5], vec![AbaOp::DRead; 2]];
    let spec = ASpec::new(2);
    let mut reference = None;
    for workers in [1usize, 2, 4, 8] {
        let cfg = SimExplore {
            workers,
            stem: vec![0, 0, 0, 1, 1, 1, 0, 0, 0],
            ..SimExplore::default()
        };
        let explored = explore_object_dag::<ASpec, _, _>(
            |mem| {
                ObjectBuilder::on(mem)
                    .processes(2)
                    .lin_aba_register::<u64>()
            },
            &workload,
            &cfg,
        );
        let report = explored.check_strong(&spec);
        assert!(explored.outcome.exhausted && !report.holds, "{workers}");
        let seen = (
            explored.outcome,
            explored.dag.unique_nodes(),
            explored.dag.structural_hash(),
            report.conflict_depth,
        );
        match &reference {
            None => reference = Some(seen),
            Some(sequential) => assert_eq!(sequential, &seen, "{workers} workers"),
        }
    }
}
