//! Experiment E13 — a checker-discovered result around §4.1's
//! max-registers.
//!
//! The paper cites Helmi, Higham & Woelfel for a wait-free strongly
//! linearizable *bounded* max-register. Running our model checker over
//! every schedule of a two-writer/one-reader workload (on the unpruned
//! oracle: the reductions hide this violation, see the soundness gap
//! in `sl_sim`'s explore module docs) shows why that
//! result is nontrivial: the naive Aspnes–Attiya–Censor top-down read
//! and even a clean-double-collect read both admit Observation-4-style
//! retroactive-ordering violations (the read's response is determined
//! too late, after larger writes have already completed). The paper's
//! own §4.5 construction — a max-register derived from the strongly
//! linearizable snapshot — passes the identical workload.

use std::sync::Mutex;

use sl_api::sim::{explore_object_dag, ExploredDag, SimExplore};
use sl_api::ObjectBuilder;
use sl_bench::{print_table, verdict_cell};
use sl_check::{DagShards, TreeDag};
use sl_core::BoundedMaxRegister;
use sl_sim::{Explorer, Program, PruneMode, ReplayPool, Sharded, SimMem, SimWorld};
use sl_spec::types::MaxRegisterSpec;
use sl_spec::{MaxRegisterOp, MaxRegisterResp};

#[derive(Clone, Copy)]
enum Impl {
    AacTopDown,
    AacDoubleCollect,
    SnapshotDerived,
}

const STEP_BUDGET: u64 = 2_000;

fn oracle(max_runs: usize) -> SimExplore {
    SimExplore {
        max_runs,
        mode: PruneMode::Unpruned,
        workers: 1,
        step_budget: STEP_BUDGET,
        ..SimExplore::default()
    }
}

/// The AAC trie with its clean double-collect read, which no handle
/// exposes: the workload's programs are built here and explored through
/// [`Explorer::explore_with`], one warm world per worker.
fn explore_double_collect(max_runs: usize) -> ExploredDag<MaxRegisterSpec> {
    fn programs(
        m: &BoundedMaxRegister<SimMem>,
        log: &sl_sim::EventLog<MaxRegisterSpec>,
    ) -> Vec<Program> {
        let mut programs: Vec<Program> = Vec::new();
        for value in [1u64, 3] {
            let (m, log) = (m.clone(), log.clone());
            programs.push(Box::new(move |ctx| {
                ctx.pause();
                let id = log.invoke(ctx.proc_id(), MaxRegisterOp::MaxWrite(value));
                m.max_write(value);
                log.respond(id, MaxRegisterResp::Ack);
            }));
        }
        let (m, log) = (m.clone(), log.clone());
        programs.push(Box::new(move |ctx| {
            ctx.pause();
            let id = log.invoke(ctx.proc_id(), MaxRegisterOp::MaxRead);
            let v = m.max_read_double_collect();
            log.respond(id, MaxRegisterResp::Value(v));
        }));
        programs
    }
    let sink: Mutex<Vec<TreeDag<MaxRegisterSpec>>> = Mutex::new(Vec::new());
    let explorer = Explorer {
        max_runs,
        mode: PruneMode::Unpruned,
        workers: 1,
        stem: Vec::new(),
        statics: None,
    };
    let outcome = explorer.explore_with(
        || {
            let world = SimWorld::new(3);
            let m = BoundedMaxRegister::new(&world.mem(), 4);
            Sharded {
                inner: (ReplayPool::new(world), m),
                shards: DagShards::new(&sink),
            }
        },
        |ctx: &mut Sharded<'_, MaxRegisterSpec, _>, driver| {
            let (pool, m) = &mut ctx.inner;
            pool.replay(|log| programs(m, log), driver, STEP_BUDGET);
            ctx.shards.ingest(pool.transcript());
        },
    );
    ExploredDag {
        dag: TreeDag::merge(sink.into_inner().unwrap()),
        outcome,
    }
}

fn run_workload(which: Impl, max_runs: usize) -> (usize, bool, String) {
    let ops = [
        vec![MaxRegisterOp::MaxWrite(1)],
        vec![MaxRegisterOp::MaxWrite(3)],
        vec![MaxRegisterOp::MaxRead],
    ];
    let explored = match which {
        Impl::AacTopDown => explore_object_dag::<MaxRegisterSpec, _, _>(
            |mem| ObjectBuilder::on(mem).processes(3).trie_max_register(4),
            &ops,
            &oracle(max_runs),
        ),
        Impl::AacDoubleCollect => explore_double_collect(max_runs),
        Impl::SnapshotDerived => explore_object_dag::<MaxRegisterSpec, _, _>(
            |mem| {
                ObjectBuilder::on(mem)
                    .processes(3)
                    .atomic_r()
                    .max_register()
            },
            &ops,
            &oracle(max_runs),
        ),
    };
    let report = explored.check_strong(&MaxRegisterSpec);
    (
        explored.outcome.runs,
        explored.outcome.exhausted,
        verdict_cell(&explored.outcome, report.holds),
    )
}

fn main() {
    println!("# E13 — max-register reads and strong linearizability (§4.1/§4.5)\n");
    println!("Workload: MaxWrite(1) ∥ MaxWrite(3) ∥ MaxRead, all schedules.\n");
    let mut rows = Vec::new();
    for (name, which, budget) in [
        (
            "AAC trie, top-down read (linearizable)",
            Impl::AacTopDown,
            30_000,
        ),
        (
            "AAC trie, clean double-collect read",
            Impl::AacDoubleCollect,
            30_000,
        ),
        (
            "§4.5: derived from SL snapshot (atomic R)",
            Impl::SnapshotDerived,
            3_000,
        ),
    ] {
        let (runs, exhausted, holds) = run_workload(which, budget);
        rows.push(vec![
            name.to_string(),
            runs.to_string(),
            exhausted.to_string(),
            holds,
        ]);
    }
    print_table(
        &[
            "implementation",
            "schedules",
            "exhausted",
            "strongly linearizable",
        ],
        &rows,
    );
    println!(
        "\nFinding: both register-level AAC read strategies fail — their \
         responses are determined only after larger concurrent writes have \
         completed, which prefix-preservation forbids (the Observation-4 \
         mechanism). This is consistent with Helmi–Higham–Woelfel needing a \
         dedicated construction, and with the paper's §4.5 choice to derive \
         max-registers from the strongly linearizable snapshot — which \
         passes the same workload."
    );
}
