//! Model-checking strong linearizability from scratch.
//!
//! This example shows the full verification pipeline on a tiny workload:
//! run an algorithm under *every* possible schedule in the deterministic
//! simulator, merge the recorded transcripts into a prefix tree, and
//! search for a strong linearization function — a prefix-preserving
//! assignment of linearizations to every reachable transcript prefix.
//!
//! Run with: `cargo run --release --example model_check`

use strongly_linearizable::check::{check_strongly_linearizable, TreeBuilder};
use strongly_linearizable::prelude::*;
use strongly_linearizable::sim::{Explorer, Program, PruneMode, ScheduleDriver};
use strongly_linearizable::spec::types::AbaSpec;
use strongly_linearizable::spec::{AbaOp, AbaResp};

type Spec = AbaSpec<u64>;

fn main() {
    let transcripts: TreeBuilder<Spec> = TreeBuilder::new();

    // One writer (a single DWrite) and one reader (a single DRead) on
    // the paper's Algorithm 2, built through the unified builder over
    // the simulator backend. Every run is deterministic given the
    // scheduler's decision sequence, so the explorer enumerates the
    // entire schedule space by replaying decision prefixes; under
    // `PruneMode::Unpruned` every pair of steps counts as conflicting,
    // so no schedule is skipped.
    let explorer = Explorer {
        max_runs: 100_000,
        mode: PruneMode::Unpruned,
        ..Explorer::default()
    };
    let explored = explorer.explore(|driver: &mut ScheduleDriver| {
        let world = SimWorld::new(2);
        let mem = world.mem();
        let reg = ObjectBuilder::on(&mem).processes(2).aba_register::<u64>();
        let log: EventLog<Spec> = EventLog::new(&world);
        let mut w = reg.handle(ProcId(0));
        let wl = log.clone();
        let mut r = reg.handle(ProcId(1));
        let rl = log.clone();
        let programs: Vec<Program> = vec![
            Box::new(move |ctx| {
                ctx.pause();
                let id = wl.invoke(ctx.proc_id(), AbaOp::DWrite(1));
                w.dwrite(1);
                wl.respond(id, AbaResp::Ack);
            }),
            Box::new(move |ctx| {
                ctx.pause();
                let id = rl.invoke(ctx.proc_id(), AbaOp::DRead);
                let (v, a) = r.dread();
                rl.respond(id, AbaResp::Value(v, a));
            }),
        ];
        let outcome = world.run(programs, driver, 200);
        println!("explored schedule {:?}", driver.script());
        transcripts.ingest(&log.transcript(&outcome));
        outcome
    });
    println!(
        "\n{} schedules, exhausted: {}",
        explored.runs, explored.exhausted
    );

    let tree = transcripts.finish();
    println!(
        "prefix tree: {} nodes, {} maximal transcripts, depth {}",
        tree.node_count(),
        tree.leaf_count(),
        tree.depth()
    );

    let report = check_strongly_linearizable(&Spec::new(2), &tree);
    println!(
        "strong linearization function exists: {} ({} search states)",
        report.holds, report.states_explored
    );
    assert!(report.holds, "Theorem 12 on this bounded workload");
}
