//! Checker-backed validation of the universal construction
//! (paper Theorems 54 and 3).

use sl_check::TreeBuilder;
use sl_check::{check_linearizable, check_strongly_linearizable};
use sl_core::{AtomicSnapshot, SlSnapshot};
use sl_sim::{
    EventLog, Explorer, Program, PruneMode, RunConfig, ScheduleDriver, SeededRandom, SimWorld,
};
use sl_spec::{CounterOp, ProcId};
use sl_universal::types::{CounterType, GrowSetType, MaxRegisterType, RegOp, RegisterType};
use sl_universal::{NodeRef, SimpleSpec, SimpleType, Universal};

/// Runs a 3-process workload of `ops` per process on a universal object
/// over an atomic root and checks linearizability of the history.
fn check_lin_random<T, FOps>(ty: T, per_proc_ops: FOps, seeds: std::ops::Range<u64>)
where
    T: SimpleType,
    FOps: Fn(usize) -> Vec<T::Op>,
{
    for seed in seeds {
        let n = 3;
        let world = SimWorld::new(n);
        let mem = world.mem();
        let root: AtomicSnapshot<NodeRef<T>, _> = AtomicSnapshot::new(&mem, n);
        let obj = Universal::new(ty.clone(), root, n);
        let log: EventLog<SimpleSpec<T>> = EventLog::new(&world);
        let mut programs: Vec<Program> = Vec::new();
        for pid in 0..n {
            let mut h = obj.handle(ProcId(pid));
            let log = log.clone();
            let ops = per_proc_ops(pid);
            programs.push(Box::new(move |ctx| {
                for op in ops {
                    ctx.pause();
                    let id = log.invoke(ctx.proc_id(), op.clone());
                    let resp = h.execute(op);
                    log.respond(id, resp);
                }
            }));
        }
        let mut sched = SeededRandom::new(seed);
        let outcome = world.run(programs, &mut sched, 1_000_000);
        assert!(outcome.completed, "seed {seed}: run exhausted budget");
        let h = log.history();
        assert!(
            check_linearizable(&SimpleSpec(ty.clone()), &h).is_some(),
            "seed {seed}: universal object produced a non-linearizable history:\n{h:?}"
        );
    }
}

#[test]
fn universal_counter_linearizable_random_schedules() {
    check_lin_random(
        CounterType,
        |pid| {
            if pid == 0 {
                vec![CounterOp::Read, CounterOp::Read]
            } else {
                vec![CounterOp::Inc, CounterOp::Read]
            }
        },
        0..10,
    );
}

#[test]
fn universal_register_linearizable_random_schedules() {
    check_lin_random(
        RegisterType,
        |pid| {
            if pid == 0 {
                vec![RegOp::Read, RegOp::Read]
            } else {
                vec![RegOp::Write(pid as u64), RegOp::Read]
            }
        },
        0..10,
    );
}

#[test]
fn universal_max_register_linearizable_random_schedules() {
    use sl_spec::MaxRegisterOp;
    check_lin_random(
        MaxRegisterType,
        |pid| {
            vec![
                MaxRegisterOp::MaxWrite(pid as u64 * 10),
                MaxRegisterOp::MaxRead,
            ]
        },
        0..10,
    );
}

#[test]
fn universal_grow_set_linearizable_random_schedules() {
    use sl_spec::GrowSetOp;
    check_lin_random(
        GrowSetType,
        |pid| {
            if pid == 0 {
                vec![GrowSetOp::Contains(1), GrowSetOp::Contains(2)]
            } else {
                vec![GrowSetOp::Insert(pid as u64), GrowSetOp::Contains(1)]
            }
        },
        0..10,
    );
}

/// Theorem 54 (bounded check): the Aspnes–Herlihy construction over an
/// **atomic** root is strongly linearizable. Exhaustively explores a
/// 2-process counter workload — two operations per process — on the
/// source-DPOR explorer and model-checks the full prefix tree with the
/// memoised checker.
#[test]
fn universal_counter_atomic_root_strongly_linearizable_exhaustive() {
    let builder: TreeBuilder<SimpleSpec<CounterType>> = TreeBuilder::new();
    let explorer = Explorer {
        max_runs: 500_000,
        mode: PruneMode::SourceDpor,
        workers: 1,
        stem: vec![],
        statics: None,
    };
    let explored = explorer.explore(|driver: &mut ScheduleDriver| {
        let world = SimWorld::new(2);
        let mem = world.mem();
        let root: AtomicSnapshot<NodeRef<CounterType>, _> = AtomicSnapshot::new(&mem, 2);
        let obj = Universal::new(CounterType, root, 2);
        let log: EventLog<SimpleSpec<CounterType>> = EventLog::new(&world);
        let mut programs: Vec<Program> = Vec::new();
        for (pid, ops) in [
            (0, [CounterOp::Inc, CounterOp::Read]),
            (1, [CounterOp::Read, CounterOp::Inc]),
        ] {
            let mut h = obj.handle(ProcId(pid));
            let log = log.clone();
            programs.push(Box::new(move |ctx| {
                for op in ops {
                    ctx.pause();
                    let id = log.invoke(ctx.proc_id(), op);
                    let resp = h.execute(op);
                    log.respond(id, resp);
                }
            }));
        }
        let outcome = world.run_with(programs, driver, 1_000, RunConfig::traced());
        builder.ingest(&log.transcript(&outcome));
        outcome
    });
    assert!(explored.exhausted, "schedule space must be fully explored");

    let tree = builder.finish();
    let report = check_strongly_linearizable(&SimpleSpec(CounterType), &tree);
    assert!(
        report.holds,
        "Theorem 54 (bounded check): universal construction strongly linearizable \
         over {} schedules ({} pruned)",
        explored.runs, explored.pruned
    );
}

/// The §5 construction over the §4.1 Denysyuk–Woelfel **versioned**
/// snapshot — the pairing that used to panic inside the linearization
/// graph when explored on pooled replay worlds (stale
/// `UnaryMaxRegister` cells leaked `preceding` edges across schedules;
/// fixed via `Mem::epoch` cache invalidation). Exhaustively explores a
/// 2-process counter workload and model-checks the full prefix tree.
#[test]
fn universal_counter_versioned_root_strongly_linearizable_exhaustive() {
    use sl_core::VersionedSlSnapshot;
    let builder: TreeBuilder<SimpleSpec<CounterType>> = TreeBuilder::new();
    let explorer = Explorer {
        max_runs: 500_000,
        mode: PruneMode::OptimalDpor,
        workers: 1,
        stem: vec![],
        statics: None,
    };
    let explored = explorer.explore(|driver: &mut ScheduleDriver| {
        let world = SimWorld::new(2);
        let mem = world.mem();
        let root: VersionedSlSnapshot<NodeRef<CounterType>, _> = VersionedSlSnapshot::new(&mem, 2);
        let obj = Universal::new(CounterType, root, 2);
        let log: EventLog<SimpleSpec<CounterType>> = EventLog::new(&world);
        let mut programs: Vec<Program> = Vec::new();
        for (pid, ops) in [(0, [CounterOp::Inc]), (1, [CounterOp::Read])] {
            let mut h = obj.handle(ProcId(pid));
            let log = log.clone();
            programs.push(Box::new(move |ctx| {
                for op in ops {
                    ctx.pause();
                    let id = log.invoke(ctx.proc_id(), op);
                    let resp = h.execute(op);
                    log.respond(id, resp);
                }
            }));
        }
        let outcome = world.run_with(programs, driver, 5_000, RunConfig::traced());
        builder.ingest(&log.transcript(&outcome));
        outcome
    });
    assert!(explored.exhausted, "schedule space must be fully explored");

    let tree = builder.finish();
    let report = check_strongly_linearizable(&SimpleSpec(CounterType), &tree);
    assert!(
        report.holds,
        "universal over versioned root strongly linearizable over {} schedules",
        explored.runs
    );
}

/// Theorem 3 end-to-end: the universal construction over the paper's
/// register-only strongly linearizable snapshot, under random schedules,
/// produces linearizable histories (full strong-linearizability model
/// checking of this stack is done by the `exp_universal` experiment with
/// a run budget).
#[test]
fn universal_counter_over_sl_snapshot_linearizable() {
    for seed in 0..5u64 {
        let n = 2;
        let world = SimWorld::new(n);
        let mem = world.mem();
        let root = SlSnapshot::with_double_collect(&mem, n);
        let obj = Universal::new(CounterType, root, n);
        let log: EventLog<SimpleSpec<CounterType>> = EventLog::new(&world);
        let mut programs: Vec<Program> = Vec::new();
        for pid in 0..n {
            let mut h = obj.handle(ProcId(pid));
            let log = log.clone();
            programs.push(Box::new(move |ctx| {
                for op in [CounterOp::Inc, CounterOp::Read] {
                    ctx.pause();
                    let id = log.invoke(ctx.proc_id(), op);
                    let resp = h.execute(op);
                    log.respond(id, resp);
                }
            }));
        }
        let mut sched = SeededRandom::new(seed);
        let outcome = world.run(programs, &mut sched, 2_000_000);
        assert!(outcome.completed, "seed {seed}: run starved");
        let h = log.history();
        assert!(
            check_linearizable(&SimpleSpec(CounterType), &h).is_some(),
            "seed {seed}: non-linearizable history over SL snapshot root"
        );
    }
}

/// Deep re-tier (sim-deep CI job): the Theorem-54 counter check at
/// **three** operations per process, streamed into the hash-consed
/// transcript DAG and decided by the memoised checker — a depth the
/// materialised-tree pipeline could not reach.
#[test]
#[ignore = "deep: run with --ignored (sim-deep CI job)"]
fn universal_counter_atomic_root_three_ops_deep() {
    use sl_check::{check_strongly_linearizable_dag, DagBuilder};
    let builder: DagBuilder<SimpleSpec<CounterType>> = DagBuilder::new();
    let explorer = Explorer {
        max_runs: 10_000_000,
        mode: PruneMode::SourceDpor,
        workers: 1,
        stem: vec![],
        statics: None,
    };
    let explored = explorer.explore(|driver: &mut ScheduleDriver| {
        let world = SimWorld::new(2);
        let mem = world.mem();
        let root: AtomicSnapshot<NodeRef<CounterType>, _> = AtomicSnapshot::new(&mem, 2);
        let obj = Universal::new(CounterType, root, 2);
        let log: EventLog<SimpleSpec<CounterType>> = EventLog::new(&world);
        let mut programs: Vec<Program> = Vec::new();
        for (pid, ops) in [
            (0, [CounterOp::Inc, CounterOp::Read, CounterOp::Inc]),
            (1, [CounterOp::Read, CounterOp::Inc, CounterOp::Read]),
        ] {
            let mut h = obj.handle(ProcId(pid));
            let log = log.clone();
            programs.push(Box::new(move |ctx| {
                for op in ops {
                    ctx.pause();
                    let id = log.invoke(ctx.proc_id(), op);
                    let resp = h.execute(op);
                    log.respond(id, resp);
                }
            }));
        }
        let outcome = world.run_with(programs, driver, 3_000, RunConfig::traced());
        builder.ingest(&log.transcript(&outcome));
        outcome
    });
    assert!(explored.exhausted, "explored {} schedules", explored.runs);
    let dag = builder.finish();
    let report = check_strongly_linearizable_dag(&SimpleSpec(CounterType), &dag);
    assert!(
        report.holds,
        "Theorem 54 (deep): universal counter over {} schedules, {} unique shapes",
        explored.runs,
        dag.unique_nodes()
    );
}
