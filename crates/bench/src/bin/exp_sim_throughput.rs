//! Step-VM throughput, explorer schedule counts, world-reuse and
//! parallel-scaling curves, and checker time.
//!
//! The experiment captures the quantities that bound exhaustive
//! model-checking depth:
//!
//! * **schedules replayed** per explorer mode (the unpruned oracle,
//!   source-set DPOR over the syntactic relation, and optimal DPOR over
//!   the refined relation — with the `sl-analyze` certificate on the
//!   pinned workloads) on pinned Algorithm-2 workloads — the win of
//!   partial-order reduction;
//! * **replay throughput**: fresh-world-per-schedule vs the pooled
//!   `SimWorld::reset` path (world reuse), and the parallel scaling
//!   curve of partitioned source-DPOR at 1/2/4/8 workers (see
//!   `--threads`) — the win of this revision;
//! * **checker time** of the strong-linearizability decision over the
//!   explored transcript set, memoised vs unmemoised — the win of
//!   hash-consed subtree memoisation.
//!
//! `--json PATH` writes the summary as JSON (the artifact the sim-deep
//! CI job uploads; it includes the scaling curve). `--baseline PATH`
//! compares against a recorded baseline and exits non-zero if
//!
//! * the unpruned oracle replays a different number of schedules than
//!   recorded for a pinned workload (it must explore every schedule —
//!   no more, no fewer),
//! * the pruned explorer replays *more* schedules than recorded for a
//!   pinned workload, under syntactic source DPOR or optimal DPOR
//!   (partial-order reduction regressed),
//! * optimal DPOR cuts any replay (the wakeup-sequence guarantee is
//!   *zero* sleep-set-blocked runs),
//! * optimal DPOR on a mixed-role workload no longer stays strictly
//!   below the frozen per-register-era floors (660 on `aba_mixed3`,
//!   26 638 on `aba_mixed3_deep`) — the op-pair commutation matrix
//!   stopped pruning,
//! * any dynamic race on a mixed-role workload escapes op-pair
//!   attribution (`static_unattributed` must be 0),
//! * the certificate catalog checked in next to the baseline is stale
//!   (regenerating it from the current probe produces different bytes)
//!   or fails the fail-closed parser,
//! * the single-worker world-reuse speedup on `aba_2w2r` falls below
//!   the recorded `min_reuse_speedup`, or
//! * the 4-/8-worker speedups on `aba_2w2r` fall below the recorded
//!   `min_speedup_4w`/`min_speedup_8w` — each checked only on machines
//!   with at least that many CPUs (parallel wall-clock on fewer cores
//!   measures the machine, not the explorer).
//!
//! `--refresh-baseline` rewrites the baseline file from this run's
//! measurements (gate thresholds preserved) instead of hand-editing
//! the JSON, and regenerates the `certificates.json` checked in next
//! to it; `--summary-md PATH` writes a markdown before/after delta
//! table (what the sim-deep CI job posts as its step summary).
//! `--certificates PATH` writes the `sl-analyze` certificate catalog
//! (the JSON artifact sim-deep CI uploads next to the summary).
//! `--threads N` caps the scaling curve (default 8; powers of two).
//!
//! **Crash-resilient mode** (`--checkpoint-dir DIR`): instead of the
//! measurement suite, run one checkpointed optimal-DPOR exploration of
//! `--resume-workload` (default `aba_mixed3`; counts-only, workers from
//! `SL_EXPLORE_THREADS`) and print its outcome as a one-line
//! `RESUME_SUMMARY {json}`. `--resume` continues from an existing
//! checkpoint in DIR (without it any stale checkpoint is cleared);
//! `--ckpt-every N` sets the snapshot cadence in root replays,
//! `--ckpt-max-schedules N` drains after a schedule budget, and
//! `--ckpt-stall-us U` slows each replay (so the out-of-process
//! SIGKILL-and-resume test can land its kill mid-exploration).
//! `SL_FAULT_POINT`/`SL_FAULT_NTH`/`SL_FAULT_MODE` seed deterministic
//! fault injection (see `sl_sim::FaultPlan::from_env`). The resumed
//! run's summary is bit-identical to an uninterrupted one — gated by
//! `crates/bench/tests/resume_kill.rs` and the sim-resume CI lane.
//!
//! The measurement suite additionally measures **checkpoint overhead**:
//! best-of-5 interleaved pairs of plain vs checkpointed optimal-DPOR
//! explorations of `aba_mixed3_deep`; `--baseline` gates the ratio
//! against `min_ckpt_ratio` (0.95 — checkpointing may cost at most
//! ~5%).
//!
//! **Distributed mode** (`--worker-procs N`): additionally runs one
//! sequential and one distributed optimal-DPOR exploration of
//! `aba_mixed3_deep`, the latter through `sl-dist`'s lease-based
//! coordinator over N real worker *processes* (`--worker-bin PATH`
//! overrides the worker binary, default the sibling `dist_worker`).
//! Bit-identity of counters, verdict, and the merged-DAG structural
//! hash is asserted inside the measurement; `--baseline` gates the
//! sequential/distributed wall-clock ratio against `min_dist_ratio`
//! (0.2 — frame/lease/symbolization overhead may cost at most 5x;
//! real speedup needs more cores/hosts than CI offers). The sim-dist
//! CI lane runs this plus the fault-matrix identity suite
//! (`crates/bench/tests/dist_identity.rs`).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use sl_api::sim::{
    explore_object_dag_distributed, explore_object_dag_with, programs_for, DriveOps as _,
    ExploredDag, PooledWorld, SimExplore,
};
use sl_api::{ObjectBuilder, SharedObject};
use sl_bench::workloads::{dist_config, dist_ops, ASpec};
use sl_bench::{baseline, print_table, Baseline, Gate};
use sl_check::{
    check_strongly_linearizable_dag, check_strongly_linearizable_unmemoised, DagShards,
    HistoryTree, TreeBuilder, TreeDag, TreeStep,
};
use sl_core::aba::SlAbaRegister;
use sl_dist::FleetConfig;
use sl_mem::{Mem, Register};
use sl_sim::{
    CheckpointPolicy, CheckpointStore, EventLog, ExploreOutcome, FaultPlan, Program, PruneMode,
    ResumeSession, RoundRobin, RunConfig, ScheduleDriver, Sharded, SimMem, SimWorld,
};
use sl_spec::{AbaOp, AbaResp};

fn workload(world: &SimWorld, steps_per_proc: u64) -> Vec<Program> {
    let mem = world.mem();
    let reg = mem.alloc("X", 0u64);
    (0..world.processes())
        .map(|_| {
            let r = reg.clone();
            Box::new(move |_ctx| {
                for _ in 0..steps_per_proc / 2 {
                    let v = r.read();
                    r.write(v + 1);
                }
            }) as Program
        })
        .collect()
}

/// Steps/second over `reps` fresh worlds of `steps_per_proc` steps per
/// process each.
fn measure(cfg: RunConfig, steps_per_proc: u64, reps: u32) -> f64 {
    let start = Instant::now();
    let mut total = 0u64;
    for _ in 0..reps {
        let world = SimWorld::new(2);
        let programs = workload(&world, steps_per_proc);
        let mut sched = RoundRobin::new();
        let out = world.run_with(programs, &mut sched, u64::MAX, cfg);
        total += out.total_steps();
    }
    total as f64 / start.elapsed().as_secs_f64()
}

fn human(rate: f64) -> String {
    if rate >= 1e6 {
        format!("{:.2}M", rate / 1e6)
    } else {
        format!("{:.0}k", rate / 1e3)
    }
}

/// The object every pinned workload checks: Algorithm 2.
type Aba = SlAbaRegister<u64, SimMem>;
type AbaHandle = <Aba as SharedObject<SimMem>>::Handle;
type Apply = fn(&mut AbaHandle, &AbaOp<u64>) -> AbaResp<u64>;

fn drive(h: &mut AbaHandle, op: &AbaOp<u64>) -> AbaResp<u64> {
    h.drive(op)
}

/// A pinned workload of the `sl_bench::workloads` registry: its op
/// lists, replayed through the same `PooledWorld` and `programs_for`
/// that `sl_api::sim` explores with.
struct Pinned {
    ops: Vec<Vec<AbaOp<u64>>>,
    apply: Arc<Apply>,
}

impl Pinned {
    fn new(name: &str) -> Pinned {
        Pinned {
            ops: dist_ops(name).expect("registered pinned workload"),
            apply: Arc::new(drive),
        }
    }

    fn factory(&self) -> impl Fn(&SimMem) -> Aba + Sync + Copy {
        let n = self.ops.len();
        move |mem| ObjectBuilder::on(mem).processes(n).aba_register::<u64>()
    }

    /// One explorer worker's warm world.
    fn world(&self) -> PooledWorld<ASpec, Aba> {
        PooledWorld::new(&self.factory(), self.ops.len())
    }

    /// Replays one schedule on a warm world.
    fn replay(
        &self,
        world: &mut PooledWorld<ASpec, Aba>,
        driver: &mut ScheduleDriver,
        budget: u64,
    ) {
        world.replay(&self.ops, &self.apply, driver, budget);
    }

    /// Explores on warm worlds, handing every transcript to `ingest`.
    fn explore(
        &self,
        cfg: &SimExplore,
        ingest: impl Fn(&[TreeStep<ASpec>]) + Sync,
    ) -> ExploreOutcome {
        cfg.explorer().explore_with(
            || self.world(),
            |world, driver| {
                self.replay(world, driver, cfg.step_budget);
                ingest(world.transcript());
            },
        )
    }

    /// The production harness: warm worlds streaming into DAG shards.
    fn explore_dag(&self, cfg: &SimExplore) -> ExploredDag<ASpec> {
        explore_object_dag_with(self.factory(), &self.ops, drive, cfg)
    }

    /// [`Pinned::explore_dag`] with a fresh world per replay and
    /// otherwise the same ingestion (a reused transcript buffer, DAG
    /// shards) — the baseline world reuse is measured against.
    fn explore_dag_fresh(&self, cfg: &SimExplore) -> ExploredDag<ASpec> {
        let factory = self.factory();
        let sink = Mutex::new(Vec::new());
        let outcome = cfg.explorer().explore_with(
            || Sharded {
                inner: Vec::new(),
                shards: DagShards::new(&sink),
            },
            |ctx: &mut Sharded<'_, ASpec, Vec<TreeStep<ASpec>>>, driver| {
                let world = SimWorld::new(self.ops.len());
                let obj = factory(&world.mem());
                let log: EventLog<ASpec> = EventLog::new(&world);
                let programs = programs_for(&obj, &log, &self.ops, &self.apply);
                let out = world.run_with(programs, driver, cfg.step_budget, RunConfig::traced());
                log.transcript_into(&out, &mut ctx.inner);
                ctx.shards.ingest(&ctx.inner);
            },
        );
        ExploredDag {
            dag: TreeDag::merge(sink.into_inner().unwrap()),
            outcome,
        }
    }
}

/// `f`'s result and its wall clock in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The single-worker optimal-DPOR configuration with `cert`'s runtime
/// form installed.
fn certified(cert: &sl_analyze::Certificate) -> SimExplore {
    SimExplore {
        statics: Some(Arc::new(cert.static_conflicts())),
        ..dist_config(PruneMode::OptimalDpor, 1)
    }
}

/// Schedule counts of one mixed-role pinned workload per DPOR mode,
/// and the certificate telemetry of the optimal-DPOR run.
struct MixedSummary {
    name: &'static str,
    dpor_replayed: usize,
    dpor_runs: usize,
    optimal_dpor_replayed: usize,
    optimal_dpor_runs: usize,
    optimal_cut: usize,
    static_relaxed: u64,
    static_validated: u64,
    static_unattributed: u64,
}

fn run_mixed_workload(
    name: &'static str,
    label: &str,
    cert: &sl_analyze::Certificate,
) -> MixedSummary {
    println!();
    println!("## Pinned workload `{name}` (Algorithm 2: {label})");
    let w = Pinned::new(name);
    // A fresh runtime form per workload: telemetry counters accumulate
    // per `StaticConflicts` instance, and the summary reports them
    // per workload.
    let optimal = certified(cert);
    let counts: Vec<ExploreOutcome> = [&dist_config(PruneMode::SourceDpor, 1), &optimal]
        .into_iter()
        .map(|cfg| {
            let out = w.explore(cfg, |_| {});
            assert!(out.exhausted, "mixed-role pinned workload must exhaust");
            out
        })
        .collect();
    let rows: Vec<Vec<String>> = [("source DPOR", &counts[0]), ("optimal DPOR", &counts[1])]
        .iter()
        .map(|(mode, out)| {
            vec![
                mode.to_string(),
                out.schedules_replayed().to_string(),
                out.runs.to_string(),
                out.cut_runs.to_string(),
            ]
        })
        .collect();
    print_table(&["mode", "replayed", "runs", "cut"], &rows);
    assert_eq!(
        counts[1].cut_runs, 0,
        "optimal DPOR initiated a sleep-set-blocked replay on {name}"
    );
    let t = optimal.statics.as_ref().expect("certified").telemetry();
    println!(
        "(the refined relation with the op-pair certificate removes {:.0}% of the source-DPOR \
         schedules — {} relaxations, {} validated races, {} unattributed, 0 unpredicted; \
         wakeup sequences keep the exploration cut-free at {} replays)",
        (1.0 - counts[1].schedules_replayed() as f64 / counts[0].schedules_replayed() as f64)
            * 100.0,
        t.relaxed,
        t.validated,
        t.unattributed,
        counts[1].schedules_replayed(),
    );
    MixedSummary {
        name,
        dpor_replayed: counts[0].schedules_replayed(),
        dpor_runs: counts[0].runs,
        optimal_dpor_replayed: counts[1].schedules_replayed(),
        optimal_dpor_runs: counts[1].runs,
        optimal_cut: counts[1].cut_runs,
        static_relaxed: t.relaxed,
        static_validated: t.validated,
        static_unattributed: t.unattributed,
    }
}

struct ScalingPoint {
    threads: usize,
    replays_per_sec: f64,
    speedup: f64,
    efficiency: f64,
}

struct WorkloadSummary {
    name: &'static str,
    unpruned_replayed: usize,
    unpruned_exhausted: bool,
    dpor_replayed: usize,
    dpor_runs: usize,
    optimal_dpor_replayed: usize,
    optimal_dpor_runs: usize,
    optimal_cut: usize,
    reduction_vs_unpruned: f64,
    fresh_s: f64,
    pooled_s: f64,
    reuse_speedup: f64,
    scaling: Vec<ScalingPoint>,
    checker_memo_ms: f64,
    checker_unmemo_ms: f64,
    checker_speedup: f64,
    memo_hits: u64,
    states_memo: u64,
    states_unmemo: u64,
}

/// Pinned workload: 2-process Algorithm 2 (writer p0, reader p1) — the
/// family the model-check suite exhausts. The source-DPOR row runs the
/// production harness (DAG shards; the DAG is what deep checks
/// consume); the other modes only count schedules. The materialised
/// prefix tree feeding the unmemoised checker oracle comes from one
/// more source-DPOR exploration.
fn run_pinned_workload(
    name: &'static str,
    max_threads: usize,
    cert: &sl_analyze::Certificate,
) -> WorkloadSummary {
    let w = Pinned::new(name);
    let (writes, reads) = (w.ops[0].len(), w.ops[1].len());
    println!();
    println!("## Pinned workload `{name}` (Algorithm 2: {writes} DWrites vs {reads} DReads)");
    let source = dist_config(PruneMode::SourceDpor, 1);
    let mut rows = Vec::new();
    let (un, un_t) = timed(|| w.explore(&dist_config(PruneMode::Unpruned, 1), |_| {}));
    let (ExploredDag { dag, outcome: dp }, dp_t) = timed(|| w.explore_dag(&source));
    let (od, od_t) = timed(|| w.explore(&certified(cert), |_| {}));
    let builder: TreeBuilder<ASpec> = TreeBuilder::new();
    let tree_out = w.explore(&source, |t| builder.ingest(t));
    let tree: HistoryTree<ASpec> = builder.finish();
    assert!(
        un.exhausted && dp.exhausted && od.exhausted,
        "explorations of the pinned workloads must exhaust"
    );
    assert!(
        un.cut_runs == 0 && un.pruned == 0,
        "the unpruned oracle never cuts or prunes"
    );
    assert!(
        od.schedules_replayed() <= dp.schedules_replayed(),
        "optimal DPOR must never replay more in total than source DPOR"
    );
    assert_eq!(od.cut_runs, 0, "optimal DPOR must never cut a replay");
    assert_eq!(
        tree_out, dp,
        "the tree run must explore the DAG run's schedules"
    );
    assert_eq!(
        TreeDag::from_tree(&tree).structural_hash(),
        dag.structural_hash(),
        "the prefix tree and the sharded DAG must hold the same transcripts"
    );
    for (mode, out, secs) in [
        ("unpruned", &un, un_t),
        ("source DPOR", &dp, dp_t),
        ("optimal DPOR", &od, od_t),
    ] {
        rows.push(vec![
            mode.to_string(),
            out.schedules_replayed().to_string(),
            out.runs.to_string(),
            out.cut_runs.to_string(),
            if out.exhausted { "yes" } else { "capped" }.to_string(),
            format!("{:.2}s", secs),
        ]);
    }
    print_table(
        &["mode", "replayed", "runs", "cut", "exhausted", "time"],
        &rows,
    );
    let reduction = un.schedules_replayed() as f64 / dp.schedules_replayed() as f64;
    println!(
        "(source DPOR replays {:.1}x fewer schedules than unpruned{})",
        reduction,
        if un.exhausted {
            String::new()
        } else {
            " — a floor: the unpruned run hit its budget".to_string()
        }
    );

    // World reuse: the same DPOR exploration and ingestion pipeline on
    // one warm world per worker (reset between replays) vs a fresh
    // world per replay. Both sides ingest DAG shards with a reused
    // transcript buffer — only the world lifecycle differs, so the
    // ratio isolates world reuse.
    // Three interleaved fresh/pooled pairs, gated on the best per-pair
    // ratio: interleaving decorrelates wall-clock drift (CPU frequency,
    // noisy neighbours) that separate measurement blocks would fold
    // into the ratio, and a real regression degrades every pair.
    let (mut fresh_t, mut pooled_t) = (0.0, f64::MAX);
    for _ in 0..3 {
        let (fresh, f_t) = timed(|| w.explore_dag_fresh(&source));
        let (pooled, p_t) = timed(|| w.explore_dag(&source));
        // Every pair explores the mode-table run's schedules and DAG.
        assert_eq!(
            fresh.outcome, pooled.outcome,
            "fresh and pooled runs must agree"
        );
        assert_eq!(
            pooled.outcome, dp,
            "pooled replay must explore the identical schedule set"
        );
        assert_eq!(fresh.dag.structural_hash(), dag.structural_hash());
        assert_eq!(
            pooled.dag.structural_hash(),
            dag.structural_hash(),
            "pooled replay must produce the identical transcript DAG"
        );
        if f_t / p_t > fresh_t / pooled_t {
            (fresh_t, pooled_t) = (f_t, p_t);
        }
    }
    let reuse_speedup = fresh_t / pooled_t;
    println!();
    println!(
        "world reuse (1 worker): fresh {fresh_t:.2}s -> pooled {pooled_t:.2}s  \
         ({reuse_speedup:.2}x)"
    );

    // Parallel scaling of the pooled explorer.
    let mut scaling = Vec::new();
    let base_rate = dp.schedules_replayed() as f64 / pooled_t;
    scaling.push(ScalingPoint {
        threads: 1,
        replays_per_sec: base_rate,
        speedup: 1.0,
        efficiency: 1.0,
    });
    // Measuring more workers than cores measures the machine, not the
    // explorer: cap the curve at the available parallelism.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut t = 2;
    while t <= max_threads.min(cores) {
        let (par, secs) = timed(|| w.explore_dag(&dist_config(PruneMode::SourceDpor, t)));
        assert_eq!(par.outcome, dp, "{t}-worker exploration diverged");
        assert_eq!(
            par.dag.structural_hash(),
            dag.structural_hash(),
            "{t}-worker DAG diverged"
        );
        let speedup = pooled_t / secs;
        scaling.push(ScalingPoint {
            threads: t,
            replays_per_sec: par.outcome.schedules_replayed() as f64 / secs,
            speedup,
            efficiency: speedup / t as f64,
        });
        t *= 2;
    }
    println!();
    let rows: Vec<Vec<String>> = scaling
        .iter()
        .map(|p| {
            vec![
                p.threads.to_string(),
                format!("{}/s", human(p.replays_per_sec)),
                format!("{:.2}x", p.speedup),
                format!("{:.0}%", p.efficiency * 100.0),
            ]
        })
        .collect();
    print_table(&["threads", "replays", "speedup", "efficiency"], &rows);
    println!(
        "(identical schedule counts, verdicts, and DAG structure at every worker count — asserted)"
    );

    println!();
    println!(
        "(transcript DAG: {} unique shapes for a {}-node prefix tree)",
        dag.unique_nodes(),
        tree.node_count()
    );
    let spec = ASpec::new(2);
    let start = Instant::now();
    let memo = check_strongly_linearizable_dag(&spec, &dag);
    let memo_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let plain = check_strongly_linearizable_unmemoised(&spec, &tree);
    let unmemo_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        memo.holds, plain.holds,
        "memoisation must not change the verdict"
    );
    assert!(
        memo.holds,
        "Algorithm 2 is strongly linearizable (Theorem 12)"
    );
    println!();
    print_table(
        &["checker", "states", "memo hits", "time"],
        &[
            vec![
                "memoised".into(),
                memo.states_explored.to_string(),
                memo.memo_hits.to_string(),
                format!("{memo_ms:.1}ms"),
            ],
            vec![
                "unmemoised".into(),
                plain.states_explored.to_string(),
                "-".into(),
                format!("{unmemo_ms:.1}ms"),
            ],
        ],
    );
    println!("(memoisation: {:.1}x faster)", unmemo_ms / memo_ms);

    WorkloadSummary {
        name,
        unpruned_replayed: un.schedules_replayed(),
        unpruned_exhausted: un.exhausted,
        dpor_replayed: dp.schedules_replayed(),
        dpor_runs: dp.runs,
        optimal_dpor_replayed: od.schedules_replayed(),
        optimal_dpor_runs: od.runs,
        optimal_cut: od.cut_runs,
        reduction_vs_unpruned: reduction,
        fresh_s: fresh_t,
        pooled_s: pooled_t,
        reuse_speedup,
        scaling,
        checker_memo_ms: memo_ms,
        checker_unmemo_ms: unmemo_ms,
        checker_speedup: unmemo_ms / memo_ms,
        memo_hits: memo.memo_hits,
        states_memo: memo.states_explored,
        states_unmemo: plain.states_explored,
    }
}

fn to_json(
    throughput: &[(String, f64)],
    workloads: &[WorkloadSummary],
    mixed: &[MixedSummary],
    ckpt_ratio: f64,
    dist_row: Option<(usize, f64)>,
) -> String {
    let mut out = format!("{{\n  \"ckpt_overhead_ratio\": {ckpt_ratio:.3},");
    if let Some((procs, ratio)) = dist_row {
        out.push_str(&format!(
            "\n  \"dist_worker_procs\": {procs},\n  \"dist_ratio\": {ratio:.3},"
        ));
    }
    out.push_str("\n  \"vm_steps_per_sec\": {");
    for (i, (name, rate)) in throughput.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    \"{name}\": {rate:.0}"));
    }
    out.push_str("\n  },\n  \"workloads\": [");
    for (i, w) in workloads.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let mut scaling = String::new();
        for (j, p) in w.scaling.iter().enumerate() {
            if j > 0 {
                scaling.push_str(", ");
            }
            scaling.push_str(&format!(
                "{{\"threads\": {}, \"replays_per_sec\": {:.0}, \"speedup\": {:.2}, \
                 \"efficiency\": {:.2}}}",
                p.threads, p.replays_per_sec, p.speedup, p.efficiency
            ));
        }
        out.push_str(&format!(
            "\n    {{\n      \"name\": \"{}\",\n      \"unpruned_replayed\": {},\n      \
             \"unpruned_exhausted\": {},\n      \
             \"dpor_replayed\": {},\n      \"dpor_runs\": {},\n      \
             \"optimal_dpor_replayed\": {},\n      \"optimal_dpor_runs\": {},\n      \
             \"optimal_cut\": {},\n      \
             \"reduction_vs_unpruned\": {:.2},\n      \"fresh_s\": {:.3},\n      \
             \"pooled_s\": {:.3},\n      \"reuse_speedup\": {:.2},\n      \
             \"scaling\": [{}],\n      \"checker_memo_ms\": {:.2},\n      \
             \"checker_unmemo_ms\": {:.2},\n      \"checker_speedup\": {:.2},\n      \
             \"memo_hits\": {},\n      \"states_memo\": {},\n      \"states_unmemo\": {}\n    }}",
            w.name,
            w.unpruned_replayed,
            w.unpruned_exhausted,
            w.dpor_replayed,
            w.dpor_runs,
            w.optimal_dpor_replayed,
            w.optimal_dpor_runs,
            w.optimal_cut,
            w.reduction_vs_unpruned,
            w.fresh_s,
            w.pooled_s,
            w.reuse_speedup,
            scaling,
            w.checker_memo_ms,
            w.checker_unmemo_ms,
            w.checker_speedup,
            w.memo_hits,
            w.states_memo,
            w.states_unmemo
        ));
    }
    for m in mixed {
        out.push_str(&format!(
            ",\n    {{\n      \"name\": \"{}\",\n      \"dpor_replayed\": {},\n      \
             \"dpor_runs\": {},\n      \"optimal_dpor_replayed\": {},\n      \
             \"optimal_dpor_runs\": {},\n      \"optimal_cut\": {},\n      \
             \"static_relaxed\": {},\n      \
             \"static_validated\": {},\n      \
             \"static_unattributed\": {}\n    }}",
            m.name,
            m.dpor_replayed,
            m.dpor_runs,
            m.optimal_dpor_replayed,
            m.optimal_dpor_runs,
            m.optimal_cut,
            m.static_relaxed,
            m.static_validated,
            m.static_unattributed
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// The markdown before/after delta table the sim-deep CI job posts as
/// its step summary: recorded baseline vs this run, per gate.
fn summary_markdown(
    baseline: Option<&Baseline>,
    throughput: &[(String, f64)],
    workloads: &[WorkloadSummary],
    mixed: &[MixedSummary],
) -> String {
    use std::fmt::Write;
    let mut md = String::from("## Explorer throughput & schedule-count deltas\n\n");
    md.push_str("| metric | baseline | this run | delta |\n|---|---|---|---|\n");
    let num = |k: &str| baseline.and_then(|b| b.number(k));
    let fmt_delta = |before: Option<f64>, after: f64| match before {
        Some(b) if b > 0.0 => format!("{:+.1}%", (after - b) / b * 100.0),
        _ => "—".to_string(),
    };
    for (name, rate) in throughput {
        let before = baseline.and_then(|b| b.number_in("vm_steps_per_sec", name));
        let _ = writeln!(
            md,
            "| VM steps/s ({name}) | {} | {rate:.0} | {} |",
            before.map_or("—".into(), |b| format!("{b:.0}")),
            fmt_delta(before, *rate)
        );
    }
    for w in workloads {
        for (key, measured) in [
            ("unpruned_replayed", w.unpruned_replayed),
            ("dpor_replayed", w.dpor_replayed),
            ("optimal_dpor_replayed", w.optimal_dpor_replayed),
        ] {
            let before = baseline.and_then(|b| b.workload_count(w.name, key));
            let _ = writeln!(
                md,
                "| {} {key} | {} | {measured} | {} |",
                w.name,
                before.map_or("—".into(), |b| b.to_string()),
                fmt_delta(before.map(|b| b as f64), measured as f64)
            );
        }
        // Speedup gates are enforced on aba_2w2r only (the tiny
        // workload is all setup noise); annotate only the gated row
        // so the summary never shows an un-enforced "gate" threshold.
        let gate = if w.name == "aba_2w2r" {
            num("min_reuse_speedup").map_or("—".into(), |m| format!("gate >= {m}x"))
        } else {
            "informational".to_string()
        };
        let _ = writeln!(
            md,
            "| {} world-reuse speedup | — | {:.2}x | {gate} |",
            w.name, w.reuse_speedup
        );
    }
    for m in mixed {
        for (key, measured) in [
            ("dpor_replayed", m.dpor_replayed),
            ("optimal_dpor_replayed", m.optimal_dpor_replayed),
        ] {
            let before = baseline.and_then(|b| b.workload_count(m.name, key));
            let _ = writeln!(
                md,
                "| {} {key} | {} | {measured} | {} |",
                m.name,
                before.map_or("—".into(), |b| b.to_string()),
                fmt_delta(before.map(|b| b as f64), measured as f64)
            );
        }
        let _ = writeln!(
            md,
            "| {} placement relaxations / validated races | — | {} / {} | fail-closed: 0 \
             unpredicted |",
            m.name, m.static_relaxed, m.static_validated
        );
        let _ = writeln!(
            md,
            "| {} unattributed races | — | {} | gate == 0 |",
            m.name, m.static_unattributed
        );
        let _ = writeln!(
            md,
            "| {} optimal-DPOR cut replays | — | {} | gate == 0 |",
            m.name, m.optimal_cut
        );
    }
    md
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut summary_md_path: Option<String> = None;
    let mut certificates_path: Option<String> = None;
    let mut refresh_baseline = false;
    let mut max_threads: usize = 8;
    let mut checkpoint_dir: Option<String> = None;
    let mut resume = false;
    let mut resume_workload = String::from("aba_mixed3");
    let mut ckpt_every: u64 = 50;
    let mut ckpt_max_schedules: Option<u64> = None;
    let mut ckpt_stall_us: u64 = 0;
    let mut worker_procs: usize = 0;
    let mut worker_bin: Option<String> = None;
    let numeric = |args: &mut dyn Iterator<Item = String>, flag: &str| -> u64 {
        args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
            eprintln!("{flag} requires a number");
            std::process::exit(2);
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = args.next(),
            "--baseline" => baseline_path = args.next(),
            "--summary-md" => summary_md_path = args.next(),
            "--certificates" => certificates_path = args.next(),
            "--refresh-baseline" => refresh_baseline = true,
            "--threads" => max_threads = numeric(&mut args, "--threads") as usize,
            "--checkpoint-dir" => checkpoint_dir = args.next(),
            "--resume" => resume = true,
            "--resume-workload" => {
                resume_workload = args.next().unwrap_or_else(|| {
                    eprintln!("--resume-workload requires a name");
                    std::process::exit(2);
                })
            }
            "--ckpt-every" => ckpt_every = numeric(&mut args, "--ckpt-every"),
            "--ckpt-max-schedules" => {
                ckpt_max_schedules = Some(numeric(&mut args, "--ckpt-max-schedules"))
            }
            "--ckpt-stall-us" => ckpt_stall_us = numeric(&mut args, "--ckpt-stall-us"),
            "--worker-procs" => worker_procs = numeric(&mut args, "--worker-procs") as usize,
            "--worker-bin" => worker_bin = args.next(),
            other => {
                eprintln!("unknown argument: {other}");
                std::process::exit(2);
            }
        }
    }
    if refresh_baseline && baseline_path.is_none() {
        eprintln!("--refresh-baseline requires --baseline PATH");
        std::process::exit(2);
    }
    if let Some(dir) = checkpoint_dir {
        run_resumable(
            &dir,
            resume,
            &resume_workload,
            ckpt_every,
            ckpt_max_schedules,
            ckpt_stall_us,
        );
        return;
    }

    println!("# exp_sim_throughput — step VM, explorer modes, world reuse, parallel scaling");
    println!();
    println!("## VM throughput (20k steps/proc; per-run setup amortised)");
    let mut rows = Vec::new();
    let mut throughput = Vec::new();
    for (name, cfg) in [
        ("full", RunConfig::full()),
        ("traced", RunConfig::traced()),
        ("counted", RunConfig::counted()),
    ] {
        // Warm-up pass stabilises allocator and stack-pool state.
        let _ = measure(cfg, 20_000, 2);
        let vm = measure(cfg, 20_000, 40);
        rows.push(vec![name.to_string(), format!("{} steps/s", human(vm))]);
        throughput.push((name.to_string(), vm));
    }
    print_table(&["recording", "step VM"], &rows);

    // The sl-analyze op-pair certificates the optimal-DPOR rows
    // consume: probed once per process count, reused across workloads
    // (each run builds its own runtime form for per-workload
    // telemetry).
    let aba_cert2 = sl_analyze::aba_certificate(2);
    let aba_cert3 = sl_analyze::aba_certificate(3);

    let workloads = vec![
        run_pinned_workload("aba_1w1r", max_threads, &aba_cert2),
        run_pinned_workload("aba_2w2r", max_threads, &aba_cert2),
    ];
    let mixed = vec![
        run_mixed_workload(
            "aba_mixed3",
            "writers p0,p1 + reader p2, 1 op each",
            &aba_cert3,
        ),
        run_mixed_workload(
            "aba_mixed3_deep",
            "writers p0 (2 ops), p1 (1 op) + reader p2 — the sim-deep model-check workload",
            &aba_cert3,
        ),
    ];

    println!();
    println!("## Checkpoint overhead (aba_mixed3_deep, optimal DPOR, default policy cadence)");
    let ckpt_ratio = measure_ckpt_overhead(5);
    println!(
        "(checkpointed/plain throughput ratio {ckpt_ratio:.3} — best-of-5 interleaved pairs; \
         1.0 = free, the gate floor is min_ckpt_ratio)"
    );

    // Distributed-overhead row: the same deep workload farmed to a
    // fleet of worker processes, gated against min_dist_ratio.
    let mut dist_row: Option<(usize, f64)> = None;
    if worker_procs > 0 {
        let bin = worker_bin.unwrap_or_else(|| {
            let mut p = std::env::current_exe().expect("current_exe");
            p.set_file_name("dist_worker");
            p.to_string_lossy().into_owned()
        });
        println!();
        println!(
            "## Distributed exploration (aba_mixed3_deep, optimal DPOR, {worker_procs} worker \
             processes)"
        );
        let (seq_s, dist_s, ratio) = measure_distributed(worker_procs, &bin);
        println!(
            "(sequential {seq_s:.2}s -> distributed {dist_s:.2}s; wall-clock ratio {ratio:.2} — \
             bit-identical counters, verdict, and merged-DAG hash asserted; gate floor \
             min_dist_ratio)"
        );
        dist_row = Some((worker_procs, ratio));
    }

    if let Some(path) = &certificates_path {
        write_certificates(path);
    }

    let json = to_json(&throughput, &workloads, &mixed, ckpt_ratio, dist_row);
    if let Some(path) = &json_path {
        baseline::atomic_write(path, &json);
        println!();
        println!("(summary written to {path})");
    }

    let loaded = baseline_path.as_deref().map(Baseline::load);
    if let Some(path) = &summary_md_path {
        let md = summary_markdown(loaded.as_ref(), &throughput, &workloads, &mixed);
        std::fs::write(path, md).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("(markdown summary written to {path})");
    }

    if refresh_baseline {
        // Rewrite the baseline from this run's measurements, keeping
        // the gate thresholds (recorded ones when present, defaults
        // otherwise) — no hand-editing of recorded counts.
        let b = loaded
            .as_ref()
            .expect("--refresh-baseline implies --baseline");
        let threshold =
            |key: &str, default: f64| (b.number(key).unwrap_or(default) * 100.0).round() / 100.0;
        let gates = [
            ("min_reuse_speedup", threshold("min_reuse_speedup", 1.0)),
            ("min_speedup_4w", threshold("min_speedup_4w", 2.0)),
            ("min_speedup_8w", threshold("min_speedup_8w", 3.0)),
            ("min_ckpt_ratio", threshold("min_ckpt_ratio", 0.95)),
            ("min_dist_ratio", threshold("min_dist_ratio", 0.2)),
        ];
        baseline::refresh(
            baseline_path.as_deref().unwrap(),
            BASELINE_COMMENT,
            &gates,
            &json,
        );
        // The certificate catalog checked in next to the baseline is
        // regenerated with it, so the two artifacts never drift.
        let sibling = std::path::Path::new(baseline_path.as_deref().unwrap())
            .with_file_name("certificates.json");
        write_certificates(&sibling.to_string_lossy());
        return;
    }

    if let Some(b) = &loaded {
        let mut gate = Gate::new();
        for w in &workloads {
            // The oracle explores every schedule: its count is the size
            // of the schedule tree, so a change either way is a bug.
            match b.workload_count(w.name, "unpruned_replayed") {
                Some(recorded) if recorded == w.unpruned_replayed => println!(
                    "baseline ok: {} unpruned schedules measured {recorded} == recorded",
                    w.name
                ),
                recorded => gate.fail(&format!(
                    "{} unpruned schedules: measured {}, recorded {recorded:?} (the oracle \
                     must replay exactly the recorded schedule tree)",
                    w.name, w.unpruned_replayed
                )),
            }
            // Schedule counts are deterministic: any increase is a
            // partial-order-reduction regression, for the syntactic
            // and the refined relation alike.
            gate.count_not_above(
                &format!("{} source-DPOR schedules", w.name),
                w.dpor_replayed,
                b.workload_count(w.name, "dpor_replayed"),
            );
            gate.count_not_above(
                &format!("{} optimal-DPOR schedules", w.name),
                w.optimal_dpor_replayed,
                b.workload_count(w.name, "optimal_dpor_replayed"),
            );
            if w.optimal_cut != 0 {
                gate.fail(&format!(
                    "optimal DPOR cut {} replays on {} (wakeup sequences must keep \
                     exploration cut-free)",
                    w.optimal_cut, w.name
                ));
            }
        }
        for m in &mixed {
            gate.count_not_above(
                &format!("{} source-DPOR schedules", m.name),
                m.dpor_replayed,
                b.workload_count(m.name, "dpor_replayed"),
            );
            gate.count_not_above(
                &format!("{} optimal-DPOR schedules", m.name),
                m.optimal_dpor_replayed,
                b.workload_count(m.name, "optimal_dpor_replayed"),
            );
            if m.optimal_cut != 0 {
                gate.fail(&format!(
                    "optimal DPOR cut {} replays on {} (wakeup sequences must keep \
                     exploration cut-free)",
                    m.optimal_cut, m.name
                ));
            }
            if m.static_unattributed != 0 {
                gate.fail(&format!(
                    "{} dynamic races escaped op-pair attribution on {} (traced mixed-role \
                     replays must attribute every race to a register and op pair)",
                    m.static_unattributed, m.name
                ));
            }
            // The op-pair relaxations must strictly beat the optimal-DPOR
            // counts recorded before the pair matrix existed (the
            // per-register-certificate era); these floors are frozen, not
            // read from the refreshable baseline.
            for (name, floor) in [("aba_mixed3", 660usize), ("aba_mixed3_deep", 26_638)] {
                if m.name == name && m.optimal_dpor_replayed >= floor {
                    gate.fail(&format!(
                        "op-pair commutation no longer improves {name}: optimal DPOR replayed \
                         {} schedules, but the per-register certificate alone already reached \
                         {floor}",
                        m.optimal_dpor_replayed
                    ));
                }
            }
        }
        // Certificate freshness: the catalog checked in next to the
        // baseline must be regenerable bit-for-bit by the current probe
        // and serializer, and must parse fail-closed. A drift means
        // someone changed the probe, the format, or an algorithm's
        // footprint without running --refresh-baseline.
        let sibling = std::path::Path::new(baseline_path.as_deref().unwrap())
            .with_file_name("certificates.json");
        match std::fs::read_to_string(&sibling) {
            Ok(checked_in) => {
                if let Err(e) = sl_analyze::catalog_from_json(&checked_in) {
                    gate.fail(&format!(
                        "checked-in certificate catalog {} does not parse: {e}",
                        sibling.display()
                    ));
                } else if checked_in != certificates_catalog_json() {
                    gate.fail(&format!(
                        "checked-in certificate catalog {} is stale: regenerating from the \
                         current probe produced a different artifact; run \
                         exp_sim_throughput --refresh-baseline and commit the result",
                        sibling.display()
                    ));
                } else {
                    println!(
                        "baseline ok: certificate catalog {} is fresh and parses fail-closed",
                        sibling.display()
                    );
                }
            }
            Err(e) => gate.fail(&format!(
                "certificate catalog {} is unreadable: {e}",
                sibling.display()
            )),
        }
        // Checkpointing must stay within its overhead budget on the
        // deep mixed-role workload — the tier the checkpoint exists
        // for. Below min_ckpt_ratio the snapshot cadence is eating the
        // exploration, not insuring it.
        gate.speedup_at_least(
            "checkpointed exploration throughput on aba_mixed3_deep",
            ckpt_ratio,
            b.number("min_ckpt_ratio"),
        );
        // Multi-process distribution must stay within its overhead
        // budget on the same deep workload (frame serialization, DAG
        // shard symbolization, and lease round trips are the cost;
        // min_dist_ratio is the floor the wall-clock ratio may not
        // sink below).
        match dist_row {
            Some((procs, ratio)) => gate.speedup_at_least(
                &format!(
                    "distributed exploration throughput on aba_mixed3_deep ({procs} worker procs)"
                ),
                ratio,
                b.number("min_dist_ratio"),
            ),
            None => {
                gate.skip("distributed overhead gate skipped: run with --worker-procs N to measure")
            }
        }
        // Wall-clock gates run on the bigger pinned workload
        // (aba_2w2r); the tiny one is all setup noise.
        if let Some(w) = workloads.iter().find(|w| w.name == "aba_2w2r") {
            gate.speedup_at_least(
                &format!("world-reuse speedup on {}", w.name),
                w.reuse_speedup,
                b.number("min_reuse_speedup"),
            );
            // Parallel-scaling gates: each threshold is enforced only
            // on machines with at least that many real CPUs (so a
            // 4-vCPU CI runner still enforces the 4-worker point; the
            // 8-worker point needs a larger runner).
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            for (key, threads) in [("min_speedup_4w", 4usize), ("min_speedup_8w", 8usize)] {
                match w.scaling.iter().find(|p| p.threads == threads) {
                    Some(p) if cores >= threads => gate.speedup_at_least(
                        &format!("{threads}-worker speedup on {}", w.name),
                        p.speedup,
                        b.number(key),
                    ),
                    _ => gate.skip(&format!(
                        "{threads}-worker speedup gate skipped: {cores} CPUs available, \
                         curve capped at {} threads",
                        w.scaling.last().map(|p| p.threads).unwrap_or(1)
                    )),
                }
            }
        }
        if gate.regressed() {
            std::process::exit(1);
        }
    }
}

/// One checkpointed (or resumed) counts-only optimal-DPOR exploration
/// of a pinned workload, for the out-of-process crash-resilience
/// harness. Prints the outcome as a one-line `RESUME_SUMMARY {json}` —
/// the artifact `resume_kill.rs` compares across kill-and-resume runs.
fn run_resumable(
    dir: &str,
    resume: bool,
    workload: &str,
    every: u64,
    max_schedules: Option<u64>,
    stall_us: u64,
) {
    if !matches!(workload, "aba_mixed3" | "aba_mixed3_deep") {
        eprintln!("unknown --resume-workload {workload} (aba_mixed3 | aba_mixed3_deep)");
        std::process::exit(2);
    }
    let w = Pinned::new(workload);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {dir}: {e}"));
    let store = CheckpointStore::new(dir, workload);
    if !resume {
        // A fresh run must not silently continue someone else's state.
        store.clear();
    }
    let cfg = dist_config(PruneMode::OptimalDpor, sl_sim::env_workers());
    let session = ResumeSession {
        policy: CheckpointPolicy {
            every_replays: every,
            max_schedules,
            deadline: None,
        },
        fault: FaultPlan::from_env().map(Arc::new),
        ..ResumeSession::new(&store)
    };
    let out = cfg.explorer().explore_resumable(
        || w.world(),
        |world, driver| {
            if stall_us > 0 {
                std::thread::sleep(std::time::Duration::from_micros(stall_us));
            }
            w.replay(world, driver, cfg.step_budget);
        },
        &session,
    );
    println!(
        "RESUME_SUMMARY {{\"workload\": \"{}\", \"workers\": {}, \"runs\": {}, \
         \"cut_runs\": {}, \"pruned\": {}, \"retried\": {}, \"quarantined\": {}, \
         \"drained\": {}, \"partial\": {}, \"exhausted\": {}}}",
        workload,
        cfg.workers,
        out.runs,
        out.cut_runs,
        out.pruned,
        out.retried,
        out.quarantined,
        out.drained,
        out.partial,
        out.exhausted,
    );
}

/// Wall-clock ratio of checkpointed vs plain optimal-DPOR exploration
/// of `aba_mixed3_deep` (counts-only, one worker): best-of-`reps`
/// interleaved pairs, so allocator and frequency drift hit both sides
/// alike. Returns `best_plain / best_checkpointed` — 1.0 means free,
/// 0.95 means checkpointing costs ~5%.
fn measure_ckpt_overhead(reps: u32) -> f64 {
    let workload = "aba_mixed3_deep";
    let w = Pinned::new(workload);
    let cfg = dist_config(PruneMode::OptimalDpor, 1);
    let explorer = cfg.explorer();
    let new_ctx = || w.world();
    let runner = |world: &mut PooledWorld<ASpec, Aba>, driver: &mut ScheduleDriver| {
        w.replay(world, driver, cfg.step_budget)
    };
    let dir = std::env::temp_dir().join(format!("sl-ckpt-overhead-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = CheckpointStore::new(&dir, workload);
    let (mut best_plain, mut best_ckpt) = (f64::MAX, f64::MAX);
    for _ in 0..reps {
        let start = Instant::now();
        let plain = explorer.explore_with(new_ctx, runner);
        best_plain = best_plain.min(start.elapsed().as_secs_f64());
        assert!(plain.exhausted, "overhead reference must exhaust");
        store.clear();
        // The gate measures the default policy — the cadence every
        // resumable caller gets unless they opt into a denser one.
        let session = ResumeSession {
            policy: CheckpointPolicy::default(),
            ..ResumeSession::new(&store)
        };
        let start = Instant::now();
        let ckpt = explorer.explore_resumable(new_ctx, runner, &session);
        best_ckpt = best_ckpt.min(start.elapsed().as_secs_f64());
        assert!(ckpt.exhausted, "checkpointed overhead run must exhaust");
        assert_eq!(
            (ckpt.runs, ckpt.cut_runs, ckpt.pruned),
            (plain.runs, plain.cut_runs, plain.pruned),
            "checkpointing must not change what gets explored"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    best_plain / best_ckpt
}

/// The `sl-analyze` certificate catalog: every family × substrate the
/// facade exposes at 2 processes, plus the 3-process Algorithm-2
/// certificate the mixed-role optimal-DPOR rows consume. One producer
/// for both the written artifact and the freshness comparison.
fn certificates_catalog_json() -> String {
    let mut certs = sl_analyze::catalog(2);
    certs.push(sl_analyze::aba_certificate(3));
    sl_analyze::catalog_json(&certs)
}

/// Sequential vs distributed wall clock on the deep mixed-role
/// workload under optimal DPOR: the same exploration once in-process
/// single-threaded and once with subtree tasks leased to `procs`
/// worker processes (the `dist_worker` binary at `bin`). Bit-identity
/// — counters and merged-DAG structural hash — is asserted, so the
/// ratio measures pure distribution overhead, never divergence.
/// Returns `(seq_s, dist_s, seq_s / dist_s)`.
fn measure_distributed(procs: usize, bin: &str) -> (f64, f64, f64) {
    let workload = "aba_mixed3_deep";
    let w = Pinned::new(workload);
    let mode = PruneMode::OptimalDpor;
    let (seq, seq_s) = timed(|| w.explore_dag(&dist_config(mode, 1)));
    let fleet = FleetConfig {
        worker_cmd: vec![
            bin.to_string(),
            "--workload".to_string(),
            workload.to_string(),
            "--mode".to_string(),
            mode.name().to_string(),
        ],
        workers: procs,
        ..FleetConfig::default()
    };
    let (dist, dist_s) = timed(|| {
        explore_object_dag_distributed::<ASpec, _, _, _>(
            w.factory(),
            &w.ops,
            drive,
            &dist_config(mode, procs.max(2)),
            fleet,
            workload,
        )
    });
    assert!(
        !dist.fleet.degraded,
        "fleet degraded: worker binary {bin} unusable"
    );
    assert!(
        dist.fleet.completed > 0,
        "the distributed path never engaged"
    );
    assert_eq!(
        (seq.outcome.runs, seq.outcome.cut_runs, seq.outcome.pruned),
        (
            dist.outcome.runs,
            dist.outcome.cut_runs,
            dist.outcome.pruned
        ),
        "distributed counters diverged from sequential"
    );
    assert_eq!(
        seq.dag.symbolize().structural_hash(),
        dist.dag.structural_hash(),
        "distributed merged DAG diverged from sequential"
    );
    (seq_s, dist_s, seq_s / dist_s)
}

fn write_certificates(path: &str) {
    baseline::atomic_write(path, &certificates_catalog_json());
    println!("(certificate catalog written to {path})");
}

/// Header comment written into refreshed baselines.
const BASELINE_COMMENT: &str = "Reference numbers for the exp_sim_throughput --baseline gate, \
written by --refresh-baseline. The gate enforces: unpruned_replayed exactly per pinned workload \
(the oracle explores every schedule), dpor_replayed and optimal_dpor_replayed per workload \
(schedule counts are deterministic — any increase is a partial-order-reduction regression), zero \
optimal-DPOR cut replays (wakeup sequences must keep eliminating sleep-set-blocked runs), optimal \
strictly below the frozen per-register-era floors (660 / 26638) with zero unattributed races on \
the mixed-role workloads (the op-pair commutation matrix must keep pruning and attributing), \
certificates.json next to this file byte-identical to a fresh regeneration (probe/format drift \
must go through --refresh-baseline), min_reuse_speedup (single-worker pooled-vs-fresh wall \
clock on aba_2w2r, best-of-3, identical ingestion pipelines both sides; a 1.0 floor so the gate \
only catches pooling becoming an outright pessimization), min_speedup_4w / min_speedup_8w \
(4-/8-worker wall-clock speedups on aba_2w2r, each checked only on machines with at least that \
many CPUs), min_ckpt_ratio (best-of-5 interleaved plain-vs-checkpointed optimal-DPOR wall clock \
on aba_mixed3_deep; a 0.95 floor caps checkpointing overhead at ~5%), and min_dist_ratio \
(sequential-vs-distributed wall clock on aba_mixed3_deep with --worker-procs N worker processes \
behind the sl-dist lease coordinator, bit-identity asserted; a 0.2 floor caps the \
frame/lease/symbolization overhead at 5x — measured only when --worker-procs is given). The \
static_relaxed / static_validated counts are the optimal-DPOR run's certificate telemetry. \
Timing fields other than the gates are informational snapshots of the reference container.";
