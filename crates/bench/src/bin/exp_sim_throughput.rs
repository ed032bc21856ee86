//! Step-VM throughput, explorer schedule counts, world-reuse and
//! parallel-scaling curves, checkpoint overhead, and checker time.
//!
//! The experiment captures the quantities that bound exhaustive
//! model-checking depth:
//!
//! * **schedules replayed** per explorer mode (the unpruned oracle,
//!   source-set DPOR over the syntactic relation, and optimal DPOR over
//!   the refined relation with the `sl-analyze` certificate) on pinned
//!   Algorithm-2 workloads — the win of partial-order reduction;
//! * **replay throughput**: fresh-world-per-schedule vs the pooled
//!   `SimWorld::reset` path (world reuse), and the parallel scaling
//!   curve of partitioned source-DPOR at 1/2/4/8 workers, capped at the
//!   machine's CPUs (more workers than cores measures the machine);
//! * **checker time**, memoised vs unmemoised;
//! * **checkpoint overhead**: nine pairs of plain and checkpointed
//!   optimal-DPOR explorations of `aba_mixed3_deep` under the default
//!   checkpoint policy, alternating which side runs first; the reading
//!   is the median per-pair ratio `plain / checkpointed` (1.0 = free),
//!   and its gate line lists all nine ratios beside it.
//!
//! Every measured quantity is one `Row` of a metric table: a pinned
//! workload (or none), a key, a value with its print precision, and a
//! `Check`. The run prints the table as markdown; `--json PATH` writes
//! it as the JSON summary (the artifact the sim-deep CI job uploads),
//! `--summary-md PATH` as a markdown before/after table (its step
//! summary), and `--baseline PATH` judges every row against the
//! recorded baseline and exits non-zero on any failure: an unpruned
//! count off the recorded one (`Exact`), a source- or optimal-DPOR
//! count above it (`NotAbove`) or, on the mixed-role workloads, at the
//! frozen floors 660 / 26 638 (`BelowFloor`), a cut replay or an
//! unattributed race (`Zero`), a wall-clock ratio below
//! `min_reuse_speedup`, `min_ckpt_ratio`, `min_dist_ratio` or
//! `min_speedup_4w`/`8w` (`AtLeast`; a scaling point only on machines
//! with that many CPUs), a gated count the baseline lacks, or a
//! checked-in certificate catalog whose bytes differ from a fresh
//! regeneration (stale).
//! `--refresh-baseline` rewrites the baseline from this run (gate
//! thresholds preserved) and regenerates the `certificates.json` next
//! to it; `--certificates PATH` writes the catalog elsewhere.
//!
//! **Crash-resilient mode** (`--checkpoint-dir DIR`): instead of the
//! measurement suite, run one checkpointed optimal-DPOR exploration of
//! `aba_mixed3` (counts-only, workers from `SL_EXPLORE_THREADS`) and
//! print its outcome as a one-line `RESUME_SUMMARY {json}`. `--resume`
//! continues from an existing checkpoint in DIR (without it any stale
//! checkpoint is cleared); `--ckpt-every N` sets the snapshot cadence
//! in root replays, `--ckpt-max-schedules N` drains after a schedule
//! budget, and `--ckpt-stall-us U` slows each replay (so the
//! out-of-process SIGKILL-and-resume test can land its kill
//! mid-exploration). `SL_FAULT_POINT`/`SL_FAULT_NTH`/`SL_FAULT_MODE`
//! seed deterministic fault injection (see `sl_sim::FaultPlan::from_env`).
//! The resumed run's summary is bit-identical to an uninterrupted one —
//! gated by `crates/bench/tests/resume_kill.rs` and the sim-resume CI
//! lane.
//!
//! **Distributed mode** (`--worker-procs N`): additionally runs one
//! sequential and one distributed optimal-DPOR exploration of
//! `aba_mixed3_deep`, the latter through `sl-dist`'s lease-based
//! coordinator over N real worker *processes* (the `dist_worker` binary
//! next to this one). Bit-identity of counters, verdict, and the
//! merged-DAG structural hash is asserted inside the measurement;
//! `--baseline` gates the sequential/distributed wall-clock ratio
//! against `min_dist_ratio` (0.2 — frame/lease/symbolization overhead
//! may cost at most 5x). On a one-CPU host the ratio read 0.72–0.81; on
//! a 2-vCPU host `--worker-procs 2` reads 0.92–1.39 (median of ten runs
//! about 1.15), so two processes break even on two cores. The sim-dist
//! CI lane runs this plus the fault-matrix identity suite
//! (`crates/bench/tests/dist_identity.rs`).

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sl_analyze::Certificate;
use sl_api::sim::{
    explore_object_dag_distributed, explore_object_dag_with, programs_for, DriveOps as _,
    ExploredDag, PooledWorld, SimExplore,
};
use sl_api::{ObjectBuilder, SharedObject};
use sl_bench::workloads::{dist_config, dist_ops, ASpec};
use sl_bench::{baseline, Baseline, Gate};
use sl_check::{
    check_strongly_linearizable_dag, check_strongly_linearizable_unmemoised, DagShards,
    HistoryTree, TreeBuilder, TreeDag, TreeStep,
};
use sl_core::aba::SlAbaRegister;
use sl_dist::FleetConfig;
use sl_mem::{Mem, Register};
use sl_sim::wire::{push_str, Json};
use sl_sim::{
    CheckpointPolicy, CheckpointStore, EventLog, ExploreOutcome, FaultPlan, Program, PruneMode,
    ResumeSession, RoundRobin, RunConfig, ScheduleDriver, Sharded, SimMem, SimWorld,
};
use sl_spec::{AbaOp, AbaResp};
use Check::{AtLeast, BelowFloor, Exact, Info, NotAbove, Zero};

/// The largest worker count of the parallel-scaling curve (powers of
/// two from 1, capped at the machine's CPUs).
const MAX_THREADS: usize = 8;
/// The pinned workload the crash-resilient mode explores.
const RESUME_WORKLOAD: &str = "aba_mixed3";
/// The pinned workload the world-reuse and scaling gates run on (the
/// tiny one is all setup noise).
const WALL_CLOCK_WORKLOAD: &str = "aba_2w2r";
/// Plain/checkpointed pairs behind the checkpoint-overhead reading.
const CKPT_PAIRS: usize = 9;
/// The baseline's gate thresholds, in file order, with the defaults
/// `--refresh-baseline` writes for one the baseline lacks.
const THRESHOLDS: [(&str, f64); 5] = [
    ("min_reuse_speedup", 1.0),
    ("min_speedup_4w", 2.0),
    ("min_speedup_8w", 3.0),
    ("min_ckpt_ratio", 0.95),
    ("min_dist_ratio", 0.2),
];

/// How the `--baseline` gate judges a row.
#[derive(Clone, Copy)]
enum Check {
    /// Equal to the recorded count.
    Exact,
    /// Not above the recorded count.
    NotAbove,
    /// Exactly zero.
    Zero,
    /// Not above the recorded count, and strictly below a frozen floor
    /// (not read from the refreshable baseline).
    BelowFloor(u64),
    /// At least the baseline's threshold of this name; judged only on
    /// machines with at least this many CPUs.
    AtLeast(&'static str, usize),
    /// Reported, not gated.
    Info,
}

/// A measured value.
#[derive(Debug)]
enum Value {
    Count(u64),
    Flag(bool),
    /// A real, printed with this many decimals.
    Real(f64, usize),
    /// Not measured in this run, and why: left out of the JSON summary,
    /// its gate skipped.
    Absent(String),
}

fn count(n: usize) -> Value {
    Value::Count(n as u64)
}

impl Value {
    fn number(&self) -> Option<f64> {
        match *self {
            Value::Count(n) => Some(n as f64),
            Value::Real(x, _) => Some(x),
            Value::Flag(_) | Value::Absent(_) => None,
        }
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::Count(n) => write!(f, "{n}"),
            Value::Flag(b) => write!(f, "{b}"),
            Value::Real(x, prec) => write!(f, "{x:.prec$}", prec = *prec),
            Value::Absent(_) => f.write_str("—"),
        }
    }
}

/// One measured quantity of the metric table.
struct Row {
    /// The pinned workload it belongs to; `None` at the top level.
    workload: Option<&'static str>,
    /// Key path inside the workload's summary entry (or the top level):
    /// `.` nests, and numeric segments number the items of an array.
    key: String,
    value: Value,
    check: Check,
    /// Words for the markdown table and gate messages (else the key).
    label: Option<&'static str>,
    /// The readings behind the value, printed beside it on the gate
    /// line (the per-pair ratios behind a median).
    detail: Option<String>,
}

impl Row {
    fn new(workload: Option<&'static str>, key: &str, value: Value, check: Check) -> Row {
        let key = key.to_string();
        Row {
            workload,
            key,
            value,
            check,
            label: None,
            detail: None,
        }
    }

    fn labelled(mut self, label: &'static str) -> Row {
        self.label = Some(label);
        self
    }

    fn detailed(mut self, detail: String) -> Row {
        self.detail = Some(detail);
        self
    }

    fn name(&self) -> String {
        let label = self.label.unwrap_or(&self.key);
        match self.workload {
            Some(w) => format!("{w} {label}"),
            None => label.to_string(),
        }
    }

    fn measured(&self) -> u64 {
        match self.value {
            Value::Count(n) => n,
            ref v => panic!("{}: a count check on {v:?}", self.name()),
        }
    }

    /// The value `b` records for this row, where a baseline can hold
    /// one: a workload's count, or a top-level number (one object deep).
    fn recorded(&self, b: &Baseline) -> Option<f64> {
        match (self.workload, &self.value) {
            (Some(w), Value::Count(_)) => b.workload_count(w, &self.key).map(|n| n as f64),
            (Some(_), _) => None,
            (None, _) => match self.key.split_once('.') {
                Some((object, key)) => b.number_in(object, key),
                None => b.number(&self.key),
            },
        }
    }
}

/// Judges every row's check against the baseline `b` on a machine
/// with `cpus` CPUs.
fn judge(rows: &[Row], b: &Baseline, cpus: usize, gate: &mut Gate) {
    for row in rows {
        let name = row.name();
        let recorded = row.recorded(b).map(|r| r as usize);
        let n = || row.measured() as usize;
        match row.check {
            Exact if recorded == Some(n()) => println!("baseline ok: {name} == recorded {}", n()),
            Exact => gate.fail(&format!("{name}: measured {}, recorded {recorded:?}", n())),
            NotAbove => gate.count_not_above(&name, n(), recorded),
            BelowFloor(floor) => {
                gate.count_not_above(&name, n(), recorded);
                if n() as u64 >= floor {
                    gate.fail(&format!("{name}: {} is not below the frozen {floor}", n()));
                }
            }
            Zero if n() != 0 => gate.fail(&format!("{name}: measured {}, must be 0", n())),
            AtLeast(min, need) => match &row.value {
                _ if cpus < need => gate.skip(&format!(
                    "{name} gate skipped: {cpus} CPUs available, {need} needed"
                )),
                Value::Absent(why) => gate.skip(&format!("{name} gate skipped: {why}")),
                v => {
                    let x = v.number().expect("a threshold check on a number");
                    let what = match &row.detail {
                        Some(detail) => format!("{name} ({min}; {detail})"),
                        None => format!("{name} ({min})"),
                    };
                    gate.speedup_at_least(&what, x, b.number(min))
                }
            },
            Zero | Info => {}
        }
    }
}

/// The `--json` summary: top-level rows as fields, then each
/// workload's rows as one `workloads` item (its `name` first).
fn to_json(rows: &[Row]) -> String {
    let (mut top, mut current, mut item) = (Vec::new(), None, 0);
    for row in rows {
        let leaf = match row.value {
            Value::Count(n) => Json::Num(n),
            Value::Flag(b) => Json::Bool(b),
            Value::Real(..) => Json::Dec(row.value.to_string()),
            Value::Absent(_) => continue,
        };
        let mut path = Vec::new();
        if let Some(w) = row.workload {
            item += usize::from(current.is_some_and(|c| c != w));
            path = vec![
                "workloads".to_string(),
                item.to_string(),
                "name".to_string(),
            ];
            if current.replace(w) != Some(w) {
                insert(&mut top, &path, Json::Str(w.into()));
            }
            path.pop();
        }
        path.extend(row.key.split('.').map(str::to_string));
        insert(&mut top, &path, leaf);
    }
    let mut out = String::new();
    pretty(&mut out, &Json::Obj(top), 0);
    out.push('\n');
    out
}

/// Inserts `leaf` at `path` under `fields`, extending the object the
/// previous row opened there or opening a new one.
fn insert(fields: &mut Vec<(String, Json)>, path: &[String], leaf: Json) {
    let (key, rest) = path.split_first().expect("a non-empty key");
    if rest.is_empty() {
        return fields.push((key.clone(), leaf));
    }
    if fields.last().is_none_or(|(k, _)| k != key) {
        fields.push((key.clone(), Json::Obj(Vec::new())));
    }
    match fields.last_mut() {
        Some((_, Json::Obj(inner))) => insert(inner, rest, leaf),
        _ => panic!("key {key:?} is both a value and an object"),
    }
}

/// Renders `v` in the summary's layout: an object whose keys are item
/// numbers as an array, and containers down to depth 2 one member per
/// line, deeper ones inline.
fn pretty(out: &mut String, v: &Json, depth: usize) {
    let Json::Obj(fields) = v else {
        return v.render(out);
    };
    let array = fields.first().is_some_and(|f| f.0.parse::<u32>().is_ok());
    let (lines, indent) = (depth <= 2, "  ".repeat(depth));
    out.push(if array { '[' } else { '{' });
    for (i, (key, member)) in fields.iter().enumerate() {
        out.push_str(match (i, lines) {
            (0, _) => "",
            (_, true) => ",",
            (_, false) => ", ",
        });
        if lines {
            let _ = write!(out, "\n{indent}  ");
        }
        if !array {
            push_str(out, key);
            out.push_str(": ");
        }
        pretty(out, member, depth + 1);
    }
    if lines {
        let _ = write!(out, "\n{indent}");
    }
    out.push(if array { ']' } else { '}' });
}

/// The markdown before/after table (the sim-deep CI job's step
/// summary): one line per row, recorded baseline vs this run.
/// Consecutive rows with one label share a line, differing cells
/// joined by ` / `.
fn summary_markdown(rows: &[Row], b: Option<&Baseline>) -> String {
    let mut lines: Vec<[String; 4]> = Vec::new();
    for row in rows {
        let recorded = b.and_then(|b| row.recorded(b));
        let note = match (&row.value, recorded, row.value.number()) {
            (Value::Absent(why), ..) => format!("skipped: {why}"),
            (_, Some(r), Some(m)) if r > 0.0 => format!("{:+.1}%", (m - r) / r * 100.0),
            _ => match row.check {
                Exact => "gate == recorded".to_string(),
                NotAbove => "gate <= recorded".to_string(),
                Zero => "gate == 0".to_string(),
                BelowFloor(floor) => format!("gate < {floor}"),
                AtLeast(min, _) => b
                    .and_then(|b| b.number(min))
                    .map_or("—".into(), |m| format!("gate >= {m}x")),
                Info => "informational".to_string(),
            },
        };
        let before = match (recorded, &row.value) {
            (Some(r), Value::Real(_, prec)) => Value::Real(r, *prec).to_string(),
            (Some(r), _) => r.to_string(),
            (None, _) => "—".to_string(),
        };
        let line = [row.name(), before, row.value.to_string(), note];
        match lines.last_mut().filter(|last| last[0] == line[0]) {
            Some(last) => {
                for (cell, new) in last.iter_mut().zip(line).skip(1) {
                    if *cell != new {
                        *cell = format!("{cell} / {new}");
                    }
                }
            }
            None => lines.push(line),
        }
    }
    let mut md = String::from("## Explorer throughput & schedule-count deltas\n\n");
    md.push_str("| metric | baseline | this run | delta |\n|---|---|---|---|\n");
    for line in lines {
        let _ = writeln!(md, "| {} |", line.join(" | "));
    }
    md
}

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

/// The machine's CPU count.
fn cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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

/// What an exploration explored: runs, cut runs, pruned steps.
fn counters(out: &ExploreOutcome) -> (usize, usize, u64) {
    (out.runs, out.cut_runs, out.pruned)
}

/// `f`'s result and its wall clock in seconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The single-worker optimal-DPOR configuration with `cert`'s runtime
/// form installed.
fn certified(cert: &Certificate) -> SimExplore {
    SimExplore {
        statics: Some(Arc::new(cert.static_conflicts())),
        ..dist_config(PruneMode::OptimalDpor, 1)
    }
}

/// Step-VM throughput per recording level.
fn run_vm() -> Vec<Row> {
    println!("\n## VM throughput (20k steps/proc; per-run setup amortised)");
    [
        ("full", RunConfig::full(), "VM steps/s (full)"),
        ("traced", RunConfig::traced(), "VM steps/s (traced)"),
        ("counted", RunConfig::counted(), "VM steps/s (counted)"),
    ]
    .into_iter()
    .map(|(name, cfg, label)| {
        // Warm-up pass stabilises allocator and stack-pool state.
        let _ = measure(cfg, 20_000, 2);
        let vm = Value::Real(measure(cfg, 20_000, 40), 0);
        Row::new(None, &format!("vm_steps_per_sec.{name}"), vm, Info).labelled(label)
    })
    .collect()
}

/// Schedule counts of one mixed-role pinned workload per DPOR mode,
/// and the certificate telemetry of the optimal-DPOR run, which must
/// stay strictly below the frozen `floor`.
fn run_mixed_workload(name: &'static str, floor: u64, cert: &Certificate) -> Vec<Row> {
    println!("\n## Pinned workload `{name}` (Algorithm 2: two writers, one reader)");
    let w = Pinned::new(name);
    // A fresh runtime form per workload: telemetry counters accumulate
    // per `StaticConflicts` instance, and the summary reports them
    // per workload.
    let optimal = certified(cert);
    let [dp, od] = [&dist_config(PruneMode::SourceDpor, 1), &optimal].map(|cfg| {
        let out = w.explore(cfg, |_| {});
        assert!(out.exhausted, "mixed-role pinned workload must exhaust");
        out
    });
    assert_eq!(
        od.cut_runs, 0,
        "optimal DPOR initiated a sleep-set-blocked replay on {name}"
    );
    let t = optimal.statics.as_ref().expect("certified").telemetry();
    let row = |key: &str, value, check| Row::new(Some(name), key, value, check);
    let relaxations = "certificate relaxations (placement, R1, R2) / validated races";
    let (dp_n, od_n) = (dp.schedules_replayed(), od.schedules_replayed());
    vec![
        row("dpor_replayed", count(dp_n), NotAbove),
        row("dpor_runs", count(dp.runs), Info),
        row("optimal_dpor_replayed", count(od_n), BelowFloor(floor)),
        row("optimal_dpor_runs", count(od.runs), Info),
        row("optimal_cut", count(od.cut_runs), Zero).labelled("optimal-DPOR cut replays"),
        row("static_relaxed", Value::Count(t.relaxed), Info).labelled(relaxations),
        row("static_validated", Value::Count(t.validated), Info).labelled(relaxations),
        row("static_unattributed", Value::Count(t.unattributed), Zero)
            .labelled("unattributed races"),
    ]
}

/// Pinned workload: 2-process Algorithm 2 (writer p0, reader p1) — the
/// family the model-check suite exhausts. The source-DPOR row runs the
/// production harness (DAG shards; the DAG is what deep checks
/// consume); the other modes only count schedules. The materialised
/// prefix tree feeding the unmemoised checker oracle comes from one
/// more source-DPOR exploration.
fn run_pinned_workload(name: &'static str, cert: &Certificate) -> Vec<Row> {
    let w = Pinned::new(name);
    let (writes, reads) = (w.ops[0].len(), w.ops[1].len());
    println!("\n## Pinned workload `{name}` (Algorithm 2: {writes} DWrites vs {reads} DReads)");
    let source = dist_config(PruneMode::SourceDpor, 1);
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
    println!(
        "(unpruned {un_t:.2}s, source DPOR {dp_t:.2}s, optimal DPOR {od_t:.2}s; transcript DAG: \
         {} unique shapes for a {}-node prefix tree)",
        dag.unique_nodes(),
        tree.node_count()
    );
    let reduction = un.schedules_replayed() as f64 / dp.schedules_replayed() as f64;

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
        // Every pair explores the source-DPOR run's schedules and DAG.
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
    let gated = name == WALL_CLOCK_WORKLOAD;
    let reuse_check = if gated {
        AtLeast("min_reuse_speedup", 1)
    } else {
        Info
    };
    let row = |key: &str, value, check| Row::new(Some(name), key, value, check);
    let mut rows = vec![
        row("unpruned_replayed", count(un.schedules_replayed()), Exact),
        row("unpruned_exhausted", Value::Flag(un.exhausted), Info),
        row("dpor_replayed", count(dp.schedules_replayed()), NotAbove),
        row("dpor_runs", count(dp.runs), Info),
        row(
            "optimal_dpor_replayed",
            count(od.schedules_replayed()),
            NotAbove,
        ),
        row("optimal_dpor_runs", count(od.runs), Info),
        row("optimal_cut", count(od.cut_runs), Zero).labelled("optimal-DPOR cut replays"),
        row("reduction_vs_unpruned", Value::Real(reduction, 2), Info),
        row("fresh_s", Value::Real(fresh_t, 3), Info),
        row("pooled_s", Value::Real(pooled_t, 3), Info),
        row(
            "reuse_speedup",
            Value::Real(fresh_t / pooled_t, 2),
            reuse_check,
        )
        .labelled("world-reuse speedup"),
    ];

    // Parallel scaling of the pooled explorer at 1, 2, 4, ... workers
    // up to the machine's CPUs; a gated point beyond them is absent.
    let cores = cpus();
    for i in 0..=MAX_THREADS.trailing_zeros() {
        let threads = 1usize << i;
        let key = |field: &str| format!("scaling.{i}.{field}");
        let check = match (gated, threads) {
            (true, 4) => AtLeast("min_speedup_4w", 4),
            (true, 8) => AtLeast("min_speedup_8w", 8),
            _ => Info,
        };
        if threads > cores {
            if !matches!(check, Info) {
                let why = Value::Absent(format!("the curve stops at {cores} CPUs"));
                rows.push(row(&key("speedup"), why, check));
            }
            continue;
        }
        let secs = if threads == 1 {
            pooled_t
        } else {
            let (par, secs) = timed(|| w.explore_dag(&dist_config(PruneMode::SourceDpor, threads)));
            assert_eq!(par.outcome, dp, "{threads}-worker exploration diverged");
            assert_eq!(
                par.dag.structural_hash(),
                dag.structural_hash(),
                "{threads}-worker DAG diverged"
            );
            secs
        };
        let (rate, speedup) = (dp.schedules_replayed() as f64 / secs, pooled_t / secs);
        rows.extend([
            row(&key("threads"), count(threads), Info),
            row(&key("replays_per_sec"), Value::Real(rate, 0), Info),
            row(&key("speedup"), Value::Real(speedup, 2), check),
            row(
                &key("efficiency"),
                Value::Real(speedup / threads as f64, 2),
                Info,
            ),
        ]);
    }

    let spec = ASpec::new(2);
    let (memo, memo_s) = timed(|| check_strongly_linearizable_dag(&spec, &dag));
    let (plain, unmemo_s) = timed(|| check_strongly_linearizable_unmemoised(&spec, &tree));
    assert_eq!(
        memo.holds, plain.holds,
        "memoisation must not change the verdict"
    );
    assert!(
        memo.holds,
        "Algorithm 2 is strongly linearizable (Theorem 12)"
    );
    rows.extend([
        row("checker_memo_ms", Value::Real(memo_s * 1e3, 2), Info),
        row("checker_unmemo_ms", Value::Real(unmemo_s * 1e3, 2), Info),
        row("checker_speedup", Value::Real(unmemo_s / memo_s, 2), Info),
        row("memo_hits", Value::Count(memo.memo_hits), Info),
        row("states_memo", Value::Count(memo.states_explored), Info),
        row("states_unmemo", Value::Count(plain.states_explored), Info),
    ]);
    rows
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut json_path: Option<String> = None;
    let mut baseline_path: Option<String> = None;
    let mut summary_md_path: Option<String> = None;
    let mut certificates_path: Option<String> = None;
    let mut refresh_baseline = false;
    let mut checkpoint_dir: Option<String> = None;
    let mut resume = false;
    let mut ckpt_every: u64 = 50;
    let mut ckpt_max_schedules: Option<u64> = None;
    let mut ckpt_stall_us: u64 = 0;
    let mut worker_procs: usize = 0;
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
            "--checkpoint-dir" => checkpoint_dir = args.next(),
            "--resume" => resume = true,
            "--ckpt-every" => ckpt_every = numeric(&mut args, "--ckpt-every"),
            "--ckpt-max-schedules" => {
                ckpt_max_schedules = Some(numeric(&mut args, "--ckpt-max-schedules"))
            }
            "--ckpt-stall-us" => ckpt_stall_us = numeric(&mut args, "--ckpt-stall-us"),
            "--worker-procs" => worker_procs = numeric(&mut args, "--worker-procs") as usize,
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
        let policy = CheckpointPolicy {
            every_replays: ckpt_every,
            max_schedules: ckpt_max_schedules,
            deadline: None,
        };
        return run_resumable(&dir, resume, policy, ckpt_stall_us);
    }

    println!("# exp_sim_throughput — step VM, explorer modes, world reuse, parallel scaling");
    let vm = run_vm();
    // The sl-analyze op-pair certificates the optimal-DPOR rows
    // consume: probed once per process count, reused across workloads
    // (each run builds its own runtime form for per-workload
    // telemetry).
    let aba_cert2 = sl_analyze::aba_certificate(2);
    let aba_cert3 = sl_analyze::aba_certificate(3);
    let mut workloads = run_pinned_workload("aba_1w1r", &aba_cert2);
    workloads.extend(run_pinned_workload("aba_2w2r", &aba_cert2));
    // The optimal-DPOR counts must strictly beat the frozen floors of
    // the per-register-certificate era (before the op-pair matrix).
    for (name, floor) in [("aba_mixed3", 660), ("aba_mixed3_deep", 26_638)] {
        workloads.extend(run_mixed_workload(name, floor, &aba_cert3));
    }

    println!("\n## Checkpoint overhead (aba_mixed3_deep, optimal DPOR, default policy cadence)");
    let (median, pairs) = measure_ckpt_overhead();
    let (ckpt, ckpt_check) = (Value::Real(median, 3), AtLeast("min_ckpt_ratio", 1));
    let ckpt = Row::new(None, "ckpt_overhead_ratio", ckpt, ckpt_check);
    let mut rows = vec![ckpt.detailed(pair_readings(&pairs))];
    // Distributed-overhead row: the same deep workload farmed to a
    // fleet of worker processes, gated against min_dist_ratio.
    let dist_check = AtLeast("min_dist_ratio", 1);
    if worker_procs > 0 {
        println!(
            "\n## Distributed exploration (aba_mixed3_deep, optimal DPOR, {worker_procs} worker \
             processes)"
        );
        let (procs, ratio) = (count(worker_procs), measure_distributed(worker_procs));
        rows.push(Row::new(None, "dist_worker_procs", procs, Info));
        rows.push(Row::new(
            None,
            "dist_ratio",
            Value::Real(ratio, 3),
            dist_check,
        ));
    } else {
        let why = Value::Absent("run with --worker-procs N to measure".into());
        rows.push(Row::new(None, "dist_ratio", why, dist_check));
    }
    rows.extend(vm);
    rows.extend(workloads);

    if let Some(path) = &certificates_path {
        write_certificates(path);
    }
    let json = to_json(&rows);
    if let Some(path) = &json_path {
        baseline::atomic_write(path, &json);
        println!("(summary written to {path})");
    }
    let loaded = baseline_path.as_deref().map(Baseline::load);
    let md = summary_markdown(&rows, loaded.as_ref());
    println!("\n{md}");
    if let Some(path) = &summary_md_path {
        std::fs::write(path, md).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        println!("(markdown summary written to {path})");
    }
    let (Some(path), Some(b)) = (baseline_path.as_deref(), &loaded) else {
        return;
    };
    let catalog = std::path::Path::new(path).with_file_name("certificates.json");
    let catalog = catalog.to_string_lossy();
    if refresh_baseline {
        // Rewrite the baseline from this run's measurements, keeping
        // the gate thresholds (recorded ones when present, defaults
        // otherwise) — no hand-editing of recorded counts.
        let round = |x: f64| (x * 100.0).round() / 100.0;
        let gates = THRESHOLDS.map(|(key, default)| (key, round(b.number(key).unwrap_or(default))));
        baseline::refresh(path, BASELINE_COMMENT, &gates, &json);
        // The certificate catalog checked in next to the baseline is
        // regenerated with it, so the two artifacts never drift.
        return write_certificates(&catalog);
    }
    let mut gate = Gate::new();
    judge(&rows, b, cpus(), &mut gate);
    judge_certificates(&catalog, &mut gate);
    if gate.regressed() {
        std::process::exit(1);
    }
}

/// Certificate freshness: the catalog at `path` must be byte-identical
/// to a regeneration by the current probe and serializer. A drift
/// means someone changed the probe, the format, or an algorithm's
/// footprint without running --refresh-baseline; a hand-edited,
/// reflowed or torn file reads as stale too.
fn judge_certificates(path: &str, gate: &mut Gate) {
    match std::fs::read_to_string(path) {
        Err(e) => gate.fail(&format!("certificate catalog {path} is unreadable: {e}")),
        Ok(text) if text != certificates_catalog_json() => gate.fail(&format!(
            "checked-in certificate catalog {path} is stale: regenerating from the current \
             probe produced a different artifact; run exp_sim_throughput --refresh-baseline \
             and commit the result"
        )),
        Ok(_) => println!("baseline ok: certificate catalog {path} is fresh"),
    }
}

/// One checkpointed (or resumed) counts-only optimal-DPOR exploration
/// of `aba_mixed3`, for the out-of-process crash-resilience harness,
/// each replay slowed by `stall_us`. Prints the outcome as a one-line
/// `RESUME_SUMMARY {json}` — the artifact `resume_kill.rs` compares
/// across kill-and-resume runs.
fn run_resumable(dir: &str, resume: bool, policy: CheckpointPolicy, stall_us: u64) {
    let w = Pinned::new(RESUME_WORKLOAD);
    std::fs::create_dir_all(dir).unwrap_or_else(|e| panic!("creating {dir}: {e}"));
    let store = CheckpointStore::new(dir, RESUME_WORKLOAD);
    if !resume {
        // A fresh run must not silently continue someone else's state.
        store.clear();
    }
    let cfg = dist_config(PruneMode::OptimalDpor, sl_sim::env_workers());
    let session = ResumeSession {
        policy,
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
        RESUME_WORKLOAD,
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

/// Wall-clock ratio of plain vs checkpointed optimal-DPOR exploration
/// of `aba_mixed3_deep` (counts-only, one worker, the default policy —
/// the cadence every resumable caller gets unless they opt into a
/// denser one): the median of `CKPT_PAIRS` per-pair ratios
/// `plain / checkpointed`, the pairs alternating which side runs
/// first, so warm-up and drift favour neither side and one noisy run
/// moves the median at most one rank. 1.0 means free, 0.95 means
/// checkpointing costs ~5%. Returns the median and the per-pair
/// ratios in the order the pairs ran.
fn measure_ckpt_overhead() -> (f64, Vec<f64>) {
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
    let run = |checkpointed: bool| {
        store.clear();
        let (out, secs) = timed(|| {
            if checkpointed {
                explorer.explore_resumable(new_ctx, runner, &ResumeSession::new(&store))
            } else {
                explorer.explore_with(new_ctx, runner)
            }
        });
        assert!(out.exhausted, "checkpoint overhead runs must exhaust");
        (counters(&out), secs)
    };
    let ratios: Vec<f64> = (0..CKPT_PAIRS)
        .map(|pair| {
            let (first, second) = (run(pair % 2 == 1), run(pair % 2 == 0));
            let ((plain, plain_s), (ckpt, ckpt_s)) = match pair % 2 {
                0 => (first, second),
                _ => (second, first),
            };
            assert_eq!(
                ckpt, plain,
                "checkpointing must not change what gets explored"
            );
            plain_s / ckpt_s
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    let mut sorted = ratios.clone();
    sorted.sort_by(f64::total_cmp);
    (sorted[CKPT_PAIRS / 2], ratios)
}

/// The gate line's account of a median: every pair's ratio, in run
/// order, so a failing log shows whether one pair or all of them moved.
fn pair_readings(pairs: &[f64]) -> String {
    let each: Vec<String> = pairs.iter().map(|r| format!("{r:.3}")).collect();
    format!("median of {} pairs {}", pairs.len(), each.join(" "))
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
/// worker processes (the `dist_worker` binary next to this one).
/// Bit-identity — counters and merged-DAG structural hash — is
/// asserted, so the ratio `seq_s / dist_s` it returns measures pure
/// distribution overhead, never divergence.
fn measure_distributed(procs: usize) -> f64 {
    let workload = "aba_mixed3_deep";
    let w = Pinned::new(workload);
    let mode = PruneMode::OptimalDpor;
    let bin = std::env::current_exe().expect("current_exe");
    let bin = bin
        .with_file_name("dist_worker")
        .to_string_lossy()
        .into_owned();
    let (seq, seq_s) = timed(|| w.explore_dag(&dist_config(mode, 1)));
    let args = [&bin, "--workload", workload, "--mode", mode.name()];
    let fleet = FleetConfig {
        worker_cmd: args.map(String::from).to_vec(),
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
        counters(&seq.outcome),
        counters(&dist.outcome),
        "distributed counters diverged from sequential"
    );
    assert_eq!(
        seq.dag.symbolize().structural_hash(),
        dist.dag.structural_hash(),
        "distributed merged DAG diverged from sequential"
    );
    println!("(sequential {seq_s:.2}s -> distributed {dist_s:.2}s; bit-identity asserted)");
    seq_s / dist_s
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
many CPUs), min_ckpt_ratio (median of 9 plain-vs-checkpointed optimal-DPOR wall-clock pairs on \
aba_mixed3_deep, alternating which side runs first; a 0.95 floor caps checkpointing overhead at \
~5%), and min_dist_ratio (sequential-vs-distributed wall clock on aba_mixed3_deep with \
--worker-procs N worker processes behind the sl-dist lease coordinator, bit-identity asserted; \
a 0.2 floor caps the frame/lease/symbolization overhead at 5x — measured only when \
--worker-procs is given). The static_relaxed / static_validated counts are the optimal-DPOR \
run's certificate telemetry. Timing fields other than the gates are informational snapshots of \
the reference container.";

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{
  "min_reuse_speedup": 1.0,
  "min_speedup_4w": 2.0,
  "min_ckpt_ratio": 0.95,
  "vm_steps_per_sec": {"full": 100},
  "workloads": [
    {"name": "w", "unpruned_replayed": 56, "dpor_replayed": 17, "optimal_dpor_replayed": 10}
  ]
}"#;

    fn row(key: &str, value: Value, check: Check) -> Row {
        Row::new(Some("w"), key, value, check)
    }

    /// Whether the gate fails `row` against [`BASELINE`] on `cpus` CPUs.
    fn fails(row: Row, cpus: usize) -> bool {
        let mut gate = Gate::new();
        judge(&[row], &Baseline::parse(BASELINE).unwrap(), cpus, &mut gate);
        gate.regressed()
    }

    #[test]
    fn every_check_passes_a_good_row_and_fails_a_bad_one() {
        let reuse = AtLeast("min_reuse_speedup", 1);
        let four = AtLeast("min_speedup_4w", 4);
        let cases = [
            // (row, cpus, fails)
            (row("unpruned_replayed", Value::Count(56), Exact), 2, false),
            (row("unpruned_replayed", Value::Count(57), Exact), 2, true),
            (row("unpruned_replayed", Value::Count(55), Exact), 2, true),
            (row("dpor_replayed", Value::Count(17), NotAbove), 2, false),
            (row("dpor_replayed", Value::Count(16), NotAbove), 2, false),
            (row("dpor_replayed", Value::Count(18), NotAbove), 2, true),
            (row("dpor_runs", Value::Count(1), NotAbove), 2, true),
            (
                row("optimal_dpor_replayed", Value::Count(10), BelowFloor(11)),
                2,
                false,
            ),
            (
                row("optimal_dpor_replayed", Value::Count(10), BelowFloor(10)),
                2,
                true,
            ),
            (
                row("optimal_dpor_replayed", Value::Count(11), BelowFloor(99)),
                2,
                true,
            ),
            (
                row("absent_count", Value::Count(1), BelowFloor(99)),
                2,
                true,
            ),
            (row("optimal_cut", Value::Count(0), Zero), 2, false),
            (row("optimal_cut", Value::Count(1), Zero), 2, true),
            (row("static_unattributed", Value::Count(1), Zero), 2, true),
            (row("reuse_speedup", Value::Real(1.3, 2), reuse), 2, false),
            (row("reuse_speedup", Value::Real(0.9, 2), reuse), 2, true),
            (
                row("scaling.2.speedup", Value::Real(2.5, 2), four),
                4,
                false,
            ),
            (row("scaling.2.speedup", Value::Real(1.5, 2), four), 4, true),
            // Fewer CPUs than the point needs: skipped, whatever it reads.
            (
                row("scaling.2.speedup", Value::Real(1.5, 2), four),
                2,
                false,
            ),
            (
                row("scaling.2.speedup", Value::Absent("x".into()), four),
                4,
                false,
            ),
            (
                row("reduction_vs_unpruned", Value::Real(0.0, 2), Info),
                2,
                false,
            ),
        ];
        for (i, (row, cpus, expected)) in cases.into_iter().enumerate() {
            let name = row.name();
            assert_eq!(fails(row, cpus), expected, "case {i}: {name}");
        }
        // Top-level rows read the baseline's top level.
        let ckpt = AtLeast("min_ckpt_ratio", 1);
        let top = |x| Row::new(None, "ckpt_overhead_ratio", Value::Real(x, 3), ckpt);
        assert!(!fails(top(0.96), 1) && fails(top(0.94), 1));
        // The readings behind a median ride along, not into the gate.
        let pairs = pair_readings(&[0.94, 1.0, 0.97]);
        assert_eq!(pairs, "median of 3 pairs 0.940 1.000 0.970");
        assert!(!fails(top(0.97).detailed(pairs), 1));
        // A threshold the baseline lacks is an opt-in gate: skipped.
        let dist = AtLeast("min_dist_ratio", 1);
        assert!(!fails(
            Row::new(None, "dist_ratio", Value::Real(0.0, 3), dist),
            1
        ));
    }

    #[test]
    fn json_nests_rows_in_the_summary_layout() {
        let rows = [
            Row::new(None, "ckpt_overhead_ratio", Value::Real(1.0, 3), Info),
            Row::new(None, "dist_ratio", Value::Absent("x".into()), Info),
            Row::new(None, "vm_steps_per_sec.full", Value::Real(7.4, 0), Info),
            Row::new(None, "vm_steps_per_sec.traced", Value::Real(9.0, 0), Info),
            row("exhausted", Value::Flag(true), Info),
            row("scaling.0.threads", Value::Count(1), Info),
            row("scaling.0.speedup", Value::Real(1.0, 2), Info),
            row("scaling.1.threads", Value::Count(2), Info),
            row("states", Value::Count(5), Info),
            Row::new(Some("v"), "dpor_replayed", Value::Count(3), Info),
        ];
        let expected = r#"{
  "ckpt_overhead_ratio": 1.000,
  "vm_steps_per_sec": {
    "full": 7,
    "traced": 9
  },
  "workloads": [
    {
      "name": "w",
      "exhausted": true,
      "scaling": [{"threads": 1, "speedup": 1.00}, {"threads": 2}],
      "states": 5
    },
    {
      "name": "v",
      "dpor_replayed": 3
    }
  ]
}
"#;
        let json = to_json(&rows);
        assert_eq!(json, expected);
        let b = Baseline::parse(&json).unwrap();
        assert_eq!(b.number_in("vm_steps_per_sec", "traced"), Some(9.0));
        assert_eq!(b.workload_count("v", "dpor_replayed"), Some(3));
    }

    #[test]
    fn markdown_shares_a_line_between_rows_with_one_label() {
        let b = Baseline::parse(BASELINE).unwrap();
        let label = "certificate relaxations (placement, R1, R2) / validated races";
        let rows = [
            row("dpor_replayed", Value::Count(17), NotAbove),
            row("static_relaxed", Value::Count(4), Info).labelled(label),
            row("static_validated", Value::Count(2), Info).labelled(label),
            Row::new(None, "vm_steps_per_sec.full", Value::Real(110.0, 0), Info)
                .labelled("VM steps/s (full)"),
        ];
        let md = summary_markdown(&rows, Some(&b));
        assert!(md.contains("| w dpor_replayed | 17 | 17 | +0.0% |"), "{md}");
        assert!(
            md.contains(&format!("| w {label} | — | 4 / 2 | informational |")),
            "{md}"
        );
        assert!(
            md.contains("| VM steps/s (full) | 100 | 110 | +10.0% |"),
            "{md}"
        );
    }
}
