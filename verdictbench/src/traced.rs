//! The traced run: the `explore_object_dag` + `check_strong` pipeline
//! rebuilt from its public parts, each layer timed from outside by
//! timing the calls the benchmark makes into it.
//!
//! Per-step boundaries (`ScheduleDriver::pick` / `run_end`, one
//! `ReplayPool::replay` and one `DagShards::ingest` per schedule) are
//! summed per worker in the worker's own context instead of recorded
//! one span each; whole phases (set-up, a verdict and its explore,
//! merge and check) are spans. Everything stays in memory until
//! [`Tracer::write`].

use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sl_api::sim::DriveOps;
use sl_api::SharedObject;
use sl_check::{check_strongly_linearizable_dag, DagShards, TreeDag};
use sl_sim::{
    EventLog, Explorer, ProcCtx, Program, ReplayCtx, ReplayPool, SchedView, ScheduleDriver,
    Scheduler, SimMem, SimWorld, TraceItem,
};
use sl_spec::{ProcId, SeqSpec};

use crate::workloads::{Case, Verdict, Workload};

/// Busy time and work counts one explorer worker accumulated during
/// one verdict.
#[derive(Clone, Copy, Debug, Default)]
pub struct WorkerLayers {
    /// Inside `ReplayPool::replay`, minus the scheduler callbacks.
    pub vm: Duration,
    pub replays: u64,
    /// Trace items the VM recorded, as `run_end` sees them.
    pub trace_items: u64,
    /// Inside `ScheduleDriver::pick` and `run_end`.
    pub driver: Duration,
    pub picks: u64,
    /// Inside `DagShards::ingest` (called from the runner).
    pub ingest: Duration,
    /// Inside `DagShards::begin` / `end` (called by the explorer's
    /// subtree hooks, outside the runner).
    pub shard_hooks: Duration,
    /// Inside the runner the explorer calls once per schedule.
    pub runner: Duration,
    /// From the explorer building this worker's context to dropping
    /// it: the worker's whole time inside `Explorer::explore_with`.
    pub alive: Duration,
}

impl WorkerLayers {
    /// The explorer's own time: alive, outside the runner and the
    /// shard hooks (race detection, clocks, wakeup sequences, task
    /// freeze/steal/join, waiting).
    pub fn explore_self(&self) -> Duration {
        self.alive.saturating_sub(self.runner + self.shard_hooks)
    }
}

/// Delegates to the explorer's driver, timing every callback.
struct TimedDriver<'d> {
    inner: &'d mut ScheduleDriver,
    busy: Duration,
    picks: u64,
    trace_items: u64,
}

impl Scheduler for TimedDriver<'_> {
    fn pick(&mut self, view: &SchedView<'_>) -> usize {
        let start = Instant::now();
        let chosen = self.inner.pick(view);
        self.busy += start.elapsed();
        self.picks += 1;
        chosen
    }

    fn run_end(&mut self, trace: &[TraceItem]) {
        let start = Instant::now();
        self.inner.run_end(trace);
        self.busy += start.elapsed();
        self.trace_items += trace.len() as u64;
    }
}

/// One worker's replay state, as `explore_object_dag` builds it, plus
/// the worker's layer accumulators.
struct WorkerCtx<'s, S: SeqSpec, O> {
    pool: ReplayPool<S>,
    obj: O,
    shards: DagShards<'s, S>,
    layers: WorkerLayers,
    born: Instant,
    done: &'s Mutex<Vec<WorkerLayers>>,
}

impl<S: SeqSpec, O> ReplayCtx for WorkerCtx<'_, S, O> {
    fn subtree_begin(&mut self) {
        let start = Instant::now();
        self.shards.begin();
        self.layers.shard_hooks += start.elapsed();
    }

    fn subtree_end(&mut self) {
        let start = Instant::now();
        self.shards.end();
        self.layers.shard_hooks += start.elapsed();
    }
}

impl<S: SeqSpec, O> Drop for WorkerCtx<'_, S, O> {
    fn drop(&mut self) {
        self.layers.alive = self.born.elapsed();
        if let Ok(mut done) = self.done.lock() {
            done.push(self.layers);
        }
    }
}

/// The programs `sl_api::sim` runs for a workload: each process pauses
/// before every operation (the adversary schedules the invocation),
/// then invokes, drives the handle and responds.
fn programs<S, O>(obj: &O, log: &EventLog<S>, ops: &[Vec<S::Op>]) -> Vec<Program>
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    O::Handle: DriveOps<S>,
{
    ops.iter()
        .enumerate()
        .map(|(pid, ops)| {
            let mut handle = obj.handle(ProcId(pid));
            let log = log.clone();
            let ops = ops.clone();
            Box::new(move |ctx: ProcCtx| {
                for op in &ops {
                    ctx.pause();
                    let id = log.invoke(ctx.proc_id(), op.clone());
                    let resp = handle.drive(op);
                    log.respond(id, resp);
                }
            }) as Program
        })
        .collect()
}

/// One traced verdict: what it decided and where its time went.
pub struct Traced {
    pub verdict: Verdict,
    /// One entry per explorer worker.
    pub workers: Vec<WorkerLayers>,
    pub shards: usize,
    pub merge: Duration,
    pub check: Duration,
    /// Certificate relaxations and validated races during this
    /// verdict (0 without a certificate).
    pub relaxed: u64,
    pub validated: u64,
}

impl Traced {
    pub fn sum(&self, f: impl Fn(&WorkerLayers) -> Duration) -> Duration {
        self.workers.iter().map(f).sum()
    }

    pub fn count(&self, f: impl Fn(&WorkerLayers) -> u64) -> u64 {
        self.workers.iter().map(f).sum()
    }
}

/// Explores, merges and checks `w` exactly as `explore_object_dag` and
/// `ExploredDag::check_strong` do, recording the verdict's spans into
/// `tracer`.
pub fn traced_verdict<C: Case>(w: &Workload<C::Spec>, tracer: &mut Tracer) -> Traced {
    let telemetry = || w.cfg.statics.as_ref().map(|s| s.telemetry());
    let before = telemetry();
    let verdict_id = tracer.open();
    let verdict_start = Instant::now();

    let sink: Mutex<Vec<TreeDag<C::Spec>>> = Mutex::new(Vec::new());
    let done: Mutex<Vec<WorkerLayers>> = Mutex::new(Vec::new());
    let explorer = Explorer {
        max_runs: w.cfg.max_runs,
        mode: w.cfg.mode,
        workers: w.cfg.workers,
        stem: w.cfg.stem.clone(),
        statics: w.cfg.statics.clone(),
    };
    let (ops, step_budget) = (&w.ops, w.cfg.step_budget);
    let explore_start = Instant::now();
    let outcome = explorer.explore_with(
        || {
            let born = Instant::now();
            let world = SimWorld::new(ops.len());
            let obj = C::build(&world.mem());
            WorkerCtx {
                pool: ReplayPool::new(world),
                obj,
                shards: DagShards::new(&sink),
                layers: WorkerLayers::default(),
                born,
                done: &done,
            }
        },
        |ctx: &mut WorkerCtx<'_, C::Spec, C::Obj>, driver| {
            let start = Instant::now();
            let mut timed = TimedDriver {
                inner: driver,
                busy: Duration::ZERO,
                picks: 0,
                trace_items: 0,
            };
            let obj = &ctx.obj;
            ctx.pool
                .replay(|log| programs(obj, log, ops), &mut timed, step_budget);
            let replayed = Instant::now();
            ctx.shards.ingest(ctx.pool.transcript());
            let end = Instant::now();
            let l = &mut ctx.layers;
            l.vm += (replayed - start).saturating_sub(timed.busy);
            l.driver += timed.busy;
            l.picks += timed.picks;
            l.trace_items += timed.trace_items;
            l.replays += 1;
            l.ingest += end - replayed;
            l.runner += end - start;
        },
    );
    let explore_end = Instant::now();
    tracer.record(verdict_id, "explore", explore_start, explore_end);

    let shards = sink.into_inner().expect("no explorer worker panicked");
    let shard_count = shards.len();
    let dag = TreeDag::merge(shards);
    let merge_end = Instant::now();
    tracer.record(verdict_id, "merge", explore_end, merge_end);

    let report = check_strongly_linearizable_dag(&w.spec, &dag);
    let check_end = Instant::now();
    tracer.record(verdict_id, "check", merge_end, check_end);
    tracer.close(verdict_id, "verdict", verdict_start, check_end);

    let workers = done.into_inner().expect("no explorer worker panicked");
    tracer
        .workers
        .extend(workers.iter().map(|l| (verdict_id, *l)));
    let after = telemetry();
    let delta = |f: fn(&sl_sim::StaticTelemetry) -> u64| match (&before, &after) {
        (Some(b), Some(a)) => f(a) - f(b),
        _ => 0,
    };
    Traced {
        verdict: Verdict {
            holds: report.holds,
            conflict_depth: report.conflict_depth,
            outcome,
            dag_hash: dag.structural_hash(),
            dag_nodes: dag.unique_nodes(),
            states: report.states_explored,
            memo_hits: report.memo_hits,
        },
        workers,
        shards: shard_count,
        merge: merge_end - explore_end,
        check: check_end - merge_end,
        relaxed: delta(|t| t.relaxed),
        validated: delta(|t| t.validated),
    }
}

struct Span {
    /// The root span of the verdict (or set-up) this span belongs to.
    trace: u32,
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    start: Instant,
    end: Instant,
}

/// In-memory span and per-worker record store of one traced run.
pub struct Tracer {
    origin: Instant,
    next_id: u32,
    spans: Vec<Span>,
    workers: Vec<(u32, WorkerLayers)>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next_id: 0,
            spans: Vec::new(),
            workers: Vec::new(),
        }
    }

    /// Reserves the id of a root span whose children are recorded
    /// before it closes.
    pub fn open(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    /// Records the root span reserved by [`Tracer::open`].
    pub fn close(&mut self, id: u32, name: &'static str, start: Instant, end: Instant) {
        self.spans.push(Span {
            trace: id,
            id,
            parent: None,
            name,
            start,
            end,
        });
    }

    /// Records a root span with no children.
    pub fn root(&mut self, name: &'static str, start: Instant, end: Instant) {
        let id = self.open();
        self.close(id, name, start, end);
    }

    /// Records a child span of the root span `parent`.
    pub fn record(&mut self, parent: u32, name: &'static str, start: Instant, end: Instant) {
        let id = self.open();
        self.spans.push(Span {
            trace: parent,
            id,
            parent: Some(parent),
            name,
            start,
            end,
        });
    }

    /// Writes every span, then every per-worker record, as JSON lines.
    /// Times are seconds since the tracer was created.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let at = |t: Instant| t.duration_since(self.origin).as_secs_f64();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
                s.trace,
                s.id,
                parent,
                s.name,
                at(s.start),
                at(s.end)
            )?;
        }
        for (worker, (trace, l)) in self.workers.iter().enumerate() {
            writeln!(
                out,
                "{{\"trace\":{trace},\"worker_record\":{worker},\"vm_s\":{},\"replays\":{},\
                 \"trace_items\":{},\"driver_s\":{},\"picks\":{},\"ingest_s\":{},\
                 \"shard_hooks_s\":{},\"runner_s\":{},\"alive_s\":{}}}",
                l.vm.as_secs_f64(),
                l.replays,
                l.trace_items,
                l.driver.as_secs_f64(),
                l.picks,
                l.ingest.as_secs_f64(),
                l.shard_hooks.as_secs_f64(),
                l.runner.as_secs_f64(),
                l.alive.as_secs_f64()
            )?;
        }
        out.flush()
    }
}
