//! Model checking any built object under the schedule explorer.
//!
//! The builder constructs objects; this module runs them. Give
//! [`explore_object`] a factory (a closure building the object on a
//! fresh `SimMem` — typically an [`crate::ObjectBuilder`] chain), a
//! per-process workload of sequential-spec operations, and an
//! [`SimExplore`] budget; it enumerates adversary schedules on the step
//! VM under the configured [`PruneMode`] (optimal DPOR by default),
//! streams every transcript into an incremental prefix tree, and hands
//! back an [`ExploredObject`] ready for `sl_check`'s deciders:
//!
//! ```
//! use sl_api::sim::{explore_object, SimExplore};
//! use sl_api::ObjectBuilder;
//! use sl_spec::types::AbaSpec;
//! use sl_spec::AbaOp;
//!
//! // Theorem 12, bounded: Algorithm 2 is strongly linearizable over
//! // every schedule of one DWrite and one DRead (a paper verdict, so
//! // on the unpruned oracle).
//! let explored = explore_object::<AbaSpec<u64>, _, _>(
//!     |mem| ObjectBuilder::on(mem).processes(2).aba_register::<u64>(),
//!     &[vec![AbaOp::DWrite(9)], vec![AbaOp::DRead]],
//!     &SimExplore {
//!         mode: sl_sim::PruneMode::Unpruned,
//!         ..SimExplore::default()
//!     },
//! );
//! assert!(explored.outcome.exhausted);
//! assert!(explored.check_strong(&AbaSpec::<u64>::new(2)).holds);
//! ```

use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

use sl_check::{
    check_linearizable, check_strongly_linearizable, check_strongly_linearizable_dag, DagShards,
    HistoryTree, StrongLinReport, TreeBuilder, TreeDag, TreeStep,
};
use sl_dist::{DistCoordinator, FleetConfig, WireSpec};
use sl_mem::Value;
use sl_sim::{
    EventLog, ExploreOutcome, Explorer, ProcCtx, Program, PruneMode, ReplayCtx, ReplayPool,
    ResumeSession, RunOutcome, Scheduler, Sharded, SimMem, SimWorld, StaticConflicts,
};
use sl_spec::types::{AbaSpec, CounterSpec, MaxRegisterSpec, SnapshotSpec};
use sl_spec::{
    AbaOp, AbaResp, CounterOp, CounterResp, History, MaxRegisterOp, MaxRegisterResp, ProcId,
    SeqSpec, SnapshotOp, SnapshotResp,
};

use crate::object::{AbaOps, CounterOps, MaxRegisterOps, ObjectHandle, SharedObject, SnapshotOps};

/// Drives a handle with operations of a sequential specification —
/// the bridge between the spec-level workloads the checker understands
/// and the per-family operation traits handles implement.
///
/// Blanket-implemented for every family's handles; objects whose
/// operations do not map onto a spec this way (e.g. the universal
/// construction, whose op type belongs to its `SimpleType`) can use
/// the `*_with` harness entry points with an explicit apply closure.
pub trait DriveOps<S: SeqSpec>: ObjectHandle {
    /// Executes `op` on the object and returns its response.
    fn drive(&mut self, op: &S::Op) -> S::Resp;
}

impl<V, H> DriveOps<SnapshotSpec<V>> for H
where
    V: Value + Eq + std::hash::Hash,
    H: SnapshotOps<V>,
{
    fn drive(&mut self, op: &SnapshotOp<V>) -> SnapshotResp<V> {
        match op {
            SnapshotOp::Update(v) => {
                self.update(v.clone());
                SnapshotResp::Ack
            }
            SnapshotOp::Scan => SnapshotResp::View(self.scan().into_vec()),
        }
    }
}

impl<H: CounterOps> DriveOps<CounterSpec> for H {
    fn drive(&mut self, op: &CounterOp) -> CounterResp {
        match op {
            CounterOp::Inc => {
                self.inc();
                CounterResp::Ack
            }
            CounterOp::Read => CounterResp::Value(self.read()),
        }
    }
}

impl<H: MaxRegisterOps> DriveOps<MaxRegisterSpec> for H {
    fn drive(&mut self, op: &MaxRegisterOp) -> MaxRegisterResp {
        match op {
            MaxRegisterOp::MaxWrite(v) => {
                self.max_write(*v);
                MaxRegisterResp::Ack
            }
            MaxRegisterOp::MaxRead => MaxRegisterResp::Value(self.max_read()),
        }
    }
}

impl<V, H> DriveOps<AbaSpec<V>> for H
where
    V: Value + Copy + Eq + std::hash::Hash,
    H: AbaOps<V>,
{
    fn drive(&mut self, op: &AbaOp<V>) -> AbaResp<V> {
        match op {
            AbaOp::DWrite(v) => {
                self.dwrite(*v);
                AbaResp::Ack
            }
            AbaOp::DRead => {
                let (v, flag) = self.dread();
                AbaResp::Value(v, flag)
            }
        }
    }
}

/// Budgets and knobs of one object exploration.
#[derive(Clone, Debug)]
pub struct SimExplore {
    /// Stop after this many executed schedules.
    pub max_runs: usize,
    /// Setting of the explorer's independence relation (default:
    /// [`PruneMode::OptimalDpor`]; paper verdicts use
    /// [`PruneMode::Unpruned`], see `sl_sim`'s explore module docs).
    pub mode: PruneMode,
    /// Worker threads replaying schedules in parallel. The explorer
    /// partitions the schedule tree into delegated subtrees and is
    /// deterministic at any count; defaults to the `SL_EXPLORE_THREADS`
    /// environment variable (`0` = one per CPU, unset = 1).
    pub workers: usize,
    /// Per-run shared-memory step budget.
    pub step_budget: u64,
    /// Initial decision prefix: explore only schedules extending it.
    pub stem: Vec<usize>,
    /// Static conflict certificate, consulted by
    /// [`PruneMode::OptimalDpor`] when present and ignored by the other
    /// modes. Licenses the invocation-placement and op-pair relaxations
    /// and fail-closed-validates every observed race.
    pub statics: Option<Arc<StaticConflicts>>,
}

impl Default for SimExplore {
    fn default() -> Self {
        SimExplore {
            max_runs: 200_000,
            mode: PruneMode::default(),
            workers: sl_sim::env_workers(),
            step_budget: 10_000,
            stem: Vec::new(),
            statics: None,
        }
    }
}

/// The result of exploring one object: the merged prefix tree of every
/// transcript plus the exploration statistics.
pub struct ExploredObject<S: SeqSpec> {
    /// Prefix tree over all explored transcripts — the set strong
    /// linearizability quantifies over.
    pub tree: HistoryTree<S>,
    /// Runs, exhaustion, pruning statistics.
    pub outcome: ExploreOutcome,
}

impl<S: SeqSpec> ExploredObject<S> {
    /// Decides strong linearizability of the explored transcript tree.
    pub fn check_strong(&self, spec: &S) -> StrongLinReport {
        check_strongly_linearizable(spec, &self.tree)
    }

    /// Checks plain linearizability of every maximal transcript,
    /// returning the first failing history if any.
    pub fn first_non_linearizable(&self, spec: &S) -> Option<History<S>> {
        for transcript in self.tree.transcripts() {
            let h = history_of_transcript::<S>(&transcript);
            if check_linearizable(spec, &h).is_none() {
                return Some(h);
            }
        }
        None
    }
}

/// Extracts the high-level history from a transcript.
pub fn history_of_transcript<S: SeqSpec>(transcript: &[TreeStep<S>]) -> History<S> {
    let mut h = History::new();
    for step in transcript {
        if let TreeStep::Event(e) = step {
            match &e.kind {
                sl_spec::EventKind::Invoke(op) => h.invoke_with_id(e.op, e.proc, op.clone()),
                sl_spec::EventKind::Respond(r) => h.respond(e.op, r.clone()),
            }
        }
    }
    h
}

/// One simulated run of an object workload under a given scheduler.
pub struct SimRun<S: SeqSpec> {
    /// The raw run outcome (trace, decisions, step counts).
    pub outcome: RunOutcome,
    /// The recorded high-level history.
    pub history: History<S>,
    /// The full transcript (events + internal steps).
    pub transcript: Vec<TreeStep<S>>,
    /// Human-readable transcript with allocation sites.
    pub pretty: Vec<String>,
}

fn programs_for<S, O, A>(
    obj: &O,
    log: &EventLog<S>,
    workload: &[Vec<S::Op>],
    apply: &Arc<A>,
) -> Vec<Program>
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    A: Fn(&mut O::Handle, &S::Op) -> S::Resp + Send + Sync + 'static,
{
    workload
        .iter()
        .enumerate()
        .map(|(pid, ops)| {
            let mut handle = obj.handle(ProcId(pid));
            let log = log.clone();
            let ops = ops.clone();
            let apply = Arc::clone(apply);
            Box::new(move |ctx: ProcCtx| {
                for op in &ops {
                    // The adversary schedules the invocation itself.
                    ctx.pause();
                    let id = log.invoke(ctx.proc_id(), op.clone());
                    let resp = apply(&mut handle, op);
                    log.respond(id, resp);
                }
            }) as Program
        })
        .collect()
}

/// Runs one schedule of `workload` against a freshly built object,
/// recording everything (used by the fuzzer; exploration uses
/// [`explore_object`]). The object is built by `factory` on the fresh
/// world's memory; `apply` maps spec operations onto the handle.
pub fn run_object_schedule_with<S, O, F, A>(
    factory: &F,
    workload: &[Vec<S::Op>],
    apply: &Arc<A>,
    scheduler: &mut dyn Scheduler,
    step_budget: u64,
) -> SimRun<S>
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    F: Fn(&SimMem) -> O,
    A: Fn(&mut O::Handle, &S::Op) -> S::Resp + Send + Sync + 'static,
{
    let world = SimWorld::new(workload.len());
    let mem = world.mem();
    let obj = factory(&mem);
    let log: EventLog<S> = EventLog::new(&world);
    let programs = programs_for(&obj, &log, workload, apply);
    let outcome = world.run(programs, scheduler, step_budget);
    let history = log.history();
    let transcript = log.transcript(&outcome);
    let pretty = log.pretty_transcript(&outcome);
    SimRun {
        outcome,
        history,
        transcript,
        pretty,
    }
}

/// One worker's warm replay state: a world (registers, the object under
/// test, the event log) built once and reset between schedules —
/// [`ReplayPool`] owns the reset/replay/recycle ordering; this wrapper
/// adds the object and the workload application. Replays re-execute the
/// workload's programs (cheap closures over the same handles) on warm
/// fiber stacks and recycled trace buffers instead of building a fresh
/// world per schedule — the world-reuse half of the exploration
/// throughput work (the other half is parallel source-DPOR).
struct PooledWorld<S: SeqSpec, O> {
    pool: ReplayPool<S>,
    obj: O,
}

impl<S, O> PooledWorld<S, O>
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
{
    fn new<F: Fn(&SimMem) -> O>(factory: &F, n: usize) -> Self {
        let world = SimWorld::new(n);
        let obj = factory(&world.mem());
        PooledWorld {
            pool: ReplayPool::new(world),
            obj,
        }
    }

    /// Runs one schedule; afterwards `self.pool.transcript()` holds the
    /// run's transcript.
    fn replay<A>(
        &mut self,
        workload: &[Vec<S::Op>],
        apply: &Arc<A>,
        scheduler: &mut dyn Scheduler,
        step_budget: u64,
    ) where
        A: Fn(&mut O::Handle, &S::Op) -> S::Resp + Send + Sync + 'static,
    {
        let obj = &self.obj;
        self.pool.replay(
            |log| programs_for(obj, log, workload, apply),
            scheduler,
            step_budget,
        );
    }
}

impl<S: SeqSpec, O> ReplayCtx for PooledWorld<S, O> {}

/// [`explore_object`] with an explicit apply closure, for objects whose
/// operations don't map onto a spec via [`DriveOps`] (e.g. the §5
/// universal construction).
pub fn explore_object_with<S, O, F, A>(
    factory: F,
    workload: &[Vec<S::Op>],
    apply: A,
    cfg: &SimExplore,
) -> ExploredObject<S>
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    F: Fn(&SimMem) -> O + Sync,
    A: Fn(&mut O::Handle, &S::Op) -> S::Resp + Send + Sync + 'static,
{
    let n = workload.len();
    assert!(n > 0, "workload must cover at least one process");
    let apply = Arc::new(apply);
    let builder: TreeBuilder<S> = TreeBuilder::new();
    let explorer = Explorer {
        max_runs: cfg.max_runs,
        mode: cfg.mode,
        workers: cfg.workers,
        stem: cfg.stem.clone(),
        statics: cfg.statics.clone(),
    };
    let outcome = explorer.explore_with(
        || PooledWorld::new(&factory, n),
        |pool: &mut PooledWorld<S, O>, driver| {
            pool.replay(workload, &apply, driver, cfg.step_budget);
            // The materialised tree accepts any ingestion order, so one
            // shared builder serves every worker.
            builder.ingest(pool.pool.transcript());
        },
    );
    ExploredObject {
        tree: builder.finish(),
        outcome,
    }
}

/// The result of a DAG-streamed exploration: the hash-consed transcript
/// set (what deep checks feed the memoised strong-lin checker) plus the
/// exploration statistics.
pub struct ExploredDag<S: SeqSpec> {
    /// Hash-consed DAG over all explored transcripts.
    pub dag: TreeDag<S>,
    /// Runs, exhaustion, pruning statistics.
    pub outcome: ExploreOutcome,
}

impl<S: SeqSpec> ExploredDag<S> {
    /// Decides strong linearizability of the explored transcript set
    /// with the memoised DAG checker.
    pub fn check_strong(&self, spec: &S) -> StrongLinReport {
        check_strongly_linearizable_dag(spec, &self.dag)
    }
}

/// [`explore_object_dag`] with an explicit apply closure.
///
/// The transcripts stream straight into hash-consed per-subtree
/// [`sl_check::DagBuilder`] shards (the prefix tree is never
/// materialised — this is the deep-exploration entry point).
pub fn explore_object_dag_with<S, O, F, A>(
    factory: F,
    workload: &[Vec<S::Op>],
    apply: A,
    cfg: &SimExplore,
) -> ExploredDag<S>
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    F: Fn(&SimMem) -> O + Sync,
    A: Fn(&mut O::Handle, &S::Op) -> S::Resp + Send + Sync + 'static,
{
    let n = workload.len();
    assert!(n > 0, "workload must cover at least one process");
    let apply = Arc::new(apply);
    let sink: Mutex<Vec<TreeDag<S>>> = Mutex::new(Vec::new());
    let explorer = Explorer {
        max_runs: cfg.max_runs,
        mode: cfg.mode,
        workers: cfg.workers,
        stem: cfg.stem.clone(),
        statics: cfg.statics.clone(),
    };
    // Each subtree the explorer hands a worker streams its DFS-ordered
    // transcripts into its own shard; [`TreeDag::merge`] unions the
    // finished shards after exploration.
    let outcome = explorer.explore_with(
        || Sharded {
            inner: PooledWorld::new(&factory, n),
            shards: DagShards::new(&sink),
        },
        |ctx: &mut Sharded<'_, S, PooledWorld<S, O>>, driver| {
            ctx.inner.replay(workload, &apply, driver, cfg.step_budget);
            ctx.shards.ingest(ctx.inner.pool.transcript());
        },
    );
    ExploredDag {
        dag: TreeDag::merge(sink.into_inner().unwrap()),
        outcome,
    }
}

/// [`explore_object_dag`] with crash-resilient checkpointing: the
/// explorer periodically snapshots its outstanding-task frontier into
/// `session.store` and, when a checkpoint already exists there, resumes
/// from it instead of starting over. The union of an interrupted run's
/// DAG and the resumed run's DAG is bit-identical (structural hash,
/// verdict, conflict depth) to the uninterrupted exploration at any
/// worker count — see `crates/api/tests/resume_dag.rs` for the gate.
///
/// The live shard hashes are recorded into every checkpoint as sorted
/// audit metadata, but resume validation deliberately passes
/// `expected_shards = None` on top of whatever the caller set: the
/// drain checkpoint is written inside the root's subtree bracket while
/// shards flush at `subtree_end`, so the drain-time recorded hashes
/// lag the post-drain on-disk DAG by design. The end-to-end identity
/// gate is the merged-union structural hash, not per-shard equality.
///
/// Fail-closed: panics (like [`Explorer::explore_resumable`]) on any
/// torn, stale, or doctored checkpoint.
pub fn explore_object_dag_resumable<S, O, F>(
    factory: F,
    workload: &[Vec<S::Op>],
    cfg: &SimExplore,
    session: &ResumeSession<'_>,
) -> ExploredDag<S>
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    O::Handle: DriveOps<S>,
    F: Fn(&SimMem) -> O + Sync,
{
    explore_object_dag_resumable_with(
        factory,
        workload,
        |h: &mut O::Handle, op: &S::Op| h.drive(op),
        cfg,
        session,
    )
}

/// [`explore_object_dag_resumable`] with an explicit apply closure.
pub fn explore_object_dag_resumable_with<S, O, F, A>(
    factory: F,
    workload: &[Vec<S::Op>],
    apply: A,
    cfg: &SimExplore,
    session: &ResumeSession<'_>,
) -> ExploredDag<S>
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    F: Fn(&SimMem) -> O + Sync,
    A: Fn(&mut O::Handle, &S::Op) -> S::Resp + Send + Sync + 'static,
{
    let n = workload.len();
    assert!(n > 0, "workload must cover at least one process");
    let apply = Arc::new(apply);
    let sink: Mutex<Vec<TreeDag<S>>> = Mutex::new(Vec::new());
    let explorer = Explorer {
        max_runs: cfg.max_runs,
        mode: cfg.mode,
        workers: cfg.workers,
        stem: cfg.stem.clone(),
        statics: cfg.statics.clone(),
    };
    // Checkpoints record the hashes of the shards flushed so far —
    // sorted, so the snapshot is stable under worker scheduling.
    let shard_snapshot = || TreeDag::shard_hashes(&sink.lock().unwrap());
    let session = ResumeSession {
        store: session.store,
        policy: session.policy.clone(),
        fault: session.fault.clone(),
        // See the doc comment: drain-time recorded hashes lag the
        // post-drain flush, so per-shard expectations cannot hold here.
        expected_shards: None,
        shard_hashes: Some(&shard_snapshot),
    };
    let outcome = explorer.explore_resumable(
        || Sharded {
            inner: PooledWorld::new(&factory, n),
            shards: DagShards::new(&sink),
        },
        |ctx: &mut Sharded<'_, S, PooledWorld<S, O>>, driver| {
            ctx.inner.replay(workload, &apply, driver, cfg.step_budget);
            ctx.shards.ingest(ctx.inner.pool.transcript());
        },
        &session,
    );
    ExploredDag {
        dag: TreeDag::merge(sink.into_inner().unwrap()),
        outcome,
    }
}

/// Fleet telemetry of one distributed exploration — the coordinator's
/// counters, snapshotted after the run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DistTelemetry {
    /// Task frames written to workers (including re-leases).
    pub dispatched: u64,
    /// Results accepted from workers.
    pub completed: u64,
    /// Leases revoked (missed deadline, torn frame, checksum failure,
    /// dead pipe, nonzero exit).
    pub revoked: u64,
    /// Subtrees quarantined after the retry budget — the outcome is
    /// `partial` whenever this is nonzero.
    pub quarantined: u64,
    /// Dispatches declined (fleet busy or degraded): ran in-process.
    pub declined: u64,
    /// Workers killed by the fault-matrix hook.
    pub chaos_kills: u64,
    /// Whether the run fell back to pure in-process exploration
    /// because no worker could be spawned.
    pub degraded: bool,
}

/// The result of a distributed exploration: the merged DAG (local +
/// remote shards, one symbolized label space), the exploration
/// statistics, and the fleet telemetry.
pub struct ExploredDistDag<S: SeqSpec> {
    /// Hash-consed DAG over all explored transcripts, **symbolized**
    /// (compare its structural hash against a sequential run's
    /// `dag.symbolize()`).
    pub dag: TreeDag<S>,
    /// Runs, exhaustion, pruning statistics — bit-identical to the
    /// sequential outcome at any worker-process count.
    pub outcome: ExploreOutcome,
    /// Coordinator counters.
    pub fleet: DistTelemetry,
}

impl<S: SeqSpec> ExploredDistDag<S> {
    /// Decides strong linearizability of the explored transcript set
    /// with the memoised DAG checker.
    pub fn check_strong(&self, spec: &S) -> StrongLinReport {
        check_strongly_linearizable_dag(spec, &self.dag)
    }
}

/// [`explore_object_dag_with`], with subtree tasks farmed to a fleet of
/// worker *processes* (see [`sl_dist`]): the explorer's worker threads
/// offer every frozen subtree to the lease-based coordinator, which
/// either returns the subtree's result from a worker process or
/// declines (fleet busy, or degraded after a spawn failure), in which
/// case the subtree runs in-process. Either way the merged run is
/// bit-identical to the sequential one — same verdict, conflict depth,
/// counters, and merged-DAG structural hash — or honestly `partial`
/// through the quarantine path. Never a false PASS.
///
/// `workload_name` pins the fleet's identity: the worker binary (see
/// [`serve_object_worker`]) must `hello` with the same name and prune
/// mode or the coordinator refuses it fail-closed. The explorer always
/// runs with at least two threads — subtree tasks are only published
/// when there is someone to share them with.
pub fn explore_object_dag_distributed<S, O, F, A>(
    factory: F,
    workload: &[Vec<S::Op>],
    apply: A,
    cfg: &SimExplore,
    fleet: FleetConfig,
    workload_name: &str,
) -> ExploredDistDag<S>
where
    S: WireSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    F: Fn(&SimMem) -> O + Sync,
    A: Fn(&mut O::Handle, &S::Op) -> S::Resp + Send + Sync + 'static,
{
    let n = workload.len();
    assert!(n > 0, "workload must cover at least one process");
    let apply = Arc::new(apply);
    let local_sink: Mutex<Vec<TreeDag<S>>> = Mutex::new(Vec::new());
    let remote_sink: Mutex<Vec<TreeDag<S>>> = Mutex::new(Vec::new());
    let coordinator = DistCoordinator::new(fleet, workload_name, cfg.mode.name(), &remote_sink);
    let explorer = Explorer {
        max_runs: cfg.max_runs,
        mode: cfg.mode,
        // Tasks are only frozen for sharing when a sibling thread could
        // steal them; a single-threaded explorer would never dispatch.
        workers: cfg.workers.max(2),
        stem: cfg.stem.clone(),
        statics: cfg.statics.clone(),
    };
    let outcome = explorer.explore_dispatched(
        || Sharded {
            inner: PooledWorld::new(&factory, n),
            shards: DagShards::new(&local_sink),
        },
        |ctx: &mut Sharded<'_, S, PooledWorld<S, O>>, driver| {
            ctx.inner.replay(workload, &apply, driver, cfg.step_budget);
            ctx.shards.ingest(ctx.inner.pool.transcript());
        },
        &coordinator,
    );
    coordinator.finish();
    let fleet = DistTelemetry {
        dispatched: coordinator.stats.dispatched.load(Ordering::SeqCst),
        completed: coordinator.stats.completed.load(Ordering::SeqCst),
        revoked: coordinator.stats.revoked.load(Ordering::SeqCst),
        quarantined: coordinator.stats.quarantined.load(Ordering::SeqCst),
        declined: coordinator.stats.declined.load(Ordering::SeqCst),
        chaos_kills: coordinator.stats.chaos_kills.load(Ordering::SeqCst),
        degraded: coordinator.is_degraded(),
    };
    drop(coordinator); // releases the borrow of `remote_sink`
                       // Local shards are packed (process-local step codes); remote shards
                       // arrived symbolized. Symbolize the local ones so the merge dedupes
                       // across the process boundary — one label space for the whole DAG.
    let shards: Vec<TreeDag<S>> = local_sink
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|d| d.symbolize())
        .chain(remote_sink.into_inner().unwrap())
        .collect();
    ExploredDistDag {
        dag: TreeDag::merge(shards),
        outcome,
        fleet,
    }
}

/// The worker-process half of [`explore_object_dag_distributed`]: a
/// serve loop a worker `main` calls with the *same* factory, workload,
/// apply closure, and exploration config the coordinator uses. Each
/// leased task is thawed and explored in-process; the reply carries the
/// subtree's counters plus its symbolized DAG shard.
pub fn serve_object_worker<S, O, F, A>(
    workload_name: &str,
    factory: F,
    workload: &[Vec<S::Op>],
    apply: A,
    cfg: &SimExplore,
) -> Result<(), String>
where
    S: WireSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    F: Fn(&SimMem) -> O + Sync,
    A: Fn(&mut O::Handle, &S::Op) -> S::Resp + Send + Sync + 'static,
{
    let n = workload.len();
    assert!(n > 0, "workload must cover at least one process");
    let apply = Arc::new(apply);
    let explorer = Explorer {
        max_runs: cfg.max_runs,
        mode: cfg.mode,
        workers: cfg.workers,
        stem: cfg.stem.clone(),
        statics: cfg.statics.clone(),
    };
    sl_dist::serve::<S, _>(workload_name, cfg.mode.name(), |task| {
        let sink: Mutex<Vec<TreeDag<S>>> = Mutex::new(Vec::new());
        let result = explorer.explore_frozen_task(
            || Sharded {
                inner: PooledWorld::new(&factory, n),
                shards: DagShards::new(&sink),
            },
            |ctx: &mut Sharded<'_, S, PooledWorld<S, O>>, driver| {
                ctx.inner.replay(workload, &apply, driver, cfg.step_budget);
                ctx.shards.ingest(ctx.inner.pool.transcript());
            },
            task,
        );
        let dag = TreeDag::merge(sink.into_inner().unwrap()).symbolize();
        (result, dag)
    })
}

/// Explores every adversary schedule of `workload` (within the budgets)
/// against the object built by `factory`, streaming transcripts into a
/// hash-consed [`TreeDag`] — the entry point for deep exhaustive
/// checks, where the materialised prefix tree would not fit in memory.
pub fn explore_object_dag<S, O, F>(
    factory: F,
    workload: &[Vec<S::Op>],
    cfg: &SimExplore,
) -> ExploredDag<S>
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    O::Handle: DriveOps<S>,
    F: Fn(&SimMem) -> O + Sync,
{
    explore_object_dag_with(
        factory,
        workload,
        |h: &mut O::Handle, op: &S::Op| h.drive(op),
        cfg,
    )
}

/// Explores every adversary schedule of `workload` (within the
/// budgets) against the object built by `factory`, streaming the
/// transcripts into a prefix tree. See the module docs for an example.
pub fn explore_object<S, O, F>(
    factory: F,
    workload: &[Vec<S::Op>],
    cfg: &SimExplore,
) -> ExploredObject<S>
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    O::Handle: DriveOps<S>,
    F: Fn(&SimMem) -> O + Sync,
{
    explore_object_with(
        factory,
        workload,
        |h: &mut O::Handle, op: &S::Op| h.drive(op),
        cfg,
    )
}
