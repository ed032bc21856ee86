//! Model checking any built object under the schedule explorer.
//!
//! The builder constructs objects; this module runs them. Give
//! [`explore_object_dag`] a factory (a closure building the object on
//! a fresh `SimMem` — typically an [`crate::ObjectBuilder`] chain), a
//! per-process workload of sequential-spec operations, and an
//! [`SimExplore`] budget; it enumerates adversary schedules on the step
//! VM under the configured [`PruneMode`] (optimal DPOR by default),
//! streams every transcript into a hash-consed [`TreeDag`], and hands
//! back an [`ExploredDag`] ready for the memoised strong-linearizability
//! checker:
//!
//! ```
//! use sl_api::sim::{explore_object_dag, SimExplore};
//! use sl_api::ObjectBuilder;
//! use sl_spec::types::AbaSpec;
//! use sl_spec::AbaOp;
//!
//! // Theorem 12, bounded: Algorithm 2 is strongly linearizable over
//! // every schedule of one DWrite and one DRead (a paper verdict, so
//! // on the unpruned oracle).
//! let explored = explore_object_dag::<AbaSpec<u64>, _, _>(
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
//!
//! Every entry point runs one harness. Each explorer worker replays
//! the workload's [`programs_for`] on a warm [`PooledWorld`] and streams
//! the transcripts into per-subtree [`DagShards`]; a stolen subtree's
//! shard is grafted into its owner's at the join, so an exploration
//! ends with the root's shard (plus any a failed attempt or a remote
//! worker left, unioned by [`TreeDag::merge`]). The entry points differ
//! only in how the
//! explorer runs: plain ([`explore_object_dag_with`]), checkpointed
//! ([`explore_object_dag_resumable`]), over a fleet of worker processes
//! ([`explore_object_dag_distributed`]), or as one such worker
//! ([`serve_object_worker`]).

use std::sync::{Arc, Mutex};

use sl_check::{check_strongly_linearizable_dag, DagShards, StrongLinReport, TreeDag, TreeStep};
use sl_dist::{DistCoordinator, FleetConfig, FleetStats, WireSpec};
use sl_mem::Value;
use sl_sim::{
    EventLog, ExploreOutcome, Explorer, ProcCtx, Program, PruneMode, ReplayCtx, ReplayPool,
    ResumeSession, RunOutcome, ScheduleDriver, Scheduler, Sharded, SimMem, SimWorld,
    StaticConflicts,
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

impl SimExplore {
    /// The explorer these knobs configure. The step budget is not the
    /// explorer's: each replay passes it to the world it runs on.
    pub fn explorer(&self) -> Explorer {
        Explorer {
            max_runs: self.max_runs,
            mode: self.mode,
            workers: self.workers,
            stem: self.stem.clone(),
            statics: self.statics.clone(),
        }
    }
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

/// The programs every harness runs for `workload`, one per process:
/// before each operation the process pauses (the adversary schedules
/// the invocation), then it invokes the operation on `log`, applies it
/// to its handle of `obj` and records the response.
pub fn programs_for<S, O, A>(
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
/// [`explore_object_dag`]). The object is built by `factory` on the
/// fresh world's memory; `apply` maps spec operations onto the handle.
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
/// adds the object and the workload application. Replays re-execute
/// [`programs_for`] (cheap closures over the same handles) on warm
/// fiber stacks and recycled trace buffers instead of building a fresh
/// world per schedule.
///
/// On its own it is a counts-only explorer context; the exploration
/// entry points wrap it in [`Sharded`] to stream transcripts into DAG
/// shards.
pub struct PooledWorld<S: SeqSpec, O> {
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
    /// Builds an `n`-process world and the object under test on it.
    pub fn new<F: Fn(&SimMem) -> O>(factory: &F, n: usize) -> Self {
        let world = SimWorld::new(n);
        let obj = factory(&world.mem());
        PooledWorld {
            pool: ReplayPool::new(world),
            obj,
        }
    }

    /// Runs one schedule of `workload`; afterwards
    /// [`PooledWorld::transcript`] holds the run's transcript.
    pub fn replay<A>(
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

    /// The most recent replay's transcript.
    pub fn transcript(&self) -> &[TreeStep<S>] {
        self.pool.transcript()
    }
}

impl<S: SeqSpec, O> ReplayCtx for PooledWorld<S, O> {}

/// The one object harness every exploration entry point runs. Each
/// explorer worker builds a context with [`Harness::ctx`]: a warm
/// [`PooledWorld`] plus the shard stack its subtrees stream into. Per
/// schedule, [`Harness::replay`] runs the workload and ingests the
/// transcript into the current subtree's shard. Subtrees replay in
/// depth-first order, so every shard is a valid
/// [`sl_check::DagBuilder`] stream, and a stolen subtree's shard is
/// grafted into its owner's at the join; [`TreeDag::merge`] unions the
/// shards left in the sink after the exploration.
struct Harness<'w, S: SeqSpec, F, A> {
    factory: F,
    workload: &'w [Vec<S::Op>],
    apply: Arc<A>,
    step_budget: u64,
}

impl<'w, S, F, A> Harness<'w, S, F, A>
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
{
    fn new(factory: F, workload: &'w [Vec<S::Op>], apply: A, cfg: &SimExplore) -> Self {
        assert!(
            !workload.is_empty(),
            "workload must cover at least one process"
        );
        Harness {
            factory,
            workload,
            apply: Arc::new(apply),
            step_budget: cfg.step_budget,
        }
    }

    fn ctx<'s, O>(&self, sink: &'s Mutex<Vec<TreeDag<S>>>) -> Sharded<'s, S, PooledWorld<S, O>>
    where
        O: SharedObject<SimMem>,
        F: Fn(&SimMem) -> O,
    {
        Sharded {
            inner: PooledWorld::new(&self.factory, self.workload.len()),
            shards: DagShards::new(sink),
        }
    }

    fn replay<O>(&self, ctx: &mut Sharded<'_, S, PooledWorld<S, O>>, driver: &mut ScheduleDriver)
    where
        O: SharedObject<SimMem>,
        A: Fn(&mut O::Handle, &S::Op) -> S::Resp + Send + Sync + 'static,
    {
        ctx.inner
            .replay(self.workload, &self.apply, driver, self.step_budget);
        ctx.shards.ingest(ctx.inner.transcript());
    }
}

/// The shards an exploration's workers flushed into `sink`.
fn flushed<S: SeqSpec>(sink: Mutex<Vec<TreeDag<S>>>) -> Vec<TreeDag<S>> {
    sink.into_inner()
        .expect("an explorer worker panicked while flushing a DAG shard")
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

/// [`explore_object_dag`] with an explicit apply closure, for objects
/// whose operations don't map onto a spec via [`DriveOps`] (e.g. the §5
/// universal construction).
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
    let harness = Harness::new(factory, workload, apply, cfg);
    let sink = Mutex::new(Vec::new());
    let outcome = cfg
        .explorer()
        .explore_with(|| harness.ctx(&sink), |ctx, d| harness.replay(ctx, d));
    ExploredDag {
        dag: TreeDag::merge(flushed(sink)),
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
    let harness = Harness::new(
        factory,
        workload,
        |h: &mut O::Handle, op: &S::Op| h.drive(op),
        cfg,
    );
    let sink = Mutex::new(Vec::new());
    let outcome = cfg.explorer().explore_resumable(
        || harness.ctx(&sink),
        |ctx, d| harness.replay(ctx, d),
        session,
    );
    ExploredDag {
        dag: TreeDag::merge(flushed(sink)),
        outcome,
    }
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
    /// Coordinator counters, snapshotted after the run.
    pub fleet: FleetStats,
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
/// offer every attempt at a frozen subtree to the lease-based
/// coordinator, which returns the subtree's result from a worker
/// process, revokes the lease (the engine then retries or quarantines
/// the subtree, as it does a panicking one), or declines (fleet busy,
/// or degraded after a spawn failure), in which case the subtree runs
/// in-process. Either way the merged run is bit-identical to the
/// sequential one — same verdict, conflict depth, counters, and
/// merged-DAG structural hash — or honestly `partial` through the
/// quarantine path. Never a false PASS.
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
    let harness = Harness::new(factory, workload, apply, cfg);
    let local_sink = Mutex::new(Vec::new());
    let remote_sink = Mutex::new(Vec::new());
    let coordinator = DistCoordinator::new(fleet, workload_name, cfg.mode.name(), &remote_sink);
    let mut explorer = cfg.explorer();
    // Tasks are only frozen for sharing when a sibling thread could
    // steal them; a single-threaded explorer would never dispatch.
    explorer.workers = explorer.workers.max(2);
    let outcome = explorer.explore_dispatched(
        || harness.ctx(&local_sink),
        |ctx, d| harness.replay(ctx, d),
        &coordinator,
    );
    coordinator.finish();
    let fleet = coordinator.stats();
    // Releases the borrow of `remote_sink`.
    drop(coordinator);
    // Local shards are packed (process-local step codes); remote shards
    // arrived symbolized. Symbolize the local ones so the merge dedupes
    // across the process boundary — one label space for the whole DAG.
    let shards: Vec<TreeDag<S>> = flushed(local_sink)
        .into_iter()
        .map(|d| d.symbolize())
        .chain(flushed(remote_sink))
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
    let harness = Harness::new(factory, workload, apply, cfg);
    let explorer = cfg.explorer();
    sl_dist::serve::<S, _>(workload_name, cfg.mode.name(), |task| {
        let sink = Mutex::new(Vec::new());
        let result = explorer.explore_frozen_task(
            || harness.ctx(&sink),
            |ctx, d| harness.replay(ctx, d),
            task,
        );
        let dag = TreeDag::merge(flushed(sink)).symbolize();
        (result, dag)
    })
}

/// Explores every adversary schedule of `workload` (within the budgets)
/// against the object built by `factory`, streaming transcripts into a
/// hash-consed [`TreeDag`] — the prefix tree strong linearizability
/// quantifies over is never materialised. See the module docs for an
/// example.
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
