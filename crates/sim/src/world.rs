//! The simulated world: front end of the step VM and trace recording.
//!
//! [`SimWorld::run`] executes simulated processes as **fibers** inside a
//! single-threaded step VM (see [`crate::vm`]): one shared-memory step
//! is a userspace context switch, not an OS thread handoff. The
//! original thread-per-process engine (kept for one release as the
//! `exp_sim_throughput` baseline) has been retired; the portable-fibers
//! parity suite (`--features portable-fibers`) is the compatibility
//! gate for the fiber implementations.

use std::panic::{self, Location};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sl_check::{OpSym, RegSym, StepCode, StepKind, ValueId};

use crate::mem::SimMem;
use crate::sched::Scheduler;
use crate::vm::VmCore;

/// Kind of a register access.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AccessKind {
    /// A register read.
    Read,
    /// A register write.
    Write,
    /// An atomic read-modify-write (only on `RmwCell`s, which model
    /// stronger base objects than plain registers).
    Rmw,
    /// A scheduled no-op ([`ProcCtx::pause`]): the process consumes a
    /// scheduling decision without touching shared memory. Used to model
    /// that a process invokes its next high-level operation only when
    /// the adversary schedules it.
    Local,
}

impl AccessKind {
    /// The kind's name: its `Display` form and its spelling in
    /// checkpoints and frames.
    pub fn name(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Rmw => "rmw",
            AccessKind::Local => "local",
        }
    }

    /// The kind spelled `name` (see [`AccessKind::name`]); anything
    /// else is a named rejection.
    pub fn from_name(name: &str) -> Result<AccessKind, String> {
        [
            AccessKind::Read,
            AccessKind::Write,
            AccessKind::Rmw,
            AccessKind::Local,
        ]
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| format!("unknown access kind {name:?} (fail-closed: refusing to guess)"))
    }
}

impl std::fmt::Display for AccessKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl From<AccessKind> for StepKind {
    fn from(kind: AccessKind) -> StepKind {
        match kind {
            AccessKind::Read => StepKind::Read,
            AccessKind::Write => StepKind::Write,
            AccessKind::Rmw => StepKind::Rmw,
            AccessKind::Local => StepKind::Local,
        }
    }
}

/// Identity of a simulated register, assigned densely at allocation
/// time (the first register a world allocates is `RegId(0)`, and so
/// on). Allocation order is deterministic for a deterministic setup, so
/// ids are stable across the replays of an exploration — which is what
/// lets the explorer decide whether two pending accesses commute.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct RegId(pub u32);

impl RegId {
    /// The pseudo-register of scheduled no-op steps ([`ProcCtx::pause`]).
    pub const LOCAL: RegId = RegId(u32::MAX);
}

/// The shared-memory access a quiescent process will perform when next
/// scheduled: its register and access kind, declared *before* the step
/// executes.
///
/// This is what the step VM knows (and the legacy threaded engine does
/// not): a fiber announces its access when it parks, so schedulers and
/// the exploring adversary can see, for every runnable process, what
/// that process is about to do. Sleep-set pruning is built on this.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PendingAccess {
    /// The register about to be accessed ([`RegId::LOCAL`] for pauses).
    pub reg: RegId,
    /// The kind of access.
    pub kind: AccessKind,
}

impl PendingAccess {
    /// The pending access of a scheduled no-op — also the conservative
    /// stand-in when a process's pending access is unknown (it
    /// conflicts with everything, so nothing is wrongly commuted).
    pub const LOCAL: PendingAccess = PendingAccess {
        reg: RegId::LOCAL,
        kind: AccessKind::Local,
    };

    /// Whether this is a scheduled no-op (a [`ProcCtx::pause`]).
    pub fn is_local(&self) -> bool {
        self.reg == RegId::LOCAL || self.kind == AccessKind::Local
    }

    /// Whether two pending accesses of *different* processes commute:
    /// executing them in either order yields the same memory state, the
    /// same two step records, and the same continuations.
    ///
    /// Conservative: accesses to the same register never commute (even
    /// two reads), and `Local` steps never commute with anything —
    /// pauses carry invocation/response placement, which
    /// strong-linearizability analysis is sensitive to.
    pub fn independent(&self, other: &PendingAccess) -> bool {
        !self.is_local() && !other.is_local() && self.reg != other.reg
    }
}

/// Record of one shared-memory step: the per-world dense [`RegId`]
/// (what explorer commutativity keys on) plus the packed, globally
/// interned [`StepCode`] — the canonical transcript unit. The record is
/// `Copy`: recording a traced step allocates nothing and renders
/// nothing; labels are decoded lazily on report paths only.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct StepRecord {
    /// Process that took the step.
    pub proc: usize,
    /// Read, write, rmw, or pause.
    pub kind: AccessKind,
    /// Dense per-world identity of the accessed register
    /// ([`RegId::LOCAL`] for pauses) — what the explorer keys
    /// commutativity on.
    pub reg_id: RegId,
    /// The packed step identity (process, kind, interned register,
    /// interned value) that flows unconverted into `sl-check`.
    pub code: StepCode,
}

impl StepRecord {
    /// The interned value read/written by this step ([`ValueId::NONE`]
    /// for pauses and untraced runs).
    pub fn value(&self) -> ValueId {
        self.code.value().unwrap_or(ValueId::NONE)
    }

    /// The globally interned register identity.
    pub fn reg_sym(&self) -> RegSym {
        self.code.reg().unwrap_or(RegSym::LOCAL)
    }

    /// The register's allocation name.
    pub fn reg_name(&self) -> &'static str {
        self.reg_sym().name()
    }

    /// The register's allocation site as `(file, line)` — the
    /// `Mem::alloc` call site recorded by `SimMem`.
    pub fn site(&self) -> (&'static str, u32) {
        self.reg_sym().site()
    }

    /// A stable label describing the step (register, kind, value),
    /// decoded from the packed code.
    pub fn label(&self) -> String {
        self.code.label()
    }

    /// Appends [`StepRecord::label`] to `buf` — report paths reuse one
    /// buffer across a run's steps instead of allocating per step.
    pub fn write_label(&self, buf: &mut String) {
        self.code.write_label(buf);
    }

    /// A human-readable one-line rendering including the register's
    /// allocation site — the format shrunk fuzz counterexamples print.
    pub fn detailed(&self) -> String {
        let mut buf = String::new();
        self.write_detailed(&mut buf);
        buf
    }

    /// Appends [`StepRecord::detailed`] to `buf`.
    pub fn write_detailed(&self, buf: &mut String) {
        use std::fmt::Write;
        let (file, line) = self.site();
        let _ = write!(buf, "p{} ", self.proc);
        self.code.write_label(buf);
        let _ = write!(buf, " @ {file}:{line}");
    }
}

/// One entry of a run's trace: an internal register step or a marker for
/// the `i`-th high-level event recorded in the run's [`crate::EventLog`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TraceItem {
    /// An internal register step.
    Step(StepRecord),
    /// The `i`-th high-level event of the event log. Without further
    /// qualification the marker is treated as a *response or unknown*
    /// event by every consumer that distinguishes marker kinds — the
    /// conservative reading (responses pin real-time order, so no
    /// relaxation of the explorer's refined relation commutes a step
    /// carrying one; the syntactic base still can — see the `explore`
    /// module docs on the gap).
    Hi(usize),
    /// The `i`-th high-level event of the event log, known to be an
    /// **invocation**, carrying the interned identity of the invoked
    /// operation. [`crate::EventLog::invoke`] emits this; the
    /// explorer's static placement relaxation (the certificate layer of
    /// `PruneMode::OptimalDpor`) is licensed only for steps whose riding markers are all
    /// invocations, and attributes every subsequent step of the
    /// activation to the carried [`OpSym`] (the key of the
    /// certificate's op-pair matrix). Checkers and transcripts treat it
    /// exactly like [`TraceItem::Hi`].
    HiInvoke(usize, OpSym),
}

/// One scheduling decision: the set of processes that were ready to take
/// a step and the one the scheduler chose.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Decision {
    /// Processes that could have been scheduled.
    pub runnable: Vec<usize>,
    /// The process that was scheduled.
    pub chosen: usize,
    /// The access each runnable process was about to perform, aligned
    /// with `runnable`.
    pub pending: Vec<PendingAccess>,
}

/// Read-only view handed to a [`Scheduler`] at each decision point.
///
/// A *strong adversary* in the paper's sense: by the time the scheduler
/// is consulted, every process is quiescent, so the view (plus any
/// register handles the scheduler captured at setup) reflects the entire
/// configuration, including the effects of all previous steps.
pub struct SchedView<'a> {
    /// Processes ready to take a step, in ascending order.
    pub runnable: &'a [usize],
    /// The full trace so far.
    pub trace: &'a [TraceItem],
    /// Steps taken so far by each process.
    pub steps_per_proc: &'a [u64],
    /// The access each runnable process is about to perform, aligned
    /// with `runnable`.
    pub pending: &'a [PendingAccess],
}

impl<'a> SchedView<'a> {
    /// Total number of register steps taken so far.
    pub fn total_steps(&self) -> u64 {
        self.steps_per_proc.iter().sum()
    }

    /// The pending access of runnable process `p`, when known.
    pub fn pending_of(&self, p: usize) -> Option<PendingAccess> {
        self.runnable
            .iter()
            .position(|&q| q == p)
            .and_then(|i| self.pending.get(i).copied())
    }
}

/// What a run records while it executes.
///
/// Everything defaults to **on** ([`SimWorld::run`] records the full
/// trace and every decision, like the engine always did). Turning
/// recording off removes per-step allocations from the VM's hot path:
/// the explorer runs with `record_decisions: false` (its schedule
/// driver tracks the decision script itself), and pure throughput
/// measurement uses [`RunConfig::counted`]. With `record_trace: false`
/// value labels are never even rendered — the register access closure
/// is told not to produce them.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Record the interleaved step/event trace (and render value
    /// labels). Without it `RunOutcome::trace` is empty.
    pub record_trace: bool,
    /// Record a [`Decision`] per scheduling choice. Without it
    /// `RunOutcome::decisions` is empty.
    pub record_decisions: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            record_trace: true,
            record_decisions: true,
        }
    }
}

impl RunConfig {
    /// Records everything (the [`SimWorld::run`] default).
    pub fn full() -> Self {
        RunConfig::default()
    }

    /// Records the trace but not the decisions — what the explorer's
    /// replays use.
    pub fn traced() -> Self {
        RunConfig {
            record_trace: true,
            record_decisions: false,
        }
    }

    /// Records nothing but step counts — engine-overhead measurement.
    pub fn counted() -> Self {
        RunConfig {
            record_trace: false,
            record_decisions: false,
        }
    }
}

/// Result of a completed (or aborted) run.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// `true` if every process ran to completion; `false` if the step
    /// budget was exhausted first.
    pub completed: bool,
    /// Steps taken by each process.
    pub steps_per_proc: Vec<u64>,
    /// Interleaved trace of register steps and high-level event markers.
    pub trace: Vec<TraceItem>,
    /// The scheduling decisions taken, in order.
    pub decisions: Vec<Decision>,
}

impl RunOutcome {
    /// Total number of steps, including scheduled no-op pauses.
    pub fn total_steps(&self) -> u64 {
        self.steps_per_proc.iter().sum()
    }

    /// The steps of the trace, in order (including pauses).
    pub fn steps(&self) -> impl Iterator<Item = &StepRecord> {
        self.trace.iter().filter_map(|t| match t {
            TraceItem::Step(s) => Some(s),
            TraceItem::Hi(_) | TraceItem::HiInvoke(..) => None,
        })
    }

    /// Number of *shared-memory* steps taken by process `p` (excludes
    /// scheduled pauses) — the quantity the paper's step-complexity
    /// theorems count.
    pub fn shared_steps_of(&self, p: usize) -> u64 {
        self.steps()
            .filter(|s| s.proc == p && s.kind != AccessKind::Local)
            .count() as u64
    }

    /// Total number of shared-memory steps (excludes scheduled pauses).
    pub fn shared_steps(&self) -> u64 {
        self.steps().filter(|s| s.kind != AccessKind::Local).count() as u64
    }

    /// The schedule of this run as a decision script (the chosen process
    /// at every decision point) — replaying it through a
    /// [`crate::Scripted`] scheduler reproduces the run exactly.
    pub fn script(&self) -> Vec<usize> {
        self.decisions.iter().map(|d| d.chosen).collect()
    }
}

/// A simulated process body.
pub type Program = Box<dyn FnOnce(ProcCtx) + Send + 'static>;

/// Handle passed to each simulated process.
#[derive(Clone)]
pub struct ProcCtx {
    pub(crate) world: SimWorld,
    pub(crate) pid: usize,
}

impl ProcCtx {
    /// The identifier of this process.
    pub fn pid(&self) -> usize {
        self.pid
    }

    /// The world this process runs in.
    pub fn world(&self) -> &SimWorld {
        &self.world
    }

    /// Takes one scheduled no-op step.
    ///
    /// Call this before invoking a high-level operation to faithfully
    /// model the paper's asynchronous system: a process performs its
    /// next invocation only when the adversary schedules it. Without the
    /// pause, a process would invoke its next operation "for free" in
    /// the local computation following its previous response, putting
    /// invocation events into transcript prefixes the adversary never
    /// scheduled it into — which changes which operations are pending in
    /// a prefix and therefore matters to strong-linearizability analysis
    /// (it is exactly the difference between the paper's `T2` having or
    /// not having `dw_{j+1}` pending during `dr2`).
    pub fn pause(&self) {
        self.world
            .step(RegId::LOCAL, RegSym::LOCAL, AccessKind::Local, |_| {
                ((), ValueId::NONE)
            });
    }

    /// The identifier as an `sl_spec::ProcId`.
    pub fn proc_id(&self) -> sl_spec::ProcId {
        sl_spec::ProcId(self.pid)
    }
}

pub(crate) struct WorldState {
    /// Set while a run is executing or after one completed; cleared by
    /// [`SimWorld::reset`], which makes the world runnable again.
    pub(crate) started: bool,
    /// Number of registers allocated before the first run (the
    /// allocation-site table a reset preserves); registers allocated
    /// *during* a run are discarded by the reset so replayed setups
    /// re-derive identical dense [`RegId`]s.
    pub(crate) reg_floor: Option<usize>,
}

/// Metadata recorded for every allocated register.
pub(crate) struct RegMeta {
    /// Restores the register's cell to its `alloc`-time initial value.
    pub(crate) reset: Box<dyn Fn() + Send + Sync>,
}

pub(crate) struct WorldInner {
    pub(crate) state: Mutex<WorldState>,
    /// Registry of allocated registers, in allocation order.
    pub(crate) registry: Mutex<Vec<RegMeta>>,
    /// The step VM currently running this world, when one is (null
    /// otherwise). Register accesses dispatch on this: non-null means
    /// "suspend the calling fiber", null means no run is active — a
    /// register access then is a caller bug and panics.
    pub(crate) active_vm: AtomicPtr<VmCore>,
    /// Recycled VM core and trace buffers: a replay on a reset world
    /// re-executes on warm allocations instead of fresh ones.
    pub(crate) spare: Mutex<crate::vm::SpareVm>,
    /// Bumped whenever a reset truncates in-run register allocations —
    /// surfaced as [`sl_mem::Mem::epoch`] so objects that cache mid-run
    /// register handles (e.g. `UnaryMaxRegister`'s growable cell array)
    /// drop them instead of reading stale previous-replay values.
    pub(crate) epoch: AtomicU64,
}

/// Panic payload used to unwind simulated processes when a run is
/// aborted (step budget exhausted).
pub(crate) struct SimAbort;

static HOOK_INSTALLED: std::sync::Once = std::sync::Once::new();
pub(crate) static IN_SIM_ABORT: AtomicBool = AtomicBool::new(false);

fn install_quiet_abort_hook() {
    HOOK_INSTALLED.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if IN_SIM_ABORT.load(Ordering::SeqCst)
                && info.payload().downcast_ref::<SimAbort>().is_some()
            {
                return; // expected control-flow unwind; stay quiet
            }
            previous(info);
        }));
    });
}

/// A deterministic simulated shared-memory system with `n` processes.
///
/// Construction allocates the world; [`SimWorld::mem`] hands out the
/// [`SimMem`] backend used to allocate registers *before* the run; and
/// [`SimWorld::run`] executes one run to completion (or until the step
/// budget is exhausted) on the step VM. A world is single-shot: it can
/// run at most once.
#[derive(Clone)]
pub struct SimWorld {
    pub(crate) inner: Arc<WorldInner>,
    n: usize,
}

impl std::fmt::Debug for SimWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SimWorld(n={})", self.n)
    }
}

impl SimWorld {
    /// Creates a world with `n` simulated processes.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        install_quiet_abort_hook();
        SimWorld {
            inner: Arc::new(WorldInner {
                state: Mutex::new(WorldState {
                    started: false,
                    reg_floor: None,
                }),
                registry: Mutex::new(Vec::new()),
                active_vm: AtomicPtr::new(std::ptr::null_mut()),
                spare: Mutex::new(crate::vm::SpareVm::default()),
                epoch: AtomicU64::new(0),
            }),
            n,
        }
    }

    /// Makes a finished world runnable again, byte-identically to a
    /// freshly built one: every register allocated *before* the first
    /// run is restored to its `alloc`-time initial value (names, dense
    /// [`RegId`]s, and allocation sites are kept — that table is what a
    /// replayed setup must agree with), registers allocated *during* a
    /// run are dropped from the registry so a replayed program
    /// re-allocates them under the same ids, and the single-shot run
    /// latch is cleared.
    ///
    /// Together with rebuilding the per-process programs (closures over
    /// the same handles), this is what lets the explorer replay
    /// thousands of schedules per second on one warm world instead of
    /// building a fresh `SimWorld` — with fresh registers, object, and
    /// buffers — per schedule. The object under test must keep all its
    /// *mutable* state in `Mem` registers (true of every shared-memory
    /// algorithm in this workspace; process-local state belongs in
    /// handles, which are rebuilt per replay).
    ///
    /// # Panics
    ///
    /// Panics if called while a run is executing.
    pub fn reset(&self) {
        assert!(
            self.inner.active_vm.load(Ordering::SeqCst).is_null(),
            "cannot reset a running world"
        );
        let mut st = self.inner.state.lock().unwrap();
        st.started = false;
        let floor = st.reg_floor;
        drop(st);
        self.reset_registers(floor);
    }

    /// Restores register values (and truncates in-run allocations to
    /// `floor`, when one was recorded). Shared by [`SimWorld::reset`]
    /// and [`SimMem::reset`].
    pub(crate) fn reset_registers(&self, floor: Option<usize>) {
        let mut registry = self.inner.registry.lock().unwrap();
        if let Some(floor) = floor {
            if registry.len() > floor {
                // In-run allocations are about to be dropped from the
                // registry; any handle an object cached for them now
                // reads values the reset below will never restore. Bump
                // the epoch so `Mem::epoch`-aware caches invalidate.
                self.inner.epoch.fetch_add(1, Ordering::SeqCst);
            }
            registry.truncate(floor);
        }
        for meta in registry.iter() {
            (meta.reset)();
        }
    }

    /// Number of simulated processes.
    pub fn processes(&self) -> usize {
        self.n
    }

    /// The register allocator of this world.
    pub fn mem(&self) -> SimMem {
        SimMem {
            world: self.clone(),
        }
    }

    /// Number of registers allocated so far.
    pub fn register_count(&self) -> usize {
        self.inner.registry.lock().unwrap().len()
    }

    /// Records a register allocation; called by [`SimMem`]. `reset`
    /// restores the register's cell to its initial value on
    /// [`SimWorld::reset`]. The returned [`RegSym`] is the register's
    /// globally interned identity — identical across the per-worker
    /// worlds of a parallel exploration, which is what keeps step codes
    /// comparable between them.
    pub(crate) fn register(
        &self,
        name: &str,
        site: &'static Location<'static>,
        reset: Box<dyn Fn() + Send + Sync>,
    ) -> (RegId, RegSym) {
        let sym = RegSym::intern(name, site.file(), site.line(), site.column());
        let mut registry = self.inner.registry.lock().unwrap();
        let id = RegId(u32::try_from(registry.len()).expect("too many registers"));
        registry.push(RegMeta { reset });
        (id, sym)
    }

    /// Returns a finished run's trace and decision buffers to the
    /// world's spare pool, so the next run on this (reset) world reuses
    /// their capacity instead of allocating fresh ones. Purely an
    /// optimisation — dropping the outcome instead is always correct.
    pub fn recycle(&self, outcome: RunOutcome) {
        let RunOutcome {
            mut trace,
            mut decisions,
            ..
        } = outcome;
        trace.clear();
        decisions.clear();
        let mut spare = self.inner.spare.lock().unwrap();
        if spare.trace.capacity() < trace.capacity() {
            spare.trace = trace;
        }
        if spare.decisions.capacity() < decisions.capacity() {
            spare.decisions = decisions;
        }
    }

    /// Runs `programs` (one per process) under `scheduler`, admitting at
    /// most `max_steps` shared-memory steps in total.
    ///
    /// Processes execute as fibers inside the single-threaded step VM:
    /// every step is a userspace context switch, which is what makes
    /// the explorer's replays cheap. Returns when every program
    /// finished, or — if the budget runs out — after force-unwinding all
    /// still-suspended programs (in which case `completed` is `false`).
    ///
    /// # Panics
    ///
    /// Panics if `programs.len() != n`, if the world has already run, or
    /// if a simulated program itself panics with an unexpected payload.
    pub fn run(
        &self,
        programs: Vec<Program>,
        scheduler: &mut dyn Scheduler,
        max_steps: u64,
    ) -> RunOutcome {
        crate::vm::run_vm(self, programs, scheduler, max_steps, RunConfig::full())
    }

    /// Like [`SimWorld::run`], but with explicit control over what the
    /// run records (see [`RunConfig`]).
    pub fn run_with(
        &self,
        programs: Vec<Program>,
        scheduler: &mut dyn Scheduler,
        max_steps: u64,
        config: RunConfig,
    ) -> RunOutcome {
        crate::vm::run_vm(self, programs, scheduler, max_steps, config)
    }

    /// Executes one shared-memory step on behalf of the calling simulated
    /// process: parks the calling fiber with its declared
    /// [`PendingAccess`] until the scheduler grants the step, performs
    /// `access` atomically, and records the resulting [`StepRecord`].
    /// The access closure receives whether the run records a trace and
    /// returns the interned [`ValueId`] of the value it read/wrote
    /// ([`ValueId::NONE`] when not recording) — no rendering happens.
    pub(crate) fn step<R>(
        &self,
        reg_id: RegId,
        sym: RegSym,
        kind: AccessKind,
        access: impl FnOnce(bool) -> (R, ValueId),
    ) -> R {
        let vm = self.inner.active_vm.load(Ordering::Relaxed);
        assert!(
            !vm.is_null(),
            "simulated register accessed outside a SimWorld::run program"
        );
        crate::vm::step_on(vm, reg_id, sym, kind, access)
    }

    /// Records a high-level event marker in the trace; used by
    /// [`crate::EventLog`]. `invoke` carries the invoked operation's
    /// identity and selects [`TraceItem::HiInvoke`]; `None` records the
    /// conservative [`TraceItem::Hi`] (response or unknown).
    pub(crate) fn push_hi_marker(&self, index: usize, invoke: Option<OpSym>) {
        let vm = self.inner.active_vm.load(Ordering::Relaxed);
        assert!(
            !vm.is_null(),
            "high-level event recorded outside a SimWorld::run program"
        );
        crate::vm::push_hi_on(vm, index, invoke);
    }
}
