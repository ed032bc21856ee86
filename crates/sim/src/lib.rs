//! Deterministic shared-memory simulator: a coroutine-stepped VM with a
//! pruned, parallel schedule explorer.
//!
//! The paper's model is an asynchronous shared-memory system in which an
//! adversary — possibly a *strong* adversary with complete knowledge of
//! the configuration — decides which process takes the next atomic step.
//! This crate is that model, executable:
//!
//! * [`SimWorld`] executes simulated processes as **fibers** (stackful
//!   coroutines) inside a single-threaded step VM. A process runs until
//!   its next shared-memory access, *declares* that access (a
//!   [`PendingAccess`]), and parks; the [`Scheduler`] — consulted with
//!   the full configuration, the paper's strong adaptive adversary —
//!   grants one process its step. One step is two userspace context
//!   switches, not an OS thread handoff (3–13M steps/s depending on
//!   the recording configuration, see [`RunConfig`] and the
//!   `exp_sim_throughput` experiment). Runs are fully deterministic
//!   given the scheduler's decisions.
//! * [`SimMem`] implements the `sl_mem::Mem` trait, so any algorithm
//!   written against `Mem` runs under the simulator unchanged. Every
//!   allocation records a dense [`RegId`] and a globally interned
//!   `sl_check::RegSym` (name + `alloc` call site), so traces point
//!   back into the algorithm under test.
//! * [`EventLog`] records the high-level invocation/response events of a
//!   run, interleaved with the internal register steps, producing the
//!   transcripts consumed by the `sl-check` checkers (and, via
//!   [`EventLog::pretty_transcript`], human-readable counterexamples).
//!   Traced steps are **zero-format**: the VM records each step as one
//!   packed `sl_check::StepCode` (interned register + interned *value*
//!   ids — no `format!`, no string interning), which flows unconverted
//!   into the checkers; labels are decoded lazily on report paths.
//! * [`Explorer`] enumerates adversary schedules depth-first and
//!   stateless (a decision prefix is replayed to reconstruct any node —
//!   cheap, because replays run on the VM), streaming each transcript
//!   into `sl_check`'s builders as it is produced. One engine serves
//!   every exploration: source-set DPOR
//!   (Abdulla–Aronis–Jonsson–Sagonas), which detects races in each
//!   executed schedule with vector clocks and backtracks only where a
//!   reversal is demanded, with sleep sets over the declared pending
//!   accesses. [`PruneMode`] picks one setting of its single
//!   independence relation: [`PruneMode::Unpruned`] treats every pair
//!   of steps as dependent, so every schedule is explored (the oracle);
//!   [`PruneMode::SourceDpor`] uses the syntactic relation (different
//!   processes, different registers, no pause); and
//!   [`PruneMode::OptimalDpor`], the default, refines it with the value
//!   rules (same-register read/read and same-value write/write pairs
//!   commute when no event marker rode on either step), the observer
//!   rule (same-register writes commute when neither value is read
//!   before being overwritten) and, with an `sl-analyze` certificate,
//!   the placement and op-pair relaxations. Every setting backtracks
//!   through one FIFO of demands per decision node: a detected race
//!   enqueues its reversing continuation, whole under `OptimalDpor` (a
//!   **wakeup sequence**, initiated only when it conflicts with every
//!   sleeping process, so no sleep-set-blocked replay is ever started)
//!   and its first step alone otherwise (a source-set insertion). The
//!   reductions can hide a violation when a response marker rides on
//!   a data step; the `explore` module docs state the gap and its
//!   counterexample. The engine **parallelises by per-subtree
//!   ownership** (`Explorer::workers`, or [`env_workers`]): while a
//!   worker idles, the shallowest pending demand of a busy worker's
//!   spine is delegated as a frozen subtree task onto a work-stealing
//!   deque; escaping race demands merge, and a stolen subtree's
//!   transcript shard is grafted, at the joins, and the result —
//!   schedule set, counts, transcript DAG — is bit-identical to
//!   sequential exploration at any worker count. A
//!   frozen subtree is one record wherever it goes — a thread, a
//!   checkpoint or an `sl-dist` worker pipe: a [`FrozenTask`] out, a
//!   [`TaskResult`] ([`Counters`], [`Escape`]s, quarantine reports)
//!   back — and checkpoints and frames spell it with the same render
//!   and parse functions.
//!   Replays run on warm worlds: [`SimWorld::reset`] restores
//!   registers to their `alloc`-time values (keeping names, ids, and
//!   allocation sites), and trace buffers, VM cores, and fiber stacks
//!   are recycled.
//!
//! The original thread-per-process engine has been retired; the
//! portable-fibers parity run (`--features portable-fibers`) is the
//! compatibility gate for the fiber implementations. `sl-api` builds
//! the schedule fuzzer and the object model-checking harness on top of
//! this crate.
//!
//! # Crash resilience and quarantine soundness
//!
//! [`Explorer::explore_resumable`] makes deep DPOR explorations
//! survivable: the root walk periodically freezes its outstanding
//! frontier into a versioned, FNV-1a-64-checksummed checkpoint
//! ([`CheckpointStore`], atomic temp-file + rename, fail-closed parse
//! with named diagnostics — see [`Checkpoint`] for the wire format),
//! and the union of an interrupted
//! run with its resumption is bit-identical to an uninterrupted run at
//! any worker count. [`CheckpointPolicy`] adds a wall-clock deadline
//! and a schedule budget; on expiry the explorer *drains* — writes one
//! clean checkpoint and returns a resumable partial
//! [`ExploreOutcome`]. A failed subtree attempt — a worker panic, or
//! a lease a [`TaskDispatcher`] revoked — is retried with deterministic
//! backoff and then **quarantined**: the poisoned subtree is dumped as
//! a replayable [`PoisonReport`] and exploration continues around it.
//! Quarantine is sound by construction — a quarantined subtree banks
//! *zero* schedules and forces `partial = true` on the outcome, so
//! unexplored schedules can never surface as a false PASS; callers
//! must treat a partial outcome's verdict as "no violation found in
//! the explored portion", never as exhaustive. Deterministic crash
//! injection for testing all of the above lives in [`FaultPlan`]
//! (`SL_FAULT_POINT`/`SL_FAULT_NTH`/`SL_FAULT_MODE`).
//!
//! # Example
//!
//! ```
//! use sl_mem::{Mem, Register};
//! use sl_sim::{RoundRobin, SimWorld};
//!
//! let world = SimWorld::new(2);
//! let mem = world.mem();
//! let reg = mem.alloc("X", 0u64);
//! let r0 = reg.clone();
//! let r1 = reg.clone();
//! let outcome = world.run(
//!     vec![
//!         Box::new(move |_ctx| r0.write(1)),
//!         Box::new(move |_ctx| {
//!             let _ = r1.read();
//!         }),
//!     ],
//!     &mut RoundRobin::new(),
//!     1_000,
//! );
//! assert!(outcome.completed);
//! assert_eq!(outcome.total_steps(), 2);
//! ```

#![deny(unsafe_code)]

mod checkpoint;
mod explore;
pub mod wire;
// Unsafe is confined to the two modules that must speak to raw
// coroutine state: `fiber` (stack switching) and `vm` (the active-core
// pointer the fibers re-enter through). Every `unsafe` block there
// carries a `// SAFETY:` comment; the CI lint enforces both the
// confinement and the comments.
#[allow(unsafe_code)]
mod fiber;
mod log;
mod mem;
mod pool;
mod sched;
mod statics;
#[allow(unsafe_code)]
mod vm;
mod world;

pub use checkpoint::{
    write_poison_report, Checkpoint, CheckpointPolicy, CheckpointStore, CkptNext, CkptNode,
    CkptWriter, Counters, FaultCrash, FaultPlan, FaultPoint, FrozenTask, PoisonReport,
    ResumeExpectation, ResumeSession,
};
pub use explore::{
    env_workers, DetachedShard, Escape, ExploreOutcome, Explorer, PruneMode, ReplayCtx,
    ScheduleDriver, TaskDispatcher, TaskResult,
};
pub use log::EventLog;
pub use mem::{SimMem, SimRegister};
pub use pool::{ReplayPool, Sharded};
pub use sched::{FnScheduler, RoundRobin, Scheduler, Scripted, SeededRandom, STOP_RUN};
pub use statics::{StaticConflicts, StaticTelemetry};
pub use wire::fnv1a64;
pub use world::{
    AccessKind, Decision, PendingAccess, ProcCtx, Program, RegId, RunConfig, RunOutcome, SchedView,
    SimWorld, StepRecord, TraceItem,
};
