//! Bounded exhaustive exploration of scheduling choices.
//!
//! One engine explores every schedule space: the stateless depth-first
//! [`Explorer`], built for the step VM. The caller's runner executes a
//! world per schedule under a [`ScheduleDriver`] (an adversarial
//! [`Scheduler`] handed to `SimWorld::run`). The driver replays a
//! decision prefix and extends it depth-first; after each replay the
//! explorer detects *races* in the executed schedule with vector clocks
//! and backtracks only where a reversal is demanded — source-set
//! dynamic partial-order reduction (Abdulla–Aronis–Jonsson–Sagonas)
//! with sleep sets over the declared [`PendingAccess`]es. Subtrees are
//! delegated to a work-stealing pool, checkpointed, quarantined and
//! dispatched the same way whatever the [`PruneMode`].
//!
//! # One relation, three settings
//!
//! A [`PruneMode`] selects one setting of a single independence
//! relation. One function decides whether two steps commute, for race
//! detection, sleep-set filtering and the wakeup-sequence side
//! condition ([`seq_wakes_all`]) alike:
//!
//! - [`PruneMode::Unpruned`] — **all-dependent**: every pair of steps
//!   conflicts, so every schedule is its own class and the engine
//!   explores the whole schedule tree. This is the oracle; paper
//!   verdicts are decided here (see "The gap" below).
//! - [`PruneMode::SourceDpor`] — **syntactic**:
//!   [`PendingAccess::independent`] — different processes, different
//!   registers, neither a `Local` (pause) step. The independent
//!   reference reduction.
//! - [`PruneMode::OptimalDpor`] (the default) — **refined**: the
//!   syntactic relation plus three internal layers over *executed*
//!   steps: the value rules (same-register read/read and same-value
//!   write/write pairs), the observer rule (writes unobserved before
//!   being overwritten) and, when a [`StaticConflicts`] certificate is
//!   installed in [`Explorer::statics`], the certificate's placement
//!   and op-pair relaxations.
//!
//! All three settings backtrack by one demand rule (see "One demand
//! rule" below): a race enqueues a demand on its node's FIFO, and
//! backtracking pops it. The setting decides only the demand's length
//! — the whole reversing continuation under `OptimalDpor` (a **wakeup
//! sequence**, so no replay it starts is ever cut by a sleep set), its
//! first step otherwise (a source-set insertion) — and two
//! `OptimalDpor`-only skips: a demand with a sleeping weak initial, and
//! one some sleeper would sleep through ([`seq_wakes_all`]).
//!
//! The layers read execution metadata ([`ExecMeta`]: value, event
//! markers, register and op identity) observed post-hoc from the
//! recorded trace, so they refine race detection only. Sleep-set
//! filtering and the wakeup side condition judge *declared* accesses of
//! future steps, whose metadata is unknowable; given unknown metadata
//! the relation reduces to its syntactic base (or stays all-dependent).
//!
//! # Parallel source-set DPOR
//!
//! A node's demand queue grows while descendants run. The explorer
//! parallelises the walk with **per-subtree ownership**, and one rule
//! decides what to share: at every replay boundary, while some worker
//! is idle and no task is queued, the worker publishes the shallowest
//! uncovered demand on its own spine — the biggest subtree it holds —
//! as a frozen [`SubtreeTask`]: decision prefix, the declared access of
//! every prefix step, the prefix's vector clocks, and the sleep set at
//! the subtree root, pushed onto its work-stealing deque. A worker is
//! idle while it waits for a task to steal or for a thief to finish a
//! task it must join; every worker but the root's is idle from the
//! start, and a retry of a failed attempt never publishes, so a failing
//! subtree is split the same way on every attempt. A two-process tree
//! such as Observation 4's (Algorithm 1), where a node never holds a
//! demand besides the child its owner pops next, is shared as well as
//! a bushy one.
//!
//! The demand is taken with the masks the sequential pop will see when
//! it reaches it: the node's own, plus the child in flight there and
//! the siblings already delegated from it. A task explores its subtree
//! with the ordinary sequential algorithm (its demand queues are
//! worker-local); race reversals that point *above* the subtree root
//! cannot be applied locally, so they are recorded as **escapes**
//! (decision depth, weak initials, the demand) in detection order and
//! merged by the owner when it joins the task — exactly where the
//! sequential algorithm would have applied them, because the owner
//! joins a node's delegated siblings, in publish order, right after
//! retiring the child in flight and before popping the node's next
//! demand. Demands only join a queue at its back and masks only grow,
//! so each delegated demand is explored with the inputs, and at the
//! place, of the sequential pop.
//!
//! The result is *bit-identical* to the sequential explorer at any
//! worker count (schedule set, replay and cut counts, pruned totals),
//! provided the exploration exhausts within its run budget: when the
//! budget caps exploration mid-space, which schedules fit under the cap
//! depends on worker timing. The differential suites assert the
//! equality at 1/2/4/8 workers.
//!
//! Transcripts reach a depth-first consumer (`sl_check::DagBuilder`)
//! through the [`ReplayCtx`] subtree hooks. A task its owner claims
//! back at the join runs inline, with no hooks: it runs exactly where
//! the sequential explorer would have, so its transcripts continue the
//! owner's open shard. A stolen task streams into a shard of its own,
//! which the thief detaches unfinished; the owner grafts it into its
//! open shard at the join, structurally and in depth-first order
//! (`sl_check::DagBuilder::graft`). So the live shards are bounded by
//! the steals in flight — a worker holds one open shard per subtree it
//! is running, plus the detached shards of finished steals not yet
//! joined — and an exploration without failed attempts ends with the
//! root's shard alone, with no union to compute. A context that keeps
//! only the `subtree_begin`/`subtree_end` hooks ends every stolen shard
//! on its own instead and unions the shards afterwards.
//!
//! # The all-dependent setting is exhaustive
//!
//! Under [`PruneMode::Unpruned`] every step depends on every earlier
//! one, so happens-before is the word order itself: a step's only race
//! is with its immediate predecessor, when that belongs to another
//! process. Reversing it makes the later process's step the earlier
//! node's next choice, and the reversed run races one node further up,
//! so a process enabled at a node is demanded there as soon as some
//! explored run steps it again. SDPOR's completeness theorem then
//! covers every trace — and every schedule is its own trace. Sleep-set
//! filtering keeps nothing, so no replay is cut and no enabled child is
//! left unexplored (`cut_runs` and `pruned` are 0). As in every
//! setting, a run the step budget stops early demands nothing for the
//! processes it never stepped again; the budget is for runs that
//! finish. `crates/api/tests/unpruned_oracle.rs` pins runs, DAG size
//! and verdict on four workloads against the counts of the retired
//! explorer that branched on every enabled process.
//!
//! # What the reductions preserve, and the gap
//!
//! Strong linearizability quantifies over the *tree* of transcripts, so
//! pruning schedules changes the checked object. The argument for a
//! reduction has two steps:
//!
//! 1. Swapping two adjacent independent steps changes neither the
//!    memory state, nor either step's record, nor any process's
//!    continuation.
//! 2. A pruned schedule differs from some explored schedule only by
//!    such swaps. A strong linearization function for the explored
//!    tree extends to the pruned branches by assigning each reordered
//!    prefix the linearization of its explored permutation image —
//!    *provided the history at corresponding nodes is equal*, so that
//!    the commitments forced at response events transfer.
//!
//! The proviso needs every swap to leave the event sequence of every
//! prefix unchanged, and **the syntactic relation does not guarantee
//! it.** Markers do not ride only on `Local` (pause) steps, which it
//! never commutes: `log.respond` runs in the activation of an
//! operation's last data step, so the response marker rides on that
//! data step ([`ExecMeta::resp`] exists for this case), and
//! [`PendingAccess::independent`] ignores markers. The syntactic
//! relation therefore commutes a response-carrying data step with
//! another process's step on a different register. The swap moves the
//! response across that step: the final histories agree, but the
//! intermediate prefix in which the response came first is missing
//! from the reduced tree, and with it a commitment every strong
//! linearization function must make there.
//!
//! The counterexample is the Aspnes–Attiya–Censor trie max-register
//! (`trie_max_register(4)`; MaxWrite(1) ∥ MaxWrite(3) ∥ MaxRead with
//! the top-down read). [`PruneMode::Unpruned`] refutes strong
//! linearizability (1,568 schedules, conflict depth 15). Every
//! reduction exhausts and passes: [`PruneMode::SourceDpor`] after 294
//! runs, [`PruneMode::OptimalDpor`] after 274. With a
//! `ctx.pause()` before each response, so that every marker rides on a
//! pause, every mode fails at depth 18 (the reductions after 10,170 and
//! 7,605 runs, the oracle within a 30,000-schedule cap). The
//! double-collect read variant is refuted by `Unpruned`, `SourceDpor`
//! and `OptimalDpor` alike.
//!
//! Closing the gap means treating a response-carrying step as dependent
//! with every step of another process; that moves the frozen schedule
//! floors and needs its own measured change. Until then a reduction's
//! PASS is evidence only for workloads whose responses all ride on
//! pauses, and paper verdicts run on the oracle. A FAIL under any
//! setting is a genuine refutation: every explored transcript is a real
//! transcript of the object, the explored set is prefix-closed, and a
//! violation in a prefix-closed subset of the transcript tree is a
//! violation of the whole tree.
//!
//! Source-set DPOR additionally relies on the completeness theorem of
//! SDPOR: every Mazurkiewicz trace of the schedule space is reachable
//! from the explored set by the recorded race reversals, so for every
//! pruned schedule some explored schedule is equivalent to it under
//! the relation's setting. Under [`PruneMode::SourceDpor`] the
//! dependence relation used for race detection is *exactly*
//! `!PendingAccess::independent` — same-register accesses always
//! conflict (even two reads), and `Local` steps conflict with
//! everything. The parallel partitioning does not touch this argument:
//! it changes *who* runs a subtree and *when* a backtrack demand is
//! written into its node, not which demands are raised or which
//! candidates are explored.
//!
//! # Why the value layer is sound
//!
//! The value layer of the refined relation commutes two executed
//! same-register steps of different processes when they are (a) both
//! reads, or (b) both writes of the same interned value — and in either
//! case no invocation/response marker rode on either step's activation
//! (observed from the recorded trace; unknown metadata is treated as
//! conflicting). Swapping two adjacent such steps changes nothing
//! observable: memory is identical after both orders (reads don't
//! write; same-value writes leave the same value, and the intermediate
//! state between two same-value writes is that value either way), each
//! step's record — process, register, kind, value — is unchanged, each
//! process's continuation is unchanged (a read returns the same value
//! in both orders), and because neither step carries an event marker,
//! the interleaving of high-level events with all *other* steps is
//! untouched. So step (1) above holds for the refined relation, and
//! step (2) transfers verbatim for these swaps: the marker guard keeps
//! the proviso.
//!
//! Sleep-set filtering deliberately keeps the conservative syntactic
//! relation (pending accesses are *future* steps — their values and
//! event markers are unknowable at filter time). Mixing a coarser
//! relation into sleep sets is sound: sleeping processes wake *more*
//! often, so sleep sets only ever under-prune relative to the refined
//! relation, and every subtree a sleep set cuts is covered under the
//! syntactic relation, hence a fortiori under the refined one. Race
//! detection and the vector clocks it builds on use the refined
//! relation consistently with each other, which is what SDPOR's
//! completeness theorem needs. The oracle-agreement suites cross-check
//! all of this on small configurations.
//!
//! # Why the static placement relaxation is sound
//!
//! With a certificate installed, the refined relation relaxes the rule
//! "`Local` steps conflict with everything" in exactly one shape: a
//! pause step `l` of process `p` and a data step `d` of process `q ≠ p`
//! commute when (a) no *response* marker rode on `l` (an invocation
//! marker may), (b) no event marker at all rode on `d`, and (c) `d`'s
//! register is licensed by the static certificate. Swapping two such
//! adjacent steps:
//!
//! * changes no memory state and no step record — a pause touches no
//!   register, so `d` reads/writes identically in both orders, and
//!   `p`'s continuation after its pause cannot depend on `d` before
//!   `p`'s *next* declared access (which is a later step, ordered
//!   after both);
//! * changes the *transcript* only by moving `l` (and any invocation
//!   riding on it) across `d`. The event *sequence restricted to
//!   responses* is untouched — `l` carries no response by (a), `d`
//!   carries nothing by (b) — so every linearization commitment forced
//!   at a response event is identical along both orders. A strong
//!   linearization function for the explored tree extends to the
//!   pruned branch by assigning the intermediate node the
//!   linearization of its parent: the only history difference is a
//!   *pending* invocation, which no prefix-preserving linearization is
//!   obliged to linearize before its response.
//!
//! Guard (b) also blocks the converse hazard — moving an invocation
//! across a *response-carrying* data step would change which
//! operations precede it in real-time order. The certificate's license
//! (c) is not needed for the commutation argument itself; it is what
//! makes the static analysis *load-bearing and checkable*: relaxation
//! happens only where the footprint probe actually observed the
//! register, and the dynamic race detector validates every observed
//! data race against the same certificate, aborting on any race the
//! static matrix failed to predict ([`validate_race`]). Unknown
//! execution metadata (untraced runs) satisfies neither (a) nor (b),
//! so the relaxation degrades to the relation without a certificate.
//!
//! # Why the per-op-pair relaxations are sound
//!
//! Version-2 certificates carry an **op-pair may-conflict matrix**
//! (see [`StaticConflicts::pair_probed`] /
//! [`StaticConflicts::pair_licensed`]), keyed by the interned op
//! identity the event log stamps on each invocation marker and the
//! driver threads through [`ExecMeta`]. It licenses two further
//! relaxation shapes:
//!
//! * **R1 — pause/pause.** Two pause steps of different processes,
//!   *neither* carrying a response marker, commute when both
//!   activations are attributed to known ops whose pair the analysis
//!   probed. A pause touches no register, so memory and step records
//!   are unchanged in either order; the transcript changes only by
//!   swapping two adjacent *invocation* events (or nothing at all, for
//!   marker-free pauses). No response moves, so no
//!   response-before-invocation precedence pair — the real-time order
//!   strong linearizability constrains — changes. A strong
//!   linearization function extends to the pruned intermediate node by
//!   assigning it the parent's linearization: the two histories differ
//!   only in the order of two *pending* invocations, which no
//!   prefix-preserving linearization is obliged to linearize yet.
//!   The pair-probed license is, as with (c) above, attribution
//!   discipline rather than part of the commutation argument: unknown
//!   ops ([`sl_check::OpSym::NONE`] — untraced runs, steps outside any
//!   invocation) never match a cell, so the relaxation fails closed.
//!
//! * **R2 — one-marked value pairs.** The value rules (read/read,
//!   same-value write/write, observer writes) classically require both
//!   steps marker-free: moving an event across another *event* would
//!   reorder the history. If however *at most one* of the pair carries
//!   markers, every event of the marked step moves across an
//!   *event-free* step — the recorded event sequence is unchanged, and
//!   the memory argument is the value rule's own (same values, same
//!   records, same continuations). Prefix-preservation holds in both
//!   directions: the intermediate node of the reversed order has
//!   either the same events as the parent (assign the parent's
//!   linearization) or the same events as the final node (assign the
//!   final node's — valid because the event-free step leaves the
//!   history equal). The relaxation is licensed per op pair on the
//!   shared register (`pair_licensed`), which keeps it attributable:
//!   [`validate_race`] maps every dynamic race back to the licensing
//!   cell and aborts if the matrix failed to predict it.
//!
//! # Why the observer layer is sound
//!
//! The observer layer of the refined relation (after
//! Aronis–Jonsson–Lång–Sagonas) commutes two same-register writes of
//! different processes, neither carrying an event marker, when each
//! write is *unobserved and overwritten* in the executed word — the
//! next same-register access after it exists and is a plain write (not
//! a read, not an RMW, which returns the old value). Swapping two
//! adjacent such writes `w_j`, `w_k` changes the register's value only
//! *between* the two writes and between `w_k` and its overwriter —
//! intervals in which, by construction, no step reads the register (any
//! same-register read between them would order the pair through
//! happens-before and no race would be reported). Every step record is
//! unchanged (a write's record carries its own value, which does not
//! depend on the register's prior state), every continuation is
//! unchanged (writes return nothing), the final register state is
//! unchanged (the overwriter executes in both orders), and no event
//! marker moves. So step (1) holds and step (2) transfers exactly as
//! for the value layer, which this one strictly subsumes together with
//! it (a same-value pair commutes by the value rule even when the value
//! *is* later read).
//!
//! Observer status is a property of the whole executed word, so it is
//! recomputed after every replay; when a prefix step's status changes
//! (the suffix changed), race detection re-runs from the first changed
//! index — the cached vector clocks are truncated there — so clocks
//! and race tests always agree with the current word's relation, which
//! is what conditional-independence SDPOR requires.
//!
//! # One demand rule, and why wakeup sequences preserve completeness
//!
//! Source-set and optimal DPOR differ only in what a detected race
//! inserts (Abdulla et al.): one initial of the reversal, or the whole
//! reversing sequence. So each spine node keeps one FIFO of pending
//! demands, and one rule fills it. A race between steps `j` and `k`
//! demands its reversing continuation `v` — the steps after `j` not
//! happens-after it, then `k` — at node `j`, unless a weak initial of
//! `v` is already in the node's source set (that child covers the
//! reversal — the ordinary source-set argument). Under
//! [`PruneMode::OptimalDpor`] the demand is all of `v` (a **wakeup
//! sequence**, a genuine suffix of an already-executed word), and it is
//! also skipped when a weak initial of `v` sleeps at the node (the
//! reversal's trace was explored in the subtree that put the process to
//! sleep — the ordinary sleep-set argument). Under the other settings
//! the demand is `v`'s first step alone, a source-set insertion: a FIFO
//! of one-step demands pops the source set's candidates in insertion
//! order, exactly as a scan of the set would find them. Backtracking
//! pops demands in order, drops those already covered, and replays the
//! first live one in full: every forced step is a step some explored
//! word actually performed, with an up-to-date sleep set threaded
//! through the forced prefix (the driver filters the sleep set across
//! replayed decisions exactly as it does across fresh ones).
//!
//! A one-step demand may wander into a subtree that sleep sets then
//! abandon (a *cut* replay — sound, but wasted work). One side
//! condition makes `OptimalDpor`'s cut-freedom structural rather than
//! probabilistic: a sequence is only *initiated* if it conflicts
//! with every process sleeping at its node ([`seq_wakes_all`] — the
//! defining property of a wakeup sequence for ⟨node, Sleep⟩). A
//! sleeping process independent of every step of the sequence would
//! sleep through the entire forced part, and the free extension could
//! then block on it; dropping such a sequence loses nothing, because
//! orderings that never wake the sleeper are covered by the subtree
//! that put it to sleep, and orderings where some later step *does*
//! conflict with it are demanded by the race with that step — whose
//! reversing continuation contains the waking step and passes the
//! check. Conversely, an initiated sequence wakes every sleeper by its
//! end (the driver filters with the same declared-access relation), the
//! sleep set is empty when the free extension begins, and a sleep set
//! that only ever shrinks cannot block it: **no initiated replay is
//! ever cut**. Completeness is therefore the SDPOR argument verbatim —
//! every reversal demand is either enqueued or provably covered —
//! while the enqueued runs start deep inside the reversed trace
//! instead of gambling on its first step.
//! Delegated [`SubtreeTask`]s carry their demand in the frozen
//! decision prefix (beyond the ghost-spine accesses) the same way they
//! carry sleep sets; escapes merge at the owner's join point, so the
//! schedule set stays bit-identical at any worker count.
//!
//! The oracle-agreement suites (model-check, fuzz and `sl-analyze`
//! differentials) and the parallel-vs-sequential suites cross-check all
//! of this on small configurations — on correct objects, which is why
//! they could not see the gap above.
//!
//! # What race detection costs
//!
//! Each replay places its new steps one at a time, and placing step
//! `k` of process `p` walks back over the earlier steps while it builds
//! `k`'s vector clock (Mattern's clocks over the dependence relation).
//! A clock's own component is its process's step count — debug-asserted
//! as the walk passes each step — so an earlier step `j` of process `q`
//! is already ordered before `k` exactly when the clock being built
//! counts it: `clock(j)[q] <= base[q]`, one compare, with no evaluation
//! of the relation. Only steps the clock leaves unordered consult the
//! relation and its value, observer and certificate layers, so a
//! certificate's `relaxed` counter counts evaluations in this walk, not
//! pairs of the word. The walk also stops as soon as the clock covers
//! every step still ahead of it: per process, the steps at or below the
//! walk's position are read off the process clocks and counted down as
//! the walk passes them, and once the clock covers them all, no
//! remaining step can race with `k` or grow its clock. A race whose node
//! already covers its demand (a weak initial in the node's source set,
//! or sleeping there under `OptimalDpor`; both masks only grow during
//! the pass) is dropped before its demand is built, and the continuation
//! and weak-initial filters use the same one-component test. The clocks
//! live in one row-major table per task, truncated at the first changed
//! step and refilled, and the pass's buffers are reused across replays.
//! The pass enqueues the same demands and escapes, in the same order,
//! and validates the same races as a walk over every earlier step; a
//! seeded randomized test checks it against happens-before, races,
//! continuations and weak initials computed from their definitions.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use sl_check::{OpSym, RegSym, ValueId};

use crate::checkpoint::{
    panic_message, write_poison_report, Checkpoint, CheckpointPolicy, CheckpointStore, CkptNext,
    CkptNode, CkptWriter, Counters, FaultCrash, FaultPlan, FaultPoint, FrozenTask, PoisonReport,
    ResumeExpectation, ResumeSession,
};
use crate::sched::{Scheduler, STOP_RUN};
use crate::statics::StaticConflicts;
use crate::world::{AccessKind, PendingAccess, RunOutcome, SchedView, TraceItem};

/// Statistics of an exploration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExploreOutcome {
    /// Number of complete runs (schedules) executed.
    pub runs: usize,
    /// `true` if the schedule space was exhausted within the run budget;
    /// `false` if exploration stopped at `max_runs` with schedules
    /// left, drained to a checkpoint, or quarantined a subtree.
    pub exhausted: bool,
    /// Number of branch candidates skipped by pruning (0 under
    /// [`PruneMode::Unpruned`]).
    pub pruned: u64,
    /// Number of replays abandoned mid-run because every enabled
    /// process was sleeping — continuations that sleep-set theory
    /// proves are covered by some explored schedule.
    pub cut_runs: usize,
    /// Retries of failed subtree attempts — a panic or a revoked
    /// [`TaskDispatcher`] lease — whether or not the task then succeeded.
    pub retried: u64,
    /// Subtree tasks that failed every attempt and were
    /// quarantined — their schedule subspaces are **unexplored**, so
    /// any verdict over this outcome is partial (see [`Self::partial`]
    /// and the `checkpoint` module's soundness argument).
    pub quarantined: u64,
    /// The exploration drained to a checkpoint on budget expiry
    /// ([`crate::CheckpointPolicy`]); resume with
    /// [`Explorer::explore_resumable`] to continue.
    pub drained: bool,
    /// Partial-verdict marker: the schedule space was not fully covered
    /// because of a drain or a quarantine. A partial outcome must never
    /// be read as a PASS.
    pub partial: bool,
    /// One report per quarantined subtree: the replayable decision
    /// prefix, the attempt count, and the last failure (panic message
    /// or revocation reason).
    pub poisoned: Vec<PoisonReport>,
}

impl ExploreOutcome {
    /// Total schedules replayed: completed runs plus cut replays — the
    /// quantity that bounds exploration wall-clock.
    pub fn schedules_replayed(&self) -> usize {
        self.runs + self.cut_runs
    }
}

/// The largest worker count `SL_EXPLORE_THREADS` accepts literally.
/// Anything above it is a typo or a unit confusion (milliseconds,
/// bytes), not a thread pool this explorer could use — sleep masks cap
/// the *process* universe at 64 and oversubscribing cores only slows
/// replays down — so it is rejected, not clamped.
const MAX_ENV_WORKERS: usize = 1024;

/// The worker count requested via the `SL_EXPLORE_THREADS` environment
/// variable: unset means `1` (sequential), `0` means "one per available
/// CPU", any other number up to `1024` is taken literally. Malformed or
/// absurd values panic with a named diagnostic — a typo in a CI matrix
/// must not silently degrade a parallel lane to sequential.
pub fn env_workers() -> usize {
    let s = match std::env::var("SL_EXPLORE_THREADS") {
        Err(std::env::VarError::NotPresent) => return 1,
        Err(std::env::VarError::NotUnicode(raw)) => panic!(
            "SL_EXPLORE_THREADS: not valid unicode: {raw:?} \
             (fail-closed: refusing to guess a worker count)"
        ),
        Ok(s) => s,
    };
    env_workers_of(&s)
}

/// The parse half of [`env_workers`], split out so the rejection rules
/// are unit-testable without mutating the process environment.
fn env_workers_of(s: &str) -> usize {
    match s.trim().parse::<usize>() {
        Ok(0) => std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        Ok(n) if n <= MAX_ENV_WORKERS => n,
        Ok(n) => panic!(
            "SL_EXPLORE_THREADS: {n} workers is absurd (max {MAX_ENV_WORKERS}; \
             0 = one per available CPU)"
        ),
        Err(_) => panic!(
            "SL_EXPLORE_THREADS: not a worker count: {s:?} \
             (expected an unsigned integer; 0 = one per available CPU)"
        ),
    }
}

/// Which setting of the one independence relation the [`Explorer`]
/// runs under. See the module docs for the three settings and the
/// soundness arguments.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PruneMode {
    /// The oracle: every pair of steps is dependent, so every schedule
    /// is explored (the full schedule tree, no cut and no pruned
    /// candidate).
    Unpruned,
    /// Source-set DPOR over the syntactic relation
    /// ([`PendingAccess::independent`]): backtrack only at detected
    /// races. The independent reference reduction.
    SourceDpor,
    /// Source-set DPOR with **wakeup sequences** over the refined
    /// relation (the default): race reversals enqueue the entire
    /// reversing continuation at the racing node, replayed in full
    /// before free extension, so no sleep-set-blocked run is ever
    /// initiated. Race detection adds the value rules (same-register
    /// read/read and same-value write/write pairs), the observer rule
    /// (writes unobserved before being overwritten) and — when a
    /// [`StaticConflicts`] certificate is installed in
    /// [`Explorer::statics`] — the placement and op-pair relaxations,
    /// with fail-closed race validation. The certificate is optional.
    #[default]
    OptimalDpor,
}

impl PruneMode {
    /// Stable name recorded in checkpoint metadata and fleet frames;
    /// resume rejects a checkpoint taken under a different mode (the
    /// frontier encoding is mode-specific).
    pub fn name(self) -> &'static str {
        match self {
            PruneMode::Unpruned => "Unpruned",
            PruneMode::SourceDpor => "SourceDpor",
            PruneMode::OptimalDpor => "OptimalDpor",
        }
    }

    /// The mode [`PruneMode::name`] calls `name`; `None` for a name no
    /// mode has (the caller must refuse, not guess).
    pub fn from_name(name: &str) -> Option<PruneMode> {
        [
            PruneMode::Unpruned,
            PruneMode::SourceDpor,
            PruneMode::OptimalDpor,
        ]
        .into_iter()
        .find(|mode| mode.name() == name)
    }

    fn relation(self, statics: Option<&StaticConflicts>) -> Relation<'_> {
        match self {
            PruneMode::Unpruned => Relation::AllDependent,
            PruneMode::SourceDpor => Relation::Syntactic,
            PruneMode::OptimalDpor => Relation::Refined(statics),
        }
    }
}

/// The independence relation of one exploration: the setting its
/// [`PruneMode`] selects, plus the certificate the refined setting
/// consults.
#[derive(Clone, Copy)]
enum Relation<'a> {
    AllDependent,
    Syntactic,
    Refined(Option<&'a StaticConflicts>),
}

impl<'a> Relation<'a> {
    /// Whether two steps of *different* processes commute — the one
    /// decision behind race detection (executed steps, metadata
    /// known), sleep-set filtering and [`seq_wakes_all`] (declared
    /// steps, [`StepMeta::unknown`]). Given unknown metadata every
    /// refined layer declines, so declared steps are judged by the
    /// syntactic base. The syntactic test runs first in every refining
    /// setting, and most pairs are settled by it: race detection calls
    /// this only for the earlier steps its vector clocks leave unordered
    /// before the step being placed (see "What race detection costs" in
    /// the module docs).
    fn independent(self, a: &StepMeta, b: &StepMeta) -> bool {
        match self {
            Relation::AllDependent => false,
            _ if a.access.independent(&b.access) => true,
            Relation::Syntactic => false,
            Relation::Refined(statics) => {
                statics.is_some_and(|st| certificate_commutes(st, a, b))
                    || value_commutes(a, b, statics)
            }
        }
    }

    /// [`Relation::independent`] on two declared accesses. Unknown
    /// metadata makes every refined layer decline (debug-checked), so
    /// the answer is the syntactic base's, or `false` when every pair
    /// is dependent — computed directly on the sleep-set hot path.
    fn declared_independent(self, a: PendingAccess, b: PendingAccess) -> bool {
        let independent = !matches!(self, Relation::AllDependent) && a.independent(&b);
        debug_assert_eq!(
            independent,
            self.independent(&StepMeta::unknown(a), &StepMeta::unknown(b))
        );
        independent
    }

    /// The relation as the driver applies it to declared accesses: the
    /// certificate never fires on unknown metadata, so it is dropped
    /// (which also frees the driver of its lifetime).
    fn declared(self) -> Relation<'static> {
        match self {
            Relation::AllDependent => Relation::AllDependent,
            Relation::Syntactic => Relation::Syntactic,
            Relation::Refined(_) => Relation::Refined(None),
        }
    }

    /// The certificate consulted by the refined setting, if any.
    fn statics(self) -> Option<&'a StaticConflicts> {
        match self {
            Relation::Refined(statics) => statics,
            _ => None,
        }
    }
}

/// The certificate layer: the **placement relaxation** (a `Local` step
/// carrying at most an invocation marker commutes with a marker-free
/// data step whose register the certificate licenses) and argument R1
/// (two response-free pauses of probed ops). See the module docs.
fn certificate_commutes(st: &StaticConflicts, a: &StepMeta, b: &StepMeta) -> bool {
    // Exactly one of the pair is a pause: the placement candidate.
    let local_data = match (a.access.is_local(), b.access.is_local()) {
        (true, false) => Some((a, b)),
        (false, true) => Some((b, a)),
        _ => None,
    };
    if let Some((local, data)) = local_data {
        if !local.exec.resp
            && !data.exec.hi
            && data.exec.reg != RegSym::LOCAL
            && st.licensed(data.exec.reg)
        {
            st.note_relaxed();
            return true;
        }
    }
    // Pause/pause, response-free on both sides, both activations
    // attributed to probed ops: swapping reorders two adjacent
    // *invocation* events only, which changes no
    // response-before-invocation precedence pair (argument R1). The
    // pair-probed license keeps the relaxation attributable — and
    // fail-closed for unknown ops.
    if a.access.is_local()
        && b.access.is_local()
        && !a.exec.resp
        && !b.exec.resp
        && st.pair_probed(a.exec.op, b.exec.op)
    {
        st.note_relaxed();
        return true;
    }
    false
}

/// The value and observer layers: same-register read/read and
/// same-value write/write pairs, and write pairs whose values both die
/// unread, commute when no event marker rode on either step — or, with
/// the certificate's op-pair license, on at most one (argument R2).
fn value_commutes(a: &StepMeta, b: &StepMeta, statics: Option<&StaticConflicts>) -> bool {
    if a.access.is_local() || b.access.is_local() {
        return false;
    }
    // Moving a step that carries an event marker reorders the history,
    // unless the other step carries none and the op-pair matrix
    // licenses the pair on this register.
    let marked = a.exec.hi || b.exec.hi;
    if marked
        && !statics.is_some_and(|st| {
            !(a.exec.hi && b.exec.hi)
                && a.exec.reg != RegSym::LOCAL
                && st.pair_licensed(a.exec.op, b.exec.op, a.exec.reg)
        })
    {
        return false;
    }
    let commutes = match (a.access.kind, b.access.kind) {
        (AccessKind::Read, AccessKind::Read) => true,
        (AccessKind::Write, AccessKind::Write) => {
            (!a.exec.value.is_none() && a.exec.value == b.exec.value)
                // Observer rule: both values die unread — swapping the
                // writes changes no read, no record, and (because the
                // overwriter executes either way) no final state.
                || (a.exec.unobs_w && b.exec.unobs_w)
        }
        _ => false,
    };
    if commutes && marked {
        // Reached only through the op-pair license above.
        if let Some(st) = statics {
            st.note_relaxed();
        }
    }
    commutes
}

/// Per-worker replay state owned by the caller of
/// [`Explorer::explore_with`]: one value is built per worker thread and
/// handed to every runner invocation on that thread — the natural home
/// for a reusable [`crate::SimWorld`], scratch buffers, and transcript
/// sinks.
///
/// The hooks bracket **subtrees**, and the replays between a
/// `subtree_begin` and its closing call stream that subtree's
/// transcripts in depth-first order — exactly the contract
/// `sl_check::DagBuilder` needs, so a context keeps a stack of
/// DFS-ordered shards (subtrees nest when a worker helps with another
/// task while waiting at a join):
///
/// - the root exploration, and every retry of a failed subtree
///   attempt, opens with `subtree_begin` and closes with `subtree_end`;
/// - a task taken from a deque (a *stolen* task) opens with
///   `subtree_begin`; a successful attempt closes with
///   `subtree_detach`, which hands the unfinished shard to the task's
///   owner, and the owner calls `subtree_graft` with it when it joins
///   the task — where the sequential explorer would have explored the
///   subtree. A failed attempt closes with `subtree_end`;
/// - a task its owner claims back at the join runs *inline*, with no
///   hooks: it explores exactly where the sequential explorer would
///   have, so its transcripts continue the owner's open subtree.
///
/// A context therefore holds one open shard per subtree it is running
/// and per stolen shard awaiting its owner's join. The defaults keep no
/// shards; a context overriding only `subtree_begin`/`subtree_end` gets
/// every stolen subtree ended as its own shard (`subtree_detach`
/// defaults to `subtree_end` and hands nothing over), to be unioned
/// after the exploration.
pub trait ReplayCtx {
    /// A new subtree's replays start after this call.
    fn subtree_begin(&mut self) {}
    /// The current subtree is fully explored.
    fn subtree_end(&mut self) {}
    /// The current subtree, a stolen task, is fully explored: close it
    /// and hand its unfinished shard to the task's owner, which passes
    /// it to its own [`ReplayCtx::subtree_graft`] at the join. `None`
    /// hands nothing over (the default, after `subtree_end`).
    fn subtree_detach(&mut self) -> Option<DetachedShard> {
        self.subtree_end();
        None
    }
    /// Continues the current subtree with a shard another worker's
    /// [`ReplayCtx::subtree_detach`] handed over. A context whose
    /// `subtree_detach` hands shards over must override this: the
    /// default refuses the shard (fail-closed — dropping it would lose
    /// the subtree's transcripts).
    fn subtree_graft(&mut self, _shard: DetachedShard) {
        panic!("ReplayCtx::subtree_graft: this context hands over shards it cannot graft");
    }
}

/// A stolen subtree's unfinished transcript shard, on its way from the
/// thief's [`ReplayCtx::subtree_detach`] to the owner's
/// [`ReplayCtx::subtree_graft`] (`sl_check::DagBuilder` for
/// [`crate::Sharded`] contexts).
pub type DetachedShard = Box<dyn std::any::Any + Send>;

impl ReplayCtx for () {}

/// One decision observed by the driver: the configuration at the
/// decision point (the chosen process is in the driver's script).
struct Observed {
    runnable: Vec<usize>,
    pending: Vec<PendingAccess>,
    /// Sleep set in force at this decision (meaningful for fresh
    /// decisions; replayed decisions re-use the spine's bookkeeping).
    sleep: u64,
}

/// What the execution of one granted step revealed, observed post-hoc
/// from the recorded trace: the interned value the step read/wrote,
/// the step's interned register identity, and what event markers rode
/// on the step's activation. [`ExecMeta::UNKNOWN`] is the conservative
/// unknown (untraced runs): marker flags set, no register.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct ExecMeta {
    pub(crate) value: ValueId,
    /// Globally interned register identity of the step
    /// ([`RegSym::LOCAL`] for pauses and untraced runs) — what the
    /// static placement relaxation keys its license on.
    pub(crate) reg: RegSym,
    /// Any high-level event marker (invocation *or* response) rode on
    /// this step's activation.
    pub(crate) hi: bool,
    /// A *response* marker rode on this step (implies `hi`).
    /// Responses pin real-time order, so a step carrying one is never
    /// commuted by any relaxation.
    pub(crate) resp: bool,
    /// This write's value is **unobserved and overwritten** in the
    /// current executed word: the next same-register access after it
    /// exists and is a plain write. Meaningful only for write steps,
    /// and only in [`PruneMode::OptimalDpor`]; recomputed over the
    /// whole word after every replay (see [`refresh_observer_flags`]),
    /// never set by the driver. `false` is the conservative unknown.
    pub(crate) unobs_w: bool,
    /// The high-level operation this step belongs to: the op of the
    /// invocation marker most recently observed for the step's process
    /// (a step whose activation *carries* an invocation marker belongs
    /// to the invoked op — that is the placement being commuted), or
    /// [`OpSym::NONE`] after a response, before the first invocation,
    /// and in untraced runs. Keys the per-op-pair placement relaxation.
    pub(crate) op: OpSym,
}

impl ExecMeta {
    const UNKNOWN: ExecMeta = ExecMeta {
        value: ValueId::NONE,
        reg: RegSym::LOCAL,
        hi: true,
        resp: true,
        unobs_w: false,
        op: OpSym::NONE,
    };
}

/// The adversarial scheduler driving one replay of the depth-first
/// explorer: replays the task's decision prefix, then extends the
/// schedule (lowest eligible process first), recording each decision's
/// configuration from `record_from` on so the explorer can detect races
/// afterwards.
///
/// Handed to the caller's runner, which passes it to `SimWorld::run` as
/// the scheduler of a (fresh or reset) world.
pub struct ScheduleDriver {
    prefix: Vec<usize>,
    /// Decisions taken so far in this run.
    chosen: Vec<usize>,
    /// Current sleep set: seeded with the sleep set holding at decision
    /// `record_from`, then evolves across recorded decisions.
    z: u64,
    /// The exploration's relation on declared accesses.
    relation: Relation<'static>,
    /// First decision index whose configuration the explorer still
    /// needs (everything below already has a spine node).
    record_from: usize,
    observed: Vec<Observed>,
    /// Execution metadata per decision, aligned with `chosen`; decision
    /// `i` is finalised at decision `i + 1` (or at
    /// [`Scheduler::run_end`]), when its step is in the trace.
    exec: Vec<ExecMeta>,
    /// Trace items consumed by exec finalisation so far.
    trace_seen: usize,
    /// The op each process is currently executing (indexed by process
    /// id, grown on demand): set by the invocation marker riding a
    /// step's activation, cleared by a response marker. Deterministic —
    /// metadata is observed from decision 0 in every replay, so the
    /// attribution replays identically.
    cur_op: Vec<OpSym>,
    pruned: u64,
    cut: bool,
}

/// Keeps the bits of `set` whose process's pending access (looked up in
/// `runnable`/`pending`) is independent of `of` under `relation`.
fn filter_independent(
    relation: Relation<'_>,
    set: u64,
    of: PendingAccess,
    runnable: &[usize],
    pending: &[PendingAccess],
) -> u64 {
    if set == 0 {
        return 0;
    }
    let mut kept = 0u64;
    for (i, &p) in runnable.iter().enumerate() {
        // Unknown pending: assume conflict.
        if set & (1 << p) != 0
            && pending
                .get(i)
                .is_some_and(|&b| relation.declared_independent(of, b))
        {
            kept |= 1 << p;
        }
    }
    kept
}

impl ScheduleDriver {
    /// `record_from`: first decision index whose configuration the
    /// explorer still needs — replayed decisions before it are not
    /// recorded, which keeps the replay hot path allocation-free.
    /// `sleep_at_record` is the sleep set holding at decision
    /// `record_from`; prefix decisions from there on (the forced steps
    /// of a multi-step demand) are recorded and evolve it.
    fn new(
        prefix: Vec<usize>,
        sleep_at_record: u64,
        record_from: usize,
        relation: Relation<'static>,
    ) -> ScheduleDriver {
        ScheduleDriver {
            z: sleep_at_record,
            chosen: Vec::with_capacity(prefix.len() + 16),
            prefix,
            relation,
            record_from,
            observed: Vec::new(),
            exec: Vec::new(),
            trace_seen: 0,
            cur_op: Vec::new(),
            pruned: 0,
            cut: false,
        }
    }

    /// Finalises the execution metadata of the previous decision from
    /// the trace items recorded since it was granted: the step's value
    /// id, and whether event markers followed it in the same
    /// activation.
    fn observe_exec(&mut self, trace: &[TraceItem]) {
        let window = &trace[self.trace_seen.min(trace.len())..];
        self.trace_seen = trace.len();
        if self.exec.len() >= self.chosen.len() {
            return; // nothing pending (first decision, or already done)
        }
        let p = self.chosen[self.exec.len()];
        if self.cur_op.len() <= p {
            self.cur_op.resize(p + 1, OpSym::NONE);
        }
        let mut meta = ExecMeta::UNKNOWN;
        // Default attribution: the op the process was already inside.
        meta.op = self.cur_op[p];
        let mut seen_step = false;
        for item in window {
            match item {
                TraceItem::Step(s) => {
                    seen_step = true;
                    meta.value = s.value();
                    meta.reg = s.reg_sym();
                    meta.hi = false;
                    meta.resp = false;
                }
                TraceItem::HiInvoke(_, tag) if seen_step => {
                    meta.hi = true;
                    // The step *carries* the invocation: it belongs to
                    // the op it places, as do the following steps.
                    meta.op = *tag;
                    self.cur_op[p] = *tag;
                }
                TraceItem::Hi(_) if seen_step => {
                    meta.hi = true;
                    meta.resp = true;
                    // Response (or unknown) marker: the activation
                    // completes its op; later steps are outside it.
                    self.cur_op[p] = OpSym::NONE;
                }
                TraceItem::Hi(_) | TraceItem::HiInvoke(..) => {}
            }
        }
        self.exec.push(meta);
    }

    /// Records the configuration at the current decision and evolves
    /// the sleep set across granting `p`: sleeping processes stay
    /// asleep only while the granted step commutes with their pending
    /// access.
    fn record(&mut self, view: &SchedView<'_>, p: usize) {
        self.observed.push(Observed {
            runnable: view.runnable.to_vec(),
            pending: view.pending.to_vec(),
            sleep: self.z,
        });
        self.z = match view.pending_of(p) {
            Some(of) => filter_independent(self.relation, self.z, of, view.runnable, view.pending),
            None => 0,
        };
    }

    /// The decision script of the run so far (the full schedule once
    /// the run finishes).
    pub fn script(&self) -> &[usize] {
        &self.chosen
    }

    /// Whether this replay was abandoned because every enabled process
    /// was sleeping (the run's continuations are covered elsewhere).
    /// Cut runs still produce genuine transcript *prefixes*; ingesting
    /// them is sound but optional.
    pub fn was_cut(&self) -> bool {
        self.cut
    }
}

impl Scheduler for ScheduleDriver {
    fn pick(&mut self, view: &SchedView<'_>) -> usize {
        self.observe_exec(view.trace);
        let i = self.chosen.len();
        if i < self.prefix.len() {
            // Replay: runs are deterministic, so the prefix choice must
            // still be runnable.
            let want = self.prefix[i];
            assert!(
                view.runnable.contains(&want),
                "explorer replay diverged: {want} not runnable at decision {i} \
                 (runnable: {:?})",
                view.runnable
            );
            if i >= self.record_from {
                // Recorded replay decisions are the forced steps of a
                // multi-step demand (or a stem): the sleep set must
                // evolve across them exactly as across fresh decisions,
                // so the first free decision — and every recorded node
                // on the way — sees the sleep set the sequential
                // explorer would have.
                self.record(view, want);
            }
            self.chosen.push(want);
            return want;
        }
        // Hard limit, not a debug assertion: `1 << p` would silently
        // alias sleep bits for p >= 64 in release builds, making the
        // pruning unsound — a verification tool must fail loudly.
        assert!(
            view.runnable.iter().all(|&p| p < 64),
            "sleep sets support at most 64 processes"
        );
        // Candidates: runnable processes not in the sleep set.
        let candidates = view
            .runnable
            .iter()
            .filter(|&&p| self.z & (1 << p) == 0)
            .count();
        let Some(&chosen) = view.runnable.iter().find(|&&p| self.z & (1 << p) == 0) else {
            // Every enabled process is sleeping: any continuation from
            // here only reorders commuting steps of schedules explored
            // elsewhere. Abandon the run.
            self.cut = true;
            self.pruned += view.runnable.len() as u64;
            return STOP_RUN;
        };
        self.pruned += (view.runnable.len() - candidates) as u64;
        self.record(view, chosen);
        self.chosen.push(chosen);
        chosen
    }

    fn run_end(&mut self, trace: &[TraceItem]) {
        // The final decision's step (and any trailing event markers)
        // entered the trace after the last `pick`: finalise it here.
        self.observe_exec(trace);
    }
}

/// The stateless depth-first schedule explorer with partial-order
/// reduction. See the module docs.
#[derive(Clone, Debug)]
pub struct Explorer {
    /// Stop after this many replays (completed + cut; the space may not
    /// be exhausted).
    pub max_runs: usize,
    /// Setting of the independence relation (default:
    /// [`PruneMode::OptimalDpor`]).
    pub mode: PruneMode,
    /// Worker threads replaying schedules. `1` explores sequentially on
    /// the calling thread; more partition the schedule tree into
    /// delegated subtrees (deterministic result at any count).
    pub workers: usize,
    /// Initial decision prefix: exploration covers exactly the
    /// schedules extending this stem (empty = the full space).
    pub stem: Vec<usize>,
    /// Static conflict certificate, consulted by
    /// [`PruneMode::OptimalDpor`] when present and ignored by the other
    /// modes. Shared by `Arc` so one certificate serves all workers and
    /// repeated explorations.
    pub statics: Option<Arc<StaticConflicts>>,
}

impl Default for Explorer {
    fn default() -> Self {
        Explorer {
            max_runs: 1_000_000,
            mode: PruneMode::default(),
            workers: 1,
            stem: Vec::new(),
            statics: None,
        }
    }
}

impl Explorer {
    /// Explores the schedule space of the deterministic system embodied
    /// by `runner`, with no per-worker state. See [`Explorer::explore_with`].
    pub fn explore<F>(&self, runner: F) -> ExploreOutcome
    where
        F: Fn(&mut ScheduleDriver) -> RunOutcome + Sync,
    {
        self.explore_with(
            || (),
            |_, driver| {
                let _ = runner(driver);
            },
        )
    }

    /// Explores the schedule space of the deterministic system embodied
    /// by `runner`, threading caller-owned per-worker state through
    /// every replay.
    ///
    /// `new_ctx` is invoked once on each worker thread (including the
    /// calling thread) to build that worker's [`ReplayCtx`]. `runner`
    /// must execute one schedule of the system — same programs, same
    /// initial state every time, on a fresh world or a
    /// [`crate::SimWorld::reset`] one kept in the context — with the
    /// given [`ScheduleDriver`] as its scheduler, typically also
    /// streaming the run's transcript into a sink before returning. It
    /// is invoked once per explored schedule.
    pub fn explore_with<C, NF, F>(&self, new_ctx: NF, runner: F) -> ExploreOutcome
    where
        C: ReplayCtx,
        NF: Fn() -> C + Sync,
        F: Fn(&mut C, &mut ScheduleDriver) + Sync,
    {
        self.explore_session(&new_ctx, &runner, None, None)
    }
}

// ---------------------------------------------------------------------
// The task engine: source-set DPOR, sequential or partitioned across a
// work-stealing pool.
// ---------------------------------------------------------------------

/// One decision point on a DPOR spine: the configuration, the child
/// currently being explored, the children already retired, and the
/// demands race detection raised here in descendant runs.
///
/// *Ghost* nodes (empty `runnable`) stand in for the frozen prefix of a
/// delegated subtree: race detection needs their `chosen`/`access`, but
/// they are never backtracked into — demands against them escape to the
/// subtree's owner instead.
struct SpineNode {
    runnable: Vec<usize>,
    pending: Vec<PendingAccess>,
    /// Sleep set on entry plus retired children — the SDPOR `Sleep`
    /// after each explored child is added.
    sleep_now: u64,
    /// Children whose subtrees are fully explored or delegated.
    done: u64,
    /// Source set, as a mask: the first explored child plus the first
    /// process of every demand ever enqueued here. Only the redundancy
    /// test of [`apply_escape`] reads it; `demands` holds what is still
    /// pending.
    backtrack: u64,
    /// Child currently being explored.
    chosen: usize,
    /// The step `chosen` executes from here — declared access plus
    /// execution metadata — the step of the execution word used for
    /// race detection. The metadata half is overwritten from the
    /// driver's execution record after every replay (deterministic:
    /// replayed prefixes re-derive identical metadata).
    meta: StepMeta,
    /// Siblings published as frozen subtree tasks, in publish order —
    /// joined (shards grafted, results and escapes merged) when the
    /// owner next retires a child of this node.
    delegated: Vec<Arc<TaskSlot>>,
    /// Pending demands, FIFO: backtracking and sibling publication pop
    /// from the front, skipping demands already covered
    /// ([`DporShared::next_demand`]), and replay a chosen one wholesale.
    demands: VecDeque<Demand>,
}

/// One backtrack demand: steps of a race's reversing continuation, in
/// execution order, each as `(process, declared access)`. Under
/// [`PruneMode::OptimalDpor`] it is the whole continuation (a wakeup
/// sequence); otherwise its first step alone (a source-set insertion).
/// The accesses are the race-time declarations of the continuation's
/// steps — replay is deterministic, so they are exactly what the forced
/// steps re-declare — and exist to decide [`seq_wakes_all`] without
/// replaying anything.
type Demand = Vec<(usize, PendingAccess)>;

/// Whether `seq` conflicts with every process sleeping at `node`
/// (`sleep` is the caller's view of the sleep set — the live
/// `sleep_now`, or the mask [`publish_shallowest`] builds).
///
/// This is the defining side condition of a *wakeup sequence* for
/// ⟨node, Sleep⟩: a sleeping process whose pending access is
/// independent of **every** step of the sequence would sleep through
/// the entire forced part, and the replay could then block on it — the
/// one way a sleep-set-blocked run could still be initiated. Such a
/// sequence is redundant: orderings that never wake the sleeper are
/// covered by the subtree that put it to sleep, and orderings where a
/// later step does conflict with it are demanded by the race with that
/// step, whose reversing continuation contains the waking step and so
/// passes this check. Conversely, when the check holds, the driver —
/// which filters its sleep set with the same declared-access relation
/// at every forced decision — has woken every sleeper by the end of the
/// sequence, so the free extension beyond it can never block.
fn seq_wakes_all(
    relation: Relation<'_>,
    node: &SpineNode,
    sleep: u64,
    seq: &[(usize, PendingAccess)],
) -> bool {
    if sleep == 0 {
        return true;
    }
    for (i, &p) in node.runnable.iter().enumerate() {
        if sleep & (1 << p) == 0 {
            continue;
        }
        let pending = node.pending.get(i).copied().unwrap_or(PendingAccess::LOCAL);
        if seq
            .iter()
            .all(|&(_, a)| relation.declared_independent(a, pending))
        {
            return false;
        }
    }
    true
}

impl SpineNode {
    fn ghost(chosen: usize, meta: StepMeta) -> SpineNode {
        SpineNode {
            runnable: Vec::new(),
            pending: Vec::new(),
            sleep_now: 0,
            done: 0,
            backtrack: 0,
            chosen,
            meta,
            delegated: Vec::new(),
            demands: VecDeque::new(),
        }
    }

    fn pending_of(&self, p: usize) -> PendingAccess {
        let i = self
            .runnable
            .iter()
            .position(|&q| q == p)
            .expect("a demanded process must be enabled");
        self.pending[i]
    }

    /// Whether a demand whose weak initials are the mask `initials` is
    /// covered here (see [`apply_escape`]). `backtrack` and `sleep_now`
    /// only grow while a task runs, so a covered demand stays covered.
    fn covers(&self, initials: u64, optimal: bool) -> bool {
        self.backtrack & initials != 0 || (optimal && self.sleep_now & initials != 0)
    }

    /// Queues an uncovered demand and adds its first process to the
    /// source set.
    fn enqueue(&mut self, seq: Demand) {
        self.backtrack |= 1 << seq[0].0;
        self.demands.push_back(seq);
    }
}

/// One step of the executed word as race detection sees it: the
/// declared [`PendingAccess`] plus the post-hoc [`ExecMeta`].
#[derive(Clone, Copy, Debug)]
struct StepMeta {
    access: PendingAccess,
    exec: ExecMeta,
}

impl StepMeta {
    /// A step whose execution metadata is not (yet) known — every
    /// refined layer of the relation treats it as conflicting.
    fn unknown(access: PendingAccess) -> StepMeta {
        StepMeta {
            access,
            exec: ExecMeta::UNKNOWN,
        }
    }
}

/// Recomputes every spine step's unobserved-and-overwritten flag
/// ([`ExecMeta::unobs_w`]) for the current executed word: a write is
/// flagged when the next same-register access after it exists and is a
/// plain write. Keys on the *declared* accesses (register identity and
/// kind are known even when execution metadata is not).
///
/// Returns the smallest index whose flag changed (`spine.len()` when
/// none did): observer status is suffix-dependent, so a changed prefix
/// flag invalidates the cached vector clocks and race conclusions from
/// that index on — the caller lowers its race-detection window
/// accordingly.
fn refresh_observer_flags(spine: &mut [SpineNode]) -> usize {
    let mut changed = spine.len();
    // Kind of the next (in word order) access per register, maintained
    // by a backward scan. Registers are few; linear probing is fine.
    let mut next_kind: Vec<(crate::world::RegId, AccessKind)> = Vec::new();
    for i in (0..spine.len()).rev() {
        let access = spine[i].meta.access;
        if access.is_local() {
            continue; // pauses touch no register and keep no flag
        }
        let slot = next_kind.iter().position(|(r, _)| *r == access.reg);
        let flag = access.kind == AccessKind::Write
            && matches!(slot.map(|s| next_kind[s].1), Some(AccessKind::Write));
        match slot {
            Some(s) => next_kind[s].1 = access.kind,
            None => next_kind.push((access.reg, access.kind)),
        }
        if spine[i].meta.exec.unobs_w != flag {
            spine[i].meta.exec.unobs_w = flag;
            changed = i;
        }
    }
    changed
}

/// Vector clocks of the executed word's steps, one row of `width`
/// components per step, row-major in one buffer that race detection
/// truncates and refills across replays. Component `q` of step `i`'s
/// row counts the steps of process `q` that happen-before step `i` or
/// are step `i`; so the row's own component is its process's step
/// count, and step `j` of process `q` happens-before step `i` exactly
/// when `row(j)[q] <= row(i)[q]`.
#[derive(Clone, Default)]
struct ClockTable {
    /// Components per row: the process universe the rows were built
    /// for.
    width: usize,
    rows: Vec<u32>,
}

impl ClockTable {
    /// Number of steps with a clock.
    fn len(&self) -> usize {
        self.rows.len().checked_div(self.width).unwrap_or(0)
    }

    fn row(&self, i: usize) -> &[u32] {
        &self.rows[i * self.width..(i + 1) * self.width]
    }

    /// Keeps the clocks of the first `n` steps.
    fn truncate(&mut self, n: usize) {
        self.rows.truncate(n * self.width);
    }

    /// The clocks of the first `n` steps.
    fn prefix(&self, n: usize) -> ClockTable {
        ClockTable {
            width: self.width,
            rows: self.rows[..n * self.width].to_vec(),
        }
    }
}

/// Buffers one task's race-detection passes reuse from replay to
/// replay; their contents never outlive a pass.
#[derive(Default)]
struct RaceBuffers {
    /// Row `p`: the clock of process `p`'s last step so far.
    proc_clocks: Vec<u32>,
    /// Per process, its steps not yet passed by the backward scan.
    ahead: Vec<u32>,
    /// The clock being built for the step being placed.
    base: Vec<u32>,
    /// Earlier steps racing with the step being placed, nearest first.
    races: Vec<usize>,
    /// One race's reversing continuation, as word indices.
    cont: Vec<usize>,
    /// Per process, the own component of its first step in `cont`
    /// (`u32::MAX` while it has none).
    first: Vec<u32>,
    /// One race's weak initials, in order of first appearance.
    initials: Vec<usize>,
}

/// A frozen unexplored subtree of the source-DPOR schedule tree, in
/// its in-process form: the portable [`FrozenTask`] plus the caches a
/// worker of the same process may reuse.
///
/// `Clone` so a [`TaskSlot`] can retain the frozen spec for the
/// checkpointer and for quarantine retries while a claimed copy runs.
#[derive(Clone)]
struct SubtreeTask {
    /// Full decision prefix from the schedule-tree root; its entry at
    /// `floor - 1` is the reversal this task explores.
    prefix: Vec<usize>,
    /// Step metadata of each prefix step (the task's ghost spine for
    /// race detection). Empty for the root task, whose stem accesses
    /// are observed on the first replay instead.
    accesses: Vec<StepMeta>,
    /// Vector clocks of the ghost steps below the reversal, sliced from
    /// the owner's table (the reversal's clock is computed by the
    /// task's own first race-detection pass).
    clocks: ClockTable,
    /// Sleep set at the subtree root.
    sleep: u64,
    /// Backtrack floor: decision indices below this belong to the
    /// parent (ghosts); demands against them escape.
    floor: usize,
}

impl SubtreeTask {
    /// The process whose step at the floor this task reverses into:
    /// the sibling its owner retires when joining it.
    fn reversal(&self) -> usize {
        self.prefix[self.floor - 1]
    }

    /// The portable form: the caches stay behind.
    fn freeze(&self) -> FrozenTask {
        FrozenTask {
            prefix: self.prefix.clone(),
            accesses: self.accesses.iter().map(|m| m.access).collect(),
            sleep: self.sleep,
            floor: self.floor,
        }
    }

    /// A task rebuilt from its portable form, with unknown execution
    /// metadata and empty clocks. It explores bit-identically: the
    /// first counted replay recomputes both exactly as the owner would
    /// have (see [`restore_spine`]).
    fn thaw(task: &FrozenTask) -> SubtreeTask {
        SubtreeTask {
            prefix: task.prefix.clone(),
            accesses: task
                .accesses
                .iter()
                .copied()
                .map(StepMeta::unknown)
                .collect(),
            clocks: ClockTable::default(),
            sleep: task.sleep,
            floor: task.floor,
        }
    }
}

/// A backtrack demand raised inside a subtree against a decision index
/// below its floor, carried to the owner and merged at the join.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Escape {
    /// Global decision index of the demanding race's earlier step.
    pub depth: usize,
    /// Weak initials of the reversing continuation; they include the
    /// process of `seq`'s first step.
    pub initials: Vec<usize>,
    /// The demand, nonempty: the reversing continuation's steps in
    /// execution order — all of them under [`PruneMode::OptimalDpor`],
    /// the first alone otherwise — each as `(process, declared
    /// access)`. Enqueued at `depth` unless an initial is already there.
    pub seq: Vec<(usize, PendingAccess)>,
}

/// The exploration of one finished subtree: what a join merges, what a
/// [`TaskDispatcher`] returns and what an `sl-dist` result frame
/// carries.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TaskResult {
    /// Runs, cut replays, pruned candidates, retries and quarantines,
    /// folded up from descendants.
    pub counters: Counters,
    /// The subtree hit the run budget (never set by
    /// [`Explorer::explore_frozen_task`], which runs uncapped).
    pub capped: bool,
    /// The budget expired: this task abandoned work at a replay
    /// boundary (the root wrote a checkpoint first). Never crosses a
    /// process boundary: a worker holds no budget.
    pub drained: bool,
    /// One report per quarantined subtree.
    pub poisoned: Vec<PoisonReport>,
    /// Backtrack demands against decision indices below the task's
    /// floor, in detection order.
    pub escapes: Vec<Escape>,
}

/// Farms frozen subtree tasks to somewhere else — typically worker
/// processes, via `sl-dist`'s lease-table coordinator.
///
/// `dispatch` makes one attempt at the task. `None` declines, and the
/// calling worker runs the attempt in-process (no worker process free
/// or spawnable). `Some(Ok(_))` is the subtree's [`TaskResult`], merged
/// as is, so the dispatcher answers for its escapes pointing below the
/// task's floor. `Some(Err(reason))` is a revoked lease: a failed
/// attempt that the engine retries (offering the task again) and then
/// quarantines with `reason`, as it does a panic. Called concurrently
/// from every exploration thread.
pub trait TaskDispatcher: Sync {
    /// Makes one remote attempt at a frozen task, or declines.
    fn dispatch(&self, task: &FrozenTask) -> Option<Result<TaskResult, String>>;
}

const TASK_QUEUED: u8 = 0;
const TASK_RUNNING: u8 = 1;
const TASK_DONE: u8 = 2;

/// A published subtree task: claimable exactly once, completed with its
/// [`TaskResult`] and, when stolen, its detached transcript shard.
/// Deques may hold stale handles to already-claimed slots; `claim`
/// arbitrates.
struct TaskSlot {
    state: AtomicU8,
    /// The frozen spec, immutable after construction: the checkpointer
    /// reads it lock-free regardless of claim state, and claiming hands
    /// out a clone.
    spec: SubtreeTask,
    output: Mutex<Option<Joined>>,
}

/// What the owner takes from a finished task at the join: its result,
/// and the shard a stolen attempt detached for the owner to graft.
type Joined = (TaskResult, Option<DetachedShard>);

impl TaskSlot {
    fn new(spec: SubtreeTask) -> TaskSlot {
        TaskSlot {
            state: AtomicU8::new(TASK_QUEUED),
            spec,
            output: Mutex::new(None),
        }
    }

    /// Takes the task for execution; `None` if someone else already has.
    fn claim(&self) -> Option<SubtreeTask> {
        if self
            .state
            .compare_exchange(
                TASK_QUEUED,
                TASK_RUNNING,
                Ordering::SeqCst,
                Ordering::SeqCst,
            )
            .is_ok()
        {
            Some(self.spec.clone())
        } else {
            None
        }
    }

    fn complete(&self, out: Joined) {
        *self.output.lock().unwrap() = Some(out);
        self.state.store(TASK_DONE, Ordering::SeqCst);
    }

    fn is_done(&self) -> bool {
        self.state.load(Ordering::SeqCst) == TASK_DONE
    }
}

/// State shared by every worker of one exploration.
struct DporShared<'a, NF, F> {
    new_ctx: &'a NF,
    runner: &'a F,
    max_runs: usize,
    /// The independence relation of [`Explorer::mode`]: race detection,
    /// sleep sets and the wakeup side condition all consult it, and its
    /// certificate (if any) validates every detected race.
    relation: Relation<'a>,
    /// [`PruneMode::OptimalDpor`]: a demand is the whole reversing
    /// continuation, is skipped when a weak initial sleeps at its node,
    /// and is only started when it wakes every sleeper
    /// ([`seq_wakes_all`]); the observer flags of the executed word
    /// stay current.
    optimal: bool,
    /// Length of the user-supplied stem: demands below it are dropped
    /// (the stem is never backtracked into).
    hard_stem: usize,
    /// Per-worker deques of published subtree tasks.
    deques: Vec<Mutex<VecDeque<Arc<TaskSlot>>>>,
    /// Published-but-unclaimed task count: a task is published only
    /// while this is zero ([`publish_shallowest`]).
    queued: AtomicUsize,
    /// Workers with nothing to run: waiting for a task to steal, or for
    /// a thief to finish a task they must join. Every worker but the
    /// root's is idle from the start, so the first publication does not
    /// wait for a thread to wake up.
    idle: AtomicUsize,
    /// Global replay reservation counter (runs + cuts).
    replays: AtomicUsize,
    /// Root exploration finished (or aborted): workers exit.
    shutdown: AtomicBool,
    /// First panic payload raised by any worker's runner.
    poison: Mutex<Option<Box<dyn std::any::Any + Send>>>,
    poisoned: AtomicBool,
    /// Deterministic fault injection (resumable sessions only; `None`
    /// everywhere else, making every `fire` a no-op).
    fault: Option<&'a FaultPlan>,
    /// The budget expired: every task abandons work at its next replay
    /// boundary. Raised only by the root, after it wrote a checkpoint.
    draining: AtomicBool,
    /// Where quarantine writes poisoned-task reports (`SL_POISON_DIR`;
    /// unset means reports only travel in the outcome).
    poison_dir: Option<std::path::PathBuf>,
    /// Remote dispatch hook ([`Explorer::explore_dispatched`] only):
    /// non-root tasks are offered here before running in-process.
    dispatcher: Option<&'a dyn TaskDispatcher>,
}

/// Waiting at a join, a worker helps with other queued tasks; the
/// recursion this nests is bounded to keep stack usage predictable.
const MAX_HELP_DEPTH: usize = 32;

impl<'a, NF, F> DporShared<'a, NF, F> {
    fn new(
        explorer: &'a Explorer,
        new_ctx: &'a NF,
        runner: &'a F,
        workers: usize,
        max_runs: usize,
        fault: Option<&'a FaultPlan>,
        dispatcher: Option<&'a dyn TaskDispatcher>,
    ) -> Self {
        DporShared {
            new_ctx,
            runner,
            max_runs,
            relation: explorer.mode.relation(explorer.statics.as_deref()),
            optimal: explorer.mode == PruneMode::OptimalDpor,
            hard_stem: explorer.stem.len(),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            queued: AtomicUsize::new(0),
            idle: AtomicUsize::new(workers - 1),
            replays: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            poison: Mutex::new(None),
            poisoned: AtomicBool::new(false),
            fault,
            draining: AtomicBool::new(false),
            poison_dir: std::env::var_os("SL_POISON_DIR").map(std::path::PathBuf::from),
            dispatcher,
        }
    }

    fn record_poison(&self, payload: Box<dyn std::any::Any + Send>) {
        let mut slot = self.poison.lock().unwrap();
        if slot.is_none() {
            *slot = Some(payload);
        }
        self.poisoned.store(true, Ordering::SeqCst);
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// Pops `node`'s demands until one is not covered, given `done` and
    /// `sleep` (the live masks, or those [`publish_shallowest`] builds
    /// for the pop still ahead): a demand is covered when its first
    /// process was explored, delegated or put to sleep, or — under
    /// [`PruneMode::OptimalDpor`] — when some sleeper would sleep
    /// through all of it. Masks only grow and [`seq_wakes_all`] only
    /// gets harder as the sleep set grows, so a dropped demand would
    /// stay covered.
    fn next_demand(&self, node: &mut SpineNode, done: u64, sleep: u64) -> Option<Demand> {
        while let Some(seq) = node.demands.pop_front() {
            let covered = (done | sleep) & (1 << seq[0].0) != 0
                || (self.optimal && !seq_wakes_all(self.relation, node, sleep, &seq));
            if !covered {
                return Some(seq);
            }
        }
        None
    }

    /// Pops a claimable task: own deque LIFO first (depth-first
    /// locally), then FIFO-steal from siblings (splits near the root).
    fn steal_task(&self, me: usize) -> Option<(Arc<TaskSlot>, SubtreeTask)> {
        let order = std::iter::once(me).chain((0..self.deques.len()).filter(move |v| *v != me));
        for (i, v) in order.enumerate() {
            loop {
                let slot = {
                    let mut dq = self.deques[v].lock().unwrap();
                    if i == 0 {
                        dq.pop_back()
                    } else {
                        dq.pop_front()
                    }
                };
                let Some(slot) = slot else { break };
                if let Some(task) = slot.claim() {
                    self.queued.fetch_sub(1, Ordering::Relaxed);
                    if let Some(plan) = self.fault {
                        plan.fire(FaultPoint::Steal);
                    }
                    return Some((slot, task));
                }
                // Stale handle (claimed back at a join): drop and keep
                // draining this deque.
            }
        }
        None
    }
}

impl Explorer {
    /// [`Explorer::explore_with`] with a remote dispatch hook: every
    /// attempt at a delegated (non-root) subtree task is first offered
    /// to `dispatcher`, and only runs in-process when the dispatcher
    /// declines; a revoked lease is retried and quarantined like a
    /// panic — see [`TaskDispatcher`]. With a dispatcher that always
    /// declines this is exactly [`Explorer::explore_with`]; with one
    /// that farms tasks to `sl-dist` worker processes the merged result
    /// is still bit-identical (a task leaves as its [`FrozenTask`] and
    /// its [`TaskResult`] merges the same way a local join does).
    pub fn explore_dispatched<C, NF, F>(
        &self,
        new_ctx: NF,
        runner: F,
        dispatcher: &dyn TaskDispatcher,
    ) -> ExploreOutcome
    where
        C: ReplayCtx,
        NF: Fn() -> C + Sync,
        F: Fn(&mut C, &mut ScheduleDriver) + Sync,
    {
        self.explore_session(&new_ctx, &runner, None, Some(dispatcher))
    }

    /// Worker-process side of distributed dispatch: explores one
    /// [`FrozenTask`] to exhaustion on the calling thread and returns
    /// its [`TaskResult`], the record a result frame carries back. The
    /// explorer must be configured identically to the dispatching
    /// coordinator's (mode, stem, statics) — `sl-dist` pins both to one
    /// named workload. Runs uncapped: the coordinator owns the global
    /// run budget and banks dispatched counters against it.
    pub fn explore_frozen_task<C, NF, F>(
        &self,
        new_ctx: NF,
        runner: F,
        task: &FrozenTask,
    ) -> TaskResult
    where
        C: ReplayCtx,
        NF: Fn() -> C + Sync,
        F: Fn(&mut C, &mut ScheduleDriver) + Sync,
    {
        let shared = DporShared::new(self, &new_ctx, &runner, 1, usize::MAX, None, None);
        let mut ctx = (shared.new_ctx)();
        let task = SubtreeTask::thaw(task);
        run_task_guarded(&shared, 0, 0, &mut ctx, &task, Claim::Root, None).0
    }

    /// Resumable exploration: periodic frontier checkpoints,
    /// budget-drained degradation, and (optionally) deterministic fault
    /// injection — see the crate docs' crash-resilience section, and
    /// [`Checkpoint`] for the format.
    ///
    /// If `session.store` holds a checkpoint, it is loaded (fail-closed:
    /// any load error panics with the store's named diagnostic) and the
    /// exploration continues from the snapshotted frontier; otherwise a
    /// fresh exploration starts. On budget expiry
    /// ([`CheckpointPolicy::max_schedules`] /
    /// [`CheckpointPolicy::deadline`]) the explorer drains to a clean
    /// checkpoint and returns a partial outcome with
    /// [`ExploreOutcome::drained`] set; the union of a drained run and
    /// its resumption is bit-identical to an uninterrupted run at any
    /// worker count. A finished (non-drained) resumable run deletes its
    /// checkpoint.
    pub fn explore_resumable<C, NF, F>(
        &self,
        new_ctx: NF,
        runner: F,
        session: &ResumeSession<'_>,
    ) -> ExploreOutcome
    where
        C: ReplayCtx,
        NF: Fn() -> C + Sync,
        F: Fn(&mut C, &mut ScheduleDriver) + Sync,
    {
        let workers = self.workers.max(1);
        let (restore, base) = if session.store.exists() {
            let expect = ResumeExpectation {
                workers,
                mode: self.mode.name(),
                stem_len: self.stem.len(),
            };
            let ckpt = session
                .store
                .load(Some(&expect), session.fault.as_deref())
                .unwrap_or_else(|e| panic!("cannot resume (fail-closed): {e}"));
            let base = ckpt.counters;
            (Some(ckpt), base)
        } else {
            (None, Counters::default())
        };
        self.explore_session(
            &new_ctx,
            &runner,
            Some(SessionState {
                store: session.store,
                policy: &session.policy,
                fault: session.fault.as_deref(),
                restore,
                base,
            }),
            None,
        )
    }

    /// The task engine behind every entry point: the root task on the
    /// calling thread, partitioned across a work-stealing pool of
    /// `workers - 1` helpers, with identical results at any worker
    /// count (see the module docs).
    fn explore_session<C, NF, F>(
        &self,
        new_ctx: &NF,
        runner: &F,
        session: Option<SessionState<'_>>,
        dispatcher: Option<&dyn TaskDispatcher>,
    ) -> ExploreOutcome
    where
        C: ReplayCtx,
        NF: Fn() -> C + Sync,
        F: Fn(&mut C, &mut ScheduleDriver) + Sync,
    {
        let workers = self.workers.max(1);
        let base = session.as_ref().map(|s| s.base).unwrap_or_default();
        let base_schedules = (base.runs + base.cut_runs) as usize;
        let shared = DporShared::new(
            self,
            new_ctx,
            runner,
            workers,
            // Already-banked schedules count against the run budget, so
            // an interrupted + resumed run caps at the same total.
            self.max_runs.saturating_sub(base_schedules),
            session.as_ref().and_then(|s| s.fault),
            dispatcher,
        );
        // Checkpoint IO runs on a dedicated writer thread, so a cadence
        // tick of the root walk only builds and renders the snapshot
        // (see `CkptWriter` for the measured costs). Under fault
        // injection the writer is disabled so `ckpt-write` crashes stay
        // synchronous and deterministic.
        let writer = session
            .as_ref()
            .filter(|s| s.fault.is_none())
            .map(|s| CkptWriter::spawn(s.store));
        let mut rc = session.map(|s| RootCkpt {
            store: s.store,
            policy: s.policy,
            fault: s.fault,
            writer: writer.as_ref(),
            mode: self.mode.name(),
            workers,
            stem_len: self.stem.len(),
            base: s.base,
            replays_since: 0,
            restore: s.restore,
        });
        let root = SubtreeTask::thaw(&FrozenTask {
            prefix: self.stem.clone(),
            accesses: Vec::new(),
            sleep: 0,
            floor: self.stem.len(),
        });
        // The calling thread runs the root; `workers - 1` helpers steal
        // (none at one worker, where nothing is ever published).
        let mut root_out = None;
        std::thread::scope(|scope| {
            for me in 1..workers {
                let shared = &shared;
                scope.spawn(move || worker_loop(shared, me));
            }
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let mut ctx = new_ctx();
                run_task_guarded(&shared, 0, 0, &mut ctx, &root, Claim::Root, rc.as_mut()).0
            }));
            match result {
                Ok(out) => root_out = Some(out),
                Err(payload) => shared.record_poison(payload),
            }
            shared.shutdown.store(true, Ordering::SeqCst);
        });
        if let Some(payload) = shared.poison.lock().unwrap().take() {
            std::panic::resume_unwind(payload);
        }
        let root_out = root_out.expect("root exploration completed without a panic");
        let mut total = base;
        total.add(root_out.counters);
        let outcome = ExploreOutcome {
            runs: total.runs as usize,
            exhausted: !root_out.capped && !root_out.drained && total.quarantined == 0,
            pruned: total.pruned,
            cut_runs: total.cut_runs as usize,
            retried: total.retried,
            quarantined: total.quarantined,
            drained: root_out.drained,
            partial: root_out.drained || total.quarantined > 0,
            poisoned: root_out.poisoned,
        };
        let ckpt_store = rc.as_ref().map(|r| r.store.clone());
        drop(rc);
        // Flush the async writer before touching the file: the drain
        // snapshot becomes durable here, and a queued periodic write
        // must not land after `clear()` resurrects nothing.
        if let Some(writer) = writer {
            writer.finish();
        }
        if let Some(store) = ckpt_store {
            // A run that actually finished (did not drain) owns no
            // resumable state any more: delete the checkpoint so a
            // later resumable invocation starts fresh. Quarantined
            // prefixes live in the poisoned-task reports, not here.
            if !outcome.drained {
                store.clear();
            }
        }
        outcome
    }
}

/// Per-invocation state of a resumable DPOR session, threaded into
/// [`Explorer::explore_session`].
struct SessionState<'a> {
    store: &'a CheckpointStore,
    policy: &'a CheckpointPolicy,
    fault: Option<&'a FaultPlan>,
    /// The loaded checkpoint to restore from (`None` = fresh start).
    restore: Option<Checkpoint>,
    /// Counters banked by the interrupted run (zero on a fresh start).
    base: Counters,
}

/// Root-only checkpointing state: owned by whichever thread runs the
/// root task (checkpoints snapshot the **root's** spine — delegated
/// subtrees are represented by their frozen specs, so nothing another
/// worker mutates is ever read).
struct RootCkpt<'a> {
    store: &'a CheckpointStore,
    policy: &'a CheckpointPolicy,
    fault: Option<&'a FaultPlan>,
    /// Asynchronous publication path (absent under fault injection,
    /// where writes stay synchronous so `ckpt-write` crashes land
    /// deterministically on the exploring thread).
    writer: Option<&'a CkptWriter>,
    mode: &'static str,
    workers: usize,
    stem_len: usize,
    /// Counters banked by the interrupted run; snapshots write
    /// `base + out` so each checkpoint carries run-total counters.
    base: Counters,
    replays_since: u64,
    restore: Option<Checkpoint>,
}

/// Serializes the root spine into a [`Checkpoint`] and writes it
/// through the store (atomic temp + rename). Skipped while the spine is
/// still empty — there is nothing to resume before the first replay.
///
/// When an async [`CkptWriter`] is installed, periodic snapshots
/// (`durable = false`) are handed to the writer thread best-effort
/// (skipped if it is behind) and the drain snapshot (`durable = true`)
/// is enqueued guaranteed — it is on disk once the writer is finished,
/// which [`Explorer::explore_resumable`] does before returning.
fn write_root_checkpoint(
    rc: &mut RootCkpt<'_>,
    spine: &[SpineNode],
    (prefix, sleep): (&[usize], u64),
    out: &TaskResult,
    durable: bool,
) {
    if spine.is_empty() {
        return;
    }
    // The pending descent extends the spine's chosen path.
    debug_assert!(spine.iter().zip(prefix).all(|(n, &p)| n.chosen == p));
    let mut counters = rc.base;
    counters.add(out.counters);
    let ckpt = Checkpoint {
        workload: rc.store.workload().to_string(),
        mode: rc.mode.to_string(),
        workers: rc.workers,
        stem_len: rc.stem_len,
        counters,
        next: CkptNext {
            tail: prefix[spine.len()..].to_vec(),
            sleep,
        },
        spine: spine
            .iter()
            .map(|node| CkptNode {
                chosen: node.chosen,
                done: node.done,
                sleep: node.sleep_now,
                backtrack: node.backtrack,
                runnable: node.runnable.clone(),
                pending: node.pending.clone(),
                demands: node.demands.iter().cloned().collect(),
                tasks: node.delegated.iter().map(|s| s.spec.freeze()).collect(),
            })
            .collect(),
    };
    rc.replays_since = 0;
    match rc.writer {
        Some(writer) => {
            let text = ckpt.render();
            if durable {
                writer.publish_durable(text);
            } else {
                writer.publish(text);
            }
        }
        None => {
            if let Err(e) = rc.store.save(&ckpt, rc.fault) {
                panic!("checkpoint write failed (fail-closed): {e}");
            }
        }
    }
}

/// Rebuilds the root spine (and republishes its delegated tasks onto
/// `deques[me]`) from a loaded checkpoint. No replay runs here: the
/// checkpoint carries every configuration field race detection needs
/// structurally (`runnable`/`pending`/sleep/backtrack/demands), and the
/// execution metadata + vector clocks are recomputed by the first
/// counted replay exactly as the interrupted run would have refreshed
/// them — so the resumed DAG shards see no extra transcript.
fn restore_spine<NF, F>(
    shared: &DporShared<'_, NF, F>,
    me: usize,
    ckpt: &Checkpoint,
) -> Vec<SpineNode> {
    ckpt.spine
        .iter()
        .map(|node| {
            let pending = node.pending.clone();
            // Ghost prefix nodes have empty `runnable`; their access is
            // unknowable here, but also never consulted (the first
            // replay's exec pass refreshes every node's meta).
            let access = node
                .runnable
                .iter()
                .position(|&p| p == node.chosen)
                .map(|i| pending[i])
                .unwrap_or(PendingAccess::LOCAL);
            let delegated = node
                .tasks
                .iter()
                .map(|task| {
                    let slot = Arc::new(TaskSlot::new(SubtreeTask::thaw(task)));
                    shared.deques[me]
                        .lock()
                        .unwrap()
                        .push_back(Arc::clone(&slot));
                    shared.queued.fetch_add(1, Ordering::Relaxed);
                    slot
                })
                .collect();
            SpineNode {
                runnable: node.runnable.clone(),
                pending,
                sleep_now: node.sleep,
                done: node.done,
                backtrack: node.backtrack,
                chosen: node.chosen,
                meta: StepMeta::unknown(access),
                delegated,
                demands: node.demands.iter().cloned().collect(),
            }
        })
        .collect()
}

/// Body of a spawned DPOR worker: steal and execute subtree tasks until
/// the root exploration shuts the pool down.
fn worker_loop<C, NF, F>(shared: &DporShared<'_, NF, F>, me: usize)
where
    C: ReplayCtx,
    NF: Fn() -> C + Sync,
    F: Fn(&mut C, &mut ScheduleDriver) + Sync,
{
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut ctx = (shared.new_ctx)();
        let mut idle = 0u32;
        while !shared.shutdown.load(Ordering::SeqCst) {
            match shared.steal_task(me) {
                Some((slot, task)) => {
                    idle = 0;
                    execute_task(shared, me, 0, &mut ctx, task, &slot);
                }
                None => backoff(&mut idle),
            }
        }
    }));
    if let Err(payload) = result {
        shared.record_poison(payload);
    }
}

/// Runs one stolen task under the quarantine guard, off the idle count,
/// and publishes its result and detached shard on its slot.
fn execute_task<C, NF, F>(
    shared: &DporShared<'_, NF, F>,
    me: usize,
    help_depth: usize,
    ctx: &mut C,
    task: SubtreeTask,
    slot: &TaskSlot,
) where
    C: ReplayCtx,
    NF: Fn() -> C + Sync,
    F: Fn(&mut C, &mut ScheduleDriver) + Sync,
{
    shared.idle.fetch_sub(1, Ordering::SeqCst);
    let out = run_task_guarded(shared, me, help_depth, ctx, &task, Claim::Stolen, None);
    slot.complete(out);
    shared.idle.fetch_add(1, Ordering::SeqCst);
}

/// How a worker came to run a subtree task, which decides where the
/// task's transcripts go (see [`ReplayCtx`]).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Claim {
    /// The session root, or a frozen task explored on its own: a
    /// subtree of its own, never offered to the dispatcher.
    Root,
    /// Taken from a deque: a successful in-process attempt detaches
    /// its shard for the owner to graft at the join.
    Stolen,
    /// Claimed back by its owner at the join: the first attempt streams
    /// into the owner's open subtree.
    Inline,
}

/// Retries on a failed subtree attempt before giving up on it.
const QUARANTINE_RETRIES: u32 = 2;
/// Deterministic backoff before retry attempt 2 and 3 (milliseconds).
const QUARANTINE_BACKOFF_MS: [u64; QUARANTINE_RETRIES as usize] = [1, 5];

/// Runs a subtree task with **quarantine**, the engine's one failure
/// path: an attempt fails when the runner panics (an object bug, a
/// fail-closed `validate_race`, a scheduler assertion) or the
/// [`TaskDispatcher`] revokes its lease. The task is retried up to
/// [`QUARANTINE_RETRIES`] times with deterministic backoff, and on
/// exhaustion quarantined into a [`PoisonReport`] (written to
/// `SL_POISON_DIR` when set) while the rest of the frontier completes.
/// The quarantined subtree's schedules stay unexplored, so the outcome
/// is marked partial — never a false PASS (see the [`crate::checkpoint`]
/// module docs).
///
/// Two panic classes are **re-raised**, not quarantined: injected
/// [`FaultCrash`]es (a fault-injection run must crash so the harness
/// can exercise recovery-by-resume) and panics observed after the pool
/// is poisoned (the abort is already propagating).
///
/// A task claimed back at its join runs its first attempt inline, in
/// the owner's open subtree; every other in-process attempt opens a
/// subtree of its own ([`ReplayCtx`]). A failed attempt ends its shard
/// partial, and a retry cannot continue a stream its failed attempt
/// already advanced, so a retry ends its own shard too: the final merge
/// dedupes the overlap. Only a stolen task's successful attempt
/// detaches its shard for the owner to graft. A retry never publishes
/// subtasks, so how a failing subtree is split between tasks cannot
/// change from its first attempt to its retries.
fn run_task_guarded<C, NF, F>(
    shared: &DporShared<'_, NF, F>,
    me: usize,
    help_depth: usize,
    ctx: &mut C,
    spec: &SubtreeTask,
    claim: Claim,
    mut root: Option<&mut RootCkpt<'_>>,
) -> Joined
where
    C: ReplayCtx,
    NF: Fn() -> C + Sync,
    F: Fn(&mut C, &mut ScheduleDriver) + Sync,
{
    // Distributed dispatch: each attempt at a delegated task is first
    // offered to the dispatcher; farming the root would ship the
    // *entire* exploration to one single-threaded worker.
    let dispatcher = shared.dispatcher.filter(|_| claim != Claim::Root);
    // A root retry must restart from the same restore plan; `run_task`
    // consumes it, so keep a copy to reinstate between attempts.
    let restore_backup = root.as_ref().and_then(|rc| rc.restore.clone());
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        let mut shard = None;
        let attempt = match dispatcher.and_then(|d| d.dispatch(&spec.freeze())) {
            // A remote result banks its replays against the shared
            // budget, exactly as the local replay loop would have
            // reserved them.
            Some(lease) => lease.inspect(|out| {
                let c = out.counters;
                let replays = (c.runs + c.cut_runs) as usize;
                shared.replays.fetch_add(replays, Ordering::SeqCst);
            }),
            // Declined (no free or spawnable worker) or never offered:
            // run the attempt here.
            None => {
                let own_subtree = claim != Claim::Inline || attempts > 1;
                if own_subtree {
                    ctx.subtree_begin();
                }
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    run_task(
                        shared,
                        me,
                        help_depth,
                        ctx,
                        spec.clone(),
                        attempts == 1,
                        root.as_deref_mut(),
                    )
                }));
                if own_subtree {
                    if result.is_ok() && claim == Claim::Stolen {
                        shard = ctx.subtree_detach();
                    } else {
                        ctx.subtree_end();
                    }
                }
                result.map_err(|payload| {
                    if payload.is::<FaultCrash>() || shared.poisoned.load(Ordering::SeqCst) {
                        std::panic::resume_unwind(payload);
                    }
                    panic_message(&*payload)
                })
            }
        };
        match attempt {
            Ok(mut out) => {
                out.counters.retried += u64::from(attempts - 1);
                return (out, shard);
            }
            Err(message) if attempts > QUARANTINE_RETRIES => {
                let report = PoisonReport {
                    prefix: spec.prefix.clone(),
                    attempts,
                    message,
                };
                if let Some(dir) = &shared.poison_dir {
                    // Best-effort: the report also travels in the
                    // outcome, so a failed write loses nothing vital.
                    let _ = write_poison_report(dir, &report);
                }
                let out = TaskResult {
                    counters: Counters {
                        retried: u64::from(attempts - 1),
                        quarantined: 1,
                        ..Counters::default()
                    },
                    poisoned: vec![report],
                    ..TaskResult::default()
                };
                return (out, None);
            }
            Err(_) => {
                std::thread::sleep(std::time::Duration::from_millis(
                    QUARANTINE_BACKOFF_MS[(attempts - 1) as usize],
                ));
                if let Some(rc) = root.as_deref_mut() {
                    rc.restore = restore_backup.clone();
                }
            }
        }
    }
}

/// Blocks until `slot` is done, claiming it back (and running it on
/// this thread, inline) if no thief took it, or helping with other
/// queued tasks while a thief finishes.
fn join_slot<C, NF, F>(
    shared: &DporShared<'_, NF, F>,
    me: usize,
    help_depth: usize,
    ctx: &mut C,
    slot: &Arc<TaskSlot>,
) -> Joined
where
    C: ReplayCtx,
    NF: Fn() -> C + Sync,
    F: Fn(&mut C, &mut ScheduleDriver) + Sync,
{
    if let Some(task) = slot.claim() {
        shared.queued.fetch_sub(1, Ordering::Relaxed);
        // Never stolen: run it right here, exactly where the sequential
        // explorer would have.
        let out = run_task_guarded(shared, me, help_depth, ctx, &task, Claim::Inline, None);
        slot.state.store(TASK_DONE, Ordering::SeqCst);
        return out;
    }
    // The thief is still working: make progress on other tasks instead
    // of spinning (bounded nesting keeps the stack sane), counted idle
    // meanwhile so that busy workers publish work for this one.
    let helps = help_depth < MAX_HELP_DEPTH;
    if helps {
        shared.idle.fetch_add(1, Ordering::SeqCst);
    }
    let mut idle = 0u32;
    loop {
        if slot.is_done() {
            if helps {
                shared.idle.fetch_sub(1, Ordering::SeqCst);
            }
            return slot
                .output
                .lock()
                .unwrap()
                .take()
                .expect("done task has an output");
        }
        if shared.poisoned.load(Ordering::SeqCst) {
            panic!("source-DPOR exploration aborted: a worker's runner panicked");
        }
        if helps {
            if let Some((other, task)) = shared.steal_task(me) {
                idle = 0;
                execute_task(shared, me, help_depth + 1, ctx, task, &other);
                continue;
            }
        }
        backoff(&mut idle);
    }
}

/// Idle wait: yield a few times, then sleep briefly — keeps oversubscribed
/// pools (more workers than cores) from starving the productive thread.
fn backoff(idle: &mut u32) {
    *idle += 1;
    if *idle < 64 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
}

/// Explores one subtree to exhaustion (or budget cap): the sequential
/// DPOR loop over one demand queue per node, generalised with a ghost
/// prefix, escaping race demands, and delegation by
/// [`publish_shallowest`] when `publish` is set.
fn run_task<C, NF, F>(
    shared: &DporShared<'_, NF, F>,
    me: usize,
    help_depth: usize,
    ctx: &mut C,
    task: SubtreeTask,
    publish: bool,
    mut root: Option<&mut RootCkpt<'_>>,
) -> TaskResult
where
    C: ReplayCtx,
    NF: Fn() -> C + Sync,
    F: Fn(&mut C, &mut ScheduleDriver) + Sync,
{
    let floor = task.floor;
    let mut out = TaskResult::default();
    let mut spine: Vec<SpineNode> = task
        .prefix
        .iter()
        .zip(&task.accesses)
        .map(|(&chosen, &meta)| SpineNode::ghost(chosen, meta))
        .collect();
    let mut clocks = task.clocks;
    let mut buffers = RaceBuffers::default();
    // The zip above truncates at `accesses`: a multi-step demand's
    // prefix is longer, and its forced tail is observed on the first
    // replay.
    let mut next: Option<(Vec<usize>, u64)> = Some((task.prefix, task.sleep));
    // Resuming: swap in the checkpointed frontier. Clocks restart empty
    // — they are a pure cache over the spine and the first counted
    // replay recomputes them (and every node's exec metadata)
    // deterministically, exactly as the interrupted run refreshed them.
    if let Some(rc) = root.as_deref_mut() {
        if let Some(ckpt) = rc.restore.take() {
            spine = restore_spine(shared, me, &ckpt);
            clocks = ClockTable::default();
            let mut prefix: Vec<usize> = spine.iter().map(|n| n.chosen).collect();
            prefix.extend(&ckpt.next.tail);
            next = Some((prefix, ckpt.next.sleep));
        }
    }
    while let Some((prefix, sleep_at_record)) = next.take() {
        // This run's steps are *new* from the spine tip on (its
        // race-detection window): the tip is the child just descended
        // into — for a delegated subtree the last ghost, the reversal
        // itself — and a demand's forced steps lie beyond it; the root
        // task starts at 0, as in the sequential explorer.
        let new_from = spine.len().saturating_sub(1);
        // Abort promptly when any worker's runner panicked: tasks are
        // deliberately coarse, so waiting for the subtree to finish
        // could mean millions of further replays before the panic
        // surfaces. The output is discarded on poison anyway.
        if shared.poisoned.load(Ordering::SeqCst) {
            panic!("source-DPOR exploration aborted: a worker's runner panicked");
        }
        // Resumable-session hooks, all at the replay boundary (the only
        // point where the frontier is fully materialised in the spine +
        // `next` + frozen delegated specs):
        //  * root: on budget expiry write a final checkpoint, raise the
        //    drain flag, and abandon this subtree *without joining the
        //    delegated tasks* — their outputs must not be folded in, or
        //    the checkpointed counters (which exclude them, since their
        //    specs re-run on resume) would diverge from the totals;
        //  * root: otherwise write a periodic checkpoint every
        //    `every_replays` replays;
        //  * non-root tasks: see the drain flag and abandon likewise.
        match root.as_deref_mut() {
            None => {
                if shared.draining.load(Ordering::SeqCst) {
                    out.drained = true;
                    return out;
                }
            }
            Some(rc) => {
                let c = &out.counters;
                let spent = rc.base.runs + rc.base.cut_runs + c.runs + c.cut_runs;
                let expired = rc.policy.max_schedules.is_some_and(|m| spent >= m)
                    || rc
                        .policy
                        .deadline
                        .is_some_and(|d| std::time::Instant::now() >= d);
                if expired {
                    write_root_checkpoint(rc, &spine, (&prefix, sleep_at_record), &out, true);
                    shared.draining.store(true, Ordering::SeqCst);
                    out.drained = true;
                    return out;
                }
                if rc.policy.every_replays > 0 && rc.replays_since >= rc.policy.every_replays {
                    write_root_checkpoint(rc, &spine, (&prefix, sleep_at_record), &out, false);
                }
                rc.replays_since += 1;
            }
        }
        // Reserve a replay against the global budget.
        if shared.replays.fetch_add(1, Ordering::SeqCst) >= shared.max_runs {
            shared.replays.fetch_sub(1, Ordering::SeqCst);
            out.capped = true;
            drain_delegated(shared, me, help_depth, ctx, &mut spine, floor, &mut out);
            return out;
        }
        if publish
            && shared.idle.load(Ordering::Relaxed) > 0
            && shared.queued.load(Ordering::Relaxed) == 0
        {
            publish_shallowest(shared, me, &mut spine, floor, &clocks);
        }
        let mut driver = ScheduleDriver::new(
            prefix,
            sleep_at_record,
            spine.len(),
            shared.relation.declared(),
        );
        (shared.runner)(ctx, &mut driver);
        if driver.cut {
            out.counters.cut_runs += 1;
        } else {
            out.counters.runs += 1;
        }
        out.counters.pruned += driver.pruned;
        // Extend the spine with this run's recorded decisions
        // (observed[0] is the decision at the current spine tip).
        for obs in driver.observed {
            let chosen = driver.chosen[spine.len()];
            let access = obs
                .pending
                .get(
                    obs.runnable
                        .iter()
                        .position(|&p| p == chosen)
                        .unwrap_or(usize::MAX),
                )
                .copied()
                .unwrap_or(PendingAccess::LOCAL);
            spine.push(SpineNode {
                runnable: obs.runnable,
                pending: obs.pending,
                sleep_now: obs.sleep,
                done: 0,
                backtrack: 1 << chosen,
                chosen,
                meta: StepMeta::unknown(access),
                delegated: Vec::new(),
                demands: VecDeque::new(),
            });
        }
        // Refresh execution metadata from this run's record before
        // detecting races: replays are deterministic, so replayed
        // prefix steps re-derive identical metadata; the backtracked
        // child and the fresh extension get their first real values
        // here (until now they carried the conservative unknown). The
        // observer flag is word-level, not per-step — preserve it
        // across the refresh, then recompute it below.
        for (node, em) in spine.iter_mut().zip(&driver.exec) {
            let unobs_w = node.meta.exec.unobs_w;
            node.meta.exec = *em;
            node.meta.exec.unobs_w = unobs_w;
        }
        // Race detection: only pairs whose later step is new this run
        // (pairs entirely inside the replayed prefix were handled when
        // that prefix first ran). Observer status is suffix-dependent:
        // when the new suffix flips a prefix step's flag, the cached
        // clocks and race conclusions from that index on are stale, so
        // the window is lowered to the first change (re-detected
        // demands are deduplicated by `apply_escape`).
        let mut first_new = new_from;
        if shared.optimal {
            first_new = first_new.min(refresh_observer_flags(&mut spine));
        }
        add_race_reversals(
            &mut spine,
            &mut clocks,
            &mut buffers,
            first_new,
            floor,
            shared.hard_stem,
            shared.relation,
            shared.optimal,
            &mut out.escapes,
        );
        // Backtrack: retire finished children bottom-up until a
        // decision point with an uncovered demand is found, then
        // descend into it.
        loop {
            if spine.len() <= floor {
                return out;
            }
            let d = spine.len() - 1;
            {
                let node = &mut spine[d];
                node.done |= 1 << node.chosen;
                node.sleep_now |= 1 << node.chosen;
            }
            // Join delegated siblings before popping the next demand:
            // their escapes merge exactly where the sequential explorer
            // would have applied them.
            join_delegated(shared, me, help_depth, ctx, &mut spine, d, floor, &mut out);
            let node = &mut spine[d];
            if let Some(seq) = shared.next_demand(node, node.done, node.sleep_now) {
                let q = seq[0].0;
                let access = node.pending_of(q);
                let sleep_child = filter_independent(
                    shared.relation,
                    node.sleep_now,
                    access,
                    &node.runnable,
                    &node.pending,
                );
                node.chosen = q;
                node.meta = StepMeta::unknown(access);
                let mut prefix: Vec<usize> = spine.iter().map(|n| n.chosen).collect();
                // The demand's remaining steps ride as forced replay
                // decisions past the spine tip; the driver records them
                // (and threads the sleep set through them) because
                // `record_from` stays at the tip.
                prefix.extend(seq[1..].iter().map(|&(p, _)| p));
                next = Some((prefix, sleep_child));
                break;
            }
            let node = &spine[d];
            out.counters.pruned += (node.runnable.len() as u64) - u64::from(node.done.count_ones());
            debug_assert!(node.delegated.is_empty(), "popping a node with open joins");
            spine.pop();
        }
    }
    unreachable!("the DPOR task loop exits via its returns")
}

/// The one publication rule, applied at a replay boundary while some
/// worker is idle and no task is queued: publishes the shallowest
/// uncovered demand on the live spine (`spine[floor..]`) — the biggest
/// subtree on offer — as a frozen subtree task.
///
/// The demand is taken with the masks the sequential pop will see when
/// it reaches it: the node's own, plus its in-flight child (`chosen`)
/// and the siblings already delegated there (in `done` since their
/// publication; `sleep_now` gains them only at the join). Demands only
/// join a queue at its back and masks only grow, so delegated or not,
/// every demand is explored with identical inputs, and the owner joins
/// it (merging its escapes and grafting its shard) right after retiring
/// `chosen`, where the sequential explorer pops it. A frozen task
/// carries its demand in the decision prefix beyond the ghost accesses,
/// the same way it carries its sleep set. A node whose prefix clocks
/// are not cached yet (a spine restored from a checkpoint, before its
/// first replay) is not offered.
fn publish_shallowest<NF, F>(
    shared: &DporShared<'_, NF, F>,
    me: usize,
    spine: &mut [SpineNode],
    floor: usize,
    clocks: &ClockTable,
) {
    for d in floor..spine.len().min(clocks.len() + 1) {
        let node = &mut spine[d];
        let done = node.done | 1 << node.chosen;
        let sleep = node.sleep_now | done;
        let Some(seq) = shared.next_demand(node, done, sleep) else {
            continue;
        };
        if let Some(plan) = shared.fault {
            plan.fire(FaultPoint::TaskFreeze);
        }
        let e = seq[0].0;
        let access = node.pending_of(e);
        let sleep_e = filter_independent(
            shared.relation,
            sleep,
            access,
            &node.runnable,
            &node.pending,
        );
        node.done |= 1 << e;
        let mut prefix: Vec<usize> = spine[..d].iter().map(|n| n.chosen).collect();
        prefix.extend(seq.iter().map(|&(p, _)| p));
        let mut accesses: Vec<StepMeta> = spine[..d].iter().map(|n| n.meta).collect();
        // The demand's first step has not executed in this ordering
        // yet; the task's first replay fills its execution metadata in.
        // Further forced steps stay prefix-only (beyond the ghost
        // spine) and are observed on the first replay.
        accesses.push(StepMeta::unknown(access));
        let slot = Arc::new(TaskSlot::new(SubtreeTask {
            floor: d + 1,
            prefix,
            accesses,
            clocks: clocks.prefix(d),
            sleep: sleep_e,
        }));
        shared.deques[me]
            .lock()
            .expect("deque pushes and pops cannot panic")
            .push_back(Arc::clone(&slot));
        shared.queued.fetch_add(1, Ordering::Relaxed);
        spine[d].delegated.push(slot);
        return;
    }
}

/// Joins every delegated sibling of `spine[d]` in publish order,
/// grafting stolen shards and merging counters and escapes: demands at
/// or above this task's floor apply to the live spine, deeper-escaping
/// demands bubble up.
#[allow(clippy::too_many_arguments)]
fn join_delegated<C, NF, F>(
    shared: &DporShared<'_, NF, F>,
    me: usize,
    help_depth: usize,
    ctx: &mut C,
    spine: &mut [SpineNode],
    d: usize,
    floor: usize,
    out: &mut TaskResult,
) where
    C: ReplayCtx,
    NF: Fn() -> C + Sync,
    F: Fn(&mut C, &mut ScheduleDriver) + Sync,
{
    if spine[d].delegated.is_empty() {
        return;
    }
    let delegated = std::mem::take(&mut spine[d].delegated);
    for slot in delegated {
        if let Some(plan) = shared.fault {
            plan.fire(FaultPoint::JoinMerge);
        }
        let (res, shard) = join_slot(shared, me, help_depth, ctx, &slot);
        // A stolen subtree's transcripts continue this subtree's stream
        // here, where the sequential explorer would have explored them.
        if let Some(shard) = shard {
            ctx.subtree_graft(shard);
        }
        out.counters.add(res.counters);
        out.capped |= res.capped;
        out.drained |= res.drained;
        out.poisoned.extend(res.poisoned);
        for esc in res.escapes {
            if esc.depth >= floor {
                apply_escape(&mut spine[esc.depth], esc, shared.optimal);
            } else {
                out.escapes.push(esc);
            }
        }
        let node = &mut spine[d];
        let joined = 1 << slot.spec.reversal();
        node.done |= joined;
        node.sleep_now |= joined;
    }
}

/// On a budget cap the task unwinds early; its delegated subtrees still
/// need joining (their workers observe the cap and finish quickly) so
/// the totals stay consistent and no slot is orphaned.
fn drain_delegated<C, NF, F>(
    shared: &DporShared<'_, NF, F>,
    me: usize,
    help_depth: usize,
    ctx: &mut C,
    spine: &mut [SpineNode],
    floor: usize,
    out: &mut TaskResult,
) where
    C: ReplayCtx,
    NF: Fn() -> C + Sync,
    F: Fn(&mut C, &mut ScheduleDriver) + Sync,
{
    for d in (0..spine.len()).rev() {
        if spine[d].delegated.is_empty() {
            continue;
        }
        join_delegated(shared, me, help_depth, ctx, spine, d, floor, out);
    }
}

/// Applies one backtrack demand to its decision node — a race detected
/// in this task or an escape merged at a join, alike. The source-set
/// rule skips it when a weak initial is already in the node's source
/// set (that child covers the reversal); [`PruneMode::OptimalDpor`]
/// also skips it when a weak initial is *sleeping* there — the
/// reversal's trace was explored in the subtree that put that process
/// to sleep — so no enqueued demand ever initiates a sleep-set-blocked
/// run. Otherwise the demand joins the node's queue.
fn apply_escape(node: &mut SpineNode, esc: Escape, optimal: bool) {
    let initials = esc.initials.iter().fold(0u64, |m, &p| m | 1 << p);
    debug_assert!(initials & (1 << esc.seq[0].0) != 0);
    if !node.covers(initials, optimal) {
        node.enqueue(esc.seq);
    }
}

/// Detects races in the executed word `spine` and extends the
/// backtrack (source) sets of the racing decision points.
///
/// Happens-before is computed with vector clocks over the dependence
/// relation `!relation.independent` (program order + conflicting
/// steps). A pair `(j, k)` races when the steps are dependent, by
/// different processes, and `j` does not happen-before `k` through any
/// intermediate step — i.e. the two could have been adjacent. Each race
/// raises one demand at `j` ([`apply_escape`]): the reversing
/// continuation with `optimal` set, its first step otherwise.
///
/// Demands at depths below `apply_floor` cannot be applied here (those
/// nodes are ghosts owned by a parent task): they are recorded in
/// `escapes` in detection order, except below `hard_stem` (the
/// user-supplied stem, which is never backtracked into at all).
///
/// The one relation serves both the vector clocks and the race test
/// (they must agree). Placing step `k`, the scan walks back from `k`
/// and consults the relation only for steps its clock does not already
/// order before `k` (one component compare each), and stops once the
/// clock covers every step still ahead of the scan; see "What race
/// detection costs" in the module docs.
///
/// When the relation carries a certificate, every dependent concurrent
/// data/data pair is additionally **validated** against the certificate's
/// may-conflict matrix: a dynamically observed race on a register the
/// matrix does not predict racy aborts the exploration with a
/// diagnostic (fail closed — see [`StaticConflicts`]).
#[allow(clippy::too_many_arguments)]
fn add_race_reversals(
    spine: &mut [SpineNode],
    clocks: &mut ClockTable,
    buffers: &mut RaceBuffers,
    first_new: usize,
    apply_floor: usize,
    hard_stem: usize,
    relation: Relation<'_>,
    optimal: bool,
    escapes: &mut Vec<Escape>,
) {
    let len = spine.len();
    if len == 0 {
        clocks.truncate(0);
        return;
    }
    // Ghost nodes have empty `runnable`; their `chosen` still bounds
    // the process universe.
    let mut w = 0;
    for node in spine.iter() {
        w = node
            .runnable
            .iter()
            .fold(w.max(node.chosen), |m, &p| m.max(p));
    }
    let w = w + 1;
    // Clocks of the replayed prefix are cached across runs (the prefix
    // steps are identical replay to replay); recompute only from the
    // first decision that changed. A change of width (the first runs,
    // before the process universe is fully observed) recomputes all.
    let start = if clocks.width == w {
        first_new.min(clocks.len())
    } else {
        clocks.width = w;
        0
    };
    clocks.truncate(start);
    let RaceBuffers {
        proc_clocks,
        ahead,
        base,
        races,
        cont,
        first,
        initials,
    } = buffers;
    // Rebuild each process's last-step clock from the cached prefix:
    // backward scan, one row copy per process. A filled row's own
    // component is at least 1.
    proc_clocks.clear();
    proc_clocks.resize(w * w, 0);
    let mut unfilled = w;
    for i in (0..start).rev() {
        let p = spine[i].chosen;
        if proc_clocks[p * w + p] == 0 {
            proc_clocks[p * w..(p + 1) * w].copy_from_slice(clocks.row(i));
            unfilled -= 1;
            if unfilled == 0 {
                break;
            }
        }
    }
    for k in start..len {
        let (p, a) = (spine[k].chosen, spine[k].meta);
        base.clear();
        base.extend_from_slice(&proc_clocks[p * w..(p + 1) * w]);
        // `ahead[q]`: process `q`'s steps at or below the scan position.
        // `open` counts the processes whose steps there `base` does not
        // all cover yet; at zero every remaining step is ordered before
        // `k`, so none can race and none can grow `base`.
        ahead.clear();
        ahead.extend((0..w).map(|q| proc_clocks[q * w + q]));
        let mut open = (0..w).filter(|&q| base[q] < ahead[q]).count();
        races.clear();
        let mut j = k;
        while open > 0 {
            j -= 1;
            let q = spine[j].chosen;
            let cj = &clocks.rows[j * w..(j + 1) * w];
            debug_assert_eq!(
                cj[q], ahead[q],
                "a clock's own component is its process's step count"
            );
            // `j` is ordered before `k` through closer steps exactly
            // when `base` already counts it.
            if cj[q] > base[q] {
                let b = spine[j].meta;
                if !relation.independent(&a, &b) {
                    // An immediate race (`q != p`: `base` starts with
                    // all of `p`'s earlier steps).
                    debug_assert_ne!(q, p);
                    if let Some(st) = relation.statics() {
                        validate_race(st, &a, &b);
                    }
                    if k >= first_new && j >= hard_stem {
                        races.push(j);
                    }
                    for r in 0..w {
                        if cj[r] > base[r] {
                            // `cj[r] <= ahead[r]`: `j` knows only steps
                            // at or below it.
                            if base[r] < ahead[r] && cj[r] == ahead[r] {
                                open -= 1;
                            }
                            base[r] = cj[r];
                        }
                    }
                }
            }
            ahead[q] -= 1;
            if base[q] == ahead[q] {
                open -= 1;
            }
        }
        base[p] += 1;
        clocks.rows.extend_from_slice(base);
        proc_clocks[p * w..(p + 1) * w].copy_from_slice(base);
        for &j in races.iter() {
            let qj = spine[j].chosen;
            let own = clocks.rows[j * w + qj];
            // The reversing continuation: every step between `j` and
            // `k` not happens-after `j`, then `k`.
            cont.clear();
            cont.extend((j + 1..k).filter(|&m| clocks.rows[m * w + qj] < own));
            cont.push(k);
            // Weak initials: processes whose first step in `cont` is
            // not happens-after any earlier step of `cont` — it is
            // after one of process `r`'s exactly when it is after
            // `r`'s first one there.
            first.clear();
            first.resize(w, u32::MAX);
            initials.clear();
            let mut mask = 0u64;
            for &m in cont.iter() {
                let pm = spine[m].chosen;
                if first[pm] != u32::MAX {
                    continue;
                }
                let cm = clocks.row(m);
                if cm.iter().zip(first.iter()).all(|(x, f)| x < f) {
                    initials.push(pm);
                    mask |= 1 << pm;
                }
                first[pm] = cm[pm];
            }
            if j >= apply_floor && spine[j].covers(mask, optimal) {
                continue;
            }
            // In optimal mode the whole continuation is the demand (every
            // step of `cont` is a step some explored word actually
            // executed from this node on); otherwise its first step is.
            let steps = if optimal { &cont[..] } else { &cont[..1] };
            let seq: Demand = steps
                .iter()
                .map(|&m| (spine[m].chosen, spine[m].meta.access))
                .collect();
            if j >= apply_floor {
                spine[j].enqueue(seq);
            } else {
                escapes.push(Escape {
                    depth: j,
                    initials: initials.clone(),
                    seq,
                });
            }
        }
    }
}

/// Fail-closed check of one dynamically detected race against the
/// static may-conflict matrix. Placement conflicts (a `Local` step on
/// either side) are inherent to scheduling and not part of the data
/// matrix; races whose registers are unknown (untraced runs) cannot be
/// attributed and are counted, not validated. Everything else must be
/// predicted — an unpredicted race means the static analysis missed a
/// real conflict, and silently continuing would let it license unsound
/// pruning elsewhere, so the exploration aborts.
///
/// Attribution is two-tier, mirroring the licensing side: when both
/// steps carry known op identities, the race is first attributed to the
/// op-pair cell of the version-2 matrix (the cell whose evidence
/// licensed any per-op-pair relaxation of this pair); the per-register
/// racy partition remains the fallback for unprobed pairs and unknown
/// ops. A race the pair cell predicts counts as validated even if the
/// per-register partition would too — the diagnostics of an
/// *unpredicted* race name the op pair, so a missed concurrent-probe
/// path is reported as such.
fn validate_race(st: &StaticConflicts, a: &StepMeta, b: &StepMeta) {
    if a.access.is_local() || b.access.is_local() {
        return;
    }
    let (ra, rb) = (a.exec.reg, b.exec.reg);
    if ra == RegSym::LOCAL || rb == RegSym::LOCAL {
        st.note_unattributed();
        return;
    }
    let (oa, ob) = (a.exec.op, b.exec.op);
    st.note_race(oa, ob, ra);
    if st.pair_predicts(oa, ob, ra) == Some(true) || st.pair_predicts(oa, ob, rb) == Some(true) {
        st.note_validated();
        return;
    }
    if st.racy(ra) || st.racy(rb) {
        st.note_validated();
        return;
    }
    panic!(
        "static conflict matrix failed closed: dynamic {:?}/{:?} race on {} \
         (op pair {:?}/{:?}) is not predicted by the certificate — the \
         sl-analyze footprint probe missed a conflicting access path; \
         regenerate the certificate or explore without one",
        a.access.kind,
        b.access.kind,
        st.describe(ra),
        oa,
        ob,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimWorld;
    use sl_mem::{Mem, Register};

    #[test]
    fn env_workers_accepts_literal_counts_and_zero_for_all_cores() {
        assert_eq!(env_workers_of("1"), 1);
        assert_eq!(env_workers_of(" 8 "), 8);
        assert_eq!(
            env_workers_of(&MAX_ENV_WORKERS.to_string()),
            MAX_ENV_WORKERS
        );
        assert!(env_workers_of("0") >= 1, "0 = one per available CPU");
    }

    #[test]
    fn env_workers_rejects_malformed_and_absurd_values_with_named_diagnostics() {
        for (value, needle) in [
            ("banana", "not a worker count"),
            ("-2", "not a worker count"),
            ("3.5", "not a worker count"),
            ("", "not a worker count"),
            ("1025", "workers is absurd"),
            ("86400000", "workers is absurd"),
        ] {
            let caught = std::panic::catch_unwind(|| env_workers_of(value))
                .expect_err(&format!("{value:?} must be rejected"));
            let msg = crate::checkpoint::panic_message(&*caught);
            assert!(
                msg.starts_with("SL_EXPLORE_THREADS:") && msg.contains(needle),
                "diagnostic for {value:?} must name the variable and the reason: {msg}"
            );
        }
    }

    /// Driver-based runner over `n` writers to one shared or `n`
    /// distinct registers.
    fn writers_runner(
        n: usize,
        distinct: bool,
    ) -> impl Fn(&mut ScheduleDriver) -> RunOutcome + Sync {
        move |driver: &mut ScheduleDriver| {
            let world = SimWorld::new(n);
            let mem = world.mem();
            let shared = mem.alloc("X", 0u64);
            let programs: Vec<crate::Program> = (0..n)
                .map(|i| {
                    let r = if distinct {
                        mem.alloc(&format!("R{i}"), 0u64)
                    } else {
                        shared.clone()
                    };
                    Box::new(move |_| r.write(i as u64)) as crate::Program
                })
                .collect();
            world.run(programs, driver, 100)
        }
    }

    /// A bushier racy workload for the parallel differential tests:
    /// `n` processes, each writing the shared register and its own.
    fn mixed_runner(n: usize) -> impl Fn(&mut ScheduleDriver) -> RunOutcome + Sync {
        move |driver: &mut ScheduleDriver| {
            let world = SimWorld::new(n);
            let mem = world.mem();
            let shared = mem.alloc("X", 0u64);
            let programs: Vec<crate::Program> = (0..n)
                .map(|i| {
                    let s = shared.clone();
                    let own = mem.alloc(&format!("R{i}"), 0u64);
                    Box::new(move |_| {
                        s.write(i as u64);
                        own.write(1);
                        let v = s.read();
                        own.write(v);
                    }) as crate::Program
                })
                .collect();
            world.run(programs, driver, 1_000)
        }
    }

    fn unpruned(max_runs: usize) -> Explorer {
        Explorer {
            mode: PruneMode::Unpruned,
            max_runs,
            ..Explorer::default()
        }
    }

    /// Two processes, one register write each: the schedule space has
    /// exactly 2 decision points with 2, then 1 choices ⇒ 2 schedules.
    #[test]
    fn explores_all_interleavings_of_two_single_step_programs() {
        let finals = Mutex::new(Vec::new());
        let runner = writers_runner(2, false);
        let outcome = unpruned(100).explore(|d| {
            let run = runner(d);
            let last = run.steps().last().unwrap().value().render();
            finals.lock().unwrap().push(last);
            run
        });
        assert!(outcome.exhausted);
        assert_eq!(outcome.runs, 2);
        let mut finals = finals.into_inner().unwrap();
        finals.sort();
        assert_eq!(finals, vec!["0".to_string(), "1".to_string()]);
    }

    #[test]
    fn respects_run_budget() {
        let outcome = unpruned(1).explore(writers_runner(2, false));
        assert_eq!(outcome.runs, 1);
        assert!(!outcome.exhausted);
    }

    /// Three single-step processes ⇒ 3! = 6 schedules.
    #[test]
    fn counts_schedules_of_three_writers() {
        let outcome = unpruned(1000).explore(writers_runner(3, false));
        assert!(outcome.exhausted);
        assert_eq!(outcome.runs, 6);
    }

    #[test]
    fn driver_explorer_matches_legacy_count_without_pruning() {
        let explorer = Explorer {
            mode: PruneMode::Unpruned,
            ..Explorer::default()
        };
        let outcome = explorer.explore(writers_runner(3, false));
        assert!(outcome.exhausted);
        assert_eq!(outcome.runs, 6);
        assert_eq!(outcome.pruned, 0);
    }

    /// Explores a delegated task of `mixed_runner(3)` with
    /// `explore_frozen_task`, exactly as a worker process behind
    /// `sl-dist` would.
    fn serve_mixed(task: &FrozenTask) -> TaskResult {
        let run = mixed_runner(3);
        Explorer::default().explore_frozen_task(
            || (),
            move |_: &mut (), d: &mut ScheduleDriver| {
                let _ = run(d);
            },
            task,
        )
    }

    /// `mixed_runner(3)` at 4 workers, every delegated task offered to
    /// `dispatcher`.
    fn explore_mixed_dispatched(dispatcher: &dyn TaskDispatcher) -> ExploreOutcome {
        let run = mixed_runner(3);
        Explorer {
            workers: 4,
            ..Explorer::default()
        }
        .explore_dispatched(
            || (),
            |_: &mut (), d: &mut ScheduleDriver| {
                let _ = run(d);
            },
            dispatcher,
        )
    }

    #[test]
    fn dispatched_exploration_matches_local_counters_and_degrades_on_decline() {
        let base = Explorer::default().explore(mixed_runner(3));
        assert!(base.exhausted);

        struct Loopback {
            hits: AtomicUsize,
        }
        impl TaskDispatcher for Loopback {
            fn dispatch(&self, task: &FrozenTask) -> Option<Result<TaskResult, String>> {
                self.hits.fetch_add(1, Ordering::SeqCst);
                Some(Ok(serve_mixed(task)))
            }
        }
        let loopback = Loopback {
            hits: AtomicUsize::new(0),
        };
        let out = explore_mixed_dispatched(&loopback);
        assert!(out.exhausted);
        assert_eq!(
            (out.runs, out.cut_runs, out.pruned),
            (base.runs, base.cut_runs, base.pruned),
            "dispatched exploration must be bit-identical to sequential"
        );
        assert!(
            loopback.hits.load(Ordering::SeqCst) > 0,
            "the dispatcher saw delegated work"
        );

        // A dispatcher that always declines: pure in-process
        // degradation, still bit-identical.
        let out = explore_mixed_dispatched(&Offered::default());
        assert!(out.exhausted);
        assert_eq!(
            (out.runs, out.cut_runs, out.pruned),
            (base.runs, base.cut_runs, base.pruned),
            "a declining dispatcher degrades to plain in-process exploration"
        );
    }

    /// Revokes the first `revocations` leases of every task, then serves
    /// it; records how many leases each task took.
    struct Revoking {
        revocations: usize,
        leases: Mutex<Vec<(FrozenTask, usize)>>,
    }

    impl TaskDispatcher for Revoking {
        fn dispatch(&self, task: &FrozenTask) -> Option<Result<TaskResult, String>> {
            let lease = {
                let mut leases = self.leases.lock().unwrap();
                match leases.iter_mut().find(|(t, _)| t == task) {
                    Some((_, n)) => {
                        *n += 1;
                        *n
                    }
                    None => {
                        leases.push((task.clone(), 1));
                        1
                    }
                }
            };
            Some(if lease <= self.revocations {
                Err(format!("lease {lease} revoked (test)"))
            } else {
                Ok(serve_mixed(task))
            })
        }
    }

    #[test]
    fn revoked_leases_are_retried_then_quarantined_like_panics() {
        let base = Explorer::default().explore(mixed_runner(3));
        let revoking = |revocations| Revoking {
            revocations,
            leases: Mutex::new(Vec::new()),
        };

        // Each task's first lease is revoked and its retry served: the
        // counters are the sequential run's, plus one retry per task.
        let once = revoking(1);
        let out = explore_mixed_dispatched(&once);
        let leased = once.leases.lock().unwrap().len();
        assert!(leased > 0, "the dispatcher saw delegated work");
        assert!(out.exhausted && !out.partial);
        assert_eq!(
            (out.runs, out.cut_runs, out.pruned),
            (base.runs, base.cut_runs, base.pruned),
            "a retried lease must be bit-identical to sequential"
        );
        assert_eq!((out.retried, out.quarantined), (leased as u64, 0));

        // Every lease revoked: each dispatched task is quarantined after
        // its retries, exactly as a panicking subtree would be.
        let always = revoking(usize::MAX);
        let out = explore_mixed_dispatched(&always);
        let leases = always.leases.lock().unwrap();
        assert!(!leases.is_empty(), "the dispatcher saw delegated work");
        assert!(leases
            .iter()
            .all(|(_, n)| *n == 1 + QUARANTINE_RETRIES as usize));
        assert_eq!(out.quarantined, leases.len() as u64);
        assert_eq!(out.retried, QUARANTINE_RETRIES as u64 * out.quarantined);
        assert!(out.partial && !out.exhausted, "never a silent pass");
        assert_eq!(out.poisoned.len(), leases.len());
        let reason = format!("lease {} revoked (test)", 1 + QUARANTINE_RETRIES);
        for report in &out.poisoned {
            assert_eq!(report.attempts, 1 + QUARANTINE_RETRIES);
            assert!(report.message.contains(&reason), "{:?}", report.message);
        }
    }

    #[test]
    fn dpor_collapses_commuting_writers_to_one_schedule() {
        let explorer = Explorer::default();
        assert_eq!(explorer.mode, PruneMode::OptimalDpor);
        for mode in [PruneMode::SourceDpor, PruneMode::OptimalDpor] {
            let explorer = Explorer {
                mode,
                ..Explorer::default()
            };
            let outcome = explorer.explore(writers_runner(3, true));
            assert!(outcome.exhausted, "{mode:?}");
            assert_eq!(outcome.runs, 1, "no races ⇒ a single schedule ({mode:?})");
            assert_eq!(outcome.cut_runs, 0, "DPOR does not even replay-and-cut");
            assert!(outcome.pruned > 0, "unexplored enabled children counted");
        }
    }

    #[test]
    fn pruning_keeps_all_conflicting_interleavings() {
        // Same register, distinct written values: nothing commutes
        // (value-aware or not), all 6 traces remain, in every mode.
        for mode in [
            PruneMode::Unpruned,
            PruneMode::SourceDpor,
            PruneMode::OptimalDpor,
        ] {
            let explorer = Explorer {
                mode,
                ..Explorer::default()
            };
            let outcome = explorer.explore(writers_runner(3, false));
            assert!(outcome.exhausted, "{mode:?}");
            assert_eq!(outcome.runs, 6, "{mode:?} must keep all 6 traces");
        }
    }

    /// Mixed workload: two same-register writers (a real race) plus one
    /// independent writer. 3! = 6 interleavings, but only the order of
    /// the two racing writers matters ⇒ 2 Mazurkiewicz traces. DPOR
    /// must explore exactly one schedule per trace.
    #[test]
    fn dpor_explores_one_schedule_per_trace() {
        let runner = move |driver: &mut ScheduleDriver| {
            let world = SimWorld::new(3);
            let mem = world.mem();
            let shared = mem.alloc("X", 0u64);
            let lone = mem.alloc("Y", 0u64);
            let s0 = shared.clone();
            let s1 = shared;
            let programs: Vec<crate::Program> = vec![
                Box::new(move |_| s0.write(1)),
                Box::new(move |_| s1.write(2)),
                Box::new(move |_| lone.write(3)),
            ];
            world.run(programs, driver, 100)
        };
        let explorer = Explorer::default();
        let outcome = explorer.explore(runner);
        assert!(outcome.exhausted);
        assert_eq!(outcome.runs, 2, "one schedule per Mazurkiewicz trace");
    }

    #[test]
    fn parallel_exploration_visits_the_same_schedules() {
        use std::collections::BTreeSet;
        let runner = writers_runner(3, false);
        let seq_scripts = Mutex::new(BTreeSet::new());
        let explorer = Explorer {
            mode: PruneMode::Unpruned,
            ..Explorer::default()
        };
        let out = explorer.explore(|d| {
            let o = runner(d);
            seq_scripts.lock().unwrap().insert(o.script());
            o
        });
        assert!(out.exhausted);
        let par_scripts = Mutex::new(BTreeSet::new());
        let explorer = Explorer {
            mode: PruneMode::Unpruned,
            workers: 3,
            ..Explorer::default()
        };
        let out = explorer.explore(|d| {
            let o = runner(d);
            par_scripts.lock().unwrap().insert(o.script());
            o
        });
        assert!(out.exhausted);
        assert_eq!(out.runs, 6);
        assert_eq!(
            seq_scripts.into_inner().unwrap(),
            par_scripts.into_inner().unwrap()
        );
    }

    /// An Observation-4-shaped narrow tree, after Algorithm 1's step
    /// pattern: a writer whose operations read the reader's announcement
    /// and write `X` with a sequence number cycling through four values,
    /// and a reader whose operations read `X`, read and rewrite their
    /// announcement, and reread `X`, each operation behind a pause. With
    /// two processes a node never holds a demand besides the child its
    /// owner pops next, so delegating only a node's further demands at
    /// that pop never publishes anything here.
    fn narrow_runner(
        writes: u64,
        reads: usize,
    ) -> impl Fn(&mut ScheduleDriver) -> RunOutcome + Sync {
        move |d: &mut ScheduleDriver| {
            let world = SimWorld::new(2);
            let mem = world.mem();
            let x = mem.alloc("X", 0u64);
            let a = mem.alloc("A", 0u64);
            let (xw, aw) = (x.clone(), a.clone());
            let writer: crate::Program = Box::new(move |ctx| {
                for i in 0..writes {
                    ctx.pause();
                    let announced = aw.read();
                    xw.write(1 + (i + announced) % 4);
                }
            });
            let reader: crate::Program = Box::new(move |ctx| {
                for _ in 0..reads {
                    ctx.pause();
                    let seen = x.read();
                    let _ = a.read();
                    a.write(seen);
                    let _ = x.read();
                }
            });
            world.run(vec![writer, reader], d, 1_000)
        }
    }

    /// Declines every task, counting the offers: each published task is
    /// offered at least once, stolen or claimed back.
    #[derive(Default)]
    struct Offered(AtomicUsize);

    impl TaskDispatcher for Offered {
        fn dispatch(&self, _: &FrozenTask) -> Option<Result<TaskResult, String>> {
            self.0.fetch_add(1, Ordering::SeqCst);
            None
        }
    }

    /// The headline determinism guarantee of the partitioned DPOR
    /// explorer: at any worker count, runs, cut replays, pruned totals,
    /// and the set of explored schedules are bit-identical to the
    /// sequential exploration — and above one worker, subtrees are
    /// published even on the narrow tree.
    #[test]
    fn parallel_dpor_is_bit_identical_to_sequential() {
        use std::collections::BTreeSet;
        type Runner = Box<dyn Fn(&mut ScheduleDriver) -> RunOutcome + Sync>;
        let cases: Vec<(&str, PruneMode, Runner)> = vec![
            ("mixed 2", PruneMode::Unpruned, Box::new(mixed_runner(2))),
            ("mixed 3", PruneMode::SourceDpor, Box::new(mixed_runner(3))),
            ("mixed 4", PruneMode::SourceDpor, Box::new(mixed_runner(4))),
            ("mixed 3", PruneMode::OptimalDpor, Box::new(mixed_runner(3))),
            ("mixed 4", PruneMode::OptimalDpor, Box::new(mixed_runner(4))),
            (
                "narrow",
                PruneMode::SourceDpor,
                Box::new(narrow_runner(3, 1)),
            ),
            (
                "narrow",
                PruneMode::OptimalDpor,
                Box::new(narrow_runner(2, 2)),
            ),
        ];
        for (name, mode, runner) in &cases {
            let explore_at = |workers: usize| {
                let scripts = Mutex::new(BTreeSet::new());
                let offered = Offered::default();
                let explorer = Explorer {
                    mode: *mode,
                    workers,
                    ..Explorer::default()
                };
                let out = explorer.explore_dispatched(
                    || (),
                    |_: &mut (), d: &mut ScheduleDriver| {
                        let o = runner(d);
                        if !d.was_cut() {
                            scripts.lock().unwrap().insert(o.script());
                        }
                    },
                    &offered,
                );
                assert!(out.exhausted, "{name} {mode:?} at {workers} workers");
                let offered = offered.0.load(Ordering::SeqCst);
                (out, scripts.into_inner().unwrap(), offered)
            };
            let (seq, seq_scripts, _) = explore_at(1);
            for workers in [2, 4, 8] {
                let (par, par_scripts, offered) = explore_at(workers);
                let tag = format!("{name} {mode:?} at {workers} workers");
                assert_eq!(seq, par, "{tag}: outcome diverged");
                assert_eq!(seq_scripts, par_scripts, "{tag}: schedule set diverged");
                assert!(offered > 0, "{tag}: no subtree was published");
            }
        }
    }

    /// The publication rule on a hand-built spine of three processes
    /// writing three registers (so a sleeper stays asleep across any
    /// other process's step): the shallowest node with an uncovered
    /// demand publishes it; the node's in-flight child and its already
    /// delegated sibling cover their own demands and sleep in the
    /// published task; and a node whose prefix clocks are not cached is
    /// not offered.
    #[test]
    fn publication_takes_the_shallowest_uncovered_demand() {
        let explorer = Explorer {
            mode: PruneMode::SourceDpor,
            workers: 2,
            ..Explorer::default()
        };
        let (new_ctx, runner) = (|| (), |_: &mut (), _: &mut ScheduleDriver| {});
        let shared = DporShared::new(&explorer, &new_ctx, &runner, 2, usize::MAX, None, None);
        let write = |r: usize| PendingAccess {
            reg: crate::world::RegId(r as u32),
            kind: AccessKind::Write,
        };
        let demand = |p: usize| vec![(p, write(p))];
        let node = |chosen: usize, demands: Vec<Demand>| SpineNode {
            runnable: vec![0, 1, 2],
            pending: vec![write(0), write(1), write(2)],
            sleep_now: 0,
            done: 0,
            backtrack: 1 << chosen,
            chosen,
            meta: StepMeta::unknown(write(chosen)),
            delegated: Vec::new(),
            demands: demands.into(),
        };
        let sibling = Arc::new(TaskSlot::new(SubtreeTask {
            prefix: vec![0, 1],
            accesses: Vec::new(),
            clocks: ClockTable::default(),
            sleep: 0,
            floor: 2,
        }));
        let mut spine = vec![
            // Its one demand is its in-flight child's.
            node(0, vec![demand(0)]),
            // Process 1 is already delegated here.
            node(0, vec![demand(1), demand(2)]),
            node(1, vec![demand(0)]),
        ];
        spine[1].done = 1 << 1;
        spine[1].delegated.push(sibling);
        let clocks = |rows: usize| ClockTable {
            width: 3,
            rows: vec![0; rows * 3],
        };
        publish_shallowest(&shared, 0, &mut spine, 0, &clocks(2));
        assert!(spine[0].demands.is_empty() && spine[0].delegated.is_empty());
        assert!(spine[1].demands.is_empty());
        assert_eq!(spine[1].delegated.len(), 2);
        assert_eq!(spine[1].done, 1 << 1 | 1 << 2);
        let task = &spine[1].delegated[1].spec;
        assert_eq!(task.prefix, [0, 2]);
        assert_eq!(task.floor, 2);
        assert_eq!(
            task.sleep,
            1 << 0 | 1 << 1,
            "in-flight child and sibling sleep"
        );
        assert_eq!(spine[2].demands.len(), 1, "a deeper node waits its turn");
        assert_eq!(shared.queued.load(Ordering::SeqCst), 1);
        assert_eq!(shared.deques[0].lock().unwrap().len(), 1);
        // Node 2 needs the clocks of the two steps above it.
        publish_shallowest(&shared, 0, &mut spine, 0, &clocks(1));
        assert!(spine[2].delegated.is_empty());
        publish_shallowest(&shared, 0, &mut spine, 0, &clocks(2));
        let task = &spine[2].delegated[0].spec;
        assert_eq!(
            (task.prefix.as_slice(), task.floor),
            ([0, 0, 0].as_slice(), 3)
        );
        assert_eq!(task.sleep, 1 << 1);
    }

    /// Parallel DPOR with a stem: same restriction, same counts.
    #[test]
    fn parallel_dpor_respects_the_stem() {
        let explore_at = |workers: usize| {
            let explorer = Explorer {
                mode: PruneMode::SourceDpor,
                workers,
                stem: vec![2],
                ..Explorer::default()
            };
            let runner = mixed_runner(3);
            let scripts = Mutex::new(Vec::new());
            let out = explorer.explore(|d| {
                let o = runner(d);
                scripts.lock().unwrap().push(o.script());
                o
            });
            for s in scripts.into_inner().unwrap() {
                assert_eq!(s[0], 2, "every schedule extends the stem");
            }
            out
        };
        let seq = explore_at(1);
        assert!(seq.exhausted);
        assert_eq!(seq, explore_at(4));
    }

    /// Every mode visits the same set of final memory states (the
    /// verdict-relevant abstraction of the schedule space) on a racy
    /// workload.
    #[test]
    fn all_modes_cover_the_same_final_states() {
        use std::collections::BTreeSet;
        let finals_for = |mode: PruneMode| {
            let finals = Mutex::new(BTreeSet::new());
            let explorer = Explorer {
                mode,
                ..Explorer::default()
            };
            let runner = writers_runner(3, false);
            let out = explorer.explore(|d| {
                let o = runner(d);
                if !d.was_cut() {
                    let last = o.steps().last().unwrap().value();
                    finals.lock().unwrap().insert(last);
                }
                o
            });
            assert!(out.exhausted, "{mode:?}");
            finals.into_inner().unwrap()
        };
        let unpruned = finals_for(PruneMode::Unpruned);
        assert_eq!(unpruned.len(), 3, "last write can be any of the three");
        assert_eq!(finals_for(PruneMode::SourceDpor), unpruned);
        // The observer rule only ever commutes a write that is later
        // overwritten, so the last write of every trace — and with it
        // the final state — survives the collapse.
        assert_eq!(finals_for(PruneMode::OptimalDpor), unpruned);
    }

    /// Two readers of one shared register: syntactic DPOR treats the
    /// reads as conflicting (2 schedules); the refined relation's value
    /// layer commutes read/read pairs (1 schedule). A writer of the *same*
    /// value as the initial write commutes too; distinct values don't.
    #[test]
    fn value_dpor_commutes_reads_and_same_value_writes() {
        let readers = |driver: &mut ScheduleDriver| {
            let world = SimWorld::new(2);
            let mem = world.mem();
            let reg = mem.alloc("X", 0u64);
            let r0 = reg.clone();
            let r1 = reg;
            let programs: Vec<crate::Program> = vec![
                Box::new(move |_| {
                    let _ = r0.read();
                }),
                Box::new(move |_| {
                    let _ = r1.read();
                }),
            ];
            world.run(programs, driver, 100)
        };
        let same_writers = |driver: &mut ScheduleDriver| {
            let world = SimWorld::new(2);
            let mem = world.mem();
            let reg = mem.alloc("X", 0u64);
            let r0 = reg.clone();
            let r1 = reg;
            let programs: Vec<crate::Program> = vec![
                Box::new(move |_| r0.write(7)),
                Box::new(move |_| r1.write(7)),
            ];
            world.run(programs, driver, 100)
        };
        let count =
            |mode: PruneMode, runner: &(dyn Fn(&mut ScheduleDriver) -> RunOutcome + Sync)| {
                let explorer = Explorer {
                    mode,
                    ..Explorer::default()
                };
                let out = explorer.explore(runner);
                assert!(out.exhausted, "{mode:?}");
                out.schedules_replayed()
            };
        assert_eq!(count(PruneMode::SourceDpor, &readers), 2);
        assert_eq!(
            count(PruneMode::OptimalDpor, &readers),
            1,
            "read/read commutes"
        );
        assert_eq!(count(PruneMode::SourceDpor, &same_writers), 2);
        assert_eq!(
            count(PruneMode::OptimalDpor, &same_writers),
            1,
            "same-value writes commute"
        );
        // Distinct values, and the last write is never overwritten: the
        // write/write race is real in both modes.
        assert_eq!(count(PruneMode::OptimalDpor, &writers_runner(2, false)), 2);
    }

    /// The event guard: when a high-level event marker rides on a step
    /// (here: each process's read is the last access before its
    /// `respond`-style marker), the refined relation must *not*
    /// commute it — swapping would move the event across the other
    /// process's step in the transcript.
    #[test]
    fn value_dpor_never_commutes_steps_carrying_events() {
        let runner = |driver: &mut ScheduleDriver| {
            let world = SimWorld::new(2);
            let mem = world.mem();
            let reg = mem.alloc("X", 0u64);
            let r0 = reg.clone();
            let r1 = reg;
            let w0 = world.clone();
            let w1 = world.clone();
            let programs: Vec<crate::Program> = vec![
                Box::new(move |_| {
                    let _ = r0.read();
                    w0.push_hi_marker(0, None);
                }),
                Box::new(move |_| {
                    let _ = r1.read();
                    w1.push_hi_marker(1, None);
                }),
            ];
            world.run(programs, driver, 100)
        };
        for mode in [PruneMode::SourceDpor, PruneMode::OptimalDpor] {
            let explorer = Explorer {
                mode,
                ..Explorer::default()
            };
            let out = explorer.explore(runner);
            assert!(out.exhausted, "{mode:?}");
            assert_eq!(
                out.schedules_replayed(),
                2,
                "{mode:?}: event-carrying reads must stay ordered both ways"
            );
        }
    }

    /// Data-register symbols touched by one run of `runner` —
    /// interning is global and keyed by `(name, alloc site)`, so the
    /// symbols collected from one replay identify the same registers
    /// in every replay of the same runner.
    fn collect_data_syms<R>(runner: &R) -> Vec<RegSym>
    where
        R: Fn(&mut ScheduleDriver) -> RunOutcome + Sync,
    {
        let syms = Mutex::new(Vec::new());
        let explorer = Explorer {
            mode: PruneMode::Unpruned,
            max_runs: 1,
            ..Explorer::default()
        };
        explorer.explore(|d| {
            let o = runner(d);
            let mut s = syms.lock().unwrap();
            for step in o.steps() {
                let r = step.reg_sym();
                if r != RegSym::LOCAL && !s.contains(&r) {
                    s.push(r);
                }
            }
            o
        });
        syms.into_inner().unwrap()
    }

    /// One pausing invoker vs one writer: the pause carries an
    /// invocation marker, so the syntactic relation treats it as
    /// conflicting with the write (2 placements), while the refined
    /// relation with the writer's register licensed commutes the pair
    /// (1 schedule).
    fn invoke_placement_runner(respond: bool) -> impl Fn(&mut ScheduleDriver) -> RunOutcome + Sync {
        move |driver: &mut ScheduleDriver| {
            let world = SimWorld::new(2);
            let mem = world.mem();
            let reg = mem.alloc("X", 0u64);
            let w0 = world.clone();
            let programs: Vec<crate::Program> = vec![
                Box::new(move |ctx| {
                    ctx.pause();
                    w0.push_hi_marker(0, (!respond).then(|| OpSym::intern("TestInvoke")));
                }),
                Box::new(move |_| reg.write(1)),
            ];
            world.run(programs, driver, 100)
        }
    }

    #[test]
    fn static_dpor_relaxes_licensed_invocation_placement() {
        let runner = invoke_placement_runner(false);
        let syms = collect_data_syms(&runner);
        assert_eq!(syms.len(), 1, "one data register");
        let source = Explorer {
            mode: PruneMode::SourceDpor,
            ..Explorer::default()
        }
        .explore(&runner);
        assert!(source.exhausted);
        assert_eq!(source.schedules_replayed(), 2, "placement branches");
        let st = Arc::new(StaticConflicts::new(syms.clone(), syms));
        let out = Explorer {
            mode: PruneMode::OptimalDpor,
            statics: Some(Arc::clone(&st)),
            ..Explorer::default()
        }
        .explore(&runner);
        assert!(out.exhausted);
        assert_eq!(
            out.schedules_replayed(),
            1,
            "licensed invoke-pause commutes with the marker-free write"
        );
        assert!(st.telemetry().relaxed > 0, "relaxation actually fired");
    }

    #[test]
    fn static_dpor_never_relaxes_response_markers() {
        let runner = invoke_placement_runner(true);
        let syms = collect_data_syms(&runner);
        let st = Arc::new(StaticConflicts::new(syms.clone(), syms));
        let out = Explorer {
            mode: PruneMode::OptimalDpor,
            statics: Some(st),
            ..Explorer::default()
        }
        .explore(&runner);
        assert!(out.exhausted);
        assert_eq!(
            out.schedules_replayed(),
            2,
            "a response-carrying pause pins real-time order"
        );
    }

    #[test]
    fn static_dpor_keeps_all_conflicting_interleavings() {
        // Same register, distinct values: fully racy. With the
        // register licensed *and* predicted racy, the certificate must
        // keep every trace the relation without it keeps.
        let runner = writers_runner(3, false);
        let syms = collect_data_syms(&runner);
        let st = Arc::new(StaticConflicts::new(syms.clone(), syms));
        let out = Explorer {
            mode: PruneMode::OptimalDpor,
            statics: Some(Arc::clone(&st)),
            ..Explorer::default()
        }
        .explore(&runner);
        assert!(out.exhausted);
        assert_eq!(out.runs, 6, "all 6 conflicting traces kept");
        assert!(st.telemetry().validated > 0, "races were validated");
    }

    #[test]
    fn static_dpor_fails_closed_on_unpredicted_race() {
        let runner = writers_runner(2, false);
        let syms = collect_data_syms(&runner);
        // Licensed but *not* predicted racy: the dynamic write/write
        // race must abort the subtree. Quarantine converts the abort
        // into a partial verdict (never a silent PASS) whose poisoned
        // report carries the named diagnostic.
        let st = Arc::new(StaticConflicts::new(syms, []));
        let out = Explorer {
            mode: PruneMode::OptimalDpor,
            statics: Some(st),
            ..Explorer::default()
        }
        .explore(&runner);
        assert!(
            !out.exhausted,
            "an unpredicted race never reads as a full pass"
        );
        assert!(out.partial, "quarantine marks the outcome partial");
        assert_eq!(out.quarantined, 1);
        assert_eq!(out.retried, QUARANTINE_RETRIES as u64);
        let msg = &out.poisoned[0].message;
        assert!(
            msg.contains("not predicted") && msg.contains("register `X`"),
            "diagnostic names the register: {msg}"
        );
    }

    /// The bit-identity guarantee extends to a certificate-carrying
    /// exploration: same outcome and schedule set at any worker count,
    /// and — on a workload with no pauses and no markers, where the
    /// certificate layer has nothing to relax — identical to the
    /// exploration without a certificate.
    #[test]
    fn parallel_static_dpor_is_bit_identical_to_sequential() {
        use std::collections::BTreeSet;
        let syms = collect_data_syms(&mixed_runner(3));
        let st = Arc::new(StaticConflicts::new(syms.clone(), syms));
        let explore_at = |workers: usize, certified: bool| {
            let runner = mixed_runner(3);
            let scripts = Mutex::new(BTreeSet::new());
            let explorer = Explorer {
                mode: PruneMode::OptimalDpor,
                workers,
                statics: certified.then(|| Arc::clone(&st)),
                ..Explorer::default()
            };
            let out = explorer.explore(|d| {
                let o = runner(d);
                if !d.was_cut() {
                    scripts.lock().unwrap().insert(o.script());
                }
                o
            });
            assert!(out.exhausted, "certified {certified} at {workers} workers");
            (out, scripts.into_inner().unwrap())
        };
        let (seq, seq_scripts) = explore_at(1, true);
        let (bare, bare_scripts) = explore_at(1, false);
        assert_eq!(seq, bare, "no pauses: the certificate changes nothing");
        assert_eq!(seq_scripts, bare_scripts);
        for workers in [2, 4, 8] {
            let (par, par_scripts) = explore_at(workers, true);
            assert_eq!(seq, par, "outcome diverged at {workers} workers");
            assert_eq!(seq_scripts, par_scripts, "schedules diverged at {workers}");
        }
    }

    /// One process writes `X` twice (distinct values), the other once:
    /// in the schedule where the lone write lands between the pair,
    /// both racing writes are overwritten before any read, so the
    /// observer relation commutes them. `SourceDpor` keeps all three
    /// placements; `OptimalDpor` collapses to two.
    fn overwritten_writers_runner(
        marker: bool,
    ) -> impl Fn(&mut ScheduleDriver) -> RunOutcome + Sync {
        move |driver: &mut ScheduleDriver| {
            let world = SimWorld::new(2);
            let mem = world.mem();
            let reg = mem.alloc("X", 0u64);
            let r0 = reg.clone();
            let r1 = reg;
            let w1 = world.clone();
            let programs: Vec<crate::Program> = vec![
                Box::new(move |_| {
                    r0.write(1);
                    r0.write(3);
                }),
                Box::new(move |_| {
                    r1.write(2);
                    if marker {
                        w1.push_hi_marker(1, None);
                    }
                }),
            ];
            world.run(programs, driver, 100)
        }
    }

    #[test]
    fn optimal_dpor_commutes_unobserved_overwritten_writes() {
        let count =
            |mode: PruneMode, runner: &(dyn Fn(&mut ScheduleDriver) -> RunOutcome + Sync)| {
                let explorer = Explorer {
                    mode,
                    ..Explorer::default()
                };
                let out = explorer.explore(runner);
                assert!(out.exhausted, "{mode:?}");
                if mode == PruneMode::OptimalDpor {
                    assert_eq!(out.cut_runs, 0, "optimal mode never initiates a cut run");
                }
                out.schedules_replayed()
            };
        let plain = overwritten_writers_runner(false);
        assert_eq!(count(PruneMode::SourceDpor, &plain), 3);
        assert_eq!(
            count(PruneMode::OptimalDpor, &plain),
            2,
            "both overwritten writes commute before the final write"
        );
        // A marker riding on the lone write pins it against both of the
        // other process's writes: the event guard fires before the
        // observer arm is ever consulted.
        let marked = overwritten_writers_runner(true);
        assert_eq!(count(PruneMode::SourceDpor, &marked), 3);
        assert_eq!(
            count(PruneMode::OptimalDpor, &marked),
            3,
            "event-carrying writes must stay ordered both ways"
        );
    }

    /// A read between the two program-ordered writes observes the
    /// first one in every schedule, so no write/write pair is ever
    /// unobserved-on-both-sides and `OptimalDpor` keeps every
    /// placement `SourceDpor` keeps.
    #[test]
    fn optimal_dpor_keeps_writes_observed_by_a_read() {
        let runner = |driver: &mut ScheduleDriver| {
            let world = SimWorld::new(2);
            let mem = world.mem();
            let reg = mem.alloc("X", 0u64);
            let r0 = reg.clone();
            let r1 = reg;
            let programs: Vec<crate::Program> = vec![
                Box::new(move |_| {
                    r0.write(1);
                    let _ = r0.read();
                    r0.write(3);
                }),
                Box::new(move |_| r1.write(2)),
            ];
            world.run(programs, driver, 100)
        };
        for mode in [PruneMode::SourceDpor, PruneMode::OptimalDpor] {
            let explorer = Explorer {
                mode,
                ..Explorer::default()
            };
            let out = explorer.explore(runner);
            assert!(out.exhausted, "{mode:?}");
            assert_eq!(
                out.schedules_replayed(),
                4,
                "{mode:?}: the observing read blocks every collapse"
            );
        }
    }

    /// Three same-register writers with distinct values under
    /// `OptimalDpor`: within any one word the two overwritten writes
    /// commute, but every reversal demand is anchored at the pinned
    /// *last* write, so both members of each conditional-independence
    /// class are still reached (collapsing them needs full wakeup-tree
    /// subsumption, which the FIFO queue deliberately does not do).
    /// What the mode guarantees here is completeness without a single
    /// sleep-set-blocked initiation.
    #[test]
    fn optimal_dpor_keeps_conflicting_interleavings_cut_free() {
        let runner = writers_runner(3, false);
        let explorer = Explorer {
            mode: PruneMode::OptimalDpor,
            ..Explorer::default()
        };
        let out = explorer.explore(&runner);
        assert!(out.exhausted);
        assert_eq!(out.runs, 6, "all conflicting traces kept");
        assert_eq!(out.cut_runs, 0, "no sleep-set-blocked run is initiated");
    }

    /// `OptimalDpor` consults an installed access-footprint
    /// certificate, but never requires one.
    #[test]
    fn optimal_dpor_consults_an_optional_certificate() {
        let runner = invoke_placement_runner(false);
        let syms = collect_data_syms(&runner);
        let bare = Explorer {
            mode: PruneMode::OptimalDpor,
            ..Explorer::default()
        }
        .explore(&runner);
        assert!(bare.exhausted, "no certificate required");
        assert_eq!(bare.schedules_replayed(), 2, "placement branches");
        let st = Arc::new(StaticConflicts::new(syms.clone(), syms));
        let out = Explorer {
            mode: PruneMode::OptimalDpor,
            statics: Some(Arc::clone(&st)),
            ..Explorer::default()
        }
        .explore(&runner);
        assert!(out.exhausted);
        assert_eq!(
            out.schedules_replayed(),
            1,
            "licensed invoke-pause commutes with the marker-free write"
        );
        assert!(st.telemetry().relaxed > 0, "relaxation actually fired");
    }

    /// The headline optimality property on the bushier mixed workload:
    /// `OptimalDpor` explores no more schedules than `SourceDpor`,
    /// initiates zero sleep-set-blocked runs, and still covers the
    /// same final shared-register states.
    #[test]
    fn optimal_dpor_is_cut_free_on_the_mixed_workload() {
        use std::collections::BTreeSet;
        let explore_at = |mode: PruneMode| {
            let runner = mixed_runner(3);
            let finals = Mutex::new(BTreeSet::new());
            let explorer = Explorer {
                mode,
                ..Explorer::default()
            };
            let out = explorer.explore(|d| {
                let o = runner(d);
                if !d.was_cut() {
                    let last = o.steps().last().unwrap().value();
                    finals.lock().unwrap().insert(last);
                }
                o
            });
            assert!(out.exhausted, "{mode:?}");
            (out, finals.into_inner().unwrap())
        };
        let (source, source_finals) = explore_at(PruneMode::SourceDpor);
        let (optimal, optimal_finals) = explore_at(PruneMode::OptimalDpor);
        assert_eq!(optimal.cut_runs, 0, "no sleep-set-blocked run initiated");
        assert!(
            optimal.runs <= source.schedules_replayed(),
            "optimal ({}) must not exceed source DPOR ({})",
            optimal.runs,
            source.schedules_replayed()
        );
        assert_eq!(optimal_finals, source_finals, "verdict-relevant coverage");
    }

    #[test]
    fn stem_restricts_exploration_to_extensions() {
        // Stem forces p2 first; the rest is the 2-writer space.
        for mode in [PruneMode::Unpruned, PruneMode::SourceDpor] {
            let explorer = Explorer {
                mode,
                stem: vec![2],
                ..Explorer::default()
            };
            let scripts = Mutex::new(Vec::new());
            let out = explorer.explore(|d| {
                let o = writers_runner(3, false)(d);
                scripts.lock().unwrap().push(o.script());
                o
            });
            assert!(out.exhausted, "{mode:?}");
            assert_eq!(out.runs, 2, "{mode:?}");
            for s in scripts.into_inner().unwrap() {
                assert_eq!(s[0], 2, "every schedule extends the stem ({mode:?})");
            }
        }
    }

    #[test]
    fn run_budget_reports_not_exhausted() {
        for mode in [PruneMode::Unpruned, PruneMode::SourceDpor] {
            let explorer = Explorer {
                mode,
                max_runs: 3,
                ..Explorer::default()
            };
            let outcome = explorer.explore(writers_runner(3, false));
            assert_eq!(outcome.schedules_replayed(), 3, "{mode:?}");
            assert!(!outcome.exhausted, "{mode:?}");
        }
    }

    #[test]
    fn env_workers_parses_the_env_contract() {
        // Not set in the test environment by default.
        if std::env::var("SL_EXPLORE_THREADS").is_err() {
            assert_eq!(env_workers(), 1);
        }
    }

    /// The subtree hooks bracket the root exploration sequentially and
    /// every delegated task in parallel mode (counts balance).
    #[test]
    fn replay_ctx_subtree_hooks_balance() {
        struct Hooked<'a> {
            begun: &'a AtomicUsize,
            ended: &'a AtomicUsize,
            open: usize,
        }
        impl ReplayCtx for Hooked<'_> {
            fn subtree_begin(&mut self) {
                self.begun.fetch_add(1, Ordering::SeqCst);
                self.open += 1;
            }
            fn subtree_end(&mut self) {
                assert!(self.open > 0, "end without begin");
                self.open -= 1;
                self.ended.fetch_add(1, Ordering::SeqCst);
            }
        }
        for workers in [1, 4] {
            let begun = AtomicUsize::new(0);
            let ended = AtomicUsize::new(0);
            let runner = mixed_runner(3);
            let explorer = Explorer {
                mode: PruneMode::SourceDpor,
                workers,
                ..Explorer::default()
            };
            let out = explorer.explore_with(
                || Hooked {
                    begun: &begun,
                    ended: &ended,
                    open: 0,
                },
                |_, d| {
                    runner(d);
                },
            );
            assert!(out.exhausted);
            let b = begun.load(Ordering::SeqCst);
            assert_eq!(b, ended.load(Ordering::SeqCst), "{workers} workers");
            assert!(b >= 1);
        }
    }

    // -----------------------------------------------------------------
    // Crash resilience: quarantine, budgets + drain, checkpointed
    // resume, and deterministic fault injection.
    // -----------------------------------------------------------------

    fn resume_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sl-explore-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn quarantine_retries_then_quarantines_the_root_subtree() {
        let attempts = AtomicUsize::new(0);
        let runner = writers_runner(3, false);
        let out = Explorer::default().explore(|d| -> RunOutcome {
            let _ = runner(d);
            attempts.fetch_add(1, Ordering::SeqCst);
            panic!("injected object bug (test)");
        });
        assert_eq!(out.quarantined, 1);
        assert_eq!(out.retried, QUARANTINE_RETRIES as u64);
        assert!(out.partial && !out.exhausted, "never a silent pass");
        assert_eq!(out.runs, 0, "a quarantined subtree banks no counters");
        assert_eq!(
            attempts.load(Ordering::SeqCst),
            1 + QUARANTINE_RETRIES as usize,
            "one try plus the deterministic retries"
        );
        let report = &out.poisoned[0];
        assert_eq!(report.attempts, 1 + QUARANTINE_RETRIES);
        assert!(report.message.contains("injected object bug"));
        assert!(
            report.prefix.is_empty(),
            "the root's replay prefix is the stem"
        );
    }

    #[test]
    fn quarantine_keeps_the_process_alive_across_workers() {
        for workers in [1, 2] {
            let runner = mixed_runner(3);
            let explorer = Explorer {
                workers,
                ..Explorer::default()
            };
            // Deterministic per-schedule bug: every schedule led by
            // process 1 panics after its replay, wherever in the task
            // tree it is explored.
            let out = explorer.explore(|d| -> RunOutcome {
                let o = runner(d);
                if o.script().first() == Some(&1) {
                    panic!("injected bug on schedules led by process 1 (test)");
                }
                o
            });
            assert!(out.quarantined >= 1, "{workers} workers");
            assert_eq!(out.retried, QUARANTINE_RETRIES as u64 * out.quarantined);
            assert!(out.partial && !out.exhausted);
            assert_eq!(out.poisoned.len(), out.quarantined as usize);
            assert!(out.poisoned[0]
                .message
                .contains("injected bug on schedules led by process 1"));
        }
    }

    /// Scheduler adapter panicking inside [`Scheduler::pick`]: the VM's
    /// guarded pick site must abort the fibers and rethrow, landing in
    /// the explorer's quarantine instead of killing the process.
    struct PanickyPick<'a>(&'a mut ScheduleDriver);
    impl Scheduler for PanickyPick<'_> {
        fn pick(&mut self, _view: &SchedView<'_>) -> usize {
            panic!("injected pick panic (test)");
        }
        fn run_end(&mut self, trace: &[TraceItem]) {
            self.0.run_end(trace);
        }
    }

    /// Scheduler adapter panicking inside [`Scheduler::run_end`]: the
    /// VM must finish its core teardown before rethrowing, so the
    /// quarantined retries still find a usable world.
    struct PanickyEnd<'a>(&'a mut ScheduleDriver);
    impl Scheduler for PanickyEnd<'_> {
        fn pick(&mut self, view: &SchedView<'_>) -> usize {
            self.0.pick(view)
        }
        fn run_end(&mut self, _trace: &[TraceItem]) {
            panic!("injected run_end panic (test)");
        }
    }

    fn two_writer_programs(world: &SimWorld) -> Vec<crate::Program> {
        let mem = world.mem();
        let r = mem.alloc("X", 0u64);
        let r2 = r.clone();
        vec![
            Box::new(move |_| r.write(1)) as crate::Program,
            Box::new(move |_| r2.write(2)) as crate::Program,
        ]
    }

    #[test]
    fn a_panic_inside_scheduler_pick_funnels_into_quarantine() {
        let out = Explorer::default().explore(|d| {
            let world = SimWorld::new(2);
            let programs = two_writer_programs(&world);
            world.run(programs, &mut PanickyPick(d), 100)
        });
        assert_eq!(out.quarantined, 1);
        assert!(out.partial && !out.exhausted);
        assert!(out.poisoned[0].message.contains("injected pick panic"));
    }

    #[test]
    fn a_panic_inside_scheduler_run_end_funnels_into_quarantine() {
        let out = Explorer::default().explore(|d| {
            let world = SimWorld::new(2);
            let programs = two_writer_programs(&world);
            world.run(programs, &mut PanickyEnd(d), 100)
        });
        assert_eq!(out.quarantined, 1);
        assert!(out.partial && !out.exhausted);
        assert!(out.poisoned[0].message.contains("injected run_end panic"));
    }

    #[test]
    fn drained_exploration_resumes_to_the_uninterrupted_outcome() {
        use std::collections::BTreeSet;
        for (mode, workers, n) in [
            (PruneMode::SourceDpor, 1, 3),
            (PruneMode::SourceDpor, 2, 3),
            (PruneMode::OptimalDpor, 1, 3),
            (PruneMode::OptimalDpor, 4, 3),
            (PruneMode::Unpruned, 2, 2),
        ] {
            let runner = mixed_runner(n);
            let explorer = Explorer {
                mode,
                workers,
                ..Explorer::default()
            };
            let ref_scripts = Mutex::new(BTreeSet::new());
            let reference = explorer.explore(|d| {
                let o = runner(d);
                if !d.was_cut() {
                    ref_scripts.lock().unwrap().insert(o.script());
                }
                o
            });
            assert!(reference.exhausted);

            let dir = resume_dir(&format!("drain-{}-{workers}", mode.name()));
            let store = CheckpointStore::new(&dir, "mixed3");
            let res_scripts = Mutex::new(BTreeSet::new());
            let mut rounds = 0u64;
            let final_out = loop {
                rounds += 1;
                assert!(rounds < 500, "resume loop did not converge");
                let mut session = ResumeSession::new(&store);
                session.policy = CheckpointPolicy {
                    every_replays: 3,
                    max_schedules: Some(rounds * 10),
                    deadline: None,
                };
                let out = explorer.explore_resumable(
                    || (),
                    |_, d| {
                        let o = runner(d);
                        if !d.was_cut() {
                            res_scripts.lock().unwrap().insert(o.script());
                        }
                    },
                    &session,
                );
                if !out.drained {
                    break out;
                }
                assert!(out.partial && !out.exhausted, "a drain is never a pass");
                assert!(store.exists() || out.schedules_replayed() == 0);
            };
            let tag = format!("{} at {workers} workers after {rounds} rounds", mode.name());
            assert!(final_out.exhausted, "{tag}");
            assert_eq!(final_out.runs, reference.runs, "{tag}");
            assert_eq!(final_out.cut_runs, reference.cut_runs, "{tag}");
            assert_eq!(final_out.pruned, reference.pruned, "{tag}");
            assert_eq!(final_out.quarantined, 0, "{tag}");
            assert!(
                rounds > 1,
                "the budget actually interrupted the run ({tag})"
            );
            assert!(!store.exists(), "a finished run deletes its checkpoint");
            assert_eq!(
                ref_scripts.into_inner().unwrap(),
                res_scripts.into_inner().unwrap(),
                "interrupt + resume explores exactly the uninterrupted schedule set ({tag})"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn an_expired_deadline_drains_at_the_first_replay_boundary() {
        let runner = mixed_runner(3);
        let dir = resume_dir("deadline");
        let store = CheckpointStore::new(&dir, "mixed3");
        let explorer = Explorer::default();
        let mut session = ResumeSession::new(&store);
        session.policy.deadline = Some(std::time::Instant::now());
        let out = explorer.explore_resumable(|| (), |_, d| drop(runner(d)), &session);
        assert!(out.drained && out.partial && !out.exhausted);
        assert_eq!(out.runs, 0, "no replay ran past the deadline");
        assert!(
            !store.exists(),
            "nothing explored yet, nothing to checkpoint"
        );
        // With the deadline lifted the same store runs to completion.
        let out =
            explorer.explore_resumable(|| (), |_, d| drop(runner(d)), &ResumeSession::new(&store));
        let reference = explorer.explore(&runner);
        assert!(out.exhausted);
        assert_eq!(out.runs, reference.runs);
        assert_eq!(out.pruned, reference.pruned);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every in-process fault-injection point, at one and at four
    /// workers: the injected crash either never fires (the site is
    /// unreachable at that worker count — e.g. nothing is ever stolen
    /// sequentially) and the run completes clean, or it crashes the
    /// exploration and a resume from the surviving checkpoint ends at
    /// the bit-identical uninterrupted outcome.
    #[test]
    fn fault_injection_matrix_recovers_bit_identically() {
        for point in [
            FaultPoint::TaskFreeze,
            FaultPoint::Steal,
            FaultPoint::JoinMerge,
            FaultPoint::CkptWrite,
        ] {
            for workers in [1, 4] {
                let runner = mixed_runner(3);
                let explorer = Explorer {
                    workers,
                    ..Explorer::default()
                };
                let reference = explorer.explore(&runner);
                let dir = resume_dir(&format!("fault-{}-{workers}", point.name()));
                let store = CheckpointStore::new(&dir, "mixed3");
                let plan = Arc::new(FaultPlan::panicking(point, 1));
                let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let mut session = ResumeSession::new(&store);
                    session.policy.every_replays = 3;
                    session.fault = Some(Arc::clone(&plan));
                    explorer.explore_resumable(|| (), |_, d| drop(runner(d)), &session)
                }));
                let tag = format!("{} at {workers} workers", point.name());
                if let Ok(out) = crashed {
                    assert!(out.exhausted, "no crash ⇒ a clean pass ({tag})");
                    assert_eq!(out.runs, reference.runs, "{tag}");
                    let _ = std::fs::remove_dir_all(&dir);
                    continue;
                }
                let out = explorer.explore_resumable(
                    || (),
                    |_, d| drop(runner(d)),
                    &ResumeSession::new(&store),
                );
                assert!(out.exhausted, "{tag}");
                assert_eq!(out.runs, reference.runs, "{tag}");
                assert_eq!(out.cut_runs, reference.cut_runs, "{tag}");
                assert_eq!(out.pruned, reference.pruned, "{tag}");
                assert!(!store.exists(), "{tag}");
                let _ = std::fs::remove_dir_all(&dir);
            }
        }
    }

    #[test]
    fn a_crash_during_resume_parse_recovers_on_retry() {
        let runner = mixed_runner(3);
        let explorer = Explorer::default();
        let reference = explorer.explore(&runner);
        let dir = resume_dir("resume-parse");
        let store = CheckpointStore::new(&dir, "mixed3");
        let mut session = ResumeSession::new(&store);
        session.policy.every_replays = 2;
        session.policy.max_schedules = Some(5);
        let out = explorer.explore_resumable(|| (), |_, d| drop(runner(d)), &session);
        assert!(
            out.drained && store.exists(),
            "a real checkpoint to resume from"
        );
        let plan = Arc::new(FaultPlan::panicking(FaultPoint::ResumeParse, 1));
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut session = ResumeSession::new(&store);
            session.fault = Some(plan);
            explorer.explore_resumable(|| (), |_, d| drop(runner(d)), &session)
        }));
        assert!(crashed.is_err(), "the parse-time fault crashes the resume");
        assert!(store.exists(), "the checkpoint survives a parse-time crash");
        let out =
            explorer.explore_resumable(|| (), |_, d| drop(runner(d)), &ResumeSession::new(&store));
        assert!(out.exhausted);
        assert_eq!(out.runs, reference.runs);
        assert_eq!(out.pruned, reference.pruned);
        assert!(!store.exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_drained_checkpoint_roundtrips_byte_identically() {
        let runner = mixed_runner(4);
        let dir = resume_dir("roundtrip");
        let store = CheckpointStore::new(&dir, "mixed4");
        let explorer = Explorer {
            mode: PruneMode::OptimalDpor,
            workers: 4,
            ..Explorer::default()
        };
        let mut session = ResumeSession::new(&store);
        session.policy.every_replays = 5;
        session.policy.max_schedules = Some(40);
        let out = explorer.explore_resumable(|| (), |_, d| drop(runner(d)), &session);
        assert!(out.drained && store.exists());
        let text = std::fs::read_to_string(store.path()).unwrap();
        let ckpt = Checkpoint::parse(&text).expect("a written checkpoint parses");
        assert_eq!(
            ckpt.render(),
            text,
            "serialize → parse → serialize is byte-identical"
        );
        assert!(!ckpt.spine.is_empty());
        assert_eq!(ckpt.workers, 4);
        assert_eq!(ckpt.mode, "OptimalDpor");
        // And the frontier it carries resumes to the uninterrupted totals.
        let reference = explorer.explore(&runner);
        let fin =
            explorer.explore_resumable(|| (), |_, d| drop(runner(d)), &ResumeSession::new(&store));
        assert!(fin.exhausted);
        assert_eq!(fin.runs, reference.runs);
        assert_eq!(fin.cut_runs, reference.cut_runs);
        assert_eq!(fin.pruned, reference.pruned);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_mode_and_worker_mismatches() {
        let runner = mixed_runner(3);
        let dir = resume_dir("mismatch");
        let store = CheckpointStore::new(&dir, "mixed3");
        let mut session = ResumeSession::new(&store);
        session.policy.every_replays = 2;
        session.policy.max_schedules = Some(5);
        let drained = Explorer {
            workers: 2,
            ..Explorer::default()
        }
        .explore_resumable(|| (), |_, d| drop(runner(d)), &session);
        assert!(drained.drained && store.exists());
        let panic_msg = |explorer: Explorer| -> String {
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                explorer.explore_resumable(
                    || (),
                    |_, d| drop(runner(d)),
                    &ResumeSession::new(&store),
                )
            }))
            .expect_err("mismatched resume must fail closed");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let msg = panic_msg(Explorer {
            mode: PruneMode::SourceDpor,
            workers: 2,
            ..Explorer::default()
        });
        assert!(msg.contains("mode"), "names the mode mismatch: {msg}");
        let msg = panic_msg(Explorer {
            workers: 4,
            ..Explorer::default()
        });
        assert!(
            msg.contains("worker-count"),
            "names the worker mismatch: {msg}"
        );
        assert!(store.exists(), "rejection leaves the checkpoint untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The registers, ops and values a random executed word draws from,
    /// and two identically built certificates: one for the pass, one
    /// for the reference, so each side's telemetry counts its own
    /// evaluations.
    struct WordAlphabet {
        regs: Vec<RegSym>,
        ops: Vec<OpSym>,
        values: Vec<ValueId>,
        certs: [StaticConflicts; 2],
    }

    impl WordAlphabet {
        fn new() -> WordAlphabet {
            let regs: Vec<RegSym> = (1..=3)
                .map(|line| RegSym::intern("race_ref", "race_reference.rs", line, 1))
                .collect();
            let ops: Vec<OpSym> = ["race_ref.a", "race_ref.b", "race_ref.c"]
                .into_iter()
                .map(OpSym::intern)
                .collect();
            let values = (0u64..2).map(|v| ValueId::of(&v)).collect();
            let cert = || {
                // Every register racy (validation never aborts), the
                // placement license on two of three, and two probed op
                // pairs licensing the first register.
                let mut st = StaticConflicts::new(regs[..2].to_vec(), regs.clone());
                st.add_pair("race_ref.a", "race_ref.b", [regs[0]], [regs[0]]);
                st.add_pair("race_ref.a", "race_ref.a", [regs[0], regs[1]], []);
                st
            };
            WordAlphabet {
                certs: [cert(), cert()],
                regs,
                ops,
                values,
            }
        }

        /// One random step of process `p` on the first `nregs`
        /// registers: reads, writes, RMWs and pauses, with values,
        /// event markers, op identities and observer flags, and now
        /// and then the unknown metadata of an untraced run.
        fn step(&self, rng: &mut sl_mem::SmallRng, nregs: usize) -> StepMeta {
            let op = |rng: &mut sl_mem::SmallRng| match rng.gen_range(self.ops.len() + 1) {
                0 => OpSym::NONE,
                i => self.ops[i - 1],
            };
            let kind = [
                AccessKind::Read,
                AccessKind::Write,
                AccessKind::Rmw,
                AccessKind::Local,
            ][rng.gen_range(4)];
            if kind == AccessKind::Local {
                let hi = rng.gen_bool(0.4);
                return StepMeta {
                    access: PendingAccess::LOCAL,
                    exec: ExecMeta {
                        value: ValueId::NONE,
                        reg: RegSym::LOCAL,
                        hi,
                        resp: hi && rng.gen_bool(0.5),
                        unobs_w: false,
                        op: op(rng),
                    },
                };
            }
            let r = rng.gen_range(nregs);
            let access = PendingAccess {
                reg: crate::world::RegId(r as u32),
                kind,
            };
            if rng.gen_bool(0.05) {
                return StepMeta::unknown(access);
            }
            let hi = rng.gen_bool(0.25);
            StepMeta {
                access,
                exec: ExecMeta {
                    value: *rng.choose(&self.values),
                    reg: self.regs[r],
                    hi,
                    resp: hi && rng.gen_bool(0.5),
                    unobs_w: kind == AccessKind::Write && rng.gen_bool(0.5),
                    op: op(rng),
                },
            }
        }

        /// The relation setting `setting` (0..4), with certificate
        /// `side` for the refined setting that carries one.
        fn relation(&self, setting: usize, side: usize) -> Relation<'_> {
            match setting {
                0 => Relation::AllDependent,
                1 => Relation::Syntactic,
                2 => Relation::Refined(None),
                _ => Relation::Refined(Some(&self.certs[side])),
            }
        }

        fn telemetry(&self, side: usize) -> (u64, u64) {
            let t = self.certs[side].telemetry();
            (t.validated, t.unattributed)
        }
    }

    /// Spine nodes for `steps` from word index `from` on: ghosts below
    /// `ghosts`, live nodes with a random runnable set (holding the
    /// chosen process), a random source set and a random sleep set.
    fn random_nodes(
        rng: &mut sl_mem::SmallRng,
        steps: &[(usize, StepMeta)],
        from: usize,
        ghosts: usize,
        nprocs: usize,
    ) -> Vec<SpineNode> {
        let mut nodes = Vec::new();
        for (i, &(p, meta)) in steps.iter().enumerate() {
            if from + i < ghosts {
                nodes.push(SpineNode::ghost(p, meta));
                continue;
            }
            let mut node = SpineNode::ghost(p, meta);
            node.runnable = (0..nprocs)
                .filter(|&q| q == p || rng.gen_bool(0.6))
                .collect();
            node.pending = node.runnable.iter().map(|_| meta.access).collect();
            let others = rng.next_u64() & ((1u64 << nprocs) - 1) & !(1 << p);
            node.backtrack = 1 << p | (others & rng.next_u64());
            node.sleep_now = others & rng.next_u64();
            nodes.push(node);
        }
        nodes
    }

    /// A copy of the state race detection reads and writes.
    fn copy_node(node: &SpineNode) -> SpineNode {
        let mut copy = SpineNode::ghost(node.chosen, node.meta);
        copy.runnable = node.runnable.clone();
        copy.pending = node.pending.clone();
        copy.sleep_now = node.sleep_now;
        copy.done = node.done;
        copy.backtrack = node.backtrack;
        copy.demands = node.demands.clone();
        copy
    }

    /// Race detection by its definition, over the whole word and
    /// without clocks: happens-before is the transitive closure of
    /// program order and `!relation.independent`; `(j, k)` races when
    /// the steps are dependent, of different processes, and no step
    /// between them is ordered after `j` and is a predecessor edge of
    /// `k`. Races are validated for `k >= start` and raise demands for
    /// `k >= first_new`, in the pass's order (`k` ascending, `j`
    /// descending). Returns each step's clock: per process, the steps
    /// ordered before it or equal to it.
    #[allow(clippy::too_many_arguments)]
    fn reference_races(
        spine: &mut [SpineNode],
        start: usize,
        first_new: usize,
        apply_floor: usize,
        hard_stem: usize,
        relation: Relation<'_>,
        optimal: bool,
        escapes: &mut Vec<Escape>,
        seen: &mut RaceCoverage,
    ) -> Vec<Vec<u32>> {
        let n = spine.len();
        let procs: Vec<usize> = spine.iter().map(|node| node.chosen).collect();
        let metas: Vec<StepMeta> = spine.iter().map(|node| node.meta).collect();
        let proc_of = |i: usize| procs[i];
        let dep = |i: usize, m: usize| {
            proc_of(i) != proc_of(m) && !relation.independent(&metas[m], &metas[i])
        };
        // edge[i][m] (i < m): program order or dependence.
        let edge: Vec<Vec<bool>> = (0..n)
            .map(|i| {
                (0..n)
                    .map(|m| i < m && (proc_of(i) == proc_of(m) || dep(i, m)))
                    .collect()
            })
            .collect();
        let mut hb = vec![vec![false; n]; n];
        for m in 0..n {
            for i in 0..m {
                hb[i][m] = edge[i][m] || (i + 1..m).any(|l| hb[i][l] && edge[l][m]);
            }
        }
        let width = spine
            .iter()
            .flat_map(|node| node.runnable.iter().copied().chain([node.chosen]))
            .max()
            .unwrap_or(0)
            + 1;
        let clocks = (0..n)
            .map(|m| {
                (0..width)
                    .map(|q| {
                        (0..=m)
                            .filter(|&i| proc_of(i) == q && (i == m || hb[i][m]))
                            .count() as u32
                    })
                    .collect()
            })
            .collect();
        for k in 0..n {
            for j in (0..k).rev() {
                let immediate = !(j + 1..k).any(|m| hb[j][m] && edge[m][k]);
                if !dep(j, k) || !immediate {
                    continue;
                }
                if k >= start {
                    if let Some(st) = relation.statics() {
                        validate_race(st, &metas[k], &metas[j]);
                    }
                }
                if k < first_new || j < hard_stem {
                    continue;
                }
                let cont: Vec<usize> = (j + 1..k).filter(|&m| !hb[j][m]).chain([k]).collect();
                let mut initials = Vec::new();
                for (mi, &m) in cont.iter().enumerate() {
                    let pm = proc_of(m);
                    let first = cont[..mi].iter().all(|&l| proc_of(l) != pm);
                    if first && cont[..mi].iter().all(|&l| !hb[l][m]) {
                        initials.push(pm);
                    }
                }
                let steps = if optimal { &cont[..] } else { &cont[..1] };
                let seq: Demand = steps
                    .iter()
                    .map(|&m| (proc_of(m), metas[m].access))
                    .collect();
                if j < apply_floor {
                    escapes.push(Escape {
                        depth: j,
                        initials,
                        seq,
                    });
                    seen.escapes += 1;
                    continue;
                }
                let mask = initials.iter().fold(0u64, |acc, &p| acc | 1 << p);
                let node = &mut spine[j];
                let covered = node.backtrack & mask != 0 || (optimal && node.sleep_now & mask != 0);
                if covered {
                    seen.dropped += 1;
                } else {
                    node.backtrack |= 1 << seq[0].0;
                    node.demands.push_back(seq);
                    seen.demands += 1;
                }
            }
        }
        clocks
    }

    /// What the random words exercised, so the test can show that each
    /// path of the pass was taken.
    #[derive(Debug, Default)]
    struct RaceCoverage {
        demands: u64,
        dropped: u64,
        escapes: u64,
        /// Second passes whose cached clocks a width change discarded.
        restarts: u64,
    }

    /// Runs the pass and the reference on copies of one spine and
    /// asserts identical clocks, escapes, per-node demands and source
    /// sets, and validation telemetry.
    #[allow(clippy::too_many_arguments)]
    fn check_pass(
        seen: &mut RaceCoverage,
        alphabet: &WordAlphabet,
        setting: usize,
        optimal: bool,
        spine: &mut [SpineNode],
        clocks: &mut ClockTable,
        first_new: usize,
        apply_floor: usize,
        hard_stem: usize,
        what: &str,
    ) {
        let mut reference: Vec<SpineNode> = spine.iter().map(copy_node).collect();
        let width = reference
            .iter()
            .flat_map(|node| node.runnable.iter().copied().chain([node.chosen]))
            .max()
            .unwrap()
            + 1;
        let start = if clocks.width == width {
            first_new.min(clocks.len())
        } else {
            seen.restarts += u64::from(clocks.len() > 0);
            0
        };
        let mut want_escapes = Vec::new();
        let want_clocks = reference_races(
            &mut reference,
            start,
            first_new,
            apply_floor,
            hard_stem,
            alphabet.relation(setting, 1),
            optimal,
            &mut want_escapes,
            seen,
        );
        let mut escapes = Vec::new();
        add_race_reversals(
            spine,
            clocks,
            &mut RaceBuffers::default(),
            first_new,
            apply_floor,
            hard_stem,
            alphabet.relation(setting, 0),
            optimal,
            &mut escapes,
        );
        let got_clocks: Vec<Vec<u32>> = (0..clocks.len()).map(|i| clocks.row(i).to_vec()).collect();
        assert_eq!(got_clocks, want_clocks, "{what}: clocks");
        assert_eq!(escapes, want_escapes, "{what}: escapes");
        for (i, (got, want)) in spine.iter().zip(&reference).enumerate() {
            assert_eq!(got.demands, want.demands, "{what}: demands at {i}");
            assert_eq!(got.backtrack, want.backtrack, "{what}: source set at {i}");
        }
        assert_eq!(
            alphabet.telemetry(0),
            alphabet.telemetry(1),
            "{what}: validated / unattributed"
        );
    }

    /// Seeded random executed words through the pass and the reference,
    /// every relation setting with `optimal` on and off: a first pass
    /// over a word with empty clocks, then a second over a word sharing
    /// a prefix with it, reusing the first pass's clock table (possibly
    /// cut short) from `first_new` on, then a delegated task's first
    /// pass: a prefix of the second word as ghosts, the owner's clocks
    /// for them, and a fresh tail whose first step is the reversal.
    fn race_detection_matches_its_definition(seeds: std::ops::Range<u64>, max_len: usize) {
        let alphabet = WordAlphabet::new();
        let mut seen = RaceCoverage::default();
        for seed in seeds {
            let mut rng = sl_mem::SmallRng::new(seed);
            let nprocs = 2 + rng.gen_range(3);
            let nregs = 1 + rng.gen_range(3);
            let word = |rng: &mut sl_mem::SmallRng, len: usize| -> Vec<(usize, StepMeta)> {
                (0..len)
                    .map(|_| {
                        let p = rng.gen_range(nprocs);
                        (p, alphabet.step(rng, nregs))
                    })
                    .collect()
            };
            let len1 = 1 + rng.gen_range(max_len);
            let first_word = word(&mut rng, len1);
            let ghosts = rng.gen_range(len1.min(6) + 1);
            let hard_stem = rng.gen_range(len1.min(4) + 1);
            let common = ghosts + rng.gen_range(len1 - ghosts + 1);
            let tail_len = 1 + rng.gen_range(max_len / 2 + 1);
            let tail = word(&mut rng, tail_len);
            let first_new1 = rng.gen_range(len1 + 1);
            let cached = rng.gen_range(len1 + 1);
            let first_new2 = rng.gen_range(common + 1);
            let nodes1 = random_nodes(&mut rng, &first_word, 0, ghosts, nprocs);
            let nodes_tail = random_nodes(&mut rng, &tail, common, ghosts, nprocs);
            let delegated = rng.gen_range(common + tail_len + 1);
            let task_len = 1 + rng.gen_range(max_len / 2 + 1);
            let task_tail = word(&mut rng, task_len);
            let task_nodes = random_nodes(&mut rng, &task_tail, delegated, delegated + 1, nprocs);
            for setting in 0..4 {
                for optimal in [false, true] {
                    let what = format!("seed {seed}, setting {setting}, optimal {optimal}");
                    let mut spine: Vec<SpineNode> = nodes1.iter().map(copy_node).collect();
                    let mut clocks = ClockTable::default();
                    check_pass(
                        &mut seen,
                        &alphabet,
                        setting,
                        optimal,
                        &mut spine,
                        &mut clocks,
                        first_new1,
                        ghosts,
                        hard_stem,
                        &format!("{what}, first pass"),
                    );
                    spine.truncate(common);
                    spine.extend(nodes_tail.iter().map(copy_node));
                    clocks.truncate(cached.min(common));
                    check_pass(
                        &mut seen,
                        &alphabet,
                        setting,
                        optimal,
                        &mut spine,
                        &mut clocks,
                        first_new2,
                        ghosts,
                        hard_stem,
                        &format!("{what}, second pass"),
                    );
                    let mut task_clocks = clocks.prefix(delegated);
                    let mut task: Vec<SpineNode> = spine[..delegated]
                        .iter()
                        .map(|node| SpineNode::ghost(node.chosen, node.meta))
                        .chain(task_nodes.iter().map(copy_node))
                        .collect();
                    check_pass(
                        &mut seen,
                        &alphabet,
                        setting,
                        optimal,
                        &mut task,
                        &mut task_clocks,
                        delegated,
                        delegated + 1,
                        hard_stem,
                        &format!("{what}, delegated pass"),
                    );
                }
            }
        }
        let t = alphabet.certs[0].telemetry();
        assert!(
            seen.demands > 0 && seen.dropped > 0 && seen.escapes > 0 && seen.restarts > 0,
            "{seen:?}"
        );
        assert!(
            t.relaxed > 0 && t.validated > 0 && t.unattributed > 0,
            "{t:?}"
        );
    }

    #[test]
    fn race_detection_matches_its_definition_on_random_words() {
        race_detection_matches_its_definition(0..300, 16);
    }

    #[test]
    #[ignore = "deep: thousands of longer random words"]
    fn race_detection_matches_its_definition_on_long_random_words() {
        race_detection_matches_its_definition(300..5_300, 48);
    }
}
