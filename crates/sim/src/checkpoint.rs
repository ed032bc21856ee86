//! Crash-resilient exploration: the checkpoint wire format, the atomic
//! on-disk store, deterministic fault injection, and poisoned-task
//! reports.
//!
//! A deep DPOR exploration is hours of replay work held in one
//! process's memory. This module makes that work survivable: the
//! explorer's root walk periodically freezes its outstanding frontier —
//! the spine bookkeeping of the depth-first walk plus every delegated
//! [`SubtreeTask`](crate::Explorer) not yet joined — into a versioned,
//! checksummed checkpoint file, and
//! [`Explorer::explore_resumable`](crate::Explorer::explore_resumable)
//! resumes from it with results **bit-identical** to an uninterrupted
//! run (schedule counts, cut/pruned telemetry, merged `TreeDag`
//! structural hash, verdict).
//!
//! # Checkpoint format (version 3)
//!
//! A checkpoint is one JSON object with a fixed field order, emitted by
//! a canonical compact serializer (no whitespace) so that
//! serialize → parse → serialize is byte-identical:
//!
//! ```text
//! {"checksum":C,"version":3,"workload":W,"mode":M,"workers":N,"stem_len":L,
//!  "counters":{"runs":..,"cut_runs":..,"pruned":..,"retried":..,"quarantined":..},
//!  "next":{"tail":[..],"sleep":..},
//!  "spine":[{"chosen":..,"done":..,"sleep":..,"backtrack":..,
//!            "runnable":[..],"pending":[{"reg":..,"kind":".."},..],
//!            "demands":[[{"proc":..,"reg":..,"kind":".."},..],..],
//!            "tasks":[{"prefix":[..],"accesses":[{"reg":..,"kind":".."},..],
//!                      "sleep":..,"floor":..},..]},..]}
//! ```
//!
//! Each frontier fact is stored once. The pending descent replays the
//! spine's chosen path plus `next.tail` (the forced steps of a
//! multi-step demand, empty otherwise), and its race-detection window
//! starts at the spine tip. `done`, `sleep` and `backtrack` (the
//! source set) are process masks. A node's `demands` is its FIFO of
//! pending backtrack demands, and its `tasks` are the delegated
//! [`FrozenTask`]s not yet joined, in publish order; each is joined
//! under its reversal process, `prefix[floor - 1]`.
//!
//! `checksum` is FNV-1a-64 over the canonical serialization of every
//! *other* field; the parser re-serializes what it read and verifies
//! the digest, so torn or doctored files are rejected with a named
//! diagnostic, never half-loaded. Last, the parser requires the file to
//! be byte-identical to the re-rendered checkpoint (`non-canonical
//! checkpoint` otherwise), so reflowed or reordered files are refused.
//! Only plain data crosses the file boundary, as the engine's own
//! records: decision prefixes, declared accesses ([`PendingAccess`];
//! `RegId` is the world-local dense allocation index, stable across
//! processes for the same deterministic workload), sleep masks, floors,
//! [`FrozenTask`]s and [`Counters`]. Each record has one render and one
//! parse function in this module, and `sl-dist` frames call the same
//! ones, so a task or a counter set is spelled alike in a checkpoint
//! and on a worker pipe. Interned
//! execution metadata (`ValueId`/`RegSym`/`OpSym`) is deliberately
//! *not* persisted — the engine re-derives it from the first replay
//! after resume, exactly as it refreshes it on every replay anyway.
//!
//! The loader is fail-closed end to end: a version mismatch (checked
//! before any other field, so an older format is named as such),
//! unknown fields, duplicate keys, checksum mismatches, empty
//! frontiers, and metadata that does not match the resuming explorer
//! (workload, mode, worker count, stem length) each abort with their
//! own diagnostic. A checkpoint records no DAG shard metadata: the
//! DAG of an interrupted and resumed run is checked end to end, by
//! the merged DAG's structural hash (`crates/api/tests/resume_dag.rs`).
//!
//! # Budget semantics
//!
//! [`CheckpointPolicy`] carries a wall-clock `deadline` and a
//! `max_schedules` budget (counted over the *union* of the resumed base
//! and the live run, completed + cut replays). The root walk checks
//! both at every replay boundary; on expiry it writes a final
//! checkpoint, raises the drain flag (workers abandon their in-flight
//! subtrees at their next replay boundary; the abandoned partial work
//! is never counted, so the checkpoint stays exact), and returns a
//! partial, resumable [`ExploreOutcome`](crate::ExploreOutcome) with
//! `drained` and `partial` set — degradation is visible, never silent.
//!
//! # Quarantine soundness
//!
//! A worker panic inside a subtree replay (an object bug, the
//! fail-closed `validate_race` diagnostic, a fiber sentinel escape) no
//! longer takes the process down, and a lease revoked by a
//! [`TaskDispatcher`](crate::TaskDispatcher) fails the same way: the
//! task is retried with a fresh
//! bracket up to the retry limit (deterministic backoff), then
//! **quarantined** — its slot completes with zeroed totals, a
//! [`PoisonReport`] carrying the replayable decision prefix, and
//! `quarantined = 1` — so every join completes and the rest of the
//! frontier still runs. Soundness: a quarantined subtree's schedules
//! are *unexplored*, so the outcome marks itself `partial` and clears
//! `exhausted`; a quarantined run can therefore never produce a false
//! PASS — any verdict derived from it is explicitly a verdict on a
//! partial schedule space. Counters stay exact because a failed
//! attempt's partially explored sub-slots are never joined (their
//! outputs are dropped with the unwound spine) and its partially
//! ingested DAG shards are duplicates of the retry's — the hash-consed
//! transcript *set* is unchanged by re-ingestion.
//!
//! # Fault injection
//!
//! [`FaultPlan`] injects one deterministic crash at a named point —
//! task freeze, steal, join-merge, checkpoint write mid-file, resume
//! parse — either as an in-process panic (a [`FaultCrash`] payload,
//! which the quarantine guards deliberately re-raise so the whole
//! exploration aborts like a crash would) or as `process::abort` for
//! out-of-process kill tests. Plans come from the `SL_FAULT_POINT`,
//! `SL_FAULT_NTH`, and `SL_FAULT_MODE` environment variables
//! ([`FaultPlan::from_env`]) or are built programmatically in tests.
//! The CI `sim-resume` lane drives every injection point and an
//! external SIGKILL through interrupt + resume and gates bit-identity
//! against the uninterrupted run.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::explore::Escape;
use crate::wire::{
    atomic_publish, fnv1a64, ident_ok, non_canonical, push_list, push_str, push_usizes,
    seal_checksum, Fields, Json, Parser,
};
use crate::world::{AccessKind, PendingAccess, RegId};

// ---------------------------------------------------------------------
// Records, each with the one encoding checkpoints and frames share
// ---------------------------------------------------------------------

/// The supported checkpoint format version.
pub const CHECKPOINT_VERSION: u64 = 3;

/// Exploration counters: summed at every join, banked across a
/// checkpoint and its resumption, carried by `sl-dist` result frames.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Completed runs.
    pub runs: u64,
    /// Sleep-set-cut replays.
    pub cut_runs: u64,
    /// Pruned branch candidates.
    pub pruned: u64,
    /// Retry attempts on subtree tasks whose attempt failed — a panic
    /// or a revoked lease — whether or not the task later succeeded.
    pub retried: u64,
    /// Subtrees quarantined after exhausting retries.
    pub quarantined: u64,
}

impl Counters {
    /// Adds `other` field by field.
    pub fn add(&mut self, other: Counters) {
        self.runs += other.runs;
        self.cut_runs += other.cut_runs;
        self.pruned += other.pruned;
        self.retried += other.retried;
        self.quarantined += other.quarantined;
    }

    /// Appends `{"runs":N,"cut_runs":N,"pruned":N,"retried":N,
    /// "quarantined":N}`.
    pub fn push_json(&self, out: &mut String) {
        let _ = write!(
            out,
            "{{\"runs\":{},\"cut_runs\":{},\"pruned\":{},\"retried\":{},\"quarantined\":{}}}",
            self.runs, self.cut_runs, self.pruned, self.retried, self.quarantined
        );
    }

    /// Parses what [`Counters::push_json`] writes.
    pub fn from_json(v: Json) -> Result<Counters, String> {
        let mut f = Fields::exact(
            v,
            "counters",
            &["runs", "cut_runs", "pruned", "retried", "quarantined"],
        )?;
        Ok(Counters {
            runs: f.num("runs")?,
            cut_runs: f.num("cut_runs")?,
            pruned: f.num("pruned")?,
            retried: f.num("retried")?,
            quarantined: f.num("quarantined")?,
        })
    }
}

/// A frozen unexplored subtree in portable form: everything needed to
/// explore it bit-identically in another thread, process or run. The
/// engine delegates, checkpoints and dispatches subtrees as this record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrozenTask {
    /// Full decision prefix from the schedule-tree root; its entry at
    /// `floor - 1` is the reversal the task explores.
    pub prefix: Vec<usize>,
    /// Declared accesses of the ghost spine, one per decision below
    /// `floor` (a multi-step demand's forced tail is prefix-only).
    pub accesses: Vec<PendingAccess>,
    /// Sleep set at the subtree root.
    pub sleep: u64,
    /// Backtrack floor: decision indices below it belong to the owner;
    /// demands against them escape.
    pub floor: usize,
}

impl FrozenTask {
    /// The task's invariants, checked by both parsers that carry tasks
    /// (checkpoints and `sl-dist` task frames): the floor lies inside
    /// the prefix, the ghost spine holds exactly `floor` accesses, and
    /// every prefix process fits the sleep-mask universe.
    pub fn check(&self) -> Result<(), String> {
        let (floor, len) = (self.floor, self.prefix.len());
        if floor == 0 || floor > len {
            return Err(format!(
                "floor {floor} is outside its prefix (length {len})"
            ));
        }
        if self.accesses.len() != floor {
            return Err(format!(
                "{} ghost accesses but floor {floor}",
                self.accesses.len()
            ));
        }
        procs_ok(&self.prefix)
    }

    /// Appends the task's fields, `"prefix":[..],"accesses":[..],
    /// "sleep":N,"floor":N`, inside an enclosing object: a checkpoint
    /// task and a task frame spell them identically.
    pub fn push_fields(&self, out: &mut String) {
        out.push_str("\"prefix\":");
        push_usizes(out, &self.prefix);
        out.push_str(",\"accesses\":");
        push_list(out, &self.accesses, push_access);
        let _ = write!(out, ",\"sleep\":{},\"floor\":{}", self.sleep, self.floor);
    }

    /// Takes the fields [`FrozenTask::push_fields`] writes out of an
    /// enclosing object. The caller runs [`FrozenTask::check`].
    pub fn take_fields(f: &mut Fields) -> Result<FrozenTask, String> {
        Ok(FrozenTask {
            prefix: f.usizes("prefix")?,
            accesses: list_of(f.array("accesses")?, "task access", access_of)?,
            sleep: f.num("sleep")?,
            floor: f.num("floor")? as usize,
        })
    }
}

/// The pending descent the interrupted walk was about to replay: the
/// spine's chosen path, then `tail`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CkptNext {
    /// Forced decisions beyond the spine tip (a multi-step demand's
    /// remaining steps; empty otherwise).
    pub tail: Vec<usize>,
    /// Sleep set holding at the spine tip.
    pub sleep: u64,
}

/// One root-spine decision node's checkpointed bookkeeping.
///
/// `runnable`/`pending` — the decision's configuration — are persisted
/// so restore rebuilds the spine **without replaying anything**: an
/// uncounted reconstruction replay would stream one extra transcript
/// into the DAG shards and break merged-hash bit-identity.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CkptNode {
    /// Child currently being explored.
    pub chosen: usize,
    /// Retired/delegated children mask.
    pub done: u64,
    /// Sleep set (entry sleep plus retired children).
    pub sleep: u64,
    /// Source-set mask: the first explored child and the first process
    /// of every demand ever enqueued here.
    pub backtrack: u64,
    /// Enabled processes at this decision.
    pub runnable: Vec<usize>,
    /// Their declared pending accesses, aligned with `runnable`.
    pub pending: Vec<PendingAccess>,
    /// Pending backtrack demands, FIFO, each a nonempty sequence of
    /// `(process, declared access)` steps.
    pub demands: Vec<Vec<(usize, PendingAccess)>>,
    /// Delegated tasks attached at this node, in publish order.
    pub tasks: Vec<FrozenTask>,
}

/// A parsed (or to-be-written) checkpoint: the resumable frontier of
/// one interrupted exploration. See the module docs for the format.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Workload identity the checkpoint is bound to.
    pub workload: String,
    /// `PruneMode` name the exploration ran under.
    pub mode: String,
    /// Worker count of the interrupted run (resume must match).
    pub workers: usize,
    /// Length of the user-supplied stem.
    pub stem_len: usize,
    /// Union counters at snapshot time.
    pub counters: Counters,
    /// The pending descent.
    pub next: CkptNext,
    /// Root-spine bookkeeping, depth 0 upward.
    pub spine: Vec<CkptNode>,
}

/// The diagnostic for a process index beyond the sleep-mask universe.
const PROC_RANGE: &str = "process index out of range (sleep masks support at most 64 processes)";

fn procs_ok<'a>(procs: impl IntoIterator<Item = &'a usize>) -> Result<(), String> {
    let ok = procs.into_iter().all(|&p| p < 64);
    ok.then_some(()).ok_or_else(|| PROC_RANGE.into())
}

/// An access, `{"reg":N,"kind":"k"}`.
fn push_access(out: &mut String, a: &PendingAccess) {
    let _ = write!(out, "{{\"reg\":{},\"kind\":\"{}\"}}", a.reg.0, a.kind);
}

/// A step of a demand, `{"proc":P,"reg":N,"kind":"k"}`.
fn push_step(out: &mut String, &(p, a): &(usize, PendingAccess)) {
    let _ = write!(
        out,
        "{{\"proc\":{p},\"reg\":{},\"kind\":\"{}\"}}",
        a.reg.0, a.kind
    );
}

fn access_of(v: Json, ctx: &str) -> Result<PendingAccess, String> {
    access_fields(&mut Fields::exact(v, ctx, &["reg", "kind"])?)
}

fn step_of(v: Json, ctx: &str) -> Result<(usize, PendingAccess), String> {
    let mut f = Fields::exact(v, ctx, &["proc", "reg", "kind"])?;
    Ok((f.num("proc")? as usize, access_fields(&mut f)?))
}

fn access_fields(f: &mut Fields) -> Result<PendingAccess, String> {
    let reg = f.num("reg")?;
    let reg = u32::try_from(reg)
        .map_err(|_| format!("register id {reg} exceeds the u32 register space"))?;
    Ok(PendingAccess {
        reg: RegId(reg),
        kind: AccessKind::from_name(&f.string("kind")?)?,
    })
}

fn list_of<T>(
    items: Vec<Json>,
    ctx: &str,
    each: fn(Json, &str) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    items.into_iter().map(|v| each(v, ctx)).collect()
}

impl PoisonReport {
    /// Appends `{"prefix":[..],"attempts":N,"message":"..."}`.
    pub fn push_json(&self, out: &mut String) {
        out.push_str("{\"prefix\":");
        push_usizes(out, &self.prefix);
        let _ = write!(out, ",\"attempts\":{},\"message\":", self.attempts);
        push_str(out, &self.message);
        out.push('}');
    }

    /// Parses what [`PoisonReport::push_json`] writes.
    pub fn from_json(v: Json) -> Result<PoisonReport, String> {
        let mut f = Fields::exact(v, "poison report", &["prefix", "attempts", "message"])?;
        Ok(PoisonReport {
            prefix: f.usizes("prefix")?,
            attempts: u32::try_from(f.num("attempts")?)
                .map_err(|_| "poison report: attempts out of range".to_string())?,
            message: f.string("message")?,
        })
    }
}

impl Escape {
    /// Appends `{"depth":N,"initials":[..],"seq":[..]}`, the demand's
    /// steps spelled as in a checkpoint's demands.
    pub fn push_json(&self, out: &mut String) {
        let _ = write!(out, "{{\"depth\":{},\"initials\":", self.depth);
        push_usizes(out, &self.initials);
        out.push_str(",\"seq\":");
        push_list(out, &self.seq, push_step);
        out.push('}');
    }

    /// Parses what [`Escape::push_json`] writes and checks the demand's
    /// shape: every process fits the sleep-mask universe, the sequence
    /// is nonempty, and the initials hold its first process.
    pub fn from_json(v: Json) -> Result<Escape, String> {
        let mut f = Fields::exact(v, "escape", &["depth", "initials", "seq"])?;
        let esc = Escape {
            depth: f.num("depth")? as usize,
            initials: f.usizes("initials")?,
            seq: list_of(f.array("seq")?, "escape step", step_of)?,
        };
        let seq_procs = esc.seq.iter().map(|(p, _)| p);
        procs_ok(esc.initials.iter().chain(seq_procs)).map_err(|e| format!("escape: {e}"))?;
        match esc.seq.first() {
            None => Err("escape: empty seq (a demand has at least one step)".into()),
            Some((p, _)) if !esc.initials.contains(p) => Err(format!(
                "escape: initials {:?} lack the sequence's first process {p}",
                esc.initials
            )),
            Some(_) => Ok(esc),
        }
    }
}

impl Checkpoint {
    /// The canonical serialization of every field but the checksum —
    /// the digest input. Fixed field order, no whitespace, unsigned
    /// decimal numbers: the one encoding `serialize → parse →
    /// serialize` is byte-identical over.
    pub fn canonical_body(&self) -> String {
        let mut s = String::with_capacity(256 + self.spine.len() * 64);
        let _ = write!(s, "{{\"version\":{CHECKPOINT_VERSION},\"workload\":");
        push_str(&mut s, &self.workload);
        s.push_str(",\"mode\":");
        push_str(&mut s, &self.mode);
        let _ = write!(
            s,
            ",\"workers\":{},\"stem_len\":{},\"counters\":",
            self.workers, self.stem_len
        );
        self.counters.push_json(&mut s);
        s.push_str(",\"next\":{\"tail\":");
        push_usizes(&mut s, &self.next.tail);
        let _ = write!(s, ",\"sleep\":{}}},\"spine\":", self.next.sleep);
        push_list(&mut s, &self.spine, |s, node| {
            let _ = write!(
                s,
                "{{\"chosen\":{},\"done\":{},\"sleep\":{},\"backtrack\":{},\"runnable\":",
                node.chosen, node.done, node.sleep, node.backtrack
            );
            push_usizes(s, &node.runnable);
            s.push_str(",\"pending\":");
            push_list(s, &node.pending, push_access);
            s.push_str(",\"demands\":");
            push_list(s, &node.demands, |s, seq| push_list(s, seq, push_step));
            s.push_str(",\"tasks\":");
            push_list(s, &node.tasks, |s, task| {
                s.push('{');
                task.push_fields(s);
                s.push('}');
            });
            s.push('}');
        });
        s.push('}');
        s
    }

    /// The full file content: the canonical body with the FNV-1a-64
    /// digest spliced in as the leading `checksum` field.
    pub fn render(&self) -> String {
        seal_checksum(&self.canonical_body())
    }

    /// Parses and fully validates checkpoint text: JSON structure,
    /// version (first, so an older format is named as such), field
    /// sets, checksum, the structural invariants of the frontier, and
    /// last the canonical rule (the text must be exactly
    /// [`Checkpoint::render`] of what it parsed to). Every rejection
    /// carries a named diagnostic.
    pub fn parse(text: &str) -> Result<Checkpoint, String> {
        let value = Parser::new(text, "checkpoint").parse_document()?;
        let mut top = Fields::new(value, "checkpoint")?;
        let version = top.num("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "checkpoint version mismatch: expected version {CHECKPOINT_VERSION}, found \
                 {version} (fail-closed: refusing to guess a migration)"
            ));
        }
        top.allow(&[
            "checksum", "workload", "mode", "workers", "stem_len", "counters", "next", "spine",
        ])?;
        let stored_sum = top.num("checksum")?;
        let workload = top.string("workload")?;
        let mode = top.string("mode")?;
        for (what, s) in [("workload", &workload), ("mode", &mode)] {
            if !ident_ok(s) {
                return Err(format!(
                    "checkpoint {what} {s:?} is not a plain identifier \
                     (fail-closed: refusing a non-canonical encoding)"
                ));
            }
        }
        let mut next = Fields::exact(top.take("next")?, "next", &["tail", "sleep"])?;
        let ckpt = Checkpoint {
            workload,
            mode,
            workers: top.num("workers")? as usize,
            stem_len: top.num("stem_len")? as usize,
            counters: Counters::from_json(top.take("counters")?)?,
            next: CkptNext {
                tail: next.usizes("tail")?,
                sleep: next.num("sleep")?,
            },
            spine: top
                .array("spine")?
                .into_iter()
                .map(node_of)
                .collect::<Result<_, _>>()?,
        };
        let body = ckpt.canonical_body();
        let computed = fnv1a64(body.as_bytes());
        if computed != stored_sum {
            return Err(format!(
                "checkpoint checksum mismatch: stored {stored_sum}, recomputed {computed} \
                 (torn or doctored file)"
            ));
        }
        ckpt.validate_structure()?;
        if seal_checksum(&body) != text {
            return Err(non_canonical("checkpoint"));
        }
        Ok(ckpt)
    }

    /// Structural invariants of a loaded frontier (beyond field types):
    /// non-empty resumable work, well-formed nodes and tasks, process
    /// indices inside the 64-bit sleep-mask universe.
    fn validate_structure(&self) -> Result<(), String> {
        if self.workers == 0 {
            return Err("checkpoint declares zero workers".into());
        }
        if self.spine.is_empty() {
            return Err("checkpoint holds an empty frontier: nothing to resume \
                 (finished runs delete their checkpoint)"
                .into());
        }
        if self.stem_len >= self.spine.len() && self.stem_len != 0 {
            return Err(format!(
                "checkpoint stem_len {} leaves no decision above the stem (spine length {})",
                self.stem_len,
                self.spine.len()
            ));
        }
        procs_ok(&self.next.tail)?;
        for (d, node) in self.spine.iter().enumerate() {
            procs_ok([node.chosen].iter().chain(&node.runnable))?;
            if node.pending.len() != node.runnable.len() {
                return Err(format!(
                    "checkpoint spine node {d}: {} pending accesses for {} runnable processes",
                    node.pending.len(),
                    node.runnable.len()
                ));
            }
            if !node.runnable.contains(&node.chosen) {
                return Err(format!(
                    "checkpoint spine node {d}: chosen child {} is not runnable there",
                    node.chosen
                ));
            }
            let runnable = node.runnable.iter().fold(0u64, |m, &p| m | 1 << p);
            if node.backtrack & !runnable != 0 {
                return Err(format!(
                    "checkpoint spine node {d}: backtrack candidate outside the runnable set"
                ));
            }
            if node.backtrack & (1 << node.chosen) == 0 {
                return Err(format!(
                    "checkpoint spine node {d}: chosen child {} is missing from its \
                     backtrack set",
                    node.chosen
                ));
            }
            for seq in &node.demands {
                if seq.is_empty() {
                    return Err(format!("checkpoint spine node {d}: empty demand"));
                }
                procs_ok(seq.iter().map(|(p, _)| p))?;
            }
            for (i, task) in node.tasks.iter().enumerate() {
                task.check()
                    .map_err(|e| format!("checkpoint spine node {d} task {i}: {e}"))?;
            }
        }
        Ok(())
    }
}

fn node_of(v: Json) -> Result<CkptNode, String> {
    let mut f = Fields::exact(
        v,
        "spine node",
        &[
            "chosen",
            "done",
            "sleep",
            "backtrack",
            "runnable",
            "pending",
            "demands",
            "tasks",
        ],
    )?;
    let demand_of = |seq| match seq {
        Json::Arr(steps) => list_of(steps, "demand step", step_of),
        _ => Err("demand must be an array".to_string()),
    };
    let task_of = |v| {
        let mut tf = Fields::exact(v, "task", &["prefix", "accesses", "sleep", "floor"])?;
        FrozenTask::take_fields(&mut tf)
    };
    Ok(CkptNode {
        chosen: f.num("chosen")? as usize,
        done: f.num("done")?,
        sleep: f.num("sleep")?,
        backtrack: f.num("backtrack")?,
        runnable: f.usizes("runnable")?,
        pending: list_of(f.array("pending")?, "pending access", access_of)?,
        demands: f
            .array("demands")?
            .into_iter()
            .map(demand_of)
            .collect::<Result<_, _>>()?,
        tasks: f
            .array("tasks")?
            .into_iter()
            .map(task_of)
            .collect::<Result<_, String>>()?,
    })
}

// ---------------------------------------------------------------------
// The on-disk store
// ---------------------------------------------------------------------

/// What the resuming explorer expects the checkpoint to match; any
/// mismatch is rejected with a named diagnostic rather than silently
/// resumed into a different exploration.
pub struct ResumeExpectation<'a> {
    /// Worker count of the resuming explorer.
    pub workers: usize,
    /// `PruneMode` name of the resuming explorer.
    pub mode: &'a str,
    /// Stem length of the resuming explorer.
    pub stem_len: usize,
}

/// Atomic checkpoint persistence for one workload: writes go to a
/// sibling temp file and `rename` into place, so the visible file is
/// always a complete, checksummed snapshot — a crash mid-write leaves
/// the previous checkpoint intact.
#[derive(Clone, Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    workload: String,
}

impl CheckpointStore {
    /// A store rooted at `dir` for the given workload identity (a plain
    /// identifier; it names the file and binds the checkpoint).
    pub fn new(dir: impl Into<PathBuf>, workload: &str) -> CheckpointStore {
        assert!(
            ident_ok(workload),
            "checkpoint workload id must be a plain identifier, got {workload:?}"
        );
        CheckpointStore {
            dir: dir.into(),
            workload: workload.to_string(),
        }
    }

    /// The workload identity this store is bound to.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// The checkpoint file path.
    pub fn path(&self) -> PathBuf {
        self.dir.join(format!("{}.ckpt.json", self.workload))
    }

    fn tmp_path(&self) -> PathBuf {
        self.dir.join(format!("{}.ckpt.json.tmp", self.workload))
    }

    /// Whether a checkpoint file exists.
    pub fn exists(&self) -> bool {
        self.path().exists()
    }

    /// Atomically persists `ckpt`: full render to the temp file, then
    /// rename over the live path. `fault` may inject the mid-write
    /// crash (half the bytes land in the temp file, which the rename
    /// never promotes — the previous checkpoint survives).
    pub fn save(&self, ckpt: &Checkpoint, fault: Option<&FaultPlan>) -> Result<(), String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("creating checkpoint dir {}: {e}", self.dir.display()))?;
        let text = ckpt.render();
        let tmp = self.tmp_path();
        if let Some(plan) = fault {
            if plan.takes(FaultPoint::CkptWrite) {
                // Simulated torn write: half the payload, then the crash.
                let _ = std::fs::write(&tmp, &text.as_bytes()[..text.len() / 2]);
                plan.crash(FaultPoint::CkptWrite);
            }
        }
        self.save_rendered(&text)
    }

    /// The write half of [`CheckpointStore::save`]: publishes
    /// already-rendered checkpoint text atomically (temp + rename).
    /// This is what [`CkptWriter`] runs off the exploration's critical
    /// path.
    pub fn save_rendered(&self, text: &str) -> Result<(), String> {
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| format!("creating checkpoint dir {}: {e}", self.dir.display()))?;
        atomic_publish(&self.tmp_path(), &self.path(), text)
    }

    /// Loads and validates the checkpoint. Beyond [`Checkpoint::parse`]
    /// this rejects metadata that does not match the resuming explorer
    /// (`expect`).
    pub fn load(
        &self,
        expect: Option<&ResumeExpectation<'_>>,
        fault: Option<&FaultPlan>,
    ) -> Result<Checkpoint, String> {
        let path = self.path();
        if let Some(plan) = fault {
            plan.fire(FaultPoint::ResumeParse);
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading checkpoint {}: {e}", path.display()))?;
        let ckpt = Checkpoint::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if ckpt.workload != self.workload {
            return Err(format!(
                "checkpoint workload mismatch: file is for \"{}\", store is bound to \"{}\"",
                ckpt.workload, self.workload
            ));
        }
        if let Some(expect) = expect {
            if ckpt.workers != expect.workers {
                return Err(format!(
                    "checkpoint worker-count mismatch: checkpoint was taken with {} workers, \
                     resuming with {} (resume with the original worker count)",
                    ckpt.workers, expect.workers
                ));
            }
            if ckpt.mode != expect.mode {
                return Err(format!(
                    "checkpoint mode mismatch: checkpoint was taken under {}, resuming under {}",
                    ckpt.mode, expect.mode
                ));
            }
            if ckpt.stem_len != expect.stem_len {
                return Err(format!(
                    "checkpoint stem mismatch: checkpoint stem length {}, resuming with {}",
                    ckpt.stem_len, expect.stem_len
                ));
            }
        }
        Ok(ckpt)
    }

    /// Removes the checkpoint (and any temp leftovers) — called when an
    /// exploration completes so a later run starts fresh.
    pub fn clear(&self) {
        let _ = std::fs::remove_file(self.path());
        let _ = std::fs::remove_file(self.tmp_path());
    }
}

/// Asynchronous checkpoint publication: a dedicated writer thread
/// applies rendered checkpoints FIFO via
/// [`CheckpointStore::save_rendered`], keeping the temp-write + rename
/// off the exploration's critical path. Measured on a 2-vCPU host:
/// [`CheckpointStore::save`] of a drained `aba_mixed3_deep` frontier
/// (3.7–4.5 kB, 18–22 spine nodes) takes 0.09–0.14 ms, 14–22 µs of it
/// render; on the exploring thread of the default-policy
/// `aba_mixed3_deep` run (no certificate, ~1.5 s, 61 checkpoints) a
/// synchronous save costs about 0.46 ms per checkpoint (1.7–1.9% of the
/// run), against about 0.05 ms (0.2%) with this writer, which leaves
/// only the snapshot's build and render. Ordering is preserved by the
/// single consumer; per-file atomicity is unchanged. Durability point:
/// everything enqueued is on disk once [`CkptWriter::finish`] returns
/// — callers that need a specific snapshot durable (the drain
/// checkpoint) enqueue it with [`CkptWriter::publish_durable`] and
/// finish the writer before acting on it. A crash loses at most the
/// still-queued tail, which resume semantics already tolerate: any
/// earlier checkpoint resumes bit-identically, just redoing more work.
///
/// Fail-closed: a write error panics the writer thread, and the next
/// `publish*`/`finish` on the handle propagates (the thread's own
/// panic message reaches stderr with the write diagnostic).
pub struct CkptWriter {
    tx: Option<std::sync::mpsc::SyncSender<String>>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl CkptWriter {
    /// Spawns the writer thread for `store`'s checkpoint file.
    pub fn spawn(store: &CheckpointStore) -> CkptWriter {
        let store = store.clone();
        let (tx, rx) = std::sync::mpsc::sync_channel::<String>(8);
        let handle = std::thread::Builder::new()
            .name("sl-ckpt-writer".into())
            .spawn(move || {
                for text in rx {
                    if let Err(e) = store.save_rendered(&text) {
                        panic!("checkpoint write failed (fail-closed): {e}");
                    }
                }
            })
            .expect("spawning checkpoint writer thread");
        CkptWriter {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    /// Best-effort periodic publish: if the writer is behind (queue
    /// full), this snapshot is skipped — a fresher one follows at the
    /// next cadence tick, and resume tolerates any published
    /// checkpoint. Panics if the writer thread died (fail-closed).
    pub fn publish(&self, text: String) {
        use std::sync::mpsc::TrySendError;
        match self
            .tx
            .as_ref()
            .expect("writer not finished")
            .try_send(text)
        {
            Ok(()) | Err(TrySendError::Full(_)) => {}
            Err(TrySendError::Disconnected(_)) => self.writer_died(),
        }
    }

    /// Guaranteed enqueue for snapshots that must not be skipped (the
    /// drain checkpoint). Blocks briefly if the queue is full; the
    /// snapshot is durable once [`CkptWriter::finish`] returns.
    pub fn publish_durable(&self, text: String) {
        if self
            .tx
            .as_ref()
            .expect("writer not finished")
            .send(text)
            .is_err()
        {
            self.writer_died();
        }
    }

    /// Drains the queue, stops the thread, and propagates any write
    /// failure. Everything previously enqueued is on disk on return.
    pub fn finish(mut self) {
        self.shutdown(true);
    }

    fn writer_died(&self) -> ! {
        panic!(
            "checkpoint writer thread failed (fail-closed); \
             see its panic message for the write diagnostic"
        );
    }

    fn shutdown(&mut self, propagate: bool) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            if handle.join().is_err() && propagate {
                self.writer_died();
            }
        }
    }
}

impl Drop for CkptWriter {
    fn drop(&mut self) {
        // Still drain the queue on an unwinding path, but don't panic
        // inside a panic.
        self.shutdown(!std::thread::panicking());
    }
}

// ---------------------------------------------------------------------
// Budgets & the resume session
// ---------------------------------------------------------------------

/// Checkpoint cadence and exploration budgets for a resumable run. See
/// the module docs for the drain semantics.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Write a checkpoint every this many root replays (`0` = only the
    /// final drain checkpoint).
    pub every_replays: u64,
    /// Schedule-count budget over the union of the resumed base and the
    /// live run (completed + cut replays); expiry drains to a
    /// checkpoint.
    pub max_schedules: Option<u64>,
    /// Wall-clock deadline; expiry drains to a checkpoint.
    pub deadline: Option<std::time::Instant>,
}

impl Default for CheckpointPolicy {
    fn default() -> Self {
        CheckpointPolicy {
            every_replays: 2_000,
            max_schedules: None,
            deadline: None,
        }
    }
}

/// Everything [`Explorer::explore_resumable`](crate::Explorer::explore_resumable)
/// needs beyond the explorer itself: the store, the policy, and
/// optional fault injection.
pub struct ResumeSession<'a> {
    /// The checkpoint store (also carries the workload identity).
    pub store: &'a CheckpointStore,
    /// Cadence and budgets.
    pub policy: CheckpointPolicy,
    /// Deterministic fault injection, if any.
    pub fault: Option<std::sync::Arc<FaultPlan>>,
}

impl<'a> ResumeSession<'a> {
    /// A session over `store` with the default policy and no fault
    /// injection.
    pub fn new(store: &'a CheckpointStore) -> ResumeSession<'a> {
        ResumeSession {
            store,
            policy: CheckpointPolicy::default(),
            fault: None,
        }
    }
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// The named crash sites of the fault-injection harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultPoint {
    /// Freezing a subtree task for publication.
    TaskFreeze,
    /// Claiming a task off a deque.
    Steal,
    /// Merging a joined task's output into the owner spine.
    JoinMerge,
    /// Mid-file during a checkpoint write (tests the temp+rename
    /// atomicity).
    CkptWrite,
    /// Loading a checkpoint on resume.
    ResumeParse,
    /// A worker's heartbeat tick (the ticker stops permanently once
    /// this takes, so the coordinator sees a missed lease deadline).
    Heartbeat,
    /// Mid-write of a result frame (the worker aborts after flushing
    /// half the frame — the coordinator must reject the torn frame).
    ResultFrame,
    /// A worker process exiting after completing its nth task (the
    /// out-of-process analogue of [`FaultPoint::Steal`]).
    WorkerExit,
}

impl FaultPoint {
    /// Every injection point — the CI matrix iterates this.
    pub const ALL: [FaultPoint; 8] = [
        FaultPoint::TaskFreeze,
        FaultPoint::Steal,
        FaultPoint::JoinMerge,
        FaultPoint::CkptWrite,
        FaultPoint::ResumeParse,
        FaultPoint::Heartbeat,
        FaultPoint::ResultFrame,
        FaultPoint::WorkerExit,
    ];

    /// The point's wire name (the `SL_FAULT_POINT` value).
    pub fn name(self) -> &'static str {
        match self {
            FaultPoint::TaskFreeze => "task-freeze",
            FaultPoint::Steal => "steal",
            FaultPoint::JoinMerge => "join-merge",
            FaultPoint::CkptWrite => "ckpt-write",
            FaultPoint::ResumeParse => "resume-parse",
            FaultPoint::Heartbeat => "heartbeat",
            FaultPoint::ResultFrame => "result-frame",
            FaultPoint::WorkerExit => "worker-exit",
        }
    }

    /// Parses a wire name.
    pub fn from_name(name: &str) -> Option<FaultPoint> {
        FaultPoint::ALL.into_iter().find(|p| p.name() == name)
    }
}

/// The panic payload of an injected in-process crash. The quarantine
/// guards recognise it and re-raise instead of retrying: an injected
/// crash must behave like a crash (abort the exploration), not like a
/// flaky subtree.
#[derive(Clone, Copy, Debug)]
pub struct FaultCrash {
    /// Name of the point that fired.
    pub point: &'static str,
}

/// A deterministic single-shot fault: crash at the `nth` arrival at
/// `point`, either by panicking with a [`FaultCrash`] payload
/// (in-process crash simulation) or by `process::abort` (out-of-process
/// kill tests).
#[derive(Debug)]
pub struct FaultPlan {
    point: FaultPoint,
    nth: u64,
    abort: bool,
    hits: AtomicU64,
}

impl FaultPlan {
    /// A plan that panics with [`FaultCrash`] at the `nth` arrival
    /// (arrivals count from 1).
    pub fn panicking(point: FaultPoint, nth: u64) -> FaultPlan {
        assert!(
            nth >= 1,
            "FaultPlan: arrivals count from 1, nth 0 never fires"
        );
        FaultPlan {
            point,
            nth,
            abort: false,
            hits: AtomicU64::new(0),
        }
    }

    /// A plan that `process::abort`s at the `nth` arrival.
    pub fn aborting(point: FaultPoint, nth: u64) -> FaultPlan {
        FaultPlan {
            abort: true,
            ..FaultPlan::panicking(point, nth)
        }
    }

    /// Builds a plan from `SL_FAULT_POINT` (a [`FaultPoint::name`]),
    /// `SL_FAULT_NTH` (default 1), and `SL_FAULT_MODE` (`panic`
    /// (default) or `abort`). Returns `None` when `SL_FAULT_POINT` is
    /// unset; panics on an unknown point or mode or an `SL_FAULT_NTH`
    /// that is not a count from 1 (fail-closed — a typo must not
    /// silently disable or move the fault).
    pub fn from_env() -> Option<FaultPlan> {
        let var = |key| std::env::var(key).ok();
        let point = var("SL_FAULT_POINT")?;
        let nth = var("SL_FAULT_NTH");
        let mode = var("SL_FAULT_MODE");
        Some(
            FaultPlan::from_vars(&point, nth.as_deref(), mode.as_deref())
                .unwrap_or_else(|e| panic!("{e}")),
        )
    }

    /// The parse half of [`FaultPlan::from_env`], split out so its
    /// refusals are unit-testable without mutating the process
    /// environment.
    fn from_vars(point: &str, nth: Option<&str>, mode: Option<&str>) -> Result<FaultPlan, String> {
        let point = FaultPoint::from_name(point).ok_or_else(|| {
            let known: Vec<&str> = FaultPoint::ALL.iter().map(|p| p.name()).collect();
            format!(
                "SL_FAULT_POINT: unknown injection point {point:?} (one of {})",
                known.join(", ")
            )
        })?;
        let nth = match nth {
            None => 1,
            Some(s) => match s.trim().parse::<u64>() {
                Ok(n) if n >= 1 => n,
                _ => return Err(format!("SL_FAULT_NTH: not a count from 1: {s:?}")),
            },
        };
        match mode {
            None | Some("panic") => Ok(FaultPlan::panicking(point, nth)),
            Some("abort") => Ok(FaultPlan::aborting(point, nth)),
            Some(other) => Err(format!(
                "SL_FAULT_MODE: unknown mode {other:?} (panic|abort)"
            )),
        }
    }

    /// Counts an arrival at `point`; `true` exactly on the fatal one.
    /// Public so out-of-process consumers (the distributed worker) can
    /// separate "the fault takes here" from the crash itself — a torn
    /// result frame needs to flush half a frame *between* the two.
    pub fn takes(&self, point: FaultPoint) -> bool {
        point == self.point && self.hits.fetch_add(1, Ordering::SeqCst) + 1 == self.nth
    }

    /// The crash itself.
    pub fn crash(&self, point: FaultPoint) -> ! {
        if self.abort {
            eprintln!("SL_FAULT: aborting at injection point {}", point.name());
            std::process::abort();
        }
        std::panic::panic_any(FaultCrash {
            point: point.name(),
        })
    }

    /// Crashes iff this arrival at `point` is the plan's fatal one.
    pub fn fire(&self, point: FaultPoint) {
        if self.takes(point) {
            self.crash(point);
        }
    }
}

// ---------------------------------------------------------------------
// Poisoned-task reports
// ---------------------------------------------------------------------

/// The quarantine record of one subtree that panicked through every
/// retry: the replayable decision prefix (feed it to `Explorer::stem`
/// or a `Scripted` scheduler to reproduce), the attempt count, and the
/// panic message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PoisonReport {
    /// Decision prefix of the quarantined subtree, from the schedule
    /// tree's root.
    pub prefix: Vec<usize>,
    /// Attempts made (1 + retries).
    pub attempts: u32,
    /// The last attempt's failure: the panic payload, stringified, or
    /// the dispatcher's revocation reason.
    pub message: String,
}

/// Writes `report` as JSON into `dir` (named by the prefix digest, so
/// repeated quarantines of one subtree overwrite rather than pile up)
/// and returns the path. CI uploads this directory on failure.
pub fn write_poison_report(dir: &Path, report: &PoisonReport) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir)
        .map_err(|e| format!("creating poison-report dir {}: {e}", dir.display()))?;
    let mut body = String::new();
    report.push_json(&mut body);
    body.push('\n');
    let digest = {
        let mut key = String::new();
        push_usizes(&mut key, &report.prefix);
        fnv1a64(key.as_bytes())
    };
    let path = dir.join(format!("poisoned-{digest:016x}.json"));
    std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// Renders a caught panic payload for a [`PoisonReport`].
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Checkpoint {
        let acc = |reg, kind| PendingAccess {
            reg: RegId(reg),
            kind,
        };
        let (read, write, rmw, local) = (
            AccessKind::Read,
            AccessKind::Write,
            AccessKind::Rmw,
            AccessKind::Local,
        );
        Checkpoint {
            workload: "aba_mixed3".into(),
            mode: "OptimalDpor".into(),
            workers: 4,
            stem_len: 0,
            counters: Counters {
                runs: 123,
                cut_runs: 4,
                pruned: 567,
                retried: 1,
                quarantined: 0,
            },
            next: CkptNext {
                tail: vec![1],
                sleep: 0b10,
            },
            spine: vec![
                CkptNode {
                    chosen: 0,
                    done: 0b1,
                    sleep: 0b1,
                    backtrack: 0b101,
                    runnable: vec![0, 1, 2],
                    pending: vec![acc(0, rmw), acc(3, read), acc(3, write)],
                    demands: vec![vec![(2, acc(3, write)), (1, acc(3, read))]],
                    tasks: vec![FrozenTask {
                        prefix: vec![2],
                        accesses: vec![acc(0, rmw)],
                        sleep: 0b1,
                        floor: 1,
                    }],
                },
                CkptNode {
                    chosen: 1,
                    done: 0,
                    sleep: 0,
                    backtrack: 0b10,
                    runnable: vec![0, 1, 2],
                    pending: vec![acc(0, read), acc(1, write), acc(u32::MAX, local)],
                    demands: vec![],
                    tasks: vec![FrozenTask {
                        prefix: vec![0, 1, 0],
                        accesses: vec![acc(0, read), acc(u32::MAX, local), acc(1, write)],
                        sleep: 0,
                        floor: 3,
                    }],
                },
                CkptNode {
                    chosen: 2,
                    done: 0,
                    sleep: 0,
                    backtrack: 0b100,
                    runnable: vec![1, 2],
                    pending: vec![acc(1, read), acc(2, write)],
                    demands: vec![],
                    tasks: vec![],
                },
            ],
        }
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let c = sample();
        let text = c.render();
        let parsed = Checkpoint::parse(&text).expect("sample parses");
        assert_eq!(parsed, c);
        assert_eq!(parsed.render(), text, "serialize → parse → serialize");
    }

    #[test]
    fn whitespace_reflow_is_rejected_as_non_canonical() {
        // Same content, same checksum, reflowed bytes: only the
        // canonical rule can tell, and it does.
        let text = sample().render();
        expect_reject(
            &text.replace(",\"mode\"", ",\n  \"mode\""),
            "non-canonical checkpoint",
        );
        expect_reject(&text.replace(',', ", "), "non-canonical checkpoint");
    }

    fn expect_reject(text: &str, needle: &str) {
        let err = Checkpoint::parse(text).expect_err("doctored checkpoint must be rejected");
        assert!(
            err.contains(needle),
            "diagnostic {err:?} does not name {needle:?}"
        );
    }

    /// The doctored-checkpoint battery for what the `rejects_*` tests
    /// do not cover. Each row edits the first `from` in the rendered
    /// `sample()` to `to`, reseals the result under a fresh checksum (so
    /// only the edit is at fault) and names the diagnostic that must
    /// reject it.
    #[test]
    fn every_doctored_variant_is_rejected_by_name() {
        let text = sample().render();
        let body = format!("{{{}", &text[text.find(',').unwrap() + 1..]);
        #[rustfmt::skip]
        let rows = [
            (r#""stem_len":0,"#, "", r#"missing required field "stem_len""#),
            ("aba_mixed3", "aba mixed/3", "is not a plain identifier"),
            (r#""workers":4"#, r#""workers":0"#, "zero workers"),
            (r#""tail":[1]"#, r#""tail":[64]"#, "process index out of range"),
            (r#""runnable":[1,2]"#, r#""runnable":[1,3]"#, "chosen child 2 is not runnable"),
            (r#""backtrack":2"#, r#""backtrack":1"#, "missing from its backtrack set"),
            (r#""backtrack":4"#, r#""backtrack":5"#, "outside the runnable set"),
            (r#",{"reg":2,"kind":"write"}"#, "", "1 pending accesses for 2 runnable"),
            (r#""rmw""#, r#""fetch_add""#, r#"unknown access kind "fetch_add""#),
            (r#""demands":[["#, r#""demands":[[],["#, "empty demand"),
            (r#"[{"reg":0,"kind":"rmw"}],"sleep""#, r#"[],"sleep""#, "node 0 task 0: 0 ghost accesses but floor 1"),
            (r#""prefix":[2],"#, r#""id":1,"prefix":[2],"#, r#"unknown field "id""#),
        ];
        for (from, to, needle) in rows {
            assert!(body.contains(from), "{from} is not in the sample");
            let doctored = seal_checksum(&body.replacen(from, to, 1));
            let err = Checkpoint::parse(&doctored)
                .expect_err(&format!("{from} -> {to} must be rejected"));
            assert!(
                err.contains(needle),
                "{from} -> {to}: {err:?} lacks {needle:?}"
            );
        }
    }

    #[test]
    fn rejects_bad_version() {
        let text = sample().render().replace("\"version\":3", "\"version\":4");
        expect_reject(&text, "version mismatch");
    }

    /// A checkpoint an older build drained — here the version-2 shape,
    /// with `seq`, task `id`/`proc` and `next.new_from` — is refused by
    /// its version, not by its first unknown field.
    #[test]
    fn rejects_an_older_format_by_version() {
        let v2 = seal_checksum(concat!(
            r#"{"version":2,"workload":"aba_mixed3","mode":"OptimalDpor","workers":1,"#,
            r#""seq":3,"stem_len":0,"counters":{"runs":1,"cut_runs":0,"pruned":0,"#,
            r#""retried":0,"quarantined":0},"next":{"prefix":[0],"sleep":0,"new_from":0},"#,
            r#""spine":[{"chosen":0,"done":0,"sleep":0,"backtrack":[0],"runnable":[0,1],"#,
            r#""pending":[{"reg":0,"kind":"write"},{"reg":0,"kind":"read"}],"wakeups":[],"#,
            r#""tasks":[{"id":1,"proc":1,"prefix":[1],"accesses":[{"reg":0,"kind":"read"}],"#,
            r#""sleep":0,"floor":1}]}]}"#,
        ));
        expect_reject(
            &v2,
            "checkpoint version mismatch: expected version 3, found 2",
        );
    }

    #[test]
    fn rejects_checksum_mismatch() {
        let text = sample().render().replace("\"runs\":123", "\"runs\":124");
        expect_reject(&text, "checksum mismatch");
    }

    #[test]
    fn rejects_truncated_file() {
        let text = sample().render();
        expect_reject(&text[..text.len() / 2], "truncated checkpoint");
        expect_reject(&text[..text.len() - 1], "truncated checkpoint");
    }

    #[test]
    fn rejects_unknown_field() {
        let text = sample()
            .render()
            .replace("\"stem_len\":0", "\"stem_len\":0,\"surprise\":1");
        expect_reject(&text, "unknown field \"surprise\"");
    }

    #[test]
    fn rejects_duplicate_key() {
        let text = sample()
            .render()
            .replace("\"stem_len\":0", "\"stem_len\":0,\"stem_len\":1");
        expect_reject(&text, "duplicate key \"stem_len\"");
    }

    #[test]
    fn rejects_empty_frontier() {
        let mut c = sample();
        c.spine.clear();
        c.next.tail.clear();
        expect_reject(&c.render(), "empty frontier");
    }

    #[test]
    fn rejects_worker_count_mismatch() {
        let c = sample();
        let dir = test_dir("worker-mismatch");
        let store = CheckpointStore::new(&dir, "aba_mixed3");
        store.save(&c, None).unwrap();
        let err = store
            .load(
                Some(&ResumeExpectation {
                    workers: 8,
                    mode: "OptimalDpor",
                    stem_len: 0,
                }),
                None,
            )
            .expect_err("worker-count mismatch must be rejected");
        assert!(err.contains("worker-count mismatch"), "diagnostic: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_task_floor_out_of_prefix() {
        let mut c = sample();
        c.spine[0].tasks[0].floor = 5;
        expect_reject(&c.render(), "floor 5 is outside its prefix");
    }

    #[test]
    fn rejects_proc_out_of_mask_range() {
        let mut c = sample();
        c.spine[2].runnable[0] = 64;
        expect_reject(&c.render(), "process index out of range");
    }

    #[test]
    fn rejects_negative_and_float_numbers() {
        let text = sample()
            .render()
            .replace("\"stem_len\":0", "\"stem_len\":-7");
        expect_reject(&text, "negative numbers");
        let text = sample()
            .render()
            .replace("\"stem_len\":0", "\"stem_len\":7.5");
        expect_reject(&text, "floating-point");
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut text = sample().render();
        text.push_str("{}");
        expect_reject(&text, "trailing garbage");
    }

    fn test_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("sl-ckpt-{}-{tag}", std::process::id()))
    }

    #[test]
    fn save_is_atomic_under_injected_mid_write_crash() {
        let dir = test_dir("atomic");
        let store = CheckpointStore::new(&dir, "aba_mixed3");
        let mut c = sample();
        store.save(&c, None).unwrap();
        let before = std::fs::read_to_string(store.path()).unwrap();
        c.counters.runs += 1;
        let plan = FaultPlan::panicking(FaultPoint::CkptWrite, 1);
        let crashed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| store.save(&c, Some(&plan))));
        assert!(crashed.is_err(), "the injected mid-write crash fires");
        let after = std::fs::read_to_string(store.path()).unwrap();
        assert_eq!(
            before, after,
            "a torn temp write never replaces the live file"
        );
        // And the surviving file still loads.
        let loaded = store.load(None, None).unwrap();
        assert_eq!(loaded, sample());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn async_writer_applies_in_order_and_is_durable_at_finish() {
        let dir = test_dir("writer");
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::new(&dir, "aba_mixed3");
        let writer = CkptWriter::spawn(&store);
        let mut c = sample();
        for runs in 1..=20u64 {
            c.counters.runs = runs;
            // Best-effort publishes may be skipped under a slow disk,
            // but the durable one must land last and win.
            writer.publish(c.render());
        }
        c.counters.runs = 21;
        writer.publish_durable(c.render());
        writer.finish();
        let loaded = store.load(None, None).unwrap();
        assert_eq!(
            loaded.counters.runs, 21,
            "FIFO application: the durable final snapshot is the visible file"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn async_writer_propagates_write_failures_fail_closed() {
        let dir = test_dir("writer-fail");
        let _ = std::fs::remove_dir_all(&dir);
        // A plain file where the store expects its directory: every
        // write on the writer thread fails.
        std::fs::write(&dir, b"not a directory").unwrap();
        let store = CheckpointStore::new(&dir, "aba_mixed3");
        let writer = CkptWriter::spawn(&store);
        writer.publish_durable(sample().render());
        let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| writer.finish()));
        let payload = failed.expect_err("finish propagates the writer's failure");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| payload.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(
            msg.contains("checkpoint writer thread failed"),
            "named diagnostic, got: {msg}"
        );
        let _ = std::fs::remove_file(&dir);
    }

    #[test]
    fn fault_plan_fires_exactly_once_at_nth() {
        let plan = FaultPlan::panicking(FaultPoint::Steal, 3);
        plan.fire(FaultPoint::Steal);
        plan.fire(FaultPoint::JoinMerge); // other points never count
        plan.fire(FaultPoint::Steal);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.fire(FaultPoint::Steal)
        }));
        let payload = crashed.expect_err("third arrival crashes");
        let crash = payload
            .downcast_ref::<FaultCrash>()
            .expect("FaultCrash payload");
        assert_eq!(crash.point, "steal");
        // Spent: later arrivals pass through.
        plan.fire(FaultPoint::Steal);
    }

    #[test]
    fn fault_env_parse_refuses_unknown_and_zero_values_by_name() {
        let plan = FaultPlan::from_vars("worker-exit", Some(" 2 "), Some("abort")).unwrap();
        assert_eq!(
            (plan.point, plan.nth, plan.abort),
            (FaultPoint::WorkerExit, 2, true)
        );
        let plan = FaultPlan::from_vars("steal", None, None).unwrap();
        assert_eq!(
            (plan.point, plan.nth, plan.abort),
            (FaultPoint::Steal, 1, false)
        );
        #[rustfmt::skip]
        let rows = [
            ("dispatch", None, None, r#"SL_FAULT_POINT: unknown injection point "dispatch""#),
            ("stael", None, None, r#"SL_FAULT_POINT: unknown injection point "stael""#),
            ("steal", Some("0"), None, r#"SL_FAULT_NTH: not a count from 1: "0""#),
            ("steal", Some("two"), None, r#"SL_FAULT_NTH: not a count from 1: "two""#),
            ("steal", Some("-1"), None, r#"SL_FAULT_NTH: not a count from 1: "-1""#),
            ("steal", None, Some("kill"), r#"SL_FAULT_MODE: unknown mode "kill""#),
        ];
        for (point, nth, mode, needle) in rows {
            let err = FaultPlan::from_vars(point, nth, mode).unwrap_err();
            assert!(err.contains(needle), "{point} {nth:?} {mode:?}: {err}");
        }
    }

    #[test]
    fn poison_report_roundtrips_to_disk() {
        let dir = test_dir("poison");
        let report = PoisonReport {
            prefix: vec![0, 2, 1],
            attempts: 3,
            message: "object bug: \"quoted\"\nsecond line".into(),
        };
        let path = write_poison_report(&dir, &report).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"attempts\":3"));
        assert!(text.contains("\\\"quoted\\\"\\n"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
