//! The coordinator: a lease-based dispatcher over a fleet of worker
//! processes.
//!
//! [`DistCoordinator`] implements [`sl_sim::TaskDispatcher`]: the
//! engine offers it each attempt at a delegated subtree task, and the
//! coordinator leases the task once to a worker process (over the frame
//! protocol of [`crate::frames`]) and returns the subtree's result or
//! the reason the lease was revoked — or declines, and the engine runs
//! the attempt in-process (the graceful-degradation path).
//!
//! # Lease lifecycle
//!
//! ```text
//!           checkout/spawn        task frame
//!   [idle worker] ───────▶ [leased] ──────▶ waiting
//!        ▲                                   │ heartbeat: renew lease
//!        │ result frame (shard + telemetry)  │ result: settle lease
//!        └───────────────────────────────────┤
//!                                            │ missed deadline / EOF /
//!                                            │ torn or checksum-failed
//!                                            │ frame / nonzero exit
//!                                            ▼
//!                             revoke: SIGKILL + respawn
//!                                            │ reason
//!                                            ▼
//!                 engine: back off, retry (a fresh lease, or
//!                 in-process if the fleet declines); retries
//!                 spent → quarantine: PoisonReport, partial
//!                 outcome (never a false PASS)
//! ```
//!
//! The coordinator keeps only the lease table. A revoked lease is a
//! failed subtree attempt, which the engine backs off, retries and
//! quarantines exactly as it does a panicking subtree, counting it once,
//! in the [`sl_sim::ExploreOutcome`]. A retry re-leases the *same frozen
//! task* ([`sl_sim::FrozenTask`], the engine's own portable record), so
//! the subtree is bit-identically re-explorable. A result is checked
//! against its task before the engine merges it: an escape whose depth
//! is not below the task's floor revokes the lease like a torn frame
//! does (the frame parser already refused malformed escapes). When no
//! worker can be spawned at all, the coordinator declines every
//! dispatch and the run degrades to plain in-process exploration.

use std::collections::VecDeque;
use std::io::BufReader;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender};
use std::sync::Mutex;
use std::time::Duration;

use sl_check::TreeDag;
use sl_sim::{FrozenTask, TaskDispatcher, TaskResult};

use crate::codec::{decode_dag, WireSpec};
use crate::frames::{read_frame, write_frame, Frame};
use crate::worker::HEARTBEAT_ENV;

/// Fleet shape and lease policy. Retries, backoff and quarantine of a
/// revoked lease are the engine's (see the module docs).
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Worker argv: `worker_cmd[0]` is the executable, the rest its
    /// arguments. The spawned process must speak the frame protocol on
    /// stdin/stdout and `hello` with the pinned workload and mode.
    pub worker_cmd: Vec<String>,
    /// Fleet size: at most this many worker processes live at once.
    pub workers: usize,
    /// Heartbeat cadence handed to workers via [`HEARTBEAT_ENV`].
    pub heartbeat: Duration,
    /// Lease deadline: a leased task whose worker sends neither a
    /// heartbeat nor a result within this window is revoked.
    pub lease_timeout: Duration,
    /// Extra environment for spawned workers.
    pub env: Vec<(String, String)>,
    /// Fault-matrix hook: SIGKILL the serving worker immediately after
    /// the nth task frame (1-based) is written — the external-kill
    /// case, exercised without any cooperation from the worker.
    pub kill_nth_dispatch: Option<u64>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            worker_cmd: Vec::new(),
            workers: 2,
            heartbeat: Duration::from_millis(25),
            lease_timeout: Duration::from_millis(2_000),
            env: Vec::new(),
            kill_nth_dispatch: None,
        }
    }
}

/// Fleet telemetry: a snapshot of the coordinator's counters, taken by
/// [`DistCoordinator::stats`] (after the run, for its totals). Retries
/// and quarantines are counted once, in the
/// [`sl_sim::ExploreOutcome`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Task frames written to workers (including re-leases).
    pub dispatched: u64,
    /// Results accepted from workers.
    pub completed: u64,
    /// Leases revoked (missed deadline, torn frame, checksum failure,
    /// dead pipe, nonzero exit, kill).
    pub revoked: u64,
    /// Dispatches declined (fleet busy or degraded): ran in-process.
    pub declined: u64,
    /// Workers killed by the fault-matrix hook.
    pub chaos_kills: u64,
    /// Whether the run fell back to pure in-process exploration
    /// because no worker could be spawned.
    pub degraded: bool,
}

/// The live, monotone counters behind [`FleetStats`].
#[derive(Default)]
struct FleetCounters {
    dispatched: AtomicU64,
    completed: AtomicU64,
    revoked: AtomicU64,
    declined: AtomicU64,
    chaos_kills: AtomicU64,
}

struct WorkerConn {
    child: Child,
    stdin: ChildStdin,
    rx: Receiver<Result<Frame, String>>,
}

impl WorkerConn {
    /// SIGKILL + reap. Idempotent; errors are uninteresting (the
    /// process may already be gone).
    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// The lease-table dispatcher. One per distributed exploration; shared
/// by reference across the engine's worker threads (dispatch is called
/// concurrently and checks out at most one fleet member per call).
pub struct DistCoordinator<'s, S: WireSpec> {
    cfg: FleetConfig,
    workload: String,
    mode: String,
    /// Decoded remote shards land here; the caller merges them with
    /// its (symbolized) local shards after exploration.
    sink: &'s Mutex<Vec<TreeDag<S>>>,
    idle: Mutex<VecDeque<WorkerConn>>,
    /// Live fleet members (idle + leased).
    alive: AtomicUsize,
    /// A spawn failed: decline everything from now on (in-process
    /// degradation) instead of flapping on a broken worker binary.
    degraded: AtomicBool,
    next_lease: AtomicU64,
    counters: FleetCounters,
}

impl<'s, S: WireSpec> DistCoordinator<'s, S> {
    /// A coordinator for one exploration. `workload`/`mode` pin the
    /// fleet's identity: a worker whose `hello` disagrees is refused.
    pub fn new(
        cfg: FleetConfig,
        workload: &str,
        mode: &str,
        sink: &'s Mutex<Vec<TreeDag<S>>>,
    ) -> Self {
        assert!(
            !cfg.worker_cmd.is_empty(),
            "FleetConfig::worker_cmd is empty"
        );
        assert!(cfg.workers >= 1, "FleetConfig::workers must be >= 1");
        DistCoordinator {
            cfg,
            workload: workload.to_string(),
            mode: mode.to_string(),
            sink,
            idle: Mutex::new(VecDeque::new()),
            alive: AtomicUsize::new(0),
            degraded: AtomicBool::new(false),
            next_lease: AtomicU64::new(1),
            counters: FleetCounters::default(),
        }
    }

    /// The fleet telemetry so far.
    pub fn stats(&self) -> FleetStats {
        let c = &self.counters;
        let load = |n: &AtomicU64| n.load(Ordering::SeqCst);
        FleetStats {
            dispatched: load(&c.dispatched),
            completed: load(&c.completed),
            revoked: load(&c.revoked),
            declined: load(&c.declined),
            chaos_kills: load(&c.chaos_kills),
            degraded: self.is_degraded(),
        }
    }

    /// Whether the fleet fell back to in-process exploration because no
    /// worker could be spawned.
    fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::SeqCst)
    }

    /// Spawns one worker, validates its `hello`, and wires a reader
    /// thread that parses frames off its stdout into a channel (so the
    /// lease loop can wait with a deadline).
    fn spawn_worker(&self) -> Result<WorkerConn, String> {
        let mut cmd = Command::new(&self.cfg.worker_cmd[0]);
        cmd.args(&self.cfg.worker_cmd[1..])
            .env(
                HEARTBEAT_ENV,
                self.cfg.heartbeat.as_millis().max(1).to_string(),
            )
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (k, v) in &self.cfg.env {
            cmd.env(k, v);
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn worker {:?}: {e}", self.cfg.worker_cmd[0]))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = std::sync::mpsc::sync_channel::<Result<Frame, String>>(64);
        std::thread::spawn(move || reader_loop(stdout, tx));
        let conn = WorkerConn { child, stdin, rx };
        // Handshake, on the lease clock: a worker that cannot even say
        // hello is not a fleet member.
        match conn.rx.recv_timeout(self.cfg.lease_timeout) {
            Ok(Ok(Frame::Hello { workload, mode, .. }))
                if workload == self.workload && mode == self.mode =>
            {
                Ok(conn)
            }
            Ok(Ok(Frame::Hello { workload, mode, .. })) => {
                conn.kill();
                Err(format!(
                    "worker hello mismatch: it serves {workload:?}/{mode:?}, \
                     this fleet is pinned to {:?}/{:?} (fail-closed)",
                    self.workload, self.mode
                ))
            }
            Ok(Ok(other)) => {
                conn.kill();
                Err(format!("worker spoke {other:?} before hello"))
            }
            Ok(Err(e)) => {
                conn.kill();
                Err(format!("worker handshake failed: {e}"))
            }
            Err(_) => {
                conn.kill();
                Err("worker hello timed out".to_string())
            }
        }
    }

    /// Takes an idle worker or spawns one under the fleet cap; `None`
    /// means the whole fleet is busy (the caller runs in-process).
    fn checkout(&self) -> Option<Result<WorkerConn, String>> {
        if let Some(conn) = self.idle.lock().unwrap().pop_front() {
            return Some(Ok(conn));
        }
        // Reserve the fleet slot before spawning, so concurrent callers
        // cannot overshoot the cap; a failed spawn or hello releases it.
        self.alive
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
                (n < self.cfg.workers).then_some(n + 1)
            })
            .ok()?;
        let conn = self.spawn_worker();
        if conn.is_err() {
            self.alive.fetch_sub(1, Ordering::SeqCst);
        }
        Some(conn)
    }

    fn revoke(&self, conn: WorkerConn) {
        self.counters.revoked.fetch_add(1, Ordering::SeqCst);
        self.alive.fetch_sub(1, Ordering::SeqCst);
        conn.kill();
    }

    fn check_in(&self, conn: WorkerConn) {
        self.idle.lock().unwrap().push_back(conn);
    }

    /// Runs one lease: sends the task, renews on heartbeats, settles on
    /// the result. `Err` is a revocation reason.
    fn lease(
        &self,
        conn: &mut WorkerConn,
        lease_id: u64,
        spec: &FrozenTask,
    ) -> Result<(TaskResult, TreeDag<S>), String> {
        let text = Frame::Task {
            task: lease_id,
            spec: spec.clone(),
        }
        .render();
        write_frame(&mut conn.stdin, &text).map_err(|e| format!("task frame write failed: {e}"))?;
        let n = self.counters.dispatched.fetch_add(1, Ordering::SeqCst) + 1;
        if self.cfg.kill_nth_dispatch == Some(n) {
            // External-kill fault: the worker dies mid-lease with no
            // cooperation — exactly a SIGKILL from outside.
            let _ = conn.child.kill();
            self.counters.chaos_kills.fetch_add(1, Ordering::SeqCst);
        }
        loop {
            match conn.rx.recv_timeout(self.cfg.lease_timeout) {
                Ok(Ok(Frame::Heartbeat { task })) if task == lease_id => continue,
                // A stale heartbeat from a previous lease on this
                // (healthy, reused) worker: ignore, keep waiting.
                Ok(Ok(Frame::Heartbeat { .. })) => continue,
                Ok(Ok(Frame::Result {
                    task,
                    result,
                    shard,
                })) if task == lease_id => {
                    // An escape demands a reversal in the owner's spine,
                    // strictly below the task's floor.
                    if let Some(e) = result.escapes.iter().find(|e| e.depth >= spec.floor) {
                        return Err(format!(
                            "result escape depth {} is not below the task floor {} (fail-closed)",
                            e.depth, spec.floor
                        ));
                    }
                    let dag = decode_dag::<S>(&shard)
                        .map_err(|e| format!("result shard rejected: {e}"))?;
                    return Ok((result, dag));
                }
                Ok(Ok(other)) => {
                    return Err(format!(
                        "protocol violation: unexpected {other:?} mid-lease"
                    ))
                }
                Ok(Err(e)) => return Err(e), // torn/checksum/malformed frame
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!(
                        "lease deadline missed (no heartbeat within {:?})",
                        self.cfg.lease_timeout
                    ))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("worker pipe closed mid-lease (process exit?)".to_string())
                }
            }
        }
    }

    /// Sends `shutdown` to every idle worker and reaps the fleet. Call
    /// after exploration; leased workers (there should be none) are
    /// killed by `Drop`.
    pub fn finish(&self) {
        let mut idle = self.idle.lock().unwrap();
        while let Some(mut conn) = idle.pop_front() {
            let _ = write_frame(&mut conn.stdin, &Frame::Shutdown.render());
            // Closing stdin unblocks a worker that missed the frame.
            drop(conn.stdin);
            let _ = conn.child.wait();
            self.alive.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

impl<S: WireSpec> Drop for DistCoordinator<'_, S> {
    fn drop(&mut self) {
        let mut idle = self.idle.lock().unwrap();
        while let Some(conn) = idle.pop_front() {
            conn.kill();
        }
    }
}

impl<S: WireSpec> TaskDispatcher for DistCoordinator<'_, S> {
    fn dispatch(&self, task: &FrozenTask) -> Option<Result<TaskResult, String>> {
        let conn = if self.is_degraded() {
            None
        } else {
            self.checkout()
        };
        let mut conn = match conn {
            Some(Ok(conn)) => conn,
            other => {
                if let Some(Err(e)) = other {
                    // No spawnable worker at all: degrade for the rest
                    // of the run.
                    eprintln!("sl-dist: degrading to in-process exploration: {e}");
                    self.degraded.store(true, Ordering::SeqCst);
                }
                // Degraded or whole fleet busy: the engine runs the task
                // in-process (bit-identical either way; latency is not).
                self.counters.declined.fetch_add(1, Ordering::SeqCst);
                return None;
            }
        };
        let lease_id = self.next_lease.fetch_add(1, Ordering::SeqCst);
        Some(match self.lease(&mut conn, lease_id, task) {
            Ok((result, dag)) => {
                self.counters.completed.fetch_add(1, Ordering::SeqCst);
                self.sink.lock().unwrap().push(dag);
                self.check_in(conn);
                Ok(result)
            }
            Err(reason) => {
                self.revoke(conn);
                Err(format!("lease {lease_id} revoked: {reason}"))
            }
        })
    }
}

fn reader_loop(stdout: std::process::ChildStdout, tx: SyncSender<Result<Frame, String>>) {
    let mut reader = BufReader::new(stdout);
    loop {
        match read_frame(&mut reader) {
            Ok(None) => return, // EOF: channel disconnect signals it
            Ok(Some(text)) => {
                let parsed = Frame::parse(&text);
                let fatal = parsed.is_err();
                if tx.send(parsed).is_err() || fatal {
                    return;
                }
            }
            Err(e) => {
                let _ = tx.send(Err(e));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use sl_check::DagBuilder;
    use sl_sim::{Counters, Escape, PendingAccess};
    use sl_spec::types::AbaSpec;

    use super::*;
    use crate::codec::encode_dag;

    type Spec = AbaSpec<u64>;

    /// One length-prefixed record, as the pipe carries it.
    fn record(frame: &Frame) -> String {
        let text = frame.render();
        format!("{}\n{}\n", text.len(), text)
    }

    fn hello() -> Frame {
        Frame::Hello {
            workload: "scripted".to_string(),
            mode: "OptimalDpor".to_string(),
            pid: 1,
        }
    }

    /// A fleet whose worker is an `sh` script replaying pre-rendered
    /// frames: `before_hello` runs first, then the hello, then each
    /// record in `replies` once a task frame has arrived. The script
    /// then idles until the coordinator closes its stdin or kills it.
    fn scripted_fleet(before_hello: &str, replies: &[Frame], workers: usize) -> FleetConfig {
        let replies: String = replies.iter().map(record).collect();
        let script = format!(
            "{before_hello}printf '%s' '{}'; read -r _; read -r _; printf '%s' '{replies}'; \
             exec cat >/dev/null",
            record(&hello())
        );
        FleetConfig {
            worker_cmd: vec!["sh".to_string(), "-c".to_string(), script],
            workers,
            lease_timeout: Duration::from_secs(10),
            ..FleetConfig::default()
        }
    }

    /// A leased task with floor 2.
    fn task() -> FrozenTask {
        FrozenTask {
            prefix: vec![0, 1],
            accesses: vec![PendingAccess::LOCAL; 2],
            sleep: 0,
            floor: 2,
        }
    }

    /// A result frame for lease 1 carrying one escape.
    fn result_with(escape: Escape) -> Frame {
        Frame::Result {
            task: 1,
            result: TaskResult {
                counters: Counters {
                    runs: 5,
                    ..Counters::default()
                },
                escapes: vec![escape],
                ..TaskResult::default()
            },
            shard: encode_dag(&DagBuilder::<Spec>::new().finish()),
        }
    }

    fn escape(depth: usize, proc: usize) -> Escape {
        Escape {
            depth,
            initials: vec![proc],
            seq: vec![(proc, PendingAccess::LOCAL)],
        }
    }

    /// Leases `task()` once to a one-worker scripted fleet replying
    /// `reply`; returns the lease's outcome and the fleet counters
    /// (dispatched, completed, revoked).
    fn dispatch_scripted(reply: Frame) -> (Result<TaskResult, String>, [u64; 3]) {
        let sink = Mutex::new(Vec::new());
        let fleet = scripted_fleet("", &[reply], 1);
        let coord = DistCoordinator::<Spec>::new(fleet, "scripted", "OptimalDpor", &sink);
        let res = coord.dispatch(&task()).expect("a lease, not a decline");
        coord.finish();
        let s = coord.stats();
        (res, [s.dispatched, s.completed, s.revoked])
    }

    #[test]
    fn an_honest_scripted_result_is_merged() {
        let (res, counts) = dispatch_scripted(result_with(escape(1, 1)));
        assert_eq!(counts, [1, 1, 0], "dispatched, completed, revoked");
        let res = res.expect("a settled lease");
        assert_eq!(res.counters.runs, 5);
        assert_eq!(res.escapes, vec![escape(1, 1)]);
    }

    #[test]
    fn results_failing_their_task_are_revoked_with_the_reason() {
        // An escape at the floor (the coordinator's check) and one
        // naming process 70 (the frame parser's): each revokes its one
        // lease and hands the reason back to the engine, whose failure
        // path retries or quarantines the task.
        for (reply, needle) in [
            (
                escape(2, 1),
                "result escape depth 2 is not below the task floor 2",
            ),
            (escape(1, 70), "escape: process index out of range"),
        ] {
            let (res, counts) = dispatch_scripted(result_with(reply));
            assert_eq!(counts, [1, 0, 1], "{needle}");
            let reason = res.expect_err(needle);
            assert!(reason.contains("lease 1 revoked"), "{reason:?}");
            assert!(reason.contains(needle), "{reason:?} lacks {needle:?}");
        }
    }

    #[test]
    fn concurrent_checkouts_spawn_at_most_the_fleet_size() {
        // Four callers start together; a slow hello holds the first
        // spawn open while the others arrive, and the one slot must
        // already be reserved.
        let sink = Mutex::new(Vec::new());
        let fleet = scripted_fleet("sleep 0.3; ", &[], 1);
        let coord = DistCoordinator::<Spec>::new(fleet, "scripted", "OptimalDpor", &sink);
        let start = std::sync::Barrier::new(4);
        let conns: Vec<_> = std::thread::scope(|scope| {
            let call = || {
                start.wait();
                coord.checkout()
            };
            let calls: Vec<_> = (0..4).map(|_| scope.spawn(call)).collect();
            calls.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let spawned = conns.iter().filter(|c| matches!(c, Some(Ok(_)))).count();
        let declined = conns.iter().filter(|c| c.is_none()).count();
        assert_eq!((spawned, declined), (1, 3));
        assert_eq!(coord.alive.load(Ordering::SeqCst), 1);
        for conn in conns.into_iter().flatten() {
            conn.expect("spawned").kill();
        }
    }
}
