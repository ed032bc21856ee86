//! The worker-process side of the fleet: a frame-serving loop over
//! stdin/stdout.
//!
//! A worker announces itself with a `hello` frame (workload + prune
//! mode, which the coordinator validates before leasing anything),
//! then serves `task` frames one at a time: thaw, explore, reply with
//! a `result` frame carrying counters, escapes, and the symbolized DAG
//! shard. While a task runs, a background ticker renews the lease with
//! `heartbeat` frames every [`heartbeat_interval`] — the coordinator
//! revokes a lease whose heartbeats stop.
//!
//! Fault injection (`SL_FAULT_POINT`, [`sl_sim::FaultPlan::from_env`])
//! exercises the coordinator's failover paths from inside the worker:
//!
//! - `heartbeat` — the ticker stops permanently once the fault takes,
//!   so the coordinator observes a missed lease deadline on a process
//!   that is otherwise alive and working.
//! - `result-frame` — the worker flushes **half** of the nth result
//!   frame and aborts: the coordinator must reject the torn record and
//!   requeue, never ingest a partial shard.
//! - `worker-exit` — the worker aborts after exploring its nth task
//!   but before replying: the subtree's work is lost mid-lease, the
//!   out-of-process analogue of a SIGKILL.
//!
//! A clean `shutdown` frame (or EOF on stdin — the coordinator went
//! away) ends the loop normally.

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sl_check::TreeDag;
use sl_sim::{FaultPlan, FaultPoint, FrozenTask, TaskResult};

use crate::codec::{encode_dag, WireSpec};
use crate::frames::{read_frame, write_frame, Frame};

/// Environment variable carrying the heartbeat cadence in milliseconds
/// (set by the coordinator when it spawns the worker; default 25).
pub const HEARTBEAT_ENV: &str = "SL_DIST_HEARTBEAT_MS";

/// Environment variable stalling the worker for N milliseconds at the
/// start of every leased task, while the heartbeat ticker runs. A test
/// harness hook, like the fault points: with heartbeats flowing a stall
/// longer than the lease timeout proves renewal keeps the lease alive;
/// with heartbeats silenced it forces the missed-deadline revocation.
pub const TASK_STALL_ENV: &str = "SL_DIST_TASK_STALL_MS";

/// The per-task stall from [`TASK_STALL_ENV`], fail-closed; `None`
/// (unset or zero) means no stall.
pub fn task_stall() -> Option<Duration> {
    match std::env::var(TASK_STALL_ENV) {
        Err(std::env::VarError::NotPresent) => None,
        Err(e) => panic!("{TASK_STALL_ENV}: {e}"),
        Ok(s) => {
            let ms: u64 = s
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("{TASK_STALL_ENV}: not a millisecond count: {s:?}"));
            (ms > 0).then(|| Duration::from_millis(ms))
        }
    }
}

/// The worker's heartbeat cadence: [`HEARTBEAT_ENV`], fail-closed.
pub fn heartbeat_interval() -> Duration {
    match std::env::var(HEARTBEAT_ENV) {
        Err(std::env::VarError::NotPresent) => Duration::from_millis(25),
        Err(e) => panic!("{HEARTBEAT_ENV}: {e}"),
        Ok(s) => {
            let ms: u64 = s
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("{HEARTBEAT_ENV}: not a millisecond count: {s:?}"));
            assert!(ms > 0, "{HEARTBEAT_ENV}: zero heartbeat interval");
            Duration::from_millis(ms)
        }
    }
}

/// Serves frames on stdin/stdout until a `shutdown` frame or EOF.
///
/// `explore` runs one [`FrozenTask`] to completion and returns its
/// [`TaskResult`] plus the **symbolized** DAG shard of exactly that
/// subtree's transcripts (see [`crate::codec`]). The function returns
/// `Err` on a protocol violation (the process should then exit
/// nonzero, which the coordinator treats as a revoked lease).
pub fn serve<S, H>(workload: &str, mode: &str, mut explore: H) -> Result<(), String>
where
    S: WireSpec,
    H: FnMut(&FrozenTask) -> (TaskResult, TreeDag<S>),
{
    let fault = FaultPlan::from_env().map(Arc::new);
    let stdout = Arc::new(Mutex::new(std::io::stdout()));
    let current = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));

    write_locked(
        &stdout,
        &Frame::Hello {
            workload: workload.to_string(),
            mode: mode.to_string(),
            pid: std::process::id() as u64,
        }
        .render(),
    )?;

    // The lease ticker: heartbeats flow only while a task is current.
    // Once a `heartbeat` fault takes, the ticker stops for good — the
    // worker keeps exploring, the coordinator sees a dead lease.
    let ticker = {
        let stdout = Arc::clone(&stdout);
        let current = Arc::clone(&current);
        let stop = Arc::clone(&stop);
        let fault = fault.clone();
        let interval = heartbeat_interval();
        std::thread::spawn(move || loop {
            std::thread::sleep(interval);
            if stop.load(Ordering::SeqCst) {
                return;
            }
            let task = current.load(Ordering::SeqCst);
            if task == 0 {
                continue;
            }
            if let Some(plan) = &fault {
                if plan.takes(FaultPoint::Heartbeat) {
                    return; // silenced permanently
                }
            }
            let text = Frame::Heartbeat { task }.render();
            if write_locked(&stdout, &text).is_err() {
                return; // coordinator is gone; the main loop will see EOF
            }
        })
    };

    let run = serve_loop(&stdout, &current, fault.as_deref(), &mut explore);
    stop.store(true, Ordering::SeqCst);
    let _ = ticker.join();
    run
}

fn serve_loop<S, H>(
    stdout: &Mutex<std::io::Stdout>,
    current: &AtomicU64,
    fault: Option<&FaultPlan>,
    explore: &mut H,
) -> Result<(), String>
where
    S: WireSpec,
    H: FnMut(&FrozenTask) -> (TaskResult, TreeDag<S>),
{
    let stdin = std::io::stdin();
    let mut stdin = stdin.lock();
    let stall = task_stall();
    loop {
        let Some(text) = read_frame(&mut stdin)? else {
            return Ok(()); // coordinator closed the pipe
        };
        match Frame::parse(&text)? {
            Frame::Shutdown => return Ok(()),
            Frame::Task { task, spec } => {
                current.store(task, Ordering::SeqCst);
                if let Some(d) = stall {
                    // The ticker sees the current task, so heartbeats
                    // flow (or are silenced by the fault) during the
                    // stall — the lease-renewal window under test.
                    std::thread::sleep(d);
                }
                let (result, dag) = explore(&spec);
                current.store(0, Ordering::SeqCst);
                if let Some(plan) = fault {
                    // Mid-lease death: the subtree was explored but the
                    // result never leaves this process.
                    if plan.takes(FaultPoint::WorkerExit) {
                        plan.crash(FaultPoint::WorkerExit);
                    }
                }
                let text = Frame::Result {
                    task,
                    result,
                    shard: encode_dag(&dag),
                }
                .render();
                if let Some(plan) = fault {
                    // Torn result: flush half the record, then die. The
                    // coordinator must reject it as torn — the length
                    // prefix promises bytes that never arrive.
                    if plan.takes(FaultPoint::ResultFrame) {
                        let mut out = stdout.lock().unwrap();
                        let full = format!("{}\n{}\n", text.len(), text);
                        let half = &full.as_bytes()[..full.len() / 2];
                        let _ = out.write_all(half);
                        let _ = out.flush();
                        drop(out);
                        plan.crash(FaultPoint::ResultFrame);
                    }
                }
                write_locked(stdout, &text)?;
            }
            other => {
                return Err(format!(
                    "worker: unexpected {:?} frame from the coordinator",
                    other.kind_name()
                ))
            }
        }
    }
}

fn write_locked(stdout: &Mutex<std::io::Stdout>, text: &str) -> Result<(), String> {
    let mut out = stdout.lock().unwrap();
    write_frame(&mut *out, text).map_err(|e| format!("worker: stdout write failed: {e}"))
}
