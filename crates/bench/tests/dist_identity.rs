//! Bit-identity of distributed exploration, including the fault
//! matrix.
//!
//! Every test compares a distributed run (worker *processes* serving
//! frozen subtree tasks over pipes — see `sl-dist`) against the plain
//! sequential exploration of the same pinned workload: same verdict,
//! same conflict depth, same runs/cut/pruned counters, same merged-DAG
//! structural hash. The fault matrix — SIGKILL mid-lease, torn result
//! frames, workers dying before replying, silenced heartbeats, spawn
//! failure — must either fail over to the *same* bit-identical answer
//! or degrade to an honestly `partial` outcome. Never a false PASS.

use std::time::Duration;

use sl_api::sim::{
    explore_object_dag_distributed, explore_object_dag_with, DriveOps as _, ExploredDag,
    ExploredDistDag,
};
use sl_api::ObjectBuilder;
use sl_bench::workloads::{dist_config, dist_ops, ASpec};
use sl_dist::FleetConfig;
use sl_sim::PruneMode;
use sl_spec::types::AbaSpec;

/// The worker binary the coordinator spawns (built by cargo for this
/// test crate).
const WORKER: &str = env!("CARGO_BIN_EXE_dist_worker");

fn worker_cmd(workload: &str, mode: PruneMode) -> Vec<String> {
    vec![
        WORKER.to_string(),
        "--workload".to_string(),
        workload.to_string(),
        "--mode".to_string(),
        mode.name().to_string(),
    ]
}

/// A fleet that only ever revokes on *hard* failure evidence (EOF,
/// torn frame, nonzero exit, SIGKILL): the lease deadline is far
/// beyond any CI scheduler stall. Every test that is not specifically
/// about deadline timing uses this, so a starved runner can never turn
/// a healthy lease into a spurious revocation (or, worse, a quarantine
/// that changes the counters this suite pins bit-for-bit). Dead-pipe
/// detection is immediate, so the generous deadline never slows a
/// failover down. A revoked lease is retried by the engine, as a
/// panicking subtree is; the failover tests below fail each task at
/// most once, well within its two retries.
fn patient_fleet(workload: &str, mode: PruneMode, workers: usize) -> FleetConfig {
    FleetConfig {
        worker_cmd: worker_cmd(workload, mode),
        workers,
        lease_timeout: Duration::from_secs(120),
        ..FleetConfig::default()
    }
}

/// The sequential run's identity, flattened to plain values: the
/// quantities the distributed run must reproduce bit-for-bit.
struct SeqRef {
    runs: usize,
    cut_runs: usize,
    pruned: u64,
    exhausted: bool,
    holds: bool,
    conflict_depth: usize,
    hash: u64,
}

fn sequential(workload: &str, mode: PruneMode) -> SeqRef {
    let ops = dist_ops(workload).unwrap();
    let n = ops.len();
    let cfg = dist_config(mode, 1);
    let seq: ExploredDag<ASpec> = explore_object_dag_with::<ASpec, _, _, _>(
        |mem| ObjectBuilder::on(mem).processes(n).aba_register::<u64>(),
        &ops,
        |h, op| h.drive(op),
        &cfg,
    );
    let verdict = seq.check_strong(&AbaSpec::<u64>::new(n));
    SeqRef {
        runs: seq.outcome.runs,
        cut_runs: seq.outcome.cut_runs,
        pruned: seq.outcome.pruned,
        exhausted: seq.outcome.exhausted,
        holds: verdict.holds,
        conflict_depth: verdict.conflict_depth,
        hash: seq.dag.symbolize().structural_hash(),
    }
}

fn distributed(workload: &str, mode: PruneMode, fleet: FleetConfig) -> ExploredDistDag<ASpec> {
    let ops = dist_ops(workload).unwrap();
    let n = ops.len();
    let cfg = dist_config(mode, fleet.workers.max(2));
    explore_object_dag_distributed::<ASpec, _, _, _>(
        |mem| ObjectBuilder::on(mem).processes(n).aba_register::<u64>(),
        &ops,
        |h, op| h.drive(op),
        &cfg,
        fleet,
        workload,
    )
}

/// The full bit-identity gate: counters, verdict, conflict depth, and
/// merged-DAG structural hash all equal to the sequential run's.
fn assert_bit_identical(workload: &str, seq: &SeqRef, dist: &ExploredDistDag<ASpec>) {
    let n = dist_ops(workload).unwrap().len();
    assert_eq!(
        (seq.runs, seq.cut_runs, seq.pruned, seq.exhausted),
        (
            dist.outcome.runs,
            dist.outcome.cut_runs,
            dist.outcome.pruned,
            dist.outcome.exhausted
        ),
        "{workload}: distributed counters diverge from sequential"
    );
    let verdict = dist.check_strong(&AbaSpec::<u64>::new(n));
    assert_eq!(
        (seq.holds, seq.conflict_depth),
        (verdict.holds, verdict.conflict_depth),
        "{workload}: distributed verdict diverges from sequential"
    );
    assert_eq!(
        seq.hash,
        dist.dag.structural_hash(),
        "{workload}: merged-DAG structural hash diverges from sequential"
    );
}

#[test]
fn distributed_runs_are_bit_identical_at_any_fleet_size() {
    let workload = "aba_mixed3";
    let mode = PruneMode::SourceDpor;
    let seq = sequential(workload, mode);
    for procs in [2usize, 4, 8] {
        let dist = distributed(workload, mode, patient_fleet(workload, mode, procs));
        assert_bit_identical(workload, &seq, &dist);
        assert!(!dist.fleet.degraded, "{procs} procs: fleet degraded");
        assert!(
            dist.fleet.completed > 0,
            "{procs} procs: no task ever completed out of process — the distributed path never engaged"
        );
        assert_eq!(
            dist.outcome.quarantined, 0,
            "{procs} procs: unexpected quarantine"
        );
    }
}

#[test]
fn deep_workload_is_bit_identical_under_optimal_dpor() {
    let workload = "aba_mixed3_deep";
    let mode = PruneMode::OptimalDpor;
    let seq = sequential(workload, mode);
    let dist = distributed(workload, mode, patient_fleet(workload, mode, 4));
    assert_bit_identical(workload, &seq, &dist);
    assert!(dist.fleet.completed > 0, "distributed path never engaged");
}

#[test]
fn sigkill_mid_lease_fails_over_bit_identically() {
    let workload = "aba_mixed3";
    let mode = PruneMode::SourceDpor;
    let seq = sequential(workload, mode);
    let fleet = FleetConfig {
        kill_nth_dispatch: Some(1),
        ..patient_fleet(workload, mode, 2)
    };
    let dist = distributed(workload, mode, fleet);
    assert_bit_identical(workload, &seq, &dist);
    assert_eq!(
        dist.fleet.chaos_kills, 1,
        "the chaos hook must fire exactly once"
    );
    assert!(
        dist.fleet.revoked >= 1,
        "the SIGKILLed lease must be revoked"
    );
    assert_eq!(
        dist.outcome.quarantined, 0,
        "failover must succeed within the retry budget"
    );
}

#[test]
fn torn_result_frames_are_rejected_and_requeued() {
    let workload = "aba_mixed3";
    let mode = PruneMode::SourceDpor;
    let seq = sequential(workload, mode);
    // Every worker process tears its *second* result frame mid-write
    // and dies: task 1 completes, task 2 is revoked and requeued on a
    // fresh worker (whose own first task then succeeds). Progress is
    // guaranteed, and the torn shard must never be ingested.
    let fleet = FleetConfig {
        env: vec![
            ("SL_FAULT_POINT".to_string(), "result-frame".to_string()),
            ("SL_FAULT_NTH".to_string(), "2".to_string()),
            ("SL_FAULT_MODE".to_string(), "abort".to_string()),
        ],
        ..patient_fleet(workload, mode, 1)
    };
    let dist = distributed(workload, mode, fleet);
    assert_bit_identical(workload, &seq, &dist);
    assert!(
        dist.fleet.revoked >= 1,
        "a torn frame must revoke its lease"
    );
    assert_eq!(
        dist.outcome.quarantined, 0,
        "retries on fresh workers must recover"
    );
}

#[test]
fn worker_death_before_reply_requeues_bit_identically() {
    let workload = "aba_mixed3";
    let mode = PruneMode::SourceDpor;
    let seq = sequential(workload, mode);
    let fleet = FleetConfig {
        env: vec![
            ("SL_FAULT_POINT".to_string(), "worker-exit".to_string()),
            ("SL_FAULT_NTH".to_string(), "2".to_string()),
            ("SL_FAULT_MODE".to_string(), "abort".to_string()),
        ],
        ..patient_fleet(workload, mode, 1)
    };
    let dist = distributed(workload, mode, fleet);
    assert_bit_identical(workload, &seq, &dist);
    assert!(
        dist.fleet.revoked >= 1,
        "a mid-lease death must revoke its lease"
    );
    assert_eq!(
        dist.outcome.quarantined, 0,
        "retries on fresh workers must recover"
    );
}

#[test]
fn exhausted_retries_quarantine_and_never_report_a_false_pass() {
    let workload = "aba_mixed3";
    let mode = PruneMode::SourceDpor;
    // Every worker dies on its *first* task, so every lease is
    // revoked: a task leased on every retry is quarantined, and the
    // outcome must be flagged partial — never a PASS over an
    // unexplored subspace.
    let fleet = FleetConfig {
        env: vec![
            ("SL_FAULT_POINT".to_string(), "worker-exit".to_string()),
            ("SL_FAULT_NTH".to_string(), "1".to_string()),
            ("SL_FAULT_MODE".to_string(), "abort".to_string()),
        ],
        ..patient_fleet(workload, mode, 1)
    };
    let dist = distributed(workload, mode, fleet);
    assert!(
        dist.outcome.quarantined >= 1,
        "exhausted retries must quarantine"
    );
    assert!(dist.outcome.partial, "a quarantined run must be partial");
    assert!(
        !dist.outcome.exhausted,
        "a quarantined run must not claim exhaustion"
    );
    assert!(
        dist.outcome.retried >= 2 * dist.outcome.quarantined,
        "each quarantined task was retried twice first: {:?}",
        dist.outcome
    );
    assert!(
        dist.outcome
            .poisoned
            .iter()
            .all(|r| r.message.contains("revoked")),
        "the report must say the lease was revoked: {:?}",
        dist.outcome.poisoned
    );
}

#[test]
fn spawn_failure_degrades_to_in_process_bit_identically() {
    let workload = "aba_mixed3";
    let mode = PruneMode::SourceDpor;
    let seq = sequential(workload, mode);
    let fleet = FleetConfig {
        worker_cmd: vec!["/nonexistent/sl-dist-worker".to_string()],
        workers: 2,
        ..FleetConfig::default()
    };
    let dist = distributed(workload, mode, fleet);
    assert_bit_identical(workload, &seq, &dist);
    assert!(dist.fleet.degraded, "an unspawnable fleet must degrade");
    assert_eq!(
        dist.fleet.completed, 0,
        "no task can complete out of process"
    );
    assert_eq!(dist.outcome.quarantined, 0, "degradation is not a fault");
}

#[test]
fn heartbeats_renew_leases_past_the_timeout() {
    let workload = "aba_mixed3";
    let mode = PruneMode::SourceDpor;
    let seq = sequential(workload, mode);
    // Each task stalls for several lease-timeout windows while the
    // heartbeat ticker runs: only renewal keeps the leases alive.
    let fleet = FleetConfig {
        worker_cmd: worker_cmd(workload, mode),
        workers: 2,
        heartbeat: Duration::from_millis(20),
        lease_timeout: Duration::from_millis(300),
        env: vec![("SL_DIST_TASK_STALL_MS".to_string(), "700".to_string())],
        ..FleetConfig::default()
    };
    let dist = distributed(workload, mode, fleet);
    assert_bit_identical(workload, &seq, &dist);
    assert!(
        dist.fleet.completed >= 1,
        "stalled-but-heartbeating tasks must complete"
    );
    assert_eq!(
        dist.fleet.revoked, 0,
        "renewed leases must never be revoked"
    );
    assert_eq!(
        dist.outcome.quarantined, 0,
        "renewed leases must never quarantine"
    );
}

#[test]
fn silenced_heartbeats_miss_the_deadline_and_quarantine() {
    let workload = "aba_mixed3";
    let mode = PruneMode::SourceDpor;
    // Same stall, but the ticker dies on its first tick: the lease
    // deadline passes on a live, working process — exactly the breach
    // the lease table exists to catch.
    let fleet = FleetConfig {
        worker_cmd: worker_cmd(workload, mode),
        workers: 1,
        heartbeat: Duration::from_millis(10),
        lease_timeout: Duration::from_millis(60),
        env: vec![
            ("SL_DIST_TASK_STALL_MS".to_string(), "200".to_string()),
            ("SL_FAULT_POINT".to_string(), "heartbeat".to_string()),
            ("SL_FAULT_NTH".to_string(), "1".to_string()),
        ],
        ..FleetConfig::default()
    };
    let dist = distributed(workload, mode, fleet);
    assert!(dist.fleet.revoked >= 1, "a silent lease must be revoked");
    assert!(
        dist.outcome.quarantined >= 1,
        "a lease silenced on every retry must quarantine"
    );
    assert!(
        dist.outcome.partial,
        "quarantined subtrees make the outcome partial"
    );
}

#[test]
#[ignore]
fn probe_dispatch_counts() {
    let workload = "aba_mixed3";
    let mode = PruneMode::SourceDpor;
    for procs in [1usize, 2, 4] {
        let dist = distributed(workload, mode, patient_fleet(workload, mode, procs));
        eprintln!("procs={procs} fleet={:?}", dist.fleet);
    }
}
