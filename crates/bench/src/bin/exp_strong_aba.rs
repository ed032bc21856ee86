//! Experiment E2 — Theorem 12 via bounded exhaustive model checking.
//!
//! Exhaustively enumerates all adversary schedules of small Algorithm-2
//! workloads on the unpruned oracle, merges the recorded transcripts
//! into a hash-consed transcript DAG, and searches for a strong
//! linearization function. Budget-capped rows print `partial`.

use sl_api::sim::{explore_object_dag, DriveOps, SimExplore};
use sl_api::SharedObject;
use sl_bench::{print_table, verdict_cell};
use sl_core::aba::{AwAbaRegister, SlAbaRegister};
use sl_sim::{PruneMode, SimMem};
use sl_spec::types::AbaSpec;
use sl_spec::AbaOp;

type Spec = AbaSpec<u64>;

/// Explores all schedules of `writers`×`w_ops` DWrites and
/// `readers`×`r_ops` DReads on the unpruned oracle; returns
/// (schedules, exhausted, verdict cell, checker states).
fn check<O, F>(
    make: F,
    writers: usize,
    w_ops: u64,
    readers: usize,
    r_ops: u64,
    max_runs: usize,
) -> (usize, bool, String, u64)
where
    O: SharedObject<SimMem>,
    O::Handle: DriveOps<Spec>,
    F: Fn(&SimMem, usize) -> O + Sync,
{
    let n = writers + readers;
    let ops: Vec<Vec<AbaOp<u64>>> = (0..n)
        .map(|pid| {
            if pid < writers {
                (0..w_ops).map(AbaOp::DWrite).collect()
            } else {
                vec![AbaOp::DRead; r_ops as usize]
            }
        })
        .collect();
    let cfg = SimExplore {
        max_runs,
        mode: PruneMode::Unpruned,
        workers: 1,
        step_budget: 400,
        ..SimExplore::default()
    };
    let explored = explore_object_dag::<Spec, _, _>(|mem| make(mem, n), &ops, &cfg);
    let report = explored.check_strong(&Spec::new(n));
    (
        explored.outcome.runs,
        explored.outcome.exhausted,
        verdict_cell(&explored.outcome, report.holds),
        report.states_explored,
    )
}

fn main() {
    println!("# E2 — Theorem 12: bounded exhaustive strong-linearizability checks\n");
    let mut rows = Vec::new();
    for (label, writers, w_ops, readers, r_ops, max_runs) in [
        ("1 DWrite + 1 DRead", 1usize, 1u64, 1usize, 1u64, 50_000),
        ("2 DWrites + 1 DRead", 1, 2, 1, 1, 50_000),
        ("1 DWrite + 2 DReads", 1, 1, 1, 2, 50_000),
        ("1+1 DWrites + 1 DRead (3 procs)", 2, 1, 1, 1, 20_000),
    ] {
        let (runs, exhausted, holds, states) = check(
            SlAbaRegister::<u64, _>::new,
            writers,
            w_ops,
            readers,
            r_ops,
            max_runs,
        );
        rows.push(vec![
            format!("Algorithm 2: {label}"),
            runs.to_string(),
            exhausted.to_string(),
            holds,
            states.to_string(),
        ]);
    }
    // Contrast: Algorithm 1 passes tiny workloads too (the violation
    // needs sequence-number reuse, i.e. ≥ n+2 writes) — include one row
    // to show the bounded check is not trivially failing everything.
    let (runs, exhausted, holds, states) = check(AwAbaRegister::<u64, _>::new, 1, 1, 1, 1, 50_000);
    rows.push(vec![
        "Algorithm 1: 1 DWrite + 1 DRead".into(),
        runs.to_string(),
        exhausted.to_string(),
        holds,
        states.to_string(),
    ]);
    print_table(
        &[
            "workload",
            "schedules",
            "exhausted",
            "strongly linearizable",
            "checker states",
        ],
        &rows,
    );
    println!(
        "\nPaper expectation: every Algorithm 2 row holds. (Algorithm 1 also
holds on tiny workloads — its violation requires sequence-number reuse,
which is exactly the Observation 4 family regenerated by exp_obs4.)
A `partial` row found no violation in its budget-capped prefix; that is
no verdict."
    );
}
