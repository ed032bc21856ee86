//! The fleet worker binary: serves frozen subtree tasks over
//! stdin/stdout for `sl-dist`'s lease-based coordinator.
//!
//! ```text
//! dist_worker --workload NAME --mode MODE
//! ```
//!
//! `NAME` and `MODE` are resolved through the shared registry in
//! [`sl_bench::workloads`] — the same table the coordinator side uses —
//! so both processes replay byte-identical schedules for a task. An
//! unknown name or mode is refused with exit code 2 before the `hello`
//! frame; the coordinator sees the dead pipe and degrades or requeues.
//!
//! Fault injection (`SL_FAULT_POINT`/`SL_FAULT_NTH`) and the per-task
//! stall (`SL_DIST_TASK_STALL_MS`) are read from the environment by the
//! serve loop itself — the coordinator plants them via `FleetConfig::env`
//! in the fault-matrix tests.

use sl_api::sim::{serve_object_worker, DriveOps as _};
use sl_api::ObjectBuilder;
use sl_bench::workloads::{dist_config, dist_ops, ASpec};
use sl_sim::PruneMode;

fn main() {
    let mut workload: Option<String> = None;
    let mut mode: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => workload = args.next(),
            "--mode" => mode = args.next(),
            other => {
                eprintln!("dist_worker: unknown argument {other:?}");
                std::process::exit(2);
            }
        }
    }
    let (Some(workload), Some(mode_name)) = (workload, mode) else {
        eprintln!("usage: dist_worker --workload NAME --mode MODE");
        std::process::exit(2);
    };
    let Some(ops) = dist_ops(&workload) else {
        eprintln!("dist_worker: unknown workload {workload:?}");
        std::process::exit(2);
    };
    let Some(mode) = PruneMode::from_name(&mode_name) else {
        eprintln!("dist_worker: unknown prune mode {mode_name:?}");
        std::process::exit(2);
    };
    let n = ops.len();
    let cfg = dist_config(mode, 1);
    let run = serve_object_worker::<ASpec, _, _, _>(
        &workload,
        move |mem| ObjectBuilder::on(mem).processes(n).aba_register::<u64>(),
        &ops,
        |h, op| h.drive(op),
        &cfg,
    );
    if let Err(e) = run {
        eprintln!("dist_worker: {e}");
        std::process::exit(1);
    }
}
