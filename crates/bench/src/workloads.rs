//! The pinned Algorithm-2 workloads, spelled once as op lists.
//!
//! [`dist_ops`] maps a workload name to one op vector per process. The
//! throughput experiment replays these op lists through
//! `sl_api::sim::PooledWorld`; the distributed worker binary, the
//! bit-identity suites and the time-to-verdict benchmark resolve the
//! same names. The name also travels in the fleet's `hello`/`task`
//! frames, and the coordinator and every worker process resolve it,
//! with [`dist_mode`] and [`dist_config`], through this one table, so
//! both sides replay byte-identical schedules: any drift in ops, prune
//! mode, or step budget between processes would silently break the
//! bit-identical-failover contract, which is why the knobs are
//! centralised here rather than duplicated in each binary.

use sl_api::sim::SimExplore;
use sl_sim::PruneMode;
use sl_spec::types::AbaSpec;
use sl_spec::AbaOp;

/// The sequential specification every workload here checks against.
pub type ASpec = AbaSpec<u64>;

/// The op-level workload behind a fleet workload name: one op vector
/// per process. `None` for names no build knows — the caller must
/// refuse, not guess (a coordinator and worker disagreeing on the
/// workload would merge shards from different schedule trees).
pub fn dist_ops(name: &str) -> Option<Vec<Vec<AbaOp<u64>>>> {
    match name {
        "aba_1w1r" => Some(vec![vec![AbaOp::DWrite(9)], vec![AbaOp::DRead]]),
        "aba_2w2r" => Some(vec![
            vec![AbaOp::DWrite(9), AbaOp::DWrite(10)],
            vec![AbaOp::DRead, AbaOp::DRead],
        ]),
        "aba_mixed3" => Some(vec![
            vec![AbaOp::DWrite(9)],
            vec![AbaOp::DWrite(19)],
            vec![AbaOp::DRead],
        ]),
        "aba_mixed3_deep" => Some(vec![
            vec![AbaOp::DWrite(9), AbaOp::DWrite(10)],
            vec![AbaOp::DWrite(19)],
            vec![AbaOp::DRead],
        ]),
        _ => None,
    }
}

/// Parses the prune-mode name that travels in `hello` frames
/// ([`PruneMode::name`] round trip). Every mode runs on the dispatched
/// task engine; a certificate cannot travel by name, so the fleet's
/// workloads explore without one.
pub fn dist_mode(name: &str) -> Option<PruneMode> {
    [
        PruneMode::Unpruned,
        PruneMode::SourceDpor,
        PruneMode::OptimalDpor,
    ]
    .into_iter()
    .find(|mode| mode.name() == name)
}

/// The exploration budget both sides of the pipe must share. A worker
/// with a different `step_budget` (or `max_runs` cap) than the
/// coordinator would explore a *different* subtree for the same frozen
/// task — bit-identity requires this function to be the single source
/// of truth.
pub fn dist_config(mode: PruneMode, workers: usize) -> SimExplore {
    SimExplore {
        max_runs: 4_000_000,
        mode,
        workers,
        step_budget: 2_000,
        stem: Vec::new(),
        statics: None,
    }
}
