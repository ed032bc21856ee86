//! Shared infrastructure for the experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one experiment of
//! `EXPERIMENTS.md` (run them with
//! `cargo run --release -p sl-bench --bin <name>`):
//!
//! | Binary | Claim |
//! |--------|-------|
//! | `exp_obs4` | Observation 4: Algorithm 1 is not strongly linearizable; Algorithm 2 is, on the same family |
//! | `exp_strong_aba` | Theorem 12 via bounded exhaustive model checking |
//! | `exp_aba_complexity` | Theorem 14: `DWrite ≤ 2` steps; `DRead` total `O(min(r,n)·w + r)` |
//! | `exp_lockfree` | Theorem 1 is lock-free but not wait-free |
//! | `exp_strong_snapshot` | Theorem 25 via bounded exhaustive model checking |
//! | `exp_snapshot_complexity` | Theorem 32: `SLupdate` op counts; `SLscan` total `O(s + n³u)`; contention-free fast path |
//! | `exp_universal` | Theorems 54/3: universal construction checks |
//! | `exp_adversary_bias` | §1 motivation: a strong adversary makes Algorithm 1's ABA flag lie; it cannot with Algorithm 2 |
//! | `exp_space` | §4.1 vs §4.3: unbounded versioned construction vs bounded Algorithm 3 space |
//! | `exp_sim_throughput` | Step-VM steps/sec vs the legacy thread-handoff engine, per recording configuration |

#![deny(unsafe_code)]

pub mod baseline;
pub mod obs4;
pub mod table;
pub mod timing;
pub mod trace;
pub mod workloads;

pub use baseline::{Baseline, Gate};
pub use obs4::{obs4_scripts, run_obs4_family, FamilyRun};
pub use table::{print_table, verdict_cell};
pub use timing::{bench, time_ns_per_op};
pub use trace::steps_per_op;
