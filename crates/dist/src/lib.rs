//! Multi-process distributed exploration: a lease-based worker fleet
//! with heartbeats, revocation, and bit-identical failover.
//!
//! The exploration engine in `sl-sim` publishes frozen subtree tasks;
//! this crate farms them to worker *processes* over length-prefixed,
//! checksummed frames on stdin/stdout pipes — no sockets, no added
//! dependencies. The contract is the one that makes distribution
//! trustworthy: for any worker-process count, and under any fault in
//! the matrix (SIGKILL mid-subtree, torn result frame, silenced
//! heartbeats, spawn failure), the merged run is **bit-identical** to
//! the sequential one — same verdict, same conflict depth, same
//! runs/cut/pruned counters, same merged-DAG structural hash — or it is
//! honestly `partial` via the quarantine path. Never a false PASS.
//!
//! The crate splits along the process boundary:
//!
//! - [`frames`] — the wire format: canonical-JSON frames (`hello`,
//!   `task`, `heartbeat`, `result`, `shutdown`) sealed with an FNV-1a
//!   checksum, length-prefixed on the pipe, every malformation a named
//!   rejection.
//! - [`codec`] — process-portable DAG shards: packed step codes never
//!   cross the boundary; shards travel symbolized, keyed by
//!   site-qualified wire labels, and merge on the coordinator exactly
//!   as in-process shards do.
//! - [`worker`] — the serve loop a worker binary runs: hello,
//!   explore-per-task, heartbeat ticker, fault-injection hooks.
//! - [`coordinator`] — the lease table: checkout/spawn, deadline
//!   renewal by heartbeat, revocation on any breach (its reason goes
//!   back to the engine, which backs off, retries and quarantines a
//!   revoked lease as it does a panicking subtree), and graceful
//!   degradation to in-process exploration when no worker can be
//!   spawned.

pub mod codec;
pub mod coordinator;
pub mod frames;
pub mod worker;

pub use codec::{decode_dag, encode_dag, WireSpec};
pub use coordinator::{DistCoordinator, FleetConfig, FleetStats};
pub use frames::{read_frame, write_frame, Frame, FRAME_VERSION, MAX_FRAME_BYTES};
pub use worker::{heartbeat_interval, serve, task_stall, HEARTBEAT_ENV, TASK_STALL_ENV};
