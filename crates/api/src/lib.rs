//! **sl-api** — the unified object API of the workspace.
//!
//! Three things, designed together:
//!
//! 1. **Typed guarantee levels.** Every object declares [`Lin`] or
//!    [`Strong`] as an associated type of [`SharedObject`], so the
//!    paper's central distinction — linearizable versus *strongly*
//!    linearizable — is visible to the compiler. A harness that is only
//!    sound against a strong adversary bounds on
//!    `Guarantee = Strong`, and handing it Algorithm 1 (linearizable
//!    only, Observation 4) is a compile error, not a silent bias.
//!
//! 2. **One handle model.** Every object — snapshot substrates,
//!    ABA-detecting registers, Algorithms 3/4, §4.5 derived objects,
//!    the §5 universal construction — is operated through per-process
//!    handles ([`SharedObject::handle`]) with family-specific operation
//!    traits ([`SnapshotOps`], [`AbaOps`], [`CounterOps`],
//!    [`MaxRegisterOps`], [`UniversalOps`]). At most one live handle
//!    per process per object, enforced by a debug-mode
//!    duplicate-handle panic. Scans return a typed [`View`] that
//!    carries the version where the substrate provides one (§4.1).
//!
//! 3. **One builder.** [`ObjectBuilder`] selects the object family,
//!    the substrate (double-collect, Afek, bounded §4.3, versioned
//!    §4.1, atomic-`R`), and the backend (`NativeMem`, `SimMem`, any
//!    `Mem`) fluently; the substrate lives in the builder's type, so
//!    the built object's guarantee is static.
//!
//! ```
//! use sl_api::{AbaOps, ObjectBuilder, SharedObject, Strong};
//! use sl_mem::{Mem, NativeMem};
//! use sl_spec::ProcId;
//!
//! // A randomized algorithm that is only correct against a strong
//! // adaptive adversary demands strong linearizability *in its type*.
//! fn coin_flip_consensus<M, O>(reg: &O)
//! where
//!     M: Mem,
//!     O: SharedObject<M, Guarantee = Strong>,
//!     O::Handle: AbaOps<u64>,
//! {
//!     let mut h = reg.handle(ProcId(0));
//!     h.dwrite(1);
//!     assert_eq!(h.dread().0, Some(1));
//! }
//!
//! let mem = NativeMem::new();
//! let builder = ObjectBuilder::on(&mem).processes(2);
//! coin_flip_consensus(&builder.aba_register::<u64>()); // Algorithm 2: ok
//! // coin_flip_consensus(&builder.lin_aba_register::<u64>());
//! // ^ Algorithm 1: compile error — `Lin` is not `Strong`.
//! ```
//!
//! # Distributed exploration
//!
//! [`sim::explore_object_dag_distributed`] runs the same schedule
//! exploration across a fleet of **worker processes**: delegated
//! subtree tasks are frozen, shipped over a length-prefixed,
//! checksummed frame protocol (`sl-dist`), explored remotely, and the
//! returned DAG shards merged — with runs/cut/pruned telemetry,
//! verdict, conflict depth, and the merged [`sl_check::TreeDag`]
//! structural hash **bit-identical to a sequential run at any worker
//! count**, including under SIGKILL of random workers mid-lease. The
//! worker side of the pipe is [`sim::serve_object_worker`]; both sides
//! must resolve the pinned workload name through one shared registry
//! (`sl-bench`'s `workloads` module is the exemplar), or schedules
//! would silently diverge.
//!
//! Failure handling is lease-based; the lease lifecycle is drawn once,
//! in [`sl_dist::coordinator`]'s module docs. A revoked lease hands its
//! reason back to the engine, which retries and quarantines it on the
//! one failure path it uses for a panicking subtree: a task that fails
//! every retry is quarantined into a `PoisonReport`, so the outcome is
//! reported **partial** — a fleet failure can cost coverage, never a
//! verdict. When no worker can be spawned at all (missing binary, exec
//! failure), every dispatch is declined and the run degrades gracefully
//! to plain in-process exploration, still bit-identical. The worker
//! command and environment, fleet size, heartbeat cadence, lease
//! deadline and a fault-matrix kill hook are the
//! [`sl_dist::FleetConfig`] knobs. Dispatch, completion and revocation
//! counts come back as [`sl_dist::FleetStats`]; retries and quarantines
//! are counted once, in the outcome's `retried` and `quarantined`.

#![deny(unsafe_code)]

mod builder;
pub mod fuzz;
mod guarantee;
pub mod harness;
mod impls;
mod lin;
mod object;
pub mod sim;
mod view;

pub use builder::{
    Afek, AtomicR, BoundedHandshake, DoubleCollect, ObjectBuilder, Substrate, Versioned,
};
pub use guarantee::{Guarantee, Lin, Strong, StrongGuarantee};
pub use impls::{AfekSlSnapshot, AtomicRSlSnapshot, FullyBoundedSlSnapshot};
pub use lin::{LinSnap, LinSnapHandle};
pub use object::{
    AbaOps, CounterOps, MaxRegisterOps, ObjectHandle, SharedObject, SnapshotOps, UniversalOps,
    VersionedSnapshotOps,
};
pub use view::View;
