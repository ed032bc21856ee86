//! Harness entry points: drive a [`SharedObject`] through a workload
//! and round-trip the recorded history through the `sl-check`
//! decision procedures.
//!
//! These are the checker-facing entry points consumer code should use
//! (the raw `sl_check` functions remain available for histories
//! produced elsewhere, e.g. by the simulator's `EventLog`). Each runner
//! operates the object exclusively through unified handles, so the same
//! code exercises every family × substrate × backend combination — the
//! builder matrix test is built on this module.

use sl_check::check_linearizable;
use sl_mem::{Mem, Value};
use sl_spec::types::SnapshotSpec;
use sl_spec::{History, ProcId, SeqSpec, SnapshotOp, SnapshotResp};

use crate::object::{CounterOps, MaxRegisterOps, SharedObject, SnapshotOps};

/// One step of a single-threaded (but cross-handle interleaved)
/// snapshot workload.
#[derive(Clone, Debug)]
pub enum SnapStep<V> {
    /// Process `p` updates its component.
    Update(ProcId, V),
    /// Process `p` scans.
    Scan(ProcId),
}

/// Runs a snapshot workload through per-process handles and records the
/// resulting history against the paper's snapshot specification.
///
/// Operations are executed one at a time (each completes before the
/// next is invoked), so the recorded history is sequential — the
/// round-trip check then verifies the *object's responses* are
/// consistent with the sequential specification.
pub fn record_snapshot_history<V, M, O>(
    obj: &O,
    n: usize,
    script: &[SnapStep<V>],
) -> History<SnapshotSpec<V>>
where
    V: Value + Eq + std::hash::Hash,
    M: Mem,
    O: SharedObject<M>,
    O::Handle: SnapshotOps<V>,
{
    let mut handles: Vec<O::Handle> = ProcId::all(n).map(|p| obj.handle(p)).collect();
    let mut h = History::new();
    for step in script {
        match step {
            SnapStep::Update(p, v) => {
                let id = h.invoke(*p, SnapshotOp::Update(v.clone()));
                handles[p.index()].update(v.clone());
                h.respond(id, SnapshotResp::Ack);
            }
            SnapStep::Scan(p) => {
                let id = h.invoke(*p, SnapshotOp::Scan);
                let view = handles[p.index()].scan();
                h.respond(id, SnapshotResp::View(view.into_vec()));
            }
        }
    }
    h
}

/// Runs a snapshot workload and checks the recorded history for
/// linearizability. Returns `true` iff the object's behaviour is
/// consistent with `SnapshotSpec`.
pub fn roundtrip_snapshot<V, M, O>(obj: &O, n: usize, script: &[SnapStep<V>]) -> bool
where
    V: Value + Eq + std::hash::Hash,
    M: Mem,
    O: SharedObject<M>,
    O::Handle: SnapshotOps<V>,
{
    let h = record_snapshot_history::<V, M, O>(obj, n, script);
    check_linearizable(&SnapshotSpec::<V>::new(n), &h).is_some()
}

/// One step of a counter workload.
#[derive(Clone, Copy, Debug)]
pub enum CounterStep {
    /// Process `p` increments.
    Inc(ProcId),
    /// Process `p` reads.
    Read(ProcId),
}

/// Runs a counter workload through per-process handles; returns `true`
/// iff every read equals the number of increments completed before it
/// (the sequential counter specification).
pub fn roundtrip_counter<M, O>(obj: &O, n: usize, script: &[CounterStep]) -> bool
where
    M: Mem,
    O: SharedObject<M>,
    O::Handle: CounterOps,
{
    let mut handles: Vec<O::Handle> = ProcId::all(n).map(|p| obj.handle(p)).collect();
    let mut total = 0u64;
    for step in script {
        match step {
            CounterStep::Inc(p) => {
                handles[p.index()].inc();
                total += 1;
            }
            CounterStep::Read(p) => {
                if handles[p.index()].read() != total {
                    return false;
                }
            }
        }
    }
    true
}

/// One step of a max-register workload.
#[derive(Clone, Copy, Debug)]
pub enum MaxStep {
    /// Process `p` raises the maximum to the value.
    Write(ProcId, u64),
    /// Process `p` reads the maximum.
    Read(ProcId),
}

/// Runs a max-register workload through per-process handles; returns
/// `true` iff every read equals the reference maximum.
pub fn roundtrip_max_register<M, O>(obj: &O, n: usize, script: &[MaxStep]) -> bool
where
    M: Mem,
    O: SharedObject<M>,
    O::Handle: MaxRegisterOps,
{
    let mut handles: Vec<O::Handle> = ProcId::all(n).map(|p| obj.handle(p)).collect();
    let mut reference = 0u64;
    for step in script {
        match step {
            MaxStep::Write(p, v) => {
                handles[p.index()].max_write(*v);
                reference = reference.max(*v);
            }
            MaxStep::Read(p) => {
                if handles[p.index()].max_read() != reference {
                    return false;
                }
            }
        }
    }
    true
}

/// Checks a recorded history for linearizability (thin wrapper over
/// `sl_check`, re-exported here so harness users have one import).
pub fn linearizable<S: SeqSpec>(spec: &S, history: &History<S>) -> bool {
    check_linearizable(spec, history).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObjectBuilder;
    use sl_mem::NativeMem;

    #[test]
    fn snapshot_roundtrip_accepts_correct_object() {
        let mem = NativeMem::new();
        let snap = ObjectBuilder::on(&mem).processes(2).snapshot::<u64>();
        let script = vec![
            SnapStep::Update(ProcId(0), 1),
            SnapStep::Scan(ProcId(1)),
            SnapStep::Update(ProcId(1), 2),
            SnapStep::Scan(ProcId(0)),
        ];
        assert!(roundtrip_snapshot::<u64, NativeMem, _>(&snap, 2, &script));
    }

    #[test]
    fn counter_and_max_register_roundtrips() {
        let mem = NativeMem::new();
        let b = ObjectBuilder::on(&mem).processes(2);
        assert!(roundtrip_counter(
            &b.counter(),
            2,
            &[
                CounterStep::Inc(ProcId(0)),
                CounterStep::Read(ProcId(1)),
                CounterStep::Inc(ProcId(1)),
                CounterStep::Read(ProcId(0)),
            ],
        ));
        assert!(roundtrip_max_register(
            &b.max_register(),
            2,
            &[
                MaxStep::Write(ProcId(0), 5),
                MaxStep::Read(ProcId(1)),
                MaxStep::Write(ProcId(1), 3),
                MaxStep::Read(ProcId(0)),
            ],
        ));
    }
}
