//! Max-registers (§4.1 of the paper).
//!
//! * [`BoundedMaxRegister`] — the Aspnes–Attiya–Censor binary-trie
//!   max-register over boolean registers, wait-free and linearizable.
//!   **Checker-discovered caveat:** the naive traversals are *not*
//!   strongly linearizable — our model checker automatically exhibits
//!   Observation-4-style retroactive-ordering violations for the
//!   top-down read, the left-before-switch read, *and* a clean
//!   double-collect read (see `tests/model_check_extras.rs`). This
//!   explains why the Helmi–Higham–Woelfel wait-free strongly
//!   linearizable bounded max-register (paper reference [12]) is a
//!   nontrivial result; the strongly linearizable max-register this
//!   repository provides is [`crate::SnapshotMaxRegister`], the paper's
//!   own §4.5 route through the strongly linearizable snapshot.
//! * [`UnaryMaxRegister`] — a lock-free *unbounded* max-register with an
//!   attached payload per value, the building block of the
//!   Denysyuk–Woelfel versioned-object construction
//!   ([`crate::VersionedSlSnapshot`]). Its space grows with the largest
//!   value ever written — the unbounded-space cost that the paper's
//!   Theorem 2 eliminates.

use sl_mem::{HandleGuard, HandleLease, Mem, Register, RmwCell, Value};
use sl_spec::ProcId;
use std::sync::{Arc, RwLock};

/// The growable array of payload registers backing a
/// [`UnaryMaxRegister`], tagged with the [`Mem::epoch`] it was grown
/// under. A replay-capable backend bumps its epoch when it invalidates
/// in-run allocations (the simulator's world reset); the cached handles
/// then point at registers the reset no longer restores, so the cache
/// must be dropped and regrown — otherwise a replayed schedule reads
/// values a *previous* schedule wrote (observed as cross-execution
/// `preceding` edges cycling the universal construction's precedence
/// graph).
struct CellArray<P: Value, M: Mem> {
    epoch: u64,
    regs: Vec<M::Reg<Option<P>>>,
}

/// The Aspnes–Attiya–Censor bounded max-register.
///
/// A balanced binary trie over boolean *switch* registers: values in
/// `[0, capacity)` correspond to leaves; `max_write(v)` descends towards
/// `v`, recursing right then setting the switch, or recursing left only
/// while the switch is unset; `max_read` follows set switches right.
/// Wait-free and linearizable — but **not strongly linearizable** (the
/// model checker exhibits the violation; see the module docs). Use
/// [`crate::SnapshotMaxRegister`] when strong linearizability is
/// required.
pub struct BoundedMaxRegister<M: Mem> {
    root: Node<M>,
    capacity: u64,
    guard: HandleGuard,
}

enum Node<M: Mem> {
    Leaf,
    Inner {
        switch: M::Reg<bool>,
        left: Box<Node<M>>,
        right: Box<Node<M>>,
        half: u64,
    },
}

impl<M: Mem> Clone for Node<M> {
    fn clone(&self) -> Self {
        match self {
            Node::Leaf => Node::Leaf,
            Node::Inner {
                switch,
                left,
                right,
                half,
            } => Node::Inner {
                switch: switch.clone(),
                left: left.clone(),
                right: right.clone(),
                half: *half,
            },
        }
    }
}

impl<M: Mem> Clone for BoundedMaxRegister<M> {
    fn clone(&self) -> Self {
        BoundedMaxRegister {
            root: self.root.clone(),
            capacity: self.capacity,
            guard: self.guard.clone(),
        }
    }
}

impl<M: Mem> std::fmt::Debug for BoundedMaxRegister<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BoundedMaxRegister(capacity={})", self.capacity)
    }
}

impl<M: Mem> Node<M> {
    fn build(mem: &M, capacity: u64, path: &str) -> Node<M> {
        if capacity <= 1 {
            return Node::Leaf;
        }
        let half = capacity / 2;
        Node::Inner {
            switch: mem.alloc(&format!("max.sw[{path}]"), false),
            left: Box::new(Node::build(mem, half, &format!("{path}0"))),
            right: Box::new(Node::build(mem, capacity - half, &format!("{path}1"))),
            half,
        }
    }

    fn write(&self, v: u64) {
        match self {
            Node::Leaf => {}
            Node::Inner {
                switch,
                left,
                right,
                half,
            } => {
                if v >= *half {
                    right.write(v - half);
                    switch.write(true);
                } else if !switch.read() {
                    left.write(v);
                }
            }
        }
    }

    /// Reads every switch in a fixed depth-first order into `out`.
    fn collect(&self, out: &mut Vec<bool>) {
        if let Node::Inner {
            switch,
            left,
            right,
            ..
        } = self
        {
            out.push(switch.read());
            left.collect(out);
            right.collect(out);
        }
    }

    /// The maximum encoded by a switch pattern collected by
    /// [`Node::collect`], consuming the pattern via `it`.
    fn decode(&self, it: &mut std::slice::Iter<'_, bool>) -> u64 {
        match self {
            Node::Leaf => 0,
            Node::Inner {
                left, right, half, ..
            } => {
                let sw = *it.next().expect("pattern length matches tree");
                let left_value = left.decode(it);
                // Both subtrees were collected; recurse through the
                // iterator for the right too, even when unused.
                let right_value = right.decode(it);
                if sw {
                    half + right_value
                } else {
                    left_value
                }
            }
        }
    }

    /// The original Aspnes–Attiya–Censor top-down read: switch first,
    /// then descend. Linearizable, but **not** strongly linearizable —
    /// after reading an unset switch the reader is committed to the left
    /// subtree while its value there is still undetermined, so a strong
    /// adversary can complete a larger write and then retroactively
    /// steer the reader (found automatically by the model checker; see
    /// `tests/model_check_extras.rs`).
    fn read_top_down(&self) -> u64 {
        match self {
            Node::Leaf => 0,
            Node::Inner {
                switch,
                left,
                right,
                half,
            } => {
                if switch.read() {
                    half + right.read_top_down()
                } else {
                    left.read_top_down()
                }
            }
        }
    }
}

impl<M: Mem> BoundedMaxRegister<M> {
    /// Creates a max-register for values in `[0, capacity)`, allocating
    /// `capacity - 1` boolean switch registers from `mem`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(mem: &M, capacity: u64) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        BoundedMaxRegister {
            root: Node::build(mem, capacity, ""),
            capacity,
            guard: HandleGuard::new(),
        }
    }

    /// The exclusive upper bound on writable values.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// `maxWrite(v)`: raises the stored maximum to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= capacity`.
    pub fn max_write(&self, v: u64) {
        assert!(v < self.capacity, "value {v} out of range");
        self.root.write(v);
    }

    /// `maxRead()`: returns the largest value written so far (0 if none).
    ///
    /// The standard Aspnes–Attiya–Censor top-down descent. Linearizable
    /// and wait-free (`O(log capacity)` reads), but not strongly
    /// linearizable — see the module docs and
    /// [`BoundedMaxRegister::max_read_double_collect`].
    ///
    /// It is also the explorer's response-gap counterexample: with
    /// capacity 4 and MaxWrite(1) ∥ MaxWrite(3) ∥ MaxRead, the unpruned
    /// oracle refutes it at conflict depth 15 while both reductions
    /// pass, because the read's response rides on a data step (see the
    /// `sl_sim` explore module docs and `crates/api/tests/unpruned_oracle.rs`).
    pub fn max_read(&self) -> u64 {
        self.root.read_top_down()
    }

    /// A clean-double-collect read: repeats full collects of the switch
    /// pattern until two consecutive collects agree, then decodes.
    /// Wait-free (`≤ capacity` retries, since switches are monotone) and
    /// linearizable — the decoded value held at the instant *between*
    /// the two equal collects. Still **not strongly linearizable**: the
    /// response only becomes determined at the end of the second
    /// collect, by which time writes may have completed that the
    /// operation would have to be retroactively ordered before — the
    /// model checker exhibits exactly this (see
    /// `tests/model_check_extras.rs`). Kept as an experimentally
    /// interesting ablation: it shows the failure is not about read
    /// order but about *late determination*, the same phenomenon
    /// Observation 4 identifies in Algorithm 1.
    pub fn max_read_double_collect(&self) -> u64 {
        let mut previous: Option<Vec<bool>> = None;
        loop {
            let mut pattern = Vec::new();
            self.root.collect(&mut pattern);
            if previous.as_ref() == Some(&pattern) {
                return self.root.decode(&mut pattern.iter());
            }
            previous = Some(pattern);
        }
    }

    /// Creates process `p`'s handle — the unified `sl-api` access path.
    ///
    /// The direct `max_write`/`max_read` methods remain as the low-level
    /// interface (the trie is multi-writer, so they are safe to share),
    /// but handle-based access keeps this object uniform with the rest
    /// of the workspace and participates in the duplicate-handle guard.
    pub fn handle(&self, p: ProcId) -> BoundedMaxRegisterHandle<M> {
        BoundedMaxRegisterHandle {
            reg: BoundedMaxRegister {
                root: self.root.clone(),
                capacity: self.capacity,
                guard: self.guard.clone(),
            },
            p,
            _lease: self.guard.acquire(p),
        }
    }
}

/// Process-local handle of [`BoundedMaxRegister`].
pub struct BoundedMaxRegisterHandle<M: Mem> {
    reg: BoundedMaxRegister<M>,
    p: ProcId,
    _lease: HandleLease,
}

impl<M: Mem> BoundedMaxRegisterHandle<M> {
    /// `maxWrite(v)`: raises the stored maximum to `v`.
    pub fn max_write(&mut self, v: u64) {
        self.reg.max_write(v);
    }

    /// `maxRead()`: the largest value written so far (0 if none).
    pub fn max_read(&mut self) -> u64 {
        self.reg.max_read()
    }

    /// The process this handle belongs to.
    pub fn proc(&self) -> ProcId {
        self.p
    }
}

/// A lock-free unbounded max-register with payloads — the *augmented*
/// max-register of the Denysyuk–Woelfel construction (§4.1), which
/// stores a pair `(x, y)` and replaces it on `maxWrite(x', y')` only if
/// `x' > x`.
///
/// One register per value, grown on demand (the model is a static
/// infinite array; allocating a register is bookkeeping, not a
/// shared-memory step). How far the array reaches is *announced* in a
/// shared length cell: `max_write(v, y)` raises it to `v + 1` (one
/// atomic read-modify-write step) and then writes register `v` (one
/// step), and every collect of `max_read` reads the length before the
/// registers below it. A read's steps therefore depend on other
/// processes only through declared accesses — the schedule explorer's
/// partial-order reduction assumes exactly that, and a read sized by
/// the allocation itself would change its step count on an undeclared
/// allocation. Space grows linearly with the largest value written:
/// [`UnaryMaxRegister::allocated_cells`] measures exactly the
/// unbounded-space behaviour of §4.1 (experiment `exp_space`).
pub struct UnaryMaxRegister<P: Value, M: Mem> {
    mem: M,
    name: Arc<String>,
    cells: Arc<RwLock<CellArray<P, M>>>,
    /// The announced array length: registers below it are allocated.
    len: M::Cell<u64>,
}

impl<P: Value, M: Mem> Clone for UnaryMaxRegister<P, M> {
    fn clone(&self) -> Self {
        UnaryMaxRegister {
            mem: self.mem.clone(),
            name: Arc::clone(&self.name),
            cells: Arc::clone(&self.cells),
            len: self.len.clone(),
        }
    }
}

impl<P: Value, M: Mem> std::fmt::Debug for UnaryMaxRegister<P, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "UnaryMaxRegister({} cells)",
            self.cells.read().unwrap().regs.len()
        )
    }
}

impl<P: Value, M: Mem> UnaryMaxRegister<P, M> {
    /// Creates an empty unbounded max-register.
    pub fn new(mem: &M, name: &str) -> Self {
        UnaryMaxRegister {
            mem: mem.clone(),
            name: Arc::new(name.to_string()),
            cells: Arc::new(RwLock::new(CellArray {
                epoch: mem.epoch(),
                regs: Vec::new(),
            })),
            len: mem.alloc_cell(&format!("{name}.len"), 0),
        }
    }

    /// Drops the cached register handles when the backend has
    /// invalidated in-run allocations since the cache was grown (see
    /// [`CellArray`]); must be called with the write lock held before
    /// any use of `cells.regs`.
    fn sync_epoch(&self, cells: &mut CellArray<P, M>) {
        let now = self.mem.epoch();
        if cells.epoch != now {
            cells.epoch = now;
            cells.regs.clear();
        }
    }

    fn ensure(&self, len: usize) {
        let mut cells = self.cells.write().unwrap();
        self.sync_epoch(&mut cells);
        while cells.regs.len() < len {
            let i = cells.regs.len();
            cells
                .regs
                .push(self.mem.alloc(&format!("{}[{i}]", self.name), None));
        }
    }

    /// `maxWrite(v, payload)`: records that value `v` (with `payload`)
    /// was reached. Two shared-memory steps: announce the length, then
    /// write register `v`.
    pub fn max_write(&self, v: u64, payload: P) {
        self.ensure(v as usize + 1);
        self.len.update(|&len| len.max(v + 1));
        let reg = self.cells.read().unwrap().regs[v as usize].clone();
        reg.write(Some(payload));
    }

    /// `maxRead()`: returns the largest recorded value and its payload,
    /// or `(0, None)` if nothing was written.
    ///
    /// Repeats full low-to-high collects — of the registers below the
    /// length announced at the start of each attempt — until two
    /// consecutive collects agree: a *clean double collect*. The response is then determined at the
    /// read's final step and reflects every `max_write` completed before
    /// it, which is what strong linearizability's prefix-preservation
    /// requires (single-pass scans in either direction fail it: the
    /// model checker exhibits Observation-4-style retroactive-ordering
    /// conflicts; see `tests/model_check_extras.rs`). Payload rewrites
    /// are unbounded, so — unlike the bounded switch trie — the retry
    /// loop makes this read only **lock-free**, matching the
    /// lock-freedom of the §4.1 construction that uses it. Writes
    /// completed before a collect began are always covered: `max_write(v)`
    /// announces register `v` before writing it.
    pub fn max_read(&self) -> (u64, Option<P>) {
        let mut previous: Option<Vec<Option<P>>> = None;
        loop {
            let len = self.len.read() as usize;
            let regs: Vec<M::Reg<Option<P>>> = {
                self.ensure(len);
                self.cells.read().unwrap().regs[..len].to_vec()
            };
            let collected: Vec<Option<P>> = regs.iter().map(|r| r.read()).collect();
            if let Some(prev) = &previous {
                if *prev == collected {
                    let mut best: (u64, Option<P>) = (0, None);
                    for (i, p) in collected.into_iter().enumerate() {
                        if p.is_some() {
                            best = (i as u64, p);
                        }
                    }
                    return best;
                }
            }
            previous = Some(collected);
        }
    }

    /// Pre-allocates registers for values `< len` without writing any,
    /// so that model-checking workloads can fix the array size up front
    /// (the algorithm's model is a static infinite array; growth is
    /// bookkeeping, not a shared step). Reads still collect only the
    /// registers below the announced length.
    pub fn reserve(&self, len: usize) {
        self.ensure(len);
    }

    /// Number of base registers allocated so far — the space-growth
    /// metric of experiment `exp_space`.
    pub fn allocated_cells(&self) -> usize {
        self.cells.read().unwrap().regs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sl_mem::NativeMem;

    #[test]
    fn bounded_initial_read_is_zero() {
        let m = BoundedMaxRegister::new(&NativeMem::new(), 16);
        assert_eq!(m.max_read(), 0);
    }

    #[test]
    fn bounded_keeps_maximum() {
        let m = BoundedMaxRegister::new(&NativeMem::new(), 16);
        m.max_write(5);
        assert_eq!(m.max_read(), 5);
        m.max_write(3);
        assert_eq!(m.max_read(), 5);
        m.max_write(15);
        assert_eq!(m.max_read(), 15);
    }

    #[test]
    fn bounded_handles_every_value_in_range() {
        let m = BoundedMaxRegister::new(&NativeMem::new(), 10);
        for v in 0..10 {
            let m2 = BoundedMaxRegister::new(&NativeMem::new(), 10);
            m2.max_write(v);
            assert_eq!(m2.max_read(), v, "roundtrip of {v}");
            m.max_write(v);
            assert_eq!(m.max_read(), v, "monotone up to {v}");
        }
    }

    #[test]
    fn bounded_non_power_of_two_capacity() {
        let m = BoundedMaxRegister::new(&NativeMem::new(), 7);
        m.max_write(6);
        assert_eq!(m.max_read(), 6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bounded_rejects_out_of_range() {
        let m = BoundedMaxRegister::new(&NativeMem::new(), 8);
        m.max_write(8);
    }

    #[test]
    fn bounded_concurrent_writers() {
        let m = BoundedMaxRegister::new(&NativeMem::new(), 1024);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = m.clone();
                s.spawn(move || {
                    for v in 0..256 {
                        m.max_write(t * 256 + v);
                    }
                });
            }
        });
        assert_eq!(m.max_read(), 1023);
    }

    #[test]
    fn unary_initial_read() {
        let m: UnaryMaxRegister<String, _> = UnaryMaxRegister::new(&NativeMem::new(), "m");
        assert_eq!(m.max_read(), (0, None));
        assert_eq!(m.allocated_cells(), 0);
    }

    #[test]
    fn unary_keeps_maximum_and_payload() {
        let m: UnaryMaxRegister<&'static str, _> = UnaryMaxRegister::new(&NativeMem::new(), "m");
        m.max_write(3, "three");
        m.max_write(1, "one");
        assert_eq!(m.max_read(), (3, Some("three")));
        m.max_write(7, "seven");
        assert_eq!(m.max_read(), (7, Some("seven")));
    }

    #[test]
    fn unary_space_grows_with_largest_value() {
        let m: UnaryMaxRegister<u64, _> = UnaryMaxRegister::new(&NativeMem::new(), "m");
        for v in 1..=100 {
            m.max_write(v, v);
        }
        assert_eq!(
            m.allocated_cells(),
            101,
            "one register per value: unbounded space"
        );
    }
}
