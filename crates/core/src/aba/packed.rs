//! A lock-free packed-word implementation of Algorithm 2 for native
//! threads.
//!
//! The generic [`super::SlAbaRegister`] runs over any `Mem` backend and
//! stores `X` and `A[q]` as structured values behind lock cells. This
//! variant is the production form for real hardware: each register of
//! the algorithm is packed into one `AtomicU64`, so every shared-memory
//! step of Algorithm 2 is a genuine single machine word access — the
//! implementation is lock-free all the way down.
//!
//! Layout of `X` (one word): `[ tag:1 | pid:15 | seq:16 | value:32 ]`,
//! where `tag` distinguishes `⊥` from written values. `A[q]` entries
//! pack `[ tag:1 | pid:15 | seq:16 ]`. Consequently values are `u32`,
//! process ids are below 2¹⁵, and sequence numbers (range `{0..2n+1}`)
//! fit easily in 16 bits.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use sl_mem::{HandleGuard, HandleLease};
use sl_spec::ProcId;

use super::{AbaHandle, AbaRegister};

const TAG_SHIFT: u32 = 63;
const PID_SHIFT: u32 = 48;
const SEQ_SHIFT: u32 = 32;
const PID_MASK: u64 = 0x7FFF;
const SEQ_MASK: u64 = 0xFFFF;

fn pack_x(value: u32, pid: usize, seq: u64) -> u64 {
    (1 << TAG_SHIFT)
        | ((pid as u64 & PID_MASK) << PID_SHIFT)
        | ((seq & SEQ_MASK) << SEQ_SHIFT)
        | value as u64
}

fn unpack_x(word: u64) -> Option<(u32, usize, u64)> {
    if word >> TAG_SHIFT == 0 {
        return None;
    }
    Some((
        word as u32,
        ((word >> PID_SHIFT) & PID_MASK) as usize,
        (word >> SEQ_SHIFT) & SEQ_MASK,
    ))
}

fn pack_a(tag: Option<(usize, u64)>) -> u64 {
    match tag {
        None => 0,
        Some((pid, seq)) => {
            (1 << TAG_SHIFT)
                | ((pid as u64 & PID_MASK) << PID_SHIFT)
                | ((seq & SEQ_MASK) << SEQ_SHIFT)
        }
    }
}

fn unpack_a(word: u64) -> Option<(usize, u64)> {
    if word >> TAG_SHIFT == 0 {
        return None;
    }
    Some((
        ((word >> PID_SHIFT) & PID_MASK) as usize,
        (word >> SEQ_SHIFT) & SEQ_MASK,
    ))
}

struct Shared {
    x: AtomicU64,
    a: Vec<AtomicU64>,
    n: usize,
}

/// Algorithm 2 with every base register packed into one `AtomicU64`.
///
/// Strictly for native execution (it bypasses the `Mem` abstraction);
/// semantically identical to [`super::SlAbaRegister`] for `u32` values,
/// as verified by the differential tests in this module.
pub struct PackedSlAbaRegister {
    shared: Arc<Shared>,
    guard: HandleGuard,
}

impl Clone for PackedSlAbaRegister {
    fn clone(&self) -> Self {
        PackedSlAbaRegister {
            shared: Arc::clone(&self.shared),
            guard: self.guard.clone(),
        }
    }
}

impl std::fmt::Debug for PackedSlAbaRegister {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PackedSlAbaRegister(n={})", self.shared.n)
    }
}

impl PackedSlAbaRegister {
    /// Creates the register for an `n`-process system.
    ///
    /// # Panics
    ///
    /// Panics if `n` is 0, exceeds 2¹⁵ processes, or if the sequence
    /// domain `{0..2n+1}` would not fit in 16 bits.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "need at least one process");
        assert!(n < (1 << 15), "process id must fit in 15 bits");
        assert!(2 * n < 0xFFFF, "sequence domain must fit in 16 bits");
        PackedSlAbaRegister {
            shared: Arc::new(Shared {
                x: AtomicU64::new(0),
                a: (0..n).map(|_| AtomicU64::new(0)).collect(),
                n,
            }),
            guard: HandleGuard::new(),
        }
    }

    /// Number of processes the register was created for.
    pub fn processes(&self) -> usize {
        self.shared.n
    }
}

impl PackedSlAbaRegister {
    /// Creates process `p`'s handle.
    pub fn handle(&self, p: ProcId) -> PackedSlAbaHandle {
        assert!(p.index() < self.shared.n, "process id out of range");
        PackedSlAbaHandle {
            shared: Arc::clone(&self.shared),
            p,
            used_q: std::collections::VecDeque::from(vec![None; self.shared.n + 1]),
            na: std::collections::HashMap::new(),
            c: 0,
            _lease: self.guard.acquire(p),
        }
    }
}

impl AbaRegister<u32> for PackedSlAbaRegister {
    type Handle = PackedSlAbaHandle;

    fn handle(&self, p: ProcId) -> Self::Handle {
        PackedSlAbaRegister::handle(self, p)
    }
}

/// Process-local handle of [`PackedSlAbaRegister`].
pub struct PackedSlAbaHandle {
    shared: Arc<Shared>,
    p: ProcId,
    used_q: std::collections::VecDeque<Option<u64>>,
    na: std::collections::HashMap<usize, u64>,
    c: usize,
    _lease: HandleLease,
}

impl PackedSlAbaHandle {
    /// `GetSeq` (Algorithm 1 lines 3–14) on packed words.
    fn get_seq(&mut self) -> u64 {
        let n = self.shared.n;
        let announced = unpack_a(self.shared.a[self.c].load(Ordering::SeqCst));
        match announced {
            Some((r, sr)) if r == self.p.index() => {
                self.na.insert(self.c, sr);
            }
            _ => {
                self.na.remove(&self.c);
            }
        }
        self.c = (self.c + 1) % n;
        let banned = |s: u64| self.na.values().any(|&v| v == s) || self.used_q.contains(&Some(s));
        let s = (0..=2 * n as u64 + 1)
            .find(|&s| !banned(s))
            .expect("sequence domain always has a free number");
        self.used_q.push_back(Some(s));
        self.used_q.pop_front();
        s
    }
}

impl AbaHandle<u32> for PackedSlAbaHandle {
    fn dwrite(&mut self, value: u32) {
        let s = self.get_seq();
        self.shared
            .x
            .store(pack_x(value, self.p.index(), s), Ordering::SeqCst);
    }

    fn dread(&mut self) -> (Option<u32>, bool) {
        let q = self.p.index();
        let mut changed = false;
        loop {
            let xv = self.shared.x.load(Ordering::SeqCst); // line 34
            let announced = self.shared.a[q].load(Ordering::SeqCst); // line 35
            let tag = unpack_x(xv).map(|(_, p, s)| (p, s));
            self.shared.a[q].store(pack_a(tag), Ordering::SeqCst); // line 36
            let xv2 = self.shared.x.load(Ordering::SeqCst); // line 37
            if pack_a(tag) != announced || xv != xv2 {
                changed = true; // lines 38–40
            } else {
                return (unpack_x(xv2).map(|(v, _, _)| v), changed); // 41–42
            }
        }
    }

    fn proc(&self) -> ProcId {
        self.p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aba::SlAbaRegister;
    use sl_mem::NativeMem;

    #[test]
    fn pack_roundtrips() {
        assert_eq!(unpack_x(pack_x(7, 3, 5)), Some((7, 3, 5)));
        assert_eq!(unpack_x(0), None);
        assert_eq!(unpack_a(pack_a(Some((9, 2)))), Some((9, 2)));
        assert_eq!(unpack_a(pack_a(None)), None);
        assert_eq!(
            unpack_x(pack_x(u32::MAX, 0x7FFF, 0xFFFF)),
            Some((u32::MAX, 0x7FFF, 0xFFFF))
        );
    }

    #[test]
    fn matches_sequential_specification() {
        let r = PackedSlAbaRegister::new(2);
        let mut w = r.handle(ProcId(0));
        let mut h = r.handle(ProcId(1));
        assert_eq!(h.dread(), (None, false));
        w.dwrite(5);
        assert_eq!(h.dread(), (Some(5), true));
        assert_eq!(h.dread(), (Some(5), false));
        w.dwrite(5); // ABA
        assert_eq!(h.dread(), (Some(5), true));
    }

    /// Differential test: the packed register and the generic Algorithm 2
    /// over `NativeMem` agree on long single-threaded histories.
    #[test]
    fn differential_vs_generic_algorithm2() {
        let packed = PackedSlAbaRegister::new(3);
        let generic = SlAbaRegister::<u32, _>::new(&NativeMem::new(), 3);
        let mut pw = packed.handle(ProcId(0));
        let mut gw = generic.handle(ProcId(0));
        let mut pr = packed.handle(ProcId(1));
        let mut gr = generic.handle(ProcId(1));
        let mut lcg = 12345u64;
        for _ in 0..2_000 {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1);
            match lcg % 3 {
                0 => {
                    let v = (lcg >> 32) as u32;
                    pw.dwrite(v);
                    gw.dwrite(v);
                }
                1 => {
                    assert_eq!(pr.dread(), gr.dread());
                }
                _ => {
                    assert_eq!(pw.dread(), gw.dread());
                }
            }
        }
    }

    #[test]
    fn concurrent_threads_smoke() {
        let r = PackedSlAbaRegister::new(4);
        // Readers keep reading until one read starts after the last
        // write, so each must see a change however the threads are
        // scheduled (a reader could otherwise finish before the writer
        // first runs, and rightly see none).
        let written = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for p in 0..4usize {
                let r = r.clone();
                let written = &written;
                s.spawn(move || {
                    let mut h = r.handle(ProcId(p));
                    if p == 0 {
                        for i in 0..10_000u32 {
                            h.dwrite(i);
                        }
                        written.store(true, Ordering::SeqCst);
                    } else {
                        let mut seen_change = false;
                        for reads in 1.. {
                            let after_writes = written.load(Ordering::SeqCst);
                            let (_, a) = h.dread();
                            seen_change |= a;
                            if after_writes && reads >= 10_000 {
                                break;
                            }
                        }
                        assert!(seen_change);
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "process id must fit")]
    fn rejects_oversized_n() {
        let _ = PackedSlAbaRegister::new(1 << 15);
    }
}
