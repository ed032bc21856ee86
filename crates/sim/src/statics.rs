//! Static conflict summaries consulted by [`PruneMode::OptimalDpor`]
//! when installed: the certificate layer of its independence relation.
//!
//! A [`StaticConflicts`] value is the runtime form of the
//! **placement-commutation certificate** produced by the `sl-analyze`
//! crate: for every register the static access-footprint probe
//! observed, it records whether invocation-placement relaxation is
//! *licensed* on that register and whether the static may-conflict
//! matrix predicts a data race on it (two distinct processes' ops
//! touch it, at least one writing).
//!
//! The explorer uses the two halves asymmetrically, and both
//! directions **fail closed**:
//!
//! * `licensed` drives *pruning*: a `Local` (pause) step carrying at
//!   most an invocation marker may commute with a marker-free data
//!   step only when the data step's register is licensed. Registers
//!   the probe never saw are unlicensed, so nothing is pruned on the
//!   strength of an incomplete analysis.
//! * `racy` drives *validation*: every data race the dynamic detector
//!   observes must be predicted by the matrix. An unpredicted race
//!   aborts the exploration with a diagnostic naming the register and
//!   the analysis footprint — the analysis is never silently wrong.
//!
//! Version-2 certificates additionally install an **op-pair
//! may-conflict matrix**: per unordered pair of op variants, the
//! registers the pair was observed touching when probed concurrently
//! against each other, and the subset the analysis predicts they may
//! race on. The matrix refines both halves: it licenses the pause/pause
//! and one-marked data/data relaxations (see the explorer's module
//! docs), and it lets validation attribute a dynamic race to the pair
//! cell that licensed the commutation before falling back to the
//! per-register partition. Unknown ops ([`sl_check::OpSym::NONE`]) and
//! pairs without a cell always classify as unprobed — fail closed.
//!
//! Registers are matched by their `(file, line)` allocation site
//! alone: every [`RegSym`] a certificate names enrols its site, and a
//! query classifies the site of the symbol it asks about. This covers
//! registers allocated in loops or sized by the process count — the
//! probe configuration may allocate fewer `slot{i}` registers than a
//! wider simulated run, but every one of them comes from the same
//! `Mem::alloc` call site, which is exactly what the footprint
//! analysis reasons about. [`RegSym::LOCAL`] (no register) is never
//! licensed, racy, observed or conflicting, whatever its site.
//!
//! [`PruneMode::OptimalDpor`]: crate::PruneMode::OptimalDpor

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

use sl_check::{OpSym, RegSym};

/// Counters accumulated while an exploration consults a certificate.
///
/// Deliberately *not* part of [`crate::ExploreOutcome`]: the parallel
/// explorer examines a different multiset of step pairs than the
/// sequential one (races found in a delegated subtree are not
/// re-examined by the owner), so these totals are not bit-identical
/// across worker counts — the exploration results are. Above one
/// worker they do not even repeat at a fixed worker count, because
/// which races a delegated subtree re-examines depends on when its task
/// was published: `validated` read 49,950–49,953 on `aba_mixed3_deep`
/// across runs at 2 and 4 workers, against 49,944 at 1 worker every
/// time. A check of these totals above one worker cannot expect one
/// number.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StaticTelemetry {
    /// Relation evaluations a certificate relaxation answered
    /// "independent" (the placement relaxation, pause/pause pairs of
    /// probed ops, and one-marked value pairs). Race detection evaluates
    /// the relation only for step pairs its vector clocks leave
    /// unordered, so this counts evaluations, not distinct pairs of the
    /// word: a pass that evaluates fewer pairs reads lower without
    /// relaxing less.
    pub relaxed: u64,
    /// Dynamic races checked against the matrix and found predicted.
    pub validated: u64,
    /// Dynamic races that could not be attributed to a register
    /// (untraced runs record no step metadata); skipped, not validated.
    pub unattributed: u64,
}

/// A register's `(file, line)` allocation site.
type Site = (&'static str, u32);

/// One cell of the op-pair may-conflict matrix: the allocation sites
/// of the registers the two ops were *observed* touching (sequential
/// footprints plus concurrent probe windows) and the subset the
/// analysis predicts they may *conflict* on. Keys are normalised
/// unordered pairs (`a <= b`).
#[derive(Default)]
struct PairCell {
    observed_sites: HashSet<Site>,
    conflict_sites: HashSet<Site>,
}

/// A static may-conflict summary: which registers license placement
/// relaxation and which are predicted racy. See the module docs.
pub struct StaticConflicts {
    /// Allocation sites of the registers observed by the static probe
    /// (relaxation license).
    licensed_sites: HashSet<Site>,
    /// Allocation sites of the registers the matrix predicts a data
    /// race on.
    racy_sites: HashSet<Site>,
    /// Human-readable footprint notes per allocation site, surfaced in
    /// fail-closed diagnostics ("ops touching this register: ...").
    notes: HashMap<Site, String>,
    /// Memoised per-symbol classification `(licensed, racy)` — a site
    /// lookup takes two interner reads, and the explorer asks about
    /// the same handful of symbols millions of times.
    memo: RwLock<HashMap<RegSym, (bool, bool)>>,
    /// The op-pair may-conflict matrix (certificate version 2), keyed
    /// by normalised unordered op pairs. Empty for version-1-shaped
    /// certificates: every pair query then answers "unprobed", which
    /// disables the per-op-pair relaxations — fail closed.
    pairs: HashMap<(OpSym, OpSym), PairCell>,
    /// Memoised `(pair probed, reg observed, reg conflict)` per
    /// `(a, b, reg)` query, same rationale as `memo`.
    #[allow(clippy::type_complexity)]
    pair_memo: RwLock<HashMap<(OpSym, OpSym, RegSym), (bool, bool, bool)>>,
    relaxed: AtomicU64,
    validated: AtomicU64,
    unattributed: AtomicU64,
    /// When set, every dynamic race examined by `validate_race` is also
    /// recorded as a normalised `(opA, opB, reg)` triple — the
    /// overapproximation tests compare these against the certificate's
    /// pair matrix. Off by default (recording takes a mutex per race).
    record_races: AtomicBool,
    races: Mutex<BTreeSet<(OpSym, OpSym, RegSym)>>,
}

/// Normalised unordered pair key.
fn pair_key(a: OpSym, b: OpSym) -> (OpSym, OpSym) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl std::fmt::Debug for StaticConflicts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticConflicts")
            .field("licensed_sites", &self.licensed_sites.len())
            .field("racy_sites", &self.racy_sites.len())
            .field("telemetry", &self.telemetry())
            .finish()
    }
}

impl StaticConflicts {
    /// Builds a certificate from the licensed and racy register sets.
    /// Each symbol licenses (or marks racy) its whole allocation site,
    /// so same-site registers of a differently sized configuration
    /// classify identically.
    pub fn new(
        licensed: impl IntoIterator<Item = RegSym>,
        racy: impl IntoIterator<Item = RegSym>,
    ) -> StaticConflicts {
        StaticConflicts {
            licensed_sites: licensed.into_iter().map(|s| s.site()).collect(),
            racy_sites: racy.into_iter().map(|s| s.site()).collect(),
            notes: HashMap::new(),
            memo: RwLock::new(HashMap::new()),
            pairs: HashMap::new(),
            pair_memo: RwLock::new(HashMap::new()),
            relaxed: AtomicU64::new(0),
            validated: AtomicU64::new(0),
            unattributed: AtomicU64::new(0),
            record_races: AtomicBool::new(false),
            races: Mutex::new(BTreeSet::new()),
        }
    }

    /// Merges one cell of the op-pair may-conflict matrix (certificate
    /// version 2): the ops named by their canonical labels, `observed`
    /// the registers either op was seen touching when probed against
    /// the other, `conflict` the subset the analysis predicts the pair
    /// may race on. Each register enrols its allocation site, with the
    /// same loop-allocation rationale as the per-register sets.
    pub fn add_pair(
        &mut self,
        a: &str,
        b: &str,
        observed: impl IntoIterator<Item = RegSym>,
        conflict: impl IntoIterator<Item = RegSym>,
    ) {
        let key = pair_key(OpSym::intern(a), OpSym::intern(b));
        let cell = self.pairs.entry(key).or_default();
        cell.observed_sites
            .extend(observed.into_iter().map(|s| s.site()));
        for sym in conflict {
            // Conflict evidence implies both ops reached the register:
            // a conflict site is always also an observed site.
            cell.observed_sites.insert(sym.site());
            cell.conflict_sites.insert(sym.site());
        }
    }

    /// An empty certificate: nothing licensed, nothing predicted racy.
    /// Useful as a fail-closed default — every observed race aborts.
    pub fn empty() -> StaticConflicts {
        StaticConflicts::new([], [])
    }

    /// Attaches a footprint note to `sym`'s allocation site, shown in
    /// fail-closed diagnostics.
    pub fn set_note(&mut self, sym: RegSym, note: impl Into<String>) {
        self.notes.insert(sym.site(), note.into());
    }

    /// `(licensed, racy)` for `sym`, by its allocation site.
    fn classify(&self, sym: RegSym) -> (bool, bool) {
        if sym == RegSym::LOCAL {
            return (false, false);
        }
        if let Some(&hit) = self.memo.read().unwrap().get(&sym) {
            return hit;
        }
        let site = sym.site();
        let licensed = self.licensed_sites.contains(&site);
        let racy = self.racy_sites.contains(&site);
        self.memo.write().unwrap().insert(sym, (licensed, racy));
        (licensed, racy)
    }

    /// Whether the placement relaxation is licensed on `sym` (the
    /// static probe observed a register allocated at `sym`'s site).
    pub fn licensed(&self, sym: RegSym) -> bool {
        self.classify(sym).0
    }

    /// Whether the static matrix predicts a data race on `sym`.
    pub fn racy(&self, sym: RegSym) -> bool {
        self.classify(sym).1
    }

    /// `(pair probed, reg observed, reg conflict)` for the unordered op
    /// pair `(a, b)` and register `sym`, fail-closed: unknown ops
    /// ([`OpSym::NONE`]) and pairs without a matrix cell answer
    /// `(false, false, false)`.
    fn classify_pair(&self, a: OpSym, b: OpSym, sym: RegSym) -> (bool, bool, bool) {
        if a.is_none() || b.is_none() {
            return (false, false, false);
        }
        let key = pair_key(a, b);
        let memo_key = (key.0, key.1, sym);
        if let Some(&hit) = self.pair_memo.read().unwrap().get(&memo_key) {
            return hit;
        }
        let result = match self.pairs.get(&key) {
            None => (false, false, false),
            Some(cell) => {
                let site = sym.site();
                let local = sym == RegSym::LOCAL;
                let observed = !local && cell.observed_sites.contains(&site);
                let conflict = !local && cell.conflict_sites.contains(&site);
                (true, observed, conflict)
            }
        };
        self.pair_memo.write().unwrap().insert(memo_key, result);
        result
    }

    /// Whether the op pair `(a, b)` has a cell in the matrix — i.e. the
    /// concurrent probe drove this pair and its footprints are known.
    pub fn pair_probed(&self, a: OpSym, b: OpSym) -> bool {
        self.classify_pair(a, b, RegSym::LOCAL).0
    }

    /// Whether the per-op-pair placement relaxation is licensed for the
    /// pair `(a, b)` on register `sym`: the pair was probed and the
    /// register lies inside the pair's observed footprint.
    pub fn pair_licensed(&self, a: OpSym, b: OpSym, sym: RegSym) -> bool {
        self.classify_pair(a, b, sym).1
    }

    /// Whether the matrix predicts the op pair `(a, b)` may race on
    /// `sym`: `None` when the pair has no cell (fall back to the
    /// per-register partition), `Some(conflict)` when it has.
    pub fn pair_predicts(&self, a: OpSym, b: OpSym, sym: RegSym) -> Option<bool> {
        let (probed, _, conflict) = self.classify_pair(a, b, sym);
        probed.then_some(conflict)
    }

    /// Turns on dynamic race recording (see `record_races`).
    pub fn enable_race_recording(&self) {
        self.record_races.store(true, Ordering::Relaxed);
    }

    /// The normalised `(opA, opB, reg)` triples of every dynamic race
    /// examined while recording was enabled.
    pub fn recorded_races(&self) -> Vec<(OpSym, OpSym, RegSym)> {
        self.races.lock().unwrap().iter().copied().collect()
    }

    pub(crate) fn note_race(&self, a: OpSym, b: OpSym, sym: RegSym) {
        if self.record_races.load(Ordering::Relaxed) {
            let key = pair_key(a, b);
            self.races.lock().unwrap().insert((key.0, key.1, sym));
        }
    }

    /// A diagnostic rendering of `sym` with its footprint note.
    pub fn describe(&self, sym: RegSym) -> String {
        let (file, line) = sym.site();
        let note = self
            .notes
            .get(&(file, line))
            .map(|n| format!("; static footprint: {n}"))
            .unwrap_or_default();
        format!("register `{}` (alloc at {file}:{line}){note}", sym.name())
    }

    pub(crate) fn note_relaxed(&self) {
        self.relaxed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_validated(&self) {
        self.validated.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn note_unattributed(&self) {
        self.unattributed.fetch_add(1, Ordering::Relaxed);
    }

    /// Counters accumulated so far (explorations only add; a
    /// certificate can be shared across explorations).
    pub fn telemetry(&self) -> StaticTelemetry {
        StaticTelemetry {
            relaxed: self.relaxed.load(Ordering::Relaxed),
            validated: self.validated.load(Ordering::Relaxed),
            unattributed: self.unattributed.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_by_symbol_and_by_site() {
        let a = RegSym::intern("stx-A", file!(), line!(), 1);
        // Same site, different name — as loop allocations produce.
        let (f, l) = a.site();
        let a2 = RegSym::intern("stx-A2", f, l, 2);
        let b = RegSym::intern("stx-B", file!(), line!(), 1);
        let st = StaticConflicts::new([a], [a]);
        assert!(st.licensed(a) && st.racy(a));
        assert!(st.licensed(a2), "site fallback licenses same-site regs");
        assert!(st.racy(a2));
        assert!(!st.licensed(b) && !st.racy(b));
        assert!(!st.licensed(RegSym::LOCAL));
        // Memoised second lookup agrees.
        assert!(st.licensed(a2) && !st.licensed(b));
    }

    #[test]
    fn pair_matrix_classifies_fail_closed() {
        let r = RegSym::intern("stx-pair-R", file!(), line!(), 1);
        let s = RegSym::intern("stx-pair-S", file!(), line!(), 1);
        let t = RegSym::intern("stx-pair-T", file!(), line!(), 1);
        let mut st = StaticConflicts::new([r, s, t], [r]);
        st.add_pair("DWrite", "DRead", [r, s], [r]);
        let w = OpSym::intern("DWrite");
        let rd = OpSym::intern("DRead");
        let scan = OpSym::intern("Scan");
        // Pair queries are order-insensitive.
        assert!(st.pair_probed(w, rd) && st.pair_probed(rd, w));
        assert!(st.pair_licensed(w, rd, r) && st.pair_licensed(rd, w, s));
        assert!(!st.pair_licensed(w, rd, t), "outside the pair footprint");
        assert_eq!(st.pair_predicts(w, rd, r), Some(true));
        assert_eq!(st.pair_predicts(w, rd, s), Some(false));
        // Unprobed pairs and unknown ops answer fail-closed.
        assert!(!st.pair_probed(w, scan));
        assert_eq!(st.pair_predicts(w, scan, r), None);
        assert!(!st.pair_probed(OpSym::NONE, rd));
        assert!(!st.pair_licensed(OpSym::NONE, rd, r));
        // Site fallback: a same-site register classifies like `r`.
        let (f, l) = r.site();
        let r2 = RegSym::intern("stx-pair-R2", f, l, 2);
        assert!(st.pair_licensed(w, rd, r2));
        assert_eq!(st.pair_predicts(w, rd, r2), Some(true));
        // Race recording normalises and dedupes.
        assert!(st.recorded_races().is_empty());
        st.note_race(rd, w, r); // ignored: recording off
        st.enable_race_recording();
        st.note_race(rd, w, r);
        st.note_race(w, rd, r);
        assert_eq!(st.recorded_races().len(), 1);
    }

    #[test]
    fn notes_surface_in_descriptions() {
        let a = RegSym::intern("stx-noted", file!(), line!(), 1);
        let mut st = StaticConflicts::empty();
        st.set_note(a, "write by push@p0, read by pop@p1");
        let d = st.describe(a);
        assert!(d.contains("stx-noted") && d.contains("push@p0"), "{d}");
    }
}
