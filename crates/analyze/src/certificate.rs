//! The placement-commutation certificate: per-op footprints, the
//! op × op may-conflict matrix, and the derived register
//! classifications the explorer consumes.
//!
//! A [`Certificate`] is built by the probe driver
//! ([`crate::probe_object`]) from the symbolic access logs of one-shot
//! dry runs. It has two consumers:
//!
//! * [`Certificate::static_conflicts`] produces the runtime form
//!   ([`sl_sim::StaticConflicts`]) consulted by
//!   `PruneMode::OptimalDpor` when installed: the *licensed* register
//!   set (placement
//!   relaxation may fire) and the *racy* register set (the dynamic
//!   race detector validates every observed race against it,
//!   fail-closed).
//! * [`Certificate::to_json`] serialises the whole analysis — sites,
//!   footprints, conflict matrix, classifications — for the checked-in
//!   baseline artifact and the CI upload.
//!
//! # Classification rules
//!
//! *Licensed* = every site some probed operation touched. Probing is
//! the evidence that the analysis has a footprint for the register;
//! sites never seen inside a probe window are unlicensed, so an
//! incomplete analysis prunes nothing (fail-closed in the pruning
//! direction).
//!
//! *Racy* over-approximates in three layers, because `racy` drives
//! only validation — conservatism here costs no pruning:
//!
//! 1. every site in some op × op cross-process conflict (both ops
//!    touch it, at least one writes);
//! 2. every site any probed op *writes*, even without an observed
//!    cross-process reader — helping paths (Afek-style substrates)
//!    make other processes touch a written register only under
//!    contention, which a sequential probe cannot witness;
//! 3. every unprobed site (unknown classifies as top).
//!
//! The only registers predicted race-free are therefore the ones every
//! probe only ever *read*. If one of those does race dynamically, the
//! explorer aborts with the fail-closed diagnostic — the analysis is
//! never silently wrong.

use std::collections::{BTreeMap, BTreeSet};

use sl_check::RegSym;
use sl_mem::SymSite;
use sl_sim::wire::push_str;
use sl_sim::StaticConflicts;

/// The certificate format version [`Certificate::to_json`] writes.
/// Version 2 added the op list, the op-pair matrix (`pairs`), and the
/// `race_free_sites` placement set.
pub const CERT_VERSION: u64 = 2;

/// Raw concurrent-probe evidence for one unordered op pair, in master
/// site indices: every site either op touched in some pair schedule,
/// and the subset where the two windows collided with at least one
/// writer. Produced by the probe driver, folded into the op-pair
/// matrix of a [`Certificate`].
#[derive(Clone, Debug, Default)]
pub struct PairObs {
    /// Sites either op's window touched across the pair's schedules.
    pub observed: BTreeSet<usize>,
    /// Sites both windows touched with at least one writer.
    pub conflict: BTreeSet<usize>,
}

/// One cell of the certificate's op-pair may-conflict matrix.
/// `a` / `b` index [`Certificate::ops`] with `a <= b`; the matrix is
/// symmetric and stored once per unordered pair.
#[derive(Clone, Debug)]
pub struct PairEntry {
    /// Index of the first op label (`ops[a] <= ops[b]`).
    pub a: usize,
    /// Index of the second op label.
    pub b: usize,
    /// Sites the pair was observed touching: the union of both ops'
    /// sequential footprints and everything the concurrent pair
    /// schedules recorded. Licenses the per-op-pair placement
    /// relaxations on these registers.
    pub observed: BTreeSet<usize>,
    /// The subset the analysis predicts the pair may race on: observed
    /// sites that are racy in the per-register partition, plus every
    /// site with direct concurrent collision evidence. Always a subset
    /// of `observed`.
    pub conflict: BTreeSet<usize>,
}

/// The may-access footprint of one operation as probed from one
/// process. Sets hold indices into [`Certificate::sites`].
#[derive(Clone, Debug)]
pub struct OpFootprint {
    /// Operation label (the `Debug` variant name, e.g. `"DWrite"`).
    pub op: String,
    /// The probing process.
    pub proc: usize,
    /// Sites read at least once.
    pub reads: BTreeSet<usize>,
    /// Sites written at least once.
    pub writes: BTreeSet<usize>,
    /// Sites updated through an RMW at least once.
    pub rmws: BTreeSet<usize>,
    /// Written sites whose stored image varied across probes — the
    /// writes the explorer's same-value write/write rule cannot be
    /// expected to commute.
    pub value_dependent: BTreeSet<usize>,
}

impl OpFootprint {
    /// Whether the op may access site `s` at all.
    pub fn touches(&self, s: usize) -> bool {
        self.reads.contains(&s) || self.may_write(s)
    }

    /// Whether the op may change site `s` (plain write or RMW).
    pub fn may_write(&self, s: usize) -> bool {
        self.writes.contains(&s) || self.rmws.contains(&s)
    }

    fn kinds_at(&self, s: usize) -> Vec<&'static str> {
        let mut ks = Vec::new();
        if self.reads.contains(&s) {
            ks.push("read");
        }
        if self.writes.contains(&s) {
            ks.push("write");
        }
        if self.rmws.contains(&s) {
            ks.push("rmw");
        }
        ks
    }
}

/// One cell of the op × op may-conflict matrix: operations `a` and
/// `b`, issued by distinct processes, may collide on `sites` with the
/// recorded access-class pairs.
#[derive(Clone, Debug)]
pub struct ConflictEntry {
    /// First operation label (`a <= b` lexicographically; the matrix
    /// is symmetric and stored once per unordered pair).
    pub a: String,
    /// Second operation label.
    pub b: String,
    /// Sites both operations may touch with at least one writer.
    pub sites: BTreeSet<usize>,
    /// Step-class pairs observed on those sites, `"<a-kind>/<b-kind>"`.
    pub kinds: BTreeSet<String>,
}

/// A full static analysis of one object configuration. See the module
/// docs for the classification rules.
#[derive(Clone, Debug)]
pub struct Certificate {
    /// Object family (`"aba"`, `"snapshot"`, `"counter"`, ...).
    pub family: String,
    /// Substrate name (`"double-collect"`, ..., or `"-"` for
    /// substrate-independent families).
    pub substrate: String,
    /// Process count the probe ran with.
    pub procs: usize,
    /// Every register the object allocated, in allocation order.
    pub sites: Vec<SymSite>,
    /// Per-(op, process) footprints, sorted by (op, process).
    pub footprints: Vec<OpFootprint>,
    /// The op × op cross-process may-conflict matrix.
    pub conflicts: Vec<ConflictEntry>,
    /// Distinct op labels, sorted — the index space of `pairs`.
    pub ops: Vec<String>,
    /// The op-pair matrix, sorted by `(a, b)`, one entry per unordered
    /// pair the concurrent probe drove.
    pub pairs: Vec<PairEntry>,
    /// Sites licensed for invocation-placement relaxation (= probed).
    pub licensed_sites: BTreeSet<usize>,
    /// Sites the matrix predicts a data race on.
    pub racy_sites: BTreeSet<usize>,
    /// Allocated sites never seen inside a probe window.
    pub unprobed_sites: BTreeSet<usize>,
}

impl Certificate {
    /// Folds per-op footprints into the conflict matrix and the
    /// licensed / racy / unprobed classifications, and the concurrent
    /// pair evidence (keyed by normalised `(labelA, labelB)`) into the
    /// op-pair matrix. Concurrent evidence is deliberately *not*
    /// folded into the per-register sets — a pair cell records the
    /// pair it was observed on, nothing more.
    pub(crate) fn build(
        family: &str,
        substrate: &str,
        procs: usize,
        sites: Vec<SymSite>,
        footprints: Vec<OpFootprint>,
        pair_evidence: BTreeMap<(String, String), PairObs>,
    ) -> Certificate {
        let licensed_sites: BTreeSet<usize> = footprints
            .iter()
            .flat_map(|f| {
                f.reads
                    .iter()
                    .chain(f.writes.iter())
                    .chain(f.rmws.iter())
                    .copied()
                    .collect::<Vec<_>>()
            })
            .collect();
        let unprobed_sites: BTreeSet<usize> = (0..sites.len())
            .filter(|s| !licensed_sites.contains(s))
            .collect();

        // Rule 1: cross-process overlap with at least one writer.
        let mut cells: BTreeMap<(String, String), (BTreeSet<usize>, BTreeSet<String>)> =
            BTreeMap::new();
        let mut racy_sites: BTreeSet<usize> = BTreeSet::new();
        for fa in &footprints {
            for fb in &footprints {
                if fa.proc == fb.proc {
                    continue;
                }
                for &s in licensed_sites.iter() {
                    if !(fa.touches(s) && fb.touches(s)) {
                        continue;
                    }
                    if !(fa.may_write(s) || fb.may_write(s)) {
                        continue;
                    }
                    racy_sites.insert(s);
                    let (first, second) = if fa.op <= fb.op { (fa, fb) } else { (fb, fa) };
                    let cell = cells
                        .entry((first.op.clone(), second.op.clone()))
                        .or_default();
                    cell.0.insert(s);
                    for ka in first.kinds_at(s) {
                        for kb in second.kinds_at(s) {
                            cell.1.insert(format!("{ka}/{kb}"));
                        }
                    }
                }
            }
        }
        // Rule 2: written sites may be helped/read by other processes
        // only under contention, invisible to a sequential probe.
        for f in &footprints {
            racy_sites.extend(f.writes.iter().copied());
            racy_sites.extend(f.rmws.iter().copied());
        }
        // Rule 3: unknown classifies as top.
        racy_sites.extend(unprobed_sites.iter().copied());

        let conflicts: Vec<ConflictEntry> = cells
            .into_iter()
            .map(|((a, b), (sites, kinds))| ConflictEntry { a, b, sites, kinds })
            .collect();

        // The op index space: every label with a footprint or pair
        // evidence, sorted (so normalised label pairs map to ordered
        // index pairs).
        let ops: Vec<String> = footprints
            .iter()
            .map(|f| f.op.clone())
            .chain(
                pair_evidence
                    .keys()
                    .flat_map(|(a, b)| [a.clone(), b.clone()]),
            )
            .collect::<BTreeSet<String>>()
            .into_iter()
            .collect();
        let op_idx =
            |label: &str| -> usize { ops.binary_search_by(|o| o.as_str().cmp(label)).unwrap() };

        // Fold the pair matrix: a cell exists for every concurrently
        // probed pair. `observed` widens with both ops' sequential
        // footprints (any proc); `conflict` is the racy projection of
        // `observed` plus direct collision evidence — over-approximate
        // in the same spirit as the per-register rules, but scoped to
        // the pair.
        let mut pair_map: BTreeMap<(usize, usize), PairObs> = BTreeMap::new();
        for ((la, lb), obs) in pair_evidence {
            let (ia, ib) = (op_idx(&la), op_idx(&lb));
            let key = (ia.min(ib), ia.max(ib));
            let cell = pair_map.entry(key).or_default();
            cell.observed.extend(obs.observed.iter().copied());
            cell.conflict.extend(obs.conflict.iter().copied());
        }
        for ((ia, ib), cell) in pair_map.iter_mut() {
            for f in &footprints {
                let fi = op_idx(&f.op);
                if fi != *ia && fi != *ib {
                    continue;
                }
                cell.observed.extend(f.reads.iter().copied());
                cell.observed.extend(f.writes.iter().copied());
                cell.observed.extend(f.rmws.iter().copied());
            }
            cell.conflict.extend(
                cell.observed
                    .iter()
                    .filter(|s| racy_sites.contains(s))
                    .copied()
                    .collect::<Vec<_>>(),
            );
        }
        let pairs: Vec<PairEntry> = pair_map
            .into_iter()
            .map(|((a, b), cell)| PairEntry {
                a,
                b,
                observed: cell.observed,
                conflict: cell.conflict,
            })
            .collect();

        Certificate {
            family: family.to_string(),
            substrate: substrate.to_string(),
            procs,
            sites,
            footprints,
            conflicts,
            ops,
            pairs,
            licensed_sites,
            racy_sites,
            unprobed_sites,
        }
    }

    /// Interns site `s`'s identity as the [`RegSym`] the simulator
    /// would intern for the same allocation — byte-identical because
    /// `Mem::alloc` is `#[track_caller]` under both backends.
    pub fn site_sym(&self, s: usize) -> RegSym {
        let site = &self.sites[s];
        RegSym::intern(&site.name, site.file, site.line, site.column)
    }

    /// The licensed registers, interned.
    pub fn licensed_syms(&self) -> Vec<RegSym> {
        self.licensed_sites
            .iter()
            .map(|&s| self.site_sym(s))
            .collect()
    }

    /// The racy registers, interned.
    pub fn racy_syms(&self) -> Vec<RegSym> {
        self.racy_sites.iter().map(|&s| self.site_sym(s)).collect()
    }

    /// The ops touching site `s`, as `"DWrite@p0 writes"` fragments —
    /// the footprint note shown by fail-closed diagnostics.
    fn site_note(&self, s: usize) -> String {
        if self.unprobed_sites.contains(&s) {
            return "never touched inside a probe window (construction only); \
                    conservatively predicted racy"
                .to_string();
        }
        let mut parts = Vec::new();
        for f in &self.footprints {
            let ks = f.kinds_at(s);
            if !ks.is_empty() {
                parts.push(format!("{}@p{} {}", f.op, f.proc, ks.join("+")));
            }
        }
        parts.join(", ")
    }

    /// The runtime form of this certificate, ready for
    /// `sl_sim::Explorer::statics` / `SimExplore::statics`: the
    /// per-register partition plus one matrix cell per op pair.
    pub fn static_conflicts(&self) -> StaticConflicts {
        let mut st = StaticConflicts::new(self.licensed_syms(), self.racy_syms());
        for s in 0..self.sites.len() {
            st.set_note(self.site_sym(s), self.site_note(s));
        }
        for p in &self.pairs {
            st.add_pair(
                &self.ops[p.a],
                &self.ops[p.b],
                p.observed.iter().map(|&s| self.site_sym(s)),
                p.conflict.iter().map(|&s| self.site_sym(s)),
            );
        }
        st
    }

    /// The conflict sites of the pair `(a, b)` (order-insensitive),
    /// interned; `None` when the matrix has no cell for the pair.
    pub fn pair_conflict_syms(&self, a: &str, b: &str) -> Option<Vec<RegSym>> {
        let ia = self.ops.iter().position(|o| o == a)?;
        let ib = self.ops.iter().position(|o| o == b)?;
        let key = (ia.min(ib), ia.max(ib));
        let cell = self.pairs.iter().find(|p| (p.a, p.b) == key)?;
        Some(cell.conflict.iter().map(|&s| self.site_sym(s)).collect())
    }

    /// Serialises the certificate as a self-describing JSON object.
    /// The format is documented in the crate README and stable enough
    /// to diff across runs (all sets are sorted). Nothing reads it
    /// back: the checked-in catalog is judged by comparing its bytes
    /// with a fresh regeneration.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"family\": {},\n", quoted(&self.family)));
        out.push_str(&format!("  \"substrate\": {},\n", quoted(&self.substrate)));
        out.push_str(&format!("  \"version\": {CERT_VERSION},\n"));
        out.push_str(&format!("  \"procs\": {},\n", self.procs));
        out.push_str("  \"sites\": [\n");
        for (s, site) in self.sites.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"id\": {s}, \"name\": {}, \"file\": {}, \"line\": {}, \
                 \"column\": {}, \"licensed\": {}, \"racy\": {}, \"probed\": {}}}{}\n",
                quoted(&site.name),
                quoted(site.file),
                site.line,
                site.column,
                self.licensed_sites.contains(&s),
                self.racy_sites.contains(&s),
                !self.unprobed_sites.contains(&s),
                comma(s, self.sites.len()),
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"footprints\": [\n");
        for (i, f) in self.footprints.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"op\": {}, \"proc\": {}, \"reads\": {}, \"writes\": {}, \
                 \"rmws\": {}, \"value_dependent\": {}}}{}\n",
                quoted(&f.op),
                f.proc,
                ids(&f.reads),
                ids(&f.writes),
                ids(&f.rmws),
                ids(&f.value_dependent),
                comma(i, self.footprints.len()),
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"may_conflict\": [\n");
        for (i, c) in self.conflicts.iter().enumerate() {
            let kinds: Vec<String> = c.kinds.iter().map(|k| quoted(k)).collect();
            out.push_str(&format!(
                "    {{\"a\": {}, \"b\": {}, \"sites\": {}, \"kinds\": [{}]}}{}\n",
                quoted(&c.a),
                quoted(&c.b),
                ids(&c.sites),
                kinds.join(", "),
                comma(i, self.conflicts.len()),
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"ops\": [");
        let ops: Vec<String> = self.ops.iter().map(|o| quoted(o)).collect();
        out.push_str(&ops.join(", "));
        out.push_str("],\n");
        out.push_str("  \"pairs\": [\n");
        for (i, p) in self.pairs.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"a\": {}, \"b\": {}, \"observed\": {}, \"conflict\": {}}}{}\n",
                p.a,
                p.b,
                ids(&p.observed),
                ids(&p.conflict),
                comma(i, self.pairs.len()),
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"placement\": {\n");
        out.push_str(&format!(
            "    \"licensed_sites\": {},\n",
            ids(&self.licensed_sites)
        ));
        let race_free: BTreeSet<usize> = self
            .licensed_sites
            .difference(&self.racy_sites)
            .copied()
            .collect();
        out.push_str(&format!("    \"race_free_sites\": {},\n", ids(&race_free)));
        out.push_str(
            "    \"guard\": \"a pause carrying at most an invocation marker commutes with a \
             marker-free data step on a licensed register; an op pair with a matrix cell \
             additionally commutes pause/pause and one-marked value-equal data steps on its \
             observed registers; every dynamically observed race is validated against the pair \
             cell or the racy set, fail-closed\"\n",
        );
        out.push_str("  }\n");
        out.push('}');
        out
    }
}

/// `s` as a JSON string literal.
fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_str(&mut out, s);
    out
}

/// Serialises a sorted site-id set as a JSON array.
fn ids(set: &BTreeSet<usize>) -> String {
    let items: Vec<String> = set.iter().map(|s| s.to_string()).collect();
    format!("[{}]", items.join(", "))
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 == len {
        ""
    } else {
        ","
    }
}

/// Serialises a set of certificates as one JSON array (the catalog
/// artifact sim-deep CI uploads).
pub fn catalog_json(certs: &[Certificate]) -> String {
    let mut out = String::from("[\n");
    for (i, c) in certs.iter().enumerate() {
        for line in c.to_json().lines() {
            out.push_str("  ");
            out.push_str(line);
            out.push('\n');
        }
        if i + 1 != certs.len() {
            out.truncate(out.trim_end().len());
            out.push_str(",\n");
        }
    }
    out.push(']');
    out
}
