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
use sl_sim::wire::{non_canonical, push_str, Fields, Json, Parser};
use sl_sim::StaticConflicts;

/// The certificate format version this crate produces and consumes.
/// Version 2 added the op list, the op-pair matrix (`pairs`), and the
/// `race_free_sites` placement set; loading any other version fails
/// closed with a named diagnostic ([`Certificate::from_json`]).
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
    /// Format version ([`CERT_VERSION`] for freshly built ones).
    pub version: u64,
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
            version: CERT_VERSION,
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
    /// to diff across runs (all sets are sorted). It is the one
    /// canonical form: [`Certificate::from_json`] accepts exactly these
    /// bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"family\": {},\n", quoted(&self.family)));
        out.push_str(&format!("  \"substrate\": {},\n", quoted(&self.substrate)));
        out.push_str(&format!("  \"version\": {},\n", self.version));
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

// --- Strict fail-closed parsing (on the `sl_sim::wire` grammar) -----

/// Leaks `file` strings once per distinct path so parsed sites carry
/// the `&'static str` [`SymSite`] requires. A process-wide dedup map
/// bounds the leak by the number of distinct source files.
fn static_file(file: &str) -> &'static str {
    use std::collections::HashMap;
    use std::sync::Mutex;
    static FILES: Mutex<Option<HashMap<String, &'static str>>> = Mutex::new(None);
    let mut map = FILES.lock().unwrap();
    let map = map.get_or_insert_with(HashMap::new);
    if let Some(&s) = map.get(file) {
        return s;
    }
    let leaked: &'static str = Box::leak(file.to_string().into_boxed_str());
    map.insert(file.to_string(), leaked);
    leaked
}

/// The named field as a duplicate-free set of in-range site ids.
fn id_set(
    f: &mut Fields,
    ctx: &str,
    key: &str,
    site_count: usize,
) -> Result<BTreeSet<usize>, String> {
    let mut out = BTreeSet::new();
    for id in f.usizes(key)? {
        if id >= site_count {
            return Err(format!(
                "{ctx}: \"{key}\" references site {id} but only {site_count} sites exist"
            ));
        }
        if !out.insert(id) {
            return Err(format!("{ctx}: duplicate site id {id} in \"{key}\""));
        }
    }
    Ok(out)
}

impl Certificate {
    /// Parses one certificate from its [`Certificate::to_json`] form.
    ///
    /// The parser fails closed: unknown fields, missing fields,
    /// unsupported versions, out-of-range or duplicate site ids,
    /// duplicate site identities, labels missing from `ops`, and
    /// classification inconsistencies (e.g. `race_free_sites`
    /// disagreeing with `licensed - racy`) are all rejected with a
    /// named diagnostic rather than repaired. Last, the text must be
    /// exactly the parsed certificate's [`Certificate::to_json`]
    /// (`non-canonical certificate` otherwise).
    pub fn from_json(text: &str) -> Result<Certificate, String> {
        let value = Parser::new(text, "certificate").parse_document()?;
        let cert = Self::from_value(value, "certificate")?;
        if cert.to_json() != text {
            return Err(non_canonical("certificate"));
        }
        Ok(cert)
    }

    fn from_value(v: Json, ctx: &str) -> Result<Certificate, String> {
        let mut top = Fields::exact(
            v,
            ctx,
            &[
                "family",
                "substrate",
                "version",
                "procs",
                "sites",
                "footprints",
                "may_conflict",
                "ops",
                "pairs",
                "placement",
            ],
        )?;
        let family = top.string("family")?;
        let substrate = top.string("substrate")?;
        let version = top.num("version")?;
        if version != CERT_VERSION {
            return Err(format!(
                "{ctx} ({family}/{substrate}): version {version} is not the supported \
                 version {CERT_VERSION} — the checked-in certificate is stale; regenerate it \
                 with `exp_sim_throughput --refresh-baseline`"
            ));
        }
        let procs = top.num("procs")? as usize;

        let mut sites = Vec::new();
        let mut licensed_flags = BTreeSet::new();
        let mut racy_flags = BTreeSet::new();
        let mut probed_flags = BTreeSet::new();
        let mut identities = BTreeSet::new();
        for (i, item) in top.array("sites")?.into_iter().enumerate() {
            let sctx = format!("{ctx}: sites[{i}]");
            let mut f = Fields::exact(
                item,
                &sctx,
                &[
                    "id", "name", "file", "line", "column", "licensed", "racy", "probed",
                ],
            )?;
            let id = f.num("id")? as usize;
            if id != i {
                return Err(format!("{sctx}: id {id} is not dense (expected {i})"));
            }
            let name = f.string("name")?;
            let file = f.string("file")?;
            let line = f.num("line")? as u32;
            let column = f.num("column")? as u32;
            if !identities.insert((name.clone(), file.clone(), line, column)) {
                return Err(format!(
                    "{sctx}: duplicate site identity {name}@{file}:{line}:{column} — two sites \
                     would intern to the same register symbol"
                ));
            }
            for (key, flags) in [
                ("licensed", &mut licensed_flags),
                ("racy", &mut racy_flags),
                ("probed", &mut probed_flags),
            ] {
                if f.boolean(key)? {
                    flags.insert(i);
                }
            }
            sites.push(SymSite {
                name,
                file: static_file(&file),
                line,
                column,
            });
        }
        if licensed_flags != probed_flags {
            return Err(format!(
                "{ctx} ({family}/{substrate}): licensed flags disagree with probed flags — \
                 licensing is defined as probing evidence"
            ));
        }
        let unprobed_sites: BTreeSet<usize> = (0..sites.len())
            .filter(|s| !probed_flags.contains(s))
            .collect();
        if let Some(s) = unprobed_sites.iter().find(|s| !racy_flags.contains(s)) {
            return Err(format!(
                "{ctx} ({family}/{substrate}): site {s} is unprobed but not marked racy — \
                 unknown must classify as top"
            ));
        }

        // The op index comes first: every footprint and matrix label
        // must be drawn from it.
        let mut ops: Vec<String> = Vec::new();
        for (i, item) in top.array("ops")?.into_iter().enumerate() {
            let Json::Str(o) = item else {
                return Err(format!("{ctx}: ops[{i}] must be a string"));
            };
            if let Some(prev) = ops.last() {
                if *prev >= o {
                    return Err(format!(
                        "{ctx}: ops must be strictly sorted (\"{prev}\" before \"{o}\")"
                    ));
                }
            }
            ops.push(o);
        }
        let in_ops = |lctx: &str, label: &str| {
            if ops.binary_search_by(|o| o.as_str().cmp(label)).is_ok() {
                Ok(())
            } else {
                Err(format!(
                    "{lctx}: label \"{label}\" is not in ops (every label must be drawn from \
                     the op index)"
                ))
            }
        };

        let mut footprints = Vec::new();
        for (i, item) in top.array("footprints")?.into_iter().enumerate() {
            let fctx = format!("{ctx}: footprints[{i}]");
            let mut f = Fields::exact(
                item,
                &fctx,
                &["op", "proc", "reads", "writes", "rmws", "value_dependent"],
            )?;
            let op = f.string("op")?;
            in_ops(&fctx, &op)?;
            footprints.push(OpFootprint {
                op,
                proc: f.num("proc")? as usize,
                reads: id_set(&mut f, &fctx, "reads", sites.len())?,
                writes: id_set(&mut f, &fctx, "writes", sites.len())?,
                rmws: id_set(&mut f, &fctx, "rmws", sites.len())?,
                value_dependent: id_set(&mut f, &fctx, "value_dependent", sites.len())?,
            });
        }

        let mut conflicts = Vec::new();
        for (i, item) in top.array("may_conflict")?.into_iter().enumerate() {
            let cctx = format!("{ctx}: may_conflict[{i}]");
            let mut f = Fields::exact(item, &cctx, &["a", "b", "sites", "kinds"])?;
            let a = f.string("a")?;
            let b = f.string("b")?;
            if a > b {
                return Err(format!("{cctx}: cell ({a}, {b}) is not label-normalised"));
            }
            in_ops(&cctx, &a)?;
            in_ops(&cctx, &b)?;
            let cell_sites = id_set(&mut f, &cctx, "sites", sites.len())?;
            let mut kinds = BTreeSet::new();
            for k in f.array("kinds")? {
                let Json::Str(k) = k else {
                    return Err(format!("{cctx}: \"kinds\" must hold strings"));
                };
                if !kinds.insert(k) {
                    return Err(format!("{cctx}: duplicate kind pair"));
                }
            }
            conflicts.push(ConflictEntry {
                a,
                b,
                sites: cell_sites,
                kinds,
            });
        }

        let mut pairs: Vec<PairEntry> = Vec::new();
        for (i, item) in top.array("pairs")?.into_iter().enumerate() {
            let pctx = format!("{ctx}: pairs[{i}]");
            let mut f = Fields::exact(item, &pctx, &["a", "b", "observed", "conflict"])?;
            let a = f.num("a")? as usize;
            let b = f.num("b")? as usize;
            if a > b || b >= ops.len() {
                return Err(format!(
                    "{pctx}: op indices ({a}, {b}) must satisfy a <= b < {} ops",
                    ops.len()
                ));
            }
            if let Some(prev) = pairs.last() {
                if (prev.a, prev.b) >= (a, b) {
                    return Err(format!(
                        "{pctx}: pair cells must be strictly sorted by (a, b) — duplicate or \
                         out-of-order cell ({a}, {b})"
                    ));
                }
            }
            let observed = id_set(&mut f, &pctx, "observed", sites.len())?;
            let conflict = id_set(&mut f, &pctx, "conflict", sites.len())?;
            if !conflict.is_subset(&observed) {
                return Err(format!(
                    "{pctx}: conflict sites must be a subset of observed sites"
                ));
            }
            pairs.push(PairEntry {
                a,
                b,
                observed,
                conflict,
            });
        }

        let lctx = format!("{ctx}: placement");
        let mut placement = Fields::exact(
            top.take("placement")?,
            &lctx,
            &["licensed_sites", "race_free_sites", "guard"],
        )?;
        let licensed_sites = id_set(&mut placement, &lctx, "licensed_sites", sites.len())?;
        if licensed_sites != licensed_flags {
            return Err(format!(
                "{ctx} ({family}/{substrate}): placement.licensed_sites disagrees with the \
                 per-site licensed flags"
            ));
        }
        let race_free = id_set(&mut placement, &lctx, "race_free_sites", sites.len())?;
        let expect_race_free: BTreeSet<usize> =
            licensed_sites.difference(&racy_flags).copied().collect();
        if race_free != expect_race_free {
            return Err(format!(
                "{ctx} ({family}/{substrate}): placement.race_free_sites is not \
                 licensed_sites minus racy sites — the partition is inconsistent"
            ));
        }
        placement.string("guard")?;

        Ok(Certificate {
            family,
            substrate,
            version,
            procs,
            sites,
            footprints,
            conflicts,
            ops,
            pairs,
            licensed_sites,
            racy_sites: racy_flags,
            unprobed_sites,
        })
    }
}

/// Parses a whole catalog ([`catalog_json`] output). Fails closed on
/// the first invalid certificate, naming its index, and on any text
/// that is not exactly the parsed catalog's [`catalog_json`].
pub fn catalog_from_json(text: &str) -> Result<Vec<Certificate>, String> {
    let Json::Arr(items) = Parser::new(text, "certificate catalog").parse_document()? else {
        return Err("certificate catalog: expected a top-level array".to_string());
    };
    let certs = items
        .into_iter()
        .enumerate()
        .map(|(i, v)| Certificate::from_value(v, &format!("certificate[{i}]")))
        .collect::<Result<Vec<_>, _>>()?;
    if catalog_json(&certs) != text {
        return Err(non_canonical("certificate catalog"));
    }
    Ok(certs)
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
