//! Static access-footprint analysis for the schedule explorer.
//!
//! This crate turns one-shot **abstract dry runs** of every object
//! operation — executed on the footprint-recording
//! [`sl_mem::SymMem`] backend, with no scheduler and no interleaving —
//! into a per-object [`Certificate`]: per-op may-read/may-write
//! footprints, an op × op **may-conflict matrix**, and a
//! **placement-commutation certificate** naming the registers on which
//! invocation-placement relaxation is licensed.
//!
//! The simulator consumes the runtime form
//! ([`Certificate::static_conflicts`]) under
//! `sl_sim::PruneMode::OptimalDpor`, which consults an installed
//! certificate as the certificate layer of its independence relation:
//! the explorer's `Local` (invocation-pause) steps stop conflicting
//! with everything and instead commute with marker-free data steps on
//! licensed registers — pruning the invocation-placement branching the
//! relation must otherwise explore. The analysis is **fail-closed in
//! both directions**:
//!
//! * unprobed registers are unlicensed — an incomplete analysis prunes
//!   nothing;
//! * every data race the dynamic detector observes must be predicted
//!   by the matrix — an unpredicted race aborts the exploration with a
//!   diagnostic naming the register and its probed footprint.
//!
//! Because `sl_mem::Mem::alloc` is `#[track_caller]` under every
//! backend, the `(name, file, line, column)` identity a probe records
//! for each register is byte-identical to the `sl_check::RegSym` the
//! simulator interns when the same algorithm runs under
//! `sl_sim::SimMem` — that identity match is the bridge from static
//! footprints to dynamically traced steps. Registers allocated in
//! loops or sized by the process count are matched by allocation
//! *site*, so one probe configuration covers differently sized runs.
//!
//! # Example
//!
//! ```
//! use sl_api::sim::{explore_object_dag, SimExplore};
//! use sl_api::ObjectBuilder;
//! use sl_sim::PruneMode;
//! use sl_spec::{AbaOp, AbaSpec};
//! use std::sync::Arc;
//!
//! // Probe Algorithm 2's footprints and build the certificate.
//! let cert = sl_analyze::aba_certificate(2);
//! assert!(!cert.licensed_sites.is_empty());
//!
//! // Explore with the certificate: same verdict, fewer schedules.
//! let cfg = SimExplore {
//!     mode: PruneMode::OptimalDpor,
//!     statics: Some(Arc::new(cert.static_conflicts())),
//!     workers: 1,
//!     ..SimExplore::default()
//! };
//! let explored = explore_object_dag::<AbaSpec<u64>, _, _>(
//!     |mem| ObjectBuilder::on(mem).processes(2).aba_register::<u64>(),
//!     &[vec![AbaOp::DWrite(1)], vec![AbaOp::DRead]],
//!     &cfg,
//! );
//! assert!(explored.check_strong(&AbaSpec::new(2)).holds);
//! ```

#![deny(unsafe_code)]

mod certificate;
mod probe;

pub use certificate::{
    catalog_json, Certificate, ConflictEntry, OpFootprint, PairEntry, PairObs, CERT_VERSION,
};
pub use probe::{op_label, probe_object, probe_object_with};

use sl_api::{ObjectBuilder, UniversalOps};
use sl_spec::{
    AbaOp, AbaSpec, CounterOp, CounterSpec, MaxRegisterOp, MaxRegisterSpec, SnapshotOp,
    SnapshotSpec,
};
use sl_universal::types::CounterType;

/// Probe passes used by the canned certificates: two full plan
/// repetitions, so second-visit code paths (non-empty snapshots,
/// toggled handshake bits) contribute to the may-sets.
const PASSES: usize = 2;

fn aba_plan(n: usize) -> Vec<Vec<AbaOp<u64>>> {
    (0..n as u64)
        .map(|p| {
            vec![
                AbaOp::DWrite(10 * p + 1),
                AbaOp::DWrite(10 * p + 2),
                AbaOp::DRead,
            ]
        })
        .collect()
}

fn snapshot_plan(n: usize) -> Vec<Vec<SnapshotOp<u64>>> {
    (0..n as u64)
        .map(|p| {
            vec![
                SnapshotOp::Update(10 * p + 1),
                SnapshotOp::Update(10 * p + 2),
                SnapshotOp::Scan,
            ]
        })
        .collect()
}

fn counter_plan(n: usize) -> Vec<Vec<CounterOp>> {
    (0..n)
        .map(|_| vec![CounterOp::Inc, CounterOp::Inc, CounterOp::Read])
        .collect()
}

fn max_plan(n: usize, cap: u64) -> Vec<Vec<MaxRegisterOp>> {
    (0..n as u64)
        .map(|p| {
            vec![
                MaxRegisterOp::MaxWrite((2 * p + 1).min(cap - 1)),
                MaxRegisterOp::MaxWrite((2 * p + 2).min(cap - 1)),
                MaxRegisterOp::MaxRead,
            ]
        })
        .collect()
}

/// Capacity the canned trie max-register certificate probes with.
pub const TRIE_CAPACITY: u64 = 8;

/// Algorithm 2 (`SlAbaRegister`): the certificate behind the
/// `aba_mixed3` / deep-mixed exploration baselines.
pub fn aba_certificate(procs: usize) -> Certificate {
    probe_object::<AbaSpec<u64>, _, _>(
        "aba",
        "-",
        |mem| {
            ObjectBuilder::on(mem)
                .processes(procs)
                .aba_register::<u64>()
        },
        &aba_plan(procs),
        PASSES,
    )
}

/// Algorithm 1 (`AwAbaRegister`, merely linearizable).
pub fn lin_aba_certificate(procs: usize) -> Certificate {
    probe_object::<AbaSpec<u64>, _, _>(
        "lin-aba",
        "-",
        |mem| {
            ObjectBuilder::on(mem)
                .processes(procs)
                .lin_aba_register::<u64>()
        },
        &aba_plan(procs),
        PASSES,
    )
}

/// The atomic one-step ABA register (`R` of Algorithm 3 as stated).
pub fn atomic_aba_certificate(procs: usize) -> Certificate {
    probe_object::<AbaSpec<u64>, _, _>(
        "atomic-aba",
        "-",
        |mem| {
            ObjectBuilder::on(mem)
                .processes(procs)
                .atomic_aba_register::<u64>()
        },
        &aba_plan(procs),
        PASSES,
    )
}

/// The atomic one-step snapshot (Algorithm 4's model object `S`).
pub fn atomic_snapshot_certificate(procs: usize) -> Certificate {
    probe_object::<SnapshotSpec<u64>, _, _>(
        "atomic-snapshot",
        "-",
        |mem| {
            ObjectBuilder::on(mem)
                .processes(procs)
                .atomic_snapshot::<u64>()
        },
        &snapshot_plan(procs),
        PASSES,
    )
}

/// The Aspnes–Attiya–Censor bounded trie max-register.
pub fn trie_max_register_certificate(procs: usize) -> Certificate {
    probe_object::<MaxRegisterSpec, _, _>(
        "trie-max-register",
        "-",
        |mem| {
            ObjectBuilder::on(mem)
                .processes(procs)
                .trie_max_register(TRIE_CAPACITY)
        },
        &max_plan(procs, TRIE_CAPACITY),
        PASSES,
    )
}

macro_rules! substrate_certificates {
    ($certs:ident, $n:expr, $name:expr, $sel:ident) => {
        $certs.push(probe_object::<SnapshotSpec<u64>, _, _>(
            "snapshot",
            $name,
            |mem| {
                ObjectBuilder::on(mem)
                    .processes($n)
                    .$sel()
                    .snapshot::<u64>()
            },
            &snapshot_plan($n),
            PASSES,
        ));
        $certs.push(probe_object::<CounterSpec, _, _>(
            "counter",
            $name,
            |mem| ObjectBuilder::on(mem).processes($n).$sel().counter(),
            &counter_plan($n),
            PASSES,
        ));
        $certs.push(probe_object::<MaxRegisterSpec, _, _>(
            "max-register",
            $name,
            |mem| ObjectBuilder::on(mem).processes($n).$sel().max_register(),
            &max_plan($n, u64::MAX),
            PASSES,
        ));
        $certs.push(probe_object_with::<CounterSpec, _, _, _>(
            "universal-counter",
            $name,
            |mem| {
                ObjectBuilder::on(mem)
                    .processes($n)
                    .$sel()
                    .universal(CounterType)
            },
            &counter_plan($n),
            PASSES,
            |h, op| UniversalOps::execute(h, op.clone()),
        ));
    };
}

macro_rules! lin_snapshot_certificate {
    ($certs:ident, $n:expr, $name:expr, $sel:ident) => {
        $certs.push(probe_object::<SnapshotSpec<u64>, _, _>(
            "lin-snapshot",
            $name,
            |mem| {
                ObjectBuilder::on(mem)
                    .processes($n)
                    .$sel()
                    .lin_snapshot::<u64>()
            },
            &snapshot_plan($n),
            PASSES,
        ));
    };
}

/// Probes **every family × substrate** the [`ObjectBuilder`] exposes
/// at the given process count and returns one certificate each: the
/// five substrate-independent families, then snapshot / counter /
/// max-register / universal-counter on all five substrates, then the
/// three raw linearizable substrates.
pub fn catalog(procs: usize) -> Vec<Certificate> {
    let mut certs = vec![
        aba_certificate(procs),
        lin_aba_certificate(procs),
        atomic_aba_certificate(procs),
        atomic_snapshot_certificate(procs),
        trie_max_register_certificate(procs),
    ];
    substrate_certificates!(certs, procs, "double-collect", double_collect);
    substrate_certificates!(certs, procs, "afek", afek);
    substrate_certificates!(certs, procs, "bounded-handshake", bounded_handshake);
    substrate_certificates!(certs, procs, "versioned", versioned);
    substrate_certificates!(certs, procs, "double-collect+atomic-R", atomic_r);
    lin_snapshot_certificate!(certs, procs, "double-collect", double_collect);
    lin_snapshot_certificate!(certs, procs, "afek", afek);
    lin_snapshot_certificate!(certs, procs, "bounded-handshake", bounded_handshake);
    certs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_strip_arguments() {
        assert_eq!(op_label(&AbaOp::DWrite(3u64)), "DWrite");
        assert_eq!(op_label(&AbaOp::<u64>::DRead), "DRead");
        assert_eq!(op_label(&SnapshotOp::Update(9u64)), "Update");
        assert_eq!(op_label(&CounterOp::Inc), "Inc");
    }

    #[test]
    fn aba_footprints_cover_the_algorithm() {
        let cert = aba_certificate(2);
        assert_eq!(cert.procs, 2);
        assert!(!cert.sites.is_empty());
        // Every op of the plan produced a footprint per process.
        let labels: std::collections::BTreeSet<(&str, usize)> = cert
            .footprints
            .iter()
            .map(|f| (f.op.as_str(), f.proc))
            .collect();
        for p in 0..2 {
            assert!(labels.contains(&("DWrite", p)), "{labels:?}");
            assert!(labels.contains(&("DRead", p)), "{labels:?}");
        }
        // DWrite writes something; the write/≥read conflict shows up in
        // the matrix; every touched site is licensed.
        assert!(cert
            .footprints
            .iter()
            .any(|f| f.op == "DWrite" && (!f.writes.is_empty() || !f.rmws.is_empty())));
        assert!(cert
            .conflicts
            .iter()
            .any(|c| c.a == "DRead" && c.b == "DWrite" && !c.sites.is_empty()));
        assert!(!cert.licensed_sites.is_empty());
        // Racy over-approximates: every conflict site is racy.
        for c in &cert.conflicts {
            for s in &c.sites {
                assert!(cert.racy_sites.contains(s));
            }
        }
    }

    #[test]
    fn read_only_sites_are_licensed_but_not_racy() {
        // A synthetic object: one register everyone only reads, one
        // register everyone writes.
        use sl_mem::{Mem, Register};
        use sl_spec::RegisterOp;

        #[derive(Clone)]
        struct Pair<M: Mem> {
            ro: M::Reg<u64>,
            rw: M::Reg<u64>,
        }
        #[derive(Clone)]
        struct PairObj<M: Mem>(Pair<M>, sl_spec::ProcId);
        impl sl_api::ObjectHandle for PairObj<sl_mem::SymMem> {
            fn proc(&self) -> sl_spec::ProcId {
                self.1
            }
        }
        impl sl_api::SharedObject<sl_mem::SymMem> for Pair<sl_mem::SymMem> {
            type Guarantee = sl_api::Strong;
            type Handle = PairObj<sl_mem::SymMem>;
            fn handle(&self, p: sl_spec::ProcId) -> Self::Handle {
                PairObj(self.clone(), p)
            }
            fn processes(&self) -> Option<usize> {
                None
            }
        }

        let cert = probe_object_with::<sl_spec::RegisterSpec<u64>, _, _, _>(
            "synthetic",
            "-",
            |mem| Pair {
                ro: mem.alloc("RO", 7u64),
                rw: mem.alloc("RW", 0u64),
            },
            &[
                vec![RegisterOp::Read],
                vec![RegisterOp::Write(1), RegisterOp::Read],
            ],
            1,
            |h, op| match op {
                RegisterOp::Read => {
                    let _ = h.0.ro.read();
                    sl_spec::RegisterResp::Value(Some(h.0.rw.read()))
                }
                RegisterOp::Write(v) => {
                    let _ = h.0.ro.read();
                    h.0.rw.write(*v);
                    sl_spec::RegisterResp::Ack
                }
            },
        );
        let ro = cert.sites.iter().position(|s| s.name == "RO").unwrap();
        let rw = cert.sites.iter().position(|s| s.name == "RW").unwrap();
        assert!(cert.licensed_sites.contains(&ro));
        assert!(cert.licensed_sites.contains(&rw));
        assert!(!cert.racy_sites.contains(&ro), "read-only is race-free");
        assert!(cert.racy_sites.contains(&rw), "written site is racy");
        let st = cert.static_conflicts();
        assert!(st.licensed(cert.site_sym(ro)));
        assert!(!st.racy(cert.site_sym(ro)));
        assert!(st.racy(cert.site_sym(rw)));
        assert!(st.describe(cert.site_sym(rw)).contains("Write@p1"));
    }

    #[test]
    fn certificates_serialize_as_json() {
        let cert = aba_certificate(2);
        let json = cert.to_json();
        for key in [
            "\"family\": \"aba\"",
            "\"sites\"",
            "\"footprints\"",
            "\"may_conflict\"",
            "\"placement\"",
            "\"licensed\"",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        let arr = catalog_json(&[cert.clone(), cert]);
        assert!(arr.starts_with('[') && arr.ends_with(']'));
    }

    #[test]
    fn pair_matrix_covers_probed_pairs_and_round_trips() {
        let cert = aba_certificate(2);
        assert!(cert.ops.contains(&"DRead".to_string()));
        assert!(cert.ops.contains(&"DWrite".to_string()));
        // Every unordered pair of planned cross-process ops got a cell,
        // and the DRead/DWrite cell predicts a conflict somewhere.
        assert!(!cert.pairs.is_empty());
        let dw = cert
            .pair_conflict_syms("DRead", "DWrite")
            .expect("DRead/DWrite probed concurrently");
        assert!(!dw.is_empty());
        // Every cell survives the trip into the runtime form the
        // explorer consults, in either argument order.
        let st = cert.static_conflicts();
        for p in &cert.pairs {
            let (a, b) = (cert.ops[p.a].as_str(), cert.ops[p.b].as_str());
            let conflict = cert.pair_conflict_syms(b, a).unwrap();
            for (x, y) in [(a, b), (b, a)] {
                let (x, y) = (sl_check::OpSym::intern(x), sl_check::OpSym::intern(y));
                assert!(st.pair_probed(x, y), "{a}/{b}");
                for &s in &p.observed {
                    assert!(st.pair_licensed(x, y, cert.site_sym(s)), "{a}/{b} site {s}");
                }
                for &sym in &conflict {
                    assert_eq!(st.pair_predicts(x, y, sym), Some(true), "{a}/{b}");
                }
            }
        }
    }

    /// The invariants `Certificate::build` promises every certificate:
    /// distinct site identities, in-range site ids, the licensed /
    /// racy / unprobed partition, and a sorted op index that every
    /// label and sorted pair cell is drawn from.
    fn assert_well_formed(cert: &Certificate) {
        use std::collections::BTreeSet;
        let name = format!("{}/{}@{}", cert.family, cert.substrate, cert.procs);
        let n = cert.sites.len();
        let identities: BTreeSet<_> = cert
            .sites
            .iter()
            .map(|s| (&s.name, s.file, s.line, s.column))
            .collect();
        assert_eq!(identities.len(), n, "{name}: duplicate site identity");
        let in_range = |what: &str, set: &BTreeSet<usize>| {
            if let Some(s) = set.iter().find(|&&s| s >= n) {
                panic!("{name}: {what} names site {s} of {n}");
            }
        };
        in_range("racy", &cert.racy_sites);
        in_range("unprobed", &cert.unprobed_sites);
        let probed: BTreeSet<usize> = (0..n)
            .filter(|s| !cert.unprobed_sites.contains(s))
            .collect();
        assert_eq!(cert.licensed_sites, probed, "{name}: licensed != probed");
        assert!(
            cert.unprobed_sites.is_subset(&cert.racy_sites),
            "{name}: an unprobed site is not racy"
        );
        assert!(
            cert.ops.windows(2).all(|w| w[0] < w[1]),
            "{name}: ops not strictly sorted: {:?}",
            cert.ops
        );
        let in_ops = |label: &str| cert.ops.iter().any(|o| o == label);
        for f in &cert.footprints {
            assert!(in_ops(&f.op), "{name}: footprint op {} not in ops", f.op);
            for set in [&f.reads, &f.writes, &f.rmws, &f.value_dependent] {
                in_range("footprint", set);
            }
        }
        for c in &cert.conflicts {
            let cell = format!("{name}: may_conflict ({}, {})", c.a, c.b);
            assert!(c.a <= c.b, "{cell} is unordered");
            assert!(
                in_ops(&c.a) && in_ops(&c.b),
                "{cell} has a label not in ops"
            );
            in_range("may_conflict", &c.sites);
        }
        assert!(
            cert.pairs
                .windows(2)
                .all(|w| (w[0].a, w[0].b) < (w[1].a, w[1].b)),
            "{name}: pair cells not strictly sorted"
        );
        for p in &cert.pairs {
            let cell = format!("{name}: pair ({}, {})", p.a, p.b);
            assert!(
                p.a <= p.b && p.b < cert.ops.len(),
                "{cell} is out of order or range"
            );
            assert!(
                p.conflict.is_subset(&p.observed),
                "{cell} conflicts outside observed"
            );
            in_range("pair", &p.observed);
        }
    }

    #[test]
    fn the_catalog_covers_every_family_and_substrate() {
        let mut certs = catalog(2);
        // 5 standalone + 4 families × 5 substrates + 3 lin-snapshots.
        assert_eq!(certs.len(), 28);
        // The checked-in catalog's 29th entry: the 3-process Algorithm 2
        // certificate the mixed-role workloads install.
        certs.push(aba_certificate(3));
        for cert in &certs {
            assert_well_formed(cert);
            assert!(
                !cert.licensed_sites.is_empty(),
                "{}/{} probed nothing",
                cert.family,
                cert.substrate
            );
            assert!(
                !cert.footprints.is_empty(),
                "{}/{} has no footprints",
                cert.family,
                cert.substrate
            );
        }
    }
}
