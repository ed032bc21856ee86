//! The matrix over-approximation suite (fail-closed validation,
//! exercised positively and negatively).
//!
//! For **every family × substrate** the builder exposes, exploring a
//! contended workload under `PruneMode::OptimalDpor` with the probed
//! certificate installed runs the dynamic race detector over the
//! refined relation: every observed race is checked against the static
//! may-conflict matrix, and an unpredicted race panics. Each test below
//! completing therefore *is* the proof that the static matrix ⊇ the
//! dynamically observed races for that configuration — plus a verdict
//! cross-check against the `SourceDpor` reference, and one test driving
//! the fail-closed abort on purpose with a doctored certificate.

use std::sync::Arc;

use sl_analyze::Certificate;
use sl_api::sim::{explore_object_dag, explore_object_dag_with, DriveOps, SimExplore};
use sl_api::{ObjectBuilder, SharedObject, UniversalOps};
use sl_sim::{PruneMode, SimMem, StaticConflicts};
use sl_spec::{
    AbaOp, AbaSpec, CounterOp, CounterSpec, MaxRegisterOp, MaxRegisterSpec, SeqSpec, SnapshotOp,
    SnapshotSpec,
};
use sl_universal::types::CounterType;

fn cfg(mode: PruneMode, statics: Option<Arc<StaticConflicts>>, budget: usize) -> SimExplore {
    SimExplore {
        mode,
        workers: 1,
        statics,
        max_runs: budget,
        ..SimExplore::default()
    }
}

/// Run budget for configurations whose full schedule space exhausts
/// quickly; such explorations also get the SourceDpor verdict
/// cross-check.
const FULL: usize = 200_000;
/// Run budget for the heavyweight wait-free substrates (helping makes
/// their 2-process spaces enormous). A bounded sample still arms the
/// fail-closed validator on every explored schedule, which is what
/// this suite is about; exhaustive verdicts for representative combos
/// live in the differential suite.
const SAMPLED: usize = 1_500;

/// Explores under OptimalDpor with the certificate — the fail-closed
/// validator checks every dynamically observed race against `cert`'s
/// matrix, so completing without a panic is the over-approximation
/// proof — and cross-checks the verdict against SourceDpor when the
/// space was exhausted.
fn assert_overapproximates<S, O, F>(
    label: &str,
    spec: &S,
    factory: F,
    workload: &[Vec<S::Op>],
    cert: &Certificate,
    budget: usize,
) where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    O::Handle: DriveOps<S>,
    F: Fn(&SimMem) -> O + Send + Sync + Copy,
{
    let st = Arc::new(cert.static_conflicts());
    st.enable_race_recording();
    let pruned = explore_object_dag::<S, O, F>(
        factory,
        workload,
        &cfg(PruneMode::OptimalDpor, Some(Arc::clone(&st)), budget),
    );
    assert!(pruned.outcome.runs > 0, "{label}: nothing explored");
    assert_pair_superset(label, cert, &st);
    if !pruned.outcome.exhausted {
        return;
    }
    let baseline =
        explore_object_dag::<S, O, F>(factory, workload, &cfg(PruneMode::SourceDpor, None, budget));
    if baseline.outcome.exhausted {
        assert_eq!(
            baseline.check_strong(spec).holds,
            pruned.check_strong(spec).holds,
            "{label}: verdict diverged"
        );
    }
}

/// The op-pair leg of the over-approximation proof: every race the
/// dynamic detector attributed to a pair of *tagged* ops must sit in
/// that pair's conflict cell of the certificate matrix. Races with an
/// untagged side (steps before the first invocation marker) are
/// covered by the per-register leg alone.
fn assert_pair_superset(label: &str, cert: &Certificate, st: &StaticConflicts) {
    let mut checked = 0;
    for (oa, ob, reg) in st.recorded_races() {
        if oa.is_none() || ob.is_none() {
            continue;
        }
        let conflict = cert
            .pair_conflict_syms(oa.name(), ob.name())
            .unwrap_or_else(|| {
                panic!(
                    "{label}: dynamic race between {oa:?}/{ob:?} but the pair has no matrix cell"
                )
            });
        assert!(
            conflict.contains(&reg),
            "{label}: dynamic {oa:?}/{ob:?} race on {reg:?} missing from the pair's conflict cell"
        );
        checked += 1;
    }
    let _ = checked;
}

const W: u64 = 1;

fn aba_workload() -> Vec<Vec<AbaOp<u64>>> {
    vec![vec![AbaOp::DWrite(W)], vec![AbaOp::DRead]]
}

fn snapshot_workload() -> Vec<Vec<SnapshotOp<u64>>> {
    vec![vec![SnapshotOp::Update(W)], vec![SnapshotOp::Scan]]
}

fn counter_workload() -> Vec<Vec<CounterOp>> {
    vec![vec![CounterOp::Inc], vec![CounterOp::Read]]
}

fn max_workload() -> Vec<Vec<MaxRegisterOp>> {
    vec![
        vec![MaxRegisterOp::MaxWrite(W)],
        vec![MaxRegisterOp::MaxRead],
    ]
}

fn cert(certs: &[Certificate], family: &str, substrate: &str) -> Certificate {
    certs
        .iter()
        .find(|c| c.family == family && c.substrate == substrate)
        .unwrap_or_else(|| panic!("no certificate for {family}/{substrate}"))
        .clone()
}

#[test]
fn standalone_families_overapproximate() {
    let certs = sl_analyze::catalog(2);
    assert_overapproximates(
        "aba",
        &AbaSpec::new(2),
        |mem: &SimMem| ObjectBuilder::on(mem).processes(2).aba_register::<u64>(),
        &aba_workload(),
        &cert(&certs, "aba", "-"),
        FULL,
    );
    assert_overapproximates(
        "lin-aba",
        &AbaSpec::new(2),
        |mem: &SimMem| {
            ObjectBuilder::on(mem)
                .processes(2)
                .lin_aba_register::<u64>()
        },
        &aba_workload(),
        &cert(&certs, "lin-aba", "-"),
        FULL,
    );
    assert_overapproximates(
        "atomic-aba",
        &AbaSpec::new(2),
        |mem: &SimMem| {
            ObjectBuilder::on(mem)
                .processes(2)
                .atomic_aba_register::<u64>()
        },
        &aba_workload(),
        &cert(&certs, "atomic-aba", "-"),
        FULL,
    );
    assert_overapproximates(
        "atomic-snapshot",
        &SnapshotSpec::new(2),
        |mem: &SimMem| ObjectBuilder::on(mem).processes(2).atomic_snapshot::<u64>(),
        &snapshot_workload(),
        &cert(&certs, "atomic-snapshot", "-"),
        FULL,
    );
    assert_overapproximates(
        "trie-max-register",
        &MaxRegisterSpec,
        |mem: &SimMem| {
            ObjectBuilder::on(mem)
                .processes(2)
                .trie_max_register(sl_analyze::TRIE_CAPACITY)
        },
        &max_workload(),
        &cert(&certs, "trie-max-register", "-"),
        FULL,
    );
}

macro_rules! substrate_overapprox_test {
    ($test:ident, $sel:ident, $name:expr) => {
        #[test]
        fn $test() {
            let certs = sl_analyze::catalog(2);
            assert_overapproximates(
                concat!($name, " snapshot"),
                &SnapshotSpec::new(2),
                |mem: &SimMem| ObjectBuilder::on(mem).processes(2).$sel().snapshot::<u64>(),
                &snapshot_workload(),
                &cert(&certs, "snapshot", $name),
                SAMPLED,
            );
            assert_overapproximates(
                concat!($name, " counter"),
                &CounterSpec,
                |mem: &SimMem| ObjectBuilder::on(mem).processes(2).$sel().counter(),
                &counter_workload(),
                &cert(&certs, "counter", $name),
                SAMPLED,
            );
            assert_overapproximates(
                concat!($name, " max-register"),
                &MaxRegisterSpec,
                |mem: &SimMem| ObjectBuilder::on(mem).processes(2).$sel().max_register(),
                &max_workload(),
                &cert(&certs, "max-register", $name),
                SAMPLED,
            );
        }
    };
}

/// §5 universal construction (explicit apply closure): a bounded
/// certified OptimalDpor sample with the validator armed.
macro_rules! universal_overapprox_test {
    ($test:ident, $sel:ident, $name:expr) => {
        #[test]
        fn $test() {
            let certs = sl_analyze::catalog(2);
            let uni_cert = cert(&certs, "universal-counter", $name);
            let st = Arc::new(uni_cert.static_conflicts());
            st.enable_race_recording();
            let pruned = explore_object_dag_with::<CounterSpec, _, _, _>(
                |mem: &SimMem| {
                    ObjectBuilder::on(mem)
                        .processes(2)
                        .$sel()
                        .universal(CounterType)
                },
                &counter_workload(),
                |h, op| UniversalOps::execute(h, op.clone()),
                &cfg(PruneMode::OptimalDpor, Some(Arc::clone(&st)), SAMPLED),
            );
            assert!(pruned.outcome.runs > 0);
            assert_pair_superset(concat!($name, " universal-counter"), &uni_cert, &st);
            if pruned.outcome.exhausted {
                assert!(pruned.check_strong(&CounterSpec).holds);
            }
        }
    };
}

universal_overapprox_test!(
    double_collect_universal_overapproximates,
    double_collect,
    "double-collect"
);
universal_overapprox_test!(afek_universal_overapproximates, afek, "afek");
universal_overapprox_test!(
    bounded_handshake_universal_overapproximates,
    bounded_handshake,
    "bounded-handshake"
);
universal_overapprox_test!(
    atomic_r_universal_overapproximates,
    atomic_r,
    "double-collect+atomic-R"
);
// The versioned pairing below used to die inside `sl_universal`'s
// linearization graph ("must be acyclic"): `UnaryMaxRegister` cached
// register handles it allocated *during* a run across replay-world
// resets, so a replayed schedule read views a previous schedule wrote
// and cross-execution `preceding` edges cycled the precedence graph.
// Fixed by `Mem::epoch`-based cache invalidation; the pairing now runs
// as a first-class member of the matrix.
universal_overapprox_test!(versioned_universal_overapproximates, versioned, "versioned");

substrate_overapprox_test!(
    double_collect_overapproximates,
    double_collect,
    "double-collect"
);
substrate_overapprox_test!(afek_overapproximates, afek, "afek");
substrate_overapprox_test!(
    bounded_handshake_overapproximates,
    bounded_handshake,
    "bounded-handshake"
);
substrate_overapprox_test!(versioned_overapproximates, versioned, "versioned");
substrate_overapprox_test!(
    atomic_r_overapproximates,
    atomic_r,
    "double-collect+atomic-R"
);

#[test]
fn lin_snapshots_overapproximate() {
    let certs = sl_analyze::catalog(2);
    assert_overapproximates(
        "double-collect lin-snapshot",
        &SnapshotSpec::new(2),
        |mem: &SimMem| {
            ObjectBuilder::on(mem)
                .processes(2)
                .double_collect()
                .lin_snapshot::<u64>()
        },
        &snapshot_workload(),
        &cert(&certs, "lin-snapshot", "double-collect"),
        SAMPLED,
    );
    assert_overapproximates(
        "afek lin-snapshot",
        &SnapshotSpec::new(2),
        |mem: &SimMem| {
            ObjectBuilder::on(mem)
                .processes(2)
                .afek()
                .lin_snapshot::<u64>()
        },
        &snapshot_workload(),
        &cert(&certs, "lin-snapshot", "afek"),
        SAMPLED,
    );
    assert_overapproximates(
        "bounded-handshake lin-snapshot",
        &SnapshotSpec::new(2),
        |mem: &SimMem| {
            ObjectBuilder::on(mem)
                .processes(2)
                .bounded_handshake()
                .lin_snapshot::<u64>()
        },
        &snapshot_workload(),
        &cert(&certs, "lin-snapshot", "bounded-handshake"),
        SAMPLED,
    );
}

/// The negative direction: a certificate whose racy set was emptied
/// must make the very first observed race abort the subtree with the
/// fail-closed diagnostic — proving the validator is actually armed on
/// this path. The explorer's panic quarantine converts the abort into
/// a *partial* (never silently passing) outcome carrying the message.
#[test]
fn doctored_certificate_fails_closed() {
    let cert = sl_analyze::aba_certificate(2);
    let st = Arc::new(StaticConflicts::new(cert.licensed_syms(), []));
    let explored = explore_object_dag::<AbaSpec<u64>, _, _>(
        |mem: &SimMem| ObjectBuilder::on(mem).processes(2).aba_register::<u64>(),
        &aba_workload(),
        &cfg(PruneMode::OptimalDpor, Some(st), FULL),
    );
    let out = &explored.outcome;
    assert!(
        out.partial && !out.exhausted,
        "an unpredicted race must abort"
    );
    assert!(out.quarantined > 0, "the aborting subtree is quarantined");
    let msg = &out.poisoned[0].message;
    assert!(
        msg.contains("not predicted"),
        "unexpected panic message: {msg}"
    );
}

/// The pair-cell variant of the negative direction: with the pair
/// matrix installed but every cell's conflict set emptied (and no
/// per-register fallback), the first attributed race must abort with a
/// diagnostic naming the licensing op pair — proving races really are
/// validated against the pair cell first.
#[test]
fn doctored_pair_cell_fails_closed() {
    let cert = sl_analyze::aba_certificate(2);
    let mut st = StaticConflicts::new(cert.licensed_syms(), []);
    for p in &cert.pairs {
        st.add_pair(
            &cert.ops[p.a],
            &cert.ops[p.b],
            p.observed.iter().map(|&s| cert.site_sym(s)),
            [], // conflict doctored away
        );
    }
    let st = Arc::new(st);
    let explored = explore_object_dag::<AbaSpec<u64>, _, _>(
        |mem: &SimMem| ObjectBuilder::on(mem).processes(2).aba_register::<u64>(),
        &aba_workload(),
        &cfg(PruneMode::OptimalDpor, Some(st), FULL),
    );
    let out = &explored.outcome;
    assert!(
        out.partial && !out.exhausted,
        "an unpredicted race must abort"
    );
    assert!(out.quarantined > 0, "the aborting subtree is quarantined");
    let msg = &out.poisoned[0].message;
    assert!(
        msg.contains("not predicted") && msg.contains("op pair"),
        "unexpected panic message: {msg}"
    );
}

/// Telemetry sanity: the aba exploration both relaxes placements and
/// validates observed races against the matrix.
#[test]
fn telemetry_counts_relaxations_and_validations() {
    let cert = sl_analyze::aba_certificate(2);
    let st = Arc::new(cert.static_conflicts());
    let explored = explore_object_dag::<AbaSpec<u64>, _, _>(
        |mem: &SimMem| ObjectBuilder::on(mem).processes(2).aba_register::<u64>(),
        &[vec![AbaOp::DWrite(1), AbaOp::DWrite(2)], vec![AbaOp::DRead]],
        &cfg(PruneMode::OptimalDpor, Some(Arc::clone(&st)), FULL),
    );
    assert!(explored.outcome.exhausted);
    let t = st.telemetry();
    assert!(t.relaxed > 0, "{t:?}");
    assert!(t.validated > 0, "{t:?}");
}
