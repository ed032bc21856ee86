//! The certificate differential suite: for representative family ×
//! substrate workloads, exploring under `PruneMode::OptimalDpor` with a
//! probed certificate installed must
//!
//! 1. reach the **same strong-linearizability verdict and conflict
//!    depth** as `OptimalDpor` without the certificate,
//! 2. be **bit-identical across worker counts 1/2/4/8** (the
//!    certificate is consulted through an immutable shared reference;
//!    pruning decisions are schedule-local),
//! 3. replay **no more schedules** than `OptimalDpor` without the
//!    certificate — strictly fewer wherever invocation-placement
//!    branching exists to prune — with the wakeup-sequence guarantee of
//!    **zero cut replays**.
//!
//! The reference is the same relation without its certificate layer:
//! the syntactic and unpruned spaces of these workloads do not exhaust
//! within the budget. A randomized sweep at the bottom cross-checks
//! optimal against source DPOR on generated workloads.

use std::sync::Arc;

use sl_api::sim::{explore_object_dag, SimExplore};
use sl_api::ObjectBuilder;
use sl_sim::{ExploreOutcome, PruneMode, StaticConflicts};
use sl_spec::{AbaOp, AbaSpec, CounterOp, CounterSpec, SeqSpec, SnapshotOp, SnapshotSpec};

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn cfg(mode: PruneMode, workers: usize, statics: Option<Arc<StaticConflicts>>) -> SimExplore {
    SimExplore {
        mode,
        workers,
        statics,
        max_runs: 2_000_000,
        ..SimExplore::default()
    }
}

/// Explores `workload`, asserts exhaustion, and returns the outcome
/// plus the strong-linearizability report.
fn run<S, O, F>(
    spec: &S,
    factory: F,
    workload: &[Vec<S::Op>],
    c: &SimExplore,
) -> (ExploreOutcome, sl_check::StrongLinReport)
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: sl_api::SharedObject<sl_sim::SimMem>,
    O::Handle: sl_api::sim::DriveOps<S>,
    F: Fn(&sl_sim::SimMem) -> O + Send + Sync,
{
    let explored = explore_object_dag::<S, O, F>(factory, workload, c);
    assert!(
        explored.outcome.exhausted,
        "budget too small: {:?}",
        explored.outcome
    );
    let report = explored.check_strong(spec);
    (explored.outcome, report)
}

/// The shared differential skeleton: OptimalDpor without a certificate
/// vs OptimalDpor with `statics` installed, across all worker counts.
fn differential<S, O, F>(
    label: &str,
    spec: &S,
    factory: F,
    workload: &[Vec<S::Op>],
    statics: StaticConflicts,
    expect_strictly_fewer: bool,
) where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: sl_api::SharedObject<sl_sim::SimMem>,
    O::Handle: sl_api::sim::DriveOps<S>,
    F: Fn(&sl_sim::SimMem) -> O + Send + Sync + Copy,
{
    let st = Arc::new(statics);
    let (bare_out, bare_rep) = run::<S, O, F>(
        spec,
        factory,
        workload,
        &cfg(PruneMode::OptimalDpor, 1, None),
    );
    let mut certified_outs: Vec<(ExploreOutcome, sl_check::StrongLinReport)> = Vec::new();
    for &w in &WORKER_COUNTS {
        certified_outs.push(run::<S, O, F>(
            spec,
            factory,
            workload,
            &cfg(PruneMode::OptimalDpor, w, Some(Arc::clone(&st))),
        ));
    }
    let (certified_out, certified_rep) = &certified_outs[0];
    for (i, (out, rep)) in certified_outs.iter().enumerate() {
        assert_eq!(
            out, certified_out,
            "{label}: certified OptimalDpor not bit-identical at {} workers",
            WORKER_COUNTS[i]
        );
        assert_eq!(
            (rep.holds, rep.conflict_depth),
            (certified_rep.holds, certified_rep.conflict_depth),
            "{label}: verdict/conflict-depth diverged at {} workers",
            WORKER_COUNTS[i]
        );
    }
    assert_eq!(
        (bare_rep.holds, bare_rep.conflict_depth),
        (certified_rep.holds, certified_rep.conflict_depth),
        "{label}: the certificate changed the strong-lin verdict"
    );
    assert_eq!(
        (bare_out.cut_runs, certified_out.cut_runs),
        (0, 0),
        "{label}: OptimalDpor initiated a sleep-set-blocked replay"
    );
    assert!(
        certified_out.runs <= bare_out.runs,
        "{label}: the certificate replayed more ({} > {})",
        certified_out.runs,
        bare_out.runs
    );
    if expect_strictly_fewer {
        assert!(
            certified_out.runs < bare_out.runs,
            "{label}: expected placement pruning, got {} = {}",
            certified_out.runs,
            bare_out.runs
        );
        assert!(
            st.telemetry().relaxed > 0,
            "{label}: no placement relaxation fired"
        );
    }
}

#[test]
fn aba_mixed_three_process() {
    let workload = vec![
        vec![AbaOp::DWrite(1)],
        vec![AbaOp::DWrite(2)],
        vec![AbaOp::DRead],
    ];
    differential(
        "aba mixed 3-proc",
        &AbaSpec::new(3),
        |mem: &sl_sim::SimMem| ObjectBuilder::on(mem).processes(3).aba_register::<u64>(),
        &workload,
        sl_analyze::aba_certificate(3).static_conflicts(),
        true,
    );
}

#[test]
fn lin_aba_violation_is_preserved() {
    // Algorithm 1 is *not* strongly linearizable; the pruned
    // exploration must still exhibit the violation (same verdict).
    let workload = vec![
        vec![AbaOp::DWrite(1), AbaOp::DWrite(2)],
        vec![AbaOp::DRead, AbaOp::DRead],
    ];
    differential(
        "lin-aba 2-proc",
        &AbaSpec::new(2),
        |mem: &sl_sim::SimMem| {
            ObjectBuilder::on(mem)
                .processes(2)
                .lin_aba_register::<u64>()
        },
        &workload,
        sl_analyze::lin_aba_certificate(2).static_conflicts(),
        false,
    );
}

#[test]
fn double_collect_snapshot() {
    let workload = vec![vec![SnapshotOp::Update(5)], vec![SnapshotOp::Scan]];
    differential(
        "double-collect snapshot",
        &SnapshotSpec::new(2),
        |mem: &sl_sim::SimMem| {
            ObjectBuilder::on(mem)
                .processes(2)
                .double_collect()
                .snapshot::<u64>()
        },
        &workload,
        {
            let cert = sl_analyze::catalog(2)
                .into_iter()
                .find(|c| c.family == "snapshot" && c.substrate == "double-collect")
                .expect("catalog entry");
            cert.static_conflicts()
        },
        true,
    );
}

#[test]
fn bounded_handshake_counter() {
    let workload = vec![vec![CounterOp::Inc], vec![CounterOp::Read]];
    differential(
        "bounded-handshake counter",
        &CounterSpec,
        |mem: &sl_sim::SimMem| {
            ObjectBuilder::on(mem)
                .processes(2)
                .bounded_handshake()
                .counter()
        },
        &workload,
        {
            let cert = sl_analyze::catalog(2)
                .into_iter()
                .find(|c| c.family == "counter" && c.substrate == "bounded-handshake")
                .expect("catalog entry");
            cert.static_conflicts()
        },
        true,
    );
}

/// Splitmix64 — a tiny deterministic generator so the randomized sweep
/// needs no external crate and every failure reproduces from its seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Randomized cross-mode sweep: generated ABA-register workloads must
/// produce the same strong-linearizability verdict and conflict depth
/// under both reductions, at one and at four workers — and the optimal
/// mode must stay cut-free while replaying no more in total than the
/// source-DPOR reference it refines.
#[test]
fn randomized_workloads_agree_across_all_modes() {
    for seed in 0..6u64 {
        let mut s = seed;
        // 2 processes, 1–2 ops each (total capped at 3), ops drawn from
        // {DRead, DWrite(1), DWrite(2)}.
        let mut workload: Vec<Vec<AbaOp<u64>>> = Vec::new();
        let mut total = 0usize;
        for _ in 0..2 {
            let k = usize::min(1 + (splitmix(&mut s) % 2) as usize, 3 - total);
            total += k;
            workload.push(
                (0..k)
                    .map(|_| match splitmix(&mut s) % 3 {
                        0 => AbaOp::DRead,
                        r => AbaOp::DWrite(r),
                    })
                    .collect(),
            );
        }
        let spec = AbaSpec::new(2);
        let factory =
            |mem: &sl_sim::SimMem| ObjectBuilder::on(mem).processes(2).aba_register::<u64>();
        let explore = |mode: PruneMode, workers: usize| {
            run::<AbaSpec<u64>, _, _>(&spec, factory, &workload, &cfg(mode, workers, None))
        };
        let (source_out, source_rep) = explore(PruneMode::SourceDpor, 1);
        for workers in [1, 4] {
            if workers > 1 {
                let (out, rep) = explore(PruneMode::SourceDpor, workers);
                assert_eq!(
                    (out, rep.holds, rep.conflict_depth),
                    (
                        source_out.clone(),
                        source_rep.holds,
                        source_rep.conflict_depth
                    ),
                    "seed {seed} {workload:?}: SourceDpor diverged at {workers}w"
                );
            }
            let (optimal_out, optimal_rep) = explore(PruneMode::OptimalDpor, workers);
            assert_eq!(
                (optimal_rep.holds, optimal_rep.conflict_depth),
                (source_rep.holds, source_rep.conflict_depth),
                "seed {seed} {workload:?}: OptimalDpor@{workers}w verdict diverged"
            );
            assert_eq!(
                optimal_out.cut_runs, 0,
                "seed {seed} {workload:?}: optimal cut a replay at {workers}w"
            );
            assert!(
                optimal_out.schedules_replayed() <= source_out.schedules_replayed(),
                "seed {seed} {workload:?}: optimal replayed more ({} > {})",
                optimal_out.schedules_replayed(),
                source_out.schedules_replayed()
            );
        }
    }
}

/// Mirror of the sim-deep `sl_aba_three_process_mixed_deep` workload
/// (2+1 writers, 1 reader): OptimalDpor with the certificate must
/// exhaust it cut-free, with strictly fewer replays than the
/// source-DPOR reference and the identical verdict.
#[test]
#[ignore = "deep: run with --ignored (sim-deep CI job)"]
fn aba_three_process_mixed_deep() {
    let workload = vec![
        vec![AbaOp::DWrite(1), AbaOp::DWrite(2)],
        vec![AbaOp::DWrite(3)],
        vec![AbaOp::DRead],
    ];
    let st = Arc::new(sl_analyze::aba_certificate(3).static_conflicts());
    let spec = AbaSpec::new(3);
    let factory = |mem: &sl_sim::SimMem| ObjectBuilder::on(mem).processes(3).aba_register::<u64>();
    let (source_out, source_rep) = run::<AbaSpec<u64>, _, _>(
        &spec,
        factory,
        &workload,
        &cfg(PruneMode::SourceDpor, sl_sim::env_workers(), None),
    );
    let (optimal_out, optimal_rep) = run::<AbaSpec<u64>, _, _>(
        &spec,
        factory,
        &workload,
        &cfg(
            PruneMode::OptimalDpor,
            sl_sim::env_workers(),
            Some(Arc::clone(&st)),
        ),
    );
    assert_eq!(source_rep.holds, optimal_rep.holds);
    assert_eq!(source_rep.conflict_depth, optimal_rep.conflict_depth);
    assert_eq!(optimal_out.cut_runs, 0, "deep mixed: optimal cut a replay");
    assert!(
        optimal_out.schedules_replayed() < source_out.schedules_replayed(),
        "deep mixed: optimal total {} !< source total {}",
        optimal_out.schedules_replayed(),
        source_out.schedules_replayed()
    );
    let t = st.telemetry();
    assert!(t.relaxed > 0 && t.validated > 0, "{t:?}");
}
