//! Seeded-random schedule fuzzing with deterministic shrinking.
//!
//! For every builder family × substrate × backend, the fuzz harness
//! generates random per-process workloads, runs them under seeded
//! random adversary schedules on the step VM (`SimMem`) or as random
//! sequential interleavings (`NativeMem`), and feeds every recorded
//! history through `check_linearizable`. For objects whose guarantee
//! marker is `Strong`, the transcripts of all schedules of one workload
//! are additionally merged into a prefix tree and fed through the
//! strong-linearizability checker — several random schedules of the
//! same programs share long prefixes, so the tree genuinely branches.
//!
//! On failure, a **deterministic shrinker** minimises the counterexample
//! before reporting: operations are removed one at a time and schedule
//! scripts are chunk-reduced (re-running the deterministic simulator at
//! every stage) until the failure is *locally minimal* — removing any
//! single remaining operation or schedule entry makes it pass. The
//! report renders the shrunk trace with allocation-site labels, and can
//! be written to an artifact directory for CI upload.
//!
//! Everything is derived from `FuzzConfig::seed`, so a failure report
//! is reproducible bit-for-bit.

use std::sync::Arc;

use sl_check::{check_linearizable, check_strongly_linearizable, HistoryTree, TreeStep};
use sl_mem::{NativeMem, SmallRng};
use sl_sim::{PruneMode, Scripted, SeededRandom, SimMem, StaticConflicts};
use sl_spec::{History, ProcId, SeqSpec};

use crate::object::SharedObject;
use crate::sim::{explore_object, run_object_schedule_with, DriveOps, SimExplore, SimRun};

/// Budgets and seed of one fuzz campaign. Scale with
/// [`FuzzConfig::from_env`] in CI (`SL_FUZZ_WORKLOADS`,
/// `SL_FUZZ_SCHEDULES`, `SL_FUZZ_OPS`, `SL_FUZZ_ARTIFACT_DIR`).
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Random workloads per family configuration.
    pub workloads: u64,
    /// Random adversary schedules per workload (their transcripts form
    /// the tree for the strong check).
    pub schedules_per_workload: u64,
    /// Simulated processes.
    pub procs: usize,
    /// Operations per process per workload.
    pub ops_per_proc: usize,
    /// Per-run shared-memory step budget.
    pub step_budget: u64,
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Run the shrinker on failures.
    pub shrink: bool,
    /// Where to write failure artifacts (none = don't write).
    pub artifact_dir: Option<std::path::PathBuf>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            workloads: 6,
            schedules_per_workload: 4,
            procs: 2,
            ops_per_proc: 2,
            step_budget: 20_000,
            seed: 0x5EED_F00D,
            shrink: true,
            artifact_dir: None,
        }
    }
}

impl FuzzConfig {
    /// The default configuration scaled by environment variables, for
    /// the deep CI job.
    pub fn from_env() -> FuzzConfig {
        let mut cfg = FuzzConfig::default();
        let get = |k: &str| std::env::var(k).ok().and_then(|v| v.parse::<u64>().ok());
        if let Some(v) = get("SL_FUZZ_WORKLOADS") {
            cfg.workloads = v;
        }
        if let Some(v) = get("SL_FUZZ_SCHEDULES") {
            cfg.schedules_per_workload = v;
        }
        if let Some(v) = get("SL_FUZZ_OPS") {
            cfg.ops_per_proc = v as usize;
        }
        if let Some(v) = get("SL_FUZZ_SEED") {
            cfg.seed = v;
        }
        if let Some(dir) = std::env::var_os("SL_FUZZ_ARTIFACT_DIR") {
            cfg.artifact_dir = Some(dir.into());
        }
        cfg
    }
}

/// Which decision procedure rejected the behaviour.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FailureKind {
    /// A single history failed `check_linearizable`.
    Linearizability,
    /// A schedule tree failed `check_strongly_linearizable`.
    StrongLinearizability,
    /// An `OptimalDpor` exploration reached a different
    /// strong-linearizability verdict than the `SourceDpor` reference
    /// on the same exhausted workload ([`fuzz_pruned_exploration`]).
    VerdictDivergence,
}

/// A minimised counterexample.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// Which checker rejected it.
    pub kind: FailureKind,
    /// Debug-rendered per-process operations after shrinking.
    pub workload: Vec<Vec<String>>,
    /// The shrunk schedule script(s) (decision sequences).
    pub schedules: Vec<Vec<usize>>,
    /// Human-readable trace of one failing run, with allocation sites.
    pub trace: Vec<String>,
    /// Operation count before → after shrinking.
    pub ops_shrink: (usize, usize),
    /// Total schedule length before → after shrinking.
    pub schedule_shrink: (usize, usize),
}

/// Outcome of one fuzz campaign over one family configuration.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Human-readable name of the configuration (family, substrate,
    /// backend).
    pub family: String,
    /// Workloads executed.
    pub workloads_run: u64,
    /// Schedules executed.
    pub schedules_run: u64,
    /// The first failure found, minimised (fuzzing stops at the first).
    pub failure: Option<FuzzFailure>,
}

impl FuzzReport {
    /// Renders the report (one line when clean, the full counterexample
    /// otherwise).
    pub fn render(&self) -> String {
        match &self.failure {
            None => format!(
                "{}: ok ({} workloads, {} schedules)",
                self.family, self.workloads_run, self.schedules_run
            ),
            Some(f) => {
                let mut out = String::new();
                out.push_str(&format!(
                    "{}: {:?} VIOLATION (after {} workloads, {} schedules)\n",
                    self.family, f.kind, self.workloads_run, self.schedules_run
                ));
                out.push_str(&format!(
                    "shrunk: {} -> {} ops, {} -> {} schedule entries\n",
                    f.ops_shrink.0, f.ops_shrink.1, f.schedule_shrink.0, f.schedule_shrink.1
                ));
                for (p, ops) in f.workload.iter().enumerate() {
                    out.push_str(&format!("  p{p}: {}\n", ops.join(", ")));
                }
                for (i, s) in f.schedules.iter().enumerate() {
                    out.push_str(&format!("  schedule {i}: {s:?}\n"));
                }
                out.push_str("  failing trace:\n");
                for line in &f.trace {
                    out.push_str(&format!("    {line}\n"));
                }
                out
            }
        }
    }

    /// Panics with the rendered counterexample if the campaign failed.
    pub fn assert_clean(&self) {
        assert!(self.failure.is_none(), "{}", self.render());
    }

    fn write_artifact(&self, dir: &std::path::Path) {
        let _ = std::fs::create_dir_all(dir);
        let name: String = self
            .family
            .chars()
            .map(|c| if c.is_alphanumeric() { c } else { '_' })
            .collect();
        let _ = std::fs::write(dir.join(format!("{name}.txt")), self.render());
    }
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
}

/// Generates one random workload: `procs` × `ops_per_proc` operations.
fn gen_workload<S: SeqSpec, G: Fn(&mut SmallRng, ProcId) -> S::Op>(
    gen_op: &G,
    rng: &mut SmallRng,
    cfg: &FuzzConfig,
) -> Vec<Vec<S::Op>> {
    (0..cfg.procs)
        .map(|p| {
            (0..cfg.ops_per_proc)
                .map(|_| gen_op(rng, ProcId(p)))
                .collect()
        })
        .collect()
}

fn render_workload<S: SeqSpec>(workload: &[Vec<S::Op>]) -> Vec<Vec<String>> {
    workload
        .iter()
        .map(|ops| ops.iter().map(|o| format!("{o:?}")).collect())
        .collect()
}

fn total_ops<Op>(workload: &[Vec<Op>]) -> usize {
    workload.iter().map(Vec::len).sum()
}

/// Fuzzes one object family on the simulator backend. `factory` builds
/// the object on a fresh `SimMem` per run; `apply` maps spec operations
/// onto handles; `gen_op` generates random operations; `strong` says
/// whether the object's guarantee marker is `Strong` (running the
/// strong checker over the schedule tree as well).
pub fn fuzz_sim_family<S, O, F, A, G>(
    family: &str,
    strong: bool,
    factory: F,
    apply: A,
    gen_op: G,
    spec: &S,
    cfg: &FuzzConfig,
) -> FuzzReport
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    F: Fn(&SimMem) -> O,
    A: Fn(&mut O::Handle, &S::Op) -> S::Resp + Send + Sync + 'static,
    G: Fn(&mut SmallRng, ProcId) -> S::Op,
{
    let apply = Arc::new(apply);
    let mut schedules_run = 0u64;
    for w in 0..cfg.workloads {
        let mut rng = SmallRng::new(mix(cfg.seed, w, 0));
        let workload = gen_workload::<S, G>(&gen_op, &mut rng, cfg);
        let mut scripts: Vec<Vec<usize>> = Vec::new();
        let mut transcripts: Vec<Vec<TreeStep<S>>> = Vec::new();
        for k in 0..cfg.schedules_per_workload {
            let mut sched = SeededRandom::new(mix(cfg.seed, w, k + 1));
            let run =
                run_object_schedule_with(&factory, &workload, &apply, &mut sched, cfg.step_budget);
            schedules_run += 1;
            if check_linearizable(spec, &run.history).is_none() {
                let failure = shrink_lin_failure(
                    &factory,
                    &apply,
                    spec,
                    workload.clone(),
                    run.outcome.script(),
                    cfg,
                );
                let report = FuzzReport {
                    family: family.to_string(),
                    workloads_run: w + 1,
                    schedules_run,
                    failure: Some(failure),
                };
                if let Some(dir) = &cfg.artifact_dir {
                    report.write_artifact(dir);
                }
                return report;
            }
            scripts.push(run.outcome.script());
            transcripts.push(run.transcript);
        }
        if strong {
            let tree = HistoryTree::from_transcripts(&transcripts);
            if !check_strongly_linearizable(spec, &tree).holds {
                let failure = shrink_strong_failure(&factory, &apply, spec, workload, scripts, cfg);
                let report = FuzzReport {
                    family: family.to_string(),
                    workloads_run: w + 1,
                    schedules_run,
                    failure: Some(failure),
                };
                if let Some(dir) = &cfg.artifact_dir {
                    report.write_artifact(dir);
                }
                return report;
            }
        }
    }
    FuzzReport {
        family: family.to_string(),
        workloads_run: cfg.workloads,
        schedules_run,
        failure: None,
    }
}

/// Re-runs one (workload, script) pair deterministically.
fn rerun<S, O, F, A>(
    factory: &F,
    apply: &Arc<A>,
    workload: &[Vec<S::Op>],
    script: &[usize],
    cfg: &FuzzConfig,
) -> SimRun<S>
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    F: Fn(&SimMem) -> O,
    A: Fn(&mut O::Handle, &S::Op) -> S::Resp + Send + Sync + 'static,
{
    let mut sched = Scripted::new(script.to_vec());
    run_object_schedule_with(factory, workload, apply, &mut sched, cfg.step_budget)
}

/// Candidate workloads with one operation removed, in deterministic
/// order.
fn op_removals<Op: Clone>(workload: &[Vec<Op>]) -> Vec<Vec<Vec<Op>>> {
    let mut out = Vec::new();
    for p in 0..workload.len() {
        for j in 0..workload[p].len() {
            let mut cand = workload.to_vec();
            cand[p].remove(j);
            out.push(cand);
        }
    }
    out
}

/// ddmin-style script reduction: the empty script first (pure
/// lowest-id fallback — the canonical sequential schedule), then
/// chunks of shrinking size, then single entries.
fn script_removals(script: &[usize]) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if !script.is_empty() {
        out.push(Vec::new());
    }
    let mut chunk = script.len() / 2;
    while chunk >= 1 {
        let mut start = 0;
        while start < script.len() {
            let end = (start + chunk).min(script.len());
            let mut cand = script.to_vec();
            cand.drain(start..end);
            out.push(cand);
            start = end;
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    out
}

fn shrink_lin_failure<S, O, F, A>(
    factory: &F,
    apply: &Arc<A>,
    spec: &S,
    mut workload: Vec<Vec<S::Op>>,
    mut script: Vec<usize>,
    cfg: &FuzzConfig,
) -> FuzzFailure
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    F: Fn(&SimMem) -> O,
    A: Fn(&mut O::Handle, &S::Op) -> S::Resp + Send + Sync + 'static,
{
    let fails = |w: &[Vec<S::Op>], s: &[usize]| {
        check_linearizable(
            spec,
            &rerun::<S, O, F, A>(factory, apply, w, s, cfg).history,
        )
        .is_none()
    };
    let before = (total_ops(&workload), script.len());
    if cfg.shrink {
        loop {
            let mut improved = false;
            for cand in op_removals(&workload) {
                // A shrunk workload can misalign with the recorded
                // schedule; also try the canonical sequential schedule
                // (empty script = lowest-id fallback) so operation
                // minimisation isn't blocked by schedule alignment.
                if fails(&cand, &script) {
                    workload = cand;
                    improved = true;
                    break;
                }
                if !script.is_empty() && fails(&cand, &[]) {
                    workload = cand;
                    script = Vec::new();
                    improved = true;
                    break;
                }
            }
            if improved {
                continue;
            }
            for cand in script_removals(&script) {
                if cand.len() < script.len() && fails(&workload, &cand) {
                    script = cand;
                    improved = true;
                    break;
                }
            }
            if !improved {
                break;
            }
        }
    }
    let final_run = rerun::<S, O, F, A>(factory, apply, &workload, &script, cfg);
    FuzzFailure {
        kind: FailureKind::Linearizability,
        workload: render_workload::<S>(&workload),
        schedules: vec![script.clone()],
        trace: final_run.pretty,
        ops_shrink: (before.0, total_ops(&workload)),
        schedule_shrink: (before.1, script.len()),
    }
}

fn shrink_strong_failure<S, O, F, A>(
    factory: &F,
    apply: &Arc<A>,
    spec: &S,
    mut workload: Vec<Vec<S::Op>>,
    mut scripts: Vec<Vec<usize>>,
    cfg: &FuzzConfig,
) -> FuzzFailure
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    F: Fn(&SimMem) -> O,
    A: Fn(&mut O::Handle, &S::Op) -> S::Resp + Send + Sync + 'static,
{
    let fails = |w: &[Vec<S::Op>], ss: &[Vec<usize>]| {
        let transcripts: Vec<_> = ss
            .iter()
            .map(|s| rerun::<S, O, F, A>(factory, apply, w, s, cfg).transcript)
            .collect();
        !check_strongly_linearizable(spec, &HistoryTree::from_transcripts(&transcripts)).holds
    };
    let before = (
        total_ops(&workload),
        scripts.iter().map(Vec::len).sum::<usize>(),
    );
    if cfg.shrink {
        loop {
            let mut improved = false;
            // Fewer schedules first: the counterexample family should be
            // as small as the paper's {S, T1, T2}.
            for i in 0..scripts.len() {
                if scripts.len() <= 2 {
                    break;
                }
                let mut cand = scripts.clone();
                cand.remove(i);
                if fails(&workload, &cand) {
                    scripts = cand;
                    improved = true;
                    break;
                }
            }
            if improved {
                continue;
            }
            for cand in op_removals(&workload) {
                if fails(&cand, &scripts) {
                    workload = cand;
                    improved = true;
                    break;
                }
            }
            if improved {
                continue;
            }
            for i in 0..scripts.len() {
                let mut found = None;
                for cand in script_removals(&scripts[i]) {
                    if cand.len() < scripts[i].len() {
                        let mut ss = scripts.clone();
                        ss[i] = cand;
                        if fails(&workload, &ss) {
                            found = Some(ss);
                            break;
                        }
                    }
                }
                if let Some(ss) = found {
                    scripts = ss;
                    improved = true;
                    break;
                }
            }
            if !improved {
                break;
            }
        }
    }
    let final_run = rerun::<S, O, F, A>(factory, apply, &workload, &scripts[0], cfg);
    FuzzFailure {
        kind: FailureKind::StrongLinearizability,
        workload: render_workload::<S>(&workload),
        trace: final_run.pretty,
        ops_shrink: (before.0, total_ops(&workload)),
        schedule_shrink: (before.1, scripts.iter().map(Vec::len).sum::<usize>()),
        schedules: scripts,
    }
}

/// Schedule-count cap per exploration inside
/// [`fuzz_pruned_exploration`]; workloads whose baseline space does
/// not exhaust within it are skipped (verdicts of partial explorations
/// are not comparable).
const PRUNED_FUZZ_RUNS: usize = 40_000;

/// Fuzzes the refined relation's layers: random workloads explored
/// exhaustively under the syntactic `SourceDpor` reference and under
/// `OptimalDpor` — without a certificate (value and observer layers)
/// and with `statics` installed (every layer) — must agree on the
/// strong-linearizability verdict. A divergence is shrunk by removing
/// operations while it persists and reported like any other fuzz
/// failure; the fail-closed race validator is armed throughout (an
/// unpredicted race panics rather than diverging silently).
///
/// The reference is a reduction too, so agreement says nothing about
/// the gap the syntactic relation itself has (see `sl_sim`'s explore
/// module docs); that needs the unpruned oracle.
///
/// `statics` is the runtime form of the object's probed certificate —
/// built by `sl-analyze`, which sits above this crate, so the caller
/// supplies it.
pub fn fuzz_pruned_exploration<S, O, F, G>(
    family: &str,
    factory: F,
    gen_op: G,
    spec: &S,
    statics: Arc<StaticConflicts>,
    cfg: &FuzzConfig,
) -> FuzzReport
where
    S: SeqSpec + 'static,
    S::Op: Send + Sync,
    S::Resp: Send + Sync,
    S::State: Send + Sync,
    O: SharedObject<SimMem>,
    O::Handle: DriveOps<S>,
    F: Fn(&SimMem) -> O + Sync + Copy,
    G: Fn(&mut SmallRng, ProcId) -> S::Op,
{
    let explore = |w: &[Vec<S::Op>], mode: PruneMode, st: Option<Arc<StaticConflicts>>| {
        explore_object::<S, O, F>(
            factory,
            w,
            &SimExplore {
                mode,
                workers: 1,
                statics: st,
                max_runs: PRUNED_FUZZ_RUNS,
                step_budget: cfg.step_budget,
                ..SimExplore::default()
            },
        )
    };
    // None = reference did not exhaust or no divergence; Some((label,
    // base, pruned)) = the first diverging exploration and verdicts.
    let diverged = |w: &[Vec<S::Op>]| -> Option<(&'static str, bool, bool)> {
        let base = explore(w, PruneMode::SourceDpor, None);
        if !base.outcome.exhausted {
            return None;
        }
        let vb = base.check_strong(spec).holds;
        for (label, st) in [
            ("OptimalDpor without a certificate", None),
            (
                "OptimalDpor with the certificate installed",
                Some(Arc::clone(&statics)),
            ),
        ] {
            let pruned = explore(w, PruneMode::OptimalDpor, st);
            if pruned.outcome.exhausted {
                let vp = pruned.check_strong(spec).holds;
                if vp != vb {
                    return Some((label, vb, vp));
                }
            }
        }
        None
    };
    let mut schedules_run = 0u64;
    for w in 0..cfg.workloads {
        let mut rng = SmallRng::new(mix(cfg.seed, w, 0));
        let mut workload = gen_workload::<S, G>(&gen_op, &mut rng, cfg);
        schedules_run += 3;
        let Some(first) = diverged(&workload) else {
            continue;
        };
        let before = total_ops(&workload);
        let mut witness = first;
        if cfg.shrink {
            loop {
                let mut improved = false;
                for cand in op_removals(&workload) {
                    if let Some(d) = diverged(&cand) {
                        workload = cand;
                        witness = d;
                        improved = true;
                        break;
                    }
                }
                if !improved {
                    break;
                }
            }
        }
        let (label, vb, vp) = witness;
        let report = FuzzReport {
            family: family.to_string(),
            workloads_run: w + 1,
            schedules_run,
            failure: Some(FuzzFailure {
                kind: FailureKind::VerdictDivergence,
                workload: render_workload::<S>(&workload),
                schedules: Vec::new(),
                trace: vec![format!(
                    "SourceDpor verdict: strong-linearizable = {vb}; {label}: \
                     strong-linearizable = {vp}"
                )],
                ops_shrink: (before, total_ops(&workload)),
                schedule_shrink: (0, 0),
            }),
        };
        if let Some(dir) = &cfg.artifact_dir {
            report.write_artifact(dir);
        }
        return report;
    }
    FuzzReport {
        family: family.to_string(),
        workloads_run: cfg.workloads,
        schedules_run,
        failure: None,
    }
}

/// Fuzzes one object family on the native backend: the same random
/// workloads executed as random **sequential interleavings** (one
/// operation completes before the next is invoked — the strongest
/// check native execution admits without a controllable scheduler),
/// with every recorded history fed through `check_linearizable`.
pub fn fuzz_native_family<S, O, F, A, G>(
    family: &str,
    factory: F,
    apply: A,
    gen_op: G,
    spec: &S,
    cfg: &FuzzConfig,
) -> FuzzReport
where
    S: SeqSpec,
    O: SharedObject<NativeMem>,
    F: Fn(&NativeMem) -> O,
    A: Fn(&mut O::Handle, &S::Op) -> S::Resp,
    G: Fn(&mut SmallRng, ProcId) -> S::Op,
{
    // One execution = a flat (process, op) sequence: the interleaving
    // IS the test case, so shrinking removes elements of the flat
    // sequence (preserving relative order), and the report carries the
    // exact failing interleaving.
    let run_flat = |flat: &[(usize, S::Op)], procs: usize| -> History<S> {
        let mem = NativeMem::new();
        let obj = factory(&mem);
        let mut handles: Vec<O::Handle> = (0..procs).map(|p| obj.handle(ProcId(p))).collect();
        let mut h = History::new();
        for (p, op) in flat {
            let id = h.invoke(ProcId(*p), op.clone());
            let resp = apply(&mut handles[*p], op);
            h.respond(id, resp);
        }
        h
    };
    for w in 0..cfg.workloads {
        let mut rng = SmallRng::new(mix(cfg.seed, w, 0));
        let workload = gen_workload::<S, G>(&gen_op, &mut rng, cfg);
        // Random sequential interleaving across the processes,
        // preserving each process's program order (Fisher–Yates over
        // the process-id multiset).
        let mut order: Vec<usize> = Vec::new();
        for (p, ops) in workload.iter().enumerate() {
            order.extend(std::iter::repeat_n(p, ops.len()));
        }
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(i + 1));
        }
        let mut next: Vec<usize> = vec![0; workload.len()];
        let mut flat: Vec<(usize, S::Op)> = Vec::new();
        for &p in &order {
            flat.push((p, workload[p][next[p]].clone()));
            next[p] += 1;
        }
        let fails = |flat: &[(usize, S::Op)]| {
            check_linearizable(spec, &run_flat(flat, cfg.procs)).is_none()
        };
        if fails(&flat) {
            let before = flat.len();
            if cfg.shrink {
                // Remove one interleaving element at a time until
                // locally minimal (the failing order is preserved).
                loop {
                    let mut improved = false;
                    for i in 0..flat.len() {
                        let mut cand = flat.clone();
                        cand.remove(i);
                        if fails(&cand) {
                            flat = cand;
                            improved = true;
                            break;
                        }
                    }
                    if !improved {
                        break;
                    }
                }
            }
            // Regroup the shrunk interleaving per process for the
            // workload view; the trace is the interleaving itself.
            let mut per_proc: Vec<Vec<String>> = vec![Vec::new(); cfg.procs];
            for (p, op) in &flat {
                per_proc[*p].push(format!("{op:?}"));
            }
            let report = FuzzReport {
                family: family.to_string(),
                workloads_run: w + 1,
                schedules_run: w + 1,
                failure: Some(FuzzFailure {
                    kind: FailureKind::Linearizability,
                    workload: per_proc,
                    schedules: vec![flat.iter().map(|(p, _)| *p).collect()],
                    trace: flat
                        .iter()
                        .map(|(p, op)| format!("p{p} {op:?} (sequential)"))
                        .collect(),
                    ops_shrink: (before, flat.len()),
                    schedule_shrink: (before, flat.len()),
                }),
            };
            if let Some(dir) = &cfg.artifact_dir {
                report.write_artifact(dir);
            }
            return report;
        }
    }
    FuzzReport {
        family: family.to_string(),
        workloads_run: cfg.workloads,
        schedules_run: cfg.workloads,
        failure: None,
    }
}
