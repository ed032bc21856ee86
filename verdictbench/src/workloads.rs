//! The three paper checks the benchmark times, their seed-derived
//! inputs, and the oracle every verdict must pass.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sl_api::sim::{DriveOps, SimExplore};
use sl_api::{ObjectBuilder, SharedObject};
use sl_bench::workloads::{dist_config, dist_ops};
use sl_core::aba::{AwAbaRegister, SlAbaRegister};
use sl_mem::SmallRng;
use sl_sim::{ExploreOutcome, PruneMode, SimMem, StaticConflicts};
use sl_spec::types::{AbaSpec, SnapshotSpec};
use sl_spec::{AbaOp, SeqSpec, SnapshotOp};

/// What one workload's set-up hands the verdict loop.
pub struct Workload<S: SeqSpec> {
    pub spec: S,
    /// One operation list per simulated process.
    pub ops: Vec<Vec<S::Op>>,
    pub cfg: SimExplore,
    /// Time spent in `sl-analyze` during set-up: the certificate probe
    /// plus `static_conflicts()`, or an empty step when the workload
    /// takes no certificate.
    pub probe: Duration,
}

/// One benchmark workload: a built object, its inputs and its known
/// answer.
pub trait Case {
    const NAME: &'static str;
    /// The known verdict: whether a strong linearization function
    /// exists for the explored schedule space.
    const HOLDS: bool;
    type Spec: SeqSpec<Op: Send + Sync, Resp: Send + Sync, State: Send + Sync> + 'static;
    type Obj: SharedObject<SimMem, Handle: DriveOps<Self::Spec>>;

    /// Builds the object under test on a simulated memory.
    fn build(mem: &SimMem) -> Self::Obj;

    /// Everything done before the first exploration: operands drawn
    /// from `seed`, the exploration budget and, where the workload
    /// takes one, the op-pair certificate.
    fn setup(seed: u64) -> Workload<Self::Spec>;
}

/// Algorithm 2 (Theorem 12), three processes, with the op-pair
/// certificate: the frozen 23,888-schedule floor.
pub struct AbaMixed3Deep;

/// The bounded-space snapshot (Algorithm 3 over the bounded handshake
/// substrate, Algorithm 2 as `R`): one Update against one Scan.
pub struct SnapshotBounded;

/// Observation 4 on Algorithm 1: five equal DWrites against two
/// DReads at two workers. The one known-violating object.
pub struct Obs4RefutePar;

impl Case for AbaMixed3Deep {
    const NAME: &'static str = "aba_mixed3_deep";
    const HOLDS: bool = true;
    type Spec = AbaSpec<u64>;
    type Obj = SlAbaRegister<u64, SimMem>;

    fn build(mem: &SimMem) -> Self::Obj {
        ObjectBuilder::on(mem).processes(3).aba_register::<u64>()
    }

    fn setup(seed: u64) -> Workload<Self::Spec> {
        let template = dist_ops(Self::NAME).expect("registered pinned workload");
        let ops = reseed_aba(template, seed);
        let (statics, probe) = timed_probe(|| sl_analyze::aba_certificate(3).static_conflicts());
        let mut cfg = dist_config(PruneMode::OptimalDpor, 1);
        cfg.statics = Some(statics);
        Workload {
            spec: AbaSpec::new(3),
            ops,
            cfg,
            probe,
        }
    }
}

impl Case for SnapshotBounded {
    const NAME: &'static str = "snapshot_bounded";
    const HOLDS: bool = true;
    type Spec = SnapshotSpec<u64>;
    type Obj = sl_api::FullyBoundedSlSnapshot<u64, SimMem>;

    fn build(mem: &SimMem) -> Self::Obj {
        ObjectBuilder::on(mem)
            .processes(2)
            .bounded_handshake()
            .snapshot::<u64>()
    }

    fn setup(seed: u64) -> Workload<Self::Spec> {
        let mut values = Reseed::new(seed);
        let ops = vec![
            vec![SnapshotOp::Update(values.value(1))],
            vec![SnapshotOp::Scan],
        ];
        Workload {
            spec: SnapshotSpec::new(2),
            ops,
            cfg: dist_config(PruneMode::OptimalDpor, 1),
            probe: no_probe(),
        }
    }
}

impl Case for Obs4RefutePar {
    const NAME: &'static str = "obs4_refute_par";
    const HOLDS: bool = false;
    type Spec = AbaSpec<u64>;
    type Obj = AwAbaRegister<u64, SimMem>;

    fn build(mem: &SimMem) -> Self::Obj {
        ObjectBuilder::on(mem)
            .processes(2)
            .lin_aba_register::<u64>()
    }

    fn setup(seed: u64) -> Workload<Self::Spec> {
        let template = vec![vec![AbaOp::DWrite(7); 5], vec![AbaOp::DRead; 2]];
        Workload {
            spec: AbaSpec::new(2),
            ops: reseed_aba(template, seed),
            cfg: dist_config(PruneMode::OptimalDpor, 2),
            probe: no_probe(),
        }
    }
}

fn timed_probe(probe: impl FnOnce() -> StaticConflicts) -> (Arc<StaticConflicts>, Duration) {
    let start = Instant::now();
    let statics = Arc::new(probe());
    (statics, start.elapsed())
}

/// The analysis step of a workload that takes no certificate: nothing
/// runs, and the reading is the timer's own cost.
fn no_probe() -> Duration {
    Instant::now().elapsed()
}

/// Draws operand values from a seed, one per distinct template value,
/// so the template's equalities (and inequalities) carry over exactly.
/// Drawn values are nonzero and pairwise distinct.
struct Reseed {
    rng: SmallRng,
    drawn: Vec<(u64, u64)>,
}

impl Reseed {
    fn new(seed: u64) -> Self {
        Reseed {
            rng: SmallRng::new(seed),
            drawn: Vec::new(),
        }
    }

    fn value(&mut self, template: u64) -> u64 {
        if let Some(&(_, v)) = self.drawn.iter().find(|(t, _)| *t == template) {
            return v;
        }
        loop {
            let v = 1 + self.rng.next_u64() % u64::from(u32::MAX);
            if self.drawn.iter().all(|&(_, d)| d != v) {
                self.drawn.push((template, v));
                return v;
            }
        }
    }
}

fn reseed_aba(template: Vec<Vec<AbaOp<u64>>>, seed: u64) -> Vec<Vec<AbaOp<u64>>> {
    let mut values = Reseed::new(seed);
    template
        .into_iter()
        .map(|ops| {
            ops.into_iter()
                .map(|op| match op {
                    AbaOp::DWrite(v) => AbaOp::DWrite(values.value(v)),
                    AbaOp::DRead => AbaOp::DRead,
                })
                .collect()
        })
        .collect()
}

/// What the benchmark keeps of one verdict.
#[derive(Clone, Debug)]
pub struct Verdict {
    pub holds: bool,
    pub conflict_depth: usize,
    pub outcome: ExploreOutcome,
    pub dag_hash: u64,
    pub dag_nodes: usize,
    pub states: u64,
    pub memo_hits: u64,
}

/// The oracle: every reason `verdict` is not the known answer reached
/// over the whole schedule space. Empty means the verdict passes.
pub fn oracle(expect_holds: bool, verdict: &Verdict) -> Vec<String> {
    let o = &verdict.outcome;
    let mut wrong = Vec::new();
    if verdict.holds != expect_holds {
        wrong.push(format!(
            "verdict {} where {} is known",
            pass_fail(verdict.holds),
            pass_fail(expect_holds)
        ));
    }
    if !o.exhausted {
        wrong.push("schedule space not exhausted".into());
    }
    if o.partial {
        wrong.push("partial outcome".into());
    }
    if o.quarantined != 0 {
        wrong.push(format!("{} subtrees quarantined", o.quarantined));
    }
    if o.cut_runs != 0 {
        wrong.push(format!("{} cut runs", o.cut_runs));
    }
    wrong
}

pub fn pass_fail(holds: bool) -> &'static str {
    if holds {
        "PASS"
    } else {
        "FAIL"
    }
}
