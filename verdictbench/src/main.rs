//! Time-to-verdict benchmark for the strong-linearizability pipeline:
//! fiber VM, optimal-DPOR explorer, hash-consed transcript DAG and
//! memoised checker, measured end to end on three of the paper's checks
//! and split by layer in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path verdictbench/Cargo.toml -- \
//!     [--workload aba_mixed3_deep|snapshot_bounded|obs4_refute_par|all] \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One client runs one verdict at a time (a closed loop). With
//! `--trace 0` every verdict goes through the production path,
//! `sl_api::sim::explore_object_dag` + `ExploredDag::check_strong`;
//! the run reports `verdict_s`, `peak_rss_mb` and `setup_s`, the two
//! times scaled to a steady host speed by a yardstick timed next to
//! each sample (see [`yardstick_s`]; the wall-clock medians are printed
//! beside them). With
//! `--trace 1` the run alternates production verdicts with traced ones
//! (see `traced.rs`), which must reproduce the production verdict,
//! `ExploreOutcome` and DAG hash, and reports the per-layer metrics.
//! Every verdict must match its known answer over the whole schedule
//! space; a verdict that does not is counted as failed and the run goes
//! on. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. Without
//! `--workload`, or with `all`, each workload runs in its own process,
//! one after the other.

mod traced;
mod workloads;

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::process::{exit, Command};
use std::time::{Duration, Instant};

use sl_api::sim::explore_object_dag;

use crate::traced::{traced_verdict, Traced, Tracer};
use crate::workloads::{
    oracle, pass_fail, AbaMixed3Deep, Case, Obs4RefutePar, SnapshotBounded, Verdict, Workload,
};

const USAGE: &str = "usage: verdictbench [--workload aba_mixed3_deep|snapshot_bounded|\
                     obs4_refute_par|all] [--seed N] [--seconds S] [--trace 0|1]";

const WORKLOADS: [&str; 3] = [
    AbaMixed3Deep::NAME,
    SnapshotBounded::NAME,
    Obs4RefutePar::NAME,
];

const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: 10,
            trace: false,
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("{flag}: not a whole number: {value}"))
            };
            match flag.as_str() {
                "--workload" => args.workload = Some(value.clone()),
                "--seed" => args.seed = number()?,
                "--seconds" => match number()? {
                    0 => return Err("--seconds must be at least 1".into()),
                    s => args.seconds = s,
                },
                "--trace" => match value.as_str() {
                    "0" => args.trace = false,
                    "1" => args.trace = true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                },
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(args)
    }
}

fn main() {
    let args = Args::parse(std::env::args().skip(1)).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2)
    });
    let result = match args.workload.as_deref() {
        None | Some("all") => run_all(&args),
        Some(AbaMixed3Deep::NAME) => bench::<AbaMixed3Deep>(&args),
        Some(SnapshotBounded::NAME) => bench::<SnapshotBounded>(&args),
        Some(Obs4RefutePar::NAME) => bench::<Obs4RefutePar>(&args),
        Some(other) => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    if let Err(e) = result {
        eprintln!("verdictbench: {e}");
        exit(1);
    }
}

/// Runs every workload in its own process, so each reports its own
/// peak memory.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let mut failed = Vec::new();
    for name in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("cannot run {name}: {e}"))?;
        if !status.success() {
            failed.push(name);
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("workloads that did not finish: {failed:?}"))
    }
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// Printed after the value on the human-readable line only.
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

impl Metric {
    fn note(self, note: String) -> Metric {
        Metric { note, ..self }
    }
}

/// Attempted and failed verdicts of one run.
struct Tally {
    name: &'static str,
    holds: bool,
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one verdict against the oracle; returns it if it
    /// completed (passing or not).
    fn verdict(&mut self, v: Result<Verdict, String>) -> Option<Verdict> {
        let wrong = match &v {
            Ok(v) => oracle(self.holds, v),
            Err(panic) => vec![format!("panicked: {panic}")],
        };
        self.count(wrong);
        v.ok()
    }

    /// Counts one traced verdict: the oracle, plus identity with the
    /// production verdict `reference` of the same run.
    fn traced(&mut self, reference: Option<&Verdict>, t: Result<Traced, String>) -> Option<Traced> {
        let mut wrong = match &t {
            Ok(t) => oracle(self.holds, &t.verdict),
            Err(panic) => vec![format!("panicked: {panic}")],
        };
        if let Ok(t) = &t {
            let v = &t.verdict;
            match reference {
                None => wrong.push("no production verdict to compare with".into()),
                Some(r) => {
                    if (v.holds, v.conflict_depth) != (r.holds, r.conflict_depth) {
                        wrong.push("traced verdict differs from production".into());
                    }
                    if v.outcome != r.outcome {
                        wrong.push(format!(
                            "traced ExploreOutcome differs: {:?} vs {:?}",
                            v.outcome, r.outcome
                        ));
                    }
                    if v.dag_hash != r.dag_hash {
                        wrong.push("traced DAG structural hash differs".into());
                    }
                }
            }
        }
        self.count(wrong);
        t.ok()
    }

    fn count(&mut self, wrong: Vec<String>) {
        self.attempted += 1;
        if !wrong.is_empty() {
            self.failed += 1;
            eprintln!(
                "{}: verdict {} failed: {}",
                self.name,
                self.attempted,
                wrong.join("; ")
            );
        }
    }
}

fn catch<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    std::panic::catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".into())
    })
}

/// One verdict through the production path, tracing off.
fn untraced<C: Case>(w: &Workload<C::Spec>) -> Result<Verdict, String> {
    catch(|| {
        let explored = explore_object_dag(C::build, &w.ops, &w.cfg);
        let report = explored.check_strong(&w.spec);
        Verdict {
            holds: report.holds,
            conflict_depth: report.conflict_depth,
            outcome: explored.outcome,
            dag_hash: explored.dag.structural_hash(),
            dag_nodes: explored.dag.unique_nodes(),
            states: report.states_explored,
            memo_hits: report.memo_hits,
        }
    })
}

/// One run's state: its verdict tally, its set-up samples and, in a
/// traced run, its tracer.
struct Run {
    seed: u64,
    seconds: Duration,
    tally: Tally,
    setup_s: Vec<f64>,
    probe_s: Vec<f64>,
    tracer: Option<Tracer>,
}

impl Run {
    /// One timed set-up. The run explores the workload of its first
    /// set-up; it sets up again after every timed verdict (every pair,
    /// in a traced run) and drops the result, so that `setup_s` samples
    /// the whole run, as `verdict_s` does, rather than one moment of the
    /// host's load.
    fn setup<C: Case>(&mut self) -> Workload<C::Spec> {
        let start = Instant::now();
        let w = C::setup(self.seed);
        let end = Instant::now();
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.root("setup", start, end);
        }
        self.setup_s.push((end - start).as_secs_f64());
        self.probe_s.push(w.probe.as_secs_f64());
        w
    }

    fn traced<C: Case>(&mut self, w: &Workload<C::Spec>) -> Result<Traced, String> {
        let tracer = self.tracer.as_mut().expect("a traced run has a tracer");
        catch(|| traced_verdict::<C>(w, tracer))
    }
}

fn bench<C: Case>(args: &Args) -> Result<(), String> {
    let mut run = Run {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        tally: Tally {
            name: C::NAME,
            holds: C::HOLDS,
            attempted: 0,
            failed: 0,
        },
        setup_s: Vec::new(),
        probe_s: Vec::new(),
        tracer: args.trace.then(Tracer::new),
    };
    let metrics = if args.trace {
        let metrics = traced_run::<C>(&mut run)?;
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-seed{}.jsonl", C::NAME, args.seed));
        let tracer = run.tracer.as_ref().expect("a traced run has a tracer");
        tracer
            .write(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!("spans written to {}", path.display());
        metrics
    } else {
        untraced_run::<C>(&mut run)?
    };
    print_result(C::NAME, args, &run.tally, &metrics)
}

/// Production verdicts only: one untimed warm-up, then timed verdicts
/// until the run's seconds have passed. A [`yardstick_s`] reading
/// follows the warm-up and every timed verdict, so each verdict runs
/// between two readings and each set-up comes right after one.
fn untraced_run<C: Case>(run: &mut Run) -> Result<Vec<Metric>, String> {
    let w = run.setup::<C>();
    run.tally.verdict(untraced::<C>(&w));
    // Read once, however many verdicts the run makes: the fiber leak
    // grows resident memory with every replay, so a read at the end
    // would depend on the host's speed. The yardstick's own
    // allocations come after it.
    let peak_kib = status_kib("VmHWM")?;
    let mut yardstick = vec![yardstick_s()];
    let mut wall = Vec::new();
    let run_start = Instant::now();
    loop {
        let start = Instant::now();
        let v = untraced::<C>(&w);
        wall.push(start.elapsed().as_secs_f64());
        run.tally.verdict(v);
        yardstick.push(yardstick_s());
        run.setup::<C>();
        if run_start.elapsed() >= run.seconds {
            break;
        }
    }
    let scale = |t: f64, y: f64| t * YARDSTICK_NOMINAL_S / y;
    let verdict_s: Vec<f64> = wall
        .iter()
        .zip(yardstick.windows(2))
        .map(|(&t, y)| scale(t, (y[0] + y[1]) / 2.0))
        .collect();
    let setup_s: Vec<f64> = run
        .setup_s
        .iter()
        .zip(&yardstick)
        .map(|(&t, &y)| scale(t, y))
        .collect();
    Ok(vec![
        metric("verdict_s", median(&verdict_s), "s").note(format!(
            " ({}; wall-clock median {} s, yardstick median {} s)",
            timing_note(&verdict_s),
            median(&wall),
            median(&yardstick)
        )),
        metric("peak_rss_mb", peak_kib as f64 / 1024.0, "MiB")
            .note(" (VmHWM after the warm-up verdict)".into()),
        metric("setup_s", median(&setup_s), "s").note(format!(
            " (median of {} set-ups; wall-clock median {} s)",
            setup_s.len(),
            median(&run.setup_s)
        )),
    ])
}

/// What one [`yardstick_s`] pass takes at the host speed `verdict_s`
/// and `setup_s` are stated at: its median on the 2.1 GHz Xeon vCPU
/// the benchmark was tuned on.
const YARDSTICK_NOMINAL_S: f64 = 0.007;

/// Times a fixed churn of hash-map lookups, inserts and small
/// allocations that uses no code of the repository: the host-speed
/// yardstick the end-to-end times are scaled by.
///
/// On a shared host the verdicts' speed drifts by up to 2x within
/// minutes, with the load neighbouring tenants put on the core and its
/// caches; system time and page faults stay flat, so the drift is the
/// CPU's own speed. Scaling each wall-clock time by
/// `YARDSTICK_NOMINAL_S` over the yardstick's reading next to it
/// removes most of that drift (a pure arithmetic loop or a cache
/// pointer-chase tracks it less well than this mix of hashing, probing
/// and allocation, which is what the pipeline itself does). A verdict
/// is scaled by the mean of the readings before and after it, which
/// tracks a seconds-long verdict better than either alone. The
/// yardstick does not run the program, so a change to the program
/// moves `verdict_s` as it moves the wall-clock time, which each run
/// also prints.
fn yardstick_s() -> f64 {
    type FixedHasher = BuildHasherDefault<DefaultHasher>;
    let start = Instant::now();
    let mut buckets: HashMap<u64, Vec<u32>, FixedHasher> = HashMap::default();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut sum = 0u64;
    for i in 0..60_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let bucket = buckets.entry(x % 20_000).or_default();
        bucket.push(i);
        if bucket.len() > 4 {
            sum = sum.wrapping_add(bucket.iter().map(|&v| u64::from(v)).sum::<u64>());
            bucket.clear();
        }
        if let Some(b) = buckets.get(&(x % 30_000)) {
            sum = sum.wrapping_add(b.len() as u64);
        }
    }
    std::hint::black_box(sum);
    drop(buckets);
    start.elapsed().as_secs_f64()
}

/// Production and traced verdicts in alternating order, after one
/// warm-up pair.
fn traced_run<C: Case>(run: &mut Run) -> Result<Vec<Metric>, String> {
    let w = run.setup::<C>();
    let reference = run.tally.verdict(untraced::<C>(&w));
    let warm = run.traced::<C>(&w);
    run.tally.traced(reference.as_ref(), warm);
    let rss_start = status_kib("VmRSS")?;
    let mut replays = 0u64;
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut runs: Vec<Traced> = Vec::new();
    let run_start = Instant::now();
    for round in 0.. {
        // Alternate which goes first, so drift in host load hits both.
        for traced_turn in [round % 2 == 1, round % 2 == 0] {
            let start = Instant::now();
            if traced_turn {
                let t = run.traced::<C>(&w);
                traced_s.push(start.elapsed().as_secs_f64());
                if let Some(t) = run.tally.traced(reference.as_ref(), t) {
                    replays += t.count(|l| l.replays);
                    runs.push(t);
                }
            } else {
                let v = untraced::<C>(&w);
                plain_s.push(start.elapsed().as_secs_f64());
                if let Some(v) = run.tally.verdict(v) {
                    replays += v.outcome.schedules_replayed() as u64;
                }
            }
        }
        run.setup::<C>();
        if run_start.elapsed() >= run.seconds {
            break;
        }
    }
    let rss_end = status_kib("VmRSS")?;
    let first = runs.first().ok_or("no traced verdict completed")?;
    let v = &first.verdict;
    let o = &v.outcome;
    let med = |f: &dyn Fn(&Traced) -> Duration| {
        median(&runs.iter().map(|t| f(t).as_secs_f64()).collect::<Vec<_>>())
    };
    let schedules = o.schedules_replayed() as f64;
    let retained = (rss_end as f64 - rss_start as f64) * 1024.0 / replays as f64;
    Ok(vec![
        metric("sim.vm.busy_s", med(&|t| t.sum(|l| l.vm)), "s").note(format!(
            " (medians over {} traced verdicts; busy times summed over {} worker(s))",
            runs.len(),
            first.workers.len()
        )),
        metric("sim.vm.replays", first.count(|l| l.replays) as f64, "count"),
        metric(
            "sim.vm.trace_items",
            first.count(|l| l.trace_items) as f64,
            "count",
        ),
        metric("sim.vm.retained_bytes_per_replay", retained, "B").note(format!(
            " (VmRSS growth over {replays} replays; verdict {} after {} schedules, \
             conflict depth {})",
            pass_fail(v.holds),
            o.schedules_replayed(),
            v.conflict_depth
        )),
        metric("sim.driver.busy_s", med(&|t| t.sum(|l| l.driver)), "s"),
        metric("sim.driver.picks", first.count(|l| l.picks) as f64, "count"),
        metric(
            "sim.explore.self_s",
            med(&|t| t.sum(|l| l.explore_self())),
            "s",
        ),
        metric("sim.explore.schedules", schedules, "count"),
        metric(
            "sim.explore.useful_ratio",
            o.runs as f64 / schedules,
            "ratio",
        ),
        metric("sim.explore.pruned", o.pruned as f64, "count"),
        metric(
            "check.dag.ingest_s",
            med(&|t| t.sum(|l| l.ingest + l.shard_hooks)),
            "s",
        ),
        metric("check.dag.nodes", v.dag_nodes as f64, "count"),
        metric("check.dag.merge_s", med(&|t| t.merge), "s"),
        metric("check.dag.shards", first.shards as f64, "count"),
        metric("check.strong.s", med(&|t| t.check), "s"),
        metric("check.strong.states", v.states as f64, "count"),
        metric(
            "check.strong.memo_hit_ratio",
            v.memo_hits as f64 / v.states as f64,
            "ratio",
        ),
        metric("analyze.probe_s", median(&run.probe_s), "s"),
        metric("analyze.relaxed", first.relaxed as f64, "count"),
        metric("analyze.validated", first.validated as f64, "count"),
        metric(
            "trace.overhead_ratio",
            median(&traced_s) / median(&plain_s),
            "ratio",
        ),
    ])
}

fn print_result(name: &str, args: &Args, tally: &Tally, metrics: &[Metric]) -> Result<(), String> {
    println!(
        "# {name}  seed {}  trace {}  verdicts {}  failed {}",
        args.seed, args.trace as u8, tally.attempted, tally.failed
    );
    let mut json = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number: {}", m.name, m.value));
        }
        println!("{}: {} {}{}", m.name, m.value, m.unit, m.note);
        json.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    println!(
        "fail_share: {} ({} of {} verdicts failed)",
        tally.failed as f64 / tally.attempted as f64,
        tally.failed,
        tally.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        json.join(", ")
    );
    Ok(())
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The sample count, and the highest percentile with at least ten
/// samples beyond it.
fn timing_note(times: &[f64]) -> String {
    let n = times.len();
    let mut sorted = times.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail = [99usize, 95, 90, 75]
        .into_iter()
        .find(|p| n * (100 - p) >= 1000)
        .map(|p| format!(", p{p} {} s", sorted[(n * p).div_ceil(100) - 1]))
        .unwrap_or_default();
    format!("median of {n} timed verdicts after 1 warm-up{tail}")
}

/// A `/proc/self/status` memory field, in KiB.
fn status_kib(field: &str) -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().strip_suffix("kB")?.trim().parse().ok())
        .ok_or_else(|| format!("no {field} in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use sl_spec::AbaOp;

    use super::*;

    /// One production verdict at `seed`: the operands it explored, and
    /// its verdict and exploration counts. (The checker's state count
    /// is left out: it visits DAG children in content-hash order, so
    /// its path depends on the operand values.)
    fn at_seed<C: Case>(seed: u64) -> (Vec<Vec<<C::Spec as sl_spec::SeqSpec>::Op>>, String) {
        let w = C::setup(seed);
        let v = untraced::<C>(&w).expect("the verdict completes");
        let counts = format!(
            "{} depth {} {:?} dag nodes {}",
            pass_fail(v.holds),
            v.conflict_depth,
            v.outcome,
            v.dag_nodes
        );
        (w.ops, counts)
    }

    fn seeds_agree<C: Case>() {
        let (ops_a, counts_a) = at_seed::<C>(DEFAULT_SEED);
        let (ops_b, counts_b) = at_seed::<C>(DEFAULT_SEED + 1);
        assert_ne!(
            ops_a,
            ops_b,
            "{}: the seed must change the operands",
            C::NAME
        );
        assert_eq!(
            counts_a,
            counts_b,
            "{}: seeds must not change the verdict or counts",
            C::NAME
        );
    }

    #[test]
    fn seeds_agree_aba_mixed3_deep() {
        seeds_agree::<AbaMixed3Deep>();
    }

    #[test]
    fn seeds_agree_snapshot_bounded() {
        seeds_agree::<SnapshotBounded>();
    }

    #[test]
    fn seeds_agree_obs4_refute_par() {
        seeds_agree::<Obs4RefutePar>();
    }

    #[test]
    fn seeds_keep_which_operands_are_equal() {
        let distinct_writes = |ops: &[Vec<AbaOp<u64>>]| {
            let mut values: Vec<u64> = ops
                .iter()
                .flatten()
                .filter_map(|op| match op {
                    AbaOp::DWrite(v) => Some(*v),
                    AbaOp::DRead => None,
                })
                .collect();
            values.sort_unstable();
            values.dedup();
            values.len()
        };
        for seed in [0, 1, 2, u64::MAX] {
            assert_eq!(distinct_writes(&AbaMixed3Deep::setup(seed).ops), 3);
            assert_eq!(distinct_writes(&Obs4RefutePar::setup(seed).ops), 1);
        }
    }
}
