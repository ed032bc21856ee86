//! Baseline load / compare / refresh for experiment regression gates.
//!
//! The experiment binaries record reference numbers (deterministic
//! schedule counts, minimum speedups) in JSON files under
//! `crates/bench/baselines/`. This module owns the three pieces every
//! gate needs, so binaries don't hand-roll them:
//!
//! * [`Baseline::load`] + the extraction helpers — the file is parsed
//!   by the workspace's one fail-closed JSON parser
//!   ([`sl_sim::wire`]); baselines are pretty-printed, so they are the
//!   one format exempt from its canonical-bytes rule.
//! * [`Gate`] — accumulates pass/fail comparisons with uniform
//!   reporting; `regressed()` drives the process exit code.
//! * [`refresh`] — rewrites a baseline file from a freshly measured
//!   summary, preserving the gate thresholds and header comment, so
//!   `--refresh-baseline` replaces hand-editing the JSON.

use std::fmt::Write as _;

use sl_sim::wire::{push_str, Json, Parser};

/// A loaded baseline file: its parsed top-level object.
pub struct Baseline {
    fields: Vec<(String, Json)>,
}

/// The value of `key` in an object's fields, if present.
fn get<'a>(fields: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// A present baseline number; anything else panics with a named
/// diagnostic.
fn as_f64(key: &str, v: &Json) -> f64 {
    match v {
        Json::Num(n) => *n as f64,
        Json::Dec(d) => d.parse().expect("a d+.d+ decimal is a valid f64"),
        other => panic!("baseline key \"{key}\": expected a number, found {other:?} (fail-closed)"),
    }
}

impl Baseline {
    /// Reads the baseline at `path`; panics with a clear message on
    /// I/O errors (the gate cannot run without its reference) and on
    /// truncated or invalid JSON — a torn write must not silently
    /// disable the gates it recorded.
    pub fn load(path: &str) -> Baseline {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        Baseline::parse(&text).unwrap_or_else(|why| {
            panic!(
                "truncated or invalid baseline JSON at {path} (fail-closed): {why}; re-record it \
                 with --refresh-baseline"
            )
        })
    }

    /// Parses baseline text: one JSON object.
    pub fn parse(text: &str) -> Result<Baseline, String> {
        match Parser::new(text, "baseline").parse_document()? {
            Json::Obj(fields) => Ok(Baseline { fields }),
            other => Err(format!("baseline: expected an object, found {other:?}")),
        }
    }

    /// A top-level number (e.g. `"min_speedup_8w": 3.0`). An absent key
    /// returns `None` (which disables the associated opt-in gate); a
    /// present key that is not a number panics (fail-closed: a
    /// malformed threshold must not switch its gate off).
    pub fn number(&self, key: &str) -> Option<f64> {
        get(&self.fields, key).map(|v| as_f64(key, v))
    }

    /// A number inside a top-level object (e.g. `vm_steps_per_sec`'s
    /// `"full"` rate), with [`Baseline::number`]'s semantics.
    pub fn number_in(&self, object: &str, key: &str) -> Option<f64> {
        match get(&self.fields, object)? {
            Json::Obj(fields) => get(fields, key).map(|v| as_f64(key, v)),
            other => panic!("baseline key \"{object}\": expected an object, found {other:?}"),
        }
    }

    /// The recorded count of `key` for the object in `workloads` whose
    /// `name` is `name`. `None` when the workload or its key is absent;
    /// a present but malformed entry panics with a named diagnostic.
    pub fn workload_count(&self, name: &str, key: &str) -> Option<usize> {
        let malformed = |what: &str, v: &Json| -> ! {
            panic!("baseline {what}: malformed entry {v:?} (fail-closed)")
        };
        let workloads = match get(&self.fields, "workloads")? {
            Json::Arr(items) => items,
            other => malformed("\"workloads\"", other),
        };
        for w in workloads {
            let Json::Obj(fields) = w else {
                malformed("workload", w)
            };
            match get(fields, "name") {
                Some(Json::Str(n)) if n == name => {}
                Some(Json::Str(_)) => continue,
                _ => malformed("workload without a string \"name\"", w),
            }
            let v = get(fields, key)?;
            let n = v
                .as_num(&format!("baseline workload {name:?} key {key:?}"))
                .unwrap_or_else(|e| panic!("{e} (fail-closed)"));
            return Some(n as usize);
        }
        None
    }
}

/// Accumulates gate comparisons with uniform pass/fail reporting.
#[derive(Default)]
pub struct Gate {
    regressed: bool,
}

impl Gate {
    /// A fresh gate with nothing failed yet.
    pub fn new() -> Gate {
        Gate::default()
    }

    /// Whether any comparison failed.
    pub fn regressed(&self) -> bool {
        self.regressed
    }

    /// Records an unconditional failure (e.g. a workload missing from
    /// the baseline file).
    pub fn fail(&mut self, msg: &str) {
        eprintln!("REGRESSION GATE: {msg}");
        self.regressed = true;
    }

    /// Gates `measured <= recorded` (deterministic counts where any
    /// increase is a regression). `None` means the baseline does not
    /// record the count — that fails too, so refreshes can't silently
    /// drop a gate.
    pub fn count_not_above(&mut self, what: &str, measured: usize, recorded: Option<usize>) {
        match recorded {
            None => self.fail(&format!("{what}: no recorded baseline count")),
            Some(rec) if measured > rec => {
                eprintln!("REGRESSION: {what} measured {measured} > recorded {rec}");
                self.regressed = true;
            }
            Some(rec) => println!("baseline ok: {what} measured {measured} <= recorded {rec}"),
        }
    }

    /// Gates `measured >= min` for a speedup ratio; `None` (absent gate
    /// key) skips silently — speedup floors are opt-in per baseline.
    pub fn speedup_at_least(&mut self, what: &str, measured: f64, min: Option<f64>) {
        let Some(min) = min else { return };
        if measured < min {
            let measured = below(measured, min);
            eprintln!("REGRESSION: {what} {measured}x below recorded minimum {min}x");
            self.regressed = true;
        } else {
            println!("baseline ok: {what} {measured:.2}x >= {min}x");
        }
    }

    /// Reports a gate skipped for an environmental reason (not a
    /// failure) — e.g. too few CPUs to measure a scaling point.
    pub fn skip(&mut self, msg: &str) {
        println!("({msg})");
    }
}

/// `measured` (below `floor`) with the fewest decimals, at least two,
/// that still read below `floor`, so a failing ratio never prints as
/// its floor (0.948 against 0.95 reads "0.948", not "0.95").
fn below(measured: f64, floor: f64) -> String {
    (2..=17)
        .map(|decimals| format!("{measured:.decimals$}"))
        .find(|text| text.parse::<f64>().is_ok_and(|read| read < floor))
        .unwrap_or_else(|| measured.to_string())
}

/// Writes `contents` to `path` atomically: a process-unique temp file
/// in the same directory, then a rename over the target — a crash
/// mid-write leaves either the old file or the new one on disk, never
/// a torn mix. This is [`sl_sim::wire::atomic_write`] (the same helper
/// the checkpoint store and the distributed frame protocol publish
/// through), with the gate-appropriate panic-on-error semantics.
pub fn atomic_write(path: &str, contents: &str) {
    sl_sim::wire::atomic_write(std::path::Path::new(path), contents)
        .unwrap_or_else(|e| panic!("baseline write failed (fail-closed): {e}"));
}

/// Rewrites the baseline at `path` from a freshly measured summary:
/// the preserved `comment` and the gate thresholds come first, then
/// every top-level field of `measured_json` (which must be a JSON
/// object — the `--json` emission of the same binary). This is what
/// `--refresh-baseline` runs instead of asking anyone to hand-edit
/// recorded counts.
pub fn refresh(path: &str, comment: &str, gates: &[(&str, f64)], measured_json: &str) {
    let body = measured_json
        .trim()
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .unwrap_or_else(|| panic!("measured summary is not a JSON object"));
    let mut out = String::from("{\n");
    out.push_str("  \"_comment\": ");
    push_str(&mut out, comment);
    out.push_str(",\n");
    for (key, value) in gates {
        let _ = writeln!(out, "  \"{key}\": {value},");
    }
    out.push_str(body.trim_matches('\n'));
    out.push_str("\n}\n");
    atomic_write(path, &out);
    println!("(baseline refreshed at {path})");
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "_comment": "x — y",
  "min_reuse_speedup": 1.0,
  "vm_steps_per_sec": {"full": 12, "traced": 7.5},
  "workloads": [
    {
      "name": "a",
      "dpor_replayed": 17,
      "value_dpor_replayed": 11
    },
    {
      "name": "b",
      "dpor_replayed": 7228
    }
  ]
}"#;

    #[test]
    fn extracts_numbers_and_counts() {
        let b = Baseline::parse(SAMPLE).unwrap();
        assert_eq!(b.number("min_reuse_speedup"), Some(1.0));
        assert_eq!(b.number("absent"), None);
        assert_eq!(b.number_in("vm_steps_per_sec", "full"), Some(12.0));
        assert_eq!(b.number_in("vm_steps_per_sec", "traced"), Some(7.5));
        assert_eq!(b.workload_count("a", "dpor_replayed"), Some(17));
        assert_eq!(b.workload_count("b", "dpor_replayed"), Some(7228));
        assert_eq!(b.workload_count("a", "value_dpor_replayed"), Some(11));
        // `b` has no value_dpor_replayed: it must not steal a later
        // workload's count (none here) nor misattribute `a`'s.
        assert_eq!(b.workload_count("b", "value_dpor_replayed"), None);
        assert_eq!(b.workload_count("c", "dpor_replayed"), None);
    }

    #[test]
    fn load_rejects_truncated_or_invalid_json_fail_closed() {
        // A torn write of SAMPLE at any cut point must be rejected, not
        // read as "every gate key absent".
        for cut in 1..SAMPLE.len() - 1 {
            if !SAMPLE.is_char_boundary(cut) {
                continue;
            }
            let torn = &SAMPLE[..cut];
            assert!(
                Baseline::parse(torn).is_err(),
                "cut at {cut} accepted: {torn:?}"
            );
        }
        assert!(Baseline::parse("").is_err(), "empty file");
        assert!(Baseline::parse("null").is_err(), "not an object");
        assert!(Baseline::parse("[]").is_err(), "not an object");
        assert!(Baseline::parse("{\"a\": 1}}").is_err(), "extra brace");
        let dir = std::env::temp_dir().join(format!("sl-baseline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.json");
        std::fs::write(&path, &SAMPLE[..SAMPLE.len() / 2]).unwrap();
        let path_str = path.to_str().unwrap().to_string();
        let err = std::panic::catch_unwind(|| Baseline::load(&path_str))
            .err()
            .expect("torn baseline must fail closed");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("truncated or invalid baseline JSON"),
            "diagnostic must be named: {msg}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = std::panic::catch_unwind(f).expect_err("must fail closed");
        err.downcast_ref::<String>().cloned().unwrap_or_default()
    }

    #[test]
    fn a_quoted_threshold_fails_closed_instead_of_skipping_its_gate() {
        let b = Baseline::parse("{\"min_ckpt_ratio\": \"0.95\"}").unwrap();
        let msg = panic_message(move || {
            b.number("min_ckpt_ratio");
        });
        assert!(
            msg.contains("\"min_ckpt_ratio\": expected a number"),
            "named diagnostic: {msg}"
        );
        let b =
            Baseline::parse(r#"{"workloads": [{"name": "a", "dpor_replayed": "17"}]}"#).unwrap();
        let msg = panic_message(move || {
            b.workload_count("a", "dpor_replayed");
        });
        assert!(msg.contains("expected an unsigned integer"), "{msg}");
    }

    #[test]
    fn a_failing_ratio_never_prints_as_its_floor() {
        assert_eq!(below(0.948, 0.95), "0.948");
        assert_eq!(below(0.5, 0.95), "0.50");
        assert_eq!(below(0.9499999, 0.95), "0.9499999");
        assert_eq!(below(0.95 - 1e-12, 0.95), "0.949999999999");
        let next_below = f64::from_bits(0.95f64.to_bits() - 1);
        assert!(below(next_below, 0.95).parse::<f64>().unwrap() < 0.95);
    }

    #[test]
    fn a_nested_key_never_shadows_the_top_level_one() {
        let text = r#"{
  "workloads": [{"name": "a", "min_ckpt_ratio": 0.10}],
  "min_ckpt_ratio": 0.95
}"#;
        let b = Baseline::parse(text).unwrap();
        assert_eq!(b.number("min_ckpt_ratio"), Some(0.95));
        // Absent at the top level: absent, whatever a workload holds.
        let b =
            Baseline::parse(r#"{"workloads": [{"name": "a", "min_ckpt_ratio": 0.10}]}"#).unwrap();
        assert_eq!(b.number("min_ckpt_ratio"), None);
    }

    #[test]
    fn a_threshold_without_a_leading_digit_is_rejected() {
        let err = Baseline::parse("{\"min_ckpt_ratio\": .95}").err().unwrap();
        assert!(err.contains("unexpected character"), "{err}");
        let err = Baseline::parse("{\"min_ckpt_ratio\": 1e-1}").err().unwrap();
        assert!(err.contains("exponents"), "{err}");
    }

    #[test]
    fn refresh_writes_atomically_and_roundtrips() {
        let dir = std::env::temp_dir().join(format!("sl-baseline-rw-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("base.json");
        let path_str = path.to_str().unwrap();
        refresh(
            path_str,
            "test \"quoted\" — comment",
            &[("min_x", 1.5)],
            "{\n  \"workloads\": []\n}",
        );
        let b = Baseline::load(path_str);
        assert_eq!(b.number("min_x"), Some(1.5));
        // No temp file may survive the rename.
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "base.json")
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gate_accumulates_failures() {
        let mut g = Gate::new();
        g.count_not_above("w", 5, Some(5));
        assert!(!g.regressed());
        g.speedup_at_least("s", 2.0, Some(1.5));
        assert!(!g.regressed());
        g.speedup_at_least("s", 1.0, None); // absent gate: skipped
        assert!(!g.regressed());
        g.count_not_above("w", 6, Some(5));
        assert!(g.regressed());
    }
}
