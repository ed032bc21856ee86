//! The checked-in artifacts under `crates/bench/baselines/` parse
//! through the same fail-closed parsers that consume them in
//! production: the certificate catalog through `catalog_from_json`
//! (every consistency check, canonical bytes) and the explorer
//! baseline through `Baseline::load` (every gate threshold a number).

use sl_bench::Baseline;

fn artifact(name: &str) -> String {
    format!("{}/baselines/{name}", env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn checked_in_certificate_catalog_parses_canonically() {
    let path = artifact("certificates.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    let certs = sl_analyze::catalog_from_json(&text).unwrap_or_else(|e| panic!("{path}: {e}"));
    // The 28-entry 2-process catalog plus the 3-process Algorithm-2
    // certificate the mixed-role rows consume.
    assert_eq!(certs.len(), 29);
}

#[test]
fn checked_in_explorer_baseline_parses_with_every_gate() {
    let b = Baseline::load(&artifact("explorer_baseline.json"));
    for key in [
        "min_reuse_speedup",
        "min_speedup_4w",
        "min_speedup_8w",
        "min_ckpt_ratio",
        "min_dist_ratio",
    ] {
        assert!(b.number(key).is_some(), "gate threshold {key} is missing");
    }
    for (workload, unpruned, source, optimal) in [
        ("aba_1w1r", Some(56), 17, 10),
        ("aba_2w2r", Some(73_914), 7_228, 3_108),
        ("aba_mixed3", None, 2_746, 598),
        ("aba_mixed3_deep", None, 204_257, 23_888),
    ] {
        assert_eq!(b.workload_count(workload, "unpruned_replayed"), unpruned);
        assert_eq!(b.workload_count(workload, "dpor_replayed"), Some(source));
        assert_eq!(
            b.workload_count(workload, "optimal_dpor_replayed"),
            Some(optimal)
        );
    }
}
