//! Smoke test: every workload runs small through the real binary, and
//! the line it ends with has the declared shape. The seed is an
//! argument; the library crates receive only generated inputs.

// Shared with the binary, which uses the rest of them.
#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;
#[allow(dead_code)]
#[path = "../src/metrics.rs"]
mod metrics;

use json::Json;
use metrics::{END_TO_END, PER_LAYER};
use std::collections::BTreeSet;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["range_cold", "point_hot", "txn_commit", "mixed"];

/// Run the benchmark small: `rounds` rounds of 20 ops on 600 rows.
/// Returns whether it exited 0 and its last line, parsed.
fn run_small(workload: &str, rounds: &str, trace: &str) -> (bool, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_vbx-benchmark"))
        .args(["--workload", workload, "--seed", "7", "--trace", trace])
        .args(["--rounds", rounds, "--ops", "20", "--rows", "600"])
        .args(["--setups", "1", "--recoveries", "1"])
        .output()
        .expect("benchmark binary starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default();
    let parsed = json::parse(last).unwrap_or_else(|e| {
        panic!(
            "{workload}: last line is not JSON ({e}): {last:?}\nstderr: {}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.success(), parsed)
}

fn text(v: &Json) -> Option<&str> {
    match v {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn keys(v: &Json) -> BTreeSet<String> {
    v.as_obj().expect("an object").keys().cloned().collect()
}

fn names<'a>(names: impl IntoIterator<Item = &'a str>) -> BTreeSet<String> {
    names.into_iter().map(str::to_string).collect()
}

fn smoke(workload: &str) {
    let (ok, line) = run_small(workload, "1", "0");
    assert_eq!(
        keys(&line),
        names(["correct", "attempted", "failed", "metrics"])
    );
    assert_eq!(line.get("correct"), Some(&Json::Bool(true)), "{workload}");
    assert_eq!(line.get("failed"), Some(&Json::Num(0.0)), "{workload}");
    assert_eq!(line.get("attempted"), Some(&Json::Num(20.0)), "{workload}");
    assert!(ok, "{workload}: a correct run exits 0");
    let metrics = line.get("metrics").expect("metrics");
    assert_eq!(keys(metrics), names(END_TO_END.iter().map(|m| m.name)));
    for m in &END_TO_END {
        let got = metrics.get(m.name).expect("named above");
        assert_eq!(keys(got), names(["value", "unit"]), "{}", m.name);
        assert_eq!(got.get("unit").and_then(text), Some(m.unit));
        let value = got.get("value").and_then(Json::as_f64).expect("a number");
        assert!(value > 0.0, "{workload} {} = {value}", m.name);
    }
}

#[test]
fn range_cold_runs_small() {
    smoke("range_cold");
}

#[test]
fn point_hot_runs_small() {
    smoke("point_hot");
}

#[test]
fn txn_commit_runs_small() {
    smoke("txn_commit");
}

#[test]
fn mixed_runs_small() {
    smoke("mixed");
}

/// A traced run names exactly the per-layer metrics. (Whether its
/// trace reconciles is not asserted at this size: 20 ops are too few
/// for a steady median.)
#[test]
fn traced_run_reports_every_layer_metric() {
    let (_, line) = run_small("txn_commit", "2", "1");
    let metrics = line.get("metrics").expect("metrics");
    assert_eq!(keys(metrics), names(PER_LAYER.iter().map(|m| m.name)));
    for m in &PER_LAYER {
        let got = metrics.get(m.name).expect("named above");
        assert_eq!(got.get("unit").and_then(text), Some(m.unit));
        assert!(got.get("value").and_then(Json::as_f64).is_some());
    }
}

#[test]
fn bad_arguments_exit_non_zero_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_vbx-benchmark"))
        .args(["--workload", "no_such_workload", "--seed", "1"])
        .output()
        .expect("benchmark binary starts");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

/// `BENCHMARK.json` at the root of the repo declares what the tables
/// in `src/metrics.rs` define. (Skipped where the file is not there:
/// the crate may be built apart from the repo.)
#[test]
fn benchmark_json_declares_the_same_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let Ok(raw) = std::fs::read_to_string(path) else {
        return;
    };
    let doc = json::parse(&raw).expect("BENCHMARK.json parses");
    assert_eq!(
        keys(&doc),
        names([
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );
    let list = |key: &str| match doc.get(key) {
        Some(Json::Arr(a)) => a.clone(),
        _ => panic!("{key} is not a list"),
    };
    let text_of = |v: &Json, key: &str| v.get(key).and_then(text).map(str::to_string);

    let declared: Vec<_> = list("workloads")
        .iter()
        .map(|w| text_of(w, "name"))
        .collect();
    let defined: Vec<_> = WORKLOADS.iter().map(|w| Some(w.to_string())).collect();
    assert_eq!(declared, defined);

    let declared: Vec<_> = list("end_to_end")
        .iter()
        .map(|m| {
            (
                text_of(m, "name"),
                text_of(m, "unit"),
                text_of(m, "better"),
                m.get("bound").and_then(Json::as_f64),
            )
        })
        .collect();
    let better = |higher: bool| Some(if higher { "higher" } else { "lower" }.to_string());
    let defined: Vec<_> = END_TO_END
        .iter()
        .map(|m| {
            (
                Some(m.name.to_string()),
                Some(m.unit.to_string()),
                better(m.higher_is_better),
                Some(m.bound),
            )
        })
        .collect();
    assert_eq!(declared, defined);

    let declared: Vec<_> = list("per_layer")
        .iter()
        .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
        .collect();
    let defined: Vec<_> = PER_LAYER
        .iter()
        .map(|m| {
            (
                Some(m.name.to_string()),
                Some(m.unit.to_string()),
                better(m.higher_is_better),
            )
        })
        .collect();
    assert_eq!(declared, defined);
}
