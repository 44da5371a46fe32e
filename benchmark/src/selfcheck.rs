//! `selfcheck`: is the benchmark steady enough to gate a change?
//!
//! Runs two sets of the same seeds per workload back to back and
//! compares, per workload × end-to-end metric, the two medians with
//! the metric's bound; then runs each workload traced twice on one
//! seed and requires every count made by the program to repeat
//! exactly where one client makes the run deterministic.

use crate::json::{self, Json};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::run::RUN_SECONDS;
use crate::stats::{median, spread};
use crate::workloads::Workload;
use std::collections::BTreeMap;
use std::process::Command;

/// Metric values of one run, by name.
type Values = BTreeMap<String, f64>;

/// Run this binary on one workload and parse its result line.
fn child(wl: Workload, seed: u64, traced: bool) -> Result<Values, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", wl.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawn run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty());
    let result = line
        .ok_or_else(|| "run printed nothing".to_string())
        .and_then(json::parse)
        .map_err(|e| {
            format!(
                "{} seed {seed}: no result line ({e}); stderr:\n{}",
                wl.name(),
                String::from_utf8_lossy(&out.stderr)
            )
        })?;
    let ok = out.status.success()
        && result.get("correct").and_then(Json::as_bool) == Some(true)
        && result.get("failed").and_then(Json::as_f64) == Some(0.0);
    if !ok {
        return Err(format!(
            "{} seed {seed}: run not correct: {line:?}",
            wl.name()
        ));
    }
    let metrics = result.get("metrics").and_then(Json::as_obj);
    Ok(metrics
        .into_iter()
        .flatten()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect())
}

/// By how much of `first` is `second` worse (negative: better)?
fn worse_by(first: f64, second: f64, higher_is_better: bool) -> f64 {
    let d = if higher_is_better {
        first - second
    } else {
        second - first
    };
    if first == 0.0 {
        0.0
    } else {
        d / first.abs()
    }
}

pub fn run(mut args: impl Iterator<Item = String>) -> Result<bool, String> {
    let mut seeds = 3u64;
    while let Some(flag) = args.next() {
        match (flag.as_str(), args.next().and_then(|v| v.parse().ok())) {
            ("--seeds", Some(n)) if n >= 3 => seeds = n,
            _ => return Err("usage: vbx-benchmark selfcheck [--seeds <n ≥ 3>]".into()),
        }
    }
    let mut pass = true;

    println!("# two sets of {seeds} seeds per workload, untraced");
    println!(
        "{:<11} {:<19} {:>12} {:>8} {:>12} {:>8} {:>8} {:>7}",
        "workload", "metric", "median 1", "spread 1", "median 2", "spread 2", "gap", "bound"
    );
    for wl in Workload::ALL {
        let mut sets: [Vec<Values>; 2] = [Vec::new(), Vec::new()];
        for set in &mut sets {
            for seed in 1..=seeds {
                set.push(child(wl, seed, false)?);
            }
        }
        for m in &END_TO_END {
            let col = |set: &[Values]| -> Vec<f64> { set.iter().map(|v| v[m.name]).collect() };
            let (a, b) = (col(&sets[0]), col(&sets[1]));
            let gap = worse_by(median(&a), median(&b), m.higher_is_better);
            let verdict = if gap > m.bound {
                pass = false;
                "FAIL"
            } else if gap > m.bound / 2.0 {
                "warn"
            } else {
                ""
            };
            println!(
                "{:<11} {:<19} {:>12.5} {:>7.2}% {:>12.5} {:>7.2}% {:>7.2}% {:>6.1}% {verdict}",
                wl.name(),
                m.name,
                median(&a),
                100.0 * spread(&a),
                median(&b),
                100.0 * spread(&b),
                100.0 * gap,
                100.0 * m.bound
            );
        }
        if wl.clients(crate::env::nproc()) == 1 {
            // Same seed, same counts: bytes per row must not move at all.
            for (a, b) in sets[0].iter().zip(&sets[1]) {
                if a["wire_bytes_per_row"] != b["wire_bytes_per_row"] {
                    println!(
                        "{} wire_bytes_per_row differs between the sets: FAIL",
                        wl.name()
                    );
                    pass = false;
                }
            }
        }
    }

    println!("\n# each workload traced twice on seed 1");
    for wl in Workload::ALL {
        let (a, b) = (child(wl, 1, true)?, child(wl, 1, true)?);
        let one_client = wl.clients(crate::env::nproc()) == 1;
        let differing: Vec<&str> = PER_LAYER
            .iter()
            .filter(|m| m.exact && a[m.name] != b[m.name])
            .map(|m| m.name)
            .collect();
        println!(
            "{:<11} coverage {:.3} / {:.3}  overhead {:.3} / {:.3}  counts that differ: {:?}{}",
            wl.name(),
            a["trace.coverage"],
            b["trace.coverage"],
            a["trace.overhead_ratio"],
            b["trace.overhead_ratio"],
            differing,
            if one_client && !differing.is_empty() {
                "  FAIL"
            } else {
                ""
            }
        );
        pass &= !one_client || differing.is_empty();
    }
    println!("\nselfcheck {}", if pass { "passed" } else { "FAILED" });
    Ok(pass)
}
