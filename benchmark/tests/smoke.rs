//! Runs every workload at `--smoke` size, untraced and traced, and checks
//! the result line against `BENCHMARK.json`: every metric present with its
//! unit, every result correct, nothing failed.

#[path = "../src/json.rs"]
#[allow(dead_code)]
mod json;

use json::Json;
use std::process::Command;

const WORKLOADS: [&str; 4] = ["hash-stream", "serve-mixed", "flow-churn", "drift-attack"];

fn spec() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside benchmark/");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` of every metric in `list` of the spec.
fn metrics(spec: &Json, list: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = spec.get(list) else {
        panic!("BENCHMARK.json has no {list}");
    };
    items
        .iter()
        .map(|m| {
            let s = |k| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_owned()
            };
            (s("name"), s("unit"))
        })
        .collect()
}

fn run(workload: &str, trace: bool) -> Json {
    let bin = env!("CARGO_BIN_EXE_sepe-bench");
    let out = Command::new(bin)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.5",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--out", env!("CARGO_TARGET_TMPDIR")])
        // The traced run prices `obs` against an `obs`-off build; here the
        // same build stands in, which exercises everything but the delta.
        .env("SEPE_BENCH_OBS_OFF", bin)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line")).expect("the result line is JSON")
}

fn check(workload: &str, trace: bool, expected: &[(String, String)]) {
    let r = run(workload, trace);
    assert_eq!(r.get("correct"), Some(&Json::Bool(true)), "{workload}: {r}");
    assert_eq!(
        r.get("failed").and_then(Json::as_f64),
        Some(0.0),
        "{workload}: {r}"
    );
    assert!(r.get("attempted").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0);
    let got = r.get("metrics").expect("metrics");
    assert_eq!(got.entries().len(), expected.len(), "{workload}: {got}");
    for (name, unit) in expected {
        let m = got
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: no {name} in {got}"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(unit.as_str()),
            "{name}"
        );
        let v = m.get("value").and_then(Json::as_f64);
        assert!(v.is_some_and(f64::is_finite), "{workload}: {name} = {m}");
    }
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let expected = metrics(&spec(), "end_to_end");
    for w in WORKLOADS {
        check(w, false, &expected);
    }
}

#[test]
fn every_workload_reports_every_per_layer_metric() {
    let expected = metrics(&spec(), "per_layer");
    for w in WORKLOADS {
        check(w, true, &expected);
    }
}

#[test]
fn bad_arguments_are_refused() {
    let bin = env!("CARGO_BIN_EXE_sepe-bench");
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "hash-stream", "--trace", "2"],
        &["--workload", "hash-stream", "--seconds", "0"],
    ] {
        let out = Command::new(bin).args(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
