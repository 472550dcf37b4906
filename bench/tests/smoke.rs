//! Smoke run of every workload, untraced and traced, with 1 s windows:
//! each run passes its own correctness checks, prints exactly the
//! metrics `BENCHMARK.json` declares for its section (in the declared
//! units), and appends one ledger row per metric.

use std::path::PathBuf;
use std::process::Command;

use foundation::json::Json;

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
const EXE: &str = env!("CARGO_BIN_EXE_lorastencil-bench");

fn keys(doc: &Json) -> Vec<&str> {
    match doc {
        Json::Obj(pairs) => pairs.iter().map(|(k, _)| k.as_str()).collect(),
        _ => panic!("not an object: {}", doc.dump()),
    }
}

/// `(name, unit)` of every metric in one section of the declaration.
fn declared(decl: &Json, section: &str) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> = decl
        .get(section)
        .and_then(Json::as_arr)
        .expect("declared section")
        .iter()
        .map(|m| {
            let s = |k| m.get(k).and_then(Json::as_str).expect("name and unit").to_string();
            (s("name"), s("unit"))
        })
        .collect();
    v.sort();
    v
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let decl = Json::parse(BENCHMARK).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = decl
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name").to_string())
        .collect();
    let ledger = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("smoke-ledger-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&ledger);
    let mut rows = 0;
    for w in &workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(EXE)
                .args(["--workload", w, "--seed", "3", "--seconds", "1", "--trace", trace])
                .arg("--ledger")
                .arg(&ledger)
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{w} trace={trace}: {}\n{stdout}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let doc = Json::parse(last).unwrap_or_else(|e| panic!("{w}: {e}: {last}"));
            assert_eq!(keys(&doc), ["correct", "attempted", "failed", "metrics"], "{w}");
            assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{w}: {last}");
            assert_eq!(doc.get("failed").and_then(Json::as_f64), Some(0.0), "{w}");
            assert!(doc.get("attempted").and_then(Json::as_f64).is_some_and(|n| n >= 1.0));
            let metrics = doc.get("metrics").expect("metrics");
            let mut printed: Vec<(String, String)> = keys(metrics)
                .into_iter()
                .map(|name| {
                    let m = metrics.get(name).expect("metric entry");
                    assert_eq!(keys(m), ["value", "unit"], "{w}/{name}");
                    let v = m.get("value").and_then(Json::as_f64);
                    assert!(v.is_some_and(f64::is_finite), "{w}/{name} = {}", m.dump());
                    (name.to_string(), m.get("unit").and_then(Json::as_str).unwrap().to_string())
                })
                .collect();
            printed.sort();
            assert_eq!(printed, declared(&decl, section), "{w} trace={trace}");
            rows += printed.len();
        }
    }
    let text = std::fs::read_to_string(&ledger).expect("runs append to the ledger");
    assert_eq!(text.lines().count(), rows, "one ledger row per (run, metric)");
    for line in text.lines() {
        let row = Json::parse(line).expect("ledger rows are JSON");
        for k in ["rev", "dirty", "cpu", "nproc", "kernel", "foundation_threads", "seed", "n"] {
            assert!(row.get(k).is_some(), "ledger row without {k}: {line}");
        }
        assert_eq!(row.get("foundation_threads").and_then(Json::as_str), Some("1"));
        for k in ["p25", "median", "p75"] {
            assert!(row.get(k).and_then(Json::as_f64).is_some(), "{k}: {line}");
        }
    }
    let _ = std::fs::remove_file(&ledger);
}

#[test]
fn bad_arguments_fail_without_a_result_line() {
    for args in [&["--workload", "no-such-workload"][..], &["--trace", "2"], &["--seed"]] {
        let out = Command::new(EXE).args(args).output().expect("benchmark runs");
        assert!(!out.status.success(), "{args:?} must fail");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("\"correct\""), "{args:?} printed a result: {stdout}");
    }
}
