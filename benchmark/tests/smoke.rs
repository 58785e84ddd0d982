//! Runs the whole benchmark at smoke sizes through the real binary and
//! checks what it emits against the contract `BENCHMARK.json` is held to.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

const EXE: &str = env!("CARGO_BIN_EXE_specfem-benchmark");

fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn names(list: &Value) -> Vec<String> {
    list.as_array()
        .expect("a list")
        .iter()
        .map(|m| m["name"].as_str().expect("a name").to_string())
        .collect()
}

fn benchmark_json() -> Value {
    let text = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

#[test]
fn benchmark_json_meets_the_contract() {
    let spec = benchmark_json();
    let keys: BTreeSet<&str> = spec
        .as_object()
        .expect("an object")
        .keys()
        .map(String::as_str)
        .collect();
    let want = [
        "command",
        "end_to_end",
        "paths",
        "per_layer",
        "run_seconds",
        "workloads",
    ];
    assert_eq!(keys, want.into_iter().collect());

    let workloads = names(&spec["workloads"]);
    assert!((2..=8).contains(&workloads.len()));
    let end_to_end = names(&spec["end_to_end"]);
    assert!((1..=16).contains(&end_to_end.len()));
    let per_layer = names(&spec["per_layer"]);
    assert!((1..=128).contains(&per_layer.len()));
    let all: Vec<&String> = workloads
        .iter()
        .chain(&end_to_end)
        .chain(&per_layer)
        .collect();
    assert!(all.iter().all(|n| valid_name(n)));
    assert_eq!(
        all.iter().collect::<BTreeSet<_>>().len(),
        all.len(),
        "a name is used twice"
    );

    for w in spec["workloads"].as_array().unwrap() {
        let why = w["why"].as_str().expect("every workload says why");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
    for m in spec["end_to_end"].as_array().unwrap() {
        assert!(valid_unit(m["unit"].as_str().expect("a unit")));
        assert!(matches!(m["better"].as_str(), Some("lower" | "higher")));
        let bound = m["bound"]
            .as_f64()
            .expect("every end-to-end metric has a bound");
        assert!(bound > 0.0 && bound <= 0.25);
    }
    for m in spec["per_layer"].as_array().unwrap() {
        assert!(valid_unit(m["unit"].as_str().expect("a unit")));
        assert!(matches!(m["better"].as_str(), Some("lower" | "higher")));
        assert!(m.get("bound").is_none(), "per-layer metrics carry no bound");
    }
    let setup = spec["end_to_end"]
        .as_array()
        .unwrap()
        .iter()
        .find(|m| m["name"].as_str() == Some("setup_s"))
        .expect("setup_s is an end-to-end metric");
    assert_eq!(
        (setup["unit"].as_str(), setup["better"].as_str()),
        (Some("s"), Some("lower"))
    );
    assert!((1..=60).contains(&spec["run_seconds"].as_u64().expect("run_seconds")));
    for p in spec["paths"].as_array().unwrap() {
        assert!(bench_dir().join("..").join(p.as_str().unwrap()).is_dir());
    }
}

#[test]
fn smoke_run_reports_every_metric_for_every_workload() {
    let spec = benchmark_json();
    let out = bench_dir().join("out").join("smoke_test_results.json");
    let status = Command::new(EXE)
        .args(["run", "--smoke", "--seed", "11", "--out"])
        .arg(&out)
        .status()
        .expect("run the benchmark binary");
    assert!(status.success(), "run --smoke failed");

    let results: Value =
        serde_json::from_str(&std::fs::read_to_string(&out).expect("results file"))
            .expect("results parse");
    for w in names(&spec["workloads"]) {
        let r = &results["workloads"][w.as_str()];
        assert_eq!(r["correct"].as_bool(), Some(true), "{w} is not correct");
        assert_eq!(r["failed"].as_u64(), Some(0), "{w} had failures");
        assert!(r["attempted"].as_u64().unwrap() >= 1);
        for m in spec["end_to_end"].as_array().unwrap() {
            let name = m["name"].as_str().unwrap();
            let got = &r["end_to_end"][name];
            assert_eq!(got["unit"].as_str(), m["unit"].as_str(), "{w}/{name}");
            assert!(
                got["median"].as_f64().is_some_and(|v| v > 0.0),
                "{w}/{name} must never be 0"
            );
        }
        for m in spec["per_layer"].as_array().unwrap() {
            let name = m["name"].as_str().unwrap();
            let got = &r["per_layer"][name];
            assert_eq!(got["unit"].as_str(), m["unit"].as_str(), "{w}/{name}");
            assert!(
                got["value"].as_f64().is_some_and(f64::is_finite),
                "{w}/{name}"
            );
        }
        // The traced pass leaves one well-formed trace per workload.
        let trace =
            std::fs::read_to_string(bench_dir().join("out").join(format!("trace_{w}.json")))
                .expect("trace file");
        let trace: Value = serde_json::from_str(&trace).expect("trace parses");
        assert!(!trace["traceEvents"]
            .as_array()
            .expect("trace events")
            .is_empty());
    }

    // Two sets of one commit compare as "no regression" on exact counters;
    // comparing a set with itself must never report a regression.
    let status = Command::new(EXE)
        .arg("compare")
        .arg(&out)
        .arg(&out)
        .status()
        .expect("run compare");
    assert!(status.success(), "a result set regressed against itself");
}

#[test]
fn an_unknown_workload_fails_without_a_result() {
    let out = Command::new(EXE)
        .args([
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("run the benchmark binary");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
