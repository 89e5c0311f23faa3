//! End-to-end checks of the benchmark: every workload passes its
//! correctness gate, the reported metrics are the ones `BENCHMARK.json`
//! declares, and the environment cannot change the measured configuration.

use p4t_benchmark::workload::{workload, NAMES};
use p4t_benchmark::{run, Report, END_TO_END, PER_LAYER};
use serde_json::Value;
use std::collections::BTreeSet;
use std::process::Command;

fn one_pass(name: &str, traced: bool) -> Report {
    let w = workload(name, 1, 2).expect("a known workload");
    run(&w, 1, 0.0, traced)
}

fn metric(r: &Report, traced: bool, name: &str) -> f64 {
    r.metrics(traced)
        .into_iter()
        .find(|m| m.0 == name)
        .map(|m| m.1)
        .expect("a reported metric")
}

#[test]
fn every_workload_passes_its_correctness_gate() {
    for name in NAMES {
        let r = one_pass(name, false);
        assert!(
            r.correct(),
            "{name}: {} of {} checks failed",
            r.failed,
            r.attempted
        );
        assert_eq!(
            r.suite_secs.len(),
            1,
            "{name}: one timed pass after the warm-up"
        );
        assert_eq!(metric(&r, false, "pass_ratio"), 1.0, "{name}");
        if name == "corpus" {
            assert_eq!(metric(&r, false, "coverage_pct"), 100.0);
        }
    }
}

#[test]
fn a_traced_pass_records_every_layer() {
    let r = one_pass("deep", true);
    assert!(r.correct());
    assert_eq!((r.ledgers.len(), r.traced_secs.len()), (1, 1));
    let spans = r.tracer.spans();
    let names: BTreeSet<&str> = spans.iter().map(|s| s.name).collect();
    for layer in [
        "pass",
        "program",
        "frontend.lex",
        "frontend.parse",
        "frontend.typecheck",
        "ir.lower",
        "ir.optimize",
        "setup",
        "core.run",
        "backends.stf",
        "interp.validate",
    ] {
        assert!(names.contains(layer), "no {layer} span");
    }
    for s in spans {
        assert!(
            s.parent.is_none_or(|p| p < s.id) && s.start_ns <= s.end_ns,
            "{s:?}"
        );
    }
    for (name, value, _) in r.metrics(true) {
        assert!(value.is_finite(), "{name} = {value}");
    }
}

fn declared(key: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let list = doc
        .get(key)
        .and_then(Value::as_array)
        .expect("a metric list");
    list.iter()
        .map(|m| {
            let field = |f| {
                m.get(f)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn names_and_units(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn reported_metrics_are_the_declared_ones() {
    assert_eq!(names_and_units(END_TO_END), declared("end_to_end"));
    assert_eq!(names_and_units(PER_LAYER), declared("per_layer"));
    let r = one_pass("deep", true);
    for (traced, key) in [(false, "end_to_end"), (true, "per_layer")] {
        let reported: BTreeSet<String> =
            r.metrics(traced).iter().map(|m| m.0.to_string()).collect();
        let listed: BTreeSet<String> = declared(key).into_iter().map(|m| m.0).collect();
        assert_eq!(reported, listed, "{key}");
    }
}

const ENV: [(&str, &str); 4] = [
    ("P4TESTGEN_JOBS", "8"),
    ("P4TESTGEN_SOLVER_MODE", "fresh"),
    ("P4TESTGEN_SOLVER_BUDGET", "1"),
    ("P4TESTGEN_DEADLINE", "0.000001"),
];

/// Run the binary on one pass of `deep`; returns its `config` and
/// `suite_digest` lines and the metric names of its result line.
fn cli(env: &[(&str, &str)]) -> (Vec<String>, Vec<String>) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_benchmark"));
    cmd.args([
        "--workload",
        "deep",
        "--seed",
        "1",
        "--seconds",
        "0",
        "--trace",
        "0",
    ]);
    for (k, _) in ENV {
        cmd.env_remove(k);
    }
    cmd.envs(env.iter().copied());
    let out = cmd.output().expect("the benchmark binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    let pinned = stdout
        .lines()
        .filter(|l| l.starts_with("config ") || l.starts_with("suite_digest "))
        .map(str::to_string)
        .collect();
    let result: Value =
        serde_json::from_str(stdout.lines().last().expect("a result line")).expect("JSON");
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("a metrics object");
    (pinned, metrics.iter().map(|(k, _)| k.clone()).collect())
}

#[test]
fn the_environment_does_not_change_the_measured_config() {
    let (clean, metrics) = cli(&[]);
    assert_eq!(clean.len(), 2, "{clean:?}");
    assert!(clean[0].contains(" jobs=1 "), "{}", clean[0]);
    let (steered, _) = cli(&ENV);
    assert_eq!(clean, steered);
    let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
    assert_eq!(metrics, e2e);
}

#[test]
fn bad_arguments_print_no_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "deep", "--trace", "2"],
        &["--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
            .args(args)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
