//! End-to-end tests for `p4testgen diff` — the differential oracle harness.
//!
//! The standing soundness contract these tests pin down:
//! * zero unsuppressed divergences between the interpreter and the
//!   reference evaluator on every example program (exit 0);
//! * byte-identical divergence reports regardless of the exploration job
//!   count;
//! * every cross-target difference on the intersection programs is
//!   explained by the documented quirk list;
//! * the injected-fault catalog is detected through the differential
//!   comparison alone (no spec oracle involved);
//! * the machine-readable outputs (JSONL report, summary, quirk catalog)
//!   keep their schemas.

mod common;

use common::{bin, ScratchDir};

fn summary_of(path: &std::path::Path) -> serde_json::Value {
    let v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(path).unwrap()).expect("summary JSON");
    assert_eq!(v.get("schema").and_then(|s| s.as_str()), Some("p4testgen-diff/v1"));
    v.get("differential").expect("differential section").clone()
}

fn u64_of(v: &serde_json::Value, key: &str) -> u64 {
    v.get(key).and_then(|n| n.as_u64()).unwrap_or_else(|| panic!("missing u64 {key}: {v:?}"))
}

#[test]
fn diff_corpus_has_zero_divergences_and_jobs_invariant_reports() {
    let scratch = ScratchDir::new("diff");
    let mut reports = Vec::new();
    for jobs in ["1", "4", "8"] {
        let report = scratch.join(format!("corpus_j{jobs}.jsonl"));
        let summary = scratch.join(format!("corpus_j{jobs}.json"));
        let out = bin()
            .args(["diff", "--corpus", "--max-tests", "4", "--jobs", jobs, "--quiet"])
            .arg("--report")
            .arg(&report)
            .arg("--summary-json")
            .arg(&summary)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "jobs={jobs} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let diff = summary_of(&summary);
        assert_eq!(u64_of(&diff, "divergences"), 0, "jobs={jobs}: {diff:?}");
        assert!(u64_of(&diff, "comparisons") > 0);
        assert!(u64_of(&diff, "programs") >= 10, "corpus shrank: {diff:?}");
        reports.push(std::fs::read(&report).unwrap());
    }
    assert_eq!(reports[0], reports[1], "report differs between jobs 1 and 4");
    assert_eq!(reports[0], reports[2], "report differs between jobs 1 and 8");
}

#[test]
fn diff_cross_target_divergences_all_quirk_explained() {
    let scratch = ScratchDir::new("diff");
    let report = scratch.join("cross.jsonl");
    let summary = scratch.join("cross.json");
    let out = bin()
        .args(["diff", "--cross", "--quiet"])
        .arg("--report")
        .arg(&report)
        .arg("--summary-json")
        .arg(&summary)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let diff = summary_of(&summary);
    assert_eq!(diff.get("mode").and_then(|m| m.as_str()), Some("cross-target"));
    assert_eq!(u64_of(&diff, "divergences"), 0, "unexplained cross-target divergence: {diff:?}");
    assert!(u64_of(&diff, "comparisons") > 0);
    // Architectures DO legitimately differ; the quirk list must be doing
    // real work, not vacuously passing on identical behavior.
    assert!(u64_of(&diff, "quirk_suppressed") > 0, "no quirks exercised: {diff:?}");
    let known_quirks = [
        "tofino-min-frame",
        "tofino-wire-format",
        "parser-reject-policy",
        "tofino-no-egress-port-drop",
        "ebpf-port-zero",
        "uninitialized-read-policy",
    ];
    for line in std::fs::read_to_string(&report).unwrap().lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("report line parses");
        assert_eq!(
            v.get("schema").and_then(|s| s.as_str()),
            Some("p4testgen-divergence/v1"),
            "{line}"
        );
        assert_eq!(v.get("kind").and_then(|k| k.as_str()), Some("quirk-suppressed"), "{line}");
        let quirk = v.get("quirk").and_then(|q| q.as_str()).expect("suppressed record names its quirk");
        assert!(known_quirks.contains(&quirk), "undocumented quirk id {quirk}");
    }
}

#[test]
fn diff_fault_catalog_detects_injected_faults() {
    let scratch = ScratchDir::new("diff");
    let report = scratch.join("faults.jsonl");
    let summary = scratch.join("faults.json");
    let out = bin()
        .args([
            "diff",
            "--fault-catalog",
            "--max-tests",
            "8",
            "--min-detections",
            "20",
            "--quiet",
        ])
        .arg("--report")
        .arg(&report)
        .arg("--summary-json")
        .arg(&summary)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let diff = summary_of(&summary);
    assert_eq!(u64_of(&diff, "faults_injected"), 25);
    let detected = u64_of(&diff, "faults_detected");
    assert!(detected >= 20, "only {detected}/25 faults detected");
    // Each detection is recorded as a real divergence naming its fault.
    let text = std::fs::read_to_string(&report).unwrap();
    let mut labels = std::collections::BTreeSet::new();
    for line in text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("report line parses");
        let kind = v.get("kind").and_then(|k| k.as_str()).unwrap();
        if kind == "ref-unsupported" {
            continue;
        }
        assert!(
            matches!(kind, "value-divergence" | "verdict-divergence" | "trap-divergence"),
            "unexpected kind {kind}"
        );
        labels.insert(v.get("fault").and_then(|f| f.as_str()).expect("fault label").to_string());
    }
    assert_eq!(labels.len() as u64, detected, "one record per detected fault");

    // An unreachable floor turns into exit 1.
    let out = bin()
        .args(["diff", "--fault-catalog", "--max-tests", "1", "--min-detections", "26", "--quiet"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "impossible floor must fail");
}

#[test]
fn diff_single_program_and_fuzz_corpus_replay() {
    let scratch = ScratchDir::new("diff");
    // A single named program: the quickest sanity loop a user has.
    let prog = scratch.join("one.p4");
    std::fs::write(
        &prog,
        r#"
header h_t { bit<8> a; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    state start { pkt.extract(hdr.h); transition accept; }
}
control VC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    apply { if (hdr.h.a == 1) { sm.egress_spec = 1; } else { mark_to_drop(sm); } }
}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) { apply { } }
control CC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Dep(packet_out pkt, in headers_t hdr) { apply { pkt.emit(hdr.h); } }
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#,
    )
    .unwrap();
    let out = bin()
        .args(["diff", "--quiet"])
        .arg(&prog)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // The persisted fuzz regression corpus replays cleanly: crash findings
    // that never compiled are skipped, anything that compiles must agree.
    if std::path::Path::new("tests/corpus").is_dir() {
        let out = bin()
            .args(["diff", "--fuzz-corpus", "tests/corpus", "--quiet"])
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "fuzz corpus replay diverged: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn diff_usage_and_io_errors_exit_two() {
    let scratch = ScratchDir::new("diff");
    // No mode at all.
    let out = bin().args(["diff"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    // Two modes at once.
    let out = bin().args(["diff", "--corpus", "--cross"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    // Unreadable program.
    let out =
        bin().args(["diff", "/nonexistent/x.p4", "--quiet"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    // A program the frontend rejects is a build failure (exit 1), not I/O.
    let bad = scratch.join("bad.p4");
    std::fs::write(&bad, "control C( {").unwrap();
    let out = bin().args(["diff", "--quiet"]).arg(&bad).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn diff_exports_quirk_catalog_and_metrics() {
    let scratch = ScratchDir::new("diff");
    let quirks = scratch.join("quirks.json");
    let metrics = scratch.join("diff_metrics.json");
    let out = bin()
        .args(["diff", "--cross", "--quiet"])
        .arg("--quirks-out")
        .arg(&quirks)
        .arg("--metrics-out")
        .arg(&metrics)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let catalog: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&quirks).unwrap()).expect("quirks JSON");
    let items = catalog.as_array().expect("quirk catalog is an array");
    assert!(items.len() >= 6, "quirk catalog shrank");
    for item in items {
        for key in ["id", "targets", "description"] {
            assert!(item.get(key).is_some(), "quirk entry missing {key}: {item:?}");
        }
    }

    let metrics_v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).expect("metrics JSON");
    let names: Vec<&str> = metrics_v
        .get("metrics")
        .and_then(|m| m.as_array())
        .expect("metrics array")
        .iter()
        .filter_map(|m| m.get("name").and_then(|n| n.as_str()))
        .collect();
    assert!(names.contains(&"p4testgen_diff_comparisons_total"), "{names:?}");
    assert!(names.contains(&"p4testgen_diff_divergences_total"), "{names:?}");
}
