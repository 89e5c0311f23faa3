//! Integration tests for the `p4testgen` command-line binary.

mod common;

use common::{bin, ScratchDir, EXAMPLE_VALUES};
use std::process::Command;

const PROGRAM: &str = r#"
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
struct headers_t { ethernet_t eth; }
struct meta_t { bit<8> x; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    state start { pkt.extract(hdr.eth); transition accept; }
}
control VC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    action fwd(bit<9> p) { sm.egress_spec = p; }
    action nop() { }
    table t {
        key = { hdr.eth.etherType: exact @name("etype"); }
        actions = { fwd; nop; }
        default_action = nop();
    }
    apply { t.apply(); }
}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) { apply { } }
control CC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Dep(packet_out pkt, in headers_t hdr) { apply { pkt.emit(hdr.eth); } }
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#;

/// The test program, written into a scratch directory of its own (which
/// the test may also use for its outputs); the file lives as long as the
/// returned directory.
fn write_program() -> (ScratchDir, std::path::PathBuf) {
    let dir = ScratchDir::new("cli");
    let path = dir.join("prog.p4");
    std::fs::write(&path, PROGRAM).unwrap();
    (dir, path)
}

#[test]
fn cli_generates_stf_and_validates() {
    let (_scratch, prog) = write_program();
    let out = bin()
        .args(["--target", "v1model", "--backend", "stf", "--coverage", "--validate"])
        .arg(&prog)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("packet 0"), "{stdout}");
    assert!(stdout.contains("add Ing.t etype:"), "{stdout}");
    assert!(stderr.contains("statement coverage: 4/4 (100.0%)"), "{stderr}");
    assert!(stderr.contains("tests pass on the software model"), "{stderr}");
}

#[test]
fn cli_json_backend_is_parseable() {
    let (_scratch, prog) = write_program();
    let out = bin()
        .args(["--target", "v1model", "--backend", "json"])
        .arg(&prog)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let parsed: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("stdout is valid JSON");
    assert!(parsed.as_array().is_some_and(|a| !a.is_empty()));
}

#[test]
fn cli_rejects_unknown_target() {
    let (_scratch, prog) = write_program();
    let out = bin().args(["--target", "nonesuch"]).arg(&prog).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown target"));
}

#[test]
fn cli_reports_compile_errors_with_location() {
    let dir = ScratchDir::new("cli_bad");
    let path = dir.join("bad.p4");
    std::fs::write(&path, "control C( { }").unwrap();
    let out = bin().args(["--target", "v1model"]).arg(&path).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error"), "{stderr}");
}

#[test]
fn cli_rejects_a_package_argument_that_names_no_block() {
    let dir = ScratchDir::new("cli_ghost");
    let path = dir.join("ghost.p4");
    std::fs::write(&path, PROGRAM.replace("Eg(), CC()", "Ghost(), CC()")).unwrap();
    let out = bin().args(["--target", "v1model"]).arg(&path).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    let line = PROGRAM.lines().position(|l| l.starts_with("V1Switch(")).unwrap() + 1;
    let at = format!("ghost.p4:{line}:28: error[T0001]: package argument 'Ghost'");
    assert!(stderr.contains(&at), "{stderr}");
}

#[test]
fn cli_rejects_a_block_of_the_wrong_kind_and_a_duplicate_block_name() {
    let dir = ScratchDir::new("cli_kinds");
    let dup = "control P(inout headers_t hdr) { apply { } }\nV1Switch(";
    for (file, program, want) in [
        (
            "kind.p4",
            PROGRAM.replace("V1Switch(P(), VC()", "V1Switch(VC(), VC()"),
            "V1Switch argument 1 'VC' is a control, but that position takes a parser".to_string(),
        ),
        (
            "dup.p4",
            PROGRAM.replace("V1Switch(", dup),
            format!(
                "dup.p4:{}:1: error[T0206]: block 'P' is declared more than once",
                PROGRAM.lines().position(|l| l.starts_with("V1Switch(")).unwrap() + 1
            ),
        ),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, program).unwrap();
        let out = bin().args(["--target", "v1model", "--validate"]).arg(&path).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{file}: {stderr}");
        assert!(stderr.contains(&want), "{file}: {stderr}");
        assert!(!stderr.contains("software model"), "{file}: no test may run: {stderr}");
    }
}

#[test]
fn cli_max_tests_and_seed_are_honored() {
    let (_scratch, prog) = write_program();
    let run = |seed: &str| {
        let out = bin()
            .args(["--target", "v1model", "--max-tests", "2", "--seed", seed])
            .arg(&prog)
            .output()
            .unwrap();
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let a1 = run("7");
    let a2 = run("7");
    assert_eq!(a1, a2, "same seed, same suite");
    let packets = a1.matches("\npacket ").count();
    assert_eq!(packets, 2, "max-tests honored");
}

#[test]
fn cli_observability_outputs_round_trip() {
    let (_scratch, prog) = write_program();
    let dir = prog.parent().unwrap();
    let trace = dir.join("trace.jsonl");
    let metrics = dir.join("metrics.json");
    let summary = dir.join("summary.json");
    let suite = dir.join("suite.stf");
    let out = bin()
        .args(["--target", "v1model", "--validate", "--jobs", "2", "--quiet"])
        .arg("--trace-out")
        .arg(&trace)
        .arg("--metrics-out")
        .arg(&metrics)
        .arg("--summary-json")
        .arg(&summary)
        .arg("--out")
        .arg(&suite)
        .arg(&prog)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    // --quiet leaves only errors on stderr; the run is clean, so: nothing.
    assert!(
        out.stderr.is_empty(),
        "--quiet still wrote diagnostics: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The trace is JSONL; path records carry trails, engine records workers.
    let trace_text = std::fs::read_to_string(&trace).unwrap();
    let mut path_lines = 0;
    for line in trace_text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("trace line parses");
        match v.get("k").and_then(|k| k.as_str()) {
            Some("path") => {
                path_lines += 1;
                assert!(v.get("trail").is_some(), "{line}");
                assert!(v.get("outcome").is_some(), "{line}");
            }
            Some("engine") => assert!(v.get("worker").is_some(), "{line}"),
            other => panic!("unknown trace record kind {other:?}: {line}"),
        }
    }
    assert!(path_lines > 0, "no path records in the trace");

    // The metrics export parses and its counters agree with the summary.
    let metrics_v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&metrics).unwrap()).expect("metrics JSON");
    let summary_v: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&summary).unwrap()).expect("summary JSON");
    assert_eq!(
        summary_v.get("schema").and_then(|s| s.as_str()),
        Some("p4testgen-run-summary/v2")
    );
    // v2 keeps every v1 field and adds the endpoint/provenance entries. The
    // endpoint is null without `--status-addr`; provenance is derived from
    // the trace's per-path records, so with the trace on it counts the tests.
    assert!(summary_v.get("status_endpoint").is_some_and(|v| v.is_null()));
    assert_eq!(summary_v.get("provenance_records"), summary_v.get("tests"));
    // The differential section exists (append-only v2) and is null outside
    // `p4testgen diff` runs.
    assert!(summary_v.get("differential").is_some_and(|v| v.is_null()));
    let tests_emitted = metrics_v
        .get("metrics")
        .and_then(|m| m.as_array())
        .expect("metrics array")
        .iter()
        .find(|m| {
            m.get("name").and_then(|n| n.as_str()) == Some("p4testgen_tests_emitted_total")
        })
        .and_then(|m| m.get("value"))
        .and_then(|v| v.as_u64())
        .expect("tests_emitted counter present");
    assert_eq!(Some(tests_emitted), summary_v.get("tests").and_then(|v| v.as_u64()));
    // --validate folds the software-model counters in too.
    assert!(
        metrics_v.get("metrics").and_then(|m| m.as_array()).unwrap().iter().any(|m| {
            m.get("name").and_then(|n| n.as_str()) == Some("p4testgen_model_statements_total")
                && m.get("value").and_then(|v| v.as_u64()).is_some_and(|v| v > 0)
        }),
        "model statement counter missing or zero"
    );
}

#[test]
fn cli_metrics_prometheus_text_and_summary_stdout() {
    let (_scratch, prog) = write_program();
    let dir = prog.parent().unwrap();
    let metrics = dir.join("metrics.prom");
    let suite = dir.join("suite2.stf");
    let out = bin()
        .args(["--target", "v1model", "--quiet", "--summary-json"])
        .arg("--metrics-out")
        .arg(&metrics)
        .arg("--out")
        .arg(&suite)
        .arg(&prog)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    // --summary-json without a .json operand goes to stdout (the suite went
    // to --out, so stdout is exactly the summary document).
    let summary: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("stdout is the summary JSON");
    assert!(summary.get("phases").is_some());
    // A non-.json destination gets the Prometheus text exposition.
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(text.contains("# TYPE p4testgen_paths_total counter"), "{text}");
    assert!(text.contains("p4testgen_paths_total{outcome=\"emitted\"}"), "{text}");
    assert!(text.contains("# TYPE p4testgen_queue_depth histogram"), "{text}");
    assert!(text.contains("p4testgen_queue_depth_bucket{le=\"+Inf\"}"), "{text}");
}

#[test]
fn cli_interrupt_resume_round_trip_is_byte_identical() {
    let (_scratch, prog) = write_program();
    let dir = prog.parent().unwrap();
    let ckpt = dir.join("resume.ckpt");
    let reference = dir.join("reference.stf");
    let resumed = dir.join("resumed.stf");

    let out = bin()
        .args(["--target", "v1model", "--seed", "7", "--out"])
        .arg(&reference)
        .arg(&prog)
        .output()
        .unwrap();
    assert!(out.status.success());

    // Interrupted segment: an (effectively) already-expired deadline with a
    // checkpoint configured. Exit code stays 0 — an interrupted campaign is
    // a normal outcome, not an error.
    let out = bin()
        .args(["--target", "v1model", "--seed", "7", "--deadline", "0.0001"])
        .args(["--checkpoint"])
        .arg(&ckpt)
        .args(["--out", "/dev/null"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(out.status.success(), "interrupted run failed: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("run interrupted (deadline)"), "{stderr}");
    assert!(stderr.contains("--resume"), "no resume hint: {stderr}");

    // Resume (implies checkpointing back into the same file) and compare.
    let out = bin()
        .args(["--target", "v1model", "--seed", "7", "--resume"])
        .arg(&ckpt)
        .arg("--out")
        .arg(&resumed)
        .arg(&prog)
        .output()
        .unwrap();
    assert!(out.status.success(), "resume failed: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        std::fs::read(&reference).unwrap(),
        std::fs::read(&resumed).unwrap(),
        "resumed suite is not byte-identical to the uninterrupted run"
    );
}

#[test]
fn cli_shard_merge_matches_whole_run() {
    let (_scratch, prog) = write_program();
    let dir = prog.parent().unwrap();
    let reference = dir.join("shard_reference.stf");
    let merged = dir.join("shard_merged.stf");
    let out = bin()
        .args(["--target", "v1model", "--seed", "7", "--out"])
        .arg(&reference)
        .arg(&prog)
        .output()
        .unwrap();
    assert!(out.status.success());

    let mut ckpts = Vec::new();
    for i in 0..2 {
        let ckpt = dir.join(format!("shard{i}.ckpt"));
        let out = bin()
            .args(["--target", "v1model", "--seed", "7"])
            .args(["--shard", &format!("{i}/2"), "--checkpoint"])
            .arg(&ckpt)
            .args(["--out", "/dev/null"])
            .arg(&prog)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "shard {i} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        ckpts.push(ckpt);
    }
    let mut cmd = bin();
    for c in &ckpts {
        cmd.arg("--merge-shards").arg(c);
    }
    let out = cmd.arg("--out").arg(&merged).output().unwrap();
    assert!(out.status.success(), "merge failed: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        std::fs::read(&reference).unwrap(),
        std::fs::read(&merged).unwrap(),
        "merged shard suite is not byte-identical to the whole run"
    );
}

#[test]
fn cli_corrupt_resume_warns_and_cold_starts() {
    let (_scratch, prog) = write_program();
    let dir = prog.parent().unwrap();
    let bad = dir.join("corrupt.ckpt");
    std::fs::write(&bad, b"this is not a checkpoint at all").unwrap();
    let out = bin()
        .args(["--target", "v1model", "--seed", "7", "--resume"])
        .arg(&bad)
        .args(["--out", "/dev/null"])
        .arg(&prog)
        .output()
        .unwrap();
    // Classified warning, cold start, successful run — never a crash.
    assert!(out.status.success(), "corrupt resume aborted the run");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unusable checkpoint"), "{stderr}");
    assert!(stderr.contains("[not-a-checkpoint]"), "{stderr}");
    assert!(stderr.contains("starting cold"), "{stderr}");
}

#[test]
fn cli_merge_rejects_corrupt_checkpoints() {
    let dir = ScratchDir::new("cli_mg");
    let bad = dir.join("garbage.ckpt");
    std::fs::write(&bad, b"garbage bytes, definitely not a checkpoint").unwrap();
    let out = bin().arg("--merge-shards").arg(&bad).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "corrupt merge input must be a usage/IO error");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("[not-a-checkpoint]"),
        "unclassified merge failure: {}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn cli_deadline_without_checkpoint_reports_resume_null() {
    let (_scratch, prog) = write_program();
    let out = bin()
        .args(["--target", "v1model", "--seed", "7", "--deadline", "0.0001"])
        .args(["--summary-json", "--out", "/dev/null"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let summary: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("stdout is the summary JSON");
    assert!(
        summary.get("resume").is_some_and(serde_json::Value::is_null),
        "plain --deadline run must report resume: null, got {summary:?}"
    );
}

#[test]
fn cli_checkpointing_run_reports_resume_object() {
    let (_scratch, prog) = write_program();
    let dir = prog.parent().unwrap();
    let ckpt = dir.join("summary.ckpt");
    let out = bin()
        .args(["--target", "v1model", "--seed", "7", "--checkpoint"])
        .arg(&ckpt)
        .args(["--summary-json", "--out", "/dev/null"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let summary: serde_json::Value =
        serde_json::from_slice(&out.stdout).expect("stdout is the summary JSON");
    let resume = summary.get("resume").expect("resume key");
    assert!(
        resume.as_object().is_some(),
        "checkpointing run must report a resume object: {summary:?}"
    );
    assert_eq!(resume.get("interrupted"), Some(&serde_json::Value::Null));
    assert!(resume
        .get("checkpoints_written")
        .and_then(serde_json::Value::as_u64)
        .is_some_and(|n| n >= 1));
    assert_eq!(
        resume.get("frontier_remaining").and_then(serde_json::Value::as_u64),
        Some(0)
    );
}

/// GET `path` from the status endpoint at `addr` over a plain TcpStream
/// (no HTTP client dependency) and return the response body.
fn http_get(addr: &str, path: &str) -> String {
    use std::io::{Read, Write};
    let mut s = std::net::TcpStream::connect(addr).expect("connect to status endpoint");
    write!(s, "GET {path} HTTP/1.0\r\nHost: p4testgen\r\n\r\n").unwrap();
    let mut buf = String::new();
    s.read_to_string(&mut buf).unwrap();
    buf.split_once("\r\n\r\n").expect("response has a header/body split").1.to_string()
}

/// Poll `stderr_path` until the CLI announces the bound status-endpoint
/// address (printed before generation starts).
fn wait_for_status_addr(stderr_path: &std::path::Path) -> String {
    for _ in 0..200 {
        let text = std::fs::read_to_string(stderr_path).unwrap_or_default();
        if let Some(rest) = text.split("listening on http://").nth(1) {
            if let Some(addr) = rest.split_whitespace().next() {
                return addr.to_string();
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    panic!("status endpoint address never announced in {}", stderr_path.display());
}

#[test]
fn cli_status_endpoint_serves_status_metrics_and_healthz() {
    let (_scratch, prog) = write_program();
    let dir = prog.parent().unwrap();
    let stderr_path = dir.join("status_stderr.txt");
    let summary_path = dir.join("status_summary.json");
    let mut child = bin()
        .args(["--target", "v1model", "--seed", "7"])
        .args(["--status-addr", "127.0.0.1:0", "--status-linger", "3"])
        .arg("--summary-json")
        .arg(&summary_path)
        .args(["--out", "/dev/null"])
        .arg(&prog)
        .stderr(std::process::Stdio::from(std::fs::File::create(&stderr_path).unwrap()))
        .spawn()
        .expect("binary spawns");
    let addr = wait_for_status_addr(&stderr_path);

    // Poll /status until the run reports itself done; the linger window
    // guarantees the final snapshot stays observable.
    let mut last = None;
    for _ in 0..200 {
        let body = http_get(&addr, "/status");
        let v: serde_json::Value = serde_json::from_str(&body).expect("status is JSON");
        let done = v.get("state").and_then(|s| s.as_str()) == Some("done");
        last = Some(v);
        if done {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
    let status = last.expect("at least one /status response");
    assert_eq!(status.get("state").and_then(|s| s.as_str()), Some("done"), "{status:?}");
    assert_eq!(http_get(&addr, "/healthz").trim(), "ok");
    let metrics = http_get(&addr, "/metrics");
    assert!(metrics.contains("p4testgen_paths_total"), "{metrics}");

    // The final snapshot agrees with the run summary, and the summary
    // records the endpoint it served.
    let summary: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&summary_path).unwrap()).unwrap();
    assert_eq!(
        status.get("tests_emitted").and_then(serde_json::Value::as_u64),
        summary.get("tests").and_then(serde_json::Value::as_u64),
    );
    assert_eq!(
        status.get("coverage").and_then(|c| c.get("covered")).and_then(serde_json::Value::as_u64),
        summary.get("coverage").and_then(|c| c.get("covered")).and_then(serde_json::Value::as_u64),
    );
    assert_eq!(
        summary.get("status_endpoint").and_then(|e| e.get("addr")).and_then(|a| a.as_str()),
        Some(addr.as_str()),
    );
    assert!(child.wait().unwrap().success());
}

#[test]
fn cli_provenance_records_parallel_the_suite() {
    let (_scratch, prog) = write_program();
    let dir = prog.parent().unwrap();
    let prov = dir.join("prov.jsonl");
    let out = bin()
        .args(["--target", "v1model", "--seed", "7", "--jobs", "2", "--quiet"])
        .arg("--provenance-out")
        .arg(&prov)
        .args(["--summary-json", "--out", "/dev/null"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let summary: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
    let tests = summary.get("tests").and_then(serde_json::Value::as_u64).unwrap();
    assert_eq!(
        summary.get("provenance_records").and_then(serde_json::Value::as_u64),
        Some(tests)
    );
    let text = std::fs::read_to_string(&prov).unwrap();
    let records: Vec<serde_json::Value> =
        text.lines().map(|l| serde_json::from_str(l).expect("provenance line parses")).collect();
    assert_eq!(records.len() as u64, tests, "one record per emitted test");
    let mut cumulative = 0;
    for (i, r) in records.iter().enumerate() {
        assert_eq!(r.get("id").and_then(serde_json::Value::as_u64), Some(i as u64));
        assert!(r.get("trail").and_then(|t| t.as_array()).is_some_and(|t| !t.is_empty()));
        // This run emitted everything fresh (no checkpoint restore), so the
        // per-path solver accounting must be present.
        assert!(r.get("constraints").and_then(serde_json::Value::as_u64).is_some(), "{r:?}");
        assert!(r.get("solver_checks").and_then(serde_json::Value::as_u64).is_some(), "{r:?}");
        let c = r.get("cumulative_covered").and_then(serde_json::Value::as_u64).unwrap();
        assert!(c >= cumulative, "cumulative coverage must be non-decreasing");
        cumulative = c;
    }
}

#[test]
fn cli_interrupted_run_leaves_flight_dump_and_annotated_coverage_report() {
    let (_scratch, prog) = write_program();
    let dir = prog.parent().unwrap();
    let flight = dir.join("flight.jsonl");
    let report = dir.join("coverage_report.txt");
    // An (effectively) already-expired deadline: the run drains immediately,
    // and the telemetry sinks must still be written on the way out.
    let out = bin()
        .args(["--target", "v1model", "--seed", "7", "--deadline", "0.0001"])
        .arg("--flight-out")
        .arg(&flight)
        .arg("--coverage-report")
        .arg(&report)
        .args(["--out", "/dev/null"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let flight_text = std::fs::read_to_string(&flight).unwrap();
    let mut kinds = Vec::new();
    for line in flight_text.lines() {
        let v: serde_json::Value = serde_json::from_str(line).expect("flight line parses");
        kinds.push(v.get("kind").and_then(|k| k.as_str()).unwrap().to_string());
        assert!(v.get("at_ns").is_some() && v.get("worker").is_some(), "{line}");
    }
    assert!(kinds.iter().any(|k| k == "run-start"), "{kinds:?}");
    assert!(kinds.iter().any(|k| k == "worker-start"), "{kinds:?}");

    let report_text = std::fs::read_to_string(&report).unwrap();
    let mut lines = report_text.lines();
    assert!(lines.next().is_some_and(|l| l.starts_with("statement coverage: ")), "{report_text}");
    let mut statements = 0;
    for l in lines {
        statements += 1;
        if let Some(rest) = l.strip_prefix("uncovered ") {
            // Every uncovered statement carries a source span and an
            // abandonment-reason annotation.
            assert!(rest.contains(" <- "), "unannotated uncovered statement: {l}");
            assert!(rest.contains(':') && rest.contains("id="), "no source span: {l}");
        } else {
            assert!(l.starts_with("covered "), "unexpected report line: {l}");
        }
    }
    assert_eq!(statements, 4, "one line per IR statement: {report_text}");
}

#[cfg(unix)]
#[test]
fn cli_sigterm_drains_and_flushes_telemetry_without_checkpoint() {
    let (_scratch, prog) = write_program();
    let dir = prog.parent().unwrap();
    let stderr_path = dir.join("sigterm_stderr.txt");
    let flight = dir.join("sigterm_flight.jsonl");
    let trace = dir.join("sigterm_trace.jsonl");
    let mut child = bin()
        .args(["--target", "v1model", "--seed", "7"])
        .args(["--status-addr", "127.0.0.1:0"])
        .arg("--flight-out")
        .arg(&flight)
        .arg("--trace-out")
        .arg(&trace)
        .args(["--out", "/dev/null"])
        .arg(&prog)
        .stderr(std::process::Stdio::from(std::fs::File::create(&stderr_path).unwrap()))
        .spawn()
        .unwrap();
    // Sync on the endpoint announcement (printed before generation), then
    // SIGTERM. Whether the signal lands mid-run (cooperative drain) or
    // after completion, the run must exit 0 with its sinks flushed.
    wait_for_status_addr(&stderr_path);
    let _ = Command::new("kill").arg(child.id().to_string()).status();
    assert!(child.wait().unwrap().success(), "SIGTERM must drain, not kill");
    let flight_text = std::fs::read_to_string(&flight).expect("flight dump written");
    assert!(flight_text.lines().any(|l| l.contains("\"run-start\"")), "{flight_text}");
    assert!(trace.exists(), "trace flushed on the drain path");
}

#[test]
fn cli_accepts_robustness_flags_and_stays_deterministic() {
    let (_scratch, prog) = write_program();
    let run = || {
        let out = bin()
            .args([
                "--target",
                "v1model",
                "--solver-budget",
                "100000",
                "--deadline",
                "300",
                "--model-loop-bound",
                "64",
                "--validate",
            ])
            .arg(&prog)
            .output()
            .unwrap();
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    let (out1, err1) = run();
    let (out2, _) = run();
    assert_eq!(out1, out2, "generous budget/deadline must not perturb the suite");
    // A generous budget is never exhausted on this tiny program, so the run
    // must not report degradation.
    assert!(!err1.contains("degraded run"), "{err1}");
    assert!(err1.contains("tests pass on the software model"), "{err1}");
}

#[test]
fn cli_resume_under_different_shard_filter_warns() {
    let (_scratch, prog) = write_program();
    let dir = prog.parent().unwrap();
    let ckpt = dir.join("shard_mismatch.ckpt");
    let summary = dir.join("shard_mismatch_summary.json");

    // A completed shard-0 run leaves a checkpoint stamped with its filter.
    let out = bin()
        .args(["--target", "v1model", "--seed", "7", "--shard", "0/2", "--checkpoint"])
        .arg(&ckpt)
        .args(["--out", "/dev/null"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(out.status.success(), "shard run failed: {}", String::from_utf8_lossy(&out.stderr));

    // Same-filter resume stays silent. (Checked first: resuming rewrites
    // the checkpoint, stamping the resuming process's own filter.)
    let out = bin()
        .args(["--target", "v1model", "--seed", "7", "--shard", "0/2", "--resume"])
        .arg(&ckpt)
        .args(["--out", "/dev/null"])
        .arg(&prog)
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("shard filter changed"), "{stderr}");

    // Resuming it with NO shard filter is allowed (the config hash
    // deliberately excludes sharding) but must be called out: subtrees the
    // original filter skipped stay unexplored.
    let out = bin()
        .args(["--target", "v1model", "--seed", "7", "--resume"])
        .arg(&ckpt)
        .args(["--out", "/dev/null", "--summary-json"])
        .arg(&summary)
        .arg(&prog)
        .output()
        .unwrap();
    assert!(out.status.success(), "resume failed: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("shard filter changed across resume"), "{stderr}");
    assert!(stderr.contains("shard 0/2"), "{stderr}");
    assert!(stderr.contains("no shard filter"), "{stderr}");

    // The mismatch is machine-readable in the summary's resume block.
    let parsed: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&summary).unwrap()).unwrap();
    let resume = parsed.get("resume").expect("resume block");
    let mismatch = resume.get("shard_mismatch").and_then(|m| m.as_str()).unwrap_or_default();
    assert!(mismatch.contains("shard 0/2"), "summary: {parsed:?}");
}

/// `--foo-bar` spelling of a `TestgenConfig::set` key.
fn flag(key: &str) -> String {
    format!("--{}", key.replace('_', "-"))
}

#[test]
fn cli_option_values_go_through_config_set() {
    let (_scratch, prog) = write_program();
    // `--with-constraints` takes no value on the CLI.
    let valued = || EXAMPLE_VALUES.iter().filter(|(key, ..)| *key != "with_constraints");
    let mut all_good = bin();
    all_good.args(["--target", "v1model", "--quiet", "--with-constraints"]);
    for (key, good, _) in valued() {
        all_good.arg(flag(key)).arg(good);
    }
    let out = all_good.arg(&prog).output().unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    for (key, _, bad) in valued() {
        let mut cmd = bin();
        let out = cmd.args(["--target", "v1model"]).arg(flag(key)).arg(bad).arg(&prog);
        let out = out.output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{} {bad}: {stderr}", flag(key));
        assert!(stderr.contains(&format!("bad config value for '{key}'")), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
    // `-j` is `--jobs`; an unknown engine flag is a usage error too.
    // The retired `solver_mode` key is unknown too.
    let retired = flag("solver_mode");
    let retired = [retired.as_str(), "incremental"];
    for args in [&["-j", "0"][..], &["--deadline-s", "1"], &["--max_tests", "1"], &retired] {
        let out = bin().args(["--target", "v1model"]).args(args).arg(&prog).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn cli_flags_override_env_defaults_and_bad_env_values_are_ignored() {
    let (_scratch, prog) = write_program();
    let suite = prog.with_file_name("env.stf");
    let workers = |env_jobs: &str, args: &[&str]| {
        let out = bin()
            .env("P4TESTGEN_JOBS", env_jobs)
            .args(["--target", "v1model", "--quiet", "--summary-json", "--out"])
            .arg(&suite)
            .args(args)
            .arg(&prog)
            .output()
            .unwrap();
        assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
        let summary: serde_json::Value = serde_json::from_slice(&out.stdout).unwrap();
        summary.get("phases").and_then(|p| p.get("workers")).and_then(|w| w.as_u64()).unwrap()
    };
    assert_eq!(workers("4", &[]), 4, "P4TESTGEN_JOBS sets the default");
    assert_eq!(workers("4", &["--jobs", "1"]), 1, "--jobs overrides P4TESTGEN_JOBS");
    assert_eq!(workers("4", &["-j", "1"]), 1, "-j overrides P4TESTGEN_JOBS");
    assert_eq!(workers("0", &[]), 1, "an invalid P4TESTGEN_JOBS is ignored");
}
