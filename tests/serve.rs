//! Integration tests for `p4testgen serve` — the crash-contained,
//! multi-tenant generation daemon.
//!
//! Each test spawns the real binary, speaks the newline-delimited JSON
//! protocol over TCP, and asserts the robustness properties end to end:
//! byte-identity with cold CLI runs, per-request panic containment,
//! deterministic load shedding, and graceful SIGTERM drain.

mod common;

use common::{bin, spawn_serve, Client, ScratchDir, EXAMPLE_VALUES};
use serde_json::Value;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::process::Command;
use std::time::Duration;

const PROGRAM: &str = r#"
header h_t { bit<8> a; }
struct headers_t { h_t h; }
struct meta_t { bit<8> m; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    state start { pkt.extract(hdr.h); transition accept; }
}
control VC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    apply { if (hdr.h.a == 1) { sm.egress_spec = 1; } else { sm.egress_spec = 2; } }
}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) { apply { } }
control CC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Dep(packet_out pkt, in headers_t hdr) { apply { pkt.emit(hdr.h); } }
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("response missing '{key}': {v:?}"))
}

fn str_field(v: &Value, key: &str) -> String {
    field(v, key).as_str().unwrap_or_else(|| panic!("'{key}' not a string: {v:?}")).to_string()
}

fn error_kind(v: &Value) -> String {
    str_field(field(v, "error"), "kind")
}

/// Build a generation request. `name` must match the CLI's file basename
/// for byte-identical suites (the program name is stamped into each test).
fn request(id: &str, config: Value) -> Value {
    let fields = vec![
        ("id".to_string(), Value::String(id.to_string())),
        ("tenant".to_string(), Value::String(format!("tenant-{id}"))),
        ("name".to_string(), Value::String("prog.p4".to_string())),
        ("target".to_string(), Value::String("v1model".to_string())),
        ("backend".to_string(), Value::String("stf".to_string())),
        ("source".to_string(), Value::String(PROGRAM.to_string())),
        ("config".to_string(), config),
    ];
    Value::Object(fields)
}

fn with_fault(mut req: Value, fault: Value) -> Value {
    if let Value::Object(fields) = &mut req {
        fields.push(("fault".to_string(), fault));
    }
    req
}

fn empty_config() -> Value {
    Value::Object(vec![])
}

/// The reference suite: what the one-shot CLI emits for the same program,
/// name, and config. Served responses must match it byte for byte.
fn cold_cli_suite() -> String {
    let dir = ScratchDir::new("serve");
    let path = dir.join("prog.p4");
    std::fs::write(&path, PROGRAM).unwrap();
    let out = bin()
        .args(["--target", "v1model", "--backend", "stf"])
        .arg(&path)
        .output()
        .expect("cold CLI run");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8(out.stdout).unwrap()
}

fn http_get(addr: &str, path: &str) -> String {
    let mut s = TcpStream::connect(addr).expect("connect status endpoint");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    write!(s, "GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let mut resp = String::new();
    let _ = s.read_to_string(&mut resp);
    resp
}

#[test]
fn serve_mixed_tenants_contained_and_byte_identical() {
    let reference = cold_cli_suite();
    let daemon =
        spawn_serve(&["--workers", "4", "--enable-fault-injection", "--status-addr", "127.0.0.1:0"]);
    let mut client = Client::connect(&daemon.addr);

    // Pipeline 8 concurrent requests: six healthy tenants, one that
    // panics inside the engine driver, one with an impossible budget.
    for i in 0..6 {
        client.send(&request(&format!("ok-{i}"), empty_config()));
    }
    client.send(&with_fault(
        request("boom", empty_config()),
        Value::Object(vec![("driver_panic".to_string(), Value::Bool(true))]),
    ));
    client.send(&request(
        "late",
        Value::Object(vec![("deadline_ms".to_string(), Value::Number(serde_json::Number::U(0)))]),
    ));

    let mut ok = 0;
    let mut panicked = 0;
    let mut deadlined = 0;
    for _ in 0..8 {
        let resp = client.recv();
        let id = str_field(&resp, "id");
        match str_field(&resp, "status").as_str() {
            "ok" => {
                assert!(id.starts_with("ok-"), "unexpected ok for {id}");
                let suite = str_field(&resp, "suite");
                assert_eq!(suite, reference, "served suite for {id} diverged from the cold CLI run");
                ok += 1;
            }
            "error" => match error_kind(&resp).as_str() {
                "panic" => {
                    assert_eq!(id, "boom");
                    panicked += 1;
                }
                "deadline" => {
                    assert_eq!(id, "late");
                    deadlined += 1;
                }
                other => panic!("unexpected error kind '{other}' for {id}: {resp:?}"),
            },
            other => panic!("unexpected status '{other}' for {id}"),
        }
    }
    assert_eq!((ok, panicked, deadlined), (6, 1, 1));

    // The panicking tenant must not have hurt anyone: a fresh request on
    // the same daemon still answers, now from warm caches.
    client.send(&request("warm", empty_config()));
    let resp = client.recv();
    assert_eq!(str_field(&resp, "status"), "ok");
    assert_eq!(str_field(&resp, "suite"), reference);
    assert_eq!(str_field(field(&resp, "cache"), "ir"), "hit");

    // /metrics reports every cache as bounded, with hit/eviction counters.
    let metrics = http_get(daemon.status_addr.as_deref().unwrap(), "/metrics");
    for cache in ["ir", "memo"] {
        assert!(
            metrics.contains(&format!("p4testgen_serve_cache_capacity{{cache=\"{cache}\"}}")),
            "missing capacity for {cache}: {metrics}"
        );
        assert!(metrics.contains(&format!("p4testgen_serve_cache_hits{{cache=\"{cache}\"}}")));
        assert!(metrics.contains(&format!("p4testgen_serve_cache_evictions{{cache=\"{cache}\"}}")));
    }
    assert!(metrics.contains("p4testgen_serve_requests_total{status=\"ok\"}"));
    assert!(metrics.contains("p4testgen_serve_requests_total{status=\"panic\"}"));
}

/// A request line that arrives in fragments across read-timeout boundaries
/// must be reassembled, not dropped: the per-connection read poll (250ms)
/// may fire mid-line, and the partial prefix already read has to survive
/// into the next read.
#[test]
fn serve_reassembles_slow_chunked_request_lines() {
    let daemon = spawn_serve(&["--workers", "1"]);
    let mut client = Client::connect(&daemon.addr);

    let mut line = serde_json::to_string(&request("slowpoke", empty_config())).unwrap();
    line.push('\n');
    let mid = line.len() / 2;
    client.send_raw(&line[..mid]);
    // Longer than the daemon's read poll, so at least one timeout fires
    // with half a request line buffered.
    std::thread::sleep(Duration::from_millis(700));
    client.send_raw(&line[mid..]);

    let resp = client.recv();
    assert_eq!(str_field(&resp, "id"), "slowpoke");
    assert_eq!(str_field(&resp, "status"), "ok", "{resp:?}");
}

/// The IR cache key excludes the display `name`, so tenant B's suite must
/// carry B's program name even when tenant A (same source + config,
/// different name) warmed the cache.
#[test]
fn serve_warm_instance_restamps_program_name() {
    let daemon = spawn_serve(&["--workers", "1"]);
    let mut client = Client::connect(&daemon.addr);

    let named = |id: &str, name: &str| {
        let mut req = request(id, empty_config());
        if let Value::Object(fields) = &mut req {
            for (k, v) in fields.iter_mut() {
                if k == "name" {
                    *v = Value::String(name.to_string());
                }
            }
        }
        req
    };
    client.send(&named("first", "alpha.p4"));
    let first = client.recv();
    assert_eq!(str_field(&first, "status"), "ok");
    assert!(str_field(&first, "suite").contains("alpha.p4"));

    client.send(&named("second", "beta.p4"));
    let second = client.recv();
    assert_eq!(str_field(&second, "status"), "ok");
    let suite = str_field(&second, "suite");
    assert!(suite.contains("beta.p4"), "suite must carry the requesting name: {suite}");
    assert!(
        !suite.contains("alpha.p4"),
        "suite leaked the cache-warming tenant's name: {suite}"
    );
}

/// Serve picks its target through the same registry as the CLI: every
/// target name serves the suite a cold CLI run emits, a repeat hits the
/// compiled-IR cache, a different target with identical source never
/// reuses another target's IR, and an unknown name is refused at admission.
#[test]
fn serve_matches_the_cli_on_every_target() {
    let daemon = spawn_serve(&["--workers", "1"]);
    let mut client = Client::connect(&daemon.addr);
    let dir = ScratchDir::new("serve_targets");
    let targeted = |id: &str, target: &str, source: &str| {
        let mut req = request(id, empty_config());
        if let Value::Object(fields) = &mut req {
            for (k, v) in fields.iter_mut() {
                match k.as_str() {
                    "target" => *v = Value::String(target.to_string()),
                    "source" => *v = Value::String(source.to_string()),
                    _ => {}
                }
            }
        }
        req
    };
    // t2na follows tna with the identical source, so its first request
    // shows that the IR cache keys on the target too.
    assert_eq!(
        p4testgen::corpus::generate_intersection("tna"),
        p4testgen::corpus::generate_intersection("t2na")
    );
    for &target in p4testgen::targets::NAMES {
        let source = p4testgen::corpus::generate_intersection(target);
        let case = dir.join(target);
        std::fs::create_dir_all(&case).unwrap();
        let path = case.join("prog.p4");
        std::fs::write(&path, &source).unwrap();
        let out = bin()
            .args(["--target", target, "--backend", "stf"])
            .arg(&path)
            .output()
            .expect("cold CLI run");
        assert!(out.status.success(), "{target}: {}", String::from_utf8_lossy(&out.stderr));
        let cold = String::from_utf8(out.stdout).unwrap();

        for (round, ir) in [("cold", "miss"), ("warm", "hit")] {
            client.send(&targeted(&format!("{target}-{round}"), target, &source));
            let resp = client.recv();
            assert_eq!(str_field(&resp, "status"), "ok", "{target} {round}: {resp:?}");
            assert_eq!(str_field(&resp, "suite"), cold, "{target} {round}: suite differs from the CLI");
            assert_eq!(str_field(field(&resp, "cache"), "ir"), ir, "{target} {round}");
        }
    }
    drop(dir);

    client.send(&targeted("nope", "bmv2", PROGRAM));
    let resp = client.recv();
    assert_eq!(str_field(&resp, "status"), "error");
    assert_eq!(error_kind(&resp), "bad-request", "{resp:?}");
}

/// The IR cache keys on the *canonicalized* source: a resubmission that
/// differs only in comments and whitespace must hit the compiled-IR slot
/// (and produce the identical suite), and the daemon's /status counters
/// must record the canonicalization win.
#[test]
fn serve_ir_cache_hits_across_formatting_variants() {
    let daemon = spawn_serve(&["--workers", "1", "--status-addr", "127.0.0.1:0"]);
    let mut client = Client::connect(&daemon.addr);

    let with_source = |id: &str, source: &str| {
        let mut req = request(id, empty_config());
        if let Value::Object(fields) = &mut req {
            for (k, v) in fields.iter_mut() {
                if k == "source" {
                    *v = Value::String(source.to_string());
                }
            }
        }
        req
    };

    client.send(&with_source("original", PROGRAM));
    let first = client.recv();
    assert_eq!(str_field(&first, "status"), "ok");
    assert_eq!(str_field(field(&first, "cache"), "ir"), "miss");
    let reference = str_field(&first, "suite");

    // Same program, different bytes: a banner comment, an inline comment,
    // retabbed indentation, and trailing whitespace.
    let variant = format!(
        "// resubmitted by CI — formatting only\n{}",
        PROGRAM
            .replace("    state start", "\tstate start /* entry */")
            .replace("apply { }", "apply {  }   ")
    );
    assert_ne!(variant, PROGRAM);
    client.send(&with_source("variant", &variant));
    let second = client.recv();
    assert_eq!(str_field(&second, "status"), "ok");
    assert_eq!(
        str_field(field(&second, "cache"), "ir"),
        "hit",
        "formatting-only variant must hit the canonicalized IR cache"
    );
    assert_eq!(str_field(&second, "suite"), reference);

    // A real source change is semantic, not formatting: it must miss.
    let semantic = PROGRAM.replace("bit<8> a;", "bit<8> a; bit<8> b;");
    client.send(&with_source("semantic", &semantic));
    let third = client.recv();
    assert_eq!(str_field(&third, "status"), "ok");
    assert_eq!(
        str_field(field(&third, "cache"), "ir"),
        "miss",
        "semantically different source must not alias the cache slot"
    );

    // /status records how many requests canonicalized and how many hits
    // only canonicalization made possible.
    let status = http_get(daemon.status_addr.as_deref().unwrap(), "/status");
    let body = status.split("\r\n\r\n").nth(1).unwrap_or(&status);
    let parsed: Value = serde_json::from_str(body.trim()).expect("status JSON");
    let serve = field(&parsed, "serve");
    let num = |key: &str| match field(serve, key) {
        Value::Number(serde_json::Number::U(n)) => *n,
        other => panic!("{key} not a u64: {other:?}"),
    };
    assert!(num("ir_canonicalized") >= 1, "variant request should have canonicalized");
    assert_eq!(num("ir_canonical_hits"), 1, "exactly the variant request hit via canonicalization");
}

/// A client that pipelines its requests and then shuts down its write half
/// is not a disconnect: every queued request still runs and every response
/// is still delivered.
#[test]
fn serve_half_close_still_delivers_pipelined_responses() {
    let daemon = spawn_serve(&["--workers", "1"]);
    let mut client = Client::connect(&daemon.addr);

    client.send(&request("hc-0", empty_config()));
    client.send(&request("hc-1", empty_config()));
    client.half_close();

    for _ in 0..2 {
        let resp = client.recv();
        let id = str_field(&resp, "id");
        assert!(id.starts_with("hc-"), "unexpected id {id}");
        assert_eq!(
            str_field(&resp, "status"),
            "ok",
            "half-close must not cancel pipelined work: {resp:?}"
        );
    }
}

#[test]
fn serve_queue_full_sheds_deterministically() {
    let daemon =
        spawn_serve(&["--workers", "1", "--max-pending", "1", "--enable-fault-injection"]);
    let mut client = Client::connect(&daemon.addr);

    // Occupy the single worker, fill the single queue slot, then overflow.
    let stall = Value::Object(vec![(
        "stall_ms".to_string(),
        Value::Number(serde_json::Number::U(1500)),
    )]);
    client.send(&with_fault(request("stall", empty_config()), stall));
    // Give the worker a moment to pick the stall job up so "fill" really
    // lands in the queue, not in the worker.
    std::thread::sleep(Duration::from_millis(300));
    client.send(&request("fill", empty_config()));
    std::thread::sleep(Duration::from_millis(100));
    client.send(&request("spill", empty_config()));

    // The overflow is rejected immediately and structurally — before
    // either admitted request finishes.
    let shed = client.recv();
    assert_eq!(str_field(&shed, "id"), "spill");
    assert_eq!(str_field(&shed, "status"), "shed");
    assert_eq!(error_kind(&shed), "queue-full");
    let retry = field(&shed, "retry_after_ms").as_u64().expect("retry_after_ms");
    assert!(retry > 0, "retry_after_ms must be positive");

    // Both admitted requests still complete.
    for _ in 0..2 {
        let resp = client.recv();
        assert_eq!(str_field(&resp, "status"), "ok", "{resp:?}");
    }
}

#[test]
fn serve_rejects_malformed_requests_structurally() {
    // No --enable-fault-injection: fault plans must be refused.
    let daemon = spawn_serve(&["--workers", "1"]);
    let mut client = Client::connect(&daemon.addr);

    client.send_raw("this is not json\n");
    let resp = client.recv();
    assert_eq!(str_field(&resp, "status"), "error");
    assert_eq!(error_kind(&resp), "bad-request");

    let mut req = request("k", empty_config());
    if let Value::Object(fields) = &mut req {
        fields.push(("surprise".to_string(), Value::Bool(true)));
    }
    client.send(&req);
    let resp = client.recv();
    assert_eq!(error_kind(&resp), "bad-request");
    assert!(str_field(field(&resp, "error"), "message").contains("surprise"));

    client.send(&with_fault(
        request("f", empty_config()),
        Value::Object(vec![("driver_panic".to_string(), Value::Bool(true))]),
    ));
    let resp = client.recv();
    assert_eq!(error_kind(&resp), "bad-request");
    assert!(str_field(field(&resp, "error"), "message").contains("--enable-fault-injection"));

    // A frontend error is classified, not a daemon failure.
    let mut bad = request("fe", empty_config());
    if let Value::Object(fields) = &mut bad {
        for (k, v) in fields.iter_mut() {
            if k == "source" {
                *v = Value::String("parser nonsense {".to_string());
            }
        }
    }
    client.send(&bad);
    let resp = client.recv();
    assert_eq!(str_field(&resp, "status"), "error");
    assert_eq!(error_kind(&resp), "frontend");

    // And the daemon is still healthy afterwards.
    client.send(&request("fine", empty_config()));
    assert_eq!(str_field(&client.recv(), "status"), "ok");
}

#[test]
fn serve_config_values_go_through_config_set() {
    // Table values travel as the JSON a client would send: numbers and
    // booleans as such, anything else as a string.
    let json = |text: &str| {
        serde_json::from_str::<Value>(text).unwrap_or_else(|_| Value::String(text.to_string()))
    };
    let daemon = spawn_serve(&["--workers", "1"]);
    let mut client = Client::connect(&daemon.addr);

    let all_good = EXAMPLE_VALUES.iter().map(|(k, good, _)| (k.to_string(), json(good)));
    client.send(&request("good", Value::Object(all_good.collect())));
    let resp = client.recv();
    assert_eq!(str_field(&resp, "status"), "ok", "{resp:?}");

    for (key, _, bad) in EXAMPLE_VALUES {
        client.send(&request(key, Value::Object(vec![(key.to_string(), json(bad))])));
        let resp = client.recv();
        assert_eq!(error_kind(&resp), "bad-request", "{key}={bad}: {resp:?}");
        let message = str_field(field(&resp, "error"), "message");
        assert!(message.contains(&format!("bad config value for '{key}'")), "{message}");
    }
    // An unknown key, and a value that is not a scalar.
    for (key, value) in [("deadline_s", json("1")), ("jobs", Value::Array(vec![]))] {
        client.send(&request("odd", Value::Object(vec![(key.to_string(), value)])));
        let resp = client.recv();
        assert_eq!(error_kind(&resp), "bad-request", "{resp:?}");
        assert!(str_field(field(&resp, "error"), "message").contains(key), "{resp:?}");
    }
}

#[cfg(unix)]
#[test]
fn serve_sigterm_drains_in_flight_and_exits_zero() {
    let mut daemon = spawn_serve(&[
        "--workers",
        "1",
        "--enable-fault-injection",
        "--status-addr",
        "127.0.0.1:0",
    ]);
    let status_addr = daemon.status_addr.clone().unwrap();
    let mut client = Client::connect(&daemon.addr);

    assert!(http_get(&status_addr, "/readyz").starts_with("HTTP/1.0 200"));

    // Put a slow request in flight so the drain has something to finish.
    let stall = Value::Object(vec![(
        "stall_ms".to_string(),
        Value::Number(serde_json::Number::U(2000)),
    )]);
    client.send(&with_fault(request("slow", empty_config()), stall));
    std::thread::sleep(Duration::from_millis(300));

    let pid = daemon.child.id().to_string();
    assert!(Command::new("kill").args(["-TERM", &pid]).status().unwrap().success());
    std::thread::sleep(Duration::from_millis(300));

    // Draining: liveness holds, readiness flips, new work is shed.
    assert!(http_get(&status_addr, "/healthz").starts_with("HTTP/1.0 200"));
    assert!(http_get(&status_addr, "/readyz").starts_with("HTTP/1.0 503"));
    client.send(&request("refused", empty_config()));
    let shed = client.recv();
    assert_eq!(str_field(&shed, "status"), "shed");
    assert_eq!(error_kind(&shed), "draining");

    // Drain-time sheds are visible in /metrics too, not just /status.
    let metrics = http_get(&status_addr, "/metrics");
    assert!(
        metrics.contains("p4testgen_serve_requests_total{status=\"draining\"}"),
        "draining shed missing from /metrics: {metrics}"
    );

    // The in-flight request still completes before the process exits.
    let slow = client.recv();
    assert_eq!(str_field(&slow, "id"), "slow");
    assert_eq!(str_field(&slow, "status"), "ok");

    let status = daemon.child.wait().expect("daemon exits");
    assert!(status.success(), "drain must exit 0, got {status:?}");
}
