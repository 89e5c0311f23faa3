//! Unit tests for the symbolic executor, driven through a minimal test
//! target (single parser + single control, no interstitial behavior).

use p4t_ir::IrProgram;
use p4testgen_core::state::{ExecState, FinishReason, SymOutput};
use p4testgen_core::target::{ExecCtx, ExtArg, ExternOutcome, PipeStep, Target, UninitPolicy};
use p4testgen_core::{Strategy, Testgen, TestgenConfig, TestSpec};

/// A minimal architecture: parser + apply control; output port is whatever
/// the program leaves in `m.port`; drop when `m.port == 0x1FF`.
struct MiniTarget;

impl Target for MiniTarget {
    fn name(&self) -> &str {
        "mini"
    }

    fn prelude(&self) -> &str {
        r#"
struct mini_meta_t { bit<9> port; bit<32> scratch; }
extern void mini_log(in bit<8> code);
"#
    }

    fn package_roots(&self) -> &[&[&str]] {
        &[&["hdr", "m"], &["hdr", "m"], &["hdr"]]
    }

    fn pipeline(&self, prog: &IrProgram) -> Result<Vec<PipeStep>, String> {
        let args = &prog.package_args;
        if prog.package != "Mini" || args.len() != 3 {
            return Err("mini expects Mini(parser, control, deparser)".to_string());
        }
        Ok(vec![
            PipeStep::Block(args[0]),
            PipeStep::Block(args[1]),
            PipeStep::Block(args[2]),
            PipeStep::FlushEmit,
        ])
    }

    fn init(&self, ctx: &mut ExecCtx, st: &mut ExecState) {
        let z = ctx.constant(9, 0);
        st.write("m.port", z);
        let p = ctx.constant(9, 0);
        st.write("$input_port", p);
    }

    fn uninit_policy(&self) -> UninitPolicy {
        UninitPolicy::Zero
    }

    fn hook(&self, name: &str, _ctx: &mut ExecCtx, st: &mut ExecState) {
        if name == "parser_reject" {
            st.finish(FinishReason::Dropped);
        }
    }

    fn extern_call(
        &self,
        name: &str,
        _instance: Option<&str>,
        _args: &[ExtArg],
        _ctx: &mut ExecCtx,
        st: &mut ExecState,
    ) -> ExternOutcome {
        match name {
            "mini_log" => {
                st.log("mini_log called".to_string());
                ExternOutcome::Handled
            }
            _ => ExternOutcome::Unknown,
        }
    }

    fn finalize(&self, ctx: &mut ExecCtx, st: &mut ExecState) {
        let port = st.read("m.port").cloned().unwrap_or_else(|| ctx.constant(9, 0));
        if ctx.pool.as_const(port.term).is_some_and(|v| v.to_u64() == Some(0x1FF)) {
            st.finish(FinishReason::Dropped);
            return;
        }
        let payload = st.packet.live_value(ctx.pool);
        st.outputs.push(SymOutput { port, payload });
    }
}

fn run_mini(src: &str) -> (Vec<TestSpec>, p4testgen_core::RunSummary) {
    run_mini_config(src, TestgenConfig::default())
}

fn run_mini_config(src: &str, config: TestgenConfig) -> (Vec<TestSpec>, p4testgen_core::RunSummary) {
    let mut tg = Testgen::new("mini", src, MiniTarget, config).expect("mini program compiles");
    let mut tests = Vec::new();
    let summary = tg.run(|t| {
        tests.push(t.clone());
        true
    });
    (tests, summary)
}

fn mini_wrap(parser_states: &str, body: &str) -> String {
    format!(
        r#"
header h8_t {{ bit<8> v; }}
header h16_t {{ bit<16> v; }}
struct headers_t {{ h8_t a; h8_t b; h16_t c; }}
parser P(packet_in pkt, out headers_t hdr, inout mini_meta_t m) {{
{parser_states}
}}
control C(inout headers_t hdr, inout mini_meta_t m) {{
    apply {{
{body}
    }}
}}
control D(packet_out pkt, in headers_t hdr) {{
    apply {{
        pkt.emit(hdr.a);
        pkt.emit(hdr.b);
        pkt.emit(hdr.c);
    }}
}}
Mini(P(), C(), D()) main;
"#
    )
}

#[test]
fn arithmetic_is_faithful_end_to_end() {
    // The solver must find an input byte x with (x * 3 + 7) ^ 0x5A == 0xFF.
    let src = mini_wrap(
        "    state start { pkt.extract(hdr.a); transition accept; }",
        r#"        if (((hdr.a.v * 3 + 7) ^ 0x5A) == 0xFF) {
            m.port = 1;
        } else {
            m.port = 2;
        }"#,
    );
    let (tests, summary) = run_mini(&src);
    assert!((summary.coverage.percent - 100.0).abs() < 1e-9);
    let hit = tests
        .iter()
        .find(|t| t.outputs.first().is_some_and(|o| o.port == 1))
        .expect("solvable branch reached");
    let x = hit.input_packet[0] as u32;
    assert_eq!(((x * 3 + 7) & 0xFF) ^ 0x5A, 0xFF, "x = {x}");
}

#[test]
fn nested_branches_enumerate_all_paths() {
    let src = mini_wrap(
        "    state start { pkt.extract(hdr.a); pkt.extract(hdr.b); transition accept; }",
        r#"        if (hdr.a.v > 100) {
            if (hdr.b.v < 50) { m.port = 1; } else { m.port = 2; }
        } else {
            if (hdr.b.v == hdr.a.v) { m.port = 3; } else { m.port = 4; }
        }"#,
    );
    let (tests, _) = run_mini(&src);
    let mut ports: Vec<u32> = tests
        .iter()
        .filter(|t| t.input_packet.len() == 2)
        .filter_map(|t| t.outputs.first().map(|o| o.port))
        .collect();
    ports.sort();
    assert_eq!(ports, vec![1, 2, 3, 4], "all four leaf paths must be reached");
    // And the inputs must actually satisfy each branch condition.
    for t in tests.iter().filter(|t| t.input_packet.len() == 2) {
        let (a, b) = (t.input_packet[0], t.input_packet[1]);
        let port = t.outputs[0].port;
        let expect = if a > 100 {
            if b < 50 {
                1
            } else {
                2
            }
        } else if b == a {
            3
        } else {
            4
        };
        assert_eq!(port, expect, "a={a} b={b}");
    }
}

#[test]
fn select_with_masks_and_ranges() {
    let src = mini_wrap(
        r#"    state start {
        pkt.extract(hdr.c);
        transition select(hdr.c.v) {
            0x1000 &&& 0xF000: low;
            0x2000 .. 0x2FFF: mid;
            16w0xFFFF: top;
            default: accept;
        }
    }
    state low { m.port = 1; transition accept; }
    state mid { m.port = 2; transition accept; }
    state top { m.port = 3; transition accept; }"#,
        "        m.scratch = 0;",
    );
    let (tests, summary) = run_mini(&src);
    assert!((summary.coverage.percent - 100.0).abs() < 1e-9);
    for t in tests.iter().filter(|t| t.input_packet.len() == 2) {
        let v = u16::from_be_bytes([t.input_packet[0], t.input_packet[1]]);
        let port = t.outputs[0].port;
        let expect = if v & 0xF000 == 0x1000 {
            1
        } else if (0x2000..=0x2FFF).contains(&v) {
            2
        } else if v == 0xFFFF {
            3
        } else {
            0
        };
        assert_eq!(port, expect, "v = {v:#06x}");
    }
    // All four select arms appear.
    let mut ports: Vec<u32> = tests
        .iter()
        .filter(|t| t.input_packet.len() == 2)
        .map(|t| t.outputs[0].port)
        .collect();
    ports.sort();
    ports.dedup();
    assert_eq!(ports, vec![0, 1, 2, 3]);
}

#[test]
fn select_first_match_wins() {
    // Overlapping cases: 0x1234 matches both arms; the first must win, so
    // no generated test may reach `second` with key 0x1234.
    let src = mini_wrap(
        r#"    state start {
        pkt.extract(hdr.c);
        transition select(hdr.c.v) {
            0x1234 &&& 0xFFFF: first;
            0x1234 &&& 0xFF00: second;
            default: accept;
        }
    }
    state first { m.port = 1; transition accept; }
    state second { m.port = 2; transition accept; }"#,
        "        m.scratch = 1;",
    );
    let (tests, _) = run_mini(&src);
    for t in tests.iter().filter(|t| t.input_packet.len() == 2) {
        let v = u16::from_be_bytes([t.input_packet[0], t.input_packet[1]]);
        if t.outputs[0].port == 2 {
            assert_eq!(v & 0xFF00, 0x1200);
            assert_ne!(v, 0x1234, "first-match-wins violated");
        }
    }
}

#[test]
fn slices_and_concat_round_trip() {
    let src = mini_wrap(
        "    state start { pkt.extract(hdr.c); transition accept; }",
        r#"        hdr.c.v = hdr.c.v[7:0] ++ hdr.c.v[15:8];
        m.port = 5;"#,
    );
    let (tests, _) = run_mini(&src);
    let t = tests
        .iter()
        .find(|t| t.input_packet.len() == 2 && !t.expects_drop())
        .expect("byte-swap test");
    let output = &t.outputs[0].packet.data;
    assert_eq!(output[0], t.input_packet[1], "bytes swapped");
    assert_eq!(output[1], t.input_packet[0]);
}

#[test]
fn setvalid_emits_header() {
    let src = mini_wrap(
        "    state start { pkt.extract(hdr.a); transition accept; }",
        r#"        hdr.b.setValid();
        hdr.b.v = 0x7E;
        m.port = 1;"#,
    );
    let (tests, _) = run_mini(&src);
    let t = tests.iter().find(|t| !t.expects_drop()).expect("forwarded");
    // Output = a (from input) ++ b (synthesized 0x7E).
    assert_eq!(t.outputs[0].packet.data.len(), 2);
    assert_eq!(t.outputs[0].packet.data[1], 0x7E);
}

#[test]
fn setinvalid_suppresses_emission() {
    let src = mini_wrap(
        "    state start { pkt.extract(hdr.a); pkt.extract(hdr.b); transition accept; }",
        r#"        hdr.b.setInvalid();
        m.port = 1;"#,
    );
    let (tests, _) = run_mini(&src);
    let t = tests
        .iter()
        .find(|t| t.input_packet.len() == 2 && !t.expects_drop())
        .expect("forwarded");
    // b was parsed but invalidated: only a is emitted.
    assert_eq!(t.outputs[0].packet.data.len(), 1);
}

#[test]
fn unknown_extern_aborts_path_not_process() {
    let src = mini_wrap(
        "    state start { pkt.extract(hdr.a); transition accept; }",
        "        mini_log(8w1);\n        m.port = 1;",
    );
    // mini_log is declared and handled: generation succeeds.
    let (tests, summary) = run_mini(&src);
    assert!(summary.tests >= 1);
    assert!(tests[0].trace.iter().any(|l| l.contains("mini_log called")));
}

#[test]
fn strategies_reach_identical_test_sets() {
    // DFS, BFS, and random backtracking must generate the same set of tests
    // for a deterministic program (order may differ).
    let src = mini_wrap(
        "    state start { pkt.extract(hdr.a); transition accept; }",
        r#"        if (hdr.a.v > 10) { m.port = 1; } else { m.port = 2; }"#,
    );
    let mut sets = Vec::new();
    for strat in [Strategy::Dfs, Strategy::Bfs, Strategy::RandomBacktrack] {
        let mut config = TestgenConfig::default();
        config.strategy = strat;
        let (tests, _) = run_mini_config(&src, config);
        let mut sigs: Vec<(usize, u32)> = tests
            .iter()
            .map(|t| (t.input_packet.len(), t.outputs.first().map(|o| o.port).unwrap_or(999)))
            .collect();
        sigs.sort();
        sets.push(sigs);
    }
    assert_eq!(sets[0], sets[1], "DFS vs BFS");
    assert_eq!(sets[0], sets[2], "DFS vs random");
}

#[test]
fn max_tests_cap_is_respected() {
    let src = mini_wrap(
        "    state start { pkt.extract(hdr.a); pkt.extract(hdr.b); transition accept; }",
        r#"        if (hdr.a.v > 100) { m.port = 1; } else { m.port = 2; }
        if (hdr.b.v > 100) { m.scratch = 1; } else { m.scratch = 2; }"#,
    );
    let mut config = TestgenConfig::default();
    config.max_tests = 2;
    let (tests, summary) = run_mini_config(&src, config);
    assert_eq!(tests.len(), 2);
    assert_eq!(summary.tests, 2);
}

#[test]
fn callback_false_stops_generation() {
    let src = mini_wrap(
        "    state start { pkt.extract(hdr.a); transition accept; }",
        r#"        if (hdr.a.v > 100) { m.port = 1; } else { m.port = 2; }"#,
    );
    let mut tg = Testgen::new("mini", &src, MiniTarget, TestgenConfig::default()).unwrap();
    let mut seen = 0;
    let summary = tg.run(|_| {
        seen += 1;
        false // stop immediately
    });
    assert_eq!(seen, 1);
    assert_eq!(summary.tests, 1);
}

#[test]
fn signed_arithmetic_end_to_end() {
    // int<8> comparison: find a negative value.
    let src = mini_wrap(
        "    state start { pkt.extract(hdr.a); transition accept; }",
        r#"        if ((int<8>) hdr.a.v < (int<8>) 8w0) {
            m.port = 1;
        } else {
            m.port = 2;
        }"#,
    );
    let (tests, _) = run_mini(&src);
    let neg = tests
        .iter()
        .find(|t| t.input_packet.len() == 1 && t.outputs[0].port == 1)
        .expect("negative branch");
    assert!(neg.input_packet[0] >= 0x80, "MSB must be set for a negative int<8>");
}

#[test]
fn division_and_modulo() {
    let src = mini_wrap(
        "    state start { pkt.extract(hdr.a); transition accept; }",
        r#"        if (hdr.a.v / 7 == 4 && hdr.a.v % 7 == 2) {
            m.port = 1;
        } else {
            m.port = 2;
        }"#,
    );
    let (tests, _) = run_mini(&src);
    let hit = tests
        .iter()
        .find(|t| t.input_packet.len() == 1 && t.outputs[0].port == 1)
        .expect("division branch solvable");
    assert_eq!(hit.input_packet[0], 30, "7*4+2");
}

#[test]
fn clean_runs_report_clean_error_stats() {
    // A healthy, unbudgeted, unfaulted run must report zero degradation:
    // no Unknowns, no retries, no panics, no deadline, no model defaults —
    // the invariant the fault-tolerance machinery is a strict no-op against.
    let src = mini_wrap(
        "    state start { pkt.extract(hdr.a); transition accept; }",
        r#"        if (hdr.a.v == 0x2A) {
            m.port = 1;
        } else {
            m.port = 2;
        }"#,
    );
    let (tests, summary) = run_mini(&src);
    assert!(!tests.is_empty());
    assert!(summary.errors.is_clean(), "clean run degraded: {}", summary.errors);
    assert_eq!(summary.errors.model_defaults, 0);
    assert!(summary.errors.abandoned_by_reason.is_empty(), "{:?}", summary.errors.abandoned_by_reason);
    assert_eq!(summary.test_trails.len(), tests.len(), "trails parallel the emitted suite");
}

#[test]
fn repeated_runs_of_one_driver_report_their_own_solver_checks() {
    // `RunSummary::solver_checks` counts one run's work; only
    // `Testgen::solver_stats` accumulates over the driver's lifetime.
    let src = mini_wrap(
        "    state start { pkt.extract(hdr.a); transition accept; }",
        r#"        if (hdr.a.v == 0x2A) {
            m.port = 1;
        } else {
            m.port = 2;
        }"#,
    );
    let mut tg = Testgen::new("mini", &src, MiniTarget, TestgenConfig::default())
        .expect("mini program compiles");
    let first = tg.run(|_| true);
    let second = tg.run(|_| true);
    assert!(first.solver_checks > 0);
    assert_eq!(first.solver_checks, second.solver_checks, "second run reported a running total");
}

#[test]
fn emission_makes_one_model_bearing_check_per_test() {
    // With no budget every feasibility check goes through the simplifier,
    // so the rest of `solver_checks` are the model-bearing ones: exactly
    // one per emitted test, with the random entry-argument proposals
    // checked first and their model kept.
    let src = p4t_corpus::generate_synthetic(2, 3);
    let config = TestgenConfig {
        jobs: 1,
        solver_budget: 0,
        ..TestgenConfig::default()
    };
    let mut tg = Testgen::new("synthetic", &src, p4t_targets::V1Model::new(), config)
        .expect("synthetic program compiles");
    let summary = tg.run(|_| true);
    assert!(summary.tests > 0);
    assert_eq!(summary.solver_checks - summary.solver.warm_checks, summary.tests);
}

#[test]
fn deep_parser_simplification_grows_linearly() {
    // Every feasibility check of parser_deep(d, 8) re-derives the pinned
    // select key's binding, so the simplifier's rewrite memo carries over
    // from check to check: doubling the depth doubles the rewrites
    // computed, where a per-check memo quadruples them.
    let run = |depth: u32| {
        let config = TestgenConfig {
            jobs: 1,
            solver_budget: 0,
            ..TestgenConfig::default()
        };
        let src = p4t_corpus::generate_parser_deep(depth, 8);
        let mut tg = Testgen::new("deep", &src, p4t_targets::V1Model::new(), config)
            .expect("parser_deep compiles");
        let summary = tg.run(|_| true);
        // Each of the 8 arms per level contradicts the pinned key.
        assert_eq!(summary.solver.simplify.fast_unsat, 8 * depth as u64);
        summary.solver.simplify.rewrites
    };
    let (r20, r40) = (run(20), run(40));
    assert!(r40 < 3 * r20, "rewrites grew superlinearly: {r20} at depth 20, {r40} at depth 40");
}

#[test]
fn forks_are_counted_alike_at_any_job_count() {
    // Every explored path makes the same forks whichever worker steps it,
    // so the fork count is schedule-independent; the fork time is part of
    // stepping.
    let run = |jobs: usize| {
        let config = TestgenConfig { jobs, ..TestgenConfig::default() };
        let src = p4t_corpus::generate_parser_deep(20, 8);
        let mut tg = Testgen::new("deep", &src, p4t_targets::V1Model::new(), config)
            .expect("parser_deep compiles");
        let summary = tg.run(|_| true);
        let phases = &summary.phases;
        assert!(phases.fork <= phases.stepping);
        let json = summary.to_json();
        let key = |k: &str| json.get("phases").and_then(|p| p.get(k)).and_then(|v| v.as_u64());
        assert_eq!(key("forks"), Some(phases.forks));
        assert_eq!(key("fork_ns"), Some(phases.fork.as_nanos() as u64));
        phases.forks
    };
    let forks = run(1);
    assert!(forks > 0);
    assert_eq!(run(4), forks);
}
