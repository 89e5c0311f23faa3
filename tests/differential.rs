//! Differential property test — the strongest end-to-end property in the
//! repository: for randomly sized synthetic programs and random seeds,
//! every test the oracle generates must pass on the concrete software
//! model. Any divergence between the symbolic semantics (core + targets)
//! and the concrete semantics (interp) fails this test.

use p4t_interp::{execute_and_check, Arch, FaultSet, Verdict};
use p4t_refeval::{check, evaluate, RefArch};
use p4testgen::refeval_spec::{ref_expect, ref_input};
use p4t_targets::V1Model;
use p4testgen_core::{Target, Testgen, TestgenConfig};
use proptest::prelude::*;

fn check_synthetic(n_tables: u32, n_actions: u32, seed: u64) -> Result<(), TestCaseError> {
    let src = p4t_corpus::generate_synthetic(n_tables, n_actions);
    let mut config = TestgenConfig::default();
    config.seed = seed;
    config.max_tests = 64;
    let mut tg = Testgen::new("synthetic", &src, V1Model::new(), config)
        .map_err(|e| TestCaseError::fail(format!("compile: {e}")))?;
    let mut tests = Vec::new();
    let summary = tg.run(|t| {
        tests.push(t.clone());
        true
    });
    prop_assert!(summary.tests > 0, "no tests generated");
    for t in &tests {
        let v = execute_and_check(&tg.prog, Arch::V1Model, FaultSet::none(), t);
        prop_assert!(
            v.is_pass(),
            "synthetic({n_tables},{n_actions}) seed {seed}: test {} failed: {v}",
            t.id
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn synthetic_programs_oracle_matches_model(
        n_tables in 1u32..5,
        n_actions in 1u32..4,
        seed in 0u64..1000,
    ) {
        check_synthetic(n_tables, n_actions, seed)?;
    }
}

/// The expected path-count scaling: a chain of n tables with a actions each
/// yields (a + 2)^n tests when keys are independent (a synthesized-entry
/// fork per action, one miss fork, and one extra fork from the nop action
/// being synthesizable too), modulo the short-packet fork.
#[test]
fn synthetic_path_count_scales_exponentially() {
    let mut counts = Vec::new();
    for n in 1..=4u32 {
        let src = p4t_corpus::generate_synthetic(n, 2);
        let mut tg =
            Testgen::new("scale", &src, V1Model::new(), TestgenConfig::default()).unwrap();
        let summary = tg.run(|_| true);
        counts.push(summary.tests);
    }
    // Strictly growing, and multiplicatively (each extra table multiplies
    // paths by roughly actions+1).
    for w in counts.windows(2) {
        assert!(w[1] > w[0], "path count must grow with tables: {counts:?}");
        assert!(
            w[1] >= w[0] * 2,
            "path count must grow multiplicatively: {counts:?}"
        );
    }
}

/// Parameter names that swap the v1model roots: the parser and ingress
/// call the headers `meta` and the user metadata `hdr`. Lowering binds by
/// position, and refeval binds on the AST on its own, so a wrong root
/// table shows up as a disagreement.
const SWAPPED_ROOTS: &str = r#"
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
struct headers_t { ethernet_t eth; }
struct meta_t { bit<16> seen; bit<9> port; }
parser P(packet_in pkt, out headers_t meta, inout meta_t hdr, inout standard_metadata_t std) {
    state start { pkt.extract(meta.eth); hdr.seen = meta.eth.etherType; transition accept; }
}
control VC(inout headers_t meta, inout meta_t hdr) { apply { } }
control Ing(inout headers_t meta, inout meta_t hdr, inout standard_metadata_t std) {
    action fwd(bit<9> port) { hdr.port = port; std.egress_spec = port; }
    action drop() { mark_to_drop(std); }
    table t {
        key = { meta.eth.etherType: exact @name("etype"); }
        actions = { fwd; drop; }
        default_action = drop();
    }
    apply {
        t.apply();
        if (hdr.seen == 0x800) { meta.eth.src = 1; }
    }
}
control Eg(inout headers_t meta, inout meta_t hdr, inout standard_metadata_t std) {
    apply { meta.eth.dst = (bit<48>)hdr.port; }
}
control CC(inout headers_t meta, inout meta_t hdr) { apply { } }
control Dep(packet_out pkt, in headers_t meta) { apply { pkt.emit(meta.eth); } }
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#;

/// A degraded generator must not manufacture false divergences: when the
/// PR 2 fault plan taints generation (unknown bits widen the don't-care
/// masks), every test that still gets emitted has to pass on BOTH the
/// interpreter and the independent reference evaluator, and the two
/// engines' verdict checkers must agree test by test. This is the
/// library-level half of the `p4testgen diff` invariance contract.
#[test]
fn emitted_tests_agree_across_engines_under_generation_fault_plans() {
    for src in [p4t_corpus::generate_synthetic(2, 2), SWAPPED_ROOTS.to_string()] {
        agree_across_engines(&src);
    }
}

fn agree_across_engines(src: &str) {
    for permille in [0u32, 250, 700] {
        let mut config = TestgenConfig::default();
        config.seed = 7;
        config.max_tests = 48;
        config.fault_plan.seed = 11;
        config.fault_plan.unknown_permille = permille;
        let bound = config.interp_parser_loop_bound;
        let mut tg =
            Testgen::new("faultplan", src, V1Model::new(), config).expect("compiles");
        let mut tests = Vec::new();
        tg.run(|t| {
            tests.push(t.clone());
            true
        });
        assert!(!tests.is_empty(), "permille={permille}: no tests emitted");

        let prelude = V1Model::new().prelude().to_string();
        let checked = p4t_frontend::frontend(&format!("{prelude}{src}"))
            .expect("reference frontend accepts the program");
        for t in &tests {
            let iv = execute_and_check(&tg.prog, Arch::V1Model, FaultSet::none(), t);
            let outcome = evaluate(&checked, RefArch::V1Model, &ref_input(t), bound);
            let rv = check(&ref_expect(t), &outcome);
            if rv.kind() == "unsupported" {
                continue;
            }
            let ikind = match &iv {
                Verdict::Pass => "pass",
                Verdict::WrongOutput(_) => "wrong-output",
                Verdict::Exception(_) => "exception",
            };
            assert_eq!(
                ikind,
                rv.kind(),
                "permille={permille} test {}: interp says {iv}, reference says {rv:?}",
                t.id
            );
            assert!(
                iv.is_pass(),
                "permille={permille} test {} fails on the interpreter: {iv}",
                t.id
            );
        }
    }
}
