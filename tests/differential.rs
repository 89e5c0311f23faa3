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

/// `isValid()` through a stack's `.last` and `.next` cursors: both follow
/// `$next` through parsing, an explicit `setValid` and a `pop_front`.
const V1_STACK_CURSOR_VALIDITY: &str = r#"
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
header vlan_t { bit<16> tci; bit<16> etherType; }
struct headers_t { ethernet_t eth; vlan_t[3] vlans; }
struct meta_t { bit<8> x; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    state start {
        pkt.extract(hdr.eth);
        transition select(hdr.eth.etherType) { 0x8100: parse_vlan; default: accept; }
    }
    state parse_vlan {
        pkt.extract(hdr.vlans.next);
        transition select(hdr.vlans.last.etherType) { 0x8100: parse_vlan; default: accept; }
    }
}
control VC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    apply {
        sm.egress_spec = 1;
        if (hdr.vlans.last.isValid()) {
            sm.egress_spec = 2;
            hdr.vlans[1].setValid();
            hdr.vlans[1].tci = 5;
            if (hdr.vlans.next.isValid()) { sm.egress_spec = 3; }
        }
        hdr.vlans.pop_front(1);
        if (hdr.vlans.last.isValid()) { hdr.eth.src = 4; }
    }
}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) { apply { } }
control CC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Dep(packet_out pkt, in headers_t hdr) { apply { pkt.emit(hdr.eth); pkt.emit(hdr.vlans); } }
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#;

/// Ingress and egress bind their header parameters to the same root
/// `hdr`, but nothing makes them share a header struct: here the member
/// `tag` has a different header type on each side.
const TNA_SPLIT_HEADER_TYPES: &str = r#"
header tofino_md_t { bit<64> pad; }
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
header ig_tag_t { bit<8> v; }
header eg_tag_t { bit<16> v; bit<8> w; }
struct ig_headers_t { tofino_md_t tofino_md; ethernet_t eth; ig_tag_t tag; }
struct eg_headers_t { ethernet_t eth; eg_tag_t tag; }
struct meta_t { bit<8> x; }
parser IPrs(packet_in pkt, out ig_headers_t hdr, out meta_t meta, out ingress_intrinsic_metadata_t ig_intr_md) {
    state start { pkt.extract(hdr.tofino_md); pkt.extract(hdr.eth); pkt.extract(hdr.tag); transition accept; }
}
control Ing(inout ig_headers_t hdr, inout meta_t meta,
            in ingress_intrinsic_metadata_t ig_intr_md,
            in ingress_intrinsic_metadata_from_parser_t ig_prsr_md,
            inout ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md,
            inout ingress_intrinsic_metadata_for_tm_t ig_tm_md) {
    apply {
        ig_tm_md.ucast_egress_port = 9w3;
        if (hdr.tag.v == 8w1) { hdr.eth.etherType = 0x1111; }
    }
}
control IDep(packet_out pkt, inout ig_headers_t hdr, in ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md) {
    apply { pkt.emit(hdr.eth); pkt.emit(hdr.tag); }
}
parser EPrs(packet_in pkt, out eg_headers_t hdr, out meta_t emeta, out egress_intrinsic_metadata_t eg_intr_md) {
    state start { pkt.extract(hdr.eth); pkt.extract(hdr.tag); transition accept; }
}
control Egr(inout eg_headers_t hdr, inout meta_t emeta,
            in egress_intrinsic_metadata_t eg_intr_md,
            in egress_intrinsic_metadata_from_parser_t eg_prsr_md,
            inout egress_intrinsic_metadata_for_deparser_t eg_dprsr_md,
            inout egress_intrinsic_metadata_for_output_port_t eg_oport_md) {
    apply { if (hdr.tag.w == 8w2) { hdr.tag.v = 16w7; } }
}
control EDep(packet_out pkt, inout eg_headers_t hdr, in egress_intrinsic_metadata_for_deparser_t eg_dprsr_md) {
    apply { pkt.emit(hdr.tag); pkt.emit(hdr.eth); }
}
Pipeline(IPrs(), Ing(), IDep(), EPrs(), Egr(), EDep()) main;
"#;

/// The same split with a header stack: two elements on the ingress side,
/// four on the egress side.
const TNA_SPLIT_STACK_SIZES: &str = r#"
header tofino_md_t { bit<64> pad; }
header h_t { bit<8> f; }
struct ig_headers_t { tofino_md_t tofino_md; h_t[2] s; }
struct eg_headers_t { h_t[4] s; }
struct meta_t { bit<8> x; }
parser IPrs(packet_in pkt, out ig_headers_t hdr, out meta_t meta, out ingress_intrinsic_metadata_t ig_intr_md) {
    state start { pkt.extract(hdr.tofino_md); pkt.extract(hdr.s.next); pkt.extract(hdr.s.next); transition accept; }
}
control Ing(inout ig_headers_t hdr, inout meta_t meta,
            in ingress_intrinsic_metadata_t ig_intr_md,
            in ingress_intrinsic_metadata_from_parser_t ig_prsr_md,
            inout ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md,
            inout ingress_intrinsic_metadata_for_tm_t ig_tm_md) {
    apply {
        ig_tm_md.ucast_egress_port = 9w3;
        if (hdr.s[0].f == 8w1) { hdr.s.pop_front(1); }
    }
}
control IDep(packet_out pkt, inout ig_headers_t hdr, in ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md) {
    apply { pkt.emit(hdr.s); }
}
parser EPrs(packet_in pkt, out eg_headers_t hdr, out meta_t emeta, out egress_intrinsic_metadata_t eg_intr_md) {
    state start { pkt.extract(hdr.s.next); pkt.extract(hdr.s.next); pkt.extract(hdr.s.next); transition accept; }
}
control Egr(inout eg_headers_t hdr, inout meta_t emeta,
            in egress_intrinsic_metadata_t eg_intr_md,
            in egress_intrinsic_metadata_from_parser_t eg_prsr_md,
            inout egress_intrinsic_metadata_for_deparser_t eg_dprsr_md,
            inout egress_intrinsic_metadata_for_output_port_t eg_oport_md) {
    apply { if (hdr.s[2].f == 8w2) { hdr.s.push_front(1); hdr.s[0].setValid(); hdr.s[0].f = 8w9; } }
}
control EDep(packet_out pkt, inout eg_headers_t hdr, in egress_intrinsic_metadata_for_deparser_t eg_dprsr_md) {
    apply { pkt.emit(hdr.s); }
}
Pipeline(IPrs(), Ing(), IDep(), EPrs(), Egr(), EDep()) main;
"#;

/// An ebpf filter whose parser's `hdr` parameter is a header, not a
/// struct: the implicit deparse re-emits it like a struct member.
const EBPF_HEADER_PARAM: &str = r#"
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
parser prs(packet_in pkt, out ethernet_t hdr) {
    state start { pkt.extract(hdr); transition accept; }
}
control pipe(inout ethernet_t hdr, out bool pass) {
    apply {
        pass = false;
        if (hdr.etherType == 0x0800) { pass = true; hdr.src = 48w1; }
    }
}
ebpfFilter(prs(), pipe()) main;
"#;

/// Two controls declare a same-named action and a same-named table with
/// different bodies and keys; lowering must resolve each reference within
/// its own control, which refeval does on the AST on its own.
const SHARED_NAMES_V1: &str = include_str!("../examples/p4/shared_names.p4");

/// The tna shape of the same, with overlapping equal-priority const
/// entries in egress: they must match in source order.
const SHARED_NAMES_TNA: &str = r#"
header tofino_md_t { bit<64> pad; }
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
struct ig_headers_t { tofino_md_t tofino_md; ethernet_t eth; }
struct eg_headers_t { ethernet_t eth; }
struct meta_t { bit<8> x; }
parser IPrs(packet_in pkt, out ig_headers_t hdr, out meta_t meta, out ingress_intrinsic_metadata_t ig_intr_md) {
    state start { pkt.extract(hdr.tofino_md); pkt.extract(hdr.eth); transition accept; }
}
control Ing(inout ig_headers_t hdr, inout meta_t meta,
            in ingress_intrinsic_metadata_t ig_intr_md,
            in ingress_intrinsic_metadata_from_parser_t ig_prsr_md,
            inout ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md,
            inout ingress_intrinsic_metadata_for_tm_t ig_tm_md) {
    action mark(bit<9> port) { ig_tm_md.ucast_egress_port = port; hdr.eth.src = 48w1; }
    action drop() { ig_dprsr_md.drop_ctl = 3w1; }
    table t {
        key = { hdr.eth.etherType: exact @name("etype"); }
        actions = { mark; drop; }
        default_action = mark(9w2);
    }
    apply {
        switch (t.apply().action_run) {
            mark: { hdr.eth.dst = 48w0x0103; }
            drop: { }
        }
    }
}
control IDep(packet_out pkt, inout ig_headers_t hdr, in ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md) {
    apply { pkt.emit(hdr.eth); }
}
parser EPrs(packet_in pkt, out eg_headers_t hdr, out meta_t emeta, out egress_intrinsic_metadata_t eg_intr_md) {
    state start { pkt.extract(hdr.eth); transition accept; }
}
control Egr(inout eg_headers_t hdr, inout meta_t emeta,
            in egress_intrinsic_metadata_t eg_intr_md,
            in egress_intrinsic_metadata_from_parser_t eg_prsr_md,
            inout egress_intrinsic_metadata_for_deparser_t eg_dprsr_md,
            inout egress_intrinsic_metadata_for_output_port_t eg_oport_md) {
    action mark(bit<16> v) { hdr.eth.etherType = v; }
    action keep() { hdr.eth.src = 48w5; }
    table t {
        key = { hdr.eth.dst: ternary @name("dst"); }
        actions = { mark; keep; }
        const entries = {
            @priority(1) 48w0x03 &&& 48w0xFF: mark(16w0x0A0A);
            @priority(1) 48w0x0103 &&& 48w0xFFFF: mark(16w0x0B0B);
            @priority(2) 48w0x0203 &&& 48w0xFFFF: keep();
        }
        default_action = keep();
    }
    apply {
        if (t.apply().hit) { hdr.eth.dst = 48w9; }
    }
}
control EDep(packet_out pkt, inout eg_headers_t hdr, in egress_intrinsic_metadata_for_deparser_t eg_dprsr_md) {
    apply { pkt.emit(hdr.eth); }
}
Pipeline(IPrs(), Ing(), IDep(), EPrs(), Egr(), EDep()) main;
"#;

/// A degraded generator must not manufacture false divergences: when the
/// generation fault plan taints generation (unknown bits widen the don't-care
/// masks), every test that still gets emitted has to pass on BOTH the
/// interpreter and the independent reference evaluator, and the two
/// engines' verdict checkers must agree test by test. This is the
/// library-level half of the `p4testgen diff` invariance contract. Besides
/// a synthetic program, the inputs are shapes whose root binding, layouts
/// or name resolution are easy to get wrong.
#[test]
fn emitted_tests_agree_across_engines_under_generation_fault_plans() {
    let synthetic = p4t_corpus::generate_synthetic(2, 2);
    for (src, arch) in [
        (synthetic.as_str(), "v1model"),
        (SWAPPED_ROOTS, "v1model"),
        (V1_STACK_CURSOR_VALIDITY, "v1model"),
        (TNA_SPLIT_HEADER_TYPES, "tna"),
        (TNA_SPLIT_STACK_SIZES, "tna"),
        (EBPF_HEADER_PARAM, "ebpf_model"),
        (SHARED_NAMES_V1, "v1model"),
        (SHARED_NAMES_TNA, "tna"),
    ] {
        agree_across_engines(src, arch);
    }
}

fn agree_across_engines(src: &str, arch: &str) {
    let model = Arch::from_target_name(arch).expect("interp models the arch");
    let ref_arch = RefArch::from_target_name(arch).expect("refeval models the arch");
    for permille in [0u32, 250, 700] {
        let mut config = TestgenConfig::default();
        config.seed = 7;
        config.max_tests = 48;
        config.fault_plan.seed = 11;
        config.fault_plan.unknown_permille = permille;
        let bound = config.interp_parser_loop_bound;
        let target = p4t_targets::by_name(arch).expect("known arch");
        let prelude = target.prelude().to_string();
        let mut tg = Testgen::new("faultplan", src, target, config).expect("compiles");
        let mut tests = Vec::new();
        tg.run(|t| {
            tests.push(t.clone());
            true
        });
        assert!(!tests.is_empty(), "permille={permille}: no tests emitted");

        let checked = p4t_frontend::frontend(&format!("{prelude}{src}"))
            .expect("reference frontend accepts the program");
        let mut compared = 0;
        for t in &tests {
            let iv = execute_and_check(&tg.prog, model, FaultSet::none(), t);
            let outcome = evaluate(&checked, ref_arch, &ref_input(t), bound);
            let rv = check(&ref_expect(t), &outcome);
            if rv.kind() == "unsupported" {
                continue;
            }
            compared += 1;
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
        assert!(compared > 0, "{arch} permille={permille}: the reference supports no test");
    }
}

/// A header assignment copies a varbit field's current length with its
/// bits: re-emitting the copy must give back the bytes that were parsed.
#[test]
fn header_copy_carries_the_varbit_length() {
    let src = r#"
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
header opt_t { varbit<32> data; }
struct headers_t { ethernet_t eth; opt_t a; opt_t b; }
struct meta_t { bit<8> x; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    state start {
        pkt.extract(hdr.eth);
        transition select(hdr.eth.etherType) { 0x0800: parse_opt; default: accept; }
    }
    state parse_opt { pkt.extract(hdr.a, 16); transition accept; }
}
control VC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    apply {
        sm.egress_spec = 2;
        if (hdr.a.isValid()) { hdr.b = hdr.a; }
    }
}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) { apply { } }
control CC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Dep(packet_out pkt, in headers_t hdr) { apply { pkt.emit(hdr.eth); pkt.emit(hdr.b); } }
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#;
    let mut tg = Testgen::new("varbit_copy", src, V1Model::new(), TestgenConfig::default())
        .expect("compiles");
    let mut tests = Vec::new();
    tg.run(|t| {
        tests.push(t.clone());
        true
    });
    let copies = |t: &&p4testgen_core::TestSpec| {
        t.input_packet.len() >= 16 && t.input_packet[12..14] == [0x08, 0x00]
    };
    assert!(tests.iter().any(|t| copies(&t)), "no test parses the varbit header");
    for t in &tests {
        for o in &t.outputs {
            assert_eq!(o.packet.data, t.input_packet, "test {}: the copy lost its length", t.id);
        }
    }
    agree_across_engines(src, "v1model");
}

/// `push_front` shifts every element of the declared stack, however large:
/// after `push_front(1)` on a 70-element stack, element 64 holds what
/// element 63 held. The symbolic executor, the interpreter and the
/// reference evaluator must all agree on it.
#[test]
fn push_front_shifts_the_whole_declared_stack() {
    let src = r#"
header h_t { bit<8> f; }
struct headers_t { h_t[70] s; }
struct meta_t { bit<8> x; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    state start { transition accept; }
}
control VC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    apply {
        hdr.s[63].setValid();
        hdr.s[63].f = 8w7;
        hdr.s.push_front(1);
        if (hdr.s[64].isValid() && hdr.s[64].f == 8w7) {
            sm.egress_spec = 2;
        } else {
            sm.egress_spec = 3;
        }
    }
}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) { apply { } }
control CC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Dep(packet_out pkt, in headers_t hdr) { apply { } }
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#;
    let config = TestgenConfig::default();
    let bound = config.interp_parser_loop_bound;
    let mut tg = Testgen::new("big_stack", src, V1Model::new(), config).expect("compiles");
    let mut tests = Vec::new();
    tg.run(|t| {
        tests.push(t.clone());
        true
    });
    assert!(!tests.is_empty(), "no tests emitted");
    let prelude = V1Model::new().prelude().to_string();
    let checked = p4t_frontend::frontend(&format!("{prelude}{src}")).expect("frontend accepts");
    for t in &tests {
        let ports: Vec<u32> = t.outputs.iter().map(|o| o.port).collect();
        assert_eq!(ports, vec![2], "test {}: element 64 lost element 63", t.id);
        let iv = execute_and_check(&tg.prog, Arch::V1Model, FaultSet::none(), t);
        assert!(iv.is_pass(), "test {} fails on the interpreter: {iv}", t.id);
        let outcome = evaluate(&checked, RefArch::V1Model, &ref_input(t), bound);
        let rv = check(&ref_expect(t), &outcome);
        assert_eq!(rv.kind(), "pass", "test {} on the reference evaluator: {rv:?}", t.id);
    }
}
