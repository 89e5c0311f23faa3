//! Unit tests for the concrete software models: direct execution of
//! hand-written test specifications (no symbolic oracle involved).

use p4t_interp::{check, Arch, Fault, FaultSet, Interp, Verdict};
use p4testgen_core::testspec::*;
use p4testgen_core::Target;

/// Compile `src` with `target`'s prelude and package roots.
fn compile_for(target: &dyn Target, src: &str) -> p4t_ir::IrProgram {
    let full = format!("{}\n{src}", target.prelude());
    p4t_ir::compile_full(&full, target.package_roots()).expect("compiles").0
}

fn compile_v1(src: &str) -> p4t_ir::IrProgram {
    compile_for(&p4t_targets::V1Model::new(), src)
}

const FWD: &str = r#"
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

fn spec(input: Vec<u8>, entries: Vec<TableEntrySpec>, outputs: Vec<OutputPacketSpec>) -> TestSpec {
    TestSpec {
        id: 0,
        program: "t".into(),
        target: "v1model".into(),
        seed: 1,
        input_port: 0,
        input_packet: input,
        entries,
        register_init: vec![],
        register_expect: vec![],
        outputs,
        covered_statements: vec![],
        trace: Default::default(),
    }
}

fn eth_packet(etype: u16) -> Vec<u8> {
    let mut p = vec![0u8; 14];
    p[12..14].copy_from_slice(&etype.to_be_bytes());
    p
}

fn fwd_entry(etype: u16, port: u16) -> TableEntrySpec {
    TableEntrySpec {
        table: "Ing.t".into(),
        keys: vec![KeyMatch::Exact { name: "etype".into(), value: etype.to_be_bytes().to_vec() }],
        action: "Ing.fwd".into(),
        action_args: vec![("p".into(), port.to_be_bytes().to_vec())],
        priority: 0,
    }
}

#[test]
fn exact_match_hit_forwards() {
    let prog = compile_v1(FWD);
    let s = spec(
        eth_packet(0x0800),
        vec![fwd_entry(0x0800, 5)],
        vec![OutputPacketSpec { port: 5, packet: MaskedBytes::exact(eth_packet(0x0800)) }],
    );
    let interp = Interp::new(&prog, Arch::V1Model, FaultSet::none());
    assert_eq!(check(&s, interp.run(&s)), Verdict::Pass);
}

#[test]
fn exact_match_miss_runs_default() {
    let prog = compile_v1(FWD);
    // Entry for 0x0800, packet is 0x86DD: miss -> nop -> port 0.
    let s = spec(
        eth_packet(0x86DD),
        vec![fwd_entry(0x0800, 5)],
        vec![OutputPacketSpec { port: 0, packet: MaskedBytes::exact(eth_packet(0x86DD)) }],
    );
    let interp = Interp::new(&prog, Arch::V1Model, FaultSet::none());
    assert_eq!(check(&s, interp.run(&s)), Verdict::Pass);
}

#[test]
fn wrong_expectation_is_wrong_output() {
    let prog = compile_v1(FWD);
    let s = spec(
        eth_packet(0x0800),
        vec![fwd_entry(0x0800, 5)],
        vec![OutputPacketSpec { port: 9, packet: MaskedBytes::exact(eth_packet(0x0800)) }],
    );
    let interp = Interp::new(&prog, Arch::V1Model, FaultSet::none());
    match check(&s, interp.run(&s)) {
        Verdict::WrongOutput(m) => assert!(m.contains("port"), "{m}"),
        other => panic!("expected WrongOutput, got {other}"),
    }
}

#[test]
fn drop_expectation_vs_forward_is_wrong_output() {
    let prog = compile_v1(FWD);
    let s = spec(eth_packet(0x0800), vec![fwd_entry(0x0800, 5)], vec![]);
    let interp = Interp::new(&prog, Arch::V1Model, FaultSet::none());
    match check(&s, interp.run(&s)) {
        Verdict::WrongOutput(m) => assert!(m.contains("drop"), "{m}"),
        other => panic!("expected WrongOutput, got {other}"),
    }
}

#[test]
fn masked_bytes_absorb_differences() {
    let prog = compile_v1(FWD);
    let mut expected = MaskedBytes::exact(eth_packet(0x0800));
    // Pretend we don't care about the source MAC.
    for i in 6..12 {
        expected.mask[i] = 0;
        expected.data[i] = 0xAB; // wrong on purpose; masked out
    }
    let s = spec(
        eth_packet(0x0800),
        vec![fwd_entry(0x0800, 5)],
        vec![OutputPacketSpec { port: 5, packet: expected }],
    );
    let interp = Interp::new(&prog, Arch::V1Model, FaultSet::none());
    assert_eq!(check(&s, interp.run(&s)), Verdict::Pass);
}

#[test]
fn faulted_model_crashes_classified_as_exception() {
    let prog = compile_v1(FWD);
    // WideActionParam crashes on >32-bit args; forge an entry with one.
    let mut entry = fwd_entry(0x0800, 5);
    entry.action_args = vec![("p".into(), vec![0; 6])];
    let s = spec(eth_packet(0x0800), vec![entry], vec![]);
    let interp = Interp::new(&prog, Arch::V1Model, FaultSet::single(Fault::WideActionParam));
    match check(&s, interp.run(&s)) {
        Verdict::Exception(m) => assert!(m.contains("parameter"), "{m}"),
        other => panic!("expected Exception, got {other}"),
    }
}

#[test]
fn short_packet_passes_through_on_v1model() {
    let prog = compile_v1(FWD);
    // 8-byte packet: extract fails, BMv2 continues with the header invalid;
    // nothing emitted, unparsed content passes through.
    let input = vec![0x11; 8];
    let s = spec(
        input.clone(),
        vec![],
        vec![OutputPacketSpec { port: 0, packet: MaskedBytes::exact(input) }],
    );
    let interp = Interp::new(&prog, Arch::V1Model, FaultSet::none());
    assert_eq!(check(&s, interp.run(&s)), Verdict::Pass);
}

#[test]
fn lpm_longest_prefix_semantics() {
    let prog = compile_v1(FWD);
    // LPM entry with /8 prefix on a 16-bit key.
    let entry = TableEntrySpec {
        table: "Ing.t".into(),
        keys: vec![KeyMatch::Lpm {
            name: "etype".into(),
            value: vec![0x08, 0x00],
            prefix_len: 8,
        }],
        action: "Ing.fwd".into(),
        action_args: vec![("p".into(), vec![0x00, 0x07])],
        priority: 0,
    };
    // 0x08FF matches the /8 prefix.
    let s = spec(
        eth_packet(0x08FF),
        vec![entry],
        vec![OutputPacketSpec { port: 7, packet: MaskedBytes::exact(eth_packet(0x08FF)) }],
    );
    let interp = Interp::new(&prog, Arch::V1Model, FaultSet::none());
    assert_eq!(check(&s, interp.run(&s)), Verdict::Pass);
}

#[test]
fn ternary_mask_semantics() {
    let prog = compile_v1(FWD);
    let entry = TableEntrySpec {
        table: "Ing.t".into(),
        keys: vec![KeyMatch::Ternary {
            name: "etype".into(),
            value: vec![0x08, 0x00],
            mask: vec![0xFF, 0x00],
        }],
        action: "Ing.fwd".into(),
        action_args: vec![("p".into(), vec![0x00, 0x03])],
        priority: 1,
    };
    let s = spec(
        eth_packet(0x08AB),
        vec![entry],
        vec![OutputPacketSpec { port: 3, packet: MaskedBytes::exact(eth_packet(0x08AB)) }],
    );
    let interp = Interp::new(&prog, Arch::V1Model, FaultSet::none());
    assert_eq!(check(&s, interp.run(&s)), Verdict::Pass);
}

#[test]
fn register_init_and_expectations() {
    let src = r#"
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
struct headers_t { ethernet_t eth; }
struct meta_t { bit<32> c; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    state start { pkt.extract(hdr.eth); transition accept; }
}
control VC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    register<bit<32>>(16) r;
    apply {
        r.read(meta.c, 32w3);
        meta.c = meta.c + 10;
        r.write(32w3, meta.c);
        sm.egress_spec = 1;
    }
}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) { apply { } }
control CC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Dep(packet_out pkt, in headers_t hdr) { apply { pkt.emit(hdr.eth); } }
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#;
    let prog = compile_v1(src);
    let mut s = spec(
        eth_packet(0),
        vec![],
        vec![OutputPacketSpec { port: 1, packet: MaskedBytes::exact(eth_packet(0)) }],
    );
    s.register_init = vec![RegisterSpec { instance: "Ing::r".into(), index: 3, value: vec![0, 0, 0, 32] }];
    s.register_expect = vec![RegisterSpec { instance: "Ing::r".into(), index: 3, value: vec![0, 0, 0, 42] }];
    let interp = Interp::new(&prog, Arch::V1Model, FaultSet::none());
    assert_eq!(check(&s, interp.run(&s)), Verdict::Pass);
    // A wrong expectation is caught.
    s.register_expect[0].value = vec![0, 0, 0, 99];
    let interp = Interp::new(&prog, Arch::V1Model, FaultSet::none());
    match check(&s, interp.run(&s)) {
        Verdict::WrongOutput(m) => assert!(m.contains("register"), "{m}"),
        other => panic!("expected register mismatch, got {other}"),
    }
}

#[test]
fn tofino_below_min_size_is_dropped() {
    let src = r#"
header tofino_md_t { bit<64> pad; }
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
struct headers_t { tofino_md_t tofino_md; ethernet_t eth; }
struct meta_t { bit<8> x; }
parser IPrs(packet_in pkt, out headers_t hdr, out meta_t meta, out ingress_intrinsic_metadata_t ig_intr_md) {
    state start { pkt.extract(hdr.tofino_md); pkt.extract(hdr.eth); transition accept; }
}
control Ing(inout headers_t hdr, inout meta_t meta,
            in ingress_intrinsic_metadata_t ig_intr_md,
            in ingress_intrinsic_metadata_from_parser_t ig_prsr_md,
            inout ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md,
            inout ingress_intrinsic_metadata_for_tm_t ig_tm_md) {
    apply { ig_tm_md.ucast_egress_port = 9w1; }
}
control IDep(packet_out pkt, inout headers_t hdr, in ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md) {
    apply { pkt.emit(hdr.eth); }
}
parser EPrs(packet_in pkt, out headers_t hdr, out meta_t emeta, out egress_intrinsic_metadata_t eg_intr_md) {
    state start { pkt.extract(hdr.eth); transition accept; }
}
control Egr(inout headers_t hdr, inout meta_t emeta,
            in egress_intrinsic_metadata_t eg_intr_md,
            in egress_intrinsic_metadata_from_parser_t eg_prsr_md,
            inout egress_intrinsic_metadata_for_deparser_t eg_dprsr_md,
            inout egress_intrinsic_metadata_for_output_port_t eg_oport_md) {
    apply { }
}
control EDep(packet_out pkt, inout headers_t hdr, in egress_intrinsic_metadata_for_deparser_t eg_dprsr_md) {
    apply { pkt.emit(hdr.eth); }
}
Pipeline(IPrs(), Ing(), IDep(), EPrs(), Egr(), EDep()) main;
"#;
    let prog = compile_for(&p4t_targets::Tofino::tna(), src);
    // 20-byte packet < 64-byte minimum: dropped before the pipeline.
    let s = spec(vec![0u8; 20], vec![], vec![]);
    let interp = Interp::new(&prog, Arch::Tna, FaultSet::none());
    assert_eq!(check(&s, interp.run(&s)), Verdict::Pass);
}

/// A Tofino `Checksum`'s `verify` sums every `add`ed item, across calls and
/// in call order: the one-byte first item makes the order matter.
#[test]
fn tofino_checksum_verify_accumulates_adds_in_call_order() {
    let src = r#"
header tofino_md_t { bit<64> pad; }
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
struct headers_t { tofino_md_t tofino_md; ethernet_t eth; }
struct meta_t { bit<8> x; }
parser IPrs(packet_in pkt, out headers_t hdr, out meta_t meta, out ingress_intrinsic_metadata_t ig_intr_md) {
    state start { pkt.extract(hdr.tofino_md); pkt.extract(hdr.eth); transition accept; }
}
control Ing(inout headers_t hdr, inout meta_t meta,
            in ingress_intrinsic_metadata_t ig_intr_md,
            in ingress_intrinsic_metadata_from_parser_t ig_prsr_md,
            inout ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md,
            inout ingress_intrinsic_metadata_for_tm_t ig_tm_md) {
    Checksum() ck;
    apply {
        ck.add({hdr.eth.dst[47:40]});
        ck.add({hdr.eth.etherType});
        if (ck.verify()) { ig_tm_md.ucast_egress_port = 9w1; } else { ig_tm_md.ucast_egress_port = 9w2; }
    }
}
control IDep(packet_out pkt, inout headers_t hdr, in ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md) {
    apply { pkt.emit(hdr.eth); }
}
parser EPrs(packet_in pkt, out headers_t hdr, out meta_t emeta, out egress_intrinsic_metadata_t eg_intr_md) {
    state start { transition accept; }
}
control Egr(inout headers_t hdr, inout meta_t emeta,
            in egress_intrinsic_metadata_t eg_intr_md,
            in egress_intrinsic_metadata_from_parser_t eg_prsr_md,
            inout egress_intrinsic_metadata_for_deparser_t eg_dprsr_md,
            inout egress_intrinsic_metadata_for_output_port_t eg_oport_md) {
    apply { }
}
control EDep(packet_out pkt, inout headers_t hdr, in egress_intrinsic_metadata_for_deparser_t eg_dprsr_md) {
    apply { }
}
Pipeline(IPrs(), Ing(), IDep(), EPrs(), Egr(), EDep()) main;
"#;
    let prog = compile_for(&p4t_targets::Tofino::tna(), src);
    let port_for = |etype: u16| {
        // dst starts with 0x12: the words are 0x12 ff and ed 00 in call
        // order (sum 0xffff, verified), 0xffed and 0x12 00 reversed.
        let mut packet = vec![0u8; 64];
        packet[0] = 0x12;
        packet[12..14].copy_from_slice(&etype.to_be_bytes());
        let s = spec(packet, vec![], vec![]);
        let result = Interp::new(&prog, Arch::Tna, FaultSet::none()).run(&s).expect("runs");
        result.outputs.iter().map(|(port, _)| *port).collect::<Vec<_>>()
    };
    assert_eq!(port_for(0xFFED), [1]);
    assert_eq!(port_for(0xFFEE), [2]);
}

#[test]
fn priority_orders_installed_entries() {
    let prog = compile_v1(FWD);
    let hi = TableEntrySpec {
        table: "Ing.t".into(),
        keys: vec![KeyMatch::Ternary {
            name: "etype".into(),
            value: vec![0x08, 0x00],
            mask: vec![0xFF, 0xFF],
        }],
        action: "Ing.fwd".into(),
        action_args: vec![("p".into(), vec![0x00, 0x01])],
        priority: 10,
    };
    let lo = TableEntrySpec {
        priority: 1,
        action_args: vec![("p".into(), vec![0x00, 0x02])],
        ..hi.clone()
    };
    let s = spec(
        eth_packet(0x0800),
        vec![lo, hi], // installed low first; priority must still win
        vec![OutputPacketSpec { port: 1, packet: MaskedBytes::exact(eth_packet(0x0800)) }],
    );
    let interp = Interp::new(&prog, Arch::V1Model, FaultSet::none());
    assert_eq!(check(&s, interp.run(&s)), Verdict::Pass);
}

#[test]
fn parser_loop_bound_is_configurable_and_classified() {
    let prog = compile_v1(FWD);
    let s = spec(
        eth_packet(0x0800),
        vec![fwd_entry(0x0800, 5)],
        vec![OutputPacketSpec { port: 5, packet: MaskedBytes::exact(eth_packet(0x0800)) }],
    );
    // Bound 0: even the single `start` visit trips the runaway guard, and
    // the exception is recognizable as the canonical loop-bound crash.
    let interp = Interp::new(&prog, Arch::V1Model, FaultSet::none()).with_parser_loop_bound(0);
    let err = interp.run(&s).expect_err("bound 0 must trip the guard");
    assert!(err.is_parser_loop_bound(), "unexpected exception: {}", err.0);
    // The default bound leaves this one-state parser untouched.
    let interp = Interp::new(&prog, Arch::V1Model, FaultSet::none());
    assert_eq!(check(&s, interp.run(&s)), Verdict::Pass);
    // And the verdict path classifies the crash as an exception.
    let v = p4t_interp::execute_and_check_with_bound(&prog, Arch::V1Model, FaultSet::none(), &s, 0);
    assert!(matches!(v, Verdict::Exception(ref m) if m.contains("parser loop bound")), "{v}");
}
