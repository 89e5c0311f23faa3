//! Oracle validation (§7, "Does P4Testgen produce correct tests?"):
//! every test p4testgen generates must pass when executed on the
//! corresponding *unfaulted* software model.

use p4t_interp::{execute_and_check, Arch, FaultSet};
use p4t_targets::{EbpfModel, Tofino, V1Model};
use p4testgen_core::{Target, Testgen, TestgenConfig, TestSpec};

fn validate<T: Target>(name: &str, src: &str, target: T, arch: Arch, min_tests: u64) {
    let mut tg = Testgen::new(name, src, target, TestgenConfig::default())
        .unwrap_or_else(|e| panic!("{name} failed to compile: {e}"));
    let mut tests: Vec<TestSpec> = Vec::new();
    let summary = tg.run(|t| {
        tests.push(t.clone());
        true
    });
    assert!(
        summary.tests >= min_tests,
        "{name}: expected at least {min_tests} tests, got {}",
        summary.tests
    );
    for t in &tests {
        let verdict = execute_and_check(&tg.prog, arch, FaultSet::none(), t);
        assert!(
            verdict.is_pass(),
            "{name}: test {} failed on the unfaulted model: {verdict}\ninput: {:02x?}\ntrace: {:#?}\nmodel is expected to agree with the oracle",
            t.id,
            t.input_packet,
            t.trace,
        );
    }
}

const FIG1A: &str = r#"
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
struct headers_t { ethernet_t eth; }
struct meta_t { bit<9> output_port; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    state start { pkt.extract(hdr.eth); transition accept; }
}
control VC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    action set_out(bit<9> port) { meta.output_port = port; sm.egress_spec = port; }
    action noop() { }
    table forward_table {
        key = { hdr.eth.etherType: exact @name("type"); }
        actions = { noop; set_out; }
        default_action = noop();
    }
    apply {
        hdr.eth.etherType = 0xBEEF;
        forward_table.apply();
    }
}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) { apply { } }
control CC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Dep(packet_out pkt, in headers_t hdr) { apply { pkt.emit(hdr.eth); } }
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#;

#[test]
fn v1model_fig1a_oracle_is_correct() {
    validate("fig1a", FIG1A, V1Model::new(), Arch::V1Model, 4);
}

const FIG1B: &str = r#"
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
struct headers_t { ethernet_t eth; }
struct meta_t { bit<1> err; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    state start { pkt.extract(hdr.eth); transition accept; }
}
control VC(inout headers_t hdr, inout meta_t meta) {
    apply {
        verify_checksum(hdr.eth.isValid(), { hdr.eth.dst, hdr.eth.src },
                        hdr.eth.etherType, HashAlgorithm.csum16);
    }
}
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    apply { if (sm.checksum_error == 1) { mark_to_drop(sm); } }
}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) { apply { } }
control CC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Dep(packet_out pkt, in headers_t hdr) { apply { pkt.emit(hdr.eth); } }
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#;

#[test]
fn v1model_fig1b_checksum_oracle_is_correct() {
    validate("fig1b", FIG1B, V1Model::new(), Arch::V1Model, 3);
}

const IPV4_LPM: &str = r#"
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
header ipv4_t {
    bit<4> version; bit<4> ihl; bit<8> tos; bit<16> totalLen;
    bit<16> id; bit<3> flags; bit<13> fragOffset;
    bit<8> ttl; bit<8> protocol; bit<16> checksum;
    bit<32> src; bit<32> dst;
}
struct headers_t { ethernet_t eth; ipv4_t ipv4; }
struct meta_t { bit<8> x; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    state start {
        pkt.extract(hdr.eth);
        transition select(hdr.eth.etherType) {
            0x0800: parse_ipv4;
            default: accept;
        }
    }
    state parse_ipv4 { pkt.extract(hdr.ipv4); transition accept; }
}
control VC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    action fwd(bit<9> port) { sm.egress_spec = port; }
    action drop_it() { mark_to_drop(sm); }
    table routes {
        key = { hdr.ipv4.dst: lpm @name("dst"); }
        actions = { fwd; drop_it; }
        default_action = drop_it();
    }
    apply {
        if (hdr.ipv4.isValid()) {
            if (hdr.ipv4.ttl == 0) {
                mark_to_drop(sm);
            } else {
                hdr.ipv4.ttl = hdr.ipv4.ttl - 1;
                routes.apply();
            }
        } else {
            mark_to_drop(sm);
        }
    }
}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) { apply { } }
control CC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Dep(packet_out pkt, in headers_t hdr) {
    apply { pkt.emit(hdr.eth); pkt.emit(hdr.ipv4); }
}
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#;

#[test]
fn v1model_ipv4_lpm_oracle_is_correct() {
    validate("ipv4_lpm", IPV4_LPM, V1Model::new(), Arch::V1Model, 5);
}

const REGISTER_PROG: &str = r#"
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
struct headers_t { ethernet_t eth; }
struct meta_t { bit<32> count; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    state start { pkt.extract(hdr.eth); transition accept; }
}
control VC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    register<bit<32>>(256) pkt_count;
    apply {
        pkt_count.read(meta.count, 32w7);
        meta.count = meta.count + 1;
        pkt_count.write(32w7, meta.count);
        sm.egress_spec = 1;
    }
}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) { apply { } }
control CC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Dep(packet_out pkt, in headers_t hdr) { apply { pkt.emit(hdr.eth); } }
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#;

#[test]
fn v1model_register_oracle_is_correct() {
    validate("register", REGISTER_PROG, V1Model::new(), Arch::V1Model, 2);
}

const EBPF_FILTER: &str = r#"
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
struct headers_t { ethernet_t eth; }
parser prs(packet_in pkt, out headers_t hdr) {
    state start { pkt.extract(hdr.eth); transition accept; }
}
control pipe(inout headers_t hdr, out bool pass) {
    apply {
        pass = false;
        if (hdr.eth.etherType == 0x0800) { pass = true; }
    }
}
ebpfFilter(prs(), pipe()) main;
"#;

#[test]
fn ebpf_oracle_is_correct() {
    validate("ebpf_filter", EBPF_FILTER, EbpfModel::new(), Arch::Ebpf, 3);
}

const TOFINO_PROG: &str = r#"
header tofino_md_t { bit<64> pad; }
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
struct headers_t { tofino_md_t tofino_md; ethernet_t eth; }
struct meta_t { bit<8> x; }
parser IPrs(packet_in pkt, out headers_t hdr, out meta_t meta, out ingress_intrinsic_metadata_t ig_intr_md) {
    state start {
        pkt.extract(hdr.tofino_md);
        pkt.extract(hdr.eth);
        transition accept;
    }
}
control Ing(inout headers_t hdr, inout meta_t meta,
            in ingress_intrinsic_metadata_t ig_intr_md,
            in ingress_intrinsic_metadata_from_parser_t ig_prsr_md,
            inout ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md,
            inout ingress_intrinsic_metadata_for_tm_t ig_tm_md) {
    apply {
        ig_tm_md.ucast_egress_port = 9w3;
        if (hdr.eth.etherType == 0x1234) {
            ig_dprsr_md.drop_ctl = 1;
        }
    }
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

#[test]
fn tofino_oracle_is_correct() {
    validate("tofino", TOFINO_PROG, Tofino::tna(), Arch::Tna, 2);
}

/// §7 at corpus scale: every test generated for every corpus program passes
/// on its unfaulted software model.
#[test]
fn corpus_oracle_validation() {
    for (name, src, arch) in p4t_corpus::all_programs() {
        let mut config = TestgenConfig::default();
        config.max_tests = 100; // 10x the paper's per-program budget of 10
        let target = p4t_targets::by_name(arch).unwrap_or_else(|| panic!("unknown arch {arch}"));
        let model = Arch::from_target_name(arch).expect("known arch");
        let mut tg = Testgen::new(name, &src, target, config).unwrap();
        let mut tests = Vec::new();
        tg.run(|t| {
            tests.push(t.clone());
            true
        });
        assert!(!tests.is_empty(), "{name}: no tests generated");
        for t in &tests {
            let v = execute_and_check(&tg.prog, model, FaultSet::none(), t);
            assert!(
                v.is_pass(),
                "{name}: test {} failed on unfaulted model: {v}\ninput: {:02x?}\ntrace: {:#?}",
                t.id,
                t.input_packet,
                t.trace
            );
        }
    }
}
