//! Ablation study of p4testgen's design choices (DESIGN.md items):
//!
//! 1. **Taint-aware entry synthesis** (§5.3): number of generated tests
//!    with the wildcard-ternary mitigation vs dropping tainted-key tables
//!    entirely (approximated by counting tests whose entries use wildcards).

use p4testgen_core::{Testgen, TestgenConfig};

fn main() {
    println!("Ablation 1: taint-aware ternary wildcarding (tofino_quirks-style)");
    // A tna program keying a ternary table on tainted intrinsic metadata:
    // with the mitigation, entries are wildcarded (tests still generated);
    // without it (exact match kind), synthesis is skipped entirely.
    let base = r#"
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
    action fwd(bit<9> p) { ig_tm_md.ucast_egress_port = p; }
    action nop() { ig_tm_md.ucast_egress_port = 9w1; }
    table t {
        key = { hdr.tofino_md.pad: MATCHKIND @name("pad"); }
        actions = { fwd; nop; }
        default_action = nop();
    }
    apply { t.apply(); }
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
    println!("| Key match kind | Tests | Tests with entries | Action coverage |");
    println!("|----------------|-------|--------------------|-----------------|");
    for kind in ["ternary", "exact"] {
        let src = base.replace("MATCHKIND", kind);
        let mut tg = Testgen::new(
            "taint_ablation",
            &src,
            p4t_targets::Tofino::tna(),
            TestgenConfig::default(),
        )
        .unwrap();
        let mut with_entries = 0u64;
        let mut fwd_covered = false;
        let summary = tg.run(|t| {
            if !t.entries.is_empty() {
                with_entries += 1;
            }
            if t.trace.iter().any(|l| l.contains("-> fwd")) {
                fwd_covered = true;
            }
            true
        });
        println!(
            "| {kind:14} | {:5} | {with_entries:18} | fwd reachable: {fwd_covered} |",
            summary.tests
        );
    }
    println!();
    println!("(ternary keys on tainted data are wildcarded — the §5.3 mitigation —");
    println!(" so the fwd action stays reachable; exact keys cannot be wildcarded");
    println!(" and the synthesized-entry path is dropped to avoid flaky tests)");
}
