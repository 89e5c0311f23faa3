//! # p4t-corpus — the evaluation program corpus
//!
//! The paper evaluates on proprietary or external programs: the P4C test
//! suite, Intel's P4 Studio programs, `middleblock.p4` (SONiC/PINS),
//! `up4.p4` (ONF's 5G UPF), and `switch.p4`. This crate provides open
//! analogues written in the supported P4-16 subset:
//!
//! * [`MIDDLEBLOCK_SIM`] — a data-center middleblock switch: L2/L3
//!   forwarding, a ternary ACL with P4-constraints (`@entry_restriction`),
//!   mirroring, and checksum updates (stands in for `middleblock.p4`).
//! * [`UP4_SIM`] — a 5G UPF-style pipeline with GTP-U decap, PDR/FAR
//!   tables, and a taint-prototyped meter (stands in for `up4.p4`).
//! * [`SWITCH_SIM_TNA`] — a larger TNA switch with port/VLAN/L2/L3/ACL
//!   stages across ingress and egress (stands in for `switch.p4`).
//! * Small feature programs (header stacks, varbit, switch statements,
//!   registers) used to trigger the fault catalog.
//! * [`generate_synthetic`] — a parameterized program generator for
//!   path-count scaling sweeps.
//! * [`fuzz`] — the deterministic fuzzing harness behind the `p4fuzz`
//!   binary: mutates seed programs and checks that the frontend never
//!   panics (it must reject bad inputs with diagnostics instead).

pub mod fuzz;

use std::sync::LazyLock;

/// The paper's Fig. 1a example (forwarding on a rewritten EtherType).
pub const FIG1A: &str = r#"
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

/// The paper's Fig. 1b example (Ethernet checksum validation).
pub const FIG1B: &str = r#"
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

/// Shared protocol headers for the larger v1model programs.
const NET_HEADERS: &str = r#"
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
header vlan_t { bit<3> pcp; bit<1> dei; bit<12> vid; bit<16> etherType; }
header ipv4_t {
    bit<4> version; bit<4> ihl; bit<8> tos; bit<16> totalLen;
    bit<16> id; bit<3> flags; bit<13> fragOffset;
    bit<8> ttl; bit<8> protocol; bit<16> checksum;
    bit<32> src; bit<32> dst;
}
header tcp_t {
    bit<16> srcPort; bit<16> dstPort; bit<32> seq; bit<32> ack;
    bit<4> dataOffset; bit<4> res; bit<8> flags; bit<16> window;
    bit<16> checksum; bit<16> urgentPtr;
}
header udp_t { bit<16> srcPort; bit<16> dstPort; bit<16> len; bit<16> checksum; }
"#;

/// Middleblock analogue: L2/L3/ACL pipeline with P4-constraints.
pub static MIDDLEBLOCK_SIM: LazyLock<String> = LazyLock::new(|| {
    format!(
        r#"{NET_HEADERS}
struct headers_t {{ ethernet_t eth; vlan_t vlan; ipv4_t ipv4; tcp_t tcp; udp_t udp; }}
struct meta_t {{
    bit<12> vid;
    bit<16> l4_sport;
    bit<16> l4_dport;
    bit<1>  ipv4_ok;
    bit<9>  nexthop_port;
    bit<48> nexthop_mac;
}}

parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    state start {{
        pkt.extract(hdr.eth);
        transition select(hdr.eth.etherType) {{
            0x8100: parse_vlan;
            0x0800: parse_ipv4;
            default: accept;
        }}
    }}
    state parse_vlan {{
        pkt.extract(hdr.vlan);
        transition select(hdr.vlan.etherType) {{
            0x0800: parse_ipv4;
            default: accept;
        }}
    }}
    state parse_ipv4 {{
        pkt.extract(hdr.ipv4);
        transition select(hdr.ipv4.protocol) {{
            8w6: parse_tcp;
            8w17: parse_udp;
            default: accept;
        }}
    }}
    state parse_tcp {{ pkt.extract(hdr.tcp); transition accept; }}
    state parse_udp {{ pkt.extract(hdr.udp); transition accept; }}
}}

control VC(inout headers_t hdr, inout meta_t meta) {{
    apply {{
        verify_checksum(hdr.ipv4.isValid(),
            {{ hdr.ipv4.version, hdr.ipv4.ihl, hdr.ipv4.tos, hdr.ipv4.totalLen,
              hdr.ipv4.id, hdr.ipv4.flags, hdr.ipv4.fragOffset,
              hdr.ipv4.ttl, hdr.ipv4.protocol, hdr.ipv4.src, hdr.ipv4.dst }},
            hdr.ipv4.checksum, HashAlgorithm.csum16);
    }}
}}

control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    action drop_it() {{ mark_to_drop(sm); }}
    action permit() {{ }}
    action mirror(bit<32> session) {{ clone(CloneType.I2E, session); }}
    action set_vid(bit<12> vid) {{ meta.vid = vid; }}
    action l2_fwd(bit<9> port) {{ sm.egress_spec = port; }}
    action set_nexthop(bit<9> port, bit<48> dmac) {{
        meta.nexthop_port = port;
        meta.nexthop_mac = dmac;
        sm.egress_spec = port;
        hdr.eth.dst = dmac;
        hdr.ipv4.ttl = hdr.ipv4.ttl - 1;
    }}

    table vlan_table {{
        key = {{ hdr.vlan.vid: exact @name("vid"); }}
        actions = {{ set_vid; drop_it; }}
        default_action = set_vid(1);
    }}

    @entry_restriction("dst_port != 0 && dst_port < 32768")
    table acl {{
        key = {{
            hdr.ipv4.src: ternary @name("src_addr");
            hdr.ipv4.dst: ternary @name("dst_addr");
            meta.l4_dport: range @name("dst_port");
        }}
        actions = {{ drop_it; permit; mirror; }}
        default_action = permit();
    }}

    table l3_routes {{
        key = {{ hdr.ipv4.dst: lpm @name("dst"); }}
        actions = {{ set_nexthop; drop_it; }}
        default_action = drop_it();
    }}

    table l2_table {{
        key = {{ hdr.eth.dst: exact @name("dmac"); }}
        actions = {{ l2_fwd; drop_it; }}
        default_action = drop_it();
    }}

    apply {{
        if (hdr.vlan.isValid()) {{
            vlan_table.apply();
        }}
        if (hdr.ipv4.isValid()) {{
            if (sm.checksum_error == 1) {{
                mark_to_drop(sm);
            }} else {{
                if (hdr.tcp.isValid()) {{
                    meta.l4_sport = hdr.tcp.srcPort;
                    meta.l4_dport = hdr.tcp.dstPort;
                }}
                if (hdr.udp.isValid()) {{
                    meta.l4_sport = hdr.udp.srcPort;
                    meta.l4_dport = hdr.udp.dstPort;
                }}
                acl.apply();
                if (sm.egress_spec != 511) {{
                    if (hdr.ipv4.ttl == 0) {{
                        mark_to_drop(sm);
                    }} else {{
                        l3_routes.apply();
                    }}
                }}
            }}
        }} else {{
            l2_table.apply();
        }}
    }}
}}

control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    apply {{ }}
}}

control CC(inout headers_t hdr, inout meta_t meta) {{
    apply {{
        update_checksum(hdr.ipv4.isValid(),
            {{ hdr.ipv4.version, hdr.ipv4.ihl, hdr.ipv4.tos, hdr.ipv4.totalLen,
              hdr.ipv4.id, hdr.ipv4.flags, hdr.ipv4.fragOffset,
              hdr.ipv4.ttl, hdr.ipv4.protocol, hdr.ipv4.src, hdr.ipv4.dst }},
            hdr.ipv4.checksum, HashAlgorithm.csum16);
    }}
}}

control Dep(packet_out pkt, in headers_t hdr) {{
    apply {{
        pkt.emit(hdr.eth);
        pkt.emit(hdr.vlan);
        pkt.emit(hdr.ipv4);
        pkt.emit(hdr.tcp);
        pkt.emit(hdr.udp);
    }}
}}
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#
    )
});

/// UP4 analogue: 5G UPF data plane with GTP-U decap and PDR/FAR tables.
pub static UP4_SIM: LazyLock<String> = LazyLock::new(|| {
    format!(
        r#"{NET_HEADERS}
header gtpu_t {{
    bit<3> version; bit<1> pt; bit<1> spare; bit<1> ex; bit<1> seq_flag; bit<1> npdu;
    bit<8> msgtype; bit<16> msglen; bit<32> teid;
}}
struct headers_t {{ ethernet_t eth; ipv4_t outer_ipv4; udp_t outer_udp; gtpu_t gtpu; ipv4_t ipv4; udp_t udp; }}
struct meta_t {{
    bit<32> teid;
    bit<32> far_id;
    bit<1>  needs_decap;
    bit<1>  needs_encap;
    bit<8>  meter_color;
}}

parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    state start {{
        pkt.extract(hdr.eth);
        transition select(hdr.eth.etherType) {{
            0x0800: parse_outer;
            default: accept;
        }}
    }}
    state parse_outer {{
        pkt.extract(hdr.outer_ipv4);
        transition select(hdr.outer_ipv4.protocol) {{
            8w17: parse_outer_udp;
            default: accept;
        }}
    }}
    state parse_outer_udp {{
        pkt.extract(hdr.outer_udp);
        transition select(hdr.outer_udp.dstPort) {{
            16w2152: parse_gtpu;
            default: accept;
        }}
    }}
    state parse_gtpu {{
        pkt.extract(hdr.gtpu);
        pkt.extract(hdr.ipv4);
        transition accept;
    }}
}}

control VC(inout headers_t hdr, inout meta_t meta) {{ apply {{ }} }}

control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    meter(1024, MeterType.packets) flow_meter;
    action drop_it() {{ mark_to_drop(sm); }}
    action set_pdr(bit<32> far_id, bit<1> decap) {{
        meta.far_id = far_id;
        meta.needs_decap = decap;
    }}
    action far_forward(bit<9> port) {{ sm.egress_spec = port; }}
    action far_tunnel(bit<9> port, bit<32> teid, bit<32> tunnel_dst) {{
        sm.egress_spec = port;
        meta.needs_encap = 1;
        meta.teid = teid;
        hdr.outer_ipv4.dst = tunnel_dst;
    }}

    table pdr_table {{
        key = {{
            hdr.gtpu.teid: exact @name("teid");
            hdr.ipv4.dst: exact @name("ue_addr");
        }}
        actions = {{ set_pdr; drop_it; }}
        default_action = drop_it();
    }}

    table far_table {{
        key = {{ meta.far_id: exact @name("far_id"); }}
        actions = {{ far_forward; far_tunnel; drop_it; }}
        default_action = drop_it();
    }}

    apply {{
        if (hdr.gtpu.isValid()) {{
            pdr_table.apply();
            if (sm.egress_spec != 511) {{
                flow_meter.execute_meter(meta.far_id, meta.meter_color);
                if (meta.meter_color == 2) {{
                    mark_to_drop(sm);
                }} else {{
                    far_table.apply();
                    if (meta.needs_decap == 1) {{
                        hdr.outer_ipv4.setInvalid();
                        hdr.outer_udp.setInvalid();
                        hdr.gtpu.setInvalid();
                    }}
                }}
            }}
        }} else {{
            drop_it();
        }}
    }}
}}

control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{ apply {{ }} }}
control CC(inout headers_t hdr, inout meta_t meta) {{ apply {{ }} }}
control Dep(packet_out pkt, in headers_t hdr) {{
    apply {{
        pkt.emit(hdr.eth);
        pkt.emit(hdr.outer_ipv4);
        pkt.emit(hdr.outer_udp);
        pkt.emit(hdr.gtpu);
        pkt.emit(hdr.ipv4);
        pkt.emit(hdr.udp);
    }}
}}
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#
    )
});

/// switch.p4 analogue for TNA: multi-stage ingress + egress rewrite.
pub static SWITCH_SIM_TNA: LazyLock<String> = LazyLock::new(|| {
    format!(
        r#"
header tofino_md_t {{ bit<64> pad; }}
{NET_HEADERS}
header ipv6_t {{
    bit<4> version; bit<8> trafficClass; bit<20> flowLabel;
    bit<16> payloadLen; bit<8> nextHdr; bit<8> hopLimit;
    bit<64> srcHi; bit<64> srcLo; bit<64> dstHi; bit<64> dstLo;
}}
struct headers_t {{ tofino_md_t tofino_md; ethernet_t eth; vlan_t vlan; ipv4_t ipv4; ipv6_t ipv6; tcp_t tcp; udp_t udp; }}
struct meta_t {{
    bit<16> bd;
    bit<16> nexthop;
    bit<12> vid;
    bit<1>  routed;
    bit<1>  acl_deny;
    bit<16> ecmp_group;
    bit<16> l4_dport;
}}

parser IPrs(packet_in pkt, out headers_t hdr, out meta_t meta, out ingress_intrinsic_metadata_t ig_intr_md) {{
    state start {{
        pkt.extract(hdr.tofino_md);
        pkt.extract(hdr.eth);
        transition select(hdr.eth.etherType) {{
            0x8100: parse_vlan;
            0x0800: parse_ipv4;
            0x86DD: parse_ipv6;
            default: accept;
        }}
    }}
    state parse_vlan {{
        pkt.extract(hdr.vlan);
        transition select(hdr.vlan.etherType) {{
            0x0800: parse_ipv4;
            0x86DD: parse_ipv6;
            default: accept;
        }}
    }}
    state parse_ipv4 {{
        pkt.extract(hdr.ipv4);
        transition select(hdr.ipv4.protocol) {{
            8w6: parse_tcp;
            8w17: parse_udp;
            default: accept;
        }}
    }}
    state parse_ipv6 {{
        pkt.extract(hdr.ipv6);
        transition select(hdr.ipv6.nextHdr) {{
            8w6: parse_tcp;
            8w17: parse_udp;
            default: accept;
        }}
    }}
    state parse_tcp {{ pkt.extract(hdr.tcp); transition accept; }}
    state parse_udp {{ pkt.extract(hdr.udp); transition accept; }}
}}

control Ing(inout headers_t hdr, inout meta_t meta,
            in ingress_intrinsic_metadata_t ig_intr_md,
            in ingress_intrinsic_metadata_from_parser_t ig_prsr_md,
            inout ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md,
            inout ingress_intrinsic_metadata_for_tm_t ig_tm_md) {{
    action drop_it() {{ ig_dprsr_md.drop_ctl = 1; }}
    action set_bd(bit<16> bd) {{ meta.bd = bd; }}
    action l2_hit(bit<9> port) {{ ig_tm_md.ucast_egress_port = port; }}
    action route(bit<16> nexthop) {{ meta.nexthop = nexthop; meta.routed = 1; }}
    action nexthop_set(bit<9> port, bit<48> dmac) {{
        ig_tm_md.ucast_egress_port = port;
        hdr.eth.dst = dmac;
        hdr.ipv4.ttl = hdr.ipv4.ttl - 1;
    }}
    action acl_deny_a() {{ meta.acl_deny = 1; }}
    action acl_permit() {{ }}

    table port_vlan {{
        key = {{
            ig_intr_md.ingress_port: exact @name("port");
            hdr.vlan.vid: ternary @name("vid");
        }}
        actions = {{ set_bd; drop_it; }}
        default_action = set_bd(0);
    }}
    table l2_fwd {{
        key = {{
            meta.bd: exact @name("bd");
            hdr.eth.dst: exact @name("dmac");
        }}
        actions = {{ l2_hit; drop_it; }}
        default_action = drop_it();
    }}
    table l3_route {{
        key = {{ hdr.ipv4.dst: lpm @name("dst"); }}
        actions = {{ route; drop_it; }}
        default_action = drop_it();
    }}
    table nexthop_table {{
        key = {{ meta.nexthop: exact @name("nexthop"); }}
        actions = {{ nexthop_set; drop_it; }}
        default_action = drop_it();
    }}
    table acl {{
        key = {{
            hdr.ipv4.src: ternary @name("src");
            meta.l4_dport: range @name("dport");
        }}
        actions = {{ acl_deny_a; acl_permit; }}
        default_action = acl_permit();
    }}
    action set_ecmp(bit<16> group) {{ meta.ecmp_group = group; }}
    action no_ecmp() {{ }}
    table ecmp {{
        key = {{ meta.nexthop: exact @name("nexthop"); }}
        actions = {{ set_ecmp; no_ecmp; }}
        default_action = no_ecmp();
    }}
    action v6_route(bit<16> nexthop) {{ meta.nexthop = nexthop; meta.routed = 1; }}
    table l3_route_v6 {{
        key = {{ hdr.ipv6.dstHi: exact @name("dst_hi"); }}
        actions = {{ v6_route; drop_it; }}
        default_action = drop_it();
    }}

    apply {{
        port_vlan.apply();
        if (hdr.tcp.isValid()) {{
            meta.l4_dport = hdr.tcp.dstPort;
        }}
        if (hdr.udp.isValid()) {{
            meta.l4_dport = hdr.udp.dstPort;
        }}
        if (hdr.ipv4.isValid()) {{
            if (hdr.ipv4.ttl == 0) {{
                drop_it();
            }} else {{
                l3_route.apply();
                if (meta.routed == 1) {{
                    ecmp.apply();
                    nexthop_table.apply();
                }}
                acl.apply();
                if (meta.acl_deny == 1) {{
                    drop_it();
                }}
            }}
        }} else {{
            if (hdr.ipv6.isValid()) {{
                if (hdr.ipv6.hopLimit == 0) {{
                    drop_it();
                }} else {{
                    l3_route_v6.apply();
                    if (meta.routed == 1) {{
                        ecmp.apply();
                        nexthop_table.apply();
                    }}
                }}
            }} else {{
                l2_fwd.apply();
            }}
        }}
    }}
}}

control IDep(packet_out pkt, inout headers_t hdr, in ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md) {{
    apply {{
        pkt.emit(hdr.eth);
        pkt.emit(hdr.vlan);
        pkt.emit(hdr.ipv4);
        pkt.emit(hdr.ipv6);
        pkt.emit(hdr.tcp);
        pkt.emit(hdr.udp);
    }}
}}

parser EPrs(packet_in pkt, out headers_t hdr, out meta_t emeta, out egress_intrinsic_metadata_t eg_intr_md) {{
    state start {{
        pkt.extract(hdr.eth);
        transition accept;
    }}
}}

control Egr(inout headers_t hdr, inout meta_t emeta,
            in egress_intrinsic_metadata_t eg_intr_md,
            in egress_intrinsic_metadata_from_parser_t eg_prsr_md,
            inout egress_intrinsic_metadata_for_deparser_t eg_dprsr_md,
            inout egress_intrinsic_metadata_for_output_port_t eg_oport_md) {{
    action rewrite_smac(bit<48> smac) {{ hdr.eth.src = smac; }}
    action keep() {{ }}
    table egress_rewrite {{
        key = {{ eg_intr_md.egress_port: exact @name("port"); }}
        actions = {{ rewrite_smac; keep; }}
        default_action = keep();
    }}
    apply {{
        egress_rewrite.apply();
    }}
}}

control EDep(packet_out pkt, inout headers_t hdr, in egress_intrinsic_metadata_for_deparser_t eg_dprsr_md) {{
    apply {{ pkt.emit(hdr.eth); }}
}}
Pipeline(IPrs(), Ing(), IDep(), EPrs(), Egr(), EDep()) main;
"#
    )
});

/// Header-stack feature program (triggers the stack-class faults).
pub static STACK_PROG: LazyLock<String> = LazyLock::new(|| {
    format!(
        r#"{NET_HEADERS}
struct headers_t {{ ethernet_t eth; vlan_t[2] vlans; }}
struct meta_t {{ bit<12> inner_vid; }}
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    state start {{
        pkt.extract(hdr.eth);
        transition select(hdr.eth.etherType) {{
            0x8100: parse_vlan;
            default: accept;
        }}
    }}
    state parse_vlan {{
        pkt.extract(hdr.vlans.next);
        transition select(hdr.vlans.last.etherType) {{
            0x8100: parse_vlan;
            default: accept;
        }}
    }}
}}
control VC(inout headers_t hdr, inout meta_t meta) {{ apply {{ }} }}
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    apply {{
        if (hdr.vlans[0].isValid()) {{
            meta.inner_vid = hdr.vlans[0].vid;
            sm.egress_spec = 2;
        }} else {{
            sm.egress_spec = 1;
        }}
    }}
}}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{ apply {{ }} }}
control CC(inout headers_t hdr, inout meta_t meta) {{ apply {{ }} }}
control Dep(packet_out pkt, in headers_t hdr) {{
    apply {{
        pkt.emit(hdr.eth);
        pkt.emit(hdr.vlans[0]);
        pkt.emit(hdr.vlans[1]);
    }}
}}
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#
    )
});

/// Varbit feature program (IPv4 options; triggers varbit faults).
pub static VARBIT_PROG: LazyLock<String> = LazyLock::new(|| {
    format!(
        r#"{NET_HEADERS}
header ipv4_options_t {{ varbit<320> options; }}
struct headers_t {{ ethernet_t eth; ipv4_t ipv4; ipv4_options_t opts; }}
struct meta_t {{ bit<8> x; }}
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    state start {{
        pkt.extract(hdr.eth);
        transition select(hdr.eth.etherType) {{
            0x0800: parse_ipv4;
            default: accept;
        }}
    }}
    state parse_ipv4 {{
        pkt.extract(hdr.ipv4);
        transition select(hdr.ipv4.ihl) {{
            4w5: accept;
            4w6: parse_options;
            default: accept;
        }}
    }}
    state parse_options {{
        pkt.extract(hdr.opts, 32);
        transition accept;
    }}
}}
control VC(inout headers_t hdr, inout meta_t meta) {{ apply {{ }} }}
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    apply {{ sm.egress_spec = 3; }}
}}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{ apply {{ }} }}
control CC(inout headers_t hdr, inout meta_t meta) {{ apply {{ }} }}
control Dep(packet_out pkt, in headers_t hdr) {{
    apply {{
        pkt.emit(hdr.eth);
        pkt.emit(hdr.ipv4);
        pkt.emit(hdr.opts);
    }}
}}
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#
    )
});

/// Switch-statement feature program (triggers the swallowed-apply fault).
pub static SWITCH_STMT_PROG: LazyLock<String> = LazyLock::new(|| {
    format!(
        r#"{NET_HEADERS}
struct headers_t {{ ethernet_t eth; }}
struct meta_t {{ bit<8> class; }}
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    state start {{ pkt.extract(hdr.eth); transition accept; }}
}}
control VC(inout headers_t hdr, inout meta_t meta) {{ apply {{ }} }}
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    action classify_low() {{ meta.class = 1; sm.egress_spec = 1; }}
    action classify_high() {{ meta.class = 2; sm.egress_spec = 2; }}
    table classifier {{
        key = {{ hdr.eth.etherType: exact @name("type"); }}
        actions = {{ classify_low; classify_high; }}
        default_action = classify_low();
    }}
    apply {{
        switch (classifier.apply().action_run) {{
            classify_low: {{ hdr.eth.src = 48w0x0A0A0A0A0A0A; }}
            classify_high: {{ hdr.eth.src = 48w0x0B0B0B0B0B0B; }}
        }}
    }}
}}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{ apply {{ }} }}
control CC(inout headers_t hdr, inout meta_t meta) {{ apply {{ }} }}
control Dep(packet_out pkt, in headers_t hdr) {{ apply {{ pkt.emit(hdr.eth); }} }}
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#
    )
});

/// Register feature program (triggers the register-class faults).
pub static REGISTER_PROG: LazyLock<String> = LazyLock::new(|| {
    format!(
        r#"{NET_HEADERS}
struct headers_t {{ ethernet_t eth; }}
struct meta_t {{ bit<32> count; }}
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    state start {{ pkt.extract(hdr.eth); transition accept; }}
}}
control VC(inout headers_t hdr, inout meta_t meta) {{ apply {{ }} }}
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    register<bit<32>>(64) counters;
    apply {{
        counters.read(meta.count, 32w63);
        meta.count = meta.count + 1;
        counters.write(32w63, meta.count);
        sm.egress_spec = 1;
    }}
}}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{ apply {{ }} }}
control CC(inout headers_t hdr, inout meta_t meta) {{ apply {{ }} }}
control Dep(packet_out pkt, in headers_t hdr) {{ apply {{ pkt.emit(hdr.eth); }} }}
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#
    )
});


/// BMv2 quirks program: triggers the stack/emit/key-name fault classes
/// (P4C-1, P4C-4, P4C-5, P4C-6, P4C-8).
pub static BMV2_QUIRKS: LazyLock<String> = LazyLock::new(|| {
    format!(
        r#"{NET_HEADERS}
header tag_t {{ bit<16> a; bit<16> b; }}
struct headers_t {{ ethernet_t eth; vlan_t[2] vlans; tag_t tag; }}
struct meta_t {{ bit<12> v; }}
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    state start {{
        pkt.extract(hdr.eth);
        transition select(hdr.eth.etherType) {{
            0x8100: parse_vlan;
            default: accept;
        }}
    }}
    state parse_vlan {{
        pkt.extract(hdr.vlans.next);
        transition select(hdr.vlans.last.etherType) {{
            0x8100: parse_vlan;
            default: accept;
        }}
    }}
}}
control VC(inout headers_t hdr, inout meta_t meta) {{ apply {{ }} }}
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    action set_port(bit<9> p) {{ sm.egress_spec = p; }}
    action keep() {{ }}
    table stack_key {{
        key = {{ hdr.vlans[0].vid: exact; }}
        actions = {{ set_port; keep; }}
        default_action = keep();
    }}
    table dup_keys {{
        key = {{
            hdr.eth.src: exact @name("mac");
            hdr.eth.dst: exact @name("mac");
        }}
        actions = {{ set_port; keep; }}
        default_action = keep();
    }}
    apply {{
        if (hdr.vlans[0].isValid()) {{
            stack_key.apply();
            hdr.vlans.pop_front(1);
        }} else {{
            dup_keys.apply();
        }}
        hdr.tag.setValid();
        hdr.tag.a = 0xAAAA;
    }}
}}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{ apply {{ }} }}
control CC(inout headers_t hdr, inout meta_t meta) {{ apply {{ }} }}
control Dep(packet_out pkt, in headers_t hdr) {{
    apply {{
        pkt.emit(hdr.eth);
        pkt.emit(hdr.vlans[0]);
        pkt.emit(hdr.vlans[1]);
        pkt.emit(hdr.tag);
    }}
}}
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#
    )
});

/// Tofino quirks program: triggers the register/hash/bypass/priority/
/// lookahead fault classes (TOF-7/8/11/12/13/14).
pub static TOFINO_QUIRKS: LazyLock<String> = LazyLock::new(|| {
    format!(
        r#"
header tofino_md_t {{ bit<64> pad; }}
{NET_HEADERS}
struct headers_t {{ tofino_md_t tofino_md; ethernet_t eth; }}
struct meta_t {{ bit<32> rv; bit<32> hv; bit<48> peek; }}
parser IPrs(packet_in pkt, out headers_t hdr, out meta_t meta, out ingress_intrinsic_metadata_t ig_intr_md) {{
    state start {{
        meta.peek = pkt.lookahead<bit<48>>();
        pkt.extract(hdr.tofino_md);
        pkt.extract(hdr.eth);
        transition accept;
    }}
}}
control Ing(inout headers_t hdr, inout meta_t meta,
            in ingress_intrinsic_metadata_t ig_intr_md,
            in ingress_intrinsic_metadata_from_parser_t ig_prsr_md,
            inout ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md,
            inout ingress_intrinsic_metadata_for_tm_t ig_tm_md) {{
    Register<bit<32>, bit<32>>(16) reg;
    Hash<bit<32>>(HashAlgorithm_t.CRC32) hasher;
    action fwd(bit<9> p) {{ ig_tm_md.ucast_egress_port = p; }}
    action fwd_bypass(bit<9> p) {{
        ig_tm_md.ucast_egress_port = p;
        ig_tm_md.bypass_egress = 1;
    }}
    table seltab {{
        key = {{ hdr.eth.etherType: exact @name("type"); }}
        actions = {{ fwd; fwd_bypass; }}
        const entries = {{
            @priority(10) 0x1111: fwd(9w1);
            @priority(1) 0x1111: fwd_bypass(9w2);
        }}
        default_action = fwd(9w7);
    }}
    apply {{
        meta.rv = reg.read(32w15);
        reg.write(32w15, meta.rv + 1);
        meta.hv = hasher.get({{ hdr.eth.dst, hdr.eth.src }});
        hdr.eth.src = meta.hv ++ meta.hv[15:0];
        seltab.apply();
    }}
}}
control IDep(packet_out pkt, inout headers_t hdr, in ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md) {{
    apply {{ pkt.emit(hdr.eth); }}
}}
parser EPrs(packet_in pkt, out headers_t hdr, out meta_t emeta, out egress_intrinsic_metadata_t eg_intr_md) {{
    state start {{ pkt.extract(hdr.eth); transition accept; }}
}}
control Egr(inout headers_t hdr, inout meta_t emeta,
            in egress_intrinsic_metadata_t eg_intr_md,
            in egress_intrinsic_metadata_from_parser_t eg_prsr_md,
            inout egress_intrinsic_metadata_for_deparser_t eg_dprsr_md,
            inout egress_intrinsic_metadata_for_output_port_t eg_oport_md) {{
    apply {{ hdr.eth.dst = 48w0xEEEEEEEEEEEE; }}
}}
control EDep(packet_out pkt, inout headers_t hdr, in egress_intrinsic_metadata_for_deparser_t eg_dprsr_md) {{
    apply {{ pkt.emit(hdr.eth); }}
}}
Pipeline(IPrs(), Ing(), IDep(), EPrs(), Egr(), EDep()) main;
"#
    )
});

/// Generate a synthetic v1model program with `n_tables` chained tables of
/// `n_actions` actions each: the number of feasible paths grows roughly as
/// `(n_actions + 1)^n_tables`, the scaling the paper observes on switch.p4.
pub fn generate_synthetic(n_tables: u32, n_actions: u32) -> String {
    let mut actions = String::new();
    let mut tables = String::new();
    let mut applies = String::new();
    for t in 0..n_tables {
        let mut action_list = String::new();
        for a in 0..n_actions {
            actions.push_str(&format!(
                "    action t{t}_a{a}(bit<8> v) {{ meta.acc = meta.acc ^ v; }}\n"
            ));
            action_list.push_str(&format!("t{t}_a{a}; "));
        }
        tables.push_str(&format!(
            r#"    table t{t} {{
        key = {{ hdr.data.f{}: exact @name("f{}"); }}
        actions = {{ {action_list}nop; }}
        default_action = nop();
    }}
"#,
            t % 4,
            t % 4
        ));
        applies.push_str(&format!("        t{t}.apply();\n"));
    }
    format!(
        r#"
header data_t {{ bit<8> f0; bit<8> f1; bit<8> f2; bit<8> f3; }}
struct headers_t {{ data_t data; }}
struct meta_t {{ bit<8> acc; }}
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    state start {{ pkt.extract(hdr.data); transition accept; }}
}}
control VC(inout headers_t hdr, inout meta_t meta) {{ apply {{ }} }}
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    action nop() {{ }}
{actions}
{tables}
    apply {{
        sm.egress_spec = 1;
{applies}
        hdr.data.f3 = meta.acc;
    }}
}}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{ apply {{ }} }}
control CC(inout headers_t hdr, inout meta_t meta) {{ apply {{ }} }}
control Dep(packet_out pkt, in headers_t hdr) {{ apply {{ pkt.emit(hdr.data); }} }}
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#
    )
}

/// Generate a parser "narrowing chain" that stresses the DFS spine: the
/// first select pins the key (`key == K0`) down a trunk of `depth` further
/// selects, each offering `fanout` case constants that contradict the pinned
/// value before falling through to the next state. Every case fork is an
/// infeasible feasibility check whose fork trail shares a long prefix with
/// its siblings — exactly the shape the incremental spine solver is built
/// for. Fresh-per-check re-blasts the whole prefix on each of the roughly
/// `depth * fanout` checks (quadratic total work in `depth`); the warm core
/// blasts each trail constraint once and retires the siblings by assumption.
/// All case constants are globally distinct so the feasibility memo cannot
/// collapse checks across levels.
pub fn generate_parser_deep(depth: u32, fanout: u32) -> String {
    let mut states = String::new();
    for i in 1..=depth {
        let next = if i == depth { "accept".to_string() } else { format!("s{}", i + 1) };
        let mut cases = String::new();
        for j in 0..fanout {
            // Distinct per (level, case) and never equal to the pinned
            // trunk value 0xA0000000.
            let c = 0x0001_0000u64 * u64::from(i) + u64::from(j) + 1;
            cases.push_str(&format!("            32w0x{c:08X}: accept;\n"));
        }
        states.push_str(&format!(
            r#"    state s{i} {{
        transition select(hdr.data.key) {{
{cases}            default: {next};
        }}
    }}
"#
        ));
    }
    format!(
        r#"
header data_t {{ bit<32> key; bit<32> pad; }}
struct headers_t {{ data_t data; }}
struct meta_t {{ bit<8> acc; }}
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    state start {{
        pkt.extract(hdr.data);
        transition select(hdr.data.key) {{
            32w0xA0000000: s1;
            default: accept;
        }}
    }}
{states}}}
control VC(inout headers_t hdr, inout meta_t meta) {{ apply {{ }} }}
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    apply {{ sm.egress_spec = 1; }}
}}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{ apply {{ }} }}
control CC(inout headers_t hdr, inout meta_t meta) {{ apply {{ }} }}
control Dep(packet_out pkt, in headers_t hdr) {{ apply {{ pkt.emit(hdr.data); }} }}
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#
    )
}

/// The architectures the target-intersection programs cover.
pub const INTERSECTION_TARGETS: &[&str] = &["v1model", "tna", "ebpf_model"];

/// A program in the *target-intersection subset*: the same forwarding
/// logic — parse Ethernet, exact-match on the destination MAC, forward or
/// rewrite-and-drop — expressed in each architecture's packaging. The
/// differential harness (`p4testgen diff --cross`) runs the variants on
/// identical inputs and control planes and compares outcomes through the
/// documented quirk list (`p4t_targets::quirks`), so every behavioral
/// difference is either explained or a soundness finding.
///
/// The table carries the same `@name("flow")` control-plane name in every
/// variant, and actions keep identical names and parameter widths, so one
/// `TestSpec`'s entries install unchanged on all three.
pub fn generate_intersection(target: &str) -> String {
    let eth = "header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }";
    match target {
        "tna" | "t2na" => format!(
            r#"// arch: tna
header tofino_md_t {{ bit<64> pad; }}
{eth}
struct headers_t {{ tofino_md_t tofino_md; ethernet_t eth; }}
struct meta_t {{ bit<8> unused; }}
parser IPrs(packet_in pkt, out headers_t hdr, out meta_t meta, out ingress_intrinsic_metadata_t ig_intr_md) {{
    state start {{
        pkt.extract(hdr.tofino_md);
        pkt.extract(hdr.eth);
        transition accept;
    }}
}}
control Ing(inout headers_t hdr, inout meta_t meta,
            in ingress_intrinsic_metadata_t ig_intr_md,
            in ingress_intrinsic_metadata_from_parser_t ig_prsr_md,
            inout ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md,
            inout ingress_intrinsic_metadata_for_tm_t ig_tm_md) {{
    action to_port(bit<9> port) {{ ig_tm_md.ucast_egress_port = port; }}
    action reject() {{ hdr.eth.etherType = 0xDEAD; ig_dprsr_md.drop_ctl = 1; }}
    @name("flow")
    table flow {{
        key = {{ hdr.eth.dst: exact @name("dst"); }}
        actions = {{ to_port; reject; }}
        default_action = reject();
    }}
    apply {{ flow.apply(); }}
}}
control IDep(packet_out pkt, inout headers_t hdr, in ingress_intrinsic_metadata_for_deparser_t ig_dprsr_md) {{
    apply {{ pkt.emit(hdr.eth); }}
}}
parser EPrs(packet_in pkt, out headers_t hdr, out meta_t emeta, out egress_intrinsic_metadata_t eg_intr_md) {{
    state start {{ pkt.extract(hdr.eth); transition accept; }}
}}
control Egr(inout headers_t hdr, inout meta_t emeta,
            in egress_intrinsic_metadata_t eg_intr_md,
            in egress_intrinsic_metadata_from_parser_t eg_prsr_md,
            inout egress_intrinsic_metadata_for_deparser_t eg_dprsr_md,
            inout egress_intrinsic_metadata_for_output_port_t eg_oport_md) {{
    apply {{ }}
}}
control EDep(packet_out pkt, inout headers_t hdr, in egress_intrinsic_metadata_for_deparser_t eg_dprsr_md) {{
    apply {{ pkt.emit(hdr.eth); }}
}}
Pipeline(IPrs(), Ing(), IDep(), EPrs(), Egr(), EDep()) main;
"#
        ),
        "ebpf_model" => format!(
            r#"// arch: ebpf_model
{eth}
struct headers_t {{ ethernet_t eth; }}
parser prs(packet_in pkt, out headers_t hdr) {{
    state start {{ pkt.extract(hdr.eth); transition accept; }}
}}
control pipe(inout headers_t hdr, out bool pass) {{
    action to_port(bit<9> port) {{ pass = true; }}
    action reject() {{ hdr.eth.etherType = 0xDEAD; pass = false; }}
    @name("flow")
    table flow {{
        key = {{ hdr.eth.dst: exact @name("dst"); }}
        actions = {{ to_port; reject; }}
        default_action = reject();
    }}
    apply {{ pass = false; flow.apply(); }}
}}
ebpfFilter(prs(), pipe()) main;
"#
        ),
        _ => format!(
            r#"{eth}
struct headers_t {{ ethernet_t eth; }}
struct meta_t {{ bit<8> unused; }}
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    state start {{ pkt.extract(hdr.eth); transition accept; }}
}}
control VC(inout headers_t hdr, inout meta_t meta) {{ apply {{ }} }}
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    action to_port(bit<9> port) {{ sm.egress_spec = port; }}
    action reject() {{ hdr.eth.etherType = 0xDEAD; mark_to_drop(sm); }}
    @name("flow")
    table flow {{
        key = {{ hdr.eth.dst: exact @name("dst"); }}
        actions = {{ to_port; reject; }}
        default_action = reject();
    }}
    apply {{ flow.apply(); }}
}}
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{ apply {{ }} }}
control CC(inout headers_t hdr, inout meta_t meta) {{ apply {{ }} }}
control Dep(packet_out pkt, in headers_t hdr) {{ apply {{ pkt.emit(hdr.eth); }} }}
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#
        ),
    }
}

/// Every named corpus program with its target architecture.
pub fn all_programs() -> Vec<(&'static str, String, &'static str)> {
    vec![
        ("fig1a", FIG1A.to_string(), "v1model"),
        ("fig1b", FIG1B.to_string(), "v1model"),
        ("middleblock_sim", MIDDLEBLOCK_SIM.clone(), "v1model"),
        ("up4_sim", UP4_SIM.clone(), "v1model"),
        ("switch_sim", SWITCH_SIM_TNA.clone(), "tna"),
        ("stack_prog", STACK_PROG.clone(), "v1model"),
        ("varbit_prog", VARBIT_PROG.clone(), "v1model"),
        ("switch_stmt_prog", SWITCH_STMT_PROG.clone(), "v1model"),
        ("register_prog", REGISTER_PROG.clone(), "v1model"),
        ("bmv2_quirks", BMV2_QUIRKS.clone(), "v1model"),
        ("tofino_quirks", TOFINO_QUIRKS.clone(), "tna"),
        ("parser_deep_6x4", generate_parser_deep(6, 4), "v1model"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intersection_variants_typecheck_under_their_preludes() {
        for target in INTERSECTION_TARGETS {
            let src = generate_intersection(target);
            let checked = p4t_frontend::frontend_with_prelude(&fuzz::prelude_for(target), &src);
            assert!(checked.is_ok(), "{target}: {:?}", checked.err());
        }
    }

    #[test]
    fn intersection_variants_declare_the_shared_flow_table() {
        for target in INTERSECTION_TARGETS {
            let src = generate_intersection(target);
            assert!(src.contains(r#"@name("dst")"#), "{target}");
            assert!(src.contains("table flow"), "{target}");
            assert!(src.contains("action to_port(bit<9> port)"), "{target}");
        }
    }
}
