//! Lowering tests: AST → IR on realistic programs.

use p4t_frontend::ast::Direction;
use p4t_frontend::Diagnostic;
use p4t_ir::{IrBlock, IrExpr, IrProgram, IrStmt, IrTransition, Path};

/// Compile without package roots: parameters keep their own names.
fn compile(src: &str) -> Result<IrProgram, Vec<Diagnostic>> {
    compile_with(src, &[])
}

fn compile_with(src: &str, roots: &[&[&str]]) -> Result<IrProgram, Vec<Diagnostic>> {
    p4t_ir::compile_full(src, roots).map(|(prog, _)| prog)
}

const PRELUDE: &str = r#"
struct standard_metadata_t {
    bit<9>  ingress_port;
    bit<9>  egress_spec;
    bit<16> packet_length;
    error   parser_error;
}
extern void mark_to_drop(inout standard_metadata_t sm);
extern Register<T, I> {
    Register(bit<32> size);
    T read(in I index);
    void write(in I index, in T value);
}
"#;

fn fig1a_ir() -> p4t_ir::IrProgram {
    let src = format!(
        r#"{PRELUDE}
header ethernet_t {{ bit<48> dst; bit<48> src; bit<16> etherType; }}
struct headers_t {{ ethernet_t eth; }}
struct meta_t {{ bit<9> output_port; }}
parser MyParser(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    state start {{
        pkt.extract(hdr.eth);
        transition accept;
    }}
}}
control MyIngress(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {{
    action set_out(bit<9> port) {{ meta.output_port = port; }}
    action noop() {{ }}
    table forward_table {{
        key = {{ hdr.eth.etherType: exact @name("type"); }}
        actions = {{ noop; set_out; }}
        default_action = noop();
    }}
    apply {{
        hdr.eth.etherType = 0xBEEF;
        forward_table.apply();
    }}
}}
control MyDeparser(packet_out pkt, in headers_t hdr) {{
    apply {{ pkt.emit(hdr.eth); }}
}}
V1Switch(MyParser(), MyIngress(), MyDeparser()) main;
"#
    );
    compile(&src).expect("fig1a should lower")
}

#[test]
fn lower_fig1a_structure() {
    let ir = fig1a_ir();
    assert_eq!(ir.package, "V1Switch");
    assert_eq!(ir.package_args, vec!["MyParser", "MyIngress", "MyDeparser"]);
    let p = ir.parser("MyParser").expect("parser block");
    let start = &p.states["start"];
    assert!(matches!(
        &start.stmts[0],
        IrStmt::Extract { header, .. } if header.as_str() == "hdr.eth"
    ));
    assert!(matches!(&start.transition, IrTransition::Direct(s) if s == "accept"));
    let c = ir.control("MyIngress").expect("control block");
    let t = &c.tables["forward_table"];
    assert_eq!(t.keys[0].name, "type");
    assert_eq!(t.keys[0].match_kind, "exact");
    assert_eq!(t.default_action, "noop");
    assert_eq!(t.control_plane_name, "MyIngress.forward_table");
    // Apply: assign then table apply.
    assert!(matches!(
        &c.apply[0],
        IrStmt::Assign { target, value: IrExpr::Const { value: 0xBEEF, width: 16 }, .. }
            if target.as_str() == "hdr.eth.etherType"
    ));
    assert!(matches!(&c.apply[1], IrStmt::ApplyTable { table, .. } if table == "forward_table"));
    // Statement table is non-empty and covers all blocks.
    assert!(ir.num_statements() >= 4);
}

#[test]
fn action_params_are_mangled() {
    let ir = fig1a_ir();
    let c = ir.control("MyIngress").unwrap();
    let a = &c.actions["set_out"];
    assert_eq!(a.params, vec![("port".to_string(), 9)]);
    assert!(matches!(
        &a.body[0],
        IrStmt::Assign { target, value: IrExpr::Read { path, .. }, .. }
            if target.as_str() == "meta.output_port"
                && path.as_str() == "MyIngress::set_out::port"
    ));
}

#[test]
fn stack_next_extract_elaborates_to_chain() {
    let src = format!(
        r#"{PRELUDE}
header vlan_t {{ bit<16> tci; bit<16> etherType; }}
struct headers_t {{ vlan_t[2] vlans; }}
struct meta_t {{ bit<8> x; }}
parser P(packet_in pkt, out headers_t hdr, inout meta_t m, inout standard_metadata_t sm) {{
    state start {{
        pkt.extract(hdr.vlans.next);
        transition select(hdr.vlans.last.etherType) {{
            0x8100: start;
            default: accept;
        }}
    }}
}}
"#
    );
    let ir = compile(&src).expect("stack program lowers");
    let p = ir.parser("P").unwrap();
    let start = &p.states["start"];
    // The extract became an If chain on hdr.vlans.$next.
    let IrStmt::If { cond, then_s, else_s, .. } = &start.stmts[0] else {
        panic!("expected elaborated If, got {:?}", start.stmts[0]);
    };
    assert!(matches!(
        cond,
        IrExpr::Binary { lhs, .. }
            if matches!(lhs.as_ref(), IrExpr::Read { path, .. } if path.as_str() == "hdr.vlans.$next")
    ));
    assert!(matches!(&then_s[0], IrStmt::Extract { header, .. } if header.as_str() == "hdr.vlans[0]"));
    // Inner chain ends with a parser error call.
    let IrStmt::If { else_s: inner_else, .. } = &else_s[0] else {
        panic!("expected nested If");
    };
    assert!(matches!(
        &inner_else[0],
        IrStmt::ExternCall { name, .. } if name == "$parser_error"
    ));
}

#[test]
fn slice_assignment_becomes_rmw() {
    let src = format!(
        r#"{PRELUDE}
struct headers_t {{ bit<8> d; }}
struct meta_t {{ bit<16> x; }}
control C(inout headers_t hdr, inout meta_t m, inout standard_metadata_t sm) {{
    apply {{ m.x[11:4] = 8w0xAB; }}
}}
"#
    );
    let ir = compile(&src).expect("slice program lowers");
    let c = ir.control("C").unwrap();
    let IrStmt::Assign { target, width, value, .. } = &c.apply[0] else {
        panic!("expected assign");
    };
    let _ = value;
    assert_eq!(target.as_str(), "m.x");
    assert_eq!(*width, 16);
}

#[test]
fn register_read_is_hoisted() {
    let src = format!(
        r#"{PRELUDE}
struct headers_t {{ bit<8> d; }}
struct meta_t {{ bit<32> v; }}
control C(inout headers_t hdr, inout meta_t m, inout standard_metadata_t sm) {{
    Register<bit<32>, bit<8>>(256) reg;
    apply {{ m.v = reg.read(8w3) + 1; }}
}}
"#
    );
    let ir = compile(&src).expect("register program lowers");
    let c = ir.control("C").unwrap();
    assert_eq!(c.instances.len(), 1);
    assert_eq!(c.instances[0].extern_type, "Register");
    assert_eq!(c.instances[0].type_widths, vec![32, 8]);
    assert_eq!(c.instances[0].ctor_args, vec![256]);
    // First an ExternCall writing a temp, then the assign reading it.
    assert!(matches!(&c.apply[0], IrStmt::ExternCall { name, .. } if name == "read"));
    assert!(matches!(&c.apply[1], IrStmt::Assign { .. }));
}

#[test]
fn constant_folding_eliminates_dead_branch() {
    let src = format!(
        r#"{PRELUDE}
struct headers_t {{ bit<8> d; }}
struct meta_t {{ bit<8> x; }}
control C(inout headers_t hdr, inout meta_t m, inout standard_metadata_t sm) {{
    apply {{
        if (8w1 + 8w1 == 8w2) {{
            m.x = 1;
        }} else {{
            m.x = 2;
        }}
    }}
}}
"#
    );
    let ir = compile(&src).expect("folding program lowers");
    let c = ir.control("C").unwrap();
    // The If folded away, leaving only the taken assign.
    assert_eq!(c.apply.len(), 1);
    assert!(matches!(
        &c.apply[0],
        IrStmt::Assign { value: IrExpr::Const { value: 1, .. }, .. }
    ));
    // And the statement table no longer mentions the dead assign.
    let descs: Vec<&str> = ir.statements.iter().map(|s| s.describe.as_str()).collect();
    assert!(!descs.contains(&"if"));
}

#[test]
fn header_copy_expands_fieldwise() {
    let src = format!(
        r#"{PRELUDE}
header h_t {{ bit<8> a; bit<8> b; }}
struct headers_t {{ h_t x; h_t y; }}
struct meta_t {{ bit<8> z; }}
control C(inout headers_t hdr, inout meta_t m, inout standard_metadata_t sm) {{
    apply {{ hdr.x = hdr.y; }}
}}
"#
    );
    let ir = compile(&src).expect("copy program lowers");
    let c = ir.control("C").unwrap();
    // Two field copies plus the validity copy.
    assert_eq!(c.apply.len(), 3);
    let targets: Vec<&str> = c
        .apply
        .iter()
        .filter_map(|s| match s {
            IrStmt::Assign { target, .. } => Some(target.as_str()),
            _ => None,
        })
        .collect();
    assert!(targets.contains(&"hdr.x.a"));
    assert!(targets.contains(&"hdr.x.b"));
    assert!(targets.contains(&"hdr.x.$valid"));
}

#[test]
fn path_helpers() {
    let p = Path::new("hdr.eth");
    assert_eq!(p.child("dst").as_str(), "hdr.eth.dst");
}

/// The v1model package roots, in V1Switch argument order.
const V1_ROOTS: &[&[&str]] = &[
    &["hdr", "meta", "sm"],
    &["hdr", "meta"],
    &["hdr", "meta", "sm"],
    &["hdr", "meta", "sm"],
    &["hdr", "meta"],
    &["hdr"],
];

/// A V1Switch program whose parser and ingress name their parameters
/// against the roots: `meta` is the headers, `hdr` the user metadata.
fn swapped_v1(extra: &str, main: &str) -> String {
    format!(
        r#"{PRELUDE}
header ethernet_t {{ bit<48> dst; bit<48> src; bit<16> etherType; }}
struct headers_t {{ ethernet_t eth; }}
struct meta_t {{ bit<16> seen; }}
parser P(packet_in pkt, out headers_t meta, inout meta_t hdr, inout standard_metadata_t std) {{
    state start {{ pkt.extract(meta.eth); hdr.seen = meta.eth.etherType; transition accept; }}
}}
control Ck(inout headers_t h, inout meta_t m) {{ apply {{ }} }}
control Ing(inout headers_t meta, inout meta_t hdr, inout standard_metadata_t std) {{
    apply {{ std.egress_spec = 1; }}
}}
control Dep(packet_out pkt, in headers_t h) {{ apply {{ pkt.emit(h.eth); }} }}
{extra}
V1Switch({main}) main;
"#
    )
}

fn params(ir: &IrProgram, block: &str) -> Vec<(String, Option<String>)> {
    let params = match &ir.blocks[block] {
        IrBlock::Parser(p) => &p.params,
        IrBlock::Control(c) => &c.params,
    };
    params.iter().map(|p| (p.name.clone(), p.root.clone())).collect()
}

#[test]
fn swapped_parameter_names_lower_to_their_roots() {
    let src = swapped_v1("", "P(), Ck(), Ing(), Ing(), Ck(), Dep()");
    let ir = compile_with(&src, V1_ROOTS).expect("swapped program lowers");
    let start = &ir.parser("P").unwrap().states["start"];
    assert!(matches!(
        &start.stmts[0],
        IrStmt::Extract { header, .. } if header.as_str() == "hdr.eth"
    ));
    assert!(matches!(
        &start.stmts[1],
        IrStmt::Assign { target, value: IrExpr::Read { path, .. }, .. }
            if target.as_str() == "meta.seen" && path.as_str() == "hdr.eth.etherType"
    ));
    let ing = ir.control("Ing").unwrap();
    assert!(matches!(
        &ing.apply[0],
        IrStmt::Assign { target, .. } if target.as_str() == "sm.egress_spec"
    ));
    let dep = ir.control("Dep").unwrap();
    assert!(matches!(&dep.apply[0], IrStmt::Emit { header, .. } if header.as_str() == "hdr.eth"));
}

#[test]
fn out_parameter_records_its_root() {
    let src = swapped_v1("", "P(), Ck(), Ing(), Ing(), Ck(), Dep()");
    let ir = compile_with(&src, V1_ROOTS).unwrap();
    let p = &ir.parser("P").unwrap().params;
    assert_eq!(p[1].name, "meta");
    assert_eq!(p[1].direction, Direction::Out);
    assert_eq!(p[1].root.as_deref(), Some("hdr"));
    assert_eq!(
        params(&ir, "P"),
        vec![
            ("pkt".to_string(), None),
            ("meta".to_string(), Some("hdr".to_string())),
            ("hdr".to_string(), Some("meta".to_string())),
            ("std".to_string(), Some("sm".to_string())),
        ]
    );
}

#[test]
fn a_block_at_two_positions_needs_equal_roots() {
    // v1model: one control as both verify and compute checksum, and one
    // as both ingress and egress, binds the same roots at each position.
    let src = swapped_v1("", "P(), Ck(), Ing(), Ing(), Ck(), Dep()");
    let ir = compile_with(&src, V1_ROOTS).expect("equal roots are accepted");
    assert_eq!(
        params(&ir, "Ck"),
        vec![("h".to_string(), Some("hdr".to_string())), ("m".to_string(), Some("meta".to_string()))]
    );
    // The same control as ingress (`sm` third) and as a block whose third
    // root differs is rejected.
    let roots: &[&[&str]] = &[
        &["hdr", "meta", "sm"],
        &["hdr", "meta"],
        &["hdr", "meta", "sm"],
        &["hdr", "meta", "eg_md"],
        &["hdr", "meta"],
        &["hdr"],
    ];
    let err = compile_with(&src, roots).expect_err("conflicting roots are rejected");
    assert!(
        err[0].message.contains("'Ing'") && err[0].message.contains("different roots"),
        "{:?}",
        err[0].message
    );
}

#[test]
fn a_block_outside_the_package_keeps_its_own_names() {
    let extra = "control Spare(inout headers_t h) { apply { h.eth.etherType = 7; } }";
    let src = swapped_v1(extra, "P(), Ck(), Ing(), Ing(), Ck(), Dep()");
    let ir = compile_with(&src, V1_ROOTS).unwrap();
    assert_eq!(params(&ir, "Spare"), vec![("h".to_string(), None)]);
    assert!(matches!(
        &ir.control("Spare").unwrap().apply[0],
        IrStmt::Assign { target, .. } if target.as_str() == "h.eth.etherType"
    ));
}
