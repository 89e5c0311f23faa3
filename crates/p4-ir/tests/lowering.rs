//! Lowering tests: AST → IR on realistic programs.

use p4t_frontend::ast::Direction;
use p4t_frontend::Diagnostic;
use p4t_ir::{
    ActionId, BlockId, HeaderId, IrBlock, IrControl, IrExpr, IrKeyset, IrNext, IrParser, IrProgram,
    IrState, IrStmt, IrTransition, Path, StateId, TableId,
};

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

/// The id of the block named `name`.
fn block_id(ir: &IrProgram, name: &str) -> BlockId {
    let i = ir.blocks.iter().position(|b| b.name() == name);
    BlockId(i.unwrap_or_else(|| panic!("no block '{name}'")) as u32)
}

fn parser<'a>(ir: &'a IrProgram, name: &str) -> &'a IrParser {
    match ir.block(block_id(ir, name)) {
        IrBlock::Parser(p) => p,
        IrBlock::Control(_) => panic!("'{name}' is a control"),
    }
}

fn control<'a>(ir: &'a IrProgram, name: &str) -> &'a IrControl {
    match ir.block(block_id(ir, name)) {
        IrBlock::Control(c) => c,
        IrBlock::Parser(_) => panic!("'{name}' is a parser"),
    }
}

/// The start state of the parser named `name`.
fn start<'a>(ir: &'a IrProgram, name: &str) -> &'a IrState {
    ir.state(parser(ir, name).start)
}

/// The storage path of an interned header instance.
fn header_path(ir: &IrProgram, id: HeaderId) -> &str {
    ir.header(id).path.as_str()
}

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
    let args: Vec<&str> = ir.package_args.iter().map(|&b| ir.block(b).name()).collect();
    assert_eq!(args, vec!["MyParser", "MyIngress", "MyDeparser"]);
    let start = start(&ir, "MyParser");
    assert!(matches!(
        &start.stmts[0],
        IrStmt::Extract { header, .. } if header_path(&ir, *header) == "hdr.eth"
    ));
    assert!(matches!(&start.transition, IrTransition::Direct(IrNext::Accept)));
    let c = control(&ir, "MyIngress");
    let t = &ir.tables[0];
    assert_eq!(t.name, "forward_table");
    assert_eq!(&*t.keys[0].name, "type");
    assert_eq!(&*t.keys[0].match_kind, "exact");
    assert_eq!(ir.action(t.default_action).name, "noop");
    assert_eq!(&*t.control_plane_name, "MyIngress.forward_table");
    assert_eq!(t.hit.as_str(), "forward_table.$hit");
    assert_eq!(t.applied.as_str(), "forward_table.$applied");
    // Apply: assign then table apply.
    assert!(matches!(
        &c.apply[0],
        IrStmt::Assign { target, value: IrExpr::Const { value: 0xBEEF, width: 16 }, .. }
            if target.as_str() == "hdr.eth.etherType"
    ));
    assert!(matches!(&c.apply[1], IrStmt::ApplyTable { table: TableId(0), .. }));
    // Statement table is non-empty and covers all blocks.
    assert!(ir.num_statements() >= 4);
}

#[test]
fn action_params_are_mangled() {
    let ir = fig1a_ir();
    let a = &ir.actions[0];
    assert_eq!((a.name.as_str(), &*a.control_plane_name), ("set_out", "MyIngress.set_out"));
    assert_eq!(a.params.len(), 1);
    assert_eq!((&*a.params[0].name, a.params[0].width), ("port", 9));
    assert_eq!(a.params[0].path.as_str(), "MyIngress::set_out::port");
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
    let start = start(&ir, "P");
    // The extract became an If chain on hdr.vlans.$next.
    let IrStmt::If { cond, then_s, else_s, .. } = &start.stmts[0] else {
        panic!("expected elaborated If, got {:?}", start.stmts[0]);
    };
    assert!(matches!(
        cond,
        IrExpr::Binary { lhs, .. }
            if matches!(lhs.as_ref(), IrExpr::Read { path, .. } if path.as_str() == "hdr.vlans.$next")
    ));
    let IrStmt::Extract { header, .. } = &then_s[0] else {
        panic!("expected extract, got {:?}", then_s[0]);
    };
    // The elaborated extract names the stack's first element.
    assert_eq!(header_path(&ir, *header), "hdr.vlans[0]");
    assert_eq!(ir.stacks.len(), 1);
    assert_eq!(ir.stacks[0].elements[0], *header);
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
    let c = control(&ir, "C");
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
    let c = control(&ir, "C");
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
    let c = control(&ir, "C");
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
header h_t {{ bit<8> a; bit<8> b; varbit<16> v; }}
struct headers_t {{ h_t x; h_t y; }}
struct meta_t {{ bit<8> z; }}
control C(inout headers_t hdr, inout meta_t m, inout standard_metadata_t sm) {{
    apply {{ hdr.x = hdr.y; }}
}}
"#
    );
    let ir = compile(&src).expect("copy program lowers");
    let c = control(&ir, "C");
    // The field copies (a varbit's length travels with it), then validity.
    let copies: Vec<(&str, &str, u32)> = c
        .apply
        .iter()
        .filter_map(|s| match s {
            IrStmt::Assign { target, value: IrExpr::Read { path, width }, .. } => {
                Some((target.as_str(), path.as_str(), *width))
            }
            _ => None,
        })
        .collect();
    assert_eq!(c.apply.len(), copies.len());
    assert_eq!(
        copies,
        vec![
            ("hdr.x.a", "hdr.y.a", 8),
            ("hdr.x.b", "hdr.y.b", 8),
            ("hdr.x.v", "hdr.y.v", 16),
            ("hdr.x.v.$len", "hdr.y.v.$len", 32),
            ("hdr.x.$valid", "hdr.y.$valid", 1),
        ]
    );
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
    let params = match ir.block(block_id(ir, block)) {
        IrBlock::Parser(p) => &p.params,
        IrBlock::Control(c) => &c.params,
    };
    params.iter().map(|p| (p.name.clone(), p.root.clone())).collect()
}

#[test]
fn swapped_parameter_names_lower_to_their_roots() {
    let src = swapped_v1("", "P(), Ck(), Ing(), Ing(), Ck(), Dep()");
    let ir = compile_with(&src, V1_ROOTS).expect("swapped program lowers");
    let start = start(&ir, "P");
    assert!(matches!(
        &start.stmts[0],
        IrStmt::Extract { header, .. } if header_path(&ir, *header) == "hdr.eth"
    ));
    assert!(matches!(
        &start.stmts[1],
        IrStmt::Assign { target, value: IrExpr::Read { path, .. }, .. }
            if target.as_str() == "meta.seen" && path.as_str() == "hdr.eth.etherType"
    ));
    let ing = control(&ir, "Ing");
    assert!(matches!(
        &ing.apply[0],
        IrStmt::Assign { target, .. } if target.as_str() == "sm.egress_spec"
    ));
    let dep = control(&ir, "Dep");
    assert!(matches!(
        &dep.apply[0],
        IrStmt::Emit { header, .. } if header_path(&ir, *header) == "hdr.eth"
    ));
}

#[test]
fn out_parameter_records_its_root() {
    let src = swapped_v1("", "P(), Ck(), Ing(), Ing(), Ck(), Dep()");
    let ir = compile_with(&src, V1_ROOTS).unwrap();
    let p = &parser(&ir, "P").params;
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
        &control(&ir, "Spare").apply[0],
        IrStmt::Assign { target, .. } if target.as_str() == "h.eth.etherType"
    ));
}

/// The ebpf_model package roots: `ebpfFilter(parser, filter)`.
const EBPF_ROOTS: &[&[&str]] = &[&["hdr"], &["hdr", "accept"]];

/// One program pins every layout lowering resolves: field order and
/// widths, a varbit field's `$len`, nested struct headers, a stack, and
/// the ebpf filter's implicit deparse list.
#[test]
fn lowering_resolves_header_layouts() {
    let src = r#"
header eth_t { bit<48> dst; bit<48> src; bit<16> etherType; }
header vlan_t { bit<3> pcp; bit<13> vid; bit<16> etherType; }
header opt_t { bit<8> kind; varbit<40> data; }
struct inner_t { vlan_t a; vlan_t b; }
struct headers_t { eth_t eth; vlan_t[3] vlans; inner_t inner; opt_t opt; }
parser prs(packet_in pkt, out headers_t hdr) {
    state start {
        pkt.extract(hdr.eth);
        pkt.extract(hdr.opt, 16);
        transition accept;
    }
}
control pipe(inout headers_t hdr, out bool pass) {
    apply { hdr.vlans.push_front(1); pass = true; }
}
ebpfFilter(prs(), pipe()) main;
"#;
    let ir = compile_with(src, EBPF_ROOTS).expect("layout program lowers");
    let start = start(&ir, "prs");
    let fields = |id: HeaderId| -> Vec<(&str, u32, Option<&str>)> {
        ir.header(id)
            .fields
            .iter()
            .map(|f| (f.path.as_str(), f.width, f.varbit_len.as_ref().map(Path::as_str)))
            .collect()
    };

    // Field order and widths.
    let IrStmt::Extract { header: eth, .. } = &start.stmts[0] else {
        panic!("expected extract, got {:?}", start.stmts[0]);
    };
    assert_eq!(ir.header(*eth).valid.as_str(), "hdr.eth.$valid");
    assert_eq!(
        fields(*eth),
        vec![("hdr.eth.dst", 48, None), ("hdr.eth.src", 48, None), ("hdr.eth.etherType", 16, None)]
    );

    // A varbit field carries its maximum width and its `$len` slot.
    let IrStmt::Extract { header: opt, .. } = &start.stmts[1] else {
        panic!("expected extract, got {:?}", start.stmts[1]);
    };
    assert_eq!(
        fields(*opt),
        vec![("hdr.opt.kind", 8, None), ("hdr.opt.data", 40, Some("hdr.opt.data.$len"))]
    );
    let slots: Vec<&str> = ir.header(*opt).slots().map(Path::as_str).collect();
    assert_eq!(slots, vec!["hdr.opt.$valid", "hdr.opt.kind", "hdr.opt.data", "hdr.opt.data.$len"]);

    // The parser's `hdr` parameter lists the headers outside stacks in
    // declaration order, nested struct members included, and its stack.
    let hdr = ir.bound_param(block_id(&ir, "prs"), "hdr").expect("parser binds hdr");
    let headers: Vec<&str> = hdr.headers.iter().map(|&h| header_path(&ir, h)).collect();
    assert_eq!(headers, vec!["hdr.eth", "hdr.inner.a", "hdr.inner.b", "hdr.opt"]);
    assert_eq!(hdr.stacks.len(), 1);

    // The stack's declared size and `$next` slot; `push_front` names it.
    let stack = ir.stack(hdr.stacks[0]);
    assert_eq!(stack.path.as_str(), "hdr.vlans");
    assert_eq!(stack.next.as_str(), "hdr.vlans.$next");
    let elements: Vec<&str> = stack.elements.iter().map(|&h| header_path(&ir, h)).collect();
    assert_eq!(elements, vec!["hdr.vlans[0]", "hdr.vlans[1]", "hdr.vlans[2]"]);
    assert!(matches!(
        &control(&ir, "pipe").apply[0],
        IrStmt::StackOp { stack, push: true, count: 1, .. } if *stack == hdr.stacks[0]
    ));

    // The filter's implicit deparse list is the parser's `hdr` headers,
    // and the filter control sees the same interned instances.
    let filter_hdr = ir.bound_param(block_id(&ir, "pipe"), "hdr").expect("filter binds hdr");
    assert_eq!(filter_hdr.headers, hdr.headers);
    assert_eq!(filter_hdr.stacks, hdr.stacks);
    assert_eq!(ir.headers.len(), 7, "each instance is interned once");
}

/// Layouts are interned per path *and* type: the parser and the filter bind
/// `hdr` to different header structs, and two actions declare same-named
/// locals of different header types.
#[test]
fn one_path_with_two_types_gets_two_layouts() {
    let src = r#"
header a_t { bit<8> v; }
header b_t { bit<16> v; bit<8> w; }
struct ha_t { a_t tag; a_t[2] s; }
struct hb_t { b_t tag; a_t[4] s; }
parser prs(packet_in pkt, out ha_t hdr) {
    state start { pkt.extract(hdr.tag); pkt.extract(hdr.s.next); transition accept; }
}
control pipe(inout hb_t hdr, out bool pass) {
    action one() { a_t tmp; tmp.setValid(); }
    action two() { b_t tmp; tmp.setValid(); }
    table t { key = { hdr.tag.v: exact; } actions = { one; two; } default_action = one(); }
    apply { t.apply(); hdr.s.push_front(1); pass = true; }
}
ebpfFilter(prs(), pipe()) main;
"#;
    let ir = compile_with(src, EBPF_ROOTS).expect("program lowers");
    let widths = |id: HeaderId| -> Vec<(&str, u32)> {
        ir.header(id).fields.iter().map(|f| (f.path.as_str(), f.width)).collect()
    };
    let parser = ir.bound_param(block_id(&ir, "prs"), "hdr").expect("parser binds hdr");
    let filter = ir.bound_param(block_id(&ir, "pipe"), "hdr").expect("filter binds hdr");
    assert_eq!(widths(parser.headers[0]), vec![("hdr.tag.v", 8)]);
    assert_eq!(widths(filter.headers[0]), vec![("hdr.tag.v", 16), ("hdr.tag.w", 8)]);

    // Each side's stack has its own declared size; the parser's `.next`
    // extract is elaborated over two elements, the filter's push over four.
    let sizes = |p: &p4t_ir::IrParam| ir.stack(p.stacks[0]).elements.len();
    assert_eq!((sizes(parser), sizes(filter)), (2, 4));
    let start = start(&ir, "prs");
    let chain = format!("{:?}", start.stmts);
    assert!(!chain.contains("hdr.s[2]"), "the parser's stack has two elements");

    let locals: Vec<Vec<(&str, u32)>> = ir
        .headers
        .iter()
        .enumerate()
        .filter(|(_, h)| h.path.as_str() == "pipe::tmp")
        .map(|(i, _)| widths(HeaderId(i as u32)))
        .collect();
    assert_eq!(
        locals,
        vec![vec![("pipe::tmp.v", 8)], vec![("pipe::tmp.v", 16), ("pipe::tmp.w", 8)]]
    );
}

/// The id of the action whose control-plane name is `name`.
fn action_id(ir: &IrProgram, name: &str) -> ActionId {
    let i = ir.actions.iter().position(|a| *a.control_plane_name == *name);
    ActionId(i.unwrap_or_else(|| panic!("no action {name}")) as u32)
}

/// Two controls declare an action `mark` and a table `t`: every call,
/// apply, switch label and table action list resolves within its own
/// control, and ids follow declaration order.
#[test]
fn same_named_actions_and_tables_resolve_within_their_control() {
    let src = format!(
        r#"{PRELUDE}
header h_t {{ bit<8> a; bit<16> b; }}
struct headers_t {{ h_t h; }}
struct meta_t {{ bit<8> x; }}
control A(inout headers_t hdr, inout meta_t m, inout standard_metadata_t sm) {{
    action mark(bit<9> p) {{ sm.egress_spec = p; }}
    table t {{ key = {{ hdr.h.a: exact; }} actions = {{ mark; }} default_action = mark(9w1); }}
    apply {{
        switch (t.apply().action_run) {{ mark: {{ m.x = 1; }} }}
        mark(9w2);
    }}
}}
control B(inout headers_t hdr, inout meta_t m, inout standard_metadata_t sm) {{
    action mark(bit<16> v) {{ hdr.h.b = v; }}
    table t {{ key = {{ hdr.h.b: exact; }} actions = {{ mark; NoAction; }} }}
    apply {{
        if (t.apply().hit) {{ mark(16w3); }}
    }}
}}
"#
    );
    let ir = compile(&src).expect("program lowers");
    let names: Vec<&str> = ir.actions.iter().map(|a| &*a.control_plane_name).collect();
    assert_eq!(names, ["A.mark", "A.NoAction", "B.mark", "B.NoAction"]);
    let (a_mark, b_mark) = (action_id(&ir, "A.mark"), action_id(&ir, "B.mark"));
    assert_eq!(ir.action(b_mark).params[0].path.as_str(), "B::mark::v");

    let (ta, tb) = (&ir.tables[0], &ir.tables[1]);
    assert_eq!((&*ta.control_plane_name, &*tb.control_plane_name), ("A.t", "B.t"));
    assert_eq!(ta.actions[0].action, a_mark);
    assert_eq!(ta.default_action, a_mark);
    assert_eq!(tb.actions.iter().map(|r| r.action).collect::<Vec<_>>(), [b_mark, ActionId(3)]);
    assert_eq!(tb.default_action, action_id(&ir, "B.NoAction"));

    let a = &control(&ir, "A").apply;
    assert!(matches!(
        &a[0],
        IrStmt::SwitchActionRun { table: TableId(0), cases, .. } if cases[0].0 == Some(a_mark)
    ));
    assert!(matches!(&a[1], IrStmt::CallAction { action, .. } if *action == a_mark));
    let b = &control(&ir, "B").apply;
    assert!(matches!(&b[0], IrStmt::ApplyTable { table: TableId(1), .. }));
    let IrStmt::If { cond: IrExpr::Read { path, .. }, then_s, .. } = &b[1] else {
        panic!("B's apply: {b:?}");
    };
    assert_eq!(path, &tb.hit);
    assert!(matches!(&then_s[0], IrStmt::CallAction { action, .. } if *action == b_mark));
}

/// Const entries are stored in match order: highest `@priority` first, and
/// equal priorities (entries without one count as 0) in source order.
#[test]
fn const_entries_are_stored_in_match_order() {
    let src = format!(
        r#"{PRELUDE}
header h_t {{ bit<8> a; }}
struct headers_t {{ h_t h; }}
struct meta_t {{ bit<8> x; }}
control C(inout headers_t hdr, inout meta_t m, inout standard_metadata_t sm) {{
    action set(bit<8> v) {{ m.x = v; }}
    table t {{
        key = {{ hdr.h.a: exact; }}
        actions = {{ set; }}
        const entries = {{
            1: set(8w1);
            @priority(1) 2: set(8w2);
            @priority(5) 3: set(8w3);
            @priority(1) 4: set(8w4);
            5: set(8w5);
        }}
    }}
    apply {{ t.apply(); }}
}}
"#
    );
    let ir = compile(&src).expect("program lowers");
    let order: Vec<(Option<u32>, Option<u128>)> = ir.tables[0]
        .const_entries
        .iter()
        .map(|e| (e.priority, e.args[0].as_const()))
        .collect();
    let expected = [(Some(5), 3), (Some(1), 2), (Some(1), 4), (None, 1), (None, 5)];
    assert_eq!(order, expected.map(|(p, v)| (p, Some(v))));
}

/// Transitions name states by id, resolved within their own parser, and
/// package arguments name blocks by id in instantiation order, whatever the
/// declaration order.
#[test]
fn transitions_and_package_args_resolve_to_ids() {
    let src = format!(
        r#"{PRELUDE}
header h_t {{ bit<8> v; }}
struct headers_t {{ h_t a; h_t b; }}
struct meta_t {{ bit<8> x; }}
control Dep(packet_out pkt, in headers_t hdr) {{ apply {{ pkt.emit(hdr.a); }} }}
parser P1(packet_in pkt, out headers_t hdr, inout meta_t m, inout standard_metadata_t sm) {{
    state start {{
        pkt.extract(hdr.a);
        transition select(hdr.a.v) {{ 1: next; 2: reject; default: accept; }}
    }}
    state next {{ transition start; }}
}}
parser P2(packet_in pkt, out headers_t hdr, inout meta_t m, inout standard_metadata_t sm) {{
    state next {{ pkt.extract(hdr.b); transition accept; }}
    state start {{ transition next; }}
}}
control Ing(inout headers_t hdr, inout meta_t m, inout standard_metadata_t sm) {{ apply {{ }} }}
V1Switch(P2(), Ing(), Dep()) main;
"#
    );
    let ir = compile(&src).expect("program lowers");
    let names: Vec<&str> = ir.blocks.iter().map(IrBlock::name).collect();
    assert_eq!(names, ["Dep", "P1", "P2", "Ing"]);
    assert_eq!(ir.package_args, [BlockId(2), BlockId(3), BlockId(0)]);

    // Each parser's states in declaration order, parsers in order.
    let states: Vec<(&str, BlockId)> =
        ir.states.iter().map(|s| (s.name.as_str(), s.parser)).collect();
    assert_eq!(
        states,
        [("start", BlockId(1)), ("next", BlockId(1)), ("next", BlockId(2)), ("start", BlockId(2))]
    );
    assert_eq!((parser(&ir, "P1").start, parser(&ir, "P2").start), (StateId(0), StateId(3)));

    let IrTransition::Select { cases, .. } = &start(&ir, "P1").transition else {
        panic!("P1.start selects: {:?}", start(&ir, "P1").transition);
    };
    let targets: Vec<IrNext> = cases.iter().map(|c| c.next_state).collect();
    assert_eq!(targets, [IrNext::State(StateId(1)), IrNext::Reject, IrNext::Accept]);
    assert!(matches!(cases[2].keysets[..], [IrKeyset::Dontcare]));
    assert_eq!(ir.state(StateId(1)).transition, IrTransition::Direct(IrNext::State(StateId(0))));
    // P2's `next` is its own, not P1's.
    assert_eq!(start(&ir, "P2").transition, IrTransition::Direct(IrNext::State(StateId(2))));
    assert_eq!(ir.state(StateId(2)).transition, IrTransition::Direct(IrNext::Accept));
    assert_eq!(ir.next_name(IrNext::State(StateId(2))), "next");
    assert_eq!(ir.next_name(IrNext::Reject), "reject");
}

/// A package argument that names no parser or control is a lowering error
/// at the argument.
#[test]
fn package_argument_naming_no_block_is_rejected() {
    let src = swapped_v1("", "P(), Ck(), Ghost(), Ing(), Ck(), Dep()");
    let errs = compile_with(&src, V1_ROOTS).expect_err("Ghost is not declared");
    assert_eq!(errs.len(), 1, "{errs:?}");
    assert_eq!(errs[0].code, "T0001");
    assert!(errs[0].message.contains("'Ghost'"), "{}", errs[0].message);
    let line = src.lines().position(|l| l.starts_with("V1Switch(")).expect("main") as u32 + 1;
    assert_eq!(errs[0].span.start.line, line);
}
