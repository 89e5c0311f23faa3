//! Additional midend-pass and IR-utility tests.

use p4t_frontend::Diagnostic;
use p4t_ir::{fold_expr, IrBinOp, IrBlock, IrExpr, IrProgram, IrStmt, Path};

/// Compile without package roots: parameters keep their own names.
fn compile(src: &str) -> Result<IrProgram, Vec<Diagnostic>> {
    p4t_ir::compile_full(src, &[]).map(|(prog, _)| prog)
}

const PRELUDE: &str = r#"
struct standard_metadata_t { bit<9> egress_spec; }
extern void mark_to_drop(inout standard_metadata_t sm);
"#;

#[test]
fn statement_table_excludes_dead_code() {
    let src = format!(
        r#"{PRELUDE}
header h_t {{ bit<8> v; }}
struct headers_t {{ h_t h; }}
struct meta_t {{ bit<8> x; }}
control C(inout headers_t hdr, inout meta_t m, inout standard_metadata_t sm) {{
    apply {{
        if (1 == 2) {{
            m.x = 1; // dead
            m.x = 2; // dead
            m.x = 3; // dead
        }} else {{
            m.x = 4;
        }}
    }}
}}
"#
    );
    let ir = compile(&src).unwrap();
    // The statement table counts only the surviving assign (plus nothing
    // else: the If folded away entirely).
    let c = ir.blocks.iter().find_map(|b| match b {
        IrBlock::Control(c) if c.name == "C" => Some(c),
        _ => None,
    });
    let c = c.unwrap();
    assert_eq!(c.apply.len(), 1);
    let descs: Vec<&str> = ir.statements.iter().map(|s| s.describe.as_str()).collect();
    assert_eq!(descs.iter().filter(|d| d.starts_with("assign")).count(), 1, "{descs:?}");
}

#[test]
fn return_truncates_following_statements() {
    let src = format!(
        r#"{PRELUDE}
header h_t {{ bit<8> v; }}
struct headers_t {{ h_t h; }}
struct meta_t {{ bit<8> x; }}
control C(inout headers_t hdr, inout meta_t m, inout standard_metadata_t sm) {{
    action a() {{
        m.x = 1;
        return;
        m.x = 2;
    }}
    apply {{ a(); }}
}}
"#
    );
    let ir = compile(&src).unwrap();
    let body = &ir.actions[0].body;
    assert_eq!(&*ir.actions[0].control_plane_name, "C.a");
    // assign, return — the unreachable assign is gone.
    assert_eq!(body.len(), 2, "{body:?}");
    assert!(matches!(body[1], IrStmt::Return { .. }));
}

#[test]
fn fold_nested_expression_tree() {
    // ((5 + 3) * 2) >> 1 == 8
    let five = IrExpr::Const { width: 8, value: 5 };
    let three = IrExpr::Const { width: 8, value: 3 };
    let two = IrExpr::Const { width: 8, value: 2 };
    let one = IrExpr::Const { width: 8, value: 1 };
    let sum = IrExpr::Binary { op: IrBinOp::Add, lhs: Box::new(five), rhs: Box::new(three), width: 8 };
    let prod = IrExpr::Binary { op: IrBinOp::Mul, lhs: Box::new(sum), rhs: Box::new(two), width: 8 };
    let shifted = IrExpr::Binary { op: IrBinOp::Shr, lhs: Box::new(prod), rhs: Box::new(one), width: 8 };
    assert_eq!(fold_expr(shifted).as_const(), Some(8));
}

#[test]
fn fold_preserves_symbolic_parts() {
    let read = IrExpr::Read { path: Path::new("x"), width: 8 };
    let zero = IrExpr::Const { width: 8, value: 0 };
    // x | 0 stays symbolic (no identity folding at IR level beyond and/mul).
    let ored = IrExpr::Binary {
        op: IrBinOp::Or,
        lhs: Box::new(read.clone()),
        rhs: Box::new(zero),
        width: 8,
    };
    let folded = fold_expr(ored);
    assert!(folded.as_const().is_none());
}

#[test]
fn path_ordering_and_display() {
    let a = Path::new("hdr.a");
    let b = Path::new("hdr.b");
    assert!(a < b);
    assert_eq!(format!("{a}"), "hdr.a");
    assert_eq!(a.valid().as_str(), "hdr.a.$valid");
    assert_eq!(Path::new("s").next_index().as_str(), "s.$next");
    assert_eq!(Path::new("s").indexed(3).as_str(), "s[3]");
}

#[test]
fn control_plane_name_override() {
    let src = format!(
        r#"{PRELUDE}
header h_t {{ bit<8> v; }}
struct headers_t {{ h_t h; }}
struct meta_t {{ bit<8> x; }}
control C(inout headers_t hdr, inout meta_t m, inout standard_metadata_t sm) {{
    action a() {{ }}
    @name("custom.table.name")
    table t {{
        key = {{ hdr.h.v: exact; }}
        actions = {{ a; }}
        default_action = a();
    }}
    apply {{ t.apply(); }}
}}
"#
    );
    let ir = compile(&src).unwrap();
    let t = &ir.tables[0];
    assert_eq!(&*t.control_plane_name, "custom.table.name");
}

#[test]
fn default_table_size_applied() {
    let src = format!(
        r#"{PRELUDE}
header h_t {{ bit<8> v; }}
struct headers_t {{ h_t h; }}
struct meta_t {{ bit<8> x; }}
control C(inout headers_t hdr, inout meta_t m, inout standard_metadata_t sm) {{
    action a() {{ }}
    table t {{
        key = {{ hdr.h.v: exact; }}
        actions = {{ a; }}
        default_action = a();
    }}
    apply {{ t.apply(); }}
}}
"#
    );
    let ir = compile(&src).unwrap();
    assert_eq!(ir.tables[0].size, 1024);
}
