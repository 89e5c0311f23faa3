//! Every corpus program must pass the full frontend with its target prelude.

use p4t_corpus::all_programs;
use p4t_corpus::fuzz::prelude_for;

/// Compile with the named target's prelude and package roots.
fn compile(arch: &str, src: &str) -> Result<p4t_ir::IrProgram, Vec<p4t_frontend::Diagnostic>> {
    let target = p4t_targets::by_name(arch).expect("known arch");
    let full = format!("{}\n{}", prelude_for(arch), src);
    p4t_ir::compile_full(&full, target.package_roots()).map(|(prog, _)| prog)
}

#[test]
fn all_corpus_programs_compile() {
    for (name, src, arch) in all_programs() {
        match compile(arch, &src) {
            Ok(prog) => {
                assert!(prog.num_statements() > 0, "{name}: no statements");
                assert!(!prog.package_args.is_empty(), "{name}: no package");
            }
            Err(e) => panic!("{name} failed to compile: {e:?}"),
        }
    }
}

#[test]
fn synthetic_generator_scales() {
    for (t, a) in [(1, 1), (2, 2), (4, 3)] {
        let src = p4t_corpus::generate_synthetic(t, a);
        let prog = compile("v1model", &src)
            .unwrap_or_else(|e| panic!("synthetic({t},{a}) failed: {e:?}"));
        assert_eq!(prog.tables.len(), t as usize);
    }
}

#[test]
fn middleblock_has_entry_restriction() {
    let prog = compile("v1model", p4t_corpus::MIDDLEBLOCK_SIM.as_str()).unwrap();
    let acl = prog.tables.iter().find(|t| t.name == "acl").expect("acl table");
    assert!(acl.entry_restriction.is_some(), "P4-constraints annotation survives");
    assert_eq!(acl.keys.len(), 3);
}
