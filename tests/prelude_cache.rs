//! The cached prelude parse is invisible: `CompiledProgram::build`, which
//! parses each architecture prelude once per process and then only the
//! program's own source, must give what a cold compile of the concatenated
//! text gives — the same outcome, warnings, diagnostics (spans included),
//! prelude line count, source fingerprint and, for programs that compile,
//! the same seed-1 STF suite. The IR is compared through its suite because
//! its `Debug` output iterates hash maps.

use p4t_backends::{StfBackend, TestBackend};
use p4t_frontend::{codes, Diagnostic, Prefix};
use p4t_ir::{compile_full, compile_with_prelude, IrProgram};
use p4testgen_core::{fnv_mix, BuildError, CompiledProgram, Testgen, TestgenConfig, FNV_OFFSET};
use std::path::Path;

type Compiled = Result<(IrProgram, Vec<Diagnostic>), Vec<Diagnostic>>;

/// What a compile shows the user: success or not, and its diagnostics.
fn shown(r: &Compiled) -> (bool, &[Diagnostic]) {
    match r {
        Ok((_, warnings)) => (true, warnings),
        Err(diags) => (false, diags),
    }
}

/// The seed-1 STF suite of a compiled program.
fn suite(name: &str, compiled: CompiledProgram, target: &str) -> String {
    let target = p4t_targets::by_name(target).expect("in-tree target");
    let mut config = TestgenConfig::default();
    config.seed = 1;
    let mut tg = Testgen::from_compiled(name, compiled, target, config);
    let mut specs = Vec::new();
    tg.run(|t| {
        specs.push(t.clone());
        true
    });
    StfBackend.emit_suite(&specs)
}

/// Build `source` for `target_name` both ways and require they agree.
/// Returns whether the program compiled.
fn assert_build_matches_cold(name: &str, source: &str, target_name: &str) -> bool {
    let target = p4t_targets::by_name(target_name).expect("in-tree target");
    let prelude = target.prelude();
    let full = format!("{prelude}\n{source}");
    let ctx = format!("{name} on {target_name}");

    // The parse itself, spans included, before anything is lowered.
    assert_eq!(
        p4t_frontend::parse_with_prelude(prelude, source),
        p4t_frontend::parser::parse_all(&full),
        "{ctx}: parse"
    );
    let cold = compile_full(&full, target.package_roots());
    let built = CompiledProgram::build(source, target.as_ref());
    let prelude_lines = full[..=prelude.len()].matches('\n').count() as u32;
    let mut fingerprint = FNV_OFFSET;
    fnv_mix(&mut fingerprint, full.as_bytes());
    fnv_mix(&mut fingerprint, target.name().as_bytes());

    match (built, cold) {
        (Ok(built), Ok((prog, warnings))) => {
            assert_eq!(built.frontend_warnings, warnings, "{ctx}: warnings");
            assert_eq!(built.prelude_lines, prelude_lines, "{ctx}: prelude_lines");
            assert_eq!(built.source_fingerprint, fingerprint, "{ctx}: source_fingerprint");
            let pipeline = target.pipeline(&prog).expect("the cached build's pipeline was accepted");
            let cold = CompiledProgram {
                prog,
                pipeline,
                frontend_warnings: warnings,
                prelude_lines,
                source_fingerprint: fingerprint,
            };
            assert_eq!(suite(name, built, target_name), suite(name, cold, target_name), "{ctx}: suite");
            true
        }
        (Err(BuildError::Frontend { diagnostics, prelude_lines: lines }), Err(cold)) => {
            assert_eq!(diagnostics, cold, "{ctx}: diagnostics");
            assert_eq!(lines, prelude_lines, "{ctx}: prelude_lines");
            false
        }
        (Err(BuildError::Target(msg)), Ok((prog, _))) => {
            assert_eq!(target.pipeline(&prog).err(), Some(msg), "{ctx}: target error");
            false
        }
        (built, cold) => panic!(
            "{ctx}: outcomes differ: cached {:?}, cold {:?}",
            built.map(|_| ()),
            cold.map(|_| ())
        ),
    }
}

/// The `.p4` files of a directory, sorted.
fn p4_files(dir: &str) -> Vec<(String, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "p4"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let name = p.file_stem().expect("file name").to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&p).expect("readable file"))
        })
        .collect()
}

/// Sources that stress where the user's text meets the prelude's.
fn edge_cases() -> Vec<(&'static str, String)> {
    let fig1a = p4t_corpus::FIG1A.to_string();
    let nested = format!("const bit<8> x = {}1{};\n", "(".repeat(100), ")".repeat(100));
    let switch_on = |label: &str| {
        let switch = format!("switch (forward_table.apply().action_run) {{ {label}: {{ }} }}");
        fig1a
            .replace("forward_table.apply();", &switch)
            .replace("action noop() { }", "action noop() { }\n    action spare() { }")
    };
    let mut flood = String::new();
    for i in 0..150 {
        flood.push_str(&format!("const mystery_t v{i} = 1;\n"));
    }
    vec![
        ("empty", String::new()),
        ("no-trailing-newline", "const bit<8> X = 1;".to_string()),
        ("unterminated-comment", format!("{fig1a}\n/* never closed\nconst bit<8> y = 2;")),
        ("unterminated-string", format!("{fig1a}\nconst bit<8> s = \"oops")),
        (
            "define-used-later",
            format!("#define WIDTH 9\n{}", fig1a.replace("bit<9>", "bit<WIDTH>")),
        ),
        ("pragma", format!("#pragma once\n{fig1a}")),
        ("redeclares-prelude-name", format!("struct standard_metadata_t {{ bit<8> x; }}\n{fig1a}")),
        ("redeclares-packet-in", format!("extern packet_in {{ void f(); }}\n{fig1a}")),
        ("parse-error-on-line-1", "control C( {".to_string()),
        ("bad-bytes-on-line-1", "` $ const bit<8> y = 2;".to_string()),
        ("recursion-guard", nested),
        ("switch-label-names-no-action", switch_on("ghost")),
        ("switch-label-not-in-table", switch_on("spare")),
        ("package-names-no-block", fig1a.replace("Eg(), CC()", "Ghost(), CC()")),
        ("control-in-parser-slot", fig1a.replace("V1Switch(P(), VC()", "V1Switch(VC(), VC()")),
        (
            "duplicate-block-name",
            fig1a.replace("V1Switch(", "control P(inout headers_t hdr) { apply { } }\nV1Switch("),
        ),
        ("type-diagnostic-flood", flood),
        ("lex-diagnostic-flood", "`".repeat(150)),
        ("parse-diagnostic-flood", "control C( {\n".repeat(150)),
    ]
}

#[test]
fn every_in_tree_prelude_is_cached() {
    for name in p4t_targets::NAMES {
        let target = p4t_targets::by_name(name).expect("in-tree target");
        assert!(Prefix::parse(target.prelude()).is_some(), "{name}'s prelude bypasses the cache");
    }
}

#[test]
fn build_matches_a_cold_compile_on_every_input_and_target() {
    let corpus = p4t_corpus::all_programs();
    let examples = p4_files("examples/p4");
    let seeds = p4_files("tests/corpus");
    let edges = edge_cases();
    let mut compiled = 0;
    for target in p4t_targets::NAMES {
        for (name, source, arch) in &corpus {
            if arch == target {
                assert!(assert_build_matches_cold(name, source, target), "{name} compiles on {target}");
                compiled += 1;
            }
        }
        let others = examples.iter().chain(&seeds).map(|(n, s)| (n.as_str(), s.as_str()));
        for (name, source) in others.chain(edges.iter().map(|(n, s)| (*n, s.as_str()))) {
            compiled += usize::from(assert_build_matches_cold(name, source, target));
        }
    }
    // Every corpus program, and each example on its own architecture.
    assert!(compiled >= corpus.len() + examples.len(), "only {compiled} inputs compiled");
}

#[test]
fn edge_cases_keep_their_diagnostics() {
    // The edge cases above must exercise what they are named for.
    let target = p4t_targets::by_name("v1model").expect("v1model");
    let codes_of = |src: &str| -> Vec<&'static str> {
        match CompiledProgram::build(src, target.as_ref()) {
            Ok(c) => c.frontend_warnings.iter().map(|d| d.code).collect(),
            Err(BuildError::Frontend { diagnostics, .. }) => {
                diagnostics.iter().map(|d| d.code).collect()
            }
            Err(BuildError::Target(_)) => Vec::new(),
        }
    };
    let edges = edge_cases();
    let get = |name: &str| &edges.iter().find(|(n, _)| *n == name).expect("named case").1;
    for (case, code) in [
        ("unterminated-comment", codes::LEX_UNTERMINATED_COMMENT),
        ("unterminated-string", codes::LEX_UNTERMINATED_STRING),
        ("pragma", codes::WARN_IGNORED_DIRECTIVE),
        ("recursion-guard", codes::PARSE_RECURSION_LIMIT),
        ("switch-label-names-no-action", codes::TYPE_UNKNOWN_SYMBOL),
        ("switch-label-not-in-table", codes::TYPE_UNKNOWN_SYMBOL),
        ("package-names-no-block", codes::TYPE_GENERIC),
        ("duplicate-block-name", codes::TYPE_DUPLICATE),
        ("type-diagnostic-flood", codes::DIAG_CAP),
        ("lex-diagnostic-flood", codes::DIAG_CAP),
    ] {
        assert!(codes_of(get(case)).contains(&code), "{case}: expected {code}");
    }
    assert!(codes_of(get("define-used-later")).is_empty(), "the #define applies to the source");
    match CompiledProgram::build(get("control-in-parser-slot"), target.as_ref()) {
        Err(BuildError::Target(msg)) => assert!(msg.contains("argument 1 'VC'"), "{msg}"),
        other => panic!("control-in-parser-slot: {:?}", other.map(|_| ())),
    }
}

/// A prelude built from v1model's with comments of both kinds in it, so
/// its raw, comment-blanked and preprocessed lengths all differ.
fn commented_v1model() -> String {
    let v1 = p4t_targets::by_name("v1model").expect("v1model").prelude().to_string();
    format!("// a line comment\n/* a block\n   comment */ {v1}\n/* tail */ // end")
}

/// User sources whose diagnostics sit in each of the lexer's offset spaces.
fn probes() -> Vec<String> {
    let fig1a = p4t_corpus::FIG1A;
    vec![
        fig1a.to_string(),
        format!("{fig1a}\n/* never closed"),
        format!("#pragma x\n{fig1a}\n` const bit<8> y = 2;"),
        "control C( {".to_string(),
        String::new(),
        format!("const bit<PORT_W> pw = 1;\n{fig1a}"),
    ]
}

fn assert_prelude_matches_cold(prelude: &str, roots: &[&[&str]]) {
    for source in probes() {
        assert_eq!(
            p4t_frontend::parse_with_prelude(prelude, &source),
            p4t_frontend::parser::parse_all(&format!("{prelude}\n{source}")),
            "parse of {source:?}"
        );
        let cached = compile_with_prelude(prelude, &source, roots);
        let cold = compile_full(&format!("{prelude}\n{source}"), roots);
        assert_eq!(shown(&cached), shown(&cold), "source: {source:?}");
    }
}

#[test]
fn a_commented_prelude_is_cached_and_matches() {
    let v1 = p4t_targets::by_name("v1model").expect("v1model");
    let roots = v1.package_roots();
    for prelude in [commented_v1model(), commented_v1model().replace('\n', "\r\n")] {
        assert!(Prefix::parse(&prelude).is_some(), "a clean commented prelude is cached");
        assert_prelude_matches_cold(&prelude, roots);
    }
}

#[test]
fn preludes_that_cannot_stand_apart_bypass_the_cache_and_match() {
    let v1 = p4t_targets::by_name("v1model").expect("v1model");
    let roots = v1.package_roots();
    let broken = format!("{}\nheader broken_t {{ bit<8> f; ", v1.prelude());
    // The last probe's `bit<PORT_W>` reads the prelude's macro.
    let defining = format!("#define PORT_W 9\n{}", v1.prelude());
    for prelude in [broken, defining] {
        assert!(Prefix::parse(&prelude).is_none(), "bypasses the cache");
        assert_prelude_matches_cold(&prelude, roots);
    }
}

/// Check `source` placed after `prelude` through the prelude cache and
/// cold, and require the same outcome, diagnostics, program, type
/// environment and IR. `names` are looked up in both environments under
/// every kind of name. Returns whether the source checked clean.
fn assert_checked_matches_cold(prelude: &str, source: &str, names: &[&str]) -> bool {
    let cached = p4t_frontend::frontend_with_prelude(prelude, source);
    let cold = p4t_frontend::frontend(&format!("{prelude}\n{source}"));
    match (cached, cold) {
        (Ok(cached), Ok(cold)) => {
            assert_eq!(cached.program, cold.program, "{source:?}: program");
            assert_eq!(cached.warnings, cold.warnings, "{source:?}: warnings");
            let (a, b) = (&cached.env, &cold.env);
            for &n in names {
                assert_eq!(a.error_code(n), b.error_code(n), "{source:?}: error.{n}");
                assert_eq!(a.is_match_kind(n), b.is_match_kind(n), "{source:?}: match_kind {n}");
                assert_eq!(a.constant(n), b.constant(n), "{source:?}: const {n}");
                assert_eq!(a.extern_fn(n), b.extern_fn(n), "{source:?}: extern {n}");
                let (ta, tb) = (format!("{:?}", a.type_def(n)), format!("{:?}", b.type_def(n)));
                assert_eq!(ta, tb, "{source:?}: type {n}");
            }
            assert_eq!(p4t_ir::lower(&cached), p4t_ir::lower(&cold), "{source:?}: IR");
            true
        }
        (Err(cached), Err(cold)) => {
            assert_eq!(cached, cold, "{source:?}: diagnostics");
            false
        }
        (cached, cold) => panic!(
            "{source:?}: outcomes differ: cached {:?}, cold {:?}",
            cached.map(|_| ()),
            cold.map(|_| ())
        ),
    }
}

#[test]
fn a_user_redeclaration_shadows_the_prelude_struct_enum_and_extern() {
    let v1 = p4t_targets::by_name("v1model").expect("v1model");
    let source = r#"
enum CloneType { I2E, E2E, Mirror }
struct standard_metadata_t { bit<9> ingress_port; bit<9> egress_spec; }
extern void mark_to_drop();
control C(inout standard_metadata_t sm) {
    apply {
        if (CloneType.Mirror == CloneType.Mirror) { mark_to_drop(); }
        sm.egress_spec = sm.ingress_port;
    }
}
"#;
    let names = ["CloneType", "standard_metadata_t", "mark_to_drop", "HashAlgorithm", "clone"];
    assert!(assert_checked_matches_cold(v1.prelude(), source, &names));
    // The prelude's own signature no longer applies.
    let stale = source.replace("mark_to_drop();", "mark_to_drop(sm);");
    assert!(!assert_checked_matches_cold(v1.prelude(), &stale, &names));
}

#[test]
fn user_error_members_follow_core_and_prelude_ones() {
    let v1 = p4t_targets::by_name("v1model").expect("v1model");
    let prelude = format!("{}\nerror {{ PrelErr, NoMatch }}\n", v1.prelude());
    let source = r#"
error { NoError, Mine, PrelErr, Mine2 }
const bit<16> E = (bit<16>)error.Mine2;
control C(inout error e, inout bit<16> x) {
    apply {
        e = error.Mine2;
        x = E;
        if (e == error.PrelErr) { e = error.Mine; }
    }
}
"#;
    let names = ["NoError", "NoMatch", "ParserInvalidArgument", "PrelErr", "Mine", "Mine2", "E"];
    assert!(assert_checked_matches_cold(&prelude, source, &names));
    let unknown = "control C(inout error e) { apply { e = error.Nope; } }";
    assert!(!assert_checked_matches_cold(&prelude, unknown, &names));
}

#[test]
fn a_user_match_kind_joins_the_core_ones() {
    let v1 = p4t_targets::by_name("v1model").expect("v1model");
    let source = r#"
match_kind { fancy, exact }
control C(inout bit<8> x) {
    action set(bit<8> v) { x = v; }
    table t { key = { x: fancy; } actions = { set; NoAction; } }
    apply { t.apply(); }
}
"#;
    let names = ["fancy", "exact", "lpm", "selector", "plain"];
    assert!(assert_checked_matches_cold(v1.prelude(), source, &names));
    let unknown = source.replace("x: fancy", "x: plain");
    assert!(!assert_checked_matches_cold(v1.prelude(), &unknown, &names));
}

#[test]
fn a_user_const_reads_a_prelude_enum_member() {
    let v1 = p4t_targets::by_name("v1model").expect("v1model");
    let source = r#"
const bit<32> K = HashAlgorithm.csum16;
const bit<8> K2 = (bit<8>)K + 1;
control C(inout bit<8> x) { apply { x = K2; } }
"#;
    let names = ["K", "K2", "HashAlgorithm", "crc16"];
    assert!(assert_checked_matches_cold(v1.prelude(), source, &names));
    let missing = source.replace("HashAlgorithm.csum16", "HashAlgorithm.sha256");
    assert!(!assert_checked_matches_cold(v1.prelude(), &missing, &names));
}

#[test]
fn a_custom_prelude_with_a_const_is_checked_once_and_matches() {
    let prelude = "const bit<8> PRE = 7;\nenum E_t { a, b }\nmatch_kind { special }\n\
                   typedef bit<8> byte_t;\nextern void ping(in byte_t v);";
    let source = r#"
const bit<8> Q = PRE * 2;
control C(inout byte_t x) {
    action set() { x = Q + PRE; ping(x); }
    table t { key = { x: special; } actions = { set; } }
    apply { t.apply(); if (E_t.b == E_t.b) { x = PRE; } }
}
"#;
    let names = ["PRE", "Q", "E_t", "special", "byte_t", "ping", "a"];
    assert!(assert_checked_matches_cold(prelude, source, &names));
    assert!(assert_checked_matches_cold(prelude, "const bit<8> PRE = 9;", &names));
    assert!(!assert_checked_matches_cold(prelude, "const bit<8> R = NOPE;", &names));
}

#[test]
fn a_custom_prelude_with_a_body_is_checked_with_its_program() {
    // The prelude's control reads `K`, which only the program declares:
    // checking the prelude apart would reject what the concatenation
    // accepts, and accept what it rejects.
    let prelude = "header h_t { bit<8> f; }\ncontrol Pre(inout h_t h) { apply { h.f = K; } }";
    let names = ["K", "h_t", "Pre"];
    assert!(Prefix::parse(prelude).is_some(), "the parse is still cached");
    assert!(assert_checked_matches_cold(prelude, "const bit<8> K = 3;", &names));
    assert!(!assert_checked_matches_cold(prelude, "", &names));
    let action = "action a() { x = 1; }";
    assert!(!assert_checked_matches_cold(action, "bit<8> x;", &names));
}
