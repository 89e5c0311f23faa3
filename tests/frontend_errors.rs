//! Frontend diagnostic contract tests.
//!
//! Two halves:
//! 1. Malformed programs produce *stable* diagnostics — error codes and
//!    spans that tooling (and the fuzzer's triage) can key on.
//! 2. Valid programs are untouched by the error-recovery machinery: every
//!    `examples/p4/*.p4` seed still compiles with zero diagnostics and
//!    emits a byte-identical STF suite versus its pinned golden file.

use p4testgen::backends::{StfBackend, TestBackend};
use p4testgen::core::{Target, Testgen, TestgenConfig};
use p4testgen::corpus::fuzz::arch_of;
use p4testgen::frontend::{codes, frontend, Diagnostic, Phase, Severity};
use p4testgen::targets::{self, V1Model};
use std::fs;
use std::path::Path;

fn errors_of(source: &str) -> Vec<Diagnostic> {
    match frontend(source) {
        Ok(_) => panic!("expected diagnostics for:\n{source}"),
        Err(diags) => diags,
    }
}

#[track_caller]
fn assert_code(diags: &[Diagnostic], code: &str) {
    assert!(
        diags.iter().any(|d| d.code == code),
        "expected a {code} diagnostic, got: {diags:?}"
    );
}

// ---------------------------------------------------------------------------
// Lexer codes

#[test]
fn unterminated_string_is_l0101() {
    let diags = errors_of("const bit<8> x = \"oops\nconst bit<8> y = 1;");
    assert_code(&diags, codes::LEX_UNTERMINATED_STRING);
}

#[test]
fn unterminated_comment_is_l0102_at_the_opener() {
    let src = "const bit<8> x = 1;\n/* never closed";
    let diags = errors_of(src);
    assert_code(&diags, codes::LEX_UNTERMINATED_COMMENT);
    let d = diags.iter().find(|d| d.code == codes::LEX_UNTERMINATED_COMMENT).unwrap();
    assert_eq!(d.span.start.line, 2, "span should point at the /*: {d:?}");
    assert_eq!(d.span.start.col, 1, "span should point at the /*: {d:?}");
}

#[test]
fn unexpected_character_is_l0103() {
    let diags = errors_of("const bit<8> x = `1;");
    assert_code(&diags, codes::LEX_UNEXPECTED_CHAR);
}

#[test]
fn zero_width_literal_is_l0105() {
    let diags = errors_of("const bit<8> x = 0w1;");
    assert_code(&diags, codes::LEX_ZERO_WIDTH);
}

// ---------------------------------------------------------------------------
// Parser codes, spans, and recovery

#[test]
fn eof_mid_construct_is_reported() {
    let diags = errors_of("control Ing(inout bit<8> v, inout");
    assert!(
        diags.iter().any(|d| d.phase == Phase::Parse),
        "expected a parse diagnostic: {diags:?}"
    );
}

#[test]
fn recursion_limit_is_p0107_not_a_crash() {
    let deep = format!("const bit<8> x = {}1{};", "(".repeat(100), ")".repeat(100));
    let diags = errors_of(&deep);
    assert_code(&diags, codes::PARSE_RECURSION_LIMIT);
}

#[test]
fn parser_recovers_and_reports_independent_errors() {
    // Two broken declarations separated by a valid one: sync-point recovery
    // must surface both, and the valid declaration must not add noise.
    let src = "\
const bit<8> a = ;
const bit<8> ok = 1;
const bit<8> b = ;";
    let diags = errors_of(src);
    let lines: Vec<u32> = diags.iter().map(|d| d.span.start.line).collect();
    assert!(lines.contains(&1), "first error line: {diags:?}");
    assert!(lines.contains(&3), "second error line: {diags:?}");
}

#[test]
fn spans_carry_exact_position() {
    let src = "const bit<8> x = 1;\nconst mystery_t y = 2;";
    let diags = errors_of(src);
    let d = &diags[0];
    assert_eq!(d.code, codes::TYPE_UNKNOWN_TYPE);
    // The span anchors at the offending declaration (TypeRef carries no
    // span of its own), with a nonempty width for the caret.
    assert_eq!(d.span.start.line, 2, "{d:?}");
    assert!(d.span.end.offset > d.span.start.offset, "{d:?}");
}

// ---------------------------------------------------------------------------
// Typechecker codes, poisoning, and the cap

#[test]
fn unknown_type_is_t0201_and_does_not_cascade() {
    // The bad type poisons `y`; uses of `y` must not produce follow-on noise.
    let src = "\
const mystery_t y = 1;
const bit<8> z = y;
const bit<8> w = y + z;";
    let diags = errors_of(src);
    assert_eq!(diags.len(), 1, "poison must suppress cascades: {diags:?}");
    assert_eq!(diags[0].code, codes::TYPE_UNKNOWN_TYPE);
}

#[test]
fn unknown_symbol_is_t0202() {
    // In a statement context (const initializers report not-a-constant
    // first), an unknown name is a symbol lookup failure.
    let src = "\
control C(inout bit<8> v) {
    apply { v = nowhere; }
}";
    let diags = errors_of(src);
    assert_code(&diags, codes::TYPE_UNKNOWN_SYMBOL);
}

#[test]
fn builtin_arity_is_t0204() {
    let src = r#"
header h_t { bit<8> v; }
struct headers_t { h_t h; }
struct meta_t { bit<8> x; }
parser P(packet_in pkt, out headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) {
    state start { pkt.extract(hdr.h); transition accept; }
}
control VC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Ing(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) { apply { } }
control Eg(inout headers_t hdr, inout meta_t meta, inout standard_metadata_t sm) { apply { } }
control CC(inout headers_t hdr, inout meta_t meta) { apply { } }
control Dep(packet_out pkt, in headers_t hdr) { apply { pkt.emit(); } }
V1Switch(P(), VC(), Ing(), Eg(), CC(), Dep()) main;
"#;
    let full = format!("{}\n{src}", V1Model::new().prelude());
    let diags = errors_of(&full);
    assert_code(&diags, codes::TYPE_BAD_CALL);
}

#[test]
fn multiple_type_errors_accumulate_in_one_pass() {
    let src = "\
const mystery_a a = 1;
const bit<8> ok = 2;
const mystery_b b = 3;";
    let diags = errors_of(src);
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags.iter().all(|d| d.code == codes::TYPE_UNKNOWN_TYPE));
}

#[test]
fn diagnostic_flood_hits_the_cap_marker() {
    // 150 unknown-type declarations: the sink caps at 100 and appends the
    // D0001 marker instead of growing without bound.
    let mut src = String::new();
    for i in 0..150 {
        src.push_str(&format!("const mystery_t v{i} = 1;\n"));
    }
    let diags = errors_of(&src);
    assert!(diags.len() <= 102, "cap must bound output: {}", diags.len());
    assert_code(&diags, codes::DIAG_CAP);
}

#[test]
fn warnings_do_not_fail_the_frontend() {
    // `#pragma` is recognized-but-ignored: a W0002 warning on success.
    let src = "#pragma something\nconst bit<8> x = 1;";
    let checked = frontend(src).expect("pragma must not fail compilation");
    assert!(
        checked.warnings.iter().any(|w| w.code == codes::WARN_IGNORED_DIRECTIVE),
        "warnings: {:?}",
        checked.warnings
    );
    assert!(checked.warnings.iter().all(|w| w.severity == Severity::Warning));
}

// ---------------------------------------------------------------------------
// Valid programs: zero diagnostics, byte-identical suites

fn golden_config() -> TestgenConfig {
    let mut config = TestgenConfig::default();
    config.seed = 1;
    config.jobs = 1;
    config.max_tests = 0;
    config
}

/// The STF suite for one example, on the target its `// arch:` banner names.
fn suite_for(name: &str, source: &str) -> String {
    let target = targets::by_name(arch_of(source)).expect("arch_of yields a target name");
    let mut tg = Testgen::new_checked(name, source, target, golden_config())
        .unwrap_or_else(|e| panic!("{name} must compile: {e}"));
    assert!(
        tg.frontend_warnings().is_empty(),
        "{name} must compile with zero diagnostics: {:?}",
        tg.frontend_warnings()
    );
    let mut tests = Vec::new();
    tg.run(|t| {
        tests.push(t.clone());
        true
    });
    StfBackend.emit_suite(&tests)
}

#[test]
fn all_examples_compile_clean_and_match_goldens() {
    let goldens = Path::new("tests/golden_suites");
    let mut checked = 0;
    for entry in fs::read_dir("examples/p4").expect("read examples/p4") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("p4") {
            continue;
        }
        let name = path.file_stem().unwrap().to_str().unwrap().to_string();
        let source = fs::read_to_string(&path).expect("read example");
        let suite = suite_for(&name, &source);
        let golden = fs::read_to_string(goldens.join(format!("{name}.stf")))
            .unwrap_or_else(|e| panic!("missing golden for {name}: {e}"));
        assert_eq!(
            suite, golden,
            "{name}: suite bytes changed; if intentional, \
             regenerate with `cargo run --example gen_goldens`"
        );
        checked += 1;
    }
    assert!(checked >= 11, "expected the full example corpus, saw {checked}");
}
