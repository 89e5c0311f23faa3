//! The lexer's output is pinned: for every in-tree P4 text (examples,
//! seed corpus, corpus programs, generated workload shapes, the target
//! preludes and a few malformed inputs), an FNV digest of `lex_all`'s
//! token stream — each token's kind, text and span — and of its
//! diagnostics must stay as recorded. A lexer rewrite that moves one span
//! by one byte, or reorders two diagnostics, fails here.
//!
//! A digest that changes on purpose is re-recorded from the table this
//! test prints on failure.

use p4testgen_core::{fnv_mix, FNV_OFFSET};
use std::path::Path;

/// The digests recorded for each input, by name.
const PINNED: &[(&str, u64)] = &[
    ("examples/p4/bmv2_quirks", 0x29cfbc43468e244c),
    ("examples/p4/fig1a", 0x8526fe4d70f70fae),
    ("examples/p4/fig1b", 0x42dd81ac188ce187),
    ("examples/p4/middleblock_sim", 0xbb0d09ba412be6f5),
    ("examples/p4/register_prog", 0x77a28140da4a64eb),
    ("examples/p4/shared_names", 0xb9ba27e89ef3d517),
    ("examples/p4/stack_prog", 0xee3f0c84d78804b8),
    ("examples/p4/switch_sim", 0xf3ea675c7310f51c),
    ("examples/p4/switch_stmt_prog", 0x4ffe9b6c5426fb59),
    ("examples/p4/tofino_quirks", 0x482fa132c47793c5),
    ("examples/p4/up4_sim", 0x30086ea38db616d8),
    ("examples/p4/varbit_prog", 0x24aea740298cd97c),
    ("tests/corpus/builtin-arity", 0x1ad06d18347c21a1),
    ("tests/corpus/deep-nesting", 0x2981c578f5879bfa),
    ("tests/corpus/emit-no-args", 0xd7d934111cbb4a87),
    ("tests/corpus/truncated-eof", 0xc7f022e2a930a17b),
    ("tests/corpus/unterminated-comment", 0xa8bc43667bf43535),
    ("tests/corpus/unterminated-string", 0xced5758b3dbeb019),
    ("corpus/fig1a", 0x970dd028beb4919d),
    ("corpus/fig1b", 0xa7494cc10645ee5a),
    ("corpus/middleblock_sim", 0x12d6bfb732841b0f),
    ("corpus/up4_sim", 0xacca895025ce34ec),
    ("corpus/switch_sim", 0x08f91453a9458e38),
    ("corpus/stack_prog", 0x5719388996ce059d),
    ("corpus/varbit_prog", 0xb87cf322dc9aa1dd),
    ("corpus/switch_stmt_prog", 0xbde5b33cd6d24551),
    ("corpus/register_prog", 0xe4e4a90d0dbf5853),
    ("corpus/bmv2_quirks", 0x74829baa1e6c483e),
    ("corpus/tofino_quirks", 0x3fcafda426957ceb),
    ("corpus/parser_deep_6x4", 0x34f3ec896ea0500d),
    ("synthetic_2x4", 0xce6dc80d070b2870),
    ("synthetic_5x3", 0x3c134b86dd28bb13),
    ("parser_deep_7x4", 0x28d8600f2878ed2b),
    ("intersection_v1model", 0x91936821d2c21234),
    ("intersection_tna", 0x41c3d0c5fc393805),
    ("intersection_ebpf_model", 0x8c4c0c45f19e36d0),
    ("prelude/v1model", 0x8a50e5615326b393),
    ("prelude/tna", 0xd34eeda4032e5fcf),
    ("prelude/t2na", 0xd34eeda4032e5fcf),
    ("prelude/ebpf_model", 0xe914f62cbe981b24),
    ("malformed/crlf", 0x970dd028beb4919d),
    ("malformed/defines", 0xd91545db6b63cddf),
    ("malformed/pragma-and-include", 0x46d3f02e960f3dbb),
    ("malformed/comments", 0x7ffb401529f5c6cf),
    ("malformed/comment-in-string", 0xf6a623eaeca015b9),
    ("malformed/unterminated-comment", 0xeb926655771cfcfb),
    ("malformed/unterminated-string", 0x8f866ceaceef0fc1),
    ("malformed/bad-bytes", 0x8d7641f3a89a5e44),
    ("malformed/numbers", 0x66738278bfc365dc),
    ("malformed/no-trailing-newline", 0xadfe356403d23f34),
    ("malformed/trailing-cr", 0xe1c729e86cf88050),
    ("malformed/empty", 0x4309a22d8d147501),
];

/// The `.p4` files of a directory, sorted, named `dir/stem`.
fn p4_files(dir: &str) -> Vec<(String, String)> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut files: Vec<_> = std::fs::read_dir(&root)
        .expect("directory exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "p4"))
        .collect();
    files.sort();
    files
        .into_iter()
        .map(|p| {
            let stem = p.file_stem().expect("file name").to_string_lossy().into_owned();
            (format!("{dir}/{stem}"), std::fs::read_to_string(&p).expect("readable file"))
        })
        .collect()
}

/// Every input whose token stream is pinned.
fn inputs() -> Vec<(String, String)> {
    let mut all = p4_files("examples/p4");
    all.extend(p4_files("tests/corpus"));
    for (name, source, _) in p4t_corpus::all_programs() {
        all.push((format!("corpus/{name}"), source));
    }
    all.push(("synthetic_2x4".into(), p4t_corpus::generate_synthetic(2, 4)));
    all.push(("synthetic_5x3".into(), p4t_corpus::generate_synthetic(5, 3)));
    all.push(("parser_deep_7x4".into(), p4t_corpus::generate_parser_deep(7, 4)));
    for t in p4t_corpus::INTERSECTION_TARGETS {
        all.push((format!("intersection_{t}"), p4t_corpus::generate_intersection(t)));
    }
    for name in p4t_targets::NAMES {
        let target = p4t_targets::by_name(name).expect("in-tree target");
        all.push((format!("prelude/{name}"), target.prelude().to_string()));
    }
    let fig1a = p4t_corpus::FIG1A;
    for (name, text) in [
        ("crlf", fig1a.replace('\n', "\r\n")),
        ("defines", format!("#define W 9\n#define X W\n{}", fig1a.replace("bit<9>", "bit<W>"))),
        ("pragma-and-include", format!("#include <core.p4>\n  #pragma once\n{fig1a}")),
        ("comments", "a/**/b /* x\n y */ c // d /* e\n f */ g\n/*/ h */ i /* \u{e9} */ j".into()),
        ("comment-in-string", "x \"a // b /* c\" y */ z".into()),
        ("unterminated-comment", format!("{fig1a}\n#pragma x\n/* never \u{e9} closed\nmore")),
        ("unterminated-string", "a \"oops\nb \"x\\".into()),
        ("bad-bytes", "a ` $ \u{e9} b @ 1 @x".into()),
        ("numbers", "8w255 0x1F 4s0b1_0 0w1 99999999999999999999999999999999999999999 3wz 0q".into()),
        ("no-trailing-newline", "const bit<8> X = 1;".into()),
        ("trailing-cr", "x\n\r".into()),
        ("empty", String::new()),
    ] {
        all.push((format!("malformed/{name}"), text));
    }
    all
}

/// FNV-1a over the token stream and diagnostics `lex_all` returns.
fn digest(source: &str) -> u64 {
    let (tokens, diags) = p4t_frontend::lexer::lex_all(source);
    let mut h = FNV_OFFSET;
    for t in &tokens {
        fnv_mix(&mut h, format!("{:?}\n", (&t.tok, t.span)).as_bytes());
    }
    for d in &diags {
        fnv_mix(&mut h, format!("{d:?}\n").as_bytes());
    }
    h
}

#[test]
fn every_token_stream_matches_its_pinned_digest() {
    let measured: Vec<(String, u64)> =
        inputs().into_iter().map(|(name, source)| (name, digest(&source))).collect();
    let table: String =
        measured.iter().map(|(n, d)| format!("    (\"{n}\", 0x{d:016x}),\n")).collect();
    let names: Vec<&str> = measured.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = PINNED.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, pinned, "the pinned inputs changed; measured:\n{table}");
    for ((name, got), (_, want)) in measured.iter().zip(PINNED) {
        assert_eq!(got, want, "{name}: token stream changed; measured:\n{table}");
    }
}
