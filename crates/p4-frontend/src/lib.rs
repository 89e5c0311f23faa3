//! # p4t-frontend — a P4-16 frontend
//!
//! The paper builds P4Testgen on top of P4C's frontend and IR. No mature P4
//! frontend exists in Rust, so this crate provides one for a substantial
//! P4-16 subset:
//!
//! * [`lexer`] — preprocessor (comments, `#include` dropping, object-like
//!   `#define`) and tokenizer, including width-prefixed literals (`8w0xFF`).
//! * [`parser`] — recursive-descent parser producing the [`ast`] types:
//!   headers, structs, header stacks, enums, typedefs, constants, errors,
//!   match kinds, extern functions and objects, parsers with `select`,
//!   controls with actions/tables (exact/ternary/lpm/range/optional match
//!   kinds, const entries, annotations), and package instantiations.
//! * [`mod@prelude`] — each architecture prelude parsed and checked once
//!   per process; a program compiled against it lexes, parses and checks
//!   only its own source.
//! * [`mod@typecheck`] — builds a [`types::TypeEnv`] and checks the program;
//!   the resulting [`typecheck::CheckedProgram`] feeds IR lowering.
//!
//! Every stage is **total**: it returns `Result<_, Vec<Diagnostic>>` rather
//! than panicking or stopping at the first problem. The parser recovers at
//! `;` / `}` / declaration boundaries, the typechecker poisons failed types
//! to suppress cascading errors, and a recursion-depth guard plus a per-file
//! diagnostic cap bound work on adversarial inputs. See DESIGN.md for the
//! diagnostic architecture.
//!
//! Out of scope (documented in DESIGN.md): header unions, tuples beyond
//! `select` arguments, nested control instantiation, function declarations,
//! and `value_set`s. Architecture preludes (v1model, tna, ...) are supplied
//! as source strings by the target extensions and parsed with this grammar.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ast;
pub mod diag;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod prelude;
pub mod token;
pub mod typecheck;
pub mod types;

pub use ast::Program;
pub use diag::SourceMap;
pub use error::{codes, Diagnostic, FrontendError, Phase, Severity};
pub use parser::{parse, parse_expression, Prefix};
pub use prelude::{frontend_with_prelude, parse_with_prelude, Prelude};
pub use typecheck::{typecheck, CheckedProgram};
pub use types::{Type, TypeEnv};

/// FNV-1a (64-bit) offset basis: the starting accumulator for
/// [`fnv_mix`]. The one FNV-1a behind run/source fingerprints, checkpoint
/// record checksums, serve cache keys, and fuzz crash filenames — all of
/// which persist, so its values must never change.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold bytes into an FNV-1a accumulator started at [`FNV_OFFSET`].
pub fn fnv_mix(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Parse and typecheck a source string in one step.
///
/// On failure, the returned diagnostics contain every problem found (up to
/// the per-file cap), ordered by phase then source position. Warnings from a
/// clean run are carried on the [`CheckedProgram`].
pub fn frontend(source: &str) -> Result<CheckedProgram, Vec<Diagnostic>> {
    check(parser::parse_all(source), typecheck)
}

/// Typecheck a parse with `typecheck`, merging its diagnostics into the
/// result.
pub(crate) fn check(
    (prog, parse_diags): (Program, Vec<Diagnostic>),
    typecheck: impl FnOnce(Program) -> Result<CheckedProgram, Vec<Diagnostic>>,
) -> Result<CheckedProgram, Vec<Diagnostic>> {
    if parse_diags.iter().any(Diagnostic::is_error) {
        return Err(parse_diags);
    }
    match typecheck(prog) {
        Ok(mut checked) => {
            if !parse_diags.is_empty() {
                let mut warnings = parse_diags;
                warnings.append(&mut checked.warnings);
                checked.warnings = warnings;
            }
            Ok(checked)
        }
        Err(type_diags) => {
            let mut all = parse_diags;
            all.extend(type_diags);
            Err(all)
        }
    }
}
