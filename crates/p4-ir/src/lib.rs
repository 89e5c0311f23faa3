//! # p4t-ir — the p4testgen intermediate representation
//!
//! The paper's P4Testgen consumes the P4C IR after a series of midend
//! transformations (§4 step 1): parser-loop bounding, elaboration of run-time
//! header-stack indices into conditionals with constant indices, and general
//! simplification. This crate provides the equivalent layer for our own
//! frontend:
//!
//! * [`ir`] — the width-resolved, flattened IR interpreted by both the
//!   symbolic executor (`p4testgen-core`) and the concrete software models
//!   (`p4t-interp`). Every statement carries a coverage id.
//! * [`mod@lower`] — AST → IR lowering, performing the midend elaborations
//!   and binding package block parameters to the target's pipeline state.
//! * [`passes`] — constant folding and dead-code elimination; the statement
//!   table is rebuilt afterwards, matching the paper's "coverage after
//!   dead-code elimination".

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod ir;
pub mod lower;
pub mod passes;

pub use ir::*;
pub use lower::{lower, lower_with_roots};
pub use passes::{fold_expr, optimize};

use p4t_frontend::error::Diagnostic;

/// Frontend + lowering + midend in one call, binding package block
/// parameters to `roots` (see [`lower_with_roots`]). Also surfaces warning
/// diagnostics from a clean run.
pub fn compile_full(
    source: &str,
    roots: &[&[&str]],
) -> Result<(IrProgram, Vec<Diagnostic>), Vec<Diagnostic>> {
    lower_checked(p4t_frontend::frontend(source)?, roots)
}

/// [`compile_full`] for `source` placed on the line after `prelude`, with
/// the prelude's parse taken from the process-wide cache when it qualifies
/// (see [`p4t_frontend::prelude`]). The result equals
/// `compile_full(&format!("{prelude}\n{source}"), roots)`.
pub fn compile_with_prelude(
    prelude: &str,
    source: &str,
    roots: &[&[&str]],
) -> Result<(IrProgram, Vec<Diagnostic>), Vec<Diagnostic>> {
    compile_after(&p4t_frontend::Prelude::get(prelude), source, roots)
}

/// [`compile_with_prelude`] over a prelude already looked up.
pub fn compile_after(
    prelude: &p4t_frontend::Prelude,
    source: &str,
    roots: &[&[&str]],
) -> Result<(IrProgram, Vec<Diagnostic>), Vec<Diagnostic>> {
    lower_checked(prelude.frontend(source)?, roots)
}

fn lower_checked(
    checked: p4t_frontend::CheckedProgram,
    roots: &[&[&str]],
) -> Result<(IrProgram, Vec<Diagnostic>), Vec<Diagnostic>> {
    let mut prog = lower_with_roots(&checked, roots)?;
    optimize(&mut prog);
    Ok((prog, checked.warnings))
}
