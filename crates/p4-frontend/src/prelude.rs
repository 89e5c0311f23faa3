//! Architecture preludes, parsed and checked once per process.
//!
//! Every program compiles against its target's prelude (`v1model.p4`,
//! `tna.p4`, ...), placed on the lines before the program's own source. A
//! campaign compiles thousands of programs against the same few preludes,
//! so each distinct prelude text is lexed, parsed and checked once: a
//! compile shares the prelude's declarations instead of copying them, lexes
//! and parses only the program's own source, at the positions it has in the
//! concatenated file, and typechecks only the program's own declarations,
//! in a type environment layered over the prelude's.
//!
//! The cache is keyed by the prelude's full text. It holds a parsed prelude
//! only when [`Prefix::parse`] accepts it (no diagnostic, no `#`
//! directive); any other prelude is parsed together with the source on every
//! call, exactly as a cold parse of the concatenation would. A parsed
//! prelude also keeps its checked environment when pass 1 of the checker
//! reports nothing for it and it has no parser, control or action body;
//! otherwise a program after it is checked from its first declaration, as
//! the concatenation would be. Nothing derived from the program's own
//! source is kept.

use crate::ast::Program;
use crate::error::Diagnostic;
use crate::parser::{parse_all, Prefix};
use crate::typecheck::{checked_prefix, typecheck_over, CheckedProgram};
use crate::types::TypeEnv;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// A prelude parsed once, and checked once when a program after it can be
/// checked on top of it.
#[derive(Debug)]
struct Entry {
    prefix: Prefix,
    /// Pass 1's environment of the prelude's declarations.
    env: Option<Arc<TypeEnv>>,
}

/// Parse `source` placed on the line after `prelude`: the program and
/// diagnostics of `parse_all(&format!("{prelude}\n{source}"))`.
pub fn parse_with_prelude(prelude: &str, source: &str) -> (Program, Vec<Diagnostic>) {
    match cached(prelude) {
        Some(entry) => entry.prefix.parse_after(source),
        None => parse_all(&format!("{prelude}\n{source}")),
    }
}

/// [`crate::frontend`] for `source` placed on the line after `prelude`,
/// parsing and checking only `source`'s declarations when the prelude is
/// cached. The result equals `frontend(&format!("{prelude}\n{source}"))`.
pub fn frontend_with_prelude(
    prelude: &str,
    source: &str,
) -> Result<CheckedProgram, Vec<Diagnostic>> {
    match cached(prelude) {
        Some(entry) => crate::check(entry.prefix.parse_after(source), |program| {
            typecheck_over(entry.env.clone(), program)
        }),
        None => crate::frontend(&format!("{prelude}\n{source}")),
    }
}

/// The parsed prelude, or `None` when it must be parsed with its source.
/// A prelude's verdict is decided once, either way.
fn cached(prelude: &str) -> Option<Arc<Entry>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Option<Arc<Entry>>>>> = OnceLock::new();
    let mut cache = CACHE
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(entry) = cache.get(prelude) {
        return entry.clone();
    }
    let entry = Prefix::parse(prelude).map(|prefix| {
        let env = checked_prefix(prefix.decls()).map(Arc::new);
        Arc::new(Entry { prefix, env })
    });
    cache.insert(prelude.to_string(), entry.clone());
    entry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_prelude_is_kept_and_a_directive_is_not() {
        let clean = "// arch\nheader h_t { bit<8> f; } /* end */";
        let first = cached(clean).expect("a clean prelude is cached");
        let second = cached(clean).expect("and found again");
        assert!(Arc::ptr_eq(&first, &second));
        assert!(first.env.is_some(), "and checked");
        assert!(cached("#define W 8\nheader h_t { bit<W> f; }").is_none());
        assert!(cached("header h_t { bit<8> f; ").is_none());
        assert!(cached("#pragma once\n").is_none());
    }

    #[test]
    fn a_prelude_with_a_body_or_a_type_error_is_parsed_but_not_checked() {
        for prelude in [
            "control c(inout bit<8> x) { apply { x = 1; } }",
            "action a() { }",
            "header h_t { unknown_t f; }",
            "const bit<8> C = c_t.m;",
        ] {
            let entry = cached(prelude).expect("the parse is cached");
            assert!(entry.env.is_none(), "{prelude}: checked with its program");
        }
    }
}
