//! Architecture preludes, parsed once per process.
//!
//! Every program compiles against its target's prelude (`v1model.p4`,
//! `tna.p4`, ...), placed on the lines before the program's own source. A
//! campaign compiles thousands of programs against the same few preludes,
//! so each distinct prelude text is lexed and parsed once and its
//! declarations are reused: a compile lexes and parses only the program's
//! own source, at the positions it has in the concatenated file.
//!
//! The cache is keyed by the prelude's full text. It holds a parsed prelude
//! only when [`Prefix::parse`] accepts it (no diagnostic, no `#`
//! directive); any other prelude is parsed together with the source on every
//! call, exactly as a cold parse of the concatenation would. Nothing derived
//! from the program's own source is kept.

use crate::ast::Program;
use crate::error::Diagnostic;
use crate::parser::{parse_all, Prefix};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Parse `source` placed on the line after `prelude`: the program and
/// diagnostics of `parse_all(&format!("{prelude}\n{source}"))`.
pub fn parse_with_prelude(prelude: &str, source: &str) -> (Program, Vec<Diagnostic>) {
    match cached(prelude) {
        Some(prefix) => prefix.parse_after(source),
        None => parse_all(&format!("{prelude}\n{source}")),
    }
}

/// The parsed prelude, or `None` when it must be parsed with its source.
/// A prelude's verdict is decided once, either way.
fn cached(prelude: &str) -> Option<Arc<Prefix>> {
    static CACHE: OnceLock<Mutex<HashMap<String, Option<Arc<Prefix>>>>> = OnceLock::new();
    let mut cache = CACHE
        .get_or_init(Default::default)
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    if let Some(entry) = cache.get(prelude) {
        return entry.clone();
    }
    let entry = Prefix::parse(prelude).map(Arc::new);
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
        assert!(cached("#define W 8\nheader h_t { bit<W> f; }").is_none());
        assert!(cached("header h_t { bit<8> f; ").is_none());
        assert!(cached("#pragma once\n").is_none());
    }
}
