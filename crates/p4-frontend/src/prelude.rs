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
//! The cache is keyed by the prelude's full text, and a compile looks its
//! prelude up once ([`Prelude::get`]): the entry also carries what a
//! compile needs of the text itself, its line count and the FNV-1a state
//! that a source fingerprint continues from. It holds a parsed prelude
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
use crate::{fnv_mix, FNV_OFFSET};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// What the process knows of one prelude text, decided once.
#[derive(Debug)]
struct Entry {
    /// FNV-1a state after the text and the newline that follows it.
    fingerprint: u64,
    /// Lines ahead of the program's first.
    lines: u32,
    /// The parse, or `None` when the prelude must be parsed with its source.
    parsed: Option<Parsed>,
}

/// A prelude parsed once, and checked once when a program after it can be
/// checked on top of it.
#[derive(Debug)]
struct Parsed {
    prefix: Prefix,
    /// Pass 1's environment of the prelude's declarations.
    env: Option<Arc<TypeEnv>>,
}

/// A prelude text and its process-wide cache entry, looked up once by
/// [`Prelude::get`] and then used for every question a compile asks of it.
#[derive(Clone, Debug)]
pub struct Prelude<'a> {
    text: &'a str,
    entry: Arc<Entry>,
}

impl<'a> Prelude<'a> {
    /// Look `text` up in the process-wide cache, deciding its entry on
    /// first sight.
    pub fn get(text: &'a str) -> Prelude<'a> {
        static CACHE: OnceLock<Mutex<HashMap<String, Arc<Entry>>>> = OnceLock::new();
        let mut cache = CACHE
            .get_or_init(Default::default)
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let entry = match cache.get(text) {
            Some(entry) => entry.clone(),
            None => {
                let entry = Arc::new(Entry::new(text));
                cache.insert(text.to_string(), entry.clone());
                entry
            }
        };
        Prelude { text, entry }
    }

    /// The FNV-1a state after the prelude and the newline that follows it:
    /// folding the program's source into it fingerprints the concatenation.
    pub fn fingerprint(&self) -> u64 {
        self.entry.fingerprint
    }

    /// Number of lines ahead of the program's first.
    pub fn lines(&self) -> u32 {
        self.entry.lines
    }

    /// [`crate::frontend`] for `source` placed on the line after the
    /// prelude, parsing and checking only `source`'s declarations when the
    /// prelude is cached. The result equals
    /// `frontend(&format!("{prelude}\n{source}"))`.
    pub fn frontend(&self, source: &str) -> Result<CheckedProgram, Vec<Diagnostic>> {
        match &self.entry.parsed {
            Some(parsed) => crate::check(parsed.prefix.parse_after(source), |program| {
                typecheck_over(parsed.env.clone(), program)
            }),
            None => crate::frontend(&format!("{}\n{source}", self.text)),
        }
    }
}

impl Entry {
    fn new(text: &str) -> Entry {
        let mut fingerprint = FNV_OFFSET;
        fnv_mix(&mut fingerprint, text.as_bytes());
        fnv_mix(&mut fingerprint, b"\n");
        let parsed = Prefix::parse(text).map(|prefix| {
            let env = checked_prefix(prefix.decls()).map(Arc::new);
            Parsed { prefix, env }
        });
        Entry { fingerprint, lines: text.matches('\n').count() as u32 + 1, parsed }
    }
}

/// Parse `source` placed on the line after `prelude`: the program and
/// diagnostics of `parse_all(&format!("{prelude}\n{source}"))`.
pub fn parse_with_prelude(prelude: &str, source: &str) -> (Program, Vec<Diagnostic>) {
    match &Prelude::get(prelude).entry.parsed {
        Some(parsed) => parsed.prefix.parse_after(source),
        None => parse_all(&format!("{prelude}\n{source}")),
    }
}

/// [`Prelude::frontend`] of `prelude`.
pub fn frontend_with_prelude(
    prelude: &str,
    source: &str,
) -> Result<CheckedProgram, Vec<Diagnostic>> {
    Prelude::get(prelude).frontend(source)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_clean_prelude_is_kept_and_a_directive_is_not() {
        let clean = "// arch\nheader h_t { bit<8> f; } /* end */";
        let (first, second) = (Prelude::get(clean), Prelude::get(clean));
        assert!(Arc::ptr_eq(&first.entry, &second.entry));
        let parsed = first.entry.parsed.as_ref().expect("a clean prelude is cached");
        assert!(parsed.env.is_some(), "and checked");
        for prelude in ["#define W 8\nheader h_t { bit<W> f; }", "header h_t { bit<8> f; ", "#pragma once\n"] {
            assert!(Prelude::get(prelude).entry.parsed.is_none(), "{prelude}");
        }
    }

    #[test]
    fn a_prelude_with_a_body_or_a_type_error_is_parsed_but_not_checked() {
        for prelude in [
            "control c(inout bit<8> x) { apply { x = 1; } }",
            "action a() { }",
            "header h_t { unknown_t f; }",
            "const bit<8> C = c_t.m;",
        ] {
            let p = Prelude::get(prelude);
            let parsed = p.entry.parsed.as_ref().expect("the parse is cached");
            assert!(parsed.env.is_none(), "{prelude}: checked with its program");
        }
    }

    #[test]
    fn every_prelude_knows_its_lines_and_fingerprint() {
        // Parsed or not, the facts are those of the text plus its newline.
        for (prelude, lines) in [("header h_t { bit<8> f; }\n", 2), ("#define W 8\n#define V 9", 2)] {
            let p = Prelude::get(prelude);
            let mut want = FNV_OFFSET;
            fnv_mix(&mut want, format!("{prelude}\n").as_bytes());
            assert_eq!(p.fingerprint(), want);
            assert_eq!(p.lines(), lines);
        }
    }
}
