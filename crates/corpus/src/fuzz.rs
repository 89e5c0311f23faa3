//! Deterministic corpus fuzzing for the frontend pipeline.
//!
//! The harness mutates known-good seed programs (byte- and token-level
//! mutators over a seeded PRNG), feeds each mutant through the full
//! frontend — preprocessor, lexer, parser, typechecker, IR lowering — and
//! triages the outcome. The frontend's contract is *totality*: any byte
//! sequence must produce either a program or diagnostics, never a panic.
//! A panic is a crash; crashes are deduplicated by panic location,
//! minimized by greedy line removal, and persisted as a regression corpus
//! that CI replays on every change.
//!
//! Everything is deterministic: the same `--seed` over the same seed set
//! visits the same mutants in the same order, so a crash report is
//! reproducible from its `(seed, iteration)` coordinates alone.

use p4t_frontend::Diagnostic;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// SplitMix64: tiny, seedable, and stable across platforms — exactly what a
/// reproducible fuzzer needs (the statistical quality bar here is low).
pub struct Rng {
    state: u64,
}

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng { state: seed.wrapping_add(0x9E3779B97F4A7C15) }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`; `bound` must be nonzero.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound.max(1) as u64) as usize
    }

    pub fn chance(&mut self, one_in: usize) -> bool {
        self.below(one_in) == 0
    }
}

// ---------------------------------------------------------------------------
// Panic capture

thread_local! {
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    static LAST_PANIC: RefCell<Option<PanicSig>> = const { RefCell::new(None) };
}

static INSTALL_HOOK: Once = Once::new();

/// Where and why a panic fired. `location` is the dedup key: two mutants
/// that die on the same source line are the same bug.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PanicSig {
    /// `file:line:col` of the panic site.
    pub location: String,
    /// The panic payload, when it was a string.
    pub message: String,
}

fn payload_string(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn install_hook() {
    INSTALL_HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if CAPTURING.with(Cell::get) {
                let location = info
                    .location()
                    .map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()))
                    .unwrap_or_else(|| "<unknown>".to_string());
                let message = payload_string(info.payload());
                LAST_PANIC.with(|p| *p.borrow_mut() = Some(PanicSig { location, message }));
            } else {
                prev(info);
            }
        }));
    });
}

/// Run `f`, converting a panic into a [`PanicSig`] instead of unwinding
/// further. The default panic printout is suppressed only while `f` runs on
/// this thread; panics elsewhere still reach the previous hook.
pub fn catch_panics<T>(f: impl FnOnce() -> T) -> Result<T, PanicSig> {
    install_hook();
    CAPTURING.with(|c| c.set(true));
    let result = panic::catch_unwind(AssertUnwindSafe(f));
    CAPTURING.with(|c| c.set(false));
    result.map_err(|payload| {
        LAST_PANIC.with(|p| p.borrow_mut().take()).unwrap_or(PanicSig {
            location: "<unknown>".to_string(),
            message: payload_string(payload.as_ref()),
        })
    })
}

// ---------------------------------------------------------------------------
// Outcome triage

/// What one input did to the pipeline.
#[derive(Debug)]
pub enum Outcome {
    /// Compiled; carries the warning count.
    Clean { warnings: usize },
    /// Rejected with diagnostics — the *expected* failure mode.
    Rejected { codes: Vec<&'static str> },
    /// The frontend panicked: a bug in the frontend, not in the input.
    Panicked(PanicSig),
}

/// Feed one user source through the full pipeline against `arch`'s
/// prelude, binding to `arch`'s package roots, and classify the result.
/// The source compiles through [`p4t_ir::compile_with_prelude`], the path
/// `CompiledProgram::build` takes, so the fuzzer exercises the cached
/// prelude parse and the prelude's shared type environment. Debug builds
/// also compile the concatenated text cold and panic on any difference in
/// outcome, IR, warnings or diagnostics; under [`catch_panics`] that
/// difference is a crash like any other.
pub fn check_input(source: &str, arch: &str) -> Outcome {
    let target = target_for(arch);
    let (prelude, roots) = (target.prelude(), target.package_roots());
    let compiled = catch_panics(|| {
        let result = p4t_ir::compile_with_prelude(prelude, source, roots);
        if cfg!(debug_assertions) {
            let cold = p4t_ir::compile_full(&format!("{prelude}\n{source}"), roots);
            assert_same_compile(&result, &cold);
        }
        result
    });
    match compiled {
        Ok(Ok((_, warnings))) => Outcome::Clean { warnings: warnings.len() },
        Ok(Err(diags)) => Outcome::Rejected { codes: diags.iter().map(|d| d.code).collect() },
        Err(sig) => Outcome::Panicked(sig),
    }
}

type Compiled = Result<(p4t_ir::IrProgram, Vec<Diagnostic>), Vec<Diagnostic>>;

/// Panic unless two compiles agree on `Ok`/`Err`, on the IR, and on every
/// warning or diagnostic (phase, severity, code, span and message).
fn assert_same_compile(cached: &Compiled, cold: &Compiled) {
    match (cached, cold) {
        (Ok((a_ir, a)), Ok((b_ir, b))) => {
            assert_eq!(a, b, "cached prelude parse changed the warnings");
            assert!(a_ir == b_ir, "cached prelude compile changed the IR");
        }
        (Err(a), Err(b)) => assert_eq!(a, b, "cached prelude parse changed the diagnostics"),
        _ => panic!(
            "cached prelude parse changed the outcome: cached ok={}, cold ok={}",
            cached.is_ok(),
            cold.is_ok()
        ),
    }
}

/// Resolve a seed's architecture banner (`// arch: tna` on the first line)
/// to a target name from [`p4t_targets::NAMES`]. Unknown or absent banners
/// default to v1model.
pub fn arch_of(source: &str) -> &'static str {
    let first = source.lines().next().unwrap_or("");
    let banner = first.trim().strip_prefix("// arch:").map(str::trim);
    p4t_targets::NAMES.iter().copied().find(|&n| Some(n) == banner).unwrap_or("v1model")
}

/// The prelude for an architecture name from [`arch_of`]; unknown names get
/// v1model's.
pub fn prelude_for(arch: &str) -> String {
    target_for(arch).prelude().to_string()
}

/// The named target; unknown names fall back to v1model.
fn target_for(arch: &str) -> Box<dyn p4testgen_core::Target> {
    p4t_targets::by_name(arch).unwrap_or_else(|| Box::new(p4t_targets::V1Model::new()))
}

// ---------------------------------------------------------------------------
// Mutators

/// Bytes worth inserting: P4's structural characters plus a quote and the
/// comment openers, the characters most likely to unbalance the parser.
const INTERESTING_BYTES: &[u8] = b"{}();<>[]=,.:\"/*#@-x0123456789_w";

/// Boundary numerals that historically shake out width/overflow handling.
const INTERESTING_NUMBERS: &[&str] =
    &["0", "1", "255", "256", "65535", "4294967295", "340282366920938463463374607431768211455", "0w1", "8w256", "0x", "2147483648"];

/// Apply 1–4 stacked random mutations to `source`. Mutants may be arbitrary
/// bytes; the result is lossily re-encoded as UTF-8 since the frontend takes
/// `&str`.
pub fn mutate(source: &str, rng: &mut Rng) -> String {
    let mut bytes = source.as_bytes().to_vec();
    let rounds = 1 + rng.below(4);
    for _ in 0..rounds {
        mutate_once(&mut bytes, rng);
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

fn mutate_once(bytes: &mut Vec<u8>, rng: &mut Rng) {
    if bytes.is_empty() {
        bytes.push(INTERESTING_BYTES[rng.below(INTERESTING_BYTES.len())]);
        return;
    }
    match rng.below(10) {
        // Byte-level mutations.
        0 => {
            // Flip one bit.
            let i = rng.below(bytes.len());
            bytes[i] ^= 1 << rng.below(8);
        }
        1 => {
            // Overwrite with a structural byte.
            let i = rng.below(bytes.len());
            bytes[i] = INTERESTING_BYTES[rng.below(INTERESTING_BYTES.len())];
        }
        2 => {
            // Delete a short span.
            let start = rng.below(bytes.len());
            let len = (1 + rng.below(16)).min(bytes.len() - start);
            bytes.drain(start..start + len);
        }
        3 => {
            // Duplicate a short span in place.
            let start = rng.below(bytes.len());
            let len = (1 + rng.below(16)).min(bytes.len() - start);
            let span = bytes[start..start + len].to_vec();
            bytes.splice(start..start, span);
        }
        4 => {
            // Insert structural bytes.
            let i = rng.below(bytes.len() + 1);
            let n = 1 + rng.below(4);
            for k in 0..n {
                let b = INTERESTING_BYTES[rng.below(INTERESTING_BYTES.len())];
                bytes.insert((i + k).min(bytes.len()), b);
            }
        }
        5 => {
            // Truncate: end-of-input is where recovery bugs live.
            let at = rng.below(bytes.len());
            bytes.truncate(at);
        }
        6 => {
            // Splice a chunk from one place to another.
            let start = rng.below(bytes.len());
            let len = (1 + rng.below(32)).min(bytes.len() - start);
            let chunk = bytes[start..start + len].to_vec();
            let dest = rng.below(bytes.len() + 1);
            bytes.splice(dest..dest, chunk);
        }
        // Token/line-level mutations (re-encode, operate on text, encode back).
        _ => {
            let text = String::from_utf8_lossy(bytes).into_owned();
            let mutated = mutate_text(&text, rng);
            *bytes = mutated.into_bytes();
        }
    }
}

/// Split into identifier/number words and single punctuation tokens,
/// preserving nothing about the original spacing (tokens re-join with a
/// single space, newlines survive as tokens).
fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut word = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() || ch == '_' {
            word.push(ch);
        } else {
            if !word.is_empty() {
                tokens.push(std::mem::take(&mut word));
            }
            if ch == '\n' {
                tokens.push("\n".to_string());
            } else if !ch.is_whitespace() {
                tokens.push(ch.to_string());
            }
        }
    }
    if !word.is_empty() {
        tokens.push(word);
    }
    tokens
}

fn detokenize(tokens: &[String]) -> String {
    let mut out = String::new();
    for t in tokens {
        if t == "\n" {
            out.push('\n');
        } else {
            if !out.is_empty() && !out.ends_with('\n') {
                out.push(' ');
            }
            out.push_str(t);
        }
    }
    out
}

fn mutate_text(text: &str, rng: &mut Rng) -> String {
    match rng.below(6) {
        0 | 1 => {
            // Line-level: delete or duplicate one line.
            let mut lines: Vec<&str> = text.lines().collect();
            if lines.is_empty() {
                return text.to_string();
            }
            let i = rng.below(lines.len());
            if rng.chance(2) {
                lines.remove(i);
            } else {
                lines.insert(i, lines[i]);
            }
            lines.join("\n")
        }
        2 => {
            // Swap two tokens.
            let mut toks = tokenize(text);
            if toks.len() >= 2 {
                let a = rng.below(toks.len());
                let b = rng.below(toks.len());
                toks.swap(a, b);
            }
            detokenize(&toks)
        }
        3 => {
            // Delete or duplicate a token.
            let mut toks = tokenize(text);
            if !toks.is_empty() {
                let i = rng.below(toks.len());
                if rng.chance(2) {
                    toks.remove(i);
                } else {
                    let t = toks[i].clone();
                    toks.insert(i, t);
                }
            }
            detokenize(&toks)
        }
        4 => {
            // Replace an identifier with another identifier from the file —
            // keeps the program lexically valid while scrambling meaning,
            // which is what drives the typechecker into odd corners.
            let toks = tokenize(text);
            let idents: Vec<usize> = toks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_'))
                .map(|(i, _)| i)
                .collect();
            if idents.len() >= 2 {
                let mut toks = toks;
                let dst = idents[rng.below(idents.len())];
                let src = idents[rng.below(idents.len())];
                toks[dst] = toks[src].clone();
                return detokenize(&toks);
            }
            text.to_string()
        }
        _ => {
            // Replace a number with a boundary value.
            let mut toks = tokenize(text);
            let nums: Vec<usize> = toks
                .iter()
                .enumerate()
                .filter(|(_, t)| t.chars().next().is_some_and(|c| c.is_ascii_digit()))
                .map(|(i, _)| i)
                .collect();
            if !nums.is_empty() {
                let i = nums[rng.below(nums.len())];
                toks[i] = INTERESTING_NUMBERS[rng.below(INTERESTING_NUMBERS.len())].to_string();
            }
            detokenize(&toks)
        }
    }
}

// ---------------------------------------------------------------------------
// Minimization

/// Greedy line-based minimization: repeatedly drop chunks of lines (largest
/// first) while `still_interesting` holds. O(passes × lines × check), plenty
/// for crash inputs that start at a few hundred lines.
pub fn minimize(input: &str, still_interesting: impl Fn(&str) -> bool) -> String {
    let mut lines: Vec<String> = input.lines().map(str::to_string).collect();
    let mut chunk = (lines.len() / 2).max(1);
    loop {
        let mut i = 0;
        let mut shrunk = false;
        while i < lines.len() {
            let end = (i + chunk).min(lines.len());
            let mut candidate = lines.clone();
            candidate.drain(i..end);
            if still_interesting(&candidate.join("\n")) {
                lines = candidate;
                shrunk = true;
                // Do not advance: the next chunk slid into position i.
            } else {
                i = end;
            }
        }
        if chunk == 1 {
            if !shrunk {
                break;
            }
        } else {
            chunk /= 2;
        }
    }
    lines.join("\n")
}

// ---------------------------------------------------------------------------
// The fuzzing loop

/// A deduplicated crash: one per unique panic location.
#[derive(Debug)]
pub struct Crash {
    pub signature: PanicSig,
    /// Seed program the mutant descended from.
    pub seed_name: String,
    pub arch: &'static str,
    /// Iteration at which it was first found (reproducible coordinates).
    pub iteration: u64,
    /// Minimized user-source input (no prelude).
    pub input: String,
}

/// Aggregate results of a fuzzing run.
#[derive(Debug, Default)]
pub struct FuzzReport {
    pub iterations: u64,
    pub clean: u64,
    pub rejected: u64,
    pub panics: u64,
    /// Unique crashes, keyed by panic location.
    pub crashes: Vec<Crash>,
    /// Distinct diagnostic codes observed — a coarse coverage signal for the
    /// diagnostic surface.
    pub codes_seen: BTreeSet<&'static str>,
}

/// Run `iterations` mutants drawn round-robin from `seeds` and triage every
/// outcome. `seeds` entries are `(name, user_source, arch)`.
pub fn run_fuzz(seeds: &[(String, String, &'static str)], iterations: u64, seed: u64) -> FuzzReport {
    let mut report = FuzzReport::default();
    if seeds.is_empty() {
        return report;
    }
    let mut rng = Rng::new(seed);
    let mut seen: BTreeMap<String, ()> = BTreeMap::new();
    for iter in 0..iterations {
        let (name, source, arch) = &seeds[(iter as usize) % seeds.len()];
        let mutant = mutate(source, &mut rng);
        report.iterations += 1;
        match check_input(&mutant, arch) {
            Outcome::Clean { .. } => report.clean += 1,
            Outcome::Rejected { codes } => {
                report.rejected += 1;
                report.codes_seen.extend(codes);
            }
            Outcome::Panicked(sig) => {
                report.panics += 1;
                if seen.contains_key(&sig.location) {
                    continue;
                }
                seen.insert(sig.location.clone(), ());
                let location = sig.location.clone();
                let minimized = minimize(&mutant, |candidate| {
                    matches!(check_input(candidate, arch),
                        Outcome::Panicked(s) if s.location == location)
                });
                report.crashes.push(Crash {
                    signature: sig,
                    seed_name: name.clone(),
                    arch,
                    iteration: iter,
                    input: minimized,
                });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn mutation_stream_is_deterministic() {
        let seed = "control C() { apply { } }";
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..50 {
            assert_eq!(mutate(seed, &mut a), mutate(seed, &mut b));
        }
    }

    #[test]
    fn catch_panics_reports_location_and_message() {
        let err = catch_panics(|| panic!("boom {}", 42)).unwrap_err();
        assert_eq!(err.message, "boom 42");
        assert!(err.location.contains("fuzz.rs"), "location: {}", err.location);
        // And a clean closure passes through.
        assert_eq!(catch_panics(|| 5).unwrap(), 5);
    }

    #[test]
    fn check_input_triages_clean_and_rejected() {
        assert!(matches!(check_input(crate::FIG1A, "v1model"), Outcome::Clean { .. }));
        match check_input("control C( {", "v1model") {
            Outcome::Rejected { codes } => assert!(!codes.is_empty()),
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn minimize_drops_irrelevant_lines() {
        let input = "aaa\nbbb\nNEEDLE\nccc\nddd\neee";
        let out = minimize(input, |s| s.contains("NEEDLE"));
        assert_eq!(out, "NEEDLE");
    }

    #[test]
    fn minimize_keeps_joint_requirements() {
        let input = "one\ntwo\nthree\nfour";
        let out = minimize(input, |s| s.contains("two") && s.contains("four"));
        assert!(out.contains("two") && out.contains("four"), "{out}");
        assert!(!out.contains("one") && !out.contains("three"), "{out}");
    }

    #[test]
    fn arch_banner_resolves() {
        assert_eq!(arch_of("// arch: tna\nrest"), "tna");
        assert_eq!(arch_of("header h { }"), "v1model");
    }

    #[test]
    fn short_fuzz_run_is_panic_free_and_deterministic() {
        let seeds = vec![("fig1a".to_string(), crate::FIG1A.to_string(), "v1model")];
        let a = run_fuzz(&seeds, 50, 3);
        let b = run_fuzz(&seeds, 50, 3);
        assert_eq!(a.iterations, 50);
        assert_eq!(a.panics, 0, "crashes: {:?}", a.crashes);
        assert_eq!(a.clean, b.clean);
        assert_eq!(a.rejected, b.rejected);
        assert_eq!(a.codes_seen, b.codes_seen);
    }
}
