//! p4fuzz: deterministic corpus fuzzing of the frontend pipeline.
//!
//! ```text
//! p4fuzz [options]
//!
//! options:
//!   --seed <N>        PRNG seed [1]
//!   --iters <N>       mutants to generate [2000]
//!   --seeds <DIR>     seed .p4 programs (default: built-in corpus; a
//!                     directory adds its *.p4 files to the built-ins)
//!   --corpus <DIR>    regression corpus to replay before fuzzing [tests/corpus]
//!   --out <DIR>       where to write new crashers [the corpus dir]
//!   --replay          only replay the regression corpus, no fuzzing
//!   -q, --quiet       suppress the per-phase progress lines
//! ```
//!
//! Exit codes: 0 = no panics anywhere, 1 = a crash was found (new or on
//! replay), 2 = usage or I/O error.
//!
//! Runs are reproducible: the same `--seed`, `--iters`, and seed set visit
//! the same mutants in the same order. Crashers are minimized and written
//! as `crash-<hash>.p4` with a banner recording the panic signature and
//! the architecture, so the regression corpus is self-describing.

use p4t_corpus::fuzz::{arch_of, check_input, run_fuzz, Outcome};
use p4testgen_core::{fnv_mix, FNV_OFFSET};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Options {
    seed: u64,
    iters: u64,
    seeds_dir: Option<PathBuf>,
    corpus_dir: PathBuf,
    out_dir: Option<PathBuf>,
    replay_only: bool,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: p4fuzz [--seed N] [--iters N] [--seeds DIR] [--corpus DIR]\n\
         \t[--out DIR] [--replay] [-q|--quiet]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        seed: 1,
        iters: 2000,
        seeds_dir: None,
        corpus_dir: PathBuf::from("tests/corpus"),
        out_dir: None,
        replay_only: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--seed" => {
                opts.seed = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--iters" => {
                opts.iters = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage())
            }
            "--seeds" => opts.seeds_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--corpus" => opts.corpus_dir = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            "--out" => opts.out_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--replay" => opts.replay_only = true,
            "-q" | "--quiet" => opts.quiet = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    opts
}

/// Load `*.p4` files from a directory as `(name, source, arch)` seeds,
/// sorted by name for determinism.
fn load_dir(dir: &Path) -> std::io::Result<Vec<(String, String, &'static str)>> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "p4"))
        .collect();
    files.sort();
    let mut seeds = Vec::new();
    for path in files {
        let source = std::fs::read_to_string(&path)?;
        let name = path.file_stem().map(|s| s.to_string_lossy().into_owned()).unwrap_or_default();
        let arch = arch_of(&source);
        seeds.push((name, source, arch));
    }
    Ok(seeds)
}

/// Replay every corpus entry; returns the number that panicked.
fn replay(dir: &Path, quiet: bool) -> std::io::Result<u64> {
    if !dir.exists() {
        return Ok(0);
    }
    let entries = load_dir(dir)?;
    let mut panics = 0;
    for (name, source, arch) in &entries {
        match check_input(source, arch) {
            Outcome::Panicked(sig) => {
                eprintln!("REGRESSION {name}: panicked at {}: {}", sig.location, sig.message);
                panics += 1;
            }
            _ => {
                if !quiet {
                    eprintln!("replay {name}: ok");
                }
            }
        }
    }
    if !quiet {
        eprintln!("replayed {} corpus entries, {panics} panic(s)", entries.len());
    }
    Ok(panics)
}

fn main() -> ExitCode {
    let opts = parse_args();

    // Phase 1: replay the regression corpus. A panic here means a previously
    // fixed crash came back.
    let replay_panics = match replay(&opts.corpus_dir, opts.quiet) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("p4fuzz: cannot replay {}: {e}", opts.corpus_dir.display());
            return ExitCode::from(2);
        }
    };
    if opts.replay_only {
        return if replay_panics > 0 { ExitCode::from(1) } else { ExitCode::SUCCESS };
    }

    // Phase 2: assemble seeds — the built-in corpus plus any --seeds dir.
    let mut seeds: Vec<(String, String, &'static str)> = p4t_corpus::all_programs()
        .into_iter()
        .map(|(name, source, arch)| (name.to_string(), source, arch))
        .collect();
    if let Some(dir) = &opts.seeds_dir {
        match load_dir(dir) {
            Ok(extra) => seeds.extend(extra),
            Err(e) => {
                eprintln!("p4fuzz: cannot read seeds {}: {e}", dir.display());
                return ExitCode::from(2);
            }
        }
    }
    if !opts.quiet {
        eprintln!("fuzzing {} iterations over {} seeds (seed={})", opts.iters, seeds.len(), opts.seed);
    }

    // Phase 3: fuzz.
    let report = run_fuzz(&seeds, opts.iters, opts.seed);
    if !opts.quiet {
        eprintln!(
            "{} iterations: {} clean, {} rejected, {} panic(s) ({} unique); {} diagnostic codes seen",
            report.iterations,
            report.clean,
            report.rejected,
            report.panics,
            report.crashes.len(),
            report.codes_seen.len()
        );
    }

    // Phase 4: persist minimized crashers into the corpus.
    let out_dir = opts.out_dir.as_ref().unwrap_or(&opts.corpus_dir);
    for crash in &report.crashes {
        if let Err(e) = std::fs::create_dir_all(out_dir) {
            eprintln!("p4fuzz: cannot create {}: {e}", out_dir.display());
            return ExitCode::from(2);
        }
        // Stable filename hash so re-finding a crash overwrites its file
        // instead of accumulating duplicates.
        let mut hash = FNV_OFFSET;
        fnv_mix(&mut hash, crash.signature.location.as_bytes());
        let path = out_dir.join(format!("crash-{hash:016x}.p4"));
        let body = format!(
            "// arch: {}\n// p4fuzz: panicked at {} ({})\n// found: seed={} iteration={} from {}\n{}\n",
            crash.arch,
            crash.signature.location,
            crash.signature.message.replace('\n', " "),
            opts.seed,
            crash.iteration,
            crash.seed_name,
            crash.input
        );
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("p4fuzz: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "CRASH at {} ({}), minimized to {} bytes -> {}",
            crash.signature.location,
            crash.signature.message,
            crash.input.len(),
            path.display()
        );
    }

    if replay_panics > 0 || !report.crashes.is_empty() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
