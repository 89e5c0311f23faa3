//! The p4testgen command-line tool: generate packet tests for a P4 program.
//!
//! Two modes share one engine: the one-shot CLI below, and a long-lived
//! multi-tenant daemon (`p4testgen serve --listen HOST:PORT`, see the
//! [`serve`] module) that accepts generation requests over newline-
//! delimited JSON with per-request panic containment, admission control,
//! bounded caches, and graceful drain.
//!
//! ```text
//! p4testgen --target v1model --backend stf [options] program.p4
//!
//! options:
//!   --target <v1model|tna|t2na|ebpf_model>   architecture (required)
//!   --backend <stf|ptf|proto|json>           output format   [stf]
//!   --max-tests <N>                          stop after N tests (0 = all) [0]
//!   --seed <N>                               value-selection seed [1]
//!   --strategy <dfs|bfs|random|coverage>     path selection [dfs]
//!   --jobs, -j <N>                           exploration worker threads [1]
//!   --solver-budget <N>                      per-query conflict budget (0 = unlimited) [0]
//!   --deadline <SECONDS>                     wall-clock run deadline (graceful drain)
//!   --shard <i/N>                            explore only shard i of an N-way partition
//!   --checkpoint <FILE>                      periodically persist resumable state (atomic)
//!   --checkpoint-every <SECONDS>             min interval between flushes [2]
//!   --resume <FILE>                          continue from a checkpoint (implies --checkpoint FILE)
//!   --merge-shards <CKPT>                    merge completed shard checkpoints (repeatable;
//!                                            no program needed; renders the merged suite)
//!   --model-loop-bound <N>                   software-model parser loop bound [64]
//!   --fixed-packet-size <BYTES>              fixed-input-size precondition
//!   --with-constraints                       honor @entry_restriction
//!   --out <FILE>                             write tests here (default stdout)
//!   --coverage                               print the coverage report
//!   --validate                               run tests on the software model
//!   --trace-out <FILE>                       stream structured run trace (JSONL)
//!   --metrics-out <FILE>                     export metrics (.json → JSON, else Prometheus text)
//!   --summary-json [FILE]                    machine-readable run summary (stdout unless FILE)
//!   --status-addr <ADDR>                     serve /status, /metrics, /healthz over HTTP
//!   --status-linger <SECONDS>                keep the endpoint up after the run [0]
//!   --flight-out <FILE>                      span flight-recorder dump (JSONL)
//!   --provenance-out <FILE>                  per-test provenance records (JSONL)
//!   --coverage-report <FILE>                 per-statement coverage report with
//!                                            abandonment-reason annotations
//!   --quiet                                  only errors on stderr
//!   -v, --verbose                            chattier stderr diagnostics
//! ```
//!
//! Engine flags are [`TestgenConfig::set`] keys: `--foo-bar V` sets key
//! `foo_bar` (only `-j` and the value-less `--with-constraints` differ),
//! overriding the `P4TESTGEN_*` environment defaults.

mod diff;
mod driver;
mod serve;

use p4t_frontend::{Diagnostic, SourceMap};
use p4t_interp::{execute_and_check_counted, Arch, FaultSet, InterpStats};
use p4t_obs::{
    Diag, FlightRecorder, Level, LiveStatus, Registry, StatusServer, DEFAULT_RING_CAPACITY,
};
use p4testgen_core::{
    AbandonSite, BuildError, CheckpointCfg, ConfigError, ExplorationState, RunSummary, Target,
    Testgen, TestgenConfig, TestSpec,
};
use serde::value::{Number, Value};
use std::io::Write;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Exit codes (documented in README): 0 = tests emitted, 1 = the frontend
/// rejected the program or generation/validation failed, 2 = usage or I/O
/// error.
const EXIT_FRONTEND: u8 = 1;
const EXIT_USAGE_IO: u8 = 2;

struct Options {
    target: String,
    backend: String,
    program: String,
    /// Engine flags, set on top of the environment defaults.
    config: TestgenConfig,
    out: Option<String>,
    coverage: bool,
    validate: bool,
    checkpoint: Option<String>,
    checkpoint_every: Option<Duration>,
    resume: Option<String>,
    merge_shards: Vec<String>,
    trace_out: Option<String>,
    metrics_out: Option<String>,
    /// `None` = off; `Some(None)` = stdout; `Some(Some(path))` = file.
    summary_json: Option<Option<String>>,
    status_addr: Option<String>,
    status_linger: Option<Duration>,
    flight_out: Option<String>,
    provenance_out: Option<String>,
    coverage_report: Option<String>,
    verbosity: Level,
}

impl Options {
    /// Any machine-readable telemetry sink configured? These all deserve a
    /// cooperative SIGTERM/SIGINT drain so they get flushed instead of lost.
    fn wants_telemetry(&self) -> bool {
        self.trace_out.is_some()
            || self.metrics_out.is_some()
            || self.summary_json.is_some()
            || self.status_addr.is_some()
            || self.flight_out.is_some()
            || self.provenance_out.is_some()
            || self.coverage_report.is_some()
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: p4testgen --target <v1model|tna|t2na|ebpf_model> [--backend stf|ptf|proto|json]\n\
         \t[--max-tests N] [--seed N] [--strategy dfs|bfs|random|coverage] [--jobs N]\n\
         \t[--solver-budget N] [--deadline SECONDS]\n\
         \t[--shard i/N] [--checkpoint FILE] [--checkpoint-every SECONDS] [--resume FILE]\n\
         \t[--model-loop-bound N]\n\
         \t[--fixed-packet-size BYTES] [--with-constraints] [--out FILE]\n\
         \t[--coverage] [--validate] [--trace-out FILE] [--metrics-out FILE]\n\
         \t[--summary-json [FILE]] [--status-addr ADDR] [--status-linger SECONDS]\n\
         \t[--flight-out FILE] [--provenance-out FILE] [--coverage-report FILE]\n\
         \t[--quiet] [-v|--verbose] <program.p4>\n\
         \n\
         merge mode (no program): p4testgen --merge-shards CKPT --merge-shards CKPT ...\n\
         \t[--backend ...] [--max-tests N] [--out FILE]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        target: String::new(),
        backend: "stf".to_string(),
        program: String::new(),
        config: TestgenConfig::default(),
        out: None,
        coverage: false,
        validate: false,
        checkpoint: None,
        checkpoint_every: None,
        resume: None,
        merge_shards: Vec::new(),
        trace_out: None,
        metrics_out: None,
        summary_json: None,
        status_addr: None,
        status_linger: None,
        flight_out: None,
        provenance_out: None,
        coverage_report: None,
        verbosity: Level::Info,
    };
    // `--checkpoint-every` and `--status-linger` take seconds >= 0.
    let secs = |value: Option<String>| {
        value
            .and_then(|s| s.parse::<f64>().ok())
            .filter(|&s| s >= 0.0)
            .and_then(|s| Duration::try_from_secs_f64(s).ok())
            .unwrap_or_else(|| usage())
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--target" => opts.target = args.next().unwrap_or_else(|| usage()),
            "--backend" => opts.backend = args.next().unwrap_or_else(|| usage()),
            "-j" => set_option(&mut opts.config, "--jobs", args.next(), usage),
            "--with-constraints" => {
                set_option(&mut opts.config, &a, Some("true".to_string()), usage)
            }
            "--checkpoint" => opts.checkpoint = Some(args.next().unwrap_or_else(|| usage())),
            "--checkpoint-every" => opts.checkpoint_every = Some(secs(args.next())),
            "--resume" => opts.resume = Some(args.next().unwrap_or_else(|| usage())),
            "--merge-shards" => {
                opts.merge_shards.push(args.next().unwrap_or_else(|| usage()))
            }
            "--out" => opts.out = Some(args.next().unwrap_or_else(|| usage())),
            "--coverage" => opts.coverage = true,
            "--validate" => opts.validate = true,
            "--trace-out" => opts.trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--metrics-out" => opts.metrics_out = Some(args.next().unwrap_or_else(|| usage())),
            // Optional FILE operand: only an unambiguous summary destination
            // (a .json path); otherwise the summary goes to stdout.
            "--summary-json" => opts.summary_json = Some(args.next_if(|f| f.ends_with(".json"))),
            "--status-addr" => opts.status_addr = Some(args.next().unwrap_or_else(|| usage())),
            "--status-linger" => opts.status_linger = Some(secs(args.next())),
            "--flight-out" => opts.flight_out = Some(args.next().unwrap_or_else(|| usage())),
            "--provenance-out" => {
                opts.provenance_out = Some(args.next().unwrap_or_else(|| usage()))
            }
            "--coverage-report" => {
                opts.coverage_report = Some(args.next().unwrap_or_else(|| usage()))
            }
            "--quiet" => opts.verbosity = Level::Error,
            "-v" | "--verbose" => opts.verbosity = Level::Verbose,
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => opts.program = other.to_string(),
            // Every other `--foo-bar VALUE` is engine option `foo_bar`.
            flag => set_option(&mut opts.config, flag, args.next(), usage),
        }
    }
    // Merge mode consumes checkpoints, not a program.
    if opts.merge_shards.is_empty() && (opts.target.is_empty() || opts.program.is_empty()) {
        usage();
    }
    opts
}

/// Apply the engine flag `--foo-bar VALUE` as [`TestgenConfig::set`] key
/// `foo_bar`, shared by the generation and `diff` flag grammars. A flag
/// `set` does not know, or a missing value, calls `usage`; a bad value is
/// reported first. Both exit 2.
pub(crate) fn set_option(
    config: &mut TestgenConfig,
    flag: &str,
    value: Option<String>,
    usage: fn() -> !,
) {
    let key = match flag.strip_prefix("--") {
        Some(name) if !name.contains('_') => name.replace('-', "_"),
        _ => usage(),
    };
    let value = value.unwrap_or_else(|| usage());
    match config.set(&key, &value) {
        Ok(()) => {}
        Err(ConfigError::UnknownKey(_)) => usage(),
        Err(e @ ConfigError::BadValue { .. }) => {
            eprintln!("p4testgen: {e}");
            usage()
        }
    }
}

/// `--merge-shards`: fold the completed shard checkpoints back into the
/// single-run suite and render it. Corrupt, mismatched, or unfinished
/// inputs are usage/I-O errors (exit 2) — a silent partial merge would
/// masquerade as the whole suite.
fn merge_shards_main(opts: &Options, diag: &Diag) -> ExitCode {
    let mut shard_states = Vec::new();
    let mut config_hash: Option<u64> = None;
    for path in &opts.merge_shards {
        let state = match ExplorationState::load(std::path::Path::new(path)) {
            Ok(s) => s,
            Err(e) => {
                diag.error(format!("{path}: {e} [{}]", e.kind()));
                return ExitCode::from(EXIT_USAGE_IO);
            }
        };
        match config_hash {
            None => config_hash = Some(state.config_hash),
            Some(h) if h != state.config_hash => {
                diag.error(format!(
                    "{path}: shard checkpoints disagree on the run configuration \
                     ({h:#018x} vs {:#018x}) — they are not shards of one campaign",
                    state.config_hash
                ));
                return ExitCode::from(EXIT_USAGE_IO);
            }
            Some(_) => {}
        }
        if !state.is_complete() {
            diag.error(format!(
                "{path}: shard still has {} unexplored frontier state(s); \
                 finish it (--resume {path}) before merging",
                state.frontier.len()
            ));
            return ExitCode::from(EXIT_USAGE_IO);
        }
        shard_states.push(state.emitted);
    }
    let merged = p4testgen_core::merge_shard_suites(shard_states, opts.config.max_tests);
    diag.info(format!(
        "merged {} shard checkpoint(s) into {} tests",
        opts.merge_shards.len(),
        merged.len()
    ));
    let rendered = match driver::render_suite(&opts.backend, &merged) {
        Some(r) => r,
        None => {
            diag.error(format!("unknown backend '{}'", opts.backend));
            return ExitCode::from(EXIT_USAGE_IO);
        }
    };
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered) {
                diag.error(format!("cannot write {path}: {e}"));
                return ExitCode::from(EXIT_USAGE_IO);
            }
            diag.info(format!("wrote {path}"));
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            let _ = stdout.write_all(rendered.as_bytes());
        }
    }
    ExitCode::SUCCESS
}

/// Everything a successful generation run produces.
struct GenOutput {
    tests: Vec<TestSpec>,
    summary: RunSummary,
    prog: p4t_ir::IrProgram,
    /// Frontend warnings (program still compiled), for rendering.
    warnings: Vec<Diagnostic>,
    prelude_lines: u32,
}

enum GenError {
    /// The build failed (frontend diagnostics or target pipeline rejection).
    Build(BuildError),
    /// Exploration workers died outside the per-path isolation.
    Run(String),
}

fn generate(
    name: &str,
    source: &str,
    target: Box<dyn Target>,
    config: TestgenConfig,
) -> Result<GenOutput, GenError> {
    let prelude_lines = target.prelude().matches('\n').count() as u32 + 1;
    let mut tg =
        Testgen::new_checked(name, source, target, config).map_err(GenError::Build)?;
    let mut tests = Vec::new();
    let summary = tg
        .try_run(|t| {
            tests.push(t.clone());
            true
        })
        .map_err(|e| GenError::Run(e.to_string()))?;
    let warnings = tg.frontend_warnings().to_vec();
    Ok(GenOutput { tests, summary, prog: tg.prog.clone(), warnings, prelude_lines })
}

/// Machine-readable error payload for `--summary-json` when the frontend
/// rejects the program (the run never happened, so there is no summary).
fn diagnostics_json(diagnostics: &[Diagnostic], map: &SourceMap, prelude_lines: u32) -> Value {
    let items: Vec<Value> = diagnostics
        .iter()
        .map(|d| {
            let line = d.span.start.line.saturating_sub(prelude_lines);
            Value::Object(vec![
                ("code".into(), Value::String(d.code.to_string())),
                ("severity".into(), Value::String(d.severity.to_string())),
                ("message".into(), Value::String(d.message.clone())),
                ("file".into(), Value::String(map.name().to_string())),
                ("line".into(), Value::Number(Number::U(u64::from(line)))),
                ("col".into(), Value::Number(Number::U(u64::from(d.span.start.col)))),
            ])
        })
        .collect();
    Value::Object(vec![(
        "error".into(),
        Value::Object(vec![
            ("kind".into(), Value::String("frontend".into())),
            ("diagnostics".into(), Value::Array(items)),
        ]),
    )])
}

/// Write the `--summary-json` payload to its destination. I/O failures are
/// reported and mapped to the I/O exit code by the caller.
fn write_summary(dest: &Option<String>, value: &Value, diag: &Diag) -> Result<(), ()> {
    let mut s = serde_json::to_string_pretty(value).unwrap_or_default();
    s.push('\n');
    match dest {
        Some(path) => {
            if let Err(e) = std::fs::write(path, s) {
                diag.error(format!("cannot write {path}: {e}"));
                return Err(());
            }
            diag.verbose(format!("wrote summary {path}"));
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            let _ = stdout.write_all(s.as_bytes());
        }
    }
    Ok(())
}

/// Write the `--metrics-out` export: JSON for a `.json` destination, else
/// the Prometheus text exposition. I/O failures are reported and mapped to
/// the I/O exit code by the caller.
fn write_metrics(path: &str, reg: &Registry, diag: &Diag) -> Result<(), ()> {
    let rendered = if path.ends_with(".json") {
        let mut s = serde_json::to_string_pretty(&reg.render_json()).unwrap_or_default();
        s.push('\n');
        s
    } else {
        reg.render_prometheus()
    };
    if let Err(e) = std::fs::write(path, rendered) {
        diag.error(format!("cannot write {path}: {e}"));
        return Err(());
    }
    diag.verbose(format!("wrote metrics {path}"));
    Ok(())
}

/// The `--flight-out` destination. Ring drains are destructive, so every
/// dump appends the newly drained events to `dumped` and rewrites the whole
/// file — a panic-hook dump mid-run and the final dump compose instead of
/// overwriting each other.
struct FlightSink {
    recorder: Arc<FlightRecorder>,
    path: String,
    dumped: std::sync::Mutex<String>,
}

impl FlightSink {
    fn dump(&self) -> std::io::Result<()> {
        let mut buf = self.dumped.lock().unwrap_or_else(|e| e.into_inner());
        buf.push_str(&self.recorder.to_jsonl());
        std::fs::write(&self.path, buf.as_bytes())
    }
}

/// The abandonment reason nearest to statement `id`: the site whose deepest
/// covered statement is closest in id space (statement ids are assigned in
/// program order, so id distance approximates source distance). Ties break
/// on the lexicographically smaller trail for determinism.
fn nearest_abandon_reason(id: u32, sites: &[AbandonSite]) -> Option<&str> {
    sites
        .iter()
        .filter_map(|s| s.near_stmt.map(|n| (n.0.abs_diff(id), &s.trail, s.reason.as_str())))
        .min_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)))
        .map(|(_, _, reason)| reason)
}

/// Render the `--coverage-report` file: one line per IR statement, covered
/// or uncovered, with its source span; uncovered statements carry the
/// nearest abandonment reason (or a whole-run fallback) so "why is this
/// red" is answerable without re-running.
fn coverage_report_text(prog: &p4t_ir::IrProgram, summary: &RunSummary, prelude_lines: u32) -> String {
    use std::fmt::Write as _;
    let missed: std::collections::BTreeSet<u32> =
        summary.coverage.missed.iter().map(|m| m.id.0).collect();
    // Fallback reason when no abandonment site explains a miss: an
    // interrupted run simply never got there; a completed run proved
    // nothing reaches it (under the explored path space).
    let fallback = match summary.resume.as_ref().and_then(|r| r.interrupted.as_deref()) {
        Some(_) => "interrupted",
        None => "unreached",
    };
    let mut out = format!(
        "statement coverage: {}/{} ({:.1}%)\n",
        summary.coverage.covered, summary.coverage.total, summary.coverage.percent
    );
    for s in &prog.statements {
        let line = s.line.saturating_sub(prelude_lines);
        let end_line = s.end_line.saturating_sub(prelude_lines);
        let span = format!("{line}:{}-{end_line}:{}", s.col, s.end_col);
        if missed.contains(&s.id.0) {
            let reason =
                nearest_abandon_reason(s.id.0, &summary.abandon_sites).unwrap_or(fallback);
            let _ = writeln!(
                out,
                "uncovered [{}] {span} id={} {} <- {reason}",
                s.block, s.id.0, s.describe
            );
        } else {
            let _ = writeln!(
                out,
                "covered   [{}] {span} id={} {}",
                s.block, s.id.0, s.describe
            );
        }
    }
    out
}

/// Flush every machine-readable telemetry sink. Called on the normal exit
/// path and before early I/O-error exits, so a drained (SIGTERM/deadline)
/// run still leaves its trace, metrics, flight dump, provenance, coverage
/// report, and summary behind.
#[allow(clippy::too_many_arguments)]
fn flush_sinks(
    opts: &Options,
    summary: &RunSummary,
    prog: &p4t_ir::IrProgram,
    registry: &Option<Arc<Registry>>,
    flight_sink: &Option<Arc<FlightSink>>,
    status_server: &Option<StatusServer>,
    prelude_lines: u32,
    diag: &Diag,
) -> Result<(), ()> {
    let mut ok = Ok(());
    if let Some(path) = &opts.trace_out {
        let jsonl = summary.trace.as_ref().map(|t| t.to_jsonl()).unwrap_or_default();
        if let Err(e) = std::fs::write(path, jsonl) {
            diag.error(format!("cannot write {path}: {e}"));
            ok = Err(());
        } else {
            diag.verbose(format!("wrote trace {path}"));
        }
    }
    if let (Some(path), Some(reg)) = (&opts.metrics_out, registry) {
        if write_metrics(path, reg, diag).is_err() {
            ok = Err(());
        }
    }
    if let Some(sink) = flight_sink {
        if let Err(e) = sink.dump() {
            diag.error(format!("cannot write {}: {e}", sink.path));
            ok = Err(());
        } else {
            diag.verbose(format!("wrote flight dump {}", sink.path));
        }
    }
    if let Some(path) = &opts.provenance_out {
        let mut jsonl = String::new();
        for p in summary.provenance.as_deref().unwrap_or(&[]) {
            jsonl.push_str(&serde_json::to_string(&p.to_value()).unwrap_or_default());
            jsonl.push('\n');
        }
        if let Err(e) = std::fs::write(path, jsonl) {
            diag.error(format!("cannot write {path}: {e}"));
            ok = Err(());
        } else {
            diag.verbose(format!("wrote provenance {path}"));
        }
    }
    if let Some(path) = &opts.coverage_report {
        let report = coverage_report_text(prog, summary, prelude_lines);
        if let Err(e) = std::fs::write(path, report) {
            diag.error(format!("cannot write {path}: {e}"));
            ok = Err(());
        } else {
            diag.verbose(format!("wrote coverage report {path}"));
        }
    }
    if let Some(dest) = &opts.summary_json {
        let mut payload = summary.to_json();
        if let Value::Object(fields) = &mut payload {
            // CLI-side summary entry: where the live endpoint was and how
            // much it was used (null when `--status-addr` is off).
            let entry = match status_server {
                Some(srv) => Value::Object(vec![
                    ("addr".into(), Value::String(srv.local_addr().to_string())),
                    ("requests".into(), Value::Number(Number::U(srv.requests()))),
                ]),
                None => Value::Null,
            };
            fields.push(("status_endpoint".into(), entry));
        }
        if write_summary(dest, &payload, diag).is_err() {
            ok = Err(());
        }
    }
    ok
}

fn main() -> ExitCode {
    // Daemon mode has its own flag grammar; dispatch before the CLI parse.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("serve") {
        return serve::serve_main(&argv[1..]);
    }
    // Differential mode likewise owns its flag grammar.
    if argv.first().map(String::as_str) == Some("diff") {
        return diff::diff_main(&argv[1..]);
    }
    let opts = parse_args();
    let diag = Diag::new(opts.verbosity);
    if !opts.merge_shards.is_empty() {
        return merge_shards_main(&opts, &diag);
    }
    let source = match std::fs::read_to_string(&opts.program) {
        Ok(s) => s,
        Err(e) => {
            diag.error(format!("cannot read {}: {e}", opts.program));
            return ExitCode::from(EXIT_USAGE_IO);
        }
    };
    let mut config = opts.config.clone();
    // `--resume FILE` implies continuing to checkpoint into the same file,
    // so an interrupted resume is itself resumable.
    let checkpoint_path =
        opts.checkpoint.clone().or_else(|| opts.resume.clone());
    if let Some(path) = &checkpoint_path {
        let mut ck = CheckpointCfg::new(path);
        if let Some(every) = opts.checkpoint_every {
            ck.every = every;
        }
        config.checkpoint = Some(ck);
    }
    // Graceful degradation: SIGTERM/SIGINT drain instead of killing whenever
    // there is state worth saving — a checkpoint to flush or telemetry sinks
    // (trace, metrics, summary, flight dump, provenance, coverage report)
    // that would otherwise be lost with the process.
    let mut drain_flag: Option<Arc<AtomicBool>> = None;
    if checkpoint_path.is_some() || opts.wants_telemetry() {
        let drain = driver::process_drain_flag();
        config.drain = Some(Arc::clone(&drain));
        drain_flag = Some(drain);
    }
    // The flight recorder exists before the resume load so a corrupt
    // checkpoint leaves a run-level event in the dump.
    let flight = opts
        .flight_out
        .as_ref()
        .map(|_| Arc::new(FlightRecorder::new(config.jobs, DEFAULT_RING_CAPACITY)));
    config.obs.flight = flight.clone();
    let flight_sink = match (&flight, &opts.flight_out) {
        (Some(fr), Some(path)) => {
            let sink = Arc::new(FlightSink {
                recorder: Arc::clone(fr),
                path: path.clone(),
                dumped: std::sync::Mutex::new(String::new()),
            });
            // Dump the rings on any panic — including worker panics the
            // engine isolates — so the last events before the fault survive.
            // Registered as an observer (not via `set_hook` directly) so
            // other subsystems can watch panics too without displacing us.
            let hook_sink = Arc::clone(&sink);
            driver::add_panic_hook(Box::new(move |info| {
                hook_sink.recorder.record_run("panic-hook", Some(info.to_string()));
                let _ = hook_sink.dump();
            }));
            Some(sink)
        }
        _ => None,
    };
    if let Some(path) = &opts.resume {
        match ExplorationState::load(std::path::Path::new(path)) {
            Ok(state) => {
                if state.is_complete() {
                    diag.info(format!(
                        "{path}: checkpoint records a completed run; \
                         re-emitting its suite"
                    ));
                }
                config.resume = Some(state);
            }
            Err(e) => {
                // Classified fallback, never a panic or a hard failure: a
                // damaged checkpoint costs the saved progress, not the run.
                if let Some(fr) = &flight {
                    fr.record_run(
                        "checkpoint-corrupt",
                        Some(format!("{path}: {e} [{}]", e.kind())),
                    );
                }
                diag.warn(format!(
                    "{path}: unusable checkpoint ({e}) [{}]; starting cold",
                    e.kind()
                ));
            }
        }
    }
    // Observability: the per-path records are collected only when a view
    // of them was named (the trace, provenance, or the coverage report's
    // abandonment reasons), and the metrics registry exists only when
    // something will read it — a `--metrics-out` export or the live
    // `/metrics` endpoint.
    config.obs.trace = opts.trace_out.is_some()
        || opts.provenance_out.is_some()
        || opts.coverage_report.is_some();
    let registry = (opts.metrics_out.is_some() || opts.status_addr.is_some())
        .then(|| Arc::new(Registry::new()));
    config.obs.metrics = registry.clone();
    // Live introspection: bind the status endpoint before generation starts
    // so a long campaign is observable from its first path.
    let live = opts.status_addr.as_ref().map(|_| Arc::new(LiveStatus::new()));
    config.obs.live = live.clone();
    let mut status_server = None;
    if let (Some(addr), Some(live)) = (&opts.status_addr, &live) {
        // `/readyz` tracks the drain flag: a SIGTERM'd run reports 503
        // (not ready) while `/healthz` stays 200 until the process exits.
        match StatusServer::bind_full(
            addr,
            Arc::clone(live),
            registry.clone(),
            drain_flag.clone(),
            None,
        ) {
            Ok(srv) => {
                diag.info(format!(
                    "status endpoint listening on http://{}",
                    srv.local_addr()
                ));
                status_server = Some(srv);
            }
            Err(e) => {
                diag.error(format!("cannot bind status endpoint {addr}: {e}"));
                return ExitCode::from(EXIT_USAGE_IO);
            }
        }
    }
    let name = opts.program.rsplit('/').next().unwrap_or(&opts.program);
    let model_loop_bound = config.interp_parser_loop_bound;
    let (Some(target), Some(arch)) =
        (p4t_targets::by_name(&opts.target), Arch::from_target_name(&opts.target))
    else {
        diag.error(format!("unknown target '{}'", opts.target));
        return ExitCode::from(EXIT_USAGE_IO);
    };
    let gen = match generate(name, &source, target, config) {
        Ok(r) => r,
        Err(GenError::Build(BuildError::Frontend { diagnostics, prelude_lines })) => {
            let map = SourceMap::new(&opts.program, &source);
            eprint!("{}", map.render_all(&diagnostics, prelude_lines));
            let errors = diagnostics.iter().filter(|d| d.is_error()).count();
            diag.error(format!(
                "{}: {errors} error(s); no tests generated",
                opts.program
            ));
            if let Some(dest) = &opts.summary_json {
                let payload = diagnostics_json(&diagnostics, &map, prelude_lines);
                if write_summary(dest, &payload, &diag).is_err() {
                    return ExitCode::from(EXIT_USAGE_IO);
                }
            }
            return ExitCode::from(EXIT_FRONTEND);
        }
        Err(GenError::Build(BuildError::Target(msg))) => {
            diag.error(format!("{}: {msg}", opts.program));
            return ExitCode::from(EXIT_FRONTEND);
        }
        Err(GenError::Run(msg)) => {
            diag.error(msg);
            return ExitCode::FAILURE;
        }
    };
    let GenOutput { tests, summary, prog, warnings, prelude_lines } = gen;
    if !warnings.is_empty() {
        let map = SourceMap::new(&opts.program, &source);
        for w in &warnings {
            diag.warn(map.render(w, prelude_lines));
        }
    }
    diag.info(format!(
        "{} tests over {} paths ({} infeasible, {} abandoned)",
        summary.tests, summary.paths_explored, summary.infeasible_paths, summary.abandoned_paths
    ));
    diag.verbose(format!(
        "phases: stepping {:?}, solving {:?}, emission {:?}; {} workers at {:.0}% utilization; \
         {} solver checks, {} memo hits",
        summary.phases.stepping,
        summary.phases.solving,
        summary.phases.emission,
        summary.phases.workers,
        summary.phases.utilization() * 100.0,
        summary.solver_checks,
        summary.memo_hits
    ));
    // Graceful-degradation report: the run completed, but not cleanly.
    if !summary.errors.is_clean() {
        diag.warn(format!("degraded run: {}", summary.errors));
    }
    // Checkpoint/resume status: where the campaign stands and how to
    // continue it.
    if let Some(info) = &summary.resume {
        if let Some(kind) = &info.rejected {
            diag.warn(format!("offered checkpoint rejected ({kind}); started cold"));
        }
        if info.resumed {
            diag.info(format!(
                "resumed: {} frontier state(s) replayed, {} test(s) and {} memo \
                 entr(ies) restored",
                info.frontier_restored, info.tests_restored, info.memo_restored
            ));
        }
        if let Some(e) = &info.flush_error {
            diag.warn(format!("checkpoint flush failed: {e} (previous checkpoint intact)"));
        }
        if let Some(msg) = &info.shard_mismatch {
            diag.warn(format!(
                "shard filter changed across resume: {msg}; frontier subtrees owned \
                 by the original filter stay unexplored in this process"
            ));
        }
        match (&info.interrupted, &info.checkpoint_path) {
            (Some(why), Some(path)) => diag.warn(format!(
                "run interrupted ({why}); {} unexplored state(s) checkpointed — \
                 continue with --resume {path}",
                info.frontier_remaining
            )),
            (Some(why), None) => {
                diag.warn(format!("run interrupted ({why}); no checkpoint configured"))
            }
            _ => {}
        }
    }
    if summary.errors.model_defaults > 0 {
        diag.warn(format!(
            "{} model value(s) silently defaulted to 0 — \
             emitted tests may under-constrain those fields",
            summary.errors.model_defaults
        ));
    }
    for p in &summary.errors.panics {
        diag.warn(format!(
            "isolated panic at trail {:?}: {}{}",
            p.trail,
            p.payload,
            p.last_trace.as_deref().map(|t| format!(" (last trace: {t})")).unwrap_or_default()
        ));
    }
    if opts.coverage {
        eprint!("{}", summary.coverage);
    }
    // Render the suite.
    let rendered = match driver::render_suite(&opts.backend, &tests) {
        Some(r) => r,
        None => {
            diag.error(format!("unknown backend '{}'", opts.backend));
            return ExitCode::from(EXIT_USAGE_IO);
        }
    };
    match &opts.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered) {
                diag.error(format!("cannot write {path}: {e}"));
                // The suite is lost but the telemetry need not be.
                let _ = flush_sinks(
                    &opts, &summary, &prog, &registry, &flight_sink, &status_server,
                    prelude_lines, &diag,
                );
                return ExitCode::from(EXIT_USAGE_IO);
            }
            diag.info(format!("wrote {path}"));
        }
        None => {
            let mut stdout = std::io::stdout().lock();
            let _ = stdout.write_all(rendered.as_bytes());
        }
    }
    // Optional validation pass on the software model. Failures do not abort
    // here — telemetry sinks are flushed below either way, and the exit code
    // reflects the validation outcome.
    let mut validation_failed = false;
    if opts.validate {
        let mut fails = 0;
        let mut loop_bound_hits = 0;
        let mut model = InterpStats::default();
        for t in &tests {
            let (v, stats) =
                execute_and_check_counted(&prog, arch, FaultSet::none(), t, model_loop_bound);
            model.statements += stats.statements;
            model.parser_visits += stats.parser_visits;
            if !v.is_pass() {
                if let p4t_interp::Verdict::Exception(m) = &v {
                    if p4testgen_core::classify_abandon_reason(m)
                        == p4testgen_core::reason::PARSER_LOOP_BOUND
                    {
                        loop_bound_hits += 1;
                    }
                }
                diag.error(format!("test {} FAILED on the software model: {v}", t.id));
                fails += 1;
            }
        }
        if let Some(reg) = &registry {
            reg.counter("p4testgen_model_runs_total", "software-model executions (--validate)")
                .add(tests.len() as u64);
            reg.counter("p4testgen_model_statements_total", "statements the software model executed")
                .add(model.statements);
            reg.counter("p4testgen_model_parser_visits_total", "software-model parser state visits")
                .add(model.parser_visits);
        }
        if loop_bound_hits > 0 {
            diag.warn(format!(
                "{loop_bound_hits} failure(s) were the model's parser loop bound \
                 ({model_loop_bound}); raise it with --model-loop-bound"
            ));
        }
        if fails > 0 {
            diag.error(format!("{fails}/{} tests failed validation", tests.len()));
            validation_failed = true;
        } else {
            diag.info(format!("all {} tests pass on the software model", tests.len()));
        }
    }
    // Flush the machine-readable telemetry sinks.
    let flushed = flush_sinks(
        &opts, &summary, &prog, &registry, &flight_sink, &status_server, prelude_lines, &diag,
    );
    // Keep the endpoint up for `--status-linger` so a poller can read the
    // final snapshot (state "done", final counters) after the run.
    if let Some(mut srv) = status_server.take() {
        if let Some(linger) = opts.status_linger.filter(|d| !d.is_zero()) {
            diag.verbose(format!("status endpoint lingering {linger:?}"));
            // Sliced sleep: a SIGTERM during the linger ends it early
            // instead of pinning the process for the full window.
            let until = std::time::Instant::now() + linger;
            loop {
                if drain_flag.as_ref().is_some_and(|d| d.load(Ordering::Relaxed)) {
                    diag.verbose("drain requested; ending status linger early");
                    break;
                }
                let now = std::time::Instant::now();
                if now >= until {
                    break;
                }
                std::thread::sleep((until - now).min(Duration::from_millis(100)));
            }
        }
        srv.shutdown();
    }
    if flushed.is_err() {
        return ExitCode::from(EXIT_USAGE_IO);
    }
    if validation_failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
