//! The repository benchmark for p4testgen. One process runs one workload:
//! a warm-up pass, which is not timed, then timed passes until the run's
//! seconds are spent. A pass takes every program of the workload from
//! source to a ready `Testgen`, through `Testgen::run` and the STF backend,
//! and checks every emitted test on the software model.
//!
//! Layers are timed from outside, around calls into public functions of the
//! repository crates, so their internals can change without editing this
//! package. A traced run records a span around each call (see [`trace`])
//! and reads the counters the engine already reports.

pub mod stats;
pub mod trace;
pub mod workload;

use p4t_backends::{StfBackend, TestBackend};
use p4t_frontend::lexer::lex_all;
use p4t_frontend::parser::parse_all;
use p4t_frontend::{typecheck, Diagnostic};
use p4t_interp::{execute_and_check_counted, Arch, FaultSet};
use p4t_obs::Registry;
use p4t_targets::{EbpfModel, Tofino, V1Model};
use p4testgen_core::{CompiledProgram, SolverMode, Target, Testgen, TestgenConfig};
use stats::median;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use trace::{self_times, Tracer};
use workload::{Program, Workload};

/// End-to-end metrics, reported by untraced runs: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("suite_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("coverage_pct", "%"),
    ("pass_ratio", "ratio"),
];

/// Per-layer metrics, reported by traced runs: name and unit. Each is the
/// median over the traced passes of its value for one whole pass.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frontend.lex_s", "s"),
    ("frontend.parse_s", "s"),
    ("frontend.typecheck_s", "s"),
    ("frontend.tokens", "count"),
    ("frontend.source_bytes", "bytes"),
    ("ir.lower_s", "s"),
    ("ir.optimize_s", "s"),
    ("ir.statements", "count"),
    ("core.run_s", "s"),
    ("core.step_s", "s"),
    ("core.emit_s", "s"),
    ("core.other_s", "s"),
    ("core.paths", "count"),
    ("core.tests", "count"),
    ("core.infeasible_paths", "count"),
    ("core.abandoned_paths", "count"),
    ("core.solver_checks", "count"),
    ("core.memo_hits", "count"),
    ("core.memo_hit_ratio", "ratio"),
    ("core.utilization", "ratio"),
    ("core.worker_steals", "count"),
    ("core.worker_idle_s", "s"),
    ("smt.solve_s", "s"),
    ("smt.blast_s", "s"),
    ("smt.sat_s", "s"),
    ("smt.sat_decisions", "count"),
    ("smt.sat_propagations", "count"),
    ("smt.sat_conflicts", "count"),
    ("smt.blast_cache_hits", "count"),
    ("smt.blast_cache_misses", "count"),
    ("smt.blast_hit_ratio", "ratio"),
    ("smt.warm_checks", "count"),
    ("smt.fresh_fallbacks", "count"),
    ("smt.warm_rebuilds", "count"),
    ("smt.roots_reused", "count"),
    ("smt.roots_blasted", "count"),
    ("smt.simplify_rewrites", "count"),
    ("smt.simplify_fast_unsat", "count"),
    ("smt.learnt_imported", "count"),
    ("smt.pool_terms", "count"),
    ("backends.stf_s", "s"),
    ("backends.stf_bytes", "bytes"),
    ("interp.validate_s", "s"),
    ("interp.runs", "count"),
    ("interp.statements", "count"),
    ("interp.parser_visits", "count"),
    ("trace_overhead", "ratio"),
];

/// Spans whose self time is a per-layer metric. The other spans are
/// `pass`, `program` (together the harness) and `setup`.
const SPAN_METRICS: [(&str, &str); 8] = [
    ("frontend.lex", "frontend.lex_s"),
    ("frontend.parse", "frontend.parse_s"),
    ("frontend.typecheck", "frontend.typecheck_s"),
    ("ir.lower", "ir.lower_s"),
    ("ir.optimize", "ir.optimize_s"),
    ("core.run", "core.run_s"),
    ("backends.stf", "backends.stf_s"),
    ("interp.validate", "interp.validate_s"),
];

/// The measured configuration. `TestgenConfig::default()` reads the
/// `P4TESTGEN_*` environment variables, so each field it reads is set here.
pub fn pinned_config(seed: u64, jobs: usize) -> TestgenConfig {
    TestgenConfig {
        jobs,
        solver_mode: SolverMode::Incremental,
        solver_budget: 0,
        deadline: None,
        seed,
        ..TestgenConfig::default()
    }
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Peak resident set size of this process (`VmHWM`), in MB of 10^6 bytes.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// What one pass did and measured.
#[derive(Default)]
struct Pass {
    secs: f64,
    /// Time in the traced-only frontend and IR calls, which repeat work
    /// that `setup` also does.
    probe_secs: f64,
    setup_secs: f64,
    /// FNV-1a of each program's STF suite; 0 for a program that failed.
    digests: Vec<u64>,
    /// Programs plus emitted tests.
    checks: u64,
    failed: u64,
    covered: u64,
    statements: u64,
    /// Per-layer values for the whole pass (traced passes only). Besides
    /// the [`PER_LAYER`] names it holds the inputs of the ratios and of
    /// [`Report::shares`].
    ledger: BTreeMap<&'static str, f64>,
}

impl Pass {
    fn add(&mut self, key: &'static str, v: f64) {
        *self.ledger.entry(key).or_insert(0.0) += v;
    }

    fn get(&self, key: &str) -> f64 {
        self.ledger.get(key).copied().unwrap_or(0.0)
    }
}

/// Time the frontend and IR layers one call at a time. `CompiledProgram::
/// build` makes the same calls inside `setup`, where they cannot be told
/// apart. Returns false if a layer rejects the program.
fn probe_frontend(full: &str, tr: &mut Tracer, parent: u32, pass: &mut Pass) -> bool {
    let span = tr.open("frontend.lex", Some(parent));
    let (tokens, _) = lex_all(full);
    tr.close(span);
    pass.add("frontend.tokens", tokens.len() as f64);
    pass.add("frontend.source_bytes", full.len() as f64);

    let span = tr.open("frontend.parse", Some(parent));
    let (ast, diags) = parse_all(full);
    tr.close(span);
    if diags.iter().any(Diagnostic::is_error) {
        return false;
    }
    let span = tr.open("frontend.typecheck", Some(parent));
    let checked = typecheck(ast);
    tr.close(span);
    let Ok(checked) = checked else { return false };

    let span = tr.open("ir.lower", Some(parent));
    let lowered = p4t_ir::lower(&checked);
    tr.close(span);
    let Ok(mut ir) = lowered else { return false };
    let span = tr.open("ir.optimize", Some(parent));
    p4t_ir::optimize(&mut ir);
    tr.close(span);
    pass.add("ir.statements", ir.num_statements() as f64);
    true
}

/// Take one program through the pipeline; returns its suite digest.
fn run_program<T: Target>(
    p: &Program,
    target: T,
    config: &TestgenConfig,
    tr: &mut Tracer,
    parent: u32,
    pass: &mut Pass,
) -> u64 {
    pass.checks += 1;
    let registry = tr.enabled.then(|| Arc::new(Registry::new()));
    let mut config = config.clone();
    config.obs.metrics = registry.clone();
    if tr.enabled {
        let t = Instant::now();
        let ok = probe_frontend(
            &format!("{}\n{}", target.prelude(), p.source),
            tr,
            parent,
            pass,
        );
        pass.probe_secs += t.elapsed().as_secs_f64();
        if !ok {
            pass.failed += 1;
            return 0;
        }
    }

    let t = Instant::now();
    let span = tr.open("setup", Some(parent));
    let built = CompiledProgram::build(&p.source, &target)
        .map(|c| Testgen::from_compiled(&p.name, c, target, config));
    tr.close(span);
    pass.setup_secs += t.elapsed().as_secs_f64();
    let Ok(mut tg) = built else {
        pass.failed += 1;
        return 0;
    };

    let span = tr.open("core.run", Some(parent));
    let mut specs = Vec::new();
    let summary = tg.run(|t| {
        specs.push(t.clone());
        true
    });
    tr.close(span);
    if !summary.errors.is_clean() {
        pass.failed += 1;
    }
    pass.covered += summary.coverage.covered as u64;
    pass.statements += summary.coverage.total as u64;

    let span = tr.open("backends.stf", Some(parent));
    let suite = StfBackend.emit_suite(&specs);
    tr.close(span);

    let span = tr.open("interp.validate", Some(parent));
    let (mut model_statements, mut parser_visits) = (0, 0);
    for spec in &specs {
        let (verdict, stats) = execute_and_check_counted(
            &tg.prog,
            p.arch,
            FaultSet::none(),
            spec,
            tg.config.interp_parser_loop_bound,
        );
        pass.checks += 1;
        pass.failed += u64::from(!verdict.is_pass());
        model_statements += stats.statements;
        parser_visits += stats.parser_visits;
    }
    tr.close(span);

    if let Some(reg) = registry {
        let counter =
            |name, labels: &[(&str, &str)]| reg.counter_value(name, labels).unwrap_or(0) as f64;
        let (solve, sat, sat_stats) = tg.solver_stats();
        let (ph, inc) = (&summary.phases, &summary.solver);
        for (key, v) in [
            ("core.step_s", ph.stepping.as_secs_f64()),
            ("core.emit_s", ph.emission.as_secs_f64()),
            ("core.busy_s", ph.busy.as_secs_f64()),
            (
                "core.capacity_s",
                ph.total.as_secs_f64() * f64::from(ph.workers),
            ),
            ("core.paths", summary.paths_explored as f64),
            ("core.tests", summary.tests as f64),
            ("core.infeasible_paths", summary.infeasible_paths as f64),
            ("core.abandoned_paths", summary.abandoned_paths as f64),
            ("core.solver_checks", summary.solver_checks as f64),
            ("core.memo_hits", summary.memo_hits as f64),
            (
                "core.memo_lookups",
                counter("p4testgen_memo_lookups_total", &[]),
            ),
            (
                "core.worker_steals",
                counter("p4testgen_worker_steals_total", &[]),
            ),
            (
                "core.worker_idle_s",
                counter("p4testgen_worker_idle_ns_total", &[]) / 1e9,
            ),
            ("smt.solve_s", solve.as_secs_f64()),
            ("smt.blast_s", solve.saturating_sub(sat).as_secs_f64()),
            ("smt.sat_s", sat.as_secs_f64()),
            ("smt.sat_decisions", sat_stats.decisions as f64),
            ("smt.sat_propagations", sat_stats.propagations as f64),
            ("smt.sat_conflicts", sat_stats.conflicts as f64),
            ("smt.blast_cache_hits", inc.blast_cache_hits as f64),
            ("smt.blast_cache_misses", inc.blast_cache_misses as f64),
            ("smt.warm_checks", inc.warm_checks as f64),
            ("smt.fresh_fallbacks", inc.fresh_fallbacks as f64),
            ("smt.warm_rebuilds", inc.rebuilds as f64),
            ("smt.roots_reused", inc.roots_reused as f64),
            ("smt.roots_blasted", inc.roots_blasted as f64),
            ("smt.simplify_rewrites", inc.simplify.rewrites as f64),
            ("smt.simplify_fast_unsat", inc.simplify.fast_unsat as f64),
            ("smt.learnt_imported", inc.learnt_imported as f64),
            (
                "smt.pool_terms",
                reg.gauge_value("p4testgen_pool_terms", &[]).unwrap_or(0) as f64,
            ),
            ("backends.stf_bytes", suite.len() as f64),
            ("interp.runs", specs.len() as f64),
            ("interp.statements", model_statements as f64),
            ("interp.parser_visits", parser_visits as f64),
        ] {
            pass.add(key, v);
        }
    }
    fnv1a(suite.as_bytes())
}

fn run_pass(w: &Workload, config: &TestgenConfig, tr: &mut Tracer, traced: bool) -> Pass {
    tr.enabled = traced;
    let first_span = tr.spans().len();
    let mut pass = Pass::default();
    let t = Instant::now();
    let pass_span = tr.open("pass", None);
    for p in &w.programs {
        let span = tr.open("program", Some(pass_span));
        let digest = match p.arch {
            Arch::V1Model => run_program(p, V1Model::new(), config, tr, span, &mut pass),
            Arch::Tna => run_program(p, Tofino::tna(), config, tr, span, &mut pass),
            Arch::T2na => run_program(p, Tofino::t2na(), config, tr, span, &mut pass),
            Arch::Ebpf => run_program(p, EbpfModel::new(), config, tr, span, &mut pass),
        };
        tr.close(span);
        pass.digests.push(digest);
    }
    tr.close(pass_span);
    pass.secs = t.elapsed().as_secs_f64();

    if traced {
        for (name, secs) in self_times(&tr.spans()[first_span..]) {
            let key = match name {
                "pass" | "program" => "harness_s",
                "setup" => "setup_span_s",
                _ => SPAN_METRICS
                    .iter()
                    .find(|(span, _)| *span == name)
                    .map_or(name, |m| m.1),
            };
            pass.add(key, secs);
        }
        let other = pass.get("core.run_s") * config.jobs as f64
            - pass.get("core.step_s")
            - pass.get("smt.solve_s")
            - pass.get("core.emit_s")
            - pass.get("core.worker_idle_s");
        pass.add("core.other_s", other.max(0.0));
        let memo = ratio(pass.get("core.memo_hits"), pass.get("core.memo_lookups"));
        pass.add("core.memo_hit_ratio", memo);
        let hits = pass.get("smt.blast_cache_hits");
        let blast = ratio(hits, hits + pass.get("smt.blast_cache_misses"));
        pass.add("smt.blast_hit_ratio", blast);
        let util = ratio(pass.get("core.busy_s"), pass.get("core.capacity_s"));
        pass.add("core.utilization", util);
    }
    pass
}

/// Everything one run measured.
pub struct Report {
    pub workload: &'static str,
    pub config: TestgenConfig,
    /// Seconds per untraced timed pass.
    pub suite_secs: Vec<f64>,
    /// `setup` seconds (`build` + `from_compiled`) per untraced timed pass.
    pub setup_secs: Vec<f64>,
    /// Seconds per traced timed pass, less the frontend and IR probes.
    pub traced_secs: Vec<f64>,
    /// Per-layer values of each traced pass.
    pub ledgers: Vec<BTreeMap<&'static str, f64>>,
    /// Programs plus tests checked, over every pass including the warm-up.
    pub attempted: u64,
    /// Non-`Pass` verdicts, build errors and degraded runs among `attempted`.
    pub failed: u64,
    /// Statements covered per pass, as a percentage of all statements.
    pub coverage_pct: f64,
    /// Every pass emitted byte-identical suites.
    pub digests_stable: bool,
    /// FNV-1a over the per-program suite digests of the warm-up pass.
    pub suite_digest: u64,
    pub tracer: Tracer,
}

/// Run `w`: one warm-up pass, then timed passes until `seconds` have
/// elapsed (at least one). A traced run alternates traced and untraced
/// passes, starting with a traced one, so it measures its own overhead.
pub fn run(w: &Workload, seed: u64, seconds: f64, traced: bool) -> Report {
    let config = pinned_config(seed, w.jobs);
    let mut tracer = Tracer::default();
    let warm = run_pass(w, &config, &mut tracer, false);
    let digest_bytes: Vec<u8> = warm.digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    let mut report = Report {
        workload: w.name,
        config,
        suite_secs: Vec::new(),
        setup_secs: Vec::new(),
        traced_secs: Vec::new(),
        ledgers: Vec::new(),
        attempted: warm.checks,
        failed: warm.failed,
        coverage_pct: 100.0 * ratio(warm.covered as f64, warm.statements as f64),
        digests_stable: true,
        suite_digest: fnv1a(&digest_bytes),
        tracer,
    };
    let started = Instant::now();
    for i in 0.. {
        let traced_pass = traced && i % 2 == 0;
        let p = run_pass(w, &report.config, &mut report.tracer, traced_pass);
        report.attempted += p.checks;
        report.failed += p.failed;
        report.digests_stable &= p.digests == warm.digests;
        if traced_pass {
            report.traced_secs.push(p.secs - p.probe_secs);
            report.ledgers.push(p.ledger);
        } else {
            report.suite_secs.push(p.secs);
            report.setup_secs.push(p.setup_secs);
        }
        let sampled = !report.suite_secs.is_empty() && (!traced || !report.traced_secs.is_empty());
        if sampled && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    report
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.digests_stable
    }

    /// The run's metrics with their units: [`END_TO_END`] for an untraced
    /// run, [`PER_LAYER`] for a traced one.
    pub fn metrics(&self, traced: bool) -> Vec<(&'static str, f64, &'static str)> {
        let layer = |name: &str| {
            let values: Vec<f64> = self
                .ledgers
                .iter()
                .map(|l| l.get(name).copied().unwrap_or(0.0))
                .collect();
            median(&values)
        };
        let value = |name: &str| match name {
            "suite_s" => median(&self.suite_secs),
            "setup_s" => median(&self.setup_secs),
            "peak_rss_mb" => peak_rss_mb().unwrap_or(f64::NAN),
            "coverage_pct" => self.coverage_pct,
            "pass_ratio" => 1.0 - ratio(self.failed as f64, self.attempted as f64),
            "trace_overhead" => median(&self.traced_secs) / median(&self.suite_secs) - 1.0,
            _ => layer(name),
        };
        let list = if traced { PER_LAYER } else { END_TO_END };
        list.iter()
            .map(|&(name, unit)| (name, value(name), unit))
            .collect()
    }

    /// A Fig. 7-style split of a traced pass: rows of seconds summed over
    /// the traced passes, adding up to the pass's CPU time. The frontend
    /// and IR rows come from the probe calls and are carved out of `setup`;
    /// the core rows are CPU time summed over the exploration workers.
    pub fn shares(&self) -> Vec<(&'static str, f64)> {
        let sum = |keys: &[&str]| -> f64 {
            self.ledgers
                .iter()
                .flat_map(|l| keys.iter().map(|k| l.get(k).copied().unwrap_or(0.0)))
                .sum()
        };
        let frontend = sum(&["frontend.parse_s", "frontend.typecheck_s"]);
        let ir = sum(&["ir.lower_s", "ir.optimize_s"]);
        vec![
            ("frontend (parse incl. lex, typecheck)", frontend),
            ("ir (lower, optimize)", ir),
            (
                "setup rest (target check, Testgen)",
                (sum(&["setup_span_s"]) - frontend - ir).max(0.0),
            ),
            ("core: program interpretation", sum(&["core.step_s"])),
            ("core: constraint encoding", sum(&["smt.blast_s"])),
            ("core: SAT search", sum(&["smt.sat_s"])),
            ("core: test emission", sum(&["core.emit_s"])),
            (
                "core: other (scheduling, memo, merge)",
                sum(&["core.other_s"]),
            ),
            ("core: idle workers", sum(&["core.worker_idle_s"])),
            ("backends: STF rendering", sum(&["backends.stf_s"])),
            ("interp: validation", sum(&["interp.validate_s"])),
            ("harness", sum(&["harness_s"])),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn metric_lists_have_unique_valid_names() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
        for (span, metric) in SPAN_METRICS {
            assert!(
                PER_LAYER.iter().any(|(m, _)| *m == metric),
                "{span} -> {metric}"
            );
        }
    }
}
