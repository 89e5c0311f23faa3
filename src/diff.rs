//! `p4testgen diff` — the differential oracle harness.
//!
//! The symbolic engine and the concrete interpreter share the IR and the
//! lowering pipeline, so a lowering bug fools both at once. This mode
//! cross-checks them against the deliberately simple AST-walking reference
//! evaluator (`p4t-refeval`), which shares only the typed frontend, and —
//! in `--cross` mode — runs target-intersection programs under every
//! architecture's semantics, comparing outcomes through the documented
//! quirk list (`p4t_targets::quirks`).
//!
//! ```text
//! p4testgen diff [--target T] program.p4        interp vs refeval, one program
//! p4testgen diff --corpus                       ... over the example corpus
//! p4testgen diff --fuzz-corpus DIR              ... over a fuzz regression corpus
//! p4testgen diff --cross                        refeval across v1model/tna/ebpf
//! p4testgen diff --fault-catalog                inject all 25 faults, count detections
//!
//! options:
//!   --max-tests N         per-program test cap (0 = all) [0]
//!   --seed N              value-selection seed [1]
//!   --jobs, -j N          exploration worker threads [1]
//!   --model-loop-bound N  parser loop bound for both engines [64]
//!                         (and every other engine flag of the generation
//!                         CLI: each is a `TestgenConfig::set` key)
//!   --min-detections N    fault-catalog: fail (exit 1) below N detections
//!   --report FILE         JSONL divergence report (p4testgen-divergence/v1)
//!   --summary-json [FILE] machine-readable summary with a `differential` section
//!   --metrics-out FILE    export metrics (.json → JSON, else Prometheus text)
//!   --quirks-out FILE     export the quirk catalog as JSON
//!   --quiet, -v           verbosity
//! ```
//!
//! Exit codes: 0 = no unsuppressed divergences (fault-catalog: detections
//! reached `--min-detections`), 1 = divergences found or a named program
//! failed to build, 2 = usage or I/O error.
//!
//! Divergences classify into a stable taxonomy, joined to the PR 2 error
//! taxonomy in the JSONL records:
//!
//! * `value-divergence`   — both engines completed; raw outputs differ
//!   beyond the spec's don't-care masks.
//! * `verdict-divergence` — raw observations agree but the two
//!   independently implemented verdict checkers classify them differently.
//! * `trap-divergence`    — exactly one engine trapped.
//! * `quirk-suppressed`   — a cross-target difference explained by the
//!   documented quirk list; reported, never counted as a failure.
//! * `ref-unsupported`    — the reference evaluator does not model the
//!   construct; reported so coverage gaps are visible, never a failure.

use crate::{set_option, write_metrics, write_summary, EXIT_FRONTEND, EXIT_USAGE_IO};
use p4t_interp::{Arch, Fault, FaultSet, FaultTargetClass, Interp, InterpException, InterpResult};
use p4t_obs::{Diag, Level, Registry};
use p4t_refeval::{evaluate, RefArch, RefError, RefRun};
use p4t_targets::{match_quirk, DivergenceContext, SideObservation};
use p4t_interp::Verdict;
use p4testgen::refeval_spec::{ref_input, ref_expect};
use p4testgen_core::{DifferentialSummary, TestSpec, Testgen, TestgenConfig};
use serde::value::{Number, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::Arc;

/// Stable schema tag carried on every JSONL divergence record.
const DIVERGENCE_SCHEMA: &str = "p4testgen-divergence/v1";

/// Taxonomy kinds that count as real (unsuppressed) divergences.
const REAL_KINDS: &[&str] = &["value-divergence", "verdict-divergence", "trap-divergence"];

struct DiffOptions {
    program: Option<String>,
    target: String,
    corpus: bool,
    fuzz_corpus: Option<String>,
    cross: bool,
    fault_catalog: bool,
    min_detections: Option<u64>,
    /// Engine flags, as in the CLI; `model_loop_bound` also bounds refeval.
    config: TestgenConfig,
    report: Option<String>,
    summary_json: Option<Option<String>>,
    metrics_out: Option<String>,
    quirks_out: Option<String>,
    verbosity: Level,
}

fn usage() -> ! {
    eprintln!(
        "usage: p4testgen diff [--target <v1model|tna|t2na|ebpf_model>] [program.p4]\n\
         \t[--corpus] [--fuzz-corpus DIR] [--cross] [--fault-catalog]\n\
         \t[--max-tests N] [--seed N] [--jobs N] [--model-loop-bound N]\n\
         \t[--min-detections N] [--report FILE] [--summary-json [FILE]]\n\
         \t[--metrics-out FILE] [--quirks-out FILE] [--quiet] [-v]"
    );
    std::process::exit(2);
}

fn parse_args(argv: &[String]) -> DiffOptions {
    let mut opts = DiffOptions {
        program: None,
        target: "v1model".to_string(),
        corpus: false,
        fuzz_corpus: None,
        cross: false,
        fault_catalog: false,
        min_detections: None,
        config: TestgenConfig::default(),
        report: None,
        summary_json: None,
        metrics_out: None,
        quirks_out: None,
        verbosity: Level::Info,
    };
    let mut args = argv.iter().cloned().peekable();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--target" => opts.target = args.next().unwrap_or_else(|| usage()),
            "--corpus" => opts.corpus = true,
            "--fuzz-corpus" => opts.fuzz_corpus = Some(args.next().unwrap_or_else(|| usage())),
            "--cross" => opts.cross = true,
            "--fault-catalog" => opts.fault_catalog = true,
            "--min-detections" => {
                opts.min_detections =
                    Some(args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| usage()))
            }
            "-j" => set_option(&mut opts.config, "--jobs", args.next(), usage),
            "--with-constraints" => {
                set_option(&mut opts.config, &a, Some("true".to_string()), usage)
            }
            "--report" => opts.report = Some(args.next().unwrap_or_else(|| usage())),
            "--summary-json" => opts.summary_json = Some(args.next_if(|f| f.ends_with(".json"))),
            "--metrics-out" => opts.metrics_out = Some(args.next().unwrap_or_else(|| usage())),
            "--quirks-out" => opts.quirks_out = Some(args.next().unwrap_or_else(|| usage())),
            "--quiet" => opts.verbosity = Level::Error,
            "-v" | "--verbose" => opts.verbosity = Level::Verbose,
            "--help" | "-h" => usage(),
            other if !other.starts_with('-') => opts.program = Some(other.to_string()),
            flag => set_option(&mut opts.config, flag, args.next(), usage),
        }
    }
    let sources = usize::from(opts.program.is_some())
        + usize::from(opts.corpus)
        + usize::from(opts.fuzz_corpus.is_some())
        + usize::from(opts.cross)
        + usize::from(opts.fault_catalog);
    if sources != 1 {
        usage();
    }
    opts
}

// ---------------------------------------------------------------------------
// Divergence records and tallies
// ---------------------------------------------------------------------------

/// One classified comparison outcome worth reporting.
#[derive(Clone, Debug)]
struct Divergence {
    program: String,
    test_id: u64,
    engine_a: String,
    engine_b: String,
    kind: String,
    quirk: Option<String>,
    fault: Option<String>,
    detail: String,
}

impl Divergence {
    fn to_json(&self) -> Value {
        let opt = |s: &Option<String>| match s {
            Some(v) => Value::String(v.clone()),
            None => Value::Null,
        };
        Value::Object(vec![
            ("schema".into(), Value::String(DIVERGENCE_SCHEMA.into())),
            ("program".into(), Value::String(self.program.clone())),
            ("test".into(), Value::Number(Number::U(self.test_id))),
            ("engine_a".into(), Value::String(self.engine_a.clone())),
            ("engine_b".into(), Value::String(self.engine_b.clone())),
            ("kind".into(), Value::String(self.kind.clone())),
            ("quirk".into(), opt(&self.quirk)),
            ("fault".into(), opt(&self.fault)),
            ("detail".into(), Value::String(self.detail.clone())),
        ])
    }
}

#[derive(Default)]
struct Tally {
    programs: u64,
    comparisons: u64,
    by_kind: BTreeMap<String, u64>,
    records: Vec<Divergence>,
    faults_injected: u64,
    faults_detected: u64,
}

impl Tally {
    fn record(&mut self, d: Divergence) {
        *self.by_kind.entry(d.kind.clone()).or_insert(0) += 1;
        self.records.push(d);
    }

    fn count(&self, kind: &str) -> u64 {
        self.by_kind.get(kind).copied().unwrap_or(0)
    }

    /// Unsuppressed divergences — the run's failure count.
    fn divergences(&self) -> u64 {
        REAL_KINDS.iter().map(|k| self.count(k)).sum()
    }

    fn into_summary(self, mode: &str) -> (DifferentialSummary, Vec<Divergence>) {
        let mut records = self.records;
        // Deterministic report order regardless of exploration job count.
        records.sort_by(|a, b| {
            (&a.program, a.test_id, &a.engine_b, &a.kind, &a.fault)
                .cmp(&(&b.program, b.test_id, &b.engine_b, &b.kind, &b.fault))
        });
        let summary = DifferentialSummary {
            mode: mode.to_string(),
            programs: self.programs,
            comparisons: self.comparisons,
            divergences: REAL_KINDS
                .iter()
                .map(|k| self.by_kind.get(*k).copied().unwrap_or(0))
                .sum(),
            by_kind: self.by_kind.into_iter().collect(),
            quirk_suppressed: 0,
            ref_unsupported: 0,
            faults_injected: self.faults_injected,
            faults_detected: self.faults_detected,
        };
        let mut summary = summary;
        summary.quirk_suppressed =
            summary.by_kind.iter().find(|(k, _)| k == "quirk-suppressed").map_or(0, |(_, n)| *n);
        summary.ref_unsupported =
            summary.by_kind.iter().find(|(k, _)| k == "ref-unsupported").map_or(0, |(_, n)| *n);
        (summary, records)
    }
}

// ---------------------------------------------------------------------------
// Comparison and classification
// ---------------------------------------------------------------------------

fn verdict_kind(v: &Verdict) -> &'static str {
    match v {
        Verdict::Pass => "pass",
        Verdict::WrongOutput(_) => "wrong-output",
        Verdict::Exception(_) => "exception",
    }
}

/// Mask-aware raw output comparison: bits the spec marks as don't-care
/// (tainted/uninitialized) legitimately differ between the two engines'
/// garbage policies; everything else must agree bit-for-bit.
fn outputs_differ(
    spec: &TestSpec,
    a: &[(u32, Vec<u8>)],
    b: &[(u32, Vec<u8>)],
) -> Option<String> {
    if a.len() != b.len() {
        return Some(format!("interp emitted {} packet(s), reference {}", a.len(), b.len()));
    }
    let mut sa: Vec<&(u32, Vec<u8>)> = a.iter().collect();
    let mut sb: Vec<&(u32, Vec<u8>)> = b.iter().collect();
    sa.sort_by_key(|(p, _)| *p);
    sb.sort_by_key(|(p, _)| *p);
    for ((pa, da), (pb, db)) in sa.iter().zip(&sb) {
        if pa != pb {
            return Some(format!("interp port {pa} vs reference port {pb}"));
        }
        if da.len() != db.len() {
            return Some(format!(
                "port {pa}: interp {} byte(s) vs reference {}",
                da.len(),
                db.len()
            ));
        }
        let mask = spec
            .outputs
            .iter()
            .find(|o| o.port == *pa && o.packet.data.len() == da.len())
            .map(|o| o.packet.mask.as_slice());
        for (i, (x, y)) in da.iter().zip(db.iter()).enumerate() {
            let m = mask.and_then(|m| m.get(i)).copied().unwrap_or(0xFF);
            if (x ^ y) & m != 0 {
                return Some(format!(
                    "port {pa} byte {i}: interp {x:02x} vs reference {y:02x} (mask {m:02x})"
                ));
            }
        }
    }
    None
}

/// Classify one interp-vs-refeval comparison. `None` means agreement.
fn classify(
    spec: &TestSpec,
    interp: &Result<InterpResult, InterpException>,
    reference: &Result<RefRun, RefError>,
) -> Option<(&'static str, String)> {
    match reference {
        Err(RefError::Unsupported(m)) => {
            return Some(("ref-unsupported", m.clone()));
        }
        Err(RefError::Trap(m)) => {
            return match interp {
                // Both engines trapped: agreement on the observable outcome
                // (the messages are independently worded by design).
                Err(_) => None,
                Ok(_) => Some((
                    "trap-divergence",
                    format!("reference trapped ({m}); interp completed"),
                )),
            };
        }
        Ok(_) => {}
    }
    let run = match reference {
        Ok(r) => r,
        Err(_) => unreachable!(),
    };
    let ires = match interp {
        Err(e) => {
            return Some((
                "trap-divergence",
                format!("interp trapped ({}); reference completed", e.0),
            ));
        }
        Ok(r) => r,
    };
    if let Some(detail) = outputs_differ(spec, &ires.outputs, &run.outputs) {
        return Some(("value-divergence", detail));
    }
    // Register cells the spec constrains must agree exactly; unconstrained
    // cells may hold garbage-policy artifacts on either side.
    for r in &spec.register_expect {
        let key = (r.instance.clone(), r.index);
        let iv = ires.register_final.get(&key);
        let rv = run.register_final.get(&key);
        if iv != rv {
            return Some((
                "value-divergence",
                format!(
                    "register {}[{}]: interp {:02x?} vs reference {:02x?}",
                    r.instance, r.index, iv, rv
                ),
            ));
        }
    }
    // Raw observations agree; the two independently implemented verdict
    // checkers must classify them identically.
    let iv = p4t_interp::check(spec, Ok(ires.clone()));
    let rv = p4t_refeval::check(&ref_expect(spec), reference);
    if verdict_kind(&iv) != rv.kind() {
        return Some((
            "verdict-divergence",
            format!("interp verdict {iv} vs reference verdict {rv:?}"),
        ));
    }
    None
}

// ---------------------------------------------------------------------------
// Program preparation
// ---------------------------------------------------------------------------

/// One program compiled for both engines: a generated suite plus the
/// typed-AST compile the reference evaluator walks.
struct Prepared {
    name: String,
    target: String,
    tests: Vec<TestSpec>,
    prog: p4t_ir::IrProgram,
    arch: Arch,
    ref_arch: RefArch,
    checked: p4t_frontend::typecheck::CheckedProgram,
}

/// Generate a suite and compile the reference-side AST for one program.
fn prepare(
    name: &str,
    source: &str,
    target: &str,
    config: TestgenConfig,
) -> Result<Prepared, String> {
    let (Some(t), Some(arch), Some(ref_arch)) = (
        p4t_targets::by_name(target),
        Arch::from_target_name(target),
        RefArch::from_target_name(target),
    ) else {
        return Err(format!("unknown target '{target}'"));
    };
    let mut tg =
        Testgen::new_checked(name, source, t, config).map_err(|e| format!("build failed: {e}"))?;
    let mut tests = Vec::new();
    tg.try_run(|t| {
        tests.push(t.clone());
        true
    })
    .map_err(|e| format!("generation failed: {e}"))?;
    let checked = p4t_frontend::frontend_with_prelude(tg.target.prelude(), source)
        .map_err(|d| format!("reference-side frontend rejected the program ({} diagnostic(s))", d.len()))?;
    Ok(Prepared {
        name: name.to_string(),
        target: target.to_string(),
        tests,
        prog: tg.prog,
        arch,
        ref_arch,
        checked,
    })
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

/// Interp-vs-refeval over a list of programs. Programs that fail to build
/// are skipped with a note when `lenient` (fuzz corpora are mostly crash
/// findings that never compiled) and are hard errors otherwise.
fn run_interp_vs_ref(
    programs: &[(String, String, String)],
    opts: &DiffOptions,
    diag: &Diag,
    lenient: bool,
) -> Result<Tally, ExitCode> {
    let bound = opts.config.interp_parser_loop_bound;
    let mut tally = Tally::default();
    for (name, source, target) in programs {
        let prepared = match prepare(name, source, target, opts.config.clone()) {
            Ok(p) => p,
            Err(e) if lenient => {
                diag.verbose(format!("{name}: skipped ({e})"));
                continue;
            }
            Err(e) => {
                diag.error(format!("{name}: {e}"));
                return Err(ExitCode::from(EXIT_FRONTEND));
            }
        };
        tally.programs += 1;
        let engine_a = format!("interp:{target}");
        let engine_b = format!("refeval:{target}");
        for spec in &prepared.tests {
            let interp = Interp::new(&prepared.prog, prepared.arch, FaultSet::none())
                .with_parser_loop_bound(bound)
                .run(spec);
            let reference = evaluate(&prepared.checked, prepared.ref_arch, &ref_input(spec), bound);
            tally.comparisons += 1;
            if let Some((kind, detail)) = classify(spec, &interp, &reference) {
                tally.record(Divergence {
                    program: prepared.name.clone(),
                    test_id: spec.id,
                    engine_a: engine_a.clone(),
                    engine_b: engine_b.clone(),
                    kind: kind.to_string(),
                    quirk: None,
                    fault: None,
                    detail,
                });
            }
        }
        diag.verbose(format!(
            "{name}: {} test(s) compared against the reference evaluator",
            prepared.tests.len()
        ));
    }
    Ok(tally)
}

/// Fault-catalog mode: plant each of the 25 catalog faults into the interp
/// only and check that the interp-vs-refeval comparison flags a divergence.
/// The reference side runs unfaulted once per test and is reused across
/// all faults.
fn run_fault_catalog(opts: &DiffOptions, diag: &Diag) -> Result<Tally, ExitCode> {
    let bound = opts.config.interp_parser_loop_bound;
    let mut tally = Tally::default();
    // Prepare every corpus program once; cache the reference outcomes.
    let mut prepared: Vec<(Prepared, Vec<Result<RefRun, RefError>>)> = Vec::new();
    for (name, source, target) in p4t_corpus::all_programs() {
        match prepare(name, &source, target, opts.config.clone()) {
            Ok(p) => {
                let refs: Vec<_> = p
                    .tests
                    .iter()
                    .map(|spec| evaluate(&p.checked, p.ref_arch, &ref_input(spec), bound))
                    .collect();
                // Tests the reference cannot model can never witness a
                // fault; report the gap once per test, not once per fault.
                for (spec, r) in p.tests.iter().zip(&refs) {
                    if let Err(RefError::Unsupported(m)) = r {
                        tally.record(Divergence {
                            program: p.name.clone(),
                            test_id: spec.id,
                            engine_a: format!("interp:{}", p.target),
                            engine_b: format!("refeval:{}", p.target),
                            kind: "ref-unsupported".to_string(),
                            quirk: None,
                            fault: None,
                            detail: m.clone(),
                        });
                    }
                }
                tally.programs += 1;
                prepared.push((p, refs));
            }
            Err(e) => diag.verbose(format!("{name}: skipped ({e})")),
        }
    }
    for fault in Fault::catalog() {
        tally.faults_injected += 1;
        let mut detected = false;
        'progs: for (p, refs) in &prepared {
            let applies = match fault.target_class() {
                FaultTargetClass::Bmv2 => p.arch == Arch::V1Model,
                FaultTargetClass::Tofino => matches!(p.arch, Arch::Tna | Arch::T2na),
            };
            if !applies {
                continue;
            }
            for (spec, reference) in p.tests.iter().zip(refs) {
                if matches!(reference, Err(RefError::Unsupported(_))) {
                    continue;
                }
                let interp = Interp::new(&p.prog, p.arch, FaultSet::single(fault))
                    .with_parser_loop_bound(bound)
                    .run(spec);
                tally.comparisons += 1;
                if let Some((kind, detail)) = classify(spec, &interp, reference) {
                    tally.record(Divergence {
                        program: p.name.clone(),
                        test_id: spec.id,
                        engine_a: format!("interp:{}+{}", p.target, fault.label()),
                        engine_b: format!("refeval:{}", p.target),
                        kind: kind.to_string(),
                        quirk: None,
                        fault: Some(fault.label().to_string()),
                        detail,
                    });
                    detected = true;
                    break 'progs;
                }
            }
        }
        if detected {
            tally.faults_detected += 1;
            diag.verbose(format!("fault {} detected", fault.label()));
        } else {
            diag.warn(format!(
                "fault {} ({}) NOT detected by the differential harness",
                fault.label(),
                fault.description()
            ));
        }
    }
    Ok(tally)
}

/// Observable facts of one reference run, for the quirk matchers.
fn observe(target: &str, outcome: &Result<RefRun, RefError>) -> SideObservation {
    match outcome {
        Ok(run) => SideObservation {
            target: target.to_string(),
            dropped: run.outputs.is_empty(),
            trap: None,
            output_lens: run.outputs.iter().map(|(_, d)| d.len()).collect(),
            ports: run.outputs.iter().map(|(p, _)| *p).collect(),
            parser_rejected: run.trace.iter().any(|t| t.contains("parser reject")),
        },
        Err(e) => SideObservation {
            target: target.to_string(),
            dropped: true,
            trap: Some(e.message().to_string()),
            output_lens: Vec::new(),
            ports: Vec::new(),
            parser_rejected: false,
        },
    }
}

/// Cross-target mode: run the target-intersection programs under every
/// architecture's reference semantics on identical inputs and control
/// planes; compare the v1model baseline against each other target through
/// the quirk list.
fn run_cross(opts: &DiffOptions, diag: &Diag) -> Result<Tally, ExitCode> {
    let bound = opts.config.interp_parser_loop_bound;
    let mut tally = Tally::default();
    // The suite comes from the v1model variant; 64-byte fixed inputs keep
    // the Tofino minimum-frame rule from suppressing every comparison.
    let mut config = opts.config.clone();
    config.preconditions.fixed_packet_bytes = Some(64);
    let base_src = p4t_corpus::generate_intersection("v1model");
    let base = match prepare("intersection", &base_src, "v1model", config) {
        Ok(p) => p,
        Err(e) => {
            diag.error(format!("intersection program: {e}"));
            return Err(ExitCode::from(EXIT_FRONTEND));
        }
    };
    // Compile every variant for the reference evaluator.
    let mut variants: Vec<(String, RefArch, p4t_frontend::typecheck::CheckedProgram)> = Vec::new();
    for target in p4t_corpus::INTERSECTION_TARGETS {
        let src = p4t_corpus::generate_intersection(target);
        let t = p4t_targets::by_name(target).expect("intersection targets are known");
        match p4t_frontend::frontend_with_prelude(t.prelude(), &src) {
            Ok(checked) => {
                let arch = RefArch::from_target_name(target).expect("known target");
                variants.push((target.to_string(), arch, checked));
            }
            Err(d) => {
                diag.error(format!(
                    "intersection variant {target}: frontend rejected ({} diagnostic(s))",
                    d.len()
                ));
                return Err(ExitCode::from(EXIT_FRONTEND));
            }
        }
    }
    tally.programs = variants.len() as u64;
    for spec in &base.tests {
        let input = ref_input(spec);
        let outcomes: Vec<(String, Result<RefRun, RefError>)> = variants
            .iter()
            .map(|(t, arch, checked)| (t.clone(), evaluate(checked, *arch, &input, bound)))
            .collect();
        // Unsupported constructs in any variant gap the whole comparison.
        for (t, o) in &outcomes {
            if let Err(RefError::Unsupported(m)) = o {
                tally.record(Divergence {
                    program: "intersection".to_string(),
                    test_id: spec.id,
                    engine_a: "refeval:v1model".to_string(),
                    engine_b: format!("refeval:{t}"),
                    kind: "ref-unsupported".to_string(),
                    quirk: None,
                    fault: None,
                    detail: m.clone(),
                });
            }
        }
        let (base_target, base_outcome) = &outcomes[0];
        if matches!(base_outcome, Err(RefError::Unsupported(_))) {
            continue;
        }
        let obs_a = observe(base_target, base_outcome);
        for (t, o) in &outcomes[1..] {
            if matches!(o, Err(RefError::Unsupported(_))) {
                continue;
            }
            tally.comparisons += 1;
            let obs_b = observe(t, o);
            let differs = obs_a.dropped != obs_b.dropped
                || obs_a.ports != obs_b.ports
                || obs_a.trap.is_some() != obs_b.trap.is_some()
                || match (base_outcome, o) {
                    (Ok(a), Ok(b)) => a.outputs != b.outputs,
                    _ => false,
                };
            if !differs {
                continue;
            }
            let ctx = DivergenceContext {
                input_len: spec.input_packet.len(),
                a: obs_a.clone(),
                b: obs_b.clone(),
            };
            let (kind, quirk) = match match_quirk(&ctx) {
                Some(id) => ("quirk-suppressed", Some(id.to_string())),
                None if obs_a.trap.is_some() != obs_b.trap.is_some() => ("trap-divergence", None),
                None if obs_a.dropped != obs_b.dropped => ("verdict-divergence", None),
                None => ("value-divergence", None),
            };
            tally.record(Divergence {
                program: "intersection".to_string(),
                test_id: spec.id,
                engine_a: format!("refeval:{base_target}"),
                engine_b: format!("refeval:{t}"),
                kind: kind.to_string(),
                quirk,
                fault: None,
                detail: format!(
                    "{base_target}: dropped={} ports={:?} lens={:?} trap={:?}; \
                     {t}: dropped={} ports={:?} lens={:?} trap={:?}",
                    obs_a.dropped, obs_a.ports, obs_a.output_lens, obs_a.trap,
                    obs_b.dropped, obs_b.ports, obs_b.output_lens, obs_b.trap
                ),
            });
        }
    }
    Ok(tally)
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

pub fn diff_main(argv: &[String]) -> ExitCode {
    let opts = parse_args(argv);
    let diag = Diag::new(opts.verbosity);
    let registry = opts.metrics_out.as_ref().map(|_| Arc::new(Registry::new()));

    let (mode, result) = if opts.cross {
        ("cross-target", run_cross(&opts, &diag))
    } else if opts.fault_catalog {
        ("fault-catalog", run_fault_catalog(&opts, &diag))
    } else if opts.corpus {
        let programs: Vec<_> = p4t_corpus::all_programs()
            .into_iter()
            .map(|(n, s, t)| (n.to_string(), s, t.to_string()))
            .collect();
        ("interp-vs-refeval", run_interp_vs_ref(&programs, &opts, &diag, false))
    } else if let Some(dir) = &opts.fuzz_corpus {
        let mut programs = Vec::new();
        let entries = match std::fs::read_dir(dir) {
            Ok(e) => e,
            Err(e) => {
                diag.error(format!("cannot read {dir}: {e}"));
                return ExitCode::from(EXIT_USAGE_IO);
            }
        };
        let mut paths: Vec<_> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "p4"))
            .collect();
        paths.sort();
        for path in paths {
            let Ok(source) = std::fs::read_to_string(&path) else { continue };
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            // Fuzz findings carry their architecture in a header comment.
            let target = p4t_corpus::fuzz::arch_of(&source).to_string();
            programs.push((name, source, target));
        }
        diag.info(format!("replaying {} fuzz corpus file(s)", programs.len()));
        ("interp-vs-refeval", run_interp_vs_ref(&programs, &opts, &diag, true))
    } else {
        let path = opts.program.as_deref().expect("mode validation admits a program");
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                diag.error(format!("cannot read {path}: {e}"));
                return ExitCode::from(EXIT_USAGE_IO);
            }
        };
        let name = path.rsplit('/').next().unwrap_or(path).to_string();
        let programs = vec![(name, source, opts.target.clone())];
        ("interp-vs-refeval", run_interp_vs_ref(&programs, &opts, &diag, false))
    };
    let tally = match result {
        Ok(t) => t,
        Err(code) => return code,
    };

    let divergences = tally.divergences();
    let (summary, records) = tally.into_summary(mode);

    // Human-readable outcome line.
    match mode {
        "fault-catalog" => diag.info(format!(
            "{} comparison(s); {}/{} injected fault(s) detected",
            summary.comparisons, summary.faults_detected, summary.faults_injected
        )),
        _ => diag.info(format!(
            "{} comparison(s) over {} program(s): {} divergence(s), \
             {} quirk-suppressed, {} unsupported by the reference",
            summary.comparisons,
            summary.programs,
            summary.divergences,
            summary.quirk_suppressed,
            summary.ref_unsupported
        )),
    }
    for d in records.iter().filter(|d| REAL_KINDS.contains(&d.kind.as_str())) {
        let fault = d.fault.as_deref().map(|f| format!(" [{f}]")).unwrap_or_default();
        let line =
            format!("{}: test {}: {} ({} vs {}): {}{fault}", d.program, d.test_id, d.kind, d.engine_a, d.engine_b, d.detail);
        // In fault-catalog mode divergences are the detections, not failures.
        if mode == "fault-catalog" {
            diag.verbose(line);
        } else {
            diag.error(line);
        }
    }

    // Machine-readable sinks.
    if let Some(path) = &opts.report {
        let mut jsonl = String::new();
        for d in &records {
            jsonl.push_str(&serde_json::to_string(&d.to_json()).unwrap_or_default());
            jsonl.push('\n');
        }
        if let Err(e) = std::fs::write(path, jsonl) {
            diag.error(format!("cannot write {path}: {e}"));
            return ExitCode::from(EXIT_USAGE_IO);
        }
        diag.verbose(format!("wrote divergence report {path}"));
    }
    if let Some(path) = &opts.quirks_out {
        let mut s =
            serde_json::to_string_pretty(&p4t_targets::quirks::catalog_json()).unwrap_or_default();
        s.push('\n');
        if let Err(e) = std::fs::write(path, s) {
            diag.error(format!("cannot write {path}: {e}"));
            return ExitCode::from(EXIT_USAGE_IO);
        }
    }
    if let Some(reg) = &registry {
        reg.counter("p4testgen_diff_comparisons_total", "differential comparisons executed")
            .add(summary.comparisons);
        for (kind, n) in &summary.by_kind {
            reg.counter_with(
                "p4testgen_diff_divergences_total",
                "classified differential divergences by taxonomy kind",
                &[("kind", kind)],
            )
            .add(*n);
        }
        reg.counter("p4testgen_diff_faults_injected_total", "faults injected (fault-catalog mode)")
            .add(summary.faults_injected);
        reg.counter("p4testgen_diff_faults_detected_total", "faults detected (fault-catalog mode)")
            .add(summary.faults_detected);
    }
    if let (Some(path), Some(reg)) = (&opts.metrics_out, &registry) {
        if write_metrics(path, reg, &diag).is_err() {
            return ExitCode::from(EXIT_USAGE_IO);
        }
    }
    if let Some(dest) = &opts.summary_json {
        let payload = Value::Object(vec![
            ("schema".into(), Value::String("p4testgen-diff/v1".into())),
            ("differential".into(), summary.to_json()),
        ]);
        if write_summary(dest, &payload, &diag).is_err() {
            return ExitCode::from(EXIT_USAGE_IO);
        }
    }

    // Exit-code contract: fault-catalog mode succeeds when detections reach
    // the requested floor (divergences there are the point); every other
    // mode fails on any unsuppressed divergence.
    if mode == "fault-catalog" {
        if let Some(min) = opts.min_detections {
            if summary.faults_detected < min {
                diag.error(format!(
                    "only {}/{} fault(s) detected (floor {min})",
                    summary.faults_detected, summary.faults_injected
                ));
                return ExitCode::FAILURE;
            }
        }
        return ExitCode::SUCCESS;
    }
    if divergences > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
