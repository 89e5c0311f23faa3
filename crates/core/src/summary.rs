//! What a run reports: the end-of-run [`RunSummary`] with its phase
//! timings, degradation taxonomy, resume bookkeeping, per-test provenance
//! and differential results, and its `p4testgen-run-summary/v2` JSON form.

use crate::coverage::{AbandonSite, CoverageReport};
use p4t_obs::trace::TraceLog;
use p4t_smt::solver::IncrementalStats;
use crate::config::SolverMode;
use serde::value::{Number, Value};
use std::collections::BTreeMap;
use std::time::Duration;

/// Per-phase timing, the data behind our Fig. 7 reproduction.
///
/// Two clocks are reported and must not be conflated. `stepping`,
/// `solving`, `emission`, and `busy` are **CPU time summed across
/// workers** — with `jobs = 8` they can legitimately total up to 8× the
/// run's duration. `total` is the run's true **wall-clock** time, measured
/// once on the coordinating thread. [`PhaseStats::utilization`] relates the
/// two: busy CPU time as a fraction of the `workers × total` capacity, so
/// 1.0 means no worker ever starved.
#[derive(Clone, Debug, Default)]
pub struct PhaseStats {
    /// CPU time stepping the symbolic executor, summed across workers.
    pub stepping: Duration,
    /// States forked while stepping, summed across workers.
    pub forks: u64,
    /// CPU time making those forks, summed; part of `stepping`.
    pub fork: Duration,
    /// CPU time inside the solver (bit-blasting + SAT search), summed.
    pub solving: Duration,
    /// CPU time concretizing models into test specifications, summed.
    pub emission: Duration,
    /// CPU time workers spent holding a state (processing, as opposed to
    /// polling empty queues), summed across workers. Superset of the three
    /// phase components above.
    pub busy: Duration,
    /// Wall-clock duration of the whole run (single clock, not summed).
    pub total: Duration,
    /// Number of exploration workers that produced the summed figures.
    pub workers: u32,
}

impl PhaseStats {
    pub(crate) fn absorb(&mut self, other: &PhaseStats) {
        self.stepping += other.stepping;
        self.forks += other.forks;
        self.fork += other.fork;
        self.solving += other.solving;
        self.emission += other.emission;
        self.busy += other.busy;
        // `total` and `workers` are run-level, set once by the merger.
    }

    /// Fraction of the pool's wall-clock capacity (`workers × total`) spent
    /// busy. Low values under `--jobs > 1` mean workers starved for work.
    pub fn utilization(&self) -> f64 {
        let capacity = self.total.as_secs_f64() * f64::from(self.workers.max(1));
        if capacity <= 0.0 {
            0.0
        } else {
            (self.busy.as_secs_f64() / capacity).min(1.0)
        }
    }
}

/// Stable keys for the abandoned-path reason taxonomy (the map keys in
/// [`ErrorStats::abandoned_by_reason`]). Everything the engine gives up on
/// is attributed to exactly one of these.
pub mod reason {
    /// Per-path step budget exhausted (`MAX_STEPS_PER_PATH`).
    pub const STEP_BUDGET: &str = "step-budget";
    /// Parser loop bound hit (symbolic executor or software model).
    pub const PARSER_LOOP_BOUND: &str = "parser-loop-bound";
    /// A solver query came back Unknown (budget exhausted or injected).
    pub const SOLVER_UNKNOWN: &str = "solver-unknown";
    /// Tainted output port / taint-dependent control flow (§5.3).
    pub const TAINTED_OUTPUT: &str = "tainted-output";
    /// The §5.4 concolic loop found no consistent concrete assignment.
    pub const CONCOLIC_UNRESOLVED: &str = "concolic-unresolved";
    /// The finished path's full constraint set was unsatisfiable at
    /// emission time.
    pub const EMISSION_UNSAT: &str = "emission-unsat";
    /// The path panicked and was isolated.
    pub const PANIC: &str = "panic";
    /// The run deadline expired while this path was in flight.
    pub const DEADLINE: &str = "deadline";
    /// Any other executor exception (unknown extern, malformed IR, ...).
    pub const EXEC_ERROR: &str = "exec-error";
}

/// Map a free-form abandon message onto the stable reason taxonomy.
pub fn classify_abandon_reason(msg: &str) -> &'static str {
    if msg.contains("step budget") {
        reason::STEP_BUDGET
    } else if msg.contains("parser loop bound") {
        reason::PARSER_LOOP_BOUND
    } else if msg.contains("deadline") || msg.contains("drain") {
        reason::DEADLINE
    } else if msg.contains("solver unknown") {
        reason::SOLVER_UNKNOWN
    } else {
        reason::EXEC_ERROR
    }
}

/// One isolated panic: where it happened and what it said.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PanicRecord {
    /// Fork trail of the poisoned path (possibly mid-extension).
    pub trail: Vec<u32>,
    /// The panic payload, downcast to text when possible.
    pub payload: String,
    /// The last execution-trace line before the panic (program point).
    pub last_trace: Option<String>,
}

/// Structured degradation taxonomy for a run: everything that kept it from
/// being a full, clean exploration. All counters are deterministic for a
/// fixed seed and config at any worker count (they are keyed by fork trail,
/// not by schedule), with the caveats noted on `deadline_expired`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ErrorStats {
    /// Solver queries that ended Unknown, after any retry.
    pub unknown_queries: u64,
    /// Unknown queries retried with a rotated phase seed.
    pub budget_retries: u64,
    /// Paths that panicked and were isolated (worker survived).
    pub panicked_paths: u64,
    /// The wall-clock deadline expired before exploration finished. Which
    /// paths were cut off is schedule-dependent; the emitted suite is still
    /// a trail-sorted subset of the full deterministic suite.
    pub deadline_expired: bool,
    /// Model-eval fallbacks to 0 during emission (a solver-model gap — the
    /// emitted test may not exercise what the path constraints promised).
    pub model_defaults: u64,
    /// Abandoned paths bucketed by [`reason`] key.
    pub abandoned_by_reason: BTreeMap<String, u64>,
    /// Detail for the first few isolated panics, trail-sorted.
    pub panics: Vec<PanicRecord>,
    /// Warning-severity frontend diagnostics from compiling the program
    /// (the program still compiled; errors abort the build instead).
    pub frontend_warnings: u64,
}

/// Cap on retained [`PanicRecord`]s (counters keep counting past it).
pub(crate) const MAX_PANIC_RECORDS: usize = 32;

impl ErrorStats {
    pub(crate) fn bump_reason(&mut self, key: &str) {
        *self.abandoned_by_reason.entry(key.to_string()).or_insert(0) += 1;
    }

    pub(crate) fn absorb(&mut self, other: &ErrorStats) {
        self.unknown_queries += other.unknown_queries;
        self.budget_retries += other.budget_retries;
        self.panicked_paths += other.panicked_paths;
        self.deadline_expired |= other.deadline_expired;
        self.model_defaults += other.model_defaults;
        for (k, v) in &other.abandoned_by_reason {
            *self.abandoned_by_reason.entry(k.clone()).or_insert(0) += v;
        }
        self.panics.extend(other.panics.iter().cloned());
        self.frontend_warnings += other.frontend_warnings;
    }

    /// True when the run degraded in no way at all.
    pub fn is_clean(&self) -> bool {
        self.unknown_queries == 0
            && self.budget_retries == 0
            && self.panicked_paths == 0
            && !self.deadline_expired
            && self.model_defaults == 0
    }
}

impl std::fmt::Display for ErrorStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} unknown queries ({} retried), {} panicked paths, {} model defaults{}",
            self.unknown_queries,
            self.budget_retries,
            self.panicked_paths,
            self.model_defaults,
            if self.deadline_expired { ", deadline expired" } else { "" }
        )?;
        if !self.abandoned_by_reason.is_empty() {
            write!(f, "; abandoned by reason:")?;
            for (k, v) in &self.abandoned_by_reason {
                write!(f, " {k}={v}")?;
            }
        }
        if self.frontend_warnings > 0 {
            write!(f, "; {} frontend warning(s)", self.frontend_warnings)?;
        }
        Ok(())
    }
}

/// Checkpoint/resume bookkeeping for one run. Present in
/// [`RunSummary::resume`] whenever checkpointing or resuming was configured
/// (or a kill fault fired); `None` otherwise.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResumeInfo {
    /// This run continued from a validated checkpoint.
    pub resumed: bool,
    /// Frontier trails restored (and replayed) from the checkpoint.
    pub frontier_restored: u64,
    /// Emitted tests carried over from the checkpoint.
    pub tests_restored: u64,
    /// Frontier trails successfully replayed to live states at resume
    /// time (a subset of `frontier_restored`; trails that fail to replay
    /// are dropped with a warning rather than aborting the run).
    pub replayed_trails: u64,
    /// Feasibility-memo entries carried over from the checkpoint.
    pub memo_restored: u64,
    /// Destination checkpoint file, when one is configured.
    pub checkpoint_path: Option<String>,
    /// Checkpoints written over the whole campaign (including the final
    /// flush, and counting earlier resumed segments).
    pub checkpoints_written: u64,
    /// Frontier trails left unexplored when the run ended (0 for a clean
    /// completion; nonzero means the final checkpoint is resumable).
    pub frontier_remaining: u64,
    /// Why exploration stopped early: `"deadline"`, `"signal"`, or
    /// `"kill-fault"`; `None` for a clean completion.
    pub interrupted: Option<String>,
    /// A resume state was offered but rejected (classification key, e.g.
    /// `"config-mismatch"`); the run cold-started instead.
    pub rejected: Option<String>,
    /// The first checkpoint-write failure, if any (the run continues; the
    /// previous on-disk checkpoint stays intact).
    pub flush_error: Option<String>,
    /// The accepted checkpoint was written under a different `--shard`
    /// filter than this run's (human-readable description). The resume
    /// proceeds, but frontier subtrees outside the current filter stay
    /// unexplored — almost always a misconfiguration worth warning about.
    pub shard_mismatch: Option<String>,
}

/// End-of-run summary.
#[derive(Clone, Debug)]
pub struct RunSummary {
    pub tests: u64,
    pub paths_explored: u64,
    pub infeasible_paths: u64,
    pub abandoned_paths: u64,
    /// Fork subtrees skipped because another shard owns them (0 unless
    /// `TestgenConfig::shard` is set).
    pub out_of_shard_paths: u64,
    pub coverage: CoverageReport,
    pub phases: PhaseStats,
    pub solver_checks: u64,
    /// Fork-feasibility checks answered from the constraint-set memo
    /// instead of the solver.
    pub memo_hits: u64,
    /// Simplifier and blast-cache counters for this run. The warm-core
    /// (`rebuilds`, `roots_*`) and `learnt_*` keys are retired and always 0.
    pub solver: IncrementalStats,
    /// Degradation taxonomy (budget Unknowns, isolated panics, deadline,
    /// model-default fallbacks, per-reason abandoned counts).
    pub errors: ErrorStats,
    /// Fork trails of the emitted tests, in canonical (sorted) order —
    /// parallel to the test ids. This is the schedule-independent identity
    /// tests and fault plans key on.
    pub test_trails: Vec<Vec<u32>>,
    /// Structured run trace, populated when [`ObsConfig::trace`](crate::ObsConfig::trace) is set:
    /// per-path records in canonical trail order plus worker events. `None`
    /// when tracing is off (the default).
    pub trace: Option<TraceLog>,
    /// Checkpoint/resume bookkeeping; `Some` whenever checkpointing or
    /// resuming was configured (or a kill fault fired).
    pub resume: Option<ResumeInfo>,
    /// Per-test provenance records (parallel to the emitted suite, in canonical
    /// trail order), derived from the trace's `emitted` records. `None` when no
    /// per-path records were collected
    /// ([`ObsConfig::trace`](crate::ObsConfig::trace) off, the default).
    pub provenance: Option<Vec<TestProvenance>>,
    /// Abandonment sites for coverage attribution, trail-sorted, derived
    /// from the trace's `abandoned` and `panicked` records. Empty when
    /// [`ObsConfig::trace`](crate::ObsConfig::trace) is off.
    pub abandon_sites: Vec<AbandonSite>,
    /// Differential-harness results (`p4testgen diff`); `None` for plain
    /// generation runs. Serialized under the append-only v2 schema.
    pub differential: Option<DifferentialSummary>,
}

/// Aggregate results of a differential run (`p4testgen diff`): how many
/// comparisons ran, how the divergences classified, and — in fault-catalog
/// mode — how many injected faults the harness detected. The taxonomy
/// kinds are stable strings shared with the JSONL divergence reports:
/// `value-divergence`, `verdict-divergence`, `trap-divergence`,
/// `quirk-suppressed`, `ref-unsupported`.
#[derive(Clone, Debug, Default)]
pub struct DifferentialSummary {
    /// `"interp-vs-refeval"`, `"cross-target"`, or `"fault-catalog"`.
    pub mode: String,
    /// Programs compared.
    pub programs: u64,
    /// (test, engine-pair) comparisons executed.
    pub comparisons: u64,
    /// Unsuppressed divergences (the run's failure count).
    pub divergences: u64,
    /// Divergence counts by taxonomy kind, sorted by kind for stable
    /// serialization. Includes the suppressed/unsupported kinds, which do
    /// not count toward `divergences`.
    pub by_kind: Vec<(String, u64)>,
    /// Divergences explained by the documented quirk list.
    pub quirk_suppressed: u64,
    /// Comparisons skipped because the reference evaluator does not model
    /// the construct (reported, never silently dropped).
    pub ref_unsupported: u64,
    /// Fault-catalog mode: faults injected and faults detected (>=1
    /// classified divergence). Both zero outside fault-catalog mode.
    pub faults_injected: u64,
    pub faults_detected: u64,
}

impl DifferentialSummary {
    /// The `differential` object of the v2 summary schema.
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            ("mode".into(), Value::String(self.mode.clone())),
            ("programs".into(), Value::Number(Number::U(self.programs))),
            ("comparisons".into(), Value::Number(Number::U(self.comparisons))),
            ("divergences".into(), Value::Number(Number::U(self.divergences))),
            (
                "by_kind".into(),
                Value::Object(
                    self.by_kind
                        .iter()
                        .map(|(k, n)| (k.clone(), Value::Number(Number::U(*n))))
                        .collect(),
                ),
            ),
            ("quirk_suppressed".into(), Value::Number(Number::U(self.quirk_suppressed))),
            ("ref_unsupported".into(), Value::Number(Number::U(self.ref_unsupported))),
            ("faults_injected".into(), Value::Number(Number::U(self.faults_injected))),
            ("faults_detected".into(), Value::Number(Number::U(self.faults_detected))),
        ])
    }
}

/// Why one emitted test exists and what it bought (`--provenance-out`).
///
/// The coverage delta is computed at merge time by walking the final
/// suite in canonical trail order — not from the live [`SharedCoverage`](crate::SharedCoverage)
/// race — so it is deterministic across job counts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestProvenance {
    /// Final (renumbered) test id, equal to the suite index.
    pub id: u64,
    /// Fork trail identifying the path.
    pub trail: Vec<u32>,
    /// Path-constraint count at emission. `None` for tests restored from
    /// a checkpoint (their paths were not re-executed this run).
    pub constraints: Option<u64>,
    /// Logical solver checks (fork feasibility + emission) charged to
    /// this path; memo hits count. `None` for checkpoint-restored tests.
    pub solver_checks: Option<u64>,
    /// Statements first covered by this test, in suite order.
    pub new_coverage: Vec<u32>,
    /// Union coverage after this test (suite prefix including it).
    pub cumulative_covered: u64,
}

impl TestProvenance {
    /// One `--provenance-out` JSONL record.
    pub fn to_value(&self) -> Value {
        let opt_u = |v: &Option<u64>| match v {
            Some(n) => Value::Number(Number::U(*n)),
            None => Value::Null,
        };
        Value::Object(vec![
            ("id".into(), Value::Number(Number::U(self.id))),
            (
                "trail".into(),
                Value::Array(
                    self.trail.iter().map(|b| Value::Number(Number::U(u64::from(*b)))).collect(),
                ),
            ),
            ("constraints".into(), opt_u(&self.constraints)),
            ("solver_checks".into(), opt_u(&self.solver_checks)),
            (
                "new_coverage".into(),
                Value::Array(
                    self.new_coverage
                        .iter()
                        .map(|s| Value::Number(Number::U(u64::from(*s))))
                        .collect(),
                ),
            ),
            (
                "cumulative_covered".into(),
                Value::Number(Number::U(self.cumulative_covered)),
            ),
        ])
    }
}

impl RunSummary {
    /// Machine-readable summary (the `--summary-json` payload). Durations
    /// are nanosecond integers; the schema is documented in DESIGN.md
    /// ("Observability") and checked by `tests/cli.rs`.
    pub fn to_json(&self) -> Value {
        let dur = |d: Duration| Value::Number(Number::U(d.as_nanos() as u64));
        let trails = |ts: &[Vec<u32>]| {
            Value::Array(
                ts.iter()
                    .map(|t| {
                        Value::Array(
                            t.iter().map(|b| Value::Number(Number::U(u64::from(*b)))).collect(),
                        )
                    })
                    .collect(),
            )
        };
        let coverage = Value::Object(vec![
            ("total".into(), Value::Number(Number::U(self.coverage.total as u64))),
            ("covered".into(), Value::Number(Number::U(self.coverage.covered as u64))),
            ("percent".into(), Value::Number(Number::F(self.coverage.percent))),
            (
                "missed".into(),
                Value::Array(
                    self.coverage
                        .missed
                        .iter()
                        .map(|m| {
                            Value::Object(vec![
                                ("block".into(), Value::String(m.block.clone())),
                                ("line".into(), Value::Number(Number::U(u64::from(m.line)))),
                                ("col".into(), Value::Number(Number::U(u64::from(m.col)))),
                                ("statement".into(), Value::String(m.describe.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let phases = Value::Object(vec![
            ("stepping_ns".into(), dur(self.phases.stepping)),
            ("solving_ns".into(), dur(self.phases.solving)),
            ("emission_ns".into(), dur(self.phases.emission)),
            ("busy_ns".into(), dur(self.phases.busy)),
            ("wall_ns".into(), dur(self.phases.total)),
            ("workers".into(), Value::Number(Number::U(u64::from(self.phases.workers)))),
            ("utilization".into(), Value::Number(Number::F(self.phases.utilization()))),
            ("forks".into(), Value::Number(Number::U(self.phases.forks))),
            ("fork_ns".into(), dur(self.phases.fork)),
        ]);
        let errors = Value::Object(vec![
            ("unknown_queries".into(), Value::Number(Number::U(self.errors.unknown_queries))),
            ("budget_retries".into(), Value::Number(Number::U(self.errors.budget_retries))),
            ("panicked_paths".into(), Value::Number(Number::U(self.errors.panicked_paths))),
            ("deadline_expired".into(), Value::Bool(self.errors.deadline_expired)),
            ("model_defaults".into(), Value::Number(Number::U(self.errors.model_defaults))),
            (
                "frontend_warnings".into(),
                Value::Number(Number::U(self.errors.frontend_warnings)),
            ),
            (
                "abandoned_by_reason".into(),
                Value::Object(
                    self.errors
                        .abandoned_by_reason
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Number(Number::U(*v))))
                        .collect(),
                ),
            ),
            (
                "panics".into(),
                Value::Array(
                    self.errors
                        .panics
                        .iter()
                        .map(|p| {
                            Value::Object(vec![
                                (
                                    "trail".into(),
                                    Value::Array(
                                        p.trail
                                            .iter()
                                            .map(|b| Value::Number(Number::U(u64::from(*b))))
                                            .collect(),
                                    ),
                                ),
                                ("payload".into(), Value::String(p.payload.clone())),
                                (
                                    "last_trace".into(),
                                    match &p.last_trace {
                                        Some(t) => Value::String(t.clone()),
                                        None => Value::Null,
                                    },
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        let i = &self.solver;
        let cache_total = i.blast_cache_hits + i.blast_cache_misses;
        let solver = Value::Object(vec![
            ("mode".into(), Value::String(SolverMode::default().as_str().into())),
            ("warm_checks".into(), Value::Number(Number::U(i.warm_checks))),
            ("fresh_fallbacks".into(), Value::Number(Number::U(i.fresh_fallbacks))),
            ("rebuilds".into(), Value::Number(Number::U(i.rebuilds))),
            ("roots_reused".into(), Value::Number(Number::U(i.roots_reused))),
            ("roots_blasted".into(), Value::Number(Number::U(i.roots_blasted))),
            ("blast_cache_hits".into(), Value::Number(Number::U(i.blast_cache_hits))),
            ("blast_cache_misses".into(), Value::Number(Number::U(i.blast_cache_misses))),
            (
                "blast_cache_hit_rate".into(),
                Value::Number(Number::F(if cache_total == 0 {
                    0.0
                } else {
                    i.blast_cache_hits as f64 / cache_total as f64
                })),
            ),
            ("simplify_rewrites".into(), Value::Number(Number::U(i.simplify.rewrites))),
            ("simplify_substitutions".into(), Value::Number(Number::U(i.simplify.substitutions))),
            ("simplify_dropped_true".into(), Value::Number(Number::U(i.simplify.dropped_true))),
            ("simplify_fast_unsat".into(), Value::Number(Number::U(i.simplify.fast_unsat))),
            ("learnt_exported".into(), Value::Number(Number::U(i.learnt_exported))),
            ("learnt_imported".into(), Value::Number(Number::U(i.learnt_imported))),
            (
                "learnt_import_skipped".into(),
                Value::Number(Number::U(i.learnt_import_skipped)),
            ),
        ]);
        let opt_str = |s: &Option<String>| match s {
            Some(v) => Value::String(v.clone()),
            None => Value::Null,
        };
        let resume = match &self.resume {
            None => Value::Null,
            Some(r) => Value::Object(vec![
                ("resumed".into(), Value::Bool(r.resumed)),
                ("frontier_restored".into(), Value::Number(Number::U(r.frontier_restored))),
                ("tests_restored".into(), Value::Number(Number::U(r.tests_restored))),
                ("replayed_trails".into(), Value::Number(Number::U(r.replayed_trails))),
                ("memo_restored".into(), Value::Number(Number::U(r.memo_restored))),
                ("checkpoint_path".into(), opt_str(&r.checkpoint_path)),
                ("checkpoints_written".into(), Value::Number(Number::U(r.checkpoints_written))),
                ("frontier_remaining".into(), Value::Number(Number::U(r.frontier_remaining))),
                ("interrupted".into(), opt_str(&r.interrupted)),
                ("rejected".into(), opt_str(&r.rejected)),
                ("flush_error".into(), opt_str(&r.flush_error)),
                ("shard_mismatch".into(), opt_str(&r.shard_mismatch)),
            ]),
        };
        // Schema versioning policy: within a major version, changes are
        // append-only — every v1 field keeps its name, type, and meaning,
        // and consumers must ignore unknown fields. v2 adds: `col` on
        // coverage.missed entries, `resume.replayed_trails`,
        // `provenance_records`, (CLI-side) `status_endpoint`, and
        // `differential` (null outside `p4testgen diff` runs).
        Value::Object(vec![
            ("schema".into(), Value::String("p4testgen-run-summary/v2".into())),
            ("tests".into(), Value::Number(Number::U(self.tests))),
            ("paths_explored".into(), Value::Number(Number::U(self.paths_explored))),
            ("infeasible_paths".into(), Value::Number(Number::U(self.infeasible_paths))),
            ("abandoned_paths".into(), Value::Number(Number::U(self.abandoned_paths))),
            ("out_of_shard_paths".into(), Value::Number(Number::U(self.out_of_shard_paths))),
            ("coverage".into(), coverage),
            ("phases".into(), phases),
            ("solver_checks".into(), Value::Number(Number::U(self.solver_checks))),
            ("memo_hits".into(), Value::Number(Number::U(self.memo_hits))),
            ("solver".into(), solver),
            ("errors".into(), errors),
            ("test_trails".into(), trails(&self.test_trails)),
            ("resume".into(), resume),
            (
                "provenance_records".into(),
                match &self.provenance {
                    Some(p) => Value::Number(Number::U(p.len() as u64)),
                    None => Value::Null,
                },
            ),
            (
                "differential".into(),
                match &self.differential {
                    Some(d) => d.to_json(),
                    None => Value::Null,
                },
            ),
        ])
    }
}
