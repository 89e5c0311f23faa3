//! The test-generation driver (§4): path exploration, feasibility checking,
//! concolic resolution, and test emission, with per-phase timing for the
//! Fig. 7 experiment.
//!
//! # Parallel exploration
//!
//! Exploration runs on a pool of `config.jobs` workers. Each worker owns a
//! [`crossbeam::deque::Worker`] of pending states (owner side is LIFO for
//! DFS locality; thieves steal from the FIFO end, handing them the oldest —
//! and therefore shallowest, largest — subtrees) and its own [`Solver`].
//! The term pool is shared: interning is `&self` and thread-safe, so
//! `TermId`s are valid across workers and hash-consing dedups structurally
//! identical path-prefix terms globally.
//!
//! Determinism: a path's identity is its *fork trail* (the sequence of
//! branch indices taken at each fork event), which is independent of the
//! schedule. Per-test randomness is seeded from `seed ^ hash(trail)`, and
//! finished tests are buffered per worker, merged, and sorted by trail
//! before the `on_test` callback runs — so a fixed seed yields the same
//! test suite, in the same order, for any worker count. `max_tests = k`
//! stays deterministic too: it selects the k lexicographically-smallest
//! test trails (enforced by a shared top-k heap that prunes subtrees which
//! can no longer contribute), not whichever k tests raced to finish first.
//! The remaining caveat is `max_paths` and `stop_at_full_coverage`: those
//! caps trigger on whichever paths finish first, which under parallelism
//! may cut off a different subset of the (fully deterministic) path space.

use crate::checkpoint::{sanitize_frontier, CheckpointCfg, ExplorationState, ShardSpec};
use crate::concolic::{resolve_concolics, ConcolicRegistry};
use crate::coverage::{AbandonSite, CoverageReport, SharedCoverage};
use crate::exec;
use crate::fault::{trail_hash, FaultPlan};
use crate::preconditions::Preconditions;
use crate::state::{Cmd, ExecState, FinishReason, RegisterOp, SynthKeyMatch};
use crate::target::{ExecCtx, Target};
use crate::testspec::{
    KeyMatch, MaskedBytes, OutputPacketSpec, RegisterSpec, TableEntrySpec, TestSpec,
};
use crate::{fnv_mix, FNV_OFFSET};
use crossbeam::deque::{Steal, Stealer, Worker as WorkerDeque};
use p4t_ir::{IrProgram, StmtId};
use p4t_obs::trace::{PathOutcome, PathRecord, PathTiming, TraceLog};
use p4t_obs::{FlightRecorder, LiveStatus, Registry, SpanEvent};
use p4t_smt::sat::{SatStats, LEARNT_SIZE_BOUNDS};
use p4t_smt::solver::{
    IncrementalStats, SolverStats, CONFLICTS_PER_CHECK_BOUNDS, SPINE_PER_CHECK_BOUNDS,
};
use p4t_smt::{
    eval, stable_fingerprint, Assignment, BitVec, CheckResult, SolveBudget, Solver,
    SolverMode, TermId, TermPool, VarId,
};
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::value::{Number, Value};
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Path-selection strategy (§6: DFS by default; continuations make other
/// heuristics cheap to try).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Strategy {
    /// Depth-first: explore all valid paths to exhaustion (the default).
    Dfs,
    /// Breadth-first.
    Bfs,
    /// Pick a random pending state each time (random backtracking).
    RandomBacktrack,
    /// Prefer the pending state that has covered the most statements not
    /// yet covered globally (the paper's "heuristics to try to maximize
    /// coverage with the fewest number of paths").
    CoverageFirst,
}

impl Strategy {
    /// Parse a CLI/request spelling (`dfs|bfs|random|coverage`).
    pub fn parse(s: &str) -> Option<Strategy> {
        match s {
            "dfs" => Some(Strategy::Dfs),
            "bfs" => Some(Strategy::Bfs),
            "random" => Some(Strategy::RandomBacktrack),
            "coverage" => Some(Strategy::CoverageFirst),
            _ => None,
        }
    }
}

/// Observability switches for a run. The default is fully off, and "off"
/// really is free: workers test one bool per *path* (never per step), no
/// path records or events are allocated, and the metrics fold at merge
/// time never runs.
#[derive(Clone, Default)]
pub struct ObsConfig {
    /// Buffer one [`PathRecord`] per finished or pruned path, plus every
    /// worker event, and derive the per-path views from them at merge time:
    /// [`RunSummary::trace`], [`RunSummary::provenance`] and
    /// [`RunSummary::abandon_sites`].
    pub trace: bool,
    /// Fold end-of-run metrics (solver internals, pool stats, memo hit
    /// rate, queue depths, per-worker busy/idle) into this registry.
    pub metrics: Option<Arc<Registry>>,
    /// Span flight recorder (`--flight-out`): workers record every worker
    /// event and one `path-end` span per path into bounded per-worker
    /// rings; the engine never reads them, so exploration is unperturbed.
    pub flight: Option<Arc<FlightRecorder>>,
    /// Live status shared with the `--status-addr` HTTP endpoint. Updated
    /// with relaxed atomics at journal-transaction granularity.
    pub live: Option<Arc<LiveStatus>>,
}

impl std::fmt::Debug for ObsConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsConfig")
            .field("trace", &self.trace)
            .field("metrics", &self.metrics.is_some())
            .field("flight", &self.flight.is_some())
            .field("live", &self.live.is_some())
            .finish()
    }
}

/// Generation configuration.
#[derive(Clone, Debug)]
pub struct TestgenConfig {
    /// Stop after emitting this many tests (0 = unlimited).
    pub max_tests: u64,
    /// Stop after exploring this many paths (0 = unlimited).
    pub max_paths: u64,
    pub seed: u64,
    pub parser_loop_bound: u32,
    pub strategy: Strategy,
    pub preconditions: Preconditions,
    /// Stop once every statement has been covered.
    pub stop_at_full_coverage: bool,
    /// Skip solver calls for forks whose constraints are syntactically
    /// trivial (pure-constant conditions); always sound, just lazier.
    pub eager_pruning: bool,
    /// Exploration worker threads. `1` (the default) explores on the calling
    /// thread with the identical code path the workers run, so results for
    /// a fixed seed are the same set at any job count. Defaults to the
    /// `P4TESTGEN_JOBS` environment variable when set.
    pub jobs: usize,
    /// Per-solver-query conflict budget (0 = unlimited). A query exceeding
    /// it returns Unknown and the path is abandoned instead of stalling the
    /// run — the engine's analogue of the paper's Z3 timeout. Defaults to
    /// the `P4TESTGEN_SOLVER_BUDGET` environment variable when set.
    pub solver_budget: u64,
    /// Feasibility-check discipline: `Incremental` (the default) keeps one
    /// warm SAT core per worker along its DFS spine; `Fresh` rebuilds every
    /// check. Model-bearing checks (emission, concolic resolution) are
    /// always fresh, so emitted suites are byte-identical in both modes.
    /// Defaults to the `P4TESTGEN_SOLVER_MODE` environment variable
    /// (`fresh`/`incremental`) when set.
    pub solver_mode: SolverMode,
    /// Wall-clock deadline for the whole run, checked cooperatively: on
    /// expiry workers finish in-flight paths, drain their queues, and the
    /// run still emits a deterministic, trail-sorted (partial) suite.
    /// Defaults to the `P4TESTGEN_DEADLINE` environment variable (seconds).
    pub deadline: Option<Duration>,
    /// Parser loop bound for the *concrete* software model used during
    /// validation (the symbolic executor's bound is `parser_loop_bound`).
    pub interp_parser_loop_bound: u32,
    /// Deterministic fault injection (tests/benches only); the default plan
    /// is empty and injects nothing.
    pub fault_plan: FaultPlan,
    /// Observability switches (structured tracing + metrics registry); the
    /// default is fully disabled and adds no hot-path cost.
    pub obs: ObsConfig,
    /// Explore only the fork-trail subtrees this shard owns (`--shard i/N`).
    /// The emitted suites of all N shards, merged with
    /// [`crate::checkpoint::merge_shard_suites`], are byte-identical to the
    /// single-run suite.
    pub shard: Option<ShardSpec>,
    /// Periodically persist the exploration journal (frontier trails,
    /// emitted tests, coverage, memo) to a checkpoint file; a final flush
    /// always happens at run end, clean or drained.
    pub checkpoint: Option<CheckpointCfg>,
    /// Continue a previous run from its decoded checkpoint. A config-hash
    /// mismatch degrades to a cold start (recorded in
    /// [`ResumeInfo::rejected`]), never an error.
    pub resume: Option<ExplorationState>,
    /// Cooperative drain request (e.g. set by a SIGTERM handler): workers
    /// stop taking new states, in-flight paths finish, and — with a
    /// checkpoint configured — the untouched frontier is flushed for a
    /// later `resume`.
    pub drain: Option<Arc<AtomicBool>>,
    /// Cross-run feasibility memo shared by a long-lived host (the serve
    /// daemon): verdicts for stable constraint-set fingerprints are read
    /// from and written to this bounded cache in addition to the run-local
    /// memo. Safe to share across programs — fingerprints are
    /// content-addressed canonical constraint sets, so a hit is the same
    /// query regardless of which request first solved it — but only within
    /// one [`feas_budget_class`]: the memo partitions entries by budget
    /// class so a run never sees a verdict its own (colder-budget) solver
    /// would have abandoned as Unknown. `None` (the default) preserves the
    /// one-shot behaviour exactly.
    pub shared_memo: Option<Arc<SharedFeasMemo>>,
}

/// Per-path step budget (runaway guard).
const MAX_STEPS_PER_PATH: u64 = 100_000;

/// Retries for the concolic resolution loop (§5.4).
const CONCOLIC_RETRIES: u32 = 3;

fn default_jobs() -> usize {
    std::env::var("P4TESTGEN_JOBS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&j| j >= 1)
        .unwrap_or(1)
}

fn default_solver_budget() -> u64 {
    std::env::var("P4TESTGEN_SOLVER_BUDGET")
        .ok()
        .and_then(|s| s.parse::<u64>().ok())
        .unwrap_or(0)
}

fn default_solver_mode() -> SolverMode {
    std::env::var("P4TESTGEN_SOLVER_MODE")
        .ok()
        .and_then(|s| SolverMode::parse(&s))
        .unwrap_or_default()
}

fn default_deadline() -> Option<Duration> {
    std::env::var("P4TESTGEN_DEADLINE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|&s| s > 0.0)
        .map(Duration::from_secs_f64)
}

impl Default for TestgenConfig {
    fn default() -> Self {
        TestgenConfig {
            max_tests: 0,
            max_paths: 0,
            seed: 1,
            parser_loop_bound: 8,
            strategy: Strategy::Dfs,
            preconditions: Preconditions::none(),
            stop_at_full_coverage: false,
            eager_pruning: true,
            jobs: default_jobs(),
            solver_budget: default_solver_budget(),
            solver_mode: default_solver_mode(),
            deadline: default_deadline(),
            interp_parser_loop_bound: 64,
            fault_plan: FaultPlan::default(),
            obs: ObsConfig::default(),
            shard: None,
            checkpoint: None,
            resume: None,
            drain: None,
            shared_memo: None,
        }
    }
}

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
    fn absorb(&mut self, other: &PhaseStats) {
        self.stepping += other.stepping;
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
const MAX_PANIC_RECORDS: usize = 32;

impl ErrorStats {
    pub(crate) fn bump_reason(&mut self, key: &str) {
        *self.abandoned_by_reason.entry(key.to_string()).or_insert(0) += 1;
    }

    fn absorb(&mut self, other: &ErrorStats) {
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

/// A build that could not produce a [`Testgen`]: the frontend rejected the
/// program, or the target extension rejected the compiled pipeline.
/// Returned by [`Testgen::new_checked`]; [`Testgen::new`] flattens it to a
/// string for API compatibility.
#[derive(Clone, Debug)]
pub enum BuildError {
    /// The frontend produced error diagnostics. `prelude_lines` is the
    /// number of source lines the target's architecture prelude occupies
    /// ahead of the user's program — subtract it (e.g. via
    /// `SourceMap::render`'s `line_offset`) to report positions in the
    /// user's file.
    Frontend { diagnostics: Vec<p4t_frontend::Diagnostic>, prelude_lines: u32 },
    /// The program compiled but the target rejected the pipeline shape.
    Target(String),
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Frontend { diagnostics, .. } => {
                for (i, d) in diagnostics.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
            BuildError::Target(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// A run that could not produce a summary: one or more workers died outside
/// the per-path isolation (a harness bug, not a path bug). Surfaced as a
/// structured error instead of aborting the process.
#[derive(Clone, Debug)]
pub struct RunError {
    pub worker_failures: Vec<String>,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} exploration worker(s) failed: ", self.worker_failures.len())?;
        for (i, m) in self.worker_failures.iter().enumerate() {
            if i > 0 {
                write!(f, "; ")?;
            }
            write!(f, "{m}")?;
        }
        Ok(())
    }
}

impl std::error::Error for RunError {}

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
    /// Feasibility-check discipline this run used.
    pub solver_mode: SolverMode,
    /// Warm-spine / simplifier / blast-cache counters for this run (all
    /// zero under [`SolverMode::Fresh`] except the blast-cache ones, which
    /// fresh instances also report). The `learnt_*` keys are retired and
    /// always 0.
    pub solver: IncrementalStats,
    /// Degradation taxonomy (budget Unknowns, isolated panics, deadline,
    /// model-default fallbacks, per-reason abandoned counts).
    pub errors: ErrorStats,
    /// Fork trails of the emitted tests, in canonical (sorted) order —
    /// parallel to the test ids. This is the schedule-independent identity
    /// tests and fault plans key on.
    pub test_trails: Vec<Vec<u32>>,
    /// Structured run trace, populated when [`ObsConfig::trace`] is set:
    /// per-path records in canonical trail order plus worker events. `None`
    /// when tracing is off (the default).
    pub trace: Option<TraceLog>,
    /// Checkpoint/resume bookkeeping; `Some` whenever checkpointing or
    /// resuming was configured (or a kill fault fired).
    pub resume: Option<ResumeInfo>,
    /// Per-test provenance records (parallel to the emitted suite, in
    /// canonical trail order), derived from the trace's `emitted` records.
    /// `None` when no per-path records were collected ([`ObsConfig::trace`]
    /// off, the default).
    pub provenance: Option<Vec<TestProvenance>>,
    /// Abandonment sites for coverage attribution, trail-sorted, derived
    /// from the trace's `abandoned` and `panicked` records. Empty when
    /// [`ObsConfig::trace`] is off.
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
/// suite in canonical trail order — not from the live [`SharedCoverage`]
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
            ("mode".into(), Value::String(self.solver_mode.as_str().into())),
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

/// A bounded, thread-safe feasibility memo shared *across* runs by a
/// long-lived host (the serve daemon). Keys are the stable, canonical
/// constraint-set fingerprints from [`p4t_smt::stable_fingerprint`] —
/// content-addressed, so entries are valid across programs and targets:
/// an identical fingerprint means an identical (alpha-renamed) constraint
/// system, and feasibility is a pure function of that system.
///
/// The fingerprint is paired with a *budget class* (see
/// [`feas_budget_class`]): a Sat/Unsat verdict is a fact about the
/// constraint system, but *whether a cold run reaches it at all* depends
/// on the solver budget (a small budget abandons as Unknown where a large
/// one resolves). Sharing a verdict across budget classes would let a
/// high-budget tenant's answer leak into a low-budget tenant's run,
/// breaking its byte-identity with an equivalent cold CLI run.
///
/// Bounded by an LRU so a daemon serving many tenants cannot grow memo
/// state without limit; the [`p4t_obs::LruStats`] counters feed the
/// daemon's `/metrics` export.
pub struct SharedFeasMemo {
    inner: Mutex<p4t_obs::LruCache<(u64, u128), bool>>,
}

/// The config subset that decides whether a feasibility query resolves at
/// all (as opposed to what the verdict is): the conflict budget and the
/// seed, which feeds the budget retry's phase seed and so decides whether a
/// retried query comes back definitive. Two runs in the same class abandon
/// the same queries, so they may share memoized verdicts without perturbing
/// each other's suites.
pub fn feas_budget_class(c: &TestgenConfig) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_mix(&mut h, &c.solver_budget.to_le_bytes());
    fnv_mix(&mut h, &c.seed.to_le_bytes());
    h
}

impl SharedFeasMemo {
    /// A memo holding at most `capacity` verdicts.
    pub fn new(capacity: usize) -> Self {
        SharedFeasMemo { inner: Mutex::new(p4t_obs::LruCache::new(capacity)) }
    }

    fn get(&self, class: u64, fp: u128) -> Option<bool> {
        self.inner.lock().get(&(class, fp)).copied()
    }

    fn put(&self, class: u64, fp: u128, sat: bool) {
        self.inner.lock().insert((class, fp), sat);
    }

    /// Cache statistics (size, capacity, hit/miss/eviction counters).
    pub fn stats(&self) -> p4t_obs::LruStats {
        self.inner.lock().stats()
    }
}

impl std::fmt::Debug for SharedFeasMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("SharedFeasMemo")
            .field("len", &s.len)
            .field("capacity", &s.capacity)
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("evictions", &s.evictions)
            .finish()
    }
}

/// Memoizes fork-feasibility verdicts by constraint *set*. Different
/// interleavings frequently reconverge on the same constraint set (e.g.
/// sibling table branches re-deriving a parser prefix); hash consing makes
/// the sorted `TermId` vector a cheap canonical key. Only the sat/unsat
/// verdict is cached — emission-time checks always run, because they need a
/// fresh model.
struct FeasMemo {
    map: Mutex<HashMap<Vec<TermId>, bool>>,
    hits: AtomicU64,
    lookups: AtomicU64,
    /// Process-portable second layer, keyed by the canonical (alpha-renamed)
    /// constraint-set fingerprint instead of `TermId`s. Enabled only when a
    /// run checkpoints or resumes: this is the form the memo round-trips
    /// through [`ExplorationState::memo`], and computing fingerprints costs
    /// a term walk per miss, which plain runs should not pay.
    stable: Option<Mutex<HashMap<u128, bool>>>,
    /// Cross-run layer owned by a long-lived host (see
    /// [`TestgenConfig::shared_memo`]); consulted after `stable`, written
    /// alongside it. Keyed by `(external_class, fingerprint)` so tenants
    /// with different solver budgets never see each other's verdicts.
    external: Option<Arc<SharedFeasMemo>>,
    /// This run's [`feas_budget_class`], fixed at construction.
    external_class: u64,
}

impl FeasMemo {
    fn new() -> Self {
        FeasMemo {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            stable: None,
            external: None,
            external_class: 0,
        }
    }

    /// A memo with the stable-fingerprint layer on, seeded from a restored
    /// checkpoint's entries (empty for a cold checkpointed start) and
    /// optionally connected to a host-owned cross-run cache, which is
    /// consulted only within this run's budget class.
    fn with_persistence(
        entries: &[(u128, bool)],
        external: Option<Arc<SharedFeasMemo>>,
        external_class: u64,
    ) -> Self {
        FeasMemo {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            lookups: AtomicU64::new(0),
            stable: Some(Mutex::new(entries.iter().copied().collect())),
            external,
            external_class,
        }
    }

    /// Is a stable-fingerprint layer enabled (checkpointing runs and runs
    /// hosted by the serve daemon)?
    fn persistent(&self) -> bool {
        self.stable.is_some() || self.external.is_some()
    }

    fn stable_lookup(&self, fp: u128) -> Option<bool> {
        if let Some(s) = &self.stable {
            if let Some(&sat) = s.lock().get(&fp) {
                return Some(sat);
            }
        }
        self.external.as_ref()?.get(self.external_class, fp)
    }

    fn stable_record(&self, fp: u128, sat: bool) {
        if let Some(s) = &self.stable {
            s.lock().insert(fp, sat);
        }
        if let Some(e) = &self.external {
            e.put(self.external_class, fp, sat);
        }
    }

    /// Sorted dump of the stable layer for checkpointing (empty when the
    /// layer is off).
    fn stable_snapshot(&self) -> Vec<(u128, bool)> {
        match &self.stable {
            Some(s) => {
                let mut v: Vec<(u128, bool)> = s.lock().iter().map(|(&k, &v)| (k, v)).collect();
                v.sort_unstable();
                v
            }
            None => Vec::new(),
        }
    }

    fn key(constraints: &[TermId]) -> Vec<TermId> {
        let mut k = constraints.to_vec();
        k.sort_unstable();
        k.dedup();
        k
    }

    fn lookup(&self, key: &[TermId]) -> Option<bool> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let hit = self.map.lock().get(key).copied();
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn record(&self, key: Vec<TermId>, sat: bool) {
        self.map.lock().insert(key, sat);
    }
}

/// A queued state plus its cached coverage-novelty score. The score is the
/// count of statements this path covered that are still globally uncovered;
/// it is stamped with the [`SharedCoverage`] epoch so it is recomputed only
/// when global coverage has actually grown since it was cached.
struct Pending {
    st: ExecState,
    novelty: Option<(u64, usize)>,
}

/// The exploration journal: the single serializable source of truth for
/// what is left to explore and what has been produced. Workers commit one
/// atomic transaction per finished path — remove the popped trail, insert
/// its spawned children, append its emission, fold its counters — so any
/// locked snapshot is a *consistent cut* of the path tree: every path is
/// either still in `pending`, or fully accounted for by its replacements.
/// That invariant is what makes checkpoints resumable without replaying
/// partial work.
#[derive(Default)]
struct Journal {
    /// Every queued or in-flight queue-time trail. A trail leaves this set
    /// only in the same transaction that inserts its children/emission.
    pending: BTreeSet<Vec<u32>>,
    /// Emitted tests keyed by their full completed-path trail (unsorted;
    /// the merger sorts).
    emitted: Vec<(Vec<u32>, TestSpec)>,
    paths: u64,
    infeasible: u64,
    abandoned: u64,
    /// Fork subtrees pruned because another shard owns them.
    out_of_shard: u64,
    errors: ErrorStats,
}

/// Everything the workers share for one run.
struct Shared<'a> {
    prog: &'a IrProgram,
    target: &'a dyn Target,
    pool: &'a TermPool,
    config: &'a TestgenConfig,
    concolics: &'a ConcolicRegistry,
    program_name: &'a str,
    next_id: AtomicU64,
    /// States queued or being processed; exploration is done when a worker
    /// finds no work and this is zero.
    live: AtomicU64,
    /// Cooperative stop: set on reaching a cap; workers drain their queues
    /// without processing.
    stop: AtomicBool,
    /// With `max_tests = k`: the k lexicographically-smallest emitted
    /// trails so far (a max-heap, so the worst retained trail is at the
    /// top). A pending state whose trail is ≥ the heap's top once the heap
    /// is full can only produce tests outside the final top-k (descendant
    /// trails extend, and therefore lexicographically follow, the state's
    /// trail) and is pruned. This makes the capped suite exactly "the first
    /// k tests in canonical trail order" — deterministic for a fixed seed
    /// at any job count and across repeated runs, unlike a stop-at-k flag,
    /// which would cap whichever paths happened to finish first.
    best: Mutex<BinaryHeap<Vec<u32>>>,
    /// Paths claimed for processing (for the `max_paths` cap).
    paths_started: AtomicU64,
    coverage: SharedCoverage,
    memo: FeasMemo,
    stealers: Vec<Stealer<Pending>>,
    /// Run start, for the cooperative deadline below.
    started: Instant,
    /// Effective wall-clock deadline: the fault plan's override when set,
    /// else `config.deadline`.
    deadline: Option<Duration>,
    /// Latched once any worker observes the deadline expired.
    deadline_hit: AtomicBool,
    /// A worker died *outside* the per-path panic isolation (a harness bug).
    /// Siblings bail out instead of spinning on `live`, and the join
    /// surfaces a [`RunError`].
    aborted: AtomicBool,
    /// The exploration journal (frontier + emissions + counters); see
    /// [`Journal`].
    journal: Mutex<Journal>,
    /// Cooperative drain latched: an external signal, the deadline, or a
    /// kill fault asked the run to stop taking new states.
    drain_hit: AtomicBool,
    /// A kill fault fired: the run simulates a hard abort (final checkpoint
    /// flushed, no tests delivered).
    kill_hit: AtomicBool,
    /// Suite-affecting config fingerprint stamped into checkpoints.
    run_fingerprint: u64,
    /// Timestamp of the last periodic checkpoint flush (also serializes
    /// writers: flushes hold this lock across the write).
    last_flush: Mutex<Instant>,
    checkpoints_written: AtomicU64,
    /// First checkpoint-write failure, surfaced in [`ResumeInfo`].
    flush_error: Mutex<Option<String>>,
    /// Time and on-disk size of the last successful checkpoint flush, for
    /// the checkpoint gauges and the `/status` endpoint.
    last_ckpt: Mutex<Option<(Instant, u64)>>,
}

impl Shared<'_> {
    /// Has the run deadline expired? Latches the verdict and sets the
    /// cooperative stop flag on first observation, so workers drain their
    /// queues and the run ends with a deterministic partial suite.
    fn deadline_expired(&self) -> bool {
        let Some(d) = self.deadline else { return false };
        if self.deadline_hit.load(Ordering::Relaxed) {
            return true;
        }
        if self.started.elapsed() >= d {
            self.deadline_hit.store(true, Ordering::Relaxed);
            self.stop.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Has anything asked for a cooperative drain? Sources: an external
    /// drain flag (signal handler), the run deadline, or a kill fault
    /// (latched directly by the worker that popped the poisoned trail).
    /// Latches `drain_hit` and the stop flag on first observation.
    fn drain_requested(&self) -> bool {
        if self.drain_hit.load(Ordering::Relaxed) {
            return true;
        }
        let external = self.config.drain.as_ref().is_some_and(|f| f.load(Ordering::Relaxed));
        if external {
            self.drain_hit.store(true, Ordering::Relaxed);
            self.stop.store(true, Ordering::Relaxed);
            return true;
        }
        if self.deadline_expired() {
            self.drain_hit.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Snapshot the run into a serializable [`ExplorationState`]. Safe to
    /// call while workers run: the journal lock gives a consistent frontier
    /// cut, and the coverage/best/memo snapshots are supersets of that cut's
    /// state — resume only ever unions them back in.
    fn snapshot_state(&self) -> ExplorationState {
        let (frontier, mut emitted, paths, infeasible, abandoned, errors) = {
            let j = self.journal.lock();
            (
                j.pending.iter().cloned().collect::<Vec<_>>(),
                j.emitted.clone(),
                j.paths,
                j.infeasible,
                j.abandoned,
                j.errors.clone(),
            )
        };
        emitted.sort_by(|a, b| a.0.cmp(&b.0));
        let mut best: Vec<Vec<u32>> = self.best.lock().iter().cloned().collect();
        best.sort();
        let (coverage_words, coverage_epoch) = self.coverage.snapshot();
        ExplorationState {
            config_hash: self.run_fingerprint,
            frontier,
            emitted,
            best,
            coverage_words,
            coverage_epoch,
            memo: self.memo.stable_snapshot(),
            paths_explored: paths,
            infeasible_paths: infeasible,
            abandoned_paths: abandoned,
            errors,
            checkpoints_written: self.checkpoints_written.load(Ordering::Relaxed),
            shard: self.config.shard,
        }
    }

    /// Write a checkpoint to `path`, recording success or the first
    /// failure. Transient IO errors are retried with bounded deterministic
    /// backoff (see [`ExplorationState::write_atomic_retry`]); a final
    /// failure is classified, never silent. Callers serialize via
    /// `last_flush`.
    fn flush_checkpoint(&self, path: &std::path::Path) -> bool {
        let state = self.snapshot_state();
        match state.write_atomic_retry(path) {
            Ok(attempts) => {
                self.checkpoints_written.fetch_add(1, Ordering::Relaxed);
                if attempts > 1 {
                    if let Some(reg) = &self.config.obs.metrics {
                        reg.counter(
                            "p4testgen_checkpoint_write_retries_total",
                            "Checkpoint writes that needed transient-IO retries",
                        )
                        .add(u64::from(attempts - 1));
                    }
                }
                let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                *self.last_ckpt.lock() = Some((Instant::now(), bytes));
                if let Some(ls) = &self.config.obs.live {
                    ls.note_checkpoint(bytes);
                }
                if let Some(reg) = &self.config.obs.metrics {
                    reg.gauge(
                        "p4testgen_checkpoint_bytes",
                        "On-disk size of the last successful checkpoint",
                    )
                    .set(bytes);
                    reg.gauge(
                        "p4testgen_checkpoint_age_seconds",
                        "Seconds since the last successful checkpoint flush",
                    )
                    .set(0);
                }
                true
            }
            Err(e) => {
                let mut slot = self.flush_error.lock();
                if slot.is_none() {
                    *slot = Some(e.to_string());
                }
                false
            }
        }
    }
}

/// Queue-depth histogram bounds (inclusive upper bounds; +Inf implicit).
/// Sampled once per dequeued state, so the histogram answers "how deep was
/// my local queue when I took work" — the signal for steal pressure.
const QUEUE_DEPTH_BOUNDS: [u64; 8] = [0, 1, 2, 4, 8, 16, 32, 64];

/// Per-worker results, merged on the main thread after the join. Path
/// counters, emissions, and error taxonomies live in the shared [`Journal`]
/// (committed transactionally per path), not here: only genuinely
/// worker-local instrumentation rides back on the join.
#[derive(Default)]
struct WorkerOut {
    phases: PhaseStats,
    solver_stats: SolverStats,
    sat_stats: SatStats,
    /// Warm-spine / simplifier / blast-cache counters.
    inc_stats: IncrementalStats,
    /// This worker's path records and engine events (see `PathWorker::log`).
    log: Option<TraceLog>,
    /// Successful steals from sibling deques.
    steals: u64,
    /// Busy→idle transitions (the worker found no local or stealable work).
    parks: u64,
    /// Wall-clock this worker spent *not* holding a state.
    idle: Duration,
    /// Local-queue depth histogram (populated only when metrics are on).
    queue_depth_hist: [u64; QUEUE_DEPTH_BOUNDS.len() + 1],
    /// Sum of the sampled depths (the histogram's `_sum` series).
    queue_depth_sum: u64,
}

impl WorkerOut {
    /// Merge another worker's results into this one.
    fn absorb(&mut self, other: WorkerOut) {
        self.phases.absorb(&other.phases);
        self.solver_stats.absorb(&other.solver_stats);
        self.sat_stats.absorb(&other.sat_stats);
        self.inc_stats.absorb(&other.inc_stats);
        if let Some(log) = other.log {
            self.log.get_or_insert_with(TraceLog::new).absorb(log);
        }
        self.steals += other.steals;
        self.parks += other.parks;
        self.idle += other.idle;
        for (t, o) in self.queue_depth_hist.iter_mut().zip(other.queue_depth_hist.iter()) {
            *t += o;
        }
        self.queue_depth_sum += other.queue_depth_sum;
    }
}

/// A target-validated frontend compile, separated from [`Testgen`] so a
/// long-lived host can cache it: compiling is the expensive, immutable
/// part of request setup (parse + type-check + IR lowering), keyed purely
/// on (source, target). [`Testgen::from_compiled`] turns one into a driver
/// without recompiling.
#[derive(Clone, Debug)]
pub struct CompiledProgram {
    /// The lowered IR (target pipeline shape already validated).
    pub prog: IrProgram,
    /// Warning diagnostics from the frontend (program still compiled).
    pub frontend_warnings: Vec<p4t_frontend::Diagnostic>,
    /// Number of prelude lines prepended ahead of the user's source.
    pub prelude_lines: u32,
    /// FNV-1a over the full (prelude-prepended) source and the target
    /// name; one input to [`run_fingerprint_of`].
    pub source_fingerprint: u64,
}

impl CompiledProgram {
    /// Compile `source` with `target`'s prelude prepended and validate the
    /// pipeline shape against the target.
    pub fn build(source: &str, target: &dyn Target) -> Result<CompiledProgram, BuildError> {
        let prelude = target.prelude();
        let full = format!("{prelude}\n{source}");
        // Number of newlines ahead of the user's first line in `full`.
        let prelude_lines = prelude.matches('\n').count() as u32 + 1;
        let (prog, frontend_warnings) = p4t_ir::compile_full(&full)
            .map_err(|diagnostics| BuildError::Frontend { diagnostics, prelude_lines })?;
        target.pipeline(&prog).map_err(BuildError::Target)?; // validate early
        let mut source_fingerprint = FNV_OFFSET;
        fnv_mix(&mut source_fingerprint, full.as_bytes());
        fnv_mix(&mut source_fingerprint, target.name().as_bytes());
        Ok(CompiledProgram { prog, frontend_warnings, prelude_lines, source_fingerprint })
    }
}

/// The suite-deciding fingerprint for a compiled program under `config`:
/// everything that decides the emitted bytes — the compiled source, the
/// target, and the suite-affecting config fields. Schedule-only knobs
/// (`jobs`, `deadline`, `solver_mode`, fault plans, observability,
/// checkpoint/resume/drain wiring, shared memo, and the shard spec — the
/// *merged* suite is shard-independent) are excluded, so a resumed run may
/// change them and still complete the identical suite. Exposed free-form so
/// a host can compute cache keys before constructing a [`Testgen`]. The
/// per-path step budget, concolic retry count and budget-retry switch were
/// once config fields; they are constants now but keep their slots, so
/// fingerprints written by older binaries still match.
pub fn run_fingerprint_of(source_fingerprint: u64, c: &TestgenConfig) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_mix(&mut h, &source_fingerprint.to_le_bytes());
    for v in [
        c.max_tests,
        c.max_paths,
        MAX_STEPS_PER_PATH,
        c.seed,
        u64::from(c.parser_loop_bound),
        c.strategy as u64,
        u64::from(c.preconditions.apply_entry_restrictions),
        c.preconditions.fixed_packet_bytes.map_or(u64::MAX, u64::from),
        u64::from(c.stop_at_full_coverage),
        u64::from(CONCOLIC_RETRIES),
        u64::from(c.eager_pruning),
        c.solver_budget,
        1, // budget retry: always on
    ] {
        fnv_mix(&mut h, &v.to_le_bytes());
    }
    h
}

/// The generation driver. Owns the term pool, the target extension, and the
/// compiled program; each exploration worker owns its solver.
pub struct Testgen {
    pub prog: IrProgram,
    pub target: Box<dyn Target>,
    pool: TermPool,
    pub config: TestgenConfig,
    pub concolics: ConcolicRegistry,
    program_name: String,
    /// Warning diagnostics from the frontend (program still compiled).
    frontend_warnings: Vec<p4t_frontend::Diagnostic>,
    /// Solver statistics merged across all workers of all runs.
    solver_totals: SolverStats,
    sat_totals: SatStats,
    /// FNV-1a over the full (prelude-prepended) source and the target name;
    /// one input to [`Testgen::run_fingerprint`].
    source_fingerprint: u64,
}

impl Testgen {
    /// Compile `source` (with the target's prelude prepended) and prepare a
    /// generation run.
    ///
    /// Convenience wrapper over [`Testgen::new_checked`] that flattens the
    /// structured [`BuildError`] into a rendered string.
    pub fn new(
        program_name: &str,
        source: &str,
        target: impl Into<Box<dyn Target>>,
        config: TestgenConfig,
    ) -> Result<Self, String> {
        Self::new_checked(program_name, source, target, config).map_err(|e| e.to_string())
    }

    /// Compile `source` (with the target's prelude prepended) and prepare a
    /// generation run, preserving structured frontend diagnostics for
    /// rendering against the user's source.
    pub fn new_checked(
        program_name: &str,
        source: &str,
        target: impl Into<Box<dyn Target>>,
        config: TestgenConfig,
    ) -> Result<Self, BuildError> {
        let target = target.into();
        let compiled = CompiledProgram::build(source, &*target)?;
        Ok(Testgen::from_compiled(program_name, compiled, target, config))
    }

    /// Build a driver from an already-compiled program (see
    /// [`CompiledProgram`]) — no frontend work, so a host with a compile
    /// cache pays only the (cheap) driver construction per request. The
    /// compiled program must have been built for the same target kind;
    /// the pipeline shape was already validated at compile time.
    pub fn from_compiled(
        program_name: &str,
        compiled: CompiledProgram,
        target: impl Into<Box<dyn Target>>,
        config: TestgenConfig,
    ) -> Self {
        Testgen {
            prog: compiled.prog,
            target: target.into(),
            pool: TermPool::new(),
            config,
            concolics: ConcolicRegistry::with_builtins(),
            program_name: program_name.to_string(),
            frontend_warnings: compiled.frontend_warnings,
            solver_totals: SolverStats::default(),
            sat_totals: SatStats::default(),
            source_fingerprint: compiled.source_fingerprint,
        }
    }

    /// Replace the `program` name stamped into every emitted test. A host
    /// reusing a warm instance for a request with a different display name
    /// must call this: the name is presentation-only (it is not part of
    /// the run fingerprint), so the cache may legitimately serve it, but
    /// the suite must carry the *requesting* tenant's name, not the name
    /// of whoever warmed the instance.
    pub fn set_program_name(&mut self, name: &str) {
        name.clone_into(&mut self.program_name);
    }

    /// Fingerprint of everything that decides the emitted suite's bytes
    /// (see [`run_fingerprint_of`]). Stamped into checkpoints and
    /// validated on resume.
    pub fn run_fingerprint(&self) -> u64 {
        run_fingerprint_of(self.source_fingerprint, &self.config)
    }

    /// The (source, target) fingerprint this driver was compiled from.
    pub fn source_fingerprint(&self) -> u64 {
        self.source_fingerprint
    }

    /// Warning diagnostics from the frontend compile (empty when clean).
    pub fn frontend_warnings(&self) -> &[p4t_frontend::Diagnostic] {
        &self.frontend_warnings
    }

    /// Access the compiled program.
    pub fn program(&self) -> &IrProgram {
        &self.prog
    }

    /// Solver timing and SAT-core statistics (Fig. 7 analysis), summed over
    /// every worker's solver.
    pub fn solver_stats(&self) -> (Duration, Duration, SatStats) {
        (self.solver_totals.solve_time, self.solver_totals.sat_time, self.sat_totals.clone())
    }

    /// Run generation, invoking `on_test` for every emitted test. Returning
    /// `false` from the callback stops the run.
    ///
    /// Convenience wrapper over [`Testgen::try_run`] that panics on the
    /// (harness-bug-only) [`RunError`]; path-level faults never reach it —
    /// they degrade into [`RunSummary::errors`].
    pub fn run(&mut self, on_test: impl FnMut(&TestSpec) -> bool) -> RunSummary {
        match self.try_run(on_test) {
            Ok(summary) => summary,
            Err(e) => panic!("testgen run failed: {e}"),
        }
    }

    /// Run generation, invoking `on_test` for every emitted test. Returning
    /// `false` from the callback stops the run.
    ///
    /// With `config.jobs > 1` exploration fans out over a work-stealing
    /// thread pool; emitted tests are collected, canonically ordered by
    /// fork trail, renumbered, and only then delivered to `on_test` on the
    /// calling thread.
    ///
    /// Path-level faults (panicking paths, Unknown solver verdicts, the run
    /// deadline) are *contained*: the run completes and reports them in
    /// [`RunSummary::errors`]. `Err` is reserved for workers dying outside
    /// that isolation — a harness bug, surfaced structurally instead of
    /// aborting the process.
    pub fn try_run(
        &mut self,
        mut on_test: impl FnMut(&TestSpec) -> bool,
    ) -> Result<RunSummary, RunError> {
        let t_start = Instant::now();
        // Request-level fault injection (serve isolation tests): these
        // fire before any worker spawns, so they deliberately escape the
        // per-path containment below — the host's per-*request*
        // `catch_unwind` is what must contain them.
        if self.config.fault_plan.driver_panic {
            panic!("injected driver panic (FaultPlan::driver_panic)");
        }
        if let Some(stall) = self.config.fault_plan.driver_stall {
            let until = t_start + stall;
            loop {
                if self.config.drain.as_ref().is_some_and(|d| d.load(Ordering::Acquire)) {
                    break;
                }
                let now = Instant::now();
                if now >= until {
                    break;
                }
                std::thread::sleep((until - now).min(Duration::from_millis(5)));
            }
        }
        let jobs = self.config.jobs.max(1);
        let fingerprint = self.run_fingerprint();
        let ckpt_enabled = self.config.checkpoint.is_some() || self.config.resume.is_some();
        let mut resume_info: Option<ResumeInfo> = ckpt_enabled.then(ResumeInfo::default);

        // Validate an offered resume state against this run's fingerprint.
        // A mismatch degrades to a cold start (recorded, never an error):
        // the checkpoint simply describes a different suite.
        let mut restored: Option<ExplorationState> = None;
        if let Some(r) = &self.config.resume {
            match r.validate_config(fingerprint) {
                Ok(()) => restored = Some(r.clone()),
                Err(e) => {
                    if let Some(info) = &mut resume_info {
                        info.rejected = Some(e.kind().to_string());
                    }
                    if let Some(fr) = &self.config.obs.flight {
                        fr.record_run("resume-rejected", Some(e.kind().to_string()));
                    }
                }
            }
        }
        // The config fingerprint deliberately excludes sharding (every
        // shard of one partition must share it), so the recorded filter is
        // compared separately: resuming under a different `--shard` leaves
        // frontier subtrees this process does not own silently unexplored.
        if let (Some(r), Some(info)) = (&restored, &mut resume_info) {
            if r.shard != self.config.shard {
                let describe = |s: Option<ShardSpec>| match s {
                    Some(s) => format!("shard {s}"),
                    None => "no shard filter".to_string(),
                };
                info.shard_mismatch = Some(format!(
                    "checkpoint written under {}, resumed under {}",
                    describe(r.shard),
                    describe(self.config.shard),
                ));
            }
        }
        if let Some(fr) = &self.config.obs.flight {
            let shard = self
                .config
                .shard
                .as_ref()
                .map_or(String::new(), |s| format!(" shard={}/{}", s.index, s.count));
            fr.record_run("run-start", Some(format!("jobs={jobs}{shard}")));
        }
        if let Some(ls) = &self.config.obs.live {
            ls.workers_total.store(jobs, Ordering::Relaxed);
            ls.total_statements.store(self.prog.num_statements() as u64, Ordering::Relaxed);
        }

        let shared = Shared {
            prog: &self.prog,
            target: &*self.target,
            pool: &self.pool,
            config: &self.config,
            concolics: &self.concolics,
            program_name: &self.program_name,
            next_id: AtomicU64::new(0),
            live: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            best: Mutex::new(BinaryHeap::new()),
            paths_started: AtomicU64::new(0),
            coverage: SharedCoverage::new(&self.prog),
            memo: if ckpt_enabled || self.config.shared_memo.is_some() {
                FeasMemo::with_persistence(
                    restored.as_ref().map_or(&[], |r| r.memo.as_slice()),
                    self.config.shared_memo.clone(),
                    feas_budget_class(&self.config),
                )
            } else {
                FeasMemo::new()
            },
            stealers: Vec::new(),
            started: t_start,
            deadline: self.config.fault_plan.deadline_override.or(self.config.deadline),
            deadline_hit: AtomicBool::new(false),
            aborted: AtomicBool::new(false),
            journal: Mutex::new(Journal::default()),
            drain_hit: AtomicBool::new(false),
            kill_hit: AtomicBool::new(false),
            run_fingerprint: fingerprint,
            last_flush: Mutex::new(Instant::now()),
            checkpoints_written: AtomicU64::new(
                restored.as_ref().map_or(0, |r| r.checkpoints_written),
            ),
            flush_error: Mutex::new(None),
            last_ckpt: Mutex::new(None),
        };

        // Initial state.
        let mut init = ExecState::new(0);
        {
            let mut ctx = ExecCtx::new(
                shared.pool,
                shared.prog,
                &shared.next_id,
                self.config.parser_loop_bound,
                self.config.seed,
            );
            ctx.apply_entry_restrictions = self.config.preconditions.apply_entry_restrictions;
            self.target.init(&mut ctx, &mut init);
            if let Some(bytes) = self.config.preconditions.fixed_packet_bytes {
                init.packet.grow_input(ctx.pool, bytes * 8);
            }
        }
        init.continuations.push(Cmd::PipeStep(0));

        let deques: Vec<WorkerDeque<Pending>> =
            (0..jobs).map(|_| WorkerDeque::new_lifo()).collect();
        let mut shared = shared;
        shared.stealers = deques.iter().map(|d| d.stealer()).collect();
        let shared = shared;

        if let Some(r) = restored {
            // Warm start: restore coverage, the top-k heap, and the journal,
            // then rebuild a live state for every frontier trail by
            // replaying execution along it. Replay is single-threaded and
            // skips feasibility/fault work — the original run already
            // admitted these exact trails.
            shared.coverage.restore(&r.coverage_words, r.coverage_epoch);
            *shared.best.lock() = BinaryHeap::from(r.best);
            let frontier = sanitize_frontier(r.frontier);
            {
                let mut j = shared.journal.lock();
                j.pending = frontier.clone();
                j.emitted = r.emitted;
                j.paths = r.paths_explored;
                j.infeasible = r.infeasible_paths;
                j.abandoned = r.abandoned_paths;
                j.errors = r.errors;
                // Run-scoped flags are re-derived by *this* run's merger.
                j.errors.deadline_expired = false;
                j.errors.frontend_warnings = 0;
                if let Some(info) = &mut resume_info {
                    info.resumed = true;
                    info.frontier_restored = j.pending.len() as u64;
                    info.tests_restored = j.emitted.len() as u64;
                    info.memo_restored = r.memo.len() as u64;
                }
            }
            let mut live = 0u64;
            for (i, trail) in frontier.iter().enumerate() {
                match replay_to_trail(&shared, &init, trail) {
                    Some(st) => {
                        deques[i % jobs].push(Pending { st, novelty: None });
                        live += 1;
                    }
                    None => {
                        // Replay of a checksum-valid trail failed: the
                        // program or engine diverged from the checkpoint's
                        // world. Count it abandoned rather than losing it
                        // silently or poisoning the run.
                        let mut j = shared.journal.lock();
                        j.pending.remove(trail);
                        j.abandoned += 1;
                        j.errors.bump_reason(reason::EXEC_ERROR);
                    }
                }
            }
            if let Some(info) = &mut resume_info {
                info.replayed_trails = live;
            }
            if let Some(fr) = &self.config.obs.flight {
                fr.record_run("resume-restored", Some(format!("replayed={live}")));
            }
            if let Some(ls) = &self.config.obs.live {
                let (frontier, emitted, paths) = {
                    let j = shared.journal.lock();
                    (j.pending.len() as u64, j.emitted.len() as u64, j.paths)
                };
                ls.publish(frontier, emitted, paths, live, shared.coverage.covered_count() as u64);
            }
            shared.live.store(live, Ordering::Release);
        } else {
            shared.journal.lock().pending.insert(Vec::new());
            shared.live.store(1, Ordering::Release);
            deques[0].push(Pending { st: init, novelty: None });
        }

        let outs: Vec<WorkerOut> = if jobs == 1 {
            let local = deques.into_iter().next().expect("one deque");
            vec![run_worker(&shared, 0, local)]
        } else {
            let sh = &shared;
            let joined: Vec<Result<WorkerOut, String>> = crossbeam::scope(move |s| {
                let handles: Vec<_> = deques
                    .into_iter()
                    .enumerate()
                    .map(|(i, local)| s.spawn(move |_| run_worker(sh, i, local)))
                    .collect();
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(i, h)| {
                        h.join().map_err(|p| {
                            format!("worker {i} panicked: {}", panic_payload_text(p.as_ref()))
                        })
                    })
                    .collect()
            })
            .map_err(|p| RunError {
                worker_failures: vec![format!(
                    "exploration scope failed: {}",
                    panic_payload_text(p.as_ref())
                )],
            })?;
            let mut outs = Vec::with_capacity(joined.len());
            let mut worker_failures = Vec::new();
            for r in joined {
                match r {
                    Ok(o) => outs.push(o),
                    Err(m) => worker_failures.push(m),
                }
            }
            if !worker_failures.is_empty() {
                return Err(RunError { worker_failures });
            }
            outs
        };

        // Final checkpoint flush — always when configured, even on clean
        // completion (an empty-frontier checkpoint is how shard campaigns
        // hand their emissions to the merge step, and how a later `--resume`
        // knows the suite is already complete).
        if let Some(ck) = &self.config.checkpoint {
            shared.flush_checkpoint(&ck.path);
        }

        // Merge per-worker instrumentation; path counters, emissions, and
        // error taxonomies come from the journal.
        let mut out = WorkerOut::default();
        for o in outs {
            out.absorb(o);
        }
        let (paths, infeasible, abandoned, out_of_shard, mut errors, mut merged, frontier_remaining) = {
            let mut j = shared.journal.lock();
            (
                j.paths,
                j.infeasible,
                j.abandoned,
                j.out_of_shard,
                std::mem::take(&mut j.errors),
                std::mem::take(&mut j.emitted),
                j.pending.len() as u64,
            )
        };
        self.solver_totals.absorb(&out.solver_stats);
        self.sat_totals.absorb(&out.sat_stats);
        // Every per-path view below is derived from these records.
        let log = out.log.take().map(|mut log| {
            log.canonicalize();
            log
        });
        errors.deadline_expired |= shared.deadline_hit.load(Ordering::Relaxed);
        errors.frontend_warnings = self.frontend_warnings.len() as u64;
        // Canonical panic order too: by trail, like the test suite itself.
        errors.panics.sort_by(|a, b| a.trail.cmp(&b.trail));
        errors.panics.truncate(MAX_PANIC_RECORDS);
        let solver_checks = self.solver_totals.checks;
        let memo_hits = shared.memo.hits.load(Ordering::Relaxed);

        // A kill fault simulates power loss right after the final flush:
        // nothing is delivered downstream of the (already-written)
        // checkpoint, exactly like a real dead process.
        let killed = shared.kill_hit.load(Ordering::Relaxed);
        if killed {
            merged.clear();
            if resume_info.is_none() {
                resume_info = Some(ResumeInfo::default());
            }
        }
        if let Some(info) = &mut resume_info {
            info.checkpoint_path =
                self.config.checkpoint.as_ref().map(|c| c.path.display().to_string());
            info.checkpoints_written = shared.checkpoints_written.load(Ordering::Relaxed);
            info.frontier_remaining = frontier_remaining;
            info.flush_error = shared.flush_error.lock().take();
            info.interrupted = if killed {
                Some("kill-fault".to_string())
            } else if shared.deadline_hit.load(Ordering::Relaxed) {
                Some("deadline".to_string())
            } else if shared.drain_hit.load(Ordering::Relaxed) {
                Some("signal".to_string())
            } else {
                None
            };
        }

        // Canonical order: lexicographic by fork trail — the order a
        // sequential DFS-of-the-fork-tree would discover the paths in,
        // independent of worker scheduling.
        merged.sort_by(|a, b| a.0.cmp(&b.0));
        if self.config.max_tests > 0 {
            merged.truncate(self.config.max_tests as usize);
        }
        let test_trails: Vec<Vec<u32>> = merged.iter().map(|(t, _)| t.clone()).collect();
        let mut tests = 0u64;
        for (i, (_, spec)) in merged.iter_mut().enumerate() {
            spec.id = i as u64;
        }
        // Provenance: coverage deltas are derived by walking the *final*
        // suite in canonical order, so they are a pure function of the
        // suite — deterministic at any job count — rather than of the
        // racy order in which workers reached `SharedCoverage::add`.
        let provenance = log.as_ref().map(|log| {
            let meta: BTreeMap<&[u32], (u64, u64)> = log
                .paths
                .iter()
                .filter(|r| r.outcome == PathOutcome::Emitted)
                .map(|r| (r.trail.as_slice(), (r.constraints, r.checks)))
                .collect();
            let mut seen: BTreeSet<u32> = BTreeSet::new();
            merged
                .iter()
                .map(|(trail, spec)| {
                    let mut new_coverage = Vec::new();
                    for &s in &spec.covered_statements {
                        if seen.insert(s) {
                            new_coverage.push(s);
                        }
                    }
                    // Checkpoint-restored tests have no per-path meta (their
                    // paths were not re-executed this run): None, not 0.
                    let m = meta.get(trail.as_slice());
                    TestProvenance {
                        id: spec.id,
                        trail: trail.clone(),
                        constraints: m.map(|(c, _)| *c),
                        solver_checks: m.map(|(_, k)| *k),
                        new_coverage,
                        cumulative_covered: seen.len() as u64,
                    }
                })
                .collect::<Vec<_>>()
        });
        // Abandonment sites: the abandoned and panicked records, in the
        // records' canonical trail order.
        let abandon_sites: Vec<AbandonSite> = log
            .iter()
            .flat_map(|log| &log.paths)
            .filter_map(|r| {
                let reason = match r.outcome {
                    PathOutcome::Abandoned(key) => key,
                    PathOutcome::Panicked => reason::PANIC,
                    PathOutcome::Emitted | PathOutcome::Infeasible => return None,
                };
                Some(AbandonSite {
                    trail: r.trail.clone(),
                    reason: reason.to_string(),
                    near_stmt: r.near_stmt.map(StmtId),
                })
            })
            .collect();
        for (_, spec) in &merged {
            tests += 1;
            if !on_test(spec) {
                break;
            }
        }

        let mut phases = std::mem::take(&mut out.phases);
        phases.total = t_start.elapsed();
        phases.workers = jobs as u32;

        if let Some(ls) = &self.config.obs.live {
            ls.publish(frontier_remaining, tests, paths, 0, shared.coverage.covered_count() as u64);
            ls.finish();
        }

        let summary = RunSummary {
            tests,
            paths_explored: paths,
            infeasible_paths: infeasible,
            abandoned_paths: abandoned,
            out_of_shard_paths: out_of_shard,
            coverage: shared.coverage.report(&self.prog),
            phases,
            solver_checks,
            memo_hits,
            solver_mode: self.config.solver_mode,
            solver: std::mem::take(&mut out.inc_stats),
            errors,
            test_trails,
            trace: log,
            resume: resume_info,
            provenance,
            abandon_sites,
            differential: None,
        };
        if let Some(reg) = &self.config.obs.metrics {
            fold_run_metrics(reg, &summary, &out, &shared);
        }
        Ok(summary)
    }
}

/// Fold one run's finished summary and merged per-worker results into the
/// metrics registry. Runs once at merge time on the coordinating thread —
/// the exploration hot path never touches the registry. The metric
/// catalogue here is documented in DESIGN.md ("Observability").
fn fold_run_metrics(
    reg: &Registry,
    summary: &RunSummary,
    out: &WorkerOut,
    sh: &Shared<'_>,
) {
    let paths_help = "explored paths by terminal outcome";
    reg.counter_with("p4testgen_paths_total", paths_help, &[("outcome", "emitted")])
        .add(summary.tests);
    reg.counter_with("p4testgen_paths_total", paths_help, &[("outcome", "infeasible")])
        .add(summary.infeasible_paths);
    reg.counter_with("p4testgen_paths_total", paths_help, &[("outcome", "abandoned")])
        .add(summary.abandoned_paths);
    reg.counter("p4testgen_tests_emitted_total", "tests delivered to the backend")
        .add(summary.tests);
    for (reason, n) in &summary.errors.abandoned_by_reason {
        reg.counter_with(
            "p4testgen_abandoned_total",
            "abandoned paths by taxonomy reason",
            &[("reason", reason)],
        )
        .add(*n);
    }

    let s = &out.solver_stats;
    reg.counter("p4testgen_solver_checks_total", "solver checks issued").add(s.checks);
    let verdict_help = "solver verdicts by kind";
    reg.counter_with("p4testgen_solver_results_total", verdict_help, &[("verdict", "sat")])
        .add(s.sat_results);
    reg.counter_with("p4testgen_solver_results_total", verdict_help, &[("verdict", "unsat")])
        .add(s.unsat_results);
    reg.counter_with("p4testgen_solver_results_total", verdict_help, &[("verdict", "unknown")])
        .add(s.unknown_results);
    reg.counter("p4testgen_solver_solve_ns_total", "wall time inside check (ns)")
        .add(s.solve_time.as_nanos() as u64);

    let sat = &out.sat_stats;
    reg.counter("p4testgen_sat_decisions_total", "SAT decisions").add(sat.decisions);
    reg.counter("p4testgen_sat_propagations_total", "SAT unit propagations").add(sat.propagations);
    reg.counter("p4testgen_sat_conflicts_total", "SAT conflicts").add(sat.conflicts);
    reg.counter("p4testgen_sat_restarts_total", "SAT restarts").add(sat.restarts);
    reg.counter("p4testgen_sat_learnt_clauses_total", "learnt clauses").add(sat.learnt_clauses);
    reg.counter("p4testgen_sat_learnt_literals_total", "literals across learnt clauses")
        .add(sat.learnt_literals);
    reg.histogram(
        "p4testgen_sat_learnt_clause_size",
        "learnt clause sizes (literals)",
        &LEARNT_SIZE_BOUNDS,
    )
    .merge_prebucketed(&sat.learnt_size_hist, sat.learnt_literals);
    reg.histogram(
        "p4testgen_sat_conflicts_per_check",
        "SAT conflicts per solver check",
        &CONFLICTS_PER_CHECK_BOUNDS,
    )
    .merge_prebucketed(&s.conflicts_per_check_hist, sat.conflicts);

    reg.counter("p4testgen_memo_lookups_total", "feasibility-memo lookups").add(sh.memo.lookups.load(Ordering::Relaxed));
    reg.counter("p4testgen_memo_hits_total", "feasibility-memo hits").add(summary.memo_hits);

    // The incremental layer: warm spine core, simplifier, blast cache.
    let inc = &summary.solver;
    let warm_help = "feasibility checks by solving discipline";
    reg.counter_with("p4testgen_feasibility_checks_total", warm_help, &[("path", "warm")])
        .add(inc.warm_checks);
    reg.counter_with("p4testgen_feasibility_checks_total", warm_help, &[("path", "fresh_fallback")])
        .add(inc.fresh_fallbacks);
    reg.counter("p4testgen_warm_rebuilds_total", "warm-core rebuilds (garbage-growth policy)")
        .add(inc.rebuilds);
    let roots_help = "spine constraint encodings by reuse";
    reg.counter_with("p4testgen_spine_roots_total", roots_help, &[("kind", "reused")])
        .add(inc.roots_reused);
    reg.counter_with("p4testgen_spine_roots_total", roots_help, &[("kind", "blasted")])
        .add(inc.roots_blasted);
    reg.histogram(
        "p4testgen_spine_reused_per_check",
        "assertions reused from the warm core per check",
        &SPINE_PER_CHECK_BOUNDS,
    )
    .merge_prebucketed(&inc.reused_per_check_hist, inc.roots_reused);
    reg.histogram(
        "p4testgen_spine_blasted_per_check",
        "assertions newly blasted per check",
        &SPINE_PER_CHECK_BOUNDS,
    )
    .merge_prebucketed(&inc.blasted_per_check_hist, inc.roots_blasted);
    let cache_help = "blaster term-cache outcomes";
    reg.counter_with("p4testgen_blast_cache_total", cache_help, &[("outcome", "hit")])
        .add(inc.blast_cache_hits);
    reg.counter_with("p4testgen_blast_cache_total", cache_help, &[("outcome", "miss")])
        .add(inc.blast_cache_misses);
    let simp_help = "term-simplifier actions on feasibility checks";
    reg.counter_with("p4testgen_simplify_total", simp_help, &[("action", "rewrites")])
        .add(inc.simplify.rewrites);
    reg.counter_with("p4testgen_simplify_total", simp_help, &[("action", "substitutions")])
        .add(inc.simplify.substitutions);
    reg.counter_with("p4testgen_simplify_total", simp_help, &[("action", "dropped_true")])
        .add(inc.simplify.dropped_true);
    reg.counter_with("p4testgen_simplify_total", simp_help, &[("action", "fast_unsat")])
        .add(inc.simplify.fast_unsat);

    reg.gauge("p4testgen_pool_terms", "interned terms in the pool").set(sh.pool.len() as u64);
    reg.gauge("p4testgen_pool_vars", "declared symbolic variables").set(sh.pool.num_vars() as u64);
    reg.gauge(
        "p4testgen_pool_intern_contention",
        "interns that found their consing shard locked (pool lifetime)",
    )
    .set(sh.pool.intern_contention());

    reg.counter("p4testgen_worker_steals_total", "successful work steals").add(out.steals);
    reg.counter("p4testgen_worker_parks_total", "busy-to-idle worker transitions").add(out.parks);
    reg.counter("p4testgen_worker_busy_ns_total", "summed worker busy time (ns)")
        .add(summary.phases.busy.as_nanos() as u64);
    reg.counter("p4testgen_worker_idle_ns_total", "summed worker idle time (ns)")
        .add(out.idle.as_nanos() as u64);
    reg.histogram(
        "p4testgen_queue_depth",
        "local queue depth sampled at each dequeue",
        &QUEUE_DEPTH_BOUNDS,
    )
    .merge_prebucketed(&out.queue_depth_hist, out.queue_depth_sum);

    reg.counter("p4testgen_unknown_queries_total", "solver queries ending Unknown after retry")
        .add(summary.errors.unknown_queries);
    reg.counter("p4testgen_budget_retries_total", "Unknown queries retried with a rotated phase seed")
        .add(summary.errors.budget_retries);
    reg.counter("p4testgen_panicked_paths_total", "paths isolated after panicking")
        .add(summary.errors.panicked_paths);
    reg.counter("p4testgen_model_defaults_total", "model evaluations that fell back to zero")
        .add(summary.errors.model_defaults);
    reg.gauge("p4testgen_deadline_expired", "1 when the run deadline expired")
        .set(u64::from(summary.errors.deadline_expired));

    // Checkpoint/resume instrumentation (present only for checkpointed or
    // resumed runs, so plain runs don't grow empty series).
    if let Some(r) = &summary.resume {
        reg.counter("p4testgen_checkpoints_written_total", "checkpoint files flushed")
            .add(r.checkpoints_written);
        reg.counter("p4testgen_frontier_restored_total", "frontier trails replayed on resume")
            .add(r.frontier_restored);
        reg.counter("p4testgen_tests_restored_total", "emitted tests carried over on resume")
            .add(r.tests_restored);
        reg.counter(
            "p4testgen_resume_replayed_trails_total",
            "frontier trails successfully replayed to live states on resume",
        )
        .add(r.replayed_trails);
        reg.gauge(
            "p4testgen_frontier_remaining",
            "unexplored frontier trails at run end (resumable work)",
        )
        .set(r.frontier_remaining);
    }
    if let Some((at, bytes)) = *sh.last_ckpt.lock() {
        reg.gauge(
            "p4testgen_checkpoint_age_seconds",
            "Seconds since the last successful checkpoint flush",
        )
        .set(at.elapsed().as_secs());
        reg.gauge(
            "p4testgen_checkpoint_bytes",
            "On-disk size of the last successful checkpoint",
        )
        .set(bytes);
    }
}

/// Render a panic payload as text when possible.
fn panic_payload_text(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Rebuild the live [`ExecState`] for one checkpointed frontier trail by
/// re-executing from the initial state and consuming one trail element per
/// fork event (`0` = continue the parent, `e ≥ 1` = take fork `e-1`).
///
/// Replay does no feasibility checking and no fault injection: the original
/// run already admitted this exact trail, and replaying its prefix is pure
/// deterministic stepping. The step budget is the per-path budget scaled by
/// the trail depth (each queue-time hop along the trail was itself a path
/// that ran under the per-path budget). `None` means the program or engine
/// no longer produces this trail — the caller abandons it rather than
/// trusting a diverged world.
fn replay_to_trail(
    sh: &Shared<'_>,
    init: &ExecState,
    trail: &[u32],
) -> Option<ExecState> {
    let mut st = init.clone();
    if trail.is_empty() {
        return Some(st); // the root is the initial state itself
    }
    let budget = MAX_STEPS_PER_PATH.saturating_mul(trail.len() as u64 + 1);
    let mut pos = 0usize;
    let mut steps = 0u64;
    while pos < trail.len() {
        if !st.is_running() {
            return None; // finished before the trail was consumed
        }
        let cmd = st.continuations.pop()?;
        steps += 1;
        if steps > budget {
            return None;
        }
        let mut ctx = ExecCtx::new(
            sh.pool,
            sh.prog,
            &sh.next_id,
            sh.config.parser_loop_bound,
            sh.config.seed,
        );
        ctx.apply_entry_restrictions = sh.config.preconditions.apply_entry_restrictions;
        let res = exec::step(&mut ctx, &mut st, sh.target, cmd);
        let forks = std::mem::take(&mut ctx.forks);
        res.ok()?;
        if forks.is_empty() {
            continue;
        }
        let e = trail[pos];
        pos += 1;
        if e == 0 {
            // Continue the parent along its (…, 0) trail; the forked
            // children belong to other frontier entries.
            st.trail.push(0);
        } else {
            let mut f = forks.into_iter().nth(e as usize - 1)?;
            f.trail.push(e);
            st = f;
            // A queue-time trail ends on a nonzero element: when the last
            // element is consumed here the state is exactly what the
            // original run had queued — return it unstepped.
        }
    }
    Some(st)
}

/// One exploration worker: drives states popped from its local deque,
/// queues feasible forks locally, and steals when idle.
struct PathWorker<'a, 'b> {
    sh: &'b Shared<'a>,
    widx: u32,
    solver: Solver,
    rng: StdRng,
    phases: PhaseStats,
    /// Per-*path* scratch counters, folded into the shared [`Journal`] by
    /// the per-path transaction in the worker loop (`mem::take`n there).
    paths: u64,
    infeasible: u64,
    abandoned: u64,
    out_of_shard: u64,
    errors: ErrorStats,
    /// Feasible children found by the current path. A worker field — not a
    /// `process` local — so children queued before an injected/organic
    /// panic survive the unwind, exactly as the old inline pushes did. They
    /// reach the local deque only after the journal transaction commits.
    spawned: Vec<Pending>,
    /// The current path's emission, if it survived the top-k filter.
    pending_emit: Option<(Vec<u32>, TestSpec)>,
    /// The one per-path record and worker event buffer, `Some` while
    /// `ObsConfig::trace` is on. `None` (the default) costs one pointer
    /// test per path and allocates nothing.
    log: Option<TraceLog>,
    /// Successful steals (counted even with tracing off — one add per steal).
    steals: u64,
    /// Logical queries issued while processing the current path. Counted at
    /// the query *sites* (fork admission, emission verdict) rather than from
    /// raw solver-check deltas, so a memo hit counts like a solver round
    /// trip — raw deltas would differ with which worker warmed the memo,
    /// breaking the trace determinism contract.
    path_checks: u64,
}

/// If a worker dies *outside* the per-path panic isolation, its `live`
/// bookkeeping is lost and sibling workers would spin on `live > 0` forever.
/// This drop guard (armed only while the thread is unwinding) flips the
/// abort flag so siblings bail out and the join can report a [`RunError`].
struct AbortGuard<'x> {
    aborted: &'x AtomicBool,
    stop: &'x AtomicBool,
}

impl Drop for AbortGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.aborted.store(true, Ordering::Relaxed);
            self.stop.store(true, Ordering::Relaxed);
        }
    }
}

fn run_worker(sh: &Shared<'_>, widx: usize, local: WorkerDeque<Pending>) -> WorkerOut {
    let _abort_guard = AbortGuard { aborted: &sh.aborted, stop: &sh.stop };
    let t_worker = Instant::now();
    let metrics_on = sh.config.obs.metrics.is_some();
    let mut solver = Solver::new();
    solver.set_budget(SolveBudget::conflicts(sh.config.solver_budget));
    solver.set_mode(sh.config.solver_mode);
    let mut w = PathWorker {
        sh,
        widx: widx as u32,
        solver,
        // Worker-local RNG (used only by RandomBacktrack selection, which is
        // schedule-dependent anyway). Test-emission RNG is per-path.
        rng: StdRng::seed_from_u64(
            sh.config.seed ^ (widx as u64).wrapping_mul(0xA076_1D64_78BD_642F),
        ),
        phases: PhaseStats::default(),
        paths: 0,
        infeasible: 0,
        abandoned: 0,
        out_of_shard: 0,
        errors: ErrorStats::default(),
        spawned: Vec::new(),
        pending_emit: None,
        log: sh.config.obs.trace.then(TraceLog::new),
        steals: 0,
        path_checks: 0,
    };
    w.event("worker-start", None, None);
    let live_status = sh.config.obs.live.as_deref();
    if let Some(ls) = live_status {
        // Workers start busy (`was_busy = true` below mirrors this).
        ls.workers_busy.fetch_add(1, Ordering::Relaxed);
    }
    let mut parks = 0u64;
    let mut queue_depth_hist = [0u64; QUEUE_DEPTH_BOUNDS.len() + 1];
    let mut queue_depth_sum = 0u64;
    // Busy→idle edge detector: `park` fires once per transition, not per
    // polling iteration (an idle worker spins through here constantly).
    let mut was_busy = true;
    let mut deadline_seen = false;
    let mut drain_seen = false;
    loop {
        if sh.aborted.load(Ordering::Relaxed) {
            break;
        }
        let pending = match w.select_local(&local) {
            Some(p) => Some(p),
            None => w.steal(widx),
        };
        let Some(p) = pending else {
            if was_busy {
                was_busy = false;
                parks += 1;
                w.event("park", None, None);
                if let Some(ls) = live_status {
                    ls.workers_busy.fetch_sub(1, Ordering::Relaxed);
                }
            }
            if sh.live.load(Ordering::Acquire) == 0 {
                break;
            }
            std::thread::yield_now();
            continue;
        };
        if !was_busy {
            if let Some(ls) = live_status {
                ls.workers_busy.fetch_add(1, Ordering::Relaxed);
            }
        }
        was_busy = true;
        let t_busy = Instant::now();
        if metrics_on {
            let depth = local.len() as u64;
            queue_depth_hist[QUEUE_DEPTH_BOUNDS.partition_point(|&b| b < depth)] += 1;
            queue_depth_sum += depth;
        }
        // Drain/deadline first, before any path work. With a checkpoint
        // configured (or after a kill fault) the popped state is simply
        // dropped — its trail *stays* in the journal's pending set, so the
        // final checkpoint hands it to a resuming run. Without one, legacy
        // deadline semantics apply: the state is *abandoned* (undecided),
        // unlike a cap-stop discard, which truncates a fully-decided run.
        if sh.drain_requested() {
            if sh.config.checkpoint.is_some() || sh.kill_hit.load(Ordering::Relaxed) {
                if !drain_seen {
                    drain_seen = true;
                    w.event("drain", Some(&p.st.trail), None);
                }
            } else {
                {
                    let mut j = sh.journal.lock();
                    j.pending.remove(&p.st.trail);
                    j.abandoned += 1;
                    j.errors.bump_reason(reason::DEADLINE);
                }
                w.pruned(&p.st, PathOutcome::Abandoned(reason::DEADLINE));
                if !deadline_seen {
                    deadline_seen = true;
                    w.event("deadline", Some(&p.st.trail), None);
                }
            }
            w.phases.busy += t_busy.elapsed();
            sh.live.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        // Injected hard abort: the simulated power loss happens at pop
        // time, before the state is processed, so its trail stays in the
        // frontier and siblings latch into the drain path above.
        if sh.config.fault_plan.wants_kill(&p.st.trail) {
            sh.kill_hit.store(true, Ordering::Relaxed);
            sh.drain_hit.store(true, Ordering::Relaxed);
            sh.stop.store(true, Ordering::Relaxed);
            w.event("kill-fault", Some(&p.st.trail), None);
            w.phases.busy += t_busy.elapsed();
            sh.live.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        let mut discard = sh.stop.load(Ordering::Relaxed);
        if !discard && sh.config.max_tests > 0 {
            // Subtree pruning for the deterministic test cap: every test in
            // this state's subtree has a trail ≥ the state's trail, so once
            // k better trails exist the subtree cannot reach the final
            // top-k. (The converse holds under any schedule: the heap's top
            // only ever improves, so a state that could still contribute is
            // never pruned — the final suite is schedule-independent.)
            let best = sh.best.lock();
            discard = best.len() as u64 >= sh.config.max_tests
                && best.peek().is_some_and(|worst| p.st.trail >= *worst);
        }
        if !discard && sh.config.max_paths > 0 {
            let n = sh.paths_started.fetch_add(1, Ordering::Relaxed);
            if n >= sh.config.max_paths {
                sh.stop.store(true, Ordering::Relaxed);
                discard = true;
            }
        }
        if discard {
            // Cap discards *decide* the subtree (it can never contribute),
            // so it leaves the frontier — a resumed run agrees.
            sh.journal.lock().pending.remove(&p.st.trail);
            w.phases.busy += t_busy.elapsed();
            sh.live.fetch_sub(1, Ordering::AcqRel);
            continue;
        }
        // Per-path panic isolation: a poisoned path is recorded and
        // abandoned; the worker (and every other path) continues. The
        // state is stepped behind a mutable reference so its trail and
        // trace survive the unwind for the PanicRecord.
        let popped_trail = p.st.trail.clone();
        let mut st = p.st;
        let outcome = catch_unwind(AssertUnwindSafe(|| w.process(&mut st)));
        if let Err(payload) = outcome {
            // The warm spine core may have been abandoned mid-push by
            // the unwound frame; drop it so the next feasibility check
            // rebuilds from its own (fully specified) constraint set.
            w.solver.reset_warm();
            w.abandoned += 1;
            w.errors.panicked_paths += 1;
            w.errors.bump_reason(reason::PANIC);
            let payload_text = panic_payload_text(payload.as_ref());
            if w.observed() {
                w.event("panic", Some(&st.trail), Some(payload_text.clone()));
            }
            w.errors.panics.push(PanicRecord {
                trail: st.trail.clone(),
                payload: payload_text,
                last_trace: st.trace.last().cloned(),
            });
            // Step/check counts died with the unwound frame; the trail
            // survives in the state and identifies the path.
            w.pruned(&st, PathOutcome::Panicked);
        }
        // The per-path journal transaction: atomically replace the popped
        // trail with its children and emission, and fold this path's
        // scratch counters. Runs for panicked paths too — children queued
        // before the unwind are real frontier (the old inline pushes kept
        // them as well).
        let spawned = std::mem::take(&mut w.spawned);
        let emit = w.pending_emit.take();
        let live_snapshot = {
            let mut j = sh.journal.lock();
            j.pending.remove(&popped_trail);
            for s in &spawned {
                j.pending.insert(s.st.trail.clone());
            }
            if let Some(e) = emit {
                j.emitted.push(e);
            }
            j.paths += std::mem::take(&mut w.paths);
            j.infeasible += std::mem::take(&mut w.infeasible);
            j.abandoned += std::mem::take(&mut w.abandoned);
            j.out_of_shard += std::mem::take(&mut w.out_of_shard);
            let mut scratch = std::mem::take(&mut w.errors);
            if j.errors.panics.len() >= MAX_PANIC_RECORDS {
                scratch.panics.clear();
            }
            j.errors.absorb(&scratch);
            live_status.map(|_| (j.pending.len() as u64, j.emitted.len() as u64, j.paths))
        };
        if let (Some(ls), Some((frontier, emitted, paths))) = (live_status, live_snapshot) {
            let queue_live = sh.live.load(Ordering::Relaxed);
            ls.publish(frontier, emitted, paths, queue_live, sh.coverage.covered_count() as u64);
        }
        if !spawned.is_empty() {
            // `live` covers this path's own slot until the fetch_sub below,
            // so incrementing after the transaction cannot race termination.
            sh.live.fetch_add(spawned.len() as u64, Ordering::AcqRel);
            for s in spawned {
                local.push(s);
            }
        }
        w.maybe_flush_checkpoint();
        w.phases.busy += t_busy.elapsed();
        sh.live.fetch_sub(1, Ordering::AcqRel);
    }
    w.event("worker-stop", None, None);
    if was_busy {
        if let Some(ls) = live_status {
            ls.workers_busy.fetch_sub(1, Ordering::Relaxed);
        }
    }
    WorkerOut {
        idle: t_worker.elapsed().saturating_sub(w.phases.busy),
        phases: w.phases,
        solver_stats: w.solver.stats.clone(),
        sat_stats: w.solver.sat_stats().clone(),
        inc_stats: w.solver.inc_stats.clone(),
        log: w.log,
        steals: w.steals,
        parks,
        queue_depth_hist,
        queue_depth_sum,
    }
}

impl PathWorker<'_, '_> {
    /// Is any worker event sink on? Callers building an event's `detail`
    /// string gate on this first, so "off" allocates nothing.
    fn observed(&self) -> bool {
        self.log.is_some() || self.sh.config.obs.flight.is_some()
    }

    /// The one worker event call: send `kind` (with the path `trail` it
    /// concerns, if any, and a free-form `detail`) to every enabled sink —
    /// the flight recorder's ring and the trace's engine events. A no-op,
    /// with no allocation, when both are off.
    fn event(&mut self, kind: &'static str, trail: Option<&[u32]>, detail: Option<String>) {
        if let Some(fr) = &self.sh.config.obs.flight {
            fr.record(self.widx, kind, trail.map(<[u32]>::to_vec), detail.clone());
        }
        if let Some(log) = &mut self.log {
            log.engine.push(SpanEvent {
                at_ns: self.sh.started.elapsed().as_nanos() as u64,
                worker: self.widx,
                seq: log.engine.len() as u64,
                kind,
                trail: trail.map(<[u32]>::to_vec),
                detail,
            });
        }
    }

    /// The one sink for a path's terminal record: every per-path view is
    /// derived from these at merge time, and the flight recorder gets the
    /// record's `path-end` span here. Callers build the record only when
    /// [`PathWorker::observed`].
    fn path_end(&mut self, rec: PathRecord) {
        if let Some(fr) = &self.sh.config.obs.flight {
            fr.record(
                self.widx,
                "path-end",
                Some(rec.trail.clone()),
                Some(format!("{} steps={} checks={}", rec.outcome.key(), rec.steps, rec.checks)),
            );
        }
        if let Some(log) = &mut self.log {
            log.paths.push(rec);
        }
    }

    /// Record a path that ends without being processed to completion: a
    /// pruned fork, a deadline abandon at pop time, or a panic. It has no
    /// steps, checks, or timing of its own — a pruned fork's admission
    /// query is charged to the parent path that issued it.
    fn pruned(&mut self, st: &ExecState, outcome: PathOutcome) {
        if self.observed() {
            self.path_end(PathRecord {
                trail: st.trail.clone(),
                steps: 0,
                checks: 0,
                outcome,
                timing: PathTiming::default(),
                constraints: st.constraints.len() as u64,
                near_stmt: near_stmt(st),
            });
        }
    }

    /// Pop the next state from the local deque per the configured strategy.
    fn select_local(&mut self, local: &WorkerDeque<Pending>) -> Option<Pending> {
        let sh = self.sh;
        match sh.config.strategy {
            Strategy::Dfs => local.pop(),
            // O(1) front pop — the deque replaces the old `Vec::remove(0)`.
            Strategy::Bfs => local.with(|d| d.pop_front()),
            Strategy::RandomBacktrack => {
                let rng = &mut self.rng;
                local.with(|d| {
                    if d.is_empty() {
                        None
                    } else {
                        let i = rng.gen_range(0..d.len());
                        d.swap_remove_back(i)
                    }
                })
            }
            Strategy::CoverageFirst => local.with(|d| {
                if d.is_empty() {
                    return None;
                }
                // Most novel statements covered wins; ties go to the most
                // recent state (DFS-like locality). Novelty counts are
                // cached per state and recomputed only when the global
                // coverage epoch has advanced.
                let epoch = sh.coverage.epoch();
                let mut best = (0usize, 0usize);
                for i in 0..d.len() {
                    let p = d.get_mut(i).expect("index in range");
                    let novel = match p.novelty {
                        Some((e, n)) if e == epoch => n,
                        _ => {
                            let n = p
                                .st
                                .covered
                                .iter()
                                .filter(|id| !sh.coverage.contains(**id))
                                .count();
                            p.novelty = Some((epoch, n));
                            n
                        }
                    };
                    if (novel, i) >= best {
                        best = (novel, i);
                    }
                }
                d.swap_remove_back(best.1)
            }),
        }
    }

    /// Round-robin steal from the other workers' deques.
    fn steal(&mut self, widx: usize) -> Option<Pending> {
        let n = self.sh.stealers.len();
        for k in 1..n {
            let i = (widx + k) % n;
            loop {
                match self.sh.stealers[i].steal() {
                    Steal::Success(p) => {
                        self.steals += 1;
                        if self.observed() {
                            self.event("steal", None, Some(format!("from={i}")));
                        }
                        return Some(p);
                    }
                    Steal::Empty => break,
                    Steal::Retry => continue,
                }
            }
        }
        None
    }

    /// Injected Unknown (fault plan) for a query issued at `trail`. Counts
    /// the forced verdict — and the retry the plan also swallows — so the
    /// injected-fault books balance exactly like organic ones.
    fn injected_unknown(&mut self, trail: &[u32]) -> bool {
        if !self.sh.config.fault_plan.wants_unknown(trail) {
            return false;
        }
        self.errors.unknown_queries += 1;
        self.errors.budget_retries += 1;
        true
    }

    /// Injected panic (fault plan): deliberately poison this path. The
    /// per-path `catch_unwind` in the worker loop contains it.
    fn maybe_panic(&self, trail: &[u32]) {
        if self.sh.config.fault_plan.wants_panic(trail) {
            panic!("injected fault: panic at trail {trail:?}");
        }
    }

    /// One *logical* solver query with budget handling: on Unknown, retry
    /// once with a rotated decision-phase seed (a pure function of the run
    /// seed and the querying trail, so the retry — like everything else — is
    /// schedule-independent), then count the query as Unknown if it still
    /// failed to decide.
    fn checked(&mut self, trail: &[u32], assumptions: &[TermId]) -> CheckResult {
        self.checked_impl(trail, assumptions, false)
    }

    /// Like [`PathWorker::checked`] but verdict-only: eligible for the warm
    /// spine core under `SolverMode::Incremental`. The Unknown retry path is
    /// identical — with a budget set, `check_feasible` always solves fresh,
    /// and the rotated phase seed forces fresh too, so retry verdicts are a
    /// pure function of (constraints, budget, seed, trail) in both modes.
    fn checked_feasible(&mut self, trail: &[u32], assumptions: &[TermId]) -> CheckResult {
        self.checked_impl(trail, assumptions, true)
    }

    fn checked_impl(
        &mut self,
        trail: &[u32],
        assumptions: &[TermId],
        verdict_only: bool,
    ) -> CheckResult {
        let sh = self.sh;
        let query = |solver: &mut Solver| {
            if verdict_only {
                solver.check_feasible(sh.pool, assumptions)
            } else {
                solver.check_assuming(sh.pool, assumptions)
            }
        };
        let mut res = query(&mut self.solver);
        if res == CheckResult::Unknown {
            self.errors.budget_retries += 1;
            self.event("budget-retry", Some(trail), None);
            self.solver.set_phase_seed((sh.config.seed ^ trail_hash(trail)) | 1);
            res = query(&mut self.solver);
            self.solver.set_phase_seed(0);
        }
        if res == CheckResult::Unknown {
            self.errors.unknown_queries += 1;
        }
        if self.observed() {
            let verdict = match res {
                CheckResult::Sat => "sat",
                CheckResult::Unsat => "unsat",
                CheckResult::Unknown => "unknown",
            };
            self.event(
                "solver-check",
                Some(trail),
                Some(format!(
                    "{verdict} {} assumptions={}",
                    if verdict_only { "feasibility" } else { "model" },
                    assumptions.len(),
                )),
            );
        }
        res
    }

    /// Fork-feasibility check with memoization on the constraint set.
    fn fork_feasible(&mut self, f: &ExecState) -> CheckResult {
        let sh = self.sh;
        // One logical query regardless of how it resolves (injected fault,
        // memo hit, or solver round trip) — see the `path_checks` field docs.
        self.path_checks += 1;
        // Fault injection comes before the memo: a memoized verdict must
        // never swallow a planned fault on some schedules but not others.
        if self.injected_unknown(&f.trail) {
            return CheckResult::Unknown;
        }
        let key = FeasMemo::key(&f.constraints);
        if let Some(sat) = sh.memo.lookup(&key) {
            return if sat { CheckResult::Sat } else { CheckResult::Unsat };
        }
        // Second, persistent memo layer keyed by a TermId-independent
        // fingerprint: only consulted when checkpointing is on (the
        // fingerprint walk costs real time). A hit also warms the cheap
        // TermId layer for this process's lifetime.
        let stable_fp = sh
            .memo
            .persistent()
            .then(|| stable_fingerprint(sh.pool, &f.constraints));
        if let Some(fp) = stable_fp {
            if let Some(sat) = sh.memo.stable_lookup(fp) {
                sh.memo.record(key, sat);
                return if sat { CheckResult::Sat } else { CheckResult::Unsat };
            }
        }
        let t1 = Instant::now();
        let res = self.checked_feasible(&f.trail, &f.constraints);
        self.phases.solving += t1.elapsed();
        // Unknown is a verdict about the budget, not the constraint set —
        // never memoize it.
        if res != CheckResult::Unknown {
            sh.memo.record(key, res == CheckResult::Sat);
            if let Some(fp) = stable_fp {
                sh.memo.stable_record(fp, res == CheckResult::Sat);
            }
        }
        res
    }

    /// Periodic checkpoint flush, called once per completed journal
    /// transaction. The interval gate lives behind a `try_lock` so at most
    /// one worker pays the snapshot+write cost per interval and nobody ever
    /// blocks on a flush in progress.
    fn maybe_flush_checkpoint(&mut self) {
        let Some(ck) = &self.sh.config.checkpoint else { return };
        let Some(mut last) = self.sh.last_flush.try_lock() else { return };
        if last.elapsed() < ck.every {
            return;
        }
        let path = ck.path.clone();
        if self.sh.flush_checkpoint(&path) && self.observed() {
            let frontier = self.sh.journal.lock().pending.len();
            self.event("checkpoint-flush", None, Some(format!("frontier={frontier}")));
        }
        *last = Instant::now();
    }

    /// Drive one state until it forks into children, finishes, or exhausts
    /// its budget; then emit a test if it completed. Children and the
    /// emitted test land on `self.spawned` / `self.pending_emit`, which the
    /// worker loop commits to the shared journal in one transaction after
    /// this call returns (or unwinds — spawned children survive a panic).
    fn process(&mut self, st: &mut ExecState) {
        let sh = self.sh;
        // Per-path span bookkeeping: reset the logical-query counter and
        // remember the phase clocks so the deltas at the end of this call
        // are this path's own cost. Plain copies — nothing here allocates
        // or branches on whether tracing is enabled.
        self.path_checks = 0;
        let phases_at_entry =
            (self.phases.stepping, self.phases.solving, self.phases.emission);
        self.maybe_panic(&st.trail);
        let mut steps: u64 = 0;
        while st.is_running() {
            let Some(cmd) = st.continuations.pop() else {
                st.finish(FinishReason::Completed);
                break;
            };
            steps += 1;
            if steps > MAX_STEPS_PER_PATH {
                st.finish(FinishReason::Abandoned("step budget exhausted".into()));
                break;
            }
            // Cooperative mid-path drain check, amortized over steps. Only
            // in legacy (no-checkpoint) mode: a checkpointing run lets
            // in-flight paths complete, because a mid-path abandon is
            // schedule-dependent and the path would be lost on resume.
            if steps & 0x1FF == 0
                && sh.config.checkpoint.is_none()
                && sh.drain_requested()
            {
                let msg = if sh.deadline_expired() {
                    "deadline expired"
                } else {
                    "drain requested"
                };
                st.finish(FinishReason::Abandoned(msg.into()));
                break;
            }
            let t0 = Instant::now();
            let mut ctx = ExecCtx::new(
                sh.pool,
                sh.prog,
                &sh.next_id,
                sh.config.parser_loop_bound,
                sh.config.seed,
            );
            ctx.apply_entry_restrictions = sh.config.preconditions.apply_entry_restrictions;
            let res = exec::step(&mut ctx, st, sh.target, cmd);
            let forks = std::mem::take(&mut ctx.forks);
            self.phases.stepping += t0.elapsed();
            if let Err(e) = res {
                st.finish(FinishReason::Abandoned(e.0));
                break;
            }
            if !forks.is_empty() {
                // Extend the fork trails *before* feasibility pruning, so a
                // path's trail does not depend on which siblings happened to
                // be pruned (pruning verdicts are deterministic, but this
                // keeps trail assignment trivially schedule-independent).
                // Children are pushed in reverse so the owner's LIFO pop
                // explores the lowest fork index — lex-smallest trail —
                // first, which under a test cap reaches the retained top-k
                // quickly and lets the subtree pruning close the rest.
                st.trail.push(0);
                for (i, mut f) in forks.into_iter().enumerate().rev() {
                    f.trail.push(i as u32 + 1);
                    // Shard pruning happens first — before any solver work —
                    // and before trace records, so per-shard traces contain
                    // only owned paths. `may_own_subtree` keeps every trail
                    // shorter than the shard prefix, so short-trail tests
                    // are claimed by `owns_test` at emission instead.
                    if let Some(shard) = &sh.config.shard {
                        if !shard.may_own_subtree(&f.trail) {
                            self.out_of_shard += 1;
                            continue;
                        }
                    }
                    if f.trivially_unsat(sh.pool) {
                        self.infeasible += 1;
                        self.pruned(&f, PathOutcome::Infeasible);
                        continue;
                    }
                    if sh.config.eager_pruning && !f.constraints.is_empty() {
                        match self.fork_feasible(&f) {
                            CheckResult::Sat => {}
                            CheckResult::Unsat => {
                                self.infeasible += 1;
                                self.pruned(&f, PathOutcome::Infeasible);
                                continue;
                            }
                            CheckResult::Unknown => {
                                // Undecided, not proven infeasible: the fork
                                // is *abandoned* (budget or injected fault).
                                self.abandoned += 1;
                                self.errors.bump_reason(reason::SOLVER_UNKNOWN);
                                self.pruned(&f, PathOutcome::Abandoned(reason::SOLVER_UNKNOWN));
                                continue;
                            }
                        }
                    }
                    self.spawned.push(Pending { st: f, novelty: None });
                }
                // The continuing (…, 0) trail may have left this shard's
                // prefix; stop stepping it here. Not a journal event — the
                // owning shard explores the identical continuation.
                if let Some(shard) = &sh.config.shard {
                    if !shard.may_own_subtree(&st.trail) {
                        self.out_of_shard += 1;
                        return;
                    }
                }
                // Injected panic on the continuing (…, 0) trail — after the
                // children are queued, so only this continuation is lost.
                self.maybe_panic(&st.trail);
                if !st.is_running() {
                    break; // superseded by forks
                }
            }
        }
        // A completed state whose full trail belongs to another shard is
        // dropped before emission (and before the shared heap): the owning
        // shard emits the identical test. Checked only for finished states
        // that would emit — infeasible/abandoned bookkeeping is shard-local.
        if matches!(
            st.finished,
            Some(FinishReason::Completed) | Some(FinishReason::Dropped)
        ) {
            if let Some(shard) = &sh.config.shard {
                if !shard.owns_test(&st.trail) {
                    self.out_of_shard += 1;
                    return;
                }
            }
        }
        self.paths += 1;
        let outcome = match &st.finished {
            Some(FinishReason::Completed) | Some(FinishReason::Dropped) => {
                let t2 = Instant::now();
                let solving_before = self.phases.solving;
                let emitted = self.emit_test(st);
                let nested_solving = self.phases.solving - solving_before;
                self.phases.emission += t2.elapsed().saturating_sub(nested_solving);
                match emitted {
                    Ok(spec) => {
                        sh.coverage.add(&st.covered);
                        let mut keep = true;
                        if sh.config.max_tests > 0 {
                            let mut best = sh.best.lock();
                            if (best.len() as u64) < sh.config.max_tests {
                                best.push(st.trail.clone());
                            } else if best.peek().is_some_and(|worst| st.trail < *worst) {
                                best.pop();
                                best.push(st.trail.clone());
                            } else {
                                // Outside the retained top-k; the merger
                                // would truncate it anyway.
                                keep = false;
                            }
                        }
                        if keep {
                            self.pending_emit = Some((st.trail.clone(), spec));
                        }
                        if sh.config.stop_at_full_coverage && sh.coverage.is_full() {
                            sh.stop.store(true, Ordering::Relaxed);
                        }
                        PathOutcome::Emitted
                    }
                    Err(key) => {
                        self.abandoned += 1;
                        self.errors.bump_reason(key);
                        PathOutcome::Abandoned(key)
                    }
                }
            }
            Some(FinishReason::Infeasible) => {
                self.infeasible += 1;
                PathOutcome::Infeasible
            }
            Some(FinishReason::Abandoned(msg)) => {
                self.abandoned += 1;
                let key = classify_abandon_reason(msg);
                self.errors.bump_reason(key);
                PathOutcome::Abandoned(key)
            }
            None => {
                self.abandoned += 1;
                self.errors.bump_reason(reason::EXEC_ERROR);
                PathOutcome::Abandoned(reason::EXEC_ERROR)
            }
        };
        if self.observed() {
            self.path_end(PathRecord {
                trail: st.trail.clone(),
                steps,
                checks: self.path_checks,
                outcome,
                timing: PathTiming {
                    step_ns: (self.phases.stepping - phases_at_entry.0).as_nanos() as u64,
                    solve_ns: (self.phases.solving - phases_at_entry.1).as_nanos() as u64,
                    emit_ns: (self.phases.emission - phases_at_entry.2).as_nanos() as u64,
                },
                constraints: st.constraints.len() as u64,
                near_stmt: near_stmt(st),
            });
        }
    }

    /// Concretize a finished state into a test specification; `Err(reason)`
    /// — a [`reason`] taxonomy key — when the path must be discarded (unsat,
    /// Unknown, unresolvable concolics, or a tainted output port). The
    /// spec's `id` is provisional — the merger renumbers after
    /// trail-sorting.
    fn emit_test(&mut self, st: &ExecState) -> Result<TestSpec, &'static str> {
        let sh = self.sh;
        // Injected Unknown at this finished trail (fault plan): the
        // emission-time check is treated as exhausted before being issued.
        // (For leaf trails that were eagerly pruned as forks the injection
        // already fired in `fork_feasible` and execution never got here.)
        if self.injected_unknown(&st.trail) {
            self.path_checks += 1;
            return Err(reason::SOLVER_UNKNOWN);
        }
        // Tainted output port, or control flow that branched on a tainted
        // value: the test would be flaky (§5.3 / footnote 2) — drop it.
        if st.flag("taint_flaky") == 1 {
            return Err(reason::TAINTED_OUTPUT);
        }
        for out in &st.outputs {
            if out.port.is_tainted() {
                return Err(reason::TAINTED_OUTPUT);
            }
        }
        // Resolve concolic bindings (§5.4); adds equality constraints. An
        // Unknown inside the concolic loop surfaces as a failed resolution.
        let t0 = Instant::now();
        let extra = resolve_concolics(
            sh.pool,
            &mut self.solver,
            sh.concolics,
            &st.concolics,
            &st.constraints,
            CONCOLIC_RETRIES,
        );
        let mut assumptions = st.constraints.clone();
        match extra {
            Some(eqs) => assumptions.extend(eqs),
            None => {
                self.phases.solving += t0.elapsed();
                return Err(reason::CONCOLIC_UNRESOLVED);
            }
        }
        self.path_checks += 1;
        let verdict = self.checked(&st.trail, &assumptions);
        self.phases.solving += t0.elapsed();
        match verdict {
            CheckResult::Sat => {}
            CheckResult::Unsat => return Err(reason::EMISSION_UNSAT),
            CheckResult::Unknown => return Err(reason::SOLVER_UNKNOWN),
        }
        // Randomize free control-plane choices (the paper: "the output port
        // is chosen at random"): propose seeded random values for synthesized
        // entry arguments and fall back to the unbiased model when the
        // proposal is inconsistent with the path constraints. Seeded by the
        // fork trail so the choice is a function of the path, not of the
        // order in which workers reached it.
        let t1 = Instant::now();
        let mut proposals: Vec<TermId> = Vec::new();
        let mut rng = StdRng::seed_from_u64(sh.config.seed ^ trail_hash(&st.trail));
        for e in &st.entries {
            for (_, t, w) in &e.args {
                // `from_u128` truncates the draw to the argument's width.
                let c = sh.pool.constant(BitVec::from_u128(*w as usize, rng.gen::<u128>()));
                proposals.push(sh.pool.eq(*t, c));
            }
        }
        if !proposals.is_empty() {
            let mut with_rand = assumptions.clone();
            with_rand.extend(proposals.iter().copied());
            if self.solver.check_assuming(sh.pool, &with_rand) == CheckResult::Sat {
                assumptions = with_rand;
            } else {
                // Re-establish the model without the proposals.
                let _ = self.solver.check_assuming(sh.pool, &assumptions);
            }
        }
        self.phases.solving += t1.elapsed();
        // Gather every variable the test depends on and extract the model.
        let model = self.model_for(st, &assumptions);
        // Input packet.
        let mut input_bits = BitVec::empty();
        for chunk in &st.packet.input {
            input_bits = input_bits.concat(&eval(sh.pool, &model, chunk.term));
        }
        let input_packet = bits_to_bytes(&input_bits);
        // Input port (targets record it in a conventional slot).
        let input_port = match st.read_global("$input_port") {
            Some(s) => self.model_u64(&model, s.term) as u32,
            None => 0,
        };
        // Outputs.
        let mut outputs = Vec::new();
        for out in &st.outputs {
            let port = self.model_u64(&model, out.port.term) as u32;
            let packet = match &out.payload {
                Some(p) => {
                    let data = eval(sh.pool, &model, p.term);
                    masked_bytes(&data, &p.taint)
                }
                None => MaskedBytes::exact(Vec::new()),
            };
            outputs.push(OutputPacketSpec { port, packet });
        }
        // Control-plane entries.
        let entries = st
            .entries
            .iter()
            .map(|e| TableEntrySpec {
                table: e.table.clone(),
                keys: e.keys.iter().map(|k| self.concretize_key(k, &model)).collect(),
                action: e.action.clone(),
                action_args: e
                    .args
                    .iter()
                    .map(|(n, t, w)| {
                        (n.clone(), value_bytes(&eval(sh.pool, &model, *t), *w))
                    })
                    .collect(),
                priority: e.priority,
            })
            .collect();
        // Registers.
        let mut register_init = Vec::new();
        let mut register_expect = Vec::new();
        for op in &st.register_ops {
            match op {
                RegisterOp::Read { instance, index, result, width } => {
                    register_init.push(RegisterSpec {
                        instance: instance.clone(),
                        index: self.model_u64(&model, *index),
                        value: value_bytes(&eval(sh.pool, &model, *result), *width),
                    });
                }
                RegisterOp::Write { instance, index, value, width } => {
                    register_expect.push(RegisterSpec {
                        instance: instance.clone(),
                        index: self.model_u64(&model, *index),
                        value: value_bytes(&eval(sh.pool, &model, *value), *width),
                    });
                }
            }
        }
        Ok(TestSpec {
            id: 0,
            program: sh.program_name.to_string(),
            target: sh.target.name().to_string(),
            seed: sh.config.seed,
            input_port,
            input_packet,
            entries,
            register_init,
            register_expect,
            outputs,
            covered_statements: st.covered.iter().map(|s| s.0).collect(),
            trace: st.trace.clone(),
        })
    }

    /// Evaluate a term under the model as `u64`, falling back to 0 — and
    /// counting the silent gap in `errors.model_defaults` — when the model
    /// has no 64-bit value for it.
    fn model_u64(&mut self, model: &Assignment, t: TermId) -> u64 {
        match eval(self.sh.pool, model, t).to_u64() {
            Some(v) => v,
            None => {
                self.errors.model_defaults += 1;
                0
            }
        }
    }

    fn model_for(&self, st: &ExecState, assumptions: &[TermId]) -> Assignment {
        let pool = self.sh.pool;
        let mut vars: Vec<VarId> = Vec::new();
        for &c in assumptions {
            vars.extend(pool.vars_of(c));
        }
        for chunk in &st.packet.input {
            vars.extend(pool.vars_of(chunk.term));
        }
        for out in &st.outputs {
            vars.extend(pool.vars_of(out.port.term));
            if let Some(p) = &out.payload {
                vars.extend(pool.vars_of(p.term));
            }
        }
        for e in &st.entries {
            for k in &e.keys {
                for t in [k.value, k.mask, k.hi].into_iter().flatten() {
                    vars.extend(pool.vars_of(t));
                }
            }
            for (_, t, _) in &e.args {
                vars.extend(pool.vars_of(*t));
            }
        }
        for op in &st.register_ops {
            match op {
                RegisterOp::Read { index, result, .. } => {
                    vars.extend(pool.vars_of(*index));
                    vars.extend(pool.vars_of(*result));
                }
                RegisterOp::Write { index, value, .. } => {
                    vars.extend(pool.vars_of(*index));
                    vars.extend(pool.vars_of(*value));
                }
            }
        }
        if let Some(p) = st.read_global("$input_port") {
            vars.extend(pool.vars_of(p.term));
        }
        vars.sort();
        vars.dedup();
        self.solver.model(pool, &vars)
    }

    fn concretize_key(&self, k: &SynthKeyMatch, model: &Assignment) -> KeyMatch {
        let pool = self.sh.pool;
        let val = |t: Option<TermId>| {
            t.map(|t| value_bytes(&eval(pool, model, t), k.width)).unwrap_or_default()
        };
        match k.match_kind.as_str() {
            "ternary" => KeyMatch::Ternary {
                name: k.key_name.clone(),
                value: val(k.value),
                mask: val(k.mask),
            },
            "lpm" => KeyMatch::Lpm {
                name: k.key_name.clone(),
                value: val(k.value),
                prefix_len: k.prefix_len.unwrap_or(k.width),
            },
            "range" => KeyMatch::Range {
                name: k.key_name.clone(),
                lo: val(k.value),
                hi: val(k.hi),
            },
            "optional" => {
                // Zero mask encodes the wildcard.
                let wildcard = k
                    .mask
                    .map(|m| eval(pool, model, m).is_zero())
                    .unwrap_or(false);
                KeyMatch::Optional {
                    name: k.key_name.clone(),
                    value: if wildcard { None } else { Some(val(k.value)) },
                }
            }
            _ => KeyMatch::Exact { name: k.key_name.clone(), value: val(k.value) },
        }
    }
}

/// The deepest (highest-id) statement a path covered: how close it got.
fn near_stmt(st: &ExecState) -> Option<u32> {
    st.covered.iter().next_back().map(|s| s.0)
}

/// Bits (MSB-first) to bytes, right-padding the final partial byte with 0.
fn bits_to_bytes(bits: &BitVec) -> Vec<u8> {
    let w = bits.width();
    if w == 0 {
        return Vec::new();
    }
    let rem = w % 8;
    let padded = if rem == 0 {
        bits.clone()
    } else {
        bits.concat(&BitVec::zeros(8 - rem))
    };
    padded.to_bytes_be()
}

/// A value rendered as minimal big-endian bytes of its declared width.
fn value_bytes(v: &BitVec, width: u32) -> Vec<u8> {
    let byte_w = (width as usize).div_ceil(8) * 8;
    v.cast(byte_w).to_bytes_be()
}

/// Data + taint mask to masked bytes (taint bit 1 → mask bit 0).
fn masked_bytes(data: &BitVec, taint: &BitVec) -> MaskedBytes {
    let d = bits_to_bytes(data);
    let m = bits_to_bytes(&taint.not());
    MaskedBytes { data: d, mask: m }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn feas_memo_key_is_canonical() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 1);
        let y = p.fresh_var("y", 1);
        let a = FeasMemo::key(&[y, x, y]);
        let b = FeasMemo::key(&[x, y]);
        assert_eq!(a, b);
        let memo = FeasMemo::new();
        assert_eq!(memo.lookup(&a), None);
        memo.record(a.clone(), true);
        assert_eq!(memo.lookup(&a), Some(true));
        assert_eq!(memo.hits.load(Ordering::Relaxed), 1);
    }

    /// A verdict recorded by one budget class must be invisible to another:
    /// a high-budget tenant's definitive answer leaking into a low-budget
    /// tenant's run would diverge that tenant's suite from its cold CLI
    /// run, which would have abandoned the query as Unknown.
    #[test]
    fn shared_memo_is_partitioned_by_budget_class() {
        let shared = Arc::new(SharedFeasMemo::new(16));
        let mut big = TestgenConfig::default();
        big.solver_budget = 1_000_000;
        let mut small = big.clone();
        small.solver_budget = 1;
        let (big_class, small_class) =
            (feas_budget_class(&big), feas_budget_class(&small));
        assert_ne!(big_class, small_class);

        let writer = FeasMemo::with_persistence(&[], Some(Arc::clone(&shared)), big_class);
        writer.stable_record(42, true);
        let reader_small =
            FeasMemo::with_persistence(&[], Some(Arc::clone(&shared)), small_class);
        assert_eq!(reader_small.stable_lookup(42), None);
        let reader_big = FeasMemo::with_persistence(&[], Some(shared), big_class);
        assert_eq!(reader_big.stable_lookup(42), Some(true));

        // Budget-irrelevant config fields (here: max_tests) do not split the
        // class — that sharing is the point of the daemon-wide memo.
        let mut other = big.clone();
        other.max_tests = big.max_tests + 7;
        assert_eq!(feas_budget_class(&other), big_class);
        // The seed feeds the budget retry's phase seed and so decides which
        // queries come back definitive: it splits the class.
        let mut seeded = big.clone();
        seeded.seed = big.seed + 1;
        assert_ne!(feas_budget_class(&seeded), big_class);
    }
}
