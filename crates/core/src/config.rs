//! Generation configuration, and [`TestgenConfig::set`]: the one map from
//! an option name and its text value onto a config field, shared by every
//! front end.

use crate::checkpoint::{CheckpointCfg, ExplorationState, ShardSpec};
use crate::fault::FaultPlan;
use crate::memo::SharedFeasMemo;
use crate::preconditions::Preconditions;
use p4t_obs::{FlightRecorder, LiveStatus, Registry};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// The feasibility-check discipline, of which there is now one: simplify,
/// then bind a fresh instance (see `p4t_smt::solver`). Kept only because
/// external readers name `SolverMode::Incremental` and
/// [`TestgenConfig::solver_mode`], and because the v2 run summary's
/// `solver.mode` key reads [`SolverMode::as_str`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SolverMode {
    #[default]
    Incremental,
}

impl SolverMode {
    pub fn as_str(&self) -> &'static str {
        "incremental"
    }
}

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

/// Observability switches for a run. The default is fully off, and "off"
/// really is free: workers test one bool per *path* (never per step), no
/// path records or events are allocated, and the metrics fold at merge
/// time never runs.
#[derive(Clone, Default)]
pub struct ObsConfig {
    /// Buffer one [`PathRecord`](p4t_obs::trace::PathRecord) per finished or
    /// pruned path, plus every worker event, and derive the per-path views from
    /// them at merge time: [`RunSummary::trace`](crate::RunSummary::trace),
    /// [`RunSummary::provenance`](crate::RunSummary::provenance) and
    /// [`RunSummary::abandon_sites`](crate::RunSummary::abandon_sites).
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
    pub seed: u64,
    pub parser_loop_bound: u32,
    pub strategy: Strategy,
    pub preconditions: Preconditions,
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
    /// Inert: there is one feasibility discipline (see [`SolverMode`]).
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
    /// [`ResumeInfo::rejected`](crate::ResumeInfo::rejected)), never an error.
    pub resume: Option<ExplorationState>,
    /// Cooperative drain request (e.g. set by a SIGTERM handler): workers
    /// stop taking new states, in-flight paths finish, and — with a
    /// checkpoint configured — the untouched frontier is flushed for a
    /// later `resume`.
    pub drain: Option<Arc<AtomicBool>>,
    /// Cross-run feasibility memo shared by a long-lived host (the serve
    /// daemon). Every run keys its own memo by the stable fingerprint of a
    /// path's constraint list; with this set, a lookup that misses the
    /// run's memo also asks this bounded cache, and every verdict the run
    /// solves is written to both. Safe to share across programs —
    /// fingerprints are content-addressed canonical constraint sets, so a
    /// hit is the same query regardless of which request first solved it —
    /// but only within one [`feas_budget_class`](crate::memo::feas_budget_class):
    /// the memo partitions entries by budget class so a run never sees a
    /// verdict its own (colder-budget) solver would have abandoned as
    /// Unknown. `None` (the default) keeps the run's memo to itself.
    pub shared_memo: Option<Arc<SharedFeasMemo>>,
}

impl Default for TestgenConfig {
    /// The built-in defaults, then the `P4TESTGEN_*` environment variables
    /// applied through [`TestgenConfig::set`]. A variable whose value `set`
    /// rejects is ignored, leaving the built-in default.
    fn default() -> Self {
        let mut config = TestgenConfig {
            max_tests: 0,
            seed: 1,
            parser_loop_bound: 8,
            strategy: Strategy::Dfs,
            preconditions: Preconditions::none(),
            jobs: 1,
            solver_budget: 0,
            solver_mode: SolverMode::default(),
            deadline: None,
            interp_parser_loop_bound: 64,
            fault_plan: FaultPlan::default(),
            obs: ObsConfig::default(),
            shard: None,
            checkpoint: None,
            resume: None,
            drain: None,
            shared_memo: None,
        };
        for (var, key) in [
            ("P4TESTGEN_JOBS", "jobs"),
            ("P4TESTGEN_SOLVER_BUDGET", "solver_budget"),
            ("P4TESTGEN_DEADLINE", "deadline"),
        ] {
            if let Ok(value) = std::env::var(var) {
                let _ = config.set(key, &value);
            }
        }
        config
    }
}

/// Why [`TestgenConfig::set`] refused an option.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// No option has this name.
    UnknownKey(String),
    /// The option exists, but the value does not parse or is out of range.
    BadValue { key: String, reason: String },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::UnknownKey(key) => write!(f, "unknown config key '{key}'"),
            ConfigError::BadValue { key, reason } => {
                write!(f, "bad config value for '{key}': {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl TestgenConfig {
    /// Set one option from its text form. This is the only code that parses
    /// and range-checks an option value; the CLI (`--foo-bar V` sets
    /// `foo_bar`), `p4testgen diff`, the serve request's `config` object
    /// and the `P4TESTGEN_*` environment defaults all call it. The keys are
    /// the match arms below, each with its value rule; `deadline` is in
    /// seconds (> 0) and `deadline_ms` in milliseconds (0 expires at once).
    /// On error the config is unchanged.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ConfigError> {
        let bad = |expected: &str| ConfigError::BadValue {
            key: key.to_string(),
            reason: format!("expected {expected}, got '{value}'"),
        };
        match key {
            "max_tests" => self.max_tests = value.parse().map_err(|_| bad("a test count"))?,
            "seed" => self.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "strategy" => {
                self.strategy = match value {
                    "dfs" => Strategy::Dfs,
                    "bfs" => Strategy::Bfs,
                    "random" => Strategy::RandomBacktrack,
                    "coverage" => Strategy::CoverageFirst,
                    _ => return Err(bad("dfs, bfs, random or coverage")),
                }
            }
            "jobs" => {
                self.jobs = value
                    .parse()
                    .ok()
                    .filter(|&j: &usize| j >= 1)
                    .ok_or_else(|| bad("a worker count >= 1"))?
            }
            "solver_budget" => {
                self.solver_budget = value.parse().map_err(|_| bad("a conflict count"))?
            }
            "deadline" => {
                let secs = value
                    .parse::<f64>()
                    .ok()
                    .filter(|&s| s > 0.0)
                    .and_then(|s| Duration::try_from_secs_f64(s).ok())
                    .ok_or_else(|| bad("a number of seconds > 0"))?;
                self.deadline = Some(secs);
            }
            "deadline_ms" => {
                let ms = value.parse().map_err(|_| bad("a number of milliseconds"))?;
                self.deadline = Some(Duration::from_millis(ms));
            }
            "shard" => {
                let spec = ShardSpec::parse(value)
                    .map_err(|reason| ConfigError::BadValue { key: key.to_string(), reason })?;
                self.shard = Some(spec);
            }
            "model_loop_bound" => {
                self.interp_parser_loop_bound = value.parse().map_err(|_| bad("a loop bound"))?
            }
            "fixed_packet_bytes" | "fixed_packet_size" => {
                let bytes = value.parse().map_err(|_| bad("a packet size in bytes"))?;
                self.preconditions.fixed_packet_bytes = Some(bytes);
            }
            "with_constraints" => {
                self.preconditions.apply_entry_restrictions =
                    value.parse().map_err(|_| bad("true or false"))?
            }
            _ => return Err(ConfigError::UnknownKey(key.to_string())),
        }
        Ok(())
    }
}
