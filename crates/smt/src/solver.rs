//! Solver facade: scoped assertions, model extraction, solve statistics,
//! and the engine's two checking disciplines — fresh-per-check for
//! model-bearing queries, warm incremental spine solving for feasibility
//! verdicts.
//!
//! This is the interface the symbolic executor talks to — the analogue of
//! the paper's "Z3 configured with incremental solving". Two kinds of query
//! coexist behind one API, and the split is what reconciles incremental
//! speed with deterministic output:
//!
//! * [`Solver::check_assuming`] (and [`Solver::check`]) are **model-bearing
//!   and fresh-per-check**: the cone of the constraint set is encoded into
//!   an instance reset to the empty state, reusing storage, solved, and
//!   kept for model extraction until the next such check resets it. The
//!   reset ([`SatSolver::reset`], [`Blaster::reset`]) clears every vector
//!   and map and restores every scalar and counter to what `new` sets, so a
//!   reset instance is state-equal to a brand-new one; only capacity
//!   survives. CNF variables are therefore numbered by the blaster's
//!   structural traversal of that cone alone, and the model is a pure
//!   function of the ordered constraint list — never of what this worker
//!   (or any other) solved before. Every byte of an emitted test descends
//!   from one of these checks, which is what keeps suites byte-identical
//!   across job counts *and across solver modes*.
//!
//!   A fresh instance never retracts an assertion, so it *binds* them
//!   ([`Blaster::assert_fresh`]) instead of encoding each as a gate tree
//!   plus a unit clause: `x == 5` makes `x`'s bits the constant literals,
//!   `x == y` makes `y` name `x`'s literals, and an extract or concat side
//!   binds the bits it covers. Binding is fresh-only because a bound
//!   variable *is* its asserted value: on the warm core, where a constraint
//!   is a retractable activation literal, it would outlive its constraint
//!   and pin every later check. Debug builds re-evaluate every assertion
//!   of a Sat model-bearing check under its model with [`crate::eval`], so
//!   every binding is checked against the reference semantics.
//!
//! * [`Solver::check_feasible`] is **verdict-only**. In
//!   [`SolverMode::Incremental`] (the default) the solver keeps one warm
//!   [`SatSolver`] + [`Blaster`] pair whose clause database mirrors the
//!   worker's DFS spine. Pushing a branch constraint blasts only its new
//!   cone; the constraint's blasted root literal doubles as its
//!   **activation literal**: the Tseitin definitions enter the database
//!   unguarded (definitional clauses are satisfiable on their own and never
//!   constrain the original variables), and the constraint is *enforced*
//!   only while its root literal is passed as a solve assumption.
//!   Backtracking therefore retracts by dropping literals from the
//!   assumption set — no clause deletion, no rebuild. Sat/Unsat are
//!   semantic facts about the constraint set, so sharing a clause database
//!   across checks cannot change them; it only changes how fast they are
//!   reached.
//!
//! The old fresh-per-check-everywhere design was motivated by a real
//! problem: a monotonically growing instance forces every solve to assign
//! every Tseitin variable ever created by any path, so solving scaled with
//! the *total* work of the run. The warm core bounds that instead of
//! avoiding it: per-root cone costs are tracked, and when the database
//! grows past a small multiple of the current check's live cone (retired
//! subtrees' garbage dominating), the core is **rebuilt** from the current
//! constraint set — the same cone restriction Z3's incremental mode
//! performs internally, made explicit and deterministic. A rebuild resets
//! the core in place, on the same storage.
//!
//! In front of the warm blaster sits a term-level simplification pass
//! ([`crate::simplify`]): constant folding over the conjunction, equality
//! substitution along the trail, and — because rewritten terms re-intern
//! into the hash-consed pool — a blast cache keyed on *simplified*
//! structure. A constraint that folds to constant false decides the check
//! with no SAT call at all. The pass preserves satisfiability, not models,
//! which is exactly why it is confined to the verdict-only path. Its rewrite
//! memo ([`RewriteCache`]) lives as long as the solver: a warm-core rebuild
//! keeps it (rewrites do not depend on the SAT core), and
//! [`Solver::reset_warm`] drops it.
//!
//! Fresh mode is still used, even under [`SolverMode::Incremental`], when:
//!
//! * the query is model-bearing (`check`/`check_assuming`) — emission,
//!   concolic resolution, and random-proposal re-checks;
//! * a per-query budget is set — budgeted Unknown verdicts depend on search
//!   history, and a warm core would make them schedule-dependent;
//! * a phase-seed retry is active (the engine's rotate-and-retry after
//!   Unknown) — the scrambled phases must apply to a history-free search;
//! * the engine recovers from an isolated path panic ([`Solver::reset_warm`])
//!   — the warm core may have been abandoned mid-push.

use crate::blast::Blaster;
use crate::eval::Assignment;
use crate::sat::{Lit, SatResult, SatSolver, SolveBudget};
use crate::simplify::{simplify_conjunction, RewriteCache, Simplified, SimplifyStats};
use crate::term::{TermId, TermPool, VarId, VarWalk};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Result of a `check` call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckResult {
    Sat,
    Unsat,
    /// The per-query budget was exhausted before a verdict. The paper's
    /// P4Testgen gets the same tri-state from Z3 timeouts and abandons the
    /// path; callers here must do likewise (a model after Unknown is
    /// meaningless — every unfixed variable reads as zero).
    Unknown,
}

/// How feasibility checks are solved. Model-bearing checks are always
/// fresh-per-check regardless of mode (see the module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SolverMode {
    /// Every check builds a fresh SAT instance (the pre-incremental
    /// behavior; also the reference the determinism suite compares against).
    Fresh,
    /// Feasibility checks reuse a warm per-worker SAT core along the DFS
    /// spine (the default).
    #[default]
    Incremental,
}

impl SolverMode {
    /// Parse a CLI/env spelling.
    pub fn parse(s: &str) -> Option<SolverMode> {
        match s {
            "fresh" => Some(SolverMode::Fresh),
            "incremental" => Some(SolverMode::Incremental),
            _ => None,
        }
    }

    pub fn as_str(&self) -> &'static str {
        match self {
            SolverMode::Fresh => "fresh",
            SolverMode::Incremental => "incremental",
        }
    }
}

/// Upper bounds (inclusive) for the conflicts-per-check histogram in
/// [`SolverStats`]; an implicit overflow bucket follows the last bound.
/// `le=0` is its own bucket because conflict-free checks are the common
/// case on packet-program path constraints — the histogram's whole point
/// is to show how heavy that head is versus the hard tail.
pub const CONFLICTS_PER_CHECK_BOUNDS: [u64; 8] = [0, 1, 2, 4, 16, 64, 256, 1024];

/// Upper bounds (inclusive) for the per-check spine-reuse histograms in
/// [`IncrementalStats`] (assertions reused from the warm core vs newly
/// blasted); an implicit overflow bucket follows the last bound.
pub const SPINE_PER_CHECK_BOUNDS: [u64; 8] = [0, 1, 2, 4, 8, 16, 32, 64];

/// Cumulative timing and counter statistics, read by the Fig. 7 harness and
/// folded into the metrics registry by the exploration engine.
#[derive(Default, Clone, Debug)]
pub struct SolverStats {
    pub checks: u64,
    pub sat_results: u64,
    pub unsat_results: u64,
    /// Checks that exhausted their budget without a verdict.
    pub unknown_results: u64,
    /// Wall time spent inside `check` (simplification + bit-blasting + SAT
    /// search).
    pub solve_time: Duration,
    /// Wall time spent in term simplification (warm checks only); a
    /// sub-interval of `solve_time`.
    pub simplify_time: Duration,
    /// Wall time spent purely in the SAT search.
    pub sat_time: Duration,
    /// Non-cumulative histogram of SAT conflicts per check: cell `i` counts
    /// checks with `conflicts <= CONFLICTS_PER_CHECK_BOUNDS[i]`; the final
    /// cell is the overflow. Per-check conflict deltas are exact in both
    /// modes (warm cores snapshot their counters around each solve).
    pub conflicts_per_check_hist: [u64; CONFLICTS_PER_CHECK_BOUNDS.len() + 1],
}

impl SolverStats {
    pub fn absorb(&mut self, other: &SolverStats) {
        self.checks += other.checks;
        self.sat_results += other.sat_results;
        self.unsat_results += other.unsat_results;
        self.unknown_results += other.unknown_results;
        self.solve_time += other.solve_time;
        self.simplify_time += other.simplify_time;
        self.sat_time += other.sat_time;
        for (t, o) in
            self.conflicts_per_check_hist.iter_mut().zip(other.conflicts_per_check_hist.iter())
        {
            *t += o;
        }
    }
}

/// Counters for the incremental layer (warm spine core, simplifier, blast
/// cache), folded into the metrics registry and `--summary-json` by the
/// exploration engine.
#[derive(Default, Clone, Debug)]
pub struct IncrementalStats {
    /// Feasibility checks answered by the warm spine core.
    pub warm_checks: u64,
    /// Feasibility checks that fell back to a fresh instance while in
    /// incremental mode (budgeted query, phase-seed retry).
    pub fresh_fallbacks: u64,
    /// Warm-core rebuilds triggered by the garbage-growth policy (or by
    /// defensive recovery).
    pub rebuilds: u64,
    /// Spine constraints whose encoding was reused from the warm core.
    pub roots_reused: u64,
    /// Spine constraints blasted for the first time (or after a rebuild).
    pub roots_blasted: u64,
    /// Per-check histograms of the two counters above (bounds:
    /// [`SPINE_PER_CHECK_BOUNDS`], final cell overflow).
    pub reused_per_check_hist: [u64; SPINE_PER_CHECK_BOUNDS.len() + 1],
    pub blasted_per_check_hist: [u64; SPINE_PER_CHECK_BOUNDS.len() + 1],
    /// Blaster term-cache hits/misses, across fresh and warm instances.
    pub blast_cache_hits: u64,
    pub blast_cache_misses: u64,
    /// Term-simplification counters (warm path only).
    pub simplify: SimplifyStats,
    /// Retired with the cross-worker learnt-clause exchange; always 0.
    /// Kept because the `--summary-json` schema is append-only.
    pub learnt_exported: u64,
    pub learnt_imported: u64,
    pub learnt_import_skipped: u64,
}

impl IncrementalStats {
    pub fn absorb(&mut self, other: &IncrementalStats) {
        self.warm_checks += other.warm_checks;
        self.fresh_fallbacks += other.fresh_fallbacks;
        self.rebuilds += other.rebuilds;
        self.roots_reused += other.roots_reused;
        self.roots_blasted += other.roots_blasted;
        for (t, o) in
            self.reused_per_check_hist.iter_mut().zip(other.reused_per_check_hist.iter())
        {
            *t += o;
        }
        for (t, o) in
            self.blasted_per_check_hist.iter_mut().zip(other.blasted_per_check_hist.iter())
        {
            *t += o;
        }
        self.blast_cache_hits += other.blast_cache_hits;
        self.blast_cache_misses += other.blast_cache_misses;
        self.simplify.absorb(&other.simplify);
    }
}

// ---- the warm spine core ------------------------------------------------

/// Rebuild when the database holds more than this multiple of the current
/// check's live-cone variables (plus slack) — retired subtrees' Tseitin
/// garbage would otherwise make every solve pay for the whole run.
const REBUILD_GROWTH_FACTOR: u64 = 3;
const REBUILD_SLACK_VARS: u64 = 512;

/// One worker's warm SAT core: solver, blaster, and the spine bookkeeping.
struct WarmCore {
    sat: SatSolver,
    blaster: Blaster,
    /// Activation (root) literal per constraint term ever pushed.
    root_lits: HashMap<TermId, Lit>,
    /// SAT variables created while blasting each root's cone — shared
    /// subterms are attributed to the first root that reached them. The
    /// sum over a check's roots estimates its live cone for the rebuild
    /// policy.
    root_cost: HashMap<TermId, u64>,
}

impl WarmCore {
    fn new() -> Self {
        let (sat, blaster) = empty_instance(None);
        WarmCore {
            sat,
            blaster,
            root_lits: HashMap::new(),
            root_cost: HashMap::new(),
        }
    }

    /// Rebuild: back to the state `new` builds, on the storage already held.
    fn reset(&mut self) {
        self.sat.reset();
        self.blaster.reset(&mut self.sat);
        self.root_lits.clear();
        self.root_cost.clear();
    }

    /// Get-or-blast the activation literal for a constraint root. Returns
    /// `(lit, reused)`.
    fn root_lit(&mut self, pool: &TermPool, t: TermId) -> (Lit, bool) {
        if let Some(&l) = self.root_lits.get(&t) {
            return (l, true);
        }
        let vars_before = self.sat.num_vars() as u64;
        let l = self.blaster.assertion_lit(&mut self.sat, pool, t);
        let cost = (self.sat.num_vars() as u64 - vars_before).max(1);
        self.root_lits.insert(t, l);
        self.root_cost.insert(t, cost);
        (l, false)
    }
}

/// A SAT instance and blaster in the state `SatSolver::new` +
/// `Blaster::new` build. A `recycled` pair is reset rather than dropped,
/// so the new instance reuses its storage; being state-equal to a new pair,
/// it numbers variables, searches and answers exactly as one would.
fn empty_instance(recycled: Option<(SatSolver, Blaster)>) -> (SatSolver, Blaster) {
    match recycled {
        Some((mut sat, mut blaster)) => {
            sat.reset();
            blaster.reset(&mut sat);
            (sat, blaster)
        }
        None => {
            let mut sat = SatSolver::new();
            let blaster = Blaster::new(&mut sat);
            (sat, blaster)
        }
    }
}

/// Bitvector solver with scoped assertions.
pub struct Solver {
    /// Terms asserted, partitioned into scopes by `scope_marks`.
    asserted_terms: Vec<TermId>,
    scope_marks: Vec<usize>,
    /// The SAT instance and blaster from the most recent *model-bearing*
    /// check (kept for model extraction, then reset for the next one).
    last: Option<(SatSolver, Blaster)>,
    /// The verdict of that check; a model may only be read after `Sat`.
    last_verdict: Option<CheckResult>,
    /// Accumulated SAT-core statistics across all checks.
    sat_totals: crate::sat::SatStats,
    /// Per-query resource budget (unlimited by default).
    budget: SolveBudget,
    /// Initial-phase scramble seed for the next checks (0 = default phases).
    phase_seed: u64,
    /// Feasibility-check discipline (model-bearing checks ignore this).
    mode: SolverMode,
    /// The warm spine core, lazily created on the first warm check.
    warm: Option<WarmCore>,
    /// The simplifier's rewrite memos, kept across warm checks.
    rewrite_cache: RewriteCache,
    pub stats: SolverStats,
    pub inc_stats: IncrementalStats,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    pub fn new() -> Self {
        Solver {
            asserted_terms: Vec::new(),
            scope_marks: Vec::new(),
            last: None,
            last_verdict: None,
            sat_totals: crate::sat::SatStats::default(),
            budget: SolveBudget::UNLIMITED,
            phase_seed: 0,
            mode: SolverMode::default(),
            warm: None,
            rewrite_cache: RewriteCache::default(),
            stats: SolverStats::default(),
            inc_stats: IncrementalStats::default(),
        }
    }

    /// Set the per-query resource budget applied to every subsequent check.
    /// Budget exhaustion surfaces as [`CheckResult::Unknown`].
    pub fn set_budget(&mut self, budget: SolveBudget) {
        self.budget = budget;
    }

    pub fn budget(&self) -> SolveBudget {
        self.budget
    }

    /// Select the feasibility-check discipline (see [`SolverMode`]).
    pub fn set_mode(&mut self, mode: SolverMode) {
        self.mode = mode;
    }

    pub fn mode(&self) -> SolverMode {
        self.mode
    }

    /// Discard the warm spine core and the simplifier's rewrite memos. The
    /// engine calls this after recovering from an isolated path panic — the
    /// core may have been abandoned mid-push, and the next warm check
    /// deterministically rebuilds it from that check's own constraint set.
    pub fn reset_warm(&mut self) {
        self.warm = None;
        self.rewrite_cache = RewriteCache::default();
    }

    /// Scramble initial decision phases for subsequent checks (0 restores
    /// the default). Used to retry an Unknown query along a different
    /// search order; while a non-zero seed is set, feasibility checks run
    /// fresh-per-check so the scramble applies to a history-free search and
    /// stays fully deterministic.
    pub fn set_phase_seed(&mut self, seed: u64) {
        self.phase_seed = seed;
    }

    /// Open a new assertion scope.
    pub fn push(&mut self) {
        self.scope_marks.push(self.asserted_terms.len());
    }

    /// Discard all assertions added since the matching `push`.
    pub fn pop(&mut self) {
        let mark = self.scope_marks.pop().expect("pop without matching push");
        self.asserted_terms.truncate(mark);
    }

    /// Current scope depth.
    pub fn depth(&self) -> usize {
        self.scope_marks.len()
    }

    /// Assert a 1-bit term in the current scope.
    pub fn assert(&mut self, pool: &TermPool, t: TermId) {
        assert_eq!(pool.width(t), 1, "assertions must be 1-bit terms");
        self.asserted_terms.push(t);
    }

    /// Check satisfiability of all assertions in all scopes.
    pub fn check(&mut self, pool: &TermPool) -> CheckResult {
        self.check_assuming(pool, &[])
    }

    /// Model-bearing check with extra transient assumptions (1-bit terms).
    /// Always fresh-per-check: the verdict *and the model* are a pure
    /// function of the constraint set (plus budget and phase seed) — this
    /// is the only check whose model may be read afterwards, and only when
    /// it answered `Sat`.
    pub fn check_assuming(&mut self, pool: &TermPool, extra: &[TermId]) -> CheckResult {
        let t0 = Instant::now();
        let (mut sat, mut blaster) = empty_instance(self.last.take());
        let mut ok = true;
        for &t in self.asserted_terms.iter().chain(extra) {
            if !blaster.assert_fresh(&mut sat, pool, t) {
                ok = false;
                break;
            }
        }
        let t1 = Instant::now();
        let res = if ok {
            sat.seed_phases(self.phase_seed);
            sat.solve_budgeted(&[], &self.budget)
        } else {
            SatResult::Unsat
        };
        self.stats.sat_time += t1.elapsed();
        self.stats.solve_time += t0.elapsed();
        self.stats.checks += 1;
        self.stats.conflicts_per_check_hist
            [CONFLICTS_PER_CHECK_BOUNDS.partition_point(|&b| b < sat.stats.conflicts)] += 1;
        self.inc_stats.blast_cache_hits += blaster.stats.cache_hits;
        self.inc_stats.blast_cache_misses += blaster.stats.cache_misses;
        self.sat_totals.absorb(&sat.stats);
        self.last = Some((sat, blaster));
        let verdict = self.count_result(res);
        self.last_verdict = Some(verdict);
        #[cfg(debug_assertions)]
        if verdict == CheckResult::Sat {
            self.audit_model(pool, extra);
        }
        verdict
    }

    /// Debug builds re-evaluate every assertion of a Sat model-bearing check
    /// under its model and panic, naming the term, if one is false: every
    /// binding the blaster made is checked against the reference semantics.
    #[cfg(debug_assertions)]
    fn audit_model(&self, pool: &TermPool, extra: &[TermId]) {
        let all = || self.asserted_terms.iter().chain(extra).copied();
        let asg = self.model(pool, &VarWalk::default().vars(pool, all()));
        for t in all() {
            assert!(
                crate::eval::eval(pool, &asg, t).is_true(),
                "model audit failed: {} is false under the model",
                pool.display(t)
            );
        }
    }

    /// Verdict-only feasibility check of `asserted ∧ extra`. In incremental
    /// mode (with no budget and no phase-seed retry active) the query runs
    /// on the warm spine core; otherwise it behaves exactly like
    /// [`Solver::check_assuming`]. The model state afterwards is
    /// **unspecified** — callers needing a model must issue a model-bearing
    /// check.
    pub fn check_feasible(&mut self, pool: &TermPool, extra: &[TermId]) -> CheckResult {
        let warm_eligible = self.mode == SolverMode::Incremental
            && self.budget.is_unlimited()
            && self.phase_seed == 0;
        if !warm_eligible {
            if self.mode == SolverMode::Incremental {
                self.inc_stats.fresh_fallbacks += 1;
            }
            return self.check_assuming(pool, extra);
        }
        self.check_warm(pool, extra)
    }

    fn check_warm(&mut self, pool: &TermPool, extra: &[TermId]) -> CheckResult {
        let t0 = Instant::now();
        self.stats.checks += 1;
        self.inc_stats.warm_checks += 1;
        // Term-level simplification over the whole conjunction. A constant-
        // false residue is a verdict with no SAT work at all.
        let all: Vec<TermId> =
            self.asserted_terms.iter().chain(extra).copied().collect();
        let simplified =
            simplify_conjunction(pool, &all, &mut self.rewrite_cache, &mut self.inc_stats.simplify);
        self.stats.simplify_time += t0.elapsed();
        let roots = match simplified {
            Simplified::False => {
                self.stats.conflicts_per_check_hist[0] += 1;
                self.stats.solve_time += t0.elapsed();
                return self.count_result(SatResult::Unsat);
            }
            Simplified::Constraints(cs) => cs,
        };
        let mut core = self.warm.take().unwrap_or_else(WarmCore::new);
        if !core.sat.is_ok() {
            core.reset();
        }
        // Rebuild policy: estimate this check's live cone from the recorded
        // per-root costs; when the database has grown well past it, the
        // garbage from retired subtrees dominates and a rebuild makes every
        // subsequent solve proportional to the live spine again.
        let live: u64 = roots.iter().filter_map(|t| core.root_cost.get(t)).sum();
        let total = core.sat.num_vars() as u64;
        if !core.root_lits.is_empty()
            && total > live.saturating_mul(REBUILD_GROWTH_FACTOR) + REBUILD_SLACK_VARS
        {
            self.inc_stats.rebuilds += 1;
            core.reset();
        }
        // Advance the spine: reuse already-pushed constraints, blast only
        // the new cones. Each root literal is the constraint's activation
        // literal, enforced by passing it as an assumption below.
        let blast_hits0 = core.blaster.stats.cache_hits;
        let blast_miss0 = core.blaster.stats.cache_misses;
        let mut assumptions = Vec::with_capacity(roots.len());
        let mut reused = 0u64;
        let mut blasted = 0u64;
        for &c in &roots {
            let (l, hit) = core.root_lit(pool, c);
            if hit {
                reused += 1;
            } else {
                blasted += 1;
            }
            assumptions.push(l);
        }
        self.inc_stats.roots_reused += reused;
        self.inc_stats.roots_blasted += blasted;
        self.inc_stats.reused_per_check_hist
            [SPINE_PER_CHECK_BOUNDS.partition_point(|&b| b < reused)] += 1;
        self.inc_stats.blasted_per_check_hist
            [SPINE_PER_CHECK_BOUNDS.partition_point(|&b| b < blasted)] += 1;
        self.inc_stats.blast_cache_hits += core.blaster.stats.cache_hits - blast_hits0;
        self.inc_stats.blast_cache_misses += core.blaster.stats.cache_misses - blast_miss0;
        if !core.sat.is_ok() {
            // Defensive: the definitional database can never conflict at
            // level 0; if it somehow did, rebuild and re-push this check's
            // roots so the verdict stays correct.
            self.inc_stats.rebuilds += 1;
            core.reset();
            assumptions.clear();
            for &c in &roots {
                assumptions.push(core.root_lit(pool, c).0);
            }
        }
        let t1 = Instant::now();
        let conflicts0 = core.sat.stats.conflicts;
        let sat_before = core.sat.stats.clone();
        let res = core.sat.solve_budgeted(&assumptions, &SolveBudget::UNLIMITED);
        self.stats.sat_time += t1.elapsed();
        self.stats.conflicts_per_check_hist[CONFLICTS_PER_CHECK_BOUNDS
            .partition_point(|&b| b < core.sat.stats.conflicts - conflicts0)] += 1;
        accumulate_delta(&mut self.sat_totals, &sat_before, &core.sat.stats);
        self.warm = Some(core);
        self.stats.solve_time += t0.elapsed();
        self.count_result(res)
    }

    fn count_result(&mut self, res: SatResult) -> CheckResult {
        match res {
            SatResult::Sat => {
                self.stats.sat_results += 1;
                CheckResult::Sat
            }
            SatResult::Unsat => {
                self.stats.unsat_results += 1;
                CheckResult::Unsat
            }
            SatResult::Unknown => {
                self.stats.unknown_results += 1;
                CheckResult::Unknown
            }
        }
    }

    /// Model value of one variable after a Sat check. Variables that did not
    /// occur in the checked formula evaluate to zero. Reading a model after
    /// an Unsat or Unknown check is a caller bug (the values are whatever
    /// the search left behind), caught by a debug assertion.
    pub fn model_value(&self, pool: &TermPool, v: VarId) -> crate::bitvec::BitVec {
        self.debug_assert_model_readable();
        match &self.last {
            Some((sat, blaster)) => blaster.model_value(sat, pool, v),
            None => crate::bitvec::BitVec::zeros(pool.var_info(v).width),
        }
    }

    /// Full model over the given variables after a Sat check.
    pub fn model(&self, pool: &TermPool, vars: &[VarId]) -> Assignment {
        self.debug_assert_model_readable();
        let mut asg = Assignment::new();
        for &v in vars {
            asg.set(v, self.model_value(pool, v));
        }
        asg
    }

    fn debug_assert_model_readable(&self) {
        if let Some(v) = self.last_verdict {
            debug_assert_eq!(v, CheckResult::Sat, "model read after a non-Sat check");
        }
    }

    /// Model over every variable mentioned in the current assertions.
    pub fn model_of_assertions(&self, pool: &TermPool) -> Assignment {
        let vars = VarWalk::default().vars(pool, self.asserted_terms.iter().copied());
        self.model(pool, &vars)
    }

    /// The asserted terms, outermost scope first (diagnostics).
    pub fn assertions(&self) -> &[TermId] {
        &self.asserted_terms
    }

    /// SAT-core statistics accumulated over all checks.
    pub fn sat_stats(&self) -> &crate::sat::SatStats {
        &self.sat_totals
    }
}

/// Accumulate the delta between two snapshots of a live solver's counters
/// (the warm core's stats are cumulative across checks).
fn accumulate_delta(
    total: &mut crate::sat::SatStats,
    before: &crate::sat::SatStats,
    after: &crate::sat::SatStats,
) {
    total.decisions += after.decisions - before.decisions;
    total.propagations += after.propagations - before.propagations;
    total.conflicts += after.conflicts - before.conflicts;
    total.restarts += after.restarts - before.restarts;
    total.learnt_clauses += after.learnt_clauses - before.learnt_clauses;
    total.learnt_literals += after.learnt_literals - before.learnt_literals;
    for ((t, b), a) in total
        .learnt_size_hist
        .iter_mut()
        .zip(before.learnt_size_hist.iter())
        .zip(after.learnt_size_hist.iter())
    {
        *t += a - b;
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::eval::eval;

    #[test]
    fn push_pop_restores_satisfiability() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let c5 = pool.const_u128(8, 5);
        let c6 = pool.const_u128(8, 6);
        let eq5 = pool.eq(x, c5);
        let eq6 = pool.eq(x, c6);
        s.assert(&pool, eq5);
        assert_eq!(s.check(&pool), CheckResult::Sat);
        s.push();
        s.assert(&pool, eq6);
        assert_eq!(s.check(&pool), CheckResult::Unsat);
        s.pop();
        assert_eq!(s.check(&pool), CheckResult::Sat);
        let m = s.model_of_assertions(&pool);
        assert!(eval(&pool, &m, eq5).is_true());
    }

    #[test]
    fn nested_scopes() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 4);
        let lims: Vec<_> = (1..=3)
            .map(|i| {
                let c = pool.const_u128(4, 1 << i);
                pool.ult(x, c)
            })
            .collect();
        for &l in &lims {
            s.push();
            s.assert(&pool, l);
        }
        assert_eq!(s.depth(), 3);
        assert_eq!(s.check(&pool), CheckResult::Sat);
        s.pop();
        s.pop();
        s.pop();
        assert_eq!(s.depth(), 0);
        assert_eq!(s.check(&pool), CheckResult::Sat);
    }

    #[test]
    fn transient_assumptions() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let zero = pool.const_u128(8, 0);
        let pos = pool.neq(x, zero);
        s.assert(&pool, pos);
        let isz = pool.eq(x, zero);
        assert_eq!(s.check_assuming(&pool, &[isz]), CheckResult::Unsat);
        assert_eq!(s.check(&pool), CheckResult::Sat);
    }

    #[test]
    fn model_satisfies_complex_constraint() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        // (x + y == 0xBEEF) && (x & 0xFF == 0x42)
        let x = pool.fresh_var("x", 16);
        let y = pool.fresh_var("y", 16);
        let sum = pool.add(x, y);
        let beef = pool.const_u128(16, 0xBEEF);
        let c1 = pool.eq(sum, beef);
        let mask = pool.const_u128(16, 0xFF);
        let lowx = pool.and(x, mask);
        let c42 = pool.const_u128(16, 0x42);
        let c2 = pool.eq(lowx, c42);
        s.assert(&pool, c1);
        s.assert(&pool, c2);
        assert_eq!(s.check(&pool), CheckResult::Sat);
        let m = s.model_of_assertions(&pool);
        assert!(eval(&pool, &m, c1).is_true());
        assert!(eval(&pool, &m, c2).is_true());
    }

    #[test]
    fn stats_accumulate() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let c = pool.const_u128(8, 9);
        let eq = pool.eq(x, c);
        s.assert(&pool, eq);
        s.check(&pool);
        s.check(&pool);
        assert_eq!(s.stats.checks, 2);
        assert_eq!(s.stats.sat_results, 2);
    }

    /// A 24×24→48-bit factoring constraint: hard enough that a one-conflict
    /// budget can never finish it.
    fn hard_query(pool: &TermPool, s: &mut Solver) {
        for t in hard_terms(pool) {
            s.assert(pool, t);
        }
    }

    fn hard_terms(pool: &TermPool) -> Vec<TermId> {
        let x = pool.fresh_var("x", 48);
        let y = pool.fresh_var("y", 48);
        let prod = pool.mul(x, y);
        // 0xB4D5_2F9E_1D03 = 198341*957463 — force a nontrivial factoring.
        let target = pool.const_u128(48, 198_341u128 * 957_463u128);
        let one = pool.const_u128(48, 1);
        vec![pool.eq(prod, target), pool.ult(one, x), pool.ult(one, y), pool.ult(x, y)]
    }

    #[test]
    fn budget_exhaustion_reports_unknown() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        hard_query(&pool, &mut s);
        s.set_budget(crate::sat::SolveBudget::conflicts(2));
        assert_eq!(s.check(&pool), CheckResult::Unknown);
        assert_eq!(s.stats.unknown_results, 1);
        assert_eq!(s.stats.checks, 1);
    }

    #[test]
    fn budgeted_checks_are_deterministic() {
        // Same formula, same budget, same phase seed -> same verdict, every
        // time (budgeted queries always solve on a history-free fresh
        // instance, in either solver mode).
        let outcome = |seed: u64| {
            let pool = TermPool::new();
            let mut s = Solver::new();
            hard_query(&pool, &mut s);
            s.set_budget(crate::sat::SolveBudget::conflicts(50));
            s.set_phase_seed(seed);
            (s.check(&pool), s.check(&pool))
        };
        for seed in [0u64, 7, 0x1234] {
            let (a, b) = outcome(seed);
            assert_eq!(a, b, "seed {seed}: two identical checks disagree");
            let (a2, _) = outcome(seed);
            assert_eq!(a, a2, "seed {seed}: run-to-run nondeterminism");
        }
    }

    #[test]
    fn easy_queries_unaffected_by_budget() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let c = pool.const_u128(8, 42);
        s.assert(&pool, pool.eq(x, c));
        s.set_budget(crate::sat::SolveBudget::conflicts(1));
        assert_eq!(s.check(&pool), CheckResult::Sat);
        let m = s.model_of_assertions(&pool);
        assert!(eval(&pool, &m, pool.eq(x, c)).is_true());
    }

    #[test]
    fn recycled_instances_match_new_ones() {
        // A model-bearing check builds its instance on the previous check's
        // reset storage. Over verdicts of every kind, budgets and phase
        // seeds, each check must leave exactly the instance — and so the
        // verdict, model and SAT stats — that a new `Solver` builds.
        let pool = TermPool::new();
        let hard = hard_terms(&pool);
        let mut queries: Vec<(Vec<TermId>, SolveBudget, u64)> = Vec::new();
        for seed in [0u64, 0x1234] {
            for cs in spine_family(&pool) {
                queries.push((cs, SolveBudget::UNLIMITED, seed));
            }
            queries.push((hard.clone(), SolveBudget::conflicts(50), seed));
        }
        queries.push((hard[1..].to_vec(), SolveBudget::UNLIMITED, 7));
        let mut reused = Solver::new();
        let mut verdicts = Vec::new();
        for (i, (cs, budget, seed)) in queries.iter().enumerate() {
            let mut new = Solver::new();
            for s in [&mut reused, &mut new] {
                s.set_budget(*budget);
                s.set_phase_seed(*seed);
            }
            let verdict = reused.check_assuming(&pool, cs);
            assert_eq!(verdict, new.check_assuming(&pool, cs), "query {i}: verdicts differ");
            let (rs, rb) = reused.last.as_ref().unwrap();
            let (ns, nb) = new.last.as_ref().unwrap();
            rs.assert_same_state(ns);
            rb.assert_same_state(nb);
            if verdict == CheckResult::Sat {
                for v in cs.iter().flat_map(|&c| pool.vars_of(c)) {
                    assert_eq!(reused.model_value(&pool, v), new.model_value(&pool, v), "query {i}");
                }
            }
            verdicts.push(verdict);
        }
        for want in [CheckResult::Sat, CheckResult::Unsat, CheckResult::Unknown] {
            assert!(verdicts.contains(&want), "no query answered {want:?}");
        }
    }

    #[test]
    fn warm_rebuild_matches_a_new_core() {
        // A rebuild resets the warm core in place; afterwards it must hold
        // exactly what a new core holds after the same check.
        let pool = TermPool::new();
        let (x, y) = (pool.fresh_var("bx", 24), pool.fresh_var("by", 24));
        let big = pool.ult(pool.const_u128(24, 5), pool.mul(x, y));
        let small = spine_family(&pool).swap_remove(0);
        let mut warm = Solver::new();
        assert_eq!(warm.check_feasible(&pool, &[big]), CheckResult::Sat);
        assert_eq!(warm.check_feasible(&pool, &small), CheckResult::Sat);
        assert_eq!(warm.inc_stats.rebuilds, 1, "the small check must trigger a rebuild");
        let mut new = Solver::new();
        assert_eq!(new.check_feasible(&pool, &small), CheckResult::Sat);
        let (w, n) = (warm.warm.as_ref().unwrap(), new.warm.as_ref().unwrap());
        w.sat.assert_same_state(&n.sat);
        w.blaster.assert_same_state(&n.blaster);
        assert_eq!(w.root_lits, n.root_lits);
        assert_eq!(w.root_cost, n.root_cost);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "model read after a non-Sat check")]
    fn model_after_unsat_check_panics_in_debug_builds() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("ux", 8);
        let (c1, c2) = (pool.const_u128(8, 1), pool.const_u128(8, 2));
        assert_eq!(s.check_assuming(&pool, &[pool.eq(x, c1), pool.eq(x, c2)]), CheckResult::Unsat);
        let crate::term::Node::Var(v) = *pool.node(x) else { panic!() };
        s.model_value(&pool, v);
    }

    #[test]
    fn model_before_any_check_is_zero() {
        let pool = TermPool::new();
        let s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let crate::term::Node::Var(v) = *pool.node(x) else {
            panic!()
        };
        assert!(s.model_value(&pool, v).is_zero());
    }

    // ---- incremental spine solving --------------------------------------

    /// Sibling-style constraint sequences (shared prefix, one differing
    /// tail) to exercise spine reuse.
    pub(crate) fn spine_family(pool: &TermPool) -> Vec<Vec<TermId>> {
        let x = pool.fresh_var("sx", 16);
        let y = pool.fresh_var("sy", 16);
        let c10 = pool.const_u128(16, 10);
        let c100 = pool.const_u128(16, 100);
        let c7 = pool.const_u128(16, 7);
        let base = vec![pool.ult(x, c100), pool.ult(c10, x)];
        let sum = pool.add(x, y);
        let mut fams = Vec::new();
        for k in 0..6u128 {
            let ck = pool.const_u128(16, 20 + k);
            let mut cs = base.clone();
            cs.push(pool.eq(sum, ck));
            cs.push(pool.ult(y, c7));
            fams.push(cs);
        }
        // A contradictory sibling: x < 100 && x > 100.
        let mut bad = base.clone();
        bad.push(pool.ult(c100, x));
        fams.push(bad);
        fams
    }

    #[test]
    fn incremental_verdicts_match_fresh() {
        let pool = TermPool::new();
        let fams = spine_family(&pool);
        let mut fresh = Solver::new();
        fresh.set_mode(SolverMode::Fresh);
        let mut inc = Solver::new();
        inc.set_mode(SolverMode::Incremental);
        for (i, cs) in fams.iter().enumerate() {
            let f = fresh.check_feasible(&pool, cs);
            let w = inc.check_feasible(&pool, cs);
            assert_eq!(f, w, "family {i}: modes disagree");
        }
        assert_eq!(inc.inc_stats.warm_checks, fams.len() as u64);
        assert!(inc.inc_stats.roots_reused > 0, "siblings must reuse the spine prefix");
        assert_eq!(fresh.inc_stats.warm_checks, 0);
    }

    #[test]
    fn warm_core_reuses_prefix_encodings() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("wx", 32);
        let mut prefix: Vec<TermId> = Vec::new();
        for depth in 0..10u128 {
            let c = pool.const_u128(32, 1000 + depth);
            prefix.push(pool.ult(x, pool.add(pool.constant(crate::bitvec::BitVec::from_u128(
                32, depth,
            )), c)));
            assert_eq!(s.check_feasible(&pool, &prefix), CheckResult::Sat);
        }
        // Every check after the first reuses all prior roots.
        assert_eq!(s.inc_stats.roots_blasted, 10);
        assert_eq!(s.inc_stats.roots_reused, (0..10).sum::<u64>());
    }

    #[test]
    fn simplifier_decides_folded_contradictions_without_sat() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("fx", 8);
        let c1 = pool.const_u128(8, 1);
        let c2 = pool.const_u128(8, 2);
        let cs = vec![pool.eq(x, c1), pool.eq(x, c2)];
        assert_eq!(s.check_feasible(&pool, &cs), CheckResult::Unsat);
        assert!(s.inc_stats.simplify.fast_unsat > 0);
        // No warm core work happened: nothing was blasted.
        assert_eq!(s.inc_stats.roots_blasted, 0);
    }

    #[test]
    fn budgeted_feasibility_falls_back_to_fresh() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        hard_query(&pool, &mut s);
        s.set_budget(crate::sat::SolveBudget::conflicts(2));
        assert_eq!(s.check_feasible(&pool, &[]), CheckResult::Unknown);
        assert_eq!(s.inc_stats.fresh_fallbacks, 1);
        assert_eq!(s.inc_stats.warm_checks, 0);
    }

    #[test]
    fn rewrite_memo_outlives_checks_until_reset_warm() {
        // A check that repeats the previous one's bindings computes no
        // rewrite; dropping the warm state makes the next one start over.
        let pool = TermPool::new();
        let pkt = pool.fresh_var("mp", 32);
        let key = pool.extract(31, 16, pkt);
        let pin = pool.eq(key, pool.const_u128(16, 0xA000));
        let arm = pool.eq(key, pool.const_u128(16, 0xA001));
        let mut s = Solver::new();
        let rewrites = |s: &mut Solver| {
            let before = s.inc_stats.simplify.rewrites;
            assert_eq!(s.check_feasible(&pool, &[pin, arm]), CheckResult::Unsat);
            s.inc_stats.simplify.rewrites - before
        };
        let first = rewrites(&mut s);
        assert!(first > 0);
        assert_eq!(rewrites(&mut s), 0);
        s.reset_warm();
        assert_eq!(rewrites(&mut s), first);
        assert!(s.stats.simplify_time <= s.stats.solve_time);
    }

    #[test]
    fn reset_warm_preserves_verdicts() {
        let pool = TermPool::new();
        let fams = spine_family(&pool);
        let mut s = Solver::new();
        let before: Vec<CheckResult> =
            fams.iter().map(|cs| s.check_feasible(&pool, cs)).collect();
        s.reset_warm();
        let after: Vec<CheckResult> =
            fams.iter().map(|cs| s.check_feasible(&pool, cs)).collect();
        assert_eq!(before, after);
    }

    /// One random constraint over a small shared vocabulary, so that lists
    /// bind, alias and contradict each other's variables.
    fn random_constraint(pool: &TermPool, vars: &[TermId; 6], rng: &mut impl rand::Rng) -> TermId {
        let [x, y, z, w, b, c] = *vars;
        let k = rng.gen_range(0u64..4) as u128;
        let op = rng.gen_range(0usize..11);
        let wide = [x, y, pool.concat(z, w)];
        let mut pick = |ts: &[TermId]| ts[rng.gen_range(0..ts.len())];
        let (u, v) = (pick(&wide), pick(&wide));
        let narrow = pick(&[z, w, pool.extract(3, 0, x), pool.extract(7, 4, y)]);
        let flag = pick(&[b, c]);
        match op {
            0 => pool.eq(u, pool.const_u128(8, k)),
            1 => pool.eq(u, v),
            2 => pool.eq(u, pool.add(v, pool.const_u128(8, k))),
            3 => pool.eq(narrow, pool.const_u128(4, k)),
            4 => pool.eq(narrow, pick(&[z, w])),
            5 => flag,
            6 => pool.not(flag),
            7 => pool.and(flag, pool.eq(u, pool.const_u128(8, k))),
            8 => pool.ult(u, pool.const_u128(8, k + 1)),
            9 => pool.neq(u, v),
            _ => pool.eq(pool.ite(flag, u, v), pool.xor(v, pool.const_u128(8, k))),
        }
    }

    #[test]
    fn bound_fresh_checks_agree_with_the_warm_core() {
        // Model-bearing checks bind their assertions; the warm core encodes
        // them as retractable activation literals. Over one warm core fed
        // list after list (so a binding leaking into it would pin later
        // lists), every verdict must agree and every model must satisfy
        // every original term.
        use rand::{Rng, SeedableRng};
        let pool = TermPool::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
        let vars = [("px", 8), ("py", 8), ("pz", 4), ("pw", 4), ("pb", 1), ("pc", 1)]
            .map(|(name, width)| pool.fresh_var(name, width));
        let (mut fresh, mut warm) = (Solver::new(), Solver::new());
        let mut verdicts = [0usize; 2];
        for i in 0..400 {
            let len = rng.gen_range(1usize..7);
            let list: Vec<TermId> = (0..len).map(|_| random_constraint(&pool, &vars, &mut rng)).collect();
            let verdict = fresh.check_assuming(&pool, &list);
            assert_eq!(verdict, warm.check_feasible(&pool, &list), "list {i}: verdicts differ");
            if verdict == CheckResult::Sat {
                let vars = VarWalk::default().vars(&pool, list.iter().copied());
                let m = fresh.model(&pool, &vars);
                for &t in &list {
                    assert!(eval(&pool, &m, t).is_true(), "list {i}: {}", pool.display(t));
                }
            }
            verdicts[(verdict == CheckResult::Sat) as usize] += 1;
        }
        assert!(verdicts.iter().all(|&n| n > 40), "too one-sided: {verdicts:?}");
        assert!(warm.inc_stats.warm_checks > 0);
    }

    #[test]
    fn solver_mode_parses_cli_spellings() {
        assert_eq!(SolverMode::parse("fresh"), Some(SolverMode::Fresh));
        assert_eq!(SolverMode::parse("incremental"), Some(SolverMode::Incremental));
        assert_eq!(SolverMode::parse("warm"), None);
        assert_eq!(SolverMode::default().as_str(), "incremental");
    }
}
