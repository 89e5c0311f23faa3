//! Solver facade: model extraction, solve statistics, and the engine's
//! two kinds of check — model-bearing and verdict-only — both solved on a
//! fresh instance.
//!
//! This is the interface the symbolic executor talks to — the analogue of
//! the paper's "Z3 configured with incremental solving". Every check passes
//! its whole constraint list; the solver keeps no assertions between checks.
//!
//! * [`Solver::check_assuming`] is **model-bearing**: the cone of the
//!   constraint list is encoded into an instance reset to the empty state,
//!   reusing storage, solved, and kept for model extraction until the next
//!   check resets it. The reset ([`SatSolver::reset`], [`Blaster::reset`])
//!   clears every vector and map and restores every scalar and counter to
//!   what `new` sets, so a reset instance is state-equal to a brand-new
//!   one; only capacity survives. CNF variables are therefore numbered by
//!   the blaster's structural traversal of that cone alone, and the model
//!   is a pure function of the ordered constraint list — never of what this
//!   worker (or any other) solved before. Every byte of an emitted test
//!   descends from one of these checks, which is what keeps suites
//!   byte-identical across job counts.
//!
//!   A fresh instance never retracts an assertion, so it *binds* them
//!   ([`Blaster::assert_fresh`]) instead of encoding each as a gate tree
//!   plus a unit clause: `x == 5` makes `x`'s bits the constant literals,
//!   `x == y` makes `y` name `x`'s literals, and an extract or concat side
//!   binds the bits it covers. Debug builds re-evaluate every assertion of
//!   a Sat model-bearing check under its model with [`crate::eval`], so
//!   every binding is checked against the reference semantics.
//!
//!   The reset keeps the blaster's literal arena and the SAT solver's
//!   vectors, and the search decides only the variables some clause
//!   mentions (see [`crate::sat`]), so an instance costs what its clauses
//!   constrain. A check that repeats an earlier one's list on the same
//!   `Solver` makes no heap allocation; in debug builds the model audit
//!   reuses its buffers to keep it so.
//!
//! * [`Solver::check_feasible`] is **verdict-only**. It first runs the
//!   term-level simplifier ([`crate::simplify`]) over the conjunction:
//!   constant folding, equality substitution along the trail, and — because
//!   rewritten terms re-intern into the hash-consed pool — structural
//!   sharing keyed on *simplified* terms. A constraint that folds to
//!   constant false decides the check with no SAT call at all; on deep
//!   parser trails that is most checks. The residue is then bound into the
//!   same reset instance a model-bearing check uses and solved. The pass
//!   preserves satisfiability, not models, so the model afterwards is
//!   unreadable (a debug assertion catches a read). The simplifier's
//!   rewrite memo ([`RewriteCache`]) lives as long as the solver, and
//!   [`Solver::reset`] drops it.
//!
//!   A feasibility check with a per-query budget, or during a phase-seed
//!   retry (the engine's rotate-and-retry after Unknown), skips the
//!   simplifier and solves exactly as [`Solver::check_assuming`] does:
//!   budgeted Unknown verdicts depend on search history, so they must come
//!   from the one unsimplified encoding.
//!
//! An earlier design kept a warm per-worker SAT core along the DFS spine,
//! enforcing each constraint through an activation literal. Once fresh
//! instances bound their equalities, a fresh instance's smaller search
//! cost less than the warm core's reuse saved, and the simplifier carries
//! the deep-trail wins (EXPERIMENTS.md, "One feasibility discipline").

use crate::blast::Blaster;
use crate::eval::Assignment;
use crate::sat::{SatResult, SatSolver, SolveBudget};
use crate::simplify::{simplify_conjunction, RewriteCache, Simplified, SimplifyStats};
use crate::term::{TermId, TermPool, VarId};
use std::time::{Duration, Instant};

/// Result of a check.
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

/// Upper bounds (inclusive) for the conflicts-per-check histogram in
/// [`SolverStats`]; an implicit overflow bucket follows the last bound.
/// `le=0` is its own bucket because conflict-free checks are the common
/// case on packet-program path constraints — the histogram's whole point
/// is to show how heavy that head is versus the hard tail.
pub const CONFLICTS_PER_CHECK_BOUNDS: [u64; 8] = [0, 1, 2, 4, 16, 64, 256, 1024];

/// Cumulative timing and counter statistics, read by the Fig. 7 harness and
/// folded into the metrics registry by the exploration engine.
#[derive(Default, Clone, Debug)]
pub struct SolverStats {
    pub checks: u64,
    pub sat_results: u64,
    pub unsat_results: u64,
    /// Checks that exhausted their budget without a verdict.
    pub unknown_results: u64,
    /// Wall time spent inside checks (simplification + bit-blasting + SAT
    /// search).
    pub solve_time: Duration,
    /// Wall time spent in term simplification (simplified feasibility
    /// checks only); a sub-interval of `solve_time`.
    pub simplify_time: Duration,
    /// Wall time spent purely in the SAT search.
    pub sat_time: Duration,
    /// Non-cumulative histogram of SAT conflicts per check: cell `i` counts
    /// checks with `conflicts <= CONFLICTS_PER_CHECK_BOUNDS[i]`; the final
    /// cell is the overflow.
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

/// Counters for the feasibility layer (simplifier, blast cache), folded
/// into the metrics registry and `--summary-json` by the exploration
/// engine.
#[derive(Default, Clone, Debug)]
pub struct IncrementalStats {
    /// Feasibility checks that went through the simplifier (no budget and
    /// no phase-seed retry). The name predates the single discipline; the
    /// summary schema is append-only.
    pub warm_checks: u64,
    /// Feasibility checks solved unsimplified, as a model-bearing check
    /// would be (budgeted query, phase-seed retry).
    pub fresh_fallbacks: u64,
    /// Retired with the warm spine core; always 0. Kept because the
    /// `--summary-json` schema is append-only.
    pub rebuilds: u64,
    pub roots_reused: u64,
    pub roots_blasted: u64,
    /// Blaster term-cache hits/misses, over every instance.
    pub blast_cache_hits: u64,
    pub blast_cache_misses: u64,
    /// Term-simplification counters (simplified feasibility checks only).
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
        self.blast_cache_hits += other.blast_cache_hits;
        self.blast_cache_misses += other.blast_cache_misses;
        self.simplify.absorb(&other.simplify);
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

/// Bitvector solver: every check takes its whole constraint list.
pub struct Solver {
    /// The SAT instance and blaster of the most recent check that reached
    /// the SAT layer, reset (not dropped) by the next one.
    instance: Option<(SatSolver, Blaster)>,
    /// Whether the instance's model may be read: only after a Sat
    /// model-bearing check. `None` before any check.
    model_readable: Option<bool>,
    /// Accumulated SAT-core statistics across all checks.
    sat_totals: crate::sat::SatStats,
    /// Per-query resource budget (unlimited by default).
    budget: SolveBudget,
    /// Initial-phase scramble seed for the next checks (0 = default phases).
    phase_seed: u64,
    /// The simplifier's rewrite memos, kept across feasibility checks.
    rewrite_cache: RewriteCache,
    pub stats: SolverStats,
    pub inc_stats: IncrementalStats,
    #[cfg(debug_assertions)]
    audit: AuditScratch,
}

/// Buffers the debug model audit reuses, so that once they have grown a
/// check allocates no more in a debug build than in a release one.
#[cfg(debug_assertions)]
#[derive(Default)]
struct AuditScratch {
    walk: crate::term::VarWalk,
    vars: Vec<VarId>,
    model: Assignment,
    memo: std::collections::HashMap<TermId, crate::bitvec::BitVec>,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    pub fn new() -> Self {
        Solver {
            instance: None,
            model_readable: None,
            sat_totals: crate::sat::SatStats::default(),
            budget: SolveBudget::UNLIMITED,
            phase_seed: 0,
            rewrite_cache: RewriteCache::default(),
            stats: SolverStats::default(),
            inc_stats: IncrementalStats::default(),
            #[cfg(debug_assertions)]
            audit: AuditScratch::default(),
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

    /// Drop the simplifier's rewrite memos, so the next feasibility check
    /// rewrites from its own constraint list alone. The engine calls this
    /// after recovering from an isolated path panic, which may have unwound
    /// out of a simplification round.
    pub fn reset(&mut self) {
        self.rewrite_cache = RewriteCache::default();
    }

    /// Scramble initial decision phases for subsequent checks (0 restores
    /// the default). Used to retry an Unknown query along a different
    /// search order; while a non-zero seed is set, feasibility checks skip
    /// the simplifier so the scramble applies to the one unsimplified
    /// encoding and stays fully deterministic.
    pub fn set_phase_seed(&mut self, seed: u64) {
        self.phase_seed = seed;
    }

    /// Model-bearing check of the conjunction of `constraints` (1-bit
    /// terms). The verdict *and the model* are a pure function of the
    /// ordered list (plus budget and phase seed); the model may be read
    /// afterwards only when the check answered `Sat`.
    pub fn check_assuming(&mut self, pool: &TermPool, constraints: &[TermId]) -> CheckResult {
        let t0 = Instant::now();
        let verdict = self.solve_fresh(pool, constraints);
        self.stats.solve_time += t0.elapsed();
        self.model_readable = Some(verdict == CheckResult::Sat);
        #[cfg(debug_assertions)]
        if verdict == CheckResult::Sat {
            self.audit_model(pool, constraints);
        }
        verdict
    }

    /// Debug builds re-evaluate every assertion of a Sat model-bearing check
    /// under its model and panic, naming the term, if one is false: every
    /// binding the blaster made is checked against the reference semantics.
    #[cfg(debug_assertions)]
    fn audit_model(&mut self, pool: &TermPool, constraints: &[TermId]) {
        let AuditScratch { walk, vars, model, memo } = &mut self.audit;
        let (sat, blaster) = self.instance.as_ref().expect("a Sat check leaves its instance");
        walk.vars_into(pool, constraints.iter().copied(), vars);
        model.clear();
        for &v in vars.iter() {
            model.set(v, blaster.model_value(sat, pool, v));
        }
        memo.clear();
        for &t in constraints {
            assert!(
                crate::eval::eval_memo(pool, model, t, memo).is_true(),
                "model audit failed: {} is false under the model",
                pool.display(t)
            );
        }
    }

    /// Verdict-only feasibility check of the conjunction of `constraints`:
    /// simplify, then bind the residue into a fresh instance. With a budget
    /// or a phase-seed retry active it solves unsimplified, exactly as
    /// [`Solver::check_assuming`]. Either way the model afterwards is
    /// unreadable — callers needing one must issue a model-bearing check.
    pub fn check_feasible(&mut self, pool: &TermPool, constraints: &[TermId]) -> CheckResult {
        if !self.budget.is_unlimited() || self.phase_seed != 0 {
            self.inc_stats.fresh_fallbacks += 1;
            let verdict = self.check_assuming(pool, constraints);
            self.model_readable = Some(false);
            return verdict;
        }
        let t0 = Instant::now();
        self.inc_stats.warm_checks += 1;
        self.model_readable = Some(false);
        // A constant-false residue is a verdict with no SAT work at all.
        let simplified = simplify_conjunction(
            pool,
            constraints,
            &mut self.rewrite_cache,
            &mut self.inc_stats.simplify,
        );
        self.stats.simplify_time += t0.elapsed();
        let verdict = match simplified {
            Simplified::False => {
                self.stats.conflicts_per_check_hist[0] += 1;
                self.count_result(SatResult::Unsat)
            }
            Simplified::Constraints(residue) => self.solve_fresh(pool, &residue),
        };
        self.stats.solve_time += t0.elapsed();
        verdict
    }

    /// Bind `constraints` into the recycled instance, reset to the empty
    /// state, and solve it under the budget and phase seed.
    fn solve_fresh(&mut self, pool: &TermPool, constraints: &[TermId]) -> CheckResult {
        let (mut sat, mut blaster) = empty_instance(self.instance.take());
        let ok = constraints.iter().all(|&t| blaster.assert_fresh(&mut sat, pool, t));
        let t1 = Instant::now();
        let res = if ok {
            sat.seed_phases(self.phase_seed);
            sat.solve_budgeted(&self.budget)
        } else {
            SatResult::Unsat
        };
        self.stats.sat_time += t1.elapsed();
        self.stats.conflicts_per_check_hist
            [CONFLICTS_PER_CHECK_BOUNDS.partition_point(|&b| b < sat.stats.conflicts)] += 1;
        self.inc_stats.blast_cache_hits += blaster.stats.cache_hits;
        self.inc_stats.blast_cache_misses += blaster.stats.cache_misses;
        self.sat_totals.absorb(&sat.stats);
        self.instance = Some((sat, blaster));
        self.count_result(res)
    }

    fn count_result(&mut self, res: SatResult) -> CheckResult {
        self.stats.checks += 1;
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

    /// Model value of one variable after a Sat model-bearing check.
    /// Variables that did not occur in the checked formula evaluate to
    /// zero. Reading a model after any other check is a caller bug (the
    /// values are whatever the search left behind, or belong to a
    /// simplified formula), caught by a debug assertion.
    pub fn model_value(&self, pool: &TermPool, v: VarId) -> crate::bitvec::BitVec {
        self.debug_assert_model_readable();
        match &self.instance {
            Some((sat, blaster)) => blaster.model_value(sat, pool, v),
            None => crate::bitvec::BitVec::zeros(pool.var_info(v).width),
        }
    }

    /// Full model over the given variables after a Sat model-bearing check.
    pub fn model(&self, pool: &TermPool, vars: &[VarId]) -> Assignment {
        self.debug_assert_model_readable();
        let mut asg = Assignment::new();
        for &v in vars {
            asg.set(v, self.model_value(pool, v));
        }
        asg
    }

    fn debug_assert_model_readable(&self) {
        debug_assert_ne!(
            self.model_readable,
            Some(false),
            "model read after a non-Sat check or a verdict-only one"
        );
    }

    /// SAT-core statistics accumulated over all checks.
    pub fn sat_stats(&self) -> &crate::sat::SatStats {
        &self.sat_totals
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::term::VarWalk;

    /// The model of the last check over every variable of `cs`.
    fn model_of(s: &Solver, pool: &TermPool, cs: &[TermId]) -> Assignment {
        s.model(pool, &VarWalk::default().vars(pool, cs.iter().copied()))
    }

    #[test]
    fn checks_keep_no_assertions() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let eq5 = pool.eq(x, pool.const_u128(8, 5));
        let eq6 = pool.eq(x, pool.const_u128(8, 6));
        assert_eq!(s.check_assuming(&pool, &[eq5]), CheckResult::Sat);
        assert_eq!(s.check_assuming(&pool, &[eq5, eq6]), CheckResult::Unsat);
        assert_eq!(s.check_assuming(&pool, &[eq5]), CheckResult::Sat);
        assert!(eval(&pool, &model_of(&s, &pool, &[eq5]), eq5).is_true());
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
        assert_eq!(s.check_assuming(&pool, &[c1, c2]), CheckResult::Sat);
        let m = model_of(&s, &pool, &[c1, c2]);
        assert!(eval(&pool, &m, c1).is_true());
        assert!(eval(&pool, &m, c2).is_true());
    }

    #[test]
    fn stats_accumulate() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let eq = pool.eq(x, pool.const_u128(8, 9));
        s.check_assuming(&pool, &[eq]);
        s.check_feasible(&pool, &[eq]);
        assert_eq!(s.stats.checks, 2);
        assert_eq!(s.stats.sat_results, 2);
    }

    /// A 24×24→48-bit factoring constraint: hard enough that a one-conflict
    /// budget can never finish it.
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
        let hard = hard_terms(&pool);
        s.set_budget(crate::sat::SolveBudget::conflicts(2));
        assert_eq!(s.check_assuming(&pool, &hard), CheckResult::Unknown);
        assert_eq!(s.stats.unknown_results, 1);
        assert_eq!(s.stats.checks, 1);
    }

    #[test]
    fn budgeted_checks_are_deterministic() {
        // Same formula, same budget, same phase seed -> same verdict, every
        // time (budgeted queries always solve on a history-free fresh
        // instance, feasibility checks included).
        let outcome = |seed: u64| {
            let pool = TermPool::new();
            let mut s = Solver::new();
            let hard = hard_terms(&pool);
            s.set_budget(crate::sat::SolveBudget::conflicts(50));
            s.set_phase_seed(seed);
            (s.check_assuming(&pool, &hard), s.check_feasible(&pool, &hard))
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
        let eq = pool.eq(x, pool.const_u128(8, 42));
        s.set_budget(crate::sat::SolveBudget::conflicts(1));
        assert_eq!(s.check_assuming(&pool, &[eq]), CheckResult::Sat);
        assert!(eval(&pool, &model_of(&s, &pool, &[eq]), eq).is_true());
    }

    #[test]
    fn recycled_instances_match_new_ones() {
        // A check builds its instance on the previous check's reset
        // storage. Over verdicts of every kind, budgets and phase seeds,
        // each check must leave exactly the instance — and so the verdict,
        // model and SAT stats — that a new `Solver` builds.
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
            let (rs, rb) = reused.instance.as_ref().unwrap();
            let (ns, nb) = new.instance.as_ref().unwrap();
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
    fn feasibility_instances_match_new_ones() {
        // A feasibility check binds its residue into the instance the
        // previous (larger) check left; afterwards it must hold exactly what
        // a new solver holds after the same check.
        let pool = TermPool::new();
        let (x, y) = (pool.fresh_var("bx", 24), pool.fresh_var("by", 24));
        let big = pool.ult(pool.const_u128(24, 5), pool.mul(x, y));
        let small = spine_family(&pool).swap_remove(0);
        let mut reused = Solver::new();
        assert_eq!(reused.check_feasible(&pool, &[big]), CheckResult::Sat);
        assert_eq!(reused.check_feasible(&pool, &small), CheckResult::Sat);
        let mut new = Solver::new();
        assert_eq!(new.check_feasible(&pool, &small), CheckResult::Sat);
        let ((rs, rb), (ns, nb)) = (reused.instance.as_ref().unwrap(), new.instance.as_ref().unwrap());
        rs.assert_same_state(ns);
        rb.assert_same_state(nb);
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "model read after a non-Sat check")]
    fn model_after_feasibility_check_panics_in_debug_builds() {
        // The simplifier drops `x == 1` after substituting it, so the
        // instance's model would read x as 0.
        let pool = TermPool::new();
        let mut s = Solver::new();
        let (x, y) = (pool.fresh_var("fx", 8), pool.fresh_var("fy", 8));
        let cs = [pool.eq(x, pool.const_u128(8, 1)), pool.ult(x, y)];
        assert_eq!(s.check_feasible(&pool, &cs), CheckResult::Sat);
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

    // ---- feasibility checks ---------------------------------------------

    /// Sibling-style constraint sequences (shared prefix, one differing
    /// tail), as a DFS issues them.
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
    fn simplifier_decides_folded_contradictions_without_sat() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("fx", 8);
        let c1 = pool.const_u128(8, 1);
        let c2 = pool.const_u128(8, 2);
        let cs = vec![pool.eq(x, c1), pool.eq(x, c2)];
        assert_eq!(s.check_feasible(&pool, &cs), CheckResult::Unsat);
        assert!(s.inc_stats.simplify.fast_unsat > 0);
        // No instance was built: nothing was blasted.
        assert!(s.instance.is_none());
        assert_eq!(s.inc_stats.blast_cache_misses, 0);
    }

    #[test]
    fn budgeted_feasibility_falls_back_to_fresh() {
        let pool = TermPool::new();
        let mut s = Solver::new();
        s.set_budget(crate::sat::SolveBudget::conflicts(2));
        assert_eq!(s.check_feasible(&pool, &hard_terms(&pool)), CheckResult::Unknown);
        assert_eq!(s.inc_stats.fresh_fallbacks, 1);
        assert_eq!(s.inc_stats.warm_checks, 0);
    }

    #[test]
    fn rewrite_memo_outlives_checks_until_reset() {
        // A check that repeats the previous one's bindings computes no
        // rewrite; a reset makes the next one start over.
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
        s.reset();
        assert_eq!(rewrites(&mut s), first);
        assert!(s.stats.simplify_time <= s.stats.solve_time);
    }

    #[test]
    fn reset_preserves_verdicts() {
        let pool = TermPool::new();
        let fams = spine_family(&pool);
        let mut s = Solver::new();
        let before: Vec<CheckResult> =
            fams.iter().map(|cs| s.check_feasible(&pool, cs)).collect();
        s.reset();
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
    fn simplified_feasibility_agrees_with_unsimplified_checks() {
        // Feasibility checks simplify and bind the residue; model-bearing
        // checks bind the list as given. Over one solver pair fed list
        // after list (so a rewrite memo or instance leaking between checks
        // would pin later lists), every verdict must agree and every model
        // must satisfy every original term.
        use rand::{Rng, SeedableRng};
        let pool = TermPool::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5EED);
        let vars = [("px", 8), ("py", 8), ("pz", 4), ("pw", 4), ("pb", 1), ("pc", 1)]
            .map(|(name, width)| pool.fresh_var(name, width));
        let (mut plain, mut simplified) = (Solver::new(), Solver::new());
        let mut verdicts = [0usize; 2];
        for i in 0..400 {
            let len = rng.gen_range(1usize..7);
            let list: Vec<TermId> = (0..len).map(|_| random_constraint(&pool, &vars, &mut rng)).collect();
            let verdict = plain.check_assuming(&pool, &list);
            assert_eq!(verdict, simplified.check_feasible(&pool, &list), "list {i}: verdicts differ");
            if verdict == CheckResult::Sat {
                let m = model_of(&plain, &pool, &list);
                for &t in &list {
                    assert!(eval(&pool, &m, t).is_true(), "list {i}: {}", pool.display(t));
                }
            }
            verdicts[(verdict == CheckResult::Sat) as usize] += 1;
        }
        assert!(verdicts.iter().all(|&n| n > 40), "too one-sided: {verdicts:?}");
        assert_eq!(simplified.inc_stats.warm_checks, 400);
        assert!(simplified.inc_stats.simplify.fast_unsat > 0);
    }
}
