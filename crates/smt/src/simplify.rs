//! Term-level simplification of constraint conjunctions, run in front of
//! the bit-blaster by the solver facade's feasibility checks.
// Same panic-freedom bar as the frontend: this runs on every feasibility
// check, so recoverable handling only (CI runs clippy with these denies).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//!
//! The pool's constructors already constant-fold individual terms as they
//! are built; what they cannot see is the *conjunction* a feasibility check
//! carries. This pass exploits it:
//!
//! * **Equality propagation along the trail** — a constraint of the form
//!   `x == c` (or a bare 1-bit `x` / `!x`, or `x == y` between variables)
//!   binds the variable, and every other constraint is rewritten under the
//!   binding. Substituted constants then cascade through the constructors'
//!   constant folding, frequently collapsing whole branch conditions.
//! * **Bit-range propagation** — `x[hi:lo] == c` binds just that slice of
//!   `x`, and any extract *covered* by a bound range rewrites to the
//!   corresponding slice of the constant. Parser select keys are exactly
//!   such slices of the packet variable, so conflicting select arms decide
//!   unsat here with no SAT call. Unlike a whole-variable binding, a range
//!   binding does not capture every occurrence of `x`, so its defining
//!   equality is *kept* in the residue (dropping it would unsoundly weaken
//!   the conjunction — `{x[7:0] == 5, x < 3}` must stay unsat).
//! * **Fast verdicts** — a constraint that folds to constant false decides
//!   the whole conjunction Unsat with no SAT call; constraints that fold to
//!   constant true (including the spent defining equalities) are dropped.
//! * **Structural hashing** — rewritten terms are interned in the same
//!   hash-consed pool, so the blaster's per-term cache is keyed on the
//!   *simplified* structure: syntactically different constraints that
//!   simplify to the same term share one CNF encoding.
//!
//! * **A rewrite memo kept across checks** — a [`RewriteCache`] holds one
//!   `TermId -> TermId` memo per round, tagged with the bindings it was
//!   built under. A round whose bindings equal its slot's tag reuses the
//!   slot's memo, so a DFS that re-derives the same bindings check after
//!   check (a parser's pinned select key) rewrites each trail constraint
//!   once per run rather than once per check.
//!
//! Soundness caveat: dropping a spent defining equality `x == c` preserves
//! *satisfiability* of the conjunction, not its models (`x` becomes
//! unconstrained). The pass is therefore only used for verdict-only
//! feasibility checks — never in front of a check whose model will be read.

use crate::term::{BinOp, Node, TermId, TermPool, VarId};
use std::collections::{HashMap, HashSet};

/// Bound on binding-collection/rewrite rounds. Each round can expose new
/// bindings (`y == x + 1` becomes `y == 6` once `x` is bound to `5`), so we
/// iterate — but packet-program trails settle in one or two rounds, and the
/// bound keeps the pass linear in practice.
const MAX_ROUNDS: usize = 4;

/// Counters from [`simplify_conjunction`], accumulated per solver.
#[derive(Default, Clone, Debug)]
pub struct SimplifyStats {
    /// Term nodes whose rewrite produced a structurally different term.
    /// Counts rewrites computed, not ones served from the memo of an
    /// earlier check (see [`RewriteCache`]).
    pub rewrites: u64,
    /// Variable occurrences replaced via a trail equality binding, counted
    /// like `rewrites`: when computed, not when served from the memo.
    pub substitutions: u64,
    /// Constraints dropped because they simplified to constant true.
    pub dropped_true: u64,
    /// Conjunctions decided unsat by simplification alone (no SAT call).
    pub fast_unsat: u64,
}

impl SimplifyStats {
    pub fn absorb(&mut self, other: &SimplifyStats) {
        self.rewrites += other.rewrites;
        self.substitutions += other.substitutions;
        self.dropped_true += other.dropped_true;
        self.fast_unsat += other.fast_unsat;
    }
}

/// Outcome of simplifying a constraint conjunction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Simplified {
    /// Equisatisfiable residue, in first-occurrence order (possibly empty,
    /// meaning the conjunction is trivially satisfiable).
    Constraints(Vec<TermId>),
    /// Some constraint folded to constant false: the conjunction is unsat.
    False,
}

/// Rewrite memos kept across the [`simplify_conjunction`] calls of one
/// solver: one slot per round, each tagged with the whole-variable and
/// bit-range bindings its memo was built under.
///
/// Reuse is exact. `rewrite` reads only those bindings and the pool, and
/// the pool is append-only and hash-consed, so a memo entry is the term a
/// fresh memo would build for the same bindings. Only the `rewrites` and
/// `substitutions` counters see the difference. Memory is bounded by the
/// pool: at most one entry per term per round, and a slot is cleared
/// whenever its round's bindings change. A cache serves one pool; a fresh
/// `RewriteCache` is a from-scratch simplification.
#[derive(Default)]
pub struct RewriteCache {
    slots: Vec<MemoSlot>,
    /// Address of the pool the memos were built over — checked in debug
    /// builds, since entries name its terms.
    pool: usize,
}

/// One round's memo and the bindings it was built under.
#[derive(Default)]
struct MemoSlot {
    whole: HashMap<VarId, TermId>,
    ranges: HashMap<VarId, Vec<RangeBind>>,
    memo: HashMap<TermId, TermId>,
}

impl RewriteCache {
    /// The memo for `round` under `bindings`: the slot's own memo when it
    /// was built under the same bindings, otherwise a cleared one.
    fn memo(
        &mut self,
        pool: &TermPool,
        round: usize,
        bindings: &Bindings,
    ) -> &mut HashMap<TermId, TermId> {
        let addr = pool as *const TermPool as usize;
        debug_assert!(
            self.pool == addr || self.slots.iter().all(|s| s.memo.is_empty()),
            "a RewriteCache must serve one pool"
        );
        self.pool = addr;
        if self.slots.len() <= round {
            self.slots.resize_with(round + 1, MemoSlot::default);
        }
        let slot = &mut self.slots[round];
        if slot.whole != bindings.whole || slot.ranges != bindings.ranges {
            slot.memo.clear();
            slot.whole.clone_from(&bindings.whole);
            slot.ranges.clone_from(&bindings.ranges);
        }
        &mut slot.memo
    }
}

/// Simplify a conjunction of 1-bit constraints (see the module docs). The
/// result is equisatisfiable with the input; it is *not* model-preserving.
/// Deterministic: a pure function of the constraint sequence, whatever
/// `cache` holds (only the `rewrites` and `substitutions` counts depend on
/// it).
pub fn simplify_conjunction(
    pool: &TermPool,
    constraints: &[TermId],
    cache: &mut RewriteCache,
    stats: &mut SimplifyStats,
) -> Simplified {
    let mut cur: Vec<TermId> = constraints.to_vec();
    let mut bindings = Bindings::default();
    for round in 0..MAX_ROUNDS {
        let grew = collect_bindings(pool, &cur, &mut bindings);
        if !grew && round > 0 {
            break;
        }
        if bindings.whole.is_empty() && bindings.ranges.is_empty() {
            // Nothing to substitute; constructors already folded each term,
            // so only the cheap scan below (false / true / duplicate) can
            // still change anything.
            break;
        }
        let memo = cache.memo(pool, round, &bindings);
        let mut next = Vec::with_capacity(cur.len());
        for &c in &cur {
            if bindings.definers.contains(&c) {
                // Range-defining equality: pass through verbatim (see the
                // module docs — a range binding substitutes only covered
                // extracts, so the definition itself must survive).
                next.push(c);
                continue;
            }
            let r = rewrite(pool, &bindings, memo, stats, c);
            if pool.is_const_false(r) {
                stats.fast_unsat += 1;
                return Simplified::False;
            }
            next.push(r);
        }
        cur = next;
        if !grew {
            break;
        }
    }
    // Final scan: drop constant-true constraints and duplicates, keeping
    // first-occurrence order; detect constant false.
    let mut seen: HashSet<TermId> = HashSet::with_capacity(cur.len());
    let mut out = Vec::with_capacity(cur.len());
    for &c in &cur {
        if pool.is_const_false(c) {
            stats.fast_unsat += 1;
            return Simplified::False;
        }
        if pool.is_const_true(c) {
            stats.dropped_true += 1;
            continue;
        }
        if seen.insert(c) {
            out.push(c);
        }
    }
    Simplified::Constraints(out)
}

/// One bound bit-range of a variable: `var[hi:lo] == value` (a constant).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct RangeBind {
    hi: u32,
    lo: u32,
    value: TermId,
}

/// Bindings harvested from a conjunction.
#[derive(Default)]
struct Bindings {
    /// Whole-variable bindings (`x -> const`, `x -> older var`).
    whole: HashMap<VarId, TermId>,
    /// Bit-range bindings per variable, in first-recorded order. Lookup
    /// picks the first *covering* range, so earlier constraints win.
    ranges: HashMap<VarId, Vec<RangeBind>>,
    /// Constraints that defined a recorded range binding. Kept verbatim in
    /// the residue: a range substitution is not a full capture of the
    /// variable, so the definition must remain asserted.
    definers: HashSet<TermId>,
}

impl Bindings {
    /// First recorded range of `v` that covers `[lo, hi]`, if any.
    fn range_covering(&self, v: VarId, hi: u32, lo: u32) -> Option<RangeBind> {
        self.ranges
            .get(&v)?
            .iter()
            .find(|r| r.lo <= lo && hi <= r.hi)
            .copied()
    }
}

/// Harvest variable bindings from the constraint list. Binding sources, in
/// constraint order with first-binding-wins semantics:
///
/// * a bare 1-bit variable `x` (binds `x -> 1`) or its negation `!x`
///   (binds `x -> 0`);
/// * `x == <const>` in either operand order;
/// * `x == y` between two variables of the same width — the *younger*
///   variable (higher [`VarId`]) binds to the older one, so binding chains
///   strictly decrease and can never cycle;
/// * `x[hi:lo] == <const>` in either operand order — a bit-range binding
///   (parser select keys). The defining constraint is recorded so the
///   rewrite pass keeps it in the residue.
///
/// Returns whether any new binding was added.
fn collect_bindings(pool: &TermPool, constraints: &[TermId], bindings: &mut Bindings) -> bool {
    let as_var = |t: TermId| match *pool.node(t) {
        Node::Var(v) => Some(v),
        _ => None,
    };
    // `t` as a constant-bound extract of a variable: (var, hi, lo).
    let as_var_slice = |t: TermId| match *pool.node(t) {
        Node::Extract { hi, lo, arg } => as_var(arg).map(|v| (v, hi, lo)),
        _ => None,
    };
    let mut grew = false;
    for &c in constraints {
        // Bit-range bindings first: `Extract(x, hi, lo) == const`.
        if let Node::Bin(BinOp::Eq, a, b) = *pool.node(c) {
            let slice_const = match (as_var_slice(a), as_var_slice(b)) {
                (Some(s), None) if pool.as_const(b).is_some() => Some((s, b)),
                (None, Some(s)) if pool.as_const(a).is_some() => Some((s, a)),
                _ => None,
            };
            if let Some(((v, hi, lo), value)) = slice_const {
                // Whole and range bindings are mutually exclusive per
                // variable: a whole binding's definer is dropped after
                // substitution, which is only sound if *every* occurrence
                // of the variable was substituted — and range definers are
                // passed through unrewritten. If `v` is already
                // whole-bound, skip the range; the rewrite pass folds this
                // constraint through the whole binding instead.
                if bindings.whole.contains_key(&v) {
                    continue;
                }
                let ranges = bindings.ranges.entry(v).or_default();
                // First binding of an exact range wins; a later conflicting
                // equality on the same slice is *not* a definer, so the
                // rewrite pass folds it against the recorded constant
                // (`c1 == c2` -> false -> fast unsat).
                if !ranges.iter().any(|r| r.hi == hi && r.lo == lo) {
                    ranges.push(RangeBind { hi, lo, value });
                    bindings.definers.insert(c);
                    grew = true;
                }
                continue;
            }
        }
        let (var, target) = match *pool.node(c) {
            Node::Var(v) => (Some(v), pool.mk_true()),
            Node::Not(a) => (as_var(a), pool.mk_false()),
            Node::Bin(BinOp::Eq, a, b) => match (as_var(a), as_var(b)) {
                (Some(va), Some(vb)) if va != vb => {
                    // Younger binds to older; `a`/`b` are the interned Var
                    // terms themselves.
                    if va > vb {
                        (Some(va), b)
                    } else {
                        (Some(vb), a)
                    }
                }
                (Some(va), None) if pool.as_const(b).is_some() => (Some(va), b),
                (None, Some(vb)) if pool.as_const(a).is_some() => (Some(vb), a),
                _ => (None, c),
            },
            _ => (None, c),
        };
        if let Some(v) = var {
            // Mirror of the exclusion above: once `v` has range bindings,
            // its range definers sit unrewritten in the residue, so a
            // whole binding could not soundly drop its own definer. Leave
            // the equality in place for the SAT solver.
            if bindings.ranges.contains_key(&v) {
                continue;
            }
            if let std::collections::hash_map::Entry::Vacant(e) = bindings.whole.entry(v) {
                e.insert(target);
                grew = true;
            }
        }
    }
    grew
}

/// Follow a binding chain (`z -> y -> x -> 5`) to its end. Chains strictly
/// decrease in [`VarId`] (see [`collect_bindings`]), so the walk terminates;
/// the explicit bound is belt-and-braces.
fn resolve(pool: &TermPool, bindings: &Bindings, v: VarId) -> Option<TermId> {
    let mut cur = *bindings.whole.get(&v)?;
    for _ in 0..bindings.whole.len() {
        match *pool.node(cur) {
            Node::Var(w) => match bindings.whole.get(&w) {
                Some(&next) if next != cur => cur = next,
                _ => break,
            },
            _ => break,
        }
    }
    Some(cur)
}

/// Rewrite one term under the bindings, memoized over the DAG. Rebuilding
/// through the pool constructors re-runs their constant folding, so a
/// substituted constant cascades upward.
fn rewrite(
    pool: &TermPool,
    bindings: &Bindings,
    memo: &mut HashMap<TermId, TermId>,
    stats: &mut SimplifyStats,
    t: TermId,
) -> TermId {
    if let Some(&r) = memo.get(&t) {
        return r;
    }
    let node = pool.node(t).clone();
    let out = match node {
        Node::Const(_) => t,
        Node::Var(v) => match resolve(pool, bindings, v) {
            Some(r) if r != t => {
                stats.substitutions += 1;
                r
            }
            _ => t,
        },
        Node::Not(a) => {
            let ra = rewrite(pool, bindings, memo, stats, a);
            if ra == a {
                t
            } else {
                pool.not(ra)
            }
        }
        Node::Neg(a) => {
            let ra = rewrite(pool, bindings, memo, stats, a);
            if ra == a {
                t
            } else {
                pool.neg(ra)
            }
        }
        Node::Extract { hi, lo, arg } => {
            let ra = rewrite(pool, bindings, memo, stats, arg);
            let range = match *pool.node(ra) {
                Node::Var(v) => bindings.range_covering(v, hi, lo),
                _ => None,
            };
            if let Some(r) = range {
                // Covered slice of a range-bound variable: take the
                // matching slice of the bound constant (the constructor
                // folds it to a constant immediately).
                stats.substitutions += 1;
                pool.extract((hi - r.lo) as usize, (lo - r.lo) as usize, r.value)
            } else if ra == arg {
                t
            } else {
                pool.extract(hi as usize, lo as usize, ra)
            }
        }
        Node::Ite(c, a, b) => {
            let rc = rewrite(pool, bindings, memo, stats, c);
            let ra = rewrite(pool, bindings, memo, stats, a);
            let rb = rewrite(pool, bindings, memo, stats, b);
            if rc == c && ra == a && rb == b {
                t
            } else {
                pool.ite(rc, ra, rb)
            }
        }
        Node::Bin(op, a, b) => {
            let ra = rewrite(pool, bindings, memo, stats, a);
            let rb = rewrite(pool, bindings, memo, stats, b);
            if ra == a && rb == b {
                t
            } else {
                pool.bin(op, ra, rb)
            }
        }
    };
    if out != t {
        stats.rewrites += 1;
    }
    memo.insert(t, out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::BitVec;
    use crate::eval::{eval, Assignment};

    fn simplify(pool: &TermPool, cs: &[TermId]) -> (Simplified, SimplifyStats) {
        let mut stats = SimplifyStats::default();
        let r = simplify_conjunction(pool, cs, &mut RewriteCache::default(), &mut stats);
        (r, stats)
    }

    #[test]
    fn empty_conjunction_is_trivially_sat() {
        let p = TermPool::new();
        let (r, _) = simplify(&p, &[]);
        assert_eq!(r, Simplified::Constraints(vec![]));
    }

    #[test]
    fn const_substitution_folds_dependent_constraint() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let five = p.const_u128(8, 5);
        let bind = p.eq(x, five);
        // x + 1 < 3 is false once x == 5.
        let one = p.const_u128(8, 1);
        let three = p.const_u128(8, 3);
        let dep = p.ult(p.add(x, one), three);
        let (r, stats) = simplify(&p, &[bind, dep]);
        assert_eq!(r, Simplified::False);
        assert!(stats.fast_unsat > 0);
        assert!(stats.substitutions > 0);
    }

    #[test]
    fn satisfied_dependents_leave_empty_residue() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let five = p.const_u128(8, 5);
        let bind = p.eq(x, five);
        let ten = p.const_u128(8, 10);
        let dep = p.ult(x, ten); // 5 < 10: true under the binding
        let (r, stats) = simplify(&p, &[bind, dep]);
        assert_eq!(r, Simplified::Constraints(vec![]));
        // Both the defining equality and the satisfied dependent fold away.
        assert_eq!(stats.dropped_true, 2);
    }

    #[test]
    fn var_var_chain_resolves_through_rounds() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let y = p.fresh_var("y", 8);
        let z = p.fresh_var("z", 8);
        let c7 = p.const_u128(8, 7);
        // z == y, y == x, x == 7, z != 7 — unsat, but only visible after
        // chasing the chain.
        let cs = [p.eq(z, y), p.eq(y, x), p.eq(x, c7), p.neq(z, c7)];
        let (r, _) = simplify(&p, &cs);
        assert_eq!(r, Simplified::False);
    }

    #[test]
    fn boolean_literal_bindings() {
        let p = TermPool::new();
        let a = p.fresh_var("a", 1);
        let b = p.fresh_var("b", 1);
        // a asserted true, b asserted false, and a constraint forcing a == b.
        let cs = [a, p.not(b), p.eq(a, b)];
        let (r, _) = simplify(&p, &cs);
        assert_eq!(r, Simplified::False);
    }

    #[test]
    fn range_binding_folds_conflicting_select_keys() {
        // Two parser-select-style equalities over the same packet slice
        // with different constants must decide unsat with no SAT call.
        let p = TermPool::new();
        let pkt = p.fresh_var("pkt", 32);
        let key = p.extract(15, 8, pkt);
        let arm1 = p.eq(key, p.const_u128(8, 0x11));
        let arm2 = p.eq(key, p.const_u128(8, 0x22));
        let (r, stats) = simplify(&p, &[arm1, arm2]);
        assert_eq!(r, Simplified::False);
        assert!(stats.fast_unsat > 0);
    }

    #[test]
    fn range_binding_substitutes_covered_slices() {
        // Binding pkt[15:8] == 0xAB makes the narrower pkt[11:8] slice a
        // known constant (0xB), folding a dependent comparison.
        let p = TermPool::new();
        let pkt = p.fresh_var("pkt", 32);
        let bind = p.eq(p.extract(15, 8, pkt), p.const_u128(8, 0xAB));
        let dep = p.ult(p.extract(11, 8, pkt), p.const_u128(4, 5));
        let (r, stats) = simplify(&p, &[bind, dep]);
        // 0xB < 5 is false.
        assert_eq!(r, Simplified::False);
        assert!(stats.substitutions > 0);
    }

    #[test]
    fn range_definers_are_retained_in_the_residue() {
        // A range binding captures only covered extracts, not every
        // occurrence of the variable — so the defining equality must stay.
        // Dropping it would make {x[7:0] == 5, x < 3} satisfiable.
        let p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let def = p.eq(p.extract(7, 0, x), p.const_u128(8, 5));
        let dep = p.ult(x, p.const_u128(8, 3));
        let (r, _) = simplify(&p, &[def, dep]);
        match r {
            Simplified::Constraints(cs) => {
                assert!(cs.contains(&def), "range definer must survive: {cs:?}");
                assert!(cs.contains(&dep));
            }
            Simplified::False => {
                // Also acceptable: the conjunction *is* unsat, so deciding
                // it here would be sound — but never by dropping `def`.
            }
        }
    }

    #[test]
    fn range_bindings_preserve_satisfiability_exhaustively() {
        // Brute-force a 4-bit domain: the residue must be sat exactly when
        // the original conjunction is.
        let p = TermPool::new();
        let x = p.fresh_var("x", 4);
        let vx = match *p.node(x) {
            Node::Var(v) => v,
            _ => unreachable!(),
        };
        let hi2 = p.extract(3, 2, x);
        let lo2 = p.extract(1, 0, x);
        let cases: Vec<Vec<TermId>> = vec![
            // x[3:2]==2, x[1:0]==1, x==9: sat (x = 0b1001).
            vec![
                p.eq(hi2, p.const_u128(2, 2)),
                p.eq(lo2, p.const_u128(2, 1)),
                p.eq(x, p.const_u128(4, 9)),
            ],
            // Same slices but x==5: unsat.
            vec![
                p.eq(hi2, p.const_u128(2, 2)),
                p.eq(lo2, p.const_u128(2, 1)),
                p.eq(x, p.const_u128(4, 5)),
            ],
            // Slice binding plus a strict bound on the whole var.
            vec![p.eq(hi2, p.const_u128(2, 3)), p.ult(x, p.const_u128(4, 12))],
            // Overlapping ranges that agree.
            vec![
                p.eq(p.extract(3, 0, x), p.const_u128(4, 0b1010)),
                p.eq(hi2, p.const_u128(2, 0b10)),
            ],
            // Overlapping ranges that conflict.
            vec![
                p.eq(p.extract(3, 0, x), p.const_u128(4, 0b1010)),
                p.eq(hi2, p.const_u128(2, 0b01)),
            ],
        ];
        for cs in cases {
            let sat_of = |terms: &[TermId]| -> bool {
                (0..16u128).any(|v| {
                    let mut asg = Assignment::default();
                    asg.set(vx, BitVec::from_u128(4, v));
                    terms.iter().all(|&t| eval(&p, &asg, t).bit(0))
                })
            };
            let original_sat = sat_of(&cs);
            let (r, _) = simplify(&p, &cs);
            let residue_sat = match &r {
                Simplified::False => false,
                Simplified::Constraints(rs) => sat_of(rs),
            };
            assert_eq!(original_sat, residue_sat, "case {cs:?} -> {r:?}");
        }
    }

    #[test]
    fn conflicting_const_bindings_are_unsat() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let c1 = p.const_u128(8, 1);
        let c2 = p.const_u128(8, 2);
        let (r, _) = simplify(&p, &[p.eq(x, c1), p.eq(x, c2)]);
        assert_eq!(r, Simplified::False);
    }

    #[test]
    fn residue_is_deduplicated_in_first_occurrence_order() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let y = p.fresh_var("y", 8);
        let zero = p.const_u128(8, 0);
        let c1 = p.neq(x, zero);
        let c2 = p.neq(y, zero);
        let (r, _) = simplify(&p, &[c1, c2, c1, c2, c1]);
        assert_eq!(r, Simplified::Constraints(vec![c1, c2]));
    }

    /// Satisfiability (not models) must be preserved: anything satisfying
    /// the residue extends to a model of the original conjunction, and an
    /// unsat verdict must be genuine. Cross-check with the evaluator on a
    /// small exhaustive domain.
    #[test]
    fn equisatisfiable_on_exhaustive_domain() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 3);
        let y = p.fresh_var("y", 3);
        let c3 = p.const_u128(3, 3);
        let c5 = p.const_u128(3, 5);
        let sum = p.add(x, y);
        let cases: Vec<Vec<TermId>> = vec![
            vec![p.eq(x, c3), p.ult(y, x), p.eq(sum, c5)],
            vec![p.eq(x, y), p.ult(x, c3), p.neq(y, c3)],
            vec![p.eq(x, c3), p.eq(y, c5), p.ult(sum, c3)],
            vec![p.eq(x, c3), p.eq(x, c5)],
        ];
        for cs in cases {
            let brute_sat = 'search: {
                for xv in 0..8u128 {
                    for yv in 0..8u128 {
                        let mut asg = Assignment::new();
                        let Node::Var(vx) = *p.node(x) else { unreachable!() };
                        let Node::Var(vy) = *p.node(y) else { unreachable!() };
                        asg.set(vx, BitVec::from_u128(3, xv));
                        asg.set(vy, BitVec::from_u128(3, yv));
                        if cs.iter().all(|&c| eval(&p, &asg, c).is_true()) {
                            break 'search true;
                        }
                    }
                }
                false
            };
            let (r, _) = simplify(&p, &cs);
            match r {
                Simplified::False => assert!(!brute_sat, "simplifier declared sat case unsat"),
                Simplified::Constraints(res) => {
                    // A non-false residue must not have lost unsatisfiability:
                    // brute-force the residue too.
                    let res_sat = 'search: {
                        for xv in 0..8u128 {
                            for yv in 0..8u128 {
                                let mut asg = Assignment::new();
                                let Node::Var(vx) = *p.node(x) else { unreachable!() };
                                let Node::Var(vy) = *p.node(y) else { unreachable!() };
                                asg.set(vx, BitVec::from_u128(3, xv));
                                asg.set(vy, BitVec::from_u128(3, yv));
                                if res.iter().all(|&c| eval(&p, &asg, c).is_true()) {
                                    break 'search true;
                                }
                            }
                        }
                        false
                    };
                    assert_eq!(res_sat, brute_sat, "residue changed satisfiability");
                }
            }
        }
    }

    // ---- the cross-check rewrite memo -----------------------------------

    /// Simplify each conjunction of `seq` in turn through one long-lived
    /// cache, and check every result against a call on a fresh cache: the
    /// same residue or verdict, and the same `fast_unsat` and
    /// `dropped_true` deltas. Returns the stats totals with and without
    /// the long-lived cache.
    fn assert_cache_matches_fresh(
        pool: &TermPool,
        seq: &[Vec<TermId>],
    ) -> (SimplifyStats, SimplifyStats) {
        let mut cache = RewriteCache::default();
        let mut kept = SimplifyStats::default();
        let mut fresh_total = SimplifyStats::default();
        for (i, cs) in seq.iter().enumerate() {
            let mut fresh = SimplifyStats::default();
            let want = simplify_conjunction(pool, cs, &mut RewriteCache::default(), &mut fresh);
            let before = kept.clone();
            let got = simplify_conjunction(pool, cs, &mut cache, &mut kept);
            assert_eq!(got, want, "check {i}: {cs:?}");
            assert_eq!(kept.fast_unsat - before.fast_unsat, fresh.fast_unsat, "check {i}");
            assert_eq!(kept.dropped_true - before.dropped_true, fresh.dropped_true, "check {i}");
            fresh_total.absorb(&fresh);
        }
        (kept, fresh_total)
    }

    /// Constraints shaped like a parser's trail: a select key pinned to
    /// one of two values (a range binding), select arms that conflict with
    /// it, a slice it covers, var-var bindings, 1-bit literals, and an
    /// arithmetic chain `y == x + 1`, `z == y + 1`, `w == z + 1` whose
    /// bindings only appear in rounds 2, 3 and 4.
    fn trail_catalogue(p: &TermPool) -> Vec<Vec<TermId>> {
        let pkt = p.fresh_var("pkt", 48);
        let key = p.extract(47, 16, pkt);
        let pin = |k: u128| p.eq(key, p.const_u128(32, k));
        let arm = |k: u128| p.eq(key, p.const_u128(32, 0xA000_0001 + k));
        let covered = p.ult(p.extract(47, 40, pkt), p.const_u128(8, 0xA1));
        let [x, y, z, w, u] = ["x", "y", "z", "w", "u"].map(|n| p.fresh_var(n, 8));
        let one = p.const_u128(8, 1);
        let (a, b) = (p.fresh_var("a", 1), p.fresh_var("b", 1));
        vec![
            vec![pin(0xA000_0000), pin(0xB000_0000), p.eq(x, p.const_u128(8, 5))],
            vec![covered, arm(0), p.eq(y, p.add(x, one))],
            vec![a, p.eq(u, x), p.eq(z, p.add(y, one))],
            vec![p.eq(w, p.add(z, one)), p.not(b), arm(1), covered],
            vec![p.neq(w, p.const_u128(8, 8)), p.eq(a, b), p.ult(u, p.const_u128(8, 9))],
        ]
    }

    /// Every root-to-node trail of the tree whose level `d` offers the
    /// choices `levels[d]`, in DFS order: the trail grows, backtracks, and
    /// bindings appear and vanish with the constraints that make them. (The
    /// catalogue's last choices bind no whole variable and fold to no
    /// false, so moving from the first pin's subtree to the second changes
    /// only the range binding.)
    fn dfs_trails(levels: &[Vec<TermId>]) -> Vec<Vec<TermId>> {
        fn go(levels: &[Vec<TermId>], trail: &mut Vec<TermId>, out: &mut Vec<Vec<TermId>>) {
            let Some((choices, rest)) = levels.split_first() else { return };
            for &c in choices {
                trail.push(c);
                out.push(trail.clone());
                go(rest, trail, out);
                trail.pop();
            }
        }
        let mut out = Vec::new();
        go(levels, &mut Vec::new(), &mut out);
        out
    }

    #[test]
    fn kept_memo_matches_a_fresh_one_along_a_dfs() {
        let p = TermPool::new();
        let mut seq = dfs_trails(&trail_catalogue(&p));
        seq.extend(crate::solver::tests::spine_family(&p));
        let (kept, fresh) = assert_cache_matches_fresh(&p, &seq);
        assert!(kept.rewrites < fresh.rewrites, "the kept memo must save rewrites");
        // The sequence reaches every mechanism the memo must be exact for.
        assert!(fresh.fast_unsat > 0 && fresh.dropped_true > 0 && fresh.substitutions > 0);
    }

    #[test]
    fn arithmetic_chain_binds_one_variable_per_round() {
        // The catalogue's chain: x is bound in round 1, y in round 2, z in
        // round 3 and w in round 4, which folds `w != 8` to false.
        let p = TermPool::new();
        let l = trail_catalogue(&p);
        let chain = [l[0][2], l[1][2], l[2][2], l[3][0], l[4][0]];
        assert_eq!(simplify(&p, &chain).0, Simplified::False);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "a RewriteCache must serve one pool")]
    fn a_cache_with_entries_rejects_another_pool() {
        let (p, q) = (TermPool::new(), TermPool::new());
        let mut cache = RewriteCache::default();
        let mut stats = SimplifyStats::default();
        for pool in [&p, &q] {
            // x == 5, y == x + 1: the second rewrites under the first.
            let l = trail_catalogue(pool);
            simplify_conjunction(pool, &[l[0][2], l[1][2]], &mut cache, &mut stats);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Random push/pop walks over the catalogue: a kept memo answers
        /// every check exactly as a fresh one does.
        #[test]
        fn kept_memo_matches_a_fresh_one_on_random_walks(
            ops in proptest::collection::vec((0u8..3, 0usize..64), 1..40)
        ) {
            let p = TermPool::new();
            let catalogue: Vec<TermId> = trail_catalogue(&p).concat();
            let mut trail = Vec::new();
            let mut seq = Vec::new();
            for (op, i) in ops {
                if op == 0 {
                    trail.pop();
                } else {
                    trail.push(catalogue[i % catalogue.len()]);
                }
                seq.push(trail.clone());
            }
            assert_cache_matches_fresh(&p, &seq);
        }
    }
}
