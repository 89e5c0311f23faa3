//! Bit-blasting: translation of bitvector terms into CNF over the SAT solver.
//!
//! Every term maps to a run of literals, least-significant bit first.
//! Translation is cached per term, so shared subterms (the term pool is
//! hash-consed) are encoded once per instance.
//!
//! All literals live in one arena, a `Vec<Lit>` the blaster owns: an encoded
//! term is a `Span` of it, and the cache and the variables' bits map to
//! spans. A cache hit or an `Extract` copies nothing, gates and adders push
//! their outputs onto the arena, and [`Blaster::reset`] clears it but keeps
//! its capacity, so a check that repeats an earlier one's encoding
//! allocates nothing. Spans stay valid for the instance's lifetime: the
//! arena only grows until the next reset.
//!
//! A variable's bits are created together ([`SatSolver::new_vars`]), even
//! when a constraint touches only a slice of it. The bits no clause
//! mentions cost nothing in the SAT search: they are never decided and read
//! back as their saved phase (see [`crate::sat`]).
//!
//! An instance whose assertions are never retracted can also *bind* them
//! ([`Blaster::assert_fresh`]): an asserted equality names the literals of a
//! still-unencoded variable instead of being encoded as a gate tree plus a
//! unit clause, so a variable's bits may be constants, another variable's
//! literals, or negated literals.

use crate::bitvec::BitVec;
use crate::sat::{Lit, SatSolver, SatVar};
use crate::term::{BinOp, Node, TermId, TermPool, VarId};
use std::collections::HashMap;

/// Encoding-cache counters, read by the solver facade's metrics fold.
#[derive(Default, Clone, Debug, PartialEq, Eq)]
pub struct BlastStats {
    /// `blast` calls answered from the per-term cache.
    pub cache_hits: u64,
    /// `blast` calls that had to encode a new term node.
    pub cache_misses: u64,
}

/// A run of the blaster's literal arena: an encoded term's bits, LSB first.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn len(self) -> usize {
        self.len as usize
    }

    /// The `len` bits starting at bit `lo`.
    fn sub(self, lo: usize, len: usize) -> Span {
        debug_assert!(lo + len <= self.len());
        Span { start: self.start + lo as u32, len: len as u32 }
    }
}

/// Arena spans of the pinned true literal and its negation.
const TRUE_SPAN: Span = Span { start: 0, len: 1 };
const FALSE_SPAN: Span = Span { start: 1, len: 1 };

/// Bit-blaster with a per-term encoding cache.
pub struct Blaster {
    /// Every encoded term's literals, back to back; starts with the true
    /// literal and its negation.
    lits: Vec<Lit>,
    cache: HashMap<TermId, Span>,
    /// Literals backing each pool variable's bits (LSB first): fresh SAT
    /// variables when blasted, any literals when bound.
    var_bits: HashMap<VarId, Span>,
    /// A literal constrained to be true.
    true_lit: Lit,
    pub stats: BlastStats,
}

impl Blaster {
    /// Create a blaster over `sat`, claiming one variable pinned to true.
    pub fn new(sat: &mut SatSolver) -> Self {
        let mut blaster = Blaster {
            lits: Vec::new(),
            cache: HashMap::new(),
            var_bits: HashMap::new(),
            true_lit: Lit::positive(SatVar(0)),
            stats: BlastStats::default(),
        };
        blaster.pin_true(sat);
        blaster
    }

    /// Return to the state [`Blaster::new`] builds over `sat`, which the
    /// caller has just [`SatSolver::reset`]: an empty arena and caches
    /// (keeping their capacity), zeroed `stats`, and the true literal pinned
    /// again — as variable 0, exactly where `new` puts it on a new solver.
    pub fn reset(&mut self, sat: &mut SatSolver) {
        debug_assert_eq!(sat.num_vars(), 0, "reset the SAT solver first");
        self.lits.clear();
        self.cache.clear();
        self.var_bits.clear();
        self.pin_true(sat);
        self.stats = BlastStats::default();
    }

    fn pin_true(&mut self, sat: &mut SatSolver) {
        let t = Lit::positive(sat.new_var());
        sat.add_clause(&[t]);
        self.true_lit = t;
        self.lits.extend([t, t.negate()]);
    }

    /// The literals of `span`.
    fn lits(&self, span: Span) -> &[Lit] {
        &self.lits[span.start as usize..(span.start + span.len) as usize]
    }

    fn bit(&self, span: Span, i: usize) -> Lit {
        debug_assert!(i < span.len());
        self.lits[span.start as usize + i]
    }

    /// Push `n` literals, bit `i` computed by `f`, and return their span.
    fn emit(&mut self, n: usize, mut f: impl FnMut(&mut Self, usize) -> Lit) -> Span {
        let start = self.lits.len();
        for i in 0..n {
            let l = f(self, i);
            self.lits.push(l);
        }
        Span { start: start as u32, len: n as u32 }
    }

    fn emit_one(&mut self, l: Lit) -> Span {
        self.emit(1, |_, _| l)
    }

    fn false_lit(&self) -> Lit {
        self.true_lit.negate()
    }

    fn const_lit(&self, b: bool) -> Lit {
        if b {
            self.true_lit
        } else {
            self.false_lit()
        }
    }

    fn is_true(&self, l: Lit) -> bool {
        l == self.true_lit
    }

    fn is_false(&self, l: Lit) -> bool {
        l == self.false_lit()
    }

    /// Extract the model value of a pool variable after a Sat result.
    /// Bits that were never encoded are zero.
    pub fn model_value(&self, sat: &SatSolver, pool: &TermPool, v: VarId) -> BitVec {
        let width = pool.var_info(v).width;
        let mut out = BitVec::zeros(width);
        if let Some(&bits) = self.var_bits.get(&v) {
            for (i, &l) in self.lits(bits).iter().enumerate() {
                if sat.model_value(l.var()) == l.is_positive() {
                    out.set_bit(i, true);
                }
            }
        }
        out
    }

    // ---- gate primitives (Tseitin) --------------------------------------

    fn gate_and(&mut self, sat: &mut SatSolver, a: Lit, b: Lit) -> Lit {
        if self.is_false(a) || self.is_false(b) {
            return self.false_lit();
        }
        if self.is_true(a) {
            return b;
        }
        if self.is_true(b) {
            return a;
        }
        if a == b {
            return a;
        }
        if a == b.negate() {
            return self.false_lit();
        }
        let c = Lit::positive(sat.new_var());
        sat.add_clause(&[a.negate(), b.negate(), c]);
        sat.add_clause(&[a, c.negate()]);
        sat.add_clause(&[b, c.negate()]);
        c
    }

    fn gate_or(&mut self, sat: &mut SatSolver, a: Lit, b: Lit) -> Lit {
        self.gate_and(sat, a.negate(), b.negate()).negate()
    }

    fn gate_xor(&mut self, sat: &mut SatSolver, a: Lit, b: Lit) -> Lit {
        if self.is_false(a) {
            return b;
        }
        if self.is_false(b) {
            return a;
        }
        if self.is_true(a) {
            return b.negate();
        }
        if self.is_true(b) {
            return a.negate();
        }
        if a == b {
            return self.false_lit();
        }
        if a == b.negate() {
            return self.true_lit;
        }
        let c = Lit::positive(sat.new_var());
        sat.add_clause(&[a.negate(), b.negate(), c.negate()]);
        sat.add_clause(&[a, b, c.negate()]);
        sat.add_clause(&[a.negate(), b, c]);
        sat.add_clause(&[a, b.negate(), c]);
        c
    }

    /// Multiplexer: `sel ? t : e`.
    fn gate_mux(&mut self, sat: &mut SatSolver, sel: Lit, t: Lit, e: Lit) -> Lit {
        if self.is_true(sel) {
            return t;
        }
        if self.is_false(sel) {
            return e;
        }
        if t == e {
            return t;
        }
        let a = self.gate_and(sat, sel, t);
        let b = self.gate_and(sat, sel.negate(), e);
        self.gate_or(sat, a, b)
    }

    /// Full adder returning (sum, carry).
    fn full_adder(&mut self, sat: &mut SatSolver, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let axb = self.gate_xor(sat, a, b);
        let sum = self.gate_xor(sat, axb, cin);
        let c1 = self.gate_and(sat, a, b);
        let c2 = self.gate_and(sat, axb, cin);
        let cout = self.gate_or(sat, c1, c2);
        (sum, cout)
    }

    fn ripple_add(&mut self, sat: &mut SatSolver, a: Span, b: Span, mut carry: Lit) -> Span {
        self.emit(a.len(), |bl, i| {
            let (s, c) = bl.full_adder(sat, bl.bit(a, i), bl.bit(b, i), carry);
            carry = c;
            s
        })
    }

    fn blast_mul(&mut self, sat: &mut SatSolver, a: Span, b: Span) -> Span {
        let w = a.len();
        let f = self.false_lit();
        let mut acc = self.emit(w, |_, _| f);
        for i in 0..b.len() {
            let bi = self.bit(b, i);
            if self.is_false(bi) {
                continue;
            }
            // Partial product: (a << i) & b_i, added into acc.
            let pp = self.emit(w, |bl, k| {
                if k < i {
                    f
                } else {
                    bl.gate_and(sat, bl.bit(a, k - i), bi)
                }
            });
            acc = self.ripple_add(sat, acc, pp, f);
        }
        acc
    }

    /// `a < b` unsigned, as a single literal.
    fn blast_ult(&mut self, sat: &mut SatSolver, a: Span, b: Span) -> Lit {
        let mut lt = self.false_lit();
        for i in 0..a.len() {
            // If bits differ at i (scanning toward MSB), the result so far is b_i.
            let (ai, bi) = (self.bit(a, i), self.bit(b, i));
            let diff = self.gate_xor(sat, ai, bi);
            lt = self.gate_mux(sat, diff, bi, lt);
        }
        lt
    }

    fn blast_eq(&mut self, sat: &mut SatSolver, a: Span, b: Span) -> Lit {
        let mut acc = self.true_lit;
        for i in 0..a.len() {
            let x = self.gate_xor(sat, self.bit(a, i), self.bit(b, i));
            acc = self.gate_and(sat, acc, x.negate());
        }
        acc
    }

    /// Barrel shifter. `fill` supplies bits shifted in; `left` picks direction.
    fn blast_shift(
        &mut self,
        sat: &mut SatSolver,
        a: Span,
        amount: Span,
        left: bool,
        fill: Lit,
    ) -> Span {
        let w = a.len();
        let mut cur = a;
        let stages = (usize::BITS as usize - (w.max(1) - 1).leading_zeros() as usize).max(1);
        for s in 0..amount.len().min(stages) {
            let abit = self.bit(amount, s);
            let dist = 1usize << s;
            let prev = cur;
            cur = self.emit(w, |bl, i| {
                let shifted = if left {
                    if i >= dist { bl.bit(prev, i - dist) } else { fill }
                } else if i + dist < w {
                    bl.bit(prev, i + dist)
                } else {
                    fill
                };
                bl.gate_mux(sat, abit, shifted, bl.bit(prev, i))
            });
        }
        // Any set amount bit beyond the stage range forces a full shift-out.
        let mut overflow = self.false_lit();
        for s in stages..amount.len() {
            overflow = self.gate_or(sat, overflow, self.bit(amount, s));
        }
        // Amounts >= w within the staged range also overflow; detect by
        // comparing amount >= w when w is not a power of two covered above.
        if !self.is_false(overflow) || !w.is_power_of_two() {
            let wbits = self.emit(amount.len(), |bl, i| {
                bl.const_lit(i < usize::BITS as usize && (w >> i) & 1 == 1)
            });
            let lt_w = self.blast_ult(sat, amount, wbits);
            let ge_w = lt_w.negate();
            let ov = self.gate_or(sat, overflow, ge_w);
            let prev = cur;
            cur = self.emit(w, |bl, i| bl.gate_mux(sat, ov, fill, bl.bit(prev, i)));
        }
        cur
    }

    fn blast_udiv_urem(
        &mut self,
        sat: &mut SatSolver,
        pool: &TermPool,
        a: TermId,
        b: TermId,
    ) -> (Span, Span) {
        // Introduce fresh q, r with: b != 0 -> (a == b*q + r at 2w, r < b)
        //                            b == 0 -> (q == ones, r == a)
        let w = pool.width(a);
        let q = pool.fresh_var("udiv_q", w);
        let r = pool.fresh_var("udiv_r", w);
        let a2 = pool.zext(a, 2 * w);
        let b2 = pool.zext(b, 2 * w);
        let q2 = pool.zext(q, 2 * w);
        let r2 = pool.zext(r, 2 * w);
        let prod = pool.mul(b2, q2);
        let sum = pool.add(prod, r2);
        let exact = pool.eq(sum, a2);
        let rem_lt = pool.ult(r, b);
        let zero = pool.const_u128(w, 0);
        let bz = pool.eq(b, zero);
        let ones = pool.constant(BitVec::ones(w));
        let q_ones = pool.eq(q, ones);
        let r_a = pool.eq(r, a);
        let div_ok = pool.and(exact, rem_lt);
        let zero_case = pool.and(q_ones, r_a);
        let side = pool.ite(bz, zero_case, div_ok);
        let side = self.blast(sat, pool, side);
        sat.add_clause(&[self.bit(side, 0)]);
        let ql = self.blast(sat, pool, q);
        let rl = self.blast(sat, pool, r);
        (ql, rl)
    }

    /// Translate a term, returning the span of its literals (LSB first).
    /// Results cached.
    fn blast(&mut self, sat: &mut SatSolver, pool: &TermPool, id: TermId) -> Span {
        if let Some(&c) = self.cache.get(&id) {
            self.stats.cache_hits += 1;
            return c;
        }
        self.stats.cache_misses += 1;
        let out = match *pool.node(id) {
            Node::Const(ref v) => self.emit(v.width(), |bl, i| bl.const_lit(v.bit(i))),
            Node::Var(v) => {
                let width = pool.var_info(v).width;
                let first = sat.new_vars(width).0;
                let bits = self.emit(width, |_, i| Lit::positive(SatVar(first + i as u32)));
                self.var_bits.insert(v, bits);
                bits
            }
            Node::Not(a) => {
                let al = self.blast(sat, pool, a);
                self.negated(al)
            }
            Node::Neg(a) => {
                let al = self.blast(sat, pool, a);
                let inv = self.negated(al);
                let one = self.emit(inv.len(), |bl, i| bl.const_lit(i == 0));
                let f = self.false_lit();
                self.ripple_add(sat, inv, one, f)
            }
            Node::Extract { hi, lo, arg } => {
                let al = self.blast(sat, pool, arg);
                al.sub(lo as usize, (hi - lo) as usize + 1)
            }
            Node::Ite(c, t, e) => {
                let cs = self.blast(sat, pool, c);
                let cl = self.bit(cs, 0);
                let tl = self.blast(sat, pool, t);
                let el = self.blast(sat, pool, e);
                self.emit(tl.len(), |bl, i| bl.gate_mux(sat, cl, bl.bit(tl, i), bl.bit(el, i)))
            }
            Node::Bin(op, a, b) => {
                // UDiv/URem introduce fresh pool variables, handled separately.
                if matches!(op, BinOp::UDiv | BinOp::URem) {
                    let (q, r) = self.blast_udiv_urem(sat, pool, a, b);
                    let out = if op == BinOp::UDiv { q } else { r };
                    self.cache.insert(id, out);
                    return out;
                }
                let al = self.blast(sat, pool, a);
                let bl = self.blast(sat, pool, b);
                match op {
                    BinOp::Add => {
                        let f = self.false_lit();
                        self.ripple_add(sat, al, bl, f)
                    }
                    BinOp::Sub => {
                        let binv = self.negated(bl);
                        let t = self.true_lit;
                        self.ripple_add(sat, al, binv, t)
                    }
                    BinOp::Mul => self.blast_mul(sat, al, bl),
                    BinOp::And => {
                        self.emit(al.len(), |s, i| s.gate_and(sat, s.bit(al, i), s.bit(bl, i)))
                    }
                    BinOp::Or => {
                        self.emit(al.len(), |s, i| s.gate_or(sat, s.bit(al, i), s.bit(bl, i)))
                    }
                    BinOp::Xor => {
                        self.emit(al.len(), |s, i| s.gate_xor(sat, s.bit(al, i), s.bit(bl, i)))
                    }
                    BinOp::Shl => {
                        let f = self.false_lit();
                        self.blast_shift(sat, al, bl, true, f)
                    }
                    BinOp::LShr => {
                        let f = self.false_lit();
                        self.blast_shift(sat, al, bl, false, f)
                    }
                    BinOp::AShr => {
                        let sign = self.bit(al, al.len() - 1);
                        self.blast_shift(sat, al, bl, false, sign)
                    }
                    BinOp::Concat => {
                        // `a` is the high part: result = bl ++ al (LSB first).
                        let lo = bl.len();
                        self.emit(lo + al.len(), |s, i| {
                            if i < lo {
                                s.bit(bl, i)
                            } else {
                                s.bit(al, i - lo)
                            }
                        })
                    }
                    BinOp::Eq => {
                        let l = self.blast_eq(sat, al, bl);
                        self.emit_one(l)
                    }
                    BinOp::Ult => {
                        let l = self.blast_ult(sat, al, bl);
                        self.emit_one(l)
                    }
                    BinOp::Ule => {
                        let gt = self.blast_ult(sat, bl, al);
                        self.emit_one(gt.negate())
                    }
                    BinOp::Slt => {
                        let (af, bf) = (self.flip_msb(al), self.flip_msb(bl));
                        let l = self.blast_ult(sat, af, bf);
                        self.emit_one(l)
                    }
                    BinOp::Sle => {
                        let (af, bf) = (self.flip_msb(al), self.flip_msb(bl));
                        let gt = self.blast_ult(sat, bf, af);
                        self.emit_one(gt.negate())
                    }
                    BinOp::UDiv | BinOp::URem => unreachable!(),
                }
            }
        };
        debug_assert_eq!(out.len(), pool.width(id), "blasted width mismatch");
        self.cache.insert(id, out);
        out
    }

    fn negated(&mut self, a: Span) -> Span {
        self.emit(a.len(), |bl, i| bl.bit(a, i).negate())
    }

    fn flip_msb(&mut self, a: Span) -> Span {
        let msb = a.len() - 1;
        self.emit(a.len(), |bl, i| if i == msb { bl.bit(a, i).negate() } else { bl.bit(a, i) })
    }

    // ---- binding top-level assertions ------------------------------------

    /// Assert the 1-bit term `t` for good: binding instead of encoding where
    /// the assertion allows it. Sound only on an instance that never
    /// retracts an assertion (a bound variable *is* its asserted value),
    /// which every instance [`crate::solver::Solver`] builds is. Returns
    /// `false` once the instance is unsatisfiable at level 0.
    ///
    /// A conjunction asserts both sides; `¬a` binds `a` to false; `a == b`
    /// blasts the side that cannot be bound and binds the other to its
    /// literals; any other term is bound to true.
    pub fn assert_fresh(&mut self, sat: &mut SatSolver, pool: &TermPool, t: TermId) -> bool {
        assert_eq!(pool.width(t), 1, "assertions must be 1-bit terms");
        match *pool.node(t) {
            Node::Bin(BinOp::And, a, b) => {
                self.assert_fresh(sat, pool, a) && self.assert_fresh(sat, pool, b)
            }
            Node::Bin(BinOp::Eq, a, b) => {
                let (free, other) = if self.bindable(pool, b) { (b, a) } else { (a, b) };
                let lits = self.blast(sat, pool, other);
                self.bind(sat, pool, free, lits)
            }
            Node::Not(a) => self.bind(sat, pool, a, FALSE_SPAN),
            _ => self.bind(sat, pool, t, TRUE_SPAN),
        }
    }

    /// The pool variable behind `x` if `x` is a variable not encoded yet.
    fn unencoded_var(&self, pool: &TermPool, x: TermId) -> Option<VarId> {
        match *pool.node(x) {
            Node::Var(v) if !self.var_bits.contains_key(&v) => Some(v),
            _ => None,
        }
    }

    /// Whether [`Blaster::bind`] would name literals for (part of) `x`
    /// rather than encode it.
    fn bindable(&self, pool: &TermPool, x: TermId) -> bool {
        match *pool.node(x) {
            Node::Var(_) => self.unencoded_var(pool, x).is_some(),
            Node::Extract { arg, .. } => self.unencoded_var(pool, arg).is_some(),
            Node::Bin(BinOp::Concat, hi, lo) => self.bindable(pool, hi) || self.bindable(pool, lo),
            _ => false,
        }
    }

    /// Constrain `x` to equal `lits` (LSB first). An unencoded variable takes
    /// the literals as its bits; a concatenation splits them across its
    /// parts; an extract of an unencoded variable creates that variable's
    /// bits from the slice plus fresh variables elsewhere. Whatever is left
    /// — including a variable that got encoded while `lits` were blasted,
    /// so `x == x + 1` stays unsatisfiable — is blasted and equated bit by
    /// bit.
    fn bind(&mut self, sat: &mut SatSolver, pool: &TermPool, x: TermId, lits: Span) -> bool {
        debug_assert_eq!(pool.width(x), lits.len(), "bound width mismatch");
        match *pool.node(x) {
            Node::Var(v) if !self.var_bits.contains_key(&v) => {
                self.var_bits.insert(v, lits);
                self.cache.insert(x, lits);
                true
            }
            Node::Bin(BinOp::Concat, hi, lo) => {
                let w = pool.width(lo);
                self.bind(sat, pool, lo, lits.sub(0, w))
                    && self.bind(sat, pool, hi, lits.sub(w, lits.len() - w))
            }
            Node::Extract { hi, lo, arg } if self.unencoded_var(pool, arg).is_some() => {
                let Node::Var(v) = *pool.node(arg) else { unreachable!() };
                let (lo, hi) = (lo as usize, hi as usize);
                let width = pool.var_info(v).width;
                // The bits outside the slice, numbered from the LSB up.
                let first = sat.new_vars(width - lits.len()).0 as usize;
                let bits = self.emit(width, |bl, i| match i {
                    _ if i < lo => Lit::positive(SatVar((first + i) as u32)),
                    _ if i <= hi => bl.bit(lits, i - lo),
                    _ => Lit::positive(SatVar((first + i - lits.len()) as u32)),
                });
                self.var_bits.insert(v, bits);
                self.cache.insert(arg, bits);
                true
            }
            _ => {
                let xl = self.blast(sat, pool, x);
                self.equate(sat, xl, lits)
            }
        }
    }

    /// Per-bit equivalence clauses; a unit where one side is a constant.
    fn equate(&mut self, sat: &mut SatSolver, a: Span, b: Span) -> bool {
        for i in 0..a.len() {
            let (x, y) = (self.bit(a, i), self.bit(b, i));
            let ok = if x == y {
                true
            } else if x.var() == self.true_lit.var() {
                sat.add_clause(&[if self.is_true(x) { y } else { y.negate() }])
            } else if y.var() == self.true_lit.var() {
                sat.add_clause(&[if self.is_true(y) { x } else { x.negate() }])
            } else {
                sat.add_clause(&[x.negate(), y]) && sat.add_clause(&[x, y.negate()])
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
impl Blaster {
    /// Assert that `self` and `other` are in the same state (see
    /// [`SatSolver::assert_same_state`]).
    pub(crate) fn assert_same_state(&self, other: &Blaster) {
        let Blaster { lits, cache, var_bits, true_lit, stats } = self;
        assert_eq!(lits, &other.lits);
        assert_eq!(cache, &other.cache);
        assert_eq!(var_bits, &other.var_bits);
        assert_eq!(true_lit, &other.true_lit);
        assert_eq!(stats, &other.stats);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatResult;

    /// Assert `t` and solve; on Sat, return the model as an Assignment.
    fn solve_term(pool: &TermPool, t: TermId) -> Option<crate::eval::Assignment> {
        let mut sat = SatSolver::new();
        let mut bl = Blaster::new(&mut sat);
        let span = bl.blast(&mut sat, pool, t);
        sat.add_clause(&[bl.lits(span)[0]]);
        if sat.solve() == SatResult::Unsat {
            return None;
        }
        let mut asg = crate::eval::Assignment::new();
        for vi in 0..pool.num_vars() {
            let v = VarId(vi as u32);
            asg.set(v, bl.model_value(&sat, pool, v));
        }
        Some(asg)
    }

    /// Assert every term through the binding path and solve; on Sat,
    /// return the model of every pool variable.
    fn solve_bound(
        pool: &TermPool,
        terms: &[TermId],
    ) -> (Blaster, Option<crate::eval::Assignment>) {
        let mut sat = SatSolver::new();
        let mut bl = Blaster::new(&mut sat);
        let ok = terms.iter().all(|&t| bl.assert_fresh(&mut sat, pool, t));
        if !ok || sat.solve() == SatResult::Unsat {
            return (bl, None);
        }
        let mut asg = crate::eval::Assignment::new();
        for vi in 0..pool.num_vars() {
            let v = VarId(vi as u32);
            asg.set(v, bl.model_value(&sat, pool, v));
        }
        for &t in terms {
            assert!(crate::eval::eval(pool, &asg, t).is_true(), "{} is false", pool.display(t));
        }
        (bl, Some(asg))
    }

    fn var_id(pool: &TermPool, t: TermId) -> VarId {
        match *pool.node(t) {
            Node::Var(v) => v,
            _ => panic!("not a variable"),
        }
    }

    fn value(asg: &crate::eval::Assignment, pool: &TermPool, t: TermId) -> Option<u64> {
        asg.get(var_id(pool, t)).and_then(|v| v.to_u64())
    }

    #[test]
    fn occurs_check_keeps_self_reference_unsat() {
        // Blasting one side encodes the variable the other side would bind;
        // binding it anyway would drop the constraint.
        let p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let one = p.const_u128(8, 1);
        let succ = p.add(x, one);
        assert!(solve_bound(&p, &[p.eq(x, succ)]).1.is_none());
        assert!(solve_bound(&p, &[p.eq(succ, x)]).1.is_none());
        let low = p.extract(3, 0, x);
        let low_succ = p.add(low, p.const_u128(4, 1));
        assert!(solve_bound(&p, &[p.eq(low, low_succ)]).1.is_none());
        assert!(solve_bound(&p, &[p.eq(low_succ, low)]).1.is_none());
    }

    #[test]
    fn var_chains_alias_one_encoding() {
        let p = TermPool::new();
        let (x, y, z) = (p.fresh_var("x", 8), p.fresh_var("y", 8), p.fresh_var("z", 8));
        let (c3, c4) = (p.const_u128(8, 3), p.const_u128(8, 4));
        let chain = [p.eq(x, y), p.eq(y, z)];
        let (bl, asg) = solve_bound(&p, &[chain[0], chain[1], p.eq(z, c3)]);
        let asg = asg.expect("sat");
        for v in [x, y, z] {
            assert_eq!(value(&asg, &p, v), Some(3));
        }
        // y and z name x's literals: one set of bits for the whole chain.
        let bits = |v| bl.lits(bl.var_bits[&var_id(&p, v)]).to_vec();
        assert_eq!(bits(x), bits(y));
        assert_eq!(bits(y), bits(z));
        let split = [chain[0], chain[1], p.eq(x, c3), p.eq(z, c4)];
        assert!(solve_bound(&p, &split).1.is_none());
    }

    #[test]
    fn bound_negations_read_back_through_polarity() {
        let p = TermPool::new();
        let (b, c) = (p.fresh_var("b", 1), p.fresh_var("c", 1));
        let (x, y) = (p.fresh_var("x", 8), p.fresh_var("y", 8));
        let terms = [p.not(b), c, p.eq(x, p.not(y)), p.eq(y, p.const_u128(8, 0x5A))];
        let (bl, asg) = solve_bound(&p, &terms);
        let asg = asg.expect("sat");
        assert_eq!(value(&asg, &p, b), Some(0));
        assert_eq!(value(&asg, &p, c), Some(1));
        assert_eq!(value(&asg, &p, x), Some(0xA5));
        assert!(bl.lits(bl.var_bits[&var_id(&p, x)]).iter().all(|l| !l.is_positive()));
        // A bound 1-bit variable is a constant: asserting it again conflicts.
        assert!(solve_bound(&p, &[p.not(b), b]).1.is_none());
    }

    #[test]
    fn concat_with_a_bound_part_binds_the_rest() {
        let p = TermPool::new();
        let (hi, lo) = (p.fresh_var("hi", 8), p.fresh_var("lo", 8));
        let lo3 = p.eq(lo, p.const_u128(8, 3));
        let cat = p.concat(hi, lo);
        let (_, asg) = solve_bound(&p, &[lo3, p.eq(cat, p.const_u128(16, 0xAB03))]);
        let asg = asg.expect("sat");
        assert_eq!(value(&asg, &p, hi), Some(0xAB));
        assert_eq!(value(&asg, &p, lo), Some(3));
        assert!(solve_bound(&p, &[lo3, p.eq(cat, p.const_u128(16, 0xAB04))]).1.is_none());
        // The bound side may be on the left, against a non-constant right.
        let w = p.fresh_var("w", 16);
        let wx = p.xor(w, p.const_u128(16, 0xFF00));
        let (_, asg) = solve_bound(&p, &[lo3, p.eq(cat, wx), p.eq(w, p.const_u128(16, 0x1203))]);
        assert_eq!(value(&asg.expect("sat"), &p, hi), Some(0xED));
    }

    #[test]
    fn extract_bound_variable_reads_back_whole() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 16);
        let mid = p.eq(p.extract(11, 4, x), p.const_u128(8, 0xCD));
        let (bl, asg) = solve_bound(&p, &[mid]);
        assert_eq!(value(&asg.expect("sat"), &p, x), Some(0x0CD0));
        assert_eq!(bl.var_bits[&var_id(&p, x)].len(), 16);
        // A later slice of the now-encoded variable is equated, not bound.
        let low = p.eq(p.extract(3, 0, x), p.const_u128(4, 5));
        let (_, asg) = solve_bound(&p, &[mid, low]);
        assert_eq!(value(&asg.expect("sat"), &p, x), Some(0x0CD5));
        let clash = p.eq(p.extract(7, 4, x), p.const_u128(4, 0xE));
        assert!(solve_bound(&p, &[mid, clash]).1.is_none());
    }

    #[test]
    fn solve_addition_equation() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let c3 = p.const_u128(8, 3);
        let c100 = p.const_u128(8, 100);
        let s = p.add(x, c3);
        let eq = p.eq(s, c100);
        let asg = solve_term(&p, eq).expect("sat");
        assert!(crate::eval::eval(&p, &asg, eq).is_true());
    }

    #[test]
    fn unsat_contradiction() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let c1 = p.const_u128(8, 1);
        let c2 = p.const_u128(8, 2);
        let e1 = p.eq(x, c1);
        let e2 = p.eq(x, c2);
        let both = p.and(e1, e2);
        assert!(solve_term(&p, both).is_none());
    }

    #[test]
    fn solve_multiplication() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let c6 = p.const_u128(8, 6);
        let c42 = p.const_u128(8, 42);
        let m = p.mul(x, c6);
        let eq = p.eq(m, c42);
        let asg = solve_term(&p, eq).expect("sat");
        assert!(crate::eval::eval(&p, &asg, eq).is_true());
    }

    #[test]
    fn solve_wide_value() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 100);
        let big = p.constant(BitVec::from_u128(100, 0xDEAD_BEEF_0000_1111_2222u128));
        let one = p.const_u128(100, 1);
        let s = p.add(x, one);
        let eq = p.eq(s, big);
        let asg = solve_term(&p, eq).expect("sat");
        assert!(crate::eval::eval(&p, &asg, eq).is_true());
    }

    #[test]
    fn solve_ult_boundary() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 4);
        let c1 = p.const_u128(4, 1);
        let lt = p.ult(x, c1);
        let asg = solve_term(&p, lt).expect("sat");
        assert!(crate::eval::eval(&p, &asg, x).is_zero());
    }

    #[test]
    fn solve_shift_symbolic_amount() {
        let p = TermPool::new();
        let amt = p.fresh_var("amt", 8);
        let one = p.const_u128(8, 1);
        let c16 = p.const_u128(8, 16);
        let sh = p.bin(BinOp::Shl, one, amt);
        let eq = p.eq(sh, c16);
        let asg = solve_term(&p, eq).expect("sat");
        assert!(crate::eval::eval(&p, &asg, eq).is_true());
        // The only solution is amt == 4.
        let av = asg.iter().find(|(v, _)| p.var_info(**v).name == "amt").unwrap().1;
        assert_eq!(av.to_u64(), Some(4));
    }

    #[test]
    fn shift_out_of_range_is_zero() {
        let p = TermPool::new();
        let amt = p.fresh_var("amt", 8);
        let c1 = p.const_u128(8, 1);
        let c9 = p.const_u128(8, 9);
        let ge = p.ule(c9, amt); // amt >= 9 > width 8
        let sh = p.bin(BinOp::Shl, c1, amt);
        let zero = p.const_u128(8, 0);
        let nz = p.neq(sh, zero);
        let both = p.and(ge, nz);
        assert!(solve_term(&p, both).is_none(), "shl by >= width must be 0");
    }

    #[test]
    fn solve_udiv() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let c7 = p.const_u128(8, 7);
        let c5 = p.const_u128(8, 5);
        let d = p.bin(BinOp::UDiv, x, c7);
        let eq = p.eq(d, c5); // x / 7 == 5  =>  x in [35, 41]
        let asg = solve_term(&p, eq).expect("sat");
        let xv = asg.iter().find(|(v, _)| p.var_info(**v).name == "x").unwrap().1;
        let xn = xv.to_u64().unwrap();
        assert!((35..=41).contains(&xn), "x = {xn}");
    }

    #[test]
    fn concat_extract_round_trip() {
        let p = TermPool::new();
        let hi = p.fresh_var("hi", 8);
        let lo = p.fresh_var("lo", 8);
        let cat = p.concat(hi, lo);
        let cafe = p.const_u128(16, 0xCAFE);
        let eq = p.eq(cat, cafe);
        let asg = solve_term(&p, eq).expect("sat");
        let hv = asg.iter().find(|(v, _)| p.var_info(**v).name == "hi").unwrap().1;
        let lv = asg.iter().find(|(v, _)| p.var_info(**v).name == "lo").unwrap().1;
        assert_eq!(hv.to_u64(), Some(0xCA));
        assert_eq!(lv.to_u64(), Some(0xFE));
    }

    #[test]
    fn signed_comparison() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let zero = p.const_u128(8, 0);
        let slt = p.bin(BinOp::Slt, x, zero);
        let asg = solve_term(&p, slt).expect("sat");
        let xv = asg.iter().find(|(v, _)| p.var_info(**v).name == "x").unwrap().1;
        assert!(xv.bit(7), "x must be negative (MSB set)");
    }
}
