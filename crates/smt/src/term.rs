//! Hash-consed bitvector term language.
//!
//! Terms form a DAG interned in a [`TermPool`]: structurally identical terms
//! share one [`TermId`]. Booleans are 1-bit bitvectors, so the whole language
//! is `QF_BV`. Constructors perform constant folding and a small set of
//! algebraic simplifications — notably the ones the paper relies on for taint
//! mitigation (e.g. `x * 0 == 0` so a tainted multiplicand is neutralized).

use crate::arena::Arena;
use crate::bitvec::BitVec;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Index of an interned term in a [`TermPool`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub(crate) u32);

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Index of a symbolic variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub(crate) u32);

impl VarId {
    /// Raw index, usable as a dense table key.
    pub fn index(&self) -> usize {
        self.0 as usize
    }
}

/// Binary operations. All operands must have equal width except `Concat`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    UDiv,
    URem,
    And,
    Or,
    Xor,
    /// Shift amount is the right operand (same width as left).
    Shl,
    LShr,
    AShr,
    /// Left operand supplies the high bits.
    Concat,
    /// Comparisons produce a 1-bit result.
    Eq,
    Ult,
    Ule,
    Slt,
    Sle,
}

impl BinOp {
    /// Whether the result of this operation is a 1-bit boolean.
    pub fn is_predicate(self) -> bool {
        matches!(self, BinOp::Eq | BinOp::Ult | BinOp::Ule | BinOp::Slt | BinOp::Sle)
    }
}

/// A term node. Obtain instances through [`TermPool`] constructors only.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Node {
    Const(BitVec),
    Var(VarId),
    Not(TermId),
    Neg(TermId),
    Bin(BinOp, TermId, TermId),
    Extract { hi: u32, lo: u32, arg: TermId },
    /// `cond` must be 1-bit; branches must have equal width.
    Ite(TermId, TermId, TermId),
}

/// Metadata about a symbolic variable.
#[derive(Clone, Debug)]
pub struct VarInfo {
    pub name: String,
    pub width: usize,
}

/// One interned term: node plus cached width, stored as a unit so the two
/// can never go out of sync under concurrent appends.
struct TermData {
    node: Node,
    width: u32,
}

/// Number of consing-map shards. Shards cut writer contention roughly
/// `SHARDS`-fold; a power of two keeps shard selection a mask.
const DEDUP_SHARDS: usize = 16;

/// Arena and interner for terms.
///
/// Safe to share across threads (`&TermPool` is all any worker needs):
/// term/variable storage is an append-only [`Arena`] with lock-free reads,
/// and deduplication goes through consing maps sharded by node hash, so
/// concurrent interning of unrelated terms rarely contends. Structurally
/// identical terms receive the same [`TermId`] regardless of which thread
/// interns first — the shard lock is held across the arena append, so one
/// of two racing threads inserts and the other observes that entry.
pub struct TermPool {
    terms: Arena<TermData>,
    vars: Arena<VarInfo>,
    dedup: [Mutex<HashMap<Node, TermId>>; DEDUP_SHARDS],
    /// Times an `intern` found its consing shard already locked by another
    /// thread. A contention *sample*, not a cycle count — but enough to tell
    /// whether 16 shards still suffice as worker counts grow.
    contended_interns: std::sync::atomic::AtomicU64,
}

/// Scratch for collecting the variables under many roots in one walk. Each
/// term id carries the epoch of the walk that last visited it, so a walk
/// costs the terms it visits rather than the pool's size; keep one per
/// worker and reuse it.
#[derive(Default)]
pub struct VarWalk {
    /// Indexed by term id: the epoch that visited the term.
    marks: Vec<u32>,
    epoch: u32,
    stack: Vec<TermId>,
}

impl VarWalk {
    /// The variables appearing under any of `roots`, sorted and distinct.
    pub fn vars(&mut self, pool: &TermPool, roots: impl IntoIterator<Item = TermId>) -> Vec<VarId> {
        let mut out = Vec::new();
        self.vars_into(pool, roots, &mut out);
        out
    }

    /// [`VarWalk::vars`] into `out`, replacing its contents and reusing its
    /// storage.
    pub fn vars_into(
        &mut self,
        pool: &TermPool,
        roots: impl IntoIterator<Item = TermId>,
        out: &mut Vec<VarId>,
    ) {
        out.clear();
        if self.marks.len() < pool.len() {
            self.marks.resize(pool.len(), 0);
        }
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.marks.fill(0);
                1
            }
        };
        self.stack.extend(roots);
        while let Some(t) = self.stack.pop() {
            let mark = &mut self.marks[t.0 as usize];
            if *mark == self.epoch {
                continue;
            }
            *mark = self.epoch;
            match pool.node(t) {
                Node::Const(_) => {}
                Node::Var(v) => out.push(*v),
                Node::Not(a) | Node::Neg(a) | Node::Extract { arg: a, .. } => self.stack.push(*a),
                Node::Bin(_, a, b) => {
                    self.stack.push(*a);
                    self.stack.push(*b);
                }
                Node::Ite(c, a, b) => {
                    self.stack.push(*c);
                    self.stack.push(*a);
                    self.stack.push(*b);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

impl Default for TermPool {
    fn default() -> Self {
        Self::new()
    }
}

impl TermPool {
    pub fn new() -> Self {
        TermPool {
            terms: Arena::new(),
            vars: Arena::new(),
            dedup: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            contended_interns: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn intern(&self, node: Node, width: usize) -> TermId {
        // Shard by the node's own (deterministic) hash; the per-shard
        // HashMap re-hashes internally, which is cheap next to allocation.
        let mut h = DefaultHasher::new();
        node.hash(&mut h);
        let slot = &self.dedup[h.finish() as usize & (DEDUP_SHARDS - 1)];
        // try_lock-then-lock: the uncontended path costs the same as a plain
        // lock; only an actually-held shard pays the extra atomic increment.
        let mut shard = match slot.try_lock() {
            Some(guard) => guard,
            None => {
                self.contended_interns.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                slot.lock()
            }
        };
        if let Some(&id) = shard.get(&node) {
            return id;
        }
        let idx = self.terms.push(TermData { node: node.clone(), width: width as u32 });
        assert!(idx <= u32::MAX as usize, "term pool overflow");
        let id = TermId(idx as u32);
        shard.insert(node, id);
        id
    }

    /// Node backing a term.
    pub fn node(&self, id: TermId) -> &Node {
        &self.terms.get(id.0 as usize).node
    }

    /// Bit width of a term.
    pub fn width(&self, id: TermId) -> usize {
        self.terms.get(id.0 as usize).width as usize
    }

    /// Number of interned terms.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Variable metadata.
    pub fn var_info(&self, v: VarId) -> &VarInfo {
        self.vars.get(v.0 as usize)
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Times an interning thread found its consing shard locked by another
    /// thread (see the field docs; exported as
    /// `p4testgen_pool_intern_contention_total`).
    pub fn intern_contention(&self) -> u64 {
        self.contended_interns.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Declare a fresh symbolic variable and return a term referring to it.
    pub fn fresh_var(&self, name: impl Into<String>, width: usize) -> TermId {
        let vidx = self.vars.push(VarInfo { name: name.into(), width });
        let v = VarId(vidx as u32);
        // A Var node is unique per VarId, so interning cannot merge two vars.
        self.intern(Node::Var(v), width)
    }

    /// Constant term.
    pub fn constant(&self, value: BitVec) -> TermId {
        let w = value.width();
        self.intern(Node::Const(value), w)
    }

    /// Constant from a `u128`.
    pub fn const_u128(&self, width: usize, value: u128) -> TermId {
        self.constant(BitVec::from_u128(width, value))
    }

    /// The 1-bit constant 1.
    pub fn mk_true(&self) -> TermId {
        self.const_u128(1, 1)
    }

    /// The 1-bit constant 0.
    pub fn mk_false(&self) -> TermId {
        self.const_u128(1, 0)
    }

    /// If the term is a constant, its value.
    pub fn as_const(&self, id: TermId) -> Option<&BitVec> {
        match self.node(id) {
            Node::Const(v) => Some(v),
            _ => None,
        }
    }

    /// True if the term is the 1-bit constant 1.
    pub fn is_const_true(&self, id: TermId) -> bool {
        self.as_const(id).is_some_and(|v| v.is_true())
    }

    /// True if the term is the 1-bit constant 0.
    pub fn is_const_false(&self, id: TermId) -> bool {
        self.as_const(id).is_some_and(|v| v.width() == 1 && v.is_zero())
    }

    /// Bitwise NOT (for 1-bit terms this is boolean negation).
    pub fn not(&self, a: TermId) -> TermId {
        if let Some(v) = self.as_const(a) {
            return self.constant(v.not());
        }
        // Involution: not(not(x)) = x.
        if let Node::Not(inner) = *self.node(a) {
            return inner;
        }
        let w = self.width(a);
        self.intern(Node::Not(a), w)
    }

    /// Two's-complement negation.
    pub fn neg(&self, a: TermId) -> TermId {
        if let Some(v) = self.as_const(a) {
            return self.constant(v.negate());
        }
        let w = self.width(a);
        self.intern(Node::Neg(a), w)
    }

    /// General binary constructor with folding and simplification.
    pub fn bin(&self, op: BinOp, a: TermId, b: TermId) -> TermId {
        use BinOp::*;
        if op != Concat {
            assert_eq!(
                self.width(a),
                self.width(b),
                "operand width mismatch in {op:?}: {:?}({}) vs {:?}({})",
                a,
                self.width(a),
                b,
                self.width(b)
            );
        }
        // Constant folding.
        if let (Some(va), Some(vb)) = (self.as_const(a), self.as_const(b)) {
            let (va, vb) = (va.clone(), vb.clone());
            let folded = match op {
                Add => va.add(&vb),
                Sub => va.sub(&vb),
                Mul => va.mul(&vb),
                UDiv => va.udiv(&vb),
                URem => va.urem(&vb),
                And => va.and(&vb),
                Or => va.or(&vb),
                Xor => va.xor(&vb),
                Shl => va.shl(&vb),
                LShr => va.lshr(&vb),
                AShr => va.ashr(&vb),
                Concat => va.concat(&vb),
                Eq => BitVec::from_bool(va == vb),
                Ult => BitVec::from_bool(va.ult(&vb)),
                Ule => BitVec::from_bool(va.ule(&vb)),
                Slt => BitVec::from_bool(va.slt(&vb)),
                Sle => BitVec::from_bool(va.sle(&vb)),
            };
            return self.constant(folded);
        }
        let w = self.width(a);
        // Algebraic simplifications (includes the taint-mitigation rules).
        match op {
            Add | Sub | Xor | Or | Shl | LShr | AShr => {
                if self.is_zero_const(b) {
                    return a;
                }
                if (op == Add || op == Xor || op == Or) && self.is_zero_const(a) {
                    return b;
                }
            }
            Mul => {
                if self.is_zero_const(a) {
                    return a;
                }
                if self.is_zero_const(b) {
                    return b;
                }
                if self.is_one_const(a) {
                    return b;
                }
                if self.is_one_const(b) {
                    return a;
                }
            }
            And => {
                if self.is_zero_const(a) {
                    return a;
                }
                if self.is_zero_const(b) {
                    return b;
                }
                if self.is_ones_const(a) {
                    return b;
                }
                if self.is_ones_const(b) {
                    return a;
                }
                if a == b {
                    return a;
                }
            }
            Eq => {
                if a == b {
                    return self.mk_true();
                }
                // For 1-bit equality against a constant, fold to identity/not.
                if w == 1 {
                    if self.is_const_true(b) {
                        return a;
                    }
                    if self.is_const_true(a) {
                        return b;
                    }
                    if self.is_const_false(b) {
                        return self.not(a);
                    }
                    if self.is_const_false(a) {
                        return self.not(b);
                    }
                }
            }
            Ult => {
                if a == b {
                    return self.mk_false();
                }
                if self.is_zero_const(b) {
                    return self.mk_false();
                }
            }
            Ule | Sle
                if a == b => {
                    return self.mk_true();
                }
            Slt
                if a == b => {
                    return self.mk_false();
                }
            Concat => {
                if self.width(a) == 0 {
                    return b;
                }
                if self.width(b) == 0 {
                    return a;
                }
            }
            _ => {}
        }
        // Or with identical operands, xor with self.
        if a == b {
            match op {
                Or => return a,
                Xor | Sub => return self.constant(BitVec::zeros(w)),
                _ => {}
            }
        }
        let result_w = match op {
            Concat => self.width(a) + self.width(b),
            _ if op.is_predicate() => 1,
            _ => w,
        };
        self.intern(Node::Bin(op, a, b), result_w)
    }

    fn is_zero_const(&self, id: TermId) -> bool {
        self.as_const(id).is_some_and(|v| v.is_zero())
    }

    fn is_one_const(&self, id: TermId) -> bool {
        self.as_const(id).is_some_and(|v| v.to_u64() == Some(1))
    }

    fn is_ones_const(&self, id: TermId) -> bool {
        self.as_const(id).is_some_and(|v| *v == BitVec::ones(v.width()))
    }

    /// Extract bits `[lo, hi]` inclusive.
    pub fn extract(&self, hi: usize, lo: usize, arg: TermId) -> TermId {
        let aw = self.width(arg);
        assert!(hi >= lo && hi < aw, "extract [{hi}:{lo}] of width {aw}");
        if lo == 0 && hi + 1 == aw {
            return arg;
        }
        if let Some(v) = self.as_const(arg) {
            let v = v.extract(hi, lo);
            return self.constant(v);
        }
        // extract over concat: descend into the side that fully contains the slice.
        if let Node::Bin(BinOp::Concat, a, b) = *self.node(arg) {
            let bw = self.width(b);
            if hi < bw {
                return self.extract(hi, lo, b);
            }
            if lo >= bw {
                return self.extract(hi - bw, lo - bw, a);
            }
        }
        // extract over extract: compose offsets.
        if let Node::Extract { lo: ilo, arg: inner, .. } = *self.node(arg) {
            return self.extract(hi + ilo as usize, lo + ilo as usize, inner);
        }
        self.intern(Node::Extract { hi: hi as u32, lo: lo as u32, arg }, hi - lo + 1)
    }

    /// If-then-else; `cond` must be 1-bit.
    pub fn ite(&self, cond: TermId, then_t: TermId, else_t: TermId) -> TermId {
        assert_eq!(self.width(cond), 1, "ite condition must be 1-bit");
        assert_eq!(self.width(then_t), self.width(else_t), "ite branch width mismatch");
        if self.is_const_true(cond) {
            return then_t;
        }
        if self.is_const_false(cond) {
            return else_t;
        }
        if then_t == else_t {
            return then_t;
        }
        // 1-bit ite with constant branches is just cond or !cond.
        if self.width(then_t) == 1 && self.is_const_true(then_t) && self.is_const_false(else_t) {
            return cond;
        }
        if self.width(then_t) == 1 && self.is_const_false(then_t) && self.is_const_true(else_t) {
            return self.not(cond);
        }
        let w = self.width(then_t);
        self.intern(Node::Ite(cond, then_t, else_t), w)
    }

    // ---- convenience wrappers -------------------------------------------

    pub fn add(&self, a: TermId, b: TermId) -> TermId {
        self.bin(BinOp::Add, a, b)
    }
    pub fn sub(&self, a: TermId, b: TermId) -> TermId {
        self.bin(BinOp::Sub, a, b)
    }
    pub fn mul(&self, a: TermId, b: TermId) -> TermId {
        self.bin(BinOp::Mul, a, b)
    }
    pub fn and(&self, a: TermId, b: TermId) -> TermId {
        self.bin(BinOp::And, a, b)
    }
    pub fn or(&self, a: TermId, b: TermId) -> TermId {
        self.bin(BinOp::Or, a, b)
    }
    pub fn xor(&self, a: TermId, b: TermId) -> TermId {
        self.bin(BinOp::Xor, a, b)
    }
    pub fn eq(&self, a: TermId, b: TermId) -> TermId {
        self.bin(BinOp::Eq, a, b)
    }
    pub fn neq(&self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }
    pub fn ult(&self, a: TermId, b: TermId) -> TermId {
        self.bin(BinOp::Ult, a, b)
    }
    pub fn ule(&self, a: TermId, b: TermId) -> TermId {
        self.bin(BinOp::Ule, a, b)
    }
    pub fn concat(&self, hi: TermId, lo: TermId) -> TermId {
        self.bin(BinOp::Concat, hi, lo)
    }

    /// Concatenate a list of terms, first element highest.
    pub fn concat_all(&self, parts: &[TermId]) -> TermId {
        let mut it = parts.iter();
        let first = *it.next().expect("concat_all of empty list");
        it.fold(first, |acc, &p| self.concat(acc, p))
    }

    /// Zero-extend to `width`.
    pub fn zext(&self, a: TermId, width: usize) -> TermId {
        let aw = self.width(a);
        assert!(width >= aw);
        if width == aw {
            return a;
        }
        let zeros = self.constant(BitVec::zeros(width - aw));
        self.concat(zeros, a)
    }

    /// Sign-extend to `width`.
    pub fn sext(&self, a: TermId, width: usize) -> TermId {
        let aw = self.width(a);
        assert!(width >= aw && aw > 0);
        if width == aw {
            return a;
        }
        let sign = self.extract(aw - 1, aw - 1, a);
        let mut ext = sign;
        while self.width(ext) < width - aw {
            let have = self.width(ext);
            let take = (width - aw - have).min(have);
            let part = self.extract(take - 1, 0, ext);
            ext = self.concat(ext, part);
        }
        self.concat(ext, a)
    }

    /// P4-style cast: truncate or zero-extend to `width`.
    pub fn cast(&self, a: TermId, width: usize) -> TermId {
        let aw = self.width(a);
        if width == aw {
            a
        } else if width < aw {
            self.extract(width - 1, 0, a)
        } else {
            self.zext(a, width)
        }
    }

    /// Boolean AND over a list (empty list is `true`).
    pub fn and_all(&self, parts: &[TermId]) -> TermId {
        let mut acc = self.mk_true();
        for &p in parts {
            acc = self.and(acc, p);
        }
        acc
    }

    /// Collect the set of variables appearing in a term, sorted.
    pub fn vars_of(&self, root: TermId) -> Vec<VarId> {
        VarWalk::default().vars(self, [root])
    }

    /// Render a term as an s-expression (for debugging and trace output).
    pub fn display(&self, id: TermId) -> String {
        let mut s = String::new();
        self.display_into(id, &mut s, 0);
        s
    }

    fn display_into(&self, id: TermId, out: &mut String, depth: usize) {
        use std::fmt::Write;
        if depth > 24 {
            out.push_str("...");
            return;
        }
        match self.node(id) {
            Node::Const(v) => {
                let _ = write!(out, "{v}");
            }
            Node::Var(v) => out.push_str(&self.var_info(*v).name),
            Node::Not(a) => {
                out.push_str("(not ");
                self.display_into(*a, out, depth + 1);
                out.push(')');
            }
            Node::Neg(a) => {
                out.push_str("(neg ");
                self.display_into(*a, out, depth + 1);
                out.push(')');
            }
            Node::Bin(op, a, b) => {
                let _ = write!(out, "({op:?} ");
                self.display_into(*a, out, depth + 1);
                out.push(' ');
                self.display_into(*b, out, depth + 1);
                out.push(')');
            }
            Node::Extract { hi, lo, arg } => {
                let _ = write!(out, "(extract[{hi}:{lo}] ");
                self.display_into(*arg, out, depth + 1);
                out.push(')');
            }
            Node::Ite(c, a, b) => {
                out.push_str("(ite ");
                self.display_into(*c, out, depth + 1);
                out.push(' ');
                self.display_into(*a, out, depth + 1);
                out.push(' ');
                self.display_into(*b, out, depth + 1);
                out.push(')');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_consing_dedups() {
        let p = TermPool::new();
        let a = p.const_u128(8, 5);
        let b = p.const_u128(8, 5);
        assert_eq!(a, b);
        let x = p.fresh_var("x", 8);
        let s1 = p.add(x, a);
        let s2 = p.add(x, b);
        assert_eq!(s1, s2);
    }

    #[test]
    fn distinct_vars_not_merged() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let y = p.fresh_var("x", 8); // same name, distinct identity
        assert_ne!(x, y);
    }

    #[test]
    fn constant_folding() {
        let p = TermPool::new();
        let a = p.const_u128(8, 250);
        let b = p.const_u128(8, 10);
        let s = p.add(a, b);
        assert_eq!(p.as_const(s).unwrap().to_u64(), Some(4));
    }

    #[test]
    fn taint_mitigation_mul_zero() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 16);
        let z = p.const_u128(16, 0);
        let m = p.mul(x, z);
        assert!(p.as_const(m).unwrap().is_zero());
    }

    #[test]
    fn eq_self_is_true() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 32);
        let e = p.eq(x, x);
        assert!(p.is_const_true(e));
    }

    #[test]
    fn ite_simplifications() {
        let p = TermPool::new();
        let c = p.fresh_var("c", 1);
        let t = p.mk_true();
        let f = p.mk_false();
        assert_eq!(p.ite(c, t, f), c);
        let notc = p.ite(c, f, t);
        let expect = p.not(c);
        assert_eq!(notc, expect);
        let x = p.fresh_var("x", 8);
        assert_eq!(p.ite(c, x, x), x);
    }

    #[test]
    fn extract_through_concat() {
        let p = TermPool::new();
        let hi = p.fresh_var("hi", 8);
        let lo = p.fresh_var("lo", 8);
        let c = p.concat(hi, lo);
        assert_eq!(p.extract(15, 8, c), hi);
        assert_eq!(p.extract(7, 0, c), lo);
    }

    #[test]
    fn extract_of_extract_composes() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 32);
        let outer = p.extract(23, 8, x);
        let inner = p.extract(7, 4, outer);
        let direct = p.extract(15, 12, x);
        assert_eq!(inner, direct);
    }

    #[test]
    fn sext_matches_bitvec() {
        let p = TermPool::new();
        let v = p.constant(BitVec::from_u64(4, 0b1010));
        let e = p.sext(v, 12);
        assert_eq!(p.as_const(e).unwrap().to_u64(), Some(0xFFA));
    }

    #[test]
    fn vars_of_collects() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let y = p.fresh_var("y", 8);
        let s = p.add(x, y);
        let e = p.eq(s, x);
        assert_eq!(p.vars_of(e).len(), 2);
    }

    #[test]
    fn one_walk_over_many_roots_is_the_union_of_single_walks() {
        let p = TermPool::new();
        let vars: Vec<TermId> = (0..6).map(|i| p.fresh_var(format!("v{i}"), 8)).collect();
        let a = p.add(vars[0], vars[3]);
        let b = p.ite(p.eq(vars[5], vars[1]), a, vars[3]);
        let c = p.extract(3, 0, p.concat(vars[4], vars[4]));
        let mut walk = VarWalk::default();
        for roots in [vec![a, b, c], vec![c], vec![b, a, b], vec![]] {
            let mut union: Vec<VarId> = roots.iter().flat_map(|&r| p.vars_of(r)).collect();
            union.sort();
            union.dedup();
            // The same scratch serves every walk: marks from an earlier
            // walk hide nothing from a later one.
            assert_eq!(walk.vars(&p, roots.iter().copied()), union);
        }
        // Terms interned after the scratch was sized are walked too.
        let d = p.xor(p.fresh_var("late", 8), vars[2]);
        assert_eq!(walk.vars(&p, [d]).len(), 2);
    }

    #[test]
    fn concurrent_interning_converges_on_one_id() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 32);
        // Eight threads race to build the same expression chain; hash consing
        // must hand every thread the identical TermId at every step.
        let ids: Vec<TermId> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        let mut acc = x;
                        for i in 0..200u128 {
                            let c = p.const_u128(32, i);
                            let sum = p.add(acc, c);
                            acc = p.xor(sum, x);
                        }
                        acc
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(ids.windows(2).all(|w| w[0] == w[1]));
        // Widths stayed attached to the right nodes despite racing appends.
        assert_eq!(p.width(ids[0]), 32);
    }

    #[test]
    fn not_involution() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let n = p.not(x);
        assert_eq!(p.not(n), x);
    }
}
