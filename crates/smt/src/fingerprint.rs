//! Stable structural fingerprints for constraint sets.
//!
//! `TermId`s are allocation-order handles: two runs of the same program can
//! assign different ids to structurally identical terms depending on which
//! worker interned a term first. That makes raw-id memo keys useless across
//! processes. The feasibility memo instead keys on the [`stable_fingerprint`]
//! of a constraint set: a 128-bit hash of the set's structure under a
//! canonical alpha-renaming, where variables are numbered by first
//! occurrence while walking the constraints *in collection order*.
//!
//! Collection order matters: within one path the constraint vector is built
//! deterministically (it mirrors the fork trail), so the numbering — and the
//! fingerprint — is a pure function of the path, independent of worker
//! schedule or pool interning order. Variable *names* are deliberately
//! excluded: alpha-equivalent sets are equisatisfiable, which is the only
//! property a sat/unsat memo needs preserved.
//!
//! The fingerprint is a left fold over the constraints, so a path carries it
//! incrementally: a [`FingerprintFrame`] holds the fold so far and the
//! variable ranks it assigned, forks clone it, and
//! [`FingerprintFrame::extend`] folds in only the constraints added since.
//! Term hashes live across frames and checks in a [`TermHashes`] cache.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::term::{Node, TermId, TermPool, VarId};

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

#[inline]
fn mix128(h: u128, v: u128) -> u128 {
    mix(mix(h, v as u64), (v >> 64) as u64)
}

#[inline]
fn mix(h: u128, word: u64) -> u128 {
    let mut h = h;
    for byte in word.to_le_bytes() {
        h ^= byte as u128;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Per-node structural tags. Must never be reordered once a checkpoint
/// format version ships; append new tags instead.
fn node_tag(node: &Node) -> u64 {
    match node {
        Node::Const(_) => 1,
        Node::Var(_) => 2,
        Node::Not(_) => 3,
        Node::Neg(_) => 4,
        Node::Bin(op, _, _) => 0x100 + *op as u64,
        Node::Extract { .. } => 5,
        Node::Ite(_, _, _) => 6,
    }
}

/// Source of rank ids. Process-wide, because a frame may be extended on a
/// different worker (and so against a different [`TermHashes`]) than the
/// one that assigned its ranks.
static NEXT_RANK_ID: AtomicU64 = AtomicU64::new(1);

/// One path's running fingerprint: the fold of [`stable_fingerprint`] over
/// the first `len` constraints, and the variable ranks that fold assigned.
#[derive(Clone, Debug)]
pub struct FingerprintFrame {
    acc: u128,
    len: usize,
    /// Variables in first-occurrence order (the index is the rank), each with
    /// an id minted when it got that rank. Frames cloned after that moment
    /// share the id, and with it every rank below.
    ranks: Vec<(VarId, u64)>,
}

impl Default for FingerprintFrame {
    fn default() -> Self {
        FingerprintFrame { acc: FNV_OFFSET, len: 0, ranks: Vec::new() }
    }
}

impl FingerprintFrame {
    /// Fold in `constraints[self.len..]` and return the fingerprint of all of
    /// `constraints`, which must extend the list this frame has folded.
    pub fn extend(
        &mut self,
        pool: &TermPool,
        constraints: &[TermId],
        hashes: &mut TermHashes,
    ) -> u128 {
        for (i, &c) in constraints.iter().enumerate().skip(self.len) {
            let h = hashes.hash(pool, &mut self.ranks, c);
            self.acc = mix128(mix(self.acc, i as u64), h);
        }
        self.len = constraints.len();
        self.acc
    }
}

/// A term's hash and the ranks it was computed under: every variable in the
/// term has a rank below `horizon`, and `rank_id` is the id of rank
/// `horizon - 1` (0 for a variable-free term, whose hash needs no rank).
#[derive(Clone, Copy)]
struct Entry {
    hash: u128,
    horizon: usize,
    rank_id: u64,
}

/// A slot no term has filled; its horizon is past every frame's ranks, so
/// it never answers.
const EMPTY: Entry = Entry { hash: 0, horizon: usize::MAX, rank_id: 0 };

/// Term hashes kept across frames and checks, for one pool. A term's hash
/// depends on the ranks of its variables, so an entry answers for a frame
/// only if that frame carries the entry's `rank_id` at the entry's horizon,
/// i.e. shares the ranks the hash was computed under. Without this cache
/// every extension would re-hash the shared structure (packet chains,
/// select keys) its new constraints are built from.
#[derive(Default)]
pub struct TermHashes {
    /// Indexed by term id.
    entries: Vec<Entry>,
    /// Scratch stack of the post-order walk, kept to reuse its allocation.
    stack: Vec<Visit>,
}

#[derive(Clone, Copy)]
enum Visit {
    Enter(TermId),
    Emit(TermId),
}

impl TermHashes {
    /// `t`'s hash if it was computed under the ranks `ranks` starts with.
    fn get(&self, t: TermId, ranks: &[(VarId, u64)]) -> Option<Entry> {
        let e = *self.entries.get(t.0 as usize)?;
        let valid =
            e.horizon == 0 || ranks.get(e.horizon - 1).is_some_and(|r| r.1 == e.rank_id);
        valid.then_some(e)
    }

    /// Iterative post-order hash of one term under `ranks`, ranking its new
    /// variables as they are met. Explicit stack: packet concatenation
    /// chains nest deeply enough to overflow recursion.
    fn hash(&mut self, pool: &TermPool, ranks: &mut Vec<(VarId, u64)>, root: TermId) -> u128 {
        if self.entries.len() < pool.len() {
            self.entries.resize(pool.len(), EMPTY);
        }
        let mut stack = std::mem::take(&mut self.stack);
        stack.push(Visit::Enter(root));
        while let Some(visit) = stack.pop() {
            match visit {
                Visit::Enter(t) => {
                    // A valid entry's variables are all ranked already, so
                    // skipping its walk leaves the ranks as the walk would.
                    if self.get(t, ranks).is_some() {
                        continue;
                    }
                    stack.push(Visit::Emit(t));
                    match pool.node(t) {
                        Node::Const(_) | Node::Var(_) => {}
                        Node::Not(a) | Node::Neg(a) | Node::Extract { arg: a, .. } => {
                            stack.push(Visit::Enter(*a));
                        }
                        Node::Bin(_, a, b) => {
                            stack.push(Visit::Enter(*b));
                            stack.push(Visit::Enter(*a));
                        }
                        Node::Ite(c, a, b) => {
                            stack.push(Visit::Enter(*b));
                            stack.push(Visit::Enter(*a));
                            stack.push(Visit::Enter(*c));
                        }
                    }
                }
                Visit::Emit(t) => {
                    let node = pool.node(t);
                    let mut h = mix(FNV_OFFSET, node_tag(node));
                    h = mix(h, pool.width(t) as u64);
                    let mut horizon = 0;
                    let mut child = |h: u128, c: &TermId| {
                        let e = self.entries[c.0 as usize];
                        horizon = horizon.max(e.horizon);
                        mix128(h, e.hash)
                    };
                    match node {
                        Node::Const(bv) => {
                            h = mix(h, bv.width() as u64);
                            for i in 0..bv.width() {
                                if bv.bit(i) {
                                    h = mix(h, i as u64 | 1 << 63);
                                }
                            }
                        }
                        Node::Var(v) => {
                            let rank = match ranks.iter().position(|r| r.0 == *v) {
                                Some(rank) => rank,
                                None => {
                                    ranks.push((*v, NEXT_RANK_ID.fetch_add(1, Ordering::Relaxed)));
                                    ranks.len() - 1
                                }
                            };
                            h = mix(h, rank as u64);
                            horizon = rank + 1;
                        }
                        Node::Not(a) | Node::Neg(a) => h = child(h, a),
                        Node::Bin(_, a, b) => {
                            h = child(h, a);
                            h = child(h, b);
                        }
                        Node::Extract { hi, lo, arg } => {
                            h = mix(h, *hi as u64);
                            h = mix(h, *lo as u64);
                            h = child(h, arg);
                        }
                        Node::Ite(c, a, b) => {
                            h = child(h, c);
                            h = child(h, a);
                            h = child(h, b);
                        }
                    }
                    let rank_id = if horizon == 0 { 0 } else { ranks[horizon - 1].1 };
                    self.entries[t.0 as usize] = Entry { hash: h, horizon, rank_id };
                }
            }
        }
        self.stack = stack;
        self.entries[root.0 as usize].hash
    }
}

/// Canonical fingerprint of a constraint set, walked in the given order.
///
/// Two constraint sets with equal fingerprints are alpha-equivalent modulo
/// hash collisions (128-bit, FNV-1a), hence equisatisfiable — which is the
/// contract the feasibility memo relies on.
pub fn stable_fingerprint(pool: &TermPool, constraints: &[TermId]) -> u128 {
    FingerprintFrame::default().extend(pool, constraints, &mut TermHashes::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::BinOp;

    #[test]
    fn alpha_equivalent_sets_agree_across_pools() {
        // Same structure, different variable names and interning order.
        let p1 = TermPool::new();
        let x = p1.fresh_var("x", 8);
        let y = p1.fresh_var("y", 8);
        let c1a = p1.eq(x, p1.const_u128(8, 5));
        let c1b = p1.bin(BinOp::Ult, y, x);

        let p2 = TermPool::new();
        // Interleave unrelated junk so TermIds diverge.
        let _junk = p2.fresh_var("junk", 32);
        let b = p2.fresh_var("banana", 8);
        let a = p2.fresh_var("apple", 8);
        let c2a = p2.eq(a, p2.const_u128(8, 5));
        let c2b = p2.bin(BinOp::Ult, b, a);

        assert_eq!(
            stable_fingerprint(&p1, &[c1a, c1b]),
            stable_fingerprint(&p2, &[c2a, c2b]),
        );
    }

    #[test]
    fn constant_and_structure_changes_are_detected() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let eq5 = p.eq(x, p.const_u128(8, 5));
        let eq6 = p.eq(x, p.const_u128(8, 6));
        let ult5 = p.bin(BinOp::Ult, x, p.const_u128(8, 5));
        let base = stable_fingerprint(&p, &[eq5]);
        assert_ne!(base, stable_fingerprint(&p, &[eq6]));
        assert_ne!(base, stable_fingerprint(&p, &[ult5]));
        // Order matters: the memo key is the collected sequence.
        assert_ne!(
            stable_fingerprint(&p, &[eq5, ult5]),
            stable_fingerprint(&p, &[ult5, eq5]),
        );
    }

    #[test]
    fn variable_identity_is_positional_not_nominal() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let y = p.fresh_var("y", 8);
        // x == y (two distinct vars) must differ from x == x.
        let xy = p.eq(x, y);
        let xx = p.eq(x, x);
        assert_ne!(stable_fingerprint(&p, &[xy]), stable_fingerprint(&p, &[xx]));
    }

    #[test]
    fn deep_terms_do_not_overflow_the_stack() {
        let p = TermPool::new();
        let mut t = p.fresh_var("seed", 8);
        for _ in 0..50_000 {
            t = p.bin(BinOp::Concat, t, p.const_u128(8, 0xab));
        }
        let c = p.eq(p.extract(7, 0, t), p.const_u128(8, 1));
        let _ = stable_fingerprint(&p, &[c]);
    }

    /// Checkpoint files and served memos store fingerprints, so the values
    /// themselves are a format: these were computed by the original
    /// whole-list walk and must never change.
    #[test]
    fn fingerprint_values_are_pinned() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let y = p.fresh_var("y", 16);
        let z = p.fresh_var("z", 1);
        let pkt = p.concat_all(&[y, x, p.const_u128(8, 0xab)]);
        let cs = [
            p.eq(x, p.const_u128(8, 5)),
            p.ult(p.extract(15, 8, y), x),
            p.not(z),
            p.eq(p.extract(31, 16, pkt), p.add(y, p.const_u128(16, 0x1234))),
            p.eq(p.ite(z, x, p.neg(x)), p.extract(7, 0, pkt)),
        ];
        let pinned: [(usize, u128); 4] = [
            (0, 0x6c62272e07bb014262b821756295c58d),
            (1, 0xa9db8ab557e4186f6176783f23f284b6),
            (3, 0xc8f0528e2f3c15aea93594053f46e47f),
            (5, 0x2bed9d2bd43798a2a0102a31debb4eb4),
        ];
        for (n, want) in pinned {
            assert_eq!(stable_fingerprint(&p, &cs[..n]), want, "first {n} constraints");
        }
    }

    /// Constraints over four variables, built so that different lists meet
    /// the variables in different orders.
    fn catalogue(p: &TermPool) -> Vec<TermId> {
        let v: Vec<TermId> = ["a", "b", "c", "d"].iter().map(|n| p.fresh_var(*n, 8)).collect();
        let mut out = Vec::new();
        for (i, &x) in v.iter().enumerate() {
            out.push(p.eq(x, p.const_u128(8, i as u128 + 1)));
            for &y in &v[i + 1..] {
                out.push(p.ult(x, y));
                out.push(p.eq(p.add(x, y), p.concat(p.extract(3, 0, y), p.extract(7, 4, x))));
            }
        }
        out
    }

    /// A frame cloned at a fork point and extended down two branches that
    /// rank their variables differently equals the whole-list fingerprint of
    /// each branch, with one cache serving both.
    #[test]
    fn forked_frames_match_their_whole_lists() {
        let p = TermPool::new();
        let cat = catalogue(&p);
        // cat[0] mentions only `a`; the branches then meet b, c, d in
        // different orders, and re-use terms the other branch hashed.
        let prefix = vec![cat[0]];
        let left: Vec<TermId> = prefix.iter().copied().chain([cat[5], cat[2], cat[9]]).collect();
        let right: Vec<TermId> = prefix.iter().copied().chain([cat[9], cat[2], cat[5]]).collect();
        let mut hashes = TermHashes::default();
        let mut parent = FingerprintFrame::default();
        parent.extend(&p, &prefix, &mut hashes);
        for branch in [&left, &right, &left] {
            let mut f = parent.clone();
            assert_eq!(f.extend(&p, branch, &mut hashes), stable_fingerprint(&p, branch));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// Lists extended in random chunks, with one cache shared by every
        /// list, equal their one-shot fingerprints.
        #[test]
        fn chunked_extension_matches_one_shot(
            lists in proptest::collection::vec(
                proptest::collection::vec((0usize..64, 1usize..4), 1..8), 1..6)
        ) {
            let p = TermPool::new();
            let cat = catalogue(&p);
            let mut hashes = TermHashes::default();
            for chunks in lists {
                let mut frame = FingerprintFrame::default();
                let mut list = Vec::new();
                for (i, n) in chunks {
                    list.extend((0..n).map(|k| cat[(i + k) % cat.len()]));
                    let fp = frame.extend(&p, &list, &mut hashes);
                    proptest::prop_assert_eq!(fp, stable_fingerprint(&p, &list));
                }
            }
        }
    }
}
