//! Property-based tests for the SMT substrate.
//!
//! Three layers of cross-validation:
//! 1. `BitVec` arithmetic against native `u128` reference semantics;
//! 2. term-pool constant folding against `eval` (the reference evaluator);
//! 3. the bit-blaster + SAT solver against `eval`: any model returned for a
//!    satisfiable random formula must actually satisfy it.

use proptest::prelude::*;
use p4t_smt::{eval, Assignment, BitVec, CheckResult, Solver, TermId, TermPool, VarWalk};

fn mask(w: u32) -> u128 {
    if w >= 128 {
        u128::MAX
    } else {
        (1u128 << w) - 1
    }
}

proptest! {
    #[test]
    fn bitvec_add_matches_u128(a: u128, b: u128, w in 1u32..=128) {
        let av = BitVec::from_u128(w as usize, a);
        let bv = BitVec::from_u128(w as usize, b);
        let expect = (a & mask(w)).wrapping_add(b & mask(w)) & mask(w);
        prop_assert_eq!(av.add(&bv).to_u128(), Some(expect));
    }

    #[test]
    fn bitvec_sub_matches_u128(a: u128, b: u128, w in 1u32..=128) {
        let av = BitVec::from_u128(w as usize, a);
        let bv = BitVec::from_u128(w as usize, b);
        let expect = (a & mask(w)).wrapping_sub(b & mask(w)) & mask(w);
        prop_assert_eq!(av.sub(&bv).to_u128(), Some(expect));
    }

    #[test]
    fn bitvec_mul_matches_u128(a: u128, b: u128, w in 1u32..=128) {
        let av = BitVec::from_u128(w as usize, a);
        let bv = BitVec::from_u128(w as usize, b);
        let expect = (a & mask(w)).wrapping_mul(b & mask(w)) & mask(w);
        prop_assert_eq!(av.mul(&bv).to_u128(), Some(expect));
    }

    #[test]
    fn bitvec_div_rem_invariant(a: u128, b: u128, w in 1u32..=64) {
        // a == b * (a/b) + (a%b) when b != 0 (all mod 2^w).
        let am = a & mask(w);
        let bm = b & mask(w);
        prop_assume!(bm != 0);
        let av = BitVec::from_u128(w as usize, am);
        let bv = BitVec::from_u128(w as usize, bm);
        let q = av.udiv(&bv);
        let r = av.urem(&bv);
        let back = bv.mul(&q).add(&r);
        prop_assert_eq!(back.to_u128(), Some(am));
        prop_assert!(r.ult(&bv));
    }

    #[test]
    fn bitvec_shifts_match_u128(a: u128, sh in 0u32..140, w in 1u32..=128) {
        let av = BitVec::from_u128(w as usize, a);
        let expect_l = if sh >= w { 0 } else { ((a & mask(w)) << sh) & mask(w) };
        let expect_r = if sh >= w { 0 } else { (a & mask(w)) >> sh };
        prop_assert_eq!(av.shl_const(sh as usize).to_u128(), Some(expect_l));
        prop_assert_eq!(av.lshr_const(sh as usize).to_u128(), Some(expect_r));
    }

    #[test]
    fn bitvec_concat_extract_roundtrip(a: u128, b: u128, wa in 1u32..=64, wb in 1u32..=64) {
        let av = BitVec::from_u128(wa as usize, a);
        let bv = BitVec::from_u128(wb as usize, b);
        let c = av.concat(&bv);
        prop_assert_eq!(c.width(), (wa + wb) as usize);
        prop_assert_eq!(c.extract((wa + wb - 1) as usize, wb as usize), av);
        prop_assert_eq!(c.extract((wb - 1) as usize, 0), bv);
    }

    /// Values across the inline/heap boundary (128 bits) keep their bits
    /// through concatenation, extraction, casts and shifts.
    #[test]
    fn bitvec_concat_extract_across_the_inline_boundary(
        a in proptest::collection::vec(any::<u8>(), 1..34),
        b in proptest::collection::vec(any::<u8>(), 1..34),
        sh in 0usize..300,
    ) {
        let av = BitVec::from_bytes_be(&a);
        let bv = BitVec::from_bytes_be(&b);
        let (wa, wb) = (av.width(), bv.width());
        let c = av.concat(&bv);
        prop_assert_eq!(c.width(), wa + wb);
        prop_assert_eq!(c.extract(wa + wb - 1, wb), av.clone());
        prop_assert_eq!(c.extract(wb - 1, 0), bv.clone());
        prop_assert_eq!(c.cast(wb), bv.clone());
        prop_assert_eq!(av.zext(wa + wb).cast(wa), av.clone());
        prop_assert_eq!(c.to_bytes_be(), [a, b].concat());
        prop_assert_eq!(c.add(&c.zext(wa + wb)).sub(&c), c.clone());
        let kept = if sh >= wa { BitVec::zeros(wa) } else { av.shl_const(sh).lshr_const(sh) };
        let low = if sh >= wa { BitVec::zeros(wa) } else { av.cast(wa - sh).zext(wa) };
        prop_assert_eq!(kept, low);
    }

    #[test]
    fn bitvec_bytes_roundtrip(bytes in proptest::collection::vec(any::<u8>(), 1..32)) {
        let v = BitVec::from_bytes_be(&bytes);
        prop_assert_eq!(v.to_bytes_be(), bytes);
    }

    #[test]
    fn bitvec_comparisons_match_u128(a: u128, b: u128, w in 1u32..=128) {
        let am = a & mask(w);
        let bm = b & mask(w);
        let av = BitVec::from_u128(w as usize, am);
        let bv = BitVec::from_u128(w as usize, bm);
        prop_assert_eq!(av.ult(&bv), am < bm);
        prop_assert_eq!(av.ule(&bv), am <= bm);
    }

    #[test]
    fn bitvec_not_involution(a: u128, w in 1u32..=128) {
        let v = BitVec::from_u128(w as usize, a);
        prop_assert_eq!(v.not().not(), v);
    }
}

// ---- random term formulas: folding vs eval vs solver ----------------------

/// A tiny expression AST we can generate and translate both to terms and to
/// a reference computation.
#[derive(Clone, Debug)]
enum E {
    Var(usize),
    Const(u64),
    Add(Box<E>, Box<E>),
    Sub(Box<E>, Box<E>),
    And(Box<E>, Box<E>),
    Or(Box<E>, Box<E>),
    Xor(Box<E>, Box<E>),
    Not(Box<E>),
    Mul(Box<E>, Box<E>),
}

fn arb_expr() -> impl Strategy<Value = E> {
    let leaf = prop_oneof![
        (0usize..3).prop_map(E::Var),
        any::<u64>().prop_map(E::Const),
    ];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Add(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Sub(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::And(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Or(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Xor(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| E::Mul(Box::new(a), Box::new(b))),
            inner.prop_map(|a| E::Not(Box::new(a))),
        ]
    })
}

const W: u32 = 16;

fn to_term(e: &E, pool: &TermPool, vars: &[TermId]) -> TermId {
    match e {
        E::Var(i) => vars[i % vars.len()],
        E::Const(c) => pool.const_u128(W as usize, *c as u128 & mask(W)),
        E::Add(a, b) => {
            let (x, y) = (to_term(a, pool, vars), to_term(b, pool, vars));
            pool.add(x, y)
        }
        E::Sub(a, b) => {
            let (x, y) = (to_term(a, pool, vars), to_term(b, pool, vars));
            pool.sub(x, y)
        }
        E::And(a, b) => {
            let (x, y) = (to_term(a, pool, vars), to_term(b, pool, vars));
            pool.and(x, y)
        }
        E::Or(a, b) => {
            let (x, y) = (to_term(a, pool, vars), to_term(b, pool, vars));
            pool.or(x, y)
        }
        E::Xor(a, b) => {
            let (x, y) = (to_term(a, pool, vars), to_term(b, pool, vars));
            pool.xor(x, y)
        }
        E::Mul(a, b) => {
            let (x, y) = (to_term(a, pool, vars), to_term(b, pool, vars));
            pool.mul(x, y)
        }
        E::Not(a) => {
            let x = to_term(a, pool, vars);
            pool.not(x)
        }
    }
}

fn reference(e: &E, env: &[u64; 3]) -> u64 {
    let m = mask(W) as u64;
    match e {
        E::Var(i) => env[i % 3] & m,
        E::Const(c) => c & m,
        E::Add(a, b) => reference(a, env).wrapping_add(reference(b, env)) & m,
        E::Sub(a, b) => reference(a, env).wrapping_sub(reference(b, env)) & m,
        E::And(a, b) => reference(a, env) & reference(b, env),
        E::Or(a, b) => reference(a, env) | reference(b, env),
        E::Xor(a, b) => reference(a, env) ^ reference(b, env),
        E::Mul(a, b) => reference(a, env).wrapping_mul(reference(b, env)) & m,
        E::Not(a) => !reference(a, env) & m,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// eval() must agree with the independent reference implementation.
    #[test]
    fn term_eval_matches_reference(e in arb_expr(), env: [u64; 3]) {
        let pool = TermPool::new();
        let vars: Vec<TermId> = (0..3).map(|i| pool.fresh_var(format!("v{i}"), W as usize)).collect();
        let t = to_term(&e, &pool, &vars);
        let mut asg = Assignment::new();
        for (i, &v) in vars.iter().enumerate() {
            let p4t_smt::Node::Var(vid) = *pool.node(v) else { unreachable!() };
            asg.set(vid, BitVec::from_u128(W as usize, env[i] as u128 & mask(W)));
        }
        let got = eval(&pool, &asg, t).to_u128().unwrap() as u64;
        prop_assert_eq!(got, reference(&e, &env));
    }

    /// Any model the solver returns for `expr == reference_value` must make
    /// eval agree — cross-validating blaster, SAT solver, and model
    /// extraction against the reference evaluator.
    #[test]
    fn solver_models_satisfy_formula(e in arb_expr(), env: [u64; 3]) {
        let pool = TermPool::new();
        let vars: Vec<TermId> = (0..3).map(|i| pool.fresh_var(format!("v{i}"), W as usize)).collect();
        let t = to_term(&e, &pool, &vars);
        // The formula expr == reference(env) is satisfiable by construction
        // (env itself is a witness).
        let rv = reference(&e, &env);
        let c = pool.const_u128(W as usize, rv as u128);
        let goal = pool.eq(t, c);
        let mut solver = Solver::new();
        prop_assert_eq!(solver.check_assuming(&pool, &[goal]), CheckResult::Sat);
        let model = solver.model(&pool, &VarWalk::default().vars(&pool, [goal]));
        prop_assert!(eval(&pool, &model, goal).is_true(),
            "model does not satisfy the formula it was produced for");
    }

    /// Asserting expr == v1 and expr == v2 for v1 != v2 over the *same*
    /// variables must be Unsat when expr is a function of its inputs only.
    #[test]
    fn solver_detects_contradiction(a: u64, b: u64, w in 1u32..=32) {
        prop_assume!((a & mask(w) as u64) != (b & mask(w) as u64));
        let pool = TermPool::new();
        let x = pool.fresh_var("x", w as usize);
        let ca = pool.const_u128(w as usize, a as u128 & mask(w));
        let cb = pool.const_u128(w as usize, b as u128 & mask(w));
        let e1 = pool.eq(x, ca);
        let e2 = pool.eq(x, cb);
        let mut solver = Solver::new();
        prop_assert_eq!(solver.check_assuming(&pool, &[e1, e2]), CheckResult::Unsat);
    }
}
