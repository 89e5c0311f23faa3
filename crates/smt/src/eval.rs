//! Concrete evaluation of terms under a variable assignment.
//!
//! Used to evaluate concolic-function arguments against a model, to check
//! models returned by the solver, and by the property tests that cross-check
//! the bit-blaster against this reference semantics.

use crate::bitvec::BitVec;
use crate::term::{BinOp, Node, TermId, TermPool, VarId};
use std::collections::HashMap;

/// A (partial) assignment of variables to values. Missing variables evaluate
/// to zero, mirroring how the solver completes don't-care bits.
#[derive(Default, Clone, Debug)]
pub struct Assignment {
    values: HashMap<VarId, BitVec>,
}

impl Assignment {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&mut self, var: VarId, value: BitVec) {
        self.values.insert(var, value);
    }

    pub fn get(&self, var: VarId) -> Option<&BitVec> {
        self.values.get(&var)
    }

    pub fn iter(&self) -> impl Iterator<Item = (&VarId, &BitVec)> {
        self.values.iter()
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Remove every value, keeping the storage.
    pub fn clear(&mut self) {
        self.values.clear();
    }
}

/// Evaluate `root` in `pool` under `asg`, memoizing shared subterms.
pub fn eval(pool: &TermPool, asg: &Assignment, root: TermId) -> BitVec {
    let mut memo: HashMap<TermId, BitVec> = HashMap::new();
    eval_memo(pool, asg, root, &mut memo)
}

/// [`eval`] with a caller-owned memo, which may be shared by roots
/// evaluated under the same `asg`.
pub fn eval_memo(
    pool: &TermPool,
    asg: &Assignment,
    id: TermId,
    memo: &mut HashMap<TermId, BitVec>,
) -> BitVec {
    if let Some(v) = memo.get(&id) {
        return v.clone();
    }
    let out = match pool.node(id) {
        Node::Const(v) => v.clone(),
        Node::Var(v) => asg
            .get(*v)
            .cloned()
            .unwrap_or_else(|| BitVec::zeros(pool.var_info(*v).width)),
        Node::Not(a) => eval_memo(pool, asg, *a, memo).not(),
        Node::Neg(a) => eval_memo(pool, asg, *a, memo).negate(),
        Node::Extract { hi, lo, arg } => {
            eval_memo(pool, asg, *arg, memo).extract(*hi as usize, *lo as usize)
        }
        Node::Ite(c, t, e) => {
            if eval_memo(pool, asg, *c, memo).is_true() {
                eval_memo(pool, asg, *t, memo)
            } else {
                eval_memo(pool, asg, *e, memo)
            }
        }
        Node::Bin(op, a, b) => {
            let va = eval_memo(pool, asg, *a, memo);
            let vb = eval_memo(pool, asg, *b, memo);
            match op {
                BinOp::Add => va.add(&vb),
                BinOp::Sub => va.sub(&vb),
                BinOp::Mul => va.mul(&vb),
                BinOp::UDiv => va.udiv(&vb),
                BinOp::URem => va.urem(&vb),
                BinOp::And => va.and(&vb),
                BinOp::Or => va.or(&vb),
                BinOp::Xor => va.xor(&vb),
                BinOp::Shl => va.shl(&vb),
                BinOp::LShr => va.lshr(&vb),
                BinOp::AShr => va.ashr(&vb),
                BinOp::Concat => va.concat(&vb),
                BinOp::Eq => BitVec::from_bool(va == vb),
                BinOp::Ult => BitVec::from_bool(va.ult(&vb)),
                BinOp::Ule => BitVec::from_bool(va.ule(&vb)),
                BinOp::Slt => BitVec::from_bool(va.slt(&vb)),
                BinOp::Sle => BitVec::from_bool(va.sle(&vb)),
            }
        }
    };
    memo.insert(id, out.clone());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_arith() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 8);
        let y = p.fresh_var("y", 8);
        let s = p.add(x, y);
        let mut asg = Assignment::new();
        let xv = match p.node(x) {
            Node::Var(v) => *v,
            _ => unreachable!(),
        };
        let yv = match p.node(y) {
            Node::Var(v) => *v,
            _ => unreachable!(),
        };
        asg.set(xv, BitVec::from_u64(8, 200));
        asg.set(yv, BitVec::from_u64(8, 100));
        assert_eq!(eval(&p, &asg, s).to_u64(), Some(44)); // wraps mod 256
    }

    #[test]
    fn missing_vars_are_zero() {
        let p = TermPool::new();
        let x = p.fresh_var("x", 16);
        let one = p.const_u128(16, 1);
        let s = p.add(x, one);
        assert_eq!(eval(&p, &Assignment::new(), s).to_u64(), Some(1));
    }

    #[test]
    fn eval_ite() {
        let p = TermPool::new();
        let c = p.fresh_var("c", 1);
        let a = p.const_u128(8, 7);
        let b = p.const_u128(8, 9);
        let t = p.ite(c, a, b);
        let cv = match p.node(c) {
            Node::Var(v) => *v,
            _ => unreachable!(),
        };
        let mut asg = Assignment::new();
        asg.set(cv, BitVec::from_bool(true));
        assert_eq!(eval(&p, &asg, t).to_u64(), Some(7));
        let mut asg2 = Assignment::new();
        asg2.set(cv, BitVec::from_bool(false));
        assert_eq!(eval(&p, &asg2, t).to_u64(), Some(9));
    }
}
