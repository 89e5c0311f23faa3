//! Midend passes over the IR: constant folding and dead-code elimination.
//!
//! The paper tracks statement coverage "after dead-code elimination", so the
//! statement table of an [`IrProgram`] is rebuilt after these passes run:
//! only statements that survive DCE are coverable.

use crate::ir::*;
use std::collections::BTreeSet;

/// Run all midend passes in place and rebuild the statement table.
pub fn optimize(prog: &mut IrProgram) {
    for st in &mut prog.states {
        fold_stmts(&mut st.stmts);
        if let IrTransition::Select { keys, cases } = &mut st.transition {
            for k in keys.iter_mut() {
                *k = fold_expr(k.clone());
            }
            for c in cases.iter_mut() {
                for ks in c.keysets.iter_mut() {
                    fold_keyset(ks);
                }
            }
        }
    }
    for block in &mut prog.blocks {
        if let IrBlock::Control(c) = block {
            fold_stmts(&mut c.apply);
        }
    }
    for a in &mut prog.actions {
        fold_stmts(&mut a.body);
    }
    for t in &mut prog.tables {
        for k in t.keys.iter_mut() {
            k.expr = fold_expr(k.expr.clone());
        }
    }
    rebuild_statement_table(prog);
    prog.reads_parser_err = reads_parser_err(prog);
}

/// Whether any control assigns from or branches on a `parser_err` field
/// (see [`IrProgram::reads_parser_err`]).
pub(crate) fn reads_parser_err(prog: &IrProgram) -> bool {
    fn expr_reads(e: &IrExpr) -> bool {
        match e {
            IrExpr::Read { path, .. } => path.as_str().contains("parser_err"),
            IrExpr::Unary { arg, .. } => expr_reads(arg),
            IrExpr::Binary { lhs, rhs, .. } => expr_reads(lhs) || expr_reads(rhs),
            IrExpr::Slice { base, .. } => expr_reads(base),
            IrExpr::Cast { arg, .. } | IrExpr::SignCast { arg, .. } => expr_reads(arg),
            IrExpr::Mux { cond, then_e, else_e, .. } => {
                expr_reads(cond) || expr_reads(then_e) || expr_reads(else_e)
            }
            _ => false,
        }
    }
    fn stmt_reads(s: &IrStmt) -> bool {
        match s {
            IrStmt::Assign { value, .. } => expr_reads(value),
            IrStmt::If { cond, then_s, else_s, .. } => {
                expr_reads(cond) || then_s.iter().any(stmt_reads) || else_s.iter().any(stmt_reads)
            }
            _ => false,
        }
    }
    let applies_read = prog.blocks.iter().any(|b| match b {
        IrBlock::Control(c) => c.apply.iter().any(stmt_reads),
        _ => false,
    });
    applies_read || prog.actions.iter().any(|a| a.body.iter().any(stmt_reads))
}

fn fold_keyset(ks: &mut IrKeyset) {
    match ks {
        IrKeyset::Exact(e) => *e = fold_expr(e.clone()),
        IrKeyset::Mask { value, mask } => {
            *value = fold_expr(value.clone());
            *mask = fold_expr(mask.clone());
        }
        IrKeyset::Range { lo, hi } => {
            *lo = fold_expr(lo.clone());
            *hi = fold_expr(hi.clone());
        }
        IrKeyset::Dontcare => {}
    }
}

/// Fold statements; eliminate `if` branches with constant conditions and drop
/// statements after `exit`/`return` in the same block.
fn fold_stmts(stmts: &mut Vec<IrStmt>) {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts.drain(..) {
        let folded = fold_stmt(s);
        match folded {
            FoldedStmt::Keep(s) => {
                let terminal = matches!(s, IrStmt::Exit { .. } | IrStmt::Return { .. });
                out.push(s);
                if terminal {
                    break; // everything after is dead
                }
            }
            FoldedStmt::Inline(mut body) => {
                fold_stmts(&mut body);
                out.extend(body);
            }
        }
    }
    *stmts = out;
}

enum FoldedStmt {
    Keep(IrStmt),
    Inline(Vec<IrStmt>),
}

fn fold_stmt(s: IrStmt) -> FoldedStmt {
    match s {
        IrStmt::Assign { id, target, width, value } => {
            FoldedStmt::Keep(IrStmt::Assign { id, target, width, value: fold_expr(value) })
        }
        IrStmt::If { id, cond, mut then_s, mut else_s } => {
            let cond = fold_expr(cond);
            match cond.as_const() {
                Some(1) => FoldedStmt::Inline(then_s),
                Some(_) => FoldedStmt::Inline(else_s),
                None => {
                    fold_stmts(&mut then_s);
                    fold_stmts(&mut else_s);
                    FoldedStmt::Keep(IrStmt::If { id, cond, then_s, else_s })
                }
            }
        }
        IrStmt::SwitchActionRun { id, table, cases } => {
            let cases = cases
                .into_iter()
                .map(|(l, mut body)| {
                    fold_stmts(&mut body);
                    (l, body)
                })
                .collect();
            FoldedStmt::Keep(IrStmt::SwitchActionRun { id, table, cases })
        }
        IrStmt::Extract { id, header, varbit_len } => FoldedStmt::Keep(IrStmt::Extract {
            id,
            header,
            varbit_len: varbit_len.map(fold_expr),
        }),
        IrStmt::Advance { id, bits } => {
            FoldedStmt::Keep(IrStmt::Advance { id, bits: fold_expr(bits) })
        }
        IrStmt::CallAction { id, action, args } => FoldedStmt::Keep(IrStmt::CallAction {
            id,
            action,
            args: args.into_iter().map(fold_expr).collect(),
        }),
        IrStmt::ExternCall { id, name, instance, args } => {
            let args = args
                .into_iter()
                .map(|a| match a {
                    IrArg::In(e) => IrArg::In(fold_expr(e)),
                    IrArg::InList(es) => IrArg::InList(es.into_iter().map(fold_expr).collect()),
                    other => other,
                })
                .collect();
            FoldedStmt::Keep(IrStmt::ExternCall { id, name, instance, args })
        }
        other => FoldedStmt::Keep(other),
    }
}

/// Constant folding over expressions (pure, structural).
pub fn fold_expr(e: IrExpr) -> IrExpr {
    match e {
        IrExpr::Unary { op, arg, width } => {
            let arg = fold_expr(*arg);
            if let Some(v) = arg.as_const() {
                let folded = match op {
                    IrUnOp::Not => mask(!v, width),
                    IrUnOp::Neg => mask(v.wrapping_neg(), width),
                };
                return IrExpr::Const { width, value: folded };
            }
            IrExpr::Unary { op, arg: Box::new(arg), width }
        }
        IrExpr::Binary { op, lhs, rhs, width } => {
            let l = fold_expr(*lhs);
            let r = fold_expr(*rhs);
            if let (Some(a), Some(b)) = (l.as_const(), r.as_const()) {
                if let Some(v) = fold_binop(op, a, b, l.width(), width) {
                    return IrExpr::Const { width, value: v };
                }
            }
            // x & 0 == 0; x * 0 == 0 (taint-mitigation rules).
            if matches!(op, IrBinOp::And | IrBinOp::Mul)
                && (l.as_const() == Some(0) || r.as_const() == Some(0))
                && op != IrBinOp::Concat
            {
                return IrExpr::Const { width, value: 0 };
            }
            IrExpr::Binary { op, lhs: Box::new(l), rhs: Box::new(r), width }
        }
        IrExpr::Slice { base, hi, lo } => {
            let b = fold_expr(*base);
            if let Some(v) = b.as_const() {
                if hi < 128 {
                    let val = (v >> lo) & mask_ones(hi - lo + 1);
                    return IrExpr::Const { width: hi - lo + 1, value: val };
                }
            }
            IrExpr::Slice { base: Box::new(b), hi, lo }
        }
        IrExpr::Cast { arg, width } => {
            let a = fold_expr(*arg);
            let aw = a.width();
            if let Some(v) = a.as_const() {
                return IrExpr::Const { width, value: mask(v, width) };
            }
            if aw == width {
                return a;
            }
            IrExpr::Cast { arg: Box::new(a), width }
        }
        IrExpr::SignCast { arg, width } => {
            let a = fold_expr(*arg);
            let aw = a.width();
            if let Some(v) = a.as_const() {
                let extended = if aw < 128 && aw > 0 && (v >> (aw - 1)) & 1 == 1 {
                    v | !mask_ones(aw)
                } else {
                    v
                };
                return IrExpr::Const { width, value: mask(extended, width) };
            }
            IrExpr::SignCast { arg: Box::new(a), width }
        }
        IrExpr::Mux { cond, then_e, else_e, width } => {
            let c = fold_expr(*cond);
            match c.as_const() {
                Some(1) => fold_expr(*then_e),
                Some(_) => fold_expr(*else_e),
                None => IrExpr::Mux {
                    cond: Box::new(c),
                    then_e: Box::new(fold_expr(*then_e)),
                    else_e: Box::new(fold_expr(*else_e)),
                    width,
                },
            }
        }
        other => other,
    }
}

fn mask_ones(w: u32) -> u128 {
    if w >= 128 {
        u128::MAX
    } else {
        (1u128 << w) - 1
    }
}

fn mask(v: u128, w: u32) -> u128 {
    v & mask_ones(w)
}

fn fold_binop(op: IrBinOp, a: u128, b: u128, operand_w: u32, out_w: u32) -> Option<u128> {
    let m = |v: u128| mask(v, out_w);
    let sgn = |v: u128| {
        // Interpret as signed of operand_w bits.
        if operand_w > 0 && operand_w < 128 && (v >> (operand_w - 1)) & 1 == 1 {
            (v | !mask_ones(operand_w)) as i128
        } else {
            v as i128
        }
    };
    Some(match op {
        IrBinOp::Add => m(a.wrapping_add(b)),
        IrBinOp::Sub => m(a.wrapping_sub(b)),
        IrBinOp::Mul => m(a.wrapping_mul(b)),
        IrBinOp::Div => m(a.checked_div(b)?),
        IrBinOp::Mod => m(a.checked_rem(b)?),
        IrBinOp::And => a & b,
        IrBinOp::Or => m(a | b),
        IrBinOp::Xor => m(a ^ b),
        IrBinOp::Shl => {
            if b >= 128 {
                0
            } else {
                m(a.checked_shl(b as u32).unwrap_or(0))
            }
        }
        IrBinOp::Shr => {
            if b >= 128 {
                0
            } else {
                a.checked_shr(b as u32).unwrap_or(0)
            }
        }
        IrBinOp::AShr => {
            let s = sgn(a);
            m((s >> (b.min(127) as u32)) as u128)
        }
        IrBinOp::Eq => (a == b) as u128,
        IrBinOp::Neq => (a != b) as u128,
        IrBinOp::Ult => (a < b) as u128,
        IrBinOp::Ule => (a <= b) as u128,
        IrBinOp::Ugt => (a > b) as u128,
        IrBinOp::Uge => (a >= b) as u128,
        IrBinOp::Slt => (sgn(a) < sgn(b)) as u128,
        IrBinOp::Sle => (sgn(a) <= sgn(b)) as u128,
        IrBinOp::Sgt => (sgn(a) > sgn(b)) as u128,
        IrBinOp::Sge => (sgn(a) >= sgn(b)) as u128,
        IrBinOp::Concat => return None, // operand widths differ; skip folding
    })
}

/// Rebuild the statement table from the statements that survived DCE.
fn rebuild_statement_table(prog: &mut IrProgram) {
    let mut live: BTreeSet<StmtId> = BTreeSet::new();
    for st in &prog.states {
        collect_ids(&st.stmts, &mut live);
    }
    for block in &prog.blocks {
        if let IrBlock::Control(c) = block {
            collect_ids(&c.apply, &mut live);
        }
    }
    for a in &prog.actions {
        collect_ids(&a.body, &mut live);
    }
    prog.statements.retain(|s| live.contains(&s.id));
    // Deduplicate: elaborated statements may share ids.
    prog.statements.sort_by_key(|s| s.id);
    prog.statements.dedup_by_key(|s| s.id);
}

fn collect_ids(stmts: &[IrStmt], out: &mut BTreeSet<StmtId>) {
    for s in stmts {
        out.insert(s.id());
        match s {
            IrStmt::If { then_s, else_s, .. } => {
                collect_ids(then_s, out);
                collect_ids(else_s, out);
            }
            IrStmt::SwitchActionRun { cases, .. } => {
                for (_, body) in cases {
                    collect_ids(body, out);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c(w: u32, v: u128) -> IrExpr {
        IrExpr::Const { width: w, value: v }
    }

    #[test]
    fn fold_arith() {
        let e = IrExpr::Binary {
            op: IrBinOp::Add,
            lhs: Box::new(c(8, 250)),
            rhs: Box::new(c(8, 10)),
            width: 8,
        };
        assert_eq!(fold_expr(e).as_const(), Some(4));
    }

    #[test]
    fn fold_mul_zero_with_unknown() {
        let e = IrExpr::Binary {
            op: IrBinOp::Mul,
            lhs: Box::new(IrExpr::Read { path: Path::new("x"), width: 8 }),
            rhs: Box::new(c(8, 0)),
            width: 8,
        };
        assert_eq!(fold_expr(e).as_const(), Some(0));
    }

    #[test]
    fn fold_mux_constant_condition() {
        let e = IrExpr::Mux {
            cond: Box::new(c(1, 1)),
            then_e: Box::new(c(8, 7)),
            else_e: Box::new(IrExpr::Read { path: Path::new("y"), width: 8 }),
            width: 8,
        };
        assert_eq!(fold_expr(e).as_const(), Some(7));
    }

    #[test]
    fn fold_signed_comparison() {
        // -1 <s 0 at 8 bits.
        let e = IrExpr::Binary {
            op: IrBinOp::Slt,
            lhs: Box::new(c(8, 0xFF)),
            rhs: Box::new(c(8, 0)),
            width: 1,
        };
        assert_eq!(fold_expr(e).as_const(), Some(1));
    }

    #[test]
    fn dce_constant_if() {
        let dead = IrStmt::Assign {
            id: StmtId(1),
            target: Path::new("a"),
            width: 8,
            value: c(8, 1),
        };
        let live = IrStmt::Assign {
            id: StmtId(2),
            target: Path::new("b"),
            width: 8,
            value: c(8, 2),
        };
        let mut stmts = vec![IrStmt::If {
            id: StmtId(0),
            cond: c(1, 0),
            then_s: vec![dead],
            else_s: vec![live.clone()],
        }];
        fold_stmts(&mut stmts);
        assert_eq!(stmts, vec![live]);
    }

    #[test]
    fn dce_after_exit() {
        let mut stmts = vec![
            IrStmt::Exit { id: StmtId(0) },
            IrStmt::Assign { id: StmtId(1), target: Path::new("a"), width: 8, value: c(8, 1) },
        ];
        fold_stmts(&mut stmts);
        assert_eq!(stmts.len(), 1);
    }

    #[test]
    fn fold_sign_cast() {
        let e = IrExpr::SignCast { arg: Box::new(c(4, 0b1010)), width: 8 };
        assert_eq!(fold_expr(e).as_const(), Some(0xFA));
    }
}
