//! Preconditions: P4-constraints (`@entry_restriction`) and fixed-size
//! packet restrictions (§6.1.1, Table 4b).
//!
//! P4-constraints annotates tables with a boolean expression over the
//! table's key names; entries the control plane may install must satisfy it.
//! P4Testgen compiles the annotation into a predicate over the *synthesized*
//! entry's key variables and asserts it as a precondition, pruning paths
//! whose entries would be illegal — this is how Table 4b's test-count
//! reductions arise.

use crate::state::SynthKeyMatch;
use p4t_frontend::ast::{BinaryOp, Expr, UnaryOp};
use p4t_frontend::parse_expression;
use p4t_smt::{BitVec, TermId, TermPool};

/// Compile an `@entry_restriction` source string into a constraint over the
/// synthesized entry's key variables. Returns `Ok(None)` when the
/// restriction references no known key (vacuous).
pub fn compile_restriction(
    pool: &TermPool,
    source: &str,
    keys: &[SynthKeyMatch],
) -> Result<Option<TermId>, String> {
    let expr = parse_expression(source).map_err(|diags| {
        diags.iter().map(ToString::to_string).collect::<Vec<_>>().join("; ")
    })?;
    let mut any_key = false;
    let t = compile_expr(pool, &expr, keys, &mut any_key)?;
    if any_key {
        Ok(Some(t))
    } else {
        Ok(None)
    }
}

fn key_term(keys: &[SynthKeyMatch], name: &str) -> Option<(TermId, u32)> {
    keys.iter()
        .find(|k| &*k.key_name == name || k.key_name.ends_with(&format!(".{name}")))
        .and_then(|k| k.value.map(|v| (v, k.width)))
}

fn compile_expr(
    pool: &TermPool,
    e: &Expr,
    keys: &[SynthKeyMatch],
    any_key: &mut bool,
) -> Result<TermId, String> {
    match e {
        Expr::Bool { value, .. } => Ok(pool.const_u128(1, *value as u128)),
        Expr::Int { value, width, .. } => {
            let w = width.unwrap_or(64);
            Ok(pool.constant(BitVec::from_u128(w as usize, *value)))
        }
        Expr::Ident { name, .. } => match key_term(keys, name) {
            Some((t, _)) => {
                *any_key = true;
                Ok(t)
            }
            None => Err(format!("unknown key '{name}' in restriction")),
        },
        Expr::Member { base, member, .. } => {
            // Dotted key names like `hdr.ipv4.dst`: reconstruct the text.
            let mut parts = vec![member.clone()];
            let mut cur = base.as_ref();
            loop {
                match cur {
                    Expr::Member { base, member, .. } => {
                        parts.push(member.clone());
                        cur = base.as_ref();
                    }
                    Expr::Ident { name, .. } => {
                        parts.push(name.clone());
                        break;
                    }
                    _ => return Err("unsupported restriction member".into()),
                }
            }
            parts.reverse();
            let name = parts.join(".");
            match key_term(keys, &name) {
                Some((t, _)) => {
                    *any_key = true;
                    Ok(t)
                }
                None => Err(format!("unknown key '{name}' in restriction")),
            }
        }
        Expr::Unary { op: UnaryOp::Not, arg, .. } => {
            let a = compile_expr(pool, arg, keys, any_key)?;
            Ok(pool.not(a))
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let mut l = compile_expr(pool, lhs, keys, any_key)?;
            let mut r = compile_expr(pool, rhs, keys, any_key)?;
            // Width-adapt integer literals to the other operand.
            let (lw, rw) = (pool.width(l), pool.width(r));
            if lw != rw {
                if lw < rw {
                    l = pool.cast(l, rw);
                } else {
                    r = pool.cast(r, lw);
                }
            }
            Ok(match op {
                BinaryOp::And => pool.and(l, r),
                BinaryOp::Or => pool.or(l, r),
                BinaryOp::Eq => pool.eq(l, r),
                BinaryOp::Neq => pool.neq(l, r),
                BinaryOp::Lt => pool.ult(l, r),
                BinaryOp::Le => pool.ule(l, r),
                BinaryOp::Gt => pool.ult(r, l),
                BinaryOp::Ge => pool.ule(r, l),
                BinaryOp::BitAnd => pool.and(l, r),
                BinaryOp::BitOr => pool.or(l, r),
                BinaryOp::BitXor => pool.xor(l, r),
                BinaryOp::Add => pool.add(l, r),
                BinaryOp::Sub => pool.sub(l, r),
                other => return Err(format!("unsupported operator {other:?} in restriction")),
            })
        }
        Expr::Ternary { cond, then_e, else_e, .. } => {
            let c = compile_expr(pool, cond, keys, any_key)?;
            let t = compile_expr(pool, then_e, keys, any_key)?;
            let f = compile_expr(pool, else_e, keys, any_key)?;
            Ok(pool.ite(c, t, f))
        }
        other => Err(format!("unsupported restriction expression: {other:?}")),
    }
}

/// Generation-time preconditions (Table 4b's experiment knobs).
#[derive(Clone, Debug, Default)]
pub struct Preconditions {
    /// Fix the input packet size to exactly this many bytes: extracts never
    /// run short, removing parser-reject paths.
    pub fixed_packet_bytes: Option<u32>,
    /// Honor `@entry_restriction` annotations (P4-constraints).
    pub apply_entry_restrictions: bool,
}

impl Preconditions {
    pub fn none() -> Self {
        Preconditions::default()
    }

    pub fn with_fixed_packet(bytes: u32) -> Self {
        Preconditions { fixed_packet_bytes: Some(bytes), apply_entry_restrictions: false }
    }

    pub fn with_constraints() -> Self {
        Preconditions { fixed_packet_bytes: None, apply_entry_restrictions: true }
    }

    pub fn all(bytes: u32) -> Self {
        Preconditions { fixed_packet_bytes: Some(bytes), apply_entry_restrictions: true }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(pool: &TermPool) -> Vec<SynthKeyMatch> {
        let a = pool.fresh_var("a", 8);
        let b = pool.fresh_var("b", 16);
        vec![
            SynthKeyMatch {
                key_name: "a".into(),
                match_kind: "exact".into(),
                width: 8,
                value: Some(a),
                mask: None,
                hi: None,
                prefix_len: None,
            },
            SynthKeyMatch {
                key_name: "hdr.x.b".into(),
                match_kind: "exact".into(),
                width: 16,
                value: Some(b),
                mask: None,
                hi: None,
                prefix_len: None,
            },
        ]
    }

    #[test]
    fn compiles_simple_comparison() {
        let pool = TermPool::new();
        let ks = keys(&pool);
        let c = compile_restriction(&pool, "a != 0", &ks).unwrap();
        assert!(c.is_some());
    }

    #[test]
    fn dotted_key_names_resolve() {
        let pool = TermPool::new();
        let ks = keys(&pool);
        let c = compile_restriction(&pool, "hdr.x.b == 5 && a < 10", &ks).unwrap();
        assert!(c.is_some());
    }

    #[test]
    fn suffix_matching_on_key_names() {
        let pool = TermPool::new();
        let ks = keys(&pool);
        // `b` alone matches the key named `hdr.x.b`.
        let c = compile_restriction(&pool, "b > 100", &ks).unwrap();
        assert!(c.is_some());
    }

    #[test]
    fn unknown_key_is_error() {
        let pool = TermPool::new();
        let ks = keys(&pool);
        assert!(compile_restriction(&pool, "zzz == 1", &ks).is_err());
    }

    #[test]
    fn restriction_actually_constrains() {
        use p4t_smt::{CheckResult, Solver};
        let pool = TermPool::new();
        let ks = keys(&pool);
        let c = compile_restriction(&pool, "a == 7", &ks).unwrap().unwrap();
        let mut solver = Solver::new();
        // Also assert a != 7: unsat.
        let a = ks[0].value.unwrap();
        let seven = pool.const_u128(8, 7);
        let neq = pool.neq(a, seven);
        assert_eq!(solver.check_assuming(&pool, &[c, neq]), CheckResult::Unsat);
    }
}
