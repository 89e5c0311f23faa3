//! Expression evaluation over the typed AST.
//!
//! Width inference mirrors the surface-language rules the production
//! lowering applies (context widths for unsized literals, operand-width
//! unification for binary operators, sign-aware casts and comparisons) but
//! computes values directly instead of emitting IR.

use p4t_frontend::ast::{BinaryOp, Expr, UnaryOp};
use p4t_frontend::typecheck::const_eval;
use p4t_frontend::types::Type;

use crate::bits::Bits;
use crate::eval::{unsupported, Binding, Ev, EvResult};

impl<'p> Ev<'p> {
    pub(crate) fn width_of(&self, t: &Type) -> Option<usize> {
        t.width(self.tenv).map(|w| w as usize)
    }

    pub(crate) fn static_width(&self, e: &Expr) -> Option<usize> {
        self.type_of(e).and_then(|t| self.width_of(&t))
    }

    pub(crate) fn is_signed(&self, e: &Expr) -> bool {
        matches!(self.type_of(e), Some(Type::Int(_)))
    }

    /// Best-effort static type of an expression, using the evaluator's own
    /// bindings (not the typechecker's scope, which is gone by now).
    pub(crate) fn type_of(&self, e: &Expr) -> Option<Type> {
        match e {
            Expr::Int { width: Some(w), signed, .. } => {
                Some(if *signed { Type::Int(*w) } else { Type::Bit(*w) })
            }
            Expr::Int { width: None, .. } => Some(Type::InfInt),
            Expr::Bool { .. } => Some(Type::Bool),
            Expr::Ident { name, .. } => match self.lookup(name) {
                Some(Binding::Val { ty, .. }) => Some(ty.clone()),
                Some(Binding::Inst { extern_name, type_args, .. }) => Some(Type::Extern {
                    name: extern_name.clone(),
                    type_args: type_args.clone(),
                }),
                Some(Binding::PacketIn) => Some(Type::PacketIn),
                Some(Binding::PacketOut) => Some(Type::PacketOut),
                None => {
                    if let Some((t, _)) = self.tenv.constant(name) {
                        return Some(t.clone());
                    }
                    // A table name in the current control.
                    let c = self.current_control()?;
                    c.tables.iter().find(|t| &t.name == name).map(|t| Type::Table(t.name.clone()))
                }
            },
            Expr::Member { base, member, .. } => {
                if let Expr::Ident { name, .. } = base.as_ref() {
                    if name == "error" {
                        return Some(Type::Error);
                    }
                    if self.lookup(name).is_none() {
                        if let Some((_, repr)) = self.tenv.enum_value(name, member) {
                            let (name, _) = self.tenv.named(name)?;
                            return Some(Type::Enum { name: name.clone(), repr });
                        }
                    }
                }
                let bt = self.type_of(base)?;
                match bt {
                    Type::Header(tn) | Type::Struct(tn) => self.tenv.field_type(&tn, member),
                    Type::Stack(elem, _) => match member.as_str() {
                        "next" | "last" => Some(*elem),
                        "lastIndex" | "size" => Some(Type::Bit(32)),
                        _ => None,
                    },
                    Type::ApplyResult { .. } => match member.as_str() {
                        "hit" | "miss" => Some(Type::Bool),
                        _ => None,
                    },
                    _ => None,
                }
            }
            Expr::Index { base, .. } => match self.type_of(base)? {
                Type::Stack(elem, _) => Some(*elem),
                _ => None,
            },
            Expr::Slice { hi, lo, .. } => {
                let h = const_eval(self.tenv, hi)?;
                let l = const_eval(self.tenv, lo)?;
                Some(Type::Bit((h - l + 1) as u32))
            }
            Expr::Unary { arg, .. } => self.type_of(arg),
            Expr::Binary { op, lhs, rhs, .. } => {
                use BinaryOp::*;
                match op {
                    Eq | Neq | Lt | Le | Gt | Ge | And | Or => Some(Type::Bool),
                    Concat => {
                        let lw = self.static_width(lhs)?;
                        let rw = self.static_width(rhs)?;
                        Some(Type::Bit((lw + rw) as u32))
                    }
                    Shl | Shr => self.type_of(lhs),
                    _ => {
                        let lt = self.type_of(lhs)?;
                        if self.width_of(&lt).is_some() {
                            Some(lt)
                        } else {
                            self.type_of(rhs)
                        }
                    }
                }
            }
            Expr::Ternary { then_e, else_e, .. } => {
                let t = self.type_of(then_e)?;
                if self.width_of(&t).is_some() {
                    Some(t)
                } else {
                    self.type_of(else_e)
                }
            }
            Expr::Cast { ty, arg, .. } => self.tenv.resolve(ty, arg.span()).ok(),
            Expr::Call { callee, type_args, .. } => {
                if let Expr::Member { base, member, .. } = callee.as_ref() {
                    match member.as_str() {
                        "isValid" => return Some(Type::Bool),
                        "lookahead" => {
                            let tr = type_args.first()?;
                            return self.tenv.resolve(tr, callee.span()).ok();
                        }
                        "length" => return Some(Type::Bit(32)),
                        "apply" => {
                            if let Some(Type::Table(t)) = self.type_of(base) {
                                return Some(Type::ApplyResult { table: t });
                            }
                            return None;
                        }
                        _ => {}
                    }
                    if let Some(Type::Extern { name, type_args: targs }) = self.type_of(base) {
                        let sig = self.tenv.extern_method(&name, &targs, member)?;
                        return self.tenv.resolve(&sig.ret, sig.span).ok();
                    }
                    return None;
                }
                if let Expr::Ident { name, .. } = callee.as_ref() {
                    let sig = self.tenv.extern_fn(name)?;
                    return self.tenv.resolve(&sig.ret, sig.span).ok();
                }
                None
            }
            _ => None,
        }
    }

    /// Resolve an assignable expression to its environment path and type.
    pub(crate) fn lvalue(&self, e: &Expr) -> EvResult<(String, Type)> {
        match e {
            Expr::Ident { name, .. } => match self.lookup(name) {
                Some(Binding::Val { path, ty }) => Ok((path.clone(), ty.clone())),
                _ => unsupported(format!("unknown variable '{name}'")),
            },
            Expr::Member { base, member, .. } => {
                let (bp, bt) = self.lvalue(base)?;
                match bt {
                    Type::Header(tn) | Type::Struct(tn) => {
                        match self.tenv.field_type(&tn, member) {
                            Some(ft) => Ok((format!("{bp}.{member}"), ft)),
                            None => unsupported(format!("unknown field '{member}' of '{tn}'")),
                        }
                    }
                    Type::Stack(..) => {
                        unsupported(format!("stack pseudo-member '.{member}' is not an lvalue"))
                    }
                    _ => unsupported(format!("member '.{member}' on non-aggregate")),
                }
            }
            Expr::Index { base, index, .. } => {
                let (bp, bt) = self.lvalue(base)?;
                let Type::Stack(elem, _) = bt else {
                    return unsupported("index on non-stack");
                };
                let Some(i) = const_eval(self.tenv, index) else {
                    return unsupported("dynamic stack index in lvalue");
                };
                Ok((format!("{bp}[{i}]"), *elem))
            }
            _ => unsupported("unsupported lvalue"),
        }
    }

    pub(crate) fn eval_expr(&mut self, e: &Expr, ctx: Option<usize>) -> EvResult<Bits> {
        match e {
            Expr::Int { value, width, .. } => {
                let Some(w) = width.map(|w| w as usize).or(ctx) else {
                    return unsupported("cannot infer width of integer literal");
                };
                Ok(Bits::from_u128(w, *value))
            }
            Expr::Bool { value, .. } => Ok(Bits::from_bool(*value)),
            Expr::Ident { name, .. } => {
                if let Some(Binding::Val { path, ty }) = self.lookup(name) {
                    let (path, ty) = (path.clone(), ty.clone());
                    let Some(w) = self.width_of(&ty) else {
                        return unsupported(format!("'{name}' has no scalar width"));
                    };
                    return Ok(self.read_env(&path, w));
                }
                if let Some((t, v)) = self.tenv.constant(name) {
                    let w = self.width_of(t).or(ctx).unwrap_or(32);
                    return Ok(Bits::from_u128(w, *v));
                }
                unsupported(format!("unknown name '{name}'"))
            }
            Expr::Member { base, member, .. } => self.eval_member(e, base, member, ctx),
            Expr::Index { base, index, .. } => {
                let (bp, bt) = self.lvalue(base)?;
                let Type::Stack(elem, n) = bt else {
                    return unsupported("index on non-stack");
                };
                let Some(ew) = self.width_of(&elem) else {
                    return unsupported("stack element has no width");
                };
                if let Some(i) = const_eval(self.tenv, index) {
                    return Ok(self.read_env(&format!("{bp}[{i}]"), ew));
                }
                let idx = self.eval_expr(index, Some(32))?;
                match idx.to_u64() {
                    Some(i) if i < u64::from(n) => Ok(self.read_env(&format!("{bp}[{i}]"), ew)),
                    _ => Ok(Bits::zeros(ew)),
                }
            }
            Expr::Slice { base, hi, lo, .. } => {
                let (Some(h), Some(l)) =
                    (const_eval(self.tenv, hi), const_eval(self.tenv, lo))
                else {
                    return unsupported("slice bounds must be constant");
                };
                let b = self.eval_expr(base, None)?;
                Ok(b.extract(h as usize, l as usize))
            }
            Expr::Unary { op, arg, .. } => {
                let a = self.eval_expr(arg, ctx)?;
                Ok(match op {
                    UnaryOp::Not | UnaryOp::BitNot => a.not(),
                    UnaryOp::Neg => a.negate(),
                })
            }
            Expr::Binary { op, lhs, rhs, .. } => self.eval_binary(*op, lhs, rhs, ctx),
            Expr::Ternary { cond, then_e, else_e, .. } => {
                let c = self.eval_expr(cond, Some(1))?;
                let w = ctx.or_else(|| self.static_width(then_e));
                if !c.is_zero() {
                    self.eval_expr(then_e, w)
                } else {
                    self.eval_expr(else_e, w)
                }
            }
            Expr::Cast { ty, arg, .. } => {
                let t = self
                    .tenv
                    .resolve(ty, e.span())
                    .map_err(|err| crate::RefError::Unsupported(format!("cast type: {err}")))?;
                let Some(tw) = self.width_of(&t) else {
                    return unsupported("cast to widthless type");
                };
                let a = self.eval_expr(arg, Some(tw))?;
                if a.width() == tw {
                    Ok(a)
                } else if self.is_signed(arg) && tw > a.width() {
                    Ok(a.sext(tw))
                } else {
                    Ok(a.cast(tw))
                }
            }
            Expr::Call { .. } => self.eval_call(e, ctx),
            Expr::List { .. } => unsupported("list expression outside extern argument"),
            Expr::Mask { .. } | Expr::Range { .. } | Expr::Dontcare { .. } => {
                unsupported("keyset expression outside keyset context")
            }
            Expr::Str { .. } => unsupported("string expression"),
        }
    }

    fn eval_member(
        &mut self,
        whole: &Expr,
        base: &Expr,
        member: &str,
        ctx: Option<usize>,
    ) -> EvResult<Bits> {
        if let Expr::Ident { name, .. } = base {
            if name == "error" {
                let code = self.tenv.error_code(member).unwrap_or(0);
                return Ok(Bits::from_u64(16, u64::from(code)));
            }
            if self.lookup(name).is_none() {
                if let Some((v, repr)) = self.tenv.enum_value(name, member) {
                    return Ok(Bits::from_u128(repr as usize, v));
                }
            }
        }
        // t.apply().hit / t.apply().miss — applying the table is a side
        // effect of evaluating the condition.
        if let Expr::Call { callee, .. } = base {
            if let Expr::Member { base: tb, member: m2, .. } = callee.as_ref() {
                if m2 == "apply" && (member == "hit" || member == "miss") {
                    let (tkey, _) = self.apply_table_expr(tb)?;
                    let hit = self.read_env(&format!("{tkey}.$hit"), 1);
                    return Ok(if member == "miss" { hit.not() } else { hit });
                }
            }
        }
        if let Some(Type::Stack(_, n)) = self.type_of(base) {
            match member {
                "lastIndex" => {
                    let (sp, _) = self.lvalue(base)?;
                    let next = self.read_env(&format!("{sp}.$next"), 32);
                    return Ok(next.sub(&Bits::from_u64(32, 1)));
                }
                "size" => {
                    return Ok(Bits::from_u64(ctx.unwrap_or(32), u64::from(n)));
                }
                "next" | "last" => return unsupported("whole-header stack access"),
                _ => {}
            }
        }
        // stack.last.field / stack.next.field
        if let Expr::Member { base: sb, member: sm, .. } = base {
            if (sm == "last" || sm == "next")
                && matches!(self.type_of(sb), Some(Type::Stack(..)))
            {
                return self.stack_field_read(sb, sm == "last", member);
            }
        }
        let (path, ty) = self.lvalue(whole)?;
        let Some(w) = self.width_of(&ty) else {
            return unsupported("member has no scalar width");
        };
        Ok(self.read_env(&path, w))
    }

    /// `stack.last.f` / `stack.next.f`: the element selected by the current
    /// next-index ($next - 1 for `last`, $next for `next`); out of range
    /// reads as zero, matching the lowered mux chain's default arm. The
    /// field `$valid` is `isValid()`: an element never made valid is not.
    fn stack_field_read(&mut self, stack: &Expr, last: bool, field: &str) -> EvResult<Bits> {
        let (sp, sty) = self.lvalue(stack)?;
        let Type::Stack(elem, n) = sty else {
            return unsupported("stack member on non-stack");
        };
        let Type::Header(hn) = *elem else {
            return unsupported("stack of non-headers");
        };
        let w = if field == "$valid" {
            1
        } else {
            let Some(ft) = self.tenv.field_type(&hn, field) else {
                return unsupported(format!("unknown field '{field}' of '{hn}'"));
            };
            let Some(w) = self.width_of(&ft) else {
                return unsupported("stack field has no width");
            };
            w
        };
        let next = self.read_env(&format!("{sp}.$next"), 32).to_u64().unwrap_or(u64::MAX);
        let target = if last { next.checked_sub(1) } else { Some(next) };
        let path = match target {
            Some(i) if i < u64::from(n) => format!("{sp}[{i}].{field}"),
            _ => return Ok(Bits::zeros(w)),
        };
        Ok(if field == "$valid" {
            Bits::from_bool(self.env_raw(&path).is_some_and(|v| !v.is_zero()))
        } else {
            self.read_env(&path, w)
        })
    }

    fn eval_call(&mut self, e: &Expr, ctx: Option<usize>) -> EvResult<Bits> {
        let Expr::Call { callee, type_args, args, .. } = e else { unreachable!() };
        if let Expr::Member { base, member, .. } = callee.as_ref() {
            match member.as_str() {
                "isValid" => {
                    // stack.last.isValid() / stack.next.isValid()
                    if let Expr::Member { base: sb, member: sm, .. } = base.as_ref() {
                        if (sm == "last" || sm == "next")
                            && matches!(self.type_of(sb), Some(Type::Stack(..)))
                        {
                            return self.stack_field_read(sb, sm == "last", "$valid");
                        }
                    }
                    let (p, _) = self.lvalue(base)?;
                    let v = self
                        .env_raw(&format!("{p}.$valid"))
                        .map(|v| !v.is_zero())
                        .unwrap_or(false);
                    return Ok(Bits::from_bool(v));
                }
                "lookahead" => {
                    let Some(tr) = type_args.first() else {
                        return unsupported("lookahead without type argument");
                    };
                    let t = self
                        .tenv
                        .resolve(tr, e.span())
                        .map_err(|err| crate::RefError::Unsupported(format!("{err}")))?;
                    let Some(w) = self.width_of(&t) else {
                        return unsupported("lookahead type has no width");
                    };
                    return Ok(match self.pkt.peek(w) {
                        Some(v) => v,
                        None => self.garbage(w),
                    });
                }
                "length" => {
                    if matches!(self.type_of(base), Some(Type::PacketIn)) {
                        return Ok(self.read_env("$packet_length", 32));
                    }
                }
                "apply" => {
                    let (tkey, _) = self.apply_table_expr(base)?;
                    return Ok(self.read_env(&format!("{tkey}.$applied"), 1));
                }
                _ => {}
            }
            if let Some(Type::Extern { name: en, type_args: targs }) = self.type_of(base) {
                let Some(sig) = self.tenv.extern_method(&en, &targs, member) else {
                    return unsupported(format!("unknown method '{member}' of '{en}'"));
                };
                let ret = self.tenv.resolve(&sig.ret, sig.span).ok();
                let Some(w) = ret.as_ref().and_then(|t| self.width_of(t)) else {
                    return unsupported(format!("method '{member}' has no return width"));
                };
                let inst = match base.as_ref() {
                    Expr::Ident { name, .. } => match self.lookup(name) {
                        Some(Binding::Inst { path, .. }) => Some(path.clone()),
                        _ => None,
                    },
                    _ => None,
                };
                return self.exec_extern_value(member, inst.as_deref(), &sig, args, w);
            }
            return unsupported("unsupported call in expression");
        }
        if let Expr::Ident { name, .. } = callee.as_ref() {
            if let Some(sig) = self.tenv.extern_fn(name).cloned() {
                let ret = self.tenv.resolve(&sig.ret, sig.span).ok();
                let w = ret
                    .as_ref()
                    .and_then(|t| self.width_of(t))
                    .or(ctx)
                    .unwrap_or(32);
                return self.exec_extern_value(name, None, &sig, args, w);
            }
        }
        unsupported("unsupported call in expression")
    }

    fn eval_binary(
        &mut self,
        op: BinaryOp,
        lhs: &Expr,
        rhs: &Expr,
        ctx: Option<usize>,
    ) -> EvResult<Bits> {
        use BinaryOp::*;
        match op {
            Concat => {
                let a = self.eval_expr(lhs, None)?;
                let b = self.eval_expr(rhs, None)?;
                Ok(a.concat(&b))
            }
            Shl | Shr => {
                let a = self.eval_expr(lhs, ctx)?;
                let mut b = self.eval_expr(rhs, Some(a.width()))?;
                if b.width() != a.width() {
                    b = b.cast(a.width());
                }
                let signed = self.is_signed(lhs);
                Ok(match op {
                    Shl => a.shl(&b),
                    _ if signed => a.ashr(&b),
                    _ => a.lshr(&b),
                })
            }
            _ => {
                let ow = self
                    .static_width(lhs)
                    .or_else(|| self.static_width(rhs))
                    .or(if matches!(op, And | Or) { Some(1) } else { ctx });
                let a = self.eval_expr(lhs, ow)?;
                let b = self.eval_expr(rhs, Some(a.width()))?;
                if a.width() != b.width() {
                    return unsupported("operand width mismatch");
                }
                let signed = self.is_signed(lhs) || self.is_signed(rhs);
                Ok(match op {
                    Add => a.add(&b),
                    Sub => a.sub(&b),
                    Mul => a.mul(&b),
                    Div => a.udiv(&b),
                    Mod => a.urem(&b),
                    BitAnd | And => a.and(&b),
                    BitOr | Or => a.or(&b),
                    BitXor => a.xor(&b),
                    Eq => Bits::from_bool(a == b),
                    Neq => Bits::from_bool(a != b),
                    Lt => Bits::from_bool(if signed { a.slt(&b) } else { a.ult(&b) }),
                    Le => Bits::from_bool(if signed { a.sle(&b) } else { a.ule(&b) }),
                    Gt => Bits::from_bool(if signed { b.slt(&a) } else { b.ult(&a) }),
                    Ge => Bits::from_bool(if signed { b.sle(&a) } else { b.ule(&a) }),
                    Shl | Shr | Concat => unreachable!(),
                })
            }
        }
    }

    // ---- keysets (select cases and const table entries) ------------------

    pub(crate) fn select_case_matches(
        &mut self,
        keys: &[Bits],
        case_keys: &[Expr],
    ) -> EvResult<bool> {
        // A lone `_` matches regardless of arity.
        if case_keys.len() == 1 && matches!(case_keys[0], Expr::Dontcare { .. }) {
            return Ok(true);
        }
        for (k, ks) in keys.iter().zip(case_keys) {
            if !self.keyset_matches(k, ks)? {
                return Ok(false);
            }
        }
        Ok(true)
    }

    pub(crate) fn keyset_matches(&mut self, key: &Bits, ks: &Expr) -> EvResult<bool> {
        let kw = key.width();
        match ks {
            Expr::Dontcare { .. } => Ok(true),
            Expr::Mask { value, mask, .. } => {
                let v = self.eval_expr(value, Some(kw))?.cast(kw);
                let m = self.eval_expr(mask, Some(kw))?.cast(kw);
                Ok(key.and(&m) == v.and(&m))
            }
            Expr::Range { lo, hi, .. } => {
                let l = self.eval_expr(lo, Some(kw))?.cast(kw);
                let h = self.eval_expr(hi, Some(kw))?.cast(kw);
                Ok(l.ule(key) && key.ule(&h))
            }
            other => {
                let v = self.eval_expr(other, Some(kw))?.cast(kw);
                Ok(*key == v)
            }
        }
    }
}
