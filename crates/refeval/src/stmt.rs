//! Statement execution: assignments, control flow, parser calls, table
//! application, actions, and the extern surface.
//!
//! The statement protocol mirrors the production interpreter: `Ok(false)`
//! signals a parser reject (extract past end, failed `verify`, stack
//! overflow), and the `exited` flag models `exit`/`return` unwinding to the
//! end of the enclosing block.

use std::cmp::Reverse;
use std::collections::HashMap;

use p4t_frontend::ast::{
    find_annotation, ActionDecl, ControlDecl, Direction, Expr, ExternFunction, Stmt, TableDecl,
};
use p4t_frontend::typecheck::const_eval;
use p4t_frontend::types::Type;

use crate::bits::Bits;
use crate::eval::{trap, unsupported, Binding, Ev, EvResult, DROP_PORT};
use crate::hashes;
use crate::RefKey;

/// A classified extern argument. `In` arguments stay lazy so evaluation
/// order (and therefore the garbage counter) follows each extern's own
/// access pattern, as in the production interpreter.
enum ExtArg<'a> {
    Out(String, usize),
    In(&'a Expr),
    InList(&'a [Expr]),
    /// Aggregate passed by reference; the modeled externs never read these.
    Ref,
}

impl<'p> Ev<'p> {
    pub(crate) fn exec_stmt(&mut self, s: &'p Stmt) -> EvResult<bool> {
        if self.exited {
            return Ok(true);
        }
        match s {
            Stmt::VarDecl { ty, name, init, span } => {
                let t = self
                    .tenv
                    .resolve(ty, *span)
                    .map_err(|e| crate::RefError::Unsupported(format!("{e}")))?;
                let path = format!("{}::{}", self.block_name(), name);
                if matches!(t, Type::Struct(_) | Type::Header(_)) {
                    if init.is_some() {
                        return unsupported("aggregate initializers are not supported");
                    }
                    self.decl_aggregate(&t, &path);
                    self.declare(name, Binding::Val { path, ty: t });
                    return Ok(true);
                }
                let Some(w) = self.width_of(&t) else {
                    return unsupported(format!("local '{name}' has no width"));
                };
                let v = match init {
                    Some(e) => self.eval_expr(e, Some(w))?,
                    None => self.decl_value(w),
                };
                self.write_env(path.clone(), v);
                self.declare(name, Binding::Val { path, ty: t });
                Ok(true)
            }
            Stmt::ConstDecl { ty, name, init, span } => {
                let t = self
                    .tenv
                    .resolve(ty, *span)
                    .map_err(|e| crate::RefError::Unsupported(format!("{e}")))?;
                let Some(w) = self.width_of(&t) else {
                    return unsupported("aggregate constants are not supported");
                };
                let path = format!("{}::{}", self.block_name(), name);
                let v = self.eval_expr(init, Some(w))?;
                self.write_env(path.clone(), v);
                self.declare(name, Binding::Val { path, ty: t });
                Ok(true)
            }
            Stmt::Assign { lhs, rhs, .. } => self.exec_assign(lhs, rhs),
            Stmt::Call { call, .. } => self.exec_call(call),
            Stmt::If { cond, then_s, else_s, .. } => {
                let c = self.eval_expr(cond, Some(1))?;
                if !c.is_zero() {
                    self.exec_stmt(then_s)
                } else if let Some(e) = else_s {
                    self.exec_stmt(e)
                } else {
                    Ok(true)
                }
            }
            Stmt::Switch { scrutinee, cases, .. } => {
                let table = switch_table(scrutinee)
                    .ok_or_else(|| crate::RefError::Unsupported(
                        "switch scrutinee must be table.apply().action_run".into(),
                    ))?;
                let (_, action) = self.apply_table_expr(table)?;
                let hit_idx = cases
                    .iter()
                    .position(|c| {
                        c.label
                            .as_deref()
                            .map(|l| l.rsplit('.').next().unwrap_or(l) == action)
                            .unwrap_or(false)
                    })
                    .or_else(|| cases.iter().position(|c| c.label.is_none()));
                if let Some(i) = hit_idx {
                    // Fallthrough labels share the next concrete body.
                    if let Some(body) =
                        cases[i..].iter().find_map(|c| c.body.as_ref())
                    {
                        // Case bodies swallow the parser-reject signal:
                        // switch only appears in controls.
                        let _ = self.exec_stmt(body)?;
                    }
                }
                Ok(true)
            }
            Stmt::Block { stmts, .. } => {
                for st in stmts {
                    if !self.exec_stmt(st)? {
                        return Ok(false);
                    }
                    if self.exited {
                        break;
                    }
                }
                Ok(true)
            }
            Stmt::Exit { .. } | Stmt::Return { .. } => {
                self.exited = true;
                Ok(true)
            }
            Stmt::Empty { .. } => Ok(true),
        }
    }

    fn decl_value(&mut self, w: usize) -> Bits {
        if self.arch == crate::RefArch::V1Model {
            Bits::zeros(w)
        } else {
            self.garbage(w)
        }
    }

    fn decl_aggregate(&mut self, t: &Type, path: &str) {
        match t {
            Type::Header(hn) => {
                let hn = hn.clone();
                self.decl_fields(&hn, path);
                self.write_env(format!("{path}.$valid"), Bits::zeros(1));
            }
            Type::Struct(sn) => {
                let sn = sn.clone();
                self.decl_fields(&sn, path);
            }
            _ => {}
        }
    }

    fn decl_fields(&mut self, type_name: &str, base: &str) {
        let tenv = self.tenv;
        let Some(fields) = tenv.fields_of(type_name) else { return };
        for f in fields {
            let fp = format!("{base}.{}", f.name);
            match &f.ty {
                Type::Struct(sn) => self.decl_fields(sn, &fp),
                Type::Header(hn) => {
                    let v = self.decl_value(1);
                    self.write_env(format!("{fp}.$valid"), v);
                    self.decl_fields(hn, &fp);
                }
                Type::Stack(elem, n) => {
                    if let Type::Header(hn) = elem.as_ref() {
                        let v = self.decl_value(32);
                        self.write_env(format!("{fp}.$next"), v);
                        for i in 0..*n {
                            let ep = format!("{fp}[{i}]");
                            let v = self.decl_value(1);
                            self.write_env(format!("{ep}.$valid"), v);
                            self.decl_fields(hn, &ep);
                        }
                    }
                }
                ft => {
                    if let Some(w) = ft.width(tenv) {
                        let v = self.decl_value(w as usize);
                        if matches!(ft, Type::Varbit(_)) {
                            let len = self.decl_value(32);
                            self.write_env(format!("{fp}.$len"), len);
                        }
                        self.write_env(fp, v);
                    }
                }
            }
        }
    }

    // ---- assignment ------------------------------------------------------

    fn exec_assign(&mut self, lhs: &Expr, rhs: &Expr) -> EvResult<bool> {
        let Some(lt) = self.type_of(lhs) else {
            return unsupported("cannot type assignment target");
        };
        if let Type::Struct(tn) | Type::Header(tn) = &lt {
            let (dst, _) = self.lvalue(lhs)?;
            let (src, _) = self.lvalue(rhs)?;
            for (rel, w) in self.leaves_rel(tn)? {
                let v = self.read_env(&format!("{src}.{rel}"), w);
                self.write_env(format!("{dst}.{rel}"), v);
            }
            if matches!(lt, Type::Header(_)) {
                let v = self.read_env(&format!("{src}.$valid"), 1);
                self.write_env(format!("{dst}.$valid"), v);
            }
            return Ok(true);
        }
        let Some(w) = self.width_of(&lt) else {
            return unsupported("assignment target has no width");
        };
        if let Expr::Slice { base, hi, lo, .. } = lhs {
            let (Some(h), Some(l)) =
                (const_eval(self.tenv, hi), const_eval(self.tenv, lo))
            else {
                return unsupported("slice bounds must be constant");
            };
            let (h, l) = (h as usize, l as usize);
            let Some(bt) = self.type_of(base) else {
                return unsupported("cannot type slice base");
            };
            let Some(bw) = self.width_of(&bt) else {
                return unsupported("slice base has no width");
            };
            let (path, _) = self.lvalue(base)?;
            // Parts evaluate high-to-low, matching the lowered
            // read-modify-write's runtime order.
            let mut parts: Vec<Bits> = Vec::new();
            if h + 1 < bw {
                parts.push(self.read_env(&path, bw).extract(bw - 1, h + 1));
            }
            parts.push(self.eval_expr(rhs, Some(h - l + 1))?);
            if l > 0 {
                parts.push(self.read_env(&path, bw).extract(l - 1, 0));
            }
            let mut combined = Bits::empty();
            for p in parts {
                combined = combined.concat(&p);
            }
            self.write_env(path, combined);
            return Ok(true);
        }
        let v = self.eval_expr(rhs, Some(w))?;
        let (path, _) = self.lvalue(lhs)?;
        self.write_env(path, v);
        Ok(true)
    }

    fn leaves_rel(&self, type_name: &str) -> EvResult<Vec<(String, usize)>> {
        let mut out = Vec::new();
        self.collect_leaves_rel(type_name, "", &mut out)?;
        Ok(out)
    }

    fn collect_leaves_rel(
        &self,
        type_name: &str,
        base: &str,
        out: &mut Vec<(String, usize)>,
    ) -> EvResult<()> {
        let Some(fields) = self.tenv.fields_of(type_name) else {
            return unsupported(format!("unknown aggregate '{type_name}'"));
        };
        for f in fields {
            let fp = if base.is_empty() {
                f.name.clone()
            } else {
                format!("{base}.{}", f.name)
            };
            match &f.ty {
                Type::Struct(sn) => self.collect_leaves_rel(sn, &fp, out)?,
                Type::Header(hn) => {
                    out.push((format!("{fp}.$valid"), 1));
                    self.collect_leaves_rel(hn, &fp, out)?;
                }
                Type::Stack(elem, n) => {
                    if let Type::Header(hn) = elem.as_ref() {
                        out.push((format!("{fp}.$next"), 32));
                        for i in 0..*n {
                            let ep = format!("{fp}[{i}]");
                            out.push((format!("{ep}.$valid"), 1));
                            self.collect_leaves_rel(hn, &ep, out)?;
                        }
                    }
                }
                ft => {
                    let Some(w) = ft.width(self.tenv) else {
                        return unsupported(format!("field '{fp}' has no width"));
                    };
                    // A varbit's current length travels with it.
                    let len = matches!(ft, Type::Varbit(_)).then(|| (format!("{fp}.$len"), 32));
                    out.push((fp, w as usize));
                    out.extend(len);
                }
            }
        }
        Ok(())
    }

    // ---- calls -----------------------------------------------------------

    fn exec_call(&mut self, call: &Expr) -> EvResult<bool> {
        let Expr::Call { callee, args, .. } = call else {
            return unsupported("malformed call statement");
        };
        if let Expr::Member { base, member, .. } = callee.as_ref() {
            match member.as_str() {
                "extract" if matches!(self.type_of(base), Some(Type::PacketIn)) => {
                    return self.exec_extract(args);
                }
                "advance" if matches!(self.type_of(base), Some(Type::PacketIn)) => {
                    let n = self.eval_expr(&args[0], Some(32))?.to_u64().unwrap_or(0);
                    return match self.pkt.read(n as usize) {
                        Some(_) => Ok(true),
                        None => {
                            // core.p4 error.PacketTooShort
                            self.parser_error = 1;
                            Ok(false)
                        }
                    };
                }
                "emit" if matches!(self.type_of(base), Some(Type::PacketOut)) => {
                    self.exec_emit_arg(&args[0])?;
                    return Ok(true);
                }
                "setValid" | "setInvalid" => {
                    let (p, _) = self.lvalue(base)?;
                    self.write_env(
                        format!("{p}.$valid"),
                        Bits::from_bool(member == "setValid"),
                    );
                    return Ok(true);
                }
                "apply" if matches!(self.type_of(base), Some(Type::Table(_))) => {
                    self.apply_table_expr(base)?;
                    return Ok(true);
                }
                "push_front" | "pop_front" => {
                    if let Some(Type::Stack(_, size)) = self.type_of(base) {
                        let count = args
                            .first()
                            .and_then(|a| const_eval(self.tenv, a))
                            .unwrap_or(1) as usize;
                        let push = member == "push_front";
                        return self.exec_stack_op(base, size as usize, push, count);
                    }
                }
                _ => {}
            }
            if let Some(Type::Extern { name: en, type_args }) = self.type_of(base) {
                let Some(sig) = self.tenv.extern_method(&en, &type_args, member) else {
                    return trap(format!("unimplemented extern '{member}'"));
                };
                let inst = match base.as_ref() {
                    Expr::Ident { name, .. } => match self.lookup(name) {
                        Some(Binding::Inst { path, .. }) => path.clone(),
                        _ => name.clone(),
                    },
                    _ => String::new(),
                };
                let cargs = self.classify_args(&sig, args)?;
                self.exec_extern_arm(member, Some(&inst), &cargs)?;
                return Ok(true);
            }
            return unsupported("unsupported method call");
        }
        if let Expr::Ident { name, .. } = callee.as_ref() {
            if name == "verify" && args.len() == 2 {
                let cond = self.eval_expr(&args[0], Some(1))?;
                let code = const_eval(self.tenv, &args[1]).unwrap_or(0);
                if cond.is_zero() {
                    self.parser_error = code as u64;
                    return Ok(false);
                }
                return Ok(true);
            }
            if name == "NoAction" {
                return Ok(true);
            }
            if let Some((c, a)) = self.find_action(name) {
                let mut vals = Vec::with_capacity(args.len());
                let params = a.params.clone();
                for (p, arg) in params.iter().zip(args) {
                    let w = self
                        .tenv
                        .resolve(&p.ty, p.span)
                        .ok()
                        .and_then(|t| self.width_of(&t));
                    vals.push(self.eval_expr(arg, w)?);
                }
                let (cn, an) = (c.name.clone(), a.name.clone());
                self.call_action(&cn, &an, vals)?;
                return Ok(true);
            }
            if let Some(sig) = self.tenv.extern_fn(name).cloned() {
                let cargs = self.classify_args(&sig, args)?;
                self.exec_extern_arm(name, None, &cargs)?;
                return Ok(true);
            }
            return unsupported(format!("unknown function '{name}'"));
        }
        unsupported("unsupported call statement")
    }

    // ---- parser packet operations ----------------------------------------

    fn exec_extract(&mut self, args: &[Expr]) -> EvResult<bool> {
        let target = &args[0];
        let vb_len = if args.len() == 2 {
            self.eval_expr(&args[1], Some(32))?.to_u64().unwrap_or(0)
        } else {
            0
        };
        if let Expr::Member { base, member, .. } = target {
            if member == "next" {
                if let Some(Type::Stack(elem, n)) = self.type_of(base) {
                    let Type::Header(hn) = *elem else {
                        return unsupported("stack of non-headers");
                    };
                    let (sp, _) = self.lvalue(base)?;
                    let next =
                        self.read_env(&format!("{sp}.$next"), 32).to_u64().unwrap_or(u64::MAX);
                    if next >= u64::from(n) {
                        self.parser_error =
                            u64::from(self.tenv.error_code("StackOutOfBounds").unwrap_or(3));
                        return Ok(false);
                    }
                    if !self.do_extract(&format!("{sp}[{next}]"), &hn, vb_len)? {
                        return Ok(false);
                    }
                    self.write_env(format!("{sp}.$next"), Bits::from_u64(32, next + 1));
                    return Ok(true);
                }
            }
        }
        let (path, ty) = self.lvalue(target)?;
        let Type::Header(hn) = ty else {
            return unsupported("extract target must be a header");
        };
        self.do_extract(&path, &hn, vb_len)
    }

    fn do_extract(&mut self, path: &str, header: &str, vb_len: u64) -> EvResult<bool> {
        let tenv = self.tenv;
        let Some(fields) = tenv.fields_of(header) else {
            return trap(format!("unknown header '{header}'"));
        };
        let need: usize = fields
            .iter()
            .map(|f| match f.ty {
                Type::Varbit(_) => vb_len as usize,
                _ => f.ty.width(tenv).unwrap_or(0) as usize,
            })
            .sum();
        if self.pkt.remaining() < need {
            // core.p4 error.PacketTooShort — consumes nothing.
            self.parser_error = 1;
            return Ok(false);
        }
        for f in fields {
            match f.ty {
                Type::Varbit(max) => {
                    let v = self.pkt.read(vb_len as usize).unwrap_or_else(Bits::empty);
                    self.write_env(format!("{path}.{}", f.name), v.cast(max as usize));
                    self.write_env(
                        format!("{path}.{}.$len", f.name),
                        Bits::from_u64(32, vb_len),
                    );
                }
                ref ft => {
                    let w = ft.width(tenv).unwrap_or(0) as usize;
                    let v = self.pkt.read(w).unwrap_or_else(Bits::empty);
                    self.write_env(format!("{path}.{}", f.name), v);
                }
            }
        }
        self.write_env(format!("{path}.$valid"), Bits::from_bool(true));
        Ok(true)
    }

    fn exec_emit_arg(&mut self, arg: &Expr) -> EvResult<()> {
        let (path, ty) = self.lvalue(arg)?;
        match ty {
            Type::Header(hn) => self.exec_emit(&path, &hn),
            Type::Struct(sn) => self.emit_struct(&sn, &path),
            Type::Stack(elem, n) => {
                if let Type::Header(hn) = elem.as_ref() {
                    for i in 0..n {
                        self.exec_emit(&format!("{path}[{i}]"), hn)?;
                    }
                }
                Ok(())
            }
            _ => Err(crate::RefError::Unsupported("cannot emit this type".into())),
        }
    }

    fn exec_emit(&mut self, path: &str, header: &str) -> EvResult<()> {
        let valid = self
            .env_raw(&format!("{path}.$valid"))
            .map(|v| !v.is_zero())
            .unwrap_or(false);
        if !valid {
            return Ok(());
        }
        let tenv = self.tenv;
        let Some(fields) = tenv.fields_of(header) else { return Ok(()) };
        let mut acc = Bits::empty();
        for f in fields {
            match f.ty {
                Type::Varbit(max) => {
                    let data = self.read_env(&format!("{path}.{}", f.name), max as usize);
                    let len = self
                        .env_raw(&format!("{path}.{}.$len", f.name))
                        .and_then(|v| v.to_u64())
                        .unwrap_or(0) as usize;
                    if len > 0 {
                        acc = acc.concat(&data.extract(len - 1, 0));
                    }
                }
                ref ft => {
                    let w = ft.width(tenv).unwrap_or(0) as usize;
                    if w == 0 {
                        continue;
                    }
                    let v = self.read_env(&format!("{path}.{}", f.name), w);
                    acc = acc.concat(&v);
                }
            }
        }
        self.emit_buf.push(acc);
        Ok(())
    }

    fn emit_struct(&mut self, struct_name: &str, path: &str) -> EvResult<()> {
        let tenv = self.tenv;
        let Some(fields) = tenv.fields_of(struct_name) else { return Ok(()) };
        for f in fields {
            let fp = format!("{path}.{}", f.name);
            match &f.ty {
                Type::Header(hn) => self.exec_emit(&fp, hn)?,
                Type::Struct(sn) => self.emit_struct(sn, &fp)?,
                Type::Stack(elem, n) => {
                    if let Type::Header(hn) = elem.as_ref() {
                        for i in 0..*n {
                            self.exec_emit(&format!("{fp}[{i}]"), hn)?;
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Shift the `size`-element stack at `base` by `count`.
    fn exec_stack_op(
        &mut self,
        base: &Expr,
        size: usize,
        push: bool,
        count: usize,
    ) -> EvResult<bool> {
        let (sp, _) = self.lvalue(base)?;
        let snapshot: Vec<Vec<(String, Bits)>> = (0..size)
            .map(|i| {
                let prefix = format!("{sp}[{i}].");
                self.env
                    .iter()
                    .filter(|(k, _)| k.starts_with(&prefix))
                    .map(|(k, v)| (k[prefix.len()..].to_string(), v.clone()))
                    .collect()
            })
            .collect();
        for i in 0..size {
            let prefix = format!("{sp}[{i}].");
            self.env.retain(|k, _| !k.starts_with(&prefix));
            let from = if push {
                i.checked_sub(count)
            } else {
                i.checked_add(count).filter(|&j| j < size)
            };
            match from {
                Some(src) => {
                    for (suffix, v) in &snapshot[src] {
                        self.env.insert(format!("{prefix}{suffix}"), v.clone());
                    }
                }
                None => {
                    self.env.insert(format!("{sp}[{i}].$valid"), Bits::zeros(1));
                }
            }
        }
        let next = self
            .env_raw(&format!("{sp}.$next"))
            .and_then(|v| v.to_u64())
            .unwrap_or(0);
        let new = if push {
            (next + count as u64).min(size as u64)
        } else {
            next.saturating_sub(count as u64)
        };
        self.write_env(format!("{sp}.$next"), Bits::from_u64(32, new));
        Ok(true)
    }

    // ---- tables and actions ----------------------------------------------

    fn find_table(&self, name: &str) -> Option<(&'p ControlDecl, &'p TableDecl)> {
        if let Some(c) = self.current_control() {
            if let Some(t) = c.tables.iter().find(|t| t.name == name) {
                return Some((c, t));
            }
        }
        for c in self.prog.controls() {
            if let Some(t) = c.tables.iter().find(|t| t.name == name) {
                return Some((c, t));
            }
        }
        None
    }

    fn find_action(&self, name: &str) -> Option<(&'p ControlDecl, &'p ActionDecl)> {
        let bare = name.rsplit('.').next().unwrap_or(name);
        if let Some(c) = self.current_control() {
            if let Some(a) = c.actions.iter().find(|a| a.name == bare) {
                return Some((c, a));
            }
        }
        for c in self.prog.controls() {
            if let Some(a) = c.actions.iter().find(|a| a.name == bare) {
                return Some((c, a));
            }
        }
        None
    }

    /// Apply a table referenced by expression; returns the internal key
    /// (for `$hit`/`$applied` slots) and the chosen action's bare name.
    pub(crate) fn apply_table_expr(&mut self, table: &Expr) -> EvResult<(String, String)> {
        let Expr::Ident { name, .. } = table else {
            return unsupported("table reference must be a name");
        };
        let Some((c, t)) = self.find_table(name) else {
            return trap(format!("unknown table '{name}'"));
        };
        let tkey = format!("{}.{}", c.name, t.name);
        let cp_name = find_annotation(&t.annotations, "name")
            .and_then(|a| a.string_arg())
            .map(str::to_string)
            .unwrap_or_else(|| tkey.clone());
        let mut key_vals = Vec::with_capacity(t.keys.len());
        for k in &t.keys {
            key_vals.push(self.eval_expr(&k.expr, None)?);
        }
        // Constant entries first, highest priority first (stable).
        let mut chosen: Option<(String, Vec<Bits>)> = None;
        let mut refs: Vec<&'p p4t_frontend::ast::TableEntry> = t.entries.iter().collect();
        refs.sort_by_key(|e| {
            Reverse(
                find_annotation(&e.annotations, "priority")
                    .and_then(|a| a.int_arg())
                    .unwrap_or(0),
            )
        });
        for e in refs {
            let mut all = true;
            for (k, ks) in key_vals.iter().zip(&e.keys) {
                if !self.keyset_matches(k, ks)? {
                    all = false;
                    break;
                }
            }
            if all {
                let bare = e.action.rsplit('.').next().unwrap_or(&e.action).to_string();
                let vals = self.eval_action_args(&bare, &e.args)?;
                chosen = Some((bare, vals));
                break;
            }
        }
        // Installed entries next, highest priority first (stable).
        if chosen.is_none() {
            if let Some(entries) = self.tables.get(&cp_name).cloned() {
                let mut entries = entries;
                entries.sort_by_key(|e| Reverse(e.priority));
                for e in entries {
                    let ok = e
                        .keys
                        .iter()
                        .zip(&key_vals)
                        .all(|(spec, key)| key_matches(spec, key));
                    if ok {
                        chosen = Some((e.action, e.args));
                        break;
                    }
                }
            }
        }
        let was_hit = chosen.is_some();
        let (action, vals) = match chosen {
            Some(c) => c,
            None => match &t.default_action {
                Some((name, dargs, _)) => {
                    let bare = name.rsplit('.').next().unwrap_or(name).to_string();
                    let vals = self.eval_action_args(&bare, dargs)?;
                    (bare, vals)
                }
                None => ("NoAction".to_string(), Vec::new()),
            },
        };
        self.write_env(format!("{tkey}.$hit"), Bits::from_bool(was_hit));
        self.write_env(format!("{tkey}.$applied"), Bits::from_bool(true));
        self.trace.push(format!("{} -> {}", t.name, action));
        if action != "NoAction" {
            let Some((ac, ad)) = self.find_action(&action) else {
                return trap(format!("unknown action '{action}'"));
            };
            let (cn, an) = (ac.name.clone(), ad.name.clone());
            self.call_action(&cn, &an, vals)?;
        }
        Ok((tkey, action))
    }

    /// Evaluate an action argument list against the action's parameter
    /// widths (for constant entries and default actions).
    fn eval_action_args(&mut self, action: &str, args: &[Expr]) -> EvResult<Vec<Bits>> {
        let widths: Vec<Option<usize>> = match self.find_action(action) {
            Some((_, a)) => a
                .params
                .iter()
                .map(|p| {
                    self.tenv.resolve(&p.ty, p.span).ok().and_then(|t| self.width_of(&t))
                })
                .collect(),
            None => vec![None; args.len()],
        };
        let mut vals = Vec::with_capacity(args.len());
        for (arg, w) in args.iter().zip(widths.into_iter().chain(std::iter::repeat(None))) {
            vals.push(self.eval_expr(arg, w)?);
        }
        Ok(vals)
    }

    fn call_action(&mut self, control: &str, action: &str, vals: Vec<Bits>) -> EvResult<()> {
        let Some(c) = self.prog.find_control(control) else {
            return trap(format!("unknown action '{action}'"));
        };
        let Some(a) = c.actions.iter().find(|a| a.name == action) else {
            return trap(format!("unknown action '{action}'"));
        };
        let mut frame = HashMap::new();
        for (p, v) in a.params.iter().zip(vals) {
            let ty = self
                .tenv
                .resolve(&p.ty, p.span)
                .map_err(|e| crate::RefError::Unsupported(format!("{e}")))?;
            let Some(pw) = self.width_of(&ty) else {
                return unsupported(format!("action parameter '{}' has no width", p.name));
            };
            let path = format!("{}::{}::{}", c.name, a.name, p.name);
            self.write_env(path.clone(), v.cast(pw));
            frame.insert(p.name.clone(), Binding::Val { path, ty });
        }
        self.frames.push(frame);
        let mut result = Ok(());
        for s in &a.body {
            match self.exec_stmt(s) {
                Ok(true) => {
                    if self.exited {
                        break;
                    }
                }
                Ok(false) => break,
                Err(e) => {
                    result = Err(e);
                    break;
                }
            }
        }
        self.exited = false;
        self.frames.pop();
        result
    }

    // ---- externs ---------------------------------------------------------

    fn classify_args<'a>(
        &self,
        sig: &ExternFunction,
        args: &'a [Expr],
    ) -> EvResult<Vec<ExtArg<'a>>> {
        let mut out = Vec::new();
        for (p, a) in sig.params.iter().zip(args) {
            let pty = self.tenv.resolve(&p.ty, p.span).ok();
            match p.direction {
                Direction::Out | Direction::InOut => {
                    if matches!(pty, Some(Type::Struct(_)) | Some(Type::Header(_)))
                        || matches!(
                            self.type_of(a),
                            Some(Type::Struct(_)) | Some(Type::Header(_))
                        )
                    {
                        out.push(ExtArg::Ref);
                    } else {
                        let (path, lty) = self.lvalue(a)?;
                        let w = pty
                            .as_ref()
                            .and_then(|t| self.width_of(t))
                            .or_else(|| self.width_of(&lty))
                            .unwrap_or(32);
                        out.push(ExtArg::Out(path, w));
                    }
                }
                _ => match a {
                    Expr::List { items, .. } => out.push(ExtArg::InList(items)),
                    _ => {
                        if matches!(
                            self.type_of(a),
                            Some(Type::Struct(_)) | Some(Type::Header(_))
                        ) {
                            out.push(ExtArg::Ref);
                        } else {
                            out.push(ExtArg::In(a));
                        }
                    }
                },
            }
        }
        Ok(out)
    }

    fn eval_ext(&mut self, a: &ExtArg<'_>) -> EvResult<Bits> {
        match a {
            ExtArg::In(e) => self.eval_expr(e, None),
            _ => trap("expected input argument"),
        }
    }

    fn eval_ext_list(&mut self, a: &ExtArg<'_>) -> EvResult<Vec<Bits>> {
        match a {
            ExtArg::In(e) => Ok(vec![self.eval_expr(e, None)?]),
            ExtArg::InList(es) => es.iter().map(|e| self.eval_expr(e, None)).collect(),
            _ => trap("expected input arguments"),
        }
    }

    /// Run a value-returning extern by appending a synthetic out slot,
    /// matching the hoisted-temporary shape the lowering produces.
    pub(crate) fn exec_extern_value(
        &mut self,
        name: &str,
        instance: Option<&str>,
        sig: &ExternFunction,
        args: &[Expr],
        ret_width: usize,
    ) -> EvResult<Bits> {
        let mut cargs = self.classify_args(sig, args)?;
        cargs.push(ExtArg::Out("$ref.tmp".to_string(), ret_width));
        let inst = instance.map(|s| s.to_string());
        self.exec_extern_arm(name, inst.as_deref(), &cargs)?;
        Ok(self.read_env("$ref.tmp", ret_width))
    }

    fn exec_extern_arm(
        &mut self,
        name: &str,
        instance: Option<&str>,
        args: &[ExtArg<'_>],
    ) -> EvResult<()> {
        match name {
            "mark_to_drop" => {
                self.write_env("sm.egress_spec", Bits::from_u64(9, DROP_PORT));
                self.write_env("sm.mcast_grp", Bits::zeros(16));
            }
            "verify_checksum" | "verify_checksum_with_payload" => {
                let cond = !self.eval_ext(&args[0])?.is_zero();
                if cond {
                    let mut data = self.eval_ext_list(&args[1])?;
                    if name.ends_with("_with_payload") {
                        data.push(self.pkt.rest());
                    }
                    let given = self.eval_ext(&args[2])?;
                    let algo = self.eval_ext(&args[3])?.to_u64().unwrap_or(2);
                    let computed = hashes::by_id(algo, &data, given.width());
                    if computed != given {
                        self.write_env("sm.checksum_error", Bits::from_bool(true));
                    }
                }
            }
            "update_checksum" | "update_checksum_with_payload" => {
                let cond = !self.eval_ext(&args[0])?.is_zero();
                if cond {
                    let mut data = self.eval_ext_list(&args[1])?;
                    if name.ends_with("_with_payload") {
                        data.push(self.pkt.rest());
                    }
                    if let ExtArg::Out(p, w) = &args[2] {
                        let (p, w) = (p.clone(), *w);
                        let algo = self.eval_ext(&args[3])?.to_u64().unwrap_or(2);
                        let v = hashes::by_id(algo, &data, w);
                        self.write_env(p, v);
                    }
                }
            }
            "hash" => {
                if let ExtArg::Out(p, w) = &args[0] {
                    let (p, w) = (p.clone(), *w);
                    let algo = self.eval_ext(&args[1])?.to_u64().unwrap_or(0);
                    let base = self.eval_ext(&args[2])?;
                    let data = self.eval_ext_list(&args[3])?;
                    let max = self.eval_ext(&args[4])?;
                    let h = hashes::by_id(algo, &data, w);
                    let maxc = max.cast(w);
                    let v = if maxc.is_zero() {
                        base.cast(w)
                    } else {
                        base.cast(w).add(&h.urem(&maxc))
                    };
                    self.write_env(p, v);
                }
            }
            "random" => {
                if let ExtArg::Out(p, w) = &args[0] {
                    let (p, w) = (p.clone(), *w);
                    let v = self.garbage(w);
                    self.write_env(p, v);
                }
            }
            "read" if instance.is_some() => {
                let (out, idx) = match (&args[0], args.last()) {
                    (ExtArg::Out(p, w), _) => {
                        (Some((p.clone(), *w)), self.eval_ext(&args[1])?)
                    }
                    (_, Some(ExtArg::Out(p, w))) => {
                        (Some((p.clone(), *w)), self.eval_ext(&args[0])?)
                    }
                    _ => (None, Bits::zeros(32)),
                };
                if let Some((p, w)) = out {
                    let inst = instance.unwrap_or_default();
                    let i = idx.to_u64().unwrap_or(0);
                    let v = self
                        .registers
                        .get(inst)
                        .and_then(|r| r.get(&i))
                        .cloned()
                        .unwrap_or_else(|| Bits::zeros(w));
                    self.write_env(p, v.cast(w));
                }
            }
            "write" if instance.is_some() => {
                let idx = self.eval_ext(&args[0])?.to_u64().unwrap_or(0);
                let val = self.eval_ext(&args[1])?;
                self.registers
                    .entry(instance.unwrap_or_default().to_string())
                    .or_default()
                    .insert(idx, val);
            }
            "get" if instance.is_some() => {
                if let Some(ExtArg::Out(p, w)) = args.last() {
                    let (p, w) = (p.clone(), *w);
                    if args.len() >= 2 {
                        let data = self.eval_ext_list(&args[0])?;
                        let v = hashes::by_id(0, &data, w);
                        self.write_env(p, v);
                    } else {
                        let v = self.garbage(w);
                        self.write_env(p, v);
                    }
                }
            }
            "execute" | "execute_meter" | "read_meter" => {
                let out = args.iter().find_map(|a| match a {
                    ExtArg::Out(p, w) => Some((p.clone(), *w)),
                    _ => None,
                });
                if let Some((p, w)) = out {
                    let idx = match args.first() {
                        Some(a @ ExtArg::In(_)) => self.eval_ext(a)?.to_u64().unwrap_or(0),
                        _ => 0,
                    };
                    let inst = instance.unwrap_or("meter");
                    let v = self
                        .registers
                        .get(inst)
                        .and_then(|r| r.get(&idx))
                        .cloned()
                        .unwrap_or_else(|| Bits::zeros(w));
                    self.write_env(p, v.cast(w));
                }
            }
            "add" | "subtract" if instance.is_some() => {
                let inst = instance.unwrap_or_default().to_string();
                let n = *self.flags.entry(format!("csum_n_{inst}")).or_insert(0) + 1;
                self.flags.insert(format!("csum_n_{inst}"), n);
                let data = self.eval_ext_list(&args[0])?;
                for (i, v) in data.into_iter().enumerate() {
                    self.write_env(format!("$csum.{inst}.{n:04}.{i:04}"), v);
                }
            }
            "verify" if instance.is_some() => {
                if let Some(ExtArg::Out(p, _)) = args.last() {
                    let p = p.clone();
                    let inst = instance.unwrap_or_default();
                    let prefix = format!("$csum.{inst}.");
                    let mut items: Vec<(String, Bits)> = self
                        .env
                        .iter()
                        .filter(|(k, _)| k.starts_with(&prefix))
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect();
                    items.sort_by(|a, b| a.0.cmp(&b.0));
                    let data: Vec<Bits> = items.into_iter().map(|(_, v)| v).collect();
                    let c = hashes::csum16(&data, 16);
                    self.write_env(p, Bits::from_bool(c.is_zero()));
                }
            }
            "truncate" => {
                let len = self.eval_ext(&args[0])?.to_u64().unwrap_or(0);
                self.flags.insert("truncate_bytes".into(), len);
            }
            "resubmit_preserving_field_list" => {
                self.flags.insert("resubmit".into(), 1);
            }
            "recirculate_preserving_field_list" => {
                self.flags.insert("recirculate".into(), 1);
            }
            "clone" | "clone_preserving_field_list" => {
                let session = self.eval_ext(&args[1])?.to_u64().unwrap_or(0);
                self.flags.insert("clone_pending".into(), 1);
                self.flags.insert("clone_session".into(), session);
            }
            "assert" | "assume" => {
                let c = self.eval_ext(&args[0])?;
                if c.is_zero() {
                    return trap("assert/assume failed at runtime");
                }
            }
            "count" | "digest" | "log_msg" | "pack" | "emit" | "increment" => {}
            other => {
                return trap(format!("unimplemented extern '{other}'"));
            }
        }
        Ok(())
    }
}

/// Match `t.apply().action_run` and return the table expression.
fn switch_table(scrutinee: &Expr) -> Option<&Expr> {
    let Expr::Member { base, member, .. } = scrutinee else { return None };
    if member != "action_run" {
        return None;
    }
    let Expr::Call { callee, .. } = base.as_ref() else { return None };
    let Expr::Member { base: tb, member: m2, .. } = callee.as_ref() else { return None };
    if m2 != "apply" {
        return None;
    }
    Some(tb)
}

fn key_matches(spec: &RefKey, key: &Bits) -> bool {
    let w = key.width();
    let fit = |bytes: &[u8]| Bits::from_bytes_be(bytes).cast(w);
    match spec {
        RefKey::Exact { value } => *key == fit(value),
        RefKey::Ternary { value, mask } => {
            let m = fit(mask);
            key.and(&m) == fit(value).and(&m)
        }
        RefKey::Lpm { value, prefix_len } => {
            if *prefix_len == 0 {
                return true;
            }
            let plen = (*prefix_len as usize).min(w);
            let mask = Bits::ones(w).shl_const(w - plen);
            key.and(&mask) == fit(value).and(&mask)
        }
        RefKey::Range { lo, hi } => fit(lo).ule(key) && key.ule(&fit(hi)),
        RefKey::Optional { value } => match value {
            None => true,
            Some(v) => *key == fit(v),
        },
    }
}
