//! Type checker for the P4-16 subset.
//!
//! Builds a [`TypeEnv`] from the declarations, then checks every parser,
//! control, action, table, and expression. The resulting [`CheckedProgram`]
//! (AST + environment + per-block scopes) is the input to IR lowering.
//!
//! Checking is deliberately pragmatic: it catches the errors that would make
//! lowering or symbolic execution meaningless (unknown names, field typos,
//! width mismatches on sized operands, bad match kinds, transitions to
//! undefined states), while staying permissive where the spec delegates to
//! targets (extern argument coercions, list expressions).
//!
//! The checker accumulates diagnostics instead of stopping at the first
//! problem: a declaration that fails to resolve is entered into the
//! environment as [`Type::Poison`], which silently satisfies later checks so
//! one mistake produces one diagnostic rather than a cascade. Lowering only
//! runs on error-free programs, so poison never escapes the frontend.

use crate::ast::*;
use crate::error::{codes, DiagSink, Diagnostic, FrontendError};
use crate::token::Span;
use crate::types::{Type, TypeDef, TypeEnv, ResolvedField, ERROR_WIDTH};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A program that has passed type checking.
#[derive(Clone, Debug)]
pub struct CheckedProgram {
    pub program: Program,
    pub env: TypeEnv,
    /// Warning-severity diagnostics from a clean run.
    pub warnings: Vec<Diagnostic>,
}

/// Lexical scope: a stack of frames of declared names and their types.
/// Names are borrowed from the program, and a block declares a handful, so
/// a frame is a run of a flat list and a lookup scans it from the
/// innermost declaration out: a later declaration shadows an earlier one.
#[derive(Clone, Debug, Default)]
pub struct Scope<'a> {
    names: Vec<(&'a str, Type)>,
    /// Where each open frame's declarations start in `names`.
    frames: Vec<usize>,
}

impl<'a> Scope<'a> {
    pub fn new() -> Self {
        Scope::default()
    }

    pub fn push(&mut self) {
        self.frames.push(self.names.len());
    }

    pub fn pop(&mut self) {
        let start = self.frames.pop().unwrap_or(0);
        self.names.truncate(start);
    }

    pub fn declare(&mut self, name: &'a str, ty: Type) {
        self.names.push((name, ty));
    }

    pub fn lookup(&self, name: &str) -> Option<&Type> {
        self.names.iter().rev().find(|(n, _)| *n == name).map(|(_, t)| t)
    }
}

/// Typecheck a parsed program.
///
/// Returns every diagnostic found (up to the per-file cap). `Err` iff any
/// diagnostic is an error; warnings from a clean run are carried on the
/// [`CheckedProgram`].
pub fn typecheck(program: Program) -> Result<CheckedProgram, Vec<Diagnostic>> {
    typecheck_over(None, program)
}

/// [`typecheck`] for a program whose prefix declarations `base` already
/// holds: the environment pass 1 builds from them (see [`checked_prefix`]).
/// Only the program's own declarations are walked; the result equals
/// `typecheck(program)`. With no base, every declaration is walked.
pub(crate) fn typecheck_over(
    base: Option<Arc<TypeEnv>>,
    program: Program,
) -> Result<CheckedProgram, Vec<Diagnostic>> {
    let (mut env, skip) = match base {
        Some(base) => (TypeEnv::over(base), program.prefix.len()),
        None => (TypeEnv::new(), 0),
    };
    let mut sink = DiagSink::new();
    collect_declarations(program.decls().skip(skip), &mut env, &mut sink);
    let checker = Checker { env: &env, diags: RefCell::new(sink), tables: Cell::new(&[]) };
    // A package argument names its block, so two blocks may not share a
    // name. A skipped prefix has no blocks (see `checked_prefix`).
    let mut blocks = HashSet::new();
    for decl in program.decls().skip(skip) {
        if checker.capped() {
            break;
        }
        if let Decl::Parser(ParserDecl { name, span, .. })
        | Decl::Control(ControlDecl { name, span, .. }) = decl
        {
            if !blocks.insert(name.as_str()) {
                checker.report(
                    FrontendError::typecheck(*span, format!("block '{name}' is declared more than once"))
                        .with_code(codes::TYPE_DUPLICATE),
                );
            }
        }
        match decl {
            Decl::Parser(p) => checker.check_parser(p),
            Decl::Control(c) => checker.check_control(c),
            Decl::Action(a) => {
                let mut scope = Scope::new();
                checker.check_action(a, &mut scope);
            }
            _ => {}
        }
    }
    let sink = checker.diags.into_inner();
    if sink.has_errors() {
        Err(sink.into_vec())
    } else {
        Ok(CheckedProgram { program, env, warnings: sink.into_vec() })
    }
}

/// The environment pass 1 builds from `decls`, when a program that starts
/// with them can be checked on top of it: pass 1 reports nothing, and no
/// declaration has a body (pass 2 of a body would see the names declared
/// after it). `None` otherwise.
pub(crate) fn checked_prefix(decls: &[Decl]) -> Option<TypeEnv> {
    let has_body = |d: &Decl| matches!(d, Decl::Parser(_) | Decl::Control(_) | Decl::Action(_));
    if decls.iter().any(has_body) {
        return None;
    }
    let mut env = TypeEnv::new();
    let mut sink = DiagSink::new();
    collect_declarations(decls.iter(), &mut env, &mut sink);
    sink.into_vec().is_empty().then_some(env)
}

/// Pass 1: populate the type environment from declarations, in order,
/// accumulating diagnostics. Declarations that fail to resolve are entered
/// as poison so references to them do not cascade.
fn collect_declarations<'d>(
    decls: impl Iterator<Item = &'d Decl>,
    env: &mut TypeEnv,
    diags: &mut DiagSink,
) {
    for decl in decls {
        if diags.capped() {
            return;
        }
        match decl {
            Decl::Header { name, fields, .. } => {
                let rf = resolve_fields_into(env, fields, diags);
                for (f, src) in rf.iter().zip(fields) {
                    if !matches!(
                        f.ty,
                        Type::Bit(_) | Type::Int(_) | Type::Bool | Type::Varbit(_) | Type::Poison
                    ) {
                        diags.push(FrontendError::typecheck(
                            src.span,
                            format!("header field '{}' must have a fixed-width type", f.name),
                        ));
                    }
                }
                env.insert_type(name, TypeDef::Header(rf));
            }
            Decl::Struct { name, fields, .. } => {
                let rf = resolve_fields_into(env, fields, diags);
                env.insert_type(name, TypeDef::Struct(rf));
            }
            Decl::Enum { name, underlying, members, span } => {
                let repr = match underlying {
                    Some(TypeRef::Bit(w)) => *w,
                    Some(TypeRef::Int(w)) => *w,
                    Some(_) => {
                        diags.push(FrontendError::typecheck(
                            *span,
                            "enum underlying type must be bit<N> or int<N>",
                        ));
                        32
                    }
                    // Spec leaves representation-less enums abstract; we pick
                    // 32 bits for the runtime encoding.
                    None => 32,
                };
                let mut resolved = Vec::new();
                let mut next: u128 = 0;
                for (m, v) in members {
                    let val = match v {
                        Some(e) => match const_eval(env, e) {
                            Some(v) => v,
                            None => {
                                diags.push(
                                    FrontendError::typecheck(
                                        *span,
                                        "enum member value must be constant",
                                    )
                                    .with_code(codes::TYPE_NOT_CONST),
                                );
                                next
                            }
                        },
                        None => next,
                    };
                    next = val.wrapping_add(1);
                    resolved.push((m.clone(), val));
                }
                env.insert_type(name, TypeDef::Enum { repr, members: resolved });
            }
            Decl::Typedef { ty, name, span } => {
                let t = match env.resolve(ty, *span) {
                    Ok(t) => t,
                    Err(e) => {
                        diags.push(e);
                        Type::Poison
                    }
                };
                env.insert_type(name, TypeDef::Alias(t));
            }
            Decl::Const { ty, name, value, span } => {
                let t = match env.resolve(ty, *span) {
                    Ok(t) => t,
                    Err(e) => {
                        diags.push(e);
                        Type::Poison
                    }
                };
                let v = match const_eval(env, value) {
                    Some(v) => v,
                    None => {
                        diags.push(
                            FrontendError::typecheck(
                                *span,
                                format!("'{name}' is not a constant expression"),
                            )
                            .with_code(codes::TYPE_NOT_CONST),
                        );
                        0
                    }
                };
                env.insert_const(name, t, v);
            }
            Decl::ErrorDecl { members, .. } => {
                for m in members {
                    env.add_error(m);
                }
            }
            Decl::MatchKindDecl { members, .. } => {
                for m in members {
                    env.add_match_kind(m);
                }
            }
            Decl::ExternFunction(f) => {
                env.insert_extern_fn(f);
            }
            Decl::ExternObject(o) => {
                env.insert_type(&o.name, TypeDef::ExternObject(o.clone()));
            }
            _ => {}
        }
    }
}

fn resolve_fields_into(
    env: &TypeEnv,
    fields: &[Field],
    diags: &mut DiagSink,
) -> Vec<ResolvedField> {
    fields
        .iter()
        .map(|f| ResolvedField {
            name: f.name.clone(),
            ty: match env.resolve(&f.ty, f.span) {
                Ok(t) => t,
                Err(e) => {
                    diags.push(e);
                    Type::Poison
                }
            },
            annotations: f.annotations.clone(),
        })
        .collect()
}

/// Evaluate a constant expression to an integer.
pub fn const_eval(env: &TypeEnv, e: &Expr) -> Option<u128> {
    Some(match e {
        Expr::Int { value, .. } => *value,
        Expr::Bool { value, .. } => *value as u128,
        Expr::Ident { name, .. } => env.constant(name)?.1,
        Expr::Member { base, member, .. } => {
            if let Expr::Ident { name, .. } = base.as_ref() {
                if name == "error" {
                    return env.error_code(member).map(|c| c as u128);
                }
                if let Some((v, _)) = env.enum_value(name, member) {
                    return Some(v);
                }
            }
            return None;
        }
        Expr::Unary { op, arg, .. } => {
            let v = const_eval(env, arg)?;
            match op {
                UnaryOp::Neg => v.wrapping_neg(),
                UnaryOp::BitNot => !v,
                UnaryOp::Not => (v == 0) as u128,
            }
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let a = const_eval(env, lhs)?;
            let b = const_eval(env, rhs)?;
            match op {
                BinaryOp::Add => a.wrapping_add(b),
                BinaryOp::Sub => a.wrapping_sub(b),
                BinaryOp::Mul => a.wrapping_mul(b),
                BinaryOp::Div => a.checked_div(b)?,
                BinaryOp::Mod => a.checked_rem(b)?,
                BinaryOp::BitAnd => a & b,
                BinaryOp::BitOr => a | b,
                BinaryOp::BitXor => a ^ b,
                BinaryOp::Shl => a.checked_shl(b as u32).unwrap_or(0),
                BinaryOp::Shr => a.checked_shr(b as u32).unwrap_or(0),
                _ => return None,
            }
        }
        Expr::Cast { arg, .. } => const_eval(env, arg)?,
        _ => return None,
    })
}

/// Per-block checking context. Diagnostics accumulate in the sink; checks
/// keep going after a failure so one pass reports everything.
struct Checker<'a> {
    env: &'a TypeEnv,
    diags: RefCell<DiagSink>,
    /// The tables of the control whose apply block is being checked, for
    /// its `switch` labels.
    tables: Cell<&'a [TableDecl]>,
}

impl<'a> Checker<'a> {
    fn report(&self, d: Diagnostic) {
        self.diags.borrow_mut().push(d);
    }

    fn capped(&self) -> bool {
        self.diags.borrow().capped()
    }

    /// Resolve a surface type, reporting failures and poisoning the result.
    fn resolve_or_poison(&self, ty: &TypeRef, span: Span) -> Type {
        match self.env.resolve(ty, span) {
            Ok(t) => t,
            Err(e) => {
                self.report(e);
                Type::Poison
            }
        }
    }

    fn scope_from_params<'s>(&self, params: &'s [Param]) -> Scope<'s> {
        let mut scope = Scope::new();
        for p in params {
            let t = self.resolve_or_poison(&p.ty, p.span);
            scope.declare(&p.name, t);
        }
        scope
    }

    fn check_parser(&self, p: &ParserDecl) {
        let mut scope = self.scope_from_params(&p.params);
        for l in &p.locals {
            self.check_stmt(l, &mut scope);
        }
        let state_names: Vec<&str> = p.states.iter().map(|s| s.name.as_str()).collect();
        if !state_names.contains(&"start") {
            self.report(FrontendError::typecheck(
                p.span,
                format!("parser '{}' has no start state", p.name),
            ));
        }
        for st in &p.states {
            if self.capped() {
                return;
            }
            scope.push();
            for s in &st.stmts {
                self.check_stmt(s, &mut scope);
            }
            match &st.transition {
                Transition::Direct(next) => {
                    self.check_state_ref(next, &state_names, st.span);
                }
                Transition::Select { exprs, cases, span } => {
                    for e in exprs {
                        match self.type_of(e, &scope) {
                            Ok(t) => {
                                if t.width(self.env).is_none() && !matches!(t, Type::Poison) {
                                    self.report(FrontendError::typecheck(
                                        *span,
                                        format!("select argument has non-scalar type {t}"),
                                    ));
                                }
                            }
                            Err(e) => self.report(e),
                        }
                    }
                    for c in cases {
                        self.check_state_ref(&c.next_state, &state_names, c.span);
                        if c.keys.len() != exprs.len()
                            && !(c.keys.len() == 1 && matches!(c.keys[0], Expr::Dontcare { .. }))
                        {
                            self.report(FrontendError::typecheck(
                                c.span,
                                format!(
                                    "select case has {} keys but select has {} arguments",
                                    c.keys.len(),
                                    exprs.len()
                                ),
                            ));
                        }
                        for k in &c.keys {
                            self.check_keyset_expr(k, &scope);
                        }
                    }
                }
            }
            scope.pop();
        }
    }

    fn check_state_ref(&self, name: &str, states: &[&str], span: Span) {
        if name != "accept" && name != "reject" && !states.contains(&name) {
            self.report(
                FrontendError::typecheck(span, format!("transition to undefined state '{name}'"))
                    .with_code(codes::TYPE_UNKNOWN_SYMBOL),
            );
        }
    }

    fn check_keyset_expr(&self, e: &Expr, scope: &Scope) {
        let r = match e {
            Expr::Dontcare { .. } => Ok(()),
            Expr::Mask { value, mask, .. } => self
                .type_of(value, scope)
                .and_then(|_| self.type_of(mask, scope))
                .map(|_| ()),
            Expr::Range { lo, hi, .. } => {
                self.type_of(lo, scope).and_then(|_| self.type_of(hi, scope)).map(|_| ())
            }
            other => self.type_of(other, scope).map(|_| ()),
        };
        if let Err(e) = r {
            self.report(e);
        }
    }

    fn check_control(&self, c: &'a ControlDecl) {
        let mut scope = self.scope_from_params(&c.params);
        // Declare instantiations (registers, counters, sub-externs).
        for inst in &c.instantiations {
            let t = self.resolve_or_poison(&inst.ty, inst.span);
            scope.declare(&inst.name, t);
        }
        for l in &c.locals {
            self.check_stmt(l, &mut scope);
        }
        // Action names (for table refs).
        let mut actions: HashSet<&str> = c.actions.iter().map(|a| a.name.as_str()).collect();
        actions.insert("NoAction");
        for a in &c.actions {
            if self.capped() {
                return;
            }
            scope.push();
            self.check_action(a, &mut scope);
            scope.pop();
        }
        // Tables.
        for t in &c.tables {
            if self.capped() {
                return;
            }
            self.check_table(t, &scope, &actions);
            scope.declare(&t.name, Type::Table(t.name.clone()));
        }
        // Apply block.
        scope.push();
        for t in &c.tables {
            scope.declare(&t.name, Type::Table(t.name.clone()));
        }
        self.tables.set(&c.tables);
        for s in &c.apply {
            self.check_stmt(s, &mut scope);
        }
        self.tables.set(&[]);
        scope.pop();
    }

    /// A `switch` on `table.apply().action_run`: each label must name one
    /// of the table's actions or its default action.
    fn check_switch_labels(&self, table: &str, cases: &[SwitchCase]) {
        let Some(t) = self.tables.get().iter().find(|t| t.name == table) else { return };
        let default = t.default_action.as_ref().map_or("NoAction", |(n, _, _)| n.as_str());
        for (label, span) in cases.iter().filter_map(|k| Some((k.label.as_deref()?, k.span))) {
            if label != default && !t.actions.iter().any(|a| a.name == label) {
                let msg = format!("switch label '{label}' is not an action of table '{table}'");
                self.report(
                    FrontendError::typecheck(span, msg).with_code(codes::TYPE_UNKNOWN_SYMBOL),
                );
            }
        }
    }

    fn check_action<'s>(&self, a: &'s ActionDecl, scope: &mut Scope<'s>) {
        scope.push();
        for p in &a.params {
            let t = self.resolve_or_poison(&p.ty, p.span);
            scope.declare(&p.name, t);
        }
        for s in &a.body {
            self.check_stmt(s, scope);
        }
        scope.pop();
    }

    fn check_table(&self, t: &TableDecl, scope: &Scope, actions: &HashSet<&str>) {
        for k in &t.keys {
            match self.type_of(&k.expr, scope) {
                Ok(kt) => {
                    if kt.width(self.env).is_none() && !matches!(kt, Type::Poison) {
                        self.report(FrontendError::typecheck(
                            k.span,
                            format!("table key has non-scalar type {kt}"),
                        ));
                    }
                }
                Err(e) => self.report(e),
            }
            if !self.env.is_match_kind(&k.match_kind) {
                self.report(
                    FrontendError::typecheck(
                        k.span,
                        format!("unknown match kind '{}'", k.match_kind),
                    )
                    .with_code(codes::TYPE_UNKNOWN_SYMBOL),
                );
            }
        }
        for a in &t.actions {
            if !actions.contains(a.name.as_str()) {
                self.report(
                    FrontendError::typecheck(
                        a.span,
                        format!("table '{}' references unknown action '{}'", t.name, a.name),
                    )
                    .with_code(codes::TYPE_UNKNOWN_SYMBOL),
                );
            }
        }
        if let Some((name, _, _)) = &t.default_action {
            let listed = t.actions.iter().any(|a| &a.name == name);
            if !listed && name != "NoAction" {
                self.report(FrontendError::typecheck(
                    t.span,
                    format!("default action '{name}' is not in the actions list"),
                ));
            }
        }
        for e in &t.entries {
            if e.keys.len() != t.keys.len() {
                self.report(FrontendError::typecheck(
                    e.span,
                    format!(
                        "entry has {} keys but table '{}' has {}",
                        e.keys.len(),
                        t.name,
                        t.keys.len()
                    ),
                ));
            }
            if !t.actions.iter().any(|a| a.name == e.action) {
                self.report(
                    FrontendError::typecheck(
                        e.span,
                        format!("entry action '{}' is not in the actions list", e.action),
                    )
                    .with_code(codes::TYPE_UNKNOWN_SYMBOL),
                );
            }
            for k in &e.keys {
                self.check_keyset_expr(k, scope);
            }
        }
    }

    fn check_stmt<'s>(&self, s: &'s Stmt, scope: &mut Scope<'s>) {
        if self.capped() {
            return;
        }
        match s {
            Stmt::VarDecl { ty, name, init, span } => {
                let t = self.resolve_or_poison(ty, *span);
                if let Some(e) = init {
                    match self.type_of(e, scope) {
                        Ok(et) => self.check_assignable(&t, &et, *span),
                        Err(e) => self.report(e),
                    }
                }
                scope.declare(name, t);
            }
            Stmt::ConstDecl { ty, name, init, span } => {
                let t = self.resolve_or_poison(ty, *span);
                match self.type_of(init, scope) {
                    Ok(et) => self.check_assignable(&t, &et, *span),
                    Err(e) => self.report(e),
                }
                scope.declare(name, t);
            }
            Stmt::Assign { lhs, rhs, span } => {
                let lt = match self.type_of(lhs, scope) {
                    Ok(t) => Some(t),
                    Err(e) => {
                        self.report(e);
                        None
                    }
                };
                if !is_lvalue(lhs) {
                    self.report(
                        FrontendError::typecheck(*span, "left side is not assignable")
                            .with_code(codes::TYPE_NOT_LVALUE),
                    );
                }
                match self.type_of(rhs, scope) {
                    Ok(rt) => {
                        if let Some(lt) = lt {
                            self.check_assignable(&lt, &rt, *span);
                        }
                    }
                    Err(e) => self.report(e),
                }
            }
            Stmt::Call { call, .. } => {
                if let Err(e) = self.type_of(call, scope) {
                    self.report(e);
                }
            }
            Stmt::If { cond, then_s, else_s, span } => {
                match self.type_of(cond, scope) {
                    Ok(ct) => {
                        if ct != Type::Bool && ct != Type::Poison {
                            self.report(
                                FrontendError::typecheck(
                                    *span,
                                    format!("if condition has type {ct}, expected bool"),
                                )
                                .with_code(codes::TYPE_MISMATCH),
                            );
                        }
                    }
                    Err(e) => self.report(e),
                }
                scope.push();
                self.check_stmt(then_s, scope);
                scope.pop();
                if let Some(e) = else_s {
                    scope.push();
                    self.check_stmt(e, scope);
                    scope.pop();
                }
            }
            Stmt::Switch { scrutinee, cases, span } => {
                match self.type_of(scrutinee, scope) {
                    Ok(st) => match &st {
                        Type::Action(table) => self.check_switch_labels(table, cases),
                        Type::Enum { .. } | Type::Poison => {}
                        Type::ApplyResult { .. } => {
                            self.report(FrontendError::typecheck(
                                *span,
                                "switch must match on table.apply().action_run",
                            ));
                        }
                        other => {
                            self.report(FrontendError::typecheck(
                                *span,
                                format!("cannot switch on type {other}"),
                            ));
                        }
                    },
                    Err(e) => self.report(e),
                }
                for c in cases {
                    if let Some(body) = &c.body {
                        scope.push();
                        self.check_stmt(body, scope);
                        scope.pop();
                    }
                }
            }
            Stmt::Block { stmts, .. } => {
                scope.push();
                for s in stmts {
                    self.check_stmt(s, scope);
                }
                scope.pop();
            }
            Stmt::Exit { .. } | Stmt::Return { .. } | Stmt::Empty { .. } => {}
        }
    }

    fn check_assignable(&self, to: &Type, from: &Type, span: Span) {
        if let Err(e) = require_assignable(to, from, span) {
            self.report(e);
        }
    }

    // ---- expression typing ------------------------------------------------

    fn type_of(&self, e: &Expr, scope: &Scope) -> Result<Type, FrontendError> {
        type_of_expr(self.env, e, scope)
    }
}

/// Whether a value of type `from` can be assigned to a slot of type `to`.
fn require_assignable(to: &Type, from: &Type, span: Span) -> Result<(), FrontendError> {
    let ok = match (to, from) {
        (Type::Poison, _) | (_, Type::Poison) => true,
        _ if to == from => true,
        (Type::Bit(_) | Type::Int(_), Type::InfInt) => true,
        (Type::Error, Type::Bit(w)) | (Type::Bit(w), Type::Error) => *w == ERROR_WIDTH,
        (Type::Enum { repr, .. }, Type::Bit(w)) => repr == w,
        (Type::Bit(w), Type::Enum { repr, .. }) => repr == w,
        (Type::Varbit(_), Type::Bit(_)) => true,
        // List expressions initialize structs/headers member-wise; the
        // detailed check happens at lowering.
        (Type::Struct(_) | Type::Header(_), Type::Struct(_)) => from == &Type::Struct("<list>".into()),
        _ => false,
    };
    if ok {
        Ok(())
    } else {
        Err(FrontendError::typecheck(
            span,
            format!("cannot assign value of type {from} to {to}"),
        )
        .with_code(codes::TYPE_MISMATCH))
    }
}

/// Type of an expression — shared with IR lowering.
pub fn type_of_expr(env: &TypeEnv, e: &Expr, scope: &Scope) -> Result<Type, FrontendError> {
    let span = e.span();
    match e {
        Expr::Int { width, signed, .. } => Ok(match width {
            Some(w) if *signed => Type::Int(*w),
            Some(w) => Type::Bit(*w),
            None => Type::InfInt,
        }),
        Expr::Bool { .. } => Ok(Type::Bool),
        Expr::Str { .. } => Ok(Type::String),
        Expr::Dontcare { .. } => Ok(Type::InfInt),
        Expr::Ident { name, .. } => {
            if let Some(t) = scope.lookup(name) {
                return Ok(t.clone());
            }
            if let Some((t, _)) = env.constant(name) {
                return Ok(t.clone());
            }
            if env.extern_fn(name).is_some() {
                return Ok(Type::Action(name.clone()));
            }
            Err(FrontendError::typecheck(span, format!("unknown name '{name}'"))
                .with_code(codes::TYPE_UNKNOWN_SYMBOL))
        }
        Expr::Member { base, member, .. } => {
            // `error.X`
            if let Expr::Ident { name, .. } = base.as_ref() {
                if name == "error" {
                    return if env.error_code(member).is_some() {
                        Ok(Type::Error)
                    } else {
                        Err(FrontendError::typecheck(span, format!("unknown error '{member}'"))
                            .with_code(codes::TYPE_UNKNOWN_SYMBOL))
                    };
                }
                // `EnumName.Member` when not shadowed by a local.
                if scope.lookup(name).is_none() {
                    if let Some((enum_name, TypeDef::Enum { repr, .. })) = env.named(name) {
                        return if env.enum_value(name, member).is_some() {
                            Ok(Type::Enum { name: enum_name.clone(), repr: *repr })
                        } else {
                            Err(FrontendError::typecheck(
                                span,
                                format!("enum {name} has no member '{member}'"),
                            )
                            .with_code(codes::TYPE_BAD_MEMBER))
                        };
                    }
                }
            }
            let bt = type_of_expr(env, base, scope)?;
            member_type(env, &bt, member, span)
        }
        Expr::Index { base, index, .. } => {
            let bt = type_of_expr(env, base, scope)?;
            let it = type_of_expr(env, index, scope)?;
            if !it.is_numeric() {
                return Err(FrontendError::typecheck(span, "stack index must be numeric")
                    .with_code(codes::TYPE_MISMATCH));
            }
            match bt {
                Type::Stack(elem, _) => Ok(*elem),
                Type::Poison => Ok(Type::Poison),
                other => Err(FrontendError::typecheck(
                    span,
                    format!("cannot index into type {other}"),
                )),
            }
        }
        Expr::Slice { base, hi, lo, .. } => {
            let bt = type_of_expr(env, base, scope)?;
            if matches!(bt, Type::Poison) {
                return Ok(Type::Poison);
            }
            let (Some(h), Some(l)) = (const_eval(env, hi), const_eval(env, lo)) else {
                return Err(FrontendError::typecheck(span, "slice bounds must be constant")
                    .with_code(codes::TYPE_NOT_CONST));
            };
            let bw = bt.width(env).ok_or_else(|| {
                FrontendError::typecheck(span, format!("cannot slice type {bt}"))
            })?;
            if h < l || h as u32 >= bw {
                return Err(FrontendError::typecheck(
                    span,
                    format!("slice [{h}:{l}] out of range for width {bw}"),
                ));
            }
            Ok(Type::Bit((h - l + 1) as u32))
        }
        Expr::Unary { op, arg, .. } => {
            let at = type_of_expr(env, arg, scope)?;
            match op {
                UnaryOp::Not => {
                    if at == Type::Bool || at == Type::Poison {
                        Ok(Type::Bool)
                    } else {
                        Err(FrontendError::typecheck(span, format!("! applied to {at}"))
                            .with_code(codes::TYPE_MISMATCH))
                    }
                }
                UnaryOp::BitNot | UnaryOp::Neg => {
                    if at.is_numeric() {
                        Ok(at)
                    } else {
                        Err(FrontendError::typecheck(span, format!("operator applied to {at}"))
                            .with_code(codes::TYPE_MISMATCH))
                    }
                }
            }
        }
        Expr::Binary { op, lhs, rhs, .. } => {
            let lt = type_of_expr(env, lhs, scope)?;
            let rt = type_of_expr(env, rhs, scope)?;
            binary_type(env, *op, &lt, &rt, span)
        }
        Expr::Ternary { cond, then_e, else_e, .. } => {
            let ct = type_of_expr(env, cond, scope)?;
            if ct != Type::Bool && ct != Type::Poison {
                return Err(FrontendError::typecheck(span, "ternary condition must be bool")
                    .with_code(codes::TYPE_MISMATCH));
            }
            let tt = type_of_expr(env, then_e, scope)?;
            let et = type_of_expr(env, else_e, scope)?;
            merge_numeric(&tt, &et).ok_or_else(|| {
                FrontendError::typecheck(span, format!("ternary branches disagree: {tt} vs {et}"))
                    .with_code(codes::TYPE_MISMATCH)
            })
        }
        Expr::Cast { ty, arg, .. } => {
            // The argument must itself be well-typed (its type is then
            // discarded: P4 casts are explicit conversions).
            type_of_expr(env, arg, scope)?;
            env.resolve(ty, span)
        }
        Expr::Mask { value, .. } => type_of_expr(env, value, scope),
        Expr::Range { lo, .. } => type_of_expr(env, lo, scope),
        Expr::List { .. } => Ok(Type::Struct(Arc::from("<list>"))),
        Expr::Call { callee, type_args, args, .. } => {
            call_type(env, callee, type_args, args, scope, span)
        }
    }
}

fn member_type(env: &TypeEnv, bt: &Type, member: &str, span: Span) -> Result<Type, FrontendError> {
    match bt {
        Type::Poison => Ok(Type::Poison),
        Type::Header(n) | Type::Struct(n) => env.field_type(n, member).ok_or_else(|| {
            FrontendError::typecheck(span, format!("type {n} has no field '{member}'"))
                .with_code(codes::TYPE_BAD_MEMBER)
        }),
        Type::Stack(elem, _) => match member {
            "next" | "last" => Ok((**elem).clone()),
            "lastIndex" => Ok(Type::Bit(32)),
            "size" => Ok(Type::InfInt),
            _ => Err(FrontendError::typecheck(
                span,
                format!("header stack has no member '{member}'"),
            )
            .with_code(codes::TYPE_BAD_MEMBER)),
        },
        Type::ApplyResult { table } => match member {
            "hit" | "miss" => Ok(Type::Bool),
            "action_run" => Ok(Type::Action(table.clone())),
            _ => Err(FrontendError::typecheck(
                span,
                format!("apply result has no member '{member}'"),
            )
            .with_code(codes::TYPE_BAD_MEMBER)),
        },
        other => Err(FrontendError::typecheck(
            span,
            format!("cannot access member '{member}' on type {other}"),
        )
        .with_code(codes::TYPE_BAD_MEMBER)),
    }
}

fn binary_type(
    env: &TypeEnv,
    op: BinaryOp,
    lt: &Type,
    rt: &Type,
    span: Span,
) -> Result<Type, FrontendError> {
    use BinaryOp::*;
    if matches!(lt, Type::Poison) || matches!(rt, Type::Poison) {
        return Ok(match op {
            And | Or | Eq | Neq | Lt | Le | Gt | Ge => Type::Bool,
            _ => Type::Poison,
        });
    }
    match op {
        And | Or => {
            if *lt == Type::Bool && *rt == Type::Bool {
                Ok(Type::Bool)
            } else {
                Err(FrontendError::typecheck(span, format!("boolean operator on {lt} and {rt}"))
                    .with_code(codes::TYPE_MISMATCH))
            }
        }
        Eq | Neq => {
            if lt == rt
                || merge_numeric(lt, rt).is_some()
                || (matches!(lt, Type::Error) && matches!(rt, Type::Error))
            {
                if lt.is_equatable() || rt.is_equatable() {
                    Ok(Type::Bool)
                } else {
                    Err(FrontendError::typecheck(span, format!("cannot compare {lt}"))
                        .with_code(codes::TYPE_MISMATCH))
                }
            } else {
                Err(FrontendError::typecheck(span, format!("cannot compare {lt} with {rt}"))
                    .with_code(codes::TYPE_MISMATCH))
            }
        }
        Lt | Le | Gt | Ge => merge_numeric(lt, rt).map(|_| Type::Bool).ok_or_else(|| {
            FrontendError::typecheck(span, format!("cannot order {lt} and {rt}"))
                .with_code(codes::TYPE_MISMATCH)
        }),
        Shl | Shr => {
            if lt.is_numeric() && rt.is_numeric() {
                Ok(lt.clone())
            } else {
                Err(FrontendError::typecheck(span, format!("shift on {lt} by {rt}"))
                    .with_code(codes::TYPE_MISMATCH))
            }
        }
        Concat => {
            let (Some(lw), Some(rw)) = (lt.width(env), rt.width(env)) else {
                return Err(FrontendError::typecheck(
                    span,
                    format!("cannot concat {lt} and {rt}"),
                )
                .with_code(codes::TYPE_MISMATCH));
            };
            Ok(Type::Bit(lw + rw))
        }
        _ => merge_numeric(lt, rt).ok_or_else(|| {
            FrontendError::typecheck(span, format!("arithmetic on {lt} and {rt}"))
                .with_code(codes::TYPE_MISMATCH)
        }),
    }
}

/// Merge two numeric types (InfInt adapts to the sized operand; poison
/// merges with anything).
fn merge_numeric(a: &Type, b: &Type) -> Option<Type> {
    match (a, b) {
        (Type::Poison, _) | (_, Type::Poison) => Some(Type::Poison),
        _ if a == b && a.is_numeric() => Some(a.clone()),
        (Type::InfInt, t) if t.is_numeric() => Some(t.clone()),
        (t, Type::InfInt) if t.is_numeric() => Some(t.clone()),
        (Type::Enum { .. }, Type::Enum { .. }) if a == b => Some(a.clone()),
        (Type::Bool, Type::Bool) => Some(Type::Bool),
        _ => None,
    }
}

fn call_type(
    env: &TypeEnv,
    callee: &Expr,
    type_args: &[TypeRef],
    args: &[Expr],
    scope: &Scope,
    span: Span,
) -> Result<Type, FrontendError> {
    match callee {
        Expr::Member { base, member, .. } => {
            // Builtin methods on headers, packets, tables, stacks, externs.
            let bt = type_of_expr(env, base, scope)?;
            match (&bt, member.as_str()) {
                (Type::Poison, _) => Ok(Type::Poison),
                (Type::Header(_), "isValid") => Ok(Type::Bool),
                (Type::Header(_), "setValid" | "setInvalid") => Ok(Type::Void),
                (Type::Struct(_), "isValid") => Ok(Type::Bool), // tolerated on metadata unions
                (Type::PacketIn, "extract") => {
                    if args.is_empty() || args.len() > 2 {
                        return Err(FrontendError::typecheck(
                            span,
                            "extract takes 1 or 2 arguments",
                        )
                        .with_code(codes::TYPE_BAD_CALL));
                    }
                    let ht = type_of_expr(env, &args[0], scope)?;
                    if !matches!(ht, Type::Header(_) | Type::Poison) {
                        return Err(FrontendError::typecheck(
                            span,
                            format!("extract argument must be a header, got {ht}"),
                        )
                        .with_code(codes::TYPE_BAD_CALL));
                    }
                    Ok(Type::Void)
                }
                (Type::PacketIn, "advance") => {
                    if args.len() != 1 {
                        return Err(FrontendError::typecheck(
                            span,
                            "advance takes exactly 1 argument",
                        )
                        .with_code(codes::TYPE_BAD_CALL));
                    }
                    Ok(Type::Void)
                }
                (Type::PacketIn, "length") => Ok(Type::Bit(32)),
                (Type::PacketIn, "lookahead") => {
                    let [t] = type_args else {
                        return Err(FrontendError::typecheck(
                            span,
                            "lookahead requires one type argument",
                        )
                        .with_code(codes::TYPE_BAD_CALL));
                    };
                    env.resolve(t, span)
                }
                (Type::PacketOut, "emit") => {
                    if args.len() != 1 {
                        return Err(FrontendError::typecheck(
                            span,
                            "emit takes exactly 1 argument",
                        )
                        .with_code(codes::TYPE_BAD_CALL));
                    }
                    Ok(Type::Void)
                }
                (Type::Table(name), "apply") => Ok(Type::ApplyResult { table: name.clone() }),
                (Type::Stack(_, _), "push_front" | "pop_front") => {
                    if args.len() != 1 {
                        return Err(FrontendError::typecheck(
                            span,
                            format!("{member} takes exactly 1 argument"),
                        )
                        .with_code(codes::TYPE_BAD_CALL));
                    }
                    Ok(Type::Void)
                }
                (Type::Extern { name, type_args: targs }, m) => {
                    let sig = env.extern_method(name, targs, m).ok_or_else(|| {
                        FrontendError::typecheck(
                            span,
                            format!("extern {name} has no method '{m}'"),
                        )
                        .with_code(codes::TYPE_BAD_CALL)
                    })?;
                    check_extern_args(env, &sig, type_args, args, scope, span)
                }
                (other, m) => Err(FrontendError::typecheck(
                    span,
                    format!("no method '{m}' on type {other}"),
                )
                .with_code(codes::TYPE_BAD_CALL)),
            }
        }
        Expr::Ident { name, .. } => {
            // Extern function or action call.
            if let Some(sig) = env.extern_fn(name) {
                let sig = sig.clone();
                return check_extern_args(env, &sig, type_args, args, scope, span);
            }
            // Action calls are checked against the control's action map by
            // the statement checker; here we accept known-scoped actions.
            if let Some(Type::Action(_)) = scope.lookup(name) {
                return Ok(Type::Void);
            }
            // Direct action invocation (e.g. `my_action();`) — the lowering
            // verifies the action exists in the enclosing control.
            Ok(Type::Void)
        }
        other => Err(FrontendError::typecheck(
            span,
            format!("cannot call expression {other:?}"),
        )
        .with_code(codes::TYPE_BAD_CALL)),
    }
}

/// Check extern function arguments against a signature, binding free type
/// parameters loosely (any argument type satisfies a type variable).
fn check_extern_args(
    env: &TypeEnv,
    sig: &ExternFunction,
    type_args: &[TypeRef],
    args: &[Expr],
    scope: &Scope,
    span: Span,
) -> Result<Type, FrontendError> {
    if args.len() != sig.params.len() {
        return Err(FrontendError::typecheck(
            span,
            format!(
                "extern '{}' expects {} arguments, got {}",
                sig.name,
                sig.params.len(),
                args.len()
            ),
        )
        .with_code(codes::TYPE_BAD_CALL));
    }
    let mut bindings: HashMap<String, Type> = HashMap::new();
    for (i, tp) in sig.type_params.iter().enumerate() {
        if let Some(ta) = type_args.get(i) {
            bindings.insert(tp.clone(), env.resolve(ta, span)?);
        }
    }
    for (param, arg) in sig.params.iter().zip(args) {
        let at = type_of_expr(env, arg, scope)?;
        if matches!(param.direction, Direction::Out | Direction::InOut) && !is_lvalue(arg) {
            return Err(FrontendError::typecheck(
                span,
                format!("argument for out parameter '{}' must be an lvalue", param.name),
            )
            .with_code(codes::TYPE_NOT_LVALUE));
        }
        if let TypeRef::Named(n) = &param.ty {
            if sig.type_params.contains(n) {
                bindings.entry(n.clone()).or_insert(at);
                continue;
            }
        }
        // Fixed parameter type: permissive width check.
        let pt = env.resolve(&param.ty, span)?;
        let compatible = pt == at
            || merge_numeric(&pt, &at).is_some()
            || matches!(at, Type::Struct(ref s) if &**s == "<list>")
            || matches!(pt, Type::Varbit(_));
        if !compatible {
            return Err(FrontendError::typecheck(
                span,
                format!(
                    "extern '{}' parameter '{}' expects {pt}, got {at}",
                    sig.name, param.name
                ),
            )
            .with_code(codes::TYPE_BAD_CALL));
        }
    }
    match &sig.ret {
        TypeRef::Named(n) if sig.type_params.contains(n) => {
            bindings.get(n).cloned().ok_or_else(|| {
                FrontendError::typecheck(
                    span,
                    format!("cannot infer return type of extern '{}'", sig.name),
                )
                .with_code(codes::TYPE_BAD_CALL)
            })
        }
        other => env.resolve(other, span),
    }
}

/// Whether an expression is a valid assignment target.
pub fn is_lvalue(e: &Expr) -> bool {
    match e {
        Expr::Ident { .. } => true,
        Expr::Member { base, .. } => is_lvalue(base) || matches!(base.as_ref(), Expr::Ident { .. }),
        Expr::Index { base, .. } => is_lvalue(base),
        Expr::Slice { base, .. } => is_lvalue(base),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn check(src: &str) -> Result<CheckedProgram, Vec<Diagnostic>> {
        typecheck(parse(src).expect("parse"))
    }

    #[test]
    fn reports_multiple_independent_errors() {
        let src = r#"
            header h_t { bit<8> x; }
            control c(inout h_t h) {
                apply {
                    h.nope = 1;
                    h.also_nope = 2;
                }
            }
        "#;
        let errs = check(src).expect_err("should fail");
        assert!(errs.len() >= 2, "expected both bad fields reported: {errs:?}");
        assert!(errs.iter().all(|e| e.code == codes::TYPE_BAD_MEMBER), "{errs:?}");
    }

    #[test]
    fn poisoned_type_does_not_cascade() {
        // `nosuch_t` is unknown; uses of `m` after that must not produce
        // further diagnostics.
        let src = r#"
            control c() {
                apply {
                    nosuch_t m;
                    m = m + 1;
                    bit<8> y = m[3:0] ++ m.f;
                }
            }
        "#;
        let errs = check(src).expect_err("should fail");
        assert_eq!(errs.len(), 1, "poison should suppress cascades: {errs:?}");
        assert_eq!(errs[0].code, codes::TYPE_UNKNOWN_TYPE);
    }

    #[test]
    fn clean_program_has_no_warnings() {
        let src = r#"
            header h_t { bit<8> x; }
            control c(inout h_t h) {
                apply { h.x = 1; }
            }
        "#;
        let checked = check(src).expect("should typecheck");
        assert!(checked.warnings.is_empty());
    }

    #[test]
    fn scope_declare_without_frames_does_not_panic() {
        let mut s = Scope::default();
        s.declare("x", Type::Bool);
        assert_eq!(s.lookup("x"), Some(&Type::Bool));
    }
}
