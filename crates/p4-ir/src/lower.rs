//! Lowering from the checked AST to the IR.
//!
//! This pass performs the paper's midend transformations (§4 step 1):
//! resolving widths, flattening field paths, elaborating dynamic header-stack
//! indices into conditional chains with constant indices, splitting
//! read-modify-write slice assignments, hoisting value-returning extern calls
//! out of expressions, and assigning coverage ids to statements.
//!
//! Lowering is the only place that knows how a header, a struct of headers
//! or a header stack flattens into storage paths: it interns each header
//! instance and stack it meets into the program's layout tables, and
//! aggregate copies and local declarations take their slots from the same
//! layouts. It is also the only place that resolves block, parser-state,
//! action and table names: each parser's states and each control's actions
//! and tables are interned into the program's tables before its bodies are
//! lowered, and every reference, package arguments included, names them by
//! id.

use crate::ir::*;
use p4t_frontend::ast::{self, BinaryOp, Decl, Direction, Expr, Stmt, Transition, UnaryOp};
use p4t_frontend::error::FrontendError;
use p4t_frontend::token::Span;
use p4t_frontend::typecheck::{const_eval, type_of_expr, CheckedProgram, Scope};
use p4t_frontend::types::{Type, TypeEnv, ERROR_WIDTH};
use std::collections::HashMap;
use std::sync::Arc;

/// Lower a checked program to IR without binding any block parameters:
/// every parameter keeps its own name. [`lower_with_roots`] is the form
/// the engines run on.
pub fn lower(
    checked: &CheckedProgram,
) -> Result<IrProgram, Vec<p4t_frontend::error::Diagnostic>> {
    lower_with_roots(checked, &[])
}

/// Lower a checked program to IR, binding package block parameters to
/// pipeline state (Fig. 3). `roots[i]` lists the roots of the `i`-th
/// package argument's non-packet parameters, in order. A block passed at
/// two positions must get the same roots at both. A block with no roots
/// keeps its parameters' own names.
///
/// Lowering runs only on programs that passed typechecking, so any other
/// error here reflects a frontend/lowering disagreement; it is reported as
/// a single diagnostic for uniformity with the other stages.
pub fn lower_with_roots(
    checked: &CheckedProgram,
    roots: &[&[&str]],
) -> Result<IrProgram, Vec<p4t_frontend::error::Diagnostic>> {
    lower_inner(checked, roots).map_err(|e| vec![e])
}

fn lower_inner(checked: &CheckedProgram, roots: &[&[&str]]) -> Result<IrProgram, FrontendError> {
    let block_names: Vec<&str> = checked
        .program
        .decls()
        .filter_map(|d| match d {
            Decl::Parser(p) => Some(p.name.as_str()),
            Decl::Control(c) => Some(c.name.as_str()),
            _ => None,
        })
        .collect();
    let (package, package_args) = match checked.program.main_instantiation() {
        Some(inst) => {
            let pname = match &inst.ty {
                ast::TypeRef::Named(n) | ast::TypeRef::Generic(n, _) => n.clone(),
                _ => "main".to_string(),
            };
            let args = inst
                .args
                .iter()
                .map(|a| {
                    let callee =
                        if let Expr::Call { callee, .. } = a { callee.as_ref() } else { a };
                    let name =
                        if let Expr::Ident { name, .. } = callee { name.as_str() } else { "" };
                    let i = block_names.iter().position(|&b| b == name).ok_or_else(|| {
                        let msg = format!("package argument '{name}' names no parser or control");
                        FrontendError::typecheck(a.span(), msg)
                    })?;
                    Ok(BlockId(i as u32))
                })
                .collect::<LResult<Vec<_>>>()?;
            (pname, args)
        }
        None => (String::new(), Vec::new()),
    };
    let roots_of = |block: BlockId| -> Vec<&[&str]> {
        package_args.iter().zip(roots).filter(|(a, _)| **a == block).map(|(_, r)| *r).collect()
    };
    let mut lw = Lowerer {
        env: &checked.env,
        next_stmt: 0,
        next_temp: 0,
        statements: Vec::new(),
        block: Arc::from(""),
        headers: Vec::new(),
        header_ids: HashMap::new(),
        stacks: Vec::new(),
        stack_ids: HashMap::new(),
        states: Vec::new(),
        actions: Vec::new(),
        tables: Vec::new(),
    };
    let mut blocks = Vec::new();
    for decl in checked.program.decls() {
        let id = BlockId(blocks.len() as u32);
        match decl {
            Decl::Parser(p) => {
                blocks.push(IrBlock::Parser(lw.lower_parser(p, id, &roots_of(id))?))
            }
            Decl::Control(c) => blocks.push(IrBlock::Control(lw.lower_control(c, &roots_of(id))?)),
            _ => {}
        }
    }
    let mut prog = IrProgram {
        blocks,
        package,
        package_args,
        states: lw.states,
        statements: lw.statements,
        headers: lw.headers,
        stacks: lw.stacks,
        actions: lw.actions,
        tables: lw.tables,
        reads_parser_err: false,
    };
    prog.reads_parser_err = crate::passes::reads_parser_err(&prog);
    Ok(prog)
}

struct Lowerer<'a> {
    env: &'a TypeEnv,
    next_stmt: u32,
    next_temp: u32,
    statements: Vec<StmtInfo>,
    /// The block being lowered, shared by its statements' infos.
    block: Arc<str>,
    headers: Vec<HeaderLayout>,
    /// Keyed by path, then header type: ingress and egress may bind
    /// different header types to one root, and two actions may declare
    /// same-named locals of different types.
    header_ids: HashMap<String, Vec<(String, HeaderId)>>,
    stacks: Vec<StackLayout>,
    /// Keyed by path, then element type and declared size.
    stack_ids: HashMap<String, Vec<(String, u32, StackId)>>,
    states: Vec<IrState>,
    actions: Vec<IrAction>,
    tables: Vec<IrTable>,
}

/// Per-block lowering context: variable scoping and name mangling.
struct Ctx<'a> {
    /// Type scope for expression typing.
    scope: Scope<'a>,
    /// Local names and their mangled storage paths, innermost last.
    aliases: Vec<(&'a str, Path)>,
    /// Where each open frame's aliases start.
    alias_frames: Vec<usize>,
    /// The enclosing control's actions: id and signature.
    actions: HashMap<&'a str, (ActionId, &'a [ast::Param])>,
    /// The enclosing control's tables.
    tables: HashMap<&'a str, TableId>,
    /// True while lowering parser code (enables extract/advance/lookahead).
    in_parser: bool,
}

impl<'a> Ctx<'a> {
    fn new() -> Self {
        Ctx {
            scope: Scope::new(),
            aliases: Vec::new(),
            alias_frames: Vec::new(),
            actions: HashMap::new(),
            tables: HashMap::new(),
            in_parser: false,
        }
    }

    fn push(&mut self) {
        self.scope.push();
        self.alias_frames.push(self.aliases.len());
    }

    fn pop(&mut self) {
        self.scope.pop();
        let start = self.alias_frames.pop().unwrap_or(0);
        self.aliases.truncate(start);
    }

    fn alias_of(&self, name: &str) -> Option<&Path> {
        self.aliases.iter().rev().find(|(n, _)| *n == name).map(|(_, p)| p)
    }

    fn declare(&mut self, name: &'a str, ty: Type, path: Path) {
        self.scope.declare(name, ty);
        self.aliases.push((name, path));
    }

    fn action(&self, name: &str, span: Span) -> LResult<(ActionId, &'a [ast::Param])> {
        self.actions.get(name).copied().ok_or_else(|| {
            FrontendError::typecheck(span, format!("unknown action '{name}'"))
        })
    }

    fn table(&self, name: &str, span: Span) -> LResult<TableId> {
        self.tables.get(name).copied().ok_or_else(|| {
            FrontendError::typecheck(span, format!("unknown table '{name}'"))
        })
    }
}

type LResult<T> = Result<T, FrontendError>;

impl<'a> Lowerer<'a> {
    fn stmt_id(&mut self, describe: impl Into<String>, span: Span) -> StmtId {
        let id = StmtId(self.next_stmt);
        self.next_stmt += 1;
        self.statements.push(StmtInfo {
            id,
            block: self.block.clone(),
            line: span.start.line,
            col: span.start.col,
            end_line: span.end.line,
            end_col: span.end.col,
            describe: describe.into(),
        });
        id
    }

    fn temp(&mut self, width: u32) -> (Path, u32) {
        let p = Path::new(format!("{}::$t{}", self.block, self.next_temp));
        self.next_temp += 1;
        (p, width)
    }

    fn type_of(&self, e: &Expr, ctx: &Ctx) -> LResult<Type> {
        type_of_expr(self.env, e, &ctx.scope)
    }

    /// A table of the control being lowered; only a table lowered before
    /// the reference has its slots.
    fn table(&self, id: TableId, span: Span) -> LResult<&IrTable> {
        self.tables.get(id.0 as usize).ok_or_else(|| {
            FrontendError::typecheck(span, "table is used before its declaration")
        })
    }

    fn width_of_type(&self, t: &Type, span: Span) -> LResult<u32> {
        t.width(self.env).ok_or_else(|| {
            FrontendError::typecheck(span, format!("type {t} has no fixed width"))
        })
    }

    // ---- blocks ------------------------------------------------------------

    /// Lower a block's parameters and bind the non-packet ones, in order,
    /// to the roots of each package position the block is passed at. The
    /// returned context declares each parameter at its storage path.
    fn lower_params<'r, 'c>(
        &mut self,
        params: &'c [ast::Param],
        roots: &[&[&'r str]],
        span: Span,
    ) -> LResult<(Vec<IrParam>, Ctx<'c>)> {
        let tys = params
            .iter()
            .map(|p| self.env.resolve(&p.ty, p.span))
            .collect::<LResult<Vec<_>>>()?;
        let bind = |names: &[&'r str]| -> Vec<Option<&'r str>> {
            let mut next = names.iter();
            tys.iter()
                .map(|t| match t {
                    Type::PacketIn | Type::PacketOut => None,
                    _ => next.next().copied(),
                })
                .collect()
        };
        let mut per_position = roots.iter().map(|names| bind(names));
        let bound = per_position.next().unwrap_or_else(|| vec![None; tys.len()]);
        if per_position.any(|other| other != bound) {
            return Err(FrontendError::typecheck(
                span,
                format!("block '{}' is passed at two package positions with different roots", self.block),
            ));
        }
        let mut ctx = Ctx::new();
        let mut irparams = Vec::with_capacity(params.len());
        for ((p, ty), root) in params.iter().zip(tys).zip(bound) {
            // A bound parameter is stored at its root, so every path the
            // block touches is already global pipeline state.
            let path = Path::new(root.unwrap_or(&p.name));
            let (mut headers, mut stacks) = (Vec::new(), Vec::new());
            self.instances_of(&ty, &path, &mut headers, Some(&mut stacks))?;
            ctx.declare(&p.name, ty, path);
            irparams.push(IrParam {
                name: p.name.clone(),
                direction: p.direction,
                headers,
                stacks,
                root: root.map(str::to_string),
            });
        }
        Ok((irparams, ctx))
    }

    fn lower_parser(
        &mut self,
        p: &ast::ParserDecl,
        id: BlockId,
        roots: &[&[&str]],
    ) -> LResult<IrParser> {
        self.block = Arc::from(p.name.as_str());
        let (params, mut ctx) = self.lower_params(&p.params, roots, p.span)?;
        ctx.in_parser = true;
        // The parser's states are interned in declaration order, so every
        // transition resolves to an id before its target is lowered.
        let first = self.states.len();
        let state = |name: &str| {
            let i = p.states.iter().position(|s| s.name == name)?;
            Some(StateId((first + i) as u32))
        };
        let next = |name: &str, span: Span| match name {
            "accept" => Ok(IrNext::Accept),
            "reject" => Ok(IrNext::Reject),
            _ => state(name).map(IrNext::State).ok_or_else(|| {
                FrontendError::typecheck(span, format!("unknown parser state '{name}'"))
            }),
        };
        let start = state("start")
            .ok_or_else(|| FrontendError::typecheck(p.span, "parser has no start state"))?;
        // Parser locals.
        let mut prelude = Vec::new();
        for l in &p.locals {
            self.lower_stmt(l, &mut ctx, &mut prelude)?;
        }
        for st in &p.states {
            ctx.push();
            let mut stmts = if st.name == "start" { prelude.clone() } else { Vec::new() };
            for s in &st.stmts {
                self.lower_stmt(s, &mut ctx, &mut stmts)?;
            }
            let transition = match &st.transition {
                Transition::Direct(n) => IrTransition::Direct(next(n, st.span)?),
                Transition::Select { exprs, cases, .. } => {
                    let keys: Vec<IrExpr> = exprs
                        .iter()
                        .map(|e| self.lower_expr(e, &mut ctx, &mut stmts, None))
                        .collect::<LResult<_>>()?;
                    let mut ircases = Vec::new();
                    for c in cases {
                        let mut keysets = Vec::new();
                        if c.keys.len() == 1
                            && matches!(c.keys[0], Expr::Dontcare { .. })
                            && keys.len() > 1
                        {
                            keysets = vec![IrKeyset::Dontcare; keys.len()];
                        } else {
                            for (k, key_expr) in c.keys.iter().zip(&keys) {
                                keysets.push(self.lower_keyset(
                                    k,
                                    key_expr.width(),
                                    &mut ctx,
                                    &mut stmts,
                                )?);
                            }
                        }
                        ircases.push(IrSelectCase {
                            keysets,
                            next_state: next(&c.next_state, c.span)?,
                        });
                    }
                    IrTransition::Select { keys, cases: ircases }
                }
            };
            ctx.pop();
            self.states.push(IrState { name: st.name.clone(), parser: id, stmts, transition });
        }
        Ok(IrParser { name: p.name.clone(), params, start })
    }

    fn lower_control(&mut self, c: &ast::ControlDecl, roots: &[&[&str]]) -> LResult<IrControl> {
        self.block = Arc::from(c.name.as_str());
        let (params, mut ctx) = self.lower_params(&c.params, roots, c.span)?;
        // Intern the control's actions (a synthesized `NoAction` last) and
        // tables in declaration order before lowering any body.
        let first_action = self.actions.len();
        for (i, a) in c.actions.iter().enumerate() {
            ctx.actions.insert(&a.name, (ActionId((first_action + i) as u32), &a.params));
        }
        let synth_no_action = !ctx.actions.contains_key("NoAction");
        let no_action = ActionId((first_action + c.actions.len()) as u32);
        ctx.actions.entry("NoAction").or_insert((no_action, &[]));
        for (i, t) in c.tables.iter().enumerate() {
            ctx.tables.insert(&t.name, TableId((self.tables.len() + i) as u32));
        }
        // Instantiations (registers, counters, ...).
        let mut instances = Vec::new();
        for inst in &c.instantiations {
            let t = self.env.resolve(&inst.ty, inst.span)?;
            let (ename, widths) = match &t {
                Type::Extern { name, type_args } => {
                    let widths = type_args
                        .iter()
                        .map(|ta| ta.width(self.env).unwrap_or(0))
                        .collect();
                    (name.clone(), widths)
                }
                other => {
                    return Err(FrontendError::typecheck(
                        inst.span,
                        format!("cannot instantiate type {other}"),
                    ))
                }
            };
            let ctor_args = inst
                .args
                .iter()
                .map(|a| const_eval(self.env, a).unwrap_or(0))
                .collect();
            ctx.declare(&inst.name, t, Path::new(format!("{}::{}", c.name, inst.name)));
            instances.push(IrInstance {
                name: format!("{}::{}", c.name, inst.name),
                extern_type: ename,
                type_widths: widths,
                ctor_args,
            });
        }
        // Control locals execute before apply; lower them into a prelude.
        let mut apply = Vec::new();
        for l in &c.locals {
            self.lower_stmt(l, &mut ctx, &mut apply)?;
        }
        // Actions.
        for a in &c.actions {
            ctx.push();
            let mut params = Vec::new();
            for p in &a.params {
                let t = self.env.resolve(&p.ty, p.span)?;
                let width = self.width_of_type(&t, p.span)?;
                let path = Path::new(format!("{}::{}::{}", c.name, a.name, p.name));
                ctx.declare(&p.name, t, path.clone());
                params.push(IrActionParam { name: Arc::from(p.name.as_str()), width, path });
            }
            let mut body = Vec::new();
            for s in &a.body {
                self.lower_stmt(s, &mut ctx, &mut body)?;
            }
            ctx.pop();
            self.push_action(&c.name, &a.name, params, body);
        }
        if synth_no_action {
            self.push_action(&c.name, "NoAction", Vec::new(), Vec::new());
        }
        // Tables (need action info; keys typed in control scope).
        for t in &c.tables {
            ctx.scope.declare(&t.name, Type::Table(t.name.clone()));
            let irt = self.lower_table(t, c, &mut ctx)?;
            self.tables.push(irt);
        }
        for s in &c.apply {
            self.lower_stmt(s, &mut ctx, &mut apply)?;
        }
        Ok(IrControl { name: c.name.clone(), params, instances, apply })
    }

    fn push_action(
        &mut self,
        control: &str,
        name: &str,
        params: Vec<IrActionParam>,
        body: Vec<IrStmt>,
    ) {
        self.actions.push(IrAction {
            name: name.to_string(),
            control_plane_name: Arc::from(format!("{control}.{name}")),
            params,
            body,
        });
    }

    fn lower_table(
        &mut self,
        t: &ast::TableDecl,
        c: &ast::ControlDecl,
        ctx: &mut Ctx,
    ) -> LResult<IrTable> {
        let mut hoist = Vec::new();
        let mut keys = Vec::new();
        for k in &t.keys {
            let expr = self.lower_expr(&k.expr, ctx, &mut hoist, None)?;
            let name = ast::find_annotation(&k.annotations, "name")
                .and_then(|a| a.string_arg().map(str::to_string))
                .unwrap_or_else(|| describe_expr(&k.expr));
            let match_kind = Arc::from(k.match_kind.as_str());
            keys.push(IrTableKey { expr, match_kind, name: Arc::from(name) });
        }
        if !hoist.is_empty() {
            return Err(FrontendError::typecheck(
                t.span,
                "table keys with side effects are not supported",
            ));
        }
        let actions = t
            .actions
            .iter()
            .map(|a| {
                Ok(IrActionRef {
                    action: ctx.action(&a.name, a.span)?.0,
                    default_only: ast::find_annotation(&a.annotations, "defaultonly").is_some(),
                })
            })
            .collect::<LResult<Vec<_>>>()?;
        let (default_action, default_args, const_default) = match &t.default_action {
            Some((name, args, is_const)) => {
                let mut dargs = Vec::new();
                let (id, sig) = ctx.action(name, t.span)?;
                for (arg, p) in args.iter().zip(sig) {
                    let w = self.width_of_type(&self.env.resolve(&p.ty, p.span)?, p.span)?;
                    dargs.push(self.lower_expr(arg, ctx, &mut hoist, Some(w))?);
                }
                (id, dargs, *is_const)
            }
            None => (ctx.action("NoAction", t.span)?.0, Vec::new(), false),
        };
        let mut const_entries = Vec::new();
        for e in &t.entries {
            let mut keysets = Vec::new();
            for (k, tk) in e.keys.iter().zip(&keys) {
                keysets.push(self.lower_keyset(k, tk.expr.width(), ctx, &mut hoist)?);
            }
            let (action, sig) = ctx.action(&e.action, e.span)?;
            let mut args = Vec::new();
            for (arg, p) in e.args.iter().zip(sig) {
                let w = self.width_of_type(&self.env.resolve(&p.ty, p.span)?, p.span)?;
                args.push(self.lower_expr(arg, ctx, &mut hoist, Some(w))?);
            }
            let priority = ast::find_annotation(&e.annotations, "priority")
                .and_then(|a| a.int_arg())
                .map(|v| v as u32);
            const_entries.push(IrConstEntry { keysets, action, args, priority });
        }
        // Match order; the sort is stable, so equal priorities keep their
        // source order.
        const_entries.sort_by_key(|e| std::cmp::Reverse(e.priority.unwrap_or(0)));
        let entry_restriction = ast::find_annotation(&t.annotations, "entry_restriction")
            .and_then(|a| a.string_arg().map(str::to_string));
        let control_plane_name = ast::find_annotation(&t.annotations, "name")
            .and_then(|a| a.string_arg().map(str::to_string))
            .unwrap_or_else(|| format!("{}.{}", c.name, t.name));
        Ok(IrTable {
            name: t.name.clone(),
            control_plane_name: Arc::from(control_plane_name),
            keys,
            actions,
            default_action,
            default_args,
            const_default,
            const_entries,
            size: t.size.unwrap_or(1024),
            entry_restriction,
            annotations: t.annotations.clone(),
            hit: Path::new(format!("{}.$hit", t.name)),
            applied: Path::new(format!("{}.$applied", t.name)),
        })
    }

    // ---- statements ---------------------------------------------------------

    fn lower_stmt<'c>(
        &mut self,
        s: &'c Stmt,
        ctx: &mut Ctx<'c>,
        out: &mut Vec<IrStmt>,
    ) -> LResult<()> {
        match s {
            Stmt::Empty { .. } => Ok(()),
            Stmt::Block { stmts, .. } => {
                ctx.push();
                for st in stmts {
                    self.lower_stmt(st, ctx, out)?;
                }
                ctx.pop();
                Ok(())
            }
            Stmt::ConstDecl { ty, name, init, span } => {
                let t = self.env.resolve(ty, *span)?;
                let w = self.width_of_type(&t, *span)?;
                let path = Path::new(format!("{}::{}", self.block, name));
                let value = self.lower_expr(init, ctx, out, Some(w))?;
                let id = self.stmt_id(format!("const {name}"), *span);
                ctx.declare(name, t, path.clone());
                out.push(IrStmt::Assign { id, target: path, width: w, value });
                Ok(())
            }
            Stmt::VarDecl { ty, name, init, span } => {
                let t = self.env.resolve(ty, *span)?;
                let path = Path::new(format!("{}::{}", self.block, name));
                match &t {
                    Type::Struct(_) | Type::Header(_) => {
                        // Aggregate local: declare each leaf slot. A header
                        // local's `$valid` is not declared but starts false.
                        let id = self.stmt_id(format!("decl {name}"), *span);
                        let mut leaves = Vec::new();
                        self.leaves_of(&t, &path, &mut leaves)?;
                        let skip = usize::from(matches!(t, Type::Header(_)));
                        for (leaf, w) in leaves.into_iter().skip(skip) {
                            out.push(IrStmt::DeclVar { id, path: leaf, width: w });
                        }
                        if matches!(t, Type::Header(_)) {
                            out.push(IrStmt::Assign {
                                id,
                                target: path.valid(),
                                width: 1,
                                value: IrExpr::bool_const(false),
                            });
                        }
                        ctx.declare(name, t, path);
                        if init.is_some() {
                            return Err(FrontendError::typecheck(
                                *span,
                                "aggregate initializers are not supported",
                            ));
                        }
                    }
                    _ => {
                        let w = self.width_of_type(&t, *span)?;
                        let id = self.stmt_id(format!("decl {name}"), *span);
                        match init {
                            Some(e) => {
                                let value = self.lower_expr(e, ctx, out, Some(w))?;
                                out.push(IrStmt::Assign { id, target: path.clone(), width: w, value });
                            }
                            None => out.push(IrStmt::DeclVar { id, path: path.clone(), width: w }),
                        }
                        ctx.declare(name, t, path);
                    }
                }
                Ok(())
            }
            Stmt::Assign { lhs, rhs, span } => self.lower_assign(lhs, rhs, *span, ctx, out),
            Stmt::If { cond, then_s, else_s, span } => {
                let c = self.lower_expr(cond, ctx, out, Some(1))?;
                ctx.push();
                let then_ir = {
                    let mut v = Vec::new();
                    self.lower_stmt(then_s, ctx, &mut v)?;
                    v
                };
                ctx.pop();
                ctx.push();
                let else_ir = match else_s {
                    Some(e) => {
                        let mut v = Vec::new();
                        self.lower_stmt(e, ctx, &mut v)?;
                        v
                    }
                    None => Vec::new(),
                };
                ctx.pop();
                let id = self.stmt_id("if", *span);
                out.push(IrStmt::If { id, cond: c, then_s: then_ir, else_s: else_ir });
                Ok(())
            }
            Stmt::Switch { scrutinee, cases, span } => {
                let table = action_run_table(scrutinee).ok_or_else(|| {
                    let msg = "switch scrutinee must be table.apply().action_run";
                    FrontendError::typecheck(*span, msg)
                })?;
                let table_id = ctx.table(table, *span)?;
                let mut ircases: Vec<(Option<ActionId>, Vec<IrStmt>)> = Vec::new();
                let mut pending: Vec<Option<ActionId>> = Vec::new();
                for case in cases {
                    let label = case.label.as_ref().map(|l| ctx.action(l, case.span));
                    pending.push(label.transpose()?.map(|(id, _)| id));
                    if let Some(body) = &case.body {
                        ctx.push();
                        let mut v = Vec::new();
                        self.lower_stmt(body, ctx, &mut v)?;
                        ctx.pop();
                        for label in pending.drain(..) {
                            ircases.push((label, v.clone()));
                        }
                    }
                }
                // Trailing fallthrough labels with no body execute nothing.
                for label in pending {
                    ircases.push((label, Vec::new()));
                }
                let id = self.stmt_id(format!("switch {table}"), *span);
                out.push(IrStmt::SwitchActionRun { id, table: table_id, cases: ircases });
                Ok(())
            }
            Stmt::Exit { span } => {
                let id = self.stmt_id("exit", *span);
                out.push(IrStmt::Exit { id });
                Ok(())
            }
            Stmt::Return { span } => {
                let id = self.stmt_id("return", *span);
                out.push(IrStmt::Return { id });
                Ok(())
            }
            Stmt::Call { call, span } => self.lower_call_stmt(call, *span, ctx, out),
        }
    }

    fn lower_assign(
        &mut self,
        lhs: &Expr,
        rhs: &Expr,
        span: Span,
        ctx: &mut Ctx,
        out: &mut Vec<IrStmt>,
    ) -> LResult<()> {
        let lt = self.type_of(lhs, ctx)?;
        // Aggregate copy: field-wise.
        if let Type::Struct(_) | Type::Header(_) = &lt {
            let dst = self.lvalue_path(lhs, ctx, out)?;
            let src = self.lvalue_path(rhs, ctx, out)?;
            let id = self.stmt_id(format!("copy {dst}"), span);
            let (mut dsts, mut srcs) = (Vec::new(), Vec::new());
            self.leaves_of(&lt, &dst, &mut dsts)?;
            self.leaves_of(&lt, &src, &mut srcs)?;
            // A header's own `$valid` is copied last.
            let skip = usize::from(matches!(lt, Type::Header(_)));
            for ((d, w), (s, _)) in dsts.into_iter().zip(srcs).skip(skip) {
                out.push(IrStmt::Assign {
                    id,
                    target: d,
                    width: w,
                    value: IrExpr::Read { path: s, width: w },
                });
            }
            if matches!(lt, Type::Header(_)) {
                out.push(IrStmt::Assign {
                    id,
                    target: dst.valid(),
                    width: 1,
                    value: IrExpr::Read { path: src.valid(), width: 1 },
                });
            }
            return Ok(());
        }
        let w = self.width_of_type(&lt, span)?;
        // Slice target: read-modify-write.
        if let Expr::Slice { base, hi, lo, .. } = lhs {
            let (Some(h), Some(l)) = (const_eval(self.env, hi), const_eval(self.env, lo)) else {
                return Err(FrontendError::typecheck(span, "slice bounds must be constant"));
            };
            let (h, l) = (h as u32, l as u32);
            let bt = self.type_of(base, ctx)?;
            let bw = self.width_of_type(&bt, span)?;
            let path = self.lvalue_path(base, ctx, out)?;
            let value = self.lower_expr(rhs, ctx, out, Some(h - l + 1))?;
            let old = IrExpr::Read { path: path.clone(), width: bw };
            let mut parts: Vec<IrExpr> = Vec::new();
            if h + 1 < bw {
                parts.push(IrExpr::Slice { base: Box::new(old.clone()), hi: bw - 1, lo: h + 1 });
            }
            parts.push(value);
            if l > 0 {
                parts.push(IrExpr::Slice { base: Box::new(old), hi: l - 1, lo: 0 });
            }
            let combined = concat_all(parts);
            let id = self.stmt_id(format!("assign {path}[{h}:{l}]"), span);
            out.push(IrStmt::Assign { id, target: path, width: bw, value: combined });
            return Ok(());
        }
        let value = self.lower_expr(rhs, ctx, out, Some(w))?;
        let target = self.lvalue_path(lhs, ctx, out)?;
        let id = self.stmt_id(format!("assign {target}"), span);
        out.push(IrStmt::Assign { id, target, width: w, value });
        Ok(())
    }

    /// Resolve an l-value expression to a flattened path. Dynamic stack
    /// indices are rejected here; callers that support them elaborate first.
    #[allow(clippy::only_used_in_recursion)]
    fn lvalue_path(&mut self, e: &Expr, ctx: &mut Ctx, out: &mut Vec<IrStmt>) -> LResult<Path> {
        match e {
            Expr::Ident { name, span } => match ctx.alias_of(name) {
                Some(p) => Ok(p.clone()),
                None => Err(FrontendError::typecheck(*span, format!("unknown variable '{name}'"))),
            },
            Expr::Member { base, member, span } => {
                let bt = self.type_of(base, ctx)?;
                match (&bt, member.as_str()) {
                    (Type::Stack(_, n), "next" | "last") => {
                        // Elaborated by callers (extract); for reads we build
                        // a mux chain elsewhere. As a path this is only valid
                        // when the index is statically known — reject.
                        let _ = n;
                        Err(FrontendError::typecheck(
                            *span,
                            "stack .next/.last cannot be used as a plain l-value here",
                        ))
                    }
                    _ => {
                        let bp = self.lvalue_path(base, ctx, out)?;
                        Ok(bp.child(member))
                    }
                }
            }
            Expr::Index { base, index, span } => {
                let bp = self.lvalue_path(base, ctx, out)?;
                match const_eval(self.env, index) {
                    Some(i) => Ok(bp.indexed(i as u32)),
                    None => Err(FrontendError::typecheck(
                        *span,
                        "dynamic stack index as assignment target is not supported",
                    )),
                }
            }
            other => Err(FrontendError::typecheck(
                other.span(),
                "expression is not a valid l-value",
            )),
        }
    }

    // ---- layouts -------------------------------------------------------------

    /// Leaf scalar slots `(path, width)` of a value of type `ty` at
    /// `base`, in declaration order: nested structs, stacks (`$next`
    /// first) and headers, each header's slots taken from its interned
    /// layout (`$valid`, then each field and a varbit's `$len`).
    fn leaves_of(&mut self, ty: &Type, base: &Path, out: &mut Vec<(Path, u32)>) -> LResult<()> {
        match ty {
            Type::Header(hn) => {
                let id = self.header_id(hn, base)?;
                self.header_leaves(id, out);
            }
            Type::Struct(sn) => {
                let env = self.env;
                let fields = env.fields_of(sn).ok_or_else(|| {
                    FrontendError::typecheck(Span::default(), format!("unknown aggregate '{sn}'"))
                })?;
                for f in fields {
                    self.leaves_of(&f.ty, &base.child(&f.name), out)?;
                }
            }
            Type::Stack(elem, n) => {
                if let Type::Header(hn) = elem.as_ref() {
                    let id = self.stack_id(hn, *n, base)?;
                    let stack = &self.stacks[id.0 as usize];
                    out.push((stack.next.clone(), 32));
                    for &e in &stack.elements {
                        self.header_leaves(e, out);
                    }
                }
            }
            t => {
                let w = t.width(self.env).ok_or_else(|| {
                    FrontendError::typecheck(Span::default(), format!("field {base} has no width"))
                })?;
                out.push((base.clone(), w));
            }
        }
        Ok(())
    }

    fn header_leaves(&self, id: HeaderId, out: &mut Vec<(Path, u32)>) {
        let h = &self.headers[id.0 as usize];
        out.push((h.valid.clone(), 1));
        for f in &h.fields {
            out.push((f.path.clone(), f.width));
            out.extend(f.varbit_len.iter().map(|len| (len.clone(), 32)));
        }
    }

    /// The id of the header instance of type `type_name` at `path`,
    /// interning its layout on first use. A path holds one layout per
    /// header type that is stored at it.
    fn header_id(&mut self, type_name: &str, path: &Path) -> LResult<HeaderId> {
        let known = self.header_ids.get(path.as_str()).into_iter().flatten();
        if let Some(&(_, id)) = known.into_iter().find(|(t, _)| t == type_name) {
            return Ok(id);
        }
        let env = self.env;
        let decl = env.fields_of(type_name).ok_or_else(|| {
            FrontendError::typecheck(Span::default(), format!("unknown header type '{type_name}'"))
        })?;
        let mut fields = Vec::with_capacity(decl.len());
        for f in decl {
            let fp = path.child(&f.name);
            let (width, varbit_len) = match &f.ty {
                Type::Varbit(max) => (*max, Some(fp.child("$len"))),
                t => (t.width(env).ok_or_else(|| {
                    FrontendError::typecheck(Span::default(), format!("field {fp} has no width"))
                })?, None),
            };
            if width > 0 {
                fields.push(FieldLayout { path: fp, width, varbit_len });
            }
        }
        let id = HeaderId(self.headers.len() as u32);
        self.headers.push(HeaderLayout { path: path.clone(), valid: path.valid(), fields });
        self.header_ids.entry(path.0.clone()).or_default().push((type_name.to_string(), id));
        Ok(id)
    }

    /// The id of the stack of `n` headers of type `elem` at `path`,
    /// interning its layout (and its elements') on first use.
    fn stack_id(&mut self, elem: &str, n: u32, path: &Path) -> LResult<StackId> {
        let known = self.stack_ids.get(path.as_str()).into_iter().flatten();
        if let Some(&(_, _, id)) = known.into_iter().find(|(t, m, _)| t == elem && *m == n) {
            return Ok(id);
        }
        let elements = (0..n)
            .map(|i| self.header_id(elem, &path.indexed(i)))
            .collect::<LResult<_>>()?;
        let id = StackId(self.stacks.len() as u32);
        self.stacks.push(StackLayout { path: path.clone(), next: path.next_index(), elements });
        self.stack_ids.entry(path.0.clone()).or_default().push((elem.to_string(), n, id));
        Ok(id)
    }

    /// Push the header instances below a value of type `ty` at `base` onto
    /// `headers`, in declaration order. Each stack goes onto `stacks` when
    /// that is given; otherwise its elements go onto `headers` in place
    /// (the order a deparser emits them in).
    fn instances_of(
        &mut self,
        ty: &Type,
        base: &Path,
        headers: &mut Vec<HeaderId>,
        mut stacks: Option<&mut Vec<StackId>>,
    ) -> LResult<()> {
        match ty {
            Type::Header(hn) => headers.push(self.header_id(hn, base)?),
            Type::Struct(sn) => {
                let env = self.env;
                let fields = env.fields_of(sn).ok_or_else(|| {
                    FrontendError::typecheck(Span::default(), format!("unknown struct {sn}"))
                })?;
                // Only an aggregate field can hold a header.
                for f in fields {
                    if matches!(f.ty, Type::Header(_) | Type::Struct(_) | Type::Stack(..)) {
                        let fp = base.child(&f.name);
                        self.instances_of(&f.ty, &fp, headers, stacks.as_deref_mut())?;
                    }
                }
            }
            Type::Stack(elem, n) => {
                if let Type::Header(hn) = elem.as_ref() {
                    let id = self.stack_id(hn, *n, base)?;
                    match stacks {
                        Some(stacks) => stacks.push(id),
                        None => headers.extend_from_slice(&self.stacks[id.0 as usize].elements),
                    }
                }
            }
            _ => {}
        }
        Ok(())
    }

    // ---- calls ---------------------------------------------------------------

    /// `args[i]`, or a diagnostic instead of a panic. The typechecker
    /// enforces builtin-method arity before lowering runs, so this firing
    /// means a checker gap — report it rather than crashing.
    fn arg<'e>(args: &'e [Expr], i: usize, span: Span, what: &str) -> LResult<&'e Expr> {
        args.get(i).ok_or_else(|| {
            FrontendError::typecheck(span, format!("{what} is missing argument {}", i + 1))
        })
    }

    fn lower_call_stmt(
        &mut self,
        call: &Expr,
        span: Span,
        ctx: &mut Ctx,
        out: &mut Vec<IrStmt>,
    ) -> LResult<()> {
        let Expr::Call { callee, args, type_args: _, .. } = call else {
            return Err(FrontendError::typecheck(span, "expected call"));
        };
        match callee.as_ref() {
            Expr::Member { base, member, .. } => {
                let bt = self.type_of(base, ctx)?;
                match (&bt, member.as_str()) {
                    (Type::PacketIn, "extract") => self.lower_extract(args, span, ctx, out),
                    (Type::PacketIn, "advance") => {
                        let bits_arg = Self::arg(args, 0, span, "advance")?;
                        let bits = self.lower_expr(bits_arg, ctx, out, Some(32))?;
                        let id = self.stmt_id("advance", span);
                        out.push(IrStmt::Advance { id, bits });
                        Ok(())
                    }
                    (Type::PacketOut, "emit") => {
                        let target = Self::arg(args, 0, span, "emit")?;
                        let ht = self.type_of(target, ctx)?;
                        let hp = self.lvalue_path(target, ctx, out)?;
                        if !matches!(ht, Type::Header(_) | Type::Struct(_) | Type::Stack(..)) {
                            return Err(FrontendError::typecheck(
                                span,
                                format!("cannot emit value of type {ht}"),
                            ));
                        }
                        let id = self.stmt_id(format!("emit {hp}"), span);
                        // Emit each nested header in declaration order.
                        let mut headers = Vec::new();
                        self.instances_of(&ht, &hp, &mut headers, None)?;
                        out.extend(headers.into_iter().map(|header| IrStmt::Emit { id, header }));
                        Ok(())
                    }
                    (Type::Header(_), "setValid" | "setInvalid") => {
                        let hp = self.lvalue_path(base, ctx, out)?;
                        let valid = member == "setValid";
                        let id = self.stmt_id(format!("{member} {hp}"), span);
                        out.push(IrStmt::SetValid { id, header: hp, valid });
                        Ok(())
                    }
                    (Type::Table(tname), "apply") => {
                        let table = ctx.table(tname, span)?;
                        let id = self.stmt_id(format!("apply {tname}"), span);
                        out.push(IrStmt::ApplyTable { id, table });
                        Ok(())
                    }
                    (Type::Stack(elem, n), "push_front" | "pop_front") => {
                        let Type::Header(hn) = elem.as_ref() else {
                            return Err(FrontendError::typecheck(span, "stack of non-headers"));
                        };
                        let sp = self.lvalue_path(base, ctx, out)?;
                        let stack = self.stack_id(hn, *n, &sp)?;
                        let count =
                            args.first().and_then(|a| const_eval(self.env, a)).unwrap_or(1) as u32;
                        let id = self.stmt_id(format!("{member} {sp}"), span);
                        out.push(IrStmt::StackOp { id, stack, push: member == "push_front", count });
                        Ok(())
                    }
                    (Type::Extern { name, type_args }, m) => {
                        let sig = self.env.extern_method(name, type_args, m).ok_or_else(|| {
                            FrontendError::typecheck(span, format!("unknown method {m} on {name}"))
                        })?;
                        let inst = match base.as_ref() {
                            Expr::Ident { name, .. } => ctx
                                .alias_of(name)
                                .map(|p| p.as_str().to_string())
                                .unwrap_or_else(|| name.clone()),
                            _ => String::new(),
                        };
                        let irargs = self.lower_extern_args(&sig.params, args, ctx, out)?;
                        let id = self.stmt_id(format!("extern {m}"), span);
                        out.push(IrStmt::ExternCall {
                            id,
                            name: m.to_string(),
                            instance: Some(inst),
                            args: irargs,
                        });
                        Ok(())
                    }
                    (other, m) => Err(FrontendError::typecheck(
                        span,
                        format!("cannot call method {m} on {other}"),
                    )),
                }
            }
            Expr::Ident { name, .. } => {
                // verify() is core-P4 in parsers.
                if name == "verify" && args.len() == 2 {
                    let cond = self.lower_expr(&args[0], ctx, out, Some(1))?;
                    let code = const_eval(self.env, &args[1]).unwrap_or(0);
                    let id = self.stmt_id("verify", span);
                    let err_call = IrStmt::ExternCall {
                        id,
                        name: "$parser_error".to_string(),
                        instance: None,
                        args: vec![IrArg::In(IrExpr::Const { width: ERROR_WIDTH, value: code })],
                    };
                    out.push(IrStmt::If {
                        id,
                        cond: IrExpr::Unary { op: IrUnOp::Not, arg: Box::new(cond), width: 1 },
                        then_s: vec![err_call],
                        else_s: Vec::new(),
                    });
                    return Ok(());
                }
                if let Some(&(action, sig)) = ctx.actions.get(name.as_str()) {
                    // Direct action call with value arguments.
                    let mut irargs = Vec::new();
                    for (arg, p) in args.iter().zip(sig) {
                        let t = self.env.resolve(&p.ty, p.span)?;
                        let w = self.width_of_type(&t, p.span)?;
                        irargs.push(self.lower_expr(arg, ctx, out, Some(w))?);
                    }
                    let id = self.stmt_id(format!("call {name}"), span);
                    out.push(IrStmt::CallAction { id, action, args: irargs });
                    return Ok(());
                }
                if let Some(sig) = self.env.extern_fn(name).cloned() {
                    let irargs = self.lower_extern_args(&sig.params, args, ctx, out)?;
                    let id = self.stmt_id(format!("extern {name}"), span);
                    out.push(IrStmt::ExternCall { id, name: name.clone(), instance: None, args: irargs });
                    return Ok(());
                }
                Err(FrontendError::typecheck(span, format!("unknown function '{name}'")))
            }
            other => Err(FrontendError::typecheck(
                span,
                format!("cannot lower call to {other:?}"),
            )),
        }
    }

    fn lower_extract(
        &mut self,
        args: &[Expr],
        span: Span,
        ctx: &mut Ctx,
        out: &mut Vec<IrStmt>,
    ) -> LResult<()> {
        let varbit_len = if args.len() == 2 {
            Some(self.lower_expr(&args[1], ctx, out, Some(32))?)
        } else {
            None
        };
        let target = Self::arg(args, 0, span, "extract")?;
        // extract(stack.next): elaborate into a conditional chain over the
        // constant indices (the paper's midend transformation).
        if let Expr::Member { base, member, .. } = target {
            let bt = self.type_of(base, ctx)?;
            if let (Type::Stack(elem, n), "next") = (&bt, member.as_str()) {
                let n = *n;
                let Type::Header(elem_ty) = elem.as_ref().clone() else {
                    return Err(FrontendError::typecheck(span, "stack of non-headers"));
                };
                let sp = self.lvalue_path(base, ctx, out)?;
                let stack = self.stack_id(&elem_ty, n, &sp)?;
                let id = self.stmt_id(format!("extract {sp}.next"), span);
                let next = IrExpr::Read { path: sp.next_index(), width: 32 };
                // else-branch: StackOutOfBounds parser error.
                let overflow = vec![IrStmt::ExternCall {
                    id,
                    name: "$parser_error".to_string(),
                    instance: None,
                    args: vec![IrArg::In(IrExpr::Const {
                        width: ERROR_WIDTH,
                        value: self.env.error_code("StackOutOfBounds").unwrap_or(3) as u128,
                    })],
                }];
                let mut chain = overflow;
                for i in (0..n).rev() {
                    let cond = IrExpr::Binary {
                        op: IrBinOp::Eq,
                        lhs: Box::new(next.clone()),
                        rhs: Box::new(IrExpr::Const { width: 32, value: i as u128 }),
                        width: 1,
                    };
                    let body = vec![
                        IrStmt::Extract {
                            id,
                            header: self.stacks[stack.0 as usize].elements[i as usize],
                            varbit_len: varbit_len.clone(),
                        },
                        IrStmt::Assign {
                            id,
                            target: sp.next_index(),
                            width: 32,
                            value: IrExpr::Const { width: 32, value: (i + 1) as u128 },
                        },
                    ];
                    chain = vec![IrStmt::If { id, cond, then_s: body, else_s: chain }];
                }
                out.extend(chain);
                return Ok(());
            }
        }
        let Type::Header(hty) = self.type_of(target, ctx)? else {
            return Err(FrontendError::typecheck(span, "extract target must be a header"));
        };
        let hp = self.lvalue_path(target, ctx, out)?;
        let header = self.header_id(&hty, &hp)?;
        let id = self.stmt_id(format!("extract {hp}"), span);
        out.push(IrStmt::Extract { id, header, varbit_len });
        Ok(())
    }

    fn lower_extern_args(
        &mut self,
        params: &[ast::Param],
        args: &[Expr],
        ctx: &mut Ctx,
        out: &mut Vec<IrStmt>,
    ) -> LResult<Vec<IrArg>> {
        let mut irargs = Vec::new();
        for (p, a) in params.iter().zip(args) {
            let at = self.type_of(a, ctx)?;
            match p.direction {
                Direction::Out | Direction::InOut => match &at {
                    Type::Struct(_) | Type::Header(_) => {
                        let path = self.lvalue_path(a, ctx, out)?;
                        irargs.push(IrArg::Ref(path));
                    }
                    t => {
                        let w = self.width_of_type(t, p.span)?;
                        let path = self.lvalue_path(a, ctx, out)?;
                        irargs.push(IrArg::Out(path, w));
                    }
                },
                _ => match a {
                    Expr::List { items, .. } => {
                        let mut parts = Vec::new();
                        for item in items {
                            parts.push(self.lower_expr(item, ctx, out, None)?);
                        }
                        irargs.push(IrArg::InList(parts));
                    }
                    _ => match &at {
                        Type::Struct(_) | Type::Header(_) => {
                            let path = self.lvalue_path(a, ctx, out)?;
                            irargs.push(IrArg::Ref(path));
                        }
                        _ => {
                            let e = self.lower_expr(a, ctx, out, None)?;
                            irargs.push(IrArg::In(e));
                        }
                    },
                },
            }
        }
        Ok(irargs)
    }

    // ---- expressions ----------------------------------------------------------

    fn lower_keyset(
        &mut self,
        e: &Expr,
        width: u32,
        ctx: &mut Ctx,
        out: &mut Vec<IrStmt>,
    ) -> LResult<IrKeyset> {
        Ok(match e {
            Expr::Dontcare { .. } => IrKeyset::Dontcare,
            Expr::Mask { value, mask, .. } => IrKeyset::Mask {
                value: self.lower_expr(value, ctx, out, Some(width))?,
                mask: self.lower_expr(mask, ctx, out, Some(width))?,
            },
            Expr::Range { lo, hi, .. } => IrKeyset::Range {
                lo: self.lower_expr(lo, ctx, out, Some(width))?,
                hi: self.lower_expr(hi, ctx, out, Some(width))?,
            },
            other => IrKeyset::Exact(self.lower_expr(other, ctx, out, Some(width))?),
        })
    }

    fn lower_expr(
        &mut self,
        e: &Expr,
        ctx: &mut Ctx,
        out: &mut Vec<IrStmt>,
        ctx_width: Option<u32>,
    ) -> LResult<IrExpr> {
        let span = e.span();
        match e {
            Expr::Int { value, width, .. } => {
                let w = width
                    .or(ctx_width)
                    .ok_or_else(|| {
                        FrontendError::typecheck(span, "cannot infer width of integer literal")
                    })?;
                let masked = if w >= 128 { *value } else { *value & ((1u128 << w) - 1) };
                Ok(IrExpr::Const { width: w, value: masked })
            }
            Expr::Bool { value, .. } => Ok(IrExpr::bool_const(*value)),
            Expr::Str { .. } => Err(FrontendError::typecheck(span, "string in expression")),
            Expr::Dontcare { .. } => Err(FrontendError::typecheck(span, "dontcare in expression")),
            Expr::Ident { name, .. } => {
                if let Some(p) = ctx.alias_of(name) {
                    let t = ctx.scope.lookup(name).ok_or_else(|| {
                        FrontendError::typecheck(span, format!("untyped name '{name}'"))
                    })?;
                    let w = self.width_of_type(t, span)?;
                    return Ok(IrExpr::Read { path: p.clone(), width: w });
                }
                if let Some((t, v)) = self.env.constant(name) {
                    let w = t.width(self.env).or(ctx_width).unwrap_or(32);
                    return Ok(IrExpr::Const { width: w, value: *v });
                }
                Err(FrontendError::typecheck(span, format!("unknown name '{name}'")))
            }
            Expr::Member { base, member, .. } => {
                // error.X
                if let Expr::Ident { name, .. } = base.as_ref() {
                    if name == "error" {
                        let code = self.env.error_code(member).ok_or_else(|| {
                            FrontendError::typecheck(span, format!("unknown error {member}"))
                        })?;
                        return Ok(IrExpr::Const { width: ERROR_WIDTH, value: code as u128 });
                    }
                    if ctx.scope.lookup(name).is_none() {
                        if let Some((v, repr)) = self.env.enum_value(name, member) {
                            return Ok(IrExpr::Const { width: repr, value: v });
                        }
                    }
                }
                let bt = self.type_of(base, ctx)?;
                // `t.apply().hit` / `.miss`: lower the base (hoisting the
                // ApplyTable statement), then read the synthetic hit slot.
                if let Type::ApplyResult { table } = &bt {
                    let table = ctx.table(table, span)?;
                    let _ = self.lower_expr(base, ctx, out, Some(1))?;
                    let hit = IrExpr::Read { path: self.table(table, span)?.hit.clone(), width: 1 };
                    return Ok(match member.as_str() {
                        "hit" => hit,
                        "miss" => IrExpr::Unary { op: IrUnOp::Not, arg: Box::new(hit), width: 1 },
                        other => {
                            return Err(FrontendError::typecheck(
                                span,
                                format!("unknown apply-result member '{other}'"),
                            ))
                        }
                    });
                }
                match (&bt, member.as_str()) {
                    (Type::Stack(elem, n), "last") => {
                        let ew = self.width_of_type(elem, span)?;
                        let sp = self.lvalue_path(base, ctx, out)?;
                        Ok(stack_mux(&sp, *n, ew, true, |el| IrExpr::Read { path: el, width: ew }))
                    }
                    (Type::Stack(_, _), "lastIndex") => {
                        let sp = self.lvalue_path(base, ctx, out)?;
                        Ok(IrExpr::Binary {
                            op: IrBinOp::Sub,
                            lhs: Box::new(IrExpr::Read { path: sp.next_index(), width: 32 }),
                            rhs: Box::new(IrExpr::Const { width: 32, value: 1 }),
                            width: 32,
                        })
                    }
                    (Type::Stack(_, n), "size") => {
                        Ok(IrExpr::Const { width: ctx_width.unwrap_or(32), value: *n as u128 })
                    }
                    _ => {
                        // Field read through `stack.last.field` / `.next.field`:
                        // mux chain over the constant element indices.
                        if let Some((sp, n, last)) = self.stack_cursor(base, ctx, out)? {
                            let t = type_of_expr(self.env, e, &ctx.scope)?;
                            let w = self.width_of_type(&t, span)?;
                            return Ok(stack_mux(&sp, n, w, last, |el| IrExpr::Read {
                                path: el.child(member),
                                width: w,
                            }));
                        }
                        let t = type_of_expr(self.env, e, &ctx.scope)?;
                        let w = self.width_of_type(&t, span)?;
                        let p = self.lvalue_path(e, ctx, out)?;
                        Ok(IrExpr::Read { path: p, width: w })
                    }
                }
            }
            Expr::Index { base, index, .. } => {
                let bt = self.type_of(base, ctx)?;
                let Type::Stack(elem, n) = &bt else {
                    return Err(FrontendError::typecheck(span, "index on non-stack"));
                };
                let ew = self.width_of_type(elem, span)?;
                let sp = self.lvalue_path(base, ctx, out)?;
                match const_eval(self.env, index) {
                    Some(i) => {
                        // Whole-header reads are rare; read as concatenation of
                        // fields is not needed — field access continues below
                        // via lvalue_path, so a direct Read of the element
                        // path only appears for scalar stacks.
                        Ok(IrExpr::Read { path: sp.indexed(i as u32), width: ew })
                    }
                    None => {
                        // Dynamic index read: mux chain over constant indices.
                        let idx = self.lower_expr(index, ctx, out, Some(32))?;
                        let mut acc = IrExpr::Const { width: ew, value: 0 };
                        for i in (0..*n).rev() {
                            let cond = IrExpr::Binary {
                                op: IrBinOp::Eq,
                                lhs: Box::new(idx.clone()),
                                rhs: Box::new(IrExpr::Const {
                                    width: idx.width(),
                                    value: i as u128,
                                }),
                                width: 1,
                            };
                            acc = IrExpr::Mux {
                                cond: Box::new(cond),
                                then_e: Box::new(IrExpr::Read {
                                    path: sp.indexed(i),
                                    width: ew,
                                }),
                                else_e: Box::new(acc),
                                width: ew,
                            };
                        }
                        Ok(acc)
                    }
                }
            }
            Expr::Slice { base, hi, lo, .. } => {
                let (Some(h), Some(l)) = (const_eval(self.env, hi), const_eval(self.env, lo))
                else {
                    return Err(FrontendError::typecheck(span, "slice bounds must be constant"));
                };
                let b = self.lower_expr(base, ctx, out, None)?;
                Ok(IrExpr::Slice { base: Box::new(b), hi: h as u32, lo: l as u32 })
            }
            Expr::Unary { op, arg, .. } => {
                let a = self.lower_expr(arg, ctx, out, ctx_width)?;
                let w = a.width();
                Ok(match op {
                    UnaryOp::Not | UnaryOp::BitNot => {
                        IrExpr::Unary { op: IrUnOp::Not, arg: Box::new(a), width: w }
                    }
                    UnaryOp::Neg => IrExpr::Unary { op: IrUnOp::Neg, arg: Box::new(a), width: w },
                })
            }
            Expr::Binary { op, lhs, rhs, .. } => self.lower_binary(*op, lhs, rhs, ctx, out, ctx_width, span),
            Expr::Ternary { cond, then_e, else_e, .. } => {
                let c = self.lower_expr(cond, ctx, out, Some(1))?;
                let t = self.lower_expr(then_e, ctx, out, ctx_width)?;
                let f = self.lower_expr(else_e, ctx, out, Some(t.width()))?;
                let w = t.width();
                Ok(IrExpr::Mux { cond: Box::new(c), then_e: Box::new(t), else_e: Box::new(f), width: w })
            }
            Expr::Cast { ty, arg, .. } => {
                let to = self.env.resolve(ty, span)?;
                let tw = self.width_of_type(&to, span)?;
                let at = self.type_of(arg, ctx)?;
                let a = self.lower_expr(arg, ctx, out, Some(tw))?;
                if a.width() == tw {
                    return Ok(a);
                }
                match at {
                    Type::Int(_) => Ok(IrExpr::SignCast { arg: Box::new(a), width: tw }),
                    Type::Bool => Ok(IrExpr::Cast { arg: Box::new(a), width: tw }),
                    _ => Ok(IrExpr::Cast { arg: Box::new(a), width: tw }),
                }
            }
            Expr::Call { callee, type_args, args, .. } => {
                // Expression-position calls: isValid, lookahead, table.apply()
                // member reads, and value-returning extern methods (hoisted).
                if let Expr::Member { base, member, .. } = callee.as_ref() {
                    let bt = self.type_of(base, ctx)?;
                    match (&bt, member.as_str()) {
                        (Type::Header(_), "isValid") => {
                            if let Some((sp, n, last)) = self.stack_cursor(base, ctx, out)? {
                                return Ok(stack_mux(&sp, n, 1, last, |el| IrExpr::IsValid {
                                    path: el,
                                }));
                            }
                            let hp = self.lvalue_path(base, ctx, out)?;
                            return Ok(IrExpr::IsValid { path: hp });
                        }
                        (Type::PacketIn, "lookahead") => {
                            let ta = type_args.first().ok_or_else(|| {
                                FrontendError::typecheck(
                                    span,
                                    "lookahead requires one type argument",
                                )
                            })?;
                            let t = self.env.resolve(ta, span)?;
                            let w = self.width_of_type(&t, span)?;
                            return Ok(IrExpr::Lookahead { width: w });
                        }
                        (Type::PacketIn, "length") => {
                            return Ok(IrExpr::Read { path: Path::new("$packet_length"), width: 32 });
                        }
                        (Type::Table(tname), "apply") => {
                            // `t.apply().hit` — apply, then read synthetic slot.
                            let table = ctx.table(tname, span)?;
                            let id = self.stmt_id(format!("apply {tname}"), span);
                            out.push(IrStmt::ApplyTable { id, table });
                            let path = self.table(table, span)?.applied.clone();
                            return Ok(IrExpr::Read { path, width: 1 });
                        }
                        (Type::Extern { name, type_args: targs }, m) => {
                            let sig = self.env.extern_method(name, targs, m).ok_or_else(|| {
                                FrontendError::typecheck(span, format!("unknown method {m}"))
                            })?;
                            let ret = self.env.resolve(&sig.ret, span)?;
                            let w = self.width_of_type(&ret, span)?;
                            let (tmp, tw) = self.temp(w);
                            let inst = match base.as_ref() {
                                Expr::Ident { name, .. } => ctx
                                    .alias_of(name)
                                    .map(|p| p.as_str().to_string())
                                    .unwrap_or_else(|| name.clone()),
                                _ => String::new(),
                            };
                            let mut irargs =
                                self.lower_extern_args(&sig.params, args, ctx, out)?;
                            irargs.push(IrArg::Out(tmp.clone(), tw));
                            let id = self.stmt_id(format!("extern {m}"), span);
                            out.push(IrStmt::ExternCall {
                                id,
                                name: m.to_string(),
                                instance: Some(inst),
                                args: irargs,
                            });
                            return Ok(IrExpr::Read { path: tmp, width: tw });
                        }
                        _ => {}
                    }
                }
                // Member-access on an apply result: `t.apply().hit` parses as
                // Member(Call(...)) and is handled in Expr::Member above via
                // typing; handle extern functions returning values here.
                if let Expr::Ident { name, .. } = callee.as_ref() {
                    if let Some(sig) = self.env.extern_fn(name).cloned() {
                        let ret_t = self.env.resolve(&sig.ret, span).ok();
                        let w = ret_t
                            .as_ref()
                            .and_then(|t| t.width(self.env))
                            .or(ctx_width)
                            .unwrap_or(32);
                        let (tmp, tw) = self.temp(w);
                        let mut irargs = self.lower_extern_args(&sig.params, args, ctx, out)?;
                        irargs.push(IrArg::Out(tmp.clone(), tw));
                        let id = self.stmt_id(format!("extern {name}"), span);
                        out.push(IrStmt::ExternCall {
                            id,
                            name: name.clone(),
                            instance: None,
                            args: irargs,
                        });
                        return Ok(IrExpr::Read { path: tmp, width: tw });
                    }
                }
                Err(FrontendError::typecheck(span, "unsupported call in expression"))
            }
            Expr::List { .. } | Expr::Mask { .. } | Expr::Range { .. } => {
                Err(FrontendError::typecheck(span, "expression form not allowed here"))
            }
        }
    }

    /// `stack.last` / `stack.next` as (stack path, stack size, whether it
    /// is `last`); `None` for any other expression.
    fn stack_cursor(
        &mut self,
        e: &Expr,
        ctx: &mut Ctx,
        out: &mut Vec<IrStmt>,
    ) -> LResult<Option<(Path, u32, bool)>> {
        let Expr::Member { base, member, .. } = e else { return Ok(None) };
        if member != "last" && member != "next" {
            return Ok(None);
        }
        let Type::Stack(_, n) = self.type_of(base, ctx)? else { return Ok(None) };
        let sp = self.lvalue_path(base, ctx, out)?;
        Ok(Some((sp, n, member == "last")))
    }

    #[allow(clippy::too_many_arguments)]
    fn lower_binary(
        &mut self,
        op: BinaryOp,
        lhs: &Expr,
        rhs: &Expr,
        ctx: &mut Ctx,
        out: &mut Vec<IrStmt>,
        ctx_width: Option<u32>,
        span: Span,
    ) -> LResult<IrExpr> {
        let lt = self.type_of(lhs, ctx)?;
        let rt = self.type_of(rhs, ctx)?;
        let signed = matches!(lt, Type::Int(_)) || matches!(rt, Type::Int(_));
        // Operand width: prefer the sized side.
        let operand_width = lt
            .width(self.env)
            .or_else(|| rt.width(self.env))
            .or(match op {
                BinaryOp::And | BinaryOp::Or => Some(1),
                _ => ctx_width,
            });
        let (l, r) = match op {
            BinaryOp::Shl | BinaryOp::Shr => {
                let l = self.lower_expr(lhs, ctx, out, ctx_width)?;
                let lw = l.width();
                let mut r = self.lower_expr(rhs, ctx, out, Some(lw))?;
                // Normalize shift amount width to the left operand's.
                if r.width() != lw {
                    r = IrExpr::Cast { arg: Box::new(r), width: lw };
                }
                (l, r)
            }
            BinaryOp::Concat => {
                let l = self.lower_expr(lhs, ctx, out, None)?;
                let r = self.lower_expr(rhs, ctx, out, None)?;
                (l, r)
            }
            _ => {
                let l = self.lower_expr(lhs, ctx, out, operand_width)?;
                let r = self.lower_expr(rhs, ctx, out, Some(l.width()))?;
                (l, r)
            }
        };
        let w = l.width();
        let irop = match op {
            BinaryOp::Add => IrBinOp::Add,
            BinaryOp::Sub => IrBinOp::Sub,
            BinaryOp::Mul => IrBinOp::Mul,
            BinaryOp::Div => IrBinOp::Div,
            BinaryOp::Mod => IrBinOp::Mod,
            BinaryOp::BitAnd => IrBinOp::And,
            BinaryOp::BitOr => IrBinOp::Or,
            BinaryOp::BitXor => IrBinOp::Xor,
            BinaryOp::And => IrBinOp::And,
            BinaryOp::Or => IrBinOp::Or,
            BinaryOp::Shl => IrBinOp::Shl,
            BinaryOp::Shr => {
                if signed {
                    IrBinOp::AShr
                } else {
                    IrBinOp::Shr
                }
            }
            BinaryOp::Eq => IrBinOp::Eq,
            BinaryOp::Neq => IrBinOp::Neq,
            BinaryOp::Lt => {
                if signed {
                    IrBinOp::Slt
                } else {
                    IrBinOp::Ult
                }
            }
            BinaryOp::Le => {
                if signed {
                    IrBinOp::Sle
                } else {
                    IrBinOp::Ule
                }
            }
            BinaryOp::Gt => {
                if signed {
                    IrBinOp::Sgt
                } else {
                    IrBinOp::Ugt
                }
            }
            BinaryOp::Ge => {
                if signed {
                    IrBinOp::Sge
                } else {
                    IrBinOp::Uge
                }
            }
            BinaryOp::Concat => IrBinOp::Concat,
        };
        let out_width = match irop {
            IrBinOp::Eq
            | IrBinOp::Neq
            | IrBinOp::Ult
            | IrBinOp::Ule
            | IrBinOp::Ugt
            | IrBinOp::Uge
            | IrBinOp::Slt
            | IrBinOp::Sle
            | IrBinOp::Sgt
            | IrBinOp::Sge => 1,
            IrBinOp::Concat => l.width() + r.width(),
            _ => w,
        };
        if l.width() != r.width() && irop != IrBinOp::Concat {
            return Err(FrontendError::typecheck(
                span,
                format!("operand width mismatch: {} vs {}", l.width(), r.width()),
            ));
        }
        Ok(IrExpr::Binary { op: irop, lhs: Box::new(l), rhs: Box::new(r), width: out_width })
    }
}

/// The table `t` of a switch scrutinee `t.apply().action_run`.
fn action_run_table(e: &Expr) -> Option<&str> {
    let Expr::Member { base, member, .. } = e else { return None };
    let Expr::Call { callee, .. } = base.as_ref() else { return None };
    let Expr::Member { base: table, member: apply, .. } = callee.as_ref() else { return None };
    let Expr::Ident { name, .. } = table.as_ref() else { return None };
    (member == "action_run" && apply == "apply").then_some(name.as_str())
}

/// A read through `stack.last` (or `stack.next`): a mux chain over `$next`
/// that selects `arm(element path)` for element `$next - 1` (or `$next`),
/// and a `w`-bit zero when `$next` is out of range.
fn stack_mux(sp: &Path, n: u32, w: u32, last: bool, arm: impl Fn(Path) -> IrExpr) -> IrExpr {
    let next = IrExpr::Read { path: sp.next_index(), width: 32 };
    let mut acc = IrExpr::Const { width: w, value: 0 };
    for i in (0..n).rev() {
        let target = if last { i + 1 } else { i };
        let cond = IrExpr::Binary {
            op: IrBinOp::Eq,
            lhs: Box::new(next.clone()),
            rhs: Box::new(IrExpr::Const { width: 32, value: target as u128 }),
            width: 1,
        };
        acc = IrExpr::Mux {
            cond: Box::new(cond),
            then_e: Box::new(arm(sp.indexed(i))),
            else_e: Box::new(acc),
            width: w,
        };
    }
    acc
}

fn concat_all(mut parts: Vec<IrExpr>) -> IrExpr {
    let mut acc = parts.remove(0);
    for p in parts {
        let w = acc.width() + p.width();
        acc = IrExpr::Binary { op: IrBinOp::Concat, lhs: Box::new(acc), rhs: Box::new(p), width: w };
    }
    acc
}

/// Reconstruct a short source-like description of an expression (table key
/// control-plane names).
pub fn describe_expr(e: &Expr) -> String {
    match e {
        Expr::Ident { name, .. } => name.clone(),
        Expr::Member { base, member, .. } => format!("{}.{}", describe_expr(base), member),
        Expr::Index { base, index, .. } => format!("{}[{}]", describe_expr(base), describe_expr(index)),
        Expr::Slice { base, .. } => format!("{}[:]", describe_expr(base)),
        Expr::Int { value, .. } => format!("{value}"),
        _ => "expr".to_string(),
    }
}
