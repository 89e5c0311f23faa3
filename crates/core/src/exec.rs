//! The small-step symbolic executor (§4 step 2).
//!
//! [`step`] pops one continuation command from a state and executes it,
//! possibly forking. Expression evaluation maps IR expressions to symbolic
//! values with taint; statement execution implements the reference semantics
//! of each P4 construct, with the target consulted for extern calls, hooks,
//! and policies.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::state::{Cmd, ExecState, FinishReason};
use crate::sym::{Sym, SymOps};
use crate::tables;
use crate::target::{ExecCtx, ExtArg, ExternOutcome, Target, UninitPolicy};
use p4t_frontend::types::ERROR_WIDTH;
use p4t_ir::{
    ActionId, BlockId, HeaderId, IrArg, IrBinOp, IrBlock, IrExpr, IrKeyset, IrNext, IrStmt,
    IrTransition, IrUnOp, Path, StackId, StateId,
};
use p4t_smt::{BinOp, BitVec, TermId};

/// An execution abort: the state cannot continue (unsupported construct,
/// internal inconsistency). The driver marks the path abandoned.
#[derive(Clone, Debug)]
pub struct Abort(pub String);

pub type ExecResult<T> = Result<T, Abort>;

/// Error code of `error.PacketTooShort` (index in the core error list).
pub const ERR_PACKET_TOO_SHORT: u128 = 1;
/// Error code of `error.NoMatch`.
pub const ERR_NO_MATCH: u128 = 2;

/// Evaluate an IR expression to a symbolic value.
pub fn eval_expr(
    ctx: &mut ExecCtx,
    st: &mut ExecState,
    target: &dyn Target,
    e: &IrExpr,
) -> ExecResult<Sym> {
    match e {
        IrExpr::Const { width, value } => Ok(ctx.constant(*width, *value)),
        IrExpr::Read { path, width } => Ok(read_slot(ctx, st, target, path, *width)),
        IrExpr::IsValid { path } => {
            match st.read(path.valid().as_str()) {
                Some(s) => Ok(s.clone()),
                None => Ok(ctx.constant(1, 0)), // never-touched headers are invalid
            }
        }
        IrExpr::Unary { op, arg, width } => {
            let a = eval_expr(ctx, st, target, arg)?;
            match op {
                IrUnOp::Not => {
                    let t = ctx.pool.not(a.term);
                    Ok(Sym::with_taint(t, a.taint.clone()))
                }
                IrUnOp::Neg => {
                    let t = ctx.pool.neg(a.term);
                    Ok(Sym::with_taint(t, Sym::smear(&[&a], *width)))
                }
            }
        }
        IrExpr::Binary { op, lhs, rhs, width } => {
            let a = eval_expr(ctx, st, target, lhs)?;
            let b = eval_expr(ctx, st, target, rhs)?;
            Ok(eval_binary(ctx, *op, &a, &b, *width))
        }
        IrExpr::Slice { base, hi, lo } => {
            let b = eval_expr(ctx, st, target, base)?;
            let t = ctx.pool.extract(*hi as usize, *lo as usize, b.term);
            Ok(Sym::with_taint(t, SymOps::slice_taint(&b, *hi, *lo)))
        }
        IrExpr::Cast { arg, width } => {
            let a = eval_expr(ctx, st, target, arg)?;
            let t = ctx.pool.cast(a.term, *width as usize);
            Ok(Sym::with_taint(t, SymOps::cast_taint(&a, *width)))
        }
        IrExpr::SignCast { arg, width } => {
            let a = eval_expr(ctx, st, target, arg)?;
            let aw = a.width();
            let t = if *width > aw {
                ctx.pool.sext(a.term, *width as usize)
            } else {
                ctx.pool.cast(a.term, *width as usize)
            };
            let taint = if a.is_tainted() {
                BitVec::ones(*width as usize)
            } else {
                BitVec::zeros(*width as usize)
            };
            Ok(Sym::with_taint(t, taint))
        }
        IrExpr::Mux { cond, then_e, else_e, .. } => {
            let c = eval_expr(ctx, st, target, cond)?;
            let t = eval_expr(ctx, st, target, then_e)?;
            let f = eval_expr(ctx, st, target, else_e)?;
            let term = ctx.pool.ite(c.term, t.term, f.term);
            // A constant condition selects exactly one branch: the other
            // branch's taint must not leak into the result (this matters
            // for elaborated header-stack muxes whose untaken arms read
            // invalid slots).
            let taint = match ctx.pool.as_const(c.term) {
                Some(v) if v.is_true() => t.taint.clone(),
                Some(_) => f.taint.clone(),
                None => SymOps::mux_taint(&c, &t, &f),
            };
            Ok(Sym::with_taint(term, taint))
        }
        IrExpr::Lookahead { width } => Ok(st.packet.peek(ctx.pool, *width)),
        IrExpr::VarbitLen { path } => {
            match st.read(path.child("$len").as_str()) {
                Some(s) => Ok(s.clone()),
                None => Ok(ctx.constant(32, 0)),
            }
        }
    }
}

fn eval_binary(ctx: &mut ExecCtx, op: IrBinOp, a: &Sym, b: &Sym, width: u32) -> Sym {
    let pool = ctx.pool;
    let (term, taint) = match op {
        IrBinOp::And => (pool.bin(BinOp::And, a.term, b.term), SymOps::and_taint(pool, a, b)),
        IrBinOp::Or => (pool.bin(BinOp::Or, a.term, b.term), SymOps::bitwise_taint(a, b)),
        IrBinOp::Xor => (pool.bin(BinOp::Xor, a.term, b.term), SymOps::bitwise_taint(a, b)),
        IrBinOp::Concat => (pool.bin(BinOp::Concat, a.term, b.term), SymOps::concat_taint(a, b)),
        IrBinOp::Add => (pool.bin(BinOp::Add, a.term, b.term), Sym::smear(&[a, b], width)),
        IrBinOp::Sub => (pool.bin(BinOp::Sub, a.term, b.term), Sym::smear(&[a, b], width)),
        IrBinOp::Mul => {
            let t = pool.bin(BinOp::Mul, a.term, b.term);
            // Mitigation: multiplying by constant zero erases taint (the
            // pool folds the term to 0; mirror that in the taint).
            let taint = if pool.as_const(t).is_some_and(|v| v.is_zero()) {
                BitVec::zeros(width as usize)
            } else {
                Sym::smear(&[a, b], width)
            };
            (t, taint)
        }
        IrBinOp::Div => (pool.bin(BinOp::UDiv, a.term, b.term), Sym::smear(&[a, b], width)),
        IrBinOp::Mod => (pool.bin(BinOp::URem, a.term, b.term), Sym::smear(&[a, b], width)),
        IrBinOp::Shl => (pool.bin(BinOp::Shl, a.term, b.term), Sym::smear(&[a, b], width)),
        IrBinOp::Shr => (pool.bin(BinOp::LShr, a.term, b.term), Sym::smear(&[a, b], width)),
        IrBinOp::AShr => (pool.bin(BinOp::AShr, a.term, b.term), Sym::smear(&[a, b], width)),
        IrBinOp::Eq => (pool.bin(BinOp::Eq, a.term, b.term), Sym::smear(&[a, b], 1)),
        IrBinOp::Neq => {
            let e = pool.bin(BinOp::Eq, a.term, b.term);
            (pool.not(e), Sym::smear(&[a, b], 1))
        }
        IrBinOp::Ult => (pool.bin(BinOp::Ult, a.term, b.term), Sym::smear(&[a, b], 1)),
        IrBinOp::Ule => (pool.bin(BinOp::Ule, a.term, b.term), Sym::smear(&[a, b], 1)),
        IrBinOp::Ugt => (pool.bin(BinOp::Ult, b.term, a.term), Sym::smear(&[a, b], 1)),
        IrBinOp::Uge => (pool.bin(BinOp::Ule, b.term, a.term), Sym::smear(&[a, b], 1)),
        IrBinOp::Slt => (pool.bin(BinOp::Slt, a.term, b.term), Sym::smear(&[a, b], 1)),
        IrBinOp::Sle => (pool.bin(BinOp::Sle, a.term, b.term), Sym::smear(&[a, b], 1)),
        IrBinOp::Sgt => (pool.bin(BinOp::Slt, b.term, a.term), Sym::smear(&[a, b], 1)),
        IrBinOp::Sge => (pool.bin(BinOp::Sle, b.term, a.term), Sym::smear(&[a, b], 1)),
    };
    Sym::with_taint(term, taint)
}

/// Read a slot, applying the target's uninitialized-read policy on a miss.
/// Reading a field of a header that is *concretely invalid* yields an
/// undefined (fully tainted) value, per the P4-16 spec — this is what makes
/// the paper's short-packet example unable to synthesize a table entry.
pub fn read_slot(
    ctx: &mut ExecCtx,
    st: &mut ExecState,
    target: &dyn Target,
    path: &Path,
    width: u32,
) -> Sym {
    if let Some((parent, leaf)) = path.as_str().rsplit_once('.') {
        if !leaf.starts_with('$') {
            if let Some(v) = st.read(&format!("{parent}.$valid")) {
                if ctx.pool.as_const(v.term).is_some_and(|c| c.is_zero()) {
                    return ctx.havoc(&format!("invalid_{path}"), width);
                }
            }
        }
    }
    if let Some(s) = st.read(path.as_str()) {
        return s.clone();
    }
    let value = match target.uninit_policy_for(path.as_str()) {
        UninitPolicy::Zero => ctx.constant(width, 0),
        UninitPolicy::Taint => ctx.havoc(&format!("uninit_{path}"), width),
    };
    st.write(path.as_str(), value.clone());
    value
}

/// Execute one continuation command. Forks are pushed into `ctx.forks`.
pub fn step(
    ctx: &mut ExecCtx,
    st: &mut ExecState,
    target: &dyn Target,
    cmd: Cmd,
) -> ExecResult<()> {
    match cmd {
        Cmd::Stmt(s) => exec_stmt(ctx, st, target, &s),
        Cmd::ParserState(state) => enter_parser_state(ctx, st, state),
        Cmd::Select(state) => run_select(ctx, st, target, state),
        Cmd::PipeStep(idx) => pipe_step(ctx, st, target, idx),
        Cmd::FlushEmit => {
            st.packet.flush_emit();
            Ok(())
        }
        Cmd::Hook(name) => {
            target.hook(name, ctx, st);
            Ok(())
        }
    }
}

fn pipe_step(
    ctx: &mut ExecCtx,
    st: &mut ExecState,
    target: &dyn Target,
    idx: usize,
) -> ExecResult<()> {
    let pipeline = ctx.pipeline;
    if idx >= pipeline.len() {
        target.finalize(ctx, st);
        if st.is_running() {
            st.finish(FinishReason::Completed);
        }
        return Ok(());
    }
    // Queue the next step underneath this one's work.
    st.continuations.push(Cmd::PipeStep(idx + 1));
    match &pipeline[idx] {
        crate::target::PipeStep::Hook(name) => st.continuations.push(Cmd::Hook(name)),
        crate::target::PipeStep::FlushEmit => st.continuations.push(Cmd::FlushEmit),
        crate::target::PipeStep::Block(block) => enter_block(ctx, st, *block),
    }
    Ok(())
}

/// Reset a block's `out` parameters and queue its body.
pub fn enter_block(ctx: &mut ExecCtx, st: &mut ExecState, block: BlockId) {
    let prog = ctx.prog;
    let b = prog.block(block);
    // `out` parameters are reset on entry: slots cleared (so the uninit
    // policy applies), header validity and stack `$next` explicitly zeroed.
    for p in b.params() {
        if let (p4t_frontend::ast::Direction::Out, Some(root)) = (p.direction, &p.root) {
            st.clear_prefix(root);
            let zero = ctx.constant(1, 0);
            for &h in &p.headers {
                st.write(prog.header(h).valid.as_str(), zero.clone());
            }
            for &s in &p.stacks {
                let stack = prog.stack(s);
                let z32 = ctx.constant(32, 0);
                st.write(stack.next.as_str(), z32);
                for &h in &stack.elements {
                    st.write(prog.header(h).valid.as_str(), zero.clone());
                }
            }
        }
    }
    st.log(format!("enter block {}", b.name()));
    match b {
        IrBlock::Parser(p) => st.continuations.push(Cmd::ParserState(p.start)),
        IrBlock::Control(c) => st.push_stmts(&c.apply),
    }
}

/// Queue a parser transition: nothing for `accept`, the target's
/// `parser_reject` hook for `reject`.
fn push_next(st: &mut ExecState, next: IrNext) {
    match next {
        IrNext::Accept => {}
        IrNext::Reject => st.continuations.push(Cmd::Hook("parser_reject")),
        IrNext::State(s) => st.continuations.push(Cmd::ParserState(s)),
    }
}

fn enter_parser_state(ctx: &mut ExecCtx, st: &mut ExecState, state: StateId) -> ExecResult<()> {
    let prog = ctx.prog;
    let ir_state = prog.state(state);
    let parser = prog.block(ir_state.parser).name();
    let visits = st.visits.entry(state).or_insert(0);
    *visits += 1;
    if *visits > ctx.parser_loop_bound {
        // Loop bound exceeded: stop this path (the paper bounds parser
        // unrolling in the midend; we bound dynamically).
        st.log(format!("parser loop bound hit in {parser}.{}", ir_state.name));
        st.finish(FinishReason::Abandoned("parser loop bound".into()));
        return Ok(());
    }
    st.log(format!("parser state {parser}.{}", ir_state.name));
    // Queue: statements, then the transition decision.
    match &ir_state.transition {
        IrTransition::Direct(next) => push_next(st, *next),
        IrTransition::Select { .. } => st.continuations.push(Cmd::Select(state)),
    }
    st.push_stmts(&ir_state.stmts);
    Ok(())
}

/// Evaluate a `select` transition: fork one state per case (with
/// first-match-wins semantics) plus a NoMatch-reject fork.
fn run_select(
    ctx: &mut ExecCtx,
    st: &mut ExecState,
    target: &dyn Target,
    state: StateId,
) -> ExecResult<()> {
    let prog = ctx.prog;
    let IrTransition::Select { keys, cases } = &prog.state(state).transition else {
        return Err(Abort("select pseudo-state without select transition".into()));
    };
    let key_syms: Vec<Sym> = keys
        .iter()
        .map(|k| eval_expr(ctx, st, target, k))
        .collect::<ExecResult<_>>()?;
    let keys_tainted = key_syms.iter().any(|k| k.is_tainted());
    let mut not_earlier: Vec<TermId> = Vec::new();
    let mut forks: Vec<ExecState> = Vec::new();
    for case in cases {
        let m = keyset_match(ctx, &key_syms, &case.keysets)?;
        let mut conj = vec![m];
        conj.extend(not_earlier.iter().copied());
        let cond = ctx.pool.and_all(&conj);
        if !ctx.pool.is_const_false(cond) {
            let mut f = ctx.fork(st, cond);
            if keys_tainted {
                f.set_flag("taint_flaky", 1);
            }
            push_next(&mut f, case.next_state);
            f.log(format!("select -> {}", prog.next_name(case.next_state)));
            forks.push(f);
        }
        let nm = ctx.pool.not(m);
        not_earlier.push(nm);
    }
    // No case matched: implicit transition to reject with error.NoMatch.
    let nomatch = ctx.pool.and_all(&not_earlier);
    if !ctx.pool.is_const_false(nomatch) {
        let mut f = ctx.fork(st, nomatch);
        if keys_tainted {
            f.set_flag("taint_flaky", 1);
        }
        set_parser_error(ctx, &mut f, ERR_NO_MATCH);
        push_next(&mut f, IrNext::Reject);
        f.log("select -> reject (NoMatch)".to_string());
        forks.push(f);
    }
    // The original state is replaced by the forks.
    st.finish(FinishReason::Infeasible);
    ctx.forks.extend(forks);
    Ok(())
}

/// Record a parser error in the conventional global slot.
pub fn set_parser_error(ctx: &mut ExecCtx, st: &mut ExecState, code: u128) {
    let v = ctx.constant(ERROR_WIDTH, code);
    st.write("$parser_error", v);
}

/// Build the match condition of one keyset row against the key values.
pub fn keyset_match(ctx: &mut ExecCtx, keys: &[Sym], keysets: &[IrKeyset]) -> ExecResult<TermId> {
    let mut conj = Vec::new();
    for (k, ks) in keys.iter().zip(keysets) {
        match ks {
            IrKeyset::Dontcare => {}
            IrKeyset::Exact(e) => {
                let v = const_keyset_value(ctx, e, k.width())?;
                conj.push(ctx.pool.eq(k.term, v));
            }
            IrKeyset::Mask { value, mask } => {
                let v = const_keyset_value(ctx, value, k.width())?;
                let m = const_keyset_value(ctx, mask, k.width())?;
                let km = ctx.pool.and(k.term, m);
                let vm = ctx.pool.and(v, m);
                conj.push(ctx.pool.eq(km, vm));
            }
            IrKeyset::Range { lo, hi } => {
                let l = const_keyset_value(ctx, lo, k.width())?;
                let h = const_keyset_value(ctx, hi, k.width())?;
                let ge = ctx.pool.ule(l, k.term);
                let le = ctx.pool.ule(k.term, h);
                conj.push(ctx.pool.and(ge, le));
            }
        }
    }
    Ok(ctx.pool.and_all(&conj))
}

fn const_keyset_value(ctx: &mut ExecCtx, e: &IrExpr, width: u32) -> ExecResult<TermId> {
    match e {
        IrExpr::Const { width: w, value } => {
            let v = ctx.constant(*w, *value);
            Ok(ctx.pool.cast(v.term, width as usize))
        }
        other => Err(Abort(format!("non-constant keyset expression: {other:?}"))),
    }
}

// ---- statements ---------------------------------------------------------------

fn exec_stmt(
    ctx: &mut ExecCtx,
    st: &mut ExecState,
    target: &dyn Target,
    s: &IrStmt,
) -> ExecResult<()> {
    st.cover(s.id());
    match s {
        IrStmt::DeclVar { path, width, .. } => {
            let value = match target.uninit_policy_for(path.as_str()) {
                UninitPolicy::Zero => ctx.constant(*width, 0),
                UninitPolicy::Taint => ctx.havoc(&format!("decl_{path}"), *width),
            };
            st.write(path.as_str(), value);
            Ok(())
        }
        IrStmt::Assign { target: tpath, value, .. } => {
            let v = eval_expr(ctx, st, target, value)?;
            st.write(tpath.as_str(), v);
            Ok(())
        }
        IrStmt::If { cond, then_s, else_s, .. } => {
            let c = eval_expr(ctx, st, target, cond)?;
            if let Some(cv) = ctx.pool.as_const(c.term) {
                if cv.is_true() {
                    st.push_stmts(then_s);
                } else {
                    st.push_stmts(else_s);
                }
                return Ok(());
            }
            // Fork both arms; the original state is superseded. Branching
            // on a *tainted* condition means the target's choice is
            // unpredictable: both arms are still explored (coverage), but
            // the resulting tests are flaky and are dropped at emission,
            // like tainted-output-port tests (§5.3, footnote 2).
            let flaky = c.is_tainted();
            let mut t = ctx.fork(st, c.term);
            t.push_stmts(then_s);
            let nc = ctx.pool.not(c.term);
            let mut f = ctx.fork(st, nc);
            f.push_stmts(else_s);
            if flaky {
                t.set_flag("taint_flaky", 1);
                f.set_flag("taint_flaky", 1);
            }
            ctx.forks.push(t);
            ctx.forks.push(f);
            st.finish(FinishReason::Infeasible);
            Ok(())
        }
        IrStmt::ApplyTable { table, .. } => tables::apply_table(ctx, st, target, *table, None),
        IrStmt::SwitchActionRun { table, cases, .. } => {
            tables::apply_table(ctx, st, target, *table, Some(cases))
        }
        IrStmt::Extract { header, varbit_len, .. } => {
            exec_extract(ctx, st, target, *header, varbit_len.as_ref())
        }
        IrStmt::Advance { bits, .. } => {
            let b = eval_expr(ctx, st, target, bits)?;
            let Some(n) = ctx.pool.as_const(b.term).and_then(|v| v.to_u64()) else {
                return Err(Abort("advance with symbolic amount".into()));
            };
            exec_advance(ctx, st, n as u32)
        }
        IrStmt::Emit { header, .. } => exec_emit(ctx, st, target, *header),
        IrStmt::SetValid { header, valid, .. } => {
            let v = ctx.constant(1, *valid as u128);
            st.write(header.valid().as_str(), v);
            Ok(())
        }
        IrStmt::CallAction { action, args, .. } => {
            let arg_syms: Vec<Sym> = args
                .iter()
                .map(|a| eval_expr(ctx, st, target, a))
                .collect::<ExecResult<_>>()?;
            call_action(ctx, st, *action, &arg_syms);
            Ok(())
        }
        IrStmt::ExternCall { name, instance, args, .. } => {
            exec_extern(ctx, st, target, name, instance.as_deref(), args)
        }
        IrStmt::StackOp { stack, push, count, .. } => exec_stack_op(ctx, st, *stack, *push, *count),
        IrStmt::Exit { .. } => {
            // `exit` terminates the pipeline block: drop queued commands up
            // to the next pipeline step, which sits directly below them.
            while let Some(cmd) = st.continuations.last() {
                if matches!(cmd, Cmd::PipeStep(_)) {
                    break;
                }
                st.continuations.pop();
            }
            Ok(())
        }
        IrStmt::Return { .. } => {
            // Return from an action: drop queued statements.
            while let Some(Cmd::Stmt(_)) = st.continuations.last() {
                st.continuations.pop();
            }
            Ok(())
        }
    }
}

/// Run an action body with bound data-plane arguments.
pub fn call_action(ctx: &mut ExecCtx, st: &mut ExecState, action: ActionId, args: &[Sym]) {
    let prog = ctx.prog;
    let a = prog.action(action);
    for (p, v) in a.params.iter().zip(args) {
        let cast = ctx.pool.cast(v.term, p.width as usize);
        st.write(p.path.as_str(), Sym::with_taint(cast, SymOps::cast_taint(v, p.width)));
    }
    st.push_stmts(&a.body);
}

fn exec_extract(
    ctx: &mut ExecCtx,
    st: &mut ExecState,
    target: &dyn Target,
    header: HeaderId,
    varbit_len: Option<&IrExpr>,
) -> ExecResult<()> {
    let h = ctx.prog.header(header);
    let fixed_bits: u32 = h.fields.iter().filter(|f| f.varbit_len.is_none()).map(|f| f.width).sum();
    // Varbit length must be concrete.
    let vb_len: u32 = match varbit_len {
        Some(e) => {
            let v = eval_expr(ctx, st, target, e)?;
            ctx.pool
                .as_const(v.term)
                .and_then(|c| c.to_u64())
                .ok_or_else(|| Abort("extract with symbolic varbit length".into()))?
                as u32
        }
        None => 0,
    };
    let need = fixed_bits + vb_len;
    let have = st.packet.live_bits();
    // Fork: packet too short (§5.2.1; Fig 1c line 4). Only exists when the
    // live packet cannot already satisfy the extract.
    if (have as u32) < need {
        let t = ctx.pool.mk_true();
        let mut short = ctx.fork(st, t);
        // The short packet ends after all but the last field, matching the
        // paper's example tests (96-bit packet for a 112-bit Ethernet header
        // whose last field is 16 bits).
        let last_field_bits = h.fields.last().map_or(0, |f| f.width).min(need);
        let short_total = need.saturating_sub(last_field_bits).max(have as u32);
        let missing = short_total.saturating_sub(have as u32);
        if missing > 0 {
            short.packet.grow_input(ctx.pool, missing);
        }
        // The failed extract consumes nothing: the unparsed content remains
        // and passes through as payload (Fig 1c line 7: 96 bits in, 96 out).
        set_parser_error(ctx, &mut short, ERR_PACKET_TOO_SHORT);
        short.log(format!("extract {}: packet too short", h.path));
        truncate_parser_continuations(&mut short);
        short.continuations.push(Cmd::Hook("parser_reject"));
        ctx.forks.push(short);
    }
    // Normal path: read the content and assign fields MSB-first.
    let content = st.packet.read(ctx.pool, need);
    let mut offset = need; // bits remaining, counted from the MSB end
    for f in &h.fields {
        if let Some(lenp) = &f.varbit_len {
            let data = if vb_len > 0 {
                let t = ctx.pool.extract(
                    (offset - 1) as usize,
                    (offset - vb_len) as usize,
                    content.term,
                );
                let taint = content
                    .taint
                    .extract((offset - 1) as usize, (offset - vb_len) as usize);
                let part = Sym::with_taint(t, taint);
                let padded = ctx.pool.cast(part.term, f.width as usize);
                Sym::with_taint(padded, SymOps::cast_taint(&part, f.width))
            } else {
                ctx.constant(f.width, 0)
            };
            st.write(f.path.as_str(), data);
            let len = ctx.constant(32, vb_len as u128);
            st.write(lenp.as_str(), len);
            offset -= vb_len;
        } else {
            let w = f.width;
            let t = ctx.pool.extract((offset - 1) as usize, (offset - w) as usize, content.term);
            let taint = content.taint.extract((offset - 1) as usize, (offset - w) as usize);
            st.write(f.path.as_str(), Sym::with_taint(t, taint));
            offset -= w;
        }
    }
    let valid = ctx.constant(1, 1);
    st.write(h.valid.as_str(), valid);
    st.log(format!("extract {} ({need} bits)", h.path));
    Ok(())
}

/// Remove queued parser continuations (statements, parser states, selects,
/// hooks) up to the next pipeline step, which stays in place.
fn truncate_parser_continuations(st: &mut ExecState) {
    while matches!(
        st.continuations.last(),
        Some(Cmd::Stmt(_) | Cmd::ParserState(_) | Cmd::Select(_) | Cmd::Hook(_))
    ) {
        st.continuations.pop();
    }
}

fn exec_advance(ctx: &mut ExecCtx, st: &mut ExecState, bits: u32) -> ExecResult<()> {
    let have = st.packet.live_bits();
    if (have as u32) < bits {
        let t = ctx.pool.mk_true();
        let mut short = ctx.fork(st, t);
        set_parser_error(ctx, &mut short, ERR_PACKET_TOO_SHORT);
        truncate_parser_continuations(&mut short);
        short.continuations.push(Cmd::Hook("parser_reject"));
        ctx.forks.push(short);
    }
    let _ = st.packet.read(ctx.pool, bits);
    Ok(())
}

fn exec_emit(
    ctx: &mut ExecCtx,
    st: &mut ExecState,
    target: &dyn Target,
    header: HeaderId,
) -> ExecResult<()> {
    let validity = match st.read(ctx.prog.header(header).valid.as_str()) {
        Some(s) => s.clone(),
        None => ctx.constant(1, 0),
    };
    match ctx.pool.as_const(validity.term) {
        Some(v) if v.is_true() => emit_fields(ctx, st, target, header),
        Some(_) => Ok(()), // invalid: emit nothing
        None => {
            // Symbolic validity: fork.
            let mut valid_fork = ctx.fork(st, validity.term);
            emit_fields(ctx, &mut valid_fork, target, header)?;
            let nv = ctx.pool.not(validity.term);
            let invalid_fork = ctx.fork(st, nv);
            ctx.forks.push(valid_fork);
            ctx.forks.push(invalid_fork);
            st.finish(FinishReason::Infeasible);
            Ok(())
        }
    }
}

fn emit_fields(
    ctx: &mut ExecCtx,
    st: &mut ExecState,
    target: &dyn Target,
    header: HeaderId,
) -> ExecResult<()> {
    let h = ctx.prog.header(header);
    let mut acc: Option<Sym> = None;
    for f in &h.fields {
        let data = read_slot(ctx, st, target, &f.path, f.width);
        let part = match &f.varbit_len {
            Some(lenp) => {
                let len = st
                    .read(lenp.as_str())
                    .and_then(|s| ctx.pool.as_const(s.term))
                    .and_then(|c| c.to_u64())
                    .unwrap_or(0) as u32;
                if len == 0 {
                    continue;
                }
                // The varbit data is stored right-aligned by extract's
                // cast; emit the low `len` bits.
                let t = ctx.pool.extract((len - 1) as usize, 0, data.term);
                Sym::with_taint(t, data.taint.extract((len - 1) as usize, 0))
            }
            None => data,
        };
        acc = Some(match acc {
            None => part,
            Some(a) => {
                let t = ctx.pool.concat(a.term, part.term);
                Sym::with_taint(t, a.taint.concat(&part.taint))
            }
        });
    }
    if let Some(v) = acc {
        st.packet.emit(v);
        st.log(format!("emit {}", h.path));
    }
    Ok(())
}

/// Shift a stack's elements by `count` toward its end (`push`) or its
/// front. Each element's slots are copied from the layout's slots of its
/// source element, unwritten slots staying unwritten; elements shifted in
/// from outside the stack are invalid.
fn exec_stack_op(
    ctx: &mut ExecCtx,
    st: &mut ExecState,
    stack: StackId,
    push: bool,
    count: u32,
) -> ExecResult<()> {
    let prog = ctx.prog;
    let layout = prog.stack(stack);
    let size = layout.elements.len() as u32;
    let zero = ctx.constant(1, 0);
    // Walk away from the sources, so each is read before it is overwritten.
    let mut order: Vec<u32> = (0..size).collect();
    if push {
        order.reverse();
    }
    for i in order {
        let dst = prog.header(layout.elements[i as usize]);
        let from = if push {
            i.checked_sub(count)
        } else {
            i.checked_add(count).filter(|v| *v < size)
        };
        match from {
            Some(src) => {
                let src = prog.header(layout.elements[src as usize]);
                for (d, s) in dst.slots().zip(src.slots()) {
                    match st.read(s.as_str()).cloned() {
                        Some(v) => st.write(d.as_str(), v),
                        None => st.remove(d.as_str()),
                    }
                }
            }
            None => {
                for d in dst.slots() {
                    st.remove(d.as_str());
                }
                st.write(dst.valid.as_str(), zero.clone());
            }
        }
    }
    // Adjust $next (saturating at the bounds).
    let cur = st
        .read(layout.next.as_str())
        .and_then(|s| ctx.pool.as_const(s.term))
        .and_then(|c| c.to_u64())
        .unwrap_or(0);
    let newv = if push {
        (cur + count as u64).min(size as u64)
    } else {
        cur.saturating_sub(count as u64)
    };
    let nv = ctx.constant(32, newv as u128);
    st.write(layout.next.as_str(), nv);
    Ok(())
}

fn exec_extern(
    ctx: &mut ExecCtx,
    st: &mut ExecState,
    target: &dyn Target,
    name: &str,
    instance: Option<&str>,
    args: &[IrArg],
) -> ExecResult<()> {
    // Pre-evaluate arguments.
    let mut ext_args = Vec::with_capacity(args.len());
    for a in args {
        ext_args.push(match a {
            IrArg::In(e) => ExtArg::Val(eval_expr(ctx, st, target, e)?),
            IrArg::InList(es) => {
                let vs: Vec<Sym> = es
                    .iter()
                    .map(|e| eval_expr(ctx, st, target, e))
                    .collect::<ExecResult<_>>()?;
                ExtArg::List(vs)
            }
            IrArg::Out(p, w) => ExtArg::Out(p.clone(), *w),
            IrArg::Ref(p) => ExtArg::Ref(p.clone()),
        });
    }
    // Built-in: parser error signaling.
    if name == "$parser_error" {
        if let Some(ExtArg::Val(code)) = ext_args.first() {
            let c = ctx.pool.as_const(code.term).and_then(|v| v.to_u128()).unwrap_or(0);
            set_parser_error(ctx, st, c);
        }
        truncate_parser_continuations(st);
        st.continuations.push(Cmd::Hook("parser_reject"));
        return Ok(());
    }
    match target.extern_call(name, instance, &ext_args, ctx, st) {
        ExternOutcome::Handled => Ok(()),
        ExternOutcome::Unknown => Err(Abort(format!(
            "extern '{name}' not implemented by target '{}'",
            target.name()
        ))),
    }
}
