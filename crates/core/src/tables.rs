//! Symbolic table application and control-plane entry synthesis (§6).
//!
//! Applying a table forks the execution state:
//!
//! 1. one fork per **const entry** (first-match-wins over earlier entries,
//!    in the match order lowering gave them: by `@priority` when present —
//!    the v1model extension overrides the canonical table continuation this
//!    way, §5.2);
//! 2. one fork per **synthesizable action**: P4Testgen invents a single
//!    control-plane entry whose keys are fresh symbolic values constrained
//!    to match the key expressions; the solver later concretizes the entry.
//!    Tainted keys block synthesis for exact/lpm/range matches (the test
//!    could be flaky) but merely wildcard ternary/optional matches (§5.3);
//! 3. one **miss** fork running the default action.
//!
//! Each fork records `<table>.$hit` and queues the `switch
//! (t.apply().action_run)` case of the action that ran.

use crate::exec::{call_action, eval_expr, keyset_match, Abort, ExecResult};
use crate::preconditions;
use crate::state::{ExecState, FinishReason, SynthEntry, SynthKeyMatch};
use crate::sym::Sym;
use crate::target::{ExecCtx, Target};
use p4t_ir::{ActionId, IrStmt, IrTable, TableId};
use p4t_smt::TermId;

/// Apply a table; `switch_cases` supplies the bodies of a
/// `switch (t.apply().action_run)` when present.
pub fn apply_table(
    ctx: &mut ExecCtx,
    st: &mut ExecState,
    target: &dyn Target,
    table: TableId,
    switch_cases: Option<&[(Option<ActionId>, Vec<IrStmt>)]>,
) -> ExecResult<()> {
    let prog = ctx.prog;
    let tbl = prog.table(table);
    // Evaluate key expressions once, in the current state.
    let key_syms: Vec<Sym> = tbl
        .keys
        .iter()
        .map(|k| eval_expr(ctx, st, target, &k.expr))
        .collect::<ExecResult<_>>()?;
    st.log(format!("apply {}", tbl.name));
    let keys_tainted = key_syms.iter().any(|k| k.is_tainted());
    // Const-entry matching against tainted keys is unpredictable: those
    // forks (and the miss fork, whose constraint negates the entry matches)
    // become flaky and are dropped at emission.
    let const_flaky = keys_tainted && !tbl.const_entries.is_empty();

    let mut forks: Vec<ExecState> = Vec::new();

    // --- const entries (match order; first match wins) -------------------
    let mut earlier_matches: Vec<TermId> = Vec::new();
    for (i, entry) in tbl.const_entries.iter().enumerate() {
        let m = keyset_match(ctx, &key_syms, &entry.keysets)?;
        let mut conj = vec![m];
        for &e in &earlier_matches {
            let ne = ctx.pool.not(e);
            conj.push(ne);
        }
        let cond = ctx.pool.and_all(&conj);
        earlier_matches.push(m);
        if ctx.pool.is_const_false(cond) {
            continue;
        }
        let mut f = ctx.fork(st, cond);
        if const_flaky {
            f.set_flag("taint_flaky", 1);
        }
        mark_result(ctx, &mut f, tbl, true);
        push_switch_case(&mut f, switch_cases, entry.action);
        // Bind const entry args and run the action.
        let arg_syms: Vec<Sym> = entry
            .args
            .iter()
            .map(|a| eval_expr(ctx, &mut f, target, a))
            .collect::<ExecResult<_>>()?;
        f.log(format!("{}: const entry {i} -> {}", tbl.name, prog.action(entry.action).name));
        call_action(ctx, &mut f, entry.action, &arg_syms);
        forks.push(f);
    }
    // ¬(any const entry matches) applies to both synthesized-entry forks and
    // the miss fork.
    let no_const_match: Vec<TermId> =
        earlier_matches.iter().map(|&m| ctx.pool.not(m)).collect();

    // --- synthesized entries (one per action) ------------------------------
    let has_keys = !tbl.keys.is_empty();
    if has_keys {
        for aref in &tbl.actions {
            if aref.default_only || prog.action(aref.action).name == "NoAction" {
                continue;
            }
            forks.extend(synthesize_entry_fork(
                ctx, st, tbl, &key_syms, &no_const_match, aref.action, switch_cases,
            )?);
        }
    }

    // --- miss / default action --------------------------------------------
    {
        let cond = ctx.pool.and_all(&no_const_match);
        let mut f = ctx.fork(st, cond);
        if const_flaky {
            f.set_flag("taint_flaky", 1);
        }
        mark_result(ctx, &mut f, tbl, false);
        push_switch_case(&mut f, switch_cases, tbl.default_action);
        let arg_syms: Vec<Sym> = tbl
            .default_args
            .iter()
            .map(|a| eval_expr(ctx, &mut f, target, a))
            .collect::<ExecResult<_>>()?;
        f.log(format!("{}: miss -> {}", tbl.name, prog.action(tbl.default_action).name));
        call_action(ctx, &mut f, tbl.default_action, &arg_syms);
        forks.push(f);
    }

    ctx.forks.extend(forks);
    st.finish(FinishReason::Infeasible); // superseded by the forks
    Ok(())
}

/// Record `<table>.$hit` and `$applied` slots.
fn mark_result(ctx: &mut ExecCtx, st: &mut ExecState, tbl: &IrTable, hit: bool) {
    let h = ctx.constant(1, hit as u128);
    st.write(tbl.hit.as_str(), h);
    let a = ctx.constant(1, 1);
    st.write(tbl.applied.as_str(), a);
}

/// Queue the matching switch case body (after the action body, which is
/// pushed later and therefore executes first).
fn push_switch_case(
    st: &mut ExecState,
    cases: Option<&[(Option<ActionId>, Vec<IrStmt>)]>,
    action: ActionId,
) {
    let Some(cases) = cases else {
        return;
    };
    let body = cases
        .iter()
        .find(|(label, _)| *label == Some(action))
        .or_else(|| cases.iter().find(|(label, _)| label.is_none()))
        .map(|(_, body)| body);
    if let Some(body) = body {
        st.push_stmts(body);
    }
}

/// Build the fork in which a synthesized control-plane entry steers the
/// packet into `action`. Returns `None` when taint on the keys makes a
/// guaranteed match impossible (the paper then falls back to the default
/// action rather than generating a flaky test).
fn synthesize_entry_fork(
    ctx: &mut ExecCtx,
    st: &ExecState,
    tbl: &IrTable,
    key_syms: &[Sym],
    no_const_match: &[TermId],
    action: ActionId,
    switch_cases: Option<&[(Option<ActionId>, Vec<IrStmt>)]>,
) -> ExecResult<Option<ExecState>> {
    let mut conj: Vec<TermId> = no_const_match.to_vec();
    let mut keys = Vec::new();
    let mut needs_priority = false;
    for (k, key) in key_syms.iter().zip(&tbl.keys) {
        let w = k.width();
        let kname = &key.name;
        let base = SynthKeyMatch {
            key_name: kname.clone(),
            match_kind: key.match_kind.clone(),
            width: w,
            value: None,
            mask: None,
            hi: None,
            prefix_len: None,
        };
        match &*key.match_kind {
            "exact" => {
                if k.is_tainted() {
                    return Ok(None); // cannot guarantee a match
                }
                let v = ctx.fresh(&format!("{}_{}_key", tbl.name, kname), w);
                conj.push(ctx.pool.eq(k.term, v.term));
                keys.push(SynthKeyMatch { value: Some(v.term), ..base });
            }
            "ternary" | "optional" => {
                needs_priority = true;
                if k.is_tainted() {
                    // Wildcard entry: always matches; removes nondeterminism.
                    let zero = ctx.constant(w, 0);
                    let (value, mask) = (Some(zero.term), Some(zero.term));
                    keys.push(SynthKeyMatch { value, mask, ..base });
                } else {
                    // Full mask, value == key: deterministic exact-style match.
                    let v = ctx.fresh(&format!("{}_{}_key", tbl.name, kname), w);
                    conj.push(ctx.pool.eq(k.term, v.term));
                    let ones = ctx.constant(w, u128::MAX);
                    keys.push(SynthKeyMatch { value: Some(v.term), mask: Some(ones.term), ..base });
                }
            }
            "lpm" => {
                if k.is_tainted() {
                    // Zero-length prefix matches everything.
                    let zero = ctx.constant(w, 0);
                    let (value, prefix_len) = (Some(zero.term), Some(0));
                    keys.push(SynthKeyMatch { value, prefix_len, ..base });
                } else {
                    let v = ctx.fresh(&format!("{}_{}_key", tbl.name, kname), w);
                    conj.push(ctx.pool.eq(k.term, v.term));
                    keys.push(SynthKeyMatch { value: Some(v.term), prefix_len: Some(w), ..base });
                }
            }
            "range" => {
                needs_priority = true;
                if k.is_tainted() {
                    return Ok(None);
                }
                // lo <= key <= hi with fresh symbolic bounds.
                let lo = ctx.fresh(&format!("{}_{}_lo", tbl.name, kname), w);
                let hi = ctx.fresh(&format!("{}_{}_hi", tbl.name, kname), w);
                conj.push(ctx.pool.ule(lo.term, k.term));
                conj.push(ctx.pool.ule(k.term, hi.term));
                keys.push(SynthKeyMatch { value: Some(lo.term), hi: Some(hi.term), ..base });
            }
            other => {
                return Err(Abort(format!("unsupported match kind '{other}'")));
            }
        }
    }
    // P4-constraints (@entry_restriction) constrain the synthesized entry
    // when the precondition is enabled (Table 4b).
    if let Some(src) = tbl.entry_restriction.as_ref().filter(|_| ctx.apply_entry_restrictions) {
        match preconditions::compile_restriction(ctx.pool, src, &keys) {
            Ok(Some(c)) => conj.push(c),
            Ok(None) => {}
            Err(e) => return Err(Abort(format!("bad @entry_restriction: {e}"))),
        }
    }
    let cond = ctx.pool.and_all(&conj);
    if ctx.pool.is_const_false(cond) {
        return Ok(None);
    }
    let mut f = ctx.fork(st, cond);
    // Fresh action arguments, bound to the action parameter slots.
    let prog = ctx.prog;
    let a = prog.action(action);
    let mut args = Vec::new();
    let mut arg_syms = Vec::new();
    for p in &a.params {
        let v = ctx.fresh(&format!("{}_{}_{}", tbl.name, a.name, p.name), p.width);
        args.push((p.name.clone(), v.term, p.width));
        arg_syms.push(v);
    }
    f.entries.push(SynthEntry {
        table: tbl.control_plane_name.clone(),
        keys,
        action: a.control_plane_name.clone(),
        args,
        priority: if needs_priority { 1 } else { 0 },
    });
    mark_result(ctx, &mut f, tbl, true);
    push_switch_case(&mut f, switch_cases, action);
    f.log(format!("{}: synthesized entry -> {}", tbl.name, a.name));
    call_action(ctx, &mut f, action, &arg_syms);
    Ok(Some(f))
}
