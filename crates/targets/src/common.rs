//! Helpers shared by the target extensions: package-argument checks,
//! register/counter/meter recording, concolic hash dispatch, and output
//! finalization.

use p4t_ir::{IrBlock, IrProgram};
use p4testgen_core::state::{ConcolicBinding, ExecState, RegisterOp, SymOutput};
use p4testgen_core::sym::Sym;
use p4testgen_core::target::{ExecCtx, ExtArg};
use p4t_smt::TermId;

/// The kind of block a package position takes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockKind {
    Parser,
    Control,
}

impl BlockKind {
    fn of(block: &IrBlock) -> BlockKind {
        match block {
            IrBlock::Parser(_) => BlockKind::Parser,
            IrBlock::Control(_) => BlockKind::Control,
        }
    }

    fn as_str(self) -> &'static str {
        match self {
            BlockKind::Parser => "parser",
            BlockKind::Control => "control",
        }
    }
}

/// Check that each of `prog`'s package arguments is a block of the kind
/// its position takes in `kinds`, naming the first argument that is not.
pub fn check_block_kinds(prog: &IrProgram, kinds: &[BlockKind]) -> Result<(), String> {
    for (i, (&id, &want)) in prog.package_args.iter().zip(kinds).enumerate() {
        let block = prog.block(id);
        let have = BlockKind::of(block);
        if have != want {
            return Err(format!(
                "{} argument {} '{}' is a {}, but that position takes a {}",
                prog.package,
                i + 1,
                block.name(),
                have.as_str(),
                want.as_str()
            ));
        }
    }
    Ok(())
}

/// Record a register read: the result is a fresh variable; the test spec
/// initializes the register to whatever the solver chooses (§6: "P4Testgen
/// can also initialize externs such as registers ... and validate their
/// state after test execution").
pub fn register_read(
    ctx: &mut ExecCtx,
    st: &mut ExecState,
    instance: &str,
    index: &Sym,
    out: &(p4t_ir::Path, u32),
) {
    let (path, width) = out;
    let result = ctx.fresh(&format!("{instance}_read"), *width);
    st.register_ops.push(RegisterOp::Read {
        instance: instance.to_string(),
        index: index.term,
        result: result.term,
        width: *width,
    });
    st.write(path.as_str(), result);
}

/// Record a register write for post-test validation.
pub fn register_write(st: &mut ExecState, instance: &str, index: &Sym, value: &Sym) {
    st.register_ops.push(RegisterOp::Write {
        instance: instance.to_string(),
        index: index.term,
        value: value.term,
        width: value.width(),
    });
}

/// Model a hash extern concolically (§5.4): the result is an unconstrained
/// variable bound to `func(args...)` at emission time.
pub fn concolic_hash(
    ctx: &mut ExecCtx,
    st: &mut ExecState,
    func: &str,
    inputs: &[Sym],
    out_width: u32,
) -> Sym {
    let result = ctx.fresh(&format!("concolic_{func}"), out_width);
    st.concolics.push(ConcolicBinding {
        func: func.to_string(),
        args: inputs.iter().map(|s| s.term).collect(),
        result: result.term,
    });
    result
}

/// Map a hash-algorithm enum value (by its declared member value) to the
/// concolic function name.
pub fn algo_name(algo_value: u128) -> &'static str {
    match algo_value {
        0 => "crc32",
        1 => "crc16",
        2 => "csum16",
        3 => "xor16",
        _ => "identity",
    }
}

/// Extract the concrete enum value of an algorithm argument, defaulting to
/// csum16 when symbolic.
pub fn algo_of(ctx: &ExecCtx, arg: &ExtArg) -> &'static str {
    match arg {
        ExtArg::Val(s) => match ctx.pool.as_const(s.term).and_then(|v| v.to_u128()) {
            Some(v) => algo_name(v),
            None => "csum16",
        },
        _ => "csum16",
    }
}

/// Push an output packet (port + current live packet) onto the state.
pub fn push_output(ctx: &mut ExecCtx, st: &mut ExecState, port: Sym) {
    let payload = st.packet.live_value(ctx.pool);
    st.outputs.push(SymOutput { port, payload });
}

/// Read a conventional global slot as a term, if present.
pub fn read_term(st: &ExecState, path: &str) -> Option<TermId> {
    st.read(path).map(|s| s.term)
}
