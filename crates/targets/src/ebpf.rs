//! The `ebpf_model` target extension (§6.1.3): an end-host filter target.
//!
//! ebpf_model-specific behaviors (Appendix A.1):
//! * only two blocks — a parser and a `filter` control; no deparser;
//! * the filter's `accept` out-parameter decides the verdict: `false` drops
//!   the packet;
//! * because there is no deparser, deparsing is implicit: every valid header
//!   is re-emitted in declaration order, followed by the unparsed payload
//!   ("extract or advance have no effect on the size of the outgoing
//!   packet" — the original packet passes through);
//! * a failing `extract`/`advance` drops the packet in the kernel.

use crate::common::{check_block_kinds, BlockKind};
use p4testgen_core::state::{ExecState, FinishReason, SymOutput};
use p4testgen_core::sym::Sym;
use p4testgen_core::target::{ExecCtx, ExtArg, ExternOutcome, PipeStep, Target, UninitPolicy};
use p4t_ir::IrProgram;

/// The ebpf_model target.
#[derive(Clone, Default)]
pub struct EbpfModel;

impl EbpfModel {
    pub fn new() -> Self {
        EbpfModel
    }
}

/// Architecture prelude for ebpf_model.
pub const EBPF_PRELUDE: &str = r#"
extern CounterArray {
    CounterArray(bit<32> max_index, bool sparse);
    void increment(in bit<32> index);
    void add(in bit<32> index, in bit<32> value);
}
extern array_table {
    array_table(bit<32> size);
}
extern hash_table {
    hash_table(bit<32> size);
}
"#;

impl Target for EbpfModel {
    fn name(&self) -> &str {
        "ebpf_model"
    }

    fn prelude(&self) -> &str {
        EBPF_PRELUDE
    }

    fn package_roots(&self) -> &[&[&str]] {
        // ebpfFilter(parser, filter).
        &[&["hdr"], &["hdr", "accept"]]
    }

    fn pipeline(&self, prog: &IrProgram) -> Result<Vec<PipeStep>, String> {
        if prog.package != "ebpfFilter" {
            return Err(format!(
                "ebpf_model expects an ebpfFilter package, got '{}'",
                prog.package
            ));
        }
        let args = &prog.package_args;
        if args.len() != 2 {
            return Err(format!("ebpfFilter expects 2 blocks, got {}", args.len()));
        }
        check_block_kinds(prog, &[BlockKind::Parser, BlockKind::Control])?;
        Ok(vec![
            PipeStep::Block(args[0]),
            PipeStep::Block(args[1]),
            PipeStep::Hook("verdict"),
        ])
    }

    fn init(&self, ctx: &mut ExecCtx, st: &mut ExecState) {
        let accept = ctx.constant(1, 0);
        st.write("accept", accept);
        let port = ctx.constant(9, 0); // eBPF has no port concept; use 0.
        st.write("$input_port", port);
    }

    fn uninit_policy(&self) -> UninitPolicy {
        UninitPolicy::Taint
    }

    fn hook(&self, name: &str, ctx: &mut ExecCtx, st: &mut ExecState) {
        match name {
            "parser_reject" => {
                // A failing extract drops the packet in the kernel.
                st.log("ebpf: parser error -> drop".to_string());
                st.finish(FinishReason::Dropped);
            }
            "verdict" => {
                let accept = st
                    .read("accept")
                    .cloned()
                    .unwrap_or_else(|| ctx.constant(1, 0));
                match ctx.pool.as_const(accept.term) {
                    Some(v) if v.is_true() => self.accept_packet(ctx, st),
                    Some(_) => {
                        st.log("ebpf: filter rejected packet".to_string());
                        st.finish(FinishReason::Dropped);
                    }
                    None => {
                        let mut acc = ctx.fork(st, accept.term);
                        self.accept_packet(ctx, &mut acc);
                        acc.finish(FinishReason::Completed);
                        ctx.forks.push(acc);
                        let na = ctx.pool.not(accept.term);
                        let mut rej = ctx.fork(st, na);
                        rej.finish(FinishReason::Dropped);
                        ctx.forks.push(rej);
                        st.finish(FinishReason::Infeasible);
                    }
                }
            }
            other => {
                st.log(format!("ebpf: unknown hook '{other}' ignored"));
            }
        }
    }

    fn extern_call(
        &self,
        name: &str,
        instance: Option<&str>,
        _args: &[ExtArg],
        _ctx: &mut ExecCtx,
        st: &mut ExecState,
    ) -> ExternOutcome {
        match name {
            "increment" | "add" => {
                st.log(format!("ebpf counter {:?} {name}", instance));
                ExternOutcome::Handled
            }
            _ => ExternOutcome::Unknown,
        }
    }

    fn finalize(&self, _ctx: &mut ExecCtx, _st: &mut ExecState) {
        // The verdict hook already produced the output or the drop.
    }

    fn port_width(&self) -> u32 {
        9
    }
}

impl EbpfModel {
    /// Implicit deparsing: emit every valid header of the parser's `hdr`
    /// parameter in declaration order, then the unparsed payload (§6.1.3).
    /// Only *concretely valid* headers are emitted: symbolically valid ones
    /// would need a fork, and the filter model emits only headers whose
    /// validity the path taken has already decided.
    fn accept_packet(&self, ctx: &mut ExecCtx, st: &mut ExecState) {
        let prog = ctx.prog;
        let deparse = prog
            .package_args
            .first()
            .and_then(|&parser| prog.bound_param(parser, "hdr"))
            .map_or(&[][..], |p| &p.headers);
        let mut parts: Vec<Sym> = Vec::new();
        for &h in deparse {
            let h = prog.header(h);
            let valid = st
                .read(h.valid.as_str())
                .and_then(|s| ctx.pool.as_const(s.term))
                .is_some_and(|v| v.is_true());
            if !valid {
                continue;
            }
            let fields: Vec<Sym> = h
                .fields
                .iter()
                .map(|f| st.read(f.path.as_str()).cloned().unwrap_or_else(|| ctx.constant(f.width, 0)))
                .collect();
            parts.extend(concat_all(ctx, fields));
        }
        // Followed by the remaining live packet (the unparsed payload).
        if let Some(rest) = st.packet.live_value(ctx.pool) {
            parts.push(rest);
        }
        let payload = concat_all(ctx, parts);
        let port = ctx.constant(9, 0);
        st.outputs.push(SymOutput { port, payload });
        st.log("ebpf: filter accepted packet".to_string());
    }
}

/// Concatenate values MSB-first, left to right.
fn concat_all(ctx: &mut ExecCtx, parts: Vec<Sym>) -> Option<Sym> {
    parts.into_iter().reduce(|a, b| {
        let t = ctx.pool.concat(a.term, b.term);
        Sym::with_taint(t, a.taint.concat(&b.taint))
    })
}
