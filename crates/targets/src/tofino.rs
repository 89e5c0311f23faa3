//! The Tofino target extensions: `tna` (Tofino 1) and `t2na` (Tofino 2)
//! (§6.1.2, Appendix A.1).
//!
//! Tofino-specific behaviors modeled here:
//! * the chip prepends intrinsic metadata to the packet (64 bits on tna,
//!   128 on t2na, modeled tainted) and the software model appends a 32-bit
//!   Ethernet frame check sequence — both parseable but excluded from the
//!   emitted egress packet;
//! * packets shorter than 64 bytes are dropped; short packets are dropped in
//!   the *ingress* parser but not the egress parser;
//! * if the egress port variable is never written, the packet is dropped;
//! * a two-parser pipeline: ingress parser/control/deparser, then egress
//!   parser/control/deparser, with the traffic manager between them — the
//!   egress parser re-parses the ingress deparser's output (the Fig. 6
//!   scenario where the egress parser can grow I);
//! * t2na adds the ghost thread (logged when present) and extra metadata.

use crate::common::{check_block_kinds, BlockKind, concolic_hash, push_output, register_read, register_write};
use p4testgen_core::state::{ExecState, FinishReason};
use p4testgen_core::sym::Sym;
use p4testgen_core::target::{ExecCtx, ExtArg, ExternOutcome, PipeStep, Target, UninitPolicy};
use p4t_ir::IrProgram;

/// Which Tofino generation to model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TofinoVariant {
    Tna,
    T2na,
}

/// The Tofino target (both generations).
#[derive(Clone)]
pub struct Tofino {
    pub variant: TofinoVariant,
    /// Honor `@auto_init_metadata` (zero-initialize target metadata),
    /// one of the paper's taint-spread mitigations (§5.3).
    pub auto_init_metadata: bool,
}

impl Tofino {
    pub fn tna() -> Self {
        Tofino { variant: TofinoVariant::Tna, auto_init_metadata: false }
    }

    pub fn t2na() -> Self {
        Tofino { variant: TofinoVariant::T2na, auto_init_metadata: false }
    }

    /// Bits of intrinsic metadata prepended to every packet ([TNA spec §5.1]:
    /// 128–256 bits; we model the common phase-0 configuration).
    fn prepended_metadata_bits(&self) -> u32 {
        match self.variant {
            TofinoVariant::Tna => 64,
            TofinoVariant::T2na => 128,
        }
    }
}

/// Architecture prelude shared by tna and t2na.
pub const TNA_PRELUDE: &str = r#"
enum HashAlgorithm_t { IDENTITY, CRC16, CRC32, CUSTOM }
enum MeterColor_t { GREEN, YELLOW, RED }

struct ingress_intrinsic_metadata_t {
    bit<1>  resubmit_flag;
    bit<1>  _pad1;
    bit<2>  packet_version;
    bit<3>  _pad2;
    bit<9>  ingress_port;
    bit<48> ingress_mac_tstamp;
}
struct ingress_intrinsic_metadata_for_tm_t {
    bit<9>  ucast_egress_port;
    bit<1>  bypass_egress;
    bit<1>  deflect_on_drop;
    bit<3>  ingress_cos;
    bit<5>  qid;
    bit<3>  icos_for_copy_to_cpu;
    bit<1>  copy_to_cpu;
    bit<2>  packet_color;
    bit<16> mcast_grp_a;
    bit<16> mcast_grp_b;
    bit<16> rid;
}
struct ingress_intrinsic_metadata_for_deparser_t {
    bit<3> drop_ctl;
    bit<3> digest_type;
    bit<3> resubmit_type;
    bit<3> mirror_type;
}
struct ingress_intrinsic_metadata_from_parser_t {
    bit<48> global_tstamp;
    bit<32> global_ver;
    bit<16> parser_err;
}
struct egress_intrinsic_metadata_t {
    bit<9>  egress_port;
    bit<19> enq_qdepth;
    bit<2>  enq_congest_stat;
    bit<18> enq_tstamp;
    bit<19> deq_qdepth;
    bit<16> egress_rid;
    bit<7>  egress_qid;
    bit<3>  egress_cos;
    bit<16> pkt_length;
}
struct egress_intrinsic_metadata_from_parser_t {
    bit<48> global_tstamp;
    bit<32> global_ver;
    bit<16> parser_err;
}
struct egress_intrinsic_metadata_for_deparser_t {
    bit<3> drop_ctl;
    bit<3> mirror_type;
    bit<1> coalesce_flush;
    bit<7> coalesce_length;
}
struct egress_intrinsic_metadata_for_output_port_t {
    bit<1> capture_tstamp_on_tx;
    bit<1> update_delay_on_tx;
    bit<1> force_tx_error;
}

extern Register<T, I> {
    Register(bit<32> size);
    T read(in I index);
    void write(in I index, in T value);
}
extern Counter<W, I> {
    Counter(bit<32> size, bit<8> type);
    void count(in I index);
}
extern DirectCounter<W> {
    DirectCounter(bit<8> type);
    void count();
}
extern Meter<I> {
    Meter(bit<32> size, bit<8> type);
    bit<8> execute(in I index);
}
extern Hash<W> {
    Hash(HashAlgorithm_t algo);
    W get<D>(in D data);
}
extern Checksum {
    Checksum();
    void add<T>(in T data);
    void subtract<T>(in T data);
    bit<16> get();
    bool verify();
}
extern Random<W> {
    Random();
    W get();
}
extern Mirror {
    Mirror();
    void emit<T>(in bit<10> session_id, in T hdr);
}
extern Resubmit {
    Resubmit();
    void emit<T>(in T hdr);
}
extern Digest<T> {
    Digest();
    void pack(in T data);
}
"#;

impl Target for Tofino {
    fn name(&self) -> &str {
        match self.variant {
            TofinoVariant::Tna => "tna",
            TofinoVariant::T2na => "t2na",
        }
    }

    fn prelude(&self) -> &str {
        TNA_PRELUDE
    }

    fn package_roots(&self) -> &[&[&str]] {
        // Pipeline(IngressParser, Ingress, IngressDeparser, EgressParser,
        // Egress, EgressDeparser); t2na's ghost control is not bound.
        &[
            &["hdr", "meta", "ig_intr_md"],
            &["hdr", "meta", "ig_intr_md", "ig_prsr_md", "ig_dprsr_md", "ig_tm_md"],
            &["hdr", "meta", "ig_dprsr_md"],
            &["hdr", "emeta", "eg_intr_md"],
            &["hdr", "emeta", "eg_intr_md", "eg_prsr_md", "eg_dprsr_md", "eg_oport_md"],
            &["hdr", "emeta", "eg_dprsr_md"],
        ]
    }

    fn pipeline(&self, prog: &IrProgram) -> Result<Vec<PipeStep>, String> {
        if prog.package != "Pipeline" {
            return Err(format!(
                "{} expects a Pipeline package, got '{}'",
                self.name(),
                prog.package
            ));
        }
        let args = &prog.package_args;
        // Pipeline(IngressParser, Ingress, IngressDeparser,
        //          EgressParser, Egress, EgressDeparser [, Ghost])
        if args.len() != 6 && args.len() != 7 {
            return Err(format!(
                "Pipeline expects 6 (tna) or 7 (t2na) blocks, got {}",
                args.len()
            ));
        }
        if args.len() == 7 && self.variant == TofinoVariant::Tna {
            return Err("ghost control requires t2na".to_string());
        }
        use BlockKind::{Control, Parser};
        check_block_kinds(prog, &[Parser, Control, Control, Parser, Control, Control, Control])?;
        let block = |i: usize| PipeStep::Block(args[i]);
        let mut steps = vec![
            block(0),
            block(1),
            block(2),
            PipeStep::FlushEmit,
            PipeStep::Hook("traffic_manager"),
        ];
        if args.len() == 7 {
            steps.push(PipeStep::Hook("ghost"));
        }
        steps.extend([
            block(3),
            PipeStep::Hook("egress_parser_done"),
            block(4),
            block(5),
            PipeStep::FlushEmit,
        ]);
        Ok(steps)
    }

    fn init(&self, ctx: &mut ExecCtx, st: &mut ExecState) {
        // The chip prepends intrinsic metadata; the software model appends
        // an Ethernet FCS. Both are parseable but unpredictable: tainted.
        let meta_bits = self.prepended_metadata_bits();
        let meta = ctx.havoc("tofino_intrinsic", meta_bits);
        st.packet.prepend_target(meta);
        // Packets must be at least 64 bytes (shorter ones are dropped before
        // the pipeline); pre-allocate the minimum as a fixed precondition
        // (§6: target-specific preconditions restrict the initial packets).
        st.packet.grow_input(ctx.pool, 64 * 8);
        let fcs = ctx.havoc("tofino_fcs", 32);
        st.packet.append_target(fcs);
        let port = ctx.fresh("input_port", 9);
        st.write("ig_intr_md.ingress_port", port.clone());
        st.write("$input_port", port);
        let z3 = ctx.constant(3, 0);
        st.write("ig_dprsr_md.drop_ctl", z3.clone());
        st.write("eg_dprsr_md.drop_ctl", z3);
        let z1 = ctx.constant(1, 0);
        st.write("ig_tm_md.bypass_egress", z1);
        let zerr = ctx.constant(16, 0);
        st.write("ig_prsr_md.parser_err", zerr.clone());
        st.write("eg_prsr_md.parser_err", zerr);
        st.set_flag("in_ingress", 1);
    }

    fn uninit_policy(&self) -> UninitPolicy {
        if self.auto_init_metadata {
            UninitPolicy::Zero
        } else {
            UninitPolicy::Taint
        }
    }

    fn uninit_policy_for(&self, global_path: &str) -> UninitPolicy {
        // User metadata is zero-initialized by the Tofino compiler's
        // standard configuration; intrinsic metadata and locals are
        // undefined unless @auto_init_metadata is set (§5.3 mitigation 3).
        if global_path.starts_with("meta.")
            || global_path.starts_with("emeta.")
            || global_path == "meta"
            || global_path == "emeta"
        {
            UninitPolicy::Zero
        } else {
            self.uninit_policy()
        }
    }

    fn min_packet_bytes(&self) -> u32 {
        64
    }

    fn hook(&self, name: &str, ctx: &mut ExecCtx, st: &mut ExecState) {
        match name {
            "parser_reject" => {
                // Short packets are dropped in the ingress parser, but not
                // the egress parser (Appendix A.1). Programs that read
                // parser_err see the error and continue instead.
                if let Some(err) = st.read("$parser_error").cloned() {
                    if st.flag("in_ingress") == 1 {
                        st.write("ig_prsr_md.parser_err", err);
                        if ctx.prog.reads_parser_err {
                            st.log(
                                "tna: parser error, program reads parser_err -> continue"
                                    .to_string(),
                            );
                        } else {
                            st.log("tna: parser error in ingress parser -> drop".to_string());
                            st.finish(FinishReason::Dropped);
                        }
                    } else {
                        st.write("eg_prsr_md.parser_err", err);
                        st.log("tna: parser error in egress parser -> continue".to_string());
                    }
                }
            }
            "traffic_manager" => {
                // Drop check: ig_dprsr_md.drop_ctl != 0 drops the packet.
                let drop_ctl = st
                    .read("ig_dprsr_md.drop_ctl")
                    .cloned()
                    .unwrap_or_else(|| ctx.constant(3, 0));
                let zero = ctx.constant(3, 0);
                let is_drop = ctx.pool.neq(drop_ctl.term, zero.term);
                match ctx.pool.as_const(is_drop) {
                    Some(v) if v.is_true() => {
                        st.finish(FinishReason::Dropped);
                        return;
                    }
                    Some(_) => {}
                    None => {
                        let mut d = ctx.fork(st, is_drop);
                        d.log("tna: drop_ctl set -> drop".to_string());
                        d.finish(FinishReason::Dropped);
                        ctx.forks.push(d);
                        let nd = ctx.pool.not(is_drop);
                        st.add_constraint(ctx.pool, nd);
                    }
                }
                // If the egress port was never written, the packet is
                // considered dropped (Appendix A.1).
                match st.read("ig_tm_md.ucast_egress_port").cloned() {
                    None => {
                        st.log("tna: egress port never written -> drop".to_string());
                        st.finish(FinishReason::Dropped);
                        return;
                    }
                    Some(port) => {
                        // Stash the port: the egress parser's `out` intrinsic
                        // metadata parameter resets eg_intr_md on entry; the
                        // egress_parser_done hook restores it.
                        st.write("$egress_port", port);
                    }
                }
                st.set_flag("in_ingress", 0);
                // bypass_egress skips egress processing entirely.
                let bypass = st
                    .read("ig_tm_md.bypass_egress")
                    .cloned()
                    .unwrap_or_else(|| ctx.constant(1, 0));
                let mut skip = false;
                match ctx.pool.as_const(bypass.term) {
                    Some(v) if v.is_true() => skip = true,
                    Some(_) => {}
                    None => {
                        let mut b = ctx.fork(st, bypass.term);
                        b.log("tna: bypass_egress -> skip egress".to_string());
                        skip_to_pipeline_end(&mut b, ctx.pipeline.len());
                        ctx.forks.push(b);
                        let nb = ctx.pool.not(bypass.term);
                        st.add_constraint(ctx.pool, nb);
                    }
                }
                if skip {
                    st.log("tna: bypass_egress -> skip egress".to_string());
                    skip_to_pipeline_end(st, ctx.pipeline.len());
                }
            }
            "egress_parser_done" => {
                if let Some(port) = st.read("$egress_port").cloned() {
                    st.write("eg_intr_md.egress_port", port);
                }
            }
            "ghost" => {
                // t2na ghost thread: can mutate register state in parallel.
                // Register reads are already free variables constrained only
                // by the control-plane initialization, which subsumes a
                // ghost-written value; we log the interleaving point.
                st.log("t2na: ghost thread interleaving point".to_string());
            }
            other => {
                st.log(format!("tna: unknown hook '{other}' ignored"));
            }
        }
    }

    fn extern_call(
        &self,
        name: &str,
        instance: Option<&str>,
        args: &[ExtArg],
        ctx: &mut ExecCtx,
        st: &mut ExecState,
    ) -> ExternOutcome {
        match (name, instance) {
            ("read", Some(inst)) => {
                // TNA Register.read(index): value-returning, so lowering
                // appended an Out temp as the final argument.
                if let Some(ExtArg::Out(p, w)) = args.last() {
                    let idx = args[0].value().clone();
                    register_read(ctx, st, inst, &idx, &(p.clone(), *w));
                }
                ExternOutcome::Handled
            }
            ("write", Some(inst)) => {
                let idx = args[0].value().clone();
                let val = args[1].value().clone();
                register_write(st, inst, &idx, &val);
                ExternOutcome::Handled
            }
            ("get", Some(_)) => {
                // Hash.get(data) (concolic) or Random.get() (taint).
                if let Some(ExtArg::Out(p, w)) = args.last() {
                    if args.len() >= 2 {
                        let data = args[0].values();
                        let r = concolic_hash(ctx, st, "crc32", &data, *w);
                        st.write(p.as_str(), r);
                    } else {
                        let r = ctx.havoc("random", *w);
                        st.write(p.as_str(), r);
                    }
                }
                ExternOutcome::Handled
            }
            ("add" | "subtract", _) => {
                // Checksum unit accumulation: remember the inputs.
                let inst = instance.unwrap_or("");
                let n = st.bump_flag(&format!("csum_inputs_{inst}"));
                for (i, v) in args[0].values().into_iter().enumerate() {
                    st.write(&format!("$csum.{inst}.{n:04}.{i:04}"), v);
                }
                ExternOutcome::Handled
            }
            ("verify", Some(inst)) => {
                // Checksum.verify(): true iff the accumulated data checksums
                // to zero — concolic.
                if let Some(ExtArg::Out(p, _)) = args.last() {
                    let inputs = collect_csum_inputs(st, inst);
                    let r = concolic_hash(ctx, st, "csum16", &inputs, 16);
                    let zero = ctx.constant(16, 0);
                    let ok = ctx.pool.eq(r.term, zero.term);
                    let taint = r.taint.extract(0, 0);
                    st.write(p.as_str(), Sym::with_taint(ok, taint));
                }
                ExternOutcome::Handled
            }
            ("execute", _) => {
                // Meter color is control-plane configuration, like register
                // contents: deterministic per test.
                if let Some(ExtArg::Out(p, w)) = args.last() {
                    let idx = match args.first() {
                        Some(ExtArg::Val(v)) if args.len() > 1 => v.clone(),
                        _ => ctx.constant(32, 0),
                    };
                    register_read(ctx, st, instance.unwrap_or("meter"), &idx, &(p.clone(), *w));
                }
                ExternOutcome::Handled
            }
            ("count", _) => ExternOutcome::Handled,
            ("emit", Some(inst)) => {
                // Mirror.emit / Resubmit.emit (Fig. 4's resubmit path): the
                // packet re-enters the ingress pipeline; bounded.
                if st.flag("resubmit_count") < 1 {
                    st.bump_flag("resubmit_count");
                    st.log(format!("{}: resubmit/mirror emit", inst));
                }
                ExternOutcome::Handled
            }
            ("pack", _) => ExternOutcome::Handled, // Digest: control-plane only
            _ => ExternOutcome::Unknown,
        }
    }

    fn finalize(&self, ctx: &mut ExecCtx, st: &mut ExecState) {
        // Egress drop_ctl check.
        let drop_ctl = st
            .read("eg_dprsr_md.drop_ctl")
            .cloned()
            .unwrap_or_else(|| ctx.constant(3, 0));
        let zero = ctx.constant(3, 0);
        let is_drop = ctx.pool.neq(drop_ctl.term, zero.term);
        match ctx.pool.as_const(is_drop) {
            Some(v) if v.is_true() => {
                st.finish(FinishReason::Dropped);
                return;
            }
            Some(_) => {}
            None => {
                let mut d = ctx.fork(st, is_drop);
                d.finish(FinishReason::Dropped);
                ctx.forks.push(d);
                let nd = ctx.pool.not(is_drop);
                st.add_constraint(ctx.pool, nd);
            }
        }
        let port = st
            .read("$egress_port")
            .or_else(|| st.read("eg_intr_md.egress_port"))
            .cloned()
            .unwrap_or_else(|| ctx.constant(9, 0));
        push_output(ctx, st, port);
    }
}

/// Jump to the end of the pipeline: clear queued continuations and resume
/// at the final step (the trailing FlushEmit), after which finalize runs.
fn skip_to_pipeline_end(st: &mut ExecState, pipeline_len: usize) {
    use p4testgen_core::Cmd;
    st.continuations.clear();
    st.continuations.push(Cmd::PipeStep(pipeline_len - 1));
}

fn collect_csum_inputs(st: &ExecState, instance: &str) -> Vec<Sym> {
    let prefix = format!("$csum.{instance}.");
    // Slots iterate in key order.
    st.slots().filter(|(k, _)| k.starts_with(&prefix)).map(|(_, v)| v.clone()).collect()
}
