//! The v1model target extension (§6.1.1): BMv2's architecture, including
//! `mark_to_drop`, checksums, hashes, registers, meters, `random`,
//! `resubmit`/`recirculate`, and `clone`.
//!
//! v1model-specific behaviors modeled here (Appendix A.1):
//! * uninitialized variables read as 0 (BMv2 zero-initializes);
//! * the drop port is 511; `mark_to_drop` sets `egress_spec = 511`;
//! * a parser error does not drop the packet — execution skips to ingress
//!   with the offending header invalid and `sm.parser_error` set;
//! * `clone` duplicates the packet to a mirror session whose egress port is
//!   control-plane configuration (modeled as a `$clone_session` entry);
//! * `resubmit` re-injects the *original* packet into the ingress parser;
//!   `recirculate` re-injects the deparsed packet (both bounded);
//! * meter colors are control-plane state installed by the test spec (§6:
//!   frameworks "initialize externs such as registers, meters, counters").

use crate::common::{check_block_kinds, BlockKind, algo_of, concolic_hash, push_output, register_read, register_write};
use p4testgen_core::state::{ExecState, FinishReason, SynthEntry, SynthKeyMatch};
use p4testgen_core::sym::Sym;
use p4testgen_core::target::{ExecCtx, ExtArg, ExternOutcome, PipeStep, Target, UninitPolicy};
use p4t_ir::IrProgram;

/// BMv2's drop port.
pub const DROP_PORT: u128 = 511;
/// Maximum modeled recirculation depth.
pub const MAX_RECIRC: u64 = 2;

/// The v1model target.
#[derive(Clone, Default)]
pub struct V1Model;

impl V1Model {
    pub fn new() -> Self {
        V1Model
    }
}

/// The v1model architecture prelude, parsed before every program.
pub const V1MODEL_PRELUDE: &str = r#"
enum HashAlgorithm { crc32, crc16, csum16, xor16, identity, random_alg }
enum CounterType { packets, bytes, packets_and_bytes }
enum MeterType { packets, bytes }
enum CloneType { I2E, E2E }

struct standard_metadata_t {
    bit<9>  ingress_port;
    bit<9>  egress_spec;
    bit<9>  egress_port;
    bit<32> instance_type;
    bit<32> packet_length;
    bit<32> enq_timestamp;
    bit<19> enq_qdepth;
    bit<32> deq_timedelta;
    bit<19> deq_qdepth;
    bit<48> ingress_global_timestamp;
    bit<48> egress_global_timestamp;
    bit<16> mcast_grp;
    bit<16> egress_rid;
    bit<1>  checksum_error;
    error   parser_error;
    bit<3>  priority;
}

extern void mark_to_drop(inout standard_metadata_t standard_metadata);
extern void verify_checksum<T, O>(in bool condition, in T data, in O checksum, HashAlgorithm algo);
extern void update_checksum<T, O>(in bool condition, in T data, inout O checksum, HashAlgorithm algo);
extern void verify_checksum_with_payload<T, O>(in bool condition, in T data, in O checksum, HashAlgorithm algo);
extern void update_checksum_with_payload<T, O>(in bool condition, in T data, inout O checksum, HashAlgorithm algo);
extern void hash<O, T, D, M>(out O result, in HashAlgorithm algo, in T base, in D data, in M max);
extern void random<T>(out T result, in T lo, in T hi);
extern void truncate(in bit<32> length);
extern void resubmit_preserving_field_list(bit<8> index);
extern void recirculate_preserving_field_list(bit<8> index);
extern void clone(in CloneType type, in bit<32> session);
extern void clone_preserving_field_list(in CloneType type, in bit<32> session, bit<8> index);
extern void digest<T>(in bit<32> receiver, in T data);
extern void assert(in bool check);
extern void assume(in bool check);
extern void log_msg(string msg);

extern register<T> {
    register(bit<32> size);
    void read(out T result, in bit<32> index);
    void write(in bit<32> index, in T value);
}
extern counter {
    counter(bit<32> size, CounterType type);
    void count(in bit<32> index);
}
extern direct_counter {
    direct_counter(CounterType type);
    void count();
}
extern meter {
    meter(bit<32> size, MeterType type);
    void execute_meter<T>(in bit<32> index, out T result);
}
extern direct_meter<T> {
    direct_meter(MeterType type);
    void read(out T result);
}
"#;

impl V1Model {
    /// `verify_checksum(cond, data, checksum, algo)` (§5.4): the computed
    /// checksum is an uninterpreted concolic result `R`. We fork three ways:
    /// match (`cond ∧ checksum == R`, error stays 0), mismatch
    /// (`cond ∧ checksum != R`, error set), and skipped (`¬cond`). Forcing
    /// `checksum == R` on the match path is the paper's domain-specific
    /// optimization: it is satisfiable whenever the reference value is
    /// derived from symbolic input.
    fn do_verify_checksum(&self, name: &str, args: &[ExtArg], ctx: &mut ExecCtx, st: &mut ExecState) {
        let cond = args[0].value().clone();
        let mut data = args[1].values();
        if name.ends_with("_with_payload") {
            if let Some(payload) = st.packet.live_value(ctx.pool) {
                data.push(payload);
            }
        }
        let checksum = args[2].value().clone();
        let func = algo_of(ctx, &args[3]);
        let r = concolic_hash(ctx, st, func, &data, checksum.width());
        let eq = ctx.pool.eq(checksum.term, r.term);
        let neq = ctx.pool.not(eq);
        let not_cond = ctx.pool.not(cond.term);
        let match_c = ctx.pool.and(cond.term, eq);
        let mismatch_c = ctx.pool.and(cond.term, neq);
        let err1 = ctx.constant(1, 1);
        // Mismatch fork: checksum error raised.
        if !ctx.pool.is_const_false(mismatch_c) {
            let mut m = ctx.fork(st, mismatch_c);
            m.write("sm.checksum_error", err1);
            m.log(format!("{name}: checksum mismatch"));
            ctx.forks.push(m);
        }
        // Skipped fork: condition false, nothing computed.
        if !ctx.pool.is_const_false(not_cond) {
            let s = ctx.fork(st, not_cond);
            ctx.forks.push(s);
        }
        // This state continues as the match path.
        if ctx.pool.is_const_false(match_c) {
            st.finish(FinishReason::Infeasible);
        } else {
            st.add_constraint(ctx.pool, match_c);
            st.log(format!("{name}: checksum matches"));
        }
    }

    /// `update_checksum(cond, data, checksum, algo)`: checksum becomes the
    /// concolic result when the condition holds.
    fn do_update_checksum(&self, name: &str, args: &[ExtArg], ctx: &mut ExecCtx, st: &mut ExecState) {
        let cond = args[0].value().clone();
        let mut data = args[1].values();
        if name.ends_with("_with_payload") {
            if let Some(payload) = st.packet.live_value(ctx.pool) {
                data.push(payload);
            }
        }
        let ExtArg::Out(out_path, out_w) = &args[2] else {
            return;
        };
        let old = p4testgen_core::exec::read_slot(ctx, st, self, out_path, *out_w);
        let r = concolic_hash(ctx, st, "$update", &data, *out_w);
        // Reuse the named algorithm for the binding.
        let func = algo_of(ctx, &args[3]);
        if let Some(last) = st.concolics.last_mut() {
            last.func = func.to_string();
        }
        let t = ctx.pool.ite(cond.term, r.term, old.term);
        st.write(out_path.as_str(), Sym::with_taint(t, old.taint.or(&r.taint)));
        st.log(format!("{name}: checksum updated"));
    }
}

impl Target for V1Model {
    fn name(&self) -> &str {
        "v1model"
    }

    fn prelude(&self) -> &str {
        V1MODEL_PRELUDE
    }

    fn package_roots(&self) -> &[&[&str]] {
        // V1Switch(parser, verify checksum, ingress, egress, compute
        // checksum, deparser).
        &[
            &["hdr", "meta", "sm"],
            &["hdr", "meta"],
            &["hdr", "meta", "sm"],
            &["hdr", "meta", "sm"],
            &["hdr", "meta"],
            &["hdr"],
        ]
    }

    fn pipeline(&self, prog: &IrProgram) -> Result<Vec<PipeStep>, String> {
        if prog.package != "V1Switch" {
            return Err(format!("v1model expects a V1Switch package, got '{}'", prog.package));
        }
        let args = &prog.package_args;
        if args.len() != 6 {
            return Err(format!("V1Switch expects 6 blocks, got {}", args.len()));
        }
        use BlockKind::{Control, Parser};
        check_block_kinds(prog, &[Parser, Control, Control, Control, Control, Control])?;
        let block = |i: usize| PipeStep::Block(args[i]);
        Ok(vec![
            block(0),
            block(1),
            block(2),
            PipeStep::Hook("traffic_manager"),
            block(3),
            block(4),
            block(5),
            PipeStep::FlushEmit,
            PipeStep::Hook("recirculate_check"),
        ])
    }

    fn init(&self, ctx: &mut ExecCtx, st: &mut ExecState) {
        // Zero the standard metadata, then give the ingress port a symbolic
        // value (also recorded in the conventional $input_port slot).
        for (field, width) in [
            ("egress_spec", 9u32),
            ("egress_port", 9),
            ("instance_type", 32),
            ("mcast_grp", 16),
            ("egress_rid", 16),
            ("checksum_error", 1),
            ("priority", 3),
        ] {
            let z = ctx.constant(width, 0);
            st.write(&format!("sm.{field}"), z);
        }
        let port = ctx.fresh("input_port", 9);
        // 511 is the BMv2 drop port and cannot be an ingress port.
        let drop = ctx.constant(9, DROP_PORT);
        let ne = ctx.pool.neq(port.term, drop.term);
        st.add_constraint(ctx.pool, ne);
        st.write("sm.ingress_port", port.clone());
        st.write("$input_port", port);
        let err = ctx.constant(p4t_frontend::types::ERROR_WIDTH, 0);
        st.write("sm.parser_error", err);
    }

    fn uninit_policy(&self) -> UninitPolicy {
        // BMv2 implicitly initializes all variables to 0 (Appendix A.1).
        UninitPolicy::Zero
    }

    fn hook(&self, name: &str, ctx: &mut ExecCtx, st: &mut ExecState) {
        match name {
            "parser_reject" => {
                // BMv2 does not drop on parser errors: record the error and
                // continue with ingress.
                if let Some(err) = st.read("$parser_error").cloned() {
                    st.write("sm.parser_error", err);
                }
                st.log("v1model: parser reject -> continue to ingress".to_string());
            }
            "traffic_manager" => {
                // Resubmit (Fig. 4/5): the *original* packet re-enters the
                // ingress parser, bypassing the deparser entirely.
                if st.flag("resubmit") == 1 && st.flag("recirc_count") < MAX_RECIRC {
                    st.set_flag("resubmit", 0);
                    st.bump_flag("recirc_count");
                    st.log("resubmit: original packet re-enters ingress".to_string());
                    st.packet.resubmit_original();
                    let z = ctx.constant(9, 0);
                    st.write("sm.egress_spec", z);
                    st.continuations.clear();
                    st.continuations.push(p4testgen_core::Cmd::PipeStep(0));
                    return;
                }
                let spec = st
                    .read("sm.egress_spec")
                    .cloned()
                    .unwrap_or_else(|| ctx.constant(9, 0));
                let drop = ctx.constant(9, DROP_PORT);
                let is_drop = ctx.pool.eq(spec.term, drop.term);
                match ctx.pool.as_const(is_drop) {
                    Some(v) if v.is_true() => {
                        st.log("traffic manager: drop".to_string());
                        st.finish(FinishReason::Dropped);
                    }
                    Some(_) => {
                        st.write("sm.egress_port", spec);
                    }
                    None => {
                        // A symbolic egress_spec comes from synthesized
                        // control-plane values; constrain it away from the
                        // drop port rather than forking a flaky drop test
                        // (explicit drops still arrive here as constants).
                        let not_drop = ctx.pool.not(is_drop);
                        st.add_constraint(ctx.pool, not_drop);
                        st.write("sm.egress_port", spec);
                    }
                }
            }
            "recirculate_check" => {
                if st.flag("recirculate") == 1 && st.flag("recirc_count") < MAX_RECIRC {
                    st.set_flag("recirculate", 0);
                    st.bump_flag("recirc_count");
                    st.log("recirculate: re-entering pipeline".to_string());
                    // The deparsed packet (now in L) re-enters the parser.
                    // Metadata is reset except for preserved fields.
                    let z = ctx.constant(9, 0);
                    st.write("sm.egress_spec", z);
                    st.continuations.push(p4testgen_core::Cmd::PipeStep(0));
                }
            }
            other => {
                st.log(format!("v1model: unknown hook '{other}' ignored"));
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
            ("mark_to_drop", _) => {
                let drop = ctx.constant(9, DROP_PORT);
                st.write("sm.egress_spec", drop);
                let z = ctx.constant(16, 0);
                st.write("sm.mcast_grp", z);
                ExternOutcome::Handled
            }
            ("verify_checksum" | "verify_checksum_with_payload", _) => {
                self.do_verify_checksum(name, args, ctx, st);
                ExternOutcome::Handled
            }
            ("update_checksum" | "update_checksum_with_payload", _) => {
                self.do_update_checksum(name, args, ctx, st);
                ExternOutcome::Handled
            }
            ("hash", _) => {
                // hash(out result, algo, base, data, max)
                let ExtArg::Out(out_path, out_w) = &args[0] else {
                    return ExternOutcome::Handled;
                };
                let func = algo_of(ctx, &args[1]);
                let base = args[2].value().clone();
                let data = args[3].values();
                let max = args[4].value().clone();
                let r = concolic_hash(ctx, st, func, &data, *out_w);
                // result = base + (R % max), all in the output width;
                // max == 0 yields base (BMv2 behavior).
                let base_c = ctx.pool.cast(base.term, *out_w as usize);
                let max_c = ctx.pool.cast(max.term, *out_w as usize);
                let rem = ctx.pool.bin(p4t_smt::BinOp::URem, r.term, max_c);
                let sum = ctx.pool.add(base_c, rem);
                let zero = ctx.constant(*out_w, 0);
                let is_zero = ctx.pool.eq(max_c, zero.term);
                let result = ctx.pool.ite(is_zero, base_c, sum);
                st.write(out_path.as_str(), Sym::clean(result, *out_w));
                ExternOutcome::Handled
            }
            ("random", _) => {
                // Unpredictable output: fully tainted (§5.3).
                let ExtArg::Out(out_path, out_w) = &args[0] else {
                    return ExternOutcome::Handled;
                };
                let r = ctx.havoc("random", *out_w);
                st.write(out_path.as_str(), r);
                ExternOutcome::Handled
            }
            ("read", Some(inst)) => {
                // register.read(out result, in index)
                let ExtArg::Out(p, w) = &args[0] else {
                    return ExternOutcome::Handled;
                };
                let idx = args[1].value().clone();
                register_read(ctx, st, inst, &idx, &(p.clone(), *w));
                ExternOutcome::Handled
            }
            ("write", Some(inst)) => {
                let idx = args[0].value().clone();
                let val = args[1].value().clone();
                register_write(st, inst, &idx, &val);
                ExternOutcome::Handled
            }
            ("count", _) => {
                st.log(format!("counter {:?} counted", instance));
                ExternOutcome::Handled
            }
            ("execute_meter" | "read_meter", _) => {
                // Meter state is control-plane configuration (§6: "P4Testgen
                // can also initialize externs such as registers, meters,
                // counters"): the color is a fresh clean variable whose
                // chosen value the test spec installs before injection.
                if let Some(ExtArg::Out(p, w)) = args.iter().find(|a| matches!(a, ExtArg::Out(..))) {
                    let idx = match &args[0] {
                        ExtArg::Val(v) => v.clone(),
                        _ => ctx.constant(32, 0),
                    };
                    register_read(ctx, st, instance.unwrap_or("meter"), &idx, &(p.clone(), *w));
                }
                ExternOutcome::Handled
            }
            ("truncate", _) => {
                if let ExtArg::Val(len) = &args[0] {
                    if let Some(bytes) = ctx.pool.as_const(len.term).and_then(|v| v.to_u64()) {
                        st.set_flag("truncate_bytes", bytes);
                    }
                }
                ExternOutcome::Handled
            }
            ("resubmit_preserving_field_list", _) => {
                st.set_flag("resubmit", 1);
                st.log("resubmit requested".to_string());
                ExternOutcome::Handled
            }
            ("recirculate_preserving_field_list", _) => {
                st.set_flag("recirculate", 1);
                st.log("recirculate requested".to_string());
                ExternOutcome::Handled
            }
            ("clone" | "clone_preserving_field_list", _) => {
                let session = args[1].value().clone();
                st.write("$clone_session", session);
                st.set_flag("clone_pending", 1);
                st.log("clone requested".to_string());
                ExternOutcome::Handled
            }
            ("assert" | "assume", _) => {
                // Both restrict the path (assume semantics during generation;
                // the concrete models treat failed asserts as crashes).
                if let ExtArg::Val(c) = &args[0] {
                    st.add_constraint(ctx.pool, c.term);
                }
                ExternOutcome::Handled
            }
            ("digest" | "log_msg", _) => {
                st.log(format!("extern {name} (no-op in test generation)"));
                ExternOutcome::Handled
            }
            _ => ExternOutcome::Unknown,
        }
    }

    fn finalize(&self, ctx: &mut ExecCtx, st: &mut ExecState) {
        // Truncation applies to the final packet.
        let trunc = st.flag("truncate_bytes");
        if trunc > 0 {
            if let Some(live) = st.packet.live_value(ctx.pool) {
                let keep_bits = (trunc * 8).min(live.width() as u64) as u32;
                if keep_bits < live.width() {
                    let w = live.width();
                    let t = ctx.pool.extract((w - 1) as usize, (w - keep_bits) as usize, live.term);
                    let taint = live.taint.extract((w - 1) as usize, (w - keep_bits) as usize);
                    st.packet.clear_live();
                    st.packet.append_target(Sym::with_taint(t, taint));
                }
            }
        }
        let port = st
            .read("sm.egress_port")
            .cloned()
            .unwrap_or_else(|| ctx.constant(9, 0));
        push_output(ctx, st, port);
        // Clone output: a second copy of the final packet on the mirror
        // session's port (control-plane configured).
        if st.flag("clone_pending") == 1 {
            let session = st
                .read("$clone_session")
                .cloned()
                .unwrap_or_else(|| ctx.constant(32, 0));
            let clone_port = ctx.fresh("clone_port", 9);
            let drop = ctx.constant(9, DROP_PORT);
            let ne = ctx.pool.neq(clone_port.term, drop.term);
            st.add_constraint(ctx.pool, ne);
            st.entries.push(SynthEntry {
                table: "$clone_session".into(),
                keys: vec![SynthKeyMatch {
                    key_name: "session".into(),
                    match_kind: "exact".into(),
                    width: 32,
                    value: Some(session.term),
                    mask: None,
                    hi: None,
                    prefix_len: None,
                }],
                action: "mirror".into(),
                args: vec![("port".into(), clone_port.term, 9)],
                priority: 0,
            });
            push_output(ctx, st, clone_port);
        }
    }
}
