//! The concrete interpreter: our "software models" (BMv2-like, Tofino-model-
//! like, eBPF-like) that execute a [`TestSpec`] — install its control-plane
//! entries, initialize registers, inject the input packet — and produce the
//! actual outputs, which the verdict module compares against the test's
//! expectations.
//!
//! The interpreter implements the same target semantics as the symbolic
//! extensions in `p4t-targets`, independently re-derived over concrete
//! values. Bits the symbolic model treats as tainted (chip-prepended
//! metadata, random externs, uninitialized values on taint-policy targets)
//! are filled with a `0xA5` garbage pattern here: any value is legal, and
//! the tests' don't-care masks must absorb it.

use crate::faults::{Fault, FaultSet};
use p4t_ir::{
    ActionId, BlockId, HeaderId, IrArg, IrBinOp, IrBlock, IrConstEntry, IrExpr, IrKeyset, IrNext,
    IrProgram, IrStmt, IrTable, IrTransition, IrUnOp, StackId, TableId,
};
use p4t_smt::BitVec;
use p4testgen_core::testspec::{KeyMatch, TableEntrySpec, TestSpec};
use std::collections::HashMap;

/// A toolchain crash (exception-class bug manifestation).
#[derive(Clone, Debug)]
pub struct InterpException(pub String);

impl InterpException {
    /// The canonical parser-loop-bound exception (the model's runaway
    /// guard), recognizable so callers can classify it separately from
    /// genuine toolchain crashes.
    pub fn parser_loop_bound() -> Self {
        InterpException("parser loop bound exceeded".into())
    }

    /// Is this the parser-loop-bound guard firing?
    pub fn is_parser_loop_bound(&self) -> bool {
        self.0.contains("parser loop bound")
    }
}

/// What actually happened when the test ran.
#[derive(Clone, Debug, Default)]
pub struct InterpResult {
    /// (port, packet bytes) in emission order.
    pub outputs: Vec<(u32, Vec<u8>)>,
    /// Final register state: (instance, index) → value bytes.
    pub register_final: HashMap<(String, u64), Vec<u8>>,
    pub trace: Vec<String>,
}

/// Which architecture semantics to use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Arch {
    V1Model,
    Tna,
    T2na,
    Ebpf,
}

impl Arch {
    /// Map a target name (as the `targets` crate spells them) to an arch.
    /// The interpreter keeps its own map: it is an engine independent of
    /// the target extensions it checks.
    pub fn from_target_name(name: &str) -> Option<Arch> {
        match name {
            "v1model" => Some(Arch::V1Model),
            "tna" => Some(Arch::Tna),
            "t2na" => Some(Arch::T2na),
            "ebpf_model" => Some(Arch::Ebpf),
            _ => None,
        }
    }
}

const DROP_PORT: u64 = 511;
const GARBAGE: u8 = 0xA5;

/// The concrete packet: a bit string with a read cursor at the MSB end.
#[derive(Clone, Debug)]
struct CPacket {
    bits: BitVec,
    pos: usize,
}

impl CPacket {
    fn new(bits: BitVec) -> Self {
        CPacket { bits, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bits.width() - self.pos
    }

    fn read(&mut self, n: usize) -> Option<BitVec> {
        if self.remaining() < n {
            return None;
        }
        let w = self.bits.width();
        let out = if n == 0 {
            BitVec::empty()
        } else {
            self.bits.extract(w - self.pos - 1, w - self.pos - n)
        };
        self.pos += n;
        Some(out)
    }

    fn peek(&self, n: usize) -> Option<BitVec> {
        if self.remaining() < n {
            return None;
        }
        let w = self.bits.width();
        Some(if n == 0 {
            BitVec::empty()
        } else {
            self.bits.extract(w - self.pos - 1, w - self.pos - n)
        })
    }

    fn rest(&self) -> BitVec {
        if self.remaining() == 0 {
            BitVec::empty()
        } else {
            self.bits.extract(self.remaining() - 1, 0)
        }
    }
}

type IResult<T> = Result<T, InterpException>;

/// One installed table entry, normalized for lookup. Its key matches are
/// the test's own.
#[derive(Clone, Debug)]
struct Entry<'p> {
    keys: &'p [KeyMatch],
    action: ActionId,
    args: Vec<BitVec>,
    priority: u32,
}

/// The interpreter.
pub struct Interp<'p> {
    prog: &'p IrProgram,
    arch: Arch,
    faults: FaultSet,
    env: HashMap<String, BitVec>,
    /// Installed entries by table, highest priority first, equal
    /// priorities in install order.
    tables: HashMap<TableId, Vec<Entry<'p>>>,
    registers: HashMap<String, HashMap<u64, BitVec>>,
    packet: CPacket,
    emit_buf: Vec<BitVec>,
    outputs: Vec<(u32, Vec<u8>)>,
    parser_error: u64,
    dropped: bool,
    exited: bool,
    /// What v1model's resubmit, recirculate, truncate and clone externs
    /// asked of the traffic manager and the deparser.
    resubmit: bool,
    recirculate: bool,
    truncate_bytes: u64,
    clone_session: Option<u64>,
    /// Tofino: still in ingress, where a parser reject drops the packet.
    in_ingress: bool,
    /// Each checksum instance's `add`ed data, in call order.
    checksums: HashMap<String, Vec<BitVec>>,
    clone_sessions: HashMap<u64, u64>,
    trace: Vec<String>,
    garbage_counter: u8,
    /// Runaway guard for the parser state machine (how many state visits
    /// before the model gives up); mirrors the symbolic executor's
    /// configurable bound.
    parser_loop_bound: u32,
    stats: InterpStats,
    /// A reused buffer for building environment keys.
    key_buf: String,
}

/// Work counters for one model execution. Returned by
/// [`Interp::run_counted`] so callers can aggregate how much concrete
/// interpretation a validation pass actually performed — the counters are
/// reported even when the run ended in an exception, which is exactly when
/// the work spent matters for profiling.
#[derive(Clone, Copy, Debug, Default)]
pub struct InterpStats {
    /// Statements executed across all blocks (parsers, controls, actions).
    pub statements: u64,
    /// Parser state visits, summed over every parser invocation.
    pub parser_visits: u64,
}

impl<'p> Interp<'p> {
    pub fn new(prog: &'p IrProgram, arch: Arch, faults: FaultSet) -> Self {
        Interp {
            prog,
            arch,
            faults,
            env: HashMap::new(),
            tables: HashMap::new(),
            registers: HashMap::new(),
            packet: CPacket::new(BitVec::empty()),
            emit_buf: Vec::new(),
            outputs: Vec::new(),
            parser_error: 0,
            dropped: false,
            exited: false,
            resubmit: false,
            recirculate: false,
            truncate_bytes: 0,
            clone_session: None,
            in_ingress: true,
            checksums: HashMap::new(),
            clone_sessions: HashMap::new(),
            trace: Vec::new(),
            garbage_counter: 0,
            parser_loop_bound: 64,
            stats: InterpStats::default(),
            key_buf: String::new(),
        }
    }

    /// Override the parser-loop runaway guard (default 64 state visits).
    pub fn with_parser_loop_bound(mut self, bound: u32) -> Self {
        self.parser_loop_bound = bound;
        self
    }

    /// Execute a test specification end to end.
    pub fn run(self, spec: &'p TestSpec) -> IResult<InterpResult> {
        self.run_counted(spec).0
    }

    /// Like [`Interp::run`], additionally returning the work counters —
    /// even when the model raised an exception.
    pub fn run_counted(mut self, spec: &'p TestSpec) -> (IResult<InterpResult>, InterpStats) {
        let outcome = self.run_inner(spec);
        let stats = self.stats;
        match outcome {
            Ok(()) => (Ok(self.result()), stats),
            Err(e) => (Err(e), stats),
        }
    }

    fn run_inner(&mut self, spec: &'p TestSpec) -> IResult<()> {
        self.install_control_plane(spec)?;
        // Assemble the wire packet the pipeline sees.
        let mut wire = BitVec::from_bytes_be(&spec.input_packet);
        match self.arch {
            Arch::Tna | Arch::T2na => {
                let meta_bits = if self.arch == Arch::Tna { 64 } else { 128 };
                if spec.input_packet.len() < 64 {
                    self.trace.push("packet below 64B minimum: dropped".into());
                    return Ok(());
                }
                if self.faults.has(Fault::MinSizeBoundary) && spec.input_packet.len() == 64 {
                    return Err(InterpException("crash on minimum-size packet".into()));
                }
                let meta = self.garbage(meta_bits);
                let fcs = self.garbage(32);
                wire = meta.concat(&wire).concat(&fcs);
            }
            Arch::V1Model | Arch::Ebpf => {}
        }
        self.packet = CPacket::new(wire);
        self.write_env("$input_port", BitVec::from_u64(9, spec.input_port as u64));
        self.run_pipeline(spec)
    }

    fn result(mut self) -> InterpResult {
        let mut register_final = HashMap::new();
        for (inst, vals) in &self.registers {
            for (idx, v) in vals {
                register_final.insert((inst.clone(), *idx), v.cast(v.width().div_ceil(8) * 8).to_bytes_be());
            }
        }
        InterpResult { outputs: std::mem::take(&mut self.outputs), register_final, trace: self.trace }
    }

    fn garbage(&mut self, bits: usize) -> BitVec {
        // Deterministic but non-zero pattern for unpredictable content.
        self.garbage_counter = self.garbage_counter.wrapping_add(1);
        let mut v = BitVec::zeros(bits);
        for i in 0..bits {
            if !(i + self.garbage_counter as usize).is_multiple_of(3) {
                v.set_bit(i, (GARBAGE >> (i % 8)) & 1 == 1);
            }
        }
        v
    }

    // ---- control plane ----------------------------------------------------

    fn install_control_plane(&mut self, spec: &'p TestSpec) -> IResult<()> {
        for e in &spec.entries {
            self.install_entry(e)?;
        }
        // Stable: equal priorities keep their install order.
        for entries in self.tables.values_mut() {
            entries.sort_by_key(|e| std::cmp::Reverse(e.priority));
        }
        for r in &spec.register_init {
            let v = BitVec::from_bytes_be(&r.value);
            self.registers.entry(r.instance.clone()).or_default().insert(r.index, v);
        }
        Ok(())
    }

    fn install_entry(&mut self, e: &'p TableEntrySpec) -> IResult<()> {
        if e.table == "$clone_session" {
            // Mirror-session configuration.
            let session = match &e.keys[0] {
                KeyMatch::Exact { value, .. } => BitVec::from_bytes_be(value).to_u64().unwrap_or(0),
                _ => 0,
            };
            let port = BitVec::from_bytes_be(&e.action_args[0].1).to_u64().unwrap_or(0);
            self.clone_sessions.insert(session, port);
            return Ok(());
        }
        // STF back-end faults around entry installation.
        if self.faults.has(Fault::StfKeyExprName)
            && e.keys.iter().any(|k| k.name().contains('[') || k.name().contains('('))
        {
            return Err(InterpException(format!(
                "STF: cannot process key name '{}'",
                e.keys.iter().map(|k| k.name()).collect::<Vec<_>>().join(",")
            )));
        }
        if self.faults.has(Fault::MissingNameAnnotation)
            && e.keys.iter().any(|k| k.name().contains('.'))
        {
            return Err(InterpException(
                "STF: key is missing its @name annotation".into(),
            ));
        }
        if self.faults.has(Fault::SameNameMembers) {
            let mut names: Vec<&str> = e.keys.iter().map(|k| k.name()).collect();
            names.sort();
            let before = names.len();
            names.dedup();
            if names.len() != before {
                return Err(InterpException(
                    "BMv2: duplicate member names in table keys".into(),
                ));
            }
        }
        if self.faults.has(Fault::WideActionParam)
            && e.action_args.iter().any(|(_, v)| v.len() > 4)
        {
            return Err(InterpException("control plane: action parameter wider than 32 bits".into()));
        }
        for k in &e.keys {
            match k {
                KeyMatch::Ternary { mask, .. } if self.faults.has(Fault::TernaryMaskGap) => {
                    let m = BitVec::from_bytes_be(mask);
                    if !m.is_zero() && m == BitVec::ones(m.width()) {
                        return Err(InterpException(
                            "driver: ternary entry with an all-ones mask".into(),
                        ));
                    }
                }
                KeyMatch::Lpm { prefix_len, value, .. }
                    if self.faults.has(Fault::LpmFullWidthPrefix)
                        && *prefix_len as usize == value.len() * 8 =>
                {
                    return Err(InterpException("compiler: full-width LPM prefix".into()));
                }
                KeyMatch::Range { lo, hi, .. }
                    if self.faults.has(Fault::RangeDegenerate) && lo == hi =>
                {
                    return Err(InterpException("model: degenerate range entry".into()));
                }
                _ => {}
            }
        }
        let mut args: Vec<BitVec> = e
            .action_args
            .iter()
            .map(|(_, v)| BitVec::from_bytes_be(v))
            .collect();
        if self.faults.has(Fault::ActionArgByteSwap) {
            for a in &mut args {
                if a.width() >= 16 {
                    let w = a.width();
                    let hi = a.extract(w - 1, w - 8);
                    let lo = a.extract(7, 0);
                    let mid = if w > 16 { a.extract(w - 9, 8) } else { BitVec::empty() };
                    *a = lo.concat(&mid).concat(&hi);
                }
            }
        }
        // An entry for a table the program does not declare never matches.
        // The action arrives as "Control.action" and resolves among the
        // table's own actions.
        let prog = self.prog;
        let Some(t) = prog.tables.iter().position(|t| *t.control_plane_name == *e.table) else {
            return Ok(());
        };
        let bare = e.action.rsplit('.').next().unwrap_or(&e.action);
        let mut refs = prog.tables[t].actions.iter().map(|r| r.action);
        let action = refs.find(|&a| prog.action(a).name == bare).ok_or_else(|| {
            let msg = format!("control plane: table '{}' has no action '{}'", e.table, e.action);
            InterpException(msg)
        })?;
        self.tables.entry(TableId(t as u32)).or_default().push(Entry {
            keys: &e.keys,
            action,
            args,
            priority: e.priority,
        });
        Ok(())
    }

    // ---- env ---------------------------------------------------------------
    //
    // Every IR path is global: lowering bound block parameters to the
    // target's roots.

    fn read_env(&mut self, key: &str, width: u32) -> BitVec {
        // Reading a field of an invalid header: garbage (undefined).
        if let Some((parent, leaf)) = key.rsplit_once('.') {
            if !leaf.starts_with('$') {
                let vkey = self.joined_key(&[parent, ".$valid"]);
                let invalid = self.env.get(vkey.as_str()).is_some_and(BitVec::is_zero);
                self.key_buf = vkey;
                if invalid {
                    return match self.arch {
                        Arch::V1Model => BitVec::zeros(width as usize),
                        _ => self.garbage(width as usize),
                    };
                }
            }
        }
        if let Some(v) = self.env.get(key) {
            return v.clone();
        }
        let zeroed = match self.arch {
            Arch::V1Model => true,
            // Tofino zero-initializes user metadata; intrinsic metadata and
            // locals are undefined (garbage).
            Arch::Tna | Arch::T2na => key.starts_with("meta.") || key.starts_with("emeta."),
            Arch::Ebpf => false,
        };
        let v = if zeroed {
            BitVec::zeros(width as usize)
        } else {
            self.garbage(width as usize)
        };
        self.env.insert(key.to_string(), v.clone());
        v
    }

    fn write_env(&mut self, key: &str, v: BitVec) {
        match self.env.get_mut(key) {
            Some(slot) => *slot = v,
            None => {
                self.env.insert(key.to_string(), v);
            }
        }
    }

    /// `parts` joined in the reused key buffer. The caller hands the
    /// buffer back (`self.key_buf = key`) once done with the key.
    fn joined_key(&mut self, parts: &[&str]) -> String {
        let mut key = std::mem::take(&mut self.key_buf);
        key.clear();
        for part in parts {
            key.push_str(part);
        }
        key
    }

    fn read_key(&self, key: &str) -> Option<&BitVec> {
        self.env.get(key)
    }

    // ---- pipeline ------------------------------------------------------------

    fn run_pipeline(&mut self, spec: &TestSpec) -> IResult<()> {
        match self.arch {
            Arch::V1Model => self.run_v1model(spec),
            Arch::Tna | Arch::T2na => self.run_tofino(spec),
            Arch::Ebpf => self.run_ebpf(spec),
        }
    }

    fn run_v1model(&mut self, spec: &TestSpec) -> IResult<()> {
        let args = &self.prog.package_args;
        if args.len() != 6 {
            return Err(InterpException("V1Switch needs 6 blocks".into()));
        }
        for (f, w) in [
            ("sm.ingress_port", 9u32),
            ("sm.egress_spec", 9),
            ("sm.egress_port", 9),
            ("sm.mcast_grp", 16),
            ("sm.checksum_error", 1),
            ("sm.parser_error", 16),
        ] {
            self.write_env(f, BitVec::zeros(w as usize));
        }
        self.write_env("sm.ingress_port", BitVec::from_u64(9, spec.input_port as u64));
        let mut rounds = 0;
        loop {
            self.run_parser(args[0])?;
            self.run_control(args[1])?;
            self.run_control(args[2])?;
            // Traffic manager: resubmit re-injects the *original* packet.
            if self.resubmit && rounds < 2 {
                self.resubmit = false;
                rounds += 1;
                self.packet = CPacket::new(BitVec::from_bytes_be(&spec.input_packet));
                self.emit_buf.clear();
                self.write_env("sm.egress_spec", BitVec::zeros(9));
                self.trace.push("resubmitting".into());
                continue;
            }
            let spec_port = self.read_key("sm.egress_spec").cloned().unwrap_or_else(|| BitVec::zeros(9));
            if spec_port.to_u64() == Some(DROP_PORT)
                && !self.faults.has(Fault::IgnoreDropCtl) {
                    self.dropped = true;
                    self.trace.push("traffic manager: drop".into());
                    return Ok(());
                }
            self.write_env("sm.egress_port", spec_port);
            self.run_control(args[3])?;
            self.run_control(args[4])?;
            self.run_control(args[5])?;
            let mut out = self.deparsed();
            // Truncation.
            let trunc = self.truncate_bytes;
            if trunc > 0 && (trunc * 8) < out.width() as u64 {
                out = out.extract(out.width() - 1, out.width() - (trunc as usize * 8));
            }
            // Recirculate?
            if self.recirculate && rounds < 2 {
                self.recirculate = false;
                rounds += 1;
                self.packet = CPacket::new(out);
                self.write_env("sm.egress_spec", BitVec::zeros(9));
                self.trace.push("recirculating".into());
                continue;
            }
            let port =
                self.read_key("sm.egress_port").and_then(|v| v.to_u64()).unwrap_or(0) as u32;
            self.push_output(port, &out);
            // Clone output.
            if let Some(session) = self.clone_session {
                let cport = self.clone_sessions.get(&session).copied().unwrap_or(0) as u32;
                self.push_output(cport, &out);
            }
            return Ok(());
        }
    }

    fn run_tofino(&mut self, _spec: &TestSpec) -> IResult<()> {
        let args = &self.prog.package_args;
        if args.len() != 6 && args.len() != 7 {
            return Err(InterpException("Pipeline needs 6 or 7 blocks".into()));
        }
        self.write_env(
            "ig_intr_md.ingress_port",
            self.read_key("$input_port").cloned().unwrap_or_else(|| BitVec::zeros(9)),
        );
        self.write_env("ig_dprsr_md.drop_ctl", BitVec::zeros(3));
        self.write_env("eg_dprsr_md.drop_ctl", BitVec::zeros(3));
        self.write_env("ig_tm_md.bypass_egress", BitVec::zeros(1));
        self.write_env("ig_prsr_md.parser_err", BitVec::zeros(16));
        self.write_env("eg_prsr_md.parser_err", BitVec::zeros(16));
        self.in_ingress = true;
        // Ingress pipeline.
        self.run_parser(args[0])?;
        if self.dropped {
            return Ok(());
        }
        self.run_control(args[1])?;
        self.run_control(args[2])?;
        // The deparsed packet enters the traffic manager.
        let tm_packet = self.deparsed();
        // Traffic manager.
        let drop_ctl = self.read_key("ig_dprsr_md.drop_ctl").cloned().unwrap_or_else(|| BitVec::zeros(3));
        let has_port = self.env.contains_key("ig_tm_md.ucast_egress_port");
        if !drop_ctl.is_zero() {
            if self.faults.has(Fault::DropAndForwardConflict) && has_port {
                return Err(InterpException("model: drop_ctl with egress port set".into()));
            }
            if !self.faults.has(Fault::IgnoreDropCtl) {
                self.dropped = true;
                self.trace.push("TM: drop_ctl".into());
                return Ok(());
            }
        }
        if !has_port {
            self.dropped = true;
            self.trace.push("TM: no egress port".into());
            return Ok(());
        }
        let port = self.read_key("ig_tm_md.ucast_egress_port").and_then(|v| v.to_u64()).unwrap_or(0);
        let bypass = self
            .read_key("ig_tm_md.bypass_egress")
            .map(|v| !v.is_zero())
            .unwrap_or(false);
        self.in_ingress = false;
        self.packet = CPacket::new(tm_packet);
        if bypass && !self.faults.has(Fault::BypassEgressIgnored) {
            let out = self.packet.rest();
            self.push_output(port as u32, &out);
            return Ok(());
        }
        // Egress pipeline.
        self.run_parser(args[3])?;
        if self.dropped {
            return Ok(());
        }
        self.write_env("eg_intr_md.egress_port", BitVec::from_u64(9, port));
        self.run_control(args[4])?;
        self.run_control(args[5])?;
        let eg_drop = self.read_key("eg_dprsr_md.drop_ctl").cloned().unwrap_or_else(|| BitVec::zeros(3));
        if !eg_drop.is_zero() && !self.faults.has(Fault::IgnoreDropCtl) {
            self.dropped = true;
            return Ok(());
        }
        let out = self.deparsed();
        self.push_output(port as u32, &out);
        Ok(())
    }

    fn run_ebpf(&mut self, _spec: &TestSpec) -> IResult<()> {
        let args = &self.prog.package_args;
        if args.len() != 2 {
            return Err(InterpException("ebpfFilter needs 2 blocks".into()));
        }
        self.write_env("accept", BitVec::zeros(1));
        self.run_parser(args[0])?;
        if self.dropped {
            return Ok(());
        }
        self.run_control(args[1])?;
        let accept = self.read_key("accept").map(|v| !v.is_zero()).unwrap_or(false);
        if !accept {
            self.dropped = true;
            return Ok(());
        }
        // Implicit deparse: the parser's valid headers in declaration order,
        // then the payload.
        let prog = self.prog;
        let mut out = BitVec::empty();
        for &h in prog.bound_param(args[0], "hdr").map_or(&[][..], |p| &p.headers) {
            let h = prog.header(h);
            if self.env.get(h.valid.as_str()).is_some_and(|v| !v.is_zero()) {
                for f in &h.fields {
                    out = out.concat(&self.read_env(f.path.as_str(), f.width));
                }
            }
        }
        out = out.concat(&self.packet.rest());
        self.push_output(0, &out);
        Ok(())
    }

    /// The deparsed packet: the emitted headers, then the unparsed payload.
    fn deparsed(&mut self) -> BitVec {
        let emitted = self.emit_buf.drain(..).fold(BitVec::empty(), |out, e| out.concat(&e));
        emitted.concat(&self.packet.rest())
    }

    fn push_output(&mut self, port: u32, bits: &BitVec) {
        let w = bits.width();
        let padded = if w.is_multiple_of(8) { bits.clone() } else { bits.concat(&BitVec::zeros(8 - w % 8)) };
        self.outputs.push((port, padded.to_bytes_be()));
    }

    // ---- blocks -----------------------------------------------------------

    /// The block, with its bound `out` parameters reset: headers invalid.
    fn enter_block(&mut self, id: BlockId) -> &'p IrBlock {
        let prog = self.prog;
        let b = prog.block(id);
        for p in b.params() {
            if let (p4t_frontend::ast::Direction::Out, Some(_)) = (p.direction, &p.root) {
                for &h in &p.headers {
                    self.env.insert(prog.header(h).valid.0.clone(), BitVec::zeros(1));
                }
                for &s in &p.stacks {
                    let stack = prog.stack(s);
                    self.env.insert(stack.next.0.clone(), BitVec::zeros(32));
                    for &h in &stack.elements {
                        self.env.insert(prog.header(h).valid.0.clone(), BitVec::zeros(1));
                    }
                }
            }
        }
        b
    }

    fn run_parser(&mut self, id: BlockId) -> IResult<()> {
        let IrBlock::Parser(p) = self.enter_block(id) else {
            let name = self.prog.block(id).name();
            return Err(InterpException(format!("'{name}' is not a parser")));
        };
        let mut next = IrNext::State(p.start);
        let mut visits = 0;
        while let IrNext::State(state) = next {
            visits += 1;
            self.stats.parser_visits += 1;
            if visits > self.parser_loop_bound {
                return Err(InterpException::parser_loop_bound());
            }
            let s = self.prog.state(state);
            next = 'next: {
                for stmt in &s.stmts {
                    if !self.exec_stmt(stmt)? {
                        break 'next IrNext::Reject;
                    }
                }
                let (keys, cases) = match &s.transition {
                    IrTransition::Direct(n) => break 'next *n,
                    IrTransition::Select { keys, cases } => (keys, cases),
                };
                let key_vals: Vec<BitVec> =
                    keys.iter().map(|k| self.eval(k)).collect::<IResult<_>>()?;
                for c in cases {
                    if self.keysets_match(&key_vals, &c.keysets)? {
                        break 'next c.next_state;
                    }
                }
                self.parser_error = 2; // NoMatch
                IrNext::Reject
            };
        }
        if next == IrNext::Reject {
            self.on_parser_reject();
        }
        Ok(())
    }

    fn on_parser_reject(&mut self) {
        match self.arch {
            Arch::V1Model => {
                let err = BitVec::from_u64(16, self.parser_error);
                self.write_env("sm.parser_error", err);
                self.trace.push("parser reject: continue to ingress".into());
            }
            Arch::Tna | Arch::T2na => {
                let err = BitVec::from_u64(16, self.parser_error);
                if self.in_ingress {
                    self.write_env("ig_prsr_md.parser_err", err);
                    if !self.prog.reads_parser_err {
                        self.dropped = true;
                        self.trace.push("tofino: ingress parser reject -> drop".into());
                    }
                } else {
                    self.write_env("eg_prsr_md.parser_err", err);
                }
            }
            Arch::Ebpf => {
                self.dropped = true;
                self.trace.push("ebpf: parser reject -> drop".into());
            }
        }
    }

    fn run_control(&mut self, id: BlockId) -> IResult<()> {
        if self.dropped {
            return Ok(());
        }
        let IrBlock::Control(c) = self.enter_block(id) else {
            let name = self.prog.block(id).name();
            return Err(InterpException(format!("'{name}' is not a control")));
        };
        self.exited = false;
        for s in &c.apply {
            if !self.exec_stmt(s)? || self.exited {
                break;
            }
        }
        self.exited = false;
        Ok(())
    }

    // ---- statements -----------------------------------------------------------

    /// Execute a statement; `Ok(false)` signals a parser reject.
    fn exec_stmt(&mut self, s: &IrStmt) -> IResult<bool> {
        if self.exited {
            return Ok(true);
        }
        self.stats.statements += 1;
        match s {
            IrStmt::DeclVar { path, width, .. } => {
                let v = match self.arch {
                    Arch::V1Model => BitVec::zeros(*width as usize),
                    _ => self.garbage(*width as usize),
                };
                self.write_env(path.as_str(), v);
                Ok(true)
            }
            IrStmt::Assign { target, value, .. } => {
                let v = self.eval(value)?;
                self.write_env(target.as_str(), v);
                Ok(true)
            }
            IrStmt::If { cond, then_s, else_s, .. } => {
                let c = self.eval(cond)?;
                let body = if !c.is_zero() { then_s } else { else_s };
                for st in body {
                    if !self.exec_stmt(st)? {
                        return Ok(false);
                    }
                    if self.exited {
                        break;
                    }
                }
                Ok(true)
            }
            IrStmt::ApplyTable { table, .. } => {
                self.apply_table(*table, None)?;
                Ok(true)
            }
            IrStmt::SwitchActionRun { table, cases, .. } => {
                self.apply_table(*table, Some(cases))?;
                Ok(true)
            }
            IrStmt::Extract { header, varbit_len, .. } => {
                self.exec_extract(*header, varbit_len.as_ref())
            }
            IrStmt::Advance { bits, .. } => {
                let n = self.eval(bits)?.to_u64().unwrap_or(0) as usize;
                if self.packet.read(n).is_none() {
                    self.parser_error = 1;
                    return Ok(false);
                }
                Ok(true)
            }
            IrStmt::Emit { header, .. } => {
                self.exec_emit(*header)?;
                Ok(true)
            }
            IrStmt::SetValid { header, valid, .. } => {
                self.write_env(header.valid().as_str(), BitVec::from_bool(*valid));
                Ok(true)
            }
            IrStmt::CallAction { action, args, .. } => {
                let vals: Vec<BitVec> = args.iter().map(|a| self.eval(a)).collect::<IResult<_>>()?;
                self.call_action(*action, &vals)?;
                Ok(true)
            }
            IrStmt::ExternCall { name, instance, args, .. } => {
                self.exec_extern(name, instance.as_deref(), args)
            }
            IrStmt::StackOp { stack, push, count, .. } => {
                self.exec_stack_op(*stack, *push, *count)?;
                Ok(true)
            }
            IrStmt::Exit { .. } | IrStmt::Return { .. } => {
                self.exited = true;
                Ok(true)
            }
        }
    }

    fn exec_extract(&mut self, header: HeaderId, varbit_len: Option<&IrExpr>) -> IResult<bool> {
        let h = self.prog.header(header);
        let vb_len = match varbit_len {
            Some(e) => self.eval(e)?.to_u64().unwrap_or(0) as usize,
            None => 0,
        };
        if self.faults.has(Fault::VarbitExtractExpr) && varbit_len.is_some() && vb_len > 0 {
            return Err(InterpException(
                "compiler mistranslated varbit extract with expression length".into(),
            ));
        }
        // A failing extract consumes nothing: the unparsed content passes
        // through as payload (matching the oracle's model and Fig 1c).
        let width = |f: &p4t_ir::FieldLayout| match f.varbit_len {
            Some(_) => vb_len,
            None => f.width as usize,
        };
        let need: usize = h.fields.iter().map(width).sum();
        if self.packet.remaining() < need {
            self.parser_error = 1; // PacketTooShort
            return Ok(false);
        }
        for f in &h.fields {
            let Some(v) = self.packet.read(width(f)) else {
                self.parser_error = 1; // PacketTooShort
                return Ok(false);
            };
            match &f.varbit_len {
                Some(lenp) => {
                    self.write_env(f.path.as_str(), v.cast(f.width as usize));
                    self.write_env(lenp.as_str(), BitVec::from_u64(32, vb_len as u64));
                }
                None => self.write_env(f.path.as_str(), v),
            }
        }
        self.write_env(h.valid.as_str(), BitVec::from_bool(true));
        Ok(true)
    }

    fn exec_emit(&mut self, header: HeaderId) -> IResult<()> {
        let h = self.prog.header(header);
        let valid = self.env.get(h.valid.as_str()).is_some_and(|v| !v.is_zero());
        if !valid {
            return Ok(());
        }
        if self.faults.has(Fault::EmitUnflattened) {
            // P4C-6 analogue: emitting a header with a never-initialized
            // field (validity set programmatically, fields partially written)
            // crashes the deparser.
            if let Some(f) = h
                .fields
                .iter()
                .find(|f| f.varbit_len.is_none() && !self.env.contains_key(f.path.as_str()))
            {
                return Err(InterpException(format!(
                    "deparser: emit of {} with uninitialized field {}",
                    h.path,
                    f.path.as_str().rsplit('.').next().unwrap_or_default()
                )));
            }
        }
        if self.faults.has(Fault::DeparserManyHeaders) && self.emit_buf.len() >= 3 {
            return Err(InterpException("deparser: too many emitted headers".into()));
        }
        let mut acc = BitVec::empty();
        for f in &h.fields {
            let v = self.read_env(f.path.as_str(), f.width);
            match &f.varbit_len {
                Some(lenp) => {
                    let len =
                        self.env.get(lenp.as_str()).and_then(|v| v.to_u64()).unwrap_or(0) as usize;
                    if len > 0 {
                        acc = acc.concat(&v.extract(len - 1, 0));
                    }
                }
                None => acc = acc.concat(&v),
            }
        }
        self.emit_buf.push(acc);
        Ok(())
    }

    /// Shift a stack's elements by `count` toward its end (`push`) or its
    /// front, copying each element's layout slots from its source element
    /// (unwritten slots stay unwritten); elements shifted in from outside
    /// the stack are invalid.
    fn exec_stack_op(&mut self, stack: StackId, push: bool, count: u32) -> IResult<()> {
        if self.faults.has(Fault::StackPushWrongOp) {
            return Err(InterpException("wrong operation on header stack push/pop".into()));
        }
        let prog = self.prog;
        let layout = prog.stack(stack);
        let size = layout.elements.len() as u32;
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
                        match self.env.get(s.as_str()).cloned() {
                            Some(v) => self.env.insert(d.0.clone(), v),
                            None => self.env.remove(d.as_str()),
                        };
                    }
                }
                None => {
                    for d in dst.slots() {
                        self.env.remove(d.as_str());
                    }
                    self.env.insert(dst.valid.0.clone(), BitVec::zeros(1));
                }
            }
        }
        let next = self.env.get(layout.next.as_str()).and_then(|v| v.to_u64()).unwrap_or(0);
        let newv = if push {
            (next + count as u64).min(size as u64)
        } else {
            next.saturating_sub(count as u64)
        };
        self.env.insert(layout.next.0.clone(), BitVec::from_u64(32, newv));
        Ok(())
    }

    fn call_action(&mut self, action: ActionId, args: &[BitVec]) -> IResult<()> {
        let a = self.prog.action(action);
        for (p, v) in a.params.iter().zip(args) {
            self.write_env(p.path.as_str(), v.cast(p.width as usize));
        }
        for s in &a.body {
            self.exec_stmt(s)?;
            if self.exited {
                break;
            }
        }
        self.exited = false;
        Ok(())
    }

    // ---- tables -----------------------------------------------------------------

    fn apply_table(
        &mut self,
        table: TableId,
        switch_cases: Option<&[(Option<ActionId>, Vec<IrStmt>)]>,
    ) -> IResult<()> {
        let prog = self.prog;
        let tbl = prog.table(table);
        let key_vals: Vec<BitVec> =
            tbl.keys.iter().map(|k| self.eval(&k.expr)).collect::<IResult<_>>()?;
        // Const entries first (priority-ordered), then installed entries.
        let mut was_hit = true;
        let hit = self.match_const_entries(tbl, &key_vals)?;
        let (action, args) = match hit {
            Some((a, args)) => (a, args),
            None => match self.match_installed(table, &key_vals)? {
                Some((a, args)) => (a, args),
                None => {
                    was_hit = false;
                    let dargs: Vec<BitVec> = tbl
                        .default_args
                        .iter()
                        .map(|e| self.eval(e))
                        .collect::<IResult<_>>()?;
                    (tbl.default_action, dargs)
                }
            },
        };
        // Record hit/miss in the synthetic slots `t.apply().hit` reads.
        self.write_env(tbl.hit.as_str(), BitVec::from_bool(was_hit));
        self.write_env(tbl.applied.as_str(), BitVec::from_bool(true));
        self.trace.push(format!("{} -> {}", tbl.name, prog.action(action).name));
        // P4C-7 (wrong code): inside a switch statement, the compiler
        // swallowed the table.apply() — the chosen action never runs.
        let swallow = switch_cases.is_some() && self.faults.has(Fault::SwallowSwitchApply);
        if !swallow {
            self.call_action(action, &args)?;
        } else {
            self.trace.push("fault: switch apply swallowed".into());
        }
        if let Some(cases) = switch_cases {
            // Run the matching case body (or default).
            let body = cases
                .iter()
                .find(|(l, _)| *l == Some(action))
                .or_else(|| cases.iter().find(|(l, _)| l.is_none()))
                .map(|(_, b)| b);
            if let Some(body) = body {
                for s in body {
                    self.exec_stmt(s)?;
                    if self.exited {
                        break;
                    }
                }
            }
        }
        Ok(())
    }

    fn match_const_entries(
        &mut self,
        tbl: &IrTable,
        keys: &[BitVec],
    ) -> IResult<Option<(ActionId, Vec<BitVec>)>> {
        // Lowering stored the entries in match order; the fault matches the
        // lowest priority first.
        let mut inverted: Vec<&IrConstEntry> = Vec::new();
        if self.faults.has(Fault::PriorityInverted) {
            inverted.extend(&tbl.const_entries);
            inverted.sort_by_key(|e| e.priority.unwrap_or(0));
        }
        let lowered = if inverted.is_empty() { &tbl.const_entries[..] } else { &[] };
        for e in lowered.iter().chain(inverted) {
            if self.keysets_match(keys, &e.keysets)? {
                let args: Vec<BitVec> =
                    e.args.iter().map(|a| self.eval(a)).collect::<IResult<_>>()?;
                return Ok(Some((e.action, args)));
            }
        }
        Ok(None)
    }

    fn match_installed(
        &mut self,
        table: TableId,
        keys: &[BitVec],
    ) -> IResult<Option<(ActionId, Vec<BitVec>)>> {
        let Some(entries) = self.tables.get(&table) else {
            return Ok(None);
        };
        'entry: for e in entries {
            for (k, m) in keys.iter().zip(e.keys) {
                if !self.key_matches(k, m)? {
                    continue 'entry;
                }
            }
            return Ok(Some((e.action, e.args.clone())));
        }
        Ok(None)
    }

    fn key_matches(&self, key: &BitVec, m: &KeyMatch) -> IResult<bool> {
        let w = key.width();
        let fit = |bytes: &[u8]| BitVec::from_bytes_be(bytes).cast(w);
        Ok(match m {
            KeyMatch::Exact { value, .. } => *key == fit(value),
            KeyMatch::Ternary { value, mask, .. } => {
                let v = fit(value);
                let mk = fit(mask);
                key.and(&mk) == v.and(&mk)
            }
            KeyMatch::Lpm { value, prefix_len, .. } => {
                let v = fit(value);
                let plen = *prefix_len as usize;
                if plen == 0 {
                    true
                } else {
                    let mask = BitVec::ones(w).shl_const(w - plen.min(w));
                    key.and(&mask) == v.and(&mask)
                }
            }
            KeyMatch::Range { lo, hi, .. } => {
                let l = fit(lo);
                let h = fit(hi);
                if self.faults.has(Fault::RangeExclusiveHi) {
                    l.ule(key) && key.ult(&h)
                } else {
                    l.ule(key) && key.ule(&h)
                }
            }
            KeyMatch::Optional { value, .. } => match value {
                None => true,
                Some(v) => *key == fit(v),
            },
        })
    }

    fn keysets_match(&mut self, keys: &[BitVec], keysets: &[IrKeyset]) -> IResult<bool> {
        for (k, ks) in keys.iter().zip(keysets) {
            let ok = match ks {
                IrKeyset::Dontcare => true,
                IrKeyset::Exact(e) => {
                    let v = self.eval(e)?.cast(k.width());
                    *k == v
                }
                IrKeyset::Mask { value, mask } => {
                    let v = self.eval(value)?.cast(k.width());
                    let m = self.eval(mask)?.cast(k.width());
                    k.and(&m) == v.and(&m)
                }
                IrKeyset::Range { lo, hi } => {
                    let l = self.eval(lo)?.cast(k.width());
                    let h = self.eval(hi)?.cast(k.width());
                    l.ule(k) && k.ule(&h)
                }
            };
            if !ok {
                return Ok(false);
            }
        }
        Ok(true)
    }

    // ---- externs ------------------------------------------------------------------

    fn exec_extern(
        &mut self,
        name: &str,
        instance: Option<&str>,
        args: &[IrArg],
    ) -> IResult<bool> {
        use p4testgen_core::concolic;
        match (name, instance) {
            ("$parser_error", _) => {
                if let Some(IrArg::In(e)) = args.first() {
                    self.parser_error = self.eval(e)?.to_u64().unwrap_or(0);
                }
                // BMV2-1: an out-of-bounds header-stack access (the
                // StackOutOfBounds error path) crashes the model.
                if self.faults.has(Fault::StackIndexCrash) && self.parser_error == 3 {
                    return Err(InterpException(
                        "BMv2 crash: header stack index out of bounds".into(),
                    ));
                }
                return Ok(false);
            }
            ("mark_to_drop", _) => {
                self.write_env("sm.egress_spec", BitVec::from_u64(9, DROP_PORT));
                self.write_env("sm.mcast_grp", BitVec::zeros(16));
            }
            ("verify_checksum" | "verify_checksum_with_payload", _) => {
                let cond = !self.eval_arg(&args[0])?.is_zero();
                if cond {
                    let mut data = self.eval_arg_list(&args[1])?;
                    if name.ends_with("_with_payload") {
                        data.push(self.packet.rest());
                    }
                    let given = self.eval_arg(&args[2])?;
                    let algo = self.eval_arg(&args[3])?.to_u64().unwrap_or(2);
                    let computed = self.run_hash(algo, &data, given.width() as u32);
                    if computed != given {
                        self.write_env("sm.checksum_error", BitVec::from_bool(true));
                    }
                }
            }
            ("update_checksum" | "update_checksum_with_payload", _) => {
                let cond = !self.eval_arg(&args[0])?.is_zero();
                if cond {
                    let mut data = self.eval_arg_list(&args[1])?;
                    if name.ends_with("_with_payload") {
                        data.push(self.packet.rest());
                    }
                    if let IrArg::Out(p, w) = &args[2] {
                        let algo = self.eval_arg(&args[3])?.to_u64().unwrap_or(2);
                        let v = self.run_hash(algo, &data, *w);
                        self.write_env(p.as_str(), v);
                    }
                }
            }
            ("hash", _) => {
                if let IrArg::Out(p, w) = &args[0] {
                    let algo = self.eval_arg(&args[1])?.to_u64().unwrap_or(0);
                    let base = self.eval_arg(&args[2])?;
                    let data = self.eval_arg_list(&args[3])?;
                    let max = self.eval_arg(&args[4])?;
                    let h = self.run_hash(algo, &data, *w);
                    let maxc = max.cast(*w as usize);
                    let v = if maxc.is_zero() {
                        base.cast(*w as usize)
                    } else {
                        base.cast(*w as usize).add(&h.urem(&maxc))
                    };
                    self.write_env(p.as_str(), v);
                }
            }
            ("random", _) => {
                if let IrArg::Out(p, w) = &args[0] {
                    let v = self.garbage(*w as usize);
                    self.write_env(p.as_str(), v);
                }
            }
            ("read", Some(inst)) => {
                // v1model: read(out result, index); tna: read(index) + temp.
                let (out, idx) = match (&args[0], args.last()) {
                    (IrArg::Out(p, w), _) => (Some((p.clone(), *w)), self.eval_arg(&args[1])?),
                    (_, Some(IrArg::Out(p, w))) => (Some((p.clone(), *w)), self.eval_arg(&args[0])?),
                    _ => (None, BitVec::zeros(32)),
                };
                if let Some((p, w)) = out {
                    let i = idx.to_u64().unwrap_or(0);
                    self.check_register_fault(inst, i)?;
                    let v = self
                        .registers
                        .get(inst)
                        .and_then(|r| r.get(&i))
                        .cloned()
                        .unwrap_or_else(|| BitVec::zeros(w as usize));
                    self.write_env(p.as_str(), v.cast(w as usize));
                }
            }
            ("write", Some(inst)) => {
                let idx = self.eval_arg(&args[0])?.to_u64().unwrap_or(0);
                let val = self.eval_arg(&args[1])?;
                self.check_register_fault(inst, idx)?;
                if !self.faults.has(Fault::RegisterWriteLost) {
                    self.registers.entry(inst.to_string()).or_default().insert(idx, val);
                }
            }
            ("get", Some(_)) => {
                if let Some(IrArg::Out(p, w)) = args.last() {
                    if args.len() >= 2 {
                        let data = self.eval_arg_list(&args[0])?;
                        let algo = if self.faults.has(Fault::HashAlgorithmSwap) { 1 } else { 0 };
                        let v = self.run_hash(algo, &data, *w);
                        self.write_env(p.as_str(), v);
                    } else {
                        let v = self.garbage(*w as usize);
                        self.write_env(p.as_str(), v);
                    }
                }
            }
            ("execute" | "execute_meter" | "read_meter", _) => {
                // Meter colors come from control-plane configuration (the
                // spec's register_init), mirroring the oracle's model.
                if let Some(IrArg::Out(p, w)) = args.iter().find(|a| matches!(a, IrArg::Out(..))).cloned() {
                    let idx = match args.first() {
                        Some(IrArg::In(e)) => self.eval(e)?.to_u64().unwrap_or(0),
                        _ => 0,
                    };
                    let inst = instance.unwrap_or("meter");
                    let v = self
                        .registers
                        .get(inst)
                        .and_then(|r| r.get(&idx))
                        .cloned()
                        .unwrap_or_else(|| BitVec::zeros(w as usize));
                    self.write_env(p.as_str(), v.cast(w as usize));
                }
            }
            ("add" | "subtract", Some(inst)) => {
                let data = self.eval_arg_list(&args[0])?;
                self.checksums.entry(inst.to_string()).or_default().extend(data);
            }
            ("verify", Some(inst)) => {
                if let Some(IrArg::Out(p, _)) = args.last() {
                    let data = self.checksums.get(inst).map_or(&[][..], Vec::as_slice);
                    let c = concolic::csum16(data, 16);
                    self.write_env(p.as_str(), BitVec::from_bool(c.is_zero()));
                }
            }
            ("truncate", _) => {
                let len = self.eval_arg(&args[0])?.to_u64().unwrap_or(0);
                self.truncate_bytes = len;
            }
            ("resubmit_preserving_field_list", _) => {
                self.resubmit = true;
            }
            ("recirculate_preserving_field_list", _) => {
                self.recirculate = true;
            }
            ("clone" | "clone_preserving_field_list", _) => {
                let session = self.eval_arg(&args[1])?.to_u64().unwrap_or(0);
                self.clone_session = Some(session);
            }
            ("assert" | "assume", _) => {
                let c = self.eval_arg(&args[0])?;
                if c.is_zero() {
                    return Err(InterpException("assert/assume failed at runtime".into()));
                }
            }
            ("count" | "digest" | "log_msg" | "pack" | "emit" | "increment", _) => {}
            (other, _) => {
                return Err(InterpException(format!("unimplemented extern '{other}'")));
            }
        }
        Ok(true)
    }

    fn check_register_fault(&self, inst: &str, idx: u64) -> IResult<()> {
        if self.faults.has(Fault::RegisterLastIndex) {
            // Find the declared register size.
            for block in &self.prog.blocks {
                if let IrBlock::Control(c) = block {
                    for i in &c.instances {
                        if i.name == inst {
                            if let Some(size) = i.ctor_args.first() {
                                if *size > 0 && idx == (*size - 1) as u64 {
                                    return Err(InterpException(
                                        "register access at last index crashes".into(),
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn run_hash(&self, algo: u64, data: &[BitVec], width: u32) -> BitVec {
        use p4testgen_core::concolic::{crc16, crc32, csum16, identity, xor16};
        let mut algo = algo;
        if self.faults.has(Fault::HashAlgorithmSwap) && algo == 0 {
            algo = 1; // crc32 silently becomes crc16
        }
        match algo {
            0 => crc32(data, width),
            1 => crc16(data, width),
            2 => csum16(data, width),
            3 => xor16(data, width),
            _ => identity(data, width),
        }
    }

    fn eval_arg(&mut self, a: &IrArg) -> IResult<BitVec> {
        match a {
            IrArg::In(e) => self.eval(e),
            other => Err(InterpException(format!("expected input argument, got {other:?}"))),
        }
    }

    fn eval_arg_list(&mut self, a: &IrArg) -> IResult<Vec<BitVec>> {
        match a {
            IrArg::In(e) => Ok(vec![self.eval(e)?]),
            IrArg::InList(es) => es.iter().map(|e| self.eval(e)).collect(),
            other => Err(InterpException(format!("expected inputs, got {other:?}"))),
        }
    }

    // ---- expressions -----------------------------------------------------------------

    fn eval(&mut self, e: &IrExpr) -> IResult<BitVec> {
        Ok(match e {
            IrExpr::Const { width, value } => BitVec::from_u128(*width as usize, *value),
            IrExpr::Read { path, width } => {
                // StackDerefWrongOp: reads through stack element paths crash.
                if self.faults.has(Fault::StackDerefWrongOp) && path.as_str().contains('[') {
                    return Err(InterpException("wrong operation dereferencing header stack".into()));
                }
                self.read_env(path.as_str(), *width)
            }
            IrExpr::IsValid { path } => {
                let key = path.valid();
                BitVec::from_bool(self.env.get(key.as_str()).map(|v| !v.is_zero()).unwrap_or(false))
            }
            IrExpr::Unary { op, arg, .. } => {
                let a = self.eval(arg)?;
                match op {
                    IrUnOp::Not => a.not(),
                    IrUnOp::Neg => a.negate(),
                }
            }
            IrExpr::Binary { op, lhs, rhs, .. } => {
                let a = self.eval(lhs)?;
                let b = self.eval(rhs)?;
                eval_binop(*op, &a, &b)
            }
            IrExpr::Slice { base, hi, lo } => {
                let b = self.eval(base)?;
                b.extract(*hi as usize, *lo as usize)
            }
            IrExpr::Cast { arg, width } => self.eval(arg)?.cast(*width as usize),
            IrExpr::SignCast { arg, width } => {
                let a = self.eval(arg)?;
                if (*width as usize) > a.width() {
                    a.sext(*width as usize)
                } else {
                    a.cast(*width as usize)
                }
            }
            IrExpr::Mux { cond, then_e, else_e, .. } => {
                if !self.eval(cond)?.is_zero() {
                    self.eval(then_e)?
                } else {
                    self.eval(else_e)?
                }
            }
            IrExpr::Lookahead { width } => {
                if self.faults.has(Fault::LookaheadIntoFcs)
                    && matches!(self.arch, Arch::Tna | Arch::T2na)
                    && *width > 32
                {
                    return Err(InterpException(
                        "parser crash: wide lookahead reaches into the FCS".into(),
                    ));
                }
                match self.packet.peek(*width as usize) {
                    Some(v) => v,
                    None => self.garbage(*width as usize),
                }
            }
            IrExpr::VarbitLen { path } => {
                let key = path.child("$len");
                self.env.get(key.as_str()).cloned().unwrap_or_else(|| BitVec::zeros(32))
            }
        })
    }
}

fn eval_binop(op: IrBinOp, a: &BitVec, b: &BitVec) -> BitVec {
    match op {
        IrBinOp::Add => a.add(b),
        IrBinOp::Sub => a.sub(b),
        IrBinOp::Mul => a.mul(b),
        IrBinOp::Div => a.udiv(b),
        IrBinOp::Mod => a.urem(b),
        IrBinOp::And => a.and(b),
        IrBinOp::Or => a.or(b),
        IrBinOp::Xor => a.xor(b),
        IrBinOp::Shl => a.shl(b),
        IrBinOp::Shr => a.lshr(b),
        IrBinOp::AShr => a.ashr(b),
        IrBinOp::Eq => BitVec::from_bool(a == b),
        IrBinOp::Neq => BitVec::from_bool(a != b),
        IrBinOp::Ult => BitVec::from_bool(a.ult(b)),
        IrBinOp::Ule => BitVec::from_bool(a.ule(b)),
        IrBinOp::Ugt => BitVec::from_bool(b.ult(a)),
        IrBinOp::Uge => BitVec::from_bool(b.ule(a)),
        IrBinOp::Slt => BitVec::from_bool(a.slt(b)),
        IrBinOp::Sle => BitVec::from_bool(a.sle(b)),
        IrBinOp::Sgt => BitVec::from_bool(b.slt(a)),
        IrBinOp::Sge => BitVec::from_bool(b.sle(a)),
        IrBinOp::Concat => a.concat(b),
    }
}
