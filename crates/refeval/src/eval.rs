//! Evaluator state and pipeline drivers.
//!
//! The reference evaluator walks the typed AST directly. Its environment is
//! a flat `path -> Bits` map using the same canonical path grammar as the
//! production pipeline (`hdr.eth.dst`, `stack[2].$valid`, `Ctl::local`,
//! `Ctl::act::param`) because control-plane names and register instances
//! are part of the observable contract. Internal scratch behavior (garbage
//! pattern, temp names) is deliberately *different* so shared bugs cannot
//! hide.

use std::collections::HashMap;

use p4t_frontend::ast::{ControlDecl, Direction, Expr, Param, ParserDecl, Stmt, Transition};
use p4t_frontend::typecheck::CheckedProgram;
use p4t_frontend::types::{Type, TypeEnv};

use crate::bits::Bits;
use crate::{RefArch, RefError, RefInput, RefKey, RefRun};

/// The v1model drop port.
pub(crate) const DROP_PORT: u64 = 511;

/// The reference evaluator's own garbage byte pattern. The production
/// interpreter uses `0xA5` with a `%3` stride; we intentionally use a
/// different pattern so that any test whose outcome leaks uninitialized
/// bits past the spec's don't-care masks shows up as a divergence instead
/// of being silently self-consistent.
const REF_GARBAGE: u8 = 0x5C;

pub(crate) type EvResult<T> = Result<T, RefError>;

pub(crate) fn unsupported<T>(msg: impl Into<String>) -> EvResult<T> {
    Err(RefError::Unsupported(msg.into()))
}

pub(crate) fn trap<T>(msg: impl Into<String>) -> EvResult<T> {
    Err(RefError::Trap(msg.into()))
}

/// A cursor over the wire bit string, consuming from the MSB end.
pub(crate) struct Pkt {
    bits: Bits,
    pos: usize,
}

impl Pkt {
    pub(crate) fn new(bits: Bits) -> Pkt {
        Pkt { bits, pos: 0 }
    }

    pub(crate) fn remaining(&self) -> usize {
        self.bits.width() - self.pos
    }

    pub(crate) fn read(&mut self, n: usize) -> Option<Bits> {
        if self.remaining() < n {
            return None;
        }
        if n == 0 {
            return Some(Bits::empty());
        }
        let w = self.bits.width();
        let v = self.bits.extract(w - self.pos - 1, w - self.pos - n);
        self.pos += n;
        Some(v)
    }

    pub(crate) fn peek(&self, n: usize) -> Option<Bits> {
        if self.remaining() < n || n == 0 {
            return if n == 0 { Some(Bits::empty()) } else { None };
        }
        let w = self.bits.width();
        Some(self.bits.extract(w - self.pos - 1, w - self.pos - n))
    }

    pub(crate) fn rest(&self) -> Bits {
        let rem = self.remaining();
        if rem == 0 {
            Bits::empty()
        } else {
            self.bits.extract(rem - 1, 0)
        }
    }
}

/// What a name in scope refers to.
#[derive(Clone, Debug)]
pub(crate) enum Binding {
    /// A data value (parameter root, local, action parameter) at an
    /// environment path.
    Val { path: String, ty: Type },
    PacketIn,
    PacketOut,
    /// An extern object instance (register, counter, meter, checksum unit).
    Inst { extern_name: String, type_args: Vec<Type>, path: String },
}

/// An installed control-plane table entry after decoding.
#[derive(Clone, Debug)]
pub(crate) struct Entry {
    pub keys: Vec<RefKey>,
    pub action: String,
    pub args: Vec<Bits>,
    pub priority: u32,
}

pub(crate) struct Ev<'p> {
    pub prog: &'p p4t_frontend::ast::Program,
    pub tenv: &'p TypeEnv,
    pub arch: RefArch,
    pub env: HashMap<String, Bits>,
    pub frames: Vec<HashMap<String, Binding>>,
    /// Names of the enclosing blocks, innermost last (used to resolve
    /// actions/tables and to prefix local paths).
    pub block_stack: Vec<&'p ControlDecl>,
    pub block_names: Vec<String>,
    pub pkt: Pkt,
    pub emit_buf: Vec<Bits>,
    pub outputs: Vec<(u32, Vec<u8>)>,
    pub registers: HashMap<String, HashMap<u64, Bits>>,
    pub tables: HashMap<String, Vec<Entry>>,
    pub clone_sessions: HashMap<u64, u64>,
    pub parser_error: u64,
    pub dropped: bool,
    pub exited: bool,
    pub flags: HashMap<String, u64>,
    pub trace: Vec<String>,
    garbage_counter: u8,
    parser_loop_bound: u32,
    reads_parser_err_cache: Option<bool>,
}

impl<'p> Ev<'p> {
    pub(crate) fn new(
        checked: &'p CheckedProgram,
        arch: RefArch,
        _input: &RefInput,
        parser_loop_bound: u32,
    ) -> Ev<'p> {
        Ev {
            prog: &checked.program,
            tenv: &checked.env,
            arch,
            env: HashMap::new(),
            frames: Vec::new(),
            block_stack: Vec::new(),
            block_names: Vec::new(),
            pkt: Pkt::new(Bits::empty()),
            emit_buf: Vec::new(),
            outputs: Vec::new(),
            registers: HashMap::new(),
            tables: HashMap::new(),
            clone_sessions: HashMap::new(),
            parser_error: 0,
            dropped: false,
            exited: false,
            flags: HashMap::new(),
            trace: Vec::new(),
            garbage_counter: 0,
            parser_loop_bound,
            reads_parser_err_cache: None,
        }
    }

    // ---- control plane ---------------------------------------------------

    pub(crate) fn install(&mut self, input: &RefInput) -> EvResult<()> {
        for e in &input.entries {
            if e.table == "$clone_session" {
                let session = match e.keys.first() {
                    Some(RefKey::Exact { value }) => {
                        Bits::from_bytes_be(value).to_u64().unwrap_or(0)
                    }
                    _ => 0,
                };
                let port = e
                    .action_args
                    .first()
                    .map(|v| Bits::from_bytes_be(v).to_u64().unwrap_or(0))
                    .unwrap_or(0);
                self.clone_sessions.insert(session, port);
                continue;
            }
            let action = e.action.rsplit('.').next().unwrap_or(&e.action).to_string();
            let args = e.action_args.iter().map(|v| Bits::from_bytes_be(v)).collect();
            self.tables.entry(e.table.clone()).or_default().push(Entry {
                keys: e.keys.clone(),
                action,
                args,
                priority: e.priority,
            });
        }
        for r in &input.register_init {
            self.registers
                .entry(r.instance.clone())
                .or_default()
                .insert(r.index, Bits::from_bytes_be(&r.value));
        }
        Ok(())
    }

    // ---- environment -----------------------------------------------------

    pub(crate) fn garbage(&mut self, w: usize) -> Bits {
        self.garbage_counter = self.garbage_counter.wrapping_add(1);
        let mut v = Bits::zeros(w);
        for i in 0..w {
            if !(i + self.garbage_counter as usize).is_multiple_of(5) {
                v.set_bit(i, (REF_GARBAGE >> (i % 8)) & 1 == 1);
            }
        }
        v
    }

    /// Read a slot, applying the target's uninitialized-read policy:
    /// fields of an invalid header read as zero (v1model) or garbage
    /// (other targets) without being memoized; plain missing slots read
    /// as zero on zero-initializing targets and garbage elsewhere, and
    /// the first read sticks.
    pub(crate) fn read_env(&mut self, path: &str, w: usize) -> Bits {
        if let Some((parent, leaf)) = path.rsplit_once('.') {
            if !leaf.starts_with('$') {
                if let Some(v) = self.env.get(&format!("{parent}.$valid")) {
                    if v.is_zero() {
                        return if self.arch == RefArch::V1Model {
                            Bits::zeros(w)
                        } else {
                            self.garbage(w)
                        };
                    }
                }
            }
        }
        if let Some(v) = self.env.get(path) {
            return if v.width() == w { v.clone() } else { v.cast(w) };
        }
        let zeroed = self.arch == RefArch::V1Model
            || (matches!(self.arch, RefArch::Tna | RefArch::T2na)
                && (path.starts_with("meta.") || path.starts_with("emeta.")));
        let v = if zeroed { Bits::zeros(w) } else { self.garbage(w) };
        self.env.insert(path.to_string(), v.clone());
        v
    }

    pub(crate) fn write_env(&mut self, path: impl Into<String>, v: Bits) {
        self.env.insert(path.into(), v);
    }

    /// Raw environment read (no uninit policy, no memoization).
    pub(crate) fn env_raw(&self, path: &str) -> Option<&Bits> {
        self.env.get(path)
    }

    pub(crate) fn lookup(&self, name: &str) -> Option<&Binding> {
        self.frames.iter().rev().find_map(|f| f.get(name))
    }

    pub(crate) fn declare(&mut self, name: &str, b: Binding) {
        if let Some(f) = self.frames.last_mut() {
            f.insert(name.to_string(), b);
        }
    }

    /// Innermost enclosing block name (for local path prefixes).
    pub(crate) fn block_name(&self) -> String {
        self.block_names.last().cloned().unwrap_or_default()
    }

    /// Innermost enclosing control, if any.
    pub(crate) fn current_control(&self) -> Option<&'p ControlDecl> {
        self.block_stack.last().copied()
    }

    // ---- frames and invalidation ----------------------------------------

    fn enter_frame(&mut self, params: &'p [Param], roots: &[&str]) -> EvResult<()> {
        let mut frame = HashMap::new();
        let mut it = roots.iter();
        let mut invalidations: Vec<(Type, String)> = Vec::new();
        for p in params {
            let ty = self
                .tenv
                .resolve(&p.ty, p.span)
                .map_err(|e| RefError::Unsupported(format!("parameter type: {e}")))?;
            match ty {
                Type::PacketIn => {
                    frame.insert(p.name.clone(), Binding::PacketIn);
                }
                Type::PacketOut => {
                    frame.insert(p.name.clone(), Binding::PacketOut);
                }
                _ => {
                    let Some(root) = it.next() else { continue };
                    if p.direction == Direction::Out {
                        invalidations.push((ty.clone(), root.to_string()));
                    }
                    frame.insert(
                        p.name.clone(),
                        Binding::Val { path: root.to_string(), ty },
                    );
                }
            }
        }
        self.frames.push(frame);
        for (ty, path) in invalidations {
            self.invalidate(&ty, &path);
        }
        Ok(())
    }

    pub(crate) fn invalidate(&mut self, ty: &Type, path: &str) {
        match ty {
            Type::Header(_) => {
                self.env.insert(format!("{path}.$valid"), Bits::zeros(1));
            }
            Type::Struct(sn) => {
                if let Some(fields) = self.tenv.fields_of(sn) {
                    let fields = fields.to_vec();
                    for f in fields {
                        self.invalidate(&f.ty, &format!("{path}.{}", f.name));
                    }
                }
            }
            Type::Stack(elem, n) => {
                if matches!(elem.as_ref(), Type::Header(_)) {
                    self.env.insert(format!("{path}.$next"), Bits::zeros(32));
                    for i in 0..*n {
                        self.env.insert(format!("{path}[{i}].$valid"), Bits::zeros(1));
                    }
                }
            }
            _ => {}
        }
    }

    // ---- top-level dispatch ----------------------------------------------

    pub(crate) fn run(&mut self, input: &RefInput) -> EvResult<()> {
        let Some(main) = self.prog.main_instantiation() else {
            return trap("program has no main instantiation");
        };
        let blocks: Vec<String> = main
            .args
            .iter()
            .map(|a| match a {
                Expr::Call { callee, .. } => match callee.as_ref() {
                    Expr::Ident { name, .. } => Ok(name.clone()),
                    _ => unsupported("malformed package argument"),
                },
                Expr::Ident { name, .. } => Ok(name.clone()),
                _ => unsupported("malformed package argument"),
            })
            .collect::<EvResult<_>>()?;
        self.write_env("$input_port", Bits::from_u64(9, u64::from(input.input_port)));
        match self.arch {
            RefArch::V1Model => self.run_v1model(&blocks, input),
            RefArch::Tna | RefArch::T2na => self.run_tofino(&blocks, input),
            RefArch::Ebpf => self.run_ebpf(&blocks, input),
        }
    }

    fn run_v1model(&mut self, blocks: &[String], input: &RefInput) -> EvResult<()> {
        if blocks.len() != 6 {
            return trap("V1Switch needs 6 blocks");
        }
        for (k, w) in [
            ("sm.ingress_port", 9),
            ("sm.egress_spec", 9),
            ("sm.egress_port", 9),
            ("sm.mcast_grp", 16),
            ("sm.checksum_error", 1),
            ("sm.parser_error", 16),
        ] {
            self.write_env(k, Bits::zeros(w));
        }
        self.write_env("sm.ingress_port", Bits::from_u64(9, u64::from(input.input_port)));
        self.pkt = Pkt::new(Bits::from_bytes_be(&input.input_packet));
        let mut rounds = 0u32;
        loop {
            self.run_parser_block(&blocks[0], &["hdr", "meta", "sm"])?;
            self.run_control_block(&blocks[1], &["hdr", "meta"])?;
            self.run_control_block(&blocks[2], &["hdr", "meta", "sm"])?;
            if self.flags.get("resubmit").copied().unwrap_or(0) == 1 && rounds < 2 {
                self.flags.insert("resubmit".into(), 0);
                rounds += 1;
                self.pkt = Pkt::new(Bits::from_bytes_be(&input.input_packet));
                self.emit_buf.clear();
                self.write_env("sm.egress_spec", Bits::zeros(9));
                self.trace.push("resubmitting".into());
                continue;
            }
            let spec = self
                .env_raw("sm.egress_spec")
                .cloned()
                .unwrap_or_else(|| Bits::zeros(9));
            if spec.to_u64() == Some(DROP_PORT) {
                self.dropped = true;
                self.trace.push("traffic manager: drop".into());
                return Ok(());
            }
            self.write_env("sm.egress_port", spec);
            self.run_control_block(&blocks[3], &["hdr", "meta", "sm"])?;
            self.run_control_block(&blocks[4], &["hdr", "meta"])?;
            self.run_control_block(&blocks[5], &["hdr"])?;
            let mut out = Bits::empty();
            for e in self.emit_buf.drain(..) {
                out = out.concat(&e);
            }
            out = out.concat(&self.pkt.rest());
            let trunc = self.flags.get("truncate_bytes").copied().unwrap_or(0) as usize;
            if trunc > 0 && trunc * 8 < out.width() {
                let w = out.width();
                out = out.extract(w - 1, w - trunc * 8);
            }
            if self.flags.get("recirculate").copied().unwrap_or(0) == 1 && rounds < 2 {
                self.flags.insert("recirculate".into(), 0);
                rounds += 1;
                self.pkt = Pkt::new(out);
                self.write_env("sm.egress_spec", Bits::zeros(9));
                self.trace.push("recirculating".into());
                continue;
            }
            let port = self
                .env_raw("sm.egress_port")
                .and_then(|v| v.to_u64())
                .unwrap_or(0);
            self.push_output(port, &out);
            if self.flags.get("clone_pending").copied().unwrap_or(0) == 1 {
                let session = self.flags.get("clone_session").copied().unwrap_or(0);
                let cport = self.clone_sessions.get(&session).copied().unwrap_or(0);
                self.push_output(cport, &out);
            }
            return Ok(());
        }
    }

    fn run_tofino(&mut self, blocks: &[String], input: &RefInput) -> EvResult<()> {
        if blocks.len() != 6 && blocks.len() != 7 {
            return trap("Pipeline needs 6 or 7 blocks");
        }
        let meta_bits = if self.arch == RefArch::T2na { 128 } else { 64 };
        if input.input_packet.len() < 64 {
            self.trace.push("packet below 64B minimum: dropped".into());
            return Ok(());
        }
        let pre = self.garbage(meta_bits);
        let fcs = self.garbage(32);
        let wire = pre.concat(&Bits::from_bytes_be(&input.input_packet)).concat(&fcs);
        self.pkt = Pkt::new(wire);
        let in_port = self.env_raw("$input_port").cloned().unwrap_or_else(|| Bits::zeros(9));
        self.write_env("ig_intr_md.ingress_port", in_port);
        for (k, w) in [
            ("ig_dprsr_md.drop_ctl", 3),
            ("eg_dprsr_md.drop_ctl", 3),
            ("ig_tm_md.bypass_egress", 1),
            ("ig_prsr_md.parser_err", 16),
            ("eg_prsr_md.parser_err", 16),
        ] {
            self.write_env(k, Bits::zeros(w));
        }
        self.flags.insert("in_ingress".into(), 1);
        self.run_parser_block(&blocks[0], &["hdr", "meta", "ig_intr_md"])?;
        if self.dropped {
            return Ok(());
        }
        self.run_control_block(
            &blocks[1],
            &["hdr", "meta", "ig_intr_md", "ig_prsr_md", "ig_dprsr_md", "ig_tm_md"],
        )?;
        self.run_control_block(&blocks[2], &["hdr", "meta", "ig_dprsr_md"])?;
        let mut tm_packet = Bits::empty();
        for e in self.emit_buf.drain(..) {
            tm_packet = tm_packet.concat(&e);
        }
        tm_packet = tm_packet.concat(&self.pkt.rest());
        if self.env_raw("ig_dprsr_md.drop_ctl").map(|v| !v.is_zero()).unwrap_or(false) {
            self.dropped = true;
            self.trace.push("TM: drop_ctl".into());
            return Ok(());
        }
        if !self.env.contains_key("ig_tm_md.ucast_egress_port") {
            self.dropped = true;
            self.trace.push("TM: no egress port".into());
            return Ok(());
        }
        let port = self
            .env_raw("ig_tm_md.ucast_egress_port")
            .and_then(|v| v.to_u64())
            .unwrap_or(0);
        let bypass = self
            .env_raw("ig_tm_md.bypass_egress")
            .map(|v| !v.is_zero())
            .unwrap_or(false);
        self.flags.insert("in_ingress".into(), 0);
        self.pkt = Pkt::new(tm_packet);
        if bypass {
            let rest = self.pkt.rest();
            self.push_output(port, &rest);
            return Ok(());
        }
        self.run_parser_block(&blocks[3], &["hdr", "emeta", "eg_intr_md"])?;
        if self.dropped {
            return Ok(());
        }
        self.write_env("eg_intr_md.egress_port", Bits::from_u64(9, port));
        self.run_control_block(
            &blocks[4],
            &["hdr", "emeta", "eg_intr_md", "eg_prsr_md", "eg_dprsr_md", "eg_oport_md"],
        )?;
        self.run_control_block(&blocks[5], &["hdr", "emeta", "eg_dprsr_md"])?;
        if self.env_raw("eg_dprsr_md.drop_ctl").map(|v| !v.is_zero()).unwrap_or(false) {
            self.dropped = true;
            return Ok(());
        }
        let mut out = Bits::empty();
        for e in self.emit_buf.drain(..) {
            out = out.concat(&e);
        }
        out = out.concat(&self.pkt.rest());
        self.push_output(port, &out);
        Ok(())
    }

    fn run_ebpf(&mut self, blocks: &[String], input: &RefInput) -> EvResult<()> {
        if blocks.len() != 2 {
            return trap("ebpfFilter needs 2 blocks");
        }
        self.pkt = Pkt::new(Bits::from_bytes_be(&input.input_packet));
        self.write_env("accept", Bits::zeros(1));
        self.run_parser_block(&blocks[0], &["hdr"])?;
        if self.dropped {
            return Ok(());
        }
        self.run_control_block(&blocks[1], &["hdr", "accept"])?;
        if !self.env_raw("accept").map(|v| !v.is_zero()).unwrap_or(false) {
            self.dropped = true;
            return Ok(());
        }
        // The ebpf model deparses by re-emitting every valid header of the
        // parser's `hdr` parameter (its first non-packet one: a header or a
        // struct of headers), in declaration order.
        let parser = self
            .prog
            .find_parser(&blocks[0])
            .ok_or_else(|| RefError::Trap(format!("unknown block '{}'", blocks[0])))?;
        let hdr_ty = parser
            .params
            .iter()
            .filter_map(|p| self.tenv.resolve(&p.ty, p.span).ok())
            .find(|t| !matches!(t, Type::PacketIn | Type::PacketOut));
        let mut out = Bits::empty();
        match hdr_ty {
            Some(Type::Struct(sn)) => out = self.concat_valid_headers(&sn, "hdr", out),
            Some(Type::Header(hn)) if self.env_raw("hdr.$valid").is_some_and(|v| !v.is_zero()) => {
                out = self.concat_header_fields(&hn, "hdr", out);
            }
            _ => {}
        }
        out = out.concat(&self.pkt.rest());
        self.push_output(0, &out);
        Ok(())
    }

    fn concat_valid_headers(&mut self, struct_name: &str, base: &str, mut acc: Bits) -> Bits {
        let Some(fields) = self.tenv.fields_of(struct_name) else { return acc };
        let fields = fields.to_vec();
        for f in fields {
            let fp = format!("{base}.{}", f.name);
            match &f.ty {
                Type::Header(hn) => {
                    let valid = self
                        .env_raw(&format!("{fp}.$valid"))
                        .map(|v| !v.is_zero())
                        .unwrap_or(false);
                    if valid {
                        acc = self.concat_header_fields(hn, &fp, acc);
                    }
                }
                Type::Struct(sn) => {
                    acc = self.concat_valid_headers(sn, &fp, acc);
                }
                _ => {}
            }
        }
        acc
    }

    fn concat_header_fields(&mut self, header_name: &str, base: &str, mut acc: Bits) -> Bits {
        let Some(fields) = self.tenv.fields_of(header_name) else { return acc };
        let fields = fields.to_vec();
        for f in fields {
            let w = f.ty.width(self.tenv).unwrap_or(0) as usize;
            if w == 0 {
                continue;
            }
            let v = self.read_env(&format!("{base}.{}", f.name), w);
            acc = acc.concat(&v);
        }
        acc
    }

    pub(crate) fn push_output(&mut self, port: u64, bits: &Bits) {
        let w = bits.width();
        let padded = if !w.is_multiple_of(8) { bits.concat(&Bits::zeros(8 - w % 8)) } else { bits.clone() };
        self.outputs.push((port as u32, padded.to_bytes_be()));
    }

    // ---- block runners ---------------------------------------------------

    fn run_parser_block(&mut self, name: &str, roots: &[&str]) -> EvResult<()> {
        let Some(p) = self.prog.find_parser(name) else {
            return trap(format!("unknown block '{name}'"));
        };
        self.run_parser(p, roots)
    }

    fn run_parser(&mut self, p: &'p ParserDecl, roots: &[&str]) -> EvResult<()> {
        self.enter_frame(&p.params, roots)?;
        self.block_names.push(p.name.clone());
        let result = self.run_parser_body(p);
        self.block_names.pop();
        self.frames.pop();
        let rejected = result?;
        if rejected {
            self.on_parser_reject();
        }
        Ok(())
    }

    fn run_parser_body(&mut self, p: &'p ParserDecl) -> EvResult<bool> {
        let mut state = "start".to_string();
        let mut visits = 0u32;
        while state != "accept" && state != "reject" {
            visits += 1;
            if visits > self.parser_loop_bound {
                return trap("parser loop bound exceeded");
            }
            let Some(st) = p.states.iter().find(|s| s.name == state) else {
                return trap(format!("unknown state '{state}'"));
            };
            let mut rejected = false;
            // Parser locals behave as a prelude of the start state: they
            // re-execute on every visit of `start`, matching the lowering.
            if state == "start" {
                for l in &p.locals {
                    if !self.exec_stmt(l)? {
                        rejected = true;
                        break;
                    }
                }
            }
            if !rejected {
                for s in &st.stmts {
                    if !self.exec_stmt(s)? {
                        rejected = true;
                        break;
                    }
                }
            }
            if rejected {
                state = "reject".to_string();
                break;
            }
            state = match &st.transition {
                Transition::Direct(n) => n.clone(),
                Transition::Select { exprs, cases, .. } => {
                    let mut keys = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        keys.push(self.eval_expr(e, None)?);
                    }
                    let mut next = None;
                    for case in cases {
                        if self.select_case_matches(&keys, &case.keys)? {
                            next = Some(case.next_state.clone());
                            break;
                        }
                    }
                    match next {
                        Some(n) => n,
                        None => {
                            // core.p4 error.NoMatch
                            self.parser_error = 2;
                            "reject".to_string()
                        }
                    }
                }
            };
        }
        Ok(state == "reject")
    }

    fn on_parser_reject(&mut self) {
        match self.arch {
            RefArch::V1Model => {
                let pe = self.parser_error;
                self.write_env("sm.parser_error", Bits::from_u64(16, pe));
                self.trace.push("parser reject: continue to ingress".into());
            }
            RefArch::Tna | RefArch::T2na => {
                let pe = self.parser_error;
                if self.flags.get("in_ingress").copied().unwrap_or(1) == 1 {
                    self.write_env("ig_prsr_md.parser_err", Bits::from_u64(16, pe));
                    if !self.program_reads_parser_err() {
                        self.dropped = true;
                        self.trace.push("tofino: ingress parser reject -> drop".into());
                    }
                } else {
                    self.write_env("eg_prsr_md.parser_err", Bits::from_u64(16, pe));
                }
            }
            RefArch::Ebpf => {
                self.dropped = true;
                self.trace.push("ebpf: parser reject -> drop".into());
            }
        }
    }

    /// Mirror of the production "does any control read parser_err" probe,
    /// deliberately limited to the same statement shapes (assignment
    /// values, if conditions and branches) over control applies and action
    /// bodies.
    fn program_reads_parser_err(&mut self) -> bool {
        if let Some(v) = self.reads_parser_err_cache {
            return v;
        }
        fn expr_reads(e: &Expr) -> bool {
            match e {
                Expr::Ident { name, .. } => name.contains("parser_err"),
                Expr::Member { base, member, .. } => {
                    member.contains("parser_err") || expr_reads(base)
                }
                Expr::Unary { arg, .. } => expr_reads(arg),
                Expr::Binary { lhs, rhs, .. } => expr_reads(lhs) || expr_reads(rhs),
                Expr::Slice { base, .. } => expr_reads(base),
                Expr::Cast { arg, .. } => expr_reads(arg),
                Expr::Ternary { cond, then_e, else_e, .. } => {
                    expr_reads(cond) || expr_reads(then_e) || expr_reads(else_e)
                }
                _ => false,
            }
        }
        fn stmt_reads(s: &Stmt) -> bool {
            match s {
                Stmt::Assign { rhs, .. } => expr_reads(rhs),
                Stmt::VarDecl { init: Some(e), .. } | Stmt::ConstDecl { init: e, .. } => {
                    expr_reads(e)
                }
                Stmt::If { cond, then_s, else_s, .. } => {
                    expr_reads(cond)
                        || stmt_reads(then_s)
                        || else_s.as_deref().map(stmt_reads).unwrap_or(false)
                }
                Stmt::Block { stmts, .. } => stmts.iter().any(stmt_reads),
                _ => false,
            }
        }
        let mut reads = false;
        for c in self.prog.controls() {
            if c.apply.iter().any(stmt_reads)
                || c.actions.iter().any(|a| a.body.iter().any(stmt_reads))
            {
                reads = true;
                break;
            }
        }
        self.reads_parser_err_cache = Some(reads);
        reads
    }

    fn run_control_block(&mut self, name: &str, roots: &[&str]) -> EvResult<()> {
        if self.dropped {
            return Ok(());
        }
        let Some(c) = self.prog.find_control(name) else {
            return trap(format!("unknown block '{name}'"));
        };
        self.enter_frame(&c.params, roots)?;
        // Bind extern object instances declared in this control.
        for inst in &c.instantiations {
            if let Ok(Type::Extern { name: en, type_args }) =
                self.tenv.resolve(&inst.ty, inst.span)
            {
                self.declare(
                    &inst.name,
                    Binding::Inst {
                        extern_name: en,
                        type_args,
                        path: format!("{}::{}", c.name, inst.name),
                    },
                );
            }
        }
        self.block_stack.push(c);
        self.block_names.push(c.name.clone());
        self.exited = false;
        let mut result = Ok(());
        for s in c.locals.iter().chain(c.apply.iter()) {
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
        self.block_names.pop();
        self.block_stack.pop();
        self.frames.pop();
        result
    }

    // ---- result ----------------------------------------------------------

    pub(crate) fn into_run(self) -> RefRun {
        let mut register_final = HashMap::new();
        for (inst, cells) in self.registers {
            for (idx, v) in cells {
                let bytes = v.cast(v.width().div_ceil(8) * 8).to_bytes_be();
                register_final.insert((inst.clone(), idx), bytes);
            }
        }
        RefRun { outputs: self.outputs, register_final, trace: self.trace }
    }
}
