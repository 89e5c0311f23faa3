//! Per-path execution state (§6: "P4Testgen maintains an independent
//! execution state object that tracks the state of this particular path"):
//! the symbolic environment, collected path constraints, the packet model,
//! the continuation stack, synthesized control-plane objects, concolic
//! bindings, coverage, and an execution trace.

use crate::packet::PacketModel;
use crate::sym::Sym;
use p4t_ir::{IrStmt, StmtId};
use p4t_smt::fingerprint::FingerprintFrame;
use p4t_smt::{BitVec, TermId, TermPool};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A continuation command. The continuation stack generalizes control flow
/// (§5.1.2): target pipelines, recirculation, and block chaining are all
/// expressed by pushing commands.
#[derive(Clone, Debug)]
pub enum Cmd {
    /// Execute one IR statement.
    Stmt(IrStmt),
    /// Enter a parser state of the named parser block.
    ParserState { parser: String, state: String },
    /// Execute pipeline step `idx` of the target's pipeline template.
    PipeStep(usize),
    /// Flush the emit buffer into the live packet (trigger point, §5.2.1).
    FlushEmit,
    /// Invoke a named target hook (interstitial control flow, e.g. the
    /// traffic manager between ingress and egress).
    Hook(String),
}

/// Why a path terminated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FinishReason {
    /// The packet left the pipeline (possibly multiple output packets).
    Completed,
    /// The target dropped the packet; still a valid (drop-expectation) test.
    Dropped,
    /// The path was found infeasible.
    Infeasible,
    /// Test generation gave up (e.g. tainted output port — the paper drops
    /// such tests because no framework can check many-valued outputs).
    Abandoned(String),
}

/// A synthesized table-key match in a control-plane entry.
#[derive(Clone, Debug)]
pub struct SynthKeyMatch {
    pub key_name: String,
    pub match_kind: String,
    pub width: u32,
    /// Exact value / ternary value / lpm prefix value / range low bound.
    pub value: Option<TermId>,
    /// Ternary mask (also used to encode optional-wildcard as zero mask).
    pub mask: Option<TermId>,
    /// Range high bound.
    pub hi: Option<TermId>,
    /// LPM prefix length.
    pub prefix_len: Option<u32>,
}

/// A synthesized control-plane entry (one per table per path, §6).
#[derive(Clone, Debug)]
pub struct SynthEntry {
    /// Control-plane table name.
    pub table: String,
    pub keys: Vec<SynthKeyMatch>,
    pub action: String,
    /// (param name, value term, width).
    pub args: Vec<(String, TermId, u32)>,
    pub priority: u32,
}

/// A deferred concolic-function binding (§5.4): `result` is an otherwise
/// unconstrained variable standing for `func(args...)`; resolved against the
/// concrete implementation at test-emission time.
#[derive(Clone, Debug)]
pub struct ConcolicBinding {
    pub func: String,
    pub args: Vec<TermId>,
    pub result: TermId,
}

/// A register operation recorded for the test specification.
#[derive(Clone, Debug)]
pub enum RegisterOp {
    /// A read observed `result` at `index`; the test initializes the register
    /// accordingly before injecting the packet.
    Read { instance: String, index: TermId, result: TermId, width: u32 },
    /// A write of `value` at `index`; the test validates the final state.
    Write { instance: String, index: TermId, value: TermId, width: u32 },
}

/// An output packet produced by this path (port + content).
#[derive(Clone, Debug)]
pub struct SymOutput {
    pub port: Sym,
    pub payload: Option<Sym>,
}

/// The per-path execution state.
#[derive(Clone, Debug)]
pub struct ExecState {
    pub id: u64,
    /// Fork trail: at every fork event the surviving parent appends `0` and
    /// child `i` appends `i + 1` (indexed before feasibility pruning). The
    /// trail uniquely identifies a path in the exploration tree regardless of
    /// which worker explored it or in what order, so it serves as the
    /// schedule-independent identity used for deterministic test ordering and
    /// per-path RNG seeding under parallel exploration.
    pub trail: Vec<u32>,
    /// Flattened storage: global path → symbolic value. A `BTreeMap` so that
    /// iteration (e.g. [`ExecState::slots`], used for clone / resubmit
    /// metadata) is deterministic and independent of insertion history — a
    /// requirement for reproducible parallel exploration.
    env: BTreeMap<String, Sym>,
    /// Path constraints (1-bit terms), in collection order. Append-only:
    /// `fingerprint` folds a prefix of it.
    pub constraints: Vec<TermId>,
    /// Running stable fingerprint of `constraints`, the feasibility memo's
    /// key. Forks clone it, and a feasibility check folds in only the
    /// constraints added since the last check on this path's lineage.
    pub fingerprint: FingerprintFrame,
    pub packet: PacketModel,
    /// Continuation stack; the top (last) element executes next.
    pub continuations: Vec<Cmd>,
    pub covered: BTreeSet<StmtId>,
    pub entries: Vec<SynthEntry>,
    pub concolics: Vec<ConcolicBinding>,
    pub register_ops: Vec<RegisterOp>,
    pub outputs: Vec<SymOutput>,
    /// Target-specific counters and flags (recirculation depth, clone
    /// sessions, ...).
    pub flags: HashMap<String, u64>,
    /// Parser state visit counts (loop bounding).
    pub visits: HashMap<(String, String), u32>,
    /// Human-readable execution trace.
    pub trace: Vec<String>,
    pub finished: Option<FinishReason>,
    /// Depth in the exploration tree (for selector heuristics).
    pub depth: u32,
}

impl ExecState {
    pub fn new(id: u64) -> Self {
        ExecState {
            id,
            trail: Vec::new(),
            env: BTreeMap::new(),
            constraints: Vec::new(),
            fingerprint: FingerprintFrame::default(),
            packet: PacketModel::new(),
            continuations: Vec::new(),
            covered: BTreeSet::new(),
            entries: Vec::new(),
            concolics: Vec::new(),
            register_ops: Vec::new(),
            outputs: Vec::new(),
            flags: HashMap::new(),
            visits: HashMap::new(),
            trace: Vec::new(),
            finished: None,
            depth: 0,
        }
    }

    /// Fork this state with a new id.
    pub fn fork(&self, id: u64) -> ExecState {
        let mut s = self.clone();
        s.id = id;
        s.depth += 1;
        s
    }

    // ---- environment -------------------------------------------------------

    /// Read a slot; `None` if never written (caller decides the
    /// uninitialized-read policy — taint vs. target zero-init). Every path
    /// is global: lowering already bound block parameters to their roots.
    pub fn read(&self, path: &str) -> Option<&Sym> {
        self.env.get(path)
    }

    pub fn write(&mut self, path: &str, value: Sym) {
        self.env.insert(path.to_string(), value);
    }

    /// Make a slot unwritten again.
    pub fn remove(&mut self, path: &str) {
        self.env.remove(path);
    }

    /// Remove every slot whose global path starts with `prefix` (used to
    /// reset `out` parameters and recirculation metadata).
    pub fn clear_prefix(&mut self, prefix: &str) {
        self.env.retain(|k, _| !(k == prefix || k.starts_with(&format!("{prefix}."))));
    }

    /// Iterate over all global slots (diagnostics, clone semantics).
    pub fn slots(&self) -> impl Iterator<Item = (&String, &Sym)> {
        self.env.iter()
    }

    // ---- constraints ---------------------------------------------------------

    /// Add a path constraint (must be a 1-bit term).
    pub fn add_constraint(&mut self, pool: &TermPool, c: TermId) {
        debug_assert_eq!(pool.width(c), 1);
        // Skip trivially-true constraints to keep solver queries small.
        if pool.is_const_true(c) {
            return;
        }
        self.constraints.push(c);
    }

    /// Whether the constraint set is syntactically unsatisfiable (contains a
    /// literal `false`), a cheap pre-solver prune.
    pub fn trivially_unsat(&self, pool: &TermPool) -> bool {
        self.constraints.iter().any(|&c| pool.is_const_false(c))
    }

    // ---- misc ------------------------------------------------------------------

    pub fn cover(&mut self, id: StmtId) {
        self.covered.insert(id);
    }

    pub fn log(&mut self, msg: impl Into<String>) {
        self.trace.push(msg.into());
    }

    pub fn flag(&self, name: &str) -> u64 {
        self.flags.get(name).copied().unwrap_or(0)
    }

    pub fn set_flag(&mut self, name: &str, value: u64) {
        self.flags.insert(name.to_string(), value);
    }

    pub fn bump_flag(&mut self, name: &str) -> u64 {
        let v = self.flag(name) + 1;
        self.set_flag(name, v);
        v
    }

    pub fn finish(&mut self, reason: FinishReason) {
        self.finished = Some(reason);
        self.continuations.clear();
    }

    pub fn is_running(&self) -> bool {
        self.finished.is_none()
    }

    /// Push commands so `cmds[0]` executes first.
    pub fn push_cmds(&mut self, cmds: Vec<Cmd>) {
        for c in cmds.into_iter().rev() {
            self.continuations.push(c);
        }
    }

    /// Push a block of statements so they execute in order.
    pub fn push_stmts(&mut self, stmts: &[IrStmt]) {
        for s in stmts.iter().rev() {
            self.continuations.push(Cmd::Stmt(s.clone()));
        }
    }
}

/// Helper: a zero value of a given width.
pub fn zero_sym(pool: &TermPool, width: u32) -> Sym {
    let t = pool.constant(BitVec::zeros(width as usize));
    Sym::clean(t, width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clear_prefix_scopes_correctly() {
        let pool = TermPool::new();
        let mut st = ExecState::new(0);
        let v = zero_sym(&pool, 8);
        st.write("meta.x", v.clone());
        st.write("meta.y", v.clone());
        st.write("metadata.z", v.clone());
        st.clear_prefix("meta");
        assert!(st.read("meta.x").is_none());
        assert!(st.read("meta.y").is_none());
        assert!(st.read("metadata.z").is_some(), "prefix must match whole segment");
    }

    #[test]
    fn constraints_skip_trivial_true() {
        let pool = TermPool::new();
        let mut st = ExecState::new(0);
        let t = pool.mk_true();
        st.add_constraint(&pool, t);
        assert!(st.constraints.is_empty());
        let f = pool.mk_false();
        st.add_constraint(&pool, f);
        assert!(st.trivially_unsat(&pool));
    }

    #[test]
    fn continuation_order() {
        let mut st = ExecState::new(0);
        st.push_cmds(vec![Cmd::Hook("a".into()), Cmd::Hook("b".into())]);
        let Some(Cmd::Hook(first)) = st.continuations.pop() else {
            panic!()
        };
        assert_eq!(first, "a");
        let Some(Cmd::Hook(second)) = st.continuations.pop() else {
            panic!()
        };
        assert_eq!(second, "b");
    }
}
