//! Per-path execution state (§6: "P4Testgen maintains an independent
//! execution state object that tracks the state of this particular path"):
//! the symbolic environment, collected path constraints, the packet model,
//! the continuation stack, synthesized control-plane objects, concolic
//! bindings, coverage, and an execution trace.
//!
//! A state is independent in what it means, not in what it stores. Forks
//! share storage: every per-path collection except the small stacks a fork
//! changes at once (`trail`, `constraints`, `fingerprint`,
//! `continuations`) sits behind a copy-on-write [`Shared`] handle, and the
//! trace is a persistent [`Trace`] list. A fork is then a few reference
//! count bumps plus those four small copies. The first write to a shared
//! collection on either side copies that one collection, and a write that
//! changes nothing (removing an absent slot, covering a covered statement,
//! writing the value a slot already holds) copies nothing. Many forks are
//! proved infeasible and dropped before they write to any of them.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::packet::PacketModel;
use crate::sym::Sym;
use p4t_ir::{IrStmt, StateId, StmtId};
use p4t_smt::fingerprint::FingerprintFrame;
use p4t_smt::{BitVec, TermId, TermPool};
use serde::value::Value;
use serde::{DeError, Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;
use std::ops::{Bound, Deref, DerefMut};
use std::sync::Arc;

/// A copy-on-write value: clones share it, reads go through [`Deref`], and
/// the first write through [`DerefMut`] on a shared value copies it.
pub struct Shared<T>(Arc<T>);

impl<T: Clone> Shared<T> {
    /// Mutable access, copying the value first if another handle shares it.
    fn make_mut(this: &mut Self) -> &mut T {
        Arc::make_mut(&mut this.0)
    }
}

impl<T> Clone for Shared<T> {
    fn clone(&self) -> Self {
        Shared(Arc::clone(&self.0))
    }
}

impl<T: Default> Default for Shared<T> {
    fn default() -> Self {
        Shared(Arc::default())
    }
}

impl<T> Deref for Shared<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: Clone> DerefMut for Shared<T> {
    fn deref_mut(&mut self) -> &mut T {
        Shared::make_mut(self)
    }
}

impl<'a, T> IntoIterator for &'a Shared<T>
where
    &'a T: IntoIterator,
{
    type Item = <&'a T as IntoIterator>::Item;
    type IntoIter = <&'a T as IntoIterator>::IntoIter;
    fn into_iter(self) -> Self::IntoIter {
        (&*self.0).into_iter()
    }
}

impl<T: fmt::Debug> fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

/// The human-readable execution trace: a persistent list whose newest
/// entry points at the one before it. A push allocates one node, and a
/// fork, or a test emitted from the path, shares the whole history. Its
/// serialized and debug forms are the entries in push order.
#[derive(Clone, Default)]
pub struct Trace(Option<Arc<TraceNode>>);

struct TraceNode {
    msg: String,
    prev: Option<Arc<TraceNode>>,
}

impl Trace {
    fn push(&mut self, msg: String) {
        let prev = self.0.take();
        self.0 = Some(Arc::new(TraceNode { msg, prev }));
    }

    /// The newest entry.
    pub fn last(&self) -> Option<&str> {
        self.0.as_deref().map(|n| n.msg.as_str())
    }

    /// The entries, newest first.
    pub fn iter(&self) -> impl Iterator<Item = &str> {
        std::iter::successors(self.0.as_deref(), |n| n.prev.as_deref()).map(|n| n.msg.as_str())
    }

    /// The entries in push order.
    pub fn lines(&self) -> Vec<&str> {
        let mut v: Vec<&str> = self.iter().collect();
        v.reverse();
        v
    }
}

impl FromIterator<String> for Trace {
    /// A trace of `lines`, pushed in order.
    fn from_iter<I: IntoIterator<Item = String>>(lines: I) -> Self {
        let mut t = Trace::default();
        for l in lines {
            t.push(l);
        }
        t
    }
}

impl Drop for Trace {
    /// Unlink the nodes this trace holds the last reference to in a loop:
    /// the default drop would recurse once per entry.
    fn drop(&mut self) {
        let mut next = self.0.take();
        while let Some(node) = next {
            // `into_inner` is `None` while another trace shares the node;
            // exactly one of the racing owners sees `Some`.
            next = Arc::into_inner(node).and_then(|mut n| n.prev.take());
        }
    }
}

impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.iter().eq(other.iter())
    }
}

impl Eq for Trace {}

impl fmt::Debug for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.lines()).finish()
    }
}

impl Serialize for Trace {
    fn to_value(&self) -> Value {
        self.lines().to_value()
    }
}

impl Deserialize for Trace {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Vec::<String>::from_value(v)?.into_iter().collect())
    }
}

/// A continuation command. The continuation stack generalizes control flow
/// (§5.1.2): target pipelines, recirculation, and block chaining are all
/// expressed by pushing commands.
#[derive(Clone, Debug)]
pub enum Cmd {
    /// Execute one IR statement.
    Stmt(IrStmt),
    /// Enter a parser state.
    ParserState(StateId),
    /// Decide a parser state's `select` transition; queued below the
    /// state's statements.
    Select(StateId),
    /// Execute pipeline step `idx` of the target's pipeline template.
    PipeStep(usize),
    /// Flush the emit buffer into the live packet (trigger point, §5.2.1).
    FlushEmit,
    /// Invoke a named target hook (interstitial control flow, e.g. the
    /// traffic manager between ingress and egress).
    Hook(&'static str),
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

/// A synthesized table-key match in a control-plane entry. Its names are
/// shared strings (a program table's are the IR's), so a copy copies none.
#[derive(Clone, Debug)]
pub struct SynthKeyMatch {
    pub key_name: Arc<str>,
    pub match_kind: Arc<str>,
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

/// A synthesized control-plane entry (one per table per path, §6). Its
/// names are shared strings (a program table's are the IR's), so a copy
/// copies none.
#[derive(Clone, Debug)]
pub struct SynthEntry {
    /// Control-plane table name.
    pub table: Arc<str>,
    pub keys: Vec<SynthKeyMatch>,
    pub action: Arc<str>,
    /// (param name, value term, width).
    pub args: Vec<(Arc<str>, TermId, u32)>,
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
    /// requirement for reproducible parallel exploration. Keys are shared
    /// strings, so the copy a fork's first write makes copies no name.
    env: Shared<BTreeMap<Arc<str>, Sym>>,
    /// Path constraints (1-bit terms), in collection order. Append-only:
    /// `fingerprint` folds a prefix of it.
    pub constraints: Vec<TermId>,
    /// Running stable fingerprint of `constraints`, the feasibility memo's
    /// key. Forks clone it, and a feasibility check folds in only the
    /// constraints added since the last check on this path's lineage.
    pub fingerprint: FingerprintFrame,
    pub packet: Shared<PacketModel>,
    /// Continuation stack; the top (last) element executes next.
    pub continuations: Vec<Cmd>,
    pub covered: Shared<BTreeSet<StmtId>>,
    pub entries: Shared<Vec<SynthEntry>>,
    pub concolics: Shared<Vec<ConcolicBinding>>,
    pub register_ops: Shared<Vec<RegisterOp>>,
    pub outputs: Shared<Vec<SymOutput>>,
    /// Target-specific counters and flags (recirculation depth, clone
    /// sessions, ...).
    pub flags: Shared<HashMap<String, u64>>,
    /// Parser state visit counts (loop bounding).
    pub visits: Shared<HashMap<StateId, u32>>,
    /// Human-readable execution trace.
    pub trace: Trace,
    pub finished: Option<FinishReason>,
    /// Depth in the exploration tree (for selector heuristics).
    pub depth: u32,
}

impl ExecState {
    pub fn new(id: u64) -> Self {
        ExecState {
            id,
            trail: Vec::new(),
            env: Shared::default(),
            constraints: Vec::new(),
            fingerprint: FingerprintFrame::default(),
            packet: Shared::default(),
            continuations: Vec::new(),
            covered: Shared::default(),
            entries: Shared::default(),
            concolics: Shared::default(),
            register_ops: Shared::default(),
            outputs: Shared::default(),
            flags: Shared::default(),
            visits: Shared::default(),
            trace: Trace::default(),
            finished: None,
            depth: 0,
        }
    }

    /// Fork this state with a new id. The fork shares every [`Shared`]
    /// collection and the trace with `self`.
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
        if self.env.get(path) == Some(&value) {
            return;
        }
        match self.env.get_mut(path) {
            Some(slot) => *slot = value,
            None => {
                self.env.insert(Arc::from(path), value);
            }
        }
    }

    /// Make a slot unwritten again.
    pub fn remove(&mut self, path: &str) {
        if self.env.contains_key(path) {
            self.env.remove(path);
        }
    }

    /// Remove the slot `prefix` and every slot under it, `prefix.*` (used
    /// to reset `out` parameters and recirculation metadata).
    pub fn clear_prefix(&mut self, prefix: &str) {
        // The keys under `prefix.` are exactly those in
        // [`prefix.`, `prefix/`): `/` is the byte after `.`.
        let lo = format!("{prefix}.");
        let hi = format!("{prefix}/");
        let under = (Bound::Included(lo.as_str()), Bound::Excluded(hi.as_str()));
        if !self.env.contains_key(prefix) && self.env.range::<str, _>(under).next().is_none() {
            return;
        }
        let env = Shared::make_mut(&mut self.env);
        env.remove(prefix);
        let mut from_lo = env.split_off(lo.as_str());
        env.append(&mut from_lo.split_off(hi.as_str()));
    }

    /// Iterate over all global slots (diagnostics, clone semantics).
    pub fn slots(&self) -> impl Iterator<Item = (&str, &Sym)> {
        self.env.iter().map(|(k, v)| (&**k, v))
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
        if !self.covered.contains(&id) {
            self.covered.insert(id);
        }
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

    impl<T> Shared<T> {
        fn shares(&self, other: &Self) -> bool {
            Arc::ptr_eq(&self.0, &other.0)
        }
    }

    /// Which of the nine shared collections `a` and `b` share storage for.
    fn sharing(a: &ExecState, b: &ExecState) -> [bool; 9] {
        [
            a.env.shares(&b.env),
            a.packet.shares(&b.packet),
            a.covered.shares(&b.covered),
            a.entries.shares(&b.entries),
            a.concolics.shares(&b.concolics),
            a.register_ops.shares(&b.register_ops),
            a.outputs.shares(&b.outputs),
            a.flags.shares(&b.flags),
            a.visits.shares(&b.visits),
        ]
    }

    /// One write per shared collection, in the order of [`sharing`].
    fn writes() -> [fn(&mut ExecState, &Sym); 9] {
        [
            |st, v| st.write("hdr.f", v.clone()),
            |st, v| st.packet.emit(v.clone()),
            |st, _| st.cover(StmtId(7)),
            |st, _| {
                st.entries.push(SynthEntry {
                    table: "t".into(),
                    keys: Vec::new(),
                    action: "a".into(),
                    args: Vec::new(),
                    priority: 0,
                })
            },
            |st, v| st.concolics.push(ConcolicBinding { func: "f".into(), args: vec![], result: v.term }),
            |st, v| {
                st.register_ops.push(RegisterOp::Write {
                    instance: "r".into(),
                    index: v.term,
                    value: v.term,
                    width: 8,
                })
            },
            |st, v| st.outputs.push(SymOutput { port: v.clone(), payload: None }),
            |st, _| st.set_flag("recirculated", 1),
            |st, _| {
                st.visits.insert(StateId(0), 1);
            },
        ]
    }

    #[test]
    fn a_write_in_a_fork_splits_only_its_collection() {
        let pool = TermPool::new();
        let v = zero_sym(&pool, 8);
        let mut base = ExecState::new(0);
        base.write("hdr.g", v.clone());
        base.log("start");
        for (i, write) in writes().into_iter().enumerate() {
            let expect_split: [bool; 9] = std::array::from_fn(|j| j != i);
            // The fork writes: the parent keeps what it had.
            let mut parent = base.fork(1);
            let mut child = parent.fork(2);
            assert_eq!(sharing(&parent, &child), [true; 9], "a fresh fork shares everything");
            let before = format!("{parent:?}");
            write(&mut child, &v);
            assert_eq!(format!("{parent:?}"), before, "collection {i}: the fork's write leaked");
            assert_eq!(sharing(&parent, &child), expect_split, "collection {i}");
            // The parent writes: the fork keeps what it had.
            let child = parent.fork(3);
            let before = format!("{child:?}");
            write(&mut parent, &v);
            assert_eq!(format!("{child:?}"), before, "collection {i}: the parent's write leaked");
            assert_eq!(sharing(&parent, &child), expect_split, "collection {i}");
        }
    }

    #[test]
    fn writes_that_change_nothing_keep_storage_shared() {
        let pool = TermPool::new();
        let v = zero_sym(&pool, 8);
        let mut parent = ExecState::new(0);
        parent.write("meta.x", v.clone());
        parent.cover(StmtId(3));
        let mut child = parent.fork(1);
        child.cover(StmtId(3));
        child.remove("meta.absent");
        child.write("meta.x", v.clone());
        child.clear_prefix("hdr");
        assert_eq!(sharing(&parent, &child), [true; 9]);
        child.remove("meta.x");
        assert!(!child.env.shares(&parent.env));
        assert!(parent.read("meta.x").is_some());
    }

    #[test]
    fn trace_keeps_push_order_across_divergent_forks() {
        let mut parent = ExecState::new(0);
        parent.log("a");
        parent.log("b");
        let mut child = parent.fork(1);
        child.log("c");
        parent.log("d");
        assert_eq!(parent.trace.lines(), ["a", "b", "d"]);
        assert_eq!(child.trace.last(), Some("c"));
        drop(parent);
        assert_eq!(child.trace.lines(), ["a", "b", "c"]);
        assert_eq!(child.trace.iter().collect::<Vec<_>>(), ["c", "b", "a"]);
    }

    #[test]
    fn dropping_a_long_trace_does_not_overflow_the_stack() {
        let mut parent = ExecState::new(0);
        for _ in 0..500_000 {
            parent.log(String::new());
        }
        let mut child = parent.fork(1);
        for _ in 0..500_000 {
            parent.log(String::new());
            child.log(String::new());
        }
        drop(parent);
        assert_eq!(child.trace.iter().count(), 1_000_000);
        drop(child);
    }

    #[test]
    fn clear_prefix_scopes_correctly() {
        let pool = TermPool::new();
        let mut st = ExecState::new(0);
        let v = zero_sym(&pool, 8);
        for path in ["meta", "meta.x", "meta.y.z", "meta_x", "meta/x", "metadata.z"] {
            st.write(path, v.clone());
        }
        st.clear_prefix("meta");
        let left: Vec<&str> = st.slots().map(|(k, _)| k).collect();
        assert_eq!(left, ["meta/x", "meta_x", "metadata.z"], "prefix must match whole segment");
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
        st.push_cmds(vec![Cmd::Hook("a"), Cmd::Hook("b")]);
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
