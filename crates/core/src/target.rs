//! The target-extension interface: pipeline templates, interstitial hooks,
//! and extern semantics (§5.1, §5.2).
//!
//! A target extension supplies:
//! * a **prelude** — P4 source declaring the architecture's types & externs;
//! * **package roots** — the global pipeline state each package block's
//!   parameters bind to (the Fig. 3 structure). Lowering applies them, so
//!   every IR path the engine sees is already global;
//! * a **pipeline template** — the ordered [`PipeStep`]s a packet traverses;
//! * **hooks** — target-defined control flow between blocks (traffic
//!   manager, recirculation, drop checks; the green segments of Fig. 5);
//! * **extern implementations** — including taint-based rapid prototypes and
//!   concolic externs;
//! * **policies** — uninitialized-value behavior, minimum packet size, etc.

use crate::state::ExecState;
use crate::sym::Sym;
use crate::sym::havoc;
use p4t_ir::{BlockId, IrProgram, Path};
use p4t_smt::{BitVec, TermId, TermPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

pub use crate::state::Cmd;

/// One step of a pipeline template.
#[derive(Clone, Debug)]
pub enum PipeStep {
    /// Run a programmable block. Its parameters were bound to
    /// [`Target::package_roots`] in lowering.
    Block(BlockId),
    /// Invoke a named target hook.
    Hook(&'static str),
    /// Flush the emit buffer into the live packet (trigger point).
    FlushEmit,
}

/// An evaluated extern argument.
#[derive(Clone, Debug)]
pub enum ExtArg {
    /// An input value.
    Val(Sym),
    /// A flattened list (`{a, b, c}`).
    List(Vec<Sym>),
    /// An output l-value (a global path; write via the state).
    Out(Path, u32),
    /// A struct/header passed by reference.
    Ref(Path),
}

impl ExtArg {
    /// The value of an input argument; panics on out/ref arguments.
    pub fn value(&self) -> &Sym {
        match self {
            ExtArg::Val(s) => s,
            other => panic!("expected value argument, got {other:?}"),
        }
    }

    /// All scalar values of a Val or List argument, flattened.
    pub fn values(&self) -> Vec<Sym> {
        match self {
            ExtArg::Val(s) => vec![s.clone()],
            ExtArg::List(v) => v.clone(),
            other => panic!("expected value arguments, got {other:?}"),
        }
    }
}

/// Execution context shared by the executor, hooks, and externs: the term
/// pool, the program, its pipeline template, and the fork buffer.
pub struct ExecCtx<'a> {
    pub pool: &'a TermPool,
    pub prog: &'a IrProgram,
    /// The target's pipeline template for `prog`, built once per program.
    pub pipeline: &'a [PipeStep],
    /// States forked during the current step; collected by the driver.
    pub forks: Vec<ExecState>,
    /// Shared state-id counter. State ids are diagnostic labels only (path
    /// identity is the fork trail), so a relaxed atomic shared across workers
    /// is sufficient.
    next_id: &'a AtomicU64,
    /// Parser-state visit bound (loop unrolling depth).
    pub parser_loop_bound: u32,
    /// Deterministic seed for value choices.
    pub seed: u64,
    /// Honor `@entry_restriction` annotations (P4-constraints, Table 4b).
    pub apply_entry_restrictions: bool,
    /// Forks made through [`ExecCtx::fork`] and the time they took; the
    /// worker folds them into `PhaseStats::{forks, fork}`.
    pub(crate) fork_count: u64,
    pub(crate) fork_time: Duration,
}

impl<'a> ExecCtx<'a> {
    pub fn new(
        pool: &'a TermPool,
        prog: &'a IrProgram,
        pipeline: &'a [PipeStep],
        next_id: &'a AtomicU64,
        parser_loop_bound: u32,
        seed: u64,
    ) -> Self {
        ExecCtx {
            pool,
            prog,
            pipeline,
            forks: Vec::new(),
            next_id,
            parser_loop_bound,
            seed,
            apply_entry_restrictions: true,
            fork_count: 0,
            fork_time: Duration::ZERO,
        }
    }

    /// Fork `st`, adding `constraint` to the fork. The fork continues from
    /// the same continuation stack.
    pub fn fork(&mut self, st: &ExecState, constraint: TermId) -> ExecState {
        let t0 = Instant::now();
        let id = self.next_id.fetch_add(1, Ordering::Relaxed) + 1;
        let mut f = st.fork(id);
        f.add_constraint(self.pool, constraint);
        self.fork_count += 1;
        self.fork_time += t0.elapsed();
        f
    }

    /// Fresh symbolic variable as a clean value.
    pub fn fresh(&mut self, name: &str, width: u32) -> Sym {
        let t = self.pool.fresh_var(name, width as usize);
        Sym::clean(t, width)
    }

    /// Fresh fully-tainted value (taint-based rapid prototyping, §5.3).
    pub fn havoc(&mut self, name: &str, width: u32) -> Sym {
        havoc(self.pool, name, width)
    }

    /// Constant value.
    pub fn constant(&mut self, width: u32, value: u128) -> Sym {
        let t = self.pool.constant(BitVec::from_u128(width as usize, value));
        Sym::clean(t, width)
    }
}

/// Outcome of a target extern call.
pub enum ExternOutcome {
    /// Handled; execution continues.
    Handled,
    /// Not a known extern for this target.
    Unknown,
}

/// Policy for reading a slot that was never written.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UninitPolicy {
    /// Reads yield zero (BMv2: "all uninitialized variables are implicitly
    /// initialized to 0").
    Zero,
    /// Reads yield an unconstrained, fully tainted value (the P4-16 default:
    /// undefined).
    Taint,
}

/// A target extension.
///
/// Targets must be `Send + Sync + 'static`: one target instance is shared
/// by all exploration workers, and a driver owns it as a
/// `Box<dyn Target>` so the target can be chosen by name at run time. In
/// practice target extensions are stateless policy objects (all per-path
/// state lives in [`ExecState`]), so these bounds are free.
pub trait Target: Send + Sync + 'static {
    /// Architecture name (e.g. "v1model").
    fn name(&self) -> &str;

    /// P4 source for the architecture's types, externs, and constants,
    /// prepended to every program before parsing.
    fn prelude(&self) -> &str;

    /// The pipeline state each package argument's parameters bind to
    /// (Fig. 3): entry `i` lists the roots of the `i`-th block's non-packet
    /// parameters, in order. Lowering stores each parameter at its root.
    fn package_roots(&self) -> &[&[&str]];

    /// The pipeline template for a program (§5.1.1): resolves the package
    /// instantiation's block arguments to concrete steps.
    fn pipeline(&self, prog: &IrProgram) -> Result<Vec<PipeStep>, String>;

    /// Initialize per-path state: intrinsic metadata, input port, prepended
    /// target content (Tofino metadata / FCS), preconditions.
    fn init(&self, ctx: &mut ExecCtx, st: &mut ExecState);

    /// Policy for uninitialized reads.
    fn uninit_policy(&self) -> UninitPolicy {
        UninitPolicy::Taint
    }

    /// Per-slot refinement of the uninitialized-read policy (e.g. Tofino
    /// zero-initializes user metadata but leaves intrinsic metadata
    /// undefined). Receives the slot's global path.
    fn uninit_policy_for(&self, _global_path: &str) -> UninitPolicy {
        self.uninit_policy()
    }

    /// Interstitial control-flow hook (§5.1.2).
    fn hook(&self, name: &str, ctx: &mut ExecCtx, st: &mut ExecState);

    /// Extern dispatch. Arguments are pre-evaluated.
    fn extern_call(
        &self,
        name: &str,
        instance: Option<&str>,
        args: &[ExtArg],
        ctx: &mut ExecCtx,
        st: &mut ExecState,
    ) -> ExternOutcome;

    /// Minimum input packet size in bytes (a fixed target precondition, §6).
    fn min_packet_bytes(&self) -> u32 {
        0
    }

    /// Called when the pipeline completes: derive the output packet(s) and
    /// ports from the final state (push into `st.outputs`), or mark the
    /// state dropped.
    fn finalize(&self, ctx: &mut ExecCtx, st: &mut ExecState);

    /// Width of port numbers on this target.
    fn port_width(&self) -> u32 {
        9
    }
}

/// Lets driver constructors take either a concrete target or one already
/// boxed (e.g. from a by-name registry).
impl<T: Target> From<T> for Box<dyn Target> {
    fn from(target: T) -> Self {
        Box::new(target)
    }
}
