//! The p4testgen intermediate representation.
//!
//! The IR is a flat, width-resolved form of the program designed for direct
//! interpretation, both symbolic (in `p4testgen-core`) and concrete (in
//! `p4t-interp`):
//!
//! * Every expression node carries an explicit bit width; booleans are 1 bit.
//! * L-values are flattened dotted paths (`hdr.eth.dst`); header validity is
//!   a synthetic `$valid` field; header stacks get a synthetic `$next` index.
//! * Header layouts are resolved in lowering: [`IrProgram::headers`] and
//!   [`IrProgram::stacks`] hold each header instance's and stack's slots,
//!   and statements name them by [`HeaderId`] / [`StackId`]. The IR carries
//!   no type environment, so neither engine walks types at run time.
//! * Paths are global: lowering binds each package block's parameters to
//!   the target's pipeline state, so neither engine aliases names at run
//!   time.
//! * References are resolved in lowering: [`IrProgram`]'s `blocks`,
//!   `states`, `actions` and `tables` hold every block, parser state, action
//!   and table, and package arguments, transitions, statements, table action
//!   lists and const entries name them by id ([`BlockId`], [`StateId`],
//!   [`ActionId`], [`TableId`]). Names stay for trace lines: neither engine
//!   looks a name up at run time.
//! * Struct assignments, slices-as-targets, and dynamic stack indices are
//!   elaborated away during lowering (the paper's midend transformations).
//! * Every statement has a [`StmtId`] used for coverage accounting.

use p4t_frontend::ast::Annotation;
use std::fmt;
use std::sync::Arc;

/// Identifier of a coverable statement.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct StmtId(pub u32);

/// Index of a header instance in [`IrProgram::headers`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct HeaderId(pub u32);

/// Index of a header stack in [`IrProgram::stacks`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct StackId(pub u32);

/// Index of a parser or control in [`IrProgram::blocks`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct BlockId(pub u32);

/// Index of a parser state in [`IrProgram::states`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct StateId(pub u32);

/// Index of an action in [`IrProgram::actions`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct ActionId(pub u32);

/// Index of a table in [`IrProgram::tables`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct TableId(pub u32);

/// A flattened storage path such as `hdr.eth.dst` or `hdr.vlans[1].$valid`.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Path(pub String);

impl Path {
    pub fn new(s: impl Into<String>) -> Self {
        Path(s.into())
    }

    pub fn child(&self, seg: &str) -> Path {
        Path(format!("{}.{}", self.0, seg))
    }

    pub fn indexed(&self, i: u32) -> Path {
        Path(format!("{}[{}]", self.0, i))
    }

    /// The synthetic validity slot of a header path.
    pub fn valid(&self) -> Path {
        self.child("$valid")
    }

    /// The synthetic next-index slot of a header-stack path.
    pub fn next_index(&self) -> Path {
        self.child("$next")
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Binary operators (width-resolved; signedness explicit on comparisons).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IrBinOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    /// Arithmetic shift right (signed left operand).
    AShr,
    Eq,
    Neq,
    Ult,
    Ule,
    Ugt,
    Uge,
    Slt,
    Sle,
    Sgt,
    Sge,
    /// Boolean and/or are 1-bit And/Or; Concat joins widths.
    Concat,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IrUnOp {
    /// Bitwise complement (and boolean negation at width 1).
    Not,
    /// Two's-complement negation.
    Neg,
}

/// A width-resolved expression.
#[derive(Clone, PartialEq, Debug)]
pub enum IrExpr {
    /// Constant. Widths above 128 bits are built with `Concat`.
    Const { width: u32, value: u128 },
    /// Read a storage slot.
    Read { path: Path, width: u32 },
    /// Header validity test (1 bit).
    IsValid { path: Path },
    Unary { op: IrUnOp, arg: Box<IrExpr>, width: u32 },
    Binary { op: IrBinOp, lhs: Box<IrExpr>, rhs: Box<IrExpr>, width: u32 },
    /// Bit slice `[lo, hi]`, inclusive.
    Slice { base: Box<IrExpr>, hi: u32, lo: u32 },
    /// Zero-extend or truncate.
    Cast { arg: Box<IrExpr>, width: u32 },
    /// Sign-extending cast (from `int<w>`).
    SignCast { arg: Box<IrExpr>, width: u32 },
    Mux { cond: Box<IrExpr>, then_e: Box<IrExpr>, else_e: Box<IrExpr>, width: u32 },
    /// Peek `width` bits from the packet without consuming (parser only).
    Lookahead { width: u32 },
    /// The dynamic length (in bits) of a varbit field.
    VarbitLen { path: Path },
}

impl IrExpr {
    pub fn width(&self) -> u32 {
        match self {
            IrExpr::Const { width, .. }
            | IrExpr::Read { width, .. }
            | IrExpr::Unary { width, .. }
            | IrExpr::Binary { width, .. }
            | IrExpr::Cast { width, .. }
            | IrExpr::SignCast { width, .. }
            | IrExpr::Mux { width, .. }
            | IrExpr::Lookahead { width } => *width,
            IrExpr::IsValid { .. } => 1,
            IrExpr::Slice { hi, lo, .. } => hi - lo + 1,
            IrExpr::VarbitLen { .. } => 32,
        }
    }

    pub fn bool_const(b: bool) -> IrExpr {
        IrExpr::Const { width: 1, value: b as u128 }
    }

    pub fn as_const(&self) -> Option<u128> {
        match self {
            IrExpr::Const { value, .. } => Some(*value),
            _ => None,
        }
    }
}

/// A keyset expression (select cases, const entries).
#[derive(Clone, PartialEq, Debug)]
pub enum IrKeyset {
    Exact(IrExpr),
    Mask { value: IrExpr, mask: IrExpr },
    Range { lo: IrExpr, hi: IrExpr },
    Dontcare,
}

/// An argument to an extern call.
#[derive(Clone, PartialEq, Debug)]
pub enum IrArg {
    /// An input value.
    In(IrExpr),
    /// A flattened list expression (`{a, b, c}` in checksum/hash inputs).
    InList(Vec<IrExpr>),
    /// An output scalar l-value.
    Out(Path, u32),
    /// A struct or header passed by reference (externs may read/write
    /// members); the executor resolves members below this path.
    Ref(Path),
}

/// Statements.
#[derive(Clone, PartialEq, Debug)]
pub enum IrStmt {
    /// Declare a fresh local slot. Reading it before assignment yields an
    /// undefined value: a taint source in the symbolic executor, and a
    /// target-specific default (0 on BMv2) in the concrete models.
    DeclVar { id: StmtId, path: Path, width: u32 },
    /// `path := value` (widths match).
    Assign { id: StmtId, target: Path, width: u32, value: IrExpr },
    If { id: StmtId, cond: IrExpr, then_s: Vec<IrStmt>, else_s: Vec<IrStmt> },
    /// Apply a table.
    ApplyTable { id: StmtId, table: TableId },
    /// `switch (t.apply().action_run)`; case label `None` = default.
    SwitchActionRun { id: StmtId, table: TableId, cases: Vec<(Option<ActionId>, Vec<IrStmt>)> },
    /// Parser `pkt.extract(hdr)`; `varbit_len` is the second argument (bits).
    Extract { id: StmtId, header: HeaderId, varbit_len: Option<IrExpr> },
    /// Parser `pkt.advance(n)`.
    Advance { id: StmtId, bits: IrExpr },
    /// Deparser `pkt.emit(hdr)`; emitting a struct or a stack lowers to
    /// one `Emit` per header, in declaration order.
    Emit { id: StmtId, header: HeaderId },
    /// `hdr.setValid()` / `hdr.setInvalid()`.
    SetValid { id: StmtId, header: Path, valid: bool },
    /// Direct action invocation with value arguments.
    CallAction { id: StmtId, action: ActionId, args: Vec<IrExpr> },
    /// Extern function or method call; `instance` names the extern object
    /// instantiation for method calls (e.g. a register).
    ExternCall { id: StmtId, name: String, instance: Option<String>, args: Vec<IrArg> },
    /// `stack.push_front(n)` / `pop_front(n)`.
    StackOp { id: StmtId, stack: StackId, push: bool, count: u32 },
    Exit { id: StmtId },
    Return { id: StmtId },
}

impl IrStmt {
    pub fn id(&self) -> StmtId {
        match self {
            IrStmt::DeclVar { id, .. }
            | IrStmt::Assign { id, .. }
            | IrStmt::If { id, .. }
            | IrStmt::ApplyTable { id, .. }
            | IrStmt::SwitchActionRun { id, .. }
            | IrStmt::Extract { id, .. }
            | IrStmt::Advance { id, .. }
            | IrStmt::Emit { id, .. }
            | IrStmt::SetValid { id, .. }
            | IrStmt::CallAction { id, .. }
            | IrStmt::ExternCall { id, .. }
            | IrStmt::StackOp { id, .. }
            | IrStmt::Exit { id }
            | IrStmt::Return { id } => *id,
        }
    }
}

/// The target of a parser transition.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IrNext {
    Accept,
    Reject,
    /// A state of the same parser.
    State(StateId),
}

/// A select case.
#[derive(Clone, PartialEq, Debug)]
pub struct IrSelectCase {
    pub keysets: Vec<IrKeyset>,
    pub next_state: IrNext,
}

/// A parser transition.
#[derive(Clone, PartialEq, Debug)]
pub enum IrTransition {
    Direct(IrNext),
    Select { keys: Vec<IrExpr>, cases: Vec<IrSelectCase> },
}

/// A parser state.
#[derive(Clone, PartialEq, Debug)]
pub struct IrState {
    /// The state's name, for trace lines.
    pub name: String,
    /// The parser the state belongs to.
    pub parser: BlockId,
    pub stmts: Vec<IrStmt>,
    pub transition: IrTransition,
}

/// A block parameter with its storage layout.
#[derive(Clone, PartialEq, Debug)]
pub struct IrParam {
    pub name: String,
    /// Direction as written; `out` parameters are reset on block entry.
    pub direction: p4t_frontend::ast::Direction,
    /// The header instances below the parameter outside stacks, in
    /// declaration order: what an `out` reset invalidates, and the ebpf
    /// filter's implicit deparse list.
    pub headers: Vec<HeaderId>,
    /// The header stacks below the parameter, in declaration order.
    pub stacks: Vec<StackId>,
    /// The pipeline state the package binds this parameter to (`hdr`,
    /// `meta`, `sm`, ...). The block's paths already use it. `None` for
    /// packet parameters and for blocks the package does not bind; those
    /// keep their own name.
    pub root: Option<String>,
}

/// A parser block. Its states are in [`IrProgram::states`].
#[derive(Clone, PartialEq, Debug)]
pub struct IrParser {
    pub name: String,
    pub params: Vec<IrParam>,
    pub start: StateId,
}

/// One key of a table. Its names, like the table's, action's and action
/// parameters' control-plane names, are shared strings: a path's
/// synthesized entries hold them, so copying an entry copies no name.
#[derive(Clone, PartialEq, Debug)]
pub struct IrTableKey {
    pub expr: IrExpr,
    pub match_kind: Arc<str>,
    /// Control-plane name (from `@name` or the source text of the key).
    pub name: Arc<str>,
}

/// A reference to an action from a table.
#[derive(Clone, PartialEq, Debug)]
pub struct IrActionRef {
    pub action: ActionId,
    pub default_only: bool,
}

/// A constant entry of a table.
#[derive(Clone, PartialEq, Debug)]
pub struct IrConstEntry {
    pub keysets: Vec<IrKeyset>,
    pub action: ActionId,
    pub args: Vec<IrExpr>,
    pub priority: Option<u32>,
}

/// A table.
#[derive(Clone, PartialEq, Debug)]
pub struct IrTable {
    pub name: String,
    /// Fully qualified control-plane name (`control.table`).
    pub control_plane_name: Arc<str>,
    pub keys: Vec<IrTableKey>,
    pub actions: Vec<IrActionRef>,
    pub default_action: ActionId,
    pub default_args: Vec<IrExpr>,
    pub const_default: bool,
    /// In match order: highest `@priority` first, equal priorities (and
    /// entries without one, priority 0) in source order.
    pub const_entries: Vec<IrConstEntry>,
    pub size: u64,
    /// The `@entry_restriction` P4-constraints source, if any.
    pub entry_restriction: Option<String>,
    pub annotations: Vec<Annotation>,
    /// The `$hit` slot an application writes and `t.apply().hit` reads.
    pub hit: Path,
    /// The `$applied` slot an application writes.
    pub applied: Path,
}

/// An action parameter.
#[derive(Clone, PartialEq, Debug)]
pub struct IrActionParam {
    pub name: Arc<str>,
    pub width: u32,
    /// The slot a call or a table entry binds the argument to.
    pub path: Path,
}

/// An action.
#[derive(Clone, PartialEq, Debug)]
pub struct IrAction {
    pub name: String,
    /// Control-plane name (`control.action`).
    pub control_plane_name: Arc<str>,
    pub params: Vec<IrActionParam>,
    pub body: Vec<IrStmt>,
}

/// An extern-object instantiation inside a control.
#[derive(Clone, PartialEq, Debug)]
pub struct IrInstance {
    pub name: String,
    pub extern_type: String,
    /// Resolved type-argument widths (e.g. Register<bit<32>, bit<10>> → [32, 10]).
    pub type_widths: Vec<u32>,
    /// Constructor arguments that folded to constants.
    pub ctor_args: Vec<u128>,
}

/// A control block.
#[derive(Clone, PartialEq, Debug)]
pub struct IrControl {
    pub name: String,
    pub params: Vec<IrParam>,
    pub instances: Vec<IrInstance>,
    pub apply: Vec<IrStmt>,
}

/// A programmable block.
#[derive(Clone, PartialEq, Debug)]
pub enum IrBlock {
    Parser(IrParser),
    Control(IrControl),
}

impl IrBlock {
    pub fn name(&self) -> &str {
        match self {
            IrBlock::Parser(p) => &p.name,
            IrBlock::Control(c) => &c.name,
        }
    }

    pub fn params(&self) -> &[IrParam] {
        match self {
            IrBlock::Parser(p) => &p.params,
            IrBlock::Control(c) => &c.params,
        }
    }
}

/// One field of a header instance.
#[derive(Clone, PartialEq, Debug)]
pub struct FieldLayout {
    pub path: Path,
    /// Bit width; a varbit field's maximum width.
    pub width: u32,
    /// A varbit field's `$len` slot: its current length in bits.
    pub varbit_len: Option<Path>,
}

/// The storage layout of one header instance.
#[derive(Clone, PartialEq, Debug)]
pub struct HeaderLayout {
    pub path: Path,
    /// The `$valid` slot.
    pub valid: Path,
    /// The fields in declaration (wire) order. Zero-width fields hold no
    /// bits and are left out.
    pub fields: Vec<FieldLayout>,
}

impl HeaderLayout {
    /// Every slot of the header: `$valid`, then each field and its `$len`.
    pub fn slots(&self) -> impl Iterator<Item = &Path> {
        std::iter::once(&self.valid)
            .chain(self.fields.iter().flat_map(|f| std::iter::once(&f.path).chain(&f.varbit_len)))
    }
}

/// The storage layout of one header stack.
#[derive(Clone, PartialEq, Debug)]
pub struct StackLayout {
    pub path: Path,
    /// The `$next` slot.
    pub next: Path,
    /// The element headers in index order; the declared size is their count.
    pub elements: Vec<HeaderId>,
}

/// Metadata about one coverable statement (for reports).
#[derive(Clone, PartialEq, Debug)]
pub struct StmtInfo {
    pub id: StmtId,
    /// The block the statement is in, shared by all of its statements.
    pub block: Arc<str>,
    pub line: u32,
    /// Start column (1-based) of the statement's source span.
    pub col: u32,
    /// End of the statement's source span (inclusive of the last token).
    pub end_line: u32,
    pub end_col: u32,
    pub describe: String,
}

/// A complete lowered program.
#[derive(Clone, PartialEq, Debug)]
pub struct IrProgram {
    /// Parsers and controls in declaration order, indexed by [`BlockId`].
    pub blocks: Vec<IrBlock>,
    /// The package instantiation: package type name and the block bound to
    /// each package argument, in order.
    pub package: String,
    pub package_args: Vec<BlockId>,
    /// Parser states in declaration order, indexed by [`StateId`].
    pub states: Vec<IrState>,
    /// Statement table (after dead-code elimination) for coverage reports.
    pub statements: Vec<StmtInfo>,
    /// Header instance layouts, indexed by [`HeaderId`]. One path can have
    /// several, one per header type stored there (ingress and egress may
    /// bind different header structs to the same root).
    pub headers: Vec<HeaderLayout>,
    /// Header stack layouts, indexed by [`StackId`].
    pub stacks: Vec<StackLayout>,
    /// Every control's actions, indexed by [`ActionId`], in declaration
    /// order (a control's synthesized `NoAction` after its own).
    pub actions: Vec<IrAction>,
    /// Every control's tables, indexed by [`TableId`], in declaration order.
    pub tables: Vec<IrTable>,
    /// Whether any control reads a `parser_err` field, which turns Tofino's
    /// ingress drop-on-parser-error into a continue (Appendix A.1).
    /// Recomputed by [`crate::optimize`].
    pub reads_parser_err: bool,
}

impl IrProgram {
    pub fn block(&self, id: BlockId) -> &IrBlock {
        &self.blocks[id.0 as usize]
    }

    pub fn state(&self, id: StateId) -> &IrState {
        &self.states[id.0 as usize]
    }

    /// The name a transition target is written with.
    pub fn next_name(&self, next: IrNext) -> &str {
        match next {
            IrNext::Accept => "accept",
            IrNext::Reject => "reject",
            IrNext::State(s) => &self.state(s).name,
        }
    }

    pub fn header(&self, id: HeaderId) -> &HeaderLayout {
        &self.headers[id.0 as usize]
    }

    pub fn stack(&self, id: StackId) -> &StackLayout {
        &self.stacks[id.0 as usize]
    }

    pub fn action(&self, id: ActionId) -> &IrAction {
        &self.actions[id.0 as usize]
    }

    pub fn table(&self, id: TableId) -> &IrTable {
        &self.tables[id.0 as usize]
    }

    /// The parameter of `block` bound to pipeline state `root`.
    pub fn bound_param(&self, block: BlockId, root: &str) -> Option<&IrParam> {
        self.block(block).params().iter().find(|p| p.root.as_deref() == Some(root))
    }

    /// Total number of coverable statements.
    pub fn num_statements(&self) -> usize {
        self.statements.len()
    }
}
