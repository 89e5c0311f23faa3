//! Abstract syntax tree for the P4-16 subset.
//!
//! The AST mirrors the surface syntax closely; lowering to the executable IR
//! (with resolved types, flattened field paths, and elaborated header-stack
//! indices) lives in the `p4t-ir` crate.

use crate::token::Span;
use std::sync::Arc;

/// An annotation such as `@name("x")`, `@priority(3)`, or
/// `@entry_restriction("...")`.
#[derive(Clone, Debug, PartialEq)]
pub struct Annotation {
    pub name: String,
    pub args: Vec<AnnotationArg>,
    pub span: Span,
}

#[derive(Clone, Debug, PartialEq)]
pub enum AnnotationArg {
    Str(String),
    Int(u128),
    Ident(String),
}

impl Annotation {
    /// First string argument, if any (`@name("x")` → `x`).
    pub fn string_arg(&self) -> Option<&str> {
        self.args.iter().find_map(|a| match a {
            AnnotationArg::Str(s) => Some(s.as_str()),
            _ => None,
        })
    }

    /// First integer argument, if any.
    pub fn int_arg(&self) -> Option<u128> {
        self.args.iter().find_map(|a| match a {
            AnnotationArg::Int(i) => Some(*i),
            _ => None,
        })
    }
}

/// Helper: find an annotation by name.
pub fn find_annotation<'a>(anns: &'a [Annotation], name: &str) -> Option<&'a Annotation> {
    anns.iter().find(|a| a.name == name)
}

/// Surface types.
#[derive(Clone, Debug, PartialEq)]
pub enum TypeRef {
    Bool,
    /// `bit<N>`; `N` may be a constant expression in the surface syntax but
    /// is resolved to a literal during parsing of our subset.
    Bit(u32),
    /// `int<N>` two's complement.
    Int(u32),
    /// `varbit<N>`: at most `N` bits.
    Varbit(u32),
    /// `error` type.
    Error,
    /// A named type (header, struct, enum, typedef, extern object).
    Named(String),
    /// A header stack `T[N]`.
    Stack(Box<TypeRef>, u32),
    /// Generic instantiation `Name<T1, T2>` (extern objects).
    Generic(String, Vec<TypeRef>),
    /// `void` (extern function returns).
    Void,
    /// A don't-care type argument `_`.
    Dontcare,
}

/// Direction of a parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    None,
    In,
    Out,
    InOut,
}

/// A parameter of a parser, control, action, or extern function.
#[derive(Clone, Debug, PartialEq)]
pub struct Param {
    pub direction: Direction,
    pub ty: TypeRef,
    pub name: String,
    pub span: Span,
}

/// A field of a header or struct.
#[derive(Clone, Debug, PartialEq)]
pub struct Field {
    pub ty: TypeRef,
    pub name: String,
    pub annotations: Vec<Annotation>,
    pub span: Span,
}

/// Binary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    BitAnd,
    BitOr,
    BitXor,
    Shl,
    Shr,
    Eq,
    Neq,
    Lt,
    Le,
    Gt,
    Ge,
    And,
    Or,
    Concat,
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UnaryOp {
    Not,
    BitNot,
    Neg,
}

/// Expressions.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Integer literal with optional width.
    Int { value: u128, width: Option<u32>, signed: bool, span: Span },
    Bool { value: bool, span: Span },
    /// String literal (annotation-adjacent contexts only).
    Str { value: String, span: Span },
    /// A name: variable, constant, enum member head, action, state, etc.
    Ident { name: String, span: Span },
    /// `expr.member` (field access, `hdr.stack.next`, enum `Type.Member`,
    /// `error.NoError`).
    Member { base: Box<Expr>, member: String, span: Span },
    /// `base[index]` on header stacks.
    Index { base: Box<Expr>, index: Box<Expr>, span: Span },
    /// `base[hi:lo]` bit slice.
    Slice { base: Box<Expr>, hi: Box<Expr>, lo: Box<Expr>, span: Span },
    Unary { op: UnaryOp, arg: Box<Expr>, span: Span },
    Binary { op: BinaryOp, lhs: Box<Expr>, rhs: Box<Expr>, span: Span },
    /// `cond ? a : b`.
    Ternary { cond: Box<Expr>, then_e: Box<Expr>, else_e: Box<Expr>, span: Span },
    /// `(type) expr`.
    Cast { ty: TypeRef, arg: Box<Expr>, span: Span },
    /// Function or method call. `callee` is an `Ident` or `Member` chain;
    /// `type_args` holds `<...>` arguments (e.g. `lookahead<bit<16>>()`).
    Call { callee: Box<Expr>, type_args: Vec<TypeRef>, args: Vec<Expr>, span: Span },
    /// `{ e1, e2, ... }` list expression (struct/header initializers).
    List { items: Vec<Expr>, span: Span },
    /// `value &&& mask` (keyset contexts).
    Mask { value: Box<Expr>, mask: Box<Expr>, span: Span },
    /// `lo .. hi` (keyset contexts).
    Range { lo: Box<Expr>, hi: Box<Expr>, span: Span },
    /// `default` / `_` in keysets.
    Dontcare { span: Span },
}

impl Expr {
    pub fn span(&self) -> Span {
        match self {
            Expr::Int { span, .. }
            | Expr::Bool { span, .. }
            | Expr::Str { span, .. }
            | Expr::Ident { span, .. }
            | Expr::Member { span, .. }
            | Expr::Index { span, .. }
            | Expr::Slice { span, .. }
            | Expr::Unary { span, .. }
            | Expr::Binary { span, .. }
            | Expr::Ternary { span, .. }
            | Expr::Cast { span, .. }
            | Expr::Call { span, .. }
            | Expr::List { span, .. }
            | Expr::Mask { span, .. }
            | Expr::Range { span, .. }
            | Expr::Dontcare { span } => *span,
        }
    }
}

/// Statements.
#[derive(Clone, Debug, PartialEq)]
pub enum Stmt {
    /// `type name = init;` or `type name;`
    VarDecl { ty: TypeRef, name: String, init: Option<Expr>, span: Span },
    /// `const type name = init;`
    ConstDecl { ty: TypeRef, name: String, init: Expr, span: Span },
    /// `lhs = rhs;`
    Assign { lhs: Expr, rhs: Expr, span: Span },
    /// An expression statement (method/function call).
    Call { call: Expr, span: Span },
    If { cond: Expr, then_s: Box<Stmt>, else_s: Option<Box<Stmt>>, span: Span },
    /// `switch (table.apply().action_run) { ... }`
    Switch { scrutinee: Expr, cases: Vec<SwitchCase>, span: Span },
    Block { stmts: Vec<Stmt>, span: Span },
    Exit { span: Span },
    Return { span: Span },
    /// Empty statement `;`.
    Empty { span: Span },
}

/// One arm of a `switch`. Multiple labels can share one body via fallthrough
/// (`case A: case B: { ... }`); a `None` body records a fallthrough label.
#[derive(Clone, Debug, PartialEq)]
pub struct SwitchCase {
    /// `None` means `default`.
    pub label: Option<String>,
    pub body: Option<Stmt>,
    pub span: Span,
}

/// A key element of a table: `expr : match_kind [@annotations];`
#[derive(Clone, Debug, PartialEq)]
pub struct TableKey {
    pub expr: Expr,
    pub match_kind: String,
    pub annotations: Vec<Annotation>,
    pub span: Span,
}

/// An action reference in a table's `actions` list.
#[derive(Clone, Debug, PartialEq)]
pub struct ActionRef {
    pub name: String,
    /// Partial application arguments (rare; usually empty).
    pub args: Vec<Expr>,
    pub annotations: Vec<Annotation>,
    pub span: Span,
}

/// A constant table entry: `(keyset...) : action(args);`
#[derive(Clone, Debug, PartialEq)]
pub struct TableEntry {
    pub keys: Vec<Expr>,
    pub action: String,
    pub args: Vec<Expr>,
    pub annotations: Vec<Annotation>,
    pub span: Span,
}

/// A table declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct TableDecl {
    pub name: String,
    pub keys: Vec<TableKey>,
    pub actions: Vec<ActionRef>,
    /// `default_action = name(args);` with constness flag.
    pub default_action: Option<(String, Vec<Expr>, bool)>,
    pub entries: Vec<TableEntry>,
    pub size: Option<u64>,
    pub annotations: Vec<Annotation>,
    pub span: Span,
}

/// An action declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct ActionDecl {
    pub name: String,
    pub params: Vec<Param>,
    pub body: Vec<Stmt>,
    pub annotations: Vec<Annotation>,
    pub span: Span,
}

/// An instantiation: `Type(args) name;` (packages, extern objects).
#[derive(Clone, Debug, PartialEq)]
pub struct Instantiation {
    pub ty: TypeRef,
    pub args: Vec<Expr>,
    pub name: String,
    pub annotations: Vec<Annotation>,
    pub span: Span,
}

/// One state of a parser.
#[derive(Clone, Debug, PartialEq)]
pub struct ParserState {
    pub name: String,
    pub stmts: Vec<Stmt>,
    pub transition: Transition,
    pub annotations: Vec<Annotation>,
    pub span: Span,
}

/// A parser transition.
#[derive(Clone, Debug, PartialEq)]
pub enum Transition {
    /// `transition accept;` / `transition reject;` / `transition next_state;`
    Direct(String),
    /// `transition select(e1, e2) { keyset: state; ... }`
    Select { exprs: Vec<Expr>, cases: Vec<SelectCase>, span: Span },
}

/// One arm of a `select`.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectCase {
    /// One keyset expression per select argument (or a single `Dontcare`).
    pub keys: Vec<Expr>,
    pub next_state: String,
    pub span: Span,
}

/// A parser declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct ParserDecl {
    pub name: String,
    pub params: Vec<Param>,
    /// Local declarations (variables, instantiations).
    pub locals: Vec<Stmt>,
    pub states: Vec<ParserState>,
    pub annotations: Vec<Annotation>,
    pub span: Span,
}

/// A control declaration.
#[derive(Clone, Debug, PartialEq)]
pub struct ControlDecl {
    pub name: String,
    pub params: Vec<Param>,
    pub actions: Vec<ActionDecl>,
    pub tables: Vec<TableDecl>,
    /// Local variable declarations and instantiations.
    pub locals: Vec<Stmt>,
    pub instantiations: Vec<Instantiation>,
    pub apply: Vec<Stmt>,
    pub annotations: Vec<Annotation>,
    pub span: Span,
}

/// An extern function signature: `extern Ret name<T...>(params);`
#[derive(Clone, Debug, PartialEq)]
pub struct ExternFunction {
    pub name: String,
    pub type_params: Vec<String>,
    pub ret: TypeRef,
    pub params: Vec<Param>,
    pub span: Span,
}

/// An extern object: `extern Name<T...> { ctor; methods }`
#[derive(Clone, Debug, PartialEq)]
pub struct ExternObject {
    pub name: String,
    pub type_params: Vec<String>,
    /// Constructor parameter lists (may be overloaded).
    pub constructors: Vec<Vec<Param>>,
    pub methods: Vec<ExternFunction>,
    pub span: Span,
}

/// A top-level declaration.
#[derive(Clone, Debug, PartialEq)]
pub enum Decl {
    Const { ty: TypeRef, name: String, value: Expr, span: Span },
    Typedef { ty: TypeRef, name: String, span: Span },
    Header { name: String, fields: Vec<Field>, annotations: Vec<Annotation>, span: Span },
    Struct { name: String, fields: Vec<Field>, annotations: Vec<Annotation>, span: Span },
    /// `enum Name { A, B }` or `enum bit<N> Name { A = 1, ... }`.
    Enum {
        name: String,
        underlying: Option<TypeRef>,
        members: Vec<(String, Option<Expr>)>,
        span: Span,
    },
    /// `error { A, B }` — additional error constants.
    ErrorDecl { members: Vec<String>, span: Span },
    /// `match_kind { exact, ... }` — additional match kinds.
    MatchKindDecl { members: Vec<String>, span: Span },
    Parser(ParserDecl),
    Control(ControlDecl),
    ExternFunction(ExternFunction),
    ExternObject(ExternObject),
    /// `package V1Switch(...)` signatures — accepted and recorded by name.
    Package { name: String, span: Span },
    /// Top-level instantiation (the `main` package instance).
    Instantiation(Instantiation),
    /// A top-level action (P4 allows it; used by some tests).
    Action(ActionDecl),
}

/// A parsed program: an ordered list of declarations, the first of which
/// may be shared with other programs (a cached prelude's, see
/// [`crate::prelude`]). Two programs are equal when their declaration
/// sequences are, however those are split.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Declarations ahead of the program's own, shared, not copied.
    pub prefix: Arc<[Decl]>,
    /// The program's own declarations.
    pub own: Vec<Decl>,
}

impl PartialEq for Program {
    fn eq(&self, other: &Program) -> bool {
        self.decls().eq(other.decls())
    }
}

impl Program {
    /// Every declaration, in source order: the prefix's, then the own.
    pub fn decls(&self) -> impl Iterator<Item = &Decl> {
        self.prefix.iter().chain(&self.own)
    }

    pub fn parsers(&self) -> impl Iterator<Item = &ParserDecl> {
        self.decls().filter_map(|d| match d {
            Decl::Parser(p) => Some(p),
            _ => None,
        })
    }

    pub fn controls(&self) -> impl Iterator<Item = &ControlDecl> {
        self.decls().filter_map(|d| match d {
            Decl::Control(c) => Some(c),
            _ => None,
        })
    }

    /// The `main` package instantiation, if present.
    pub fn main_instantiation(&self) -> Option<&Instantiation> {
        self.decls().find_map(|d| match d {
            Decl::Instantiation(i) if i.name == "main" => Some(i),
            _ => None,
        })
    }

    pub fn find_parser(&self, name: &str) -> Option<&ParserDecl> {
        self.parsers().find(|p| p.name == name)
    }

    pub fn find_control(&self, name: &str) -> Option<&ControlDecl> {
        self.controls().find(|c| c.name == name)
    }
}
