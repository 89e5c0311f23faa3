//! Resolved types and the type environment.
//!
//! The [`TypeEnv`] collects every named type of a program (headers, structs,
//! enums, typedefs, extern objects) plus constants, enum member values, error
//! codes, and extern function signatures. It is built by the typechecker and
//! consumed again by IR lowering in `p4t-ir`.

use crate::ast::{self, ExternFunction, ExternObject, TypeRef};
use crate::error::FrontendError;
use crate::token::Span;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// A fully resolved type.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Type {
    Bool,
    Bit(u32),
    Int(u32),
    Varbit(u32),
    /// The `error` type, represented as `bit<ERROR_WIDTH>` at runtime.
    Error,
    /// An unsized integer literal, adapting to context.
    InfInt,
    /// A header, struct or enum type by name. The name is shared with the
    /// declaration's entry in the [`TypeEnv`], so a copy of a type costs
    /// no allocation.
    Header(Arc<str>),
    Struct(Arc<str>),
    /// An enum; `repr` is the bit width used for its runtime representation.
    Enum { name: Arc<str>, repr: u32 },
    Stack(Box<Type>, u32),
    /// An extern object instance with its (resolved) type arguments.
    Extern { name: String, type_args: Vec<Type> },
    /// Result of `table.apply()`; supports `.hit`, `.miss`, `.action_run`.
    ApplyResult { table: String },
    /// A named table (before `.apply()`).
    Table(String),
    /// An action name (usable only in call position or switch labels).
    Action(String),
    PacketIn,
    PacketOut,
    String,
    Void,
    /// A generic type parameter inside an extern signature.
    TypeVar(String),
    /// Placeholder for a type that failed to resolve. Poison propagates
    /// silently through later checks (it is numeric, equatable, assignable
    /// to and from anything) so one bad declaration produces one diagnostic
    /// instead of a cascade. Poison never reaches IR lowering: it is only
    /// created on paths that also record an error diagnostic, and lowering
    /// runs only on error-free programs.
    Poison,
}

/// Bit width of error values at runtime.
pub const ERROR_WIDTH: u32 = 16;

impl Type {
    /// Width in bits for value types. Headers add a validity bit at the IR
    /// level, not counted here. `None` for non-value types.
    pub fn width(&self, env: &TypeEnv) -> Option<u32> {
        match self {
            Type::Bool => Some(1),
            Type::Bit(w) | Type::Int(w) | Type::Varbit(w) => Some(*w),
            Type::Error => Some(ERROR_WIDTH),
            Type::Enum { repr, .. } => Some(*repr),
            Type::Header(name) | Type::Struct(name) => {
                let fields = env.fields_of(name)?;
                let mut total = 0;
                for f in fields {
                    total += f.ty.width(env)?;
                }
                Some(total)
            }
            Type::Stack(elem, n) => Some(elem.width(env)? * n),
            _ => None,
        }
    }

    pub fn is_numeric(&self) -> bool {
        matches!(self, Type::Bit(_) | Type::Int(_) | Type::InfInt | Type::Poison)
    }

    /// True when values of this type can be compared with `==`.
    pub fn is_equatable(&self) -> bool {
        matches!(
            self,
            Type::Bool
                | Type::Bit(_)
                | Type::Int(_)
                | Type::InfInt
                | Type::Error
                | Type::Enum { .. }
                | Type::Header(_)
                | Type::Struct(_)
                | Type::Poison
        )
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::Bool => write!(f, "bool"),
            Type::Bit(w) => write!(f, "bit<{w}>"),
            Type::Int(w) => write!(f, "int<{w}>"),
            Type::Varbit(w) => write!(f, "varbit<{w}>"),
            Type::Error => write!(f, "error"),
            Type::InfInt => write!(f, "int"),
            Type::Header(n) => write!(f, "header {n}"),
            Type::Struct(n) => write!(f, "struct {n}"),
            Type::Enum { name, .. } => write!(f, "enum {name}"),
            Type::Stack(t, n) => write!(f, "{t}[{n}]"),
            Type::Extern { name, .. } => write!(f, "extern {name}"),
            Type::ApplyResult { table } => write!(f, "apply_result<{table}>"),
            Type::Table(n) => write!(f, "table {n}"),
            Type::Action(n) => write!(f, "action {n}"),
            Type::PacketIn => write!(f, "packet_in"),
            Type::PacketOut => write!(f, "packet_out"),
            Type::String => write!(f, "string"),
            Type::Void => write!(f, "void"),
            Type::TypeVar(n) => write!(f, "{n}"),
            Type::Poison => write!(f, "<error>"),
        }
    }
}

/// A resolved field of a header or struct.
#[derive(Clone, Debug, PartialEq)]
pub struct ResolvedField {
    pub name: String,
    pub ty: Type,
    pub annotations: Vec<ast::Annotation>,
}

/// Definition of a named type.
#[derive(Clone, Debug)]
pub enum TypeDef {
    Header(Vec<ResolvedField>),
    Struct(Vec<ResolvedField>),
    Enum { repr: u32, members: Vec<(String, u128)> },
    Alias(Type),
    ExternObject(ExternObject),
}

/// The type environment: the names a program declares, optionally layered
/// over a shared base environment (a checked prelude's).
///
/// A lookup finds this layer's entry first and falls through to the base,
/// so a program's declaration shadows a base one of the same name, exactly
/// as a later declaration overwrites an earlier one in a single layer.
/// Error codes and match kinds list the base's members first.
#[derive(Clone, Debug, Default)]
pub struct TypeEnv {
    base: Option<Arc<TypeEnv>>,
    types: HashMap<Arc<str>, TypeDef>,
    /// Constants: name → (type, value).
    consts: HashMap<String, (Type, u128)>,
    /// Error members, in declaration order (`error.X` has code = index),
    /// after the base's.
    errors: Vec<String>,
    /// Declared match kinds, after the base's.
    match_kinds: Vec<String>,
    /// Extern function signatures by name (overloads not supported).
    extern_fns: HashMap<String, ExternFunction>,
}

impl TypeEnv {
    /// The environment every program starts from: the core error members
    /// and match kinds, and nothing else.
    pub fn new() -> Self {
        let mut env = TypeEnv::default();
        // Core error members per the P4-16 spec.
        for e in [
            "NoError",
            "PacketTooShort",
            "NoMatch",
            "StackOutOfBounds",
            "HeaderTooShort",
            "ParserTimeout",
            "ParserInvalidArgument",
        ] {
            env.errors.push(e.to_string());
        }
        for mk in ["exact", "ternary", "lpm", "range", "optional", "selector"] {
            env.match_kinds.push(mk.to_string());
        }
        env
    }

    /// An empty layer over `base`: it sees every name `base` declares.
    pub(crate) fn over(base: Arc<TypeEnv>) -> Self {
        TypeEnv { base: Some(base), ..TypeEnv::default() }
    }

    /// The definition of a named type.
    pub fn type_def(&self, name: &str) -> Option<&TypeDef> {
        self.named(name).map(|(_, def)| def)
    }

    /// The definition of a named type and the name as the environment
    /// holds it, which [`Type`]s of it share.
    pub fn named(&self, name: &str) -> Option<(&Arc<str>, &TypeDef)> {
        self.types.get_key_value(name).or_else(|| self.base.as_ref()?.named(name))
    }

    /// A constant's type and value.
    pub fn constant(&self, name: &str) -> Option<&(Type, u128)> {
        self.consts.get(name).or_else(|| self.base.as_ref()?.constant(name))
    }

    /// An extern function's signature.
    pub fn extern_fn(&self, name: &str) -> Option<&ExternFunction> {
        self.extern_fns.get(name).or_else(|| self.base.as_ref()?.extern_fn(name))
    }

    pub(crate) fn insert_type(&mut self, name: &str, def: TypeDef) {
        self.types.insert(Arc::from(name), def);
    }

    pub(crate) fn insert_const(&mut self, name: &str, ty: Type, value: u128) {
        self.consts.insert(name.to_string(), (ty, value));
    }

    pub(crate) fn insert_extern_fn(&mut self, f: &ExternFunction) {
        self.extern_fns.insert(f.name.clone(), f.clone());
    }

    /// Declare an error member; a member already declared keeps its code.
    pub(crate) fn add_error(&mut self, member: &str) {
        if self.error_code(member).is_none() {
            self.errors.push(member.to_string());
        }
    }

    /// Declare a match kind, once.
    pub(crate) fn add_match_kind(&mut self, kind: &str) {
        if !self.is_match_kind(kind) {
            self.match_kinds.push(kind.to_string());
        }
    }

    /// Resolve a surface type to a semantic type.
    pub fn resolve(&self, t: &TypeRef, span: Span) -> Result<Type, FrontendError> {
        Ok(match t {
            TypeRef::Bool => Type::Bool,
            TypeRef::Bit(w) => Type::Bit(*w),
            TypeRef::Int(w) => Type::Int(*w),
            TypeRef::Varbit(w) => Type::Varbit(*w),
            TypeRef::Error => Type::Error,
            TypeRef::Void => Type::Void,
            TypeRef::Dontcare => Type::Void,
            TypeRef::Stack(inner, n) => {
                Type::Stack(Box::new(self.resolve(inner, span)?), *n)
            }
            TypeRef::Named(name) => self.resolve_name(name, span)?,
            TypeRef::Generic(name, args) => {
                let targs = args
                    .iter()
                    .map(|a| self.resolve(a, span))
                    .collect::<Result<Vec<_>, _>>()?;
                match self.type_def(name) {
                    Some(TypeDef::ExternObject(_)) => {
                        Type::Extern { name: name.clone(), type_args: targs }
                    }
                    _ => {
                        return Err(FrontendError::typecheck(
                            span,
                            format!("unknown generic type '{name}'"),
                        )
                        .with_code(crate::error::codes::TYPE_UNKNOWN_TYPE))
                    }
                }
            }
        })
    }

    pub fn resolve_name(&self, name: &str, span: Span) -> Result<Type, FrontendError> {
        match name {
            "packet_in" => return Ok(Type::PacketIn),
            "packet_out" => return Ok(Type::PacketOut),
            _ => {}
        }
        match self.named(name) {
            Some((n, TypeDef::Header(_))) => Ok(Type::Header(n.clone())),
            Some((n, TypeDef::Struct(_))) => Ok(Type::Struct(n.clone())),
            Some((n, TypeDef::Enum { repr, .. })) => Ok(Type::Enum { name: n.clone(), repr: *repr }),
            Some((_, TypeDef::Alias(t))) => Ok(t.clone()),
            Some((_, TypeDef::ExternObject(_))) => {
                Ok(Type::Extern { name: name.to_string(), type_args: Vec::new() })
            }
            None => Err(FrontendError::typecheck(span, format!("unknown type '{name}'"))
                .with_code(crate::error::codes::TYPE_UNKNOWN_TYPE)),
        }
    }

    /// Fields of a header or struct by type name.
    pub fn fields_of(&self, name: &str) -> Option<&[ResolvedField]> {
        match self.type_def(name)? {
            TypeDef::Header(f) | TypeDef::Struct(f) => Some(f),
            _ => None,
        }
    }

    pub fn field_type(&self, tyname: &str, field: &str) -> Option<Type> {
        self.fields_of(tyname)?.iter().find(|f| f.name == field).map(|f| f.ty.clone())
    }

    /// Value of an enum member (declared or ordinal).
    pub fn enum_value(&self, enum_name: &str, member: &str) -> Option<(u128, u32)> {
        match self.type_def(enum_name)? {
            TypeDef::Enum { repr, members } => members
                .iter()
                .find(|(m, _)| m == member)
                .map(|(_, v)| (*v, *repr)),
            _ => None,
        }
    }

    /// Code for an `error.X` constant.
    pub fn error_code(&self, member: &str) -> Option<u32> {
        let (below, inherited) = match &self.base {
            Some(base) => (base.error_count(), base.error_code(member)),
            None => (0, None),
        };
        inherited.or_else(|| {
            let own = self.errors.iter().position(|e| e == member)?;
            Some(below + own as u32)
        })
    }

    /// How many error members are declared, the base's included.
    fn error_count(&self) -> u32 {
        self.base.as_ref().map_or(0, |b| b.error_count()) + self.errors.len() as u32
    }

    /// Whether a match kind has been declared.
    pub fn is_match_kind(&self, name: &str) -> bool {
        self.match_kinds.iter().any(|m| m == name)
            || self.base.as_ref().is_some_and(|b| b.is_match_kind(name))
    }

    /// Look up a method signature on an extern object, substituting the
    /// object's type arguments for its type parameters.
    pub fn extern_method(
        &self,
        obj: &str,
        type_args: &[Type],
        method: &str,
    ) -> Option<ExternFunction> {
        let TypeDef::ExternObject(decl) = self.type_def(obj)? else {
            return None;
        };
        let m = decl.methods.iter().find(|m| m.name == method)?.clone();
        Some(substitute_signature(&m, &decl.type_params, type_args))
    }
}

/// Substitute extern-object type parameters in a method signature.
/// Type parameters are left as `TypeVar` in the `TypeRef` world, so this
/// returns the signature unchanged structurally and records the bindings; the
/// typechecker resolves `Named(tp)` against the binding list.
fn substitute_signature(
    f: &ExternFunction,
    params: &[String],
    args: &[Type],
) -> ExternFunction {
    let mut out = f.clone();
    let subst = |t: &TypeRef| -> TypeRef {
        if let TypeRef::Named(n) = t {
            if let Some(i) = params.iter().position(|p| p == n) {
                if let Some(arg) = args.get(i) {
                    return type_to_ref(arg);
                }
            }
        }
        t.clone()
    };
    out.ret = subst(&out.ret);
    for p in &mut out.params {
        p.ty = subst(&p.ty);
    }
    out
}

/// Best-effort conversion of a resolved type back to a surface reference
/// (used for generic substitution in extern signatures).
pub fn type_to_ref(t: &Type) -> TypeRef {
    match t {
        Type::Bool => TypeRef::Bool,
        Type::Bit(w) => TypeRef::Bit(*w),
        Type::Int(w) => TypeRef::Int(*w),
        Type::Varbit(w) => TypeRef::Varbit(*w),
        Type::Error => TypeRef::Error,
        Type::Header(n) | Type::Struct(n) => TypeRef::Named(n.to_string()),
        Type::Enum { name, .. } => TypeRef::Named(name.to_string()),
        Type::Stack(t, n) => TypeRef::Stack(Box::new(type_to_ref(t)), *n),
        Type::Void => TypeRef::Void,
        Type::TypeVar(n) => TypeRef::Named(n.clone()),
        _ => TypeRef::Void,
    }
}
