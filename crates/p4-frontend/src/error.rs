//! Frontend diagnostics.
//!
//! Every frontend stage reports problems as [`Diagnostic`]s: a stable error
//! code (see [`codes`]), a severity, the originating phase, a byte span into
//! the preprocessed source, and a human-readable message. Stages accumulate
//! diagnostics in a [`DiagSink`] and keep going — one malformed file yields
//! many diagnostics, not one abort. Rendering with source context (line text
//! plus a caret) is done by [`crate::diag::SourceMap`].
//!
//! [`FrontendError`] is a compatibility alias for [`Diagnostic`]: older call
//! sites construct single-error values through it and the phase constructors
//! below, which attach a generic per-phase code that specific sites can
//! override with [`Diagnostic::with_code`].

use crate::token::{Pos, Span};
use std::fmt;

/// Phase in which a problem was detected.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    Lex,
    Parse,
    Typecheck,
}

/// How severe a diagnostic is. Only `Error` diagnostics make a stage fail;
/// warnings ride along on successful results.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    Warning,
    Error,
}

/// Stable diagnostic codes.
///
/// The numbering is grouped by phase — `L` lexer/preprocessor, `P` parser,
/// `T` typechecker (also used by IR lowering), `W` warnings, `D` meta — and
/// codes are append-only: a published code never changes meaning, so tests
/// and triage tooling can key on them.
pub mod codes {
    /// Generic lexical error.
    pub const LEX_GENERIC: &str = "L0001";
    /// Unterminated string literal at end of input.
    pub const LEX_UNTERMINATED_STRING: &str = "L0101";
    /// Unterminated `/* ... */` block comment at end of input.
    pub const LEX_UNTERMINATED_COMMENT: &str = "L0102";
    /// A character that cannot start any token.
    pub const LEX_UNEXPECTED_CHAR: &str = "L0103";
    /// Integer literal does not fit in 128 bits.
    pub const LEX_INT_OVERFLOW: &str = "L0104";
    /// Width-prefixed literal with width 0.
    pub const LEX_ZERO_WIDTH: &str = "L0105";
    /// A numeric literal with no digits after its base prefix.
    pub const LEX_EXPECTED_DIGITS: &str = "L0106";
    /// Unknown base suffix after `0` (not one of x/b/o/d).
    pub const LEX_BAD_BASE: &str = "L0107";
    /// `@` not followed by an annotation name.
    pub const LEX_BAD_ANNOTATION: &str = "L0108";
    /// String escape cut off by end of input.
    pub const LEX_UNTERMINATED_ESCAPE: &str = "L0109";
    /// Literal width prefix does not fit in u32.
    pub const LEX_WIDTH_TOO_LARGE: &str = "L0110";

    /// Generic parse error (unexpected token).
    pub const PARSE_GENERIC: &str = "P0001";
    /// Expected an identifier.
    pub const PARSE_EXPECTED_IDENT: &str = "P0102";
    /// Expected an integer literal.
    pub const PARSE_EXPECTED_INT: &str = "P0103";
    /// Expected an expression.
    pub const PARSE_EXPECTED_EXPR: &str = "P0104";
    /// Expected a type.
    pub const PARSE_EXPECTED_TYPE: &str = "P0105";
    /// Input ended in the middle of a construct.
    pub const PARSE_UNEXPECTED_EOF: &str = "P0106";
    /// Nesting too deep; the recursion-depth guard fired.
    pub const PARSE_RECURSION_LIMIT: &str = "P0107";
    /// Expected a top-level declaration.
    pub const PARSE_EXPECTED_DECL: &str = "P0108";
    /// Expected a statement.
    pub const PARSE_EXPECTED_STMT: &str = "P0109";

    /// Generic type error.
    pub const TYPE_GENERIC: &str = "T0001";
    /// Reference to an unknown type name.
    pub const TYPE_UNKNOWN_TYPE: &str = "T0201";
    /// Reference to an unknown value/symbol.
    pub const TYPE_UNKNOWN_SYMBOL: &str = "T0202";
    /// Operand or assignment type mismatch.
    pub const TYPE_MISMATCH: &str = "T0203";
    /// Malformed call: unknown callee, arity, or argument kinds.
    pub const TYPE_BAD_CALL: &str = "T0204";
    /// Assignment target is not an lvalue.
    pub const TYPE_NOT_LVALUE: &str = "T0205";
    /// Name declared more than once in a scope.
    pub const TYPE_DUPLICATE: &str = "T0206";
    /// Expression is not compile-time constant where one is required.
    pub const TYPE_NOT_CONST: &str = "T0207";
    /// Member access on a type that has no such member.
    pub const TYPE_BAD_MEMBER: &str = "T0208";

    /// Unknown table property (skipped).
    pub const WARN_UNKNOWN_TABLE_PROP: &str = "W0001";
    /// Preprocessor directive that is recognized but ignored.
    pub const WARN_IGNORED_DIRECTIVE: &str = "W0002";

    /// Diagnostic cap reached; further diagnostics were suppressed.
    pub const DIAG_CAP: &str = "D0001";
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// A problem with source location, produced by the lexer, parser, checker,
/// or IR lowering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    pub phase: Phase,
    pub severity: Severity,
    /// Stable code from [`codes`].
    pub code: &'static str,
    pub span: Span,
    pub message: String,
}

/// Compatibility alias: single-error call sites predate the multi-diagnostic
/// pipeline and still name this type.
pub type FrontendError = Diagnostic;

impl Diagnostic {
    pub fn lex(pos: Pos, message: impl Into<String>) -> Self {
        Diagnostic {
            phase: Phase::Lex,
            severity: Severity::Error,
            code: codes::LEX_GENERIC,
            span: Span { start: pos, end: pos },
            message: message.into(),
        }
    }

    pub fn parse(span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            phase: Phase::Parse,
            severity: Severity::Error,
            code: codes::PARSE_GENERIC,
            span,
            message: message.into(),
        }
    }

    pub fn typecheck(span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            phase: Phase::Typecheck,
            severity: Severity::Error,
            code: codes::TYPE_GENERIC,
            span,
            message: message.into(),
        }
    }

    /// Replace the generic phase code with a specific one.
    pub fn with_code(mut self, code: &'static str) -> Self {
        self.code = code;
        self
    }

    /// Downgrade to a warning.
    pub fn warning(mut self) -> Self {
        self.severity = Severity::Warning;
        self
    }

    pub fn is_error(&self) -> bool {
        self.severity == Severity::Error
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let phase = match self.phase {
            Phase::Lex => "lex",
            Phase::Parse => "parse",
            Phase::Typecheck => "type",
        };
        let sev = match self.severity {
            Severity::Error => "error",
            Severity::Warning => "warning",
        };
        write!(
            f,
            "{phase} {sev}[{}] at {}:{}: {}",
            self.code, self.span.start.line, self.span.start.col, self.message
        )
    }
}

impl std::error::Error for Diagnostic {}

/// Default per-file diagnostic cap: past this many, stages stop recording
/// (and stop doing precise recovery work) and emit one final [`codes::DIAG_CAP`]
/// note. Generous enough for real editing sessions, small enough that an
/// adversarial input cannot make the frontend allocate without bound.
pub const MAX_DIAGNOSTICS: usize = 100;

/// An accumulator for diagnostics with a hard cap.
#[derive(Debug, Default)]
pub struct DiagSink {
    diags: Vec<Diagnostic>,
    suppressed: usize,
}

impl DiagSink {
    pub fn new() -> Self {
        DiagSink::default()
    }

    /// Record a diagnostic. Past [`MAX_DIAGNOSTICS`] errors the sink counts
    /// but drops them, recording a single cap marker instead.
    pub fn push(&mut self, d: Diagnostic) {
        if self.diags.len() >= MAX_DIAGNOSTICS {
            if self.suppressed == 0 {
                let span = d.span;
                self.diags.push(
                    Diagnostic::parse(
                        span,
                        format!("too many diagnostics; stopping after {MAX_DIAGNOSTICS}"),
                    )
                    .with_code(codes::DIAG_CAP),
                );
            }
            self.suppressed += 1;
            return;
        }
        self.diags.push(d);
    }

    /// True once the cap marker has been emitted; callers may bail out of
    /// fine-grained recovery at this point.
    pub fn capped(&self) -> bool {
        self.suppressed > 0
    }

    pub fn has_errors(&self) -> bool {
        self.diags.iter().any(Diagnostic::is_error)
    }

    pub fn is_empty(&self) -> bool {
        self.diags.is_empty()
    }

    pub fn len(&self) -> usize {
        self.diags.len()
    }

    pub fn extend(&mut self, diags: impl IntoIterator<Item = Diagnostic>) {
        for d in diags {
            self.push(d);
        }
    }

    pub fn into_vec(self) -> Vec<Diagnostic> {
        self.diags
    }

    pub fn as_slice(&self) -> &[Diagnostic] {
        &self.diags
    }
}
