//! Recursive-descent parser for the P4-16 subset, with error recovery.
//!
//! Grammar notes:
//! * `>>` is lexed as two `>` tokens; the parser fuses adjacent `>`s into a
//!   shift only in expression position, keeping `Register<bit<32>>` valid.
//! * Casts are recognized for built-in types `(bit<8>)e` and for the pattern
//!   `(TypeName) e` where the parenthesized identifier is followed by a token
//!   that can begin an expression.
//! * Architecture preludes (v1model definitions etc.) are plain P4 source
//!   parsed with the same grammar; `#include` lines are dropped by the lexer.
//!
//! Error recovery: parsing is **total**. Individual productions return
//! `Result` and abort locally, but the declaration / statement / field /
//! table-property loops catch those errors, record them, and synchronize at
//! `;`, `}`, or the next top-level declaration keyword before continuing, so
//! one file yields many diagnostics. A recursion-depth guard bounds stack
//! use on adversarial nesting and the per-file diagnostic cap bounds total
//! work (see [`crate::error::MAX_DIAGNOSTICS`]).

use crate::ast::*;
use crate::error::{codes, DiagSink, Diagnostic};
use crate::lexer::{lex_all, lex_at, Lexed, Origin};
use crate::token::{IntLit, Keyword, Span, Tok, Token};
use std::sync::Arc;

/// Maximum nesting depth for expressions, statements, and types. Each level
/// costs a bounded number of stack frames, several KiB each in unoptimized
/// builds, so the budget must fit a 2 MiB thread stack with headroom (48
/// levels measured safe under a debug-profile test runner when an
/// expression level took ~14 frames; precedence climbing takes fewer now).
/// Real P4 programs nest
/// expressions ~10 deep; anything near this limit is adversarial input
/// (`((((…))))`, `if(c) if(c) …`).
const MAX_DEPTH: u32 = 48;

/// Parse a full program from source.
///
/// Returns `Err` when any error was found; the vector carries every
/// diagnostic (lexical and syntactic) discovered up to the per-file cap.
pub fn parse(source: &str) -> Result<Program, Vec<Diagnostic>> {
    let (prog, diags) = parse_all(source);
    if diags.iter().any(Diagnostic::is_error) {
        Err(diags)
    } else {
        Ok(prog)
    }
}

/// Total variant of [`parse`]: always returns the best-effort program (with
/// declarations that failed to parse dropped) alongside all diagnostics.
pub fn parse_all(source: &str) -> (Program, Vec<Diagnostic>) {
    parse_lexed(lex_at(source, Origin::default()), &Arc::default())
}

/// Parse a lexed source as the text after `prefix`'s declarations.
fn parse_lexed(lexed: Lexed, prefix: &Arc<[Decl]>) -> (Program, Vec<Diagnostic>) {
    let mut p = Parser::new(lexed.tokens);
    p.diags.extend(lexed.diags);
    // A lexer that hit the diagnostic cap stops the parse before its first
    // declaration, which in the whole file is the prefix's first.
    let prefix = if p.diags.capped() { Arc::default() } else { prefix.clone() };
    let mut own = Vec::new();
    p.declarations(&mut own);
    (Program { prefix, own }, p.diags.into_vec())
}

/// Source text parsed once, for sources that follow it on the next line.
#[derive(Debug)]
pub struct Prefix {
    /// The prefix's declarations, shared by every program parsed after it.
    decls: Arc<[Decl]>,
    /// Where a source placed on the line after the prefix starts.
    origin: Origin,
}

impl Prefix {
    /// Parse `text` as a prefix, or `None` when it cannot stand apart from
    /// what follows it: it has a diagnostic of any severity, or a `#`
    /// directive (a `#define` rewrites the lines after it).
    pub fn parse(text: &str) -> Option<Prefix> {
        let lexed = lex_at(&format!("{text}\n"), Origin::default());
        if lexed.directives || !lexed.diags.is_empty() {
            return None;
        }
        let origin = lexed.end;
        let (program, diags) = parse_lexed(lexed, &Arc::default());
        diags.is_empty().then(|| Prefix { decls: program.own.into(), origin })
    }

    /// The prefix's declarations.
    pub(crate) fn decls(&self) -> &[Decl] {
        &self.decls
    }

    /// The prefix's declarations followed by `source`'s, and `source`'s
    /// diagnostics: what [`parse_all`] returns for the prefix, a newline and
    /// `source`. `source` is lexed at the prefix's end `Origin`, so every
    /// token span and lexer diagnostic is counted as in the whole file. A
    /// clean prefix leaves the parser between declarations with no
    /// diagnostic recorded, so the concatenated parse goes on exactly as a
    /// parse of `source` alone does.
    pub fn parse_after(&self, source: &str) -> (Program, Vec<Diagnostic>) {
        parse_lexed(lex_at(source, self.origin), &self.decls)
    }
}

/// Parse a single expression (used by the P4-constraints sub-language).
pub fn parse_expression(source: &str) -> Result<Expr, Vec<Diagnostic>> {
    let (tokens, lex_diags) = lex_all(source);
    if lex_diags.iter().any(Diagnostic::is_error) {
        return Err(lex_diags);
    }
    let mut p = Parser::new(tokens);
    match p.expr().and_then(|e| {
        p.expect(Tok::Eof)?;
        Ok(e)
    }) {
        Ok(e) => Ok(e),
        Err(d) => Err(vec![d]),
    }
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: u32,
    diags: DiagSink,
}

type PResult<T> = Result<T, Diagnostic>;

impl Parser {
    fn new(mut tokens: Vec<Token>) -> Self {
        // The lexer guarantees a trailing Eof; enforce it anyway so the
        // indexing in peek()/bump() below is provably in bounds.
        if !matches!(tokens.last().map(|t| &t.tok), Some(Tok::Eof)) {
            let span = tokens.last().map(|t| t.span).unwrap_or_default();
            tokens.push(Token { tok: Tok::Eof, span });
        }
        Parser { tokens, pos: 0, depth: 0, diags: DiagSink::new() }
    }

    fn peek(&self) -> &Tok {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].tok
    }

    fn peek_at(&self, n: usize) -> &Tok {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].tok
    }

    fn span(&self) -> Span {
        self.tokens[self.pos.min(self.tokens.len() - 1)].span
    }

    fn prev_span(&self) -> Span {
        self.tokens[self.pos.saturating_sub(1).min(self.tokens.len() - 1)].span
    }

    /// Step past the current token, returning its span.
    fn bump(&mut self) -> Span {
        let span = self.span();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        span
    }

    fn eat(&mut self, t: Tok) -> bool {
        if *self.peek() == t {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: Tok) -> PResult<Span> {
        if *self.peek() == t {
            Ok(self.bump())
        } else {
            let code = if *self.peek() == Tok::Eof {
                codes::PARSE_UNEXPECTED_EOF
            } else {
                codes::PARSE_GENERIC
            };
            Err(Diagnostic::parse(self.span(), format!("expected {t}, found {}", self.peek()))
                .with_code(code))
        }
    }

    /// Step past the current token, taking the text of an identifier,
    /// string or annotation token: the parser never looks back at a token
    /// it has stepped past, so the text moves into the AST uncopied.
    fn bump_text(&mut self) -> (String, Span) {
        let i = self.pos.min(self.tokens.len() - 1);
        let text = match &mut self.tokens[i].tok {
            Tok::Ident(s) | Tok::Str(s) | Tok::At(s) => std::mem::take(s),
            _ => String::new(),
        };
        (text, self.bump())
    }

    fn expect_ident(&mut self) -> PResult<(String, Span)> {
        let name = match self.peek() {
            Tok::Ident(_) => return Ok(self.bump_text()),
            // Some keywords double as identifiers in member positions.
            Tok::Kw(Keyword::Apply) => "apply",
            Tok::Kw(Keyword::Key) => "key",
            Tok::Kw(Keyword::Size) => "size",
            other => {
                return Err(Diagnostic::parse(
                    self.span(),
                    format!("expected identifier, found {other}"),
                )
                .with_code(codes::PARSE_EXPECTED_IDENT))
            }
        };
        Ok((name.to_string(), self.bump()))
    }

    fn expect_int(&mut self) -> PResult<(u128, Span)> {
        match self.peek() {
            Tok::Int(i) => {
                let value = i.value;
                Ok((value, self.bump()))
            }
            other => Err(Diagnostic::parse(self.span(), format!("expected integer, found {other}"))
                .with_code(codes::PARSE_EXPECTED_INT)),
        }
    }

    // ---- recovery --------------------------------------------------------

    /// Guard against runaway recursion. Called on entry to every recursive
    /// production; the caller pairs it with a decrement.
    fn enter(&mut self) -> PResult<()> {
        if self.depth >= MAX_DEPTH {
            return Err(Diagnostic::parse(
                self.span(),
                format!("nesting exceeds the maximum depth of {MAX_DEPTH}"),
            )
            .with_code(codes::PARSE_RECURSION_LIMIT));
        }
        self.depth += 1;
        Ok(())
    }

    /// Could `t` begin a top-level declaration?
    fn is_decl_start(t: &Tok) -> bool {
        matches!(
            t,
            Tok::Kw(
                Keyword::Const
                    | Keyword::Typedef
                    | Keyword::Header
                    | Keyword::Struct
                    | Keyword::Enum
                    | Keyword::MatchKind
                    | Keyword::Parser
                    | Keyword::Control
                    | Keyword::Extern
                    | Keyword::Action
                    | Keyword::Package
            )
        )
    }

    /// After a failed top-level declaration: skip to a `;` (consumed), a
    /// closing `}` (consumed, balancing any braces opened while skipping), or
    /// the next declaration keyword. Guarantees progress past `start`.
    fn sync_decl(&mut self, start: usize) {
        if self.pos == start && *self.peek() != Tok::Eof {
            self.bump();
        }
        let mut depth = 0i32;
        loop {
            match self.peek() {
                Tok::Eof => return,
                Tok::Semi if depth == 0 => {
                    self.bump();
                    return;
                }
                t if depth == 0 && Self::is_decl_start(t) => return,
                Tok::LBrace => {
                    depth += 1;
                    self.bump();
                }
                Tok::RBrace => {
                    depth -= 1;
                    self.bump();
                    if depth <= 0 {
                        return;
                    }
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    /// After a failed statement or body item: skip to a `;` (consumed), a
    /// balanced `{...}` block (consumed), or the enclosing `}` / end of input
    /// (left in place for the caller's loop). Guarantees progress past
    /// `start`.
    fn sync_stmt(&mut self, start: usize) {
        if self.pos == start && !matches!(self.peek(), Tok::Eof | Tok::RBrace) {
            self.bump();
        }
        let mut depth = 0i32;
        loop {
            match self.peek() {
                Tok::Eof => return,
                Tok::Semi if depth == 0 => {
                    self.bump();
                    return;
                }
                Tok::RBrace if depth == 0 => return,
                Tok::LBrace | Tok::LParen | Tok::LBracket => {
                    depth += 1;
                    self.bump();
                }
                Tok::RBrace => {
                    depth -= 1;
                    self.bump();
                    if depth == 0 {
                        return;
                    }
                }
                Tok::RParen | Tok::RBracket => {
                    if depth > 0 {
                        depth -= 1;
                    }
                    self.bump();
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    // ---- annotations -----------------------------------------------------

    fn annotations(&mut self) -> PResult<Vec<Annotation>> {
        let mut anns = Vec::new();
        while let Tok::At(_) = self.peek() {
            let (name, span) = self.bump_text();
            let mut args = Vec::new();
            if self.eat(Tok::LParen) {
                while *self.peek() != Tok::RParen {
                    match self.peek() {
                        Tok::Str(_) => args.push(AnnotationArg::Str(self.bump_text().0)),
                        Tok::Int(i) => {
                            let value = i.value;
                            self.bump();
                            args.push(AnnotationArg::Int(value));
                        }
                        Tok::Ident(_) => args.push(AnnotationArg::Ident(self.bump_text().0)),
                        other => {
                            return Err(Diagnostic::parse(
                                self.span(),
                                format!("unsupported annotation argument {other}"),
                            ))
                        }
                    }
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
                self.expect(Tok::RParen)?;
            }
            anns.push(Annotation { name, args, span });
        }
        Ok(anns)
    }

    // ---- types -------------------------------------------------------------

    fn is_type_start(&self) -> bool {
        matches!(
            self.peek(),
            Tok::Kw(Keyword::Bit | Keyword::Int | Keyword::Bool | Keyword::Varbit | Keyword::Error | Keyword::Void)
        )
    }

    fn type_ref(&mut self) -> PResult<TypeRef> {
        self.enter()?;
        let r = self.type_ref_inner();
        self.depth -= 1;
        r
    }

    fn type_ref_inner(&mut self) -> PResult<TypeRef> {
        let base = match self.peek() {
            Tok::Kw(Keyword::Bool) => {
                self.bump();
                TypeRef::Bool
            }
            Tok::Kw(Keyword::Error) => {
                self.bump();
                TypeRef::Error
            }
            Tok::Kw(Keyword::Void) => {
                self.bump();
                TypeRef::Void
            }
            Tok::Kw(Keyword::Bit) => {
                self.bump();
                if self.eat(Tok::Lt) {
                    let (w, _) = self.expect_int()?;
                    self.close_angle()?;
                    TypeRef::Bit(w as u32)
                } else {
                    TypeRef::Bit(1)
                }
            }
            Tok::Kw(Keyword::Int) => {
                self.bump();
                self.expect(Tok::Lt)?;
                let (w, _) = self.expect_int()?;
                self.close_angle()?;
                TypeRef::Int(w as u32)
            }
            Tok::Kw(Keyword::Varbit) => {
                self.bump();
                self.expect(Tok::Lt)?;
                let (w, _) = self.expect_int()?;
                self.close_angle()?;
                TypeRef::Varbit(w as u32)
            }
            Tok::Ident(_) => {
                let (name, _) = self.bump_text();
                if *self.peek() == Tok::Lt {
                    self.bump();
                    let mut args = Vec::new();
                    loop {
                        if matches!(self.peek(), Tok::Ident(s) if s == "_") {
                            self.bump();
                            args.push(TypeRef::Dontcare);
                        } else {
                            args.push(self.type_ref()?);
                        }
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                    self.close_angle()?;
                    TypeRef::Generic(name, args)
                } else {
                    TypeRef::Named(name)
                }
            }
            other => {
                return Err(Diagnostic::parse(self.span(), format!("expected type, found {other}"))
                    .with_code(codes::PARSE_EXPECTED_TYPE))
            }
        };
        // Header stacks: `T[N]`.
        if *self.peek() == Tok::LBracket {
            self.bump();
            let (n, _) = self.expect_int()?;
            self.expect(Tok::RBracket)?;
            return Ok(TypeRef::Stack(Box::new(base), n as u32));
        }
        Ok(base)
    }

    /// Closing `>` of a generic; plain since `>>` is two tokens.
    fn close_angle(&mut self) -> PResult<()> {
        self.expect(Tok::Gt)?;
        Ok(())
    }

    // ---- program ----------------------------------------------------------

    fn declarations(&mut self, decls: &mut Vec<Decl>) {
        while *self.peek() != Tok::Eof {
            if self.diags.capped() {
                break;
            }
            let start = self.pos;
            match self.declaration() {
                Ok(d) => decls.push(d),
                Err(e) => {
                    self.diags.push(e);
                    self.sync_decl(start);
                }
            }
        }
    }

    fn declaration(&mut self) -> PResult<Decl> {
        let annotations = self.annotations()?;
        let span = self.span();
        match self.peek() {
            Tok::Kw(Keyword::Const) => {
                self.bump();
                let ty = self.type_ref()?;
                let (name, _) = self.expect_ident()?;
                self.expect(Tok::Assign)?;
                let value = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Decl::Const { ty, name, value, span })
            }
            Tok::Kw(Keyword::Typedef) => {
                self.bump();
                let ty = self.type_ref()?;
                let (name, _) = self.expect_ident()?;
                self.expect(Tok::Semi)?;
                Ok(Decl::Typedef { ty, name, span })
            }
            Tok::Kw(Keyword::Header) => {
                self.bump();
                let (name, _) = self.expect_ident()?;
                let fields = self.field_list()?;
                Ok(Decl::Header { name, fields, annotations, span })
            }
            Tok::Kw(Keyword::Struct) => {
                self.bump();
                let (name, _) = self.expect_ident()?;
                let fields = self.field_list()?;
                Ok(Decl::Struct { name, fields, annotations, span })
            }
            Tok::Kw(Keyword::Enum) => {
                self.bump();
                let underlying = if matches!(self.peek(), Tok::Kw(Keyword::Bit | Keyword::Int)) {
                    Some(self.type_ref()?)
                } else {
                    None
                };
                let (name, _) = self.expect_ident()?;
                self.expect(Tok::LBrace)?;
                let mut members = Vec::new();
                while !matches!(self.peek(), Tok::RBrace | Tok::Eof) {
                    let (m, _) = self.expect_ident()?;
                    let v = if self.eat(Tok::Assign) { Some(self.expr()?) } else { None };
                    members.push((m, v));
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
                self.expect(Tok::RBrace)?;
                Ok(Decl::Enum { name, underlying, members, span })
            }
            Tok::Kw(Keyword::Error) => {
                self.bump();
                self.expect(Tok::LBrace)?;
                let mut members = Vec::new();
                while !matches!(self.peek(), Tok::RBrace | Tok::Eof) {
                    let (m, _) = self.expect_ident()?;
                    members.push(m);
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
                self.expect(Tok::RBrace)?;
                Ok(Decl::ErrorDecl { members, span })
            }
            Tok::Kw(Keyword::MatchKind) => {
                self.bump();
                self.expect(Tok::LBrace)?;
                let mut members = Vec::new();
                while !matches!(self.peek(), Tok::RBrace | Tok::Eof) {
                    let (m, _) = self.expect_ident()?;
                    members.push(m);
                    if !self.eat(Tok::Comma) {
                        break;
                    }
                }
                self.expect(Tok::RBrace)?;
                Ok(Decl::MatchKindDecl { members, span })
            }
            Tok::Kw(Keyword::Parser) => self.parser_decl(annotations, span),
            Tok::Kw(Keyword::Control) => self.control_decl(annotations, span),
            Tok::Kw(Keyword::Extern) => self.extern_decl(span),
            Tok::Kw(Keyword::Action) => Ok(Decl::Action(self.action_decl(annotations)?)),
            Tok::Kw(Keyword::Package) => {
                // `package Name<...>(params);` — record the name, skip body.
                self.bump();
                let (name, _) = self.expect_ident()?;
                self.skip_to_semi()?;
                Ok(Decl::Package { name, span })
            }
            Tok::Ident(_) => {
                // Top-level instantiation: `V1Switch(Parser(), ...) main;`
                let ty = self.type_ref()?;
                self.expect(Tok::LParen)?;
                let args = self.expr_list(Tok::RParen)?;
                self.expect(Tok::RParen)?;
                let (name, _) = self.expect_ident()?;
                self.expect(Tok::Semi)?;
                Ok(Decl::Instantiation(Instantiation { ty, args, name, annotations, span }))
            }
            other => Err(Diagnostic::parse(
                span,
                format!("expected a declaration, found {other}"),
            )
            .with_code(codes::PARSE_EXPECTED_DECL)),
        }
    }

    fn skip_to_semi(&mut self) -> PResult<()> {
        let mut depth = 0i32;
        loop {
            match self.peek() {
                Tok::Eof => {
                    return Err(Diagnostic::parse(self.span(), "unexpected end of input")
                        .with_code(codes::PARSE_UNEXPECTED_EOF))
                }
                Tok::Semi if depth == 0 => {
                    self.bump();
                    return Ok(());
                }
                Tok::LParen | Tok::LBrace | Tok::LBracket => {
                    depth += 1;
                    self.bump();
                }
                Tok::RParen | Tok::RBrace | Tok::RBracket => {
                    depth -= 1;
                    self.bump();
                }
                _ => {
                    self.bump();
                }
            }
        }
    }

    fn field_list(&mut self) -> PResult<Vec<Field>> {
        self.expect(Tok::LBrace)?;
        let mut fields = Vec::new();
        while !matches!(self.peek(), Tok::RBrace | Tok::Eof) {
            if self.diags.capped() {
                break;
            }
            let start = self.pos;
            match self.field_item() {
                Ok(f) => fields.push(f),
                Err(e) => {
                    self.diags.push(e);
                    self.sync_stmt(start);
                }
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(fields)
    }

    fn field_item(&mut self) -> PResult<Field> {
        let annotations = self.annotations()?;
        let span = self.span();
        let ty = self.type_ref()?;
        let (name, _) = self.expect_ident()?;
        self.expect(Tok::Semi)?;
        Ok(Field { ty, name, annotations, span })
    }

    fn param_list(&mut self) -> PResult<Vec<Param>> {
        self.expect(Tok::LParen)?;
        let mut params = Vec::new();
        while !matches!(self.peek(), Tok::RParen | Tok::Eof) {
            let _anns = self.annotations()?;
            let span = self.span();
            let direction = match self.peek() {
                Tok::Kw(Keyword::In) => {
                    self.bump();
                    Direction::In
                }
                Tok::Kw(Keyword::Out) => {
                    self.bump();
                    Direction::Out
                }
                Tok::Kw(Keyword::InOut) => {
                    self.bump();
                    Direction::InOut
                }
                _ => Direction::None,
            };
            let ty = self.type_ref()?;
            let (name, _) = self.expect_ident()?;
            // Default values on parameters are skipped.
            if self.eat(Tok::Assign) {
                self.expr()?;
            }
            params.push(Param { direction, ty, name, span });
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        self.expect(Tok::RParen)?;
        Ok(params)
    }

    // ---- extern declarations -----------------------------------------------

    fn extern_decl(&mut self, span: Span) -> PResult<Decl> {
        self.expect(Tok::Kw(Keyword::Extern))?;
        // Either `extern Ret name<T>(params);` or `extern Name<T> { ... }`.
        // An extern object has `{` after the (possibly generic) name.
        let is_object = {
            // Look ahead: IDENT [< ... >] followed by `{`.
            let mut i = 0;
            let obj;
            loop {
                match self.peek_at(i) {
                    Tok::Ident(_) if i == 0 => i += 1,
                    Tok::Lt if i == 1 => {
                        // scan to matching '>'
                        let mut depth = 1;
                        i += 1;
                        while depth > 0 {
                            match self.peek_at(i) {
                                Tok::Lt => depth += 1,
                                Tok::Gt => depth -= 1,
                                Tok::Eof => break,
                                _ => {}
                            }
                            i += 1;
                        }
                        obj = *self.peek_at(i) == Tok::LBrace;
                        break;
                    }
                    Tok::LBrace if i == 1 => {
                        obj = true;
                        break;
                    }
                    _ => {
                        obj = false;
                        break;
                    }
                }
            }
            obj
        };
        if is_object {
            let (name, _) = self.expect_ident()?;
            let type_params = self.opt_type_params()?;
            self.expect(Tok::LBrace)?;
            let mut constructors = Vec::new();
            let mut methods = Vec::new();
            while !matches!(self.peek(), Tok::RBrace | Tok::Eof) {
                let _anns = self.annotations()?;
                let mspan = self.span();
                if matches!(self.peek(), Tok::Ident(n) if *n == name) && *self.peek_at(1) == Tok::LParen {
                    // constructor
                    self.bump();
                    constructors.push(self.param_list()?);
                    self.expect(Tok::Semi)?;
                } else {
                    let ret = self.type_ref()?;
                    let (mname, _) = self.expect_ident()?;
                    let type_params = self.opt_type_params()?;
                    let params = self.param_list()?;
                    self.expect(Tok::Semi)?;
                    methods.push(ExternFunction { name: mname, type_params, ret, params, span: mspan });
                }
            }
            self.expect(Tok::RBrace)?;
            Ok(Decl::ExternObject(ExternObject { name, type_params, constructors, methods, span }))
        } else {
            let ret = self.type_ref()?;
            let (name, _) = self.expect_ident()?;
            let type_params = self.opt_type_params()?;
            let params = self.param_list()?;
            self.expect(Tok::Semi)?;
            Ok(Decl::ExternFunction(ExternFunction { name, type_params, ret, params, span }))
        }
    }

    fn opt_type_params(&mut self) -> PResult<Vec<String>> {
        let mut out = Vec::new();
        if self.eat(Tok::Lt) {
            loop {
                let (n, _) = self.expect_ident()?;
                out.push(n);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
            self.close_angle()?;
        }
        Ok(out)
    }

    // ---- parsers -------------------------------------------------------------

    fn parser_decl(&mut self, annotations: Vec<Annotation>, span: Span) -> PResult<Decl> {
        self.expect(Tok::Kw(Keyword::Parser))?;
        let (name, _) = self.expect_ident()?;
        let _tp = self.opt_type_params()?;
        let params = self.param_list()?;
        // Parser type declarations end with `;` — record as a package-like decl.
        if self.eat(Tok::Semi) {
            return Ok(Decl::Package { name, span });
        }
        self.expect(Tok::LBrace)?;
        let mut locals = Vec::new();
        let mut states = Vec::new();
        while !matches!(self.peek(), Tok::RBrace | Tok::Eof) {
            if self.diags.capped() {
                break;
            }
            let start = self.pos;
            match self.parser_item(&mut locals, &mut states) {
                Ok(()) => {}
                Err(e) => {
                    self.diags.push(e);
                    self.sync_stmt(start);
                }
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(Decl::Parser(ParserDecl { name, params, locals, states, annotations, span }))
    }

    fn parser_item(
        &mut self,
        locals: &mut Vec<Stmt>,
        states: &mut Vec<ParserState>,
    ) -> PResult<()> {
        let sanns = self.annotations()?;
        if *self.peek() == Tok::Kw(Keyword::State) {
            let sspan = self.span();
            self.bump();
            let (sname, _) = self.expect_ident()?;
            self.expect(Tok::LBrace)?;
            let mut stmts = Vec::new();
            let mut transition = Transition::Direct("reject".into());
            loop {
                match self.peek() {
                    Tok::RBrace | Tok::Eof => break,
                    Tok::Kw(Keyword::Transition) => {
                        self.bump();
                        transition = self.transition()?;
                        break;
                    }
                    _ => {
                        if self.diags.capped() {
                            break;
                        }
                        let start = self.pos;
                        match self.statement() {
                            Ok(s) => stmts.push(s),
                            Err(e) => {
                                self.diags.push(e);
                                self.sync_stmt(start);
                            }
                        }
                    }
                }
            }
            self.expect(Tok::RBrace)?;
            states.push(ParserState { name: sname, stmts, transition, annotations: sanns, span: sspan });
        } else {
            locals.push(self.statement()?);
        }
        Ok(())
    }

    fn transition(&mut self) -> PResult<Transition> {
        if *self.peek() == Tok::Kw(Keyword::Select) {
            let span = self.span();
            self.bump();
            self.expect(Tok::LParen)?;
            let exprs = self.expr_list(Tok::RParen)?;
            self.expect(Tok::RParen)?;
            self.expect(Tok::LBrace)?;
            let mut cases = Vec::new();
            while !matches!(self.peek(), Tok::RBrace | Tok::Eof) {
                let cspan = self.span();
                let keys = self.keyset()?;
                self.expect(Tok::Colon)?;
                let (next_state, _) = self.expect_ident()?;
                self.expect(Tok::Semi)?;
                cases.push(SelectCase { keys, next_state, span: cspan });
            }
            self.expect(Tok::RBrace)?;
            Ok(Transition::Select { exprs, cases, span })
        } else {
            let (name, _) = match self.peek() {
                Tok::Kw(Keyword::Default) => {
                    let sp = self.bump();
                    ("accept".to_string(), sp)
                }
                _ => self.expect_ident()?,
            };
            self.expect(Tok::Semi)?;
            Ok(Transition::Direct(name))
        }
    }

    /// A keyset: `(k1, k2)` or a single keyset expression. Elements may use
    /// `&&&`, `..`, `default`, `_`.
    fn keyset(&mut self) -> PResult<Vec<Expr>> {
        if *self.peek() == Tok::LParen {
            self.bump();
            let mut keys = Vec::new();
            while !matches!(self.peek(), Tok::RParen | Tok::Eof) {
                keys.push(self.keyset_expr()?);
                if !self.eat(Tok::Comma) {
                    break;
                }
            }
            self.expect(Tok::RParen)?;
            Ok(keys)
        } else {
            Ok(vec![self.keyset_expr()?])
        }
    }

    fn keyset_expr(&mut self) -> PResult<Expr> {
        let span = self.span();
        match self.peek() {
            Tok::Kw(Keyword::Default) => {
                self.bump();
                return Ok(Expr::Dontcare { span });
            }
            Tok::Ident(s) if s == "_" => {
                self.bump();
                return Ok(Expr::Dontcare { span });
            }
            _ => {}
        }
        let e = self.expr()?;
        if self.eat(Tok::AmpAmpAmp) {
            let mask = self.expr()?;
            let sp = span.merge(self.prev_span());
            return Ok(Expr::Mask { value: Box::new(e), mask: Box::new(mask), span: sp });
        }
        if self.eat(Tok::DotDot) {
            let hi = self.expr()?;
            let sp = span.merge(self.prev_span());
            return Ok(Expr::Range { lo: Box::new(e), hi: Box::new(hi), span: sp });
        }
        Ok(e)
    }

    // ---- controls -------------------------------------------------------------

    fn control_decl(&mut self, annotations: Vec<Annotation>, span: Span) -> PResult<Decl> {
        self.expect(Tok::Kw(Keyword::Control))?;
        let (name, _) = self.expect_ident()?;
        let _tp = self.opt_type_params()?;
        let params = self.param_list()?;
        if self.eat(Tok::Semi) {
            return Ok(Decl::Package { name, span });
        }
        self.expect(Tok::LBrace)?;
        let mut actions = Vec::new();
        let mut tables = Vec::new();
        let mut locals = Vec::new();
        let mut instantiations = Vec::new();
        let mut apply = Vec::new();
        while !matches!(self.peek(), Tok::RBrace | Tok::Eof) {
            if self.diags.capped() {
                break;
            }
            let start = self.pos;
            match self.control_item(
                &mut actions,
                &mut tables,
                &mut locals,
                &mut instantiations,
                &mut apply,
            ) {
                Ok(()) => {}
                Err(e) => {
                    self.diags.push(e);
                    self.sync_stmt(start);
                }
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(Decl::Control(ControlDecl {
            name,
            params,
            actions,
            tables,
            locals,
            instantiations,
            apply,
            annotations,
            span,
        }))
    }

    #[allow(clippy::too_many_arguments)]
    fn control_item(
        &mut self,
        actions: &mut Vec<ActionDecl>,
        tables: &mut Vec<TableDecl>,
        locals: &mut Vec<Stmt>,
        instantiations: &mut Vec<Instantiation>,
        apply: &mut Vec<Stmt>,
    ) -> PResult<()> {
        let danns = self.annotations()?;
        match self.peek() {
            Tok::Kw(Keyword::Action) => actions.push(self.action_decl(danns)?),
            Tok::Kw(Keyword::Table) => tables.push(self.table_decl(danns)?),
            Tok::Kw(Keyword::Apply) => {
                self.bump();
                let (stmts, _) = self.block_stmts()?;
                *apply = stmts;
            }
            Tok::Ident(_) if self.looks_like_instantiation() => {
                let ispan = self.span();
                let ty = self.type_ref()?;
                self.expect(Tok::LParen)?;
                let args = self.expr_list(Tok::RParen)?;
                self.expect(Tok::RParen)?;
                let (iname, _) = self.expect_ident()?;
                self.expect(Tok::Semi)?;
                instantiations.push(Instantiation {
                    ty,
                    args,
                    name: iname,
                    annotations: danns,
                    span: ispan,
                });
            }
            _ => locals.push(self.statement()?),
        }
        Ok(())
    }

    /// At a control-local position: `Name<...>(...) id;` or `Name(...) id;`.
    fn looks_like_instantiation(&self) -> bool {
        // IDENT followed by `<` (generic instantiation) or by `(`.
        match self.peek_at(1) {
            Tok::Lt => true,
            Tok::LParen => {
                // Distinguish from a call statement `foo(...);` by scanning
                // for an identifier right after the matching `)`.
                let mut i = 2;
                let mut depth = 1;
                while depth > 0 {
                    match self.peek_at(i) {
                        Tok::LParen => depth += 1,
                        Tok::RParen => depth -= 1,
                        Tok::Eof => return false,
                        _ => {}
                    }
                    i += 1;
                }
                matches!(self.peek_at(i), Tok::Ident(_))
            }
            _ => false,
        }
    }

    fn action_decl(&mut self, annotations: Vec<Annotation>) -> PResult<ActionDecl> {
        let span = self.span();
        self.expect(Tok::Kw(Keyword::Action))?;
        let (name, _) = self.expect_ident()?;
        let params = self.param_list()?;
        let (body, _) = self.block_stmts()?;
        Ok(ActionDecl { name, params, body, annotations, span })
    }

    fn table_decl(&mut self, annotations: Vec<Annotation>) -> PResult<TableDecl> {
        let span = self.span();
        self.expect(Tok::Kw(Keyword::Table))?;
        let (name, _) = self.expect_ident()?;
        self.expect(Tok::LBrace)?;
        let mut t = TableDecl {
            name,
            keys: Vec::new(),
            actions: Vec::new(),
            default_action: None,
            entries: Vec::new(),
            size: None,
            annotations,
            span,
        };
        while !matches!(self.peek(), Tok::RBrace | Tok::Eof) {
            if self.diags.capped() {
                break;
            }
            let start = self.pos;
            match self.table_item(&mut t) {
                Ok(()) => {}
                Err(e) => {
                    self.diags.push(e);
                    self.sync_stmt(start);
                }
            }
        }
        self.expect(Tok::RBrace)?;
        Ok(t)
    }

    fn table_item(&mut self, t: &mut TableDecl) -> PResult<()> {
        let is_const = self.eat(Tok::Kw(Keyword::Const));
        match self.peek() {
            Tok::Kw(Keyword::Key) => {
                self.bump();
                self.expect(Tok::Assign)?;
                self.expect(Tok::LBrace)?;
                while !matches!(self.peek(), Tok::RBrace | Tok::Eof) {
                    let kspan = self.span();
                    let expr = self.expr()?;
                    self.expect(Tok::Colon)?;
                    let (mk, _) = self.expect_ident()?;
                    let kanns = self.annotations()?;
                    self.expect(Tok::Semi)?;
                    t.keys.push(TableKey { expr, match_kind: mk, annotations: kanns, span: kspan });
                }
                self.expect(Tok::RBrace)?;
            }
            Tok::Kw(Keyword::Actions) => {
                self.bump();
                self.expect(Tok::Assign)?;
                self.expect(Tok::LBrace)?;
                while !matches!(self.peek(), Tok::RBrace | Tok::Eof) {
                    let aanns = self.annotations()?;
                    let aspan = self.span();
                    let (aname, _) = self.expect_ident()?;
                    let mut args = Vec::new();
                    if *self.peek() == Tok::LParen {
                        self.bump();
                        args = self.expr_list(Tok::RParen)?;
                        self.expect(Tok::RParen)?;
                    }
                    self.expect(Tok::Semi)?;
                    t.actions.push(ActionRef { name: aname, args, annotations: aanns, span: aspan });
                }
                self.expect(Tok::RBrace)?;
            }
            Tok::Kw(Keyword::DefaultAction) => {
                self.bump();
                self.expect(Tok::Assign)?;
                let (aname, _) = self.expect_ident()?;
                let mut args = Vec::new();
                if *self.peek() == Tok::LParen {
                    self.bump();
                    args = self.expr_list(Tok::RParen)?;
                    self.expect(Tok::RParen)?;
                }
                self.expect(Tok::Semi)?;
                t.default_action = Some((aname, args, is_const));
            }
            Tok::Kw(Keyword::Entries) => {
                self.bump();
                self.expect(Tok::Assign)?;
                self.expect(Tok::LBrace)?;
                while !matches!(self.peek(), Tok::RBrace | Tok::Eof) {
                    let eanns = self.annotations()?;
                    let espan = self.span();
                    let ekeys = self.keyset()?;
                    self.expect(Tok::Colon)?;
                    let (aname, _) = self.expect_ident()?;
                    let mut args = Vec::new();
                    if *self.peek() == Tok::LParen {
                        self.bump();
                        args = self.expr_list(Tok::RParen)?;
                        self.expect(Tok::RParen)?;
                    }
                    self.expect(Tok::Semi)?;
                    t.entries.push(TableEntry {
                        keys: ekeys,
                        action: aname,
                        args,
                        annotations: eanns,
                        span: espan,
                    });
                }
                self.expect(Tok::RBrace)?;
            }
            Tok::Kw(Keyword::Size) => {
                self.bump();
                self.expect(Tok::Assign)?;
                let (n, _) = self.expect_int()?;
                self.expect(Tok::Semi)?;
                t.size = Some(n as u64);
            }
            Tok::Ident(_) => {
                // Unknown table property (implementation, meters, ...): skip.
                self.skip_to_semi()?;
            }
            other => {
                return Err(Diagnostic::parse(
                    self.span(),
                    format!("unexpected token in table body: {other}"),
                ))
            }
        }
        Ok(())
    }

    // ---- statements -----------------------------------------------------------

    fn block(&mut self) -> PResult<Stmt> {
        let (stmts, span) = self.block_stmts()?;
        Ok(Stmt::Block { stmts, span })
    }

    /// A `{ ... }` statement list with per-statement recovery.
    fn block_stmts(&mut self) -> PResult<(Vec<Stmt>, Span)> {
        let span = self.expect(Tok::LBrace)?;
        let mut stmts = Vec::new();
        while !matches!(self.peek(), Tok::RBrace | Tok::Eof) {
            if self.diags.capped() {
                break;
            }
            let start = self.pos;
            match self.statement() {
                Ok(s) => stmts.push(s),
                Err(e) => {
                    self.diags.push(e);
                    self.sync_stmt(start);
                }
            }
        }
        let end = self.expect(Tok::RBrace)?;
        Ok((stmts, span.merge(end)))
    }

    fn statement(&mut self) -> PResult<Stmt> {
        self.enter()?;
        let r = self.statement_inner();
        self.depth -= 1;
        r
    }

    fn statement_inner(&mut self) -> PResult<Stmt> {
        let _anns = self.annotations()?;
        let span = self.span();
        match self.peek() {
            Tok::LBrace => self.block(),
            Tok::Semi => {
                self.bump();
                Ok(Stmt::Empty { span })
            }
            Tok::Kw(Keyword::If) => {
                self.bump();
                self.expect(Tok::LParen)?;
                let cond = self.expr()?;
                self.expect(Tok::RParen)?;
                let then_s = Box::new(self.statement()?);
                let else_s = if self.eat(Tok::Kw(Keyword::Else)) {
                    Some(Box::new(self.statement()?))
                } else {
                    None
                };
                Ok(Stmt::If { cond, then_s, else_s, span })
            }
            Tok::Kw(Keyword::Switch) => {
                self.bump();
                self.expect(Tok::LParen)?;
                let scrutinee = self.expr()?;
                self.expect(Tok::RParen)?;
                self.expect(Tok::LBrace)?;
                let mut cases = Vec::new();
                while !matches!(self.peek(), Tok::RBrace | Tok::Eof) {
                    let cspan = self.span();
                    let label = if self.eat(Tok::Kw(Keyword::Default)) {
                        None
                    } else {
                        Some(self.expect_ident()?.0)
                    };
                    self.expect(Tok::Colon)?;
                    let body = if *self.peek() == Tok::LBrace {
                        Some(self.block()?)
                    } else {
                        None // fallthrough label
                    };
                    cases.push(SwitchCase { label, body, span: cspan });
                }
                self.expect(Tok::RBrace)?;
                Ok(Stmt::Switch { scrutinee, cases, span })
            }
            Tok::Kw(Keyword::Exit) => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Exit { span })
            }
            Tok::Kw(Keyword::Return) => {
                self.bump();
                self.expect(Tok::Semi)?;
                Ok(Stmt::Return { span })
            }
            Tok::Kw(Keyword::Const) => {
                self.bump();
                let ty = self.type_ref()?;
                let (name, _) = self.expect_ident()?;
                self.expect(Tok::Assign)?;
                let init = self.expr()?;
                self.expect(Tok::Semi)?;
                Ok(Stmt::ConstDecl { ty, name, init, span })
            }
            Tok::Kw(Keyword::Bit | Keyword::Int | Keyword::Bool | Keyword::Varbit | Keyword::Error) => {
                let ty = self.type_ref()?;
                let (name, _) = self.expect_ident()?;
                let init = if self.eat(Tok::Assign) { Some(self.expr()?) } else { None };
                self.expect(Tok::Semi)?;
                Ok(Stmt::VarDecl { ty, name, init, span })
            }
            Tok::Ident(_) if matches!(self.peek_at(1), Tok::Ident(_)) => {
                // `TypeName varname [= init];`
                let ty = self.type_ref()?;
                let (name, _) = self.expect_ident()?;
                let init = if self.eat(Tok::Assign) { Some(self.expr()?) } else { None };
                self.expect(Tok::Semi)?;
                Ok(Stmt::VarDecl { ty, name, init, span })
            }
            _ => {
                // Assignment or call statement.
                let e = self.expr()?;
                if self.eat(Tok::Assign) {
                    let rhs = self.expr()?;
                    self.expect(Tok::Semi)?;
                    Ok(Stmt::Assign { lhs: e, rhs, span })
                } else {
                    self.expect(Tok::Semi)?;
                    match &e {
                        Expr::Call { .. } => Ok(Stmt::Call { call: e, span }),
                        _ => Err(Diagnostic::parse(
                            span,
                            "expected assignment or call statement",
                        )
                        .with_code(codes::PARSE_EXPECTED_STMT)),
                    }
                }
            }
        }
    }

    // ---- expressions -----------------------------------------------------------

    fn expr_list(&mut self, terminator: Tok) -> PResult<Vec<Expr>> {
        let mut out = Vec::new();
        while *self.peek() != terminator && *self.peek() != Tok::Eof {
            out.push(self.expr()?);
            if !self.eat(Tok::Comma) {
                break;
            }
        }
        Ok(out)
    }

    pub(crate) fn expr(&mut self) -> PResult<Expr> {
        self.enter()?;
        let r = self.ternary_expr();
        self.depth -= 1;
        r
    }

    fn ternary_expr(&mut self) -> PResult<Expr> {
        let cond = self.binary_expr(1)?;
        if self.eat(Tok::Question) {
            let then_e = self.expr()?;
            self.expect(Tok::Colon)?;
            let else_e = self.expr()?;
            let span = cond.span().merge(else_e.span());
            return Ok(Expr::Ternary {
                cond: Box::new(cond),
                then_e: Box::new(then_e),
                else_e: Box::new(else_e),
                span,
            });
        }
        Ok(cond)
    }

    /// The binary operator at the cursor: the operator, its precedence
    /// level (higher binds tighter) and how many tokens it spans.
    fn binary_op(&self) -> Option<(BinaryOp, u8, usize)> {
        Some(match self.peek() {
            Tok::PipePipe => (BinaryOp::Or, 1, 1),
            Tok::AmpAmp => (BinaryOp::And, 2, 1),
            Tok::Pipe => (BinaryOp::BitOr, 3, 1),
            Tok::Caret => (BinaryOp::BitXor, 4, 1),
            Tok::Amp => (BinaryOp::BitAnd, 5, 1),
            Tok::Eq => (BinaryOp::Eq, 6, 1),
            Tok::Neq => (BinaryOp::Neq, 6, 1),
            Tok::Lt => (BinaryOp::Lt, 7, 1),
            Tok::Le => (BinaryOp::Le, 7, 1),
            Tok::Gt if self.gt_gt_adjacent() => (BinaryOp::Shr, 8, 2),
            Tok::Gt => (BinaryOp::Gt, 7, 1),
            Tok::Ge => (BinaryOp::Ge, 7, 1),
            Tok::Shl => (BinaryOp::Shl, 8, 1),
            Tok::PlusPlus => (BinaryOp::Concat, 9, 1),
            Tok::Plus => (BinaryOp::Add, 10, 1),
            Tok::Minus => (BinaryOp::Sub, 10, 1),
            Tok::Star => (BinaryOp::Mul, 11, 1),
            Tok::Slash => (BinaryOp::Div, 11, 1),
            Tok::Percent => (BinaryOp::Mod, 11, 1),
            _ => return None,
        })
    }

    /// A chain of binary operators of level `min` or tighter, each level
    /// left-associative (precedence climbing). Only unary operands open a
    /// nesting level for the depth guard.
    fn binary_expr(&mut self, min: u8) -> PResult<Expr> {
        let mut lhs = self.unary_expr()?;
        while let Some((op, level, len)) = self.binary_op() {
            if level < min {
                break;
            }
            for _ in 0..len {
                self.bump();
            }
            let rhs = self.binary_expr(level + 1)?;
            let span = lhs.span().merge(rhs.span());
            lhs = Expr::Binary { op, lhs: Box::new(lhs), rhs: Box::new(rhs), span };
        }
        Ok(lhs)
    }

    /// True if the current `Gt` and the following `Gt` are adjacent (`>>`).
    fn gt_gt_adjacent(&self) -> bool {
        *self.peek() == Tok::Gt
            && *self.peek_at(1) == Tok::Gt
            && self
                .tokens
                .get(self.pos + 1)
                .map(|next| self.tokens[self.pos].span.end.offset == next.span.start.offset)
                .unwrap_or(false)
    }

    fn unary_expr(&mut self) -> PResult<Expr> {
        self.enter()?;
        let r = self.unary_expr_inner();
        self.depth -= 1;
        r
    }

    fn unary_expr_inner(&mut self) -> PResult<Expr> {
        let span = self.span();
        match self.peek() {
            Tok::Not => {
                self.bump();
                let arg = self.unary_expr()?;
                let sp = span.merge(arg.span());
                Ok(Expr::Unary { op: UnaryOp::Not, arg: Box::new(arg), span: sp })
            }
            Tok::Tilde => {
                self.bump();
                let arg = self.unary_expr()?;
                let sp = span.merge(arg.span());
                Ok(Expr::Unary { op: UnaryOp::BitNot, arg: Box::new(arg), span: sp })
            }
            Tok::Minus => {
                self.bump();
                let arg = self.unary_expr()?;
                let sp = span.merge(arg.span());
                Ok(Expr::Unary { op: UnaryOp::Neg, arg: Box::new(arg), span: sp })
            }
            Tok::Plus => {
                self.bump();
                self.unary_expr()
            }
            _ => self.postfix_expr(),
        }
    }

    fn postfix_expr(&mut self) -> PResult<Expr> {
        let mut e = self.primary_expr()?;
        loop {
            let span = self.span();
            match self.peek() {
                Tok::Dot => {
                    self.bump();
                    let (member, msp) = self.expect_ident()?;
                    let sp = e.span().merge(msp);
                    e = Expr::Member { base: Box::new(e), member, span: sp };
                }
                Tok::LBracket => {
                    self.bump();
                    let first = self.expr()?;
                    if self.eat(Tok::Colon) {
                        let lo = self.expr()?;
                        let end = self.expect(Tok::RBracket)?;
                        let sp = e.span().merge(end);
                        e = Expr::Slice {
                            base: Box::new(e),
                            hi: Box::new(first),
                            lo: Box::new(lo),
                            span: sp,
                        };
                    } else {
                        let end = self.expect(Tok::RBracket)?;
                        let sp = e.span().merge(end);
                        e = Expr::Index {
                            base: Box::new(e),
                            index: Box::new(first),
                            span: sp,
                        };
                    }
                }
                Tok::Lt if self.is_call_type_args() => {
                    // `lookahead<bit<16>>(...)`.
                    self.bump();
                    let mut type_args = Vec::new();
                    loop {
                        type_args.push(self.type_ref()?);
                        if !self.eat(Tok::Comma) {
                            break;
                        }
                    }
                    self.close_angle()?;
                    self.expect(Tok::LParen)?;
                    let args = self.expr_list(Tok::RParen)?;
                    let end = self.expect(Tok::RParen)?;
                    e = Expr::Call {
                        callee: Box::new(e),
                        type_args,
                        args,
                        span: span.merge(end),
                    };
                }
                Tok::LParen => {
                    self.bump();
                    let args = self.expr_list(Tok::RParen)?;
                    let end = self.expect(Tok::RParen)?;
                    let sp = e.span().merge(end);
                    e = Expr::Call {
                        callee: Box::new(e),
                        type_args: Vec::new(),
                        args,
                        span: sp,
                    };
                }
                _ => break,
            }
        }
        Ok(e)
    }

    /// Heuristic for `f<T>(...)` call-with-type-args vs `a < b` comparison:
    /// scan for a matching `>` followed by `(` before any `;`/`{`.
    fn is_call_type_args(&self) -> bool {
        let mut i = 1;
        let mut depth = 1;
        while depth > 0 && i < 64 {
            match self.peek_at(i) {
                Tok::Lt => depth += 1,
                Tok::Gt => depth -= 1,
                Tok::Semi | Tok::LBrace | Tok::Eof => return false,
                _ => {}
            }
            i += 1;
        }
        depth == 0 && *self.peek_at(i) == Tok::LParen
    }

    fn primary_expr(&mut self) -> PResult<Expr> {
        let span = self.span();
        match self.peek() {
            &Tok::Int(IntLit { value, width, signed }) => {
                self.bump();
                Ok(Expr::Int { value, width, signed, span })
            }
            Tok::Kw(Keyword::True) => {
                self.bump();
                Ok(Expr::Bool { value: true, span })
            }
            Tok::Kw(Keyword::False) => {
                self.bump();
                Ok(Expr::Bool { value: false, span })
            }
            Tok::Str(_) => Ok(Expr::Str { value: self.bump_text().0, span }),
            Tok::Kw(Keyword::Error) => {
                // `error.NoError`
                self.bump();
                self.expect(Tok::Dot)?;
                let (member, msp) = self.expect_ident()?;
                Ok(Expr::Member {
                    base: Box::new(Expr::Ident { name: "error".into(), span }),
                    member,
                    span: span.merge(msp),
                })
            }
            Tok::Ident(_) => Ok(Expr::Ident { name: self.bump_text().0, span }),
            Tok::LBrace => {
                self.bump();
                let items = self.expr_list(Tok::RBrace)?;
                let end = self.expect(Tok::RBrace)?;
                Ok(Expr::List { items, span: span.merge(end) })
            }
            Tok::LParen => {
                self.bump();
                // Cast for built-in types: `(bit<8>) e`.
                if self.is_type_start() {
                    let ty = self.type_ref()?;
                    self.expect(Tok::RParen)?;
                    let arg = self.unary_expr()?;
                    let sp = span.merge(arg.span());
                    return Ok(Expr::Cast { ty, arg: Box::new(arg), span: sp });
                }
                // Cast for named types: `(TypeName) e` — identifier alone in
                // parens followed by an expression-start token.
                if let Tok::Ident(_) = self.peek() {
                    if *self.peek_at(1) == Tok::RParen
                        && matches!(
                            self.peek_at(2),
                            Tok::Ident(_) | Tok::Int(_) | Tok::LParen | Tok::Kw(Keyword::True | Keyword::False)
                        )
                    {
                        let (tname, _) = self.bump_text();
                        self.expect(Tok::RParen)?;
                        let arg = self.unary_expr()?;
                        let sp = span.merge(arg.span());
                        return Ok(Expr::Cast {
                            ty: TypeRef::Named(tname),
                            arg: Box::new(arg),
                            span: sp,
                        });
                    }
                }
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            other => Err(Diagnostic::parse(span, format!("expected expression, found {other}"))
                .with_code(codes::PARSE_EXPECTED_EXPR)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_source_parsed_after_a_prefix_matches_the_concatenation() {
        // Comments make the prefix's raw, comment-blanked and preprocessed
        // lengths differ; the sources put a diagnostic in each space.
        let prefix = "// p\nheader a_t { bit<8> f; } /* two\nlines */ struct s_t { a_t a; }\r\n// end";
        let parsed = Prefix::parse(prefix).expect("a clean prefix");
        for source in [
            "",
            "header b_t { bit<8> g; }",
            "#pragma x\nconst bit<8> C = ` 1;\n/* open",
            "#define W 8\nconst bit<W> C = \"open",
            "control c( {",
            &"`".repeat(150),
        ] {
            let whole = parse_all(&format!("{prefix}\n{source}"));
            assert_eq!(parsed.parse_after(source), whole, "{source:?}");
        }
        assert!(Prefix::parse("#define W 8").is_none());
        assert!(Prefix::parse("header a_t {").is_none());
        assert!(Prefix::parse("/* open").is_none());
    }

    #[test]
    fn recovers_multiple_errors() {
        let src = "header h_t { bit<8> }\nstruct s_t { h_t h; }\nconst bit<8> C = ;\n";
        let (prog, diags) = parse_all(src);
        let errors: Vec<_> = diags.iter().filter(|d| d.is_error()).collect();
        assert!(errors.len() >= 2, "expected 2+ errors, got {errors:?}");
        // The struct between the two bad declarations still parses.
        assert!(prog.decls().any(|d| matches!(d, Decl::Struct { name, .. } if name == "s_t")));
    }

    #[test]
    fn statement_recovery_keeps_later_statements() {
        let src = "control c(inout bit<8> x) { apply { x = ; x = 1; } }";
        let (prog, diags) = parse_all(src);
        assert!(diags.iter().any(|d| d.is_error()));
        let Some(Decl::Control(c)) = prog.decls().next() else {
            panic!("control did not survive recovery: {prog:?}")
        };
        assert_eq!(c.apply.len(), 1, "statement after the error should survive");
    }

    #[test]
    fn depth_guard_reports_instead_of_overflowing() {
        let mut src = String::from("const bit<8> C = ");
        for _ in 0..10_000 {
            src.push('(');
        }
        src.push('1');
        for _ in 0..10_000 {
            src.push(')');
        }
        src.push(';');
        let err = parse(&src).unwrap_err();
        assert!(err.iter().any(|d| d.code == codes::PARSE_RECURSION_LIMIT), "{err:?}");
    }

    #[test]
    fn diagnostic_cap_bounds_output() {
        let src = "const bit<8> C = ;\n".repeat(500);
        let err = parse(&src).unwrap_err();
        assert!(err.len() <= crate::error::MAX_DIAGNOSTICS + 1, "got {}", err.len());
        assert!(err.iter().any(|d| d.code == codes::DIAG_CAP));
    }

    #[test]
    fn eof_in_declaration_is_reported() {
        let err = parse("header h_t { bit<8> f;").unwrap_err();
        assert!(err.iter().any(|d| d.code == codes::PARSE_UNEXPECTED_EOF), "{err:?}");
    }
}
