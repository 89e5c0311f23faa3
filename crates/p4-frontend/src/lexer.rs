//! Lexer (with a small preprocessor) for the P4-16 subset.
//!
//! The preprocessor handles `//` and `/* */` comments and `#`-directives:
//! `#include` lines are dropped (architecture preludes are provided as
//! built-in source by the target extensions), `#define NAME VALUE` performs
//! simple token-free textual substitution of object-like macros, and any
//! other directive is ignored.
//!
//! Both passes are **total**: malformed input produces spanned diagnostics
//! and the lexer recovers (skipping the offending byte, or closing an
//! unterminated literal at end of input) so that a best-effort token stream
//! is always available for parser recovery. The token stream always ends in
//! `Tok::Eof`.

use crate::error::{codes, DiagSink, Diagnostic};
use crate::token::{IntLit, Keyword, Pos, Span, Tok, Token};
use std::collections::HashMap;

/// Lex a complete source string into tokens (ending in `Tok::Eof`).
///
/// Returns `Err` when any lexical error was found; the error vector contains
/// every diagnostic from the preprocessor and tokenizer.
pub fn lex(source: &str) -> Result<Vec<Token>, Vec<Diagnostic>> {
    let (tokens, diags) = lex_all(source);
    if diags.iter().any(Diagnostic::is_error) {
        Err(diags)
    } else {
        Ok(tokens)
    }
}

/// Total variant of [`lex`]: always returns the best-effort token stream
/// alongside any diagnostics, so the parser can keep going after lexical
/// errors.
pub fn lex_all(source: &str) -> (Vec<Token>, Vec<Diagnostic>) {
    let lexed = lex_at(source, Origin::default());
    (lexed.tokens, lexed.diags)
}

/// Where a source starts inside a longer file whose earlier text was lexed
/// apart: the lines ahead of it, and its starting byte offset in each of
/// the three offset spaces the lexer reports positions in. An unterminated
/// block comment is reported at its raw offset, a `#pragma` warning at its
/// offset once block comments are blanked, and tokens and the tokenizer's
/// diagnostics at their offset in the preprocessed text. Lexing a source at
/// the origin where a prefix ended gives the positions lexing the
/// concatenation would.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Origin {
    lines: u32,
    raw: usize,
    unblocked: usize,
    preprocessed: usize,
}

/// A source lexed at an [`Origin`].
pub(crate) struct Lexed {
    pub tokens: Vec<Token>,
    pub diags: Vec<Diagnostic>,
    /// Where text after this source would start. Meaningful only when the
    /// source ends in a newline.
    pub end: Origin,
    /// Whether any line was a `#` directive.
    pub directives: bool,
}

/// Lex `source` as the text that starts at `at` of a longer file.
pub(crate) fn lex_at(source: &str, at: Origin) -> Lexed {
    let mut diags = DiagSink::new();
    let pre = preprocess(source, at, &mut diags);
    let tokens = Lexer::new(&pre.text, at).run(&mut diags);
    Lexed { tokens, diags: diags.into_vec(), end: pre.end, directives: pre.directives }
}

struct Preprocessed {
    text: String,
    end: Origin,
    directives: bool,
}

/// Strip comments and handle `#` directives in one pass, preserving line
/// structure so diagnostic line numbers stay meaningful. Problems (an
/// unterminated block comment) are reported through `diags`, at positions
/// counted from `at`.
///
/// Block comments are blanked first, over the whole text: each becomes one
/// space, keeping its newlines, and `//` or a string does not hide a `/*`.
/// Each line of that text (without a `\r` before its `\n`) then loses its
/// `//` comment, and a `#` line becomes empty. The source is copied once,
/// into the result; only a line a block comment touched is assembled apart.
fn preprocess(src: &str, at: Origin, diags: &mut DiagSink) -> Preprocessed {
    let bytes = src.as_bytes();
    let mut lines = LineSink {
        out: String::with_capacity(src.len() + 1),
        defines: HashMap::new(),
        line_start: at.unblocked,
        lines: at.lines,
        directives: false,
        pragmas: Vec::new(),
    };
    // The current line's text so far, once a block comment has touched it;
    // until then the line is read straight from `src`.
    let mut joined = String::new();
    let mut joining = false;
    // Start of the current line's text not yet in `joined`.
    let mut seg = 0;
    let mut unterminated = None;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\n' => {
                if joining {
                    joined.push_str(&src[seg..i]);
                    lines.line(strip_cr(&joined));
                    joined.clear();
                    joining = false;
                } else {
                    lines.line(strip_cr(&src[seg..i]));
                }
                i += 1;
                seg = i;
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                joined.push_str(&src[seg..i]);
                joining = true;
                let open = i;
                i += 2;
                loop {
                    match bytes.get(i) {
                        None => {
                            unterminated = Some(open);
                            break;
                        }
                        // A newline inside the comment ends the line.
                        Some(b'\n') => {
                            lines.line(strip_cr(&joined));
                            joined.clear();
                            i += 1;
                        }
                        Some(b'*') if bytes.get(i + 1) == Some(&b'/') => {
                            joined.push(' ');
                            i += 2;
                            break;
                        }
                        Some(_) => i += 1,
                    }
                }
                seg = i;
            }
            _ => i += 1,
        }
    }
    // A last line without a newline, unless it is empty.
    let last = if joining {
        joined.push_str(&src[seg..]);
        &joined[..]
    } else {
        &src[seg..]
    };
    if !last.is_empty() {
        lines.line(last);
    }
    if let Some(open) = unterminated {
        let line_begin = src[..open].rfind('\n').map_or(0, |n| n + 1);
        let pos = Pos {
            offset: at.raw + open,
            line: at.lines + 1 + src[..open].matches('\n').count() as u32,
            col: src[line_begin..open].chars().count() as u32 + 1,
        };
        diags.push(
            Diagnostic::lex(pos, "unterminated block comment")
                .with_code(codes::LEX_UNTERMINATED_COMMENT),
        );
    }
    for d in lines.pragmas {
        diags.push(d);
    }
    let end = Origin {
        lines: lines.lines,
        raw: at.raw + src.len(),
        unblocked: lines.line_start,
        preprocessed: at.preprocessed + lines.out.len(),
    };
    Preprocessed { text: lines.out, end, directives: lines.directives }
}

/// `line` without the `\r` of a `\r\n` line end.
fn strip_cr(line: &str) -> &str {
    line.strip_suffix('\r').unwrap_or(line)
}

/// The second half of [`preprocess`]: takes the comment-blanked text a line
/// at a time.
struct LineSink {
    out: String,
    defines: HashMap<String, String>,
    /// Offset of the next line in the comment-blanked text.
    line_start: usize,
    lines: u32,
    directives: bool,
    /// `#pragma` warnings, reported after any block-comment problem.
    pragmas: Vec<Diagnostic>,
}

impl LineSink {
    /// Take one comment-blanked line, without its line end.
    fn line(&mut self, raw_line: &str) {
        self.lines += 1;
        let raw_len = raw_line.len();
        let line = match raw_line.find("//") {
            Some(i) => &raw_line[..i],
            None => raw_line,
        };
        let trimmed = line.trim_start();
        if let Some(rest) = trimmed.strip_prefix('#') {
            self.directives = true;
            let rest = rest.trim_start();
            if let Some(def) = rest.strip_prefix("define") {
                let mut it = def.trim().splitn(2, char::is_whitespace);
                if let Some(name) = it.next() {
                    // Function-like macros are out of scope; skip them.
                    if !name.contains('(') {
                        let val = it.next().unwrap_or("").trim().to_string();
                        self.defines.insert(name.to_string(), val);
                    }
                }
            } else if rest.starts_with("pragma") {
                // Recognized but deliberately not interpreted; worth telling
                // the user since pragmas often change target semantics.
                let indent = line.len() - trimmed.len();
                let pos =
                    Pos { offset: self.line_start + indent, line: self.lines, col: indent as u32 + 1 };
                self.pragmas.push(
                    Diagnostic::lex(pos, "#pragma directive is ignored")
                        .with_code(codes::WARN_IGNORED_DIRECTIVE)
                        .warning(),
                );
            }
            // #include, #if(n)def, #endif, #pragma: dropped.
        } else if self.defines.is_empty() {
            self.out.push_str(line);
        } else {
            substitute(line, &self.defines, &mut self.out);
        }
        self.out.push('\n');
        self.line_start += raw_len + 1;
    }
}

/// Whole-identifier textual substitution of object-like macros, appended
/// to `out`.
fn substitute(line: &str, defines: &HashMap<String, String>, out: &mut String) {
    let bytes = line.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len() && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            let word = &line[start..i];
            match defines.get(word) {
                Some(v) => out.push_str(v),
                None => out.push_str(word),
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
}

/// Whether `c` may continue an identifier.
fn is_word_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

struct Lexer<'a> {
    src: &'a str,
    /// Offset of `src` in the preprocessed file it belongs to.
    base: usize,
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str, at: Origin) -> Self {
        Lexer { src, base: at.preprocessed, pos: 0, line: at.lines + 1, col: 1 }
    }

    fn here(&self) -> Pos {
        Pos { offset: self.base + self.pos, line: self.line, col: self.col }
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Step over blanks and line ends.
    fn skip_blanks(&mut self) {
        let bytes = self.src.as_bytes();
        while let Some(&c) = bytes.get(self.pos) {
            match c {
                b' ' | b'\t' | b'\r' => self.col += 1,
                b'\n' => {
                    self.line += 1;
                    self.col = 1;
                }
                _ => return,
            }
            self.pos += 1;
        }
    }

    /// Tokenize the whole input. Never fails: bytes that cannot start a token
    /// produce a diagnostic and are skipped, and unterminated literals are
    /// closed at end of input with a diagnostic. The returned stream always
    /// ends with `Tok::Eof`.
    fn run(mut self, diags: &mut DiagSink) -> Vec<Token> {
        // About a token per four bytes of text; a denser text grows it once.
        let mut out = Vec::with_capacity(self.src.len() / 4 + 1);
        loop {
            self.skip_blanks();
            let start = self.here();
            let Some(c) = self.peek() else {
                out.push(Token { tok: Tok::Eof, span: Span { start, end: start } });
                return out;
            };
            let tok = if c.is_ascii_digit() {
                self.lex_number(start, diags)
            } else if c.is_ascii_alphabetic() || c == b'_' {
                let word = self.lex_word();
                match Keyword::from_str(word) {
                    Some(k) => Tok::Kw(k),
                    None => Tok::Ident(word.to_string()),
                }
            } else if c == b'"' {
                self.bump();
                self.lex_string(start, diags)
            } else if c == b'@' {
                self.bump();
                if !matches!(self.peek(), Some(c) if c.is_ascii_alphabetic() || c == b'_') {
                    diags.push(
                        Diagnostic::lex(start, "expected identifier after '@'")
                            .with_code(codes::LEX_BAD_ANNOTATION),
                    );
                    continue;
                }
                Tok::At(self.lex_word().to_string())
            } else {
                match self.lex_symbol() {
                    Some(t) => t,
                    None => {
                        // Unlexable byte: report once and skip it.
                        diags.push(
                            Diagnostic::lex(
                                start,
                                format!("unexpected character '{}'", c as char),
                            )
                            .with_code(codes::LEX_UNEXPECTED_CHAR),
                        );
                        continue;
                    }
                }
            };
            let end = self.here();
            out.push(Token { tok, span: Span { start, end } });
        }
    }

    /// The identifier or keyword at the cursor, stepped over. Words are
    /// ASCII and hold no line end, so the column moves by their length.
    fn lex_word(&mut self) -> &'a str {
        let start = self.pos;
        let len = self.src.as_bytes()[start..].iter().take_while(|&&c| is_word_byte(c)).count();
        self.pos += len;
        self.col += len as u32;
        &self.src[start..self.pos]
    }

    /// Lex a string body, the opening `"` having been consumed. An
    /// unterminated string (or escape) at end of input is closed with a
    /// diagnostic rather than discarded, so the parser still sees the token.
    fn lex_string(&mut self, start: Pos, diags: &mut DiagSink) -> Tok {
        let mut s = String::new();
        loop {
            match self.bump() {
                None => {
                    diags.push(
                        Diagnostic::lex(start, "unterminated string literal")
                            .with_code(codes::LEX_UNTERMINATED_STRING),
                    );
                    break;
                }
                Some(b'"') => break,
                // Strings do not span lines; a bare newline means the
                // closing quote is missing.
                Some(b'\n') => {
                    diags.push(
                        Diagnostic::lex(start, "unterminated string literal")
                            .with_code(codes::LEX_UNTERMINATED_STRING),
                    );
                    break;
                }
                Some(b'\\') => match self.bump() {
                    Some(b'n') => s.push('\n'),
                    Some(b't') => s.push('\t'),
                    Some(other) => s.push(other as char),
                    None => {
                        diags.push(
                            Diagnostic::lex(start, "unterminated string escape")
                                .with_code(codes::LEX_UNTERMINATED_ESCAPE),
                        );
                        break;
                    }
                },
                Some(other) => s.push(other as char),
            }
        }
        Tok::Str(s)
    }

    fn lex_number(&mut self, start: Pos, diags: &mut DiagSink) -> Tok {
        // First scan digits; if followed by 'w' or 's', it was a width prefix.
        let first = self.lex_digits(10, start, diags);
        match self.peek() {
            Some(b'w') | Some(b's') => {
                let signed = self.peek() == Some(b's');
                self.bump();
                let width: u32 = match first.try_into() {
                    Ok(w) => w,
                    Err(_) => {
                        diags.push(
                            Diagnostic::lex(start, "literal width does not fit in u32")
                                .with_code(codes::LEX_WIDTH_TOO_LARGE),
                        );
                        32
                    }
                };
                let width = if width == 0 {
                    diags.push(
                        Diagnostic::lex(start, "zero-width literal")
                            .with_code(codes::LEX_ZERO_WIDTH),
                    );
                    1
                } else {
                    width
                };
                let value = self.lex_based_value(start, diags);
                Tok::Int(IntLit { value, width: Some(width), signed })
            }
            Some(b'x' | b'X' | b'b' | b'B' | b'o' | b'O' | b'd' | b'D') if first == 0 => {
                // 0x..., 0b..., 0o... with no width prefix.
                let value = self.lex_base_suffix(start, diags);
                Tok::Int(IntLit { value, width: None, signed: false })
            }
            _ => Tok::Int(IntLit { value: first, width: None, signed: false }),
        }
    }

    /// After a width prefix (`8w`), parse `255`, `0xFF`, `0b1010`, etc.
    fn lex_based_value(&mut self, start: Pos, diags: &mut DiagSink) -> u128 {
        if self.peek() == Some(b'0')
            && matches!(self.peek2(), Some(b'x' | b'X' | b'b' | b'B' | b'o' | b'O' | b'd' | b'D'))
        {
            self.bump();
            self.lex_base_suffix(start, diags)
        } else {
            self.lex_digits(10, start, diags)
        }
    }

    /// Parse the `x1F` part, the leading `0` having been consumed.
    fn lex_base_suffix(&mut self, start: Pos, diags: &mut DiagSink) -> u128 {
        let base = match self.bump() {
            Some(b'x' | b'X') => 16,
            Some(b'b' | b'B') => 2,
            Some(b'o' | b'O') => 8,
            Some(b'd' | b'D') => 10,
            _ => {
                diags.push(
                    Diagnostic::lex(start, "bad numeric base").with_code(codes::LEX_BAD_BASE),
                );
                return 0;
            }
        };
        self.lex_digits(base, start, diags)
    }

    /// Scan digits in `base`, reporting overflow and empty digit runs.
    /// Returns 0 on error so lexing can continue with a placeholder value.
    fn lex_digits(&mut self, base: u32, start: Pos, diags: &mut DiagSink) -> u128 {
        let mut any = false;
        let mut value: u128 = 0;
        let mut overflowed = false;
        loop {
            match self.peek() {
                Some(b'_') => {
                    self.bump();
                }
                Some(c) if (c as char).is_digit(base) => {
                    any = true;
                    let digit = (c as char).to_digit(base).unwrap_or(0) as u128;
                    match value.checked_mul(base as u128).and_then(|v| v.checked_add(digit)) {
                        Some(v) => value = v,
                        None => overflowed = true,
                    }
                    self.bump();
                }
                _ => break,
            }
        }
        if overflowed {
            diags.push(
                Diagnostic::lex(start, "integer literal exceeds 128 bits")
                    .with_code(codes::LEX_INT_OVERFLOW),
            );
            return 0;
        }
        if !any {
            diags.push(Diagnostic::lex(start, "expected digits").with_code(codes::LEX_EXPECTED_DIGITS));
        }
        value
    }

    /// Lex a punctuation token. Returns `None` (without consuming anything
    /// beyond the first byte) for bytes that cannot start a token.
    fn lex_symbol(&mut self) -> Option<Tok> {
        let c = self.bump()?;
        let t = match c {
            b'(' => Tok::LParen,
            b')' => Tok::RParen,
            b'{' => Tok::LBrace,
            b'}' => Tok::RBrace,
            b'[' => Tok::LBracket,
            b']' => Tok::RBracket,
            b';' => Tok::Semi,
            b':' => Tok::Colon,
            b',' => Tok::Comma,
            b'?' => Tok::Question,
            b'.' => {
                if self.peek() == Some(b'.') {
                    self.bump();
                    Tok::DotDot
                } else {
                    Tok::Dot
                }
            }
            b'=' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::Eq
                } else {
                    Tok::Assign
                }
            }
            b'!' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::Neq
                } else {
                    Tok::Not
                }
            }
            b'<' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::Le
                } else if self.peek() == Some(b'<') {
                    self.bump();
                    Tok::Shl
                } else {
                    Tok::Lt
                }
            }
            b'>' => {
                if self.peek() == Some(b'=') {
                    self.bump();
                    Tok::Ge
                } else {
                    // `>>` stays as two `Gt`s for generic-argument nesting.
                    Tok::Gt
                }
            }
            b'~' => Tok::Tilde,
            b'+' => {
                if self.peek() == Some(b'+') {
                    self.bump();
                    Tok::PlusPlus
                } else {
                    Tok::Plus
                }
            }
            b'-' => Tok::Minus,
            b'*' => Tok::Star,
            b'/' => Tok::Slash,
            b'%' => Tok::Percent,
            b'^' => Tok::Caret,
            b'&' => {
                if self.peek() == Some(b'&') {
                    self.bump();
                    if self.peek() == Some(b'&') {
                        self.bump();
                        Tok::AmpAmpAmp
                    } else {
                        Tok::AmpAmp
                    }
                } else {
                    Tok::Amp
                }
            }
            b'|' => {
                if self.peek() == Some(b'|') {
                    self.bump();
                    Tok::PipePipe
                } else {
                    Tok::Pipe
                }
            }
            _ => return None,
        };
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<Tok> {
        lex(src).unwrap().into_iter().map(|t| t.tok).collect()
    }

    #[test]
    fn keywords_and_idents() {
        let t = toks("parser foo");
        assert_eq!(t[0], Tok::Kw(Keyword::Parser));
        assert_eq!(t[1], Tok::Ident("foo".into()));
        assert_eq!(t[2], Tok::Eof);
    }

    #[test]
    fn width_literals() {
        let t = toks("8w255 16w0xBEEF 4w0b1010 2s1 42 0x1F");
        assert_eq!(t[0], Tok::Int(IntLit { value: 255, width: Some(8), signed: false }));
        assert_eq!(t[1], Tok::Int(IntLit { value: 0xBEEF, width: Some(16), signed: false }));
        assert_eq!(t[2], Tok::Int(IntLit { value: 0b1010, width: Some(4), signed: false }));
        assert_eq!(t[3], Tok::Int(IntLit { value: 1, width: Some(2), signed: true }));
        assert_eq!(t[4], Tok::Int(IntLit { value: 42, width: None, signed: false }));
        assert_eq!(t[5], Tok::Int(IntLit { value: 0x1F, width: None, signed: false }));
    }

    #[test]
    fn operators() {
        let t = toks("== != <= >= << && || &&& ++ .. & | ^");
        assert_eq!(
            t[..13],
            [
                Tok::Eq,
                Tok::Neq,
                Tok::Le,
                Tok::Ge,
                Tok::Shl,
                Tok::AmpAmp,
                Tok::PipePipe,
                Tok::AmpAmpAmp,
                Tok::PlusPlus,
                Tok::DotDot,
                Tok::Amp,
                Tok::Pipe,
                Tok::Caret
            ]
        );
    }

    #[test]
    fn right_shift_is_two_gt() {
        let t = toks("a >> b");
        assert_eq!(t[1], Tok::Gt);
        assert_eq!(t[2], Tok::Gt);
    }

    #[test]
    fn comments_stripped() {
        let t = toks("a // line comment\n /* block \n comment */ b");
        assert_eq!(t[0], Tok::Ident("a".into()));
        assert_eq!(t[1], Tok::Ident("b".into()));
    }

    #[test]
    fn includes_dropped_and_defines_substituted() {
        let src = "#include <v1model.p4>\n#define WIDTH 16\nbit<WIDTH> x;";
        let t = toks(src);
        assert!(t.contains(&Tok::Int(IntLit { value: 16, width: None, signed: false })));
        assert!(!t.iter().any(|t| matches!(t, Tok::Ident(s) if s == "WIDTH")));
    }

    #[test]
    fn annotations() {
        let t = toks("@name(\"foo.bar\") @priority(1)");
        assert_eq!(t[0], Tok::At("name".into()));
        assert_eq!(t[1], Tok::LParen);
        assert_eq!(t[2], Tok::Str("foo.bar".into()));
    }

    #[test]
    fn line_numbers_survive_preprocessing() {
        let tokens = lex("#include <x>\n\nfoo").unwrap();
        assert_eq!(tokens[0].span.start.line, 3);
    }

    #[test]
    fn underscores_in_literals() {
        let t = toks("48w0xAA_BB_CC_DD_EE_FF");
        assert_eq!(
            t[0],
            Tok::Int(IntLit { value: 0xAABBCCDDEEFF, width: Some(48), signed: false })
        );
    }

    #[test]
    fn lex_error_on_garbage() {
        assert!(lex("`").is_err());
        assert!(lex("\"unterminated").is_err());
    }

    #[test]
    fn unterminated_string_has_code_and_recovers() {
        let (tokens, diags) = lex_all("a \"oops");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::LEX_UNTERMINATED_STRING);
        assert_eq!(diags[0].span.start.line, 1);
        assert_eq!(diags[0].span.start.col, 3);
        // The partial string still becomes a token and the stream ends in Eof.
        assert_eq!(tokens[1].tok, Tok::Str("oops".into()));
        assert_eq!(tokens.last().map(|t| t.tok.clone()), Some(Tok::Eof));
    }

    #[test]
    fn unterminated_block_comment_has_span() {
        let (tokens, diags) = lex_all("x /* never closed\nmore");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, codes::LEX_UNTERMINATED_COMMENT);
        assert_eq!(diags[0].span.start.line, 1);
        assert_eq!(diags[0].span.start.col, 3);
        assert_eq!(tokens[0].tok, Tok::Ident("x".into()));
    }

    #[test]
    fn bad_bytes_are_skipped_not_fatal() {
        let (tokens, diags) = lex_all("a ` $ b");
        assert_eq!(diags.len(), 2);
        assert!(diags.iter().all(|d| d.code == codes::LEX_UNEXPECTED_CHAR));
        let kinds: Vec<_> = tokens.iter().map(|t| t.tok.clone()).collect();
        assert_eq!(
            kinds,
            vec![Tok::Ident("a".into()), Tok::Ident("b".into()), Tok::Eof]
        );
    }

    #[test]
    fn overflow_and_zero_width_recover() {
        let (_, diags) = lex_all("340282366920938463463374607431768211456 0w1");
        let codes_seen: Vec<_> = diags.iter().map(|d| d.code).collect();
        assert!(codes_seen.contains(&codes::LEX_INT_OVERFLOW));
        assert!(codes_seen.contains(&codes::LEX_ZERO_WIDTH));
    }
}
