//! The one reader behind every grammar text: EBNF ([`crate::parse_ebnf`])
//! and the regex dialect of JSON Schema `pattern` and `format`
//! ([`crate::regex_pattern_to_expr`]).
//!
//! [`Reader`] is a character-level recursive-descent reader that tracks line
//! and column. It owns the syntax both dialects share: alternation `|`,
//! sequence, groups `( ... )`, the quantifiers `* + ? {m} {m,} {m,n}`,
//! bracketed classes (`[^...]`, ranges, a trailing `-` as a member), the
//! `\xHH` / `\uHHHH` escapes and the nesting bound. A [`Dialect`] supplies
//! the rest: its atoms, its escape table, its whitespace and comments, and
//! its error type.

use crate::ast::{CharClass, CharRange, GrammarExpr};
use crate::error::{GrammarError, Result};

/// Deepest group nesting either dialect accepts: far above any grammar or
/// pattern in the corpora (a handful of levels), and below the depth at which
/// recursive descent exhausts a 2 MB thread stack (between 1 000 and 10 000
/// levels). Past it the dialect's error is returned at the offending `(`.
const MAX_NESTING: usize = 256;

/// A 1-based line and column.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pos {
    pub(crate) line: usize,
    pub(crate) column: usize,
}

/// One member of a bracketed class: a character that may start or end a
/// range, or a set of ranges (the regex `\d \w \s`).
pub(crate) enum ClassItem {
    Char(char),
    Ranges(Vec<CharRange>),
}

/// What a grammar-text dialect adds to the shared [`Reader`].
pub(crate) trait Dialect: Sized {
    /// Whether a `]` right after `[` or `[^` is a member (regex) instead of
    /// closing an empty class (EBNF).
    const LEADING_BRACKET_IS_MEMBER: bool = false;

    /// The character `\c` stands for, besides the shared `\xHH` / `\uHHHH`.
    fn escape(c: char) -> Option<char>;

    /// The dialect's error for a syntax error at `at`.
    fn error(&self, at: Pos, message: String) -> GrammarError;

    /// Reads one sequence item: an atom and the quantifiers that follow it.
    fn item(r: &mut Reader<'_, Self>) -> Result<GrammarExpr>;

    /// Skips whitespace and comments between items (none by default).
    fn skip_trivia(_r: &mut Reader<'_, Self>) {}

    /// `true` where a sequence ends before a `|`, a `)` or the end of input.
    fn ends_sequence(_r: &mut Reader<'_, Self>) -> bool {
        false
    }

    /// Reads what may follow a group's `(` before its alternatives.
    fn group_modifier(_r: &mut Reader<'_, Self>) -> Result<()> {
        Ok(())
    }

    /// Reads an escape inside a bracketed class, its `\` already consumed.
    fn class_escape(r: &mut Reader<'_, Self>) -> Result<ClassItem> {
        r.escape().map(ClassItem::Char)
    }
}

/// A cursor over grammar text in dialect `D`, carrying the dialect's state.
#[derive(Debug)]
pub(crate) struct Reader<'a, D> {
    rest: &'a str,
    pos: Pos,
    depth: usize,
    pub(crate) dialect: D,
}

impl<'a, D: Dialect> Reader<'a, D> {
    pub(crate) fn new(text: &'a str, dialect: D) -> Self {
        Reader {
            rest: text,
            pos: Pos { line: 1, column: 1 },
            depth: 0,
            dialect,
        }
    }

    /// A point to [`rewind`](Reader::rewind) to after a lookahead.
    pub(crate) fn mark(&self) -> (&'a str, Pos) {
        (self.rest, self.pos)
    }

    pub(crate) fn rewind(&mut self, (rest, pos): (&'a str, Pos)) {
        self.rest = rest;
        self.pos = pos;
    }

    /// The dialect's error at the current position.
    pub(crate) fn error(&self, message: impl Into<String>) -> GrammarError {
        self.dialect.error(self.pos, message.into())
    }

    pub(crate) fn peek(&self) -> Option<char> {
        self.rest.chars().next()
    }

    pub(crate) fn peek_second(&self) -> Option<char> {
        self.rest.chars().nth(1)
    }

    pub(crate) fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.rest = &self.rest[c.len_utf8()..];
        if c == '\n' {
            self.pos.line += 1;
            self.pos.column = 1;
        } else {
            self.pos.column += 1;
        }
        Some(c)
    }

    /// Consumes `s` if the unread text starts with it.
    pub(crate) fn eat(&mut self, s: &str) -> bool {
        if !self.rest.starts_with(s) {
            return false;
        }
        for _ in s.chars() {
            self.bump();
        }
        true
    }

    /// Consumes and returns the longest prefix whose characters satisfy
    /// `pred`.
    pub(crate) fn take_while(&mut self, pred: impl Fn(char) -> bool) -> &'a str {
        let rest = self.rest;
        let taken = &rest[..rest.find(|c| !pred(c)).unwrap_or(rest.len())];
        for _ in taken.chars() {
            self.bump();
        }
        taken
    }

    /// Reads `alternative (| alternative)*`, each a sequence of items.
    pub(crate) fn alternation(&mut self) -> Result<Vec<GrammarExpr>> {
        let mut alts = vec![self.sequence()?];
        while self.eat("|") {
            alts.push(self.sequence()?);
        }
        Ok(alts)
    }

    fn sequence(&mut self) -> Result<GrammarExpr> {
        let mut items = Vec::new();
        loop {
            D::skip_trivia(self);
            if matches!(self.peek(), None | Some('|' | ')')) || D::ends_sequence(self) {
                return Ok(GrammarExpr::seq(items));
            }
            items.push(D::item(self)?);
        }
    }

    /// Reads `( alternation )`, the reader at the `(`.
    pub(crate) fn group(&mut self) -> Result<Vec<GrammarExpr>> {
        if self.depth == MAX_NESTING {
            return Err(self.error(format!("groups nest deeper than {MAX_NESTING} levels")));
        }
        self.bump();
        D::group_modifier(self)?;
        self.depth += 1;
        let alts = self.alternation()?;
        self.depth -= 1;
        if !self.eat(")") {
            return Err(self.error("expected `)`"));
        }
        Ok(alts)
    }

    /// Reads a quantifier `* + ? {m} {m,} {m,n}` as `(min, max)`, or `None`
    /// when the next character starts none.
    pub(crate) fn quantifier(&mut self) -> Result<Option<(u32, Option<u32>)>> {
        let bounds = match self.peek() {
            Some('*') => (0, None),
            Some('+') => (1, None),
            Some('?') => (0, Some(1)),
            Some('{') => {
                self.bump();
                let min = self.number()?;
                let max = if self.eat(",") {
                    if self.peek() == Some('}') {
                        None
                    } else {
                        Some(self.number()?)
                    }
                } else {
                    Some(min)
                };
                if self.peek() != Some('}') {
                    return Err(self.error("expected `}` to close the repetition"));
                }
                if let Some(max) = max.filter(|&max| max < min) {
                    return Err(GrammarError::InvalidRepetition { min, max });
                }
                (min, max)
            }
            _ => return Ok(None),
        };
        self.bump();
        Ok(Some(bounds))
    }

    fn number(&mut self) -> Result<u32> {
        let digits = self.take_while(|c| c.is_ascii_digit());
        let message = "expected a repetition count (a number below 2^32)";
        digits.parse().map_err(|_| self.error(message))
    }

    /// Reads a bracketed class, the reader at the `[`.
    pub(crate) fn class(&mut self) -> Result<CharClass> {
        self.bump();
        let negated = self.eat("^");
        let mut ranges = Vec::new();
        let mut first = true;
        loop {
            let item = match self.bump() {
                None => return Err(self.error("unterminated character class")),
                Some(']') if !(first && D::LEADING_BRACKET_IS_MEMBER) => break,
                Some('\\') => D::class_escape(self)?,
                Some(c) => ClassItem::Char(c),
            };
            first = false;
            let start = match item {
                ClassItem::Ranges(more) => {
                    ranges.extend(more);
                    continue;
                }
                ClassItem::Char(start) => start,
            };
            // `a-b` is a range; a `-` right before the `]` is a member.
            if self.peek() != Some('-') || self.peek_second() == Some(']') {
                ranges.push(CharRange::single(start));
                continue;
            }
            self.bump();
            let end = match self.bump() {
                None => return Err(self.error("unterminated character class")),
                Some('\\') => match D::class_escape(self)? {
                    ClassItem::Char(end) => end,
                    ClassItem::Ranges(_) => {
                        return Err(self.error("a class escape cannot end a range"))
                    }
                },
                Some(end) => end,
            };
            if end < start {
                return Err(self.error(format!("range `{start}-{end}` ends before it starts")));
            }
            ranges.push(CharRange::new(start, end));
        }
        Ok(CharClass { ranges, negated })
    }

    /// Reads an escape, its `\` already consumed: `\xHH`, `\uHHHH`, or one
    /// of the dialect's [`Dialect::escape`] characters.
    pub(crate) fn escape(&mut self) -> Result<char> {
        match self.bump() {
            Some('x') => self.hex(2),
            Some('u') => self.hex(4),
            Some(c) => D::escape(c).ok_or_else(|| self.error(format!("unknown escape `\\{c}`"))),
            None => Err(self.error("unterminated escape")),
        }
    }

    fn hex(&mut self, digits: usize) -> Result<char> {
        let mut value = 0;
        for _ in 0..digits {
            let digit = self.bump().and_then(|c| c.to_digit(16));
            value = value * 16 + digit.ok_or_else(|| self.error("expected a hex digit"))?;
        }
        char::from_u32(value).ok_or_else(|| self.error("escape is not a Unicode scalar value"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{json_schema_to_grammar, parse_ebnf};

    #[test]
    fn hostile_nesting_is_a_typed_error_not_a_stack_overflow() {
        fn nested(depth: usize, atom: &str) -> String {
            format!("{}{atom}{}", "(".repeat(depth), ")".repeat(depth))
        }
        // An explicit 2 MB stack, so the outcome does not depend on
        // `RUST_MIN_STACK`.
        let run = std::thread::Builder::new().stack_size(2 << 20).spawn(|| {
            let ebnf = |depth| parse_ebnf(&format!("root ::= {}", nested(depth, "\"a\"")), "root");
            let pattern = |depth| {
                let schema = serde_json::json!({"type": "string", "pattern": nested(depth, "a")});
                json_schema_to_grammar(&schema)
            };
            assert!(ebnf(MAX_NESTING).is_ok());
            assert!(pattern(MAX_NESTING).is_ok());
            // The error points at the first `(` past the bound.
            let err = ebnf(10_000).unwrap_err();
            let column = "root ::= ".len() + MAX_NESTING + 1;
            assert!(
                matches!(err, GrammarError::Parse { line: 1, column: c, .. } if c == column),
                "{err}"
            );
            let err = pattern(10_000).unwrap_err();
            assert!(matches!(err, GrammarError::Schema { .. }), "{err}");
        });
        run.expect("spawn the parsing thread")
            .join()
            .expect("parsing thread");
    }
}
