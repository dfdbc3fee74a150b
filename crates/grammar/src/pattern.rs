//! Regex `pattern` → [`GrammarExpr`] compilation for JSON Schema strings.
//!
//! JSON Schema's `pattern` keyword (and the built-in `format` grammars, which
//! are defined as regexes over the same dialect) describe the *content* of a
//! JSON string. This module compiles a practical regex subset into a grammar
//! expression that generates the content **as it appears inside the quoted
//! JSON serialization**:
//!
//! * characters that must be escaped in JSON (`"`, `\`) are emitted as their
//!   two-character escape sequences,
//! * control characters required by a *literal* are emitted as their JSON
//!   escapes (`\n`, `\t`, `\u00XX`),
//! * control characters inside *character classes* are dropped from the class
//!   (the grammar narrows rather than widens — constrained decoding must
//!   never emit invalid JSON).
//!
//! Supported syntax: literals, `.`, character classes (`[a-z0-9_]`,
//! `[^...]`, ranges, class escapes), escapes (`\d \D \w \W \s \S`, `\n \r \t
//! \f \v \0`, `\xHH`, `\uHHHH`, escaped metacharacters), groups `(...)` /
//! `(?:...)` / `(?<name>...)` / `(?P<name>...)`, alternation `|`, and the
//! quantifiers `* + ? {m} {m,} {m,n}` (lazy variants accepted — laziness does
//! not change the matched language). Patterns are **anchored**: a leading `^`
//! and trailing `$` are accepted and implied, matching llguidance's treatment
//! of JSON Schema patterns.
//!
//! Alternation, groups, quantifiers, classes and the `\x` / `\u` escapes are
//! read by the shared [`crate::syntax`] reader, the same one behind the EBNF
//! parser; this module supplies the regex atoms and the lowering into a JSON
//! string body.
//!
//! Unsupported constructs — backreferences, lookaround, word boundaries,
//! mid-pattern anchors — produce [`GrammarError::Schema`] so that a schema
//! never silently widens.

use crate::ast::{CharClass, CharRange, GrammarExpr};
use crate::error::{GrammarError, Result};
use crate::syntax::{ClassItem, Dialect, Pos, Reader};

/// Compiles an (anchored) regex pattern into a grammar expression over the
/// characters of a JSON string body (between the quotes).
///
/// `path` is the JSON-pointer-like location used in error messages.
///
/// # Errors
///
/// Returns [`GrammarError::Schema`] for syntax errors and unsupported
/// constructs (backreferences, lookaround, word boundaries).
///
/// # Examples
///
/// ```
/// let expr = xg_grammar::regex_pattern_to_expr("^[A-Z]{2}-[0-9]{4}$", "#").unwrap();
/// assert!(!matches!(expr, xg_grammar::GrammarExpr::Empty));
/// ```
pub fn regex_pattern_to_expr(pattern: &str, path: &str) -> Result<GrammarExpr> {
    let mut trimmed = pattern;
    if let Some(rest) = trimmed.strip_prefix('^') {
        trimmed = rest;
    }
    if trimmed.ends_with('$') && !ends_with_escaped_dollar(trimmed) {
        trimmed = &trimmed[..trimmed.len() - 1];
    }
    let mut r = Reader::new(trimmed, Regex { path });
    let expr = choice(r.alternation()?);
    if r.peek().is_some() {
        return Err(r.error("unmatched `)`"));
    }
    Ok(expr)
}

/// `true` if the trailing `$` is escaped (`\$`), i.e. a literal dollar sign.
fn ends_with_escaped_dollar(s: &str) -> bool {
    let mut backslashes = 0;
    for c in s[..s.len() - 1].chars().rev() {
        if c == '\\' {
            backslashes += 1;
        } else {
            break;
        }
    }
    backslashes % 2 == 1
}

/// A regex alternation: one alternative stands alone, several make a
/// [`GrammarExpr::Choice`] as written (no flattening).
fn choice(mut alts: Vec<GrammarExpr>) -> GrammarExpr {
    if alts.len() == 1 {
        return alts.pop().expect("len checked");
    }
    GrammarExpr::Choice(alts)
}

struct Regex<'a> {
    path: &'a str,
}

impl Dialect for Regex<'_> {
    const LEADING_BRACKET_IS_MEMBER: bool = true;

    fn escape(c: char) -> Option<char> {
        Some(match c {
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'f' => '\u{c}',
            'v' => '\u{b}',
            '0' => '\0',
            // Escaped metacharacters and punctuation stand for themselves.
            c if !c.is_alphanumeric() => c,
            _ => return None,
        })
    }

    fn error(&self, _at: Pos, message: String) -> GrammarError {
        GrammarError::Schema {
            path: self.path.to_string(),
            message: format!("pattern: {message}"),
        }
    }

    fn item(r: &mut Reader<'_, Self>) -> Result<GrammarExpr> {
        let path = r.dialect.path;
        let atom = match r.peek() {
            Some('(') => choice(r.group()?),
            Some('[') => class_to_json_expr(&r.class()?, path)?,
            Some('^' | '$') => {
                return Err(r.error("anchors are only supported at the pattern boundaries"))
            }
            Some('*' | '+' | '?' | '{') => return Err(r.error("quantifier with nothing to repeat")),
            Some('.') => {
                r.bump();
                // `.` matches any character except newline.
                class_to_json_expr(&CharClass::negated(vec![CharRange::single('\n')]), path)?
            }
            Some('\\') => {
                r.bump();
                let c = r.peek();
                if let Some(ranges) = c.and_then(perl_class_ranges) {
                    r.bump();
                    let class = CharClass {
                        ranges,
                        negated: c.is_some_and(|c| c.is_ascii_uppercase()),
                    };
                    class_to_json_expr(&class, path)?
                } else if matches!(c, Some('b' | 'B')) {
                    return Err(r.error("word-boundary assertions are not supported"));
                } else if matches!(c, Some('1'..='9')) {
                    return Err(r.error("backreferences are not supported"));
                } else {
                    json_char_literal(r.escape()?)
                }
            }
            _ => json_char_literal(r.bump().expect("a sequence item is not at the end")),
        };
        // One quantifier; a trailing `?` marks it lazy, which matches the
        // same language, so it is accepted and ignored.
        let Some((min, max)) = r.quantifier()? else {
            return Ok(atom);
        };
        r.eat("?");
        if (min, max) == (1, Some(1)) {
            return Ok(atom);
        }
        Ok(GrammarExpr::Repeat {
            expr: Box::new(atom),
            min,
            max,
        })
    }

    /// Skips `?:`, `?<name>` and `?P<name>`; lookaround is an error.
    fn group_modifier(r: &mut Reader<'_, Self>) -> Result<()> {
        if !r.eat("?") {
            return Ok(());
        }
        if r.eat(":") {
            return Ok(());
        }
        if r.eat("<=") || r.eat("<!") {
            return Err(r.error("lookbehind assertions are not supported"));
        }
        if matches!(r.peek(), Some('=' | '!')) {
            return Err(r.error("lookahead assertions are not supported"));
        }
        if !(r.eat("<") || r.eat("P<")) {
            return Err(r.error("unsupported group modifier"));
        }
        while let Some(c) = r.bump() {
            if c == '>' {
                return Ok(());
            }
        }
        Err(r.error("unterminated group name"))
    }

    fn class_escape(r: &mut Reader<'_, Self>) -> Result<ClassItem> {
        // Inside a class `\D \W \S` add the same ranges as `\d \w \s`.
        if let Some(ranges) = r.peek().and_then(perl_class_ranges) {
            r.bump();
            return Ok(ClassItem::Ranges(ranges));
        }
        r.escape().map(ClassItem::Char)
    }
}

/// Positive ranges for `\d \w \s` (the negated `\D \W \S` variants reuse them
/// with class-level negation).
fn perl_class_ranges(c: char) -> Option<Vec<CharRange>> {
    match c.to_ascii_lowercase() {
        'd' if c.is_ascii_alphabetic() => Some(vec![CharRange::new('0', '9')]),
        'w' if c.is_ascii_alphabetic() => Some(vec![
            CharRange::new('0', '9'),
            CharRange::new('A', 'Z'),
            CharRange::single('_'),
            CharRange::new('a', 'z'),
        ]),
        's' if c.is_ascii_alphabetic() => Some(vec![
            CharRange::single('\t'),
            CharRange::new('\n', '\r'), // \n \v \f \r
            CharRange::single(' '),
        ]),
        _ => None,
    }
}

/// Emits a single pattern character as the bytes it occupies inside a JSON
/// string (escaping `"`, `\` and control characters).
fn json_char_literal(c: char) -> GrammarExpr {
    GrammarExpr::Literal(json_escape_char(c).into_bytes())
}

fn json_escape_char(c: char) -> String {
    match c {
        '"' => "\\\"".to_string(),
        '\\' => "\\\\".to_string(),
        '\n' => "\\n".to_string(),
        '\r' => "\\r".to_string(),
        '\t' => "\\t".to_string(),
        '\u{8}' => "\\b".to_string(),
        '\u{c}' => "\\f".to_string(),
        c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32),
        c => c.to_string(),
    }
}

/// Lowers a character class into an expression valid inside a JSON string:
/// control characters are dropped, and `"` / `\` become alternatives matching
/// their two-character escape sequences.
fn class_to_json_expr(class: &CharClass, path: &str) -> Result<GrammarExpr> {
    // Characters a JSON string cannot contain unescaped: controls, `"`, `\`.
    const FORBIDDEN: &[(u32, u32)] = &[(0x00, 0x1F), (0x22, 0x22), (0x5C, 0x5C)];
    let mut has_quote = false;
    let mut has_backslash = false;
    let mut clean: Vec<CharRange> = Vec::new();
    for range in class.normalized_ranges() {
        has_quote |= range.contains('"');
        has_backslash |= range.contains('\\');
        let mut segments = vec![(range.start as u32, range.end as u32)];
        for &(flo, fhi) in FORBIDDEN {
            let mut next = Vec::new();
            for (lo, hi) in segments {
                if hi < flo || lo > fhi {
                    next.push((lo, hi));
                    continue;
                }
                if lo < flo {
                    next.push((lo, flo - 1));
                }
                if hi > fhi {
                    next.push((fhi + 1, hi));
                }
            }
            segments = next;
        }
        for (lo, hi) in segments {
            push_range(&mut clean, lo, hi);
        }
    }
    let mut alts = Vec::new();
    if !clean.is_empty() {
        alts.push(GrammarExpr::CharClass(CharClass::new(clean)));
    }
    if has_quote {
        alts.push(GrammarExpr::literal("\\\""));
    }
    if has_backslash {
        alts.push(GrammarExpr::literal("\\\\"));
    }
    if alts.is_empty() {
        return Err(GrammarError::Schema {
            path: path.to_string(),
            message: "pattern: character class matches no JSON string character".to_string(),
        });
    }
    Ok(GrammarExpr::choice(alts))
}

fn push_range(out: &mut Vec<CharRange>, lo: u32, hi: u32) {
    if let (Some(start), Some(end)) = (char::from_u32(lo), char::from_u32(hi)) {
        if start <= end {
            out.push(CharRange::new(start, end));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn compile(p: &str) -> GrammarExpr {
        regex_pattern_to_expr(p, "#").unwrap()
    }

    #[test]
    fn literal_pattern_is_a_literal_sequence() {
        let expr = compile("abc");
        match expr {
            GrammarExpr::Sequence(items) => assert_eq!(items.len(), 3),
            other => panic!("expected sequence, got {other:?}"),
        }
    }

    #[test]
    fn anchors_are_stripped() {
        assert_eq!(compile("^abc$"), compile("abc"));
    }

    #[test]
    fn quantifiers_build_repeats() {
        match compile("a{2,5}") {
            GrammarExpr::Repeat { min, max, .. } => {
                assert_eq!(min, 2);
                assert_eq!(max, Some(5));
            }
            other => panic!("expected repeat, got {other:?}"),
        }
        match compile("[0-9]+") {
            GrammarExpr::Repeat { min, max, .. } => {
                assert_eq!(min, 1);
                assert_eq!(max, None);
            }
            other => panic!("expected repeat, got {other:?}"),
        }
    }

    #[test]
    fn lazy_quantifiers_are_accepted() {
        assert_eq!(compile("a*?"), compile("a*"));
        assert_eq!(compile("a+?b"), compile("a+b"));
    }

    #[test]
    fn alternation_and_groups() {
        match compile("(ab|cd)e") {
            GrammarExpr::Sequence(items) => {
                assert!(matches!(items[0], GrammarExpr::Choice(_)));
            }
            other => panic!("expected sequence, got {other:?}"),
        }
        assert_eq!(compile("(?:ab)"), compile("ab"));
        assert_eq!(compile("(?<tag>ab)"), compile("ab"));
        assert_eq!(compile("(?P<tag>ab)"), compile("ab"));
    }

    #[test]
    fn classes_handle_ranges_and_negation() {
        match compile("[a-z0-9_]") {
            GrammarExpr::CharClass(cc) => {
                assert!(cc.contains('q'));
                assert!(cc.contains('_'));
                assert!(!cc.contains('A'));
            }
            other => panic!("expected class, got {other:?}"),
        }
        match compile("[^a-z]") {
            GrammarExpr::CharClass(cc) => {
                assert!(cc.contains('A'));
                assert!(!cc.contains('q'));
                // JSON-unsafe characters are excluded even though the regex
                // class would admit them.
                assert!(!cc.contains('\n'));
            }
            // `[^a-z]` admits `"` and `\`, so the class widens into a choice
            // with their escape sequences.
            GrammarExpr::Choice(_) => {}
            other => panic!("expected class or choice, got {other:?}"),
        }
    }

    #[test]
    fn quote_and_backslash_become_escape_sequences() {
        assert_eq!(
            compile("\""),
            GrammarExpr::Literal(b"\\\"".to_vec()),
            "a literal quote must serialize as its JSON escape"
        );
        match compile("[\"x]") {
            GrammarExpr::Choice(alts) => {
                assert!(alts.contains(&GrammarExpr::literal("\\\"")));
            }
            other => panic!("expected choice, got {other:?}"),
        }
    }

    #[test]
    fn perl_classes_expand() {
        match compile("\\d") {
            GrammarExpr::CharClass(cc) => assert!(cc.contains('7') && !cc.contains('a')),
            other => panic!("expected class, got {other:?}"),
        }
        match compile("\\w") {
            GrammarExpr::CharClass(cc) => assert!(cc.contains('_') && !cc.contains('-')),
            other => panic!("expected class, got {other:?}"),
        }
        // `\S` includes `"` and `\`, so its JSON-string form is a choice of
        // a narrowed class plus the two escape-sequence literals.
        match compile("\\S") {
            GrammarExpr::Choice(alts) => {
                let class = alts.iter().find_map(|a| match a {
                    GrammarExpr::CharClass(cc) => Some(cc),
                    _ => None,
                });
                let cc = class.expect("narrowed class present");
                assert!(cc.contains('x') && !cc.contains(' ') && !cc.contains('"'));
                assert!(alts.contains(&GrammarExpr::literal("\\\"")));
                assert!(alts.contains(&GrammarExpr::literal("\\\\")));
            }
            other => panic!("expected choice, got {other:?}"),
        }
    }

    #[test]
    fn unsupported_constructs_error() {
        for p in [
            "(?=x)y",
            "(?!x)y",
            "(?<=x)y",
            "(?<!x)y",
            "\\bword\\b",
            "(a)\\1",
            "a^b",
            "a$b",
            "a{3,1}",
            "[z-a]",
            "(unclosed",
            "[unclosed",
        ] {
            assert!(
                regex_pattern_to_expr(p, "#").is_err(),
                "pattern `{p}` should be rejected"
            );
        }
    }

    #[test]
    fn empty_pattern_matches_the_empty_string() {
        assert_eq!(compile(""), GrammarExpr::Empty);
    }
}
