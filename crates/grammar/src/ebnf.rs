//! Parser for the GBNF-style EBNF text format.
//!
//! The syntax is the same family as llama.cpp's GBNF and xgrammar's EBNF:
//!
//! ```text
//! # comments start with '#'
//! root   ::= object
//! object ::= "{" ws member ("," ws member)* ws "}" | "{" ws "}"
//! member ::= string ws ":" ws value
//! string ::= "\"" [^"\\]* "\""
//! ws     ::= [ \t\n\r]*
//! digit  ::= [0-9]
//! count  ::= digit{1,3}
//! ```
//!
//! Rule definitions `name ::= ...` (a rule starts where an identifier is
//! followed by `::=`, so the format is newline-insensitive), double-quoted
//! literals, rule references and `#` line comments are this dialect's own;
//! alternation, grouping, the postfixes `* + ? {m} {m,} {m,n}`, character
//! classes and the `\xHH` / `\uHHHH` escapes are read by the shared
//! [`crate::syntax`] reader. Literals and classes also take the escapes
//! `\n \r \t \0 \" \\ \] \[ \^ \- \/`.

use crate::ast::{Grammar, GrammarBuilder, GrammarExpr, RuleId};
use crate::error::{GrammarError, Result};
use crate::syntax::{Dialect, Pos, Reader};

/// Parses a GBNF-style grammar text, using `root_rule` as the root.
///
/// # Errors
///
/// Returns a [`GrammarError::Parse`] with line/column information for syntax
/// errors, [`GrammarError::UndefinedRule`] for dangling references, and the
/// validation errors of [`Grammar::validate`].
///
/// # Examples
///
/// ```
/// let grammar = xg_grammar::parse_ebnf(r#"
///     root ::= greeting " " name
///     greeting ::= "hello" | "hi"
///     name ::= [a-zA-Z]+
/// "#, "root").unwrap();
/// assert_eq!(grammar.rules().len(), 3);
/// ```
pub fn parse_ebnf(text: &str, root_rule: &str) -> Result<Grammar> {
    let grammar = read_rules(text)?.build(root_rule)?;
    grammar.validate()?;
    Ok(grammar)
}

/// Reads the rules of an EBNF text into a builder, each rule id assigned at
/// its first mention (a reference, or the end of its definition).
///
/// # Errors
///
/// As [`parse_ebnf`], short of building and validating the grammar.
pub(crate) fn read_rules(text: &str) -> Result<GrammarBuilder> {
    let mut r = Reader::new(text, Ebnf::default());
    loop {
        Ebnf::skip_trivia(&mut r);
        if r.peek().is_none() {
            break;
        }
        let name = ident(&mut r).ok_or_else(|| r.error("expected rule name"))?;
        Ebnf::skip_trivia(&mut r);
        if !r.eat("::=") {
            return Err(r.error("expected `::=` after rule name"));
        }
        r.dialect.current_rule = name.to_string();
        let body = GrammarExpr::choice(r.alternation()?);
        let ebnf = &mut r.dialect;
        let id = ebnf.builder.add_rule(&ebnf.current_rule, body);
        ebnf.slot(id).0 = true;
    }
    let Ebnf { builder, rules, .. } = r.dialect;
    // Every referenced rule must have been defined (not just declared).
    for (i, (defined, referenced_from)) in rules.into_iter().enumerate() {
        if let (false, Some(referenced_from)) = (defined, referenced_from) {
            let name = builder
                .rule_name(RuleId(i as u32))
                .unwrap_or("?")
                .to_string();
            return Err(GrammarError::UndefinedRule {
                name,
                referenced_from,
            });
        }
    }
    Ok(builder)
}

#[derive(Debug, Default)]
struct Ebnf {
    builder: GrammarBuilder,
    /// Per rule id: whether a definition (`name ::= ...`) was seen, and the
    /// first rule that referenced it (for error reporting).
    rules: Vec<(bool, Option<String>)>,
    current_rule: String,
}

impl Ebnf {
    fn slot(&mut self, id: RuleId) -> &mut (bool, Option<String>) {
        if self.rules.len() <= id.index() {
            self.rules.resize(id.index() + 1, (false, None));
        }
        &mut self.rules[id.index()]
    }
}

impl Dialect for Ebnf {
    fn escape(c: char) -> Option<char> {
        Some(match c {
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            '0' => '\0',
            '"' | '\\' | ']' | '[' | '^' | '-' | '/' => c,
            _ => return None,
        })
    }

    fn error(&self, at: Pos, message: String) -> GrammarError {
        GrammarError::Parse {
            line: at.line,
            column: at.column,
            message,
        }
    }

    fn item(r: &mut Reader<'_, Self>) -> Result<GrammarExpr> {
        let mut expr = match r.peek() {
            Some('(') => GrammarExpr::choice(r.group()?),
            Some('[') => GrammarExpr::CharClass(r.class()?),
            Some('"') => literal(r)?,
            _ => {
                let name =
                    ident(r).ok_or_else(|| r.error("expected literal, class, rule name or `(`"))?;
                let ebnf = &mut r.dialect;
                let id = ebnf.builder.declare(name);
                let current_rule = ebnf.current_rule.clone();
                ebnf.slot(id).1.get_or_insert(current_rule);
                GrammarExpr::RuleRef(id)
            }
        };
        // Postfixes stack: `"a"?*` repeats an optional.
        loop {
            Self::skip_trivia(r);
            let Some((min, max)) = r.quantifier()? else {
                return Ok(expr);
            };
            expr = GrammarExpr::Repeat {
                expr: Box::new(expr),
                min,
                max,
            };
        }
    }

    fn skip_trivia(r: &mut Reader<'_, Self>) {
        loop {
            match r.peek() {
                Some(' ' | '\t' | '\r' | '\n') => {}
                Some('#') => {
                    while r.peek().is_some_and(|c| c != '\n') {
                        r.bump();
                    }
                    continue;
                }
                _ => return,
            }
            r.bump();
        }
    }

    /// A sequence ends where the next rule's `name ::=` begins.
    fn ends_sequence(r: &mut Reader<'_, Self>) -> bool {
        let mark = r.mark();
        let starts_rule = ident(r).is_some() && {
            Self::skip_trivia(r);
            r.eat("::=")
        };
        r.rewind(mark);
        starts_rule
    }
}

/// Reads a rule name: a letter or `_`, then letters, digits, `_` and `-`.
fn ident<'a>(r: &mut Reader<'a, Ebnf>) -> Option<&'a str> {
    if !r.peek().is_some_and(|c| c.is_alphabetic() || c == '_') {
        return None;
    }
    Some(r.take_while(|c| c.is_alphanumeric() || c == '_' || c == '-'))
}

/// Reads a double-quoted literal; `""` is the empty string.
fn literal(r: &mut Reader<'_, Ebnf>) -> Result<GrammarExpr> {
    r.bump();
    let mut text = String::new();
    loop {
        match r.bump() {
            Some('"') => break,
            Some('\\') => text.push(r.escape()?),
            Some(c) => text.push(c),
            None => return Err(r.error("unterminated string literal")),
        }
    }
    Ok(if text.is_empty() {
        GrammarExpr::Empty
    } else {
        GrammarExpr::Literal(text.into_bytes())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::GrammarExpr;

    #[test]
    fn parses_simple_grammar() {
        let g = parse_ebnf(
            r#"
            # a tiny grammar
            root ::= "hello" ws name
            ws ::= [ \t]*
            name ::= [a-zA-Z_] [a-zA-Z0-9_]*
            "#,
            "root",
        )
        .unwrap();
        assert_eq!(g.rules().len(), 3);
        assert_eq!(g.rule(g.root()).name, "root");
    }

    #[test]
    fn parses_alternation_and_grouping() {
        let g = parse_ebnf(r#"root ::= ("a" | "b")+ ("x" "y")?"#, "root").unwrap();
        match &g.rule(g.root()).body {
            GrammarExpr::Sequence(items) => assert_eq!(items.len(), 2),
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn parses_bounded_repetition() {
        let g = parse_ebnf(r#"root ::= [0-9]{2,4}"#, "root").unwrap();
        match &g.rule(g.root()).body {
            GrammarExpr::Repeat { min, max, .. } => {
                assert_eq!(*min, 2);
                assert_eq!(*max, Some(4));
            }
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn parses_exact_repetition_and_open_repetition() {
        let g = parse_ebnf(r#"root ::= [0-9]{3} [a-z]{1,}"#, "root").unwrap();
        match &g.rule(g.root()).body {
            GrammarExpr::Sequence(items) => {
                assert!(matches!(
                    items[0],
                    GrammarExpr::Repeat {
                        min: 3,
                        max: Some(3),
                        ..
                    }
                ));
                assert!(matches!(
                    items[1],
                    GrammarExpr::Repeat {
                        min: 1,
                        max: None,
                        ..
                    }
                ));
            }
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn escapes_in_literals_and_classes() {
        let g = parse_ebnf(r#"root ::= "\"\\\n" [^"\\]*"#, "root").unwrap();
        match &g.rule(g.root()).body {
            GrammarExpr::Sequence(items) => {
                assert_eq!(items[0], GrammarExpr::Literal(b"\"\\\n".to_vec()));
            }
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn undefined_rule_reference_is_reported() {
        let err = parse_ebnf(r#"root ::= missing"#, "root").unwrap_err();
        assert!(matches!(err, GrammarError::UndefinedRule { .. }), "{err}");
    }

    #[test]
    fn missing_root_is_reported() {
        let err = parse_ebnf(r#"a ::= "x""#, "root").unwrap_err();
        assert!(matches!(err, GrammarError::MissingRoot { .. }));
    }

    #[test]
    fn syntax_error_has_position() {
        let err = parse_ebnf("root ::= )", "root").unwrap_err();
        match err {
            GrammarError::Parse { line, .. } => assert_eq!(line, 1),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn errors_at_end_of_input_report_the_end_position() {
        for (text, column, message) in [
            ("root ::= (", 11, "expected `)`"),
            ("root", 5, "expected `::=` after rule name"),
        ] {
            let expected = GrammarError::Parse {
                line: 1,
                column,
                message: message.to_string(),
            };
            assert_eq!(parse_ebnf(text, "root").unwrap_err(), expected, "{text}");
        }
    }

    #[test]
    fn unterminated_literal_is_an_error() {
        assert!(parse_ebnf(r#"root ::= "abc"#, "root").is_err());
    }

    #[test]
    fn rules_can_reference_later_rules() {
        let g = parse_ebnf(
            r#"
            root ::= item ("," item)*
            item ::= [a-z]+
            "#,
            "root",
        )
        .unwrap();
        assert_eq!(g.rules().len(), 2);
    }

    #[test]
    fn unicode_escape_in_literal() {
        let g = parse_ebnf(r#"root ::= "é""#, "root").unwrap();
        match &g.rule(g.root()).body {
            GrammarExpr::Literal(bytes) => assert_eq!(bytes, "é".as_bytes()),
            other => panic!("unexpected body {other:?}"),
        }
    }

    #[test]
    fn left_recursive_grammar_rejected_at_parse() {
        let err = parse_ebnf(r#"expr ::= expr "+" expr | [0-9]+"#, "expr").unwrap_err();
        assert!(matches!(err, GrammarError::LeftRecursion { .. }));
    }

    #[test]
    fn dash_at_end_of_class_is_literal() {
        let g = parse_ebnf(r#"root ::= [a-z-]+"#, "root").unwrap();
        match &g.rule(g.root()).body {
            GrammarExpr::Repeat { expr, .. } => match expr.as_ref() {
                GrammarExpr::CharClass(cc) => {
                    assert!(cc.contains('-'));
                    assert!(cc.contains('m'));
                }
                other => panic!("unexpected {other:?}"),
            },
            other => panic!("unexpected body {other:?}"),
        }
    }
}
