//! Re-serialization of a [`Grammar`] back into EBNF text.
//!
//! Useful for debugging, golden tests and the `grammar_playground` example.

use std::fmt;

use crate::ast::{ByteClass, CharClass, Grammar, GrammarExpr};

impl fmt::Display for Grammar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for rule in self.rules() {
            write!(f, "{} ::= ", rule.name)?;
            write_expr(f, self, &rule.body, false)?;
            writeln!(f)?;
        }
        Ok(())
    }
}

fn write_expr(
    f: &mut fmt::Formatter<'_>,
    g: &Grammar,
    expr: &GrammarExpr,
    parenthesize: bool,
) -> fmt::Result {
    match expr {
        GrammarExpr::Empty => write!(f, "\"\""),
        GrammarExpr::Literal(bytes) => write_literal(f, bytes),
        GrammarExpr::CharClass(cc) => write_class(f, cc),
        GrammarExpr::ByteClass(bc) => write_byte_class(f, bc),
        GrammarExpr::RuleRef(id) => write!(f, "{}", g.rule(*id).name),
        GrammarExpr::Sequence(items) => {
            if parenthesize {
                write!(f, "(")?;
            }
            for (i, it) in items.iter().enumerate() {
                if i > 0 {
                    write!(f, " ")?;
                }
                write_expr(f, g, it, needs_parens(it))?;
            }
            if parenthesize {
                write!(f, ")")?;
            }
            Ok(())
        }
        GrammarExpr::Choice(items) => {
            if parenthesize {
                write!(f, "(")?;
            }
            for (i, it) in items.iter().enumerate() {
                if i > 0 {
                    write!(f, " | ")?;
                }
                write_expr(f, g, it, matches!(it, GrammarExpr::Choice(_)))?;
            }
            if parenthesize {
                write!(f, ")")?;
            }
            Ok(())
        }
        GrammarExpr::Repeat { expr, min, max } => {
            write_expr(f, g, expr, needs_parens_for_repeat(expr))?;
            match (min, max) {
                (0, None) => write!(f, "*"),
                (1, None) => write!(f, "+"),
                (0, Some(1)) => write!(f, "?"),
                (m, None) => write!(f, "{{{m},}}"),
                (m, Some(x)) if m == x => write!(f, "{{{m}}}"),
                (m, Some(x)) => write!(f, "{{{m},{x}}}"),
            }
        }
    }
}

fn needs_parens(expr: &GrammarExpr) -> bool {
    matches!(expr, GrammarExpr::Choice(_))
}

fn needs_parens_for_repeat(expr: &GrammarExpr) -> bool {
    matches!(expr, GrammarExpr::Choice(_) | GrammarExpr::Sequence(_))
}

fn write_literal(f: &mut fmt::Formatter<'_>, bytes: &[u8]) -> fmt::Result {
    write!(f, "\"")?;
    match std::str::from_utf8(bytes) {
        Ok(s) => {
            for c in s.chars() {
                write_escaped_char(f, c, false)?;
            }
        }
        Err(_) => {
            for b in bytes {
                write!(f, "\\x{b:02x}")?;
            }
        }
    }
    write!(f, "\"")
}

fn write_class(f: &mut fmt::Formatter<'_>, cc: &CharClass) -> fmt::Result {
    write!(f, "[")?;
    if cc.negated {
        write!(f, "^")?;
    }
    for r in &cc.ranges {
        if r.start == r.end {
            write_escaped_char(f, r.start, true)?;
        } else {
            write_escaped_char(f, r.start, true)?;
            write!(f, "-")?;
            write_escaped_char(f, r.end, true)?;
        }
    }
    write!(f, "]")
}

/// Byte classes render in an ABNF-style `%x` notation (`%x00-ff`,
/// `%x00-08.0b-ff`), which cannot collide with any character-class rendering,
/// so a byte-level tail never prints like its character-level sibling. (Cache
/// keys hash [`Grammar::structural_fingerprint`], which tells the two apart
/// whatever they print as.) The EBNF parser does not read this notation back;
/// byte classes are only constructed programmatically.
fn write_byte_class(f: &mut fmt::Formatter<'_>, bc: &ByteClass) -> fmt::Result {
    write!(f, "%x")?;
    for (i, (lo, hi)) in bc.normalized_ranges().iter().enumerate() {
        if i > 0 {
            write!(f, ".")?;
        }
        if lo == hi {
            write!(f, "{lo:02x}")?;
        } else {
            write!(f, "{lo:02x}-{hi:02x}")?;
        }
    }
    Ok(())
}

fn write_escaped_char(f: &mut fmt::Formatter<'_>, c: char, in_class: bool) -> fmt::Result {
    match c {
        '\n' => write!(f, "\\n"),
        '\r' => write!(f, "\\r"),
        '\t' => write!(f, "\\t"),
        '\\' => write!(f, "\\\\"),
        '"' if !in_class => write!(f, "\\\""),
        ']' if in_class => write!(f, "\\]"),
        '^' if in_class => write!(f, "\\^"),
        '-' if in_class => write!(f, "\\-"),
        c if (c as u32) < 0x20 => write!(f, "\\x{:02x}", c as u32),
        c => write!(f, "{c}"),
    }
}

#[cfg(test)]
mod tests {
    use crate::ebnf::parse_ebnf;

    #[test]
    fn roundtrip_through_display() {
        let src = r#"
        root ::= "hi" ws name | "bye"
        ws ::= [ \t\n]*
        name ::= [a-zA-Z_] [a-zA-Z0-9_]{0,15}
        "#;
        let g1 = parse_ebnf(src, "root").unwrap();
        let text = g1.to_string();
        let g2 = parse_ebnf(&text, "root").unwrap();
        assert_eq!(g1.rules().len(), g2.rules().len());
        // A second round trip must be a fixed point.
        assert_eq!(text, g2.to_string());
    }

    #[test]
    fn display_escapes_special_chars() {
        let g = parse_ebnf(r#"root ::= "\"\n" [^"\\]"#, "root").unwrap();
        let text = g.to_string();
        assert!(text.contains("\\\""), "{text}");
        assert!(text.contains("\\n"), "{text}");
        let reparsed = parse_ebnf(&text, "root").unwrap();
        assert_eq!(reparsed.rules().len(), 1);
    }
}
