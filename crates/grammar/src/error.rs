//! Error types for grammar construction, parsing and conversion.

use std::error::Error as StdError;
use std::fmt;

/// Errors produced while parsing an EBNF grammar text, building a grammar
/// programmatically, or converting a JSON Schema into a grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GrammarError {
    /// The EBNF text could not be parsed.
    ///
    /// Contains the 1-based line and column of the offending character and a
    /// human-readable message.
    Parse {
        /// 1-based line number.
        line: usize,
        /// 1-based column number.
        column: usize,
        /// Description of what went wrong.
        message: String,
    },
    /// A rule body references a rule name that is never defined.
    UndefinedRule {
        /// Name of the missing rule.
        name: String,
        /// Name of the rule whose body contains the dangling reference.
        referenced_from: String,
    },
    /// The same rule name is defined more than once.
    DuplicateRule {
        /// Name of the duplicated rule.
        name: String,
    },
    /// The grammar has no root rule (it is empty, or the requested root name
    /// does not exist).
    MissingRoot {
        /// The root rule name that was looked up.
        name: String,
    },
    /// The grammar contains (possibly indirect) left recursion, which the
    /// pushdown-automaton executor cannot run without diverging.
    LeftRecursion {
        /// A rule participating in the left-recursive cycle.
        rule: String,
        /// The cycle of rule names, starting and ending at `rule`.
        cycle: Vec<String>,
    },
    /// A character class is empty (matches no character), e.g. `[]` or an
    /// inverted class covering all of Unicode.
    EmptyCharClass {
        /// Name of the rule containing the class.
        rule: String,
    },
    /// A repetition has `min > max`, e.g. `{5,2}`.
    InvalidRepetition {
        /// Lower bound.
        min: u32,
        /// Upper bound.
        max: u32,
    },
    /// A choice with zero alternatives was constructed directly (it matches
    /// nothing; `GrammarExpr::choice` collapses this case to `Empty`).
    EmptyChoice {
        /// Name of the rule containing the empty choice.
        rule: String,
    },
    /// The grammar was refused: its root derives no string, or a
    /// structural-tag segment can never complete.
    ///
    /// Carries the [`Diagnostic`](crate::Diagnostic)s that caused the
    /// refusal.
    Lint {
        /// The refusing diagnostics.
        diagnostics: Vec<crate::Diagnostic>,
    },
    /// The JSON Schema document could not be converted.
    Schema {
        /// JSON-pointer-like path to the offending schema fragment.
        path: String,
        /// Description of the unsupported or malformed construct.
        message: String,
    },
    /// A structural-tag description is malformed (empty tag list, empty begin
    /// string, triggers that are prefixes of each other, or a tag whose begin
    /// string no trigger covers).
    StructuralTag {
        /// Description of the violated constraint.
        message: String,
    },
}

impl fmt::Display for GrammarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrammarError::Parse {
                line,
                column,
                message,
            } => write!(f, "parse error at {line}:{column}: {message}"),
            GrammarError::UndefinedRule {
                name,
                referenced_from,
            } => write!(
                f,
                "rule `{referenced_from}` references undefined rule `{name}`"
            ),
            GrammarError::DuplicateRule { name } => {
                write!(f, "rule `{name}` is defined more than once")
            }
            GrammarError::MissingRoot { name } => {
                write!(f, "grammar has no root rule named `{name}`")
            }
            GrammarError::LeftRecursion { rule, cycle } => write!(
                f,
                "rule `{rule}` is left-recursive (cycle: {})",
                cycle.join(" -> ")
            ),
            GrammarError::EmptyCharClass { rule } => {
                write!(
                    f,
                    "rule `{rule}` contains a character class that matches nothing"
                )
            }
            GrammarError::InvalidRepetition { min, max } => {
                write!(f, "repetition lower bound {min} exceeds upper bound {max}")
            }
            GrammarError::EmptyChoice { rule } => {
                write!(f, "rule `{rule}` contains a choice with zero alternatives")
            }
            GrammarError::Lint { diagnostics } => {
                let msgs: Vec<String> = diagnostics.iter().map(|d| d.to_string()).collect();
                write!(
                    f,
                    "grammar failed lint with {} error(s): {}",
                    diagnostics.len(),
                    msgs.join("; ")
                )
            }
            GrammarError::Schema { path, message } => {
                write!(f, "unsupported JSON Schema at `{path}`: {message}")
            }
            GrammarError::StructuralTag { message } => {
                write!(f, "invalid structural tag: {message}")
            }
        }
    }
}

impl StdError for GrammarError {}

/// Convenient result alias used across the grammar crate.
pub type Result<T> = std::result::Result<T, GrammarError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let err = GrammarError::UndefinedRule {
            name: "value".into(),
            referenced_from: "root".into(),
        };
        let s = err.to_string();
        assert!(s.contains("value"));
        assert!(s.contains("root"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<GrammarError>();
    }

    #[test]
    fn parse_error_reports_position() {
        let err = GrammarError::Parse {
            line: 3,
            column: 14,
            message: "unexpected token".into(),
        };
        assert!(err.to_string().contains("3:14"));
    }
}
