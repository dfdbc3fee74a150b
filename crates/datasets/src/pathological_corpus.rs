//! Pathological grammar corpus for the static-analysis lint pass.
//!
//! Each [`PathologicalCase`] is a grammar that *builds* successfully but
//! carries exactly the defect its `expected_code` names — the `grammar_lint`
//! experiment asserts that [`xg_grammar::analyze`] flags every one of them
//! with that code (and conversely that the whole [`schema_corpus`] lints
//! clean of errors). [`builder_rejections`] covers the degenerate shapes the
//! [`GrammarBuilder`](xg_grammar::GrammarBuilder) refuses to construct at
//! all, so they can never reach the analyzer.
//!
//! Vocabulary-dependent defects (`dead-state`, `dead-trigger`) are not
//! corpus entries: they only exist relative to a concrete tokenizer, so the
//! experiment demonstrates them with purpose-built restricted vocabularies
//! instead.
//!
//! [`schema_corpus`]: crate::schema_corpus

use xg_grammar::{Grammar, GrammarBuilder, GrammarError, GrammarExpr};

/// One pathological grammar plus the diagnostic code the analyzer must
/// report for it (kebab-case, as rendered by
/// `xg_grammar::DiagnosticCode::as_str`).
#[derive(Debug, Clone)]
pub struct PathologicalCase {
    /// Short stable identifier for reporting.
    pub name: &'static str,
    /// The diagnostic code [`xg_grammar::analyze`] must emit.
    pub expected_code: &'static str,
    /// `true` if the expected diagnostic has error severity, `false` for
    /// warnings. Severity is not refusal: the checked compile refuses only an
    /// `unsatisfiable-grammar` case, and serves a `nullable-repetition` one.
    pub expected_error: bool,
    /// The defective grammar.
    pub grammar: Grammar,
}

/// Builds the pathological corpus: one case per grammar-level diagnostic
/// code the analyzer can emit on a buildable grammar.
///
/// # Examples
///
/// ```
/// let corpus = xg_datasets::pathological_corpus();
/// assert!(corpus.len() >= 5);
/// for case in &corpus {
///     let analysis = xg_grammar::analyze(&case.grammar);
///     assert!(
///         analysis.diagnostics.iter().any(|d| d.code.as_str() == case.expected_code),
///         "{} missing {}",
///         case.name,
///         case.expected_code,
///     );
/// }
/// ```
pub fn pathological_corpus() -> Vec<PathologicalCase> {
    vec![
        PathologicalCase {
            name: "orphan-rule",
            expected_code: "unreachable-rule",
            expected_error: false,
            grammar: xg_grammar::parse_ebnf(
                r#"
                root ::= "a"
                orphan ::= "b"
                "#,
                "root",
            )
            .expect("orphan-rule grammar builds"),
        },
        PathologicalCase {
            name: "dead-alternative",
            expected_code: "unproductive-rule",
            expected_error: false,
            // `loop` can never derive a finite string, but `root` still can
            // through its first alternative, so this is only a warning.
            grammar: xg_grammar::parse_ebnf(
                r#"
                root ::= "ok" | loop
                loop ::= "x" loop
                "#,
                "root",
            )
            .expect("dead-alternative grammar builds"),
        },
        PathologicalCase {
            name: "infinite-root",
            expected_code: "unsatisfiable-grammar",
            expected_error: true,
            // Every derivation of `root` recurses forever: the language is
            // empty and no decode lane could ever finish.
            grammar: xg_grammar::parse_ebnf(r#"root ::= "x" root"#, "root")
                .expect("infinite-root grammar builds"),
        },
        PathologicalCase {
            name: "mutual-recursion-no-base-case",
            expected_code: "unsatisfiable-grammar",
            expected_error: true,
            grammar: xg_grammar::parse_ebnf(
                r#"
                root ::= "(" a ")"
                a ::= "x" b
                b ::= "y" a
                "#,
                "root",
            )
            .expect("mutual-recursion grammar builds"),
        },
        PathologicalCase {
            name: "empty-char-class-arm",
            expected_code: "empty-class",
            expected_error: false,
            // A choice arm requiring a character from the empty class. The
            // builder accepts it (only `validate()` and the lint see it);
            // the arm itself can never match.
            grammar: empty_class_grammar(),
        },
        PathologicalCase {
            name: "unbounded-nullable-repetition",
            expected_code: "nullable-repetition",
            expected_error: true,
            // `("a"?)*` can loop on the empty string without consuming
            // input, so the pushdown automaton has an infinite-nullable
            // cycle.
            grammar: xg_grammar::parse_ebnf(r#"root ::= ("a"?)*"#, "root")
                .expect("nullable-repetition grammar builds"),
        },
    ]
}

/// A grammar whose root chooses between a literal and a character drawn
/// from an *empty* class — constructed through the builder because EBNF
/// syntax cannot write an empty class.
fn empty_class_grammar() -> Grammar {
    let mut builder = GrammarBuilder::new();
    let root = builder.declare("root");
    builder.set_body(
        root,
        GrammarExpr::choice(vec![
            GrammarExpr::literal("ok"),
            GrammarExpr::CharClass(xg_grammar::CharClass::new(vec![])),
        ]),
    );
    builder.build("root").expect("empty-class grammar builds")
}

/// One degenerate grammar shape the builder itself rejects, together with
/// the error it produced — these defects can never reach the analyzer.
#[derive(Debug)]
pub struct BuilderRejection {
    /// Short stable identifier for reporting.
    pub name: &'static str,
    /// The build-time error the degenerate shape produced.
    pub error: GrammarError,
}

/// Constructs the degenerate shapes [`GrammarBuilder::build`] refuses
/// (inverted repetition bounds, a choice with zero alternatives) and
/// returns the rejections it produced.
///
/// # Examples
///
/// ```
/// let rejections = xg_datasets::builder_rejections();
/// assert_eq!(rejections.len(), 2);
/// ```
pub fn builder_rejections() -> Vec<BuilderRejection> {
    let mut out = Vec::new();

    let mut builder = GrammarBuilder::new();
    let root = builder.declare("root");
    builder.set_body(
        root,
        GrammarExpr::Repeat {
            expr: Box::new(GrammarExpr::literal("a")),
            min: 3,
            max: Some(1),
        },
    );
    out.push(BuilderRejection {
        name: "inverted-repetition-bounds",
        error: builder
            .build("root")
            .expect_err("min > max must fail to build"),
    });

    let mut builder = GrammarBuilder::new();
    let root = builder.declare("root");
    builder.set_body(root, GrammarExpr::Choice(vec![]));
    out.push(BuilderRejection {
        name: "zero-alternative-choice",
        error: builder
            .build("root")
            .expect_err("empty choice must fail to build"),
    });

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_grammar::{analyze, Severity};

    #[test]
    fn every_case_is_flagged_with_its_expected_code() {
        for case in pathological_corpus() {
            let analysis = analyze(&case.grammar);
            let hit = analysis
                .diagnostics
                .iter()
                .find(|d| d.code.as_str() == case.expected_code)
                .unwrap_or_else(|| {
                    panic!(
                        "case `{}` missing expected code `{}`; got {:?}",
                        case.name, case.expected_code, analysis.diagnostics
                    )
                });
            assert_eq!(
                hit.severity == Severity::Error,
                case.expected_error,
                "case `{}` severity mismatch",
                case.name
            );
            assert_eq!(
                analysis.has_errors(),
                case.expected_error,
                "case `{}` overall error state mismatch",
                case.name
            );
        }
    }

    #[test]
    fn case_names_are_unique() {
        let corpus = pathological_corpus();
        let mut names: Vec<_> = corpus.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), corpus.len());
    }

    #[test]
    fn builder_rejections_carry_the_expected_errors() {
        let rejections = builder_rejections();
        assert!(rejections
            .iter()
            .any(|r| matches!(r.error, GrammarError::InvalidRepetition { .. })));
        assert!(rejections
            .iter()
            .any(|r| matches!(r.error, GrammarError::EmptyChoice { .. })));
    }
}
