//! Static analysis ("lint") of grammars, run before compilation.
//!
//! The whole point of grammar preprocessing is to pay constraint costs at
//! compile time instead of in the per-token decode loop — and that includes
//! *discovering that a constraint is broken*. A grammar whose root can never
//! derive a string, an unbounded repetition that can loop without consuming
//! input, or a character class that matches nothing are all cheap to detect
//! here and expensive to discover at serve time (as a lane that never
//! terminates or a mask that is all zeros).
//!
//! [`analyze`] computes three classic grammar properties as fixpoints —
//! per-rule **reachability** from the root, **productivity** (can the rule
//! derive at least one terminal string) and **nullability** (can it derive
//! the empty string) — and reports pathologies as structured
//! [`Diagnostic`]s. Each diagnostic carries a stable [`DiagnosticCode`] and a
//! [`Severity`]: errors describe grammars that are unsafe to serve
//! (unsatisfiable, or able to spin forever), warnings describe dead weight
//! (unreachable rules, choice arms that can never match).
//!
//! Two codes — [`DiagnosticCode::DeadState`] and
//! [`DiagnosticCode::DeadTrigger`] — are defined here but emitted by the
//! vocabulary-aware lint layer in `xg-core`, which has access to the compiled
//! automaton and the actual token vocabulary.
//!
//! # Examples
//!
//! ```
//! use xg_grammar::{analyze, parse_ebnf, DiagnosticCode, Severity};
//!
//! // `a` has no base case: it can never derive a terminal string, so the
//! // root (which requires it) matches nothing at all.
//! let grammar = parse_ebnf(
//!     r#"
//!     root ::= a
//!     a ::= "x" a
//!     "#,
//!     "root",
//! )
//! .unwrap();
//! let analysis = analyze(&grammar);
//! assert!(analysis.has_errors());
//! assert!(analysis
//!     .diagnostics
//!     .iter()
//!     .any(|d| d.code == DiagnosticCode::UnsatisfiableGrammar && d.severity == Severity::Error));
//! ```

use std::fmt;

use crate::ast::{Grammar, GrammarExpr, RuleId};

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Dead weight: the grammar works, but part of it can never match.
    Warning,
    /// The grammar is unsafe to serve: it matches nothing, or a matcher
    /// driving it can get stuck without consuming input.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable identifier of a class of lint findings.
///
/// The kebab-case rendering (via [`DiagnosticCode::as_str`]) is the public
/// name used in reports and tests; the enum variants are the programmatic
/// handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagnosticCode {
    /// A rule is never referenced (directly or transitively) from the root.
    UnreachableRule,
    /// A reachable rule cannot derive any terminal string (for example
    /// recursion with no base case); every reference to it is dead.
    UnproductiveRule,
    /// The root rule cannot derive any terminal string: the grammar matches
    /// nothing, and every mask it produces would be all zeros.
    UnsatisfiableGrammar,
    /// A character or byte class matches no character/byte at all.
    EmptyClass,
    /// An unbounded repetition over a nullable body: a derivation can loop
    /// forever without consuming input.
    NullableRepetition,
    /// A reachable automaton state admits zero tokens of the actual
    /// vocabulary: a decode lane stuck there can never advance. Emitted by
    /// the vocabulary-aware lint layer in `xg-core`.
    DeadState,
    /// A structural-tag trigger whose segment grammar is unproductive: the
    /// trigger can fire but the tagged segment can never complete. Emitted by
    /// the structural-tag lint layer in `xg-core`.
    DeadTrigger,
}

impl DiagnosticCode {
    /// The stable kebab-case name of this code.
    pub fn as_str(self) -> &'static str {
        match self {
            DiagnosticCode::UnreachableRule => "unreachable-rule",
            DiagnosticCode::UnproductiveRule => "unproductive-rule",
            DiagnosticCode::UnsatisfiableGrammar => "unsatisfiable-grammar",
            DiagnosticCode::EmptyClass => "empty-class",
            DiagnosticCode::NullableRepetition => "nullable-repetition",
            DiagnosticCode::DeadState => "dead-state",
            DiagnosticCode::DeadTrigger => "dead-trigger",
        }
    }

    /// The severity this code is reported with.
    pub fn severity(self) -> Severity {
        match self {
            DiagnosticCode::UnreachableRule
            | DiagnosticCode::UnproductiveRule
            | DiagnosticCode::EmptyClass => Severity::Warning,
            DiagnosticCode::UnsatisfiableGrammar
            | DiagnosticCode::NullableRepetition
            | DiagnosticCode::DeadState
            | DiagnosticCode::DeadTrigger => Severity::Error,
        }
    }
}

impl fmt::Display for DiagnosticCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One lint finding: a code, its severity, the rule it anchors to (if any)
/// and a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule the finding is about, when it anchors to one. Vocabulary-
    /// aware findings ([`DiagnosticCode::DeadState`],
    /// [`DiagnosticCode::DeadTrigger`]) anchor to automaton structure
    /// instead and leave this empty.
    pub rule: Option<RuleId>,
    /// How serious the finding is.
    pub severity: Severity,
    /// The stable class of the finding.
    pub code: DiagnosticCode,
    /// Human-readable description (includes the rule name where relevant).
    pub message: String,
}

impl Diagnostic {
    /// Creates a diagnostic with the code's default severity.
    pub fn new(code: DiagnosticCode, rule: Option<RuleId>, message: impl Into<String>) -> Self {
        Diagnostic {
            rule,
            severity: code.severity(),
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]: {}", self.severity, self.code, self.message)
    }
}

/// Result of [`analyze`]: the three per-rule property tables plus the
/// diagnostics derived from them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrammarAnalysis {
    /// `reachable[r]`: rule `r` is referenced (transitively) from the root.
    pub reachable: Vec<bool>,
    /// `productive[r]`: rule `r` can derive at least one terminal string.
    pub productive: Vec<bool>,
    /// `nullable[r]`: rule `r` can derive the empty string.
    pub nullable: Vec<bool>,
    /// Findings, in rule order.
    pub diagnostics: Vec<Diagnostic>,
}

impl GrammarAnalysis {
    /// Returns `true` if any diagnostic has [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Iterates over the error-severity diagnostics.
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }
}

/// Returns `true` if `expr` can derive at least one terminal string, given
/// per-rule verdicts for referenced rules (rules not yet known productive
/// count as unproductive — the bottom of the fixpoint).
fn expr_productive(expr: &GrammarExpr, productive: &[bool]) -> bool {
    match expr {
        GrammarExpr::Empty => true,
        // The empty literal derives the empty string, which is a (trivial)
        // terminal string.
        GrammarExpr::Literal(_) => true,
        GrammarExpr::CharClass(cc) => !cc.is_empty(),
        GrammarExpr::ByteClass(bc) => !bc.is_empty(),
        GrammarExpr::RuleRef(id) => productive.get(id.index()).copied().unwrap_or(false),
        GrammarExpr::Sequence(items) => items.iter().all(|e| expr_productive(e, productive)),
        GrammarExpr::Choice(items) => items.iter().any(|e| expr_productive(e, productive)),
        GrammarExpr::Repeat { expr, min, .. } => *min == 0 || expr_productive(expr, productive),
    }
}

/// Walks `expr` reporting structurally degenerate sub-expressions as
/// diagnostics anchored to `rule`.
fn lint_expr(
    expr: &GrammarExpr,
    rule: RuleId,
    rule_name: &str,
    nullable: &[bool],
    out: &mut Vec<Diagnostic>,
) {
    match expr {
        GrammarExpr::CharClass(cc) if cc.is_empty() => {
            out.push(Diagnostic::new(
                DiagnosticCode::EmptyClass,
                Some(rule),
                format!("rule `{rule_name}` contains a character class that matches no character"),
            ));
        }
        GrammarExpr::ByteClass(bc) if bc.is_empty() => {
            out.push(Diagnostic::new(
                DiagnosticCode::EmptyClass,
                Some(rule),
                format!("rule `{rule_name}` contains a byte class that matches no byte"),
            ));
        }
        GrammarExpr::Sequence(items) | GrammarExpr::Choice(items) => {
            for it in items {
                lint_expr(it, rule, rule_name, nullable, out);
            }
        }
        GrammarExpr::Repeat { expr, max, .. } => {
            if max.is_none() && expr.is_nullable(nullable) {
                out.push(Diagnostic::new(
                    DiagnosticCode::NullableRepetition,
                    Some(rule),
                    format!(
                        "rule `{rule_name}` contains an unbounded repetition over a nullable \
                         body; a derivation can loop forever without consuming input"
                    ),
                ));
            }
            lint_expr(expr, rule, rule_name, nullable, out);
        }
        _ => {}
    }
}

/// Runs the full static analysis over a grammar.
///
/// Computes reachability, productivity and nullability for every rule and
/// derives diagnostics:
///
/// | code | severity | meaning |
/// |------|----------|---------|
/// | `unreachable-rule` | warning | rule never referenced from the root |
/// | `unproductive-rule` | warning | reachable rule derives no terminal string |
/// | `unsatisfiable-grammar` | error | the *root* derives no terminal string |
/// | `empty-class` | warning | char/byte class matching nothing |
/// | `nullable-repetition` | error | unbounded repetition over a nullable body |
///
/// Structural findings (`empty-class`, `nullable-repetition`) are only
/// reported for *reachable* rules: dead code is already covered by
/// `unreachable-rule`, and its internals cannot affect decoding. Repetitions
/// with `min > max` and choices with zero alternatives never reach it:
/// [`GrammarBuilder::build`](crate::GrammarBuilder::build) rejects them.
pub fn analyze(grammar: &Grammar) -> GrammarAnalysis {
    let n = grammar.rules().len();
    let nullable = grammar.nullable_rules();

    // Productivity: bottom-up fixpoint, starting from "nothing is productive".
    let mut productive = vec![false; n];
    loop {
        let mut changed = false;
        for (i, rule) in grammar.rules().iter().enumerate() {
            if !productive[i] && expr_productive(&rule.body, &productive) {
                productive[i] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Reachability: BFS over rule references from the root.
    let mut reachable = vec![false; n];
    let root = grammar.root();
    if root.index() < n {
        reachable[root.index()] = true;
        let mut queue = vec![root];
        while let Some(id) = queue.pop() {
            grammar.rule(id).body.for_each_rule_ref(&mut |next| {
                if next.index() < n && !reachable[next.index()] {
                    reachable[next.index()] = true;
                    queue.push(next);
                }
            });
        }
    }

    let mut diagnostics = Vec::new();
    for (i, rule) in grammar.rules().iter().enumerate() {
        let id = RuleId(i as u32);
        if !reachable[i] {
            diagnostics.push(Diagnostic::new(
                DiagnosticCode::UnreachableRule,
                Some(id),
                format!("rule `{}` is never referenced from the root", rule.name),
            ));
            continue;
        }
        if !productive[i] {
            if id == root {
                diagnostics.push(Diagnostic::new(
                    DiagnosticCode::UnsatisfiableGrammar,
                    Some(id),
                    format!(
                        "root rule `{}` cannot derive any terminal string; the grammar \
                         matches nothing",
                        rule.name
                    ),
                ));
            } else {
                diagnostics.push(Diagnostic::new(
                    DiagnosticCode::UnproductiveRule,
                    Some(id),
                    format!("rule `{}` cannot derive any terminal string", rule.name),
                ));
            }
        }
        lint_expr(&rule.body, id, &rule.name, &nullable, &mut diagnostics);
    }

    GrammarAnalysis {
        reachable,
        productive,
        nullable,
        diagnostics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{CharClass, GrammarBuilder};
    use crate::parse_ebnf;

    fn codes(analysis: &GrammarAnalysis) -> Vec<DiagnosticCode> {
        analysis.diagnostics.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_grammar_has_no_diagnostics() {
        let g = parse_ebnf(r#"root ::= "[" [0-9]+ ("," [0-9]+)* "]""#, "root").unwrap();
        let a = analyze(&g);
        assert!(a.diagnostics.is_empty(), "diagnostics: {:?}", a.diagnostics);
        assert!(a.productive.iter().all(|&p| p));
        assert!(a.reachable.iter().all(|&r| r));
        assert!(!a.has_errors());
    }

    #[test]
    fn unreachable_rule_is_a_warning() {
        let g = parse_ebnf(
            r#"
            root ::= "a"
            orphan ::= "b"
            "#,
            "root",
        )
        .unwrap();
        let a = analyze(&g);
        assert_eq!(codes(&a), vec![DiagnosticCode::UnreachableRule]);
        assert!(!a.has_errors());
        let orphan = g.rule_id("orphan").unwrap();
        assert!(!a.reachable[orphan.index()]);
    }

    #[test]
    fn unproductive_non_root_rule_is_a_warning() {
        // `loop_` recurses without a base case; root still matches "ok".
        let g = parse_ebnf(
            r#"
            root ::= "ok" | loop_
            loop_ ::= "x" loop_
            "#,
            "root",
        )
        .unwrap();
        let a = analyze(&g);
        assert_eq!(codes(&a), vec![DiagnosticCode::UnproductiveRule]);
        assert!(!a.has_errors());
        assert!(a.productive[g.root().index()]);
        assert!(!a.productive[g.rule_id("loop_").unwrap().index()]);
    }

    #[test]
    fn unsatisfiable_root_is_an_error() {
        let g = parse_ebnf(
            r#"
            root ::= a
            a ::= "x" a
            "#,
            "root",
        )
        .unwrap();
        let a = analyze(&g);
        assert!(a.has_errors());
        assert!(codes(&a).contains(&DiagnosticCode::UnsatisfiableGrammar));
        assert!(codes(&a).contains(&DiagnosticCode::UnproductiveRule));
    }

    #[test]
    fn empty_class_in_a_live_choice_is_a_warning() {
        let mut b = GrammarBuilder::new();
        b.add_rule(
            "root",
            GrammarExpr::Choice(vec![
                GrammarExpr::literal("a"),
                GrammarExpr::CharClass(CharClass::new(vec![])),
            ]),
        );
        let g = b.build("root").unwrap();
        let a = analyze(&g);
        assert_eq!(codes(&a), vec![DiagnosticCode::EmptyClass]);
        assert!(!a.has_errors(), "the `a` arm keeps the root satisfiable");
    }

    #[test]
    fn load_bearing_empty_class_is_unsatisfiable() {
        let mut b = GrammarBuilder::new();
        b.add_rule("root", GrammarExpr::CharClass(CharClass::new(vec![])));
        let g = b.build("root").unwrap();
        let a = analyze(&g);
        assert!(a.has_errors());
        assert!(codes(&a).contains(&DiagnosticCode::UnsatisfiableGrammar));
        assert!(codes(&a).contains(&DiagnosticCode::EmptyClass));
    }

    #[test]
    fn nullable_unbounded_repetition_is_an_error() {
        // ("a"?)* can loop forever matching the empty body.
        let mut b = GrammarBuilder::new();
        b.add_rule(
            "root",
            GrammarExpr::star(GrammarExpr::optional(GrammarExpr::literal("a"))),
        );
        let g = b.build("root").unwrap();
        let a = analyze(&g);
        assert_eq!(codes(&a), vec![DiagnosticCode::NullableRepetition]);
        assert!(a.has_errors());
    }

    #[test]
    fn bounded_repetition_over_nullable_body_is_fine() {
        let mut b = GrammarBuilder::new();
        b.add_rule(
            "root",
            GrammarExpr::Repeat {
                expr: Box::new(GrammarExpr::optional(GrammarExpr::literal("a"))),
                min: 0,
                max: Some(8),
            },
        );
        let g = b.build("root").unwrap();
        assert!(analyze(&g).diagnostics.is_empty());
    }

    #[test]
    fn unreachable_rule_internals_are_not_linted() {
        // The orphan contains an empty class, but only unreachable-rule is
        // reported for it.
        let mut b = GrammarBuilder::new();
        b.add_rule("root", GrammarExpr::literal("a"));
        b.add_rule("orphan", GrammarExpr::CharClass(CharClass::new(vec![])));
        let g = b.build("root").unwrap();
        let a = analyze(&g);
        assert_eq!(codes(&a), vec![DiagnosticCode::UnreachableRule]);
    }

    #[test]
    fn builtin_json_grammar_lints_clean() {
        let a = analyze(&crate::builtin::json_grammar());
        assert!(a.diagnostics.is_empty(), "diagnostics: {:?}", a.diagnostics);
    }

    #[test]
    fn star_of_plus_is_not_flagged() {
        // A `+` body is not nullable, so `(x+)*` is fine.
        let g = parse_ebnf(r#"root ::= ([a-z]+)*"#, "root").unwrap();
        let a = analyze(&g);
        assert!(a.diagnostics.is_empty(), "diagnostics: {:?}", a.diagnostics);
    }

    #[test]
    fn diagnostic_display_is_stable() {
        let d = Diagnostic::new(
            DiagnosticCode::UnsatisfiableGrammar,
            Some(RuleId(0)),
            "root rule `root` cannot derive any terminal string",
        );
        assert_eq!(
            d.to_string(),
            "error[unsatisfiable-grammar]: root rule `root` cannot derive any terminal string"
        );
        assert_eq!(DiagnosticCode::DeadState.as_str(), "dead-state");
        assert_eq!(DiagnosticCode::DeadState.severity(), Severity::Error);
        assert_eq!(DiagnosticCode::DeadTrigger.severity(), Severity::Error);
    }

    #[test]
    fn nullability_table_matches_grammar_method() {
        let g = parse_ebnf(
            r#"
            root ::= ws "x" ws
            ws ::= [ ]*
            "#,
            "root",
        )
        .unwrap();
        let a = analyze(&g);
        assert_eq!(a.nullable, g.nullable_rules());
    }
}
