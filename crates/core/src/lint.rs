//! Vocabulary-aware lint: the compile-time layer of the grammar
//! static-analysis pass.
//!
//! The grammar-level analysis in `xg-grammar` ([`xg_grammar::analyze`]) knows
//! nothing about tokens: a grammar can be perfectly satisfiable over *bytes*
//! yet unserveable over a concrete [`Vocabulary`](xg_tokenizer::Vocabulary) —
//! if some reachable automaton state requires a byte that no token of the
//! vocabulary can supply, a decode lane parked there can never advance and
//! never terminate. That is exactly the information the adaptive token mask
//! cache already computes per node, so this module reuses it: a reachable,
//! non-final PDA node whose mask entry admits zero tokens (no
//! context-independent accepts and no context-dependent candidates) is
//! reported as a [`DiagnosticCode::DeadState`] error.
//!
//! [`lint_compiled`] combines both layers into one [`GrammarLintReport`],
//! which [`CompiledGrammar`](crate::CompiledGrammar) stores when the
//! compiler's [`LintMode`](crate::LintMode) is not `Off`.

use xg_automata::{NodeId, Pda, PdaEdge};
use xg_grammar::{analyze, Diagnostic, DiagnosticCode, Grammar, Severity};

use crate::mask_cache::{MaskCache, NodeMaskEntry};

/// The outcome of linting one compiled grammar: grammar-level diagnostics
/// from [`xg_grammar::analyze`] plus vocabulary-aware dead-state findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GrammarLintReport {
    /// All findings, grammar-level first, then vocabulary-aware ones.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of reachable, non-final automaton states admitting zero tokens
    /// (each also appears in `diagnostics` as a
    /// [`DiagnosticCode::DeadState`]).
    pub dead_states: usize,
}

impl GrammarLintReport {
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

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.errors().count()
    }

    /// Number of warning-severity diagnostics.
    pub fn warning_count(&self) -> usize {
        self.diagnostics.len() - self.error_count()
    }
}

/// Collects every PDA node reachable from the start configuration: byte
/// edges reach their targets, and a rule edge both enters the referenced
/// rule's start node and (on return) continues at the edge target.
fn reachable_nodes(pda: &Pda) -> Vec<NodeId> {
    let mut seen = vec![false; pda.nodes().len()];
    let mut queue = vec![pda.root_start()];
    let mut out = Vec::new();
    if let Some(slot) = seen.get_mut(pda.root_start().index()) {
        *slot = true;
    }
    while let Some(id) = queue.pop() {
        out.push(id);
        for edge in &pda.node(id).edges {
            let mut push = |next: NodeId| {
                if let Some(slot) = seen.get_mut(next.index()) {
                    if !*slot {
                        *slot = true;
                        queue.push(next);
                    }
                }
            };
            match edge {
                PdaEdge::Bytes { target, .. } => push(*target),
                PdaEdge::Rule { rule, target } => {
                    push(pda.rule(*rule).start);
                    push(*target);
                }
            }
        }
    }
    out
}

/// Returns `true` if the node's mask entry admits zero tokens: no
/// context-independent accepts and no context-dependent candidates. (Tokens
/// in the uncertain set *might* be rejected at runtime, so this is a
/// conservative under-approximation of deadness — everything flagged really
/// is stuck.)
fn entry_is_dead(entry: &NodeMaskEntry, classified_tokens: usize) -> bool {
    match entry {
        NodeMaskEntry::RejectHeavy {
            accepted,
            uncertain,
        } => accepted.is_empty() && uncertain.is_empty(),
        NodeMaskEntry::Bitset {
            accepted,
            uncertain,
        } => accepted.count_allowed() == 0 && uncertain.is_empty(),
        NodeMaskEntry::AcceptHeavy {
            rejected,
            uncertain,
        } => rejected.len() == classified_tokens && uncertain.is_empty(),
    }
}

/// Lints a compiled grammar: grammar-level analysis plus, when a mask cache
/// is available, vocabulary-aware dead-state detection over the PDA.
///
/// A *dead state* is a node that is reachable from the start configuration,
/// is not final (the current rule still needs input there) and whose mask
/// cache entry admits zero tokens of the vocabulary. A lane that reaches one
/// can neither advance (every token is rejected) nor terminate (EOS requires
/// a completable stack), so it would sit in the batch forever.
pub(crate) fn lint_compiled(
    grammar: &Grammar,
    pda: &Pda,
    mask_cache: Option<&MaskCache>,
) -> GrammarLintReport {
    let analysis = analyze(grammar);
    let mut diagnostics = analysis.diagnostics;
    let mut dead_states = 0;
    if let Some(cache) = mask_cache {
        let classified = cache.stats().classified_tokens;
        for id in reachable_nodes(pda) {
            let node = pda.node(id);
            if node.is_final {
                continue;
            }
            if entry_is_dead(cache.entry(id), classified) {
                dead_states += 1;
                diagnostics.push(Diagnostic::new(
                    DiagnosticCode::DeadState,
                    None,
                    format!(
                        "automaton state {} of rule `{}` is reachable but admits zero tokens \
                         of the vocabulary; a lane stuck there can never advance",
                        id.index(),
                        pda.rule(node.rule).name,
                    ),
                ));
            }
        }
    }
    GrammarLintReport {
        diagnostics,
        dead_states,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use xg_tokenizer::{test_vocabulary, SortedVocabulary, Vocabulary};

    use crate::compiler::{CompiledGrammar, CompilerConfig};

    fn compile(grammar: &Grammar, vocab: Arc<Vocabulary>) -> CompiledGrammar {
        let sorted = Arc::new(SortedVocabulary::new(&vocab));
        CompiledGrammar::compile(grammar, vocab, sorted, &CompilerConfig::default())
    }

    #[test]
    fn clean_grammar_has_clean_report() {
        let grammar = xg_grammar::parse_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root").unwrap();
        let compiled = compile(&grammar, Arc::new(test_vocabulary(600)));
        let report = compiled.lint_report().expect("lint runs by default");
        assert!(report.diagnostics.is_empty(), "{:?}", report.diagnostics);
        assert_eq!(report.dead_states, 0);
        assert!(!report.has_errors());
    }

    #[test]
    fn grammar_level_errors_surface_in_the_report() {
        let grammar = xg_grammar::parse_ebnf(
            r#"
            root ::= a
            a ::= "x" a
            "#,
            "root",
        )
        .unwrap();
        let compiled = compile(&grammar, Arc::new(test_vocabulary(600)));
        let report = compiled.lint_report().unwrap();
        assert!(report.has_errors());
        assert!(report
            .errors()
            .any(|d| d.code == DiagnosticCode::UnsatisfiableGrammar));
    }

    #[test]
    fn vocabulary_gap_is_flagged_as_dead_state() {
        // The grammar needs a "z" after "a", but the vocabulary has no token
        // containing "z": the state after "a" admits zero tokens.
        let grammar = xg_grammar::parse_ebnf(r#"root ::= "a" "z""#, "root").unwrap();
        let vocab = Arc::new(Vocabulary::from_tokens(
            vec![
                b"a".to_vec(),
                b"b".to_vec(),
                b"ab".to_vec(),
                b"</s>".to_vec(),
            ],
            Some(3),
        ));
        let compiled = compile(&grammar, vocab);
        let report = compiled.lint_report().unwrap();
        assert!(report.dead_states > 0, "{:?}", report.diagnostics);
        assert!(report.has_errors());
        assert!(report.errors().any(|d| d.code == DiagnosticCode::DeadState));
    }

    #[test]
    fn full_byte_coverage_has_no_dead_states() {
        // Same grammar, but the vocabulary covers the needed byte.
        let grammar = xg_grammar::parse_ebnf(r#"root ::= "a" "z""#, "root").unwrap();
        let vocab = Arc::new(Vocabulary::from_tokens(
            vec![b"a".to_vec(), b"z".to_vec(), b"</s>".to_vec()],
            Some(2),
        ));
        let compiled = compile(&grammar, vocab);
        let report = compiled.lint_report().unwrap();
        assert_eq!(report.dead_states, 0, "{:?}", report.diagnostics);
    }

    #[test]
    fn report_counts_split_by_severity() {
        let grammar = xg_grammar::parse_ebnf(
            r#"
            root ::= "a"
            orphan ::= "b"
            "#,
            "root",
        )
        .unwrap();
        let compiled = compile(&grammar, Arc::new(test_vocabulary(600)));
        let report = compiled.lint_report().unwrap();
        assert_eq!(report.error_count(), 0);
        assert_eq!(report.warning_count(), 1);
    }
}
