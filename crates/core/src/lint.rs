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
//! [`lint_compiled`] adds the second layer to the first's findings, into one
//! [`GrammarLintReport`], which [`CompiledGrammar`] keeps when the compiler's
//! [`LintMode`](crate::LintMode) is not `Off`.

use xg_automata::{NodeId, Pda, PdaEdge};
use xg_grammar::{Diagnostic, DiagnosticCode, Severity};

use crate::compiler::CompiledGrammar;
use crate::mask_cache::NodeMaskEntry;

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

/// Lints a compiled grammar: `diagnostics` are the grammar-level findings
/// ([`xg_grammar::analyze`]); when the grammar has a mask cache, the
/// vocabulary-aware dead states over the PDA are added, reading (and so
/// building) the entry of every reachable non-final node.
///
/// A *dead state* is a node that is reachable from the start configuration,
/// is not final (the current rule still needs input there) and whose mask
/// cache entry admits zero tokens of the vocabulary. A lane that reaches one
/// can neither advance (every token is rejected) nor terminate (EOS requires
/// a completable stack), so it would sit in the batch forever.
pub(crate) fn lint_compiled(
    mut diagnostics: Vec<Diagnostic>,
    compiled: &CompiledGrammar,
) -> GrammarLintReport {
    let pda = compiled.pda();
    let mut dead_states = 0;
    if compiled.config().enable_mask_cache {
        let classified = compiled.sorted_vocabulary().len();
        for id in reachable_nodes(pda) {
            let node = pda.node(id);
            if node.is_final {
                continue;
            }
            if entry_is_dead(compiled.entry(id), classified) {
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

    use xg_grammar::Grammar;
    use xg_tokenizer::{test_vocabulary, SortedVocabulary, Vocabulary};

    use crate::compiler::{CompilerConfig, LintMode};

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

    /// The `Warn` report, whose dead-state scan waits for the first
    /// `lint_report()` and builds the entries it reads then, is the `Strict`
    /// report, built in the compile.
    #[test]
    fn a_deferred_warn_report_equals_the_strict_one() {
        let vocab = Arc::new(test_vocabulary(600));
        let sorted = Arc::new(SortedVocabulary::new(&vocab));
        let config = |mode| CompilerConfig::default().with_lint_mode(mode);
        let (warn, strict) = (config(LintMode::Warn), config(LintMode::Strict));
        let mut scanned = 0;
        for case in xg_datasets::pathological_corpus() {
            let compile = |config| {
                let (vocab, sorted) = (Arc::clone(&vocab), Arc::clone(&sorted));
                CompiledGrammar::compile(&case.grammar, vocab, sorted, config)
            };
            let deferred = compile(&warn);
            assert_eq!(deferred.built_entries(), 0, "{}", case.name);
            let eager = compile(&strict);
            assert_eq!(deferred.lint_report(), eager.lint_report(), "{}", case.name);
            scanned += deferred.built_entries();
        }
        // The deferred scans ran: they read the reachable non-final entries.
        assert!(scanned > 0);
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
