//! Vocabulary-aware lint: the dead-state scan over a compiled grammar.
//!
//! The grammar-level analysis in `xg-grammar` ([`xg_grammar::analyze`]) knows
//! nothing about tokens: a grammar can be perfectly satisfiable over *bytes*
//! yet unserveable over a concrete [`Vocabulary`](xg_tokenizer::Vocabulary) —
//! if some reachable automaton state requires a byte that no token of the
//! vocabulary can supply, a decode lane parked there can never advance and
//! never terminate. That is exactly the information the adaptive token mask
//! cache already computes per node, so [`dead_states`] reuses it: a
//! reachable, non-final PDA node whose mask entry admits zero tokens (no
//! context-independent accepts and no context-dependent candidates) is
//! reported as a [`DiagnosticCode::DeadState`] error.
//!
//! The scan reads, and so builds, the entry of every non-final node: the
//! automaton `build_pda` returns is compact, so every node is reachable. It
//! runs only when called; no compile runs it, and no finding of it refuses a
//! grammar.

use xg_automata::NodeId;
use xg_grammar::{Diagnostic, DiagnosticCode};

use crate::compiler::CompiledGrammar;
use crate::mask_cache::NodeMaskEntry;

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

/// The dead states of a compiled grammar, one
/// [`DiagnosticCode::DeadState`] finding each; empty under a row without the
/// mask cache. Reads (and so builds) the entry of every non-final node.
///
/// A *dead state* is a node that is reachable from the start configuration,
/// is not final (the current rule still needs input there) and whose mask
/// cache entry admits zero tokens of the vocabulary. A lane that reaches one
/// can neither advance (every token is rejected) nor terminate (EOS requires
/// a completable stack), so it would sit in the batch forever.
pub fn dead_states(compiled: &CompiledGrammar) -> Vec<Diagnostic> {
    let pda = compiled.pda();
    let mut diagnostics = Vec::new();
    if !compiled.config().mask_cache() {
        return diagnostics;
    }
    let classified = compiled.vocabulary().sorted().len();
    // `build_pda` returns a compact automaton: every node is reachable.
    for (index, node) in pda.nodes().iter().enumerate() {
        let id = NodeId(index as u32);
        if !node.is_final && entry_is_dead(compiled.entry(id), classified) {
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
    diagnostics
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use xg_grammar::{Grammar, GrammarError};
    use xg_tokenizer::{test_vocabulary, Vocabulary};

    use crate::compiler::{CompilerConfig, GrammarCompiler};

    fn compile(grammar: &Grammar, vocab: Arc<Vocabulary>) -> CompiledGrammar {
        CompiledGrammar::compile(grammar, vocab, &CompilerConfig::default())
    }

    #[test]
    fn clean_grammar_has_clean_report() {
        let grammar = xg_grammar::parse_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root").unwrap();
        let compiled = compile(&grammar, Arc::new(test_vocabulary(600)));
        assert_eq!(compiled.built_entries(), 0, "no compile runs the scan");
        assert_eq!(dead_states(&compiled), []);
        assert!(compiled.built_entries() > 0);
    }

    /// The grammar-level finding that refuses a grammar is the one the
    /// refusal carries.
    #[test]
    fn grammar_level_errors_surface_in_the_report() {
        let compiler = GrammarCompiler::new(Arc::new(test_vocabulary(600)));
        let source = r#"
            root ::= a
            a ::= "x" a
            "#;
        let Err(GrammarError::Lint { diagnostics }) = compiler.compile_ebnf(source, "root") else {
            panic!("an unsatisfiable grammar is refused");
        };
        let codes: Vec<DiagnosticCode> = diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, [DiagnosticCode::UnsatisfiableGrammar]);
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
        let dead = dead_states(&compiled);
        assert!(!dead.is_empty());
        assert!(dead.iter().all(|d| d.code == DiagnosticCode::DeadState));
        assert!(dead
            .iter()
            .all(|d| d.severity == xg_grammar::Severity::Error));
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
        assert_eq!(dead_states(&compiled), []);
    }

    /// A warning-only grammar: one warning, no error, no dead state.
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
        let analysis = xg_grammar::analyze(&grammar);
        assert!(!analysis.has_errors());
        assert_eq!(analysis.diagnostics.len(), 1, "one warning");
        let compiled = compile(&grammar, Arc::new(test_vocabulary(600)));
        assert_eq!(dead_states(&compiled), []);
    }
}
