//! Depth-bounded unrolling of a grammar into a finite-state automaton.
//!
//! Regex-based constrained-decoding systems (Outlines, lm-format-enforcer)
//! represent the structure as a finite automaton. Context-free grammars with
//! recursion cannot be expressed exactly; the practical workaround those
//! systems use (and the one we reproduce) is to unroll rule references up to
//! a bounded depth. The unrolling reads the pushdown automaton XGrammar
//! itself executes (`xg_automata::build_pda_default`): every automaton state
//! is one PDA configuration, and a configuration holds at most `max_depth`
//! stack frames. Nesting beyond the bound is *truncated*: the resulting
//! automaton accepts only the sub-language with bounded nesting, which is
//! exactly the limitation the paper attributes to regex-based methods. A
//! reference in tail position replaces its caller's frame, as in XGrammar's
//! matcher, so right recursion costs no depth and stays a loop.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use xg_automata::{build_pda_default, epsilon_closure, Fsa, PdaEdge};
use xg_grammar::{Grammar, RuleId};

use crate::BackendError;

/// Returns `true` if the grammar's rule-reference graph (restricted to rules
/// reachable from the root) contains a cycle, i.e. the grammar is genuinely
/// recursive and cannot be expressed as a finite automaton.
pub(crate) fn grammar_is_recursive(grammar: &Grammar) -> bool {
    fn visit(
        grammar: &Grammar,
        rule: RuleId,
        visiting: &mut Vec<bool>,
        done: &mut Vec<bool>,
    ) -> bool {
        if done[rule.index()] {
            return false;
        }
        if visiting[rule.index()] {
            return true;
        }
        visiting[rule.index()] = true;
        let mut refs = Vec::new();
        grammar
            .rule(rule)
            .body
            .for_each_rule_ref(&mut |r| refs.push(r));
        let recursive = refs.into_iter().any(|r| visit(grammar, r, visiting, done));
        visiting[rule.index()] = false;
        done[rule.index()] = !recursive;
        recursive
    }
    let mut visiting = vec![false; grammar.len()];
    let mut done = vec![false; grammar.len()];
    visit(grammar, grammar.root(), &mut visiting, &mut done)
}

/// Unrolls `grammar` into a byte-level NFA whose states are the
/// configurations of its PDA reachable from the root's start with at most
/// `max_depth` stack frames, each closed over by [`epsilon_closure`].
/// Unbounded repetitions stay automaton loops (they are regular), as do
/// references in tail position; a reference that needs a frame beyond the
/// bound is dropped.
///
/// # Errors
///
/// Returns `backend`'s [`BackendError::UnsupportedGrammar`] when the
/// automaton grows beyond `max_states`, when one configuration's closure
/// overflows, or when nothing survives the truncation.
pub(crate) fn unroll_grammar_to_fsa(
    backend: &'static str,
    grammar: &Grammar,
    max_depth: usize,
    max_states: usize,
) -> Result<Fsa, BackendError> {
    let refuse = |reason: String| BackendError::UnsupportedGrammar { backend, reason };
    let pda = build_pda_default(grammar);
    let mut fsa = Fsa::new();
    let start = vec![pda.root_start()];
    let mut states = HashMap::from([(start.clone(), fsa.start())]);
    let mut pending = vec![start];
    let mut any_final = false;
    while let Some(stack) = pending.pop() {
        let from = states[&stack];
        let closure = epsilon_closure(&pda, &stack, max_depth)
            .ok_or_else(|| refuse("a configuration's closure overflows".to_string()))?;
        let mut edges = Vec::new();
        for reached in &closure {
            let Some((&top, returns)) = reached.split_last() else {
                continue;
            };
            let node = pda.node(top);
            if node.is_final && returns.is_empty() {
                fsa.set_final(from, true);
                any_final = true;
            }
            for edge in &node.edges {
                if let PdaEdge::Bytes { range, target } = *edge {
                    let mut next = returns.to_vec();
                    next.push(target);
                    edges.push((range, next));
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        for (range, next) in edges {
            let to = match states.entry(next) {
                Entry::Occupied(known) => *known.get(),
                Entry::Vacant(new) => {
                    if fsa.len() >= max_states {
                        return Err(refuse(format!(
                            "unrolled automaton exceeds {max_states} states"
                        )));
                    }
                    pending.push(new.key().clone());
                    *new.insert(fsa.add_state())
                }
            };
            fsa.add_edge(from, range, to);
        }
    }
    // Every state is reached from the start, so no final state means no
    // sentence.
    if !any_final {
        return Err(refuse(format!(
            "grammar has no sentence within {max_depth} stack frames"
        )));
    }
    Ok(fsa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_grammar::parse_ebnf;

    /// The message of the test backend's refusal for `reason`.
    fn refusal(reason: &str) -> String {
        format!("backend test cannot handle this grammar: {reason}")
    }

    #[test]
    fn non_recursive_grammar_unrolls() {
        let g = parse_ebnf(r#"root ::= "a" [0-9]{1,3} ("x" | "y")"#, "root").unwrap();
        let fsa = unroll_grammar_to_fsa("test", &g, 8, 10_000).unwrap();
        assert!(fsa.accepts(b"a1x"));
        assert!(fsa.accepts(b"a123y"));
        assert!(!fsa.accepts(b"a1234x"));
        assert!(!fsa.accepts(b"ax"));
    }

    #[test]
    fn star_repetition_is_a_loop_not_recursion() {
        let g = parse_ebnf(r#"root ::= "[" [a-z]* "]""#, "root").unwrap();
        let fsa = unroll_grammar_to_fsa("test", &g, 2, 10_000).unwrap();
        assert!(fsa.accepts(b"[]"));
        assert!(fsa.accepts(b"[abcdefghijklmnop]"));
        assert!(!fsa.accepts(b"[abc"));
    }

    #[test]
    fn bounded_rule_nesting_unrolls() {
        let g = parse_ebnf(
            r#"
            root ::= pair
            pair ::= "(" inner ")"
            inner ::= [0-9]+
            "#,
            "root",
        )
        .unwrap();
        let fsa = unroll_grammar_to_fsa("test", &g, 4, 10_000).unwrap();
        assert!(fsa.accepts(b"(42)"));
        assert!(!fsa.accepts(b"()"));
    }

    #[test]
    fn recursion_is_truncated_at_the_depth_bound() {
        let g = parse_ebnf(
            r#"
            root ::= value
            value ::= "[" value "]" | [0-9]
            "#,
            "root",
        )
        .unwrap();
        let fsa = unroll_grammar_to_fsa("test", &g, 4, 1_000_000).unwrap();
        assert!(fsa.accepts(b"7"));
        assert!(fsa.accepts(b"[7]"));
        assert!(fsa.accepts(b"[[7]]"));
        // Nesting deeper than the bound is not representable.
        assert!(!fsa.accepts(b"[[[[7]]]]"));
    }

    #[test]
    fn grammar_recursion_detection() {
        let recursive = parse_ebnf(
            r#"
            root ::= value
            value ::= "[" value "]" | [0-9]
            "#,
            "root",
        )
        .unwrap();
        assert!(grammar_is_recursive(&recursive));
        let flat = parse_ebnf(
            r#"
            root ::= item ("," item)*
            item ::= [0-9]+
            "#,
            "root",
        )
        .unwrap();
        assert!(!grammar_is_recursive(&flat));
    }

    #[test]
    fn state_budget_is_enforced() {
        let g = parse_ebnf(r#"root ::= [a-z]{1,200}"#, "root").unwrap();
        let err = unroll_grammar_to_fsa("test", &g, 4, 16).unwrap_err();
        assert_eq!(
            err.to_string(),
            refusal("unrolled automaton exceeds 16 states")
        );
    }

    #[test]
    fn empty_language_after_truncation_is_an_error() {
        // Every sentence needs a second frame for `v`, which one frame cuts.
        let g = parse_ebnf(
            r#"
            root ::= "(" v ")"
            v ::= "[" v "]" | "x"
            "#,
            "root",
        )
        .unwrap();
        let err = unroll_grammar_to_fsa("test", &g, 1, 10_000).unwrap_err();
        let empty = refusal("grammar has no sentence within 1 stack frames");
        assert_eq!(err.to_string(), empty);
        assert!(unroll_grammar_to_fsa("test", &g, 2, 10_000)
            .unwrap()
            .accepts(b"(x)"));
    }

    #[test]
    fn a_tail_call_costs_no_frame() {
        let g = parse_ebnf(r#"root ::= "x" root | "x""#, "root").unwrap();
        let fsa = unroll_grammar_to_fsa("test", &g, 2, 10_000).unwrap();
        assert!(fsa.accepts(&[b'x'; 50]));
        assert!(!fsa.accepts(b""));
    }
}
