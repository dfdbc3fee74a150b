//! Depth-bounded unrolling of a grammar into a finite-state automaton.
//!
//! Regex-based constrained-decoding systems (Outlines, lm-format-enforcer)
//! represent the structure as a finite automaton. Context-free grammars with
//! recursion cannot be expressed exactly; the practical workaround those
//! systems use (and the one we reproduce) is to unroll rule references up to
//! a bounded depth. Recursion beyond the bound is *truncated*: the resulting
//! automaton accepts only the sub-language with bounded nesting, which is
//! exactly the limitation the paper attributes to regex-based methods.

use std::collections::HashMap;

use xg_automata::{utf8_sequences, ByteRange, Fsa, StateId};
use xg_grammar::{Grammar, GrammarExpr, RuleId};

/// Errors produced during unrolling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum UnrollError {
    /// The unrolled automaton exceeded the state budget.
    TooManyStates {
        /// The configured state budget.
        max_states: usize,
    },
    /// After truncating recursion at the depth bound, the automaton accepts
    /// nothing (the grammar has no sentence of bounded nesting depth).
    EmptyLanguage {
        /// The configured depth bound.
        max_depth: usize,
    },
}

impl std::fmt::Display for UnrollError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UnrollError::TooManyStates { max_states } => {
                write!(f, "unrolled automaton exceeds {max_states} states")
            }
            UnrollError::EmptyLanguage { max_depth } => write!(
                f,
                "grammar has no sentence with rule nesting below {max_depth}"
            ),
        }
    }
}

impl std::error::Error for UnrollError {}

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

/// Unrolls `grammar` into a byte-level NFA, expanding rule references up to
/// `max_depth` nested levels. Unbounded repetitions are kept as automaton
/// loops (they are regular); only *rule recursion* is bounded, and recursive
/// branches beyond the bound are dropped.
///
/// # Errors
///
/// Returns [`UnrollError::TooManyStates`] when the automaton grows beyond
/// `max_states`, or [`UnrollError::EmptyLanguage`] when nothing survives the
/// truncation.
pub(crate) fn unroll_grammar_to_fsa(
    grammar: &Grammar,
    max_depth: usize,
    max_states: usize,
) -> Result<Fsa, UnrollError> {
    let mut unroller = Unroller {
        grammar,
        states: vec![TmpState::default(), TmpState::default()],
        max_states,
    };
    unroller.compile_rule(grammar.root(), 0, 1, max_depth)?;
    unroller.states[1].is_final = true;
    let fsa = unroller.finalize();
    if !fsa.has_reachable_final_state() {
        return Err(UnrollError::EmptyLanguage { max_depth });
    }
    Ok(fsa)
}

#[derive(Debug, Default, Clone)]
struct TmpState {
    byte_edges: Vec<(ByteRange, usize)>,
    eps_edges: Vec<usize>,
    is_final: bool,
}

struct Unroller<'a> {
    grammar: &'a Grammar,
    states: Vec<TmpState>,
    max_states: usize,
}

impl<'a> Unroller<'a> {
    fn new_state(&mut self) -> Result<usize, UnrollError> {
        if self.states.len() >= self.max_states {
            return Err(UnrollError::TooManyStates {
                max_states: self.max_states,
            });
        }
        self.states.push(TmpState::default());
        Ok(self.states.len() - 1)
    }

    fn epsilon(&mut self, from: usize, to: usize) {
        self.states[from].eps_edges.push(to);
    }

    fn compile_rule(
        &mut self,
        rule: RuleId,
        from: usize,
        to: usize,
        depth: usize,
    ) -> Result<(), UnrollError> {
        if depth == 0 {
            // Truncate: this branch contributes nothing.
            return Ok(());
        }
        let body = self.grammar.rule(rule).body.clone();
        self.compile_expr(&body, from, to, depth)
    }

    fn compile_expr(
        &mut self,
        expr: &GrammarExpr,
        from: usize,
        to: usize,
        depth: usize,
    ) -> Result<(), UnrollError> {
        match expr {
            GrammarExpr::Empty => self.epsilon(from, to),
            GrammarExpr::Literal(bytes) => {
                if bytes.is_empty() {
                    self.epsilon(from, to);
                    return Ok(());
                }
                let mut cur = from;
                for (i, &b) in bytes.iter().enumerate() {
                    let next = if i + 1 == bytes.len() {
                        to
                    } else {
                        self.new_state()?
                    };
                    self.states[cur]
                        .byte_edges
                        .push((ByteRange::new(b, b), next));
                    cur = next;
                }
            }
            GrammarExpr::CharClass(cc) => {
                for range in cc.normalized_ranges() {
                    for seq in utf8_sequences(range.start as u32, range.end as u32) {
                        let mut cur = from;
                        for (i, br) in seq.ranges.iter().enumerate() {
                            let next = if i + 1 == seq.ranges.len() {
                                to
                            } else {
                                self.new_state()?
                            };
                            self.states[cur].byte_edges.push((*br, next));
                            cur = next;
                        }
                    }
                }
            }
            GrammarExpr::ByteClass(bc) => {
                for (lo, hi) in bc.normalized_ranges() {
                    self.states[from]
                        .byte_edges
                        .push((ByteRange::new(lo, hi), to));
                }
            }
            GrammarExpr::RuleRef(rule) => {
                self.compile_rule(*rule, from, to, depth - 1)?;
            }
            GrammarExpr::Sequence(items) => {
                if items.is_empty() {
                    self.epsilon(from, to);
                    return Ok(());
                }
                let mut cur = from;
                for (i, item) in items.iter().enumerate() {
                    let next = if i + 1 == items.len() {
                        to
                    } else {
                        self.new_state()?
                    };
                    self.compile_expr(item, cur, next, depth)?;
                    cur = next;
                }
            }
            GrammarExpr::Choice(items) => {
                if items.is_empty() {
                    self.epsilon(from, to);
                    return Ok(());
                }
                for item in items {
                    self.compile_expr(item, from, to, depth)?;
                }
            }
            GrammarExpr::Repeat {
                expr: inner,
                min,
                max,
            } => {
                let mut cur = from;
                for _ in 0..*min {
                    let next = self.new_state()?;
                    self.compile_expr(inner, cur, next, depth)?;
                    cur = next;
                }
                match max {
                    None => {
                        let loop_entry = self.new_state()?;
                        self.epsilon(cur, loop_entry);
                        let loop_exit = self.new_state()?;
                        self.compile_expr(inner, loop_entry, loop_exit, depth)?;
                        self.epsilon(loop_exit, loop_entry);
                        self.epsilon(loop_entry, to);
                    }
                    Some(max) => {
                        let optional = max.saturating_sub(*min);
                        for _ in 0..optional {
                            let next = self.new_state()?;
                            self.compile_expr(inner, cur, next, depth)?;
                            self.epsilon(cur, to);
                            cur = next;
                        }
                        self.epsilon(cur, to);
                    }
                }
            }
        }
        Ok(())
    }

    /// Eliminates epsilon edges and produces the final [`Fsa`].
    fn finalize(&self) -> Fsa {
        let n = self.states.len();
        let mut fsa = Fsa::new();
        let ids: Vec<StateId> = (0..n)
            .map(|i| if i == 0 { fsa.start() } else { fsa.add_state() })
            .collect();
        let mut closure_cache: HashMap<usize, (Vec<(ByteRange, usize)>, bool)> = HashMap::new();
        for i in 0..n {
            let (edges, is_final) = closure_cache.entry(i).or_insert_with(|| {
                let mut visited = vec![false; n];
                let mut stack = vec![i];
                visited[i] = true;
                let mut edges = Vec::new();
                let mut is_final = false;
                while let Some(cur) = stack.pop() {
                    if self.states[cur].is_final {
                        is_final = true;
                    }
                    edges.extend(self.states[cur].byte_edges.iter().copied());
                    for &next in &self.states[cur].eps_edges {
                        if !visited[next] {
                            visited[next] = true;
                            stack.push(next);
                        }
                    }
                }
                (edges, is_final)
            });
            for (range, target) in edges.iter() {
                fsa.add_edge(ids[i], *range, ids[*target]);
            }
            fsa.set_final(ids[i], *is_final);
        }
        fsa
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_grammar::parse_ebnf;

    #[test]
    fn non_recursive_grammar_unrolls() {
        let g = parse_ebnf(r#"root ::= "a" [0-9]{1,3} ("x" | "y")"#, "root").unwrap();
        let fsa = unroll_grammar_to_fsa(&g, 8, 10_000).unwrap();
        assert!(fsa.accepts(b"a1x"));
        assert!(fsa.accepts(b"a123y"));
        assert!(!fsa.accepts(b"a1234x"));
        assert!(!fsa.accepts(b"ax"));
    }

    #[test]
    fn star_repetition_is_a_loop_not_recursion() {
        let g = parse_ebnf(r#"root ::= "[" [a-z]* "]""#, "root").unwrap();
        let fsa = unroll_grammar_to_fsa(&g, 2, 10_000).unwrap();
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
        let fsa = unroll_grammar_to_fsa(&g, 4, 10_000).unwrap();
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
        let fsa = unroll_grammar_to_fsa(&g, 4, 1_000_000).unwrap();
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
        let err = unroll_grammar_to_fsa(&g, 4, 16).unwrap_err();
        assert!(matches!(err, UnrollError::TooManyStates { .. }));
    }

    #[test]
    fn empty_language_after_truncation_is_an_error() {
        // Every sentence requires at least three levels of nesting.
        let g = parse_ebnf(
            r#"
            root ::= a
            a ::= "(" b ")"
            b ::= "[" c "]"
            c ::= [0-9]
            "#,
            "root",
        )
        .unwrap();
        let err = unroll_grammar_to_fsa(&g, 2, 10_000).unwrap_err();
        assert!(matches!(err, UnrollError::EmptyLanguage { .. }));
    }
}
