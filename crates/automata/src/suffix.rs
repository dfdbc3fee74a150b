//! Extraction of *expanded suffix* automata for context expansion
//! (paper §3.2, Algorithm 2).
//!
//! For a rule `R`, the expanded suffix automaton `A_ctx(R)` over-approximates
//! the set of byte strings that can immediately follow a completed match of
//! `R` in some parent context. A context-dependent token whose remaining part
//! after completing `R` can neither be a prefix of a string in `A_ctx(R)` nor
//! start with one is certainly invalid and is reclassified as
//! context-independent (rejected) during preprocessing.
//!
//! Following Algorithm 2, the extraction walks the parent rules' automata
//! along character (byte) edges only and stops — conservatively accepting —
//! at nodes that carry rule-reference edges (their continuation would require
//! descending into another rule). Two refinements are applied on top of the
//! paper's formulation, both of which only make the approximation tighter
//! while remaining sound:
//!
//! * when the walk reaches the **end of a parent rule**, it follows the
//!   "pop": it continues from every site that references that parent rule
//!   (rather than conservatively accepting everything), and
//! * a final node of an **unreferenced root rule** contributes nothing: after
//!   the root completes, the generation ends and no byte may follow.

use std::collections::HashMap;

use crate::fsa::{Fsa, StateId};
use crate::pda::{NodeId, Pda, PdaEdge, PdaRuleId};
use crate::utf8::ByteRange;

/// Extracts the expanded suffix automaton of every rule of the PDA, indexed
/// by [`PdaRuleId`].
///
/// If no edge in the PDA references a rule (it is only used as the root),
/// its automaton accepts nothing: after the root rule completes, no further
/// bytes may follow.
///
/// # Examples
///
/// ```
/// use xg_automata::{build_pda, extract_all_suffix_fsas, PdaBuildOptions, SuffixMatch};
///
/// let grammar = xg_grammar::parse_ebnf(r#"
///     root ::= "[" item ("," item)* "]"
///     item ::= [a-z]+
/// "#, "root").unwrap();
/// let pda = build_pda(&grammar, &PdaBuildOptions { inline_rules: false, ..Default::default() });
/// let item = pda.rules().iter().position(|r| r.name == "item").unwrap();
/// let fsa = &extract_all_suffix_fsas(&pda)[item];
/// // After an item, either a comma (then another item) or `]` may follow.
/// assert!(fsa.match_remaining(b",") == SuffixMatch::Possible);
/// assert!(fsa.match_remaining(b"]") == SuffixMatch::Possible);
/// assert!(fsa.match_remaining(b"}") == SuffixMatch::Rejected);
/// ```
pub fn extract_all_suffix_fsas(pda: &Pda) -> Vec<Fsa> {
    let extractor = Extractor::new(pda);
    (0..pda.rules().len())
        .map(|i| extractor.extract(PdaRuleId(i as u32)))
        .collect()
}

/// Temporary graph node used before epsilon elimination.
#[derive(Debug, Default, Clone)]
struct TmpState {
    byte_edges: Vec<(ByteRange, usize)>,
    eps_edges: Vec<usize>,
    is_final: bool,
}

struct Extractor<'a> {
    pda: &'a Pda,
    /// For every rule, the list of return targets of edges referencing it.
    referencing_targets: Vec<Vec<NodeId>>,
    root_referenced: bool,
}

impl<'a> Extractor<'a> {
    fn new(pda: &'a Pda) -> Self {
        let mut referencing_targets: Vec<Vec<NodeId>> = vec![Vec::new(); pda.rules().len()];
        for node in pda.nodes() {
            for edge in &node.edges {
                if let PdaEdge::Rule { rule, target } = edge {
                    referencing_targets[rule.index()].push(*target);
                }
            }
        }
        let root_referenced = !referencing_targets[pda.root().index()].is_empty();
        Extractor {
            pda,
            referencing_targets,
            root_referenced,
        }
    }

    fn extract(&self, rule: PdaRuleId) -> Fsa {
        // Temporary graph: state 0 is the synthetic start; PDA nodes are
        // mapped lazily.
        let mut states: Vec<TmpState> = vec![TmpState::default()];
        let mut mapping: HashMap<NodeId, usize> = HashMap::new();
        let mut worklist: Vec<NodeId> = Vec::new();

        let get_state = |node: NodeId,
                         states: &mut Vec<TmpState>,
                         mapping: &mut HashMap<NodeId, usize>,
                         worklist: &mut Vec<NodeId>| {
            *mapping.entry(node).or_insert_with(|| {
                states.push(TmpState::default());
                worklist.push(node);
                states.len() - 1
            })
        };

        for &target in &self.referencing_targets[rule.index()] {
            let s = get_state(target, &mut states, &mut mapping, &mut worklist);
            states[0].eps_edges.push(s);
        }

        while let Some(node_id) = worklist.pop() {
            let state_idx = mapping[&node_id];
            let node = self.pda.node(node_id);
            let has_rule_edge = node.edges.iter().any(|e| matches!(e, PdaEdge::Rule { .. }));
            if has_rule_edge {
                // The continuation descends into another rule, which the
                // extraction does not follow: accept conservatively.
                states[state_idx].is_final = true;
                continue;
            }
            for edge in &node.edges {
                if let PdaEdge::Bytes { range, target } = edge {
                    let t = get_state(*target, &mut states, &mut mapping, &mut worklist);
                    states[state_idx].byte_edges.push((*range, t));
                }
            }
            if node.is_final {
                let node_rule = node.rule;
                if node_rule == self.pda.root() && !self.root_referenced {
                    // End of generation: contributes nothing.
                } else {
                    // Follow the pop: continue from every site referencing the
                    // completed parent rule. If nothing references it (dead
                    // rule), fall back to accepting conservatively.
                    let targets = &self.referencing_targets[node_rule.index()];
                    if targets.is_empty() && node_rule != self.pda.root() {
                        states[state_idx].is_final = true;
                    }
                    for &target in targets {
                        let t = get_state(target, &mut states, &mut mapping, &mut worklist);
                        states[state_idx].eps_edges.push(t);
                    }
                }
            }
        }

        eliminate_epsilon_to_fsa(&states)
    }
}

/// Converts the temporary epsilon-carrying graph into an epsilon-free
/// [`Fsa`]: each state's edges become the union of the byte edges of its
/// epsilon closure, and a state is final if its closure contains a final
/// state.
fn eliminate_epsilon_to_fsa(states: &[TmpState]) -> Fsa {
    let n = states.len();
    let mut fsa = Fsa::new();
    // State 0 maps to the FSA start; the rest are appended in order.
    let ids: Vec<StateId> = (0..n)
        .map(|i| if i == 0 { fsa.start() } else { fsa.add_state() })
        .collect();
    for (i, id) in ids.iter().enumerate() {
        // Epsilon closure of i.
        let mut visited = vec![false; n];
        let mut stack = vec![i];
        visited[i] = true;
        let mut is_final = false;
        while let Some(cur) = stack.pop() {
            if states[cur].is_final {
                is_final = true;
            }
            for &(range, target) in &states[cur].byte_edges {
                fsa.add_edge(*id, range, ids[target]);
            }
            for &next in &states[cur].eps_edges {
                if !visited[next] {
                    visited[next] = true;
                    stack.push(next);
                }
            }
        }
        fsa.set_final(*id, is_final);
    }
    fsa
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_pda, PdaBuildOptions};
    use crate::fsa::SuffixMatch;

    fn no_inline() -> PdaBuildOptions {
        PdaBuildOptions {
            inline_rules: false,
            ..Default::default()
        }
    }

    fn rule_id(pda: &Pda, name: &str) -> PdaRuleId {
        PdaRuleId(
            pda.rules()
                .iter()
                .position(|r| r.name == name)
                .unwrap_or_else(|| panic!("rule {name} not found")) as u32,
        )
    }

    /// The expanded suffix automaton of one rule.
    fn extract_suffix_fsa(pda: &Pda, rule: PdaRuleId) -> Fsa {
        Extractor::new(pda).extract(rule)
    }

    #[test]
    fn paper_example_array_of_strings() {
        // The grammar of Figure 3: after a string inside an array, the only
        // valid continuations start with `,` or `]`; free text is rejected.
        let g = xg_grammar::parse_ebnf(
            r#"
            main ::= array | str
            array ::= "[" ((str | array) ",")* (str | array) "]"
            str ::= "\"" [^"\\]* "\""
            "#,
            "main",
        )
        .unwrap();
        let pda = build_pda(&g, &no_inline());
        let fsa = extract_suffix_fsa(&pda, rule_id(&pda, "str"));
        assert_eq!(fsa.match_remaining(b","), SuffixMatch::Possible);
        assert_eq!(fsa.match_remaining(b"]"), SuffixMatch::Possible);
        assert_eq!(fsa.match_remaining(b",\""), SuffixMatch::Possible);
        // `ab` after closing a string can never be valid.
        assert_eq!(fsa.match_remaining(b"ab"), SuffixMatch::Rejected);
        assert_eq!(fsa.match_remaining(b"a\"b"), SuffixMatch::Rejected);
    }

    #[test]
    fn root_rule_has_empty_suffix_language() {
        let g = xg_grammar::parse_ebnf(
            r#"
            root ::= "a" inner
            inner ::= "b"
            "#,
            "root",
        )
        .unwrap();
        let pda = build_pda(&g, &no_inline());
        let fsa = extract_suffix_fsa(&pda, rule_id(&pda, "root"));
        // Nothing references root, so any remaining bytes are rejected.
        assert_eq!(fsa.match_remaining(b"x"), SuffixMatch::Rejected);
        assert!(!fsa.has_reachable_final_state());
    }

    #[test]
    fn suffix_stops_at_rule_references() {
        // After `item`, the continuation is ";" then another rule reference;
        // the extraction must include ";" and stop there.
        let g = xg_grammar::parse_ebnf(
            r#"
            root ::= item ";" tail
            item ::= [a-z]+
            tail ::= [0-9]+
            "#,
            "root",
        )
        .unwrap();
        let pda = build_pda(&g, &no_inline());
        let fsa = extract_suffix_fsa(&pda, rule_id(&pda, "item"));
        assert_eq!(fsa.match_remaining(b";"), SuffixMatch::Possible);
        // After ";" the continuation enters `tail`, which is unknown to the
        // extraction, so anything after ";" remains possible.
        assert_eq!(fsa.match_remaining(b";x"), SuffixMatch::Possible);
        assert_eq!(fsa.match_remaining(b"0"), SuffixMatch::Rejected);
    }

    #[test]
    fn pop_following_refines_rules_referenced_at_parent_ends() {
        // `val` is referenced at the very end of `pair`; a plain Algorithm-2
        // extraction would accept everything after `val`. Following the pop
        // into `obj` shows that only `,` or `}` can follow.
        let g = xg_grammar::parse_ebnf(
            r#"
            root ::= obj
            obj ::= "{" (pair ("," pair)*)? "}"
            pair ::= "\"" [a-z]+ "\"" ":" val
            val ::= "\"" [a-z]* "\"" | [0-9]+
            "#,
            "root",
        )
        .unwrap();
        let pda = build_pda(&g, &no_inline());
        let fsa = extract_suffix_fsa(&pda, rule_id(&pda, "val"));
        assert_eq!(fsa.match_remaining(b","), SuffixMatch::Possible);
        assert_eq!(fsa.match_remaining(b"}"), SuffixMatch::Possible);
        assert_eq!(fsa.match_remaining(b",\"key"), SuffixMatch::Possible);
        assert_eq!(fsa.match_remaining(b"abc"), SuffixMatch::Rejected);
        assert_eq!(fsa.match_remaining(b":"), SuffixMatch::Rejected);
    }

    #[test]
    fn recursive_pop_chains_terminate() {
        // Deep mutual recursion where every rule ends with a reference to the
        // next; extraction must terminate and stay sound.
        let g = xg_grammar::parse_ebnf(
            r#"
            root ::= a "!"
            a ::= "x" b | "x"
            b ::= "y" a | "y"
            "#,
            "root",
        )
        .unwrap();
        let pda = build_pda(&g, &no_inline());
        for name in ["a", "b"] {
            let fsa = extract_suffix_fsa(&pda, rule_id(&pda, name));
            // `!` eventually follows every completed a/b chain.
            assert_eq!(fsa.match_remaining(b"!"), SuffixMatch::Possible);
            assert_eq!(fsa.match_remaining(b"q"), SuffixMatch::Rejected);
        }
    }

    #[test]
    fn all_suffix_fsas_cover_every_rule() {
        let g = xg_grammar::builtin::json_grammar();
        let pda = build_pda(&g, &no_inline());
        let fsas = extract_all_suffix_fsas(&pda);
        assert_eq!(fsas.len(), pda.rules().len());
    }
}
