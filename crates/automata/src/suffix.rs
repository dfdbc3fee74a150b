//! The *expanded suffix* automaton of context expansion (paper §3.2,
//! Algorithm 2).
//!
//! For a rule `R`, the expanded suffixes of `R` over-approximate the byte
//! strings that can immediately follow a completed match of `R` in some
//! parent context. A context-dependent token whose remaining part after
//! completing `R` can neither be a prefix of an expanded suffix nor start with
//! one is certainly invalid and is reclassified as context-independent
//! (rejected) during preprocessing.
//!
//! Every rule's expanded suffixes are read off one ε-free automaton per
//! grammar, a [`SuffixAutomaton`]. Its states are PDA nodes, plus one entry
//! state per rule, and it is built from the PDA's own edges:
//!
//! * a node's byte edges are the PDA's;
//! * a node with a rule-reference edge has an ε-edge to the referenced rule's
//!   start: the walk descends into the rule;
//! * a rule's final node has an ε-edge to every return site of that rule: the
//!   walk follows the pop into every parent context;
//! * the final node of a rule nobody references accepts, except for the
//!   root's: after the root completes, generation ends and no byte may follow.
//!
//! The walk forgets which site a rule was entered from, so a pop reaches
//! every return site of the rule, the true one among them: the expanded
//! suffixes over-approximate the real continuations, which keeps the
//! rejection sound, and the states stay PDA nodes, so no depth bound is
//! needed.
//!
//! A rule's entry state is the union of the ε-closures of its return sites,
//! so a rule nobody references (the root) has an entry that accepts nothing.
//! The ε-edges are eliminated as the automaton is built: a state's edges are
//! the byte edges of its closure, and it accepts if its closure holds an
//! accepting node. A state is a node some rule's expanded suffixes reach, so
//! the walk from a rule's entry is the same whichever rule reached the node.

use crate::fsa::{Fsa, StateId};
use crate::pda::{NodeId, Pda, PdaEdge, PdaRuleId};

/// The expanded-suffix automaton of every rule of a PDA: one ε-free [`Fsa`]
/// over the PDA's nodes, entered at a state of its own per rule (see the
/// module documentation).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuffixAutomaton {
    fsa: Fsa,
    /// Per rule, by [`PdaRuleId`], the state its expanded suffixes start at.
    entries: Vec<StateId>,
}

impl SuffixAutomaton {
    /// The automaton every rule's expanded suffixes are read off.
    pub fn fsa(&self) -> &Fsa {
        &self.fsa
    }

    /// The state `rule`'s expanded suffixes start at.
    ///
    /// # Panics
    ///
    /// Panics if the rule is not one of the PDA's.
    pub fn entry(&self, rule: PdaRuleId) -> StateId {
        self.entries[rule.index()]
    }
}

/// Builds the expanded-suffix automaton of every rule of the PDA.
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
/// let suffixes = extract_all_suffix_fsas(&pda);
/// let (fsa, entry) = (suffixes.fsa(), suffixes.entry(xg_automata::PdaRuleId(item as u32)));
/// // After an item, either a comma (then another item) or `]` may follow.
/// assert!(fsa.match_remaining(entry, b",") == SuffixMatch::Possible);
/// assert!(fsa.match_remaining(entry, b"]") == SuffixMatch::Possible);
/// assert!(fsa.match_remaining(entry, b"}") == SuffixMatch::Rejected);
/// ```
pub fn extract_all_suffix_fsas(pda: &Pda) -> SuffixAutomaton {
    let mut return_sites: Vec<Vec<NodeId>> = vec![Vec::new(); pda.rules().len()];
    for edge in pda.nodes().iter().flat_map(|node| &node.edges) {
        if let PdaEdge::Rule { rule, target } = edge {
            return_sites[rule.index()].push(*target);
        }
    }
    let mut fsa = Fsa::new();
    let entries: Vec<StateId> = (0..return_sites.len())
        .map(|rule| match rule {
            0 => fsa.start(),
            _ => fsa.add_state(),
        })
        .collect();
    let mut builder = Builder {
        pda,
        fsa,
        state_of: vec![None; pda.node_count()],
        pending: Vec::new(),
        closed_for: vec![u32::MAX; pda.node_count()],
        closure: Vec::new(),
    };
    for (sites, &entry) in return_sites.iter().zip(&entries) {
        builder.close(entry, sites, &return_sites);
    }
    while let Some((node, state)) = builder.pending.pop() {
        builder.close(state, &[node], &return_sites);
    }
    SuffixAutomaton {
        fsa: builder.fsa,
        entries,
    }
}

/// The automaton under construction.
struct Builder<'a> {
    pda: &'a Pda,
    fsa: Fsa,
    /// The state of each node, once a byte edge of some closure reaches it.
    state_of: Vec<Option<StateId>>,
    /// Nodes given a state whose closure is not taken yet, with the state.
    pending: Vec<(NodeId, StateId)>,
    /// `closed_for[n]`: the state whose closure last took node `n`. Each
    /// state's closure is taken once, so no mark is ever cleared.
    closed_for: Vec<u32>,
    /// Depth-first work list of [`close`](Self::close).
    closure: Vec<NodeId>,
}

impl Builder<'_> {
    /// Gives `state` the byte edges and the finality of the ε-closure of
    /// `seeds`.
    fn close(&mut self, state: StateId, seeds: &[NodeId], return_sites: &[Vec<NodeId>]) {
        let pda = self.pda;
        for &seed in seeds {
            self.enter(state, seed);
        }
        while let Some(id) = self.closure.pop() {
            let node = pda.node(id);
            for edge in &node.edges {
                match edge {
                    PdaEdge::Bytes { range, target } => {
                        let to = match self.state_of[target.index()] {
                            Some(to) => to,
                            None => {
                                let to = self.fsa.add_state();
                                self.pending.push((*target, to));
                                *self.state_of[target.index()].insert(to)
                            }
                        };
                        self.fsa.add_edge(state, *range, to);
                    }
                    // Descend into the referenced rule; its final nodes pop
                    // to the edge's target among its other return sites.
                    PdaEdge::Rule { rule, .. } => self.enter(state, pda.rule(*rule).start),
                }
            }
            if node.is_final {
                // Follow the pop into every site referencing the completed
                // rule. Nothing references the root (generation ends) or a
                // dead rule (accept conservatively).
                let sites = &return_sites[node.rule.index()];
                if sites.is_empty() && node.rule != pda.root() {
                    self.fsa.set_final(state, true);
                }
                for &site in sites {
                    self.enter(state, site);
                }
            }
        }
    }

    /// Adds `node` to the closure being taken for `state`, unless it is in.
    fn enter(&mut self, state: StateId, node: NodeId) {
        let mark = &mut self.closed_for[node.index()];
        if *mark != state.0 {
            *mark = state.0;
            self.closure.push(node);
        }
    }
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

    /// One rule's expanded suffixes: the grammar's automaton, entered at
    /// the rule's state.
    struct RuleSuffixes {
        automaton: SuffixAutomaton,
        entry: StateId,
    }

    impl RuleSuffixes {
        fn match_remaining(&self, remaining: &[u8]) -> SuffixMatch {
            self.automaton.fsa().match_remaining(self.entry, remaining)
        }

        fn has_reachable_final_state(&self) -> bool {
            self.automaton.fsa().reaches_a_final_state(self.entry)
        }
    }

    /// The expanded suffix automaton of one rule.
    fn extract_suffix_fsa(pda: &Pda, rule: PdaRuleId) -> RuleSuffixes {
        let automaton = extract_all_suffix_fsas(pda);
        let entry = automaton.entry(rule);
        RuleSuffixes { automaton, entry }
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
    fn suffix_follows_rule_references() {
        // After `item`, the continuation is ";" then a `tail`: the walk
        // descends into `tail`, so only a digit may follow the ";".
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
        assert_eq!(fsa.match_remaining(b";0"), SuffixMatch::Possible);
        assert_eq!(fsa.match_remaining(b";x"), SuffixMatch::Rejected);
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
        let automaton = extract_all_suffix_fsas(&pda);
        let entries = (0..pda.rules().len()).map(|r| automaton.entry(PdaRuleId(r as u32)));
        let states: std::collections::BTreeSet<StateId> = entries.collect();
        assert_eq!(states.len(), pda.rules().len());
    }
}
