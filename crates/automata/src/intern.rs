//! Hashcons interning of PDA states.
//!
//! Thompson construction (even after epsilon elimination and the local node
//! merging of [`crate::optimize`]) leaves the automaton with many states
//! whose *outgoing* structure is identical: same rule, same finality, same
//! edges. Such states are indistinguishable — any word accepted from one is
//! accepted from the other — so they can share a single representative.
//!
//! [`intern_states`] hashconses states bottom-up: each pass keys every node
//! by its structural signature `(rule, is_final, edges)` in a hash table,
//! redirects every reference to a duplicate onto its first (canonical)
//! occurrence, and repeats until a fixpoint — collapsing a duplicated
//! sub-DAG one level per pass. On the live automaton
//! [`build_pda`](crate::build_pda) hands it, that is two or three passes for
//! most JSON-schema grammars (one of `perf`'s five warm schemas takes twelve)
//! and five for the builtin XML grammar. Complementary to
//! `merge_equivalent_nodes`,
//! which merges *successors* of one node locally; interning dedupes
//! structure globally across the whole automaton.

use std::collections::HashMap;

use crate::pda::{NodeId, Pda, PdaEdge, PdaRuleId};

/// Structural signature of a PDA node: two nodes with equal signatures accept
/// exactly the same byte strings (with the same stack effects).
type Signature = (PdaRuleId, bool, Vec<PdaEdge>);

/// Hashconses the states of a PDA in place, then compacts it; returns the
/// number of states merged away.
///
/// Safe unconditionally: only *incoming* references are redirected, and the
/// canonical state has identical outgoing behavior by construction.
///
/// # Examples
///
/// ```
/// use xg_automata::{build_pda, intern_states, PdaBuildOptions};
///
/// // Skip merging so duplicates survive construction.
/// let options = PdaBuildOptions {
///     merge_nodes: false,
///     ..Default::default()
/// };
/// let grammar = xg_grammar::parse_ebnf(
///     r#"root ::= ("ab" | "cb") ("ab" | "cb")"#,
///     "root",
/// ).unwrap();
/// let mut pda = build_pda(&grammar, &options);
/// let before = pda.node_count();
/// assert!(intern_states(&mut pda) > 0);
/// assert!(pda.node_count() < before);
/// ```
pub fn intern_states(pda: &mut Pda) -> usize {
    let mut merged = 0usize;
    // States already redirected in an earlier pass; they are unreferenced and
    // must not re-enter the signature table (they would match their canonical
    // representative forever, preventing the fixpoint from being reached).
    let mut dead = vec![false; pda.nodes.len()];
    loop {
        let mut table: HashMap<Signature, NodeId> = HashMap::with_capacity(pda.nodes.len());
        let mut redirect: Vec<NodeId> = (0..pda.nodes.len() as u32).map(NodeId).collect();
        let mut merged_this_pass = 0usize;
        for (i, node) in pda.nodes.iter().enumerate() {
            if dead[i] {
                continue;
            }
            let sig = (node.rule, node.is_final, node.edges.clone());
            match table.get(&sig) {
                Some(&canonical) => {
                    redirect[i] = canonical;
                    dead[i] = true;
                    merged_this_pass += 1;
                }
                None => {
                    table.insert(sig, NodeId(i as u32));
                }
            }
        }
        if merged_this_pass == 0 {
            break;
        }
        merged += merged_this_pass;
        for node in &mut pda.nodes {
            for edge in &mut node.edges {
                match edge {
                    PdaEdge::Bytes { target, .. } | PdaEdge::Rule { target, .. } => {
                        *target = redirect[target.index()];
                    }
                }
            }
        }
        for rule in &mut pda.rules {
            rule.start = redirect[rule.start.index()];
        }
    }
    if merged > 0 {
        *pda = pda.compact();
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_pda, PdaBuildOptions};
    use crate::exec::SimpleMatcher;

    fn no_merge_options() -> PdaBuildOptions {
        PdaBuildOptions {
            merge_nodes: false,
            ..Default::default()
        }
    }

    #[test]
    fn interning_preserves_the_language() {
        let grammar = xg_grammar::parse_ebnf(
            r#"
            root ::= "[" num ("," num)* "]"
            num  ::= [0-9]+
            "#,
            "root",
        )
        .unwrap();
        let mut pda = build_pda(&grammar, &no_merge_options());
        let reference = pda.clone();
        intern_states(&mut pda);
        assert_eq!(pda.check_consistency(), Ok(()));
        let cases: [&[u8]; 6] = [b"[1]", b"[12,3]", b"[1,2,3]", b"[]", b"[1,]", b"1"];
        for case in cases {
            assert_eq!(
                SimpleMatcher::new(&pda).accepts(case),
                SimpleMatcher::new(&reference).accepts(case),
                "language changed on {case:?}"
            );
        }
    }

    #[test]
    fn duplicate_branches_are_shared() {
        // Two structurally identical alternatives produce duplicated suffix
        // states that the interner collapses.
        let grammar =
            xg_grammar::parse_ebnf(r#"root ::= ("abc" | "xbc") ("abc" | "xbc")"#, "root").unwrap();
        let mut pda = build_pda(&grammar, &no_merge_options());
        let before = pda.node_count();
        let merged = intern_states(&mut pda);
        assert!(merged > 0, "expected duplicate states to merge");
        assert_eq!(pda.node_count(), before - merged);
        assert!(SimpleMatcher::new(&pda).accepts(b"abcxbc"));
        assert!(!SimpleMatcher::new(&pda).accepts(b"abc"));
    }

    #[test]
    fn interning_is_idempotent() {
        let grammar = xg_grammar::builtin::json_grammar();
        let mut pda = build_pda(&grammar, &no_merge_options());
        intern_states(&mut pda);
        let nodes_after_first = pda.node_count();
        assert_eq!(intern_states(&mut pda), 0);
        assert_eq!(pda.node_count(), nodes_after_first);
    }
}
