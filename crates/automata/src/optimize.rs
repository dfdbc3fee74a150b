//! Structural optimizations of the pushdown automaton (paper §3.4).
//!
//! Rule inlining happens at the AST level in [`crate::build`]; this module
//! implements **node merging**: two successor nodes are merged when
//!
//! * they are pointed to by edges with the same label originating from the
//!   same node, and
//! * they are not pointed to by any other edge (and are not rule start
//!   nodes).
//!
//! Merging preserves the recognized language but reduces the number of
//! parallel stacks the executor has to maintain, which directly reduces
//! context-dependent token checking and mask merging work at runtime.

use std::collections::HashMap;

use crate::pda::{NodeId, Pda, PdaEdge};

/// Label key used to group edges for merging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum LabelKey {
    Bytes(u8, u8),
    Rule(u32),
}

fn label_key(edge: &PdaEdge) -> LabelKey {
    match edge {
        PdaEdge::Bytes { range, .. } => LabelKey::Bytes(range.lo, range.hi),
        PdaEdge::Rule { rule, .. } => LabelKey::Rule(rule.0),
    }
}

/// Merges equivalent successor nodes in place until a fixed point is reached
/// (bounded by a small number of passes). Also removes duplicate edges.
///
/// Returns the number of nodes that were merged away.
pub(crate) fn merge_equivalent_nodes(pda: &mut Pda) -> usize {
    let mut total_merged = 0;
    for _ in 0..16 {
        let merged = merge_pass(pda);
        total_merged += merged;
        if merged == 0 {
            break;
        }
    }
    total_merged
}

fn merge_pass(pda: &mut Pda) -> usize {
    let n = pda.nodes.len();
    // In-degree: number of edges pointing at each node; rule starts get an
    // extra count so they are never merged away (they are referenced
    // implicitly by rule-reference edges and by the matcher itself).
    let mut in_degree = vec![0usize; n];
    for node in &pda.nodes {
        for edge in &node.edges {
            in_degree[edge.target().index()] += 1;
        }
    }
    for rule in &pda.rules {
        in_degree[rule.start.index()] += 2;
    }

    // Union-find style redirect table.
    let mut redirect: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
    let mut merged_count = 0usize;

    for source in 0..n {
        // Group this node's edges by label.
        let mut groups: HashMap<LabelKey, Vec<NodeId>> = HashMap::new();
        for edge in &pda.nodes[source].edges {
            groups
                .entry(label_key(edge))
                .or_default()
                .push(edge.target());
        }
        for targets in groups.values() {
            if targets.len() < 2 {
                continue;
            }
            // Candidates: distinct targets with in-degree exactly equal to the
            // number of identical edges from this source (i.e. no other
            // incoming edges), in the same rule, not already redirected.
            let mut counts: HashMap<NodeId, usize> = HashMap::new();
            for t in targets {
                *counts.entry(*t).or_insert(0) += 1;
            }
            let mut mergeable: Vec<NodeId> = counts
                .iter()
                .filter(|(t, c)| {
                    in_degree[t.index()] == **c && redirect[t.index()] == **t && t.index() != source
                })
                .map(|(t, _)| *t)
                .collect();
            mergeable.sort();
            mergeable.dedup();
            if mergeable.len() < 2 {
                continue;
            }
            // All mergeable targets must belong to the same rule (they do by
            // construction, but keep the guard).
            let rule = pda.nodes[mergeable[0].index()].rule;
            if mergeable.iter().any(|t| pda.nodes[t.index()].rule != rule) {
                continue;
            }
            let representative = mergeable[0];
            for &victim in &mergeable[1..] {
                // Move the victim's edges onto the representative.
                let victim_edges = std::mem::take(&mut pda.nodes[victim.index()].edges);
                let victim_final = pda.nodes[victim.index()].is_final;
                let rep = &mut pda.nodes[representative.index()];
                rep.edges.extend(victim_edges);
                rep.is_final |= victim_final;
                redirect[victim.index()] = representative;
                merged_count += 1;
            }
        }
    }

    if merged_count == 0 {
        // Still deduplicate edges so repeated calls converge.
        dedup_edges(pda);
        return 0;
    }

    // Apply redirects (one level is enough: representatives are never
    // redirected within a pass because their in-degree includes the other
    // mergeable siblings' edges... but chase the chain defensively).
    let chase = |mut id: NodeId, redirect: &Vec<NodeId>| -> NodeId {
        for _ in 0..n {
            let next = redirect[id.index()];
            if next == id {
                return id;
            }
            id = next;
        }
        id
    };
    for node in &mut pda.nodes {
        for edge in &mut node.edges {
            match edge {
                PdaEdge::Bytes { target, .. } | PdaEdge::Rule { target, .. } => {
                    *target = chase(*target, &redirect);
                }
            }
        }
    }
    for rule in &mut pda.rules {
        rule.start = chase(rule.start, &redirect);
    }
    dedup_edges(pda);
    merged_count
}

/// Removes duplicate edges (same label and same target) from every node.
fn dedup_edges(pda: &mut Pda) {
    for node in &mut pda.nodes {
        node.edges.sort_by_key(|e| match e {
            PdaEdge::Bytes { range, target } => (0u8, range.lo as u32, range.hi as u32, target.0),
            PdaEdge::Rule { rule, target } => (1u8, rule.0, 0, target.0),
        });
        node.edges.dedup();
    }
}

#[cfg(test)]
mod tests {
    use crate::build::{build_pda, PdaBuildOptions};
    use crate::exec::SimpleMatcher;
    use xg_grammar::parse_ebnf;

    #[test]
    fn merging_reduces_node_count_on_common_prefixes() {
        // Two alternatives share the first character; without merging the
        // matcher forks immediately.
        let g = parse_ebnf(r#"root ::= "ax" | "ay" | "az""#, "root").unwrap();
        let unopt = build_pda(&g, &PdaBuildOptions::unoptimized());
        let opt = build_pda(
            &g,
            &PdaBuildOptions {
                merge_nodes: true,
                inline_rules: false,
            },
        );
        assert!(opt.node_count() < unopt.node_count());
        for input in [&b"ax"[..], b"ay", b"az", b"aw", b"a", b"axx"] {
            assert_eq!(
                SimpleMatcher::new(&opt).accepts(input),
                SimpleMatcher::new(&unopt).accepts(input)
            );
        }
    }

    #[test]
    fn merging_reduces_stack_fanout() {
        let g = parse_ebnf(r#"root ::= "ax" | "ay" | "az""#, "root").unwrap();
        let unopt = build_pda(&g, &PdaBuildOptions::unoptimized());
        let opt = build_pda(
            &g,
            &PdaBuildOptions {
                merge_nodes: true,
                inline_rules: false,
            },
        );
        let mut m_unopt = SimpleMatcher::new(&unopt);
        let mut m_opt = SimpleMatcher::new(&opt);
        m_unopt.advance_bytes(b"a");
        m_opt.advance_bytes(b"a");
        assert!(m_opt.stack_count() <= m_unopt.stack_count());
        assert_eq!(m_opt.stack_count(), 1);
    }

    #[test]
    fn merging_is_idempotent() {
        let g = xg_grammar::builtin::json_grammar();
        let mut pda = build_pda(&g, &PdaBuildOptions::unoptimized());
        let first = super::merge_equivalent_nodes(&mut pda);
        let second = super::merge_equivalent_nodes(&mut pda);
        assert!(first > 0);
        assert_eq!(second, 0);
        assert_eq!(pda.check_consistency(), Ok(()));
    }
}
