//! Byte-level pushdown automaton (PDA) data structure.
//!
//! Following the paper's formulation (Appendix A), the PDA is a collection of
//! per-rule finite-state automata whose edges are labelled either with a byte
//! range (consuming one byte) or with a *rule reference* (pushing the return
//! position onto the stack and jumping to the referenced rule's start state).
//! Node ids are global across all rules, which lets the adaptive token mask
//! cache use the node id directly as its key.

use std::collections::VecDeque;
use std::fmt;

use crate::utf8::ByteRange;

/// Identifier of a PDA node (state), global across all rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the node id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Identifier of a rule automaton inside the PDA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PdaRuleId(pub u32);

impl PdaRuleId {
    /// Returns the rule id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An edge of the PDA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PdaEdge {
    /// Consume one byte inside `range` and move to `target` (same rule).
    Bytes {
        /// Accepted byte range.
        range: ByteRange,
        /// Node reached after consuming the byte.
        target: NodeId,
    },
    /// Recursively enter `rule`; when that rule completes, execution resumes
    /// at `target` (the *return node*, which is pushed onto the stack).
    Rule {
        /// Referenced rule.
        rule: PdaRuleId,
        /// Return node pushed on the stack.
        target: NodeId,
    },
}

impl PdaEdge {
    /// The node this edge leads to (byte target or return node).
    pub fn target(&self) -> NodeId {
        match self {
            PdaEdge::Bytes { target, .. } | PdaEdge::Rule { target, .. } => *target,
        }
    }
}

/// A node (state) of the PDA.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdaNode {
    /// The rule this node belongs to.
    pub rule: PdaRuleId,
    /// Outgoing edges.
    pub edges: Vec<PdaEdge>,
    /// Whether reaching this node completes the rule (pop the stack).
    pub is_final: bool,
}

impl PdaNode {
    /// Returns `true` for a final node without outgoing edges: reaching it
    /// says nothing beyond "return to the parent rule". Above the bottom
    /// stack frame a matcher pops such a node at once, so outside the root
    /// rule it is never the stack top a token mask is asked for.
    pub fn is_pure_return(&self) -> bool {
        self.is_final && self.edges.is_empty()
    }
}

/// Per-rule metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdaRule {
    /// Rule name (as in the source grammar, or synthesized during inlining).
    pub name: String,
    /// Start node of the rule's automaton.
    pub start: NodeId,
}

/// Structural statistics of a PDA, printed by
/// `examples/grammar_playground.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PdaStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of byte edges.
    pub byte_edges: usize,
    /// Number of rule-reference edges.
    pub rule_edges: usize,
    /// Number of rules.
    pub rules: usize,
}

/// A byte-level pushdown automaton compiled from a grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pda {
    pub(crate) nodes: Vec<PdaNode>,
    pub(crate) rules: Vec<PdaRule>,
    pub(crate) root: PdaRuleId,
}

impl Pda {
    /// Returns the node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn node(&self, id: NodeId) -> &PdaNode {
        &self.nodes[id.index()]
    }

    /// Returns all nodes, indexed by [`NodeId`].
    pub fn nodes(&self) -> &[PdaNode] {
        &self.nodes
    }

    /// Returns the rule with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn rule(&self, id: PdaRuleId) -> &PdaRule {
        &self.rules[id.index()]
    }

    /// Returns all rules, indexed by [`PdaRuleId`].
    pub fn rules(&self) -> &[PdaRule] {
        &self.rules
    }

    /// Returns the root rule id.
    pub fn root(&self) -> PdaRuleId {
        self.root
    }

    /// Returns the start node of the root rule.
    pub fn root_start(&self) -> NodeId {
        self.rules[self.root.index()].start
    }

    /// Returns the number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Estimated heap memory: a fixed 96 bytes per node, the figure every
    /// compiled artifact that holds a PDA charges for it.
    pub fn memory_bytes(&self) -> usize {
        self.nodes.len() * 96
    }

    /// Computes structural statistics.
    pub fn stats(&self) -> PdaStats {
        let mut stats = PdaStats {
            nodes: self.nodes.len(),
            rules: self.rules.len(),
            ..Default::default()
        };
        for node in &self.nodes {
            for edge in &node.edges {
                match edge {
                    PdaEdge::Bytes { .. } => stats.byte_edges += 1,
                    PdaEdge::Rule { .. } => stats.rule_edges += 1,
                }
            }
        }
        stats
    }

    /// Removes nodes that are unreachable from any rule start reachable from
    /// the root rule, renumbering the survivors. Rules that become
    /// unreachable are removed as well.
    pub fn compact(&self) -> Pda {
        // 1. Which rules are reachable from the root?
        let mut rule_reachable = vec![false; self.rules.len()];
        let mut queue = VecDeque::new();
        rule_reachable[self.root.index()] = true;
        queue.push_back(self.root);
        // Reachability of rules requires walking nodes, so interleave the two
        // searches: first collect node-level reachability per reachable rule.
        let mut node_reachable = vec![false; self.nodes.len()];
        while let Some(rule_id) = queue.pop_front() {
            let start = self.rules[rule_id.index()].start;
            let mut node_queue = VecDeque::new();
            if !node_reachable[start.index()] {
                node_reachable[start.index()] = true;
                node_queue.push_back(start);
            }
            while let Some(n) = node_queue.pop_front() {
                for edge in &self.nodes[n.index()].edges {
                    if let PdaEdge::Rule { rule, .. } = edge {
                        if !rule_reachable[rule.index()] {
                            rule_reachable[rule.index()] = true;
                            queue.push_back(*rule);
                        }
                    }
                    let t = edge.target();
                    if !node_reachable[t.index()] {
                        node_reachable[t.index()] = true;
                        node_queue.push_back(t);
                    }
                }
            }
        }

        // 2. Renumber rules and nodes.
        let mut rule_map = vec![PdaRuleId(u32::MAX); self.rules.len()];
        let mut new_rules = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            if rule_reachable[i] {
                rule_map[i] = PdaRuleId(new_rules.len() as u32);
                new_rules.push(rule.clone());
            }
        }
        let mut node_map = vec![NodeId(u32::MAX); self.nodes.len()];
        let mut new_nodes = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            if node_reachable[i] {
                node_map[i] = NodeId(new_nodes.len() as u32);
                new_nodes.push(node.clone());
            }
        }
        // 3. Rewrite edges and rule starts.
        for node in &mut new_nodes {
            node.rule = rule_map[node.rule.index()];
            for edge in &mut node.edges {
                match edge {
                    PdaEdge::Bytes { target, .. } => *target = node_map[target.index()],
                    PdaEdge::Rule { rule, target } => {
                        *rule = rule_map[rule.index()];
                        *target = node_map[target.index()];
                    }
                }
            }
        }
        for rule in &mut new_rules {
            rule.start = node_map[rule.start.index()];
        }
        Pda {
            nodes: new_nodes,
            rules: new_rules,
            root: rule_map[self.root.index()],
        }
    }

    /// Checks internal consistency (all edge targets in range, rule starts
    /// belong to their rule). Used by tests and debug assertions.
    pub(crate) fn check_consistency(&self) -> Result<(), String> {
        for (i, rule) in self.rules.iter().enumerate() {
            let start = rule.start;
            if start.index() >= self.nodes.len() {
                return Err(format!("rule {i} start out of range"));
            }
            if self.nodes[start.index()].rule.index() != i {
                return Err(format!("rule {i} start node belongs to another rule"));
            }
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.rule.index() >= self.rules.len() {
                return Err(format!("node {i} belongs to unknown rule"));
            }
            for edge in &node.edges {
                if edge.target().index() >= self.nodes.len() {
                    return Err(format!("node {i} has an edge to an unknown node"));
                }
                if let PdaEdge::Rule { rule, .. } = edge {
                    if rule.index() >= self.rules.len() {
                        return Err(format!("node {i} references an unknown rule"));
                    }
                }
                if self.nodes[edge.target().index()].rule != node.rule {
                    return Err(format!("node {i} has an edge crossing rule boundaries"));
                }
            }
        }
        Ok(())
    }
}
