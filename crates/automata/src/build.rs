//! Compilation of a [`Grammar`] into a byte-level [`Pda`].
//!
//! The pipeline is:
//!
//! 1. **Rule inlining** (paper §3.4): small "fragment" rules that do not
//!    reference other rules are substituted into their parents, which both
//!    reduces stack traffic at runtime and makes context expansion more
//!    effective.
//! 2. **Thompson construction** with temporary epsilon edges, for the rules
//!    the root reaches and no others; every character class is lowered to
//!    byte level through the UTF-8 range compiler.
//! 3. **Epsilon elimination** from each rule's start outward, leaving only
//!    byte and rule-reference edges and only the nodes the start reaches.
//!    Steps 2–3 emit the live automaton as a compact arena: rules in grammar
//!    order, each rule's nodes in construction order.
//! 4. Optional **node merging** (paper §3.4) and hash-cons interning of that
//!    live automaton, then compaction of the nodes they merged away.

use xg_grammar::{Grammar, GrammarBuilder, GrammarExpr, RuleId};

use crate::intern::intern_states;
use crate::optimize::merge_equivalent_nodes;
use crate::pda::{NodeId, Pda, PdaEdge, PdaNode, PdaRule, PdaRuleId};
use crate::utf8::{utf8_sequences, ByteRange};

/// Options controlling PDA construction, mirroring the ablation axes of the
/// paper's Table 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PdaBuildOptions {
    /// Inline small fragment rules into their parents (paper §3.4).
    pub inline_rules: bool,
    /// Merge equivalent successor nodes to reduce stack splitting
    /// (paper §3.4).
    pub merge_nodes: bool,
}

impl Default for PdaBuildOptions {
    fn default() -> Self {
        PdaBuildOptions {
            inline_rules: true,
            merge_nodes: true,
        }
    }
}

impl PdaBuildOptions {
    /// Options with every optimization disabled (the "PDA baseline" row of
    /// the ablation study).
    pub fn unoptimized() -> Self {
        PdaBuildOptions {
            inline_rules: false,
            merge_nodes: false,
        }
    }
}

/// Compiles a grammar into a byte-level PDA with the given options.
///
/// # Examples
///
/// ```
/// use xg_automata::{build_pda, PdaBuildOptions};
///
/// let grammar = xg_grammar::builtin::json_grammar();
/// let pda = build_pda(&grammar, &PdaBuildOptions::default());
/// assert!(pda.node_count() > 10);
/// ```
pub fn build_pda(grammar: &Grammar, options: &PdaBuildOptions) -> Pda {
    let mut pda = live_automaton(grammar, options);
    debug_assert_eq!(pda.check_consistency(), Ok(()));
    if !options.merge_nodes {
        return pda;
    }
    merge_equivalent_nodes(&mut pda);
    debug_assert_eq!(pda.check_consistency(), Ok(()));
    // Hashcons interning: collapse globally duplicated states (identical
    // rule/finality/edges) that the local merge above cannot see.
    intern_states(&mut pda);
    let pda = pda.compact();
    debug_assert_eq!(pda.check_consistency(), Ok(()));
    pda
}

/// The automaton [`build_pda`] hands to its optimiser: the (inlined)
/// grammar's live rules and nodes, already compact.
pub(crate) fn live_automaton(grammar: &Grammar, options: &PdaBuildOptions) -> Pda {
    if options.inline_rules {
        PdaBuilder::new(&inline_fragment_rules(grammar)).build()
    } else {
        PdaBuilder::new(grammar).build()
    }
}

/// Compiles a grammar with default options.
pub fn build_pda_default(grammar: &Grammar) -> Pda {
    build_pda(grammar, &PdaBuildOptions::default())
}

// ---------------------------------------------------------------------------
// Rule inlining (AST level)
// ---------------------------------------------------------------------------

fn expr_size(expr: &GrammarExpr) -> usize {
    match expr {
        GrammarExpr::Empty | GrammarExpr::RuleRef(_) => 1,
        GrammarExpr::Literal(bytes) => 1 + bytes.len() / 4,
        GrammarExpr::CharClass(_) | GrammarExpr::ByteClass(_) => 2,
        GrammarExpr::Sequence(items) | GrammarExpr::Choice(items) => {
            1 + items.iter().map(expr_size).sum::<usize>()
        }
        GrammarExpr::Repeat { expr, min, .. } => {
            // Bounded repetitions are expanded during construction.
            1 + expr_size(expr) * (*min).max(1) as usize
        }
    }
}

/// The rules `expr` references, sorted and without repeats.
fn references(expr: &GrammarExpr) -> Vec<RuleId> {
    let mut out = Vec::new();
    expr.for_each_rule_ref(&mut |id| out.push(id));
    out.sort_unstable();
    out.dedup();
    out
}

fn substitute(expr: &GrammarExpr, target: RuleId, replacement: &GrammarExpr) -> GrammarExpr {
    match expr {
        GrammarExpr::RuleRef(id) if *id == target => replacement.clone(),
        GrammarExpr::Sequence(items) => GrammarExpr::Sequence(
            items
                .iter()
                .map(|e| substitute(e, target, replacement))
                .collect(),
        ),
        GrammarExpr::Choice(items) => GrammarExpr::Choice(
            items
                .iter()
                .map(|e| substitute(e, target, replacement))
                .collect(),
        ),
        GrammarExpr::Repeat { expr, min, max } => GrammarExpr::Repeat {
            expr: Box::new(substitute(expr, target, replacement)),
            min: *min,
            max: *max,
        },
        other => other.clone(),
    }
}

/// Maximum AST size (expression node count) of a rule eligible for inlining.
const MAX_INLINE_RULE_SIZE: usize = 48;
/// Maximum AST size a rule body may reach through inlining.
const MAX_INLINED_BODY_SIZE: usize = 4096;

/// Inlines fragment rules (small rules without references to other rules)
/// into their parents. The root rule is never inlined away; size limits keep
/// the automaton from exploding, as described in the paper.
pub fn inline_fragment_rules(grammar: &Grammar) -> Grammar {
    let mut bodies: Vec<GrammarExpr> = grammar.rules().iter().map(|r| r.body.clone()).collect();
    let names: Vec<String> = grammar.rules().iter().map(|r| r.name.clone()).collect();
    let root = grammar.root();
    // Each body's references, counted once. Only leaves are inlined, and a
    // leaf references nothing, so substituting one removes exactly it.
    let mut refs: Vec<Vec<RuleId>> = bodies.iter().map(references).collect();

    // A few passes are enough in practice: each pass inlines the current
    // leaves, which may turn their parents into leaves for the next pass.
    for _ in 0..8 {
        let inlinable: Vec<RuleId> = (0..bodies.len())
            .map(|i| RuleId(i as u32))
            .filter(|&id| {
                id != root
                    && refs[id.index()].is_empty()
                    && expr_size(&bodies[id.index()]) <= MAX_INLINE_RULE_SIZE
            })
            .collect();
        if inlinable.is_empty() {
            break;
        }
        let mut changed = false;
        for target in inlinable {
            let replacement = bodies[target.index()].clone();
            for (body, refs) in bodies.iter_mut().zip(&mut refs) {
                let Ok(at) = refs.binary_search(&target) else {
                    continue;
                };
                let candidate = substitute(body, target, &replacement);
                if expr_size(&candidate) <= MAX_INLINED_BODY_SIZE {
                    *body = candidate;
                    refs.remove(at);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Rebuild the grammar with the new bodies; rule ids are preserved because
    // rules are re-added in the original order. Rules left unreferenced stay
    // in the grammar; the PDA build skips them.
    let mut builder = GrammarBuilder::new();
    for name in &names {
        builder.declare(name);
    }
    for (i, body) in bodies.into_iter().enumerate() {
        builder.set_body(RuleId(i as u32), body);
    }
    builder
        .build(&names[root.index()])
        .expect("re-building an already valid grammar cannot fail")
}

// ---------------------------------------------------------------------------
// Thompson construction with epsilon edges, then epsilon elimination
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy)]
enum TmpEdge {
    Eps(usize),
    Bytes(ByteRange, usize),
    Rule(u32, usize),
}

#[derive(Debug, Default, Clone)]
struct TmpNode {
    edges: Vec<TmpEdge>,
    is_final: bool,
}

struct PdaBuilder<'a> {
    grammar: &'a Grammar,
}

impl<'a> PdaBuilder<'a> {
    fn new(grammar: &'a Grammar) -> Self {
        PdaBuilder { grammar }
    }

    /// Builds the rules the root reaches, found through the rule edges of
    /// the ones already built, and lays them out as a compact arena.
    fn build(&self) -> Pda {
        let rules = self.grammar.rules();
        let mut built: Vec<Option<Vec<TmpNode>>> = vec![None; rules.len()];
        let mut pending = vec![self.grammar.root()];
        while let Some(id) = pending.pop() {
            if built[id.index()].is_some() {
                continue;
            }
            let nodes = eliminate_epsilon(&self.build_rule(&rules[id.index()].body));
            for edge in nodes.iter().flat_map(|node| &node.edges) {
                if let TmpEdge::Rule(r, _) = *edge {
                    if built[r as usize].is_none() {
                        pending.push(RuleId(r));
                    }
                }
            }
            built[id.index()] = Some(nodes);
        }

        // Live rules keep their grammar order.
        let mut pda_rule = vec![PdaRuleId(u32::MAX); rules.len()];
        let mut live = 0;
        for (slot, nodes) in pda_rule.iter_mut().zip(&built) {
            if nodes.is_some() {
                *slot = PdaRuleId(live);
                live += 1;
            }
        }
        let mut pda = Pda {
            nodes: Vec::new(),
            rules: Vec::with_capacity(live as usize),
            root: pda_rule[self.grammar.root().index()],
        };
        for (i, eliminated) in built.into_iter().enumerate() {
            let Some(eliminated) = eliminated else {
                continue;
            };
            // Append the rule's nodes to the global arena; its start is its
            // first node.
            let offset = pda.nodes.len() as u32;
            pda.rules.push(PdaRule {
                name: rules[i].name.clone(),
                start: NodeId(offset),
            });
            for tmp in eliminated {
                let edges = tmp
                    .edges
                    .iter()
                    .map(|e| match *e {
                        TmpEdge::Bytes(range, t) => PdaEdge::Bytes {
                            range,
                            target: NodeId(offset + t as u32),
                        },
                        TmpEdge::Rule(r, t) => PdaEdge::Rule {
                            rule: pda_rule[r as usize],
                            target: NodeId(offset + t as u32),
                        },
                        TmpEdge::Eps(_) => unreachable!("epsilon edges were eliminated"),
                    })
                    .collect();
                pda.nodes.push(PdaNode {
                    rule: pda_rule[i],
                    edges,
                    is_final: tmp.is_final,
                });
            }
        }
        pda
    }

    /// Builds the temporary (epsilon-carrying) automaton for one rule body,
    /// starting at node 0; the single final node is marked `is_final`.
    fn build_rule(&self, body: &GrammarExpr) -> Vec<TmpNode> {
        let mut nodes: Vec<TmpNode> = vec![TmpNode::default(), TmpNode::default()];
        let (start, end) = (0usize, 1usize);
        self.compile(body, start, end, &mut nodes);
        nodes[end].is_final = true;
        nodes
    }

    fn new_node(nodes: &mut Vec<TmpNode>) -> usize {
        nodes.push(TmpNode::default());
        nodes.len() - 1
    }

    /// Compiles `expr` so that matching it leads from node `from` to node
    /// `to`.
    fn compile(&self, expr: &GrammarExpr, from: usize, to: usize, nodes: &mut Vec<TmpNode>) {
        match expr {
            GrammarExpr::Empty => {
                nodes[from].edges.push(TmpEdge::Eps(to));
            }
            GrammarExpr::Literal(bytes) => {
                if bytes.is_empty() {
                    nodes[from].edges.push(TmpEdge::Eps(to));
                    return;
                }
                let mut cur = from;
                for (i, &b) in bytes.iter().enumerate() {
                    let next = if i + 1 == bytes.len() {
                        to
                    } else {
                        Self::new_node(nodes)
                    };
                    nodes[cur]
                        .edges
                        .push(TmpEdge::Bytes(ByteRange::new(b, b), next));
                    cur = next;
                }
            }
            GrammarExpr::CharClass(cc) => {
                for range in cc.normalized_ranges() {
                    for seq in utf8_sequences(range.start as u32, range.end as u32) {
                        let mut cur = from;
                        let n = seq.ranges.len();
                        for (i, br) in seq.ranges.iter().enumerate() {
                            let next = if i + 1 == n {
                                to
                            } else {
                                Self::new_node(nodes)
                            };
                            nodes[cur].edges.push(TmpEdge::Bytes(*br, next));
                            cur = next;
                        }
                    }
                }
            }
            GrammarExpr::ByteClass(bc) => {
                // Raw byte ranges: one edge per range, no UTF-8 lowering.
                for (lo, hi) in bc.normalized_ranges() {
                    nodes[from]
                        .edges
                        .push(TmpEdge::Bytes(ByteRange::new(lo, hi), to));
                }
            }
            GrammarExpr::RuleRef(id) => {
                nodes[from].edges.push(TmpEdge::Rule(id.0, to));
            }
            GrammarExpr::Sequence(items) => {
                let mut cur = from;
                for (i, item) in items.iter().enumerate() {
                    let next = if i + 1 == items.len() {
                        to
                    } else {
                        Self::new_node(nodes)
                    };
                    self.compile(item, cur, next, nodes);
                    cur = next;
                }
                if items.is_empty() {
                    nodes[from].edges.push(TmpEdge::Eps(to));
                }
            }
            GrammarExpr::Choice(items) => {
                if items.is_empty() {
                    nodes[from].edges.push(TmpEdge::Eps(to));
                }
                for item in items {
                    self.compile(item, from, to, nodes);
                }
            }
            GrammarExpr::Repeat { expr, min, max } => {
                self.compile_repeat(expr, *min, *max, from, to, nodes);
            }
        }
    }

    fn compile_repeat(
        &self,
        expr: &GrammarExpr,
        min: u32,
        max: Option<u32>,
        from: usize,
        to: usize,
        nodes: &mut Vec<TmpNode>,
    ) {
        // Mandatory prefix: `min` sequential copies.
        let mut cur = from;
        for _ in 0..min {
            let next = Self::new_node(nodes);
            self.compile(expr, cur, next, nodes);
            cur = next;
        }
        match max {
            None => {
                // Kleene closure on the remainder: cur --eps--> to, and a loop
                // node allowing arbitrarily many further copies.
                let loop_entry = Self::new_node(nodes);
                nodes[cur].edges.push(TmpEdge::Eps(loop_entry));
                let loop_exit = Self::new_node(nodes);
                self.compile(expr, loop_entry, loop_exit, nodes);
                nodes[loop_exit].edges.push(TmpEdge::Eps(loop_entry));
                nodes[loop_entry].edges.push(TmpEdge::Eps(to));
            }
            Some(max) => {
                // Optional suffix: (max - min) copies, each skippable.
                let optional = max.saturating_sub(min);
                if optional == 0 {
                    nodes[cur].edges.push(TmpEdge::Eps(to));
                    return;
                }
                for _ in 0..optional {
                    let next = Self::new_node(nodes);
                    self.compile(expr, cur, next, nodes);
                    // Skipping the remaining copies goes straight to `to`.
                    nodes[cur].edges.push(TmpEdge::Eps(to));
                    cur = next;
                }
                nodes[cur].edges.push(TmpEdge::Eps(to));
            }
        }
    }
}

/// Eliminates epsilon edges from a temporary rule automaton and keeps only
/// the nodes its start (node 0) reaches: each kept node's new edge set is the
/// union of the non-epsilon edges of its epsilon closure, and a node is final
/// if any node of its closure is final. Closures are computed from the start
/// outward, for the targets of earlier closures' edges. Kept nodes stay in
/// order, so the start stays node 0, and edge targets are renumbered to match.
fn eliminate_epsilon(nodes: &[TmpNode]) -> Vec<TmpNode> {
    let n = nodes.len();
    let mut out = vec![TmpNode::default(); n];
    let mut reached = vec![false; n];
    // `visited[t] == i`: `t` is in the closure of `i` (each closure is
    // computed once, so `i` stamps one visit).
    let mut visited = vec![usize::MAX; n];
    let mut pending = vec![0];
    reached[0] = true;
    let mut stack = Vec::new();
    while let Some(i) = pending.pop() {
        // Depth-first epsilon closure.
        stack.push(i);
        visited[i] = i;
        let mut is_final = false;
        let mut edges: Vec<TmpEdge> = Vec::new();
        while let Some(cur) = stack.pop() {
            is_final |= nodes[cur].is_final;
            for e in &nodes[cur].edges {
                match *e {
                    TmpEdge::Eps(t) => {
                        if visited[t] != i {
                            visited[t] = i;
                            stack.push(t);
                        }
                    }
                    other => edges.push(other),
                }
            }
        }
        // Deduplicate identical edges.
        edges.sort_by_key(edge_sort_key);
        edges.dedup_by_key(|e| edge_sort_key(e));
        for e in &edges {
            let (TmpEdge::Bytes(_, t) | TmpEdge::Rule(_, t) | TmpEdge::Eps(t)) = *e;
            if !reached[t] {
                reached[t] = true;
                pending.push(t);
            }
        }
        out[i] = TmpNode { edges, is_final };
    }

    let kept: Vec<usize> = (0..n).filter(|&i| reached[i]).collect();
    let mut renumber = vec![usize::MAX; n];
    for (new, &old) in kept.iter().enumerate() {
        renumber[old] = new;
    }
    kept.iter()
        .map(|&old| {
            let mut node = std::mem::take(&mut out[old]);
            for e in &mut node.edges {
                let (TmpEdge::Bytes(_, t) | TmpEdge::Rule(_, t) | TmpEdge::Eps(t)) = e;
                *t = renumber[*t];
            }
            node
        })
        .collect()
}

fn edge_sort_key(e: &TmpEdge) -> (u8, u32, u32, usize) {
    match *e {
        TmpEdge::Bytes(r, t) => (0, r.lo as u32, r.hi as u32, t),
        TmpEdge::Rule(r, t) => (1, r, 0, t),
        TmpEdge::Eps(t) => (2, 0, 0, t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::SimpleMatcher;
    use xg_grammar::parse_ebnf;

    fn accepts(pda: &Pda, input: &[u8]) -> bool {
        SimpleMatcher::new(pda).accepts(input)
    }

    #[test]
    fn literal_grammar_builds_and_matches() {
        let g = parse_ebnf(r#"root ::= "ab" | "cd""#, "root").unwrap();
        let pda = build_pda(&g, &PdaBuildOptions::default());
        assert!(accepts(&pda, b"ab"));
        assert!(accepts(&pda, b"cd"));
        assert!(!accepts(&pda, b"ac"));
        assert!(!accepts(&pda, b"abc"));
    }

    #[test]
    fn repetition_bounds_are_respected() {
        let g = parse_ebnf(r#"root ::= [0-9]{2,4}"#, "root").unwrap();
        let pda = build_pda(&g, &PdaBuildOptions::default());
        assert!(!accepts(&pda, b"1"));
        assert!(accepts(&pda, b"12"));
        assert!(accepts(&pda, b"123"));
        assert!(accepts(&pda, b"1234"));
        assert!(!accepts(&pda, b"12345"));
    }

    #[test]
    fn star_and_plus() {
        let g = parse_ebnf(r#"root ::= "a"* "b"+"#, "root").unwrap();
        let pda = build_pda(&g, &PdaBuildOptions::default());
        assert!(accepts(&pda, b"b"));
        assert!(accepts(&pda, b"aaabb"));
        assert!(!accepts(&pda, b"a"));
        assert!(!accepts(&pda, b""));
    }

    #[test]
    fn recursive_rule_matches_nested_structures() {
        let g = parse_ebnf(
            r#"
            root ::= array
            array ::= "[" (elem ("," elem)*)? "]"
            elem ::= array | [0-9]+
            "#,
            "root",
        )
        .unwrap();
        let pda = build_pda(&g, &PdaBuildOptions::default());
        assert!(accepts(&pda, b"[]"));
        assert!(accepts(&pda, b"[1,2,3]"));
        assert!(accepts(&pda, b"[[1],[2,[3]]]"));
        assert!(!accepts(&pda, b"[1,]"));
        assert!(!accepts(&pda, b"[[]"));
    }

    #[test]
    fn unicode_char_class_compiles_to_byte_level() {
        let g = parse_ebnf(r#"root ::= [^"\\]+"#, "root").unwrap();
        let pda = build_pda(&g, &PdaBuildOptions::default());
        assert!(accepts(&pda, "héllo🎉".as_bytes()));
        assert!(!accepts(&pda, b"he\"llo"));
        // A bare continuation byte is not valid UTF-8 and must be rejected.
        assert!(!accepts(&pda, &[0xBF]));
    }

    #[test]
    fn inlining_reduces_rule_count() {
        let g = parse_ebnf(
            r#"
            root ::= item ("," item)*
            item ::= digit digit
            digit ::= [0-9]
            "#,
            "root",
        )
        .unwrap();
        let with = build_pda(
            &g,
            &PdaBuildOptions {
                inline_rules: true,
                ..Default::default()
            },
        );
        let without = build_pda(
            &g,
            &PdaBuildOptions {
                inline_rules: false,
                ..Default::default()
            },
        );
        assert!(with.rules().len() < without.rules().len());
        // Language is unchanged.
        for input in [&b"12"[..], b"12,34,56", b"1", b"12,", b""] {
            assert_eq!(
                accepts(&with, input),
                accepts(&without, input),
                "inlining changed acceptance of {input:?}"
            );
        }
    }

    #[test]
    fn node_merging_preserves_language() {
        let g = xg_grammar::builtin::json_grammar();
        let merged = build_pda(
            &g,
            &PdaBuildOptions {
                merge_nodes: true,
                ..Default::default()
            },
        );
        let unmerged = build_pda(
            &g,
            &PdaBuildOptions {
                merge_nodes: false,
                ..Default::default()
            },
        );
        assert!(merged.node_count() <= unmerged.node_count());
        for input in [
            &br#"{"a": 1}"#[..],
            br#"[1, 2.5, "x", null, true]"#,
            br#"{"nested": {"k": [1, {"deep": false}]}}"#,
            br#"{"a": }"#,
            br#"[1,, 2]"#,
            br#""unterminated"#,
        ] {
            assert_eq!(
                accepts(&merged, input),
                accepts(&unmerged, input),
                "node merging changed acceptance of {:?}",
                String::from_utf8_lossy(input)
            );
        }
    }

    #[test]
    fn json_grammar_accepts_and_rejects() {
        let g = xg_grammar::builtin::json_grammar();
        let pda = build_pda_default(&g);
        assert!(accepts(
            &pda,
            br#"{"name": "Ada", "age": 36, "tags": ["x", "y"]}"#
        ));
        assert!(accepts(&pda, b"  [1, 2, 3]  "));
        assert!(accepts(&pda, br#""just a string""#));
        assert!(accepts(&pda, b"-12.5e+3"));
        assert!(!accepts(&pda, b"{unquoted: 1}"));
        assert!(!accepts(&pda, b"[1 2]"));
        assert!(!accepts(&pda, b"01"));
    }

    #[test]
    fn xml_grammar_accepts_and_rejects() {
        let g = xg_grammar::builtin::xml_grammar();
        let pda = build_pda_default(&g);
        assert!(accepts(&pda, b"<a><b x=\"1\">text</b></a>"));
        assert!(accepts(&pda, b"<note/>"));
        assert!(!accepts(&pda, b"<a>"));
        assert!(!accepts(&pda, b"text only"));
    }

    #[test]
    fn python_dsl_grammar_accepts_and_rejects() {
        let g = xg_grammar::builtin::python_dsl_grammar();
        let pda = build_pda_default(&g);
        assert!(accepts(&pda, b"x = 1"));
        assert!(accepts(&pda, b"if x > 1: y = f(x)\nz = \"s\""));
        assert!(accepts(&pda, b"for i in range(10): total = total + i"));
        assert!(accepts(&pda, b"while flag and not done: done = check(x)"));
        assert!(!accepts(&pda, b"if : pass"));
        assert!(!accepts(&pda, b"1 = x ="));
    }

    #[test]
    fn compact_removes_unreachable_rules() {
        let g = parse_ebnf(
            r#"
            root ::= "x"
            unused ::= "y" other
            other ::= "z"
            "#,
            "root",
        )
        .unwrap();
        let pda = build_pda(&g, &PdaBuildOptions::unoptimized());
        assert_eq!(pda.rules().len(), 1);
    }

    /// The count behind building only the live automaton: the optimiser is
    /// handed the builtin XML grammar's 180 live nodes, where it was handed
    /// 568 when every inlined-away rule and every node only an epsilon edge
    /// reached was built too.
    #[test]
    fn the_optimiser_is_handed_only_live_nodes() {
        let xml = xg_grammar::builtin::xml_grammar();
        let live = live_automaton(&xml, &PdaBuildOptions::default());
        assert_eq!(live.node_count(), 180);
        assert_eq!(
            live.compact(),
            live,
            "the live automaton is already compact"
        );
    }

    #[test]
    fn inlined_away_rules_build_no_nodes() {
        let g = parse_ebnf(
            r#"
            root ::= item ("," item)*
            item ::= digit digit
            digit ::= [0-9]
            "#,
            "root",
        )
        .unwrap();
        let options = PdaBuildOptions::default();
        let inlined = inline_fragment_rules(&g);
        assert_eq!(
            inlined.rules().len(),
            3,
            "inlining keeps the rules it empties"
        );
        let live = live_automaton(&g, &options);
        assert_eq!(live.rules().len(), 1);
        assert!(live.nodes().iter().all(|node| node.rule == live.root()));
        // `root ::= [0-9] [0-9] ("," [0-9] [0-9])*`: start, two digits, a
        // comma, two digits; the loop's epsilon-only nodes are not built.
        assert_eq!(live.node_count(), 6);
        assert_eq!(live.compact(), live);
    }

    #[test]
    fn build_options_default_vs_unoptimized() {
        let opts = PdaBuildOptions::default();
        assert!(opts.inline_rules && opts.merge_nodes);
        let un = PdaBuildOptions::unoptimized();
        assert!(!un.inline_rules && !un.merge_nodes);
    }
}
