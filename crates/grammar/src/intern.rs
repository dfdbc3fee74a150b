//! Hashcons interning of grammar expressions.
//!
//! Structured-generation workloads reuse sub-grammars heavily: two tool
//! catalogs often share 90% of their tool schemas, and a single JSON-Schema
//! grammar repeats the same string/number/whitespace fragments hundreds of
//! times. The [`ExprInterner`] deduplicates structurally identical
//! [`GrammarExpr`] trees behind small integer ids ([`ExprId`]) so shared
//! shapes are stored — and hashed — exactly once.
//!
//! Every interned node carries a *hashcons hash*: a bottom-up (Merkle-style)
//! hash in which children are represented by their own hashcons hashes. Two
//! sub-expressions get the same hash id iff they are structurally identical,
//! which makes the grammar-level [`grammar_fingerprint`] an O(distinct nodes)
//! computation and repeated cache-key hashing
//! ([`Grammar::structural_fingerprint`]) O(1).

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use crate::ast::{ByteClass, CharClass, Grammar, GrammarExpr};

/// Id of an interned expression node, valid within one [`ExprInterner`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExprId(pub u32);

impl ExprId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A grammar expression with children replaced by interned [`ExprId`]s —
/// the flat, shared representation stored in an [`ExprInterner`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum InternedExpr {
    /// Matches the empty string.
    Empty,
    /// A literal byte string.
    Literal(Vec<u8>),
    /// A character class over Unicode scalar ranges.
    CharClass(CharClass),
    /// A raw byte class.
    ByteClass(ByteClass),
    /// Reference to a rule by index.
    RuleRef(u32),
    /// Concatenation of interned children.
    Sequence(Vec<ExprId>),
    /// Alternation of interned children.
    Choice(Vec<ExprId>),
    /// Bounded repetition of an interned child.
    Repeat {
        /// The repeated expression.
        expr: ExprId,
        /// Minimum repetitions.
        min: u32,
        /// Maximum repetitions (`None` = unbounded).
        max: Option<u32>,
    },
}

/// A hashcons table for grammar expressions.
///
/// # Examples
///
/// ```
/// use xg_grammar::{ExprInterner, GrammarExpr};
///
/// let mut interner = ExprInterner::new();
/// let a = interner.intern_expr(&GrammarExpr::literal("ab"));
/// let b = interner.intern_expr(&GrammarExpr::literal("ab"));
/// assert_eq!(a, b); // structurally identical → same id
/// assert_eq!(interner.len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct ExprInterner {
    nodes: Vec<InternedExpr>,
    /// Hashcons hash of each node, parallel to `nodes`.
    hashes: Vec<u64>,
    ids: HashMap<InternedExpr, ExprId>,
}

impl ExprInterner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns one already-flattened node, returning its id.
    pub fn intern(&mut self, node: InternedExpr) -> ExprId {
        if let Some(&id) = self.ids.get(&node) {
            return id;
        }
        let id = ExprId(self.nodes.len() as u32);
        self.hashes.push(self.hashcons_hash(&node));
        self.nodes.push(node.clone());
        self.ids.insert(node, id);
        id
    }

    /// Recursively interns a grammar expression tree (children first),
    /// returning the id of its root node.
    pub fn intern_expr(&mut self, expr: &GrammarExpr) -> ExprId {
        let node = match expr {
            GrammarExpr::Empty => InternedExpr::Empty,
            GrammarExpr::Literal(bytes) => InternedExpr::Literal(bytes.clone()),
            GrammarExpr::CharClass(c) => InternedExpr::CharClass(c.clone()),
            GrammarExpr::ByteClass(b) => InternedExpr::ByteClass(b.clone()),
            GrammarExpr::RuleRef(r) => InternedExpr::RuleRef(r.0),
            GrammarExpr::Sequence(items) => {
                let ids = items.iter().map(|e| self.intern_expr(e)).collect();
                InternedExpr::Sequence(ids)
            }
            GrammarExpr::Choice(items) => {
                let ids = items.iter().map(|e| self.intern_expr(e)).collect();
                InternedExpr::Choice(ids)
            }
            GrammarExpr::Repeat { expr, min, max } => InternedExpr::Repeat {
                expr: self.intern_expr(expr),
                min: *min,
                max: *max,
            },
        };
        self.intern(node)
    }

    /// Interns every rule body of a grammar, returning the per-rule root ids.
    pub fn intern_grammar(&mut self, grammar: &Grammar) -> Vec<ExprId> {
        grammar
            .rules()
            .iter()
            .map(|rule| self.intern_expr(&rule.body))
            .collect()
    }

    /// The interned node behind an id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by this interner.
    pub fn resolve(&self, id: ExprId) -> &InternedExpr {
        &self.nodes[id.index()]
    }

    /// The hashcons hash of an interned node: a bottom-up structural hash in
    /// which children contribute their own hashcons hashes. Equal across
    /// interners for structurally identical sub-expressions.
    ///
    /// # Panics
    ///
    /// Panics if the id was not produced by this interner.
    pub fn hash_of(&self, id: ExprId) -> u64 {
        self.hashes[id.index()]
    }

    /// Number of distinct interned nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Computes the hashcons hash of a node from its children's stored
    /// hashes. Children are identified by content hash, not table id, so the
    /// result is independent of interning order.
    fn hashcons_hash(&self, node: &InternedExpr) -> u64 {
        let mut h = DefaultHasher::new();
        match node {
            InternedExpr::Empty => 0u8.hash(&mut h),
            InternedExpr::Literal(bytes) => {
                1u8.hash(&mut h);
                bytes.hash(&mut h);
            }
            InternedExpr::CharClass(c) => {
                2u8.hash(&mut h);
                c.hash(&mut h);
            }
            InternedExpr::ByteClass(b) => {
                3u8.hash(&mut h);
                b.hash(&mut h);
            }
            InternedExpr::RuleRef(r) => {
                4u8.hash(&mut h);
                r.hash(&mut h);
            }
            InternedExpr::Sequence(items) => {
                5u8.hash(&mut h);
                items.len().hash(&mut h);
                for &id in items {
                    self.hashes[id.index()].hash(&mut h);
                }
            }
            InternedExpr::Choice(items) => {
                6u8.hash(&mut h);
                items.len().hash(&mut h);
                for &id in items {
                    self.hashes[id.index()].hash(&mut h);
                }
            }
            InternedExpr::Repeat { expr, min, max } => {
                7u8.hash(&mut h);
                self.hashes[expr.index()].hash(&mut h);
                min.hash(&mut h);
                max.hash(&mut h);
            }
        }
        h.finish()
    }
}

/// Computes the structural fingerprint of a grammar by interning every rule
/// body and combining the hashcons hashes with the rule names and root id.
///
/// Prefer [`Grammar::structural_fingerprint`], which caches the result on the
/// grammar.
pub fn grammar_fingerprint(grammar: &Grammar) -> u64 {
    let mut interner = ExprInterner::new();
    let mut h = DefaultHasher::new();
    grammar.rules().len().hash(&mut h);
    grammar.root().index().hash(&mut h);
    for rule in grammar.rules() {
        rule.name.hash(&mut h);
        let id = interner.intern_expr(&rule.body);
        interner.hash_of(id).hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_ebnf;

    #[test]
    fn identical_subtrees_share_one_id() {
        let mut interner = ExprInterner::new();
        let expr = GrammarExpr::seq(vec![GrammarExpr::literal("ab"), GrammarExpr::literal("ab")]);
        interner.intern_expr(&expr);
        // "ab" interned once (shared by the second occurrence) + the sequence.
        assert_eq!(interner.len(), 2);
    }

    #[test]
    fn structurally_shared_rules_hit_the_interner() {
        let g = parse_ebnf(
            r#"
            root ::= a b
            a ::= "x" [0-9]+
            b ::= "x" [0-9]+
            "#,
            "root",
        )
        .unwrap();
        let mut interner = ExprInterner::new();
        let roots = interner.intern_grammar(&g);
        // Rules `a` and `b` are structurally identical: same interned id and
        // same hashcons hash.
        let ia = roots[g.rule_id("a").unwrap().index()];
        let ib = roots[g.rule_id("b").unwrap().index()];
        assert_eq!(ia, ib);
        assert_eq!(interner.hash_of(ia), interner.hash_of(ib));
        // root's sequence, the shared rule body and its three parts (the
        // literal, the class, the repeat), and the two distinct rule refs.
        assert_eq!(interner.len(), 7);
    }

    #[test]
    fn hashcons_hash_is_interner_independent() {
        let expr = GrammarExpr::choice(vec![
            GrammarExpr::literal("true"),
            GrammarExpr::literal("false"),
        ]);
        let mut a = ExprInterner::new();
        // Warm `b` with unrelated nodes first so table ids differ.
        let mut b = ExprInterner::new();
        b.intern_expr(&GrammarExpr::literal("unrelated"));
        let ia = a.intern_expr(&expr);
        let ib = b.intern_expr(&expr);
        assert_ne!(ia, ib); // different table ids...
        assert_eq!(a.hash_of(ia), b.hash_of(ib)); // ...same structural hash
    }

    #[test]
    fn fingerprint_matches_for_independently_built_grammars() {
        let text = r#"
            root ::= "[" item ("," item)* "]"
            item ::= [0-9]+
        "#;
        let a = parse_ebnf(text, "root").unwrap();
        let b = parse_ebnf(text, "root").unwrap();
        assert_eq!(a.structural_fingerprint(), b.structural_fingerprint());
        // Cached: second call returns the same value.
        assert_eq!(a.structural_fingerprint(), a.structural_fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_different_grammars() {
        let a = parse_ebnf(r#"root ::= "a""#, "root").unwrap();
        let b = parse_ebnf(r#"root ::= "b""#, "root").unwrap();
        assert_ne!(a.structural_fingerprint(), b.structural_fingerprint());
        // Renaming a rule is a structural change (names participate in
        // Display round-trips and cache keys).
        let c = parse_ebnf(r#"other ::= "a""#, "other").unwrap();
        assert_ne!(a.structural_fingerprint(), c.structural_fingerprint());
    }

    #[test]
    fn clone_preserves_equality_and_cached_fingerprint() {
        let a = parse_ebnf(r#"root ::= [a-z]+"#, "root").unwrap();
        let fp = a.structural_fingerprint();
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.structural_fingerprint(), fp);
        // Equality ignores the fingerprint cache: a fresh parse that has not
        // computed its fingerprint still compares equal.
        let fresh = parse_ebnf(r#"root ::= [a-z]+"#, "root").unwrap();
        assert_eq!(a, fresh);
    }
}
