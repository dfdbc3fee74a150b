//! Grammar abstract syntax tree.
//!
//! A [`Grammar`] is a set of named [`Rule`]s, each with a body expression
//! ([`GrammarExpr`]) built from byte literals, Unicode character classes,
//! references to other rules, sequences, choices and bounded or unbounded
//! repetitions. This is the front-end representation that the automata crate
//! compiles into a byte-level pushdown automaton.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::error::{GrammarError, Result};

/// Identifier of a rule inside a [`Grammar`].
///
/// Rule ids are dense indices into the grammar's rule table and are stable
/// across cloning the grammar, but not across structural transformations such
/// as inlining (which happen on the automaton, not on the AST).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleId(pub u32);

impl RuleId {
    /// Returns the id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// An inclusive range of Unicode scalar values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CharRange {
    /// Lowest character in the range (inclusive).
    pub start: char,
    /// Highest character in the range (inclusive).
    pub end: char,
}

impl CharRange {
    /// Creates a range covering `start..=end`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: char, end: char) -> Self {
        assert!(start <= end, "invalid character range");
        CharRange { start, end }
    }

    /// Creates a range covering exactly one character.
    pub fn single(c: char) -> Self {
        CharRange { start: c, end: c }
    }

    /// Returns `true` if `c` falls inside the range.
    #[inline]
    pub fn contains(&self, c: char) -> bool {
        self.start <= c && c <= self.end
    }
}

/// A set of Unicode characters described by ranges, optionally negated.
///
/// `[a-z0-9_]` becomes three positive ranges; `[^"\\]` becomes two ranges with
/// `negated = true` (matching every character *except* those ranges).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct CharClass {
    /// The (unnormalized) ranges listed in the class.
    pub ranges: Vec<CharRange>,
    /// Whether the class matches the complement of `ranges`.
    pub negated: bool,
}

impl CharClass {
    /// Creates a positive class from ranges.
    pub fn new(ranges: Vec<CharRange>) -> Self {
        CharClass {
            ranges,
            negated: false,
        }
    }

    /// Creates a negated class from ranges.
    pub(crate) fn negated(ranges: Vec<CharRange>) -> Self {
        CharClass {
            ranges,
            negated: true,
        }
    }

    /// A class matching any Unicode scalar value.
    pub fn any() -> Self {
        CharClass {
            ranges: vec![CharRange::new('\0', char::MAX)],
            negated: false,
        }
    }

    /// Returns `true` if `c` is matched by this class.
    pub fn contains(&self, c: char) -> bool {
        let inside = self.ranges.iter().any(|r| r.contains(c));
        inside != self.negated
    }

    /// Normalizes the class into a sorted, non-overlapping, non-negated list
    /// of ranges over Unicode scalar values (surrogates excluded).
    pub fn normalized_ranges(&self) -> Vec<CharRange> {
        // Collect positive ranges, clamp into valid scalar values.
        let mut ranges: Vec<(u32, u32)> = self
            .ranges
            .iter()
            .map(|r| (r.start as u32, r.end as u32))
            .collect();
        ranges.sort_unstable();
        // Merge overlapping / adjacent.
        let mut merged: Vec<(u32, u32)> = Vec::new();
        for (s, e) in ranges {
            match merged.last_mut() {
                Some((_, le)) if s <= le.saturating_add(1) => {
                    *le = (*le).max(e);
                }
                _ => merged.push((s, e)),
            }
        }
        let positive = if self.negated {
            // Complement within 0..=0x10FFFF.
            let mut out = Vec::new();
            let mut next = 0u32;
            for (s, e) in &merged {
                if *s > next {
                    out.push((next, s - 1));
                }
                next = e.saturating_add(1);
            }
            if next <= 0x10FFFF {
                out.push((next, 0x10FFFF));
            }
            out
        } else {
            merged
        };
        // Remove the surrogate range D800..=DFFF, converting to chars.
        let mut out = Vec::new();
        for (s, e) in positive {
            if e < 0xD800 || s > 0xDFFF {
                push_char_range(&mut out, s, e);
            } else {
                if s < 0xD800 {
                    push_char_range(&mut out, s, 0xD7FF);
                }
                if e > 0xDFFF {
                    push_char_range(&mut out, 0xE000, e);
                }
            }
        }
        out
    }

    /// Returns `true` if the class matches no character at all.
    pub fn is_empty(&self) -> bool {
        self.normalized_ranges().is_empty()
    }
}

fn push_char_range(out: &mut Vec<CharRange>, s: u32, e: u32) {
    if let (Some(cs), Some(ce)) = (char::from_u32(s), char::from_u32(e.min(0x10FFFF))) {
        out.push(CharRange::new(cs, ce));
    }
}

/// A set of raw byte values described by inclusive `(lo, hi)` ranges — the
/// byte-level sibling of [`CharClass`].
///
/// Where a [`CharClass`] matches one Unicode scalar value (and is lowered to
/// UTF-8 byte sequences during automaton construction, so non-UTF-8 bytes can
/// never match), a `ByteClass` matches exactly one *byte*, whatever it is.
/// This is what free-text continuation tails need: a token may close a tagged
/// segment and continue with the leading bytes of a multi-byte character that
/// the next token completes, and a character-level tail would conservatively
/// reject that split (see [`crate::append_free_text_tail`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ByteClass {
    /// Inclusive `(lo, hi)` byte ranges; a byte matches when any range
    /// contains it.
    pub ranges: Vec<(u8, u8)>,
}

impl ByteClass {
    /// Creates a byte class from inclusive ranges.
    pub fn new(ranges: Vec<(u8, u8)>) -> Self {
        ByteClass { ranges }
    }

    /// A class matching any byte value (`0x00..=0xFF`).
    pub fn any() -> Self {
        ByteClass {
            ranges: vec![(0x00, 0xFF)],
        }
    }

    /// Returns `true` if `b` is matched by this class.
    pub fn contains(&self, b: u8) -> bool {
        self.ranges.iter().any(|&(lo, hi)| lo <= b && b <= hi)
    }

    /// Normalizes into a sorted, non-overlapping range list.
    pub fn normalized_ranges(&self) -> Vec<(u8, u8)> {
        let mut ranges: Vec<(u8, u8)> = self
            .ranges
            .iter()
            .filter(|(lo, hi)| lo <= hi)
            .copied()
            .collect();
        ranges.sort_unstable();
        let mut merged: Vec<(u8, u8)> = Vec::new();
        for (lo, hi) in ranges {
            match merged.last_mut() {
                Some((_, mhi)) if lo as u16 <= *mhi as u16 + 1 => *mhi = (*mhi).max(hi),
                _ => merged.push((lo, hi)),
            }
        }
        merged
    }

    /// Returns `true` if the class matches no byte at all.
    pub fn is_empty(&self) -> bool {
        self.normalized_ranges().is_empty()
    }
}

/// Body expression of a grammar rule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GrammarExpr {
    /// The empty string.
    Empty,
    /// A literal byte string (UTF-8 encoding of the written literal).
    Literal(Vec<u8>),
    /// A single character drawn from a character class.
    CharClass(CharClass),
    /// A single raw byte drawn from a [`ByteClass`] (no UTF-8 structure).
    ByteClass(ByteClass),
    /// A reference to another rule.
    RuleRef(RuleId),
    /// A sequence of sub-expressions matched one after another.
    Sequence(Vec<GrammarExpr>),
    /// An ordered choice between alternatives.
    Choice(Vec<GrammarExpr>),
    /// Repetition of a sub-expression between `min` and `max` times
    /// (`max = None` means unbounded).
    Repeat {
        /// Repeated expression.
        expr: Box<GrammarExpr>,
        /// Minimum number of repetitions.
        min: u32,
        /// Maximum number of repetitions, or `None` for unbounded.
        max: Option<u32>,
    },
}

impl GrammarExpr {
    /// Convenience constructor for a literal from a string.
    pub fn literal(s: &str) -> Self {
        GrammarExpr::Literal(s.as_bytes().to_vec())
    }

    /// Convenience constructor for a Kleene-star repetition.
    pub(crate) fn star(expr: GrammarExpr) -> Self {
        GrammarExpr::Repeat {
            expr: Box::new(expr),
            min: 0,
            max: None,
        }
    }

    /// Convenience constructor for a one-or-more repetition.
    pub fn plus(expr: GrammarExpr) -> Self {
        GrammarExpr::Repeat {
            expr: Box::new(expr),
            min: 1,
            max: None,
        }
    }

    /// Convenience constructor for an optional expression.
    pub fn optional(expr: GrammarExpr) -> Self {
        GrammarExpr::Repeat {
            expr: Box::new(expr),
            min: 0,
            max: Some(1),
        }
    }

    /// Convenience constructor for a sequence, flattening nested sequences.
    pub fn seq(items: Vec<GrammarExpr>) -> Self {
        let mut flat = Vec::with_capacity(items.len());
        for it in items {
            match it {
                GrammarExpr::Sequence(inner) => flat.extend(inner),
                GrammarExpr::Empty => {}
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => GrammarExpr::Empty,
            1 => flat.pop().expect("len checked"),
            _ => GrammarExpr::Sequence(flat),
        }
    }

    /// Convenience constructor for a choice, flattening nested choices.
    pub fn choice(items: Vec<GrammarExpr>) -> Self {
        let mut flat = Vec::with_capacity(items.len());
        for it in items {
            match it {
                GrammarExpr::Choice(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.len() {
            0 => GrammarExpr::Empty,
            1 => flat.pop().expect("len checked"),
            _ => GrammarExpr::Choice(flat),
        }
    }

    /// Visits every rule reference in the expression tree.
    pub fn for_each_rule_ref(&self, f: &mut impl FnMut(RuleId)) {
        match self {
            GrammarExpr::RuleRef(id) => f(*id),
            GrammarExpr::Sequence(items) | GrammarExpr::Choice(items) => {
                for it in items {
                    it.for_each_rule_ref(f);
                }
            }
            GrammarExpr::Repeat { expr, .. } => expr.for_each_rule_ref(f),
            GrammarExpr::Empty
            | GrammarExpr::Literal(_)
            | GrammarExpr::CharClass(_)
            | GrammarExpr::ByteClass(_) => {}
        }
    }

    /// Returns `true` if the expression can match the empty string, assuming
    /// `nullable_rules[r]` answers the question for referenced rules.
    pub(crate) fn is_nullable(&self, nullable_rules: &[bool]) -> bool {
        match self {
            GrammarExpr::Empty => true,
            GrammarExpr::Literal(bytes) => bytes.is_empty(),
            GrammarExpr::CharClass(_) | GrammarExpr::ByteClass(_) => false,
            GrammarExpr::RuleRef(id) => nullable_rules.get(id.index()).copied().unwrap_or(false),
            GrammarExpr::Sequence(items) => items.iter().all(|e| e.is_nullable(nullable_rules)),
            GrammarExpr::Choice(items) => items.iter().any(|e| e.is_nullable(nullable_rules)),
            GrammarExpr::Repeat { expr, min, .. } => *min == 0 || expr.is_nullable(nullable_rules),
        }
    }
}

/// A named grammar rule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Rule {
    /// Rule name as written in the grammar.
    pub name: String,
    /// Rule body.
    pub body: GrammarExpr,
}

/// A context-free grammar: a list of rules plus the designated root rule.
///
/// # Examples
///
/// ```
/// use xg_grammar::{Grammar, GrammarExpr};
///
/// let mut builder = Grammar::builder();
/// let digit = builder.add_rule("digit", GrammarExpr::Empty);
/// builder.set_body(digit, xg_grammar::char_class(&[('0', '9')]));
/// let number = builder.add_rule("number", GrammarExpr::plus(GrammarExpr::RuleRef(digit)));
/// let grammar = builder.build("number").unwrap();
/// assert_eq!(grammar.root(), number);
/// assert_eq!(grammar.rules().len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Grammar {
    rules: Vec<Rule>,
    root: RuleId,
    by_name: HashMap<String, RuleId>,
    /// Lazily computed structural fingerprint (see
    /// [`structural_fingerprint`](Grammar::structural_fingerprint)). Excluded
    /// from `PartialEq`: two structurally equal grammars must compare equal
    /// whether or not either has computed its fingerprint yet.
    fingerprint: std::sync::OnceLock<u64>,
}

impl PartialEq for Grammar {
    fn eq(&self, other: &Self) -> bool {
        self.rules == other.rules && self.root == other.root && self.by_name == other.by_name
    }
}

impl Eq for Grammar {}

/// Hashes the [`structural_fingerprint`](Grammar::structural_fingerprint),
/// so a grammar inside a larger key costs one `u64` once it is computed.
impl Hash for Grammar {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.structural_fingerprint().hash(state);
    }
}

impl Grammar {
    /// Creates a new [`GrammarBuilder`].
    pub fn builder() -> GrammarBuilder {
        GrammarBuilder::new()
    }

    /// Returns the rules of the grammar, indexed by [`RuleId`].
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Returns the rule with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id does not belong to this grammar.
    pub fn rule(&self, id: RuleId) -> &Rule {
        &self.rules[id.index()]
    }

    /// Returns the id of the root rule.
    pub fn root(&self) -> RuleId {
        self.root
    }

    /// Looks up a rule by name.
    pub fn rule_id(&self, name: &str) -> Option<RuleId> {
        self.by_name.get(name).copied()
    }

    /// Returns the number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` if the grammar has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// The structural fingerprint of this grammar: the derived hash of its
    /// root and rules, rule names included. Computed on the first call and
    /// cached, so repeated cache-key computation is O(1). Structurally
    /// identical grammars — even ones built independently — produce the same
    /// fingerprint.
    pub fn structural_fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut hasher = DefaultHasher::new();
            (self.root, &self.rules).hash(&mut hasher);
            hasher.finish()
        })
    }

    /// Computes, for every rule, whether it can derive the empty string.
    pub(crate) fn nullable_rules(&self) -> Vec<bool> {
        let mut nullable = vec![false; self.rules.len()];
        loop {
            let mut changed = false;
            for (i, rule) in self.rules.iter().enumerate() {
                if !nullable[i] && rule.body.is_nullable(&nullable) {
                    nullable[i] = true;
                    changed = true;
                }
            }
            if !changed {
                return nullable;
            }
        }
    }

    /// Detects direct or indirect left recursion reachable from the root.
    ///
    /// # Errors
    ///
    /// Returns [`GrammarError::LeftRecursion`] describing one offending cycle.
    pub(crate) fn check_left_recursion(&self) -> Result<()> {
        let nullable = self.nullable_rules();
        // leftmost_refs[r] = rules that can appear at the very start of r's body.
        let mut leftmost: Vec<Vec<RuleId>> = Vec::with_capacity(self.rules.len());
        for rule in &self.rules {
            let mut refs = Vec::new();
            collect_leftmost_refs(&rule.body, &nullable, &mut refs);
            leftmost.push(refs);
        }
        // DFS cycle detection.
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Gray,
            Black,
        }
        let mut marks = vec![Mark::White; self.rules.len()];
        let mut stack: Vec<RuleId> = Vec::new();
        fn dfs(
            g: &Grammar,
            leftmost: &[Vec<RuleId>],
            marks: &mut [Mark],
            stack: &mut Vec<RuleId>,
            node: RuleId,
        ) -> Result<()> {
            marks[node.index()] = Mark::Gray;
            stack.push(node);
            for &next in &leftmost[node.index()] {
                match marks[next.index()] {
                    Mark::Gray => {
                        let pos = stack
                            .iter()
                            .position(|&r| r == next)
                            .unwrap_or(stack.len() - 1);
                        let mut cycle: Vec<String> = stack[pos..]
                            .iter()
                            .map(|r| g.rule(*r).name.clone())
                            .collect();
                        cycle.push(g.rule(next).name.clone());
                        return Err(GrammarError::LeftRecursion {
                            rule: g.rule(next).name.clone(),
                            cycle,
                        });
                    }
                    Mark::White => dfs(g, leftmost, marks, stack, next)?,
                    Mark::Black => {}
                }
            }
            stack.pop();
            marks[node.index()] = Mark::Black;
            Ok(())
        }
        dfs(self, &leftmost, &mut marks, &mut stack, self.root)
    }

    /// Validates the grammar: all references defined (guaranteed by builder),
    /// no empty character or byte classes, no left recursion reachable from
    /// the root.
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn validate(&self) -> Result<()> {
        for rule in &self.rules {
            let mut empty_class = false;
            visit_classes(&rule.body, &mut |cc| {
                if cc.is_empty() {
                    empty_class = true;
                }
            });
            if empty_class {
                return Err(GrammarError::EmptyCharClass {
                    rule: rule.name.clone(),
                });
            }
        }
        self.check_left_recursion()
    }
}

/// A character or byte class, for validation visitors that treat both alike.
enum ClassRef<'a> {
    Char(&'a CharClass),
    Byte(&'a ByteClass),
}

impl ClassRef<'_> {
    fn is_empty(&self) -> bool {
        match self {
            ClassRef::Char(cc) => cc.is_empty(),
            ClassRef::Byte(bc) => bc.is_empty(),
        }
    }
}

fn visit_classes<'a>(expr: &'a GrammarExpr, f: &mut impl FnMut(ClassRef<'a>)) {
    match expr {
        GrammarExpr::CharClass(cc) => f(ClassRef::Char(cc)),
        GrammarExpr::ByteClass(bc) => f(ClassRef::Byte(bc)),
        GrammarExpr::Sequence(items) | GrammarExpr::Choice(items) => {
            for it in items {
                visit_classes(it, f);
            }
        }
        GrammarExpr::Repeat { expr, .. } => visit_classes(expr, f),
        _ => {}
    }
}

fn collect_leftmost_refs(expr: &GrammarExpr, nullable: &[bool], out: &mut Vec<RuleId>) {
    match expr {
        GrammarExpr::RuleRef(id) => out.push(*id),
        GrammarExpr::Sequence(items) => {
            for it in items {
                collect_leftmost_refs(it, nullable, out);
                if !it.is_nullable(nullable) {
                    break;
                }
            }
        }
        GrammarExpr::Choice(items) => {
            for it in items {
                collect_leftmost_refs(it, nullable, out);
            }
        }
        GrammarExpr::Repeat { expr, .. } => collect_leftmost_refs(expr, nullable, out),
        GrammarExpr::Empty
        | GrammarExpr::Literal(_)
        | GrammarExpr::CharClass(_)
        | GrammarExpr::ByteClass(_) => {}
    }
}

/// Incremental builder for [`Grammar`].
///
/// Rules can be declared before their bodies are known (useful for mutually
/// recursive rules) via [`GrammarBuilder::declare`] and filled in later with
/// [`GrammarBuilder::set_body`].
#[derive(Debug, Default, Clone)]
pub struct GrammarBuilder {
    rules: Vec<Rule>,
    by_name: HashMap<String, RuleId>,
}

impl GrammarBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a rule with an empty body, returning its id. If a rule with
    /// the same name was already declared, its existing id is returned.
    pub fn declare(&mut self, name: &str) -> RuleId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = RuleId(self.rules.len() as u32);
        self.rules.push(Rule {
            name: name.to_string(),
            body: GrammarExpr::Empty,
        });
        self.by_name.insert(name.to_string(), id);
        id
    }

    /// Adds a rule with the given body, returning its id.
    ///
    /// If the rule was previously declared (even with a body), the body is
    /// replaced.
    pub fn add_rule(&mut self, name: &str, body: GrammarExpr) -> RuleId {
        let id = self.declare(name);
        self.rules[id.index()].body = body;
        id
    }

    /// Replaces the body of a previously declared rule.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by this builder.
    pub fn set_body(&mut self, id: RuleId, body: GrammarExpr) {
        self.rules[id.index()].body = body;
    }

    /// Looks up the id of a declared rule.
    pub fn rule_id(&self, name: &str) -> Option<RuleId> {
        self.by_name.get(name).copied()
    }

    /// Returns the name of a declared rule.
    pub(crate) fn rule_name(&self, id: RuleId) -> Option<&str> {
        self.rules.get(id.index()).map(|r| r.name.as_str())
    }

    /// Returns the number of declared rules so far.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Returns `true` if no rules were declared.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Finalizes the grammar with the named rule as root.
    ///
    /// # Errors
    ///
    /// Returns [`GrammarError::MissingRoot`] if `root` was never declared,
    /// [`GrammarError::UndefinedRule`] if any body references an id outside
    /// the builder (impossible through the public API, kept as a guard),
    /// [`GrammarError::InvalidRepetition`] if any repetition has `min > max`,
    /// or [`GrammarError::EmptyChoice`] if any body contains a directly
    /// constructed choice with zero alternatives (note that
    /// [`GrammarExpr::choice`] collapses that case to [`GrammarExpr::Empty`],
    /// so it only arises from hand-built `Choice` values).
    pub fn build(self, root: &str) -> Result<Grammar> {
        let root_id = self
            .by_name
            .get(root)
            .copied()
            .ok_or_else(|| GrammarError::MissingRoot {
                name: root.to_string(),
            })?;
        // Guard against out-of-range ids (only possible via hand-crafted ids).
        for rule in &self.rules {
            let mut bad: Option<RuleId> = None;
            rule.body.for_each_rule_ref(&mut |id| {
                if id.index() >= self.rules.len() && bad.is_none() {
                    bad = Some(id);
                }
            });
            if let Some(id) = bad {
                return Err(GrammarError::UndefinedRule {
                    name: format!("{id}"),
                    referenced_from: rule.name.clone(),
                });
            }
            check_degenerate(&rule.body, &rule.name)?;
        }
        Ok(Grammar {
            rules: self.rules,
            root: root_id,
            by_name: self.by_name,
            fingerprint: std::sync::OnceLock::new(),
        })
    }
}

/// Rejects structurally degenerate expressions that could only ever match
/// nothing: repetitions with `min > max` and directly constructed choices
/// with zero alternatives. Run by [`GrammarBuilder::build`] so such shapes
/// never compile silently.
fn check_degenerate(expr: &GrammarExpr, rule: &str) -> Result<()> {
    match expr {
        GrammarExpr::Choice(items) if items.is_empty() => Err(GrammarError::EmptyChoice {
            rule: rule.to_string(),
        }),
        GrammarExpr::Sequence(items) | GrammarExpr::Choice(items) => {
            for it in items {
                check_degenerate(it, rule)?;
            }
            Ok(())
        }
        GrammarExpr::Repeat { expr, min, max } => {
            if let Some(max) = max {
                if min > max {
                    return Err(GrammarError::InvalidRepetition {
                        min: *min,
                        max: *max,
                    });
                }
            }
            check_degenerate(expr, rule)
        }
        _ => Ok(()),
    }
}

/// Shorthand for building a positive character class from `(start, end)`
/// pairs.
///
/// # Examples
///
/// ```
/// let expr = xg_grammar::char_class(&[('a', 'z'), ('0', '9')]);
/// ```
pub fn char_class(ranges: &[(char, char)]) -> GrammarExpr {
    GrammarExpr::CharClass(CharClass::new(
        ranges.iter().map(|&(s, e)| CharRange::new(s, e)).collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(s: &str) -> GrammarExpr {
        GrammarExpr::literal(s)
    }

    #[test]
    fn builder_declares_and_builds() {
        let mut b = Grammar::builder();
        let value = b.declare("value");
        b.add_rule("root", GrammarExpr::RuleRef(value));
        b.set_body(value, lit("x"));
        let g = b.build("root").unwrap();
        assert_eq!(g.len(), 2);
        assert_eq!(g.rule(g.root()).name, "root");
        assert_eq!(g.rule_id("value"), Some(value));
    }

    #[test]
    fn missing_root_is_an_error() {
        let b = Grammar::builder();
        let err = b.build("root").unwrap_err();
        assert!(matches!(err, GrammarError::MissingRoot { .. }));
    }

    #[test]
    fn char_class_negation_and_contains() {
        let cc = CharClass::negated(vec![CharRange::single('"'), CharRange::single('\\')]);
        assert!(cc.contains('a'));
        assert!(!cc.contains('"'));
        assert!(!cc.contains('\\'));
    }

    #[test]
    fn normalized_ranges_merge_and_complement() {
        let cc = CharClass::new(vec![
            CharRange::new('a', 'f'),
            CharRange::new('d', 'k'),
            CharRange::new('m', 'm'),
        ]);
        let norm = cc.normalized_ranges();
        assert_eq!(norm.len(), 2);
        assert_eq!(norm[0], CharRange::new('a', 'k'));

        let neg = CharClass::negated(vec![CharRange::new('\0', char::MAX)]);
        assert!(neg.is_empty());
    }

    #[test]
    fn normalized_ranges_skip_surrogates() {
        let cc = CharClass::any();
        let norm = cc.normalized_ranges();
        for r in &norm {
            assert!(!(0xD800..=0xDFFF).contains(&(r.start as u32)));
            assert!(!(0xD800..=0xDFFF).contains(&(r.end as u32)));
        }
    }

    #[test]
    fn nullable_computation() {
        let mut b = Grammar::builder();
        let ws = b.add_rule("ws", GrammarExpr::star(char_class(&[(' ', ' ')])));
        let item = b.add_rule("item", lit("x"));
        b.add_rule(
            "root",
            GrammarExpr::seq(vec![GrammarExpr::RuleRef(ws), GrammarExpr::RuleRef(item)]),
        );
        let g = b.build("root").unwrap();
        let nullable = g.nullable_rules();
        assert!(nullable[ws.index()]);
        assert!(!nullable[item.index()]);
    }

    #[test]
    fn detects_direct_left_recursion() {
        let mut b = Grammar::builder();
        let expr = b.declare("expr");
        b.set_body(
            expr,
            GrammarExpr::choice(vec![
                GrammarExpr::seq(vec![GrammarExpr::RuleRef(expr), lit("+x")]),
                lit("x"),
            ]),
        );
        let g = b.build("expr").unwrap();
        assert!(matches!(
            g.check_left_recursion(),
            Err(GrammarError::LeftRecursion { .. })
        ));
    }

    #[test]
    fn detects_indirect_left_recursion_through_nullable() {
        let mut b = Grammar::builder();
        let a = b.declare("a");
        let ws = b.add_rule("ws", GrammarExpr::star(char_class(&[(' ', ' ')])));
        // a ::= ws b ; b ::= a "x" — the ws prefix is nullable so this is
        // still left recursion.
        let bb = b.declare("b");
        b.set_body(
            a,
            GrammarExpr::seq(vec![GrammarExpr::RuleRef(ws), GrammarExpr::RuleRef(bb)]),
        );
        b.set_body(
            bb,
            GrammarExpr::seq(vec![GrammarExpr::RuleRef(a), lit("x")]),
        );
        let g = b.build("a").unwrap();
        assert!(matches!(
            g.check_left_recursion(),
            Err(GrammarError::LeftRecursion { .. })
        ));
    }

    #[test]
    fn right_recursion_is_allowed() {
        let mut b = Grammar::builder();
        let list = b.declare("list");
        b.set_body(
            list,
            GrammarExpr::choice(vec![
                GrammarExpr::seq(vec![lit("x"), GrammarExpr::RuleRef(list)]),
                lit("x"),
            ]),
        );
        let g = b.build("list").unwrap();
        assert!(g.check_left_recursion().is_ok());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn seq_and_choice_flatten() {
        let e = GrammarExpr::seq(vec![
            GrammarExpr::Sequence(vec![lit("a"), lit("b")]),
            GrammarExpr::Empty,
            lit("c"),
        ]);
        match e {
            GrammarExpr::Sequence(items) => assert_eq!(items.len(), 3),
            other => panic!("expected sequence, got {other:?}"),
        }
        let c = GrammarExpr::choice(vec![
            GrammarExpr::Choice(vec![lit("a"), lit("b")]),
            lit("c"),
        ]);
        match c {
            GrammarExpr::Choice(items) => assert_eq!(items.len(), 3),
            other => panic!("expected choice, got {other:?}"),
        }
    }

    #[test]
    fn degenerate_repetition_fails_build() {
        let mut b = Grammar::builder();
        b.add_rule(
            "root",
            GrammarExpr::Repeat {
                expr: Box::new(lit("a")),
                min: 5,
                max: Some(2),
            },
        );
        assert!(matches!(
            b.build("root"),
            Err(GrammarError::InvalidRepetition { min: 5, max: 2 })
        ));
    }

    #[test]
    fn direct_empty_choice_fails_build() {
        let mut b = Grammar::builder();
        b.add_rule("root", GrammarExpr::Choice(vec![]));
        assert!(matches!(
            b.build("root"),
            Err(GrammarError::EmptyChoice { .. })
        ));
        // The smart constructor collapses the same input to Empty, which is
        // fine.
        let mut b = Grammar::builder();
        b.add_rule("root", GrammarExpr::choice(vec![]));
        assert!(b.build("root").is_ok());
    }

    #[test]
    fn nested_degenerate_repetition_fails_build() {
        let mut b = Grammar::builder();
        b.add_rule(
            "root",
            GrammarExpr::seq(vec![
                lit("x"),
                GrammarExpr::choice(vec![
                    lit("y"),
                    GrammarExpr::Repeat {
                        expr: Box::new(lit("z")),
                        min: 3,
                        max: Some(1),
                    },
                ]),
            ]),
        );
        assert!(matches!(
            b.build("root"),
            Err(GrammarError::InvalidRepetition { .. })
        ));
    }

    #[test]
    fn fingerprint_matches_for_independently_built_grammars() {
        let text = r#"
            root ::= "[" item ("," item)* "]"
            item ::= [0-9]+
        "#;
        let a = crate::parse_ebnf(text, "root").unwrap();
        let b = crate::parse_ebnf(text, "root").unwrap();
        assert_eq!(a.structural_fingerprint(), b.structural_fingerprint());
        // Cached: second call returns the same value.
        assert_eq!(a.structural_fingerprint(), a.structural_fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_different_grammars() {
        let a = crate::parse_ebnf(r#"root ::= "a""#, "root").unwrap();
        let b = crate::parse_ebnf(r#"root ::= "b""#, "root").unwrap();
        assert_ne!(a.structural_fingerprint(), b.structural_fingerprint());
        // Renaming a rule is a structural change (names participate in
        // Display round-trips and cache keys).
        let c = crate::parse_ebnf(r#"other ::= "a""#, "other").unwrap();
        assert_ne!(a.structural_fingerprint(), c.structural_fingerprint());
    }

    #[test]
    fn clone_preserves_equality_and_cached_fingerprint() {
        let a = crate::parse_ebnf(r#"root ::= [a-z]+"#, "root").unwrap();
        let fp = a.structural_fingerprint();
        let b = a.clone();
        assert_eq!(a, b);
        assert_eq!(b.structural_fingerprint(), fp);
        // Equality ignores the fingerprint cache: a fresh parse that has not
        // computed its fingerprint still compares equal.
        let fresh = crate::parse_ebnf(r#"root ::= [a-z]+"#, "root").unwrap();
        assert_eq!(a, fresh);
    }

    #[test]
    fn empty_char_class_fails_validation() {
        let mut b = Grammar::builder();
        b.add_rule("root", GrammarExpr::CharClass(CharClass::new(vec![])));
        let g = b.build("root").unwrap();
        assert!(matches!(
            g.validate(),
            Err(GrammarError::EmptyCharClass { .. })
        ));
    }
}
