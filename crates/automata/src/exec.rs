//! A straightforward (non-persistent) executor for the byte-level PDA.
//!
//! This is the reference implementation used by tests, by the "naive PDA"
//! baseline (the llama.cpp-style comparator of Figures 9 and 10), and as the
//! semantic ground truth against which the optimized matcher in `xg-core` is
//! property-tested. Each matching stack is stored as an owned `Vec<NodeId>`;
//! branching copies the whole stack, exactly the cost the persistent
//! execution stack of §3.3 avoids. Its walk over configurations,
//! [`epsilon_closure`], takes a frame bound, and with one the Outlines and
//! lm-format-enforcer baselines unroll a grammar into a finite automaton.

use std::collections::HashSet;

use crate::pda::{NodeId, Pda, PdaEdge};

/// Upper bound on simultaneously tracked stacks, and on the configurations
/// one stack's closure reaches. Past it the matcher overflows
/// ([`StepResult::Overflow`]): it stops and decides nothing more, which is
/// no rejection.
const MAX_STACKS: usize = 4096;

/// A single matching stack: return nodes below, current node on top.
pub type MatchStack = Vec<NodeId>;

/// Result of advancing the matcher by one byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult {
    /// At least one stack survived; matching can continue.
    Alive,
    /// Every stack died; the input is not a prefix of any sentence.
    Dead,
    /// More than 4 096 stacks would be alive: the matcher stopped tracking
    /// them and decides nothing about this input or any extension of it.
    Overflow,
}

/// A simple multi-stack PDA executor.
///
/// # Examples
///
/// ```
/// use xg_automata::{build_pda_default, SimpleMatcher};
///
/// let grammar = xg_grammar::builtin::json_grammar();
/// let pda = build_pda_default(&grammar);
/// let mut matcher = SimpleMatcher::new(&pda);
/// assert!(matcher.advance_bytes(br#"{"key": [1, 2"#));
/// assert!(!matcher.can_terminate());
/// assert!(matcher.advance_bytes(b"]}"));
/// assert!(matcher.can_terminate());
/// ```
#[derive(Debug, Clone)]
pub struct SimpleMatcher<'a> {
    pda: &'a Pda,
    stacks: Vec<MatchStack>,
    /// A step overflowed: the stacks are gone, and every step overflows.
    overflowed: bool,
}

impl<'a> SimpleMatcher<'a> {
    /// Creates a matcher positioned at the start of the root rule.
    pub fn new(pda: &'a Pda) -> Self {
        Self::from_stacks(pda, vec![vec![pda.root_start()]])
    }

    /// Creates a matcher whose single stack contains only `node`, i.e. with
    /// an *unknown* parent context. This is how the adaptive token mask cache
    /// classifies context-independent tokens (§3.1).
    pub fn with_start_node(pda: &'a Pda, node: NodeId) -> Self {
        Self::from_stacks(pda, vec![vec![node]])
    }

    /// Creates a matcher from previously captured stacks (see
    /// [`SimpleMatcher::stacks`]), allowing incremental sessions that own
    /// their state separately from the automaton.
    pub fn from_stacks(pda: &'a Pda, stacks: Vec<MatchStack>) -> Self {
        SimpleMatcher {
            pda,
            stacks,
            overflowed: false,
        }
    }

    /// Returns the current set of stacks.
    pub fn stacks(&self) -> &[MatchStack] {
        &self.stacks
    }

    /// Returns `true` if no stack is alive and none overflowed.
    pub fn is_dead(&self) -> bool {
        self.stacks.is_empty() && !self.overflowed
    }

    /// Advances over one byte.
    pub fn advance_byte(&mut self, byte: u8) -> StepResult {
        let mut next: Vec<MatchStack> = Vec::new();
        let mut seen: HashSet<MatchStack> = HashSet::new();
        for stack in &self.stacks {
            let Some(closure) = epsilon_closure(self.pda, stack, usize::MAX) else {
                self.overflowed = true;
                break;
            };
            for config in &closure {
                let Some((&top, returns)) = config.split_last() else {
                    continue;
                };
                for edge in &self.pda.node(top).edges {
                    if let PdaEdge::Bytes { range, target } = *edge {
                        if range.contains(byte) {
                            let new_stack = [returns, &[target]].concat();
                            if seen.insert(new_stack.clone()) {
                                next.push(new_stack);
                            }
                        }
                    }
                }
            }
            if next.len() > MAX_STACKS {
                self.overflowed = true;
                break;
            }
        }
        self.stacks = next;
        if self.overflowed {
            self.stacks.clear();
            StepResult::Overflow
        } else if self.stacks.is_empty() {
            StepResult::Dead
        } else {
            StepResult::Alive
        }
    }

    /// Advances over a byte string; returns `false` (and leaves the matcher
    /// dead) if some byte cannot be consumed.
    ///
    /// # Panics
    ///
    /// Panics if the matcher overflows: an overflow is no rejection.
    /// [`advance_byte`](Self::advance_byte) reports it instead.
    pub fn advance_bytes(&mut self, bytes: &[u8]) -> bool {
        for &b in bytes {
            match self.advance_byte(b) {
                StepResult::Alive => {}
                StepResult::Dead => return false,
                StepResult::Overflow => panic!("{OVERFLOW}"),
            }
        }
        true
    }

    /// Returns `true` if the input consumed so far is a complete sentence of
    /// the grammar (some stack can pop all the way out of the root rule).
    ///
    /// # Panics
    ///
    /// Panics if the matcher overflowed, or overflows taking a closure.
    pub fn can_terminate(&self) -> bool {
        assert!(!self.overflowed, "{OVERFLOW}");
        self.stacks.iter().any(|stack| {
            let closure = epsilon_closure(self.pda, stack, usize::MAX).expect(OVERFLOW);
            closure
                .iter()
                .any(|config| config.len() == 1 && self.pda.node(config[0]).is_final)
        })
    }

    /// Convenience: returns `true` if `input` is a complete sentence.
    pub fn accepts(mut self, input: &[u8]) -> bool {
        self.advance_bytes(input) && self.can_terminate()
    }

    /// Number of live stacks (a measure of grammar ambiguity at this point).
    pub fn stack_count(&self) -> usize {
        self.stacks.len()
    }
}

/// What the panicking readers of an overflowed matcher say.
const OVERFLOW: &str = "more than 4 096 stacks: the reference matcher decides nothing";

/// Every configuration `stack` reaches without consuming a byte, itself
/// included: a rule reference enters the rule (push), a final node above the
/// bottom frame returns to its caller (pop). A reference whose return node
/// is a pure return replaces the frame instead (a tail call: the language is
/// the same, and right recursion costs no frame); any other reference pushes
/// only while the stack holds fewer than `max_frames` frames, and is dropped
/// past that. [`SimpleMatcher`] passes no bound (`usize::MAX`).
///
/// Termination is guaranteed for grammars that pass the left-recursion check;
/// past 4 096 configurations the closure overflows (`None`).
pub fn epsilon_closure(pda: &Pda, stack: &[NodeId], max_frames: usize) -> Option<Vec<MatchStack>> {
    let mut out: Vec<MatchStack> = Vec::new();
    let mut seen: HashSet<MatchStack> = HashSet::from([stack.to_vec()]);
    let mut queue: Vec<MatchStack> = vec![stack.to_vec()];
    while let Some(config) = queue.pop() {
        if out.len() > MAX_STACKS {
            return None;
        }
        if let Some((&top, returns)) = config.split_last() {
            let node = pda.node(top);
            for edge in &node.edges {
                if let PdaEdge::Rule { rule, target } = *edge {
                    let start = pda.rule(rule).start;
                    let entered = if pda.node(target).is_pure_return() {
                        [returns, &[start]].concat()
                    } else if config.len() < max_frames {
                        [returns, &[target, start]].concat()
                    } else {
                        continue;
                    };
                    if seen.insert(entered.clone()) {
                        queue.push(entered);
                    }
                }
            }
            if node.is_final && !returns.is_empty() && seen.insert(returns.to_vec()) {
                queue.push(returns.to_vec());
            }
        }
        out.push(config);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_pda, build_pda_default, PdaBuildOptions};
    use xg_grammar::parse_ebnf;

    #[test]
    fn with_start_node_matches_within_a_rule() {
        let g = parse_ebnf(
            r#"
            root ::= "[" str "]"
            str ::= "\"" [a-z]* "\""
            "#,
            "root",
        )
        .unwrap();
        // Disable inlining so the `str` rule survives as a separate automaton.
        let pda = build_pda(
            &g,
            &PdaBuildOptions {
                inline_rules: false,
                ..Default::default()
            },
        );
        // Starting from the str rule's start node, `"abc"` is fully matched
        // within the rule.
        let str_rule = pda
            .rules()
            .iter()
            .position(|r| r.name == "str")
            .expect("str rule exists");
        let start = pda.rules()[str_rule].start;
        let mut m = SimpleMatcher::with_start_node(&pda, start);
        assert!(m.advance_bytes(b"\"abc\""));
        // ... but `"]` needs the parent context and dies with an unknown
        // parent (the matcher cannot pop past the artificial stack bottom).
        let mut m2 = SimpleMatcher::with_start_node(&pda, start);
        assert!(!m2.advance_bytes(b"\"abc\"]"));
    }

    #[test]
    fn ambiguity_creates_parallel_stacks() {
        // Two expansions match the same prefix.
        let g = parse_ebnf(
            r#"
            root ::= a | b
            a ::= "xx" "a"
            b ::= "x" "xb"
            "#,
            "root",
        )
        .unwrap();
        let pda = build_pda(&g, &PdaBuildOptions::unoptimized());
        let mut m = SimpleMatcher::new(&pda);
        assert!(m.advance_bytes(b"x"));
        assert!(m.stack_count() >= 2);
        assert!(m.advance_bytes(b"xa"));
        assert!(m.can_terminate());
    }

    #[test]
    fn termination_requires_complete_sentence() {
        let g = xg_grammar::builtin::json_grammar();
        let pda = build_pda_default(&g);
        let mut m = SimpleMatcher::new(&pda);
        assert!(m.advance_bytes(br#"{"a": [1, 2]"#));
        assert!(!m.can_terminate());
        assert!(m.advance_bytes(b"}"));
        assert!(m.can_terminate());
        // Trailing whitespace keeps it terminable.
        assert!(m.advance_bytes(b" \n"));
        assert!(m.can_terminate());
    }

    #[test]
    fn dead_matcher_stays_dead() {
        let g = xg_grammar::builtin::json_grammar();
        let pda = build_pda_default(&g);
        let mut m = SimpleMatcher::new(&pda);
        assert!(!m.advance_bytes(b"nope"));
        assert!(m.is_dead());
        assert_eq!(m.advance_byte(b'x'), StepResult::Dead);
        assert!(!m.can_terminate());
    }

    #[test]
    fn epsilon_closure_includes_push_and_pop() {
        let g = parse_ebnf(
            r#"
            root ::= inner "!"
            inner ::= "a"?
            "#,
            "root",
        )
        .unwrap();
        let pda = build_pda(&g, &PdaBuildOptions::unoptimized());
        let closure = epsilon_closure(&pda, &[pda.root_start()], usize::MAX).unwrap();
        // The closure contains the root start itself, the entered `inner`
        // rule, and (because `inner` is nullable) the popped-back return
        // position.
        assert!(closure.len() >= 3);
    }

    #[test]
    fn a_tail_call_costs_no_frame_and_a_push_past_the_bound_is_dropped() {
        let g = parse_ebnf(
            r#"
            root ::= "(" v ")"
            v ::= "[" v "]" | "x" | "y" v
            "#,
            "root",
        )
        .unwrap();
        let pda = build_pda_default(&g);
        let mut m = SimpleMatcher::new(&pda);
        // `v` after "y" is in tail position: it replaces the frame.
        assert!(m.advance_bytes(b"(yyyyyyyy"));
        assert!(m.stacks().iter().all(|stack| stack.len() == 2));
        assert!(m.advance_bytes(b"[[x]])"));
        assert!(m.can_terminate());

        let mut m = SimpleMatcher::new(&pda);
        assert!(m.advance_bytes(b"("));
        let [stack] = m.stacks() else {
            panic!("one stack after the first byte")
        };
        let depth = |bound| {
            let closure = epsilon_closure(&pda, stack, bound).unwrap();
            closure.iter().map(Vec::len).max()
        };
        assert_eq!(depth(1), Some(1), "entering `v` needs a second frame");
        assert_eq!(depth(2), Some(2));
    }
}
