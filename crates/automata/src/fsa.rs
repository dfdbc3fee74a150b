//! A small nondeterministic finite-state automaton over bytes.
//!
//! Used for the *expanded suffix* automata of context expansion (paper §3.2,
//! Algorithm 2) and for the PDA unrolled by the Outlines and
//! lm-format-enforcer baselines. Edges are labelled with inclusive byte
//! ranges; there are no epsilon edges.

use std::collections::BTreeSet;

use crate::utf8::ByteRange;

/// Identifier of a state inside an [`Fsa`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// Returns the state id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct State {
    edges: Vec<(ByteRange, StateId)>,
    is_final: bool,
}

/// A byte-level NFA without epsilon edges.
///
/// # Examples
///
/// ```
/// use xg_automata::{ByteRange, Fsa};
///
/// let mut fsa = Fsa::new();
/// let s0 = fsa.start();
/// let s1 = fsa.add_state();
/// fsa.add_edge(s0, ByteRange::new(b'a', b'z'), s1);
/// fsa.set_final(s1, true);
/// assert!(fsa.accepts(b"q"));
/// assert!(!fsa.accepts(b"qq"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fsa {
    states: Vec<State>,
    start: StateId,
}

impl Default for Fsa {
    fn default() -> Self {
        Self::new()
    }
}

/// Result of running an FSA over the *remaining* bytes of a
/// context-dependent token during context expansion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuffixMatch {
    /// The remaining bytes can neither extend to nor contain an accepted
    /// string: the token is certainly invalid in every parent context.
    Rejected,
    /// The remaining bytes are a prefix of an accepted string, or start with
    /// an accepted string; validity still depends on the runtime stack.
    Possible,
}

impl Fsa {
    /// Creates an FSA with a single non-final start state.
    pub fn new() -> Self {
        Fsa {
            states: vec![State::default()],
            start: StateId(0),
        }
    }

    /// Returns the start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Returns the number of states.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// Estimated heap memory: a fixed 48 bytes per state, the figure every
    /// compiled artifact that holds an FSA charges for it.
    pub fn memory_bytes(&self) -> usize {
        self.states.len() * 48
    }

    /// Returns `true` if the FSA has no states (never true in practice; the
    /// start state always exists).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Adds a fresh non-final state and returns its id.
    pub fn add_state(&mut self) -> StateId {
        let id = StateId(self.states.len() as u32);
        self.states.push(State::default());
        id
    }

    /// Adds an edge labelled with a byte range.
    ///
    /// # Panics
    ///
    /// Panics if either state id is out of range.
    pub fn add_edge(&mut self, from: StateId, range: ByteRange, to: StateId) {
        assert!(to.index() < self.states.len(), "edge target out of range");
        self.states[from.index()].edges.push((range, to));
    }

    /// Marks a state as final or not.
    pub fn set_final(&mut self, state: StateId, is_final: bool) {
        self.states[state.index()].is_final = is_final;
    }

    /// Returns `true` if the state is final.
    pub fn is_final(&self, state: StateId) -> bool {
        self.states[state.index()].is_final
    }

    /// Returns the outgoing edges of a state.
    pub fn edges(&self, state: StateId) -> &[(ByteRange, StateId)] {
        &self.states[state.index()].edges
    }

    /// Returns `true` if a final state is reachable from the start state,
    /// i.e. the automaton's language is non-empty.
    #[cfg(test)]
    pub(crate) fn has_reachable_final_state(&self) -> bool {
        let mut visited = vec![false; self.states.len()];
        let mut stack = vec![self.start];
        visited[self.start.index()] = true;
        while let Some(s) = stack.pop() {
            if self.states[s.index()].is_final {
                return true;
            }
            for &(_, to) in &self.states[s.index()].edges {
                if !visited[to.index()] {
                    visited[to.index()] = true;
                    stack.push(to);
                }
            }
        }
        false
    }

    /// Steps a set of states over one byte.
    pub fn step(&self, states: &BTreeSet<StateId>, byte: u8) -> BTreeSet<StateId> {
        let mut next = BTreeSet::new();
        for &s in states {
            for &(range, to) in &self.states[s.index()].edges {
                if range.contains(byte) {
                    next.insert(to);
                }
            }
        }
        next
    }

    /// Returns `true` if the FSA accepts exactly `input`.
    pub fn accepts(&self, input: &[u8]) -> bool {
        let mut states: BTreeSet<StateId> = BTreeSet::new();
        states.insert(self.start);
        for &b in input {
            states = self.step(&states, b);
            if states.is_empty() {
                return false;
            }
        }
        states.iter().any(|s| self.is_final(*s))
    }

    /// Classifies the remaining bytes of a context-dependent token against
    /// this expanded-suffix automaton (paper §3.2): the remainder is
    /// [`SuffixMatch::Possible`] if it is a prefix of an accepted string or
    /// starts with an accepted string, and [`SuffixMatch::Rejected`]
    /// otherwise.
    pub fn match_remaining(&self, remaining: &[u8]) -> SuffixMatch {
        // Consuming every byte with live states makes the remainder a prefix
        // of an accepted string.
        self.decide_prefix(remaining)
            .map_or(SuffixMatch::Possible, |(verdict, _)| verdict)
    }

    /// `Some((verdict, read))`: the verdict
    /// [`match_remaining`](Self::match_remaining) gives to *every* byte
    /// string starting with `prefix[..read]`, and `read`, the number of bytes
    /// it took. `None` when all of `prefix` leaves it undecided. The scan
    /// stops at the first empty state set (rejected) or the first final state
    /// (possible), so whatever follows `prefix[..read]` is never read — which
    /// lets the mask-cache build classify a whole run of tokens sharing those
    /// bytes at once.
    pub fn decide_prefix(&self, prefix: &[u8]) -> Option<(SuffixMatch, usize)> {
        if self.is_final(self.start) {
            return Some((SuffixMatch::Possible, 0));
        }
        // Asked once per died token and pop-out offset of a mask-cache build:
        // the sets hold a handful of states, so no `BTreeSet` per byte.
        let (mut states, mut next) = (vec![self.start], Vec::new());
        for (i, &b) in prefix.iter().enumerate() {
            next.clear();
            for &(range, to) in states.iter().flat_map(|s| &self.states[s.index()].edges) {
                if range.contains(b) && !next.contains(&to) {
                    next.push(to);
                }
            }
            if next.is_empty() {
                return Some((SuffixMatch::Rejected, i + 1));
            }
            if next.iter().any(|s| self.is_final(*s)) {
                // The remainder starts with an accepted expanded suffix.
                return Some((SuffixMatch::Possible, i + 1));
            }
            std::mem::swap(&mut states, &mut next);
        }
        None
    }

    /// Merges `other` into `self` as an alternative (language union). The
    /// other automaton's start-state edges are copied onto this automaton's
    /// start state.
    pub fn union_with(&mut self, other: &Fsa) {
        if other.states.len() == 1 && other.states[0].edges.is_empty() && !other.states[0].is_final
        {
            return;
        }
        let offset = self.states.len() as u32;
        for state in &other.states {
            let mut new_state = State {
                edges: Vec::with_capacity(state.edges.len()),
                is_final: state.is_final,
            };
            for &(range, to) in &state.edges {
                new_state.edges.push((range, StateId(to.0 + offset)));
            }
            self.states.push(new_state);
        }
        // Copy the other start's edges and finality onto our start.
        let other_start = StateId(other.start.0 + offset);
        let copied: Vec<(ByteRange, StateId)> = self.states[other_start.index()].edges.clone();
        let other_final = self.states[other_start.index()].is_final;
        let start_idx = self.start.index();
        self.states[start_idx].edges.extend(copied);
        if other_final {
            self.states[start_idx].is_final = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn literal_fsa(s: &[u8]) -> Fsa {
        let mut fsa = Fsa::new();
        let mut cur = fsa.start();
        for &b in s {
            let next = fsa.add_state();
            fsa.add_edge(cur, ByteRange::new(b, b), next);
            cur = next;
        }
        fsa.set_final(cur, true);
        fsa
    }

    #[test]
    fn accepts_literal() {
        let fsa = literal_fsa(b"abc");
        assert!(fsa.accepts(b"abc"));
        assert!(!fsa.accepts(b"ab"));
        assert!(!fsa.accepts(b"abcd"));
        assert!(!fsa.accepts(b"abd"));
    }

    #[test]
    fn match_remaining_prefix_and_superstring() {
        let fsa = literal_fsa(b", \"");
        // A strict prefix of an accepted string.
        assert_eq!(fsa.match_remaining(b","), SuffixMatch::Possible);
        // Starts with an accepted string, extra bytes afterwards.
        assert_eq!(fsa.match_remaining(b", \"abc"), SuffixMatch::Possible);
        // Diverges immediately.
        assert_eq!(fsa.match_remaining(b"x"), SuffixMatch::Rejected);
        // Diverges after the prefix.
        assert_eq!(fsa.match_remaining(b",x"), SuffixMatch::Rejected);
    }

    #[test]
    fn decide_prefix_answers_only_what_the_prefix_settles() {
        let fsa = literal_fsa(b", \"");
        assert_eq!(fsa.decide_prefix(b""), None);
        assert_eq!(fsa.decide_prefix(b","), None);
        assert_eq!(fsa.decide_prefix(b",x"), Some((SuffixMatch::Rejected, 2)));
        assert_eq!(fsa.decide_prefix(b", \""), Some((SuffixMatch::Possible, 3)));
        // Bytes after the deciding ones are not read.
        assert_eq!(
            fsa.decide_prefix(b", \"\xff"),
            Some((SuffixMatch::Possible, 3))
        );
        assert_eq!(
            fsa.decide_prefix(b"x, \""),
            Some((SuffixMatch::Rejected, 1))
        );
    }

    /// `decide_prefix` as it was: a fresh `BTreeSet` per byte through `step`.
    fn decide_prefix_by_sets(fsa: &Fsa, prefix: &[u8]) -> Option<(SuffixMatch, usize)> {
        if fsa.is_final(fsa.start()) {
            return Some((SuffixMatch::Possible, 0));
        }
        let mut states = BTreeSet::from([fsa.start()]);
        for (i, &b) in prefix.iter().enumerate() {
            states = fsa.step(&states, b);
            if states.is_empty() {
                return Some((SuffixMatch::Rejected, i + 1));
            }
            if states.iter().any(|s| fsa.is_final(*s)) {
                return Some((SuffixMatch::Possible, i + 1));
            }
        }
        None
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random small NFAs (duplicate and overlapping edges included) over
        /// a three-letter alphabet, against random strings of it.
        #[test]
        fn decide_prefix_equals_the_set_based_version(
            state_count in 1u32..6,
            // (from, to, low letter, high letter) each.
            edges in proptest::collection::vec(proptest::collection::vec(0u8..6, 4..5), 0..14),
            finals in proptest::collection::vec(0u32..6, 0..3),
            inputs in proptest::collection::vec(proptest::collection::vec(0u8..4, 0..7), 1..8),
        ) {
            let mut fsa = Fsa::new();
            for _ in 1..state_count {
                fsa.add_state();
            }
            let state = |i: u32| StateId(i % state_count);
            for edge in &edges {
                let (lo, hi) = (b'a' + edge[2] % 3, b'a' + edge[3] % 3);
                let range = ByteRange::new(lo.min(hi), lo.max(hi));
                fsa.add_edge(state(edge[0].into()), range, state(edge[1].into()));
            }
            for &s in &finals {
                fsa.set_final(state(s), true);
            }
            for input in &inputs {
                let input: Vec<u8> = input.iter().map(|b| b'a' + b).collect();
                let decided = decide_prefix_by_sets(&fsa, &input);
                prop_assert_eq!(fsa.decide_prefix(&input), decided);
                prop_assert_eq!(
                    fsa.match_remaining(&input),
                    decided.map_or(SuffixMatch::Possible, |(verdict, _)| verdict)
                );
                // The bytes a verdict read are all it needs.
                if let Some((_, read)) = decided {
                    prop_assert_eq!(fsa.decide_prefix(&input[..read]), decided);
                }
            }
        }
    }

    #[test]
    fn empty_remaining_is_possible() {
        let fsa = literal_fsa(b"]");
        assert_eq!(fsa.match_remaining(b""), SuffixMatch::Possible);
    }

    #[test]
    fn union_accepts_both_languages() {
        let mut a = literal_fsa(b"],");
        let b = literal_fsa(b"}");
        a.union_with(&b);
        assert!(a.accepts(b"],"));
        assert!(a.accepts(b"}"));
        assert!(!a.accepts(b"],}"));
        assert_eq!(a.match_remaining(b"}x"), SuffixMatch::Possible);
        assert_eq!(a.match_remaining(b"]x"), SuffixMatch::Rejected);
    }

    #[test]
    fn final_start_state_accepts_empty() {
        let mut fsa = Fsa::new();
        let s = fsa.start();
        fsa.set_final(s, true);
        assert!(fsa.accepts(b""));
        assert_eq!(fsa.match_remaining(b"anything"), SuffixMatch::Possible);
    }

    #[test]
    fn union_with_empty_is_noop() {
        let mut a = literal_fsa(b"x");
        let before = a.len();
        a.union_with(&Fsa::new());
        assert_eq!(a.len(), before);
    }
}
