//! Execution of the byte-level PDA over persistent stacks.
//!
//! This module contains the low-level stepping machinery shared by the
//! preprocessing phase (classifying tokens per automaton node for the
//! adaptive token mask cache) and the runtime phase (checking
//! context-dependent tokens against the full stack, and advancing the
//! matcher when a token is accepted).
//!
//! The runtime half neither hashes nor allocates per step: the stepping
//! functions work in a caller-owned [`ExecScratch`] (the matcher keeps one
//! for its whole life, a [`TokenTrail`] carries its own), deduplicate stack
//! handles with an epoch-stamped mark array, and walk a node's edges in
//! place. The compile half, `StepMemo`, hashes on a miss that lands in a
//! multi-head set and grows a row for each new state.

use std::collections::HashMap;

use xg_automata::{NodeId, Pda, PdaEdge};
use xg_tokenizer::{common_prefix_len, TokenId, Vocabulary};

use crate::persistent_stack::{PersistentStackTree, StackHandle};

/// Hard cap on the number of parallel stacks tracked at once. Grammars that
/// exceed it are pathological; exceeding the cap degrades to tracking a
/// subset (documented behaviour, never observed for the evaluated grammars).
pub(crate) const MAX_PARALLEL_STACKS: usize = 512;

/// Reusable working memory of [`closure`] and [`advance_bytes`]. It carries
/// no state from one call to the next, only capacity.
#[derive(Debug, Default)]
pub(crate) struct ExecScratch {
    /// `mark[h.raw()] == epoch` ⇔ `h` was already met in the current pass.
    mark: Vec<u64>,
    epoch: u64,
    /// Depth-first work list of [`closure`].
    queue: Vec<StackHandle>,
    /// Output of the last [`closure`].
    expanded: Vec<StackHandle>,
}

impl ExecScratch {
    /// Starts a deduplication pass: every handle counts as unseen again.
    pub(crate) fn new_pass(&mut self) {
        self.epoch += 1;
    }

    /// Returns `true` the first time `h` is offered in the current pass.
    pub(crate) fn first_visit(&mut self, h: StackHandle) -> bool {
        let i = h.raw() as usize;
        if i >= self.mark.len() {
            self.mark.resize(i + 1, 0);
        }
        std::mem::replace(&mut self.mark[i], self.epoch) != self.epoch
    }
}

/// Expands a set of stack heads into their epsilon closure: every
/// configuration reachable without consuming a byte, by entering referenced
/// rules or returning from completed rules (pop). Entering a rule pushes its
/// start over the return node, unless the return node is a pure return: then
/// nothing of the caller is left to do, and the callee's start replaces the
/// caller's frame (a tail call). A right-recursive rule so keeps its stack
/// depth, and the step memo meets the same stacks again. The closure is
/// returned as a slice of `scratch`.
///
/// `on_popout` is invoked for every configuration that reaches the final node
/// of the *bottom* frame — i.e. that could pop out of the frame the matching
/// started in, which the caller interprets as either "needs parent context"
/// (preprocessing) or "the whole grammar can terminate here" (runtime). Tail
/// calls leave it unchanged: a tail callee finishing in the bottom frame is
/// the caller finishing there.
pub(crate) fn closure<'s>(
    pda: &Pda,
    tree: &mut PersistentStackTree,
    heads: &[StackHandle],
    scratch: &'s mut ExecScratch,
    mut on_popout: impl FnMut(StackHandle),
) -> &'s [StackHandle] {
    scratch.new_pass();
    scratch.queue.clear();
    scratch.expanded.clear();
    for &h in heads {
        if scratch.first_visit(h) {
            scratch.queue.push(h);
        }
    }
    while let Some(h) = scratch.queue.pop() {
        scratch.expanded.push(h);
        if scratch.expanded.len() >= MAX_PARALLEL_STACKS {
            break;
        }
        let top = tree.top(h).expect("stack heads always carry a top node");
        let node = pda.node(top);
        // Expand rule references (push, or replace for a tail call).
        for edge in &node.edges {
            if let PdaEdge::Rule { rule, target } = edge {
                let start = pda.rule(*rule).start;
                let child = if pda.node(*target).is_pure_return() {
                    tree.replace_top(h, start)
                } else {
                    let with_return = tree.replace_top(h, *target);
                    tree.push(with_return, start)
                };
                if scratch.first_visit(child) {
                    scratch.queue.push(child);
                }
            }
        }
        // Return to the parent rule (pop), or report a pop-out of the bottom
        // frame.
        if node.is_final {
            if tree.depth(h) > 1 {
                let popped = tree.pop(h);
                if scratch.first_visit(popped) {
                    scratch.queue.push(popped);
                }
            } else {
                on_popout(h);
            }
        }
    }
    &scratch.expanded
}

/// Moves every configuration of the last [`closure`] in `scratch` over
/// `byte`, appending the deduplicated survivors to `out` (nothing when the
/// byte is not matchable).
fn step_byte(
    pda: &Pda,
    tree: &mut PersistentStackTree,
    byte: u8,
    scratch: &mut ExecScratch,
    out: &mut Vec<StackHandle>,
) {
    scratch.new_pass();
    let start = out.len();
    for i in 0..scratch.expanded.len() {
        let h = scratch.expanded[i];
        let top = tree.top(h).expect("stack heads always carry a top node");
        for edge in &pda.node(top).edges {
            if let PdaEdge::Bytes { range, target } = edge {
                if range.contains(byte) {
                    let nh = tree.replace_top(h, *target);
                    if scratch.first_visit(nh) {
                        out.push(nh);
                    }
                }
            }
        }
        if out.len() - start >= MAX_PARALLEL_STACKS {
            break;
        }
    }
}

/// Advances `heads` in place over `bytes`. On `Err(i)` no stack could
/// consume `bytes[i]` and `heads` is left empty.
pub(crate) fn advance_bytes(
    pda: &Pda,
    tree: &mut PersistentStackTree,
    heads: &mut Vec<StackHandle>,
    bytes: &[u8],
    scratch: &mut ExecScratch,
) -> Result<(), usize> {
    for (i, &byte) in bytes.iter().enumerate() {
        // The closure holds all that is needed of the old heads.
        closure(pda, tree, heads, scratch, |_| {});
        heads.clear();
        step_byte(pda, tree, byte, scratch, heads);
        if heads.is_empty() {
            return Err(i);
        }
    }
    Ok(())
}

/// Returns `true` if, without consuming more bytes, some stack can pop out of
/// its bottom frame (for a matcher whose bottom frame is the root rule this
/// means the generated text is a complete sentence).
pub(crate) fn can_pop_out(
    pda: &Pda,
    tree: &mut PersistentStackTree,
    heads: &[StackHandle],
    scratch: &mut ExecScratch,
) -> bool {
    let mut can = false;
    closure(pda, tree, heads, scratch, |_| can = true);
    can
}

/// A resumable byte-matching trail: the sequence of stack-head sets after
/// each consumed byte, kept so that matching can be rolled back to any prefix
/// length in O(1).
///
/// This is the mechanism of paper §3.3: when checking a sorted list of tokens
/// (during preprocessing, or the context-dependent tokens of one stack at
/// runtime), adjacent tokens share long prefixes; the trail rolls back to the
/// shared prefix instead of re-matching it.
///
/// A trail is reusable: [`reset`](Self::reset) restarts it from new heads and
/// keeps every buffer, so a matcher resolves all its masks with the one
/// trail it owns.
#[derive(Debug, Default)]
pub(crate) struct TokenTrail {
    /// The head sets, back to back: the heads after consuming `i` bytes are
    /// `flat[ends[i - 1]..ends[i]]` (from 0 for the initial set, `i == 0`).
    flat: Vec<StackHandle>,
    ends: Vec<usize>,
    /// `popout[i]` = while advancing from state `i`, some configuration
    /// could pop out of the bottom frame (so the remainder starting at byte
    /// offset `i` would have to be matched by parent context). One entry per
    /// consumed byte.
    popout: Vec<bool>,
    /// Steps taken from a non-empty head set (the §3.3 statistic).
    #[cfg(test)]
    bytes_advanced: u64,
    scratch: ExecScratch,
}

impl TokenTrail {
    /// Restarts the trail from the given heads with nothing consumed.
    pub(crate) fn reset(&mut self, initial: &[StackHandle]) {
        self.flat.clear();
        self.flat.extend_from_slice(initial);
        self.ends.clear();
        self.ends.push(initial.len());
        self.popout.clear();
    }

    /// Current prefix length in bytes.
    pub(crate) fn prefix_len(&self) -> usize {
        self.popout.len()
    }

    /// Rolls the trail back so that only `len` bytes remain matched.
    pub(crate) fn rollback_to(&mut self, len: usize) {
        debug_assert!(len <= self.prefix_len());
        self.ends.truncate(len + 1);
        self.flat.truncate(self.ends[len]);
        self.popout.truncate(len);
    }

    /// Advances the trail by one byte. Returns `true` if at least one stack
    /// survived.
    pub(crate) fn advance(&mut self, pda: &Pda, tree: &mut PersistentStackTree, byte: u8) -> bool {
        let end = self.flat.len();
        let current = &self.flat[self.current_start()..];
        let mut popout_here = false;
        if !current.is_empty() {
            // The closure is complete before the first survivor is appended
            // to the buffer the current heads are read from.
            closure(pda, tree, current, &mut self.scratch, |_| {
                popout_here = true
            });
            step_byte(pda, tree, byte, &mut self.scratch, &mut self.flat);
            #[cfg(test)]
            {
                self.bytes_advanced += 1;
            }
        }
        self.popout.push(popout_here);
        self.ends.push(self.flat.len());
        self.flat.len() > end
    }

    /// Matches `token`, reusing the first `keep` bytes the trail holds (the
    /// caller passes the longest common prefix with the previously matched
    /// token). `Err(p)` means no stack could consume `token[p]`: the trail
    /// then ends in the dead state after `token[..=p]`, with the pop-outs
    /// recorded up to offset `p`, and every token sharing that prefix fails
    /// the same way without any automaton work.
    pub(crate) fn match_token(
        &mut self,
        pda: &Pda,
        tree: &mut PersistentStackTree,
        token: &[u8],
        keep: usize,
    ) -> Result<(), usize> {
        // A trail that died holds less than the shared prefix.
        let keep = keep.min(self.prefix_len());
        self.rollback_to(keep);
        if keep > 0 && self.current_heads().is_empty() {
            return Err(keep - 1);
        }
        for (i, &b) in token.iter().enumerate().skip(keep) {
            if !self.advance(pda, tree, b) {
                return Err(i);
            }
        }
        Ok(())
    }

    /// Matches each of `tokens` — sorted by their byte strings, so that
    /// neighbours share prefixes — against the stacks `heads`, calling
    /// `on_match` for those the stacks can consume entirely.
    pub(crate) fn match_sorted(
        &mut self,
        pda: &Pda,
        tree: &mut PersistentStackTree,
        vocab: &Vocabulary,
        heads: &[StackHandle],
        tokens: &[TokenId],
        mut on_match: impl FnMut(TokenId),
    ) {
        self.reset(heads);
        let mut prev: &[u8] = &[];
        for &token in tokens {
            let bytes = vocab.token_bytes(token);
            if self
                .match_token(pda, tree, bytes, common_prefix_len(prev, bytes))
                .is_ok()
            {
                on_match(token);
            }
            prev = bytes;
        }
    }

    /// Heads after the full current prefix.
    pub(crate) fn current_heads(&self) -> &[StackHandle] {
        &self.flat[self.current_start()..]
    }

    fn current_start(&self) -> usize {
        self.prefix_len().checked_sub(1).map_or(0, |i| self.ends[i])
    }
}

/// States a [`StepMemo`] holds before it clears itself: a 1 KiB row each, so
/// ≈ 1 MB per compile worker. No benchmark grammar fills it (the twelve cold
/// schemas, the five warm ones, XML and JSON, at 32k and 128k tokens; tail
/// calls keep right-recursive rules at one depth). It bounds a hostile
/// grammar whose walk seldom revisits a state, such as many nesting rules
/// that each push a frame per opening byte, which would otherwise pay a row
/// per step for nothing.
const MAX_MEMO_STATES: usize = 1024;

/// The PDA determinised lazily for the mask-cache build: a head set is a dense
/// state id, and a step is computed the first time only. A state's first miss
/// runs [`closure`] once and settles, in the same pass, every byte no head of
/// the closure has an edge for: dead. Each later miss is a live byte, and runs
/// [`closure`] + `step_byte`. States are keyed by the *exact* head sequence
/// `step_byte` produced, and the live bytes come from the same truncated
/// closure it reads, so the [`MAX_PARALLEL_STACKS`] truncation and every
/// classification are the unmemoised walk's. One memo serves all the nodes
/// (of one PDA) a compile worker classifies.
#[derive(Debug, Default)]
pub(crate) struct StepMemo {
    tree: PersistentStackTree,
    scratch: ExecScratch,
    /// State `s >= 1` is `heads[ends[s - 1]..ends[s]]`; 0 is the dead set.
    heads: Vec<StackHandle>,
    ends: Vec<usize>,
    /// `rows[s][b]`: the state `b` leads to from `s`; `u32::MAX` until computed.
    rows: Vec<[u32; 256]>,
    /// Whether `s` can pop out of the bottom frame; `None` until the first
    /// miss of `s`, which also fills its dead bytes.
    popout: Vec<Option<bool>>,
    /// The state of the one-head set `{h}`, by `h.raw()` (0 = none yet);
    /// every other state is in `multi`, by its head sequence.
    singleton: Vec<u32>,
    multi: HashMap<Box<[StackHandle]>, u32>,
    limit: usize,
    /// The steps computed rather than looked up.
    pub(crate) misses: u64,
    /// Steps [`match_token`](Self::match_token) took from a live state
    /// ([`TokenTrail::bytes_advanced`]): the bytes after `keep` it matched.
    #[cfg(test)]
    pub(crate) steps: u64,
}

impl StepMemo {
    /// An empty memo; `default()` alone lacks the dead state and the bound.
    pub(crate) fn new() -> Self {
        StepMemo {
            ends: vec![0],
            rows: vec![[0; 256]],
            popout: vec![Some(false)],
            limit: MAX_MEMO_STATES,
            ..Default::default()
        }
    }

    /// Interns the head sequence `heads[from..]`, taking it off the buffer if known.
    fn intern(&mut self, from: usize) -> u32 {
        let slot = match &self.heads[from..] {
            [] => return 0,
            [h] => {
                // Cleared with the tree, so never longer than it.
                self.singleton.resize(self.tree.len(), 0);
                &mut self.singleton[h.raw() as usize]
            }
            many => self.multi.entry(many.into()).or_insert(0),
        };
        if *slot == 0 {
            *slot = self.ends.len() as u32;
            self.ends.push(self.heads.len());
            self.rows.push([u32::MAX; 256]);
            self.popout.push(None);
        } else {
            self.heads.truncate(from);
        }
        *slot
    }

    /// Forgets every state when `steps` more could outgrow the bound (a step
    /// adds one state at most, and a start one more); `trail`'s ids die with
    /// them, so it is emptied too.
    pub(crate) fn make_room(&mut self, trail: &mut Vec<u32>, steps: usize) {
        if self.ends.len() + steps >= self.limit {
            self.tree.clear();
            self.heads.clear();
            self.ends.truncate(1);
            self.rows.truncate(1);
            self.popout.truncate(1);
            self.singleton.clear();
            self.multi.clear();
            trail.clear();
        }
    }

    /// The state of the one stack `[node]`, where a walk of `trail` starts:
    /// `trail[0]`, interned first when the trail is empty.
    pub(crate) fn start(&mut self, node: NodeId, trail: &mut Vec<u32>) -> u32 {
        if trail.is_empty() {
            self.heads.push(self.tree.push(StackHandle::ROOT, node));
            trail.push(self.intern(self.heads.len() - 1));
        }
        trail[0]
    }

    /// Whether `state` can pop out of the bottom frame; known once a step
    /// from it was taken.
    pub(crate) fn pops_out(&self, state: u32) -> bool {
        self.popout[state as usize] == Some(true)
    }

    /// The state `byte` leads to from `state` (0 when no stack consumes it).
    pub(crate) fn step(&mut self, pda: &Pda, state: u32, byte: u8) -> u32 {
        match self.rows[state as usize][byte as usize] {
            u32::MAX => self.miss(pda, state, byte),
            next => next,
        }
    }

    /// Computes and records the transition [`step`](Self::step) did not
    /// find — at a state's first miss, every dead byte of its row too — kept
    /// out of line so the table lookup stays small enough to inline into the
    /// token loop.
    #[cold]
    #[inline(never)]
    fn miss(&mut self, pda: &Pda, state: u32, byte: u8) -> u32 {
        let (s, from) = (state as usize, self.heads.len());
        self.misses += 1;
        let (tree, scratch, mut popout) = (&mut self.tree, &mut self.scratch, false);
        let heads = &self.heads[self.ends[s - 1]..self.ends[s]];
        let expanded = closure(pda, tree, heads, scratch, |_| popout = true);
        if self.popout[s].is_none() {
            // Only a byte some head has an edge for can lead anywhere.
            self.popout[s] = Some(popout);
            let row = &mut self.rows[s];
            row.fill(0);
            for top in expanded.iter().filter_map(|&h| tree.top(h)) {
                for edge in &pda.node(top).edges {
                    if let PdaEdge::Bytes { range, .. } = edge {
                        row[range.lo as usize..=range.hi as usize].fill(u32::MAX);
                    }
                }
            }
            if row[byte as usize] == 0 {
                return 0;
            }
        }
        step_byte(pda, tree, byte, scratch, &mut self.heads);
        self.rows[s][byte as usize] = self.intern(from);
        self.rows[s][byte as usize]
    }

    /// [`TokenTrail::match_token`] from the single stack `[node]`, over state ids:
    /// `trail[i]` is the state after `token[..i]`; empty until a walk or
    /// [`start`](Self::start) fills it.
    pub(crate) fn match_token(
        &mut self,
        pda: &Pda,
        node: NodeId,
        trail: &mut Vec<u32>,
        token: &[u8],
        keep: usize,
    ) -> Result<(), usize> {
        let keep = keep.min(trail.len().saturating_sub(1));
        trail.truncate(keep + 1);
        if keep > 0 && trail[keep] == 0 {
            return Err(keep - 1);
        }
        self.make_room(trail, token.len() - keep);
        if trail.is_empty() {
            // Walk the held prefix again, which a clear forgot.
            self.start(node, trail);
            for (i, &b) in token[..keep].iter().enumerate() {
                trail.push(self.step(pda, trail[i], b));
            }
        }
        let mut state = trail[keep];
        for (i, &b) in token.iter().enumerate().skip(keep) {
            state = self.step(pda, state, b);
            trail.push(state);
            #[cfg(test)]
            {
                self.steps += 1;
            }
            if state == 0 {
                return Err(i);
            }
        }
        Ok(())
    }

    /// [`TokenTrail::popout_offsets`] of the trail `match_token` left.
    pub(crate) fn popout_offsets<'a>(
        &'a self,
        trail: &'a [u32],
    ) -> impl Iterator<Item = usize> + 'a {
        let stepped_from = &trail[..trail.len() - 1];
        let popout = |(i, &s): (usize, &u32)| (self.popout[s as usize] == Some(true)).then_some(i);
        stepped_from.iter().enumerate().filter_map(popout)
    }
}

#[cfg(test)]
impl TokenTrail {
    /// Byte offsets `o < len` at which a pop-out of the bottom frame was
    /// possible (the remainder `token[o..]` would be matched by the parent
    /// context). Only offsets within the current prefix are reported.
    pub(crate) fn popout_offsets(&self) -> impl Iterator<Item = usize> + '_ {
        self.popout
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| if p { Some(i) } else { None })
    }

    /// Total number of bytes advanced over the lifetime of the trail:
    /// steps taken from a live head set, neither rolled-back reuse nor the
    /// bookkeeping on a trail that already died.
    pub(crate) fn bytes_advanced(&self) -> u64 {
        self.bytes_advanced
    }
}

#[cfg(test)]
impl StepMemo {
    /// A memo that clears itself at `limit` states, so that a test's small
    /// build clears it hundreds of times.
    pub(crate) fn with_limit(limit: usize) -> Self {
        StepMemo {
            limit,
            ..Self::new()
        }
    }

    /// States interned since the last clear, the dead one included.
    pub(crate) fn state_count(&self) -> usize {
        self.ends.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use xg_automata::{build_pda, PdaBuildOptions};
    use xg_grammar::parse_ebnf;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random grammar, random node, random byte strings matched the way a
        /// classifier matches sorted tokens: after every token the memo trail
        /// reports what the unmemoised [`TokenTrail`] reports, and the state
        /// after each byte holds exactly the stacks [`advance_bytes`] ends
        /// with, in its order. A third of the cases run a memo with room for
        /// 8 states, which clears itself under the trail every few tokens.
        #[test]
        fn memo_trail_walks_what_the_unmemoised_trail_walks(seed in 0u64..100_000) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let grammar = crate::mask_cache::differential::random_grammar(&mut rng);
            let options = PdaBuildOptions {
                inline_rules: seed % 2 == 0,
                ..Default::default()
            };
            let pda = build_pda(&grammar, &options);
            let mut memo = match seed % 3 {
                0 => StepMemo::with_limit(8),
                _ => StepMemo::new(),
            };
            for _ in 0..4 {
                let node = NodeId(rng.gen_range(0..pda.node_count() as u32));
                let (mut trail, steps_before) = (Vec::new(), memo.steps);
                let mut tree = PersistentStackTree::new();
                let start = tree.push(StackHandle::ROOT, node);
                let mut reference = TokenTrail::default();
                reference.reset(&[start]);
                let mut previous: Vec<u8> = Vec::new();
                for _ in 0..24 {
                    // Extend or vary the previous string, so prefixes are shared.
                    let mut token = previous.clone();
                    token.truncate(rng.gen_range(0..=previous.len()));
                    while token.len() < 6 && (token.is_empty() || rng.gen_range(0..3) > 0) {
                        token.push(b"ab01,:]} c"[rng.gen_range(0..10usize)]);
                    }
                    let keep = common_prefix_len(&previous, &token);
                    prop_assert_eq!(
                        memo.match_token(&pda, node, &mut trail, &token, keep),
                        reference.match_token(&pda, &mut tree, &token, keep)
                    );
                    prop_assert_eq!(
                        memo.popout_offsets(&trail).collect::<Vec<_>>(),
                        reference.popout_offsets().collect::<Vec<_>>()
                    );
                    prop_assert_eq!(memo.steps - steps_before, reference.bytes_advanced());
                    prop_assert_eq!(trail.len() - 1, reference.prefix_len());
                    for (len, &state) in trail.iter().enumerate() {
                        let mut heads = vec![start];
                        let mut scratch = ExecScratch::default();
                        let _ = advance_bytes(&pda, &mut tree, &mut heads, &token[..len], &mut scratch);
                        let want: Vec<_> = heads.iter().map(|&h| tree.stack_to_vec(h)).collect();
                        let held = match state as usize {
                            0 => &[][..],
                            s => &memo.heads[memo.ends[s - 1]..memo.ends[s]],
                        };
                        let got: Vec<_> = held.iter().map(|&h| memo.tree.stack_to_vec(h)).collect();
                        prop_assert_eq!(got, want, "after {:?}", &token[..len]);
                    }
                    previous = token;
                }
            }
        }
    }

    fn json_pda() -> Pda {
        build_pda(
            &xg_grammar::builtin::json_grammar(),
            &PdaBuildOptions::default(),
        )
    }

    fn start_heads(pda: &Pda, tree: &mut PersistentStackTree) -> Vec<StackHandle> {
        vec![tree.push(StackHandle::ROOT, pda.root_start())]
    }

    #[test]
    fn advance_byte_matches_simple_matcher() {
        let pda = json_pda();
        let mut tree = PersistentStackTree::new();
        let mut heads = start_heads(&pda, &mut tree);
        let mut scratch = ExecScratch::default();
        let input = br#"{"a": [1, {"b": null}]}"#;
        let mut simple = xg_automata::SimpleMatcher::new(&pda);
        for &b in input.iter() {
            let alive = advance_bytes(&pda, &mut tree, &mut heads, &[b], &mut scratch).is_ok();
            let simple_alive = simple.advance_byte(b) == xg_automata::StepResult::Alive;
            assert_eq!(alive, simple_alive, "divergence at byte {b}");
        }
        assert!(can_pop_out(&pda, &mut tree, &heads, &mut scratch));
    }

    #[test]
    fn rejection_matches_simple_matcher() {
        let pda = json_pda();
        let mut tree = PersistentStackTree::new();
        let mut heads = start_heads(&pda, &mut tree);
        let mut scratch = ExecScratch::default();
        // The space after the key is fine; `1` where `:` belongs is not.
        assert_eq!(
            advance_bytes(&pda, &mut tree, &mut heads, br#"{"a" 1}"#, &mut scratch),
            Err(5)
        );
        assert!(heads.is_empty());
    }

    #[test]
    fn trail_rollback_reuses_prefixes() {
        let pda = json_pda();
        let mut tree = PersistentStackTree::new();
        let heads = start_heads(&pda, &mut tree);
        let mut trail = TokenTrail::default();
        trail.reset(&heads);
        // Match two tokens sharing the prefix `{"na`.
        assert_eq!(trail.match_token(&pda, &mut tree, br#"{"name"#, 0), Ok(()));
        let advanced_first = trail.bytes_advanced();
        let lcp = common_prefix_len(br#"{"name"#, br#"{"nam_x"#);
        assert_eq!(
            trail.match_token(&pda, &mut tree, br#"{"nam_x"#, lcp),
            Ok(())
        );
        // Only the divergent suffix was re-matched.
        assert_eq!(trail.bytes_advanced(), advanced_first + (7 - lcp) as u64);
    }

    #[test]
    fn trail_records_popout_offsets() {
        // str is referenced from a bracketed context; matching `"ab"]` from
        // the str rule start pops out after the closing quote (offset 4).
        let g = parse_ebnf(
            r#"
            root ::= "[" str "]"
            str ::= "\"" [a-z]* "\""
            "#,
            "root",
        )
        .unwrap();
        let pda = build_pda(
            &g,
            &PdaBuildOptions {
                inline_rules: false,
                ..Default::default()
            },
        );
        let str_start = pda
            .rules()
            .iter()
            .find(|r| r.name == "str")
            .map(|r| r.start)
            .expect("str rule exists");
        let mut tree = PersistentStackTree::new();
        let head = tree.push(StackHandle::ROOT, str_start);
        let mut trail = TokenTrail::default();
        trail.reset(&[head]);
        // The token is not matchable locally (the `]` belongs to the parent)…
        assert_eq!(trail.match_token(&pda, &mut tree, b"\"ab\"]", 0), Err(4));
        // …but a pop-out at offset 4 was recorded (remainder `]`).
        let offsets: Vec<usize> = trail.popout_offsets().collect();
        assert_eq!(offsets, vec![4]);
    }

    #[test]
    fn dead_trail_can_still_be_extended_and_rolled_back() {
        let pda = json_pda();
        let mut tree = PersistentStackTree::new();
        let heads = start_heads(&pda, &mut tree);
        let mut trail = TokenTrail::default();
        trail.reset(&heads);
        assert_eq!(trail.match_token(&pda, &mut tree, b"{x}", 0), Err(1));
        let advanced = trail.bytes_advanced();
        // A token sharing the dead prefix fails where it did, for free.
        assert_eq!(trail.match_token(&pda, &mut tree, b"{xy", 3), Err(1));
        assert_eq!(trail.bytes_advanced(), advanced);
        // Next token shares the prefix `{` only; after rollback it matches.
        assert_eq!(trail.match_token(&pda, &mut tree, b"{}", 1), Ok(()));
    }

    /// `multipleOf`'s residue rules call the next residue's rule after every
    /// digit, in tail position: the callee replaces the caller's frame, so the
    /// stack stays as deep as at the first digit (with a frame pushed per
    /// reference it grows by one per digit, to 40 here).
    #[test]
    fn a_right_recursive_digit_chain_keeps_its_depth() {
        let case = xg_datasets::schema_corpus(12, 11)
            .into_iter()
            .find(|case| case.feature == "multiple-of")
            .expect("the corpus has one schema per feature");
        let k = case.schema["multipleOf"]
            .as_u64()
            .expect("an integer divisor");
        let grammar = xg_grammar::json_schema_to_grammar(&case.schema).unwrap();
        let pda = build_pda(&grammar, &PdaBuildOptions::default());
        // 38 digits, then the two that make the number a multiple of k.
        let mut digits: Vec<u8> = b"9876543210".iter().cycle().take(38).copied().collect();
        let residue = digits
            .iter()
            .fold(0, |r, d| (r * 10 + u64::from(d - b'0')) % k);
        let last = (0..100).find(|d| (residue * 100 + d) % k == 0).unwrap();
        digits.extend(format!("{last:02}").bytes());

        let mut tree = PersistentStackTree::new();
        let mut heads = start_heads(&pda, &mut tree);
        let mut scratch = ExecScratch::default();
        for (i, &digit) in digits.iter().enumerate() {
            advance_bytes(&pda, &mut tree, &mut heads, &[digit], &mut scratch).unwrap();
            let depth = heads.iter().map(|&h| tree.depth(h)).max().unwrap();
            assert!(depth <= 2, "depth {depth} after {} digits", i + 1);
        }
        assert!(can_pop_out(&pda, &mut tree, &heads, &mut scratch));
    }

    #[test]
    fn closure_reports_termination_via_popout() {
        let g = parse_ebnf(r#"root ::= "ab""#, "root").unwrap();
        let pda = build_pda(&g, &PdaBuildOptions::default());
        let mut tree = PersistentStackTree::new();
        let mut heads = vec![tree.push(StackHandle::ROOT, pda.root_start())];
        let mut scratch = ExecScratch::default();
        assert!(!can_pop_out(&pda, &mut tree, &heads, &mut scratch));
        advance_bytes(&pda, &mut tree, &mut heads, b"ab", &mut scratch).unwrap();
        assert!(can_pop_out(&pda, &mut tree, &heads, &mut scratch));
    }
}
