//! The grammar matcher: the runtime half of the engine.
//!
//! A [`GrammarMatcher`] tracks the matching stacks of one generation request.
//! Each decoding step it produces a [`TokenBitmask`] (mostly by reading the
//! adaptive token mask cache and resolving the few context-dependent tokens
//! against the full stack), and after sampling it consumes the chosen token
//! to advance the stacks. It also supports O(1) rollback of recent tokens and
//! jump-forward string detection (Appendix B).
//!
//! The next mask is the union over the live stacks of each stack's own mask
//! (Algorithm 1), and it is computed on the word kernels of
//! [`TokenBitmask`]: the first stack is written straight into the caller's
//! mask, every further one into a scratch mask that is then OR-ed in. The
//! matcher owns everything this needs — scratch mask, [`TokenTrail`],
//! [`ExecScratch`], head buffers, a flat rollback history — so that a
//! steady-state fill, accept or rollback allocates nothing
//! (`tests/alloc_free_decode.rs` counts).

use std::collections::VecDeque;
use std::sync::Arc;

use xg_automata::{Pda, PdaEdge};
use xg_tokenizer::TokenId;

use crate::compiler::CompiledGrammar;
use crate::constraint::ConstraintMatcher;
use crate::error::{AcceptError, RollbackError};
use crate::executor::{
    advance_bytes, can_pop_out, closure, ExecScratch, Stop, TokenTrail, Truncated,
};
use crate::mask::TokenBitmask;
use crate::mask_cache::NodeMaskEntry;
use crate::persistent_stack::{PersistentStackTree, StackHandle};

/// Default number of recently accepted tokens that can be rolled back.
pub const DEFAULT_MAX_ROLLBACK_TOKENS: usize = 32;

/// Runtime statistics of a matcher, used by the benchmark harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatcherStats {
    /// Number of masks generated.
    pub masks_generated: u64,
    /// Number of tokens accepted.
    pub tokens_accepted: u64,
    /// Context-dependent tokens checked at runtime across all masks.
    pub context_dependent_checked: u64,
    /// Tokens whose validity was read directly from the cache.
    pub context_independent_hits: u64,
    /// Sum of [`GrammarMatcher::stack_count`] over the masks generated
    /// (stacks per step = `stacks_total / masks_generated`).
    pub stacks_total: u64,
    /// Largest number of parallel stacks any mask was generated from.
    pub max_stacks: u64,
}

/// The incremental grammar matcher for one generation request, driven
/// through [`ConstraintMatcher`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use xg_core::{ConstraintMatcher, GrammarCompiler, GrammarMatcher, TokenBitmask};
/// use xg_tokenizer::test_vocabulary;
///
/// let vocab = Arc::new(test_vocabulary(600));
/// let compiler = GrammarCompiler::new(Arc::clone(&vocab));
/// let compiled = compiler.compile_builtin_json();
/// let mut matcher = GrammarMatcher::new(compiled);
///
/// let mut mask = TokenBitmask::new_all_rejected(vocab.len());
/// matcher.fill_next_token_bitmask(&mut mask);
/// assert!(mask.count_allowed() > 0);
/// ```
#[derive(Debug)]
pub struct GrammarMatcher {
    compiled: Arc<CompiledGrammar>,
    tree: PersistentStackTree,
    heads: Vec<StackHandle>,
    /// Snapshots of `heads` *before* each accepted token, newest last, stored
    /// back to back: `history_lens[i]` handles of `history` belong to the
    /// i-th snapshot. Two ring buffers, so that recording, trimming the
    /// oldest and rolling back to any snapshot all reuse the same storage.
    history: VecDeque<StackHandle>,
    history_lens: VecDeque<usize>,
    max_rollback: usize,
    terminated: bool,
    stats: MatcherStats,
    /// Boxed: matchers are moved by value (into a tag lane's per-trigger
    /// slots, enums over matcher kinds).
    work: Box<Working>,
}

/// The working memory of a step, kept from step to step and across `reset`.
#[derive(Debug, Default)]
struct Working {
    /// The heads being advanced by an accept or a jump-forward search; the
    /// matcher's `heads` stay intact until the whole unit has matched.
    heads: Vec<StackHandle>,
    exec: ExecScratch,
    trail: TokenTrail,
    /// Mask of the second and every further stack of a multi-stack fill
    /// (sized on the first such fill).
    stack_mask: Option<TokenBitmask>,
}

impl GrammarMatcher {
    /// Creates a matcher with the default rollback window.
    pub fn new(compiled: Arc<CompiledGrammar>) -> Self {
        Self::with_max_rollback(compiled, DEFAULT_MAX_ROLLBACK_TOKENS)
    }

    /// Creates a matcher that can roll back up to `max_rollback` recently
    /// accepted tokens.
    pub fn with_max_rollback(compiled: Arc<CompiledGrammar>, max_rollback: usize) -> Self {
        let mut matcher = GrammarMatcher {
            compiled,
            tree: PersistentStackTree::new(),
            heads: Vec::new(),
            history: VecDeque::new(),
            history_lens: VecDeque::new(),
            max_rollback,
            terminated: false,
            stats: MatcherStats::default(),
            work: Box::default(),
        };
        matcher.reset();
        matcher
    }

    /// The compiled grammar this matcher runs.
    pub fn compiled(&self) -> &Arc<CompiledGrammar> {
        &self.compiled
    }

    /// Runtime statistics.
    pub fn stats(&self) -> MatcherStats {
        self.stats
    }

    /// Number of parallel matching stacks currently alive.
    pub fn stack_count(&self) -> usize {
        self.heads.len()
    }

    /// Special tokens are never produced by the grammar; EOS is allowed
    /// when the structure is complete, or when the check was truncated (its
    /// accept decides).
    fn finish_mask(&mut self, mask: &mut TokenBitmask) {
        for special in self.compiled.vocabulary().special_tokens() {
            mask.reject(special);
        }
        if let Some(eos) = self.compiled.vocabulary().eos() {
            if self.pops_out() != Ok(false) {
                mask.allow(eos);
            }
        }
    }

    /// Whether the text consumed so far is a complete sentence.
    fn pops_out(&mut self) -> Result<bool, Truncated> {
        let pda = self.compiled.pda();
        can_pop_out(pda, &mut self.tree, &self.heads, &mut self.work.exec)
    }

    /// Mask generation using the adaptive token mask cache: Algorithm 1's
    /// merge is the union of the per-stack masks, taken word by word.
    fn fill_mask_with_cache(&mut self, mask: &mut TokenBitmask) {
        self.fill_stack(self.heads[0], mask);
        if self.heads.len() > 1 {
            let mut other = self
                .work
                .stack_mask
                .take()
                .unwrap_or_else(|| TokenBitmask::new_all_rejected(mask.vocab_size()));
            for i in 1..self.heads.len() {
                self.fill_stack(self.heads[i], &mut other);
                mask.union_with(&other);
            }
            self.work.stack_mask = Some(other);
        }
    }

    /// Overwrites `mask` with the mask of the one stack `head`: the
    /// context-independent part of its top node's cache entry (word
    /// kernels), plus the context-dependent tokens that the full stack can
    /// consume.
    fn fill_stack(&mut self, head: StackHandle, mask: &mut TokenBitmask) {
        let compiled = &*self.compiled;
        let top = self.tree.top(head).expect("heads carry a top node");
        debug_assert!(
            !compiled.pda().node(top).is_pure_return() || self.tree.depth(head) == 1,
            "canonical heads never rest on a pure-return node"
        );
        let entry = compiled.entry(top);
        Self::fill_certain(entry, mask);
        self.work.trail.match_sorted(
            compiled.pda(),
            &mut self.tree,
            compiled.vocabulary(),
            &[head],
            entry.uncertain(),
            |token| mask.allow(token),
        );
        self.stats.context_dependent_checked += entry.uncertain().len() as u64;
        self.stats.context_independent_hits += Self::certain_count(entry, mask.vocab_size());
    }

    /// Overwrites `mask` with the *context-independent* portion of a cache
    /// entry using the bulk word kernels. Context-dependent tokens are left
    /// rejected for the caller to resolve.
    fn fill_certain(entry: &NodeMaskEntry, mask: &mut TokenBitmask) {
        match entry {
            NodeMaskEntry::AcceptHeavy {
                rejected,
                uncertain,
            } => {
                mask.allow_all();
                mask.reject_many(rejected);
                mask.reject_many(uncertain);
            }
            NodeMaskEntry::RejectHeavy { accepted, .. } => {
                mask.reject_all();
                mask.allow_many(accepted);
            }
            NodeMaskEntry::Bitset { accepted, .. } => {
                mask.copy_from(accepted);
            }
        }
    }

    /// Number of tokens whose validity the entry answers without runtime
    /// checks (the `context_independent_hits` statistic).
    fn certain_count(entry: &NodeMaskEntry, vocab_len: usize) -> u64 {
        match entry {
            NodeMaskEntry::AcceptHeavy {
                rejected,
                uncertain,
            } => (vocab_len - rejected.len() - uncertain.len()) as u64,
            NodeMaskEntry::RejectHeavy { accepted, .. } => accepted.len() as u64,
            NodeMaskEntry::Bitset { accepted, .. } => accepted.count_allowed() as u64,
        }
    }

    /// Mask generation without the cache: every token is checked against the
    /// full stack (the "PDA baseline" of the ablation study). Tokens are still
    /// checked in sorted order to share prefixes.
    fn fill_mask_naive(&mut self, mask: &mut TokenBitmask) {
        let compiled = &*self.compiled;
        let sorted_ids = compiled.vocabulary().sorted().ids();
        mask.reject_all();
        self.work.trail.match_sorted(
            compiled.pda(),
            &mut self.tree,
            compiled.vocabulary(),
            &self.heads,
            sorted_ids,
            |token| mask.allow(token),
        );
        self.stats.context_dependent_checked += sorted_ids.len() as u64;
    }

    /// Makes the advanced `work.heads` the new heads, recording the old ones
    /// as one rollback unit. On the way it eagerly pops completed rules whose final node has
    /// no further local edges: such a node carries no information beyond
    /// "return to the parent", so replacing it with the parent frame keeps
    /// stack tops on informative nodes (whose cache entries have few
    /// context-dependent tokens) without changing the recognized language.
    fn commit_work(&mut self) {
        self.push_history();
        let pda = self.compiled.pda();
        self.heads.clear();
        self.work.exec.new_pass();
        for &(mut h) in &self.work.heads {
            loop {
                let top = self.tree.top(h).expect("heads carry a top node");
                if pda.node(top).is_pure_return() && self.tree.depth(h) > 1 {
                    h = self.tree.pop(h);
                } else {
                    break;
                }
            }
            if self.work.exec.first_visit(h) {
                self.heads.push(h);
            }
        }
    }

    /// Appends the current heads to the rollback history, dropping the oldest
    /// snapshot once the window is full.
    fn push_history(&mut self) {
        if self.max_rollback == 0 {
            return;
        }
        if self.history_lens.len() == self.max_rollback {
            self.drop_oldest_snapshot();
        }
        self.history.extend(&self.heads);
        self.history_lens.push_back(self.heads.len());
    }

    fn drop_oldest_snapshot(&mut self) {
        if let Some(len) = self.history_lens.pop_front() {
            self.history.drain(..len);
        }
    }

    /// Starts the grammar over as one more rollback unit: the heads before
    /// the restart stay in the history, so rolling it back returns to them.
    /// A tag lane opens each segment of a trigger this way, on the trigger's
    /// one inner matcher.
    pub(crate) fn restart(&mut self) {
        self.push_history();
        self.start_over();
    }

    /// Makes the root rule's start the one head.
    fn start_over(&mut self) {
        let start = self
            .tree
            .push(StackHandle::ROOT, self.compiled.pda().root_start());
        self.heads.clear();
        self.heads.push(start);
        self.terminated = false;
    }

    /// Drops the oldest rollback snapshots until at most `keep` remain.
    pub(crate) fn trim_history(&mut self, keep: usize) {
        while self.history_lens.len() > keep {
            self.drop_oldest_snapshot();
        }
    }

    /// Returns the unique next byte if exactly one byte value can be consumed
    /// from the given heads, or `None` if zero or more than one byte is
    /// possible.
    fn sole_next_byte(
        pda: &Pda,
        tree: &mut PersistentStackTree,
        heads: &[StackHandle],
        scratch: &mut ExecScratch,
    ) -> Option<u8> {
        let mut candidate: Option<u8> = None;
        for &h in closure(pda, tree, heads, scratch, |_| {}).ok()? {
            let top = tree.top(h).expect("heads carry a top node");
            for edge in &pda.node(top).edges {
                if let PdaEdge::Bytes { range, .. } = edge {
                    if range.lo != range.hi {
                        return None;
                    }
                    match candidate {
                        None => candidate = Some(range.lo),
                        Some(existing) if existing == range.lo => {}
                        Some(_) => return None,
                    }
                }
            }
        }
        candidate
    }
}

impl ConstraintMatcher for GrammarMatcher {
    fn vocabulary(&self) -> &Arc<xg_tokenizer::Vocabulary> {
        self.compiled.vocabulary()
    }

    /// Fills `mask` with the set of tokens allowed at the next decoding step.
    ///
    /// # Panics
    ///
    /// Panics if the mask's vocabulary size differs from the compiled
    /// grammar's vocabulary.
    fn fill_next_token_bitmask(&mut self, mask: &mut TokenBitmask) {
        assert_eq!(
            mask.vocab_size(),
            self.compiled.vocabulary().len(),
            "mask size must match the vocabulary"
        );
        let stacks = self.heads.len() as u64;
        self.stats.masks_generated += 1;
        self.stats.stacks_total += stacks;
        self.stats.max_stacks = self.stats.max_stacks.max(stacks);
        if self.terminated {
            mask.reject_all();
            return;
        }
        if self.compiled.config().mask_cache() {
            self.fill_mask_with_cache(mask);
        } else {
            self.fill_mask_naive(mask);
        }
        self.finish_mask(mask);
    }

    /// Accepts a sampled token, advancing the matcher state.
    ///
    /// # Errors
    ///
    /// Returns an [`AcceptError`] (leaving the state unchanged) when the
    /// token violates the grammar, is unknown, is a non-EOS special token, or
    /// when EOS is offered before the structure is complete.
    fn accept_token(&mut self, token: TokenId) -> Result<(), AcceptError> {
        if self.terminated {
            return Err(AcceptError::AlreadyTerminated);
        }
        let vocab = self.compiled.vocabulary();
        if token.index() >= vocab.len() {
            return Err(AcceptError::UnknownToken { token });
        }
        if vocab.is_special(token) {
            if Some(token) != vocab.eos() {
                return Err(AcceptError::SpecialTokenRejected { token });
            }
            if !self
                .pops_out()
                .map_err(|Truncated| AcceptError::TooManyStacks)?
            {
                return Err(AcceptError::CannotTerminate);
            }
            self.push_history();
            self.terminated = true;
        } else {
            let bytes = vocab.token_bytes(token);
            self.work.heads.clone_from(&self.heads);
            advance_bytes(
                self.compiled.pda(),
                &mut self.tree,
                &mut self.work.heads,
                bytes,
                &mut self.work.exec,
            )
            .map_err(|stop| match stop {
                Stop::Dead(matched_bytes) => AcceptError::TokenRejected {
                    token,
                    matched_bytes,
                },
                Stop::Truncated => AcceptError::TooManyStacks,
            })?;
            self.commit_work();
        }
        self.stats.tokens_accepted += 1;
        Ok(())
    }

    /// Accepts a raw string (used by jump-forward decoding, Appendix B, where
    /// deterministic text is appended without sampling). The string is
    /// recorded as a single rollback unit.
    ///
    /// # Errors
    ///
    /// Returns [`AcceptError::BytesRejected`] (reporting how many bytes
    /// matched before failing) if the bytes violate the grammar; the state is
    /// unchanged.
    fn accept_bytes(&mut self, bytes: &[u8]) -> Result<(), AcceptError> {
        if self.terminated {
            return Err(AcceptError::AlreadyTerminated);
        }
        self.work.heads.clone_from(&self.heads);
        advance_bytes(
            self.compiled.pda(),
            &mut self.tree,
            &mut self.work.heads,
            bytes,
            &mut self.work.exec,
        )
        .map_err(|stop| match stop {
            Stop::Dead(matched_bytes) => AcceptError::BytesRejected { matched_bytes },
            Stop::Truncated => AcceptError::TooManyStacks,
        })?;
        self.commit_work();
        Ok(())
    }

    /// Rolls back the last `num_tokens` accepted tokens (or jump-forward
    /// strings). Rollback is O(1) per token: it only restores stack handles
    /// saved in the persistent stack tree.
    ///
    /// # Errors
    ///
    /// Returns a [`RollbackError`] if more tokens are requested than the
    /// rollback window holds; the state is unchanged.
    fn rollback(&mut self, num_tokens: usize) -> Result<(), RollbackError> {
        if num_tokens == 0 {
            return Ok(());
        }
        if num_tokens > self.history_lens.len() {
            return Err(RollbackError {
                requested: num_tokens,
                available: self.history_lens.len(),
            });
        }
        // The state before the k-th most recent token is the k-th snapshot
        // from the back of the history; it and everything newer goes.
        let target = self.history_lens.len() - num_tokens;
        let dropped: usize = self.history_lens.range(target..).sum();
        let start = self.history.len() - dropped;
        self.heads.clear();
        self.heads
            .extend(self.history.range(start..start + self.history_lens[target]));
        self.history.truncate(start);
        self.history_lens.truncate(target);
        self.terminated = false;
        Ok(())
    }

    fn rollback_window(&self) -> usize {
        self.history_lens.len()
    }

    /// Finds the longest string that is *forced* by the grammar from the
    /// current position: while exactly one next byte is possible (and the
    /// grammar cannot terminate instead), that byte is appended. The matcher
    /// state is not modified.
    ///
    /// The result always ends on a complete UTF-8 character boundary: when
    /// the forced bytes stop in the middle of a multi-byte codepoint (e.g.
    /// two alternatives share a lead byte), the trailing incomplete sequence
    /// is trimmed rather than handed to the tokenizer, which could not
    /// re-tokenize a split codepoint.
    fn find_jump_forward_string(&mut self) -> Vec<u8> {
        const MAX_JUMP_FORWARD_BYTES: usize = 512;
        let mut out = Vec::new();
        if self.terminated {
            return out;
        }
        let pda = self.compiled.pda();
        self.work.heads.clone_from(&self.heads);
        while out.len() < MAX_JUMP_FORWARD_BYTES {
            // If the grammar can terminate here, the next byte is not forced;
            // nor is anything after a truncated check.
            if can_pop_out(pda, &mut self.tree, &self.work.heads, &mut self.work.exec) != Ok(false)
            {
                break;
            }
            let Some(byte) =
                Self::sole_next_byte(pda, &mut self.tree, &self.work.heads, &mut self.work.exec)
            else {
                break;
            };
            if advance_bytes(
                pda,
                &mut self.tree,
                &mut self.work.heads,
                &[byte],
                &mut self.work.exec,
            )
            .is_err()
            {
                break;
            }
            out.push(byte);
        }
        // Trim to the last complete character boundary.
        if let Err(e) = std::str::from_utf8(&out) {
            out.truncate(e.valid_up_to());
        }
        out
    }

    /// Returns `true` if the text consumed so far is a complete sentence of
    /// the grammar (end-of-sequence would be accepted now).
    fn can_terminate(&mut self) -> bool {
        !self.terminated && self.pops_out() == Ok(true)
    }

    fn is_terminated(&self) -> bool {
        self.terminated
    }

    /// Resets the matcher to the start of the grammar, clearing all history
    /// and statistics (a recycled matcher is indistinguishable from a fresh
    /// one) but keeping every buffer's capacity.
    fn reset(&mut self) {
        self.tree.clear();
        self.start_over();
        self.history.clear();
        self.history_lens.clear();
        self.stats = MatcherStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{CompilerConfig, GrammarCompiler};
    use std::sync::Arc;
    use xg_tokenizer::{test_vocabulary, Vocabulary};

    fn setup(grammar: &str) -> (Arc<Vocabulary>, GrammarMatcher) {
        let vocab = Arc::new(test_vocabulary(800));
        let compiler = GrammarCompiler::new(Arc::clone(&vocab));
        let compiled = compiler.compile_ebnf(grammar, "root").unwrap();
        (vocab, GrammarMatcher::new(compiled))
    }

    fn token_for(vocab: &Vocabulary, bytes: &[u8]) -> TokenId {
        vocab
            .iter()
            .find(|(_, t)| *t == bytes)
            .map(|(id, _)| id)
            .unwrap_or_else(|| {
                panic!(
                    "token {:?} not in vocabulary",
                    String::from_utf8_lossy(bytes)
                )
            })
    }

    /// A compile builds no mask entry, and a decode exactly the entries of
    /// the stack tops its fills read: the cold `string-length` schema's first
    /// valid answer reads 4 of its nodes' entries.
    #[test]
    fn a_decode_builds_only_the_entries_its_fills_read() {
        let vocab = Arc::new(test_vocabulary(8000));
        let case = xg_datasets::schema_corpus(12, 11)
            .into_iter()
            .find(|case| case.feature == "string-length")
            .expect("the corpus has one schema per feature");
        let compiler = GrammarCompiler::new(Arc::clone(&vocab));
        let compiled = compiler.compile_json_schema(&case.schema).unwrap();
        assert_eq!(compiled.built_entries(), 0);
        let answer = case.valid[0].as_bytes();
        let (tokens, covered) = vocab.sorted().longest_prefix_cover(&vocab, answer);
        assert_eq!(covered, answer.len());

        let mut matcher = GrammarMatcher::new(Arc::clone(&compiled));
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        let mut tops = std::collections::HashSet::new();
        for token in tokens.into_iter().map(Some).chain([None]) {
            let heads = matcher.heads.iter();
            tops.extend(heads.map(|&head| matcher.tree.top(head).unwrap()));
            matcher.fill_next_token_bitmask(&mut mask);
            match token {
                Some(token) => matcher.accept_token(token).unwrap(),
                None => assert!(matcher.can_terminate()),
            }
        }
        assert_eq!(compiled.built_entries(), tops.len());
        assert_eq!(tops.len(), 4);
        assert!(tops.len() < compiled.pda().node_count());
    }

    #[test]
    fn mask_agrees_with_naive_full_scan() {
        // The cached mask must equal the mask produced by checking every
        // token against the full stack.
        let vocab = Arc::new(test_vocabulary(800));
        let grammar = xg_grammar::builtin::json_grammar();
        let cached = GrammarCompiler::new(Arc::clone(&vocab)).compile_grammar(&grammar);
        let naive = GrammarCompiler::with_config(Arc::clone(&vocab), CompilerConfig::NodeMerging)
            .compile_grammar(&grammar);
        let mut m_cached = GrammarMatcher::new(cached);
        let mut m_naive = GrammarMatcher::new(naive);
        let mut mask_cached = TokenBitmask::new_all_rejected(vocab.len());
        let mut mask_naive = TokenBitmask::new_all_rejected(vocab.len());

        let prefix = br#"{"name": ["a", 1"#;
        for step in 0..=prefix.len() {
            m_cached.fill_next_token_bitmask(&mut mask_cached);
            m_naive.fill_next_token_bitmask(&mut mask_naive);
            assert_eq!(
                mask_cached, mask_naive,
                "masks diverge after {step} bytes of prefix"
            );
            if step < prefix.len() {
                m_cached.accept_bytes(&prefix[step..step + 1]).unwrap();
                m_naive.accept_bytes(&prefix[step..step + 1]).unwrap();
            }
        }
    }

    /// The next-token mask according to a `SimpleMatcher`: every token is
    /// fed to a copy of the oracle byte by byte, in sorted order so that the
    /// copies after each byte of a shared prefix (alive ones; a prefix that
    /// died stays dead) are made once.
    fn oracle_mask(
        oracle: &xg_automata::SimpleMatcher<'_>,
        compiled: &CompiledGrammar,
    ) -> TokenBitmask {
        let vocab = compiled.vocabulary();
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        let mut alive = vec![oracle.clone()];
        let mut dead_len = None;
        let mut prev: &[u8] = &[];
        for &id in compiled.vocabulary().sorted().ids() {
            let bytes = vocab.token_bytes(id);
            let shared = xg_tokenizer::common_prefix_len(prev, bytes);
            prev = bytes;
            if dead_len.is_some_and(|dead| shared >= dead) {
                continue;
            }
            alive.truncate(shared + 1);
            dead_len = None;
            for &byte in &bytes[shared..] {
                let mut next = alive.last().unwrap().clone();
                if !next.advance_bytes(&[byte]) {
                    dead_len = Some(alive.len());
                    break;
                }
                alive.push(next);
            }
            if dead_len.is_none() {
                mask.allow(id);
            }
        }
        if let (Some(eos), true) = (vocab.eos(), oracle.can_terminate()) {
            mask.allow(eos);
        }
        mask
    }

    /// Walks `document` token by token and checks, before every token, the
    /// cached mask against the cache-less full scan and against a per-token
    /// `SimpleMatcher` oracle (a different executor over the same automaton;
    /// the unoptimized one costs minutes in a debug build). Returns, for the
    /// steps that ran on two or more stacks, how many there were and which
    /// entry formats (accept-heavy, reject-heavy, bitset) were a top.
    fn walk_checking_every_mask(
        grammar: &xg_grammar::Grammar,
        document: &[u8],
    ) -> (usize, [bool; 3]) {
        let vocab = Arc::new(test_vocabulary(8000));
        let cached = GrammarCompiler::new(Arc::clone(&vocab)).compile_grammar(grammar);
        let naive = GrammarCompiler::with_config(Arc::clone(&vocab), CompilerConfig::NodeMerging)
            .compile_grammar(grammar);
        let mut oracle = xg_automata::SimpleMatcher::new(cached.pda());
        let (tokens, covered) = vocab.sorted().longest_prefix_cover(&vocab, document);
        assert_eq!(covered, document.len());

        let mut m_cached = GrammarMatcher::new(Arc::clone(&cached));
        let mut m_naive = GrammarMatcher::new(naive);
        let mut mask_cached = TokenBitmask::new_all_rejected(vocab.len());
        let mut mask_naive = TokenBitmask::new_all_rejected(vocab.len());
        let (mut multi_stack_steps, mut formats) = (0, [false; 3]);
        let (mut stacks_total, mut max_stacks) = (0, 0);
        for (step, &token) in tokens.iter().enumerate() {
            stacks_total += m_cached.stack_count() as u64;
            max_stacks = max_stacks.max(m_cached.stack_count() as u64);
            if m_cached.stack_count() >= 2 {
                multi_stack_steps += 1;
                for &head in &m_cached.heads {
                    let top = m_cached.tree.top(head).unwrap();
                    match cached.entry(top) {
                        NodeMaskEntry::AcceptHeavy { .. } => formats[0] = true,
                        NodeMaskEntry::RejectHeavy { .. } => formats[1] = true,
                        NodeMaskEntry::Bitset { .. } => formats[2] = true,
                    }
                }
            }
            m_cached.fill_next_token_bitmask(&mut mask_cached);
            m_naive.fill_next_token_bitmask(&mut mask_naive);
            assert_eq!(mask_cached, mask_naive, "cache vs full scan at step {step}");
            let expected = oracle_mask(&oracle, &cached);
            if let Some((id, bytes)) = vocab
                .iter()
                .find(|(id, _)| mask_cached.is_allowed(*id) != expected.is_allowed(*id))
            {
                panic!(
                    "step {step} ({} stacks): the oracle {} token {:?}",
                    m_cached.stack_count(),
                    if expected.is_allowed(id) {
                        "allows"
                    } else {
                        "rejects"
                    },
                    String::from_utf8_lossy(bytes)
                );
            }
            m_cached.accept_token(token).unwrap();
            m_naive.accept_token(token).unwrap();
            assert!(oracle.advance_bytes(vocab.token_bytes(token)));
        }
        assert!(m_cached.can_terminate());
        let stats = m_cached.stats();
        assert_eq!(stats.masks_generated, tokens.len() as u64);
        assert_eq!(
            (stats.stacks_total, stats.max_stacks),
            (stacks_total, max_stacks)
        );
        (multi_stack_steps, formats)
    }

    #[test]
    fn multi_stack_masks_agree_with_full_scan_and_oracle() {
        // The merge of parallel stacks is the path `cfg_heavy` spends its
        // time in: `element ::= open_tag content close_tag | self_tag` keeps
        // two stacks alive for a whole tag. A statement opening `x[` is an
        // assignment's target or an expression until its `=`, so the
        // subscript's string body, accept-heavy, is the top of two stacks.
        let xml = br#"<a id="x1"><b/>t<!-- c --></a>"#;
        let python = b"x['some key'] = 1 ; return x";
        let (xml_steps, xml_formats) =
            walk_checking_every_mask(&xg_grammar::builtin::xml_grammar(), xml);
        let (py_steps, py_formats) =
            walk_checking_every_mask(&xg_grammar::builtin::python_dsl_grammar(), python);
        assert!(
            xml_steps > 0 && py_steps > 0,
            "{xml_steps} / {py_steps} multi-stack steps"
        );
        let seen: Vec<bool> = (0..3).map(|i| xml_formats[i] || py_formats[i]).collect();
        assert_eq!(
            seen, [true; 3],
            "(accept-heavy, reject-heavy, bitset) tops under two or more stacks"
        );
    }

    #[test]
    fn accept_token_rejects_invalid_tokens() {
        let (vocab, mut matcher) = setup(r#"root ::= "[" [0-9]+ "]""#);
        let open = token_for(&vocab, b"[");
        let digit = token_for(&vocab, b"7");
        let alpha = token_for(&vocab, b"x");
        matcher.accept_token(open).unwrap();
        assert!(matches!(
            matcher.accept_token(alpha),
            Err(AcceptError::TokenRejected { .. })
        ));
        matcher.accept_token(digit).unwrap();
        assert_eq!(matcher.stats().tokens_accepted, 2);
    }

    #[test]
    fn eos_only_allowed_when_complete() {
        let (vocab, mut matcher) = setup(r#"root ::= "[" [0-9]+ "]""#);
        let eos = vocab.eos().unwrap();
        assert!(matches!(
            matcher.accept_token(eos),
            Err(AcceptError::CannotTerminate)
        ));
        for tok in [&b"["[..], b"4", b"2", b"]"] {
            matcher.accept_token(token_for(&vocab, tok)).unwrap();
        }
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        matcher.fill_next_token_bitmask(&mut mask);
        assert!(mask.is_allowed(eos));
        matcher.accept_token(eos).unwrap();
        assert!(matcher.is_terminated());
        assert!(matches!(
            matcher.accept_token(token_for(&vocab, b"1")),
            Err(AcceptError::AlreadyTerminated)
        ));
    }

    #[test]
    fn mask_only_allows_grammatical_tokens() {
        let (vocab, mut matcher) = setup(r#"root ::= "[" [0-9]+ "]""#);
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        matcher.fill_next_token_bitmask(&mut mask);
        // Every allowed token must start with '['.
        for t in mask.allowed_tokens() {
            let bytes = vocab.token_bytes(t);
            assert_eq!(bytes[0], b'[', "unexpected allowed token {:?}", bytes);
        }
        assert!(mask.count_allowed() > 0);
        // BOS is never allowed.
        assert!(!mask.is_allowed(TokenId(0)));
    }

    #[test]
    fn rollback_restores_previous_state() {
        let (vocab, mut matcher) = setup(r#"root ::= "[" [0-9]+ "]""#);
        let open = token_for(&vocab, b"[");
        let digit = token_for(&vocab, b"3");
        let close = token_for(&vocab, b"]");
        matcher.accept_token(open).unwrap();
        matcher.accept_token(digit).unwrap();
        matcher.accept_token(close).unwrap();
        assert!(matcher.can_terminate());
        // Roll back the `]` and one digit, then take a different path.
        matcher.rollback(2).unwrap();
        assert!(!matcher.can_terminate());
        matcher.accept_token(token_for(&vocab, b"9")).unwrap();
        matcher.accept_token(close).unwrap();
        assert!(matcher.can_terminate());
        // Rolling back more than the window is an error.
        assert!(matcher.rollback(100).is_err());
    }

    #[test]
    fn rollback_after_eos_reopens_the_matcher() {
        let (vocab, mut matcher) = setup(r#"root ::= "ok""#);
        matcher.accept_bytes(b"ok").unwrap();
        matcher.accept_token(vocab.eos().unwrap()).unwrap();
        assert!(matcher.is_terminated());
        matcher.rollback(1).unwrap();
        assert!(!matcher.is_terminated());
        assert!(matcher.can_terminate());
    }

    #[test]
    fn jump_forward_finds_forced_strings() {
        // After `{`, the schema-like grammar forces the literal key.
        let (_vocab, mut matcher) = setup(r#"root ::= "{\"name\": \"" [a-z]+ "\"}""#);
        let jump = matcher.find_jump_forward_string();
        assert_eq!(jump, b"{\"name\": \"".to_vec());
        // The state is unchanged by the search.
        assert_eq!(matcher.stats().tokens_accepted, 0);
        matcher.accept_bytes(&jump).unwrap();
        // Inside [a-z]+ nothing is forced.
        assert!(matcher.find_jump_forward_string().is_empty());
    }

    #[test]
    fn accept_bytes_reports_rejection_with_matched_prefix() {
        let (_vocab, mut matcher) = setup(r#"root ::= "[" [0-9]+ "]""#);
        let err = matcher.accept_bytes(b"[12x").unwrap_err();
        assert_eq!(err, AcceptError::BytesRejected { matched_bytes: 3 });
        // The failed call left the state unchanged: the valid prefix still
        // matches from the start.
        matcher.accept_bytes(b"[12]").unwrap();
        assert!(matcher.can_terminate());
    }

    #[test]
    fn rollback_window_trims_oldest_snapshots() {
        let vocab = Arc::new(test_vocabulary(800));
        let compiler = GrammarCompiler::new(Arc::clone(&vocab));
        let compiled = compiler.compile_ebnf(r#"root ::= [0-9]+"#, "root").unwrap();
        let mut matcher = GrammarMatcher::with_max_rollback(compiled, 3);
        for _ in 0..10 {
            matcher.accept_token(token_for(&vocab, b"5")).unwrap();
        }
        assert_eq!(matcher.rollback_window(), 3);
        assert!(matcher.rollback(4).is_err());
        matcher.rollback(3).unwrap();
        assert_eq!(matcher.rollback_window(), 0);
        // 7 tokens remain accepted; the matcher still continues correctly.
        matcher.accept_token(token_for(&vocab, b"9")).unwrap();
        assert!(matcher.can_terminate());
    }

    #[test]
    fn rollback_across_jump_forward_units() {
        // Tokens and jump-forward strings are interleaved rollback units.
        let (vocab, mut matcher) = setup(r#"root ::= "{\"id\": " [0-9]+ "}""#);
        let jump = matcher.find_jump_forward_string();
        assert_eq!(jump, b"{\"id\": ".to_vec());
        matcher.accept_bytes(&jump).unwrap(); // unit 1 (jump-forward)
        matcher.accept_token(token_for(&vocab, b"4")).unwrap(); // unit 2
        matcher.accept_token(token_for(&vocab, b"2")).unwrap(); // unit 3
        assert_eq!(matcher.rollback_window(), 3);
        // Roll back across the jump-forward unit to the very start.
        matcher.rollback(3).unwrap();
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        matcher.fill_next_token_bitmask(&mut mask);
        for t in mask.allowed_tokens() {
            assert_eq!(vocab.token_bytes(t)[0], b'{');
        }
        // The same jump is forced again and the run completes.
        assert_eq!(matcher.find_jump_forward_string(), jump);
        matcher.accept_bytes(&jump).unwrap();
        matcher.accept_token(token_for(&vocab, b"7")).unwrap();
        matcher.accept_token(token_for(&vocab, b"}")).unwrap();
        assert!(matcher.can_terminate());
    }

    #[test]
    fn jump_forward_never_splits_utf8_codepoints() {
        // α (0xCE 0xB1) and β (0xCE 0xB2) share the lead byte 0xCE: the raw
        // forced bytes end mid-codepoint and must be trimmed to nothing.
        let (_vocab, mut matcher) = setup(r#"root ::= "α" | "β""#);
        assert!(matcher.find_jump_forward_string().is_empty());
        // A fully forced multi-byte string is returned whole.
        let (_vocab, mut matcher) = setup(r#"root ::= "héllo" [0-9]"#);
        let forced = String::from_utf8(matcher.find_jump_forward_string());
        assert_eq!(forced.as_deref(), Ok("héllo"));
        // A forced literal whose *continuation* diverges mid-codepoint keeps
        // the complete-character prefix only.
        let (_vocab, mut matcher) = setup(r#"root ::= "x" ("α" | "β")"#);
        let forced = String::from_utf8(matcher.find_jump_forward_string());
        assert_eq!(forced.as_deref(), Ok("x"));
    }

    #[test]
    fn reset_returns_to_initial_state() {
        let (vocab, mut matcher) = setup(r#"root ::= "[" [0-9]+ "]""#);
        matcher.accept_token(token_for(&vocab, b"[")).unwrap();
        matcher.reset();
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        matcher.fill_next_token_bitmask(&mut mask);
        for t in mask.allowed_tokens() {
            assert_eq!(vocab.token_bytes(t)[0], b'[');
        }
    }

    #[test]
    fn each_accepted_draft_token_is_one_rollback_unit() {
        let (vocab, mut lane) = setup(r#"root ::= "[" [0-9]+ "]""#);
        let (_vocab2, mut shorter) = setup(r#"root ::= "[" [0-9]+ "]""#);
        let draft: Vec<TokenId> = [&b"["[..], b"1", b"2", b"3", b"4", b"]", b"x", b"5"]
            .iter()
            .map(|b| token_for(&vocab, b))
            .collect();
        let accepted = draft
            .iter()
            .take_while(|&&t| lane.accept_token(t).is_ok())
            .count();
        assert_eq!(accepted, 6); // "[1234]" then "x" is rejected
        assert_eq!(lane.rollback_window(), 6);
        // Rolling back two tokens lands where accepting four would have.
        for &t in &draft[..4] {
            shorter.accept_token(t).unwrap();
        }
        lane.rollback(2).unwrap();
        let mut m_lane = TokenBitmask::new_all_rejected(vocab.len());
        let mut m_shorter = TokenBitmask::new_all_rejected(vocab.len());
        lane.fill_next_token_bitmask(&mut m_lane);
        shorter.fill_next_token_bitmask(&mut m_shorter);
        assert_eq!(m_lane, m_shorter);
        assert_eq!(lane.rollback_window(), shorter.rollback_window());
    }

    #[test]
    fn terminated_matcher_allows_nothing() {
        let (vocab, mut matcher) = setup(r#"root ::= "ok""#);
        matcher.accept_bytes(b"ok").unwrap();
        matcher.accept_token(vocab.eos().unwrap()).unwrap();
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        matcher.fill_next_token_bitmask(&mut mask);
        assert_eq!(mask.count_allowed(), 0);
    }
}
