//! The tag-dispatch runtime: [`StructuralTagMatcher`], the incremental
//! matcher of a [`CompiledTagDispatch`].
//!
//! Free text passes through *unconstrained* — the token mask is all-allowed
//! and costs no automaton work — while the emitted bytes are scanned for
//! trigger strings with the dispatch's precompiled Aho–Corasick automaton
//! (amortized O(1) per byte, whatever the size of the tool catalog). When a
//! trigger completes, the matcher dispatches into that trigger's segment
//! grammar and constrains decoding token by token until the segment closes,
//! then returns to free text.
//!
//! There is one segment-exit rule: a segment closes at the *first* point its
//! grammar can end. Every segment grammar carries the free-text continuation
//! tail ([`xg_grammar::append_free_text_tail`]), so the in-segment mask is
//! the union of "continue the segment" and "close it and resume prose" — a
//! single token spanning the end tag and following prose is admitted — and
//! that mask is exactly the set of tokens [`accept_token`] takes
//! (`tests/structural_tag.rs::tag_masks_are_exactly_the_accept_set`).
//!
//! Each trigger has one inner [`GrammarMatcher`] for the lane's life, and a
//! segment opens by starting that matcher's grammar over as one more
//! rollback unit. A rollback snapshot is therefore the mode plus, inside a
//! segment, a position in its trigger's matcher history (the persistent
//! stack of §3.3 keeps the handles). Rollback works across mode boundaries:
//! rolling back into a closed segment re-opens it, and rolling back across a
//! segment's opening returns to free-text scanning with the trigger state
//! restored. The operations live in the [`ConstraintMatcher`] impl and
//! nowhere else. The unit tests that drive a matcher sit here, the compile
//! and cache-path ones in `tag_dispatch.rs`.
//!
//! [`accept_token`]: ConstraintMatcher::accept_token

use std::collections::VecDeque;
use std::sync::Arc;

use xg_automata::AcState;
use xg_tokenizer::{TokenId, Vocabulary};

use crate::constraint::ConstraintMatcher;
use crate::error::{AcceptError, RollbackError};
use crate::mask::TokenBitmask;
use crate::matcher::{GrammarMatcher, DEFAULT_MAX_ROLLBACK_TOKENS};
use crate::tag_dispatch::CompiledTagDispatch;

/// Runtime statistics of a [`StructuralTagMatcher`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TagDispatchStats {
    /// Masks generated while in free-text mode (all-allowed, no mask work).
    pub free_masks: u64,
    /// Masks generated while inside a tagged segment (constrained).
    pub tag_masks: u64,
    /// Tagged segments opened.
    pub tags_opened: u64,
    /// Tagged segments closed.
    pub tags_closed: u64,
    /// Inner segment matchers built: one on a trigger's first open, reused
    /// by every later segment of that trigger.
    pub inner_matchers_built: u64,
}

/// The matcher's current high-level mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchMode {
    /// Emitting unconstrained free text (scanning for triggers).
    FreeText,
    /// Inside the tagged segment of the given trigger index.
    Tagged {
        /// Index into [`CompiledTagDispatch::triggers`].
        trigger: usize,
    },
}

/// Internal mode state; [`ModeState::Free`] carries the trigger-scan
/// automaton state.
#[derive(Debug, Clone, Copy)]
enum ModeState {
    Free { scan: AcState },
    Tagged { trigger: usize },
}

/// A trigger's inner matcher, which runs each of its segments in turn.
#[derive(Debug)]
struct Inner {
    matcher: GrammarMatcher,
    /// Rollback units since the matcher's last reset: one per byte fed and
    /// one per restart (a segment's opening).
    units: usize,
}

/// State of the matcher *before* an accepted token, for rollback.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    mode: ModeState,
    /// Inner units of the then-current trigger (0 when `mode` is free).
    units: usize,
}

/// The incremental matcher for a compiled structural tag: unconstrained free
/// text, trigger dispatch, constrained tagged segments, and rollback across
/// all of it. Driven through [`ConstraintMatcher`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use xg_core::{ConstraintMatcher, GrammarCompiler, StructuralTagMatcher, TokenBitmask};
/// use xg_grammar::{StructuralTag, TagContent, TagSpec};
/// use xg_tokenizer::test_vocabulary;
///
/// let vocab = Arc::new(test_vocabulary(600));
/// let compiler = GrammarCompiler::new(Arc::clone(&vocab));
/// let tag = StructuralTag::new(vec![TagSpec {
///     begin: "<n>".into(),
///     content: TagContent::Ebnf { text: "root ::= [0-9]+".into(), root: "root".into() },
///     end: "</n>".into(),
/// }]);
/// let compiled = compiler.compile_tag_dispatch(&tag)?;
/// let mut matcher = StructuralTagMatcher::new(compiled);
///
/// // Free text: the mask is all-allowed.
/// let mut mask = TokenBitmask::new_all_rejected(vocab.len());
/// matcher.fill_next_token_bitmask(&mut mask);
/// assert!(mask.count_allowed() > vocab.len() - 8);
/// # Ok::<(), xg_grammar::GrammarError>(())
/// ```
#[derive(Debug)]
pub struct StructuralTagMatcher {
    compiled: Arc<CompiledTagDispatch>,
    mode: ModeState,
    /// Inner matchers by trigger index. The vector grows on a trigger's
    /// first open, so a lane costs nothing per trigger it never opens.
    inner: Vec<Option<Inner>>,
    history: VecDeque<Snapshot>,
    max_rollback: usize,
    terminated: bool,
    stats: TagDispatchStats,
}

impl StructuralTagMatcher {
    /// Creates a matcher with the default rollback window.
    pub fn new(compiled: Arc<CompiledTagDispatch>) -> Self {
        Self::with_max_rollback(compiled, DEFAULT_MAX_ROLLBACK_TOKENS)
    }

    /// Creates a matcher that can roll back up to `max_rollback` recently
    /// accepted tokens, including across tag boundaries.
    fn with_max_rollback(compiled: Arc<CompiledTagDispatch>, max_rollback: usize) -> Self {
        let scan = compiled.scanner().start();
        StructuralTagMatcher {
            compiled,
            mode: ModeState::Free { scan },
            inner: Vec::new(),
            history: VecDeque::new(),
            max_rollback,
            terminated: false,
            stats: TagDispatchStats::default(),
        }
    }

    /// The compiled structural tag this matcher runs.
    pub fn compiled(&self) -> &Arc<CompiledTagDispatch> {
        &self.compiled
    }

    /// Runtime statistics.
    pub fn stats(&self) -> TagDispatchStats {
        self.stats
    }

    /// The matcher's current mode.
    pub fn mode(&self) -> DispatchMode {
        match self.mode {
            ModeState::Free { .. } => DispatchMode::FreeText,
            ModeState::Tagged { trigger } => DispatchMode::Tagged { trigger },
        }
    }

    /// The inner matcher of `trigger`, which has opened a segment before.
    fn inner(&mut self, trigger: usize) -> &mut Inner {
        self.inner[trigger]
            .as_mut()
            .expect("an opened trigger keeps its inner matcher")
    }

    fn snapshot(&self) -> Snapshot {
        let units = match self.mode {
            ModeState::Free { .. } => 0,
            ModeState::Tagged { trigger } => self.inner[trigger].as_ref().map_or(0, |i| i.units),
        };
        Snapshot {
            mode: self.mode,
            units,
        }
    }

    /// Puts the mode back and, inside a segment, rolls its trigger's matcher
    /// back to the snapshot's position. A free-text snapshot touches no
    /// inner matcher: a segment opened since then starts over when its
    /// trigger next opens, and the units it left sit after every retained
    /// snapshot's position.
    fn restore(&mut self, snapshot: &Snapshot) {
        if let ModeState::Tagged { trigger } = snapshot.mode {
            let inner = self.inner(trigger);
            inner
                .matcher
                .rollback(inner.units - snapshot.units)
                .expect("an inner matcher keeps every unit a snapshot reaches");
            inner.units = snapshot.units;
        }
        self.mode = snapshot.mode;
    }

    /// One rollback unit: advances over `bytes` and records `base` (the state
    /// at call entry) in the history, or restores it and reports how many
    /// bytes matched.
    fn advance_unit(&mut self, bytes: &[u8]) -> Result<(), usize> {
        let base = self.snapshot();
        let stats = self.stats;
        match self.advance_bytes_across_modes(bytes, &base) {
            Ok(()) => {
                self.push_history_snapshot(base);
                Ok(())
            }
            Err(matched_bytes) => {
                self.restore(&base);
                self.restore_stats(stats);
                Err(matched_bytes)
            }
        }
    }

    /// Advances over `bytes`, switching modes as triggers fire and segments
    /// close. On failure returns the number of bytes matched; the caller
    /// restores the pre-call snapshot (`base`, the state at call entry).
    ///
    /// The free-text mask promises that *any* token is acceptable, so a
    /// dispatch that both opens **within this call** and immediately
    /// contradicts the tag grammar in the same call must not reject the
    /// token: the completed trigger is treated as plain prose instead
    /// (the byte position is recorded in `suppressed` and the call replays
    /// from `base` without dispatching there — the scan then continues from
    /// the automaton's match state, which tracks exactly the trigger-suffix
    /// overlaps). Only bytes violating a segment that was already open when
    /// the call started are a real rejection — that segment's constraint was
    /// visible in the mask.
    fn advance_bytes_across_modes(&mut self, bytes: &[u8], base: &Snapshot) -> Result<(), usize> {
        let compiled = Arc::clone(&self.compiled);
        let scanner = compiled.scanner();
        let base_stats = self.stats;
        let mut suppressed: Vec<usize> = Vec::new();
        'attempt: loop {
            // Position of the trigger completion that opened the currently
            // innermost segment, when that happened during this call.
            let mut opened_at: Option<usize> = None;
            for (i, &b) in bytes.iter().enumerate() {
                match self.mode {
                    ModeState::Free { scan } => {
                        let scan = scanner.step(scan, b);
                        self.mode = ModeState::Free { scan };
                        if let Some(trigger) = scanner.matched(scan) {
                            if !suppressed.contains(&i) {
                                self.open_segment(trigger);
                                opened_at = Some(i);
                            }
                        }
                    }
                    ModeState::Tagged { trigger } => {
                        let inner = self.inner(trigger);
                        if inner.matcher.accept_bytes(&[b]).is_err() {
                            let Some(pos) = opened_at else {
                                return Err(i);
                            };
                            suppressed.push(pos);
                            self.restore(base);
                            self.restore_stats(base_stats);
                            continue 'attempt;
                        }
                        inner.units += 1;
                        if inner.matcher.can_terminate() {
                            self.close_segment();
                        }
                    }
                }
            }
            return Ok(());
        }
    }

    /// Puts back the statistics saved before a failed unit, all but the
    /// count of inner matchers built: those stay built for their triggers.
    fn restore_stats(&mut self, saved: TagDispatchStats) {
        self.stats = TagDispatchStats {
            inner_matchers_built: self.stats.inner_matchers_built,
            ..saved
        };
    }

    /// Opens a tagged segment for `trigger` by starting the trigger's inner
    /// matcher over, built on the trigger's first open. A segment whose
    /// combined grammar is already complete (pathological nullable tags)
    /// closes immediately.
    fn open_segment(&mut self, trigger: usize) {
        if self.inner.len() <= trigger {
            self.inner.resize_with(trigger + 1, || None);
        }
        let (compiled, built) = (&self.compiled, &mut self.stats.inner_matchers_built);
        let inner = self.inner[trigger].get_or_insert_with(|| {
            *built += 1;
            let grammar = Arc::clone(compiled.triggers()[trigger].grammar());
            // The window is unbounded so the matcher never trims itself;
            // `prune_inner_histories` trims it to the units a snapshot of the
            // lane can still reach.
            Inner {
                matcher: GrammarMatcher::with_max_rollback(grammar, usize::MAX),
                units: 0,
            }
        });
        inner.matcher.restart();
        inner.units += 1;
        let complete = inner.matcher.can_terminate();
        self.stats.tags_opened += 1;
        if complete {
            self.close_segment();
        } else {
            self.mode = ModeState::Tagged { trigger };
        }
    }

    fn close_segment(&mut self) {
        self.stats.tags_closed += 1;
        self.mode = ModeState::Free {
            scan: self.compiled.scanner().start(),
        };
    }

    fn push_history_snapshot(&mut self, snapshot: Snapshot) {
        if self.max_rollback > 0 {
            self.history.push_back(snapshot);
            if self.history.len() > self.max_rollback {
                self.history.pop_front();
            }
        }
        // Prune even with rollback disabled: with no snapshots retained,
        // every matcher but the open segment's is unreachable at once.
        self.prune_inner_histories();
    }

    /// Trims each inner matcher's history to the oldest unit a retained
    /// snapshot (or the current mode) can restore it to, and resets a
    /// matcher that none reaches, so neither its history nor its stack tree
    /// outlives its segments. A matcher at unit 0 is skipped unscanned: a
    /// tagged snapshot counts its segment's opening, so none reaches it.
    fn prune_inner_histories(&mut self) {
        let now = self.snapshot();
        for (trigger, inner) in self.inner.iter_mut().enumerate() {
            let Some(inner) = inner.as_mut().filter(|i| i.units > 0) else {
                continue;
            };
            let oldest = self
                .history
                .iter()
                .chain([&now])
                .filter(|s| matches!(s.mode, ModeState::Tagged { trigger: t } if t == trigger))
                .map(|s| s.units)
                .min();
            match oldest {
                Some(units) => inner.matcher.trim_history(inner.units - units),
                None => {
                    inner.matcher.reset();
                    inner.units = 0;
                }
            }
        }
    }
}

impl ConstraintMatcher for StructuralTagMatcher {
    fn vocabulary(&self) -> &Arc<Vocabulary> {
        self.compiled.vocabulary()
    }

    /// Fills `mask` with the allowed next tokens: all-allowed in free text
    /// (special tokens except EOS stay rejected), the segment grammar's mask
    /// inside a tagged segment. The segment grammar carries the free-text
    /// continuation tail, so near the end of a segment the mask also admits
    /// tokens that finish the end tag and continue with prose.
    ///
    /// # Panics
    ///
    /// Panics if the mask's vocabulary size differs from the compiled
    /// vocabulary.
    fn fill_next_token_bitmask(&mut self, mask: &mut TokenBitmask) {
        assert_eq!(
            mask.vocab_size(),
            self.compiled.vocabulary().len(),
            "mask size must match the vocabulary"
        );
        if self.terminated {
            mask.reject_all();
            return;
        }
        match self.mode {
            ModeState::Free { .. } => {
                // Free text passes through unconstrained: no automaton work,
                // no vocabulary scan. EOS is allowed (free text may end).
                let vocab = self.compiled.vocabulary();
                mask.allow_all();
                for special in vocab.special_tokens() {
                    if Some(special) != vocab.eos() {
                        mask.reject(special);
                    }
                }
                self.stats.free_masks += 1;
            }
            ModeState::Tagged { trigger } => {
                self.inner(trigger).matcher.fill_next_token_bitmask(mask);
                self.stats.tag_masks += 1;
            }
        }
    }

    /// Accepts a sampled token, advancing free-text scanning and/or the
    /// current segment's grammar. A single token may cross mode boundaries
    /// (close a tag and resume prose, or complete a trigger and start the
    /// constrained segment in the same token). A token that completes a
    /// trigger and then immediately contradicts the tag's grammar is kept as
    /// plain free text (the dispatch is cancelled) — the all-allowed
    /// free-text mask promised the token was acceptable.
    ///
    /// # Errors
    ///
    /// Returns an [`AcceptError`] (leaving the state unchanged) when a byte
    /// violates the grammar of a segment that was already open when the call
    /// started, the token is unknown or a non-EOS special token, or EOS is
    /// offered inside an unclosed tag.
    fn accept_token(&mut self, token: TokenId) -> Result<(), AcceptError> {
        if self.terminated {
            return Err(AcceptError::AlreadyTerminated);
        }
        let vocab = Arc::clone(self.compiled.vocabulary());
        if token.index() >= vocab.len() {
            return Err(AcceptError::UnknownToken { token });
        }
        if vocab.is_special(token) {
            if Some(token) != vocab.eos() {
                return Err(AcceptError::SpecialTokenRejected { token });
            }
            if !self.can_terminate() {
                return Err(AcceptError::CannotTerminate);
            }
            self.push_history_snapshot(self.snapshot());
            self.terminated = true;
            return Ok(());
        }
        self.advance_unit(vocab.token_bytes(token))
            .map_err(|matched_bytes| AcceptError::TokenRejected {
                token,
                matched_bytes,
            })
    }

    /// Accepts raw bytes as one rollback unit (jump-forward-style forced
    /// text), crossing mode boundaries like
    /// [`accept_token`](Self::accept_token).
    ///
    /// # Errors
    ///
    /// Returns [`AcceptError::BytesRejected`] (leaving the state unchanged)
    /// when a byte violates the grammar of a segment that was already open
    /// when the call started (like [`accept_token`](Self::accept_token), a
    /// dispatch opened *and* contradicted within this call is cancelled and
    /// kept as free text instead).
    fn accept_bytes(&mut self, bytes: &[u8]) -> Result<(), AcceptError> {
        if self.terminated {
            return Err(AcceptError::AlreadyTerminated);
        }
        self.advance_unit(bytes)
            .map_err(|matched_bytes| AcceptError::BytesRejected { matched_bytes })
    }

    /// Rolls back the last `num_tokens` accepted tokens, restoring segment
    /// state across tag boundaries (a rollback into a closed segment re-opens
    /// it; a rollback across a segment's opening discards the segment and
    /// restores the free-text scan).
    ///
    /// # Errors
    ///
    /// Returns a [`RollbackError`] if more tokens are requested than the
    /// rollback window holds; the state is unchanged.
    fn rollback(&mut self, num_tokens: usize) -> Result<(), RollbackError> {
        if num_tokens == 0 {
            return Ok(());
        }
        if num_tokens > self.history.len() {
            return Err(RollbackError {
                requested: num_tokens,
                available: self.history.len(),
            });
        }
        let target = self.history.len() - num_tokens;
        let snapshot = self.history[target];
        self.restore(&snapshot);
        self.history.truncate(target);
        self.terminated = false;
        Ok(())
    }

    fn rollback_window(&self) -> usize {
        self.history.len()
    }

    /// Free text forces nothing (any byte is acceptable). Inside a tagged
    /// segment the forced bytes come from the segment grammar: the unmatched
    /// remainder of the begin tag, forced schema punctuation and keys, and —
    /// once the content is complete — the end tag itself. The search stops
    /// where the segment can close (the continuation is unconstrained prose,
    /// so nothing beyond the close is forced).
    fn find_jump_forward_string(&mut self) -> Vec<u8> {
        match self.mode {
            ModeState::Free { .. } => Vec::new(),
            ModeState::Tagged { trigger } => self.inner(trigger).matcher.find_jump_forward_string(),
        }
    }

    /// Free text can always end; a tagged segment must be closed first.
    fn can_terminate(&mut self) -> bool {
        !self.terminated && matches!(self.mode, ModeState::Free { .. })
    }

    fn is_terminated(&self) -> bool {
        self.terminated
    }

    /// Resets the matcher to free text at the start of the stream, keeping
    /// each trigger's inner matcher, reset, for the next pass.
    fn reset(&mut self) {
        for inner in self.inner.iter_mut().flatten() {
            inner.matcher.reset();
            inner.units = 0;
        }
        self.mode = ModeState::Free {
            scan: self.compiled.scanner().start(),
        };
        self.history.clear();
        self.terminated = false;
        self.stats = TagDispatchStats::default();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{DispatchMode, GrammarCompiler, TagDispatchStats};
    use xg_grammar::{StructuralTag, TagContent, TagSpec};
    use xg_tokenizer::test_vocabulary;

    pub(crate) fn number_tag() -> StructuralTag {
        StructuralTag::new(vec![TagSpec {
            begin: "<n>".into(),
            content: TagContent::Ebnf {
                text: "root ::= [0-9]+".into(),
                root: "root".into(),
            },
            end: "</n>".into(),
        }])
    }

    fn setup(tag: &StructuralTag) -> (Arc<Vocabulary>, StructuralTagMatcher) {
        let vocab = Arc::new(test_vocabulary(800));
        let compiler = GrammarCompiler::new(Arc::clone(&vocab));
        let compiled = compiler.compile_tag_dispatch(tag).unwrap();
        (vocab, StructuralTagMatcher::new(compiled))
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

    fn drive_bytes(vocab: &Vocabulary, matcher: &mut StructuralTagMatcher, text: &[u8]) {
        for &b in text {
            matcher.accept_token(token_for(vocab, &[b])).unwrap();
        }
    }

    #[test]
    fn free_text_is_unconstrained_and_tags_constrain() {
        let tag = number_tag();
        let (vocab, mut matcher) = setup(&tag);
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());

        // Free text: everything non-special is allowed, EOS included.
        matcher.fill_next_token_bitmask(&mut mask);
        assert!(mask.is_allowed(token_for(&vocab, b"z")));
        assert!(mask.is_allowed(vocab.eos().unwrap()));
        assert_eq!(matcher.mode(), DispatchMode::FreeText);

        drive_bytes(&vocab, &mut matcher, b"some prose <n>");
        assert_eq!(matcher.mode(), DispatchMode::Tagged { trigger: 0 });

        // Inside the tag only digits are allowed (the segment cannot close
        // before at least one digit, so the free-tail union adds nothing).
        matcher.fill_next_token_bitmask(&mut mask);
        assert!(mask.is_allowed(token_for(&vocab, b"7")));
        assert!(!mask.is_allowed(token_for(&vocab, b"z")));
        assert!(!mask.is_allowed(vocab.eos().unwrap()));
        assert!(!matcher.can_terminate());

        drive_bytes(&vocab, &mut matcher, b"42</n>");
        assert_eq!(matcher.mode(), DispatchMode::FreeText);
        assert!(matcher.can_terminate());

        drive_bytes(&vocab, &mut matcher, b" done");
        matcher.accept_token(vocab.eos().unwrap()).unwrap();
        assert!(matcher.is_terminated());
        let stats = matcher.stats();
        assert_eq!(stats.tags_opened, 1);
        assert_eq!(stats.tags_closed, 1);
    }

    #[test]
    fn boundary_masks_admit_end_tag_plus_prose_tokens() {
        // At a point where the segment can close, the mask must admit a
        // token that finishes the end tag AND continues with prose — the
        // boundary-spanning case the free-text tail exists for.
        let tag = number_tag();
        let (vocab, mut matcher) = setup(&tag);
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        drive_bytes(&vocab, &mut matcher, b"<n>42</n");
        assert_eq!(matcher.mode(), DispatchMode::Tagged { trigger: 0 });
        matcher.fill_next_token_bitmask(&mut mask);
        // "><" closes the tag ('>') and continues with prose ('<').
        let crossing = token_for(&vocab, b"><");
        assert!(
            mask.is_allowed(crossing),
            "end-tag+prose token must be admitted at the boundary"
        );
        matcher.accept_token(crossing).unwrap();
        assert_eq!(matcher.mode(), DispatchMode::FreeText);
        assert_eq!(matcher.stats().tags_closed, 1);
        // Mid-content, a digit+prose token is still rejected (the segment
        // cannot close before the end tag).
        let mut matcher2 = StructuralTagMatcher::new(Arc::clone(matcher.compiled()));
        matcher2.accept_bytes(b"<n>4").unwrap();
        matcher2.fill_next_token_bitmask(&mut mask);
        assert!(!mask.is_allowed(token_for(&vocab, b"z")));
    }

    #[test]
    fn invalid_bytes_inside_a_tag_are_rejected_atomically() {
        let tag = number_tag();
        let (vocab, mut matcher) = setup(&tag);
        drive_bytes(&vocab, &mut matcher, b"<n>1");
        let bad = token_for(&vocab, b"x");
        assert!(matches!(
            matcher.accept_token(bad),
            Err(AcceptError::TokenRejected { .. })
        ));
        // State unchanged: the segment continues normally.
        assert_eq!(matcher.mode(), DispatchMode::Tagged { trigger: 0 });
        drive_bytes(&vocab, &mut matcher, b"2</n>");
        assert!(matcher.can_terminate());
    }

    #[test]
    fn multi_byte_tokens_cross_mode_boundaries() {
        let tag = number_tag();
        let (_vocab, mut matcher) = setup(&tag);
        // One accept_bytes call spans prose, the whole tag, and more prose.
        matcher.accept_bytes(b"hi <n>123</n> bye").unwrap();
        assert_eq!(matcher.mode(), DispatchMode::FreeText);
        assert_eq!(matcher.stats().tags_opened, 1);
        assert_eq!(matcher.stats().tags_closed, 1);
        // A unit whose bytes complete the trigger but then contradict the tag
        // grammar stays free text (the all-allowed mask promised it was
        // acceptable): the dispatch is cancelled, not rejected.
        matcher.accept_bytes(b"x <n>9q").unwrap();
        assert_eq!(matcher.mode(), DispatchMode::FreeText);
        assert_eq!(
            matcher.stats().tags_opened,
            1,
            "cancelled dispatch is not an open"
        );
        // A later well-formed tag still dispatches and constrains.
        matcher.accept_bytes(b" <n>1").unwrap();
        assert_eq!(matcher.mode(), DispatchMode::Tagged { trigger: 0 });
        // Bytes violating a segment opened by an *earlier* unit are a real
        // rejection (its constraint was visible in the mask).
        let err = matcher.accept_bytes(b"q").unwrap_err();
        assert_eq!(err, AcceptError::BytesRejected { matched_bytes: 0 });
        assert_eq!(matcher.mode(), DispatchMode::Tagged { trigger: 0 });
        matcher.accept_bytes(b"2</n>").unwrap();
        assert!(matcher.can_terminate());
    }

    #[test]
    fn free_mask_contract_holds_for_trigger_crossing_tokens() {
        // The vocabulary contains the merged token "><". With prose ending in
        // "<n" the free mask is all-allowed; sampling "><" completes the
        // trigger "<n>" and continues with '<', which [0-9]+ rejects. The
        // token must still be accepted (as prose), or the mask would lie.
        let tag = number_tag();
        let (vocab, mut matcher) = setup(&tag);
        let crossing = token_for(&vocab, b"><");
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        drive_bytes(&vocab, &mut matcher, b"prose <n");
        matcher.fill_next_token_bitmask(&mut mask);
        assert!(mask.is_allowed(crossing));
        matcher.accept_token(crossing).unwrap();
        assert_eq!(matcher.mode(), DispatchMode::FreeText);
        assert_eq!(matcher.stats().tags_opened, 0);
        // The cancelled trigger text is inert; a clean tag still works, and
        // rollback across the cancelled region behaves like plain free text.
        matcher.accept_bytes(b"<n>42</n>").unwrap();
        assert!(matcher.can_terminate());
        matcher.rollback(2).unwrap();
        assert_eq!(matcher.mode(), DispatchMode::FreeText);
    }

    #[test]
    fn eos_is_rejected_inside_an_open_tag() {
        let tag = number_tag();
        let (vocab, mut matcher) = setup(&tag);
        drive_bytes(&vocab, &mut matcher, b"<n>4");
        assert!(matches!(
            matcher.accept_token(vocab.eos().unwrap()),
            Err(AcceptError::CannotTerminate)
        ));
        drive_bytes(&vocab, &mut matcher, b"</n>");
        matcher.accept_token(vocab.eos().unwrap()).unwrap();
    }

    #[test]
    fn rollback_across_tag_boundaries_restores_modes() {
        let tag = number_tag();
        let (vocab, mut matcher) = setup(&tag);
        let mut pre_tag_mask = TokenBitmask::new_all_rejected(vocab.len());
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());

        drive_bytes(&vocab, &mut matcher, b"ab");
        matcher.fill_next_token_bitmask(&mut pre_tag_mask);

        // Enter the tag, emit a digit: 4 tokens after the pre-tag state.
        drive_bytes(&vocab, &mut matcher, b"<n>5");
        assert_eq!(matcher.mode(), DispatchMode::Tagged { trigger: 0 });

        // Roll back across the boundary: free text again, scan state reset.
        matcher.rollback(4).unwrap();
        assert_eq!(matcher.mode(), DispatchMode::FreeText);
        matcher.fill_next_token_bitmask(&mut mask);
        assert_eq!(mask, pre_tag_mask, "pre-tag mask must be restored");

        // Re-enter and close; then roll back INTO the closed segment.
        drive_bytes(&vocab, &mut matcher, b"<n>5");
        let mut in_tag_mask = TokenBitmask::new_all_rejected(vocab.len());
        matcher.fill_next_token_bitmask(&mut in_tag_mask);
        drive_bytes(&vocab, &mut matcher, b"</n>!");
        assert_eq!(matcher.mode(), DispatchMode::FreeText);
        matcher.rollback(5).unwrap(); // undo `</n>` + `!`: back inside `<n>5`
        assert_eq!(matcher.mode(), DispatchMode::Tagged { trigger: 0 });
        matcher.fill_next_token_bitmask(&mut mask);
        assert_eq!(mask, in_tag_mask, "the in-segment mask must be restored");
        assert!(mask.is_allowed(token_for(&vocab, b"9")));
        // Take a different path this time.
        drive_bytes(&vocab, &mut matcher, b"77</n>");
        assert!(matcher.can_terminate());
        // Two real opens (rollback re-enters a segment, it does not re-open).
        assert_eq!(matcher.stats().tags_opened, 2);
    }

    #[test]
    fn rollback_after_eos_reopens_free_text() {
        let tag = number_tag();
        let (vocab, mut matcher) = setup(&tag);
        drive_bytes(&vocab, &mut matcher, b"ok");
        matcher.accept_token(vocab.eos().unwrap()).unwrap();
        assert!(matcher.is_terminated());
        matcher.rollback(1).unwrap();
        assert!(!matcher.is_terminated());
        assert!(matcher.can_terminate());
        assert!(matcher.rollback(100).is_err());
    }

    #[test]
    fn shared_trigger_dispatches_on_tag_names() {
        let mk = |name: &str, body: &str| TagSpec {
            begin: format!("<fn={name}>"),
            content: TagContent::Ebnf {
                text: format!("root ::= {body}"),
                root: "root".into(),
            },
            end: "</fn>".into(),
        };
        let tag = StructuralTag::with_triggers(
            vec![mk("num", "[0-9]+"), mk("word", "[a-z]+")],
            vec!["<fn=".into()],
        );
        let (vocab, mut matcher) = setup(&tag);
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());

        drive_bytes(&vocab, &mut matcher, b"call <fn=");
        assert_eq!(matcher.mode(), DispatchMode::Tagged { trigger: 0 });
        // Both tag names are still possible: `n` (num) and `w` (word).
        matcher.fill_next_token_bitmask(&mut mask);
        assert!(mask.is_allowed(token_for(&vocab, b"n")));
        assert!(mask.is_allowed(token_for(&vocab, b"w")));
        assert!(!mask.is_allowed(token_for(&vocab, b"x")));

        // Choose `word` and check the content constraint switched with it.
        drive_bytes(&vocab, &mut matcher, b"word>");
        matcher.fill_next_token_bitmask(&mut mask);
        assert!(mask.is_allowed(token_for(&vocab, b"a")));
        assert!(!mask.is_allowed(token_for(&vocab, b"5")));
        drive_bytes(&vocab, &mut matcher, b"hello</fn>");
        assert!(matcher.can_terminate());
    }

    #[test]
    fn trigger_scan_handles_overlapping_prefixes() {
        // Prose containing `<` and `<x` must not derail the scan for `<n>`.
        let tag = number_tag();
        let (vocab, mut matcher) = setup(&tag);
        drive_bytes(&vocab, &mut matcher, b"a < b <x <<n>");
        assert_eq!(matcher.mode(), DispatchMode::Tagged { trigger: 0 });
        drive_bytes(&vocab, &mut matcher, b"1</n>");
        assert!(matcher.can_terminate());
    }

    /// The hundreds-of-tool-calls case: one inner matcher serves every call
    /// of its trigger, and its history holds no more than the units the
    /// lane's last 4 snapshots can reach (at most 8 a unit here: a restart
    /// and 7 bytes), however many calls went before.
    #[test]
    fn a_trigger_keeps_one_inner_matcher_and_a_window_of_history() {
        let tag = number_tag();
        let vocab = Arc::new(test_vocabulary(800));
        let compiler = GrammarCompiler::new(Arc::clone(&vocab));
        let compiled = compiler.compile_tag_dispatch(&tag).unwrap();
        let mut matcher = StructuralTagMatcher::with_max_rollback(Arc::clone(&compiled), 4);
        for _ in 0..100 {
            for unit in [&b"x <n>1"[..], b"2</", b"n> y"] {
                matcher.accept_bytes(unit).unwrap();
                let inner = matcher.inner[0].as_ref().unwrap();
                let window = inner.matcher.rollback_window();
                assert_eq!(window, inner.units.min(window));
                assert!(window <= 4 * 8, "{window} inner units kept");
            }
        }
        assert_eq!(matcher.stats().tags_opened, 100);
        assert_eq!(matcher.stats().inner_matchers_built, 1);
        // Rollback across the last call's opening, into the call before:
        // back after its `12</`.
        matcher.rollback(4).unwrap();
        assert_eq!(matcher.mode(), DispatchMode::Tagged { trigger: 0 });
        matcher.accept_bytes(b"7").unwrap_err();
        matcher.accept_bytes(b"n>").unwrap();
        assert!(matcher.can_terminate());
    }

    /// A lane's inner matchers are matched to their own trigger: with calls
    /// alternating between two triggers, a replay after `reset()` builds no
    /// inner matcher and masks exactly like a fresh lane.
    #[test]
    fn a_tag_lane_reuses_its_own_inner_matchers_across_interleaved_triggers() {
        let spec = |name: &str, body: &str| TagSpec {
            begin: format!("<{name}>"),
            content: TagContent::Ebnf {
                text: format!("root ::= {body}"),
                root: "root".into(),
            },
            end: format!("</{name}>"),
        };
        let tag = StructuralTag::new(vec![spec("n", "[0-9]+"), spec("w", "[a-z]+")]);
        let vocab = Arc::new(test_vocabulary(800));
        let compiler = GrammarCompiler::new(Arc::clone(&vocab));
        let compiled = compiler.compile_tag_dispatch(&tag).unwrap();
        let transcript = b"x <n>12</n> y <w>ab</w> ".repeat(4);
        let tokens: Vec<TokenId> = transcript
            .iter()
            .map(|&b| token_for(&vocab, &[b]))
            .collect();

        let mut lane = StructuralTagMatcher::with_max_rollback(Arc::clone(&compiled), 4);
        for &token in &tokens {
            lane.accept_token(token).unwrap();
        }
        assert_eq!(lane.stats().tags_opened, 8);
        assert_eq!(lane.stats().inner_matchers_built, 2, "one per trigger");
        lane.reset();

        let mut fresh = StructuralTagMatcher::with_max_rollback(compiled, 4);
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        let mut expected = TokenBitmask::new_all_rejected(vocab.len());
        for &token in &tokens {
            lane.fill_next_token_bitmask(&mut mask);
            fresh.fill_next_token_bitmask(&mut expected);
            assert_eq!(mask, expected);
            lane.accept_token(token).unwrap();
            fresh.accept_token(token).unwrap();
        }
        assert_eq!(lane.stats().tags_opened, 8);
        assert_eq!(lane.stats().inner_matchers_built, 0);
    }

    #[test]
    fn jump_forward_spans_begin_tag_remainder_and_end_tag() {
        // With the shared "<fn=" trigger and a single registered tag, the
        // whole name remainder is forced right after the trigger fires.
        let tag = StructuralTag::with_triggers(
            vec![TagSpec {
                begin: "<fn=lookup>".into(),
                content: TagContent::Ebnf {
                    text: "root ::= [0-9]+".into(),
                    root: "root".into(),
                },
                end: "</fn>".into(),
            }],
            vec!["<fn=".into()],
        );
        let (_vocab, mut matcher) = setup(&tag);
        // Free text forces nothing.
        assert!(matcher.find_jump_forward_string().is_empty());
        matcher.accept_bytes(b"calling <fn=").unwrap();
        assert_eq!(matcher.mode(), DispatchMode::Tagged { trigger: 0 });
        // The begin-tag remainder is forced.
        assert_eq!(matcher.find_jump_forward_string(), b"lookup>");
        matcher.accept_bytes(b"lookup>").unwrap();
        // Inside [0-9]+ nothing is forced; after a digit the end tag is not
        // forced either (more digits remain possible)...
        assert!(matcher.find_jump_forward_string().is_empty());
        matcher.accept_bytes(b"42</").unwrap();
        // ...but mid-end-tag the remainder of the close is forced, and the
        // jump stops at the segment boundary (prose is unconstrained).
        assert_eq!(matcher.find_jump_forward_string(), b"fn>");
        matcher.accept_bytes(b"fn>").unwrap();
        assert_eq!(matcher.mode(), DispatchMode::FreeText);
        assert!(matcher.find_jump_forward_string().is_empty());
    }

    #[test]
    fn reset_returns_to_free_text() {
        let tag = number_tag();
        let (vocab, mut matcher) = setup(&tag);
        drive_bytes(&vocab, &mut matcher, b"<n>1");
        matcher.reset();
        assert_eq!(matcher.mode(), DispatchMode::FreeText);
        assert!(matcher.can_terminate());
        assert_eq!(matcher.stats(), TagDispatchStats::default());
        let inner = matcher.inner[0].as_ref().unwrap();
        assert_eq!((inner.units, inner.matcher.rollback_window()), (0, 0));
    }

    #[test]
    fn long_segments_trim_inner_history_to_the_outer_window() {
        // A segment much longer than the rollback window must not retain one
        // history entry per byte for its whole lifetime.
        let tag = StructuralTag::new(vec![TagSpec {
            begin: "<n>".into(),
            content: TagContent::Ebnf {
                text: "root ::= [0-9]+".into(),
                root: "root".into(),
            },
            end: "</n>".into(),
        }]);
        let compiler = GrammarCompiler::new(Arc::new(test_vocabulary(800)));
        let compiled = compiler.compile_tag_dispatch(&tag).unwrap();
        let mut matcher = StructuralTagMatcher::with_max_rollback(compiled, 4);
        matcher.accept_bytes(b"<n>").unwrap();
        for _ in 0..200 {
            matcher.accept_bytes(b"7").unwrap();
        }
        let inner_window = matcher.inner[0].as_ref().unwrap().matcher.rollback_window();
        assert!(
            inner_window <= 4,
            "inner history must be bounded by the outer window, got {inner_window}"
        );
        // Rollback across the retained window still works exactly.
        matcher.rollback(4).unwrap();
        matcher.accept_bytes(b"12</n>").unwrap();
        assert!(matcher.can_terminate());
    }
}
