//! Tag-dispatch matching: free text interleaved with grammar-constrained
//! tagged segments.
//!
//! This is the runtime for [`StructuralTag`] descriptions (the agentic
//! tool-calling scenario): a [`StructuralTagMatcher`] passes free text
//! through *unconstrained* — the token mask is all-allowed and costs no
//! automaton work — while scanning the emitted bytes for trigger strings
//! with a precompiled [`AhoCorasick`] automaton (amortized O(1) per byte,
//! whatever the size of the tool catalog). When a trigger completes, the
//! matcher dispatches into the compiled combined grammar of that trigger
//! (remainder of the begin tag, the content grammar, the end tag) and
//! constrains decoding token by token until the segment closes, then returns
//! to free text. Rollback works across mode boundaries: rolling back into a
//! closed segment re-opens it, and rolling back across a segment's opening
//! returns to free-text scanning with the trigger state restored.
//!
//! Two boundary refinements keep tagged segments as cheap as fully
//! constrained lanes:
//!
//! * segment grammars are compiled with a *free-text continuation tail*
//!   ([`xg_grammar::append_free_text_tail`]), so the in-segment mask is the
//!   union of "continue the segment" and "close it and resume prose" — a
//!   single token spanning the end tag and following prose is admitted;
//! * [`find_jump_forward_string`](StructuralTagMatcher::find_jump_forward_string)
//!   exposes the forced bytes of the open segment (begin-tag remainder,
//!   forced schema keys, the end tag), so jump-forward decoding works inside
//!   tagged segments.
//!
//! Compilation lives on [`GrammarCompiler::compile_tag_dispatch`]: every
//! per-trigger combined grammar goes through the ordinary compile path, so
//! repeated tool schemas hit the shared [`GrammarCache`](crate::GrammarCache)
//! like any other grammar, and each trigger carries a
//! [`MatcherPool`] recycling the inner matchers its segments open. The
//! compiled registry as a whole lives in the compiler's
//! [`TagDispatchCache`](crate::TagDispatchCache), whose slot also owns the
//! pool of *outer* (per-lane) matchers.

use std::collections::VecDeque;
use std::sync::Arc;

use xg_automata::{AcState, AhoCorasick};
use xg_grammar::{DispatchDelta, GrammarError, SegmentExitPolicy, StructuralTag, TagSpec};
use xg_tokenizer::{TokenId, Vocabulary};

use crate::compiler::{CompiledGrammar, GrammarCompiler};
use crate::constraint::{ConstraintFactory, ConstraintMatcher};
use crate::error::{AcceptError, RollbackError};
use crate::grammar_cache::Cached;
use crate::mask::TokenBitmask;
use crate::matcher_pool::MatcherPool;
use crate::DEFAULT_MAX_ROLLBACK_TOKENS;

/// One compiled trigger: the byte string scanned for in free text, the
/// combined grammar that takes over once it fires, and the pool recycling the
/// per-segment matchers running that grammar.
#[derive(Debug)]
pub struct CompiledTrigger {
    trigger: Vec<u8>,
    grammar: Arc<CompiledGrammar>,
    pool: Arc<MatcherPool>,
}

impl CompiledTrigger {
    /// The trigger byte string.
    pub fn trigger(&self) -> &[u8] {
        &self.trigger
    }

    /// The compiled segment grammar dispatched to by this trigger: the
    /// combined grammar (begin-tag remainder, content, end tag) followed by
    /// the free-text continuation tail, so its masks admit tokens that close
    /// the segment and continue with prose.
    pub fn grammar(&self) -> &Arc<CompiledGrammar> {
        &self.grammar
    }

    /// The pool recycling this trigger's per-segment inner matchers.
    pub fn matcher_pool(&self) -> &Arc<MatcherPool> {
        &self.pool
    }
}

/// A [`StructuralTag`] compiled against a vocabulary: the trigger strings,
/// their combined grammars and matcher pools, and the Aho–Corasick scanner
/// over all triggers, ready to instantiate [`StructuralTagMatcher`]s.
///
/// Per-trigger state is `Arc`-shared so an incrementally updated dispatch
/// (see [`GrammarCompiler::update_tag_dispatch`]) reuses the untouched
/// triggers of its base — including their warm [`MatcherPool`]s — instead of
/// recompiling and re-pooling the whole registry.
#[derive(Debug)]
pub struct CompiledTagDispatch {
    triggers: Vec<Arc<CompiledTrigger>>,
    scanner: AhoCorasick,
    vocab: Arc<Vocabulary>,
    exit: SegmentExitPolicy,
    /// The registry description this dispatch was compiled from; deltas are
    /// applied against it.
    source: StructuralTag,
}

impl CompiledTagDispatch {
    /// The compiled triggers, in `StructuralTag::effective_triggers` order.
    pub fn triggers(&self) -> &[Arc<CompiledTrigger>] {
        &self.triggers
    }

    /// The Aho–Corasick automaton scanning free text for all triggers at
    /// once. Pattern indices match [`triggers`](Self::triggers) order.
    pub fn scanner(&self) -> &AhoCorasick {
        &self.scanner
    }

    /// The vocabulary the sub-grammars were compiled against.
    pub fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    /// The [`StructuralTag`] description this dispatch was compiled from.
    /// [`GrammarCompiler::update_tag_dispatch`] applies registry deltas
    /// against it.
    pub fn source_tag(&self) -> &StructuralTag {
        &self.source
    }

    /// Estimated heap memory pinned by this dispatch: the per-trigger
    /// compiled segment grammars (dominant — each carries an adaptive mask
    /// cache) plus the trigger strings and the Aho–Corasick scanner. Used by
    /// [`TagDispatchCache`](crate::TagDispatchCache) to enforce its byte
    /// budget. Sub-grammars shared with the
    /// [`GrammarCache`](crate::GrammarCache) are counted here too: the
    /// dispatch pins them beyond that cache's budget, so they are this
    /// cache's responsibility for as long as the dispatch lives.
    pub fn memory_bytes(&self) -> usize {
        let grammars: usize = self
            .triggers
            .iter()
            .map(|t| t.grammar.memory_bytes() + t.trigger.len())
            .sum();
        // Each scanner state holds a 256-way transition row plus match data.
        grammars + self.scanner.state_count() * 256
    }
}

impl ConstraintFactory for CompiledTagDispatch {
    fn new_matcher(self: Arc<Self>, max_rollback: usize) -> Box<dyn ConstraintMatcher> {
        Box::new(StructuralTagMatcher::with_max_rollback(self, max_rollback))
    }

    fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    fn memory_bytes(&self) -> usize {
        CompiledTagDispatch::memory_bytes(self)
    }
}

/// Idle cap of the per-trigger inner matcher pools: a serving process rarely
/// has more concurrently *open* segments per trigger than lanes in a batch.
const INNER_POOL_MAX_IDLE: usize = 64;

impl GrammarCompiler {
    /// Compiles a [`StructuralTag`] description: every trigger's combined
    /// grammar (begin-tag remainder, content, end tag over the dispatched
    /// tags, plus the free-text continuation tail) runs through the ordinary
    /// cached compile path, so shared tool schemas are compiled once per
    /// [`GrammarCache`](crate::GrammarCache) — *across registries too*:
    /// segment-grammar rule names depend only on the trigger's own tags, so
    /// two registries sharing a tool share its compiled sub-grammar. The
    /// dispatch as a whole is cached in this compiler's budgeted
    /// [`TagDispatchCache`](crate::TagDispatchCache), so serving batches
    /// that re-submit the same tool registry skip the schema-to-grammar
    /// conversion, combined-grammar construction and trigger-scanner build
    /// too — and admission workers racing on one uncached registry build it
    /// once.
    ///
    /// # Errors
    ///
    /// Returns the structural-tag validation error or the content grammars'
    /// parse/conversion errors. A rejected registry is not cached.
    pub fn compile_tag_dispatch(
        &self,
        tag: &StructuralTag,
    ) -> Result<Arc<CompiledTagDispatch>, GrammarError> {
        self.compile_tag_dispatch_pooled(tag).map(|c| c.artifact)
    }

    /// [`compile_tag_dispatch`](Self::compile_tag_dispatch), handing back the
    /// whole cache lookup: the compiled registry together with the lane
    /// [`MatcherPool`] living in its cache slot.
    ///
    /// # Errors
    ///
    /// Same as [`compile_tag_dispatch`](Self::compile_tag_dispatch).
    pub fn compile_tag_dispatch_pooled(
        &self,
        tag: &StructuralTag,
    ) -> Result<Cached<CompiledTagDispatch>, GrammarError> {
        // The description holds serde_json values and grammars with no Hash
        // impls; their Debug rendering is deterministic and captures every
        // distinguishing field, so it serves as the cache key (stored in
        // full — a truncated hash could silently alias two registries).
        let build = || {
            let triggers = tag.effective_triggers();
            let assignments = tag.trigger_assignments()?;
            let mut compiled_triggers = Vec::with_capacity(triggers.len());
            for (trigger, tag_indices) in triggers.iter().zip(&assignments) {
                compiled_triggers.push(self.compile_trigger_segment(tag, trigger, tag_indices)?);
            }
            Ok(self.assemble_dispatch(tag, compiled_triggers))
        };
        self.dispatch_cache()
            .get_or_try_build(format!("{tag:?}"), build)
    }

    /// Incrementally recompiles a registry mutation: applies `delta` to
    /// `base`'s source description, recompiles *only* the triggers whose
    /// dispatched tag set actually changed (for [`DispatchDelta::AddTag`]
    /// with per-tag triggers, exactly one), reuses every untouched
    /// [`CompiledTrigger`] of `base` — compiled segment grammar and warm
    /// [`MatcherPool`] included — and rebuilds the Aho–Corasick scanner over
    /// the new trigger set. The result is cached like a full compile, so a
    /// later [`compile_tag_dispatch`](Self::compile_tag_dispatch) of the
    /// mutated registry (e.g. at request admission) is a cache hit.
    ///
    /// The strict-mode dead-trigger lint runs on exactly the recompiled
    /// triggers: an added tag whose segment grammar cannot terminate is
    /// rejected here just as a full compile would, while untouched triggers
    /// (already linted when `base` was compiled) are not re-analyzed.
    ///
    /// `base` should come from this compiler; a base compiled against a
    /// different vocabulary is handled gracefully by falling back to a full
    /// compile of the mutated registry.
    ///
    /// # Errors
    ///
    /// Returns [`StructuralTag`](GrammarError::StructuralTag) validation
    /// errors from [`xg_grammar::StructuralTag::apply_delta`], content
    /// grammar errors of recompiled triggers, or
    /// [`GrammarError::Lint`] (strict mode, dead added trigger).
    pub fn update_tag_dispatch(
        &self,
        base: &Arc<CompiledTagDispatch>,
        delta: &DispatchDelta,
    ) -> Result<Arc<CompiledTagDispatch>, GrammarError> {
        self.update_tag_dispatch_pooled(base, delta)
            .map(|c| c.artifact)
    }

    /// [`update_tag_dispatch`](Self::update_tag_dispatch), handing back the
    /// whole cache lookup (see
    /// [`compile_tag_dispatch_pooled`](Self::compile_tag_dispatch_pooled)).
    ///
    /// # Errors
    ///
    /// Same as [`update_tag_dispatch`](Self::update_tag_dispatch).
    pub fn update_tag_dispatch_pooled(
        &self,
        base: &Arc<CompiledTagDispatch>,
        delta: &DispatchDelta,
    ) -> Result<Cached<CompiledTagDispatch>, GrammarError> {
        let next = base.source_tag().apply_delta(delta)?;
        if base.vocab.fingerprint() != self.vocabulary().fingerprint() || base.exit != next.exit {
            // A foreign base pins grammars compiled against another
            // vocabulary; reusing them would produce wrong masks.
            return self.compile_tag_dispatch_pooled(&next);
        }
        let build = || {
            let old_tag = base.source_tag();
            let old_triggers = old_tag.effective_triggers();
            // `base` compiled, so its assignments validated then; `next`
            // passed `apply_delta` validation above.
            let old_assignments = old_tag.trigger_assignments()?;
            let new_triggers = next.effective_triggers();
            let new_assignments = next.trigger_assignments()?;
            let specs = |tag: &StructuralTag, indices: &[usize]| -> Vec<TagSpec> {
                indices.iter().map(|&i| tag.tags[i].clone()).collect()
            };
            let mut compiled_triggers = Vec::with_capacity(new_triggers.len());
            for (trigger, tag_indices) in new_triggers.iter().zip(&new_assignments) {
                let reusable = old_triggers
                    .iter()
                    .position(|t| t == trigger)
                    .filter(|&old_idx| {
                        specs(old_tag, &old_assignments[old_idx]) == specs(&next, tag_indices)
                    })
                    .map(|old_idx| Arc::clone(&base.triggers[old_idx]));
                match reusable {
                    Some(existing) => compiled_triggers.push(existing),
                    None => compiled_triggers.push(self.compile_trigger_segment(
                        &next,
                        trigger,
                        tag_indices,
                    )?),
                }
            }
            Ok(self.assemble_dispatch(&next, compiled_triggers))
        };
        self.dispatch_cache()
            .get_or_try_build(format!("{next:?}"), build)
    }

    /// Compiles one trigger's segment: combined grammar construction, the
    /// strict-mode dead-trigger lint, the exit-policy tail, the cached
    /// grammar compile, and a fresh inner matcher pool. Shared by the full
    /// and incremental compile paths, so the delta path lints and compiles
    /// exactly like a full compile would for the triggers it touches.
    fn compile_trigger_segment(
        &self,
        tag: &StructuralTag,
        trigger: &str,
        tag_indices: &[usize],
    ) -> Result<Arc<CompiledTrigger>, GrammarError> {
        let grammar = tag.build_grammar_for_trigger(trigger, tag_indices)?;
        // Dead-trigger lint: a trigger whose combined segment grammar cannot
        // derive any terminal string would fire and then wedge the lane (the
        // segment can never complete). In strict lint mode that fails the
        // compile up front; the free-text tail appended below cannot repair
        // an unproductive segment, so checking the strict grammar is exact.
        if self.config().lint_mode == crate::LintMode::Strict {
            let analysis = xg_grammar::analyze(&grammar);
            if analysis.has_errors() {
                return Err(GrammarError::Lint {
                    diagnostics: vec![xg_grammar::Diagnostic::new(
                        xg_grammar::DiagnosticCode::DeadTrigger,
                        None,
                        format!(
                            "trigger `{trigger}` has an unserveable segment grammar: {}",
                            analysis.error_summary()
                        ),
                    )],
                });
            }
        }
        // Eager exit: the free-text tail turns the end-of-segment mask
        // into the union with the prose continuation; acceptance is
        // untouched because the matcher closes the segment eagerly,
        // before the tail is ever entered across a token boundary.
        // Greedy exit: the grammar stays *strict* (no tail) — the
        // matcher needs its exact termination points to find the longest
        // match, and a tail would keep it terminable (and byte-hungry)
        // forever; the mask union with prose is built at mask time
        // instead, from the segment's exitability.
        let segment_grammar = match tag.exit {
            SegmentExitPolicy::Eager => xg_grammar::append_free_text_tail(&grammar),
            SegmentExitPolicy::Greedy => grammar,
        };
        let compiled = self.compile_grammar(&segment_grammar);
        let pool = Arc::new(MatcherPool::with_rollback_window(
            Arc::clone(&compiled) as Arc<dyn ConstraintFactory>,
            INNER_POOL_MAX_IDLE,
            // Inner matchers keep one rollback unit per byte. The window
            // is nominally unbounded so the matcher never self-trims;
            // `prune_unreachable_segments` trims it to exactly the units
            // the outer rollback window can still reach.
            usize::MAX,
        ));
        Ok(Arc::new(CompiledTrigger {
            trigger: trigger.as_bytes().to_vec(),
            grammar: compiled,
            pool,
        }))
    }

    /// Builds the scanner over `triggers` and wraps everything into a
    /// [`CompiledTagDispatch`].
    fn assemble_dispatch(
        &self,
        tag: &StructuralTag,
        triggers: Vec<Arc<CompiledTrigger>>,
    ) -> CompiledTagDispatch {
        let patterns: Vec<Vec<u8>> = triggers.iter().map(|t| t.trigger.clone()).collect();
        CompiledTagDispatch {
            triggers,
            scanner: AhoCorasick::new(&patterns),
            vocab: Arc::clone(self.vocabulary()),
            exit: tag.exit,
            source: tag.clone(),
        }
    }

    /// Returns `true` if this compiler's dispatch cache already holds the
    /// compiled form of `tag` — i.e.
    /// [`compile_tag_dispatch`](Self::compile_tag_dispatch) would be a cache
    /// hit. Probes only; compiles nothing and does not touch hit/miss
    /// counters or LRU order. Admission control uses this to classify
    /// cache-hit admissions.
    pub fn has_cached_tag_dispatch_for(&self, tag: &StructuralTag) -> bool {
        self.dispatch_cache().contains(&format!("{tag:?}"))
    }
}

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
    /// Segment slots dropped entirely because they fell behind the rollback
    /// window (the remaining slots are all the per-token prune pass scans).
    pub slots_dropped: u64,
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
/// automaton state, [`ModeState::Tagged`] the *absolute* segment index
/// (stable across dropped slots).
#[derive(Debug, Clone, Copy)]
enum ModeState {
    Free { scan: AcState },
    Tagged { seg: usize },
}

/// A tagged segment's runtime state. The matcher is returned to its trigger's
/// pool (`None`) once no rollback snapshot can reach the segment any more.
#[derive(Debug)]
struct TagSegment {
    trigger: usize,
    matcher: Option<Box<dyn ConstraintMatcher>>,
    /// Inner rollback units accepted so far (one per byte fed).
    units: usize,
    /// Whether the inner grammar can terminate at the current position —
    /// i.e. the segment could close here. Maintained per accepted byte (and
    /// re-derived on rollback) so greedy-exit decisions and
    /// [`StructuralTagMatcher::can_terminate`] need no `&mut` probe of the
    /// inner matcher. Only meaningful under [`SegmentExitPolicy::Greedy`]
    /// (eager segments close the moment this would become `true`).
    exitable: bool,
}

/// State of the matcher *before* an accepted token, for rollback.
#[derive(Debug, Clone, Copy)]
struct Snapshot {
    mode: ModeState,
    /// Inner units of the then-current segment (0 when `mode` is free).
    units: usize,
    /// Total segments ever opened at snapshot time (`segments_base +
    /// segments.len()`), for truncating later opens on restore.
    segments_len: usize,
}

/// The incremental matcher for a compiled structural tag: unconstrained free
/// text, trigger dispatch, constrained tagged segments, and rollback across
/// all of it.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use xg_core::{GrammarCompiler, StructuralTagMatcher, TokenBitmask};
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
    /// Live segment slots. Slots behind the rollback window are dropped from
    /// the front; `segments_base` is the absolute index of `segments[0]`, so
    /// a request with hundreds of tool calls scans (and stores) only the
    /// handful of slots a snapshot can still reach.
    segments: VecDeque<TagSegment>,
    segments_base: usize,
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
    pub fn with_max_rollback(compiled: Arc<CompiledTagDispatch>, max_rollback: usize) -> Self {
        let scan = compiled.scanner.start();
        StructuralTagMatcher {
            compiled,
            mode: ModeState::Free { scan },
            segments: VecDeque::new(),
            segments_base: 0,
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

    /// The maximum rollback window this matcher was created with.
    pub fn max_rollback(&self) -> usize {
        self.max_rollback
    }

    /// The matcher's current mode.
    pub fn mode(&self) -> DispatchMode {
        match &self.mode {
            ModeState::Free { .. } => DispatchMode::FreeText,
            ModeState::Tagged { seg } => DispatchMode::Tagged {
                trigger: self.seg(*seg).trigger,
            },
        }
    }

    /// Returns `true` if end-of-sequence has been accepted.
    pub fn is_terminated(&self) -> bool {
        self.terminated
    }

    /// Returns `true` if end-of-sequence would be accepted now: free text can
    /// always end; a tagged segment must be closed first — except a greedy
    /// segment sitting on a termination point of its grammar, which closes
    /// on EOS.
    pub fn can_terminate(&self) -> bool {
        if self.terminated {
            return false;
        }
        match self.mode {
            ModeState::Free { .. } => true,
            ModeState::Tagged { seg } => {
                matches!(self.compiled.exit, SegmentExitPolicy::Greedy) && self.seg(seg).exitable
            }
        }
    }

    /// Number of accepted tokens that can currently be rolled back.
    pub fn rollback_window(&self) -> usize {
        self.history.len()
    }

    /// Number of segment slots currently retained (the prune pass scans only
    /// these; slots behind the rollback window are dropped entirely).
    pub fn retained_segment_slots(&self) -> usize {
        self.segments.len()
    }

    /// Resets the matcher to free text at the start of the stream, returning
    /// every live inner matcher to its trigger's pool.
    pub fn reset(&mut self) {
        self.release_segments_from(0);
        self.mode = ModeState::Free {
            scan: self.compiled.scanner.start(),
        };
        self.segments_base = 0;
        self.history.clear();
        self.terminated = false;
        self.stats = TagDispatchStats::default();
    }

    /// Fills `mask` with the allowed next tokens: all-allowed in free text
    /// (special tokens except EOS stay rejected), the segment grammar's mask
    /// inside a tagged segment.
    ///
    /// Under [`SegmentExitPolicy::Eager`] the segment grammar carries the
    /// free-text continuation tail, so near the end of a segment the mask
    /// also admits tokens that finish the end tag and continue with prose.
    /// Under [`SegmentExitPolicy::Greedy`] the segment grammar is strict;
    /// whenever it can terminate the mask is the free-text mask instead
    /// (continue-the-segment and exit-to-prose union), because
    /// [`accept_token`](Self::accept_token) closes the segment at the last
    /// terminable point when a longer match dies.
    ///
    /// # Panics
    ///
    /// Panics if the mask's vocabulary size differs from the compiled
    /// vocabulary.
    pub fn fill_next_token_bitmask(&mut self, mask: &mut TokenBitmask) {
        let vocab = Arc::clone(&self.compiled.vocab);
        assert_eq!(
            mask.vocab_size(),
            vocab.len(),
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
                mask.allow_all();
                for special in vocab.special_ids() {
                    if Some(special) != vocab.eos() {
                        mask.reject(special);
                    }
                }
                self.stats.free_masks += 1;
            }
            ModeState::Tagged { seg } => {
                let greedy = matches!(self.compiled.exit, SegmentExitPolicy::Greedy);
                if greedy && self.seg(seg).exitable {
                    // The segment grammar can terminate here, so any token is
                    // acceptable: bytes the strict grammar accepts extend the
                    // segment, and the rest close it and resume as prose
                    // (`advance_bytes_across_modes` rewinds to the last
                    // exitable point when a longer match dies). The union of
                    // those outcomes is the free-text mask.
                    mask.allow_all();
                    for special in vocab.special_ids() {
                        if Some(special) != vocab.eos() {
                            mask.reject(special);
                        }
                    }
                    self.stats.tag_masks += 1;
                } else {
                    self.seg_mut(seg)
                        .matcher
                        .as_mut()
                        .expect("the current segment is never pruned")
                        .fill_next_token_bitmask(mask);
                    self.stats.tag_masks += 1;
                }
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
    pub fn accept_token(&mut self, token: TokenId) -> Result<(), AcceptError> {
        if self.terminated {
            return Err(AcceptError::AlreadyTerminated);
        }
        let vocab = Arc::clone(&self.compiled.vocab);
        if token.index() >= vocab.len() {
            return Err(AcceptError::UnknownToken { token });
        }
        if vocab.is_special(token) {
            if Some(token) == vocab.eos() {
                if self.can_terminate() {
                    self.push_history();
                    if matches!(self.mode, ModeState::Tagged { .. }) {
                        // A greedy segment terminable here closes on EOS; the
                        // history snapshot above restores the open segment on
                        // rollback.
                        self.close_segment();
                    }
                    self.terminated = true;
                    return Ok(());
                }
                return Err(AcceptError::CannotTerminate);
            }
            return Err(AcceptError::SpecialTokenRejected { token });
        }
        let snapshot = self.snapshot();
        let stats = self.stats;
        let bytes = vocab.token_bytes(token).to_vec();
        match self.advance_bytes_across_modes(&bytes, &snapshot) {
            Ok(()) => {
                self.push_history_snapshot(snapshot);
                Ok(())
            }
            Err(matched_bytes) => {
                self.restore(&snapshot);
                self.stats = stats;
                Err(AcceptError::TokenRejected {
                    token,
                    matched_bytes,
                })
            }
        }
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
    pub fn accept_bytes(&mut self, bytes: &[u8]) -> Result<(), AcceptError> {
        if self.terminated {
            return Err(AcceptError::AlreadyTerminated);
        }
        let snapshot = self.snapshot();
        let stats = self.stats;
        match self.advance_bytes_across_modes(bytes, &snapshot) {
            Ok(()) => {
                self.push_history_snapshot(snapshot);
                Ok(())
            }
            Err(matched_bytes) => {
                self.restore(&snapshot);
                self.stats = stats;
                Err(AcceptError::BytesRejected { matched_bytes })
            }
        }
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
    pub fn rollback(&mut self, num_tokens: usize) -> Result<(), RollbackError> {
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

    /// Finds the longest byte string *forced* from the current position
    /// (always trimmed to a complete UTF-8 prefix), without modifying state.
    ///
    /// Free text forces nothing (any byte is acceptable). Inside a tagged
    /// segment the forced bytes come from the segment grammar: the unmatched
    /// remainder of the begin tag, forced schema punctuation and keys, and —
    /// once the content is complete — the end tag itself. The search stops
    /// where the segment can close (the continuation is unconstrained prose,
    /// so nothing beyond the close is forced).
    pub fn find_jump_forward_string(&mut self) -> Vec<u8> {
        if self.terminated {
            return Vec::new();
        }
        match self.mode {
            ModeState::Free { .. } => Vec::new(),
            ModeState::Tagged { seg } => self
                .seg_mut(seg)
                .matcher
                .as_mut()
                .expect("the current segment is never pruned")
                .find_jump_forward_string(),
        }
    }

    /// Like [`find_jump_forward_string`](Self::find_jump_forward_string), but
    /// returned as a `String` (the forced bytes are always trimmed to a
    /// complete UTF-8 prefix, so the conversion cannot fail).
    pub fn find_jump_forward_str(&mut self) -> String {
        String::from_utf8(self.find_jump_forward_string())
            .expect("forced string is trimmed to a valid UTF-8 boundary")
    }

    // -----------------------------------------------------------------
    // Internals
    // -----------------------------------------------------------------

    fn seg(&self, abs: usize) -> &TagSegment {
        &self.segments[abs - self.segments_base]
    }

    fn seg_mut(&mut self, abs: usize) -> &mut TagSegment {
        let idx = abs - self.segments_base;
        &mut self.segments[idx]
    }

    /// Total segments ever opened (dropped slots included).
    fn segments_total(&self) -> usize {
        self.segments_base + self.segments.len()
    }

    fn snapshot(&self) -> Snapshot {
        let units = match &self.mode {
            ModeState::Free { .. } => 0,
            ModeState::Tagged { seg } => self.seg(*seg).units,
        };
        Snapshot {
            mode: self.mode,
            units,
            segments_len: self.segments_total(),
        }
    }

    fn restore(&mut self, snapshot: &Snapshot) {
        // Drop segments opened after the snapshot, returning their inner
        // matchers to the pools. When `segments_base` has already advanced
        // past the snapshot's total (the excess slots fell behind the
        // rollback window and were dropped from the front), this saturates to
        // clearing whatever is left.
        self.release_segments_from(snapshot.segments_len.saturating_sub(self.segments_base));
        if let ModeState::Tagged { seg } = &snapshot.mode {
            let segment = self.seg_mut(*seg);
            let delta = segment.units - snapshot.units;
            if delta > 0 {
                let matcher = segment
                    .matcher
                    .as_mut()
                    .expect("segments reachable from snapshots are never pruned");
                matcher
                    .rollback(delta)
                    .expect("inner matchers keep their full per-byte history");
                segment.units = snapshot.units;
                segment.exitable = matcher.can_terminate();
            }
        }
        self.mode = snapshot.mode;
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
        let greedy = matches!(compiled.exit, SegmentExitPolicy::Greedy);
        let base_stats = self.stats;
        let mut suppressed: Vec<usize> = Vec::new();
        // Byte positions where a greedy segment is *forced* to close on the
        // current attempt: when the strict grammar dies at a point where the
        // segment cannot end, the call replays from `base` and exits at the
        // last position where it could (the longest match), handing the
        // remaining bytes back to free text. Strictly increasing across
        // attempts, so the replay loop terminates.
        let mut forced_exits: Vec<usize> = Vec::new();
        'attempt: loop {
            // Position of the trigger completion that opened the currently
            // innermost segment, when that happened during this call.
            let mut opened_at: Option<usize> = None;
            // Most recent byte index (this attempt) where the *current*
            // greedy segment could have closed; cleared on every mode
            // transition.
            let mut last_exitable: Option<usize> = None;
            let mut i = 0;
            while i < bytes.len() {
                let b = bytes[i];
                if forced_exits.contains(&i) && matches!(self.mode, ModeState::Tagged { .. }) {
                    self.close_segment();
                    last_exitable = None;
                    // Byte `i` now runs through the Free arm below.
                }
                match &mut self.mode {
                    ModeState::Free { scan } => {
                        let state = compiled.scanner.step(*scan, b);
                        *scan = state;
                        if let Some(trigger) = compiled.scanner.matched(state) {
                            if !suppressed.contains(&i) {
                                self.open_segment(trigger);
                                opened_at = Some(i);
                                last_exitable = None;
                            }
                        }
                    }
                    ModeState::Tagged { seg } => {
                        let segment = {
                            let idx = *seg - self.segments_base;
                            &mut self.segments[idx]
                        };
                        if greedy && segment.exitable {
                            last_exitable = Some(i);
                        }
                        let matcher = segment
                            .matcher
                            .as_mut()
                            .expect("the current segment is never pruned");
                        if matcher.accept_bytes(&[b]).is_err() {
                            if greedy && segment.exitable {
                                // The grammar cannot take this byte but the
                                // segment can end right here: longest match
                                // found. Close and re-run the byte as free
                                // text.
                                self.close_segment();
                                last_exitable = None;
                                continue;
                            }
                            if greedy {
                                if let Some(exit) = last_exitable {
                                    // The grammar died beyond the last point
                                    // where the segment could end: rewind and
                                    // replay, closing there instead.
                                    forced_exits.push(exit);
                                    self.restore(base);
                                    self.stats = base_stats;
                                    continue 'attempt;
                                }
                            }
                            if let Some(pos) = opened_at {
                                suppressed.push(pos);
                                self.restore(base);
                                self.stats = base_stats;
                                continue 'attempt;
                            }
                            return Err(i);
                        }
                        segment.units += 1;
                        if greedy {
                            segment.exitable = matcher.can_terminate();
                        } else if matcher.can_terminate() {
                            self.close_segment();
                            last_exitable = None;
                        }
                    }
                }
                i += 1;
            }
            return Ok(());
        }
    }

    /// Opens a tagged segment for `trigger` (drawing the inner matcher from
    /// the trigger's pool). Under the eager policy a segment whose combined
    /// grammar is already complete (pathological nullable tags) closes
    /// immediately; under the greedy policy it stays open — merely
    /// *exitable* — so longer matches still win.
    fn open_segment(&mut self, trigger: usize) {
        let pool = &self.compiled.triggers[trigger].pool;
        let mut matcher = pool.acquire();
        self.stats.tags_opened += 1;
        let exitable = matcher.can_terminate();
        if exitable && matches!(self.compiled.exit, SegmentExitPolicy::Eager) {
            pool.release(matcher);
            self.stats.tags_closed += 1;
            self.mode = ModeState::Free {
                scan: self.compiled.scanner.start(),
            };
            return;
        }
        self.segments.push_back(TagSegment {
            trigger,
            matcher: Some(matcher),
            units: 0,
            exitable,
        });
        self.mode = ModeState::Tagged {
            seg: self.segments_total() - 1,
        };
    }

    fn close_segment(&mut self) {
        self.stats.tags_closed += 1;
        self.mode = ModeState::Free {
            scan: self.compiled.scanner.start(),
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
        // every closed segment becomes unreachable immediately.
        self.prune_unreachable_segments();
    }

    fn push_history(&mut self) {
        let snapshot = self.snapshot();
        self.push_history_snapshot(snapshot);
    }

    /// Returns the inner matchers of segments that no rollback snapshot (nor
    /// the current mode) can reach any more to their pools, drops the slots
    /// of the unreachable *prefix* entirely (advancing `segments_base`, so
    /// long multi-call generations neither hold nor rescan one slot per
    /// closed tool call), and trims each reachable segment's per-byte history
    /// down to the oldest unit any snapshot can still roll back to.
    fn prune_unreachable_segments(&mut self) {
        let base = self.segments_base;
        // needed[i] = the smallest `units` value any retained snapshot (or
        // the current mode) could restore segment `base + i` to; None =
        // unreachable.
        let mut needed: Vec<Option<usize>> = vec![None; self.segments.len()];
        if let ModeState::Tagged { seg } = &self.mode {
            needed[*seg - base] = Some(self.seg(*seg).units);
        }
        for snap in &self.history {
            if let ModeState::Tagged { seg } = &snap.mode {
                debug_assert!(*seg >= base, "snapshots never reference dropped slots");
                let entry = needed[*seg - base].get_or_insert(snap.units);
                *entry = (*entry).min(snap.units);
            }
        }
        let compiled = Arc::clone(&self.compiled);
        for (segment, need) in self.segments.iter_mut().zip(&needed) {
            match need {
                None => {
                    if let Some(matcher) = segment.matcher.take() {
                        compiled.triggers[segment.trigger].pool.release(matcher);
                    }
                }
                Some(min_units) => {
                    if let Some(matcher) = segment.matcher.as_mut() {
                        matcher.trim_history(segment.units - min_units);
                    }
                }
            }
        }
        // Drop the unreachable prefix outright: no snapshot indexes below the
        // first reachable slot, so those slots can never be restored (and
        // truncation on restore only pops from the back).
        let unreachable_prefix = needed
            .iter()
            .position(|n| n.is_some())
            .unwrap_or(needed.len());
        for _ in 0..unreachable_prefix {
            self.segments.pop_front();
            self.segments_base += 1;
            self.stats.slots_dropped += 1;
        }
    }

    /// Returns the inner matchers of all slots with index ≥ `from` (relative
    /// to the deque) to their pools and removes the slots.
    fn release_segments_from(&mut self, from: usize) {
        let compiled = Arc::clone(&self.compiled);
        while self.segments.len() > from {
            if let Some(seg) = self.segments.pop_back() {
                if let Some(matcher) = seg.matcher {
                    compiled.triggers[seg.trigger].pool.release(matcher);
                }
            }
        }
    }
}

impl Drop for StructuralTagMatcher {
    fn drop(&mut self) {
        // Hand the live inner matchers back to their pools, so dropping a
        // dispatching matcher (or its backend session) recycles allocations
        // for the next request.
        self.release_segments_from(0);
    }
}

impl ConstraintMatcher for StructuralTagMatcher {
    fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.compiled.vocab
    }

    fn fill_next_token_bitmask(&mut self, mask: &mut TokenBitmask) {
        StructuralTagMatcher::fill_next_token_bitmask(self, mask);
    }

    fn accept_token(&mut self, token: TokenId) -> Result<(), AcceptError> {
        StructuralTagMatcher::accept_token(self, token)
    }

    fn accept_bytes(&mut self, bytes: &[u8]) -> Result<(), AcceptError> {
        StructuralTagMatcher::accept_bytes(self, bytes)
    }

    fn rollback(&mut self, num_tokens: usize) -> Result<(), RollbackError> {
        StructuralTagMatcher::rollback(self, num_tokens)
    }

    fn rollback_window(&self) -> usize {
        StructuralTagMatcher::rollback_window(self)
    }

    fn max_rollback(&self) -> usize {
        StructuralTagMatcher::max_rollback(self)
    }

    fn find_jump_forward_string(&mut self) -> Vec<u8> {
        StructuralTagMatcher::find_jump_forward_string(self)
    }

    fn can_terminate(&mut self) -> bool {
        StructuralTagMatcher::can_terminate(self)
    }

    fn is_terminated(&self) -> bool {
        StructuralTagMatcher::is_terminated(self)
    }

    fn reset(&mut self) {
        StructuralTagMatcher::reset(self);
    }

    fn factory_key(&self) -> usize {
        ConstraintFactory::factory_key(&*self.compiled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_grammar::{TagContent, TagSpec};
    use xg_tokenizer::test_vocabulary;

    fn number_tag() -> StructuralTag {
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
        drive_bytes(&vocab, &mut matcher, b"<n>5</n>!");
        assert_eq!(matcher.mode(), DispatchMode::FreeText);
        matcher.rollback(5).unwrap(); // undo `/n>` + `!`... back inside `<n>5`
        assert_eq!(matcher.mode(), DispatchMode::Tagged { trigger: 0 });
        matcher.fill_next_token_bitmask(&mut mask);
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

    #[test]
    fn segment_slots_behind_the_rollback_window_are_dropped() {
        // The hundreds-of-tool-calls case: every closed call's slot must be
        // dropped (not just slimmed) once no snapshot can reach it, so the
        // per-token prune pass scans O(window) slots, not O(calls).
        let tag = number_tag();
        let vocab = Arc::new(test_vocabulary(800));
        let compiler = GrammarCompiler::new(Arc::clone(&vocab));
        let compiled = compiler.compile_tag_dispatch(&tag).unwrap();
        let mut matcher = StructuralTagMatcher::with_max_rollback(Arc::clone(&compiled), 4);
        for _ in 0..100 {
            matcher.accept_bytes(b"x <n>12</n> y").unwrap();
        }
        assert_eq!(matcher.stats().tags_opened, 100);
        assert!(
            matcher.retained_segment_slots() <= 4,
            "expected slots behind the window to be dropped, {} retained",
            matcher.retained_segment_slots()
        );
        assert!(matcher.stats().slots_dropped >= 96);
        // The inner matchers were recycled through the trigger's pool rather
        // than constructed fresh per call.
        let pool = compiled.triggers()[0].matcher_pool();
        assert!(
            pool.created() < 10,
            "inner matchers must recycle, created {}",
            pool.created()
        );
        assert!(pool.reused() >= 90);
        // Rollback within the window still works after dropping slots.
        matcher.rollback(4).unwrap();
        matcher.accept_bytes(b"<n>7</n>").unwrap();
        assert!(matcher.can_terminate());
    }

    #[test]
    fn long_segments_trim_inner_history_to_the_outer_window() {
        // A segment much longer than the rollback window must not retain one
        // history entry per byte for its whole lifetime.
        let tag = number_tag();
        let vocab = Arc::new(test_vocabulary(800));
        let compiler = GrammarCompiler::new(Arc::clone(&vocab));
        let compiled = compiler.compile_tag_dispatch(&tag).unwrap();
        let mut matcher = StructuralTagMatcher::with_max_rollback(compiled, 4);
        matcher.accept_bytes(b"<n>").unwrap();
        for _ in 0..200 {
            matcher.accept_token(token_for(&vocab, b"7")).unwrap();
        }
        let inner_window = matcher.segments[0]
            .matcher
            .as_ref()
            .unwrap()
            .rollback_window();
        assert!(
            inner_window <= 4,
            "inner history must be bounded by the outer window, got {inner_window}"
        );
        // Rollback across the retained window still works exactly.
        matcher.rollback(4).unwrap();
        matcher.accept_bytes(b"12</n>").unwrap();
        assert!(matcher.can_terminate());
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
        assert_eq!(matcher.find_jump_forward_str(), "lookup>");
        matcher.accept_bytes(b"lookup>").unwrap();
        // Inside [0-9]+ nothing is forced; after a digit the end tag is not
        // forced either (more digits remain possible)...
        assert!(matcher.find_jump_forward_string().is_empty());
        matcher.accept_bytes(b"42</").unwrap();
        // ...but mid-end-tag the remainder of the close is forced, and the
        // jump stops at the segment boundary (prose is unconstrained).
        assert_eq!(matcher.find_jump_forward_str(), "fn>");
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
        assert_eq!(matcher.retained_segment_slots(), 0);
    }
}
