//! Per-lane decode state: everything one request does between joining the
//! [`ContinuousScheduler`]'s batch and leaving it.
//!
//! The decode loop drives every lane through [`Lane::start`] (the lane-start
//! jump-forward pass) and [`Lane::step`], so sampling order, EOS handling,
//! token-cap accounting and forced-injection budgeting live here, once.
//!
//! **Lane independence.** A lane is self-contained — its simulated-LLM state
//! is seeded from [`EngineRequest::seed`](crate::EngineRequest::seed) and its
//! session sees only this lane's tokens — so the bytes a lane emits do not
//! depend on which other lanes share the batch, on when the lane joined it,
//! or on which thread filled its masks. That is what makes
//! [`ServingEngine::decode_reference`] — the same `start` / fill-mask /
//! `step` sequence for one lane on one thread — a complete specification of
//! what the scheduler must serve, and what the differential suite
//! (`tests/continuous_batching.rs`) checks it against.
//!
//! [`ServingEngine::decode_reference`]: crate::ServingEngine::decode_reference
//! [`ContinuousScheduler`]: crate::ContinuousScheduler

use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::engine::RequestResult;
use crate::llm::LlmRequestState;
use crate::JumpForwardPolicy;
use xg_baselines::Session;
use xg_core::TokenBitmask;
use xg_tokenizer::Vocabulary;

/// Shared forced-injection context of one serving run: the jump-forward
/// policy (nothing is injected under [`JumpForwardPolicy::Off`]) and the
/// vocabulary.
pub(crate) struct ForcedContext {
    pub jump_forward: JumpForwardPolicy,
    pub vocab: Arc<Vocabulary>,
}

/// One decode lane: the constraint session (None for unconstrained lanes),
/// the simulated model's request state, the accumulated output and the token
/// accounting.
pub(crate) struct Lane {
    /// Session driving the constraint; `None` = unconstrained.
    pub session: Option<Session>,
    /// Simulated-LLM request state (seeded per request).
    pub llm_state: LlmRequestState,
    /// Emitted bytes, sampled and forced, in emission order.
    pub output: Vec<u8>,
    /// Hard cap on generated tokens (sampled + forced).
    pub max_tokens: usize,
    /// Sampled tokens so far (each paid a GPU decoding step).
    pub sampled_tokens: usize,
    /// Tokens injected by engine-level jump-forward.
    pub forced_tokens: usize,
    /// Bytes injected by jump-forward.
    pub forced_chars: usize,
    /// Wall clock spent finding, re-tokenizing and injecting forced text.
    pub forced_time: Duration,
    /// The lane stopped decoding (successfully or not).
    pub finished: bool,
    /// The lane ended *successfully*: EOS was accepted, or an unconstrained
    /// lane emitted its full intention — as opposed to dying on the token
    /// cap, a stuck mask, or a constraint violation.
    pub completed: bool,
}

impl Lane {
    /// Creates a fresh lane.
    pub(crate) fn new(
        session: Option<Session>,
        llm_state: LlmRequestState,
        max_tokens: usize,
    ) -> Self {
        Lane {
            session,
            llm_state,
            output: Vec::new(),
            max_tokens,
            sampled_tokens: 0,
            forced_tokens: 0,
            forced_chars: 0,
            forced_time: Duration::ZERO,
            finished: false,
            completed: false,
        }
    }

    /// Returns `true` if the lane needs token masks.
    pub(crate) fn is_constrained(&self) -> bool {
        self.session.is_some()
    }

    /// Lane-start jump-forward: a constraint may force a prefix before the
    /// first token is ever sampled (e.g. `{"` and the first required key of
    /// a JSON schema). Must run before the lane's first mask is built so the
    /// first sampled token already continues the forced text. No-op under
    /// [`JumpForwardPolicy::Off`](crate::JumpForwardPolicy::Off) and on
    /// unconstrained lanes.
    pub(crate) fn start(&mut self, ctx: &ForcedContext) {
        if !self.finished && self.inject_forced(ctx) {
            self.finished = true;
        }
    }

    /// Runs one sampling step for this lane: propose under `mask` (which must
    /// be `Some` exactly when the lane is constrained), accept, advance the
    /// simulated model, enforce the token cap and run the post-token forced
    /// injection. Returns the byte offset in [`output`](Self::output) where
    /// this step's emission began (`output[offset..]` is the step's newly
    /// emitted text — empty when the lane finished without emitting).
    pub(crate) fn step(&mut self, mask: Option<&TokenBitmask>, ctx: &ForcedContext) -> usize {
        let emitted_from = self.output.len();
        if self.finished {
            return emitted_from;
        }
        let token = match &mut self.session {
            Some(_) => {
                let mask = mask.expect("constrained lane steps with a mask");
                match self.llm_state.propose_constrained(mask) {
                    Some(t) => t,
                    None => {
                        // No token is allowed: the structure is stuck (should
                        // not happen); the lane dies without completing.
                        self.finished = true;
                        return emitted_from;
                    }
                }
            }
            None => self.llm_state.propose(),
        };
        if Some(token) == ctx.vocab.eos() {
            self.finished = true;
            self.completed = match &mut self.session {
                Some(session) => session.accept_token(token).is_ok(),
                None => true,
            };
            return emitted_from;
        }
        if let Some(session) = &mut self.session {
            if session.accept_token(token).is_err() {
                // The sampled token violated the constraint: the lane dies
                // without completing.
                self.finished = true;
                return emitted_from;
            }
        }
        self.output.extend_from_slice(ctx.vocab.token_bytes(token));
        self.llm_state.advance(token);
        self.sampled_tokens += 1;
        if self.sampled_tokens + self.forced_tokens >= self.max_tokens {
            // Token cap reached: finished, but not `completed`.
            self.finished = true;
        }
        // After every accepted token the constraint may force the next
        // stretch of text (a key name just became unambiguous, an end tag is
        // due): inject it now, without sampling, so the next round's mask and
        // proposal already start after it.
        if !self.finished && self.inject_forced(ctx) {
            self.finished = true;
        }
        // Unconstrained requests stop when the intention is done.
        if self.session.is_none() && self.llm_state.finished() {
            self.finished = true;
            self.completed = true;
        }
        emitted_from
    }

    /// The lane's outcome, once it has finished.
    pub(crate) fn into_result(self) -> RequestResult {
        RequestResult {
            output: self.output,
            tokens: self.sampled_tokens,
            jump_forward_tokens: self.forced_tokens,
            jump_forward_chars: self.forced_chars,
            completed: self.completed,
        }
    }

    /// Runs one forced-injection pass: re-tokenize the grammar-forced
    /// continuation (`ConstraintMatcher::find_jump_forward_string`) as its
    /// longest-prefix token cover over the vocabulary's one sorted index
    /// (`SortedVocabulary::longest_prefix_cover`), and accept it token by
    /// token without
    /// sampling, capped at the lane's remaining `max_tokens` allowance; every
    /// injected token is a rollback unit exactly like a sampled one, and the
    /// simulated model is re-conditioned on the forced text so the following
    /// proposals continue after it. Returns `true` when the lane has reached
    /// its token cap (the caller marks it finished). No-op (`false`) under
    /// `JumpForwardPolicy::Off` and on unconstrained lanes.
    fn inject_forced(&mut self, ctx: &ForcedContext) -> bool {
        let Some(session) = self.session.as_mut() else {
            return false;
        };
        if ctx.jump_forward == JumpForwardPolicy::Off {
            return false;
        }
        let budget = self
            .max_tokens
            .saturating_sub(self.sampled_tokens + self.forced_tokens);
        let start = Instant::now();
        let forced = session.find_jump_forward_string();
        let (cover, _) = ctx.vocab.sorted().longest_prefix_cover(&ctx.vocab, &forced);
        for &token in cover.iter().take(budget) {
            // Forced bytes are the unique allowed continuation, so every
            // cover token is admitted; a rejection (a backend bug) stops the
            // injection and leaves the lane to ordinary sampling.
            if session.accept_token(token).is_err() {
                break;
            }
            let bytes = ctx.vocab.token_bytes(token);
            self.output.extend_from_slice(bytes);
            self.llm_state.advance(token);
            self.forced_tokens += 1;
            self.forced_chars += bytes.len();
        }
        self.forced_time += start.elapsed();
        self.sampled_tokens + self.forced_tokens >= self.max_tokens
    }
}
