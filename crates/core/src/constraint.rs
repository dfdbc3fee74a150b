//! The [`ConstraintMatcher`] trait: one runtime interface for every kind of
//! constrained-decoding lane.
//!
//! The engine's hot path treats every constrained lane the same way — fill a
//! token mask, accept the sampled token, occasionally jump forward over
//! forced text or roll back recent tokens. The fully-constrained
//! [`GrammarMatcher`](crate::GrammarMatcher) and the structural-tag
//! [`StructuralTagMatcher`](crate::StructuralTagMatcher) implement those
//! operations here and nowhere else (they have no inherent copies: bring the
//! trait into scope to call them on a concrete matcher) — as do the baseline
//! engines' sessions in `xg-baselines`, which need only the token-level core
//! because raw bytes, rollback and jump-forward default to "unsupported".
//! Serving engines drive trait objects, and a new lane type (a regex lane, a
//! composite constraint, a semantic filter) plugs in by implementing the
//! trait — no new enum variant in any consumer.
//!
//! The companion [`CompiledConstraint`] trait is the compiled-artifact side:
//! a compiled grammar, a compiled tag dispatch or a baseline's compiled form
//! mints each lane's matcher, so a serving backend opens a lane of any kind
//! the same way.

use std::fmt;
use std::sync::Arc;

use xg_tokenizer::{TokenId, Vocabulary};

use crate::error::{AcceptError, RollbackError};
use crate::mask::TokenBitmask;

/// The incremental matcher of one constrained-decoding lane.
///
/// Implementations must keep three invariants the serving engine relies on:
///
/// 1. **Masks tell the truth**: a token allowed by
///    [`fill_next_token_bitmask`](Self::fill_next_token_bitmask) must be
///    accepted by the following [`accept_token`](Self::accept_token) call.
/// 2. **Failed accepts are atomic**: an `Err` from
///    [`accept_token`](Self::accept_token) /
///    [`accept_bytes`](Self::accept_bytes) leaves the state unchanged.
/// 3. **Rollback units**: every successful `accept_token` or `accept_bytes`
///    call is one unit of [`rollback`](Self::rollback).
///
/// # Examples
///
/// A custom constraint plugs into the engine by implementing this trait —
/// here, a budget lane that allows free generation for `budget` tokens and
/// then forces end-of-sequence:
///
/// ```
/// use std::sync::Arc;
/// use xg_core::{AcceptError, ConstraintMatcher, RollbackError, TokenBitmask};
/// use xg_tokenizer::{test_vocabulary, TokenId, Vocabulary};
///
/// #[derive(Debug)]
/// struct TokenBudget {
///     vocab: Arc<Vocabulary>,
///     spent: usize,
///     budget: usize,
///     terminated: bool,
/// }
///
/// impl ConstraintMatcher for TokenBudget {
///     fn vocabulary(&self) -> &Arc<Vocabulary> {
///         &self.vocab
///     }
///
///     fn fill_next_token_bitmask(&mut self, mask: &mut TokenBitmask) {
///         if self.terminated {
///             mask.reject_all();
///         } else if self.spent < self.budget {
///             mask.allow_all();
///         } else {
///             mask.reject_all();
///             if let Some(eos) = self.vocab.eos() {
///                 mask.allow(eos);
///             }
///         }
///     }
///
///     fn accept_token(&mut self, token: TokenId) -> Result<(), AcceptError> {
///         if self.terminated {
///             return Err(AcceptError::AlreadyTerminated);
///         }
///         if Some(token) == self.vocab.eos() {
///             self.terminated = true;
///         } else if self.spent < self.budget {
///             self.spent += 1;
///         } else {
///             return Err(AcceptError::TokenRejected { token, matched_bytes: 0 });
///         }
///         Ok(())
///     }
///
///     fn accept_bytes(&mut self, _bytes: &[u8]) -> Result<(), AcceptError> {
///         self.spent += 1; // one rollback unit, whatever its byte length
///         Ok(())
///     }
///
///     fn rollback(&mut self, num_tokens: usize) -> Result<(), RollbackError> {
///         if num_tokens > self.spent {
///             return Err(RollbackError { requested: num_tokens, available: self.spent });
///         }
///         self.spent -= num_tokens;
///         self.terminated = false;
///         Ok(())
///     }
///
///     fn rollback_window(&self) -> usize {
///         self.spent
///     }
///
///     fn can_terminate(&mut self) -> bool {
///         !self.terminated
///     }
///
///     fn is_terminated(&self) -> bool {
///         self.terminated
///     }
///
///     fn reset(&mut self) {
///         self.spent = 0;
///         self.terminated = false;
///     }
/// }
///
/// let vocab = Arc::new(test_vocabulary(600));
/// let mut lane: Box<dyn ConstraintMatcher> = Box::new(TokenBudget {
///     vocab: Arc::clone(&vocab),
///     spent: 0,
///     budget: 2,
///     terminated: false,
/// });
/// let mut mask = TokenBitmask::new_all_rejected(vocab.len());
/// lane.fill_next_token_bitmask(&mut mask);
/// assert!(mask.count_allowed() > 1);
/// lane.accept_bytes(b"hi").unwrap();
/// lane.accept_bytes(b"there").unwrap();
/// lane.fill_next_token_bitmask(&mut mask);
/// assert_eq!(mask.count_allowed(), 1); // only EOS once the budget is spent
/// ```
pub trait ConstraintMatcher: Send + fmt::Debug {
    /// The vocabulary this matcher produces masks for.
    fn vocabulary(&self) -> &Arc<Vocabulary>;

    /// Fills `mask` with the set of tokens allowed at the next decoding step.
    fn fill_next_token_bitmask(&mut self, mask: &mut TokenBitmask);

    /// Accepts a sampled token, advancing the matcher state.
    ///
    /// # Errors
    ///
    /// Returns an [`AcceptError`] (leaving the state unchanged) when the
    /// token violates the constraint.
    fn accept_token(&mut self, token: TokenId) -> Result<(), AcceptError>;

    /// Accepts a raw byte string as a single rollback unit (jump-forward
    /// text, forced segments).
    ///
    /// # Errors
    ///
    /// Returns an [`AcceptError`] (leaving the state unchanged) when the
    /// bytes violate the constraint — always, by default: implementations
    /// that only advance token by token (the baseline engines) do not
    /// support raw bytes.
    fn accept_bytes(&mut self, bytes: &[u8]) -> Result<(), AcceptError> {
        let _ = bytes;
        Err(AcceptError::BytesRejected { matched_bytes: 0 })
    }

    /// Rolls back the last `num_tokens` accepted units.
    ///
    /// # Errors
    ///
    /// Returns a [`RollbackError`] if more units are requested than the
    /// rollback window holds; the state is unchanged. The default keeps no
    /// history and refuses every rollback.
    fn rollback(&mut self, num_tokens: usize) -> Result<(), RollbackError> {
        Err(RollbackError {
            requested: num_tokens,
            available: 0,
        })
    }

    /// Number of accepted units that can currently be rolled back (`0` by
    /// default, matching the default [`rollback`](Self::rollback)).
    fn rollback_window(&self) -> usize {
        0
    }

    /// The longest byte string *forced* by the constraint from the current
    /// position (always a complete UTF-8 prefix), without modifying state.
    /// Implementations with no forced-text notion return an empty vector
    /// (the default).
    ///
    /// Engine-level jump-forward decoding injects the longest-prefix token
    /// cover of these bytes
    /// ([`SortedVocabulary::longest_prefix_cover`](xg_tokenizer::SortedVocabulary::longest_prefix_cover))
    /// without sampling; because the bytes are forced, every token of the
    /// cover is admitted by the matcher's own mask.
    fn find_jump_forward_string(&mut self) -> Vec<u8> {
        Vec::new()
    }

    /// Returns `true` if end-of-sequence would be accepted now.
    fn can_terminate(&mut self) -> bool;

    /// Returns `true` if end-of-sequence has been accepted.
    fn is_terminated(&self) -> bool;

    /// Resets the matcher to the start of its constraint, clearing history
    /// and statistics. A reset matcher must be indistinguishable from a
    /// freshly constructed one (a recycled lane relies on this).
    fn reset(&mut self);
}

/// A compiled constraint shared between requests, which mints each lane's
/// matcher: implemented by [`CompiledGrammar`](crate::CompiledGrammar) and
/// [`CompiledTagDispatch`](crate::CompiledTagDispatch) here, and by the
/// baseline engines' compiled forms in `xg-baselines`.
///
/// [`ArtifactCache`](crate::ArtifactCache) is generic over it, so one cache
/// type holds either artifact, and a serving backend hands the cached
/// artifact itself to the engine.
pub trait CompiledConstraint: Send + Sync + fmt::Debug {
    /// Creates a matcher positioned at the start of the constraint with the
    /// default rollback window
    /// ([`DEFAULT_MAX_ROLLBACK_TOKENS`](crate::DEFAULT_MAX_ROLLBACK_TOKENS)).
    fn new_session(self: Arc<Self>) -> Box<dyn ConstraintMatcher>;

    /// Estimated heap memory pinned by this compiled artifact — what an
    /// [`ArtifactCache`](crate::ArtifactCache) charges against its byte
    /// budget for the entry.
    fn memory_bytes(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::GrammarCompiler;
    use xg_tokenizer::test_vocabulary;

    #[test]
    fn both_matcher_kinds_drive_through_the_trait() {
        use xg_grammar::{StructuralTag, TagContent, TagSpec};

        let vocab = Arc::new(test_vocabulary(800));
        let compiler = GrammarCompiler::new(Arc::clone(&vocab));
        let grammar = compiler
            .compile_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root")
            .unwrap();
        let tag = StructuralTag::new(vec![TagSpec {
            begin: "<n>".into(),
            content: TagContent::Ebnf {
                text: "root ::= [0-9]+".into(),
                root: "root".into(),
            },
            end: "</n>".into(),
        }]);
        let dispatch = compiler.compile_tag_dispatch(&tag).unwrap();

        // One code path serves both constraint kinds.
        let mut lanes: Vec<(Box<dyn ConstraintMatcher>, &[u8])> = vec![
            (grammar.new_session(), b"[42]"),
            (dispatch.new_session(), b"see <n>42</n> ok"),
        ];
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        for (lane, text) in &mut lanes {
            assert_eq!(lane.vocabulary().len(), vocab.len());
            lane.fill_next_token_bitmask(&mut mask);
            assert!(mask.count_allowed() > 0);
            let fresh = mask.clone();
            lane.accept_bytes(text).unwrap();
            assert!(lane.can_terminate());
            assert_eq!(lane.rollback_window(), 1);
            lane.rollback(1).unwrap();
            lane.reset();
            assert_eq!(lane.rollback_window(), 0);
            assert!(!lane.is_terminated());
            lane.fill_next_token_bitmask(&mut mask);
            assert_eq!(mask, fresh, "a reset lane masks like a fresh one");
        }
    }
}
