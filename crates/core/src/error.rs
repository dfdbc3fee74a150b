//! Error types of the core engine.

use std::error::Error as StdError;
use std::fmt;

use xg_tokenizer::TokenId;

/// Errors returned by [`ConstraintMatcher::accept_token`] / `accept_bytes`.
///
/// [`ConstraintMatcher::accept_token`]: crate::ConstraintMatcher::accept_token
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AcceptError {
    /// The token's byte string cannot be matched by the grammar at the
    /// current position. The matcher state is unchanged.
    TokenRejected {
        /// The offending token.
        token: TokenId,
        /// Number of bytes of the token that were matched before failing.
        matched_bytes: usize,
    },
    /// A raw byte string (jump-forward text or a forced segment) cannot be
    /// matched by the grammar at the current position. The matcher state is
    /// unchanged.
    BytesRejected {
        /// Number of bytes that were matched before failing.
        matched_bytes: usize,
    },
    /// The token id is outside the vocabulary.
    UnknownToken {
        /// The offending token.
        token: TokenId,
    },
    /// The end-of-sequence token was offered but the grammar cannot
    /// terminate at the current position.
    CannotTerminate,
    /// A token was offered after the matcher already accepted end-of-sequence.
    AlreadyTerminated,
    /// A non-EOS special token (BOS/PAD) was offered; special tokens carry no
    /// grammar-visible bytes and are never valid mid-generation.
    SpecialTokenRejected {
        /// The offending token.
        token: TokenId,
    },
}

impl fmt::Display for AcceptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AcceptError::TokenRejected {
                token,
                matched_bytes,
            } => write!(
                f,
                "token {} violates the grammar (failed after {matched_bytes} bytes)",
                token.0
            ),
            AcceptError::BytesRejected { matched_bytes } => write!(
                f,
                "byte string violates the grammar (failed after {matched_bytes} bytes)"
            ),
            AcceptError::UnknownToken { token } => {
                write!(f, "token {} is outside the vocabulary", token.0)
            }
            AcceptError::CannotTerminate => {
                write!(
                    f,
                    "end-of-sequence is not allowed before the structure is complete"
                )
            }
            AcceptError::AlreadyTerminated => {
                write!(f, "the matcher already accepted end-of-sequence")
            }
            AcceptError::SpecialTokenRejected { token } => {
                write!(
                    f,
                    "special token {} is not allowed during generation",
                    token.0
                )
            }
        }
    }
}

impl StdError for AcceptError {}

/// Errors returned by [`ConstraintMatcher::rollback`].
///
/// [`ConstraintMatcher::rollback`]: crate::ConstraintMatcher::rollback
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollbackError {
    /// Number of tokens that were requested to be rolled back.
    pub requested: usize,
    /// Number of tokens available in the rollback window.
    pub available: usize,
}

impl fmt::Display for RollbackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cannot roll back {} tokens, only {} are in the rollback window",
            self.requested, self.available
        )
    }
}

impl StdError for RollbackError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync_and_display() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<AcceptError>();
        assert_send_sync::<RollbackError>();
        let e = AcceptError::TokenRejected {
            token: TokenId(42),
            matched_bytes: 3,
        };
        assert!(e.to_string().contains("42"));
        let r = RollbackError {
            requested: 5,
            available: 2,
        };
        assert!(r.to_string().contains('5'));
        assert!(r.to_string().contains('2'));
    }
}
