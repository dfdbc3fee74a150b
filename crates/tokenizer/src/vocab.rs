//! Token vocabulary: the byte strings of every token an LLM can emit.
//!
//! The grammar engine only ever consumes the *byte string* of each token
//! (paper §3: the automaton is byte level precisely so that tokens containing
//! partial UTF-8 sequences and tokens crossing grammar-element boundaries are
//! handled uniformly), so a vocabulary here is essentially `Vec<Vec<u8>>`
//! plus bookkeeping for special tokens, and the two things derived from it
//! that every compiled grammar reads: the sorted index and the fingerprint.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::sorted::SortedVocabulary;

/// Identifier of a token in a [`Vocabulary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TokenId(pub u32);

impl TokenId {
    /// Returns the id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Role of a special token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SpecialToken {
    /// Beginning-of-sequence marker.
    Bos,
    /// End-of-sequence marker; sampling it terminates the request.
    Eos,
    /// Padding / unknown marker.
    Pad,
}

/// A token vocabulary.
///
/// It owns its [sorted index](Self::sorted) and its
/// [fingerprint](Self::fingerprint): each is computed on first use and kept,
/// so every compiler, backend, engine and simulated model holding the same
/// `Arc<Vocabulary>` reads one copy. [`add_special`](Self::add_special), the
/// one mutator, drops both.
///
/// # Examples
///
/// ```
/// use xg_tokenizer::{Vocabulary, TokenId};
///
/// let vocab = Vocabulary::from_tokens(vec![
///     b"hello".to_vec(),
///     b" world".to_vec(),
///     b"</s>".to_vec(),
/// ], Some(2));
/// assert_eq!(vocab.len(), 3);
/// assert_eq!(vocab.token_bytes(TokenId(1)), b" world");
/// assert_eq!(vocab.decode(&[TokenId(0), TokenId(1)]), b"hello world");
/// ```
#[derive(Debug, Clone)]
pub struct Vocabulary {
    tokens: Vec<Vec<u8>>,
    /// Indices of special tokens and their roles.
    specials: Vec<(u32, SpecialToken)>,
    eos: Option<u32>,
    /// The sorted index, built by the first [`sorted`](Self::sorted).
    sorted: OnceLock<Arc<SortedVocabulary>>,
    /// The fingerprint, computed by the first [`fingerprint`](Self::fingerprint).
    fingerprint: OnceLock<u64>,
}

/// Equal contents; the caches follow from them.
impl PartialEq for Vocabulary {
    fn eq(&self, other: &Self) -> bool {
        (&self.tokens, &self.specials, self.eos) == (&other.tokens, &other.specials, other.eos)
    }
}

impl Eq for Vocabulary {}

impl Vocabulary {
    /// Creates a vocabulary from raw token byte strings. `eos` is the index
    /// of the end-of-sequence token, if any (it is registered as special).
    ///
    /// # Panics
    ///
    /// Panics if `eos` is out of range.
    pub fn from_tokens(tokens: Vec<Vec<u8>>, eos: Option<usize>) -> Self {
        if let Some(e) = eos {
            assert!(e < tokens.len(), "eos index out of range");
        }
        let mut specials = Vec::new();
        if let Some(e) = eos {
            specials.push((e as u32, SpecialToken::Eos));
        }
        Vocabulary {
            tokens,
            specials,
            eos: eos.map(|e| e as u32),
            sorted: OnceLock::new(),
            fingerprint: OnceLock::new(),
        }
    }

    /// Registers an additional special token. The sorted index and the
    /// fingerprint are computed again on their next read; a clone taken
    /// before keeps its own.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn add_special(&mut self, id: TokenId, role: SpecialToken) {
        assert!(id.index() < self.tokens.len(), "special token out of range");
        if role == SpecialToken::Eos {
            self.eos = Some(id.0);
        }
        self.specials.push((id.0, role));
        self.sorted = OnceLock::new();
        self.fingerprint = OnceLock::new();
    }

    /// Number of tokens in the vocabulary.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Returns `true` if the vocabulary is empty.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Returns the byte string of a token.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    #[inline]
    pub fn token_bytes(&self, id: TokenId) -> &[u8] {
        &self.tokens[id.index()]
    }

    /// Returns the end-of-sequence token id, if the vocabulary has one.
    pub fn eos(&self) -> Option<TokenId> {
        self.eos.map(TokenId)
    }

    /// Returns `true` if the token is special (BOS/EOS/PAD); special tokens
    /// carry no grammar-visible bytes and are handled separately by the
    /// matcher (only EOS is ever allowed, and only when the grammar can
    /// terminate).
    pub fn is_special(&self, id: TokenId) -> bool {
        self.specials.iter().any(|(i, _)| *i == id.0)
    }

    /// Iterates over the registered special tokens, in registration order,
    /// without allocating.
    pub fn special_tokens(&self) -> impl Iterator<Item = TokenId> + '_ {
        self.specials.iter().map(|(i, _)| TokenId(*i))
    }

    /// Iterates over `(TokenId, bytes)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (TokenId, &[u8])> {
        self.tokens
            .iter()
            .enumerate()
            .map(|(i, t)| (TokenId(i as u32), t.as_slice()))
    }

    /// Concatenates the byte strings of a token sequence (special tokens are
    /// skipped).
    pub fn decode(&self, ids: &[TokenId]) -> Vec<u8> {
        let mut out = Vec::new();
        for &id in ids {
            if !self.is_special(id) {
                out.extend_from_slice(self.token_bytes(id));
            }
        }
        out
    }

    /// The lexicographically sorted index of the non-special tokens, built
    /// on the first call and shared by every later one (building it takes
    /// tens of milliseconds at 128k tokens; see [`SortedVocabulary`]).
    pub fn sorted(&self) -> &Arc<SortedVocabulary> {
        self.sorted
            .get_or_init(|| Arc::new(SortedVocabulary::new(self)))
    }

    /// A stable 64-bit fingerprint of the vocabulary: every token byte
    /// string, the special-token registrations and the EOS id all contribute.
    /// Two vocabularies with the same fingerprint are interchangeable for the
    /// grammar engine, which makes the fingerprint a suitable cache-key
    /// component for compiled grammars shared across serving processes.
    /// Computed on the first call (milliseconds at 128k tokens) and kept.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| {
            let mut hasher = DefaultHasher::new();
            self.tokens.len().hash(&mut hasher);
            for t in &self.tokens {
                t.hash(&mut hasher);
            }
            for (id, role) in &self.specials {
                id.hash(&mut hasher);
                (*role as u8).hash(&mut hasher);
            }
            self.eos.hash(&mut hasher);
            hasher.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vocabulary {
        let mut v = Vocabulary::from_tokens(
            vec![
                b"<s>".to_vec(),
                b"</s>".to_vec(),
                b"ab".to_vec(),
                b"a".to_vec(),
                b"b".to_vec(),
                b" the".to_vec(),
            ],
            Some(1),
        );
        v.add_special(TokenId(0), SpecialToken::Bos);
        v
    }

    #[test]
    fn basic_accessors() {
        let v = sample();
        assert_eq!(v.len(), 6);
        assert_eq!(v.eos(), Some(TokenId(1)));
        assert!(v.is_special(TokenId(0)));
        assert!(v.is_special(TokenId(1)));
        assert!(!v.is_special(TokenId(2)));
        assert_eq!(v.token_bytes(TokenId(5)), b" the");
    }

    #[test]
    fn decode_skips_special_tokens() {
        let v = sample();
        let text = v.decode(&[TokenId(0), TokenId(3), TokenId(4), TokenId(1)]);
        assert_eq!(text, b"ab");
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let a = sample();
        let b = sample();
        assert_eq!(a.fingerprint(), b.fingerprint());
        // Changing token content changes the fingerprint.
        let different = Vocabulary::from_tokens(
            vec![b"<s>".to_vec(), b"</s>".to_vec(), b"xy".to_vec()],
            Some(1),
        );
        assert_ne!(a.fingerprint(), different.fingerprint());
        // Registering an extra special token also changes it.
        let mut c = sample();
        c.add_special(TokenId(2), SpecialToken::Pad);
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    /// Token ids and special roles round-trip through serde; a vocabulary
    /// itself is not serialized (its caches are not data).
    #[test]
    fn serde_roundtrip() {
        let ids = vec![TokenId(0), TokenId(u32::MAX)];
        let json = serde_json::to_string(&ids).unwrap();
        assert_eq!(serde_json::from_str::<Vec<TokenId>>(&json).unwrap(), ids);
        let roles = vec![SpecialToken::Bos, SpecialToken::Eos, SpecialToken::Pad];
        let json = serde_json::to_string(&roles).unwrap();
        assert_eq!(
            serde_json::from_str::<Vec<SpecialToken>>(&json).unwrap(),
            roles
        );
    }

    /// A read index and fingerprint are dropped by `add_special`, and the
    /// new index leaves the new special out.
    #[test]
    fn add_special_drops_the_cached_index_and_fingerprint() {
        let mut v = sample();
        let (sorted, fingerprint) = (Arc::clone(v.sorted()), v.fingerprint());
        assert!(Arc::ptr_eq(&sorted, v.sorted()));
        assert!(sorted.ids().contains(&TokenId(2)));
        v.add_special(TokenId(2), SpecialToken::Pad);
        assert!(!Arc::ptr_eq(&sorted, v.sorted()));
        assert!(!v.sorted().ids().contains(&TokenId(2)));
        assert_eq!(v.sorted().len(), sorted.len() - 1);
        assert_ne!(v.fingerprint(), fingerprint);
    }

    /// A clone shares the caches it was taken with, and mutating the clone
    /// leaves the original's untouched.
    #[test]
    fn a_mutated_clone_leaves_the_originals_cache_untouched() {
        let v = sample();
        let (sorted, fingerprint) = (Arc::clone(v.sorted()), v.fingerprint());
        let mut c = v.clone();
        assert!(Arc::ptr_eq(c.sorted(), &sorted));
        c.add_special(TokenId(2), SpecialToken::Pad);
        assert!(!Arc::ptr_eq(c.sorted(), &sorted));
        assert_ne!(c.fingerprint(), fingerprint);
        assert!(Arc::ptr_eq(v.sorted(), &sorted));
        assert_eq!(v.fingerprint(), fingerprint);
        assert_eq!(v, sample());
        assert_ne!(v, c);
    }

    #[test]
    #[should_panic(expected = "eos index out of range")]
    fn eos_out_of_range_panics() {
        let _ = Vocabulary::from_tokens(vec![b"a".to_vec()], Some(3));
    }
}
