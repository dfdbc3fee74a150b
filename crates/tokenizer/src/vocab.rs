//! Token vocabulary: the byte strings of every token an LLM can emit.
//!
//! The grammar engine only ever consumes the *byte string* of each token
//! (paper §3: the automaton is byte level precisely so that tokens containing
//! partial UTF-8 sequences and tokens crossing grammar-element boundaries are
//! handled uniformly), so a vocabulary here is essentially `Vec<Vec<u8>>`
//! plus bookkeeping for special tokens.

use serde::{Deserialize, Serialize};

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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Vocabulary {
    tokens: Vec<Vec<u8>>,
    /// Indices of special tokens and their roles.
    specials: Vec<(u32, SpecialToken)>,
    eos: Option<u32>,
}

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
        }
    }

    /// Registers an additional special token.
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

    /// Decodes into a string, replacing invalid UTF-8 with the replacement
    /// character.
    pub fn decode_lossy(&self, ids: &[TokenId]) -> String {
        String::from_utf8_lossy(&self.decode(ids)).into_owned()
    }

    /// A stable 64-bit fingerprint of the vocabulary: every token byte
    /// string, the special-token registrations and the EOS id all contribute.
    /// Two vocabularies with the same fingerprint are interchangeable for the
    /// grammar engine, which makes the fingerprint a suitable cache-key
    /// component for compiled grammars shared across serving processes.
    pub fn fingerprint(&self) -> u64 {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
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
        assert_eq!(v.decode_lossy(&[TokenId(2)]), "ab");
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

    #[test]
    fn serde_roundtrip() {
        let v = sample();
        let json = serde_json::to_string(&v).unwrap();
        let back: Vocabulary = serde_json::from_str(&json).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    #[should_panic(expected = "eos index out of range")]
    fn eos_out_of_range_panics() {
        let _ = Vocabulary::from_tokens(vec![b"a".to_vec()], Some(3));
    }
}
