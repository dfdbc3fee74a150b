//! Token bitmask: one bit per vocabulary entry, set when the token is
//! allowed at the next decoding step.
//!
//! This is the object handed to the sampler (Figure 2 of the paper): invalid
//! tokens have their logits forced to `-inf` before softmax.

use xg_tokenizer::TokenId;

/// A dense bitmask over the vocabulary.
///
/// # Examples
///
/// ```
/// use xg_core::TokenBitmask;
/// use xg_tokenizer::TokenId;
///
/// let mut mask = TokenBitmask::new_all_rejected(100);
/// mask.allow(TokenId(3));
/// assert!(mask.is_allowed(TokenId(3)));
/// assert!(!mask.is_allowed(TokenId(4)));
/// assert_eq!(mask.count_allowed(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenBitmask {
    words: Vec<u64>,
    vocab_size: usize,
}

impl TokenBitmask {
    /// Creates a mask with every token rejected.
    pub fn new_all_rejected(vocab_size: usize) -> Self {
        TokenBitmask {
            words: vec![0; vocab_size.div_ceil(64)],
            vocab_size,
        }
    }

    /// Vocabulary size this mask covers.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Allows every token.
    pub fn allow_all(&mut self) {
        for w in &mut self.words {
            *w = u64::MAX;
        }
        self.clear_padding();
    }

    /// Rejects every token.
    pub fn reject_all(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    fn clear_padding(&mut self) {
        let extra = self.words.len() * 64 - self.vocab_size;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }

    /// Allows a single token.
    ///
    /// # Panics
    ///
    /// Panics if the token id is out of range.
    #[inline]
    pub fn allow(&mut self, token: TokenId) {
        assert!(token.index() < self.vocab_size, "token id out of range");
        self.words[token.index() / 64] |= 1u64 << (token.index() % 64);
    }

    /// Rejects a single token.
    ///
    /// # Panics
    ///
    /// Panics if the token id is out of range.
    #[inline]
    pub fn reject(&mut self, token: TokenId) {
        assert!(token.index() < self.vocab_size, "token id out of range");
        self.words[token.index() / 64] &= !(1u64 << (token.index() % 64));
    }

    /// Returns `true` if the token is allowed.
    #[inline]
    pub fn is_allowed(&self, token: TokenId) -> bool {
        if token.index() >= self.vocab_size {
            return false;
        }
        self.words[token.index() / 64] & (1u64 << (token.index() % 64)) != 0
    }

    /// Number of allowed tokens.
    pub fn count_allowed(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Iterates over the allowed token ids in increasing order, walking each
    /// word's set bits in place (no allocation).
    pub fn allowed_tokens(&self) -> impl Iterator<Item = TokenId> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(TokenId((wi * 64 + bit) as u32))
            })
        })
    }

    /// In-place union with another mask.
    ///
    /// # Panics
    ///
    /// Panics if the vocabulary sizes differ.
    pub fn union_with(&mut self, other: &TokenBitmask) {
        assert_eq!(self.vocab_size, other.vocab_size, "mask size mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Raw 64-bit words of the mask (for the engine's masked sampling).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Heap memory used by the mask in bytes.
    pub fn memory_bytes(&self) -> usize {
        self.words.len() * 8
    }

    // -- Bulk word-level kernels -------------------------------------------
    //
    // The per-token `allow`/`reject` calls cost a bounds check, a shift and a
    // read-modify-write each; at 128k–256k vocabularies the mask fill is the
    // per-token serving hot path (Figure 9), so the operations below work on
    // whole `u64` words with straight-line inner loops the compiler can
    // vectorize. All of them preserve the padding invariant (bits past
    // `vocab_size` in the last word stay clear).

    /// Overwrites this mask with the contents of `other` (word-level copy).
    ///
    /// # Panics
    ///
    /// Panics if the vocabulary sizes differ.
    pub fn copy_from(&mut self, other: &TokenBitmask) {
        assert_eq!(self.vocab_size, other.vocab_size, "mask size mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Allows every token in `tokens` (any order, duplicates fine) in one
    /// pass.
    ///
    /// # Panics
    ///
    /// Panics if any token id is out of range.
    pub fn allow_many(&mut self, tokens: &[TokenId]) {
        let n = self.vocab_size;
        for &t in tokens {
            let i = t.index();
            assert!(i < n, "token id out of range");
            self.words[i >> 6] |= 1u64 << (i & 63);
        }
    }

    /// Rejects every token in `tokens` (any order, duplicates fine) in one
    /// pass.
    ///
    /// # Panics
    ///
    /// Panics if any token id is out of range.
    pub fn reject_many(&mut self, tokens: &[TokenId]) {
        let n = self.vocab_size;
        for &t in tokens {
            let i = t.index();
            assert!(i < n, "token id out of range");
            self.words[i >> 6] &= !(1u64 << (i & 63));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_allowed(vocab_size: usize) -> TokenBitmask {
        let mut mask = TokenBitmask::new_all_rejected(vocab_size);
        mask.allow_all();
        mask
    }

    #[test]
    fn allow_reject_roundtrip() {
        let mut m = TokenBitmask::new_all_rejected(130);
        assert_eq!(m.count_allowed(), 0);
        m.allow(TokenId(0));
        m.allow(TokenId(64));
        m.allow(TokenId(129));
        assert_eq!(m.count_allowed(), 3);
        assert!(m.is_allowed(TokenId(129)));
        m.reject(TokenId(64));
        assert_eq!(m.count_allowed(), 2);
        assert!(!m.is_allowed(TokenId(64)));
    }

    #[test]
    fn all_allowed_respects_vocab_size() {
        let m = all_allowed(70);
        assert_eq!(m.count_allowed(), 70);
        assert!(!m.is_allowed(TokenId(70)));
        assert!(!m.is_allowed(TokenId(1000)));
    }

    #[test]
    fn allowed_tokens_iterates_in_order() {
        let mut m = TokenBitmask::new_all_rejected(200);
        for id in [5u32, 63, 64, 65, 199] {
            m.allow(TokenId(id));
        }
        let ids: Vec<u32> = m.allowed_tokens().map(|t| t.0).collect();
        assert_eq!(ids, vec![5, 63, 64, 65, 199]);
    }

    /// The same ids in the same order as a per-id `is_allowed` scan, for
    /// empty, full, random and last-partial-word masks.
    #[test]
    fn allowed_tokens_matches_a_per_id_scan() {
        let scan = |m: &TokenBitmask| -> Vec<TokenId> {
            (0..m.vocab_size() as u32)
                .map(TokenId)
                .filter(|&t| m.is_allowed(t))
                .collect()
        };
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut masks = Vec::new();
        for size in [0, 1, 63, 64, 65, 130, 1000] {
            masks.push(TokenBitmask::new_all_rejected(size));
            masks.push(all_allowed(size));
            let mut random = TokenBitmask::new_all_rejected(size);
            for id in 0..size as u32 {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                if state.is_multiple_of(3) {
                    random.allow(TokenId(id));
                }
            }
            masks.push(random);
            if size > 0 {
                // Only the last, partial word's top token.
                let mut last = TokenBitmask::new_all_rejected(size);
                last.allow(TokenId(size as u32 - 1));
                masks.push(last);
            }
        }
        for m in &masks {
            let listed: Vec<TokenId> = m.allowed_tokens().collect();
            assert_eq!(listed, scan(m), "size {}", m.vocab_size());
        }
    }

    #[test]
    fn union_and_intersection() {
        let mut a = TokenBitmask::new_all_rejected(100);
        let mut b = TokenBitmask::new_all_rejected(100);
        a.allow(TokenId(1));
        a.allow(TokenId(2));
        b.allow(TokenId(2));
        b.allow(TokenId(3));
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.count_allowed(), 3);
        // Inclusion–exclusion over the one token both allow.
        let both: Vec<TokenId> = a.allowed_tokens().filter(|&t| b.is_allowed(t)).collect();
        assert_eq!(both, [TokenId(2)]);
        assert_eq!(
            u.count_allowed(),
            a.count_allowed() + b.count_allowed() - both.len()
        );
    }

    #[test]
    #[should_panic(expected = "mask size mismatch")]
    fn union_size_mismatch_panics() {
        let mut a = TokenBitmask::new_all_rejected(10);
        let b = TokenBitmask::new_all_rejected(20);
        a.union_with(&b);
    }

    #[test]
    fn memory_is_proportional_to_vocab() {
        let m = TokenBitmask::new_all_rejected(128_000);
        assert_eq!(m.memory_bytes(), 128_000usize.div_ceil(64) * 8);
    }

    #[test]
    fn all_rejected_construction_is_empty() {
        for size in [0, 1, 63, 64, 65, 128, 1000] {
            let m = TokenBitmask::new_all_rejected(size);
            assert_eq!(m.vocab_size(), size);
            assert_eq!(m.count_allowed(), 0);
            assert_eq!(m.allowed_tokens().count(), 0);
            assert!(!m.is_allowed(TokenId(0)));
        }
    }

    #[test]
    fn all_allowed_construction_is_full_at_word_boundaries() {
        // Sizes straddling the u64-word boundary exercise the padding mask.
        for size in [1, 63, 64, 65, 127, 128, 129] {
            let m = all_allowed(size);
            assert_eq!(m.count_allowed(), size, "size {size}");
            let ids: Vec<u32> = m.allowed_tokens().map(|t| t.0).collect();
            assert_eq!(ids, (0..size as u32).collect::<Vec<_>>(), "size {size}");
            // Padding bits past the vocabulary must stay clear.
            assert!(!m.is_allowed(TokenId(size as u32)));
        }
    }

    #[test]
    fn allow_all_and_reject_all_transition_cleanly() {
        let mut m = TokenBitmask::new_all_rejected(100);
        m.allow_all();
        assert_eq!(m.count_allowed(), 100);
        assert_eq!(m.allowed_tokens().count(), 100);
        m.reject_all();
        assert_eq!(m.count_allowed(), 0);
        assert_eq!(m.allowed_tokens().count(), 0);
        // After reject_all, selective allows work again.
        m.allow(TokenId(99));
        assert_eq!(m.count_allowed(), 1);
        assert_eq!(m.allowed_tokens().map(|t| t.0).collect::<Vec<_>>(), [99]);
    }

    #[test]
    fn count_allowed_matches_iteration_under_mixed_updates() {
        let mut m = TokenBitmask::new_all_rejected(300);
        for id in (0..300).step_by(7) {
            m.allow(TokenId(id));
        }
        for id in (0..300).step_by(21) {
            m.reject(TokenId(id));
        }
        let via_iter = m.allowed_tokens().count();
        assert_eq!(m.count_allowed(), via_iter);
        for token in m.allowed_tokens() {
            assert!(m.is_allowed(token));
        }
    }

    #[test]
    fn empty_vocabulary_masks_are_consistent() {
        let rejected = TokenBitmask::new_all_rejected(0);
        let allowed = all_allowed(0);
        assert_eq!(rejected.count_allowed(), 0);
        assert_eq!(allowed.count_allowed(), 0);
        assert_eq!(allowed.allowed_tokens().count(), 0);
    }

    #[test]
    #[should_panic(expected = "token id out of range")]
    fn allow_out_of_range_panics() {
        let mut m = TokenBitmask::new_all_rejected(64);
        m.allow(TokenId(64));
    }

    #[test]
    fn many_ops_match_per_token_loops() {
        let ids: Vec<TokenId> = [170u32, 3, 64, 3, 65, 169, 0]
            .iter()
            .map(|&i| TokenId(i))
            .collect();
        let mut bulk = TokenBitmask::new_all_rejected(171);
        bulk.allow_many(&ids);
        let mut serial = TokenBitmask::new_all_rejected(171);
        for &t in &ids {
            serial.allow(t);
        }
        assert_eq!(bulk, serial);
        let mut bulk = all_allowed(171);
        bulk.reject_many(&ids);
        let mut serial = all_allowed(171);
        for &t in &ids {
            serial.reject(t);
        }
        assert_eq!(bulk, serial);
    }

    #[test]
    fn copy_from_replaces_contents() {
        let mut a = all_allowed(130);
        let mut b = TokenBitmask::new_all_rejected(130);
        b.allow(TokenId(129));
        a.copy_from(&b);
        assert_eq!(a, b);
        assert_eq!(a.count_allowed(), 1);
    }
}
