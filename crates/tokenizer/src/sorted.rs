//! Lexicographically sorted view of a vocabulary with shared-prefix
//! information.
//!
//! The persistent execution stack (paper §3.3) checks tokens in
//! lexicographic order and rolls the automaton state back to the end of the
//! common prefix with the previously checked token, so the characters of
//! shared prefixes are only ever matched once. This module precomputes that
//! ordering and the prefix lengths, and exposes the "fraction of characters
//! that still need checking" statistic the paper reports (≈30 % for the
//! Llama-3.1 vocabulary).

use crate::vocab::{TokenId, Vocabulary};

/// A sorted token index with longest-common-prefix information.
#[derive(Debug, Clone)]
pub struct SortedVocabulary {
    /// Token ids in lexicographic byte order (special tokens excluded).
    ids: Vec<TokenId>,
    /// `lcp[i]` = length of the longest common prefix between token `ids[i]`
    /// and token `ids[i - 1]` (0 for the first token).
    lcp: Vec<usize>,
    /// Total bytes across the sorted tokens.
    total_bytes: usize,
    /// Length of the longest indexed token, bounding prefix lookups.
    max_token_len: usize,
}

fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

impl SortedVocabulary {
    /// Builds the sorted index for a vocabulary.
    ///
    /// # Examples
    ///
    /// ```
    /// use xg_tokenizer::{SortedVocabulary, Vocabulary};
    ///
    /// let vocab = Vocabulary::from_tokens(
    ///     vec![b"read".to_vec(), b"reader".to_vec(), b"ready".to_vec()], None);
    /// let sorted = SortedVocabulary::new(&vocab);
    /// // "reader" and "ready" share the prefix "read"/"reade" with their
    /// // predecessors, so most characters are skipped.
    /// assert!(sorted.chars_to_check() < sorted.total_bytes());
    /// ```
    pub fn new(vocab: &Vocabulary) -> Self {
        let ids = vocab.sorted_token_ids();
        let mut lcp = Vec::with_capacity(ids.len());
        let mut total_bytes = 0;
        let mut max_token_len = 0;
        for (i, id) in ids.iter().enumerate() {
            let bytes = vocab.token_bytes(*id);
            total_bytes += bytes.len();
            max_token_len = max_token_len.max(bytes.len());
            if i == 0 {
                lcp.push(0);
            } else {
                lcp.push(common_prefix_len(bytes, vocab.token_bytes(ids[i - 1])));
            }
        }
        SortedVocabulary {
            ids,
            lcp,
            total_bytes,
            max_token_len,
        }
    }

    /// Sorted token ids.
    pub fn ids(&self) -> &[TokenId] {
        &self.ids
    }

    /// Longest-common-prefix lengths (`lcp()[i]` refers to `ids()[i]` and its
    /// predecessor).
    pub fn lcp(&self) -> &[usize] {
        &self.lcp
    }

    /// Number of tokens in the sorted index.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the index is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Total number of bytes across all indexed tokens.
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Number of bytes that actually need to be matched when tokens are
    /// checked in sorted order with prefix-sharing rollback: for each token,
    /// only the bytes after the common prefix with its predecessor.
    pub fn chars_to_check(&self) -> usize {
        self.total_bytes - self.lcp.iter().sum::<usize>()
    }

    /// Fraction of characters that still need checking
    /// (`chars_to_check / total_bytes`), the statistic reported in §3.3.
    pub fn check_fraction(&self) -> f64 {
        if self.total_bytes == 0 {
            return 0.0;
        }
        self.chars_to_check() as f64 / self.total_bytes as f64
    }

    /// Length of the longest indexed token.
    pub fn max_token_len(&self) -> usize {
        self.max_token_len
    }

    /// The longest non-special token whose byte string is a prefix of
    /// `bytes` (the lowest id among tokens with equal bytes), or `None` when
    /// no token matches even the first byte.
    ///
    /// Used by jump-forward decoding to re-tokenize grammar-forced text
    /// against the real vocabulary, and by the simulated model's greedy
    /// proposal. One descent: `[lo, hi)` holds the tokens that share
    /// `bytes[..k]` and is narrowed on byte `k`. A token's missing byte `k`
    /// orders before every present one, so the token that *equals*
    /// `bytes[..=k]` — the lowest id first, the sort being stable — sits at
    /// the new `lo`. `O(|match| · log |vocab|)` on shrinking ranges.
    ///
    /// `vocab` must be the vocabulary this index was built from.
    pub fn longest_prefix_token(&self, vocab: &Vocabulary, bytes: &[u8]) -> Option<TokenId> {
        let (mut lo, mut hi) = (0, self.ids.len());
        let mut best = None;
        for (k, &byte) in bytes.iter().enumerate().take(self.max_token_len) {
            let range = &self.ids[lo..hi];
            let at = |id: &TokenId| vocab.token_bytes(*id).get(k).copied();
            let start = range.partition_point(|id| at(id) < Some(byte));
            let len = range[start..].partition_point(|id| at(id) == Some(byte));
            if len == 0 {
                break;
            }
            lo += start;
            hi = lo + len;
            if vocab.token_bytes(self.ids[lo]).len() == k + 1 {
                best = Some(self.ids[lo]);
            }
        }
        best
    }

    /// Greedy longest-prefix token cover of `bytes`: repeatedly take the
    /// longest token matching the remaining bytes (falling back to the
    /// single-byte tokens of a byte-fallback vocabulary). Returns the cover
    /// and the number of bytes it tiles; covering stops early at the first
    /// position where no token (not even a one-byte one) matches, so the
    /// returned tokens always concatenate to exactly `bytes[..covered]`.
    ///
    /// # Examples
    ///
    /// ```
    /// use xg_tokenizer::{SortedVocabulary, Vocabulary};
    ///
    /// let vocab = Vocabulary::from_tokens(
    ///     vec![b"a".to_vec(), b"b".to_vec(), b"ab".to_vec()], None);
    /// let sorted = SortedVocabulary::new(&vocab);
    /// let (tokens, covered) = sorted.longest_prefix_cover(&vocab, b"abba");
    /// assert_eq!(covered, 4);
    /// let bytes: Vec<u8> = tokens
    ///     .iter()
    ///     .flat_map(|t| vocab.token_bytes(*t).to_vec())
    ///     .collect();
    /// assert_eq!(bytes, b"abba");
    /// ```
    pub fn longest_prefix_cover(&self, vocab: &Vocabulary, bytes: &[u8]) -> (Vec<TokenId>, usize) {
        let mut tokens = Vec::new();
        let mut covered = 0;
        while covered < bytes.len() {
            let Some(token) = self.longest_prefix_token(vocab, &bytes[covered..]) else {
                break;
            };
            covered += vocab.token_bytes(token).len();
            tokens.push(token);
        }
        (tokens, covered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lcp_matches_manual_computation() {
        let vocab = Vocabulary::from_tokens(
            vec![
                b"read".to_vec(),
                b"ready".to_vec(),
                b"reader".to_vec(),
                b"zebra".to_vec(),
                b"apple".to_vec(),
            ],
            None,
        );
        let sorted = SortedVocabulary::new(&vocab);
        // Sorted order: apple, read, reader, ready, zebra.
        // LCP(reader, read) = 4, LCP(ready, reader) = 4.
        assert_eq!(sorted.lcp(), &[0, 0, 4, 4, 0]);
        assert_eq!(sorted.total_bytes(), 4 + 5 + 6 + 5 + 5);
        assert_eq!(sorted.chars_to_check(), sorted.total_bytes() - 8);
    }

    #[test]
    fn check_fraction_is_below_one_for_prefix_heavy_vocab() {
        let tokens: Vec<Vec<u8>> = (0..100)
            .map(|i| format!("common_prefix_{i:03}").into_bytes())
            .collect();
        let vocab = Vocabulary::from_tokens(tokens, None);
        let sorted = SortedVocabulary::new(&vocab);
        assert!(sorted.check_fraction() < 0.5);
        assert!(sorted.check_fraction() > 0.0);
    }

    #[test]
    fn empty_vocabulary_is_handled() {
        let vocab = Vocabulary::from_tokens(vec![], None);
        let sorted = SortedVocabulary::new(&vocab);
        assert!(sorted.is_empty());
        assert_eq!(sorted.check_fraction(), 0.0);
        assert_eq!(sorted.max_token_len(), 0);
        assert_eq!(sorted.longest_prefix_token(&vocab, b"abc"), None);
    }

    #[test]
    fn longest_prefix_token_prefers_the_longest_match() {
        let vocab = Vocabulary::from_tokens(
            vec![
                b"</s>".to_vec(),
                b"r".to_vec(),
                b"re".to_vec(),
                b"read".to_vec(),
                b"reader".to_vec(),
                b"x".to_vec(),
            ],
            Some(0),
        );
        let sorted = SortedVocabulary::new(&vocab);
        let longest = |bytes: &[u8]| {
            sorted
                .longest_prefix_token(&vocab, bytes)
                .map(|t| vocab.token_bytes(t).to_vec())
        };
        assert_eq!(longest(b"readers"), Some(b"reader".to_vec()));
        assert_eq!(longest(b"reads"), Some(b"read".to_vec()));
        assert_eq!(longest(b"rex"), Some(b"re".to_vec()));
        assert_eq!(longest(b"rx"), Some(b"r".to_vec()));
        assert_eq!(longest(b"zzz"), None);
        // Special tokens never participate, even when their bytes match.
        assert_eq!(longest(b"</s>"), None);
    }

    #[test]
    fn prefix_cover_tiles_exactly_and_stops_at_gaps() {
        let vocab =
            Vocabulary::from_tokens(vec![b"ab".to_vec(), b"a".to_vec(), b"abc".to_vec()], None);
        let sorted = SortedVocabulary::new(&vocab);
        let (tokens, covered) = sorted.longest_prefix_cover(&vocab, b"abcaba");
        assert_eq!(covered, 6);
        let tiled: Vec<u8> = tokens
            .iter()
            .flat_map(|t| vocab.token_bytes(*t).to_vec())
            .collect();
        assert_eq!(tiled, b"abcaba");
        // `z` has no token: the cover stops at the gap.
        let (tokens, covered) = sorted.longest_prefix_cover(&vocab, b"abzab");
        assert_eq!(covered, 2);
        assert_eq!(tokens.len(), 1);
    }

    #[test]
    fn prefix_cover_matches_brute_force_on_a_synthetic_vocabulary() {
        let vocab = crate::test_vocabulary(800);
        let sorted = SortedVocabulary::new(&vocab);
        for bytes in [
            &br#"{"name": "alice", "age": 30}"#[..],
            b"the quick brown fox",
            "unicode: héllo 🎉 done".as_bytes(),
        ] {
            let (tokens, covered) = sorted.longest_prefix_cover(&vocab, bytes);
            assert_eq!(covered, bytes.len(), "byte fallback makes covers total");
            let mut cursor = 0;
            for token in tokens {
                let got = vocab.token_bytes(token);
                // Brute force: no non-special token matching at `cursor` is
                // longer than the chosen one.
                let best = vocab
                    .iter()
                    .filter(|(id, t)| !vocab.is_special(*id) && bytes[cursor..].starts_with(t))
                    .map(|(_, t)| t.len())
                    .max()
                    .unwrap();
                assert_eq!(got.len(), best, "not the longest match at {cursor}");
                assert!(bytes[cursor..].starts_with(got));
                cursor += got.len();
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(512))]

        /// The descent against brute force, on a three-byte alphabet so that
        /// duplicate byte strings, nested prefixes and special tokens whose
        /// bytes match are the common case: no byte fallback, and inputs
        /// that are empty, not UTF-8 (`0xff`) and longer than
        /// `max_token_len`.
        #[test]
        fn longest_prefix_token_equals_brute_force(
            tokens in proptest::collection::vec(
                proptest::collection::vec(proptest::sample::select(b"ab\xff".to_vec()), 0..5),
                0..24,
            ),
            specials in proptest::collection::vec(0usize..24, 0..4),
            input in proptest::collection::vec(proptest::sample::select(b"ab\xff".to_vec()), 0..10),
        ) {
            let mut vocab = Vocabulary::from_tokens(tokens.clone(), None);
            for index in specials {
                if index < tokens.len() {
                    vocab.add_special(TokenId(index as u32), crate::SpecialToken::Pad);
                }
            }
            let sorted = SortedVocabulary::new(&vocab);
            // Longest wins, the lowest id among equal byte strings.
            let mut expected: Option<TokenId> = None;
            for (id, bytes) in vocab.iter() {
                let longer = expected.map_or(0, |t| vocab.token_bytes(t).len()) < bytes.len();
                if longer && !vocab.is_special(id) && input.starts_with(bytes) {
                    expected = Some(id);
                }
            }
            proptest::prop_assert_eq!(sorted.longest_prefix_token(&vocab, &input), expected);
        }
    }
}
