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
//!
//! Everything that walks the vocabulary in this order reads the sorted
//! tokens' bytes from one arena: `bytes` holds them back to back and token
//! `i` is `bytes[offsets[i]..offsets[i + 1]]`, so a walk over the order is a
//! walk front to back through memory rather than a load through a scattered
//! id per token. The order is byte order with ties — equal byte strings —
//! broken by ascending id; [`SortedVocabulary::longest_prefix_token`]'s
//! "lowest id first" depends on it.
//!
//! Sorted this way, the tokens that start with one byte are one range of the
//! order ([`SortedVocabulary::starting_with`]), and each token carries the set
//! of [byte classes](byte_class_members) its later bytes fall in
//! ([`SortedVocabulary::tail_classes`]): a mask-cache build accepts a token
//! whose later bytes all stay on a loop of the automaton from those two facts
//! alone, without matching it.

use std::ops::{Range, RangeInclusive};

use crate::vocab::{TokenId, Vocabulary};

/// The first byte of each class of the partition of `0..=255` that
/// [`SortedVocabulary::tail_classes`] is over; class `k` runs up to the next
/// class's first byte. Any partition keeps a build exact; the finer it is,
/// the more tokens a loop takes. These split bytes where grammars tend to
/// split them: each ASCII punctuation byte alone, digits, upper and lower
/// case, space, `\t`, `\n`, `\r` and the other controls, DEL, the UTF-8
/// continuation bytes in quarters, and the lead bytes by the sequences they
/// start.
const CLASS_STARTS: [u8; 57] = [
    0x00, 0x09, 0x0a, 0x0b, 0x0d, 0x0e, 0x20, // controls, `\t`, `\n`, `\r`, space
    0x21, 0x22, 0x23, 0x24, 0x25, 0x26, 0x27, 0x28, 0x29, 0x2a, 0x2b, 0x2c, 0x2d, 0x2e, 0x2f,
    0x30, // digits
    0x3a, 0x3b, 0x3c, 0x3d, 0x3e, 0x3f, 0x40, //
    0x41, // upper case
    0x5b, 0x5c, 0x5d, 0x5e, 0x5f, 0x60, //
    0x61, // lower case
    0x7b, 0x7c, 0x7d, 0x7e, 0x7f, // and DEL
    0x80, 0x90, 0xa0, 0xb0, // continuation bytes
    0xc0, 0xc2, 0xe0, 0xe1, 0xed, 0xee, 0xf0, 0xf1, 0xf4, 0xf5, // lead bytes
];

/// Number of byte classes (at most 64: a token's set is one `u64`).
const BYTE_CLASSES: usize = CLASS_STARTS.len();
const _: () = assert!(BYTE_CLASSES <= 64);

/// The class of every byte.
const BYTE_CLASS: [u8; 256] = {
    let mut table = [0; 256];
    let (mut class, mut byte) = (0, 0);
    while byte < 256 {
        if class + 1 < BYTE_CLASSES && CLASS_STARTS[class + 1] as usize == byte {
            class += 1;
        }
        table[byte] = class as u8;
        byte += 1;
    }
    table
};

/// The bytes of class `class` (one [`byte_class`] returns), a run of `0..=255`.
///
/// # Examples
///
/// ```
/// use xg_tokenizer::{byte_class, byte_class_members};
///
/// assert_eq!(byte_class_members(byte_class(b'q')), b'a'..=b'z');
/// assert_eq!(byte_class_members(byte_class(b'"')), b'"'..=b'"');
/// ```
pub fn byte_class_members(class: usize) -> RangeInclusive<u8> {
    let end = CLASS_STARTS.get(class + 1).map_or(0xff, |&next| next - 1);
    CLASS_STARTS[class]..=end
}

/// The class `byte` is in.
pub fn byte_class(byte: u8) -> usize {
    usize::from(BYTE_CLASS[usize::from(byte)])
}

/// The classes of the bytes of `token` after its first, as a bit set.
fn tail_classes(token: &[u8]) -> u64 {
    let tail = token.iter().skip(1);
    tail.fold(0, |set, &b| set | 1 << byte_class(b))
}

/// A sorted token index with longest-common-prefix information.
///
/// At the 128k-token benchmark vocabulary it takes ≈ 5.5 MB: the sorted
/// tokens' bytes (a 1.36 MB arena), the LCP array and the tail classes
/// (1 MB each), and the ids, the arena offsets, the run-skip links and the
/// running count of bytes to check (0.5 MB each). Building it takes
/// ≈ 33–50 ms on a 2-core machine (`perf`'s `tokenizer.sort_vocab_ms`, the
/// p50 of its traced replay's builds), and a process's first build up to
/// twice that. So the vocabulary builds it once and keeps it
/// ([`Vocabulary::sorted`]): every compiler, compiled grammar, backend,
/// serving engine and simulated model holding the same `Arc<Vocabulary>`
/// reads that one index.
#[derive(Debug, Clone)]
pub struct SortedVocabulary {
    /// Token ids in lexicographic byte order (special tokens excluded).
    ids: Vec<TokenId>,
    /// `lcp[i]` = length of the longest common prefix between token `ids[i]`
    /// and token `ids[i - 1]` (0 for the first token).
    lcp: Vec<usize>,
    /// `run_next[i]` = the first `j > i` with `lcp[j] < lcp[i]`, or `len()`.
    run_next: Vec<u32>,
    /// `to_check[i]` = the bytes of tokens `..i` after the prefix each
    /// shares with its predecessor; one entry more than `ids`.
    to_check: Vec<u32>,
    /// `tails[i]` = the classes of token `i`'s bytes after its first.
    tails: Vec<u64>,
    /// The tokens starting with byte `b` are `first[b]..first[b + 1]`; the
    /// empty ones are `0..first[0]`.
    first: [u32; 257],
    /// The sorted tokens' bytes, back to back.
    bytes: Vec<u8>,
    /// Token `i` is `bytes[offsets[i]..offsets[i + 1]]`; one entry more than
    /// `ids`.
    offsets: Vec<u32>,
    /// Length of the longest indexed token, bounding prefix lookups.
    max_token_len: usize,
}

/// Longest common prefix length of two byte strings.
pub fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

/// The first 8 bytes of `bytes`, zero-padded, as a big-endian integer: keys
/// compare like the byte strings they come from, except that strings whose
/// first 8 bytes agree, or differ only by trailing zeros (`ab`, `ab\0`), tie.
fn sort_key(bytes: &[u8]) -> u64 {
    let mut key = [0u8; 8];
    let n = bytes.len().min(8);
    key[..n].copy_from_slice(&bytes[..n]);
    u64::from_be_bytes(key)
}

/// The first index in `lo..hi` at which `pred` is false, `pred` being true
/// on a prefix of the range.
fn partition_point(mut lo: usize, mut hi: usize, pred: impl Fn(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

impl SortedVocabulary {
    /// Builds the sorted index for a vocabulary.
    ///
    /// # Panics
    ///
    /// Panics if the vocabulary's tokens hold more than `u32::MAX` bytes.
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
    /// assert_eq!(sorted.token(2), b"ready");
    /// ```
    pub fn new(vocab: &Vocabulary) -> Self {
        // One pass in id order copies the text into a scratch arena, so
        // that the passes in sorted order read it from there and not from
        // one heap allocation per token.
        let (mut text, mut at) = (Vec::new(), Vec::with_capacity(vocab.len() + 1));
        let mut keyed = Vec::with_capacity(vocab.len());
        at.push(0);
        for (id, token) in vocab.iter() {
            text.extend_from_slice(token);
            at.push(text.len());
            if !vocab.is_special(id) {
                keyed.push((sort_key(token), id));
            }
        }
        let text_of = |id: TokenId| &text[at[id.index()]..at[id.index() + 1]];

        // Sort by an integer key, which needs no load per comparison, then
        // settle the runs of equal keys by their full bytes: those are the
        // only tokens the key does not already order.
        keyed.sort_unstable();
        for run in keyed.chunk_by_mut(|a, b| a.0 == b.0) {
            if run.len() > 1 {
                run.sort_unstable_by(|a, b| (text_of(a.1), a.1).cmp(&(text_of(b.1), b.1)));
            }
        }

        let mut bytes = Vec::with_capacity(text.len());
        let mut offsets = Vec::with_capacity(keyed.len() + 1);
        offsets.push(0);
        let mut lcp = Vec::with_capacity(keyed.len());
        let (mut to_check, mut checked) = (Vec::with_capacity(keyed.len() + 1), 0);
        to_check.push(checked);
        let mut tails = Vec::with_capacity(keyed.len());
        // `first[b + 1]` counts the tokens starting with `b` until the sums.
        let mut first = [0u32; 257];
        let mut max_token_len = 0;
        let mut previous = 0;
        for &(_, id) in &keyed {
            let start = bytes.len();
            bytes.extend_from_slice(text_of(id));
            let token = &bytes[start..];
            let shared = common_prefix_len(&bytes[previous..start], token);
            lcp.push(shared);
            checked += (token.len() - shared) as u32;
            to_check.push(checked);
            tails.push(tail_classes(token));
            first[token.first().map_or(0, |&b| usize::from(b) + 1)] += 1;
            max_token_len = max_token_len.max(token.len());
            offsets.push(u32::try_from(bytes.len()).expect("vocabulary text under 4 GiB"));
            previous = start;
        }
        for b in 1..first.len() {
            first[b] += first[b - 1];
        }
        let mut sorted = SortedVocabulary {
            ids: keyed.into_iter().map(|(_, id)| id).collect(),
            run_next: vec![0; lcp.len()],
            lcp,
            to_check,
            tails,
            first,
            bytes,
            offsets,
            max_token_len,
        };
        // Right to left: a link is a run end, found along the links after it.
        for i in (0..sorted.len()).rev() {
            sorted.run_next[i] = sorted.run_end(i, sorted.lcp[i]) as u32;
        }
        sorted
    }

    /// Sorted token ids.
    pub fn ids(&self) -> &[TokenId] {
        &self.ids
    }

    /// The bytes of the `i`-th token in sorted order (of `ids()[i]`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn token(&self, i: usize) -> &[u8] {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Longest-common-prefix lengths (`lcp()[i]` refers to `ids()[i]` and its
    /// predecessor).
    pub fn lcp(&self) -> &[usize] {
        &self.lcp
    }

    /// The [byte classes](byte_class_members) of each sorted token's bytes
    /// after its first, as bit sets (`tail_classes()[i]` refers to
    /// `ids()[i]`; bit `k` is class `k`; 0 for tokens of one byte or none).
    pub fn tail_classes(&self) -> &[u64] {
        &self.tails
    }

    /// The range of the sorted order whose tokens start with `byte`.
    ///
    /// # Examples
    ///
    /// ```
    /// use xg_tokenizer::{SortedVocabulary, Vocabulary};
    ///
    /// let vocab = Vocabulary::from_tokens(
    ///     vec![b"b".to_vec(), b"ab".to_vec(), b"a".to_vec(), b"c".to_vec()], None);
    /// let sorted = SortedVocabulary::new(&vocab);
    /// assert_eq!(sorted.starting_with(b'a'), 0..2);
    /// assert_eq!(sorted.starting_with(b'b'), 2..3);
    /// assert!(sorted.starting_with(b'z').is_empty());
    /// ```
    pub fn starting_with(&self, byte: u8) -> Range<usize> {
        let b = usize::from(byte);
        self.first[b] as usize..self.first[b + 1] as usize
    }

    /// The end of the run after token `i`: the first `j > i` whose token
    /// shares fewer than `shared` bytes with its predecessor, so every token
    /// in `i + 1..j` shares at least `shared` bytes with token `i`. It jumps
    /// over each stretch whose LCPs are all at least the one it starts at,
    /// and the LCPs it lands on strictly decrease: at most
    /// `max_token_len` jumps for `shared >= 1`.
    pub fn run_end(&self, i: usize, shared: usize) -> usize {
        let mut j = i + 1;
        while j < self.len() && self.lcp[j] >= shared {
            j = self.run_next[j] as usize;
        }
        j
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
        self.bytes.len()
    }

    /// Number of bytes that actually need to be matched when tokens are
    /// checked in sorted order with prefix-sharing rollback: for each token,
    /// only the bytes after the common prefix with its predecessor.
    pub fn chars_to_check(&self) -> usize {
        self.chars_to_check_in(0..self.len())
    }

    /// [`chars_to_check`](Self::chars_to_check) of the tokens `range` of the
    /// sorted order, each still rolled back to its predecessor's prefix.
    pub fn chars_to_check_in(&self, range: Range<usize>) -> usize {
        (self.to_check[range.end] - self.to_check[range.start]) as usize
    }

    /// Fraction of characters that still need checking
    /// (`chars_to_check / total_bytes`), the statistic reported in §3.3.
    pub fn check_fraction(&self) -> f64 {
        if self.total_bytes() == 0 {
            return 0.0;
        }
        self.chars_to_check() as f64 / self.total_bytes() as f64
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
    /// `bytes[..=k]` — the lowest id first, ties being sorted by id — sits
    /// at the new `lo`. `O(|match| · log |vocab|)` on shrinking ranges.
    pub fn longest_prefix_token(&self, bytes: &[u8]) -> Option<TokenId> {
        let (mut lo, mut hi) = (0, self.ids.len());
        let mut best = None;
        for (k, &byte) in bytes.iter().enumerate().take(self.max_token_len) {
            let at = |j: usize| self.token(j).get(k).copied();
            let start = partition_point(lo, hi, |j| at(j) < Some(byte));
            let end = partition_point(start, hi, |j| at(j) == Some(byte));
            if start == end {
                break;
            }
            (lo, hi) = (start, end);
            if self.token(lo).len() == k + 1 {
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
    /// `vocab` must be the vocabulary this index was built from.
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
            let Some(token) = self.longest_prefix_token(&bytes[covered..]) else {
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
    fn sorted_ids_are_lexicographic_and_exclude_specials() {
        let mut vocab = Vocabulary::from_tokens(
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
        vocab.add_special(TokenId(0), crate::SpecialToken::Bos);
        let sorted = SortedVocabulary::new(&vocab);
        assert_eq!(sorted.len(), 4);
        let bytes: Vec<&[u8]> = sorted
            .ids()
            .iter()
            .map(|id| vocab.token_bytes(*id))
            .collect();
        let mut expected = bytes.clone();
        expected.sort();
        assert_eq!(bytes, expected);
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
    fn byte_classes_partition_the_bytes_into_runs() {
        let mut next = 0;
        for class in 0..BYTE_CLASSES {
            let members = byte_class_members(class);
            assert_eq!(usize::from(*members.start()), next, "class {class}");
            assert!(members.start() <= members.end());
            assert!(members
                .clone()
                .all(|b| usize::from(BYTE_CLASS[usize::from(b)]) == class));
            next = usize::from(*members.end()) + 1;
        }
        assert_eq!(next, 256);
    }

    #[test]
    fn empty_vocabulary_is_handled() {
        let vocab = Vocabulary::from_tokens(vec![], None);
        let sorted = SortedVocabulary::new(&vocab);
        assert!(sorted.is_empty());
        assert_eq!(sorted.check_fraction(), 0.0);
        assert_eq!(sorted.max_token_len, 0);
        assert_eq!(sorted.longest_prefix_token(b"abc"), None);
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
                .longest_prefix_token(bytes)
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

    /// The comparator sort the index was built with before the key sort: a
    /// stable sort of the non-special ids by their bytes.
    fn sorted_token_ids(vocab: &Vocabulary) -> Vec<TokenId> {
        let mut ids: Vec<TokenId> = (0..vocab.len() as u32)
            .map(TokenId)
            .filter(|id| !vocab.is_special(*id))
            .collect();
        ids.sort_by(|a, b| vocab.token_bytes(*a).cmp(vocab.token_bytes(*b)));
        ids
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
            proptest::prop_assert_eq!(sorted.longest_prefix_token(&input), expected);
        }

        /// The key sort against the stable comparator sort, where an 8-byte
        /// key can get it wrong: `0x00` in the alphabet makes `ab`, `ab\0`
        /// and `ab\0\0` tie on the zero-padded key, `long` puts an 8-byte
        /// prefix in front of some tokens so that longer ones share their
        /// whole key, and short tokens over four bytes collide, the empty
        /// one included — often enough that a run of equal keys outgrows the
        /// small-slice sort, which is stable whatever the comparator says
        /// about ids. Every arena-derived quantity is recomputed from the
        /// vocabulary.
        #[test]
        fn sorted_index_is_the_stable_byte_order(
            tokens in proptest::collection::vec(
                proptest::collection::vec(proptest::sample::select(b"ab\0\xff".to_vec()), 0..4),
                0..128,
            ),
            long in proptest::collection::vec(0usize..128, 0..32),
            specials in proptest::collection::vec(0usize..128, 0..4),
        ) {
            let mut tokens = tokens;
            for index in long {
                if let Some(token) = tokens.get_mut(index) {
                    token.splice(0..0, *b"ab\0ab\0ab");
                }
            }
            let mut vocab = Vocabulary::from_tokens(tokens.clone(), None);
            for index in specials {
                if index < tokens.len() {
                    vocab.add_special(TokenId(index as u32), crate::SpecialToken::Pad);
                }
            }
            let sorted = SortedVocabulary::new(&vocab);
            let ids = sorted_token_ids(&vocab);
            proptest::prop_assert_eq!(sorted.ids(), &ids[..]);
            let bytes = |i: usize| vocab.token_bytes(ids[i]);
            let class_of = |b: &u8| (0..BYTE_CLASSES).position(|k| byte_class_members(k).contains(b));
            for i in 0..ids.len() {
                proptest::prop_assert_eq!(sorted.token(i), bytes(i));
                let lcp = if i == 0 { 0 } else { common_prefix_len(bytes(i - 1), bytes(i)) };
                proptest::prop_assert_eq!(sorted.lcp()[i], lcp);
                let tail = bytes(i).iter().skip(1).map(|b| 1 << class_of(b).unwrap());
                proptest::prop_assert_eq!(sorted.tail_classes()[i], tail.fold(0, |s, c| s | c));
            }
            for byte in [0, b'a', b'b', b'c', 0xff] {
                let starting: Vec<usize> = (0..ids.len()).filter(|&i| bytes(i).first() == Some(&byte)).collect();
                let range = sorted.starting_with(byte);
                proptest::prop_assert_eq!(starting, range.clone().collect::<Vec<_>>(), "{}", byte);
                proptest::prop_assert!(range.start <= ids.len());
            }
            proptest::prop_assert_eq!(sorted.lcp().len(), ids.len());
            for (start, end) in [(0, ids.len()), (ids.len() / 3, ids.len() / 2)] {
                let to_check = (start..end).map(|i| bytes(i).len() - sorted.lcp()[i]).sum::<usize>();
                proptest::prop_assert_eq!(sorted.chars_to_check_in(start..end), to_check);
            }
            let lens = (0..ids.len()).map(|i| bytes(i).len());
            proptest::prop_assert_eq!(sorted.total_bytes(), lens.clone().sum::<usize>());
            proptest::prop_assert_eq!(sorted.max_token_len, lens.max().unwrap_or(0));
        }

        /// The run-skip links against the scan they replace: from every
        /// token, for every shared length up to one past the longest token,
        /// `run_end` lands where a linear scan of the LCPs stops, within
        /// `max_token_len` jumps. Two letters and lengths up to 6 make deep
        /// nests of shared prefixes; the empty token and duplicates occur.
        #[test]
        fn run_end_equals_the_linear_scan(
            tokens in proptest::collection::vec(
                proptest::collection::vec(proptest::sample::select(b"ab".to_vec()), 0..7),
                0..96,
            ),
        ) {
            let sorted = SortedVocabulary::new(&Vocabulary::from_tokens(tokens, None));
            let lcp = sorted.lcp();
            for i in 0..sorted.len() {
                for shared in 1..=sorted.max_token_len + 1 {
                    let scan = i + 1 + lcp[i + 1..].iter().take_while(|&&l| l >= shared).count();
                    proptest::prop_assert_eq!(sorted.run_end(i, shared), scan);
                    let (mut j, mut jumps) = (i + 1, 0);
                    while j < sorted.len() && lcp[j] >= shared {
                        j = sorted.run_next[j] as usize;
                        jumps += 1;
                    }
                    proptest::prop_assert!(jumps <= sorted.max_token_len, "{} jumps", jumps);
                }
            }
        }
    }
}
