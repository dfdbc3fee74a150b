//! Compilation of Unicode scalar-value ranges into UTF-8 byte-range
//! sequences.
//!
//! The pushdown automaton in this reproduction is *byte level* (as in the
//! paper, §3): every edge consumes exactly one byte. A character class such
//! as `[^"\]` therefore has to be lowered into a small automaton over bytes.
//! This module implements the classic UTF-8 range-splitting algorithm (as
//! popularized by the `utf8-ranges`/`regex-syntax` crates, reimplemented here
//! from the algorithm description): a scalar range is split into at most a
//! handful of *sequences*, where each sequence is a list of 1–4 inclusive
//! byte ranges and the cartesian product of the byte ranges enumerates
//! exactly the UTF-8 encodings of the characters in the range.

/// An inclusive range of byte values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ByteRange {
    /// Lowest byte (inclusive).
    pub lo: u8,
    /// Highest byte (inclusive).
    pub hi: u8,
}

impl ByteRange {
    /// Creates a byte range.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: u8, hi: u8) -> Self {
        assert!(lo <= hi, "invalid byte range");
        ByteRange { lo, hi }
    }

    /// Returns `true` if `b` is inside the range.
    #[inline]
    pub fn contains(&self, b: u8) -> bool {
        self.lo <= b && b <= self.hi
    }

    /// Number of bytes covered by the range.
    #[inline]
    pub fn len(&self) -> usize {
        (self.hi - self.lo) as usize + 1
    }

    /// Byte ranges are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// A sequence of byte ranges whose cartesian product is a set of UTF-8
/// encodings (all of the same length).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Utf8Sequence {
    /// One byte range per encoded byte (1 to 4 entries).
    pub(crate) ranges: Vec<ByteRange>,
}

/// Splits an inclusive Unicode scalar range into UTF-8 byte-range sequences.
///
/// The input must not include the surrogate range (U+D800..=U+DFFF); the
/// grammar crate's `CharClass::normalized_ranges` already guarantees that.
pub(crate) fn utf8_sequences(start: u32, end: u32) -> Vec<Utf8Sequence> {
    let mut out = Vec::new();
    if start > end {
        return out;
    }
    split(start.min(0x10FFFF), end.min(0x10FFFF), &mut out);
    out
}

fn encoded_len(cp: u32) -> usize {
    match cp {
        0..=0x7F => 1,
        0x80..=0x7FF => 2,
        0x800..=0xFFFF => 3,
        _ => 4,
    }
}

fn encode(cp: u32) -> ([u8; 4], usize) {
    let c = char::from_u32(cp).unwrap_or('\u{FFFD}');
    let mut buf = [0u8; 4];
    let s = c.encode_utf8(&mut buf);
    let len = s.len();
    (buf, len)
}

fn split(start: u32, end: u32, out: &mut Vec<Utf8Sequence>) {
    if start > end {
        return;
    }
    // Skip the surrogate gap defensively.
    if (0xD800..=0xDFFF).contains(&start) {
        return split(0xE000.max(start), end, out);
    }
    if end >= 0xD800 && start < 0xD800 && end <= 0xDFFF {
        return split(start, 0xD7FF, out);
    }
    if start < 0xD800 && end > 0xDFFF {
        split(start, 0xD7FF, out);
        split(0xE000, end, out);
        return;
    }
    // Split at encoding-length boundaries.
    for &boundary in &[0x7Fu32, 0x7FF, 0xFFFF] {
        if start <= boundary && boundary < end {
            split(start, boundary, out);
            split(boundary + 1, end, out);
            return;
        }
    }
    let len = encoded_len(start);
    debug_assert_eq!(len, encoded_len(end));
    if len == 1 {
        out.push(Utf8Sequence {
            ranges: vec![ByteRange::new(start as u8, end as u8)],
        });
        return;
    }
    // Try to split so that all continuation-byte positions cover their full
    // 0x80..=0xBF range; then the sequence factorizes into independent
    // per-byte ranges.
    for i in 1..len as u32 {
        let max_gap: u32 = (1 << (6 * i)) - 1;
        if (start & max_gap) != 0 {
            let boundary = start | max_gap;
            if boundary < end {
                split(start, boundary, out);
                split(boundary + 1, end, out);
                return;
            }
        }
        if (end & max_gap) != max_gap {
            let boundary = (end & !max_gap).saturating_sub(1);
            if boundary >= start {
                split(start, boundary, out);
                split(boundary + 1, end, out);
                return;
            }
        }
    }
    // All trailing positions are full; build per-byte ranges from the
    // encodings of the endpoints.
    let (sb, slen) = encode(start);
    let (eb, elen) = encode(end);
    debug_assert_eq!(slen, len);
    debug_assert_eq!(elen, len);
    let ranges = (0..len)
        .map(|i| ByteRange::new(sb[i], eb[i]))
        .collect::<Vec<_>>();
    out.push(Utf8Sequence { ranges });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Returns `true` if `bytes` is one of the strings `seq` matches.
    fn matches(seq: &Utf8Sequence, bytes: &[u8]) -> bool {
        bytes.len() == seq.ranges.len() && seq.ranges.iter().zip(bytes).all(|(r, &b)| r.contains(b))
    }

    /// Brute-force check: the set of encodings produced by the sequences for
    /// `[start, end]` equals the set of UTF-8 encodings of the chars in the
    /// range.
    fn check_range(start: u32, end: u32) {
        let seqs = utf8_sequences(start, end);
        // Every char in range must be matched by exactly one sequence.
        for cp in start..=end {
            if let Some(c) = char::from_u32(cp) {
                let mut buf = [0u8; 4];
                let enc = c.encode_utf8(&mut buf).as_bytes().to_vec();
                let matching = seqs.iter().filter(|s| matches(s, &enc)).count();
                assert_eq!(
                    matching, 1,
                    "codepoint {cp:#x} matched {matching} sequences"
                );
            }
        }
        // No sequence may match an encoding of a char outside the range
        // (checked over a sample around the boundaries).
        let mut outside: HashSet<u32> = HashSet::new();
        for delta in 1..=64u32 {
            if start >= delta {
                outside.insert(start - delta);
            }
            outside.insert(end + delta);
        }
        for cp in outside {
            if cp > 0x10FFFF {
                continue;
            }
            if let Some(c) = char::from_u32(cp) {
                let mut buf = [0u8; 4];
                let enc = c.encode_utf8(&mut buf).as_bytes().to_vec();
                assert!(
                    !seqs.iter().any(|s| matches(s, &enc)),
                    "codepoint {cp:#x} wrongly matched for range {start:#x}..{end:#x}"
                );
            }
        }
    }

    #[test]
    fn ascii_range_is_single_sequence() {
        let seqs = utf8_sequences(b'0' as u32, b'9' as u32);
        assert_eq!(seqs.len(), 1);
        assert_eq!(seqs[0].ranges, vec![ByteRange::new(b'0', b'9')]);
    }

    #[test]
    fn ascii_is_one_sequence_and_full_range_several() {
        // ASCII stays a single one-byte sequence.
        let seqs = utf8_sequences('a' as u32, 'z' as u32);
        assert_eq!(seqs.len(), 1);
        assert_eq!(seqs[0].ranges.len(), 1);

        // The full Unicode range needs several sequences of different lengths.
        let all = utf8_sequences(0, 0x10FFFF);
        assert!(all.len() >= 4);
    }

    #[test]
    fn two_byte_range() {
        check_range(0x80, 0x7FF);
    }

    #[test]
    fn three_byte_range_with_surrogate_gap() {
        check_range(0x800, 0xFFFF);
    }

    #[test]
    fn crossing_length_boundaries() {
        check_range(0x20, 0x900);
        check_range(0x7F, 0x80);
        check_range(0xFFFF, 0x10000);
    }

    #[test]
    fn narrow_multibyte_ranges() {
        check_range(0xE9, 0xE9); // é
        check_range(0x4E00, 0x4E10); // CJK slice
        check_range(0x1F600, 0x1F64F); // emoji block
    }

    #[test]
    fn full_unicode_range_is_small() {
        let seqs = utf8_sequences(0, 0x10FFFF);
        assert!(seqs.len() <= 16, "got {} sequences", seqs.len());
        // Spot-check a few encodings across lengths.
        for c in ['a', 'é', '你', '🎉'] {
            let mut buf = [0u8; 4];
            let enc = c.encode_utf8(&mut buf).as_bytes().to_vec();
            assert_eq!(seqs.iter().filter(|s| matches(s, &enc)).count(), 1);
        }
    }
}
