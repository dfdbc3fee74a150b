//! Differential tests of the Aho–Corasick trigger scanner against the naive
//! multi-pattern prefix scan it replaced: on any (validation-shaped) pattern
//! set and any transcript, both must report byte-for-byte identical matches.

use proptest::prelude::*;
use xg_automata::{AhoCorasick, NaiveMultiPattern};

/// Keeps only patterns that do not occur inside (and do not contain) an
/// already kept pattern — the same no-pattern-inside-another invariant
/// `StructuralTag::trigger_assignments` validates before triggers reach the
/// scanner.
fn infix_free(patterns: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    let mut kept: Vec<Vec<u8>> = Vec::new();
    for p in patterns {
        if p.is_empty() {
            continue;
        }
        let overlaps = kept.iter().any(|k| {
            k.windows(p.len()).any(|w| w == p.as_slice())
                || p.windows(k.len()).any(|w| w == k.as_slice())
        });
        if !overlaps {
            kept.push(p);
        }
    }
    kept
}

/// A transcript over a small alphabet with the patterns spliced in, so
/// matches (including near-miss prefixes) actually occur.
fn build_transcript(noise: &[u8], patterns: &[Vec<u8>], splice_at: &[usize]) -> Vec<u8> {
    let mut out = noise.to_vec();
    if patterns.is_empty() {
        return out;
    }
    for (i, &pos) in splice_at.iter().enumerate() {
        let pattern = &patterns[i % patterns.len()];
        let at = pos % (out.len() + 1);
        // Insert full patterns and, every other time, a truncated prefix
        // (a near-miss the scanner must recover from).
        let take = if i % 2 == 0 {
            pattern.len()
        } else {
            pattern.len().div_ceil(2)
        };
        let splice: Vec<u8> = pattern[..take].to_vec();
        out.splice(at..at, splice);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Aho–Corasick and the naive prefix scan agree byte-for-byte: same
    /// match positions, same pattern indices, on random transcripts over
    /// random (infix-free) pattern catalogs.
    #[test]
    fn aho_corasick_matches_naive_scan(
        raw_patterns in proptest::collection::vec(
            proptest::collection::vec(
                proptest::sample::select(vec![b'<', b'>', b'=', b'a', b'b', b'f']),
                1..6,
            ),
            1..10,
        ),
        noise in proptest::collection::vec(
            proptest::sample::select(vec![b'<', b'>', b'=', b'a', b'b', b'f', b' ', b'x']),
            0..120,
        ),
        splice_at in proptest::collection::vec(0usize..4096, 0..8),
    ) {
        let patterns = infix_free(raw_patterns);
        let transcript = build_transcript(&noise, &patterns, &splice_at);
        let ac = AhoCorasick::new(&patterns);
        let naive = NaiveMultiPattern::new(&patterns);
        let ac_matches = ac.find_all(&transcript);
        let naive_matches = naive.find_all(&transcript);
        prop_assert_eq!(
            ac_matches,
            naive_matches,
            "scanners diverge on patterns {:?} over {:?}",
            patterns,
            transcript
        );
    }

    /// Independent oracle: every match either scanner reports really is a
    /// full occurrence of the reported pattern ending at that position.
    #[test]
    fn reported_matches_are_real_occurrences(
        raw_patterns in proptest::collection::vec(
            proptest::collection::vec(
                proptest::sample::select(vec![b'<', b'f', b'n', b'=', b'>']),
                1..5,
            ),
            1..6,
        ),
        noise in proptest::collection::vec(
            proptest::sample::select(vec![b'<', b'f', b'n', b'=', b'>', b' ', b'a']),
            0..80,
        ),
    ) {
        let patterns = infix_free(raw_patterns);
        let ac = AhoCorasick::new(&patterns);
        for (end, idx) in ac.find_all(&noise) {
            prop_assert!(
                noise[..end].ends_with(&patterns[idx]),
                "reported pattern {:?} does not end at {}",
                patterns[idx],
                end
            );
        }
    }
}

/// A 120-trigger tool catalog: the structural-tag matcher (which scans with
/// the Aho–Corasick automaton) dispatches at exactly the positions the naive
/// reference scan reports over the free text.
#[test]
fn large_catalog_dispatch_agrees_with_naive_scan() {
    use std::sync::Arc;
    use xg_core::{ConstraintMatcher, DispatchMode, GrammarCompiler, StructuralTagMatcher};
    use xg_grammar::{StructuralTag, TagContent, TagSpec};
    use xg_tokenizer::test_vocabulary;

    let tags: Vec<TagSpec> = (0..120)
        .map(|i| TagSpec {
            begin: format!("<fn{i:03}>"),
            content: TagContent::Ebnf {
                text: "root ::= [0-9]+".into(),
                root: "root".into(),
            },
            end: "</e>".into(),
        })
        .collect();
    let triggers: Vec<Vec<u8>> = tags.iter().map(|t| t.begin.clone().into_bytes()).collect();
    let tag = StructuralTag::new(tags);
    let vocab = Arc::new(test_vocabulary(600));
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let compiled = compiler.compile_tag_dispatch(&tag).unwrap();
    assert_eq!(compiled.triggers().len(), 120);
    assert_eq!(compiled.scanner().patterns().len(), 120);

    let mut matcher = StructuralTagMatcher::new(Arc::clone(&compiled));
    // Prose with near-miss prefixes, then dispatches into three different
    // catalog entries.
    let transcript: &[u8] = b"noise <fn <fn9 <fn007>42</e> mid <fn119>7</e> <fn042>1</e> done";
    let naive = NaiveMultiPattern::new(&triggers);

    // The naive scan over the same transcript (skipping tagged segments,
    // which the matcher does not scan) must fire at the same places.
    let mut expected_triggers = Vec::new();
    let mut i = 0;
    let mut pending = Vec::new();
    while i < transcript.len() {
        if let Some(t) = naive.step(&mut pending, transcript[i]) {
            expected_triggers.push(t);
            // Skip the tagged segment body the matcher consumes constrained
            // (it does not trigger-scan there): everything through "</e>".
            let close = transcript[i..]
                .windows(4)
                .position(|w| w == b"</e>")
                .expect("every spliced segment closes");
            i += close + 4;
            pending.clear();
            continue;
        }
        i += 1;
    }
    assert_eq!(expected_triggers, vec![7, 119, 42]);

    let mut fired = Vec::new();
    for &b in transcript {
        let before = matcher.stats().tags_opened;
        matcher.accept_bytes(&[b]).unwrap();
        if matcher.stats().tags_opened > before {
            if let DispatchMode::Tagged { trigger } = matcher.mode() {
                fired.push(trigger);
            }
        }
    }
    assert_eq!(fired, expected_triggers);
    assert_eq!(matcher.stats().tags_opened, 3);
    assert_eq!(matcher.stats().tags_closed, 3);
    assert!(matcher.can_terminate());
}
