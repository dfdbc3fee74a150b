//! Property-based tests over the core data structures and the equivalence
//! between the optimized engine and the reference executor.

use std::sync::Arc;

use proptest::prelude::*;
use xg_automata::{build_pda, PdaBuildOptions, SimpleMatcher};
use xg_core::{ConstraintMatcher, GrammarCompiler, GrammarMatcher, TokenBitmask};
use xg_tokenizer::{test_vocabulary, TokenId};

/// A small pool of grammars with different shapes (flat, recursive,
/// choice-heavy) used by the equivalence properties.
fn grammar_pool() -> Vec<xg_grammar::Grammar> {
    let sources = [
        r#"root ::= "[" [0-9]+ ("," [0-9]+)* "]""#,
        r#"
        root ::= value
        value ::= "(" value ")" | [a-z]+
        "#,
        r#"
        root ::= item (";" item)*
        item ::= key "=" val
        key ::= [a-z]+
        val ::= [0-9]+ | "\"" [a-z]* "\""
        "#,
        r#"root ::= ("ab" | "a" "c" | "abc")+"#,
    ];
    sources
        .iter()
        .map(|s| xg_grammar::parse_ebnf(s, "root").expect("pool grammars parse"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The optimized PDA (inlining + node merging) recognizes exactly the
    /// same language as the unoptimized one, on arbitrary byte strings.
    #[test]
    fn optimized_and_unoptimized_pda_agree(
        grammar_idx in 0usize..4,
        input in proptest::collection::vec(
            proptest::sample::select(vec![
                b'a', b'b', b'c', b'z', b'0', b'9', b'[', b']', b'(', b')', b',', b';', b'=', b'"',
            ]),
            0..24,
        ),
    ) {
        let grammar = &grammar_pool()[grammar_idx];
        let optimized = build_pda(grammar, &PdaBuildOptions::default());
        let baseline = build_pda(grammar, &PdaBuildOptions::unoptimized());
        let a = SimpleMatcher::new(&optimized).accepts(&input);
        let b = SimpleMatcher::new(&baseline).accepts(&input);
        prop_assert_eq!(a, b, "optimization changed acceptance of {:?}", input);
    }

    /// Every token allowed by the cached mask really is accepted by the
    /// reference executor, and every token it rejects really is invalid
    /// (soundness *and* completeness of the adaptive token mask cache).
    #[test]
    fn masks_agree_with_reference_executor(
        grammar_idx in 0usize..4,
        prefix in proptest::collection::vec(
            proptest::sample::select(vec![b'a', b'0', b'[', b'"', b'(', b',', b'=']),
            0..6,
        ),
    ) {
        let vocab = Arc::new(test_vocabulary(600));
        let grammar = &grammar_pool()[grammar_idx];
        let compiler = GrammarCompiler::new(Arc::clone(&vocab));
        let compiled = compiler.compile_grammar(grammar);
        let pda = build_pda(grammar, &PdaBuildOptions::default());

        // Feed the prefix byte by byte; stop early if it leaves the language.
        let mut matcher = GrammarMatcher::new(Arc::clone(&compiled));
        let mut reference = SimpleMatcher::new(&pda);
        let mut alive = true;
        for &b in &prefix {
            let ok_ref = reference.advance_bytes(&[b]);
            let ok_matcher = matcher.accept_bytes(&[b]).is_ok();
            prop_assert_eq!(ok_ref, ok_matcher);
            if !ok_ref {
                alive = false;
                break;
            }
        }
        if alive {
            let mut mask = TokenBitmask::new_all_rejected(vocab.len());
            matcher.fill_next_token_bitmask(&mut mask);
            // Check agreement over a sample of the vocabulary (every 7th
            // token keeps the property fast).
            for (token, bytes) in vocab.iter().step_by(7) {
                if vocab.is_special(token) {
                    continue;
                }
                let reference_ok = reference.clone().advance_bytes(bytes);
                prop_assert_eq!(
                    mask.is_allowed(token),
                    reference_ok,
                    "mask and reference disagree on token {:?} after prefix {:?}",
                    String::from_utf8_lossy(bytes),
                    String::from_utf8_lossy(&prefix)
                );
            }
        }
    }

    /// TokenBitmask set operations behave like sets.
    #[test]
    fn bitmask_set_operations(
        vocab_size in 1usize..600,
        allowed_a in proptest::collection::vec(0u32..600, 0..40),
        allowed_b in proptest::collection::vec(0u32..600, 0..40),
    ) {
        let mut a = TokenBitmask::new_all_rejected(vocab_size);
        let mut b = TokenBitmask::new_all_rejected(vocab_size);
        for &t in allowed_a.iter().filter(|t| (**t as usize) < vocab_size) {
            a.allow(TokenId(t));
        }
        for &t in allowed_b.iter().filter(|t| (**t as usize) < vocab_size) {
            b.allow(TokenId(t));
        }
        let mut union = a.clone();
        union.union_with(&b);
        for t in 0..vocab_size as u32 {
            let t = TokenId(t);
            prop_assert_eq!(union.is_allowed(t), a.is_allowed(t) || b.is_allowed(t));
        }
        let both = a.allowed_tokens().filter(|&t| b.is_allowed(t)).count();
        prop_assert_eq!(union.count_allowed(), a.count_allowed() + b.count_allowed() - both);
    }

    /// EBNF display round-trips: printing a parsed grammar and re-parsing it
    /// yields the same number of rules and the same acceptance behaviour.
    #[test]
    fn ebnf_display_roundtrip(
        grammar_idx in 0usize..4,
        input in proptest::collection::vec(
            proptest::sample::select(vec![b'a', b'b', b'0', b'[', b']', b'"', b','] ),
            0..12,
        ),
    ) {
        let grammar = &grammar_pool()[grammar_idx];
        let reparsed = xg_grammar::parse_ebnf(&grammar.to_string(), "root").expect("roundtrip");
        prop_assert_eq!(grammar.rules().len(), reparsed.rules().len());
        let a = SimpleMatcher::new(&build_pda(grammar, &PdaBuildOptions::default())).accepts(&input);
        let b = SimpleMatcher::new(&build_pda(&reparsed, &PdaBuildOptions::default())).accepts(&input);
        prop_assert_eq!(a, b);
    }

    /// The persistent-stack matcher accepts a token exactly when the mask it
    /// just produced allows it (internal consistency of the runtime).
    #[test]
    fn accept_token_consistent_with_mask(
        token_ids in proptest::collection::vec(0u32..600, 1..8),
    ) {
        let vocab = Arc::new(test_vocabulary(600));
        let compiler = GrammarCompiler::new(Arc::clone(&vocab));
        let compiled = compiler.compile_builtin_json();
        let mut matcher = GrammarMatcher::new(compiled);
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        for raw in token_ids {
            let token = TokenId(raw % vocab.len() as u32);
            matcher.fill_next_token_bitmask(&mut mask);
            let allowed = mask.is_allowed(token);
            let accepted = matcher.accept_token(token).is_ok();
            prop_assert_eq!(allowed, accepted);
            if !accepted {
                break;
            }
        }
    }
}
