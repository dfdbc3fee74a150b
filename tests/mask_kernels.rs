//! Property tests for the word-level bitmask kernels.
//!
//! The bulk [`TokenBitmask`] operations (`allow_all` / `allow_many` /
//! `reject_many` / `copy_from` / `union_with`) are the hot inner loop of mask
//! generation, and the padding of the last word is their one special case.
//! These tests drive random operation sequences at deliberately
//! non-multiple-of-64 vocabulary sizes against a plain `Vec<bool>` model and
//! demand bit-for-bit agreement — in particular that the padding bits of the
//! last word never leak into `count_allowed`, `allowed_tokens`, or a
//! subsequent `union_with`.
//!
//! The final property is the kernel-vs-serial differential of the raw-speed
//! mask path: the default configuration (adaptive mask cache applied through
//! the word kernels) must produce byte-identical masks to the per-token
//! serial fill of Table 3's `+ node merging` row
//! (`CompilerConfig::NodeMerging`, no mask cache) along random grammar-valid
//! walks.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xg_core::{CompilerConfig, ConstraintMatcher, GrammarCompiler, GrammarMatcher, TokenBitmask};
use xg_tokenizer::{test_vocabulary, TokenId};

/// Vocabulary sizes straddling word boundaries: one below, on, and above a
/// multiple of 64, plus a tiny single-word mask and two larger odd sizes.
const ODD_SIZES: [usize; 6] = [37, 63, 64, 65, 1000, 4033];

fn tid(t: usize) -> TokenId {
    TokenId(t as u32)
}

/// Applies one random bulk operation to both the kernel bitmask and the
/// `Vec<bool>` model, drawing parameters from `rng` so the two sides see the
/// exact same clamped indices and runs.
fn apply_random_op(rng: &mut SmallRng, mask: &mut TokenBitmask, model: &mut [bool]) {
    let size = model.len();
    match rng.gen_range(0..6u8) {
        0 => {
            mask.allow_all();
            model.fill(true);
        }
        1 => {
            mask.reject_all();
            model.fill(false);
        }
        2 => {
            let t = rng.gen_range(0..size);
            mask.allow(tid(t));
            model[t] = true;
        }
        3 => {
            let t = rng.gen_range(0..size);
            mask.reject(tid(t));
            model[t] = false;
        }
        4 => {
            let tokens: Vec<TokenId> = (0..rng.gen_range(0..24))
                .map(|_| tid(rng.gen_range(0..size)))
                .collect();
            mask.allow_many(&tokens);
            for &t in &tokens {
                model[t.index()] = true;
            }
        }
        _ => {
            let tokens: Vec<TokenId> = (0..rng.gen_range(0..24))
                .map(|_| tid(rng.gen_range(0..size)))
                .collect();
            mask.reject_many(&tokens);
            for &t in &tokens {
                model[t.index()] = false;
            }
        }
    }
}

/// Demands bit-for-bit agreement between kernel mask and model, and that the
/// padding bits of the final partial word stay invisible.
fn assert_matches_model(mask: &TokenBitmask, model: &[bool]) -> Result<(), TestCaseError> {
    let size = model.len();
    prop_assert_eq!(mask.vocab_size(), size);
    for (t, &allowed) in model.iter().enumerate() {
        prop_assert_eq!(
            mask.is_allowed(tid(t)),
            allowed,
            "bit {} diverged from model",
            t
        );
    }
    let model_count = model.iter().filter(|&&b| b).count();
    prop_assert_eq!(
        mask.count_allowed(),
        model_count,
        "padding leaked into count_allowed"
    );
    let listed: Vec<TokenId> = mask.allowed_tokens().collect();
    prop_assert_eq!(listed.len(), model_count);
    prop_assert!(
        listed.iter().all(|t| t.index() < size),
        "allowed_tokens yielded an out-of-vocab id"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random bulk-op sequences at non-multiple-of-64 sizes agree with the
    /// `Vec<bool>` model bit for bit after every single operation.
    #[test]
    fn bulk_ops_match_boolean_model(
        size_idx in 0usize..6,
        seed in 0u64..100_000,
    ) {
        let size = ODD_SIZES[size_idx];
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut mask = TokenBitmask::new_all_rejected(size);
        let mut model = vec![false; size];
        for _ in 0..32 {
            apply_random_op(&mut rng, &mut mask, &mut model);
            assert_matches_model(&mask, &model)?;
        }
    }

    /// `union_with` / `copy_from` between two masks built from independent
    /// op sequences match the boolean model, including at partial final
    /// words.
    #[test]
    fn set_ops_match_boolean_model(
        size_idx in 0usize..6,
        seed in 0u64..100_000,
        which in 0u8..2,
    ) {
        let size = ODD_SIZES[size_idx];
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut a = TokenBitmask::new_all_rejected(size);
        let mut model_a = vec![false; size];
        let mut b = TokenBitmask::new_all_rejected(size);
        b.allow_all();
        let mut model_b = vec![true; size];
        for _ in 0..12 {
            apply_random_op(&mut rng, &mut a, &mut model_a);
            apply_random_op(&mut rng, &mut b, &mut model_b);
        }
        if which == 0 {
            a.union_with(&b);
            for (ma, mb) in model_a.iter_mut().zip(&model_b) {
                *ma = *ma || *mb;
            }
        } else {
            a.copy_from(&b);
            model_a.copy_from_slice(&model_b);
        }
        assert_matches_model(&a, &model_a)?;
    }
}

/// Grammars with different mask-cache profiles (accept-heavy, reject-heavy,
/// recursive) for the kernel-vs-serial differential.
fn grammar_pool() -> Vec<xg_grammar::Grammar> {
    [
        r#"root ::= "[" [0-9]+ ("," [0-9]+)* "]""#,
        r#"
        root ::= value
        value ::= "(" value ")" | [a-z]+
        "#,
        r#"root ::= ("ab" | "a" "c" | "abc")+"#,
        r#"
        root ::= pair (";" pair)*
        pair ::= [a-z]+ "=" ([0-9]+ | "\"" [a-z]* "\"")
        "#,
    ]
    .iter()
    .map(|s| xg_grammar::parse_ebnf(s, "root").expect("pool grammars parse"))
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The raw-speed differential: along any grammar-valid token walk, the
    /// word-kernel fill (default config, adaptive mask cache applied through
    /// bulk kernels) is bit-identical to the per-token serial fill (the
    /// `+ node merging` row, every token matched individually).
    #[test]
    fn kernel_fill_matches_serial_fill(
        grammar_idx in 0usize..4,
        walk_seed in 0u64..10_000,
    ) {
        let vocab = Arc::new(test_vocabulary(700));
        let grammar = &grammar_pool()[grammar_idx];
        let kernel_compiled = GrammarCompiler::new(Arc::clone(&vocab)).compile_grammar(grammar);
        let serial_compiled = GrammarCompiler::with_config(
            Arc::clone(&vocab),
            CompilerConfig::NodeMerging,
        )
        .compile_grammar(grammar);
        let mut kernel = GrammarMatcher::new(kernel_compiled);
        let mut serial = GrammarMatcher::new(serial_compiled);
        let mut kernel_mask = TokenBitmask::new_all_rejected(vocab.len());
        let mut serial_mask = TokenBitmask::new_all_rejected(vocab.len());

        for step in 0..16 {
            kernel.fill_next_token_bitmask(&mut kernel_mask);
            serial.fill_next_token_bitmask(&mut serial_mask);
            prop_assert_eq!(
                &kernel_mask, &serial_mask,
                "kernel and serial masks diverged at step {}", step
            );
            // Deterministically pick an allowed non-special token from the
            // walk seed; stop when the grammar can only terminate.
            let allowed: Vec<TokenId> = kernel_mask
                .allowed_tokens()
                .filter(|&t| !vocab.is_special(t))
                .collect();
            if allowed.is_empty() {
                break;
            }
            let pick = allowed[(walk_seed as usize + step * 7) % allowed.len()];
            prop_assert_eq!(
                kernel.accept_token(pick),
                serial.accept_token(pick),
                "acceptance diverged for token {:?}", pick
            );
            if kernel.is_terminated() {
                break;
            }
        }
    }
}
