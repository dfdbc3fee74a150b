//! JSON-Schema conformance: every instance generated by `xg_datasets`'
//! function-calling tasks serializes to bytes that the grammar compiled from
//! its own schema accepts **token by token** through the synthetic
//! tokenizer — each token must be allowed by the freshly generated mask
//! before it is accepted, and the final state must admit EOS.
//!
//! The jump-forward pass extends the guarantee to engine-level forced-token
//! injection: every token of a forced run's longest-prefix cover must be
//! individually admitted by the mask of a *shadow* matcher advanced in
//! lock-step — injection skips mask generation for speed, never soundness.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use serde_json::json;
use xg_automata::{build_pda_default, Pda, SimpleMatcher};
use xg_core::{CompiledGrammar, ConstraintMatcher, GrammarCompiler, GrammarMatcher, TokenBitmask};
use xg_datasets::SchemaCase;
use xg_grammar::JsonSchemaOptions;
use xg_tokenizer::{test_vocabulary, TokenId, Vocabulary};

/// Greedy longest-match tokenization of `bytes` against the vocabulary
/// (byte-fallback tokens guarantee totality).
fn tokenize_greedy(vocab: &Vocabulary, bytes: &[u8]) -> Vec<TokenId> {
    let mut out = Vec::new();
    let mut cursor = 0;
    while cursor < bytes.len() {
        let mut best: Option<(TokenId, usize)> = None;
        for (id, token) in vocab.iter() {
            if vocab.is_special(id) || token.is_empty() {
                continue;
            }
            if bytes[cursor..].starts_with(token) && best.is_none_or(|(_, len)| token.len() > len) {
                best = Some((id, token.len()));
            }
        }
        let (id, len) = best.expect("byte-fallback tokens make tokenization total");
        out.push(id);
        cursor += len;
    }
    out
}

#[test]
fn dataset_instances_are_accepted_token_by_token_by_their_schema_grammar() {
    let vocab = Arc::new(test_vocabulary(1500));
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let eos = vocab.eos().expect("synthetic vocabulary has EOS");
    let mut mask = TokenBitmask::new_all_rejected(vocab.len());

    for (case, task) in xg_datasets::json_mode_eval_like(20, 0xC0F)
        .into_iter()
        .enumerate()
    {
        // The instance itself is valid JSON.
        let parsed: serde_json::Value =
            serde_json::from_slice(&task.reference).expect("dataset instance is valid JSON");
        assert!(parsed.is_object(), "function-call arguments are an object");

        let compiled = compiler
            .compile_json_schema(&task.schema)
            .expect("dataset schemas convert to grammars");
        let mut matcher = GrammarMatcher::new(compiled);

        let tokens = tokenize_greedy(&vocab, &task.reference);
        assert!(tokens.len() > 1, "reference tokenizes into multiple tokens");
        for (pos, &token) in tokens.iter().enumerate() {
            matcher.fill_next_token_bitmask(&mut mask);
            assert!(
                mask.is_allowed(token),
                "case {case} ({}): token {pos} {:?} rejected by the mask\ninstance: {}",
                task.function_name,
                String::from_utf8_lossy(vocab.token_bytes(token)),
                String::from_utf8_lossy(&task.reference)
            );
            matcher
                .accept_token(token)
                .expect("token allowed by the mask is accepted");
        }

        // The complete instance terminates the grammar: EOS is allowed and
        // accepted.
        assert!(
            matcher.can_terminate(),
            "case {case}: instance must complete the schema"
        );
        matcher.fill_next_token_bitmask(&mut mask);
        assert!(
            mask.is_allowed(eos),
            "case {case}: EOS must be allowed at the end"
        );
        matcher
            .accept_token(eos)
            .expect("EOS accepted at completion");
        assert!(matcher.is_terminated());
    }
}

/// Decodes every dataset instance with engine-style jump-forward: whenever
/// the grammar forces text, the forced bytes
/// ([`ConstraintMatcher::find_jump_forward_string`]) are re-tokenized as
/// their longest-prefix cover, as the serving lane does, and injected without
/// mask generation — while a shadow matcher checks that each injected token
/// *would have been* admitted by a freshly generated mask. No mask-skipping
/// unsoundness: injection must be a pure fast path.
#[test]
fn jump_forward_cover_tokens_are_individually_mask_admitted() {
    let vocab = Arc::new(test_vocabulary(1500));
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let eos = vocab.eos().unwrap();
    let mut mask = TokenBitmask::new_all_rejected(vocab.len());
    let mut shadow_mask = TokenBitmask::new_all_rejected(vocab.len());
    let mut total_forced = 0usize;

    for (case, task) in xg_datasets::json_mode_eval_like(12, 0x1F0)
        .into_iter()
        .enumerate()
    {
        let compiled = compiler
            .compile_json_schema(&task.schema)
            .expect("dataset schemas convert to grammars");
        // `matcher` drives injection exactly like the serving engine (no
        // mask before forced tokens); `shadow` re-derives every mask.
        let mut matcher = GrammarMatcher::new(Arc::clone(&compiled));
        let mut shadow = GrammarMatcher::new(compiled);
        let mut cursor = 0usize;

        while cursor < task.reference.len() {
            let forced = ConstraintMatcher::find_jump_forward_string(&mut matcher);
            let (cover, covered) = vocab.sorted().longest_prefix_cover(&vocab, &forced);
            if !cover.is_empty() {
                assert_eq!(
                    covered,
                    forced.len(),
                    "case {case}: byte-fallback tokens must cover all forced bytes"
                );
                // Forced bytes are the unique continuation, and the reference
                // is a valid instance — so the reference continues with them.
                assert!(
                    task.reference[cursor..].starts_with(&forced),
                    "case {case}: forced bytes {:?} diverge from the instance at {cursor}",
                    String::from_utf8_lossy(&forced)
                );
                for &token in &cover {
                    shadow.fill_next_token_bitmask(&mut shadow_mask);
                    assert!(
                        shadow_mask.is_allowed(token),
                        "case {case}: forced token {:?} not admitted by the shadow mask",
                        String::from_utf8_lossy(vocab.token_bytes(token))
                    );
                    shadow.accept_token(token).expect("shadow mirrors the run");
                    matcher
                        .accept_token(token)
                        .expect("forced cover tokens are always acceptable");
                    cursor += vocab.token_bytes(token).len();
                    total_forced += 1;
                }
                continue;
            }
            // Nothing forced: sample greedily along the reference, as the
            // constrained proposer would.
            matcher.fill_next_token_bitmask(&mut mask);
            let token = vocab
                .iter()
                .filter(|(id, bytes)| {
                    !vocab.is_special(*id)
                        && task.reference[cursor..].starts_with(bytes)
                        && mask.is_allowed(*id)
                })
                .max_by_key(|(_, bytes)| bytes.len())
                .map(|(id, _)| id)
                .unwrap_or_else(|| {
                    panic!(
                        "case {case}: no allowed token continues the instance at {cursor}: {}",
                        String::from_utf8_lossy(&task.reference)
                    )
                });
            matcher
                .accept_token(token)
                .expect("mask admitted the token");
            shadow.accept_token(token).expect("shadow mirrors sampling");
            cursor += vocab.token_bytes(token).len();
        }

        // Both matchers agree the instance is complete.
        for m in [&mut matcher, &mut shadow] {
            assert!(m.can_terminate(), "case {case}: instance must complete");
            m.accept_token(eos).expect("EOS accepted at completion");
        }
    }
    assert!(
        total_forced > 50,
        "jump-forward pass barely ran ({total_forced} forced tokens)"
    );
}

#[test]
fn truncated_instances_do_not_admit_eos() {
    // Cutting an instance short must leave the matcher in a state where EOS
    // is rejected — conformance is not just "accepts the full string".
    let vocab = Arc::new(test_vocabulary(1500));
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let eos = vocab.eos().unwrap();
    let mut mask = TokenBitmask::new_all_rejected(vocab.len());

    for task in xg_datasets::json_mode_eval_like(5, 0xC0F) {
        let compiled = compiler.compile_json_schema(&task.schema).unwrap();
        let mut matcher = GrammarMatcher::new(compiled);
        // Stop halfway through the byte string.
        matcher
            .accept_bytes(&task.reference[..task.reference.len() / 2])
            .expect("every prefix of a valid instance is viable");
        assert!(!matcher.can_terminate());
        matcher.fill_next_token_bitmask(&mut mask);
        assert!(!mask.is_allowed(eos));
    }
}

// ---------------------------------------------------------------------------
// Property suite over the generated JSON-Schema conformance corpus: the
// per-feature schemas from `xg_datasets::schema_corpus` (pattern, format,
// digit-wise numeric bounds, multipleOf, allOf, $ref, ...) exercised through
// the full mask-generation pipeline and, for mutated instances, checked in
// byte-level lockstep against the reference PDA executor.
// ---------------------------------------------------------------------------

const CORPUS_CASES: usize = 36;

/// `anyOf`/`oneOf` siblings apply to every branch: each branch converts
/// together with the sibling keywords.
#[test]
fn any_of_siblings_apply_to_every_branch() {
    let accepts = |schema: &serde_json::Value, text: &str| {
        let grammar = xg_grammar::json_schema_to_grammar(schema).expect("schema converts");
        SimpleMatcher::new(&build_pda_default(&grammar)).accepts(text.as_bytes())
    };
    let bounded =
        serde_json::json!({"type": "integer", "minimum": 5, "anyOf": [{"type": "integer"}]});
    assert!(accepts(&bounded, "5"));
    assert!(!accepts(&bounded, "1"));

    // The sibling `type` and the branch's have an empty intersection.
    let disjoint = serde_json::json!({"type": "string", "anyOf": [{"type": "integer"}]});
    assert!(matches!(
        xg_grammar::json_schema_to_grammar(&disjoint),
        Err(xg_grammar::GrammarError::Schema { .. })
    ));

    // Branches that differ only in `required` share the sibling properties.
    let either = serde_json::json!({
        "type": "object",
        "properties": {"a": {"type": "integer"}, "b": {"type": "integer"}},
        "oneOf": [{"required": ["a"]}, {"required": ["b"]}]
    });
    for text in [r#"{"a": 1}"#, r#"{"b": 2}"#, r#"{"a": 1, "b": 2}"#] {
        assert!(accepts(&either, text), "{text}");
    }
    for text in ["{}", r#"{"a": "x"}"#, r#"{"c": 1}"#, "[]"] {
        assert!(!accepts(&either, text), "{text}");
    }
}

/// Whether the grammar `schema` converts to under `options` accepts `text`.
fn accepts_with(options: &JsonSchemaOptions, schema: &serde_json::Value, text: &str) -> bool {
    let grammar = xg_grammar::json_schema_to_grammar_with_options(schema, options)
        .unwrap_or_else(|e| panic!("{schema} converts: {e}"));
    SimpleMatcher::new(&build_pda_default(&grammar)).accepts(text.as_bytes())
}

/// `allOf` members are read keyword by keyword: a draft-4 boolean
/// `exclusiveMinimum` binds to its own member's `minimum`, and bounds,
/// property schemas and literals from different members meet.
#[test]
fn all_of_members_meet_keyword_by_keyword() {
    let strict = JsonSchemaOptions::default();
    let lenient = JsonSchemaOptions {
        lenient: true,
        ..Default::default()
    };
    let is_schema_error = |schema: &serde_json::Value, options: &JsonSchemaOptions| {
        matches!(
            xg_grammar::json_schema_to_grammar_with_options(schema, options),
            Err(xg_grammar::GrammarError::Schema { .. })
        )
    };

    // `3 > 1` and `3 >= 3`: the boolean makes only its own `minimum` exclusive.
    let draft4 = json!({"type": "integer", "allOf": [
        {"minimum": 1, "exclusiveMinimum": true}, {"minimum": 3}
    ]});
    for options in [&strict, &lenient] {
        assert!(accepts_with(options, &draft4, "3"));
        assert!(accepts_with(options, &draft4, "4"));
        assert!(!accepts_with(options, &draft4, "2"));
    }

    // The boolean and the numeric form mix across members.
    let mixed = json!({"type": "integer", "allOf": [
        {"minimum": 1, "exclusiveMinimum": true}, {"exclusiveMinimum": 5}
    ]});
    for options in [&strict, &lenient] {
        assert!(accepts_with(options, &mixed, "6"));
        assert!(!accepts_with(options, &mixed, "5"));
    }

    // A boolean whose own member has no `minimum` modifies nothing.
    let dangling = json!({"type": "integer", "exclusiveMinimum": true, "allOf": [{"minimum": 3}]});
    assert!(is_schema_error(&dangling, &strict));
    assert!(accepts_with(&lenient, &dangling, "3"));
    assert!(!accepts_with(&lenient, &dangling, "2"));

    // A property declared by two members meets both schemas.
    let property = json!({
        "type": "object",
        "properties": {"n": {"type": "integer", "minimum": 0}},
        "required": ["n"],
        "allOf": [{"properties": {"n": {"maximum": 9}}}]
    });
    assert!(accepts_with(&strict, &property, r#"{"n": 9}"#));
    for text in [r#"{"n": 10}"#, r#"{"n": -1}"#, r#"{"n": "x"}"#] {
        assert!(!accepts_with(&strict, &property, text), "{text}");
    }

    // `const` and `enum` intersect; an empty intersection is an error.
    let literal = json!({"allOf": [{"enum": [1, 2, 3]}, {"const": 2}]});
    assert!(accepts_with(&strict, &literal, "2"));
    assert!(!accepts_with(&strict, &literal, "1"));
    let disjoint = json!({"const": 1, "enum": [2]});
    assert!(is_schema_error(&disjoint, &strict));
    assert!(is_schema_error(&disjoint, &lenient));

    // Two members' different `anyOf`s have no intersection the converter
    // builds: strict mode refuses, lenient mode keeps the first.
    let two = json!({"allOf": [
        {"anyOf": [{"type": "integer"}]}, {"anyOf": [{"type": "string"}]}
    ]});
    assert!(is_schema_error(&two, &strict));
    assert!(accepts_with(&lenient, &two, "1"));
}

struct CorpusFixture {
    vocab: Arc<Vocabulary>,
    eos: TokenId,
    cases: Vec<(SchemaCase, Arc<CompiledGrammar>, Pda)>,
}

/// Corpus + compiled grammars + reference PDAs, built once per process.
fn corpus_fixture() -> &'static CorpusFixture {
    static FIXTURE: OnceLock<CorpusFixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let vocab = Arc::new(test_vocabulary(1500));
        let compiler = GrammarCompiler::new(Arc::clone(&vocab));
        let cases = xg_datasets::schema_corpus(CORPUS_CASES, 0x9D5)
            .into_iter()
            .map(|case| {
                let grammar = xg_grammar::json_schema_to_grammar(&case.schema)
                    .expect("corpus schemas convert in strict mode");
                let compiled = compiler.compile_grammar(&grammar);
                let pda = build_pda_default(&grammar);
                (case, compiled, pda)
            })
            .collect();
        let eos = vocab.eos().expect("synthetic vocabulary has EOS");
        CorpusFixture { vocab, eos, cases }
    })
}

/// The whole corpus, not a sample of it: every valid instance of 200+
/// schemas over 10+ converter features is admitted token by token (each
/// token allowed by a freshly generated mask) and ends on EOS, and every
/// known-invalid instance is refused or left unable to terminate.
#[test]
fn whole_corpus_admits_every_valid_and_rejects_every_invalid_instance() {
    let vocab = Arc::new(test_vocabulary(1500));
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let eos = vocab.eos().expect("synthetic vocabulary has EOS");
    let mut mask = TokenBitmask::new_all_rejected(vocab.len());
    let cases = xg_datasets::schema_corpus(204, 0x5C0);
    let features: std::collections::BTreeSet<_> = cases.iter().map(|c| c.feature).collect();
    assert!(cases.len() >= 200 && features.len() >= 10);
    let (mut valid, mut invalid) = (0usize, 0usize);

    for case in &cases {
        let compiled = compiler
            .compile_json_schema(&case.schema)
            .expect("corpus schemas compile");
        // The grammar-level lint of the same corpus is
        // `grammar_lint::schema_corpus_grammars_lint_clean`.
        let dead = xg_core::dead_states(&compiled);
        assert!(
            dead.is_empty(),
            "feature {}: the vocabulary-aware lint found {dead:?}",
            case.feature
        );
        for instance in &case.valid {
            let (tokens, covered) = vocab
                .sorted()
                .longest_prefix_cover(&vocab, instance.as_bytes());
            assert_eq!(covered, instance.len(), "byte fallback covers everything");
            let mut matcher = GrammarMatcher::new(Arc::clone(&compiled));
            for &token in tokens.iter().chain([&eos]) {
                matcher.fill_next_token_bitmask(&mut mask);
                assert!(
                    mask.is_allowed(token) && matcher.accept_token(token).is_ok(),
                    "feature {}: valid instance {instance:?} refused at {:?}",
                    case.feature,
                    String::from_utf8_lossy(vocab.token_bytes(token)),
                );
            }
            assert!(matcher.is_terminated());
            valid += 1;
        }
        for instance in &case.invalid {
            let mut matcher = GrammarMatcher::new(Arc::clone(&compiled));
            assert!(
                matcher.accept_bytes(instance.as_bytes()).is_err() || !matcher.can_terminate(),
                "feature {}: invalid instance {instance:?} accepted",
                case.feature,
            );
            invalid += 1;
        }
    }
    assert!(valid > 0 && invalid > 0, "{valid} valid, {invalid} invalid");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every known-valid corpus instance is admitted token by token — each
    /// greedy token is allowed by a freshly generated mask — and leaves the
    /// matcher in a state that admits EOS.
    #[test]
    fn corpus_instances_admitted_token_by_token(
        case_sel in 0usize..CORPUS_CASES,
        instance_sel in 0usize..64,
    ) {
        let fixture = corpus_fixture();
        let (case, compiled, _) = &fixture.cases[case_sel];
        let instance = &case.valid[instance_sel % case.valid.len()];
        let tokens = tokenize_greedy(&fixture.vocab, instance.as_bytes());
        let mut matcher = GrammarMatcher::new(Arc::clone(compiled));
        let mut mask = TokenBitmask::new_all_rejected(fixture.vocab.len());
        for (pos, &token) in tokens.iter().enumerate() {
            matcher.fill_next_token_bitmask(&mut mask);
            prop_assert!(
                mask.is_allowed(token),
                "feature {}: token {pos} {:?} of valid instance {instance:?} rejected",
                case.feature,
                String::from_utf8_lossy(fixture.vocab.token_bytes(token)),
            );
            prop_assert!(matcher.accept_token(token).is_ok());
        }
        prop_assert!(
            matcher.can_terminate(),
            "feature {}: complete instance {instance:?} cannot terminate",
            case.feature,
        );
        matcher.fill_next_token_bitmask(&mut mask);
        prop_assert!(mask.is_allowed(fixture.eos));
    }

    /// Byte-level differential on mutated instances: flip one byte of a
    /// valid instance and feed the result to both the optimized matcher and
    /// the reference PDA executor, byte by byte. Both must agree at every
    /// step, so the matcher rejects exactly at the first byte with no viable
    /// continuation (never later) — and never before the mutation point,
    /// since the unmutated prefix is a prefix of a valid instance.
    #[test]
    fn mutated_instances_rejected_in_lockstep_with_reference(
        case_sel in 0usize..CORPUS_CASES,
        instance_sel in 0usize..64,
        pos_sel in 0usize..1024,
        replacement in proptest::sample::select(b"x9\"}{,:.- Z\x00".to_vec()),
    ) {
        let fixture = corpus_fixture();
        let (case, compiled, pda) = &fixture.cases[case_sel];
        let instance = case.valid[instance_sel % case.valid.len()].as_bytes();
        let pos = pos_sel % instance.len();
        if instance[pos] == replacement {
            return Ok(()); // not a mutation
        }
        let mut mutated = instance.to_vec();
        mutated[pos] = replacement;

        let mut matcher = GrammarMatcher::new(Arc::clone(compiled));
        let mut reference = SimpleMatcher::new(pda);
        for (i, &byte) in mutated.iter().enumerate() {
            let matcher_ok = matcher.accept_bytes(&[byte]).is_ok();
            let reference_ok = reference.advance_bytes(&[byte]);
            prop_assert_eq!(
                matcher_ok,
                reference_ok,
                "feature {}: engines diverge at byte {i} of {:?}",
                case.feature,
                String::from_utf8_lossy(&mutated),
            );
            if !matcher_ok {
                prop_assert!(
                    i >= pos,
                    "feature {}: rejected at byte {i}, before the mutation at {pos}",
                    case.feature,
                );
                return Ok(());
            }
        }
        // The mutated string was fully consumed; both engines must agree on
        // whether it is a complete instance.
        prop_assert_eq!(
            matcher.can_terminate(),
            reference.can_terminate(),
            "feature {}: termination disagreement on {:?}",
            case.feature,
            String::from_utf8_lossy(&mutated),
        );
    }
}
