//! Cross-crate integration tests: grammar front end → automata → core engine
//! → baselines → datasets, exercised together the way the benchmark harness
//! and the serving engine use them.

use std::sync::Arc;

use xg_baselines::{ConstrainedBackend, NaivePdaBackend, XGrammarBackend};
use xg_core::{
    CompilerConfig, ConstraintMatcher, GrammarCompiler, GrammarMatcher, StructuralTagMatcher,
    TokenBitmask,
};
use xg_tokenizer::{test_vocabulary, Vocabulary};

fn vocab() -> Arc<Vocabulary> {
    Arc::new(test_vocabulary(1500))
}

/// Greedily drives a matcher along a reference output, asserting that every
/// chosen token was allowed by the freshly generated mask.
fn drive_reference(vocab: &Vocabulary, matcher: &mut GrammarMatcher, reference: &[u8]) -> Vec<u8> {
    let mut mask = TokenBitmask::new_all_rejected(vocab.len());
    let mut output = Vec::new();
    let mut cursor = 0;
    while cursor < reference.len() {
        matcher.fill_next_token_bitmask(&mut mask);
        let mut best = None;
        let mut best_len = 0;
        for token in mask.allowed_tokens() {
            let bytes = vocab.token_bytes(token);
            if reference[cursor..].starts_with(bytes) && bytes.len() > best_len {
                best = Some(token);
                best_len = bytes.len();
            }
        }
        let token = best.unwrap_or_else(|| {
            panic!(
                "no allowed token continues the reference at byte {cursor} of {:?}",
                String::from_utf8_lossy(reference)
            )
        });
        matcher
            .accept_token(token)
            .expect("token was allowed by the mask");
        output.extend_from_slice(vocab.token_bytes(token));
        cursor += best_len;
    }
    output
}

#[test]
fn schema_constrained_generation_reproduces_every_dataset_reference() {
    let vocab = vocab();
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    for task in xg_datasets::json_mode_eval_like(15, 0xE2E) {
        let compiled = compiler
            .compile_json_schema(&task.schema)
            .expect("dataset schemas convert");
        let mut matcher = GrammarMatcher::new(compiled);
        let output = drive_reference(&vocab, &mut matcher, &task.reference);
        assert_eq!(output, task.reference);
        assert!(
            matcher.can_terminate(),
            "reference must complete the schema"
        );
        let eos = vocab.eos().unwrap();
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        matcher.fill_next_token_bitmask(&mut mask);
        assert!(mask.is_allowed(eos));
    }
}

#[test]
fn builtin_grammars_accept_their_dataset_outputs_through_the_matcher() {
    let vocab = vocab();
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let cases = [
        (
            xg_grammar::builtin::json_grammar(),
            xg_datasets::json_documents(5, 1)
                .into_iter()
                .map(|t| t.reference)
                .collect::<Vec<_>>(),
        ),
        (
            xg_grammar::builtin::xml_grammar(),
            xg_datasets::xml_tasks(5, 1)
                .into_iter()
                .map(|t| t.reference)
                .collect(),
        ),
        (
            xg_grammar::builtin::python_dsl_grammar(),
            xg_datasets::python_dsl_tasks(5, 1)
                .into_iter()
                .map(|t| t.reference)
                .collect(),
        ),
    ];
    for (grammar, references) in cases {
        let compiled = compiler.compile_grammar(&grammar);
        for reference in references {
            let mut matcher = GrammarMatcher::new(Arc::clone(&compiled));
            let out = drive_reference(&vocab, &mut matcher, &reference);
            assert_eq!(out, reference);
            assert!(matcher.can_terminate());
        }
    }
}

#[test]
fn cached_engine_and_naive_baseline_agree_on_masks_along_a_generation() {
    let vocab = vocab();
    let grammar = xg_grammar::builtin::json_grammar();
    let xg = XGrammarBackend::new(Arc::clone(&vocab));
    let naive = NaivePdaBackend::new(Arc::clone(&vocab));
    let mut xg_session = xg.compile(&grammar).unwrap().new_session();
    let mut naive_session = naive.compile(&grammar).unwrap().new_session();

    let reference = br#"{"items": [1, {"name": "x"}], "ok": true}"#;
    let mut xg_mask = TokenBitmask::new_all_rejected(vocab.len());
    let mut naive_mask = TokenBitmask::new_all_rejected(vocab.len());
    // Step the two engines with the single-byte tokens of the reference and
    // compare the full masks at every position.
    for (i, &b) in reference.iter().enumerate() {
        xg_session.fill_next_token_bitmask(&mut xg_mask);
        naive_session.fill_next_token_bitmask(&mut naive_mask);
        assert_eq!(
            xg_mask, naive_mask,
            "mask divergence at byte {i} of the reference"
        );
        let token = vocab.iter().find(|(_, t)| *t == [b]).unwrap().0;
        assert!(xg_mask.is_allowed(token));
        xg_session.accept_token(token).unwrap();
        naive_session.accept_token(token).unwrap();
    }
    assert!(xg_session.can_terminate());
    assert!(naive_session.can_terminate());
}

/// Walks one subject's reference token by token under each of Table 3's rows
/// (`lanes`, in row order): before every token, and once more at the end,
/// every row's mask equals the default row's, and the reference token is
/// allowed and accepted by each. Returns the number of masks compared.
fn walk_every_row(
    subject: &str,
    vocab: &Vocabulary,
    lanes: &mut [Box<dyn ConstraintMatcher>],
    reference: &[u8],
) -> usize {
    let (tokens, covered) = vocab.sorted().longest_prefix_cover(vocab, reference);
    assert_eq!(
        covered,
        reference.len(),
        "{subject}: the reference tokenizes"
    );
    let eos = vocab.eos().expect("the test vocabulary has EOS");
    let mut masks = vec![TokenBitmask::new_all_rejected(vocab.len()); lanes.len()];
    for (step, &token) in tokens.iter().chain([&eos]).enumerate() {
        for (lane, mask) in lanes.iter_mut().zip(&mut masks) {
            lane.fill_next_token_bitmask(mask);
        }
        let (default, rows) = masks.split_last().expect("five rows");
        for (row, mask) in CompilerConfig::ROWS.iter().zip(rows) {
            assert_eq!(mask, default, "{subject}: {row:?} at step {step}");
        }
        assert!(default.is_allowed(token), "{subject}: step {step}");
        for (row, lane) in CompilerConfig::ROWS.iter().zip(lanes.iter_mut()) {
            let accepted = lane.accept_token(token);
            assert!(accepted.is_ok(), "{subject}: {row:?} at step {step}");
        }
    }
    tokens.len() + 1
}

/// Every Table 3 row gives the same masks: builtin JSON, XML, a schema-corpus
/// schema and an agent tool call compiled under each of the five rows agree
/// on every mask along each subject's reference, and each row accepts the
/// reference and its EOS.
#[test]
fn ablation_configurations_all_produce_correct_masks() {
    let vocab = Arc::new(test_vocabulary(600));
    let compilers =
        CompilerConfig::ROWS.map(|row| GrammarCompiler::with_config(Arc::clone(&vocab), row));
    let grammar_lanes = |grammar: &xg_grammar::Grammar| -> Vec<Box<dyn ConstraintMatcher>> {
        let lane = |c: &GrammarCompiler| -> Box<dyn ConstraintMatcher> {
            Box::new(GrammarMatcher::new(
                c.compile_grammar_checked(grammar).unwrap(),
            ))
        };
        compilers.iter().map(lane).collect()
    };
    let schema = xg_datasets::schema_corpus(12, 0x5C0)
        .into_iter()
        .find(|case| case.feature == "ref-recursive")
        .expect("the corpus has a recursive case");
    let subjects = [
        (
            "builtin JSON",
            xg_grammar::builtin::json_grammar(),
            xg_datasets::json_documents(1, 3).remove(0).reference,
        ),
        (
            "XML",
            xg_grammar::builtin::xml_grammar(),
            xg_datasets::xml_tasks(1, 3).remove(0).reference,
        ),
        (
            "schema corpus",
            xg_grammar::json_schema_to_grammar(&schema.schema).unwrap(),
            schema.valid[0].clone().into_bytes(),
        ),
    ];
    let mut masks = 0;
    for (subject, grammar, reference) in &subjects {
        masks += walk_every_row(subject, &vocab, &mut grammar_lanes(grammar), reference);
    }

    let turn = xg_datasets::agent_sessions(1, 2, 1, 3)
        .remove(0)
        .turns
        .remove(0);
    let mut tool_lanes: Vec<Box<dyn ConstraintMatcher>> = compilers
        .iter()
        .map(|c| -> Box<dyn ConstraintMatcher> {
            let dispatch = c.compile_tag_dispatch(&turn.catalog).unwrap();
            Box::new(StructuralTagMatcher::new(dispatch))
        })
        .collect();
    let reference = &turn.task.reference;
    let tool_call = xg_datasets::TOOL_CALL_END.as_bytes();
    assert!(reference.windows(tool_call.len()).any(|w| w == tool_call));
    masks += walk_every_row("agent tool call", &vocab, &mut tool_lanes, reference);
    assert!(masks > 100, "{masks} masks compared");
}

#[test]
fn rollback_supports_tree_structured_exploration() {
    // Tree-of-thought style usage (§3.3): branch the generation, explore one
    // branch, roll back, explore another.
    let vocab = vocab();
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let compiled = compiler
        .compile_ebnf(r#"root ::= "[" [0-9]{1,3} "]""#, "root")
        .unwrap();
    let mut matcher = GrammarMatcher::new(compiled);
    let token = |bytes: &[u8]| vocab.iter().find(|(_, t)| *t == bytes).unwrap().0;

    matcher.accept_token(token(b"[")).unwrap();
    matcher.accept_token(token(b"1")).unwrap();
    matcher.accept_token(token(b"]")).unwrap();
    assert!(matcher.can_terminate());
    // Roll the closing bracket and the digit back, try a longer number.
    matcher.rollback(2).unwrap();
    matcher.accept_token(token(b"4")).unwrap();
    matcher.accept_token(token(b"2")).unwrap();
    matcher.accept_token(token(b"]")).unwrap();
    assert!(matcher.can_terminate());
}
