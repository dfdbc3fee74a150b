//! Integration tests for the structural-tag (tag dispatch) layer: tagged
//! segments must behave exactly like the standalone compiled sub-grammar,
//! free text must stay unconstrained, and rollback must work across mode
//! boundaries.

use std::sync::Arc;

use xg_core::{
    ConstraintMatcher, DispatchMode, GrammarCompiler, GrammarMatcher, StructuralTagMatcher,
    TokenBitmask,
};
use xg_datasets::tool_call_tasks;
use xg_grammar::{StructuralTag, TagContent, TagSpec};
use xg_tokenizer::{test_vocabulary, TokenId, Vocabulary};

fn token_for(vocab: &Vocabulary, bytes: &[u8]) -> TokenId {
    vocab
        .iter()
        .find(|(_, t)| *t == bytes)
        .map(|(id, _)| id)
        .expect("single-byte token exists")
}

/// Drives a structural-tag matcher over real tool-call transcripts with
/// single-byte tokens and checks, at every in-tag step, that the mask equals
/// the mask of a standalone matcher compiled from the same trigger grammar —
/// i.e. a tagged segment decodes exactly like the sub-grammar on its own.
#[test]
fn tagged_segments_have_mask_parity_with_standalone_grammar() {
    let vocab = Arc::new(test_vocabulary(800));
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let mut compared_steps = 0usize;
    let mut segments = 0usize;

    for (i, task) in tool_call_tasks(4, 0xD15).iter().enumerate() {
        let tag = task.structural_tag();
        let compiled = compiler.compile_tag_dispatch(&tag).expect("tags compile");
        let mut matcher = StructuralTagMatcher::new(Arc::clone(&compiled));
        let mut standalone: Option<GrammarMatcher> = None;
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        let mut standalone_mask = TokenBitmask::new_all_rejected(vocab.len());

        for (pos, &b) in task.reference.iter().enumerate() {
            if let DispatchMode::Tagged { trigger } = matcher.mode() {
                let standalone = standalone.get_or_insert_with(|| {
                    GrammarMatcher::new(Arc::clone(compiled.triggers()[trigger].grammar()))
                });
                matcher.fill_next_token_bitmask(&mut mask);
                standalone.fill_next_token_bitmask(&mut standalone_mask);
                assert_eq!(
                    mask, standalone_mask,
                    "task {i}: in-tag mask diverges at byte {pos}"
                );
                // Token-by-token conformance: the reference byte is allowed.
                assert!(
                    mask.is_allowed(token_for(&vocab, &[b])),
                    "task {i}: reference byte {:?} rejected at {pos}",
                    b as char
                );
                standalone.accept_bytes(&[b]).expect("parity with matcher");
                compared_steps += 1;
            }
            let was_tagged = matches!(matcher.mode(), DispatchMode::Tagged { .. });
            matcher
                .accept_token(token_for(&vocab, &[b]))
                .unwrap_or_else(|e| panic!("task {i}: byte {pos} rejected: {e}"));
            // When the segment closes, the standalone matcher must agree that
            // the segment text was a complete sentence of the sub-grammar.
            if was_tagged && matcher.mode() == DispatchMode::FreeText {
                let mut done = standalone.take().expect("segment had a matcher");
                assert!(
                    done.can_terminate(),
                    "task {i}: standalone disagrees on end"
                );
                segments += 1;
            }
        }
        assert_eq!(matcher.mode(), DispatchMode::FreeText);
        assert!(matcher.can_terminate());
        assert_eq!(matcher.stats().tags_opened, matcher.stats().tags_closed);
    }
    assert!(
        segments >= 4,
        "expected several tagged segments, got {segments}"
    );
    assert!(compared_steps > 100, "parity comparison barely ran");
}

/// Free text is fully unconstrained: every non-special token (and EOS) is
/// allowed, whatever prose was emitted before.
#[test]
fn free_text_masks_are_all_allowed() {
    let vocab = Arc::new(test_vocabulary(800));
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let task = &tool_call_tasks(1, 3)[0];
    let compiled = compiler
        .compile_tag_dispatch(&task.structural_tag())
        .unwrap();
    let mut matcher = StructuralTagMatcher::new(compiled);
    matcher
        .accept_bytes(b"arbitrary prose with < and <f noise")
        .unwrap();
    let mut mask = TokenBitmask::new_all_rejected(vocab.len());
    matcher.fill_next_token_bitmask(&mut mask);
    for (token, _) in vocab.iter() {
        if vocab.is_special(token) && Some(token) != vocab.eos() {
            assert!(!mask.is_allowed(token));
        } else {
            assert!(
                mask.is_allowed(token),
                "token {token:?} masked in free text"
            );
        }
    }
    assert_eq!(matcher.stats().free_masks, 1);
}

/// Rollback across a tag boundary restores the exact pre-tag state, even
/// when the boundary was crossed mid-token.
#[test]
fn rollback_across_boundaries_with_multibyte_tokens() {
    let vocab = Arc::new(test_vocabulary(800));
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let task = &tool_call_tasks(1, 9)[0];
    let compiled = compiler
        .compile_tag_dispatch(&task.structural_tag())
        .unwrap();
    let mut matcher = StructuralTagMatcher::new(compiled);
    let mut pre_mask = TokenBitmask::new_all_rejected(vocab.len());
    let mut mask = TokenBitmask::new_all_rejected(vocab.len());

    matcher.accept_bytes(b"prose ").unwrap();
    matcher.fill_next_token_bitmask(&mut pre_mask);
    let stats_before = matcher.stats();

    // One unit crosses free text -> trigger -> into the constrained segment.
    let begin = task.functions[0].begin_tag();
    matcher
        .accept_bytes(format!("{begin}{{").as_bytes())
        .unwrap();
    assert!(matches!(matcher.mode(), DispatchMode::Tagged { .. }));

    matcher.rollback(1).unwrap();
    assert_eq!(matcher.mode(), DispatchMode::FreeText);
    matcher.fill_next_token_bitmask(&mut mask);
    assert_eq!(mask, pre_mask, "pre-tag mask must be restored");
    assert_eq!(matcher.stats().free_masks, stats_before.free_masks + 1);

    // The same tag can be re-entered and completed after the rollback.
    matcher.accept_bytes(begin.as_bytes()).unwrap();
    assert!(matches!(matcher.mode(), DispatchMode::Tagged { .. }));
}

/// Runs `bytes` against a plain (no free-text tail) segment matcher the way
/// the dispatching matcher would: bytes advance the segment grammar until the
/// first position where it can terminate (the eager close), after which any
/// continuation is unconstrained prose. Returns `true` if the whole token is
/// acceptable. The matcher is left exactly as it was found.
fn plain_segment_accepts(plain: &mut GrammarMatcher, bytes: &[u8]) -> bool {
    let mut fed = 0usize;
    let mut ok = true;
    for &b in bytes {
        if plain.can_terminate() {
            break; // segment closed mid-token: the rest is free text
        }
        if plain.accept_bytes(&[b]).is_err() {
            ok = false;
            break;
        }
        fed += 1;
    }
    plain.rollback(fed).expect("only fed units are rolled back");
    ok
}

/// The boundary-union mask (segment grammar + free-text continuation tail)
/// must never admit a token the plain sub-grammar + free-text continuation
/// semantics would reject — and near segment ends it must actually admit
/// tokens the plain grammar alone rejects (the end-tag+prose spanning case).
#[test]
fn boundary_union_masks_are_sound_against_plain_grammar() {
    let vocab = Arc::new(test_vocabulary(800));
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let mut union_only_admissions = 0usize;
    let mut in_tag_steps = 0usize;

    for (i, task) in tool_call_tasks(3, 0xB0B).iter().enumerate() {
        let tag = task.structural_tag();
        let compiled = compiler.compile_tag_dispatch(&tag).expect("tags compile");
        // The *plain* combined grammars, without the free-text tail.
        let plain_grammars: Vec<_> = tag
            .build_trigger_grammars()
            .expect("tag validates")
            .into_iter()
            .map(|(_, g)| compiler.compile_grammar(&g))
            .collect();
        let mut matcher = StructuralTagMatcher::new(Arc::clone(&compiled));
        let mut plain: Option<GrammarMatcher> = None;
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());

        for (pos, &b) in task.reference.iter().enumerate() {
            if let DispatchMode::Tagged { trigger } = matcher.mode() {
                let plain = plain.get_or_insert_with(|| {
                    GrammarMatcher::with_max_rollback(
                        Arc::clone(&plain_grammars[trigger]),
                        usize::MAX,
                    )
                });
                matcher.fill_next_token_bitmask(&mut mask);
                in_tag_steps += 1;
                let mut plain_mask = TokenBitmask::new_all_rejected(vocab.len());
                plain.fill_next_token_bitmask(&mut plain_mask);
                for (token, bytes) in vocab.iter() {
                    if vocab.is_special(token) {
                        continue;
                    }
                    if mask.is_allowed(token) {
                        assert!(
                            plain_segment_accepts(plain, bytes),
                            "task {i}: mask admits {:?} at byte {pos}, but the plain \
                             sub-grammar + free continuation rejects it",
                            String::from_utf8_lossy(bytes)
                        );
                        if !plain_mask.is_allowed(token) {
                            union_only_admissions += 1;
                        }
                    } else {
                        // Completeness: a rejection is only fine if the plain
                        // semantics reject too. The free-text tail is byte
                        // level, so there is no UTF-8 carve-out any more —
                        // even post-close bytes that are not valid UTF-8 on
                        // their own must be admitted.
                        assert!(
                            !plain_segment_accepts(plain, bytes),
                            "task {i}: mask rejects {:?} at byte {pos}, which the \
                             plain sub-grammar + free continuation accepts",
                            String::from_utf8_lossy(bytes)
                        );
                    }
                }
                plain.accept_bytes(&[b]).expect("reference byte advances");
            }
            let was_tagged = matches!(matcher.mode(), DispatchMode::Tagged { .. });
            matcher
                .accept_token(token_for(&vocab, &[b]))
                .unwrap_or_else(|e| panic!("task {i}: byte {pos} rejected: {e}"));
            if was_tagged && matcher.mode() == DispatchMode::FreeText {
                plain = None;
            }
        }
    }
    assert!(in_tag_steps > 100, "differential comparison barely ran");
    assert!(
        union_only_admissions > 0,
        "the free-tail union never admitted a boundary-spanning token"
    );
}

/// Regression for the byte-level free-text tail (ROADMAP "non-UTF-8 boundary
/// continuations"): a token that closes a tagged segment and continues with
/// the *leading bytes* of a multi-byte character — invalid UTF-8 on its own,
/// completed by the next token — must be admitted by the boundary-union mask.
/// The old character-level tail conservatively rejected it, costing a token
/// of throughput at every such boundary.
#[test]
fn boundary_spanning_token_with_split_multibyte_char_is_admitted() {
    // 🎉 is F0 9F 8E 89; the BPE-style split puts the first half at the end
    // of the boundary-spanning token and the second half in its own token.
    let spanning: Vec<u8> = b"}</fn> \xF0\x9F".to_vec();
    let emoji_tail: Vec<u8> = b"\x8E\x89".to_vec();
    let mut tokens: Vec<Vec<u8>> = vec![b"</s>".to_vec()];
    tokens.extend((0u16..256).map(|b| vec![b as u8]));
    let spanning_id = TokenId(tokens.len() as u32);
    tokens.push(spanning.clone());
    let tail_id = TokenId(tokens.len() as u32);
    tokens.push(emoji_tail);
    let vocab = Arc::new(Vocabulary::from_tokens(tokens, Some(0)));

    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let tag = xg_grammar::StructuralTag::new(vec![xg_grammar::TagSpec {
        begin: "<fn>".into(),
        content: xg_grammar::TagContent::Ebnf {
            text: r#"root ::= "{" [a-z]+ "}""#.into(),
            root: "root".into(),
        },
        end: "</fn>".into(),
    }]);
    let compiled = compiler.compile_tag_dispatch(&tag).unwrap();
    let mut matcher = StructuralTagMatcher::new(compiled);
    matcher.accept_bytes(b"go <fn>{abc").unwrap();
    assert!(matches!(matcher.mode(), DispatchMode::Tagged { .. }));

    // The in-segment mask must admit the boundary-spanning token even though
    // its post-close bytes are not a complete UTF-8 sequence.
    let mut mask = TokenBitmask::new_all_rejected(vocab.len());
    matcher.fill_next_token_bitmask(&mut mask);
    assert!(
        mask.is_allowed(spanning_id),
        "byte-level tail must admit the split-multibyte boundary token"
    );
    matcher.accept_token(spanning_id).unwrap();
    assert_eq!(matcher.mode(), DispatchMode::FreeText);
    assert_eq!(matcher.stats().tags_closed, 1);

    // The next token completes the emoji in free text; the transcript as a
    // whole is coherent UTF-8 again and can terminate.
    matcher.fill_next_token_bitmask(&mut mask);
    assert!(mask.is_allowed(tail_id));
    matcher.accept_token(tail_id).unwrap();
    assert!(matcher.can_terminate());
}

/// Jump-forward inside a tagged segment is a rollback unit like any other:
/// rolling back across it restores the pre-jump state, and the same jump is
/// forced again.
#[test]
fn rollback_across_jump_forward_in_tagged_segments() {
    let vocab = Arc::new(test_vocabulary(800));
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let tag = xg_grammar::StructuralTag::with_triggers(
        vec![xg_grammar::TagSpec {
            begin: "<fn=lookup>".into(),
            content: xg_grammar::TagContent::Ebnf {
                text: r#"root ::= "{\"city\": \"" [a-z]+ "\"}""#.into(),
                root: "root".into(),
            },
            end: "</fn>".into(),
        }],
        vec!["<fn=".into()],
    );
    let compiled = compiler.compile_tag_dispatch(&tag).unwrap();
    let mut matcher = StructuralTagMatcher::new(compiled);

    matcher.accept_bytes(b"calling ").unwrap(); // unit 1
    matcher.accept_bytes(b"<fn=").unwrap(); // unit 2: opens the segment
    assert!(matches!(matcher.mode(), DispatchMode::Tagged { .. }));

    // The begin-tag remainder plus the content's forced prefix are jumpable.
    let jump = matcher.find_jump_forward_string();
    assert_eq!(
        jump,
        b"lookup>{\"city\": \"".to_vec(),
        "expected the name remainder and forced content prefix"
    );
    matcher.accept_bytes(&jump).unwrap(); // unit 3: the jump-forward unit
    matcher.accept_bytes(b"oslo").unwrap(); // unit 4
    assert_eq!(matcher.rollback_window(), 4);

    // Roll back across the value and the jump-forward unit: back to the
    // fresh segment right after the trigger fired.
    matcher.rollback(2).unwrap();
    assert!(matches!(matcher.mode(), DispatchMode::Tagged { .. }));
    assert_eq!(matcher.find_jump_forward_string(), jump);

    // Roll back across the segment opening too, then replay the whole call.
    matcher.rollback(1).unwrap();
    assert_eq!(matcher.mode(), DispatchMode::FreeText);
    matcher.accept_bytes(b"<fn=").unwrap();
    matcher.accept_bytes(&jump).unwrap();
    matcher.accept_bytes(b"paris\"}</fn> done").unwrap();
    assert_eq!(matcher.mode(), DispatchMode::FreeText);
    assert!(matcher.can_terminate());
    assert_eq!(matcher.stats().tags_closed, 1);
}

/// An empty end string over repeating content (`[0-9]+`) is the shape with
/// more than one point where the segment could end; the one exit rule closes
/// it at the first.
#[test]
fn an_empty_end_string_closes_at_the_first_terminable_point() {
    let vocab = Arc::new(test_vocabulary(800));
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let tag = StructuralTag::new(vec![TagSpec {
        begin: "<num>".into(),
        content: TagContent::Ebnf {
            text: "root ::= [0-9]+".into(),
            root: "root".into(),
        },
        end: String::new(),
    }]);
    let mut matcher = StructuralTagMatcher::new(compiler.compile_tag_dispatch(&tag).unwrap());
    matcher.accept_bytes(b"<num>").unwrap();
    assert!(matches!(matcher.mode(), DispatchMode::Tagged { .. }));
    matcher.accept_bytes(b"1").unwrap();
    assert_eq!(
        matcher.mode(),
        DispatchMode::FreeText,
        "the segment closes after the first digit"
    );
    assert_eq!(matcher.stats().tags_closed, 1);
    // Further digits are prose.
    matcher.accept_bytes(b"23 and prose").unwrap();
    assert_eq!(matcher.stats().tags_opened, 1);
    assert!(matcher.can_terminate());
}

/// The mask is exactly the accept set, in free text and inside segments: at
/// every byte of real tool-call transcripts, a non-special token is admitted
/// by the mask if and only if `accept_token` takes it, and EOS is admitted if
/// and only if the matcher can terminate.
#[test]
fn tag_masks_are_exactly_the_accept_set() {
    let vocab = Arc::new(test_vocabulary(800));
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let eos = vocab.eos().unwrap();
    let mut mask = TokenBitmask::new_all_rejected(vocab.len());
    let (mut free_steps, mut tag_steps, mut segments) = (0usize, 0usize, 0u64);

    for (i, task) in tool_call_tasks(4, 0xD15).iter().enumerate() {
        let compiled = compiler
            .compile_tag_dispatch(&task.structural_tag())
            .expect("tags compile");
        let mut matcher = StructuralTagMatcher::new(compiled);
        for (pos, &b) in task.reference.iter().enumerate() {
            match matcher.mode() {
                DispatchMode::FreeText => free_steps += 1,
                DispatchMode::Tagged { .. } => tag_steps += 1,
            }
            matcher.fill_next_token_bitmask(&mut mask);
            assert_eq!(
                mask.is_allowed(eos),
                matcher.can_terminate(),
                "task {i}: EOS admission must track can_terminate at byte {pos}"
            );
            for (token, bytes) in vocab.iter() {
                if vocab.is_special(token) {
                    continue;
                }
                let accepted = matcher.accept_token(token).is_ok();
                if accepted {
                    matcher.rollback(1).unwrap();
                }
                assert_eq!(
                    mask.is_allowed(token),
                    accepted,
                    "task {i}: mask and accept_token disagree on {:?} at byte {pos} ({:?})",
                    String::from_utf8_lossy(bytes),
                    matcher.mode()
                );
            }
            matcher
                .accept_token(token_for(&vocab, &[b]))
                .unwrap_or_else(|e| panic!("task {i}: byte {pos} rejected: {e}"));
        }
        assert!(matcher.can_terminate());
        // The probes above open and close segments too (the counters are
        // monotonic across rollbacks), so this is a lower bound.
        segments += matcher.stats().tags_closed;
    }
    assert!(free_steps > 100 && tag_steps > 100, "comparison barely ran");
    assert!(segments >= 4, "expected several tagged segments");
}

/// Structural-tag compilation funnels sub-grammars through the shared
/// compiled-grammar cache: two tasks over the same function registry reuse
/// one compiled trigger grammar.
#[test]
fn tag_dispatch_compilation_is_cached_per_sub_grammar() {
    let vocab = Arc::new(test_vocabulary(800));
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let tasks = tool_call_tasks(3, 0xCAC);
    let first = compiler
        .compile_tag_dispatch(&tasks[0].structural_tag())
        .unwrap();
    let cached = compiler.cache().len();
    let second = compiler
        .compile_tag_dispatch(&tasks[1].structural_tag())
        .unwrap();
    assert_eq!(
        compiler.cache().len(),
        cached,
        "same registry must not recompile"
    );
    assert!(Arc::ptr_eq(
        first.triggers()[0].grammar(),
        second.triggers()[0].grammar()
    ));
    // The whole dispatch build is memoized too (same registry -> same Arc),
    // so per-request compile_structural calls don't redo schema conversion.
    assert!(Arc::ptr_eq(&first, &second));
}
