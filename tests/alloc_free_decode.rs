//! Allocation gate for the matcher hot path: once a `GrammarMatcher` or a
//! `StructuralTagMatcher` has seen a request, replaying it — mask fill, token
//! accept, rollback, termination check — must not touch the heap at all, and
//! a jump-forward probe may allocate nothing but the bytes it returns.
//!
//! `TokenBitmask::allowed_tokens`, which the simulated model's masked
//! proposal walks on the decode thread, must not allocate either.
//!
//! This file is its own test binary so that the counting `#[global_allocator]`
//! wraps nothing else, and each `#[test]` counts only while its own thread is
//! armed, so the harness's other threads cannot disturb the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use xg_core::{
    ConstraintMatcher, GrammarCompiler, GrammarMatcher, StructuralTagMatcher, TokenBitmask,
};
use xg_tokenizer::{test_vocabulary, TokenId};

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    /// (allocations, reallocations) made by this thread while armed.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Adds one allocation or reallocation to this thread's count, if armed.
fn count(realloc: bool) {
    let armed = ARMED.try_with(Cell::get).unwrap_or(false);
    if armed {
        let _ = COUNTS.try_with(|counts| {
            let (allocs, reallocs) = counts.get();
            counts.set(if realloc {
                (allocs, reallocs + 1)
            } else {
                (allocs + 1, reallocs)
            });
        });
    }
}

struct CountingAllocator;

// SAFETY: every request is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are side effects that never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(false);
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(true);
        // SAFETY: `ptr` came from `System`; the rest is the caller's promise.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// (allocations, reallocations) made by this thread while armed, so far.
fn counted() -> (u64, u64) {
    COUNTS.with(Cell::get)
}

/// Decodes `tokens` on `matcher` the way a serving lane does: fill, accept,
/// and every 16 tokens a three-token rollback that is re-accepted. With
/// `probe_jump_forward`, also asks for the forced string after every token
/// and returns how many of those probes found nothing forced — each of which
/// must have left the heap alone.
fn decode(
    matcher: &mut dyn ConstraintMatcher,
    mask: &mut TokenBitmask,
    tokens: &[TokenId],
    probe_jump_forward: bool,
) -> usize {
    let mut unforced_probes = 0;
    for (i, &token) in tokens.iter().enumerate() {
        matcher.fill_next_token_bitmask(mask);
        assert!(mask.is_allowed(token), "reference token {i} is masked out");
        matcher.accept_token(token).expect("reference token");
        if (i + 1) % 16 == 0 {
            matcher.rollback(3).expect("three tokens are in the window");
            for &again in &tokens[i - 2..=i] {
                matcher.accept_token(again).expect("re-accepted token");
            }
        }
        if probe_jump_forward {
            let before = counted();
            let forced = matcher.find_jump_forward_string();
            if forced.is_empty() {
                assert_eq!(counted(), before, "an empty probe allocated");
                unforced_probes += 1;
            }
        }
    }
    assert!(
        matcher.can_terminate(),
        "the reference document is complete"
    );
    unforced_probes
}

/// `warm_passes` passes over `document`, a `reset()` after each, then the
/// same pass again with the counter armed. The matcher is left at the end of
/// the counted pass, its statistics those of that pass alone.
fn assert_steady_state_is_allocation_free(
    label: &str,
    compiler: &GrammarCompiler,
    matcher: &mut dyn ConstraintMatcher,
    document: &[u8],
    warm_passes: usize,
    probe_jump_forward: bool,
) {
    let vocab = compiler.vocabulary();
    let (tokens, covered) = vocab.sorted().longest_prefix_cover(vocab, document);
    assert_eq!(covered, document.len(), "{label}: document tokenizes");
    assert!(
        tokens.len() >= 32,
        "{label}: long enough to roll back twice"
    );

    let mut mask = TokenBitmask::new_all_rejected(vocab.len());
    for _ in 0..warm_passes {
        decode(matcher, &mut mask, &tokens, probe_jump_forward);
        matcher.reset();
    }

    let before = counted();
    ARMED.with(|armed| armed.set(true));
    let unforced_probes = decode(matcher, &mut mask, &tokens, probe_jump_forward);
    ARMED.with(|armed| armed.set(false));
    let after = counted();

    if probe_jump_forward {
        // The only allocations allowed are the returned forced strings, and
        // the pass must have checked probes that return none.
        assert!(unforced_probes > 0, "{label}: no unforced probe seen");
    } else {
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (0, 0),
            "{label}: (allocations, reallocations) in a steady-state decode of {} tokens",
            tokens.len()
        );
    }
}

#[test]
fn steady_state_decode_does_not_allocate() {
    let vocab = Arc::new(test_vocabulary(8000));
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));

    let xml = compiler.compile_grammar(&xg_grammar::builtin::xml_grammar());
    let xml_doc = xg_datasets::xml_tasks(12, 11)
        .into_iter()
        .map(|task| task.reference)
        .max_by_key(Vec::len)
        .expect("twelve documents");
    let mut matcher = GrammarMatcher::new(Arc::clone(&xml));
    assert_steady_state_is_allocation_free("xml", &compiler, &mut matcher, &xml_doc, 1, false);
    assert!(
        matcher.stats().max_stacks >= 2,
        "the XML document exercises the multi-stack merge"
    );
    let mut matcher = GrammarMatcher::new(xml);
    let label = "xml + jump-forward";
    assert_steady_state_is_allocation_free(label, &compiler, &mut matcher, &xml_doc, 1, true);

    let task = xg_datasets::json_mode_eval_like(5, 11)
        .into_iter()
        .max_by_key(|task| task.reference.len())
        .expect("five tasks");
    let schema = compiler
        .compile_json_schema(&task.schema)
        .expect("dataset schema compiles");
    let mut matcher = GrammarMatcher::new(schema);
    let document = &task.reference;
    assert_steady_state_is_allocation_free(
        "json schema",
        &compiler,
        &mut matcher,
        document,
        1,
        false,
    );

    // The tag lane: prose, two tool calls, prose. One warm pass: each
    // trigger keeps its one inner matcher across `reset`, so the measured
    // pass runs every segment on the matcher the warm pass grew.
    let task = xg_datasets::tool_call_tasks(12, 11)
        .into_iter()
        .max_by_key(|task| task.reference.len())
        .expect("twelve transcripts");
    let dispatch = compiler
        .compile_tag_dispatch(&task.structural_tag())
        .expect("dataset registry compiles");
    let mut matcher = StructuralTagMatcher::new(dispatch);
    let document = &task.reference;
    assert_steady_state_is_allocation_free(
        "tool calls",
        &compiler,
        &mut matcher,
        document,
        1,
        false,
    );
    assert!(
        matcher.stats().tags_opened >= 2,
        "the transcript opens two tagged segments"
    );
}

#[test]
fn listing_a_masks_allowed_tokens_does_not_allocate() {
    let size = 8000;
    let empty = TokenBitmask::new_all_rejected(size);
    let mut full = TokenBitmask::new_all_rejected(size);
    full.allow_all();
    let mut sparse = TokenBitmask::new_all_rejected(size);
    for id in (0..size as u32).step_by(7) {
        sparse.allow(TokenId(id));
    }
    let mut last = TokenBitmask::new_all_rejected(size + 5);
    last.allow(TokenId(size as u32 + 4));

    for mask in [&empty, &full, &sparse, &last] {
        let before = counted();
        ARMED.with(|armed| armed.set(true));
        let listed = mask.allowed_tokens().count();
        ARMED.with(|armed| armed.set(false));
        let after = counted();
        assert_eq!(listed, mask.count_allowed());
        assert_eq!(
            (after.0 - before.0, after.1 - before.1),
            (0, 0),
            "(allocations, reallocations) listing {listed} allowed tokens"
        );
    }
}
