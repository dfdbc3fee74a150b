//! Differential test suite: the optimized engine against the naive PDA
//! baseline on randomly generated grammars and inputs, the regex-style
//! baselines' masks against the engine's where their unrolling is exact,
//! printer/parser round-trips over the same random grammars, and one check of
//! the `ConstraintMatcher` trait contract over all five of its implementors.
//!
//! Unlike `property_tests.rs` (which uses a fixed pool of hand-written
//! grammars), the grammars here are *generated*: random rule bodies built
//! from literals, character classes, sequences, choices, bounded repeats and
//! guarded recursion. Every case drives both engines over the same byte
//! string and demands byte-for-byte agreement on accept/reject.

use std::collections::HashMap;
use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xg_automata::{build_pda_default, PdaEdge, SimpleMatcher};
use xg_baselines::{
    BackendError, ConstrainedBackend, FormatEnforcerBackend, FsmIndexBackend, NaivePdaBackend,
    Session,
};
use xg_core::{
    AcceptError, CompiledConstraint, CompilerConfig, ConstraintMatcher, GrammarCompiler,
    GrammarMatcher, StructuralTagMatcher, TokenBitmask,
};
use xg_grammar::{StructuralTag, TagContent, TagSpec};
use xg_tokenizer::{test_vocabulary, TokenId, Vocabulary};

/// Characters safe to use inside EBNF literals without escaping, which also
/// all exist as single-byte tokens in the synthetic vocabulary.
const LITERAL_CHARS: &[u8] = b"abcxyz019,;:=()[]{}<>";

/// Character-class templates (source text, member bytes for string
/// generation).
const CLASS_TEMPLATES: &[(&str, &[u8])] = &[
    ("[a-c]", b"abc"),
    ("[0-9]", b"0123456789"),
    ("[xyz]", b"xyz"),
    ("[a-z]", b"abcxyz"),
    ("[0-3]", b"0123"),
];

/// Generates a random EBNF expression of bounded depth, collecting the bytes
/// that can appear in matching strings into `alphabet`.
fn random_expr(
    rng: &mut SmallRng,
    depth: usize,
    helpers: &[&str],
    alphabet: &mut Vec<u8>,
) -> String {
    let variants = if depth == 0 { 2 } else { 6 };
    match rng.gen_range(0..variants) {
        // Literal of 1-3 safe characters.
        0 => {
            let len = rng.gen_range(1..=3);
            let lit: Vec<u8> = (0..len)
                .map(|_| LITERAL_CHARS[rng.gen_range(0..LITERAL_CHARS.len())])
                .collect();
            alphabet.extend_from_slice(&lit);
            format!("\"{}\"", String::from_utf8(lit).unwrap())
        }
        // Character class.
        1 => {
            let (src, members) = CLASS_TEMPLATES[rng.gen_range(0..CLASS_TEMPLATES.len())];
            alphabet.extend_from_slice(members);
            src.to_string()
        }
        // Sequence.
        2 => {
            let n = rng.gen_range(2..=3);
            let items: Vec<String> = (0..n)
                .map(|_| random_expr(rng, depth - 1, helpers, alphabet))
                .collect();
            items.join(" ")
        }
        // Choice (parenthesized so it nests anywhere).
        3 => {
            let n = rng.gen_range(2..=3);
            let items: Vec<String> = (0..n)
                .map(|_| random_expr(rng, depth - 1, helpers, alphabet))
                .collect();
            format!("({})", items.join(" | "))
        }
        // Bounded or unbounded repeat.
        4 => {
            let inner = random_expr(rng, depth - 1, helpers, alphabet);
            let op = ["*", "+", "?", "{1,3}", "{2}"][rng.gen_range(0..5usize)];
            format!("({inner}){op}")
        }
        // Reference to a helper rule (falls back to a literal when there is
        // none).
        _ => {
            if helpers.is_empty() {
                random_expr(rng, 0, helpers, alphabet)
            } else {
                helpers[rng.gen_range(0..helpers.len())].to_string()
            }
        }
    }
}

/// A randomly generated grammar: EBNF source plus the byte alphabet its
/// sentences are drawn from.
struct RandomGrammar {
    source: String,
    alphabet: Vec<u8>,
}

/// Generates a random grammar with a root rule and 0-2 helper rules; helpers
/// may be self-recursive, always after a leading literal or class so the
/// recursion is well-founded: nested between delimiters, or right-recursive
/// (a tail call).
fn random_grammar(rng: &mut SmallRng) -> RandomGrammar {
    let helper_names: &[&str] = match rng.gen_range(0..3) {
        0 => &[],
        1 => &["r1"],
        _ => &["r1", "r2"],
    };
    let mut alphabet = Vec::new();
    let mut source = String::new();
    // Helpers can only reference later helpers (or themselves, guarded), so
    // every name is defined and unguarded cycles are impossible.
    for (i, name) in helper_names.iter().enumerate() {
        let later = &helper_names[i + 1..];
        let body = random_expr(rng, 1, later, &mut alphabet);
        match rng.gen_range(0..5) {
            // Guarded self-recursion: r ::= "(" r ")" | <body>
            0 | 1 => {
                let (open, close) = [("(", ")"), ("[", "]"), ("{", "}")][rng.gen_range(0..3usize)];
                alphabet.extend_from_slice(open.as_bytes());
                alphabet.extend_from_slice(close.as_bytes());
                source.push_str(&format!(
                    "{name} ::= \"{open}\" {name} \"{close}\" | {body}\n"
                ));
            }
            // Right recursion, a tail call: r ::= "x" r | <body>
            2 => {
                let lead = random_expr(rng, 0, &[], &mut alphabet);
                source.push_str(&format!("{name} ::= {lead} {name} | {body}\n"));
            }
            _ => source.push_str(&format!("{name} ::= {body}\n")),
        }
    }
    let root = random_expr(rng, 2, helper_names, &mut alphabet);
    source.push_str(&format!("root ::= {root}\n"));
    alphabet.sort_unstable();
    alphabet.dedup();
    RandomGrammar { source, alphabet }
}

/// Generates a random input: either uniform noise over the alphabet (mostly
/// rejected) or a guided random walk through the reference PDA (mostly
/// accepted prefixes).
fn random_input(
    rng: &mut SmallRng,
    grammar: &RandomGrammar,
    reference: &SimpleMatcher<'_>,
) -> Vec<u8> {
    if rng.gen_bool(0.5) {
        let len = rng.gen_range(0..=10);
        return (0..len)
            .map(|_| grammar.alphabet[rng.gen_range(0..grammar.alphabet.len())])
            .collect();
    }
    // Guided walk: at each step pick a random alphabet byte that keeps the
    // reference matcher alive.
    let mut walker = reference.clone();
    let mut out = Vec::new();
    for _ in 0..16 {
        if walker.can_terminate() && rng.gen_bool(0.4) {
            break;
        }
        let start = rng.gen_range(0..grammar.alphabet.len());
        let step = (0..grammar.alphabet.len())
            .map(|i| grammar.alphabet[(start + i) % grammar.alphabet.len()])
            .find(|&b| {
                let mut probe = walker.clone();
                probe.advance_bytes(&[b])
            });
        let Some(byte) = step else { break };
        walker.advance_bytes(&[byte]);
        out.push(byte);
    }
    // Occasionally corrupt the tail so near-misses are covered too.
    if !out.is_empty() && rng.gen_bool(0.25) {
        let idx = rng.gen_range(0..out.len());
        out[idx] = grammar.alphabet[rng.gen_range(0..grammar.alphabet.len())];
    }
    out
}

/// Feeds `input` to a fresh naive-PDA session one single-byte token at a
/// time. Returns `(bytes accepted before rejection, final state accepts)`.
fn drive_naive(
    constraint: &Arc<dyn CompiledConstraint>,
    byte_tokens: &HashMap<u8, TokenId>,
    input: &[u8],
) -> (usize, bool) {
    let mut session = Arc::clone(constraint).new_session();
    for (i, b) in input.iter().enumerate() {
        if session.accept_token(byte_tokens[b]).is_err() {
            return (i, false);
        }
    }
    (input.len(), session.can_terminate())
}

fn byte_token_map(vocab: &Vocabulary) -> HashMap<u8, TokenId> {
    let mut map = HashMap::new();
    for (id, bytes) in vocab.iter() {
        if bytes.len() == 1 && !vocab.is_special(id) {
            map.entry(bytes[0]).or_insert(id);
        }
    }
    map
}

#[test]
fn random_grammars_accept_reject_parity_with_naive_pda() {
    const GRAMMARS: usize = 30;
    const INPUTS_PER_GRAMMAR: usize = 8;

    let vocab = Arc::new(test_vocabulary(600));
    let byte_tokens = byte_token_map(&vocab);
    // `accept_bytes` exercises the PDA executor, not the mask cache; a
    // compile builds no mask-cache entry, so the default row costs nothing
    // here (mask/cache parity has its own differential tests in
    // property_tests.rs and end_to_end.rs).
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let naive = NaivePdaBackend::new(Arc::clone(&vocab));

    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    let mut cases = 0usize;
    let (mut steps, mut multi_stack_steps, mut tail_calls) = (0usize, 0usize, 0usize);
    for g in 0..GRAMMARS {
        let random = random_grammar(&mut rng);
        let grammar = xg_grammar::parse_ebnf(&random.source, "root")
            .unwrap_or_else(|e| panic!("generated grammar must parse: {e}\n{}", random.source));
        let compiled = compiler.compile_grammar(&grammar);
        let naive_compiled = naive
            .compile(&grammar)
            .expect("naive backend compiles CFGs");
        let reference_pda = build_pda_default(&grammar);
        // A reference whose return node is a pure return replaces the frame.
        tail_calls += reference_pda
            .nodes()
            .iter()
            .flat_map(|node| &node.edges)
            .filter(|e| matches!(e, PdaEdge::Rule { target, .. } if reference_pda.node(*target).is_pure_return()))
            .count();
        let reference = SimpleMatcher::new(&reference_pda);

        for i in 0..INPUTS_PER_GRAMMAR {
            let input = random_input(&mut rng, &random, &reference);
            // Optimized engine: byte-level accept.
            let mut matcher = GrammarMatcher::new(Arc::clone(&compiled));
            let engine_result = matcher.accept_bytes(&input);
            let engine_accepted_bytes = match &engine_result {
                Ok(()) => input.len(),
                Err(xg_core::AcceptError::BytesRejected { matched_bytes }) => *matched_bytes,
                Err(other) => panic!("unexpected accept_bytes error: {other:?}"),
            };
            let engine_complete = engine_result.is_ok() && matcher.can_terminate();
            // The same input one byte at a time: the same prefix survives,
            // and the walk shows how many parallel stacks each step ran on.
            let mut stepwise = GrammarMatcher::new(Arc::clone(&compiled));
            let stepped = input
                .iter()
                .take_while(|&&b| {
                    let alive = stepwise.accept_bytes(&[b]).is_ok();
                    multi_stack_steps += usize::from(alive && stepwise.stack_count() >= 2);
                    alive
                })
                .count();
            assert_eq!(stepped, engine_accepted_bytes, "grammar #{g} input #{i}");
            steps += stepped;
            // Naive baseline: token-level accept over single-byte tokens.
            let (naive_accepted_bytes, naive_complete) =
                drive_naive(&naive_compiled, &byte_tokens, &input);
            assert_eq!(
                engine_accepted_bytes,
                naive_accepted_bytes,
                "prefix-validity divergence on grammar #{g} input #{i} {:?}\n{}",
                String::from_utf8_lossy(&input),
                random.source
            );
            assert_eq!(
                engine_complete,
                naive_complete,
                "acceptance divergence on grammar #{g} input #{i} {:?}\n{}",
                String::from_utf8_lossy(&input),
                random.source
            );
            cases += 1;
        }
    }
    assert!(
        cases >= 200,
        "differential suite must cover >=200 cases, ran {cases}"
    );
    println!("{multi_stack_steps} of {steps} accepted bytes left two or more parallel stacks");
    assert!(
        multi_stack_steps > 0,
        "none of the {steps} steps exercised parallel stacks"
    );
    assert!(
        tail_calls > 0,
        "no grammar referenced a rule in tail position"
    );
}

/// `root ::= p x | q y` with recursive (hence never inlined) `p` and `q` whose
/// languages overlap: the two alternatives cannot be told apart until `x` or
/// `y` arrives, so a lane runs on one stack before the first byte, on two
/// through the whole of `p`/`q`, and on one again after the last byte. (With
/// the same rule on both sides, node merging left-factors the choice into
/// `p (x | y)` and the walk never leaves one stack.) Masks from the cache must equal the
/// cache-less full scan at every step of that walk, and rollback must land
/// on the same masks across the split and the merge.
#[test]
fn ambiguous_prefix_grammars_keep_mask_parity_across_stack_splits() {
    let vocab = Arc::new(test_vocabulary(600));
    let byte_tokens = byte_token_map(&vocab);
    let cached = GrammarCompiler::new(Arc::clone(&vocab));
    let uncached = GrammarCompiler::with_config(Arc::clone(&vocab), CompilerConfig::NodeMerging);
    let next_mask = |lane: &mut GrammarMatcher| {
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        lane.fill_next_token_bitmask(&mut mask);
        mask
    };

    for (open, close, x, y) in [
        ("(", ")", "x", "y"),
        ("[", "]", ";", ","),
        ("{", "}", "=", ":"),
    ] {
        let source = format!(
            "p ::= \"{open}\" p \"{close}\" | [a-c]+\nq ::= \"{open}\" q \"{close}\" | [a-z]+\n\
             root ::= p \"{x}\" | q \"{y}\"\n"
        );
        let grammar = xg_grammar::parse_ebnf(&source, "root").expect("family grammar parses");
        let compiled = cached.compile_grammar(&grammar);
        let tokens_of =
            |text: String| -> Vec<TokenId> { text.bytes().map(|b| byte_tokens[&b]).collect() };
        let tokens = tokens_of(format!("{open}{open}ab{close}{close}{x}"));
        let n = tokens.len();

        // Serial walk, recording the mask and the stack count before each token.
        let mut lane = GrammarMatcher::new(Arc::clone(&compiled));
        let mut full_scan = GrammarMatcher::new(uncached.compile_grammar(&grammar));
        let mut masks = Vec::new();
        let mut stacks = Vec::new();
        for &token in &tokens {
            let mask = next_mask(&mut lane);
            assert_eq!(
                mask,
                next_mask(&mut full_scan),
                "step {}\n{source}",
                masks.len()
            );
            assert!(mask.is_allowed(token));
            stacks.push(lane.stack_count());
            masks.push(mask);
            lane.accept_token(token).expect("mask-allowed token");
            full_scan.accept_token(token).expect("mask-allowed token");
        }
        stacks.push(lane.stack_count());
        assert_eq!(stacks[0], 1, "{source}");
        assert!(stacks[1..n].iter().all(|&s| s == 2), "{stacks:?}\n{source}");
        assert_eq!(stacks[n], 1, "{source}");
        assert!(lane.can_terminate());

        // Back over the merge into the two-stack stretch, then the other way out.
        lane.rollback(2).expect("within the window");
        assert_eq!(lane.stack_count(), 2);
        assert_eq!(next_mask(&mut lane), masks[n - 2]);
        for token in tokens_of(format!("{close}{y}")) {
            lane.accept_token(token).expect("the other alternative");
        }
        assert!(lane.can_terminate());

        // A fresh lane through split and merge, then one token too far; every
        // token is a rollback unit, back to the start.
        let mut replay = GrammarMatcher::new(compiled);
        for &token in &tokens {
            replay
                .accept_token(token)
                .expect("the serial walk accepted it");
        }
        assert!(replay.accept_token(tokens[0]).is_err());
        assert_eq!(replay.stack_count(), 1);
        replay.rollback(1).expect("each token is a unit");
        assert_eq!(next_mask(&mut replay), masks[n - 1]);
        replay.rollback(n - 1).expect("back to the start");
        assert_eq!(replay.stack_count(), 1);
        assert_eq!(next_mask(&mut replay), masks[0]);
        for &token in &tokens {
            replay
                .accept_token(token)
                .expect("re-accept after full rollback");
        }
        assert!(replay.can_terminate());
    }
}

#[test]
fn random_grammars_roundtrip_through_display() {
    const GRAMMARS: usize = 40;
    const INPUTS_PER_GRAMMAR: usize = 6;

    let mut rng = SmallRng::seed_from_u64(0x2024);
    for g in 0..GRAMMARS {
        let random = random_grammar(&mut rng);
        let original = xg_grammar::parse_ebnf(&random.source, "root")
            .unwrap_or_else(|e| panic!("generated grammar must parse: {e}\n{}", random.source));
        let printed = original.to_string();
        let reparsed = xg_grammar::parse_ebnf(&printed, "root")
            .unwrap_or_else(|e| panic!("printed grammar must reparse: {e}\n{printed}"));
        // Printing is a fixed point after one round trip.
        assert_eq!(
            printed,
            reparsed.to_string(),
            "printer not idempotent for grammar #{g}"
        );

        // Original and reparsed accept exactly the same sample strings.
        let pda_a = build_pda_default(&original);
        let pda_b = build_pda_default(&reparsed);
        let reference = SimpleMatcher::new(&pda_a);
        for i in 0..INPUTS_PER_GRAMMAR {
            let input = random_input(&mut rng, &random, &reference);
            let a = SimpleMatcher::new(&pda_a).accepts(&input);
            let b = SimpleMatcher::new(&pda_b).accepts(&input);
            assert_eq!(
                a,
                b,
                "display round-trip changed acceptance of input #{i} {:?} for grammar #{g}:\n{}\n-- printed --\n{printed}",
                String::from_utf8_lossy(&input),
                random.source
            );
        }
    }
}

/// Checks the three invariants of `ConstraintMatcher`'s rustdoc on one
/// implementor, along a random walk of up to six tokens that starts after
/// `lead_in`:
///
/// 1. every mask-allowed token is accepted (each on a `fresh` session
///    replayed to the same position, so no rollback support is assumed);
/// 2. a rejected `accept_token` / `accept_bytes` leaves the next mask
///    bit-identical;
/// 3. a refused `rollback` leaves it bit-identical;
///
/// and, if the walk accepts end-of-sequence, that the session then reports
/// termination, masks everything and refuses further tokens.
fn check_matcher_contract(
    label: &str,
    vocab: &Vocabulary,
    fresh: &dyn Fn() -> Session,
    lead_in: &[TokenId],
    rng: &mut SmallRng,
) {
    let mut lane = fresh();
    let mut accepted = lead_in.to_vec();
    for &token in lead_in {
        lane.accept_token(token)
            .unwrap_or_else(|e| panic!("{label}: lead-in rejected: {e}"));
    }
    let mut mask = TokenBitmask::new_all_rejected(vocab.len());
    let mut again = TokenBitmask::new_all_rejected(vocab.len());
    for step in 0..6 {
        lane.fill_next_token_bitmask(&mut mask);
        let allowed: Vec<TokenId> = mask.allowed_tokens().collect();

        for &token in &allowed {
            let mut probe = fresh();
            for &t in &accepted {
                probe.accept_token(t).expect("replay of an accepted prefix");
            }
            assert!(
                probe.accept_token(token).is_ok(),
                "{label} step {step}: mask allows {:?} but accept_token rejects it",
                String::from_utf8_lossy(vocab.token_bytes(token))
            );
        }

        let mut assert_mask_unchanged = |lane: &mut Session, after: &str| {
            lane.fill_next_token_bitmask(&mut again);
            assert_eq!(
                again, mask,
                "{label} step {step}: mask changed after {after}"
            );
        };
        let rejected = (0..vocab.len() as u32)
            .map(TokenId)
            .find(|&t| !mask.is_allowed(t) && !vocab.is_special(t));
        if let Some(token) = rejected {
            assert!(lane.accept_token(token).is_err());
            assert_mask_unchanged(&mut lane, "a rejected accept_token");
            assert!(lane.accept_bytes(vocab.token_bytes(token)).is_err());
            assert_mask_unchanged(&mut lane, "a rejected accept_bytes");
        }
        let eos = vocab.eos().expect("test vocabulary has EOS");
        if !mask.is_allowed(eos) {
            assert!(lane.accept_token(eos).is_err());
            assert_mask_unchanged(&mut lane, "a rejected EOS");
        }
        let window = lane.rollback_window();
        assert!(lane.rollback(window + 1).is_err());
        assert_mask_unchanged(&mut lane, "a refused rollback");

        if allowed.is_empty() {
            break;
        }
        let token = allowed[rng.gen_range(0..allowed.len())];
        lane.accept_token(token).expect("mask-allowed token");
        accepted.push(token);
        if token == eos {
            assert!(lane.is_terminated(), "{label}: EOS must terminate");
            assert!(!lane.can_terminate());
            lane.fill_next_token_bitmask(&mut mask);
            assert_eq!(mask.count_allowed(), 0, "{label}: mask after EOS");
            assert_eq!(
                lane.accept_token(token),
                Err(AcceptError::AlreadyTerminated)
            );
            break;
        }
    }
}

/// XGrammar's, the FSM index's and the format enforcer's compiled forms of
/// `grammar`, or `None` when the format enforcer refuses it. A grammar it
/// compiles is not recursive, so both regex-style baselines unroll it
/// exactly: no push is cut.
fn exactly_unrolled(
    vocab: &Arc<Vocabulary>,
    compiler: &GrammarCompiler,
    grammar: &xg_grammar::Grammar,
) -> Option<[Arc<dyn CompiledConstraint>; 3]> {
    let enforcer = FormatEnforcerBackend::new(Arc::clone(vocab))
        .compile(grammar)
        .ok()?;
    let fsm = FsmIndexBackend::new(Arc::clone(vocab))
        .compile(grammar)
        .expect("the FSM index unrolls every grammar the format enforcer does");
    Some([compiler.compile_grammar(grammar), fsm, enforcer])
}

/// Fills every lane's mask, asserts the baselines' equal XGrammar's (the
/// first lane's) and returns it.
fn equal_masks(vocab: &Vocabulary, lanes: &mut [Session], what: &str) -> TokenBitmask {
    let mut masks = lanes.iter_mut().map(|lane| {
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        lane.fill_next_token_bitmask(&mut mask);
        mask
    });
    let xgrammar = masks.next().expect("an XGrammar lane");
    for (baseline, mask) in ["Outlines", "lm-format-enforcer"].iter().zip(masks) {
        assert!(mask == xgrammar, "{baseline} mask differs: {what}");
    }
    xgrammar
}

/// Where the regex-style baselines unroll a grammar exactly, their masks are
/// XGrammar's at every step: along random walks over the random-grammar pool
/// (multi-byte tokens included), and along the greedily tokenized references
/// of the five `json_mode_eval_like` schema families.
#[test]
fn baseline_masks_equal_xgrammars_where_the_unroll_is_exact() {
    let vocab = Arc::new(test_vocabulary(600));
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let eos = vocab.eos().expect("the test vocabulary has an EOS token");
    let sessions = |compiled: &[Arc<dyn CompiledConstraint>; 3]| -> Vec<Session> {
        compiled
            .iter()
            .map(|c| Arc::clone(c).new_session())
            .collect()
    };
    let accept = |lanes: &mut [Session], token: TokenId| {
        for lane in lanes {
            lane.accept_token(token).expect("a token every mask allows");
        }
    };

    let mut rng = SmallRng::seed_from_u64(0xE4AC7);
    let (mut grammars, mut steps) = (0usize, 0usize);
    for g in 0..60 {
        let random = random_grammar(&mut rng);
        let grammar = xg_grammar::parse_ebnf(&random.source, "root")
            .unwrap_or_else(|e| panic!("generated grammar must parse: {e}\n{}", random.source));
        let Some(compiled) = exactly_unrolled(&vocab, &compiler, &grammar) else {
            continue;
        };
        grammars += 1;
        for walk in 0..4 {
            let mut lanes = sessions(&compiled);
            for i in 0..12 {
                let what = format!("grammar #{g} walk #{walk} step #{i}\n{}", random.source);
                let mask = equal_masks(&vocab, &mut lanes, &what);
                let allowed: Vec<TokenId> = mask.allowed_tokens().filter(|&t| t != eos).collect();
                if allowed.is_empty() {
                    break;
                }
                accept(&mut lanes, allowed[rng.gen_range(0..allowed.len())]);
                steps += 1;
            }
        }
    }
    assert!(
        grammars >= 40 && steps >= 400,
        "{grammars} grammars, {steps} steps"
    );

    for (i, task) in xg_datasets::json_mode_eval_like(10, 0xE2E)
        .iter()
        .enumerate()
    {
        let grammar = xg_grammar::json_schema_to_grammar(&task.schema).expect("schema converts");
        let compiled = exactly_unrolled(&vocab, &compiler, &grammar)
            .unwrap_or_else(|| panic!("schema family {} is refused", i % 5));
        let mut lanes = sessions(&compiled);
        let mut rest = &task.reference[..];
        while !rest.is_empty() {
            let token = vocab
                .sorted()
                .longest_prefix_token(rest)
                .expect("every byte is a token");
            let what = format!("reference #{i} before {:?}", String::from_utf8_lossy(rest));
            assert!(
                equal_masks(&vocab, &mut lanes, &what).is_allowed(token),
                "{what}"
            );
            accept(&mut lanes, token);
            rest = &rest[vocab.token_bytes(token).len()..];
        }
        let what = format!("reference #{i} at its end");
        assert!(
            equal_masks(&vocab, &mut lanes, &what).is_allowed(eos),
            "{what}"
        );
    }
}

/// One contract check over every first-party `ConstraintMatcher`:
/// `GrammarMatcher`, `StructuralTagMatcher` (the random grammar as a tagged
/// segment) and the three baseline sessions, on the same random grammars.
/// Grammars a baseline reports `UnsupportedGrammar` for are skipped for that
/// baseline.
#[test]
fn every_constraint_matcher_keeps_the_trait_contract() {
    const GRAMMARS: usize = 10;

    let vocab = Arc::new(test_vocabulary(600));
    let byte_tokens = byte_token_map(&vocab);
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let baselines: Vec<Box<dyn ConstrainedBackend>> = vec![
        Box::new(NaivePdaBackend::new(Arc::clone(&vocab))),
        Box::new(FsmIndexBackend::new(Arc::clone(&vocab))),
        Box::new(FormatEnforcerBackend::new(Arc::clone(&vocab))),
    ];
    let mut checked = vec![0usize; baselines.len()];

    let mut rng = SmallRng::seed_from_u64(0xC0_47AC7);
    for g in 0..GRAMMARS {
        let random = random_grammar(&mut rng);
        let grammar = xg_grammar::parse_ebnf(&random.source, "root")
            .unwrap_or_else(|e| panic!("generated grammar must parse: {e}\n{}", random.source));

        let compiled = compiler.compile_grammar(&grammar);
        check_matcher_contract(
            &format!("GrammarMatcher on grammar #{g}"),
            &vocab,
            &|| Box::new(GrammarMatcher::new(Arc::clone(&compiled))),
            &[],
            &mut rng,
        );

        let tag = StructuralTag::new(vec![TagSpec {
            begin: "<t>".into(),
            content: TagContent::Ebnf {
                text: random.source.clone(),
                root: "root".into(),
            },
            end: "</t>".into(),
        }]);
        let dispatch = compiler
            .compile_tag_dispatch(&tag)
            .unwrap_or_else(|e| panic!("tag dispatch compiles: {e}\n{}", random.source));
        // Start inside the tagged segment, where the mask actually rejects.
        let lead_in: Vec<TokenId> = b"<t>".iter().map(|b| byte_tokens[b]).collect();
        check_matcher_contract(
            &format!("StructuralTagMatcher on grammar #{g}"),
            &vocab,
            &|| Box::new(StructuralTagMatcher::new(Arc::clone(&dispatch))),
            &lead_in,
            &mut rng,
        );

        for (backend, checked) in baselines.iter().zip(&mut checked) {
            let constraint = match backend.compile(&grammar) {
                Ok(constraint) => constraint,
                Err(BackendError::UnsupportedGrammar { .. }) => continue,
            };
            check_matcher_contract(
                &format!("{} on grammar #{g}", backend.name()),
                &vocab,
                &|| Arc::clone(&constraint).new_session(),
                &[],
                &mut rng,
            );
            *checked += 1;
        }
    }
    for (backend, checked) in baselines.iter().zip(&checked) {
        assert!(*checked > 0, "{} was never exercised", backend.name());
    }
}
