//! Differential tests of the run-skipping, memoised classifier against a
//! per-token loop over the independent [`SimpleMatcher`], and the
//! deterministic count gates on how much of the vocabulary a build visits and
//! how many of its steps the automaton executes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Barrier, OnceLock};

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xg_automata::{build_pda, extract_all_suffix_fsas, PdaBuildOptions, PdaEdge, SimpleMatcher};
use xg_grammar::{builtin, json_schema_to_grammar, parse_ebnf, Grammar};
use xg_tokenizer::{
    common_prefix_len, synthetic_vocabulary, test_vocabulary, SyntheticVocabConfig,
};

use super::*;

/// The classifier before run skipping, kept as the reference: every sorted
/// token is matched and classified on its own, by [`SimpleMatcher`], an
/// executor that shares no code with the build's. `trail[i]` holds the stacks after a token's first `i` bytes
/// (padded with dead matchers after a death) and `popout[i]` whether one of
/// them can pop out of the bottom frame; the next token rolls both back to
/// its common prefix. A token's remainders are judged by `match_remaining` on
/// the token's own bytes.
fn classify_node_reference(
    pda: &Pda,
    node: NodeId,
    vocab: &Vocabulary,
    sorted: &SortedVocabulary,
    suffixes: Suffixes,
) -> NodeClassification {
    let mut trail = vec![SimpleMatcher::with_start_node(pda, node)];
    let mut popout: Vec<bool> = Vec::new();
    let mut out = NodeClassification::default();
    let mut prev: &[u8] = &[];
    for (i, &token_id) in sorted.ids().iter().enumerate() {
        let bytes = vocab.token_bytes(token_id);
        out.counts.tokens_visited += 1;
        let keep = common_prefix_len(prev, bytes);
        trail.truncate(keep + 1);
        popout.truncate(keep);
        prev = bytes;
        for &byte in &bytes[keep..] {
            let mut next = trail[trail.len() - 1].clone();
            // A dead matcher neither pops out nor counts a step.
            popout.push(next.can_terminate());
            out.counts.bytes_matched += u64::from(!next.is_dead());
            next.advance_byte(byte);
            trail.push(next);
        }
        if !trail[bytes.len()].is_dead() {
            out.accept(i..i + 1);
            continue;
        }
        let popouts: Vec<usize> = (0..bytes.len()).filter(|&o| popout[o]).collect();
        let possible = |(automaton, rule): (&SuffixAutomaton, PdaRuleId)| {
            let (fsa, entry) = (automaton.fsa(), automaton.entry(rule));
            popouts
                .iter()
                .any(|&o| fsa.match_remaining(entry, &bytes[o..]) == SuffixMatch::Possible)
        };
        let uncertain = !popouts.is_empty() && suffixes.is_none_or(possible);
        if !popouts.is_empty() {
            out.counts.uncertain_before_expansion += 1;
        }
        if uncertain {
            out.uncertain.push(token_id);
        }
    }
    out.counts.automaton_steps = out.counts.bytes_matched;
    out
}

/// [`build_mask_cache`] over a given per-node classifier: the same slots,
/// workers and entry assembly, the classification swapped.
fn build_with(
    pda: &Pda,
    vocab: &Vocabulary,
    sorted: &SortedVocabulary,
    suffixes: Option<&SuffixAutomaton>,
    options: &MaskCacheBuildOptions,
    classify: impl Fn(&mut StepMemo, NodeId, Suffixes) -> NodeClassification + Sync,
) -> MaskCache {
    let source = EntrySource {
        pda,
        vocab,
        sorted,
        suffixes,
    };
    let cache = MaskCache::new(&source);
    cache.complete(&source, options.num_threads, classify);
    cache
}

/// The entries as a compiled grammar builds them, on the fill that first
/// reads each: two threads read every node's entry of one fresh cache, in
/// opposite orders, so that most entries are asked for by both.
fn build_lazily(
    pda: &Pda,
    vocab: &Vocabulary,
    sorted: &SortedVocabulary,
    suffixes: Option<&SuffixAutomaton>,
) -> MaskCache {
    let source = EntrySource {
        pda,
        vocab,
        sorted,
        suffixes,
    };
    let cache = MaskCache::new(&source);
    assert_eq!(cache.built_entries(), 0);
    let read = |node: usize| {
        cache.get_or_build(&source, NodeId(node as u32));
    };
    let start = Barrier::new(2);
    std::thread::scope(|scope| {
        scope.spawn(|| {
            start.wait();
            (0..pda.node_count()).for_each(read);
        });
        start.wait();
        (0..pda.node_count()).rev().for_each(read);
    });
    cache
}

/// Demands the same entries and the same statistics of two builds, but for
/// the counts of visited tokens and executed steps, which are the difference.
fn assert_same_cache(fast: &MaskCache, reference: &MaskCache, what: &str) {
    for i in 0..reference.len() {
        let node = NodeId(i as u32);
        assert_eq!(fast.entry(node), reference.entry(node), "{what}: node {i}");
    }
    let comparable = |stats: &MaskCacheStats| MaskCacheStats {
        tokens_visited: 0,
        tokens_loop_accepted: 0,
        automaton_steps: 0,
        loop_test_steps: 0,
        ..*stats
    };
    assert_eq!(
        comparable(&fast.stats()),
        comparable(&reference.stats()),
        "{what}"
    );
    assert!(fast.stats().tokens_visited <= reference.stats().tokens_visited);
}

/// Builds the cache of `pda` three ways, with and without context expansion:
/// the reference, the eager build and the entries read one by one, and
/// returns the eager build's statistics.
fn assert_matches_reference(
    pda: &Pda,
    vocab: &Vocabulary,
    sorted: &SortedVocabulary,
    what: &str,
) -> MaskCacheStats {
    let fsas = extract_all_suffix_fsas(pda);
    let mut stats = MaskCacheStats::default();
    let options = MaskCacheBuildOptions { num_threads: 2 };
    for context_expansion in [false, true] {
        let suffixes = context_expansion.then_some(&fsas);
        let fast = build_mask_cache(pda, vocab, sorted, suffixes, &options);
        let reference = build_with(pda, vocab, sorted, suffixes, &options, |_, node, s| {
            classify_node_reference(pda, node, vocab, sorted, s)
        });
        let what = format!("{what} (context expansion {context_expansion})");
        assert_same_cache(&fast, &reference, &what);
        let lazy = build_lazily(pda, vocab, sorted, suffixes);
        assert_same_cache(&lazy, &fast, &format!("{what}, read lazily"));
        // A loop test steps every byte of a class once, however few tokens
        // ask, so only the walk's steps are bounded by the reference's.
        let (steps, loop_test_steps) = (fast.stats().automaton_steps, fast.stats().loop_test_steps);
        assert!(
            steps - loop_test_steps <= reference.stats().automaton_steps,
            "{what}: {steps} steps, {loop_test_steps} of them loop tests, against {}",
            reference.stats().automaton_steps
        );
        stats = fast.stats();
    }
    stats
}

/// A vocabulary with deep shared prefixes, among them tokens that pop out
/// of a string rule *inside* the prefix they share (`"ab"]` and its
/// extensions).
fn prefix_heavy_vocabulary() -> Vocabulary {
    let tokens: &[&[u8]] = &[
        b"</s>",
        b"\"",
        b"a",
        b"b",
        b"[",
        b"]",
        b",",
        b"}",
        b" ",
        b"\"a",
        b"\"ab",
        b"\"abc",
        b"\"abcd\"",
        b"\"ab\"",
        b"\"ab\"]",
        b"\"ab\"],",
        b"\"ab\"]}",
        b"\"ab\"]]",
        b"\"ab\",",
        b"\"ab\",\"",
        b"\"ab\",\"a",
        b"\"ab\",x",
        b"\"ab\"x",
        b"\"ab\"xy",
        b"\"aB",
        b"\"aBc",
        b"ab\"]",
        b"ab\"],",
        b"b\"]}",
        b"[\"ab\"]",
        b"[\"ab\"],",
        b"[\"ab\"",
        b"[[",
        b"x",
        b"xy",
        b"xyz",
    ];
    Vocabulary::from_tokens(tokens.iter().map(|t| t.to_vec()).collect(), Some(0))
}

/// A vocabulary of what loops leave: every single byte, and every pair of
/// pieces among quotes, escapes, markup, control bytes, whole UTF-8
/// characters, lone lead and continuation bytes, and plain text, so that
/// tokens step off a string body's or a text node's loop at every offset.
fn escape_heavy_vocabulary() -> Vocabulary {
    let pieces: &[&[u8]] = &[
        b"a",
        b"Zq",
        b"7",
        b" ",
        b"\"",
        b"\\",
        b"\\n",
        b"\\u00e",
        b"<",
        b"</",
        b"&",
        b"&amp;",
        b">",
        b"\t",
        b"\n",
        b"\x01",
        b"\x7f",
        "é".as_bytes(),
        "€".as_bytes(),
        b"\xe2\x82",
        b"\xa9",
        b"\xff",
        b"{",
        b",",
    ];
    let mut tokens = vec![b"</s>".to_vec()];
    tokens.extend((0..=255u8).map(|b| vec![b]));
    for a in pieces {
        tokens.extend(pieces.iter().map(|b| [*a, *b].concat()));
    }
    Vocabulary::from_tokens(tokens, Some(0))
}

fn grammars_under_test() -> Vec<(String, Grammar)> {
    let mut grammars = vec![
        ("builtin json".to_string(), builtin::json_grammar()),
        ("builtin xml".to_string(), builtin::xml_grammar()),
        (
            "builtin python dsl".to_string(),
            builtin::python_dsl_grammar(),
        ),
    ];
    for (i, case) in xg_datasets::schema_corpus(24, 5).into_iter().enumerate() {
        let grammar = json_schema_to_grammar(&case.schema).expect("corpus schemas convert");
        grammars.push((format!("schema {i} ({})", case.feature), grammar));
    }
    for case in xg_datasets::pathological_corpus() {
        grammars.push((format!("pathological {}", case.name), case.grammar));
    }
    let session = &xg_datasets::agent_sessions(1, 4, 2, 9)[0];
    let triggers = session
        .initial
        .build_trigger_grammars()
        .expect("dataset catalogs validate");
    for (trigger, grammar) in triggers {
        // What `compile_tag_dispatch` compiles for the trigger.
        let segment = xg_grammar::append_free_text_tail(&grammar);
        grammars.push((format!("trigger {trigger:?}"), segment));
    }
    grammars
}

#[test]
fn run_skipping_build_equals_the_per_token_reference() {
    let vocabularies = [
        test_vocabulary(2000),
        prefix_heavy_vocabulary(),
        escape_heavy_vocabulary(),
    ];
    let sorted: Vec<SortedVocabulary> = vocabularies.iter().map(SortedVocabulary::new).collect();
    let (mut loop_accepted, mut visited) = (0, 0);
    for (what, grammar) in grammars_under_test() {
        let pda = build_pda(&grammar, &PdaBuildOptions::default());
        for (v, (vocab, sorted)) in vocabularies.iter().zip(&sorted).enumerate() {
            let stats = assert_matches_reference(&pda, vocab, sorted, &what);
            if v == 2 {
                loop_accepted += stats.tokens_loop_accepted;
                visited += stats.tokens_visited;
            }
        }
    }
    // On the escape-heavy vocabulary both paths carry real weight.
    assert!(loop_accepted > 10_000, "{loop_accepted} accepted by a loop");
    assert!(visited > 10_000, "{visited} walked");
}

#[test]
fn a_popout_inside_the_shared_prefix_decides_the_whole_run() {
    let vocab = prefix_heavy_vocabulary();
    let sorted = SortedVocabulary::new(&vocab);
    // Every token below leaves `str` at offset 4, inside the prefix it
    // shares with its neighbours, and the byte after decides its run.
    let cases: [(&str, &[&[u8]]); 2] = [
        // Nothing follows the root's `]`: after `"ab"]` the suffix automaton
        // is alive but not final, so the prefix decides nothing and each of
        // `"ab"]`, `"ab"],`, `"ab"]]`, `"ab"]}` is judged on its own bytes.
        (
            r#"
            root ::= "[" str "]"
            str ::= "\"" [a-z]* "\""
            "#,
            &[b"\"ab\"]"],
        ),
        // After `,` comes another `str`, into which the suffix automaton
        // descends: `"ab",x` is rejected, as `str` opens with a quote, and
        // the run under `"ab",` splits at the byte after the comma.
        (
            r#"
            root ::= "[" str ("," str)* "]"
            str ::= "\"" [a-z]* "\""
            "#,
            &[b"\"ab\",", b"\"ab\",\"", b"\"ab\",\"a", b"\"ab\"]"],
        ),
    ];
    for (source, expected) in cases {
        let grammar = parse_ebnf(source, "root").unwrap();
        // `str` stays a rule of its own: its nodes pop out into `root`.
        let options = PdaBuildOptions {
            inline_rules: false,
            ..Default::default()
        };
        let pda = build_pda(&grammar, &options);
        assert_matches_reference(&pda, &vocab, &sorted, source);

        let fsas = extract_all_suffix_fsas(&pda);
        let cache = build_mask_cache(
            &pda,
            &vocab,
            &sorted,
            Some(&fsas),
            &MaskCacheBuildOptions::default(),
        );
        let str_start = pda.rules().iter().find(|r| r.name == "str").unwrap().start;
        let uncertain: Vec<&[u8]> = cache
            .entry(str_start)
            .uncertain()
            .iter()
            .map(|t| vocab.token_bytes(*t))
            .collect();
        assert_eq!(uncertain, expected, "{source}");
        // `"ab"x` dies on a byte no parent wants and takes `"ab"xy` along.
        let all = (pda.node_count() * sorted.len()) as u64;
        assert!(cache.stats().tokens_visited < all);
    }
}

/// A small random expression over a small alphabet; `rules` are the names it
/// may reference.
fn random_expr(rng: &mut SmallRng, depth: usize, rules: &[&str]) -> String {
    let variants = if depth == 0 { 3 } else { 6 };
    match rng.gen_range(0..variants) {
        0 => {
            let len = rng.gen_range(1..=4);
            let literal: String = (0..len)
                .map(|_| b"ab01,:]} "[rng.gen_range(0..9usize)] as char)
                .collect();
            format!("\"{literal}\"")
        }
        1 => ["[a-c]", "[0-9]", "[^a]", "[ -~]"][rng.gen_range(0..4usize)].to_string(),
        2 if !rules.is_empty() => rules[rng.gen_range(0..rules.len())].to_string(),
        2 => "\"a\"".to_string(),
        3 => {
            let items: Vec<String> = (0..rng.gen_range(2..=3))
                .map(|_| random_expr(rng, depth - 1, rules))
                .collect();
            items.join(" ")
        }
        4 => {
            let items: Vec<String> = (0..rng.gen_range(2..=3))
                .map(|_| random_expr(rng, depth - 1, rules))
                .collect();
            format!("({})", items.join(" | "))
        }
        _ => {
            let inner = random_expr(rng, depth - 1, rules);
            let op = ["*", "+", "?", "{1,3}"][rng.gen_range(0..4usize)];
            format!("({inner}){op}")
        }
    }
}

/// A random three-rule grammar. A rule references the rules below it, at
/// least once followed by an atom (`({body}) callee atom`), so a callee
/// completes inside a frame that reads on; a third of the rules also
/// reference themselves after a byte (`r ::= "x" r | <body>`, a tail call),
/// so there is no left recursion.
pub(crate) fn random_grammar(rng: &mut SmallRng) -> Grammar {
    let mut rule = |name: &str, depth: usize, rules: &[&str]| {
        let mut body = random_expr(rng, depth, rules);
        if !rules.is_empty() {
            let callee = rules[rng.gen_range(0..rules.len())];
            body = format!("({body}) {callee} {}", random_expr(rng, 0, &[]));
        }
        match rng.gen_range(0..3) {
            0 => format!("{name} ::= {} {name} | {body}\n", random_expr(rng, 0, &[])),
            _ => format!("{name} ::= {body}\n"),
        }
    };
    let source =
        rule("root", 2, &["mid", "leaf"]) + &rule("mid", 2, &["leaf"]) + &rule("leaf", 1, &[]);
    parse_ebnf(&source, "root")
        .unwrap_or_else(|e| panic!("generated grammar must parse: {e}\n{source}"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random grammars, with and without rule inlining.
    #[test]
    fn run_skipping_build_equals_the_reference_on_random_grammars(seed in 0u64..100_000) {
        static VOCAB: OnceLock<(Vocabulary, SortedVocabulary)> = OnceLock::new();
        let (vocab, sorted) = VOCAB.get_or_init(|| {
            let vocab = test_vocabulary(800);
            let sorted = SortedVocabulary::new(&vocab);
            (vocab, sorted)
        });
        let grammar = random_grammar(&mut SmallRng::seed_from_u64(seed));
        let options = PdaBuildOptions {
            inline_rules: seed % 2 == 0,
            ..Default::default()
        };
        let what = format!("random grammar {seed}");
        assert_matches_reference(&build_pda(&grammar, &options), vocab, sorted, &what);
    }
}

/// Every configuration reachable from `stack` without a byte: a frame
/// pushed per rule reference, a frame popped at a rule's final node. Unlike
/// [`SimpleMatcher`]'s closure it makes no tail call, so a rule referenced
/// in tail position keeps its caller's frame; [`step`] feeds a prefix
/// through it, and the soundness proptest sees every rule complete in every
/// frame it was called from, at any earlier byte.
fn configurations(pda: &Pda, stack: &[NodeId]) -> Vec<Vec<NodeId>> {
    let (mut seen, mut queue) = (vec![stack.to_vec()], vec![stack.to_vec()]);
    while let Some(config) = queue.pop() {
        let node = pda.node(config[config.len() - 1]);
        let mut next = Vec::new();
        for edge in &node.edges {
            if let PdaEdge::Rule { rule, target } = edge {
                let mut entered = config.clone();
                *entered.last_mut().unwrap() = *target;
                entered.push(pda.rule(*rule).start);
                next.push(entered);
            }
        }
        if node.is_final && config.len() > 1 {
            next.push(config[..config.len() - 1].to_vec());
        }
        for config in next {
            if !seen.contains(&config) {
                seen.push(config.clone());
                queue.push(config);
            }
        }
    }
    seen
}

/// The stacks `stacks` reach over `byte`, their closures taken by
/// [`configurations`] (no tail call, so no caller's frame is lost).
fn step(pda: &Pda, stacks: &[Vec<NodeId>], byte: u8) -> Vec<Vec<NodeId>> {
    let mut next: Vec<Vec<NodeId>> = Vec::new();
    for config in stacks.iter().flat_map(|stack| configurations(pda, stack)) {
        let Some((&top, returns)) = config.split_last() else {
            continue;
        };
        for edge in &pda.node(top).edges {
            if let PdaEdge::Bytes { range, target } = *edge {
                let stepped = [returns, &[target]].concat();
                if range.contains(byte) && !next.contains(&stepped) {
                    next.push(stepped);
                }
            }
        }
    }
    next
}

/// A random walk of up to `len` printable bytes through `pda`, each byte
/// one the reference matcher survives: a prefix of a sentence.
fn sample_prefix(pda: &Pda, rng: &mut SmallRng, len: usize) -> Vec<u8> {
    let mut matcher = SimpleMatcher::new(pda);
    let mut prefix = Vec::new();
    while prefix.len() < len {
        let live: Vec<u8> = (b' '..=b'~')
            .filter(|&b| matcher.clone().advance_bytes(&[b]))
            .collect();
        let Some(&byte) = live.get(rng.gen_range(0..live.len().max(1))) else {
            break;
        };
        matcher.advance_bytes(&[byte]);
        prefix.push(byte);
    }
    prefix
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Context expansion's soundness, read off the reference matcher and
    /// not the automaton's construction: wherever a sentence completes a
    /// rule `R` inside a parent frame, and that frame goes on to read the
    /// rest of the sentence, the rest is `Possible` from `R`'s entry state.
    /// A verdict of `Rejected` there would drop a valid token from a mask.
    #[test]
    fn every_continuation_of_a_completed_rule_is_a_possible_suffix(seed in 0u64..100_000) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let grammar = random_grammar(&mut rng);
        // Every rule keeps a frame of its own, so each can complete in one.
        let options = PdaBuildOptions {
            inline_rules: false,
            ..Default::default()
        };
        let pda = build_pda(&grammar, &options);
        let suffixes = extract_all_suffix_fsas(&pda);
        for _ in 0..8 {
            let sentence = sample_prefix(&pda, &mut rng, 24);
            let mut stacks = vec![vec![pda.root_start()]];
            for at in 0..sentence.len() {
                let rest = &sentence[at..];
                for stack in &stacks {
                    for config in configurations(&pda, stack) {
                        let top = pda.node(config[config.len() - 1]);
                        if !top.is_final || config.len() < 2 {
                            continue;
                        }
                        let parent = config[..config.len() - 1].to_vec();
                        if !SimpleMatcher::from_stacks(&pda, vec![parent]).advance_bytes(rest) {
                            continue;
                        }
                        let entry = suffixes.entry(top.rule);
                        prop_assert_eq!(
                            suffixes.fsa().match_remaining(entry, rest),
                            SuffixMatch::Possible,
                            "{:?} after rule {} at {} of {:?}",
                            String::from_utf8_lossy(rest),
                            pda.rule(top.rule).name,
                            at,
                            String::from_utf8_lossy(&sentence)
                        );
                    }
                }
                stacks = step(&pda, &stacks, sentence[at]);
            }
        }
    }
}

fn multiple_of_grammar() -> Grammar {
    let corpus = xg_datasets::schema_corpus(12, 11);
    let case = corpus
        .iter()
        .find(|case| case.feature == "multiple-of")
        .expect("the corpus has one schema per feature");
    json_schema_to_grammar(&case.schema).expect("corpus schemas convert")
}

/// The clear-and-re-derive path, which no benchmark grammar reaches with the
/// default bound (the twelve cold schemas, the five warm ones and XML, at 32k
/// and 128k tokens): with room for 8 states and tokens of up to 6 bytes
/// (dead + start + 6), the memo clears itself every few tokens, the trail
/// walks its held prefix again and a loop test derives its states again from
/// the node's start, and every entry and count stays what the reference
/// gives.
#[test]
fn a_memo_that_keeps_clearing_itself_builds_the_same_cache() {
    let short: Vec<Vec<u8>> = test_vocabulary(3000)
        .iter()
        .map(|(_, bytes)| bytes.to_vec())
        .filter(|bytes| bytes.len() <= 6)
        .collect();
    let vocab = Vocabulary::from_tokens(short, Some(0));
    let sorted = SortedVocabulary::new(&vocab);
    for (what, grammar) in [
        ("multiple-of schema", multiple_of_grammar()),
        ("builtin xml", builtin::xml_grammar()),
    ] {
        let pda = build_pda(&grammar, &PdaBuildOptions::default());
        let fsas = extract_all_suffix_fsas(&pda);
        let options = MaskCacheBuildOptions { num_threads: 2 };
        let recomputed = AtomicU64::new(0);
        let tiny = build_with(
            &pda,
            &vocab,
            &sorted,
            Some(&fsas),
            &options,
            |_, node, suffixes| {
                let (mut tiny, mut roomy) = (StepMemo::with_limit(8), StepMemo::new());
                let classification = classify_node(&pda, &mut tiny, node, &sorted, suffixes);
                classify_node(&pda, &mut roomy, node, &sorted, suffixes);
                // A memo computes a transition once unless it forgot it:
                // every extra one is the work of a clear.
                assert!(tiny.state_count() <= 8);
                recomputed.fetch_add(tiny.misses - roomy.misses, Ordering::Relaxed);
                classification
            },
        );
        let reference = build_with(
            &pda,
            &vocab,
            &sorted,
            Some(&fsas),
            &options,
            |_, node, suffixes| classify_node_reference(&pda, node, &vocab, &sorted, suffixes),
        );
        assert_same_cache(&tiny, &reference, what);
        let loop_accepted = tiny.stats().tokens_loop_accepted;
        assert!(
            loop_accepted > 1000,
            "{what}: {loop_accepted} accepted by a loop"
        );
        let recomputed = recomputed.into_inner();
        assert!(
            recomputed > 1000,
            "{what}: the memo forgot and recomputed {recomputed} transitions"
        );
        // The default bound, which these builds never fill, builds the same
        // cache with fewer steps.
        let default = build_mask_cache(&pda, &vocab, &sorted, Some(&fsas), &options);
        assert_same_cache(&default, &reference, what);
        assert!(default.stats().automaton_steps < tiny.stats().automaton_steps);
        assert_eq!(default.stats().tokens_loop_accepted, loop_accepted);
    }
}

/// The synthetic vocabulary the count gates run on, and its sorted index.
fn vocabulary_32k() -> (Vocabulary, SortedVocabulary) {
    let vocab = synthetic_vocabulary(&SyntheticVocabConfig {
        size: 32_000,
        seed: 0x32_000,
    });
    let sorted = SortedVocabulary::new(&vocab);
    (vocab, sorted)
}

/// The count behind the step memo's claim: on one thread (one memo, nodes in
/// order, so the number repeats exactly) the XML build executes at most a
/// twentieth of the steps it takes, and never more than a full row per state.
/// Every light node pays its first-byte misses whatever the vocabulary, so
/// the share only means something at scale. Its text nodes accept most
/// tokens by a loop: before that the build walked 544 221 tokens and
/// executed 4 072 steps.
#[test]
fn the_xml_build_executes_a_twentieth_of_its_steps() {
    let (vocab, sorted) = vocabulary_32k();
    let pda = build_pda(&builtin::xml_grammar(), &PdaBuildOptions::default());
    let fsas = extract_all_suffix_fsas(&pda);
    let options = MaskCacheBuildOptions { num_threads: 1 };
    let stats = build_mask_cache(&pda, &vocab, &sorted, Some(&fsas), &options).stats();
    assert!(
        stats.automaton_steps * 20 <= stats.preprocessing_bytes_matched,
        "executed {} of {} steps",
        stats.automaton_steps,
        stats.preprocessing_bytes_matched
    );
    assert_eq!(
        (stats.tokens_visited, stats.automaton_steps),
        (53_427, 4_118)
    );

    // The serial build is this loop: one memo over the nodes in order.
    let mut memo = StepMemo::new();
    let mut executed = 0;
    for (i, node) in pda.nodes().iter().enumerate() {
        if !(node.is_pure_return() && node.rule != pda.root()) {
            let suffixes = Some((&fsas, node.rule));
            executed += classify_node(&pda, &mut memo, NodeId(i as u32), &sorted, suffixes)
                .counts
                .automaton_steps;
        }
    }
    assert_eq!(executed, stats.automaton_steps);
    assert!(executed <= 256 * memo.state_count() as u64);
}

/// The count behind the cold-compile claim, where a wall clock would not
/// repeat: over the benchmark's cold schemas, the build matches at most one
/// token in twenty; the rest are classified by the prefix they share with
/// one that failed, by a first byte their node rejects, or by a loop. The
/// count is exact whatever the threads; before loops accepted tokens and
/// dead first bytes took their ranges it was 468 354, and before context
/// expansion followed rule references, whose verdicts now read into the
/// referenced rule and so split a few runs, 241 759.
#[test]
fn cold_schema_builds_visit_a_twentieth_of_the_vocabulary() {
    let (vocab, sorted) = vocabulary_32k();
    let (mut visited, mut all) = (0u64, 0u64);
    for case in xg_datasets::schema_corpus(12, 11) {
        let grammar = json_schema_to_grammar(&case.schema).expect("corpus schemas convert");
        let pda = build_pda(&grammar, &PdaBuildOptions::default());
        let fsas = extract_all_suffix_fsas(&pda);
        let cache = build_mask_cache(
            &pda,
            &vocab,
            &sorted,
            Some(&fsas),
            &MaskCacheBuildOptions::default(),
        );
        let stats = cache.stats();
        visited += stats.tokens_visited;
        all += (stats.nodes * stats.classified_tokens) as u64;
    }
    assert!(
        visited * 20 <= all,
        "visited {visited} of {all} (node, token) pairs"
    );
    assert_eq!(visited, 241_767);
}

/// The count behind the `multiple-of` schema's compile, exact because one
/// thread walks the nodes in order through one memo. Before a suffix verdict
/// took every token sharing the bytes it read, and before a tail call
/// replaced the frame, the same build visited 212 338 tokens and executed
/// 151 508 automaton steps; before a state's first miss settled its dead
/// bytes, 152 135 and 32 150; before loops accepted tokens and dead first
/// bytes took their ranges, 152 135 and 2 134.
#[test]
fn the_multiple_of_build_visits_and_steps_a_pinned_count() {
    let (vocab, sorted) = vocabulary_32k();
    let pda = build_pda(&multiple_of_grammar(), &PdaBuildOptions::default());
    let fsas = extract_all_suffix_fsas(&pda);
    let options = MaskCacheBuildOptions { num_threads: 1 };
    let stats = build_mask_cache(&pda, &vocab, &sorted, Some(&fsas), &options).stats();
    assert_eq!(
        (stats.tokens_visited, stats.automaton_steps),
        (123_849, 2_150)
    );
}

/// The count behind the dead-byte fill: over the benchmark's twelve cold
/// schemas at 32k on one thread, the builds execute at most a tenth of the
/// 124 357 automaton steps they executed when every dead byte of a state was
/// a miss of its own.
#[test]
fn cold_schema_builds_execute_a_tenth_of_the_steps_a_miss_per_byte_took() {
    let (vocab, sorted) = vocabulary_32k();
    let options = MaskCacheBuildOptions { num_threads: 1 };
    let mut executed = 0;
    for case in xg_datasets::schema_corpus(12, 11) {
        let grammar = json_schema_to_grammar(&case.schema).expect("corpus schemas convert");
        let pda = build_pda(&grammar, &PdaBuildOptions::default());
        let fsas = extract_all_suffix_fsas(&pda);
        let cache = build_mask_cache(&pda, &vocab, &sorted, Some(&fsas), &options);
        executed += cache.stats().automaton_steps;
    }
    assert!(executed * 10 <= 124_357, "executed {executed} steps");
}

/// After a digit `num` may end, so every space-led token pops out at its
/// first byte and is judged by what may follow a number: blanks, then `,` or
/// `]`. The verdict on ` a` reads two bytes, so ` ab`, ` abc`, ` an` and
/// ` and` are classified with it, unvisited: the node visits one token per
/// decided prefix, not one per space-led token.
#[test]
fn a_suffix_verdict_takes_every_token_sharing_the_bytes_it_read() {
    let tokens: &[&[u8]] = &[
        b"</s>", b"0", b"7", b",", b"[", b"]", b" ", b" ,", b" ]", b" a", b" ab", b" abc", b" an",
        b" and", b" b", b" ba", b" bar", b" be",
    ];
    let vocab = Vocabulary::from_tokens(tokens.iter().map(|t| t.to_vec()).collect(), Some(0));
    let sorted = SortedVocabulary::new(&vocab);
    let source = r#"
        root ::= "[" num ([ \n]* "," [ \n]* num)* [ \n]* "]"
        num ::= [0-9]+
    "#;
    // `num` stays a rule of its own: its nodes pop out into `root`.
    let options = PdaBuildOptions {
        inline_rules: false,
        ..Default::default()
    };
    let pda = build_pda(&parse_ebnf(source, "root").unwrap(), &options);
    assert_matches_reference(&pda, &vocab, &sorted, source);

    let num = pda.rules().iter().position(|r| r.name == "num").unwrap();
    let after_digit = pda.node(pda.rules()[num].start).edges[0].target();
    let fsas = extract_all_suffix_fsas(&pda);
    let suffixes = Some((&fsas, PdaRuleId(num as u32)));
    let classified = classify_node(&pda, &mut StepMemo::new(), after_digit, &sorted, suffixes);
    // ` `, ` ,`, ` ]`, ` a`, ` b` of the twelve space-led tokens; `,`, `[`,
    // `]` of the rest. `0` and `7` stay on the digit loop, unwalked.
    assert_eq!(classified.counts.tokens_visited, 5 + 3);
    assert_eq!(classified.counts.tokens_loop_accepted, 2);
    let uncertain: Vec<&[u8]> = classified
        .uncertain
        .iter()
        .map(|&t| vocab.token_bytes(t))
        .collect();
    assert_eq!(uncertain, [&b" "[..], b" ,", b" ]", b",", b"]"]);
}

/// The count behind loop acceptance: a JSON string body loops on every plain
/// byte (printable ASCII but `"` and `\`), so of the 32k tokens it accepts
/// every plain one unwalked and walks only tokens holding another byte: a
/// quote, an escape, a control or a non-ASCII byte. Before loop acceptance it
/// walked 31 599 tokens.
#[test]
fn a_string_body_walks_only_the_tokens_that_leave_its_loop() {
    let (_, sorted) = vocabulary_32k();
    let source = r#"
        root ::= "\"" char* "\""
        char ::= [^"\\\x00-\x1f] | "\\" (["\\/bfnrt] | "u" [0-9a-fA-F]{4})
    "#;
    let pda = build_pda(
        &parse_ebnf(source, "root").unwrap(),
        &PdaBuildOptions::default(),
    );
    let body = pda.node(pda.root_start()).edges[0].target();
    let fsas = extract_all_suffix_fsas(&pda);
    let suffixes = Some((&fsas, pda.root()));
    let classified = classify_node(&pda, &mut StepMemo::new(), body, &sorted, suffixes).counts;

    let plain = |b: &u8| (0x20..0x80).contains(b) && !b"\"\\".contains(b);
    let plain_tokens = (0..sorted.len()).filter(|&i| sorted.token(i).iter().all(plain));
    assert!(classified.tokens_loop_accepted >= plain_tokens.count() as u64);
    let off_loop = (0..sorted.len()).filter(|&i| !sorted.token(i).iter().all(plain));
    assert!(classified.tokens_visited <= off_loop.count() as u64);
    assert_eq!(
        (classified.tokens_visited, classified.tokens_loop_accepted),
        (3_937, 27_553)
    );
}
