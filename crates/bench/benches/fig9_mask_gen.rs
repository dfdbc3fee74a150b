//! Criterion bench for Figure 9: per-token mask-generation latency of
//! XGrammar and the baselines on the four workloads.
//!
//! Run with `cargo bench -p xg-bench --bench fig9_mask_gen`. Mask generation
//! is measured at production vocabulary sizes — 32k (GPT-2/Mistral class)
//! and 128k (Llama-3.1 class) — with per-backend tokens/sec reported via the
//! group throughput.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use xg_bench::{bench_vocabulary, BackendKind, Workload};
use xg_core::{ConstraintMatcher, TokenBitmask};
use xg_engine::{LlmBehavior, SimulatedLlm};

/// Tokens decoded per iteration of the per-token mask benchmarks (each token
/// costs one mask fill + one acceptance), so `thrpt` reads as tokens/sec.
const TOKENS_PER_ITER: usize = 20;

/// A simulated model that follows its reference exactly.
fn clean_llm(vocab: &Arc<xg_tokenizer::Vocabulary>) -> SimulatedLlm {
    SimulatedLlm::new(
        Arc::clone(vocab),
        LlmBehavior {
            prose_probability: 0.0,
            type_error_probability: 0.0,
            seed: 0,
        },
    )
}

fn bench_mask_generation(c: &mut Criterion) {
    for vocab_size in [32_000, 128_000] {
        let vocab = bench_vocabulary(vocab_size);
        let mut group = c.benchmark_group(format!("fig9_mask_gen_{}k", vocab_size / 1000));
        group.sample_size(10);
        group.measurement_time(Duration::from_secs(2));
        group.warm_up_time(Duration::from_secs(1));
        group.throughput(Throughput::Elements(TOKENS_PER_ITER as u64));

        for workload in Workload::all() {
            let (grammar, refs) = workload.grammar_and_references(2);
            for kind in [
                BackendKind::XGrammar,
                BackendKind::Outlines,
                BackendKind::LlamaCppGrammar,
                BackendKind::FormatEnforcer,
            ] {
                // The per-token full-vocabulary scanners take seconds per
                // *fill* at 128k; one point at 32k already shows the gap, so
                // the large size keeps only the precomputing backends.
                if vocab_size > 32_000
                    && matches!(
                        kind,
                        BackendKind::LlamaCppGrammar | BackendKind::FormatEnforcer
                    )
                {
                    continue;
                }
                let backend = kind.build(Arc::clone(&vocab));
                let Ok(compiled) = backend.compile(&grammar) else {
                    continue; // regex-only backends skip recursive CFGs
                };
                let llm = clean_llm(&vocab);
                group.bench_with_input(
                    BenchmarkId::new(kind.name(), workload.name()),
                    &refs,
                    |b, refs| {
                        b.iter(|| {
                            // One full constrained generation of the first
                            // reference: mask + accept per token.
                            let mut session = Arc::clone(&compiled).new_session();
                            let mut state = llm.start_request(&refs[0], 0);
                            let mut mask = TokenBitmask::new_all_rejected(vocab.len());
                            for _ in 0..TOKENS_PER_ITER {
                                session.fill_next_token_bitmask(&mut mask);
                                let Some(token) = state.propose_constrained(&mask) else {
                                    break;
                                };
                                if Some(token) == vocab.eos()
                                    || session.accept_token(token).is_err()
                                {
                                    break;
                                }
                                state.advance(token);
                            }
                            mask.count_allowed()
                        })
                    },
                );
            }
        }
        group.finish();
    }
}

/// Trigger scanning over a 120-entry tool catalog: the naive multi-pattern
/// prefix scan (one comparison per pattern per byte) vs the Aho–Corasick
/// automaton (one table lookup per byte) the tag-dispatch matcher uses.
fn bench_trigger_scan(c: &mut Criterion) {
    use xg_automata::{AhoCorasick, NaiveMultiPattern};

    // 120 distinct `<fn_NNN>` triggers over a 64 KB transcript interleaving
    // prose, near-miss trigger prefixes and one real trigger per filler block.
    let catalog: Vec<Vec<u8>> = (0..120)
        .map(|i| format!("<fn_{i:03}>").into_bytes())
        .collect();
    let filler: &[u8] = b"calling tools <fn_ <f <fn_1 plain prose about nothing and then ";
    let mut transcript: Vec<u8> = Vec::new();
    for trigger in catalog.iter().cycle() {
        if transcript.len() >= 1 << 16 {
            break;
        }
        transcript.extend_from_slice(filler);
        transcript.extend_from_slice(trigger);
    }
    let naive = NaiveMultiPattern::new(&catalog);
    let ac = AhoCorasick::new(&catalog);
    assert_eq!(naive.find_all(&transcript), ac.find_all(&transcript));

    let mut group = c.benchmark_group("trigger_scan_120");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_secs(1));
    group.bench_function("naive", |b| b.iter(|| naive.find_all(&transcript).len()));
    group.bench_function("aho_corasick", |b| {
        b.iter(|| ac.find_all(&transcript).len())
    });
    group.finish();
}

/// Tool-call transcript decoding with and without jump-forward inside the
/// tagged segments: forced bytes (begin-tag remainders, schema punctuation,
/// end tags) skip both the mask fill and the sampled token.
fn bench_tagged_jump_forward(c: &mut Criterion) {
    use xg_core::{GrammarCompiler, StructuralTagMatcher, TokenBitmask};

    let vocab = bench_vocabulary(16_000);
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let tasks = xg_datasets::tool_call_tasks(2, 0xBE7);
    let compiled: Vec<_> = tasks
        .iter()
        .map(|t| compiler.compile_tag_dispatch(&t.structural_tag()).unwrap())
        .collect();
    let llm = clean_llm(&vocab);

    let mut group = c.benchmark_group("tagged_jump_forward");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_secs(1));
    for (label, jump) in [("without", false), ("with", true)] {
        group.bench_with_input(BenchmarkId::new(label, "tool_calls"), &jump, |b, &jump| {
            let mut mask = TokenBitmask::new_all_rejected(vocab.len());
            b.iter(|| {
                let mut sampled = 0u64;
                let mut jumped = 0u64;
                for (i, task) in tasks.iter().enumerate() {
                    let mut matcher = StructuralTagMatcher::new(Arc::clone(&compiled[i]));
                    let mut state = llm.start_request(&task.reference, i as u64);
                    for _ in 0..400 {
                        if jump {
                            let forced = matcher.find_jump_forward_string();
                            if !forced.is_empty() && matcher.accept_bytes(&forced).is_ok() {
                                state.advance_bytes(&forced);
                                jumped += forced.len() as u64;
                            }
                        }
                        matcher.fill_next_token_bitmask(&mut mask);
                        let Some(token) = state.propose_constrained(&mask) else {
                            break;
                        };
                        if Some(token) == vocab.eos() || matcher.accept_token(token).is_err() {
                            break;
                        }
                        state.advance(token);
                        sampled += 1;
                    }
                }
                (sampled, jumped)
            })
        });
    }
    group.finish();
}

/// Engine-level jump-forward: the full serving loop (`run_batch`) over a
/// schema-heavy batch with forced-token injection off vs on. The GPU profile
/// is scaled way down so the measured difference is dominated by the grammar
/// work the policies actually change: mask fills for sampled tokens vs
/// forced-text retokenization and injection.
fn bench_engine_jump_forward(c: &mut Criterion) {
    use std::sync::Arc;
    use xg_baselines::XGrammarBackend;
    use xg_engine::{
        EngineRequest, ExecutionMode, JumpForwardPolicy, LaneConstraint, ModelProfile,
        ServingEngine,
    };

    let vocab = bench_vocabulary(16_000);
    let backend: Arc<dyn xg_baselines::ConstrainedBackend> =
        Arc::new(XGrammarBackend::new(Arc::clone(&vocab)));
    let requests: Vec<EngineRequest> = xg_datasets::json_mode_eval_like(4, 0x11F)
        .into_iter()
        .enumerate()
        .map(|(i, t)| EngineRequest {
            constraint: LaneConstraint::Grammar(
                xg_grammar::json_schema_to_grammar(&t.schema).expect("schema converts"),
            ),
            prompt_tokens: 16,
            reference: t.reference,
            max_tokens: 96,
            seed: i as u64,
        })
        .collect();
    let profile = ModelProfile::llama31_8b_h100().scaled(0.001);
    // Compile once outside the timing loop (the cache makes reruns cheap).
    ServingEngine::new(Arc::clone(&backend), profile.clone(), ExecutionMode::Serial)
        .run_batch(&requests)
        .expect("warmup batch runs");

    let mut group = c.benchmark_group("engine_jump_forward");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_secs(1));
    for (label, policy) in [
        ("off", JumpForwardPolicy::Off),
        ("engine", JumpForwardPolicy::Engine),
    ] {
        let engine =
            ServingEngine::new(Arc::clone(&backend), profile.clone(), ExecutionMode::Serial)
                .with_jump_forward(policy);
        group.bench_function(label, |b| {
            b.iter(|| {
                let (results, metrics) = engine.run_batch(&requests).expect("batch runs");
                (results.len(), metrics.sampled_tokens)
            })
        });
    }
    group.finish();
}

/// The decode thread's two longest-match calls at 128k, beside
/// `engine_jump_forward`: the simulated model's unmasked `propose` at every
/// token boundary of a JSON and an XML reference, and `longest_prefix_cover`
/// (jump-forward's re-tokeniser) over the strings one `schema_warm` schema
/// forces along its reference.
fn bench_longest_match(c: &mut Criterion) {
    use xg_core::{GrammarCompiler, GrammarMatcher};

    let vocab = bench_vocabulary(128_000);
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let task = xg_datasets::json_mode_eval_like(1, 0x11F).remove(0);
    let xml = xg_datasets::xml_tasks(1, 0x11F).remove(0).reference;
    let llm = clean_llm(&vocab);

    // The forced strings, in the order a jump-forward lane meets them.
    let compiled = compiler
        .compile_json_schema(&task.schema)
        .expect("bench schema compiles");
    let mut matcher = GrammarMatcher::new(compiled);
    let mut state = llm.start_request(&task.reference, 0);
    let mut mask = TokenBitmask::new_all_rejected(vocab.len());
    let mut forced: Vec<Vec<u8>> = Vec::new();
    loop {
        let run = matcher.find_jump_forward_string();
        if !run.is_empty() && matcher.accept_bytes(&run).is_ok() {
            state.advance_bytes(&run);
            forced.push(run);
        }
        matcher.fill_next_token_bitmask(&mut mask);
        let Some(token) = state.propose_constrained(&mask) else {
            break;
        };
        if Some(token) == vocab.eos() || matcher.accept_token(token).is_err() {
            break;
        }
        state.advance(token);
    }
    assert!(!forced.is_empty(), "the schema forces its keys");

    let mut group = c.benchmark_group("longest_match_128k");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_secs(1));
    for (name, reference) in [("json", &task.reference), ("xml", &xml)] {
        group.bench_with_input(
            BenchmarkId::new("propose", name),
            reference,
            |b, reference| {
                b.iter(|| {
                    let mut state = llm.start_request(reference, 0);
                    let mut tokens = 0u32;
                    loop {
                        let token = state.propose();
                        if Some(token) == vocab.eos() {
                            break tokens;
                        }
                        state.advance(token);
                        tokens += 1;
                    }
                })
            },
        );
    }
    let sorted = compiler.sorted_vocabulary();
    group.bench_function("prefix_cover/schema_forced", |b| {
        b.iter(|| {
            forced
                .iter()
                .map(|run| sorted.longest_prefix_cover(&vocab, run).0.len())
                .sum::<usize>()
        })
    });
    group.finish();
}

/// Per-token mask generation on a keyword-heavy JSON Schema: string
/// `pattern` regexes, `format` rules (uuid/ipv4/email), a `multipleOf` DFA,
/// digit-wise integer bounds and a bounded `number` range all active in one
/// grammar — the converter features that go beyond plain typed objects.
fn bench_schema_keyword_mask_generation(c: &mut Criterion) {
    use xg_core::{GrammarCompiler, GrammarMatcher};

    let vocab = bench_vocabulary(32_000);
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let schema: serde_json::Value = serde_json::from_str(
        r#"{
            "type": "object",
            "properties": {
                "id": {"type": "string", "pattern": "^[A-Z]{2}-[0-9]{4}$"},
                "uuid": {"type": "string", "format": "uuid"},
                "ip": {"type": "string", "format": "ipv4"},
                "email": {"type": "string", "format": "email"},
                "count": {"type": "integer", "multipleOf": 12},
                "score": {"type": "integer", "minimum": -40, "maximum": 400},
                "ratio": {"type": "number", "minimum": 0, "maximum": 10}
            },
            "required": ["id", "uuid", "ip", "email", "count", "score", "ratio"]
        }"#,
    )
    .expect("bench schema is valid JSON");
    let compiled = compiler
        .compile_json_schema(&schema)
        .expect("bench schema compiles");
    let reference = br#"{"id": "AB-1234", "uuid": "123e4567-e89b-12d3-a456-426614174000", "ip": "192.168.0.1", "email": "user@example.com", "count": 144, "score": 37, "ratio": 2.5}"#;
    let llm = clean_llm(&vocab);

    let mut group = c.benchmark_group("fig9_schema_keywords");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_secs(1));
    group.bench_function("pattern_format_heavy", |b| {
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        b.iter(|| {
            // One full constrained generation of the reference instance:
            // mask + accept per token.
            let mut matcher = GrammarMatcher::new(Arc::clone(&compiled));
            let mut state = llm.start_request(reference, 0);
            let mut filled = 0u32;
            for _ in 0..120 {
                matcher.fill_next_token_bitmask(&mut mask);
                filled += 1;
                let Some(token) = state.propose_constrained(&mask) else {
                    break;
                };
                if Some(token) == vocab.eos() || matcher.accept_token(token).is_err() {
                    break;
                }
                state.advance(token);
            }
            filled
        })
    });
    group.finish();
}

/// One mask fill on the XML CFG at 128k, from a state with a single stack
/// (inside element text) and from one with two (inside an open tag, where
/// `open_tag` and `self_tag` are both still alive): the second is the
/// per-stack fill plus one word-level union.
fn bench_xml_multi_stack(c: &mut Criterion) {
    use xg_core::{GrammarCompiler, GrammarMatcher};

    let vocab = bench_vocabulary(128_000);
    let compiled = GrammarCompiler::new(Arc::clone(&vocab))
        .compile_grammar(&xg_grammar::builtin::xml_grammar());
    let mut group = c.benchmark_group("xml_multi_stack");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_secs(1));
    for (name, prefix, stacks) in [
        ("single_stack", &b"<a>text"[..], 1),
        ("two_stacks", &b"<a id"[..], 2),
    ] {
        let mut matcher = GrammarMatcher::new(Arc::clone(&compiled));
        matcher.accept_bytes(prefix).expect("valid XML prefix");
        assert_eq!(matcher.stack_count(), stacks, "after {prefix:?}");
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        group.bench_function(name, |b| {
            b.iter(|| {
                matcher.fill_next_token_bitmask(&mut mask);
                mask.words()[0]
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mask_generation,
    bench_xml_multi_stack,
    bench_trigger_scan,
    bench_tagged_jump_forward,
    bench_engine_jump_forward,
    bench_longest_match,
    bench_schema_keyword_mask_generation
);
criterion_main!(benches);
