//! Criterion bench for the preprocessing phase (grammar compilation +
//! adaptive token mask cache construction), the quantity the paper overlaps
//! with prefill (§3.5) and the main cost Syncode-style approaches pay
//! offline.
//!
//! An iteration is one `CompiledGrammar::compile` and its `stats()`, which
//! builds every mask-cache entry the compile leaves to first use: no grammar
//! cache to short-circuit it, and the sorted vocabulary index — which depends
//! on the vocabulary alone and is built once per `GrammarCompiler` — shared
//! across iterations, so the bench times a full build and not a sort.
//! `cold_schema_admission/all12` times the compiles alone, which is what an
//! admission pays, `build_pda/cold12` the PDA build alone, and
//! `mask_cache_build/*` the mask-cache build alone, on one thread.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xg_automata::{build_pda, extract_all_suffix_fsas, PdaBuildOptions};
use xg_bench::bench_vocabulary;
use xg_core::{build_mask_cache, CompiledGrammar, CompilerConfig, MaskCacheBuildOptions};
use xg_grammar::Grammar;
use xg_tokenizer::{SortedVocabulary, Vocabulary};

/// A compile alone: the automata and the grammar-level lint, no mask entry.
fn admit(
    grammar: &Grammar,
    vocab: &Arc<Vocabulary>,
    sorted: &Arc<SortedVocabulary>,
) -> CompiledGrammar {
    let config = CompilerConfig::default();
    CompiledGrammar::compile(grammar, Arc::clone(vocab), Arc::clone(sorted), &config)
}

/// A compile and every mask entry.
fn compile(grammar: &Grammar, vocab: &Arc<Vocabulary>, sorted: &Arc<SortedVocabulary>) -> usize {
    admit(grammar, vocab, sorted).stats().memory_bytes
}

fn bench_preprocessing(c: &mut Criterion) {
    let vocab = bench_vocabulary(16_000);
    let sorted = Arc::new(SortedVocabulary::new(&vocab));
    let mut group = c.benchmark_group("preprocessing");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));

    for (name, grammar) in &builtin_grammars() {
        group.bench_with_input(
            BenchmarkId::new("compile_with_mask_cache", name),
            grammar,
            |b, grammar| b.iter(|| compile(grammar, &vocab, &sorted)),
        );
    }
    group.finish();
}

fn builtin_grammars() -> [(&'static str, Grammar); 3] {
    [
        ("json", xg_grammar::builtin::json_grammar()),
        ("xml", xg_grammar::builtin::xml_grammar()),
        ("python_dsl", xg_grammar::builtin::python_dsl_grammar()),
    ]
}

/// What an admission pays for a grammar the cache has never seen, at `perf`'s
/// vocabulary size: the twelve schemas of its `cold_schemas` workload, and
/// the builtin CFGs (`xml` is the compile `cfg_heavy`'s set-up waits for).
fn bench_cold_compile(c: &mut Criterion) {
    let vocab = bench_vocabulary(128_000);
    let sorted = Arc::new(SortedVocabulary::new(&vocab));

    // The sorted index itself, built once per `GrammarCompiler` and timed
    // here on its own: key sort, tie fix-up, byte arena and LCP array.
    let mut group = c.benchmark_group("sort_vocab");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_secs(1));
    group.bench_function("128k", |b| {
        b.iter(|| SortedVocabulary::new(&vocab).total_bytes())
    });
    group.finish();

    let mut group = c.benchmark_group("cold_schema_compile");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_secs(1));
    let cases = xg_datasets::schema_corpus(12, 11);
    let grammars: Vec<Grammar> = cases
        .iter()
        .map(|case| {
            xg_grammar::json_schema_to_grammar(&case.schema).expect("corpus schemas convert")
        })
        .collect();
    for (i, (case, grammar)) in cases.iter().zip(&grammars).enumerate() {
        group.bench_with_input(BenchmarkId::new(case.feature, i), grammar, |b, grammar| {
            b.iter(|| compile(grammar, &vocab, &sorted))
        });
    }
    // The twelve back to back, as one `cold_schemas` pass compiles them.
    group.bench_function("all12", |b| {
        b.iter(|| {
            grammars
                .iter()
                .map(|g| compile(g, &vocab, &sorted))
                .sum::<usize>()
        })
    });
    group.finish();

    // The same twelve compiles without the mask entries: what an admission
    // pays, the entries being built by the fills that read them.
    let mut group = c.benchmark_group("cold_schema_admission");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_secs(1));
    group.bench_function("all12", |b| {
        b.iter(|| {
            grammars
                .iter()
                .map(|g| admit(g, &vocab, &sorted).pda().node_count())
                .sum::<usize>()
        })
    });
    group.finish();

    // The PDA build alone (inlining, construction, merging, interning) of
    // the same twelve: `perf`'s `automata.build_pda_us` stage.
    let mut group = c.benchmark_group("build_pda");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_secs(1));
    let options = PdaBuildOptions::default();
    group.bench_function("cold12", |b| {
        b.iter(|| {
            grammars
                .iter()
                .map(|g| build_pda(g, &options).node_count())
                .sum::<usize>()
        })
    });
    group.finish();

    // The mask-cache build alone (the `core.mask_cache_build_ms` stage), on
    // one thread: the same twelve, then `schema_warm`'s five schemas, XML,
    // and the tool-call segments (free-text tail appended) of `agent_tools`'
    // three sessions, whose string bodies, text and free-text nodes accept
    // most of the vocabulary.
    let mut group = c.benchmark_group("mask_cache_build");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_secs(1));
    let warm = xg_datasets::json_mode_eval_like(5, 11)
        .iter()
        .map(|task| xg_grammar::json_schema_to_grammar(&task.schema).expect("schemas convert"))
        .collect();
    let mut triggers = Vec::new();
    for session in xg_datasets::agent_sessions(3, 6, 6, 11) {
        let segments = session
            .initial
            .build_trigger_grammars()
            .expect("dataset catalogs validate");
        triggers.extend(
            segments
                .iter()
                .map(|(_, grammar)| xg_grammar::append_free_text_tail(grammar)),
        );
    }
    let sets = [
        ("cold12", grammars.clone()),
        ("warm5", warm),
        ("xml", vec![xg_grammar::builtin::xml_grammar()]),
        ("triggers", triggers),
    ];
    let build_options = MaskCacheBuildOptions { num_threads: 1 };
    for (name, grammars) in sets {
        let built: Vec<_> = grammars
            .iter()
            .map(|g| {
                let pda = build_pda(g, &options);
                let fsas = extract_all_suffix_fsas(&pda);
                (pda, fsas)
            })
            .collect();
        group.bench_function(name, |b| {
            b.iter(|| {
                built
                    .iter()
                    .map(|(pda, fsas)| {
                        build_mask_cache(pda, &vocab, &sorted, Some(fsas), &build_options)
                            .stats()
                            .memory_bytes
                    })
                    .sum::<usize>()
            })
        });
    }
    group.finish();

    let mut group = c.benchmark_group("cold_cfg_compile");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    for (name, grammar) in &builtin_grammars() {
        group.bench_with_input(BenchmarkId::from_parameter(name), grammar, |b, grammar| {
            b.iter(|| compile(grammar, &vocab, &sorted))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_preprocessing, bench_cold_compile);
criterion_main!(benches);
