//! Criterion bench for the preprocessing phase (grammar compilation +
//! adaptive token mask cache construction), the quantity the paper overlaps
//! with prefill (§3.5) and the main cost Syncode-style approaches pay
//! offline.
//!
//! An iteration is one `CompiledGrammar::compile`: no grammar cache to
//! short-circuit it, and the sorted vocabulary index — which depends on the
//! vocabulary alone and is built once per `GrammarCompiler` — shared across
//! iterations, so the bench times a compile and not a sort. `build_pda/cold12`
//! times the compile's PDA build alone.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xg_automata::{build_pda, PdaBuildOptions};
use xg_bench::bench_vocabulary;
use xg_core::{CompiledGrammar, CompilerConfig};
use xg_grammar::Grammar;
use xg_tokenizer::{SortedVocabulary, Vocabulary};

fn compile(grammar: &Grammar, vocab: &Arc<Vocabulary>, sorted: &Arc<SortedVocabulary>) -> usize {
    let config = CompilerConfig::default();
    CompiledGrammar::compile(grammar, Arc::clone(vocab), Arc::clone(sorted), &config)
        .stats()
        .memory_bytes
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
