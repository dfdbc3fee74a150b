//! Criterion bench for Table 3: the cumulative ablation of node merging, the
//! adaptive token mask cache, rule inlining and context expansion, measured
//! as per-token mask-generation latency on the CFG (unconstrained JSON)
//! workload.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use xg_baselines::{ConstrainedBackend, XGrammarBackend};
use xg_bench::{ablation_config, bench_vocabulary, Workload};
use xg_core::TokenBitmask;
use xg_engine::{LlmBehavior, SimulatedLlm};

fn bench_ablation(c: &mut Criterion) {
    let vocab = bench_vocabulary(16_000);
    let (grammar, refs) = Workload::CfgJson.grammar_and_references(2);
    let llm = SimulatedLlm::new(
        Arc::clone(&vocab),
        LlmBehavior {
            prose_probability: 0.0,
            type_error_probability: 0.0,
            seed: 0,
        },
    );

    let mut group = c.benchmark_group("table3_ablation");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(2));
    group.warm_up_time(Duration::from_secs(1));
    for step in 0..5 {
        let (name, config) = ablation_config(step);
        let backend = XGrammarBackend::with_config(Arc::clone(&vocab), config);
        let compiled = backend.compile(&grammar).expect("always supported");
        group.bench_with_input(BenchmarkId::new("cfg_json", name), &refs, |b, refs| {
            b.iter(|| {
                let mut session = Arc::clone(&compiled).new_session();
                let mut state = llm.start_request(&refs[0], 0);
                let mut mask = TokenBitmask::new_all_rejected(vocab.len());
                for _ in 0..10 {
                    session.fill_next_token_bitmask(&mut mask);
                    let Some(token) = state.propose_constrained(&mask) else {
                        break;
                    };
                    if Some(token) == vocab.eos() || session.accept_token(token).is_err() {
                        break;
                    }
                    state.advance(token);
                }
                mask.count_allowed()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
