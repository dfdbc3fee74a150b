//! Batched structured serving: compare serial vs overlapped execution and
//! XGrammar vs the naive full-scan baseline on the simulated engine (the
//! paper's §4.2 scenario in miniature), then show the serving concurrency
//! layer — a shared compiled-grammar cache plus parallel per-lane mask
//! generation — across repeated batches.
//!
//! ```text
//! cargo run --release --example structured_serving
//! ```

use std::sync::Arc;

use xg_baselines::{ConstrainedBackend, NaivePdaBackend, XGrammarBackend};
use xg_engine::{
    EngineRequest, ExecutionMode, JumpForwardPolicy, LaneConstraint, ModelProfile, ServingEngine,
};
use xgrammar::{CacheBudget, CompilerConfig, GrammarCache};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let vocab = Arc::new(xgrammar::tokenizer::test_vocabulary(16_000));
    let profile = ModelProfile::llama31_8b_h100().scaled(0.1);

    let requests: Vec<EngineRequest> = xg_datasets::json_mode_eval_like(8, 7)
        .into_iter()
        .enumerate()
        .map(|(i, task)| EngineRequest {
            constraint: LaneConstraint::Grammar(
                xgrammar::json_schema_to_grammar(&task.schema).expect("schema converts"),
            ),
            prompt_tokens: 139,
            reference: task.reference,
            max_tokens: 96,
            seed: i as u64,
        })
        .collect();

    println!("batch of {} function-calling requests", requests.len());
    println!(
        "{:<34} {:>12} {:>12} {:>12}",
        "engine", "TPOT (ms)", "mask (ms)", "GPU (ms)"
    );
    let configurations: Vec<(&str, Arc<dyn ConstrainedBackend>, ExecutionMode)> = vec![
        (
            "naive PDA scan, serial",
            Arc::new(NaivePdaBackend::new(Arc::clone(&vocab))),
            ExecutionMode::Serial,
        ),
        (
            "XGrammar, serial",
            Arc::new(XGrammarBackend::new(Arc::clone(&vocab))),
            ExecutionMode::Serial,
        ),
        (
            "XGrammar, overlapped (co-design)",
            Arc::new(XGrammarBackend::new(Arc::clone(&vocab))),
            ExecutionMode::Overlapped,
        ),
    ];
    for (name, backend, mode) in configurations {
        let engine = ServingEngine::new(backend, profile.clone(), mode);
        let (_, metrics) = engine.run_batch(&requests)?;
        println!(
            "{:<34} {:>12.2} {:>12.2} {:>12.2}",
            name,
            metrics.tpot.as_secs_f64() * 1e3,
            metrics.mask_wait_time.as_secs_f64() * 1e3,
            metrics.gpu_time.as_secs_f64() * 1e3
        );
    }
    println!();
    println!("The overlapped XGrammar engine hides grammar work under the simulated GPU step,");
    println!("reproducing the paper's near-zero-overhead structured generation result.");

    // ---- The serving concurrency layer: shared cache + parallel lanes. ----
    println!();
    println!("serving concurrency layer (shared grammar cache, parallel mask lanes):");
    let cache = Arc::new(GrammarCache::new(CacheBudget::for_grammars()));
    let backend: Arc<dyn ConstrainedBackend> = Arc::new(XGrammarBackend::with_cache(
        Arc::clone(&vocab),
        CompilerConfig::default(),
        Arc::clone(&cache),
    ));
    // Jump-forward now defaults to `Engine`; this engine opts out so the
    // comparison below still contrasts Off vs Engine.
    let engine = ServingEngine::new(Arc::clone(&backend), profile, ExecutionMode::Overlapped)
        .with_jump_forward(JumpForwardPolicy::Off);
    for batch_round in ["first batch (cold cache)", "second batch (warm cache)"] {
        let (_, metrics) = engine.run_batch(&requests)?;
        println!(
            "  {batch_round:<26} hit rate {:>3.0}% ({} hits / {} misses), \
             mask wall {:.2} ms on {} thread(s)",
            100.0 * metrics.cache.hit_rate(),
            metrics.cache.hits,
            metrics.cache.misses,
            metrics.mask_wait_time.as_secs_f64() * 1e3,
            metrics.mask_workers,
        );
    }
    println!(
        "  cache holds {} compiled grammar(s), {:.2} MB of mask-cache data",
        cache.stats().entries,
        cache.stats().current_bytes as f64 / 1e6
    );

    // ---- Engine-level jump-forward: forced text skips the GPU step. ----
    println!();
    println!("engine-level jump-forward (forced tokens injected without sampling):");
    let (off_results, off_metrics) = engine.run_batch(&requests)?;
    let jf_engine = ServingEngine::new(
        Arc::clone(&backend),
        ModelProfile::llama31_8b_h100().scaled(0.1),
        ExecutionMode::Overlapped,
    )
    .with_jump_forward(JumpForwardPolicy::Engine);
    let (jf_results, jf_metrics) = jf_engine.run_batch(&requests)?;
    // The differential guarantee: jump-forward changes nothing but speed.
    for (off, jf) in off_results.iter().zip(&jf_results) {
        assert_eq!(off.output, jf.output, "outputs must be byte-identical");
    }
    println!(
        "  off   : {:>4} sampled tokens, TPOT {:.2} ms",
        off_metrics.sampled_tokens,
        off_metrics.tpot.as_secs_f64() * 1e3,
    );
    println!(
        "  engine: {:>4} sampled + {} forced tokens ({} chars of forced text), TPOT {:.2} ms",
        jf_metrics.sampled_tokens,
        jf_metrics.forced_tokens,
        jf_metrics.forced_chars,
        jf_metrics.tpot.as_secs_f64() * 1e3,
    );
    let saved = off_metrics
        .sampled_tokens
        .saturating_sub(jf_metrics.sampled_tokens);
    println!(
        "  byte-identical outputs, {saved} fewer GPU decoding steps ({:.0}% of the batch)",
        100.0 * saved as f64 / off_metrics.sampled_tokens.max(1) as f64
    );
    Ok(())
}
