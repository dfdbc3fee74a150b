//! Continuous-batching serving: submit requests to a running scheduler,
//! stream their bytes as they decode, and watch late arrivals join the
//! batch mid-flight. Grammar compilation happens on admission workers (off
//! the decode hot path, behind the shared compiled-grammar cache) while the
//! decode loop runs the request's prefill, and the first token is sampled
//! from the prefill's logits, so a request whose compile and first mask fit
//! under its prefill streams its first token right after it — a late joiner
//! too, before the running lanes' next decode step, which it then joins.
//!
//! ```text
//! cargo run --release --example continuous_serving
//! ```

use std::sync::Arc;
use std::time::Duration;

use xg_baselines::{ConstrainedBackend, XGrammarBackend};
use xg_engine::{
    EngineRequest, ExecutionMode, LaneConstraint, ModelProfile, SchedulerConfig, ServingEngine,
    StreamEvent,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let vocab = Arc::new(xgrammar::tokenizer::test_vocabulary(16_000));
    let backend: Arc<dyn ConstrainedBackend> = Arc::new(XGrammarBackend::new(Arc::clone(&vocab)));
    let profile = ModelProfile::llama31_8b_h100().scaled(0.1);
    let engine = ServingEngine::new(backend, profile, ExecutionMode::Overlapped);

    // The scheduler owns its worker threads: admission workers compile
    // grammars off the hot path, mask workers overlap bitmask generation
    // with the simulated GPU, and one decode loop steps every live lane.
    let scheduler = engine.serve(SchedulerConfig {
        max_lanes: 4,
        queue_capacity: 16,
        admission_workers: 2,
        mask_workers: 0, // auto-size from the host
    });

    // A first wave of schema-constrained requests joins the batch.
    let tasks = xg_datasets::json_mode_eval_like(4, 42);
    let mut handles = Vec::new();
    for (i, task) in tasks.iter().enumerate() {
        let handle = scheduler.submit(EngineRequest {
            constraint: LaneConstraint::Grammar(xgrammar::json_schema_to_grammar(&task.schema)?),
            prompt_tokens: 139,
            reference: task.reference.clone(),
            max_tokens: 200,
            seed: i as u64,
        })?;
        println!("submitted request {}", handle.id());
        handles.push(handle);
    }

    // A late arrival with an already-seen schema: its compile is a cache
    // hit and it joins the running batch without restarting anyone.
    std::thread::sleep(Duration::from_millis(20));
    let late = scheduler.submit(EngineRequest {
        constraint: LaneConstraint::Grammar(xgrammar::json_schema_to_grammar(&tasks[0].schema)?),
        prompt_tokens: 139,
        reference: tasks[0].reference.clone(),
        max_tokens: 200,
        seed: 0xFEED,
    })?;
    println!("submitted late request {}", late.id());
    handles.push(late);

    // Stream every request: admission notice, byte chunks, final timing.
    for handle in handles {
        let id = handle.id();
        let mut streamed = 0usize;
        loop {
            match handle.next_event().expect("scheduler is running") {
                StreamEvent::Admitted {
                    queue_time,
                    compile_time,
                    cache_hit,
                } => println!(
                    "  [{id}] admitted after {:.2} ms (compile {:.2} ms, cache hit: {cache_hit})",
                    queue_time.as_secs_f64() * 1e3,
                    compile_time.as_secs_f64() * 1e3,
                ),
                StreamEvent::Bytes(chunk) => streamed += chunk.len(),
                StreamEvent::Finished { result, timing } => {
                    println!(
                        "  [{id}] finished: {} bytes streamed, TTFT {:.2} ms, TPOT {:.3} ms, \
                         {} sampled + {} forced tokens",
                        streamed,
                        timing.ttft.as_secs_f64() * 1e3,
                        timing.tpot.as_secs_f64() * 1e3,
                        result.tokens,
                        result.jump_forward_tokens,
                    );
                    break;
                }
                StreamEvent::Failed(err) => {
                    println!("  [{id}] failed: {err}");
                    break;
                }
            }
        }
    }

    let metrics = scheduler.metrics();
    scheduler.shutdown();
    println!(
        "served {} requests over {} decode steps: peak {} concurrent lanes, \
         {} admission cache hits, {:.0} tok/s steady-state",
        metrics.completed,
        metrics.decode_steps,
        metrics.max_concurrent_lanes,
        metrics.cache_hit_admissions,
        metrics.throughput(),
    );
    Ok(())
}
