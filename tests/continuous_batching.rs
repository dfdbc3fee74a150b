//! Differential harness for the continuous-batching scheduler: the headline
//! guarantee is that batching changes *when* a request's tokens are produced,
//! never *which* tokens. Per-lane outputs are a function of the request alone
//! (constraint, reference, seed) — not of batch composition, arrival order,
//! execution mode, or which lanes happen to join or leave mid-decode.
//!
//! The specification is [`ServingEngine::decode_reference`]: one lane, one
//! thread, no queue, no workers, no timing. Three layers of evidence compare
//! the scheduler against it lane by lane (output bytes, sampled-token count,
//! jump-forward tokens and characters, completion):
//!
//! 1. `run_batch` (a thin wrapper over the scheduler), in both execution
//!    modes.
//! 2. The same requests submitted directly to a [`ContinuousScheduler`] in
//!    several arrival-order permutations.
//! 3. A join/leave stress run — 24 requests over 4 lanes, staggered
//!    submissions, mixed constraints — whose streamed byte chunks must also
//!    concatenate to the final output.
//!
//! [`ContinuousScheduler`]: xg_engine::ContinuousScheduler

use std::sync::Arc;
use std::time::Duration;

use xg_baselines::{ConstrainedBackend, XGrammarBackend};
use xg_engine::{
    EngineRequest, ExecutionMode, LaneConstraint, ModelProfile, RequestResult, SchedulerConfig,
    ServingEngine, StreamEvent,
};
use xg_tokenizer::test_vocabulary;

/// A mixed workload with per-request seeds that are *not* batch positions:
/// prose, JSON-schema lanes and a structural-tag tool-call lane, the lane
/// mix of an agentic serving batch.
fn mixed_requests(schema_count: usize) -> Vec<EngineRequest> {
    let mut requests = vec![EngineRequest {
        constraint: LaneConstraint::Unconstrained,
        prompt_tokens: 32,
        reference: b"Prose lane: sampled token by token, no constraint.".to_vec(),
        max_tokens: 200,
        seed: 0xA0,
    }];
    for (i, task) in xg_datasets::json_mode_eval_like(schema_count, 0x5EED)
        .into_iter()
        .enumerate()
    {
        requests.push(EngineRequest {
            constraint: LaneConstraint::Grammar(
                xg_grammar::json_schema_to_grammar(&task.schema).expect("schema converts"),
            ),
            prompt_tokens: 100 + i,
            reference: task.reference,
            max_tokens: 300,
            seed: 0xB0 + i as u64,
        });
    }
    let tool_task = &xg_datasets::tool_call_tasks(1, 0x70071)[0];
    requests.push(EngineRequest {
        constraint: LaneConstraint::StructuralTag(tool_task.structural_tag()),
        prompt_tokens: 150,
        reference: tool_task.reference.clone(),
        max_tokens: 400,
        seed: 0xC0,
    });
    requests
}

fn engine(mode: ExecutionMode) -> ServingEngine {
    let vocab = Arc::new(test_vocabulary(800));
    let backend: Arc<dyn ConstrainedBackend> = Arc::new(XGrammarBackend::new(vocab));
    ServingEngine::new(backend, ModelProfile::llama31_8b_h100().scaled(0.02), mode)
}

/// The specification: every request decoded alone, on this thread.
fn reference_decodes(engine: &ServingEngine, requests: &[EngineRequest]) -> Vec<RequestResult> {
    requests
        .iter()
        .map(|request| engine.decode_reference(request).expect("reference decodes"))
        .collect()
}

fn assert_lane_eq(a: &RequestResult, b: &RequestResult, label: &str) {
    assert_eq!(
        String::from_utf8_lossy(&a.output),
        String::from_utf8_lossy(&b.output),
        "{label}: outputs diverge"
    );
    assert_eq!(a.tokens, b.tokens, "{label}: sampled-token counts diverge");
    assert_eq!(
        a.jump_forward_tokens, b.jump_forward_tokens,
        "{label}: jump-forward token counts diverge"
    );
    assert_eq!(
        a.jump_forward_chars, b.jump_forward_chars,
        "{label}: jump-forward char counts diverge"
    );
    assert_eq!(a.completed, b.completed, "{label}: completion diverges");
}

/// `run_batch` is a thin wrapper over the continuous scheduler; in both
/// execution modes it must reproduce the reference decode byte for byte.
#[test]
fn run_batch_matches_reference_decode_byte_for_byte() {
    let requests = mixed_requests(3);
    for mode in [ExecutionMode::Serial, ExecutionMode::Overlapped] {
        let engine = engine(mode);
        let expected = reference_decodes(&engine, &requests);
        let (scheduled, metrics) = engine.run_batch(&requests).expect("scheduler runs");
        assert_eq!(expected.len(), scheduled.len());
        for (i, (f, s)) in expected.iter().zip(&scheduled).enumerate() {
            assert_lane_eq(f, s, &format!("{mode:?} lane {i}"));
            assert!(f.completed, "{mode:?} lane {i} must complete");
        }
        assert!(metrics.sampled_tokens > 0);
    }
}

/// Submitting the same requests in different arrival orders produces
/// byte-identical per-lane outputs, each equal to the reference decode.
#[test]
fn arrival_order_permutations_are_byte_identical() {
    let requests = mixed_requests(3);
    let n = requests.len();
    let engine = engine(ExecutionMode::Overlapped);
    let reference = reference_decodes(&engine, &requests);

    let orders: Vec<Vec<usize>> = vec![
        (0..n).collect(),                          // submission order
        (0..n).rev().collect(),                    // reversed
        (0..n).map(|i| (i * 3 + 1) % n).collect(), // strided shuffle
    ];
    for order in orders {
        let scheduler = engine.serve(SchedulerConfig {
            max_lanes: n,
            queue_capacity: n,
            admission_workers: 2,
            mask_workers: 2,
        });
        let mut handles = Vec::new();
        for &i in &order {
            handles.push((i, scheduler.submit(requests[i].clone()).expect("submit")));
        }
        for (i, handle) in handles {
            let finished = handle.wait().expect("lane finishes");
            assert_lane_eq(
                &finished.result,
                &reference[i],
                &format!("order {order:?} lane {i}"),
            );
        }
        scheduler.shutdown();
    }
}

/// Join/leave stress: four lanes serve twenty-four staggered requests, so
/// lanes continuously retire and admit mid-decode. Every request must
/// reproduce its reference decode, the streamed chunks must concatenate to
/// the final output, and the scheduler must respect its lane cap.
#[test]
fn join_leave_stress_reproduces_reference_outputs() {
    let mut requests = Vec::new();
    for batch in 0..4 {
        for (i, mut request) in mixed_requests(4).into_iter().enumerate() {
            // Distinct seeds per wave so every lane decodes distinct bytes.
            request.seed ^= (batch as u64) << 32;
            request.max_tokens = 150 + 10 * i;
            requests.push(request);
        }
    }
    assert_eq!(requests.len(), 24);
    let engine = engine(ExecutionMode::Overlapped);
    let reference = reference_decodes(&engine, &requests);

    let scheduler = engine.serve(SchedulerConfig {
        max_lanes: 4,
        queue_capacity: requests.len(),
        admission_workers: 2,
        mask_workers: 2,
    });
    let mut handles = Vec::new();
    for (i, request) in requests.iter().enumerate() {
        handles.push((i, scheduler.submit(request.clone()).expect("submit")));
        if i % 3 == 0 {
            std::thread::sleep(Duration::from_millis(2)); // stagger arrivals
        }
    }
    for (i, handle) in handles {
        // Drain the stream by hand: the chunks must concatenate to the
        // final output (streaming loses nothing and reorders nothing).
        let mut streamed = Vec::new();
        let finished = loop {
            match handle.next_event().expect("stream stays open") {
                StreamEvent::Admitted { .. } => {}
                StreamEvent::Bytes(chunk) => streamed.extend_from_slice(&chunk),
                StreamEvent::Finished { result, timing } => break (result, timing),
                StreamEvent::Failed(err) => panic!("lane {i} failed: {err}"),
            }
        };
        let (result, timing) = finished;
        assert_eq!(
            String::from_utf8_lossy(&streamed),
            String::from_utf8_lossy(&result.output),
            "lane {i}: streamed chunks must concatenate to the final output"
        );
        assert_lane_eq(&result, &reference[i], &format!("stress lane {i}"));
        assert!(timing.total_time >= timing.ttft);
    }
    let metrics = scheduler.metrics();
    scheduler.shutdown();
    assert_eq!(metrics.completed as usize, requests.len());
    assert_eq!(metrics.failed, 0);
    assert!(
        metrics.max_concurrent_lanes <= 4,
        "lane cap violated: {}",
        metrics.max_concurrent_lanes
    );
    assert!(
        metrics.max_concurrent_lanes >= 2,
        "stress run never actually batched"
    );
}
