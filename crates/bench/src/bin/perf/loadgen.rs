//! Closed-loop load generator: one pass of one workload through the real
//! [`ContinuousScheduler`](xg_engine::ContinuousScheduler).
//!
//! Every end-to-end number is a timestamp taken here, on the client side of
//! the stream. The machine has two cores, so all clients share **one**
//! generator thread that polls its in-flight requests and sleeps (100 µs to
//! 2 ms, see [`IDLE_SLEEP`]) when nothing arrived; the scheduler adds its
//! decode thread, one admission worker and one mask worker.

use std::sync::Arc;
use std::time::{Duration, Instant};

use xg_baselines::{ConstrainedBackend, XGrammarBackend};
use xg_engine::{
    ExecutionMode, LlmBehavior, ModelProfile, SchedulerConfig, SchedulerMetrics, ServingEngine,
    StreamEvent, StreamingRequest,
};
use xg_tokenizer::Vocabulary;

use crate::stats::{median_or_zero, Fnv};
use crate::workloads::Workload;

/// Share of real time the simulated GPU runs at: ≈1.5 ms per decode step, so
/// the engine's own CPU is about a sixth of a step and a 6 % change in it is
/// a 1 % TPOT move, while steps stay GPU-bound.
const TIME_SCALE: f64 = 0.25;

/// Idle polling interval: a twentieth of the time since the last event, so a
/// timestamp is at most 5 % of the interval it closes late, within these
/// limits. A fixed 100 µs poll cost the compile threads of `cold_schemas`
/// 10–15 % of their speed on this 2-core machine — the generator was
/// measuring itself.
const IDLE_SLEEP: (Duration, Duration) = (Duration::from_micros(100), Duration::from_millis(2));

/// What every pass of every workload shares.
#[derive(Debug)]
pub struct Fixture {
    pub vocab: Arc<Vocabulary>,
    /// Time it takes to build the vocabulary (median of three builds).
    pub build_s: f64,
    /// Picks request order and the simulated model's mistakes (`--seed`).
    pub seed: u64,
    pub smoke: bool,
}

impl Fixture {
    pub fn new(seed: u64, smoke: bool) -> Fixture {
        // Built as often as a workload is set up, so that every part of
        // `setup_s` is a median: one build of 0.1 s is most of what
        // `cold_schemas` sets up, and a single timing of it moved by 25 %.
        let mut times = Vec::new();
        let vocab = (0..3)
            .map(|_| {
                let start = Instant::now();
                let vocab = if smoke {
                    Arc::new(xg_tokenizer::test_vocabulary(2_000))
                } else {
                    // The paper's Llama-3.1 scale.
                    xg_bench::bench_vocabulary(128_000)
                };
                times.push(start.elapsed().as_secs_f64());
                vocab
            })
            .last()
            .expect("built three times");
        Fixture {
            vocab,
            build_s: median_or_zero(&times),
            seed,
            smoke,
        }
    }

    pub fn profile() -> ModelProfile {
        ModelProfile::llama31_8b_h100().scaled(TIME_SCALE)
    }

    pub fn llm_behavior(&self) -> LlmBehavior {
        LlmBehavior {
            seed: self.seed,
            ..LlmBehavior::default()
        }
    }
}

/// Client-side samples and scheduler counters of one pass.
#[derive(Debug)]
pub struct Pass {
    /// Datasets, backend, engine, warm compiles and scheduler start.
    pub setup_s: f64,
    /// First submission to last completion, registry updates included.
    pub wall_s: f64,
    /// Output tokens, sampled and forced.
    pub tokens: u64,
    pub attempted: u64,
    /// `Failed` events, `completed == false`, rejected registry updates, and
    /// repeats of a request whose bytes differ from its first serving.
    pub failed: u64,
    pub ttft_ms: Vec<f64>,
    /// Gaps between consecutive `Bytes` events of one request.
    pub gap_ms: Vec<f64>,
    pub queue_ms: Vec<f64>,
    pub admit_compile_ms: Vec<f64>,
    /// Bytes of each item's first finished serving.
    pub outputs: Vec<Option<Vec<u8>>>,
    pub scheduler: SchedulerMetrics,
}

impl Pass {
    /// Hash of every item's output bytes in item order: the same for every
    /// pass of a seed, and comparable between two commits.
    pub fn output_digest(&self) -> u64 {
        let mut digest = Fnv::default();
        for output in self.outputs.iter().flatten() {
            digest.write(&(output.len() as u64).to_le_bytes());
            digest.write(output);
        }
        digest.0
    }
}

struct InFlight {
    item: usize,
    handle: StreamingRequest,
    started: Instant,
    last_bytes: Option<Instant>,
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Sets the workload up from scratch (fresh backend, engine and scheduler,
/// so cache state at the first request is the same in every pass), then sends
/// its request list `lists` times over through `clients` closed-loop clients:
/// fixed work, so token counts repeat exactly from pass to pass and run to
/// run.
pub fn run_pass(workload: Workload, fixture: &Fixture, lists: usize) -> Pass {
    let setup = Instant::now();
    let inputs = workload.inputs(fixture.seed, fixture.smoke);
    let backend: Arc<dyn ConstrainedBackend> =
        Arc::new(XGrammarBackend::new(Arc::clone(&fixture.vocab)));
    let engine = ServingEngine::with_llm_behavior(
        Arc::clone(&backend),
        Fixture::profile(),
        ExecutionMode::Overlapped,
        fixture.llm_behavior(),
    );
    for &source in &inputs.warm {
        inputs.sources[source]
            .constraint()
            .compile(&*backend)
            .expect("warm compile");
    }
    let clients = workload.clients();
    let scheduler = engine.serve(SchedulerConfig {
        max_lanes: clients,
        queue_capacity: 64,
        admission_workers: 1,
        mask_workers: 1,
    });
    let setup_s = setup.elapsed().as_secs_f64();

    let items = &inputs.items;
    let mut pass = Pass {
        setup_s,
        wall_s: 0.0,
        tokens: 0,
        attempted: 0,
        failed: 0,
        ttft_ms: Vec::new(),
        gap_ms: Vec::new(),
        queue_ms: Vec::new(),
        admit_compile_ms: Vec::new(),
        outputs: vec![None; items.len()],
        // Placeholder; read again once the last request has finished.
        scheduler: scheduler.metrics(),
    };
    let mut slots: Vec<Option<InFlight>> = (0..clients).map(|_| None).collect();
    let mut issued = 0usize;
    let start = Instant::now();
    let mut last_event = start;
    loop {
        let mut progressed = false;
        let mut live = 0;
        for slot in &mut slots {
            if slot.is_none() && issued < lists * items.len() {
                let index = issued % items.len();
                let item = &items[index];
                issued += 1;
                progressed = true;
                pass.attempted += 1;
                // A turn starts before its registry update: the user waits
                // for both.
                let started = Instant::now();
                let updated = match &item.update {
                    Some((current, delta)) => engine
                        .update_tool_registry(current, delta)
                        .map(|_| ())
                        .map_err(|e| e.to_string()),
                    None => Ok(()),
                };
                let submitted = updated.and_then(|()| {
                    scheduler
                        .submit(item.request.clone())
                        .map_err(|e| e.to_string())
                });
                match submitted {
                    Ok(handle) => {
                        *slot = Some(InFlight {
                            item: index,
                            handle,
                            started,
                            last_bytes: None,
                        });
                    }
                    Err(err) => {
                        eprintln!("{}: item {index} not submitted: {err}", workload.name());
                        pass.failed += 1;
                    }
                }
            }
            let Some(flight) = slot else { continue };
            let mut done = false;
            while let Some(event) = flight.handle.try_next_event() {
                progressed = true;
                let now = Instant::now();
                match event {
                    StreamEvent::Admitted {
                        queue_time,
                        compile_time,
                        ..
                    } => {
                        pass.queue_ms.push(millis(queue_time));
                        pass.admit_compile_ms.push(millis(compile_time));
                    }
                    StreamEvent::Bytes(_) => {
                        match flight.last_bytes {
                            None => pass.ttft_ms.push(millis(now - flight.started)),
                            Some(last) => pass.gap_ms.push(millis(now - last)),
                        }
                        flight.last_bytes = Some(now);
                    }
                    StreamEvent::Finished { result, .. } => {
                        pass.tokens += (result.tokens + result.jump_forward_tokens) as u64;
                        let repeat_differs = pass.outputs[flight.item]
                            .as_ref()
                            .is_some_and(|first| *first != result.output);
                        if !result.completed || repeat_differs {
                            pass.failed += 1;
                        }
                        pass.outputs[flight.item].get_or_insert(result.output);
                        done = true;
                    }
                    StreamEvent::Failed(err) => {
                        eprintln!("{}: item {} failed: {err}", workload.name(), flight.item);
                        pass.failed += 1;
                        done = true;
                    }
                }
            }
            if done {
                *slot = None;
            } else {
                live += 1;
            }
        }
        if live == 0 && !progressed {
            break;
        }
        if progressed {
            last_event = Instant::now();
        } else {
            std::thread::sleep((last_event.elapsed() / 20).clamp(IDLE_SLEEP.0, IDLE_SLEEP.1));
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass.scheduler = scheduler.metrics();
    scheduler.shutdown();
    pass
}
