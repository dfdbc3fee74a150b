//! The simulated LLM serving engine: constrained batch decoding with
//! CPU/GPU overlap (paper §3.5 and §4.2).
//!
//! There is one decode loop — the
//! [`ContinuousScheduler`](crate::ContinuousScheduler) — and
//! [`ServingEngine`] is the handle that configures it: the backend, the
//! latency profile, the execution mode and the jump-forward policy.
//!
//! * [`ServingEngine::serve`] starts a scheduler; requests are submitted to
//!   its queue, joined to the persistent loop and then compiled on an
//!   admission worker, and decoded in the loop (in **overlapped** mode the
//!   compile and the first mask fill run under the prefill, which pays the
//!   first token, and masks for step *t+1* fill while the simulated GPU runs
//!   step *t*; in **serial** mode each waits for the other) and streamed back
//!   per request.
//! * [`ServingEngine::run_batch`] is the batch convenience over it: submit
//!   everything, wait for the last lane, return the scheduler's own
//!   [`SchedulerMetrics`].
//! * [`ServingEngine::decode_reference`] is the *specification* of what a
//!   request must produce: one lane, one thread, no timing — compile, start,
//!   then fill-mask / step until the lane finishes. Lanes are independent
//!   (see [`crate::lane`]), so the scheduler must serve every request exactly
//!   these bytes whatever the batch around it looks like; the differential
//!   suite in `tests/continuous_batching.rs` checks that it does.
//!
//! Under [`JumpForwardPolicy::Engine`] (the default) a lane additionally
//! injects grammar-*forced* text (paper Appendix B / Figure 11) at lane start
//! and after every accepted token: whenever the constraint admits exactly one
//! continuation, the engine emits it directly — re-tokenized against the
//! real vocabulary — skipping both the mask and the GPU step for those
//! tokens. Forced tokens are accounted separately
//! ([`SchedulerMetrics::forced_tokens`], [`SchedulerMetrics::forced_time`]) so
//! TPOT stays honest.

use std::sync::Arc;

use crate::lane::{ForcedContext, Lane};
use crate::llm::{LlmBehavior, SimulatedLlm};
use crate::profiles::ModelProfile;
use crate::scheduler::{SchedulerConfig, SchedulerMetrics, StreamingRequest};
use xg_baselines::{BackendError, ConstrainedBackend};
use xg_core::{CompiledConstraint, TokenBitmask};
use xg_grammar::{Grammar, StructuralTag};

/// Whether grammar work is overlapped with the simulated GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Mask generation, then GPU step, sequentially: the same per-lane jobs
    /// on the same mask workers as [`Overlapped`](Self::Overlapped), with the
    /// collect barrier *before* the GPU step instead of after it (the
    /// paper's no-overlap baseline). A lane's compile, prefill, first mask
    /// fill and first token follow one another; the first token is sampled
    /// from the prefill's logits, with no decode step before it.
    Serial,
    /// Mask generation concurrent with the GPU step (paper §3.5). In the
    /// continuous scheduler this additionally double-buffers: a lane's mask
    /// for step *t+1* is dispatched to the mask workers as soon as its step
    /// *t* token is accepted, so mask fill overlaps both the rest of the
    /// sampling phase and the next GPU step. A lane's compile, lane-start
    /// jump-forward and first mask fill run under its prefill, whose logits
    /// its first token is sampled from.
    Overlapped,
}

/// How the serving engine uses jump-forward decoding (paper Appendix B and
/// Figure 11): whenever a lane's constraint forces a unique continuation
/// (schema punctuation, forced keys, tag remainders), the engine can emit it
/// directly instead of paying one GPU decoding step per token.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum JumpForwardPolicy {
    /// Never jump forward: every output token is sampled under its mask (the
    /// Figure 11 ablation point, selectable via
    /// [`ServingEngine::with_jump_forward`]).
    Off,
    /// Engine-level jump-forward: forced bytes are re-tokenized against the
    /// real vocabulary (longest-prefix token cover, falling back to the
    /// byte-level tokens) and injected **token by token** without sampling
    /// or mask generation. Each injected token is a rollback unit, exactly
    /// as if it had been sampled — the serving path of Figure 11. This is
    /// the default policy: the differential suite
    /// (`tests/engine_jump_forward.rs`) proves it changes nothing but speed.
    #[default]
    Engine,
}

/// How one lane of a batch is constrained.
#[derive(Debug, Clone, Default)]
pub enum LaneConstraint {
    /// No constraint: plain sampling (prose lanes).
    #[default]
    Unconstrained,
    /// Fully constrained by a grammar from the first token.
    Grammar(Grammar),
    /// Structural tags: free text passes through unconstrained, tagged
    /// segments (tool calls) are grammar-constrained.
    StructuralTag(StructuralTag),
}

impl LaneConstraint {
    /// Compiles the lane's constraint through `backend`, returning `None` for
    /// unconstrained lanes. This is the engine's *single* per-constraint-kind
    /// dispatch point: everything after construction — sessions, masks,
    /// token acceptance, jump-forward — flows through the constraint-agnostic
    /// [`ConstraintMatcher`](xg_core::ConstraintMatcher) interface. The
    /// continuous scheduler calls it from its admission workers, off the
    /// decode hot path.
    ///
    /// # Errors
    ///
    /// Returns the backend's error if it cannot express the constraint.
    pub fn compile(
        &self,
        backend: &dyn ConstrainedBackend,
    ) -> Result<Option<Arc<dyn CompiledConstraint>>, BackendError> {
        match self {
            LaneConstraint::Unconstrained => Ok(None),
            LaneConstraint::Grammar(grammar) => backend.compile(grammar).map(Some),
            LaneConstraint::StructuralTag(tag) => backend.compile_structural(tag).map(Some),
        }
    }

    /// Probes whether `backend` already holds a compiled form of this
    /// constraint (compiled-grammar cache or structural-tag memo), without
    /// compiling anything. Unconstrained lanes report `true` — there is
    /// nothing to compile. Admission control uses this to tell cache-hit
    /// admissions (cheap, fast TTFT) from cold compiles.
    pub fn is_cached(&self, backend: &dyn ConstrainedBackend) -> bool {
        match self {
            LaneConstraint::Unconstrained => true,
            LaneConstraint::Grammar(grammar) => backend.is_cached(grammar),
            LaneConstraint::StructuralTag(tag) => backend.is_cached_structural(tag),
        }
    }
}

impl From<Grammar> for LaneConstraint {
    fn from(grammar: Grammar) -> Self {
        LaneConstraint::Grammar(grammar)
    }
}

impl From<StructuralTag> for LaneConstraint {
    fn from(tag: StructuralTag) -> Self {
        LaneConstraint::StructuralTag(tag)
    }
}

impl From<Option<Grammar>> for LaneConstraint {
    fn from(grammar: Option<Grammar>) -> Self {
        grammar.map_or(LaneConstraint::Unconstrained, LaneConstraint::Grammar)
    }
}

/// A single generation request.
#[derive(Debug, Clone)]
pub struct EngineRequest {
    /// The constraint applied to this request.
    pub constraint: LaneConstraint,
    /// Number of prompt tokens (drives simulated prefill time).
    pub prompt_tokens: usize,
    /// Reference output the simulated LLM tries to produce.
    pub reference: Vec<u8>,
    /// Hard cap on generated tokens.
    pub max_tokens: usize,
    /// Per-request seed for the simulated LLM's error injection. Part of the
    /// request (not derived from its batch position) so a request produces
    /// the same bytes whatever batch it joins, in any arrival order.
    pub seed: u64,
}

/// Per-request result.
#[derive(Debug, Clone)]
pub struct RequestResult {
    /// Generated text (sampled token bytes and jump-forward-forced bytes
    /// concatenated, in emission order).
    pub output: Vec<u8>,
    /// Number of *sampled* tokens (excluding EOS and tokens injected by
    /// jump-forward decoding). The first is paid by the prefill, whose logits
    /// it is sampled from; every later one, like the EOS, by a GPU decoding
    /// step.
    pub tokens: usize,
    /// Tokens injected by engine-level jump-forward without sampling
    /// (always 0 unless the engine runs [`JumpForwardPolicy::Engine`]).
    pub jump_forward_tokens: usize,
    /// Forced text injected by jump-forward without sampling, counted in
    /// *bytes* of UTF-8 (the paper's "jump-forward characters" figure; ASCII
    /// key names make the two coincide).
    pub jump_forward_chars: usize,
    /// Whether generation ended successfully: EOS was accepted (or an
    /// unconstrained lane emitted its full intention). `false` when the lane
    /// hit the token cap, had no allowed token, or violated its constraint.
    pub completed: bool,
}

/// The serving engine.
///
/// Its simulated model proposes, and jump-forward re-tokenizes forced text,
/// through the backend vocabulary's one sorted index
/// ([`Vocabulary::sorted`](xg_tokenizer::Vocabulary::sorted)); building an
/// engine sorts the vocabulary only if nothing sorted it before.
#[derive(Debug)]
pub struct ServingEngine {
    backend: Arc<dyn ConstrainedBackend>,
    profile: ModelProfile,
    mode: ExecutionMode,
    llm: SimulatedLlm,
    /// How constrained lanes use jump-forward decoding.
    jump_forward: JumpForwardPolicy,
}

impl ServingEngine {
    /// Creates an engine from a constrained-decoding backend, a latency
    /// profile and an execution mode. Jump-forward decoding defaults to
    /// [`JumpForwardPolicy::Engine`]; the number of mask workers is a property
    /// of each scheduler
    /// ([`SchedulerConfig::mask_workers`](crate::SchedulerConfig::mask_workers)).
    pub fn new(
        backend: Arc<dyn ConstrainedBackend>,
        profile: ModelProfile,
        mode: ExecutionMode,
    ) -> Self {
        Self::with_llm_behavior(backend, profile, mode, LlmBehavior::default())
    }

    /// Creates an engine with explicit simulated-LLM behaviour (used by the
    /// accuracy experiment).
    pub fn with_llm_behavior(
        backend: Arc<dyn ConstrainedBackend>,
        profile: ModelProfile,
        mode: ExecutionMode,
        behavior: LlmBehavior,
    ) -> Self {
        // The simulated model sorts the vocabulary here, outside any
        // batch's timed region, if nothing sorted it before; every compile,
        // proposal and re-tokenization then reads that one index.
        let llm = SimulatedLlm::new(Arc::clone(backend.vocabulary()), behavior);
        ServingEngine {
            backend,
            profile,
            mode,
            llm,
            jump_forward: JumpForwardPolicy::default(),
        }
    }

    /// Sets how constrained lanes use jump-forward decoding. The default is
    /// [`JumpForwardPolicy::Engine`] — grammar-forced tokens are injected
    /// without sampling, producing byte-identical outputs with fewer GPU
    /// steps; [`JumpForwardPolicy::Off`] restores the pre-jump-forward
    /// serving path (every token sampled) for comparisons.
    ///
    /// The byte-parity guarantee applies to lanes that run to completion: a
    /// lane truncated by `max_tokens` is cut at whatever token boundary the
    /// policy reached (sampled tokenization and the forced-token cover may
    /// tile the same bytes differently), though forced tokens always count
    /// toward the cap and injection never runs past it.
    pub fn with_jump_forward(mut self, policy: JumpForwardPolicy) -> Self {
        self.jump_forward = policy;
        self
    }

    /// The active jump-forward policy.
    pub(crate) fn jump_forward_policy(&self) -> JumpForwardPolicy {
        self.jump_forward
    }

    /// The backend driving constrained decoding.
    pub fn backend(&self) -> &Arc<dyn ConstrainedBackend> {
        &self.backend
    }

    /// Applies a tool-registry mutation between turns of an agentic session:
    /// the backend updates the compiled dispatch incrementally (only the
    /// touched trigger's segment grammar is recompiled; see
    /// [`ConstrainedBackend::update_structural`]) and caches the result, so
    /// requests submitted next with the returned catalog — to
    /// [`run_batch`](Self::run_batch) or a live
    /// [`serve`](Self::serve) scheduler — admit as cache hits. Returns the
    /// mutated catalog to use for those requests.
    ///
    /// # Errors
    ///
    /// Returns the backend's error if it has no incremental structural-tag
    /// support or the delta is invalid (duplicate tag, missing tag, an added
    /// trigger whose segment can never complete).
    pub fn update_tool_registry(
        &self,
        current: &xg_grammar::StructuralTag,
        delta: &xg_grammar::DispatchDelta,
    ) -> Result<xg_grammar::StructuralTag, BackendError> {
        let (next, _compiled) = self.backend.update_structural(current, delta)?;
        Ok(next)
    }

    /// The latency profile of the simulated GPU.
    pub(crate) fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    /// The execution mode (serial vs overlapped grammar work).
    pub(crate) fn mode(&self) -> ExecutionMode {
        self.mode
    }

    /// The simulated LLM.
    pub(crate) fn llm(&self) -> &SimulatedLlm {
        &self.llm
    }

    /// Starts a [`ContinuousScheduler`](crate::ContinuousScheduler) serving
    /// requests with this engine's backend, profile, execution mode and
    /// jump-forward policy. The scheduler owns its worker threads until
    /// [`shutdown`](crate::ContinuousScheduler::shutdown) (or drop).
    pub fn serve(&self, config: SchedulerConfig) -> crate::ContinuousScheduler {
        crate::ContinuousScheduler::start(self, config)
    }

    /// Runs a batch of requests to completion through the continuous
    /// scheduler: every request is submitted up front, compiled on one
    /// admission worker (in submission order, so cache accounting is
    /// deterministic), decoded concurrently, and collected when the last
    /// lane finishes; the metrics are the scheduler's own snapshot at that
    /// point. Every lane's result equals its
    /// [`decode_reference`](Self::decode_reference) — proven differentially
    /// in `tests/continuous_batching.rs`.
    ///
    /// # Errors
    ///
    /// Returns the backend's error if one of the grammars cannot be compiled
    /// by this backend (after letting the remaining lanes finish).
    pub fn run_batch(
        &self,
        requests: &[EngineRequest],
    ) -> Result<(Vec<RequestResult>, SchedulerMetrics), BackendError> {
        assert!(!requests.is_empty(), "batch must not be empty");
        let scheduler = self.serve(SchedulerConfig {
            max_lanes: requests.len(),
            queue_capacity: requests.len(),
            admission_workers: 1,
            mask_workers: 0,
        });
        let handles: Vec<StreamingRequest> = requests
            .iter()
            .map(|request| {
                scheduler
                    .submit(request.clone())
                    .expect("scheduler is live")
            })
            .collect();
        let finished: Vec<_> = handles.into_iter().map(StreamingRequest::wait).collect();
        let metrics = scheduler.metrics();
        scheduler.shutdown();
        let results = finished
            .into_iter()
            .map(|done| done.map(|done| done.result))
            .collect::<Result<_, _>>()?;
        Ok((results, metrics))
    }

    /// The reference decode of one request: one lane on the calling thread,
    /// no queue, no workers, no simulated latency — compile, open a session,
    /// run the lane-start jump-forward pass, then fill the mask and step until
    /// the lane finishes. Because lanes are independent (a lane's bytes depend
    /// only on its own constraint, reference and seed), this is what the
    /// scheduler must serve for `request` in any batch, arrival order or
    /// execution mode; map it over a request list to get the expected
    /// results of a whole batch.
    ///
    /// # Errors
    ///
    /// Returns the backend's error if the constraint cannot be compiled by
    /// this backend.
    pub fn decode_reference(&self, request: &EngineRequest) -> Result<RequestResult, BackendError> {
        let vocab = self.backend.vocabulary();
        let ctx = ForcedContext {
            jump_forward: self.jump_forward,
            vocab: Arc::clone(vocab),
        };
        let compiled = request.constraint.compile(self.backend.as_ref())?;
        let mut lane = Lane::new(
            compiled.map(|c| c.new_session()),
            self.llm.start_request(&request.reference, request.seed),
            request.max_tokens,
        );
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        lane.start(&ctx);
        while !lane.finished {
            if let Some(session) = &mut lane.session {
                session.fill_next_token_bitmask(&mut mask);
            }
            lane.step(lane.is_constrained().then_some(&mask), &ctx);
        }
        Ok(lane.into_result())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use xg_baselines::XGrammarBackend;
    use xg_datasets::json_mode_eval_like;
    use xg_tokenizer::test_vocabulary;

    fn fast_profile() -> ModelProfile {
        ModelProfile::llama31_8b_h100().scaled(0.02)
    }

    fn engine(mode: ExecutionMode) -> ServingEngine {
        let vocab = Arc::new(test_vocabulary(2000));
        let backend = Arc::new(XGrammarBackend::new(vocab));
        ServingEngine::new(backend, fast_profile(), mode)
    }

    fn requests(n: usize) -> Vec<EngineRequest> {
        json_mode_eval_like(n, 17)
            .into_iter()
            .enumerate()
            .map(|(i, task)| EngineRequest {
                constraint: LaneConstraint::Grammar(
                    xg_grammar::json_schema_to_grammar(&task.schema).unwrap(),
                ),
                prompt_tokens: 139,
                reference: task.reference,
                max_tokens: 200,
                seed: i as u64,
            })
            .collect()
    }

    #[test]
    fn constrained_batch_produces_schema_valid_json() {
        let engine = engine(ExecutionMode::Overlapped);
        let reqs = requests(2);
        let (results, metrics) = engine.run_batch(&reqs).unwrap();
        assert_eq!(results.len(), 2);
        for r in &results {
            let parsed: serde_json::Value =
                serde_json::from_slice(&r.output).expect("constrained output parses as JSON");
            assert!(parsed.is_object());
        }
        assert!(metrics.sampled_tokens > 0);
        assert!(metrics.tpot > Duration::ZERO);
    }

    #[test]
    fn overlap_hides_mask_generation_time() {
        // Use the naive full-scan backend so mask generation is expensive
        // enough that overlapping it with the GPU step is clearly visible.
        let vocab = Arc::new(test_vocabulary(2000));
        let backend: Arc<dyn xg_baselines::ConstrainedBackend> =
            Arc::new(xg_baselines::NaivePdaBackend::new(Arc::clone(&vocab)));
        let reqs: Vec<EngineRequest> = requests(2)
            .into_iter()
            .map(|mut r| {
                r.max_tokens = 16;
                r
            })
            .collect();
        // Use the real (unscaled) per-step GPU time so the serial engine pays
        // mask + GPU while the overlapped engine pays only max(mask, GPU).
        let profile = ModelProfile::llama31_8b_h100();
        // Both engines measure wall-clock time, so a loaded CI machine can
        // momentarily starve the overlapped engine's helper thread; retry a
        // few times and require the speedup to show up at least once.
        let mut last = None;
        for _ in 0..3 {
            let serial =
                ServingEngine::new(Arc::clone(&backend), profile.clone(), ExecutionMode::Serial)
                    .run_batch(&reqs)
                    .unwrap()
                    .1;
            let overlapped = ServingEngine::new(
                Arc::clone(&backend),
                profile.clone(),
                ExecutionMode::Overlapped,
            )
            .run_batch(&reqs)
            .unwrap()
            .1;
            if overlapped.wall_time < serial.wall_time {
                return;
            }
            last = Some((overlapped, serial));
        }
        let (overlapped, serial) = last.unwrap();
        panic!(
            "overlapped {:?} vs serial {:?} (mask {:?}, gpu {:?})",
            overlapped.wall_time, serial.wall_time, serial.mask_wait_time, serial.gpu_time
        );
    }

    #[test]
    fn parallel_and_serial_mask_generation_agree() {
        // Lane fill order must not matter: a batch served with one mask
        // worker and with four produces identical outputs.
        let backend = Arc::new(XGrammarBackend::new(Arc::new(test_vocabulary(2000))));
        let engine = ServingEngine::new(backend, fast_profile(), ExecutionMode::Serial);
        let reqs = requests(4);
        let run = |mask_workers: usize| {
            let scheduler = engine.serve(SchedulerConfig {
                max_lanes: reqs.len(),
                mask_workers,
                ..SchedulerConfig::default()
            });
            let handles: Vec<_> = reqs
                .iter()
                .map(|r| scheduler.submit(r.clone()).unwrap())
                .collect();
            let results: Vec<RequestResult> = handles
                .into_iter()
                .map(|h| h.wait().unwrap().result)
                .collect();
            let metrics = scheduler.metrics();
            scheduler.shutdown();
            (results, metrics)
        };
        let (serial_results, serial_metrics) = run(1);
        let (parallel_results, parallel_metrics) = run(4);
        for (s, p) in serial_results.iter().zip(&parallel_results) {
            assert_eq!(s.output, p.output);
            assert_eq!(s.tokens, p.tokens);
        }
        assert_eq!(serial_metrics.mask_workers, 1);
        assert_eq!(parallel_metrics.mask_workers, 4);
        // Timing sanity only (the realized speedup depends on mask weight and
        // machine load).
        assert!(parallel_metrics.mask_busy_time > Duration::ZERO);
    }

    #[test]
    fn batch_metrics_report_cache_activity() {
        // Four requests sharing one schema family: the first compiles, the
        // rest hit the compiled-grammar cache.
        let vocab = Arc::new(test_vocabulary(2000));
        let backend = Arc::new(XGrammarBackend::new(Arc::clone(&vocab)));
        let engine = ServingEngine::new(backend, fast_profile(), ExecutionMode::Serial);
        let schema = xg_datasets::json_mode_eval_like(1, 17).remove(0).schema;
        let grammar = xg_grammar::json_schema_to_grammar(&schema).unwrap();
        let reqs: Vec<EngineRequest> = (0..4)
            .map(|i| EngineRequest {
                constraint: LaneConstraint::Grammar(grammar.clone()),
                prompt_tokens: 10,
                reference: br#"{"location": "paris", "unit": "celsius", "days": 2}"#.to_vec(),
                max_tokens: 64,
                seed: i as u64,
            })
            .collect();
        let (_, metrics) = engine.run_batch(&reqs).unwrap();
        assert_eq!(metrics.cache.misses, 1);
        assert_eq!(metrics.cache.hits, 3);
        assert!(metrics.cache.hit_rate() > 0.7);
        // A second identical batch is all hits.
        let engine2 = ServingEngine::new(
            Arc::new(XGrammarBackend::new(Arc::clone(&vocab))),
            fast_profile(),
            ExecutionMode::Serial,
        );
        let (_, first) = engine2.run_batch(&reqs).unwrap();
        let (_, second) = engine2.run_batch(&reqs).unwrap();
        assert_eq!(first.cache.misses, 1);
        assert_eq!(second.cache.misses, 0);
        assert_eq!(second.cache.hits, 4);
    }

    #[test]
    fn jump_forward_policies_agree_byte_for_byte() {
        // Long forced key names make the schema lanes jump-forward heavy.
        let vocab = Arc::new(test_vocabulary(2000));
        let backend: Arc<dyn xg_baselines::ConstrainedBackend> =
            Arc::new(XGrammarBackend::new(Arc::clone(&vocab)));
        let reqs = requests(3);
        let run = |policy: JumpForwardPolicy| {
            ServingEngine::new(Arc::clone(&backend), fast_profile(), ExecutionMode::Serial)
                .with_jump_forward(policy)
                .run_batch(&reqs)
                .unwrap()
        };
        let (off_results, off_metrics) = run(JumpForwardPolicy::Off);
        let (engine_results, engine_metrics) = run(JumpForwardPolicy::Engine);
        for (off, engine) in off_results.iter().zip(&engine_results) {
            assert_eq!(off.output, engine.output, "engine policy changed bytes");
            assert!(engine.tokens <= off.tokens, "jump-forward added GPU steps");
        }
        assert_eq!(off_metrics.forced_tokens, 0);
        assert_eq!(off_metrics.forced_chars, 0);
        assert_eq!(off_metrics.forced_time, Duration::ZERO);
        assert!(engine_metrics.forced_tokens > 0);
        assert!(engine_metrics.forced_chars > 0);
        assert!(engine_metrics.forced_time > Duration::ZERO);
        assert!(engine_metrics.sampled_tokens < off_metrics.sampled_tokens);
    }

    /// Delegates to an [`XGrammarBackend`] but takes 300 ms to compile — a
    /// stand-in for a cold compile at a production vocabulary size.
    #[derive(Debug)]
    struct SlowCompileBackend(XGrammarBackend);

    impl ConstrainedBackend for SlowCompileBackend {
        fn name(&self) -> &'static str {
            "slow-compile"
        }

        fn vocabulary(&self) -> &Arc<xg_tokenizer::Vocabulary> {
            self.0.vocabulary()
        }

        fn compile(&self, grammar: &Grammar) -> Result<Arc<dyn CompiledConstraint>, BackendError> {
            std::thread::sleep(Duration::from_millis(300));
            self.0.compile(grammar)
        }
    }

    #[test]
    fn tpot_excludes_the_cold_admission_compile() {
        // Batch 1, cold: the 300 ms compile belongs to TTFT. TPOT covers the
        // gaps between the lane's own tokens, so the decode it accounts for
        // (tpot x sampled tokens) must stay below the compile alone.
        let backend = SlowCompileBackend(XGrammarBackend::new(Arc::new(test_vocabulary(2000))));
        let engine = ServingEngine::new(Arc::new(backend), fast_profile(), ExecutionMode::Serial);
        let (results, metrics) = engine.run_batch(&requests(1)).unwrap();
        assert!(results[0].completed && results[0].tokens > 1);
        assert!(metrics.ttft >= Duration::from_millis(300));
        assert!(metrics.tpot > Duration::ZERO);
        assert!(
            metrics.tpot * (results[0].tokens as u32) < Duration::from_millis(300),
            "tpot {:?} x {} sampled tokens contains the compile",
            metrics.tpot,
            results[0].tokens
        );
    }

    #[test]
    fn an_accepted_eos_ends_the_session_on_every_backend() {
        // `[.., EOS, x]` accepted token by token: the accepted EOS terminates
        // the session, so `x` must be refused — on the baselines too, which
        // used to wave EOS through without recording it.
        let vocab = Arc::new(test_vocabulary(600));
        let grammar = xg_grammar::parse_ebnf(r#"root ::= "a"+"#, "root").unwrap();
        let a = vocab.iter().find(|(_, t)| *t == b"a").unwrap().0;
        let backends: Vec<Arc<dyn ConstrainedBackend>> = vec![
            Arc::new(xg_baselines::NaivePdaBackend::new(Arc::clone(&vocab))),
            Arc::new(xg_baselines::FsmIndexBackend::new(Arc::clone(&vocab))),
            Arc::new(xg_baselines::FormatEnforcerBackend::new(Arc::clone(&vocab))),
            Arc::new(XGrammarBackend::new(Arc::clone(&vocab))),
        ];
        for backend in backends {
            let mut session = backend.compile(&grammar).unwrap().new_session();
            for token in [a, a, vocab.eos().unwrap()] {
                session.accept_token(token).unwrap();
            }
            assert!(session.is_terminated(), "{}", backend.name());
            assert_eq!(
                session.accept_token(a),
                Err(xg_core::AcceptError::AlreadyTerminated),
                "{}",
                backend.name()
            );
            let mut mask = TokenBitmask::new_all_rejected(vocab.len());
            mask.allow_all();
            session.fill_next_token_bitmask(&mut mask);
            assert_eq!(mask.count_allowed(), 0, "{}", backend.name());
        }
    }

    #[test]
    fn forced_tokens_count_toward_the_token_cap() {
        // A grammar that forces a long fixed prefix: with a tiny cap, the
        // engine must stop mid-injection instead of overshooting.
        let vocab = Arc::new(test_vocabulary(2000));
        let backend = Arc::new(XGrammarBackend::new(Arc::clone(&vocab)));
        let engine = ServingEngine::new(backend, fast_profile(), ExecutionMode::Serial)
            .with_jump_forward(JumpForwardPolicy::Engine);
        let grammar = xg_grammar::parse_ebnf(
            r#"root ::= "{\"transaction_identifier\": " [0-9]+ "}""#,
            "root",
        )
        .unwrap();
        let req = EngineRequest {
            constraint: LaneConstraint::Grammar(grammar),
            prompt_tokens: 4,
            reference: br#"{"transaction_identifier": 7}"#.to_vec(),
            max_tokens: 3,
            seed: 0,
        };
        let (results, _) = engine.run_batch(std::slice::from_ref(&req)).unwrap();
        assert!(!results[0].completed, "the cap must cut generation short");
        assert!(
            results[0].tokens + results[0].jump_forward_tokens <= 3,
            "sampled {} + forced {} exceeded the cap",
            results[0].tokens,
            results[0].jump_forward_tokens
        );
        assert!(results[0].jump_forward_tokens > 0);
    }

    #[test]
    fn unconstrained_requests_run_without_grammar() {
        let vocab = Arc::new(test_vocabulary(2000));
        let backend = Arc::new(XGrammarBackend::new(vocab));
        let engine = ServingEngine::new(backend, fast_profile(), ExecutionMode::Serial);
        let req = EngineRequest {
            constraint: LaneConstraint::Unconstrained,
            prompt_tokens: 10,
            reference: br#"{"ok": true}"#.to_vec(),
            max_tokens: 100,
            seed: 0,
        };
        let (results, _) = engine.run_batch(std::slice::from_ref(&req)).unwrap();
        assert!(results[0].completed);
        assert!(!results[0].output.is_empty());
    }

    #[test]
    fn mixed_prose_and_tool_call_lanes_run_in_one_batch() {
        use xg_grammar::{StructuralTag, TagContent, TagSpec};

        let vocab = Arc::new(test_vocabulary(2000));
        let backend = Arc::new(XGrammarBackend::new(Arc::clone(&vocab)));
        let engine = ServingEngine::with_llm_behavior(
            backend,
            fast_profile(),
            ExecutionMode::Serial,
            LlmBehavior {
                prose_probability: 0.0,
                type_error_probability: 0.0,
                seed: 5,
            },
        );
        let schema = serde_json::json!({
            "type": "object",
            "properties": {"city": {"type": "string"}},
            "required": ["city"],
            "additionalProperties": false
        });
        let tag = StructuralTag::new(vec![TagSpec {
            begin: "<tool_call>".into(),
            content: TagContent::JsonSchema(schema),
            end: "</tool_call>".into(),
        }]);
        let tool_reference = br#"Looking that up. <tool_call>{"city": "paris"}</tool_call> Done."#;
        let reqs = vec![
            EngineRequest {
                constraint: LaneConstraint::StructuralTag(tag),
                prompt_tokens: 20,
                reference: tool_reference.to_vec(),
                max_tokens: 200,
                seed: 0,
            },
            EngineRequest {
                constraint: LaneConstraint::Unconstrained,
                prompt_tokens: 20,
                reference: b"Plain prose lane, no structure at all.".to_vec(),
                max_tokens: 200,
                seed: 1,
            },
        ];
        let (results, metrics) = engine.run_batch(&reqs).unwrap();
        // The structural lane reproduces prose AND a conformant tool call.
        let output = String::from_utf8_lossy(&results[0].output);
        assert!(results[0].completed, "structural lane finishes with EOS");
        assert_eq!(output, String::from_utf8_lossy(tool_reference));
        let inner = output
            .split("<tool_call>")
            .nth(1)
            .and_then(|s| s.split("</tool_call>").next())
            .expect("tagged segment present");
        let parsed: serde_json::Value = serde_json::from_str(inner).unwrap();
        assert_eq!(parsed["city"], serde_json::json!("paris"));
        // The prose lane is untouched by the grammar machinery.
        assert!(results[1].completed);
        // The mask pool is sized from the batch, not from its constrained
        // share: available parallelism capped at the two lanes.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(metrics.mask_workers, cores.min(reqs.len()));
    }

    #[test]
    fn proposer_retokenizer_and_compiler_share_one_sorted_vocabulary() {
        // One sort per vocabulary: whatever the policy, the simulated model
        // proposes through, and jump-forward re-tokenizes with, the index
        // the compiler's vocabulary keeps.
        let backend = Arc::new(XGrammarBackend::new(Arc::new(test_vocabulary(600))));
        let engine = ServingEngine::new(backend.clone(), fast_profile(), ExecutionMode::Serial);
        let compilers = backend.compiler().vocabulary().sorted();
        assert!(Arc::ptr_eq(
            engine.backend().vocabulary().sorted(),
            compilers
        ));
        assert!(Arc::ptr_eq(engine.llm().vocabulary().sorted(), compilers));
        let compiled = backend.compiler().compile_builtin_json();
        assert!(Arc::ptr_eq(compiled.vocabulary().sorted(), compilers));
        let off = engine.with_jump_forward(JumpForwardPolicy::Off);
        assert!(Arc::ptr_eq(off.llm().vocabulary().sorted(), compilers));
    }

    #[test]
    fn jump_forward_defaults_to_engine_policy() {
        let engine = engine(ExecutionMode::Serial);
        assert_eq!(engine.jump_forward_policy(), JumpForwardPolicy::Engine);
        // `Off` stays reachable through the builder.
        let vocab = Arc::new(test_vocabulary(600));
        let off = ServingEngine::new(
            Arc::new(XGrammarBackend::new(vocab)),
            fast_profile(),
            ExecutionMode::Serial,
        )
        .with_jump_forward(JumpForwardPolicy::Off);
        assert_eq!(off.jump_forward_policy(), JumpForwardPolicy::Off);
    }
}
