//! Simulated LLM serving engine for the XGrammar reproduction.
//!
//! This crate provides the end-to-end substrate behind the paper's serving
//! experiments (§4.2, §4.4, Appendix B/C):
//!
//! * [`ModelProfile`] — calibrated latency models standing in for the real
//!   GPUs (H100, RTX 4090, Apple M3 Max, iPhone),
//! * [`SimulatedLlm`] — a deterministic token proposer with configurable
//!   formatting-error injection,
//! * [`ContinuousScheduler`] — the engine's one decode loop, a
//!   continuous-batching serving core (started via
//!   [`ServingEngine::serve`]): a bounded request queue feeds
//!   admission workers that compile grammars off the decode hot path, a
//!   persistent decode loop admits lanes mid-batch and retires them on
//!   termination, and mask generation overlaps the simulated GPU phase via
//!   double-buffering; each request streams its bytes through a
//!   [`StreamingRequest`] handle,
//! * [`ServingEngine::run_batch`] — one-shot batch decoding, a thin wrapper
//!   over the scheduler; lanes choose their constraint via
//!   [`LaneConstraint`] (unconstrained prose, a full grammar, or a structural
//!   tag mixing free text with constrained tool calls) and drive it through
//!   the one per-lane trait, `xg_core::ConstraintMatcher`,
//! * [`ServingEngine::decode_reference`] — the single-lane, single-thread,
//!   untimed reference decode that specifies what the scheduler must serve
//!   for a request (lanes are independent), used by the differential tests,
//! * [`run_accuracy_experiment`] — the Table 4 syntactic-correctness
//!   experiment,
//! * engine-level jump-forward decoding ([`JumpForwardPolicy`], default
//!   [`JumpForwardPolicy::Engine`]): grammar-forced text is re-tokenized and
//!   injected into the decode loop without sampling, with forced tokens and
//!   time accounted separately in [`SchedulerMetrics`] (paper Appendix B /
//!   Figure 11).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod accuracy;
mod engine;
mod lane;
mod llm;
mod profiles;
mod scheduler;

pub use accuracy::{run_accuracy_experiment, AccuracyResult, AccuracyTask};
pub use engine::{
    EngineRequest, ExecutionMode, JumpForwardPolicy, LaneConstraint, RequestResult, ServingEngine,
};
pub use llm::{LlmBehavior, LlmRequestState, SimulatedLlm};
pub use profiles::ModelProfile;
pub use scheduler::{
    ContinuousScheduler, FinishedRequest, LaneTiming, SchedulerConfig, SchedulerMetrics,
    StreamEvent, StreamingRequest, SubmitError,
};
