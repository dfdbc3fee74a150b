//! Continuous-batching scheduler: the engine's one decode loop.
//!
//! This is the pipeline the paper describes (§3.5): a bounded submission
//! queue feeds **admission workers** that hand each request's lane to the
//! persistent **decode loop** and only then compile its grammar (hitting the
//! backend's `GrammarCache` first), and a pool of **mask workers** fills token
//! bitmasks while the simulated GPU steps. Each request streams its bytes
//! through a per-request channel, none before its prefill ends.
//!
//! ```text
//! submit() ──▶ [queue (bounded)] ──▶ admission workers ──▶ [ready (bounded)]
//!                                     1. hand the lane over        │
//!                                     2. compile ── the result ──▶ ▼
//!             mask workers ◀──(the lane, to fill)──────── decode loop: one
//!                          ──(the same lane, filled   LaneState per lane,
//!                             or failed)──────────▶   one Round per pass
//!                                                                  │
//!        StreamingRequest ◀── Admitted / Bytes / Finished / Failed ┘
//! ```
//!
//! The decode loop keeps its batch in one collection, each lane in exactly
//! one [`LaneState`]: compiling; prefilling until an instant; holding its
//! prefill's logits; at a mask worker; decoding; finished; failed. One pure
//! function, [`advance`], decides every transition and the effect the loop
//! carries out for it, so a failed compile, a dead admission worker and a
//! panicking mask fill each end their own request and free its slot. The
//! [`Planner`], the only reader of the [`ExecutionMode`], turns the states
//! into a [`Round`]: the lanes holding their prefill's logits sample first,
//! with no step, so a joiner's first token comes from its prefill; otherwise
//! the batch of decoding lanes steps and samples. The mode is only an order:
//! overlapped, a round's next fills are handed off after it samples (one
//! lock, one wake) and fill under the next step, and a joiner prefills at
//! once, its compile and first fill landing under the prefill; serial, the
//! paper's no-overlap baseline, fills before the step and prefills once the
//! compile has landed. [`DecodeLoop`] carries out rounds and effects and feeds
//! events back on an [`Env`]: the threads' channels, [`Bell`] and mask pool,
//! or, in the `lifecycle` tests, scripted lanes on virtual time. It waits in
//! one place with one 1 ms spin budget ([`SPIN_BUDGET`]): a GPU step or prefill
//! spins its last 1 ms, an idle loop its first before it parks on the bell.
//!
//! A lane is one value from admission to retirement, moved to a mask worker
//! and back. Backpressure composes: the submission queue is bounded
//! ([`try_submit`](ContinuousScheduler::try_submit) reports
//! [`SubmitError::Saturated`]), the ready channel holds at most `max_lanes`
//! lanes, and an admission worker blocks on its `send` while the batch is
//! full, compiling lanes included. Lanes are driven only through
//! [`Lane::start`]/[`Lane::step`], and a lane's bytes depend only on its own
//! request, so every request is served exactly its
//! [`decode_reference`](crate::ServingEngine::decode_reference)
//! (`tests/continuous_batching.rs`).
//!
//! [`Lane::start`]: crate::lane::Lane::start
//! [`Lane::step`]: crate::lane::Lane::step

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender, TryRecvError, TrySendError};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::{EngineRequest, ExecutionMode, RequestResult, ServingEngine};
use crate::lane::{ForcedContext, Lane};
use crate::llm::SimulatedLlm;
use crate::profiles::ModelProfile;
use xg_baselines::{BackendError, ConstrainedBackend, Session};
use xg_core::{CacheStats, TokenBitmask};

/// Sizing and worker-count configuration of a [`ContinuousScheduler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Maximum number of lanes in the batch, a lane whose grammar still
    /// compiles included. Lanes beyond this wait in the bounded ready
    /// channel (which also holds at most `max_lanes`), stalling admission.
    pub max_lanes: usize,
    /// Capacity of the submission queue. [`submit`] blocks and
    /// [`try_submit`] reports [`SubmitError::Saturated`] when it is full.
    ///
    /// [`submit`]: ContinuousScheduler::submit
    /// [`try_submit`]: ContinuousScheduler::try_submit
    pub queue_capacity: usize,
    /// Number of admission workers compiling grammars off the hot path.
    pub admission_workers: usize,
    /// Number of mask-fill workers. `0` selects the machine's available
    /// parallelism capped at `max_lanes`.
    pub mask_workers: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_lanes: 64,
            queue_capacity: 256,
            admission_workers: 2,
            mask_workers: 0,
        }
    }
}

/// One event in a request's stream, in order: one `Admitted`, zero or more
/// `Bytes`, then exactly one of `Finished` / `Failed`.
#[derive(Debug)]
pub enum StreamEvent {
    /// The request's compile landed; its lane, already in the batch, samples
    /// its first token once its prefill has ended, before the next step.
    Admitted {
        /// Time spent waiting in the submission queue.
        queue_time: Duration,
        /// Time the admission worker spent compiling the constraint (near
        /// zero on a cache hit).
        compile_time: Duration,
        /// Whether the backend already held a compiled form of the
        /// constraint when the request was admitted.
        cache_hit: bool,
    },
    /// Bytes emitted by one decode step (sampled token bytes plus any
    /// jump-forward-forced continuation, in emission order).
    Bytes(Vec<u8>),
    /// The request finished decoding; terminal.
    Finished {
        /// The complete result, equal to the request's
        /// [`decode_reference`](crate::ServingEngine::decode_reference).
        result: RequestResult,
        /// Per-request latency breakdown.
        timing: LaneTiming,
    },
    /// The request failed: its constraint did not compile, or one of its
    /// mask fills panicked; terminal.
    Failed(BackendError),
}

/// Per-request latency breakdown reported with [`StreamEvent::Finished`].
#[derive(Debug, Clone, Copy, Default)]
pub struct LaneTiming {
    /// Time from submission to admission (queue wait).
    pub queue_time: Duration,
    /// Time the admission worker spent compiling the constraint.
    pub compile_time: Duration,
    /// Time from submission to the first emitted bytes (sampled or forced):
    /// queue wait, the rest of a decoding batch's current step, the longer of
    /// prefill and compile + first mask fill (their sum in serial mode), then
    /// sampling from the prefill's logits — with no decode step before it.
    pub ttft: Duration,
    /// Mean decode time per sampled token after the first emission, with
    /// the forced-injection time spent after it carved out. Zero when the
    /// lane sampled at most one token.
    pub tpot: Duration,
    /// Time from submission to termination.
    pub total_time: Duration,
    /// Whether the constraint was already compiled when the request was
    /// admitted (its compile was a cache hit).
    pub cache_hit: bool,
}

/// A finished request: the result plus its latency breakdown.
#[derive(Debug, Clone)]
pub struct FinishedRequest {
    /// The generation result, equal to the request's
    /// [`decode_reference`](crate::ServingEngine::decode_reference).
    pub result: RequestResult,
    /// Per-request latency breakdown.
    pub timing: LaneTiming,
}

/// Handle to one in-flight request: a stream of [`StreamEvent`]s.
#[derive(Debug)]
pub struct StreamingRequest {
    id: u64,
    events: Receiver<StreamEvent>,
}

impl StreamingRequest {
    /// Scheduler-assigned request id (submission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until the next event, or `None` once the stream is exhausted
    /// (after the terminal event, or if the scheduler shut down early).
    pub fn next_event(&self) -> Option<StreamEvent> {
        self.events.recv().ok()
    }

    /// Returns the next event if one is already queued, without blocking.
    pub fn try_next_event(&self) -> Option<StreamEvent> {
        self.events.try_recv().ok()
    }

    /// Drains the stream to its terminal event and returns the finished
    /// request.
    ///
    /// # Errors
    ///
    /// Returns the error of a [`StreamEvent::Failed`] (the backend's compile
    /// error, or the scheduler's own), or a scheduler-shutdown error if the
    /// stream ended without a terminal event.
    pub fn wait(self) -> Result<FinishedRequest, BackendError> {
        while let Some(event) = self.next_event() {
            match event {
                StreamEvent::Admitted { .. } | StreamEvent::Bytes(_) => {}
                StreamEvent::Finished { result, timing } => {
                    return Ok(FinishedRequest { result, timing });
                }
                StreamEvent::Failed(err) => return Err(err),
            }
        }
        Err(scheduler_error(
            "scheduler shut down before the request finished",
        ))
    }
}

/// An error the scheduler itself reports for a request.
pub(crate) fn scheduler_error(reason: &str) -> BackendError {
    BackendError::UnsupportedGrammar {
        backend: "scheduler",
        reason: reason.into(),
    }
}

/// Why a submission was not accepted. The request is handed back (boxed, to
/// keep the `Err` variant small) so the caller can retry or shed load.
#[derive(Debug)]
pub enum SubmitError {
    /// The submission queue is full (backpressure); retry later.
    Saturated(Box<EngineRequest>),
    /// The scheduler has been shut down.
    ShutDown(Box<EngineRequest>),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Saturated(_) => write!(f, "submission queue is full"),
            SubmitError::ShutDown(_) => write!(f, "scheduler has been shut down"),
        }
    }
}

impl Error for SubmitError {}

/// Aggregate scheduler statistics, captured by
/// [`ContinuousScheduler::metrics`] — the quantities reported in §4.2.
#[derive(Debug, Clone, Default)]
pub struct SchedulerMetrics {
    /// Requests accepted into the submission queue.
    pub submitted: u64,
    /// Requests rejected by [`try_submit`](ContinuousScheduler::try_submit)
    /// because the queue was full.
    pub rejected: u64,
    /// Requests whose compile succeeded (each announced by `Admitted`).
    pub admitted: u64,
    /// Requests that finished decoding.
    pub completed: u64,
    /// Requests that failed: their constraint did not compile (a panic
    /// included), or one of their mask fills panicked.
    pub failed: u64,
    /// Admissions whose constraint was already compiled (cache hits).
    pub cache_hit_admissions: u64,
    /// High-water mark of the batch at a decode step, compiling lanes included.
    pub max_concurrent_lanes: usize,
    /// Time to first token of the fastest lane: the minimum of the finished
    /// lanes' [`LaneTiming::ttft`]. Zero until a lane finishes.
    pub ttft: Duration,
    /// Mean time per *sampled* output token: the mean of the finished lanes'
    /// [`LaneTiming::tpot`] over lanes that sampled more than one token (zero
    /// when none did). Each lane's figure covers only the gaps between its
    /// own tokens, so the admission compile (which belongs to
    /// [`ttft`](Self::ttft)) never leaks into it; forced-injection time
    /// ([`forced_time`](Self::forced_time)) and the injected tokens are
    /// excluded too, so jump-forward shows up as fewer sampled tokens and a
    /// shorter [`wall_time`](Self::wall_time), not as an artificially low TPOT.
    pub tpot: Duration,
    /// Wall clock since the scheduler started.
    pub wall_time: Duration,
    /// GPU decode steps run; a lane's first token comes from its prefill.
    pub decode_steps: u64,
    /// Tokens sampled across all finished lanes (a lane's first from its prefill).
    pub sampled_tokens: u64,
    /// Tokens injected by jump-forward across all finished lanes (0 under
    /// [`JumpForwardPolicy::Off`](crate::JumpForwardPolicy::Off)).
    pub forced_tokens: u64,
    /// Bytes of UTF-8 injected by jump-forward across all finished lanes (see
    /// [`RequestResult::jump_forward_chars`]).
    pub forced_chars: u64,
    /// Wall clock spent finding, re-tokenizing and injecting forced text.
    /// Excluded from [`tpot`](Self::tpot).
    pub forced_time: Duration,
    /// Wall clock the decode loop spent *waiting* on mask collection (in
    /// overlapped mode: the residual the overlap failed to hide).
    pub mask_wait_time: Duration,
    /// Time the mask workers spent filling bitmasks, summed across workers
    /// (≥ wall wait when the overlap works). Each worker measures its own
    /// wall clock, so on an oversubscribed machine this includes scheduler
    /// wait and can exceed true CPU time.
    pub mask_busy_time: Duration,
    /// Wall clock spent in simulated GPU decode steps: token generation only.
    pub gpu_time: Duration,
    /// Wall clock of the prefills the decode loop ran (outside `decode_time`).
    pub prefill_time: Duration,
    /// Wall clock the decode loop spent inside `Lane::step`: proposing under
    /// the mask, accepting, and injecting forced text
    /// ([`forced_time`](Self::forced_time) is part of it).
    pub sample_time: Duration,
    /// Wall clock the decode loop spent handing mask jobs to the workers.
    /// With [`gpu_time`](Self::gpu_time),
    /// [`mask_wait_time`](Self::mask_wait_time) and
    /// [`sample_time`](Self::sample_time) it accounts for
    /// [`decode_time`](Self::decode_time); the rest is event sends and loop
    /// bookkeeping.
    pub handoff_time: Duration,
    /// Wall clock of the decode loop while at least one lane was live.
    pub decode_time: Duration,
    /// Wall clock the admission workers spent compiling constraints.
    pub compile_time: Duration,
    /// Number of mask workers serving the decode loop.
    pub mask_workers: usize,
    /// Grammar-cache activity since the scheduler started: hit/miss deltas of
    /// *this engine's backend* (other backends sharing the same
    /// [`GrammarCache`](xg_core::GrammarCache) do not pollute them), the
    /// backing cache's eviction delta, and its current byte/entry gauges.
    /// All zeros when the backend has no cache.
    pub cache: CacheStats,
}

impl SchedulerMetrics {
    /// Fraction of the decode wall-clock the mask workers were busy,
    /// normalized by worker count. Zero when nothing decoded.
    pub fn mask_worker_utilization(&self) -> f64 {
        let denom = self.mask_workers as f64 * self.decode_time.as_secs_f64();
        if denom <= 0.0 {
            return 0.0;
        }
        self.mask_busy_time.as_secs_f64() / denom
    }

    /// Generated tokens (sampled + forced) per second of decode wall-clock.
    /// Zero when nothing decoded.
    pub fn throughput(&self) -> f64 {
        let secs = self.decode_time.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        (self.sampled_tokens + self.forced_tokens) as f64 / secs
    }
}

/// The one record of a request, created by `submit` and moved from stage to
/// stage until its lane retires: its id, where its events go, and the timing
/// each stage fills its share of.
struct Ticket {
    id: u64,
    events: Sender<StreamEvent>,
    submitted_at: Instant,
    timing: LaneTiming,
}

/// A request travelling from `submit` to an admission worker.
struct Submission {
    ticket: Ticket,
    request: EngineRequest,
}

/// A request's lane from admission to retirement. An admission worker builds
/// it with no session and hands it to the decode loop before compiling; the
/// loop holds it in the batch until the compile result follows, then moves
/// it, while its next mask fills, to a mask worker and back.
struct ActiveLane {
    ticket: Ticket,
    lane: Lane,
    prompt_tokens: usize,
    /// Where the admission worker sends the compile result.
    compiled: Receiver<Compiled>,
    /// The lane's next-token mask; an unconstrained lane never reads it.
    mask: TokenBitmask,
    /// Time from submission to the first emitted bytes, and the lane's
    /// `forced_time` by then (already inside the former).
    first_emit: Option<(Duration, Duration)>,
    /// How much of `lane.output` has streamed.
    streamed: usize,
}

/// Where a lane of the decode loop's batch is; each lane is in exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneState {
    /// Its compile has not landed. Its prefill ends at the instant, or
    /// (`None`, serial mode) starts once the compile lands.
    Compiling(Option<Instant>),
    /// Compiled and started; nothing streams before its prefill ends.
    Prefilling(Instant),
    /// Holds its prefill's logits: samples before the batch steps again.
    Prefilled,
    /// At a mask worker while its next mask fills; a `joiner` has not
    /// sampled yet.
    AtMaskWorker { joiner: bool },
    /// Has sampled, and samples again after the next step.
    Decoding,
    /// Ended; the loop retires it.
    Finished,
    /// Its compile, a mask fill or a sampled token's accept failed; its
    /// request got `Failed`.
    Failed,
}

/// What happened to a lane, fed back into [`advance`] by the decode loop.
#[derive(Debug)]
enum Event {
    /// Its compile landed at `now` and it started; `finished` if the
    /// lane-start pass ended it.
    Started {
        now: Instant,
        finished: bool,
    },
    /// Its compile failed or its admission worker died, a fill panicked, or
    /// its session could not decide a sampled token.
    Failed(BackendError),
    /// The loop has waited out every prefill that began before the instant.
    PrefillEnded(Instant),
    HandedOff,
    /// Back from the mask worker, its mask filled.
    Filled,
    Sampled {
        finished: bool,
    },
}

/// What the decode loop carries out for a transition.
#[derive(Debug)]
enum Effect {
    None,
    /// Stream the lane's new bytes.
    Stream,
    /// Pay the lane's prefill, then stream: serial mode's compile came first.
    PrefillThenStream,
    /// Count the failure and send it to the request.
    Fail(BackendError),
}

/// The lane lifecycle: the state an event moves a lane to, and the effect
/// the loop carries out. A pair not listed is a scheduler bug.
fn advance(state: LaneState, event: &Event) -> (LaneState, Effect) {
    use LaneState::*;
    let ended = |finished, or| if finished { Finished } else { or };
    match (state, event) {
        (Compiling(_) | AtMaskWorker { .. } | Prefilled | Decoding, Event::Failed(err)) => {
            (Failed, Effect::Fail(err.clone()))
        }
        (Compiling(prefill_end), &Event::Started { now, finished }) => match prefill_end {
            Some(until) if now < until => (Prefilling(until), Effect::None),
            Some(_) => (ended(finished, Prefilled), Effect::Stream),
            None => (ended(finished, Prefilled), Effect::PrefillThenStream),
        },
        (Prefilling(until), &Event::PrefillEnded(now)) if until <= now => (Prefilled, Effect::None),
        (Prefilling(_) | Prefilled, Event::HandedOff) => {
            (AtMaskWorker { joiner: true }, Effect::None)
        }
        (Decoding, Event::HandedOff) => (AtMaskWorker { joiner: false }, Effect::None),
        (AtMaskWorker { joiner: true }, Event::Filled) => (Prefilled, Effect::None),
        (AtMaskWorker { joiner: false }, Event::Filled) => (Decoding, Effect::None),
        (Prefilled | Decoding, &Event::Sampled { finished }) => {
            (ended(finished, Decoding), Effect::Stream)
        }
        (state, event) => unreachable!("a lane {state:?} cannot take {event:?}"),
    }
}

/// A phase of a [`Round`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// The simulated GPU decode step over the round's lanes.
    Step,
    /// The round's lanes that need a mask go to the mask workers.
    HandOff,
    /// Every lane at a mask worker comes back.
    Collect,
    /// The round's lanes sample.
    Sample,
}

/// One round of the decode loop: its phases in order, and the lanes that
/// sample, by position in the batch.
#[derive(Debug)]
struct Round {
    phases: &'static [Phase],
    lanes: Vec<usize>,
}

/// Turns lane states into rounds. The only reader of the execution mode,
/// which it turns into an order of phases and of a joiner's compile and
/// prefill.
#[derive(Debug, Clone, Copy)]
struct Planner(ExecutionMode);

impl Planner {
    /// The state a lane joins in, its prefill ending at `end` if it starts
    /// now: overlapped it does, serial it waits for the compile.
    fn join(self, end: Instant) -> LaneState {
        LaneState::Compiling(Some(end).filter(|_| self.0 == ExecutionMode::Overlapped))
    }

    /// Whether a lane's first fill goes to the mask workers as its compile
    /// lands, under its prefill, rather than in its joiner round.
    fn fills_on_landing(self) -> bool {
        self.0 == ExecutionMode::Overlapped
    }

    /// The next round, `None` if no lane can sample: the lanes holding their
    /// prefill's logits, with no step; otherwise, if it `may_step`, every
    /// decoding lane, after a step over exactly them. Overlapped, a round
    /// hands its lanes' next fills off after sampling, to fill under the next
    /// step; serial, the fills complete before the step.
    fn round(
        self,
        states: impl Iterator<Item = LaneState> + Clone,
        may_step: bool,
    ) -> Option<Round> {
        let pick = |joiners: bool| -> Vec<usize> {
            let picked = states
                .clone()
                .enumerate()
                .filter(|&(_, state)| match state {
                    LaneState::Prefilled => joiners,
                    LaneState::AtMaskWorker { joiner } => joiner == joiners,
                    LaneState::Decoding => !joiners,
                    _ => false,
                });
            picked.map(|(i, _)| i).collect()
        };
        let joiners = pick(true);
        let step = joiners.is_empty();
        let lanes = match (step, may_step) {
            (false, _) => joiners,
            (true, true) => pick(false),
            (true, false) => return None,
        };
        use {ExecutionMode::*, Phase::*};
        let phases: &'static [Phase] = match (self.0, step) {
            (Overlapped, false) => &[Collect, Sample, HandOff],
            (Overlapped, true) => &[Step, Collect, Sample, HandOff],
            (Serial, false) => &[HandOff, Collect, Sample],
            (Serial, true) => &[HandOff, Collect, Step, Sample],
        };
        (!lanes.is_empty()).then_some(Round { phases, lanes })
    }
}

/// Locks `mutex`, recovering it if a thread panicked while holding it. Every
/// lock here guards counters, a queue, an `Option<Sender>` or a receiver,
/// and each critical section is a push, a pop, an add or a `recv`, so the
/// guarded state is valid at every point a panic could leave it.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Spawns one named scheduler thread.
fn spawn(name: String, body: impl FnOnce() + Send + 'static) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name(name)
        .spawn(body)
        .expect("the OS starts a scheduler thread")
}

#[derive(Default)]
struct MaskPoolState {
    lanes: VecDeque<ActiveLane>,
    shutdown: bool,
}

/// Work queue shared by the persistent mask workers.
#[derive(Default)]
struct MaskPool {
    state: Mutex<MaskPoolState>,
    available: Condvar,
}

impl MaskPool {
    fn shutdown(&self) {
        lock(&self.state).shutdown = true;
        self.available.notify_all();
    }
}

/// Body of one persistent mask worker: pop a lane, fill its mask, send it
/// back with whether the fill returned. The job is the lane, so a fill that
/// panics fails that lane and the worker serves on. Exits when the pool shuts
/// down and drains, or when the decode loop (the receiver) is gone.
fn mask_worker(pool: &MaskPool, done: &Sender<(ActiveLane, bool)>, shared: &Shared) {
    loop {
        let popped = (pool.available)
            .wait_while(lock(&pool.state), |s| s.lanes.is_empty() && !s.shutdown)
            .unwrap_or_else(PoisonError::into_inner)
            .lanes
            .pop_front();
        let Some(mut al) = popped else {
            return;
        };
        let start = Instant::now();
        let filled = panic::catch_unwind(AssertUnwindSafe(|| {
            if let Some(session) = &mut al.lane.session {
                session.fill_next_token_bitmask(&mut al.mask);
            }
        }));
        // Forgotten, not dropped: a payload whose drop panics would end the
        // worker, and the workers must outlive the decode loop.
        let filled = filled.map_err(std::mem::forget).is_ok();
        shared
            .mask_busy_nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if done.send((al, filled)).is_err() {
            return;
        }
    }
}

/// What the stats lock guards: the metrics themselves, plus the sum the
/// mean among them is taken from at snapshot time.
#[derive(Debug, Default)]
struct Stats {
    metrics: SchedulerMetrics,
    /// Per-lane TPOT over the lanes that have one (> 1 sampled token).
    tpot_sum: Duration,
    tpot_lanes: u32,
}

/// State shared by the submitter and every worker thread.
#[derive(Debug, Default)]
struct Shared {
    stats: Mutex<Stats>,
    /// Time the mask workers spent filling masks, summed across workers.
    mask_busy_nanos: AtomicU64,
}

impl Shared {
    fn stats(&self) -> MutexGuard<'_, Stats> {
        lock(&self.stats)
    }
}

/// The continuous-batching scheduler: owns the admission workers, the decode
/// loop and the mask workers, started by
/// [`ServingEngine::serve`](crate::ServingEngine::serve).
///
/// Dropping the scheduler (or calling
/// [`shutdown`](ContinuousScheduler::shutdown)) closes the submission queue,
/// lets every in-flight request finish, and joins all worker threads.
#[derive(Debug)]
pub struct ContinuousScheduler {
    submit_tx: Mutex<Option<SyncSender<Submission>>>,
    next_id: AtomicU64,
    shared: Arc<Shared>,
    backend: Arc<dyn ConstrainedBackend>,
    cache_before: CacheStats,
    started_at: Instant,
    /// Every worker thread in pipeline order: the admission workers, the
    /// decode loop, then the mask workers. Shutdown joins them in this
    /// order, each stage exiting once the one before it has.
    threads: Vec<JoinHandle<()>>,
}

impl ContinuousScheduler {
    /// Starts the scheduler's worker threads against `engine`'s backend,
    /// profile, execution mode and jump-forward policy.
    pub(crate) fn start(engine: &ServingEngine, config: SchedulerConfig) -> Self {
        let max_lanes = config.max_lanes.max(1);
        let queue_capacity = config.queue_capacity.max(1);
        let admission_workers = config.admission_workers.max(1);
        let mask_workers = if config.mask_workers == 0 {
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .min(max_lanes)
        } else {
            config.mask_workers
        };

        let backend = Arc::clone(engine.backend());
        let cache_before = backend.cache_stats().unwrap_or_default();
        let shared = Arc::new(Shared {
            stats: Mutex::new(Stats {
                metrics: SchedulerMetrics {
                    mask_workers,
                    ..SchedulerMetrics::default()
                },
                ..Stats::default()
            }),
            mask_busy_nanos: AtomicU64::new(0),
        });
        let pool = Arc::new(MaskPool::default());

        let (submit_tx, submit_rx) = mpsc::sync_channel::<Submission>(queue_capacity);
        // Bounded at `max_lanes`: an admission worker blocks handing a lane
        // over while the batch is full, which in turn fills the submission
        // queue — the backpressure chain.
        let (ready_tx, ready_rx) = mpsc::sync_channel(max_lanes);
        let (bell_tx, bell_rx) = mpsc::channel();
        let (mask_done_tx, mask_done_rx) = mpsc::channel();

        let submit_rx = Arc::new(Mutex::new(submit_rx));
        let mut threads: Vec<JoinHandle<()>> = (0..admission_workers)
            .map(|i| {
                let submissions = Arc::clone(&submit_rx);
                let ready = ready_tx.clone();
                let bell = Bell(bell_tx.clone());
                let backend = Arc::clone(&backend);
                let llm = engine.llm().clone();
                let shared = Arc::clone(&shared);
                spawn(format!("xg-admit-{i}"), move || {
                    admission_worker(&submissions, ready, &bell, &*backend, &llm, &shared);
                })
            })
            .collect();

        let mut decode = DecodeLoop {
            env: Threads {
                ready: ready_rx,
                bell: bell_rx,
                mask_done: mask_done_rx,
                pool: Arc::clone(&pool),
                shared: Arc::clone(&shared),
                forced: ForcedContext {
                    jump_forward: engine.jump_forward_policy(),
                    vocab: Arc::clone(backend.vocabulary()),
                },
            },
            shared: Arc::clone(&shared),
            profile: engine.profile().clone(),
            planner: Planner(engine.mode()),
            max_lanes,
            lanes: Vec::with_capacity(max_lanes),
            handing: Vec::with_capacity(max_lanes),
            bell: true,
        };
        threads.push(spawn("xg-decode".into(), move || decode.run()));

        threads.extend((0..mask_workers).map(|i| {
            let pool = Arc::clone(&pool);
            let done = mask_done_tx.clone();
            let shared = Arc::clone(&shared);
            spawn(format!("xg-mask-{i}"), move || {
                mask_worker(&pool, &done, &shared);
            })
        }));

        ContinuousScheduler {
            submit_tx: Mutex::new(Some(submit_tx)),
            next_id: AtomicU64::new(0),
            shared,
            backend,
            cache_before,
            started_at: Instant::now(),
            threads,
        }
    }

    /// Submits a request, blocking while the submission queue is full.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::ShutDown`] if the scheduler has been shut
    /// down.
    pub fn submit(&self, request: EngineRequest) -> Result<StreamingRequest, SubmitError> {
        self.submit_inner(request, true)
    }

    /// Submits a request without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`SubmitError::Saturated`] (handing the request back) when
    /// the queue is full, or [`SubmitError::ShutDown`] after shutdown.
    pub fn try_submit(&self, request: EngineRequest) -> Result<StreamingRequest, SubmitError> {
        self.submit_inner(request, false)
    }

    fn submit_inner(
        &self,
        request: EngineRequest,
        block: bool,
    ) -> Result<StreamingRequest, SubmitError> {
        let tx = match lock(&self.submit_tx).as_ref() {
            Some(tx) => tx.clone(),
            None => return Err(SubmitError::ShutDown(Box::new(request))),
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (events_tx, events) = mpsc::channel();
        let submission = Submission {
            ticket: Ticket {
                id,
                events: events_tx,
                submitted_at: Instant::now(),
                timing: LaneTiming::default(),
            },
            request,
        };
        let sent = if block {
            tx.send(submission).map_err(|e| e.0)
        } else {
            tx.try_send(submission).map_err(|e| match e {
                TrySendError::Full(s) | TrySendError::Disconnected(s) => s,
            })
        };
        if let Err(submission) = sent {
            self.shared.stats().metrics.rejected += 1;
            let request = Box::new(submission.request);
            return Err(if block {
                SubmitError::ShutDown(request)
            } else {
                SubmitError::Saturated(request)
            });
        }
        self.shared.stats().metrics.submitted += 1;
        Ok(StreamingRequest { id, events })
    }

    /// Snapshot of the scheduler's aggregate metrics.
    pub fn metrics(&self) -> SchedulerMetrics {
        let stats = self.shared.stats();
        let mut metrics = stats.metrics.clone();
        metrics.tpot = stats.tpot_sum / stats.tpot_lanes.max(1);
        drop(stats);
        metrics.mask_busy_time =
            Duration::from_nanos(self.shared.mask_busy_nanos.load(Ordering::Relaxed));
        metrics.wall_time = self.started_at.elapsed();
        let cache = self.backend.cache_stats().unwrap_or_default();
        metrics.cache = cache.delta_since(&self.cache_before);
        metrics
    }

    /// Stops accepting submissions, lets every in-flight request finish, and
    /// joins all worker threads.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        // Closing the submission channel lets the admission workers drain
        // the queue and exit; dropping their ready senders then lets the
        // decode loop finish its live lanes and exit; dropping the loop
        // shuts the mask pool, and the mask workers exit.
        *lock(&self.submit_tx) = None;
        for handle in self.threads.drain(..) {
            let thread = handle.thread().clone();
            // A worker's panic is re-raised here — unless this is the drop
            // of an already unwinding thread, where a second panic would
            // abort the process and eat the first one's message.
            if handle.join().is_err() && !std::thread::panicking() {
                panic!("{} panicked", thread.name().unwrap_or("a worker"));
            }
        }
    }
}

impl Drop for ContinuousScheduler {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// A compile result, sent after its lane: the session (`None` when
/// unconstrained), the compile's wall clock and whether it hit the cache.
type Compiled = Result<CompileOk, BackendError>;
type CompileOk = (Option<Session>, Duration, bool);

/// An admission worker's doorbell to the decode loop, rung after every send
/// to it (a lane, a compile result) and when dropped, however the worker
/// exits: an idle loop waits on the bell, never on one lane's compile.
struct Bell(Sender<()>);

impl Bell {
    fn ring(&self) {
        let _ = self.0.send(());
    }
}

impl Drop for Bell {
    fn drop(&mut self) {
        self.ring();
    }
}

/// Body of one admission worker: receive a submission, hand its lane to the
/// decode loop (blocking while the batch is full), then probe the cache,
/// compile the constraint — a panic becomes the request's error — and send
/// the result after the lane.
fn admission_worker(
    submissions: &Mutex<Receiver<Submission>>,
    ready: SyncSender<ActiveLane>,
    bell: &Bell,
    backend: &dyn ConstrainedBackend,
    llm: &SimulatedLlm,
    shared: &Shared,
) {
    loop {
        // Holding the lock across `recv` is deliberate: it makes the lock
        // double as the "which worker gets the next submission" arbiter, and
        // the senders never take it.
        let Ok(submission) = lock(submissions).recv() else {
            return;
        };
        let Submission {
            mut ticket,
            request,
        } = submission;
        ticket.timing.queue_time = ticket.submitted_at.elapsed();
        let (deliver, compiled) = mpsc::channel();
        let llm_state = llm.start_request(&request.reference, request.seed);
        let lane = ActiveLane {
            ticket,
            lane: Lane::new(None, llm_state, request.max_tokens),
            prompt_tokens: request.prompt_tokens,
            compiled,
            mask: TokenBitmask::new_all_rejected(backend.vocabulary().len()),
            first_emit: None,
            streamed: 0,
        };
        if ready.send(lane).is_err() {
            // Decode loop is gone; nothing more to admit.
            return;
        }
        bell.ring();
        let cache_hit = request.constraint.is_cached(backend);
        let start = Instant::now();
        let compiled =
            panic::catch_unwind(AssertUnwindSafe(|| request.constraint.compile(backend)))
                .unwrap_or_else(|_| Err(scheduler_error("the compile panicked")))
                .map(|c| c.map(|c| c.new_session()));
        let compile_time = start.elapsed();
        shared.stats().metrics.compile_time += compile_time;
        // The decode loop may be gone — fine.
        let _ = deliver.send(compiled.map(|session| (session, compile_time, cache_hit)));
        bell.ring();
    }
}

/// A lane of the decode loop's batch: its id, prefill and state, and the
/// lane itself unless it is at a mask worker.
struct Slot<L> {
    id: u64,
    prefill: Duration,
    state: LaneState,
    lane: Option<L>,
}

/// The decode loop's one spin budget: no wait of [`DecodeLoop::wait`] spins
/// longer, so none needs an OS wake-up to end on time and none burns a core.
const SPIN_BUDGET: Duration = Duration::from_millis(1);

/// What the decode loop runs on. [`Threads`] ships; the `lifecycle` tests run
/// the same loop on scripted lanes and virtual time.
trait Env {
    type Lane;
    fn now(&self) -> Instant;
    /// Waits until `until` or, if it listens to the `bell` (as it must with no
    /// `until`), a ring, which takes every ring queued: parked before `spin`,
    /// spinning in it, parked after it. Returns whether it rang, or `None` at
    /// once if no admission worker is left to ring.
    fn wait(&mut self, spin: Range<Instant>, until: Option<Instant>, bell: bool) -> Option<bool>;
    /// The next lane handed over, its id and prompt tokens first.
    fn arrival(&mut self) -> Result<(u64, usize, Self::Lane), TryRecvError>;
    /// The lane's compile result, if it has come: `Started` (the lane started) or `Failed`.
    fn land(&mut self, lane: &mut Self::Lane) -> Option<Event>;
    fn needs_mask(&self, lane: &Self::Lane) -> bool;
    /// Moves `lanes` to the mask workers, all at once.
    fn hand_off(&mut self, lanes: &mut Vec<Self::Lane>);
    /// Blocks for a lane back from the mask workers: its id, and whether its fill returned.
    fn collect(&mut self) -> Option<(u64, Self::Lane, bool)>;
    /// Samples the lane's next token: `Sampled`, whether the lane finished,
    /// or `Failed` when its session could not decide the token.
    fn sample(&mut self, lane: &mut Self::Lane) -> Event;
    fn stream(&mut self, lane: &mut Self::Lane);
    fn fail(&mut self, lane: &mut Self::Lane, err: BackendError);
    fn finish(&mut self, lane: Self::Lane);
    /// Lane `i` took `event` in state `from`: where the tests check and log.
    fn fed(&mut self, _slots: &[Slot<Self::Lane>], _i: usize, _from: LaneState, _event: &Event) {}
}

/// The decode loop's environment that ships: the admission workers' channels
/// and [`Bell`], the mask pool, the wall clock. Dropping it shuts the pool.
struct Threads {
    ready: Receiver<ActiveLane>,
    /// Every admission worker's [`Bell`].
    bell: Receiver<()>,
    mask_done: Receiver<(ActiveLane, bool)>,
    pool: Arc<MaskPool>,
    shared: Arc<Shared>,
    forced: ForcedContext,
}

impl Drop for Threads {
    fn drop(&mut self) {
        self.pool.shutdown();
    }
}

impl Env for Threads {
    type Lane = ActiveLane;

    fn now(&self) -> Instant {
        Instant::now()
    }

    /// The one function that waits on the bell.
    fn wait(&mut self, spin: Range<Instant>, until: Option<Instant>, bell: bool) -> Option<bool> {
        loop {
            let now = Instant::now();
            match self.bell.try_recv() {
                Ok(()) => break,
                Err(TryRecvError::Disconnected) if bell => return None,
                _ if until.is_some_and(|until| now >= until) => return Some(false),
                _ => {}
            }
            let wake = if now < spin.start {
                Some(spin.start)
            } else {
                until
            };
            // A `recv_timeout` too long for the clock is a `recv`.
            let left = wake.map_or(Duration::MAX, |wake| wake - now);
            if spin.contains(&now) {
                std::hint::spin_loop();
            } else if !bell {
                std::thread::sleep(left);
            } else if self.bell.recv_timeout(left).is_ok() {
                break;
            }
        }
        self.bell.try_iter().for_each(drop);
        Some(true)
    }

    fn arrival(&mut self) -> Result<(u64, usize, ActiveLane), TryRecvError> {
        let al = self.ready.try_recv()?;
        Ok((al.ticket.id, al.prompt_tokens, al))
    }

    /// Counts and announces a landed compile, then starts the lane.
    fn land(&mut self, al: &mut ActiveLane) -> Option<Event> {
        let died = "the admission worker died before the compile finished";
        let timing = &mut al.ticket.timing;
        match al.compiled.try_recv() {
            Err(TryRecvError::Empty) => return None,
            Err(TryRecvError::Disconnected) => return Some(Event::Failed(scheduler_error(died))),
            Ok(Err(err)) => return Some(Event::Failed(err)),
            Ok(Ok(compiled)) => (al.lane.session, timing.compile_time, timing.cache_hit) = compiled,
        }
        let mut stats = self.shared.stats();
        stats.metrics.admitted += 1;
        stats.metrics.cache_hit_admissions += u64::from(timing.cache_hit);
        drop(stats);
        let _ = al.ticket.events.send(StreamEvent::Admitted {
            queue_time: timing.queue_time,
            compile_time: timing.compile_time,
            cache_hit: timing.cache_hit,
        });
        al.lane.start(&self.forced);
        let (now, finished) = (Instant::now(), al.lane.finished);
        Some(Event::Started { now, finished })
    }

    fn needs_mask(&self, al: &ActiveLane) -> bool {
        al.lane.is_constrained() && !al.lane.finished
    }

    /// One lock and one wake, not a channel send per lane: sending each lane
    /// on its own took `schema_warm`'s `engine.step_overhead_us` from 36 to
    /// 85 µs and `cfg_heavy`'s from 23 to 38 (`perf --seed 11`, 2 cores).
    fn hand_off(&mut self, lanes: &mut Vec<ActiveLane>) {
        let sent = lanes.len();
        lock(&self.pool.state).lanes.extend(lanes.drain(..));
        match sent {
            0 => {}
            1 => self.pool.available.notify_one(),
            _ => self.pool.available.notify_all(),
        }
    }

    fn collect(&mut self) -> Option<(u64, ActiveLane, bool)> {
        // The workers outlive the loop: they never unwind, and the pool
        // shuts only when the loop is dropped.
        let (al, filled) = self.mask_done.recv().ok()?;
        Some((al.ticket.id, al, filled))
    }

    fn sample(&mut self, al: &mut ActiveLane) -> Event {
        let mask = al.lane.is_constrained().then_some(&al.mask);
        al.lane.step(mask, &self.forced);
        match al.lane.failure() {
            Some(err) => Event::Failed(err),
            None => Event::Sampled {
                finished: al.lane.finished,
            },
        }
    }

    /// Streams the bytes not streamed yet, stamping the first emission.
    fn stream(&mut self, al: &mut ActiveLane) {
        let output = &al.lane.output;
        if output.len() > al.streamed {
            let bytes = output[al.streamed..].to_vec();
            al.streamed = output.len();
            (al.first_emit)
                .get_or_insert_with(|| (al.ticket.submitted_at.elapsed(), al.lane.forced_time));
            let _ = al.ticket.events.send(StreamEvent::Bytes(bytes));
        }
    }

    fn fail(&mut self, al: &mut ActiveLane, err: BackendError) {
        // The receiver may be gone (the caller dropped the handle).
        let _ = al.ticket.events.send(StreamEvent::Failed(err));
    }

    /// Completes the lane's timing, folds it and the lane's counters into
    /// the aggregate, and sends the terminal event.
    fn finish(&mut self, al: ActiveLane) {
        let (ticket, lane) = (al.ticket, al.lane);
        let mut timing = ticket.timing;
        timing.total_time = ticket.submitted_at.elapsed();
        let (ttft, forced_by_then) = al
            .first_emit
            .unwrap_or((timing.total_time, lane.forced_time));
        let forced_after = lane.forced_time - forced_by_then;
        timing.ttft = ttft;
        timing.tpot = tpot(timing.total_time, ttft, forced_after, lane.sampled_tokens);
        {
            let mut stats = self.shared.stats();
            if lane.sampled_tokens > 1 {
                stats.tpot_sum += timing.tpot;
                stats.tpot_lanes += 1;
            }
            let metrics = &mut stats.metrics;
            metrics.ttft = match metrics.completed {
                0 => ttft,
                _ => metrics.ttft.min(ttft),
            };
            metrics.completed += 1;
            metrics.sampled_tokens += lane.sampled_tokens as u64;
            metrics.forced_tokens += lane.forced_tokens as u64;
            metrics.forced_chars += lane.forced_chars as u64;
            metrics.forced_time += lane.forced_time;
        }
        let result = lane.into_result();
        let _ = ticket.events.send(StreamEvent::Finished { result, timing });
    }
}

/// The persistent decode loop: joins lanes, carries out the planner's rounds
/// and the effects of each transition, feeds events back to [`advance`], and
/// waits, all on its [`Env`].
struct DecodeLoop<E: Env> {
    env: E,
    shared: Arc<Shared>,
    profile: ModelProfile,
    planner: Planner,
    max_lanes: usize,
    lanes: Vec<Slot<E::Lane>>,
    /// The lanes one hand-off moves to the mask workers.
    handing: Vec<E::Lane>,
    /// Whether an admission worker is left to ring the bell.
    bell: bool,
}

impl<E: Env> DecodeLoop<E> {
    fn run(&mut self) {
        while self.take_arrivals() {
            // A joiner round if the planner has one, then the step round:
            // lanes join only between step rounds.
            while let Some(round) = self.planner.round(self.states(), true) {
                if self.round(&round) {
                    break;
                }
            }
        }
    }

    /// Joins handed-over lanes while the batch has room, waiting out a
    /// joiner's prefill if it starts at once and then running the joiner
    /// round, and lands the compile results that have arrived, waiting while
    /// every lane is compiling. `false` once admission has closed and the
    /// batch is empty.
    fn take_arrivals(&mut self) -> bool {
        let mut idle_since = None;
        loop {
            let mut worked = false;
            while self.lanes.len() < self.max_lanes {
                let (id, prompt_tokens, al) = match self.env.arrival() {
                    Ok(arrival) => arrival,
                    Err(TryRecvError::Disconnected) if self.lanes.is_empty() => return false,
                    Err(_) => break,
                };
                let prefill = self.profile.prefill_time(prompt_tokens);
                let state = self.planner.join(self.env.now() + prefill);
                self.lanes.push(Slot {
                    id,
                    prefill,
                    state,
                    lane: Some(al),
                });
                if let LaneState::Compiling(Some(end)) = state {
                    self.prefill(end, prefill);
                    // The lanes holding logits sample now, not after every
                    // later arrival's prefill as well.
                    if let Some(round) = self.planner.round(self.states(), false) {
                        self.round(&round);
                    }
                }
                worked = true;
            }
            worked |= self.land_compiled();
            if self
                .lanes
                .iter()
                .any(|s| !matches!(s.state, LaneState::Compiling(_)))
            {
                return true;
            }
            // A parked loop starts a lone request's prefill only once the OS
            // wakes it, on two cores often only after the admission worker's
            // compile. The spin counts from the end of the last join or
            // landing (and its prefill); a spurious ring does not restart it.
            if worked {
                idle_since = None;
            }
            let idle = *idle_since.get_or_insert_with(|| self.env.now());
            self.wait(idle, None);
        }
    }

    fn states(&self) -> impl Iterator<Item = LaneState> + Clone + '_ {
        self.lanes.iter().map(|s| s.state)
    }

    /// Waits out a joiner's prefill, landing compile results (its own too)
    /// as their rings wake it.
    fn prefill(&mut self, end: Instant, prefill: Duration) {
        loop {
            self.land_compiled();
            if self.env.now() >= end {
                break;
            }
            self.wait(end - prefill, Some(end));
        }
        let now = self.env.now();
        self.shared.stats().metrics.prefill_time += prefill + (now - end);
        for i in 0..self.lanes.len() {
            if matches!(self.lanes[i].state, LaneState::Prefilling(_)) {
                self.feed(i, Event::PrefillEnded(now));
            }
        }
    }

    /// The one wait, begun at `from`, until `until` (`None`: idle) or a ring.
    /// A timed wait spins its last [`SPIN_BUDGET`], or all of it if it lasts
    /// at most twice that, and an idle one its first (one decode step, if
    /// shorter); each parks otherwise. Returns whether a ring ended it. Once
    /// no admission worker is left to ring, it sleeps `until` out, or returns.
    fn wait(&mut self, from: Instant, until: Option<Instant>) -> bool {
        let spin = match until {
            Some(end) if end - from > 2 * SPIN_BUDGET => end - SPIN_BUDGET..end,
            Some(end) => from..end,
            None => from..from + SPIN_BUDGET.min(self.profile.decode_step_time(1)),
        };
        while self.bell || until.is_some() {
            match self.env.wait(spin.clone(), until, self.bell) {
                Some(rang) => return rang,
                None => self.bell = false,
            }
        }
        false
    }

    /// Lands every compile result that has arrived, hands off the first
    /// fills the planner wants under the prefill, and retires what ended.
    /// Returns whether a result landed.
    fn land_compiled(&mut self) -> bool {
        let mut landed = false;
        for i in 0..self.lanes.len() {
            let slot = &mut self.lanes[i];
            let (LaneState::Compiling(_), Some(al)) = (slot.state, &mut slot.lane) else {
                continue;
            };
            let Some(event) = self.env.land(al) else {
                continue;
            };
            self.feed(i, event);
            if self.planner.fills_on_landing() {
                self.dispatch(&[i]);
            }
            landed = true;
        }
        self.retire();
        landed
    }

    /// Feeds lane `i` an event and carries out the transition's effect.
    fn feed(&mut self, i: usize, event: Event) {
        let from = self.lanes[i].state;
        let effect;
        (self.lanes[i].state, effect) = advance(from, &event);
        self.env.fed(&self.lanes, i, from, &event);
        if let Effect::PrefillThenStream = effect {
            // Like a GPU step, the prefill does not end on a ring.
            let (start, prefill) = (self.env.now(), self.lanes[i].prefill);
            while self.wait(start, Some(start + prefill)) {}
            self.shared.stats().metrics.prefill_time += self.env.now() - start;
        }
        // Only a lane just handed off is away, and it takes no effect.
        let Some(al) = self.lanes[i].lane.as_mut() else {
            return;
        };
        match effect {
            Effect::None => {}
            Effect::Stream | Effect::PrefillThenStream => self.env.stream(al),
            Effect::Fail(err) => {
                self.shared.stats().metrics.failed += 1;
                self.env.fail(al, err);
            }
        }
    }

    /// Runs one round phase by phase, accounts for it and retires the lanes
    /// that ended. Returns whether it stepped.
    fn round(&mut self, round: &Round) -> bool {
        let (start, steps) = (self.env.now(), round.phases.contains(&Phase::Step));
        let [mut gpu_step, mut handoff, mut mask_wait, mut sample] = [Duration::ZERO; 4];
        for phase in round.phases {
            match phase {
                Phase::Step => {
                    // Serial, a lane whose fill just panicked leaves the batch.
                    let live = |i: &&usize| self.lanes[**i].state != LaneState::Failed;
                    let batch = round.lanes.iter().filter(live).count();
                    gpu_step = self.profile.decode_step_time(batch);
                    let from = self.env.now();
                    while self.wait(from, Some(from + gpu_step)) {}
                    self.shared.stats().metrics.decode_steps += 1;
                }
                Phase::HandOff => handoff += self.dispatch(&round.lanes),
                Phase::Collect => {
                    let wait = self.env.now();
                    self.collect();
                    mask_wait += self.env.now() - wait;
                }
                Phase::Sample => sample += self.sample(&round.lanes),
            }
        }
        {
            let mut stats = self.shared.stats();
            let metrics = &mut stats.metrics;
            metrics.max_concurrent_lanes = metrics.max_concurrent_lanes.max(self.lanes.len());
            metrics.gpu_time += gpu_step;
            metrics.mask_wait_time += mask_wait;
            metrics.sample_time += sample;
            metrics.handoff_time += handoff;
            metrics.decode_time += self.env.now() - start;
        }
        self.retire();
        steps
    }

    /// Each of `lanes` samples under its mask and streams what it emitted;
    /// returns the time sampling took.
    fn sample(&mut self, lanes: &[usize]) -> Duration {
        let mut took = Duration::ZERO;
        for &i in lanes {
            let slot = &mut self.lanes[i];
            // The lane's fill panicked at this round's collect.
            if slot.state == LaneState::Failed {
                continue;
            }
            let Some(al) = slot.lane.as_mut() else {
                unreachable!("lane {} samples at a mask worker", slot.id);
            };
            let start = self.env.now();
            let event = self.env.sample(al);
            took += self.env.now() - start;
            self.feed(i, event);
        }
        took
    }

    /// Moves each of `lanes` that needs a mask to the mask workers, all at
    /// once, and returns the time it took.
    fn dispatch(&mut self, lanes: &[usize]) -> Duration {
        let start = self.env.now();
        for &i in lanes {
            let slot = &mut self.lanes[i];
            let needs_mask = slot.lane.as_ref().is_some_and(|al| self.env.needs_mask(al));
            if slot.state != LaneState::Failed && needs_mask {
                self.handing.extend(slot.lane.take());
                self.feed(i, Event::HandedOff);
            }
        }
        self.env.hand_off(&mut self.handing);
        self.env.now() - start
    }

    /// The collect barrier: takes back every lane at a mask worker, its mask
    /// filled or its fill failed.
    fn collect(&mut self) {
        for _ in 0..self.lanes.iter().filter(|s| s.lane.is_none()).count() {
            let Some((id, al, filled)) = self.env.collect() else {
                return;
            };
            let i = self.lanes.iter().position(|s| s.id == id);
            let i = i.expect("a lane keeps its slot while at a mask worker");
            self.lanes[i].lane = Some(al);
            let panicked = || Event::Failed(scheduler_error("the mask fill panicked"));
            self.feed(i, if filled { Event::Filled } else { panicked() });
        }
    }

    /// Retires the lanes that finished, and frees the slots of those that
    /// failed.
    fn retire(&mut self) {
        let ended = |s: &mut Slot<_>| matches!(s.state, LaneState::Finished | LaneState::Failed);
        for slot in self.lanes.extract_if(.., ended) {
            if let (LaneState::Finished, Some(al)) = (slot.state, slot.lane) {
                self.env.finish(al);
            }
        }
    }
}

/// A lane's mean decode gap: what is left of `total` after the time to first
/// emission and the forced-injection time spent *after* it (what came before
/// is already inside `ttft`), over the sampled tokens that followed the
/// first. Zero when the lane sampled at most one token.
fn tpot(
    total: Duration,
    ttft: Duration,
    forced_after_first_emit: Duration,
    sampled: usize,
) -> Duration {
    if sampled <= 1 {
        return Duration::ZERO;
    }
    total
        .saturating_sub(ttft)
        .saturating_sub(forced_after_first_emit)
        .div_f64((sampled - 1) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{JumpForwardPolicy, LaneConstraint, ServingEngine};
    use crate::profiles::ModelProfile;
    use std::sync::Arc;
    use xg_baselines::{Session, XGrammarBackend};
    use xg_core::{AcceptError, CompiledConstraint, ConstraintMatcher};
    use xg_grammar::{parse_ebnf, Grammar};
    use xg_tokenizer::{test_vocabulary, TokenId, Vocabulary};

    fn engine(mode: ExecutionMode) -> ServingEngine {
        let vocab = Arc::new(test_vocabulary(600));
        let backend = Arc::new(XGrammarBackend::new(vocab));
        ServingEngine::new(backend, ModelProfile::llama31_8b_h100().scaled(0.01), mode)
    }

    fn request(seed: u64) -> EngineRequest {
        EngineRequest {
            constraint: LaneConstraint::Grammar(
                parse_ebnf(r#"root ::= "{\"ok\": " ("true" | "false") "}""#, "root").unwrap(),
            ),
            prompt_tokens: 4,
            reference: br#"{"ok": true}"#.to_vec(),
            max_tokens: 32,
            seed,
        }
    }

    #[test]
    fn streams_admission_bytes_and_finish_in_order() {
        let engine = engine(ExecutionMode::Overlapped);
        let scheduler = engine.serve(SchedulerConfig::default());
        let handle = scheduler.submit(request(0)).unwrap();

        let mut saw_admitted = false;
        let mut streamed = Vec::new();
        let finished = loop {
            match handle.next_event().expect("stream ended early") {
                StreamEvent::Admitted { cache_hit, .. } => {
                    assert!(!saw_admitted, "exactly one Admitted event");
                    assert!(!cache_hit, "first compile of this grammar");
                    saw_admitted = true;
                }
                StreamEvent::Bytes(bytes) => {
                    assert!(saw_admitted, "Bytes only after Admitted");
                    streamed.extend_from_slice(&bytes);
                }
                StreamEvent::Finished { result, timing } => {
                    assert!(saw_admitted);
                    break (result, timing);
                }
                StreamEvent::Failed(err) => panic!("unexpected failure: {err}"),
            }
        };
        let (result, timing) = finished;
        assert_eq!(streamed, result.output, "streamed bytes equal the result");
        assert_eq!(result.output, br#"{"ok": true}"#.to_vec());
        assert!(result.completed);
        assert!(timing.ttft <= timing.total_time);

        let metrics = scheduler.metrics();
        assert_eq!(metrics.submitted, 1);
        assert_eq!(metrics.admitted, 1);
        assert_eq!(metrics.completed, 1);
        scheduler.shutdown();
    }

    #[test]
    fn try_submit_saturates_under_backpressure() {
        let engine = engine(ExecutionMode::Serial);
        // One lane, one queue slot: the pipeline holds at most one lane in
        // the batch (compiling or decoding), one in the ready channel, one
        // in an admission worker's hand and one queued submission — a rapid
        // burst beyond that must bounce.
        let scheduler = engine.serve(SchedulerConfig {
            max_lanes: 1,
            queue_capacity: 1,
            admission_workers: 1,
            mask_workers: 1,
        });
        let mut handles = Vec::new();
        let mut saturated = 0;
        for seed in 0..12 {
            match scheduler.try_submit(request(seed)) {
                Ok(handle) => handles.push(handle),
                Err(SubmitError::Saturated(req)) => {
                    assert_eq!(req.seed, seed, "the request is handed back");
                    saturated += 1;
                }
                Err(SubmitError::ShutDown(_)) => panic!("scheduler is live"),
            }
        }
        assert!(saturated > 0, "a rapid burst must hit backpressure");
        for handle in handles {
            let done = handle.wait().expect("accepted requests finish");
            assert_eq!(done.result.output, br#"{"ok": true}"#.to_vec());
        }
        let metrics = scheduler.metrics();
        assert_eq!(metrics.rejected, saturated);
        assert_eq!(metrics.completed + metrics.failed, metrics.admitted);
        scheduler.shutdown();
    }

    #[test]
    fn serial_mode_serves_lockstep_lanes_byte_identically() {
        // Many concurrent requests of one grammar: lanes joining in the same
        // round march in lockstep (the simulated LLM follows the reference),
        // each through its own mask job. The outputs must stay byte-identical
        // to solo decoding.
        let engine = engine(ExecutionMode::Serial);
        let scheduler = engine.serve(SchedulerConfig {
            admission_workers: 1,
            ..SchedulerConfig::default()
        });
        let handles: Vec<_> = (0..8)
            .map(|seed| scheduler.submit(request(seed)).unwrap())
            .collect();
        for handle in handles {
            let done = handle.wait().expect("requests finish");
            assert_eq!(done.result.output, br#"{"ok": true}"#.to_vec());
            assert!(done.result.completed);
        }
        let metrics = scheduler.metrics();
        assert_eq!(metrics.completed, 8);
        scheduler.shutdown();
    }

    #[test]
    fn mask_workers_zero_means_available_parallelism_capped_at_max_lanes() {
        let engine = engine(ExecutionMode::Overlapped);
        let workers = |max_lanes: usize, mask_workers: usize| {
            let scheduler = engine.serve(SchedulerConfig {
                max_lanes,
                mask_workers,
                ..SchedulerConfig::default()
            });
            let resolved = scheduler.metrics().mask_workers;
            scheduler.shutdown();
            resolved
        };
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(workers(64, 0), cores.min(64));
        assert_eq!(workers(1, 0), 1);
        // An explicit count is taken as is, even above `max_lanes`.
        assert_eq!(workers(1, 3), 3);
    }

    #[test]
    fn idle_scheduler_shuts_down_cleanly() {
        // An idle loop spins for 1 ms, however long its 60 s decode step, and
        // then parks: shut down at once, while it may still spin, and 50 ms
        // later, once it has parked.
        let (step, limit) = (Duration::from_secs(60), Duration::from_secs(5));
        for mode in MODES {
            for idle in [Duration::ZERO, Duration::from_millis(50)] {
                let scheduler = sleeping_engine(step, mode).serve(SchedulerConfig::default());
                std::thread::sleep(idle);
                assert_eq!(scheduler.metrics().submitted, 0);
                shut_down_within(scheduler, limit, &format!("{mode:?}, idle {idle:?}"));
            }
        }
    }

    /// Shuts `scheduler` down on a thread of its own and fails if that
    /// takes longer than `limit`, so a wedged decode loop fails the test
    /// instead of hanging the suite.
    fn shut_down_within(scheduler: ContinuousScheduler, limit: Duration, what: &str) {
        let (done, shut) = mpsc::channel();
        let shutting = std::thread::spawn(move || {
            scheduler.shutdown();
            let _ = done.send(());
        });
        // A shutdown that hangs is left detached: joining it would hang too.
        if let Err(mpsc::RecvTimeoutError::Timeout) = shut.recv_timeout(limit) {
            panic!("{what}: the scheduler did not shut down within {limit:?}");
        }
        shutting.join().expect("the shutdown panicked");
    }

    #[test]
    fn cache_hit_admission_is_reported() {
        let engine = engine(ExecutionMode::Overlapped);
        let scheduler = engine.serve(SchedulerConfig::default());
        scheduler.submit(request(0)).unwrap().wait().unwrap();
        let done = scheduler.submit(request(1)).unwrap().wait().unwrap();
        assert!(
            done.timing.cache_hit,
            "second compile of the same grammar hits the cache"
        );
        let metrics = scheduler.metrics();
        assert_eq!(metrics.cache_hit_admissions, 1);
        assert_eq!(metrics.cache.hits, 1);
        assert_eq!(metrics.cache.misses, 1);
        scheduler.shutdown();
    }

    #[test]
    fn step_accounting_adds_up_to_the_decode_time() {
        for mode in [ExecutionMode::Serial, ExecutionMode::Overlapped] {
            let engine = engine(mode).with_jump_forward(JumpForwardPolicy::Off);
            let scheduler = engine.serve(SchedulerConfig::default());
            let handles: Vec<_> = (0..4)
                .map(|seed| scheduler.submit(request(seed)).unwrap())
                .collect();
            for handle in handles {
                handle.wait().expect("requests finish");
            }
            let m = scheduler.metrics();
            scheduler.shutdown();
            assert!(m.sample_time > Duration::ZERO, "{mode:?}");
            assert!(m.handoff_time > Duration::ZERO, "{mode:?}");
            assert!(
                m.gpu_time + m.mask_wait_time + m.sample_time + m.handoff_time <= m.decode_time,
                "{mode:?}: {m:?}"
            );
        }
    }

    #[test]
    fn an_unspellable_reference_ends_the_lane_not_the_scheduler() {
        // A vocabulary without byte fallback cannot spell `x`: the simulated
        // model proposes EOS there instead of panicking the decode thread.
        let vocab = Arc::new(Vocabulary::from_tokens(
            vec![b"a".to_vec(), b"b".to_vec(), b"</s>".to_vec()],
            Some(2),
        ));
        let backend = Arc::new(XGrammarBackend::new(vocab));
        let profile = ModelProfile::llama31_8b_h100().scaled(0.01);
        let engine = ServingEngine::new(backend, profile, ExecutionMode::Overlapped);
        let lane = |constraint: LaneConstraint| EngineRequest {
            constraint,
            prompt_tokens: 1,
            reference: b"axb".to_vec(),
            max_tokens: 8,
            seed: 0,
        };
        let grammar = |source: &str| LaneConstraint::Grammar(parse_ebnf(source, "root").unwrap());
        let scheduler = engine.serve(SchedulerConfig::default());
        // Unconstrained, a grammar that admits EOS after `a`, and one that
        // does not (the lane resynchronises on `b`); served one after the
        // other, so each later request finds the decode thread alive.
        for (constraint, expected) in [
            (LaneConstraint::Unconstrained, &b"a"[..]),
            (grammar(r#"root ::= ("a" | "b")+"#), b"a"),
            (grammar(r#"root ::= "a" ("a" | "b")"#), b"ab"),
        ] {
            let request = lane(constraint);
            let reference = engine.decode_reference(&request).unwrap();
            assert!(reference.completed);
            assert_eq!(reference.output, expected);
            let served = scheduler.submit(request).unwrap().wait().unwrap().result;
            assert!(served.completed);
            assert_eq!(served.output, expected);
        }
        scheduler.shutdown();
    }

    #[test]
    fn tpot_carves_out_only_the_forced_time_after_the_first_emission() {
        let ms = Duration::from_millis;
        // 100 ms in all, first bytes at 40 ms, 4 sampled tokens: 3 gaps of
        // 20 ms. Forced time from before the first emission is inside `ttft`
        // already, so a lane that forced nothing after it loses nothing.
        assert_eq!(tpot(ms(100), ms(40), Duration::ZERO, 4), ms(20));
        assert_eq!(tpot(ms(100), ms(40), ms(30), 4), ms(10));
        assert_eq!(tpot(ms(100), ms(40), ms(90), 4), Duration::ZERO);
        for sampled in [0, 1] {
            assert_eq!(tpot(ms(100), ms(40), ms(30), sampled), Duration::ZERO);
        }
    }

    #[test]
    fn the_aggregate_conserves_what_the_requests_report() {
        let backend = XGrammarBackend::new(Arc::new(test_vocabulary(600)));
        let profile = ModelProfile::llama31_8b_h100().scaled(0.01);
        let engine = ServingEngine::new(Arc::new(backend), profile, ExecutionMode::Overlapped);
        let scheduler = engine.serve(SchedulerConfig::default());
        let unconstrained = EngineRequest {
            constraint: LaneConstraint::Unconstrained,
            ..request(2)
        };
        // Its forced prefix alone reaches the cap: the lane finishes in `join`.
        let all_forced = EngineRequest {
            max_tokens: 1,
            ..request(3)
        };
        let rejected = EngineRequest {
            constraint: parse_ebnf(r#"root ::= "x" root"#, "root").unwrap().into(),
            ..request(4)
        };
        let handles = [request(0), request(1), unconstrained, all_forced, rejected]
            .map(|request| scheduler.submit(request).unwrap());
        let mut finished = Vec::new();
        for handle in &handles {
            let mut admitted = None;
            while let Some(event) = handle.next_event() {
                match event {
                    StreamEvent::Admitted {
                        queue_time,
                        compile_time,
                        cache_hit,
                    } => admitted = Some((queue_time, compile_time, cache_hit)),
                    StreamEvent::Finished { result, timing } => {
                        let reported = (timing.queue_time, timing.compile_time, timing.cache_hit);
                        assert_eq!(admitted, Some(reported));
                        finished.push((result, timing));
                    }
                    StreamEvent::Bytes(_) | StreamEvent::Failed(_) => {}
                }
            }
        }
        let m = scheduler.metrics();
        scheduler.shutdown();
        assert_eq!((m.submitted, m.admitted, m.failed), (5, 4, 1));
        assert_eq!(m.completed, finished.len() as u64);
        assert_eq!((finished[3].0.tokens, finished[3].0.completed), (0, false));
        let sum = |f: fn(&RequestResult) -> usize| finished.iter().map(|(r, _)| f(r) as u64).sum();
        assert_eq!(m.sampled_tokens, sum(|r| r.tokens));
        assert_eq!(m.forced_tokens, sum(|r| r.jump_forward_tokens));
        assert_eq!(m.forced_chars, sum(|r| r.jump_forward_chars));
        assert_eq!(Some(m.ttft), finished.iter().map(|(_, t)| t.ttft).min());
        let gaps: Vec<Duration> = finished
            .iter()
            .filter(|(r, _)| r.tokens > 1)
            .map(|(_, t)| t.tpot)
            .collect();
        assert!(!gaps.is_empty());
        assert_eq!(m.tpot, gaps.iter().sum::<Duration>() / gaps.len() as u32);
    }

    /// Sessions opened, and sessions filled at least once and not yet
    /// dropped (with the peak of that count): a lane counts from its first
    /// mask to its retirement, wherever it is meanwhile. Also the masks
    /// filled, over all sessions.
    #[derive(Debug, Default)]
    struct FilledSessions {
        opened: AtomicU64,
        live: AtomicU64,
        peak: AtomicU64,
        fills: AtomicU64,
    }

    /// `XGrammarBackend` behind sessions that count themselves in
    /// [`FilledSessions`] and sleep in every fill for `delay(opened, first)`:
    /// by the order the session was opened in (from 0), and whether this is
    /// its first fill.
    #[derive(Debug)]
    struct CountingBackend {
        inner: Arc<XGrammarBackend>,
        sessions: Arc<FilledSessions>,
        delay: fn(u64, bool) -> Duration,
    }

    #[derive(Debug)]
    struct CountingConstraint {
        inner: Arc<dyn CompiledConstraint>,
        sessions: Arc<FilledSessions>,
        delay: fn(u64, bool) -> Duration,
    }

    #[derive(Debug)]
    struct CountingSession {
        inner: Session,
        sessions: Arc<FilledSessions>,
        delay: fn(u64, bool) -> Duration,
        opened: u64,
        filled: bool,
    }

    impl ConstrainedBackend for CountingBackend {
        fn name(&self) -> &'static str {
            "counting"
        }
        fn vocabulary(&self) -> &Arc<Vocabulary> {
            self.inner.vocabulary()
        }
        fn compile(&self, grammar: &Grammar) -> Result<Arc<dyn CompiledConstraint>, BackendError> {
            Ok(Arc::new(CountingConstraint {
                inner: self.inner.compile(grammar)?,
                sessions: Arc::clone(&self.sessions),
                delay: self.delay,
            }))
        }
    }

    impl CompiledConstraint for CountingConstraint {
        fn new_session(self: Arc<Self>) -> Session {
            Box::new(CountingSession {
                inner: Arc::clone(&self.inner).new_session(),
                sessions: Arc::clone(&self.sessions),
                delay: self.delay,
                opened: self.sessions.opened.fetch_add(1, Ordering::SeqCst),
                filled: false,
            })
        }
        fn memory_bytes(&self) -> usize {
            self.inner.memory_bytes()
        }
    }

    impl ConstraintMatcher for CountingSession {
        fn vocabulary(&self) -> &Arc<Vocabulary> {
            self.inner.vocabulary()
        }
        fn fill_next_token_bitmask(&mut self, mask: &mut TokenBitmask) {
            let first = !self.filled;
            if first {
                self.filled = true;
                let live = self.sessions.live.fetch_add(1, Ordering::SeqCst) + 1;
                self.sessions.peak.fetch_max(live, Ordering::SeqCst);
            }
            self.sessions.fills.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep((self.delay)(self.opened, first));
            self.inner.fill_next_token_bitmask(mask);
        }
        fn accept_token(&mut self, token: TokenId) -> Result<(), AcceptError> {
            self.inner.accept_token(token)
        }
        fn find_jump_forward_string(&mut self) -> Vec<u8> {
            self.inner.find_jump_forward_string()
        }
        fn can_terminate(&mut self) -> bool {
            self.inner.can_terminate()
        }
        fn is_terminated(&self) -> bool {
            self.inner.is_terminated()
        }
        fn reset(&mut self) {
            self.inner.reset();
        }
    }

    impl Drop for CountingSession {
        fn drop(&mut self) {
            if self.filled {
                self.sessions.live.fetch_sub(1, Ordering::SeqCst);
            }
        }
    }

    /// Six JSON-schema requests, each its own grammar.
    fn schema_requests() -> Vec<EngineRequest> {
        xg_datasets::json_mode_eval_like(6, 0x1A4E)
            .into_iter()
            .zip(0..)
            .map(|(task, seed)| EngineRequest {
                constraint: xg_grammar::json_schema_to_grammar(&task.schema)
                    .unwrap()
                    .into(),
                prompt_tokens: 8,
                reference: task.reference,
                max_tokens: 300,
                seed,
            })
            .collect()
    }

    #[test]
    fn the_lane_cap_bounds_the_lanes_holding_a_mask_seen_from_the_sessions() {
        // Counted by the sessions, not by the scheduler: a lane with a mask
        // worker is still part of the batch the cap bounds.
        let inner = Arc::new(XGrammarBackend::new(Arc::new(test_vocabulary(600))));
        let profile = ModelProfile::llama31_8b_h100().scaled(0.01);
        let requests = schema_requests();
        let reference = ServingEngine::new(inner.clone(), profile.clone(), ExecutionMode::Serial);
        let expected: Vec<RequestResult> = requests
            .iter()
            .map(|request| reference.decode_reference(request).unwrap())
            .collect();
        for mode in [ExecutionMode::Serial, ExecutionMode::Overlapped] {
            for mask_workers in [1, 2] {
                let sessions = Arc::new(FilledSessions::default());
                // 0.4, 0.2 or 0 ms a fill, so that two mask workers hand
                // lanes back out of the order they were sent.
                let backend = CountingBackend {
                    inner: Arc::clone(&inner),
                    sessions: Arc::clone(&sessions),
                    delay: |opened, _| Duration::from_micros(200 * (2 - opened % 3)),
                };
                let engine = ServingEngine::new(Arc::new(backend), profile.clone(), mode);
                let scheduler = engine.serve(SchedulerConfig {
                    max_lanes: 2,
                    mask_workers,
                    ..SchedulerConfig::default()
                });
                let handles: Vec<_> = requests
                    .iter()
                    .map(|request| scheduler.submit(request.clone()).unwrap())
                    .collect();
                let what = format!("{mode:?}, {mask_workers} mask workers");
                for (handle, expected) in handles.into_iter().zip(&expected) {
                    let served = handle.wait().unwrap().result;
                    assert_eq!(served.output, expected.output, "{what}");
                }
                let reported = scheduler.metrics().max_concurrent_lanes as u64;
                scheduler.shutdown();
                let peak = sessions.peak.load(Ordering::SeqCst);
                assert!((1..=2).contains(&peak), "{what}: {peak} lanes held a mask");
                assert!(
                    (peak..=2).contains(&reported),
                    "{what}: max_concurrent_lanes {reported}, observed {peak}"
                );
            }
        }
    }

    /// A backend whose sessions panic when asked for a mask.
    #[derive(Debug, Clone)]
    struct PanickingMasks(Arc<Vocabulary>);

    impl ConstrainedBackend for PanickingMasks {
        fn name(&self) -> &'static str {
            "panicking-masks"
        }
        fn vocabulary(&self) -> &Arc<Vocabulary> {
            &self.0
        }
        fn compile(&self, _: &Grammar) -> Result<Arc<dyn CompiledConstraint>, BackendError> {
            Ok(Arc::new(self.clone()))
        }
    }

    impl CompiledConstraint for PanickingMasks {
        fn new_session(self: Arc<Self>) -> Session {
            Box::new((*self).clone())
        }
        fn memory_bytes(&self) -> usize {
            0 // the vocabulary is shared, not held
        }
    }

    impl ConstraintMatcher for PanickingMasks {
        fn vocabulary(&self) -> &Arc<Vocabulary> {
            &self.0
        }
        fn fill_next_token_bitmask(&mut self, _: &mut TokenBitmask) {
            panic!("the mask worker dies");
        }
        fn accept_token(&mut self, _: TokenId) -> Result<(), AcceptError> {
            Ok(())
        }
        fn can_terminate(&mut self) -> bool {
            true
        }
        fn is_terminated(&self) -> bool {
            false
        }
        fn reset(&mut self) {}
    }

    #[test]
    fn dropping_the_scheduler_while_unwinding_does_not_abort() {
        let unwound = std::panic::catch_unwind(|| {
            let backend = Arc::new(PanickingMasks(Arc::new(test_vocabulary(600))));
            let profile = ModelProfile::llama31_8b_h100().scaled(0.01);
            let engine = ServingEngine::new(backend, profile, ExecutionMode::Overlapped);
            // One mask worker: its death closes the results channel, so the
            // decode loop's collect barrier panics too instead of waiting.
            let scheduler = engine.serve(SchedulerConfig {
                mask_workers: 1,
                ..SchedulerConfig::default()
            });
            let stream = scheduler.submit(request(0)).unwrap();
            assert!(stream.wait().is_err(), "the stream ends with no result");
            // Unwinds through the scheduler's drop, which finds two panicked
            // workers: re-raising either would abort the process.
            panic!("the body's own failure");
        });
        assert!(unwound.is_err());
    }

    /// `XGrammarBackend` behind a compile that first calls `before` with the
    /// grammar and the call's index (from 0), which may sleep or panic.
    #[derive(Debug)]
    struct HookedCompile {
        inner: XGrammarBackend,
        calls: std::sync::atomic::AtomicUsize,
        before: fn(&Grammar, usize),
    }

    impl HookedCompile {
        fn engine(before: fn(&Grammar, usize), mode: ExecutionMode) -> ServingEngine {
            let backend = HookedCompile {
                inner: XGrammarBackend::new(Arc::new(test_vocabulary(600))),
                calls: Default::default(),
                before,
            };
            let profile = ModelProfile::llama31_8b_h100().scaled(0.01);
            ServingEngine::new(Arc::new(backend), profile, mode)
        }
    }

    impl ConstrainedBackend for HookedCompile {
        fn name(&self) -> &'static str {
            "hooked-compile"
        }
        fn vocabulary(&self) -> &Arc<Vocabulary> {
            self.inner.vocabulary()
        }
        fn compile(&self, grammar: &Grammar) -> Result<Arc<dyn CompiledConstraint>, BackendError> {
            (self.before)(grammar, self.calls.fetch_add(1, Ordering::SeqCst));
            self.inner.compile(grammar)
        }
    }

    const MODES: [ExecutionMode; 2] = [ExecutionMode::Overlapped, ExecutionMode::Serial];

    #[test]
    fn a_panicking_compile_fails_only_its_own_request() {
        let requests = schema_requests();
        let reference = engine(ExecutionMode::Serial);
        let expected: Vec<RequestResult> = requests
            .iter()
            .map(|request| reference.decode_reference(request).unwrap())
            .collect();
        for mode in MODES {
            for admission_workers in [1, 2] {
                let what = format!("{mode:?}, {admission_workers} admission workers");
                let before = |_: &Grammar, call| assert_ne!(call, 2, "the third compile dies");
                let engine = HookedCompile::engine(before, mode);
                let scheduler = engine.serve(SchedulerConfig {
                    max_lanes: 2,
                    admission_workers,
                    ..SchedulerConfig::default()
                });
                let handles: Vec<_> = requests
                    .iter()
                    .map(|request| scheduler.submit(request.clone()).unwrap())
                    .collect();
                let mut failed = 0;
                for (handle, expected) in handles.into_iter().zip(&expected) {
                    match handle.wait() {
                        Ok(done) => assert_eq!(done.result.output, expected.output, "{what}"),
                        Err(err) => {
                            assert!(err.to_string().contains("panicked"), "{what}: {err}");
                            failed += 1;
                        }
                    }
                }
                assert_eq!(failed, 1, "{what}");
                // The worker that caught the panic still serves.
                let fresh = scheduler.submit(request(0)).unwrap().wait().unwrap();
                assert_eq!(fresh.result.output, br#"{"ok": true}"#.to_vec(), "{what}");
                let m = scheduler.metrics();
                assert_eq!((m.failed, m.completed), (1, 6), "{what}");
                scheduler.shutdown();
            }
        }
    }

    /// Waits at most `limit` for `stream`'s terminal event: its result, or
    /// its error.
    fn terminal_within(
        stream: &StreamingRequest,
        limit: Duration,
    ) -> Result<RequestResult, BackendError> {
        let deadline = Instant::now() + limit;
        while Instant::now() < deadline {
            match stream.try_next_event() {
                Some(StreamEvent::Finished { result, .. }) => return Ok(result),
                Some(StreamEvent::Failed(err)) => return Err(err),
                Some(_) => {}
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        panic!(
            "request {} has no terminal event after {limit:?}",
            stream.id()
        );
    }

    #[test]
    fn a_panicking_mask_fill_fails_only_its_own_request() {
        let inner = Arc::new(XGrammarBackend::new(Arc::new(test_vocabulary(600))));
        let profile = ModelProfile::llama31_8b_h100().scaled(0.01);
        let requests = &schema_requests()[..3];
        let reference = ServingEngine::new(inner.clone(), profile.clone(), ExecutionMode::Serial);
        let expected: Vec<RequestResult> = requests
            .iter()
            .map(|request| reference.decode_reference(request).unwrap())
            .collect();
        let limit = Duration::from_secs(5);
        for mode in MODES {
            for mask_workers in [1, 2] {
                let what = format!("{mode:?}, {mask_workers} mask workers");
                let sessions = Arc::new(FilledSessions::default());
                let backend = CountingBackend {
                    inner: Arc::clone(&inner),
                    sessions: Arc::clone(&sessions),
                    delay: |opened, _| {
                        assert_ne!(opened, 1, "the second session's fills panic");
                        Duration::ZERO
                    },
                };
                let engine = ServingEngine::new(Arc::new(backend), profile.clone(), mode);
                // Left undropped on a failure: joining a wedged decode loop
                // would hang the test instead of failing it.
                let scheduler = std::mem::ManuallyDrop::new(engine.serve(SchedulerConfig {
                    max_lanes: 4,
                    mask_workers,
                    ..SchedulerConfig::default()
                }));
                let handles: Vec<_> = requests
                    .iter()
                    .map(|request| scheduler.submit(request.clone()).unwrap())
                    .collect();
                let mut failed = 0;
                for (handle, expected) in handles.iter().zip(&expected) {
                    match terminal_within(handle, limit) {
                        Ok(result) => assert_eq!(result.output, expected.output, "{what}"),
                        Err(err) => {
                            assert!(err.to_string().contains("mask fill panicked"), "{what}");
                            failed += 1;
                        }
                    }
                }
                assert_eq!(failed, 1, "{what}");
                let fresh = scheduler.submit(request(0)).unwrap();
                let fresh = terminal_within(&fresh, limit).expect("a fresh request finishes");
                assert_eq!(fresh.output, br#"{"ok": true}"#.to_vec(), "{what}");
                let m = scheduler.metrics();
                assert_eq!((m.failed, m.completed), (1, 3), "{what}");
                std::mem::ManuallyDrop::into_inner(scheduler).shutdown();
                // The failed lane's session went with its slot.
                assert_eq!(sessions.live.load(Ordering::SeqCst), 0, "{what}");
            }
        }
    }

    /// `s` and `t` nest each other at every `a`, so matching the eleventh `a`
    /// needs 1 024 stacks, past the matcher's 512: the session refuses that
    /// token with a typed error, and the request fails as its reference
    /// decode does, in every mode, beside a request that is served.
    #[test]
    fn a_token_past_the_stack_cap_fails_its_request() {
        let probe = EngineRequest {
            constraint: LaneConstraint::Grammar(
                parse_ebnf(
                    r#"
                    root ::= s
                    s ::= "a" s "b" | "a" t "b" | ""
                    t ::= "a" s "c" | "a" t "c" | ""
                    "#,
                    "root",
                )
                .unwrap(),
            ),
            prompt_tokens: 4,
            reference: b"aaaaaaaaaaacbbcbbcbbcb".to_vec(),
            max_tokens: 32,
            seed: 0,
        };
        let limit = Duration::from_secs(5);
        for mode in MODES {
            let engine = engine(mode);
            let expected = engine.decode_reference(&probe).unwrap_err().to_string();
            assert!(expected.contains("more parallel stacks"), "{expected}");
            let scheduler = engine.serve(SchedulerConfig::default());
            let failing = scheduler.submit(probe.clone()).unwrap();
            let served = scheduler.submit(request(0)).unwrap();
            let err = terminal_within(&failing, limit).unwrap_err();
            assert_eq!(err.to_string(), expected, "{mode:?}");
            let served = terminal_within(&served, limit).expect("the other request is served");
            assert_eq!(served.output, br#"{"ok": true}"#.to_vec(), "{mode:?}");
            let m = scheduler.metrics();
            assert_eq!((m.failed, m.completed), (1, 1), "{mode:?}");
            scheduler.shutdown();
        }
    }

    /// A panic payload that panics again when dropped.
    struct PanicsOnDrop;

    impl Drop for PanicsOnDrop {
        fn drop(&mut self) {
            panic!("the panic payload's drop panics too");
        }
    }

    #[test]
    fn an_admission_worker_that_dies_after_the_hand_over_fails_that_lane() {
        for mode in MODES {
            // The first compile's payload kills its worker outside the catch,
            // so the result its lane waits for never comes.
            let before = |_: &Grammar, call| {
                if call == 0 {
                    panic::panic_any(PanicsOnDrop);
                }
            };
            let scheduler = HookedCompile::engine(before, mode).serve(SchedulerConfig {
                admission_workers: 2,
                ..SchedulerConfig::default()
            });
            let doomed = scheduler.submit(request(0)).unwrap();
            assert!(doomed.wait().is_err(), "{mode:?}");
            let done = scheduler.submit(request(1)).unwrap().wait().unwrap();
            assert_eq!(done.result.output, br#"{"ok": true}"#.to_vec(), "{mode:?}");
            assert_eq!(scheduler.metrics().failed, 1, "{mode:?}");
            let joined = panic::catch_unwind(AssertUnwindSafe(|| scheduler.shutdown()));
            assert!(
                joined.is_err(),
                "{mode:?}: shutdown re-raises the worker's panic"
            );
        }
    }

    #[test]
    fn dropping_the_scheduler_while_unwinding_past_a_dead_worker_does_not_abort() {
        // The first compile's payload kills its admission worker outside the
        // catch; a mask worker catches a fill's panic and lives on.
        let before = |_: &Grammar, call| {
            if call == 0 {
                panic::panic_any(PanicsOnDrop);
            }
        };
        let unwound = panic::catch_unwind(|| {
            let engine = HookedCompile::engine(before, ExecutionMode::Overlapped);
            let scheduler = engine.serve(SchedulerConfig::default());
            assert!(scheduler.submit(request(0)).unwrap().wait().is_err());
            // Unwinds through the scheduler's drop, which finds the dead
            // worker: re-raising its panic would abort the process.
            panic!("the body's own failure");
        });
        assert!(unwound.is_err());
    }

    #[test]
    fn a_slow_compile_does_not_hold_up_a_lane_behind_it() {
        let slow = parse_ebnf(
            r#"root ::= "{\"ok\": " slow "}"
slow ::= "true" | "false""#,
            "root",
        )
        .unwrap();
        let before = |grammar: &Grammar, _| {
            if grammar.rules().iter().any(|rule| rule.name == "slow") {
                std::thread::sleep(Duration::from_millis(300));
            }
        };
        for mode in MODES {
            let engine = HookedCompile::engine(before, mode);
            let slow_request = EngineRequest {
                constraint: slow.clone().into(),
                ..request(0)
            };
            let expected = engine.decode_reference(&request(1)).unwrap();
            let scheduler = engine.serve(SchedulerConfig {
                max_lanes: 2,
                admission_workers: 2,
                ..SchedulerConfig::default()
            });
            let slow_handle = scheduler.submit(slow_request.clone()).unwrap();
            let fast = scheduler.submit(request(1)).unwrap().wait().unwrap();
            assert_eq!(fast.result.output, expected.output, "{mode:?}");
            assert!(
                fast.timing.ttft < Duration::from_millis(100),
                "{mode:?}: {:?}",
                fast.timing
            );
            while let Some(event) = slow_handle.try_next_event() {
                assert!(
                    !matches!(event, StreamEvent::Finished { .. }),
                    "{mode:?}: slow first"
                );
            }
            let slow_done = slow_handle.wait().unwrap();
            let slow_expected = engine.decode_reference(&slow_request).unwrap();
            assert_eq!(slow_done.result.output, slow_expected.output, "{mode:?}");
            // The slow lane held its slot while it compiled.
            assert_eq!(scheduler.metrics().max_concurrent_lanes, 2, "{mode:?}");
            scheduler.shutdown();
        }
    }

    #[test]
    fn the_compile_overlaps_the_prefill_and_serial_mode_sums_them() {
        // Both sides mostly sleep, so a loaded runner cannot flip the result.
        let compile = Duration::from_millis(150);
        let before = |_: &Grammar, _| std::thread::sleep(Duration::from_millis(150));
        // 0.6 µs a prompt token under the test profile.
        let prompt_tokens = 166_667;
        for mode in MODES {
            let engine = HookedCompile::engine(before, mode);
            let prefill = engine.profile().prefill_time(prompt_tokens);
            assert!(prefill >= Duration::from_millis(99), "{prefill:?}");
            let request = EngineRequest {
                prompt_tokens,
                ..request(0)
            };
            let scheduler = engine.serve(SchedulerConfig::default());
            let ttft = scheduler
                .submit(request)
                .unwrap()
                .wait()
                .unwrap()
                .timing
                .ttft;
            scheduler.shutdown();
            match mode {
                ExecutionMode::Overlapped => assert!(
                    ttft < compile + prefill - Duration::from_millis(50),
                    "{ttft:?}: the prefill ran after the compile"
                ),
                ExecutionMode::Serial => assert!(
                    ttft >= compile + prefill,
                    "{ttft:?}: the serial baseline overlapped"
                ),
            }
        }
    }

    #[test]
    fn a_lone_request_pays_one_decode_step_per_sampled_token() {
        // The prefill's logits pay for the first token, and the EOS round
        // pays a step of its own. An idle loop spins for 1 ms (its 20 ms
        // step is longer) before it parks: the first request comes while it
        // may still spin, the second after it has parked.
        let (step, limit) = (Duration::from_millis(20), Duration::from_secs(5));
        for mode in MODES {
            for policy in [JumpForwardPolicy::Off, JumpForwardPolicy::Engine] {
                let engine = sleeping_engine(step, mode).with_jump_forward(policy);
                let expected = engine.decode_reference(&request(0)).unwrap();
                // Left undropped on a failure: joining a wedged decode loop
                // would hang the test instead of failing it.
                let scheduler =
                    std::mem::ManuallyDrop::new(engine.serve(SchedulerConfig::default()));
                for idle in [Duration::ZERO, 3 * step] {
                    let what = format!("{mode:?}, {policy:?}, idle {idle:?}");
                    std::thread::sleep(idle);
                    let before = scheduler.metrics().decode_steps;
                    let stream = scheduler.submit(request(0)).unwrap();
                    let served = terminal_within(&stream, limit).expect("the request finishes");
                    let steps = scheduler.metrics().decode_steps - before;
                    assert!(served.completed, "{what}");
                    assert_eq!(served.output, expected.output, "{what}");
                    assert_eq!(steps, served.tokens as u64, "{what}");
                }
                let scheduler = std::mem::ManuallyDrop::into_inner(scheduler);
                shut_down_within(scheduler, limit, &format!("{mode:?}, {policy:?}"));
            }
        }
    }

    #[test]
    fn no_byte_streams_before_the_prefill_ends() {
        // `request()`'s grammar forces `{"ok": ` at lane start, and its
        // compile lands well inside a ≈ 100 ms prefill.
        let prompt_tokens = 166_667;
        for mode in MODES {
            let engine = engine(mode);
            let prefill = engine.profile().prefill_time(prompt_tokens);
            let scheduler = engine.serve(SchedulerConfig::default());
            let submitted = Instant::now();
            let request = EngineRequest {
                prompt_tokens,
                ..request(0)
            };
            let stream = scheduler.submit(request).unwrap();
            let first = loop {
                match stream.next_event().expect("the request finishes") {
                    StreamEvent::Admitted { .. } => {}
                    StreamEvent::Bytes(bytes) => break bytes,
                    other => panic!("{mode:?}: {other:?} before any bytes"),
                }
            };
            let arrived = submitted.elapsed();
            assert!(arrived >= prefill, "{mode:?}: {arrived:?} < {prefill:?}");
            assert!(first.starts_with(br#"{"ok": "#), "{mode:?}: {first:?}");
            let done = stream.wait().unwrap();
            assert_eq!(done.result.output, br#"{"ok": true}"#.to_vec(), "{mode:?}");
            assert!(done.timing.ttft >= prefill, "{mode:?}: {:?}", done.timing);
            scheduler.shutdown();
        }
    }

    /// A profile the decode loop sleeps through: `step` a decode step at any
    /// batch size, and 1 ms a prompt token.
    fn sleeping_profile(step: Duration) -> ModelProfile {
        ModelProfile {
            name: format!("{step:?} steps"),
            decode_base: step,
            decode_per_extra_seq: Duration::ZERO,
            prefill_per_token: Duration::from_millis(1),
            time_scale: 1.0,
        }
    }

    #[test]
    fn the_first_mask_fills_under_the_prefill() {
        // Every side sleeps: a 60 ms first fill, a compile that returns at
        // once, a 100 ms prefill and 200 ms decode steps.
        let ms = Duration::from_millis;
        let profile = sleeping_profile(ms(200));
        let prefill = profile.prefill_time(100);
        for mode in MODES {
            let backend = CountingBackend {
                inner: Arc::new(XGrammarBackend::new(Arc::new(test_vocabulary(600)))),
                sessions: Arc::default(),
                delay: |_, first| Duration::from_millis(if first { 60 } else { 0 }),
            };
            // No forced prefix, so the first bytes are the first sampled
            // token's; one token, as only it is timed.
            let engine = ServingEngine::new(Arc::new(backend), profile.clone(), mode)
                .with_jump_forward(JumpForwardPolicy::Off);
            let request = EngineRequest {
                prompt_tokens: 100,
                max_tokens: 1,
                ..request(0)
            };
            let scheduler = engine.serve(SchedulerConfig::default());
            let ttft = scheduler
                .submit(request)
                .unwrap()
                .wait()
                .unwrap()
                .timing
                .ttft;
            scheduler.shutdown();
            match mode {
                ExecutionMode::Overlapped => assert!(
                    ttft < prefill + ms(30),
                    "{ttft:?}: the first fill ran after the prefill"
                ),
                ExecutionMode::Serial => assert!(
                    (prefill + ms(60)..prefill + ms(260)).contains(&ttft),
                    "{ttft:?}: a decode step came before the first token, or the fill overlapped"
                ),
            }
        }
    }

    /// An engine on `test_vocabulary(600)` that sleeps through `step`-long
    /// decode steps, with jump-forward off: every sampled token streams as
    /// one `Bytes` event of its own.
    fn sleeping_engine(step: Duration, mode: ExecutionMode) -> ServingEngine {
        let backend = Arc::new(XGrammarBackend::new(Arc::new(test_vocabulary(600))));
        ServingEngine::new(backend, sleeping_profile(step), mode)
            .with_jump_forward(JumpForwardPolicy::Off)
    }

    /// Blocks until `stream` has delivered `n` `Bytes` events.
    fn wait_for_bytes(stream: &StreamingRequest, n: usize) {
        let mut seen = 0;
        while seen < n {
            match stream.next_event().expect("the request is still decoding") {
                StreamEvent::Admitted { .. } => {}
                StreamEvent::Bytes(_) => seen += 1,
                other => panic!("{other:?} after {seen} of {n} Bytes events"),
            }
        }
    }

    #[test]
    fn a_joiner_samples_before_the_batch_steps_again() {
        // Every side sleeps: 100 ms decode steps, and B's 50 ms prefill.
        let ms = Duration::from_millis;
        let step = ms(100);
        for mode in MODES {
            let engine = sleeping_engine(step, mode);
            let prefill = engine.profile().prefill_time(50);
            // A still decodes after the step B joins in the middle of.
            let tokens = engine.decode_reference(&request(0)).unwrap().tokens;
            assert!(tokens >= 4, "{tokens} tokens");
            let scheduler = engine.serve(SchedulerConfig::default());
            let a = scheduler.submit(request(0)).unwrap();
            wait_for_bytes(&a, 2);
            std::thread::sleep(step / 2);
            let b = EngineRequest {
                prompt_tokens: 50,
                ..request(1)
            };
            let ttft = scheduler.submit(b).unwrap().wait().unwrap().timing.ttft;
            a.wait().unwrap();
            scheduler.shutdown();
            // The rest of A's step and B's prefill, then B's first token:
            // no step of A's comes before it.
            assert!(
                (prefill..prefill + step).contains(&ttft),
                "{mode:?}: {ttft:?}: a decode step came before the joiner's first token"
            );
        }
    }

    #[test]
    fn every_sampled_token_costs_one_mask_fill() {
        // The served run fills exactly the masks the six lanes' references
        // fill: a hand-off that fills a mask again, or skips one, shows.
        let inner = Arc::new(XGrammarBackend::new(Arc::new(test_vocabulary(600))));
        let profile = ModelProfile::llama31_8b_h100().scaled(0.01);
        let requests = schema_requests();
        for mode in MODES {
            for mask_workers in [1, 2] {
                for policy in [JumpForwardPolicy::Off, JumpForwardPolicy::Engine] {
                    let sessions = Arc::new(FilledSessions::default());
                    let backend = CountingBackend {
                        inner: Arc::clone(&inner),
                        sessions: Arc::clone(&sessions),
                        delay: |opened, _| Duration::from_micros(200 * (2 - opened % 3)),
                    };
                    let engine = ServingEngine::new(Arc::new(backend), profile.clone(), mode)
                        .with_jump_forward(policy);
                    for request in &requests {
                        engine.decode_reference(request).unwrap();
                    }
                    let expected = sessions.fills.swap(0, Ordering::SeqCst);
                    let scheduler = engine.serve(SchedulerConfig {
                        max_lanes: 2,
                        mask_workers,
                        ..SchedulerConfig::default()
                    });
                    let handles: Vec<_> = requests
                        .iter()
                        .map(|request| scheduler.submit(request.clone()).unwrap())
                        .collect();
                    for handle in handles {
                        handle.wait().unwrap();
                    }
                    scheduler.shutdown();
                    let fills = sessions.fills.load(Ordering::SeqCst);
                    let what = format!("{mode:?}, {mask_workers} mask workers, {policy:?}");
                    assert_eq!(fills, expected, "{what}");
                }
            }
        }
    }

    /// The lane lifecycle on virtual time: the decode loop that ships, its
    /// waits included, run on a [`Model`] of its environment with no threads,
    /// channels or sleeps. Every lane's compile, fills and tokens are scripted.
    mod lifecycle {
        use super::*;
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeSet;
        use std::sync::LazyLock;
        use LaneState::*;

        /// Virtual time 0; the model counts in virtual µs from it.
        static ZERO: LazyLock<Instant> = LazyLock::new(Instant::now);

        /// A state or event without its fields.
        fn variant(value: impl fmt::Debug) -> String {
            let name = format!("{value:?}");
            name[..name.find([' ', '(']).unwrap_or(name.len())].to_string()
        }

        /// What one lane does. Its worker hands it over at `arrives` and rings,
        /// and rings again `compile` later with its result, failed (an error, a
        /// panic or a dead worker look alike) if `compile_fails`. A `forced`
        /// lane is finished by its lane-start pass; the others sample `tokens`,
        /// each fill taking `fill`, the `panicking_fill`-th panicking.
        #[derive(Debug, Clone, Copy)]
        struct Script {
            arrives: u64,
            compile: u64,
            compile_fails: bool,
            prefill: u64,
            constrained: bool,
            forced: bool,
            tokens: u32,
            fill: u64,
            panicking_fill: Option<u32>,
        }

        impl Script {
            fn draw(rng: &mut SmallRng, arrives: u64) -> Script {
                let long = rng.gen_bool(0.2);
                Script {
                    arrives,
                    compile: rng.gen_range(0..3_000),
                    compile_fails: rng.gen_bool(0.15),
                    prefill: rng.gen_range(if long { 2_001..10_000 } else { 0..2_500 }),
                    constrained: rng.gen_bool(0.8),
                    forced: rng.gen_bool(0.1),
                    tokens: rng.gen_range(1..6),
                    fill: rng.gen_range(0..400),
                    panicking_fill: rng.gen_bool(0.2).then(|| rng.gen_range(0..4)),
                }
            }
        }

        /// What the model knows of a lane: when its prefill began (as it
        /// joined, or serial as its compile landed), when it first streamed,
        /// its fills and tokens, the decode steps run when it started or last
        /// sampled, how it ended.
        #[derive(Debug, Clone, Default)]
        struct Record {
            prefill_from: u64,
            first_stream: Option<u64>,
            fills: u32,
            sampled: u32,
            finished: bool,
            steps: u64,
            ended: Option<LaneState>,
        }

        /// The decode loop's environment on virtual time; a lane is its script's
        /// index. The bell closes after its last ring, as `Bell::drop` does.
        #[derive(Default)]
        struct Model {
            serial: bool,
            step: u64,
            now: u64,
            scripts: Vec<Script>,
            records: Vec<Record>,
            arrived: usize,
            /// The rings not heard yet, latest first, and whether the loop was
            /// told the bell is closed.
            rings: Vec<u64>,
            closed: bool,
            /// The wait under way (spin window, deadline), when it began, and
            /// how long it has spun.
            waiting: ((u64, u64, Option<u64>), u64, u64),
            /// The end of the latest prefill or step the loop has waited on.
            worked: u64,
            /// The lanes at a mask worker, and when each fill completes.
            pool: Vec<(usize, u64)>,
            shared: Arc<Shared>,
            /// Compiles landed and failed, fills failed, and lanes finished
            /// but not retired.
            counts: [usize; 4],
            log: Vec<String>,
            transitions: BTreeSet<(String, String)>,
        }

        impl Model {
            /// Lets time pass to `end`, spinning inside `spin`, and checks the
            /// wait under way against its budget: 1 ms for an idle gap (one
            /// step, if shorter) and for a timed wait over 2 ms, and the wait
            /// itself otherwise.
            fn pass(&mut self, end: u64, spin: Range<u64>) {
                let ((_, _, until), began, spun) = &mut self.waiting;
                *spun += end.min(spin.end).saturating_sub(self.now.max(spin.start));
                self.now = end;
                let budget = SPIN_BUDGET.as_micros() as u64;
                let budget = match until.map(|until| until - *began) {
                    None => budget.min(self.step),
                    Some(length) if length > 2 * budget => budget,
                    Some(length) => length,
                };
                assert!(
                    *spun <= budget,
                    "{end}: the wait from {began} spun {spun} µs of {budget}"
                );
            }
        }

        impl Env for Model {
            type Lane = usize;

            fn now(&self) -> Instant {
                *ZERO + Duration::from_micros(self.now)
            }

            /// A closed bell is heard at once, and a loop that listens to it
            /// again polls it: 1 µs of spinning a look.
            fn wait(
                &mut self,
                spin: Range<Instant>,
                until: Option<Instant>,
                bell: bool,
            ) -> Option<bool> {
                let us = |t: Instant| t.duration_since(*ZERO).as_micros() as u64;
                let key = (us(spin.start), us(spin.end), until.map(us));
                if self.waiting.0 != key {
                    self.waiting = (key, self.now, 0);
                    self.log.push(format!("{}: waits, {key:?}", self.now));
                }
                // An idle wait spins from the end of the last prefill or step on.
                let worked = self.worked;
                assert!(
                    key.2.is_some() || key.0 >= worked,
                    "idle {key:?} spins before {worked}"
                );
                self.worked = worked.max(key.2.unwrap_or(0));
                let ring = self.rings.last().copied().filter(|_| bell);
                if bell && ring.is_none() {
                    let poll = u64::from(std::mem::replace(&mut self.closed, true));
                    self.pass(self.now + poll, 0..u64::MAX);
                    return None;
                }
                let end = ring.into_iter().chain(key.2).min().expect("a wait ends");
                self.pass(end.max(self.now), key.0..key.1);
                let rang = ring.is_some_and(|ring| ring <= self.now);
                while rang && self.rings.last().is_some_and(|&ring| ring <= self.now) {
                    self.rings.pop();
                }
                Some(rang)
            }

            /// No lane joins while one that finished waits to retire.
            fn arrival(&mut self) -> Result<(u64, usize, usize), TryRecvError> {
                let lane = self.arrived;
                let script = self.scripts.get(lane).ok_or(TryRecvError::Disconnected)?;
                if script.arrives > self.now {
                    return Err(TryRecvError::Empty);
                }
                assert_eq!(
                    self.counts[3], 0,
                    "a finished lane waits behind lane {lane}"
                );
                (self.arrived, self.records[lane].prefill_from) = (lane + 1, self.now);
                Ok((lane as u64, script.prefill as usize, lane))
            }

            fn land(&mut self, &mut lane: &mut usize) -> Option<Event> {
                let (script, now) = (self.scripts[lane], self.now());
                if script.arrives + script.compile > self.now {
                    return None;
                }
                self.counts[0] += 1;
                if script.compile_fails {
                    self.counts[1] += 1;
                    return Some(Event::Failed(scheduler_error("the compile failed")));
                }
                let record = &mut self.records[lane];
                record.finished = script.forced;
                if self.serial {
                    record.prefill_from = self.now;
                }
                Some(Event::Started {
                    now,
                    finished: script.forced,
                })
            }

            fn needs_mask(&self, &lane: &usize) -> bool {
                self.scripts[lane].constrained && !self.records[lane].finished
            }

            fn hand_off(&mut self, lanes: &mut Vec<usize>) {
                for lane in lanes.drain(..) {
                    self.pool.push((lane, self.now + self.scripts[lane].fill));
                }
            }

            /// The fill that completes first comes back first.
            fn collect(&mut self) -> Option<(u64, usize, bool)> {
                let first = (0..self.pool.len()).min_by_key(|&k| self.pool[k].1)?;
                let (lane, done) = self.pool.swap_remove(first);
                self.now = self.now.max(done);
                let record = &mut self.records[lane];
                let filled = self.scripts[lane].panicking_fill != Some(record.fills);
                record.fills += 1;
                self.counts[2] += usize::from(!filled);
                Some((lane as u64, lane, filled))
            }

            /// A constrained lane samples each token under a mask filled for
            /// it. One its lane-start pass finished under its prefill samples
            /// nothing, as `Lane::step` does not.
            fn sample(&mut self, &mut lane: &mut usize) -> Event {
                let (script, record) = (self.scripts[lane], &mut self.records[lane]);
                if !record.finished {
                    if script.constrained {
                        assert_eq!(record.fills, record.sampled + 1, "lane {lane}'s mask");
                    }
                    record.sampled += 1;
                    record.finished = record.sampled == script.tokens;
                }
                Event::Sampled {
                    finished: record.finished,
                }
            }

            /// No bytes stream before the lane's prefill has ended.
            fn stream(&mut self, &mut lane: &mut usize) {
                let end = self.records[lane].prefill_from + self.scripts[lane].prefill;
                assert!(
                    end <= self.now,
                    "lane {lane} streams before its prefill ends at {end}"
                );
                self.records[lane].first_stream.get_or_insert(self.now);
            }

            fn fail(&mut self, &mut lane: &mut usize, _: BackendError) {
                self.records[lane].ended = Some(Failed);
            }

            fn finish(&mut self, lane: usize) {
                (self.records[lane].ended, self.counts[3]) = (Some(Finished), self.counts[3] - 1);
            }

            /// Each lane is in one place, and its first token comes from its
            /// prefill with no step before it, each later one from one step.
            fn fed(&mut self, slots: &[Slot<usize>], i: usize, from: LaneState, event: &Event) {
                let (lane, to) = (slots[i].id as usize, slots[i].state);
                let [from_name, event_name, to_name] = [variant(from), variant(event), variant(to)];
                let line = format!("{}: lane {lane} {from_name} takes {event_name}", self.now);
                self.log.push(format!("{line}: {to_name}"));
                self.transitions.insert((from_name, to_name));
                self.counts[3] += usize::from(to == Finished);
                let ids: BTreeSet<u64> = slots.iter().map(|s| s.id).collect();
                assert_eq!(ids.len(), slots.len(), "a lane is in the batch twice");
                for s in slots {
                    let away = matches!(s.state, AtMaskWorker { .. });
                    assert_eq!(away, s.lane.is_none(), "lane {} {:?}", s.id, s.state);
                }
                let steps = self.shared.stats().metrics.decode_steps;
                let record = &mut self.records[lane];
                if let Event::Sampled { .. } = event {
                    let stepped = u64::from(from == Decoding);
                    assert_eq!(steps - record.steps, stepped, "lane {lane}'s steps");
                }
                if let Event::Started { .. } | Event::Sampled { .. } = event {
                    record.steps = steps;
                }
            }
        }

        /// Runs the shipped loop over `scripts` to its end, its decode step
        /// `step` µs at any batch size and its prefill 1 µs a prompt token. A
        /// failing case prints whole, with every wait and every event its
        /// lanes took, in order (no shrinking).
        fn play(
            case: impl fmt::Display,
            mode: ExecutionMode,
            max_lanes: usize,
            step: u64,
            scripts: &[Script],
        ) -> Model {
            let rings = scripts
                .iter()
                .flat_map(|s| [s.arrives, s.arrives + s.compile]);
            let mut rings: Vec<u64> = rings.collect();
            rings.sort_unstable_by(|a, b| b.cmp(a));
            let env = Model {
                serial: mode == ExecutionMode::Serial,
                step,
                scripts: scripts.to_vec(),
                records: vec![Record::default(); scripts.len()],
                rings,
                ..Model::default()
            };
            let mut decode = DecodeLoop {
                shared: Arc::clone(&env.shared),
                env,
                profile: ModelProfile {
                    name: "virtual".into(),
                    decode_base: Duration::from_micros(step),
                    decode_per_extra_seq: Duration::ZERO,
                    prefill_per_token: Duration::from_micros(1),
                    time_scale: 1.0,
                },
                planner: Planner(mode),
                max_lanes,
                lanes: Vec::new(),
                handing: Vec::new(),
                bell: true,
            };
            let run = panic::catch_unwind(AssertUnwindSafe(|| {
                decode.run();
                let (model, n) = (&decode.env, scripts.len());
                assert_eq!(model.arrived, n, "every lane joined");
                let ended = model.records.iter().map(|r| r.ended);
                assert!(ended.clone().all(|e| matches!(e, Some(Finished | Failed))));
                assert!(model.pool.is_empty(), "a lane is left at a mask worker");
                let [landed, compile_failed, fill_failed, _] = model.counts;
                let failed = model.shared.stats().metrics.failed as usize;
                let completed = ended.filter(|&e| e == Some(Finished)).count();
                assert_eq!(landed, n, "every compile landed once");
                assert_eq!(completed + failed, n, "completed + failed");
                assert_eq!(failed, compile_failed + fill_failed, "failures");
            }));
            if let Err(failure) = run {
                eprintln!("case {case}: {mode:?}, max_lanes {max_lanes}, step {step} µs");
                for (lane, script) in scripts.iter().enumerate() {
                    eprintln!("  lane {lane}: {script:?}");
                }
                for line in &decode.env.log {
                    eprintln!("  {line}");
                }
                panic::resume_unwind(failure);
            }
            decode.env
        }

        #[test]
        fn lanes_keep_their_invariants_on_virtual_time() {
            // The bell closes at its last ring, the compile result's, 0.1 ms
            // into a 5 ms prefill: the rest is slept out but its last 1 ms.
            let lane = Script {
                arrives: 0,
                compile: 100,
                compile_fails: false,
                prefill: 5_000,
                constrained: true,
                forced: false,
                tokens: 2,
                fill: 50,
                panicking_fill: None,
            };
            for mode in MODES {
                play("closed bell", mode, 1, 3_000, &[lane]);
            }
            // A lone lane joins after an idle gap, and its compile lands 0.5 ms
            // after its 1 ms prefill: the idle spin counts from the prefill's
            // end, not from before the lane joined.
            let late = Script {
                arrives: 5_000,
                compile: 1_500,
                prefill: 1_000,
                ..lane
            };
            play("late compile", ExecutionMode::Overlapped, 1, 3_000, &[late]);
            let mut transitions = BTreeSet::new();
            for case in 0..1_000 {
                let mut rng = SmallRng::seed_from_u64(case);
                let mode = MODES[rng.gen_range(0..2usize)];
                let max_lanes = rng.gen_range(1..5);
                // Short steps, or steps over 2 ms, up to 200 ms.
                let long = rng.gen_bool(0.3);
                let step = rng.gen_range(if long { 2_001..200_000 } else { 100..2_000 });
                // Lanes in bursts, some after an idle gap of up to 50 ms.
                let mut arrives = 0;
                let scripts: Vec<Script> = (0..rng.gen_range(1..10))
                    .map(|_| {
                        let gap = rng.gen_bool(0.25).then(|| rng.gen_range(0..50_000u64));
                        arrives += gap.unwrap_or_else(|| rng.gen_range(0..800));
                        Script::draw(&mut rng, arrives)
                    })
                    .collect();
                let mut model = play(case, mode, max_lanes, step, &scripts);
                transitions.append(&mut model.transitions);
            }
            // Every transition `advance` lists was taken, and nothing else.
            assert_eq!(transitions.len(), 15, "{transitions:#?}");
        }

        /// Two lanes arrive in one pass of the loop: the first streams as its
        /// own prefill ends, before the second's prefill has.
        #[test]
        fn a_joiner_streams_before_the_next_arrivals_prefill_ends() {
            let lane = Script {
                arrives: 0,
                compile: 100,
                compile_fails: false,
                prefill: 2_000,
                constrained: true,
                forced: false,
                tokens: 2,
                fill: 50,
                panicking_fill: None,
            };
            let model = play(
                "two in one pass",
                ExecutionMode::Overlapped,
                2,
                3_000,
                &[lane; 2],
            );
            let [first, second] = [0, 1].map(|i| &model.records[i]);
            let second_prefill_ends = second.prefill_from + lane.prefill;
            assert_eq!(first.first_stream, Some(lane.prefill));
            assert_eq!(second.first_stream, Some(second_prefill_ends));
            assert!(lane.prefill < second_prefill_ends);
        }
    }
}
