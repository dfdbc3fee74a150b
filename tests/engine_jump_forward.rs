//! Differential harness for engine-level jump-forward decoding: the headline
//! guarantee is that [`JumpForwardPolicy`] changes *nothing but speed*. A
//! mixed batch (unconstrained prose + JSON-schema lanes + structural-tag
//! tool-call lanes) decoded under a seeded mock sampler must produce
//! byte-identical per-lane outputs with the `Off` and `Engine` policies —
//! with fewer (or equal) sampled tokens and strictly positive forced-token
//! counts on the schema-heavy lanes when jump-forward is on.
//!
//! The property test at the bottom extends the rollback-across-jump-forward
//! coverage of `tests/structural_tag.rs` to the engine layer: on random
//! grammars, injecting a forced-token run through a backend session (a
//! `dyn ConstraintMatcher`) and rolling it back restores the matcher state
//! exactly.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xg_baselines::{ConstrainedBackend, XGrammarBackend};
use xg_core::TokenBitmask;
use xg_engine::{
    EngineRequest, ExecutionMode, JumpForwardPolicy, LaneConstraint, LlmBehavior, ModelProfile,
    RequestResult, ServingEngine,
};
use xg_tokenizer::{test_vocabulary, Vocabulary};

/// A mixed batch: one prose lane, three schema-constrained lanes, one
/// structural-tag tool-call lane — the lane mix of an agentic serving batch.
/// Returns the requests plus the indices of the schema-heavy lanes.
fn mixed_requests() -> (Vec<EngineRequest>, Vec<usize>) {
    let mut requests = vec![EngineRequest {
        constraint: LaneConstraint::Unconstrained,
        prompt_tokens: 24,
        reference: b"Plain prose lane: no structure at all, sampled token by token.".to_vec(),
        max_tokens: 200,
        seed: 0,
    }];
    let mut schema_lanes = Vec::new();
    for task in xg_datasets::json_mode_eval_like(3, 0x1F2) {
        schema_lanes.push(requests.len());
        requests.push(EngineRequest {
            constraint: LaneConstraint::Grammar(
                xg_grammar::json_schema_to_grammar(&task.schema).expect("schema converts"),
            ),
            prompt_tokens: 139,
            reference: task.reference,
            max_tokens: 200,
            seed: requests.len() as u64,
        });
    }
    let tool_task = &xg_datasets::tool_call_tasks(1, 0x7A9)[0];
    requests.push(EngineRequest {
        constraint: LaneConstraint::StructuralTag(tool_task.structural_tag()),
        prompt_tokens: 139,
        reference: tool_task.reference.clone(),
        max_tokens: 400,
        seed: requests.len() as u64,
    });
    (requests, schema_lanes)
}

fn run_policy(
    backend: &Arc<dyn ConstrainedBackend>,
    requests: &[EngineRequest],
    policy: JumpForwardPolicy,
) -> (Vec<RequestResult>, xg_engine::SchedulerMetrics) {
    ServingEngine::with_llm_behavior(
        Arc::clone(backend),
        ModelProfile::llama31_8b_h100().scaled(0.02),
        ExecutionMode::Serial,
        LlmBehavior::default(),
    )
    .with_jump_forward(policy)
    .run_batch(requests)
    .expect("mixed batch runs")
}

/// The headline differential: identical mixed batches under `Off` vs
/// `Engine` produce byte-identical per-lane outputs, the engine policy
/// samples fewer (or equal) tokens on every lane, and the schema-heavy lanes
/// actually exercise forced-token injection.
#[test]
fn jump_forward_changes_nothing_but_speed() {
    let vocab = Arc::new(test_vocabulary(2000));
    let backend: Arc<dyn ConstrainedBackend> = Arc::new(XGrammarBackend::new(Arc::clone(&vocab)));
    let (requests, schema_lanes) = mixed_requests();

    let (off, off_metrics) = run_policy(&backend, &requests, JumpForwardPolicy::Off);
    let (engine, engine_metrics) = run_policy(&backend, &requests, JumpForwardPolicy::Engine);

    for (lane, (o, e)) in off.iter().zip(&engine).enumerate() {
        assert_eq!(
            String::from_utf8_lossy(&o.output),
            String::from_utf8_lossy(&e.output),
            "lane {lane}: engine-policy output diverged"
        );
        assert_eq!(o.completed, e.completed, "lane {lane}: completion diverged");
        assert!(
            e.tokens <= o.tokens,
            "lane {lane}: engine policy sampled {} > {} tokens",
            e.tokens,
            o.tokens
        );
        // Every injected token shows up in the output bytes.
        assert!(e.jump_forward_chars <= e.output.len());
    }

    // The schema-heavy lanes force long key names: injection must fire.
    for &lane in &schema_lanes {
        assert!(
            engine[lane].jump_forward_tokens > 0,
            "schema lane {lane} never jump-forwarded"
        );
        assert!(
            engine[lane].tokens < off[lane].tokens,
            "schema lane {lane} saved no sampled tokens"
        );
    }
    // Figure 11's premise as a count, not a wall clock: on the schema lanes
    // forced keys take at least a tenth of the sampling work away.
    let sampled = |results: &[RequestResult]| -> usize {
        schema_lanes.iter().map(|&lane| results[lane].tokens).sum()
    };
    assert!(
        10 * sampled(&engine) <= 9 * sampled(&off),
        "schema lanes sampled {} tokens with jump-forward, {} without: under 10% saved",
        sampled(&engine),
        sampled(&off)
    );
    // The prose lane is untouched by the grammar machinery.
    assert_eq!(engine[0].jump_forward_tokens, 0);
    assert_eq!(engine[0].jump_forward_chars, 0);
    assert_eq!(engine[0].tokens, off[0].tokens);

    // Batch accounting: the off path reports no forced work; the engine path
    // separates forced tokens/chars/time from the sampled TPOT.
    assert_eq!(off_metrics.forced_tokens, 0);
    assert_eq!(off_metrics.forced_chars, 0);
    assert_eq!(off_metrics.forced_time, Duration::ZERO);
    assert!(engine_metrics.forced_tokens > 0);
    assert!(engine_metrics.forced_chars > 0);
    assert!(engine_metrics.forced_time > Duration::ZERO);
    assert!(engine_metrics.sampled_tokens < off_metrics.sampled_tokens);
    // Honest TPOT: the carve-out never exceeds the total wall clock, and the
    // per-sampled-token figure stays meaningful.
    assert!(engine_metrics.forced_time < engine_metrics.wall_time);
    assert!(engine_metrics.tpot > Duration::ZERO);
}

/// Running the same batch twice under the engine policy is deterministic —
/// the differential above is a stable guarantee, not a lucky sample.
#[test]
fn engine_policy_is_deterministic_across_runs() {
    let vocab = Arc::new(test_vocabulary(2000));
    let backend: Arc<dyn ConstrainedBackend> = Arc::new(XGrammarBackend::new(Arc::clone(&vocab)));
    let (requests, _) = mixed_requests();
    let (first, _) = run_policy(&backend, &requests, JumpForwardPolicy::Engine);
    let (second, _) = run_policy(&backend, &requests, JumpForwardPolicy::Engine);
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.output, b.output);
        assert_eq!(a.tokens, b.tokens);
        assert_eq!(a.jump_forward_tokens, b.jump_forward_tokens);
        assert_eq!(a.jump_forward_chars, b.jump_forward_chars);
    }
}

// ---------------------------------------------------------------------------
// Property test: forced-token injection + rollback across the forced run
// restores the session state exactly, on random grammars.
// ---------------------------------------------------------------------------

/// Characters safe inside EBNF literals that also exist as single-byte
/// tokens of the synthetic vocabulary.
const LITERAL_CHARS: &[u8] = b"abcxyz019,;:=()[]{}<>";

/// Generates a small random EBNF expression of bounded depth. Literals are
/// biased long so jump-forward actually has something to force.
fn random_expr(rng: &mut SmallRng, depth: usize) -> String {
    let variants = if depth == 0 { 2 } else { 5 };
    match rng.gen_range(0..variants) {
        0 => {
            let len = rng.gen_range(2..=6);
            let lit: Vec<u8> = (0..len)
                .map(|_| LITERAL_CHARS[rng.gen_range(0..LITERAL_CHARS.len())])
                .collect();
            format!("\"{}\"", String::from_utf8(lit).unwrap())
        }
        1 => ["[a-c]", "[0-9]", "[xyz]"][rng.gen_range(0..3usize)].to_string(),
        2 => {
            let n = rng.gen_range(2..=3);
            let items: Vec<String> = (0..n).map(|_| random_expr(rng, depth - 1)).collect();
            items.join(" ")
        }
        3 => {
            let n = rng.gen_range(2..=3);
            let items: Vec<String> = (0..n).map(|_| random_expr(rng, depth - 1)).collect();
            format!("({})", items.join(" | "))
        }
        _ => {
            let inner = random_expr(rng, depth - 1);
            let op = ["*", "+", "?", "{1,3}"][rng.gen_range(0..4usize)];
            format!("({inner}){op}")
        }
    }
}

/// Picks any mask-allowed non-special token, preferring single-byte tokens so
/// the walk stays inside the grammar's alphabet.
fn pick_allowed(vocab: &Vocabulary, mask: &TokenBitmask) -> Option<xg_tokenizer::TokenId> {
    mask.allowed_tokens()
        .filter(|t| !vocab.is_special(*t))
        .min_by_key(|t| vocab.token_bytes(*t).len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Engine-layer mirror of the matcher-level rollback-across-jump-forward
    /// test: inject the forced-token run the serving engine would inject
    /// (longest-prefix cover, one `accept_token` per cover token), roll the
    /// whole run back through `ConstraintMatcher::rollback`, and demand the
    /// exact pre-injection state — same mask, same forced string, same
    /// rollback window.
    #[test]
    fn forced_token_injection_rolls_back_exactly(seed in 0u64..5_000) {
        let vocab = Arc::new(test_vocabulary(600));
        let backend = XGrammarBackend::new(Arc::clone(&vocab));
        let mut rng = SmallRng::seed_from_u64(seed);
        let source = format!("root ::= {}\n", random_expr(&mut rng, 2));
        let grammar = xg_grammar::parse_ebnf(&source, "root")
            .unwrap_or_else(|e| panic!("generated grammar must parse: {e}\n{source}"));
        let compiled = backend.compile(&grammar).expect("xgrammar compiles CFGs");
        let mut session = compiled.new_session();
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        let mut pre_mask = TokenBitmask::new_all_rejected(vocab.len());
        let mut injections = 0usize;

        for _ in 0..12 {
            let forced = session.find_jump_forward_string();
            if !forced.is_empty() {
                let (cover, covered) = vocab.sorted().longest_prefix_cover(&vocab, &forced);
                prop_assert_eq!(covered, forced.len(), "byte fallback covers everything");
                session.fill_next_token_bitmask(&mut pre_mask);
                let pre_window = session.rollback_window();

                // Inject the run exactly like the serving engine does.
                let mut accepted = 0usize;
                for &token in &cover {
                    prop_assert!(
                        session.accept_token(token).is_ok(),
                        "forced cover token {:?} rejected (grammar {})",
                        String::from_utf8_lossy(vocab.token_bytes(token)),
                        source.trim()
                    );
                    accepted += 1;
                }
                if session.rollback_window() >= pre_window + accepted {
                    // Roll the whole forced run back: the pre-injection state
                    // must be restored exactly.
                    prop_assert!(session.rollback(accepted).is_ok(), "rollback refused");
                    session.fill_next_token_bitmask(&mut mask);
                    prop_assert_eq!(
                        &mask, &pre_mask,
                        "mask diverged after rollback (grammar {})", source.trim()
                    );
                    prop_assert_eq!(
                        session.find_jump_forward_string(), forced.clone(),
                        "forced string diverged after rollback"
                    );
                    prop_assert_eq!(session.rollback_window(), pre_window);
                    // Replay the run so the walk continues past it.
                    for &token in &cover {
                        prop_assert!(session.accept_token(token).is_ok());
                    }
                }
                injections += 1;
                continue;
            }
            // No forced text: advance one sampled token along the mask.
            session.fill_next_token_bitmask(&mut mask);
            let Some(token) = pick_allowed(&vocab, &mask) else { break };
            prop_assert!(session.accept_token(token).is_ok(), "mask promised the token");
        }
        // Most random grammars force something; the property is vacuous only
        // for the rare all-choice grammars.
        let _ = injections;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Rollback over a draft, the constraint side of speculative decoding:
    /// on random grammars, a draft accepted token by token stops exactly at
    /// its first grammar-invalid token, and — because every accepted token is
    /// an individual rollback unit — rolling the accepted run back restores
    /// the pre-draft state exactly.
    #[test]
    fn rolling_back_an_accepted_draft_restores_its_start(seed in 0u64..5_000) {
        let vocab = Arc::new(test_vocabulary(600));
        let backend = XGrammarBackend::new(Arc::clone(&vocab));
        let mut rng = SmallRng::seed_from_u64(seed);
        let source = format!("root ::= {}\n", random_expr(&mut rng, 2));
        let grammar = xg_grammar::parse_ebnf(&source, "root")
            .unwrap_or_else(|e| panic!("generated grammar must parse: {e}\n{source}"));
        let compiled = backend.compile(&grammar).expect("xgrammar compiles CFGs");

        // Build a draft the way a draft model would: a grammar-valid prefix
        // (walked on a probe session) followed by junk tokens the grammar
        // rejects at that point, when such a token exists.
        let mut probe = Arc::clone(&compiled).new_session();
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        let mut draft = Vec::new();
        for _ in 0..rng.gen_range(0..=8usize) {
            probe.fill_next_token_bitmask(&mut mask);
            let Some(token) = pick_allowed(&vocab, &mask) else { break };
            if probe.accept_token(token).is_err() {
                break;
            }
            draft.push(token);
        }
        let valid_len = draft.len();
        probe.fill_next_token_bitmask(&mut mask);
        let junk = (0..vocab.len() as u32)
            .map(xg_tokenizer::TokenId)
            .find(|&t| !vocab.is_special(t) && !mask.is_allowed(t));
        if let Some(junk) = junk {
            draft.push(junk);
            draft.push(junk);
        }

        // The draft, token by token, on a fresh session.
        let mut lane = compiled.new_session();
        let mut pre_mask = TokenBitmask::new_all_rejected(vocab.len());
        lane.fill_next_token_bitmask(&mut pre_mask);
        let pre_window = lane.rollback_window();
        let accepted = draft
            .iter()
            .take_while(|&&token| lane.accept_token(token).is_ok())
            .count();
        let expected = if junk.is_some() { valid_len } else { draft.len() };
        prop_assert_eq!(accepted, expected, "junk tail must be rejected (grammar {})", source.trim());

        // Every accepted token is an individual rollback unit.
        prop_assert!(
            lane.rollback_window() >= pre_window + accepted,
            "accepted run not individually rollbackable"
        );
        if accepted > 0 {
            prop_assert!(lane.rollback(accepted).is_ok(), "rollback refused");
            lane.fill_next_token_bitmask(&mut mask);
            prop_assert_eq!(
                &mask, &pre_mask,
                "mask diverged after rolling back the draft (grammar {})",
                source.trim()
            );
            prop_assert_eq!(lane.rollback_window(), pre_window);
        }
    }
}
