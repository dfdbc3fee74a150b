//! Traced replay: where a request's time goes, layer by layer.
//!
//! A single-threaded driver of the benchmark's own replays the head of a
//! workload through each crate's *public* functions, wrapping every call in a
//! span (see [`crate::trace`]). It runs after the timed passes and never
//! contributes to an end-to-end number. Per request the tree is
//!
//! ```text
//! request
//! ├ compile
//! │ ├ grammar.convert          json_schema_to_grammar / build_trigger_grammars
//! │ ├ core.compile             GrammarCompiler::compile_grammar on a miss
//! │ ├ core.cache_hit_lookup    … on a hit
//! │ ├ core.tag_compile         compile_tag_dispatch on a miss (tool lanes)
//! │ ├ compile.stages           the same pipeline again, stage by stage
//! │ │ ├ automata.build_pda
//! │ │ ├ tokenizer.sort_vocab
//! │ │ ├ automata.suffix_fsas
//! │ │ └ core.mask_cache_build
//! │ └ baselines.session_new    CompiledConstraint::new_session
//! ├ core.tag_update.{add,remove}   update_tag_dispatch (tool lanes)
//! └ decode
//!   └ step
//!     ├ core.fill_mask | core.tag_free_fill | core.tag_segment_fill
//!     ├ engine.sample          LlmRequestState::propose_constrained
//!     ├ core.accept_token
//!     ├ core.jump_forward      find_jump_forward_string
//!     └ tokenizer.prefix_cover SortedVocabulary::longest_prefix_cover
//! ```
//!
//! `CompiledGrammar` can only be built whole, so `compile.stages` re-runs the
//! pipeline's public stage functions to attribute `core.compile`'s time; the
//! rest (`core.compile_other_ms`) is lint and glue.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use serde_json::Value;
use xg_automata::{build_pda, extract_all_suffix_fsas, PdaBuildOptions};
use xg_baselines::{ConstrainedBackend, XGrammarBackend};
use xg_core::{
    build_mask_cache, CompiledGrammar, CompiledTagDispatch, ConstraintMatcher, DispatchMode,
    GrammarMatcher, MaskCacheBuildOptions, StructuralTagMatcher, TokenBitmask,
};
use xg_engine::{LlmRequestState, SimulatedLlm};
use xg_grammar::{DispatchDelta, Grammar};
use xg_tokenizer::{SortedVocabulary, TokenId, Vocabulary};

use crate::loadgen::Fixture;
use crate::report::Metric;
use crate::stats::{median_or_zero, supported_quantile};
use crate::trace::Tracer;
use crate::workloads::{Inputs, Item, Source, Workload};

/// A request list of up to this many is replayed whole (`agent_tools` needs
/// every turn, or its rare registry mutations go unsampled) …
const REPLAYED_WHOLE: usize = 24;
/// … and of a longer one, this many.
const REPLAYED_REQUESTS: usize = 8;

pub struct Replay {
    pub metrics: Vec<Metric>,
    /// Chrome trace-event document of the traced run.
    pub trace: Value,
    /// Replayed requests whose bytes differ from what the scheduler served.
    pub mismatches: u64,
}

enum Matcher {
    Grammar(GrammarMatcher),
    Tag(StructuralTagMatcher),
}

impl Matcher {
    fn inner(&mut self) -> &mut dyn ConstraintMatcher {
        match self {
            Matcher::Grammar(m) => m,
            Matcher::Tag(m) => m,
        }
    }

    fn fill_span(&self) -> &'static str {
        match self {
            Matcher::Grammar(_) => "core.fill_mask",
            Matcher::Tag(m) => match m.mode() {
                DispatchMode::FreeText => "core.tag_free_fill",
                DispatchMode::Tagged { .. } => "core.tag_segment_fill",
            },
        }
    }
}

/// One replayed request in flight.
struct Lane<'a> {
    matcher: &'a mut Matcher,
    llm: LlmRequestState,
    output: Vec<u8>,
    /// Sampled and forced, against `max_tokens`.
    tokens: usize,
    max_tokens: usize,
}

impl Lane<'_> {
    fn accept(&mut self, tracer: &mut Tracer, token: TokenId) -> bool {
        tracer.span("core.accept_token", |_| {
            self.matcher.inner().accept_token(token).is_ok()
        })
    }

    fn emit(&mut self, vocab: &Vocabulary, token: TokenId) {
        self.output.extend_from_slice(vocab.token_bytes(token));
        self.llm.advance(token);
        self.tokens += 1;
    }
}

/// Exact counts summed over the replay (`MaskCacheStats`, `MatcherStats`).
#[derive(Default)]
struct Counts {
    /// Wall clock of the whole compiles that `compile.stages` re-ran.
    staged_whole_us: f64,
    rules: usize,
    pda_nodes: usize,
    ctx_dependent_tokens: usize,
    masks: u64,
    ctx_checked: u64,
    cache_decided: u64,
}

struct Driver<'a> {
    vocab: &'a Arc<Vocabulary>,
    sorted: SortedVocabulary,
    llm: SimulatedLlm,
    backend: XGrammarBackend,
    /// Compiled whole-output grammars by source index.
    grammars: HashMap<usize, (Grammar, Arc<CompiledGrammar>)>,
    counts: Counts,
}

impl Driver<'_> {
    /// Re-runs the compile pipeline's public stage functions on `grammar`.
    fn stages(&self, tracer: &mut Tracer, grammar: &Grammar) {
        let vocab = self.vocab;
        tracer.span("compile.stages", |t| {
            let pda = t.span("automata.build_pda", |_| {
                build_pda(grammar, &PdaBuildOptions::default())
            });
            let sorted = t.span("tokenizer.sort_vocab", |_| SortedVocabulary::new(vocab));
            let fsas = t.span("automata.suffix_fsas", |_| extract_all_suffix_fsas(&pda));
            t.span("core.mask_cache_build", |_| {
                build_mask_cache(
                    &pda,
                    vocab,
                    &sorted,
                    Some(&fsas),
                    &MaskCacheBuildOptions::default(),
                )
            });
        });
    }

    fn count_compiled(&mut self, grammar: &Grammar, compiled: &CompiledGrammar) {
        self.counts.rules += grammar.len();
        self.counts.pda_nodes += compiled.pda().node_count();
        self.counts.ctx_dependent_tokens += compiled.stats().context_dependent_after_expansion;
    }

    /// The `compile` span of a whole-output grammar lane.
    fn compile_grammar(&mut self, tracer: &mut Tracer, item: &Item, source: &Source) -> Matcher {
        if !self.grammars.contains_key(&item.source) {
            let grammar = tracer.span("grammar.convert", |_| {
                source.grammar().expect("grammar source")
            });
            let whole = Instant::now();
            let compiled = tracer.span("core.compile", |_| {
                self.backend.compiler().compile_grammar(&grammar)
            });
            // Every distinct grammar is staged, not a head of them: the
            // first four of `cold_schemas` are its lightest, where the fixed
            // 55 ms vocabulary sort weighs most, and alone they put the
            // mask-cache build at 74–82 % of the compile (all twelve: 85–89 %).
            self.counts.staged_whole_us += whole.elapsed().as_secs_f64() * 1e6;
            self.count_compiled(&grammar, &compiled);
            self.stages(tracer, &grammar);
            self.grammars.insert(item.source, (grammar, compiled));
        }
        let (grammar, _) = &self.grammars[&item.source];
        let compiled = tracer.span("core.cache_hit_lookup", |_| {
            self.backend.compiler().compile_grammar(grammar)
        });
        let constraint = self.backend.compile(grammar).expect("cached grammar");
        drop(tracer.span("baselines.session_new", |_| constraint.new_session()));
        Matcher::Grammar(GrammarMatcher::new(compiled))
    }

    /// The update and `compile` spans of a tool lane.
    fn compile_catalog(&mut self, tracer: &mut Tracer, item: &Item, source: &Source) -> Matcher {
        let Source::Catalog(catalog) = source else {
            unreachable!("tool lanes are served under a catalog")
        };
        if let Some((current, delta)) = &item.update {
            let base = self.dispatch(tracer, current);
            let span = match delta {
                DispatchDelta::AddTag(_) => "core.tag_update.add",
                DispatchDelta::RemoveTag { .. } => "core.tag_update.remove",
            };
            tracer.span(span, |_| {
                self.backend
                    .compiler()
                    .update_tag_dispatch(&base, delta)
                    .expect("generated deltas are valid")
            });
        }
        let dispatch = tracer.span("compile", |t| {
            let dispatch = self.dispatch(t, catalog);
            let constraint = self
                .backend
                .compile_structural(catalog)
                .expect("cached catalog");
            drop(t.span("baselines.session_new", |_| constraint.new_session()));
            dispatch
        });
        Matcher::Tag(StructuralTagMatcher::new(dispatch))
    }

    /// Compiles `catalog` (or fetches it), with conversion and stage spans on
    /// a miss.
    fn dispatch(
        &mut self,
        tracer: &mut Tracer,
        catalog: &xg_grammar::StructuralTag,
    ) -> Arc<CompiledTagDispatch> {
        let compiler = self.backend.compiler();
        if compiler.has_cached_tag_dispatch_for(catalog) {
            return tracer.span("core.cache_hit_lookup", |_| {
                compiler
                    .compile_tag_dispatch(catalog)
                    .expect("cached catalog")
            });
        }
        // Only the first catalog compiles every trigger from scratch; later
        // ones share most sub-grammars through the grammar cache.
        let first = compiler.dispatch_cache().is_empty();
        let grammars = tracer.span("grammar.convert", |_| {
            catalog
                .build_trigger_grammars()
                .expect("dataset catalogs validate")
        });
        let whole = Instant::now();
        let dispatch = tracer.span("core.tag_compile", |_| {
            compiler
                .compile_tag_dispatch(catalog)
                .expect("dataset catalogs compile")
        });
        if first {
            self.counts.staged_whole_us += whole.elapsed().as_secs_f64() * 1e6;
            for ((_, grammar), trigger) in grammars.iter().zip(dispatch.triggers()) {
                self.count_compiled(grammar, trigger.grammar());
                self.stages(tracer, &xg_grammar::append_free_text_tail(grammar));
            }
        }
        dispatch
    }

    /// Mirrors the engine's per-lane decode (`Lane::start` / `Lane::step`
    /// under `JumpForwardPolicy::Engine`) call for call, one span per call.
    fn decode(
        &mut self,
        tracer: &mut Tracer,
        matcher: &mut Matcher,
        llm: LlmRequestState,
        max_tokens: usize,
    ) -> Vec<u8> {
        let vocab = self.vocab;
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        let mut lane = Lane {
            matcher,
            llm,
            output: Vec::new(),
            tokens: 0,
            max_tokens,
        };
        let mut finished = self.inject_forced(tracer, &mut lane);
        while !finished {
            finished = tracer.span("step", |t| {
                let fill = lane.matcher.fill_span();
                t.span(fill, |_| {
                    lane.matcher.inner().fill_next_token_bitmask(&mut mask)
                });
                let Some(token) = t.span("engine.sample", |_| lane.llm.propose_constrained(&mask))
                else {
                    return true;
                };
                if !lane.accept(t, token) || Some(token) == vocab.eos() {
                    return true;
                }
                lane.emit(vocab, token);
                lane.tokens >= max_tokens || self.inject_forced(t, &mut lane)
            });
        }
        if let Matcher::Grammar(m) = &*lane.matcher {
            let stats = m.stats();
            self.counts.masks += stats.masks_generated;
            self.counts.ctx_checked += stats.context_dependent_checked;
            self.counts.cache_decided += stats.context_independent_hits;
        }
        lane.output
    }

    /// Injects the grammar-forced continuation token by token. Returns `true`
    /// once the lane has used up its token cap.
    fn inject_forced(&self, tracer: &mut Tracer, lane: &mut Lane<'_>) -> bool {
        let budget = lane.max_tokens.saturating_sub(lane.tokens);
        if budget == 0 {
            return true;
        }
        let forced = tracer.span("core.jump_forward", |_| {
            lane.matcher.inner().find_jump_forward_string()
        });
        if forced.is_empty() {
            return false;
        }
        let (cover, _) = tracer.span("tokenizer.prefix_cover", |_| {
            self.sorted.longest_prefix_cover(self.vocab, &forced)
        });
        for &token in cover.iter().take(budget) {
            if !lane.accept(tracer, token) {
                break;
            }
            lane.emit(self.vocab, token);
        }
        lane.tokens >= lane.max_tokens
    }

    /// One request: compile (or fetch) its constraint, then decode. Returns
    /// the output and the wall clock spent inside decode, measured the same
    /// way whether or not `tracer` records.
    fn request(&mut self, tracer: &mut Tracer, item: &Item, source: &Source) -> (Vec<u8>, f64) {
        tracer.span("request", |t| {
            let mut matcher = match source {
                Source::Catalog(_) => self.compile_catalog(t, item, source),
                _ => t.span("compile", |t| self.compile_grammar(t, item, source)),
            };
            let llm = self
                .llm
                .start_request(&item.request.reference, item.request.seed);
            let start = Instant::now();
            let output = t.span("decode", |t| {
                self.decode(t, &mut matcher, llm, item.request.max_tokens)
            });
            (output, start.elapsed().as_secs_f64())
        })
    }
}

/// Replays the head of `workload` and derives the per-layer metrics from the
/// recorded spans. For `trace.overhead_pct` every request is then decoded
/// twice more on warm caches, once recording into a throw-away tracer and
/// once with recording off, the order alternating from request to request:
/// pairing the two keeps a slow phase of the machine, and alternating keeps
/// whatever the first of a pair leaves in the caches, from landing on one
/// side only.
pub fn replay(
    workload: Workload,
    fixture: &Fixture,
    inputs: &Inputs,
    served: &[Option<Vec<u8>>],
) -> Replay {
    // In corpus order (`EngineRequest::seed` is the corpus index), so the
    // replayed set does not depend on the order `--seed` shuffled.
    let mut order: Vec<usize> = (0..inputs.items.len()).collect();
    order.sort_by_key(|&i| inputs.items[i].request.seed);
    if order.len() > REPLAYED_WHOLE {
        order.truncate(REPLAYED_REQUESTS);
    }
    let items: Vec<Item> = order.iter().map(|&i| inputs.items[i].clone()).collect();
    let items = items.as_slice();
    let mut driver = Driver {
        vocab: &fixture.vocab,
        sorted: SortedVocabulary::new(&fixture.vocab),
        llm: SimulatedLlm::new(Arc::clone(&fixture.vocab), fixture.llm_behavior()),
        backend: XGrammarBackend::new(Arc::clone(&fixture.vocab)),
        grammars: HashMap::new(),
        counts: Counts::default(),
    };

    let mut tracer = Tracer::new(true);
    let mut outputs = Vec::with_capacity(items.len());
    for (index, item) in items.iter().enumerate() {
        tracer.set_request(index as u64);
        let (output, _) = driver.request(&mut tracer, item, &inputs.sources[item.source]);
        outputs.push(output);
    }
    let counts = std::mem::take(&mut driver.counts);

    // Decode seconds with recording on and off.
    let mut decode_s = [0.0, 0.0];
    for (index, item) in items.iter().enumerate() {
        for side in [index % 2, (index + 1) % 2] {
            let mut tracer = Tracer::new(side == 0);
            decode_s[side] += driver
                .request(&mut tracer, item, &inputs.sources[item.source])
                .1;
        }
    }

    let mismatches = outputs
        .iter()
        .zip(&order)
        .filter(|(replayed, &i)| served[i].as_ref() != Some(replayed))
        .count() as u64;

    let us = |name: &str| tracer.durations_us(name);
    let sum_ms = |name: &str| us(name).iter().sum::<f64>() / 1e3;
    let p50 = |name: &'static str, span: &str, unit: &'static str, scale: f64| {
        let samples = us(span);
        Metric::single(name, unit, median_or_zero(&samples) / scale, samples.len())
    };
    let total = |name: &'static str, span: &str, unit: &'static str, scale: f64| {
        let samples = us(span);
        Metric::single(
            name,
            unit,
            samples.iter().sum::<f64>() / scale,
            samples.len(),
        )
    };
    let fills = us("core.fill_mask");
    let stage_ms: f64 = [
        "automata.build_pda",
        "tokenizer.sort_vocab",
        "automata.suffix_fsas",
        "core.mask_cache_build",
    ]
    .iter()
    .map(|s| sum_ms(s))
    .sum();
    let staged = us("compile.stages").len();
    let staged_compile_ms = counts.staged_whole_us / 1e3;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };

    let metrics = vec![
        total("grammar.convert_us", "grammar.convert", "us", 1.0),
        Metric::single("grammar.rules", "count", counts.rules as f64, staged),
        total("automata.build_pda_us", "automata.build_pda", "us", 1.0),
        total("automata.suffix_fsa_us", "automata.suffix_fsas", "us", 1.0),
        Metric::single(
            "automata.pda_nodes",
            "count",
            counts.pda_nodes as f64,
            staged,
        ),
        p50("tokenizer.sort_vocab_ms", "tokenizer.sort_vocab", "ms", 1e3),
        p50(
            "tokenizer.prefix_cover_us_p50",
            "tokenizer.prefix_cover",
            "us",
            1.0,
        ),
        total(
            "core.mask_cache_build_ms",
            "core.mask_cache_build",
            "ms",
            1e3,
        ),
        Metric::single("core.compile_ms", "ms", staged_compile_ms, staged),
        Metric::single(
            "core.compile_other_ms",
            "ms",
            staged_compile_ms - stage_ms,
            staged,
        ),
        Metric::single(
            "core.ctx_dependent_tokens",
            "count",
            counts.ctx_dependent_tokens as f64,
            staged,
        ),
        Metric::single(
            "core.ctx_checked_per_mask",
            "count",
            ratio(counts.ctx_checked, counts.masks),
            counts.masks as usize,
        ),
        Metric::single(
            "core.cache_decided_share",
            "ratio",
            ratio(
                counts.cache_decided,
                counts.cache_decided + counts.ctx_checked,
            ),
            counts.masks as usize,
        ),
        p50("core.fill_mask_us_p50", "core.fill_mask", "us", 1.0),
        Metric::single(
            "core.fill_mask_us_p90",
            "us",
            supported_quantile(&fills, 0.9).unwrap_or(0.0),
            fills.len(),
        ),
        p50("core.accept_token_us_p50", "core.accept_token", "us", 1.0),
        p50("core.jump_forward_us_p50", "core.jump_forward", "us", 1.0),
        p50(
            "core.cache_hit_lookup_us_p50",
            "core.cache_hit_lookup",
            "us",
            1.0,
        ),
        p50(
            "baselines.session_new_us_p50",
            "baselines.session_new",
            "us",
            1.0,
        ),
        Metric::single(
            "core.tag_compile_ms",
            "ms",
            us("core.tag_compile").first().map_or(0.0, |us| us / 1e3),
            us("core.tag_compile").len(),
        ),
        p50("core.tag_add_ms_p50", "core.tag_update.add", "ms", 1e3),
        p50(
            "core.tag_remove_ms_p50",
            "core.tag_update.remove",
            "ms",
            1e3,
        ),
        p50("core.tag_free_fill_us_p50", "core.tag_free_fill", "us", 1.0),
        p50(
            "core.tag_segment_fill_us_p50",
            "core.tag_segment_fill",
            "us",
            1.0,
        ),
        p50("engine.sample_us_p50", "engine.sample", "us", 1.0),
        Metric::single(
            "trace.overhead_pct",
            "%",
            100.0 * (decode_s[0] - decode_s[1]) / decode_s[1],
            tracer.spans().len(),
        ),
    ];
    Replay {
        metrics,
        trace: tracer.chrome_trace(workload.name()),
        mismatches,
    }
}
