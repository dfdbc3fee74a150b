//! Regenerates every table and figure of the paper's evaluation section.
//!
//! ```text
//! cargo run -p xg-bench --release --bin run_experiments -- [experiment] [--full]
//! ```
//!
//! `experiment` is one of `fig9`, `fig10`, `table1`, `table2`, `table3`,
//! `table4`, `fig11`, `fig12`, `stats`, `cache_serving`, `structural_tag`,
//! `engine_jump_forward`, `continuous_batching`, `schema_corpus`,
//! `grammar_lint`, `mask_throughput`, `dynamic_registry`, or `all` (default);
//! `--list` prints the available experiments and exits. `--full` uses the
//! 128k-token vocabulary and larger request counts (slower); `--quick` (the
//! default) uses a 32k vocabulary so the whole suite finishes in a few
//! minutes.

use std::sync::Arc;
use std::time::{Duration, Instant};

use xg_baselines::{ConstrainedBackend, XGrammarBackend};
use xg_bench::{
    ablation_backend, bench_vocabulary, measure_mask_generation, BackendKind, Workload,
};
use xg_core::{
    CacheBudget, CompilerConfig, GrammarCache, GrammarCompiler, GrammarMatcher, TokenBitmask,
};
use xg_core::{DispatchMode, StructuralTagMatcher};
use xg_engine::{
    run_accuracy_experiment, AccuracyTask, EngineRequest, ExecutionMode, LaneConstraint,
    LlmBehavior, ModelProfile, ServingEngine, SimulatedLlm,
};
use xg_tokenizer::{SortedVocabulary, Vocabulary};

struct Config {
    vocab_size: usize,
    fig9_references: usize,
    engine_requests: usize,
    accuracy_requests: usize,
    schema_corpus_cases: usize,
    time_scale: f64,
}

impl Config {
    fn quick() -> Config {
        Config {
            vocab_size: 32_000,
            fig9_references: 4,
            engine_requests: 4,
            accuracy_requests: 10,
            schema_corpus_cases: 204,
            time_scale: 0.05,
        }
    }

    fn full() -> Config {
        Config {
            vocab_size: 128_000,
            fig9_references: 10,
            engine_requests: 8,
            accuracy_requests: 50,
            schema_corpus_cases: 396,
            time_scale: 1.0,
        }
    }
}

fn fmt_us(d: Duration) -> String {
    format!("{:>10.1}", d.as_secs_f64() * 1e6)
}

fn fmt_ms(d: Duration) -> String {
    format!("{:>8.2}", d.as_secs_f64() * 1e3)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let config = if full {
        Config::full()
    } else {
        Config::quick()
    };
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".to_string());
    // Single source of truth for name validation, `--list` and dispatch.
    type Experiment = fn(&Arc<Vocabulary>, &Config);
    let experiments: [(&str, &str, Experiment); 17] = [
        (
            "stats",
            "preprocessing statistics for the JSON grammar (§3.1–§3.3)",
            |vocab, _| experiment_stats(vocab),
        ),
        ("fig9", "per-token mask generation latency", experiment_fig9),
        ("table3", "ablation study on CFG (JSON)", experiment_table3),
        ("fig10", "end-to-end TPOT vs batch size", experiment_fig10),
        ("table1", "TPOT across models", experiment_table1),
        (
            "table2",
            "TPOT with and without XGrammar",
            experiment_table2,
        ),
        ("table4", "syntactic accuracy", experiment_table4),
        ("fig11", "jump-forward decoding", experiment_fig11),
        ("fig12", "cross-platform TTFT/TPOT", experiment_fig12),
        (
            "cache_serving",
            "compiled-grammar cache hit rates, cold and warm (§5)",
            experiment_cache_serving,
        ),
        (
            "structural_tag",
            "tag dispatch: tool-call segments, jump-forward, trigger-scan throughput",
            experiment_structural_tag,
        ),
        (
            "engine_jump_forward",
            "jump-forward wired into the serving decode loop (differential, PASS-gated)",
            experiment_engine_jump_forward,
        ),
        (
            "continuous_batching",
            "request scheduler with mid-batch join/leave (differential, PASS-gated)",
            experiment_continuous_batching,
        ),
        (
            "schema_corpus",
            "JSON-Schema conformance corpus by converter feature (PASS-gated)",
            experiment_schema_corpus,
        ),
        (
            "grammar_lint",
            "static-analysis lint: pathological corpus, clean schemas, strict admission (PASS-gated)",
            experiment_grammar_lint,
        ),
        (
            "mask_throughput",
            "mask tokens/sec at 32k/128k/256k vocab, word kernels vs per-token serial (PASS-gated)",
            experiment_mask_throughput,
        ),
        (
            "dynamic_registry",
            "mutating tool registries: incremental dispatch updates, shared sub-grammar cache, bounded dispatch LRU (PASS-gated)",
            experiment_dynamic_registry,
        ),
    ];
    if args.iter().any(|a| a == "--list") {
        println!("available experiments:");
        println!("  {:<14} run every experiment below (default)", "all");
        for (name, description, _) in experiments {
            println!("  {name:<14} {description}");
        }
        return;
    }
    if which != "all" && !experiments.iter().any(|(name, _, _)| *name == which) {
        let names: Vec<&str> = std::iter::once("all")
            .chain(experiments.iter().map(|(name, _, _)| *name))
            .collect();
        eprintln!(
            "unknown experiment `{which}`; expected one of: {} (see --list)",
            names.join(", ")
        );
        std::process::exit(2);
    }

    println!("# XGrammar reproduction — experiment harness");
    println!(
        "vocabulary: {} tokens (synthetic Llama-3.1-like), mode: {}",
        config.vocab_size,
        if full { "full" } else { "quick" }
    );
    let vocab = bench_vocabulary(config.vocab_size);
    println!();

    for (name, _, experiment) in experiments {
        if which == "all" || which == name {
            experiment(&vocab, &config);
        }
    }
}

/// §3.1–§3.3 headline statistics for the JSON grammar.
fn experiment_stats(vocab: &Arc<Vocabulary>) {
    println!("## Preprocessing statistics (paper §3.1–§3.3, JSON grammar)");
    let compiler = GrammarCompiler::new(Arc::clone(vocab));
    let compiled = compiler.compile_builtin_json();
    let stats = compiled.stats();
    let sorted = compiled.sorted_vocabulary();
    println!("  automaton nodes                        : {}", stats.nodes);
    println!(
        "  context-dependent tokens (worst node)  : {} / {} ({:.2}%)",
        stats.max_context_dependent_per_node,
        stats.classified_tokens,
        100.0 * stats.max_context_dependent_per_node as f64 / stats.classified_tokens.max(1) as f64
    );
    println!(
        "  context-dependent before -> after context expansion (sum over nodes): {} -> {} ({:.0}% removed)",
        stats.context_dependent_before_expansion,
        stats.context_dependent_after_expansion,
        100.0 * stats.expansion_reduction()
    );
    println!(
        "  mask cache memory: adaptive {:.3} MB vs dense {:.3} MB ({:.2}% of dense)",
        stats.memory_bytes as f64 / 1e6,
        stats.dense_memory_bytes as f64 / 1e6,
        100.0 * stats.memory_ratio()
    );
    println!(
        "  preprocessing characters matched vs naive: {:.2}% (sorted-prefix rollback, §3.3)",
        100.0 * stats.preprocessing_check_fraction()
    );
    let pairs = stats.nodes * stats.classified_tokens;
    println!(
        "  tokens matched one by one: {} of {} (node, token) pairs ({:.2}%; the rest classified in runs)",
        stats.tokens_visited,
        pairs,
        100.0 * stats.tokens_visited as f64 / pairs.max(1) as f64
    );
    println!(
        "  vocabulary prefix-sharing fraction (chars to check): {:.0}%",
        100.0 * sorted.check_fraction()
    );
    println!(
        "  preprocessing wall-clock time: {:.1} ms",
        compiled.preprocessing_time().as_secs_f64() * 1e3
    );
    println!();
}

/// Figure 9: per-token mask generation latency.
fn experiment_fig9(vocab: &Arc<Vocabulary>, config: &Config) {
    println!("## Figure 9 — per-token mask generation latency (us/token)");
    println!(
        "{:<28} {:>11} {:>11} {:>11} {:>11}",
        "workload", "XGrammar", "Outlines", "llama.cpp", "lm-fmt-enf"
    );
    for workload in Workload::all() {
        let mut row = format!("{:<28}", workload.name());
        for kind in BackendKind::all() {
            let backend = kind.build(Arc::clone(vocab));
            let result = measure_mask_generation(&backend, workload, config.fig9_references, 40);
            match result {
                Some(m) => row.push_str(&format!(" {}", fmt_us(m.per_token))),
                None => row.push_str(&format!(" {:>10}", "unsupported")),
            }
        }
        println!("{row}");
    }
    println!();
}

/// Table 3: ablation of the optimization techniques on CFG (JSON).
fn experiment_table3(vocab: &Arc<Vocabulary>, config: &Config) {
    println!("## Table 3 — ablation study, per-token mask latency on CFG (JSON)");
    let mut previous: Option<Duration> = None;
    for step in 0..5 {
        let (name, backend) = ablation_backend(Arc::clone(vocab), step);
        let m = measure_mask_generation(&backend, Workload::CfgJson, config.fig9_references, 30)
            .expect("XGrammar handles every workload");
        let speedup = previous
            .map(|p| {
                format!(
                    "({:.1}x vs previous)",
                    p.as_secs_f64() / m.per_token.as_secs_f64().max(1e-9)
                )
            })
            .unwrap_or_default();
        println!(
            "  {:<30} {} us/token {}",
            name,
            fmt_us(m.per_token),
            speedup
        );
        previous = Some(m.per_token);
    }
    println!();
}

fn schema_requests(count: usize) -> Vec<EngineRequest> {
    xg_datasets::json_mode_eval_like(count, 0xE2E)
        .into_iter()
        .enumerate()
        .map(|(i, t)| EngineRequest {
            constraint: LaneConstraint::Grammar(
                xg_grammar::json_schema_to_grammar(&t.schema).expect("schema converts"),
            ),
            prompt_tokens: 139,
            reference: t.reference,
            max_tokens: 120,
            seed: i as u64,
        })
        .collect()
}

fn cfg_requests(count: usize) -> Vec<EngineRequest> {
    xg_datasets::json_documents(count, 0xE2E)
        .into_iter()
        .enumerate()
        .map(|(i, t)| EngineRequest {
            constraint: LaneConstraint::Grammar(xg_grammar::builtin::json_grammar()),
            prompt_tokens: 139,
            reference: t.reference,
            max_tokens: 160,
            seed: i as u64,
        })
        .collect()
}

/// Figure 10: end-to-end TPOT vs batch size for different engines.
fn experiment_fig10(vocab: &Arc<Vocabulary>, config: &Config) {
    println!("## Figure 10 — end-to-end TPOT (ms) vs batch size, Llama-3.1-8B profile");
    let profile = ModelProfile::llama31_8b_h100().scaled(config.time_scale);
    println!(
        "  (simulated GPU, time scale {}; compare engines within a column)",
        config.time_scale
    );
    for (task_name, base_requests) in [
        ("JSON Schema", schema_requests(config.engine_requests)),
        ("CFG (JSON)", cfg_requests(config.engine_requests)),
    ] {
        println!("  {task_name}:");
        println!(
            "    {:<28} {:>10} {:>10} {:>10}",
            "engine", "batch=1", "batch=8", "batch=16"
        );
        let engines: Vec<(&str, Arc<dyn ConstrainedBackend>, ExecutionMode)> = vec![
            (
                "llama.cpp (serial)",
                Arc::new(xg_baselines::NaivePdaBackend::new(Arc::clone(vocab))),
                ExecutionMode::Serial,
            ),
            (
                "vLLM w/ Outlines (serial)",
                Arc::new(xg_baselines::FsmIndexBackend::with_limits(
                    Arc::clone(vocab),
                    6,
                    400_000,
                )),
                ExecutionMode::Serial,
            ),
            (
                "SGLang w/ XGrammar",
                Arc::new(XGrammarBackend::new(Arc::clone(vocab))),
                ExecutionMode::Overlapped,
            ),
            (
                "XGrammar Engine",
                Arc::new(XGrammarBackend::new(Arc::clone(vocab))),
                ExecutionMode::Overlapped,
            ),
        ];
        for (name, backend, mode) in engines {
            let mut row = format!("    {:<28}", name);
            for batch in [1usize, 8, 16] {
                let mut requests = Vec::new();
                while requests.len() < batch {
                    requests.extend(base_requests.iter().cloned());
                }
                requests.truncate(batch);
                let engine = ServingEngine::new(Arc::clone(&backend), profile.clone(), mode);
                match engine.run_batch(&requests) {
                    Ok((_, metrics)) => row.push_str(&format!(" {}", fmt_ms(metrics.tpot))),
                    Err(_) => row.push_str(&format!(" {:>8}", "unsup.")),
                }
            }
            println!("{row}");
        }
    }
    println!();
}

/// Table 1: TPOT across models (SGLang + Outlines vs SGLang + XGrammar).
fn experiment_table1(vocab: &Arc<Vocabulary>, config: &Config) {
    println!("## Table 1 — TPOT (ms) across models on the JSON Schema task");
    let requests = schema_requests(config.engine_requests.max(4));
    for profile in [
        ModelProfile::llama31_8b_h100().scaled(config.time_scale),
        ModelProfile::deepseek_v2_lite_h100().scaled(config.time_scale),
    ] {
        let outlines: Arc<dyn ConstrainedBackend> = Arc::new(
            xg_baselines::FsmIndexBackend::with_limits(Arc::clone(vocab), 6, 400_000),
        );
        let xgrammar: Arc<dyn ConstrainedBackend> =
            Arc::new(XGrammarBackend::new(Arc::clone(vocab)));
        let tpot_outlines = ServingEngine::new(outlines, profile.clone(), ExecutionMode::Serial)
            .run_batch(&requests)
            .map(|(_, m)| m.tpot)
            .unwrap_or(Duration::ZERO);
        let tpot_xgrammar =
            ServingEngine::new(xgrammar, profile.clone(), ExecutionMode::Overlapped)
                .run_batch(&requests)
                .expect("xgrammar backend always compiles")
                .1
                .tpot;
        println!(
            "  {:<38} SGLang+Outlines {} ms   SGLang+XGrammar {} ms",
            profile.name,
            fmt_ms(tpot_outlines),
            fmt_ms(tpot_xgrammar)
        );
    }
    println!();
}

/// Table 2: TPOT with and without XGrammar on the MLC-LLM-style engine.
fn experiment_table2(vocab: &Arc<Vocabulary>, config: &Config) {
    println!("## Table 2 — TPOT (ms) with and without XGrammar (overlapped engine)");
    let profile = ModelProfile::llama31_8b_h100().scaled(config.time_scale);
    let backend: Arc<dyn ConstrainedBackend> = Arc::new(XGrammarBackend::new(Arc::clone(vocab)));
    for (task, requests) in [
        ("JSON Schema", schema_requests(config.engine_requests)),
        ("CFG (JSON)", cfg_requests(config.engine_requests)),
    ] {
        for batch in [1usize, 8] {
            let mut batch_requests = Vec::new();
            while batch_requests.len() < batch {
                batch_requests.extend(requests.iter().cloned());
            }
            batch_requests.truncate(batch);
            let unconstrained: Vec<EngineRequest> = batch_requests
                .iter()
                .cloned()
                .map(|mut r| {
                    r.constraint = LaneConstraint::Unconstrained;
                    r
                })
                .collect();
            let engine = ServingEngine::new(
                Arc::clone(&backend),
                profile.clone(),
                ExecutionMode::Overlapped,
            );
            let without = engine.run_batch(&unconstrained).expect("runs").1.tpot;
            let with = engine.run_batch(&batch_requests).expect("runs").1.tpot;
            println!(
                "  {:<14} batch {:>2}: TPOT w/o XGrammar {} ms   w/ XGrammar {} ms",
                task,
                batch,
                fmt_ms(without),
                fmt_ms(with)
            );
        }
    }
    println!();
}

/// Table 4: syntactic accuracy with and without constrained decoding.
fn experiment_table4(vocab: &Arc<Vocabulary>, config: &Config) {
    println!("## Table 4 — syntactic accuracy of structured generation tasks");
    for (name, task) in [
        (
            "Function calling (JSON Schema)",
            AccuracyTask::FunctionCalling,
        ),
        ("XML code generation", AccuracyTask::XmlGeneration),
    ] {
        let result = run_accuracy_experiment(
            Arc::clone(vocab),
            task,
            config.accuracy_requests,
            LlmBehavior::default(),
        );
        println!(
            "  {:<32} accuracy w/o XGrammar {:>5.0}%   w/ XGrammar {:>5.0}%",
            name,
            100.0 * result.unconstrained_accuracy(),
            100.0 * result.constrained_accuracy()
        );
    }
    println!();
}

/// Figure 11: jump-forward decoding combined with constrained decoding.
fn experiment_fig11(vocab: &Arc<Vocabulary>, config: &Config) {
    println!("## Figure 11 — time per output token (ms) with and without jump-forward decoding");
    let profile = ModelProfile::llama31_8b_h100().scaled(config.time_scale);
    let tasks = xg_datasets::json_mode_eval_like(config.engine_requests.max(4), 0x11F);
    let compiler = GrammarCompiler::new(Arc::clone(vocab));
    let llm = SimulatedLlm::new(
        Arc::clone(vocab),
        LlmBehavior {
            prose_probability: 0.0,
            type_error_probability: 0.0,
            seed: 0,
        },
    );

    for (label, use_jump_forward) in [("w/o jump-forward", false), ("w/ jump-forward", true)] {
        let mut total_time = Duration::ZERO;
        let mut total_sampled = 0usize;
        let mut total_output_tokens = 0usize;
        for (i, task) in tasks.iter().enumerate() {
            let compiled = compiler
                .compile_json_schema(&task.schema)
                .expect("schema converts");
            let mut matcher = GrammarMatcher::new(compiled);
            let mut state = llm.start_request(&task.reference, i as u64);
            let mut mask = TokenBitmask::new_all_rejected(vocab.len());
            let start = Instant::now();
            let mut sampled = 0usize;
            let mut output_tokens = 0usize;
            while sampled < 200 {
                if use_jump_forward {
                    let jump = matcher.find_jump_forward_string();
                    if !jump.is_empty() && matcher.accept_bytes(&jump).is_ok() {
                        state.advance_bytes(&jump);
                        // The jumped text still counts as output tokens but
                        // needs no GPU decoding step.
                        output_tokens += jump.len().div_ceil(4).max(1);
                    }
                }
                matcher.fill_next_token_bitmask(&mut mask);
                let Some(token) = state.propose_constrained(&mask) else {
                    break;
                };
                // Each sampled token pays one simulated GPU decoding step.
                std::thread::sleep(profile.decode_step_time(1));
                sampled += 1;
                output_tokens += 1;
                if Some(token) == vocab.eos() {
                    break;
                }
                if matcher.accept_token(token).is_err() {
                    break;
                }
                state.advance(token);
            }
            total_time += start.elapsed();
            total_sampled += sampled;
            total_output_tokens += output_tokens.max(1);
        }
        println!(
            "  XGrammar {:<18}: {:.2} ms per output token ({} sampled of {} output tokens)",
            label,
            total_time.as_secs_f64() * 1e3 / total_output_tokens as f64,
            total_sampled,
            total_output_tokens
        );
    }
    println!();
}

/// Serving concurrency layer (§5): the shared compiled-grammar cache on a
/// large batch, cold then warm.
fn experiment_cache_serving(vocab: &Arc<Vocabulary>, config: &Config) {
    println!("## Cache serving — compiled-grammar cache hit rates");
    let batch = 32.max(config.engine_requests);
    let profile = ModelProfile::llama31_8b_h100().scaled(config.time_scale);

    let requests = schema_requests(batch);
    let cache = Arc::new(GrammarCache::new(CacheBudget::for_grammars()));
    let backend: Arc<dyn ConstrainedBackend> = Arc::new(XGrammarBackend::with_cache(
        Arc::clone(vocab),
        CompilerConfig::default(),
        Arc::clone(&cache),
    ));
    let engine = ServingEngine::new(backend, profile, ExecutionMode::Serial);
    println!("  XGrammar engine, batch of {batch} requests over 5 schema families:");
    for label in ["cold cache", "warm cache"] {
        let (_, metrics) = engine.run_batch(&requests).expect("schemas compile");
        println!(
            "    {:<10} hit rate {:>3.0}% ({} hits / {} misses), {} cached grammars, {:.2} MB",
            label,
            100.0 * metrics.cache.hit_rate(),
            metrics.cache.hits,
            metrics.cache.misses,
            metrics.cache.entries,
            metrics.cache.current_bytes as f64 / 1e6,
        );
    }
    println!();
}

/// Counters of one matcher-level decode pass over the tool-call transcripts.
#[derive(Debug, Default)]
struct TagDecodeSummary {
    free_mask_time: Duration,
    tag_mask_time: Duration,
    free_steps: u64,
    tag_steps: u64,
    sampled_tokens: u64,
    jump_bytes: u64,
    jump_events: u64,
    segments_checked: usize,
    segments_conformant: usize,
    tokens_conformant: bool,
}

/// Decodes every task transcript through a [`StructuralTagMatcher`],
/// optionally jumping forward over forced bytes inside tagged segments, and
/// checks segment/token conformance against the standalone sub-grammars.
fn decode_tool_call_tasks(
    vocab: &Arc<Vocabulary>,
    compiler: &GrammarCompiler,
    llm: &SimulatedLlm,
    tasks: &[xg_datasets::ToolCallTask],
    use_jump_forward: bool,
) -> TagDecodeSummary {
    let mut summary = TagDecodeSummary {
        tokens_conformant: true,
        ..Default::default()
    };
    let mut mask = TokenBitmask::new_all_rejected(vocab.len());
    for (i, task) in tasks.iter().enumerate() {
        let tag = task.structural_tag();
        let compiled = compiler
            .compile_tag_dispatch(&tag)
            .expect("task tags compile");
        let mut matcher = StructuralTagMatcher::new(Arc::clone(&compiled));
        let mut state = llm.start_request(&task.reference, i as u64);
        let mut output = Vec::new();
        for _ in 0..600 {
            if use_jump_forward {
                // Forced bytes inside a tagged segment (begin-tag remainder,
                // schema punctuation and keys, the end tag) need no GPU step.
                let jump = matcher.find_jump_forward_string();
                if !jump.is_empty() && matcher.accept_bytes(&jump).is_ok() {
                    state.advance_bytes(&jump);
                    output.extend_from_slice(&jump);
                    summary.jump_bytes += jump.len() as u64;
                    summary.jump_events += 1;
                }
            }
            let mode = matcher.mode();
            let start = Instant::now();
            matcher.fill_next_token_bitmask(&mut mask);
            let elapsed = start.elapsed();
            match mode {
                DispatchMode::FreeText => {
                    summary.free_mask_time += elapsed;
                    summary.free_steps += 1;
                }
                DispatchMode::Tagged { .. } => {
                    summary.tag_mask_time += elapsed;
                    summary.tag_steps += 1;
                }
            }
            let Some(token) = state.propose_constrained(&mask) else {
                break;
            };
            summary.sampled_tokens += 1;
            // Token-by-token conformance: the sampled token must have been
            // allowed by the mask of the current mode.
            if !mask.is_allowed(token) {
                summary.tokens_conformant = false;
            }
            if Some(token) == vocab.eos() {
                matcher.accept_token(token).expect("EOS in free text");
                break;
            }
            if matcher.accept_token(token).is_err() {
                summary.tokens_conformant = false;
                break;
            }
            output.extend_from_slice(vocab.token_bytes(token));
            state.advance(token);
        }
        // Tag-segment conformance: every emitted segment must match its
        // function's standalone sub-grammar (schema + name + end tag).
        let text = String::from_utf8_lossy(&output).to_string();
        for segment in text.split(xg_datasets::TOOL_CALL_TRIGGER).skip(1) {
            summary.segments_checked += 1;
            let Some((name, rest)) = segment.split_once('>') else {
                continue;
            };
            // A segment with no closing tag (output truncated mid-call)
            // counts as checked but not conformant.
            let Some((payload, _)) = rest.split_once(xg_datasets::TOOL_CALL_END) else {
                continue;
            };
            let schema = task
                .functions
                .iter()
                .find(|f| f.name == name)
                .map(|f| &f.schema);
            let ok = schema.is_some_and(|schema| {
                let grammar = xg_grammar::json_schema_to_grammar(schema).expect("schema converts");
                let mut standalone = GrammarMatcher::new(compiler.compile_grammar(&grammar));
                standalone.accept_bytes(payload.as_bytes()).is_ok() && standalone.can_terminate()
            });
            summary.segments_conformant += usize::from(ok);
        }
    }
    summary
}

/// Structural tags: a mixed prose/tool-call batch through the serving
/// engine, plus a direct matcher-level study of free-text passthrough
/// overhead, tag-segment conformance, jump-forward savings inside tagged
/// segments, trigger-scan throughput, and rollback across tag boundaries.
fn experiment_structural_tag(vocab: &Arc<Vocabulary>, config: &Config) {
    println!("## Structural tags — tag dispatch for agentic tool calling");
    let count = config.engine_requests.max(4);
    let tasks = xg_datasets::tool_call_tasks(count, 0x7A9);
    let compiler = GrammarCompiler::new(Arc::clone(vocab));
    let llm = SimulatedLlm::new(
        Arc::clone(vocab),
        LlmBehavior {
            prose_probability: 0.0,
            type_error_probability: 0.0,
            seed: 0,
        },
    );

    // ---- Part 1: matcher-level decode over the mixed transcripts. ----
    let base = decode_tool_call_tasks(vocab, &compiler, &llm, &tasks, false);
    println!(
        "  free-text steps : {:>6}  avg mask fill {:>8.0} ns (all-allowed passthrough)",
        base.free_steps,
        base.free_mask_time.as_nanos() as f64 / base.free_steps.max(1) as f64
    );
    println!(
        "  tagged steps    : {:>6}  avg mask fill {:>8.0} ns (constrained decode)",
        base.tag_steps,
        base.tag_mask_time.as_nanos() as f64 / base.tag_steps.max(1) as f64
    );
    println!(
        "  tool-call segments conformant to their sub-grammar: {}/{}",
        base.segments_conformant, base.segments_checked
    );
    println!(
        "  token-by-token mask conformance: {}",
        if base.tokens_conformant {
            "PASS"
        } else {
            "FAIL"
        }
    );

    // ---- Part 2: jump-forward decoding inside tagged segments. ----
    let jumped = decode_tool_call_tasks(vocab, &compiler, &llm, &tasks, true);
    let saved_tokens = base.sampled_tokens.saturating_sub(jumped.sampled_tokens);
    println!(
        "  jump-forward in tagged segments: {} chars over {} jumps, {} -> {} sampled tokens ({} saved, {})",
        jumped.jump_bytes,
        jumped.jump_events,
        base.sampled_tokens,
        jumped.sampled_tokens,
        saved_tokens,
        if jumped.jump_bytes > 0
            && jumped.segments_conformant == jumped.segments_checked
            && jumped.tokens_conformant
        {
            "PASS"
        } else {
            "FAIL"
        }
    );

    // ---- Part 3: trigger-scan throughput on a 120-trigger catalog. ----
    let (catalog, transcript) = xg_bench::trigger_scan_fixture(120, 1 << 19);
    let naive = xg_automata::NaiveMultiPattern::new(&catalog);
    let ac = xg_automata::AhoCorasick::new(&catalog);
    let start = Instant::now();
    let naive_matches = naive.find_all(&transcript);
    let naive_time = start.elapsed();
    let start = Instant::now();
    let ac_matches = ac.find_all(&transcript);
    let ac_time = start.elapsed();
    assert_eq!(naive_matches, ac_matches, "scanners must agree");
    let mb = transcript.len() as f64 / 1e6;
    println!(
        "  trigger scan, {} triggers over {:.1} MB ({} matches): naive {:>7.1} MB/s vs aho-corasick {:>7.1} MB/s ({:.1}x)",
        catalog.len(),
        mb,
        ac_matches.len(),
        mb / naive_time.as_secs_f64().max(1e-9),
        mb / ac_time.as_secs_f64().max(1e-9),
        naive_time.as_secs_f64() / ac_time.as_secs_f64().max(1e-9)
    );

    // ---- Part 4: rollback across a tag boundary. ----
    let task = &tasks[0];
    let compiled = compiler
        .compile_tag_dispatch(&task.structural_tag())
        .expect("task tags compile");
    let mut matcher = StructuralTagMatcher::new(compiled);
    let mut mask = TokenBitmask::new_all_rejected(vocab.len());
    let mut pre_tag_mask = TokenBitmask::new_all_rejected(vocab.len());
    matcher.accept_bytes(b"prose before the call").unwrap();
    matcher.fill_next_token_bitmask(&mut pre_tag_mask);
    let begin = task.functions[0].begin_tag();
    matcher.accept_bytes(begin.as_bytes()).unwrap(); // unit 2: opens the tag
    matcher.accept_bytes(b"{").unwrap(); // unit 3: inside the segment
    let in_tag = matches!(matcher.mode(), DispatchMode::Tagged { .. });
    matcher.rollback(2).unwrap(); // back across the boundary
    matcher.fill_next_token_bitmask(&mut mask);
    let restored = matcher.mode() == DispatchMode::FreeText && mask == pre_tag_mask;
    println!(
        "  rollback across tag boundary restores pre-tag state: {}",
        if in_tag && restored { "PASS" } else { "FAIL" }
    );

    // ---- Part 5: the serving engine on a mixed prose/tool-call batch. ----
    let profile = ModelProfile::llama31_8b_h100().scaled(config.time_scale);
    let requests: Vec<EngineRequest> = tasks
        .iter()
        .enumerate()
        .map(|(i, t)| EngineRequest {
            constraint: LaneConstraint::StructuralTag(t.structural_tag()),
            prompt_tokens: 139,
            reference: t.reference.clone(),
            max_tokens: 400,
            seed: i as u64,
        })
        .collect();
    let fully_constrained = schema_requests(count);
    let backend: Arc<dyn ConstrainedBackend> = Arc::new(XGrammarBackend::new(Arc::clone(vocab)));
    let engine = ServingEngine::new(backend, profile, ExecutionMode::Overlapped);
    let (results, tag_metrics) = engine.run_batch(&requests).expect("tag batch runs");
    let (_, constrained_metrics) = engine
        .run_batch(&fully_constrained)
        .expect("constrained batch runs");
    let completed = results.iter().filter(|r| r.completed).count();
    println!(
        "  engine batch of {count} mixed lanes: {completed}/{count} completed, TPOT {} ms, mask time {} ms",
        fmt_ms(tag_metrics.tpot),
        fmt_ms(tag_metrics.mask_time)
    );
    println!(
        "  fully-constrained JSON-schema batch for comparison: TPOT {} ms, mask time {} ms",
        fmt_ms(constrained_metrics.tpot),
        fmt_ms(constrained_metrics.mask_time)
    );
    println!();
}

/// Engine-level jump-forward (the serving-loop version of Figure 11): a
/// schema-heavy batch plus a mixed prose/tool-call batch run under both
/// [`xg_engine::JumpForwardPolicy`] variants, with a differential PASS gate —
/// byte-identical per-lane outputs and at least 10% fewer sampled tokens
/// than the `Off` path on the schema-heavy batch.
fn experiment_engine_jump_forward(vocab: &Arc<Vocabulary>, config: &Config) {
    use xg_engine::JumpForwardPolicy;

    println!("## Engine jump-forward — forced tokens injected in the serving decode loop");
    let profile = ModelProfile::llama31_8b_h100().scaled(config.time_scale);
    let count = config.engine_requests.max(4);
    let backend: Arc<dyn ConstrainedBackend> = Arc::new(XGrammarBackend::new(Arc::clone(vocab)));
    let run = |requests: &[EngineRequest], policy: JumpForwardPolicy| {
        ServingEngine::new(
            Arc::clone(&backend),
            profile.clone(),
            ExecutionMode::Overlapped,
        )
        .with_jump_forward(policy)
        .run_batch(requests)
        .expect("batch runs")
    };

    // ---- Schema-heavy batch: long forced keys, the paper's Fig. 11 case. ----
    let requests = schema_requests(count);
    // Warm the compiled-grammar cache so the first policy row is not charged
    // for compilation the later rows get for free.
    let _ = run(&requests, JumpForwardPolicy::Off);
    let policies = [
        ("Off", JumpForwardPolicy::Off),
        ("Engine", JumpForwardPolicy::Engine),
    ];
    let mut outcomes = Vec::new();
    println!("  schema-heavy batch of {count} lanes:");
    for (label, policy) in policies {
        let (results, metrics) = run(&requests, policy);
        // Figure 11's y axis: wall clock per *output* token — forced text is
        // output too, it just skips the GPU step.
        let output_tokens = metrics.total_tokens + metrics.jump_forward_tokens;
        println!(
            "    {:<8} {:>5} sampled + {:>4} forced tokens ({:>4} forced chars), \
             total {} ms, TPOT(sampled) {} ms, {:.3} ms/output-token",
            label,
            metrics.total_tokens,
            metrics.jump_forward_tokens,
            metrics.jump_forward_chars,
            fmt_ms(metrics.total_time),
            fmt_ms(metrics.tpot),
            metrics.total_time.as_secs_f64() * 1e3 / output_tokens.max(1) as f64,
        );
        outcomes.push((results, metrics));
    }
    let (off_results, off_metrics) = &outcomes[0];
    let (engine_results, engine_metrics) = &outcomes[1];
    let parity = engine_results
        .iter()
        .zip(off_results)
        .all(|(a, b)| a.output == b.output);
    let saved = off_metrics
        .total_tokens
        .saturating_sub(engine_metrics.total_tokens);
    let reduction = saved as f64 / off_metrics.total_tokens.max(1) as f64;
    println!(
        "    sampled-token reduction vs Off: {saved} of {} ({:.1}%)",
        off_metrics.total_tokens,
        100.0 * reduction
    );

    // ---- Mixed prose/tool-call batch: forced text inside tagged segments. ----
    let tool_requests: Vec<EngineRequest> = xg_datasets::tool_call_tasks(count, 0x7A9)
        .iter()
        .enumerate()
        .map(|(i, t)| EngineRequest {
            constraint: LaneConstraint::StructuralTag(t.structural_tag()),
            prompt_tokens: 139,
            reference: t.reference.clone(),
            max_tokens: 400,
            seed: i as u64,
        })
        .collect();
    let _ = run(&tool_requests, JumpForwardPolicy::Off); // cache warmup
    let (mixed_off, mixed_off_metrics) = run(&tool_requests, JumpForwardPolicy::Off);
    let (mixed_engine, mixed_engine_metrics) = run(&tool_requests, JumpForwardPolicy::Engine);
    let mixed_parity = mixed_off
        .iter()
        .zip(&mixed_engine)
        .all(|(a, b)| a.output == b.output);
    println!(
        "  mixed tool-call batch of {count} lanes: {} -> {} sampled tokens ({} forced), parity {}",
        mixed_off_metrics.total_tokens,
        mixed_engine_metrics.total_tokens,
        mixed_engine_metrics.jump_forward_tokens,
        if mixed_parity { "ok" } else { "BROKEN" }
    );

    // ---- The differential gate enforced by CI. ----
    let pass = parity
        && mixed_parity
        && engine_metrics.jump_forward_tokens > 0
        && reduction >= 0.10
        && engine_results
            .iter()
            .all(|r| r.tokens + r.jump_forward_tokens > 0);
    println!(
        "  jump-forward differential (byte-identical outputs, >=10% fewer sampled tokens): {}",
        if pass { "PASS" } else { "FAIL" }
    );
    println!();
}

/// The continuous-batching serving core: requests join a running batch
/// mid-decode, grammars compile off the hot path on admission workers, and
/// mask generation overlaps the simulated GPU phase. Two PASS gates guard
/// it: `run_batch` (a thin wrapper over the scheduler) serves every lane
/// exactly its single-lane reference decode, and a late-arriving request
/// whose grammar is already cached reaches its first token faster than a
/// fixed-membership batch could give it one (whole-batch prefill + one
/// decode step).
fn experiment_continuous_batching(vocab: &Arc<Vocabulary>, config: &Config) {
    use xg_engine::SchedulerConfig;

    println!("## Continuous batching — scheduler with mid-batch join/leave");
    let profile = ModelProfile::llama31_8b_h100().scaled(config.time_scale);
    let backend: Arc<dyn ConstrainedBackend> = Arc::new(XGrammarBackend::new(Arc::clone(vocab)));
    let engine = ServingEngine::new(
        Arc::clone(&backend),
        profile.clone(),
        ExecutionMode::Overlapped,
    );

    // ---- Part 1: differential parity with the reference decode. ----
    let count = config.engine_requests.max(8);
    let requests = schema_requests(count);
    // One lane at a time on this thread (which also warms the grammar cache).
    let reference: Vec<_> = requests
        .iter()
        .map(|r| engine.decode_reference(r).expect("reference decode"))
        .collect();
    let (scheduled, sched_metrics) = engine.run_batch(&requests).expect("scheduled batch");
    let parity = reference.iter().zip(&scheduled).all(|(a, b)| {
        (&a.output, a.tokens, a.jump_forward_tokens, a.completed)
            == (&b.output, b.tokens, b.jump_forward_tokens, b.completed)
    });
    println!(
        "  {count}-lane schema batch: scheduler {} ms, {} sampled + {} forced tokens, \
         parity with the reference decode {}",
        fmt_ms(sched_metrics.total_time),
        sched_metrics.total_tokens,
        sched_metrics.jump_forward_tokens,
        if parity { "ok" } else { "BROKEN" }
    );

    // ---- Part 2: a late join on a warm grammar cache beats the ----
    // ---- fixed-batch TTFT bound.                                ----
    let mut late = requests[0].clone();
    late.seed = 0xFEED;
    let mut cohort_plus_late = requests.clone();
    cohort_plus_late.push(late.clone());
    // What a fixed-membership batch owes every lane before its first token,
    // compile already cached: prefill of the whole batch, one decode step.
    let batch_prompt_tokens: usize = cohort_plus_late.iter().map(|r| r.prompt_tokens).sum();
    let bound = profile.prefill_time(batch_prompt_tokens)
        + profile.decode_step_time(cohort_plus_late.len());

    let scheduler = engine.serve(SchedulerConfig {
        max_lanes: cohort_plus_late.len(),
        queue_capacity: cohort_plus_late.len(),
        admission_workers: 2,
        mask_workers: 0, // auto
    });
    let cohort: Vec<_> = requests
        .iter()
        .map(|r| scheduler.submit(r.clone()).expect("submit"))
        .collect();
    // Let the cohort prefill and start decoding, then arrive late.
    std::thread::sleep(bound);
    let late_handle = scheduler.submit(late).expect("submit late");
    let late_finished = late_handle.wait().expect("late lane finishes");
    let mut cohort_ttft = Duration::ZERO;
    let mut cohort_tpot = Duration::ZERO;
    for handle in cohort {
        let finished = handle.wait().expect("cohort lane finishes");
        cohort_ttft += finished.timing.ttft;
        cohort_tpot += finished.timing.tpot;
    }
    let sched_stats = scheduler.metrics();
    scheduler.shutdown();
    println!(
        "  cohort of {count}: mean TTFT {} ms, mean TPOT {} ms",
        fmt_ms(cohort_ttft / count as u32),
        fmt_ms(cohort_tpot / count as u32),
    );
    println!(
        "  late join (cached grammar, cache hit: {}): TTFT {} ms vs fixed-batch bound {} ms",
        late_finished.timing.cache_hit,
        fmt_ms(late_finished.timing.ttft),
        fmt_ms(bound),
    );
    let late_pass = late_finished.timing.cache_hit && late_finished.timing.ttft < bound;
    let _ = sched_stats;

    // ---- Part 3: steady state at 256 concurrent lanes. ----
    let lanes = 256usize;
    let schema_family = xg_datasets::json_mode_eval_like(4, 0xE2E);
    let wave: Vec<EngineRequest> = (0..lanes)
        .map(|i| {
            if i % 4 == 0 {
                let task = &schema_family[(i / 4) % schema_family.len()];
                EngineRequest {
                    constraint: LaneConstraint::Grammar(
                        xg_grammar::json_schema_to_grammar(&task.schema).expect("schema converts"),
                    ),
                    prompt_tokens: 64,
                    reference: task.reference.clone(),
                    max_tokens: 300,
                    seed: i as u64,
                }
            } else {
                EngineRequest {
                    constraint: LaneConstraint::Unconstrained,
                    prompt_tokens: 32,
                    reference: format!("prose lane {i}: short unconstrained filler text.")
                        .into_bytes(),
                    max_tokens: 80,
                    seed: i as u64,
                }
            }
        })
        .collect();
    let scheduler = engine.serve(SchedulerConfig {
        max_lanes: lanes,
        queue_capacity: lanes,
        admission_workers: 2,
        mask_workers: 0, // auto
    });
    let handles: Vec<_> = wave
        .iter()
        .map(|r| scheduler.submit(r.clone()).expect("submit"))
        .collect();
    let mut wave_ttft = Duration::ZERO;
    let mut wave_tpot = Duration::ZERO;
    for handle in handles {
        let finished = handle.wait().expect("wave lane finishes");
        wave_ttft += finished.timing.ttft;
        wave_tpot += finished.timing.tpot;
    }
    let wave_stats = scheduler.metrics();
    scheduler.shutdown();
    println!(
        "  {lanes}-lane wave: {} lanes concurrent at peak, queue depth mean {:.1} / max {}, \
         mean TTFT {} ms, mean TPOT {} ms",
        wave_stats.max_concurrent_lanes,
        wave_stats.mean_queue_depth,
        wave_stats.max_queue_depth,
        fmt_ms(wave_ttft / lanes as u32),
        fmt_ms(wave_tpot / lanes as u32),
    );
    println!(
        "    steady-state throughput {:.0} tok/s over {} decode steps, \
         {} mask workers at {:.0}% utilization, {} cache hits / {} misses",
        wave_stats.throughput(),
        wave_stats.decode_steps,
        wave_stats.mask_workers,
        100.0 * wave_stats.mask_worker_utilization(),
        wave_stats.cache.hits,
        wave_stats.cache.misses,
    );

    // ---- The differential gates enforced by CI. ----
    println!(
        "  continuous-batching differential (byte-identical outputs, \
         late cached join TTFT under the fixed-batch bound): {}",
        if parity && late_pass && wave_stats.failed == 0 {
            "PASS"
        } else {
            "FAIL"
        }
    );
    println!();
}

/// JSON-Schema conformance corpus (PASS-gated): the generated per-feature
/// schema corpus from `xg_datasets::schema_corpus` is compiled through the
/// full `GrammarCompiler` pipeline, every known-valid instance is driven
/// token by token through mask generation (each token must be admitted by a
/// freshly generated mask and the final state must admit EOS), and every
/// known-invalid instance must be rejected. Reports per-feature compile
/// time, mask-fill time, and conformance counts.
fn experiment_schema_corpus(vocab: &Arc<Vocabulary>, config: &Config) {
    use std::collections::BTreeMap;

    println!("## Schema corpus — JSON-Schema conformance by converter feature");
    let cases = xg_datasets::schema_corpus(config.schema_corpus_cases, 0x5C0);
    let compiler = GrammarCompiler::new(Arc::clone(vocab));
    let sorted = SortedVocabulary::new(vocab);
    let eos = vocab.eos().expect("synthetic vocabulary has EOS");
    let mut mask = TokenBitmask::new_all_rejected(vocab.len());

    #[derive(Default)]
    struct FeatureStats {
        schemas: usize,
        compile_time: Duration,
        mask_time: Duration,
        mask_fills: u64,
        valid_pass: usize,
        valid_total: usize,
        invalid_pass: usize,
        invalid_total: usize,
    }
    let mut by_feature: BTreeMap<&'static str, FeatureStats> = BTreeMap::new();

    for case in &cases {
        let stats = by_feature.entry(case.feature).or_default();
        stats.schemas += 1;
        let start = Instant::now();
        let compiled = compiler
            .compile_json_schema(&case.schema)
            .expect("corpus schemas compile in strict mode");
        stats.compile_time += start.elapsed();

        // Valid instances: every token admitted by its mask, EOS at the end.
        for instance in &case.valid {
            stats.valid_total += 1;
            let bytes = instance.as_bytes();
            let (tokens, covered) = sorted.longest_prefix_cover(vocab, bytes);
            let mut matcher = GrammarMatcher::new(Arc::clone(&compiled));
            let mut ok = covered == bytes.len();
            for &token in &tokens {
                if !ok {
                    break;
                }
                let start = Instant::now();
                matcher.fill_next_token_bitmask(&mut mask);
                stats.mask_time += start.elapsed();
                stats.mask_fills += 1;
                ok = mask.is_allowed(token) && matcher.accept_token(token).is_ok();
            }
            if ok {
                let start = Instant::now();
                matcher.fill_next_token_bitmask(&mut mask);
                stats.mask_time += start.elapsed();
                stats.mask_fills += 1;
                ok = matcher.can_terminate() && mask.is_allowed(eos);
            }
            stats.valid_pass += usize::from(ok);
        }

        // Invalid instances: the matcher must refuse the bytes or refuse to
        // terminate after them.
        for instance in &case.invalid {
            stats.invalid_total += 1;
            let mut matcher = GrammarMatcher::new(Arc::clone(&compiled));
            let rejected =
                matcher.accept_bytes(instance.as_bytes()).is_err() || !matcher.can_terminate();
            stats.invalid_pass += usize::from(rejected);
        }
    }

    println!(
        "  {:<18} {:>7} {:>12} {:>13} {:>12} {:>12}",
        "feature", "schemas", "compile(us)", "mask(us/fill)", "valid", "invalid"
    );
    let mut totals = FeatureStats::default();
    for (feature, s) in &by_feature {
        println!(
            "  {:<18} {:>7} {:>12.1} {:>13.1} {:>9}/{:<2} {:>9}/{:<2}",
            feature,
            s.schemas,
            s.compile_time.as_secs_f64() * 1e6 / s.schemas.max(1) as f64,
            s.mask_time.as_secs_f64() * 1e6 / s.mask_fills.max(1) as f64,
            s.valid_pass,
            s.valid_total,
            s.invalid_pass,
            s.invalid_total,
        );
        totals.schemas += s.schemas;
        totals.valid_pass += s.valid_pass;
        totals.valid_total += s.valid_total;
        totals.invalid_pass += s.invalid_pass;
        totals.invalid_total += s.invalid_total;
    }
    let conformant = totals.valid_pass == totals.valid_total
        && totals.invalid_pass == totals.invalid_total
        && totals.valid_total > 0
        && totals.invalid_total > 0;
    println!(
        "  {} schemas over {} features, {} valid + {} invalid instances, conformance {:.1}%",
        totals.schemas,
        by_feature.len(),
        totals.valid_total,
        totals.invalid_total,
        100.0 * (totals.valid_pass + totals.invalid_pass) as f64
            / (totals.valid_total + totals.invalid_total).max(1) as f64,
    );

    // ---- The conformance gate enforced by CI. ----
    let pass = conformant && totals.schemas >= 200 && by_feature.len() >= 10;
    println!(
        "  schema corpus conformance (>=200 schemas, >=10 features, 100% pass rate): {}",
        if pass { "PASS" } else { "FAIL" }
    );
    println!();
}

/// Figure 12: cross-platform TTFT / TPOT, structured vs unstructured.
fn experiment_fig12(vocab: &Arc<Vocabulary>, config: &Config) {
    println!("## Figure 12 — cross-platform TTFT (ms) and TPOT (ms), structured vs unstructured");
    let requests = schema_requests(2);
    for profile in [
        ModelProfile::llama31_8b_4bit_m3max().scaled(config.time_scale),
        ModelProfile::qwen25_05b_iphone().scaled(config.time_scale),
    ] {
        let backend: Arc<dyn ConstrainedBackend> =
            Arc::new(XGrammarBackend::new(Arc::clone(vocab)));
        let engine = ServingEngine::new(
            Arc::clone(&backend),
            profile.clone(),
            ExecutionMode::Overlapped,
        );
        let structured = engine.run_batch(&requests).expect("runs").1;
        let unconstrained: Vec<EngineRequest> = requests
            .iter()
            .cloned()
            .map(|mut r| {
                r.constraint = LaneConstraint::Unconstrained;
                r
            })
            .collect();
        let unstructured = engine.run_batch(&unconstrained).expect("runs").1;
        println!(
            "  {:<40} structured TTFT {} / TPOT {}   unstructured TTFT {} / TPOT {}",
            profile.name,
            fmt_ms(structured.ttft),
            fmt_ms(structured.tpot),
            fmt_ms(unstructured.ttft),
            fmt_ms(unstructured.tpot)
        );
    }
    println!();
}

/// Static-analysis lint pass, end to end (PASS-gated). Four parts: (1) every
/// grammar of the pathological corpus is flagged with its expected
/// diagnostic code, strict compilation rejects exactly the error-carrying
/// ones, and the degenerate shapes fail at the builder; (2) every
/// schema-corpus grammar lints clean of errors through the full compiler
/// pipeline (default `Warn` mode, vocabulary-aware); (3) a vocabulary gap
/// surfaces as a `dead-state` error and an unsatisfiable trigger segment as
/// a `dead-trigger` rejection; (4) a strict-mode scheduler turns an
/// unsatisfiable grammar into `StreamEvent::Failed` at admission while a
/// healthy lane in the same batch still completes — no wedged lane.
fn experiment_grammar_lint(vocab: &Arc<Vocabulary>, config: &Config) {
    use xg_core::LintMode;
    use xg_engine::SchedulerConfig;
    use xg_grammar::analyze;

    println!("## Grammar lint — static analysis before the decode loop");

    // ---- Part 1: pathological corpus, every defect flagged. ----
    let corpus = xg_datasets::pathological_corpus();
    let strict = GrammarCompiler::with_config(
        Arc::clone(vocab),
        CompilerConfig::default().with_lint_mode(LintMode::Strict),
    );
    let mut flagged = 0usize;
    let mut strict_verdicts_ok = true;
    let lint_start = Instant::now();
    for case in &corpus {
        let analysis = analyze(&case.grammar);
        let hit = analysis
            .diagnostics
            .iter()
            .any(|d| d.code.as_str() == case.expected_code);
        flagged += usize::from(hit);
        if !hit {
            println!(
                "  MISSING: case `{}` not flagged with `{}`",
                case.name, case.expected_code
            );
        }
        let rejected = strict.compile_grammar_checked(&case.grammar).is_err();
        if rejected != case.expected_error {
            strict_verdicts_ok = false;
            println!(
                "  STRICT MISMATCH: case `{}` rejected={rejected}, expected {}",
                case.name, case.expected_error
            );
        }
    }
    let lint_time = lint_start.elapsed();
    let rejections = xg_datasets::builder_rejections();
    let corpus_pass = flagged == corpus.len() && strict_verdicts_ok && rejections.len() == 2;
    println!(
        "  pathological corpus: {flagged}/{} flagged, strict verdicts {}, \
         {} degenerate shapes rejected at build ({} ms incl. strict compiles)",
        corpus.len(),
        if strict_verdicts_ok { "ok" } else { "BROKEN" },
        rejections.len(),
        fmt_ms(lint_time).trim(),
    );

    // ---- Part 2: the whole schema corpus lints clean of errors. ----
    let cases = xg_datasets::schema_corpus(config.schema_corpus_cases, 0x5C0);
    let compiler = GrammarCompiler::new(Arc::clone(vocab)); // default: Warn
    let mut clean = 0usize;
    let mut warnings = 0usize;
    for case in &cases {
        let compiled = compiler
            .compile_json_schema(&case.schema)
            .expect("corpus schemas compile under Warn mode");
        let report = compiled.lint_report().expect("Warn mode records a report");
        warnings += report.warning_count();
        if report.has_errors() {
            println!(
                "  DIRTY: schema case `{}` has lint errors: {:?}",
                case.feature,
                report.errors().collect::<Vec<_>>()
            );
        } else {
            clean += 1;
        }
    }
    let clean_pass = clean == cases.len();
    println!(
        "  schema corpus: {clean}/{} grammars lint clean of errors ({warnings} warnings)",
        cases.len()
    );

    // ---- Part 3: vocabulary-aware findings on restricted vocabularies. ----
    // The grammar needs a "z" after "a", but no token of the vocabulary
    // contains "z": the post-"a" automaton state admits zero tokens.
    let gap_grammar = xg_grammar::parse_ebnf(r#"root ::= "a" "z""#, "root").expect("parses");
    let gap_vocab = Arc::new(Vocabulary::from_tokens(
        vec![
            b"a".to_vec(),
            b"b".to_vec(),
            b"ab".to_vec(),
            b"</s>".to_vec(),
        ],
        Some(3),
    ));
    let gap_report_has_dead = GrammarCompiler::new(Arc::clone(&gap_vocab))
        .compile_grammar(&gap_grammar)
        .lint_report()
        .map(|r| r.dead_states > 0 && r.has_errors())
        .unwrap_or(false);
    let full_vocab = Arc::new(Vocabulary::from_tokens(
        vec![b"a".to_vec(), b"z".to_vec(), b"</s>".to_vec()],
        Some(2),
    ));
    let control_is_clean = GrammarCompiler::new(full_vocab)
        .compile_grammar(&gap_grammar)
        .lint_report()
        .map(|r| r.dead_states == 0)
        .unwrap_or(false);

    let dead_tag = xg_grammar::StructuralTag::new(vec![xg_grammar::TagSpec {
        begin: "<f>".into(),
        content: xg_grammar::TagContent::Ebnf {
            text: "root ::= \"x\" root".into(),
            root: "root".into(),
        },
        end: "</f>".into(),
    }]);
    let dead_trigger_rejected = match strict.compile_tag_dispatch(&dead_tag) {
        Err(err) => err.to_string().contains("dead-trigger"),
        Ok(_) => false,
    };
    let vocab_pass = gap_report_has_dead && control_is_clean && dead_trigger_rejected;
    println!(
        "  vocabulary-aware: dead-state on gap vocab {}, clean on full vocab {}, \
         dead-trigger rejected {}",
        if gap_report_has_dead { "ok" } else { "MISSED" },
        if control_is_clean {
            "ok"
        } else {
            "FALSE POSITIVE"
        },
        if dead_trigger_rejected {
            "ok"
        } else {
            "MISSED"
        },
    );

    // ---- Part 4: strict admission turns lint errors into failed ----
    // ---- streams instead of wedged lanes.                        ----
    let profile = ModelProfile::llama31_8b_h100().scaled(config.time_scale);
    let strict_backend: Arc<dyn ConstrainedBackend> = Arc::new(XGrammarBackend::with_config(
        Arc::clone(vocab),
        CompilerConfig::default().with_lint_mode(LintMode::Strict),
    ));
    let engine = ServingEngine::new(strict_backend, profile, ExecutionMode::Overlapped);
    let scheduler = engine.serve(SchedulerConfig {
        max_lanes: 4,
        queue_capacity: 8,
        admission_workers: 1,
        mask_workers: 0, // auto
    });
    let unsatisfiable = EngineRequest {
        constraint: LaneConstraint::Grammar(
            xg_grammar::parse_ebnf(r#"root ::= "x" root"#, "root").expect("parses"),
        ),
        prompt_tokens: 16,
        reference: b"xxxx".to_vec(),
        max_tokens: 16,
        seed: 1,
    };
    let healthy = schema_requests(1).remove(0);
    let bad_handle = scheduler.submit(unsatisfiable).expect("submit bad");
    let good_handle = scheduler.submit(healthy).expect("submit good");
    let bad_outcome = bad_handle.wait();
    let good_outcome = good_handle.wait();
    let metrics = scheduler.metrics();
    scheduler.shutdown();
    let admission_pass = bad_outcome.is_err()
        && good_outcome.is_ok()
        && metrics.failed == 1
        && metrics.completed == 1;
    println!(
        "  strict admission: unsatisfiable lane {}, healthy lane {}, \
         metrics failed={} completed={}",
        match &bad_outcome {
            Err(_) => "failed at admission (ok)",
            Ok(_) => "WRONGLY COMPLETED",
        },
        match &good_outcome {
            Ok(_) => "completed (ok)",
            Err(_) => "WRONGLY FAILED",
        },
        metrics.failed,
        metrics.completed,
    );

    // ---- The lint gate enforced by CI. ----
    let pass = corpus_pass && clean_pass && vocab_pass && admission_pass;
    println!(
        "  grammar lint (corpus flagged, schemas clean, strict admission rejects): {}",
        if pass { "PASS" } else { "FAIL" }
    );
    println!();
}

/// Raw-speed mask path at frontier vocabulary scale (the PR 9 tentpole gate).
///
/// For each vocabulary size — 32k, 128k (the paper's Llama-3.1 point) and a
/// 256k frontier-scale synthetic vocabulary — this measures per-token
/// mask-generation throughput on the recursive JSON CFG for two paths:
///
/// * **word kernels** — the default configuration: the adaptive token-mask
///   cache applied through word-level bulk bitmask kernels
///   (`allow_run` / `reject_many` / `copy_from`), plus
/// * **per-token serial** — `enable_mask_cache = false`, so every token in
///   the vocabulary is matched individually against the pushdown state at
///   runtime.
///
/// PASS gate (wired into CI as a smoke step): the word-kernel path must
/// reach at least 1.5x the per-token serial tokens/sec on the 128k-vocab
/// configuration. All three sizes run even under `--quick`; quick mode only
/// shrinks the iteration counts.
fn experiment_mask_throughput(_vocab: &Arc<Vocabulary>, config: &Config) {
    println!("## Mask throughput at scale (word kernels vs per-token serial)");
    let quick = config.time_scale < 1.0;
    let workload = Workload::CfgJson;
    let (kernel_refs, kernel_steps) = if quick { (2, 40) } else { (4, 120) };
    let serial_steps = if quick { 3 } else { 8 };
    let mut ratio_at_128k = 0.0f64;
    println!(
        "  {:>7} {:>15} {:>15} {:>8}",
        "vocab", "kernel tok/s", "serial tok/s", "ratio"
    );
    for size in [32_000usize, 128_000, 256_000] {
        let vocab = if size == 256_000 {
            Arc::new(xg_tokenizer::frontier_256k_vocabulary())
        } else {
            bench_vocabulary(size)
        };
        let kernel: Arc<dyn ConstrainedBackend> =
            Arc::new(XGrammarBackend::new(Arc::clone(&vocab)));
        let serial: Arc<dyn ConstrainedBackend> = Arc::new(XGrammarBackend::with_config(
            Arc::clone(&vocab),
            CompilerConfig {
                enable_mask_cache: false,
                ..CompilerConfig::default()
            },
        ));
        let kernel_m = measure_mask_generation(&kernel, workload, kernel_refs, kernel_steps)
            .expect("word-kernel path handles the JSON CFG");
        let serial_m = measure_mask_generation(&serial, workload, 1, serial_steps)
            .expect("per-token serial path handles the JSON CFG");
        let kernel_tps = 1.0 / kernel_m.per_token.as_secs_f64().max(f64::MIN_POSITIVE);
        let serial_tps = 1.0 / serial_m.per_token.as_secs_f64().max(f64::MIN_POSITIVE);
        let ratio = kernel_tps / serial_tps;
        if size == 128_000 {
            ratio_at_128k = ratio;
        }
        println!(
            "  {:>6}k {:>15.0} {:>15.0} {:>7.1}x",
            size / 1000,
            kernel_tps,
            serial_tps,
            ratio
        );
    }
    let pass = ratio_at_128k >= 1.5;
    println!(
        "  mask throughput (word-kernel fill >= 1.5x per-token serial at 128k): {}",
        if pass { "PASS" } else { "FAIL" }
    );
    println!();
}

/// Dynamic tool registries (PASS-gated, XGrammar-2 direction): an agentic
/// session mutates its tool catalog mid-session, and the dispatch layer must
/// keep up without recompiling the world. Four gates, enforced by CI:
///
/// 1. an incremental single-trigger update (`update_tag_dispatch`) at 100+
///    tools is ≥10x faster than a cold full recompile of the same final
///    catalog,
/// 2. two compilers sharing one `GrammarCache` and serving 90%-overlapping
///    catalogs hit the shared sub-grammar cache ≥90% of the time (segment
///    grammars are keyed by structural fingerprint, not registry position),
/// 3. decoding multi-turn `agent_sessions` through incremental registry
///    updates yields outputs byte-identical to compiling every turn's
///    catalog fresh,
/// 4. dispatch-cache bytes stay bounded under registry churn (the former
///    unbounded `tag_dispatch_memo` leak).
fn experiment_dynamic_registry(vocab: &Arc<Vocabulary>, config: &Config) {
    use xg_core::CacheBudget;
    use xg_datasets::{
        agent_catalog, agent_sessions, agent_tag_spec, agent_tool, overlapping_catalogs,
    };
    use xg_grammar::DispatchDelta;

    println!(
        "## Dynamic tool registries — incremental dispatch updates + shared sub-grammar cache"
    );
    let catalog_size = if config.vocab_size >= 100_000 {
        128
    } else {
        104
    };

    // ---- Part 1: incremental single-trigger update vs full recompile. ----
    let tools: Vec<_> = (0..catalog_size).map(agent_tool).collect();
    let catalog = agent_catalog(&tools);
    let compiler = GrammarCompiler::new(Arc::clone(vocab));
    let base = compiler
        .compile_tag_dispatch(&catalog)
        .expect("base catalog compiles");
    let reps = 3usize;
    let mut incremental = Duration::MAX;
    for i in 0..reps {
        let delta = DispatchDelta::AddTag(agent_tag_spec(&agent_tool(10_000 + i)));
        let start = Instant::now();
        let updated = compiler
            .update_tag_dispatch(&base, &delta)
            .expect("incremental update applies");
        incremental = incremental.min(start.elapsed());
        assert_eq!(updated.triggers().len(), catalog_size + 1);
    }
    // The baseline recompiles the same final catalog cold — fresh compiler,
    // fresh cache — like a server that rebuilds the registry from its
    // description on every mutation.
    let final_catalog = catalog
        .apply_delta(&DispatchDelta::AddTag(agent_tag_spec(&agent_tool(10_000))))
        .expect("delta applies");
    // One baseline rep: at 100+ tools a full recompile takes seconds, and
    // the ~100x gap makes the min-of-N refinement pointless.
    let fresh = GrammarCompiler::new(Arc::clone(vocab));
    let start = Instant::now();
    fresh
        .compile_tag_dispatch(&final_catalog)
        .expect("full recompile");
    let full = start.elapsed();
    let speedup = full.as_secs_f64() / incremental.as_secs_f64().max(1e-9);
    println!(
        "  registry update at {catalog_size} tools: incremental {} ms vs full recompile {} ms ({speedup:.0}x)",
        fmt_ms(incremental),
        fmt_ms(full),
    );
    let speedup_pass = speedup >= 10.0;

    // ---- Part 2: cross-registry sub-grammar sharing at 90% overlap. ----
    let shared_tools = (9 * catalog_size).div_ceil(10);
    let cache = Arc::new(GrammarCache::new(CacheBudget::for_grammars()));
    let tenant_a = GrammarCompiler::with_cache(
        Arc::clone(vocab),
        CompilerConfig::default(),
        Arc::clone(&cache),
    );
    let tenant_b = GrammarCompiler::with_cache(
        Arc::clone(vocab),
        CompilerConfig::default(),
        Arc::clone(&cache),
    );
    let (catalog_a, catalog_b) = overlapping_catalogs(catalog_size, shared_tools);
    tenant_a
        .compile_tag_dispatch(&catalog_a)
        .expect("catalog A compiles");
    tenant_b
        .compile_tag_dispatch(&catalog_b)
        .expect("catalog B compiles");
    let stats_b = tenant_b.local_cache_stats();
    let hit_rate = stats_b.hits as f64 / (stats_b.hits + stats_b.misses).max(1) as f64;
    println!(
        "  {shared_tools}/{catalog_size}-tool shared catalog pair: tenant B hit the shared \
         sub-grammar cache {}/{} times ({:.1}%)",
        stats_b.hits,
        stats_b.hits + stats_b.misses,
        100.0 * hit_rate,
    );
    let sharing_pass = hit_rate >= 0.9;

    // ---- Part 3: decode parity, incremental updates vs fresh compiles. ----
    let profile = ModelProfile::llama31_8b_h100().scaled(config.time_scale);
    let backend: Arc<dyn ConstrainedBackend> = Arc::new(XGrammarBackend::new(Arc::clone(vocab)));
    let engine = ServingEngine::new(Arc::clone(&backend), profile.clone(), ExecutionMode::Serial);
    let mut parity = true;
    let mut turns_checked = 0usize;
    let mut deltas_applied = 0usize;
    for session in agent_sessions(2, 5, 4, 0xD15) {
        let mut live_catalog = session.initial.clone();
        for turn in &session.turns {
            if let Some(delta) = &turn.delta {
                live_catalog = engine
                    .update_tool_registry(&live_catalog, delta)
                    .expect("registry update applies");
                assert_eq!(
                    live_catalog, turn.catalog,
                    "engine catalog tracks the deltas"
                );
                deltas_applied += 1;
            }
            let request = EngineRequest {
                constraint: LaneConstraint::StructuralTag(turn.catalog.clone()),
                prompt_tokens: 32,
                reference: turn.task.reference.clone(),
                max_tokens: 200,
                seed: 7,
            };
            let incr = engine
                .decode_reference(&request)
                .expect("incremental-engine turn");
            let fresh_backend: Arc<dyn ConstrainedBackend> =
                Arc::new(XGrammarBackend::new(Arc::clone(vocab)));
            let fresh = ServingEngine::new(fresh_backend, profile.clone(), ExecutionMode::Serial)
                .decode_reference(&request)
                .expect("fresh-engine turn");
            parity &= incr.output == fresh.output;
            turns_checked += 1;
        }
    }
    println!(
        "  multi-turn sessions: {turns_checked} turns ({deltas_applied} registry mutations) decoded, \
         incremental vs fresh outputs {}",
        if parity { "byte-identical" } else { "DIVERGED" },
    );

    // ---- Part 4: dispatch-cache boundedness under registry churn. ----
    let probe = GrammarCompiler::new(Arc::clone(vocab))
        .compile_tag_dispatch(&agent_catalog(&[agent_tool(20_000)]))
        .expect("probe catalog compiles")
        .memory_bytes();
    let budget = 6 * probe.max(1);
    let churn_compiler =
        GrammarCompiler::new(Arc::clone(vocab)).with_dispatch_cache_config(CacheBudget {
            max_bytes: budget,
            max_entries: usize::MAX,
        });
    let churned = 200usize;
    for i in 0..churned {
        churn_compiler
            .compile_tag_dispatch(&agent_catalog(&[agent_tool(20_000 + i)]))
            .expect("churn catalog compiles");
    }
    let churn_stats = churn_compiler.dispatch_cache().stats();
    println!(
        "  churn of {churned} distinct registries through a {budget}-byte dispatch cache: \
         {} resident entries, {} bytes, {} evictions",
        churn_stats.entries, churn_stats.current_bytes, churn_stats.evictions,
    );
    let churn_pass = churn_stats.current_bytes <= budget as u64 && churn_stats.evictions > 0;

    println!(
        "  dynamic registry (incremental >=10x full recompile, >=90% shared-catalog hits, \
         byte-identical decode, bounded dispatch cache): {}",
        if speedup_pass && sharing_pass && parity && churn_pass {
            "PASS"
        } else {
            "FAIL"
        }
    );
    println!();
}
