//! Regenerates the tables and figures of the paper's evaluation section —
//! and nothing else: an invariant is a `#[test]`, a timing is a `perf`
//! metric (the README's "what is checked where" table names the home of
//! each).
//!
//! ```text
//! cargo run -p xg-bench --release --bin run_experiments -- [experiment] [--full]
//! ```
//!
//! `experiment` is one of `stats`, `fig9`, `table3`, `fig10`, `table1`,
//! `table2`, `table4`, `fig11`, `fig12`, or `all` (default); `--list` prints
//! the available experiments and exits. `--full` uses the 128k-token
//! vocabulary and larger request counts (slower); `--quick` (the default)
//! uses a 32k vocabulary so the whole suite finishes in a few minutes.
//!
//! Every serving number below comes out of `ServingEngine::run_batch`, i.e.
//! the one decode loop (`ContinuousScheduler`); the only per-token loop this
//! harness owns is `xg_bench::measure_mask_generation` (Figure 9 / Table 3).

use std::sync::Arc;
use std::time::Duration;

use xg_baselines::BackendError;
use xg_bench::{
    ablation_backend, bench_vocabulary, measure_mask_generation, BackendKind, Workload,
};
use xg_core::{CompilerConfig, GrammarCompiler};
use xg_engine::{
    run_accuracy_experiment, AccuracyTask, EngineRequest, ExecutionMode, JumpForwardPolicy,
    LaneConstraint, LlmBehavior, ModelProfile, ServingEngine,
};
use xg_tokenizer::Vocabulary;

struct Config {
    vocab_size: usize,
    fig9_references: usize,
    engine_requests: usize,
    accuracy_requests: usize,
    time_scale: f64,
}

impl Config {
    fn quick() -> Config {
        Config {
            vocab_size: 32_000,
            fig9_references: 4,
            engine_requests: 4,
            accuracy_requests: 10,
            time_scale: 0.05,
        }
    }

    fn full() -> Config {
        Config {
            vocab_size: 128_000,
            fig9_references: 10,
            engine_requests: 8,
            accuracy_requests: 50,
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
    let experiments: [(&str, &str, Experiment); 9] = [
        (
            "stats",
            "preprocessing statistics for the JSON and Python-DSL grammars (§3.1–§3.3)",
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
    // The sorted index is the vocabulary's, built once: not part of a
    // grammar's preprocessing.
    let sorted = vocab.sorted();
    // `stats()` builds every mask-cache entry the compile leaves to first
    // use, so the time covers the whole §3 preprocessing.
    let start = std::time::Instant::now();
    let stats = compiler.compile_builtin_json().stats();
    let preprocessing_time = start.elapsed();
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
        "  preprocessing characters matched vs naive: {:.2}% (sorted-prefix rollback, §3.3); automaton steps executed: {} of {} matched (the step memo answered the rest)",
        100.0 * stats.preprocessing_check_fraction(),
        stats.automaton_steps,
        stats.preprocessing_bytes_matched
    );
    let pairs = stats.nodes * stats.classified_tokens;
    let share = |count: u64| 100.0 * count as f64 / pairs.max(1) as f64;
    println!(
        "  tokens matched one by one: {} of {} (node, token) pairs ({:.2}%); accepted by a loop, unwalked: {} ({:.2}%); the rest classified in runs",
        stats.tokens_visited,
        pairs,
        share(stats.tokens_visited),
        stats.tokens_loop_accepted,
        share(stats.tokens_loop_accepted)
    );
    println!(
        "  vocabulary prefix-sharing fraction (chars to check): {:.0}%",
        100.0 * sorted.check_fraction()
    );
    println!(
        "  preprocessing wall-clock time: {:.1} ms",
        preprocessing_time.as_secs_f64() * 1e3
    );
    println!();
    python_dsl_stats(vocab, &compiler);
}

/// The Python DSL's context-dependent tokens before and after context
/// expansion (the Figure 9 cell where expansion decides least), and its full
/// preprocessing time.
fn python_dsl_stats(vocab: &Arc<Vocabulary>, compiler: &GrammarCompiler) {
    println!("## Preprocessing statistics (paper §3.1–§3.2, Python DSL grammar)");
    let grammar = xg_grammar::builtin::python_dsl_grammar();
    let start = std::time::Instant::now();
    let after = compiler.compile_grammar(&grammar).stats();
    let preprocessing_time = start.elapsed();
    // The `+ rule inlining` row builds the same automaton without context
    // expansion, so its worst node is the worst node before expansion.
    let unexpanded = GrammarCompiler::with_config(Arc::clone(vocab), CompilerConfig::RuleInlining);
    let before = unexpanded.compile_grammar(&grammar).stats();
    println!("  automaton nodes                        : {}", after.nodes);
    println!(
        "  context-dependent tokens before -> after context expansion (sum over nodes): {} -> {} ({:.0}% removed)",
        after.context_dependent_before_expansion,
        after.context_dependent_after_expansion,
        100.0 * after.expansion_reduction()
    );
    println!(
        "  context-dependent tokens before -> after context expansion (worst node): {} -> {} of {}",
        before.max_context_dependent_per_node,
        after.max_context_dependent_per_node,
        after.classified_tokens
    );
    println!(
        "  preprocessing wall-clock time (compile + every entry): {:.1} ms",
        preprocessing_time.as_secs_f64() * 1e3
    );
    println!();
}

/// Figure 9: per-token mask generation latency, and each grammar's compile.
fn experiment_fig9(vocab: &Arc<Vocabulary>, config: &Config) {
    println!("## Figure 9 — per-token mask generation latency (us/token) and compile (ms)");
    println!(
        "{:<28} {:>19} {:>19} {:>19} {:>19}",
        "workload", "XGrammar", "Outlines", "llama.cpp", "lm-fmt-enf"
    );
    let mut diverged = false;
    for workload in Workload::all() {
        let mut row = format!("{:<28}", workload.name());
        for kind in BackendKind::all() {
            let backend = kind.build(Arc::clone(vocab));
            let result = measure_mask_generation(&backend, workload, config.fig9_references, 40);
            let cell = match result {
                Some(m) => {
                    let mark = if m.diverged_references > 0 { '*' } else { ' ' };
                    diverged |= m.diverged_references > 0;
                    format!("{}{mark}{}", fmt_us(m.per_token), fmt_ms(m.preprocessing))
                }
                None => "unsupported".into(),
            };
            row.push_str(&format!(" {cell:>19}"));
        }
        println!("{row}");
    }
    if diverged {
        println!(
            "  * the backend's masks refused some reference, so its latency is partly \
             that of text off the reference"
        );
    }
    println!();
}

/// Table 3: ablation of the optimization techniques on CFG (JSON).
fn experiment_table3(vocab: &Arc<Vocabulary>, config: &Config) {
    println!("## Table 3 — ablation study, per-token mask latency on CFG (JSON)");
    let mut previous: Option<Duration> = None;
    for row in CompilerConfig::ROWS {
        let (name, backend) = ablation_backend(Arc::clone(vocab), row);
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

/// A batch of `batch` requests: the request list, cycled.
fn cycled(base: &[EngineRequest], batch: usize) -> Vec<EngineRequest> {
    base.iter().cycle().take(batch).cloned().collect()
}

/// The same requests with the constraint taken off: the "w/o XGrammar" /
/// "unstructured" side of Table 2 and Figure 12.
fn unconstrained(requests: &[EngineRequest]) -> Vec<EngineRequest> {
    let mut requests = requests.to_vec();
    for request in &mut requests {
        request.constraint = LaneConstraint::Unconstrained;
    }
    requests
}

/// Figure 10: end-to-end TPOT vs batch size for different engines. The
/// paper's two XGrammar-serving engines (SGLang w/ XGrammar and the XGrammar
/// engine) are one simulated configuration here, hence one row.
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
        for (name, kind, mode) in [
            (
                "llama.cpp (serial)",
                BackendKind::LlamaCppGrammar,
                ExecutionMode::Serial,
            ),
            (
                "vLLM w/ Outlines (serial)",
                BackendKind::Outlines,
                ExecutionMode::Serial,
            ),
            (
                "XGrammar (overlapped)",
                BackendKind::XGrammar,
                ExecutionMode::Overlapped,
            ),
        ] {
            let backend = kind.build(Arc::clone(vocab));
            let mut row = format!("    {:<28}", name);
            for batch in [1usize, 8, 16] {
                let engine = ServingEngine::new(Arc::clone(&backend), profile.clone(), mode);
                match engine.run_batch(&cycled(&base_requests, batch)) {
                    Ok((_, metrics)) => row.push_str(&format!(" {}", fmt_ms(metrics.tpot))),
                    Err(_) => row.push_str(&format!(" {:>8}", "unsup.")),
                }
            }
            println!("{row}");
        }
    }
    println!();
}

/// Table 1: TPOT across models (SGLang + Outlines vs SGLang + XGrammar). A
/// refused batch prints as `n/a (<reason>)`, as Figure 9 prints
/// `unsupported`; a refused XGrammar batch also fails the run (exit code 1).
fn experiment_table1(vocab: &Arc<Vocabulary>, config: &Config) {
    println!("## Table 1 — TPOT (ms) across models on the JSON Schema task");
    let requests = schema_requests(config.engine_requests.max(4));
    let mut xgrammar_refused = false;
    for profile in [
        ModelProfile::llama31_8b_h100().scaled(config.time_scale),
        ModelProfile::deepseek_v2_lite_h100().scaled(config.time_scale),
    ] {
        let tpot = |kind: BackendKind, mode: ExecutionMode| {
            ServingEngine::new(kind.build(Arc::clone(vocab)), profile.clone(), mode)
                .run_batch(&requests)
                .map(|(_, metrics)| metrics.tpot)
        };
        let cell = |tpot: &Result<Duration, BackendError>| match tpot {
            Ok(tpot) => format!("{} ms", fmt_ms(*tpot)),
            Err(BackendError::UnsupportedGrammar { reason, .. }) => format!("n/a ({reason})"),
        };
        let outlines = tpot(BackendKind::Outlines, ExecutionMode::Serial);
        let xgrammar = tpot(BackendKind::XGrammar, ExecutionMode::Overlapped);
        xgrammar_refused |= xgrammar.is_err();
        println!(
            "  {:<38} SGLang+Outlines {}   SGLang+XGrammar {}",
            profile.name,
            cell(&outlines),
            cell(&xgrammar)
        );
    }
    println!();
    if xgrammar_refused {
        eprintln!("table1: the XGrammar backend refused a batch");
        std::process::exit(1);
    }
}

/// Table 2: TPOT with and without XGrammar on the MLC-LLM-style engine.
fn experiment_table2(vocab: &Arc<Vocabulary>, config: &Config) {
    println!("## Table 2 — TPOT (ms) with and without XGrammar (overlapped engine)");
    let profile = ModelProfile::llama31_8b_h100().scaled(config.time_scale);
    let backend = BackendKind::XGrammar.build(Arc::clone(vocab));
    for (task, base_requests) in [
        ("JSON Schema", schema_requests(config.engine_requests)),
        ("CFG (JSON)", cfg_requests(config.engine_requests)),
    ] {
        for batch in [1usize, 8] {
            let requests = cycled(&base_requests, batch);
            let engine = ServingEngine::new(
                Arc::clone(&backend),
                profile.clone(),
                ExecutionMode::Overlapped,
            );
            let without = engine.run_batch(&unconstrained(&requests)).expect("runs");
            let with = engine.run_batch(&requests).expect("runs");
            println!(
                "  {:<14} batch {:>2}: TPOT w/o XGrammar {} ms   w/ XGrammar {} ms",
                task,
                batch,
                fmt_ms(without.1.tpot),
                fmt_ms(with.1.tpot)
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

/// Figure 11: jump-forward decoding combined with constrained decoding — one
/// schema batch through the scheduler under [`JumpForwardPolicy::Off`] and
/// [`JumpForwardPolicy::Engine`]. The y axis is whole-batch wall clock per
/// *output* token: forced text is output too, it just skips the GPU step.
fn experiment_fig11(vocab: &Arc<Vocabulary>, config: &Config) {
    println!("## Figure 11 — time per output token (ms) with and without jump-forward decoding");
    let profile = ModelProfile::llama31_8b_h100().scaled(config.time_scale);
    let requests = schema_requests(config.engine_requests.max(4));
    let backend = BackendKind::XGrammar.build(Arc::clone(vocab));
    let run = |policy: JumpForwardPolicy| {
        ServingEngine::new(
            Arc::clone(&backend),
            profile.clone(),
            ExecutionMode::Overlapped,
        )
        .with_jump_forward(policy)
        .run_batch(&requests)
        .expect("dataset schemas compile")
        .1
    };
    // Warm the compiled-grammar cache so the first row is not charged for
    // compilation the second one gets for free.
    run(JumpForwardPolicy::Off);
    for (label, policy) in [
        ("w/o jump-forward", JumpForwardPolicy::Off),
        ("w/ jump-forward", JumpForwardPolicy::Engine),
    ] {
        let metrics = run(policy);
        let output_tokens = metrics.sampled_tokens + metrics.forced_tokens;
        println!(
            "  XGrammar {:<18}: {:.3} ms per output token \
             ({} sampled + {} forced tokens, {} forced chars)",
            label,
            metrics.wall_time.as_secs_f64() * 1e3 / output_tokens.max(1) as f64,
            metrics.sampled_tokens,
            metrics.forced_tokens,
            metrics.forced_chars,
        );
    }
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
        let engine = ServingEngine::new(
            BackendKind::XGrammar.build(Arc::clone(vocab)),
            profile.clone(),
            ExecutionMode::Overlapped,
        );
        let structured = engine.run_batch(&requests).expect("runs").1;
        let unstructured = engine.run_batch(&unconstrained(&requests)).expect("runs").1;
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
