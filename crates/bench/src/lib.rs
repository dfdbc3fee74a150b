//! Shared harness code: workload definitions, backend construction and
//! measurement helpers used by the `run_experiments` binary that regenerates
//! every table and figure of the paper, and by the `perf` benchmark.

#![warn(missing_docs)]

use std::sync::Arc;
use std::time::{Duration, Instant};

use xg_baselines::{
    ConstrainedBackend, FormatEnforcerBackend, FsmIndexBackend, NaivePdaBackend, XGrammarBackend,
};
use xg_core::{CompilerConfig, TokenBitmask};
use xg_engine::{LlmBehavior, SimulatedLlm};
use xg_grammar::Grammar;
use xg_tokenizer::{synthetic_vocabulary, SyntheticVocabConfig, Vocabulary};

/// The four mask-generation workloads of Figure 9.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// JSON constrained by a function-calling JSON Schema.
    JsonSchema,
    /// Unconstrained JSON (ECMA-404), a recursive CFG.
    CfgJson,
    /// The XML-subset CFG.
    CfgXml,
    /// The Python-DSL CFG.
    CfgPythonDsl,
}

impl Workload {
    /// All workloads in the paper's order.
    pub fn all() -> [Workload; 4] {
        [
            Workload::JsonSchema,
            Workload::CfgJson,
            Workload::CfgXml,
            Workload::CfgPythonDsl,
        ]
    }

    /// Display name matching the paper's figure captions.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::JsonSchema => "JSON Schema",
            Workload::CfgJson => "CFG (Unconstrained JSON)",
            Workload::CfgXml => "CFG (XML)",
            Workload::CfgPythonDsl => "CFG (Python DSL)",
        }
    }

    /// The grammar and a set of reference outputs for this workload.
    pub fn grammar_and_references(&self, count: usize) -> (Grammar, Vec<Vec<u8>>) {
        match self {
            Workload::JsonSchema => {
                let tasks = xg_datasets::json_mode_eval_like(count, 0xF19);
                // One representative schema; references come from tasks that
                // share it (the first task's family).
                let grammar = xg_grammar::json_schema_to_grammar(&tasks[0].schema)
                    .expect("dataset schemas convert");
                let refs = tasks
                    .iter()
                    .step_by(5)
                    .map(|t| t.reference.clone())
                    .collect();
                (grammar, refs)
            }
            Workload::CfgJson => {
                let docs = xg_datasets::json_documents(count, 0xF19);
                (
                    xg_grammar::builtin::json_grammar(),
                    docs.into_iter().map(|d| d.reference).collect(),
                )
            }
            Workload::CfgXml => {
                let docs = xg_datasets::xml_tasks(count, 0xF19);
                (
                    xg_grammar::builtin::xml_grammar(),
                    docs.into_iter().map(|d| d.reference).collect(),
                )
            }
            Workload::CfgPythonDsl => {
                let docs = xg_datasets::python_dsl_tasks(count, 0xF19);
                (
                    xg_grammar::builtin::python_dsl_grammar(),
                    docs.into_iter().map(|d| d.reference).collect(),
                )
            }
        }
    }
}

/// Backend families compared in Figure 9 / Figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// This paper's engine.
    XGrammar,
    /// Outlines-style FSM index.
    Outlines,
    /// llama.cpp-style naive PDA scan.
    LlamaCppGrammar,
    /// lm-format-enforcer-style char-trie walker (regex only).
    FormatEnforcer,
}

impl BackendKind {
    /// All comparators in the paper's order.
    pub fn all() -> [BackendKind; 4] {
        [
            BackendKind::XGrammar,
            BackendKind::Outlines,
            BackendKind::LlamaCppGrammar,
            BackendKind::FormatEnforcer,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            BackendKind::XGrammar => "XGrammar",
            BackendKind::Outlines => "Outlines",
            BackendKind::LlamaCppGrammar => "llama.cpp-Grammar",
            BackendKind::FormatEnforcer => "lm-format-enforcer",
        }
    }

    /// Instantiates the backend for a vocabulary.
    pub fn build(&self, vocab: Arc<Vocabulary>) -> Arc<dyn ConstrainedBackend> {
        match self {
            BackendKind::XGrammar => Arc::new(XGrammarBackend::new(vocab)),
            BackendKind::Outlines => Arc::new(FsmIndexBackend::with_limits(vocab, 6, 400_000)),
            BackendKind::LlamaCppGrammar => Arc::new(NaivePdaBackend::new(vocab)),
            BackendKind::FormatEnforcer => Arc::new(FormatEnforcerBackend::new(vocab)),
        }
    }
}

/// The shared benchmark vocabulary ("Llama-3.1-like", scaled by `size`).
pub fn bench_vocabulary(size: usize) -> Arc<Vocabulary> {
    Arc::new(synthetic_vocabulary(&SyntheticVocabConfig {
        size,
        seed: 0x11a3a31,
    }))
}

/// Result of measuring per-token mask generation for one backend on one
/// workload.
#[derive(Debug, Clone, Copy)]
pub struct MaskGenMeasurement {
    /// Mean time to produce one token mask.
    pub per_token: Duration,
    /// Preprocessing (grammar compilation) time.
    pub preprocessing: Duration,
}

/// Measures per-token mask-generation latency (the Figure 9 metric) for a
/// backend on a workload: reference outputs are tokenized greedily and the
/// backend produces a mask before every token.
///
/// Returns `None` when the backend cannot handle the workload's grammar
/// (e.g. lm-format-enforcer on a recursive CFG), mirroring the missing bars
/// in the paper's figure.
pub fn measure_mask_generation(
    backend: &Arc<dyn ConstrainedBackend>,
    workload: Workload,
    references: usize,
    max_tokens_per_reference: usize,
) -> Option<MaskGenMeasurement> {
    let vocab = Arc::clone(backend.vocabulary());
    let (grammar, refs) = workload.grammar_and_references(references);
    let preprocessing_start = Instant::now();
    let compiled = backend.compile(&grammar).ok()?;
    let preprocessing = preprocessing_start.elapsed();

    let llm = SimulatedLlm::new(
        Arc::clone(&vocab),
        LlmBehavior {
            prose_probability: 0.0,
            type_error_probability: 0.0,
            seed: 0,
        },
    );
    let mut mask = TokenBitmask::new_all_rejected(vocab.len());
    let mut total = Duration::ZERO;
    let mut masks = 0usize;
    for (i, reference) in refs.iter().enumerate() {
        let mut session = Arc::clone(&compiled).new_session();
        let mut state = llm.start_request(reference, i as u64);
        for _ in 0..max_tokens_per_reference {
            let start = Instant::now();
            session.fill_next_token_bitmask(&mut mask);
            total += start.elapsed();
            masks += 1;
            let Some(token) = state.propose_constrained(&mask) else {
                break;
            };
            if Some(token) == vocab.eos() || session.accept_token(token).is_err() {
                break;
            }
            state.advance(token);
        }
    }
    if masks == 0 {
        return None;
    }
    Some(MaskGenMeasurement {
        per_token: total / masks as u32,
        preprocessing,
    })
}

/// Builds an `XGrammarBackend` for one ablation configuration (Table 3).
pub fn ablation_backend(
    vocab: Arc<Vocabulary>,
    step: usize,
) -> (String, Arc<dyn ConstrainedBackend>) {
    let (name, config) = ablation_config(step);
    (name, Arc::new(XGrammarBackend::with_config(vocab, config)))
}

/// The cumulative ablation configurations of Table 3.
fn ablation_config(step: usize) -> (String, CompilerConfig) {
    match step {
        0 => ("PDA Baseline".into(), CompilerConfig::baseline()),
        1 => (
            "+ Node merging".into(),
            CompilerConfig {
                enable_node_merging: true,
                ..CompilerConfig::baseline()
            },
        ),
        2 => (
            "+ Adaptive token mask cache".into(),
            CompilerConfig {
                enable_node_merging: true,
                enable_mask_cache: true,
                ..CompilerConfig::baseline()
            },
        ),
        3 => (
            "+ Rule inlining".into(),
            CompilerConfig {
                enable_node_merging: true,
                enable_mask_cache: true,
                enable_rule_inlining: true,
                ..CompilerConfig::baseline()
            },
        ),
        _ => ("+ Context expansion".into(), CompilerConfig::default()),
    }
}
