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
            BackendKind::Outlines => Arc::new(FsmIndexBackend::new(vocab)),
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
    /// References whose emitted bytes stopped being a prefix of the
    /// reference: the backend's mask refused the reference there (an
    /// unrolling depth too small for its nesting), so the rest of that
    /// walk's masks are of text the workload does not hold.
    pub diverged_references: usize,
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
    let mut diverged_references = 0usize;
    for (i, reference) in refs.iter().enumerate() {
        let mut session = Arc::clone(&compiled).new_session();
        let mut state = llm.start_request(reference, i as u64);
        let mut emitted = Vec::new();
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
            emitted.extend_from_slice(vocab.token_bytes(token));
        }
        diverged_references += usize::from(!reference.starts_with(&emitted));
    }
    if masks == 0 {
        return None;
    }
    Some(MaskGenMeasurement {
        per_token: total / masks as u32,
        preprocessing,
        diverged_references,
    })
}

/// The `XGrammarBackend` of one Table 3 row, with the row's name.
pub fn ablation_backend(
    vocab: Arc<Vocabulary>,
    config: CompilerConfig,
) -> (&'static str, Arc<dyn ConstrainedBackend>) {
    let name = match config {
        CompilerConfig::PdaBaseline => "PDA Baseline",
        CompilerConfig::NodeMerging => "+ Node merging",
        CompilerConfig::MaskCache => "+ Adaptive token mask cache",
        CompilerConfig::RuleInlining => "+ Rule inlining",
        CompilerConfig::ContextExpansion => "+ Context expansion",
    };
    (name, Arc::new(XGrammarBackend::with_config(vocab, config)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_core::{CompiledConstraint, ConstraintMatcher};
    use xg_engine::{EngineRequest, ExecutionMode, LaneConstraint, ModelProfile, ServingEngine};
    use xg_grammar::{DispatchDelta, StructuralTag, TagContent, TagSpec};

    /// Feeds `text` to `session` as its greedy longest-prefix tokens, each
    /// checked against a fresh mask first; `false` at the first refusal.
    fn accepts_tokens(
        session: &mut dyn ConstraintMatcher,
        vocab: &Vocabulary,
        text: &[u8],
    ) -> bool {
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        let mut rest = text;
        while let Some(token) = vocab.sorted().longest_prefix_token(rest) {
            session.fill_next_token_bitmask(&mut mask);
            if !mask.is_allowed(token) || session.accept_token(token).is_err() {
                return false;
            }
            rest = &rest[vocab.token_bytes(token).len()..];
        }
        rest.is_empty()
    }

    /// Fig. 9, Fig. 10 and Table 1 measure the Outlines comparator under its
    /// backend's one set of unrolling limits: every schema family they serve
    /// compiles, and a session follows every reference of the schema, JSON
    /// and XML workloads to its end. The recursive XML grammar is truncated
    /// (a document nested past the unrolling depth is refused), not refused
    /// outright. The Python-DSL references nest deeper than the limits, so an
    /// Outlines session leaves each of them; that is not asserted here.
    #[test]
    fn the_outlines_comparator_follows_every_reference() {
        let vocab = Arc::new(xg_tokenizer::test_vocabulary(600));
        let outlines = BackendKind::Outlines.build(Arc::clone(&vocab));
        let follows = |compiled: &Arc<dyn CompiledConstraint>, text: &[u8]| {
            let mut session = Arc::clone(compiled).new_session();
            accepts_tokens(&mut *session, &vocab, text) && session.can_terminate()
        };
        for (i, task) in xg_datasets::json_mode_eval_like(25, 0xE2E)
            .iter()
            .enumerate()
        {
            let grammar = xg_grammar::json_schema_to_grammar(&task.schema).unwrap();
            let compiled = outlines
                .compile(&grammar)
                .unwrap_or_else(|e| panic!("schema family {} refused: {e}", i % 5));
            assert!(follows(&compiled, &task.reference), "schema task {i}");
        }
        let json = outlines
            .compile(&xg_grammar::builtin::json_grammar())
            .unwrap();
        for (i, doc) in xg_datasets::json_documents(10, 0xF19).iter().enumerate() {
            assert!(follows(&json, &doc.reference), "JSON document {i}");
        }
        let xml = outlines
            .compile(&xg_grammar::builtin::xml_grammar())
            .expect("the recursive XML grammar is truncated, not refused");
        for (i, doc) in xg_datasets::xml_tasks(10, 0xF19).iter().enumerate() {
            assert!(follows(&xml, &doc.reference), "XML document {i}");
        }
        let nested =
            |depth: usize| ["<a>".repeat(depth), "x".into(), "</a>".repeat(depth)].concat();
        assert!(follows(&xml, nested(2).as_bytes()));
        let mut session = xml.new_session();
        assert!(!accepts_tokens(
            &mut *session,
            &vocab,
            nested(12).as_bytes()
        ));
    }

    /// Fig. 9 tells a walk that follows its references from one that left
    /// them: XGrammar follows every Python-DSL reference, and the Outlines
    /// unrolling leaves some of them.
    #[test]
    fn mask_generation_counts_the_references_a_backend_left() {
        let vocab = Arc::new(xg_tokenizer::test_vocabulary(600));
        let diverged = |kind: BackendKind| {
            measure_mask_generation(
                &kind.build(Arc::clone(&vocab)),
                Workload::CfgPythonDsl,
                4,
                40,
            )
            .expect("the Python DSL compiles")
            .diverged_references
        };
        assert_eq!(diverged(BackendKind::XGrammar), 0);
        assert!(diverged(BackendKind::Outlines) > 0);
    }

    /// One `Arc<Vocabulary>` is sorted once: every backend kind and a Table 3
    /// row backend, a serving engine over each and the requests it serves,
    /// every compiled grammar and the simulated proposer all read the
    /// vocabulary's one index.
    #[test]
    fn every_holder_reads_the_vocabularys_one_sorted_index() {
        let vocab = Arc::new(xg_tokenizer::test_vocabulary(600));
        let sorted = Arc::clone(vocab.sorted());
        let shares =
            |v: &Arc<Vocabulary>| Arc::ptr_eq(v, &vocab) && Arc::ptr_eq(v.sorted(), &sorted);
        let grammar = xg_grammar::parse_ebnf(r#"root ::= "{\"id\": " [0-9]+ "}""#, "root").unwrap();
        let request = EngineRequest {
            constraint: LaneConstraint::Grammar(grammar.clone()),
            prompt_tokens: 4,
            reference: br#"{"id": 42}"#.to_vec(),
            max_tokens: 32,
            seed: 0,
        };
        let mut backends: Vec<_> = BackendKind::all()
            .iter()
            .map(|kind| kind.build(Arc::clone(&vocab)))
            .collect();
        backends.push(ablation_backend(Arc::clone(&vocab), CompilerConfig::PdaBaseline).1);
        for backend in backends {
            let name = backend.name();
            let engine = ServingEngine::new(
                Arc::clone(&backend),
                ModelProfile::llama31_8b_h100().scaled(0.01),
                ExecutionMode::Overlapped,
            );
            let (results, _) = engine.run_batch(std::slice::from_ref(&request)).unwrap();
            assert_eq!(results[0].output, request.reference, "{name}");
            let reference = engine.decode_reference(&request).unwrap();
            assert_eq!(reference.output, request.reference, "{name}");

            assert!(shares(engine.backend().vocabulary()), "{name}");
            let session = backend.compile(&grammar).unwrap().new_session();
            assert!(shares(session.vocabulary()), "{name}");
        }
        // The compiler's grammars, the tag segments and their update.
        let backend = XGrammarBackend::new(Arc::clone(&vocab));
        let compiler = backend.compiler();
        let compiled = compiler.compile_grammar(&grammar);
        assert!(compiled.stats().nodes > 0, "every entry built");
        assert!(shares(compiled.vocabulary()));
        let tag = |begin: &str| TagSpec {
            begin: begin.into(),
            content: TagContent::Ebnf {
                text: "root ::= [0-9]+".into(),
                root: "root".into(),
            },
            end: "</n>".into(),
        };
        let dispatch = compiler
            .compile_tag_dispatch(&StructuralTag::new(vec![tag("<n>")]))
            .unwrap();
        let updated = compiler
            .update_tag_dispatch(&dispatch, &DispatchDelta::AddTag(tag("<m>")))
            .unwrap();
        for trigger in dispatch.triggers().iter().chain(updated.triggers()) {
            assert!(shares(trigger.grammar().vocabulary()));
        }
        let proposer = SimulatedLlm::new(Arc::clone(&vocab), LlmBehavior::default());
        assert!(shares(proposer.vocabulary()));
    }
}
