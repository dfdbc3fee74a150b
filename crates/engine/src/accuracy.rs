//! Downstream-task accuracy experiment (paper §4.4, Table 4): syntactic
//! correctness of function-calling (JSON Schema) and XML code generation,
//! with and without grammar constraints.

use std::sync::Arc;

use xg_baselines::{ConstrainedBackend, XGrammarBackend};
use xg_datasets::{json_mode_eval_like, xml_tasks};
use xg_grammar::Grammar;
use xg_tokenizer::Vocabulary;

use crate::engine::{EngineRequest, ExecutionMode, LaneConstraint, ServingEngine};
use crate::llm::LlmBehavior;
use crate::profiles::ModelProfile;

/// Result of the accuracy experiment for one task family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccuracyResult {
    /// Number of evaluated requests.
    pub total: usize,
    /// Syntactically valid outputs without constrained decoding.
    pub valid_unconstrained: usize,
    /// Syntactically valid outputs with XGrammar constraints.
    pub valid_constrained: usize,
}

impl AccuracyResult {
    /// Accuracy without constraints, in [0, 1].
    pub fn unconstrained_accuracy(&self) -> f64 {
        self.valid_unconstrained as f64 / self.total.max(1) as f64
    }

    /// Accuracy with constraints, in [0, 1].
    pub fn constrained_accuracy(&self) -> f64 {
        self.valid_constrained as f64 / self.total.max(1) as f64
    }
}

/// The two structured-generation tasks of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccuracyTask {
    /// Function calling: JSON constrained by a per-request schema.
    FunctionCalling,
    /// XML code generation constrained by the XML grammar.
    XmlGeneration,
}

fn is_valid_json(bytes: &[u8]) -> bool {
    serde_json::from_slice::<serde_json::Value>(bytes).is_ok()
}

/// Minimal well-formedness check for XML output: non-empty, starts with `<`,
/// and all tags are properly nested and closed.
fn is_valid_xml(bytes: &[u8]) -> bool {
    let text = match std::str::from_utf8(bytes) {
        Ok(t) => t.trim(),
        Err(_) => return false,
    };
    if !text.starts_with('<') || text.is_empty() {
        return false;
    }
    let mut stack: Vec<String> = Vec::new();
    let mut rest = text;
    while let Some(open) = rest.find('<') {
        let Some(close) = rest[open..].find('>') else {
            return false;
        };
        let tag = &rest[open + 1..open + close];
        rest = &rest[open + close + 1..];
        if tag.starts_with("!--") || tag.starts_with("?") {
            continue;
        }
        if let Some(name) = tag.strip_prefix('/') {
            match stack.pop() {
                Some(expected) if expected == name.trim() => {}
                _ => return false,
            }
        } else if tag.ends_with('/') {
            // self-closing
        } else {
            let name = tag.split_whitespace().next().unwrap_or("");
            if name.is_empty() {
                return false;
            }
            stack.push(name.to_string());
        }
    }
    stack.is_empty() && !rest.contains('>')
}

/// Runs the Table 4 experiment for one task family over `count` requests.
pub fn run_accuracy_experiment(
    vocab: Arc<Vocabulary>,
    task: AccuracyTask,
    count: usize,
    behavior: LlmBehavior,
) -> AccuracyResult {
    let backend: Arc<dyn ConstrainedBackend> = Arc::new(XGrammarBackend::new(Arc::clone(&vocab)));
    // Keep the simulated GPU almost free so the experiment is fast; accuracy
    // does not depend on latency.
    let profile = ModelProfile::llama31_8b_h100().scaled(0.0);
    let engine = ServingEngine::with_llm_behavior(
        Arc::clone(&backend),
        profile,
        ExecutionMode::Overlapped,
        behavior,
    );

    let cases: Vec<(Option<Grammar>, Vec<u8>, bool)> = match task {
        AccuracyTask::FunctionCalling => json_mode_eval_like(count, 0xACC)
            .into_iter()
            .map(|t| {
                let grammar =
                    xg_grammar::json_schema_to_grammar(&t.schema).expect("schema converts");
                (Some(grammar), t.reference, true)
            })
            .collect(),
        AccuracyTask::XmlGeneration => xml_tasks(count, 0xACC)
            .into_iter()
            .map(|t| (Some(xg_grammar::builtin::xml_grammar()), t.reference, false))
            .collect(),
    };

    let mut result = AccuracyResult {
        total: cases.len(),
        valid_unconstrained: 0,
        valid_constrained: 0,
    };
    // Request `i` is seeded with `i`, so each request makes its own
    // error-injection draw instead of every request repeating one.
    for (seed, (grammar, reference, is_json)) in (0u64..).zip(cases) {
        let validate = |bytes: &[u8]| {
            if is_json {
                is_valid_json(bytes)
            } else {
                is_valid_xml(bytes)
            }
        };
        // Unconstrained run.
        let unconstrained = EngineRequest {
            constraint: LaneConstraint::Unconstrained,
            prompt_tokens: 139,
            reference: reference.clone(),
            max_tokens: 512,
            seed,
        };
        let (results, _) = engine
            .run_batch(std::slice::from_ref(&unconstrained))
            .expect("unconstrained run cannot fail");
        if validate(&results[0].output) {
            result.valid_unconstrained += 1;
        }
        // Constrained run.
        let constrained = EngineRequest {
            constraint: grammar.into(),
            prompt_tokens: 139,
            reference,
            max_tokens: 512,
            seed,
        };
        let (results, _) = engine
            .run_batch(std::slice::from_ref(&constrained))
            .expect("constrained run compiles");
        if results[0].completed && validate(&results[0].output) {
            result.valid_constrained += 1;
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_tokenizer::test_vocabulary;

    #[test]
    fn xml_validator_accepts_and_rejects() {
        assert!(is_valid_xml(b"<a><b x=\"1\">hi</b><c/></a>"));
        assert!(!is_valid_xml(b"<a><b></a>"));
        assert!(!is_valid_xml(b"plain text"));
        assert!(!is_valid_xml(b"<a>"));
    }

    #[test]
    fn constrained_function_calling_reaches_full_validity() {
        let vocab = Arc::new(test_vocabulary(2000));
        let result = run_accuracy_experiment(
            vocab,
            AccuracyTask::FunctionCalling,
            6,
            LlmBehavior {
                prose_probability: 0.5,
                type_error_probability: 0.4,
                seed: 9,
            },
        );
        assert_eq!(result.total, 6);
        assert_eq!(
            result.valid_constrained, 6,
            "constrained outputs must all parse"
        );
        assert!(result.valid_unconstrained < result.valid_constrained);
    }

    /// Under the default behaviour, calibrated to the paper's ≈ 62 %
    /// parseable, some unconstrained outputs fail to parse and every
    /// constrained one parses.
    #[test]
    fn default_behavior_makes_some_unconstrained_outputs_invalid() {
        let vocab = Arc::new(test_vocabulary(2000));
        let result = run_accuracy_experiment(
            vocab,
            AccuracyTask::FunctionCalling,
            20,
            LlmBehavior::default(),
        );
        assert_eq!(result.total, 20);
        assert!(
            result.valid_unconstrained < result.total,
            "some unconstrained outputs must fail to parse: {result:?}"
        );
        assert_eq!(result.valid_constrained, result.total, "{result:?}");
    }

    #[test]
    fn constrained_xml_generation_is_well_formed() {
        let vocab = Arc::new(test_vocabulary(2000));
        let result = run_accuracy_experiment(
            vocab,
            AccuracyTask::XmlGeneration,
            4,
            LlmBehavior {
                prose_probability: 0.6,
                type_error_probability: 0.0,
                seed: 10,
            },
        );
        assert_eq!(result.valid_constrained, result.total);
    }
}
