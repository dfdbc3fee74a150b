//! Synthetic workload generators for the XGrammar reproduction.
//!
//! The paper evaluates on the `NousResearch/json-mode-eval` dataset (JSON
//! Schema / function calling), plus synthetic XML and Python-DSL corpora.
//! None of those can be bundled here, so this crate generates deterministic
//! equivalents with matching size statistics (≈139 prompt tokens and ≈53
//! output tokens per request — paper §4.2):
//!
//! * [`json_mode_eval_like`] — function-calling tasks: a JSON Schema, a
//!   prompt, and a reference answer that satisfies the schema,
//! * [`tool_call_tasks`] — agentic tool-calling transcripts: free prose
//!   interleaved with `<function=NAME>{json}</function>` segments plus the
//!   structural-tag description of the function registry,
//! * [`agent_sessions`] — multi-turn agent sessions whose tool catalogs
//!   mutate between turns ([`DispatchDelta`](xg_grammar::DispatchDelta)
//!   adds/removes), the dynamic-registry workload,
//! * [`xml_tasks`] — XML code-generation tasks for the CFG (XML) workload,
//! * [`python_dsl_tasks`] — Python-DSL generation tasks,
//! * [`json_documents`] — free-form JSON documents for the CFG (JSON)
//!   workload,
//! * [`schema_corpus`] — a JSON-Schema conformance corpus grouped by
//!   converter feature (pattern, format, bounds, `allOf`, `$ref`, ...) with
//!   known-valid and known-invalid instances,
//! * [`pathological_corpus`] — defective grammars with known lint verdicts,
//!   ground truth for the `grammar_lint` experiment and the static-analysis
//!   pass.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod agent_sessions;
mod json_tasks;
mod pathological_corpus;
mod python_tasks;
mod schema_corpus;
mod tool_call_tasks;
mod xml_tasks_mod;

pub use agent_sessions::{
    agent_catalog, agent_sessions, agent_tag_spec, agent_tool, overlapping_catalogs, AgentSession,
    AgentTurn,
};
pub use json_tasks::{json_documents, json_mode_eval_like, FunctionCallTask};
pub use pathological_corpus::{
    builder_rejections, pathological_corpus, BuilderRejection, PathologicalCase,
};
pub use python_tasks::python_dsl_tasks;
pub use schema_corpus::{schema_corpus, SchemaCase, SCHEMA_FEATURES};
pub use tool_call_tasks::{
    tool_call_tasks, ToolCallTask, ToolFunction, TOOL_CALL_END, TOOL_CALL_TRIGGER,
};
pub use xml_tasks_mod::xml_tasks;

/// A generic generation task: a natural-language prompt plus the reference
/// structured answer the simulated LLM will try to produce.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerationTask {
    /// Natural-language instruction shown to the (simulated) model.
    pub prompt: String,
    /// Reference structured output (bytes of the target document).
    pub reference: Vec<u8>,
}

impl GenerationTask {
    /// Creates a task.
    pub fn new(prompt: impl Into<String>, reference: impl Into<Vec<u8>>) -> Self {
        GenerationTask {
            prompt: prompt.into(),
            reference: reference.into(),
        }
    }
}
