//! Facade crate for the XGrammar reproduction: a single dependency exposing
//! the full public API.
//!
//! The implementation lives in focused crates; this crate re-exports them so
//! downstream users can write `use xgrammar::{GrammarCompiler, GrammarMatcher}`
//! and not think about the workspace layout:
//!
//! * [`grammar`] — grammar AST, EBNF parser, JSON-Schema conversion,
//!   built-in grammars (`xg-grammar`),
//! * [`automata`] — byte-level FSA/PDA construction and optimizations
//!   (`xg-automata`),
//! * [`tokenizer`] — vocabularies, synthetic vocabularies
//!   (`xg-tokenizer`),
//! * [`engine`] — the serving layer: [`engine::ServingEngine`] with
//!   overlapped execution, mixed-constraint lanes and engine-level
//!   jump-forward decoding ([`engine::JumpForwardPolicy`]) (`xg-engine`),
//! * the core engine types re-exported at the crate root (`xg-core`),
//!   including the one artifact cache type ([`ArtifactCache`], as
//!   [`GrammarCache`] and [`TagDispatchCache`], with [`CacheBudget`] and
//!   [`CacheStats`]), and [`CompilerConfig`], one of the paper's five
//!   Table 3 rows,
//! * the lints: [`GrammarCompiler::compile_grammar_checked`] (behind
//!   `compile_ebnf` and `compile_json_schema`) refuses a grammar whose root
//!   derives no string; [`analyze`] (every grammar-level finding) and
//!   [`dead_states`] (states no token of the vocabulary leaves) run only
//!   when called.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use xgrammar::{ConstraintMatcher, GrammarCompiler, GrammarMatcher, TokenBitmask};
//!
//! let vocab = Arc::new(xgrammar::tokenizer::test_vocabulary(1000));
//! let compiler = GrammarCompiler::new(Arc::clone(&vocab));
//! let compiled = compiler.compile_ebnf(r#"root ::= "yes" | "no""#, "root")?;
//! let mut matcher = GrammarMatcher::new(compiled);
//! let mut mask = TokenBitmask::new_all_rejected(vocab.len());
//! matcher.fill_next_token_bitmask(&mut mask);
//! assert!(mask.count_allowed() > 0);
//! # Ok::<(), xgrammar::GrammarError>(())
//! ```

#![warn(missing_docs)]

/// Grammar front end (re-export of `xg-grammar`).
pub mod grammar {
    pub use xg_grammar::*;
}

/// Automata substrate (re-export of `xg-automata`).
pub mod automata {
    pub use xg_automata::*;
}

/// Tokenizer / vocabulary substrate (re-export of `xg-tokenizer`).
pub mod tokenizer {
    pub use xg_tokenizer::*;
}

/// Serving engine: batched constrained decoding with overlapped execution
/// and jump-forward decoding (re-export of `xg-engine`).
pub mod engine {
    pub use xg_engine::*;
}

pub use xg_core::{
    dead_states, AcceptError, ArtifactCache, CacheBudget, CacheStats, CompiledConstraint,
    CompiledGrammar, CompiledTagDispatch, CompiledTrigger, CompilerConfig, ConstraintMatcher,
    DispatchMode, GrammarCache, GrammarCacheKey, GrammarCompiler, GrammarMatcher, MaskCache,
    MaskCacheStats, MatcherStats, NodeMaskEntry, RollbackError, StructuralTagMatcher,
    TagDispatchCache, TagDispatchStats, TokenBitmask, DEFAULT_MAX_ROLLBACK_TOKENS,
};
pub use xg_grammar::{
    analyze, builtin, json_schema_to_grammar, json_schema_to_grammar_with_options, parse_ebnf,
    regex_pattern_to_expr, ByteClass, Diagnostic, DiagnosticCode, DispatchDelta, Grammar,
    GrammarAnalysis, GrammarError, GrammarExpr, JsonSchemaOptions, Severity, StructuralTag,
    TagContent, TagSpec, WhitespaceConfig, ANNOTATION_KEYWORDS, SUPPORTED_FORMATS,
    SUPPORTED_KEYWORDS,
};
pub use xg_tokenizer::{TokenId, Vocabulary};

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        let grammar = crate::parse_ebnf(r#"root ::= "x""#, "root").unwrap();
        assert_eq!(grammar.rules().len(), 1);
    }

    #[test]
    fn facade_exposes_schema_keyword_surface() {
        assert!(crate::SUPPORTED_KEYWORDS.contains(&"pattern"));
        assert!(crate::ANNOTATION_KEYWORDS.contains(&"$comment"));
        assert!(crate::SUPPORTED_FORMATS.contains(&"uuid"));
        assert_eq!(
            crate::WhitespaceConfig::default(),
            crate::WhitespaceConfig::Flexible
        );
        let options = crate::JsonSchemaOptions::default();
        assert!(!options.lenient);
        let expr = crate::regex_pattern_to_expr("^[a-z]{2}$", "#").unwrap();
        assert!(!matches!(expr, crate::GrammarExpr::Empty));
    }

    #[test]
    fn facade_exposes_structural_tags() {
        use crate::ConstraintMatcher;
        use std::sync::Arc;
        let vocab = Arc::new(crate::tokenizer::test_vocabulary(600));
        let compiler = crate::GrammarCompiler::new(Arc::clone(&vocab));
        let tag = crate::StructuralTag::new(vec![crate::TagSpec {
            begin: "<n>".into(),
            content: crate::TagContent::Ebnf {
                text: "root ::= [0-9]+".into(),
                root: "root".into(),
            },
            end: "</n>".into(),
        }]);
        let compiled = compiler.compile_tag_dispatch(&tag).unwrap();
        let mut matcher = crate::StructuralTagMatcher::new(compiled);
        assert_eq!(matcher.mode(), crate::DispatchMode::FreeText);
        matcher.accept_bytes(b"free text <n>42</n> more").unwrap();
        assert!(matcher.can_terminate());
    }

    #[test]
    fn facade_exposes_incremental_registry_updates() {
        use std::sync::Arc;
        let vocab = Arc::new(crate::tokenizer::test_vocabulary(600));
        let compiler = crate::GrammarCompiler::new(Arc::clone(&vocab))
            .with_dispatch_cache_config(crate::CacheBudget::for_dispatches());
        let spec = |name: &str| crate::TagSpec {
            begin: format!("<{name}>"),
            content: crate::TagContent::Ebnf {
                text: "root ::= [0-9]+".into(),
                root: "root".into(),
            },
            end: format!("</{name}>"),
        };
        let base = compiler
            .compile_tag_dispatch(&crate::StructuralTag::new(vec![spec("a")]))
            .unwrap();
        let updated = compiler
            .update_tag_dispatch(&base, &crate::DispatchDelta::AddTag(spec("b")))
            .unwrap();
        assert_eq!(updated.triggers().len(), 2);
        assert!(compiler.has_cached_tag_dispatch_for(updated.source_tag()));
        let stats = compiler.dispatch_cache().stats();
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn facade_exposes_the_serving_engine_with_jump_forward() {
        use std::sync::Arc;
        use xg_baselines::XGrammarBackend;

        let vocab = Arc::new(crate::tokenizer::test_vocabulary(600));
        let backend = Arc::new(XGrammarBackend::new(Arc::clone(&vocab)));
        let engine = crate::engine::ServingEngine::new(
            backend,
            crate::engine::ModelProfile::llama31_8b_h100().scaled(0.01),
            crate::engine::ExecutionMode::Serial,
        )
        .with_jump_forward(crate::engine::JumpForwardPolicy::Engine);
        let req = crate::engine::EngineRequest {
            constraint: crate::engine::LaneConstraint::Grammar(
                crate::parse_ebnf(r#"root ::= "{\"ok\": " ("true" | "false") "}""#, "root")
                    .unwrap(),
            ),
            prompt_tokens: 4,
            reference: br#"{"ok": true}"#.to_vec(),
            max_tokens: 32,
            seed: 0,
        };
        let (results, metrics) = engine.run_batch(std::slice::from_ref(&req)).unwrap();
        assert_eq!(results[0].output, br#"{"ok": true}"#.to_vec());
        assert!(metrics.forced_chars > 0, "the forced prefix is jumped");
    }

    #[test]
    fn facade_exposes_serving_concurrency_layer() {
        use std::sync::Arc;
        let vocab = Arc::new(crate::tokenizer::test_vocabulary(600));
        let cache = Arc::new(crate::GrammarCache::new(crate::CacheBudget::for_grammars()));
        let compiler = crate::GrammarCompiler::with_cache(
            Arc::clone(&vocab),
            crate::CompilerConfig::default(),
            Arc::clone(&cache),
        );
        compiler.compile_ebnf(r#"root ::= "x""#, "root").unwrap();
        assert_eq!(cache.stats().misses, 1);
    }
}
