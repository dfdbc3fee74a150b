//! XGrammar core engine (reproduction): flexible and efficient structured
//! generation for large language models.
//!
//! This crate implements the paper's primary contribution:
//!
//! * the **adaptive token mask cache** (§3.1): per-automaton-node
//!   classification of the vocabulary into context-independent and
//!   context-dependent tokens, stored in accept-heavy / reject-heavy / bitset
//!   form ([`MaskCache`], [`NodeMaskEntry`]),
//! * **context expansion** (§3.2): expanded-suffix automata prune
//!   context-dependent tokens during preprocessing (automata extraction lives
//!   in `xg-automata`, its application in [`mask_cache`](MaskCache)
//!   construction),
//! * the **persistent execution stack** (§3.3): all matching stacks live in
//!   one shared tree with O(1) branching and rollback (crate-private; a
//!   [`GrammarMatcher`]'s rollback is its public face),
//! * the **grammar matcher and compiler** used by serving engines
//!   ([`GrammarCompiler`], [`CompiledGrammar`], [`GrammarMatcher`],
//!   [`TokenBitmask`]), including jump-forward string detection (Appendix B),
//! * the **compile-time refusal** of a grammar whose root derives no string
//!   (from [`xg_grammar::analyze`], once per compiled grammar, on the checked
//!   path [`GrammarCompiler::compile_grammar_checked`]) and the on-demand
//!   vocabulary-aware dead-state scan over a compiled automaton
//!   ([`dead_states`]),
//! * the **serving concurrency layer** (§5): one budgeted LRU cache type with
//!   build-once semantics under contention ([`ArtifactCache`], instantiated
//!   as [`GrammarCache`] and [`TagDispatchCache`]),
//! * the **[`ConstraintMatcher`] trait**: one runtime interface for every
//!   constrained lane kind, and **[`CompiledConstraint`]**, the one trait of
//!   a compiled artifact that mints a lane's matcher (a serving backend hands
//!   the cached artifact itself to the engine), so engines drive boxed trait
//!   objects instead of branching per matcher or artifact type,
//! * **tag dispatch** for agentic tool calling: free text passes through
//!   unconstrained (scanned by an Aho–Corasick trigger automaton) while
//!   trigger strings dispatch into constrained tagged segments
//!   ([`StructuralTagMatcher`], [`CompiledTagDispatch`]) that close at the
//!   first point their grammar can end, with rollback and jump-forward across
//!   mode boundaries and boundary-union masks at segment ends.
//!
//! # Quick start
//!
//! ```
//! use std::sync::Arc;
//! use xg_core::{ConstraintMatcher, GrammarCompiler, GrammarMatcher, TokenBitmask};
//! use xg_tokenizer::test_vocabulary;
//!
//! // 1. Compile a grammar against a vocabulary (expensive, cached, shared).
//! let vocab = Arc::new(test_vocabulary(1000));
//! let compiler = GrammarCompiler::new(Arc::clone(&vocab));
//! let compiled = compiler.compile_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root")?;
//!
//! // 2. Per request: create a matcher and alternate mask generation with
//! //    token acceptance (the operations are `ConstraintMatcher` methods).
//! let mut matcher = GrammarMatcher::new(compiled);
//! let mut mask = TokenBitmask::new_all_rejected(vocab.len());
//! matcher.fill_next_token_bitmask(&mut mask);
//! assert!(mask.count_allowed() > 0);
//! # Ok::<(), xg_grammar::GrammarError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod compiler;
mod constraint;
mod error;
mod executor;
mod grammar_cache;
mod lint;
mod mask;
mod mask_cache;
mod matcher;
mod persistent_stack;
mod tag_dispatch;
mod tag_matcher;

pub use compiler::{CompiledGrammar, CompilerConfig, GrammarCompiler};
pub use constraint::{CompiledConstraint, ConstraintMatcher};
pub use error::{AcceptError, RollbackError};
pub use grammar_cache::{
    ArtifactCache, CacheBudget, CacheStats, GrammarCache, GrammarCacheKey, TagDispatchCache,
};
pub use lint::dead_states;
pub use mask::TokenBitmask;
pub use mask_cache::{
    build_mask_cache, MaskCache, MaskCacheBuildOptions, MaskCacheStats, NodeMaskEntry,
};
pub use matcher::{GrammarMatcher, MatcherStats, DEFAULT_MAX_ROLLBACK_TOKENS};
pub use tag_dispatch::{CompiledTagDispatch, CompiledTrigger};
pub use tag_matcher::{DispatchMode, StructuralTagMatcher, TagDispatchStats};
