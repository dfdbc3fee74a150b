//! Baseline constrained-decoding engines used as comparators in the paper's
//! evaluation (Figure 9, Figure 10, Table 3).
//!
//! Three families of baselines are reimplemented as algorithmic equivalents
//! of the systems the paper compares against (the originals are external
//! Python/C++ projects this offline, path-dependency-only workspace cannot
//! link; README, *Workspace layout*):
//!
//! * [`NaivePdaBackend`] — interprets the pushdown automaton directly and
//!   scans the *entire* vocabulary at every step with copied stacks. This is
//!   the behaviour of llama.cpp's grammar engine, the comparator of
//!   Figures 9 and 10. (Table 3's "PDA Baseline" row is
//!   `xg_core::CompilerConfig::PdaBaseline` on the XGrammar matcher.)
//! * [`FsmIndexBackend`] — an Outlines-style FSM approach: the grammar's
//!   pushdown automaton is unrolled into a finite automaton up to a bounded
//!   stack depth, a lazy DFA is built over it, and for every DFA state the
//!   set of allowed tokens is computed by scanning the vocabulary once and
//!   memoized. Mask generation is then a table lookup, but unbounded
//!   recursion cannot be expressed and every newly visited state costs a
//!   full vocabulary scan.
//! * [`FormatEnforcerBackend`] — an lm-format-enforcer-style character-level
//!   walker: no precomputation at all; every step walks every vocabulary
//!   token through the automaton from the current state. Like the original,
//!   it only supports regular (non-recursive) structures.
//!
//! The three baselines compile a grammar through
//! `xg_automata::build_pda_default`, the pushdown automaton XGrammar's
//! default configuration executes; the two regex-style baselines unroll it
//! into a finite automaton, so Figures 9 and 10 compare runtime algorithms
//! over one automaton, not two grammar front ends.
//!
//! All backends implement the common [`ConstrainedBackend`] interface. A
//! compile returns xg-core's one compiled-artifact trait,
//! `xg_core::CompiledConstraint`: for XGrammar the cached `CompiledGrammar`
//! or `CompiledTagDispatch` itself, for a baseline its compiled form here.
//! Every per-request session — the three baselines' here, XGrammar's grammar
//! and structural-tag matchers in `xg-core` — implements the one per-lane
//! runtime trait, `xg_core::ConstraintMatcher`, reached through the owning
//! [`Session`] handle. The benchmark harness and the serving engine swap
//! backends freely and never branch on the backend kind; operations a
//! baseline lacks (raw bytes, rollback, jump-forward) are the trait's
//! "unsupported" defaults.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod format_enforcer;
mod fsm_index;
mod naive_pda;
mod unroll;
mod xgrammar_backend;

pub use format_enforcer::FormatEnforcerBackend;
pub use fsm_index::FsmIndexBackend;
pub use naive_pda::NaivePdaBackend;
pub use xgrammar_backend::XGrammarBackend;

use std::fmt;
use std::sync::Arc;

use xg_core::{CacheStats, CompiledConstraint, ConstraintMatcher};
use xg_grammar::{DispatchDelta, Grammar, StructuralTag};
use xg_tokenizer::Vocabulary;

/// Errors produced when a backend cannot handle a grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BackendError {
    /// The grammar is recursive (or exceeds the unrolling depth) and this
    /// backend only supports regular structures.
    UnsupportedGrammar {
        /// Backend name.
        backend: &'static str,
        /// Explanation.
        reason: String,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::UnsupportedGrammar { backend, reason } => {
                write!(f, "backend {backend} cannot handle this grammar: {reason}")
            }
        }
    }
}

impl std::error::Error for BackendError {}

/// A constrained-decoding backend: compiles grammars into per-request
/// sessions.
pub trait ConstrainedBackend: Send + Sync + fmt::Debug {
    /// Human-readable backend name (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// The vocabulary the backend was built for.
    fn vocabulary(&self) -> &Arc<Vocabulary>;

    /// Prepares a grammar, returning the compiled constraint that mints
    /// per-request sessions.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::UnsupportedGrammar`] if the backend cannot
    /// express the grammar (e.g. recursion in a regex-only backend).
    fn compile(&self, grammar: &Grammar) -> Result<Arc<dyn CompiledConstraint>, BackendError>;

    /// Prepares a structural-tag description (free text interleaved with
    /// tagged, grammar-constrained segments). Only engines with a tag
    /// dispatch layer support this; baselines return an error by default.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::UnsupportedGrammar`] if the backend has no
    /// structural-tag support or the description is invalid.
    fn compile_structural(
        &self,
        tag: &StructuralTag,
    ) -> Result<Arc<dyn CompiledConstraint>, BackendError> {
        let _ = tag;
        Err(BackendError::UnsupportedGrammar {
            backend: self.name(),
            reason: "structural tags are not supported by this backend".into(),
        })
    }

    /// Applies a registry mutation to an already-served structural-tag
    /// description: compiles (or fetches) `current`, applies `delta`
    /// incrementally — recompiling only the touched trigger — and returns
    /// the mutated description together with its compiled constraint, ready
    /// for the next turn's requests. Only engines with an incremental tag
    /// dispatch layer support this; baselines return an error by default.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::UnsupportedGrammar`] if the backend has no
    /// incremental structural-tag support, or if the delta is invalid
    /// (duplicate tag, missing tag, or a dead added trigger under strict
    /// lint).
    fn update_structural(
        &self,
        current: &StructuralTag,
        delta: &DispatchDelta,
    ) -> Result<(StructuralTag, Arc<dyn CompiledConstraint>), BackendError> {
        let _ = (current, delta);
        Err(BackendError::UnsupportedGrammar {
            backend: self.name(),
            reason: "incremental structural-tag updates are not supported by this backend".into(),
        })
    }

    /// Compiled-grammar cache counters, for backends that memoize compiled
    /// grammars (the serving engine reports these per batch). Baselines
    /// without a cache return `None`.
    fn cache_stats(&self) -> Option<CacheStats> {
        None
    }

    /// Returns `true` if the backend already holds a compiled form of
    /// `grammar`, without compiling anything. The serving engine's admission
    /// control uses this to tell cache-hit admissions (near-zero compile
    /// latency) from cold compiles. Backends without a cache return `false`.
    fn is_cached(&self, grammar: &Grammar) -> bool {
        let _ = grammar;
        false
    }

    /// Returns `true` if the backend already holds a compiled form of the
    /// structural-tag description `tag`. Backends without structural-tag
    /// support (or without a memo) return `false`.
    fn is_cached_structural(&self, tag: &StructuralTag) -> bool {
        let _ = tag;
        false
    }
}

/// One lane's matching state, handed out by
/// `CompiledConstraint::new_session`: a matcher built for the lane, seen
/// through `dyn` [`ConstraintMatcher`] — the one per-lane runtime interface,
/// which the baseline sessions implement directly.
pub type Session = Box<dyn ConstraintMatcher>;

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use xg_core::TokenBitmask;
    use xg_tokenizer::test_vocabulary;

    /// Drives a session over the byte string `text` by feeding it the
    /// single-byte tokens of the synthetic vocabulary, asserting every token
    /// is allowed by the freshly generated mask before accepting it.
    pub fn drive_session_bytes(
        vocab: &Vocabulary,
        session: &mut dyn ConstraintMatcher,
        text: &[u8],
    ) -> bool {
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        for &b in text {
            let token = vocab
                .iter()
                .find(|(_, t)| *t == [b])
                .map(|(id, _)| id)
                .expect("single-byte token exists");
            session.fill_next_token_bitmask(&mut mask);
            if !mask.is_allowed(token) || session.accept_token(token).is_err() {
                return false;
            }
        }
        true
    }

    pub fn small_vocab() -> Arc<Vocabulary> {
        Arc::new(test_vocabulary(600))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::small_vocab;
    use xg_core::TokenBitmask;

    #[test]
    fn every_compiled_baseline_charges_what_it_holds() {
        let vocab = small_vocab();
        let grammar = xg_grammar::parse_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root").unwrap();
        // Only the FSM index builds anything at decode time: its token index.
        let backends: [(Box<dyn ConstrainedBackend>, bool); 3] = [
            (Box::new(NaivePdaBackend::new(Arc::clone(&vocab))), false),
            (Box::new(FsmIndexBackend::new(Arc::clone(&vocab))), true),
            (
                Box::new(FormatEnforcerBackend::new(Arc::clone(&vocab))),
                false,
            ),
        ];
        for (backend, grows_while_decoding) in &backends {
            let compiled = backend.compile(&grammar).unwrap();
            let before = compiled.memory_bytes();
            assert!(before > 0, "{}", backend.name());
            let mut mask = TokenBitmask::new_all_rejected(vocab.len());
            Arc::clone(&compiled)
                .new_session()
                .fill_next_token_bitmask(&mut mask);
            assert_eq!(
                compiled.memory_bytes() > before,
                *grows_while_decoding,
                "{}",
                backend.name()
            );
        }
    }
}
