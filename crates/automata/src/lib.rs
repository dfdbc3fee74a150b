//! Byte-level automata substrate for the XGrammar reproduction.
//!
//! This crate compiles grammars from `xg-grammar` into the byte-level
//! pushdown automaton (PDA) the paper's engine executes, and provides the
//! automaton-level machinery the core engine builds on:
//!
//! * [`ByteRange`] — the label of every automaton edge, one byte of a range
//!   (character classes are lowered to UTF-8 byte-range sequences),
//! * [`Fsa`] — a small byte-level NFA, walked from any of its states: the
//!   expanded-suffix automaton and the PDA the Outlines and
//!   lm-format-enforcer baselines unroll,
//! * [`Pda`] — the PDA data structure (per-rule automata, byte edges and
//!   rule-reference edges),
//! * [`build_pda`] — grammar → PDA compilation including rule inlining,
//!   epsilon elimination and node merging (paper §3.4),
//! * [`intern_states`] — hashcons interning of structurally identical PDA
//!   states (global dedup, complementing the local node merging),
//! * [`extract_all_suffix_fsas`] — the one [`SuffixAutomaton`] of a grammar
//!   for context expansion (paper §3.2, Algorithm 2): an ε-free automaton
//!   over the PDA's nodes, entered at a state per rule,
//! * [`SimpleMatcher`] — a reference multi-stack executor (the "naive PDA"
//!   baseline),
//! * [`AhoCorasick`] — an Aho–Corasick automaton (plus the naive reference
//!   scanner, [`NaiveMultiPattern`]) for trigger scanning in structural-tag
//!   dispatch.
//!
//! Every public item is re-exported here, at the crate root; the modules
//! themselves are private, so each item has one path.
//!
//! # Examples
//!
//! ```
//! use xg_automata::{build_pda_default, SimpleMatcher};
//!
//! let grammar = xg_grammar::builtin::json_grammar();
//! let pda = build_pda_default(&grammar);
//! assert!(SimpleMatcher::new(&pda).accepts(br#"{"answer": 42}"#));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod build;
mod exec;
mod fsa;
mod intern;
mod multipattern;
mod optimize;
mod pda;
mod suffix;
mod utf8;

pub use build::{build_pda, build_pda_default, inline_fragment_rules, PdaBuildOptions};
pub use exec::{MatchStack, SimpleMatcher, StepResult};
pub use fsa::{Fsa, StateId, SuffixMatch};
pub use intern::intern_states;
pub use multipattern::{AcState, AhoCorasick, NaiveMultiPattern};
pub use pda::{NodeId, Pda, PdaEdge, PdaNode, PdaRule, PdaRuleId, PdaStats};
pub use suffix::{extract_all_suffix_fsas, SuffixAutomaton};
pub use utf8::ByteRange;
