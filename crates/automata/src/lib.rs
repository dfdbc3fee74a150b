//! Byte-level automata substrate for the XGrammar reproduction.
//!
//! This crate compiles grammars from `xg-grammar` into the byte-level
//! pushdown automaton (PDA) the paper's engine executes, and provides the
//! automaton-level machinery the core engine builds on:
//!
//! * [`utf8`] — compilation of Unicode ranges into UTF-8 byte-range
//!   sequences, so every automaton edge consumes exactly one byte,
//! * [`fsa`] — a small byte-level NFA used for expanded-suffix automata and
//!   by the regex/FSM baseline,
//! * [`pda`] — the PDA data structure (per-rule automata, byte edges and
//!   rule-reference edges),
//! * [`build_pda`] — grammar → PDA compilation including rule inlining and
//!   epsilon elimination,
//! * [`optimize`] — node merging (paper §3.4),
//! * [`intern_states`] — hashcons interning of structurally identical PDA
//!   states (global dedup, complementing the local node merging),
//! * [`extract_suffix_fsa`] — expanded-suffix extraction for context
//!   expansion (paper §3.2, Algorithm 2),
//! * [`SimpleMatcher`] — a reference multi-stack executor (the "naive PDA"
//!   baseline),
//! * [`multipattern`] — an Aho–Corasick automaton (plus the naive reference
//!   scanner) for trigger scanning in structural-tag dispatch.
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

pub mod build;
pub mod exec;
pub mod fsa;
pub mod intern;
pub mod multipattern;
pub mod optimize;
pub mod pda;
pub mod suffix;
pub mod utf8;

pub use build::{build_pda, build_pda_default, inline_fragment_rules, PdaBuildOptions};
pub use exec::{epsilon_closure, MatchStack, SimpleMatcher, StepResult};
pub use fsa::{Fsa, StateId, SuffixMatch};
pub use intern::intern_states;
pub use multipattern::{AcState, AhoCorasick, NaiveMultiPattern};
pub use pda::{NodeId, Pda, PdaEdge, PdaNode, PdaRule, PdaRuleId, PdaStats};
pub use suffix::{extract_all_suffix_fsas, extract_suffix_fsa};
pub use utf8::{utf8_sequences, ByteRange, Utf8Sequence};
