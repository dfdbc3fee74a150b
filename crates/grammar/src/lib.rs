//! Grammar front end for the XGrammar reproduction.
//!
//! This crate provides everything needed to *describe* a structure before it
//! is compiled into a byte-level pushdown automaton by `xg-automata` and
//! executed by `xg-core`:
//!
//! * a grammar AST ([`Grammar`], [`GrammarExpr`], [`CharClass`]) whose
//!   structural hash, [`Grammar::structural_fingerprint`], is computed once
//!   per grammar and keys the compiled-grammar cache,
//! * a static-analysis (lint) pass over grammars — reachability,
//!   productivity, nullability and structured [`Diagnostic`]s ([`analyze`]),
//! * a parser for the GBNF-style EBNF text format ([`parse_ebnf`]),
//! * a JSON Schema → grammar converter ([`json_schema_to_grammar`]),
//! * structural tags for agentic tool calling — free text interleaved with
//!   grammar-constrained tagged segments ([`StructuralTag`], [`TagSpec`],
//!   [`TagContent`]),
//! * the built-in grammars used in the paper's evaluation
//!   ([`builtin::json_grammar`], [`builtin::xml_grammar`],
//!   [`builtin::python_dsl_grammar`]).
//!
//! # Examples
//!
//! ```
//! use xg_grammar::parse_ebnf;
//!
//! let grammar = parse_ebnf(r#"
//!     root  ::= "[" item ("," item)* "]"
//!     item  ::= [0-9]+
//! "#, "root")?;
//! assert_eq!(grammar.rules().len(), 2);
//! # Ok::<(), xg_grammar::GrammarError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod ast;
mod bounded_number;
pub mod builtin;
mod display;
mod ebnf;
mod error;
mod formats;
mod json_schema;
mod pattern;
mod structural_tag;
mod syntax;

pub use analysis::{analyze, Diagnostic, DiagnosticCode, GrammarAnalysis, Severity};
pub use ast::{
    char_class, ByteClass, CharClass, CharRange, Grammar, GrammarBuilder, GrammarExpr, Rule, RuleId,
};
pub use ebnf::parse_ebnf;
pub use error::{GrammarError, Result};
pub use formats::SUPPORTED_FORMATS;
pub use json_schema::{
    json_schema_to_grammar, json_schema_to_grammar_with_options, JsonSchemaOptions,
    WhitespaceConfig, ANNOTATION_KEYWORDS, SUPPORTED_KEYWORDS,
};
pub use pattern::regex_pattern_to_expr;
pub use structural_tag::{
    append_free_text_tail, DispatchDelta, StructuralTag, TagContent, TagSpec,
};
