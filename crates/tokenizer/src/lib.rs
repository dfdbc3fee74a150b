//! Tokenizer / vocabulary substrate for the XGrammar reproduction.
//!
//! The grammar engine validates *token byte strings* against a pushdown
//! automaton; this crate provides those byte strings:
//!
//! * [`Vocabulary`] — the token table (byte strings + special tokens), which
//!   keeps its sorted index and fingerprint once computed,
//! * [`synthetic_vocabulary`] — deterministic generation of large,
//!   realistic vocabularies (standing in for the Llama-3.1 tokenizer, which
//!   cannot be redistributed here),
//! * [`SortedVocabulary`] — lexicographically sorted index with shared-prefix
//!   statistics and the sorted tokens' bytes in one arena, used by the
//!   mask-cache preprocessing of `xg-core`.
//!
//! # Examples
//!
//! ```
//! use xg_tokenizer::test_vocabulary;
//!
//! let vocab = test_vocabulary(2000);
//! let sorted = vocab.sorted(); // built once, then kept
//! assert_eq!(sorted.len(), vocab.len() - 2); // specials excluded
//! assert!(std::ptr::eq(sorted, vocab.sorted()));
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod sorted;
mod synthetic;
mod vocab;

pub use sorted::{byte_class, byte_class_members, common_prefix_len, SortedVocabulary};
pub use synthetic::{synthetic_vocabulary, test_vocabulary, SyntheticVocabConfig};
pub use vocab::{SpecialToken, TokenId, Vocabulary};
