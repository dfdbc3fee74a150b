//! lm-format-enforcer-style backend: per-step character walking, regular
//! structures only.
//!
//! lm-format-enforcer keeps a character-level automaton for the (regex-
//! expressible) structure and, at every decoding step, walks each vocabulary
//! token's characters through it from the current state — organized as a
//! character trie so shared prefixes are walked once. There is no
//! preprocessing phase and no support for context-free grammars; recursive
//! grammars are rejected at compile time, matching the original ("a
//! regex-based method that does not support CFG", paper §4.1). Every other
//! grammar's pushdown automaton unrolls exactly into the character-level
//! automaton (`unroll::unroll_grammar_to_fsa`).

use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

use xg_automata::{Fsa, StateId};
use xg_core::{AcceptError, CompiledConstraint, ConstraintMatcher, TokenBitmask};
use xg_grammar::Grammar;
use xg_tokenizer::{TokenId, Vocabulary};

use crate::unroll::{grammar_is_recursive, unroll_grammar_to_fsa};
use crate::{BackendError, ConstrainedBackend, Session};

/// lm-format-enforcer-style backend (character trie walking, regex only).
#[derive(Debug)]
pub struct FormatEnforcerBackend {
    vocab: Arc<Vocabulary>,
}

impl FormatEnforcerBackend {
    /// Creates the backend for a vocabulary.
    pub fn new(vocab: Arc<Vocabulary>) -> Self {
        FormatEnforcerBackend { vocab }
    }
}

impl ConstrainedBackend for FormatEnforcerBackend {
    fn name(&self) -> &'static str {
        "lm-format-enforcer (char trie)"
    }

    fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    fn compile(&self, grammar: &Grammar) -> Result<Arc<dyn CompiledConstraint>, BackendError> {
        if grammar_is_recursive(grammar) {
            return Err(BackendError::UnsupportedGrammar {
                backend: self.name(),
                reason: "recursive context-free grammars cannot be expressed as a regex".into(),
            });
        }
        // A non-recursive grammar nests each rule at most once, so as many
        // frames as rules unroll it exactly.
        let fsa = unroll_grammar_to_fsa(self.name(), grammar, grammar.len(), 500_000)?;
        Ok(Arc::new(EnforcerCompiled {
            fsa,
            trie: TokenTrie::build(&self.vocab),
            vocab: Arc::clone(&self.vocab),
        }))
    }
}

/// A byte trie over the vocabulary: each node stores its children and the
/// tokens that end exactly at that node.
#[derive(Debug)]
pub(crate) struct TokenTrie {
    nodes: Vec<TrieNode>,
}

#[derive(Debug, Default)]
struct TrieNode {
    children: Vec<(u8, u32)>,
    terminal_tokens: Vec<TokenId>,
}

impl TokenTrie {
    pub(crate) fn build(vocab: &Vocabulary) -> TokenTrie {
        let mut trie = TokenTrie {
            nodes: vec![TrieNode::default()],
        };
        for (token, bytes) in vocab.iter() {
            if vocab.is_special(token) {
                continue;
            }
            let mut cur = 0u32;
            for &b in bytes {
                cur = match trie.nodes[cur as usize]
                    .children
                    .iter()
                    .find(|(cb, _)| *cb == b)
                {
                    Some((_, child)) => *child,
                    None => {
                        let idx = trie.nodes.len() as u32;
                        trie.nodes.push(TrieNode::default());
                        trie.nodes[cur as usize].children.push((b, idx));
                        idx
                    }
                };
            }
            trie.nodes[cur as usize].terminal_tokens.push(token);
        }
        trie
    }

    /// Number of trie nodes (for statistics).
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Estimated heap memory: every node, the edge into it and the tokens
    /// ending at it.
    fn memory_bytes(&self) -> usize {
        let tokens: usize = self.nodes.iter().map(|n| n.terminal_tokens.len()).sum();
        self.nodes.len() * (std::mem::size_of::<TrieNode>() + std::mem::size_of::<(u8, u32)>())
            + tokens * std::mem::size_of::<TokenId>()
    }
}

/// A compiled grammar: the unrolled automaton and the vocabulary trie,
/// shared by every session.
struct EnforcerCompiled {
    fsa: Fsa,
    trie: TokenTrie,
    vocab: Arc<Vocabulary>,
}

impl fmt::Debug for EnforcerCompiled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnforcerCompiled")
            .field("fsa_states", &self.fsa.len())
            .field("trie_nodes", &self.trie.len())
            .finish()
    }
}

impl CompiledConstraint for EnforcerCompiled {
    fn new_session(self: Arc<Self>) -> Session {
        Box::new(EnforcerSession {
            state: BTreeSet::from([self.fsa.start()]),
            shared: self,
            terminated: false,
        })
    }

    fn memory_bytes(&self) -> usize {
        self.fsa.memory_bytes() + self.trie.memory_bytes()
    }
}

#[derive(Debug)]
struct EnforcerSession {
    shared: Arc<EnforcerCompiled>,
    state: BTreeSet<StateId>,
    /// End-of-sequence has been accepted.
    terminated: bool,
}

impl EnforcerSession {
    /// Depth-first walk of the token trie, carrying the automaton state set;
    /// every terminal token reached with a non-empty state set is allowed.
    fn walk(&self, trie_node: u32, states: &BTreeSet<StateId>, mask: &mut TokenBitmask) {
        let node = &self.shared.trie.nodes[trie_node as usize];
        for &token in &node.terminal_tokens {
            mask.allow(token);
        }
        for &(byte, child) in &node.children {
            let next = self.shared.fsa.step(states, byte);
            if !next.is_empty() {
                self.walk(child, &next, mask);
            }
        }
    }
}

impl ConstraintMatcher for EnforcerSession {
    fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.shared.vocab
    }

    fn fill_next_token_bitmask(&mut self, mask: &mut TokenBitmask) {
        mask.reject_all();
        if self.terminated {
            return;
        }
        // Skip the terminal tokens of the trie root (the empty string is not
        // a token) by walking children only; the root has no terminal tokens
        // in practice.
        self.walk(0, &self.state.clone(), mask);
        if self.can_terminate() {
            if let Some(eos) = self.shared.vocab.eos() {
                mask.allow(eos);
            }
        }
    }

    fn accept_token(&mut self, token: TokenId) -> Result<(), AcceptError> {
        if self.terminated {
            return Err(AcceptError::AlreadyTerminated);
        }
        if Some(token) == self.shared.vocab.eos() {
            if !self.can_terminate() {
                return Err(AcceptError::CannotTerminate);
            }
            self.terminated = true;
            return Ok(());
        }
        if self.shared.vocab.is_special(token) {
            return Err(AcceptError::SpecialTokenRejected { token });
        }
        let mut states = self.state.clone();
        for (i, &b) in self.shared.vocab.token_bytes(token).iter().enumerate() {
            states = self.shared.fsa.step(&states, b);
            if states.is_empty() {
                return Err(AcceptError::TokenRejected {
                    token,
                    matched_bytes: i,
                });
            }
        }
        self.state = states;
        Ok(())
    }

    fn can_terminate(&mut self) -> bool {
        !self.terminated && self.state.iter().any(|s| self.shared.fsa.is_final(*s))
    }

    fn is_terminated(&self) -> bool {
        self.terminated
    }

    fn reset(&mut self) {
        self.state = BTreeSet::from([self.shared.fsa.start()]);
        self.terminated = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{drive_session_bytes, small_vocab};

    #[test]
    fn enforcer_rejects_recursive_grammars() {
        let vocab = small_vocab();
        let backend = FormatEnforcerBackend::new(vocab);
        let err = backend
            .compile(&xg_grammar::builtin::json_grammar())
            .unwrap_err();
        assert!(matches!(err, BackendError::UnsupportedGrammar { .. }));
    }

    #[test]
    fn enforcer_enforces_regular_structures() {
        let vocab = small_vocab();
        let backend = FormatEnforcerBackend::new(Arc::clone(&vocab));
        let grammar = xg_grammar::parse_ebnf(
            r#"root ::= "{\"id\": " [0-9]+ ", \"ok\": " ("true" | "false") "}""#,
            "root",
        )
        .unwrap();
        let compiled = backend.compile(&grammar).unwrap();
        let mut session = compiled.new_session();
        assert!(drive_session_bytes(
            &vocab,
            &mut *session,
            br#"{"id": 17, "ok": true}"#
        ));
        assert!(session.can_terminate());
    }

    #[test]
    fn enforcer_masks_match_xgrammar_for_regular_grammars() {
        let vocab = small_vocab();
        let grammar = xg_grammar::parse_ebnf(r#"root ::= "v" [0-9]{2}"#, "root").unwrap();
        let enforcer = FormatEnforcerBackend::new(Arc::clone(&vocab));
        let xg = crate::XGrammarBackend::new(Arc::clone(&vocab));
        let mut a_session = enforcer.compile(&grammar).unwrap().new_session();
        let mut b_session = xg.compile(&grammar).unwrap().new_session();
        let mut a = TokenBitmask::new_all_rejected(vocab.len());
        let mut b = TokenBitmask::new_all_rejected(vocab.len());
        a_session.fill_next_token_bitmask(&mut a);
        b_session.fill_next_token_bitmask(&mut b);
        assert_eq!(a, b);

        // Advance both with a valid token and compare again.
        let v = vocab.iter().find(|(_, t)| *t == b"v").unwrap().0;
        a_session.accept_token(v).unwrap();
        b_session.accept_token(v).unwrap();
        a_session.fill_next_token_bitmask(&mut a);
        b_session.fill_next_token_bitmask(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn token_trie_shares_prefixes() {
        let vocab = small_vocab();
        let trie = TokenTrie::build(&vocab);
        // The trie must be smaller than the sum of token lengths (prefixes
        // are shared) but larger than the number of tokens.
        let total_bytes: usize = vocab.iter().map(|(_, t)| t.len()).sum();
        assert!(trie.len() < total_bytes);
        assert!(trie.len() > 256);
    }
}
