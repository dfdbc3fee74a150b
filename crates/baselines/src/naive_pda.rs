//! The naive PDA baseline: full-vocabulary scan per decoding step.
//!
//! This reproduces the strategy of llama.cpp's grammar engine, the
//! comparator of Figures 9 and 10 (Table 3's "PDA Baseline" row is
//! `CompilerConfig::PdaBaseline` in `xg-core`): the pushdown automaton is
//! interpreted directly; at every step each vocabulary token is checked by
//! cloning the current matching stacks and pushing the token's bytes through
//! them. No token classification, no cache, no persistent stack, no prefix
//! sharing.

use std::fmt;
use std::sync::Arc;

use xg_automata::{build_pda_default, Pda, SimpleMatcher, StepResult};
use xg_core::{AcceptError, CompiledConstraint, ConstraintMatcher, TokenBitmask};
use xg_grammar::Grammar;
use xg_tokenizer::{TokenId, Vocabulary};

use crate::{BackendError, ConstrainedBackend, Session};

/// Baseline backend interpreting the PDA with full-vocabulary scans.
#[derive(Debug)]
pub struct NaivePdaBackend {
    vocab: Arc<Vocabulary>,
}

impl NaivePdaBackend {
    /// Creates the backend for a vocabulary.
    pub fn new(vocab: Arc<Vocabulary>) -> Self {
        NaivePdaBackend { vocab }
    }
}

impl ConstrainedBackend for NaivePdaBackend {
    fn name(&self) -> &'static str {
        "llama.cpp-Grammar (naive PDA)"
    }

    fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    fn compile(&self, grammar: &Grammar) -> Result<Arc<dyn CompiledConstraint>, BackendError> {
        Ok(Arc::new(NaiveCompiled {
            pda: build_pda_default(grammar),
            vocab: Arc::clone(&self.vocab),
        }))
    }
}

struct NaiveCompiled {
    pda: Pda,
    vocab: Arc<Vocabulary>,
}

impl fmt::Debug for NaiveCompiled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NaiveCompiled")
            .field("nodes", &self.pda.node_count())
            .finish()
    }
}

impl CompiledConstraint for NaiveCompiled {
    fn new_session(self: Arc<Self>) -> Session {
        Box::new(NaiveSession {
            stacks: vec![vec![self.pda.root_start()]],
            compiled: self,
            terminated: false,
        })
    }

    /// The automaton it holds, shared by its sessions.
    fn memory_bytes(&self) -> usize {
        self.pda.memory_bytes()
    }
}

/// Per-request session: the current matching stacks are kept as plain owned
/// vectors (no sharing, no persistence), exactly like the baseline engines.
/// The automaton is read through the compiled constraint, not copied.
#[derive(Debug)]
struct NaiveSession {
    compiled: Arc<NaiveCompiled>,
    stacks: Vec<xg_automata::MatchStack>,
    /// End-of-sequence has been accepted.
    terminated: bool,
}

impl NaiveSession {
    fn matcher(&self) -> SimpleMatcher<'_> {
        SimpleMatcher::from_stacks(&self.compiled.pda, self.stacks.clone())
    }
}

impl ConstraintMatcher for NaiveSession {
    fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.compiled.vocab
    }

    fn fill_next_token_bitmask(&mut self, mask: &mut TokenBitmask) {
        mask.reject_all();
        let base = self.matcher();
        if self.terminated || base.is_dead() {
            return;
        }
        for (token, bytes) in self.compiled.vocab.iter() {
            if self.compiled.vocab.is_special(token) {
                continue;
            }
            let mut probe = base.clone();
            let mut ok = true;
            for &b in bytes {
                if probe.advance_byte(b) == StepResult::Dead {
                    ok = false;
                    break;
                }
            }
            if ok {
                mask.allow(token);
            }
        }
        if let Some(eos) = self.compiled.vocab.eos() {
            if base.can_terminate() {
                mask.allow(eos);
            }
        }
    }

    fn accept_token(&mut self, token: TokenId) -> Result<(), AcceptError> {
        if self.terminated {
            return Err(AcceptError::AlreadyTerminated);
        }
        if Some(token) == self.compiled.vocab.eos() {
            if !self.matcher().can_terminate() {
                return Err(AcceptError::CannotTerminate);
            }
            self.terminated = true;
            return Ok(());
        }
        if self.compiled.vocab.is_special(token) {
            return Err(AcceptError::SpecialTokenRejected { token });
        }
        let mut m = self.matcher();
        if !m.advance_bytes(self.compiled.vocab.token_bytes(token)) {
            return Err(AcceptError::TokenRejected {
                token,
                matched_bytes: 0,
            });
        }
        self.stacks = m.stacks().to_vec();
        Ok(())
    }

    fn can_terminate(&mut self) -> bool {
        !self.terminated && self.matcher().can_terminate()
    }

    fn is_terminated(&self) -> bool {
        self.terminated
    }

    fn reset(&mut self) {
        self.stacks = vec![vec![self.compiled.pda.root_start()]];
        self.terminated = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{drive_session_bytes, small_vocab};

    #[test]
    fn naive_backend_enforces_json() {
        let vocab = small_vocab();
        let backend = NaivePdaBackend::new(Arc::clone(&vocab));
        let compiled = backend
            .compile(&xg_grammar::builtin::json_grammar())
            .unwrap();
        let mut session = compiled.new_session();
        assert!(drive_session_bytes(&vocab, &mut *session, br#"{"a": 1}"#));
        assert!(session.can_terminate());
    }

    #[test]
    fn naive_backend_rejects_invalid_tokens() {
        let vocab = small_vocab();
        let backend = NaivePdaBackend::new(Arc::clone(&vocab));
        let compiled = backend
            .compile(&xg_grammar::builtin::json_grammar())
            .unwrap();
        let mut session = compiled.new_session();
        let x_token = vocab.iter().find(|(_, t)| *t == b"x").unwrap().0;
        assert!(session.accept_token(x_token).is_err());
        let brace = vocab.iter().find(|(_, t)| *t == b"{").unwrap().0;
        assert!(session.accept_token(brace).is_ok());
    }

    #[test]
    fn sessions_share_the_compiled_automaton() {
        let compiled = NaivePdaBackend::new(small_vocab())
            .compile(&xg_grammar::builtin::json_grammar())
            .unwrap();
        let sessions = [(); 2].map(|_| Arc::clone(&compiled).new_session());
        // Each session holds the compiled constraint, not a copy of its PDA.
        assert_eq!(Arc::strong_count(&compiled), 3);
        drop(sessions);
        assert_eq!(Arc::strong_count(&compiled), 1);
    }

    #[test]
    fn mask_matches_xgrammar_reference() {
        // The naive scan and the cached XGrammar engine must produce the same
        // set of allowed tokens.
        let vocab = small_vocab();
        let grammar = xg_grammar::parse_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root").unwrap();

        let naive = NaivePdaBackend::new(Arc::clone(&vocab));
        let naive_compiled = naive.compile(&grammar).unwrap();
        let mut naive_session = naive_compiled.new_session();

        let xg = crate::XGrammarBackend::new(Arc::clone(&vocab));
        let xg_compiled = xg.compile(&grammar).unwrap();
        let mut xg_session = xg_compiled.new_session();

        let mut mask_a = TokenBitmask::new_all_rejected(vocab.len());
        let mut mask_b = TokenBitmask::new_all_rejected(vocab.len());
        naive_session.fill_next_token_bitmask(&mut mask_a);
        xg_session.fill_next_token_bitmask(&mut mask_b);
        assert_eq!(mask_a, mask_b);
    }
}
