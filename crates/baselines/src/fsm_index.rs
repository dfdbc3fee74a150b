//! Outlines-style FSM backend: lazy DFA over the unrolled grammar plus a
//! memoized per-state token index.
//!
//! Outlines (Willard & Louf, 2023) compiles the structure into a finite-state
//! machine and precomputes, for every FSM state, the set of vocabulary tokens
//! whose characters can be consumed from that state. Mask generation then is
//! a dictionary lookup. The approach is fast once a state's index exists, but
//!
//! * context-free grammars have to be approximated by depth-bounded
//!   unrolling of XGrammar's pushdown automaton (see
//!   `unroll::unroll_grammar_to_fsa`): nesting past 8 stack frames is cut,
//!   and the number of states grows with the nesting kept, and
//! * every *newly visited* DFA state pays a full vocabulary scan, which is
//!   exactly the per-token cost the paper measures for CFG workloads.

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::Arc;

use std::sync::Mutex;
use xg_automata::{Fsa, StateId};
use xg_core::{AcceptError, CompiledConstraint, ConstraintMatcher, TokenBitmask};
use xg_grammar::Grammar;
use xg_tokenizer::{TokenId, Vocabulary};

use crate::unroll::unroll_grammar_to_fsa;
use crate::{BackendError, ConstrainedBackend, Session};

/// Unrolling depth, in PDA stack frames (a tail call costs none): enough for
/// every `json_mode_eval_like` schema family and the JSON and XML documents
/// of the evaluation datasets. The Python-DSL grammar unrolls under it, but
/// its references need deeper nesting.
const DEFAULT_UNROLL_DEPTH: usize = 8;
/// State budget for the unrolled automaton.
const DEFAULT_MAX_STATES: usize = 200_000;

/// Outlines-style FSM-index backend: the one set of unrolling limits every
/// benchmark measures is [`new`](Self::new)'s.
#[derive(Debug)]
pub struct FsmIndexBackend {
    vocab: Arc<Vocabulary>,
    unroll_depth: usize,
    max_states: usize,
}

impl FsmIndexBackend {
    /// Creates the backend with its unrolling limits (8 stack frames,
    /// 200 000 states).
    pub fn new(vocab: Arc<Vocabulary>) -> Self {
        FsmIndexBackend {
            vocab,
            unroll_depth: DEFAULT_UNROLL_DEPTH,
            max_states: DEFAULT_MAX_STATES,
        }
    }
}

impl ConstrainedBackend for FsmIndexBackend {
    fn name(&self) -> &'static str {
        "Outlines (FSM index)"
    }

    fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    fn compile(&self, grammar: &Grammar) -> Result<Arc<dyn CompiledConstraint>, BackendError> {
        let fsa = unroll_grammar_to_fsa(self.name(), grammar, self.unroll_depth, self.max_states)?;
        Ok(Arc::new(FsmCompiled {
            fsa,
            vocab: Arc::clone(&self.vocab),
            index: Mutex::new(HashMap::new()),
        }))
    }
}

/// A DFA state: a set of NFA states.
type DfaState = BTreeSet<StateId>;

/// A compiled grammar: the unrolled automaton and its token index, shared
/// by every session.
struct FsmCompiled {
    fsa: Fsa,
    vocab: Arc<Vocabulary>,
    /// Memoized per-DFA-state token index: allowed tokens and, per allowed
    /// token, the DFA state reached after consuming it.
    #[allow(clippy::type_complexity)]
    index: Mutex<HashMap<DfaState, Arc<StateIndex>>>,
}

struct StateIndex {
    allowed: Vec<(TokenId, DfaState)>,
    can_terminate: bool,
}

impl fmt::Debug for FsmCompiled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FsmCompiled")
            .field("nfa_states", &self.fsa.len())
            .field(
                "indexed_states",
                &self.index.lock().unwrap_or_else(|e| e.into_inner()).len(),
            )
            .finish()
    }
}

impl FsmCompiled {
    fn start_state(&self) -> DfaState {
        let mut s = BTreeSet::new();
        s.insert(self.fsa.start());
        s
    }

    fn state_index(&self, state: &DfaState) -> Arc<StateIndex> {
        if let Some(hit) = self
            .index
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(state)
        {
            return Arc::clone(hit);
        }
        // Full vocabulary scan for this state (the expensive part of the
        // Outlines approach).
        let mut allowed = Vec::new();
        for (token, bytes) in self.vocab.iter() {
            if self.vocab.is_special(token) {
                continue;
            }
            let mut cur = state.clone();
            let mut ok = true;
            for &b in bytes {
                cur = self.fsa.step(&cur, b);
                if cur.is_empty() {
                    ok = false;
                    break;
                }
            }
            if ok {
                allowed.push((token, cur));
            }
        }
        let can_terminate = state.iter().any(|s| self.fsa.is_final(*s));
        let entry = Arc::new(StateIndex {
            allowed,
            can_terminate,
        });
        self.index
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(state.clone(), Arc::clone(&entry));
        entry
    }
}

impl CompiledConstraint for FsmCompiled {
    fn new_session(self: Arc<Self>) -> Session {
        Box::new(FsmSession {
            state: self.start_state(),
            shared: self,
            terminated: false,
        })
    }

    /// The automaton and the token index built so far.
    fn memory_bytes(&self) -> usize {
        let index = self.index.lock().unwrap_or_else(|e| e.into_inner());
        let entries: usize = index.values().map(|i| i.allowed.len()).sum();
        self.fsa.memory_bytes() + entries * std::mem::size_of::<(TokenId, DfaState)>()
    }
}

#[derive(Debug)]
struct FsmSession {
    shared: Arc<FsmCompiled>,
    state: DfaState,
    /// End-of-sequence has been accepted.
    terminated: bool,
}

impl ConstraintMatcher for FsmSession {
    fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.shared.vocab
    }

    fn fill_next_token_bitmask(&mut self, mask: &mut TokenBitmask) {
        mask.reject_all();
        if self.terminated {
            return;
        }
        let index = self.shared.state_index(&self.state);
        for (token, _) in &index.allowed {
            mask.allow(*token);
        }
        if index.can_terminate {
            if let Some(eos) = self.shared.vocab.eos() {
                mask.allow(eos);
            }
        }
    }

    fn accept_token(&mut self, token: TokenId) -> Result<(), AcceptError> {
        if self.terminated {
            return Err(AcceptError::AlreadyTerminated);
        }
        let index = self.shared.state_index(&self.state);
        if Some(token) == self.shared.vocab.eos() {
            if !index.can_terminate {
                return Err(AcceptError::CannotTerminate);
            }
            self.terminated = true;
            return Ok(());
        }
        if self.shared.vocab.is_special(token) {
            return Err(AcceptError::SpecialTokenRejected { token });
        }
        // `allowed` is built in token-id order.
        match index.allowed.binary_search_by_key(&token, |(t, _)| *t) {
            Ok(i) => {
                self.state = index.allowed[i].1.clone();
                Ok(())
            }
            Err(_) => Err(AcceptError::TokenRejected {
                token,
                matched_bytes: 0,
            }),
        }
    }

    fn can_terminate(&mut self) -> bool {
        !self.terminated && self.shared.state_index(&self.state).can_terminate
    }

    fn is_terminated(&self) -> bool {
        self.terminated
    }

    fn reset(&mut self) {
        self.state = self.shared.start_state();
        self.terminated = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{drive_session_bytes, small_vocab};

    #[test]
    fn fsm_backend_enforces_flat_structures() {
        let vocab = small_vocab();
        let backend = FsmIndexBackend::new(Arc::clone(&vocab));
        let grammar =
            xg_grammar::parse_ebnf(r#"root ::= "[" [0-9]+ ("," [0-9]+)* "]""#, "root").unwrap();
        let compiled = backend.compile(&grammar).unwrap();
        let mut session = compiled.new_session();
        assert!(drive_session_bytes(&vocab, &mut *session, b"[1,23,4]"));
        assert!(session.can_terminate());
    }

    #[test]
    fn fsm_backend_masks_match_xgrammar_for_regular_grammars() {
        let vocab = small_vocab();
        let grammar = xg_grammar::parse_ebnf(r#"root ::= "id-" [0-9]{3}"#, "root").unwrap();
        let fsm = FsmIndexBackend::new(Arc::clone(&vocab));
        let xg = crate::XGrammarBackend::new(Arc::clone(&vocab));
        let mut fsm_session = fsm.compile(&grammar).unwrap().new_session();
        let mut xg_session = xg.compile(&grammar).unwrap().new_session();
        let mut a = TokenBitmask::new_all_rejected(vocab.len());
        let mut b = TokenBitmask::new_all_rejected(vocab.len());
        fsm_session.fill_next_token_bitmask(&mut a);
        xg_session.fill_next_token_bitmask(&mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn recursive_grammar_is_depth_limited_but_usable() {
        let vocab = small_vocab();
        let backend = FsmIndexBackend {
            unroll_depth: 6,
            max_states: 500_000,
            ..FsmIndexBackend::new(Arc::clone(&vocab))
        };
        let grammar = xg_grammar::parse_ebnf(
            r#"
            root ::= value
            value ::= "[" (value ("," value)*)? "]" | [0-9]+
            "#,
            "root",
        )
        .unwrap();
        let compiled = backend.compile(&grammar).unwrap();
        let mut session = Arc::clone(&compiled).new_session();
        assert!(drive_session_bytes(&vocab, &mut *session, b"[1,[2,[3]]]"));
        assert!(session.can_terminate());
        // Nesting beyond the unrolling depth is not representable: the mask
        // at some point refuses to open yet another bracket.
        let mut deep_session = compiled.new_session();
        assert!(!drive_session_bytes(
            &vocab,
            &mut *deep_session,
            b"[[[[[[[[[[1]]]]]]]]]]"
        ));
    }

    #[test]
    fn state_budget_violation_is_reported() {
        let vocab = small_vocab();
        let backend = FsmIndexBackend {
            unroll_depth: 10,
            max_states: 64,
            ..FsmIndexBackend::new(Arc::clone(&vocab))
        };
        let err = backend
            .compile(&xg_grammar::builtin::json_grammar())
            .unwrap_err();
        assert!(matches!(err, BackendError::UnsupportedGrammar { .. }));
    }
}
