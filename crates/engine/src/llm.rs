//! Simulated LLM: a deterministic token proposer standing in for the real
//! model's sampler.
//!
//! The grammar engine never looks at logits; it only needs *some* next-token
//! choice to constrain. The simulated LLM therefore proposes, at each step,
//! the token that greedily continues a *reference output* (taken from the
//! dataset), optionally corrupted to mimic the failure modes the paper
//! reports for unconstrained generation (§4.4): explanatory prose around the
//! structured answer and wrong value types. The sampler then either takes the
//! proposal as-is (unconstrained) or picks the best allowed token under the
//! grammar mask (constrained decoding).

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use xg_core::TokenBitmask;
use xg_tokenizer::{TokenId, Vocabulary};

/// Controls how often the unconstrained model misbehaves.
#[derive(Debug, Clone)]
pub struct LlmBehavior {
    /// Probability of wrapping the structured answer in explanatory prose.
    pub prose_probability: f64,
    /// Probability of emitting a wrong value type (e.g. quoting a number).
    pub type_error_probability: f64,
    /// RNG seed (per-request seeds are derived from it).
    pub seed: u64,
}

impl Default for LlmBehavior {
    fn default() -> Self {
        LlmBehavior {
            // Calibrated so that roughly 60% of function-calling outputs are
            // directly parseable without constraints, matching Table 4's 62%.
            prose_probability: 0.25,
            type_error_probability: 0.20,
            seed: 0xced,
        }
    }
}

/// A simulated LLM bound to a vocabulary.
#[derive(Debug, Clone)]
pub struct SimulatedLlm {
    vocab: Arc<Vocabulary>,
    behavior: LlmBehavior,
}

impl SimulatedLlm {
    /// Creates a simulated LLM. Greedy proposal descends the vocabulary's
    /// [sorted index](Vocabulary::sorted), which is built here if nothing
    /// built it before, so its cost lands on construction, not on the first
    /// proposal.
    pub fn new(vocab: Arc<Vocabulary>, behavior: LlmBehavior) -> Self {
        vocab.sorted();
        SimulatedLlm { vocab, behavior }
    }

    /// The vocabulary.
    pub fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    /// Creates the per-request generation state for a reference output.
    /// `request_seed` individualizes the injected errors per request.
    pub fn start_request(&self, reference: &[u8], request_seed: u64) -> LlmRequestState {
        let mut rng = SmallRng::seed_from_u64(self.behavior.seed ^ request_seed);
        let mut intended = reference.to_vec();
        if rng.gen_bool(self.behavior.type_error_probability) {
            intended = inject_type_error(&intended);
        }
        if rng.gen_bool(self.behavior.prose_probability) {
            let mut wrapped = b"Sure! Here is the JSON you asked for:\n".to_vec();
            wrapped.extend_from_slice(&intended);
            wrapped.extend_from_slice(b"\nLet me know if you need anything else.");
            intended = wrapped;
        }
        LlmRequestState {
            vocab: Arc::clone(&self.vocab),
            intended,
            position: 0,
        }
    }
}

/// Finds the first occurrence of `needle` inside `haystack`.
fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    if needle.is_empty() || haystack.len() < needle.len() {
        return None;
    }
    haystack
        .windows(needle.len())
        .position(|window| window == needle)
}

/// Wraps a quoted string around the first bare integer of a JSON document
/// (a "wrong type" mistake), or appends a dangling brace when there is none.
fn inject_type_error(reference: &[u8]) -> Vec<u8> {
    let text = String::from_utf8_lossy(reference);
    // Find a `: <digits>` fragment and drop the closing context so the value
    // becomes syntactically broken (e.g. `"age": 30` -> `"age": 30"`).
    if let Some(pos) = text.find(": ") {
        let mut out = reference.to_vec();
        let insert_at = pos + 2;
        out.insert(insert_at, b'"');
        return out;
    }
    let mut out = reference.to_vec();
    out.push(b'}');
    out
}

/// Per-request state: the byte string the model "wants" to produce and the
/// current position within it.
#[derive(Debug, Clone)]
pub struct LlmRequestState {
    vocab: Arc<Vocabulary>,
    intended: Vec<u8>,
    position: usize,
}

impl LlmRequestState {
    /// The part of the intended output not emitted yet.
    fn remaining(&self) -> &[u8] {
        &self.intended[self.position.min(self.intended.len())..]
    }

    /// Greedily proposes the next token: the longest vocabulary token that
    /// matches the upcoming bytes of the intended output (the lowest id
    /// among equal byte strings), or EOS when the intended output is
    /// exhausted — or cannot be spelled, in a vocabulary without byte
    /// fallback: the model gives up.
    pub(crate) fn propose(&self) -> TokenId {
        self.vocab
            .sorted()
            .longest_prefix_token(self.remaining())
            .unwrap_or_else(|| self.vocab.eos().expect("vocabulary has an EOS token"))
    }

    /// Chooses the next token under a grammar mask, modelling how a greedy
    /// decoder behaves when its top choice is masked out:
    ///
    /// 1. the unconstrained proposal, if allowed;
    /// 2. the longest allowed token that continues the intended output;
    /// 3. the allowed token that occurs *earliest* in the remaining intended
    ///    output (the model "skips" forced-away text such as a prose
    ///    preamble and resumes from there);
    /// 4. the first allowed non-whitespace token;
    /// 5. the first allowed token.
    pub fn propose_constrained(&self, mask: &TokenBitmask) -> Option<TokenId> {
        let proposal = self.propose();
        if mask.is_allowed(proposal) {
            return Some(proposal);
        }
        // One pass over the allowed tokens tracks the candidate of each of
        // rules 2–5; the first rule that has one decides.
        let remaining = self.remaining();
        let mut longest: Option<(usize, TokenId)> = None; // (len, token)
        let mut resync: Option<(usize, usize, TokenId)> = None; // (offset, -len, token)
        let mut first_visible: Option<TokenId> = None;
        let mut first: Option<TokenId> = None;
        for token in mask.allowed_tokens() {
            let bytes = self.vocab.token_bytes(token);
            first = first.or(Some(token));
            if remaining.starts_with(bytes) && bytes.len() > longest.map_or(0, |(len, _)| len) {
                longest = Some((bytes.len(), token));
            }
            if bytes.iter().all(|b| b.is_ascii_whitespace()) {
                continue;
            }
            first_visible = first_visible.or(Some(token));
            // Rule 3 only matters while rule 2 has found nothing.
            if longest.is_none() {
                if let Some(offset) = find_subslice(remaining, bytes) {
                    let candidate = (offset, usize::MAX - bytes.len(), token);
                    if resync.is_none_or(|r| candidate < r) {
                        resync = Some(candidate);
                    }
                }
            }
        }
        longest
            .map(|(_, token)| token)
            .or(resync.map(|(_, _, token)| token))
            .or(first_visible)
            .or(first)
    }

    /// Records that `token` was emitted, advancing the intended-output cursor
    /// when the token matches it (otherwise the cursor is left unchanged and
    /// the model keeps trying to steer back towards its intention).
    pub fn advance(&mut self, token: TokenId) {
        if Some(token) == self.vocab.eos() {
            self.position = self.intended.len();
            return;
        }
        let bytes = self.vocab.token_bytes(token);
        let remaining = self.remaining();
        if remaining.starts_with(bytes) {
            self.position += bytes.len();
            return;
        }
        // The constrained decoder forced different text (e.g. it skipped a
        // prose preamble). Re-condition the intention on the forced prefix by
        // jumping to its next occurrence, mimicking how a real model keeps
        // producing coherent content after a forced token.
        if let Some(offset) = find_subslice(remaining, bytes) {
            self.position += offset + bytes.len();
        }
    }

    /// Returns `true` if the intended output has been fully emitted.
    pub fn finished(&self) -> bool {
        self.position >= self.intended.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_datasets::{json_mode_eval_like, xml_tasks};
    use xg_tokenizer::test_vocabulary;

    fn clean_llm(vocab: Arc<Vocabulary>) -> SimulatedLlm {
        SimulatedLlm::new(
            vocab,
            LlmBehavior {
                prose_probability: 0.0,
                type_error_probability: 0.0,
                seed: 1,
            },
        )
    }

    #[test]
    fn unconstrained_generation_reproduces_reference() {
        let vocab = Arc::new(test_vocabulary(800));
        let llm = clean_llm(Arc::clone(&vocab));
        let reference = br#"{"name": "alice", "age": 30}"#;
        let mut state = llm.start_request(reference, 7);
        let mut out = Vec::new();
        loop {
            let token = state.propose();
            if Some(token) == vocab.eos() {
                break;
            }
            out.extend_from_slice(vocab.token_bytes(token));
            state.advance(token);
        }
        assert_eq!(out, reference.to_vec());
    }

    #[test]
    fn error_injection_produces_invalid_json() {
        let vocab = Arc::new(test_vocabulary(800));
        let llm = SimulatedLlm::new(
            Arc::clone(&vocab),
            LlmBehavior {
                prose_probability: 1.0,
                type_error_probability: 1.0,
                seed: 3,
            },
        );
        let state = llm.start_request(br#"{"age": 30}"#, 1);
        assert!(serde_json::from_slice::<serde_json::Value>(&state.intended).is_err());
    }

    #[test]
    fn constrained_proposal_respects_mask() {
        let vocab = Arc::new(test_vocabulary(800));
        let llm = clean_llm(Arc::clone(&vocab));
        let state = llm.start_request(b"hello", 0);
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        // Only allow the byte token `h` and an unrelated token.
        let h = vocab.iter().find(|(_, t)| *t == b"h").unwrap().0;
        let z = vocab.iter().find(|(_, t)| *t == b"z").unwrap().0;
        mask.allow(z);
        mask.allow(h);
        let chosen = state.propose_constrained(&mask).unwrap();
        assert_eq!(chosen, h);
    }

    #[test]
    fn deterministic_per_seed() {
        let vocab = Arc::new(test_vocabulary(800));
        let llm = SimulatedLlm::new(Arc::clone(&vocab), LlmBehavior::default());
        let a = llm.start_request(br#"{"x": 1}"#, 42);
        let b = llm.start_request(br#"{"x": 1}"#, 42);
        assert_eq!(a.intended, b.intended);
    }

    /// The first-byte bucket scan that `propose` used to be, kept as its
    /// reference: every non-special token in id order, the first of the
    /// longest matches wins.
    fn propose_by_scan(vocab: &Vocabulary, remaining: &[u8]) -> Option<TokenId> {
        let mut best: Option<TokenId> = None;
        let mut best_len = 0usize;
        for (token, bytes) in vocab.iter() {
            if !vocab.is_special(token) && bytes.len() > best_len && remaining.starts_with(bytes) {
                best = Some(token);
                best_len = bytes.len();
            }
        }
        best
    }

    #[test]
    fn propose_equals_the_linear_scan_at_every_position() {
        let vocab = Arc::new(test_vocabulary(2000));
        let llm = clean_llm(Arc::clone(&vocab));
        let json = json_mode_eval_like(5, 17).into_iter().map(|t| t.reference);
        let xml = xml_tasks(3, 5).into_iter().map(|t| t.reference);
        for reference in json.chain(xml) {
            let mut state = llm.start_request(&reference, 0);
            for position in 0..=reference.len() {
                state.position = position;
                let expected = propose_by_scan(&vocab, &reference[position..]).or(vocab.eos());
                assert_eq!(Some(state.propose()), expected, "at byte {position}");
            }
        }
    }

    #[test]
    fn each_fallback_rule_decides_in_precedence_order() {
        let tokens: [&[u8]; 10] = [
            b"</s>", b"lo", b"h", b"hello", b"he", b" ", b"zz", b"l", b"ll", b"\n",
        ];
        let vocab = Arc::new(Vocabulary::from_tokens(
            tokens.iter().map(|t| t.to_vec()).collect(),
            Some(0),
        ));
        let state = clean_llm(Arc::clone(&vocab)).start_request(b"hello", 0);
        let choose = |allowed: &[u32]| {
            let mut mask = TokenBitmask::new_all_rejected(vocab.len());
            for &id in allowed {
                mask.allow(TokenId(id));
            }
            state
                .propose_constrained(&mask)
                .map(|t| vocab.token_bytes(t).to_vec())
        };
        let pick = |bytes: &[u8]| Some(bytes.to_vec());
        // 1. The unconstrained proposal, when allowed.
        assert_eq!(choose(&[1, 3, 4]), pick(b"hello"));
        // 2. The longest allowed prefix of the intention (`h` comes first),
        //    over a resync candidate seen before it (`lo`) and both
        //    deterministic fallbacks.
        assert_eq!(choose(&[1, 2, 4, 5, 6]), pick(b"he"));
        // 3. No prefix: the earliest occurrence (`l`/`ll` at 2 before `lo` at
        //    3), the longer of two at the same offset.
        assert_eq!(choose(&[1, 5, 6, 7]), pick(b"l"));
        assert_eq!(choose(&[1, 5, 6, 7, 8]), pick(b"ll"));
        // 4. Nothing occurs: the first token that is not whitespace.
        assert_eq!(choose(&[5, 6, 9]), pick(b"zz"));
        // 5. Only whitespace: the first allowed token.
        assert_eq!(choose(&[5, 9]), pick(b" "));
        assert_eq!(choose(&[]), None);
    }
}
