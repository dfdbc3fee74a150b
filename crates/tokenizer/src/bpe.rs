//! A byte-level BPE (byte-pair encoding) trainer and encoder.
//!
//! The paper evaluates on the Llama-3.1 tokenizer (128k BPE merges). That
//! tokenizer cannot be redistributed here, so this module provides the
//! substitute: a from-scratch byte-level BPE implementation that can be
//! trained on the synthetic corpora of `xg-datasets`. The resulting vocabularies exhibit the properties the
//! grammar engine cares about — multi-byte tokens, tokens straddling
//! grammar-element boundaries (`":`, `"},` …), long shared prefixes — at
//! configurable vocabulary sizes.

use std::collections::HashMap;

use crate::vocab::{SpecialToken, TokenId, Vocabulary};

/// A trained BPE model: the ordered merge list plus the derived vocabulary.
#[derive(Debug, Clone)]
pub struct BpeModel {
    /// Ordered merges; earlier merges have higher priority during encoding.
    merges: Vec<(Vec<u8>, Vec<u8>)>,
    /// Token byte strings: 256 byte tokens first, then one per merge, then
    /// special tokens.
    tokens: Vec<Vec<u8>>,
    /// Index of `</s>`.
    eos_index: usize,
    /// Lookup from token bytes to id (only for merge results and byte
    /// tokens).
    token_index: HashMap<Vec<u8>, u32>,
    /// Merge priority lookup: (left, right) -> rank.
    merge_ranks: HashMap<(Vec<u8>, Vec<u8>), usize>,
}

/// Configuration for BPE training.
#[derive(Debug, Clone)]
pub struct BpeTrainConfig {
    /// Target vocabulary size, *including* the 256 byte tokens and the
    /// special tokens.
    pub vocab_size: usize,
    /// Minimum pair frequency to keep merging.
    pub min_pair_frequency: usize,
}

impl Default for BpeTrainConfig {
    fn default() -> Self {
        BpeTrainConfig {
            vocab_size: 8192,
            min_pair_frequency: 2,
        }
    }
}

impl BpeModel {
    /// Trains a byte-level BPE model on `corpus`.
    ///
    /// Words are whitespace-delimited; the whitespace character is attached
    /// to the front of the following word (GPT-2 style), so common tokens
    /// such as `" the"` emerge naturally.
    ///
    /// # Examples
    ///
    /// ```
    /// use xg_tokenizer::{BpeModel, BpeTrainConfig};
    ///
    /// let corpus = "the cat sat on the mat. the cat ate.".repeat(50);
    /// let model = BpeModel::train(&corpus, &BpeTrainConfig { vocab_size: 300, ..Default::default() });
    /// let ids = model.encode("the cat");
    /// assert_eq!(model.vocabulary().decode(&ids), b"the cat");
    /// ```
    pub fn train(corpus: &str, config: &BpeTrainConfig) -> BpeModel {
        // 1. Split the corpus into words with attached leading whitespace and
        //    count frequencies.
        let mut word_counts: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut current = Vec::new();
        let mut pending_ws: Vec<u8> = Vec::new();
        for &b in corpus.as_bytes() {
            if b == b' ' || b == b'\n' || b == b'\t' {
                if !current.is_empty() {
                    *word_counts.entry(current.clone()).or_insert(0) += 1;
                    current.clear();
                }
                pending_ws.push(b);
            } else {
                if !pending_ws.is_empty() {
                    current.extend_from_slice(&pending_ws);
                    pending_ws.clear();
                }
                current.push(b);
            }
        }
        if !current.is_empty() {
            *word_counts.entry(current).or_insert(0) += 1;
        }

        // 2. Represent each word as a sequence of single-byte symbols.
        let mut words: Vec<(Vec<Vec<u8>>, usize)> = word_counts
            .into_iter()
            .map(|(w, c)| (w.iter().map(|&b| vec![b]).collect(), c))
            .collect();
        // Deterministic order regardless of hash map iteration order.
        words.sort();

        // 3. Iteratively merge the most frequent adjacent pair.
        let num_specials = 2; // <s>, </s>
        let max_merges = config.vocab_size.saturating_sub(256 + num_specials);
        let mut merges: Vec<(Vec<u8>, Vec<u8>)> = Vec::new();
        for _ in 0..max_merges {
            let mut pair_counts: HashMap<(Vec<u8>, Vec<u8>), usize> = HashMap::new();
            for (symbols, count) in &words {
                for pair in symbols.windows(2) {
                    *pair_counts
                        .entry((pair[0].clone(), pair[1].clone()))
                        .or_insert(0) += count;
                }
            }
            let best = pair_counts
                .into_iter()
                .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)));
            let Some(((left, right), count)) = best else {
                break;
            };
            if count < config.min_pair_frequency {
                break;
            }
            // Apply the merge to every word.
            let merged: Vec<u8> = left.iter().chain(right.iter()).copied().collect();
            for (symbols, _) in &mut words {
                let mut i = 0;
                while i + 1 < symbols.len() {
                    if symbols[i] == left && symbols[i + 1] == right {
                        symbols[i] = merged.clone();
                        symbols.remove(i + 1);
                    } else {
                        i += 1;
                    }
                }
            }
            merges.push((left, right));
        }

        Self::from_merges(merges)
    }

    /// Builds a model from an explicit merge list (used by tests and by
    /// synthetic vocabulary construction).
    pub fn from_merges(merges: Vec<(Vec<u8>, Vec<u8>)>) -> BpeModel {
        let mut tokens: Vec<Vec<u8>> = (0u16..256).map(|b| vec![b as u8]).collect();
        for (l, r) in &merges {
            let merged: Vec<u8> = l.iter().chain(r.iter()).copied().collect();
            tokens.push(merged);
        }
        tokens.push(b"<s>".to_vec());
        tokens.push(b"</s>".to_vec());
        let eos_index = tokens.len() - 1;
        let token_index = tokens
            .iter()
            .enumerate()
            .map(|(i, t)| (t.clone(), i as u32))
            .collect();
        let merge_ranks = merges
            .iter()
            .enumerate()
            .map(|(i, m)| (m.clone(), i))
            .collect();
        BpeModel {
            merges,
            tokens,
            eos_index,
            token_index,
            merge_ranks,
        }
    }

    /// Number of merges in the model.
    pub fn merge_count(&self) -> usize {
        self.merges.len()
    }

    /// Encodes text into token ids by greedily applying merges in rank order
    /// (standard BPE encoding).
    pub fn encode(&self, text: &str) -> Vec<TokenId> {
        let mut symbols: Vec<Vec<u8>> = text.as_bytes().iter().map(|&b| vec![b]).collect();
        loop {
            // Find the lowest-rank applicable merge.
            let mut best: Option<(usize, usize)> = None; // (rank, position)
            for i in 0..symbols.len().saturating_sub(1) {
                let key = (symbols[i].clone(), symbols[i + 1].clone());
                if let Some(&rank) = self.merge_ranks.get(&key) {
                    if best.map(|(r, _)| rank < r).unwrap_or(true) {
                        best = Some((rank, i));
                    }
                }
            }
            let Some((_, pos)) = best else { break };
            let right = symbols.remove(pos + 1);
            symbols[pos].extend_from_slice(&right);
        }
        symbols
            .into_iter()
            .map(|s| {
                TokenId(
                    *self
                        .token_index
                        .get(&s)
                        .expect("every byte token exists in the vocabulary"),
                )
            })
            .collect()
    }

    /// Returns the vocabulary derived from the model (byte tokens + merge
    /// results + special tokens).
    pub fn vocabulary(&self) -> Vocabulary {
        let mut v = Vocabulary::from_tokens(self.tokens.clone(), Some(self.eos_index));
        v.add_special(TokenId(self.eos_index as u32 - 1), SpecialToken::Bos);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_model() -> BpeModel {
        let corpus = r#"{"name": "alice", "age": 30} {"name": "bob", "age": 25} "#.repeat(40);
        BpeModel::train(
            &corpus,
            &BpeTrainConfig {
                vocab_size: 400,
                min_pair_frequency: 2,
            },
        )
    }

    #[test]
    fn training_produces_merges_and_multibyte_tokens() {
        let model = small_model();
        assert!(model.merge_count() > 20);
        let vocab = model.vocabulary();
        // Some learned token should span a grammar-element boundary, e.g.
        // contain a quote next to a punctuation character.
        let has_boundary_token = vocab.iter().any(|(_, t)| {
            t.len() >= 2 && t.contains(&b'"') && (t.contains(&b':') || t.contains(&b','))
        });
        assert!(
            has_boundary_token,
            "expected tokens spanning grammar boundaries"
        );
    }

    #[test]
    fn encode_decode_roundtrip() {
        let model = small_model();
        let vocab = model.vocabulary();
        for text in [
            r#"{"name": "carol", "age": 41}"#,
            "plain words with spaces",
            "unicode: héllo 🎉",
        ] {
            let ids = model.encode(text);
            assert_eq!(vocab.decode(&ids), text.as_bytes());
        }
    }

    #[test]
    fn encoding_uses_merged_tokens() {
        let model = small_model();
        let ids = model.encode(r#""name": "x""#);
        // Far fewer tokens than bytes once merges apply.
        assert!(ids.len() < r#""name": "x""#.len());
    }

    #[test]
    fn from_merges_contains_byte_fallbacks_and_specials() {
        let model = BpeModel::from_merges(vec![(b"a".to_vec(), b"b".to_vec())]);
        let vocab = model.vocabulary();
        assert_eq!(vocab.len(), 256 + 1 + 2);
        assert!(vocab.eos().is_some());
        // Byte fallback round-trips arbitrary bytes.
        let ids = model.encode("ab\u{00e9}");
        assert_eq!(vocab.decode(&ids), "ab\u{00e9}".as_bytes());
    }

    #[test]
    fn vocab_size_limit_is_respected() {
        let corpus = "aaa bbb ccc ddd ".repeat(100);
        let model = BpeModel::train(
            &corpus,
            &BpeTrainConfig {
                vocab_size: 300,
                min_pair_frequency: 2,
            },
        );
        assert!(model.vocabulary().len() <= 300);
    }
}
