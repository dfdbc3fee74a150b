//! Synthetic vocabulary generation.
//!
//! The paper's evaluation uses the Llama-3.1 tokenizer (≈128k tokens) and the
//! Qwen-2.5 tokenizer. Those vocabularies cannot be shipped here, so this
//! module generates vocabularies of arbitrary size that reproduce the
//! *properties* the grammar engine is sensitive to:
//!
//! * 256 single-byte fallback tokens (so any byte string is representable),
//! * structural tokens that straddle grammar-element boundaries
//!   (`"},`, `":`, `", "`, `/>` …) — these are what make boundary handling
//!   and context-dependent tokens interesting,
//! * whitespace runs and newline/indentation tokens,
//! * numeric tokens,
//! * a long tail of English-like subwords (with leading-space and
//!   capitalized variants) sharing long prefixes,
//! * multi-byte UTF-8 tokens (accented Latin, CJK, emoji), including tokens
//!   that are *fragments* of a UTF-8 sequence.
//!
//! Generation is deterministic for a given `(size, seed)`.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::vocab::{SpecialToken, TokenId, Vocabulary};

/// Configuration for synthetic vocabulary generation.
#[derive(Debug, Clone)]
pub struct SyntheticVocabConfig {
    /// Total number of tokens to generate (including byte fallbacks and
    /// special tokens).
    pub size: usize,
    /// RNG seed; the same seed and size always produce the same vocabulary.
    pub seed: u64,
}

impl Default for SyntheticVocabConfig {
    fn default() -> Self {
        SyntheticVocabConfig {
            size: 32_000,
            seed: 0x5eed,
        }
    }
}

/// Structural tokens common in JSON / XML / code oriented tokenizers. Many of
/// them intentionally cross grammar-element boundaries.
const STRUCTURAL_TOKENS: &[&str] = &[
    "{", "}", "[", "]", "(", ")", ",", ":", ";", ".", "\"", "'", "\\", "/", "<", ">", "=", "+",
    "-", "*", "&", "|", "!", "?", "#", "@", "%", "^", "~", "`", "{\"", "\"}", "\":", "\": ", "\",",
    "\", ", "\", \"", "\":\"", "\": \"", "\"},", "\"}", "},", "}]", "]}", "}}", "{{", "[{", "[[",
    "]]", "\"]", "[\"", "\":[", "\": [", "\":{", "\": {", "},{", "}, {", "\"\"", "\"\n", "{}",
    "[]", "null", "true", "false", "null,", "true,", "false,", "0,", "1,", "\"0\"", "\"1\"", "</",
    "/>", "</s", "><", "\" />", "\">", "=\"", "<!--", "-->", "<?xml", "?>", "():", "):", "()",
    "():\n", "def ", "return ", "if ", "else:", "elif ", "for ", "while ", "in ", "not ", "and ",
    "or ", "import ", "from ", " = ", " == ", " != ", " <= ", " >= ", " + ", " - ", " * ", " / ",
    "**", "//", " #", "\n\n", "\n", "\t", "    ", "        ", " ", "  ", "   ", "\r\n", ", ", ". ",
    ": ", "; ", " (", ") ", " [", "] ", " {", "} ",
];

/// Common English-ish word stems used to build the subword tail.
const WORD_STEMS: &[&str] = &[
    "the",
    "and",
    "for",
    "with",
    "that",
    "this",
    "from",
    "have",
    "not",
    "are",
    "was",
    "will",
    "can",
    "all",
    "one",
    "out",
    "use",
    "get",
    "set",
    "new",
    "name",
    "type",
    "value",
    "key",
    "data",
    "item",
    "list",
    "text",
    "time",
    "date",
    "user",
    "file",
    "code",
    "test",
    "func",
    "tion",
    "ment",
    "ing",
    "ed",
    "er",
    "est",
    "ly",
    "ness",
    "able",
    "ible",
    "less",
    "ful",
    "pre",
    "post",
    "anti",
    "auto",
    "inter",
    "intra",
    "over",
    "under",
    "re",
    "un",
    "dis",
    "mis",
    "read",
    "write",
    "call",
    "send",
    "recv",
    "open",
    "close",
    "start",
    "stop",
    "run",
    "build",
    "make",
    "take",
    "give",
    "find",
    "search",
    "query",
    "index",
    "count",
    "total",
    "result",
    "error",
    "warn",
    "info",
    "debug",
    "trace",
    "json",
    "xml",
    "html",
    "http",
    "https",
    "url",
    "uri",
    "id",
    "uuid",
    "hash",
    "token",
    "model",
    "llama",
    "gpt",
    "prompt",
    "response",
    "request",
    "schema",
    "object",
    "array",
    "string",
    "number",
    "integer",
    "boolean",
    "person",
    "address",
    "city",
    "street",
    "country",
    "email",
    "phone",
    "first",
    "last",
    "middle",
    "temperature",
    "weather",
    "location",
    "unit",
    "celsius",
    "fahrenheit",
    "currency",
    "price",
    "amount",
    "quantity",
    "product",
    "order",
    "status",
    "active",
    "enabled",
    "disabled",
    "grammar",
    "parser",
    "stack",
    "state",
    "node",
    "edge",
    "rule",
    "mask",
    "cache",
    "engine",
];

/// Multi-byte seed characters: accented Latin, Greek, Cyrillic, CJK, emoji.
const UNICODE_SEEDS: &[char] = &[
    'é', 'è', 'ü', 'ö', 'ñ', 'ç', 'ß', 'å', 'ø', 'α', 'β', 'γ', 'δ', 'λ', 'π', 'Ω', 'д', 'ж', 'и',
    'я', '中', '文', '语', '言', '模', '型', '日', '本', '語', '한', '국', '어', '🎉', '🚀', '😀',
    '🤖', '✨', '→', '≤', '≥', '•', '–', '—',
];

/// Generates a deterministic synthetic vocabulary.
///
/// # Examples
///
/// ```
/// use xg_tokenizer::{synthetic_vocabulary, SyntheticVocabConfig};
///
/// let vocab = synthetic_vocabulary(&SyntheticVocabConfig { size: 2000, seed: 7 });
/// assert_eq!(vocab.len(), 2000);
/// assert!(vocab.eos().is_some());
/// ```
pub fn synthetic_vocabulary(config: &SyntheticVocabConfig) -> Vocabulary {
    assert!(
        config.size >= 512,
        "synthetic vocabularies need at least 512 tokens"
    );
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut tokens: Vec<Vec<u8>> = Vec::with_capacity(config.size);
    let mut seen: std::collections::HashSet<Vec<u8>> = std::collections::HashSet::new();

    let push = |tokens: &mut Vec<Vec<u8>>,
                seen: &mut std::collections::HashSet<Vec<u8>>,
                t: Vec<u8>|
     -> bool {
        if t.is_empty() || seen.contains(&t) {
            return false;
        }
        seen.insert(t.clone());
        tokens.push(t);
        true
    };

    // 1. Special tokens first (ids 0 and 1).
    push(&mut tokens, &mut seen, b"<|begin_of_text|>".to_vec());
    push(&mut tokens, &mut seen, b"<|end_of_text|>".to_vec());

    // 2. Byte fallbacks.
    for b in 0u16..256 {
        push(&mut tokens, &mut seen, vec![b as u8]);
    }

    // 3. Structural tokens.
    for s in STRUCTURAL_TOKENS {
        if tokens.len() >= config.size {
            break;
        }
        push(&mut tokens, &mut seen, s.as_bytes().to_vec());
    }

    // 4. Numeric tokens: 0-999, years, decimals.
    for n in 0..1000u32 {
        if tokens.len() >= config.size {
            break;
        }
        push(&mut tokens, &mut seen, n.to_string().into_bytes());
    }

    // 5. Unicode tokens, including deliberate UTF-8 fragments (placed before
    //    the open-ended subword tail so they are present at every size).
    for &c in UNICODE_SEEDS {
        if tokens.len() + 2 >= config.size {
            break;
        }
        let mut buf = [0u8; 4];
        let enc = c.encode_utf8(&mut buf).as_bytes().to_vec();
        push(&mut tokens, &mut seen, enc.clone());
        if enc.len() > 2 {
            // A prefix fragment of the encoding (sub-UTF-8 token).
            push(&mut tokens, &mut seen, enc[..enc.len() - 1].to_vec());
        }
    }

    // 6. Word stems with variants (leading space, capitalized, quoted,
    //    suffixed with punctuation) — the bulk of a realistic vocabulary.
    let mut stem_variants: Vec<Vec<u8>> = Vec::new();
    for stem in WORD_STEMS {
        let capital = {
            let mut c = stem.to_string();
            if let Some(first) = c.get_mut(0..1) {
                let upper = first.to_uppercase();
                c.replace_range(0..1, &upper);
            }
            c
        };
        for v in [
            stem.to_string(),
            format!(" {stem}"),
            capital.clone(),
            format!(" {capital}"),
            format!("{stem}\""),
            format!("\"{stem}"),
            format!("\"{stem}\""),
            format!(" \"{stem}\""),
            format!("{stem}_"),
            format!("_{stem}"),
            format!("{stem}s"),
            format!(" {stem}s"),
            format!("{stem}:"),
            format!("{stem},"),
            format!("{stem}."),
            format!("{stem}="),
            format!("{stem}("),
        ] {
            stem_variants.push(v.into_bytes());
        }
    }
    for v in stem_variants {
        if tokens.len() >= config.size {
            break;
        }
        push(&mut tokens, &mut seen, v);
    }

    // 7. Fill the rest with generated compound subwords: stem + stem,
    //    stem + suffix digits, with leading space sometimes. Long shared
    //    prefixes arise naturally.
    let mut consecutive_failures = 0usize;
    while tokens.len() < config.size {
        if consecutive_failures > 10_000 {
            // Candidate space exhausted (only possible for very large sizes):
            // fall back to deterministic numbered tokens.
            let filler = format!("tok_{}", tokens.len()).into_bytes();
            push(&mut tokens, &mut seen, filler);
            continue;
        }
        let a = WORD_STEMS[rng.gen_range(0..WORD_STEMS.len())];
        let style = rng.gen_range(0..6u32);
        let candidate: String = match style {
            0 => {
                let b = WORD_STEMS[rng.gen_range(0..WORD_STEMS.len())];
                format!("{a}{b}")
            }
            1 => {
                let b = WORD_STEMS[rng.gen_range(0..WORD_STEMS.len())];
                format!(" {a}{b}")
            }
            2 => format!("{a}{}", rng.gen_range(0..100)),
            3 => {
                let b = WORD_STEMS[rng.gen_range(0..WORD_STEMS.len())];
                format!("{a}_{b}")
            }
            4 => {
                let b = WORD_STEMS[rng.gen_range(0..WORD_STEMS.len())];
                let c = WORD_STEMS[rng.gen_range(0..WORD_STEMS.len())];
                format!("{a}{b}{c}")
            }
            _ => {
                let u = UNICODE_SEEDS[rng.gen_range(0..UNICODE_SEEDS.len())];
                format!("{a}{u}")
            }
        };
        if push(&mut tokens, &mut seen, candidate.into_bytes()) {
            consecutive_failures = 0;
        } else {
            consecutive_failures += 1;
        }
    }

    let mut vocab = Vocabulary::from_tokens(tokens, Some(1));
    vocab.add_special(TokenId(0), SpecialToken::Bos);
    vocab
}

/// Convenience constructor for a small vocabulary suitable for unit tests.
pub fn test_vocabulary(size: usize) -> Vocabulary {
    synthetic_vocabulary(&SyntheticVocabConfig { size, seed: 0x7e57 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sorted::SortedVocabulary;

    #[test]
    fn generation_is_deterministic() {
        let a = synthetic_vocabulary(&SyntheticVocabConfig {
            size: 4000,
            seed: 1,
        });
        let b = synthetic_vocabulary(&SyntheticVocabConfig {
            size: 4000,
            seed: 1,
        });
        assert_eq!(a, b);
        let c = synthetic_vocabulary(&SyntheticVocabConfig {
            size: 4000,
            seed: 2,
        });
        assert_ne!(a, c);
    }

    #[test]
    fn requested_size_is_exact_and_unique() {
        let v = synthetic_vocabulary(&SyntheticVocabConfig {
            size: 5000,
            seed: 3,
        });
        assert_eq!(v.len(), 5000);
        let mut set = std::collections::HashSet::new();
        for (_, t) in v.iter() {
            assert!(set.insert(t.to_vec()), "duplicate token {:?}", t);
        }
    }

    #[test]
    fn contains_byte_fallbacks_and_boundary_tokens() {
        let v = test_vocabulary(3000);
        // Every byte value appears as a single-byte token.
        for b in 0u16..256 {
            assert!(v.iter().any(|(_, t)| t == [b as u8]));
        }
        // Boundary-crossing structural tokens exist.
        assert!(v.iter().any(|(_, t)| t == b"\": \""));
        assert!(v.iter().any(|(_, t)| t == b"\"},"));
    }

    #[test]
    fn has_sub_utf8_fragment_tokens() {
        let v = test_vocabulary(3000);
        let has_fragment = v
            .iter()
            .any(|(id, t)| !v.is_special(id) && t.len() > 1 && std::str::from_utf8(t).is_err());
        assert!(
            has_fragment,
            "expected at least one non-UTF-8 fragment token"
        );
    }

    #[test]
    fn prefix_sharing_is_substantial() {
        let v = test_vocabulary(20_000);
        let sorted = SortedVocabulary::new(&v);
        // The paper reports ~30% for Llama-3.1; our synthetic vocabulary
        // should at least show clearly sub-linear checking.
        assert!(
            sorted.check_fraction() < 0.8,
            "fraction {}",
            sorted.check_fraction()
        );
    }

    #[test]
    #[should_panic(expected = "at least 512")]
    fn too_small_size_panics() {
        let _ = synthetic_vocabulary(&SyntheticVocabConfig { size: 100, seed: 0 });
    }
}
