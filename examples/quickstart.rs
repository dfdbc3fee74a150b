//! Quickstart: compile a JSON-Schema grammar, then alternate mask generation
//! and token acceptance exactly the way an LLM serving engine would.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use xgrammar::{ConstraintMatcher, GrammarCompiler, GrammarMatcher, TokenBitmask};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A tokenizer vocabulary. Real integrations read the serving engine's
    //    tokenizer; here we use the synthetic Llama-3.1-like one.
    let vocab = Arc::new(xgrammar::tokenizer::test_vocabulary(8000));
    println!("vocabulary: {} tokens", vocab.len());

    // 2. Compile a JSON Schema into a grammar + adaptive token mask cache.
    let schema = serde_json::json!({
        "type": "object",
        "properties": {
            "city": {"type": "string"},
            "unit": {"enum": ["celsius", "fahrenheit"]},
            "days": {"type": "integer"}
        },
        "required": ["city", "unit", "days"],
        "additionalProperties": false
    });
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let compiled = compiler.compile_json_schema(&schema)?;
    let stats = compiled.stats();
    println!(
        "compiled: {} automaton nodes, mask cache {:.1} KiB (dense would be {:.1} KiB), worst node has {} context-dependent tokens",
        stats.nodes,
        stats.memory_bytes as f64 / 1024.0,
        stats.dense_memory_bytes as f64 / 1024.0,
        stats.max_context_dependent_per_node,
    );

    // 3. Drive a generation. We stand in for the LLM by always proposing the
    //    next fragment of a known-good answer.
    let reference = br#"{"city": "paris", "unit": "celsius", "days": 3}"#;
    let mut matcher = GrammarMatcher::new(compiled);
    let mut mask = TokenBitmask::new_all_rejected(vocab.len());
    let mut output = Vec::new();
    let mut position = 0;
    while position < reference.len() {
        matcher.fill_next_token_bitmask(&mut mask);
        // Greedy "model": longest vocabulary token continuing the reference
        // that the mask allows.
        let mut choice = None;
        let mut choice_len = 0;
        for token in mask.allowed_tokens() {
            let bytes = vocab.token_bytes(token);
            if reference[position..].starts_with(bytes) && bytes.len() > choice_len {
                choice = Some(token);
                choice_len = bytes.len();
            }
        }
        let token = choice.expect("the reference conforms to the schema");
        matcher.accept_token(token)?;
        output.extend_from_slice(vocab.token_bytes(token));
        position += choice_len;
    }
    matcher.fill_next_token_bitmask(&mut mask);
    let eos = vocab.eos().expect("vocabulary has EOS");
    assert!(
        mask.is_allowed(eos),
        "the structure is complete, EOS must be allowed"
    );
    matcher.accept_token(eos)?;

    println!("constrained output: {}", String::from_utf8_lossy(&output));
    println!(
        "matcher stats: {} masks, {} context-dependent runtime checks",
        matcher.stats().masks_generated,
        matcher.stats().context_dependent_checked
    );
    Ok(())
}
