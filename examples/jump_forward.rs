//! Jump-forward decoding (paper Appendix B): whenever the grammar forces a
//! unique continuation, append it directly instead of sampling it token by
//! token, and roll back across it when needed.
//!
//! ```text
//! cargo run --example jump_forward
//! ```

use std::sync::Arc;

use xgrammar::{ConstraintMatcher, GrammarCompiler, GrammarMatcher, TokenBitmask};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let vocab = Arc::new(xgrammar::tokenizer::test_vocabulary(8000));
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));

    // A schema with long forced key names: ideal for jump-forward decoding.
    let schema = serde_json::json!({
        "type": "object",
        "properties": {
            "transaction_identifier": {"type": "integer"},
            "customer_full_name": {"type": "string"},
            "approved": {"type": "boolean"}
        },
        "required": ["transaction_identifier", "customer_full_name", "approved"],
        "additionalProperties": false
    });
    let compiled = compiler.compile_json_schema(&schema)?;
    let mut matcher = GrammarMatcher::new(compiled);
    let mut mask = TokenBitmask::new_all_rejected(vocab.len());

    let mut sampled_tokens = 0usize;
    let mut jumped_bytes = 0usize;
    let mut output = Vec::new();
    // The "model" wants to produce this document.
    let reference = br#"{"transaction_identifier": 98127, "customer_full_name": "ada lovelace", "approved": true}"#;
    let mut cursor = 0usize;

    loop {
        // 1. Jump over any forced text without touching the model.
        let jump = matcher.find_jump_forward_string();
        if !jump.is_empty() {
            matcher.accept_bytes(&jump)?;
            output.extend_from_slice(&jump);
            jumped_bytes += jump.len();
            // Keep the reference cursor in sync with the forced text.
            if reference[cursor..].starts_with(&jump[..]) {
                cursor += jump.len();
            }
            println!("jump-forward: {:?}", String::from_utf8_lossy(&jump));
            continue;
        }
        // 2. Otherwise sample one token (greedy against the reference).
        if cursor >= reference.len() {
            break;
        }
        matcher.fill_next_token_bitmask(&mut mask);
        let mut choice = None;
        let mut choice_len = 0;
        for token in mask.allowed_tokens() {
            let bytes = vocab.token_bytes(token);
            if reference[cursor..].starts_with(bytes) && bytes.len() > choice_len {
                choice = Some(token);
                choice_len = bytes.len();
            }
        }
        let Some(token) = choice else { break };
        matcher.accept_token(token)?;
        output.extend_from_slice(vocab.token_bytes(token));
        cursor += choice_len;
        sampled_tokens += 1;
    }

    println!();
    println!("final output: {}", String::from_utf8_lossy(&output));
    println!(
        "sampled {} tokens, jumped over {} bytes of forced text ({}% of the output)",
        sampled_tokens,
        jumped_bytes,
        100 * jumped_bytes / output.len().max(1)
    );

    // 3. Rollback demo: undo the last two steps (token or jump) and verify
    //    the matcher can regenerate.
    matcher.rollback(2)?;
    println!(
        "rolled back 2 steps; matcher alive: {}",
        !matcher.is_terminated()
    );
    Ok(())
}
