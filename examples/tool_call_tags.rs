//! Structural tags: an agentic tool-calling transcript where free prose
//! passes through unconstrained and `<function=NAME>{json}</function>`
//! segments are grammar-constrained, with rollback across the tag boundary.
//!
//! ```text
//! cargo run --release --example tool_call_tags
//! ```

use std::sync::Arc;

use xgrammar::{
    ConstraintMatcher, DispatchMode, GrammarCompiler, StructuralTag, StructuralTagMatcher,
    TagContent, TagSpec, TokenBitmask,
};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let vocab = Arc::new(xgrammar::tokenizer::test_vocabulary(8000));
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));

    // Two registered tools behind one shared trigger: once the model writes
    // `<function=`, decoding is constrained to a registered name, its
    // argument schema, and the closing tag.
    let weather = serde_json::json!({
        "type": "object",
        "properties": {"city": {"type": "string"}, "days": {"type": "integer"}},
        "required": ["city", "days"],
        "additionalProperties": false
    });
    let search = serde_json::json!({
        "type": "object",
        "properties": {"query": {"type": "string"}},
        "required": ["query"],
        "additionalProperties": false
    });
    let tag = StructuralTag::with_triggers(
        vec![
            TagSpec {
                begin: "<function=get_weather>".into(),
                content: TagContent::JsonSchema(weather),
                end: "</function>".into(),
            },
            TagSpec {
                begin: "<function=search>".into(),
                content: TagContent::JsonSchema(search),
                end: "</function>".into(),
            },
        ],
        vec!["<function=".into()],
    );
    let compiled = compiler.compile_tag_dispatch(&tag)?;
    let mut matcher = StructuralTagMatcher::new(compiled);
    let mut mask = TokenBitmask::new_all_rejected(vocab.len());

    // Free prose costs no mask work: the mask is all-allowed.
    matcher.fill_next_token_bitmask(&mut mask);
    println!(
        "free text      : {} of {} tokens allowed",
        mask.count_allowed(),
        vocab.len()
    );
    matcher.accept_bytes(b"Let me check the forecast. ")?;

    // The trigger fires and the tagged segment is constrained.
    matcher.accept_bytes(b"<function=")?;
    matcher.fill_next_token_bitmask(&mut mask);
    println!(
        "after trigger  : {} tokens allowed (mode {:?})",
        mask.count_allowed(),
        matcher.mode()
    );
    // Inside the segment, forced bytes are jumpable: once "get" rules out
    // the other registered tool, the rest of the name needs no sampled
    // tokens (or GPU steps) at all.
    matcher.accept_bytes(b"get")?;
    let forced = String::from_utf8(matcher.find_jump_forward_string())?;
    println!("jump-forward   : {forced:?} is forced, skipping the GPU for it");
    assert_eq!(forced, "_weather>");
    matcher.accept_bytes(forced.as_bytes())?;
    matcher.accept_bytes(br#"{"city": "oslo", "days": 3}</function>"#)?;
    println!("after end tag  : mode {:?}", matcher.mode());

    // Invalid tool output is impossible: a wrong byte inside the tag fails.
    matcher.accept_bytes(b" And one more: <function=")?;
    assert!(matcher.accept_bytes(b"delete_everything>").is_err());
    println!("unregistered fn: rejected inside the tag (as it should be)");

    // Rollback across the tag boundary: undo the half-open call entirely.
    matcher.rollback(1)?;
    assert_eq!(matcher.mode(), DispatchMode::FreeText);
    matcher.accept_bytes(b" Never mind, done.")?;
    assert!(matcher.can_terminate());
    println!("stats          : {:?}", matcher.stats());
    Ok(())
}
