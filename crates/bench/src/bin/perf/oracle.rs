//! Output check independent of `xg-core`: the matcher under test is never
//! asked whether its own output is valid.
//!
//! Grammar lanes are replayed byte by byte through `xg_automata`'s reference
//! [`SimpleMatcher`] over the *unoptimized* PDA of the request's grammar (no
//! rule inlining, no node merging, no mask cache, no persistent stack). Tool
//! lanes are split by plain byte search on the tag framing, and each tagged
//! payload is checked against its tool schema's PDA the same way.

use std::collections::HashMap;

use xg_automata::{build_pda, Pda, PdaBuildOptions, SimpleMatcher};
use xg_grammar::{Grammar, StructuralTag};

use crate::workloads::Source;

#[derive(Debug, Default)]
pub struct Oracle {
    /// Unoptimized PDAs, keyed by the grammar's debug rendering (complete and
    /// deterministic; schemas and the XML grammar recur across requests).
    pdas: HashMap<String, Pda>,
}

fn find(haystack: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    haystack[from..]
        .windows(needle.len())
        .position(|w| w == needle)
        .map(|p| p + from)
}

impl Oracle {
    fn accepts(&mut self, grammar: &Grammar, text: &[u8]) -> bool {
        let pda = self
            .pdas
            .entry(format!("{grammar:?}"))
            .or_insert_with(|| build_pda(grammar, &PdaBuildOptions::unoptimized()));
        SimpleMatcher::new(pda).accepts(text)
    }

    /// Checks one finished output against the constraint it was served under.
    pub fn check(&mut self, source: &Source, output: &[u8]) -> Result<(), String> {
        match source {
            Source::Catalog(catalog) => self.check_tool_transcript(catalog, output),
            other => {
                let grammar = other.grammar().expect("grammar source");
                if self.accepts(&grammar, output) {
                    Ok(())
                } else {
                    Err("output is not in the grammar's language".into())
                }
            }
        }
    }

    /// A tool transcript is free text interleaved with `begin payload end`
    /// segments of registered tags. Every trigger occurrence must open a
    /// registered tag, every opened tag must close, every payload must match
    /// its tool's schema, and — the references all call a tool — there must
    /// be at least one call.
    fn check_tool_transcript(
        &mut self,
        catalog: &StructuralTag,
        output: &[u8],
    ) -> Result<(), String> {
        let triggers = catalog.effective_triggers();
        let mut pos = 0;
        let mut calls = 0;
        loop {
            let next = triggers
                .iter()
                .filter_map(|t| find(output, t.as_bytes(), pos))
                .min();
            let Some(at) = next else { break };
            let tag = catalog
                .tags
                .iter()
                .find(|t| output[at..].starts_with(t.begin.as_bytes()))
                .ok_or_else(|| format!("byte {at}: trigger opens no registered tag"))?;
            let payload_start = at + tag.begin.len();
            let payload_end = find(output, tag.end.as_bytes(), payload_start)
                .ok_or_else(|| format!("byte {at}: tag `{}` never closes", tag.begin))?;
            let grammar = tag
                .content
                .to_grammar()
                .map_err(|e| format!("tag `{}`: {e}", tag.begin))?;
            if !self.accepts(&grammar, &output[payload_start..payload_end]) {
                return Err(format!(
                    "byte {payload_start}: payload of `{}` violates its schema",
                    tag.begin
                ));
            }
            calls += 1;
            pos = payload_end + tag.end.len();
        }
        if calls == 0 {
            return Err("transcript contains no tool call".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_and_rejects_broken_outputs() {
        let mut oracle = Oracle::default();
        let schema = Source::Schema(serde_json::json!({
            "type": "object",
            "properties": {"n": {"type": "integer"}},
            "required": ["n"],
            "additionalProperties": false
        }));
        assert!(oracle.check(&schema, br#"{"n": 3}"#).is_ok());
        assert!(oracle.check(&schema, br#"{"n": "3"}"#).is_err());
        assert!(oracle.check(&schema, br#"{"n": 3"#).is_err());
        assert!(oracle.check(&Source::Xml, b"<a><b>t</b></a>").is_ok());
        assert!(oracle.check(&Source::Xml, b"<a><b>t</a>").is_err());

        let tools: Vec<_> = (0..2).map(xg_datasets::agent_tool).collect();
        let catalog = Source::Catalog(xg_datasets::agent_catalog(&tools));
        let ok = br#"hi <function=tool_001>{"arg_001": 5}</function> bye"#;
        assert!(oracle.check(&catalog, ok).is_ok());
        let wrong_arg = br#"<function=tool_001>{"arg_000": 5}</function>"#;
        assert!(oracle.check(&catalog, wrong_arg).is_err());
        let unclosed = br#"<function=tool_000>{"arg_000": 5}"#;
        assert!(oracle.check(&catalog, unclosed).is_err());
        assert!(oracle.check(&catalog, b"no call at all").is_err());
    }
}
