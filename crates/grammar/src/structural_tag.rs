//! Structural tags: interleaving free text with tagged, grammar-constrained
//! segments.
//!
//! Agentic tool-calling workloads do not constrain the whole output: the
//! model writes *free prose* until it opens a tag such as
//! `<function=get_weather>`, at which point the argument payload must follow
//! a JSON Schema until the closing `</function>`. A [`StructuralTag`]
//! describes that shape declaratively:
//!
//! * a list of [`TagSpec`]s — begin string, inner content grammar
//!   ([`TagContent`]: EBNF text, a JSON Schema, or a prebuilt [`Grammar`]),
//!   and end string,
//! * a list of *triggers* — short strings scanned for in the free text. When
//!   the generated text ends with a trigger, decoding dispatches into the
//!   constrained grammar covering every tag whose begin string starts with
//!   that trigger (the remainder of the begin string, the content, then the
//!   end string). When no triggers are given, the full begin strings are
//!   used.
//!
//! The description is compiled by `xg-core` into a dispatching matcher; this
//! module owns validation and the per-trigger combined [`Grammar`]
//! construction ([`StructuralTag::build_trigger_grammars`]).
//!
//! # Examples
//!
//! ```
//! use xg_grammar::{StructuralTag, TagContent, TagSpec};
//!
//! let tag = StructuralTag::new(vec![TagSpec {
//!     begin: "<tool_call>".into(),
//!     content: TagContent::JsonSchema(serde_json::json!({
//!         "type": "object",
//!         "properties": {"city": {"type": "string"}},
//!         "required": ["city"]
//!     })),
//!     end: "</tool_call>".into(),
//! }]);
//! let grammars = tag.build_trigger_grammars()?;
//! assert_eq!(grammars.len(), 1); // one trigger: "<tool_call>" itself
//! # Ok::<(), xg_grammar::GrammarError>(())
//! ```

use std::hash::{Hash, Hasher};

use crate::ast::{Grammar, GrammarExpr, RuleId};
use crate::error::{GrammarError, Result};

/// The inner grammar of one tagged segment.
///
/// `Hash` and `Eq` make a whole [`StructuralTag`] a cache key: a schema is
/// hashed by walking its JSON value, a grammar by its
/// [`structural_fingerprint`](Grammar::structural_fingerprint).
#[derive(Debug, Clone, PartialEq)]
pub enum TagContent {
    /// A GBNF-style EBNF grammar text with its root rule name.
    Ebnf {
        /// The grammar source text.
        text: String,
        /// Name of the root rule inside `text`.
        root: String,
    },
    /// A JSON Schema, converted via [`crate::json_schema_to_grammar`].
    JsonSchema(serde_json::Value),
    /// An already-built grammar.
    Grammar(Grammar),
}

impl TagContent {
    /// Resolves the content into a [`Grammar`].
    ///
    /// # Errors
    ///
    /// Propagates the EBNF parse error or JSON-Schema conversion error.
    pub fn to_grammar(&self) -> Result<Grammar> {
        match self {
            TagContent::Ebnf { text, root } => crate::ebnf::parse_ebnf(text, root),
            TagContent::JsonSchema(schema) => crate::json_schema::json_schema_to_grammar(schema),
            TagContent::Grammar(grammar) => Ok(grammar.clone()),
        }
    }
}

/// JSON numbers are finite (the parser and `Number::from_f64` reject NaN),
/// so `PartialEq` on a schema is an equivalence.
impl Eq for TagContent {}

impl Hash for TagContent {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            TagContent::Ebnf { text, root } => (text, root).hash(state),
            TagContent::JsonSchema(schema) => hash_json(schema, state),
            TagContent::Grammar(grammar) => grammar.hash(state),
        }
    }
}

/// Hashes a JSON value consistently with its `PartialEq`: objects in
/// insertion order, and a float by the bits of `v + 0.0`, which folds `-0.0`
/// into the `0.0` it equals.
fn hash_json<H: Hasher>(value: &serde_json::Value, state: &mut H) {
    use serde_json::Value;
    std::mem::discriminant(value).hash(state);
    match value {
        Value::Null => {}
        Value::Bool(b) => b.hash(state),
        Value::Number(n) => match (n.as_u64(), n.as_i64(), n.as_f64()) {
            (Some(u), _, _) => u.hash(state),
            (None, Some(i), _) => i.hash(state),
            (None, None, f) => (f.unwrap_or_default() + 0.0).to_bits().hash(state),
        },
        Value::String(s) => s.hash(state),
        Value::Array(items) => {
            items.len().hash(state);
            items.iter().for_each(|item| hash_json(item, state));
        }
        Value::Object(map) => {
            map.len().hash(state);
            for (key, item) in map {
                key.hash(state);
                hash_json(item, state);
            }
        }
    }
}

/// One tagged segment: `begin` opens it, `content` constrains the inside,
/// `end` closes it and returns decoding to free text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TagSpec {
    /// The literal string that opens the tag (e.g. `<function=get_weather>`).
    pub begin: String,
    /// The grammar constraining the segment between `begin` and `end`.
    pub content: TagContent,
    /// The literal string that closes the tag (e.g. `</function>`). May be
    /// empty, in which case the segment ends as soon as the content grammar
    /// can terminate.
    pub end: String,
}

/// A structural-tag description: free text interleaved with tagged,
/// grammar-constrained segments, dispatched on trigger strings.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StructuralTag {
    /// The tagged segment kinds.
    pub tags: Vec<TagSpec>,
    /// Trigger strings scanned for in the free text. Empty means "use the
    /// begin strings of `tags`" (deduplicated).
    pub triggers: Vec<String>,
}

impl StructuralTag {
    /// Creates a structural tag whose triggers default to the begin strings.
    pub fn new(tags: Vec<TagSpec>) -> Self {
        StructuralTag {
            tags,
            triggers: Vec::new(),
        }
    }

    /// Creates a structural tag with explicit triggers (each a prefix of the
    /// begin strings it dispatches for, e.g. one `"<function="` trigger
    /// covering many `<function=NAME>` tags).
    pub fn with_triggers(tags: Vec<TagSpec>, triggers: Vec<String>) -> Self {
        StructuralTag { tags, triggers }
    }

    /// The effective trigger list: the explicit triggers, or the deduplicated
    /// begin strings when none were given.
    pub fn effective_triggers(&self) -> Vec<String> {
        if !self.triggers.is_empty() {
            return self.triggers.clone();
        }
        let mut out: Vec<String> = Vec::new();
        for tag in &self.tags {
            if !out.iter().any(|t| t == &tag.begin) {
                out.push(tag.begin.clone());
            }
        }
        out
    }

    /// Validates the description and assigns tags to triggers: result `[i]`
    /// lists the indices into `self.tags` dispatched by trigger `i` of
    /// [`effective_triggers`](Self::effective_triggers).
    ///
    /// # Errors
    ///
    /// Returns [`GrammarError::StructuralTag`] when the tag list is empty, a
    /// begin string is empty, triggers are duplicated or occur inside one
    /// another (which would make first-completed-wins scanning ambiguous), a
    /// trigger dispatches no tag, or a tag's begin string is covered by no
    /// trigger.
    pub fn trigger_assignments(&self) -> Result<Vec<Vec<usize>>> {
        fn err(message: impl Into<String>) -> GrammarError {
            GrammarError::StructuralTag {
                message: message.into(),
            }
        }
        if self.tags.is_empty() {
            return Err(err("at least one tag is required"));
        }
        for tag in &self.tags {
            if tag.begin.is_empty() {
                return Err(err("tag begin strings must not be empty"));
            }
        }
        let triggers = self.effective_triggers();
        for (i, a) in triggers.iter().enumerate() {
            if a.is_empty() {
                return Err(err("triggers must not be empty"));
            }
            // No trigger may occur *inside* another (prefix, suffix, or
            // infix): the free-text scan fires the first completed trigger,
            // and a trigger hidden inside another's partial match could
            // otherwise complete without ever firing.
            for b in triggers.iter().skip(i + 1) {
                if a.contains(b.as_str()) || b.contains(a.as_str()) {
                    return Err(err(format!(
                        "trigger {a:?} and trigger {b:?} overlap (one occurs inside \
                         the other), making trigger scanning ambiguous"
                    )));
                }
            }
        }
        let mut assignments: Vec<Vec<usize>> = vec![Vec::new(); triggers.len()];
        for (tag_idx, tag) in self.tags.iter().enumerate() {
            // Prefix-free triggers guarantee at most one match per begin.
            match triggers.iter().position(|t| tag.begin.starts_with(t)) {
                Some(trigger_idx) => assignments[trigger_idx].push(tag_idx),
                None => return Err(err(format!("tag {:?} is covered by no trigger", tag.begin))),
            }
        }
        for (trigger_idx, tags) in assignments.iter().enumerate() {
            if tags.is_empty() {
                return Err(err(format!(
                    "trigger {:?} dispatches no tag",
                    triggers[trigger_idx]
                )));
            }
        }
        Ok(assignments)
    }

    /// Validates the description (see
    /// [`trigger_assignments`](Self::trigger_assignments) for the checks).
    ///
    /// # Errors
    ///
    /// Returns [`GrammarError::StructuralTag`] describing the first violated
    /// constraint, or the content grammars' own resolution errors.
    pub fn validate(&self) -> Result<()> {
        self.trigger_assignments()?;
        for tag in &self.tags {
            tag.content.to_grammar()?.validate()?;
        }
        Ok(())
    }

    /// Builds, for every trigger, the combined grammar that constrains
    /// decoding once that trigger has fired in the free text: a choice over
    /// the dispatched tags of *(begin-string remainder, content, end
    /// string)*. The returned pairs are `(trigger, grammar)` in
    /// [`effective_triggers`](Self::effective_triggers) order.
    ///
    /// # Errors
    ///
    /// Returns the validation errors of
    /// [`trigger_assignments`](Self::trigger_assignments) or of the content
    /// grammars.
    pub fn build_trigger_grammars(&self) -> Result<Vec<(String, Grammar)>> {
        let triggers = self.effective_triggers();
        let assignments = self.trigger_assignments()?;
        let mut out = Vec::with_capacity(triggers.len());
        for (trigger, tag_indices) in triggers.into_iter().zip(assignments) {
            let grammar = self.build_grammar_for_trigger(&trigger, &tag_indices)?;
            out.push((trigger, grammar));
        }
        Ok(out)
    }

    /// Builds the combined grammar of one trigger over the given tag indices
    /// (see [`build_trigger_grammars`](Self::build_trigger_grammars) for the
    /// shape). `tag_indices` index into [`tags`](Self::tags), normally one
    /// entry of [`trigger_assignments`](Self::trigger_assignments).
    ///
    /// The result depends only on the trigger string and the *ordered list of
    /// dispatched [`TagSpec`]s* — imported content rules are namespaced by
    /// their local position among the dispatched tags, not by their global
    /// registry index. Two different registries sharing a tool therefore
    /// build structurally identical (fingerprint-equal) segment grammars for
    /// that tool's trigger, so their compilations share one grammar-cache
    /// entry.
    ///
    /// # Errors
    ///
    /// Returns the content grammars' resolution/validation errors.
    pub fn build_grammar_for_trigger(
        &self,
        trigger: &str,
        tag_indices: &[usize],
    ) -> Result<Grammar> {
        let mut builder = Grammar::builder();
        let root = builder.declare("tag_dispatch");
        let mut arms = Vec::with_capacity(tag_indices.len());
        for (arm_idx, &tag_idx) in tag_indices.iter().enumerate() {
            let tag = &self.tags[tag_idx];
            let content = tag.content.to_grammar()?;
            content.validate()?;
            let content_root = import_rules(&mut builder, &content, &format!("tag{arm_idx}_"));
            let begin_rest = &tag.begin[trigger.len()..];
            arms.push(GrammarExpr::seq(vec![
                literal_or_empty(begin_rest),
                GrammarExpr::RuleRef(content_root),
                literal_or_empty(&tag.end),
            ]));
        }
        builder.set_body(root, GrammarExpr::choice(arms));
        builder.build("tag_dispatch")
    }

    /// Applies a [`DispatchDelta`], returning the mutated registry. The
    /// receiver is unchanged; triggers and untouched tags carry over.
    ///
    /// # Errors
    ///
    /// Returns [`GrammarError::StructuralTag`] when the delta does not apply
    /// (adding an exact duplicate of a registered tag, removing a begin
    /// string no tag carries) or when the mutated registry fails
    /// [`trigger_assignments`](Self::trigger_assignments) validation — e.g.
    /// removing the only tag, or adding a tag no explicit trigger covers.
    pub fn apply_delta(&self, delta: &DispatchDelta) -> Result<StructuralTag> {
        fn err(message: impl Into<String>) -> GrammarError {
            GrammarError::StructuralTag {
                message: message.into(),
            }
        }
        let mut next = self.clone();
        match delta {
            DispatchDelta::AddTag(spec) => {
                if next.tags.contains(spec) {
                    return Err(err(format!(
                        "tag {:?} is already registered (exact duplicate)",
                        spec.begin
                    )));
                }
                next.tags.push(spec.clone());
            }
            DispatchDelta::RemoveTag { begin } => {
                let before = next.tags.len();
                next.tags.retain(|t| &t.begin != begin);
                if next.tags.len() == before {
                    return Err(err(format!("no registered tag has begin string {begin:?}")));
                }
            }
        }
        next.trigger_assignments()?;
        Ok(next)
    }
}

/// One mutation of a [`StructuralTag`] tool registry, applied with
/// [`StructuralTag::apply_delta`] (or incrementally compiled by
/// `xg-core`'s `GrammarCompiler::update_tag_dispatch`): agentic sessions
/// register and retire tools mid-session, and a delta names exactly the
/// changed tag so the compiler can leave every other trigger's compiled
/// segment grammar untouched.
#[derive(Debug, Clone, PartialEq)]
pub enum DispatchDelta {
    /// Register a new tag. With default (begin-string) triggers this also
    /// adds the tag's trigger; with explicit triggers, an existing trigger
    /// must cover the new begin string.
    AddTag(TagSpec),
    /// Remove every registered tag whose begin string equals `begin` (and,
    /// with default triggers, the corresponding trigger).
    RemoveTag {
        /// The begin string of the tag(s) to remove.
        begin: String,
    },
}

/// Wraps `grammar` as *grammar · any-byte\** — the combined segment grammar
/// followed by an unconstrained free-text continuation.
///
/// The tag-dispatch runtime closes a tagged segment *eagerly*, at the first
/// byte where the combined grammar can terminate, and processes any remaining
/// bytes of the same token as free text. Its token mask therefore must not be
/// the combined grammar's mask alone: a single token that finishes the end
/// tag *and* continues with prose is acceptable, and masking it away costs
/// one token of throughput at every segment boundary. Compiling the segment
/// grammar with this tail makes the mask the union of "continues the
/// segment" and "closes the segment, then anything" — while acceptance
/// semantics are untouched, because the eager close fires before the tail is
/// ever entered across a token boundary.
///
/// The tail is *byte level* ([`crate::ByteClass`]): free text after the close
/// is untokenized prose, and a boundary-spanning token may carry post-close
/// bytes that are not valid UTF-8 on their own (e.g. the lead bytes of a
/// multi-byte character whose continuation arrives in the next token). A
/// character-level tail conservatively rejected those tokens at every segment
/// boundary; the byte-level tail admits exactly what the free-text mode
/// itself accepts — any byte.
pub fn append_free_text_tail(grammar: &Grammar) -> Grammar {
    let mut builder = Grammar::builder();
    let root = builder.declare("segment_with_free_tail");
    let inner_root = import_rules(&mut builder, grammar, "seg_");
    builder.set_body(
        root,
        GrammarExpr::seq(vec![
            GrammarExpr::RuleRef(inner_root),
            GrammarExpr::star(GrammarExpr::ByteClass(crate::ast::ByteClass::any())),
        ]),
    );
    builder
        .build("segment_with_free_tail")
        .expect("the root rule is declared above")
}

fn literal_or_empty(s: &str) -> GrammarExpr {
    if s.is_empty() {
        GrammarExpr::Empty
    } else {
        GrammarExpr::literal(s)
    }
}

/// Imports every rule of `source` into `builder` under `prefix`-namespaced
/// names, remapping rule references, and returns the new id of the source's
/// root rule.
fn import_rules(
    builder: &mut crate::ast::GrammarBuilder,
    source: &Grammar,
    prefix: &str,
) -> RuleId {
    let mapping: Vec<RuleId> = source
        .rules()
        .iter()
        .map(|rule| builder.declare(&format!("{prefix}{}", rule.name)))
        .collect();
    for (old_idx, rule) in source.rules().iter().enumerate() {
        let body = remap_refs(&rule.body, &mapping);
        builder.set_body(mapping[old_idx], body);
    }
    mapping[source.root().index()]
}

/// Rewrites every [`GrammarExpr::RuleRef`] through `mapping` (indexed by the
/// source grammar's rule ids).
fn remap_refs(expr: &GrammarExpr, mapping: &[RuleId]) -> GrammarExpr {
    match expr {
        GrammarExpr::RuleRef(id) => GrammarExpr::RuleRef(mapping[id.index()]),
        GrammarExpr::Sequence(items) => {
            GrammarExpr::Sequence(items.iter().map(|e| remap_refs(e, mapping)).collect())
        }
        GrammarExpr::Choice(items) => {
            GrammarExpr::Choice(items.iter().map(|e| remap_refs(e, mapping)).collect())
        }
        GrammarExpr::Repeat { expr, min, max } => GrammarExpr::Repeat {
            expr: Box::new(remap_refs(expr, mapping)),
            min: *min,
            max: *max,
        },
        GrammarExpr::Empty
        | GrammarExpr::Literal(_)
        | GrammarExpr::CharClass(_)
        | GrammarExpr::ByteClass(_) => expr.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn json_city_schema() -> serde_json::Value {
        serde_json::json!({
            "type": "object",
            "properties": {"city": {"type": "string"}},
            "required": ["city"],
            "additionalProperties": false
        })
    }

    fn simple_tag() -> TagSpec {
        TagSpec {
            begin: "<tool_call>".into(),
            content: TagContent::JsonSchema(json_city_schema()),
            end: "</tool_call>".into(),
        }
    }

    #[test]
    fn default_triggers_are_the_begin_strings() {
        let tag = StructuralTag::new(vec![simple_tag(), simple_tag()]);
        assert_eq!(tag.effective_triggers(), vec!["<tool_call>".to_string()]);
        assert_eq!(tag.trigger_assignments().unwrap(), vec![vec![0, 1]]);
    }

    #[test]
    fn shared_trigger_dispatches_multiple_tags() {
        let mk = |name: &str| TagSpec {
            begin: format!("<function={name}>"),
            content: TagContent::Ebnf {
                text: r#"root ::= [0-9]+"#.into(),
                root: "root".into(),
            },
            end: "</function>".into(),
        };
        let tag =
            StructuralTag::with_triggers(vec![mk("alpha"), mk("beta")], vec!["<function=".into()]);
        let assignments = tag.trigger_assignments().unwrap();
        assert_eq!(assignments, vec![vec![0, 1]]);
        let grammars = tag.build_trigger_grammars().unwrap();
        assert_eq!(grammars.len(), 1);
        let (trigger, grammar) = &grammars[0];
        assert_eq!(trigger, "<function=");
        grammar.validate().unwrap();
        // The combined grammar carries both content copies plus the root.
        assert!(grammar.rule_id("tag0_root").is_some());
        assert!(grammar.rule_id("tag1_root").is_some());
    }

    #[test]
    fn validation_rejects_malformed_descriptions() {
        // No tags at all.
        assert!(StructuralTag::new(vec![]).validate().is_err());
        // Empty begin string.
        let mut empty_begin = simple_tag();
        empty_begin.begin.clear();
        assert!(StructuralTag::new(vec![empty_begin]).validate().is_err());
        // Triggers that are prefixes of each other.
        let nested = StructuralTag::with_triggers(
            vec![simple_tag()],
            vec!["<tool".into(), "<tool_call>".into()],
        );
        assert!(matches!(
            nested.validate(),
            Err(GrammarError::StructuralTag { .. })
        ));
        // Triggers occurring *inside* another (infix) are just as ambiguous:
        // the infix could complete inside the longer trigger's partial match.
        let infix = StructuralTag::with_triggers(
            vec![simple_tag()],
            vec!["<tool_call>".into(), "oo".into()],
        );
        assert!(matches!(
            infix.validate(),
            Err(GrammarError::StructuralTag { .. })
        ));
        // A trigger covering no tag.
        let dangling = StructuralTag::with_triggers(
            vec![simple_tag()],
            vec!["<tool_call>".into(), "<x".into()],
        );
        assert!(dangling.validate().is_err());
        // A tag covered by no trigger.
        let uncovered = StructuralTag::with_triggers(vec![simple_tag()], vec![]);
        // with_triggers([]) falls back to begins, which always cover; build an
        // explicit mismatch instead.
        assert!(uncovered.validate().is_ok());
        let mismatch = StructuralTag::with_triggers(vec![simple_tag()], vec!["<other>".into()]);
        assert!(mismatch.validate().is_err());
    }

    #[test]
    fn ebnf_and_schema_content_resolve() {
        let ebnf = TagContent::Ebnf {
            text: r#"root ::= "[" [0-9]+ "]""#.into(),
            root: "root".into(),
        };
        assert!(ebnf.to_grammar().is_ok());
        let schema = TagContent::JsonSchema(json_city_schema());
        assert!(schema.to_grammar().is_ok());
        let bad = TagContent::Ebnf {
            text: "root ::= undefined_rule".into(),
            root: "root".into(),
        };
        assert!(bad.to_grammar().is_err());
    }

    #[test]
    fn free_text_tail_wraps_and_validates() {
        let tag = StructuralTag::new(vec![simple_tag()]);
        let grammars = tag.build_trigger_grammars().unwrap();
        let (_, grammar) = &grammars[0];
        let tailed = append_free_text_tail(grammar);
        tailed.validate().unwrap();
        // Every imported rule is present under the segment prefix, and the
        // new root sequences the segment before the any-character tail.
        assert!(tailed.rule_id("seg_tag_dispatch").is_some());
        assert_eq!(tailed.rule(tailed.root()).name, "segment_with_free_tail");
        // The tail makes the wrapped grammar nullable-extendable: the
        // original root stays non-nullable, the tail adds nothing mandatory.
        let nullable = tailed.nullable_rules();
        assert!(!nullable[tailed.root().index()]);
    }

    #[test]
    fn registry_position_does_not_change_trigger_grammar_fingerprints() {
        // The same tool in two different registries (different global tag
        // indices) must build fingerprint-identical segment grammars, so the
        // registries share one compiled artifact per overlapping tool.
        let mk = |name: &str| TagSpec {
            begin: format!("<tool:{name}>"),
            content: TagContent::JsonSchema(json_city_schema()),
            end: "</tool>".into(),
        };
        let a = StructuralTag::new(vec![mk("alpha"), mk("shared")]);
        let b = StructuralTag::new(vec![mk("beta"), mk("gamma"), mk("shared")]);
        let shared_a = a
            .build_trigger_grammars()
            .unwrap()
            .into_iter()
            .find(|(t, _)| t == "<tool:shared>")
            .unwrap()
            .1;
        let shared_b = b
            .build_trigger_grammars()
            .unwrap()
            .into_iter()
            .find(|(t, _)| t == "<tool:shared>")
            .unwrap()
            .1;
        assert_eq!(
            shared_a.structural_fingerprint(),
            shared_b.structural_fingerprint()
        );
    }

    #[test]
    fn equal_descriptions_hash_alike() {
        let hash = |tag: &StructuralTag| {
            let mut hasher = std::collections::hash_map::DefaultHasher::new();
            tag.hash(&mut hasher);
            hasher.finish()
        };
        let with_minimum = |minimum: &str| {
            let schema = format!(r#"{{"type":"number","minimum":{minimum}}}"#);
            StructuralTag::new(vec![TagSpec {
                begin: "<t>".into(),
                content: TagContent::JsonSchema(serde_json::from_str(&schema).unwrap()),
                end: "</t>".into(),
            }])
        };
        // `-0.0 == 0.0`, so the two must land on one key.
        assert_eq!(with_minimum("-0.0"), with_minimum("0.0"));
        assert_eq!(hash(&with_minimum("-0.0")), hash(&with_minimum("0.0")));
        assert_ne!(hash(&with_minimum("0")), hash(&with_minimum("1")));
    }

    #[test]
    fn apply_delta_adds_and_removes_tags() {
        let mk = |name: &str| TagSpec {
            begin: format!("<tool:{name}>"),
            content: TagContent::JsonSchema(json_city_schema()),
            end: "</tool>".into(),
        };
        let base = StructuralTag::new(vec![mk("alpha"), mk("beta")]);

        let grown = base
            .apply_delta(&DispatchDelta::AddTag(mk("gamma")))
            .unwrap();
        assert_eq!(grown.tags.len(), 3);
        assert_eq!(grown.effective_triggers().len(), 3);
        // Untouched fields carry over.
        assert_eq!(grown.triggers, base.triggers);
        assert_eq!(grown.tags[0], base.tags[0]);

        let shrunk = grown
            .apply_delta(&DispatchDelta::RemoveTag {
                begin: "<tool:beta>".into(),
            })
            .unwrap();
        assert_eq!(shrunk.tags.len(), 2);
        assert!(shrunk.tags.iter().all(|t| t.begin != "<tool:beta>"));

        // Duplicates and missing begins are rejected.
        assert!(base
            .apply_delta(&DispatchDelta::AddTag(mk("alpha")))
            .is_err());
        assert!(base
            .apply_delta(&DispatchDelta::RemoveTag {
                begin: "<tool:nope>".into()
            })
            .is_err());
        // Removing the last tag leaves an invalid registry.
        let single = StructuralTag::new(vec![mk("only")]);
        assert!(single
            .apply_delta(&DispatchDelta::RemoveTag {
                begin: "<tool:only>".into()
            })
            .is_err());
    }

    #[test]
    fn apply_delta_respects_explicit_triggers() {
        let mk = |name: &str| TagSpec {
            begin: format!("<function={name}>"),
            content: TagContent::JsonSchema(json_city_schema()),
            end: "</function>".into(),
        };
        let base = StructuralTag::with_triggers(vec![mk("alpha")], vec!["<function=".into()]);
        // Covered by the shared trigger: fine.
        let grown = base
            .apply_delta(&DispatchDelta::AddTag(mk("beta")))
            .unwrap();
        assert_eq!(grown.trigger_assignments().unwrap(), vec![vec![0, 1]]);
        // A begin string no explicit trigger covers is rejected.
        let uncovered = TagSpec {
            begin: "<other>".into(),
            content: TagContent::JsonSchema(json_city_schema()),
            end: "</other>".into(),
        };
        assert!(base.apply_delta(&DispatchDelta::AddTag(uncovered)).is_err());
    }

    #[test]
    fn trigger_grammar_accepts_full_tagged_segment_after_trigger() {
        // Trigger = the whole begin string, so the combined grammar matches
        // `{content}</tool_call>`-shaped remainders.
        let tag = StructuralTag::new(vec![simple_tag()]);
        let grammars = tag.build_trigger_grammars().unwrap();
        let (_, grammar) = &grammars[0];
        grammar.validate().unwrap();
        // The begin remainder is empty, so the root's arm starts directly
        // with the imported content root followed by the end literal.
        assert!(grammar.rule_id("tag0_root").is_some());
    }
}
