//! JSON Schema → grammar conversion.
//!
//! Converts (a practical subset of) JSON Schema documents into a [`Grammar`]
//! whose language is exactly the set of JSON documents accepted by the
//! schema, which is what the paper's "JSON Schema" workload (function
//! calling) requires. Supported keywords are [`SUPPORTED_KEYWORDS`]; `pattern`
//! compiles through [`crate::regex_pattern_to_expr`], `format` names are
//! [`crate::SUPPORTED_FORMATS`], numeric bounds become digit-wise grammars,
//! and `multipleOf` on integers a divisibility DFA over decimal digits.
//!
//! Every schema converts on one path. It is flattened into *members*: the
//! target of its `$ref`, its own keywords, then its `allOf` members,
//! recursively and in that order, borrowed from the document. Each keyword is
//! then read across the members: the tighter bound (exclusive on a tie), the
//! intersection of `type` and of `const`/`enum`, the union of `required`,
//! properties met by name, `additionalProperties` where `false` wins, and
//! `items` met. Each `anyOf`/`oneOf` branch converts together with the other
//! members. Keywords with no intersection (`pattern`, `format`, `multipleOf`,
//! `prefixItems`, `anyOf`, `oneOf`) must agree across members. A pure `$ref`
//! becomes a grammar rule, so recursive schemas become recursive rules.
//!
//! Annotation keywords ([`ANNOTATION_KEYWORDS`]) never affect syntax. Any
//! *other* keyword would silently widen the accepted language, and so would
//! a supported keyword whose value or combination the grammar cannot express
//! (a `prefixItems` tuple that `maxItems` excludes, an undeclared `required`
//! name, a `const` not of its sibling `type`, ...). By default the converter
//! rejects each with [`GrammarError::Schema`]; [`JsonSchemaOptions::lenient`]
//! falls back to the wider grammar instead. One method,
//! `Converter::unsupported`, makes that decision for every such case.

use std::collections::HashMap;

use serde_json::Value;

use crate::ast::{CharClass, CharRange, Grammar, GrammarBuilder, GrammarExpr, RuleId};
use crate::bounded_number::{integer_range_expr, number_range_expr};
use crate::ebnf::read_rules;
use crate::error::{GrammarError, Result};
use crate::formats::format_expr;
use crate::pattern::regex_pattern_to_expr;

type Map = serde_json::Map<String, Value>;

/// Keywords the converter consumes and enforces. Anything outside this list
/// and [`ANNOTATION_KEYWORDS`] is rejected in strict mode.
pub const SUPPORTED_KEYWORDS: &[&str] = &[
    "$ref",
    "additionalProperties",
    "allOf",
    "anyOf",
    "const",
    "enum",
    "exclusiveMaximum",
    "exclusiveMinimum",
    "format",
    "items",
    "maxItems",
    "maxLength",
    "maximum",
    "minItems",
    "minLength",
    "minimum",
    "multipleOf",
    "oneOf",
    "pattern",
    "prefixItems",
    "properties",
    "required",
    "type",
];

/// Keywords that are pure annotations (or reference containers resolved
/// through `$ref`) and never affect the accepted language.
pub const ANNOTATION_KEYWORDS: &[&str] = &[
    "$comment",
    "$defs",
    "$id",
    "$schema",
    "default",
    "definitions",
    "deprecated",
    "description",
    "examples",
    "readOnly",
    "title",
    "writeOnly",
];

/// Deepest nesting the converter follows: nested schemas (`properties`,
/// `items`, `anyOf` branches, ...) and `$ref`/`allOf` flattening together.
/// Past it a schema is a [`GrammarError::Schema`], not a stack overflow; a
/// `$ref` cycle through `allOf` has no finite flattening and ends here too.
/// Recursive schemas are still supported through pure `$ref`, which becomes
/// a recursive grammar rule.
const MAX_DEPTH: usize = 128;

/// Largest `multipleOf` divisor compiled into a digit DFA; the DFA has one
/// rule per residue class, so this bounds grammar size.
const MAX_MULTIPLE_OF: u64 = 1024;

/// Controls the JSON punctuation separators the generated grammar accepts.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum WhitespaceConfig {
    /// No whitespace anywhere: `{"a":1,"b":[2,3]}`.
    Compact,
    /// Arbitrary whitespace (space, tab, newline, carriage return) around
    /// every punctuation token, as in free-form JSON. This is the default
    /// but enlarges the automaton.
    #[default]
    Flexible,
    /// Fixed separator strings, llguidance-style: `item_separator` replaces
    /// `,` and `key_separator` replaces `:`. Each must contain the
    /// punctuation character exactly once plus only whitespace (e.g. `", "`
    /// and `": "`).
    Separators {
        /// Replacement for `,` between members/items, e.g. `", "`.
        item_separator: String,
        /// Replacement for `:` between object keys and values, e.g. `": "`.
        key_separator: String,
    },
}

/// Options controlling the generated grammar.
#[derive(Debug, Clone, Default)]
pub struct JsonSchemaOptions {
    /// Separator/whitespace policy threaded through the converter.
    pub whitespace: WhitespaceConfig,
    /// When `true`, unknown keywords are ignored and supported keywords with
    /// unsupported values fall back to the unconstrained grammar for their
    /// type, instead of raising [`GrammarError::Schema`]. The default is
    /// strict: silent widening of the accepted language is an error.
    pub lenient: bool,
}

/// Converts a JSON Schema document (already parsed into a
/// [`serde_json::Value`]) into a [`Grammar`] with default options.
///
/// # Errors
///
/// Returns [`GrammarError::Schema`] for malformed or unsupported schemas.
///
/// # Examples
///
/// ```
/// let schema: serde_json::Value = serde_json::json!({
///     "type": "object",
///     "properties": {
///         "name": {"type": "string"},
///         "age": {"type": "integer", "minimum": 0}
///     },
///     "required": ["name"]
/// });
/// let grammar = xg_grammar::json_schema_to_grammar(&schema).unwrap();
/// assert!(grammar.rules().len() > 3);
/// ```
pub fn json_schema_to_grammar(schema: &Value) -> Result<Grammar> {
    json_schema_to_grammar_with_options(schema, &JsonSchemaOptions::default())
}

/// Converts a JSON Schema document with explicit [`JsonSchemaOptions`].
///
/// # Errors
///
/// Returns [`GrammarError::Schema`] for malformed or unsupported schemas and
/// for invalid [`WhitespaceConfig::Separators`] strings.
pub fn json_schema_to_grammar_with_options(
    schema: &Value,
    options: &JsonSchemaOptions,
) -> Result<Grammar> {
    validate_whitespace_config(&options.whitespace)?;
    let mut conv = Converter {
        builder: read_rules(&json_value_rules(&options.whitespace))?,
        options: options.clone(),
        root_schema: schema,
        counter: 0,
        ref_rules: HashMap::new(),
        format_rules: HashMap::new(),
        depth: 0,
        pad: GrammarExpr::Empty,
        colon: GrammarExpr::Empty,
        comma: GrammarExpr::Empty,
    };
    if options.whitespace == WhitespaceConfig::Flexible {
        conv.pad = conv.basic("json_ws");
    }
    let ((key, item), pad) = (punctuation(&options.whitespace), &conv.pad);
    let padded = |p| GrammarExpr::seq(vec![pad.clone(), GrammarExpr::literal(p), pad.clone()]);
    (conv.colon, conv.comma) = (padded(key), padded(item));
    let root_expr = conv.convert(Vec::new(), &[schema], "#")?;
    let root_body = GrammarExpr::seq(vec![conv.pad.clone(), root_expr, conv.pad.clone()]);
    conv.builder.add_rule("root", root_body);
    let grammar = conv.builder.build("root")?;
    grammar.validate()?;
    Ok(grammar)
}

fn validate_whitespace_config(config: &WhitespaceConfig) -> Result<()> {
    let WhitespaceConfig::Separators {
        item_separator,
        key_separator,
    } = config
    else {
        return Ok(());
    };
    for (name, sep, punct) in [
        ("item_separator", item_separator, ','),
        ("key_separator", key_separator, ':'),
    ] {
        let punct_count = sep.chars().filter(|&c| c == punct).count();
        let rest_ok = sep
            .chars()
            .all(|c| c == punct || matches!(c, ' ' | '\t' | '\n' | '\r'));
        if punct_count != 1 || !rest_ok {
            return Err(GrammarError::Schema {
                path: "#".to_string(),
                message: format!(
                    "invalid {name} `{sep}`: must contain `{punct}` exactly once \
                     plus only whitespace"
                ),
            });
        }
    }
    Ok(())
}

/// The JSON value rules every converted grammar starts with, in rule order.
/// `PAD`, `COLON` and `COMMA` stand for the [`WhitespaceConfig`]'s padding
/// and separators (see [`json_value_rules`]).
const JSON_VALUE_EBNF: &str = r#"
json_char    ::= [^"\\\x00-\x1f] | "\\" (["\\/bfnrt] | "u" [0-9a-fA-F]{4})
json_string  ::= "\"" json_char* "\""
json_integer ::= "-"? ("0" | [1-9] [0-9]*)
json_number  ::= json_integer ("." [0-9]+)? ([eE] [+-]? [0-9]+)?
json_boolean ::= "true" | "false"
json_null    ::= "null"
json_any     ::= "{" PAD "}"
               | "{" PAD json_string COLON json_any (COMMA json_string COLON json_any)* PAD "}"
               | "[" PAD "]" | "[" PAD json_any (COMMA json_any)* PAD "]"
               | json_string | json_number | json_boolean | json_null
"#;

/// The key and item separators under `whitespace`: the bare `:` and `,`,
/// which flexible mode pads with `json_ws`, or the configured strings.
fn punctuation(whitespace: &WhitespaceConfig) -> (&str, &str) {
    match whitespace {
        WhitespaceConfig::Separators {
            item_separator,
            key_separator,
        } => (key_separator, item_separator),
        _ => (":", ","),
    }
}

/// [`JSON_VALUE_EBNF`] under `whitespace`: flexible padding is a `json_ws`
/// rule, defined first; otherwise `PAD` is empty.
fn json_value_rules(whitespace: &WhitespaceConfig) -> String {
    // Separators are validated to hold punctuation and ` \t\n\r` only, whose
    // `Debug` form is an EBNF literal.
    let (key, item) = punctuation(whitespace);
    let rules = JSON_VALUE_EBNF
        .replace("COLON", &format!("PAD {key:?} PAD"))
        .replace("COMMA", &format!("PAD {item:?} PAD"));
    match whitespace {
        WhitespaceConfig::Flexible => {
            r"json_ws ::= [ \t\n\r]*".to_string() + &rules.replace("PAD", "json_ws")
        }
        _ => rules.replace("PAD", ""),
    }
}

/// The combinators whose branches distribute over the other members, in the
/// order they are distributed.
const BRANCHING: [&str; 2] = ["anyOf", "oneOf"];

/// One schema object constraining the value being converted, borrowed from
/// the document. The first `.1` keywords of [`BRANCHING`] are hidden: they
/// have been distributed already.
#[derive(Clone, Copy)]
struct Member<'a>(&'a Map, usize);

impl<'a> Member<'a> {
    fn get(self, key: &str) -> Option<&'a Value> {
        if BRANCHING[..self.1].contains(&key) {
            return None;
        }
        self.0.get(key)
    }

    /// Whether a supported keyword other than `$ref` and `allOf`, which
    /// [`Converter::collect`] has already flattened, is visible.
    fn constrains(self) -> bool {
        self.0.keys().any(|key| {
            !matches!(key.as_str(), "$ref" | "allOf")
                && SUPPORTED_KEYWORDS.contains(&key.as_str())
                && self.get(key).is_some()
        })
    }
}

/// The values the members give `key`, in member order.
fn values<'a, 'm>(members: &'m [Member<'a>], key: &'m str) -> impl Iterator<Item = &'a Value> + 'm {
    members.iter().filter_map(move |member| member.get(key))
}

/// Adds `value` to `list` unless an equal value is there already, so that
/// members repeating one subschema (a shared `$ref`) convert it alone.
fn push_new<'a>(list: &mut Vec<&'a Value>, value: &'a Value) {
    if !list.contains(&value) {
        list.push(value);
    }
}

struct Converter<'a> {
    builder: GrammarBuilder,
    options: JsonSchemaOptions,
    root_schema: &'a Value,
    counter: usize,
    /// `$ref` pointer → grammar rule, so each target compiles once and
    /// recursive references become recursive rules instead of diverging.
    ref_rules: HashMap<String, RuleId>,
    /// `format` name → grammar rule for the quoted format string.
    format_rules: HashMap<String, RuleId>,
    /// Current nesting of conversions and flattening (see [`MAX_DEPTH`]).
    depth: usize,
    /// Optional padding around structural tokens: the `json_ws` rule in
    /// flexible mode, nothing otherwise.
    pad: GrammarExpr,
    /// The separator between an object key and its value (`:`).
    colon: GrammarExpr,
    /// The separator between members or items (`,`).
    comma: GrammarExpr,
}

impl<'a> Converter<'a> {
    fn schema_err(&self, path: &str, message: impl Into<String>) -> GrammarError {
        GrammarError::Schema {
            path: path.to_string(),
            message: message.into(),
        }
    }

    fn fresh_name(&mut self, hint: &str) -> String {
        self.counter += 1;
        format!("{}_{}", hint, self.counter)
    }

    /// The one strict-or-lenient decision: an unsupported schema is an error
    /// in strict mode, while in lenient mode the caller falls back to a wider
    /// grammar.
    fn unsupported(&self, path: &str, message: impl Into<String>) -> Result<()> {
        if self.options.lenient {
            return Ok(());
        }
        Err(self.schema_err(path, message))
    }

    /// Runs `step` one level deeper, or fails past [`MAX_DEPTH`].
    fn nested<T>(&mut self, path: &str, step: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        if self.depth >= MAX_DEPTH {
            let message = format!("nested deeper than {MAX_DEPTH} levels (a cycle through allOf?)");
            return Err(self.schema_err(path, message));
        }
        self.depth += 1;
        let out = step(self);
        self.depth -= 1;
        out
    }

    /// `open pad inner pad close`: the framing of an object or a non-empty
    /// array.
    fn bracketed(&self, open: &str, inner: GrammarExpr, close: &str) -> GrammarExpr {
        GrammarExpr::seq(vec![
            GrammarExpr::literal(open),
            self.pad.clone(),
            inner,
            self.pad.clone(),
            GrammarExpr::literal(close),
        ])
    }

    /// A reference to one of the [`JSON_VALUE_EBNF`] rules.
    fn basic(&self, name: &str) -> GrammarExpr {
        let id = self.builder.rule_id(name);
        GrammarExpr::RuleRef(id.expect("JSON value rules installed"))
    }

    /// Resolves an in-document JSON-pointer reference (`#`, `#/a/~0b/0`, ...)
    /// against the root schema.
    fn resolve_ref(&self, reference: &str, path: &str) -> Result<&'a Value> {
        if reference == "#" {
            return Ok(self.root_schema);
        }
        let rest = reference
            .strip_prefix("#/")
            .ok_or_else(|| self.schema_err(path, format!("unsupported $ref `{reference}`")))?;
        let mut node = self.root_schema;
        for raw in rest.split('/') {
            let part = raw.replace("~1", "/").replace("~0", "~");
            let next = match node {
                Value::Object(map) => map.get(part.as_str()),
                Value::Array(arr) => part.parse::<usize>().ok().and_then(|i| arr.get(i)),
                _ => None,
            };
            node = next.ok_or_else(|| {
                self.schema_err(path, format!("$ref target `{reference}` not found"))
            })?;
        }
        Ok(node)
    }

    /// The `$ref` pointer of `map`.
    fn reference(&self, map: &'a Map, path: &str) -> Result<&'a str> {
        (map.get("$ref").and_then(Value::as_str))
            .ok_or_else(|| self.schema_err(path, "$ref must be a string"))
    }

    /// Returns the (possibly recursive) grammar rule for a pure `$ref`.
    /// The rule is registered *before* converting the target so that a
    /// reference cycle resolves to a rule reference instead of diverging.
    fn ref_rule(&mut self, reference: &str, path: &str) -> Result<RuleId> {
        if let Some(&id) = self.ref_rules.get(reference) {
            return Ok(id);
        }
        let target = self.resolve_ref(reference, path)?;
        let raw = reference.rsplit('/').next().unwrap_or("");
        let mut hint: String = raw
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        if hint.trim_matches('_').is_empty() {
            hint = "schema".to_string();
        }
        let name = self.fresh_name(&format!("ref_{hint}"));
        let id = self.builder.declare(&name);
        self.ref_rules.insert(reference.to_string(), id);
        let body = self.convert(Vec::new(), &[target], reference)?;
        self.builder.set_body(id, body);
        Ok(id)
    }

    /// Rejects keywords outside the supported + annotation allowlists
    /// (strict mode only): an unknown keyword would silently widen the
    /// accepted language.
    fn check_keywords(&self, obj: &Map, path: &str) -> Result<()> {
        for key in obj.keys() {
            if !SUPPORTED_KEYWORDS.contains(&key.as_str())
                && !ANNOTATION_KEYWORDS.contains(&key.as_str())
            {
                self.unsupported(
                    path,
                    format!(
                        "unknown keyword `{key}` would silently widen the accepted \
                         language (set JsonSchemaOptions::lenient to ignore it)"
                    ),
                )?;
            }
        }
        Ok(())
    }

    /// Converts the conjunction of `members` and `schemas` into an expression
    /// matching one JSON value, one level deeper. Every schema converts
    /// here; a lone pure `$ref` becomes its rule.
    fn convert(
        &mut self,
        mut members: Vec<Member<'a>>,
        schemas: &[&'a Value],
        path: &str,
    ) -> Result<GrammarExpr> {
        self.nested(path, |conv| {
            if let ([], [Value::Object(map)]) = (members.as_slice(), schemas) {
                // A `$ref` with no other supported keyword.
                if map.contains_key("$ref")
                    && !map.contains_key("allOf")
                    && !Member(map, 0).constrains()
                {
                    conv.check_keywords(map, path)?;
                    let reference = conv.reference(map, path)?;
                    return Ok(GrammarExpr::RuleRef(conv.ref_rule(reference, path)?));
                }
            }
            for schema in schemas {
                conv.collect(schema, path, &mut members)?;
            }
            conv.emit(&members, path)
        })
    }

    /// Flattens `schema` into members: the target of its `$ref`, its own
    /// keywords, then its `allOf` members, recursively and in that order. A
    /// member that constrains nothing (`true`, annotations only) is dropped.
    fn collect(&mut self, schema: &'a Value, path: &str, out: &mut Vec<Member<'a>>) -> Result<()> {
        let map = match schema {
            Value::Bool(true) => return Ok(()),
            Value::Object(map) => map,
            Value::Bool(false) => {
                return Err(self.schema_err(path, "schema `false` matches nothing"))
            }
            other => {
                return Err(self.schema_err(path, format!("schema must be an object, got {other}")))
            }
        };
        self.check_keywords(map, path)?;
        if map.contains_key("$ref") {
            let target = self.resolve_ref(self.reference(map, path)?, path)?;
            self.nested(path, |conv| conv.collect(target, path, out))?;
        }
        if Member(map, 0).constrains() {
            out.push(Member(map, 0));
        }
        if let Some(all_of) = map.get("allOf") {
            let all_of = (all_of.as_array())
                .ok_or_else(|| self.schema_err(path, "allOf must be an array"))?;
            if all_of.is_empty() {
                return Err(self.schema_err(path, "allOf must not be empty"));
            }
            for (i, sub) in all_of.iter().enumerate() {
                let sub_path = format!("{path}/allOf/{i}");
                self.nested(path, |conv| conv.collect(sub, &sub_path, out))?;
            }
        }
        Ok(())
    }

    /// The expression for a value every member accepts: their common
    /// literals, else a choice over a distributed `anyOf`/`oneOf`, else their
    /// common `type`.
    fn emit(&mut self, members: &[Member<'a>], path: &str) -> Result<GrammarExpr> {
        if let Some(literals) = self.literals(members, path)? {
            return Ok(GrammarExpr::choice(
                literals.into_iter().map(json_literal).collect(),
            ));
        }
        if let Some(k) =
            (0..BRANCHING.len()).find(|&k| values(members, BRANCHING[k]).next().is_some())
        {
            return self.distribute(members, k, path);
        }
        match self.types(members, path)?.as_deref() {
            None => {
                // Without a `type`, a keyword of some types goes unenforced.
                let any_type = ["$ref", "allOf", "anyOf", "oneOf", "const", "enum", "type"];
                let typed = |key: &&String| {
                    SUPPORTED_KEYWORDS.contains(&key.as_str()) && !any_type.contains(&key.as_str())
                };
                if let Some(key) = members.iter().flat_map(|m| m.0.keys()).find(typed) {
                    let message =
                        format!("`{key}` constrains only some types, but no `type` is set");
                    self.unsupported(path, message)?;
                }
                Ok(self.basic("json_any"))
            }
            Some([name]) => self.convert_typed(name, members, path),
            Some(names) => {
                let mut alts = Vec::new();
                for (i, name) in names.iter().enumerate() {
                    alts.push(self.convert_typed(name, members, &format!("{path}/type/{i}"))?);
                }
                Ok(GrammarExpr::choice(alts))
            }
        }
    }

    /// The value of `key`, a keyword with no intersection, in the first member
    /// that sets it. A member that sets another value is unsupported, and
    /// lenient mode keeps the first.
    fn single(&self, members: &[Member<'a>], key: &str, path: &str) -> Result<Option<&'a Value>> {
        let mut found = values(members, key);
        let first = found.next();
        if found.any(|value| Some(value) != first) {
            let message = format!("conflicting `{key}` values in allOf cannot be merged");
            self.unsupported(path, message)?;
        }
        Ok(first)
    }

    /// The `type` names every member allows, in the first member's order, or
    /// `None` when no member sets `type`.
    fn types(&self, members: &[Member<'a>], path: &str) -> Result<Option<Vec<&'a str>>> {
        let mut common: Option<Vec<&'a str>> = None;
        for value in values(members, "type") {
            let names: Vec<&'a str> = match value {
                Value::String(name) => vec![name],
                Value::Array(names) => names
                    .iter()
                    .map(Value::as_str)
                    .collect::<Option<_>>()
                    .ok_or_else(|| self.schema_err(path, "type array entries must be strings"))?,
                other => return Err(self.schema_err(path, format!("invalid `type`: {other}"))),
            };
            common = Some(match common {
                None => names,
                Some(common) => common.into_iter().filter(|t| names.contains(t)).collect(),
            });
        }
        if common.as_ref().is_some_and(Vec::is_empty) {
            return Err(self.schema_err(path, "`type` intersection is empty"));
        }
        Ok(common)
    }

    /// The `const`/`enum` values every member allows, in the first member's
    /// order, or `None` when no member sets either. Each is checked against
    /// the members' other keywords ([`Self::check_literal`]).
    fn literals(&self, members: &[Member<'a>], path: &str) -> Result<Option<Vec<&'a Value>>> {
        let mut common: Option<Vec<&'a Value>> = None;
        for member in members {
            for key in ["const", "enum"] {
                let allowed = match member.get(key) {
                    None => continue,
                    Some(value) if key == "const" => std::slice::from_ref(value),
                    Some(Value::Array(values)) if !values.is_empty() => values.as_slice(),
                    Some(Value::Array(_)) => {
                        return Err(self.schema_err(path, "enum must not be empty"))
                    }
                    Some(_) => return Err(self.schema_err(path, "enum must be an array")),
                };
                common = Some(match common {
                    None => allowed.iter().collect(),
                    Some(common) => common.into_iter().filter(|v| allowed.contains(v)).collect(),
                });
            }
        }
        let Some(literals) = common else {
            return Ok(None);
        };
        if literals.is_empty() {
            return Err(self.schema_err(path, "`const`/`enum` intersection is empty"));
        }
        let types = self.types(members, path)?;
        for value in &literals {
            self.check_literal(members, types.as_deref(), value, path)?;
        }
        Ok(Some(literals))
    }

    /// A literal replaces the members' other keywords, so it must pass each
    /// that applies to it: its `type`, string lengths, numeric bounds and
    /// `multipleOf`. One that fails, and a keyword the converter cannot check
    /// on it, would widen the language: unsupported, and lenient mode keeps
    /// the literal.
    fn check_literal(
        &self,
        members: &[Member<'a>],
        types: Option<&[&str]>,
        value: &Value,
        path: &str,
    ) -> Result<()> {
        if let Some(types) = types.filter(|types| !types.iter().any(|&t| has_type(value, t))) {
            self.unsupported(
                path,
                format!("`{value}` is not of the sibling `type` {types:?}"),
            )?;
        }
        let passes = match (value, value.as_f64()) {
            (Value::String(text), _) => {
                let len = text.chars().count();
                let min = self.count_bound(members, "minLength", path)?;
                let max = self.count_bound(members, "maxLength", path)?;
                min.is_none_or(|min| len >= min as usize)
                    && max.is_none_or(|max| len <= max as usize)
            }
            (_, Some(v)) => {
                let [lower, upper] =
                    self.range_bounds(members, path, |_, bound| Ok(Some(bound)))?;
                let divides = match self.single(members, "multipleOf", path)? {
                    Some(k) => k.as_f64().is_some_and(|k| k > 0.0 && v % k == 0.0),
                    None => true,
                };
                lower.is_none_or(|(b, exclusive)| v > b || (!exclusive && v == b))
                    && upper.is_none_or(|(b, exclusive)| v < b || (!exclusive && v == b))
                    && divides
            }
            _ => true,
        };
        if !passes {
            self.unsupported(path, format!("`{value}` fails a sibling keyword"))?;
        }
        let unchecked: &[&str] = match value {
            Value::String(_) => &["pattern", "format"],
            Value::Object(_) => &["properties", "required", "additionalProperties"],
            Value::Array(_) => &["items", "prefixItems", "minItems", "maxItems"],
            _ => &[],
        };
        let mut present = unchecked.iter().chain(&BRANCHING);
        if let Some(key) = present.find(|key| values(members, key).next().is_some()) {
            self.unsupported(
                path,
                format!("cannot check `{key}` on the literal `{value}`"),
            )?;
        }
        Ok(())
    }

    /// `anyOf`/`oneOf` (`BRANCHING[k]`) as a choice of its branches, each
    /// converted together with the other members.
    fn distribute(&mut self, members: &[Member<'a>], k: usize, path: &str) -> Result<GrammarExpr> {
        let branches = (self.single(members, BRANCHING[k], path)?)
            .and_then(Value::as_array)
            .ok_or_else(|| self.schema_err(path, "anyOf/oneOf must be an array"))?;
        if branches.is_empty() {
            return Err(self.schema_err(path, "anyOf/oneOf must not be empty"));
        }
        let others: Vec<Member<'a>> = members
            .iter()
            .map(|&Member(map, hidden)| Member(map, hidden.max(k + 1)))
            .filter(|member| member.constrains())
            .collect();
        let mut alts = Vec::new();
        for (i, branch) in branches.iter().enumerate() {
            alts.push(self.convert(others.clone(), &[branch], &format!("{path}/anyOf/{i}"))?);
        }
        Ok(GrammarExpr::choice(alts))
    }

    fn convert_typed(
        &mut self,
        type_name: &str,
        members: &[Member<'a>],
        path: &str,
    ) -> Result<GrammarExpr> {
        match type_name {
            "string" => self.convert_string(members, path),
            "integer" => self.convert_integer(members, path),
            "number" => self.convert_number(members, path),
            "boolean" => Ok(self.basic("json_boolean")),
            "null" => Ok(self.basic("json_null")),
            "object" => self.convert_object(members, path),
            "array" => self.convert_array(members, path),
            other => Err(self.schema_err(path, format!("unsupported type `{other}`"))),
        }
    }

    fn convert_string(&mut self, members: &[Member<'a>], path: &str) -> Result<GrammarExpr> {
        let has_length_bounds = ["minLength", "maxLength"]
            .iter()
            .any(|key| values(members, key).next().is_some());
        let format = self.single(members, "format", path)?;
        if let Some(pattern) = self.single(members, "pattern", path)? {
            match pattern.as_str() {
                None => self.unsupported(path, "pattern must be a string")?,
                Some(p) => {
                    if format.is_some() {
                        let message = "cannot combine `pattern` with `format` on one string schema";
                        self.unsupported(path, message)?;
                    }
                    if has_length_bounds {
                        self.unsupported(
                            path,
                            "cannot combine `pattern` with minLength/maxLength",
                        )?;
                    }
                    match regex_pattern_to_expr(p, path) {
                        Ok(content) => return Ok(quoted(content)),
                        Err(err) if !self.options.lenient => return Err(err),
                        Err(_) => {} // lenient: fall back to the plain string grammar
                    }
                }
            }
        }
        if let Some(format) = format {
            match format.as_str() {
                None => self.unsupported(path, "format must be a string")?,
                Some(name) => {
                    if has_length_bounds {
                        self.unsupported(path, "cannot combine `format` with minLength/maxLength")?;
                    }
                    if let Some(id) = self.format_rule(name, path)? {
                        return Ok(GrammarExpr::RuleRef(id));
                    }
                    // lenient + unknown format: fall through to the plain
                    // (possibly length-bounded) string grammar.
                }
            }
        }
        let min = self.count_bound(members, "minLength", path)?.unwrap_or(0);
        let max = self.count_bound(members, "maxLength", path)?;
        if min == 0 && max.is_none() {
            return Ok(self.basic("json_string"));
        }
        // Bounded string: "\"" char{min,max} "\"".
        Ok(quoted(GrammarExpr::Repeat {
            expr: Box::new(self.basic("json_char")),
            min,
            max,
        }))
    }

    /// Returns the cached rule for a supported `format` name (the quoted
    /// string), `Ok(None)` for a lenient-mode unknown format.
    fn format_rule(&mut self, name: &str, path: &str) -> Result<Option<RuleId>> {
        if let Some(&id) = self.format_rules.get(name) {
            return Ok(Some(id));
        }
        let Some(compiled) = format_expr(name) else {
            self.unsupported(path, format!("unsupported string format `{name}`"))?;
            return Ok(None);
        };
        let rule_name = format!("format_{}", name.replace('-', "_"));
        let id = self.builder.add_rule(&rule_name, quoted(compiled?));
        self.format_rules.insert(name.to_string(), id);
        Ok(Some(id))
    }

    /// Reads `value`, the value of keyword `key`, with `parse`: `None` when
    /// `parse` rejects it (`key` must be `expected`) and lenient mode drops
    /// it.
    fn parse<'v, T>(
        &self,
        value: &'v Value,
        key: &str,
        path: &str,
        expected: &str,
        parse: impl FnOnce(&'v Value) -> Option<T>,
    ) -> Result<Option<T>> {
        let parsed = parse(value);
        if parsed.is_none() {
            self.unsupported(path, format!("`{key}` must be {expected}"))?;
        }
        Ok(parsed)
    }

    /// The tightest of the members' length or count bounds `key`
    /// (`minLength`, `maxItems`, …): the largest `min*`, the smallest `max*`.
    fn count_bound(&self, members: &[Member<'a>], key: &str, path: &str) -> Result<Option<u32>> {
        let expected = format!("an integer in 0..={}", u32::MAX);
        let mut tightest = None;
        for value in values(members, key) {
            let count = |v: &Value| v.as_u64().and_then(|v| u32::try_from(v).ok());
            if let Some(bound) = self.parse(value, key, path, &expected, count)? {
                tightest = Some(match tightest {
                    Some(other) if key.starts_with("min") => bound.max(other),
                    Some(other) => bound.min(other),
                    None => bound,
                });
            }
        }
        Ok(tightest)
    }

    /// The lower and upper bound of a numeric range, each as `(value,
    /// exclusive)`: the tightest of every member's `minimum` and
    /// `exclusiveMinimum` (`maximum` and `exclusiveMaximum`), exclusive on a
    /// tie. The draft-4 boolean form (`"exclusiveMinimum": true`) makes its
    /// own member's inclusive bound exclusive; `false` is a no-op. `narrow`
    /// vets each bound before the pick, returning `None` to drop it.
    fn range_bounds<T: Copy + PartialOrd>(
        &self,
        members: &[Member<'a>],
        path: &str,
        narrow: impl Fn(&str, f64) -> Result<Option<T>>,
    ) -> Result<[Option<(T, bool)>; 2]> {
        let read = |member: Member<'a>, key: &str| -> Result<Option<T>> {
            let Some(value) = member.get(key) else {
                return Ok(None);
            };
            // Bounds beyond ±9e15 exceed exact i64/f64 interop: malformed.
            let finite = |v: &Value| v.as_f64().filter(|f| f.is_finite() && f.abs() < 9.0e15);
            match self.parse(value, key, path, "a finite number", finite)? {
                Some(v) => narrow(key, v),
                None => Ok(None),
            }
        };
        let side = |inclusive: &str,
                    exclusive: &str,
                    tighter: fn(&T, &T) -> bool|
         -> Result<Option<(T, bool)>> {
            let mut tightest: Option<(T, bool)> = None;
            for &member in members {
                let inc = read(member, inclusive)?;
                let candidates = match member.get(exclusive) {
                    Some(&Value::Bool(flag)) => {
                        if flag && member.get(inclusive).is_none() {
                            let message = format!(
                                "draft-4 boolean `{exclusive}` requires a sibling `{inclusive}`"
                            );
                            self.unsupported(path, message)?;
                        }
                        [inc.map(|v| (v, flag)), None]
                    }
                    _ => [
                        inc.map(|v| (v, false)),
                        read(member, exclusive)?.map(|v| (v, true)),
                    ],
                };
                for (v, is_exclusive) in candidates.into_iter().flatten() {
                    tightest = match tightest {
                        Some((t, e)) if t == v => Some((t, e || is_exclusive)),
                        Some((t, _)) if tighter(&t, &v) => tightest,
                        _ => Some((v, is_exclusive)),
                    };
                }
            }
            Ok(tightest)
        };
        Ok([
            side("minimum", "exclusiveMinimum", T::gt)?,
            side("maximum", "exclusiveMaximum", T::lt)?,
        ])
    }

    fn convert_integer(&mut self, members: &[Member<'a>], path: &str) -> Result<GrammarExpr> {
        let [lower, upper] = self.range_bounds(members, path, |_, v| Ok(Some(v)))?;
        // The least (greatest) integer inside an inclusive or exclusive bound.
        let lo = lower.map(|(v, e)| (if e { v.floor() + 1.0 } else { v.ceil() }) as i64);
        let hi = upper.map(|(v, e)| (if e { v.ceil() - 1.0 } else { v.floor() }) as i64);
        if let Some(multiple) = self.single(members, "multipleOf", path)? {
            let k = multiple
                .as_u64()
                .filter(|&k| (1..=MAX_MULTIPLE_OF).contains(&k));
            match k {
                // lenient: keep the bounds, drop the divisibility constraint
                Some(_) if lo.is_some() || hi.is_some() => self.unsupported(
                    path,
                    "cannot combine `multipleOf` with minimum/maximum bounds",
                )?,
                Some(1) => return Ok(self.basic("json_integer")),
                Some(k) => return Ok(self.multiple_of_expr(k)),
                None => self.unsupported(
                    path,
                    format!(
                        "`multipleOf` must be a positive integer no greater than {MAX_MULTIPLE_OF}"
                    ),
                )?,
            }
        }
        if lo.is_none() && hi.is_none() {
            return Ok(self.basic("json_integer"));
        }
        integer_range_expr(lo, hi, path)
    }

    /// Builds a divisibility DFA over decimal digits: one right-recursive
    /// rule per residue class mod `k`, accepting exactly the canonical
    /// decimal integers divisible by `k`.
    fn multiple_of_expr(&mut self, k: u64) -> GrammarExpr {
        let prefix = self.fresh_name("multiple_of");
        let states: Vec<RuleId> = (0..k)
            .map(|s| self.builder.declare(&format!("{prefix}_m{s}")))
            .collect();
        let grouped = |start: u64, state: u64| -> Vec<GrammarExpr> {
            let mut by_next: std::collections::BTreeMap<u64, Vec<u8>> =
                std::collections::BTreeMap::new();
            for d in start..10 {
                by_next
                    .entry((state * 10 + d) % k)
                    .or_default()
                    .push(b'0' + d as u8);
            }
            by_next
                .into_iter()
                .map(|(next, digits)| {
                    GrammarExpr::seq(vec![
                        digit_set_class(&digits),
                        GrammarExpr::RuleRef(states[next as usize]),
                    ])
                })
                .collect()
        };
        for s in 0..k {
            let mut alts = Vec::new();
            if s == 0 {
                alts.push(GrammarExpr::Empty);
            }
            alts.extend(grouped(0, s));
            self.builder
                .set_body(states[s as usize], GrammarExpr::choice(alts));
        }
        // Leading digit 1-9 (no leading zeros); zero itself is spelled "0".
        GrammarExpr::choice(vec![
            GrammarExpr::literal("0"),
            GrammarExpr::seq(vec![
                GrammarExpr::optional(GrammarExpr::literal("-")),
                GrammarExpr::choice(grouped(1, 0)),
            ]),
        ])
    }

    fn convert_number(&mut self, members: &[Member<'a>], path: &str) -> Result<GrammarExpr> {
        if values(members, "multipleOf").next().is_some() {
            let message = "`multipleOf` on type `number` is unsupported (use type `integer`)";
            self.unsupported(path, message)?;
        }
        // Fractional bounds are unsupported (dropped in lenient mode).
        let [lower, upper] = self.range_bounds(members, path, |key, v| {
            if v.fract() == 0.0 {
                return Ok(Some(v as i64));
            }
            let message = format!("`{key}` on type `number` must be integer-valued, got {v}");
            self.unsupported(path, message).map(|()| None)
        })?;
        if lower.is_none() && upper.is_none() {
            return Ok(self.basic("json_number"));
        }
        let (lo, lo_exclusive) = lower.map_or((None, false), |(v, e)| (Some(v), e));
        let (hi, hi_exclusive) = upper.map_or((None, false), |(v, e)| (Some(v), e));
        number_range_expr(lo, hi, lo_exclusive, hi_exclusive, path)
    }

    fn convert_object(&mut self, members: &[Member<'a>], path: &str) -> Result<GrammarExpr> {
        // Properties met by name, in the order they first appear.
        let mut properties: Vec<(&'a str, Vec<&'a Value>)> = Vec::new();
        for value in values(members, "properties") {
            let Some(declared) =
                self.parse(value, "properties", path, "an object", Value::as_object)?
            else {
                continue;
            };
            for (name, schema) in declared {
                match properties.iter_mut().find(|(known, _)| known == name) {
                    Some((_, schemas)) => push_new(schemas, schema),
                    None => properties.push((name, vec![schema])),
                }
            }
        }
        let mut required: Vec<&str> = Vec::new();
        for value in values(members, "required") {
            let names = value.as_array();
            let strings: Vec<&str> = names
                .into_iter()
                .flatten()
                .filter_map(Value::as_str)
                .collect();
            if names.is_none_or(|a| a.len() != strings.len()) {
                self.unsupported(path, "`required` must be an array of strings")?;
            }
            for name in strings {
                if !required.contains(&name) {
                    required.push(name);
                }
            }
        }
        // Only declared properties are emitted: an undeclared one goes unenforced.
        if let Some(name) = required
            .iter()
            .find(|n| !properties.iter().any(|(p, _)| p == *n))
        {
            let message = format!("required property `{name}` is not declared in `properties`");
            self.unsupported(path, message)?;
        }

        // Build member expressions for each declared property, in order.
        let mut entries: Vec<(GrammarExpr, bool)> = Vec::new();
        for (name, schemas) in properties {
            let value_expr =
                self.convert(Vec::new(), &schemas, &format!("{path}/properties/{name}"))?;
            let key_literal = json_literal(&Value::String(name.to_string()));
            let entry = GrammarExpr::seq(vec![key_literal, self.colon.clone(), value_expr]);
            entries.push((entry, required.contains(&name)));
        }

        // Additional members: closed unless a member opens them and none
        // closes them; `true` admits any value, a schema its values.
        let (mut closed, mut opened, mut extra) = (false, false, Vec::new());
        for value in values(members, "additionalProperties") {
            match value {
                Value::Bool(open) => (closed, opened) = (closed || !open, opened || *open),
                schema => push_new(&mut extra, schema),
            }
        }
        let additional_value = if closed {
            None
        } else if !extra.is_empty() {
            Some(self.convert(Vec::new(), &extra, &format!("{path}/additionalProperties"))?)
        } else if opened {
            Some(self.basic("json_any"))
        } else {
            None
        };
        let additional_member = additional_value.map(|value| {
            GrammarExpr::seq(vec![self.basic("json_string"), self.colon.clone(), value])
        });

        // Recursive construction over property suffixes. For each suffix we
        // build two expressions: one assuming no member has been emitted yet
        // (`first`) and one assuming a comma is needed (`rest`).
        let comma = self.comma.clone();
        let additional_tail = additional_member
            .as_ref()
            .map(|m| GrammarExpr::star(GrammarExpr::seq(vec![comma.clone(), m.clone()])));
        // `rest` for the empty suffix.
        let mut rest_suffix: GrammarExpr = additional_tail.clone().unwrap_or(GrammarExpr::Empty);
        // `first` for the empty suffix: either nothing, or additional members.
        let mut first_suffix: GrammarExpr = match additional_member {
            Some(m) => GrammarExpr::optional(GrammarExpr::seq(vec![
                m,
                additional_tail.unwrap_or(GrammarExpr::Empty),
            ])),
            None => GrammarExpr::Empty,
        };
        for (entry, is_required) in entries.into_iter().rev() {
            let hint = self.fresh_name("props");
            // Materialize current suffixes as rules to keep expressions small.
            let rest =
                GrammarExpr::RuleRef(self.builder.add_rule(&format!("{hint}_rest"), rest_suffix));
            let first = GrammarExpr::RuleRef(
                self.builder
                    .add_rule(&format!("{hint}_first"), first_suffix),
            );
            let comma_entry = GrammarExpr::seq(vec![comma.clone(), entry.clone(), rest.clone()]);
            let entry_first = GrammarExpr::seq(vec![entry, rest.clone()]);
            if is_required {
                (rest_suffix, first_suffix) = (comma_entry, entry_first);
            } else {
                rest_suffix = GrammarExpr::choice(vec![comma_entry, rest]);
                first_suffix = GrammarExpr::choice(vec![entry_first, first]);
            }
        }

        let body_rule_name = self.fresh_name("object_members");
        let members_rule = self.builder.add_rule(&body_rule_name, first_suffix);
        Ok(self.bracketed("{", GrammarExpr::RuleRef(members_rule), "}"))
    }

    fn convert_array(&mut self, members: &[Member<'a>], path: &str) -> Result<GrammarExpr> {
        let min_items = self.count_bound(members, "minItems", path)?.unwrap_or(0);
        let max_items = self.count_bound(members, "maxItems", path)?;
        if let Some(max) = max_items {
            if max < min_items {
                return Err(GrammarError::InvalidRepetition {
                    min: min_items,
                    max,
                });
            }
        }

        // prefixItems (tuple validation): exactly the prefix's items.
        let prefix = match self.single(members, "prefixItems", path)? {
            Some(value) => self.parse(value, "prefixItems", path, "an array", Value::as_array)?,
            None => None,
        };
        if let Some(prefix) = prefix {
            let len = prefix.len();
            if len < min_items as usize || max_items.is_some_and(|max| len > max as usize) {
                let message = format!("{len} prefixItems conflict with minItems/maxItems");
                self.unsupported(path, message)?;
            }
            let mut parts = Vec::new();
            for (i, sub) in prefix.iter().enumerate() {
                if i > 0 {
                    parts.push(self.comma.clone());
                }
                parts.push(self.convert(Vec::new(), &[sub], &format!("{path}/prefixItems/{i}"))?);
            }
            return Ok(self.bracketed("[", GrammarExpr::seq(parts), "]"));
        }

        let mut items = Vec::new();
        for value in values(members, "items") {
            push_new(&mut items, value);
        }
        let item_expr = match items.is_empty() {
            true => self.basic("json_any"),
            false => self.convert(Vec::new(), &items, &format!("{path}/items"))?,
        };
        let item_rule_name = self.fresh_name("array_item");
        let item = GrammarExpr::RuleRef(self.builder.add_rule(&item_rule_name, item_expr));
        let comma_item = GrammarExpr::seq(vec![self.comma.clone(), item.clone()]);
        let empty_array = GrammarExpr::seq(vec![
            GrammarExpr::literal("["),
            self.pad.clone(),
            GrammarExpr::literal("]"),
        ]);
        let repeat = GrammarExpr::Repeat {
            expr: Box::new(comma_item),
            min: min_items.saturating_sub(1),
            max: max_items.map(|m| m.saturating_sub(1)),
        };
        let non_empty = self.bracketed("[", GrammarExpr::seq(vec![item, repeat]), "]");
        match (min_items, max_items) {
            (0, Some(0)) => Ok(empty_array),
            (0, _) => Ok(GrammarExpr::choice(vec![empty_array, non_empty])),
            _ => Ok(non_empty),
        }
    }
}

/// `value` as a JSON literal.
fn json_literal(value: &Value) -> GrammarExpr {
    let text = serde_json::to_string(value).expect("serializing a Value cannot fail");
    GrammarExpr::Literal(text.into_bytes())
}

/// `"\"" content "\""`: a string whose characters `content` spells.
fn quoted(content: GrammarExpr) -> GrammarExpr {
    GrammarExpr::seq(vec![
        GrammarExpr::literal("\""),
        content,
        GrammarExpr::literal("\""),
    ])
}

/// Whether `value` is an instance of the JSON-Schema type `name`; an
/// integral number is an `integer`.
fn has_type(value: &Value, name: &str) -> bool {
    match name {
        "string" => value.is_string(),
        "integer" => value.as_f64().is_some_and(|f| f.fract() == 0.0),
        "number" => value.is_number(),
        "boolean" => value.is_boolean(),
        "null" => value.is_null(),
        "object" => value.is_object(),
        "array" => value.is_array(),
        _ => false,
    }
}

/// A character class over an ascending list of ASCII digits, merging
/// contiguous runs into ranges.
fn digit_set_class(digits: &[u8]) -> GrammarExpr {
    let mut ranges: Vec<CharRange> = Vec::new();
    for &d in digits {
        let c = d as char;
        match ranges.last_mut() {
            Some(last) if last.end as u32 + 1 == c as u32 => last.end = c,
            _ => ranges.push(CharRange::new(c, c)),
        }
    }
    GrammarExpr::CharClass(CharClass::new(ranges))
}

#[cfg(test)]
#[path = "json_schema_tests.rs"]
mod tests;
