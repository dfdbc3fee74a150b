//! JSON Schema → grammar conversion.
//!
//! Converts (a practical subset of) JSON Schema documents into a [`Grammar`]
//! whose language is exactly the set of JSON documents accepted by the
//! schema, which is what the paper's "JSON Schema" workload (function
//! calling) requires.
//!
//! Supported keywords (see [`SUPPORTED_KEYWORDS`]): `type` (object/array/
//! string/integer/number/boolean/null, or a list of types), `properties`,
//! `required`, `additionalProperties` (boolean or schema), `items`,
//! `prefixItems`, `minItems`, `maxItems`, `enum`, `const`, `anyOf`, `oneOf`
//! (sibling keywords apply to every branch), `allOf` (merged by sibling-key
//! intersection), general in-document `$ref`
//! (JSON-pointer resolution, recursive schemas become recursive grammar
//! rules), `minLength`, `maxLength`, `pattern` (compiled through
//! [`crate::regex_pattern_to_expr`]), `format` (see
//! [`crate::SUPPORTED_FORMATS`]), `minimum`, `maximum`, `exclusiveMinimum`,
//! `exclusiveMaximum` (digit-wise bounded-number grammars) and `multipleOf`
//! on integers (a divisibility DFA over decimal digits).
//!
//! Annotation keywords ([`ANNOTATION_KEYWORDS`]) never affect syntax and are
//! always ignored. Any *other* keyword would silently widen the accepted
//! language, and so would a supported keyword whose value or combination
//! the grammar cannot express (a `prefixItems` tuple that `maxItems`
//! excludes, an undeclared `required` name, a `const` not of its sibling
//! `type`, ...). By default the converter rejects each with
//! [`GrammarError::Schema`]; set [`JsonSchemaOptions::lenient`] to ignore
//! unknown keywords and fall back to the wider grammar instead. One method,
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

/// Maximum `allOf`/`$ref` inline-flattening depth before the converter
/// assumes a cycle and errors out. Recursive schemas are still supported
/// through pure `$ref` (which becomes a recursive grammar rule); the guard
/// only trips when a `$ref` cycle passes through an `allOf` merge, which has
/// no finite flattening.
const MAX_FLATTEN_DEPTH: usize = 64;

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
    /// Value of `additionalProperties` assumed when a schema does not set it.
    pub default_additional_properties: bool,
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
    let root_expr = conv.convert(schema, "#")?;
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
    /// Current `allOf` re-entry depth (see [`MAX_FLATTEN_DEPTH`]).
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
        let body = self.convert(target, reference)?;
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

    /// Converts a schema node into an expression matching one JSON value.
    fn convert(&mut self, schema: &Value, path: &str) -> Result<GrammarExpr> {
        match schema {
            Value::Bool(true) => Ok(self.basic("json_any")),
            Value::Bool(false) => Err(self.schema_err(path, "schema `false` matches nothing")),
            Value::Object(obj) => self.convert_map(obj, path),
            other => Err(self.schema_err(path, format!("schema must be an object, got {other}"))),
        }
    }

    fn convert_map(&mut self, obj: &Map, path: &str) -> Result<GrammarExpr> {
        self.check_keywords(obj, path)?;
        let ref_with_siblings = obj.get("$ref").is_some()
            && obj
                .keys()
                .any(|k| k != "$ref" && SUPPORTED_KEYWORDS.contains(&k.as_str()));
        if obj.contains_key("allOf") || ref_with_siblings {
            if self.depth >= MAX_FLATTEN_DEPTH {
                return Err(self.schema_err(
                    path,
                    "allOf/$ref nesting too deep (reference cycle through allOf?)",
                ));
            }
            let merged = self.flatten_all_of(obj, path)?;
            self.depth += 1;
            let out = self.convert_map(&merged, path);
            self.depth -= 1;
            return out;
        }
        if let Some(reference) = obj.get("$ref") {
            let reference = reference
                .as_str()
                .ok_or_else(|| self.schema_err(path, "$ref must be a string"))?;
            let id = self.ref_rule(reference, path)?;
            return Ok(GrammarExpr::RuleRef(id));
        }
        if let Some(constant) = obj.get("const") {
            self.check_literal_types(obj, std::slice::from_ref(constant), path)?;
            return Ok(json_literal(constant));
        }
        if let Some(variants) = obj.get("enum") {
            return self.convert_enum(obj, variants, path);
        }
        if let Some(key) = ["anyOf", "oneOf"].into_iter().find(|k| obj.contains_key(k)) {
            return self.convert_any_of(obj, key, path);
        }
        match obj.get("type") {
            Some(Value::String(t)) => self.convert_typed(t, obj, path),
            Some(Value::Array(types)) => {
                let mut alts = Vec::new();
                for (i, t) in types.iter().enumerate() {
                    let t = t.as_str().ok_or_else(|| {
                        self.schema_err(path, "type array entries must be strings")
                    })?;
                    alts.push(self.convert_typed(t, obj, &format!("{path}/type/{i}"))?);
                }
                Ok(GrammarExpr::choice(alts))
            }
            Some(other) => Err(self.schema_err(path, format!("invalid `type`: {other}"))),
            None => Ok(self.basic("json_any")),
        }
    }

    /// Flattens `allOf` (and any `$ref` members) into one merged schema map
    /// by sibling-key intersection, llguidance-style.
    fn flatten_all_of(&mut self, obj: &Map, path: &str) -> Result<Map> {
        let mut base = obj.clone();
        let all_of = base.remove("allOf");
        let mut members: Vec<Map> = Vec::new();
        self.collect_member(&Value::Object(base), path, &mut members, 0)?;
        if let Some(all_of) = all_of {
            let arr = all_of
                .as_array()
                .ok_or_else(|| self.schema_err(path, "allOf must be an array"))?;
            if arr.is_empty() {
                return Err(self.schema_err(path, "allOf must not be empty"));
            }
            for (i, sub) in arr.iter().enumerate() {
                self.collect_member(sub, &format!("{path}/allOf/{i}"), &mut members, 0)?;
            }
        }
        let mut acc = Map::new();
        for member in &members {
            self.merge_member(&mut acc, member, path)?;
        }
        Ok(acc)
    }

    /// Normalizes one `allOf` member: `true` contributes nothing, `false`
    /// fails, `$ref` and nested `allOf` are inlined (bounded by
    /// [`MAX_FLATTEN_DEPTH`] to catch cycles).
    fn collect_member(
        &mut self,
        schema: &Value,
        path: &str,
        out: &mut Vec<Map>,
        depth: usize,
    ) -> Result<()> {
        if depth >= MAX_FLATTEN_DEPTH {
            return Err(self.schema_err(
                path,
                "allOf/$ref nesting too deep (reference cycle through allOf?)",
            ));
        }
        match schema {
            Value::Bool(true) => Ok(()),
            Value::Bool(false) => Err(self.schema_err(path, "schema `false` matches nothing")),
            Value::Object(map) => {
                let mut map = map.clone();
                if let Some(reference) = map.remove("$ref") {
                    let reference = reference
                        .as_str()
                        .ok_or_else(|| self.schema_err(path, "$ref must be a string"))?;
                    let target = self.resolve_ref(reference, path)?.clone();
                    self.collect_member(&target, path, out, depth + 1)?;
                }
                if let Some(inner) = map.remove("allOf") {
                    let arr = inner
                        .as_array()
                        .ok_or_else(|| self.schema_err(path, "allOf must be an array"))?;
                    for (i, sub) in arr.iter().enumerate() {
                        self.collect_member(sub, &format!("{path}/allOf/{i}"), out, depth + 1)?;
                    }
                }
                if !map.is_empty() {
                    out.push(map);
                }
                Ok(())
            }
            other => Err(self.schema_err(path, format!("schema must be an object, got {other}"))),
        }
    }

    /// Merges one member schema into the accumulator, keyword by keyword.
    fn merge_member(&self, acc: &mut Map, member: &Map, path: &str) -> Result<()> {
        for (key, new) in member.iter() {
            let Some(old) = acc.get(key) else {
                acc.insert(key.clone(), new.clone());
                continue;
            };
            if old == new {
                continue;
            }
            let old = old.clone();
            let merged = match key.as_str() {
                "properties" => self.merge_properties(&old, new, path)?,
                "required" => merge_required(&old, new),
                "type" => self.merge_types(&old, new, path)?,
                "minimum" | "exclusiveMinimum" | "minLength" | "minItems" => {
                    self.merge_numeric(&old, new, key, path, true)?
                }
                "maximum" | "exclusiveMaximum" | "maxLength" | "maxItems" => {
                    self.merge_numeric(&old, new, key, path, false)?
                }
                "additionalProperties" => merge_additional_properties(&old, new),
                "enum" => self.merge_enums(&old, new, path)?,
                "items" => all_of_pair(old, new.clone()),
                _ if ANNOTATION_KEYWORDS.contains(&key.as_str()) => continue,
                other => {
                    let message = format!("conflicting `{other}` values in allOf cannot be merged");
                    self.unsupported(path, message)?;
                    continue;
                }
            };
            acc.insert(key.clone(), merged);
        }
        Ok(())
    }

    fn merge_properties(&self, old: &Value, new: &Value, path: &str) -> Result<Value> {
        let (Some(old), Some(new)) = (old.as_object(), new.as_object()) else {
            return Err(self.schema_err(path, "properties must be an object"));
        };
        let mut merged = old.clone();
        for (name, sub) in new.iter() {
            match merged.get(name) {
                None => {
                    merged.insert(name.clone(), sub.clone());
                }
                Some(existing) if existing == sub => {}
                Some(existing) => {
                    let wrapped = all_of_pair(existing.clone(), sub.clone());
                    merged.insert(name.clone(), wrapped);
                }
            }
        }
        Ok(Value::Object(merged))
    }

    fn merge_types(&self, old: &Value, new: &Value, path: &str) -> Result<Value> {
        let to_list = |v: &Value| -> Option<Vec<String>> {
            match v {
                Value::String(s) => Some(vec![s.clone()]),
                Value::Array(items) => items
                    .iter()
                    .map(|t| t.as_str().map(str::to_string))
                    .collect(),
                _ => None,
            }
        };
        let (Some(a), Some(b)) = (to_list(old), to_list(new)) else {
            return Err(self.schema_err(path, "type must be a string or array of strings"));
        };
        let mut common: Vec<Value> = a
            .into_iter()
            .filter(|t| b.contains(t))
            .map(Value::String)
            .collect();
        match common.len() {
            0 => Err(self.schema_err(path, "allOf `type` intersection is empty")),
            1 => Ok(common.swap_remove(0)),
            _ => Ok(Value::Array(common)),
        }
    }

    fn merge_numeric(
        &self,
        old: &Value,
        new: &Value,
        key: &str,
        path: &str,
        take_max: bool,
    ) -> Result<Value> {
        let (Some(a), Some(b)) = (old.as_f64(), new.as_f64()) else {
            return Err(self.schema_err(path, format!("`{key}` must be a number")));
        };
        let pick_new = if take_max { b > a } else { b < a };
        Ok(if pick_new { new.clone() } else { old.clone() })
    }

    fn merge_enums(&self, old: &Value, new: &Value, path: &str) -> Result<Value> {
        let (Some(a), Some(b)) = (old.as_array(), new.as_array()) else {
            return Err(self.schema_err(path, "enum must be an array"));
        };
        let common: Vec<Value> = a.iter().filter(|v| b.contains(v)).cloned().collect();
        if common.is_empty() {
            return Err(self.schema_err(path, "allOf `enum` intersection is empty"));
        }
        Ok(Value::Array(common))
    }

    fn convert_enum(&mut self, obj: &Map, variants: &Value, path: &str) -> Result<GrammarExpr> {
        let arr = variants
            .as_array()
            .ok_or_else(|| self.schema_err(path, "enum must be an array"))?;
        if arr.is_empty() {
            return Err(self.schema_err(path, "enum must not be empty"));
        }
        self.check_literal_types(obj, arr, path)?;
        Ok(GrammarExpr::choice(arr.iter().map(json_literal).collect()))
    }

    /// The literals of `const`/`enum` replace the schema's `type`, so each
    /// value must be of a sibling `type`; one that is not widens the language.
    fn check_literal_types(&self, obj: &Map, values: &[Value], path: &str) -> Result<()> {
        let Some(types) = obj.get("type") else {
            return Ok(());
        };
        let names: Vec<&str> = match types {
            Value::Array(names) => names.iter().filter_map(Value::as_str).collect(),
            name => name.as_str().into_iter().collect(),
        };
        for value in values {
            if !names.iter().any(|&name| has_type(value, name)) {
                self.unsupported(
                    path,
                    format!("`{value}` is not of the sibling `type` {types}"),
                )?;
            }
        }
        Ok(())
    }

    /// `anyOf`/`oneOf` (`key`) as a choice of its branches. Supported sibling
    /// keywords apply to every branch, which converts as `{"allOf":
    /// [siblings, branch]}`.
    fn convert_any_of(&mut self, obj: &Map, key: &str, path: &str) -> Result<GrammarExpr> {
        let arr = (obj.get(key).and_then(Value::as_array))
            .ok_or_else(|| self.schema_err(path, "anyOf/oneOf must be an array"))?;
        if arr.is_empty() {
            return Err(self.schema_err(path, "anyOf/oneOf must not be empty"));
        }
        let siblings: Map = obj
            .iter()
            .filter(|(k, _)| *k != key && SUPPORTED_KEYWORDS.contains(&k.as_str()))
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let mut alts = Vec::new();
        for (i, branch) in arr.iter().enumerate() {
            let merged = (!siblings.is_empty())
                .then(|| all_of_pair(Value::Object(siblings.clone()), branch.clone()));
            let branch = merged.as_ref().unwrap_or(branch);
            alts.push(self.convert(branch, &format!("{path}/anyOf/{i}"))?);
        }
        Ok(GrammarExpr::choice(alts))
    }

    fn convert_typed(&mut self, type_name: &str, obj: &Map, path: &str) -> Result<GrammarExpr> {
        match type_name {
            "string" => self.convert_string(obj, path),
            "integer" => self.convert_integer(obj, path),
            "number" => self.convert_number(obj, path),
            "boolean" => Ok(self.basic("json_boolean")),
            "null" => Ok(self.basic("json_null")),
            "object" => self.convert_object(obj, path),
            "array" => self.convert_array(obj, path),
            other => Err(self.schema_err(path, format!("unsupported type `{other}`"))),
        }
    }

    fn convert_string(&mut self, obj: &Map, path: &str) -> Result<GrammarExpr> {
        let has_length_bounds = obj.contains_key("minLength") || obj.contains_key("maxLength");
        if let Some(pattern) = obj.get("pattern") {
            match pattern.as_str() {
                None => self.unsupported(path, "pattern must be a string")?,
                Some(p) => {
                    if obj.contains_key("format") {
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
        if let Some(format) = obj.get("format") {
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
        let min = self.count_bound(obj, "minLength", path)?.unwrap_or(0);
        let max = self.count_bound(obj, "maxLength", path)?;
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

    /// Reads the keyword `key`, a bound or a container: `None` when absent,
    /// or when `parse` rejects it (`key` must be `expected`) and lenient mode
    /// drops it.
    fn bound<'v, T>(
        &self,
        obj: &'v Map,
        key: &str,
        path: &str,
        expected: &str,
        parse: impl FnOnce(&'v Value) -> Option<T>,
    ) -> Result<Option<T>> {
        let Some(value) = obj.get(key) else {
            return Ok(None);
        };
        let parsed = parse(value);
        if parsed.is_none() {
            self.unsupported(path, format!("`{key}` must be {expected}"))?;
        }
        Ok(parsed)
    }

    /// A length or count bound (`minLength`, `maxItems`, …).
    fn count_bound(&self, obj: &Map, key: &str, path: &str) -> Result<Option<u32>> {
        let expected = format!("an integer in 0..={}", u32::MAX);
        self.bound(obj, key, path, &expected, |v| {
            v.as_u64().and_then(|v| u32::try_from(v).ok())
        })
    }

    /// The lower and upper bound of a numeric range, each as `(value,
    /// exclusive)`: the stricter of `minimum` and `exclusiveMinimum` (of
    /// `maximum` and `exclusiveMaximum`), exclusive on a tie. The draft-4
    /// boolean form (`"exclusiveMinimum": true`) makes the sibling inclusive
    /// bound exclusive; `false` is a no-op. `narrow` vets each bound before
    /// the pick, returning `None` to drop it.
    fn range_bounds<T: Copy + PartialOrd>(
        &self,
        obj: &Map,
        path: &str,
        narrow: impl Fn(&str, f64) -> Result<Option<T>>,
    ) -> Result<[Option<(T, bool)>; 2]> {
        let read = |key: &str| -> Result<Option<T>> {
            // Bounds beyond ±9e15 exceed exact i64/f64 interop: malformed.
            let finite = |v: &Value| v.as_f64().filter(|f| f.is_finite() && f.abs() < 9.0e15);
            match self.bound(obj, key, path, "a finite number", finite)? {
                Some(v) => narrow(key, v),
                None => Ok(None),
            }
        };
        let side = |inclusive: &str,
                    exclusive: &str,
                    stricter: fn(&T, &T) -> bool|
         -> Result<Option<(T, bool)>> {
            let inc = read(inclusive)?;
            let exc = match obj.get(exclusive) {
                Some(&Value::Bool(flag)) => {
                    if flag && !obj.contains_key(inclusive) {
                        let message = format!(
                            "draft-4 boolean `{exclusive}` requires a sibling `{inclusive}`"
                        );
                        self.unsupported(path, message)?;
                    }
                    inc.filter(|_| flag)
                }
                _ => read(exclusive)?,
            };
            Ok(match (inc, exc) {
                (Some(a), Some(b)) if stricter(&b, &a) => Some((b, true)),
                (Some(a), _) => Some((a, false)),
                (None, b) => b.map(|b| (b, true)),
            })
        };
        Ok([
            side("minimum", "exclusiveMinimum", T::ge)?,
            side("maximum", "exclusiveMaximum", T::le)?,
        ])
    }

    fn convert_integer(&mut self, obj: &Map, path: &str) -> Result<GrammarExpr> {
        let [lower, upper] = self.range_bounds(obj, path, |_, v| Ok(Some(v)))?;
        // The least (greatest) integer inside an inclusive or exclusive bound.
        let lo = lower.map(|(v, e)| (if e { v.floor() + 1.0 } else { v.ceil() }) as i64);
        let hi = upper.map(|(v, e)| (if e { v.ceil() - 1.0 } else { v.floor() }) as i64);
        if let Some(multiple) = obj.get("multipleOf") {
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

    fn convert_number(&mut self, obj: &Map, path: &str) -> Result<GrammarExpr> {
        if obj.contains_key("multipleOf") {
            let message = "`multipleOf` on type `number` is unsupported (use type `integer`)";
            self.unsupported(path, message)?;
        }
        // Fractional bounds are unsupported (dropped in lenient mode).
        let [lower, upper] = self.range_bounds(obj, path, |key, v| {
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

    fn convert_object(&mut self, obj: &Map, path: &str) -> Result<GrammarExpr> {
        let empty_map = Map::new();
        let properties = self.bound(obj, "properties", path, "an object", Value::as_object)?;
        let properties = properties.unwrap_or(&empty_map);
        let names = obj.get("required").and_then(Value::as_array);
        let required: Vec<&str> = names
            .into_iter()
            .flatten()
            .filter_map(Value::as_str)
            .collect();
        if obj.contains_key("required") && names.is_none_or(|a| a.len() != required.len()) {
            self.unsupported(path, "`required` must be an array of strings")?;
        }
        // Only declared properties are emitted: an undeclared one goes unenforced.
        if let Some(name) = required.iter().find(|n| !properties.contains_key(n)) {
            let message = format!("required property `{name}` is not declared in `properties`");
            self.unsupported(path, message)?;
        }

        // Build member expressions for each declared property, in order.
        let mut members: Vec<(GrammarExpr, bool)> = Vec::new();
        for (name, prop_schema) in properties.iter() {
            let value_expr = self.convert(prop_schema, &format!("{path}/properties/{name}"))?;
            let key_literal = json_literal(&Value::String(name.clone()));
            let member = GrammarExpr::seq(vec![key_literal, self.colon.clone(), value_expr]);
            members.push((member, required.contains(&name.as_str())));
        }

        // Additional members expression (used when additionalProperties allows them).
        let additional_value = match obj.get("additionalProperties") {
            None if self.options.default_additional_properties => Some(self.basic("json_any")),
            None | Some(Value::Bool(false)) => None,
            Some(Value::Bool(true)) => Some(self.basic("json_any")),
            Some(schema) => Some(self.convert(schema, &format!("{path}/additionalProperties"))?),
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
        for (member, is_required) in members.into_iter().rev() {
            let hint = self.fresh_name("props");
            // Materialize current suffixes as rules to keep expressions small.
            let rest =
                GrammarExpr::RuleRef(self.builder.add_rule(&format!("{hint}_rest"), rest_suffix));
            let first = GrammarExpr::RuleRef(
                self.builder
                    .add_rule(&format!("{hint}_first"), first_suffix),
            );
            let comma_member = GrammarExpr::seq(vec![comma.clone(), member.clone(), rest.clone()]);
            let member_first = GrammarExpr::seq(vec![member, rest.clone()]);
            if is_required {
                (rest_suffix, first_suffix) = (comma_member, member_first);
            } else {
                rest_suffix = GrammarExpr::choice(vec![comma_member, rest]);
                first_suffix = GrammarExpr::choice(vec![member_first, first]);
            }
        }

        let body_rule_name = self.fresh_name("object_members");
        let members_rule = self.builder.add_rule(&body_rule_name, first_suffix);
        Ok(self.bracketed("{", GrammarExpr::RuleRef(members_rule), "}"))
    }

    fn convert_array(&mut self, obj: &Map, path: &str) -> Result<GrammarExpr> {
        let min_items = self.count_bound(obj, "minItems", path)?.unwrap_or(0);
        let max_items = self.count_bound(obj, "maxItems", path)?;
        if let Some(max) = max_items {
            if max < min_items {
                return Err(GrammarError::InvalidRepetition {
                    min: min_items,
                    max,
                });
            }
        }

        // prefixItems (tuple validation): exactly the prefix's items.
        if let Some(prefix) = self.bound(obj, "prefixItems", path, "an array", Value::as_array)? {
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
                parts.push(self.convert(sub, &format!("{path}/prefixItems/{i}"))?);
            }
            return Ok(self.bracketed("[", GrammarExpr::seq(parts), "]"));
        }

        let item_expr = match obj.get("items") {
            Some(items) => self.convert(items, &format!("{path}/items"))?,
            None => self.basic("json_any"),
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

/// `{"allOf": [a, b]}` — the merge fallback for keywords whose constraints
/// compose by conjunction on a nested schema.
fn all_of_pair(a: Value, b: Value) -> Value {
    let mut map = Map::new();
    map.insert("allOf".to_string(), Value::Array(vec![a, b]));
    Value::Object(map)
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

fn merge_required(old: &Value, new: &Value) -> Value {
    let mut union: Vec<Value> = old.as_array().cloned().unwrap_or_default();
    for item in new.as_array().cloned().unwrap_or_default() {
        if !union.contains(&item) {
            union.push(item);
        }
    }
    Value::Array(union)
}

fn merge_additional_properties(old: &Value, new: &Value) -> Value {
    match (old, new) {
        (Value::Bool(false), _) | (_, Value::Bool(false)) => Value::Bool(false),
        (Value::Bool(true), other) | (other, Value::Bool(true)) => other.clone(),
        (a, b) => all_of_pair(a.clone(), b.clone()),
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
