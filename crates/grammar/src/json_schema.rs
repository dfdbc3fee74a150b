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
//! `prefixItems`, `minItems`, `maxItems`, `enum`, `const`, `anyOf`, `oneOf`,
//! `allOf` (merged by sibling-key intersection), general in-document `$ref`
//! (JSON-pointer resolution, recursive schemas become recursive grammar
//! rules), `minLength`, `maxLength`, `pattern` (compiled through
//! [`crate::regex_pattern_to_expr`]), `format` (see
//! [`crate::SUPPORTED_FORMATS`]), `minimum`, `maximum`, `exclusiveMinimum`,
//! `exclusiveMaximum` (digit-wise bounded-number grammars) and `multipleOf`
//! on integers (a divisibility DFA over decimal digits).
//!
//! Annotation keywords ([`ANNOTATION_KEYWORDS`]) never affect syntax and are
//! always ignored. Any *other* keyword would silently widen the accepted
//! language, so by default the converter rejects it with
//! [`GrammarError::Schema`]; set [`JsonSchemaOptions::lenient`] to ignore
//! unknown keywords (and fall back to unconstrained grammars when a
//! supported keyword has an unsupported value).

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
    };
    let root_expr = conv.convert(schema, "#")?;
    let pad = conv.pad();
    let root_body = GrammarExpr::seq(vec![pad.clone(), root_expr, pad]);
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

/// [`JSON_VALUE_EBNF`] under `whitespace`: flexible padding is a `json_ws`
/// rule, defined first; fixed separators are literals.
fn json_value_rules(whitespace: &WhitespaceConfig) -> String {
    let (colon, comma) = match whitespace {
        // Validated to hold punctuation and ` \t\n\r` only, whose `Debug`
        // form is an EBNF literal.
        WhitespaceConfig::Separators {
            item_separator,
            key_separator,
        } => (format!("{key_separator:?}"), format!("{item_separator:?}")),
        _ => (r#"PAD ":" PAD"#.into(), r#"PAD "," PAD"#.into()),
    };
    let rules = JSON_VALUE_EBNF.replace("COLON", &colon);
    let rules = rules.replace("COMMA", &comma);
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

    /// Optional padding around structural tokens: the `json_ws` rule in
    /// flexible mode, nothing otherwise.
    fn pad(&self) -> GrammarExpr {
        match self.options.whitespace {
            WhitespaceConfig::Flexible => self.basic("json_ws"),
            _ => GrammarExpr::Empty,
        }
    }

    /// The separator between members/items (`,` under the active config).
    fn comma(&self) -> GrammarExpr {
        match &self.options.whitespace {
            WhitespaceConfig::Compact => GrammarExpr::literal(","),
            WhitespaceConfig::Flexible => {
                GrammarExpr::seq(vec![self.pad(), GrammarExpr::literal(","), self.pad()])
            }
            WhitespaceConfig::Separators { item_separator, .. } => {
                GrammarExpr::Literal(item_separator.clone().into_bytes())
            }
        }
    }

    /// The separator between an object key and its value (`:`).
    fn colon(&self) -> GrammarExpr {
        match &self.options.whitespace {
            WhitespaceConfig::Compact => GrammarExpr::literal(":"),
            WhitespaceConfig::Flexible => {
                GrammarExpr::seq(vec![self.pad(), GrammarExpr::literal(":"), self.pad()])
            }
            WhitespaceConfig::Separators { key_separator, .. } => {
                GrammarExpr::Literal(key_separator.clone().into_bytes())
            }
        }
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
        if self.options.lenient {
            return Ok(());
        }
        for key in obj.keys() {
            if !SUPPORTED_KEYWORDS.contains(&key.as_str())
                && !ANNOTATION_KEYWORDS.contains(&key.as_str())
            {
                return Err(self.schema_err(
                    path,
                    format!(
                        "unknown keyword `{key}` would silently widen the accepted \
                         language (set JsonSchemaOptions::lenient to ignore it)"
                    ),
                ));
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
            return Ok(GrammarExpr::Literal(
                serde_json::to_string(constant)
                    .expect("serializing a Value cannot fail")
                    .into_bytes(),
            ));
        }
        if let Some(variants) = obj.get("enum") {
            return self.convert_enum(variants, path);
        }
        if let Some(any_of) = obj.get("anyOf").or_else(|| obj.get("oneOf")) {
            return self.convert_any_of(any_of, path);
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
                        .ok_or_else(|| self.schema_err(path, "allOf must be an array"))?
                        .clone();
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
                    if self.options.lenient {
                        continue;
                    }
                    return Err(self.schema_err(
                        path,
                        format!("conflicting `{other}` values in allOf cannot be merged"),
                    ));
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
        let common: Vec<String> = a.into_iter().filter(|t| b.contains(t)).collect();
        match common.len() {
            0 => Err(self.schema_err(path, "allOf `type` intersection is empty")),
            1 => Ok(Value::String(common.into_iter().next().expect("len 1"))),
            _ => Ok(Value::Array(
                common.into_iter().map(Value::String).collect(),
            )),
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

    fn convert_enum(&mut self, variants: &Value, path: &str) -> Result<GrammarExpr> {
        let arr = variants
            .as_array()
            .ok_or_else(|| self.schema_err(path, "enum must be an array"))?;
        if arr.is_empty() {
            return Err(self.schema_err(path, "enum must not be empty"));
        }
        let alts = arr
            .iter()
            .map(|v| {
                GrammarExpr::Literal(
                    serde_json::to_string(v)
                        .expect("serializing a Value cannot fail")
                        .into_bytes(),
                )
            })
            .collect();
        Ok(GrammarExpr::choice(alts))
    }

    fn convert_any_of(&mut self, any_of: &Value, path: &str) -> Result<GrammarExpr> {
        let arr = any_of
            .as_array()
            .ok_or_else(|| self.schema_err(path, "anyOf/oneOf must be an array"))?;
        if arr.is_empty() {
            return Err(self.schema_err(path, "anyOf/oneOf must not be empty"));
        }
        let mut alts = Vec::new();
        for (i, sub) in arr.iter().enumerate() {
            alts.push(self.convert(sub, &format!("{path}/anyOf/{i}"))?);
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
                None if !self.options.lenient => {
                    return Err(self.schema_err(path, "pattern must be a string"));
                }
                None => {}
                Some(p) => {
                    if !self.options.lenient {
                        if obj.contains_key("format") {
                            return Err(self.schema_err(
                                path,
                                "cannot combine `pattern` with `format` on one string schema",
                            ));
                        }
                        if has_length_bounds {
                            return Err(self.schema_err(
                                path,
                                "cannot combine `pattern` with minLength/maxLength",
                            ));
                        }
                    }
                    match regex_pattern_to_expr(p, path) {
                        Ok(content) => {
                            return Ok(GrammarExpr::seq(vec![
                                GrammarExpr::literal("\""),
                                content,
                                GrammarExpr::literal("\""),
                            ]));
                        }
                        Err(err) if !self.options.lenient => return Err(err),
                        Err(_) => {} // lenient: fall back to the plain string grammar
                    }
                }
            }
        }
        if let Some(format) = obj.get("format") {
            match format.as_str() {
                None if !self.options.lenient => {
                    return Err(self.schema_err(path, "format must be a string"));
                }
                None => {}
                Some(name) => {
                    if !self.options.lenient && has_length_bounds {
                        return Err(self
                            .schema_err(path, "cannot combine `format` with minLength/maxLength"));
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
        Ok(GrammarExpr::seq(vec![
            GrammarExpr::literal("\""),
            GrammarExpr::Repeat {
                expr: Box::new(self.basic("json_char")),
                min,
                max,
            },
            GrammarExpr::literal("\""),
        ]))
    }

    /// Returns the cached rule for a supported `format` name (the quoted
    /// string), `Ok(None)` for a lenient-mode unknown format.
    fn format_rule(&mut self, name: &str, path: &str) -> Result<Option<RuleId>> {
        if let Some(&id) = self.format_rules.get(name) {
            return Ok(Some(id));
        }
        let Some(compiled) = format_expr(name) else {
            if self.options.lenient {
                return Ok(None);
            }
            return Err(self.schema_err(path, format!("unsupported string format `{name}`")));
        };
        let content = compiled?;
        let rule_name = format!("format_{}", name.replace('-', "_"));
        let id = self.builder.add_rule(
            &rule_name,
            GrammarExpr::seq(vec![
                GrammarExpr::literal("\""),
                content,
                GrammarExpr::literal("\""),
            ]),
        );
        self.format_rules.insert(name.to_string(), id);
        Ok(Some(id))
    }

    /// Extracts a length or count bound (`minLength`, `maxItems`, …),
    /// returning `None` when absent (or, in lenient mode, malformed: not an
    /// integer, negative, or above `u32::MAX`).
    fn count_bound(&self, obj: &Map, key: &str, path: &str) -> Result<Option<u32>> {
        let Some(value) = obj.get(key) else {
            return Ok(None);
        };
        match value.as_u64().and_then(|v| u32::try_from(v).ok()) {
            Some(v) => Ok(Some(v)),
            None if self.options.lenient => Ok(None),
            None => Err(self.schema_err(
                path,
                format!("`{key}` must be an integer in 0..={}", u32::MAX),
            )),
        }
    }

    /// Extracts a numeric bound, returning `None` when absent (or, in
    /// lenient mode, malformed).
    fn numeric_bound(&self, obj: &Map, key: &str, path: &str) -> Result<Option<f64>> {
        let Some(value) = obj.get(key) else {
            return Ok(None);
        };
        // Bounds beyond ±9e15 exceed exact i64/f64 interop; treat as malformed.
        match value.as_f64().filter(|f| f.is_finite() && f.abs() < 9.0e15) {
            Some(f) => Ok(Some(f)),
            None if self.options.lenient => Ok(None),
            None => Err(self.schema_err(path, format!("`{key}` must be a finite number"))),
        }
    }

    /// Extracts an *exclusive* numeric bound, accepting both the draft-6+
    /// numeric form (`"exclusiveMinimum": 5`) and the draft-4 boolean form
    /// (`"exclusiveMinimum": true`, which makes the sibling `base` keyword —
    /// `minimum`/`maximum` — exclusive). A boolean `false` is a no-op: the
    /// sibling inclusive bound applies on its own.
    fn exclusive_numeric_bound(
        &self,
        obj: &Map,
        key: &str,
        base: &str,
        path: &str,
    ) -> Result<Option<f64>> {
        match obj.get(key) {
            Some(Value::Bool(true)) => {
                let v = self.numeric_bound(obj, base, path)?;
                if v.is_none() && obj.get(base).is_none() && !self.options.lenient {
                    return Err(self.schema_err(
                        path,
                        format!("draft-4 boolean `{key}` requires a sibling `{base}`"),
                    ));
                }
                Ok(v)
            }
            Some(Value::Bool(false)) => Ok(None),
            _ => self.numeric_bound(obj, key, path),
        }
    }

    fn convert_integer(&mut self, obj: &Map, path: &str) -> Result<GrammarExpr> {
        let mut lo: Option<i64> = None;
        let mut hi: Option<i64> = None;
        if let Some(v) = self.numeric_bound(obj, "minimum", path)? {
            let b = v.ceil() as i64;
            lo = Some(lo.map_or(b, |c| c.max(b)));
        }
        if let Some(v) = self.exclusive_numeric_bound(obj, "exclusiveMinimum", "minimum", path)? {
            let b = v.floor() as i64 + 1;
            lo = Some(lo.map_or(b, |c| c.max(b)));
        }
        if let Some(v) = self.numeric_bound(obj, "maximum", path)? {
            let b = v.floor() as i64;
            hi = Some(hi.map_or(b, |c| c.min(b)));
        }
        if let Some(v) = self.exclusive_numeric_bound(obj, "exclusiveMaximum", "maximum", path)? {
            let b = v.ceil() as i64 - 1;
            hi = Some(hi.map_or(b, |c| c.min(b)));
        }

        if let Some(multiple) = obj.get("multipleOf") {
            let k = multiple
                .as_u64()
                .filter(|&k| (1..=MAX_MULTIPLE_OF).contains(&k));
            match k {
                Some(_) if lo.is_some() || hi.is_some() => {
                    if !self.options.lenient {
                        return Err(self.schema_err(
                            path,
                            "cannot combine `multipleOf` with minimum/maximum bounds",
                        ));
                    }
                    // lenient: keep the bounds, drop the divisibility constraint
                }
                Some(1) => {
                    return Ok(self.basic("json_integer"));
                }
                Some(k) => return Ok(self.multiple_of_expr(k)),
                None => {
                    if !self.options.lenient {
                        return Err(self.schema_err(
                            path,
                            format!(
                                "`multipleOf` must be a positive integer \
                                 no greater than {MAX_MULTIPLE_OF}"
                            ),
                        ));
                    }
                }
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
        if obj.contains_key("multipleOf") && !self.options.lenient {
            return Err(self.schema_err(
                path,
                "`multipleOf` on type `number` is unsupported (use type `integer`)",
            ));
        }
        let min_inc = self.number_bound(obj, "minimum", path)?;
        let min_exc = self.integer_valued(
            "exclusiveMinimum",
            self.exclusive_numeric_bound(obj, "exclusiveMinimum", "minimum", path)?,
            path,
        )?;
        let max_inc = self.number_bound(obj, "maximum", path)?;
        let max_exc = self.integer_valued(
            "exclusiveMaximum",
            self.exclusive_numeric_bound(obj, "exclusiveMaximum", "maximum", path)?,
            path,
        )?;
        // The stricter lower bound wins: a larger value, or exclusivity on a tie.
        let lower = match (min_inc, min_exc) {
            (Some(a), Some(b)) if b >= a => Some((b, true)),
            (Some(a), _) => Some((a, false)),
            (None, Some(b)) => Some((b, true)),
            (None, None) => None,
        };
        let upper = match (max_inc, max_exc) {
            (Some(a), Some(b)) if b <= a => Some((b, true)),
            (Some(a), _) => Some((a, false)),
            (None, Some(b)) => Some((b, true)),
            (None, None) => None,
        };
        if lower.is_none() && upper.is_none() {
            return Ok(self.basic("json_number"));
        }
        let (lo, lo_exclusive) = lower.map_or((None, false), |(v, e)| (Some(v), e));
        let (hi, hi_exclusive) = upper.map_or((None, false), |(v, e)| (Some(v), e));
        number_range_expr(lo, hi, lo_exclusive, hi_exclusive, path)
    }

    /// Extracts an integer-valued bound for type `number`; fractional bounds
    /// are unsupported (dropped in lenient mode).
    fn number_bound(&self, obj: &Map, key: &str, path: &str) -> Result<Option<i64>> {
        let v = self.numeric_bound(obj, key, path)?;
        self.integer_valued(key, v, path)
    }

    /// Narrows an extracted `number` bound to an integer value; fractional
    /// bounds are unsupported (dropped in lenient mode).
    fn integer_valued(&self, key: &str, value: Option<f64>, path: &str) -> Result<Option<i64>> {
        match value {
            None => Ok(None),
            Some(v) if v.fract() == 0.0 => Ok(Some(v as i64)),
            Some(_) if self.options.lenient => Ok(None),
            Some(v) => Err(self.schema_err(
                path,
                format!("`{key}` on type `number` must be integer-valued, got {v}"),
            )),
        }
    }

    fn convert_object(&mut self, obj: &Map, path: &str) -> Result<GrammarExpr> {
        let pad = self.pad();
        let empty_map = Map::new();
        let properties = obj
            .get("properties")
            .and_then(Value::as_object)
            .unwrap_or(&empty_map);
        let required: Vec<String> = obj
            .get("required")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(Value::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        let additional = obj.get("additionalProperties");
        let (allow_additional, additional_schema) = match additional {
            None => (self.options.default_additional_properties, None),
            Some(Value::Bool(b)) => (*b, None),
            Some(schema) => (true, Some(schema.clone())),
        };

        // Build member expressions for each declared property, in order.
        let colon = self.colon();
        let mut members: Vec<(GrammarExpr, bool)> = Vec::new();
        let property_list: Vec<(String, Value)> = properties
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        for (name, prop_schema) in &property_list {
            let value_expr = self.convert(prop_schema, &format!("{path}/properties/{name}"))?;
            let key_literal = GrammarExpr::Literal(
                serde_json::to_string(&Value::String(name.clone()))
                    .expect("serializing a string cannot fail")
                    .into_bytes(),
            );
            let member = GrammarExpr::seq(vec![key_literal, colon.clone(), value_expr]);
            members.push((member, required.iter().any(|r| r == name)));
        }

        // Additional members expression (used when additionalProperties allows them).
        let additional_member = if allow_additional {
            let value_expr = match &additional_schema {
                Some(schema) => self.convert(schema, &format!("{path}/additionalProperties"))?,
                None => self.basic("json_any"),
            };
            Some(GrammarExpr::seq(vec![
                self.basic("json_string"),
                colon.clone(),
                value_expr,
            ]))
        } else {
            None
        };

        // Recursive construction over property suffixes. For each suffix we
        // build two expressions: one assuming no member has been emitted yet
        // (`first`) and one assuming a comma is needed (`rest`).
        let comma = self.comma();
        let additional_tail = additional_member
            .as_ref()
            .map(|m| GrammarExpr::star(GrammarExpr::seq(vec![comma.clone(), m.clone()])));
        // `rest` for the empty suffix.
        let mut rest_suffix: GrammarExpr = additional_tail.clone().unwrap_or(GrammarExpr::Empty);
        // `first` for the empty suffix: either nothing, or additional members.
        let mut first_suffix: GrammarExpr = match &additional_member {
            Some(m) => GrammarExpr::optional(GrammarExpr::seq(vec![
                m.clone(),
                additional_tail.clone().unwrap_or(GrammarExpr::Empty),
            ])),
            None => GrammarExpr::Empty,
        };
        for (member, is_required) in members.into_iter().rev() {
            let hint = self.fresh_name("props");
            // Materialize current suffixes as rules to keep expressions small.
            let rest_rule = self
                .builder
                .add_rule(&format!("{hint}_rest"), rest_suffix.clone());
            let first_rule = self
                .builder
                .add_rule(&format!("{hint}_first"), first_suffix.clone());
            let new_rest = if is_required {
                GrammarExpr::seq(vec![
                    comma.clone(),
                    member.clone(),
                    GrammarExpr::RuleRef(rest_rule),
                ])
            } else {
                GrammarExpr::choice(vec![
                    GrammarExpr::seq(vec![
                        comma.clone(),
                        member.clone(),
                        GrammarExpr::RuleRef(rest_rule),
                    ]),
                    GrammarExpr::RuleRef(rest_rule),
                ])
            };
            let new_first = if is_required {
                GrammarExpr::seq(vec![member.clone(), GrammarExpr::RuleRef(rest_rule)])
            } else {
                GrammarExpr::choice(vec![
                    GrammarExpr::seq(vec![member, GrammarExpr::RuleRef(rest_rule)]),
                    GrammarExpr::RuleRef(first_rule),
                ])
            };
            rest_suffix = new_rest;
            first_suffix = new_first;
        }

        let body_rule_name = self.fresh_name("object_members");
        let members_rule = self.builder.add_rule(&body_rule_name, first_suffix);
        Ok(GrammarExpr::seq(vec![
            GrammarExpr::literal("{"),
            pad.clone(),
            GrammarExpr::RuleRef(members_rule),
            pad,
            GrammarExpr::literal("}"),
        ]))
    }

    fn convert_array(&mut self, obj: &Map, path: &str) -> Result<GrammarExpr> {
        let pad = self.pad();
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

        // prefixItems (tuple validation).
        if let Some(prefix) = obj.get("prefixItems").and_then(Value::as_array) {
            let prefix = prefix.clone();
            let mut parts = vec![GrammarExpr::literal("["), pad.clone()];
            for (i, sub) in prefix.iter().enumerate() {
                if i > 0 {
                    parts.push(self.comma());
                }
                parts.push(self.convert(sub, &format!("{path}/prefixItems/{i}"))?);
            }
            parts.push(pad.clone());
            parts.push(GrammarExpr::literal("]"));
            return Ok(GrammarExpr::seq(parts));
        }

        let item_expr = match obj.get("items") {
            Some(items) => {
                let items = items.clone();
                self.convert(&items, &format!("{path}/items"))?
            }
            None => self.basic("json_any"),
        };
        let item_rule_name = self.fresh_name("array_item");
        let item_rule = self.builder.add_rule(&item_rule_name, item_expr);
        let item = GrammarExpr::RuleRef(item_rule);
        let comma_item = GrammarExpr::seq(vec![self.comma(), item.clone()]);

        let empty_array = GrammarExpr::seq(vec![
            GrammarExpr::literal("["),
            pad.clone(),
            GrammarExpr::literal("]"),
        ]);
        let non_empty = GrammarExpr::seq(vec![
            GrammarExpr::literal("["),
            pad.clone(),
            item,
            GrammarExpr::Repeat {
                expr: Box::new(comma_item),
                min: min_items.saturating_sub(1),
                max: max_items.map(|m| m.saturating_sub(1)),
            },
            pad.clone(),
            GrammarExpr::literal("]"),
        ]);
        if min_items == 0 {
            if max_items == Some(0) {
                return Ok(empty_array);
            }
            Ok(GrammarExpr::choice(vec![empty_array, non_empty]))
        } else {
            Ok(non_empty)
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
