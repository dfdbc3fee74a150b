//! Unit tests for the JSON Schema converter (see `json_schema.rs`).

use super::*;
use serde_json::json;

fn lenient() -> JsonSchemaOptions {
    JsonSchemaOptions {
        lenient: true,
        ..Default::default()
    }
}

#[test]
fn simple_object_schema_converts() {
    let schema = json!({
        "type": "object",
        "properties": {
            "name": {"type": "string"},
            "age": {"type": "integer"},
            "active": {"type": "boolean"}
        },
        "required": ["name", "age"]
    });
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
    assert!(g.rules().len() > 8);
}

#[test]
fn enum_and_const_convert_to_literals() {
    let schema = json!({
        "type": "object",
        "properties": {
            "unit": {"enum": ["celsius", "fahrenheit"]},
            "version": {"const": 2}
        },
        "required": ["unit", "version"]
    });
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
}

#[test]
fn nested_objects_and_arrays() {
    let schema = json!({
        "type": "object",
        "properties": {
            "tags": {"type": "array", "items": {"type": "string"}, "minItems": 1},
            "address": {
                "type": "object",
                "properties": {
                    "street": {"type": "string"},
                    "zip": {"type": "string"}
                },
                "required": ["street"]
            }
        },
        "required": ["tags"]
    });
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
}

#[test]
fn ref_into_defs_resolves() {
    let schema = json!({
        "type": "object",
        "properties": {"child": {"$ref": "#/$defs/leaf"}},
        "required": ["child"],
        "$defs": {"leaf": {"type": "string"}}
    });
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
}

#[test]
fn missing_ref_is_an_error() {
    let schema = json!({"$ref": "#/$defs/nope"});
    assert!(matches!(
        json_schema_to_grammar(&schema),
        Err(GrammarError::Schema { .. })
    ));
}

#[test]
fn any_of_becomes_choice() {
    let schema = json!({
        "anyOf": [{"type": "string"}, {"type": "integer"}, {"type": "null"}]
    });
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
}

#[test]
fn untyped_schema_matches_any_json() {
    let schema = json!(true);
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.rule_id("json_any").is_some());
}

#[test]
fn false_schema_is_rejected() {
    let schema = json!(false);
    assert!(json_schema_to_grammar(&schema).is_err());
}

#[test]
fn bounded_arrays_and_strings() {
    let schema = json!({
        "type": "object",
        "properties": {
            "code": {"type": "string", "minLength": 2, "maxLength": 4},
            "points": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 3}
        },
        "required": ["code", "points"]
    });
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
}

/// A length or count bound must be an integer in `0..=u32::MAX`: anything
/// else is a schema error in strict mode (it once wrapped at 2^32, so
/// `"maxItems": 4294967296` admitted only `[]`) and ignored in lenient mode.
#[test]
fn malformed_length_and_count_bounds_error_in_strict_mode() {
    let schema = |ty: &str, key: &str, value: &str| -> Value {
        serde_json::from_str(&format!(r#"{{"type": "{ty}", "{key}": {value}}}"#)).unwrap()
    };
    for (ty, key) in [
        ("string", "minLength"),
        ("string", "maxLength"),
        ("array", "minItems"),
        ("array", "maxItems"),
    ] {
        let unbounded = json_schema_to_grammar(&json!({ "type": ty })).unwrap();
        for bad in ["4294967296", "4294967297", "-1", "1.5", r#""1""#] {
            let bad_schema = schema(ty, key, bad);
            assert!(
                matches!(
                    json_schema_to_grammar(&bad_schema),
                    Err(GrammarError::Schema { .. })
                ),
                "{key}: {bad} must be rejected"
            );
            let ignored = json_schema_to_grammar_with_options(&bad_schema, &lenient()).unwrap();
            assert_eq!(ignored, unbounded, "lenient mode ignores {key}: {bad}");
        }
        let widest = schema(ty, key, &u32::MAX.to_string());
        assert!(json_schema_to_grammar(&widest).is_ok(), "{key}: u32::MAX");
    }
}

#[test]
fn type_list_becomes_choice() {
    let schema = json!({"type": ["string", "null"]});
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
}

#[test]
fn additional_properties_schema() {
    let schema = json!({
        "type": "object",
        "properties": {"id": {"type": "integer"}},
        "required": ["id"],
        "additionalProperties": {"type": "string"}
    });
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
}

#[test]
fn prefix_items_tuple() {
    let schema = json!({
        "type": "array",
        "prefixItems": [{"type": "string"}, {"type": "integer"}]
    });
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
}

#[test]
fn compact_mode_has_no_ws_rule() {
    let schema =
        json!({"type": "object", "properties": {"a": {"type": "integer"}}, "required": ["a"]});
    let opts = JsonSchemaOptions {
        whitespace: WhitespaceConfig::Compact,
        ..Default::default()
    };
    let g = json_schema_to_grammar_with_options(&schema, &opts).unwrap();
    assert!(g.rule_id("json_ws").is_none());
}

// ---- pattern ----

#[test]
fn pattern_compiles_through_regex_machinery() {
    let schema = json!({"type": "string", "pattern": "^[a-z]{2,5}-[0-9]+$"});
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
    // The pattern replaces the generic string rule at the use site.
    assert!(g.to_string().contains("[a-z]"));
}

#[test]
fn pattern_with_length_bounds_is_strict_error() {
    let schema = json!({"type": "string", "pattern": "^a+$", "minLength": 2});
    assert!(matches!(
        json_schema_to_grammar(&schema),
        Err(GrammarError::Schema { .. })
    ));
    // Lenient mode keeps the pattern and drops the length bound.
    assert!(json_schema_to_grammar_with_options(&schema, &lenient()).is_ok());
}

#[test]
fn pattern_combined_with_format_is_strict_error() {
    let schema = json!({"type": "string", "pattern": "^a$", "format": "uuid"});
    assert!(json_schema_to_grammar(&schema).is_err());
}

#[test]
fn unsupported_pattern_falls_back_when_lenient() {
    let schema = json!({"type": "string", "pattern": "^(?=a)b$"});
    assert!(json_schema_to_grammar(&schema).is_err());
    let g = json_schema_to_grammar_with_options(&schema, &lenient()).unwrap();
    assert!(g.rule_id("json_string").is_some());
}

// ---- format ----

#[test]
fn known_formats_become_named_rules() {
    let schema = json!({
        "type": "object",
        "properties": {
            "when": {"type": "string", "format": "date-time"},
            "id": {"type": "string", "format": "uuid"}
        },
        "required": ["when", "id"]
    });
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.rule_id("format_date_time").is_some());
    assert!(g.rule_id("format_uuid").is_some());
}

#[test]
fn format_rules_are_cached_per_name() {
    let schema = json!({
        "type": "object",
        "properties": {
            "a": {"type": "string", "format": "ipv4"},
            "b": {"type": "string", "format": "ipv4"}
        },
        "required": ["a", "b"]
    });
    let g = json_schema_to_grammar(&schema).unwrap();
    let text = g.to_string();
    assert_eq!(text.matches("format_ipv4 ::=").count(), 1);
}

#[test]
fn unknown_format_errors_in_strict_mode() {
    let schema = json!({"type": "string", "format": "duration"});
    assert!(matches!(
        json_schema_to_grammar(&schema),
        Err(GrammarError::Schema { .. })
    ));
    let g = json_schema_to_grammar_with_options(&schema, &lenient()).unwrap();
    assert!(g.rule_id("json_string").is_some());
}

// ---- numeric bounds ----

#[test]
fn integer_bounds_produce_digit_grammar() {
    let schema = json!({"type": "integer", "minimum": 3, "maximum": 121});
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
    // The unconstrained integer rule must not be the root's value.
    assert!(!g.to_string().contains("root ::= json_ws json_integer"));
}

#[test]
fn exclusive_integer_bounds_tighten_the_range() {
    let schema = json!({"type": "integer", "exclusiveMinimum": 0, "exclusiveMaximum": 10});
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
}

#[test]
fn empty_integer_range_is_an_error() {
    let schema = json!({"type": "integer", "minimum": 5, "maximum": 4});
    assert!(matches!(
        json_schema_to_grammar(&schema),
        Err(GrammarError::Schema { .. })
    ));
}

#[test]
fn number_bounds_produce_digit_grammar() {
    let schema = json!({"type": "number", "minimum": 0, "exclusiveMaximum": 100});
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
}

#[test]
fn fractional_number_bound_is_strict_error() {
    let schema = json!({"type": "number", "minimum": 0.5});
    assert!(json_schema_to_grammar(&schema).is_err());
    // Lenient mode drops the fractional bound entirely.
    let g = json_schema_to_grammar_with_options(&schema, &lenient()).unwrap();
    assert!(g.rule_id("json_number").is_some());
}

#[test]
fn draft4_boolean_exclusive_minimum_is_accepted() {
    // Draft-4 spells exclusivity as a boolean modifying the sibling
    // `minimum`; it must behave exactly like the draft-6 numeric form.
    let draft4 = json!({"type": "integer", "minimum": 1, "exclusiveMinimum": true});
    let draft6 = json!({"type": "integer", "exclusiveMinimum": 1});
    let a = json_schema_to_grammar(&draft4).unwrap();
    let b = json_schema_to_grammar(&draft6).unwrap();
    assert_eq!(a.to_string(), b.to_string());
}

#[test]
fn draft4_boolean_exclusive_maximum_is_accepted() {
    let draft4 = json!({"type": "integer", "minimum": 0, "maximum": 10, "exclusiveMaximum": true});
    let draft6 = json!({"type": "integer", "minimum": 0, "exclusiveMaximum": 10});
    let a = json_schema_to_grammar(&draft4).unwrap();
    let b = json_schema_to_grammar(&draft6).unwrap();
    assert_eq!(a.to_string(), b.to_string());
}

#[test]
fn draft4_boolean_false_is_a_no_op() {
    // `exclusiveMinimum: false` leaves the inclusive `minimum` as-is.
    let draft4 = json!({"type": "integer", "minimum": 1, "maximum": 9, "exclusiveMinimum": false});
    let plain = json!({"type": "integer", "minimum": 1, "maximum": 9});
    let a = json_schema_to_grammar(&draft4).unwrap();
    let b = json_schema_to_grammar(&plain).unwrap();
    assert_eq!(a.to_string(), b.to_string());
}

#[test]
fn draft4_boolean_exclusive_on_number_type() {
    let draft4 = json!({"type": "number", "minimum": 0, "maximum": 100, "exclusiveMaximum": true});
    let draft6 = json!({"type": "number", "minimum": 0, "exclusiveMaximum": 100});
    let a = json_schema_to_grammar(&draft4).unwrap();
    let b = json_schema_to_grammar(&draft6).unwrap();
    assert_eq!(a.to_string(), b.to_string());
}

#[test]
fn draft4_boolean_without_sibling_bound_is_rejected() {
    // A bare boolean `exclusiveMinimum` has nothing to make exclusive.
    let schema = json!({"type": "integer", "exclusiveMinimum": true});
    assert!(matches!(
        json_schema_to_grammar(&schema),
        Err(GrammarError::Schema { .. })
    ));
    // Lenient mode drops the dangling modifier.
    let g = json_schema_to_grammar_with_options(&schema, &lenient()).unwrap();
    assert!(g.rule_id("json_integer").is_some());
}

// ---- multipleOf ----

#[test]
fn multiple_of_builds_residue_dfa() {
    let schema = json!({"type": "integer", "multipleOf": 7});
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
    let text = g.to_string();
    // One rule per residue class mod 7.
    for s in 0..7 {
        assert!(text.contains(&format!("_m{s} ::=")), "missing state {s}");
    }
}

#[test]
fn multiple_of_one_is_plain_integer() {
    let schema = json!({"type": "integer", "multipleOf": 1});
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(!g.to_string().contains("multiple_of"));
}

#[test]
fn multiple_of_with_bounds_is_strict_error() {
    let schema = json!({"type": "integer", "multipleOf": 3, "minimum": 0});
    assert!(json_schema_to_grammar(&schema).is_err());
    // Lenient: the bounds win, divisibility is dropped.
    assert!(json_schema_to_grammar_with_options(&schema, &lenient()).is_ok());
}

#[test]
fn invalid_multiple_of_values_error_in_strict_mode() {
    for bad in [json!(0), json!(-3), json!(2.5), json!(100_000)] {
        let schema = json!({"type": "integer", "multipleOf": bad.clone()});
        assert!(
            json_schema_to_grammar(&schema).is_err(),
            "multipleOf {bad} should be rejected"
        );
        assert!(json_schema_to_grammar_with_options(&schema, &lenient()).is_ok());
    }
}

#[test]
fn multiple_of_on_number_is_strict_error() {
    let schema = json!({"type": "number", "multipleOf": 2});
    assert!(json_schema_to_grammar(&schema).is_err());
    assert!(json_schema_to_grammar_with_options(&schema, &lenient()).is_ok());
}

// ---- allOf ----

#[test]
fn all_of_merges_properties_and_required() {
    let schema = json!({
        "allOf": [
            {"type": "object", "properties": {"a": {"type": "string"}}, "required": ["a"]},
            {"type": "object", "properties": {"b": {"type": "integer"}}, "required": ["b"]}
        ]
    });
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
    let text = g.to_string();
    assert!(text.contains("\\\"a\\\"") || text.contains("\"a\""));
}

#[test]
fn all_of_intersects_numeric_bounds() {
    let schema = json!({
        "type": "integer",
        "allOf": [{"minimum": 0}, {"minimum": 5, "maximum": 20}, {"maximum": 30}]
    });
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
}

#[test]
fn all_of_empty_type_intersection_is_error() {
    let schema = json!({"allOf": [{"type": "string"}, {"type": "integer"}]});
    assert!(matches!(
        json_schema_to_grammar(&schema),
        Err(GrammarError::Schema { .. })
    ));
}

#[test]
fn all_of_conflicting_const_is_error() {
    let schema = json!({"allOf": [{"const": 1}, {"const": 2}]});
    assert!(json_schema_to_grammar(&schema).is_err());
}

#[test]
fn all_of_with_ref_member_is_inlined() {
    let schema = json!({
        "allOf": [
            {"$ref": "#/$defs/base"},
            {"type": "object", "properties": {"extra": {"type": "boolean"}}, "required": ["extra"]}
        ],
        "$defs": {
            "base": {"type": "object", "properties": {"id": {"type": "integer"}}, "required": ["id"]}
        }
    });
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
}

#[test]
fn all_of_enum_intersection() {
    let schema = json!({"allOf": [{"enum": ["a", "b", "c"]}, {"enum": ["b", "c", "d"]}]});
    let g = json_schema_to_grammar(&schema).unwrap();
    let text = g.to_string();
    assert!(text.contains("b") && text.contains("c"));
    let empty = json!({"allOf": [{"enum": ["a"]}, {"enum": ["b"]}]});
    assert!(json_schema_to_grammar(&empty).is_err());
}

// ---- $ref ----

#[test]
fn recursive_ref_becomes_recursive_rule() {
    let schema = json!({
        "$ref": "#/$defs/node",
        "$defs": {
            "node": {
                "type": "object",
                "properties": {
                    "value": {"type": "integer"},
                    "children": {"type": "array", "items": {"$ref": "#/$defs/node"}}
                },
                "required": ["value"]
            }
        }
    });
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
}

#[test]
fn degenerate_self_ref_is_rejected() {
    // `{"$ref": "#"}` expands to itself with no terminals: left recursion.
    let schema = json!({"$ref": "#"});
    assert!(json_schema_to_grammar(&schema).is_err());
}

#[test]
fn json_pointer_escapes_resolve() {
    let schema = json!({
        "$ref": "#/$defs/a~1b",
        "$defs": {"a/b": {"type": "boolean"}}
    });
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
}

#[test]
fn ref_with_sibling_keys_merges_like_all_of() {
    let schema = json!({
        "$ref": "#/$defs/base",
        "required": ["name"],
        "$defs": {
            "base": {"type": "object", "properties": {"name": {"type": "string"}}}
        }
    });
    let g = json_schema_to_grammar(&schema).unwrap();
    assert!(g.validate().is_ok());
}

#[test]
fn shared_ref_targets_compile_once() {
    let schema = json!({
        "type": "object",
        "properties": {
            "a": {"$ref": "#/$defs/leaf"},
            "b": {"$ref": "#/$defs/leaf"}
        },
        "required": ["a", "b"],
        "$defs": {"leaf": {"type": "string", "format": "uuid"}}
    });
    let g = json_schema_to_grammar(&schema).unwrap();
    let text = g.to_string();
    let definitions = text
        .lines()
        .filter(|l| l.starts_with("ref_leaf") && l.contains("::="))
        .count();
    assert_eq!(
        definitions, 1,
        "shared $ref target must compile once:\n{text}"
    );
    assert!(
        text.matches("ref_leaf").count() >= 3,
        "both uses reference it"
    );
}

// ---- strict vs lenient keyword handling ----

#[test]
fn unknown_keyword_errors_in_strict_mode() {
    let schema = json!({"type": "string", "patternProperties": {}});
    let err = json_schema_to_grammar(&schema).unwrap_err();
    assert!(err.to_string().contains("patternProperties"), "{err}");
    assert!(json_schema_to_grammar_with_options(&schema, &lenient()).is_ok());
}

#[test]
fn annotation_keywords_are_always_ignored() {
    let schema = json!({
        "type": "string",
        "title": "Name",
        "description": "a name",
        "examples": ["x"],
        "default": "y",
        "$comment": "note"
    });
    assert!(json_schema_to_grammar(&schema).is_ok());
}

#[test]
fn every_supported_keyword_is_consumed_in_strict_mode() {
    // Regression guard: one minimal schema per supported keyword, each of
    // which must compile strictly. If a keyword is added to
    // SUPPORTED_KEYWORDS without converter support (or vice versa) this
    // test fails.
    let cases: Vec<(&str, Value)> = vec![
        (
            "$ref",
            json!({"$ref": "#/$defs/a", "$defs": {"a": {"type": "string"}}}),
        ),
        (
            "additionalProperties",
            json!({"type": "object", "additionalProperties": {"type": "integer"}}),
        ),
        (
            "allOf",
            json!({"allOf": [{"type": "object"}, {"required": []}]}),
        ),
        (
            "anyOf",
            json!({"anyOf": [{"type": "string"}, {"type": "null"}]}),
        ),
        ("const", json!({"const": 42})),
        ("enum", json!({"enum": [1, 2]})),
        (
            "exclusiveMaximum",
            json!({"type": "integer", "exclusiveMaximum": 10}),
        ),
        (
            "exclusiveMinimum",
            json!({"type": "integer", "exclusiveMinimum": 0}),
        ),
        ("format", json!({"type": "string", "format": "date"})),
        (
            "items",
            json!({"type": "array", "items": {"type": "boolean"}}),
        ),
        ("maxItems", json!({"type": "array", "maxItems": 3})),
        ("maxLength", json!({"type": "string", "maxLength": 5})),
        ("maximum", json!({"type": "integer", "maximum": 99})),
        ("minItems", json!({"type": "array", "minItems": 1})),
        ("minLength", json!({"type": "string", "minLength": 1})),
        ("minimum", json!({"type": "integer", "minimum": -4})),
        ("multipleOf", json!({"type": "integer", "multipleOf": 4})),
        (
            "oneOf",
            json!({"oneOf": [{"type": "integer"}, {"type": "boolean"}]}),
        ),
        ("pattern", json!({"type": "string", "pattern": "^[ab]+$"})),
        (
            "prefixItems",
            json!({"type": "array", "prefixItems": [{"type": "string"}]}),
        ),
        (
            "properties",
            json!({"type": "object", "properties": {"x": {"type": "null"}}}),
        ),
        (
            "required",
            json!({"type": "object", "properties": {"x": {"type": "null"}}, "required": ["x"]}),
        ),
        ("type", json!({"type": "boolean"})),
    ];
    let covered: Vec<&str> = cases.iter().map(|(k, _)| *k).collect();
    assert_eq!(
        covered, SUPPORTED_KEYWORDS,
        "cases must cover SUPPORTED_KEYWORDS in order"
    );
    for (kw, schema) in cases {
        json_schema_to_grammar(&schema)
            .unwrap_or_else(|e| panic!("keyword `{kw}` failed strict conversion: {e}"));
    }
}

#[test]
fn keyword_allowlists_are_disjoint_and_sorted() {
    for list in [SUPPORTED_KEYWORDS, ANNOTATION_KEYWORDS] {
        let mut sorted = list.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, list, "allowlist must stay sorted");
    }
    for kw in SUPPORTED_KEYWORDS {
        assert!(!ANNOTATION_KEYWORDS.contains(kw), "`{kw}` in both lists");
    }
}

// ---- WhitespaceConfig ----

#[test]
fn separator_config_threads_through_object_grammar() {
    let schema = json!({
        "type": "object",
        "properties": {"a": {"type": "integer"}, "b": {"type": "integer"}},
        "required": ["a", "b"]
    });
    let opts = JsonSchemaOptions {
        whitespace: WhitespaceConfig::Separators {
            item_separator: ", ".to_string(),
            key_separator: ": ".to_string(),
        },
        ..Default::default()
    };
    let g = json_schema_to_grammar_with_options(&schema, &opts).unwrap();
    let text = g.to_string();
    assert!(g.rule_id("json_ws").is_none());
    assert!(text.contains("\", \"") || text.contains(", "), "{text}");
}

#[test]
fn invalid_separator_strings_are_rejected() {
    for (item, key) in [("; ", ": "), (", ", " "), (",,", ": "), (",x", ": ")] {
        let opts = JsonSchemaOptions {
            whitespace: WhitespaceConfig::Separators {
                item_separator: item.to_string(),
                key_separator: key.to_string(),
            },
            ..Default::default()
        };
        assert!(
            json_schema_to_grammar_with_options(&json!({"type": "object"}), &opts).is_err(),
            "separators ({item:?}, {key:?}) should be rejected"
        );
    }
}

/// Schemas whose grammar would accept documents the schema rejects, each
/// with the schema whose grammar lenient mode still produces for it: strict
/// mode refuses them, lenient mode keeps the wider grammar.
#[test]
fn widening_schemas_error_in_strict_mode_and_fall_back_when_lenient() {
    let pair = || json!([{"type": "integer"}, {"type": "integer"}]);
    let declares = |name: &str| json!({ name: {"type": "integer"} });
    let cases = [
        // A two-item tuple admits `[1,2]`, which the item counts exclude.
        (
            json!({"type": "array", "prefixItems": pair(), "maxItems": 1}),
            json!({"type": "array", "prefixItems": pair()}),
        ),
        (
            json!({"type": "array", "prefixItems": pair(), "minItems": 3}),
            json!({"type": "array", "prefixItems": pair()}),
        ),
        (
            json!({"type": "array", "prefixItems": 5}),
            json!({"type": "array"}),
        ),
        // `{}` lacks the required `a`.
        (
            json!({"type": "object", "required": ["a"]}),
            json!({"type": "object"}),
        ),
        (
            json!({"type": "object", "properties": declares("b"), "required": ["a"]}),
            json!({"type": "object", "properties": declares("b")}),
        ),
        (
            json!({"type": "object", "properties": declares("a"), "required": "a"}),
            json!({"type": "object", "properties": declares("a")}),
        ),
        (
            json!({"type": "object", "properties": [1]}),
            json!({"type": "object"}),
        ),
        // `1` is not a string.
        (
            json!({"type": "string", "enum": ["a", 1]}),
            json!({"enum": ["a", 1]}),
        ),
        (json!({"type": "string", "const": 1}), json!({"const": 1})),
        // A literal must pass its siblings: `"bb"` is too long, `5` too
        // large, `1` too small, and `"b"` may break a pattern.
        (
            json!({"enum": ["a", "bb"], "maxLength": 1}),
            json!({"enum": ["a", "bb"]}),
        ),
        (json!({"const": 5, "maximum": 3}), json!({"const": 5})),
        (
            json!({"type": "integer", "enum": [1, 5], "minimum": 3}),
            json!({"enum": [1, 5]}),
        ),
        (
            json!({"type": "string", "enum": ["a", "b"], "pattern": "^a$"}),
            json!({"enum": ["a", "b"]}),
        ),
        (
            json!({"enum": [1, "a"], "anyOf": [{"type": "integer"}]}),
            json!({"enum": [1, "a"]}),
        ),
        // Without a `type`, keywords of one type went unenforced: `7`,
        // `"ab"` and `[1,2]` were accepted.
        (
            json!({
                "properties": {"a": {"type": "integer"}},
                "required": ["a"],
                "additionalProperties": false
            }),
            json!({}),
        ),
        (json!({"minLength": 3}), json!({})),
        (
            json!({"items": {"type": "integer"}, "maxItems": 1}),
            json!({}),
        ),
    ];
    for (schema, fallback) in cases {
        assert!(
            matches!(
                json_schema_to_grammar(&schema),
                Err(GrammarError::Schema { .. })
            ),
            "strict mode must refuse {schema}"
        );
        assert_eq!(
            json_schema_to_grammar_with_options(&schema, &lenient()).unwrap(),
            json_schema_to_grammar(&fallback).unwrap(),
            "lenient mode reads {schema} as {fallback}"
        );
    }
}

/// A `const`/`enum` value of a sibling `type` converts: an integral number
/// is an `integer`, an integer is a `number`.
#[test]
fn literals_of_the_sibling_type_convert() {
    for schema in [
        json!({"type": "integer", "enum": [1, 2.0]}),
        json!({"type": "number", "const": 3}),
        json!({"type": ["string", "null"], "enum": ["a", null]}),
    ] {
        assert!(json_schema_to_grammar(&schema).is_ok(), "{schema}");
    }
}

/// `depth` levels of alternating `items` and `properties` around an integer
/// schema, built with `Map::insert`: `json!` interpolation recurses itself.
fn nested_schema(depth: usize) -> Value {
    let mut schema = json!({"type": "integer"});
    for level in 0..depth {
        let mut map = Map::new();
        if level % 2 == 0 {
            map.insert("type".to_string(), json!("array"));
            map.insert("items".to_string(), schema);
        } else {
            let mut properties = Map::new();
            properties.insert("a".to_string(), schema);
            map.insert("type".to_string(), json!("object"));
            map.insert("properties".to_string(), Value::Object(properties));
        }
        schema = Value::Object(map);
    }
    schema
}

/// Drops a [`nested_schema`] level by level: dropping it whole recurses.
fn dismantle(mut schema: Value) {
    while let Value::Object(mut map) = schema {
        schema = match (map.remove("items"), map.remove("properties")) {
            (Some(items), _) => items,
            (_, Some(Value::Object(mut properties))) => properties.remove("a").unwrap_or_default(),
            _ => return,
        };
    }
}

#[test]
fn hostile_nesting_is_a_typed_error_not_a_stack_overflow() {
    // An explicit 2 MB stack, so the outcome does not depend on
    // `RUST_MIN_STACK`.
    let run = std::thread::Builder::new().stack_size(2 << 20).spawn(|| {
        let convert = |depth| {
            let schema = nested_schema(depth);
            let result = json_schema_to_grammar(&schema);
            dismantle(schema);
            result
        };
        // The root and each level are one conversion each.
        assert!(convert(MAX_DEPTH - 1).is_ok());
        for depth in [MAX_DEPTH, 10_000] {
            let err = convert(depth).unwrap_err();
            assert!(matches!(err, GrammarError::Schema { .. }), "{err}");
        }
        // A `$ref` cycle through `allOf` has no finite flattening.
        let cycle =
            json!({"$defs": {"a": {"allOf": [{"$ref": "#/$defs/a"}]}}, "$ref": "#/$defs/a"});
        assert!(matches!(
            json_schema_to_grammar(&cycle),
            Err(GrammarError::Schema { .. })
        ));
    });
    run.expect("spawn the converting thread")
        .join()
        .expect("converting thread");
}
