//! Golden schema→EBNF tests for the JSON-Schema converter keywords added
//! for llguidance parity: each schema pins the exact display form of the
//! rules its keyword produces, re-parses the printed grammar, and checks the
//! round trip preserves both the text (printing is a fixed point) and the
//! language (probe strings accept/reject identically). Digests pin what the
//! front ends print, what the PDA build makes of it, and the mask-cache
//! entries built from that.

use xg_automata::{
    build_pda, build_pda_default, extract_all_suffix_fsas, inline_fragment_rules, NodeId, Pda,
    PdaBuildOptions, PdaEdge, SimpleMatcher,
};
use xg_core::{build_mask_cache, MaskCacheBuildOptions, NodeMaskEntry};
use xg_grammar::{Grammar, JsonSchemaOptions, WhitespaceConfig};
use xg_tokenizer::{synthetic_vocabulary, SortedVocabulary, SyntheticVocabConfig, TokenId};

struct Golden {
    name: &'static str,
    schema: &'static str,
    compact: bool,
    /// Exact lines that must appear in the grammar's display output.
    expected_lines: &'static [&'static str],
    accepts: &'static [&'static str],
    rejects: &'static [&'static str],
}

const GOLDENS: &[Golden] = &[
    Golden {
        name: "integer-bounds",
        schema: r#"{"type":"integer","minimum":0,"maximum":9}"#,
        compact: false,
        expected_lines: &[r#"root ::= json_ws ("0" | [1-8] | "9") json_ws"#],
        accepts: &["0", "9", " 5 "],
        rejects: &["10", "-1", "00"],
    },
    Golden {
        name: "exclusive-bounds",
        schema: r#"{"type":"integer","exclusiveMinimum":0,"exclusiveMaximum":10}"#,
        compact: false,
        expected_lines: &[r#"root ::= json_ws ("1" | [2-8] | "9") json_ws"#],
        accepts: &["1", "9"],
        rejects: &["0", "10"],
    },
    Golden {
        name: "pattern",
        schema: r#"{"type":"string","pattern":"^[a-c]{2}$"}"#,
        compact: false,
        expected_lines: &[r#"root ::= json_ws "\"" [a-c]{2} "\"" json_ws"#],
        accepts: &[r#""ab""#, r#""cc""#],
        rejects: &[r#""a""#, r#""abc""#, r#""xy""#],
    },
    Golden {
        name: "format",
        schema: r#"{"type":"string","format":"uuid"}"#,
        compact: false,
        expected_lines: &[
            r##"format_uuid ::= "\"" [0-9A-Fa-f]{8} "-" [0-9A-Fa-f]{4} "-" [0-9A-Fa-f]{4} "-" [0-9A-Fa-f]{4} "-" [0-9A-Fa-f]{12} "\"""##,
            r#"root ::= json_ws format_uuid json_ws"#,
        ],
        accepts: &[r#""123e4567-e89b-12d3-a456-426614174000""#],
        rejects: &[r#""123e4567-e89b-12d3-a456-42661417400g""#, r#""plain""#],
    },
    Golden {
        name: "string-length",
        schema: r#"{"type":"string","minLength":1,"maxLength":3}"#,
        compact: false,
        expected_lines: &[r#"root ::= json_ws "\"" json_char{1,3} "\"" json_ws"#],
        accepts: &[r#""a""#, r#""abc""#],
        rejects: &[r#""""#, r#""abcd""#],
    },
    Golden {
        name: "multiple-of",
        schema: r#"{"type":"integer","multipleOf":3}"#,
        compact: false,
        expected_lines: &[
            r#"multiple_of_1_m0 ::= "" | [0369] multiple_of_1_m0 | [147] multiple_of_1_m1 | [258] multiple_of_1_m2"#,
            r#"multiple_of_1_m1 ::= [258] multiple_of_1_m0 | [0369] multiple_of_1_m1 | [147] multiple_of_1_m2"#,
            r#"multiple_of_1_m2 ::= [147] multiple_of_1_m0 | [258] multiple_of_1_m1 | [0369] multiple_of_1_m2"#,
            r#"root ::= json_ws ("0" | "-"? ([369] multiple_of_1_m0 | [147] multiple_of_1_m1 | [258] multiple_of_1_m2)) json_ws"#,
        ],
        accepts: &["0", "3", "27", "-12"],
        rejects: &["1", "25", "03"],
    },
    Golden {
        name: "number-bounds",
        schema: r#"{"type":"number","minimum":0,"maximum":2}"#,
        compact: false,
        expected_lines: &[
            r#"root ::= json_ws (("0" | "1") ("." [0-9]+)? | "2" ("." [0]+)?) json_ws"#,
        ],
        accepts: &["0", "1.75", "2.0"],
        rejects: &["2.5", "-1", "3"],
    },
    Golden {
        name: "all-of",
        schema: r#"{"allOf":[{"type":"object","properties":{"a":{"type":"integer"}},"required":["a"]},{"properties":{"b":{"type":"boolean"}},"required":["b"]}]}"#,
        compact: false,
        expected_lines: &[
            r#"object_members_3 ::= "\"a\"" json_ws ":" json_ws json_integer props_2_rest"#,
            r#"props_2_rest ::= json_ws "," json_ws "\"b\"" json_ws ":" json_ws json_boolean props_1_rest"#,
            r#"root ::= json_ws "{" json_ws object_members_3 json_ws "}" json_ws"#,
        ],
        accepts: &[r#"{"a": 1, "b": true}"#],
        rejects: &[r#"{"a": 1}"#, r#"{"b": true}"#, r#"{"a": "x", "b": true}"#],
    },
    Golden {
        name: "ref-recursive",
        schema: r##"{"$defs":{"node":{"type":"object","properties":{"next":{"anyOf":[{"$ref":"#/$defs/node"},{"type":"null"}]}},"required":["next"]}},"$ref":"#/$defs/node"}"##,
        compact: false,
        expected_lines: &[
            r#"ref_node_1 ::= "{" json_ws object_members_3 json_ws "}""#,
            r#"object_members_3 ::= "\"next\"" json_ws ":" json_ws (ref_node_1 | json_null) props_2_rest"#,
            r#"root ::= json_ws ref_node_1 json_ws"#,
        ],
        accepts: &[r#"{"next": null}"#, r#"{"next": {"next": {"next": null}}}"#],
        rejects: &[r#"{"next": 3}"#, r#"{"next": {"next": 1}}"#],
    },
    Golden {
        name: "compact-whitespace",
        schema: r#"{"type":"object","properties":{"a":{"type":"integer"}},"required":["a"]}"#,
        compact: true,
        expected_lines: &[
            r#"object_members_2 ::= "\"a\"" ":" json_integer props_1_rest"#,
            r#"root ::= "{" object_members_2 "}""#,
        ],
        accepts: &[r#"{"a":7}"#],
        rejects: &[r#"{"a": 7}"#, r#"{ "a":7}"#],
    },
];

#[test]
fn golden_rules_and_display_round_trip() {
    for golden in GOLDENS {
        let schema: serde_json::Value =
            serde_json::from_str(golden.schema).expect("golden schemas are valid JSON");
        let grammar = if golden.compact {
            let options = JsonSchemaOptions {
                whitespace: WhitespaceConfig::Compact,
                ..Default::default()
            };
            xg_grammar::json_schema_to_grammar_with_options(&schema, &options)
        } else {
            xg_grammar::json_schema_to_grammar(&schema)
        }
        .unwrap_or_else(|e| panic!("{}: golden schema converts: {e}", golden.name));

        // The keyword's footprint in the display output is pinned exactly.
        let printed = grammar.to_string();
        let lines: Vec<&str> = printed.lines().collect();
        for expected in golden.expected_lines {
            assert!(
                lines.contains(expected),
                "{}: missing golden line\n  {expected}\nin grammar:\n{printed}",
                golden.name
            );
        }
        // Compact mode removes the whitespace rule entirely.
        if golden.compact {
            assert!(
                !printed.contains("json_ws"),
                "{}: compact grammar must not reference json_ws:\n{printed}",
                golden.name
            );
        }

        // Round trip: the printed grammar re-parses, printing is a fixed
        // point, and the language is unchanged on the probe strings.
        let reparsed = xg_grammar::parse_ebnf(&printed, "root").unwrap_or_else(|e| {
            panic!(
                "{}: printed grammar must reparse: {e}\n{printed}",
                golden.name
            )
        });
        // Re-parsing may reorder forward-referenced (e.g. recursive) rules,
        // but the rule set itself must survive the round trip byte for byte.
        let reprinted = reparsed.to_string();
        let mut original_lines: Vec<&str> = printed.lines().collect();
        let mut reprinted_lines: Vec<&str> = reprinted.lines().collect();
        original_lines.sort_unstable();
        reprinted_lines.sort_unstable();
        assert_eq!(
            original_lines, reprinted_lines,
            "{}: round trip changed the rule set",
            golden.name
        );
        let pda = build_pda_default(&grammar);
        let pda_reparsed = build_pda_default(&reparsed);
        for probe in golden.accepts {
            assert!(
                SimpleMatcher::new(&pda).accepts(probe.as_bytes()),
                "{}: probe {probe:?} must be accepted",
                golden.name
            );
            assert!(
                SimpleMatcher::new(&pda_reparsed).accepts(probe.as_bytes()),
                "{}: probe {probe:?} must survive the round trip",
                golden.name
            );
        }
        for probe in golden.rejects {
            assert!(
                !SimpleMatcher::new(&pda).accepts(probe.as_bytes()),
                "{}: probe {probe:?} must be rejected",
                golden.name
            );
            assert!(
                !SimpleMatcher::new(&pda_reparsed).accepts(probe.as_bytes()),
                "{}: probe {probe:?} must stay rejected after the round trip",
                golden.name
            );
        }
    }
}

/// FNV-1a (64-bit) over the printed grammars the three front ends produce:
/// the builtin EBNF grammars, every `schema_corpus` case under each
/// `WhitespaceConfig`, and every supported `format`. A change to what the
/// EBNF reader, the regex reader or the schema converter emits changes it.
#[test]
fn front_end_outputs_are_pinned() {
    let mut printed = Vec::new();
    for grammar in [
        xg_grammar::builtin::json_grammar(),
        xg_grammar::builtin::xml_grammar(),
        xg_grammar::builtin::python_dsl_grammar(),
    ] {
        printed.push(grammar.to_string());
    }
    let configs = [
        WhitespaceConfig::Compact,
        WhitespaceConfig::Flexible,
        WhitespaceConfig::Separators {
            item_separator: ", ".to_string(),
            key_separator: ": ".to_string(),
        },
    ];
    let corpus = xg_datasets::schema_corpus(204, 0x5C0);
    for whitespace in configs {
        let options = JsonSchemaOptions {
            whitespace,
            ..Default::default()
        };
        for case in &corpus {
            let grammar = xg_grammar::json_schema_to_grammar_with_options(&case.schema, &options)
                .unwrap_or_else(|e| panic!("{}: corpus schema converts: {e}", case.feature));
            printed.push(grammar.to_string());
        }
    }
    for format in xg_grammar::SUPPORTED_FORMATS {
        let schema = serde_json::json!({"type": "string", "format": format});
        printed.push(
            xg_grammar::json_schema_to_grammar(&schema)
                .unwrap()
                .to_string(),
        );
    }
    let hash = fnv1a(&printed);
    assert_eq!(
        hash,
        0x38aa_3dca_fdfe_61a8,
        "front-end output digest changed: {hash:#018x} over {} grammars",
        printed.len()
    );
}

/// The root insertions [`lenient_outputs_are_pinned`] applies to each corpus
/// schema: a malformed or unsupported value for a supported keyword, an
/// unknown keyword, and a fallback combination each.
const LENIENT_MUTATIONS: &[(&str, &str)] = &[
    ("pattern", "5"),
    ("pattern", r#""(?=x)""#),
    ("format", r#""no-such-format""#),
    ("format", "7"),
    ("minLength", "-1"),
    ("maxItems", "1.5"),
    ("minimum", "1.5"),
    ("exclusiveMinimum", "true"),
    ("multipleOf", "0"),
    ("multipleOf", "3"),
    ("patternProperties", "{}"),
    ("maximum", r#""x""#),
];

/// FNV-1a (64-bit) over what lenient mode makes of every `schema_corpus`
/// case, unmutated and under each of [`LENIENT_MUTATIONS`]: the grammar's
/// display or the error, then whether strict mode errored. Wherever strict
/// mode converts, lenient mode must print the identical grammar.
#[test]
fn lenient_outputs_are_pinned() {
    let lenient = JsonSchemaOptions {
        lenient: true,
        ..Default::default()
    };
    let mut printed = Vec::new();
    let mut conversions = 0;
    for case in xg_datasets::schema_corpus(204, 0x5C0) {
        let mut schemas = vec![case.schema.clone()];
        for (key, value) in LENIENT_MUTATIONS {
            let Some(root) = case.schema.as_object() else {
                panic!("{}: corpus schemas are objects", case.feature);
            };
            let mut root = root.clone();
            root.insert(key.to_string(), serde_json::from_str(value).unwrap());
            schemas.push(serde_json::Value::Object(root));
        }
        for schema in &schemas {
            conversions += 1;
            let loose = xg_grammar::json_schema_to_grammar_with_options(schema, &lenient)
                .map(|grammar| grammar.to_string());
            let strict = xg_grammar::json_schema_to_grammar(schema).map(|g| g.to_string());
            if let Ok(strict) = &strict {
                assert_eq!(
                    loose.as_ref().ok(),
                    Some(strict),
                    "{}: lenient mode differs where strict mode converts: {schema}",
                    case.feature
                );
            }
            printed.push(loose.unwrap_or_else(|e| format!("error: {e}")));
            printed.push(format!("strict ok: {}", strict.is_ok()));
        }
    }
    assert_eq!(conversions, 204 * 13);
    let hash = fnv1a(&printed);
    assert_eq!(
        hash, 0xb09f_1823_6fa5_cee8,
        "lenient-mode output digest changed: {hash:#018x} over {conversions} conversions"
    );
}

/// FNV-1a (64-bit) over texts, each followed by a newline.
fn fnv1a(texts: &[String]) -> u64 {
    let mut hash = Fnv1a::default();
    for text in texts {
        hash.write(text.as_bytes());
        hash.write(b"\n");
    }
    hash.0
}

/// An FNV-1a (64-bit) hash fed bytes as they come.
struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A length, then the ids, little-endian.
    fn write_ids(&mut self, ids: &[TokenId]) {
        self.write(&(ids.len() as u32).to_le_bytes());
        for id in ids {
            self.write(&id.0.to_le_bytes());
        }
    }
}

/// The grammars the PDA shape digests cover: `perf`'s twelve cold and five
/// warm schemas, the three builtin CFGs, and 200 more corpus schemas.
fn pda_corpus() -> Vec<Grammar> {
    let mut schemas: Vec<serde_json::Value> = xg_datasets::schema_corpus(12, 11)
        .into_iter()
        .map(|case| case.schema)
        .collect();
    schemas.extend(
        xg_datasets::json_mode_eval_like(5, 11)
            .into_iter()
            .map(|task| task.schema),
    );
    schemas.extend(
        xg_datasets::schema_corpus(200, 3)
            .into_iter()
            .map(|case| case.schema),
    );
    let mut grammars = vec![
        xg_grammar::builtin::json_grammar(),
        xg_grammar::builtin::xml_grammar(),
        xg_grammar::builtin::python_dsl_grammar(),
    ];
    grammars.extend(
        schemas.iter().map(|schema| {
            xg_grammar::json_schema_to_grammar(schema).expect("corpus schemas convert")
        }),
    );
    grammars
}

/// A PDA written out independently of how its nodes and rules are numbered:
/// rules in the order a breadth-first walk from the root discovers them,
/// each rule's nodes in the order a walk from its start discovers them, and
/// every node's edges relabelled to those positions and sorted. Numbering
/// shows only through the order in which a node stores edges of one label,
/// which the walk follows.
fn canonical_form(pda: &Pda) -> String {
    let mut rule_pos = vec![usize::MAX; pda.rules().len()];
    let mut node_pos = vec![usize::MAX; pda.node_count()];
    let mut rules = vec![pda.root()];
    rule_pos[pda.root().index()] = 0;
    let mut nodes: Vec<NodeId> = Vec::new();
    let mut r = 0;
    while r < rules.len() {
        let first = nodes.len();
        let start = pda.rule(rules[r]).start;
        node_pos[start.index()] = nodes.len();
        nodes.push(start);
        let mut n = first;
        while n < nodes.len() {
            for edge in &pda.node(nodes[n]).edges {
                if let PdaEdge::Rule { rule, .. } = edge {
                    if rule_pos[rule.index()] == usize::MAX {
                        rule_pos[rule.index()] = rules.len();
                        rules.push(*rule);
                    }
                }
                let target = edge.target();
                if node_pos[target.index()] == usize::MAX {
                    node_pos[target.index()] = nodes.len();
                    nodes.push(target);
                }
            }
            n += 1;
        }
        r += 1;
    }
    let mut out = String::new();
    for rule in &rules {
        let rule = pda.rule(*rule);
        out += &format!(
            "rule {} start {}\n",
            rule.name,
            node_pos[rule.start.index()]
        );
    }
    for (pos, id) in nodes.iter().enumerate() {
        let node = pda.node(*id);
        let mut edges: Vec<(u8, u32, u32, usize)> = node
            .edges
            .iter()
            .map(|edge| match *edge {
                PdaEdge::Bytes { range, target } => (
                    0,
                    u32::from(range.lo),
                    u32::from(range.hi),
                    node_pos[target.index()],
                ),
                PdaEdge::Rule { rule, target } => (
                    1,
                    rule_pos[rule.index()] as u32,
                    0,
                    node_pos[target.index()],
                ),
            })
            .collect();
        edges.sort_unstable();
        out += &format!(
            "{pos} r{} {} {edges:?}\n",
            rule_pos[node.rule.index()],
            node.is_final
        );
    }
    out
}

/// The PDA build's output over 220 grammars, pinned three ways: the inlined
/// grammar's text, the unmerged PDAs (without and with inlining) exactly as
/// built, numbering included, and the default PDA up to numbering.
#[test]
fn pda_build_outputs_are_pinned() {
    let grammars = pda_corpus();
    assert_eq!(grammars.len(), 220);
    let default = PdaBuildOptions::default();
    let inlined: Vec<String> = grammars
        .iter()
        .map(|g| inline_fragment_rules(g).to_string())
        .collect();
    let inline_only = PdaBuildOptions {
        merge_nodes: false,
        ..PdaBuildOptions::default()
    };
    let raw: Vec<String> = grammars
        .iter()
        .flat_map(|g| [PdaBuildOptions::unoptimized(), inline_only.clone()].map(|o| (g, o)))
        .map(|(g, options)| format!("{:?}", build_pda(g, &options)))
        .collect();
    let canonical: Vec<String> = grammars
        .iter()
        .map(|g| canonical_form(&build_pda(g, &default)))
        .collect();
    let digests = (fnv1a(&inlined), fnv1a(&raw), fnv1a(&canonical));
    assert_eq!(
        digests,
        (
            0x8cc3_4c3a_64c1_8fe0,
            0x0b5b_3522_ce01_8dbe,
            0x2d15_a5e3_861d_1d9d
        ),
        "(inlined grammar, unmerged PDAs, canonical default PDA) digests changed: {digests:#018x?}"
    );
}

/// Every mask-cache entry the default build makes, over the PDA corpus and
/// the 18 tool-trigger segments (free-text tail appended) of `perf`'s
/// `agent_tools` sessions, at 8k synthetic tokens: the variant, then its
/// lists or bits. A change to how the build classifies tokens that changes
/// any entry changes it.
#[test]
fn mask_cache_entries_are_pinned() {
    let vocab = synthetic_vocabulary(&SyntheticVocabConfig {
        size: 8_000,
        seed: 0x8000,
    });
    let sorted = SortedVocabulary::new(&vocab);
    let mut grammars = pda_corpus();
    for session in xg_datasets::agent_sessions(3, 6, 6, 11) {
        let triggers = session
            .initial
            .build_trigger_grammars()
            .expect("dataset catalogs validate");
        grammars.extend(
            triggers
                .iter()
                .map(|(_, grammar)| xg_grammar::append_free_text_tail(grammar)),
        );
    }
    assert_eq!(grammars.len(), 238);
    let mut hash = Fnv1a::default();
    for grammar in &grammars {
        let pda = build_pda(grammar, &PdaBuildOptions::default());
        let fsas = extract_all_suffix_fsas(&pda);
        let options = MaskCacheBuildOptions::default();
        let cache = build_mask_cache(&pda, &vocab, &sorted, Some(&fsas), &options);
        for node in 0..cache.len() {
            match cache.entry(NodeId(node as u32)) {
                NodeMaskEntry::AcceptHeavy {
                    rejected,
                    uncertain,
                } => {
                    hash.write(b"A");
                    hash.write_ids(rejected);
                    hash.write_ids(uncertain);
                }
                NodeMaskEntry::RejectHeavy {
                    accepted,
                    uncertain,
                } => {
                    hash.write(b"R");
                    hash.write_ids(accepted);
                    hash.write_ids(uncertain);
                }
                NodeMaskEntry::Bitset {
                    accepted,
                    uncertain,
                } => {
                    hash.write(b"B");
                    for word in accepted.words() {
                        hash.write(&word.to_le_bytes());
                    }
                    hash.write_ids(uncertain);
                }
            }
        }
    }
    assert_eq!(
        hash.0, 0xc2c3_f41c_ea4a_ea0e,
        "mask-cache entry digest changed: {:#018x}",
        hash.0
    );
}

#[test]
fn custom_separator_config_threads_through_display() {
    let options = JsonSchemaOptions {
        whitespace: WhitespaceConfig::Separators {
            item_separator: ", ".to_string(),
            key_separator: ": ".to_string(),
        },
        ..Default::default()
    };
    let schema: serde_json::Value = serde_json::from_str(
        r#"{"type":"object","properties":{"a":{"type":"integer"},"b":{"type":"boolean"}},"required":["a","b"]}"#,
    )
    .unwrap();
    let grammar = xg_grammar::json_schema_to_grammar_with_options(&schema, &options).unwrap();
    let pda = build_pda_default(&grammar);
    assert!(SimpleMatcher::new(&pda).accepts(br#"{"a": 1, "b": false}"#));
    // Exactly the configured separators — nothing looser, nothing tighter.
    assert!(!SimpleMatcher::new(&pda).accepts(br#"{"a":1, "b": false}"#));
    assert!(!SimpleMatcher::new(&pda).accepts(br#"{"a": 1,"b": false}"#));
}
