//! Differential tests for the grammar static-analysis pass.
//!
//! The analyzer computes productivity and nullability as bottom-up
//! fixpoints; these tests check it against an independent *top-down bounded
//! derivation* oracle on small random grammars, sweep the whole JSON-Schema
//! corpus for false-positive errors, and drive the refusal of an
//! unsatisfiable grammar through the continuous scheduler to prove it fails
//! the stream at admission instead of forcing a lane to its token limit.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use xg_grammar::{
    analyze, CharClass, CharRange, DiagnosticCode, Grammar, GrammarBuilder, GrammarExpr, RuleId,
    Severity,
};

// ---------------------------------------------------------------------------
// Random grammar generation (builder-acceptable shapes only).
// ---------------------------------------------------------------------------

/// Generates a random expression over `rules` rule ids with bounded nesting.
/// Only shapes the builder accepts: repetition bounds are ordered and
/// choices are non-empty. Empty character classes are deliberately included
/// so productivity has interesting false cases.
fn random_expr(rng: &mut SmallRng, rules: u32, depth: usize) -> GrammarExpr {
    let leaf = depth == 0 || rng.gen_range(0..10u32) < 4;
    if leaf {
        match rng.gen_range(0..5u32) {
            0 => GrammarExpr::Empty,
            1 => GrammarExpr::literal(["a", "b", "xy"][rng.gen_range(0..3usize)]),
            2 => GrammarExpr::RuleRef(RuleId(rng.gen_range(0..rules))),
            3 => GrammarExpr::CharClass(CharClass::new(vec![CharRange::new('a', 'c')])),
            _ => GrammarExpr::CharClass(CharClass::new(vec![])),
        }
    } else {
        match rng.gen_range(0..3u32) {
            0 => GrammarExpr::Sequence(
                (0..rng.gen_range(1..4usize))
                    .map(|_| random_expr(rng, rules, depth - 1))
                    .collect(),
            ),
            1 => GrammarExpr::Choice(
                (0..rng.gen_range(1..4usize))
                    .map(|_| random_expr(rng, rules, depth - 1))
                    .collect(),
            ),
            _ => {
                let min = rng.gen_range(0..3u32);
                let max = if rng.gen_bool(0.5) {
                    None
                } else {
                    Some(min + rng.gen_range(0..3u32))
                };
                GrammarExpr::Repeat {
                    expr: Box::new(random_expr(rng, rules, depth - 1)),
                    min,
                    max,
                }
            }
        }
    }
}

fn random_grammar(seed: u64) -> Grammar {
    let mut rng = SmallRng::seed_from_u64(seed);
    let rules = rng.gen_range(1..5u32);
    let mut builder = GrammarBuilder::new();
    let names: Vec<String> = (0..rules).map(|i| format!("r{i}")).collect();
    for name in &names {
        builder.declare(name);
    }
    for (i, name) in names.iter().enumerate() {
        let body = random_expr(&mut rng, rules, 3);
        let id = builder.rule_id(name).expect("declared");
        assert_eq!(id.index(), i);
        builder.set_body(id, body);
    }
    builder.build("r0").expect("generated shapes are buildable")
}

// ---------------------------------------------------------------------------
// Independent oracle: top-down derivation bounded by a rule-expansion budget.
// The analyzer's fixpoints converge in at most `rules` iterations, so a
// budget of `rules + 1` rule expansions decides both properties exactly.
// ---------------------------------------------------------------------------

fn oracle_productive(grammar: &Grammar, expr: &GrammarExpr, budget: usize) -> bool {
    match expr {
        GrammarExpr::Empty | GrammarExpr::Literal(_) => true,
        GrammarExpr::CharClass(cc) => !cc.is_empty(),
        GrammarExpr::ByteClass(bc) => !bc.is_empty(),
        GrammarExpr::RuleRef(id) => {
            budget > 0 && oracle_productive(grammar, &grammar.rule(*id).body, budget - 1)
        }
        GrammarExpr::Sequence(items) => items.iter().all(|e| oracle_productive(grammar, e, budget)),
        GrammarExpr::Choice(items) => items.iter().any(|e| oracle_productive(grammar, e, budget)),
        GrammarExpr::Repeat { expr, min, max } => {
            if max.is_some_and(|max| *min > max) {
                return false;
            }
            *min == 0 || oracle_productive(grammar, expr, budget)
        }
    }
}

fn oracle_nullable(grammar: &Grammar, expr: &GrammarExpr, budget: usize) -> bool {
    match expr {
        GrammarExpr::Empty => true,
        GrammarExpr::Literal(bytes) => bytes.is_empty(),
        GrammarExpr::CharClass(_) | GrammarExpr::ByteClass(_) => false,
        GrammarExpr::RuleRef(id) => {
            budget > 0 && oracle_nullable(grammar, &grammar.rule(*id).body, budget - 1)
        }
        GrammarExpr::Sequence(items) => items.iter().all(|e| oracle_nullable(grammar, e, budget)),
        GrammarExpr::Choice(items) => items.iter().any(|e| oracle_nullable(grammar, e, budget)),
        GrammarExpr::Repeat { expr, min, max } => {
            if max.is_some_and(|max| *min > max) {
                return false;
            }
            *min == 0 || oracle_nullable(grammar, expr, budget)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The analyzer's bottom-up productivity and nullability fixpoints agree
    /// with top-down bounded derivation on random small grammars.
    #[test]
    fn fixpoints_agree_with_bounded_derivation(seed in 0u64..1_000_000) {
        let grammar = random_grammar(seed);
        let analysis = analyze(&grammar);
        let budget = grammar.len() + 1;
        for (i, rule) in grammar.rules().iter().enumerate() {
            prop_assert_eq!(
                analysis.productive[i],
                oracle_productive(&grammar, &rule.body, budget),
                "productivity of `{}` (seed {}) disagrees with the oracle",
                &rule.name,
                seed
            );
            prop_assert_eq!(
                analysis.nullable[i],
                oracle_nullable(&grammar, &rule.body, budget),
                "nullability of `{}` (seed {}) disagrees with the oracle",
                &rule.name,
                seed
            );
        }
        // The unsatisfiable-grammar error is exactly "the root is
        // unproductive" (and it is the root's only unproductivity report).
        let unsat = analysis
            .diagnostics
            .iter()
            .any(|d| d.code == DiagnosticCode::UnsatisfiableGrammar);
        prop_assert_eq!(
            unsat,
            !analysis.productive[grammar.root().index()],
            "unsatisfiable-grammar mismatch for seed {}",
            seed
        );
    }

    /// Rules the analyzer marks unreachable never influence satisfiability:
    /// deleting the diagnostic's target must leave the root's verdict alone.
    #[test]
    fn unreachable_rules_do_not_affect_the_root_verdict(seed in 0u64..1_000_000) {
        let grammar = random_grammar(seed);
        let analysis = analyze(&grammar);
        for diag in &analysis.diagnostics {
            if diag.code != DiagnosticCode::UnreachableRule {
                continue;
            }
            let dead = diag.rule.expect("unreachable-rule anchors to a rule");
            // Re-point the dead rule at Empty: the root's productivity and
            // nullability must not change.
            let mut builder = GrammarBuilder::new();
            for rule in grammar.rules() {
                builder.declare(&rule.name);
            }
            for (i, rule) in grammar.rules().iter().enumerate() {
                let id = RuleId(i as u32);
                let body = if id == dead {
                    GrammarExpr::Empty
                } else {
                    rule.body.clone()
                };
                builder.set_body(id, body);
            }
            let pruned = builder
                .build(&grammar.rule(grammar.root()).name)
                .expect("pruned grammar builds");
            let pruned_analysis = analyze(&pruned);
            let root = grammar.root().index();
            prop_assert_eq!(
                analysis.productive[root], pruned_analysis.productive[root],
                "pruning unreachable `{}` changed the root verdict (seed {})",
                &grammar.rule(dead).name, seed
            );
            prop_assert_eq!(analysis.nullable[root], pruned_analysis.nullable[root]);
        }
    }
}

// ---------------------------------------------------------------------------
// Corpus sweeps.
// ---------------------------------------------------------------------------

/// Every grammar the JSON-Schema corpus produces must lint clean of errors:
/// the converter never emits unsatisfiable or infinitely-nullable structure.
#[test]
fn schema_corpus_grammars_lint_clean() {
    let cases = xg_datasets::schema_corpus(204, 0x5C0);
    for case in &cases {
        let grammar =
            xg_grammar::json_schema_to_grammar(&case.schema).expect("corpus schemas convert");
        let analysis = analyze(&grammar);
        assert!(
            !analysis.has_errors(),
            "feature `{}` produced lint errors: {:?}",
            case.feature,
            analysis.errors().collect::<Vec<_>>()
        );
        // The only expected warnings are unreachable helper rules from the
        // converter's shared prelude.
        for diag in &analysis.diagnostics {
            assert_eq!(
                diag.code,
                DiagnosticCode::UnreachableRule,
                "feature `{}` produced an unexpected warning: {diag}",
                case.feature
            );
        }
    }
}

/// `dead_states` reads every node of a compiled grammar's automaton, with no
/// reachability walk of its own: `build_pda` returns the automaton compact
/// (`Pda::compact` removes nothing) for the builtin grammars and every
/// schema-corpus case, under every Table 3 row.
#[test]
fn every_compiled_automaton_is_compact() {
    use xg_core::{CompilerConfig, GrammarCompiler};

    let mut grammars = vec![
        ("json", xg_grammar::builtin::json_grammar()),
        ("xml", xg_grammar::builtin::xml_grammar()),
        ("python dsl", xg_grammar::builtin::python_dsl_grammar()),
    ];
    for case in xg_datasets::schema_corpus(24, 42) {
        let grammar =
            xg_grammar::json_schema_to_grammar(&case.schema).expect("corpus schemas convert");
        grammars.push((case.feature, grammar));
    }
    let vocab = Arc::new(xg_tokenizer::test_vocabulary(600));
    for row in CompilerConfig::ROWS {
        let compiler = GrammarCompiler::with_config(Arc::clone(&vocab), row);
        for (name, grammar) in &grammars {
            let compiled = compiler.compile_grammar(grammar);
            let pda = compiled.pda();
            assert_eq!(&pda.compact(), pda, "`{name}` under {row:?}");
        }
    }
}

/// Every pathological-corpus entry is flagged with its expected code, with
/// the expected severity, and the checked compile refuses exactly the
/// entries whose root derives no string: an error-severity
/// `nullable-repetition` grammar is still served.
#[test]
fn pathological_corpus_is_fully_flagged() {
    use xg_core::GrammarCompiler;

    let compiler = GrammarCompiler::new(Arc::new(xg_tokenizer::test_vocabulary(600)));
    for case in xg_datasets::pathological_corpus() {
        let analysis = analyze(&case.grammar);
        let hit = analysis
            .diagnostics
            .iter()
            .find(|d| d.code.as_str() == case.expected_code)
            .unwrap_or_else(|| panic!("case `{}` missing `{}`", case.name, case.expected_code));
        assert_eq!(hit.severity == Severity::Error, case.expected_error);
        assert_eq!(
            compiler.compile_grammar_checked(&case.grammar).is_err(),
            case.expected_code == "unsatisfiable-grammar",
            "case `{}`: the checked compile's verdict",
            case.name
        );
    }
}

// ---------------------------------------------------------------------------
// Admission through the continuous scheduler.
// ---------------------------------------------------------------------------

/// The default backend turns the refusal of a grammar whose root derives no
/// string into `StreamEvent::Failed` at admission: the handle's `wait()`
/// errors, the failure is counted, and a healthy lane submitted alongside
/// still completes — nothing wedges, and nothing is forced to `max_tokens`.
/// A grammar with an error-severity `nullable-repetition` is served.
#[test]
fn strict_lint_rejection_fails_the_stream_at_admission() {
    use xg_baselines::{ConstrainedBackend, XGrammarBackend};
    use xg_engine::{
        EngineRequest, ExecutionMode, LaneConstraint, ModelProfile, SchedulerConfig, ServingEngine,
    };
    use xg_tokenizer::test_vocabulary;

    let vocab = Arc::new(test_vocabulary(2000));
    let backend: Arc<dyn ConstrainedBackend> = Arc::new(XGrammarBackend::new(Arc::clone(&vocab)));
    let engine = ServingEngine::new(
        backend,
        ModelProfile::llama31_8b_h100().scaled(0.01),
        ExecutionMode::Overlapped,
    );
    let scheduler = engine.serve(SchedulerConfig {
        max_lanes: 2,
        queue_capacity: 4,
        admission_workers: 1,
        mask_workers: 0,
    });

    let unsatisfiable = EngineRequest {
        constraint: LaneConstraint::Grammar(
            xg_grammar::parse_ebnf(r#"root ::= "x" root"#, "root").unwrap(),
        ),
        prompt_tokens: 8,
        reference: b"xxx".to_vec(),
        max_tokens: 8,
        seed: 7,
    };
    let healthy = EngineRequest {
        constraint: LaneConstraint::Grammar(
            xg_grammar::parse_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root").unwrap(),
        ),
        prompt_tokens: 8,
        reference: b"[42]".to_vec(),
        max_tokens: 16,
        seed: 8,
    };
    let nullable_repetition = EngineRequest {
        constraint: LaneConstraint::Grammar(
            xg_grammar::parse_ebnf(r#"root ::= ("a"?)* "b""#, "root").unwrap(),
        ),
        prompt_tokens: 8,
        reference: b"aab".to_vec(),
        max_tokens: 16,
        seed: 9,
    };

    let bad = scheduler.submit(unsatisfiable).expect("submit");
    let good = scheduler.submit(healthy).expect("submit");
    let served = scheduler.submit(nullable_repetition).expect("submit");

    let bad_err = bad.wait().expect_err("the refusal surfaces on wait");
    assert!(
        bad_err.to_string().contains("unsatisfiable-grammar"),
        "unexpected admission error: {bad_err}"
    );
    let good_result = good.wait().expect("healthy lane completes");
    assert_eq!(good_result.result.output, b"[42]");
    let served_result = served.wait().expect("a nullable repetition is served");
    assert_eq!(served_result.result.output, b"aab");
    assert!(served_result.result.completed);

    let metrics = scheduler.metrics();
    scheduler.shutdown();
    assert_eq!(metrics.failed, 1);
    assert_eq!(metrics.completed, 2);
    assert_eq!(metrics.admitted, 2);
}
