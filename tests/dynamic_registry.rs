//! Dynamic tool registries: incremental dispatch updates, the budgeted
//! dispatch cache, and trigger sharing across mutations.
//!
//! Five layers of evidence:
//!
//! 1. Churning 1k distinct registries through a compiler keeps both the
//!    dispatch cache and the grammar cache inside their byte budgets (the
//!    former `tag_dispatch_memo` grew without bound).
//! 2. A tool removed by a [`DispatchDelta`] does not stay pinned: once the
//!    base dispatch is evicted and dropped (and the grammar cache lets go),
//!    the removed trigger's compiled grammar is freed, while retained
//!    triggers are shared with the updated dispatch.
//! 3. The dead-trigger refusal runs on the delta path too —
//!    exactly on the recompiled trigger, with untouched triggers reused
//!    without recompilation.
//! 4. Segment grammars are cached by structure, not by registry position:
//!    a second tenant whose catalog overlaps the first's by 90 % hits the
//!    shared grammar cache for every shared tool.
//! 5. Property: interleaving registry mutations with decodes on live
//!    [`ContinuousScheduler`](xg_engine::ContinuousScheduler) lanes yields
//!    outputs byte-identical to compiling each request's catalog fresh.

use std::sync::Arc;

use proptest::prelude::*;
use xg_baselines::{ConstrainedBackend, XGrammarBackend};
use xg_core::{CacheBudget, CompiledConstraint, CompilerConfig, GrammarCache, GrammarCompiler};
use xg_datasets::{agent_catalog, agent_tag_spec, agent_tool, overlapping_catalogs, TOOL_CALL_END};
use xg_engine::{
    EngineRequest, ExecutionMode, LaneConstraint, ModelProfile, SchedulerConfig, ServingEngine,
};
use xg_grammar::{DispatchDelta, TagContent, TagSpec};
use xg_tokenizer::test_vocabulary;

#[test]
fn churn_of_1k_distinct_registries_keeps_memory_flat() {
    let vocab = Arc::new(test_vocabulary(512));
    // Size the budgets from one real compiled registry, so the test tracks
    // the true artifact sizes instead of hard-coding byte counts.
    let probe = GrammarCompiler::new(Arc::clone(&vocab))
        .compile_tag_dispatch(&agent_catalog(&[agent_tool(0)]))
        .expect("probe registry compiles")
        .memory_bytes()
        .max(1);
    let budget = 8 * probe;
    let cache = Arc::new(GrammarCache::new(CacheBudget {
        max_bytes: budget,
        max_entries: usize::MAX,
    }));
    let compiler = GrammarCompiler::with_cache(
        Arc::clone(&vocab),
        CompilerConfig::default(),
        Arc::clone(&cache),
    )
    .with_dispatch_cache_config(CacheBudget {
        max_bytes: budget,
        max_entries: usize::MAX,
    });
    for i in 0..1000usize {
        compiler
            .compile_tag_dispatch(&agent_catalog(&[agent_tool(i)]))
            .expect("churn registry compiles");
        if i % 97 == 0 {
            // Bounded throughout the churn, not just at the end.
            assert!(compiler.dispatch_cache().stats().current_bytes <= budget as u64);
        }
    }
    let dispatch = compiler.dispatch_cache().stats();
    assert!(
        dispatch.current_bytes <= budget as u64,
        "dispatch cache exceeded its budget: {dispatch:?}"
    );
    assert!(
        dispatch.evictions >= 900,
        "1k distinct registries through an ~8-entry cache must evict: {dispatch:?}"
    );
    assert!(dispatch.entries <= 64, "entries unbounded: {dispatch:?}");
    let grammars = cache.stats();
    assert!(
        grammars.current_bytes <= budget as u64,
        "grammar cache exceeded its budget: {grammars:?}"
    );
    assert!(grammars.evictions > 0);
}

#[test]
fn removed_tools_grammar_is_not_pinned() {
    let vocab = Arc::new(test_vocabulary(512));
    // One dispatch-cache slot: the updated registry displaces its base.
    let compiler =
        GrammarCompiler::new(Arc::clone(&vocab)).with_dispatch_cache_config(CacheBudget {
            max_bytes: usize::MAX,
            max_entries: 1,
        });
    let keep = agent_tool(1);
    let retired = agent_tool(2);
    let base = compiler
        .compile_tag_dispatch(&agent_catalog(&[keep.clone(), retired.clone()]))
        .expect("base registry compiles");
    let grammar_of = |dispatch: &xg_core::CompiledTagDispatch, begin: &str| {
        Arc::downgrade(
            dispatch
                .triggers()
                .iter()
                .find(|t| t.trigger() == begin.as_bytes())
                .expect("trigger present")
                .grammar(),
        )
    };
    let keep_grammar = grammar_of(&base, &keep.begin_tag());
    let retired_grammar = grammar_of(&base, &retired.begin_tag());
    let updated = compiler
        .update_tag_dispatch(
            &base,
            &DispatchDelta::RemoveTag {
                begin: retired.begin_tag(),
            },
        )
        .expect("removal applies");
    assert_eq!(updated.triggers().len(), 1);
    drop(base); // the cache already evicted it; drop the last strong ref
    compiler.cache().clear(); // the grammar cache's own hold
    assert!(
        retired_grammar.upgrade().is_none(),
        "the removed tool's grammar must not stay pinned"
    );
    // The retained trigger was reused wholesale: same grammar, not a
    // recompile.
    let kept_alive = keep_grammar
        .upgrade()
        .expect("retained tool's grammar stays alive through the update");
    assert!(Arc::ptr_eq(&kept_alive, updated.triggers()[0].grammar()));
}

#[test]
fn delta_path_lints_and_recompiles_only_the_touched_trigger() {
    let vocab = Arc::new(test_vocabulary(512));
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let base_catalog = agent_catalog(&(0..4).map(agent_tool).collect::<Vec<_>>());
    let base = compiler
        .compile_tag_dispatch(&base_catalog)
        .expect("a clean registry compiles");
    // A dead added trigger (its segment grammar never terminates) must be
    // rejected by the incremental path exactly like a full compile would.
    let dead = TagSpec {
        begin: "<dead>".into(),
        content: TagContent::Ebnf {
            text: r#"root ::= "x" root"#.into(),
            root: "root".into(),
        },
        end: "</dead>".into(),
    };
    let err = compiler
        .update_tag_dispatch(&base, &DispatchDelta::AddTag(dead))
        .expect_err("a dead trigger is refused on the delta path");
    assert!(
        err.to_string().contains("<dead>"),
        "the refusal names the dead trigger: {err}"
    );
    // A healthy addition recompiles exactly one segment grammar; the four
    // untouched triggers are reused without touching the grammar cache.
    let misses_before = compiler.local_cache_stats().misses;
    let updated = compiler
        .update_tag_dispatch(
            &base,
            &DispatchDelta::AddTag(agent_tag_spec(&agent_tool(50))),
        )
        .expect("healthy addition applies");
    assert_eq!(updated.triggers().len(), 5);
    assert_eq!(
        compiler.local_cache_stats().misses - misses_before,
        1,
        "an AddTag delta must compile only the added trigger's grammar"
    );
}

#[test]
fn overlapping_catalogs_share_sub_grammars_across_tenants() {
    let vocab = Arc::new(test_vocabulary(512));
    let cache = Arc::new(GrammarCache::new(CacheBudget::for_grammars()));
    let tenant = || {
        GrammarCompiler::with_cache(
            Arc::clone(&vocab),
            CompilerConfig::default(),
            Arc::clone(&cache),
        )
    };
    let (tenant_a, tenant_b) = (tenant(), tenant());
    // 36 of 40 tools shared, at different trigger indices in the two catalogs.
    let (catalog_a, catalog_b) = overlapping_catalogs(40, 36);
    tenant_a
        .compile_tag_dispatch(&catalog_a)
        .expect("catalog A compiles");
    tenant_b
        .compile_tag_dispatch(&catalog_b)
        .expect("catalog B compiles");
    let stats = tenant_b.local_cache_stats();
    assert_eq!(
        (stats.hits, stats.misses),
        (36, 4),
        "tenant B compiles only its four private tools: {stats:?}"
    );
}

/// Builds a reference transcript calling `tool`: prose, one compact-JSON
/// call, prose.
fn call_reference(tool: &xg_datasets::ToolFunction, value: usize) -> Vec<u8> {
    format!(
        "ok {}{{\"arg_{}\":{value}}}{} done",
        tool.begin_tag(),
        &tool.name[5..],
        TOOL_CALL_END
    )
    .into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Interleaved registry mutations and decodes on a live scheduler: each
    /// request decodes under the catalog in force at submission, and its
    /// output is byte-identical to a fresh engine compiling that catalog
    /// from scratch. Registry history must not leak into decode bytes.
    #[test]
    fn live_scheduler_decodes_match_fresh_compiles_under_mutation(
        ops in proptest::collection::vec(0u8..4, 1..5),
        seed in 0u64..1_000,
    ) {
        let vocab = Arc::new(test_vocabulary(600));
        let backend: Arc<dyn ConstrainedBackend> =
            Arc::new(XGrammarBackend::new(Arc::clone(&vocab)));
        let profile = ModelProfile::llama31_8b_h100().scaled(0.02);
        let engine = ServingEngine::new(
            Arc::clone(&backend),
            profile.clone(),
            ExecutionMode::Overlapped,
        );
        let scheduler = engine.serve(SchedulerConfig {
            max_lanes: 4,
            queue_capacity: 16,
            admission_workers: 2,
            mask_workers: 0, // auto
        });
        let mut tools = vec![agent_tool(0), agent_tool(1)];
        let mut catalog = agent_catalog(&tools);
        let mut next_fresh = 100usize;
        let mut in_flight = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            // Mutate the live registry between submissions: adds and (when
            // more than one tool is live) removals, applied through the
            // engine's incremental path while earlier lanes still decode.
            match op % 4 {
                0 => {
                    let tool = agent_tool(next_fresh);
                    next_fresh += 1;
                    catalog = engine
                        .update_tool_registry(
                            &catalog,
                            &DispatchDelta::AddTag(agent_tag_spec(&tool)),
                        )
                        .expect("add applies");
                    tools.push(tool);
                }
                1 if tools.len() > 1 => {
                    let victim = tools.remove((seed as usize + i) % tools.len());
                    catalog = engine
                        .update_tool_registry(
                            &catalog,
                            &DispatchDelta::RemoveTag { begin: victim.begin_tag() },
                        )
                        .expect("remove applies");
                }
                _ => {}
            }
            let callee = &tools[(seed as usize).wrapping_add(i) % tools.len()];
            let request = EngineRequest {
                constraint: LaneConstraint::StructuralTag(catalog.clone()),
                prompt_tokens: 16 + i,
                reference: call_reference(callee, i),
                max_tokens: 150,
                seed: seed ^ (i as u64),
            };
            let handle = scheduler.submit(request.clone()).expect("submit");
            in_flight.push((request, handle));
        }
        let mut finished = Vec::new();
        for (request, handle) in in_flight {
            let result = handle.wait().expect("lane finishes");
            finished.push((request, result));
        }
        scheduler.shutdown();
        for (request, live) in finished {
            // Fresh engine, fresh backend: compiles the request's catalog
            // from its description alone, no mutation history.
            let fresh_backend: Arc<dyn ConstrainedBackend> =
                Arc::new(XGrammarBackend::new(Arc::clone(&vocab)));
            let fresh_engine =
                ServingEngine::new(fresh_backend, profile.clone(), ExecutionMode::Serial);
            let fresh = fresh_engine
                .decode_reference(&request)
                .expect("fresh engine decodes");
            prop_assert_eq!(
                String::from_utf8_lossy(&live.result.output),
                String::from_utf8_lossy(&fresh.output),
                "live mutated-registry decode diverged from the fresh compile"
            );
        }
    }
}
