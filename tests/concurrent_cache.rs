//! Concurrency stress tests for the compiled-artifact cache: many threads
//! racing on the same grammar (or the same tool registry) must trigger
//! exactly one build and share one `Arc`, with the engine stack staying
//! correct on top.

use std::convert::Infallible;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use xg_core::{
    CacheBudget, CompiledGrammar, CompilerConfig, ConstraintMatcher, GrammarCache, GrammarCacheKey,
    GrammarCompiler, GrammarMatcher, TokenBitmask,
};
use xg_grammar::{StructuralTag, TagContent, TagSpec};
use xg_tokenizer::test_vocabulary;

const THREADS: usize = 8;

#[test]
fn stress_same_grammar_compiles_exactly_once() {
    let vocab = Arc::new(test_vocabulary(800));
    let cache = Arc::new(GrammarCache::new(CacheBudget::for_grammars()));
    let grammar =
        Arc::new(xg_grammar::parse_ebnf(r#"root ::= "{" [a-z]+ ":" [0-9]+ "}""#, "root").unwrap());
    let config = CompilerConfig::default();
    let key = GrammarCacheKey::new(&grammar, vocab.fingerprint(), &config);
    let compilations = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));

    let results: Vec<Arc<CompiledGrammar>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = Arc::clone(&cache);
                let grammar = Arc::clone(&grammar);
                let vocab = Arc::clone(&vocab);
                let compilations = Arc::clone(&compilations);
                let barrier = Arc::clone(&barrier);
                let key = key.clone();
                scope.spawn(move || {
                    barrier.wait();
                    // The injected hook counts how many threads actually ran
                    // the compiler.
                    let compile = || {
                        compilations.fetch_add(1, Ordering::SeqCst);
                        let vocab = Arc::clone(&vocab);
                        Ok::<_, Infallible>(CompiledGrammar::compile(&grammar, vocab, &config))
                    };
                    cache.get_or_try_build(&key, compile).unwrap().0
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(
        compilations.load(Ordering::SeqCst),
        1,
        "all {THREADS} threads must share one compilation"
    );
    for other in &results[1..] {
        assert!(
            Arc::ptr_eq(&results[0], other),
            "every thread must receive the identical Arc<CompiledGrammar>"
        );
    }
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, THREADS as u64 - 1);
    assert_eq!(stats.entries, 1);

    // The shared compiled grammar is immediately usable by every thread.
    std::thread::scope(|scope| {
        for compiled in &results {
            scope.spawn(move || {
                let mut matcher = GrammarMatcher::new(Arc::clone(compiled));
                matcher.accept_bytes(b"{abc:42}").unwrap();
                assert!(matcher.can_terminate());
            });
        }
    });
}

#[test]
fn stress_same_registry_builds_exactly_once() {
    let vocab = Arc::new(test_vocabulary(800));
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    let tag = StructuralTag::new(vec![TagSpec {
        begin: "<n>".into(),
        content: TagContent::Ebnf {
            text: "root ::= [0-9]+".into(),
            root: "root".into(),
        },
        end: "</n>".into(),
    }]);
    let barrier = Barrier::new(THREADS);

    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    compiler.compile_tag_dispatch(&tag).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // One conversion + segment compile + scanner build, shared by everyone.
    let stats = compiler.dispatch_cache().stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits, THREADS as u64 - 1);
    for other in &results[1..] {
        assert!(Arc::ptr_eq(&results[0], other));
    }
}

#[test]
fn stress_distinct_grammars_do_not_serialize_each_other() {
    // Threads compiling *different* grammars proceed concurrently (the map
    // lock is not held during compilation) and each compiles exactly once.
    let vocab = Arc::new(test_vocabulary(800));
    let cache = Arc::new(GrammarCache::new(CacheBudget::for_grammars()));
    let compilations = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));

    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let cache = Arc::clone(&cache);
            let vocab = Arc::clone(&vocab);
            let compilations = Arc::clone(&compilations);
            let barrier = Arc::clone(&barrier);
            scope.spawn(move || {
                // Two distinct grammars, each raced by half the threads.
                let source = if t % 2 == 0 {
                    r#"root ::= "[" [0-9]+ "]""#
                } else {
                    r#"root ::= "<" [a-z]+ ">""#
                };
                let grammar = xg_grammar::parse_ebnf(source, "root").unwrap();
                let config = CompilerConfig::default();
                let key = GrammarCacheKey::new(&grammar, vocab.fingerprint(), &config);
                barrier.wait();
                let compile = || {
                    compilations.fetch_add(1, Ordering::SeqCst);
                    let vocab = Arc::clone(&vocab);
                    Ok::<_, Infallible>(CompiledGrammar::compile(&grammar, vocab, &config))
                };
                let (compiled, _) = cache.get_or_try_build(&key, compile).unwrap();
                // Every thread can match with its grammar right away.
                let mut matcher = GrammarMatcher::new(compiled);
                let input: &[u8] = if t % 2 == 0 { b"[12]" } else { b"<ab>" };
                matcher.accept_bytes(input).unwrap();
            });
        }
    });

    assert_eq!(compilations.load(Ordering::SeqCst), 2);
    assert_eq!(cache.len(), 2);
}

#[test]
fn stress_shared_compiler_masks_stay_correct_under_threads() {
    // End-to-end: one GrammarCompiler (hence one cache) shared by 8 threads
    // that compile the same schema grammar and immediately generate masks.
    // The masks must be identical across threads.
    let vocab = Arc::new(test_vocabulary(800));
    let compiler = Arc::new(GrammarCompiler::new(Arc::clone(&vocab)));
    let grammar = Arc::new(xg_grammar::builtin::json_grammar());
    let barrier = Arc::new(Barrier::new(THREADS));

    let masks: Vec<TokenBitmask> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let compiler = Arc::clone(&compiler);
                let grammar = Arc::clone(&grammar);
                let vocab = Arc::clone(&vocab);
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    barrier.wait();
                    let compiled = compiler.compile_grammar(&grammar);
                    let mut matcher = GrammarMatcher::new(compiled);
                    matcher.accept_bytes(br#"{"k": "#).unwrap();
                    let mut mask = TokenBitmask::new_all_rejected(vocab.len());
                    matcher.fill_next_token_bitmask(&mut mask);
                    mask
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert_eq!(compiler.cache().len(), 1);
    assert_eq!(compiler.cache().stats().misses, 1);
    for mask in &masks[1..] {
        assert_eq!(
            &masks[0], mask,
            "masks must not depend on the compiling thread"
        );
    }
    assert!(masks[0].count_allowed() > 0);
}

#[test]
fn near_identical_schemas_get_distinct_cache_keys() {
    // Schemas differing only in a numeric bound, a string format, a pattern
    // quantifier, or the whitespace configuration must land on distinct
    // cache keys — a collision would silently serve the wrong grammar.
    let vocab = Arc::new(test_vocabulary(800));
    let config = CompilerConfig::default();
    let schemas = [
        r#"{"type":"integer","minimum":0,"maximum":100}"#,
        r#"{"type":"integer","minimum":0,"maximum":101}"#,
        r#"{"type":"integer","minimum":1,"maximum":100}"#,
        r#"{"type":"integer","multipleOf":5}"#,
        r#"{"type":"integer","multipleOf":7}"#,
        r#"{"type":"number","minimum":0,"maximum":100}"#,
        r#"{"type":"string","format":"ipv4"}"#,
        r#"{"type":"string","format":"ipv6"}"#,
        r#"{"type":"string","pattern":"^a{1,3}$"}"#,
        r#"{"type":"string","pattern":"^a{1,4}$"}"#,
    ];
    let grammars: Vec<xg_grammar::Grammar> = schemas
        .iter()
        .map(|source| {
            let schema: serde_json::Value = serde_json::from_str(source).unwrap();
            xg_grammar::json_schema_to_grammar(&schema).expect("schema converts")
        })
        .collect();
    let keys: Vec<GrammarCacheKey> = grammars
        .iter()
        .map(|grammar| GrammarCacheKey::new(grammar, vocab.fingerprint(), &config))
        .collect();
    for (i, a) in keys.iter().enumerate() {
        for (j, b) in keys.iter().enumerate().skip(i + 1) {
            assert_ne!(
                a, b,
                "cache-key collision between schemas {i} and {j}:\n  {}\n  {}",
                schemas[i], schemas[j]
            );
        }
    }

    // Whitespace configuration is part of the grammar, hence of the key.
    let schema: serde_json::Value = serde_json::from_str(
        r#"{"type":"object","properties":{"a":{"type":"integer"}},"required":["a"]}"#,
    )
    .unwrap();
    let compact = xg_grammar::json_schema_to_grammar_with_options(
        &schema,
        &xg_grammar::JsonSchemaOptions {
            whitespace: xg_grammar::WhitespaceConfig::Compact,
            ..Default::default()
        },
    )
    .unwrap();
    let flexible = xg_grammar::json_schema_to_grammar(&schema).unwrap();
    assert_ne!(
        GrammarCacheKey::new(&compact, vocab.fingerprint(), &config),
        GrammarCacheKey::new(&flexible, vocab.fingerprint(), &config),
        "compact and flexible whitespace grammars must not share a cache entry"
    );

    // End to end: one shared compiler caches each variant separately.
    let compiler = GrammarCompiler::new(Arc::clone(&vocab));
    for grammar in &grammars {
        let _ = compiler.compile_grammar(grammar);
    }
    assert_eq!(compiler.cache().len(), grammars.len());
    assert_eq!(compiler.cache().stats().misses, grammars.len() as u64);

    // One level up: tool registries differing in one schema keyword, one
    // trigger or one end tag get distinct dispatch-cache slots.
    let tool = |schema: &str, end: &str| TagSpec {
        begin: "<fn=get>".into(),
        content: TagContent::JsonSchema(serde_json::from_str(schema).unwrap()),
        end: end.into(),
    };
    let triggered = |trigger: &str| {
        StructuralTag::with_triggers(vec![tool(schemas[0], "</fn>")], vec![trigger.into()])
    };
    let registries = [
        StructuralTag::new(vec![tool(schemas[0], "</fn>")]),
        StructuralTag::new(vec![tool(schemas[1], "</fn>")]),
        StructuralTag::new(vec![tool(r#"{"type":"integer","minimum":0}"#, "</fn>")]),
        StructuralTag::new(vec![tool(r#"{"type":"integer","maximum":0}"#, "</fn>")]),
        StructuralTag::new(vec![tool(schemas[0], "</fn >")]),
        triggered("<fn="),
        triggered("<fn"),
    ];
    for registry in &registries {
        compiler.compile_tag_dispatch(registry).unwrap();
    }
    let stats = compiler.dispatch_cache().stats();
    let distinct = registries.len() as u64;
    assert_eq!((stats.misses, stats.entries), (distinct, distinct));
}
