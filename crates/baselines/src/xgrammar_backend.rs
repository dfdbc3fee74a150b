//! Adapter exposing the `xg-core` engine through the common backend
//! interface, so the benchmark harness and the serving engine can swap it
//! against the baselines.
//!
//! Every compiled constraint — fully-constrained grammar or structural-tag
//! dispatch — hands out pooled [`Session`]s: a `dyn ConstraintMatcher` drawn
//! from a [`MatcherPool`] and returned to it on drop. The only per-kind code
//! is the constraint *construction* (which compile entry point to call);
//! masks, token acceptance, jump-forward and termination are the matcher's
//! own trait methods.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use xg_core::{
    CompilerConfig, ConstraintFactory, GrammarCache, GrammarCacheKey, GrammarCacheStats,
    GrammarCompiler, MatcherPool,
};
use xg_grammar::{DispatchDelta, Grammar, StructuralTag};
use xg_tokenizer::Vocabulary;

use crate::{BackendError, CompiledConstraint, ConstrainedBackend, Session};

/// The XGrammar engine behind the common backend interface.
#[derive(Debug)]
pub struct XGrammarBackend {
    compiler: GrammarCompiler,
    /// One matcher pool per live compiled constraint, so repeated `compile()`
    /// / `compile_structural()` calls for the same (cached) artifact hand out
    /// the same pool and sessions of successive batches actually recycle
    /// matchers. Pools pin their compiled artifact, so entries whose grammar
    /// the `GrammarCache` has evicted are pruned whenever the cache's
    /// eviction counter has moved — the cache's byte budget stays the bound
    /// on resident compiled grammars.
    pools: Mutex<PoolState>,
}

/// Key of a pooled compiled constraint: the grammar cache key for ordinary
/// grammars, the compiled dispatch's factory identity for structural tags
/// (whose compilation is memoized per compiler, giving a stable artifact per
/// tool registry). This enum is the backend's single per-constraint-kind
/// branch point — everything downstream is `dyn ConstraintMatcher`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum PoolKey {
    Grammar(GrammarCacheKey),
    Structural(usize),
}

/// The matcher pools plus, for each cache the pools shadow, the eviction
/// count at the last prune; pruning is skipped (and costs nothing) while
/// both counts are unchanged — in particular forever for unbounded caches
/// under stable registries.
#[derive(Debug, Default)]
struct PoolState {
    by_key: HashMap<PoolKey, Arc<XGrammarCompiled>>,
    /// [`GrammarCache`] eviction count at the last prune.
    pruned_at_eviction_count: u64,
    /// Compiler [`TagDispatchCache`](xg_core::TagDispatchCache) eviction
    /// count at the last prune — dispatch evictions (LRU, byte budget, or
    /// incremental updates displacing old registry versions) must unpin the
    /// stale structural pools even when no grammar was evicted.
    dispatch_pruned_at_eviction_count: u64,
}

/// Cap on structural-tag pools retained by the backend, mirroring the
/// compiler's dispatch-cache entry cap (stale pools would pin compiled
/// dispatches the cache has already evicted).
const STRUCTURAL_POOL_CAP: usize = 64;

impl XGrammarBackend {
    /// Creates the backend with the default (fully optimized) configuration.
    pub fn new(vocab: Arc<Vocabulary>) -> Self {
        Self::with_config(vocab, CompilerConfig::default())
    }

    /// Creates the backend with an explicit compiler configuration (used by
    /// the ablation study).
    pub fn with_config(vocab: Arc<Vocabulary>, config: CompilerConfig) -> Self {
        XGrammarBackend {
            compiler: GrammarCompiler::with_config(vocab, config),
            pools: Mutex::new(PoolState::default()),
        }
    }

    /// Creates the backend on top of a shared [`GrammarCache`], so several
    /// backends / serving engines draw compiled grammars from one budgeted,
    /// compile-once pool.
    pub fn with_cache(
        vocab: Arc<Vocabulary>,
        config: CompilerConfig,
        cache: Arc<GrammarCache>,
    ) -> Self {
        XGrammarBackend {
            compiler: GrammarCompiler::with_cache(vocab, config, cache),
            pools: Mutex::new(PoolState::default()),
        }
    }

    /// The shared pool wrapper for a compiled constraint, creating it on
    /// first sight. A pool is only reused while its artifact is still the
    /// live one (an evicted-and-recompiled grammar gets a fresh pool), and
    /// stale pools are dropped so the cache budget bounds resident grammars.
    fn pool_for(&self, key: PoolKey, factory: Arc<dyn ConstraintFactory>) -> Arc<XGrammarCompiled> {
        let cache = self.compiler.cache();
        let mut state = self.pools.lock().unwrap_or_else(|e| e.into_inner());
        // Prune on every lookup (not just inserts): a workload that settles
        // on a stable grammar set would otherwise never drop pools whose
        // grammars another sharer of the cache has since evicted. Skipped
        // while both eviction counters are unchanged (always, for unbounded
        // caches under stable registries). The dispatch counter matters on
        // its own: an incremental registry update or dispatch-LRU eviction
        // drops a registry without evicting any shared sub-grammar, and its
        // pool must not stay pinned.
        let evictions = cache.eviction_count();
        let dispatch_evictions = self.compiler.dispatch_cache().eviction_count();
        if state.pruned_at_eviction_count != evictions
            || state.dispatch_pruned_at_eviction_count != dispatch_evictions
        {
            state.pruned_at_eviction_count = evictions;
            state.dispatch_pruned_at_eviction_count = dispatch_evictions;
            state.by_key.retain(|k, _| match k {
                PoolKey::Grammar(key) => cache.contains(key),
                // Structural pools pin whole compiled dispatches (every
                // per-trigger grammar plus idle inner matchers); drop them
                // once the compiler's dispatch cache no longer holds the
                // registry, so evicted tool registries do not stay resident
                // outside the cache budget.
                PoolKey::Structural(key) => self.compiler.has_cached_tag_dispatch(*key),
            });
        }
        if let Some(existing) = state.by_key.get(&key) {
            if existing.pool.factory_key() == factory.factory_key() {
                return Arc::clone(existing);
            }
        }
        if matches!(key, PoolKey::Structural(_)) {
            let structural = state
                .by_key
                .keys()
                .filter(|k| matches!(k, PoolKey::Structural(_)))
                .count();
            if structural >= STRUCTURAL_POOL_CAP {
                state
                    .by_key
                    .retain(|k, _| !matches!(k, PoolKey::Structural(_)));
            }
        }
        let entry = Arc::new(XGrammarCompiled {
            pool: Arc::new(MatcherPool::new(factory)),
        });
        state.by_key.insert(key, Arc::clone(&entry));
        entry
    }

    /// Replaces the compiler's structural-tag dispatch cache with one using
    /// the given budget (builder-style; call before serving). Lets tests and
    /// memory-constrained deployments bound how many compiled tool
    /// registries stay resident.
    #[must_use]
    pub fn with_dispatch_cache_config(mut self, config: xg_core::TagDispatchCacheConfig) -> Self {
        self.compiler = self.compiler.with_dispatch_cache_config(config);
        self
    }

    /// Access to the underlying compiler (e.g. for preprocessing statistics).
    pub fn compiler(&self) -> &GrammarCompiler {
        &self.compiler
    }
}

impl ConstrainedBackend for XGrammarBackend {
    fn name(&self) -> &'static str {
        "XGrammar"
    }

    fn vocabulary(&self) -> &Arc<Vocabulary> {
        self.compiler.vocabulary()
    }

    fn compile(&self, grammar: &Grammar) -> Result<Arc<dyn CompiledConstraint>, BackendError> {
        let key = self.compiler.cache_key(grammar);
        // The checked path enforces the compiler's lint mode: in strict mode
        // a grammar with error-severity diagnostics (unsatisfiable root,
        // vocabulary dead states, …) is rejected here — at admission — rather
        // than wedging a decode lane later. The compiled artifact is cached
        // either way, so resubmissions fail fast.
        let compiled = self
            .compiler
            .compile_grammar_checked_with_key(key, grammar)
            .map_err(|e| BackendError::UnsupportedGrammar {
                backend: self.name(),
                reason: e.to_string(),
            })?;
        Ok(self.pool_for(PoolKey::Grammar(key), compiled) as Arc<dyn CompiledConstraint>)
    }

    fn compile_structural(
        &self,
        tag: &StructuralTag,
    ) -> Result<Arc<dyn CompiledConstraint>, BackendError> {
        // The per-trigger combined grammars run through the ordinary cached
        // compile path, so repeated tool schemas compile once per cache; the
        // dispatch build itself is memoized, so the factory key is stable per
        // tool registry and the pool below is shared across batches.
        let compiled = self.compiler.compile_tag_dispatch(tag).map_err(|e| {
            BackendError::UnsupportedGrammar {
                backend: self.name(),
                reason: e.to_string(),
            }
        })?;
        let key = PoolKey::Structural(ConstraintFactory::factory_key(&*compiled));
        Ok(self.pool_for(key, compiled) as Arc<dyn CompiledConstraint>)
    }

    fn update_structural(
        &self,
        current: &StructuralTag,
        delta: &DispatchDelta,
    ) -> Result<(StructuralTag, Arc<dyn CompiledConstraint>), BackendError> {
        let to_backend_error = |e: xg_grammar::GrammarError| BackendError::UnsupportedGrammar {
            backend: self.name(),
            reason: e.to_string(),
        };
        // `current` is a dispatch-cache hit whenever it has been served (or
        // updated to) before; a cold base costs one full compile, after
        // which the delta path recompiles only the touched trigger.
        let base = self
            .compiler
            .compile_tag_dispatch(current)
            .map_err(to_backend_error)?;
        let updated = self
            .compiler
            .update_tag_dispatch(&base, delta)
            .map_err(to_backend_error)?;
        let next = updated.source_tag().clone();
        let key = PoolKey::Structural(ConstraintFactory::factory_key(&*updated));
        Ok((
            next,
            self.pool_for(key, updated) as Arc<dyn CompiledConstraint>,
        ))
    }

    fn cache_stats(&self) -> Option<GrammarCacheStats> {
        // Per-backend counters: correct even when several backends share one
        // GrammarCache (the cache-wide counters would mix their traffic).
        Some(self.compiler.local_cache_stats())
    }

    fn is_cached(&self, grammar: &Grammar) -> bool {
        self.compiler
            .cache()
            .contains(&self.compiler.cache_key(grammar))
    }

    fn is_cached_structural(&self, tag: &StructuralTag) -> bool {
        self.compiler.has_cached_tag_dispatch_for(tag)
    }
}

/// A compiled constraint plus its pool of reusable matchers: sessions draw a
/// matcher on creation and return it when dropped, so lanes of successive
/// serving batches reuse matcher allocations — for grammar lanes and
/// tool-calling lanes alike.
#[derive(Debug)]
struct XGrammarCompiled {
    pool: Arc<MatcherPool>,
}

impl CompiledConstraint for XGrammarCompiled {
    fn new_session(&self) -> Session {
        Session::pooled(&self.pool)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{drive_session_bytes, small_vocab};
    use xg_core::TokenBitmask;

    #[test]
    fn xgrammar_backend_roundtrip() {
        let vocab = small_vocab();
        let backend = XGrammarBackend::new(Arc::clone(&vocab));
        let compiled = backend
            .compile(&xg_grammar::builtin::json_grammar())
            .unwrap();
        let mut session = compiled.new_session();
        assert!(drive_session_bytes(
            &vocab,
            &mut *session,
            br#"[1, {"k": "v"}]"#
        ));
        assert!(session.can_terminate());
        // EOS is accepted once the structure is complete.
        session.accept_token(vocab.eos().unwrap()).unwrap();
    }

    #[test]
    fn shared_cache_serves_multiple_backends() {
        use xg_core::{GrammarCache, GrammarCacheConfig};

        let vocab = small_vocab();
        let cache = Arc::new(GrammarCache::new(GrammarCacheConfig::default()));
        let a = XGrammarBackend::with_cache(
            Arc::clone(&vocab),
            CompilerConfig::default(),
            Arc::clone(&cache),
        );
        let b = XGrammarBackend::with_cache(
            Arc::clone(&vocab),
            CompilerConfig::default(),
            Arc::clone(&cache),
        );
        let grammar = xg_grammar::builtin::json_grammar();
        a.compile(&grammar).unwrap();
        b.compile(&grammar).unwrap(); // served from the shared cache
                                      // Per-backend counters: `a` compiled, `b` hit the shared entry.
        let stats_a = a
            .cache_stats()
            .expect("xgrammar backends expose cache stats");
        assert_eq!((stats_a.hits, stats_a.misses), (0, 1));
        let stats_b = b.cache_stats().unwrap();
        assert_eq!((stats_b.hits, stats_b.misses), (1, 0));
        // The cache-wide counters aggregate both backends.
        assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn repeated_compiles_share_one_matcher_pool() {
        // Successive batches call compile() again for the same grammar; the
        // sessions must draw from one pool so matchers actually recycle.
        let vocab = small_vocab();
        let backend = XGrammarBackend::new(Arc::clone(&vocab));
        let grammar = xg_grammar::parse_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root").unwrap();
        let first = backend.compile(&grammar).unwrap();
        {
            let mut session = first.new_session();
            assert!(drive_session_bytes(&vocab, &mut *session, b"[1]"));
        } // matcher returns to the pool
        let second = backend.compile(&grammar).unwrap();
        let mut session = second.new_session();
        assert!(drive_session_bytes(&vocab, &mut *session, b"[2]"));
        drop(session);
        let state = backend.pools.lock().unwrap();
        assert_eq!(state.by_key.len(), 1, "one pool per compiled grammar");
        let pool = &state.by_key.values().next().unwrap().pool;
        assert_eq!(
            pool.created(),
            1,
            "second batch must reuse the first matcher"
        );
        assert_eq!(pool.reused(), 1);
    }

    #[test]
    fn structural_sessions_recycle_matchers_through_one_pool() {
        use xg_grammar::{TagContent, TagSpec};

        let vocab = small_vocab();
        let backend = XGrammarBackend::new(Arc::clone(&vocab));
        let tag = StructuralTag::new(vec![TagSpec {
            begin: "<n>".into(),
            content: TagContent::Ebnf {
                text: "root ::= [0-9]+".into(),
                root: "root".into(),
            },
            end: "</n>".into(),
        }]);
        let first = backend.compile_structural(&tag).unwrap();
        {
            let mut session = first.new_session();
            assert!(drive_session_bytes(&vocab, &mut *session, b"a <n>1</n>"));
        } // matcher returns to the pool
          // A fresh compile of the same registry shares pool and matcher.
        let second = backend.compile_structural(&tag).unwrap();
        let mut session = second.new_session();
        assert!(drive_session_bytes(&vocab, &mut *session, b"b <n>2</n>"));
        drop(session);
        let state = backend.pools.lock().unwrap();
        assert_eq!(state.by_key.len(), 1, "one pool per tool registry");
        let pool = &state.by_key.values().next().unwrap().pool;
        assert_eq!(pool.created(), 1);
        assert_eq!(pool.reused(), 1);
    }

    #[test]
    fn sessions_recycle_matchers_through_the_pool() {
        let vocab = small_vocab();
        let backend = XGrammarBackend::new(Arc::clone(&vocab));
        let compiled = backend
            .compile(&xg_grammar::parse_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root").unwrap())
            .unwrap();
        {
            let mut first = compiled.new_session();
            assert!(drive_session_bytes(&vocab, &mut *first, b"[7]"));
        } // dropped -> matcher returns to the pool
          // The recycled matcher must start from scratch.
        let mut second = compiled.new_session();
        assert!(drive_session_bytes(&vocab, &mut *second, b"[12]"));
        assert!(second.can_terminate());
    }

    #[test]
    fn sessions_expose_jump_forward_and_raw_bytes() {
        let vocab = small_vocab();
        let backend = XGrammarBackend::new(Arc::clone(&vocab));
        let compiled = backend
            .compile(&xg_grammar::parse_ebnf(r#"root ::= "{\"id\": " [0-9]+ "}""#, "root").unwrap())
            .unwrap();
        let mut session = compiled.new_session();
        let jump = session.find_jump_forward_string();
        assert_eq!(jump, b"{\"id\": ".to_vec());
        // The re-tokenized view tiles the same bytes with real tokens.
        let sorted = xg_tokenizer::SortedVocabulary::new(&vocab);
        let run = session.find_jump_forward_tokens(&sorted);
        assert_eq!(run.bytes, jump);
        assert_eq!(run.covered, jump.len());
        let tiled: Vec<u8> = run
            .tokens
            .iter()
            .flat_map(|t| vocab.token_bytes(*t).to_vec())
            .collect();
        assert_eq!(tiled, jump);
        session.accept_bytes(&jump).unwrap();
        assert!(drive_session_bytes(&vocab, &mut *session, b"42}"));
        assert!(session.can_terminate());
        // Forced runs are rollback units: undo everything (the three sampled
        // bytes and the jump) and the same text is forced again.
        assert_eq!(session.rollback_window(), 4);
        session.rollback(4).unwrap();
        assert_eq!(session.find_jump_forward_string(), jump);
        assert!(
            session.rollback(100).is_err(),
            "over-rollback must be refused"
        );
        // Baseline sessions without jump-forward support report none (the
        // default), rather than forcing every backend to implement it.
        let naive = crate::NaivePdaBackend::new(Arc::clone(&vocab));
        let mut naive_session = naive
            .compile(&xg_grammar::builtin::json_grammar())
            .unwrap()
            .new_session();
        assert!(naive_session.find_jump_forward_string().is_empty());
        assert!(naive_session.accept_bytes(b"{").is_err());
    }

    #[test]
    fn evicted_grammars_do_not_stay_pinned_by_pools() {
        use xg_core::{GrammarCache, GrammarCacheConfig};

        // A one-entry cache: compiling a second grammar evicts the first, and
        // the backend must drop the evicted grammar's pool (which pins the
        // compiled grammar) instead of holding it forever.
        let vocab = small_vocab();
        let cache = Arc::new(GrammarCache::new(GrammarCacheConfig {
            max_bytes: usize::MAX,
            max_entries: 1,
        }));
        let backend = XGrammarBackend::with_cache(
            Arc::clone(&vocab),
            CompilerConfig::default(),
            Arc::clone(&cache),
        );
        let g1 = xg_grammar::parse_ebnf(r#"root ::= "a" [0-9]+"#, "root").unwrap();
        let g2 = xg_grammar::parse_ebnf(r#"root ::= "b" [0-9]+"#, "root").unwrap();
        backend.compile(&g1).unwrap();
        assert_eq!(backend.pools.lock().unwrap().by_key.len(), 1);
        backend.compile(&g2).unwrap(); // evicts g1 from the cache
        let state = backend.pools.lock().unwrap();
        assert_eq!(
            state.by_key.len(),
            1,
            "the evicted grammar's pool must be pruned"
        );
        assert!(state
            .by_key
            .contains_key(&PoolKey::Grammar(backend.compiler.cache_key(&g2))));
    }

    #[test]
    fn cache_clear_unpins_pools() {
        use xg_core::{GrammarCache, GrammarCacheConfig};

        let vocab = small_vocab();
        let cache = Arc::new(GrammarCache::new(GrammarCacheConfig::default()));
        let backend = XGrammarBackend::with_cache(
            Arc::clone(&vocab),
            CompilerConfig::default(),
            Arc::clone(&cache),
        );
        let g1 = xg_grammar::parse_ebnf(r#"root ::= "a" [0-9]+"#, "root").unwrap();
        let g2 = xg_grammar::parse_ebnf(r#"root ::= "b" [0-9]+"#, "root").unwrap();
        backend.compile(&g1).unwrap();
        cache.clear(); // counts as evictions, so the next compile prunes
        backend.compile(&g2).unwrap();
        let state = backend.pools.lock().unwrap();
        assert_eq!(
            state.by_key.len(),
            1,
            "cleared grammars must not stay pinned"
        );
        assert!(state
            .by_key
            .contains_key(&PoolKey::Grammar(backend.compiler.cache_key(&g2))));
    }

    #[test]
    fn update_structural_reuses_pools_and_prunes_evicted_registries() {
        use xg_core::TagDispatchCacheConfig;
        use xg_grammar::{TagContent, TagSpec};

        let spec = |name: &str| TagSpec {
            begin: format!("<{name}>"),
            content: TagContent::Ebnf {
                text: "root ::= [0-9]+".into(),
                root: "root".into(),
            },
            end: format!("</{name}>"),
        };
        let vocab = small_vocab();
        // One dispatch-cache slot: every registry version displaces the
        // previous one, so each update is also an eviction.
        let backend = XGrammarBackend::new(Arc::clone(&vocab)).with_dispatch_cache_config(
            TagDispatchCacheConfig {
                max_bytes: usize::MAX,
                max_entries: 1,
            },
        );
        let base = StructuralTag::new(vec![spec("a")]);
        backend.compile_structural(&base).unwrap();
        assert_eq!(backend.pools.lock().unwrap().by_key.len(), 1);
        // Add a tag: the new registry evicts the old from the one-slot
        // cache; the old registry's pool must be pruned on the next lookup
        // even though no *grammar* was evicted.
        let (next, compiled) = backend
            .update_structural(&base, &DispatchDelta::AddTag(spec("b")))
            .unwrap();
        assert_eq!(next.tags.len(), 2);
        {
            let mut session = compiled.new_session();
            assert!(drive_session_bytes(&vocab, &mut *session, b"x <b>7</b>"));
        }
        let state = backend.pools.lock().unwrap();
        assert_eq!(
            state.by_key.len(),
            1,
            "the evicted base registry's pool must not stay pinned"
        );
        drop(state);
        // Removing a tag that is not present is a delta validation error
        // surfaced through the backend error type.
        assert!(matches!(
            backend.update_structural(
                &next,
                &DispatchDelta::RemoveTag {
                    begin: "<missing>".into()
                }
            ),
            Err(BackendError::UnsupportedGrammar { .. })
        ));
    }

    #[test]
    fn structural_tags_compile_and_constrain_only_tagged_segments() {
        use xg_grammar::{TagContent, TagSpec};

        let vocab = small_vocab();
        let backend = XGrammarBackend::new(Arc::clone(&vocab));
        let tag = StructuralTag::new(vec![TagSpec {
            begin: "<n>".into(),
            content: TagContent::Ebnf {
                text: "root ::= [0-9]+".into(),
                root: "root".into(),
            },
            end: "</n>".into(),
        }]);
        let compiled = backend.compile_structural(&tag).unwrap();
        let mut session = compiled.new_session();
        // Free prose, then a constrained tagged segment, then prose again.
        assert!(drive_session_bytes(
            &vocab,
            &mut *session,
            b"hi <n>42</n> bye"
        ));
        assert!(session.can_terminate());
        session.accept_token(vocab.eos().unwrap()).unwrap();
        // A baseline backend reports structural tags as unsupported.
        let naive = crate::NaivePdaBackend::new(Arc::clone(&vocab));
        assert!(matches!(
            naive.compile_structural(&tag),
            Err(BackendError::UnsupportedGrammar { .. })
        ));
    }

    #[test]
    fn sessions_expose_speculative_and_batched_mask_paths() {
        let vocab = small_vocab();
        let backend = XGrammarBackend::new(Arc::clone(&vocab));
        let compiled = backend
            .compile(&xg_grammar::parse_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root").unwrap())
            .unwrap();
        let token = |bytes: &[u8]| {
            vocab
                .iter()
                .find(|(_, t)| *t == bytes)
                .map(|(id, _)| id)
                .expect("token in vocabulary")
        };
        // One-call draft verification: "[12]" is valid, "x" is not.
        let draft = [
            token(b"["),
            token(b"1"),
            token(b"2"),
            token(b"]"),
            token(b"x"),
        ];
        let mut session = compiled.new_session();
        assert_eq!(session.accept_tokens_speculative(&draft), 4);
        assert!(session.can_terminate());
        // Each draft token is one rollback unit.
        assert_eq!(session.rollback_window(), 4);
        session.rollback(4).unwrap();
        // Two fresh sessions share a batch key; the base-completed mask
        // matches the full fill bit for bit.
        let mut a = compiled.new_session();
        let mut b = compiled.new_session();
        assert!(a.mask_batch_key().is_some());
        assert_eq!(a.mask_batch_key(), b.mask_batch_key());
        let mut base = TokenBitmask::new_all_rejected(vocab.len());
        assert!(a.fill_mask_base(&mut base));
        let mut from_base = TokenBitmask::new_all_rejected(vocab.len());
        b.fill_next_token_bitmask_from_base(&mut from_base, &base);
        let mut full = TokenBitmask::new_all_rejected(vocab.len());
        a.fill_next_token_bitmask(&mut full);
        assert_eq!(from_base, full);
        // Baseline sessions opt out of batching but keep the speculative
        // default (per-token loop).
        let naive = crate::NaivePdaBackend::new(Arc::clone(&vocab));
        let mut naive_session = naive
            .compile(&xg_grammar::parse_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root").unwrap())
            .unwrap()
            .new_session();
        assert_eq!(naive_session.mask_batch_key(), None);
        assert_eq!(naive_session.accept_tokens_speculative(&draft), 4);
    }

    #[test]
    fn ablation_configs_produce_working_backends() {
        let vocab = small_vocab();
        for config in [CompilerConfig::baseline(), CompilerConfig::default()] {
            let backend = XGrammarBackend::with_config(Arc::clone(&vocab), config);
            let compiled = backend
                .compile(&xg_grammar::parse_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root").unwrap())
                .unwrap();
            let mut session = compiled.new_session();
            assert!(drive_session_bytes(&vocab, &mut *session, b"[12]"));
            assert!(session.can_terminate());
        }
    }
}
