//! Adapter exposing the `xg-core` engine through the common backend
//! interface, so the benchmark harness and the serving engine can swap it
//! against the baselines.
//!
//! Every compiled constraint — fully-constrained grammar or structural-tag
//! dispatch — is the cached artifact itself (`xg_core::ArtifactCache` shares
//! it between repeated `compile()` / `compile_structural()` calls): a
//! `CompiledGrammar` or `CompiledTagDispatch`, each implementing
//! `xg_core::CompiledConstraint`, so each [`Session`](crate::Session) is a
//! matcher built fresh from it. The backend keeps no state of its own beside
//! the compiler. The only per-kind code is the constraint *construction*
//! (which compile entry point to call); masks, token acceptance,
//! jump-forward and termination are the matcher's own trait methods.

use std::sync::Arc;

use xg_core::{
    CacheBudget, CacheStats, CompiledConstraint, CompilerConfig, GrammarCache, GrammarCompiler,
};
use xg_grammar::{DispatchDelta, Grammar, GrammarError, StructuralTag};
use xg_tokenizer::Vocabulary;

use crate::{BackendError, ConstrainedBackend};

/// The XGrammar engine behind the common backend interface.
#[derive(Debug)]
pub struct XGrammarBackend {
    compiler: GrammarCompiler,
}

impl XGrammarBackend {
    /// Creates the backend with the default (fully optimized) configuration.
    pub fn new(vocab: Arc<Vocabulary>) -> Self {
        Self::with_config(vocab, CompilerConfig::default())
    }

    /// Creates the backend under one of Table 3's rows (the ablation study).
    pub fn with_config(vocab: Arc<Vocabulary>, config: CompilerConfig) -> Self {
        XGrammarBackend {
            compiler: GrammarCompiler::with_config(vocab, config),
        }
    }

    /// Creates the backend on top of a shared [`GrammarCache`], so several
    /// backends / serving engines draw compiled grammars from one budgeted,
    /// compile-once cache.
    pub fn with_cache(
        vocab: Arc<Vocabulary>,
        config: CompilerConfig,
        cache: Arc<GrammarCache>,
    ) -> Self {
        XGrammarBackend {
            compiler: GrammarCompiler::with_cache(vocab, config, cache),
        }
    }

    /// Replaces the compiler's structural-tag dispatch cache with one using
    /// the given budget (builder-style; call before serving). Lets tests and
    /// memory-constrained deployments bound how many compiled tool
    /// registries stay resident.
    #[must_use]
    pub fn with_dispatch_cache_config(mut self, budget: CacheBudget) -> Self {
        self.compiler = self.compiler.with_dispatch_cache_config(budget);
        self
    }

    /// Access to the underlying compiler (e.g. for preprocessing statistics).
    pub fn compiler(&self) -> &GrammarCompiler {
        &self.compiler
    }

    fn unsupported(&self, e: GrammarError) -> BackendError {
        BackendError::UnsupportedGrammar {
            backend: self.name(),
            reason: e.to_string(),
        }
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
        // The checked path refuses a grammar whose root derives no string
        // here, at admission, rather than forcing a decode lane to its token
        // limit later. The verdict is cached with the compiled grammar, so
        // resubmissions fail fast.
        let compiled = self.compiler.compile_grammar_checked(grammar);
        Ok(compiled.map_err(|e| self.unsupported(e))?)
    }

    fn compile_structural(
        &self,
        tag: &StructuralTag,
    ) -> Result<Arc<dyn CompiledConstraint>, BackendError> {
        // The per-trigger combined grammars run through the ordinary cached
        // compile path, so repeated tool schemas compile once per cache; the
        // dispatch build itself is cached, so every batch serving this tool
        // registry shares one compiled dispatch.
        let compiled = self.compiler.compile_tag_dispatch(tag);
        Ok(compiled.map_err(|e| self.unsupported(e))?)
    }

    fn update_structural(
        &self,
        current: &StructuralTag,
        delta: &DispatchDelta,
    ) -> Result<(StructuralTag, Arc<dyn CompiledConstraint>), BackendError> {
        // `current` is a dispatch-cache hit whenever it has been served (or
        // updated to) before; a cold base costs one full compile, after
        // which the delta path recompiles only the touched trigger.
        let updated = self
            .compiler
            .compile_tag_dispatch(current)
            .and_then(|base| self.compiler.update_tag_dispatch(&base, delta))
            .map_err(|e| self.unsupported(e))?;
        let next = updated.source_tag().clone();
        Ok((next, updated))
    }

    fn cache_stats(&self) -> Option<CacheStats> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{drive_session_bytes, small_vocab};
    use std::sync::Weak;
    use xg_core::CompiledTagDispatch;

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
        let vocab = small_vocab();
        let cache = Arc::new(GrammarCache::new(CacheBudget::for_grammars()));
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

    fn number_tag(name: &str) -> xg_grammar::TagSpec {
        xg_grammar::TagSpec {
            begin: format!("<{name}>"),
            content: xg_grammar::TagContent::Ebnf {
                text: "root ::= [0-9]+".into(),
                root: "root".into(),
            },
            end: format!("</{name}>"),
        }
    }

    /// The compiled registry in `tag`'s dispatch-cache slot.
    fn registry(backend: &XGrammarBackend, tag: &StructuralTag) -> Arc<CompiledTagDispatch> {
        backend.compiler.compile_tag_dispatch(tag).unwrap()
    }

    #[test]
    fn repeated_compiles_share_one_artifact() {
        // Successive batches call compile() again for the same grammar; the
        // second is served from the cache, and both batches' sessions decode.
        let vocab = small_vocab();
        let backend = XGrammarBackend::new(Arc::clone(&vocab));
        let grammar = xg_grammar::parse_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root").unwrap();
        let first = backend.compile(&grammar).unwrap();
        let mut session = first.new_session();
        assert!(drive_session_bytes(&vocab, &mut *session, b"[1]"));
        let second = backend.compile(&grammar).unwrap();
        let mut session = second.new_session();
        assert!(drive_session_bytes(&vocab, &mut *session, b"[2]"));
        let stats = backend.cache_stats().unwrap();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn a_recompiled_registry_is_a_dispatch_cache_hit() {
        let vocab = small_vocab();
        let backend = XGrammarBackend::new(Arc::clone(&vocab));
        let tag = StructuralTag::new(vec![number_tag("n")]);
        let first = backend.compile_structural(&tag).unwrap();
        let mut session = first.new_session();
        assert!(drive_session_bytes(&vocab, &mut *session, b"a <n>1</n>"));
        // A fresh compile of the same registry is a dispatch-cache hit.
        let second = backend.compile_structural(&tag).unwrap();
        let mut session = second.new_session();
        assert!(drive_session_bytes(&vocab, &mut *session, b"b <n>2</n>"));
        let stats = backend.compiler.dispatch_cache().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn a_dispatch_budget_over_64_entries_keeps_the_first_registry() {
        // A dispatch budget above 64 entries: no registry is evicted, so the
        // first stays the one compiled artifact.
        let vocab = small_vocab();
        let backend =
            XGrammarBackend::new(Arc::clone(&vocab)).with_dispatch_cache_config(CacheBudget {
                max_bytes: usize::MAX,
                max_entries: 128,
            });
        let tag = |i: usize| StructuralTag::new(vec![number_tag(&format!("t{i}"))]);
        let compiled = backend.compile_structural(&tag(1)).unwrap();
        drop(compiled.new_session());
        let first = registry(&backend, &tag(1));
        for i in 2..=65 {
            backend.compile_structural(&tag(i)).unwrap();
        }
        let again = backend.compile_structural(&tag(1)).unwrap();
        drop(again.new_session());
        assert!(Arc::ptr_eq(&first, &registry(&backend, &tag(1))));
        assert_eq!(backend.compiler.dispatch_cache().stats().evictions, 0);
    }

    #[test]
    fn each_session_of_a_constraint_starts_from_scratch() {
        let vocab = small_vocab();
        let backend = XGrammarBackend::new(Arc::clone(&vocab));
        let compiled = backend
            .compile(&xg_grammar::parse_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root").unwrap())
            .unwrap();
        let mut first = Arc::clone(&compiled).new_session();
        assert!(drive_session_bytes(&vocab, &mut *first, b"[7]"));
        // The next session of the same constraint starts from scratch.
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
        // Its longest-prefix cover, what the serving lane injects, tiles the
        // same bytes with real tokens.
        let (cover, covered) = vocab.sorted().longest_prefix_cover(&vocab, &jump);
        assert_eq!(covered, jump.len());
        let tiled: Vec<u8> = cover
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

    /// `session` was opened before its artifact left the cache: it must still
    /// decode `text`, after which nothing pins the artifact any more.
    fn assert_unpinned_once_dropped<V>(
        vocab: &Vocabulary,
        mut session: crate::Session,
        text: &[u8],
        artifact: Weak<V>,
    ) {
        assert!(
            artifact.upgrade().is_some(),
            "the open session holds the artifact"
        );
        assert!(drive_session_bytes(vocab, &mut *session, text));
        drop(session);
        assert!(
            artifact.upgrade().is_none(),
            "evicted artifact must not stay pinned"
        );
    }

    fn two_grammars() -> (Grammar, Grammar) {
        let g = |src| xg_grammar::parse_ebnf(src, "root").unwrap();
        (g(r#"root ::= "a" [0-9]+"#), g(r#"root ::= "b" [0-9]+"#))
    }

    #[test]
    fn an_evicted_grammar_lives_only_as_long_as_its_session() {
        // A one-entry cache: compiling a second grammar evicts the first, which
        // then lives only as long as the session opened on it.
        let vocab = small_vocab();
        let cache = Arc::new(GrammarCache::new(CacheBudget {
            max_bytes: usize::MAX,
            max_entries: 1,
        }));
        let backend = XGrammarBackend::with_cache(
            Arc::clone(&vocab),
            CompilerConfig::default(),
            Arc::clone(&cache),
        );
        let (g1, g2) = two_grammars();
        let session = backend.compile(&g1).unwrap().new_session();
        let artifact = Arc::downgrade(&backend.compiler.compile_grammar(&g1));
        backend.compile(&g2).unwrap(); // evicts g1 from the cache
        assert!(!backend.is_cached(&g1) && backend.is_cached(&g2));
        assert_unpinned_once_dropped(&vocab, session, b"a7", artifact);
    }

    #[test]
    fn cache_clear_leaves_a_grammar_alive_only_through_its_session() {
        let vocab = small_vocab();
        let cache = Arc::new(GrammarCache::new(CacheBudget::for_grammars()));
        let backend = XGrammarBackend::with_cache(
            Arc::clone(&vocab),
            CompilerConfig::default(),
            Arc::clone(&cache),
        );
        let (g1, g2) = two_grammars();
        let session = backend.compile(&g1).unwrap().new_session();
        let artifact = Arc::downgrade(&backend.compiler.compile_grammar(&g1));
        cache.clear();
        backend.compile(&g2).unwrap();
        assert!(!backend.is_cached(&g1) && backend.is_cached(&g2));
        assert_unpinned_once_dropped(&vocab, session, b"a7", artifact);
    }

    #[test]
    fn update_structural_hands_out_the_new_registry_and_unpins_the_evicted_one() {
        let vocab = small_vocab();
        // One dispatch-cache slot: every registry version displaces the
        // previous one, so each update is also an eviction.
        let backend =
            XGrammarBackend::new(Arc::clone(&vocab)).with_dispatch_cache_config(CacheBudget {
                max_bytes: usize::MAX,
                max_entries: 1,
            });
        let base = StructuralTag::new(vec![number_tag("a")]);
        let base_session = backend.compile_structural(&base).unwrap().new_session();
        let base_artifact = Arc::downgrade(&registry(&backend, &base));
        // Add a tag: the new registry evicts the old from the one-slot
        // cache, and the old registry is freed with its last session even
        // though no *grammar* was evicted.
        let (next, compiled) = backend
            .update_structural(&base, &DispatchDelta::AddTag(number_tag("b")))
            .unwrap();
        assert_eq!(next.tags.len(), 2);
        assert!(!backend.is_cached_structural(&base) && backend.is_cached_structural(&next));
        let mut session = compiled.new_session();
        assert!(drive_session_bytes(&vocab, &mut *session, b"x <b>7</b>"));
        assert_unpinned_once_dropped(&vocab, base_session, b"y <a>1</a>", base_artifact);
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
        let vocab = small_vocab();
        let backend = XGrammarBackend::new(Arc::clone(&vocab));
        let tag = StructuralTag::new(vec![number_tag("n")]);
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
    fn ablation_configs_produce_working_backends() {
        let vocab = small_vocab();
        for config in CompilerConfig::ROWS {
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
