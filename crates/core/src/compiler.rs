//! Grammar compilation: grammar + tokenizer info → [`CompiledGrammar`].
//!
//! Compilation runs the preprocessing pipeline of the paper: PDA construction
//! with structure optimizations (§3.4) and expanded-suffix extraction (§3.2).
//! The adaptive token mask cache (§3.1) is built one node at a time, by the
//! first mask fill that reads the node, so a request pays for the entries its
//! stacks rest on, under its decode. The result is shared (`Arc`) between any
//! number of [`GrammarMatcher`](crate::GrammarMatcher)s, mirroring how one
//! compiled grammar serves many concurrent requests in a serving engine; an
//! entry one of them builds serves them all.
//!
//! [`GrammarCompiler`] additionally caches compiled grammars (in a shareable
//! [`GrammarCache`]) and whole compiled tool registries (in its own
//! [`TagDispatchCache`](crate::TagDispatchCache)), since serving workloads
//! reuse a small set of schemas across many requests. Both are the same
//! [`ArtifactCache`](crate::ArtifactCache) type.

use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use xg_automata::{
    build_pda, extract_all_suffix_fsas, NodeId, Pda, PdaBuildOptions, SuffixAutomaton,
};
use xg_grammar::{analyze, Diagnostic, DiagnosticCode, Grammar, GrammarError};
use xg_tokenizer::Vocabulary;

use crate::constraint::{CompiledConstraint, ConstraintMatcher};
use crate::grammar_cache::{
    CacheBudget, CacheStats, GrammarCache, GrammarCacheKey, TagDispatchCache,
};
use crate::mask_cache::{EntrySource, MaskCache, MaskCacheStats, NodeMaskEntry};
use crate::matcher::GrammarMatcher;

/// The compiler's configuration: one row of the paper's Table 3. Each row
/// adds one preprocessing optimisation to the row before it, so the order of
/// the variants is the order of the rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum CompilerConfig {
    /// The unoptimised pushdown automaton; every token is checked against
    /// the stacks at run time.
    PdaBaseline,
    /// Adds merging of equivalent automaton nodes (§3.4).
    NodeMerging,
    /// Adds the adaptive token mask cache (§3.1).
    MaskCache,
    /// Adds inlining of fragment rules into their parents (§3.4).
    RuleInlining,
    /// Adds context expansion, which shrinks the context-dependent sets
    /// (§3.2): every optimisation, the default.
    #[default]
    ContextExpansion,
}

impl CompilerConfig {
    /// The five rows, in Table 3's order.
    pub const ROWS: [CompilerConfig; 5] = [
        CompilerConfig::PdaBaseline,
        CompilerConfig::NodeMerging,
        CompilerConfig::MaskCache,
        CompilerConfig::RuleInlining,
        CompilerConfig::ContextExpansion,
    ];

    /// Whether grammars compiled under this row have a mask cache.
    pub(crate) fn mask_cache(self) -> bool {
        self >= CompilerConfig::MaskCache
    }

    fn pda_options(self) -> PdaBuildOptions {
        PdaBuildOptions {
            inline_rules: self >= CompilerConfig::RuleInlining,
            merge_nodes: self >= CompilerConfig::NodeMerging,
        }
    }
}

/// A grammar compiled against a specific vocabulary, ready to instantiate
/// matchers.
///
/// The compile builds the automata and checks that the root derives a
/// string; the mask cache's entries are built on first read (see
/// [`entry`](Self::entry)), so a request pays for the nodes its stacks rest
/// on, under its decode, and not for every node before its first token.
#[derive(Debug)]
pub struct CompiledGrammar {
    pda: Pda,
    vocab: Arc<Vocabulary>,
    mask_cache: Option<MaskCache>,
    suffixes: SuffixAutomaton,
    config: CompilerConfig,
    /// The [`DiagnosticCode::UnsatisfiableGrammar`] finding when the root
    /// derives no string: the checked compile refuses such a grammar.
    unsatisfiable: Option<Diagnostic>,
}

impl CompiledGrammar {
    /// Compiles `grammar` against `vocab` with the given configuration.
    ///
    /// No mask-cache entry is built here; the entries read the vocabulary's
    /// one [sorted index](Vocabulary::sorted).
    pub fn compile(
        grammar: &Grammar,
        vocab: Arc<Vocabulary>,
        config: &CompilerConfig,
    ) -> CompiledGrammar {
        let pda = build_pda(grammar, &config.pda_options());
        let suffixes = extract_all_suffix_fsas(&pda);
        let unsatisfiable = analyze(grammar)
            .diagnostics
            .into_iter()
            .find(|d| d.code == DiagnosticCode::UnsatisfiableGrammar);
        let mut compiled = CompiledGrammar {
            pda,
            vocab,
            mask_cache: None,
            suffixes,
            config: *config,
            unsatisfiable,
        };
        if config.mask_cache() {
            compiled.mask_cache = Some(MaskCache::new(&compiled.entry_source()));
        }
        compiled
    }

    /// What this grammar's mask-cache entries are built from.
    fn entry_source(&self) -> EntrySource<'_> {
        EntrySource {
            pda: &self.pda,
            vocab: &self.vocab,
            sorted: self.vocab.sorted(),
            suffixes: Some(&self.suffixes)
                .filter(|_| self.config == CompilerConfig::ContextExpansion),
        }
    }

    /// The compiled pushdown automaton.
    pub fn pda(&self) -> &Pda {
        &self.pda
    }

    /// The vocabulary this grammar was compiled against.
    pub fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    /// The adaptive token mask cache entry of `node`, built on its first
    /// read. Every entry is the one [`build_mask_cache`](crate::build_mask_cache)
    /// builds; threads reading an unbuilt entry at once build it once.
    ///
    /// # Panics
    ///
    /// Panics if the grammar was compiled under a row without the mask cache
    /// (before [`CompilerConfig::MaskCache`]) or `node` is out of range.
    #[inline]
    pub fn entry(&self, node: NodeId) -> &NodeMaskEntry {
        let cache = self
            .mask_cache
            .as_ref()
            .expect("compiled with a mask cache");
        cache.get_or_build(&self.entry_source(), node)
    }

    /// Number of mask-cache entries built so far (0 without the cache).
    pub fn built_entries(&self) -> usize {
        self.mask_cache.as_ref().map_or(0, MaskCache::built_entries)
    }

    /// The row this grammar was compiled under.
    pub(crate) fn config(&self) -> CompilerConfig {
        self.config
    }

    /// The refusal of a grammar whose root derives no string, `None` for a
    /// servable one.
    pub(crate) fn refusal(&self) -> Option<&Diagnostic> {
        self.unsatisfiable.as_ref()
    }

    /// Preprocessing statistics over the whole mask cache (empty default when
    /// it is disabled). Builds every entry not built yet, on the available
    /// parallelism.
    pub fn stats(&self) -> MaskCacheStats {
        let Some(cache) = &self.mask_cache else {
            return MaskCacheStats::default();
        };
        cache.complete_from(&self.entry_source(), 0);
        cache.stats()
    }
}

impl CompiledConstraint for CompiledGrammar {
    fn new_session(self: Arc<Self>) -> Box<dyn ConstraintMatcher> {
        Box::new(GrammarMatcher::new(self))
    }

    /// The automata and the mask-cache entries built so far (the per-node
    /// [`NodeMaskEntry::memory_bytes`]), which grows as requests read
    /// entries. The sorted vocabulary index is the vocabulary's, not the
    /// grammar's, and is not charged.
    fn memory_bytes(&self) -> usize {
        let mask_cache = self.mask_cache.as_ref().map_or(0, MaskCache::built_bytes);
        mask_cache + self.pda.memory_bytes() + self.suffixes.fsa().memory_bytes()
    }
}

/// A caching grammar compiler bound to one vocabulary.
///
/// Every grammar it compiles reads the vocabulary's one sorted index
/// ([`Vocabulary::sorted`]), and its cache keys the vocabulary's one
/// [`Vocabulary::fingerprint`]: both are held by the vocabulary, so any
/// number of compilers over one `Arc<Vocabulary>` sort and hash it once.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use xg_core::GrammarCompiler;
/// use xg_tokenizer::test_vocabulary;
///
/// let compiler = GrammarCompiler::new(Arc::new(test_vocabulary(600)));
/// let grammar = xg_grammar::parse_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root").unwrap();
/// let compiled = compiler.compile_grammar(&grammar);
/// let again = compiler.compile_grammar(&grammar);
/// assert!(Arc::ptr_eq(&compiled, &again)); // served from the cache
/// ```
#[derive(Debug)]
pub struct GrammarCompiler {
    vocab: Arc<Vocabulary>,
    config: CompilerConfig,
    cache: Arc<GrammarCache>,
    /// Hits/misses attributable to *this* compiler. The cache's own counters
    /// aggregate over every compiler sharing it, so per-compiler reporting
    /// (e.g. per-batch serving metrics) must not be derived from them.
    local_hits: AtomicU64,
    local_misses: AtomicU64,
    /// Cached structural-tag compilations (the combined-grammar *builds*;
    /// the grammars themselves live in the shared [`GrammarCache`]). A
    /// byte-budgeted LRU, not an unbounded memo: churning tool registries
    /// evict old dispatches instead of leaking them. See
    /// [`compile_tag_dispatch`](Self::compile_tag_dispatch).
    dispatch_cache: TagDispatchCache,
}

impl GrammarCompiler {
    /// Creates a compiler with the default configuration and a private,
    /// unbounded memoization cache.
    pub fn new(vocab: Arc<Vocabulary>) -> Self {
        Self::with_config(vocab, CompilerConfig::default())
    }

    /// Creates a compiler with an explicit configuration and a private,
    /// unbounded memoization cache.
    pub fn with_config(vocab: Arc<Vocabulary>, config: CompilerConfig) -> Self {
        Self::with_cache(
            vocab,
            config,
            Arc::new(GrammarCache::new(CacheBudget::unbounded())),
        )
    }

    /// Creates a compiler backed by a shared [`GrammarCache`]. Several
    /// compilers (even ones bound to different vocabularies or
    /// configurations — both participate in the cache key) can share one
    /// cache, giving a serving process a single budgeted pool of compiled
    /// grammars with compile-once semantics under concurrent requests.
    pub fn with_cache(
        vocab: Arc<Vocabulary>,
        config: CompilerConfig,
        cache: Arc<GrammarCache>,
    ) -> Self {
        GrammarCompiler {
            vocab,
            config,
            cache,
            local_hits: AtomicU64::new(0),
            local_misses: AtomicU64::new(0),
            dispatch_cache: TagDispatchCache::new(CacheBudget::for_dispatches()),
        }
    }

    /// Replaces this compiler's structural-tag dispatch cache with one using
    /// the given budget. Builder-style; call before the compiler is shared.
    #[must_use]
    pub fn with_dispatch_cache_config(mut self, budget: CacheBudget) -> Self {
        self.dispatch_cache = TagDispatchCache::new(budget);
        self
    }

    /// The structural-tag dispatch cache: compiled [`CompiledTagDispatch`]es
    /// keyed by their full registry description, LRU-evicted under a byte
    /// budget. Exposes hit/miss/eviction statistics.
    ///
    /// [`CompiledTagDispatch`]: crate::CompiledTagDispatch
    pub fn dispatch_cache(&self) -> &TagDispatchCache {
        &self.dispatch_cache
    }

    /// The vocabulary this compiler is bound to.
    pub fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    /// The compiled-grammar cache backing this compiler (private unless the
    /// compiler was built with [`with_cache`](Self::with_cache)).
    pub fn cache(&self) -> &Arc<GrammarCache> {
        &self.cache
    }

    /// The cache key this compiler uses for `grammar` (its vocabulary and
    /// configuration are baked in), e.g. to probe
    /// [`cache().contains(..)`](crate::ArtifactCache::contains).
    pub fn cache_key(&self, grammar: &Grammar) -> GrammarCacheKey {
        GrammarCacheKey::new(grammar, self.vocab.fingerprint(), &self.config)
    }

    /// Compiles a grammar, reusing a previously compiled instance when the
    /// same grammar (and vocabulary and configuration) was compiled before.
    /// Concurrent calls for the same uncached grammar compile it exactly
    /// once; the losers of the race block and share the winner's result.
    /// The lookup counts towards this compiler's
    /// [`local_cache_stats`](Self::local_cache_stats).
    pub fn compile_grammar(&self, grammar: &Grammar) -> Arc<CompiledGrammar> {
        let compile = || {
            Ok(CompiledGrammar::compile(
                grammar,
                Arc::clone(&self.vocab),
                &self.config,
            ))
        };
        let Ok((compiled, built)): Result<_, Infallible> = self
            .cache
            .get_or_try_build(&self.cache_key(grammar), compile);
        let counter = if built {
            &self.local_misses
        } else {
            &self.local_hits
        };
        counter.fetch_add(1, Ordering::Relaxed);
        compiled
    }

    /// Like [`compile_grammar`](Self::compile_grammar), but refusing a
    /// grammar whose root derives no string: a lane under it could only be
    /// forced until its token limit. This is the served path. No other
    /// finding of [`xg_grammar::analyze`] refuses; a nullable repetition,
    /// say, still matches its language.
    ///
    /// The verdict is taken once, as the grammar compiles, and cached with
    /// it, so repeated submissions of a refused grammar fail fast from the
    /// cache.
    ///
    /// # Errors
    ///
    /// Returns [`GrammarError::Lint`] carrying the
    /// [`DiagnosticCode::UnsatisfiableGrammar`] finding.
    pub fn compile_grammar_checked(
        &self,
        grammar: &Grammar,
    ) -> Result<Arc<CompiledGrammar>, GrammarError> {
        let compiled = self.compile_grammar(grammar);
        if let Some(refusal) = compiled.refusal() {
            return Err(GrammarError::Lint {
                diagnostics: vec![refusal.clone()],
            });
        }
        Ok(compiled)
    }

    /// Cache counters from *this compiler's* point of view: `hits`/`misses`
    /// count only this compiler's requests (meaningful even when the backing
    /// [`GrammarCache`] is shared), while the `evictions`/`current_bytes`/
    /// `entries` gauges describe the whole backing cache.
    pub fn local_cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.local_hits.load(Ordering::Relaxed),
            misses: self.local_misses.load(Ordering::Relaxed),
            ..self.cache.stats()
        }
    }

    /// Parses and compiles a GBNF-style EBNF grammar text.
    ///
    /// # Errors
    ///
    /// Returns the parse/validation error of [`xg_grammar::parse_ebnf`], or
    /// [`GrammarError::Lint`] for a grammar whose root derives no string.
    pub fn compile_ebnf(
        &self,
        text: &str,
        root: &str,
    ) -> Result<Arc<CompiledGrammar>, GrammarError> {
        let grammar = xg_grammar::parse_ebnf(text, root)?;
        self.compile_grammar_checked(&grammar)
    }

    /// Converts and compiles a JSON Schema.
    ///
    /// # Errors
    ///
    /// Returns the conversion error of [`xg_grammar::json_schema_to_grammar`],
    /// or [`GrammarError::Lint`] for a schema that admits no instance.
    pub fn compile_json_schema(
        &self,
        schema: &serde_json::Value,
    ) -> Result<Arc<CompiledGrammar>, GrammarError> {
        let grammar = xg_grammar::json_schema_to_grammar(schema)?;
        self.compile_grammar_checked(&grammar)
    }

    /// Compiles the built-in unconstrained JSON grammar (ECMA-404).
    pub fn compile_builtin_json(&self) -> Arc<CompiledGrammar> {
        self.compile_grammar(&xg_grammar::builtin::json_grammar())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xg_tokenizer::test_vocabulary;

    fn compiler() -> GrammarCompiler {
        GrammarCompiler::new(Arc::new(test_vocabulary(800)))
    }

    #[test]
    fn compile_ebnf_and_cache() {
        let c = compiler();
        let a = c
            .compile_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root")
            .unwrap();
        let b = c
            .compile_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root")
            .unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(c.cache().len(), 1);
        let other = c.compile_ebnf(r#"root ::= "x""#, "root").unwrap();
        assert!(!Arc::ptr_eq(&a, &other));
        assert_eq!(c.cache().len(), 2);
    }

    #[test]
    fn compile_json_schema() {
        let c = compiler();
        let schema = serde_json::json!({
            "type": "object",
            "properties": {"name": {"type": "string"}},
            "required": ["name"]
        });
        let compiled = c.compile_json_schema(&schema).unwrap();
        assert_eq!(compiled.built_entries(), 0);
        assert!(compiled.stats().nodes > 0);
        assert_eq!(compiled.built_entries(), compiled.pda().node_count());
    }

    #[test]
    fn baseline_config_skips_mask_cache() {
        let c = GrammarCompiler::with_config(
            Arc::new(test_vocabulary(600)),
            CompilerConfig::PdaBaseline,
        );
        let compiled = c
            .compile_ebnf(r#"root ::= "[" [a-z]* "]""#, "root")
            .unwrap();
        assert_eq!(compiled.stats(), MaskCacheStats::default());
        assert_eq!(compiled.built_entries(), 0);
    }

    #[test]
    fn invalid_grammar_propagates_error() {
        let c = compiler();
        assert!(c.compile_ebnf(r#"root ::= missing"#, "root").is_err());
        assert!(c.compile_json_schema(&serde_json::json!(false)).is_err());
    }

    #[test]
    fn tag_dispatch_cache_membership_is_queryable() {
        use xg_grammar::{StructuralTag, TagContent, TagSpec};
        let c = compiler();
        let tag = StructuralTag::new(vec![TagSpec {
            begin: "<n>".into(),
            content: TagContent::Ebnf {
                text: "root ::= [0-9]+".into(),
                root: "root".into(),
            },
            end: "</n>".into(),
        }]);
        assert!(!c.has_cached_tag_dispatch_for(&tag));
        c.compile_tag_dispatch(&tag).unwrap();
        assert!(c.has_cached_tag_dispatch_for(&tag));
    }

    #[test]
    fn every_compile_shares_the_compilers_one_sorted_index() {
        use xg_grammar::{DispatchDelta, StructuralTag, TagContent, TagSpec};
        let c = compiler();
        let shared = |compiled: &CompiledGrammar| {
            Arc::ptr_eq(compiled.vocabulary(), c.vocabulary())
                && Arc::ptr_eq(compiled.vocabulary().sorted(), c.vocabulary().sorted())
        };
        let a = c
            .compile_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root")
            .unwrap();
        let b = c.compile_builtin_json();
        assert!(shared(&a) && shared(&b));

        let number = |begin: &str| TagSpec {
            begin: begin.into(),
            content: TagContent::Ebnf {
                text: "root ::= [0-9]+".into(),
                root: "root".into(),
            },
            end: "</n>".into(),
        };
        let dispatch = c
            .compile_tag_dispatch(&StructuralTag::new(vec![number("<n>")]))
            .unwrap();
        let updated = c
            .update_tag_dispatch(&dispatch, &DispatchDelta::AddTag(number("<m>")))
            .unwrap();
        assert_eq!(updated.triggers().len(), 2);
        for trigger in dispatch.triggers().iter().chain(updated.triggers()) {
            assert!(shared(trigger.grammar()));
        }
    }

    /// A grammar whose root derives no string is refused, under every row.
    #[test]
    fn strict_mode_rejects_unsatisfiable_grammars() {
        for config in CompilerConfig::ROWS {
            let c = GrammarCompiler::with_config(Arc::new(test_vocabulary(600)), config);
            let err = c
                .compile_ebnf(
                    r#"
                    root ::= a
                    a ::= "x" a
                    "#,
                    "root",
                )
                .unwrap_err();
            assert!(matches!(err, GrammarError::Lint { .. }));
            assert!(err.to_string().contains("unsatisfiable-grammar"));
            // Clean grammars still compile.
            assert!(c.compile_ebnf(r#"root ::= "ok""#, "root").is_ok());
        }
    }

    /// An error-severity finding other than an unsatisfiable root refuses
    /// nothing: `("a"?)*` can loop without input, yet the grammar matches
    /// its language.
    #[test]
    fn a_nullable_repetition_is_still_served() {
        use xg_grammar::Severity;
        let source = r#"root ::= ("a"?)* "b""#;
        let grammar = xg_grammar::parse_ebnf(source, "root").unwrap();
        let analysis = xg_grammar::analyze(&grammar);
        let code = |d: &Diagnostic| (d.code, d.severity);
        assert_eq!(
            analysis.diagnostics.iter().map(code).collect::<Vec<_>>(),
            [(DiagnosticCode::NullableRepetition, Severity::Error)]
        );
        let compiled = compiler().compile_ebnf(source, "root").unwrap();
        let mut matcher = GrammarMatcher::new(compiled);
        matcher.accept_bytes(b"aab").unwrap();
        assert!(matcher.can_terminate());
    }

    /// A refusal is cached with its grammar, so a resubmission is a cache
    /// hit; the unchecked compile still serves the grammar.
    #[test]
    fn strict_rejection_is_cached_and_fails_fast() {
        let c = compiler();
        let g = xg_grammar::parse_ebnf(
            r#"
            root ::= a
            a ::= "x" a
            "#,
            "root",
        )
        .unwrap();
        assert!(c.compile_grammar_checked(&g).is_err());
        assert!(c.compile_grammar_checked(&g).is_err());
        // One compile, one cache hit: the rejection is served from cache.
        let stats = c.local_cache_stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert!(c.compile_grammar(&g).pda().node_count() > 0);
    }

    #[test]
    fn strict_mode_rejects_dead_triggers() {
        use xg_grammar::{StructuralTag, TagContent, TagSpec};
        let c = compiler();
        let tag = StructuralTag::new(vec![TagSpec {
            begin: "<f>".into(),
            content: TagContent::Ebnf {
                // No base case: the segment can never complete.
                text: "root ::= \"x\" root".into(),
                root: "root".into(),
            },
            end: "</f>".into(),
        }]);
        let err = c.compile_tag_dispatch(&tag).unwrap_err();
        assert!(matches!(err, GrammarError::Lint { .. }));
        assert!(err.to_string().contains("dead-trigger"));
    }

    #[test]
    fn config_differences_produce_distinct_cache_entries() {
        let vocab = Arc::new(test_vocabulary(600));
        let full = GrammarCompiler::new(Arc::clone(&vocab));
        let base = GrammarCompiler::with_config(vocab, CompilerConfig::PdaBaseline);
        let g = xg_grammar::parse_ebnf(r#"root ::= "a" | "b""#, "root").unwrap();
        let a = full.compile_grammar(&g);
        let b = base.compile_grammar(&g);
        assert!(a.stats().nodes > 0);
        assert_eq!(b.stats(), MaskCacheStats::default());
        assert_ne!(full.cache_key(&g), base.cache_key(&g));
    }
}
