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
use std::sync::{Arc, OnceLock};

use xg_automata::{build_pda, extract_all_suffix_fsas, Fsa, NodeId, Pda, PdaBuildOptions};
use xg_grammar::{analyze, Diagnostic, Grammar, GrammarError};
use xg_tokenizer::{SortedVocabulary, Vocabulary};

use crate::constraint::{CompiledConstraint, ConstraintMatcher};
use crate::grammar_cache::{
    CacheBudget, CacheStats, GrammarCache, GrammarCacheKey, TagDispatchCache,
};
use crate::lint::{lint_compiled, GrammarLintReport};
use crate::mask_cache::{EntrySource, MaskCache, MaskCacheStats, NodeMaskEntry};
use crate::matcher::GrammarMatcher;

/// How the compiler treats the static-analysis lint pass.
///
/// The grammar-level lint is cheap (linear fixpoints over the grammar); the
/// vocabulary-aware dead-state scan reads the mask-cache entry of every
/// reachable node, and so builds them. `Strict` runs both in the compile and
/// turns error-severity diagnostics into compile failures; `Warn` runs the
/// scan on the first [`CompiledGrammar::lint_report`] call, for callers to
/// inspect; `Off` skips the pass entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LintMode {
    /// Skip the lint pass; no report is stored.
    Off,
    /// Run the grammar-level lint in the compile and the dead-state scan on
    /// the first [`CompiledGrammar::lint_report`] call, but never fail
    /// compilation.
    #[default]
    Warn,
    /// Run the lint; error-severity diagnostics make the *checked* compile
    /// entry points ([`GrammarCompiler::compile_grammar_checked`] and the
    /// `Result`-returning conveniences built on it) fail with
    /// [`GrammarError::Lint`].
    Strict,
}

/// Configuration of the grammar compiler. The four boolean switches are the
/// ablation axes of the paper's Table 3.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CompilerConfig {
    /// Inline fragment rules into their parents (§3.4).
    pub enable_rule_inlining: bool,
    /// Merge equivalent automaton nodes (§3.4).
    pub enable_node_merging: bool,
    /// Use the adaptive token mask cache (§3.1). When disabled, every
    /// token is treated as context-dependent and checked at runtime — the
    /// "PDA baseline" configuration.
    pub enable_mask_cache: bool,
    /// Apply context expansion to shrink the context-dependent sets (§3.2).
    pub enable_context_expansion: bool,
    /// Static-analysis lint mode (defaults to [`LintMode::Warn`]). The
    /// vocabulary-aware dead-state check requires the mask cache; with
    /// `enable_mask_cache = false` only the grammar-level analysis runs.
    pub lint_mode: LintMode,
}

impl Default for CompilerConfig {
    fn default() -> Self {
        CompilerConfig {
            enable_rule_inlining: true,
            enable_node_merging: true,
            enable_mask_cache: true,
            enable_context_expansion: true,
            lint_mode: LintMode::Warn,
        }
    }
}

impl CompilerConfig {
    /// The fully un-optimized configuration (the "PDA Baseline" ablation row).
    pub fn baseline() -> Self {
        CompilerConfig {
            enable_rule_inlining: false,
            enable_node_merging: false,
            enable_mask_cache: false,
            enable_context_expansion: false,
            lint_mode: LintMode::Off,
        }
    }

    /// Returns this configuration with the given lint mode.
    pub fn with_lint_mode(mut self, mode: LintMode) -> Self {
        self.lint_mode = mode;
        self
    }

    fn pda_options(&self) -> PdaBuildOptions {
        PdaBuildOptions {
            inline_rules: self.enable_rule_inlining,
            merge_nodes: self.enable_node_merging,
        }
    }
}

/// A grammar compiled against a specific vocabulary, ready to instantiate
/// matchers.
///
/// The compile builds the automata and the grammar-level lint; the mask
/// cache's entries are built on first read (see [`entry`](Self::entry)), so
/// a request pays for the nodes its stacks rest on, under its decode, and not
/// for every node before its first token.
#[derive(Debug)]
pub struct CompiledGrammar {
    pda: Pda,
    vocab: Arc<Vocabulary>,
    /// The sorted index of `vocab`, shared with every other grammar the same
    /// [`GrammarCompiler`] compiles.
    sorted: Arc<SortedVocabulary>,
    mask_cache: Option<MaskCache>,
    suffix_fsas: Vec<Fsa>,
    config: CompilerConfig,
    /// The grammar-level lint findings, present unless the lint mode is
    /// `Off`; the report adds the vocabulary-aware ones on first read.
    grammar_diagnostics: Option<Vec<Diagnostic>>,
    lint: OnceLock<GrammarLintReport>,
}

impl CompiledGrammar {
    /// Compiles `grammar` against `vocab` with the given configuration.
    /// `sorted` must be the sorted index of `vocab`; it depends on nothing
    /// else, so callers build it once per vocabulary
    /// ([`GrammarCompiler::sorted_vocabulary`]) and every compile shares it.
    ///
    /// No mask-cache entry is built here, except for the reachable nodes the
    /// lint reads in [`LintMode::Strict`].
    pub fn compile(
        grammar: &Grammar,
        vocab: Arc<Vocabulary>,
        sorted: Arc<SortedVocabulary>,
        config: &CompilerConfig,
    ) -> CompiledGrammar {
        let pda = build_pda(grammar, &config.pda_options());
        let suffix_fsas = extract_all_suffix_fsas(&pda);
        let mut compiled = CompiledGrammar {
            pda,
            vocab,
            sorted,
            mask_cache: None,
            suffix_fsas,
            config: config.clone(),
            grammar_diagnostics: (config.lint_mode != LintMode::Off)
                .then(|| analyze(grammar).diagnostics),
            lint: OnceLock::new(),
        };
        if config.enable_mask_cache {
            compiled.mask_cache = Some(MaskCache::new(&compiled.entry_source()));
        }
        if config.lint_mode == LintMode::Strict {
            compiled.lint_report();
        }
        compiled
    }

    /// What this grammar's mask-cache entries are built from.
    fn entry_source(&self) -> EntrySource<'_> {
        EntrySource {
            pda: &self.pda,
            vocab: &self.vocab,
            sorted: &self.sorted,
            suffix_fsas: Some(&self.suffix_fsas[..])
                .filter(|_| self.config.enable_context_expansion),
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

    /// The lexicographically sorted token index.
    pub fn sorted_vocabulary(&self) -> &SortedVocabulary {
        &self.sorted
    }

    /// The adaptive token mask cache entry of `node`, built on its first
    /// read. Every entry is the one [`build_mask_cache`](crate::build_mask_cache)
    /// builds; threads reading an unbuilt entry at once build it once.
    ///
    /// # Panics
    ///
    /// Panics if the grammar was compiled without the mask cache
    /// ([`CompilerConfig::enable_mask_cache`]) or `node` is out of range.
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

    /// The configuration used to compile this grammar.
    pub fn config(&self) -> &CompilerConfig {
        &self.config
    }

    /// The lint report, or `None` when the configuration's lint mode is
    /// [`LintMode::Off`]. In `Warn` mode the vocabulary-aware part of the
    /// lint runs on the first call, building the entries it reads; the
    /// report is kept.
    pub fn lint_report(&self) -> Option<&GrammarLintReport> {
        let diagnostics = self.grammar_diagnostics.as_ref()?;
        Some(
            self.lint
                .get_or_init(|| lint_compiled(diagnostics.clone(), self)),
        )
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
    /// entries. The sorted vocabulary index is shared, not held, and is not
    /// charged.
    fn memory_bytes(&self) -> usize {
        let mask_cache = self.mask_cache.as_ref().map_or(0, MaskCache::built_bytes);
        let suffix_fsas: usize = self.suffix_fsas.iter().map(Fsa::memory_bytes).sum();
        mask_cache + self.pda.memory_bytes() + suffix_fsas
    }
}

/// A caching grammar compiler bound to one vocabulary.
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
    /// Fingerprint of `vocab`, computed once (hashing a 128k-token
    /// vocabulary takes milliseconds) and carried by every dispatch compiled
    /// here.
    pub(crate) vocab_fingerprint: u64,
    /// The sorted index of `vocab`, built by the first compile (or the first
    /// caller of [`sorted_vocabulary`](Self::sorted_vocabulary)) and shared
    /// by every grammar compiled afterwards.
    sorted: OnceLock<Arc<SortedVocabulary>>,
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
            vocab_fingerprint: vocab.fingerprint(),
            vocab,
            sorted: OnceLock::new(),
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

    /// The lexicographically sorted index of this compiler's vocabulary:
    /// one per compiler, built on first use and shared by every compiled
    /// grammar, structural-tag segment and incremental registry update — and
    /// by whoever else needs to re-tokenize text against the same vocabulary.
    /// Its build time and size are on [`SortedVocabulary`]; it is held once
    /// per compiler and not charged to the grammar cache's budget.
    pub fn sorted_vocabulary(&self) -> &Arc<SortedVocabulary> {
        self.sorted
            .get_or_init(|| Arc::new(SortedVocabulary::new(&self.vocab)))
    }

    /// The compiler configuration.
    pub fn config(&self) -> &CompilerConfig {
        &self.config
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
        GrammarCacheKey::new(grammar, self.vocab_fingerprint, &self.config)
    }

    /// Compiles a grammar, reusing a previously compiled instance when the
    /// same grammar (and vocabulary and configuration) was compiled before.
    /// Concurrent calls for the same uncached grammar compile it exactly
    /// once; the losers of the race block and share the winner's result.
    /// The lookup counts towards this compiler's
    /// [`local_cache_stats`](Self::local_cache_stats).
    pub fn compile_grammar(&self, grammar: &Grammar) -> Arc<CompiledGrammar> {
        let compile = || {
            let vocab = Arc::clone(&self.vocab);
            let sorted = Arc::clone(self.sorted_vocabulary());
            Ok(CompiledGrammar::compile(
                grammar,
                vocab,
                sorted,
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

    /// Like [`compile_grammar`](Self::compile_grammar), but enforcing the
    /// configured [`LintMode`]: in `Strict` mode, error-severity lint
    /// diagnostics fail the compile instead of being recorded.
    ///
    /// The compiled grammar (with its lint report) is cached either way, so
    /// repeated submissions of a rejected grammar fail fast from the cache.
    ///
    /// # Errors
    ///
    /// Returns [`GrammarError::Lint`] carrying the error-severity
    /// [`Diagnostic`](xg_grammar::Diagnostic)s when the lint mode is
    /// [`LintMode::Strict`] and the report contains errors.
    pub fn compile_grammar_checked(
        &self,
        grammar: &Grammar,
    ) -> Result<Arc<CompiledGrammar>, GrammarError> {
        let compiled = self.compile_grammar(grammar);
        if self.config.lint_mode == LintMode::Strict {
            if let Some(report) = compiled.lint_report() {
                if report.has_errors() {
                    return Err(GrammarError::Lint {
                        diagnostics: report.errors().cloned().collect(),
                    });
                }
            }
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
    /// [`GrammarError::Lint`] in strict lint mode.
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
    /// or [`GrammarError::Lint`] in strict lint mode.
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

    /// Number of compiled grammars currently cached.
    pub fn cached_count(&self) -> usize {
        self.cache.len()
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
        assert_eq!(c.cached_count(), 1);
        let other = c.compile_ebnf(r#"root ::= "x""#, "root").unwrap();
        assert!(!Arc::ptr_eq(&a, &other));
        assert_eq!(c.cached_count(), 2);
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
            CompilerConfig::baseline(),
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
            std::ptr::eq(compiled.sorted_vocabulary(), &**c.sorted_vocabulary())
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

    #[test]
    fn warn_mode_records_diagnostics_without_failing() {
        let c = compiler();
        // Unsatisfiable: `a` has no base case. Default mode is Warn.
        let compiled = c
            .compile_ebnf(
                r#"
                root ::= a
                a ::= "x" a
                "#,
                "root",
            )
            .unwrap();
        let report = compiled.lint_report().unwrap();
        assert!(report.has_errors());
    }

    #[test]
    fn strict_mode_rejects_unsatisfiable_grammars() {
        let c = GrammarCompiler::with_config(
            Arc::new(test_vocabulary(600)),
            CompilerConfig::default().with_lint_mode(LintMode::Strict),
        );
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

    #[test]
    fn off_mode_skips_the_lint_entirely() {
        let c = GrammarCompiler::with_config(
            Arc::new(test_vocabulary(600)),
            CompilerConfig::default().with_lint_mode(LintMode::Off),
        );
        let compiled = c
            .compile_ebnf(
                r#"
                root ::= a
                a ::= "x" a
                "#,
                "root",
            )
            .unwrap();
        assert!(compiled.lint_report().is_none());
    }

    #[test]
    fn strict_rejection_is_cached_and_fails_fast() {
        let c = GrammarCompiler::with_config(
            Arc::new(test_vocabulary(600)),
            CompilerConfig::default().with_lint_mode(LintMode::Strict),
        );
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
    }

    #[test]
    fn lint_modes_produce_distinct_cache_keys() {
        let g = xg_grammar::parse_ebnf(r#"root ::= "a""#, "root").unwrap();
        let vocab = Arc::new(test_vocabulary(600));
        let warn = GrammarCompiler::new(Arc::clone(&vocab));
        let off = GrammarCompiler::with_config(
            Arc::clone(&vocab),
            CompilerConfig::default().with_lint_mode(LintMode::Off),
        );
        assert_ne!(warn.cache_key(&g), off.cache_key(&g));
    }

    #[test]
    fn strict_mode_rejects_dead_triggers() {
        use xg_grammar::{StructuralTag, TagContent, TagSpec};
        let c = GrammarCompiler::with_config(
            Arc::new(test_vocabulary(600)),
            CompilerConfig::default().with_lint_mode(LintMode::Strict),
        );
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
        let base = GrammarCompiler::with_config(vocab, CompilerConfig::baseline());
        let g = xg_grammar::parse_ebnf(r#"root ::= "a" | "b""#, "root").unwrap();
        let a = full.compile_grammar(&g);
        let b = base.compile_grammar(&g);
        assert!(a.stats().nodes > 0);
        assert_eq!(b.stats(), MaskCacheStats::default());
    }
}
