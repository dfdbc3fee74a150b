//! The compiled-artifact cache of a long-lived serving engine: one budgeted
//! LRU of shared compiled artifacts.
//!
//! The paper's serving story (§5, "Grammar Compiler") assumes each grammar is
//! compiled once and then shared by many concurrent requests; whole tool
//! registries ([`CompiledTagDispatch`]) are shared the same way. Both kinds of
//! artifact live in the same cache type, [`ArtifactCache`], instantiated as
//! [`GrammarCache`] (keyed by the 64-bit hashes of the grammar's structure and
//! the tokenizer, and by the compiler configuration) and [`TagDispatchCache`]
//! (keyed by the whole [`StructuralTag`]: found by its structural hash and
//! confirmed by full equality, so two registries never alias). The cache
//! provides
//!
//! * **build-once semantics under contention** — when N threads request the
//!   same uncached key simultaneously, exactly one runs the build and the
//!   others block on the same slot and receive the same `Arc` (a
//!   `Mutex`-guarded map of per-key [`OnceLock`] slots; std-only). The map
//!   lock is released while building, so other keys proceed concurrently,
//! * **fallible builds that leave nothing behind** — a build that returns
//!   `Err` or unwinds removes its in-flight slot, so a rejected registry is
//!   never reported as cached and never counts against the entry cap,
//! * a **byte and entry budget** ([`CacheBudget`]) — entry sizes come from
//!   [`CompiledConstraint::memory_bytes`], read again at every budget check,
//!   because an artifact grows after insertion as requests build its mask
//!   entries; least-recently-used entries are evicted when the budget is
//!   exceeded. Evicted artifacts stay alive for requests already holding
//!   their `Arc`, and are freed when the last of them drops it,
//! * **hit/miss/eviction statistics** ([`CacheStats`]) for serving
//!   dashboards and the `cache_serving` / `dynamic_registry` experiments.
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use xg_core::{CacheBudget, CompiledGrammar, CompilerConfig, GrammarCache, GrammarCacheKey};
//! use xg_tokenizer::test_vocabulary;
//!
//! let cache = GrammarCache::new(CacheBudget::for_grammars());
//! let vocab = Arc::new(test_vocabulary(600));
//! let grammar = xg_grammar::parse_ebnf(r#"root ::= "x" | "y""#, "root").unwrap();
//! let config = CompilerConfig::default();
//! let key = GrammarCacheKey::new(&grammar, vocab.fingerprint(), &config);
//! let compile = || Ok::<_, ()>(CompiledGrammar::compile(&grammar, Arc::clone(&vocab), &config));
//! let (a, a_built) = cache.get_or_try_build(&key, compile).unwrap();
//! let (b, b_built) = cache.get_or_try_build(&key, compile).unwrap();
//! assert!(Arc::ptr_eq(&a, &b));
//! assert_eq!((a_built, b_built), (true, false));
//! assert_eq!((cache.stats().hits, cache.stats().misses), (1, 1));
//! ```

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use xg_grammar::{Grammar, StructuralTag};

use crate::compiler::{CompiledGrammar, CompilerConfig};
use crate::constraint::CompiledConstraint;
use crate::tag_dispatch::CompiledTagDispatch;

/// Budget of an [`ArtifactCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheBudget {
    /// Byte budget across all cached artifacts (estimated with
    /// [`CompiledConstraint::memory_bytes`], whose growth since the last
    /// insertion counts too). When an insertion finds the total over the
    /// budget, least-recently-used entries are evicted. A single entry larger
    /// than the budget is still cached until the next insertion.
    pub max_bytes: usize,
    /// Maximum number of cached artifacts, enforced the same way.
    pub max_entries: usize,
}

impl CacheBudget {
    /// The default [`GrammarCache`] budget — generous for a serving process:
    /// a few hundred MB of mask-cache data, far more distinct schemas than
    /// any workload in the paper uses.
    pub fn for_grammars() -> Self {
        CacheBudget {
            max_bytes: 256 * 1024 * 1024,
            max_entries: 1024,
        }
    }

    /// The default [`TagDispatchCache`] budget. A dispatch pins one compiled
    /// grammar per trigger, so the byte budget is the real bound; the entry
    /// cap is a backstop for registries with tiny sub-grammars.
    pub fn for_dispatches() -> Self {
        CacheBudget {
            max_bytes: 64 * 1024 * 1024,
            max_entries: 64,
        }
    }

    /// No eviction, useful for tests and short-lived batch jobs.
    pub fn unbounded() -> Self {
        CacheBudget {
            max_bytes: usize::MAX,
            max_entries: usize::MAX,
        }
    }
}

/// Cache key of one compiled grammar: grammar source, tokenizer and compiler
/// configuration all participate, so one cache can be shared across
/// vocabularies and ablation configurations.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GrammarCacheKey {
    grammar_hash: u64,
    vocab_fingerprint: u64,
    config: CompilerConfig,
}

impl GrammarCacheKey {
    /// Computes the key for a grammar / vocabulary-fingerprint / configuration
    /// triple. Use [`xg_tokenizer::Vocabulary::fingerprint`] (it hashes every
    /// token once and is kept by the vocabulary) for the second component.
    ///
    /// The grammar component is [`Grammar::structural_fingerprint`]:
    /// structurally identical grammars — even independently built ones — map
    /// to the same key, and a grammar that already computed its fingerprint
    /// contributes O(1) work per key.
    pub fn new(grammar: &Grammar, vocab_fingerprint: u64, config: &CompilerConfig) -> Self {
        GrammarCacheKey {
            grammar_hash: grammar.structural_fingerprint(),
            vocab_fingerprint,
            config: *config,
        }
    }
}

/// Counters exposed by an [`ArtifactCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Requests answered from the cache (including requests that joined an
    /// in-flight build instead of starting their own).
    pub hits: u64,
    /// Requests that ran a build, successful or not.
    pub misses: u64,
    /// Entries evicted to stay within the byte / entry budget.
    pub evictions: u64,
    /// Estimated bytes held by the cached artifacts, as of the last
    /// insertion (every artifact's size is read again then).
    pub current_bytes: u64,
    /// Number of cached artifacts (including in-flight builds).
    pub entries: u64,
}

impl CacheStats {
    /// Fraction of requests served without building, in `[0, 1]`.
    /// Returns 0 when no requests have been made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter difference `self - earlier` (for per-batch reporting);
    /// gauge fields (`current_bytes`, `entries`) keep the newer value.
    pub fn delta_since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            current_bytes: self.current_bytes,
            entries: self.entries,
        }
    }
}

/// The `OnceLock` shared with every thread waiting on the same key, giving
/// build-once semantics without holding the map lock during the build. It is
/// set to `None` when the build failed (its slot is already gone by then).
type SlotCell<V> = Arc<OnceLock<Option<Arc<V>>>>;

/// One cache slot.
struct Slot<V> {
    cell: SlotCell<V>,
    /// LRU clock value of the most recent access.
    last_used: u64,
}

struct CacheState<K, V> {
    slots: HashMap<K, Slot<V>>,
    clock: u64,
    /// The slots' sizes summed at the last budget check.
    total_bytes: usize,
}

/// A thread-safe LRU cache of compiled artifacts with a byte budget and
/// build-once semantics. See the `grammar_cache` module docs for the design.
pub struct ArtifactCache<K, V> {
    budget: CacheBudget,
    state: Mutex<CacheState<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// The cache of [`CompiledGrammar`]s, shareable between compilers.
pub type GrammarCache = ArtifactCache<GrammarCacheKey, CompiledGrammar>;

/// The per-compiler cache of whole compiled tool registries, keyed by their
/// [`StructuralTag`].
pub type TagDispatchCache = ArtifactCache<StructuralTag, CompiledTagDispatch>;

impl<K, V> std::fmt::Debug for ArtifactCache<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("budget", &self.budget)
            .field("stats", &self.stats())
            .finish()
    }
}

impl<K, V> ArtifactCache<K, V> {
    /// Creates a cache with the given budget.
    pub fn new(budget: CacheBudget) -> Self {
        ArtifactCache {
            budget,
            state: Mutex::new(CacheState {
                slots: HashMap::new(),
                clock: 0,
                total_bytes: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Current counters. `hits`/`misses`/`evictions` are monotonically
    /// increasing; `current_bytes`/`entries` are gauges.
    pub fn stats(&self) -> CacheStats {
        let state = self.lock();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            current_bytes: state.total_bytes as u64,
            entries: state.slots.len() as u64,
        }
    }

    /// Number of cached artifacts (including in-flight builds).
    pub fn len(&self) -> usize {
        self.lock().slots.len()
    }

    /// Returns `true` if the cache holds no artifacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every cached artifact (requests already holding an `Arc` keep
    /// theirs). Every removed entry counts as an eviction; the
    /// hit/miss counters are not reset.
    pub fn clear(&self) {
        let mut state = self.lock();
        let removed = state.slots.len() as u64;
        state.slots.clear();
        state.total_bytes = 0;
        self.evictions.fetch_add(removed, Ordering::Relaxed);
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState<K, V>> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

impl<K: Eq + Hash + Clone, V: CompiledConstraint> ArtifactCache<K, V> {
    /// Returns `true` if `key`'s artifact is cached. A build still in flight
    /// is not: a request that would wait it out is not a cache hit. Does not
    /// count as an access for LRU or hit/miss purposes — admission control
    /// uses this to classify cache-hit admissions.
    pub fn contains(&self, key: &K) -> bool {
        self.lock()
            .slots
            .get(key)
            .is_some_and(|slot| matches!(slot.cell.get(), Some(Some(_))))
    }

    /// Looks up `key`, running `build` on a miss; returns the artifact and
    /// whether *this* call ran the build (`false` when the cache or an
    /// in-flight build served it — callers sharing one cache keep per-caller
    /// hit/miss counters from it, since [`stats`](Self::stats) aggregates
    /// over every sharer). When several threads race on the same uncached
    /// key, exactly one `build` closure runs; the rest block until it
    /// finishes and receive the identical `Arc`. The map lock is *not* held
    /// while building, so requests for other keys proceed concurrently. The
    /// key is cloned only when a slot is inserted.
    ///
    /// # Errors
    ///
    /// Returns `build`'s error. A failed (or unwinding) build leaves no slot
    /// behind; threads that were waiting on it retry the lookup with their
    /// own closure.
    pub fn get_or_try_build<E>(
        &self,
        key: &K,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        let mut build = Some(build);
        loop {
            // Phase 1 (under the lock): find or create the slot for this key.
            let cell = {
                let mut state = self.lock();
                state.clock += 1;
                let clock = state.clock;
                match state.slots.get_mut(key) {
                    Some(slot) => {
                        slot.last_used = clock;
                        Arc::clone(&slot.cell)
                    }
                    None => {
                        let cell = SlotCell::default();
                        state.slots.insert(
                            key.clone(),
                            Slot {
                                cell: Arc::clone(&cell),
                                last_used: clock,
                            },
                        );
                        cell
                    }
                }
            };

            // Phase 2 (lock released): initialize the slot. `OnceLock`
            // guarantees at most one closure completes across all racing
            // threads.
            let mut failure = None;
            let mut built = false;
            let entry = cell.get_or_init(|| {
                let build = build
                    .take()
                    .expect("a call retries only while its build has not run");
                let in_flight = InFlight {
                    cache: self,
                    key,
                    cell: &cell,
                };
                match build() {
                    Ok(artifact) => {
                        std::mem::forget(in_flight);
                        built = true;
                        Some(Arc::new(artifact))
                    }
                    Err(e) => {
                        failure = Some(e);
                        None
                    }
                }
            });
            let Some(artifact) = entry else {
                match failure {
                    Some(e) => {
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        return Err(e);
                    }
                    // Another thread's build failed while this one waited.
                    None => continue,
                }
            };

            // Phase 3: the building thread enforces the budget.
            if built {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.evict_over_budget(&mut self.lock(), key);
            } else {
                self.hits.fetch_add(1, Ordering::Relaxed);
            }
            return Ok((Arc::clone(artifact), built));
        }
    }

    /// Evicts least-recently-used *initialized* entries until the cache is
    /// within budget. `just_inserted` is exempted so a fresh entry is not
    /// immediately bounced by its own insertion. Every slot is charged what
    /// its artifact holds now, not at its insertion: a compiled grammar
    /// grows as requests build its mask entries, and so does a registry
    /// holding compiled grammars.
    fn evict_over_budget(&self, state: &mut CacheState<K, V>, just_inserted: &K) {
        state.total_bytes = state.slots.values().map(Slot::bytes).sum();
        let over = |state: &CacheState<K, V>| {
            state.total_bytes > self.budget.max_bytes || state.slots.len() > self.budget.max_entries
        };
        while over(state) {
            let victim = state
                .slots
                .iter()
                .filter(|(k, slot)| *k != just_inserted && slot.cell.get().is_some())
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else {
                break; // Only in-flight or just-inserted entries remain.
            };
            if let Some(slot) = state.slots.remove(&victim) {
                // Saturating: the artifact may have grown since the sum.
                state.total_bytes = state.total_bytes.saturating_sub(slot.bytes());
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

impl<V: CompiledConstraint> Slot<V> {
    /// The artifact's current size; 0 while its build is in flight.
    fn bytes(&self) -> usize {
        match self.cell.get() {
            Some(Some(artifact)) => artifact.memory_bytes(),
            _ => 0,
        }
    }
}

/// Drop guard of a running build: removes the in-flight slot when the build
/// returns `Err` or unwinds (it is forgotten on success), but only while the
/// slot is still this call's cell — a slot re-inserted after a mid-build
/// eviction belongs to another thread.
struct InFlight<'a, K: Eq + Hash, V> {
    cache: &'a ArtifactCache<K, V>,
    key: &'a K,
    cell: &'a SlotCell<V>,
}

impl<K: Eq + Hash, V> Drop for InFlight<'_, K, V> {
    fn drop(&mut self) {
        let mut state = self.cache.lock();
        let ours = |slot: &Slot<V>| Arc::ptr_eq(&slot.cell, self.cell);
        if state.slots.get(self.key).is_some_and(ours) {
            state.slots.remove(self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GrammarCompiler;
    use std::convert::Infallible;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;
    use xg_tokenizer::{test_vocabulary, Vocabulary};

    fn grammar(src: &str) -> Grammar {
        xg_grammar::parse_ebnf(src, "root").unwrap()
    }

    /// A compile outside any [`GrammarCompiler`].
    fn compile(g: &Grammar, vocab: &Arc<Vocabulary>, cfg: &CompilerConfig) -> CompiledGrammar {
        CompiledGrammar::compile(g, Arc::clone(vocab), cfg)
    }

    fn one_entry() -> CacheBudget {
        CacheBudget {
            max_bytes: usize::MAX,
            max_entries: 1,
        }
    }

    /// The full lookup result (artifact, built) for `g`.
    fn entry(
        cache: &GrammarCache,
        g: &Grammar,
        vocab: &Arc<Vocabulary>,
        cfg: &CompilerConfig,
    ) -> (Arc<CompiledGrammar>, bool) {
        let key = GrammarCacheKey::new(g, vocab.fingerprint(), cfg);
        let build = || Ok::<_, Infallible>(compile(g, vocab, cfg));
        cache.get_or_try_build(&key, build).unwrap()
    }

    fn get_or_compile(
        cache: &GrammarCache,
        g: &Grammar,
        vocab: &Arc<Vocabulary>,
        cfg: &CompilerConfig,
    ) -> Arc<CompiledGrammar> {
        entry(cache, g, vocab, cfg).0
    }

    fn lookup(
        cache: &GrammarCache,
        vocab: &Arc<Vocabulary>,
        src: &str,
    ) -> (Arc<CompiledGrammar>, bool) {
        entry(cache, &grammar(src), vocab, &CompilerConfig::default())
    }

    #[test]
    fn hit_miss_and_pointer_identity() {
        let cache = GrammarCache::new(CacheBudget::for_grammars());
        let vocab = Arc::new(test_vocabulary(600));
        let g = grammar(r#"root ::= "[" [0-9]+ "]""#);
        let cfg = CompilerConfig::default();
        let a = get_or_compile(&cache, &g, &vocab, &cfg);
        let b = get_or_compile(&cache, &g, &vocab, &cfg);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!(stats.current_bytes > 0);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn structurally_shared_recompile_hits_interned_artifacts() {
        // Two *independently built* grammars with identical structure share
        // one structural fingerprint, so the second compile request is a pure
        // cache hit on the first one's artifact (no recompilation).
        let cache = GrammarCache::new(CacheBudget::for_grammars());
        let vocab = Arc::new(test_vocabulary(600));
        let cfg = CompilerConfig::default();
        let text = r#"root ::= "[" item ("," item)* "]"
                      item ::= [0-9]+"#;
        let a = grammar(text);
        let b = grammar(text);
        assert_eq!(
            GrammarCacheKey::new(&a, vocab.fingerprint(), &cfg),
            GrammarCacheKey::new(&b, vocab.fingerprint(), &cfg)
        );
        let ca = get_or_compile(&cache, &a, &vocab, &cfg);
        let cb = get_or_compile(&cache, &b, &vocab, &cfg);
        assert!(Arc::ptr_eq(&ca, &cb));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn key_distinguishes_grammar_vocab_and_config() {
        let vocab_a = Arc::new(test_vocabulary(600));
        let vocab_b = Arc::new(test_vocabulary(800));
        let g1 = grammar(r#"root ::= "a""#);
        let g2 = grammar(r#"root ::= "b""#);
        let full = CompilerConfig::default();
        let base = CompilerConfig::PdaBaseline;
        let reference = GrammarCacheKey::new(&g1, vocab_a.fingerprint(), &full);
        assert_eq!(
            reference,
            GrammarCacheKey::new(&g1, vocab_a.fingerprint(), &full)
        );
        assert_ne!(
            reference,
            GrammarCacheKey::new(&g2, vocab_a.fingerprint(), &full)
        );
        assert_ne!(
            reference,
            GrammarCacheKey::new(&g1, vocab_b.fingerprint(), &full)
        );
        assert_ne!(
            reference,
            GrammarCacheKey::new(&g1, vocab_a.fingerprint(), &base)
        );
    }

    #[test]
    fn byte_budget_evicts_least_recently_used() {
        let vocab = Arc::new(test_vocabulary(600));
        let cfg = CompilerConfig::default();
        // Budget sized to hold roughly one compiled grammar.
        let probe = GrammarCache::new(CacheBudget::unbounded());
        let size =
            get_or_compile(&probe, &grammar(r#"root ::= "a" [0-9]+"#), &vocab, &cfg).memory_bytes();
        let cache = GrammarCache::new(CacheBudget {
            max_bytes: size + size / 2,
            max_entries: usize::MAX,
        });
        let g1 = grammar(r#"root ::= "a" [0-9]+"#);
        let g2 = grammar(r#"root ::= "b" [0-9]+"#);
        let g3 = grammar(r#"root ::= "c" [0-9]+"#);
        let first = get_or_compile(&cache, &g1, &vocab, &cfg);
        get_or_compile(&cache, &g2, &vocab, &cfg);
        get_or_compile(&cache, &g3, &vocab, &cfg);
        let stats = cache.stats();
        assert!(stats.evictions > 0, "expected evictions, got {stats:?}");
        assert!(stats.current_bytes <= (size + size / 2) as u64);
        // The evicted grammar is still usable by holders of the Arc...
        assert!(first.memory_bytes() > 0);
        // ...and re-requesting it recompiles (a new miss, new pointer).
        let misses_before = cache.stats().misses;
        let again = get_or_compile(&cache, &g1, &vocab, &cfg);
        assert_eq!(cache.stats().misses, misses_before + 1);
        assert!(!Arc::ptr_eq(&first, &again));
    }

    /// A compiled grammar grows after insertion as decodes build its mask
    /// entries; the next insertion charges what it holds then, and growth
    /// alone can push the cache over its byte budget.
    #[test]
    fn growth_after_insertion_is_charged_and_evicts() {
        use crate::{ConstraintMatcher, GrammarMatcher, TokenBitmask};

        let vocab = Arc::new(test_vocabulary(600));
        let cfg = CompilerConfig::default();
        let sources = [
            r#"root ::= "[" [a-z]+ ("," [0-9]+)* "]""#,
            r#"root ::= "{" [a-z]+ ("," [0-9]+)* "}""#,
            r#"root ::= "(" [a-z]+ ("," [0-9]+)* ")""#,
        ];
        let unbuilt: usize = sources
            .iter()
            .map(|src| compile(&grammar(src), &vocab, &cfg).memory_bytes())
            .sum();
        let decode = |compiled: &Arc<CompiledGrammar>, text: &[u8]| {
            let before = compiled.memory_bytes();
            let mut matcher = GrammarMatcher::new(Arc::clone(compiled));
            let mut mask = TokenBitmask::new_all_rejected(vocab.len());
            for byte in text {
                matcher.fill_next_token_bitmask(&mut mask);
                matcher.accept_bytes(std::slice::from_ref(byte)).unwrap();
            }
            assert!(compiled.memory_bytes() > before, "the decode built entries");
        };
        let charged = |cache: &GrammarCache, held: &[&Arc<CompiledGrammar>]| {
            let sum: usize = held.iter().map(|c| c.memory_bytes()).sum();
            assert_eq!(cache.stats().current_bytes, sum as u64);
        };

        // Room for the three as compiled, not for one grown.
        let cache = GrammarCache::new(CacheBudget {
            max_bytes: unbuilt,
            max_entries: usize::MAX,
        });
        let first = lookup(&cache, &vocab, sources[0]).0;
        let second = lookup(&cache, &vocab, sources[1]).0;
        decode(&first, b"[ab,12]");
        let third = lookup(&cache, &vocab, sources[2]).0;
        assert_eq!(cache.stats().evictions, 1);
        let key = |src| GrammarCacheKey::new(&grammar(src), vocab.fingerprint(), &cfg);
        assert!(
            !cache.contains(&key(sources[0])),
            "the LRU entry is evicted"
        );
        charged(&cache, &[&second, &third]);

        // Unbounded, the grown grammar stays and is charged in full.
        let cache = GrammarCache::new(CacheBudget::unbounded());
        let first = lookup(&cache, &vocab, sources[0]).0;
        decode(&first, b"[ab,12]");
        let second = lookup(&cache, &vocab, sources[1]).0;
        charged(&cache, &[&first, &second]);
    }

    #[test]
    fn entry_cap_evicts_the_least_recently_used_entry() {
        let vocab = Arc::new(test_vocabulary(600));
        let cfg = CompilerConfig::default();
        let cache = GrammarCache::new(CacheBudget {
            max_bytes: usize::MAX,
            max_entries: 2,
        });
        let key = |src: &str| GrammarCacheKey::new(&grammar(src), vocab.fingerprint(), &cfg);
        let (a, b, c, d) = (
            r#"root ::= "a""#,
            r#"root ::= "b""#,
            r#"root ::= "c""#,
            r#"root ::= "d""#,
        );
        lookup(&cache, &vocab, a);
        lookup(&cache, &vocab, b);
        // Touch `a` so `b` is the LRU victim.
        assert!(!lookup(&cache, &vocab, a).1);
        lookup(&cache, &vocab, c);
        assert!(cache.contains(&key(a)));
        assert!(!cache.contains(&key(b)), "LRU entry must be evicted");
        assert!(cache.contains(&key(c)));
        lookup(&cache, &vocab, d);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn clear_empties_the_cache_and_counts_evictions() {
        let vocab = Arc::new(test_vocabulary(600));
        let cache = GrammarCache::new(CacheBudget::for_grammars());
        lookup(&cache, &vocab, r#"root ::= "a""#);
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().current_bytes, 0);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn concurrent_requests_compile_once() {
        let vocab = Arc::new(test_vocabulary(600));
        let cache = Arc::new(GrammarCache::new(CacheBudget::for_grammars()));
        let g = Arc::new(grammar(r#"root ::= "{" [a-z]* "}""#));
        let compiles = Arc::new(AtomicUsize::new(0));
        let threads = 8;
        let barrier = Arc::new(Barrier::new(threads));
        let key = GrammarCacheKey::new(&g, vocab.fingerprint(), &CompilerConfig::default());
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (cache, g, vocab, compiles, barrier, key) = (
                    Arc::clone(&cache),
                    Arc::clone(&g),
                    Arc::clone(&vocab),
                    Arc::clone(&compiles),
                    Arc::clone(&barrier),
                    key.clone(),
                );
                std::thread::spawn(move || {
                    barrier.wait();
                    let build = || {
                        compiles.fetch_add(1, Ordering::SeqCst);
                        Ok::<_, Infallible>(compile(&g, &vocab, &CompilerConfig::default()))
                    };
                    cache.get_or_try_build(&key, build).unwrap()
                })
            })
            .collect();
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(compiles.load(Ordering::SeqCst), 1);
        // First builder wins: every caller shares one artifact, and exactly
        // one of them reports having built.
        for (artifact, _) in &results[1..] {
            assert!(Arc::ptr_eq(&results[0].0, artifact));
        }
        assert_eq!(results.iter().filter(|(_, built)| *built).count(), 1);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, threads as u64 - 1);
    }

    #[test]
    fn an_evicted_artifact_is_freed_with_its_last_holder() {
        use crate::GrammarMatcher;

        let vocab = Arc::new(test_vocabulary(600));
        let cache = GrammarCache::new(one_entry());
        let src = r#"root ::= "[" [0-9]+ "]""#;
        let (first, built) = lookup(&cache, &vocab, src);
        let (again, rebuilt) = lookup(&cache, &vocab, src);
        assert_eq!((built, rebuilt), (true, false));
        assert!(Arc::ptr_eq(&first, &again));
        let matcher = GrammarMatcher::new(Arc::clone(&first));
        let artifact = Arc::downgrade(&first);
        drop((first, again));
        // Evicting the slot drops the cache's hold; a matcher still out keeps
        // its artifact alive until it is dropped.
        lookup(&cache, &vocab, r#"root ::= "x""#);
        assert!(artifact.upgrade().is_some());
        drop(matcher);
        assert!(artifact.upgrade().is_none());
        // A re-request builds a fresh slot.
        assert!(lookup(&cache, &vocab, src).1);
    }

    /// After a build that did not complete, the key must look never-requested.
    fn assert_no_trace(cache: &GrammarCache, key: &GrammarCacheKey) {
        assert_eq!(cache.len(), 0);
        assert!(!cache.contains(key));
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.current_bytes), (0, 0));
    }

    #[test]
    fn a_failed_build_leaves_no_slot_behind() {
        let vocab = Arc::new(test_vocabulary(600));
        let cache = GrammarCache::new(one_entry());
        let g = grammar(r#"root ::= "a""#);
        let cfg = CompilerConfig::default();
        let key = GrammarCacheKey::new(&g, vocab.fingerprint(), &cfg);
        let err = cache.get_or_try_build(&key, || Err::<CompiledGrammar, _>("rejected"));
        assert_eq!(err.unwrap_err(), "rejected");
        assert_no_trace(&cache, &key);
        assert_eq!(cache.stats().misses, 1);

        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_try_build(&key, || -> Result<CompiledGrammar, Infallible> {
                panic!("build panicked")
            })
        }));
        assert!(unwound.is_err());
        assert_no_trace(&cache, &key);

        // The next build for the key runs and is cached.
        let compiled = get_or_compile(&cache, &g, &vocab, &cfg);
        assert!(cache.contains(&key));
        assert!(Arc::ptr_eq(
            &compiled,
            &get_or_compile(&cache, &g, &vocab, &cfg)
        ));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn waiters_on_a_failed_build_retry_with_their_own_closure() {
        let vocab = Arc::new(test_vocabulary(600));
        let cache = GrammarCache::new(CacheBudget::for_grammars());
        let g = grammar(r#"root ::= "a""#);
        let cfg = CompilerConfig::default();
        let key = GrammarCacheKey::new(&g, vocab.fingerprint(), &cfg);
        let building = Barrier::new(2);
        std::thread::scope(|scope| {
            let failing = scope.spawn(|| {
                cache.get_or_try_build(&key, || {
                    building.wait(); // the in-flight slot exists from here on
                                     // Nothing observable says the other thread is parked on
                                     // this cell yet; the pause only makes that the likely
                                     // interleaving — every assertion holds for either order.
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    Err::<CompiledGrammar, _>("rejected")
                })
            });
            building.wait();
            // Joins the in-flight build, wakes to its failure, rebuilds.
            let build = || Ok::<_, &str>(compile(&g, &vocab, &cfg));
            let (waiter, built) = cache.get_or_try_build(&key, build).unwrap();
            assert!(built);
            assert!(failing.join().unwrap().is_err());
            let again = get_or_compile(&cache, &g, &vocab, &cfg);
            assert!(Arc::ptr_eq(&waiter, &again));
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn an_in_flight_build_is_not_cached() {
        let vocab = Arc::new(test_vocabulary(600));
        let cache = GrammarCache::new(CacheBudget::for_grammars());
        let g = grammar(r#"root ::= "a""#);
        let cfg = CompilerConfig::default();
        let key = GrammarCacheKey::new(&g, vocab.fingerprint(), &cfg);
        let (started, probed) = (Barrier::new(2), Barrier::new(2));
        let in_flight = std::thread::scope(|scope| {
            let building = scope.spawn(|| {
                cache.get_or_try_build(&key, || {
                    started.wait(); // the in-flight slot exists from here on
                    probed.wait();
                    Ok::<_, Infallible>(compile(&g, &vocab, &cfg))
                })
            });
            started.wait();
            let in_flight = cache.contains(&key);
            probed.wait();
            building.join().unwrap().unwrap();
            in_flight
        });
        assert!(!in_flight, "a build in flight is not cached");
        assert!(cache.contains(&key));
    }

    #[test]
    fn dispatch_cache_keys_on_the_full_rendering_and_charges_trigger_grammars() {
        use xg_grammar::{StructuralTag, TagContent, TagSpec};

        let tag = |name: &str| {
            StructuralTag::new(vec![TagSpec {
                begin: format!("<{name}>"),
                content: TagContent::Ebnf {
                    text: "root ::= [0-9]+".into(),
                    root: "root".into(),
                },
                end: format!("</{name}>"),
            }])
        };
        let compiler = GrammarCompiler::new(Arc::new(test_vocabulary(512)));
        let a = compiler.compile_tag_dispatch(&tag("a")).unwrap();
        let cache = compiler.dispatch_cache();
        assert!(cache.contains(&tag("a")));
        assert!(!cache.contains(&tag("b")));
        // The entry is charged for the segment grammars it pins.
        let grammars: usize = a
            .triggers()
            .iter()
            .map(|t| t.grammar().memory_bytes())
            .sum();
        assert!(grammars > 0);
        assert!(cache.stats().current_bytes as usize >= grammars);
        assert_eq!(cache.stats().current_bytes as usize, a.memory_bytes());
    }
}
