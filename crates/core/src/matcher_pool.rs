//! A pool of reusable [`ConstraintMatcher`]s for one compiled constraint.
//!
//! A serving engine creates one matcher per request lane. Matcher creation is
//! cheap but not free (it allocates fresh per-request state), and under heavy
//! traffic the same constraint serves thousands of requests, so lanes draw
//! matchers from a shared pool and return them when the request finishes. The
//! pool resets a matcher before handing it out, so acquired matchers are
//! always positioned at the start of the constraint.
//!
//! The pool is generic over [`ConstraintFactory`], so one type recycles
//! grammar matchers ([`CompiledGrammar`](crate::CompiledGrammar)),
//! tag-dispatch matchers
//! ([`CompiledTagDispatch`](crate::CompiledTagDispatch)), and — through the
//! per-trigger pools tag dispatch embeds — the inner matchers opened for
//! every tagged segment.
//!
//! Lane pools are owned by the cache slot of their artifact
//! ([`ArtifactCache`](crate::ArtifactCache) creates one per entry and hands
//! it back with every lookup), so callers never key, find or prune pools
//! themselves. A pool pins its artifact, never the other way round.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::constraint::{ConstraintFactory, ConstraintMatcher};

/// A thread-safe pool of [`ConstraintMatcher`]s bound to one
/// [`ConstraintFactory`].
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use xg_core::{GrammarCompiler, MatcherPool};
/// use xg_tokenizer::test_vocabulary;
///
/// let compiler = GrammarCompiler::new(Arc::new(test_vocabulary(600)));
/// let compiled = compiler.compile_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root")?;
/// let pool = MatcherPool::new(compiled);
/// let matcher = pool.acquire();
/// pool.release(matcher);
/// assert_eq!(pool.created(), 1);
/// let _again = pool.acquire(); // reuses the pooled matcher
/// assert_eq!(pool.created(), 1);
/// # Ok::<(), xg_grammar::GrammarError>(())
/// ```
#[derive(Debug)]
pub struct MatcherPool {
    factory: Arc<dyn ConstraintFactory>,
    /// Rollback window of every matcher this pool creates and recycles.
    max_rollback: usize,
    idle: Mutex<Vec<Box<dyn ConstraintMatcher>>>,
    max_idle: usize,
    created: AtomicU64,
    reused: AtomicU64,
}

impl MatcherPool {
    /// Default cap on idle matchers retained by the pool.
    pub const DEFAULT_MAX_IDLE: usize = 256;

    /// Creates a pool for `factory` with the default idle cap and rollback
    /// window.
    pub fn new(factory: Arc<dyn ConstraintFactory>) -> Self {
        Self::with_max_idle(factory, Self::DEFAULT_MAX_IDLE)
    }

    /// Creates a pool retaining at most `max_idle` idle matchers; matchers
    /// released beyond the cap are dropped.
    pub fn with_max_idle(factory: Arc<dyn ConstraintFactory>, max_idle: usize) -> Self {
        Self::with_rollback_window(factory, max_idle, crate::DEFAULT_MAX_ROLLBACK_TOKENS)
    }

    /// Creates a pool whose matchers carry an explicit rollback window (e.g.
    /// the effectively-unbounded window tag dispatch gives per-segment inner
    /// matchers, which it trims externally).
    pub fn with_rollback_window(
        factory: Arc<dyn ConstraintFactory>,
        max_idle: usize,
        max_rollback: usize,
    ) -> Self {
        MatcherPool {
            factory,
            max_rollback,
            idle: Mutex::new(Vec::new()),
            max_idle,
            created: AtomicU64::new(0),
            reused: AtomicU64::new(0),
        }
    }

    /// The compiled constraint this pool serves.
    pub fn factory(&self) -> &Arc<dyn ConstraintFactory> {
        &self.factory
    }

    /// Identity of the compiled constraint this pool serves (its
    /// [`ConstraintFactory::factory_key`]).
    pub fn factory_key(&self) -> usize {
        self.factory.factory_key()
    }

    /// The rollback window of matchers created by this pool.
    pub fn max_rollback(&self) -> usize {
        self.max_rollback
    }

    /// Takes a matcher positioned at the start of the constraint: a reset
    /// pooled matcher when one is idle, a freshly constructed one otherwise.
    pub fn acquire(&self) -> Box<dyn ConstraintMatcher> {
        let pooled = self.lock().pop();
        match pooled {
            Some(mut matcher) => {
                matcher.reset();
                self.reused.fetch_add(1, Ordering::Relaxed);
                matcher
            }
            None => {
                self.created.fetch_add(1, Ordering::Relaxed);
                Arc::clone(&self.factory).new_matcher(self.max_rollback)
            }
        }
    }

    /// Returns a matcher to the pool. Matchers built from a different
    /// compiled constraint or with a different rollback window (acquired
    /// matchers must be indistinguishable from freshly created ones), and
    /// matchers beyond the idle cap, are dropped instead.
    pub fn release(&self, matcher: Box<dyn ConstraintMatcher>) {
        if matcher.factory_key() != self.factory.factory_key()
            || matcher.max_rollback() != self.max_rollback
        {
            return;
        }
        let mut idle = self.lock();
        if idle.len() < self.max_idle {
            idle.push(matcher);
        }
    }

    /// Number of matchers currently idle in the pool.
    pub fn idle_count(&self) -> usize {
        self.lock().len()
    }

    /// Total matchers constructed by this pool.
    pub fn created(&self) -> u64 {
        self.created.load(Ordering::Relaxed)
    }

    /// Total acquisitions served by reusing a pooled matcher.
    pub fn reused(&self) -> u64 {
        self.reused.load(Ordering::Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Box<dyn ConstraintMatcher>>> {
        self.idle.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{CompilerConfig, GrammarCompiler};
    use crate::mask::TokenBitmask;
    use xg_tokenizer::test_vocabulary;

    fn pool() -> (Arc<xg_tokenizer::Vocabulary>, MatcherPool) {
        let vocab = Arc::new(test_vocabulary(600));
        let compiler = GrammarCompiler::new(Arc::clone(&vocab));
        let compiled = compiler
            .compile_ebnf(r#"root ::= "[" [0-9]+ "]""#, "root")
            .unwrap();
        (vocab, MatcherPool::new(compiled))
    }

    #[test]
    fn released_matchers_are_reset_before_reuse() {
        let (vocab, pool) = pool();
        let mut matcher = pool.acquire();
        matcher.accept_bytes(b"[12").unwrap();
        pool.release(matcher);
        let mut reused = pool.acquire();
        assert_eq!(pool.reused(), 1);
        // The reused matcher is indistinguishable from a fresh one: history
        // cleared and only '[' allowed at the start.
        assert_eq!(reused.rollback_window(), 0);
        assert!(!reused.is_terminated());
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        reused.fill_next_token_bitmask(&mut mask);
        for t in mask.allowed_tokens() {
            assert_eq!(vocab.token_bytes(t)[0], b'[');
        }
    }

    #[test]
    fn foreign_and_overflow_releases_are_dropped() {
        let (vocab, pool) = pool();
        // A matcher from a different compiled grammar is rejected.
        let other = GrammarCompiler::with_config(Arc::clone(&vocab), CompilerConfig::baseline())
            .compile_ebnf(r#"root ::= "x""#, "root")
            .unwrap();
        pool.release(MatcherPool::new(other).acquire());
        assert_eq!(pool.idle_count(), 0);
        // So is one with a different rollback window.
        let zero_window =
            MatcherPool::with_rollback_window(Arc::clone(pool.factory()), 4, 0).acquire();
        pool.release(zero_window);
        assert_eq!(pool.idle_count(), 0);
        // The idle cap bounds retained matchers.
        let tiny = MatcherPool::with_max_idle(Arc::clone(pool.factory()), 1);
        let a = tiny.acquire();
        let b = tiny.acquire();
        tiny.release(a);
        tiny.release(b);
        assert_eq!(tiny.idle_count(), 1);
    }

    #[test]
    fn pool_recycles_structural_tag_matchers_too() {
        use xg_grammar::{StructuralTag, TagContent, TagSpec};

        let vocab = Arc::new(test_vocabulary(600));
        let compiler = GrammarCompiler::new(Arc::clone(&vocab));
        let tag = StructuralTag::new(vec![TagSpec {
            begin: "<n>".into(),
            content: TagContent::Ebnf {
                text: "root ::= [0-9]+".into(),
                root: "root".into(),
            },
            end: "</n>".into(),
        }]);
        let dispatch = compiler.compile_tag_dispatch(&tag).unwrap();
        let pool = MatcherPool::new(dispatch);
        let mut matcher = pool.acquire();
        matcher.accept_bytes(b"hi <n>42</n>").unwrap();
        pool.release(matcher);
        let mut again = pool.acquire();
        assert_eq!(pool.created(), 1);
        assert_eq!(pool.reused(), 1);
        // The recycled matcher starts from free text again.
        assert!(again.can_terminate());
        again.accept_bytes(b"<n>7</n>").unwrap();
        assert!(again.can_terminate());
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let (_vocab, pool) = pool();
        let pool = Arc::new(pool);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let pool = Arc::clone(&pool);
                scope.spawn(move || {
                    for _ in 0..8 {
                        let mut m = pool.acquire();
                        m.accept_bytes(b"[1]").unwrap();
                        pool.release(m);
                    }
                });
            }
        });
        assert_eq!(pool.created() + pool.reused(), 32);
        assert!(pool.created() <= 4);
    }
}
