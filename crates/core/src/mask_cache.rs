//! The adaptive token mask cache (paper §3.1) and its construction.
//!
//! For every node of the pushdown automaton, the vocabulary is partitioned
//! into
//!
//! * **context-independent accepted** tokens — valid whenever that node is on
//!   top of the stack, regardless of what is below,
//! * **context-independent rejected** tokens — invalid regardless of the
//!   stack, and
//! * **context-dependent** tokens — their validity depends on the parent
//!   frames and must be resolved at runtime.
//!
//! The cache stores, per node, whichever two of the three sets are cheapest
//! (accept-heavy / reject-heavy / bitset storage, Figure 5), and the
//! runtime merges per-stack masks by a word-level union (Algorithm 1).
//!
//! Construction uses the persistent execution stack: tokens are classified in
//! lexicographic order and the matcher state is rolled back to the common
//! prefix with the previously classified token (paper §3.3), which cuts the
//! number of bytes that have to be matched to a fraction. The same order
//! makes a failed token speak for its neighbours: every following token that
//! shares the prefix the automaton died on is classified with it, unvisited
//! and unread (the sorted index jumps to the run's end), and a first byte the
//! node rejects takes its whole range of the order along. Its mirror image
//! serves the nodes that accept most of the vocabulary (a string body, XML
//! text, free text): a token whose bytes after the first all fall in byte
//! classes the node's automaton loops on is accepted from the set of classes
//! the sorted index keeps for it, unwalked. A node so costs the tokens it
//! keeps alive off its loops, not the vocabulary and not the tokens it
//! accepts.

use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use xg_automata::{Fsa, NodeId, Pda, PdaNode, SuffixMatch};
use xg_tokenizer::{
    byte_class, byte_class_members, common_prefix_len, SortedVocabulary, TokenId, Vocabulary,
};

use crate::executor::StepMemo;
use crate::mask::TokenBitmask;

/// Per-node storage of the token mask cache, in one of the three adaptive
/// formats of Figure 5. `uncertain` always holds the context-dependent
/// tokens, sorted by their byte strings so the runtime check can reuse
/// prefixes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeMaskEntry {
    /// Most tokens are accepted: store the rejected and context-dependent
    /// tokens.
    AcceptHeavy {
        /// Context-independent rejected tokens.
        rejected: Vec<TokenId>,
        /// Context-dependent tokens (sorted by byte string).
        uncertain: Vec<TokenId>,
    },
    /// Most tokens are rejected: store the accepted and context-dependent
    /// tokens.
    RejectHeavy {
        /// Context-independent accepted tokens.
        accepted: Vec<TokenId>,
        /// Context-dependent tokens (sorted by byte string).
        uncertain: Vec<TokenId>,
    },
    /// Accepted and rejected sets have comparable size: store a dense bitset
    /// of the accepted tokens.
    Bitset {
        /// Bit set over the vocabulary with accepted tokens set.
        accepted: TokenBitmask,
        /// Context-dependent tokens (sorted by byte string).
        uncertain: Vec<TokenId>,
    },
}

impl NodeMaskEntry {
    /// The context-dependent tokens of this node.
    pub fn uncertain(&self) -> &[TokenId] {
        match self {
            NodeMaskEntry::AcceptHeavy { uncertain, .. }
            | NodeMaskEntry::RejectHeavy { uncertain, .. }
            | NodeMaskEntry::Bitset { uncertain, .. } => uncertain,
        }
    }

    /// Approximate heap memory used by this entry, in bytes.
    pub fn memory_bytes(&self) -> usize {
        match self {
            NodeMaskEntry::AcceptHeavy {
                rejected,
                uncertain,
            } => (rejected.len() + uncertain.len()) * 4,
            NodeMaskEntry::RejectHeavy {
                accepted,
                uncertain,
            } => (accepted.len() + uncertain.len()) * 4,
            NodeMaskEntry::Bitset {
                accepted,
                uncertain,
            } => accepted.memory_bytes() + uncertain.len() * 4,
        }
    }
}

/// Statistics gathered while building the mask cache; these back several of
/// the paper's headline numbers (§3.1–§3.3).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MaskCacheStats {
    /// Number of automaton nodes (cache entries).
    pub nodes: usize,
    /// Vocabulary size used for classification (special tokens excluded).
    pub classified_tokens: usize,
    /// Sum over nodes of context-dependent tokens *before* context expansion.
    pub context_dependent_before_expansion: usize,
    /// Sum over nodes of context-dependent tokens *after* context expansion.
    pub context_dependent_after_expansion: usize,
    /// Maximum number of context-dependent tokens on any single node (after
    /// expansion).
    pub max_context_dependent_per_node: usize,
    /// Total cache memory (adaptive storage), in bytes.
    pub memory_bytes: usize,
    /// Memory a dense per-node bitmask layout would need, in bytes.
    pub dense_memory_bytes: usize,
    /// Bytes of token text a walk of every token in sorted order, rolled
    /// back to the prefix each shares with its predecessor, matches from a
    /// live state (the §3.3 statistic). It counts the tokens the build
    /// classifies without walking them as if they had been walked.
    pub preprocessing_bytes_matched: u64,
    /// The steps the automaton executed, for the tokens walked, for
    /// prefixes walked again and for loop tests; a worker's step memo
    /// answered the rest. A state's first miss counts one, however many
    /// dead bytes of its row it settles. Each worker has its own memo, so
    /// above one thread the count depends on scheduling.
    pub automaton_steps: u64,
    /// Of `automaton_steps`, those the loop tests took: each stepping the
    /// bytes of one byte class after one first byte, once per pair a token
    /// asks about. The rest are steps of the tokens walked.
    pub loop_test_steps: u64,
    /// Tokens walked through the automaton one by one, summed over nodes.
    /// The rest of `nodes * classified_tokens` was classified unwalked: in
    /// runs, by the prefix shared with a token that had already failed; in
    /// whole first-byte ranges, by a first byte the node rejects; or by a
    /// loop (`tokens_loop_accepted`). A node so costs the tokens it keeps
    /// alive off its loops, not the ones it accepts.
    pub tokens_visited: u64,
    /// Tokens accepted, summed over nodes, because every byte after their
    /// first falls in a byte class the node's automaton loops on after that
    /// first byte: no automaton work per token.
    pub tokens_loop_accepted: u64,
    /// Bytes of token text that would have been matched without sorted-prefix
    /// rollback (`nodes * total token bytes`).
    pub preprocessing_bytes_naive: u64,
}

impl MaskCacheStats {
    /// Fraction of context-dependent tokens removed by context expansion.
    pub fn expansion_reduction(&self) -> f64 {
        if self.context_dependent_before_expansion == 0 {
            return 0.0;
        }
        1.0 - self.context_dependent_after_expansion as f64
            / self.context_dependent_before_expansion as f64
    }

    /// Ratio of adaptive-storage memory to dense-bitmask memory.
    pub fn memory_ratio(&self) -> f64 {
        if self.dense_memory_bytes == 0 {
            return 0.0;
        }
        self.memory_bytes as f64 / self.dense_memory_bytes as f64
    }

    /// Fraction of token bytes matched during preprocessing relative to the
    /// naive (unsorted, no rollback) strategy.
    pub fn preprocessing_check_fraction(&self) -> f64 {
        if self.preprocessing_bytes_naive == 0 {
            return 0.0;
        }
        self.preprocessing_bytes_matched as f64 / self.preprocessing_bytes_naive as f64
    }
}

/// What one node's entry is built from: the automaton, the vocabulary and its
/// sorted index, and, when context expansion is on, every rule's
/// expanded-suffix automaton.
#[derive(Clone, Copy)]
pub(crate) struct EntrySource<'a> {
    pub(crate) pda: &'a Pda,
    pub(crate) vocab: &'a Vocabulary,
    pub(crate) sorted: &'a SortedVocabulary,
    pub(crate) suffix_fsas: Option<&'a [Fsa]>,
}

impl EntrySource<'_> {
    /// A pure-return node outside the root rule is never a stack top (the
    /// matcher pops it on arrival), so no mask is ever read there: its entry
    /// rejects every token and nothing of it is counted.
    fn never_top(&self, node: &PdaNode) -> bool {
        node.is_pure_return() && node.rule != self.pda.root()
    }

    /// [`classify_node`] over this source's automaton and sorted index.
    fn classify(&self, memo: &mut StepMemo, node: NodeId, fsa: Option<&Fsa>) -> NodeClassification {
        classify_node(self.pda, memo, node, self.sorted, fsa)
    }
}

/// A built entry and the counts its classification took.
#[derive(Debug)]
struct BuiltEntry {
    entry: NodeMaskEntry,
    counts: ClassificationCounts,
}

/// The adaptive token mask cache: one entry per automaton node, each built
/// once, by whoever reads it first. [`build_mask_cache`] builds every entry;
/// a [`CompiledGrammar`](crate::CompiledGrammar) builds a node's entry on the
/// first mask fill whose stack rests on it.
#[derive(Debug)]
pub struct MaskCache {
    /// Unique per cache: names the automaton a thread's step memo holds the
    /// states of.
    id: u64,
    slots: Vec<OnceLock<BuiltEntry>>,
    /// Heap bytes of the entries built so far.
    built_bytes: AtomicUsize,
    /// The statistics no entry contributes to: node and vocabulary sizes and
    /// the naive byte count.
    totals: MaskCacheStats,
}

impl MaskCache {
    /// A cache for `source`'s automaton with no entry built yet.
    pub(crate) fn new(source: &EntrySource) -> Self {
        let (pda, sorted) = (source.pda, source.sorted);
        let node_count = pda.node_count();
        let classified = pda.nodes().iter().filter(|n| !source.never_top(n)).count();
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        MaskCache {
            // Relaxed: only uniqueness matters.
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            slots: (0..node_count).map(|_| OnceLock::new()).collect(),
            built_bytes: AtomicUsize::new(0),
            totals: MaskCacheStats {
                nodes: node_count,
                classified_tokens: sorted.len(),
                dense_memory_bytes: node_count * source.vocab.len().div_ceil(8),
                preprocessing_bytes_naive: classified as u64 * sorted.total_bytes() as u64,
                ..Default::default()
            },
        }
    }

    /// Returns the entry for a node.
    ///
    /// # Panics
    ///
    /// Panics if the node id is out of range or its entry is not built; a
    /// cache from [`build_mask_cache`] has every entry built.
    pub fn entry(&self, node: NodeId) -> &NodeMaskEntry {
        let built = self.slots[node.index()].get();
        &built.expect("the entry is built").entry
    }

    /// The entry of `node`, built from `source` on its first read. Readers
    /// racing on an unbuilt entry wait for the one that builds it.
    #[inline]
    pub(crate) fn get_or_build(&self, source: &EntrySource, node: NodeId) -> &NodeMaskEntry {
        match self.slots[node.index()].get() {
            Some(built) => &built.entry,
            None => self.build_cold(source, node),
        }
    }

    /// Builds one entry with the step memo this thread last built an entry
    /// of this cache with, as an eager build's worker keeps one memo for all
    /// its nodes: one node's walk discovers its siblings' states. (A fresh
    /// memo per entry executed 16 times the automaton steps over the twelve
    /// cold schemas, and took 5 times as long.) The memo is taken out while
    /// in use, so an unwinding build leaves none behind; a thread keeps one,
    /// of at most `MAX_MEMO_STATES` states, until it builds for another cache.
    #[cold]
    #[inline(never)]
    fn build_cold(&self, source: &EntrySource, node: NodeId) -> &NodeMaskEntry {
        thread_local! {
            static MEMO: RefCell<Option<(u64, StepMemo)>> = const { RefCell::new(None) };
        }
        let held = MEMO.with_borrow_mut(Option::take);
        let mut memo = match held {
            Some((id, memo)) if id == self.id => memo,
            _ => StepMemo::new(),
        };
        let entry = self.build(source, &mut memo, node, |memo, node, fsa| {
            source.classify(memo, node, fsa)
        });
        MEMO.set(Some((self.id, memo)));
        entry
    }

    /// Builds the entry of `node` with `classify` unless it is built.
    fn build(
        &self,
        source: &EntrySource,
        memo: &mut StepMemo,
        node: NodeId,
        classify: impl FnOnce(&mut StepMemo, NodeId, Option<&Fsa>) -> NodeClassification,
    ) -> &NodeMaskEntry {
        let built = self.slots[node.index()].get_or_init(|| {
            let pda_node = source.pda.node(node);
            let classification = match source.never_top(pda_node) {
                true => NodeClassification::default(),
                false => {
                    let fsa = source.suffix_fsas.map(|f| &f[pda_node.rule.index()]);
                    classify(memo, node, fsa)
                }
            };
            let counts = classification.counts;
            let entry = make_entry(source.vocab, source.sorted, classification);
            // Relaxed: a gauge; the entry itself is published by the lock.
            self.built_bytes
                .fetch_add(entry.memory_bytes(), Ordering::Relaxed);
            BuiltEntry { entry, counts }
        });
        &built.entry
    }

    /// Builds every entry not built yet, on `num_threads` workers (0 = the
    /// available parallelism), each classifying with a step memo of its own.
    fn complete(
        &self,
        source: &EntrySource,
        num_threads: usize,
        classify: impl Fn(&mut StepMemo, NodeId, Option<&Fsa>) -> NodeClassification + Sync,
    ) {
        let node_count = self.len();
        if self.built_entries() == node_count {
            return;
        }
        // A cgroup read, next to a millisecond build: taken once per process.
        static AVAILABLE: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
        let num_threads = match num_threads {
            0 => *AVAILABLE
                .get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
            n => n,
        };
        // Nodes differ in cost by orders of magnitude (a literal's node keeps
        // one prefix alive, a string body's most of the vocabulary), so the
        // workers draw them one at a time from a shared counter.
        let next = AtomicUsize::new(0);
        let worker = || {
            let mut memo = StepMemo::new();
            loop {
                // Relaxed: the counter hands out indices and publishes
                // nothing; the entries are published by their locks.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= node_count {
                    return;
                }
                self.build(source, &mut memo, NodeId(i as u32), &classify);
            }
        };
        // The calling thread is the last worker.
        if num_threads <= 1 || node_count < num_threads {
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 1..num_threads {
                    scope.spawn(worker);
                }
                worker();
            });
        }
    }

    /// Builds every entry not built yet (see [`build_mask_cache`]).
    pub(crate) fn complete_from(&self, source: &EntrySource, num_threads: usize) {
        self.complete(source, num_threads, |memo, node, fsa| {
            source.classify(memo, node, fsa)
        });
    }

    /// Number of entries (= automaton nodes).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Returns `true` if the cache has no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of entries built so far.
    pub(crate) fn built_entries(&self) -> usize {
        self.slots
            .iter()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// Heap bytes of the entries built so far.
    pub(crate) fn built_bytes(&self) -> usize {
        self.built_bytes.load(Ordering::Relaxed)
    }

    /// Build statistics, summed over the entries built so far.
    pub fn stats(&self) -> MaskCacheStats {
        let mut stats = self.totals;
        for BuiltEntry { entry, counts } in self.slots.iter().filter_map(OnceLock::get) {
            let uncertain = entry.uncertain().len();
            stats.context_dependent_before_expansion += counts.uncertain_before_expansion;
            stats.context_dependent_after_expansion += uncertain;
            stats.max_context_dependent_per_node =
                stats.max_context_dependent_per_node.max(uncertain);
            stats.memory_bytes += entry.memory_bytes();
            stats.preprocessing_bytes_matched += counts.bytes_matched;
            stats.automaton_steps += counts.automaton_steps;
            stats.loop_test_steps += counts.loop_test_steps;
            stats.tokens_visited += counts.tokens_visited;
            stats.tokens_loop_accepted += counts.tokens_loop_accepted;
        }
        stats
    }
}

/// Result of classifying the whole vocabulary for one node: the accepted
/// tokens as ranges of the sorted order, the context-dependent ones as ids.
/// The rejected tokens are whatever of the sorted vocabulary is in neither;
/// only an accept-heavy entry ever needs them spelled out, and it finds them
/// between the accepted ranges, so a node that accepts most tokens costs
/// the ones it does not.
#[derive(Debug, Default)]
struct NodeClassification {
    accepted: Vec<Range<usize>>,
    uncertain: Vec<TokenId>,
    counts: ClassificationCounts,
}

/// What classifying one node took, kept with its entry for
/// [`MaskCache::stats`].
#[derive(Debug, Default, Clone, Copy)]
struct ClassificationCounts {
    uncertain_before_expansion: usize,
    bytes_matched: u64,
    automaton_steps: u64,
    loop_test_steps: u64,
    tokens_visited: u64,
    tokens_loop_accepted: u64,
}

impl NodeClassification {
    /// Records the tokens `range` of the sorted order as accepted.
    fn accept(&mut self, range: Range<usize>) {
        match self.accepted.last_mut() {
            Some(last) if last.end == range.start => last.end = range.end,
            _ => self.accepted.push(range),
        }
    }
}

/// What a token that died in the trail is: context-dependent (`true`) if the
/// remainder after some pop-out can match a parent context, rejected
/// (`false`) if no remainder can. Also returns how many of the token's bytes
/// the verdict read. A remainder the suffix automaton leaves undecided is a
/// prefix of what a parent context accepts, so that verdict also depends on
/// where the token ends: it reads one byte past the end. Without a suffix
/// automaton (no context expansion, §3.2) any pop-out makes the token
/// context-dependent, and no byte after the pop-outs matters.
fn is_context_dependent(
    mut popouts: impl Iterator<Item = usize>,
    token: &[u8],
    suffix_fsa: Option<&Fsa>,
) -> (bool, usize) {
    let Some(fsa) = suffix_fsa else {
        return (popouts.next().is_some(), 0);
    };
    let (mut read, mut undecided) = (0, false);
    for offset in popouts {
        match fsa.decide_prefix(&token[offset..]) {
            Some((SuffixMatch::Possible, n)) => return (true, offset + n),
            Some((SuffixMatch::Rejected, n)) => read = read.max(offset + n),
            None => undecided = true,
        }
    }
    if undecided {
        (true, token.len() + 1)
    } else {
        (false, read)
    }
}

/// For each first byte `c` of a token, the [byte classes](byte_class_members)
/// the node's automaton loops on after it: class `k` loops when every byte
/// of it takes `s1 = step(s0, c)` and a live state `T_c` each to one of the
/// two. A token whose later bytes all fall in looping classes never leaves
/// the pair, so it is accepted without being walked. `T_c` is the state the
/// first looping class found leads to from `s1` (through its first byte, the
/// witness); it is `s1` itself when `s1` loops. The pair, and not one state,
/// because a state is a head sequence in the order the step produced it, and
/// a step over two heads can reverse their order: an identifier inside a
/// nested expression alternates between two states with the same stacks.
/// Each (`c`, class) pair is tested once, when a token first asks. Only bit
/// sets and a byte are kept, no state id: a memo clear forgets the states,
/// and the test derives them again from the node's start.
struct LoopClasses<'a> {
    pda: &'a Pda,
    node: NodeId,
    tested: [u64; 256],
    looping: [u64; 256],
    witness: [u8; 256],
    /// The memo misses the tests took.
    steps: u64,
}

impl<'a> LoopClasses<'a> {
    fn new(pda: &'a Pda, node: NodeId) -> Self {
        LoopClasses {
            pda,
            node,
            tested: [0; 256],
            looping: [0; 256],
            witness: [0; 256],
            steps: 0,
        }
    }

    /// The classes that loop after `c` among those of `tail` and those tested
    /// before; `step(s0, c)` must be live. A test may clear the memo, and
    /// with it `trail`.
    #[inline]
    fn after(&mut self, memo: &mut StepMemo, trail: &mut Vec<u32>, c: u8, tail: u64) -> u64 {
        let untested = tail & !self.tested[usize::from(c)];
        if untested != 0 {
            self.test(memo, trail, c, untested);
        }
        self.looping[usize::from(c)]
    }

    /// Tests `classes` after `c`. While none loops, the lower-case class is
    /// tried first, asked for or not: the class most tokens continue with
    /// then fixes `T_c`, and not whatever the first token asks for, which in
    /// byte order is a newline or a space as often as not.
    #[cold]
    #[inline(never)]
    fn test(&mut self, memo: &mut StepMemo, trail: &mut Vec<u32>, c: u8, mut classes: u64) {
        let (at, lower, misses_before) = (usize::from(c), byte_class(b'a'), memo.misses);
        if self.looping[at] == 0 && self.tested[at] & 1 << lower == 0 {
            self.test_class(memo, trail, c, lower);
            classes &= !(1 << lower);
        }
        while classes != 0 {
            self.test_class(memo, trail, c, classes.trailing_zeros() as usize);
            classes &= classes - 1;
        }
        self.steps += memo.misses - misses_before;
    }

    fn test_class(&mut self, memo: &mut StepMemo, trail: &mut Vec<u32>, c: u8, class: usize) {
        let (pda, at) = (self.pda, usize::from(c));
        self.tested[at] |= 1 << class;
        let bytes = byte_class_members(class);
        // `s1`, `T_c`, and one state off the pair: three steps at most.
        memo.make_room(trail, 3);
        let s0 = memo.start(self.node, trail);
        let s1 = memo.step(pda, s0, c);
        let witness = match self.looping[at] {
            0 => *bytes.start(),
            _ => self.witness[at],
        };
        let target = memo.step(pda, s1, witness);
        let on_pair = |state| state == s1 || state == target;
        let stays = |b| on_pair(memo.step(pda, s1, b)) && on_pair(memo.step(pda, target, b));
        if target != 0 && bytes.clone().all(stays) {
            self.witness[at] = witness;
            self.looping[at] |= 1 << class;
        }
    }
}

/// Classifies every (non-special) token against a single automaton node,
/// using sorted-order prefix sharing. `suffix_fsa`, when provided, is the
/// expanded-suffix automaton of the node's rule and is used to reject
/// context-dependent tokens whose remainder cannot match any parent context
/// (context expansion, §3.2).
///
/// The tokens starting with one byte `c` are one range of the sorted order.
/// When `c` is dead at the node's start and the start cannot pop out, the
/// range is rejected whole, unvisited. When `c` is live, a token whose
/// later bytes all fall in [`LoopClasses`] after `c` is accepted unwalked,
/// from its [tail classes](SortedVocabulary::tail_classes) alone, with every
/// such token that follows it. Every other token is walked, keeping the
/// prefix it shares with the last token walked. A token the trail dies on at
/// byte `p` takes the whole run of following tokens that share with it both
/// `token[..=p]` and the bytes the suffix automaton's verdict read: they
/// reach the same dead state with the same pop-outs and the same verdict, so
/// the run is classified without being visited, and its end is found by
/// [`SortedVocabulary::run_end`] in at most one jump per byte of the shared
/// prefix. The work is proportional to the prefixes the node keeps alive off
/// its loops and to what the suffix automaton reads, not to the vocabulary.
/// Token bytes come from the sorted index's arena, in the order the walk
/// visits them.
fn classify_node(
    pda: &Pda,
    memo: &mut StepMemo,
    node: NodeId,
    sorted: &SortedVocabulary,
    suffix_fsa: Option<&Fsa>,
) -> NodeClassification {
    let misses_before = memo.misses;
    let mut loops = LoopClasses::new(pda, node);
    let mut out = NodeClassification::default();
    let (ids, lcp, tails) = (sorted.ids(), sorted.lcp(), sorted.tail_classes());
    // The states after each byte of the last token walked, its bytes, and
    // whether tokens accepted by a loop came after it: only then does the
    // next token walked share less with it than its own LCP. (The smallest
    // LCP since the last walk says the same, but reading the LCP of every
    // token a loop accepts made the one-thread XML build ≈ 25 % slower and
    // the tool-trigger segments' ≈ 50 %.)
    let mut trail = Vec::new();
    let (mut walked, mut looped): (&[u8], bool) = (&[], false);
    let empty = 0..sorted.starting_with(0).start;
    let by_first = (0..=255).map(|c| (Some(c), sorted.starting_with(c)));
    for (first, range) in std::iter::once((None, empty)).chain(by_first) {
        if range.is_empty() {
            continue;
        }
        let mut live_first = None;
        if let Some(c) = first {
            memo.make_room(&mut trail, 1);
            let s0 = memo.start(node, &mut trail);
            if memo.step(pda, s0, c) != 0 {
                live_first = Some(c);
            } else if !memo.pops_out(s0) {
                // Each token dies on its first byte with nothing to pop.
                out.counts.bytes_matched += 1;
                continue;
            }
        }
        let mut i = range.start;
        while i < range.end {
            if let Some(c) = live_first {
                let looping = loops.after(memo, &mut trail, c, tails[i]);
                if tails[i] & !looping == 0 {
                    let end = i + tails[i..range.end]
                        .iter()
                        .take_while(|&&tail| tail & !looping == 0)
                        .count();
                    out.accept(i..end);
                    out.counts.tokens_loop_accepted += (end - i) as u64;
                    out.counts.bytes_matched += sorted.chars_to_check_in(i..end) as u64;
                    looped = true;
                    i = end;
                    continue;
                }
            }
            let bytes = sorted.token(i);
            out.counts.tokens_visited += 1;
            let keep = match looped {
                true => common_prefix_len(walked, bytes),
                false => lcp[i],
            };
            (walked, looped) = (bytes, false);
            let Err(died_at) = memo.match_token(pda, node, &mut trail, bytes, keep) else {
                out.accept(i..i + 1);
                out.counts.bytes_matched += sorted.chars_to_check_in(i..i + 1) as u64;
                i += 1;
                continue;
            };
            out.counts.bytes_matched += (died_at + 1).saturating_sub(lcp[i]) as u64;
            let (context_dependent, read) =
                is_context_dependent(memo.popout_offsets(&trail), bytes, suffix_fsa);
            let run_end = sorted.run_end(i, read.max(died_at + 1));
            // Any pop-out means the remainder could be matched by a parent
            // context; context expansion filtered those that cannot.
            if memo.popout_offsets(&trail).next().is_some() {
                out.counts.uncertain_before_expansion += run_end - i;
            }
            if context_dependent {
                out.uncertain.extend_from_slice(&ids[i..run_end]);
            }
            i = run_end;
        }
    }
    out.counts.automaton_steps = memo.misses - misses_before;
    out.counts.loop_test_steps = loops.steps;
    out
}

/// Options for building the mask cache.
#[derive(Debug, Clone, Default)]
pub struct MaskCacheBuildOptions {
    /// Number of worker threads (0 = use available parallelism).
    pub num_threads: usize,
}

/// Builds the adaptive token mask cache for every node of the PDA.
///
/// Context expansion applies when `suffix_fsas` holds one expanded-suffix
/// automaton per PDA rule (see [`xg_automata::extract_all_suffix_fsas`]);
/// `None` builds without it.
pub fn build_mask_cache(
    pda: &Pda,
    vocab: &Vocabulary,
    sorted: &SortedVocabulary,
    suffix_fsas: Option<&[Fsa]>,
    options: &MaskCacheBuildOptions,
) -> MaskCache {
    let source = EntrySource {
        pda,
        vocab,
        sorted,
        suffix_fsas,
    };
    let cache = MaskCache::new(&source);
    cache.complete_from(&source, options.num_threads);
    cache
}

/// Chooses the cheapest of the three storage formats (Figure 5).
fn make_entry(
    vocab: &Vocabulary,
    sorted: &SortedVocabulary,
    classification: NodeClassification,
) -> NodeMaskEntry {
    let NodeClassification {
        accepted,
        mut uncertain,
        ..
    } = classification;
    // Keep context-dependent tokens sorted by byte string (they already are,
    // since classification visits tokens in sorted order), so the runtime
    // check can reuse prefixes. Assert in debug builds.
    debug_assert!(uncertain
        .windows(2)
        .all(|w| vocab.token_bytes(w[0]) <= vocab.token_bytes(w[1])));
    uncertain.shrink_to_fit();

    let ids = sorted.ids();
    let accepted_count = accepted.iter().map(ExactSizeIterator::len).sum::<usize>();
    let accepted_ids = accepted.iter().flat_map(|range| &ids[range.clone()]);
    let accept_heavy_cost = (sorted.len() - accepted_count) * 4;
    let reject_heavy_cost = (accepted_count + uncertain.len()) * 4;
    let bitset_cost = vocab.len().div_ceil(8) + uncertain.len() * 4;
    if accept_heavy_cost <= reject_heavy_cost && accept_heavy_cost <= bitset_cost {
        // The rejected tokens are the sorted ids between the accepted ranges
        // but the context-dependent ones, which are in sorted order too.
        let gap_starts = std::iter::once(0).chain(accepted.iter().map(|range| range.end));
        let gap_ends = accepted
            .iter()
            .map(|range| range.start)
            .chain([sorted.len()]);
        let mut u = uncertain.iter().peekable();
        let mut rejected = Vec::with_capacity(sorted.len() - accepted_count - uncertain.len());
        for gap in gap_starts
            .zip(gap_ends)
            .map(|(start, end)| &ids[start..end])
        {
            rejected.extend(gap.iter().filter(|id| u.next_if_eq(id).is_none()));
        }
        NodeMaskEntry::AcceptHeavy {
            rejected,
            uncertain,
        }
    } else if reject_heavy_cost <= bitset_cost {
        NodeMaskEntry::RejectHeavy {
            accepted: accepted_ids.copied().collect(),
            uncertain,
        }
    } else {
        let mut mask = TokenBitmask::new_all_rejected(vocab.len());
        for &t in accepted_ids {
            mask.allow(t);
        }
        NodeMaskEntry::Bitset {
            accepted: mask,
            uncertain,
        }
    }
}

#[cfg(test)]
#[path = "mask_cache_tests.rs"]
pub(crate) mod differential;

#[cfg(test)]
mod tests {
    use super::*;
    use xg_automata::{build_pda, extract_all_suffix_fsas, PdaBuildOptions};
    use xg_grammar::parse_ebnf;
    use xg_tokenizer::test_vocabulary;

    fn build_all(
        grammar_text: &str,
        vocab: &Vocabulary,
        context_expansion: bool,
    ) -> (Pda, MaskCache) {
        let g = parse_ebnf(grammar_text, "root").unwrap();
        let pda = build_pda(&g, &PdaBuildOptions::default());
        let sorted = SortedVocabulary::new(vocab);
        let fsas = extract_all_suffix_fsas(&pda);
        let cache = build_mask_cache(
            &pda,
            vocab,
            &sorted,
            context_expansion.then_some(&fsas[..]),
            &MaskCacheBuildOptions { num_threads: 2 },
        );
        (pda, cache)
    }

    #[test]
    fn cache_has_one_entry_per_node() {
        let vocab = test_vocabulary(600);
        let (pda, cache) = build_all(r#"root ::= "[" [a-z]* "]""#, &vocab, true);
        assert_eq!(cache.len(), pda.node_count());
    }

    #[test]
    fn root_start_accepts_only_open_bracket() {
        let vocab = test_vocabulary(600);
        let (pda, cache) = build_all(r#"root ::= "[" [a-z]* "]""#, &vocab, true);
        let entry = cache.entry(pda.root_start());
        // At the very start only tokens beginning with `[` can be valid, so
        // the entry must be reject-heavy (or a bitset with few bits).
        match entry {
            NodeMaskEntry::RejectHeavy { accepted, .. } => {
                for t in accepted {
                    assert_eq!(vocab.token_bytes(*t)[0], b'[');
                }
                assert!(!accepted.is_empty());
            }
            other => panic!("expected reject-heavy storage at the start node, got {other:?}"),
        }
    }

    #[test]
    fn wildcard_nodes_are_accept_heavy() {
        // A large enough vocabulary that a small rejected list beats the
        // dense bitset (with tiny vocabularies the bitset is always cheapest
        // and the adaptive format rightly picks it).
        let vocab = test_vocabulary(8000);
        // Inside the character class almost everything is accepted (only
        // tokens containing a NUL byte are rejected), so the rejected list is
        // far cheaper than a bitset.
        let (pda, cache) = build_all(r#"root ::= "x" [^\x00]* "y""#, &vocab, true);
        let accept_heavy = (0..pda.node_count()).any(|i| {
            matches!(
                cache.entry(NodeId(i as u32)),
                NodeMaskEntry::AcceptHeavy { .. }
            )
        });
        assert!(accept_heavy, "expected at least one accept-heavy node");
    }

    #[test]
    fn pure_return_nodes_get_an_empty_entry_and_count_nothing() {
        // `element`'s final node has no edges and an accept-everything suffix
        // automaton: classified, it would hold the whole vocabulary as
        // context-dependent tokens nobody ever reads.
        let vocab = test_vocabulary(2000);
        let (pda, cache) = build_all(xg_grammar::builtin::XML_EBNF, &vocab, true);
        let mut skipped = 0;
        for (i, node) in pda.nodes().iter().enumerate() {
            if node.is_pure_return() && node.rule != pda.root() {
                skipped += 1;
                assert_eq!(
                    cache.entry(NodeId(i as u32)),
                    &NodeMaskEntry::RejectHeavy {
                        accepted: Vec::new(),
                        uncertain: Vec::new()
                    }
                );
            }
        }
        assert!(skipped > 0, "the XML grammar has pure-return nodes");
        let stats = cache.stats();
        assert!(stats.max_context_dependent_per_node < stats.classified_tokens / 10);
        assert_eq!(
            stats.preprocessing_bytes_naive,
            (pda.node_count() - skipped) as u64
                * SortedVocabulary::new(&vocab).total_bytes() as u64
        );
    }

    #[test]
    fn context_expansion_reduces_uncertain_tokens() {
        let vocab = test_vocabulary(2000);
        let grammar = r#"
            root ::= "[" ((str ",")* str)? "]"
            str ::= "\"" [a-z]* "\""
        "#;
        let (_, without) = build_all(grammar, &vocab, false);
        let (_, with) = build_all(grammar, &vocab, true);
        assert!(
            with.stats().context_dependent_after_expansion
                <= without.stats().context_dependent_after_expansion
        );
        assert!(with.stats().expansion_reduction() >= 0.0);
    }

    #[test]
    fn adaptive_memory_is_much_smaller_than_dense() {
        let vocab = test_vocabulary(4000);
        let (_, cache) = build_all(
            r#"
            root ::= obj
            obj ::= "{" (pair ("," pair)*)? "}"
            pair ::= "\"" [a-z]+ "\"" ":" val
            val ::= obj | "\"" [a-z]* "\"" | [0-9]+
            "#,
            &vocab,
            true,
        );
        let stats = cache.stats();
        // With a small test vocabulary the win is modest (the realistic-scale
        // ratio is measured by the benchmark harness against a 128k
        // vocabulary); here we check the direction and that context
        // expansion keeps the per-node context-dependent sets tiny.
        assert!(
            stats.memory_bytes < stats.dense_memory_bytes,
            "adaptive {} vs dense {}",
            stats.memory_bytes,
            stats.dense_memory_bytes
        );
        assert!(
            stats.max_context_dependent_per_node <= stats.classified_tokens / 100,
            "too many context-dependent tokens per node: {}",
            stats.max_context_dependent_per_node
        );
    }

    #[test]
    fn prefix_sharing_reduces_preprocessing_work() {
        let vocab = test_vocabulary(2000);
        let (_, cache) = build_all(r#"root ::= [a-z ]*"#, &vocab, true);
        let stats = cache.stats();
        assert!(stats.preprocessing_bytes_matched < stats.preprocessing_bytes_naive);
        assert!(stats.preprocessing_check_fraction() < 1.0);
    }

    #[test]
    fn classification_is_consistent_with_reference_matcher() {
        // For the tokens classified as context-independent accepted at the
        // root start node, the reference matcher must agree they are valid
        // prefixes of a sentence.
        let vocab = test_vocabulary(600);
        let grammar = r#"root ::= "{" [a-z]* "}""#;
        let (pda, cache) = build_all(grammar, &vocab, true);
        let entry = cache.entry(pda.root_start());
        if let NodeMaskEntry::RejectHeavy { accepted, .. } = entry {
            for t in accepted {
                let bytes = vocab.token_bytes(*t);
                let mut m = xg_automata::SimpleMatcher::new(&pda);
                assert!(
                    m.advance_bytes(bytes),
                    "token {:?} was classified accepted but the reference matcher rejects it",
                    String::from_utf8_lossy(bytes)
                );
            }
        } else {
            panic!("start node should be reject-heavy");
        }
    }
}
