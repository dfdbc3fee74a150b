//! Tag dispatch: free text interleaved with grammar-constrained tagged
//! segments — the compiled artifact and its compile / update path.
//!
//! This is the compile-time half of the runtime for [`StructuralTag`]
//! descriptions (the agentic tool-calling scenario); the matcher that runs a
//! [`CompiledTagDispatch`] is [`StructuralTagMatcher`](crate::StructuralTagMatcher)
//! in `tag_matcher.rs`. A compiled dispatch holds, per trigger string, the
//! segment grammar that takes over once the trigger fires (remainder of the
//! begin tag, the content grammar, the end tag, then the free-text
//! continuation tail of [`xg_grammar::append_free_text_tail`]) and an
//! [`AhoCorasick`] scanner over all triggers.
//!
//! Compilation lives on [`GrammarCompiler::compile_tag_dispatch`]: every
//! per-trigger combined grammar goes through the ordinary compile path, so
//! repeated tool schemas hit the shared [`GrammarCache`](crate::GrammarCache)
//! like any other grammar. The compiled registry as a whole lives in the
//! compiler's [`TagDispatchCache`](crate::TagDispatchCache).

use std::sync::Arc;

use xg_automata::AhoCorasick;
use xg_grammar::{DispatchDelta, GrammarError, StructuralTag};
use xg_tokenizer::Vocabulary;

use crate::compiler::{CompiledGrammar, GrammarCompiler};
use crate::constraint::{CompiledConstraint, ConstraintMatcher};
use crate::tag_matcher::StructuralTagMatcher;

/// One compiled trigger: the byte string scanned for in free text and the
/// combined grammar that takes over once it fires.
#[derive(Debug)]
pub struct CompiledTrigger {
    trigger: Vec<u8>,
    grammar: Arc<CompiledGrammar>,
}

impl CompiledTrigger {
    /// The trigger byte string.
    pub fn trigger(&self) -> &[u8] {
        &self.trigger
    }

    /// The compiled segment grammar dispatched to by this trigger: the
    /// combined grammar (begin-tag remainder, content, end tag) followed by
    /// the free-text continuation tail, so its masks admit tokens that close
    /// the segment and continue with prose.
    pub fn grammar(&self) -> &Arc<CompiledGrammar> {
        &self.grammar
    }
}

/// A [`StructuralTag`] compiled against a vocabulary: the trigger strings,
/// their combined grammars, and the Aho–Corasick scanner over all triggers,
/// ready to instantiate [`StructuralTagMatcher`]s.
///
/// Per-trigger state is `Arc`-shared so an incrementally updated dispatch
/// (see [`GrammarCompiler::update_tag_dispatch`]) reuses the untouched
/// triggers of its base instead of recompiling the whole registry.
#[derive(Debug)]
pub struct CompiledTagDispatch {
    triggers: Vec<Arc<CompiledTrigger>>,
    scanner: AhoCorasick,
    vocab: Arc<Vocabulary>,
    /// The registry description this dispatch was compiled from; deltas are
    /// applied against it.
    source: StructuralTag,
}

impl CompiledTagDispatch {
    /// The compiled triggers, in `StructuralTag::effective_triggers` order.
    pub fn triggers(&self) -> &[Arc<CompiledTrigger>] {
        &self.triggers
    }

    /// The Aho–Corasick automaton scanning free text for all triggers at
    /// once. Pattern indices match [`triggers`](Self::triggers) order.
    pub fn scanner(&self) -> &AhoCorasick {
        &self.scanner
    }

    /// The vocabulary the sub-grammars were compiled against.
    pub fn vocabulary(&self) -> &Arc<Vocabulary> {
        &self.vocab
    }

    /// The [`StructuralTag`] description this dispatch was compiled from.
    /// [`GrammarCompiler::update_tag_dispatch`] applies registry deltas
    /// against it.
    pub fn source_tag(&self) -> &StructuralTag {
        &self.source
    }
}

impl CompiledConstraint for CompiledTagDispatch {
    fn new_session(self: Arc<Self>) -> Box<dyn ConstraintMatcher> {
        Box::new(StructuralTagMatcher::new(self))
    }

    /// The per-trigger compiled segment grammars (dominant — each carries an
    /// adaptive mask cache) plus the trigger strings and the Aho–Corasick
    /// scanner. Sub-grammars shared with the
    /// [`GrammarCache`](crate::GrammarCache) are counted here too: the
    /// dispatch pins them beyond that cache's budget, so they are the
    /// [`TagDispatchCache`](crate::TagDispatchCache)'s responsibility for as
    /// long as the dispatch lives.
    fn memory_bytes(&self) -> usize {
        let grammars: usize = self
            .triggers
            .iter()
            .map(|t| t.grammar.memory_bytes() + t.trigger.len())
            .sum();
        // Each scanner state holds a 256-way transition row plus match data.
        grammars + self.scanner.state_count() * 256
    }
}

impl GrammarCompiler {
    /// Compiles a [`StructuralTag`] description: every trigger's combined
    /// grammar (begin-tag remainder, content, end tag over the dispatched
    /// tags, plus the free-text continuation tail) runs through the ordinary
    /// cached compile path, so shared tool schemas are compiled once per
    /// [`GrammarCache`](crate::GrammarCache) — *across registries too*:
    /// segment-grammar rule names depend only on the trigger's own tags, so
    /// two registries sharing a tool share its compiled sub-grammar. The
    /// dispatch as a whole is cached in this compiler's budgeted
    /// [`TagDispatchCache`](crate::TagDispatchCache), so serving batches
    /// that re-submit the same tool registry skip the schema-to-grammar
    /// conversion, combined-grammar construction and trigger-scanner build
    /// too — and admission workers racing on one uncached registry build it
    /// once.
    ///
    /// # Errors
    ///
    /// Returns the structural-tag validation error or the content grammars'
    /// parse/conversion errors. A rejected registry is not cached.
    pub fn compile_tag_dispatch(
        &self,
        tag: &StructuralTag,
    ) -> Result<Arc<CompiledTagDispatch>, GrammarError> {
        let build = || {
            let triggers = tag.effective_triggers();
            let assignments = tag.trigger_assignments()?;
            let mut compiled_triggers = Vec::with_capacity(triggers.len());
            for (trigger, tag_indices) in triggers.iter().zip(&assignments) {
                compiled_triggers.push(self.compile_trigger_segment(tag, trigger, tag_indices)?);
            }
            Ok(self.assemble_dispatch(tag, compiled_triggers))
        };
        let cached = self.dispatch_cache().get_or_try_build(tag, build);
        cached.map(|(dispatch, _)| dispatch)
    }

    /// Incrementally recompiles a registry mutation: applies `delta` to
    /// `base`'s source description, recompiles *only* the triggers whose
    /// dispatched tag set actually changed (for [`DispatchDelta::AddTag`]
    /// with per-tag triggers, exactly one), reuses every untouched
    /// [`CompiledTrigger`] of `base` — compiled segment grammar included — and
    /// rebuilds the Aho–Corasick scanner over the new trigger set. The result
    /// is cached like a full compile, so a later
    /// [`compile_tag_dispatch`](Self::compile_tag_dispatch) of the mutated
    /// registry (e.g. at request admission) is a cache hit.
    ///
    /// The dead-trigger check runs on exactly the recompiled triggers: an
    /// added tag whose segment grammar cannot complete is refused here just
    /// as a full compile would, while untouched triggers (already checked
    /// when `base` was compiled) are not analysed again.
    ///
    /// `base` should come from this compiler; a base compiled against a
    /// different vocabulary is handled gracefully by falling back to a full
    /// compile of the mutated registry.
    ///
    /// # Errors
    ///
    /// Returns [`StructuralTag`](GrammarError::StructuralTag) validation
    /// errors from [`xg_grammar::StructuralTag::apply_delta`], content
    /// grammar errors of recompiled triggers, or
    /// [`GrammarError::Lint`] (a dead added trigger).
    pub fn update_tag_dispatch(
        &self,
        base: &Arc<CompiledTagDispatch>,
        delta: &DispatchDelta,
    ) -> Result<Arc<CompiledTagDispatch>, GrammarError> {
        let next = base.source_tag().apply_delta(delta)?;
        if base.vocab.fingerprint() != self.vocabulary().fingerprint() {
            // A foreign base pins grammars compiled against another
            // vocabulary; reusing them would produce wrong masks.
            return self.compile_tag_dispatch(&next);
        }
        let build = || {
            let old_tag = base.source_tag();
            let old_triggers = old_tag.effective_triggers();
            // `base` compiled, so its assignments validated then; `next`
            // passed `apply_delta` validation above.
            let old_assignments = old_tag.trigger_assignments()?;
            let new_triggers = next.effective_triggers();
            let new_assignments = next.trigger_assignments()?;
            let mut compiled_triggers = Vec::with_capacity(new_triggers.len());
            for (trigger, tag_indices) in new_triggers.iter().zip(&new_assignments) {
                let reusable = old_triggers
                    .iter()
                    .position(|t| t == trigger)
                    .filter(|&old_idx| {
                        let old_specs = old_assignments[old_idx].iter().map(|&i| &old_tag.tags[i]);
                        old_specs.eq(tag_indices.iter().map(|&i| &next.tags[i]))
                    })
                    .map(|old_idx| Arc::clone(&base.triggers[old_idx]));
                match reusable {
                    Some(existing) => compiled_triggers.push(existing),
                    None => compiled_triggers.push(self.compile_trigger_segment(
                        &next,
                        trigger,
                        tag_indices,
                    )?),
                }
            }
            Ok(self.assemble_dispatch(&next, compiled_triggers))
        };
        let cached = self.dispatch_cache().get_or_try_build(&next, build);
        cached.map(|(dispatch, _)| dispatch)
    }

    /// Compiles one trigger's segment: combined grammar construction, the
    /// free-text tail, the cached grammar compile and the dead-trigger check.
    /// Shared by the full and incremental compile paths, so the delta path
    /// checks and compiles exactly like a full compile would for the
    /// triggers it touches.
    fn compile_trigger_segment(
        &self,
        tag: &StructuralTag,
        trigger: &str,
        tag_indices: &[usize],
    ) -> Result<Arc<CompiledTrigger>, GrammarError> {
        let grammar = tag.build_grammar_for_trigger(trigger, tag_indices)?;
        // The free-text tail turns the end-of-segment mask into the union
        // with the prose continuation; acceptance is untouched because the
        // matcher closes the segment at the first point its grammar can end,
        // before the tail is ever entered across a token boundary.
        let segment_grammar = xg_grammar::append_free_text_tail(&grammar);
        let compiled = self.compile_grammar(&segment_grammar);
        // A segment whose grammar derives no string would fire and then
        // wedge the lane. The tail follows the segment, so it cannot repair
        // it: the tailed grammar's root derives a string exactly when the
        // segment's does, and its compile has already taken that verdict.
        if let Some(refusal) = compiled.refusal() {
            return Err(GrammarError::Lint {
                diagnostics: vec![xg_grammar::Diagnostic::new(
                    xg_grammar::DiagnosticCode::DeadTrigger,
                    None,
                    format!("trigger `{trigger}` has an unserveable segment grammar: {refusal}"),
                )],
            });
        }
        Ok(Arc::new(CompiledTrigger {
            trigger: trigger.as_bytes().to_vec(),
            grammar: compiled,
        }))
    }

    /// Builds the scanner over `triggers` and wraps everything into a
    /// [`CompiledTagDispatch`].
    fn assemble_dispatch(
        &self,
        tag: &StructuralTag,
        triggers: Vec<Arc<CompiledTrigger>>,
    ) -> CompiledTagDispatch {
        let patterns: Vec<Vec<u8>> = triggers.iter().map(|t| t.trigger.clone()).collect();
        CompiledTagDispatch {
            triggers,
            scanner: AhoCorasick::new(&patterns),
            vocab: Arc::clone(self.vocabulary()),
            source: tag.clone(),
        }
    }

    /// Returns `true` if this compiler's dispatch cache already holds the
    /// compiled form of `tag` — i.e.
    /// [`compile_tag_dispatch`](Self::compile_tag_dispatch) would be a cache
    /// hit. Probes only; compiles nothing and does not touch hit/miss
    /// counters or LRU order. Admission control uses this to classify
    /// cache-hit admissions.
    pub fn has_cached_tag_dispatch_for(&self, tag: &StructuralTag) -> bool {
        self.dispatch_cache().contains(tag)
    }
}

// The compile and cache-path unit tests; the ones that drive a
// `StructuralTagMatcher` are in `tag_matcher.rs`.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag_matcher::tests::number_tag;
    use xg_grammar::{TagContent, TagSpec};
    use xg_tokenizer::test_vocabulary;

    /// An update compares the two vocabularies' fingerprints:
    /// over the same vocabulary it reuses the untouched trigger, over another
    /// one it compiles every trigger against the new vocabulary.
    #[test]
    fn an_update_reuses_triggers_only_from_a_base_over_the_same_vocabulary() {
        let compiler = GrammarCompiler::new(Arc::new(test_vocabulary(800)));
        let base = compiler.compile_tag_dispatch(&number_tag()).unwrap();
        let delta = DispatchDelta::AddTag(TagSpec {
            begin: "<w>".into(),
            content: TagContent::Ebnf {
                text: "root ::= [a-z]+".into(),
                root: "root".into(),
            },
            end: "</w>".into(),
        });
        let number_trigger = |dispatch: &CompiledTagDispatch| {
            let found = dispatch.triggers().iter().find(|t| t.trigger() == b"<n>");
            Arc::clone(found.expect("the number tag's trigger"))
        };

        let misses = compiler.local_cache_stats().misses;
        let updated = compiler.update_tag_dispatch(&base, &delta).unwrap();
        assert_eq!(compiler.local_cache_stats().misses - misses, 1);
        assert!(Arc::ptr_eq(
            &number_trigger(&updated),
            &number_trigger(&base)
        ));

        let foreign = GrammarCompiler::new(Arc::new(test_vocabulary(600)));
        let rebuilt = foreign.update_tag_dispatch(&base, &delta).unwrap();
        assert_eq!(foreign.local_cache_stats().misses, 2);
        assert!(!Arc::ptr_eq(
            &number_trigger(&rebuilt),
            &number_trigger(&base)
        ));
        assert!(Arc::ptr_eq(rebuilt.vocabulary(), foreign.vocabulary()));
    }

    fn grammar_tag(grammar: xg_grammar::Grammar) -> StructuralTag {
        StructuralTag::new(vec![TagSpec {
            begin: "<g>".into(),
            content: TagContent::Grammar(grammar),
            end: "</g>".into(),
        }])
    }

    #[test]
    fn a_grammar_content_stays_a_cache_hit_once_its_fingerprint_is_computed() {
        let compiler = GrammarCompiler::new(Arc::new(test_vocabulary(800)));
        let tag = grammar_tag(xg_grammar::parse_ebnf("root ::= [0-9]+", "root").unwrap());
        let first = compiler.compile_tag_dispatch(&tag).unwrap();
        let TagContent::Grammar(grammar) = &tag.tags[0].content else {
            panic!("the tag holds a grammar");
        };
        grammar.structural_fingerprint();
        assert!(compiler.has_cached_tag_dispatch_for(&tag));
        let again = compiler.compile_tag_dispatch(&tag).unwrap();
        assert!(Arc::ptr_eq(&first, &again));
        let stats = compiler.dispatch_cache().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn separately_parsed_equal_grammars_share_one_dispatch_slot() {
        // Enough rules that two parses' name maps iterate in different orders.
        let rules: String = (0..12).map(|i| format!("r{i} ::= \"{i}\"\n")).collect();
        let alternatives: Vec<String> = (0..12).map(|i| format!("r{i}")).collect();
        let text = format!("root ::= {}\n{rules}", alternatives.join(" | "));
        let parse = || grammar_tag(xg_grammar::parse_ebnf(&text, "root").unwrap());
        let compiler = GrammarCompiler::new(Arc::new(test_vocabulary(800)));
        let a = compiler.compile_tag_dispatch(&parse()).unwrap();
        let b = compiler.compile_tag_dispatch(&parse()).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let stats = compiler.dispatch_cache().stats();
        assert_eq!((stats.misses, stats.entries), (1, 1));
    }
}
