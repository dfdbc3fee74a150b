//! The four workloads: what each sends, with how many clients, and why.
//!
//! The serving stack only ever sees the resulting [`EngineRequest`]s.
//!
//! `--seed` picks the order the clients draw their requests in and what the
//! simulated model gets wrong; *what* is sent comes from [`CORPUS_SEED`].

use serde_json::Value;
use xg_engine::{EngineRequest, LaneConstraint};
use xg_grammar::{DispatchDelta, Grammar, StructuralTag};

/// Seed of the `xg_datasets` generators: which schemas, documents and tool
/// sessions exist. Not tied to `--seed`, because the corpus decides how much
/// work a run is: on `cold_schemas` and `cfg_heavy` another dozen schemas or
/// documents moves throughput and TTFT by 20–40 %, which would drown the
/// regression the benchmark is there to catch.
const CORPUS_SEED: u64 = 11;

/// Simulated prompt length of every request (drives the prefill busy-wait).
const PROMPT_TOKENS: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SchemaWarm,
    CfgHeavy,
    ColdSchemas,
    AgentTools,
}

pub const ALL: [Workload; 4] = [
    Workload::SchemaWarm,
    Workload::CfgHeavy,
    Workload::ColdSchemas,
    Workload::AgentTools,
];

/// Where a request's constraint came from — what the oracle checks the
/// output against and what the traced replay compiles stage by stage.
#[derive(Debug, Clone)]
pub enum Source {
    Schema(Value),
    Xml,
    Catalog(StructuralTag),
}

impl Source {
    /// The grammar of a whole-output constraint (`None` for tool catalogs,
    /// which constrain tagged segments only).
    pub fn grammar(&self) -> Option<Grammar> {
        match self {
            Source::Schema(schema) => {
                Some(xg_grammar::json_schema_to_grammar(schema).expect("dataset schemas convert"))
            }
            Source::Xml => Some(xg_grammar::builtin::xml_grammar()),
            Source::Catalog(_) => None,
        }
    }

    pub fn constraint(&self) -> LaneConstraint {
        match self {
            Source::Catalog(tag) => LaneConstraint::StructuralTag(tag.clone()),
            other => LaneConstraint::Grammar(other.grammar().expect("grammar source")),
        }
    }
}

/// One request of a workload (for `agent_tools`: one turn of a session).
#[derive(Debug, Clone)]
pub struct Item {
    pub request: EngineRequest,
    /// Index into [`Inputs::sources`].
    pub source: usize,
    /// Registry mutation applied at turn start, with the catalog it applies
    /// to (`agent_tools` only).
    pub update: Option<(StructuralTag, DispatchDelta)>,
}

/// Everything one pass sends.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub items: Vec<Item>,
    pub sources: Vec<Source>,
    /// Sources compiled during set-up, before the clock starts.
    pub warm: Vec<usize>,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SchemaWarm => "schema_warm",
            Workload::CfgHeavy => "cfg_heavy",
            Workload::ColdSchemas => "cold_schemas",
            Workload::AgentTools => "agent_tools",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::SchemaWarm => {
                "8 clients, 5 cached JSON-schema grammars: masks hide behind the GPU step, \
                 so engine overhead (scheduler, jump-forward, sampler) sets TPOT"
            }
            Workload::CfgHeavy => {
                "4 clients on the cached XML CFG: context-dependent token checks in the \
                 matcher dominate and overlap cannot hide them (mask-bound)"
            }
            Workload::ColdSchemas => {
                "1 client, every request a never-seen schema on an empty cache: the compile \
                 pipeline (PDA build, vocabulary sort, mask-cache build) sets TTFT"
            }
            Workload::AgentTools => {
                "1 client, multi-turn tool sessions whose catalog mutates between turns: \
                 incremental registry updates beside tag-dispatch decoding"
            }
        }
    }

    /// Closed-loop clients: each sends its next request only after the
    /// previous one finished.
    pub fn clients(self) -> usize {
        match self {
            Workload::SchemaWarm => 8,
            Workload::CfgHeavy => 4,
            Workload::ColdSchemas | Workload::AgentTools => 1,
        }
    }

    /// Passes (fresh backend, engine and scheduler each, so as many set-ups)
    /// a run makes at least. Three is what the time cap on a run leaves for
    /// everything but `cfg_heavy`, whose set-up and request list are short
    /// enough for five.
    pub fn passes(self, smoke: bool) -> usize {
        match self {
            _ if smoke => 1,
            Workload::CfgHeavy => 5,
            _ => 3,
        }
    }

    /// How often a pass sends its request list: as many whole lists as fill
    /// its share of `seconds` at the speed of the machine this was written on
    /// (a list of `schema_warm` takes 1.5 s there, one of `cfg_heavy` 1.3 s).
    /// A count and not a deadline, so that every pass of every run does the
    /// same work: a pass that ends after one list spends more of its time
    /// draining its last requests at a low batch size than one of three.
    /// Once where a second time round would find the cache the first filled.
    pub fn lists_per_pass(self, seconds: f64, smoke: bool) -> usize {
        let list_seconds = match self {
            Workload::SchemaWarm => 1.5,
            Workload::CfgHeavy => 1.3,
            Workload::ColdSchemas | Workload::AgentTools => return 1,
        };
        let share = seconds / self.passes(smoke) as f64;
        ((share / list_seconds).round() as usize).max(1)
    }

    /// Generates the pass's requests: content from [`CORPUS_SEED`], order
    /// from `seed` (tool sessions keep theirs — turns build on each other).
    pub fn inputs(self, seed: u64, smoke: bool) -> Inputs {
        let mut inputs = self.corpus(smoke);
        if self != Workload::AgentTools {
            shuffle(&mut inputs.items, seed);
        }
        inputs
    }

    fn corpus(self, smoke: bool) -> Inputs {
        let seed = CORPUS_SEED;
        let request =
            |constraint: LaneConstraint, reference: Vec<u8>, max_tokens, index| EngineRequest {
                constraint,
                prompt_tokens: PROMPT_TOKENS,
                reference,
                max_tokens,
                seed: index as u64,
            };
        match self {
            Workload::SchemaWarm => {
                // The generator cycles through 5 schema families; the schema
                // of a family is the same for every task in it.
                let tasks = xg_datasets::json_mode_eval_like(if smoke { 10 } else { 120 }, seed);
                let sources: Vec<Source> = tasks
                    .iter()
                    .take(5)
                    .map(|t| Source::Schema(t.schema.clone()))
                    .collect();
                let constraints: Vec<LaneConstraint> =
                    sources.iter().map(Source::constraint).collect();
                let items = tasks
                    .into_iter()
                    .enumerate()
                    .map(|(i, task)| Item {
                        request: request(constraints[i % 5].clone(), task.reference, 256, i),
                        source: i % 5,
                        update: None,
                    })
                    .collect();
                Inputs {
                    items,
                    warm: (0..sources.len()).collect(),
                    sources,
                }
            }
            Workload::CfgHeavy => {
                let sources = vec![Source::Xml];
                let constraint = sources[0].constraint();
                let items = xg_datasets::xml_tasks(if smoke { 2 } else { 12 }, seed)
                    .into_iter()
                    .enumerate()
                    .map(|(i, task)| Item {
                        request: request(constraint.clone(), task.reference, 512, i),
                        source: 0,
                        update: None,
                    })
                    .collect();
                Inputs {
                    items,
                    sources,
                    warm: vec![0],
                }
            }
            Workload::ColdSchemas => {
                let cases = xg_datasets::schema_corpus(if smoke { 4 } else { 12 }, seed);
                let sources: Vec<Source> = cases
                    .iter()
                    .map(|c| Source::Schema(c.schema.clone()))
                    .collect();
                let items = cases
                    .iter()
                    .enumerate()
                    .map(|(i, case)| Item {
                        request: request(
                            sources[i].constraint(),
                            case.valid[0].clone().into_bytes(),
                            256,
                            i,
                        ),
                        source: i,
                        update: None,
                    })
                    .collect();
                Inputs {
                    items,
                    sources,
                    warm: Vec::new(),
                }
            }
            Workload::AgentTools => {
                let sessions = if smoke {
                    xg_datasets::agent_sessions(2, 3, 3, seed)
                } else {
                    xg_datasets::agent_sessions(3, 6, 6, seed)
                };
                let mut sources = vec![Source::Catalog(sessions[0].initial.clone())];
                let mut items = Vec::new();
                for session in sessions {
                    let mut current = session.initial;
                    for turn in session.turns {
                        let update = turn.delta.map(|delta| (current.clone(), delta));
                        current = turn.catalog;
                        sources.push(Source::Catalog(current.clone()));
                        items.push(Item {
                            request: request(
                                LaneConstraint::StructuralTag(current.clone()),
                                turn.task.reference,
                                256,
                                items.len(),
                            ),
                            source: sources.len() - 1,
                            update,
                        });
                    }
                }
                Inputs {
                    items,
                    sources,
                    warm: vec![0],
                }
            }
        }
    }
}

/// Fisher–Yates over a splitmix64 stream (`xg-bench` has no `rand`).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    for i in (1..items.len()).rev() {
        items.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_reorders_the_same_corpus() {
        let a = Workload::ColdSchemas.inputs(1, true);
        let b = Workload::ColdSchemas.inputs(2, true);
        let again = Workload::ColdSchemas.inputs(1, true);
        let order = |i: &Inputs| i.items.iter().map(|it| it.source).collect::<Vec<_>>();
        assert_eq!(order(&a), order(&again));
        assert_ne!(order(&a), order(&b));
        let mut sorted = order(&b);
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3]);
        // Turns of a tool session build on each other and stay in order.
        let turns = Workload::AgentTools.inputs(1, true);
        assert!(turns.items.windows(2).all(|w| w[0].source < w[1].source));
    }
}
