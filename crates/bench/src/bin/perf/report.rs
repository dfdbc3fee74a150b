//! Metric definitions and the report they are printed and saved in.

use serde_json::{json, Map, Value};

use crate::stats::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// Share of the parent's median an end-to-end metric may get worse by, here
/// (`perf compare`) and in `BENCHMARK.json`; a test keeps the two equal. It
/// is 0.25 and not the 0.10 one would like because a gate has to be wider
/// than the same commit's run-to-run spread, and on the shared 2-core machine
/// this was written on the CPU-bound workloads spread by 5–10 % in quiet
/// minutes and 20 % and more in noisy ones (README, "Repeatability").
pub const BOUND: f64 = 0.25;

/// An end-to-end metric: what a client of the serving stack sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "tokens_per_s",
        unit: "tok/s",
        better: Better::Higher,
    },
    EndToEnd {
        name: "ttft_ms_p50",
        unit: "ms",
        better: Better::Lower,
    },
    EndToEnd {
        name: "ttft_ms_p90",
        unit: "ms",
        better: Better::Lower,
    },
    EndToEnd {
        name: "tpot_ms_p50",
        unit: "ms",
        better: Better::Lower,
    },
    EndToEnd {
        name: "tpot_ms_p90",
        unit: "ms",
        better: Better::Lower,
    },
    EndToEnd {
        name: "tpot_ms_p99",
        unit: "ms",
        better: Better::Lower,
    },
    EndToEnd {
        name: "failed_share",
        unit: "ratio",
        better: Better::Lower,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
    },
];

/// The end-to-end metrics every workload has the samples for, which is what
/// `BENCHMARK.json` gates on (`failed_share` travels as `failed`/`attempted`
/// there, because it is 0 at the seed).
pub const GATED: [&str; 4] = ["tokens_per_s", "ttft_ms_p50", "tpot_ms_p50", "setup_s"];

/// One reported number. `summary` and `n` describe where it came from: the
/// per-pass values it is the median of, and the sample count behind each.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub summary: Option<Summary>,
    /// Samples per pass (the smallest pass), or calls timed in the replay.
    pub n: usize,
}

impl Metric {
    /// A metric measured once per pass: the reported value is the median of
    /// `per_pass`.
    pub fn over_passes(
        name: &'static str,
        unit: &'static str,
        per_pass: &[f64],
        n: usize,
    ) -> Metric {
        let summary = Summary::of(per_pass);
        Metric {
            name,
            unit,
            value: summary.median,
            summary: Some(summary),
            n,
        }
    }

    pub fn single(name: &'static str, unit: &'static str, value: f64, n: usize) -> Metric {
        Metric {
            name,
            unit,
            value,
            summary: None,
            n,
        }
    }

    fn to_json(&self) -> Value {
        let mut object = Map::new();
        object.insert("unit".into(), json!(self.unit));
        object.insert("value".into(), json!(self.value));
        if let Some(s) = &self.summary {
            object.insert("min".into(), json!(s.min));
            object.insert("q1".into(), json!(s.q1));
            object.insert("q3".into(), json!(s.q3));
            object.insert("max".into(), json!(s.max));
        }
        object.insert("n".into(), json!(self.n));
        Value::Object(object)
    }
}

#[derive(Debug)]
pub struct WorkloadReport {
    pub name: &'static str,
    pub why: &'static str,
    pub clients: usize,
    pub passes: usize,
    pub attempted: u64,
    pub failed: u64,
    pub output_digest: u64,
    /// Every pass produced the same bytes.
    pub digest_stable: bool,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl WorkloadReport {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.digest_stable
    }

    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// `workload metric value unit`, one line per metric.
    pub fn print(&self) {
        let line = |name: &str, value: String, unit: &str| {
            println!("{:<13} {:<32} {:>14} {}", self.name, name, value, unit);
        };
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            line(m.name, format!("{:.4}", m.value), m.unit);
        }
        line("attempted", self.attempted.to_string(), "count");
        line("failed", self.failed.to_string(), "count");
        line(
            "output_digest",
            format!("{:016x}", self.output_digest),
            if self.digest_stable {
                "stable"
            } else {
                "DIFFERS BETWEEN PASSES"
            },
        );
    }

    pub fn to_json(&self) -> Value {
        let metrics = |list: &[Metric]| {
            let mut object = Map::new();
            for m in list {
                object.insert(m.name.to_string(), m.to_json());
            }
            Value::Object(object)
        };
        json!({
            "why": self.why,
            "clients": self.clients,
            "passes": self.passes,
            "attempted": self.attempted,
            "failed": self.failed,
            "correct": self.correct(),
            "output_digest": format!("{:016x}", self.output_digest),
            "end_to_end": metrics(&self.end_to_end),
            "per_layer": metrics(&self.per_layer),
        })
    }

    /// The one-line result the benchmark driver reads: the gated end-to-end
    /// metrics untraced, every per-layer metric traced.
    pub fn driver_line(&self, traced: bool) -> String {
        let mut metrics = Map::new();
        let listed: Vec<&Metric> = if traced {
            self.per_layer.iter().collect()
        } else {
            GATED.iter().filter_map(|name| self.metric(name)).collect()
        };
        for m in listed {
            metrics.insert(
                m.name.to_string(),
                json!({ "value": m.value, "unit": m.unit }),
            );
        }
        json!({
            "correct": self.correct(),
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": Value::Object(metrics),
        })
        .to_string()
    }
}

/// Renders `value` with two-space indentation (the vendored `serde_json` has
/// a compact writer only, and committed result files should diff by line).
pub fn pretty(value: &Value) -> String {
    fn write(value: &Value, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth + 1);
        match value {
            Value::Object(map) if !map.is_empty() => {
                out.push_str("{\n");
                for (i, (key, item)) in map.iter().enumerate() {
                    out.push_str(&pad);
                    out.push_str(&Value::String(key.clone()).to_string());
                    out.push_str(": ");
                    // Leaf objects (one metric) stay on one line.
                    if item
                        .as_object()
                        .is_some_and(|m| m.values().all(|v| !v.is_object() && !v.is_array()))
                    {
                        out.push_str(&item.to_string());
                    } else {
                        write(item, depth + 1, out);
                    }
                    out.push_str(if i + 1 < map.len() { ",\n" } else { "\n" });
                }
                out.push_str(&"  ".repeat(depth));
                out.push('}');
            }
            other => out.push_str(&other.to_string()),
        }
    }
    let mut out = String::new();
    write(value, 0, &mut out);
    out.push('\n');
    out
}
