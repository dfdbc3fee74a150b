//! In-memory span recorder for the traced replay.
//!
//! One [`Span`] per call into a layer: name, start, end, the span that caused
//! it and the request it belongs to. Spans stay in memory until the replay
//! ends and are then written as Chrome trace-event JSON (loadable in Perfetto
//! or `chrome://tracing`). A layer's *self time* is its span's duration minus
//! the part covered by its children, so self times of all spans add up to the
//! wall clock covered by the root spans.

use std::collections::BTreeMap;
use std::time::Instant;

use serde_json::{json, Value};

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Offsets from the tracer's epoch, in nanoseconds.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    pub request: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Records spans when `enabled`; when disabled every call is a branch and
/// nothing else, which is what `trace.overhead_pct` compares against.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    /// Sets the request id stamped on the spans recorded next.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span. `f` receives the tracer back so it can open children.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect()
    }

    /// Self time per span name, in microseconds: each span's duration minus
    /// its direct children's.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::micros).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] -= span.micros();
            }
        }
        let mut by_name = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(own) {
            *by_name.entry(span.name).or_insert(0.0) += own;
        }
        by_name
    }

    /// Wall clock covered by root spans, in microseconds.
    pub fn root_wall_us(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::micros)
            .sum()
    }

    /// The spans as a Chrome trace-event document: one complete (`"X"`)
    /// event per span, one track (`tid`) per request, and the per-layer self
    /// times under `otherData`.
    pub fn chrome_trace(&self, workload: &str) -> Value {
        let events: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(index, span)| {
                json!({
                    "name": span.name,
                    "cat": span.name.split('.').next().unwrap_or(span.name),
                    "ph": "X",
                    "ts": span.start_ns as f64 / 1e3,
                    "dur": span.micros(),
                    "pid": 1,
                    "tid": span.request,
                    "args": {
                        "span": index,
                        "parent": span.parent.map_or(Value::Null, |p| json!(p)),
                        "request": span.request,
                    },
                })
            })
            .collect();
        let mut self_times = serde_json::Map::new();
        for (name, own) in self.self_times_us() {
            self_times.insert(name.to_string(), json!(own));
        }
        json!({
            "displayTimeUnit": "ms",
            "otherData": {
                "workload": workload,
                "root_wall_us": self.root_wall_us(),
                "self_time_us": Value::Object(self_times),
            },
            "traceEvents": events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root_wall() {
        let mut tracer = Tracer::new(true);
        tracer.set_request(7);
        tracer.span("request", |t| {
            t.span("core.fill_mask", |_| std::hint::black_box(1 + 1));
            t.span("decode", |t| {
                t.span("core.fill_mask", |_| ());
            });
        });
        assert_eq!(tracer.spans().len(), 4);
        assert_eq!(tracer.spans()[3].parent, Some(2));
        assert_eq!(tracer.durations_us("core.fill_mask").len(), 2);
        let own: f64 = tracer.self_times_us().values().sum();
        assert!((own - tracer.root_wall_us()).abs() < 1e-6);
        let doc = tracer.chrome_trace("w");
        assert_eq!(doc["traceEvents"].as_array().unwrap().len(), 4);
        assert_eq!(doc["traceEvents"][1]["tid"].as_u64(), Some(7));

        let mut off = Tracer::new(false);
        assert_eq!(off.span("request", |_| 5), 5);
        assert!(off.spans().is_empty());
    }
}
