//! `perf compare A.json B.json`: did B get worse than A?
//!
//! One row per (workload, end-to-end metric): both medians, the relative
//! change, the bound, and a verdict. `worse` means B's median is worse than
//! A's by more than the bound. A metric whose pass-to-pass spread (IQR over
//! median, in either file) is wider than the bound cannot show that either
//! way and is `unresolved`, not `ok`. `failed_share` has no tolerance: any
//! rise is `worse`. A workload or metric that A reports and B does not is
//! `missing`: a dropped measurement must not compare as success. Differing
//! output digests mean the two commits did not produce the same bytes, which
//! no performance change may do.

use std::path::Path;
use std::process::ExitCode;

use serde_json::Value;

use crate::report::{Better, BOUND, END_TO_END};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
    Missing,
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: &'static str,
    pub a: f64,
    /// NaN when B does not report the metric.
    pub b: f64,
    pub verdict: Verdict,
}

fn spread(metric: &Value) -> f64 {
    let get = |key: &str| metric[key].as_f64();
    match (get("q1"), get("q3"), get("value")) {
        (Some(q1), Some(q3), Some(median)) if median != 0.0 => (q3 - q1) / median.abs(),
        _ => 0.0,
    }
}

/// Compares two parsed reports. Rows come in file order of `a`; a metric `a`
/// does not report (a percentile the workload has too few samples for) is
/// skipped. The second value lists workloads whose digests differ.
pub fn compare(a: &Value, b: &Value) -> (Vec<Row>, Vec<String>) {
    let mut rows = Vec::new();
    let mut digest_changes = Vec::new();
    let empty = serde_json::Map::new();
    for (workload, wa) in a["workloads"].as_object().unwrap_or(&empty).iter() {
        let wb = &b["workloads"][workload.as_str()];
        if !wb.is_null() && wa["output_digest"] != wb["output_digest"] {
            digest_changes.push(workload.clone());
        }
        for def in END_TO_END {
            let (ma, mb) = (&wa["end_to_end"][def.name], &wb["end_to_end"][def.name]);
            let Some(va) = ma["value"].as_f64() else {
                continue;
            };
            let Some(vb) = mb["value"].as_f64() else {
                rows.push(Row {
                    workload: workload.clone(),
                    metric: def.name,
                    a: va,
                    b: f64::NAN,
                    verdict: Verdict::Missing,
                });
                continue;
            };
            let worse_by = match def.better {
                Better::Higher => va - vb,
                Better::Lower => vb - va,
            };
            let verdict = if def.name == "failed_share" {
                if vb > va {
                    Verdict::Worse
                } else {
                    Verdict::Ok
                }
            } else if worse_by > BOUND * va.abs() {
                Verdict::Worse
            } else if spread(ma).max(spread(mb)) > BOUND {
                Verdict::Unresolved
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: def.name,
                a: va,
                b: vb,
                verdict,
            });
        }
    }
    (rows, digest_changes)
}

fn load(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn main(a: &Path, b: &Path) -> ExitCode {
    let (a, b) = match (load(a), load(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf compare: {e}");
            return ExitCode::from(2);
        }
    };
    let (rows, digest_changes) = compare(&a, &b);
    println!(
        "{:<13} {:<13} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "delta", "bound"
    );
    for row in &rows {
        let delta = if row.a == 0.0 || row.b.is_nan() {
            0.0
        } else {
            100.0 * (row.b - row.a) / row.a.abs()
        };
        println!(
            "{:<13} {:<13} {:>12.4} {:>12.4} {:>+7.1}% {:>5.0}%  {}",
            row.workload,
            row.metric,
            row.a,
            row.b,
            delta,
            if row.metric == "failed_share" {
                0.0
            } else {
                100.0 * BOUND
            },
            match row.verdict {
                Verdict::Ok => "ok",
                Verdict::Worse => "worse",
                Verdict::Unresolved => "unresolved",
                Verdict::Missing => "missing",
            }
        );
    }
    for workload in &digest_changes {
        println!("{workload:<13} output_digest differs: the two runs produced different bytes");
    }
    let count = |verdict| rows.iter().filter(|r| r.verdict == verdict).count();
    let (worse, missing) = (count(Verdict::Worse), count(Verdict::Missing));
    println!(
        "{} rows: {worse} worse, {} unresolved, {missing} missing, {} digest changes",
        rows.len(),
        count(Verdict::Unresolved),
        digest_changes.len()
    );
    if worse > 0 || missing > 0 || !digest_changes.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn report(tokens: f64, q1: f64, q3: f64, failed_share: f64, digest: &str) -> Value {
        json!({"workloads": {"w": {
            "output_digest": digest,
            "end_to_end": {
                "tokens_per_s": {"value": tokens, "q1": q1, "q3": q3},
                "ttft_ms_p50": {"value": 10.0, "q1": 9.9, "q3": 10.1},
                "failed_share": {"value": failed_share, "q1": 0.0, "q3": 0.0}
            }
        }}})
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let base = report(1000.0, 990.0, 1010.0, 0.0, "d");
        let verdict = |b: &Value, metric: &str| {
            let (rows, _) = compare(&base, b);
            rows.iter().find(|r| r.metric == metric).unwrap().verdict
        };
        // Higher is better: a drop of half the bound is within it, one of
        // one and a half bounds is not, a rise of that much is fine.
        let moved = |by: f64| {
            let tokens = 1000.0 * (1.0 + by * BOUND);
            report(tokens, tokens - 10.0, tokens + 10.0, 0.0, "d")
        };
        assert_eq!(verdict(&moved(-0.5), "tokens_per_s"), Verdict::Ok);
        assert_eq!(verdict(&moved(-1.5), "tokens_per_s"), Verdict::Worse);
        assert_eq!(verdict(&moved(1.5), "tokens_per_s"), Verdict::Ok);
        // A spread wider than the bound resolves nothing.
        let wide = 1000.0 * BOUND;
        assert_eq!(
            verdict(
                &report(980.0, 980.0 - wide, 980.0 + wide, 0.0, "d"),
                "tokens_per_s"
            ),
            Verdict::Unresolved
        );
        // Any rise in failures is a regression; percentiles A does not
        // report are skipped.
        assert_eq!(
            verdict(&report(1000.0, 990.0, 1010.0, 0.01, "d"), "failed_share"),
            Verdict::Worse
        );
        // What A reports and B dropped is missing, metric or whole workload.
        let dropped = json!({"workloads": {"w": {
            "output_digest": "d",
            "end_to_end": {"tokens_per_s": {"value": 1000.0, "q1": 990.0, "q3": 1010.0}}
        }}});
        assert_eq!(verdict(&dropped, "ttft_ms_p50"), Verdict::Missing);
        assert_eq!(verdict(&dropped, "tokens_per_s"), Verdict::Ok);
        let (rows, _) = compare(&base, &json!({"workloads": {}}));
        assert!(rows.iter().all(|r| r.verdict == Verdict::Missing));
        let (rows, digests) = compare(&base, &report(1000.0, 990.0, 1010.0, 0.0, "e"));
        assert_eq!(rows.len(), 3);
        assert_eq!(digests, vec!["w".to_string()]);
    }
}
