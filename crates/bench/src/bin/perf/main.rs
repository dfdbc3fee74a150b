//! `perf` — the repository's benchmark: four closed-loop serving workloads
//! through the real `ContinuousScheduler`, client-side end-to-end metrics,
//! per-layer attribution from public counters, an output oracle, and a traced
//! replay. See `README.md` beside this file for the tables and the method.
//!
//! ```text
//! perf [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!      [--trace-dir DIR] [--out FILE] [--smoke]
//! perf compare A.json B.json
//! ```

mod compare;
mod loadgen;
mod oracle;
mod replay;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use serde_json::{json, Map, Value};

use loadgen::{run_pass, Fixture, Pass};
use report::{Metric, WorkloadReport, END_TO_END};
use stats::supported_quantile;
use workloads::Workload;

#[derive(Debug, Clone)]
struct Options {
    /// `None` means all four, passes interleaved round-robin.
    workload: Option<Workload>,
    seed: u64,
    /// Wall clock a workload measures for at least.
    seconds: f64,
    /// Run the traced replay and report the per-layer metrics it yields.
    trace: bool,
    /// Where to write one Chrome trace per workload (implies `trace`).
    trace_dir: Option<PathBuf>,
    out: Option<PathBuf>,
    /// 2 000-token vocabulary, one pass, tiny request lists.
    smoke: bool,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            workload: None,
            seed: 11,
            seconds: 12.0,
            trace: false,
            trace_dir: None,
            out: None,
            smoke: false,
        }
    }
}

const USAGE: &str = "usage: perf [--workload schema_warm|cfg_heavy|cold_schemas|agent_tools] \
[--seed N] [--seconds S] [--trace 0|1] [--trace-dir DIR] [--out FILE] [--smoke]\n       \
perf compare A.json B.json";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut options = Options::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                options.workload = Some(
                    Workload::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?,
                );
            }
            "--seed" => options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                options.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(options.seconds > 0.0 && options.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                options.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-dir" => options.trace_dir = Some(PathBuf::from(value()?)),
            "--out" => options.out = Some(PathBuf::from(value()?)),
            "--smoke" => options.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    options.trace |= options.trace_dir.is_some();
    Ok(options)
}

/// The passes of one workload, accumulated across the round-robin.
struct Run {
    workload: Workload,
    passes: Vec<Pass>,
    measured_s: f64,
}

impl Run {
    fn finished(&self, fixture: &Fixture, seconds: f64) -> bool {
        self.passes.len() >= self.workload.passes(fixture.smoke) && self.measured_s >= seconds
    }

    fn step(&mut self, fixture: &Fixture, seconds: f64) {
        let lists = self.workload.lists_per_pass(seconds, fixture.smoke);
        let pass = run_pass(self.workload, fixture, lists);
        self.measured_s += pass.wall_s;
        self.passes.push(pass);
    }
}

/// Checks every output of `run`, replays it if asked, and folds the passes
/// into one report.
fn summarize(
    run: &Run,
    fixture: &Fixture,
    options: &Options,
) -> Result<WorkloadReport, std::io::Error> {
    let workload = run.workload;
    let passes = &run.passes;
    let inputs = workload.inputs(fixture.seed, fixture.smoke);
    let mut failed: u64 = passes.iter().map(|p| p.failed).sum();

    // Oracle: every item was served at least once per pass; passes of one
    // seed must agree byte for byte, so checking the first is checking all.
    let digest = passes[0].output_digest();
    let digest_stable = passes.iter().all(|p| p.output_digest() == digest);
    let mut oracle = oracle::Oracle::default();
    for (index, item) in inputs.items.iter().enumerate() {
        let verdict = match &passes[0].outputs[index] {
            Some(output) => oracle.check(&inputs.sources[item.source], output),
            None => Err("never finished".into()),
        };
        if let Err(reason) = verdict {
            eprintln!("{}: item {index} rejected: {reason}", workload.name());
            failed += 1;
        }
    }

    let per_pass =
        |f: &dyn Fn(&Pass) -> Option<f64>| -> Option<Vec<f64>> { passes.iter().map(f).collect() };
    let samples = |f: &dyn Fn(&Pass) -> usize| passes.iter().map(f).min().unwrap_or(0);
    let mut end_to_end = Vec::new();
    for def in END_TO_END {
        let (values, n) = match def.name {
            "tokens_per_s" => (
                per_pass(&|p| Some(p.tokens as f64 / p.wall_s)),
                samples(&|p| p.tokens as usize),
            ),
            "ttft_ms_p50" => (
                per_pass(&|p| supported_quantile(&p.ttft_ms, 0.5)),
                samples(&|p| p.ttft_ms.len()),
            ),
            "ttft_ms_p90" => (
                per_pass(&|p| supported_quantile(&p.ttft_ms, 0.9)),
                samples(&|p| p.ttft_ms.len()),
            ),
            "tpot_ms_p50" => (
                per_pass(&|p| supported_quantile(&p.gap_ms, 0.5)),
                samples(&|p| p.gap_ms.len()),
            ),
            "tpot_ms_p90" => (
                per_pass(&|p| supported_quantile(&p.gap_ms, 0.9)),
                samples(&|p| p.gap_ms.len()),
            ),
            "tpot_ms_p99" => (
                per_pass(&|p| supported_quantile(&p.gap_ms, 0.99)),
                samples(&|p| p.gap_ms.len()),
            ),
            "failed_share" => (
                per_pass(&|p| Some(p.failed as f64 / p.attempted.max(1) as f64)),
                samples(&|p| p.attempted as usize),
            ),
            "setup_s" => (per_pass(&|p| Some(fixture.build_s + p.setup_s)), 1),
            other => unreachable!("undefined end-to-end metric {other}"),
        };
        // A percentile some pass has too few samples for is not reported.
        if let Some(values) = values {
            end_to_end.push(Metric::over_passes(def.name, def.unit, &values, n));
        }
    }

    let secs = |d: Duration| d.as_secs_f64();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let layer = |name: &'static str, unit: &'static str, f: &dyn Fn(&Pass) -> f64| {
        let values: Vec<f64> = passes.iter().map(f).collect();
        Metric::over_passes(name, unit, &values, passes.len())
    };
    let mut per_layer = vec![
        layer("engine.queue_ms_p50", "ms", &|p| {
            stats::median_or_zero(&p.queue_ms)
        }),
        layer("engine.admit_compile_ms_p50", "ms", &|p| {
            stats::median_or_zero(&p.admit_compile_ms)
        }),
        layer("engine.cache_hit_share", "ratio", &|p| {
            ratio(
                p.scheduler.cache_hit_admissions as f64,
                p.scheduler.admitted as f64,
            )
        }),
        layer("engine.gpu_share", "ratio", &|p| {
            ratio(secs(p.scheduler.gpu_time), secs(p.scheduler.decode_time))
        }),
        layer("engine.mask_wait_share", "ratio", &|p| {
            ratio(
                secs(p.scheduler.mask_wait_time),
                secs(p.scheduler.decode_time),
            )
        }),
        layer("engine.mask_busy_share", "ratio", &|p| {
            p.scheduler.mask_worker_utilization()
        }),
        layer("engine.step_overhead_us", "us", &|p| {
            let s = &p.scheduler;
            let other = secs(s.decode_time) - secs(s.gpu_time) - secs(s.mask_wait_time);
            ratio(other * 1e6, s.decode_steps as f64)
        }),
        layer("engine.forced_token_share", "ratio", &|p| {
            let s = &p.scheduler;
            ratio(
                s.forced_tokens as f64,
                (s.sampled_tokens + s.forced_tokens) as f64,
            )
        }),
        layer("engine.tokens_per_step", "ratio", &|p| {
            let s = &p.scheduler;
            ratio(
                (s.sampled_tokens + s.forced_tokens) as f64,
                s.decode_steps as f64,
            )
        }),
        layer("core.cache_mb", "MB", &|p| {
            p.scheduler.cache.current_bytes as f64 / 1e6
        }),
        layer("core.cache_entries", "count", &|p| {
            p.scheduler.cache.entries as f64
        }),
    ];

    if options.trace {
        let replay = replay::replay(workload, fixture, &inputs, &passes[0].outputs);
        if replay.mismatches > 0 {
            eprintln!(
                "{}: {} replayed outputs differ from the served ones",
                workload.name(),
                replay.mismatches
            );
            failed += replay.mismatches;
        }
        per_layer.extend(replay.metrics);
        if let Some(dir) = &options.trace_dir {
            std::fs::create_dir_all(dir)?;
            let path = dir.join(format!("trace_{}.json", workload.name()));
            std::fs::write(path, replay.trace.to_string())?;
        }
    }

    Ok(WorkloadReport {
        name: workload.name(),
        why: workload.why(),
        clients: workload.clients(),
        passes: passes.len(),
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failed,
        output_digest: digest,
        digest_stable,
        end_to_end,
        per_layer,
    })
}

/// Runs the selected workloads, their passes interleaved round-robin so a
/// slow phase of the machine spreads over all of them.
fn run(options: &Options, fixture: &Fixture) -> Result<Vec<WorkloadReport>, std::io::Error> {
    let seconds = if options.smoke { 0.0 } else { options.seconds };
    let mut runs: Vec<Run> = workloads::ALL
        .into_iter()
        .filter(|w| options.workload.is_none_or(|only| only == *w))
        .map(|workload| Run {
            workload,
            passes: Vec::new(),
            measured_s: 0.0,
        })
        .collect();
    while runs.iter().any(|r| !r.finished(fixture, seconds)) {
        for run in runs.iter_mut().filter(|r| !r.finished(fixture, seconds)) {
            run.step(fixture, seconds);
        }
    }
    runs.iter()
        .map(|run| summarize(run, fixture, options))
        .collect()
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The 1-minute load average, with a warning when other work already keeps
/// half the cores busy. Read before the first pass, so it is the machine's
/// load, not the benchmark's.
fn load_average() -> Option<f64> {
    let load = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())?;
    let half = nproc() as f64 / 2.0;
    if load > half {
        eprintln!(
            "warning: 1-minute load average {load:.2} is above nproc/2 = {half:.1}; expect noise"
        );
    }
    Some(load)
}

/// Where and how the numbers are taken, for the saved report.
fn environment(options: &Options, fixture: &Fixture, load_1m: Option<f64>) -> Value {
    json!({
        "git_commit": command_output("git", &["rev-parse", "HEAD"]),
        "git_dirty": !command_output("git", &["status", "--porcelain"]).is_empty(),
        "rustc": command_output("rustc", &["--version"]),
        "nproc": nproc(),
        "load_1m_at_start": load_1m.map_or(Value::Null, |l| json!(l)),
        "seed": options.seed,
        "seconds": options.seconds,
        "vocab_size": fixture.vocab.len(),
        "profile": Fixture::profile().name,
        "time_scale": Fixture::profile().time_scale,
        "smoke": options.smoke,
    })
}

fn report_json(env: Value, reports: &[WorkloadReport]) -> Value {
    let mut workloads = Map::new();
    for r in reports {
        workloads.insert(r.name.to_string(), r.to_json());
    }
    json!({
        "benchmark": "xg-perf",
        "env": env,
        "workloads": Value::Object(workloads),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match args.as_slice() {
            [_, a, b] => compare::main(a.as_ref(), b.as_ref()),
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let options = match parse(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let load_1m = load_average();
    let fixture = Fixture::new(options.seed, options.smoke);
    let reports = match run(&options, &fixture) {
        Ok(reports) => reports,
        Err(err) => {
            eprintln!("perf: {err}");
            return ExitCode::FAILURE;
        }
    };
    for report in &reports {
        report.print();
    }
    if let Some(path) = &options.out {
        let env = environment(&options, &fixture, load_1m);
        let document = report::pretty(&report_json(env, &reports));
        if let Err(err) = std::fs::write(path, document) {
            eprintln!("perf: {}: {err}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if let (Some(_), [report]) = (options.workload, reports.as_slice()) {
        println!("{}", report.driver_line(options.trace));
    }
    if reports.iter().all(WorkloadReport::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// End-to-end metrics every workload reports at any size; the tail
    /// percentiles need the samples of a full-size pass.
    const ALWAYS: [&str; 5] = [
        "tokens_per_s",
        "ttft_ms_p50",
        "tpot_ms_p50",
        "failed_share",
        "setup_s",
    ];

    #[test]
    fn smoke_run_reports_every_metric_and_round_trips_through_json() {
        let options = Options {
            smoke: true,
            trace: true,
            ..Options::default()
        };
        let fixture = Fixture::new(options.seed, options.smoke);
        let reports = run(&options, &fixture).expect("smoke run");
        assert_eq!(reports.len(), 4);
        // The contract the driver reads, kept honest against the binary.
        let contract: Value =
            serde_json::from_str(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let listed = contract["per_layer"].as_array().unwrap();
        let gated = contract["end_to_end"].as_array().unwrap();
        let names: Vec<&str> = gated.iter().map(|m| m["name"].as_str().unwrap()).collect();
        assert_eq!(names, report::GATED);
        for metric in gated {
            assert_eq!(metric["bound"].as_f64(), Some(report::BOUND), "{metric:?}");
        }
        for (entry, workload) in contract["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .zip(workloads::ALL)
        {
            assert_eq!(entry["name"].as_str(), Some(workload.name()));
            assert_eq!(entry["why"].as_str(), Some(workload.why()));
        }
        for report in &reports {
            assert_eq!(report.failed, 0, "{}: failed requests", report.name);
            assert!(report.correct(), "{}: outputs differ", report.name);
            assert_eq!(report.metric("failed_share").unwrap().value, 0.0);
            for name in ALWAYS {
                let metric = report
                    .metric(name)
                    .unwrap_or_else(|| panic!("{}: {name} missing", report.name));
                assert!(metric.value.is_finite(), "{}: {name}", report.name);
            }
            assert!(report.metric("tokens_per_s").unwrap().value > 0.0);
            // Every per-layer metric BENCHMARK.json lists is reported, on
            // every workload, under the listed unit.
            assert_eq!(report.per_layer.len(), listed.len());
            for entry in listed {
                let name = entry["name"].as_str().unwrap();
                let metric = report
                    .metric(name)
                    .unwrap_or_else(|| panic!("{}: {name} missing", report.name));
                assert_eq!(Some(metric.unit), entry["unit"].as_str(), "{name}");
                assert!(metric.value.is_finite(), "{}: {name}", report.name);
            }
            // The driver line carries exactly the contract's keys.
            let line: Value = serde_json::from_str(&report.driver_line(false)).unwrap();
            assert_eq!(line["correct"].as_bool(), Some(true));
            assert_eq!(line["failed"].as_u64(), Some(0));
            assert_eq!(
                line["metrics"].as_object().unwrap().len(),
                report::GATED.len()
            );
        }
        // Layers that only some workloads exercise.
        let value = |w: usize, name: &str| reports[w].metric(name).unwrap().value;
        assert!(value(0, "core.fill_mask_us_p50") > 0.0);
        assert!(value(2, "core.mask_cache_build_ms") > 0.0);
        assert!(value(3, "core.tag_compile_ms") > 0.0);
        assert!(value(3, "core.tag_free_fill_us_p50") > 0.0);
        assert_eq!(value(0, "engine.cache_hit_share"), 1.0);
        assert_eq!(value(1, "engine.cache_hit_share"), 1.0);
        assert_eq!(value(2, "engine.cache_hit_share"), 0.0);

        let env = environment(&options, &fixture, load_average());
        let document = report::pretty(&report_json(env, &reports));
        let parsed: Value = serde_json::from_str(&document).expect("report parses back");
        for report in &reports {
            let saved = &parsed["workloads"][report.name];
            assert_eq!(saved["failed"].as_u64(), Some(0));
            assert_eq!(
                saved["end_to_end"]["tokens_per_s"]["value"].as_f64(),
                Some(report.metric("tokens_per_s").unwrap().value)
            );
        }
        assert_eq!(parsed["env"]["seed"].as_u64(), Some(11));
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(&args("--workload cfg_heavy --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(o.workload, Some(Workload::CfgHeavy));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3.0, true));
        assert!(parse(&args("--trace-dir t")).unwrap().trace);
        assert!(parse(&args("--workload nope")).is_err());
        assert!(parse(&args("--trace 2")).is_err());
        assert!(parse(&args("--seconds 0")).is_err());
        assert!(parse(&args("--seed")).is_err());
    }
}
