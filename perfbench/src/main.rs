//! The R-Opus benchmark: one seeded workload per run, measured end to end
//! with tracing off, or layer by layer in a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload plan-paper --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Human-readable lines come first; the last line of standard output is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! The exit code is 0 only when every output check passed.

mod chaos_storm;
mod digest;
mod fleet_10k;
mod harness;
mod plan_paper;
mod serve_churn;
mod spans;
mod stats;

use std::process::ExitCode;

use harness::{Metric, Report, RunConfig, THREADS};
use stats::{median, Summary};

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("pass_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("servers", "count"),
    ("capacity_cpus", "cpus"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload's traced run; a layer
/// the workload never calls reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("trace.fleet_gen_s", "s"),
    ("qos.translate_s", "s"),
    ("qos.translations", "count"),
    ("qos.translate_us_per_app", "us"),
    ("placement.aggregate_s", "s"),
    ("placement.capacity_search_s", "s"),
    ("placement.consolidate_s", "s"),
    ("placement.evaluations", "count"),
    ("placement.cache_hits", "count"),
    ("placement.cache_hit_ratio", "ratio"),
    ("placement.eval_us", "us"),
    ("placement.generations", "count"),
    ("placement.failure_sweep_s", "s"),
    ("placement.failure_cases", "count"),
    ("placement.unsupported_cases", "count"),
    ("daemon.admit.p50_us", "us"),
    ("daemon.admit.tail_us", "us"),
    ("daemon.admit.tail_pct", "pct"),
    ("daemon.admit.count", "count"),
    ("daemon.tick.p50_us", "us"),
    ("daemon.tick.tail_us", "us"),
    ("daemon.tick.tail_pct", "pct"),
    ("daemon.tick.count", "count"),
    ("daemon.depart.p50_us", "us"),
    ("daemon.depart.tail_us", "us"),
    ("daemon.depart.tail_pct", "pct"),
    ("daemon.depart.count", "count"),
    ("daemon.migrate.p50_us", "us"),
    ("daemon.migrate.tail_us", "us"),
    ("daemon.migrate.tail_pct", "pct"),
    ("daemon.migrate.count", "count"),
    ("daemon.snapshot.p50_us", "us"),
    ("daemon.snapshot.tail_us", "us"),
    ("daemon.snapshot.tail_pct", "pct"),
    ("daemon.snapshot.count", "count"),
    ("session.recomputes", "count"),
    ("protocol.parse_s", "s"),
    ("protocol.serialize_s", "s"),
    ("protocol.bytes_in", "bytes"),
    ("protocol.bytes_out", "bytes"),
    ("chaos.replay_s", "s"),
    ("chaos.replan_s", "s"),
    ("chaos.replans", "count"),
    ("migration.planned", "count"),
    ("migration.committed", "count"),
    ("migration.committed_ratio", "ratio"),
    ("migration.failed", "count"),
    ("migration.deferred_slots", "slots"),
    ("migration.peak_in_flight", "count"),
    ("bench.pass_s", "s"),
    ("bench.traced_pass_s", "s"),
    ("bench.trace_overhead_s", "s"),
    ("bench.unattributed_s", "s"),
];

const WORKLOADS: [&str; 4] = ["plan-paper", "fleet-10k", "serve-churn", "chaos-storm"];

const USAGE: &str =
    "usage: ropus-perfbench --workload <plan-paper|fleet-10k|serve-churn|chaos-storm> \
--seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: String,
    config: RunConfig,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err(format!(
            "--seconds must be a non-negative number, not {seconds}"
        ));
    }
    let traced = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        config: RunConfig {
            seed: seed.ok_or("--seed is required")?,
            seconds,
            traced,
        },
    })
}

fn run_workload(name: &str, config: &RunConfig) -> Report {
    match name {
        "plan-paper" => plan_paper::run(config, plan_paper::Scale::FULL),
        "fleet-10k" => fleet_10k::run(config, fleet_10k::Scale::FULL),
        "serve-churn" => serve_churn::run(config, serve_churn::Scale::FULL),
        _ => chaos_storm::run(config, chaos_storm::Scale::FULL),
    }
}

/// Peak resident set size of this process, MB, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The end-to-end metrics of an untraced run. Latencies are summarized
/// per pass (so the reported percentile does not depend on how many
/// passes fit in the run) and the median over passes is reported.
fn end_to_end(report: &Report) -> Vec<Metric> {
    let per_pass: Vec<Summary> = report.op_ms.iter().map(|ms| Summary::of(ms)).collect();
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let values = [
        med(&report.pass_s),
        med(&per_pass.iter().map(|s| s.p50).collect::<Vec<_>>()),
        med(&per_pass.iter().map(|s| s.tail).collect::<Vec<_>>()),
        report.servers,
        report.capacity_cpus,
        med(&report.setup_s),
        peak_rss_mb().unwrap_or(0.0),
    ];
    if let Some(s) = per_pass.first() {
        println!(
            "op latency: median and p{} of {} operations per pass, median over {} passes",
            s.tail_pct,
            s.count,
            per_pass.len()
        );
    }
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric {
            name: name.to_string(),
            unit,
            value,
        })
        .collect()
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order.
fn per_layer(report: &Report) -> Vec<Metric> {
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    let (plain, traced) = (med(&report.pass_s), med(&report.traced_pass_s));
    let common = [
        ("trace.fleet_gen_s", med(&report.fleet_gen_s)),
        ("bench.pass_s", plain),
        ("bench.traced_pass_s", traced),
        ("bench.trace_overhead_s", traced - plain),
    ];
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let measured = report
                .layers
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value);
            let shared = common.iter().find(|(n, _)| *n == name).map(|(_, v)| *v);
            Metric {
                name: name.to_string(),
                unit,
                value: measured.or(shared).unwrap_or(0.0),
            }
        })
        .collect()
}

/// The result as one JSON line. A value that is not a finite number
/// (already failing its check) prints as 0 to keep the line valid JSON.
fn result_line(report: &Report, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(r#""{}":{{"value":{value},"unit":"{}"}}"#, m.name, m.unit)
        })
        .collect();
    format!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        report.correct(),
        report.attempted,
        report.failed,
        body.join(",")
    )
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let config = args.config;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} for {} s, trace {}, {THREADS} engine threads on {cores} available cores",
        args.workload,
        config.seed,
        config.seconds,
        u8::from(config.traced)
    );
    let mut report = run_workload(&args.workload, &config);
    let metrics = if config.traced {
        per_layer(&report)
    } else {
        end_to_end(&report)
    };
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        report.check(format!("{} is a finite number", bad.name), false);
    }
    for note in &report.notes {
        println!("{note}");
    }
    for (name, ok) in &report.checks {
        println!("check {}: {name}", if *ok { "ok  " } else { "FAIL" });
    }
    println!(
        "operations: {} attempted, {} failed (failed_frac {})",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for m in &metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&report, &metrics));
    if report.correct() && report.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(traced: bool) -> RunConfig {
        RunConfig {
            seed: 3,
            seconds: 0.0,
            traced,
        }
    }

    fn assert_sound(name: &str, report: &Report) {
        assert!(report.correct(), "{name}: checks {:?}", report.checks);
        assert!(report.attempted > 0, "{name} attempted nothing");
        assert_eq!(report.failed, 0, "{name}: {:?}", report.notes);
        for m in &report.layers {
            assert!(
                PER_LAYER.iter().any(|&(n, u)| n == m.name && u == m.unit),
                "{name}: {} ({}) is not a declared per-layer metric",
                m.name,
                m.unit
            );
        }
        let e2e = end_to_end(report);
        for m in &e2e {
            assert!(m.value > 0.0, "{name}: {} = {}", m.name, m.value);
        }
    }

    #[test]
    fn plan_paper_smoke() {
        for traced in [false, true] {
            let r = plan_paper::run(&tiny(traced), plan_paper::Scale::TINY);
            assert_sound("plan-paper", &r);
        }
    }

    #[test]
    fn fleet_10k_smoke() {
        let r = fleet_10k::run(&tiny(true), fleet_10k::Scale::TINY);
        assert_sound("fleet-10k", &r);
        let layers = per_layer(&r);
        let get = |n: &str| layers.iter().find(|m| m.name == n).map(|m| m.value);
        assert!(get("qos.translate_s") > Some(0.0));
        assert!(get("placement.capacity_search_s") > Some(0.0));
    }

    #[test]
    fn serve_churn_smoke() {
        let r = serve_churn::run(&tiny(true), serve_churn::Scale::TINY);
        assert_sound("serve-churn", &r);
        let layers = per_layer(&r);
        let get = |n: &str| layers.iter().find(|m| m.name == n).map(|m| m.value);
        assert!(get("daemon.admit.count") >= Some(12.0));
        assert!(get("protocol.bytes_in") > Some(0.0));
    }

    #[test]
    fn chaos_storm_smoke() {
        let r = chaos_storm::run(&tiny(true), chaos_storm::Scale::TINY);
        assert_sound("chaos-storm", &r);
    }

    #[test]
    fn result_line_carries_every_metric() {
        let r = Report::default();
        let line = result_line(&r, &per_layer(&r));
        let v: serde::Value = serde_json::from_str(&line).expect("result line is JSON");
        assert_eq!(
            v["metrics"].as_object().map(|o| o.len()),
            Some(PER_LAYER.len())
        );
        assert_eq!(v["correct"].as_bool(), Some(false));
    }

    /// `BENCHMARK.json` at the repository root names exactly the metrics
    /// and workloads this program reports.
    #[test]
    fn benchmark_json_matches_the_program() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec: serde::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            spec[key]
                .as_array()
                .expect("a list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m[k].as_str().unwrap_or_default().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), expect(END_TO_END));
        assert_eq!(names("per_layer"), expect(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
