//! `fleet-10k`: pool sizing at scale — 10,000 applications × 4 weeks run
//! through translation, one pooled aggregate and one required-capacity
//! search under Table I case 3. No GA and no failure sweep run.

use std::time::Instant;

use ropus::case_study::{translate_fleet_threaded, CaseConfig};
use ropus::prelude::*;
use ropus_placement::simulator::{AggregateLoad, FitOptions, FitRequest};
use ropus_placement::SlotArena;
use ropus_trace::gen::AppWorkload;

use crate::harness::{since, timed_loop, unattributed, Report, RunConfig, THREADS};
use crate::spans::Spans;
use crate::stats::median;

/// Fleet size.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub apps: usize,
    pub weeks: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        apps: 10_000,
        weeks: 4,
    };
    #[cfg(test)]
    pub const TINY: Scale = Scale { apps: 20, weeks: 1 };
}

/// Capacity search tolerance, CPUs.
const TOLERANCE: f64 = 0.05;

/// Search ceiling per application, CPUs: far above any app's allocation.
const CEILING_PER_APP: f64 = 64.0;

pub fn run(config: &RunConfig, scale: Scale) -> Report {
    let mut report = Report::default();
    let fleet = report.setup(|r| {
        r.generate(|| {
            case_study_fleet(&FleetConfig {
                seed: config.seed,
                apps: scale.apps,
                weeks: scale.weeks,
                ..FleetConfig::paper()
            })
        })
    });
    let case = CaseConfig::table1()[2];
    let mut arena = SlotArena::new();
    let mut spans = Spans::default();
    let mut required = Vec::new();

    // The first pass faults its gigabyte-scale outputs in cold; it runs
    // untimed so every timed pass sees the steady state.
    let warmup = Instant::now();
    let warm = size(&fleet, &case, &mut arena, &mut Spans::default());
    report.attempt(warm.is_ok());
    report.note(format!("warm-up pass: {:.3} s", since(warmup)));
    required.extend(warm.ok());

    timed_loop(config, 1, |trace| {
        let mut scratch = Spans::default();
        let start = Instant::now();
        let out = size(
            &fleet,
            &case,
            &mut arena,
            if trace { &mut spans } else { &mut scratch },
        );
        let secs = since(start);
        report.attempt(out.is_ok());
        match out {
            Ok(c) => {
                required.push(c);
                if trace {
                    report.traced_pass_s.push(secs);
                } else {
                    report.pass_s.push(secs);
                    report.op_ms.push(vec![secs * 1e3]);
                }
            }
            Err(e) => report.note(format!("sizing failed: {e}")),
        }
    });

    let Some(&capacity) = required.first() else {
        report.check("fleet-10k: a sizing pass completed", false);
        return report;
    };
    report.capacity_cpus = capacity;
    report.servers = (capacity / ServerSpec::sixteen_way().capacity()).ceil();
    report.note(format!(
        "pooled requirement: {capacity:.2} CPUs for {} apps",
        fleet.len()
    ));
    report.check(
        "fleet-10k: required capacity identical across passes",
        required.iter().all(|c| c.to_bits() == capacity.to_bits()),
    );

    if config.traced {
        let med = |name: &str| median(&spans.durations(name)).unwrap_or(0.0);
        let translate_s = med("qos.translate");
        report.layer("qos.translate_s", "s", translate_s);
        report.layer("qos.translations", "count", fleet.len() as f64);
        report.layer(
            "qos.translate_us_per_app",
            "us",
            translate_s * 1e6 / fleet.len() as f64,
        );
        report.layer("placement.aggregate_s", "s", med("placement.aggregate"));
        report.layer(
            "placement.capacity_search_s",
            "s",
            med("placement.capacity_search"),
        );
        unattributed(&mut report, &spans);
    }
    report
}

/// One sizing pass: translate every app, aggregate the pool, and search
/// its required capacity. Each stage runs inside a span.
fn size(
    fleet: &[AppWorkload],
    case: &CaseConfig,
    arena: &mut SlotArena,
    spans: &mut Spans,
) -> Result<f64, String> {
    spans.time("pass", |s| {
        let translated = s
            .time("qos.translate", |_| {
                translate_fleet_threaded(fleet, case, THREADS)
            })
            .map_err(|e| e.to_string())?;
        let workloads: Vec<Workload> = translated.into_iter().map(|t| t.workload).collect();
        let refs: Vec<&Workload> = workloads.iter().collect();
        let load = s
            .time("placement.aggregate", |_| {
                AggregateLoad::of_pooled(&refs, arena)
            })
            .map_err(|e| e.to_string())?;
        let commitments = case.commitments();
        let required = s.time("placement.capacity_search", |_| {
            FitRequest::new(&load, &commitments)
                .with_options(FitOptions::new().with_tolerance(TOLERANCE))
                .required_capacity(CEILING_PER_APP * fleet.len() as f64)
        });
        load.recycle(arena);
        required.ok_or_else(|| "fleet does not fit under the search ceiling".to_string())
    })
}
