//! `plan-paper`: the paper's §VII evaluation — a full capacity plan
//! (two-mode translation, thorough GA consolidation, single-failure
//! sweep) for 26 applications × 4 weeks of 5-minute demand.
//!
//! The fleet is the paper's case-study fleet, the same for every seed;
//! the seed drives the genetic search. A fleet drawn per seed changes
//! the plan's size (7 or 8 servers, so 7 or 8 failure cases to re-plan)
//! and with it the run time by more than a regression bound.

use std::time::Instant;

use ropus::prelude::*;
use ropus_placement::failure::analyze_single_failures;
use ropus_placement::simulator::{AggregateLoad, FitRequest};

use crate::digest::digest;
use crate::harness::{since, timed_loop, unattributed, Report, RunConfig, THREADS};
use crate::spans::Spans;
use crate::stats::median;

/// Fleet size and search effort.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub apps: usize,
    pub weeks: usize,
    pub thorough: bool,
}

impl Scale {
    pub const FULL: Scale = Scale {
        apps: 26,
        weeks: 4,
        thorough: true,
    };
    #[cfg(test)]
    pub const TINY: Scale = Scale {
        apps: 6,
        weeks: 1,
        thorough: false,
    };
}

/// What one traced pass's layer calls returned.
struct TracedPass {
    placement: PlacementReport,
    analysis: FailureAnalysis,
    translations: usize,
}

pub fn run(config: &RunConfig, scale: Scale) -> Report {
    let mut report = Report::default();
    let (framework, apps) = report.setup(|r| {
        let fleet = r.generate(|| {
            case_study_fleet(&FleetConfig {
                apps: scale.apps,
                weeks: scale.weeks,
                ..FleetConfig::paper()
            })
        });
        let policy = QosPolicy {
            normal: AppQos::paper_default(Some(30)),
            failure: AppQos::paper_default(None),
        };
        let apps: Vec<AppSpec> = fleet
            .into_iter()
            .map(|app| AppSpec::new(app.name, app.trace, policy))
            .collect();
        let options = if scale.thorough {
            ConsolidationOptions::thorough(config.seed)
        } else {
            ConsolidationOptions::fast(config.seed)
        };
        // Builder defaults are the paper's: 16-way servers, θ = 0.95
        // with a 60-minute deadline, only affected apps relax.
        let framework = Framework::builder()
            .options(options.with_threads(THREADS))
            .build();
        (framework, apps)
    });

    let mut plans: Vec<CapacityPlan> = Vec::new();
    let mut digests = Vec::new();
    let mut spans = Spans::default();
    let mut traced: Option<TracedPass> = None;
    timed_loop(config, 1, |trace| {
        if trace {
            let start = Instant::now();
            let out = traced_pass(&framework, &apps, &mut spans);
            report.traced_pass_s.push(since(start));
            report.attempt(out.is_ok());
            match out {
                Ok(t) => traced = Some(t),
                Err(e) => report.note(format!("traced plan failed: {e}")),
            }
            return;
        }
        let start = Instant::now();
        let out = framework.plan(&apps);
        let secs = since(start);
        report.attempt(out.is_ok());
        match out {
            Ok(plan) => {
                report.pass_s.push(secs);
                report.op_ms.push(vec![secs * 1e3]);
                digests.push(digest(&plan));
                if plans.is_empty() {
                    plans.push(plan);
                }
            }
            Err(e) => report.note(format!("plan failed: {e}")),
        }
    });

    let Some(plan) = plans.pop() else {
        report.check("plan-paper: a plan completed", false);
        return report;
    };
    report.servers = plan.servers_to_provision() as f64;
    report.capacity_cpus = plan.normal_placement.required_capacity_total;
    report.note(format!(
        "plan: {} normal servers + {} spare, C_requ {:.2} CPUs, C_peak {:.2} CPUs",
        plan.normal_servers(),
        usize::from(plan.spare_needed()),
        plan.normal_placement.required_capacity_total,
        plan.normal_placement.peak_allocation_total,
    ));
    report.check(
        "plan-paper: every app placed exactly once",
        placed_once(&plan.normal_placement, apps.len()),
    );
    report.check(
        "plan-paper: every normal-mode server fits its capacity (FitRequest)",
        servers_fit(&framework, &apps, &plan.normal_placement),
    );
    report.check(
        "plan-paper: plan digest identical across passes",
        digests.windows(2).all(|w| w[0] == w[1]),
    );

    if let Some(t) = traced {
        report.check(
            "plan-paper: traced layer calls reproduce the plan",
            t.placement == plan.normal_placement && t.analysis == plan.failure_analysis,
        );
        layer_metrics(&mut report, &spans, &t);
        unattributed(&mut report, &spans);
    }
    report
}

/// The plan's three stages, each called through its public entry point
/// inside a span.
fn traced_pass(
    framework: &Framework,
    apps: &[AppSpec],
    spans: &mut Spans,
) -> Result<TracedPass, String> {
    spans.time("pass", |s| {
        let (_, normal, failure) = s
            .time("qos.translate", |_| framework.translate_fleet(apps))
            .map_err(|e| e.to_string())?;
        let consolidator = Consolidator::new(
            framework.server(),
            framework.commitments(),
            framework.options(),
        );
        let placement = s
            .time("placement.consolidate", |_| {
                consolidator.consolidate(&normal, ObsCtx::none())
            })
            .map_err(|e| e.to_string())?;
        let analysis = s
            .time("placement.failure_sweep", |_| {
                analyze_single_failures(
                    &consolidator,
                    &placement,
                    &normal,
                    &failure,
                    framework.failure_scope(),
                )
            })
            .map_err(|e| e.to_string())?;
        Ok(TracedPass {
            placement,
            analysis,
            translations: normal.len() + failure.len(),
        })
    })
}

fn layer_metrics(report: &mut Report, spans: &Spans, t: &TracedPass) {
    let med = |name: &str| median(&spans.durations(name)).unwrap_or(0.0);
    let translate_s = med("qos.translate");
    let consolidate_s = med("placement.consolidate");
    let stats = t.placement.stats;
    report.layer("qos.translate_s", "s", translate_s);
    report.layer("qos.translations", "count", t.translations as f64);
    report.layer(
        "qos.translate_us_per_app",
        "us",
        translate_s * 1e6 / t.translations.max(1) as f64,
    );
    report.layer("placement.consolidate_s", "s", consolidate_s);
    report.layer("placement.evaluations", "count", stats.evaluations as f64);
    report.layer("placement.cache_hits", "count", stats.cache_hits as f64);
    report.layer("placement.cache_hit_ratio", "ratio", stats.hit_rate());
    report.layer(
        "placement.eval_us",
        "us",
        consolidate_s * 1e6 / stats.cache_misses.max(1) as f64,
    );
    report.layer("placement.generations", "count", stats.generations as f64);
    report.layer(
        "placement.failure_sweep_s",
        "s",
        med("placement.failure_sweep"),
    );
    report.layer(
        "placement.failure_cases",
        "count",
        t.analysis.cases.len() as f64,
    );
    report.layer(
        "placement.unsupported_cases",
        "count",
        t.analysis
            .cases
            .iter()
            .filter(|c| !c.is_supported())
            .count() as f64,
    );
}

/// Every app index appears on exactly one server, and the assignment
/// vector agrees with the server lists.
fn placed_once(placement: &PlacementReport, apps: usize) -> bool {
    let mut seen = vec![0usize; apps];
    for server in &placement.servers {
        for &w in &server.workloads {
            match (seen.get_mut(w), placement.assignment.get(w)) {
                (Some(count), Some(&assigned)) if assigned == server.server => *count += 1,
                _ => return false,
            }
        }
    }
    placement.assignment.len() == apps && seen.iter().all(|&c| c == 1)
}

/// Recomputes each normal-mode server's fit from its members' translated
/// workloads and checks it holds at the server's capacity.
fn servers_fit(framework: &Framework, apps: &[AppSpec], placement: &PlacementReport) -> bool {
    let Ok((_, normal, _)) = framework.translate_fleet(apps) else {
        return false;
    };
    let commitments = framework.commitments();
    let capacity = framework.server().capacity();
    placement.servers.iter().all(|server| {
        let members: Option<Vec<&Workload>> =
            server.workloads.iter().map(|&w| normal.get(w)).collect();
        let Some(members) = members else {
            return false;
        };
        AggregateLoad::of(&members).is_ok_and(|load| {
            server.required_capacity <= capacity
                && FitRequest::new(&load, &commitments).evaluate(capacity).fits
        })
    })
}
