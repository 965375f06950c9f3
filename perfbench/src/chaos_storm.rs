//! `chaos-storm`: a seeded stochastic outage storm replayed over a
//! planned pool, with every re-placement paced through the migration
//! state machine under storm caps.
//!
//! The fleet and its pool are the same for every seed; the seed draws the
//! outage schedule. Replay time grows with the number of outages and of
//! the segments they cut the horizon into, which a plain MTBF/MTTR draw
//! varies by a fifth or more from seed to seed, so the schedule is the
//! seed's first draw with the process's expected counts of both: every
//! seed replays a storm of the same size and its own shape.

use std::time::Instant;

use ropus::prelude::*;
use ropus_chaos::replay;
use ropus_trace::rng::Rng;

use crate::digest::digest;
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
    pub const FULL: Scale = Scale { apps: 50, weeks: 4 };
    #[cfg(test)]
    pub const TINY: Scale = Scale { apps: 12, weeks: 1 };
}

/// Mean time between failures of one server, hours.
const MTBF_HOURS: usize = 300;
/// Mean time to repair, hours.
const MTTR_HOURS: usize = 6;
/// Schedule draws tried before giving up on a storm of the expected size.
const MAX_DRAWS: u64 = 10_000;
/// Fleet-wide cap on moves in flight.
const MAX_IN_FLIGHT: usize = 4;
/// Per-server cap on moves in flight.
const MAX_IN_FLIGHT_PER_SERVER: usize = 1;

/// Inputs shared by every pass.
struct Storm {
    framework: Framework,
    apps: Vec<AppSpec>,
    placement: PlacementReport,
    schedule: FailureSchedule,
    migration: MigrationConfig,
    horizon: usize,
}

pub fn run(config: &RunConfig, scale: Scale) -> Report {
    let mut report = Report::default();
    let storm = report.setup(|r| build_storm(r, config.seed, scale));
    let storm = match storm {
        Ok(s) => s,
        Err(e) => {
            report.attempt(false);
            report.note(format!("storm set-up failed: {e}"));
            report.check("chaos-storm: set-up planned the pool", false);
            return report;
        }
    };

    let mut reports: Vec<ChaosReport> = Vec::new();
    let mut digests = Vec::new();
    let mut spans = Spans::default();
    let mut replan_s = Vec::new();
    timed_loop(config, 1, |trace| {
        let start = Instant::now();
        let out = if trace {
            let obs = Obs::wall();
            let out = traced_pass(&storm, &mut spans, &obs);
            let replan_ms: f64 = obs
                .report()
                .spans_named("chaos.replay.plan_segments")
                .map(|s| s.wall_ms)
                .sum();
            replan_s.push(replan_ms / 1e3);
            out
        } else {
            storm
                .framework
                .chaos_replay_on_with(
                    &storm.apps,
                    &storm.placement,
                    &storm.schedule,
                    DegradationPolicy::default(),
                    Some(storm.migration),
                )
                .map_err(|e| e.to_string())
        };
        let secs = since(start);
        report.attempt(out.is_ok());
        match out {
            Ok(mut chaos) => {
                chaos.obs = None;
                digests.push(digest(&chaos));
                if trace {
                    report.traced_pass_s.push(secs);
                } else {
                    report.pass_s.push(secs);
                    report.op_ms.push(vec![secs * 1e3]);
                }
                if reports.is_empty() {
                    reports.push(chaos);
                }
            }
            Err(e) => report.note(format!("replay failed: {e}")),
        }
    });

    report.servers = storm.placement.servers_used as f64;
    report.capacity_cpus = storm.placement.required_capacity_total;
    let Some(chaos) = reports.pop() else {
        report.check("chaos-storm: a replay completed", false);
        return report;
    };
    let Some(m) = chaos.migration.as_ref() else {
        report.check("chaos-storm: the replay reports its migrations", false);
        return report;
    };
    // Every planned move is an operation the program attempts; a move the
    // machine abandons after its retries is a failed one.
    report.attempted += m.planned as u64;
    report.failed += m.failed as u64;
    let replans = degraded_segments(&storm.schedule, storm.horizon);
    report.note(format!(
        "storm: {} outages, {replans} degraded segments, {} windows; moves {} planned / {} committed / {} failed, peak {} in flight, {} deferred slots",
        storm.schedule.events().len(),
        chaos.windows.len(),
        m.planned,
        m.committed,
        m.failed,
        m.peak_in_flight,
        m.deferred_slots,
    ));
    report.note(format!(
        "storm: {:.3}% of demand shed, {:.3}% served late",
        100.0 * chaos.shed_total / chaos.demand_total,
        100.0 * chaos.served_late_total / chaos.demand_total,
    ));
    report.check(
        "chaos-storm: report digest identical across passes",
        digests.windows(2).all(|w| w[0] == w[1]),
    );
    report.check(
        "chaos-storm: peak in-flight moves within the storm cap",
        m.peak_in_flight <= MAX_IN_FLIGHT,
    );
    report.check(
        "chaos-storm: the storm forced at least one committed move",
        m.committed > 0,
    );

    if config.traced {
        let med = |name: &str| median(&spans.durations(name)).unwrap_or(0.0);
        report.layer("qos.translate_s", "s", med("qos.translate"));
        report.layer("qos.translations", "count", 2.0 * storm.apps.len() as f64);
        report.layer(
            "qos.translate_us_per_app",
            "us",
            med("qos.translate") * 1e6 / (2 * storm.apps.len()) as f64,
        );
        report.layer("chaos.replay_s", "s", med("chaos.replay"));
        report.layer("chaos.replan_s", "s", median(&replan_s).unwrap_or(0.0));
        report.layer("chaos.replans", "count", replans as f64);
        report.layer("migration.planned", "count", m.planned as f64);
        report.layer("migration.committed", "count", m.committed as f64);
        report.layer(
            "migration.committed_ratio",
            "ratio",
            m.committed as f64 / m.planned.max(1) as f64,
        );
        report.layer("migration.failed", "count", m.failed as f64);
        report.layer("migration.deferred_slots", "slots", m.deferred_slots as f64);
        report.layer("migration.peak_in_flight", "count", m.peak_in_flight as f64);
        unattributed(&mut report, &spans);
    }
    report
}

/// Generates the fleet, plans its normal-mode pool with the fast GA and
/// draws the outage schedule over that pool.
fn build_storm(report: &mut Report, seed: u64, scale: Scale) -> Result<Storm, String> {
    let fleet = report.generate(|| {
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
    let framework = Framework::builder()
        .options(ConsolidationOptions::fast(0).with_threads(THREADS))
        .build();
    let placement = framework
        .plan_normal_only(&apps)
        .map_err(|e| e.to_string())?;
    let calendar = apps[0].demand().calendar();
    let horizon = apps[0].demand().len();
    let slots_per_hour = calendar.slots_in_minutes(60);
    let schedule = storm_schedule(
        seed,
        MTBF_HOURS * slots_per_hour,
        MTTR_HOURS * slots_per_hour,
        placement.servers_used,
        horizon,
    )?;
    let migration = MigrationConfig::paced()
        .with_max_in_flight(MAX_IN_FLIGHT)
        .with_max_in_flight_per_server(MAX_IN_FLIGHT_PER_SERVER);
    Ok(Storm {
        framework,
        apps,
        placement,
        schedule,
        migration,
        horizon,
    })
}

/// Draws from the seeded MTBF/MTTR process until a schedule has the
/// expected number of outages, `servers × horizon / (mtbf + mttr)`, and
/// the expected number of degraded segments: one per outage, plus one
/// for each outage that starts while another server is down, which
/// happens with probability `(servers − 1) × mttr / (mtbf + mttr)`.
fn storm_schedule(
    seed: u64,
    mtbf_slots: usize,
    mttr_slots: usize,
    servers: usize,
    horizon: usize,
) -> Result<FailureSchedule, String> {
    let cycle = (mtbf_slots + mttr_slots) as f64;
    let outages = ((servers * horizon) as f64 / cycle).round() as usize;
    let overlap = servers.saturating_sub(1) as f64 * mttr_slots as f64 / cycle;
    let segments = (outages as f64 * (1.0 + overlap)).round() as usize;
    let draws = Rng::seed_from_u64(seed);
    for k in 0..MAX_DRAWS {
        let profile = StochasticProfile {
            seed: draws.fork(k).next_u64(),
            mtbf_slots,
            mttr_slots,
        };
        let schedule =
            FailureSchedule::stochastic(&profile, servers, horizon).map_err(|e| e.to_string())?;
        if schedule.events().len() == outages && degraded_segments(&schedule, horizon) == segments {
            return Ok(schedule);
        }
    }
    Err(format!(
        "no schedule with {outages} outages over {segments} degraded segments in {MAX_DRAWS} draws"
    ))
}

/// Segments with at least one server down; each is re-planned.
fn degraded_segments(schedule: &FailureSchedule, horizon: usize) -> usize {
    schedule
        .segments(horizon)
        .iter()
        .filter(|s| s.is_degraded())
        .count()
}

/// The replay's two stages through their public entry points — fleet
/// translation, then the replay itself with a wall-clock collector
/// attached — each inside a span.
fn traced_pass(storm: &Storm, spans: &mut Spans, obs: &Obs) -> Result<ChaosReport, String> {
    spans.time("pass", |s| {
        let fleet = s
            .time("qos.translate", |_| {
                storm.framework.chaos_fleet(&storm.apps)
            })
            .map_err(|e| e.to_string())?;
        let f = &storm.framework;
        let consolidator = Consolidator::new(f.server(), f.commitments(), f.options());
        let options = ReplayOptions {
            scope: f.failure_scope(),
            degradation: DegradationPolicy::default(),
            migration: Some(storm.migration),
        };
        s.time("chaos.replay", |_| {
            replay(
                &consolidator,
                &storm.placement,
                &fleet,
                &storm.schedule,
                &options,
                ObsCtx::from(obs),
            )
        })
        .map_err(|e| e.to_string())
    })
}
