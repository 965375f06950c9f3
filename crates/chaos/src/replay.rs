//! The degraded-mode replay engine.
//!
//! [`replay`] walks a fleet's demand traces slot by slot over a
//! [`FailureSchedule`], re-placing displaced applications onto the
//! surviving servers at every change of the failed-server set and
//! driving the pool's two-priority [`SlotScheduler`] (CoS1 granted first,
//! CoS2 shares the remainder proportionally) over the migration
//! machine's serving and reservation views. Unserved demand is either
//! shed immediately or carried over as deferred CoS2 work with a
//! deadline, per the [`DegradationPolicy`].
//!
//! # Determinism
//!
//! The replay is a pure function of its inputs. Re-placements go through
//! the failure sweep's distinct-case fan-out
//! ([`Consolidator::consolidate_cases`]): failed-server sets whose mixed
//! fleets and survivor pools agree are solved once, on the consolidator's
//! shared fit memo, and results are bit-identical across `--threads`
//! settings. The slot loop itself is serial.

use ropus_obs::{BurnRateRule, ObsCtx, SloEngine};
use ropus_placement::consolidate::{Consolidator, PlacementReport};
use ropus_placement::failure::{mixed_fleet, FailureScope};
use ropus_placement::migration::{MigrationConfig, MigrationOrchestrator, MigrationPhase};
use ropus_placement::server::Pool;
use ropus_placement::workload::Workload;
use ropus_qos::AppQos;
use ropus_trace::{Trace, TraceError};
use ropus_wlm::host::{SlotScheduler, SERVED_EPSILON};
use ropus_wlm::manager::WlmPolicy;
use ropus_wlm::metrics::{audit, slo_contract};

use crate::error::ChaosError;
use crate::report::{AppChaosOutcome, ChaosReport, DegradedWindow};
use crate::schedule::FailureSchedule;

/// Everything the replay needs to know about one application.
#[derive(Debug, Clone)]
pub struct ChaosApp {
    /// Application name (report key).
    pub name: String,
    /// Raw demand trace.
    pub demand: Trace,
    /// Manager policy derived from the normal-mode translation.
    pub normal_policy: WlmPolicy,
    /// Manager policy derived from the failure-mode translation.
    pub failure_policy: WlmPolicy,
    /// Normal-mode QoS contract (audited outside degraded windows).
    pub normal_qos: AppQos,
    /// Failure-mode QoS contract (audited inside degraded windows).
    pub failure_qos: AppQos,
    /// Normal-mode workload (drives placement when the app keeps its
    /// normal contract during an outage).
    pub normal_workload: Workload,
    /// Failure-mode workload (drives placement when the app is relaxed
    /// to its failure contract).
    pub failure_workload: Workload,
}

/// What happens to demand the survivors cannot absorb.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPolicy {
    /// Defer unserved demand as CoS2 carry-over work instead of shedding
    /// it immediately.
    pub carry_over: bool,
    /// Slots deferred demand may wait before it is shed. `None` uses the
    /// pool's CoS2 carry-forward deadline `s` from its commitments.
    pub deadline_slots: Option<usize>,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            carry_over: true,
            deadline_slots: None,
        }
    }
}

impl DegradationPolicy {
    /// Sheds unserved demand immediately instead of deferring it.
    pub fn shed_immediately() -> Self {
        DegradationPolicy {
            carry_over: false,
            deadline_slots: Some(0),
        }
    }
}

/// Knobs of a chaos replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplayOptions {
    /// Which applications relax to failure-mode QoS during an outage.
    pub scope: FailureScope,
    /// Graceful-degradation policy for demand the survivors cannot
    /// absorb.
    pub degradation: DegradationPolicy,
    /// Migration lifecycle model. Every re-placement goes through the
    /// [`MigrationOrchestrator`] state machine. `None` runs it under the
    /// zero-cost [`MigrationConfig::teleport`], unobserved and without
    /// a [`MigrationReport`] in the output, so moves take effect at the
    /// start of the re-planned segment. `Some(config)` runs it under
    /// `config`, emits its `migration.*` telemetry and attaches the
    /// report; `Some(MigrationConfig::teleport())` differs from `None`
    /// only by that report.
    ///
    /// [`MigrationReport`]: ropus_placement::migration::MigrationReport
    pub migration: Option<MigrationConfig>,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        ReplayOptions {
            scope: FailureScope::AffectedOnly,
            degradation: DegradationPolicy::default(),
            migration: None,
        }
    }
}

impl ReplayOptions {
    /// Sets the failure scope.
    pub fn with_scope(mut self, scope: FailureScope) -> Self {
        self.scope = scope;
        self
    }

    /// Sets the graceful-degradation policy.
    pub fn with_degradation(mut self, degradation: DegradationPolicy) -> Self {
        self.degradation = degradation;
        self
    }

    /// Routes re-placements through the migration state machine.
    pub fn with_migration(mut self, migration: MigrationConfig) -> Self {
        self.migration = Some(migration);
        self
    }
}

/// Per-segment execution plan: where every app runs and under which
/// contract.
#[derive(Debug, Clone)]
struct SegmentPlan {
    /// App → physical server (`None` = nowhere to run, blackout).
    assignment: Vec<Option<usize>>,
    /// App → whether it runs under its failure-mode policy/contract.
    use_failure: Vec<bool>,
    /// Apps displaced from a failed server (relative to normal mode).
    affected: Vec<usize>,
    /// Whether the consolidator found this placement (vs. best-effort).
    feasible: bool,
    /// Whether some server is down.
    degraded: bool,
}

/// Replays the fleet's demand over `schedule`, starting from
/// `normal_placement`.
///
/// `consolidator` supplies the server type, pool commitments, and search
/// options used to re-place displaced workloads onto survivors; its
/// thread count also parallelizes the per-failed-set placements.
///
/// When `obs` carries an enabled handle the replay emits
/// `chaos.segment.replan` events as each degraded segment's execution
/// plan is fixed, `chaos.window.recovery` events when the per-window
/// metrics are assembled, and counters for shed / carried / contended
/// slots plus `chaos.replay.infeasible_segments` — degraded segments
/// whose re-placement fell back to best-effort packing, an outcome
/// previous versions dropped silently. All spans and events come from
/// the serial slot loop, so the collector's report is bit-identical
/// across `--threads` settings when timings are suppressed.
///
/// # Errors
///
/// Returns [`ChaosError::NoApplications`] for an empty fleet,
/// [`ChaosError::UnknownServer`] when an event names a server the normal
/// placement does not use, [`ChaosError::Wlm`] for a degenerate server
/// capacity, and [`ChaosError::Trace`] for misaligned demand traces.
pub fn replay(
    consolidator: &Consolidator,
    normal_placement: &PlacementReport,
    apps: &[ChaosApp],
    schedule: &FailureSchedule,
    options: &ReplayOptions,
    obs: ObsCtx<'_>,
) -> Result<ChaosReport, ChaosError> {
    let n = apps.len();
    if n == 0 {
        return Err(ChaosError::NoApplications);
    }
    let calendar = apps[0].demand.calendar();
    let deadline_slots = match options.degradation.deadline_slots {
        Some(s) => s,
        None => calendar.slots_in_minutes(consolidator.commitments().cos2.deadline_minutes()),
    };
    let carry_over = options.degradation.carry_over && deadline_slots > 0;
    let mut scheduler = SlotScheduler::new(
        consolidator.server().capacity(),
        n,
        if carry_over { deadline_slots } else { 0 },
    )?;
    let horizon = apps[0].demand.len();
    for app in apps {
        if app.demand.calendar() != calendar || app.demand.len() != horizon {
            return Err(ChaosError::Trace(TraceError::Misaligned {
                left: horizon,
                right: app.demand.len(),
            }));
        }
    }
    if normal_placement.assignment.len() != n {
        return Err(ChaosError::Trace(TraceError::Misaligned {
            left: n,
            right: normal_placement.assignment.len(),
        }));
    }
    let pool_ids: Vec<usize> = normal_placement.servers.iter().map(|s| s.server).collect();
    for e in schedule.events() {
        if !pool_ids.contains(&e.server) {
            return Err(ChaosError::UnknownServer {
                server: e.server,
                pool: pool_ids.len(),
            });
        }
    }

    let segments = schedule.segments(horizon);
    let plans = {
        let _span = obs.span("chaos.replay.plan_segments");
        segment_plans(
            consolidator,
            normal_placement,
            apps,
            &segments,
            options,
            obs,
        )?
    };
    let infeasible = plans.iter().filter(|p| p.degraded && !p.feasible).count();
    obs.counter("chaos.replay.infeasible_segments", infeasible as u64);

    // Windows: maximal runs of degraded segments, as inclusive segment
    // index ranges.
    let mut window_ranges: Vec<(usize, usize)> = Vec::new();
    for (k, seg) in segments.iter().enumerate() {
        if seg.is_degraded() {
            match window_ranges.last_mut() {
                Some((_, hi)) if *hi + 1 == k => *hi = k,
                _ => window_ranges.push((k, k)),
            }
        }
    }
    let window_of = |k: usize| -> Option<usize> {
        window_ranges
            .iter()
            .position(|&(lo, hi)| lo <= k && k <= hi)
    };

    let samples: Vec<&[f64]> = apps.iter().map(|a| a.demand.samples()).collect();

    // Per-app running totals.
    let mut util_normal: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut util_degraded: Vec<Vec<f64>> = vec![Vec::new(); n];
    let mut demand_total = vec![0.0f64; n];
    let mut served_on_time = vec![0.0f64; n];
    let mut served_late = vec![0.0f64; n];
    let mut shed = vec![0.0f64; n];
    let mut backlog_remaining = vec![0.0f64; n];
    let mut migrations_per_app = vec![0usize; n];
    // Fleet-wide series and counters.
    let mut backlog_series: Vec<f64> = Vec::with_capacity(horizon);
    let mut window_migrations = vec![0usize; window_ranges.len()];
    let mut window_shed = vec![0.0f64; window_ranges.len()];
    let mut contended_slots = 0usize;
    let mut migrations_total = 0usize;

    // The migration machine owns the serving assignment: each segment's
    // plan becomes its target, and apps move only as it commits
    // cutovers. Without a configured model the moves are free and the
    // machine is neither observed nor reported.
    let (config, machine_obs) = match options.migration {
        Some(config) => (config, obs),
        None => (MigrationConfig::teleport(), ObsCtx::none()),
    };
    let initial = normal_placement
        .assignment
        .iter()
        .map(|&s| Some(s))
        .collect();
    let mut orch = MigrationOrchestrator::new(config, initial);
    let mut healthy = vec![true; n];
    let mut band_high = vec![0.0f64; n];
    let mut policies: Vec<WlmPolicy> = Vec::with_capacity(n);
    let mut demand = vec![0.0f64; n];

    // Streaming SLO attainment against the *normal* contract for the
    // whole replay: planned degradation during an outage still spends
    // the app's error budget, which is exactly what the burn-rate
    // alerts should surface.
    let mut slo = SloEngine::new(BurnRateRule::default_rules());
    for app in apps {
        slo.register(slo_contract(
            app.name.clone(),
            &app.normal_qos,
            calendar.slot_minutes(),
        ));
    }

    let slots_span = obs.span("chaos.replay.slots");
    for (k, seg) in segments.iter().enumerate() {
        let plan = &plans[k];
        // Attribute boundary moves to the window they enter, or — for
        // the moves back home at repair — to the window that just ended.
        let attributed = if plan.degraded {
            window_of(k)
        } else if k > 0 && plans[k - 1].degraded {
            window_of(k - 1)
        } else {
            None
        };
        // The new plan becomes the machine's target; moves count only
        // when they commit (inside the slot loop below).
        orch.retarget(
            &plan.assignment,
            &seg.failed,
            seg.start,
            attributed,
            machine_obs,
        );
        // Each app runs under its active mode's policy and band.
        policies.clear();
        for (app, (&failure, high)) in apps
            .iter()
            .zip(plan.use_failure.iter().zip(band_high.iter_mut()))
        {
            let (policy, qos) = if failure {
                (app.failure_policy, &app.failure_qos)
            } else {
                (app.normal_policy, &app.normal_qos)
            };
            policies.push(policy);
            *high = qos.band().high();
        }

        for slot in seg.start..seg.end {
            // Migration machine, slot start: begin eligible moves under
            // the storm caps, then hand the scheduler the serving and
            // reservation views if anything changed (including the
            // segment's retarget).
            let transitions = orch.begin_slot(slot, machine_obs);
            count_commits(
                &transitions,
                &mut migrations_per_app,
                &mut migrations_total,
                &mut window_migrations,
            );
            if orch.take_dirty() {
                scheduler.set_views(orch.serving(), &orch.reservations());
            }
            for (d, series) in demand.iter_mut().zip(&samples) {
                *d = series[slot];
            }
            // Migrating apps' reserved demand presses on the
            // destination's scales (capacity double-booked mid-move)
            // without drawing grants there.
            scheduler.step(slot, &demand, &policies)?;
            if scheduler.contended().contains(&true) {
                contended_slots += 1;
                obs.counter("chaos.replay.contended_slots", 1);
            }
            let mut slot_backlog = 0.0f64;
            let mut slot_shed = 0.0f64;
            let mut slot_carried = false;
            for (i, (out, &d)) in scheduler.apps().iter().zip(&demand).enumerate() {
                demand_total[i] += d;
                served_on_time[i] += out.served;
                served_late[i] += out.late;
                shed[i] += out.shed;
                slot_shed += out.shed;
                slot_carried |= out.deferred;
                slot_backlog += out.backlog;
                backlog_remaining[i] = out.backlog;
                if plan.degraded || out.recovering {
                    util_degraded[i].push(out.utilization);
                } else {
                    util_normal[i].push(out.utilization);
                }
                slo.observe(i, slot, out.utilization, obs);
                // Health verdict for the migration machine: the slot is
                // healthy when current demand was fully served within
                // the app's utilization band.
                healthy[i] = d - out.served <= SERVED_EPSILON
                    && out.utilization <= band_high[i] + SERVED_EPSILON;
            }
            // Migration machine, slot end: apply drain/health progress.
            let transitions =
                orch.complete_slot(slot, scheduler.contended(), &healthy, machine_obs);
            count_commits(
                &transitions,
                &mut migrations_per_app,
                &mut migrations_total,
                &mut window_migrations,
            );
            backlog_series.push(slot_backlog);
            if slot_shed > SERVED_EPSILON {
                obs.counter("chaos.replay.shed_slots", 1);
            }
            if slot_carried {
                obs.counter("chaos.replay.carried_slots", 1);
            }
            if plan.degraded {
                if let Some(w) = window_of(k) {
                    window_shed[w] += slot_shed;
                }
            }
        }
    }
    drop(slots_span);

    // Assemble per-window metrics.
    let mut windows = Vec::with_capacity(window_ranges.len());
    for (w, &(lo, hi)) in window_ranges.iter().enumerate() {
        let start = segments[lo].start;
        let end = segments[hi].end;
        let mut failed: Vec<usize> = Vec::new();
        let mut displaced: Vec<usize> = Vec::new();
        let mut feasible = true;
        for k in lo..=hi {
            failed.extend_from_slice(&segments[k].failed);
            displaced.extend_from_slice(&plans[k].affected);
            feasible &= plans[k].feasible;
        }
        failed.sort_unstable();
        failed.dedup();
        displaced.sort_unstable();
        displaced.dedup();
        let mut recovery_slots = None;
        for (t, &outstanding) in backlog_series.iter().enumerate().skip(end - 1) {
            if outstanding <= SERVED_EPSILON {
                recovery_slots = Some((t + 1).saturating_sub(end));
                break;
            }
        }
        let mut recovery_event = obs
            .event("chaos.window.recovery")
            .with_u64("start", start as u64)
            .with_u64("end", end as u64)
            .with_str("feasible", if feasible { "true" } else { "false" })
            .with_u64("displaced", displaced.len() as u64)
            .with_u64("migrations", window_migrations[w] as u64)
            .with_f64("shed", window_shed[w]);
        if let Some(r) = recovery_slots {
            recovery_event = recovery_event.with_u64("recovery_slots", r as u64);
        }
        recovery_event.emit();
        windows.push(DegradedWindow {
            start,
            end,
            failed,
            feasible,
            displaced: displaced.len(),
            migrations: window_migrations[w],
            shed: window_shed[w],
            recovery_slots,
        });
    }

    // Assemble per-app outcomes.
    let mut out_apps = Vec::with_capacity(n);
    for (i, app) in apps.iter().enumerate() {
        let normal_audit = if util_normal[i].is_empty() {
            None
        } else {
            let trace = Trace::from_samples(calendar, std::mem::take(&mut util_normal[i]))?;
            Some(audit(&trace, &app.normal_qos))
        };
        let degraded_audit = if util_degraded[i].is_empty() {
            None
        } else {
            let trace = Trace::from_samples(calendar, std::mem::take(&mut util_degraded[i]))?;
            Some(audit(&trace, &app.failure_qos))
        };
        let served = served_on_time[i] + served_late[i];
        let unserved_fraction = if demand_total[i] > 0.0 {
            ((demand_total[i] - served) / demand_total[i]).max(0.0)
        } else {
            0.0
        };
        out_apps.push(AppChaosOutcome {
            name: app.name.clone(),
            home_server: normal_placement.assignment[i],
            demand_total: demand_total[i],
            served_on_time: served_on_time[i],
            served_late: served_late[i],
            shed: shed[i],
            backlog_remaining: backlog_remaining[i],
            unserved_fraction,
            migrations: migrations_per_app[i],
            normal_audit,
            degraded_audit,
        });
    }

    // Per-move timelines and recovery metrics for a configured model.
    let migration = options.migration.map(|_| {
        let names: Vec<&str> = apps.iter().map(|a| a.name.as_str()).collect();
        orch.report(&names)
    });

    slo.record_counters(obs);
    let slo = Some(slo.summary());

    Ok(ChaosReport {
        slots: horizon,
        slot_minutes: calendar.slot_minutes(),
        scope: options.scope,
        carry_over,
        deadline_slots,
        degraded_slots: segments
            .iter()
            .filter(|s| s.is_degraded())
            .map(|s| s.end - s.start)
            .sum(),
        contended_slots,
        migrations_total,
        demand_total: demand_total.iter().sum(),
        served_total: served_on_time.iter().sum::<f64>() + served_late.iter().sum::<f64>(),
        served_late_total: served_late.iter().sum(),
        shed_total: shed.iter().sum(),
        apps: out_apps,
        windows,
        migration,
        slo,
        obs: None,
    })
}

/// Books committed transitions into the per-app / fleet / per-window
/// migration tallies: a move counts once, when it commits.
fn count_commits(
    transitions: &[ropus_placement::migration::Transition],
    migrations_per_app: &mut [usize],
    migrations_total: &mut usize,
    window_migrations: &mut [usize],
) {
    for t in transitions {
        if t.phase != MigrationPhase::Committed {
            continue;
        }
        if let Some(per_app) = migrations_per_app.get_mut(t.app) {
            *per_app += 1;
        }
        *migrations_total += 1;
        if let Some(w) = t.window {
            if let Some(count) = window_migrations.get_mut(w) {
                *count += 1;
            }
        }
    }
}

/// Builds the per-segment execution plans, re-placing displaced
/// workloads for every distinct failed-server set.
fn segment_plans(
    consolidator: &Consolidator,
    normal_placement: &PlacementReport,
    apps: &[ChaosApp],
    segments: &[crate::schedule::Segment],
    options: &ReplayOptions,
    obs: ObsCtx<'_>,
) -> Result<Vec<SegmentPlan>, ChaosError> {
    let n = apps.len();
    let pool_ids: Vec<usize> = normal_placement.servers.iter().map(|s| s.server).collect();

    // Distinct failed sets in first-appearance order; every segment maps
    // to its set's index (usize::MAX sentinel is never read for normal
    // segments).
    let mut distinct: Vec<Vec<usize>> = Vec::new();
    for seg in segments {
        if seg.is_degraded() && !distinct.contains(&seg.failed) {
            distinct.push(seg.failed.clone());
        }
    }

    // One re-placement input per distinct failed set.
    struct SetInput {
        affected: Vec<usize>,
        survivors: Vec<usize>,
    }
    let inputs: Vec<SetInput> = distinct
        .iter()
        .map(|failed| {
            let affected: Vec<usize> = (0..n)
                .filter(|&i| failed.contains(&normal_placement.assignment[i]))
                .collect();
            let survivors: Vec<usize> = pool_ids
                .iter()
                .copied()
                .filter(|s| !failed.contains(s))
                .collect();
            SetInput {
                affected,
                survivors,
            }
        })
        .collect();

    // Solve the distinct sets through the consolidator's distinct-case
    // fan-out; a blackout (no survivors) has nowhere to run anything.
    let normal: Vec<Workload> = apps.iter().map(|a| a.normal_workload.clone()).collect();
    let failure: Vec<Workload> = apps.iter().map(|a| a.failure_workload.clone()).collect();
    let server = consolidator.server();
    let cases: Vec<(Vec<Workload>, Pool)> = inputs
        .iter()
        .filter(|input| !input.survivors.is_empty())
        .map(|input| {
            (
                mixed_fleet(&normal, &failure, &input.affected, options.scope),
                Pool::homogeneous(server, input.survivors.len()),
            )
        })
        .collect();
    let before = consolidator.memo_stats();
    let solved = consolidator.consolidate_cases(&cases);
    let memo = consolidator.memo_stats().since(&before);
    memo.record(obs);
    obs.counter("chaos.replay.distinct_cases", memo.distinct_cases);
    let mut solved = cases.iter().zip(solved);
    let placements: Vec<(bool, Vec<Option<usize>>)> = inputs
        .iter()
        .map(|input| {
            if input.survivors.is_empty() {
                return (false, vec![None; n]);
            }
            match solved.next() {
                Some((_, Ok(report))) => {
                    let assignment = report
                        .assignment
                        .iter()
                        .map(|&s| Some(input.survivors[s]))
                        .collect();
                    (true, assignment)
                }
                // The survivors cannot absorb the fleet within commitments:
                // fall back to deterministic best-effort packing and let
                // the slot loop degrade gracefully.
                Some(((mixed, _), Err(_))) => {
                    (false, best_effort_assignment(mixed, &input.survivors))
                }
                // Every set with survivors has a case above.
                None => (false, vec![None; n]),
            }
        })
        .collect();

    let mut plans = Vec::with_capacity(segments.len());
    for seg in segments {
        if !seg.is_degraded() {
            plans.push(SegmentPlan {
                assignment: normal_placement
                    .assignment
                    .iter()
                    .map(|&s| Some(s))
                    .collect(),
                use_failure: vec![false; n],
                affected: Vec::new(),
                feasible: true,
                degraded: false,
            });
            continue;
        }
        let ix = distinct
            .iter()
            .position(|f| *f == seg.failed)
            .unwrap_or_default();
        let input = &inputs[ix];
        let (feasible, ref assignment) = placements[ix];
        // The re-placements above ran in parallel workers; this assembly
        // loop is serial, so events keep their deterministic order.
        obs.event("chaos.segment.replan")
            .with_u64("start", seg.start as u64)
            .with_u64("end", seg.end as u64)
            .with_u64("failed", seg.failed.len() as u64)
            .with_u64("displaced", input.affected.len() as u64)
            .with_str("feasible", if feasible { "true" } else { "false" })
            .emit();
        let use_failure: Vec<bool> = (0..n)
            .map(|i| match options.scope {
                FailureScope::AllApplications => true,
                FailureScope::AffectedOnly => input.affected.contains(&i),
            })
            .collect();
        plans.push(SegmentPlan {
            assignment: assignment.clone(),
            use_failure,
            affected: input.affected.clone(),
            feasible,
            degraded: true,
        });
    }
    Ok(plans)
}

/// Deterministic greedy fallback: largest workloads first, each onto the
/// least-loaded survivor (ties break to the lowest server id).
fn best_effort_assignment(mixed: &[Workload], survivors: &[usize]) -> Vec<Option<usize>> {
    let mut order: Vec<usize> = (0..mixed.len()).collect();
    order.sort_by(|&a, &b| {
        mixed[b]
            .total_peak()
            .partial_cmp(&mixed[a].total_peak())
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut load = vec![0.0f64; survivors.len()];
    let mut assignment = vec![None; mixed.len()];
    for i in order {
        let mut best = 0usize;
        for (j, &l) in load.iter().enumerate() {
            if l < load[best] {
                best = j;
            }
        }
        assignment[i] = Some(survivors[best]);
        load[best] += mixed[i].total_peak();
    }
    assignment
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::FailureEvent;
    use ropus_placement::consolidate::ConsolidationOptions;
    use ropus_placement::server::ServerSpec;
    use ropus_qos::translation::translate;
    use ropus_qos::{CosSpec, PoolCommitments};
    use ropus_trace::Calendar;

    /// One week on the five-minute calendar; the consolidator requires
    /// whole-week traces.
    const WEEK: usize = 2016;

    fn commitments() -> PoolCommitments {
        PoolCommitments::new(CosSpec::new(0.9, 60).unwrap())
    }

    fn consolidator(threads: usize) -> Consolidator {
        Consolidator::new(
            ServerSpec::new(4, 4.0),
            commitments(),
            ConsolidationOptions::fast(11).with_threads(threads),
        )
    }

    /// Builds an app with constant demand plus its translations.
    fn app(name: &str, level: f64, slots: usize) -> ChaosApp {
        let calendar = Calendar::five_minute();
        let demand = Trace::constant(calendar, level, slots).unwrap();
        let normal_qos = AppQos::paper_default(Some(30));
        let failure_qos = AppQos::paper_default(None);
        let normal = translate(&demand, &normal_qos, &commitments().cos2, ObsCtx::none()).unwrap();
        let failure =
            translate(&demand, &failure_qos, &commitments().cos2, ObsCtx::none()).unwrap();
        ChaosApp {
            name: name.to_string(),
            demand,
            normal_policy: WlmPolicy::from_translation(&normal_qos, &normal.report),
            failure_policy: WlmPolicy::from_translation(&failure_qos, &failure.report),
            normal_qos,
            failure_qos,
            normal_workload: Workload::from_translation(name, normal),
            failure_workload: Workload::from_translation(name, failure),
        }
    }

    fn fleet(levels: &[f64], slots: usize) -> Vec<ChaosApp> {
        levels
            .iter()
            .enumerate()
            .map(|(i, &l)| app(&format!("app-{i}"), l, slots))
            .collect()
    }

    fn normal_placement(cons: &Consolidator, apps: &[ChaosApp]) -> PlacementReport {
        let workloads: Vec<Workload> = apps.iter().map(|a| a.normal_workload.clone()).collect();
        cons.consolidate(&workloads, ObsCtx::none()).unwrap()
    }

    #[test]
    fn segment_plans_match_a_fresh_consolidator_per_failed_set() {
        // Every degraded segment's plan must equal re-placing its mixed
        // fleet with a fresh consolidator (cold memo, no case dedup), for
        // both scopes and across thread counts. The schedule repeats a
        // failed set, overlaps two outages, and under `AllApplications`
        // maps different failed sets of equal size to one distinct case.
        let apps = fleet(&[3.0, 4.5, 2.8, 5.0, 3.2, 2.6, 4.7, 3.9, 3.3, 4.1], WEEK);
        let placement = normal_placement(&consolidator(1), &apps);
        let servers: Vec<usize> = placement.servers.iter().map(|s| s.server).collect();
        assert!(servers.len() >= 3, "need three servers, got {servers:?}");
        let schedule = FailureSchedule::scripted(vec![
            FailureEvent {
                server: servers[0],
                start: 100,
                duration: 50,
            },
            FailureEvent {
                server: servers[1],
                start: 300,
                duration: 50,
            },
            FailureEvent {
                server: servers[2],
                start: 320,
                duration: 60,
            },
            FailureEvent {
                server: servers[0],
                start: 600,
                duration: 20,
            },
        ])
        .unwrap();
        let segments = schedule.segments(WEEK);
        for scope in [FailureScope::AffectedOnly, FailureScope::AllApplications] {
            let options = ReplayOptions::default().with_scope(scope);
            for threads in [1, 3] {
                let cons = consolidator(threads);
                let plans = segment_plans(
                    &cons,
                    &placement,
                    &apps,
                    &segments,
                    &options,
                    ObsCtx::none(),
                )
                .unwrap();
                for (seg, plan) in segments.iter().zip(&plans) {
                    if !seg.is_degraded() {
                        continue;
                    }
                    let survivors: Vec<usize> = servers
                        .iter()
                        .copied()
                        .filter(|s| !seg.failed.contains(s))
                        .collect();
                    let mixed: Vec<Workload> = apps
                        .iter()
                        .enumerate()
                        .map(|(i, app)| {
                            let displaced = seg.failed.contains(&placement.assignment[i]);
                            if scope == FailureScope::AllApplications || displaced {
                                app.failure_workload.clone()
                            } else {
                                app.normal_workload.clone()
                            }
                        })
                        .collect();
                    let pool = Pool::homogeneous(cons.server(), survivors.len());
                    match consolidator(1).consolidate_onto(&mixed, pool, ObsCtx::none()) {
                        Ok(fresh) => {
                            assert!(plan.feasible);
                            let expected: Vec<Option<usize>> = fresh
                                .assignment
                                .iter()
                                .map(|&s| Some(survivors[s]))
                                .collect();
                            assert_eq!(plan.assignment, expected, "{scope:?} {seg:?}");
                        }
                        Err(_) => {
                            assert!(!plan.feasible);
                            assert_eq!(plan.assignment, best_effort_assignment(&mixed, &survivors));
                        }
                    }
                }
                let memo = cons.memo_stats();
                assert!(memo.entries > 0 && memo.misses > 0);
                if scope == FailureScope::AllApplications {
                    // Three failed sets of one server and one of two: the
                    // all-failure-mode fleet makes two distinct cases.
                    assert_eq!(memo.distinct_cases, 2);
                }
            }
        }
    }

    #[test]
    fn empty_fleet_is_rejected() {
        let cons = consolidator(1);
        let apps = fleet(&[1.0], WEEK);
        let placement = normal_placement(&cons, &apps);
        let err = replay(
            &cons,
            &placement,
            &[],
            &FailureSchedule::none(),
            &ReplayOptions::default(),
            ObsCtx::none(),
        );
        assert!(matches!(err, Err(ChaosError::NoApplications)));
    }

    #[test]
    fn unknown_server_is_rejected() {
        let cons = consolidator(1);
        let apps = fleet(&[1.0, 1.2], WEEK);
        let placement = normal_placement(&cons, &apps);
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: 40,
            start: 0,
            duration: 4,
        }])
        .unwrap();
        let err = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default(),
            ObsCtx::none(),
        );
        assert!(matches!(
            err,
            Err(ChaosError::UnknownServer { server: 40, .. })
        ));
    }

    #[test]
    fn no_failures_replays_clean() {
        let cons = consolidator(1);
        let apps = fleet(&[1.0, 1.2, 0.8], WEEK);
        let placement = normal_placement(&cons, &apps);
        let report = replay(
            &cons,
            &placement,
            &apps,
            &FailureSchedule::none(),
            &ReplayOptions::default(),
            ObsCtx::none(),
        )
        .unwrap();
        assert_eq!(report.degraded_slots, 0);
        assert_eq!(report.migrations_total, 0);
        assert!(report.windows.is_empty());
        assert!(report.shed_total.abs() < 1e-9);
        assert!(report.all_compliant(), "clean replay must be compliant");
        for a in &report.apps {
            assert!(a.degraded_audit.is_none());
            assert!((a.served_total() - a.demand_total).abs() < 1e-6);
        }
    }

    #[test]
    fn accounting_identity_holds() {
        // Demand = served + shed + backlog for every app, whatever the
        // degradation policy.
        let cons = consolidator(1);
        let apps = fleet(&[2.6, 2.4, 2.8, 2.2], WEEK);
        let placement = normal_placement(&cons, &apps);
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: placement.servers[0].server,
            start: 8,
            duration: 16,
        }])
        .unwrap();
        for degradation in [
            DegradationPolicy::default(),
            DegradationPolicy::shed_immediately(),
            DegradationPolicy {
                carry_over: true,
                deadline_slots: Some(2),
            },
        ] {
            let report = replay(
                &cons,
                &placement,
                &apps,
                &schedule,
                &ReplayOptions::default().with_degradation(degradation),
                ObsCtx::none(),
            )
            .unwrap();
            for a in &report.apps {
                let balance = a.served_total() + a.shed + a.backlog_remaining;
                assert!(
                    (balance - a.demand_total).abs() < 1e-6,
                    "{}: demand {} vs balance {balance}",
                    a.name,
                    a.demand_total
                );
            }
            assert_eq!(report.windows.len(), 1);
            assert_eq!(report.degraded_slots, 16);
        }
    }

    #[test]
    fn blackout_shreds_or_carries_everything() {
        let cons = consolidator(1);
        let apps = fleet(&[1.5], WEEK);
        let placement = normal_placement(&cons, &apps);
        assert_eq!(placement.servers_used, 1);
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: placement.servers[0].server,
            start: 4,
            duration: 4,
        }])
        .unwrap();
        let report = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default().with_degradation(DegradationPolicy::shed_immediately()),
            ObsCtx::none(),
        )
        .unwrap();
        // 4 slots × 1.5 CPU shed, the rest served.
        assert!((report.shed_total - 6.0).abs() < 1e-6);
        assert!(!report.windows[0].feasible);
        assert_eq!(report.windows[0].displaced, 1);
        assert_eq!(report.windows[0].recovery_slots, Some(0));
    }

    #[test]
    fn carried_demand_recovers_after_repair() {
        let cons = consolidator(1);
        let apps = fleet(&[1.5], WEEK);
        let placement = normal_placement(&cons, &apps);
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: placement.servers[0].server,
            start: 4,
            duration: 4,
        }])
        .unwrap();
        let report = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default().with_degradation(DegradationPolicy {
                carry_over: true,
                deadline_slots: Some(100),
            }),
            ObsCtx::none(),
        )
        .unwrap();
        let recovery = report.windows[0].recovery_slots.expect("must recover");
        assert!(recovery > 0, "backlog must take time to drain");
        // Deferred outage demand is eventually served late, not shed.
        assert!(report.shed_total.abs() < 1e-9);
        assert!(report.served_late_total > 0.0);
        let a = &report.apps[0];
        assert!((a.served_total() - a.demand_total).abs() < 1e-6);
    }

    #[test]
    fn deadline_zero_disables_carry_over() {
        let cons = consolidator(1);
        let apps = fleet(&[1.5], WEEK);
        let placement = normal_placement(&cons, &apps);
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: placement.servers[0].server,
            start: 4,
            duration: 4,
        }])
        .unwrap();
        let report = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default().with_degradation(DegradationPolicy {
                carry_over: true,
                deadline_slots: Some(0),
            }),
            ObsCtx::none(),
        )
        .unwrap();
        assert!(!report.carry_over);
        assert!((report.shed_total - 6.0).abs() < 1e-6);
    }

    #[test]
    fn default_deadline_comes_from_commitments() {
        let cons = consolidator(1);
        let apps = fleet(&[1.0], WEEK);
        let placement = normal_placement(&cons, &apps);
        let report = replay(
            &cons,
            &placement,
            &apps,
            &FailureSchedule::none(),
            &ReplayOptions::default(),
            ObsCtx::none(),
        )
        .unwrap();
        // 60-minute deadline on a 5-minute calendar.
        assert_eq!(report.deadline_slots, 12);
        assert!(report.carry_over);
    }

    #[test]
    fn displaced_apps_migrate_and_return() {
        let cons = consolidator(1);
        // Two servers' worth of load.
        let apps = fleet(&[2.6, 2.4, 2.8, 2.2], WEEK);
        let placement = normal_placement(&cons, &apps);
        assert!(placement.servers_used >= 2, "fixture must span servers");
        let failed = placement.servers[0].server;
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: failed,
            start: 8,
            duration: 16,
        }])
        .unwrap();
        let report = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default(),
            ObsCtx::none(),
        )
        .unwrap();
        let displaced = report.windows[0].displaced;
        assert!(displaced > 0);
        // Each displaced app moves out and back home.
        assert_eq!(report.migrations_total, 2 * displaced);
        assert_eq!(report.windows[0].migrations, report.migrations_total);
        for a in &report.apps {
            assert!(a.migrations == 0 || a.migrations == 2);
        }
    }

    #[test]
    fn replay_is_deterministic_across_threads() {
        let apps = fleet(&[2.6, 2.4, 2.8, 2.2, 1.9], WEEK);
        let schedule = FailureSchedule::stochastic(
            &crate::schedule::StochasticProfile {
                seed: 5,
                mtbf_slots: 30,
                mttr_slots: 6,
            },
            2,
            WEEK,
        )
        .unwrap();
        let run = |threads: usize| {
            let cons = consolidator(threads);
            let placement = normal_placement(&consolidator(1), &apps);
            replay(
                &cons,
                &placement,
                &apps,
                &schedule,
                &ReplayOptions::default(),
                ObsCtx::none(),
            )
            .unwrap()
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial, parallel);
    }

    /// An explicit zero-cost config and the unconfigured replay run the
    /// same machine path, so this now pins only that `None` attaches no
    /// report. The reference for the pre-machine teleport replay is the
    /// golden files in `tests/golden/` (`tests/migration.rs`).
    #[test]
    fn teleport_migration_reproduces_legacy_replay_byte_for_byte() {
        let cons = consolidator(1);
        let apps = fleet(&[2.6, 2.4, 2.8, 2.2], WEEK);
        let placement = normal_placement(&cons, &apps);
        let failed = placement.servers[0].server;
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: failed,
            start: 8,
            duration: 16,
        }])
        .unwrap();
        let legacy = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default(),
            ObsCtx::none(),
        )
        .unwrap();
        let mut machine = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default().with_migration(MigrationConfig::teleport()),
            ObsCtx::none(),
        )
        .unwrap();
        let report = machine.migration.take().expect("machine report attached");
        assert!(report.committed > 0);
        assert_eq!(report.rolled_back, 0);
        assert_eq!(report.deferred_slots, 0);
        // Modulo the attached migration report, the zero-cost machine is
        // the teleport replay, byte for byte.
        assert_eq!(
            serde_json::to_string(&legacy).unwrap(),
            serde_json::to_string(&machine).unwrap()
        );
    }

    #[test]
    fn paced_migration_walks_phases_and_lands_in_band() {
        let cons = consolidator(1);
        let apps = fleet(&[2.6, 2.4, 2.8, 2.2], WEEK);
        let placement = normal_placement(&cons, &apps);
        let failed = placement.servers[0].server;
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: failed,
            start: 8,
            duration: 30,
        }])
        .unwrap();
        let report = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default().with_migration(MigrationConfig::paced()),
            ObsCtx::none(),
        )
        .unwrap();
        let migration = report.migration.as_ref().expect("paced report attached");
        assert!(migration.committed > 0);
        // Paced moves take real slots: nothing commits in the planning
        // slot, and transfers double-book live sources along the way.
        assert!(migration.first_commit_slot.unwrap() > 8);
        assert!(migration.double_booked_slots > 0);
        for mov in &migration.moves {
            assert!(!mov.timeline.is_empty());
        }
        // Report-level migration totals come from committed cutovers.
        let per_app: usize = report.apps.iter().map(|a| a.migrations).sum();
        assert_eq!(per_app, report.migrations_total);
        assert_eq!(migration.committed, report.migrations_total);
    }

    #[test]
    fn storm_cap_defers_moves_in_replay() {
        let cons = consolidator(1);
        let apps = fleet(&[2.6, 2.4, 2.8, 2.2, 1.9, 2.1], WEEK);
        let placement = normal_placement(&cons, &apps);
        assert!(placement.servers_used >= 2, "fixture must span servers");
        let failed = placement.servers[0].server;
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: failed,
            start: 8,
            duration: 40,
        }])
        .unwrap();
        let run = |config: MigrationConfig| {
            replay(
                &cons,
                &placement,
                &apps,
                &schedule,
                &ReplayOptions::default().with_migration(config),
                ObsCtx::none(),
            )
            .unwrap()
            .migration
            .unwrap()
        };
        let unlimited = run(MigrationConfig::paced());
        let capped = run(MigrationConfig::paced().with_max_in_flight(1));
        assert!(capped.peak_in_flight <= 1);
        assert!(capped.committed > 0);
        if unlimited.peak_in_flight > 1 {
            assert!(capped.deferred_slots > 0);
        }
    }

    #[test]
    fn observed_blackout_counts_infeasible_segments_and_window_events() {
        let cons = consolidator(1);
        let apps = fleet(&[1.5], WEEK);
        let placement = normal_placement(&cons, &apps);
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: placement.servers[0].server,
            start: 4,
            duration: 4,
        }])
        .unwrap();
        let obs = ropus_obs::Obs::deterministic();
        let report = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default().with_degradation(DegradationPolicy::shed_immediately()),
            ObsCtx::from(&obs),
        )
        .unwrap();
        assert!(report.obs.is_none(), "replay itself never attaches obs");
        let snapshot = obs.report();
        // The blackout segment has no survivors: its re-placement is the
        // silent best-effort fallback, now surfaced as a counter.
        assert_eq!(snapshot.counter("chaos.replay.infeasible_segments"), 1);
        // All four outage slots shed the whole demand.
        assert_eq!(snapshot.counter("chaos.replay.shed_slots"), 4);
        assert_eq!(snapshot.counter("chaos.replay.carried_slots"), 0);
        assert_eq!(snapshot.events_named("chaos.segment.replan").count(), 1);
        let recovery: Vec<_> = snapshot.events_named("chaos.window.recovery").collect();
        assert_eq!(recovery.len(), 1);
        assert!(recovery[0]
            .attrs
            .iter()
            .any(|a| a.key == "feasible" && a.value == "false"));
        // NullClock suppresses durations on the replay spans.
        assert_eq!(snapshot.spans_named("chaos.replay.slots").count(), 1);
        assert!(snapshot.spans.iter().all(|s| s.wall_ms == 0.0));
    }

    #[test]
    fn scope_all_relaxes_every_app() {
        let cons = consolidator(1);
        let apps = fleet(&[2.6, 2.4, 2.8, 2.2], WEEK);
        let placement = normal_placement(&cons, &apps);
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: placement.servers[0].server,
            start: 8,
            duration: 16,
        }])
        .unwrap();
        let all = replay(
            &cons,
            &placement,
            &apps,
            &schedule,
            &ReplayOptions::default().with_scope(FailureScope::AllApplications),
            ObsCtx::none(),
        )
        .unwrap();
        assert_eq!(all.scope, FailureScope::AllApplications);
        // Under AllApplications every app has degraded-window samples.
        for a in &all.apps {
            assert!(a.degraded_audit.is_some(), "{} must be degraded", a.name);
        }
    }
}
