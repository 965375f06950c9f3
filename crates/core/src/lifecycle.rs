//! The medium-term control loop (§II: "Assignments may be adjusted
//! periodically as service levels are evaluated or as circumstances
//! change") — and with it, an *out-of-sample* test of the paper's core
//! premise that "traces capture past demands and ... future demands will
//! be roughly similar".
//!
//! Each epoch (one week), the controller:
//!
//! 1. plans a placement from the trailing window of demand history,
//! 2. runs the *next, unseen* week of demand through the placed hosts,
//! 3. audits every application's delivered QoS out of sample, and
//! 4. carries the placement forward, counting the migrations each
//!    re-planning step would require.
//!
//! A healthy fleet (slowly changing demands) should show near-total
//! out-of-sample compliance and few migrations — exactly the regime the
//! paper argues trace-based management is sound in.

use ropus_obs::{BurnRateRule, ObsCtx, SloEngine, SloSummary};
use serde::{Deserialize, Serialize};

use ropus_placement::migration::{MigrationConfig, MigrationOrchestrator, MigrationReport};
use ropus_trace::Trace;
use ropus_wlm::host::{Host, HostedWorkload};
use ropus_wlm::manager::WlmPolicy;
use ropus_wlm::metrics::{audit, slo_contract};

use crate::framework::{AppPlan, AppSpec, Framework};
use crate::FrameworkError;

/// Outcome of one lifecycle epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochOutcome {
    /// The (zero-based) week that was replayed out of sample.
    pub week: usize,
    /// Servers the trailing-window plan used.
    pub servers: usize,
    /// Applications whose delivered QoS violated their requirement
    /// during the unseen week.
    pub violations: usize,
    /// Fraction of applications compliant out of sample.
    pub compliant_fraction: f64,
    /// Moves the migration state machine committed while carrying the
    /// previous epoch's placement to this one (0 for the first epoch).
    /// Under the zero-cost teleport config every re-plan delta commits
    /// at once, so this is the number of workloads that changed servers.
    pub migrations: usize,
    /// Rollbacks the epoch's migration machine performed (always 0 under
    /// the teleport config).
    #[serde(default)]
    pub rolled_back: usize,
    /// Moves abandoned after exhausting retries (always 0 under the
    /// teleport config).
    #[serde(default)]
    pub failed: usize,
    /// Burn-rate alert transitions (fires + clears) the streaming SLO
    /// engine produced during this epoch's out-of-sample week.
    #[serde(default)]
    pub slo_alerts: usize,
}

/// Result of a lifecycle run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifecycleReport {
    /// Trailing-window length used for planning, in weeks.
    pub window_weeks: usize,
    /// One outcome per replayed week.
    pub epochs: Vec<EpochOutcome>,
    /// Whole-run SLO attainment and alert log from the streaming engine,
    /// fed every epoch's out-of-sample utilization at global slot
    /// offsets (`week × slots_per_week + t`). `None` only in reports
    /// deserialized from older runs.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub slo: Option<SloSummary>,
}

impl LifecycleReport {
    /// Total migrations across all epochs.
    pub fn total_migrations(&self) -> usize {
        self.epochs.iter().map(|e| e.migrations).sum()
    }

    /// Worst per-epoch out-of-sample compliance.
    pub fn worst_compliance(&self) -> f64 {
        self.epochs
            .iter()
            .map(|e| e.compliant_fraction)
            .fold(1.0, f64::min)
    }
}

impl Framework {
    /// Runs the medium-term control loop over the fleet's trace history.
    ///
    /// For every week `w >= window_weeks` of the common history, plans on
    /// weeks `[w - window_weeks, w)` and replays week `w` out of sample.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::NoApplications`] for an empty fleet, a
    /// trace error when histories are shorter than `window_weeks + 1`
    /// whole weeks or misaligned, and propagates planning failures.
    ///
    /// # Panics
    ///
    /// Panics if `window_weeks` is zero.
    pub fn run_lifecycle(
        &self,
        apps: &[AppSpec],
        window_weeks: usize,
    ) -> Result<LifecycleReport, FrameworkError> {
        self.run_lifecycle_with(apps, window_weeks, MigrationConfig::teleport())
    }

    /// [`run_lifecycle`](Self::run_lifecycle) under an explicit migration
    /// cost model.
    ///
    /// Every epoch's adjustment walks the migration state machine over
    /// the unseen week: moves start under the storm caps, the source
    /// serves until cutover, and the destination is double-booked while
    /// a move is in flight. Who serves where, and which servers hold
    /// reservations, is read slot by slot from the machine's
    /// `serving()`/`reservations()` views, as in the chaos replay, and
    /// the out-of-sample replay runs each host over those residency
    /// windows with the reservations pressing on its scales.
    /// `migrations` counts *committed* moves, and `rolled_back`/`failed`
    /// surface the machine's failures.
    ///
    /// Under the zero-cost [`MigrationConfig::teleport`] (what
    /// `run_lifecycle` uses) every move commits at the start of the
    /// week, so each host replays the new placement's members for the
    /// whole week with no reservations, and `migrations` is the number
    /// of workloads that changed servers.
    ///
    /// # Errors and panics
    ///
    /// As for [`run_lifecycle`](Self::run_lifecycle).
    pub fn run_lifecycle_with(
        &self,
        apps: &[AppSpec],
        window_weeks: usize,
        migration: MigrationConfig,
    ) -> Result<LifecycleReport, FrameworkError> {
        assert!(window_weeks > 0, "window must cover at least one week");
        let first = apps.first().ok_or(FrameworkError::NoApplications)?;
        let weeks = first.demand().weeks();
        if weeks < window_weeks + 1 {
            return Err(FrameworkError::Trace(
                ropus_trace::TraceError::PartialWeek {
                    len: first.demand().len(),
                    per_week: (window_weeks + 1) * first.demand().calendar().slots_per_week(),
                },
            ));
        }

        let mut epochs = Vec::new();
        let mut previous_assignment: Option<Vec<usize>> = None;
        let calendar = first.demand().calendar();

        // One streaming SLO engine across the whole run, so burn-rate
        // windows and error budgets carry over epoch boundaries.
        let mut slo = SloEngine::new(BurnRateRule::default_rules());
        for app in apps {
            slo.register(slo_contract(
                app.name(),
                &app.policy().normal,
                calendar.slot_minutes(),
            ));
        }

        for week in window_weeks..weeks {
            // Plan on the trailing window.
            let history: Result<Vec<AppSpec>, FrameworkError> = apps
                .iter()
                .map(|app| {
                    let demand = app.demand().weeks_range(week - window_weeks, week).ok_or(
                        FrameworkError::Trace(ropus_trace::TraceError::PartialWeek {
                            len: app.demand().len(),
                            per_week: app.demand().calendar().slots_per_week(),
                        }),
                    )?;
                    Ok(AppSpec::new(app.name(), demand, app.policy()))
                })
                .collect();
            let history = history?;
            let (plans, workloads, _) = self.translate_fleet(&history)?;
            let consolidator = ropus_placement::consolidate::Consolidator::new(
                self.server(),
                self.commitments(),
                self.options(),
            );
            let placement = consolidator.consolidate(&workloads, ObsCtx::none())?;
            let slots_per_week = first.demand().calendar().slots_per_week();

            // Walk the epoch's adjustment through the migration machine
            // (the first epoch has no baseline: nothing moves), then
            // replay the unseen week over the residency it produced.
            let prev = previous_assignment
                .as_deref()
                .unwrap_or(&placement.assignment);
            let names: Vec<&str> = apps.iter().map(AppSpec::name).collect();
            let (report, residency) = walk_epoch_moves(
                prev,
                &placement.assignment,
                migration,
                slots_per_week,
                &names,
            );
            let util =
                self.replay_week_with_moves(apps, &plans, &residency, week, slots_per_week)?;

            // Audit each stitched row against the normal contract and
            // stream it through the SLO engine slot-major, so the alert
            // log interleaves apps in global slot order.
            let mut violations = 0usize;
            for (row, app) in util.iter().zip(apps) {
                let stitched =
                    Trace::from_samples(calendar, row.clone()).map_err(FrameworkError::Trace)?;
                if !audit(&stitched, &app.policy().normal).is_compliant() {
                    violations += 1;
                }
            }
            let base = week * slots_per_week;
            for t in 0..slots_per_week {
                for (i, row) in util.iter().enumerate() {
                    if let Some(&u) = row.get(t) {
                        slo.observe(i, base + t, u, ObsCtx::none());
                    }
                }
            }
            let slo_alerts = slo.drain_alerts().len();

            previous_assignment = Some(placement.assignment.clone());
            epochs.push(EpochOutcome {
                week,
                servers: placement.servers_used,
                violations,
                compliant_fraction: 1.0 - violations as f64 / apps.len() as f64,
                migrations: report.committed,
                rolled_back: report.rolled_back,
                failed: report.failed,
                slo_alerts,
            });
        }

        Ok(LifecycleReport {
            window_weeks,
            epochs,
            slo: Some(slo.summary()),
        })
    }

    /// Replays the unseen week on every host that served someone, each
    /// member active over its residency window and each reservation
    /// pressing on the host's scales over its own. Returns every
    /// application's stitched utilization-of-allocation row for the
    /// week, in fleet order.
    fn replay_week_with_moves(
        &self,
        apps: &[AppSpec],
        plans: &[AppPlan],
        residency: &EpochResidency,
        week: usize,
        slots_per_week: usize,
    ) -> Result<Vec<Vec<f64>>, FrameworkError> {
        let mut util: Vec<Vec<f64>> = vec![vec![0.0; slots_per_week]; apps.len()];
        for (members, reserved) in residency.members.iter().zip(&residency.reservations) {
            if members.is_empty() {
                continue;
            }
            let build = |&(app, start, end): &Window| {
                // lint:allow(panic-slice-index): windows come from the
                // placements of these same apps.
                let (a, plan) = (&apps[app], &plans[app]);
                let demand = a
                    .demand()
                    .weeks_range(week, week + 1)
                    // lint:allow(panic-expect): `week` iterates
                    // `window_weeks..weeks`, inside the trace.
                    .expect("week bounds checked by run_lifecycle_with");
                let policy = WlmPolicy::from_translation(&a.policy().normal, &plan.normal);
                HostedWorkload::new(a.name(), demand, policy).with_window(start, end)
            };
            let hosted: Vec<HostedWorkload> = members.iter().map(build).collect();
            let reserved: Vec<HostedWorkload> = reserved.iter().map(build).collect();
            let host = Host::new(self.server().capacity())?;
            let outcome = host.run_with_reservations(&hosted, &reserved, ObsCtx::none())?;
            // Stitch: each member window's utilization belongs to its
            // app for exactly those slots.
            for (wo, &(app, start, end)) in outcome.workloads.iter().zip(members) {
                // lint:allow(panic-slice-index): windows end at
                // `slots_per_week`, the length of both buffers.
                util[app][start..end].copy_from_slice(&wo.utilization.samples()[start..end]);
            }
        }
        Ok(util)
    }
}

/// A residency or reservation window: `(app, start, end)`, a half-open
/// slot range.
type Window = (usize, usize, usize);

/// Where the applications served, and where in-flight moves held
/// reservations, over one epoch's week: per server, windows ordered by
/// (app, start).
#[derive(Debug, Clone, PartialEq)]
struct EpochResidency {
    members: Vec<Vec<Window>>,
    reservations: Vec<Vec<Window>>,
}

/// Walks one epoch's adjustment from `prev` to `next` through the
/// migration machine over an idealized week (no contention, every
/// destination healthy). The storm caps, drain/transfer costs and
/// backoffs still pace the wave. Residency is read from the machine's
/// views exactly as the chaos slot loop reads them: after each
/// `begin_slot` that leaves the machine dirty, every app serves on its
/// `serving()` server and every in-flight move books its
/// `reservations()` server until the views next change. Windows still
/// open at the week's end close there.
fn walk_epoch_moves(
    prev: &[usize],
    next: &[usize],
    config: MigrationConfig,
    slots: usize,
    names: &[&str],
) -> (MigrationReport, EpochResidency) {
    let servers = prev.iter().chain(next).max().map_or(0, |m| m + 1);
    let mut residency = EpochResidency {
        members: vec![Vec::new(); servers],
        reservations: vec![Vec::new(); servers],
    };
    let mut orch = MigrationOrchestrator::new(config, prev.iter().map(|&s| Some(s)).collect());
    let target: Vec<Option<usize>> = next.iter().map(|&s| Some(s)).collect();
    orch.retarget(&target, &[], 0, None, ObsCtx::none());
    // Each app's open member and reservation window: (server, start).
    let mut serving: Vec<Option<(usize, usize)>> = vec![None; prev.len()];
    let mut booked: Vec<Option<(usize, usize)>> = vec![None; prev.len()];
    let mut booked_now: Vec<Option<usize>> = vec![None; prev.len()];
    for slot in 0..slots {
        orch.begin_slot(slot, ObsCtx::none());
        if orch.take_dirty() {
            booked_now.fill(None);
            for (app, server) in orch.reservations() {
                if let Some(b) = booked_now.get_mut(app) {
                    *b = Some(server);
                }
            }
            for (app, (open, &now)) in serving.iter_mut().zip(orch.serving()).enumerate() {
                switch_window(open, now, app, slot, &mut residency.members);
            }
            for (app, (open, &now)) in booked.iter_mut().zip(&booked_now).enumerate() {
                switch_window(open, now, app, slot, &mut residency.reservations);
            }
        }
        if orch.is_idle() {
            break;
        }
        orch.complete_slot(slot, &[], &[], ObsCtx::none());
    }
    for (app, open) in serving.iter_mut().enumerate() {
        switch_window(open, None, app, slots, &mut residency.members);
    }
    for (app, open) in booked.iter_mut().enumerate() {
        switch_window(open, None, app, slots, &mut residency.reservations);
    }
    for windows in residency
        .members
        .iter_mut()
        .chain(residency.reservations.iter_mut())
    {
        windows.sort_unstable();
    }
    (orch.report(names), residency)
}

/// Moves `app`'s open window to server `now` at `slot`: the old window
/// (if any, and if it is on another server) closes into `windows`.
fn switch_window(
    open: &mut Option<(usize, usize)>,
    now: Option<usize>,
    app: usize,
    slot: usize,
    windows: &mut [Vec<Window>],
) {
    if open.map(|(server, _)| server) == now {
        return;
    }
    if let Some((server, start)) = open.take() {
        if let Some(list) = windows.get_mut(server) {
            list.push((app, start, slot));
        }
    }
    *open = now.map(|server| (server, slot));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropus_placement::consolidate::ConsolidationOptions;
    use ropus_placement::server::ServerSpec;
    use ropus_qos::{AppQos, CosSpec, PoolCommitments, QosPolicy};
    use ropus_trace::gen::{case_study_fleet, FleetConfig};

    fn framework(seed: u64) -> Framework {
        Framework::builder()
            .server(ServerSpec::sixteen_way())
            .commitments(PoolCommitments::new(CosSpec::new(0.9, 60).unwrap()))
            .options(ConsolidationOptions::fast(seed))
            .build()
    }

    /// Fleet slice `[from, to)` of a `to`-app case-study fleet; indices
    /// 0-9 are bursty, 10+ smooth.
    fn fleet_specs(from: usize, to: usize, weeks: usize) -> Vec<AppSpec> {
        case_study_fleet(&FleetConfig {
            apps: to,
            weeks,
            ..FleetConfig::paper()
        })
        .into_iter()
        .skip(from)
        .map(|a| {
            AppSpec::new(
                a.name,
                a.trace,
                QosPolicy::uniform(AppQos::paper_default(Some(30))),
            )
        })
        .collect()
    }

    #[test]
    fn smooth_fleet_is_compliant_out_of_sample() {
        // Six *smooth* apps (the regime where the paper's trace-based
        // premise holds): 3 weeks of history, 2-week planning window, one
        // out-of-sample epoch (week 2 replayed on a weeks-0..2 plan).
        let apps = fleet_specs(10, 16, 3);
        let report = framework(1).run_lifecycle(&apps, 2).unwrap();
        assert_eq!(report.epochs.len(), 1);
        let epoch = &report.epochs[0];
        assert_eq!(epoch.week, 2);
        assert_eq!(epoch.migrations, 0, "first epoch has no baseline");
        assert!(
            epoch.compliant_fraction >= 0.8,
            "compliance {} with {} violations",
            epoch.compliant_fraction,
            epoch.violations
        );
        assert_eq!(report.worst_compliance(), epoch.compliant_fraction);
    }

    #[test]
    fn bursty_apps_can_violate_out_of_sample() {
        // The burstiest slice of the fleet: unseen-week spikes can exceed
        // the trailing window's peak, so out-of-sample compliance is NOT
        // guaranteed — the caveat behind the paper's "significant changes
        // in demand ... are best forecast by business units".
        let apps = fleet_specs(0, 6, 3);
        let report = framework(1).run_lifecycle(&apps, 2).unwrap();
        // No assertion that violations occur (seed-dependent), only that
        // the loop reports coherently.
        let epoch = &report.epochs[0];
        assert!(epoch.compliant_fraction >= 0.0 && epoch.compliant_fraction <= 1.0);
        assert_eq!(
            epoch.violations,
            ((1.0 - epoch.compliant_fraction) * apps.len() as f64).round() as usize
        );
    }

    #[test]
    fn multiple_epochs_count_migrations() {
        // 4 weeks, 1-week window: epochs for weeks 1, 2, 3.
        let apps = fleet_specs(10, 15, 4);
        let report = framework(2).run_lifecycle(&apps, 1).unwrap();
        assert_eq!(report.epochs.len(), 3);
        assert_eq!(report.epochs[0].migrations, 0);
        // Determinism: re-running gives identical epochs.
        let again = framework(2).run_lifecycle(&apps, 1).unwrap();
        assert_eq!(report, again);
        assert_eq!(
            report.total_migrations(),
            report.epochs.iter().map(|e| e.migrations).sum::<usize>()
        );
    }

    /// `run_lifecycle` is `run_lifecycle_with` under the teleport config.
    /// The reference for the pre-machine teleport replay is the committed
    /// `results/lifecycle_out_of_sample.tsv`.
    #[test]
    fn teleport_config_reproduces_run_lifecycle_exactly() {
        let apps = fleet_specs(10, 15, 4);
        let plain = framework(2).run_lifecycle(&apps, 1).unwrap();
        let teleport = framework(2)
            .run_lifecycle_with(&apps, 1, MigrationConfig::teleport())
            .unwrap();
        assert_eq!(plain, teleport);
        assert_eq!(
            serde_json::to_string(&plain).unwrap(),
            serde_json::to_string(&teleport).unwrap()
        );
        assert!(plain
            .epochs
            .iter()
            .all(|e| e.rolled_back == 0 && e.failed == 0));
    }

    #[test]
    fn paced_config_drives_epoch_moves_through_the_machine() {
        let apps = fleet_specs(0, 8, 4);
        let plain = framework(2).run_lifecycle(&apps, 1).unwrap();
        let paced = framework(2)
            .run_lifecycle_with(&apps, 1, MigrationConfig::paced().with_max_in_flight(1))
            .unwrap();
        assert_eq!(paced.epochs.len(), plain.epochs.len());
        // Same plans are produced either way, so committed moves can
        // never exceed the re-plan deltas the teleport config commits.
        for (p, t) in paced.epochs.iter().zip(&plain.epochs) {
            assert_eq!(p.week, t.week);
            assert_eq!(p.servers, t.servers);
            assert!(
                p.migrations + p.failed <= t.migrations,
                "week {}: {} committed + {} failed > {} deltas",
                p.week,
                p.migrations,
                p.failed,
                t.migrations
            );
        }
        // Determinism of the paced path.
        let again = framework(2)
            .run_lifecycle_with(&apps, 1, MigrationConfig::paced().with_max_in_flight(1))
            .unwrap();
        assert_eq!(paced, again);
    }

    #[test]
    fn lifecycle_reports_streaming_slo_attainment() {
        let apps = fleet_specs(10, 15, 4);
        let report = framework(2).run_lifecycle(&apps, 1).unwrap();
        let slo = report.slo.as_ref().expect("replay always attaches slo");
        assert_eq!(slo.apps.len(), apps.len());
        let slots_per_week = 2016; // five-minute calendar
        for a in &slo.apps {
            assert_eq!(
                a.samples,
                report.epochs.len() * slots_per_week,
                "every out-of-sample slot is observed"
            );
        }
        assert_eq!(
            report.epochs.iter().map(|e| e.slo_alerts).sum::<usize>(),
            slo.alerts.len(),
            "per-epoch alert counts partition the alert log"
        );
    }

    /// One week of ten slots: short enough to list every window.
    const W: usize = 10;

    fn walk(prev: &[usize], next: &[usize], config: MigrationConfig) -> EpochResidency {
        let names = ["a", "b", "c"];
        walk_epoch_moves(prev, next, config, W, &names).1
    }

    #[test]
    fn teleport_moves_serve_the_new_placement_all_week() {
        let residency = walk(&[0, 1, 0], &[1, 1, 0], MigrationConfig::teleport());
        // Exactly each server's members of the new placement, in fleet
        // order, for the whole week, with nothing reserved.
        assert_eq!(
            residency.members,
            vec![vec![(2, 0, W)], vec![(0, 0, W), (1, 0, W)]]
        );
        assert_eq!(residency.reservations, vec![Vec::new(), Vec::new()]);
    }

    #[test]
    fn slot_start_cutover_serves_the_destination_from_that_slot() {
        // Free drain and transfer: the move from 0 to 1 planned at slot
        // 0 cuts over inside `begin_slot(0)`, so the destination serves
        // the whole week. The source stays reserved through the two
        // health slots (commit at the end of slot 1). App 0 is resident
        // on server 1 throughout; windows are ordered by app.
        let config = MigrationConfig {
            drain_slots: 0,
            transfer_slots: 0,
            health_slots: 2,
            ..MigrationConfig::paced()
        };
        let residency = walk(&[1, 0], &[1, 1], config);
        assert_eq!(
            residency.members,
            vec![Vec::new(), vec![(0, 0, W), (1, 0, W)]]
        );
        assert_eq!(residency.reservations, vec![vec![(1, 0, 2)], Vec::new()]);
    }

    #[test]
    fn paced_move_windows_follow_its_phases() {
        // Drain slots 0-1 and transfer slot 2 keep the source serving and
        // the destination reserved; cutover at the end of slot 2 hands
        // serving over from slot 3; the source stays reserved through
        // the health slots 3-4 and is released once the move commits.
        let (report, residency) = walk_epoch_moves(&[0], &[1], MigrationConfig::paced(), W, &["a"]);
        assert_eq!(report.committed, 1);
        assert_eq!(residency.members, vec![vec![(0, 0, 3)], vec![(0, 3, W)]]);
        assert_eq!(
            residency.reservations,
            vec![vec![(0, 3, 5)], vec![(0, 0, 3)]]
        );
    }

    #[test]
    fn rolled_back_drains_release_their_reservations() {
        // A one-slot drain deadline under a two-slot drain rolls the move
        // back at the end of slot 0, retries at slot 2 after the backoff,
        // and fails there: the app never leaves its source, and the
        // destination is booked only while each attempt drains.
        let config = MigrationConfig {
            max_retries: 1,
            ..MigrationConfig::paced().with_drain_deadline(1)
        };
        let (report, residency) = walk_epoch_moves(&[0], &[1], config, W, &["a"]);
        assert_eq!(
            (report.committed, report.rolled_back, report.failed),
            (0, 2, 1)
        );
        assert_eq!(residency.members, vec![vec![(0, 0, W)], Vec::new()]);
        assert_eq!(
            residency.reservations,
            vec![Vec::new(), vec![(0, 0, 1), (0, 2, 3)]]
        );
    }

    #[test]
    fn insufficient_history_is_rejected() {
        let apps = fleet_specs(0, 3, 2);
        assert!(matches!(
            framework(0).run_lifecycle(&apps, 2),
            Err(FrameworkError::Trace(_))
        ));
        assert!(matches!(
            framework(0).run_lifecycle(&[], 1),
            Err(FrameworkError::NoApplications)
        ));
    }
}
