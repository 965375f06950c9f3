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
use ropus_trace::{Trace, TraceError};
use ropus_wlm::host::SlotScheduler;
use ropus_wlm::manager::WlmPolicy;
use ropus_wlm::metrics::{audit, slo_contract};
use ropus_wlm::WlmError;

use crate::framework::{AppSpec, Framework};
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
    /// a move is in flight. Slot by slot, the two-priority
    /// [`SlotScheduler`] serves the week's demand over the machine's
    /// `serving()`/`reservations()` views, as in the chaos replay, and
    /// sheds what it cannot serve. The machine runs feedback-free (no
    /// destination is ever contended or unhealthy), so the storm caps,
    /// drain/transfer costs and backoffs alone pace the wave.
    /// `migrations` counts *committed* moves, and `rolled_back`/`failed`
    /// surface the machine's failures.
    ///
    /// Under the zero-cost [`MigrationConfig::teleport`] (what
    /// `run_lifecycle` uses) every move commits at the start of the
    /// week, so each server runs the new placement's members for the
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
            return Err(FrameworkError::Trace(TraceError::PartialWeek {
                len: first.demand().len(),
                per_week: (window_weeks + 1) * first.demand().calendar().slots_per_week(),
            }));
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

        let slots_per_week = calendar.slots_per_week();
        let weeks_of = |app: &AppSpec, from: usize, to: usize| {
            app.demand()
                .weeks_range(from, to)
                .ok_or(FrameworkError::Trace(TraceError::PartialWeek {
                    len: app.demand().len(),
                    per_week: slots_per_week,
                }))
        };
        let names: Vec<&str> = apps.iter().map(AppSpec::name).collect();

        for week in window_weeks..weeks {
            // Plan on the trailing window.
            let history = apps
                .iter()
                .map(|app| {
                    let demand = weeks_of(app, week - window_weeks, week)?;
                    Ok(AppSpec::new(app.name(), demand, app.policy()))
                })
                .collect::<Result<Vec<AppSpec>, FrameworkError>>()?;
            let (plans, workloads, _) = self.translate_fleet(&history)?;
            let consolidator = ropus_placement::consolidate::Consolidator::new(
                self.server(),
                self.commitments(),
                self.options(),
            );
            let placement = consolidator.consolidate(&workloads, ObsCtx::none())?;

            // Replay the unseen week while the migration machine walks
            // the epoch's adjustment (the first epoch has no baseline:
            // nothing moves).
            let unseen = apps
                .iter()
                .map(|app| weeks_of(app, week, week + 1))
                .collect::<Result<Vec<Trace>, FrameworkError>>()?;
            let demand: Vec<&[f64]> = unseen.iter().map(Trace::samples).collect();
            let policies: Vec<WlmPolicy> = apps
                .iter()
                .zip(&plans)
                .map(|(app, plan)| WlmPolicy::from_translation(&app.policy().normal, &plan.normal))
                .collect();
            let prev = previous_assignment
                .as_deref()
                .unwrap_or(&placement.assignment);
            let (report, util) = replay_epoch(
                self.server().capacity(),
                prev,
                &placement.assignment,
                migration,
                &demand,
                &policies,
                &names,
            )?;

            // Stream each app's row through the SLO engine slot-major, so
            // the alert log interleaves apps in global slot order, then
            // audit it against the normal contract.
            let base = week * slots_per_week;
            for t in 0..slots_per_week {
                for (i, row) in util.iter().enumerate() {
                    if let Some(&u) = row.get(t) {
                        slo.observe(i, base + t, u, ObsCtx::none());
                    }
                }
            }
            let slo_alerts = slo.drain_alerts().len();
            let mut violations = 0usize;
            for (row, app) in util.into_iter().zip(apps) {
                let row = Trace::from_samples(calendar, row).map_err(FrameworkError::Trace)?;
                if !audit(&row, &app.policy().normal).is_compliant() {
                    violations += 1;
                }
            }

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
}

/// Replays one epoch's unseen week while the migration machine walks
/// the adjustment from `prev` to `next` over an idealized week (no
/// contention, every destination healthy; the storm caps,
/// drain/transfer costs and backoffs still pace the wave). Every slot
/// the scheduler serves `demand` over the machine's current serving and
/// reservation views, shedding what it cannot serve. Returns the
/// machine's report and every application's utilization-of-allocation
/// row for the week, in fleet order.
fn replay_epoch(
    capacity: f64,
    prev: &[usize],
    next: &[usize],
    config: MigrationConfig,
    demand: &[&[f64]],
    policies: &[WlmPolicy],
    names: &[&str],
) -> Result<(MigrationReport, Vec<Vec<f64>>), WlmError> {
    let slots = demand.first().map_or(0, |d| d.len());
    let mut scheduler = SlotScheduler::new(capacity, policies.len(), 0)?;
    let mut orch = MigrationOrchestrator::new(config, prev.iter().map(|&s| Some(s)).collect());
    let target: Vec<Option<usize>> = next.iter().map(|&s| Some(s)).collect();
    orch.retarget(&target, &[], 0, None, ObsCtx::none());
    let mut util = vec![Vec::with_capacity(slots); policies.len()];
    let mut current = vec![0.0; policies.len()];
    let mut moving = true;
    for slot in 0..slots {
        // The machine steps until it idles; its views stay in force for
        // the rest of the week.
        if moving {
            orch.begin_slot(slot, ObsCtx::none());
            if orch.take_dirty() {
                scheduler.set_views(orch.serving(), &orch.reservations());
            }
            moving = !orch.is_idle();
            if moving {
                orch.complete_slot(slot, &[], &[], ObsCtx::none());
            }
        }
        for (d, series) in current.iter_mut().zip(demand) {
            *d = series.get(slot).copied().unwrap_or(0.0);
        }
        scheduler.step(slot, &current, policies)?;
        for (row, out) in util.iter_mut().zip(scheduler.apps()) {
            row.push(out.utilization);
        }
    }
    Ok((orch.report(names), util))
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

    /// One week of ten slots: short enough to check every slot.
    const W: usize = 10;

    /// Replays a ten-slot epoch from `prev` to `next` on servers of 3
    /// CPUs. Every app requests `2 × demand`, all of it CoS2, so its
    /// utilization row shows who it shared a server with, slot by slot:
    /// alone a 2-CPU request is granted in full (0.5), and a member or
    /// reservation beside it scales the grants down.
    fn epoch(
        prev: &[usize],
        next: &[usize],
        demand: &[f64],
        config: MigrationConfig,
    ) -> (MigrationReport, Vec<Vec<f64>>) {
        let columns: Vec<Vec<f64>> = demand.iter().map(|&d| vec![d; W]).collect();
        let columns: Vec<&[f64]> = columns.iter().map(Vec::as_slice).collect();
        let policy = WlmPolicy {
            burst_factor: 2.0,
            cos1_cap: 0.0,
            total_cap: 100.0,
        };
        let policies = vec![policy; demand.len()];
        let names = ["a", "b", "c"];
        replay_epoch(
            3.0,
            prev,
            next,
            config,
            &columns,
            &policies,
            &names[..demand.len()],
        )
        .unwrap()
    }

    /// A row of `(utilization, slots)` runs.
    fn row(runs: &[(f64, usize)]) -> Vec<f64> {
        runs.iter()
            .flat_map(|&(u, len)| std::iter::repeat_n(u, len))
            .collect()
    }

    /// Two 2-CPU requests on 3 CPUs: each is granted 1.5.
    const SHARED: f64 = 1.0 / 1.5;

    #[test]
    fn teleport_moves_serve_the_new_placement_all_week() {
        // App 0 joins app 1 on server 1 for the whole week; app 2 keeps
        // server 0 to itself, with nothing reserved beside it.
        let (report, util) = epoch(
            &[0, 1, 0],
            &[1, 1, 0],
            &[1.0; 3],
            MigrationConfig::teleport(),
        );
        assert_eq!(report.committed, 1);
        assert_eq!(
            util,
            vec![row(&[(SHARED, W)]), row(&[(SHARED, W)]), row(&[(0.5, W)])]
        );
    }

    #[test]
    fn slot_start_cutover_serves_the_destination_from_that_slot() {
        // Free drain and transfer: the move of app 1 from server 0 to 1
        // planned at slot 0 cuts over inside `begin_slot(0)`, so app 1
        // serves beside app 0 all week. Server 0 stays reserved through
        // the two health slots (commit at the end of slot 1), squeezing
        // app 2 there until then.
        let config = MigrationConfig {
            drain_slots: 0,
            transfer_slots: 0,
            health_slots: 2,
            ..MigrationConfig::paced()
        };
        let (report, util) = epoch(&[1, 0, 0], &[1, 1, 0], &[1.0; 3], config);
        assert_eq!(report.committed, 1);
        assert_eq!(
            util,
            vec![
                row(&[(SHARED, W)]),
                row(&[(SHARED, W)]),
                row(&[(SHARED, 2), (0.5, W - 2)]),
            ]
        );
    }

    #[test]
    fn paced_move_windows_follow_its_phases() {
        // App 0 moves from server 0 (beside app 1) to server 1 (beside
        // app 2, which requests 4 CPUs). Drain slots 0-1 and transfer
        // slot 2 keep it serving on server 0 with server 1 reserved;
        // cutover at the end of slot 2 hands serving over from slot 3;
        // server 0 stays reserved through the health slots 3-4 and is
        // released once the move commits.
        let (report, util) = epoch(
            &[0, 0, 1],
            &[1, 0, 1],
            &[1.0, 1.0, 2.0],
            MigrationConfig::paced(),
        );
        assert_eq!(report.committed, 1);
        // Server 1 holds 6 CPUs of requests (member or reservation)
        // all week, so its grants are halved; alone, app 2 would get 3.
        assert_eq!(
            util,
            vec![
                row(&[(SHARED, 3), (1.0, W - 3)]),
                row(&[(SHARED, 5), (0.5, W - 5)]),
                row(&[(1.0, W)]),
            ]
        );
    }

    #[test]
    fn rolled_back_drains_release_their_reservations() {
        // A one-slot drain deadline under a two-slot drain rolls the move
        // back at the end of slot 0, retries at slot 2 after the backoff,
        // and fails there: app 0 never leaves server 0, and server 1 is
        // booked only while each attempt drains (slots 0 and 2).
        let config = MigrationConfig {
            max_retries: 1,
            ..MigrationConfig::paced().with_drain_deadline(1)
        };
        let (report, util) = epoch(&[0, 0, 1], &[1, 0, 1], &[1.0, 1.0, 2.0], config);
        assert_eq!(
            (report.committed, report.rolled_back, report.failed),
            (0, 2, 1)
        );
        let alone = 2.0 / 3.0;
        assert_eq!(
            util,
            vec![
                row(&[(SHARED, W)]),
                row(&[(SHARED, W)]),
                row(&[(1.0, 1), (alone, 1), (1.0, 1), (alone, W - 3)]),
            ]
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
