//! Fault injection against a planned pool.
//!
//! Bridges the static pipeline ([`Framework::plan`]) to the dynamic
//! fault-injection simulator in `ropus-chaos`: the fleet's translations
//! become [`ChaosApp`]s (demand trace + per-mode manager policies,
//! contracts, and placement workloads), and the replay inherits the
//! framework's server type, commitments, search options, and failure
//! scope, so its verdicts are directly comparable with the planner's
//! single-failure sweep.

use ropus_chaos::{
    replay, ChaosApp, ChaosReport, DegradationPolicy, FailureSchedule, ReplayOptions,
};
use ropus_placement::consolidate::{Consolidator, PlacementReport};
use ropus_placement::migration::MigrationConfig;
use ropus_wlm::manager::WlmPolicy;

use crate::framework::{Framework, PlanRequest};
use crate::FrameworkError;

impl Framework {
    /// Translates the fleet into replay-ready applications: demand plus
    /// both modes' manager policies, QoS contracts, and workloads.
    ///
    /// # Errors
    ///
    /// As for [`translate_fleet`](Self::translate_fleet).
    pub fn chaos_fleet<'a>(
        &self,
        request: impl Into<PlanRequest<'a>>,
    ) -> Result<Vec<ChaosApp>, FrameworkError> {
        let request = request.into();
        let apps = request.apps();
        let (plans, normal_wl, failure_wl) = self.translate_fleet(request)?;
        let mut fleet = Vec::with_capacity(apps.len());
        for (((spec, plan), normal_workload), failure_workload) in
            apps.iter().zip(&plans).zip(normal_wl).zip(failure_wl)
        {
            let policy = spec.policy();
            fleet.push(ChaosApp {
                name: spec.name().to_string(),
                demand: spec.demand().clone(),
                normal_policy: WlmPolicy::from_translation(&policy.normal, &plan.normal),
                failure_policy: WlmPolicy::from_translation(&policy.failure, &plan.failure),
                normal_qos: policy.normal,
                failure_qos: policy.failure,
                normal_workload,
                failure_workload,
            });
        }
        Ok(fleet)
    }

    /// Replays the fleet's demand over `schedule`, starting from an
    /// existing normal-mode placement.
    ///
    /// The failure scope configured on the framework decides which
    /// applications relax to failure-mode QoS during an outage;
    /// `degradation` decides what happens to demand the survivors cannot
    /// absorb.
    ///
    /// # Errors
    ///
    /// Propagates translation errors and [`ChaosError`]s from the replay
    /// (wrapped as [`FrameworkError::Chaos`]).
    ///
    /// [`ChaosError`]: ropus_chaos::ChaosError
    pub fn chaos_replay_on<'a>(
        &self,
        request: impl Into<PlanRequest<'a>>,
        normal_placement: &PlacementReport,
        schedule: &FailureSchedule,
        degradation: DegradationPolicy,
    ) -> Result<ChaosReport, FrameworkError> {
        self.chaos_replay_on_with(request, normal_placement, schedule, degradation, None)
    }

    /// [`chaos_replay_on`](Self::chaos_replay_on) with an explicit
    /// migration lifecycle model.
    ///
    /// Every re-placement goes through the migration state machine
    /// (drain → transfer → cutover → health check, storm caps).
    /// `Some(config)` runs it under `config` and attaches a
    /// [`MigrationReport`](ropus_placement::migration::MigrationReport)
    /// to the output; `None` runs it under the zero-cost
    /// [`MigrationConfig::teleport`], so moves take effect at the start
    /// of each re-planned segment, and attaches no report.
    ///
    /// # Errors
    ///
    /// As for [`chaos_replay_on`](Self::chaos_replay_on).
    pub fn chaos_replay_on_with<'a>(
        &self,
        request: impl Into<PlanRequest<'a>>,
        normal_placement: &PlacementReport,
        schedule: &FailureSchedule,
        degradation: DegradationPolicy,
        migration: Option<MigrationConfig>,
    ) -> Result<ChaosReport, FrameworkError> {
        let request = request.into();
        let obs = request.obs();
        let fleet = self.chaos_fleet(request)?;
        let consolidator = Consolidator::new(self.server(), self.commitments(), self.options());
        let options = ReplayOptions {
            scope: self.failure_scope(),
            degradation,
            migration,
        };
        let _span = obs.span("pipeline.chaos_replay");
        Ok(replay(
            &consolidator,
            normal_placement,
            &fleet,
            schedule,
            &options,
            obs,
        )?)
    }

    /// Consolidates the fleet in normal mode, then replays `schedule`
    /// against that placement.
    ///
    /// # Errors
    ///
    /// As for [`plan_normal_only`](Self::plan_normal_only) and
    /// [`chaos_replay_on`](Self::chaos_replay_on).
    pub fn chaos_replay<'a>(
        &self,
        request: impl Into<PlanRequest<'a>>,
        schedule: &FailureSchedule,
        degradation: DegradationPolicy,
    ) -> Result<ChaosReport, FrameworkError> {
        let request = request.into();
        let placement = self.plan_normal_only(request)?;
        self.chaos_replay_on(request, &placement, schedule, degradation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::AppSpec;
    use ropus_chaos::FailureEvent;
    use ropus_placement::consolidate::ConsolidationOptions;
    use ropus_qos::{AppQos, CosSpec, PoolCommitments, QosPolicy};
    use ropus_trace::gen::{case_study_fleet, FleetConfig};

    fn framework(seed: u64) -> Framework {
        Framework::builder()
            .commitments(PoolCommitments::new(CosSpec::new(0.9, 60).unwrap()))
            .options(ConsolidationOptions::fast(seed))
            .build()
    }

    fn fleet(apps: usize) -> Vec<AppSpec> {
        let policy = QosPolicy {
            normal: AppQos::paper_default(Some(30)),
            failure: AppQos::paper_default(None),
        };
        case_study_fleet(&FleetConfig {
            apps,
            weeks: 1,
            ..FleetConfig::paper()
        })
        .into_iter()
        .map(|a| AppSpec::new(a.name, a.trace, policy))
        .collect()
    }

    #[test]
    fn chaos_replay_runs_on_the_case_study_fleet() {
        let apps = fleet(4);
        let fw = framework(7);
        let placement = fw.plan_normal_only(&apps).unwrap();
        let horizon = apps[0].demand().len();
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: placement.servers[0].server,
            start: horizon / 4,
            duration: horizon / 8,
        }])
        .unwrap();
        let report = fw
            .chaos_replay_on(&apps, &placement, &schedule, DegradationPolicy::default())
            .unwrap();
        assert_eq!(report.slots, horizon);
        assert_eq!(report.windows.len(), 1);
        assert_eq!(report.degraded_slots, horizon / 8);
        // The balance sheet closes for every application.
        for a in &report.apps {
            let balance = a.served_total() + a.shed + a.backlog_remaining;
            assert!((balance - a.demand_total).abs() < 1e-6);
        }
    }

    #[test]
    fn chaos_replay_without_failures_matches_normal_operation() {
        let apps = fleet(3);
        let fw = framework(3);
        let report = fw
            .chaos_replay(
                &apps,
                &FailureSchedule::none(),
                DegradationPolicy::default(),
            )
            .unwrap();
        assert_eq!(report.degraded_slots, 0);
        assert!(report.windows.is_empty());
        assert_eq!(report.migrations_total, 0);
        for a in &report.apps {
            assert!(a.degraded_audit.is_none());
        }
    }
}
