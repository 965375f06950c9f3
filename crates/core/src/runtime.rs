//! Runtime validation of a capacity plan: replay the placed fleet through
//! the workload-manager host scheduler and audit the QoS each application
//! actually receives.
//!
//! The translation and placement promise that, as long as the pool honours
//! its CoS commitments, every application's utilization of allocation
//! stays inside its acceptable/degraded envelope. This module *checks*
//! that promise: it drives the two-priority [`SlotScheduler`] over the
//! static placement of a
//! [`PlacementReport`](ropus_placement::consolidate::PlacementReport) with
//! the raw demand traces, shedding what a server cannot serve, and audits
//! every application's delivered utilization-of-allocation series against
//! its requirement. This is the "service levels are evaluated" step of the
//! paper's medium-term control loop (§II).

use serde::{Deserialize, Serialize};

use ropus_trace::{Trace, TraceError};
use ropus_wlm::host::SlotScheduler;
use ropus_wlm::manager::WlmPolicy;
use ropus_wlm::metrics::{audit, SloAudit};

use crate::framework::{CapacityPlan, Framework, PlanRequest};
use crate::FrameworkError;

/// Bucket bounds of the `wlm.host.saturation` histogram: per-slot granted
/// capacity as a fraction of the server's limit.
const SATURATION_BOUNDS: [f64; 5] = [0.25, 0.5, 0.75, 0.9, 1.0];

/// Delivered-QoS outcome for one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppRuntimeOutcome {
    /// Application name.
    pub name: String,
    /// Server (index in the placement report) hosting the application.
    pub server: usize,
    /// The SLO audit of the delivered utilization of allocation.
    pub audit: SloAudit,
    /// Fraction of total demand that found no capacity in its slot.
    pub unmet_demand_fraction: f64,
}

/// Runtime summary for one server of the plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerRuntimeOutcome {
    /// Server index in the placement report.
    pub server: usize,
    /// Slots in which some allocation request had to be cut.
    pub contended_slots: usize,
    /// Peak of the total granted allocation across the replay.
    pub peak_granted: f64,
}

/// Whole-pool runtime validation report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoolRuntimeReport {
    /// Per-application delivered-QoS outcomes, in fleet order.
    pub apps: Vec<AppRuntimeOutcome>,
    /// Per-server contention summaries.
    pub servers: Vec<ServerRuntimeOutcome>,
}

impl PoolRuntimeReport {
    /// Whether every application's delivered QoS met its requirement.
    pub fn all_compliant(&self) -> bool {
        self.apps.iter().all(|a| a.audit.is_compliant())
    }

    /// Names of applications whose delivered QoS violated the requirement.
    pub fn violators(&self) -> Vec<&str> {
        self.apps
            .iter()
            .filter(|a| !a.audit.is_compliant())
            .map(|a| a.name.as_str())
            .collect()
    }
}

impl Framework {
    /// Replays a capacity plan's normal-mode placement against the raw
    /// demand traces and audits the delivered QoS per application.
    ///
    /// The request's fleet must be the same fleet (same order) the plan
    /// was built from. Every application runs on its planned server for
    /// the whole horizon, and demand a server cannot serve is shed at
    /// once. When the request carries an observability context, the
    /// replay runs under a `pipeline.runtime_validation` span, every
    /// placed server's per-slot granted total lands in the
    /// `wlm.host.saturation` histogram (as a fraction of its capacity),
    /// and slots where some demand went unmet or the CoS1 guarantee
    /// itself was scaled down are counted (`wlm.host.unmet_slots`,
    /// `wlm.host.cos1_scaled_slots`).
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::NoApplications`] for an empty fleet, and
    /// a trace error when demand traces differ in length or the plan
    /// covers a different number of applications.
    pub fn validate_runtime<'a>(
        &self,
        request: impl Into<PlanRequest<'a>>,
        plan: &CapacityPlan,
    ) -> Result<PoolRuntimeReport, FrameworkError> {
        let request = request.into();
        let (apps, obs) = (request.apps(), request.obs());
        let first = apps.first().ok_or(FrameworkError::NoApplications)?;
        let _span = obs.span("pipeline.runtime_validation");
        let assignment = &plan.normal_placement.assignment;
        let horizon = first.demand().len();
        let lengths = apps
            .iter()
            .map(|spec| (horizon, spec.demand().len()))
            .chain([
                (apps.len(), assignment.len()),
                (apps.len(), plan.apps.len()),
            ]);
        for (left, right) in lengths {
            if left != right {
                return Err(TraceError::Misaligned { left, right }.into());
            }
        }
        let samples: Vec<&[f64]> = apps.iter().map(|spec| spec.demand().samples()).collect();
        let policies: Vec<WlmPolicy> = apps
            .iter()
            .zip(&plan.apps)
            .map(|(spec, app_plan)| {
                WlmPolicy::from_translation(&spec.policy().normal, &app_plan.normal)
            })
            .collect();
        let capacity = self.server().capacity();
        let mut scheduler = SlotScheduler::new(capacity, apps.len(), 0)?;
        let serving: Vec<Option<usize>> = assignment.iter().map(|&s| Some(s)).collect();
        scheduler.set_views(&serving, &[]);

        let mut servers: Vec<ServerRuntimeOutcome> = plan
            .normal_placement
            .servers
            .iter()
            .map(|placed| ServerRuntimeOutcome {
                server: placed.server,
                contended_slots: 0,
                peak_granted: 0.0,
            })
            .collect();
        let mut unmet_total = vec![0.0f64; apps.len()];
        let mut utilization = vec![Vec::with_capacity(horizon); apps.len()];
        let mut unmet_on = vec![false; scheduler.granted().len()];
        let mut demand = vec![0.0f64; apps.len()];
        for slot in 0..horizon {
            for (d, series) in demand.iter_mut().zip(&samples) {
                *d = series.get(slot).copied().unwrap_or(0.0);
            }
            scheduler.step(slot, &demand, &policies)?;
            unmet_on.fill(false);
            for (((out, &d), (unmet, row)), &server) in scheduler
                .apps()
                .iter()
                .zip(&demand)
                .zip(unmet_total.iter_mut().zip(utilization.iter_mut()))
                .zip(assignment)
            {
                let slot_unmet = d - out.served;
                *unmet += slot_unmet;
                if let Some(flag) = unmet_on.get_mut(server).filter(|_| slot_unmet > 0.0) {
                    *flag = true;
                }
                row.push(out.utilization);
            }
            for outcome in &mut servers {
                let at = |flags: &[bool]| flags.get(outcome.server).copied().unwrap_or(false);
                if at(scheduler.contended()) {
                    outcome.contended_slots += 1;
                }
                if at(scheduler.cos1_scaled()) {
                    obs.counter("wlm.host.cos1_scaled_slots", 1);
                }
                if at(&unmet_on) {
                    obs.counter("wlm.host.unmet_slots", 1);
                }
                let granted = scheduler.granted().get(outcome.server).copied();
                let granted = granted.unwrap_or(0.0);
                obs.histogram(
                    "wlm.host.saturation",
                    &SATURATION_BOUNDS,
                    granted / capacity,
                );
                outcome.peak_granted = outcome.peak_granted.max(granted);
            }
        }

        let calendar = first.demand().calendar();
        let mut app_outcomes = Vec::with_capacity(apps.len());
        for (((spec, row), unmet), &server) in apps
            .iter()
            .zip(utilization)
            .zip(unmet_total)
            .zip(assignment)
        {
            let demand_total: f64 = spec.demand().iter().sum();
            app_outcomes.push(AppRuntimeOutcome {
                name: spec.name().to_string(),
                server,
                audit: audit(&Trace::from_samples(calendar, row)?, &spec.policy().normal),
                unmet_demand_fraction: if demand_total > 0.0 {
                    unmet / demand_total
                } else {
                    0.0
                },
            });
        }
        Ok(PoolRuntimeReport {
            apps: app_outcomes,
            servers,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::AppSpec;
    use ropus_placement::consolidate::ConsolidationOptions;
    use ropus_placement::server::ServerSpec;
    use ropus_qos::{AppQos, CosSpec, PoolCommitments, QosPolicy};
    use ropus_trace::gen::{case_study_fleet, FleetConfig};
    use ropus_trace::{Calendar, Trace};

    fn framework(seed: u64) -> Framework {
        Framework::builder()
            .server(ServerSpec::sixteen_way())
            .commitments(PoolCommitments::new(CosSpec::new(0.9, 60).unwrap()))
            .options(ConsolidationOptions::fast(seed))
            .build()
    }

    fn policy() -> QosPolicy {
        QosPolicy {
            normal: AppQos::paper_default(Some(30)),
            failure: AppQos::paper_default(None),
        }
    }

    #[test]
    fn delivered_qos_is_compliant_for_the_case_study_fleet() {
        let fleet = case_study_fleet(&FleetConfig {
            apps: 8,
            weeks: 1,
            ..FleetConfig::paper()
        });
        let apps: Vec<AppSpec> = fleet
            .into_iter()
            .map(|a| AppSpec::new(a.name, a.trace, policy()))
            .collect();
        let fw = framework(1);
        let plan = fw.plan(&apps).unwrap();
        let runtime = fw.validate_runtime(&apps, &plan).unwrap();

        assert_eq!(runtime.apps.len(), apps.len());
        assert_eq!(runtime.servers.len(), plan.normal_servers());
        // The delivered QoS keeps the translation's promise end to end.
        assert!(
            runtime.all_compliant(),
            "violators: {:?}",
            runtime.violators()
        );
        // Grants never exceed server capacity.
        for s in &runtime.servers {
            assert!(
                s.peak_granted <= 16.0 + 1e-9,
                "server {}: {}",
                s.server,
                s.peak_granted
            );
        }
        // Unmet demand is rare: the placement sized capacity for it.
        for a in &runtime.apps {
            assert!(
                a.unmet_demand_fraction < 0.02,
                "{}: {:.3}% unmet",
                a.name,
                100.0 * a.unmet_demand_fraction
            );
        }
    }

    #[test]
    fn overloaded_plan_is_caught_by_the_runtime_audit() {
        // Build a plan, then replay it against demand 3x higher than what
        // the plan was sized for — the audit must flag violations.
        let cal = Calendar::five_minute();
        let fleet = case_study_fleet(&FleetConfig {
            apps: 4,
            weeks: 1,
            ..FleetConfig::paper()
        });
        let apps: Vec<AppSpec> = fleet
            .iter()
            .map(|a| AppSpec::new(a.name.clone(), a.trace.clone(), policy()))
            .collect();
        let fw = framework(2);
        let plan = fw.plan(&apps).unwrap();
        let inflated: Vec<AppSpec> = fleet
            .into_iter()
            .map(|a| {
                let demand = a.trace.scaled(3.0).unwrap();
                assert_eq!(demand.calendar(), cal);
                AppSpec::new(a.name, demand, policy())
            })
            .collect();
        let runtime = fw.validate_runtime(&inflated, &plan).unwrap();
        assert!(
            !runtime.all_compliant() || runtime.apps.iter().any(|a| a.unmet_demand_fraction > 0.05),
            "a 3x overload must be visible in the audit"
        );
    }

    #[test]
    fn observed_validation_counts_unmet_slots_and_fills_saturation_histogram() {
        // The overloaded replay of the test above, observed: every placed
        // server's every slot lands in the saturation histogram, and the
        // slots where some demand went unmet are counted.
        let fleet = case_study_fleet(&FleetConfig {
            apps: 4,
            weeks: 1,
            ..FleetConfig::paper()
        });
        let apps: Vec<AppSpec> = fleet
            .iter()
            .map(|a| AppSpec::new(a.name.clone(), a.trace.clone(), policy()))
            .collect();
        let fw = framework(2);
        let plan = fw.plan(&apps).unwrap();
        let inflated: Vec<AppSpec> = fleet
            .into_iter()
            .map(|a| AppSpec::new(a.name, a.trace.scaled(3.0).unwrap(), policy()))
            .collect();
        let obs = ropus_obs::Obs::deterministic();
        let runtime = fw
            .validate_runtime(PlanRequest::of(&inflated).with_obs(&obs), &plan)
            .unwrap();
        let report = obs.report();
        let horizon = inflated[0].demand().len() as u64;
        let server_slots = runtime.servers.len() as u64 * horizon;
        let hist = report.histogram("wlm.host.saturation").unwrap();
        assert_eq!(hist.total, server_slots);
        let unmet = report.counter("wlm.host.unmet_slots");
        assert!(unmet > 0 && unmet <= server_slots, "unmet slots {unmet}");
        assert_eq!(report.spans_named("pipeline.runtime_validation").count(), 1);
    }

    #[test]
    fn misaligned_fleet_is_rejected() {
        let fw = framework(0);
        let fleet = case_study_fleet(&FleetConfig {
            apps: 2,
            weeks: 1,
            ..FleetConfig::paper()
        });
        let apps: Vec<AppSpec> = fleet
            .into_iter()
            .map(|a| AppSpec::new(a.name, a.trace, policy()))
            .collect();
        let plan = fw.plan(&apps).unwrap();
        let short = Trace::constant(Calendar::five_minute(), 1.0, 10).unwrap();
        let misaligned = vec![
            apps[0].clone(),
            AppSpec::new(apps[1].name(), short, policy()),
        ];
        assert!(matches!(
            fw.validate_runtime(&misaligned, &plan),
            Err(FrameworkError::Trace(TraceError::Misaligned { .. }))
        ));
        assert!(matches!(
            fw.validate_runtime(&apps[..1], &plan),
            Err(FrameworkError::Trace(TraceError::Misaligned { .. }))
        ));
    }

    #[test]
    fn empty_fleet_rejected() {
        let fw = framework(0);
        let fleet = case_study_fleet(&FleetConfig {
            apps: 2,
            weeks: 1,
            ..FleetConfig::paper()
        });
        let apps: Vec<AppSpec> = fleet
            .into_iter()
            .map(|a| AppSpec::new(a.name, a.trace, policy()))
            .collect();
        let plan = fw.plan(&apps).unwrap();
        assert!(matches!(
            fw.validate_runtime(&[], &plan),
            Err(FrameworkError::NoApplications)
        ));
        let _ = Trace::constant(Calendar::five_minute(), 1.0, 1).unwrap();
    }
}
