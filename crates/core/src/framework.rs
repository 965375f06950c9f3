//! The end-to-end R-Opus pipeline (Fig. 2 of the paper).

use serde::{Deserialize, Serialize};

use ropus_obs::{Obs, ObsCtx};
use ropus_placement::consolidate::{ConsolidationOptions, Consolidator, PlacementReport};
use ropus_placement::failure::{analyze_single_failures, FailureAnalysis, FailureScope};
use ropus_placement::server::ServerSpec;
use ropus_placement::workload::Workload;
use ropus_qos::analysis::{check_report, FleetSavings};
use ropus_qos::translation::{translate, TranslationReport};
use ropus_qos::{PoolCommitments, QosPolicy};
use ropus_trace::Trace;

use crate::FrameworkError;

/// Output of [`Framework::translate_fleet`]: per-application plan
/// summaries plus the normal- and failure-mode placement workloads.
pub type TranslatedFleet = (Vec<AppPlan>, Vec<Workload>, Vec<Workload>);

/// One application as submitted by its owner: a name, a demand trace, and
/// the two-mode QoS policy.
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    name: String,
    demand: Trace,
    policy: QosPolicy,
    memory: Option<Trace>,
}

impl AppSpec {
    /// Creates an application specification.
    pub fn new(name: impl Into<String>, demand: Trace, policy: QosPolicy) -> Self {
        AppSpec {
            name: name.into(),
            demand,
            policy,
            memory: None,
        }
    }

    /// Attaches a memory-footprint trace (GB per slot). Memory is placed
    /// as a guaranteed attribute alongside the CPU classes of service.
    ///
    /// # Errors
    ///
    /// Returns [`FrameworkError::Trace`] when the memory trace is not
    /// aligned with the demand trace.
    pub fn with_memory(mut self, memory: Trace) -> Result<Self, FrameworkError> {
        if memory.len() != self.demand.len() {
            return Err(FrameworkError::Trace(ropus_trace::TraceError::Misaligned {
                left: self.demand.len(),
                right: memory.len(),
            }));
        }
        self.memory = Some(memory);
        Ok(self)
    }

    /// The memory-footprint trace, if attached.
    pub fn memory(&self) -> Option<&Trace> {
        self.memory.as_ref()
    }

    /// Application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The demand trace.
    pub fn demand(&self) -> &Trace {
        &self.demand
    }

    /// The two-mode QoS policy.
    pub fn policy(&self) -> QosPolicy {
        self.policy
    }
}

/// Per-application planning output: both translations' reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppPlan {
    /// Application name.
    pub name: String,
    /// Normal-mode translation report.
    pub normal: TranslationReport,
    /// Failure-mode translation report.
    pub failure: TranslationReport,
}

/// The complete capacity plan for a fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CapacityPlan {
    /// Per-application translation summaries.
    pub apps: Vec<AppPlan>,
    /// The consolidated normal-mode placement.
    pub normal_placement: PlacementReport,
    /// The single-failure sweep over the normal-mode placement.
    pub failure_analysis: FailureAnalysis,
    /// Aggregate savings of the normal-mode translations.
    pub savings: FleetSavings,
}

impl CapacityPlan {
    /// Servers needed in normal mode.
    pub fn normal_servers(&self) -> usize {
        self.normal_placement.servers_used
    }

    /// Whether a spare server is needed to cover any single failure.
    pub fn spare_needed(&self) -> bool {
        self.failure_analysis.spare_needed()
    }

    /// Total servers to provision: normal-mode servers plus a spare when
    /// the failure sweep demands one.
    pub fn servers_to_provision(&self) -> usize {
        self.normal_servers() + usize::from(self.spare_needed())
    }
}

/// A planning request: the fleet to plan plus everything that rides
/// along with it — today an optional observability context, built up in
/// builder style.
///
/// Every [`Framework`] entry point takes `impl Into<PlanRequest>`, so
/// plain fleets still read naturally at the call site:
///
/// ```ignore
/// framework.plan(&apps)?;                                  // bare fleet
/// framework.plan(PlanRequest::of(&apps).with_obs(&obs))?;  // instrumented
/// ```
#[derive(Debug, Clone, Copy)]
pub struct PlanRequest<'a> {
    apps: &'a [AppSpec],
    obs: ObsCtx<'a>,
}

impl<'a> PlanRequest<'a> {
    /// Starts a request for the given fleet.
    pub fn of(apps: &'a [AppSpec]) -> Self {
        PlanRequest {
            apps,
            obs: ObsCtx::none(),
        }
    }

    /// Attaches an observability collector: pipeline stages run under
    /// `pipeline.*` spans and per-layer counters/events ride along.
    pub fn with_obs(mut self, obs: &'a Obs) -> Self {
        self.obs = ObsCtx::from(obs);
        self
    }

    /// Attaches an already-built observability context.
    pub fn with_obs_ctx(mut self, obs: ObsCtx<'a>) -> Self {
        self.obs = obs;
        self
    }

    /// The fleet being planned.
    pub fn apps(&self) -> &'a [AppSpec] {
        self.apps
    }

    /// The observability context riding along with the request.
    pub fn obs(&self) -> ObsCtx<'a> {
        self.obs
    }
}

impl<'a> From<&'a [AppSpec]> for PlanRequest<'a> {
    fn from(apps: &'a [AppSpec]) -> Self {
        PlanRequest::of(apps)
    }
}

impl<'a> From<&'a Vec<AppSpec>> for PlanRequest<'a> {
    fn from(apps: &'a Vec<AppSpec>) -> Self {
        PlanRequest::of(apps)
    }
}

impl<'a, const N: usize> From<&'a [AppSpec; N]> for PlanRequest<'a> {
    fn from(apps: &'a [AppSpec; N]) -> Self {
        PlanRequest::of(apps)
    }
}

/// The R-Opus capacity self-management framework.
///
/// Owns the pool-level configuration (server type, CoS commitments, search
/// options) and turns a fleet of [`AppSpec`]s into a [`CapacityPlan`].
/// Build with [`Framework::builder`].
#[derive(Debug, Clone, Copy)]
pub struct Framework {
    server: ServerSpec,
    commitments: PoolCommitments,
    options: ConsolidationOptions,
    failure_scope: FailureScope,
}

impl Framework {
    /// Starts building a framework; defaults: 16-way servers, `θ = 0.95`
    /// with a 60-minute deadline, thorough search options.
    pub fn builder() -> FrameworkBuilder {
        FrameworkBuilder {
            server: ServerSpec::sixteen_way(),
            commitments: PoolCommitments::paper_defaults().0,
            options: ConsolidationOptions::thorough(0),
            failure_scope: FailureScope::AffectedOnly,
        }
    }

    /// The pool's server type.
    pub fn server(&self) -> ServerSpec {
        self.server
    }

    /// The pool's CoS commitments.
    pub fn commitments(&self) -> PoolCommitments {
        self.commitments
    }

    /// The consolidation search options in force.
    pub fn options(&self) -> ConsolidationOptions {
        self.options
    }

    /// Which applications fall back to failure-mode QoS after a failure.
    pub fn failure_scope(&self) -> FailureScope {
        self.failure_scope
    }

    /// Translates every application for both modes.
    ///
    /// Returns, per application, the plan summary plus the normal- and
    /// failure-mode [`Workload`]s ready for placement. When the request
    /// carries an observability context, the whole fleet translation runs
    /// under a `pipeline.translate` span and each application's
    /// translation emits its breakpoint and relaxation events.
    ///
    /// # Errors
    ///
    /// Propagates QoS validation and translation errors.
    pub fn translate_fleet<'a>(
        &self,
        request: impl Into<PlanRequest<'a>>,
    ) -> Result<TranslatedFleet, FrameworkError> {
        let request = request.into();
        let (apps, obs) = (request.apps(), request.obs());
        if apps.is_empty() {
            return Err(FrameworkError::NoApplications);
        }
        let _span = obs.span("pipeline.translate");
        let cos2 = self.commitments.cos2;
        let mut plans = Vec::with_capacity(apps.len());
        let mut normal = Vec::with_capacity(apps.len());
        let mut failure = Vec::with_capacity(apps.len());
        for app in apps {
            app.policy.validate()?;
            let n = translate(&app.demand, &app.policy.normal, &cos2, obs)?;
            let f = translate(&app.demand, &app.policy.failure, &cos2, obs)?;
            check_report(&app.policy.normal, &n.report)?;
            check_report(&app.policy.failure, &f.report)?;
            plans.push(AppPlan {
                name: app.name.clone(),
                normal: n.report,
                failure: f.report,
            });
            let mut normal_workload = Workload::from_translation(app.name.clone(), n);
            let mut failure_workload = Workload::from_translation(app.name.clone(), f);
            if let Some(memory) = &app.memory {
                normal_workload = normal_workload
                    .with_memory(memory.clone())
                    // lint:allow(panic-expect): AppSpec::with_memory
                    // already validated the memory trace against the
                    // demand calendar; translation preserves alignment.
                    .expect("memory alignment checked by AppSpec::with_memory");
                failure_workload = failure_workload
                    .with_memory(memory.clone())
                    // lint:allow(panic-expect): same alignment invariant.
                    .expect("memory alignment checked by AppSpec::with_memory");
            }
            normal.push(normal_workload);
            failure.push(failure_workload);
        }
        Ok((plans, normal, failure))
    }

    /// Translates the normal mode and consolidates, without the failure
    /// sweep — the inner step of iterative services such as
    /// [`forecast`](crate::planning) that only need pool sizing.
    ///
    /// # Errors
    ///
    /// As for [`plan`](Self::plan).
    pub fn plan_normal_only<'a>(
        &self,
        request: impl Into<PlanRequest<'a>>,
    ) -> Result<PlacementReport, FrameworkError> {
        let request = request.into();
        let obs = request.obs();
        let (_, normal, _) = self.translate_fleet(request)?;
        let _span = obs.span("pipeline.consolidate");
        let consolidator = Consolidator::new(self.server, self.commitments, self.options);
        Ok(consolidator.consolidate(&normal, obs)?)
    }

    /// Runs the full pipeline: translate both modes, consolidate the
    /// normal-mode workloads, and sweep single failures. When the request
    /// carries an observability context, the three pipeline stages run
    /// under `pipeline.translate`, `pipeline.consolidate`, and
    /// `pipeline.failure_sweep` spans, with the per-layer counters and
    /// events of each stage riding along.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameworkError`] if translation fails or the fleet
    /// cannot be placed at all. An *unsupported failure case* is not an
    /// error; it surfaces as [`CapacityPlan::spare_needed`].
    pub fn plan<'a>(
        &self,
        request: impl Into<PlanRequest<'a>>,
    ) -> Result<CapacityPlan, FrameworkError> {
        let request = request.into();
        let obs = request.obs();
        let (plans, normal, failure) = self.translate_fleet(request)?;
        let consolidator = Consolidator::new(self.server, self.commitments, self.options);
        let normal_placement = {
            let _span = obs.span("pipeline.consolidate");
            consolidator.consolidate(&normal, obs)?
        };
        let failure_analysis = {
            let _span = obs.span("pipeline.failure_sweep");
            analyze_single_failures(
                &consolidator,
                &normal_placement,
                &normal,
                &failure,
                self.failure_scope,
            )?
        };
        obs.counter(
            "pipeline.failure_sweep.unsupported_cases",
            failure_analysis
                .cases
                .iter()
                .filter(|c| !c.is_supported())
                .count() as u64,
        );
        let savings = FleetSavings::aggregate(&plans.iter().map(|p| p.normal).collect::<Vec<_>>());
        Ok(CapacityPlan {
            apps: plans,
            normal_placement,
            failure_analysis,
            savings,
        })
    }
}

/// Builder for [`Framework`].
#[derive(Debug, Clone, Copy)]
pub struct FrameworkBuilder {
    server: ServerSpec,
    commitments: PoolCommitments,
    options: ConsolidationOptions,
    failure_scope: FailureScope,
}

impl FrameworkBuilder {
    /// Sets the pool's server type.
    pub fn server(mut self, server: ServerSpec) -> Self {
        self.server = server;
        self
    }

    /// Sets the pool's CoS commitments.
    pub fn commitments(mut self, commitments: PoolCommitments) -> Self {
        self.commitments = commitments;
        self
    }

    /// Sets the consolidation search options.
    pub fn options(mut self, options: ConsolidationOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets the worker-thread count for the placement engine (1 = serial,
    /// the default). Plans are bit-identical regardless of thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.options = self.options.with_threads(threads);
        self
    }

    /// Sets which applications relax to failure-mode QoS after a failure
    /// (default [`FailureScope::AffectedOnly`], the paper's §VI-C rule).
    pub fn failure_scope(mut self, scope: FailureScope) -> Self {
        self.failure_scope = scope;
        self
    }

    /// Finishes the build.
    pub fn build(self) -> Framework {
        Framework {
            server: self.server,
            commitments: self.commitments,
            options: self.options,
            failure_scope: self.failure_scope,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropus_qos::{AppQos, CosSpec};
    use ropus_trace::Calendar;

    fn cal() -> Calendar {
        Calendar::five_minute()
    }

    fn app(name: &str, level: f64) -> AppSpec {
        let demand = Trace::constant(cal(), level, cal().slots_per_week()).unwrap();
        AppSpec::new(
            name,
            demand,
            QosPolicy {
                normal: AppQos::paper_default(Some(30)),
                failure: AppQos::paper_default(None),
            },
        )
    }

    fn framework(seed: u64) -> Framework {
        Framework::builder()
            .server(ServerSpec::sixteen_way())
            .commitments(PoolCommitments::new(CosSpec::new(0.9, 60).unwrap()))
            .options(ConsolidationOptions::fast(seed))
            .build()
    }

    #[test]
    fn plan_produces_consistent_outputs() {
        let apps = vec![app("a", 2.0), app("b", 1.5), app("c", 3.0)];
        let plan = framework(1).plan(&apps).unwrap();
        assert_eq!(plan.apps.len(), 3);
        assert_eq!(plan.apps[0].name, "a");
        // Constant demand of 2.0 -> allocation 4.0 peak.
        assert!((plan.apps[0].normal.peak_allocation - 4.0).abs() < 1e-9);
        assert!(plan.normal_servers() >= 1);
        assert_eq!(plan.failure_analysis.normal_servers, plan.normal_servers());
        assert_eq!(
            plan.servers_to_provision(),
            plan.normal_servers() + usize::from(plan.spare_needed())
        );
        // Aggregate savings cover all apps.
        assert_eq!(plan.savings.apps, 3);
    }

    #[test]
    fn empty_fleet_rejected() {
        assert!(matches!(
            framework(0).plan(&[]),
            Err(FrameworkError::NoApplications)
        ));
    }

    #[test]
    fn invalid_policy_surfaces_as_qos_error() {
        use ropus_qos::{DegradationSpec, UtilizationBand};
        let demand = Trace::constant(cal(), 1.0, cal().slots_per_week()).unwrap();
        let bad = AppQos::new(
            UtilizationBand::new(0.5, 0.66).unwrap(),
            Some(DegradationSpec::new(0.03, 0.6, None).unwrap()),
        );
        let spec = AppSpec::new("x", demand, QosPolicy::uniform(bad));
        assert!(matches!(
            framework(0).plan(&[spec]),
            Err(FrameworkError::Qos(_))
        ));
    }

    #[test]
    fn oversized_app_surfaces_as_placement_error() {
        let spec = app("huge", 20.0);
        assert!(matches!(
            framework(0).plan(&[spec]),
            Err(FrameworkError::Placement(_))
        ));
    }

    #[test]
    fn memory_constrained_plan_uses_more_servers() {
        // Three small-CPU apps that would share one server, but whose
        // 30 GB footprints only pack two per 64 GB box.
        let mk = |with_mem: bool| -> Vec<AppSpec> {
            (0..3)
                .map(|i| {
                    let spec = app(&format!("m{i}"), 1.0);
                    if with_mem {
                        let mem = Trace::constant(cal(), 30.0, cal().slots_per_week()).unwrap();
                        spec.with_memory(mem).unwrap()
                    } else {
                        spec
                    }
                })
                .collect()
        };
        let without = framework(10).plan(&mk(false)).unwrap();
        let with = framework(10).plan(&mk(true)).unwrap();
        assert_eq!(without.normal_servers(), 1);
        assert_eq!(with.normal_servers(), 2);
    }

    #[test]
    fn misaligned_memory_is_rejected() {
        let spec = app("x", 1.0);
        let bad = Trace::constant(cal(), 1.0, 10).unwrap();
        assert!(matches!(
            spec.with_memory(bad),
            Err(FrameworkError::Trace(_))
        ));
    }

    #[test]
    fn plan_is_deterministic() {
        let apps = vec![app("a", 2.0), app("b", 1.0)];
        let p1 = framework(5).plan(&apps).unwrap();
        let p2 = framework(5).plan(&apps).unwrap();
        assert_eq!(
            p1.normal_placement.assignment,
            p2.normal_placement.assignment
        );
        assert_eq!(p1.savings, p2.savings);
    }
}
