//! Integration tests for the fault-injection simulator: byte-identical
//! determinism across runs and thread counts, and agreement between the
//! dynamic replay and the static single-failure planner on the §VII
//! case-study setup.

use ropus::prelude::*;

fn policy() -> QosPolicy {
    QosPolicy {
        normal: AppQos::paper_default(Some(30)),
        failure: AppQos::paper_default(None),
    }
}

fn framework(seed: u64, threads: usize) -> Framework {
    Framework::builder()
        .server(ServerSpec::sixteen_way())
        .commitments(PoolCommitments::new(CosSpec::new(0.9, 60).unwrap()))
        .options(ConsolidationOptions::fast(seed).with_threads(threads))
        .failure_scope(FailureScope::AllApplications)
        .build()
}

fn case_study_apps(n: usize) -> Vec<AppSpec> {
    case_study_fleet(&FleetConfig {
        apps: n,
        weeks: 1,
        ..FleetConfig::paper()
    })
    .into_iter()
    .map(|a| AppSpec::new(a.name, a.trace, policy()))
    .collect()
}

#[test]
fn chaos_report_json_is_byte_identical_across_runs_and_threads() {
    let apps = case_study_apps(6);
    let horizon = apps[0].demand().len();
    // Draw a stochastic schedule over as many servers as the placement
    // actually uses, then remap the event indices onto the real server
    // ids so every event names a server that exists in the pool.
    let placement = framework(9, 1).plan_normal_only(&apps).unwrap();
    let ids: Vec<usize> = placement.servers.iter().map(|s| s.server).collect();
    let raw = FailureSchedule::stochastic(
        &StochasticProfile {
            seed: 42,
            mtbf_slots: 700,
            mttr_slots: 48,
        },
        ids.len(),
        horizon,
    )
    .unwrap();
    let events: Vec<FailureEvent> = raw
        .events()
        .iter()
        .map(|e| FailureEvent {
            server: ids[e.server],
            ..*e
        })
        .collect();
    assert!(
        !events.is_empty(),
        "profile must produce at least one outage"
    );
    let schedule = FailureSchedule::scripted(events).unwrap();

    let run = |threads: usize| -> String {
        let fw = framework(9, threads);
        let placement = fw.plan_normal_only(&apps).unwrap();
        let report = fw
            .chaos_replay_on(&apps, &placement, &schedule, DegradationPolicy::default())
            .unwrap();
        serde_json::to_string(&report).unwrap()
    };

    let first = run(1);
    let second = run(1);
    assert_eq!(first, second, "same seed+schedule must replay identically");

    let parallel = run(4);
    assert_eq!(
        first, parallel,
        "replay must be bit-identical across --threads settings"
    );

    // The JSON round-trips into the same value.
    let decoded: ChaosReport = serde_json::from_str(&first).unwrap();
    assert_eq!(serde_json::to_string(&decoded).unwrap(), first);
}

/// A fleet engineered to be single-failure tolerant: each application
/// idles at 1.0 CPU and bursts to 6.9 CPU for eight slots a day, with the
/// burst windows disjoint across applications.
///
/// Normal mode is strict (no degradation), so each burst requests
/// `2 × 6.9 = 13.8` CPU. Two applications per 16-CPU server fit
/// (`13.8 + 2.0 = 15.8`), but a third pushes a burst slot to
/// `17.8` CPU and the measured access probability to `16/17.8 ≈ 0.899`,
/// below the pool's `θ = 0.95` — so normal mode needs one server per pair.
/// Failure mode allows 3% degradation at `U_degr = 0.9`, capping the burst
/// request at `2 × 6.9 × 0.66/0.9 ≈ 10.1` CPU, so three (even four)
/// applications share a survivor — every single failure is supported.
fn bursty_fleet(n: usize) -> Vec<AppSpec> {
    let calendar = Calendar::five_minute();
    let slots = calendar.slots_per_week();
    let per_day = calendar.slots_per_day();
    let policy = QosPolicy {
        normal: AppQos::strict(UtilizationBand::paper_default()),
        failure: AppQos::paper_default(None),
    };
    (0..n)
        .map(|i| {
            let samples: Vec<f64> = (0..slots)
                .map(|t| {
                    let tod = t % per_day;
                    if (i * 8..(i + 1) * 8).contains(&tod) {
                        6.9
                    } else {
                        1.0
                    }
                })
                .collect();
            AppSpec::new(
                format!("bursty-{i}"),
                Trace::from_samples(calendar, samples).unwrap(),
                policy,
            )
        })
        .collect()
}

/// Supported direction of the static-vs-dynamic equivalence: for every
/// single-server failure case the planner marks supported, a replay of
/// that failure over the whole horizon keeps every application within its
/// failure-mode QoS contract.
#[test]
fn replay_reproduces_supported_static_verdicts() {
    let apps = bursty_fleet(6);
    let horizon = apps[0].demand().len();
    let fw = Framework::builder()
        .server(ServerSpec::sixteen_way())
        .commitments(PoolCommitments::new(CosSpec::new(0.95, 60).unwrap()))
        .options(ConsolidationOptions::fast(1))
        .failure_scope(FailureScope::AllApplications)
        .build();
    let plan = fw.plan(&apps).unwrap();
    assert_eq!(
        plan.normal_placement.servers_used, 3,
        "strict normal mode must spread the fleet two-per-server"
    );
    assert!(
        plan.failure_analysis.all_supported(),
        "failure-mode caps must let the survivors absorb any one server"
    );

    for case in &plan.failure_analysis.cases {
        let schedule = FailureSchedule::scripted(vec![FailureEvent {
            server: case.failed_server,
            start: 0,
            duration: horizon,
        }])
        .unwrap();
        // shed_immediately reproduces the planner's audit semantics
        // exactly: no carried-over demand perturbs the grants.
        let report = fw
            .chaos_replay_on(
                &apps,
                &plan.normal_placement,
                &schedule,
                DegradationPolicy::shed_immediately(),
            )
            .unwrap();
        assert_eq!(report.degraded_slots, horizon);
        assert!(
            report.all_degraded_compliant(),
            "server {} is statically supported but replay found violators: {:?}",
            case.failed_server,
            report.degraded_violators()
        );
    }
}

/// Unsupported direction: a fleet whose survivors cannot absorb a failure
/// is flagged by the static planner, and the replay of that failure
/// produces a failure-mode QoS violation.
#[test]
fn replay_reproduces_unsupported_static_verdicts() {
    // Three constant 7.8-CPU applications on 16-CPU servers: one app per
    // server in normal mode (allocation 15.6 each), but two apps on one
    // survivor would need 31.2 CPU — statically unsupported.
    let calendar = Calendar::five_minute();
    let slots = calendar.slots_per_week();
    let apps: Vec<AppSpec> = (0..3)
        .map(|i| {
            AppSpec::new(
                format!("constant-{i}"),
                Trace::constant(calendar, 7.8, slots).unwrap(),
                policy(),
            )
        })
        .collect();
    let fw = framework(1, 1);
    let plan = fw.plan(&apps).unwrap();
    assert_eq!(plan.normal_placement.servers_used, 3);
    assert!(
        plan.failure_analysis.spare_needed(),
        "two 15.6-CPU allocations cannot share a 16-CPU survivor"
    );

    let case = plan
        .failure_analysis
        .cases
        .iter()
        .find(|c| !c.is_supported())
        .expect("an unsupported case must exist");
    let schedule = FailureSchedule::scripted(vec![FailureEvent {
        server: case.failed_server,
        start: 0,
        duration: slots,
    }])
    .unwrap();
    let report = fw
        .chaos_replay_on(
            &apps,
            &plan.normal_placement,
            &schedule,
            DegradationPolicy::shed_immediately(),
        )
        .unwrap();
    // Best-effort packing doubled up two apps on one survivor; their
    // utilization of allocation (7.8 of a ~8-CPU share) breaks U_degr.
    assert!(
        !report.windows[0].feasible,
        "replay must fall back to best-effort packing"
    );
    assert!(
        !report.all_degraded_compliant(),
        "replay must surface the statically-predicted violation"
    );
    assert!(!report.degraded_violators().is_empty());
}

/// Recovery metrics: a mid-week outage with carry-over defers demand and
/// drains it after repair within the deadline.
#[test]
fn carry_over_defers_and_recovers() {
    let apps = case_study_apps(6);
    let horizon = apps[0].demand().len();
    let fw = framework(9, 1);
    let placement = fw.plan_normal_only(&apps).unwrap();
    let schedule = FailureSchedule::scripted(vec![FailureEvent {
        server: placement.servers[0].server,
        start: horizon / 3,
        duration: 36,
    }])
    .unwrap();
    let report = fw
        .chaos_replay_on(&apps, &placement, &schedule, DegradationPolicy::default())
        .unwrap();
    assert_eq!(report.windows.len(), 1);
    assert_eq!(report.degraded_slots, 36);
    // Accounting closes per app.
    for a in &report.apps {
        let balance = a.served_total() + a.shed + a.backlog_remaining;
        assert!((balance - a.demand_total).abs() < 1e-6, "{}", a.name);
    }
    // Every displaced application comes home after repair; the re-pack
    // may also shuffle unaffected applications, and a blackout (no
    // survivors) displaces without a countable outbound move, so the
    // exact total is placement-dependent.
    let displaced = report.windows[0].displaced;
    assert!(displaced > 0);
    assert!(report.migrations_total >= displaced);
    assert_eq!(report.windows[0].migrations, report.migrations_total);
    // The window reports a recovery time when the backlog drains.
    if let Some(recovery) = report.windows[0].recovery_slots {
        assert!(recovery <= report.deadline_slots);
    }
}

/// An engineered mid-week outage must surface in the replay's SLO
/// summary: per-app attainment for the whole fleet, and at least one
/// multi-window burn-rate alert that fires while planned degradation
/// spends strict apps' (empty) error budgets, then clears after the
/// windows cool.
#[test]
fn replay_surfaces_slo_attainment_and_burn_alerts() {
    let apps = bursty_fleet(6);
    let horizon = apps[0].demand().len();
    let fw = Framework::builder()
        .server(ServerSpec::sixteen_way())
        .commitments(PoolCommitments::new(CosSpec::new(0.95, 60).unwrap()))
        .options(ConsolidationOptions::fast(1))
        .failure_scope(FailureScope::AllApplications)
        .build();
    let plan = fw.plan(&apps).unwrap();
    // Six hours of outage starting at day two: every app's daily burst
    // window falls inside it, so each one runs capped at least once.
    let schedule = FailureSchedule::scripted(vec![FailureEvent {
        server: plan.failure_analysis.cases[0].failed_server,
        start: 288,
        duration: 72,
    }])
    .unwrap();
    let report = fw
        .chaos_replay_on(
            &apps,
            &plan.normal_placement,
            &schedule,
            DegradationPolicy::shed_immediately(),
        )
        .unwrap();

    let slo = report
        .slo
        .as_ref()
        .expect("replay always attaches an SLO summary");
    assert_eq!(slo.apps.len(), apps.len(), "attainment covers the fleet");
    for app in &slo.apps {
        assert_eq!(app.samples, horizon, "{}: whole-horizon coverage", app.app);
        assert!(
            app.degraded_slots <= 72,
            "{}: degradation is outage-bound",
            app.app
        );
    }
    assert!(
        !slo.all_attained(),
        "strict contracts cannot attain through a capped burst: {:?}",
        slo.apps
    );

    assert!(slo.any_fired(), "the outage must page: {:?}", slo.alerts);
    let fire = slo
        .alerts
        .iter()
        .find(|a| a.kind == AlertKind::Fire)
        .unwrap();
    assert!(
        (288..360).contains(&fire.slot),
        "first fire lands inside the outage, got slot {}",
        fire.slot
    );
    assert!(
        fire.rule == "slo.burn.fast" || fire.rule == "slo.burn.slow",
        "unexpected rule {}",
        fire.rule
    );
    assert!(fire.short_burn >= fire.long_burn.min(6.0) || fire.long_burn >= 2.0);
    assert!(
        slo.alerts
            .iter()
            .any(|a| a.kind == AlertKind::Clear && a.slot > fire.slot),
        "windows must cool after the outage: {:?}",
        slo.alerts
    );
    // The summary rides inside the report's JSON for archival.
    let json = serde_json::to_string(&report).unwrap();
    assert!(json.contains("\"slo\"") && json.contains("\"alerts\""));
}

/// The chaos replay and the runtime validator measure delivered QoS the
/// same way: on a failure-free horizon that sheds instead of carrying
/// work over, every app's normal-mode audit from the replay is
/// bit-identical to the audit `validate_runtime` computes on the same
/// plan. The fleet includes an app whose every grant is float residue
/// (`(0, 1e-9]` CPUs), which both surfaces must read as "nothing
/// granted" (utilization 0), not as an allocation.
#[test]
fn failure_free_replay_audits_match_runtime_validation() {
    let mut apps = case_study_apps(6);
    let calendar = apps[0].demand().calendar();
    let residue = Trace::constant(calendar, 1e-10, apps[0].demand().len()).unwrap();
    apps.push(AppSpec::new("residue", residue, policy()));
    let fw = framework(5, 1);
    let plan = fw.plan(&apps).unwrap();
    let runtime = fw.validate_runtime(&apps, &plan).unwrap();
    let report = fw
        .chaos_replay_on(
            &apps,
            &plan.normal_placement,
            &FailureSchedule::none(),
            DegradationPolicy::shed_immediately(),
        )
        .unwrap();
    assert_eq!(report.apps.len(), runtime.apps.len());
    for (replayed, validated) in report.apps.iter().zip(&runtime.apps) {
        assert_eq!(replayed.name, validated.name);
        let replayed_audit = replayed
            .normal_audit
            .as_ref()
            .expect("every slot is normal");
        assert_eq!(
            serde_json::to_string(replayed_audit).unwrap(),
            serde_json::to_string(&validated.audit).unwrap(),
            "{}",
            replayed.name
        );
    }
    let residue = runtime.apps.last().unwrap();
    assert_eq!(
        residue.audit.max_utilization, 0.0,
        "residue grants are not allocations"
    );
}
