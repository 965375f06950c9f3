//! The three callers of the two-priority slot scheduler — runtime
//! validation, the lifecycle loop and the chaos replay — pinned against
//! committed golden reports, and checked against one another on a fleet
//! where all three replay the same demand over the same placement.

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
        .build()
}

/// The first `apps` applications of the Table-I case-study fleet over
/// `weeks` weeks of five-minute demand.
fn case_study_apps(apps: usize, weeks: usize) -> Vec<AppSpec> {
    case_study_fleet(&FleetConfig {
        apps,
        weeks,
        ..FleetConfig::paper()
    })
    .into_iter()
    .map(|a| AppSpec::new(a.name, a.trace, policy()))
    .collect()
}

/// Runtime validation of a 12-app Table-I fleet's plan, replayed as
/// planned and again at 1.3x demand (so the scheduler's contended
/// arithmetic shows), with the deterministic obs snapshot of both
/// replays: three JSON lines.
fn validation_golden(threads: usize) -> String {
    let apps = case_study_apps(12, 1);
    let fw = framework(3, threads);
    let plan = fw.plan(&apps).unwrap();
    let inflated: Vec<AppSpec> = apps
        .iter()
        .map(|a| AppSpec::new(a.name(), a.demand().scaled(1.3).unwrap(), a.policy()))
        .collect();
    let obs = Obs::deterministic();
    let nominal = fw
        .validate_runtime(PlanRequest::of(&apps).with_obs(&obs), &plan)
        .unwrap();
    let overloaded = fw
        .validate_runtime(PlanRequest::of(&inflated).with_obs(&obs), &plan)
        .unwrap();
    assert!(
        overloaded.servers.iter().any(|s| s.contended_slots > 0),
        "the inflated replay must contend"
    );
    [
        serde_json::to_string(&nominal).unwrap(),
        serde_json::to_string(&overloaded).unwrap(),
        serde_json::to_string(&obs.report()).unwrap(),
    ]
    .join("\n")
}

/// The lifecycle loop over the 26-app Table-I fleet: three weeks, a
/// one-week planning window, two out-of-sample epochs whose re-plans
/// move workloads between servers.
fn lifecycle_golden(migration: MigrationConfig, threads: usize) -> String {
    let apps = case_study_apps(26, 3);
    let report = framework(2, threads)
        .run_lifecycle_with(&apps, 1, migration)
        .unwrap();
    serde_json::to_string(&report).unwrap()
}

#[test]
fn runtime_validation_matches_committed_golden() {
    for threads in [1, 4] {
        assert_eq!(
            validation_golden(threads),
            include_str!("golden/runtime_validation.json").trim_end(),
            "threads {threads}"
        );
    }
}

#[test]
fn lifecycle_matches_committed_goldens() {
    for threads in [1, 4] {
        assert_eq!(
            lifecycle_golden(MigrationConfig::teleport(), threads),
            include_str!("golden/lifecycle_teleport.json").trim_end(),
            "threads {threads}"
        );
        assert_eq!(
            lifecycle_golden(MigrationConfig::paced(), threads),
            include_str!("golden/lifecycle_paced.json").trim_end(),
            "threads {threads}"
        );
    }
}

/// Runtime validation, the lifecycle loop and the chaos replay drive the
/// one slot scheduler. On a fleet whose second week repeats its first,
/// the lifecycle's one epoch plans on week 0 and replays week 1 — the
/// same demand over the same placement that validation and a
/// failure-free, shed-immediately chaos replay see on week 0 — so all
/// three must deliver the same utilization series. Validation and the
/// replay audit it; the lifecycle and the replay stream it through the
/// SLO engine (the lifecycle at slots offset by one week).
#[test]
fn lifecycle_chaos_and_validation_replay_one_week_identically() {
    let week = case_study_apps(12, 1);
    let calendar = week[0].demand().calendar();
    let repeated: Vec<AppSpec> = week
        .iter()
        .map(|a| {
            let samples = a.demand().samples().repeat(2);
            AppSpec::new(
                a.name(),
                Trace::from_samples(calendar, samples).unwrap(),
                a.policy(),
            )
        })
        .collect();
    let fw = framework(5, 1);
    let plan = fw.plan(&week).unwrap();
    let runtime = fw.validate_runtime(&week, &plan).unwrap();
    let chaos = fw
        .chaos_replay_on(
            &week,
            &plan.normal_placement,
            &FailureSchedule::none(),
            DegradationPolicy::shed_immediately(),
        )
        .unwrap();
    let lifecycle = fw.run_lifecycle(&repeated, 1).unwrap();
    let epoch = &lifecycle.epochs[0];
    assert_eq!((lifecycle.epochs.len(), epoch.week), (1, 1));
    assert_eq!(epoch.servers, plan.normal_servers());

    // Validation and the replay: the same audit, app by app.
    assert_eq!(chaos.apps.len(), runtime.apps.len());
    for (replayed, validated) in chaos.apps.iter().zip(&runtime.apps) {
        assert_eq!(replayed.name, validated.name);
        assert_eq!(
            serde_json::to_string(replayed.normal_audit.as_ref().unwrap()).unwrap(),
            serde_json::to_string(&validated.audit).unwrap(),
            "{}",
            replayed.name
        );
    }
    assert!(
        runtime.apps.iter().any(|a| a.audit.degraded_fraction > 0.0),
        "the fleet must degrade somewhere for the audits to say anything"
    );

    // The lifecycle and the replay: the same SLO attainment and, a week
    // apart, the same alert log.
    let (chaos_slo, lifecycle_slo) = (chaos.slo.unwrap(), lifecycle.slo.unwrap());
    assert_eq!(
        serde_json::to_string(&chaos_slo.apps).unwrap(),
        serde_json::to_string(&lifecycle_slo.apps).unwrap()
    );
    let slots = calendar.slots_per_week();
    let shifted: Vec<AlertEvent> = lifecycle_slo
        .alerts
        .into_iter()
        .map(|a| AlertEvent {
            slot: a.slot - slots,
            ..a
        })
        .collect();
    assert_eq!(
        serde_json::to_string(&chaos_slo.alerts).unwrap(),
        serde_json::to_string(&shifted).unwrap()
    );
    assert_eq!(epoch.slo_alerts, shifted.len());

    // All three agree on who violated the contract.
    assert_eq!(epoch.violations, runtime.violators().len());
    let replay_violators = chaos
        .apps
        .iter()
        .filter(|a| !a.normal_audit.as_ref().unwrap().is_compliant())
        .count();
    assert_eq!(replay_violators, epoch.violations);
}
