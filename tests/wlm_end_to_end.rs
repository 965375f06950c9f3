//! Closing the loop: the QoS translation promises that an application's
//! utilization of allocation stays inside its envelope whenever the pool
//! honours its CoS commitments. These tests replay translated workloads
//! through the workload-manager host scheduler and audit the *delivered*
//! QoS against the requirement.

use ropus::prelude::*;
use ropus_obs::ObsCtx;
use ropus_wlm::host::SlotScheduler;
use ropus_wlm::manager::WlmPolicy;
use ropus_wlm::metrics::audit;

/// An application to replay: its name, demand and manager policy.
struct Hosted {
    name: String,
    demand: Trace,
    policy: WlmPolicy,
}

/// One application's replayed columns.
struct Outcome {
    name: String,
    granted: Vec<f64>,
    served: Vec<f64>,
    unmet: Vec<f64>,
    utilization: Trace,
}

/// Replays `hosted` together on one server of `capacity` through the
/// slot scheduler, shedding unserved demand. Returns each application's
/// columns and the number of contended slots.
fn run_server(capacity: f64, hosted: &[Hosted]) -> (Vec<Outcome>, usize) {
    let calendar = hosted[0].demand.calendar();
    let slots = hosted[0].demand.len();
    let policies: Vec<WlmPolicy> = hosted.iter().map(|h| h.policy).collect();
    let mut scheduler = SlotScheduler::new(capacity, hosted.len(), 0).unwrap();
    scheduler.set_views(&vec![Some(0); hosted.len()], &[]);
    let mut columns = vec![(Vec::new(), Vec::new(), Vec::new(), Vec::new()); hosted.len()];
    let mut contended = 0;
    for slot in 0..slots {
        let demand: Vec<f64> = hosted.iter().map(|h| h.demand.samples()[slot]).collect();
        scheduler.step(slot, &demand, &policies).unwrap();
        contended += usize::from(scheduler.contended()[0]);
        for ((g, s, u, util), (out, d)) in
            columns.iter_mut().zip(scheduler.apps().iter().zip(&demand))
        {
            g.push(out.grant);
            s.push(out.served);
            u.push(d - out.served);
            util.push(out.utilization);
        }
    }
    let outcomes = hosted
        .iter()
        .zip(columns)
        .map(|(h, (granted, served, unmet, util))| Outcome {
            name: h.name.clone(),
            granted,
            served,
            unmet,
            utilization: Trace::from_samples(calendar, util).unwrap(),
        })
        .collect();
    (outcomes, contended)
}

fn translated_hosted(apps: usize, theta: f64) -> (Vec<Hosted>, Vec<AppQos>, Vec<Workload>) {
    let fleet = case_study_fleet(&FleetConfig {
        apps,
        weeks: 1,
        ..FleetConfig::paper()
    });
    let qos = AppQos::paper_default(Some(30));
    let cos2 = CosSpec::new(theta, 60).unwrap();
    let mut hosted = Vec::new();
    let mut requirements = Vec::new();
    let mut workloads = Vec::new();
    for app in fleet {
        let translation = translate(&app.trace, &qos, &cos2, ObsCtx::none()).unwrap();
        let policy = WlmPolicy::from_translation(&qos, &translation.report);
        workloads.push(Workload::from_translation(app.name.clone(), translation));
        hosted.push(Hosted {
            name: app.name,
            demand: app.trace,
            policy,
        });
        requirements.push(qos);
    }
    (hosted, requirements, workloads)
}

#[test]
fn uncontended_host_delivers_compliant_qos() {
    let (hosted, requirements, _) = translated_hosted(3, 0.9);
    // Plenty of capacity: every allocation request is granted in full, so
    // utilization of allocation stays within the band by construction.
    let (outcomes, contended) = run_server(64.0, &hosted);
    assert_eq!(contended, 0);
    for (wo, qos) in outcomes.iter().zip(&requirements) {
        let a = audit(&wo.utilization, qos);
        assert!(a.is_compliant(), "{}: {:?}", wo.name, a.violations);
        // Demand above the translation's cap is served from a capped
        // allocation: utilization may exceed U_high on those (allowed)
        // degraded slots, but never U_degr.
        assert!(a.max_utilization <= qos.degradation().unwrap().u_degr() + 1e-9);
    }
}

#[test]
fn sized_host_keeps_qos_within_the_degraded_envelope() {
    use ropus_placement::simulator::{AggregateLoad, FitRequest};
    let (hosted, requirements, workloads) = translated_hosted(4, 0.9);
    // Size the host at the placement simulator's required capacity.
    let refs: Vec<&Workload> = workloads.iter().collect();
    let load = AggregateLoad::of(&refs).unwrap();
    let commitments = PoolCommitments::new(CosSpec::new(0.9, 60).unwrap());
    let capacity = FitRequest::new(&load, &commitments)
        .required_capacity(64.0)
        .unwrap();
    let (outcomes, _) = run_server(capacity.max(1.0), &hosted);
    for (wo, qos) in outcomes.iter().zip(&requirements) {
        // θ is a weekly statistical aggregate, so isolated slots may still
        // see deep cuts; the envelope promise is that such slots are rare.
        let bound = qos.degradation().unwrap().u_degr();
        let breach_fraction = wo.utilization.fraction_above(bound);
        assert!(
            breach_fraction < 0.05,
            "{}: {:.2}% of slots above U_degr",
            wo.name,
            100.0 * breach_fraction
        );
        let a = audit(&wo.utilization, qos);
        // Most measurements sit in the acceptable band.
        assert!(
            a.acceptable_fraction > 0.9,
            "{}: {}",
            wo.name,
            a.acceptable_fraction
        );
    }
}

#[test]
fn starved_host_shows_violations_the_audit_catches() {
    let (hosted, requirements, _) = translated_hosted(4, 0.9);
    // A pathologically small host: CoS2 requests are heavily cut, so
    // served demand is capped by grants and utilization rides at 1.0
    // whenever demand exceeds the grant — the audit must flag it.
    let (outcomes, contended) = run_server(1.0, &hosted);
    assert!(contended > 0);
    let any_violation = outcomes
        .iter()
        .zip(&requirements)
        .any(|(wo, qos)| !audit(&wo.utilization, qos).is_compliant());
    assert!(any_violation, "starvation must surface as an SLO violation");
}

#[test]
fn cos1_workloads_are_insulated_from_cos2_pressure() {
    // A guaranteed-heavy workload keeps its grants even when a CoS2-heavy
    // neighbour floods the host.
    let cal = Calendar::five_minute();
    let len = cal.slots_per_week();
    let steady = Hosted {
        name: "steady".into(),
        demand: Trace::constant(cal, 2.0, len).unwrap(),
        policy: WlmPolicy {
            burst_factor: 2.0,
            cos1_cap: 4.0,
            total_cap: 4.0,
        },
    };
    let noisy = Hosted {
        name: "noisy".into(),
        demand: Trace::constant(cal, 20.0, len).unwrap(),
        policy: WlmPolicy {
            burst_factor: 2.0,
            cos1_cap: 0.0,
            total_cap: 40.0,
        },
    };
    let (outcomes, _) = run_server(10.0, &[steady, noisy]);
    let steady_out = &outcomes[0];
    // The steady workload's 4-CPU CoS1 request is always granted in full.
    for (&g, &s) in steady_out.granted.iter().zip(&steady_out.served) {
        assert!((g - 4.0).abs() < 1e-9);
        assert!((s - 2.0).abs() < 1e-9);
    }
    // The noisy workload absorbs all the contention.
    assert!(outcomes[1].unmet.iter().any(|&u| u > 0.0));
}
