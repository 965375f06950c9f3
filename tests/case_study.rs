//! Integration tests of the §VII case-study machinery: the Table I grid on
//! a reduced fleet (12 apps, 2 weeks) so the orderings the paper reports
//! can be checked quickly. The full-scale study runs in the bench harness.

use ropus::case_study::{run_case, translate_fleet, CaseConfig, CaseResult};
use ropus::prelude::*;
use ropus_trace::gen::AppWorkload;

fn fleet() -> Vec<AppWorkload> {
    case_study_fleet(&FleetConfig {
        apps: 12,
        weeks: 2,
        ..FleetConfig::paper()
    })
}

fn run(case: &CaseConfig, seed: u64) -> CaseResult {
    run_case(&fleet(), case, ConsolidationOptions::fast(seed))
        .unwrap()
        .0
}

#[test]
fn c_peak_is_independent_of_theta_without_time_limit() {
    // With T_degr = none the demand cap (formulas 2-3) does not involve θ,
    // so C_peak matches across θ for the same M_degr.
    let cases = CaseConfig::table1();
    let t1 = translate_fleet(&fleet(), &cases[0]).unwrap(); // Mdegr=0, θ=0.6
    let t4 = translate_fleet(&fleet(), &cases[3]).unwrap(); // Mdegr=0, θ=0.95
    for (a, b) in t1.iter().zip(t4.iter()) {
        assert!((a.report.peak_allocation - b.report.peak_allocation).abs() < 1e-9);
    }
    let t3 = translate_fleet(&fleet(), &cases[2]).unwrap(); // Mdegr=3%, θ=0.6
    let t6 = translate_fleet(&fleet(), &cases[5]).unwrap(); // Mdegr=3%, θ=0.95
    for (a, b) in t3.iter().zip(t6.iter()) {
        assert!((a.report.peak_allocation - b.report.peak_allocation).abs() < 1e-9);
    }
}

#[test]
fn m_degr_reduces_c_peak() {
    // Table I: M_degr = 3% reduces C_peak by ~24% vs M_degr = 0.
    let cases = CaseConfig::table1();
    let strict = translate_fleet(&fleet(), &cases[0]).unwrap();
    let relaxed = translate_fleet(&fleet(), &cases[2]).unwrap();
    let c_strict: f64 = strict.iter().map(|t| t.report.peak_allocation).sum();
    let c_relaxed: f64 = relaxed.iter().map(|t| t.report.peak_allocation).sum();
    assert!(
        c_relaxed < c_strict,
        "relaxed {c_relaxed} strict {c_strict}"
    );
    let reduction = 1.0 - c_relaxed / c_strict;
    assert!(reduction > 0.05, "reduction {reduction}");
    // Formula 5 bound: no app can save more than 1 - 0.66/0.9.
    assert!(reduction <= 1.0 - 0.66 / 0.9 + 1e-9);
}

#[test]
fn time_limit_hurts_low_theta_more() {
    // §V / Fig. 7: under T_degr, higher θ retains more of the M_degr
    // savings. Compare per-app caps for cases 2 (θ=0.6, 30 min) and
    // 5 (θ=0.95, 30 min).
    let cases = CaseConfig::table1();
    let low = translate_fleet(&fleet(), &cases[1]).unwrap();
    let high = translate_fleet(&fleet(), &cases[4]).unwrap();
    let c_low: f64 = low.iter().map(|t| t.report.peak_allocation).sum();
    let c_high: f64 = high.iter().map(|t| t.report.peak_allocation).sum();
    assert!(
        c_high <= c_low + 1e-9,
        "θ=0.95 C_peak {c_high} vs θ=0.6 {c_low}"
    );
}

#[test]
fn degraded_fraction_stays_within_allowance_in_every_case() {
    for case in &CaseConfig::table1()[1..3] {
        let translated = translate_fleet(&fleet(), case).unwrap();
        for t in &translated {
            assert!(
                t.report.degraded_fraction <= case.m_degr + 1e-9,
                "case {}: app {} fraction {}",
                case.id,
                t.name,
                t.report.degraded_fraction
            );
        }
    }
}

#[test]
fn time_limit_constrains_degraded_episodes() {
    let case = CaseConfig::table1()[1]; // θ=0.6, T_degr = 30 min
    let translated = translate_fleet(&fleet(), &case).unwrap();
    for t in &translated {
        assert!(
            t.report.longest_degraded_minutes <= 30,
            "app {}: {} min",
            t.name,
            t.report.longest_degraded_minutes
        );
    }
}

#[test]
fn relaxed_cases_use_no_more_servers_than_strict() {
    let cases = CaseConfig::table1();
    let strict = run(&cases[0], 21);
    let relaxed = run(&cases[2], 21);
    assert!(
        relaxed.servers <= strict.servers,
        "{relaxed:?} vs {strict:?}"
    );
    assert!(relaxed.c_peak < strict.c_peak);
}

#[test]
fn consolidation_beats_all_cos1_lower_bound() {
    // The paper's two-CoS argument: with everything in CoS1 the fleet
    // would need ceil(C_peak/16) servers; statistical multiplexing must
    // use fewer (or equal for tiny fleets).
    let row = run(&CaseConfig::table1()[0], 22);
    assert!(
        row.servers <= row.all_cos1_servers_lower_bound,
        "GA used {} servers, all-CoS1 bound {}",
        row.servers,
        row.all_cos1_servers_lower_bound
    );
    assert!(row.sharing_savings > 0.0);
}

#[test]
fn case_results_are_deterministic() {
    let a = run(&CaseConfig::table1()[1], 9);
    let b = run(&CaseConfig::table1()[1], 9);
    assert_eq!(a, b);
}

#[test]
fn framework_and_case_study_translators_agree() {
    // `Framework::translate_fleet` (the planner's path) and the threaded
    // case-study translator must produce the same placement workloads and
    // reports, bit for bit, under every Table I case.
    let fleet = fleet();
    for case in &CaseConfig::table1() {
        let framework = Framework::builder()
            .server(ServerSpec::sixteen_way())
            .commitments(case.commitments())
            .build();
        let policy = QosPolicy::uniform(case.app_qos());
        let specs: Vec<AppSpec> = fleet
            .iter()
            .map(|app| AppSpec::new(app.name.clone(), app.trace.clone(), policy))
            .collect();
        let (plans, normal, failure) = framework.translate_fleet(&specs).unwrap();
        let threaded = case_study::translate_fleet_threaded(&fleet, case, 2).unwrap();
        assert_eq!(threaded.len(), fleet.len());
        for (((plan, n), f), t) in plans.iter().zip(&normal).zip(&failure).zip(&threaded) {
            let json = serde_json::to_string(&t.workload).unwrap();
            assert_eq!(serde_json::to_string(n).unwrap(), json, "case {}", case.id);
            assert_eq!(serde_json::to_string(f).unwrap(), json, "case {}", case.id);
            assert_eq!(plan.name, t.name);
            assert_eq!(plan.normal, t.report, "case {}: app {}", case.id, t.name);
        }
    }
}
