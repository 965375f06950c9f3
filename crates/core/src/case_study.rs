//! The paper's §VII case study, packaged for reuse by tests, examples, and
//! the benchmark harness.
//!
//! The study evaluates 26 enterprise order-entry applications over four
//! weeks of 5-minute CPU demand traces (synthesized here — see
//! `ropus-trace::gen`), under the QoS grid of Table I:
//!
//! | case | `M_degr` | `θ`  | `T_degr` |
//! |------|----------|------|----------|
//! | 1    | 0%       | 0.60 | —        |
//! | 2    | 3%       | 0.60 | 30 min   |
//! | 3    | 3%       | 0.60 | —        |
//! | 4    | 0%       | 0.95 | —        |
//! | 5    | 3%       | 0.95 | 30 min   |
//! | 6    | 3%       | 0.95 | —        |
//!
//! with band `(U_low, U_high) = (0.5, 0.66)`, `U_degr = 0.9`, a 60-minute
//! CoS2 deadline, and 16-way servers.

use serde::{Deserialize, Serialize};

use ropus_obs::ObsCtx;
use ropus_placement::consolidate::{ConsolidationOptions, Consolidator, PlacementReport};
use ropus_placement::server::ServerSpec;
use ropus_placement::workload::Workload;
use ropus_qos::translation::{translate, TranslationReport};
use ropus_qos::{AppQos, CosSpec, DegradationSpec, PoolCommitments, UtilizationBand};
use ropus_trace::gen::AppWorkload;
use ropus_trace::parallel::parallel_map;

use crate::FrameworkError;

/// One row configuration of Table I.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CaseConfig {
    /// Case number as used in the paper (1–6).
    pub id: usize,
    /// Fraction of measurements allowed to be degraded (`M_degr`).
    pub m_degr: f64,
    /// Resource access probability of CoS2.
    pub theta: f64,
    /// Time limit on contiguous degradation, minutes (`T_degr`).
    pub t_degr: Option<u32>,
}

impl CaseConfig {
    /// The six Table I cases.
    pub fn table1() -> [CaseConfig; 6] {
        [
            CaseConfig {
                id: 1,
                m_degr: 0.0,
                theta: 0.60,
                t_degr: None,
            },
            CaseConfig {
                id: 2,
                m_degr: 0.03,
                theta: 0.60,
                t_degr: Some(30),
            },
            CaseConfig {
                id: 3,
                m_degr: 0.03,
                theta: 0.60,
                t_degr: None,
            },
            CaseConfig {
                id: 4,
                m_degr: 0.0,
                theta: 0.95,
                t_degr: None,
            },
            CaseConfig {
                id: 5,
                m_degr: 0.03,
                theta: 0.95,
                t_degr: Some(30),
            },
            CaseConfig {
                id: 6,
                m_degr: 0.03,
                theta: 0.95,
                t_degr: None,
            },
        ]
    }

    /// The application QoS requirement this case imposes.
    pub fn app_qos(&self) -> AppQos {
        let band = UtilizationBand::paper_default();
        if self.m_degr == 0.0 {
            AppQos::strict(band)
        } else {
            AppQos::new(
                band,
                Some(
                    DegradationSpec::new(self.m_degr, 0.9, self.t_degr)
                        // lint:allow(panic-expect): the case table holds
                        // the paper's literal (M_degr, U_degr, T_degr)
                        // values, inside DegradationSpec's ranges.
                        .expect("case-study constants are valid"),
                ),
            )
        }
    }

    /// The pool commitments this case imposes (60-minute CoS2 deadline,
    /// per the paper's footnote 3).
    pub fn commitments(&self) -> PoolCommitments {
        // lint:allow(panic-expect): case-study θ values are the paper's
        // literal operating points (0.95 / 0.6), valid by inspection.
        PoolCommitments::new(CosSpec::new(self.theta, 60).expect("case-study θ is valid"))
    }
}

/// One application's translation under a case.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslatedApp {
    /// Application name.
    pub name: String,
    /// Placement-ready workload (per-CoS allocation traces).
    pub workload: Workload,
    /// Translation intermediates (Fig. 7/8 inputs).
    pub report: TranslationReport,
}

/// Translates the whole fleet under one case's QoS and commitments.
///
/// # Errors
///
/// Propagates translation failures (which the case-study constants should
/// never trigger).
pub fn translate_fleet(
    fleet: &[AppWorkload],
    case: &CaseConfig,
) -> Result<Vec<TranslatedApp>, FrameworkError> {
    translate_fleet_threaded(fleet, case, 1)
}

/// Translates the whole fleet across `threads` workers.
///
/// Per-app translations are independent, and the order-preserving
/// [`parallel_map`](ropus_trace::parallel::parallel_map()) joins
/// results in input order, so the output — and every placement computed
/// from it — is bit-identical to the serial [`translate_fleet`] path.
///
/// # Errors
///
/// Propagates translation failures (which the case-study constants should
/// never trigger).
pub fn translate_fleet_threaded(
    fleet: &[AppWorkload],
    case: &CaseConfig,
    threads: usize,
) -> Result<Vec<TranslatedApp>, FrameworkError> {
    let qos = case.app_qos();
    let cos2 = case.commitments().cos2;
    parallel_map(threads, fleet, |app| {
        let t = translate(&app.trace, &qos, &cos2, ObsCtx::none())?;
        Ok(TranslatedApp {
            name: app.name.clone(),
            report: t.report,
            workload: Workload::from_translation(app.name.clone(), t),
        })
    })
    .into_iter()
    .collect()
}

/// One Table I result row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseResult {
    /// The case configuration.
    pub case: CaseConfig,
    /// Number of 16-way servers the placement service used.
    pub servers: usize,
    /// Sum of per-server required capacities (`C_requ`), CPUs.
    pub c_requ: f64,
    /// Sum of per-application peak allocations (`C_peak`), CPUs.
    pub c_peak: f64,
    /// `1 − C_requ / C_peak` — the paper's 37–45% sharing savings.
    pub sharing_savings: f64,
    /// Lower bound on servers if *all* demand used the guaranteed class:
    /// `ceil(C_peak / server capacity)` (the paper's "at least 15 servers
    /// for case 1" argument).
    pub all_cos1_servers_lower_bound: usize,
}

/// Runs one Table I case end to end: translate, consolidate, report.
///
/// # Errors
///
/// Propagates translation and placement failures.
pub fn run_case(
    fleet: &[AppWorkload],
    case: &CaseConfig,
    options: ConsolidationOptions,
) -> Result<(CaseResult, PlacementReport), FrameworkError> {
    let translated = translate_fleet(fleet, case)?;
    let workloads: Vec<Workload> = translated.iter().map(|t| t.workload.clone()).collect();
    let consolidator = Consolidator::new(ServerSpec::sixteen_way(), case.commitments(), options);
    let report = consolidator.consolidate(&workloads, ObsCtx::none())?;
    let c_peak = report.peak_allocation_total;
    let result = CaseResult {
        case: *case,
        servers: report.servers_used,
        c_requ: report.required_capacity_total,
        c_peak,
        sharing_savings: report.sharing_savings(),
        all_cos1_servers_lower_bound: (c_peak / ServerSpec::sixteen_way().capacity()).ceil()
            as usize,
    };
    Ok((result, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropus_trace::gen::{case_study_fleet, FleetConfig};

    fn small_fleet() -> Vec<AppWorkload> {
        case_study_fleet(&FleetConfig {
            apps: 6,
            weeks: 1,
            ..FleetConfig::paper()
        })
    }

    #[test]
    fn table1_grid_matches_paper() {
        let cases = CaseConfig::table1();
        assert_eq!(cases.len(), 6);
        assert_eq!(cases[0].m_degr, 0.0);
        assert_eq!(cases[1].t_degr, Some(30));
        assert_eq!(cases[3].theta, 0.95);
        for c in &cases {
            assert!(c.app_qos().validate().is_ok());
            assert_eq!(c.commitments().cos2.deadline_minutes(), 60);
        }
    }

    #[test]
    fn strict_cases_have_no_degradation() {
        let cases = CaseConfig::table1();
        assert!(cases[0].app_qos().degradation().is_none());
        assert!(cases[1].app_qos().degradation().is_some());
    }

    #[test]
    fn translate_fleet_produces_one_entry_per_app() {
        let fleet = small_fleet();
        let translated = translate_fleet(&fleet, &CaseConfig::table1()[1]).unwrap();
        assert_eq!(translated.len(), fleet.len());
        for t in &translated {
            assert!(t.report.peak_allocation > 0.0);
            assert!(t.workload.total_peak() > 0.0);
        }
    }

    #[test]
    fn relaxed_case_needs_no_more_peak_than_strict() {
        let fleet = small_fleet();
        let strict = translate_fleet(&fleet, &CaseConfig::table1()[0]).unwrap();
        let relaxed = translate_fleet(&fleet, &CaseConfig::table1()[2]).unwrap();
        for (s, r) in strict.iter().zip(relaxed.iter()) {
            assert!(r.report.peak_allocation <= s.report.peak_allocation + 1e-9);
        }
    }

    #[test]
    fn threaded_translation_is_bit_identical_to_serial() {
        let fleet = small_fleet();
        for case in &CaseConfig::table1() {
            let serial = translate_fleet(&fleet, case).unwrap();
            let threaded = translate_fleet_threaded(&fleet, case, 4).unwrap();
            assert_eq!(serial, threaded, "case {} diverged across threads", case.id);
        }
    }

    #[test]
    fn run_case_produces_consistent_row() {
        let fleet = small_fleet();
        let (row, report) = run_case(
            &fleet,
            &CaseConfig::table1()[1],
            ConsolidationOptions::fast(3),
        )
        .unwrap();
        assert_eq!(row.servers, report.servers_used);
        assert!(row.c_requ <= row.c_peak + 1e-9);
        assert!((row.sharing_savings - (1.0 - row.c_requ / row.c_peak)).abs() < 1e-12);
        assert!(row.all_cos1_servers_lower_bound >= 1);
    }
}
