//! Delivered-QoS auditing: checking the utilization of allocation a
//! workload actually experienced against its [`AppQos`] requirement.
//!
//! This closes R-Opus's loop: the translation *promises* that if the pool
//! honours its CoS commitments, the application's utilization of
//! allocation stays within its acceptable/degraded envelope. The audit
//! measures whether a simulated (or monitored) run kept the promise.

use serde::{Deserialize, Serialize};

use ropus_obs::SloContract;
use ropus_qos::AppQos;
use ropus_trace::kernels::BlockMax;
use ropus_trace::runs::run_stats;
use ropus_trace::Trace;

/// One audited requirement clause and its measured value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SloViolation {
    /// More than `M_degr` of measurements exceeded `U_high`.
    DegradedFractionExceeded {
        /// Measured fraction of degraded slots.
        measured: f64,
        /// Allowed fraction (`M_degr`).
        allowed: f64,
    },
    /// Some measurement exceeded the degraded utilization bound.
    UtilizationAboveDegraded {
        /// Largest measured utilization of allocation.
        measured: f64,
        /// The bound (`U_degr`, or `U_high` with no degradation spec).
        bound: f64,
    },
    /// A degraded episode lasted longer than `T_degr`.
    DegradedRunTooLong {
        /// Longest measured degraded episode, minutes.
        measured_minutes: u32,
        /// The limit (`T_degr`), minutes.
        limit_minutes: u32,
    },
    /// More degraded epochs occurred in a week than the budget allows.
    TooManyDegradedEpochs {
        /// Largest per-week epoch count measured.
        measured: usize,
        /// The budget (`max_epochs_per_week`).
        allowed: u32,
    },
}

/// Result of auditing a utilization-of-allocation series against an
/// [`AppQos`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloAudit {
    /// Fraction of slots with `U_alloc <= U_high` (acceptable or better).
    pub acceptable_fraction: f64,
    /// Fraction of slots with `U_high < U_alloc` (degraded or worse).
    pub degraded_fraction: f64,
    /// Largest measured utilization of allocation.
    pub max_utilization: f64,
    /// Longest contiguous degraded episode, in minutes.
    pub longest_degraded_minutes: u32,
    /// Largest number of degraded epochs in any week (the whole trace
    /// counts as one window when it is shorter than a week).
    pub max_epochs_per_week: usize,
    /// All violated clauses (empty = compliant).
    pub violations: Vec<SloViolation>,
}

impl SloAudit {
    /// Whether every clause of the requirement held.
    pub fn is_compliant(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Converts an [`AppQos`] requirement into the slot-time terms of the
/// streaming SLO engine: `U_high` is the degradation threshold, `U_degr`
/// the breach ceiling (collapsing to `U_high` for strict contracts),
/// `M_degr` the error-budget allowance, and `T_degr` is floored into
/// whole slots (a run is over the limit once its slot count strictly
/// exceeds `limit_minutes / slot_minutes`).
pub fn slo_contract(app: impl Into<String>, qos: &AppQos, slot_minutes: u32) -> SloContract {
    let band = qos.band();
    match qos.degradation() {
        Some(degr) => SloContract::new(
            app,
            band.high(),
            degr.u_degr(),
            degr.max_fraction(),
            degr.time_limit_minutes()
                .map(|m| (m / slot_minutes.max(1)) as usize),
        ),
        None => SloContract::new(app, band.high(), band.high(), 0.0, None),
    }
}

/// Grants at or below this many CPUs are float residue (for example of
/// `capacity − cos1 · scale`), not an allocation.
const GRANT_EPSILON: f64 = 1e-9;

/// Utilization of allocation in one slot: the share of the grant that
/// served current demand, `min(served, granted) / granted`, or 0 when
/// nothing beyond float residue was granted. The host scheduler and the
/// chaos replay both measure delivered QoS with this.
pub fn utilization_of_allocation(served: f64, granted: f64) -> f64 {
    if granted > GRANT_EPSILON {
        served.min(granted) / granted
    } else {
        0.0
    }
}

/// Audits a measured utilization-of-allocation trace against a
/// requirement.
///
/// Slots with zero utilization count as acceptable (an idle application is
/// trivially within its band; `U_low` is a sizing goal, not an SLO floor).
pub fn audit(utilization: &Trace, qos: &AppQos) -> SloAudit {
    let band = qos.band();
    let calendar = utilization.calendar();
    let blocks = BlockMax::new(utilization.samples(), calendar.slots_per_week());
    let degraded = run_stats(&blocks, band.high());
    let degraded_fraction = degraded.count as f64 / utilization.len() as f64;
    let max_utilization = blocks.peak();
    let longest_degraded_minutes = degraded.longest_run as u32 * calendar.slot_minutes();
    let max_epochs_per_week = degraded.max_runs_per_chunk;

    let mut violations = Vec::new();
    match qos.degradation() {
        Some(degr) => {
            if degraded_fraction > degr.max_fraction() + 1e-9 {
                violations.push(SloViolation::DegradedFractionExceeded {
                    measured: degraded_fraction,
                    allowed: degr.max_fraction(),
                });
            }
            if max_utilization > degr.u_degr() + 1e-9 {
                violations.push(SloViolation::UtilizationAboveDegraded {
                    measured: max_utilization,
                    bound: degr.u_degr(),
                });
            }
            if let Some(limit) = degr.time_limit_minutes() {
                if longest_degraded_minutes > limit {
                    violations.push(SloViolation::DegradedRunTooLong {
                        measured_minutes: longest_degraded_minutes,
                        limit_minutes: limit,
                    });
                }
            }
            if let Some(budget) = degr.max_epochs_per_week() {
                if max_epochs_per_week > budget as usize {
                    violations.push(SloViolation::TooManyDegradedEpochs {
                        measured: max_epochs_per_week,
                        allowed: budget,
                    });
                }
            }
        }
        None => {
            if max_utilization > band.high() + 1e-9 {
                violations.push(SloViolation::UtilizationAboveDegraded {
                    measured: max_utilization,
                    bound: band.high(),
                });
            }
        }
    }

    SloAudit {
        acceptable_fraction: 1.0 - degraded_fraction,
        degraded_fraction,
        max_utilization,
        longest_degraded_minutes,
        max_epochs_per_week,
        violations,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropus_qos::{DegradationSpec, UtilizationBand};
    use ropus_trace::Calendar;

    fn cal() -> Calendar {
        Calendar::five_minute()
    }

    fn qos(limit: Option<u32>) -> AppQos {
        AppQos::new(
            UtilizationBand::new(0.5, 0.66).unwrap(),
            Some(DegradationSpec::new(0.03, 0.9, limit).unwrap()),
        )
    }

    fn trace(samples: Vec<f64>) -> Trace {
        Trace::from_samples(cal(), samples).unwrap()
    }

    #[test]
    fn utilization_of_allocation_ignores_residue_grants() {
        assert_eq!(utilization_of_allocation(1.0, 4.0), 0.25);
        // Served demand never counts beyond the grant.
        assert_eq!(utilization_of_allocation(5.0, 4.0), 1.0);
        assert_eq!(utilization_of_allocation(1e-10, 2e-10), 0.0);
        assert_eq!(utilization_of_allocation(0.0, 0.0), 0.0);
    }

    #[test]
    fn compliant_run_passes() {
        let u = trace(vec![0.5, 0.6, 0.55, 0.66, 0.4, 0.0]);
        let a = audit(&u, &qos(Some(30)));
        assert!(a.is_compliant(), "{:?}", a.violations);
        assert_eq!(a.degraded_fraction, 0.0);
    }

    #[test]
    fn occasional_degradation_within_allowance_passes() {
        let mut samples = vec![0.6; 100];
        samples[10] = 0.8; // one degraded slot = 1% < 3%
        let a = audit(&trace(samples), &qos(Some(30)));
        assert!(a.is_compliant());
        assert!((a.degraded_fraction - 0.01).abs() < 1e-12);
        assert_eq!(a.longest_degraded_minutes, 5);
    }

    #[test]
    fn too_many_degraded_slots_flagged() {
        let mut samples = vec![0.6; 100];
        for s in samples.iter_mut().take(10) {
            *s = 0.8;
        }
        let a = audit(&trace(samples), &qos(None));
        assert!(!a.is_compliant());
        assert!(matches!(
            a.violations[0],
            SloViolation::DegradedFractionExceeded { .. }
        ));
    }

    #[test]
    fn utilization_above_u_degr_flagged() {
        let mut samples = vec![0.6; 100];
        samples[3] = 0.95;
        let a = audit(&trace(samples), &qos(None));
        assert!(a
            .violations
            .iter()
            .any(|v| matches!(v, SloViolation::UtilizationAboveDegraded { .. })));
    }

    #[test]
    fn long_degraded_run_flagged_only_with_time_limit() {
        // 7 slots = 35 minutes of degradation (2.33% of 300 slots, within
        // the 3% fraction allowance).
        let mut samples = vec![0.6; 300];
        for s in samples.iter_mut().skip(50).take(7) {
            *s = 0.8;
        }
        let unlimited = audit(&trace(samples.clone()), &qos(None));
        assert!(unlimited.is_compliant(), "{:?}", unlimited.violations);
        let limited = audit(&trace(samples), &qos(Some(30)));
        assert!(!limited.is_compliant());
        assert!(matches!(
            limited.violations[0],
            SloViolation::DegradedRunTooLong {
                measured_minutes: 35,
                limit_minutes: 30
            }
        ));
    }

    #[test]
    fn epoch_budget_violation_flagged() {
        use ropus_qos::DegradationSpec;
        // Three separated degraded epochs, each a single slot (well within
        // the 3% fraction and any time limit), against a budget of two.
        let mut samples = vec![0.6; 300];
        samples[10] = 0.8;
        samples[100] = 0.8;
        samples[200] = 0.8;
        let spec = DegradationSpec::new(0.03, 0.9, None)
            .unwrap()
            .with_epoch_budget(2)
            .unwrap();
        let qos = AppQos::new(UtilizationBand::new(0.5, 0.66).unwrap(), Some(spec));
        let a = audit(&trace(samples.clone()), &qos);
        assert_eq!(a.max_epochs_per_week, 3);
        assert!(a.violations.iter().any(|v| matches!(
            v,
            SloViolation::TooManyDegradedEpochs {
                measured: 3,
                allowed: 2
            }
        )));
        // Under budget passes.
        let spec = DegradationSpec::new(0.03, 0.9, None)
            .unwrap()
            .with_epoch_budget(3)
            .unwrap();
        let qos = AppQos::new(UtilizationBand::new(0.5, 0.66).unwrap(), Some(spec));
        assert!(audit(&trace(samples), &qos).is_compliant());
    }

    #[test]
    fn strict_qos_flags_any_exceedance() {
        let strict = AppQos::strict(UtilizationBand::new(0.5, 0.66).unwrap());
        let a = audit(&trace(vec![0.5, 0.7]), &strict);
        assert!(!a.is_compliant());
        let ok = audit(&trace(vec![0.5, 0.6]), &strict);
        assert!(ok.is_compliant());
    }

    #[test]
    fn slo_contract_converts_qos_terms_into_slot_time() {
        let c = slo_contract("app", &qos(Some(30)), 5);
        assert_eq!(c.app, "app");
        assert_eq!(c.u_high, 0.66);
        assert_eq!(c.u_degr, 0.9);
        assert_eq!(c.allowance, 0.03);
        assert_eq!(c.t_degr_slots, Some(6));

        let strict = AppQos::strict(UtilizationBand::new(0.5, 0.66).unwrap());
        let c = slo_contract("s", &strict, 5);
        assert_eq!(c.u_degr, 0.66);
        assert_eq!(c.allowance, 0.0);
        assert_eq!(c.t_degr_slots, None);
    }

    #[test]
    fn streamed_attainment_agrees_with_the_audit_on_degraded_slots() {
        use ropus_obs::{BurnRateRule, SloEngine};

        let mut samples = vec![0.6; 100];
        for s in samples.iter_mut().skip(40).take(7) {
            *s = 0.8;
        }
        let u = trace(samples);
        let qos = qos(Some(30));
        let audited = audit(&u, &qos);

        let mut engine = SloEngine::new(BurnRateRule::default_rules());
        let app = engine.register(slo_contract("app", &qos, 5));
        for (t, &v) in u.samples().iter().enumerate() {
            engine.observe(app, t, v, ropus_obs::ObsCtx::none());
        }
        let attainment = &engine.attainment()[0];
        assert_eq!(attainment.samples, 100);
        assert_eq!(
            attainment.degraded_slots as f64 / attainment.samples as f64,
            audited.degraded_fraction
        );
        assert_eq!(attainment.longest_degraded_run_slots, 7);
        assert!(
            attainment.t_degr_exceeded,
            "35 min run over the 30 min limit"
        );
        assert!(!attainment.is_attained());
    }
}
