//! The portfolio method for dividing demand across two classes of service
//! (§V of the paper).
//!
//! Demand below `p · D_new_max` is "invested" in the guaranteed CoS1;
//! the remainder rides the statistical CoS2 whose access probability `θ`
//! quantifies the risk. The breakpoint `p` is chosen so that even when
//! CoS2 delivers exactly its committed probability, the application's
//! utilization of allocation stays at or below `U_high`.

use crate::{CosSpec, UtilizationBand};

/// The breakpoint `p` of formula (1):
///
/// `p = (U_low/U_high − θ) / (1 − θ)`, clamped to 0 when
/// `U_low/U_high <= θ` (all demand may ride CoS2).
///
/// At `θ = 1` CoS2 is as good as guaranteed and `p = 0`.
///
/// # Example
///
/// ```
/// use ropus_qos::portfolio::breakpoint;
/// use ropus_qos::{CosSpec, UtilizationBand};
///
/// let band = UtilizationBand::new(0.5, 0.66)?;
/// let p = breakpoint(band, &CosSpec::new(0.6, 60)?);
/// assert!((p - 0.3939).abs() < 1e-3);
/// assert_eq!(breakpoint(band, &CosSpec::new(0.95, 60)?), 0.0);
/// # Ok::<(), ropus_qos::QosError>(())
/// ```
pub fn breakpoint(band: UtilizationBand, cos2: &CosSpec) -> f64 {
    let ratio = band.ratio();
    let theta = cos2.theta();
    if ratio <= theta {
        return 0.0;
    }
    // ratio > theta implies theta < 1, so the division is safe.
    ((ratio - theta) / (1.0 - theta)).clamp(0.0, 1.0)
}

/// How one observation's demand is divided across the two classes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DemandSplit {
    /// Demand satisfied by the guaranteed class.
    pub cos1: f64,
    /// Demand satisfied by the statistical class.
    pub cos2: f64,
}

impl DemandSplit {
    /// Total demand retained after the `D_new_max` cap.
    pub fn total(&self) -> f64 {
        self.cos1 + self.cos2
    }
}

/// Splits one demand observation across the classes (§V step 1):
/// demand up to `p · d_new_max` goes to CoS1; the rest — capped at
/// `d_new_max` — goes to CoS2.
///
/// # Panics
///
/// Panics (debug assertions) on negative inputs or `p` outside `[0, 1]`.
pub fn split_demand(demand: f64, p: f64, d_new_max: f64) -> DemandSplit {
    debug_assert!(demand >= 0.0 && d_new_max >= 0.0 && (0.0..=1.0).contains(&p));
    let capped = demand.min(d_new_max);
    let cos1 = capped.min(p * d_new_max);
    DemandSplit {
        cos1,
        cos2: capped - cos1,
    }
}

/// Worst-case *delivered* allocation for a demand observation: CoS1 in
/// full, CoS2 at exactly its committed probability `θ`, both scaled by the
/// burst factor `1/U_low`.
pub fn worst_case_allocation(
    demand: f64,
    band: UtilizationBand,
    cos2: &CosSpec,
    d_new_max: f64,
) -> f64 {
    let p = breakpoint(band, cos2);
    let split = split_demand(demand, p, d_new_max);
    (split.cos1 + cos2.theta() * split.cos2) * band.burst_factor()
}

/// Worst-case utilization of allocation for a demand observation.
///
/// For demand at the cap this equals `U_high` exactly (that is the
/// breakpoint's defining property); above the cap it grows linearly until
/// `U_degr` at the translated `D_max`.
pub fn worst_case_utilization(
    demand: f64,
    band: UtilizationBand,
    cos2: &CosSpec,
    d_new_max: f64,
) -> f64 {
    if crate::units::is_zero(demand) {
        return 0.0;
    }
    let allocation = worst_case_allocation(demand, band, cos2, d_new_max);
    if crate::units::is_zero(allocation) {
        // Degenerate: a zero cap with positive demand; utilization is
        // unboundedly bad, report +inf so callers detect it.
        return f64::INFINITY;
    }
    demand / allocation
}

/// The demand threshold above which an observation is *degraded* — i.e.
/// its worst-case utilization strictly exceeds `U_high`:
///
/// `threshold = D_new_max · U_high · (p + (1 − p)·θ) / U_low`.
///
/// With the formula-(1) breakpoint and `p > 0`, this is exactly
/// `D_new_max`; with `p = 0` (i.e. `θ >= U_low/U_high`) the slack in CoS2's
/// probability pushes the threshold above the cap, which is why Fig. 8
/// reports fewer degraded measurements for higher `θ`.
pub fn degraded_threshold(band: UtilizationBand, cos2: &CosSpec, d_new_max: f64) -> f64 {
    if band.ratio() > cos2.theta() {
        // p > 0: substituting formula (1) gives p + (1−p)θ = U_low/U_high
        // exactly, so the threshold is the cap itself. Using the algebraic
        // identity avoids a rounding wobble that could count observations
        // sitting exactly at the cap as degraded.
        return d_new_max;
    }
    // p = 0: the multiplier θ·U_high/U_low is algebraically >= 1 here;
    // clamp to protect the boundary case θ == U_low/U_high from rounding.
    d_new_max * (band.high() * cos2.theta() / band.low()).max(1.0)
}

/// Inverse of [`degraded_threshold`]: a demand cap whose degraded
/// threshold is at least `threshold`, so that a demand of `threshold` is
/// not degraded under it.
///
/// Used by the trace analyses that must make a specific demand value
/// non-degraded (the `T_degr` window breaking and the epoch-budget
/// enforcement): setting the cap to `cap_for_degraded_threshold(t)` puts a
/// demand of exactly `t` at worst-case utilization `U_high`.
///
/// With `p > 0` the threshold is the cap itself. With `p = 0` it is
/// `cap · k`, `k = θ·U_high/U_low`, and `(t / k) · k` can round below
/// `t`; the cap then steps up by ulps to the smallest one whose
/// threshold reaches `t`. Where `t / k` already reaches it, `t / k` is
/// returned as is (it can sit an ulp above the smallest such cap), so
/// every analysis that converged with the plain quotient keeps its bits.
pub fn cap_for_degraded_threshold(band: UtilizationBand, cos2: &CosSpec, threshold: f64) -> f64 {
    if band.ratio() > cos2.theta() {
        return threshold;
    }
    let reaches = |cap: f64| degraded_threshold(band, cos2, cap) >= threshold;
    let quotient = threshold / (band.high() * cos2.theta() / band.low()).max(1.0);
    if reaches(quotient) {
        quotient
    } else {
        crate::units::least_passing(quotient, reaches)
    }
}

/// Normalized maximum allocation as a function of `θ` (the Fig. 3 trend):
/// the factor `U_low / (U_high · (p(1−θ) + θ))` of formula (10) with the
/// breaking demand fixed at 1.
///
/// Ratios of this value across different `θ` approximate the ratios in
/// per-application `D_new_max` under time-limited degradation.
pub fn normalized_max_allocation(band: UtilizationBand, cos2: &CosSpec) -> f64 {
    let p = breakpoint(band, cos2);
    let theta = cos2.theta();
    band.low() / (band.high() * (p * (1.0 - theta) + theta))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn band() -> UtilizationBand {
        UtilizationBand::new(0.5, 0.66).unwrap()
    }

    fn cos(theta: f64) -> CosSpec {
        CosSpec::new(theta, 60).unwrap()
    }

    #[test]
    fn breakpoint_matches_formula_one() {
        // ratio = 0.7575...; theta = 0.6 -> p = (0.757575 - 0.6) / 0.4.
        let p = breakpoint(band(), &cos(0.6));
        assert!((p - 0.39393939).abs() < 1e-6);
    }

    #[test]
    fn breakpoint_is_zero_when_theta_covers_ratio() {
        assert_eq!(breakpoint(band(), &cos(0.76)), 0.0);
        assert_eq!(breakpoint(band(), &cos(0.95)), 0.0);
        assert_eq!(breakpoint(band(), &cos(1.0)), 0.0);
    }

    #[test]
    fn breakpoint_approaches_one_as_theta_vanishes() {
        let p = breakpoint(band(), &cos(0.01));
        assert!(p > 0.75 && p < 0.76, "p = {p}");
    }

    #[test]
    fn breakpoint_monotone_decreasing_in_theta() {
        let mut last = f64::INFINITY;
        for theta in [0.1, 0.3, 0.5, 0.6, 0.7, 0.76, 0.9, 1.0] {
            let p = breakpoint(band(), &cos(theta));
            assert!(p <= last, "p({theta}) = {p} > {last}");
            last = p;
        }
    }

    #[test]
    fn split_respects_cap_and_breakpoint() {
        let p = 0.4;
        let cap = 10.0;
        // Below the CoS1 share: all guaranteed.
        assert_eq!(
            split_demand(3.0, p, cap),
            DemandSplit {
                cos1: 3.0,
                cos2: 0.0
            }
        );
        // Between breakpoint and cap: split.
        let s = split_demand(7.0, p, cap);
        assert_eq!(s.cos1, 4.0);
        assert_eq!(s.cos2, 3.0);
        assert_eq!(s.total(), 7.0);
        // Above the cap: capped.
        let s = split_demand(15.0, p, cap);
        assert_eq!(s.cos1, 4.0);
        assert_eq!(s.cos2, 6.0);
        assert_eq!(s.total(), cap);
    }

    #[test]
    fn utilization_at_cap_is_exactly_u_high() {
        for theta in [0.3, 0.6, 0.76, 0.9, 0.95] {
            let u = worst_case_utilization(10.0, band(), &cos(theta), 10.0);
            // With p > 0 the breakpoint is chosen to land exactly on U_high;
            // with p = 0 there is slack (theta above the ratio).
            assert!(u <= band().high() + 1e-9, "theta {theta}: u = {u}");
            if breakpoint(band(), &cos(theta)) > 0.0 {
                assert!((u - band().high()).abs() < 1e-9, "theta {theta}: u = {u}");
            }
        }
    }

    #[test]
    fn utilization_below_breakpoint_share_is_u_low() {
        let theta = 0.6;
        let p = breakpoint(band(), &cos(theta));
        let d = 0.5 * p * 10.0;
        let u = worst_case_utilization(d, band(), &cos(theta), 10.0);
        assert!((u - band().low()).abs() < 1e-9);
    }

    #[test]
    fn utilization_above_cap_grows_linearly() {
        let theta = 0.6;
        let cap = 10.0;
        let u1 = worst_case_utilization(cap, band(), &cos(theta), cap);
        let u2 = worst_case_utilization(1.2 * cap, band(), &cos(theta), cap);
        assert!((u2 / u1 - 1.2).abs() < 1e-9);
    }

    #[test]
    fn zero_demand_and_zero_cap_edges() {
        assert_eq!(worst_case_utilization(0.0, band(), &cos(0.6), 10.0), 0.0);
        assert_eq!(
            worst_case_utilization(5.0, band(), &cos(0.6), 0.0),
            f64::INFINITY
        );
    }

    #[test]
    fn degraded_threshold_is_cap_when_p_positive() {
        let t = degraded_threshold(band(), &cos(0.6), 10.0);
        assert!((t - 10.0).abs() < 1e-9, "threshold {t}");
    }

    #[test]
    fn degraded_threshold_exceeds_cap_when_p_zero() {
        let t = degraded_threshold(band(), &cos(0.95), 10.0);
        // theta(0.95) > ratio(0.7576): threshold = 10 * 0.66 * 0.95 / 0.5.
        assert!((t - 12.54).abs() < 1e-9, "threshold {t}");
        // Demands between the cap and the threshold are NOT degraded.
        let u = worst_case_utilization(11.0, band(), &cos(0.95), 10.0);
        assert!(u < band().high());
    }

    #[test]
    fn threshold_inverse_reaches_its_target_at_p_zero() {
        // At θ 0.95, `(x / k) · k < x` for about 6% of demands `x`; each of
        // them must still come back non-degraded, at the smallest cap that
        // does it, and every other `x` keeps the plain quotient.
        let spec = cos(0.95);
        let k = (band().high() * 0.95 / band().low()).max(1.0);
        let mut raised = 0;
        for i in 1..20_000 {
            let x = f64::from(i) * 0.000_731;
            let cap = cap_for_degraded_threshold(band(), &spec, x);
            assert!(degraded_threshold(band(), &spec, cap) >= x, "x {x}");
            if (x / k) * k >= x {
                assert_eq!(cap.to_bits(), (x / k).to_bits());
            } else {
                raised += 1;
                assert!(degraded_threshold(band(), &spec, cap.next_down()) < x);
            }
        }
        assert!(raised > 100, "only {raised} quotients fell short");
        // With p > 0 the inverse is the identity.
        assert_eq!(cap_for_degraded_threshold(band(), &cos(0.6), 4.2), 4.2);
    }

    #[test]
    fn normalized_max_allocation_decreases_with_theta() {
        // Fig. 3: higher theta -> smaller max allocation requirement.
        let mut last = f64::INFINITY;
        for theta in [0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 1.0] {
            let v = normalized_max_allocation(band(), &cos(theta));
            assert!(v <= last + 1e-12, "v({theta}) = {v} > {last}");
            last = v;
        }
        // Paper: theta = 0.95 needs ~20% less than theta = 0.6.
        let hi = normalized_max_allocation(band(), &cos(0.95));
        let lo = normalized_max_allocation(band(), &cos(0.6));
        let reduction = 1.0 - hi / lo;
        assert!((reduction - 0.20).abs() < 0.03, "reduction {reduction}");
    }
}
