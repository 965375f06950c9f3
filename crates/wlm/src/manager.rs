//! The per-workload allocation rule.
//!
//! A workload manager "monitors its workload demands and dynamically
//! adjusts the allocation of capacity, aiming to provide each with access
//! only to the capacity it needs" (§II). Each interval it sets
//!
//! `allocation = burst factor × demand measured over the last interval`
//!
//! clamped to `[0, max_allocation]`, and splits the request across the
//! two allocation priorities at the CoS1 cap that the QoS translation
//! chose (`p · D_new_max × burst factor`). The rule reads only the last
//! interval, so the manager keeps no state: [`WlmPolicy::request`] is a
//! pure function of the measured demand.

use serde::{Deserialize, Serialize};

use ropus_qos::translation::TranslationReport;
use ropus_qos::AppQos;

/// An allocation request split across the two priorities.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct AllocationRequest {
    /// Guaranteed-priority share.
    pub cos1: f64,
    /// Statistical-priority share.
    pub cos2: f64,
}

impl AllocationRequest {
    /// Total requested allocation.
    pub fn total(&self) -> f64 {
        self.cos1 + self.cos2
    }
}

/// Static policy of a workload's manager, derived from its QoS translation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WlmPolicy {
    /// Burst factor applied to measured demand (`1/U_low`).
    pub burst_factor: f64,
    /// Cap on the CoS1 share of the allocation (allocation units).
    pub cos1_cap: f64,
    /// Cap on the total allocation (allocation units);
    /// `D_new_max × burst factor`.
    pub total_cap: f64,
}

impl WlmPolicy {
    /// Builds the policy the QoS translation implies: burst factor
    /// `1/U_low`, CoS1 cap `p · D_new_max / U_low`, total cap
    /// `D_new_max / U_low`.
    pub fn from_translation(qos: &AppQos, report: &TranslationReport) -> Self {
        let burst_factor = qos.band().burst_factor();
        WlmPolicy {
            burst_factor,
            cos1_cap: report.breakpoint * report.d_new_max * burst_factor,
            total_cap: report.d_new_max * burst_factor,
        }
    }

    /// The allocation request for the next interval, given the demand
    /// measured over the last one.
    ///
    /// This is the paper's control rule: "a workload resource allocation is
    /// determined periodically by the product of some real value (the burst
    /// factor) and its recent demand." Adding `0.0` maps a `-0.0` demand
    /// sample to `+0.0`, so requests never carry a negative zero.
    pub fn request(&self, measured_demand: f64) -> AllocationRequest {
        self.split((self.burst_factor * (measured_demand + 0.0)).clamp(0.0, self.total_cap))
    }

    /// Splits a total allocation across the priorities at the CoS1 cap.
    pub fn split(&self, allocation: f64) -> AllocationRequest {
        let cos1 = allocation.min(self.cos1_cap);
        AllocationRequest {
            cos1,
            cos2: allocation - cos1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn policy() -> WlmPolicy {
        WlmPolicy {
            burst_factor: 2.0,
            cos1_cap: 3.0,
            total_cap: 10.0,
        }
    }

    /// The stateful manager `request` replaced, kept as the oracle: an
    /// EWMA demand estimate (weight `smoothing` on the newest sample)
    /// times the burst factor, clamped to `[min_allocation, total_cap]`.
    /// Every policy the framework builds ran it with `smoothing = 1` and
    /// `min_allocation = 0`.
    struct StatefulManager {
        policy: WlmPolicy,
        smoothing: f64,
        min_allocation: f64,
        demand_estimate: f64,
    }

    impl StatefulManager {
        fn new(policy: WlmPolicy) -> Self {
            StatefulManager {
                policy,
                smoothing: 1.0,
                min_allocation: 0.0,
                demand_estimate: 0.0,
            }
        }

        fn observe(&mut self, measured_demand: f64) -> AllocationRequest {
            let alpha = self.smoothing.clamp(0.0, 1.0);
            self.demand_estimate = alpha * measured_demand + (1.0 - alpha) * self.demand_estimate;
            let allocation = (self.policy.burst_factor * self.demand_estimate)
                .clamp(self.min_allocation, self.policy.total_cap);
            self.policy.split(allocation)
        }
    }

    #[test]
    fn allocation_is_burst_factor_times_demand() {
        let req = policy().request(2.0);
        assert_eq!(req.total(), 4.0);
        assert_eq!(req.cos1, 3.0);
        assert_eq!(req.cos2, 1.0);
    }

    #[test]
    fn allocation_clamps_to_caps() {
        assert_eq!(policy().request(100.0).total(), 10.0);
        let idle = policy().request(0.0);
        assert_eq!((idle.cos1, idle.cos2), (0.0, 0.0));
    }

    #[test]
    fn allocation_tracks_demand_up_and_down() {
        let up = policy().request(3.0).total();
        let down = policy().request(1.0).total();
        assert!(up > down);
        assert_eq!(down, 2.0);
    }

    #[test]
    fn negative_zero_demand_requests_positive_zero() {
        let req = policy().request(-0.0);
        assert_eq!(req.cos1.to_bits(), 0.0f64.to_bits());
        assert_eq!(req.cos2.to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn split_respects_cos1_cap() {
        let p = policy();
        let below = p.split(2.0);
        assert_eq!(below.cos1, 2.0);
        assert_eq!(below.cos2, 0.0);
        let above = p.split(8.0);
        assert_eq!(above.cos1, 3.0);
        assert_eq!(above.cos2, 5.0);
    }

    #[test]
    fn from_translation_matches_report() {
        use ropus_obs::ObsCtx;
        use ropus_qos::translation::translate;
        use ropus_qos::CosSpec;
        use ropus_trace::{Calendar, Trace};
        let cal = Calendar::five_minute();
        let demand = Trace::constant(cal, 2.0, cal.slots_per_week()).unwrap();
        let qos = AppQos::paper_default(None);
        let t = translate(
            &demand,
            &qos,
            &CosSpec::new(0.6, 60).unwrap(),
            ObsCtx::none(),
        )
        .unwrap();
        let policy = WlmPolicy::from_translation(&qos, &t.report);
        assert_eq!(policy.burst_factor, 2.0);
        assert!((policy.total_cap - t.report.d_new_max * 2.0).abs() < 1e-12);
        assert!(policy.cos1_cap <= policy.total_cap);
        // The policy's CoS1 cap equals the translation's peak CoS1 trace.
        assert!((policy.cos1_cap - t.cos1().peak()).abs() < 1e-9);
    }

    /// A valid trace sample: finite and not below zero, so `-0.0`,
    /// subnormals and values far past either cap all qualify.
    fn sample() -> impl Strategy<Value = f64> {
        (0u64..7, 0.0f64..1.0, 1u64..(1 << 52)).prop_map(|(kind, x, bits)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f64::MIN_POSITIVE,
            3 => f64::from_bits(bits),
            4 => 4.0 * x,
            5 => 1e6 * x,
            _ => f64::MAX * x,
        })
    }

    /// A cap: zero, the smallest subnormal, or anything up to 20.
    fn cap() -> impl Strategy<Value = f64> {
        (0u64..4, 0.0f64..20.0).prop_map(|(kind, x)| match kind {
            0 => 0.0,
            1 => f64::from_bits(1),
            _ => x,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `request` equals the stateful manager bit for bit on every
        /// sequence, including managers restarted mid-sequence (segment
        /// boundaries and residency windows used to start fresh ones).
        #[test]
        fn request_matches_the_stateful_manager_bit_for_bit(
            burst_factor in 1.0f64..4.0,
            cos1_cap in cap(),
            total_cap in cap(),
            demands in proptest::collection::vec(sample(), 1..64),
            restarts in proptest::collection::vec(0usize..64, 0..4),
        ) {
            let policy = WlmPolicy { burst_factor, cos1_cap, total_cap };
            let mut manager = StatefulManager::new(policy);
            for (slot, &d) in demands.iter().enumerate() {
                if restarts.contains(&slot) {
                    manager = StatefulManager::new(policy);
                }
                let (want, got) = (manager.observe(d), policy.request(d));
                prop_assert_eq!(want.cos1.to_bits(), got.cos1.to_bits(), "slot {} demand {:e}", slot, d);
                prop_assert_eq!(want.cos2.to_bits(), got.cos2.to_bits(), "slot {} demand {:e}", slot, d);
            }
        }
    }
}
