//! The per-workload allocation control loop.
//!
//! A workload manager "monitors its workload demands and dynamically
//! adjusts the allocation of capacity, aiming to provide each with access
//! only to the capacity it needs" (§II). Each interval it sets
//!
//! `allocation = burst factor × estimated demand`
//!
//! clamped to `[min_allocation, max_allocation]`, and splits the request
//! across the two allocation priorities at the CoS1 cap that the QoS
//! translation chose (`p · D_new_max × burst factor`).

use serde::{Deserialize, Serialize};

use ropus_qos::translation::TranslationReport;
use ropus_qos::AppQos;

/// An allocation request split across the two priorities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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
    /// Burst factor applied to estimated demand (`1/U_low`).
    pub burst_factor: f64,
    /// Cap on the CoS1 share of the allocation (allocation units).
    pub cos1_cap: f64,
    /// Cap on the total allocation (allocation units);
    /// `D_new_max × burst factor`.
    pub total_cap: f64,
    /// Floor on the total allocation (allocation units).
    pub min_allocation: f64,
    /// EWMA weight on the newest demand observation, in `(0, 1]`;
    /// 1 reproduces the paper's "previous interval" rule exactly.
    pub smoothing: f64,
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
            min_allocation: 0.0,
            smoothing: 1.0,
        }
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

/// The runtime state of one workload's manager.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadManager {
    policy: WlmPolicy,
    demand_estimate: f64,
}

impl WorkloadManager {
    /// Creates a manager with a zero initial demand estimate.
    pub fn new(policy: WlmPolicy) -> Self {
        WorkloadManager {
            policy,
            demand_estimate: 0.0,
        }
    }

    /// The manager's policy.
    pub fn policy(&self) -> WlmPolicy {
        self.policy
    }

    /// The current (smoothed) demand estimate.
    pub fn demand_estimate(&self) -> f64 {
        self.demand_estimate
    }

    /// Feeds the demand measured over the last interval and returns the
    /// allocation request for the next interval.
    ///
    /// This is the paper's control rule: "a workload resource allocation is
    /// determined periodically by the product of some real value (the burst
    /// factor) and its recent demand."
    pub fn observe(&mut self, measured_demand: f64) -> AllocationRequest {
        let alpha = self.policy.smoothing.clamp(0.0, 1.0);
        self.demand_estimate = alpha * measured_demand + (1.0 - alpha) * self.demand_estimate;
        let allocation = (self.policy.burst_factor * self.demand_estimate)
            .clamp(self.policy.min_allocation, self.policy.total_cap);
        self.policy.split(allocation)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> WlmPolicy {
        WlmPolicy {
            burst_factor: 2.0,
            cos1_cap: 3.0,
            total_cap: 10.0,
            min_allocation: 0.5,
            smoothing: 1.0,
        }
    }

    #[test]
    fn allocation_is_burst_factor_times_demand() {
        let mut wm = WorkloadManager::new(policy());
        let req = wm.observe(2.0);
        assert_eq!(req.total(), 4.0);
        assert_eq!(req.cos1, 3.0);
        assert_eq!(req.cos2, 1.0);
    }

    #[test]
    fn allocation_clamps_to_caps() {
        let mut wm = WorkloadManager::new(policy());
        let req = wm.observe(100.0);
        assert_eq!(req.total(), 10.0);
        let req = wm.observe(0.0);
        assert_eq!(req.total(), 0.5, "floor applies");
    }

    #[test]
    fn allocation_tracks_demand_up_and_down() {
        let mut wm = WorkloadManager::new(policy());
        let up = wm.observe(3.0).total();
        let down = wm.observe(1.0).total();
        assert!(up > down);
        assert_eq!(down, 2.0);
    }

    #[test]
    fn smoothing_damps_the_response() {
        let mut fast = WorkloadManager::new(policy());
        let mut slow = WorkloadManager::new(WlmPolicy {
            smoothing: 0.3,
            ..policy()
        });
        fast.observe(1.0);
        slow.observe(1.0);
        let f = fast.observe(4.0).total();
        let s = slow.observe(4.0).total();
        assert!(s < f, "smoothed manager reacts more slowly: {s} vs {f}");
        assert!(slow.demand_estimate() < 4.0 && slow.demand_estimate() > 1.0);
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
}
