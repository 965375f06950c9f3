//! The two-priority host scheduler.
//!
//! "Demands associated with the higher priority are allocated capacity
//! first; they correspond to the higher CoS. Any remaining capacity is then
//! allocated to satisfy lower priority demands" (§II). The host replays
//! each workload's demand trace through its manager, grants CoS1 requests
//! first (scaled proportionally in the pathological case where even they
//! exceed capacity), then shares the remaining capacity across CoS2
//! requests proportionally to their size.

use ropus_obs::ObsCtx;
use serde::{Deserialize, Serialize};

use ropus_trace::{kernels, Trace, TraceError};

use crate::error::WlmError;
use crate::manager::{WlmPolicy, WorkloadManager};
use crate::metrics::utilization_of_allocation;

/// Bucket bounds of the `wlm.host.saturation` histogram: per-slot granted
/// capacity as a fraction of the host's limit.
const SATURATION_BOUNDS: [f64; 5] = [0.25, 0.5, 0.75, 0.9, 1.0];

/// A workload co-located on the host: demand trace plus manager policy.
#[derive(Debug, Clone, PartialEq)]
pub struct HostedWorkload {
    name: String,
    demand: Trace,
    policy: WlmPolicy,
    /// Active slot window `[start, end)`: the workload requests nothing
    /// outside it, and its manager starts fresh at `start`. `None` =
    /// active over the whole trace.
    active: Option<(usize, usize)>,
}

impl HostedWorkload {
    /// Creates a hosted workload, active over its whole trace.
    pub fn new(name: impl Into<String>, demand: Trace, policy: WlmPolicy) -> Self {
        HostedWorkload {
            name: name.into(),
            demand,
            policy,
            active: None,
        }
    }

    /// Restricts the workload to the slot window `[start, end)` — the
    /// residency window of a workload that migrated onto or off the
    /// host mid-trace. Outside the window it requests (and is granted)
    /// nothing; its manager's smoothing state starts fresh at `start`.
    pub fn with_window(mut self, start: usize, end: usize) -> Self {
        self.active = Some((start, end.max(start)));
        self
    }

    /// Workload name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The demand trace driving the simulation.
    pub fn demand(&self) -> &Trace {
        &self.demand
    }

    /// The active slot window, when restricted.
    pub fn window(&self) -> Option<(usize, usize)> {
        self.active
    }

    /// Replays this workload's manager into per-slot CoS request
    /// columns of length `len`, honoring the active window.
    fn request_columns(&self, len: usize) -> (Vec<f64>, Vec<f64>) {
        let (start, end) = self
            .active
            .map_or((0, len), |(s, e)| (s.min(len), e.min(len)));
        let mut c1 = vec![0.0; len];
        let mut c2 = vec![0.0; len];
        let mut manager = WorkloadManager::new(self.policy);
        let demand = self.demand.samples();
        for slot in start..end {
            // lint:allow(panic-slice-index): start/end clamped to len,
            // and demand length was validated against len by the host.
            let request = manager.observe(demand[slot]);
            c1[slot] = request.cos1;
            c2[slot] = request.cos2;
        }
        (c1, c2)
    }
}

/// Per-workload simulation outputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadOutcome {
    /// Workload name.
    pub name: String,
    /// Capacity granted per slot (CoS1 + CoS2 grants).
    pub granted: Trace,
    /// Demand actually served per slot (`min(demand, grant)`).
    pub served: Trace,
    /// Demand that found no capacity, per slot.
    pub unmet: Trace,
    /// Measured utilization of allocation per slot
    /// ([`utilization_of_allocation`]: `served / granted`, 0 where
    /// nothing beyond float residue was granted).
    pub utilization: Trace,
}

/// Whole-host simulation outputs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HostOutcome {
    /// Per-workload outcomes, in input order.
    pub workloads: Vec<WorkloadOutcome>,
    /// Total capacity granted per slot across workloads.
    pub total_granted: Trace,
    /// Slots where CoS2 requests were not fully granted.
    pub contended_slots: usize,
}

/// A host with a fixed capacity running the two-priority scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Host {
    capacity: f64,
}

impl Host {
    /// Creates a host.
    ///
    /// # Errors
    ///
    /// Returns [`WlmError::InvalidCapacity`] if `capacity` is not positive
    /// and finite — a zero-capacity host would replay every workload into
    /// NaN utilizations instead of failing loudly.
    pub fn new(capacity: f64) -> Result<Self, WlmError> {
        if !capacity.is_finite() || capacity <= 0.0 {
            return Err(WlmError::InvalidCapacity { capacity });
        }
        Ok(Host { capacity })
    }

    /// The host's capacity limit.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Replays the workloads' demand traces through their managers and the
    /// two-priority scheduler.
    ///
    /// The manager reacts to the demand measured in the *current* slot —
    /// the paper's 5-minute control interval collapses to trace
    /// granularity. Unserved demand is dropped (interactive work is lost,
    /// not queued); carry-over behaviour is the placement simulator's
    /// concern, not the host scheduler's.
    ///
    /// When `obs` carries an enabled handle, every slot's granted total
    /// lands in the `wlm.host.saturation` histogram (as a fraction of the
    /// capacity limit), and outcomes the result traces cannot express —
    /// slots where the CoS1 *guarantee* itself was scaled down, and slots
    /// where some demand went unmet — are counted instead of dropped
    /// (`wlm.host.cos1_scaled_slots`, `wlm.host.unmet_slots`).
    ///
    /// Metric updates are commutative counters/histograms only, so hosts
    /// may be replayed from parallel workers without breaking snapshot
    /// determinism.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Misaligned`] (wrapped in
    /// [`WlmError::Trace`]) when demand traces differ in length, or
    /// [`TraceError::Empty`] when no workloads are given.
    pub fn run(
        &self,
        workloads: &[HostedWorkload],
        obs: ObsCtx<'_>,
    ) -> Result<HostOutcome, WlmError> {
        self.run_with_reservations(workloads, &[], obs)
    }

    /// [`run`](Self::run), with migration reservations double-booked on
    /// the host.
    ///
    /// Each reservation's manager requests are added to the per-slot CoS
    /// sums — squeezing the scales exactly as a member would, which is
    /// how the drain phase of a migration serves the same demand on both
    /// ends — but reservations receive no grants of their own and
    /// produce no [`WorkloadOutcome`]; `total_granted` covers members
    /// only. With an empty reservation list this is exactly
    /// [`run`](Self::run).
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run); reservation traces must align with the
    /// members' too.
    pub fn run_with_reservations(
        &self,
        workloads: &[HostedWorkload],
        reservations: &[HostedWorkload],
        obs: ObsCtx<'_>,
    ) -> Result<HostOutcome, WlmError> {
        let first = workloads.first().ok_or(TraceError::Empty)?;
        let len = first.demand.len();
        let calendar = first.demand.calendar();
        for w in workloads.iter().chain(reservations) {
            if w.demand.len() != len {
                return Err(WlmError::Trace(TraceError::Misaligned {
                    left: len,
                    right: w.demand.len(),
                }));
            }
        }

        let n = workloads.len();

        // Pass 1, workload-major: replay each manager over its whole
        // demand column. Manager state is per-workload, so running columns
        // to completion produces the same requests as the old interleaved
        // slot loop while keeping each manager's state in registers.
        let mut cos1_req: Vec<Vec<f64>> = Vec::with_capacity(n);
        let mut cos2_req: Vec<Vec<f64>> = Vec::with_capacity(n);
        for w in workloads {
            let (c1, c2) = w.request_columns(len);
            cos1_req.push(c1);
            cos2_req.push(c2);
        }

        // Pass 2, columnar: slot-wise request sums accumulated per
        // workload in input order — the same left-to-right association as
        // the per-slot `iter().sum()` this replaces, so the sums are
        // bit-identical. Reservations are summed after the members, in
        // input order, so a reservation-free call never re-associates.
        let mut cos1_sum = vec![0.0; len];
        for column in &cos1_req {
            kernels::add_assign(&mut cos1_sum, column);
        }
        let mut cos2_sum = vec![0.0; len];
        for column in &cos2_req {
            kernels::add_assign(&mut cos2_sum, column);
        }
        for r in reservations {
            let (c1, c2) = r.request_columns(len);
            kernels::add_assign(&mut cos1_sum, &c1);
            kernels::add_assign(&mut cos2_sum, &c2);
        }

        // Pass 3, slot-major: the two-priority scales. CoS1 is granted in
        // full (scaled down proportionally only if the guarantee was
        // violated upstream); CoS2 shares what remains proportionally.
        let mut cos1_scale = vec![1.0; len];
        let mut cos2_scale = vec![1.0; len];
        let mut contended_slots = 0usize;
        for (((&c1, &c2), s1), s2) in cos1_sum
            .iter()
            .zip(&cos2_sum)
            .zip(cos1_scale.iter_mut())
            .zip(cos2_scale.iter_mut())
        {
            if c1 > self.capacity {
                *s1 = self.capacity / c1;
            }
            let remaining = (self.capacity - c1 * *s1).max(0.0);
            if c2 > remaining && c2 > 0.0 {
                *s2 = remaining / c2;
            }
            if *s2 < 1.0 || *s1 < 1.0 {
                contended_slots += 1;
            }
            if *s1 < 1.0 {
                obs.counter("wlm.host.cos1_scaled_slots", 1);
            }
        }

        // Pass 4, workload-major elementwise: grants and outcomes per
        // column, reusing the request buffers; host-level sums accumulate
        // per workload in input order (same association as before).
        let mut total_granted = vec![0.0; len];
        let mut slot_unmet = vec![0.0; len];
        let mut outcomes = Vec::with_capacity(n);
        for ((w, c1), c2) in workloads.iter().zip(cos1_req).zip(cos2_req) {
            let demand = w.demand.samples();
            let mut granted = c1;
            for ((g, &c2v), (&s1, &s2)) in granted
                .iter_mut()
                .zip(&c2)
                .zip(cos1_scale.iter().zip(&cos2_scale))
            {
                *g = *g * s1 + c2v * s2;
            }
            let mut served = c2;
            for ((s, &d), &g) in served.iter_mut().zip(demand).zip(&granted) {
                *s = d.min(g);
            }
            let mut unmet = Vec::with_capacity(len);
            let mut utilization = Vec::with_capacity(len);
            for ((&d, &g), &s) in demand.iter().zip(&granted).zip(&served) {
                unmet.push(d - s);
                utilization.push(utilization_of_allocation(s, g));
            }
            kernels::add_assign(&mut total_granted, &granted);
            kernels::add_assign(&mut slot_unmet, &unmet);
            // Hand the accumulated sample vectors to their traces; nothing
            // is copied — each Vec becomes the trace's shared buffer.
            outcomes.push(WorkloadOutcome {
                name: w.name.clone(),
                granted: Trace::from_samples(calendar, granted)?,
                served: Trace::from_samples(calendar, served)?,
                unmet: Trace::from_samples(calendar, unmet)?,
                utilization: Trace::from_samples(calendar, utilization)?,
            });
        }

        // Pass 5, slot-major: host-level observability, in slot order.
        // Counter and histogram updates are commutative, so splitting them
        // out of the scheduling loop cannot change a report.
        for (&total, &u) in total_granted.iter().zip(&slot_unmet) {
            if u > 0.0 {
                obs.counter("wlm.host.unmet_slots", 1);
            }
            obs.histogram(
                "wlm.host.saturation",
                &SATURATION_BOUNDS,
                total / self.capacity,
            );
        }

        Ok(HostOutcome {
            workloads: outcomes,
            total_granted: Trace::from_samples(calendar, total_granted)?,
            contended_slots,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropus_obs::Obs;
    use ropus_trace::Calendar;

    fn cal() -> Calendar {
        Calendar::five_minute()
    }

    fn policy(cos1_cap: f64, total_cap: f64) -> WlmPolicy {
        WlmPolicy {
            burst_factor: 2.0,
            cos1_cap,
            total_cap,
            min_allocation: 0.0,
            smoothing: 1.0,
        }
    }

    fn constant(name: &str, demand: f64, len: usize, p: WlmPolicy) -> HostedWorkload {
        HostedWorkload::new(name, Trace::constant(cal(), demand, len).unwrap(), p)
    }

    #[test]
    fn uncontended_host_grants_full_requests() {
        let host = Host::new(16.0).unwrap();
        let w = constant("a", 2.0, 50, policy(1.0, 100.0));
        let outcome = host.run(&[w], ObsCtx::none()).unwrap();
        let o = &outcome.workloads[0];
        // Request = 2 * 2 = 4, fully granted; demand 2 fully served.
        assert_eq!(o.granted.samples()[10], 4.0);
        assert_eq!(o.served.samples()[10], 2.0);
        assert_eq!(o.unmet.samples()[10], 0.0);
        assert_eq!(o.utilization.samples()[10], 0.5);
        assert_eq!(outcome.contended_slots, 0);
    }

    #[test]
    fn cos1_is_served_before_cos2() {
        let host = Host::new(10.0).unwrap();
        // Workload A: all CoS1 (cap above request). Workload B: all CoS2.
        let a = constant("a", 4.0, 20, policy(100.0, 100.0));
        let b = constant("b", 4.0, 20, policy(0.0, 100.0));
        let outcome = host.run(&[a, b], ObsCtx::none()).unwrap();
        // A requests 8 CoS1 -> granted in full; B requests 8 CoS2 but only
        // 2 remain.
        assert_eq!(outcome.workloads[0].granted.samples()[5], 8.0);
        assert_eq!(outcome.workloads[1].granted.samples()[5], 2.0);
        assert!(outcome.contended_slots > 0);
        // B's demand 4 only gets 2 served.
        assert_eq!(outcome.workloads[1].served.samples()[5], 2.0);
        assert_eq!(outcome.workloads[1].unmet.samples()[5], 2.0);
    }

    #[test]
    fn cos2_shares_remaining_capacity_proportionally() {
        let host = Host::new(12.0).unwrap();
        let a = constant("a", 4.0, 10, policy(0.0, 100.0)); // requests 8
        let b = constant("b", 2.0, 10, policy(0.0, 100.0)); // requests 4
        let outcome = host.run(&[a, b], ObsCtx::none()).unwrap();
        // 12 capacity over requests (8, 4): granted in full (sum == 12).
        assert_eq!(outcome.workloads[0].granted.samples()[0], 8.0);
        assert_eq!(outcome.workloads[1].granted.samples()[0], 4.0);

        let host = Host::new(6.0).unwrap();
        let a = constant("a", 4.0, 10, policy(0.0, 100.0));
        let b = constant("b", 2.0, 10, policy(0.0, 100.0));
        let outcome = host.run(&[a, b], ObsCtx::none()).unwrap();
        // Now only 6 for requests (8, 4): proportional scale 0.5.
        assert_eq!(outcome.workloads[0].granted.samples()[0], 4.0);
        assert_eq!(outcome.workloads[1].granted.samples()[0], 2.0);
    }

    #[test]
    fn pathological_cos1_overflow_scales_proportionally() {
        let host = Host::new(8.0).unwrap();
        let a = constant("a", 8.0, 5, policy(100.0, 100.0)); // 16 CoS1
        let outcome = host.run(&[a], ObsCtx::none()).unwrap();
        assert_eq!(outcome.workloads[0].granted.samples()[0], 8.0);
        assert!(outcome.contended_slots > 0);
    }

    #[test]
    fn total_granted_never_exceeds_capacity() {
        let host = Host::new(10.0).unwrap();
        let ws: Vec<HostedWorkload> = (0..5)
            .map(|i| constant(&format!("w{i}"), 3.0, 30, policy(1.0, 100.0)))
            .collect();
        let outcome = host.run(&ws, ObsCtx::none()).unwrap();
        for &g in outcome.total_granted.samples() {
            assert!(g <= 10.0 + 1e-9, "granted {g}");
        }
    }

    #[test]
    fn observed_run_counts_drops_and_fills_saturation_histogram() {
        let obs = Obs::deterministic();
        let host = Host::new(10.0).unwrap();
        // A saturates CoS1 in full; B's CoS2 request is cut to 2 of 8,
        // leaving 2 of its 4 demand unmet every slot.
        let a = constant("a", 4.0, 20, policy(100.0, 100.0));
        let b = constant("b", 4.0, 20, policy(0.0, 100.0));
        let outcome = host.run(&[a, b], ObsCtx::from(&obs)).unwrap();
        assert!(outcome.contended_slots > 0);
        let report = obs.report();
        assert_eq!(report.counter("wlm.host.unmet_slots"), 20);
        assert_eq!(report.counter("wlm.host.cos1_scaled_slots"), 0);
        let hist = report.histogram("wlm.host.saturation").unwrap();
        assert_eq!(hist.total, 20);
        // Every slot grants the full 10.0: saturation 1.0, the last
        // bounded bucket.
        assert_eq!(hist.counts, vec![0, 0, 0, 0, 20, 0]);

        // The pathological CoS1 overflow counts as a scaled slot.
        let scaled = Obs::deterministic();
        let c = constant("c", 8.0, 5, policy(100.0, 100.0));
        host.run(&[c], ObsCtx::from(&scaled)).unwrap();
        assert_eq!(scaled.report().counter("wlm.host.cos1_scaled_slots"), 5);
    }

    #[test]
    fn windowed_member_requests_nothing_outside_its_residency() {
        let host = Host::new(16.0).unwrap();
        let w = constant("a", 2.0, 10, policy(1.0, 100.0)).with_window(3, 7);
        let outcome = host.run(&[w], ObsCtx::none()).unwrap();
        let o = &outcome.workloads[0];
        for slot in 0..10 {
            let g = o.granted.samples()[slot];
            if (3..7).contains(&slot) {
                assert!(g > 0.0, "slot {slot} inside the window grants");
            } else {
                assert_eq!(g, 0.0, "slot {slot} outside the window");
                assert_eq!(o.utilization.samples()[slot], 0.0);
            }
        }
    }

    #[test]
    fn empty_reservations_are_exactly_run() {
        let host = Host::new(10.0).unwrap();
        let ws = vec![
            constant("a", 4.0, 20, policy(100.0, 100.0)),
            constant("b", 4.0, 20, policy(0.0, 100.0)),
        ];
        let plain = host.run(&ws, ObsCtx::none()).unwrap();
        let with = host
            .run_with_reservations(&ws, &[], ObsCtx::none())
            .unwrap();
        assert_eq!(plain, with);
    }

    #[test]
    fn reservations_squeeze_grants_without_outcomes() {
        let host = Host::new(6.0).unwrap();
        let a = constant("a", 4.0, 10, policy(0.0, 100.0)); // requests 8
        let r = constant("mig", 2.0, 10, policy(0.0, 100.0)); // requests 4
        let outcome = host
            .run_with_reservations(std::slice::from_ref(&a), &[r], ObsCtx::none())
            .unwrap();
        // 6 capacity over CoS2 requests (8 member + 4 reserved): the
        // member's share is 8 * 6/12 = 4, as if the reservation were a
        // co-located member — but no outcome is emitted for it.
        assert_eq!(outcome.workloads.len(), 1);
        assert_eq!(outcome.workloads[0].granted.samples()[0], 4.0);
        assert_eq!(outcome.total_granted.samples()[0], 4.0);
        assert!(outcome.contended_slots > 0);

        // A windowed reservation only squeezes inside its window.
        let r = constant("mig", 2.0, 10, policy(0.0, 100.0)).with_window(0, 5);
        let outcome = host
            .run_with_reservations(&[a], &[r], ObsCtx::none())
            .unwrap();
        assert_eq!(outcome.workloads[0].granted.samples()[0], 4.0);
        assert_eq!(outcome.workloads[0].granted.samples()[5], 6.0);
    }

    #[test]
    fn misaligned_and_empty_inputs_rejected() {
        let host = Host::new(10.0).unwrap();
        assert!(matches!(
            host.run(&[], ObsCtx::none()),
            Err(WlmError::Trace(TraceError::Empty))
        ));
        let a = constant("a", 1.0, 10, policy(0.0, 10.0));
        let b = constant("b", 1.0, 20, policy(0.0, 10.0));
        assert!(matches!(
            host.run(&[a, b], ObsCtx::none()),
            Err(WlmError::Trace(TraceError::Misaligned { .. }))
        ));
    }

    #[test]
    fn host_rejects_degenerate_capacity_with_typed_error() {
        // Regression: a zero-capacity host used to be accepted (or abort
        // the process); it must surface as a typed, matchable error so
        // replay paths can diagnose a misconfigured pool.
        for bad in [0.0, -4.0, f64::NAN, f64::INFINITY] {
            match Host::new(bad) {
                Err(WlmError::InvalidCapacity { capacity }) => {
                    assert!(capacity.is_nan() || capacity == bad);
                }
                other => panic!("capacity {bad} must be rejected, got {other:?}"),
            }
        }
        assert!(Host::new(1e-6).is_ok());
    }
}
