//! The two-priority slot scheduler.
//!
//! "Demands associated with the higher priority are allocated capacity
//! first; they correspond to the higher CoS. Any remaining capacity is then
//! allocated to satisfy lower priority demands" (§II). [`SlotScheduler`]
//! runs that rule over a whole pool one slot at a time: each server grants
//! its members' CoS1 requests first (scaled proportionally in the
//! pathological case where even they exceed capacity), then shares the
//! remaining capacity across CoS2 requests proportionally to their size.
//!
//! It is the one implementation of the rule. Runtime validation drives it
//! over a static placement, the lifecycle loop and the chaos replay over
//! the serving and reservation views of the migration state machine.

use std::collections::VecDeque;

use ropus_trace::TraceError;

use crate::error::WlmError;
use crate::manager::{AllocationRequest, WlmPolicy};
use crate::metrics::utilization_of_allocation;

/// Amounts at or below this count as fully served or drained.
pub const SERVED_EPSILON: f64 = 1e-9;

/// One application's outcome of a scheduled slot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AppSlot {
    /// Current demand served in the slot: `min(demand, grant + the
    /// backlog's share of CoS2)`.
    pub served: f64,
    /// Deferred work drained, oldest first, from the grant left over.
    pub late: f64,
    /// Demand shed in the slot: the shortfall when shedding at once, or
    /// deferred work whose deadline passed.
    pub shed: f64,
    /// Capacity granted to the slot's allocation request (the backlog's
    /// CoS2 share excluded); 0 for an application that serves nowhere.
    pub grant: f64,
    /// [`utilization_of_allocation`] of [`grant`](Self::grant) by current
    /// demand: draining the backlog uses headroom and is not charged.
    pub utilization: f64,
    /// Whether a shortfall was deferred into the backlog.
    pub deferred: bool,
    /// Whether deferred work was outstanding when the slot began.
    pub recovering: bool,
    /// Deferred work outstanding after the slot.
    pub backlog: f64,
}

/// A pool of equal-capacity servers running the two-priority scheduler,
/// stepped one slot at a time.
///
/// Where applications run comes from two views, replaced with
/// [`set_views`](Self::set_views) whenever they change: the *serving*
/// view (application → server it runs on, if any) and the *reservation*
/// view (`(application, server)` pairs for migrations in flight). A
/// reservation presses on the server's scales with the application's
/// request, exactly as a member would, but draws no grant there: that is
/// how a migration double-books capacity on both ends.
///
/// Demand a server cannot serve is deferred as a FIFO backlog of CoS2
/// work that rides along with the next slots' requests, until it drains
/// or waits `deadline_slots` and is shed; a deadline of 0 sheds every
/// shortfall at once. The scheduler records no observability itself:
/// callers read [`apps`](Self::apps) and the per-server outputs after each
/// [`step`](Self::step).
#[derive(Debug, Clone)]
pub struct SlotScheduler {
    capacity: f64,
    deadline_slots: usize,
    hosted: Vec<Vec<usize>>,
    reserved: Vec<Vec<usize>>,
    requests: Vec<AllocationRequest>,
    extra: Vec<f64>,
    extra_grant: Vec<f64>,
    backlog: Vec<VecDeque<(usize, f64)>>,
    apps: Vec<AppSlot>,
    contended: Vec<bool>,
    cos1_scaled: Vec<bool>,
    granted: Vec<f64>,
}

impl SlotScheduler {
    /// Creates a scheduler for `apps` applications on servers of
    /// `capacity`, with nobody serving anywhere yet.
    ///
    /// # Errors
    ///
    /// Returns [`WlmError::InvalidCapacity`] if `capacity` is not positive
    /// and finite — a zero-capacity server would replay every workload
    /// into NaN utilizations instead of failing loudly.
    pub fn new(capacity: f64, apps: usize, deadline_slots: usize) -> Result<Self, WlmError> {
        if !capacity.is_finite() || capacity <= 0.0 {
            return Err(WlmError::InvalidCapacity { capacity });
        }
        Ok(SlotScheduler {
            capacity,
            deadline_slots,
            hosted: Vec::new(),
            reserved: Vec::new(),
            requests: vec![AllocationRequest::default(); apps],
            extra: vec![0.0; apps],
            extra_grant: vec![0.0; apps],
            backlog: vec![VecDeque::new(); apps],
            apps: vec![AppSlot::default(); apps],
            contended: Vec::new(),
            cos1_scaled: Vec::new(),
            granted: Vec::new(),
        })
    }

    /// Replaces the serving and reservation views. Entries naming an
    /// application past the scheduler's count are ignored; applications
    /// past the end of `serving` serve nowhere.
    pub fn set_views(&mut self, serving: &[Option<usize>], reservations: &[(usize, usize)]) {
        let servers = serving
            .iter()
            .flatten()
            .chain(reservations.iter().map(|(_, s)| s))
            .max()
            .map_or(0, |&s| s + 1)
            .max(self.hosted.len());
        self.hosted.resize_with(servers, Vec::new);
        self.reserved.resize_with(servers, Vec::new);
        self.contended.resize(servers, false);
        self.cos1_scaled.resize(servers, false);
        self.granted.resize(servers, 0.0);
        for list in self.hosted.iter_mut().chain(self.reserved.iter_mut()) {
            list.clear();
        }
        for (app, &server) in serving.iter().enumerate().take(self.apps.len()) {
            if let Some(list) = server.and_then(|s| self.hosted.get_mut(s)) {
                list.push(app);
            }
        }
        for &(app, server) in reservations {
            if app < self.apps.len() {
                if let Some(list) = self.reserved.get_mut(server) {
                    list.push(app);
                }
            }
        }
    }

    /// Schedules slot `slot`: every application requests
    /// `policies[i].request(demand[i])`, each server computes its CoS1 and
    /// CoS2 scales over its members and reservations, and every
    /// application serves current demand first, drains its backlog with
    /// what is left of its grant, then defers or sheds the shortfall.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Misaligned`] (wrapped in [`WlmError::Trace`])
    /// unless `demand` and `policies` hold one entry per application.
    pub fn step(
        &mut self,
        slot: usize,
        demand: &[f64],
        policies: &[WlmPolicy],
    ) -> Result<(), WlmError> {
        let n = self.apps.len();
        for len in [demand.len(), policies.len()] {
            if len != n {
                return Err(WlmError::Trace(TraceError::Misaligned {
                    left: n,
                    right: len,
                }));
            }
        }
        let SlotScheduler {
            capacity,
            deadline_slots,
            hosted,
            reserved,
            requests,
            extra,
            extra_grant,
            backlog,
            apps,
            contended,
            cos1_scaled,
            granted,
        } = self;
        let (capacity, deadline_slots) = (*capacity, *deadline_slots);

        // Requests: each manager reacts to the demand measured in this
        // slot; outstanding backlog rides along as extra CoS2.
        for ((((request, extra), (policy, &d)), queue), (app, g)) in requests
            .iter_mut()
            .zip(extra.iter_mut())
            .zip(policies.iter().zip(demand))
            .zip(backlog.iter())
            .zip(apps.iter_mut().zip(extra_grant.iter_mut()))
        {
            *request = policy.request(d);
            *extra = queue.iter().map(|e| e.1).sum();
            app.grant = 0.0;
            *g = 0.0;
        }

        // Scales: members' requests summed in application order, then the
        // reservations' as one separate sum. CoS1 is granted in full
        // (scaled down proportionally only if the guarantee was violated
        // upstream); CoS2 shares what remains proportionally.
        for ((((ids, resv), contended), cos1_scaled), granted) in hosted
            .iter()
            .zip(reserved.iter())
            .zip(contended.iter_mut())
            .zip(cos1_scaled.iter_mut())
            .zip(granted.iter_mut())
        {
            *contended = false;
            *cos1_scaled = false;
            *granted = 0.0;
            if ids.is_empty() && resv.is_empty() {
                continue;
            }
            let mut cos1_sum: f64 = ids.iter().map(|&i| requests[i].cos1).sum();
            let mut cos2_sum: f64 = ids.iter().map(|&i| requests[i].cos2 + extra[i]).sum();
            if !resv.is_empty() {
                cos1_sum += resv.iter().map(|&i| requests[i].cos1).sum::<f64>();
                cos2_sum += resv.iter().map(|&i| requests[i].cos2).sum::<f64>();
            }
            let cos1_scale = if cos1_sum > capacity {
                capacity / cos1_sum
            } else {
                1.0
            };
            let remaining = (capacity - cos1_sum * cos1_scale).max(0.0);
            let cos2_scale = if cos2_sum > remaining && cos2_sum > 0.0 {
                remaining / cos2_sum
            } else {
                1.0
            };
            *contended = cos1_scale < 1.0 || cos2_scale < 1.0;
            *cos1_scaled = cos1_scale < 1.0;
            for &i in ids {
                let grant = requests[i].cos1 * cos1_scale + requests[i].cos2 * cos2_scale;
                apps[i].grant = grant;
                extra_grant[i] = extra[i] * cos2_scale;
                *granted += grant;
            }
        }

        // Service: current demand first, then the backlog FIFO with
        // whatever grant is left, then the shortfall is deferred or shed.
        for ((app, queue), (&d, &extra_grant)) in apps
            .iter_mut()
            .zip(backlog.iter_mut())
            .zip(demand.iter().zip(extra_grant.iter()))
        {
            let recovering = !queue.is_empty();
            let grant = app.grant;
            let total = grant + extra_grant;
            let served = d.min(total);
            let mut leftover = (total - served).max(0.0);
            let mut late = 0.0f64;
            while leftover > SERVED_EPSILON {
                let Some(front) = queue.front_mut() else {
                    break;
                };
                let take = front.1.min(leftover);
                front.1 -= take;
                late += take;
                leftover -= take;
                if front.1 <= SERVED_EPSILON {
                    queue.pop_front();
                }
            }
            let shortfall = d - served;
            let mut shed = 0.0f64;
            let mut deferred = false;
            if shortfall > SERVED_EPSILON {
                if deadline_slots > 0 {
                    queue.push_back((slot, shortfall));
                    deferred = true;
                } else {
                    shed = shortfall;
                }
            }
            // Expire deferred work past its deadline. Entries are in
            // arrival order, so the front is always the oldest.
            while let Some(&(arrival, amount)) = queue.front() {
                if slot < arrival + deadline_slots {
                    break;
                }
                shed += amount;
                queue.pop_front();
            }
            *app = AppSlot {
                served,
                late,
                shed,
                grant,
                utilization: utilization_of_allocation(served, grant),
                deferred,
                recovering,
                backlog: queue.iter().map(|e| e.1).sum(),
            };
        }
        Ok(())
    }

    /// Every application's outcome of the last [`step`](Self::step), in
    /// application order.
    pub fn apps(&self) -> &[AppSlot] {
        &self.apps
    }

    /// Per server id: whether the last step scaled some request down.
    pub fn contended(&self) -> &[bool] {
        &self.contended
    }

    /// Per server id: whether the last step scaled the CoS1 guarantee
    /// itself down.
    pub fn cos1_scaled(&self) -> &[bool] {
        &self.cos1_scaled
    }

    /// Per server id: the capacity the last step granted to its members'
    /// requests, summed in application order.
    pub fn granted(&self) -> &[f64] {
        &self.granted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(cos1_cap: f64, total_cap: f64) -> WlmPolicy {
        WlmPolicy {
            burst_factor: 2.0,
            cos1_cap,
            total_cap,
        }
    }

    /// A scheduler with every app on server 0 and nothing reserved.
    fn one_server(capacity: f64, apps: usize, deadline_slots: usize) -> SlotScheduler {
        let mut scheduler = SlotScheduler::new(capacity, apps, deadline_slots).unwrap();
        scheduler.set_views(&vec![Some(0); apps], &[]);
        scheduler
    }

    #[test]
    fn uncontended_host_grants_full_requests() {
        let mut s = one_server(16.0, 1, 0);
        s.step(0, &[2.0], &[policy(1.0, 100.0)]).unwrap();
        // Request = 2 * 2 = 4, fully granted; demand 2 fully served.
        let a = s.apps()[0];
        assert_eq!(
            (a.grant, a.served, a.shed, a.utilization),
            (4.0, 2.0, 0.0, 0.5)
        );
        assert_eq!(s.contended(), &[false]);
        assert_eq!(s.granted(), &[4.0]);
    }

    #[test]
    fn cos1_is_served_before_cos2() {
        // A: all CoS1 (cap above request). B: all CoS2.
        let mut s = one_server(10.0, 2, 0);
        s.step(0, &[4.0, 4.0], &[policy(100.0, 100.0), policy(0.0, 100.0)])
            .unwrap();
        // A requests 8 CoS1 -> granted in full; B requests 8 CoS2 but only
        // 2 remain, so 2 of its demand 4 is served and 2 shed.
        let (a, b) = (s.apps()[0], s.apps()[1]);
        assert_eq!(a.grant, 8.0);
        assert_eq!((b.grant, b.served, b.shed), (2.0, 2.0, 2.0));
        assert_eq!(s.contended(), &[true]);
        assert_eq!(s.cos1_scaled(), &[false]);
        assert_eq!(s.granted(), &[10.0]);
    }

    #[test]
    fn cos2_shares_remaining_capacity_proportionally() {
        let cos2 = [policy(0.0, 100.0); 2];
        // 12 capacity over requests (8, 4): granted in full (sum == 12).
        let mut s = one_server(12.0, 2, 0);
        s.step(0, &[4.0, 2.0], &cos2).unwrap();
        assert_eq!((s.apps()[0].grant, s.apps()[1].grant), (8.0, 4.0));
        assert_eq!(s.contended(), &[false]);
        // Now only 6 for requests (8, 4): proportional scale 0.5.
        let mut s = one_server(6.0, 2, 0);
        s.step(0, &[4.0, 2.0], &cos2).unwrap();
        assert_eq!((s.apps()[0].grant, s.apps()[1].grant), (4.0, 2.0));
    }

    #[test]
    fn pathological_cos1_overflow_scales_proportionally() {
        let mut s = one_server(8.0, 1, 0);
        s.step(0, &[8.0], &[policy(100.0, 100.0)]).unwrap(); // 16 CoS1
        assert_eq!(s.apps()[0].grant, 8.0);
        assert_eq!(s.contended(), &[true]);
        assert_eq!(s.cos1_scaled(), &[true]);
    }

    #[test]
    fn total_granted_never_exceeds_capacity() {
        let mut s = one_server(10.0, 5, 0);
        let policies = [policy(1.0, 100.0); 5];
        for slot in 0..30 {
            let d = 1.0 + (slot % 7) as f64 * 0.5;
            s.step(slot, &[d; 5], &policies).unwrap();
            assert!(s.granted()[0] <= 10.0 + 1e-9, "granted {}", s.granted()[0]);
        }
    }

    #[test]
    fn windowed_member_requests_nothing_outside_its_residency() {
        // App 0 runs on server 1 during slots 3..7 and nowhere else.
        let mut s = SlotScheduler::new(16.0, 1, 0).unwrap();
        for slot in 0..10 {
            let on = (3..7).contains(&slot);
            if slot == 3 || slot == 7 {
                s.set_views(&[on.then_some(1)], &[]);
            }
            s.step(slot, &[2.0], &[policy(1.0, 100.0)]).unwrap();
            let a = s.apps()[0];
            if on {
                assert_eq!((a.grant, a.served), (4.0, 2.0), "slot {slot}");
            } else {
                assert_eq!((a.grant, a.served, a.utilization), (0.0, 0.0, 0.0));
                assert_eq!(a.shed, 2.0, "slot {slot}: nowhere to run");
            }
        }
    }

    #[test]
    fn reservations_squeeze_grants_without_outcomes() {
        // App 0 (requests 8 CoS2) serves on server 0; app 1 (requests 4)
        // serves on server 1 while migrating to server 0.
        let policies = [policy(0.0, 100.0); 2];
        let mut s = SlotScheduler::new(6.0, 2, 0).unwrap();
        s.set_views(&[Some(0), Some(1)], &[(1, 0)]);
        s.step(0, &[4.0, 2.0], &policies).unwrap();
        // 6 capacity over CoS2 requests (8 member + 4 reserved): the
        // member's share is 8 * 6/12 = 4, as if the reservation were a
        // co-located member, but server 0 grants app 1 nothing.
        assert_eq!(s.apps()[0].grant, 4.0);
        assert_eq!(s.granted(), &[4.0, 4.0]);
        assert_eq!(s.contended(), &[true, false]);
    }

    #[test]
    fn empty_reservations_are_exactly_run() {
        // Once its reservation list empties, a scheduler grants exactly
        // what one that never saw a reservation grants.
        let policies = [policy(0.0, 100.0); 2];
        let mut s = SlotScheduler::new(6.0, 2, 0).unwrap();
        s.set_views(&[Some(0), Some(1)], &[(1, 0)]);
        s.step(0, &[4.0, 2.0], &policies).unwrap();
        s.set_views(&[Some(0), Some(1)], &[]);
        s.step(1, &[4.0, 2.0], &policies).unwrap();
        let mut plain = SlotScheduler::new(6.0, 2, 0).unwrap();
        plain.set_views(&[Some(0), Some(1)], &[]);
        plain.step(1, &[4.0, 2.0], &policies).unwrap();
        assert_eq!(s.apps(), plain.apps());
        assert_eq!(
            (s.granted(), s.contended()),
            (plain.granted(), plain.contended())
        );
        assert_eq!(s.apps()[0].grant, 6.0);
    }

    #[test]
    fn deferred_work_drains_oldest_first_and_expires_at_its_deadline() {
        // 3 CPUs for a request of 8: 1 of the demand of 4 is deferred.
        let p = [policy(0.0, 100.0)];
        let mut s = one_server(3.0, 1, 2);
        s.step(0, &[4.0], &p).unwrap();
        let a = s.apps()[0];
        assert!(a.deferred && !a.recovering);
        assert_eq!((a.served, a.shed, a.backlog), (3.0, 0.0, 1.0));
        // A quiet slot drains the backlog with the grant left over: the
        // deferred CPU rides along as extra CoS2 and is granted in full.
        s.step(1, &[0.5], &p).unwrap();
        let a = s.apps()[0];
        assert!(a.recovering && !a.deferred);
        assert_eq!((a.served, a.late, a.backlog), (0.5, 1.0, 0.0));
        assert_eq!(a.utilization, 0.5, "draining is not charged");
        // Overloaded slots from slot 2 on each defer what they cannot
        // serve and leave nothing over to drain, so slot 2's deferred
        // CPU waits out its 2-slot deadline and is shed at slot 4.
        for slot in 2..4 {
            s.step(slot, &[4.0], &p).unwrap();
            assert_eq!(s.apps()[0].shed, 0.0);
        }
        s.step(4, &[4.0], &p).unwrap();
        let a = s.apps()[0];
        assert_eq!(a.shed, 1.0);
        assert!((a.backlog - 2.0).abs() < 1e-9, "backlog {}", a.backlog);
    }

    #[test]
    fn misaligned_and_empty_inputs_rejected() {
        let mut s = one_server(10.0, 2, 0);
        let p = policy(0.0, 10.0);
        let cases = [
            (&[1.0][..], &[p, p][..]),
            (&[1.0, 1.0][..], &[p][..]),
            (&[][..], &[][..]),
        ];
        for (demand, policies) in cases {
            assert!(matches!(
                s.step(0, demand, policies),
                Err(WlmError::Trace(TraceError::Misaligned { .. }))
            ));
        }
    }

    #[test]
    fn host_rejects_degenerate_capacity_with_typed_error() {
        // Regression: a zero-capacity host used to be accepted (or abort
        // the process); it must surface as a typed, matchable error so
        // replay paths can diagnose a misconfigured pool.
        for bad in [0.0, -4.0, f64::NAN, f64::INFINITY] {
            match SlotScheduler::new(bad, 1, 0) {
                Err(WlmError::InvalidCapacity { capacity }) => {
                    assert!(capacity.is_nan() || capacity == bad);
                }
                other => panic!("capacity {bad} must be rejected, got {other:?}"),
            }
        }
        assert!(SlotScheduler::new(1e-6, 1, 0).is_ok());
    }
}
