//! The single-server fit simulator (Fig. 4 of the paper).
//!
//! Given a set of workloads assigned to one server, the simulator replays
//! their per-CoS allocation traces against a candidate capacity `L` and
//! checks the pool's resource access CoS commitments:
//!
//! 1. **CoS1 guarantee** — the sum of per-workload *peak* CoS1 allocations
//!    must not exceed `L` (§IV);
//! 2. **access probability** — the measured
//!    `θ = min_w min_t Σ_days min(A,L) / Σ_days A` must reach the committed
//!    `θ` (§IV's definition, computed per week and slot-of-day);
//! 3. **deadline** — demand not satisfied on request carries over and must
//!    be fully served within `s` slots.
//!
//! [`FitRequest::required_capacity`] binary-searches the smallest `L`
//! satisfying all three, which is the per-server `C_requ` contribution in
//! Table I. [`FitRequest`] paired with [`FitOptions`] is the single entry
//! point.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use ropus_qos::PoolCommitments;
use ropus_trace::Calendar;

use crate::sumtree::{SlotArena, SumTree};
use crate::workload::{validate_workloads, Workload};
use crate::PlacementError;

/// Numerical slack for capacity comparisons, absorbing accumulated
/// floating-point error in trace sums.
const EPSILON: f64 = 1e-9;

/// Pre-aggregated load of a workload set on one server.
///
/// Aggregating once makes each candidate-capacity evaluation O(trace
/// length) regardless of how many workloads share the server.
///
/// The aggregate retains its members (cheap: traces are `Arc`-backed) in
/// canonical (name-sorted) order and keeps their slot sums in a
/// `SumTree` — a treap whose shape, and therefore whose floating-point
/// association, is a pure function of the member *set*. That makes
/// [`AggregateLoad::add`] / [`AggregateLoad::remove`] bit-identical to a
/// cold [`AggregateLoad::of`] over the same set while recomputing only
/// the O(log n) partial sums on the touched root path, instead of the
/// full O(n) re-sum the previous flat representation needed. Nothing is
/// ever subtracted, so there is no incremental drift to reconcile — the
/// periodic rebuild (every `RECONCILE_EVERY` mutations) is a structural
/// compaction, and debug builds assert bit-equality against a cold build
/// after every mutation. Duplicate member names have no canonical set
/// order; such degenerate aggregates fall back to a cold rebuild per
/// mutation.
#[derive(Debug, Clone)]
pub struct AggregateLoad {
    calendar: Calendar,
    members: Vec<Workload>,
    tree: SumTree,
    /// Materialized per-slot total (CoS1 + CoS2) allocation — the one
    /// contiguous vector every fit evaluation scans.
    totals: Vec<f64>,
    cos1_peak_sum: f64,
    memory_peak: f64,
    /// Incremental mutations since the tree was last cold-built.
    mutations: u32,
    /// Whether member names are pairwise distinct (the set-pure fast path).
    unique_names: bool,
}

/// Incremental mutations between cold tree rebuilds. The rebuild drops
/// freed tree slots and excess pooled buffers; it is *not* a numerical
/// correction (incremental sums are bit-identical by construction).
const RECONCILE_EVERY: u32 = 64;

/// Whether the (sorted) member names are pairwise distinct.
fn names_unique(members: &[Workload]) -> bool {
    members
        .iter()
        .zip(members.iter().skip(1))
        .all(|(a, b)| a.name() != b.name())
}

impl PartialEq for AggregateLoad {
    /// Structural equality on the aggregated state; the sum tree and the
    /// reconciliation bookkeeping are maintenance details and do not
    /// participate.
    fn eq(&self, other: &Self) -> bool {
        self.calendar == other.calendar
            && self.cos1_peak_sum == other.cos1_peak_sum
            && self.memory_peak == other.memory_peak
            && self.totals == other.totals
            && self.members == other.members
    }
}

impl AggregateLoad {
    /// Aggregates a set of workloads.
    ///
    /// # Errors
    ///
    /// Returns a [`PlacementError`] if the set is empty, misaligned, or
    /// does not cover whole weeks.
    pub fn of(workloads: &[&Workload]) -> Result<Self, PlacementError> {
        Self::of_pooled(workloads, &mut SlotArena::new())
    }

    /// [`AggregateLoad::of`], drawing every slot buffer from `arena`.
    ///
    /// Paired with [`AggregateLoad::recycle`], this is the
    /// allocation-free path for the transient aggregates hot placement
    /// loops build per candidate assignment: after warm-up, construction
    /// reuses the buffers the previous candidate returned.
    ///
    /// # Errors
    ///
    /// Returns a [`PlacementError`] if the set is empty, misaligned, or
    /// does not cover whole weeks.
    pub fn of_pooled(
        workloads: &[&Workload],
        arena: &mut SlotArena,
    ) -> Result<Self, PlacementError> {
        validate_workloads(workloads.iter().copied())?;
        let calendar = workloads[0].calendar();
        let mut members: Vec<Workload> = workloads.iter().map(|w| (*w).clone()).collect();
        members.sort_by(|a, b| a.name().cmp(b.name()));
        let unique_names = names_unique(&members);
        let mut tree = SumTree::build(&members, arena);
        let totals = tree.take_buf();
        let mut load = AggregateLoad {
            calendar,
            members,
            tree,
            totals,
            cos1_peak_sum: 0.0,
            memory_peak: 0.0,
            mutations: 0,
            unique_names,
        };
        load.rematerialize();
        Ok(load)
    }

    /// Consumes the aggregate, returning its slot buffers to `arena` so
    /// the next [`AggregateLoad::of_pooled`] allocates nothing.
    pub fn recycle(self, arena: &mut SlotArena) {
        arena.give(self.totals);
        self.tree.recycle_into(arena);
    }

    /// Refreshes the materialized totals and peaks from the tree root and
    /// the canonical member list.
    fn rematerialize(&mut self) {
        self.totals.clear();
        // Without CoS1 sums every member's CoS1 is bitwise +0.0, so the
        // CoS1 root would be +0.0 at every slot: add the CoS2 root to that.
        if let Some(root) = self.tree.root() {
            root.totals_into(&mut self.totals, self.tree.keeps_cos1());
        }
        // Memory is not time-shareable, so only its aggregate peak matters.
        self.memory_peak = self
            .tree
            .root_memory()
            .map_or(0.0, |m| m.iter().copied().fold(0.0, f64::max));
        self.cos1_peak_sum = self.members.iter().map(Workload::cos1_peak).sum();
    }

    /// Cold-rebuilds the tree from the canonical member list, recycling
    /// the old tree's buffers, and resets the reconciliation counter.
    fn rebuild_tree(&mut self) {
        let mut arena = SlotArena::new();
        let old = std::mem::replace(&mut self.tree, SumTree::empty());
        old.recycle_into(&mut arena);
        self.tree = SumTree::build(&self.members, &mut arena);
        self.unique_names = names_unique(&self.members);
        self.mutations = 0;
    }

    /// Counts one incremental mutation, compacting the tree periodically.
    fn note_mutation(&mut self) {
        self.mutations += 1;
        if self.mutations >= RECONCILE_EVERY {
            self.rebuild_tree();
        }
    }

    /// Debug-build reconciliation: the incrementally maintained state
    /// must be bit-identical to a cold build of the current member set.
    #[cfg(debug_assertions)]
    fn debug_reconcile(&self) {
        let refs: Vec<&Workload> = self.members.iter().collect();
        // lint:allow(panic-expect): debug-build-only check; the members
        // were validated as aligned when they were admitted.
        let cold = AggregateLoad::of(&refs).expect("members were validated on admission");
        assert_eq!(self.totals.len(), cold.totals.len());
        for (a, b) in self.totals.iter().zip(&cold.totals) {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "incremental aggregate diverged from a cold rebuild"
            );
        }
        assert_eq!(self.cos1_peak_sum.to_bits(), cold.cos1_peak_sum.to_bits());
        assert_eq!(self.memory_peak.to_bits(), cold.memory_peak.to_bits());
    }

    #[cfg(not(debug_assertions))]
    fn debug_reconcile(&self) {}

    /// Adds one workload to the aggregate.
    ///
    /// The member joins at its canonical (name-sorted) position and the
    /// sum tree recomputes the partial sums on its root path, so the
    /// result is bit-identical to a cold [`AggregateLoad::of`] over the
    /// enlarged set at O(slots · log n) cost.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::MisalignedWorkloads`] when the workload's
    /// calendar or length differs from the existing members'.
    pub fn add(&mut self, workload: &Workload) -> Result<(), PlacementError> {
        let aligned = workload.len() == self.len() && workload.calendar() == self.calendar;
        if !aligned {
            return Err(PlacementError::MisalignedWorkloads {
                name: workload.name().to_string(),
            });
        }
        let at = self
            .members
            .partition_point(|m| m.name() <= workload.name());
        // The insertion point sits after any members of the same name, so
        // a duplicate (if present) is exactly the predecessor.
        let duplicate = self
            .members
            .get(at.wrapping_sub(1))
            .is_some_and(|m| m.name() == workload.name());
        self.members.insert(at, workload.clone());
        if self.unique_names && !duplicate {
            self.tree.insert(workload.clone());
            self.note_mutation();
        } else {
            self.rebuild_tree();
        }
        self.rematerialize();
        self.debug_reconcile();
        Ok(())
    }

    /// Removes the named workload from the aggregate.
    ///
    /// The sum tree recomputes the partial sums on the removed member's
    /// root path, so the result is bit-identical to a cold
    /// [`AggregateLoad::of`] over the reduced set — removing and
    /// re-adding a member round-trips exactly.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::NoWorkloads`] when the named workload
    /// either is not a member or is the last one (an empty aggregate is
    /// not representable; drop the aggregate instead).
    pub fn remove(&mut self, name: &str) -> Result<Workload, PlacementError> {
        let at = self
            .members
            .iter()
            .position(|m| m.name() == name)
            .filter(|_| self.members.len() > 1)
            .ok_or(PlacementError::NoWorkloads)?;
        let removed = self.members.remove(at);
        if self.unique_names {
            if self.tree.remove(name).is_some() {
                self.note_mutation();
            } else {
                // Unreachable while the flag is accurate; rebuild to stay
                // safe rather than serve stale sums.
                self.rebuild_tree();
            }
        } else {
            self.rebuild_tree();
        }
        self.rematerialize();
        self.debug_reconcile();
        Ok(removed)
    }

    /// The member workloads, in canonical (name-sorted) order.
    pub fn members(&self) -> &[Workload] {
        &self.members
    }

    /// Peak of the aggregate memory footprint (GB); 0 when no workload
    /// carries a memory trace.
    pub fn memory_peak(&self) -> f64 {
        self.memory_peak
    }

    /// The calendar shared by the aggregated traces.
    pub fn calendar(&self) -> Calendar {
        self.calendar
    }

    /// Sum of per-workload peak CoS1 allocations (the guarantee constraint).
    pub fn cos1_peak_sum(&self) -> f64 {
        self.cos1_peak_sum
    }

    /// Number of aggregated slots.
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// Whether there are no slots (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }

    /// The materialized per-slot total allocation trace.
    pub(crate) fn totals(&self) -> &[f64] {
        &self.totals
    }

    /// Peak of the total aggregate allocation trace.
    pub fn total_peak(&self) -> f64 {
        self.totals.iter().copied().fold(0.0, f64::max)
    }
}

/// Why a workload set does not fit at a candidate capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FitViolation {
    /// The sum of peak CoS1 allocations exceeds the capacity.
    Cos1Overflow,
    /// The aggregate memory footprint exceeds the server's memory.
    MemoryOverflow,
    /// The measured access probability fell short of the commitment.
    ThetaShortfall,
    /// Carried-over demand was not served within the deadline.
    DeadlineMissed,
}

/// Outcome of evaluating one workload set at one candidate capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FitReport {
    /// Whether all commitments are satisfied.
    pub fits: bool,
    /// The first violated constraint, when `fits` is false.
    pub violation: Option<FitViolation>,
    /// Sum of per-workload peak CoS1 allocations.
    pub cos1_peak_sum: f64,
    /// The measured access probability (1.0 when demand never exceeds
    /// capacity).
    pub measured_theta: f64,
    /// Whether every carried-over demand met the deadline.
    pub deadline_met: bool,
}

/// Measures the resource access probability `θ` at capacity `capacity`:
/// the minimum over weeks and slots-of-day of
/// `Σ_days min(A, L) / Σ_days A` (the paper's §IV definition).
///
/// Slots with no demand in any day count as fully satisfied.
pub fn access_probability(load: &AggregateLoad, capacity: f64) -> f64 {
    ExceedanceIndex::new(load).theta(capacity, f64::NEG_INFINITY)
}

/// Checks that every unit of demand unsatisfied on request is served
/// within `deadline_slots` slots, using surplus capacity in later slots
/// (oldest shortfall first).
pub fn deadline_satisfied(load: &AggregateLoad, capacity: f64, deadline_slots: usize) -> bool {
    ExceedanceIndex::new(load).deadline_met(capacity, deadline_slots)
}

/// Slots per block of the deadline replay's skip index.
const BLOCK: usize = 32;

/// A per-search summary of an aggregate's totals that lets every capacity
/// probe skip the slots whose outcome is already known (DESIGN.md §5a).
///
/// Built once per [`FitRequest::required_capacity`] (and per one-shot
/// query) rather than stored in the [`AggregateLoad`], so long-lived
/// aggregates do not grow. A "group" is one (week, slot-of-day) pair — the
/// seven same-time slots one `θ` ratio is taken over.
struct ExceedanceIndex<'a> {
    totals: &'a [f64],
    per_day: usize,
    per_week: usize,
    /// Each group's maximum over its seven days, week-major.
    group_max: Vec<f64>,
    /// Each group's `Σ_days A`, accumulated in day order from `0.0` — the
    /// same additions, in the same order, as the `θ` denominator.
    group_requested: Vec<f64>,
    /// The maximum total of each `BLOCK`-slot block (the last may be short).
    block_max: Vec<f64>,
}

impl<'a> ExceedanceIndex<'a> {
    /// Indexes `load`'s totals in one day-major pass (plus the block
    /// maxima). Trailing partial weeks are ignored, as `θ` ignores them.
    fn new(load: &'a AggregateLoad) -> Self {
        let totals = load.totals();
        let per_day = load.calendar.slots_per_day();
        let per_week = load.calendar.slots_per_week();
        let groups = totals.len() / per_week * per_day;
        let mut group_max = vec![0.0; groups];
        let mut group_requested = vec![0.0; groups];
        for ((max, requested), week) in group_max
            .chunks_exact_mut(per_day)
            .zip(group_requested.chunks_exact_mut(per_day))
            .zip(totals.chunks_exact(per_week))
        {
            for day in week.chunks_exact(per_day) {
                for ((m, r), &a) in max.iter_mut().zip(requested.iter_mut()).zip(day) {
                    *m = f64::max(*m, a);
                    *r += a;
                }
            }
        }
        let block_max = totals
            .chunks(BLOCK)
            .map(|block| block.iter().copied().fold(0.0, f64::max))
            .collect();
        ExceedanceIndex {
            totals,
            per_day,
            per_week,
            group_max,
            group_requested,
            block_max,
        }
    }

    /// The measured `θ` at `capacity`, returning early (with the minimum
    /// so far) once `θ + ε` drops below `give_up_below` — from then on a
    /// commitment of `give_up_below` has failed whatever the rest holds.
    ///
    /// Only groups whose maximum exceeds the capacity are visited. In any
    /// other group every `min(a, L)` is `a` itself, so `Σ min(a, L)` repeats
    /// the denominator's additions bit for bit and the ratio is exactly 1.0
    /// — which cannot lower a minimum that starts at 1.0.
    fn theta(&self, capacity: f64, give_up_below: f64) -> f64 {
        let mut theta: f64 = 1.0;
        let groups = self
            .group_max
            .chunks_exact(self.per_day)
            .zip(self.group_requested.chunks_exact(self.per_day))
            .zip(self.totals.chunks_exact(self.per_week));
        for ((max, requested), week) in groups {
            for (t, (&m, &requested)) in max.iter().zip(requested).enumerate() {
                if m <= capacity || requested <= 0.0 {
                    continue;
                }
                let satisfied = week
                    .iter()
                    .skip(t)
                    .step_by(self.per_day)
                    .fold(0.0, |sum, &a| sum + a.min(capacity));
                theta = theta.min(satisfied / requested);
                if theta + EPSILON < give_up_below {
                    return theta;
                }
            }
        }
        theta
    }

    /// Whether carried-over demand meets the deadline at `capacity`.
    ///
    /// While the backlog is empty, a slot at or below capacity changes
    /// nothing (its surplus has no one to serve), so whole blocks whose
    /// maximum is at or below capacity are jumped over.
    fn deadline_met(&self, capacity: f64, deadline_slots: usize) -> bool {
        let mut backlog: VecDeque<(usize, f64)> = VecDeque::new();
        let mut slot = 0;
        loop {
            if backlog.is_empty() && slot % BLOCK == 0 {
                let quiet = self
                    .block_max
                    .iter()
                    .skip(slot / BLOCK)
                    .take_while(|&&m| m <= capacity)
                    .count();
                slot += quiet * BLOCK;
            }
            let Some(&total) = self.totals.get(slot) else {
                break;
            };
            if total > capacity {
                backlog.push_back((slot, total - capacity));
            } else {
                let mut surplus = capacity - total;
                while surplus > EPSILON {
                    let Some(front) = backlog.front_mut() else {
                        break;
                    };
                    let served = front.1.min(surplus);
                    front.1 -= served;
                    surplus -= served;
                    if front.1 <= EPSILON {
                        backlog.pop_front();
                    }
                }
            }
            if let Some(&(arrival, _)) = backlog.front() {
                if slot >= arrival + deadline_slots {
                    return false;
                }
            }
            slot += 1;
        }
        backlog.is_empty()
    }
}

/// Options of a fit evaluation: the optional memory attribute and the
/// binary-search tolerance.
///
/// This is the options half of the [`FitRequest`]/[`FitOptions`] API that
/// replaces the former `evaluate_fit`/`evaluate_fit_with_memory` and
/// `required_capacity`/`required_capacity_with_memory` function pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FitOptions {
    /// Memory limit in GB; `None` means the attribute is unconstrained.
    memory_capacity: Option<f64>,
    /// Capacity tolerance of the required-capacity binary search.
    tolerance: f64,
}

impl FitOptions {
    /// Default options: unlimited memory, tolerance 0.05 capacity units
    /// (the thorough search setting).
    pub fn new() -> Self {
        FitOptions {
            memory_capacity: None,
            tolerance: 0.05,
        }
    }

    /// Constrains the memory attribute to `capacity` GB. Memory is a
    /// guaranteed, non-statistical attribute: the aggregate footprint must
    /// stay within the limit at every slot (checked via the aggregate
    /// peak).
    pub fn with_memory_capacity(mut self, capacity: f64) -> Self {
        self.memory_capacity = Some(capacity);
        self
    }

    /// Sets the binary-search tolerance, in capacity units.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        self.tolerance = tolerance;
        self
    }

    /// The memory limit in force (`f64::INFINITY` when unconstrained).
    pub fn memory_capacity(&self) -> f64 {
        self.memory_capacity.unwrap_or(f64::INFINITY)
    }

    /// The binary-search tolerance.
    pub fn tolerance(&self) -> f64 {
        self.tolerance
    }
}

impl Default for FitOptions {
    fn default() -> Self {
        Self::new()
    }
}

/// A fit question about one aggregated load under one set of pool
/// commitments: evaluate a candidate capacity, or binary-search the
/// smallest sufficient one.
#[derive(Debug, Clone, Copy)]
pub struct FitRequest<'a> {
    load: &'a AggregateLoad,
    commitments: &'a PoolCommitments,
    options: FitOptions,
}

impl<'a> FitRequest<'a> {
    /// Creates a request with default [`FitOptions`].
    pub fn new(load: &'a AggregateLoad, commitments: &'a PoolCommitments) -> Self {
        FitRequest {
            load,
            commitments,
            options: FitOptions::new(),
        }
    }

    /// Replaces the options.
    pub fn with_options(mut self, options: FitOptions) -> Self {
        self.options = options;
        self
    }

    /// Evaluates the fit constraints at a candidate CPU capacity.
    ///
    /// CPU keeps the paper's three constraints (CoS1 guarantee, access
    /// probability `θ`, carry-over deadline); memory, when constrained by
    /// the options, is a pass/fail attribute checked first.
    pub fn evaluate(&self, capacity: f64) -> FitReport {
        self.check(&ExceedanceIndex::new(self.load), capacity, true)
    }

    /// The fit test behind [`evaluate`](Self::evaluate) and every
    /// [`required_capacity`](Self::required_capacity) probe.
    ///
    /// A probe (`full_report` false) stops at the first failed constraint:
    /// `fits` and `violation` are exactly the full report's, while a
    /// failed probe's `measured_theta` is only an upper bound and its
    /// `deadline_met` is not computed.
    fn check(&self, index: &ExceedanceIndex<'_>, capacity: f64, full_report: bool) -> FitReport {
        let load = self.load;
        let cos1_peak_sum = load.cos1_peak_sum();
        let failed = |violation| FitReport {
            fits: false,
            violation: Some(violation),
            cos1_peak_sum,
            measured_theta: 0.0,
            deadline_met: false,
        };
        if load.memory_peak() > self.options.memory_capacity() + EPSILON {
            return failed(FitViolation::MemoryOverflow);
        }
        if cos1_peak_sum > capacity + EPSILON {
            return failed(FitViolation::Cos1Overflow);
        }
        let committed_theta = self.commitments.cos2.theta();
        let give_up_below = if full_report {
            f64::NEG_INFINITY
        } else {
            committed_theta
        };
        let measured_theta = index.theta(capacity, give_up_below);
        // A probe's θ stops at the first ratio that misses the commitment;
        // θ is a minimum, so the full one would miss it too and `theta_ok`
        // is exact either way.
        let theta_ok = measured_theta + EPSILON >= committed_theta;
        let deadline_met = (full_report || theta_ok) && {
            let deadline_slots = load
                .calendar()
                .slots_in_minutes(self.commitments.cos2.deadline_minutes());
            index.deadline_met(capacity, deadline_slots)
        };
        let violation = if !theta_ok {
            Some(FitViolation::ThetaShortfall)
        } else if !deadline_met {
            Some(FitViolation::DeadlineMissed)
        } else {
            None
        };
        FitReport {
            fits: violation.is_none(),
            violation,
            cos1_peak_sum,
            measured_theta,
            deadline_met,
        }
    }

    /// Binary-searches the smallest capacity in `[0, limit]` that
    /// satisfies the commitments, to within the options' tolerance.
    ///
    /// Returns `None` when the workloads do not fit even at `limit` — the
    /// "commitments cannot be satisfied" outcome of Fig. 4.
    ///
    /// All three constraints are monotone in capacity, which is what makes
    /// the binary search sound. The load is indexed once per search, and
    /// each probe visits only the slots above its candidate capacity.
    ///
    /// # Panics
    ///
    /// Panics if the options' tolerance is not positive or `limit` is not
    /// positive.
    pub fn required_capacity(&self, limit: f64) -> Option<f64> {
        let tolerance = self.options.tolerance();
        assert!(tolerance > 0.0, "tolerance must be positive");
        assert!(limit > 0.0, "capacity limit must be positive");
        let index = ExceedanceIndex::new(self.load);
        let fits = |capacity: f64| self.check(&index, capacity, false).fits;
        if !fits(limit) {
            return None;
        }
        let mut hi = limit;
        let mut lo = 0.0f64;
        if fits(lo.max(EPSILON)) {
            return Some(0.0);
        }
        while hi - lo > tolerance {
            let mid = 0.5 * (hi + lo);
            if fits(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use ropus_qos::CosSpec;
    use ropus_trace::Trace;

    fn cal() -> Calendar {
        Calendar::five_minute()
    }

    fn week() -> usize {
        cal().slots_per_week()
    }

    fn commitments(theta: f64) -> PoolCommitments {
        PoolCommitments::new(CosSpec::new(theta, 60).unwrap())
    }

    fn fit(load: &AggregateLoad, capacity: f64, commitments: &PoolCommitments) -> FitReport {
        FitRequest::new(load, commitments).evaluate(capacity)
    }

    fn required(
        load: &AggregateLoad,
        commitments: &PoolCommitments,
        limit: f64,
        tolerance: f64,
    ) -> Option<f64> {
        FitRequest::new(load, commitments)
            .with_options(FitOptions::new().with_tolerance(tolerance))
            .required_capacity(limit)
    }

    fn fit_mem(
        load: &AggregateLoad,
        capacity: f64,
        memory: f64,
        commitments: &PoolCommitments,
    ) -> FitReport {
        FitRequest::new(load, commitments)
            .with_options(FitOptions::new().with_memory_capacity(memory))
            .evaluate(capacity)
    }

    fn required_mem(
        load: &AggregateLoad,
        commitments: &PoolCommitments,
        limit: f64,
        memory: f64,
        tolerance: f64,
    ) -> Option<f64> {
        FitRequest::new(load, commitments)
            .with_options(
                FitOptions::new()
                    .with_memory_capacity(memory)
                    .with_tolerance(tolerance),
            )
            .required_capacity(limit)
    }

    fn constant_workload(name: &str, c1: f64, c2: f64) -> Workload {
        Workload::new(
            name,
            Trace::constant(cal(), c1, week()).unwrap(),
            Trace::constant(cal(), c2, week()).unwrap(),
        )
        .unwrap()
    }

    /// A workload whose CoS2 trace spikes to `spike` for `spike_len` slots
    /// at the start of each day, and is `base` otherwise.
    fn spiky_workload(name: &str, base: f64, spike: f64, spike_len: usize) -> Workload {
        let per_day = cal().slots_per_day();
        let samples: Vec<f64> = (0..week())
            .map(|i| if i % per_day < spike_len { spike } else { base })
            .collect();
        Workload::new(
            name,
            Trace::constant(cal(), 0.0, week()).unwrap(),
            Trace::from_samples(cal(), samples).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn aggregate_sums_and_peaks() {
        let a = constant_workload("a", 1.0, 2.0);
        let b = constant_workload("b", 0.5, 1.0);
        let load = AggregateLoad::of(&[&a, &b]).unwrap();
        assert_eq!(load.cos1_peak_sum(), 1.5);
        assert_eq!(load.total_peak(), 4.5);
        assert_eq!(load.len(), week());
    }

    #[test]
    fn cos1_overflow_is_detected() {
        let a = constant_workload("a", 10.0, 0.0);
        let b = constant_workload("b", 8.0, 0.0);
        let load = AggregateLoad::of(&[&a, &b]).unwrap();
        let report = fit(&load, 16.0, &commitments(0.9));
        assert!(!report.fits);
        assert_eq!(report.violation, Some(FitViolation::Cos1Overflow));
    }

    #[test]
    fn theta_is_one_when_capacity_covers_demand() {
        let a = constant_workload("a", 2.0, 3.0);
        let load = AggregateLoad::of(&[&a]).unwrap();
        assert_eq!(access_probability(&load, 5.0), 1.0);
        assert_eq!(access_probability(&load, 100.0), 1.0);
        let report = fit(&load, 5.0, &commitments(1.0));
        assert!(report.fits);
    }

    #[test]
    fn theta_measures_overflow_fraction() {
        // Demand 10 every slot; capacity 8: every slot satisfies 0.8.
        let a = constant_workload("a", 0.0, 10.0);
        let load = AggregateLoad::of(&[&a]).unwrap();
        let theta = access_probability(&load, 8.0);
        assert!((theta - 0.8).abs() < 1e-12);
    }

    #[test]
    fn theta_is_min_over_slots() {
        // One hour per day of demand 10, the rest 1; capacity 5 satisfies
        // the quiet slots fully, the busy slot at 0.5.
        let a = spiky_workload("a", 1.0, 10.0, 12);
        let load = AggregateLoad::of(&[&a]).unwrap();
        let theta = access_probability(&load, 5.0);
        assert!((theta - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deadline_requires_backlog_to_drain() {
        // Spike of 2 slots at 10, then base 1: capacity 6 leaves a backlog
        // of 8 that drains at 5/slot -> cleared within 2 slots of arrival.
        let a = spiky_workload("a", 1.0, 10.0, 2);
        let load = AggregateLoad::of(&[&a]).unwrap();
        assert!(deadline_satisfied(&load, 6.0, 3));
        // With deadline 1 slot, the backlog from slot 0 (4 units) cannot be
        // fully served by slot 1 (slot 1 is also overloaded).
        assert!(!deadline_satisfied(&load, 6.0, 1));
    }

    #[test]
    fn deadline_never_met_when_average_demand_exceeds_capacity() {
        let a = constant_workload("a", 0.0, 10.0);
        let load = AggregateLoad::of(&[&a]).unwrap();
        assert!(!deadline_satisfied(&load, 8.0, 12));
    }

    #[test]
    fn evaluate_fit_orders_violations() {
        let a = spiky_workload("a", 1.0, 30.0, 24);
        let load = AggregateLoad::of(&[&a]).unwrap();
        // Capacity 2: theta for the busy slots = tiny -> theta violation.
        let report = fit(&load, 2.0, &commitments(0.9));
        assert_eq!(report.violation, Some(FitViolation::ThetaShortfall));
        assert!(report.measured_theta < 0.9);
    }

    #[test]
    fn deadline_violation_reported_when_theta_passes() {
        // 2-hour spike at 10 once per day, base 4, capacity 8: busy-slot
        // theta = 0.8, so commit theta = 0.75 passes, but the backlog of
        // 2/slot x 24 slots = 48 drains at 4/slot, needing 12 h >> 60 min.
        let a = spiky_workload("a", 4.0, 10.0, 24);
        let load = AggregateLoad::of(&[&a]).unwrap();
        let report = fit(&load, 8.0, &commitments(0.75));
        assert!(report.measured_theta >= 0.75);
        assert_eq!(report.violation, Some(FitViolation::DeadlineMissed));
    }

    /// Pooling two servers' sets onto one server of the summed capacity
    /// can miss the deadline though each set meets it alone: current
    /// demand is served before backlog, so a later overload of one set
    /// takes the surplus the other set's backlog needed. Any pooled lower
    /// bound on the server count must therefore leave the deadline check
    /// out (it may use the CoS1, memory and θ checks).
    #[test]
    fn pooling_two_sets_can_miss_the_deadline_each_meets_alone() {
        // A week at 10.0 with two slots changed.
        let workload = |name: &str, spikes: [(usize, f64); 2]| {
            let mut samples = vec![10.0; week()];
            for (slot, value) in spikes {
                samples[slot] = value;
            }
            Workload::new(
                name,
                Trace::constant(cal(), 0.0, week()).unwrap(),
                Trace::from_samples(cal(), samples).unwrap(),
            )
            .unwrap()
        };
        // 60-minute deadline = 12 five-minute slots.
        let a = workload("a", [(0, 11.0), (11, 9.0)]);
        let b = workload("b", [(11, 11.0), (20, 9.0)]);
        let commitments = commitments(0.95);
        for alone in [&a, &b] {
            let report = fit(&AggregateLoad::of(&[alone]).unwrap(), 10.0, &commitments);
            assert!(report.fits, "{}: {report:?}", alone.name());
            assert!((report.measured_theta - 70.0 / 71.0).abs() < 1e-12);
        }
        let pooled = fit(&AggregateLoad::of(&[&a, &b]).unwrap(), 20.0, &commitments);
        // θ passes (140/141 ≈ 0.99291), but at slot 11 `a` reads 9 and `b`
        // reads 11: no surplus reaches `a`'s slot-0 backlog in time.
        assert!((pooled.measured_theta - 140.0 / 141.0).abs() < 1e-12);
        assert_eq!(pooled.violation, Some(FitViolation::DeadlineMissed));
    }

    #[test]
    fn required_capacity_matches_known_answer() {
        // Constant total demand 5.0 with theta = 1.0 commitment: required
        // capacity is 5.0 (to tolerance).
        let a = constant_workload("a", 2.0, 3.0);
        let load = AggregateLoad::of(&[&a]).unwrap();
        let req = required(&load, &commitments(1.0), 16.0, 0.01).unwrap();
        assert!((req - 5.0).abs() < 0.02, "required {req}");
    }

    #[test]
    fn required_capacity_with_statistical_theta_is_below_peak() {
        // 1 hour per day at 10, rest at 1, theta = 0.6: the busy slot only
        // needs 0.6 coverage, so required capacity sits near 6.
        let a = spiky_workload("a", 1.0, 10.0, 12);
        let load = AggregateLoad::of(&[&a]).unwrap();
        let req = required(&load, &commitments(0.6), 16.0, 0.01).unwrap();
        assert!(req < 10.0, "required {req}");
        assert!(req >= 6.0 - 0.02, "required {req}");
        // And the result actually fits while tolerance below does not.
        assert!(fit(&load, req, &commitments(0.6)).fits);
        assert!(!fit(&load, req - 0.05, &commitments(0.6)).fits);
    }

    #[test]
    fn required_capacity_is_none_when_infeasible() {
        let a = constant_workload("a", 20.0, 0.0);
        let load = AggregateLoad::of(&[&a]).unwrap();
        assert_eq!(required(&load, &commitments(0.9), 16.0, 0.01), None);
    }

    #[test]
    fn required_capacity_zero_demand() {
        let a = constant_workload("a", 0.0, 0.0);
        let load = AggregateLoad::of(&[&a]).unwrap();
        let req = required(&load, &commitments(0.9), 16.0, 0.01).unwrap();
        assert_eq!(req, 0.0);
    }

    #[test]
    fn higher_theta_commitment_needs_more_capacity() {
        let a = spiky_workload("a", 1.0, 10.0, 12);
        let load = AggregateLoad::of(&[&a]).unwrap();
        let lo = required(&load, &commitments(0.6), 16.0, 0.01).unwrap();
        let hi = required(&load, &commitments(0.95), 16.0, 0.01).unwrap();
        assert!(hi > lo, "hi {hi} lo {lo}");
    }

    #[test]
    fn memory_overflow_is_detected_before_cpu() {
        let a = constant_workload("a", 1.0, 1.0);
        let mem = Trace::constant(cal(), 48.0, week()).unwrap();
        let a = a.with_memory(mem).unwrap();
        let b = constant_workload("b", 1.0, 1.0)
            .with_memory(Trace::constant(cal(), 24.0, week()).unwrap())
            .unwrap();
        let load = AggregateLoad::of(&[&a, &b]).unwrap();
        assert_eq!(load.memory_peak(), 72.0);
        // CPU easily fits, memory (72 > 64) does not.
        let report = fit_mem(&load, 16.0, 64.0, &commitments(0.9));
        assert!(!report.fits);
        assert_eq!(report.violation, Some(FitViolation::MemoryOverflow));
        // With enough memory the same set fits.
        let report = fit_mem(&load, 16.0, 128.0, &commitments(0.9));
        assert!(report.fits);
        // The single-attribute entry point ignores memory entirely.
        assert!(fit(&load, 16.0, &commitments(0.9)).fits);
    }

    #[test]
    fn workloads_without_memory_have_zero_footprint() {
        let a = constant_workload("a", 1.0, 1.0);
        let load = AggregateLoad::of(&[&a]).unwrap();
        assert_eq!(load.memory_peak(), 0.0);
        assert!(fit_mem(&load, 16.0, 0.5, &commitments(0.9)).fits);
    }

    #[test]
    fn required_capacity_with_memory_gates_on_the_memory_attribute() {
        let a = constant_workload("a", 1.0, 2.0)
            .with_memory(Trace::constant(cal(), 40.0, week()).unwrap())
            .unwrap();
        let load = AggregateLoad::of(&[&a]).unwrap();
        assert_eq!(
            required_mem(&load, &commitments(1.0), 16.0, 32.0, 0.05),
            None
        );
        let req = required_mem(&load, &commitments(1.0), 16.0, 64.0, 0.05)
            .expect("fits with enough memory");
        // Memory does not change the CPU requirement.
        assert!((req - 3.0).abs() < 0.1, "required {req}");
    }

    #[test]
    fn aggregate_is_canonical_in_member_order() {
        let a = spiky_workload("a", 0.3, 7.1, 5);
        let b = spiky_workload("b", 1.7, 3.3, 9);
        let c = spiky_workload("c", 0.9, 2.2, 3);
        let fwd = AggregateLoad::of(&[&a, &b, &c]).unwrap();
        let rev = AggregateLoad::of(&[&c, &a, &b]).unwrap();
        assert_eq!(fwd, rev);
        let names: Vec<&str> = fwd.members().iter().map(Workload::name).collect();
        assert_eq!(names, ["a", "b", "c"]);
    }

    #[test]
    fn remove_then_readd_round_trips_bit_identically() {
        let a = spiky_workload("a", 0.3, 7.1, 5);
        let b = spiky_workload("b", 1.7, 3.3, 9);
        let c = spiky_workload("c", 0.9, 2.2, 3);
        let cold = AggregateLoad::of(&[&a, &b, &c]).unwrap();
        let mut load = cold.clone();
        let removed = load.remove("b").unwrap();
        assert_eq!(removed.name(), "b");
        assert_eq!(load, AggregateLoad::of(&[&a, &c]).unwrap());
        load.add(&removed).unwrap();
        assert_eq!(load, cold);
        // Bitwise, not just PartialEq: the slot sums carry no residue.
        for (a, b) in load.totals().iter().zip(cold.totals()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            load.cos1_peak_sum().to_bits(),
            cold.cos1_peak_sum().to_bits()
        );
    }

    #[test]
    fn incremental_add_matches_cold_build() {
        let a = spiky_workload("a", 0.3, 7.1, 5);
        let b = spiky_workload("b", 1.7, 3.3, 9);
        let mut load = AggregateLoad::of(&[&b]).unwrap();
        load.add(&a).unwrap();
        assert_eq!(load, AggregateLoad::of(&[&a, &b]).unwrap());
    }

    #[test]
    fn add_rejects_misaligned_remove_rejects_unknown_and_last() {
        let a = constant_workload("a", 1.0, 1.0);
        let mut load = AggregateLoad::of(&[&a]).unwrap();
        let short = Workload::new(
            "s",
            Trace::constant(cal(), 1.0, week() * 2).unwrap(),
            Trace::constant(cal(), 1.0, week() * 2).unwrap(),
        )
        .unwrap();
        assert!(matches!(
            load.add(&short),
            Err(PlacementError::MisalignedWorkloads { .. })
        ));
        assert!(load.remove("nope").is_err());
        // Removing the last member is rejected: drop the aggregate instead.
        assert!(load.remove("a").is_err());
        assert_eq!(load.members().len(), 1);
    }

    #[test]
    fn long_mutation_history_stays_bit_exact() {
        // 200 admit/depart/readmit mutations over a 12-workload pool,
        // crossing the periodic-compaction boundary several times; the
        // final state must be bit-identical to a cold build of the set.
        let pool: Vec<Workload> = (0..12)
            .map(|i| {
                spiky_workload(
                    &format!("w{i:02}"),
                    0.2 + i as f64 * 0.13,
                    3.0 + i as f64 * 0.7,
                    3 + i % 7,
                )
            })
            .collect();
        let mut load = AggregateLoad::of(&[&pool[0], &pool[1], &pool[2]]).unwrap();
        for step in 0..200 {
            let w = &pool[step % pool.len()];
            let is_member = load.members().iter().any(|m| m.name() == w.name());
            if is_member && load.members().len() > 1 {
                load.remove(w.name()).unwrap();
            } else if !is_member {
                load.add(w).unwrap();
            }
        }
        let refs: Vec<&Workload> = load.members().iter().collect();
        let names: Vec<String> = refs.iter().map(|w| w.name().to_string()).collect();
        let cold_members: Vec<&Workload> = pool
            .iter()
            .filter(|w| names.contains(&w.name().to_string()))
            .collect();
        let cold = AggregateLoad::of(&cold_members).unwrap();
        assert_eq!(load, cold);
        for (a, b) in load.totals().iter().zip(cold.totals()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(
            load.cos1_peak_sum().to_bits(),
            cold.cos1_peak_sum().to_bits()
        );
    }

    #[test]
    fn duplicate_names_fall_back_to_cold_rebuilds() {
        // Duplicate names have no canonical set order; the aggregate must
        // still mutate correctly via its cold-rebuild fallback.
        let a1 = spiky_workload("dup", 0.5, 2.0, 4);
        let a2 = spiky_workload("dup", 1.0, 3.0, 6);
        let b = spiky_workload("z", 0.2, 1.0, 2);
        let mut load = AggregateLoad::of(&[&a1, &a2]).unwrap();
        load.add(&b).unwrap();
        assert_eq!(load.members().len(), 3);
        let removed = load.remove("dup").unwrap();
        assert_eq!(removed.name(), "dup");
        assert_eq!(load.members().len(), 2);
        assert!(load.total_peak() > 0.0);
    }

    #[test]
    fn pooled_aggregates_recycle_their_buffers() {
        let a = spiky_workload("a", 0.3, 7.1, 5);
        let b = spiky_workload("b", 1.7, 3.3, 9);
        let mut arena = SlotArena::new();
        let pooled = AggregateLoad::of_pooled(&[&a, &b], &mut arena).unwrap();
        assert_eq!(pooled, AggregateLoad::of(&[&a, &b]).unwrap());
        pooled.recycle(&mut arena);
        let before = arena.pooled();
        assert!(before > 0);
        // A second pooled build reuses the returned buffers.
        let again = AggregateLoad::of_pooled(&[&a, &b], &mut arena).unwrap();
        again.recycle(&mut arena);
        assert_eq!(arena.pooled(), before);
    }

    #[test]
    fn aggregate_rejects_empty_set() {
        assert!(matches!(
            AggregateLoad::of(&[]),
            Err(PlacementError::NoWorkloads)
        ));
    }

    // The scalar θ / deadline / bisection loops the exceedance index
    // replaced, kept verbatim as the oracle the index must match bit for
    // bit: every slot of every group, every slot of the deadline replay,
    // every constraint of every probe.

    fn oracle_access_probability(load: &AggregateLoad, capacity: f64) -> f64 {
        let per_day = load.calendar.slots_per_day();
        let per_week = load.calendar.slots_per_week();
        let weeks = load.len() / per_week;
        let mut theta: f64 = 1.0;
        for w in 0..weeks {
            for t in 0..per_day {
                let mut satisfied = 0.0;
                let mut requested = 0.0;
                for day in 0..7 {
                    let a = load.totals()[w * per_week + day * per_day + t];
                    satisfied += a.min(capacity);
                    requested += a;
                }
                if requested > 0.0 {
                    theta = theta.min(satisfied / requested);
                }
            }
        }
        theta
    }

    fn oracle_deadline_satisfied(
        load: &AggregateLoad,
        capacity: f64,
        deadline_slots: usize,
    ) -> bool {
        let mut backlog: VecDeque<(usize, f64)> = VecDeque::new();
        for (slot, &total) in load.totals().iter().enumerate() {
            if total > capacity {
                backlog.push_back((slot, total - capacity));
            } else {
                let mut surplus = capacity - total;
                while surplus > EPSILON {
                    let Some(front) = backlog.front_mut() else {
                        break;
                    };
                    let served = front.1.min(surplus);
                    front.1 -= served;
                    surplus -= served;
                    if front.1 <= EPSILON {
                        backlog.pop_front();
                    }
                }
            }
            if let Some(&(arrival, _)) = backlog.front() {
                if slot >= arrival + deadline_slots {
                    return false;
                }
            }
        }
        backlog.is_empty()
    }

    fn oracle_evaluate(
        load: &AggregateLoad,
        commitments: &PoolCommitments,
        options: FitOptions,
        capacity: f64,
    ) -> FitReport {
        let cos1_peak_sum = load.cos1_peak_sum();
        if load.memory_peak() > options.memory_capacity() + EPSILON {
            return FitReport {
                fits: false,
                violation: Some(FitViolation::MemoryOverflow),
                cos1_peak_sum,
                measured_theta: 0.0,
                deadline_met: false,
            };
        }
        if cos1_peak_sum > capacity + EPSILON {
            return FitReport {
                fits: false,
                violation: Some(FitViolation::Cos1Overflow),
                cos1_peak_sum,
                measured_theta: 0.0,
                deadline_met: false,
            };
        }
        let measured_theta = oracle_access_probability(load, capacity);
        let deadline_slots = load
            .calendar()
            .slots_in_minutes(commitments.cos2.deadline_minutes());
        let deadline_met = oracle_deadline_satisfied(load, capacity, deadline_slots);
        let theta_ok = measured_theta + EPSILON >= commitments.cos2.theta();
        let violation = if !theta_ok {
            Some(FitViolation::ThetaShortfall)
        } else if !deadline_met {
            Some(FitViolation::DeadlineMissed)
        } else {
            None
        };
        FitReport {
            fits: violation.is_none(),
            violation,
            cos1_peak_sum,
            measured_theta,
            deadline_met,
        }
    }

    fn oracle_required_capacity(
        load: &AggregateLoad,
        commitments: &PoolCommitments,
        options: FitOptions,
        limit: f64,
    ) -> Option<f64> {
        let tolerance = options.tolerance();
        let fits = |capacity| oracle_evaluate(load, commitments, options, capacity).fits;
        if !fits(limit) {
            return None;
        }
        let mut hi = limit;
        let mut lo = 0.0f64;
        if fits(lo.max(EPSILON)) {
            return Some(0.0);
        }
        while hi - lo > tolerance {
            let mid = 0.5 * (hi + lo);
            if fits(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Some(hi)
    }

    /// A report with its floats as bits, so `-0.0`/`+0.0` and NaN
    /// payloads count as differences.
    fn report_bits(r: &FitReport) -> (bool, Option<FitViolation>, u64, u64, bool) {
        (
            r.fits,
            r.violation,
            r.cos1_peak_sum.to_bits(),
            r.measured_theta.to_bits(),
            r.deadline_met,
        )
    }

    /// Hourly slots: 24-slot days and 168-slot weeks, so every load ends
    /// in a short (8-slot) skip block.
    fn hourly() -> Calendar {
        Calendar::new(60).unwrap()
    }

    /// A random aggregate of `members` workloads over `weeks` weeks.
    ///
    /// Demand moves between a quiet and a busy regime (bursts long enough
    /// to build a multi-slot backlog) and mixes zeros, a plateau at 3.0,
    /// half-unit steps and arbitrary floats. The first member's CoS1 is
    /// zero, the others carry a small CoS1 share on some draws.
    fn random_load(rng: &mut TestRng, weeks: usize, members: usize) -> AggregateLoad {
        let len = hourly().slots_per_week() * weeks;
        let mut busy = false;
        let workloads: Vec<Workload> = (0..members)
            .map(|m| {
                let with_cos1 = m > 0 && rng.next_below(2) == 0;
                let mut cos1 = Vec::with_capacity(len);
                let mut cos2 = Vec::with_capacity(len);
                for _ in 0..len {
                    if rng.next_below(8) == 0 {
                        busy = !busy;
                    }
                    let demand = match rng.next_below(5) {
                        0 => 0.0,
                        1 => 3.0,
                        2 => rng.next_below(12) as f64 * 0.5,
                        _ => rng.next_f64() * 4.0,
                    } + if busy { 4.0 } else { 0.0 };
                    let share = if with_cos1 { 0.1 * rng.next_f64() } else { 0.0 };
                    cos1.push(demand * share);
                    cos2.push(demand - demand * share);
                }
                Workload::new(
                    format!("w{m}"),
                    Trace::from_samples(hourly(), cos1).unwrap(),
                    Trace::from_samples(hourly(), cos2).unwrap(),
                )
                .unwrap()
            })
            .collect();
        let refs: Vec<&Workload> = workloads.iter().collect();
        AggregateLoad::of(&refs).unwrap()
    }

    /// Capacities that sit exactly on the index's thresholds — a group
    /// maximum, a block maximum, a plateau value shared by many slots —
    /// plus zero, the search's floor, a random level and the peaks.
    fn probe_capacities(load: &AggregateLoad, rng: &mut TestRng) -> Vec<f64> {
        let index = ExceedanceIndex::new(load);
        let mut pick = |values: &[f64]| values[rng.next_below(values.len() as u64) as usize];
        let mut capacities = vec![
            0.0,
            EPSILON,
            3.0,
            pick(&index.group_max),
            pick(&index.group_max),
            pick(&index.block_max),
            pick(&index.block_max),
            pick(load.totals()),
            load.total_peak(),
            load.total_peak() + 1.0,
        ];
        capacities.push(rng.next_f64() * load.total_peak());
        capacities
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn indexed_kernel_is_bit_identical_to_the_scalar_oracle(
            seed in 0u64..u64::MAX,
            weeks in 1usize..=3,
            members in 1usize..=4,
            theta in 0.3f64..=1.0,
        ) {
            let mut rng = TestRng::from_seed(seed);
            let load = random_load(&mut rng, weeks, members);
            for capacity in probe_capacities(&load, &mut rng) {
                prop_assert_eq!(
                    access_probability(&load, capacity).to_bits(),
                    oracle_access_probability(&load, capacity).to_bits(),
                    "θ at {}", capacity
                );
                for deadline in [0, 1, 12] {
                    prop_assert_eq!(
                        deadline_satisfied(&load, capacity, deadline),
                        oracle_deadline_satisfied(&load, capacity, deadline),
                        "deadline {} at {}", deadline, capacity
                    );
                }
                // Deadlines of 0, 1 and 12 hourly slots.
                for minutes in [0, 60, 720] {
                    let commitments = PoolCommitments::new(CosSpec::new(theta, minutes).unwrap());
                    prop_assert_eq!(
                        report_bits(&FitRequest::new(&load, &commitments).evaluate(capacity)),
                        report_bits(&oracle_evaluate(&load, &commitments, FitOptions::new(), capacity)),
                        "report at {} with {} min", capacity, minutes
                    );
                }
            }
            for minutes in [0, 60, 720] {
                let commitments = PoolCommitments::new(CosSpec::new(theta, minutes).unwrap());
                let options = FitOptions::new().with_tolerance(0.01);
                let limit = load.total_peak() + 1.0;
                let indexed = FitRequest::new(&load, &commitments)
                    .with_options(options)
                    .required_capacity(limit);
                let oracle = oracle_required_capacity(&load, &commitments, options, limit);
                prop_assert_eq!(indexed.map(f64::to_bits), oracle.map(f64::to_bits));
            }
        }

        #[test]
        fn fitting_is_monotone_in_capacity(
            seed in 0u64..u64::MAX,
            weeks in 1usize..=2,
            theta in 0.3f64..=1.0,
            minutes in 0u32..=720,
        ) {
            // The bisection's soundness claim: more capacity never turns a
            // fit into a misfit.
            let mut rng = TestRng::from_seed(seed);
            let members = 1 + rng.next_below(3) as usize;
            let load = random_load(&mut rng, weeks, members);
            let commitments = PoolCommitments::new(CosSpec::new(theta, minutes).unwrap());
            let request = FitRequest::new(&load, &commitments);
            let mut capacities = probe_capacities(&load, &mut rng);
            let top = load.total_peak() + 1.0;
            capacities.extend((0..16).map(|_| rng.next_f64() * top));
            capacities.sort_by(f64::total_cmp);
            let fits: Vec<bool> = capacities.iter().map(|&c| request.evaluate(c).fits).collect();
            for (pair, caps) in fits.windows(2).zip(capacities.windows(2)) {
                prop_assert!(
                    !pair[0] || pair[1],
                    "fits at {} but not at {}", caps[0], caps[1]
                );
            }
        }
    }
}
