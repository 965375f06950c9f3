//! The incremental fit-engine session: the delta re-fit path behind
//! `ropus serve` and the thin-client batch report.
//!
//! A batch consolidation answers "how should this *fixed* fleet be
//! packed?". An [`EngineSession`] answers the online question: workloads
//! arrive ([`admit`](EngineSession::admit)), leave
//! ([`depart`](EngineSession::depart)), or move
//! ([`reassign`](EngineSession::reassign)) one at a time, and only the
//! *touched* servers' [`AggregateLoad`]s and required capacities are
//! invalidated and recomputed — the rest of the pool keeps its cached
//! results. Each mutation returns a [`PlanDelta`] naming the servers it
//! invalidated; [`refresh`](EngineSession::refresh) (or any read that
//! needs fresh numbers) recomputes exactly the stale set, fanning the
//! independent per-server binary searches over
//! [`parallel_map`]. [`probe_all`](EngineSession::probe_all) answers an
//! admission's "what would each server require?" on the same fan-out.
//!
//! # Determinism
//!
//! A session's plan is a pure function of its final state (the member
//! *sets* per server), never of the delta history or thread count:
//!
//! * [`AggregateLoad`] sums its members in canonical (name-sorted) order
//!   regardless of admission order, so an incrementally maintained load
//!   is bit-identical to a cold build over the same set;
//! * each per-server required capacity is a pure function of that load,
//!   and [`parallel_map`] preserves input
//!   order, so recomputing stale servers in parallel is bit-identical to
//!   the serial path.
//!
//! The `session_matches_cold_replan` proptest in `tests/serve.rs` holds
//! this contract to arbitrary admit/depart/reassign sequences across
//! 1 and 4 threads.

use serde::{Deserialize, Serialize};

use ropus_qos::PoolCommitments;
use ropus_trace::parallel::parallel_map;

use crate::consolidate::{PlacementReport, ServerPlacement};
use crate::engine::EngineStats;
use crate::score::{assignment_score_with, ScoreModel, ServerOutcome};
use crate::server::ServerSpec;
use crate::simulator::{AggregateLoad, FitOptions, FitRequest};
use crate::workload::{validate_workloads, Workload};
use crate::PlacementError;

/// Stable identifier of a workload within one [`EngineSession`].
///
/// Ids are slot indices: the smallest free slot is reused after a
/// departure, so the id space stays dense and deterministic for any
/// admit/depart history.
pub type WorkloadId = u16;

/// What one session mutation (or refresh) did to the plan.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PlanDelta {
    /// Servers whose aggregate load or required capacity this operation
    /// invalidated (mutations) or recomputed (refresh), ascending.
    pub touched: Vec<usize>,
    /// Per-server required-capacity recomputations performed by this
    /// call; mutations defer recomputation, so theirs is 0.
    pub recomputed: usize,
}

/// One placed workload: the payload plus its current server.
#[derive(Debug, Clone)]
struct Entry {
    workload: Workload,
    server: usize,
    /// Destination server of an in-flight migration, if any: the
    /// workload still *serves* on [`Entry::server`] while the
    /// destination carries a capacity reservation for it.
    migrating_to: Option<usize>,
}

/// Per-server incremental state.
#[derive(Debug, Clone, Default)]
struct ServerState {
    /// Member workload ids, ascending.
    members: Vec<WorkloadId>,
    /// Ids reserved by in-flight migrations, ascending: their demand is
    /// booked into [`ServerState::load`] (double-booked with the source)
    /// but they are not members until the move commits.
    reserved: Vec<WorkloadId>,
    /// Incrementally maintained aggregate; `None` when the server is
    /// empty *or* the aggregate has not been built yet (after a bulk
    /// [`EngineSession::with_assignment`] load it is built on first
    /// refresh, in parallel with the required-capacity search).
    load: Option<AggregateLoad>,
    /// `None` = stale; `Some(r)` = computed, where `r` is `None` when
    /// the members do not fit at the server's capacity limit.
    required: Option<Option<f64>>,
}

impl ServerState {
    fn is_stale(&self) -> bool {
        self.required.is_none()
    }

    /// Whether neither members nor reservations occupy the server.
    fn is_vacant(&self) -> bool {
        self.members.is_empty() && self.reserved.is_empty()
    }

    /// Releases one workload from the aggregate (after a membership or
    /// reservation retain) and marks the fit stale.
    fn release(&mut self, name: &str) {
        self.load = match (self.is_vacant(), self.load.take()) {
            (true, _) | (false, None) => None,
            (false, Some(mut load)) => match load.remove(name) {
                Ok(_) => Some(load),
                // Unreachable in a consistent session; fall back to a
                // lazy rebuild rather than carrying a wrong aggregate.
                Err(_) => None,
            },
        };
        self.required = None;
    }
}

/// The incremental fit session. See the module docs for the contract.
#[derive(Debug)]
pub struct EngineSession {
    server: ServerSpec,
    commitments: PoolCommitments,
    tolerance: f64,
    threads: usize,
    entries: Vec<Option<Entry>>,
    servers: Vec<ServerState>,
    /// Cumulative per-server required-capacity recomputations.
    recomputes: u64,
}

impl EngineSession {
    /// Creates an empty session for one server type and commitment set.
    ///
    /// Defaults: tolerance 0.05 capacity units, serial refresh.
    ///
    /// # Panics
    ///
    /// Panics if the tolerance is not positive.
    pub fn new(server: ServerSpec, commitments: PoolCommitments) -> Self {
        EngineSession {
            server,
            commitments,
            tolerance: 0.05,
            threads: 1,
            entries: Vec::new(),
            servers: Vec::new(),
            recomputes: 0,
        }
    }

    /// Sets the binary-search tolerance, in capacity units.
    ///
    /// # Panics
    ///
    /// Panics if the tolerance is not positive.
    pub fn with_tolerance(mut self, tolerance: f64) -> Self {
        assert!(tolerance > 0.0, "tolerance must be positive");
        self.tolerance = tolerance;
        self
    }

    /// Sets the worker-thread count for refreshes and
    /// [`probe_all`](Self::probe_all); values below 1 are clamped to 1
    /// (serial). Thread count never changes any result.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Bulk-loads a fleet under a given assignment — the cold-start path
    /// used by the batch report and by snapshot comparisons. Aggregates
    /// are built lazily on the first refresh so the whole pool is summed
    /// and searched on the worker pool in one pass.
    ///
    /// # Errors
    ///
    /// Returns a [`PlacementError`] when the fleet fails
    /// [`validate_workloads`], contains duplicate names, or the
    /// assignment length differs from the fleet size.
    pub fn with_assignment(
        mut self,
        workloads: &[Workload],
        assignment: &[usize],
    ) -> Result<Self, PlacementError> {
        validate_workloads(workloads)?;
        if workloads.len() != assignment.len() {
            return Err(PlacementError::Infeasible {
                servers: self.servers.len(),
                message: format!(
                    "assignment covers {} workloads, fleet has {}",
                    assignment.len(),
                    workloads.len()
                ),
            });
        }
        assert!(
            self.entries.is_empty(),
            "bulk load requires a fresh session"
        );
        for (workload, &server) in workloads.iter().zip(assignment) {
            self.check_admissible(workload)?;
            let id = self.entries.len() as WorkloadId;
            self.entries.push(Some(Entry {
                workload: workload.clone(),
                server,
                migrating_to: None,
            }));
            self.server_mut(server).members.push(id);
        }
        Ok(self)
    }

    /// The server type.
    pub fn server(&self) -> ServerSpec {
        self.server
    }

    /// The pool commitments.
    pub fn commitments(&self) -> PoolCommitments {
        self.commitments
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of live (placed) workloads.
    pub fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// Whether no workload is placed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of servers the session has touched so far (including ones
    /// that are currently empty).
    pub fn server_count(&self) -> usize {
        self.servers.len()
    }

    /// Cumulative per-server required-capacity recomputations — the
    /// quantity the incremental path exists to minimize.
    pub fn recomputes(&self) -> u64 {
        self.recomputes
    }

    /// Live workload ids, ascending.
    pub fn live_ids(&self) -> Vec<WorkloadId> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_some())
            .map(|(i, _)| i as WorkloadId)
            .collect()
    }

    /// The workload behind an id, if it is live.
    pub fn workload(&self, id: WorkloadId) -> Option<&Workload> {
        self.entry(id).map(|e| &e.workload)
    }

    /// The server an id is currently placed on, if it is live.
    pub fn assignment_of(&self, id: WorkloadId) -> Option<usize> {
        self.entry(id).map(|e| e.server)
    }

    /// Looks a live workload up by name.
    pub fn find(&self, name: &str) -> Option<WorkloadId> {
        self.entries
            .iter()
            .position(|e| e.as_ref().is_some_and(|e| e.workload.name() == name))
            .map(|i| i as WorkloadId)
    }

    /// Member ids of one server, ascending (empty for untouched servers).
    pub fn server_members(&self, server: usize) -> &[WorkloadId] {
        self.servers.get(server).map_or(&[], |s| &s.members)
    }

    fn entry(&self, id: WorkloadId) -> Option<&Entry> {
        self.entries.get(id as usize).and_then(Option::as_ref)
    }

    fn server_mut(&mut self, server: usize) -> &mut ServerState {
        if server >= self.servers.len() {
            self.servers.resize_with(server + 1, ServerState::default);
        }
        // lint:allow(panic-slice-index): resized to cover `server` above.
        &mut self.servers[server]
    }

    /// Validates a candidate against the live fleet: unique name, aligned
    /// calendar/length, whole weeks.
    fn check_admissible(&self, workload: &Workload) -> Result<(), PlacementError> {
        if self.find(workload.name()).is_some() {
            return Err(PlacementError::DuplicateWorkload {
                name: workload.name().to_string(),
            });
        }
        let anchor = self.entries.iter().flatten().next().map(|e| &e.workload);
        validate_workloads(anchor.into_iter().chain(std::iter::once(workload)))?;
        Ok(())
    }

    /// Admits one workload onto a server, invalidating only that server.
    /// Returns the workload's stable id and the delta.
    ///
    /// # Errors
    ///
    /// Returns a [`PlacementError`] when the workload's name is already
    /// live, its traces are misaligned with the fleet, or it does not
    /// cover whole weeks.
    ///
    /// # Panics
    ///
    /// Panics if the session already holds `u16::MAX` slots.
    pub fn admit(
        &mut self,
        workload: Workload,
        server: usize,
    ) -> Result<(WorkloadId, PlanDelta), PlacementError> {
        self.check_admissible(&workload)?;
        let slot = self.entries.iter().position(Option::is_none);
        let id = match slot {
            Some(free) => free,
            None => {
                assert!(self.entries.len() < u16::MAX as usize, "session is full");
                self.entries.push(None);
                self.entries.len() - 1
            }
        } as WorkloadId;
        let delta = self.place(workload, server, id)?;
        Ok((id, delta))
    }

    /// Inserts a validated workload into a known-empty slot on a server,
    /// maintaining that server's membership and aggregate.
    fn place(
        &mut self,
        workload: Workload,
        server: usize,
        id: WorkloadId,
    ) -> Result<PlanDelta, PlacementError> {
        let state = self.server_mut(server);
        let at = state.members.partition_point(|&m| m < id);
        state.members.insert(at, id);
        // Maintain the aggregate incrementally when it exists; a lazy
        // (not-yet-built) aggregate stays lazy.
        let mut load_err = None;
        if let Some(load) = state.load.as_mut() {
            if let Err(e) = load.add(&workload) {
                load_err = Some(e);
            }
        } else if state.members.len() == 1 && state.reserved.is_empty() {
            match AggregateLoad::of(&[&workload]) {
                Ok(load) => state.load = Some(load),
                Err(e) => load_err = Some(e),
            }
        }
        if let Some(e) = load_err {
            // Roll the membership back so the session stays consistent.
            state.members.retain(|&m| m != id);
            return Err(e);
        }
        state.required = None;
        // lint:allow(panic-slice-index): callers pass an id that indexes
        // `entries` (a reused free slot, a freshly pushed one, or the
        // slot a reassign just vacated).
        self.entries[id as usize] = Some(Entry {
            workload,
            server,
            migrating_to: None,
        });
        Ok(PlanDelta {
            touched: vec![server],
            recomputed: 0,
        })
    }

    /// Removes one workload, invalidating only its server (plus the
    /// destination of any in-flight migration, which is rolled back
    /// first). Returns the departed workload and the delta.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::UnknownWorkload`] when the id is not
    /// live.
    pub fn depart(&mut self, id: WorkloadId) -> Result<(Workload, PlanDelta), PlacementError> {
        let mut extra = Vec::new();
        if self.entry(id).is_some_and(|e| e.migrating_to.is_some()) {
            extra = self.rollback_migration(id)?.touched;
        }
        let entry = self
            .entries
            .get_mut(id as usize)
            .and_then(Option::take)
            .ok_or_else(|| PlacementError::UnknownWorkload {
                name: format!("#{id}"),
            })?;
        let state = self.server_mut(entry.server);
        state.members.retain(|&m| m != id);
        state.release(entry.workload.name());
        let mut touched = vec![entry.server];
        touched.extend(extra);
        touched.sort_unstable();
        touched.dedup();
        Ok((
            entry.workload,
            PlanDelta {
                touched,
                recomputed: 0,
            },
        ))
    }

    /// Moves one workload to another server — the single-workload re-fit
    /// — invalidating exactly the two touched servers. Equivalent to a
    /// zero-cost migration: [`begin_migration`](Self::begin_migration)
    /// and [`commit_migration`](Self::commit_migration) back to back,
    /// which leaves the exact same per-server aggregates bit-for-bit as
    /// the historical depart-and-place path (same add on the
    /// destination, same remove on the source).
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::UnknownWorkload`] when the id is not
    /// live.
    pub fn reassign(&mut self, id: WorkloadId, server: usize) -> Result<PlanDelta, PlacementError> {
        let from = self
            .assignment_of(id)
            .ok_or_else(|| PlacementError::UnknownWorkload {
                name: format!("#{id}"),
            })?;
        if self.entry(id).is_some_and(|e| e.migrating_to.is_some()) {
            self.rollback_migration(id)?;
        }
        if from == server {
            return Ok(PlanDelta::default());
        }
        self.begin_migration(id, server)?;
        self.commit_migration(id)
    }

    /// Opens a migration of one workload to `to`: the destination books
    /// the workload's demand into its aggregate (double-booked with the
    /// source, which keeps serving) and is invalidated; the source is
    /// untouched. The move stays open until
    /// [`commit_migration`](Self::commit_migration) or
    /// [`rollback_migration`](Self::rollback_migration).
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::UnknownWorkload`] when the id is not
    /// live and [`PlacementError::InvalidServer`] when the workload is
    /// already migrating or `to` is its current server.
    pub fn begin_migration(
        &mut self,
        id: WorkloadId,
        to: usize,
    ) -> Result<PlanDelta, PlacementError> {
        let entry = self
            .entry(id)
            .ok_or_else(|| PlacementError::UnknownWorkload {
                name: format!("#{id}"),
            })?;
        if entry.migrating_to.is_some() {
            return Err(PlacementError::InvalidServer {
                message: format!("workload #{id} is already migrating"),
            });
        }
        if entry.server == to {
            return Err(PlacementError::InvalidServer {
                message: format!("workload #{id} already serves on server {to}"),
            });
        }
        let workload = entry.workload.clone();
        let state = self.server_mut(to);
        let at = state.reserved.partition_point(|&m| m < id);
        state.reserved.insert(at, id);
        let mut load_err = None;
        if let Some(load) = state.load.as_mut() {
            if let Err(e) = load.add(&workload) {
                load_err = Some(e);
            }
        } else if state.members.is_empty() && state.reserved.len() == 1 {
            match AggregateLoad::of(&[&workload]) {
                Ok(load) => state.load = Some(load),
                Err(e) => load_err = Some(e),
            }
        }
        if let Some(e) = load_err {
            state.reserved.retain(|&m| m != id);
            return Err(e);
        }
        state.required = None;
        if let Some(entry) = self.entries.get_mut(id as usize).and_then(Option::as_mut) {
            entry.migrating_to = Some(to);
        }
        Ok(PlanDelta {
            touched: vec![to],
            recomputed: 0,
        })
    }

    /// Commits an open migration: the source releases the workload, the
    /// destination promotes its reservation to membership. The
    /// destination's aggregate already carries the workload, so only the
    /// source is invalidated by the release; the membership flip itself
    /// changes no demand.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::UnknownWorkload`] when the id is not
    /// live and [`PlacementError::InvalidServer`] when no migration is
    /// open for it.
    pub fn commit_migration(&mut self, id: WorkloadId) -> Result<PlanDelta, PlacementError> {
        let (from, to, name) = self.open_migration(id)?;
        let state = self.server_mut(from);
        state.members.retain(|&m| m != id);
        state.release(&name);
        let state = self.server_mut(to);
        state.reserved.retain(|&m| m != id);
        let at = state.members.partition_point(|&m| m < id);
        state.members.insert(at, id);
        if let Some(entry) = self.entries.get_mut(id as usize).and_then(Option::as_mut) {
            entry.server = to;
            entry.migrating_to = None;
        }
        Ok(PlanDelta {
            touched: vec![from.min(to), from.max(to)],
            recomputed: 0,
        })
    }

    /// Rolls an open migration back: the destination releases its
    /// reservation and is invalidated. The source was never mutated by
    /// the migration, so its aggregate and cached fit are bit-exactly
    /// what they were before [`begin_migration`](Self::begin_migration)
    /// — the nothing-subtracted invariant the rollback proptest holds.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::UnknownWorkload`] when the id is not
    /// live and [`PlacementError::InvalidServer`] when no migration is
    /// open for it.
    pub fn rollback_migration(&mut self, id: WorkloadId) -> Result<PlanDelta, PlacementError> {
        let (_, to, name) = self.open_migration(id)?;
        let state = self.server_mut(to);
        state.reserved.retain(|&m| m != id);
        state.release(&name);
        if let Some(entry) = self.entries.get_mut(id as usize).and_then(Option::as_mut) {
            entry.migrating_to = None;
        }
        Ok(PlanDelta {
            touched: vec![to],
            recomputed: 0,
        })
    }

    /// The open migration of `id` as `(from, to, name)`.
    fn open_migration(&self, id: WorkloadId) -> Result<(usize, usize, String), PlacementError> {
        let entry = self
            .entry(id)
            .ok_or_else(|| PlacementError::UnknownWorkload {
                name: format!("#{id}"),
            })?;
        let to = entry
            .migrating_to
            .ok_or_else(|| PlacementError::InvalidServer {
                message: format!("workload #{id} is not migrating"),
            })?;
        Ok((entry.server, to, entry.workload.name().to_string()))
    }

    /// Destination of the workload's in-flight migration, if one is
    /// open.
    pub fn migrating_to(&self, id: WorkloadId) -> Option<usize> {
        self.entry(id).and_then(|e| e.migrating_to)
    }

    /// Ids reserved on one server by in-flight migrations, ascending.
    pub fn server_reserved(&self, server: usize) -> &[WorkloadId] {
        self.servers.get(server).map_or(&[], |s| &s.reserved)
    }

    /// Required capacity of the named server's current members at the
    /// session tolerance, answering from cache unless the server is
    /// stale. `Some(0.0)` for empty servers, `None` when the members do
    /// not fit at the server's capacity limit.
    pub fn server_required(&mut self, server: usize) -> Option<f64> {
        if self
            .servers
            .get(server)
            .is_none_or(|state| !state.is_stale())
        {
            return self
                .servers
                .get(server)
                .and_then(|s| s.required)
                .unwrap_or(Some(0.0));
        }
        self.refresh();
        self.servers.get(server).and_then(|s| s.required)?
    }

    /// Probes an admission without mutating the session: the capacity the
    /// server would require with `workload` added to its current members,
    /// or `None` when the enlarged set does not fit.
    ///
    /// # Errors
    ///
    /// Returns a [`PlacementError`] when the workload fails admission
    /// validation (duplicate name, misaligned, partial weeks).
    pub fn probe(&self, workload: &Workload, server: usize) -> Result<Option<f64>, PlacementError> {
        self.check_admissible(workload)?;
        self.probe_validated(workload, server)
    }

    /// [`probe`](Self::probe) against every server in
    /// `0..server_count()`, in server order: the candidate is validated
    /// once, then the independent per-server probes fan out over the
    /// worker pool. Each probe is a pure function of its server's member
    /// set and [`parallel_map`] joins in input order, so the result is
    /// bit-identical to probing the servers one by one, at any thread
    /// count.
    ///
    /// # Errors
    ///
    /// As for [`probe`](Self::probe); a failing server reports the first
    /// error in server order.
    pub fn probe_all(&self, workload: &Workload) -> Result<Vec<Option<f64>>, PlacementError> {
        self.check_admissible(workload)?;
        let servers: Vec<usize> = (0..self.servers.len()).collect();
        parallel_map(self.threads, &servers, |&server| {
            self.probe_validated(workload, server)
        })
        .into_iter()
        .collect()
    }

    /// One probe of an already validated candidate: aggregate the
    /// server's members and reservations with the candidate, then search
    /// the required capacity.
    fn probe_validated(
        &self,
        workload: &Workload,
        server: usize,
    ) -> Result<Option<f64>, PlacementError> {
        let mut refs: Vec<&Workload> = self
            .server_members(server)
            .iter()
            .chain(self.server_reserved(server))
            .filter_map(|&id| self.workload(id))
            .collect();
        refs.push(workload);
        let load = AggregateLoad::of(&refs)?;
        Ok(self.required_of(&load))
    }

    fn fit_options(&self) -> FitOptions {
        FitOptions::new()
            .with_memory_capacity(self.server.memory_gb())
            .with_tolerance(self.tolerance)
    }

    fn required_of(&self, load: &AggregateLoad) -> Option<f64> {
        FitRequest::new(load, &self.commitments)
            .with_options(self.fit_options())
            .required_capacity(self.server.capacity())
    }

    /// Recomputes every stale server's aggregate and required capacity,
    /// fanning the independent per-server searches over the worker pool.
    /// Untouched servers are left alone — this is the delta re-fit.
    pub fn refresh(&mut self) -> PlanDelta {
        let stale: Vec<usize> = (0..self.servers.len())
            .filter(|&s| {
                // lint:allow(panic-slice-index): s ranges over the vec.
                let state = &self.servers[s];
                state.is_stale() && !state.is_vacant()
            })
            .collect();
        // Settle trivially-vacant stale servers without a search.
        for state in &mut self.servers {
            if state.is_stale() && state.is_vacant() {
                state.required = Some(Some(0.0));
            }
        }
        if stale.is_empty() {
            return PlanDelta::default();
        }
        // Per stale server: the maintained aggregate when present, else
        // the member refs to build one from. Pure per-server work, so the
        // parallel fan-out is bit-identical to the serial path.
        let work: Vec<(Option<&AggregateLoad>, Vec<&Workload>)> = stale
            .iter()
            .map(|&s| {
                // lint:allow(panic-slice-index): stale indices come from
                // the 0..len scan above.
                let state = &self.servers[s];
                // Reserved (migrating-in) workloads count toward the fit
                // exactly like members: their demand is double-booked
                // until the move commits or rolls back.
                let refs = state
                    .members
                    .iter()
                    .chain(&state.reserved)
                    .filter_map(|&id| self.entry(id).map(|e| &e.workload))
                    .collect();
                (state.load.as_ref(), refs)
            })
            .collect();
        let results: Vec<(Option<AggregateLoad>, Option<f64>)> =
            parallel_map(self.threads, &work, |(load, refs)| match load {
                Some(load) => (None, self.required_of(load)),
                None => match AggregateLoad::of(refs) {
                    Ok(load) => {
                        let required = self.required_of(&load);
                        (Some(load), required)
                    }
                    // Unreachable for a consistent session (members were
                    // validated on admission); surface as "does not fit".
                    Err(_) => (None, None),
                },
            });
        let recomputed = results.len();
        for (&s, (built, required)) in stale.iter().zip(results) {
            // lint:allow(panic-slice-index): stale indices are in range.
            let state = &mut self.servers[s];
            if let Some(load) = built {
                state.load = Some(load);
            }
            state.required = Some(required);
        }
        self.recomputes = self.recomputes.saturating_add(recomputed as u64);
        PlanDelta {
            touched: stale,
            recomputed,
        }
    }

    /// The live plan as a [`PlacementReport`], refreshing stale servers
    /// first.
    ///
    /// Workload indices in the report refer to positions in the live-id
    /// order (ascending [`WorkloadId`]); [`live_ids`](Self::live_ids)
    /// maps them back to session ids. The report's `stats` are default
    /// (session counters live in [`recomputes`](Self::recomputes)), so
    /// two reports of the same final state serialize byte-identically
    /// regardless of delta history or thread count.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::NoWorkloads`] for an empty session and
    /// [`PlacementError::Infeasible`] when a server's members no longer
    /// fit at the capacity limit.
    pub fn report(&mut self) -> Result<PlacementReport, PlacementError> {
        if self.is_empty() {
            return Err(PlacementError::NoWorkloads);
        }
        self.refresh();
        let live = self.live_ids();
        let position_of = |id: WorkloadId| -> usize { live.partition_point(|&l| l < id) };
        let mut assignment = Vec::with_capacity(live.len());
        for &id in &live {
            // lint:allow(panic-expect): live ids are live by definition.
            let server = self.assignment_of(id).expect("live id has a server");
            assignment.push(server);
        }
        let mut servers = Vec::new();
        let mut outcomes = Vec::with_capacity(self.servers.len());
        for (index, state) in self.servers.iter().enumerate() {
            // Empty servers contribute nothing: a touched-but-vacated
            // server must not change the score, or the report would
            // depend on the delta history rather than the final state.
            if state.members.is_empty() {
                continue;
            }
            let required = state
                .required
                .flatten()
                .ok_or_else(|| PlacementError::Infeasible {
                    servers: self.servers.len(),
                    message: format!("server {index} does not satisfy commitments"),
                })?;
            let utilization = required / self.server.capacity();
            outcomes.push(ServerOutcome::Fits {
                required,
                utilization,
            });
            servers.push(ServerPlacement {
                server: index,
                workloads: state.members.iter().map(|&id| position_of(id)).collect(),
                required_capacity: required,
                utilization,
            });
        }
        let score = assignment_score_with(&outcomes, ScoreModel::PowerTwoZ, self.server.cpus());
        let required_capacity_total = servers.iter().map(|s| s.required_capacity).sum();
        let peak_allocation_total = live
            .iter()
            .filter_map(|&id| self.workload(id))
            .map(Workload::total_peak)
            .sum();
        Ok(PlacementReport {
            servers_used: servers.len(),
            assignment,
            required_capacity_total,
            peak_allocation_total,
            score,
            servers,
            stats: EngineStats::default(),
            obs: None,
        })
    }

    /// Per-server placements of the current assignment, refreshed — the
    /// piece of [`report`](Self::report) the batch consolidation report
    /// consumes as a thin client.
    ///
    /// # Errors
    ///
    /// As for [`report`](Self::report).
    pub fn server_placements(&mut self) -> Result<Vec<ServerPlacement>, PlacementError> {
        Ok(self.report()?.servers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropus_qos::CosSpec;
    use ropus_trace::{Calendar, Trace};

    fn cal() -> Calendar {
        Calendar::five_minute()
    }

    fn commitments(theta: f64) -> PoolCommitments {
        PoolCommitments::new(CosSpec::new(theta, 60).unwrap())
    }

    fn wl(name: &str, c2: f64) -> Workload {
        Workload::new(
            name,
            Trace::constant(cal(), 0.0, cal().slots_per_week()).unwrap(),
            Trace::constant(cal(), c2, cal().slots_per_week()).unwrap(),
        )
        .unwrap()
    }

    fn session() -> EngineSession {
        EngineSession::new(ServerSpec::sixteen_way(), commitments(1.0))
    }

    #[test]
    fn admit_depart_touch_only_their_server() {
        let mut s = session();
        let (a, delta) = s.admit(wl("a", 2.0), 0).unwrap();
        assert_eq!(delta.touched, vec![0]);
        let (_b, delta) = s.admit(wl("b", 3.0), 1).unwrap();
        assert_eq!(delta.touched, vec![1]);
        let refreshed = s.refresh();
        assert_eq!(refreshed.touched, vec![0, 1]);
        assert_eq!(refreshed.recomputed, 2);
        // A third admission onto server 1 leaves server 0's cache alone.
        let (_c, _) = s.admit(wl("c", 1.0), 1).unwrap();
        let refreshed = s.refresh();
        assert_eq!(refreshed.touched, vec![1]);
        assert_eq!(refreshed.recomputed, 1);
        assert_eq!(s.recomputes(), 3);
        // Departing `a` empties server 0: required settles to 0 without
        // a search.
        let (gone, delta) = s.depart(a).unwrap();
        assert_eq!(gone.name(), "a");
        assert_eq!(delta.touched, vec![0]);
        assert_eq!(s.refresh().recomputed, 0);
        assert_eq!(s.server_required(0), Some(0.0));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn ids_reuse_the_smallest_free_slot() {
        let mut s = session();
        let (a, _) = s.admit(wl("a", 1.0), 0).unwrap();
        let (b, _) = s.admit(wl("b", 1.0), 0).unwrap();
        assert_eq!((a, b), (0, 1));
        s.depart(a).unwrap();
        let (c, _) = s.admit(wl("c", 1.0), 0).unwrap();
        assert_eq!(c, 0, "freed slot is reused");
        assert_eq!(s.find("c"), Some(0));
        assert_eq!(s.find("b"), Some(1));
        assert_eq!(s.live_ids(), vec![0, 1]);
    }

    #[test]
    fn duplicate_and_misaligned_admissions_are_rejected() {
        let mut s = session();
        s.admit(wl("a", 1.0), 0).unwrap();
        assert!(matches!(
            s.admit(wl("a", 2.0), 1),
            Err(PlacementError::DuplicateWorkload { .. })
        ));
        let short = Workload::new(
            "s",
            Trace::constant(cal(), 0.0, 100).unwrap(),
            Trace::constant(cal(), 1.0, 100).unwrap(),
        )
        .unwrap();
        assert!(s.admit(short, 0).is_err());
        assert_eq!(s.len(), 1, "failed admissions leave no residue");
        assert_eq!(s.server_members(0), &[0]);
    }

    #[test]
    fn reassign_touches_both_servers_and_keeps_id() {
        let mut s = session();
        let (a, _) = s.admit(wl("a", 2.0), 0).unwrap();
        let (_b, _) = s.admit(wl("b", 3.0), 0).unwrap();
        s.refresh();
        let delta = s.reassign(a, 2).unwrap();
        assert_eq!(delta.touched, vec![0, 2]);
        assert_eq!(s.assignment_of(a), Some(2));
        assert_eq!(s.reassign(a, 2).unwrap(), PlanDelta::default());
        assert!(s.reassign(99, 0).is_err());
    }

    #[test]
    fn reassign_keeps_id_even_with_lower_free_slots() {
        let mut s = session();
        let (a, _) = s.admit(wl("a", 1.0), 0).unwrap();
        let (b, _) = s.admit(wl("b", 1.0), 0).unwrap();
        // Slot 0 becomes a hole; the move must not migrate b into it.
        s.depart(a).unwrap();
        s.reassign(b, 1).unwrap();
        assert_eq!(s.find("b"), Some(b));
        assert_eq!(s.assignment_of(b), Some(1));
        assert_eq!(s.live_ids(), vec![b]);
    }

    #[test]
    fn server_required_matches_batch_simulator() {
        let mut s = session();
        s.admit(wl("a", 2.0), 0).unwrap();
        s.admit(wl("b", 3.0), 0).unwrap();
        let required = s.server_required(0).unwrap();
        let (a, b) = (wl("a", 2.0), wl("b", 3.0));
        let load = AggregateLoad::of(&[&a, &b]).unwrap();
        let expected = FitRequest::new(&load, &commitments(1.0))
            .with_options(
                FitOptions::new()
                    .with_memory_capacity(ServerSpec::sixteen_way().memory_gb())
                    .with_tolerance(0.05),
            )
            .required_capacity(16.0)
            .unwrap();
        assert_eq!(required.to_bits(), expected.to_bits());
    }

    #[test]
    fn probe_does_not_mutate() {
        let mut s = session();
        s.admit(wl("a", 10.0), 0).unwrap();
        let fits = s.probe(&wl("b", 5.0), 0).unwrap();
        assert!(fits.is_some());
        let overflow = s.probe(&wl("big", 10.0), 0).unwrap();
        assert!(overflow.is_none(), "20 > 16 cannot fit");
        assert!(s.probe(&wl("a", 1.0), 0).is_err(), "duplicate name");
        assert_eq!(s.len(), 1);
        assert_eq!(s.server_members(0), &[0]);
    }

    #[test]
    fn probe_all_equals_per_server_probes_at_any_thread_count() {
        let bits = |r: &[Option<f64>]| -> Vec<Option<u64>> {
            r.iter().map(|p| p.map(f64::to_bits)).collect()
        };
        let mut per_thread = Vec::new();
        for threads in [1, 4] {
            let mut s = session().with_threads(threads);
            let fleet = [
                ("a", 2.0, 0),
                ("b", 3.0, 0),
                ("c", 1.0, 0),
                ("d", 4.0, 1),
                ("e", 2.5, 1),
                ("f", 1.0, 2),
                ("g", 5.0, 3),
                ("h", 5.0, 3),
                ("i", 9.0, 4),
                ("j", 6.0, 4),
            ];
            for (name, c2, server) in fleet {
                s.admit(wl(name, c2), server).unwrap();
            }
            // Server 2 is vacated; server 3 carries an in-flight
            // reservation for `a` on top of its members.
            s.depart(s.find("f").unwrap()).unwrap();
            s.begin_migration(s.find("a").unwrap(), 3).unwrap();
            let candidate = wl("new", 3.0);
            let all = s.probe_all(&candidate).unwrap();
            let one_by_one: Vec<Option<f64>> = (0..s.server_count())
                .map(|server| s.probe(&candidate, server).unwrap())
                .collect();
            assert_eq!(all.len(), 5);
            assert_eq!(bits(&all), bits(&one_by_one), "threads {threads}");
            assert!(all[2].is_some(), "a vacated server takes the candidate");
            assert!(all[4].is_none(), "18 > 16 cannot fit");
            assert!(
                matches!(
                    s.probe_all(&wl("b", 1.0)),
                    Err(PlacementError::DuplicateWorkload { .. })
                ),
                "a duplicate name is one error, not one per server"
            );
            per_thread.push(bits(&all));
        }
        assert_eq!(per_thread[0], per_thread[1]);
    }

    #[test]
    fn report_matches_bulk_assignment_build() {
        let fleet = vec![wl("a", 2.0), wl("b", 9.0), wl("c", 9.0)];
        let assignment = vec![0, 0, 1];
        let mut incremental = session().with_threads(4);
        for (w, &srv) in fleet.iter().zip(&assignment) {
            incremental.admit(w.clone(), srv).unwrap();
        }
        let mut bulk = session().with_assignment(&fleet, &assignment).unwrap();
        let a = incremental.report().unwrap();
        let b = bulk.report().unwrap();
        assert_eq!(a, b);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "byte-identical across delta history and thread count"
        );
        assert_eq!(a.servers_used, 2);
        assert_eq!(a.assignment, assignment);
    }

    #[test]
    fn report_positions_compact_over_free_slots() {
        let mut s = session();
        let (a, _) = s.admit(wl("a", 1.0), 0).unwrap();
        s.admit(wl("b", 1.0), 1).unwrap();
        s.admit(wl("c", 1.0), 1).unwrap();
        s.depart(a).unwrap();
        let report = s.report().unwrap();
        // Live ids are [1, 2] -> positions [0, 1] on server 1.
        assert_eq!(report.assignment, vec![1, 1]);
        assert_eq!(report.servers.len(), 1);
        assert_eq!(report.servers[0].workloads, vec![0, 1]);
    }

    #[test]
    fn migration_double_books_until_commit() {
        let mut s = session();
        let (a, _) = s.admit(wl("a", 4.0), 0).unwrap();
        s.admit(wl("b", 3.0), 1).unwrap();
        let source_before = s.server_required(0).unwrap();
        let dest_alone = s.server_required(1).unwrap();
        let delta = s.begin_migration(a, 1).unwrap();
        assert_eq!(delta.touched, vec![1], "source is untouched");
        assert_eq!(s.migrating_to(a), Some(1));
        assert_eq!(s.server_reserved(1), &[a]);
        // Mid-move, both servers carry the workload's demand.
        assert_eq!(
            s.server_required(0).unwrap().to_bits(),
            source_before.to_bits()
        );
        assert!(s.server_required(1).unwrap() > dest_alone);
        let delta = s.commit_migration(a).unwrap();
        assert_eq!(delta.touched, vec![0, 1]);
        assert_eq!(s.assignment_of(a), Some(1));
        assert_eq!(s.migrating_to(a), None);
        assert!(s.server_reserved(1).is_empty());
        assert_eq!(s.server_required(0), Some(0.0));
    }

    #[test]
    fn rollback_restores_both_servers_bit_exactly() {
        let mut s = session();
        let (a, _) = s.admit(wl("a", 4.0), 0).unwrap();
        s.admit(wl("b", 3.0), 1).unwrap();
        let source_before = s.server_required(0).unwrap();
        let dest_before = s.server_required(1).unwrap();
        s.begin_migration(a, 1).unwrap();
        let delta = s.rollback_migration(a).unwrap();
        assert_eq!(delta.touched, vec![1]);
        assert_eq!(s.migrating_to(a), None);
        assert_eq!(s.assignment_of(a), Some(0));
        // Nothing was ever subtracted from the source, and the
        // destination released exactly what it booked.
        assert_eq!(
            s.server_required(0).unwrap().to_bits(),
            source_before.to_bits()
        );
        assert_eq!(
            s.server_required(1).unwrap().to_bits(),
            dest_before.to_bits()
        );
    }

    #[test]
    fn migration_guards_reject_bad_states() {
        let mut s = session();
        let (a, _) = s.admit(wl("a", 1.0), 0).unwrap();
        assert!(matches!(
            s.begin_migration(a, 0),
            Err(PlacementError::InvalidServer { .. })
        ));
        assert!(matches!(
            s.commit_migration(a),
            Err(PlacementError::InvalidServer { .. })
        ));
        s.begin_migration(a, 1).unwrap();
        assert!(matches!(
            s.begin_migration(a, 2),
            Err(PlacementError::InvalidServer { .. })
        ));
        assert!(s.begin_migration(99, 1).is_err());
        // A departure mid-move rolls the reservation back first.
        let (_, delta) = s.depart(a).unwrap();
        assert_eq!(delta.touched, vec![0, 1]);
        assert_eq!(s.server_required(1), Some(0.0));
        assert!(s.server_reserved(1).is_empty());
    }

    #[test]
    fn reassign_equals_begin_plus_commit() {
        let fleet = [wl("a", 2.0), wl("b", 3.0)];
        let mut via_reassign = session();
        let mut via_migration = session();
        for s in [&mut via_reassign, &mut via_migration] {
            for (i, w) in fleet.iter().enumerate() {
                s.admit(w.clone(), i).unwrap();
            }
        }
        via_reassign.reassign(0, 1).unwrap();
        via_migration.begin_migration(0, 1).unwrap();
        via_migration.commit_migration(0).unwrap();
        let a = via_reassign.report().unwrap();
        let b = via_migration.report().unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn infeasible_server_is_reported() {
        let mut s = session();
        s.admit(wl("a", 20.0), 0).unwrap();
        assert_eq!(s.server_required(0), None);
        assert!(matches!(s.report(), Err(PlacementError::Infeasible { .. })));
        assert!(matches!(
            session().report(),
            Err(PlacementError::NoWorkloads)
        ));
    }
}
