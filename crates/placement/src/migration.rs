//! The migration lifecycle orchestrator: a deterministic per-move state
//! machine with storm control (DESIGN.md §5i).
//!
//! R-Opus assumes placements "may be adjusted periodically" but says
//! nothing about what a move *costs*. Production pools pay for every
//! one: a drain window on the source, capacity double-booked on the
//! destination mid-transfer, a health check before the move is trusted,
//! and — after a failure — a migration storm of simultaneous moves. This
//! module models that lifecycle explicitly:
//!
//! ```text
//! Planned ──start──▶ Draining ──▶ Transferring ──▶ Cutover ──▶ HealthCheck ──▶ Committed
//!              ▲          │drain deadline                │unhealthy slot
//!              │          ▼                              ▼
//!              └─retry── RolledBack ──retries exhausted─▶ Failed
//! ```
//!
//! * **Draining** — the source keeps serving while the destination holds
//!   a capacity reservation, so both servers temporarily carry the
//!   workload (the double-booking the replay engines account for).
//!   Drain progress is gated on the destination not being contended; a
//!   configurable deadline bounds the wait.
//! * **Transferring** — a configurable slot cost for the move itself.
//! * **Cutover** — the instant the destination starts serving; the
//!   source keeps its capacity reserved through the health check so a
//!   rollback is always capacity-safe.
//! * **HealthCheck** — the destination must serve the app within its
//!   utilization band for K consecutive slots; one unhealthy slot rolls
//!   the move back. A repair move (dead source, `from == None`) has no
//!   live source to return to, so instead of rolling back it parks at
//!   the destination — still serving — with its streak reset, until the
//!   band stabilizes or a re-plan supersedes it.
//! * **Rollback / retry** — a rolled-back move re-enters `Planned` after
//!   a deterministic exponential backoff, up to a bounded retry count,
//!   then is abandoned as `Failed`.
//!
//! The **storm controller** caps concurrent in-flight moves per server
//! and fleet-wide: eligible moves start in (priority, plan-order) order
//! — repair moves of displaced apps first, ties broken by plan sequence
//! — so a mass failure produces a paced recovery wave instead of an
//! instantaneous shuffle, deterministically.
//!
//! # Determinism
//!
//! The orchestrator is a pure function of its inputs: every loop walks
//! moves in plan order, candidate starts are sorted by the total order
//! `(priority, sequence)`, and no clocks or RNG are consulted. The
//! zero-cost [`MigrationConfig::teleport`] configuration commits every
//! move inside the `begin_slot` of the slot it is planned, so serving
//! flips at that slot's start. The chaos replay and the lifecycle loop
//! run every re-placement through this machine and read residency from
//! its views; golden outputs captured from their former teleport paths
//! (`tests/golden/`, `results/lifecycle_out_of_sample.tsv`) pin that.

use serde::{Deserialize, Serialize};

use ropus_obs::ObsCtx;

/// Cost model and storm limits of the migration lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationConfig {
    /// Slots the source must drain before the transfer starts (progress
    /// is gated on the destination not being contended).
    pub drain_slots: usize,
    /// Slots the transfer itself occupies.
    pub transfer_slots: usize,
    /// Consecutive healthy slots the destination must serve before the
    /// move commits.
    pub health_slots: usize,
    /// Maximum slots a move may sit in `Draining` before it rolls back;
    /// `None` waits indefinitely.
    pub drain_deadline_slots: Option<usize>,
    /// Rollbacks a move may retry before it is abandoned as `Failed`.
    pub max_retries: usize,
    /// Base backoff after a rollback; retry r waits `backoff_slots *
    /// 2^(r-1)` slots (clamped to at least one slot).
    pub backoff_slots: usize,
    /// Fleet-wide cap on concurrent in-flight moves; `None` = unbounded.
    pub max_in_flight: Option<usize>,
    /// Per-server cap on concurrent moves a server participates in (as
    /// source or destination); `None` = unbounded.
    pub max_in_flight_per_server: Option<usize>,
}

impl MigrationConfig {
    /// The zero-cost configuration: every phase is free and no storm
    /// limits apply, so moves commit at the start of the slot they are
    /// planned in.
    pub fn teleport() -> Self {
        MigrationConfig {
            drain_slots: 0,
            transfer_slots: 0,
            health_slots: 0,
            drain_deadline_slots: None,
            max_retries: 0,
            backoff_slots: 1,
            max_in_flight: None,
            max_in_flight_per_server: None,
        }
    }

    /// A paced default: two drain slots, one transfer slot, two healthy
    /// slots to commit, two retries with a two-slot base backoff, no
    /// storm caps.
    pub fn paced() -> Self {
        MigrationConfig {
            drain_slots: 2,
            transfer_slots: 1,
            health_slots: 2,
            drain_deadline_slots: None,
            max_retries: 2,
            backoff_slots: 2,
            max_in_flight: None,
            max_in_flight_per_server: None,
        }
    }

    /// Whether every phase is free and unlimited, so a move commits in
    /// its planning slot. The serve daemon uses it to commit a `migrate`
    /// synchronously instead of minting a move ticket.
    pub fn is_teleport(&self) -> bool {
        self.drain_slots == 0
            && self.transfer_slots == 0
            && self.health_slots == 0
            && self.max_in_flight.is_none()
            && self.max_in_flight_per_server.is_none()
    }

    /// Sets the fleet-wide in-flight cap.
    pub fn with_max_in_flight(mut self, cap: usize) -> Self {
        self.max_in_flight = Some(cap);
        self
    }

    /// Sets the per-server in-flight cap.
    pub fn with_max_in_flight_per_server(mut self, cap: usize) -> Self {
        self.max_in_flight_per_server = Some(cap);
        self
    }

    /// Sets the drain deadline, in slots.
    pub fn with_drain_deadline(mut self, slots: usize) -> Self {
        self.drain_deadline_slots = Some(slots);
        self
    }

    /// The backoff before retry `retry` (1-based), in slots:
    /// `backoff_slots * 2^(retry-1)`, saturating, at least one.
    pub fn backoff_for(&self, retry: usize) -> usize {
        let base = self.backoff_slots.max(1);
        base.saturating_mul(
            1usize
                .checked_shl(retry.saturating_sub(1).min(16) as u32)
                .unwrap_or(usize::MAX),
        )
    }
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig::teleport()
    }
}

/// Lifecycle phase of one move. `Cutover` is instantaneous (recorded in
/// the timeline, never observed between slots); `Committed`, `Failed`,
/// and `Superseded` are terminal; `RolledBack` is terminal unless the
/// move immediately re-enters `Planned` for a retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MigrationPhase {
    /// Planned, waiting for a storm-controller start slot.
    Planned,
    /// Source still serving; destination capacity reserved.
    Draining,
    /// The transfer itself is in progress (both ends booked).
    Transferring,
    /// The instant the destination takes over serving.
    Cutover,
    /// Destination serving, being judged against the app's band.
    HealthCheck,
    /// The move succeeded; the source reservation is released.
    Committed,
    /// The move was undone (source serves again, or the app is unplaced
    /// when its source is gone).
    RolledBack,
    /// Retries exhausted; the move is abandoned.
    Failed,
    /// A re-plan changed the app's target while this move was underway.
    Superseded,
}

impl MigrationPhase {
    /// Stable lower-case name (obs attributes, text reports).
    pub fn as_str(self) -> &'static str {
        match self {
            MigrationPhase::Planned => "planned",
            MigrationPhase::Draining => "draining",
            MigrationPhase::Transferring => "transferring",
            MigrationPhase::Cutover => "cutover",
            MigrationPhase::HealthCheck => "health_check",
            MigrationPhase::Committed => "committed",
            MigrationPhase::RolledBack => "rolled_back",
            MigrationPhase::Failed => "failed",
            MigrationPhase::Superseded => "superseded",
        }
    }

    /// Whether the move can make no further progress.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            MigrationPhase::Committed | MigrationPhase::Failed | MigrationPhase::Superseded
        )
    }
}

/// One phase entry in a move's timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseAt {
    /// Slot at which the phase was entered.
    pub slot: usize,
    /// The phase entered.
    pub phase: MigrationPhase,
}

/// One state transition, as reported to the driving replay loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transition {
    /// Index of the move in the orchestrator's plan order.
    pub mov: usize,
    /// Application index.
    pub app: usize,
    /// Source server (`None` when the source is gone — nothing to
    /// drain, and a rollback leaves the app unplaced).
    pub from: Option<usize>,
    /// Destination server.
    pub to: usize,
    /// Phase entered.
    pub phase: MigrationPhase,
    /// Slot of the transition.
    pub slot: usize,
    /// Degraded-window attribution tag assigned at plan time.
    pub window: Option<usize>,
}

/// Internal per-move state.
#[derive(Debug, Clone)]
struct Move {
    app: usize,
    from: Option<usize>,
    to: usize,
    /// 0 = repair/displaced (source gone), 1 = rebalance; lower starts
    /// first.
    priority: u8,
    window: Option<usize>,
    phase: MigrationPhase,
    planned_slot: usize,
    /// Slot the current phase was entered.
    phase_entered: usize,
    /// Slots of progress accumulated in the current phase.
    progress: usize,
    /// Consecutive healthy slots observed in `HealthCheck`.
    streak: usize,
    retries: usize,
    /// Earliest slot a `Planned` move may start (backoff gate).
    next_eligible: usize,
    /// Whether the move has left `Planned` at least once (reservations
    /// exist only for started moves).
    started: bool,
    commit_slot: Option<usize>,
    timeline: Vec<PhaseAt>,
}

impl Move {
    fn is_active(&self) -> bool {
        !self.phase.is_terminal() && self.phase != MigrationPhase::RolledBack
    }

    fn in_flight(&self) -> bool {
        self.is_active() && self.started && self.phase != MigrationPhase::Planned
    }

    fn pre_cutover(&self) -> bool {
        matches!(
            self.phase,
            MigrationPhase::Draining | MigrationPhase::Transferring
        )
    }
}

/// Per-move outcome for the serde [`MigrationReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MoveRecord {
    /// Application index in the driving fleet.
    pub app: usize,
    /// Application name (index string when the caller has no names).
    pub name: String,
    /// Source server (`None` = source was gone when planned).
    pub from: Option<usize>,
    /// Destination server.
    pub to: usize,
    /// Start priority (0 = repair, 1 = rebalance).
    pub priority: u8,
    /// Slot the move was planned.
    pub planned_slot: usize,
    /// Final (or current) phase.
    pub outcome: MigrationPhase,
    /// Rollback retries consumed.
    pub retries: usize,
    /// Slot the move committed, if it did.
    pub commit_slot: Option<usize>,
    /// Every phase entered, in order.
    pub timeline: Vec<PhaseAt>,
}

/// Fleet-level migration outcome: per-move timelines plus recovery
/// metrics, embedded in `ChaosReport` and the CLI `--json` output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationReport {
    /// The lifecycle cost model and storm limits that produced it.
    pub config: MigrationConfig,
    /// Moves planned (each retargeting of an app is one move).
    pub planned: usize,
    /// Moves that committed.
    pub committed: usize,
    /// Rollback occurrences (a retried move may roll back repeatedly).
    pub rolled_back: usize,
    /// Moves abandoned after exhausting retries.
    pub failed: usize,
    /// Moves cancelled by a later re-plan.
    pub superseded: usize,
    /// Retry starts performed.
    pub retries: usize,
    /// Peak concurrent in-flight moves — bounded by the storm caps.
    pub peak_in_flight: usize,
    /// Move-slots spent waiting on a storm cap.
    pub deferred_slots: u64,
    /// Move-slots during which both source and destination carried the
    /// workload's demand.
    pub double_booked_slots: u64,
    /// Slot of the first commit, if any.
    pub first_commit_slot: Option<usize>,
    /// Slot of the last commit, if any.
    pub last_commit_slot: Option<usize>,
    /// Per-move timelines, in plan order.
    pub moves: Vec<MoveRecord>,
}

/// The deterministic migration state machine over one fleet.
///
/// Drive it with [`retarget`](Self::retarget) at re-plan boundaries and
/// the per-slot pair [`begin_slot`](Self::begin_slot) /
/// [`complete_slot`](Self::complete_slot); read the authoritative
/// serving assignment from [`serving`](Self::serving) and the
/// double-booked reservations from [`reservations`](Self::reservations).
#[derive(Debug, Clone)]
pub struct MigrationOrchestrator {
    config: MigrationConfig,
    /// Authoritative serving assignment per app (`None` = unplaced).
    current: Vec<Option<usize>>,
    moves: Vec<Move>,
    /// Set whenever serving or reservations may have changed; the
    /// driving loop rebuilds its hosted/reserved lists when taken.
    dirty: bool,
    peak_in_flight: usize,
    deferred_slots: u64,
    double_booked_slots: u64,
    retries_total: usize,
    rolled_back_total: usize,
}

impl MigrationOrchestrator {
    /// Creates an orchestrator over an initial serving assignment.
    pub fn new(config: MigrationConfig, initial: Vec<Option<usize>>) -> Self {
        MigrationOrchestrator {
            config,
            current: initial,
            moves: Vec::new(),
            dirty: true,
            peak_in_flight: 0,
            deferred_slots: 0,
            double_booked_slots: 0,
            retries_total: 0,
            rolled_back_total: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> MigrationConfig {
        self.config
    }

    /// The authoritative serving assignment (app → server).
    pub fn serving(&self) -> &[Option<usize>] {
        &self.current
    }

    /// Grows the app space to at least `n` (new apps are unplaced).
    pub fn ensure_apps(&mut self, n: usize) {
        if self.current.len() < n {
            self.current.resize(n, None);
        }
    }

    /// Records an externally-performed placement change (admission or
    /// departure in an online session). Does not plan a move.
    pub fn set_current(&mut self, app: usize, server: Option<usize>) {
        self.ensure_apps(app + 1);
        // lint:allow(panic-slice-index): ensure_apps grew the vec.
        self.current[app] = server;
        self.dirty = true;
    }

    /// Whether any move is planned or in flight; drivers skip per-slot
    /// work entirely when idle.
    pub fn is_idle(&self) -> bool {
        self.moves.iter().all(|m| !m.is_active())
    }

    /// Concurrent in-flight moves right now.
    pub fn in_flight(&self) -> usize {
        self.moves.iter().filter(|m| m.in_flight()).count()
    }

    /// Whether `app` has a non-terminal move (planned or in flight).
    pub fn has_active_move(&self, app: usize) -> bool {
        self.moves.iter().any(|m| m.app == app && m.is_active())
    }

    /// Moves currently in `HealthCheck`, as `(app, destination)` pairs
    /// in plan order — drivers compute health signals for exactly these.
    pub fn in_health_check(&self) -> Vec<(usize, usize)> {
        self.moves
            .iter()
            .filter(|m| m.phase == MigrationPhase::HealthCheck)
            .map(|m| (m.app, m.to))
            .collect()
    }

    /// Takes and clears the dirty flag: whether serving or reservations
    /// changed since the last take.
    pub fn take_dirty(&mut self) -> bool {
        std::mem::replace(&mut self.dirty, false)
    }

    /// Capacity reservations in force, as `(app, server)` pairs in plan
    /// order: pre-cutover moves reserve on their destination, post-
    /// cutover moves keep the source reserved until commit so a
    /// rollback is always capacity-safe.
    pub fn reservations(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for m in &self.moves {
            if !m.in_flight() {
                continue;
            }
            if m.pre_cutover() {
                out.push((m.app, m.to));
            } else if m.phase == MigrationPhase::HealthCheck {
                if let Some(from) = m.from {
                    out.push((m.app, from));
                }
            }
        }
        out
    }

    /// Plans one move explicitly (the online-daemon path). Returns the
    /// move index. The move starts at the next
    /// [`begin_slot`](Self::begin_slot) the storm controller allows.
    pub fn plan_move(
        &mut self,
        app: usize,
        to: usize,
        priority: u8,
        slot: usize,
        window: Option<usize>,
    ) -> usize {
        self.ensure_apps(app + 1);
        let from = self.current[app];
        self.moves.push(Move {
            app,
            from,
            to,
            priority,
            window,
            phase: MigrationPhase::Planned,
            planned_slot: slot,
            phase_entered: slot,
            progress: 0,
            streak: 0,
            retries: 0,
            next_eligible: slot,
            started: false,
            commit_slot: None,
            timeline: vec![PhaseAt {
                slot,
                phase: MigrationPhase::Planned,
            }],
        });
        self.moves.len() - 1
    }

    /// Cancels any active move of `app` (departure or explicit cancel),
    /// rolling a post-cutover move back to its source. Returns whether a
    /// move was cancelled.
    pub fn cancel_app(&mut self, app: usize, slot: usize, obs: ObsCtx<'_>) -> bool {
        let mut cancelled = false;
        for idx in 0..self.moves.len() {
            // lint:allow(panic-slice-index): idx ranges over the vec.
            let m = &self.moves[idx];
            if m.app != app || !m.is_active() {
                continue;
            }
            if m.phase == MigrationPhase::HealthCheck {
                let from = m.from;
                self.set_current(app, from);
            }
            self.enter(idx, MigrationPhase::Superseded, slot, obs);
            cancelled = true;
        }
        cancelled
    }

    /// Reconciles the machine with a new target assignment at a re-plan
    /// boundary (chaos segment, lifecycle epoch).
    ///
    /// `dead` lists servers that are down for the coming period. For
    /// every app: an in-flight move consistent with the target continues;
    /// an inconsistent one is superseded (rolled back to its source when
    /// past cutover); then a fresh move is planned wherever serving and
    /// target still differ. An app whose target is `None` (displaced
    /// with nowhere to go) simply stops serving — that is displacement,
    /// not a migration. Moves out of a dead server are planned with
    /// `from = None` (nothing left to drain) at priority 0 so the storm
    /// controller repairs displaced apps first.
    pub fn retarget(
        &mut self,
        target: &[Option<usize>],
        dead: &[usize],
        slot: usize,
        window: Option<usize>,
        obs: ObsCtx<'_>,
    ) {
        self.ensure_apps(target.len());
        let is_dead = |s: usize| dead.contains(&s);
        // Pass 1: reconcile in-flight moves with the new target.
        for idx in 0..self.moves.len() {
            // lint:allow(panic-slice-index): idx ranges over the vec.
            let m = &self.moves[idx];
            if !m.is_active() {
                continue;
            }
            let app = m.app;
            let want = target.get(app).copied().flatten();
            let dest_ok = want == Some(m.to) && !is_dead(m.to);
            if !dest_ok {
                if m.phase == MigrationPhase::HealthCheck {
                    // Destination was serving: hand back to the source
                    // if it is still alive, else the app is unplaced.
                    let back = m.from.filter(|&s| !is_dead(s));
                    self.set_current(app, back);
                }
                self.enter(idx, MigrationPhase::Superseded, slot, obs);
                continue;
            }
            // Destination still wanted; check the source's health.
            if let Some(from) = self.moves[idx].from {
                if is_dead(from) {
                    // Source died mid-move: nothing left to drain or
                    // roll back to.
                    let m = &mut self.moves[idx];
                    m.from = None;
                    m.priority = 0;
                    self.set_current(app, None);
                    if self.moves[idx].phase == MigrationPhase::Draining {
                        self.enter(idx, MigrationPhase::Transferring, slot, obs);
                        self.advance_free_phases(idx, slot, obs);
                    }
                }
            }
        }
        // Pass 2: the serving assignment of displaced and dead-hosted
        // apps, in app order.
        for (app, tgt) in target.iter().enumerate() {
            // lint:allow(panic-slice-index): ensure_apps covered target.
            let cur = self.current[app];
            if let Some(s) = cur {
                if is_dead(s) {
                    self.set_current(app, None);
                }
            }
            if tgt.is_none() && self.current[app].is_some() {
                // Displacement with nowhere to go: not a migration.
                self.set_current(app, None);
            }
        }
        // Pass 3: plan fresh moves where serving and target differ and
        // no active move already covers the app.
        for (app, tgt) in target.iter().enumerate() {
            let Some(to) = *tgt else { continue };
            // lint:allow(panic-slice-index): ensure_apps covered target.
            if self.current[app] == Some(to) {
                continue;
            }
            if self.moves.iter().any(|m| m.app == app && m.is_active()) {
                continue;
            }
            let from = self.current[app];
            let priority = if from.is_none() { 0 } else { 1 };
            self.plan_move(app, to, priority, slot, window);
            obs.counter("migration.planned", 1);
        }
    }

    /// Starts eligible moves under the storm caps and advances zero-cost
    /// phases; call at the top of each slot, before reading
    /// [`serving`](Self::serving) / [`reservations`](Self::reservations).
    /// Returns the transitions performed (commits included, for
    /// zero-cost configurations).
    pub fn begin_slot(&mut self, slot: usize, obs: ObsCtx<'_>) -> Vec<Transition> {
        let mut out = Vec::new();
        if self.is_idle() {
            return out;
        }
        // Candidate starts in (priority, plan-order) order — the
        // deterministic storm queue.
        let mut candidates: Vec<usize> = (0..self.moves.len())
            .filter(|&i| {
                // lint:allow(panic-slice-index): i ranges over the vec.
                let m = &self.moves[i];
                m.phase == MigrationPhase::Planned && m.next_eligible <= slot
            })
            .collect();
        candidates.sort_by_key(|&i| {
            // lint:allow(panic-slice-index): candidates index the vec.
            (self.moves[i].priority, i)
        });
        let mut in_flight = self.in_flight();
        let mut per_server: Vec<(usize, usize)> = Vec::new();
        let server_count = |per_server: &mut Vec<(usize, usize)>, s: usize| -> usize {
            per_server
                .iter()
                .find(|&&(srv, _)| srv == s)
                .map_or(0, |&(_, c)| c)
        };
        let bump = |per_server: &mut Vec<(usize, usize)>, s: usize| match per_server
            .iter_mut()
            .find(|(srv, _)| *srv == s)
        {
            Some((_, c)) => *c += 1,
            None => per_server.push((s, 1)),
        };
        for m in self.moves.iter().filter(|m| m.in_flight()) {
            bump(&mut per_server, m.to);
            if let Some(from) = m.from {
                bump(&mut per_server, from);
            }
        }
        for idx in candidates {
            // lint:allow(panic-slice-index): candidates index the vec.
            let (to, from) = (self.moves[idx].to, self.moves[idx].from);
            let fleet_ok = self.config.max_in_flight.is_none_or(|cap| in_flight < cap);
            let server_ok = self.config.max_in_flight_per_server.is_none_or(|cap| {
                server_count(&mut per_server, to) < cap
                    && from.is_none_or(|f| server_count(&mut per_server, f) < cap)
            });
            if !(fleet_ok && server_ok) {
                self.deferred_slots += 1;
                obs.counter("migration.storm.deferred", 1);
                continue;
            }
            self.moves[idx].started = true;
            out.extend(self.enter(idx, MigrationPhase::Draining, slot, obs));
            out.extend(self.advance_free_phases(idx, slot, obs));
            // lint:allow(panic-slice-index): idx still indexes the vec.
            if self.moves[idx].in_flight() {
                in_flight += 1;
                bump(&mut per_server, to);
                if let Some(f) = from {
                    bump(&mut per_server, f);
                }
            }
        }
        self.peak_in_flight = self.peak_in_flight.max(in_flight);
        // Double-booking: every in-flight move with a live source books
        // the workload on both ends this slot.
        self.double_booked_slots += self
            .moves
            .iter()
            .filter(|m| m.in_flight() && m.from.is_some())
            .count() as u64;
        out
    }

    /// Applies one slot's progress signals at the end of the slot:
    /// `contended[s]` marks servers whose capacity was contended (gates
    /// drain progress), `healthy[app]` carries the health verdict for
    /// apps in `HealthCheck` (missing entries default to contended-free
    /// / healthy). Returns the transitions performed.
    pub fn complete_slot(
        &mut self,
        slot: usize,
        contended: &[bool],
        healthy: &[bool],
        obs: ObsCtx<'_>,
    ) -> Vec<Transition> {
        let mut out = Vec::new();
        for idx in 0..self.moves.len() {
            // lint:allow(panic-slice-index): idx ranges over the vec.
            let m = &self.moves[idx];
            if !m.in_flight() {
                continue;
            }
            match m.phase {
                MigrationPhase::Draining => {
                    let dest_contended = contended.get(m.to).copied().unwrap_or(false);
                    if !dest_contended {
                        self.moves[idx].progress += 1;
                    }
                    if self.moves[idx].progress >= self.config.drain_slots {
                        out.extend(self.enter(idx, MigrationPhase::Transferring, slot, obs));
                        out.extend(self.advance_free_phases(idx, slot, obs));
                    } else if let Some(deadline) = self.config.drain_deadline_slots {
                        let elapsed = slot + 1 - self.moves[idx].phase_entered;
                        if elapsed >= deadline.max(1) {
                            out.extend(self.rollback(idx, slot, obs));
                        }
                    }
                }
                MigrationPhase::Transferring => {
                    self.moves[idx].progress += 1;
                    if self.moves[idx].progress >= self.config.transfer_slots {
                        out.extend(self.cutover(idx, slot, obs));
                    }
                }
                MigrationPhase::HealthCheck => {
                    let ok = healthy.get(m.app).copied().unwrap_or(true);
                    if !ok && m.from.is_none() {
                        // A repair move has no live source to return to;
                        // rolling back would strand the app entirely. It
                        // parks at the destination (still serving) until
                        // the band stabilizes or a re-plan supersedes it.
                        self.moves[idx].streak = 0;
                    } else if !ok {
                        out.extend(self.rollback(idx, slot, obs));
                    } else {
                        self.moves[idx].streak += 1;
                        if self.moves[idx].streak >= self.config.health_slots {
                            out.extend(self.enter(idx, MigrationPhase::Committed, slot, obs));
                        }
                    }
                }
                _ => {}
            }
        }
        out
    }

    /// Skips phases whose configured cost is zero, cascading as far as
    /// the configuration allows (for the teleport configuration, all the
    /// way to `Committed` in the planning slot).
    fn advance_free_phases(&mut self, idx: usize, slot: usize, obs: ObsCtx<'_>) -> Vec<Transition> {
        let mut out = Vec::new();
        loop {
            // lint:allow(panic-slice-index): callers pass a valid idx.
            let m = &self.moves[idx];
            match m.phase {
                MigrationPhase::Draining if m.from.is_none() || self.config.drain_slots == 0 => {
                    out.extend(self.enter(idx, MigrationPhase::Transferring, slot, obs));
                }
                MigrationPhase::Transferring if self.config.transfer_slots == 0 => {
                    out.extend(self.cutover(idx, slot, obs));
                }
                MigrationPhase::HealthCheck if self.config.health_slots == 0 => {
                    out.extend(self.enter(idx, MigrationPhase::Committed, slot, obs));
                }
                _ => break,
            }
        }
        out
    }

    /// The cutover instant: record it, flip serving to the destination,
    /// and enter `HealthCheck` (committing immediately when the health
    /// phase is free).
    fn cutover(&mut self, idx: usize, slot: usize, obs: ObsCtx<'_>) -> Vec<Transition> {
        let mut out = self.enter(idx, MigrationPhase::Cutover, slot, obs);
        // lint:allow(panic-slice-index): callers pass a valid idx.
        let (app, to) = (self.moves[idx].app, self.moves[idx].to);
        self.set_current(app, Some(to));
        out.extend(self.enter(idx, MigrationPhase::HealthCheck, slot, obs));
        out.extend(self.advance_free_phases(idx, slot, obs));
        out
    }

    /// Rolls a move back to its source and schedules a retry (after an
    /// exponential backoff) or abandons it as `Failed`.
    fn rollback(&mut self, idx: usize, slot: usize, obs: ObsCtx<'_>) -> Vec<Transition> {
        // lint:allow(panic-slice-index): callers pass a valid idx.
        let (app, from, past_cutover) = {
            let m = &self.moves[idx];
            (m.app, m.from, m.phase == MigrationPhase::HealthCheck)
        };
        if past_cutover {
            self.set_current(app, from);
        }
        self.rolled_back_total += 1;
        let mut out = self.enter(idx, MigrationPhase::RolledBack, slot, obs);
        let m = &mut self.moves[idx];
        if m.retries < self.config.max_retries {
            m.retries += 1;
            m.next_eligible = slot.saturating_add(self.config.backoff_for(m.retries));
            m.started = false;
            self.retries_total += 1;
            obs.counter("migration.retries", 1);
            out.extend(self.enter(idx, MigrationPhase::Planned, slot, obs));
        } else {
            out.extend(self.enter(idx, MigrationPhase::Failed, slot, obs));
        }
        out
    }

    /// Enters a phase: updates the move, its timeline, counters, and the
    /// obs stream, and returns the transition.
    fn enter(
        &mut self,
        idx: usize,
        phase: MigrationPhase,
        slot: usize,
        obs: ObsCtx<'_>,
    ) -> Vec<Transition> {
        // lint:allow(panic-slice-index): callers pass a valid idx.
        let m = &mut self.moves[idx];
        m.phase = phase;
        m.phase_entered = slot;
        m.progress = 0;
        m.streak = 0;
        m.timeline.push(PhaseAt { slot, phase });
        if phase == MigrationPhase::Committed {
            m.commit_slot = Some(slot);
        }
        let t = Transition {
            mov: idx,
            app: m.app,
            from: m.from,
            to: m.to,
            phase,
            slot,
            window: m.window,
        };
        self.dirty = true;
        match phase {
            MigrationPhase::Committed => obs.counter("migration.committed", 1),
            MigrationPhase::RolledBack => obs.counter("migration.rolled_back", 1),
            MigrationPhase::Failed => obs.counter("migration.failed", 1),
            MigrationPhase::Superseded => obs.counter("migration.superseded", 1),
            _ => {}
        }
        obs.event("migration.transition")
            .with_u64("app", t.app as u64)
            .with_u64("to", t.to as u64)
            .with_u64("slot", slot as u64)
            .with_str("phase", phase.as_str())
            .emit();
        vec![t]
    }

    /// Assembles the serde report; `names[app]` labels each move (index
    /// strings are used past the end).
    pub fn report(&self, names: &[&str]) -> MigrationReport {
        let moves: Vec<MoveRecord> = self
            .moves
            .iter()
            .map(|m| MoveRecord {
                app: m.app,
                name: names
                    .get(m.app)
                    .map_or_else(|| format!("#{}", m.app), |n| (*n).to_string()),
                from: m.from,
                to: m.to,
                priority: m.priority,
                planned_slot: m.planned_slot,
                outcome: m.phase,
                retries: m.retries,
                commit_slot: m.commit_slot,
                timeline: m.timeline.clone(),
            })
            .collect();
        let commit_slots: Vec<usize> = moves.iter().filter_map(|m| m.commit_slot).collect();
        MigrationReport {
            config: self.config,
            planned: moves.len(),
            committed: moves
                .iter()
                .filter(|m| m.outcome == MigrationPhase::Committed)
                .count(),
            rolled_back: self.rolled_back_total,
            failed: moves
                .iter()
                .filter(|m| m.outcome == MigrationPhase::Failed)
                .count(),
            superseded: moves
                .iter()
                .filter(|m| m.outcome == MigrationPhase::Superseded)
                .count(),
            retries: self.retries_total,
            peak_in_flight: self.peak_in_flight,
            deferred_slots: self.deferred_slots,
            double_booked_slots: self.double_booked_slots,
            first_commit_slot: commit_slots.iter().copied().min(),
            last_commit_slot: commit_slots.iter().copied().max(),
            moves,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs() -> ObsCtx<'static> {
        ObsCtx::none()
    }

    /// Drives one slot: begin, then complete with uniform signals.
    fn step(
        orch: &mut MigrationOrchestrator,
        slot: usize,
        contended: &[bool],
        healthy: &[bool],
    ) -> Vec<Transition> {
        let mut ts = orch.begin_slot(slot, obs());
        ts.extend(orch.complete_slot(slot, contended, healthy, obs()));
        ts
    }

    fn committed(ts: &[Transition]) -> Vec<usize> {
        ts.iter()
            .filter(|t| t.phase == MigrationPhase::Committed)
            .map(|t| t.app)
            .collect()
    }

    #[test]
    fn teleport_commits_in_the_planning_slot() {
        let mut orch =
            MigrationOrchestrator::new(MigrationConfig::teleport(), vec![Some(0), Some(0), None]);
        let target = vec![Some(1), Some(0), Some(1)];
        orch.retarget(&target, &[], 5, Some(0), obs());
        let ts = orch.begin_slot(5, obs());
        // Repairs (app 2, unplaced) start before rebalances (app 0).
        assert_eq!(committed(&ts), vec![2, 0]);
        assert_eq!(orch.serving(), &target[..]);
        assert!(orch.is_idle());
        let report = orch.report(&["a", "b", "c"]);
        assert_eq!(report.committed, 2);
        assert_eq!(report.double_booked_slots, 0);
        assert_eq!(
            (report.first_commit_slot, report.last_commit_slot),
            (Some(5), Some(5))
        );
        // Window attribution survives into the transitions.
        assert!(ts
            .iter()
            .filter(|t| t.phase == MigrationPhase::Committed)
            .all(|t| t.window == Some(0)));
    }

    #[test]
    fn paced_move_walks_every_phase() {
        let config = MigrationConfig {
            drain_slots: 2,
            transfer_slots: 1,
            health_slots: 2,
            ..MigrationConfig::teleport()
        };
        let mut orch = MigrationOrchestrator::new(config, vec![Some(0)]);
        orch.retarget(&[Some(1)], &[], 0, None, obs());
        // Slots 0-1 drain, slot 2 transfers (cutover at its end), slots
        // 3-4 health-check, commit at slot 4.
        for slot in 0..4 {
            let ts = step(&mut orch, slot, &[], &[true]);
            assert!(committed(&ts).is_empty(), "slot {slot} must not commit");
            let expect_serving = if slot < 2 { Some(0) } else { Some(1) };
            assert_eq!(orch.serving()[0], expect_serving, "slot {slot}");
        }
        let ts = step(&mut orch, 4, &[], &[true]);
        assert_eq!(committed(&ts), vec![0]);
        let report = orch.report(&["a"]);
        assert_eq!(report.moves[0].commit_slot, Some(4));
        // Draining + transferring slots double-book both ends.
        assert_eq!(report.double_booked_slots, 5);
        let phases: Vec<MigrationPhase> =
            report.moves[0].timeline.iter().map(|p| p.phase).collect();
        assert_eq!(
            phases,
            vec![
                MigrationPhase::Planned,
                MigrationPhase::Draining,
                MigrationPhase::Transferring,
                MigrationPhase::Cutover,
                MigrationPhase::HealthCheck,
                MigrationPhase::Committed,
            ]
        );
    }

    #[test]
    fn reservations_track_the_phase() {
        let config = MigrationConfig {
            drain_slots: 1,
            transfer_slots: 1,
            health_slots: 1,
            ..MigrationConfig::teleport()
        };
        let mut orch = MigrationOrchestrator::new(config, vec![Some(0)]);
        orch.retarget(&[Some(1)], &[], 0, None, obs());
        orch.begin_slot(0, obs());
        // Draining: destination reserved.
        assert_eq!(orch.reservations(), vec![(0, 1)]);
        orch.complete_slot(0, &[], &[true], obs());
        orch.begin_slot(1, obs());
        assert_eq!(orch.reservations(), vec![(0, 1)], "transferring");
        orch.complete_slot(1, &[], &[true], obs());
        // Post-cutover: the source stays reserved for rollback safety.
        orch.begin_slot(2, obs());
        assert_eq!(orch.reservations(), vec![(0, 0)], "health check");
        assert_eq!(orch.serving()[0], Some(1));
        orch.complete_slot(2, &[], &[true], obs());
        assert!(orch.reservations().is_empty(), "committed releases all");
    }

    #[test]
    fn storm_caps_pace_the_wave_deterministically() {
        let config = MigrationConfig {
            transfer_slots: 1,
            ..MigrationConfig::teleport()
        }
        .with_max_in_flight(2);
        let current: Vec<Option<usize>> = (0..6).map(|_| Some(0)).collect();
        let target: Vec<Option<usize>> = (0..6).map(|i| Some(1 + i % 2)).collect();
        let mut orch = MigrationOrchestrator::new(config, current);
        orch.retarget(&target, &[], 0, None, obs());
        let mut commit_order = Vec::new();
        for slot in 0..8 {
            assert!(orch.in_flight() <= 2, "cap respected at slot {slot}");
            commit_order.extend(committed(&step(&mut orch, slot, &[], &[true; 6])));
        }
        // Plan order is app order; the cap admits two per wave.
        assert_eq!(commit_order, vec![0, 1, 2, 3, 4, 5]);
        let report = orch.report(&[]);
        assert_eq!(report.peak_in_flight, 2);
        assert!(report.deferred_slots > 0, "waves defer the tail");
        assert_eq!(report.committed, 6);
    }

    #[test]
    fn per_server_cap_limits_participation() {
        let config = MigrationConfig {
            transfer_slots: 1,
            ..MigrationConfig::teleport()
        }
        .with_max_in_flight_per_server(1);
        // Both moves leave server 0: only one may run at a time.
        let mut orch = MigrationOrchestrator::new(config, vec![Some(0), Some(0)]);
        orch.retarget(&[Some(1), Some(2)], &[], 0, None, obs());
        orch.begin_slot(0, obs());
        assert_eq!(orch.in_flight(), 1);
        let ts = orch.complete_slot(0, &[], &[], obs());
        assert_eq!(committed(&ts), vec![0]);
        let ts = step(&mut orch, 1, &[], &[]);
        assert_eq!(committed(&ts), vec![1]);
    }

    #[test]
    fn displaced_repairs_start_before_rebalances() {
        let config = MigrationConfig {
            transfer_slots: 1,
            ..MigrationConfig::teleport()
        }
        .with_max_in_flight(1);
        // App 0 is a rebalance (live source), app 1 a repair (unplaced).
        let mut orch = MigrationOrchestrator::new(config, vec![Some(0), None]);
        orch.retarget(&[Some(1), Some(1)], &[], 0, None, obs());
        let ts = step(&mut orch, 0, &[], &[]);
        assert_eq!(committed(&ts), vec![1], "repair wins the only slot");
        let ts = step(&mut orch, 1, &[], &[]);
        assert_eq!(committed(&ts), vec![0]);
    }

    #[test]
    fn unhealthy_destination_rolls_back_then_retries_with_backoff() {
        let config = MigrationConfig {
            health_slots: 1,
            max_retries: 1,
            backoff_slots: 2,
            ..MigrationConfig::teleport()
        };
        let mut orch = MigrationOrchestrator::new(config, vec![Some(0)]);
        orch.retarget(&[Some(1)], &[], 0, None, obs());
        orch.begin_slot(0, obs());
        // Cutover happened instantly (drain/transfer free): serving at 1.
        assert_eq!(orch.serving()[0], Some(1));
        let ts = orch.complete_slot(0, &[], &[false], obs());
        assert!(ts.iter().any(|t| t.phase == MigrationPhase::RolledBack));
        assert_eq!(orch.serving()[0], Some(0), "rollback restores source");
        // Backoff: not eligible at slot 1, retries at slot 2.
        assert!(orch.begin_slot(1, obs()).is_empty());
        orch.complete_slot(1, &[], &[true], obs());
        orch.begin_slot(2, obs());
        let ts = orch.complete_slot(2, &[], &[true], obs());
        assert_eq!(committed(&ts), vec![0]);
        let report = orch.report(&["a"]);
        assert_eq!(
            (report.rolled_back, report.retries, report.committed),
            (1, 1, 1)
        );
    }

    #[test]
    fn retries_exhausted_becomes_failed() {
        let config = MigrationConfig {
            health_slots: 1,
            max_retries: 1,
            backoff_slots: 1,
            ..MigrationConfig::teleport()
        };
        let mut orch = MigrationOrchestrator::new(config, vec![Some(0)]);
        orch.retarget(&[Some(1)], &[], 0, None, obs());
        let mut failed = false;
        for slot in 0..6 {
            let ts = step(&mut orch, slot, &[], &[false]);
            failed |= ts.iter().any(|t| t.phase == MigrationPhase::Failed);
        }
        assert!(failed);
        assert!(orch.is_idle());
        assert_eq!(orch.serving()[0], Some(0), "app never left its source");
        let report = orch.report(&["a"]);
        assert_eq!(
            (report.failed, report.rolled_back, report.committed),
            (1, 2, 0)
        );
    }

    #[test]
    fn drain_deadline_expiry_rolls_back() {
        let config = MigrationConfig {
            drain_slots: 4,
            drain_deadline_slots: Some(2),
            ..MigrationConfig::teleport()
        };
        let mut orch = MigrationOrchestrator::new(config, vec![Some(0)]);
        orch.retarget(&[Some(1)], &[], 0, None, obs());
        // The destination is contended every slot: drain never advances
        // and the deadline expires after two slots.
        let contended = [false, true];
        let ts0 = step(&mut orch, 0, &contended, &[]);
        assert!(ts0.iter().all(|t| t.phase != MigrationPhase::RolledBack));
        let ts1 = step(&mut orch, 1, &contended, &[]);
        assert!(ts1.iter().any(|t| t.phase == MigrationPhase::RolledBack));
        assert!(ts1.iter().any(|t| t.phase == MigrationPhase::Failed));
        assert_eq!(orch.serving()[0], Some(0));
    }

    #[test]
    fn dead_source_skips_the_drain() {
        let config = MigrationConfig {
            drain_slots: 8,
            transfer_slots: 1,
            ..MigrationConfig::teleport()
        };
        // App displaced by a failure: unplaced, repairs onto server 1.
        let mut orch = MigrationOrchestrator::new(config, vec![None]);
        orch.retarget(&[Some(1)], &[0], 0, None, obs());
        let ts = orch.begin_slot(0, obs());
        assert!(committed(&ts).is_empty(), "one transfer slot first");
        assert_eq!(orch.serving()[0], None, "unserved until cutover");
        // The destination books capacity for the incoming app, but with
        // no live source there is nothing to double-book.
        assert_eq!(orch.reservations(), vec![(0, 1)]);
        assert_eq!(orch.report(&[]).double_booked_slots, 0);
        // The eight-slot drain was skipped: the transfer's single slot
        // completes the move at the end of slot 0.
        let ts = orch.complete_slot(0, &[], &[], obs());
        assert_eq!(committed(&ts), vec![0]);
        assert_eq!(orch.serving()[0], Some(1));
    }

    #[test]
    fn retarget_supersedes_stale_moves() {
        let config = MigrationConfig {
            transfer_slots: 10,
            ..MigrationConfig::teleport()
        };
        let mut orch = MigrationOrchestrator::new(config, vec![Some(0)]);
        orch.retarget(&[Some(1)], &[], 0, None, obs());
        let _ = step(&mut orch, 0, &[], &[]);
        assert_eq!(orch.in_flight(), 1);
        // A new plan sends the app to server 2 instead.
        orch.retarget(&[Some(2)], &[], 1, None, obs());
        let report = orch.report(&["a"]);
        assert_eq!(report.superseded, 1);
        assert_eq!(report.planned, 2);
        assert_eq!(orch.serving()[0], Some(0), "never cut over");
        let ts: Vec<Transition> = (1..13).flat_map(|s| step(&mut orch, s, &[], &[])).collect();
        assert_eq!(committed(&ts), vec![0]);
        assert_eq!(orch.serving()[0], Some(2));
    }

    #[test]
    fn cancel_app_rolls_a_cutover_move_back() {
        let config = MigrationConfig {
            health_slots: 4,
            ..MigrationConfig::teleport()
        };
        let mut orch = MigrationOrchestrator::new(config, vec![Some(0)]);
        orch.retarget(&[Some(1)], &[], 0, None, obs());
        orch.begin_slot(0, obs());
        assert_eq!(orch.serving()[0], Some(1), "health check serves at dest");
        assert!(orch.cancel_app(0, 0, obs()));
        assert_eq!(orch.serving()[0], Some(0));
        assert!(orch.is_idle());
        assert!(!orch.cancel_app(0, 1, obs()), "nothing left to cancel");
    }

    #[test]
    fn observability_counts_transitions() {
        let o = ropus_obs::Obs::deterministic();
        let ctx = ObsCtx::from(&o);
        let mut orch = MigrationOrchestrator::new(MigrationConfig::teleport(), vec![Some(0)]);
        orch.retarget(&[Some(1)], &[], 0, None, ctx);
        orch.begin_slot(0, ctx);
        let report = o.report();
        assert_eq!(report.counter("migration.planned"), 1);
        assert_eq!(report.counter("migration.committed"), 1);
        assert!(report.events_named("migration.transition").count() >= 2);
    }

    #[test]
    fn report_round_trips_through_serde() {
        let config = MigrationConfig::paced().with_max_in_flight(2);
        let mut orch = MigrationOrchestrator::new(config, vec![Some(0), Some(0)]);
        orch.retarget(&[Some(1), Some(2)], &[], 0, None, obs());
        for slot in 0..12 {
            let _ = step(&mut orch, slot, &[], &[true, true]);
        }
        let report = orch.report(&["a", "b"]);
        let json = serde_json::to_string(&report).unwrap();
        let back: MigrationReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
