//! The `ropus serve` online planner daemon.
//!
//! A long-running loop that ingests demand incrementally over the
//! line-delimited JSON protocol of [`protocol`], maintains a live plan in
//! an incremental [`EngineSession`], and answers admission requests with
//! a pluggable [`AdmissionPolicy`] scored
//! against each server's remaining headroom under the pool's θ and CoS
//! commitments:
//!
//! * `admit` translates the offered demand into per-CoS allocation
//!   requirements (the same [`translate`] every batch path uses), probes
//!   every open server without mutating the plan, and lets the policy
//!   accept (naming a server), queue (with a deadline), or reject;
//! * `depart` removes a live application, invalidating only its server;
//! * `tick` advances logical time: queued admissions are retried in FIFO
//!   order, expired ones are dropped, and exactly the touched servers'
//!   required capacities are recomputed;
//! * `snapshot` emits the live plan — bit-identical to a cold batch
//!   consolidation of the same assignment (see `tests/serve.rs` and the
//!   ci.sh serve gate);
//! * `subscribe` switches on telemetry streaming: every subsequent
//!   response line is followed by the [`protocol::StreamLine`]s it
//!   produced — lifecycle events, SLO burn-rate alerts from the
//!   streaming [`SloEngine`] each tick feeds, and (when a collector is
//!   attached) metric snapshot deltas that re-sum to the final report;
//! * `shutdown` reports aggregate statistics and stops the loop.
//!
//! Every decision is a pure function of the command stream and the
//! daemon configuration, so a replayed script reproduces the exact plan
//! — the same determinism contract the batch pipeline holds.

pub mod admission;
pub mod protocol;

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, Write};

use ropus_obs::{names, BurnRateRule, ObsCtx, ObsReport, SloEngine};
use ropus_placement::migration::{
    MigrationConfig, MigrationOrchestrator, MigrationPhase, Transition,
};
use ropus_placement::server::ServerSpec;
use ropus_placement::session::{EngineSession, WorkloadId};
use ropus_placement::workload::Workload;
use ropus_qos::translation::translate;
use ropus_qos::{AppQos, PoolCommitments};
use ropus_trace::{Calendar, Trace};
use ropus_wlm::metrics::slo_contract;

use admission::{
    count_decision, AdmissionContext, AdmissionDecision, AdmissionPolicy, BestFit, ServerProbe,
};
use protocol::{parse_command, Command, DemandSpec, Response, ServeStats, StreamLine};

/// Latency buckets for the `serve.tick.latency_ms` histogram.
static TICK_LATENCY_BOUNDS_MS: [f64; 6] = [0.1, 1.0, 5.0, 25.0, 100.0, 500.0];

/// Static configuration of one serve daemon.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// The pool's server type.
    pub server: ServerSpec,
    /// The pool's CoS commitments (θ and deadline).
    pub commitments: PoolCommitments,
    /// The application QoS every admitted demand is translated under.
    pub qos: AppQos,
    /// Slot calendar demand arrives on.
    pub calendar: Calendar,
    /// Horizon, in weeks, that `level`-style admissions are planned over.
    pub weeks: usize,
    /// Required-capacity binary-search tolerance, in capacity units.
    pub tolerance: f64,
    /// Worker threads for delta refreshes and admission probes (never
    /// changes any result).
    pub threads: usize,
    /// Ticks a queued admission survives before expiring; 0 disables the
    /// queue (every `Queue` verdict becomes a rejection).
    pub queue_deadline_slots: u64,
    /// Base backoff, in ticks, between queue retry attempts; each failed
    /// re-decide doubles the wait. 1 retries every tick at first.
    pub retry_backoff_base: u64,
    /// Failed re-decides before a queued admission is dropped.
    pub retry_max_attempts: u32,
    /// Migration lifecycle model for `migrate` commands. The default
    /// zero-cost [`MigrationConfig::teleport`] commits a move in the
    /// command itself; a paced config plans it and lets ticks walk the
    /// drain → transfer → cutover → health-check machine.
    pub migration: MigrationConfig,
    /// Pool size cap; `None` = unbounded.
    pub max_servers: Option<usize>,
}

impl DaemonConfig {
    /// A config with the paper's defaults: one-week horizon, 0.05
    /// tolerance, serial refresh and probes, 12-tick queue deadline,
    /// unbounded pool.
    pub fn new(
        server: ServerSpec,
        commitments: PoolCommitments,
        qos: AppQos,
        calendar: Calendar,
    ) -> Self {
        DaemonConfig {
            server,
            commitments,
            qos,
            calendar,
            weeks: 1,
            tolerance: 0.05,
            threads: 1,
            queue_deadline_slots: 12,
            retry_backoff_base: 1,
            retry_max_attempts: 32,
            migration: MigrationConfig::teleport(),
            max_servers: None,
        }
    }
}

/// One admission parked by a `Queue` verdict.
#[derive(Debug, Clone)]
struct QueuedAdmission {
    workload: Workload,
    /// The offered demand (sharing the workload's buffer), retained so a
    /// late admission can still register its SLO watch entry.
    demand: Trace,
    /// Last slot (inclusive) at which a retry may still admit it.
    deadline: u64,
    /// Failed re-decides so far; drives the exponential backoff.
    attempts: u32,
    /// First slot at which the next retry may run.
    next_retry: u64,
}

/// Per-live-application SLO watch state: the contract's engine index plus
/// the series needed to derive a per-slot utilization-of-allocation proxy
/// `u(t) = demand(t) / (cos1(t) + cos2(t))`.
#[derive(Debug, Clone)]
struct WatchedApp {
    /// Index of this app's contract in the daemon's [`SloEngine`].
    slo_index: usize,
    /// Offered demand, one sample per calendar slot (cycled past the end);
    /// shares the buffer the admitted workload splits.
    demand: Trace,
    /// Translated total allocation (CoS1 + CoS2), aligned with `demand`.
    alloc: Vec<f64>,
}

/// The online planner: an [`EngineSession`] plus admission queue, driven
/// by protocol commands. See the module docs for the command semantics.
pub struct Daemon {
    config: DaemonConfig,
    policy: Box<dyn AdmissionPolicy + Send>,
    session: EngineSession,
    queue: VecDeque<QueuedAdmission>,
    /// Migration machine for paced `migrate` commands; its app indices
    /// are tickets into `move_ids`.
    orch: MigrationOrchestrator,
    /// Orchestrator app index → live workload, one entry per migration
    /// ever requested.
    move_ids: Vec<WorkloadId>,
    slot: u64,
    stats: ServeStats,
    /// Whether a `subscribe` command has switched on telemetry streaming.
    subscribed: bool,
    /// Streaming SLO engine: one contract per admitted application, fed
    /// one utilization sample per live app per tick.
    slo: SloEngine,
    /// Live app name → SLO watch state. A `BTreeMap` so the per-tick
    /// observation order is the deterministic name order.
    watch: BTreeMap<String, WatchedApp>,
    /// Stream lines produced since the last drain; [`run`](Self::run)
    /// writes them after each response line once subscribed.
    pending: Vec<StreamLine>,
    /// Metric snapshot at the previous delta emission (delta baseline).
    last_report: ObsReport,
}

impl std::fmt::Debug for Daemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Daemon")
            .field("policy", &self.policy.name())
            .field("live", &self.session.len())
            .field("queued", &self.queue.len())
            .field("slot", &self.slot)
            .finish()
    }
}

impl Daemon {
    /// Creates a daemon with the default [`BestFit`] policy.
    pub fn new(config: DaemonConfig) -> Self {
        Daemon::with_policy(config, Box::new(BestFit))
    }

    /// Creates a daemon with an explicit admission policy.
    pub fn with_policy(config: DaemonConfig, policy: Box<dyn AdmissionPolicy + Send>) -> Self {
        let session = EngineSession::new(config.server, config.commitments)
            .with_tolerance(config.tolerance)
            .with_threads(config.threads);
        let orch = MigrationOrchestrator::new(config.migration, Vec::new());
        Daemon {
            config,
            policy,
            session,
            queue: VecDeque::new(),
            orch,
            move_ids: Vec::new(),
            slot: 0,
            stats: ServeStats::default(),
            subscribed: false,
            slo: SloEngine::new(BurnRateRule::default_rules()),
            watch: BTreeMap::new(),
            pending: Vec::new(),
            last_report: ObsReport::default(),
        }
    }

    /// The daemon's logical slot (ticks processed so far).
    pub fn slot(&self) -> u64 {
        self.slot
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> ServeStats {
        let mut stats = self.stats;
        stats.recomputes = self.session.recomputes();
        stats
    }

    /// Names currently waiting in the queue, FIFO order.
    pub fn queued_names(&self) -> Vec<String> {
        self.queue
            .iter()
            .map(|q| q.workload.name().to_string())
            .collect()
    }

    /// The live session (for snapshot comparisons in tests).
    pub fn session_mut(&mut self) -> &mut EngineSession {
        &mut self.session
    }

    /// Translates an offered demand into a placeable workload under the
    /// daemon's QoS and commitments, returning the demand trace too (a
    /// shared handle on the workload's own) so admission can retain it for
    /// the SLO watch.
    fn translate_demand(
        &self,
        name: &str,
        demand: &DemandSpec,
        obs: ObsCtx<'_>,
    ) -> Result<(Workload, Trace), String> {
        let trace = match demand {
            DemandSpec::Level(level) => Trace::constant(
                self.config.calendar,
                *level,
                self.config.weeks * self.config.calendar.slots_per_week(),
            ),
            DemandSpec::Samples(samples) => {
                // lint:allow(needless-trace-clone): ownership hand-off — the
                // command keeps its sample vector; the trace needs its own.
                Trace::from_samples(self.config.calendar, samples.clone())
            }
        }
        .map_err(|e| format!("bad demand: {e}"))?;
        let translation = translate(&trace, &self.config.qos, &self.config.commitments.cos2, obs)
            .map_err(|e| format!("translation failed: {e}"))?;
        Ok((
            Workload::from_translation(name.to_string(), translation),
            trace,
        ))
    }

    /// Registers an SLO contract and utilization watch for a newly placed
    /// application. Re-admitting a departed name registers a fresh
    /// contract; the old one stops receiving samples.
    fn watch_admit(&mut self, workload: &Workload, demand: Trace) {
        let contract = slo_contract(
            workload.name(),
            &self.config.qos,
            self.config.calendar.slot_minutes(),
        );
        let slo_index = self.slo.register(contract);
        self.watch.insert(
            workload.name().to_string(),
            WatchedApp {
                slo_index,
                demand,
                alloc: workload.total_allocation(),
            },
        );
    }

    /// Queues a `watch.stream.event` line when subscribed.
    fn push_event(&mut self, event: &str, name: Option<String>, server: Option<usize>) {
        if !self.subscribed {
            return;
        }
        let mut line = StreamLine::new(names::WATCH_STREAM_EVENT, self.slot);
        line.event = Some(event.to_string());
        line.name = name;
        line.server = server;
        self.pending.push(line);
    }

    /// Stream lines produced since the last drain, in emission order.
    /// [`run`](Self::run) calls this after every response; tests and
    /// embedders driving [`execute`](Self::execute) directly should too.
    pub fn drain_stream(&mut self) -> Vec<StreamLine> {
        std::mem::take(&mut self.pending)
    }

    /// Probes every touched server and asks the policy for a verdict.
    /// Returns the probes too so callers can answer "what would the
    /// target require?" without forcing a refresh; an accepted fresh
    /// server's probe is appended, so it is searched once.
    fn decide(
        &self,
        workload: &Workload,
        obs: ObsCtx<'_>,
    ) -> Result<(AdmissionDecision, Vec<ServerProbe>), String> {
        let mut probes: Vec<ServerProbe> = self
            .session
            .probe_all(workload)
            .map_err(|e| e.to_string())?
            .into_iter()
            .enumerate()
            .map(|(server, required)| ServerProbe { server, required })
            .collect();
        let servers_open = (0..self.session.server_count())
            .filter(|&s| !self.session.server_members(s).is_empty())
            .count();
        let ctx = AdmissionContext {
            probes: &probes,
            capacity: self.config.server.capacity(),
            servers_open,
            max_servers: self.config.max_servers,
            queue_len: self.queue.len(),
            slot: self.slot,
        };
        let mut decision = self.policy.decide(&ctx);
        if let AdmissionDecision::Accept { server } = decision {
            if self.config.max_servers.is_some_and(|cap| server >= cap) {
                return Err(format!(
                    "policy {} placed on server {server} beyond the pool cap",
                    self.policy.name()
                ));
            }
            // A placement on a fresh (never-probed) server must still
            // fit: a demand that cannot satisfy the commitments alone on
            // an empty server can never be placed, so reject it rather
            // than queueing it forever.
            if server >= probes.len() {
                let required = self
                    .session
                    .probe(workload, server)
                    .map_err(|e| e.to_string())?;
                probes.push(ServerProbe { server, required });
                if required.is_none() {
                    decision = AdmissionDecision::Reject {
                        reason: "demand does not fit an empty server".to_string(),
                    };
                }
            }
        }
        obs.counter(names::SERVE_ADMIT_PROBES, probes.len() as u64);
        if matches!(decision, AdmissionDecision::Queue) && self.config.queue_deadline_slots == 0 {
            decision = AdmissionDecision::Reject {
                reason: "no feasible server and queueing is disabled".to_string(),
            };
        }
        Ok((decision, probes))
    }

    /// Handles `admit`: translate, probe, decide, and apply the verdict.
    pub fn admit(&mut self, name: &str, demand: &DemandSpec, obs: ObsCtx<'_>) -> Response {
        let mut response = Response::ok("admit");
        response.name = Some(name.to_string());
        if self.queued_names().iter().any(|n| n == name) {
            return Response::error("admit", format!("{name:?} is already queued"));
        }
        let (workload, offered) = match self.translate_demand(name, demand, obs) {
            Ok(w) => w,
            Err(e) => return Response::error("admit", e),
        };
        let (decision, probes) = match self.decide(&workload, obs) {
            Ok(d) => d,
            Err(e) => return Response::error("admit", e),
        };
        count_decision(&mut self.stats, &decision);
        match decision {
            AdmissionDecision::Accept { server } => {
                // Answer the post-admission requirement from the probe
                // (`decide` probed a freshly opened server too) rather
                // than refreshing the whole pool — the deferred batch
                // recompute stays with `tick`.
                let required = probes
                    .iter()
                    .find(|p| p.server == server)
                    .and_then(|p| p.required);
                self.watch_admit(&workload, offered);
                if let Err(e) = self.session.admit(workload, server) {
                    self.watch.remove(name);
                    return Response::error("admit", e.to_string());
                }
                obs.counter("serve.admit.accepted", 1);
                self.push_event("admitted", Some(name.to_string()), Some(server));
                response.decision = Some("accepted".to_string());
                response.server = Some(server);
                response.required = required;
            }
            AdmissionDecision::Queue => {
                let deadline = self.slot + self.config.queue_deadline_slots;
                self.queue.push_back(QueuedAdmission {
                    workload,
                    demand: offered,
                    deadline,
                    attempts: 0,
                    next_retry: self.slot,
                });
                obs.counter("serve.admit.queued", 1);
                self.push_event("queued", Some(name.to_string()), None);
                response.decision = Some("queued".to_string());
                response.deadline_slot = Some(deadline);
            }
            AdmissionDecision::Reject { reason } => {
                obs.counter("serve.admit.rejected", 1);
                self.push_event("rejected", Some(name.to_string()), None);
                response.decision = Some("rejected".to_string());
                response.reason = Some(reason);
            }
        }
        response
    }

    /// Handles `depart`: removes a live application by name.
    pub fn depart(&mut self, name: &str, obs: ObsCtx<'_>) -> Response {
        // A queued (not yet placed) application may also withdraw.
        if let Some(at) = self.queue.iter().position(|q| q.workload.name() == name) {
            self.queue.remove(at);
            self.stats.departed += 1;
            obs.counter("serve.depart.count", 1);
            self.push_event("departed", Some(name.to_string()), None);
            let mut response = Response::ok("depart");
            response.name = Some(name.to_string());
            return response;
        }
        let Some(id) = self.session.find(name) else {
            return Response::error("depart", format!("{name:?} is not a live application"));
        };
        // An open migration dies with the application: cancel the machine
        // ticket first (the session rolls back its reservation below).
        let open: Vec<usize> = self
            .move_ids
            .iter()
            .enumerate()
            .filter(|&(idx, &mid)| mid == id && self.orch.has_active_move(idx))
            .map(|(idx, _)| idx)
            .collect();
        for idx in open {
            self.orch.cancel_app(idx, self.slot as usize, obs);
        }
        match self.session.depart(id) {
            Ok(_) => {
                self.stats.departed += 1;
                obs.counter("serve.depart.count", 1);
                self.watch.remove(name);
                self.push_event("departed", Some(name.to_string()), None);
                let mut response = Response::ok("depart");
                response.name = Some(name.to_string());
                response
            }
            Err(e) => Response::error("depart", e.to_string()),
        }
    }

    /// Handles `tick`: advance `slots` logical slots, retrying and
    /// expiring queued admissions at each one, then recompute exactly the
    /// touched servers.
    pub fn tick(&mut self, slots: u64, obs: ObsCtx<'_>) -> Response {
        let started_ms = obs.now_ms();
        let mut admitted_from_queue = Vec::new();
        let mut expired = Vec::new();
        let mut migrated = Vec::new();
        for _ in 0..slots {
            self.slot += 1;
            self.stats.ticks += 1;
            self.drain_queue(&mut admitted_from_queue, &mut expired, obs);
            self.advance_migrations(&mut migrated, obs);
            self.observe_slot(obs);
        }
        let delta = self.session.refresh();
        obs.counter("serve.tick.count", slots);
        obs.counter("serve.queue.admitted", admitted_from_queue.len() as u64);
        obs.counter("serve.queue.expired", expired.len() as u64);
        obs.histogram(
            "serve.tick.latency_ms",
            &TICK_LATENCY_BOUNDS_MS,
            obs.now_ms() - started_ms,
        );
        if self.subscribed {
            for name in &admitted_from_queue {
                self.push_event("queue.admitted", Some(name.clone()), None);
            }
            for name in &expired {
                self.push_event("queue.expired", Some(name.clone()), None);
            }
            for name in &migrated {
                self.push_event("migrated", Some(name.clone()), None);
            }
            for alert in self.slo.drain_alerts() {
                let mut line = StreamLine::new(names::WATCH_STREAM_ALERT, self.slot);
                line.name = Some(alert.app.clone());
                line.alert = Some(alert);
                self.pending.push(line);
            }
            if obs.is_enabled() {
                let report = obs.obs().report();
                let mut line = StreamLine::new(names::WATCH_STREAM_DELTA, self.slot);
                line.delta = Some(report.delta_since(&self.last_report));
                self.last_report = report;
                self.pending.push(line);
            }
        }
        let mut response = Response::ok("tick");
        response.slot = Some(self.slot);
        response.recomputed = Some(delta.recomputed);
        if !admitted_from_queue.is_empty() {
            response.admitted_from_queue = Some(admitted_from_queue);
        }
        if !expired.is_empty() {
            response.expired = Some(expired);
        }
        if !migrated.is_empty() {
            response.migrated = Some(migrated);
        }
        response
    }

    /// One slot of the SLO watch: feed each live application's
    /// utilization-of-allocation proxy for the slot just entered into the
    /// streaming engine, in deterministic name order. Slot `n` (1-based
    /// daemon time) observes calendar sample `n - 1`, cycling demands
    /// shorter than the session.
    fn observe_slot(&mut self, obs: ObsCtx<'_>) {
        if self.watch.is_empty() {
            return;
        }
        let t = (self.slot - 1) as usize;
        let samples: Vec<(usize, f64)> = self
            .watch
            .values()
            .filter(|app| !app.demand.is_empty() && !app.alloc.is_empty())
            .map(|app| {
                // lint:allow(panic-slice-index): index is taken modulo the
                // length, and empty traces are filtered out above.
                let demand = app.demand.samples()[t % app.demand.len()];
                // lint:allow(panic-slice-index): same modulo bound as above.
                let alloc = app.alloc[t % app.alloc.len()];
                let u = if alloc > 0.0 { demand / alloc } else { 0.0 };
                (app.slo_index, u)
            })
            .collect();
        for (index, u) in samples {
            self.slo.observe(index, t, u, obs);
        }
    }

    /// One slot's queue pass: FIFO retry under exponential backoff, then
    /// deadline expiry. A failed re-decide is a retry: the entry waits
    /// `retry_backoff_base * 2^(attempts-1)` ticks before the next one,
    /// and `retry_max_attempts` failures drop it outright.
    fn drain_queue(
        &mut self,
        admitted: &mut Vec<String>,
        expired: &mut Vec<String>,
        obs: ObsCtx<'_>,
    ) {
        let mut remaining = VecDeque::with_capacity(self.queue.len());
        while let Some(mut entry) = self.queue.pop_front() {
            if self.slot < entry.next_retry {
                // Still backing off; only the deadline may touch it.
                if self.slot > entry.deadline {
                    self.stats.expired += 1;
                    expired.push(entry.workload.name().to_string());
                } else {
                    remaining.push_back(entry);
                }
                continue;
            }
            let verdict = match self.decide(&entry.workload, obs) {
                Ok((v, _)) => v,
                // A queued workload can no longer fail validation; treat
                // a probe error as "still waiting".
                Err(_) => AdmissionDecision::Queue,
            };
            match verdict {
                AdmissionDecision::Accept { server }
                    if self.session.admit(entry.workload.clone(), server).is_ok() =>
                {
                    self.stats.admitted += 1;
                    self.watch_admit(&entry.workload, entry.demand);
                    admitted.push(entry.workload.name().to_string());
                }
                _ if self.slot > entry.deadline
                    || entry.attempts >= self.config.retry_max_attempts =>
                {
                    self.stats.expired += 1;
                    expired.push(entry.workload.name().to_string());
                }
                _ => {
                    entry.attempts += 1;
                    self.stats.retries += 1;
                    obs.counter("serve.retries", 1);
                    let exponent = (entry.attempts - 1).min(32);
                    let wait = self
                        .config
                        .retry_backoff_base
                        .max(1)
                        .saturating_mul(1u64 << exponent);
                    entry.next_retry = self.slot.saturating_add(wait);
                    remaining.push_back(entry);
                }
            }
        }
        self.queue = remaining;
    }

    /// Handles `migrate`: commit immediately under the teleport config,
    /// or plan a paced move for ticks to drive.
    pub fn migrate(&mut self, name: &str, server: usize, obs: ObsCtx<'_>) -> Response {
        let mut response = Response::ok("migrate");
        response.name = Some(name.to_string());
        response.server = Some(server);
        let Some(id) = self.session.find(name) else {
            return Response::error("migrate", format!("{name:?} is not a live application"));
        };
        let from = self.session.assignment_of(id);
        if from == Some(server) {
            return Response::error(
                "migrate",
                format!("{name:?} already runs on server {server}"),
            );
        }
        if self.config.max_servers.is_some_and(|cap| server >= cap) {
            return Response::error("migrate", format!("server {server} is beyond the pool cap"));
        }
        // A free move commits here, in the command, and mints no move
        // ticket; the replays route even free moves through the machine.
        if self.config.migration.is_teleport() {
            return match self.session.reassign(id, server) {
                Ok(_) => {
                    self.stats.migrations += 1;
                    obs.counter("serve.migrations", 1);
                    self.push_event("migrated", Some(name.to_string()), Some(server));
                    response.decision = Some("committed".to_string());
                    response
                }
                Err(e) => Response::error("migrate", e.to_string()),
            };
        }
        if self
            .move_ids
            .iter()
            .enumerate()
            .any(|(idx, &mid)| mid == id && self.orch.has_active_move(idx))
        {
            return Response::error("migrate", format!("{name:?} is already migrating"));
        }
        let idx = self.move_ids.len();
        self.move_ids.push(id);
        self.orch.ensure_apps(self.move_ids.len());
        self.orch.set_current(idx, from);
        self.orch
            .plan_move(idx, server, 1, self.slot as usize, None);
        obs.counter("migration.planned", 1);
        self.push_event("migration.planned", Some(name.to_string()), Some(server));
        response.decision = Some("planned".to_string());
        response
    }

    /// One slot of the migration machine: start eligible moves under the
    /// storm caps, derive contention/health from the live session, and
    /// apply the resulting phase work to the session.
    fn advance_migrations(&mut self, migrated: &mut Vec<String>, obs: ObsCtx<'_>) {
        if self.orch.is_idle() {
            return;
        }
        let slot = self.slot as usize;
        let begin = self.orch.begin_slot(slot, obs);
        self.apply_transitions(&begin, migrated, obs);
        let capacity = self.config.server.capacity();
        let servers = self.session.server_count();
        let mut contended = vec![false; servers];
        for (s, flag) in contended.iter_mut().enumerate() {
            *flag = self
                .session
                .server_required(s)
                .is_some_and(|required| required > capacity);
        }
        let mut healthy = vec![true; self.move_ids.len()];
        for (app, to) in self.orch.in_health_check() {
            // Healthy = the destination (reservation included) still fits
            // its commitments within one server.
            let fits = self
                .session
                .server_required(to)
                .is_none_or(|required| required <= capacity);
            if let Some(h) = healthy.get_mut(app) {
                *h = fits;
            }
        }
        let done = self.orch.complete_slot(slot, &contended, &healthy, obs);
        self.apply_transitions(&done, migrated, obs);
    }

    /// Mirrors machine transitions into the session: a drain start
    /// reserves the destination, a commit promotes the reservation, a
    /// rollback releases it.
    fn apply_transitions(
        &mut self,
        transitions: &[Transition],
        migrated: &mut Vec<String>,
        obs: ObsCtx<'_>,
    ) {
        for t in transitions {
            let Some(&id) = self.move_ids.get(t.app) else {
                continue;
            };
            // Collapsing these ifs into match guards would run session
            // mutations (begin/commit) inside guard expressions.
            #[allow(clippy::collapsible_match)]
            match t.phase {
                MigrationPhase::Draining => {
                    // A refused reservation (stale id, impossible server)
                    // drops the machine ticket too, so the move can never
                    // cut over against a session that is not booking it.
                    if self.session.begin_migration(id, t.to).is_err() {
                        self.orch.cancel_app(t.app, self.slot as usize, obs);
                    }
                }
                MigrationPhase::Committed => {
                    if self.session.commit_migration(id).is_ok() {
                        self.stats.migrations += 1;
                        obs.counter("serve.migrations", 1);
                        if let Some(w) = self.session.workload(id) {
                            migrated.push(w.name().to_string());
                        }
                    }
                }
                MigrationPhase::RolledBack => {
                    // lint:allow(robust-result-discard): a move whose
                    // begin was refused has no open reservation — there
                    // is nothing to roll back and no state to repair.
                    let _ = self.session.rollback_migration(id);
                }
                _ => {}
            }
        }
    }

    /// Handles `snapshot`: the live plan, queue, and slot.
    pub fn snapshot(&mut self) -> Response {
        let mut response = Response::ok("snapshot");
        response.slot = Some(self.slot);
        response.queue = Some(self.queued_names());
        if !self.session.is_empty() {
            match self.session.report() {
                Ok(plan) => response.plan = Some(plan),
                Err(e) => return Response::error("snapshot", e.to_string()),
            }
        }
        response
    }

    /// Handles `subscribe`: switch on telemetry streaming. Pre-subscribe
    /// alerts and metrics are history — the alert cursor and the delta
    /// baseline both reset here, so the stream covers exactly what
    /// happens from this command on.
    pub fn subscribe(&mut self, obs: ObsCtx<'_>) -> Response {
        self.subscribed = true;
        self.slo.drain_alerts();
        self.last_report = obs.obs().report();
        let mut response = Response::ok("subscribe");
        response.slot = Some(self.slot);
        response
    }

    /// Handles `shutdown`: final statistics.
    pub fn shutdown(&mut self) -> Response {
        let mut response = Response::ok("shutdown");
        response.slot = Some(self.slot);
        response.stats = Some(self.stats());
        response
    }

    /// Executes one parsed command. `Shutdown` only reports; stopping the
    /// loop is the caller's job (see [`run`](Self::run)).
    pub fn execute(&mut self, command: &Command, obs: ObsCtx<'_>) -> Response {
        match command {
            Command::Admit { name, demand } => self.admit(name, demand, obs),
            Command::Depart { name } => self.depart(name, obs),
            Command::Migrate { name, server } => self.migrate(name, *server, obs),
            Command::Tick { slots } => self.tick(*slots, obs),
            Command::Snapshot => self.snapshot(),
            Command::Subscribe => self.subscribe(obs),
            Command::Shutdown => self.shutdown(),
        }
    }

    /// Drives the daemon over line-delimited JSON: one command per input
    /// line, one response per output line. Returns the final statistics
    /// at `shutdown` or end of input.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when reading a command line or
    /// writing a response fails; protocol-level problems (unparseable or
    /// inapplicable commands) are reported in-band as `ok: false`
    /// responses and do not stop the loop.
    pub fn run(
        &mut self,
        reader: impl BufRead,
        mut writer: impl Write,
        obs: ObsCtx<'_>,
    ) -> std::io::Result<ServeStats> {
        for line in reader.lines() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let response = match parse_command(&line) {
                Ok(command) => {
                    let response = self.execute(&command, obs);
                    writeln!(writer, "{}", response.to_line())?;
                    for stream_line in self.drain_stream() {
                        writeln!(writer, "{}", stream_line.to_line())?;
                    }
                    if matches!(command, Command::Shutdown) {
                        writer.flush()?;
                        return Ok(self.stats());
                    }
                    continue;
                }
                Err(message) => Response::error("error", message),
            };
            writeln!(writer, "{}", response.to_line())?;
        }
        writer.flush()?;
        Ok(self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropus_qos::CosSpec;

    fn config() -> DaemonConfig {
        DaemonConfig::new(
            ServerSpec::sixteen_way(),
            PoolCommitments::new(CosSpec::new(1.0, 60).unwrap()),
            AppQos::paper_default(None),
            Calendar::five_minute(),
        )
    }

    fn admit_level(d: &mut Daemon, name: &str, level: f64) -> Response {
        d.admit(name, &DemandSpec::Level(level), ObsCtx::none())
    }

    #[test]
    fn admissions_fill_then_open_servers() {
        let mut d = Daemon::new(config());
        // The paper-default band turns a constant demand of 4 into an
        // allocation of about 4 / 0.66 ≈ 6.1 capacity units.
        let r = admit_level(&mut d, "a", 4.0);
        assert_eq!(r.decision.as_deref(), Some("accepted"));
        assert_eq!(r.server, Some(0));
        assert!(r.required.is_some());
        // Best-fit keeps packing server 0 while it fits.
        let r = admit_level(&mut d, "b", 4.0);
        assert_eq!(r.server, Some(0));
        // Three at ~6.1 exceed 16: the next one opens server 1.
        let r = admit_level(&mut d, "c", 4.0);
        assert_eq!(r.server, Some(1));
        let snap = d.snapshot();
        let plan = snap.plan.unwrap();
        assert_eq!(plan.servers_used, 2);
        assert_eq!(plan.assignment, vec![0, 0, 1]);
    }

    #[test]
    fn pool_cap_queues_then_admits_after_departure() {
        let mut cfg = config();
        cfg.max_servers = Some(1);
        cfg.queue_deadline_slots = 4;
        let mut d = Daemon::new(cfg);
        admit_level(&mut d, "a", 7.0);
        let r = admit_level(&mut d, "b", 7.0);
        assert_eq!(r.decision.as_deref(), Some("queued"));
        assert_eq!(r.deadline_slot, Some(4));
        assert_eq!(d.queued_names(), vec!["b"]);
        // Still no room: the tick leaves it queued.
        let r = d.tick(1, ObsCtx::none());
        assert!(r.admitted_from_queue.is_none());
        // `a` departs; the next tick admits `b` from the queue.
        d.depart("a", ObsCtx::none());
        let r = d.tick(1, ObsCtx::none());
        assert_eq!(r.admitted_from_queue, Some(vec!["b".to_string()]));
        assert!(d.queued_names().is_empty());
        let stats = d.stats();
        assert_eq!((stats.admitted, stats.queued, stats.departed), (2, 1, 1));
    }

    #[test]
    fn queued_admissions_expire_at_their_deadline() {
        let mut cfg = config();
        cfg.max_servers = Some(1);
        cfg.queue_deadline_slots = 2;
        let mut d = Daemon::new(cfg);
        admit_level(&mut d, "a", 7.0);
        admit_level(&mut d, "b", 7.0);
        let r = d.tick(2, ObsCtx::none());
        assert!(r.expired.is_none(), "deadline slot itself still waits");
        let r = d.tick(1, ObsCtx::none());
        assert_eq!(r.expired, Some(vec!["b".to_string()]));
        assert_eq!(d.stats().expired, 1);
    }

    #[test]
    fn zero_deadline_disables_the_queue() {
        let mut cfg = config();
        cfg.max_servers = Some(1);
        cfg.queue_deadline_slots = 0;
        let mut d = Daemon::new(cfg);
        admit_level(&mut d, "a", 7.0);
        let r = admit_level(&mut d, "b", 7.0);
        assert_eq!(r.decision.as_deref(), Some("rejected"));
        assert!(r.reason.unwrap().contains("queueing is disabled"));
    }

    #[test]
    fn never_fitting_demand_is_rejected_not_queued() {
        let mut d = Daemon::new(config());
        // A constant demand of 12 translates to an allocation beyond one
        // 16-way server, so no pool of these servers can ever host it.
        let r = admit_level(&mut d, "whale", 12.0);
        assert_eq!(r.decision.as_deref(), Some("rejected"));
        assert!(r.reason.unwrap().contains("does not fit an empty server"));
        assert!(d.queued_names().is_empty());
    }

    #[test]
    fn duplicate_names_are_refused_everywhere() {
        let mut cfg = config();
        cfg.max_servers = Some(1);
        let mut d = Daemon::new(cfg);
        admit_level(&mut d, "a", 7.0);
        assert!(!admit_level(&mut d, "a", 1.0).ok, "live duplicate");
        admit_level(&mut d, "b", 7.0);
        assert!(!admit_level(&mut d, "b", 1.0).ok, "queued duplicate");
    }

    #[test]
    fn depart_covers_live_queued_and_unknown() {
        let mut cfg = config();
        cfg.max_servers = Some(1);
        let mut d = Daemon::new(cfg);
        admit_level(&mut d, "a", 7.0);
        admit_level(&mut d, "b", 7.0);
        assert!(d.depart("b", ObsCtx::none()).ok, "queued withdraw");
        assert!(d.depart("a", ObsCtx::none()).ok, "live depart");
        assert!(!d.depart("ghost", ObsCtx::none()).ok);
        assert_eq!(d.stats().departed, 2);
    }

    #[test]
    fn tick_recomputes_only_touched_servers() {
        let mut d = Daemon::new(config());
        admit_level(&mut d, "a", 4.0);
        admit_level(&mut d, "b", 7.0);
        let r = d.tick(1, ObsCtx::none());
        assert_eq!(r.recomputed, Some(2));
        // Nothing changed: the next tick recomputes nothing.
        let r = d.tick(1, ObsCtx::none());
        assert_eq!(r.recomputed, Some(0));
        admit_level(&mut d, "c", 1.0);
        let r = d.tick(1, ObsCtx::none());
        assert_eq!(r.recomputed, Some(1));
    }

    #[test]
    fn teleport_migrate_commits_immediately() {
        let obs = ropus_obs::Obs::deterministic();
        let mut d = Daemon::new(config());
        admit_level(&mut d, "a", 4.0);
        admit_level(&mut d, "b", 4.0);
        let r = d.migrate("b", 1, ObsCtx::from(&obs));
        assert!(r.ok);
        assert_eq!(r.decision.as_deref(), Some("committed"));
        assert_eq!(r.server, Some(1));
        assert_eq!(d.stats().migrations, 1);
        assert_eq!(obs.report().counter("serve.migrations"), 1);
        let snap = d.snapshot();
        assert_eq!(snap.plan.unwrap().assignment, vec![0, 1]);
        // Guards: unknown app, no-op move.
        assert!(!d.migrate("ghost", 1, ObsCtx::none()).ok);
        assert!(!d.migrate("b", 1, ObsCtx::none()).ok);
    }

    #[test]
    fn paced_migrate_walks_the_machine_over_ticks() {
        let mut cfg = config();
        cfg.migration = MigrationConfig::paced();
        let mut d = Daemon::new(cfg);
        admit_level(&mut d, "a", 4.0);
        admit_level(&mut d, "b", 4.0);
        let r = d.migrate("b", 1, ObsCtx::none());
        assert!(r.ok);
        assert_eq!(r.decision.as_deref(), Some("planned"));
        assert!(!d.migrate("b", 1, ObsCtx::none()).ok, "one move at a time");
        // 2 drain + 1 transfer + 2 health slots: commit on the fifth tick.
        for _ in 0..4 {
            let r = d.tick(1, ObsCtx::none());
            assert!(r.migrated.is_none());
        }
        // Mid-move the destination is double-booked by the reservation.
        assert_eq!(d.session_mut().server_reserved(1).len(), 1);
        let r = d.tick(1, ObsCtx::none());
        assert_eq!(r.migrated, Some(vec!["b".to_string()]));
        assert_eq!(d.stats().migrations, 1);
        assert!(d.session_mut().server_reserved(1).is_empty());
        let snap = d.snapshot();
        assert_eq!(snap.plan.unwrap().assignment, vec![0, 1]);
    }

    #[test]
    fn departing_app_cancels_its_paced_move() {
        let mut cfg = config();
        cfg.migration = MigrationConfig::paced();
        let mut d = Daemon::new(cfg);
        admit_level(&mut d, "a", 4.0);
        admit_level(&mut d, "b", 4.0);
        d.migrate("b", 1, ObsCtx::none());
        d.tick(1, ObsCtx::none());
        assert_eq!(d.session_mut().server_reserved(1).len(), 1);
        assert!(d.depart("b", ObsCtx::none()).ok);
        assert!(d.session_mut().server_reserved(1).is_empty());
        let r = d.tick(3, ObsCtx::none());
        assert!(r.migrated.is_none());
        assert_eq!(d.stats().migrations, 0);
    }

    #[test]
    fn queue_retries_back_off_exponentially() {
        let mut cfg = config();
        cfg.max_servers = Some(1);
        cfg.queue_deadline_slots = 40;
        cfg.retry_backoff_base = 2;
        let mut d = Daemon::new(cfg);
        admit_level(&mut d, "a", 7.0);
        admit_level(&mut d, "b", 7.0);
        // Retries run at slots 1, 3 (+2), 7 (+4); the next waits until 15.
        d.tick(8, ObsCtx::none());
        assert_eq!(d.stats().retries, 3);
        // Freed capacity is only noticed at the next backoff point.
        d.depart("a", ObsCtx::none());
        let r = d.tick(6, ObsCtx::none());
        assert!(r.admitted_from_queue.is_none());
        let r = d.tick(1, ObsCtx::none());
        assert_eq!(r.admitted_from_queue, Some(vec!["b".to_string()]));
    }

    #[test]
    fn retry_attempts_cap_drops_the_admission() {
        let mut cfg = config();
        cfg.max_servers = Some(1);
        cfg.queue_deadline_slots = 100;
        cfg.retry_max_attempts = 2;
        let mut d = Daemon::new(cfg);
        admit_level(&mut d, "a", 7.0);
        admit_level(&mut d, "b", 7.0);
        // Slot 1 and 2 fail (two retries); the slot-4 re-decide hits the
        // attempt cap and drops the admission long before its deadline.
        let r = d.tick(3, ObsCtx::none());
        assert!(r.expired.is_none());
        let r = d.tick(1, ObsCtx::none());
        assert_eq!(r.expired, Some(vec!["b".to_string()]));
        assert_eq!(d.stats().retries, 2);
        assert_eq!(d.stats().expired, 1);
    }

    #[test]
    fn run_loop_speaks_the_protocol_end_to_end() {
        let script = concat!(
            r#"{"cmd":"admit","name":"a","level":4.0}"#,
            "\n",
            "not json\n",
            "\n",
            r#"{"cmd":"tick"}"#,
            "\n",
            r#"{"cmd":"snapshot"}"#,
            "\n",
            r#"{"cmd":"shutdown"}"#,
            "\n",
            r#"{"cmd":"tick"}"#,
            "\n",
        );
        let mut d = Daemon::new(config());
        let mut out = Vec::new();
        let stats = d.run(script.as_bytes(), &mut out, ObsCtx::none()).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 5, "shutdown stops the loop");
        assert!(lines[0].contains(r#""decision":"accepted""#));
        assert!(lines[1].contains(r#""ok":false"#));
        assert!(lines[2].contains(r#""cmd":"tick""#));
        assert!(lines[3].contains(r#""plan""#));
        assert!(lines[4].contains(r#""stats""#));
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.ticks, 1);
    }

    #[test]
    fn subscribe_streams_events_alerts_and_deltas() {
        let obs = ropus_obs::Obs::deterministic();
        let mut d = Daemon::new(config());
        // Nothing streams before the subscription.
        admit_level(&mut d, "quiet", 4.0);
        assert!(d.drain_stream().is_empty());
        let r = d.subscribe(ObsCtx::from(&obs));
        assert!(r.ok);
        admit_level(&mut d, "a", 4.0);
        let lines = d.drain_stream();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].kind, ropus_obs::names::WATCH_STREAM_EVENT);
        assert_eq!(lines[0].event.as_deref(), Some("admitted"));
        assert_eq!(lines[0].name.as_deref(), Some("a"));
        // A tick with a collector attached emits a snapshot delta; the
        // paper-default band keeps a constant demand inside (U_low,
        // U_high], so no alert fires.
        d.tick(1, ObsCtx::from(&obs));
        let lines = d.drain_stream();
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].kind, ropus_obs::names::WATCH_STREAM_DELTA);
        let delta = lines[0].delta.as_ref().unwrap();
        assert_eq!(delta.counter("serve.tick.count"), 1);
        // Deltas re-sum: a second tick's delta holds only its own tick.
        d.tick(1, ObsCtx::from(&obs));
        let lines = d.drain_stream();
        assert_eq!(
            lines[0].delta.as_ref().unwrap().counter("serve.tick.count"),
            1
        );
        d.depart("a", ObsCtx::from(&obs));
        let lines = d.drain_stream();
        assert_eq!(lines[0].event.as_deref(), Some("departed"));
    }

    #[test]
    fn sustained_overload_streams_a_burn_rate_alert() {
        let mut d = Daemon::new(config());
        d.subscribe(ObsCtx::none());
        // A contiguous burst covering < M_degr of the week: the M_degr
        // percentile cap in translation excludes the burst from the
        // allocation, so every burst slot runs degraded (u > U_high)
        // while the weekly degraded fraction still honors the contract.
        // Concentrated in one run, the fast-burn short window saturates
        // and must fire — and clear once the burst passes.
        let slots = Calendar::five_minute().slots_per_week();
        let samples: Vec<f64> = (0..slots)
            .map(|t| if (100..150).contains(&t) { 3.2 } else { 2.0 })
            .collect();
        let r = d.admit("bursty", &DemandSpec::Samples(samples), ObsCtx::none());
        assert_eq!(r.decision.as_deref(), Some("accepted"));
        d.drain_stream();
        d.tick(200, ObsCtx::none());
        let lines = d.drain_stream();
        let alerts: Vec<_> = lines
            .iter()
            .filter(|l| l.kind == ropus_obs::names::WATCH_STREAM_ALERT)
            .map(|l| l.alert.as_ref().unwrap())
            .collect();
        assert!(
            alerts
                .iter()
                .any(|a| a.kind == ropus_obs::AlertKind::Fire && a.app == "bursty"),
            "a concentrated degraded run must fire a burn-rate alert: {alerts:?}"
        );
        assert!(
            alerts.iter().any(|a| a.kind == ropus_obs::AlertKind::Clear),
            "the alert must clear once the burst passes: {alerts:?}"
        );
    }

    #[test]
    fn observability_counts_the_admission_flow() {
        let obs = ropus_obs::Obs::deterministic();
        let mut cfg = config();
        cfg.max_servers = Some(1);
        let mut d = Daemon::new(cfg);
        d.admit("a", &DemandSpec::Level(7.0), ObsCtx::from(&obs));
        d.admit("b", &DemandSpec::Level(7.0), ObsCtx::from(&obs));
        d.tick(1, ObsCtx::from(&obs));
        d.depart("a", ObsCtx::from(&obs));
        d.tick(1, ObsCtx::from(&obs));
        let report = obs.report();
        assert_eq!(report.counter("serve.admit.accepted"), 1);
        assert_eq!(report.counter("serve.admit.queued"), 1);
        assert_eq!(report.counter("serve.retries"), 1);
        assert_eq!(report.counter("serve.queue.admitted"), 1);
        assert_eq!(report.counter("serve.depart.count"), 1);
        assert_eq!(report.counter("serve.tick.count"), 2);
        assert!(report.histogram("serve.tick.latency_ms").is_some());
    }
}
