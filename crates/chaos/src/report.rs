//! Performability metrics of a chaos replay.
//!
//! A [`ChaosReport`] is a pure value: every field is a deterministic
//! function of the demand traces, the placement, the schedule, and the
//! replay options, so serializing the same replay twice yields
//! byte-identical JSON.

use serde::{Deserialize, Serialize};

use ropus_obs::SloSummary;
use ropus_placement::failure::FailureScope;
use ropus_placement::migration::MigrationReport;
use ropus_wlm::metrics::SloAudit;

/// Per-application performability outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppChaosOutcome {
    /// Application name.
    pub name: String,
    /// Server hosting the application in normal mode.
    pub home_server: usize,
    /// Total demand over the replay (CPU × slots).
    pub demand_total: f64,
    /// Demand served in its own slot.
    pub served_on_time: f64,
    /// Deferred demand served late, within the carry-over deadline.
    pub served_late: f64,
    /// Demand shed: dropped immediately (no carry-over) or expired past
    /// the deadline.
    pub shed: f64,
    /// Deferred demand still outstanding when the replay ended.
    pub backlog_remaining: f64,
    /// `1 − served/demand` (0 for an idle application).
    pub unserved_fraction: f64,
    /// Times the application changed servers across the replay.
    pub migrations: usize,
    /// Audit of the normal-operation slots against the normal-mode QoS
    /// (`None` when the whole replay was degraded).
    pub normal_audit: Option<SloAudit>,
    /// Audit of the degraded-window slots against the failure-mode QoS
    /// (`None` when no window degraded this application).
    pub degraded_audit: Option<SloAudit>,
}

impl AppChaosOutcome {
    /// Demand served, on time or late.
    pub fn served_total(&self) -> f64 {
        self.served_on_time + self.served_late
    }

    /// Whether the degraded windows stayed inside the failure-mode QoS
    /// contract (vacuously true when never degraded).
    pub fn degraded_compliant(&self) -> bool {
        self.degraded_audit
            .as_ref()
            .is_none_or(SloAudit::is_compliant)
    }

    /// Whether both operation modes met their contracts.
    pub fn is_compliant(&self) -> bool {
        self.normal_audit
            .as_ref()
            .is_none_or(SloAudit::is_compliant)
            && self.degraded_compliant()
    }
}

/// One maximal run of slots during which at least one server was down.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DegradedWindow {
    /// First degraded slot.
    pub start: usize,
    /// One past the last degraded slot.
    pub end: usize,
    /// Every server down at some point during the window, sorted.
    pub failed: Vec<usize>,
    /// Whether every re-placement inside the window was found by the
    /// consolidator (false = best-effort packing had to take over).
    pub feasible: bool,
    /// Applications displaced from a failed server at some point.
    pub displaced: usize,
    /// Application-server moves triggered by this window, including the
    /// moves back home at repair time.
    pub migrations: usize,
    /// Demand shed during the window.
    pub shed: f64,
    /// Slots after repair until all carried-over demand drained
    /// (`Some(0)` when nothing was outstanding, `None` when the backlog
    /// never drained before the replay ended).
    pub recovery_slots: Option<usize>,
}

/// The full output of a chaos replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Slots replayed.
    pub slots: usize,
    /// Slot length in minutes.
    pub slot_minutes: u32,
    /// Which applications relaxed to failure-mode QoS during outages.
    pub scope: FailureScope,
    /// Whether unserved demand was deferred rather than dropped.
    pub carry_over: bool,
    /// Deadline (slots) deferred demand may wait before it is shed.
    pub deadline_slots: usize,
    /// Slots during which at least one server was down.
    pub degraded_slots: usize,
    /// Slots in which some allocation request had to be cut on some
    /// server.
    pub contended_slots: usize,
    /// Application-server moves across the whole replay.
    pub migrations_total: usize,
    /// Fleet-wide demand total.
    pub demand_total: f64,
    /// Fleet-wide demand served (on time or late).
    pub served_total: f64,
    /// Fleet-wide demand served late.
    pub served_late_total: f64,
    /// Fleet-wide demand shed.
    pub shed_total: f64,
    /// Per-application outcomes, in fleet order.
    pub apps: Vec<AppChaosOutcome>,
    /// Degraded windows, in time order.
    pub windows: Vec<DegradedWindow>,
    /// Per-move timelines and fleet recovery metrics from the migration
    /// state machine. `None` (and omitted from JSON) when the replay ran
    /// without a configured migration model
    /// ([`ReplayOptions::migration`](crate::ReplayOptions::migration)
    /// `None`: zero-cost moves, unreported), so those reports serialize
    /// exactly as before the machine existed.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub migration: Option<MigrationReport>,
    /// Streaming SLO attainment against each app's normal contract, with
    /// the multi-window burn-rate alert log ([`ropus_obs::slo`]). `None`
    /// (and omitted from JSON) only in reports deserialized from older
    /// replays; [`crate::replay::replay`] always attaches one.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub slo: Option<SloSummary>,
    /// Observability snapshot captured during the replay. `None` (and
    /// omitted from JSON) unless the caller attached one, so reports
    /// produced without instrumentation serialize exactly as before.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub obs: Option<ropus_obs::ObsReport>,
}

impl ChaosReport {
    /// Whether every application met the failure-mode QoS contract during
    /// every degraded window.
    pub fn all_degraded_compliant(&self) -> bool {
        self.apps.iter().all(AppChaosOutcome::degraded_compliant)
    }

    /// Whether every application met its contract in both modes.
    pub fn all_compliant(&self) -> bool {
        self.apps.iter().all(AppChaosOutcome::is_compliant)
    }

    /// Names of applications that violated the failure-mode contract
    /// during a degraded window.
    pub fn degraded_violators(&self) -> Vec<&str> {
        self.apps
            .iter()
            .filter(|a| !a.degraded_compliant())
            .map(|a| a.name.as_str())
            .collect()
    }

    /// Fraction of fleet demand that was shed.
    pub fn shed_fraction(&self) -> f64 {
        if self.demand_total > 0.0 {
            self.shed_total / self.demand_total
        } else {
            0.0
        }
    }
}
