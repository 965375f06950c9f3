//! The obs name registry: every span and metric name recorded by
//! production code, declared in one place.
//!
//! Names are the stable vocabulary of the observability layer
//! (DESIGN.md §5e): dashboards, tests, and docs key on them, so they
//! must not drift. The `obs-name-registry` lint rule enforces that
//! every recording call site in the workspace uses either a literal
//! declared here or a direct `names::CONST` reference; adding a new
//! instrument site therefore starts by adding its name below, grouped
//! by pipeline layer.
//!
//! The string values follow the `layer.noun.verb`/`layer.noun.metric`
//! convention established when the obs layer landed.

// --- pipeline stage spans (ropus-core framework) -------------------------

/// Span over the QoS translation stage.
pub const PIPELINE_TRANSLATE: &str = "pipeline.translate";
/// Span over the consolidation (placement search) stage.
pub const PIPELINE_CONSOLIDATE: &str = "pipeline.consolidate";
/// Span over runtime admission-control validation.
pub const PIPELINE_RUNTIME_VALIDATION: &str = "pipeline.runtime_validation";
/// Span over the failure-mode replacement sweep.
pub const PIPELINE_FAILURE_SWEEP: &str = "pipeline.failure_sweep";
/// Span over a chaos replay run.
pub const PIPELINE_CHAOS_REPLAY: &str = "pipeline.chaos_replay";
/// Count of failure cases the sweep could not evaluate.
pub const PIPELINE_FAILURE_SWEEP_UNSUPPORTED_CASES: &str =
    "pipeline.failure_sweep.unsupported_cases";
/// Count of distinct re-placements the failure sweep solved (identical
/// cases are solved once).
pub const PIPELINE_FAILURE_SWEEP_DISTINCT_CASES: &str = "pipeline.failure_sweep.distinct_cases";

// --- qos translation -----------------------------------------------------

/// Count of per-application QoS translations performed.
pub const QOS_TRANSLATIONS: &str = "qos.translations";
/// Event: a translation relaxed its target to stay feasible.
pub const QOS_TRANSLATE_RELAXATION: &str = "qos.translate.relaxation";
/// Event: a translation hit the CoS1/CoS2 breakpoint boundary.
pub const QOS_TRANSLATE_BREAKPOINT: &str = "qos.translate.breakpoint";
/// Count of applications translated in a fleet pass.
pub const APPS_TRANSLATED: &str = "apps.translated";

// --- placement search ----------------------------------------------------

/// Span over greedy seeding.
pub const PLACEMENT_SEED: &str = "placement.seed";
/// Span over the GA search.
pub const PLACEMENT_SEARCH: &str = "placement.search";
/// Span over report assembly.
pub const PLACEMENT_REPORT: &str = "placement.report";
/// Count of fitness evaluations performed by the engine.
pub const PLACEMENT_ENGINE_EVALUATIONS: &str = "placement.engine.evaluations";
/// Count of evaluation-cache hits.
pub const PLACEMENT_ENGINE_CACHE_HITS: &str = "placement.engine.cache_hits";
/// Count of evaluation-cache misses.
pub const PLACEMENT_ENGINE_CACHE_MISSES: &str = "placement.engine.cache_misses";
/// Count of GA generations run.
pub const PLACEMENT_SEARCH_GENERATIONS: &str = "placement.search.generations";
/// Gauge: member sets held by a consolidator's shared fit memo (its peak
/// size; the memo never evicts).
pub const PLACEMENT_MEMO_ENTRIES: &str = "placement.memo.entries";
/// Count of fit lookups a stage answered from the shared memo.
pub const PLACEMENT_MEMO_HITS: &str = "placement.memo.hits";
/// Count of fit lookups a stage had to compute for the shared memo.
pub const PLACEMENT_MEMO_MISSES: &str = "placement.memo.misses";

// --- chaos replay --------------------------------------------------------

/// Span over the per-slot replay loop.
pub const CHAOS_REPLAY_SLOTS: &str = "chaos.replay.slots";
/// Span over per-segment plan construction.
pub const CHAOS_REPLAY_PLAN_SEGMENTS: &str = "chaos.replay.plan_segments";
/// Count of demand slots shed while degraded.
pub const CHAOS_REPLAY_SHED_SLOTS: &str = "chaos.replay.shed_slots";
/// Count of slots carried by degraded-mode placement.
pub const CHAOS_REPLAY_CARRIED_SLOTS: &str = "chaos.replay.carried_slots";
/// Count of slots contended under degraded capacity.
pub const CHAOS_REPLAY_CONTENDED_SLOTS: &str = "chaos.replay.contended_slots";
/// Count of segments whose degraded plan was infeasible.
pub const CHAOS_REPLAY_INFEASIBLE_SEGMENTS: &str = "chaos.replay.infeasible_segments";
/// Count of distinct re-placements the replay solved (failed sets with
/// identical mixed fleets and pools are solved once).
pub const CHAOS_REPLAY_DISTINCT_CASES: &str = "chaos.replay.distinct_cases";
/// Event: a failure segment forced a replan.
pub const CHAOS_SEGMENT_REPLAN: &str = "chaos.segment.replan";
/// Histogram of recovery-window lengths.
pub const CHAOS_WINDOW_RECOVERY: &str = "chaos.window.recovery";

// --- workload manager ----------------------------------------------------

/// Count of saturated host slots.
pub const WLM_HOST_SATURATION: &str = "wlm.host.saturation";
/// Count of CoS1 demand slots scaled by the manager.
pub const WLM_HOST_COS1_SCALED_SLOTS: &str = "wlm.host.cos1_scaled_slots";
/// Count of unmet demand slots.
pub const WLM_HOST_UNMET_SLOTS: &str = "wlm.host.unmet_slots";

// --- migration lifecycle (placement::migration) --------------------------

/// Event: a move entered a new lifecycle phase.
pub const MIGRATION_TRANSITION: &str = "migration.transition";
/// Count of moves planned.
pub const MIGRATION_PLANNED: &str = "migration.planned";
/// Count of moves committed.
pub const MIGRATION_COMMITTED: &str = "migration.committed";
/// Count of rollbacks performed (a retried move may roll back repeatedly).
pub const MIGRATION_ROLLED_BACK: &str = "migration.rolled_back";
/// Count of moves abandoned after exhausting retries.
pub const MIGRATION_FAILED: &str = "migration.failed";
/// Count of moves cancelled by a later re-plan.
pub const MIGRATION_SUPERSEDED: &str = "migration.superseded";
/// Count of retry starts after a rollback.
pub const MIGRATION_RETRIES: &str = "migration.retries";
/// Count of move-slots deferred by a storm cap.
pub const MIGRATION_STORM_DEFERRED: &str = "migration.storm.deferred";

// --- serve daemon (ropus serve) ------------------------------------------

/// Count of sessions admitted directly.
pub const SERVE_ADMIT_ACCEPTED: &str = "serve.admit.accepted";
/// Count of sessions queued for capacity.
pub const SERVE_ADMIT_QUEUED: &str = "serve.admit.queued";
/// Count of sessions rejected outright.
pub const SERVE_ADMIT_REJECTED: &str = "serve.admit.rejected";
/// Count of per-server admission probes (capacity searches with the
/// candidate added), recorded once per admission decision.
pub const SERVE_ADMIT_PROBES: &str = "serve.admit.probes";
/// Count of queued sessions later admitted.
pub const SERVE_QUEUE_ADMITTED: &str = "serve.queue.admitted";
/// Count of queued sessions that expired waiting.
pub const SERVE_QUEUE_EXPIRED: &str = "serve.queue.expired";
/// Count of session departures.
pub const SERVE_DEPART_COUNT: &str = "serve.depart.count";
/// Count of planner ticks.
pub const SERVE_TICK_COUNT: &str = "serve.tick.count";
/// Timing counter: per-tick planner latency in milliseconds.
pub const SERVE_TICK_LATENCY_MS: &str = "serve.tick.latency_ms";
/// Count of queued-admission retry attempts (backoff re-decisions).
pub const SERVE_RETRIES: &str = "serve.retries";
/// Count of migrations committed by the daemon.
pub const SERVE_MIGRATIONS: &str = "serve.migrations";

// --- SLO attainment engine (obs::slo) ------------------------------------

/// Count of utilization slots fed to the SLO engine.
pub const SLO_SAMPLES: &str = "slo.samples";
/// Count of slots degraded against the acceptable band (`U_alloc > U_high`).
pub const SLO_DEGRADED_SLOTS: &str = "slo.degraded_slots";
/// Count of slots breaching the degraded ceiling (`U_alloc > U_degr`).
pub const SLO_BREACH_SLOTS: &str = "slo.breach_slots";
/// Event: a burn-rate rule started firing.
pub const SLO_ALERT_FIRE: &str = "slo.alert.fire";
/// Event: a burn-rate rule stopped firing.
pub const SLO_ALERT_CLEAR: &str = "slo.alert.clear";
/// The fast-burn (page-worthy) alert rule.
pub const SLO_BURN_FAST: &str = "slo.burn.fast";
/// The slow-burn (ticket-worthy) alert rule.
pub const SLO_BURN_SLOW: &str = "slo.burn.slow";

// --- telemetry stream (ropus serve `subscribe` / ropus watch) -------------

/// Stream line kind: an obs metric snapshot delta for one tick.
pub const WATCH_STREAM_DELTA: &str = "watch.stream.delta";
/// Stream line kind: a daemon lifecycle event (admit/depart/migrate).
pub const WATCH_STREAM_EVENT: &str = "watch.stream.event";
/// Stream line kind: an SLO alert transition.
pub const WATCH_STREAM_ALERT: &str = "watch.stream.alert";

#[cfg(test)]
mod tests {
    /// The registry is a vocabulary: values must be unique, and every
    /// name must follow the dotted lower-case convention.
    #[test]
    fn names_are_unique_and_well_formed() {
        let all = [
            super::PIPELINE_TRANSLATE,
            super::PIPELINE_CONSOLIDATE,
            super::PIPELINE_RUNTIME_VALIDATION,
            super::PIPELINE_FAILURE_SWEEP,
            super::PIPELINE_CHAOS_REPLAY,
            super::PIPELINE_FAILURE_SWEEP_UNSUPPORTED_CASES,
            super::PIPELINE_FAILURE_SWEEP_DISTINCT_CASES,
            super::QOS_TRANSLATIONS,
            super::QOS_TRANSLATE_RELAXATION,
            super::QOS_TRANSLATE_BREAKPOINT,
            super::APPS_TRANSLATED,
            super::PLACEMENT_SEED,
            super::PLACEMENT_SEARCH,
            super::PLACEMENT_REPORT,
            super::PLACEMENT_ENGINE_EVALUATIONS,
            super::PLACEMENT_ENGINE_CACHE_HITS,
            super::PLACEMENT_ENGINE_CACHE_MISSES,
            super::PLACEMENT_SEARCH_GENERATIONS,
            super::PLACEMENT_MEMO_ENTRIES,
            super::PLACEMENT_MEMO_HITS,
            super::PLACEMENT_MEMO_MISSES,
            super::CHAOS_REPLAY_SLOTS,
            super::CHAOS_REPLAY_PLAN_SEGMENTS,
            super::CHAOS_REPLAY_SHED_SLOTS,
            super::CHAOS_REPLAY_CARRIED_SLOTS,
            super::CHAOS_REPLAY_CONTENDED_SLOTS,
            super::CHAOS_REPLAY_INFEASIBLE_SEGMENTS,
            super::CHAOS_REPLAY_DISTINCT_CASES,
            super::CHAOS_SEGMENT_REPLAN,
            super::CHAOS_WINDOW_RECOVERY,
            super::WLM_HOST_SATURATION,
            super::WLM_HOST_COS1_SCALED_SLOTS,
            super::WLM_HOST_UNMET_SLOTS,
            super::SERVE_ADMIT_ACCEPTED,
            super::SERVE_ADMIT_QUEUED,
            super::SERVE_ADMIT_REJECTED,
            super::SERVE_ADMIT_PROBES,
            super::SERVE_QUEUE_ADMITTED,
            super::SERVE_QUEUE_EXPIRED,
            super::SERVE_DEPART_COUNT,
            super::SERVE_TICK_COUNT,
            super::SERVE_TICK_LATENCY_MS,
            super::SERVE_RETRIES,
            super::SERVE_MIGRATIONS,
            super::SLO_SAMPLES,
            super::SLO_DEGRADED_SLOTS,
            super::SLO_BREACH_SLOTS,
            super::SLO_ALERT_FIRE,
            super::SLO_ALERT_CLEAR,
            super::SLO_BURN_FAST,
            super::SLO_BURN_SLOW,
            super::WATCH_STREAM_DELTA,
            super::WATCH_STREAM_EVENT,
            super::WATCH_STREAM_ALERT,
            super::MIGRATION_TRANSITION,
            super::MIGRATION_PLANNED,
            super::MIGRATION_COMMITTED,
            super::MIGRATION_ROLLED_BACK,
            super::MIGRATION_FAILED,
            super::MIGRATION_SUPERSEDED,
            super::MIGRATION_RETRIES,
            super::MIGRATION_STORM_DEFERRED,
        ];
        let unique: std::collections::BTreeSet<&str> = all.iter().copied().collect();
        assert_eq!(unique.len(), all.len(), "duplicate registry values");
        for name in all {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_'),
                "name `{name}` breaks the dotted lower-case convention"
            );
            assert!(
                name.contains('.'),
                "name `{name}` is missing its layer prefix"
            );
        }
    }
}
