//! The serve-mode contracts: incremental delta re-fits are bit-identical
//! to cold full re-plans (across thread counts), aggregate loads
//! round-trip removal exactly, and the daemon protocol is deterministic.
//!
//! Uses an hourly calendar (168 slots/week) so generated traces stay
//! small while still exercising the weekly machinery.

use proptest::prelude::*;

use ropus::daemon::{protocol::DemandSpec, Daemon, DaemonConfig};
use ropus::prelude::*;
use ropus_placement::session::EngineSession;
use ropus_placement::simulator::{AggregateLoad, FitOptions, FitRequest};
use ropus_placement::workload::Workload;

fn hourly() -> Calendar {
    Calendar::new(60).unwrap()
}

fn commitments() -> PoolCommitments {
    PoolCommitments::new(CosSpec::new(0.9, 120).unwrap())
}

fn wl(name: &str, cos1: f64, cos2: f64) -> Workload {
    Workload::new(
        name,
        Trace::constant(hourly(), cos1, hourly().slots_per_week()).unwrap(),
        Trace::constant(hourly(), cos2, hourly().slots_per_week()).unwrap(),
    )
    .unwrap()
}

/// One step of a random session history.
#[derive(Debug, Clone)]
enum Op {
    /// Admit workload `name_ix` (if not live) onto `server`.
    Admit {
        name_ix: usize,
        server: usize,
        cos1: f64,
        cos2: f64,
    },
    /// Depart workload `name_ix` (if live).
    Depart { name_ix: usize },
    /// Move workload `name_ix` (if live) to `server`.
    Reassign { name_ix: usize, server: usize },
    /// Recompute stale servers mid-history (a serve `tick`).
    Refresh,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // kind weights: 0-3 admit, 4-5 depart, 6-7 reassign, 8 refresh.
    (
        (0usize..9, 0usize..8),
        (0usize..4, 0.0f64..2.0, 0.1f64..3.0),
    )
        .prop_map(|((kind, name_ix), (server, cos1, cos2))| match kind {
            0..=3 => Op::Admit {
                name_ix,
                server,
                cos1,
                cos2,
            },
            4 | 5 => Op::Depart { name_ix },
            6 | 7 => Op::Reassign { name_ix, server },
            _ => Op::Refresh,
        })
}

/// Replays one op history against a fresh session.
fn replay(ops: &[Op], threads: usize) -> EngineSession {
    let mut session =
        EngineSession::new(ServerSpec::sixteen_way(), commitments()).with_threads(threads);
    for op in ops {
        match op {
            Op::Admit {
                name_ix,
                server,
                cos1,
                cos2,
            } => {
                let name = format!("app-{name_ix}");
                if session.find(&name).is_none() {
                    session.admit(wl(&name, *cos1, *cos2), *server).unwrap();
                }
            }
            Op::Depart { name_ix } => {
                if let Some(id) = session.find(&format!("app-{name_ix}")) {
                    session.depart(id).unwrap();
                }
            }
            Op::Reassign { name_ix, server } => {
                if let Some(id) = session.find(&format!("app-{name_ix}")) {
                    session.reassign(id, *server).unwrap();
                }
            }
            Op::Refresh => {
                session.refresh();
            }
        }
    }
    session
}

/// Rebuilds the session's final state cold, via the bulk-assignment path.
fn cold_replan(session: &EngineSession, threads: usize) -> EngineSession {
    let live = session.live_ids();
    let workloads: Vec<Workload> = live
        .iter()
        .map(|&id| session.workload(id).unwrap().clone())
        .collect();
    let assignment: Vec<usize> = live
        .iter()
        .map(|&id| session.assignment_of(id).unwrap())
        .collect();
    EngineSession::new(ServerSpec::sixteen_way(), commitments())
        .with_threads(threads)
        .with_assignment(&workloads, &assignment)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole determinism contract: any admit/depart/reassign/tick
    /// history produces a plan byte-identical to a cold full re-plan of
    /// the final state, on 1 worker thread and on 4.
    #[test]
    fn session_delta_history_matches_cold_replan(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let mut incremental = replay(&ops, 1);
        if !incremental.is_empty() {
            let reference = incremental.report().unwrap();
            let reference_json = serde_json::to_string(&reference).unwrap();
            // Same history on 4 threads, and cold rebuilds on both counts.
            let mut variants = vec![replay(&ops, 4)];
            variants.push(cold_replan(&incremental, 1));
            variants.push(cold_replan(&incremental, 4));
            for mut variant in variants {
                let report = variant.report().unwrap();
                prop_assert_eq!(
                    serde_json::to_string(&report).unwrap(),
                    reference_json.clone(),
                    "plan must be a pure function of the final state"
                );
            }
        }
    }

    /// The constant-trace history above keeps every slot equal; this
    /// variant feeds arbitrary *varying* weekly traces through the same
    /// incremental columnar path, so the per-slot SumTree adds and
    /// subtracts real data and must still match a cold re-plan bitwise.
    #[test]
    fn varying_trace_history_matches_cold_replan(
        admits in proptest::collection::vec(
            (
                0usize..6,
                0usize..4,
                proptest::collection::vec(0.0f64..2.0, 168),
                proptest::collection::vec(0.01f64..4.0, 168),
            ),
            1..8,
        ),
        departs in proptest::collection::vec(0usize..6, 0..6),
    ) {
        let mut session =
            EngineSession::new(ServerSpec::sixteen_way(), commitments()).with_threads(1);
        for (name_ix, server, cos1, cos2) in &admits {
            let name = format!("vt-{name_ix}");
            if session.find(&name).is_none() {
                let w = Workload::new(
                    name,
                    Trace::from_samples(hourly(), cos1.clone()).unwrap(),
                    Trace::from_samples(hourly(), cos2.clone()).unwrap(),
                )
                .unwrap();
                session.admit(w, *server).unwrap();
            }
        }
        for name_ix in &departs {
            if let Some(id) = session.find(&format!("vt-{name_ix}")) {
                session.depart(id).unwrap();
            }
        }
        if !session.is_empty() {
            let reference = serde_json::to_string(&session.report().unwrap()).unwrap();
            for threads in [1, 4] {
                let mut cold = cold_replan(&session, threads);
                prop_assert_eq!(
                    serde_json::to_string(&cold.report().unwrap()).unwrap(),
                    reference.clone(),
                    "varying-trace plan diverged from cold re-plan at {} threads",
                    threads
                );
            }
        }
    }

    /// Satellite 3: removing a member and re-adding it leaves the
    /// aggregate bit-identical to a cold build — no subtraction residue.
    #[test]
    fn aggregate_remove_then_readd_round_trips(
        levels in proptest::collection::vec((0.0f64..3.0, 0.01f64..4.0), 2..6),
        victim in 0usize..6,
    ) {
        let workloads: Vec<Workload> = levels
            .iter()
            .enumerate()
            .map(|(i, &(c1, c2))| wl(&format!("w-{i}"), c1, c2))
            .collect();
        let refs: Vec<&Workload> = workloads.iter().collect();
        let cold = AggregateLoad::of(&refs).unwrap();
        let victim = &workloads[victim % workloads.len()];
        let mut roundtrip = cold.clone();
        let removed = roundtrip.remove(victim.name()).unwrap();
        prop_assert_eq!(removed.name(), victim.name());
        roundtrip.add(&removed).unwrap();
        prop_assert_eq!(&roundtrip, &cold);
        prop_assert_eq!(roundtrip.total_peak().to_bits(), cold.total_peak().to_bits());
        prop_assert_eq!(
            roundtrip.cos1_peak_sum().to_bits(),
            cold.cos1_peak_sum().to_bits()
        );
        // The fit decision downstream of the aggregate is unchanged too.
        let required = |load: &AggregateLoad| {
            FitRequest::new(load, &commitments())
                .with_options(FitOptions::new().with_tolerance(0.05))
                .required_capacity(16.0)
        };
        prop_assert_eq!(
            required(&roundtrip).map(f64::to_bits),
            required(&cold).map(f64::to_bits)
        );
    }
}

/// The scripted daemons' configuration: one-week horizon on the hourly
/// calendar, `threads` refresh and probe workers.
fn daemon_config(threads: usize) -> DaemonConfig {
    DaemonConfig {
        threads,
        weeks: 1,
        ..DaemonConfig::new(
            ServerSpec::sixteen_way(),
            commitments(),
            AppQos::paper_default(None),
            hourly(),
        )
    }
}

/// Drives one command script through a daemon and returns the response
/// lines.
fn run_script(script: &str, threads: usize) -> Vec<String> {
    run_script_with(script, daemon_config(threads))
}

fn run_script_with(script: &str, config: DaemonConfig) -> Vec<String> {
    let mut daemon = Daemon::new(config);
    let mut out = Vec::new();
    daemon
        .run(script.as_bytes(), &mut out, ropus_obs::ObsCtx::none())
        .unwrap();
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn daemon_scripts_replay_byte_identically_across_threads() {
    let script = r#"{"cmd":"admit","name":"web","level":3.0}
{"cmd":"admit","name":"db","level":5.0}
{"cmd":"tick"}
{"cmd":"admit","name":"batch","level":4.0}
{"cmd":"depart","name":"web"}
{"cmd":"tick","slots":2}
{"cmd":"admit","name":"cache","level":2.0}
{"cmd":"tick"}
{"cmd":"snapshot"}
{"cmd":"shutdown"}
"#;
    let serial = run_script(script, 1);
    let parallel = run_script(script, 4);
    assert_eq!(
        serial, parallel,
        "thread count must never change a response"
    );
    assert!(serial.last().unwrap().contains("\"stats\""));
}

/// A pool that spreads over five servers and fills its cap: every
/// admission probes several servers, so the probe fan-out splits across
/// workers, and a queued admission is retried by a tick once a departure
/// frees room. One daily-cycle app keeps the probed capacities off round
/// numbers.
#[test]
fn multi_server_script_with_queue_retry_replays_across_threads() {
    let cycle: Vec<String> = (0..hourly().slots_per_week())
        .map(|t| format!("{}", 0.5 + (t % 24) as f64 / 16.0))
        .collect();
    let script = format!(
        r#"{{"cmd":"admit","name":"a0","level":5.0}}
{{"cmd":"admit","name":"a1","level":5.0}}
{{"cmd":"admit","name":"a2","level":5.0}}
{{"cmd":"admit","name":"a3","level":5.0}}
{{"cmd":"admit","name":"a4","level":5.0}}
{{"cmd":"admit","name":"cyclic","samples":[{}]}}
{{"cmd":"admit","name":"b0","level":2.0}}
{{"cmd":"admit","name":"b1","level":2.0}}
{{"cmd":"tick"}}
{{"cmd":"admit","name":"late","level":5.0}}
{{"cmd":"tick"}}
{{"cmd":"depart","name":"a2"}}
{{"cmd":"tick"}}
{{"cmd":"snapshot"}}
{{"cmd":"shutdown"}}
"#,
        cycle.join(",")
    );
    let capped = |threads| DaemonConfig {
        max_servers: Some(5),
        ..daemon_config(threads)
    };
    let serial = run_script_with(&script, capped(1));
    let text = serial.join("\n");
    assert!(text.contains(r#""name":"a4","decision":"accepted","server":4"#));
    assert!(text.contains(r#""name":"late","decision":"queued""#));
    assert!(text.contains(r#""admitted_from_queue":["late"]"#));
    assert!(text.contains(r#""servers_used":5"#));
    for threads in [2, 4] {
        assert_eq!(
            serial,
            run_script_with(&script, capped(threads)),
            "thread count must never change a response ({threads} threads)"
        );
    }
}

#[test]
fn daemon_snapshot_matches_cold_session_of_same_assignment() {
    let config = DaemonConfig::new(
        ServerSpec::sixteen_way(),
        commitments(),
        AppQos::paper_default(None),
        hourly(),
    );
    let mut daemon = Daemon::new(config);
    for (name, level) in [("a", 3.0), ("b", 5.0), ("c", 4.0), ("d", 2.0)] {
        let r = daemon.admit(name, &DemandSpec::Level(level), ropus_obs::ObsCtx::none());
        assert_eq!(r.decision.as_deref(), Some("accepted"), "{name}");
    }
    daemon.depart("b", ropus_obs::ObsCtx::none());
    daemon.tick(1, ropus_obs::ObsCtx::none());
    let snapshot = daemon.snapshot();
    let live_plan = snapshot.plan.expect("live plan");

    let session = daemon.session_mut();
    let live = session.live_ids();
    let workloads: Vec<Workload> = live
        .iter()
        .map(|&id| session.workload(id).unwrap().clone())
        .collect();
    let assignment: Vec<usize> = live
        .iter()
        .map(|&id| session.assignment_of(id).unwrap())
        .collect();
    let mut cold = EngineSession::new(ServerSpec::sixteen_way(), commitments())
        .with_assignment(&workloads, &assignment)
        .unwrap();
    let cold_plan = cold.report().unwrap();
    assert_eq!(
        serde_json::to_string(&live_plan).unwrap(),
        serde_json::to_string(&cold_plan).unwrap(),
        "the daemon's live plan is exactly a cold re-plan of its state"
    );
}

/// Like [`run_script`], but with a deterministic collector attached so
/// subscribe telemetry (including `watch.stream.delta` lines) flows.
fn run_script_observed(script: &str, threads: usize) -> Vec<String> {
    let mut daemon = Daemon::new(daemon_config(threads));
    let obs = ropus_obs::Obs::deterministic();
    let mut out = Vec::new();
    daemon
        .run(script.as_bytes(), &mut out, ropus_obs::ObsCtx::from(&obs))
        .unwrap();
    String::from_utf8(out)
        .unwrap()
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn subscribe_stream_is_byte_identical_across_runs_and_threads() {
    let script = r#"{"cmd":"admit","name":"web","level":3.0}
{"cmd":"subscribe"}
{"cmd":"admit","name":"db","level":5.0}
{"cmd":"tick","slots":3}
{"cmd":"admit","name":"batch","level":4.0}
{"cmd":"depart","name":"web"}
{"cmd":"tick","slots":2}
{"cmd":"snapshot"}
{"cmd":"shutdown"}
"#;
    let first = run_script_observed(script, 1);
    let second = run_script_observed(script, 1);
    assert_eq!(first, second, "same script must stream identically");
    let parallel = run_script_observed(script, 4);
    assert_eq!(
        first, parallel,
        "subscribe telemetry must be byte-identical across --threads"
    );

    // Every line is either a response (first key `ok`) or a stream line
    // (first key `kind`) — the shape split `ropus watch` relies on.
    for line in &first {
        assert!(
            line.starts_with("{\"ok\":") || line.starts_with("{\"kind\":"),
            "unexpected line shape: {line}"
        );
    }
    let events: Vec<&String> = first
        .iter()
        .filter(|l| l.contains("\"kind\":\"watch.stream.event\""))
        .collect();
    assert!(
        events
            .iter()
            .any(|l| l.contains("\"event\":\"admitted\"") && l.contains("\"name\":\"db\"")),
        "post-subscribe admission must stream: {events:?}"
    );
    assert!(
        events
            .iter()
            .any(|l| l.contains("\"event\":\"departed\"") && l.contains("\"name\":\"web\"")),
        "departure must stream: {events:?}"
    );
    assert!(
        !events
            .iter()
            .any(|l| l.contains("\"name\":\"web\"") && l.contains("\"event\":\"admitted\"")),
        "pre-subscribe activity must not stream"
    );
    let deltas = first
        .iter()
        .filter(|l| l.contains("\"kind\":\"watch.stream.delta\""))
        .count();
    assert_eq!(deltas, 2, "one metric delta per tick command");
}
