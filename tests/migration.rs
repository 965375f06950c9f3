//! Migration state-machine contracts at the framework boundary:
//! paced chaos replays are byte-identical across runs and `--threads`
//! settings, the replay matches golden outputs captured before its
//! teleport path was folded into the machine, the zero-cost
//! configuration differs from no configuration only by the attached
//! report, and a session rollback restores the source server's
//! aggregate load exactly.
//!
//! Uses an hourly calendar (168 slots/week) so generated traces stay
//! small while still exercising the weekly machinery.

use proptest::prelude::*;

use ropus::prelude::*;
use ropus_placement::session::EngineSession;
use ropus_placement::workload::Workload;

fn hourly() -> Calendar {
    Calendar::new(60).unwrap()
}

fn policy() -> QosPolicy {
    QosPolicy {
        normal: AppQos::paper_default(Some(60)),
        failure: AppQos::paper_default(None),
    }
}

fn framework(seed: u64, threads: usize) -> Framework {
    Framework::builder()
        .server(ServerSpec::sixteen_way())
        .commitments(PoolCommitments::new(CosSpec::new(0.9, 120).unwrap()))
        .options(ConsolidationOptions::fast(seed).with_threads(threads))
        .failure_scope(FailureScope::AllApplications)
        .build()
}

/// A small fleet of phase-shifted daily-bursting hourly demands.
fn fleet(n: usize) -> Vec<AppSpec> {
    let calendar = hourly();
    let slots = calendar.slots_per_week();
    (0..n)
        .map(|i| {
            let samples: Vec<f64> = (0..slots)
                .map(|t| {
                    let tod = (t + i * 7) % 24;
                    let base = 1.0 + 0.3 * i as f64;
                    if (8..16).contains(&tod) {
                        base + 2.5
                    } else {
                        base + 0.4
                    }
                })
                .collect();
            AppSpec::new(
                format!("app-{i}"),
                Trace::from_samples(calendar, samples).unwrap(),
                policy(),
            )
        })
        .collect()
}

/// Fails the first placed server for two days starting day one.
fn outage_for(placement: &PlacementReport) -> FailureSchedule {
    FailureSchedule::scripted(vec![FailureEvent {
        server: placement.servers[0].server,
        start: 24,
        duration: 48,
    }])
    .unwrap()
}

/// One full plan + paced chaos replay, serialized.
fn paced_run(seed: u64, threads: usize, config: MigrationConfig) -> String {
    let apps = fleet(6);
    let fw = framework(seed, threads);
    let placement = fw.plan_normal_only(&apps).unwrap();
    let schedule = outage_for(&placement);
    let report = fw
        .chaos_replay_on_with(
            &apps,
            &placement,
            &schedule,
            DegradationPolicy::default(),
            Some(config),
        )
        .unwrap();
    serde_json::to_string(&report).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Satellite 3a: a paced migration replay is a pure function of its
    /// inputs — byte-identical across repeated runs and thread counts.
    #[test]
    fn paced_replay_is_byte_identical_across_runs_and_threads(
        seed in 0u64..100,
        drain in 0usize..3,
        transfer in 0usize..2,
        health in 0usize..3,
        cap in proptest::option::of(1usize..3),
    ) {
        let mut config = MigrationConfig {
            drain_slots: drain,
            transfer_slots: transfer,
            health_slots: health,
            ..MigrationConfig::paced()
        };
        if let Some(cap) = cap {
            config = config.with_max_in_flight(cap);
        }
        let first = paced_run(seed, 1, config);
        let again = paced_run(seed, 1, config);
        prop_assert_eq!(&first, &again, "same inputs must replay identically");
        let parallel = paced_run(seed, 4, config);
        prop_assert_eq!(&first, &parallel, "replay must not depend on --threads");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Satellite 3b: stripped of the attached migration report, the
    /// zero-cost configuration's `ChaosReport` is byte-for-byte the
    /// unconfigured one. Both now run the same machine path, so this
    /// pins that `None` attaches no report; the reference for the
    /// pre-machine teleport replay is
    /// `chaos_replay_matches_committed_goldens`.
    #[test]
    fn zero_cost_config_reproduces_teleport_byte_for_byte(seed in 0u64..100) {
        let apps = fleet(6);
        let fw = framework(seed, 1);
        let placement = fw.plan_normal_only(&apps).unwrap();
        let schedule = outage_for(&placement);
        let legacy = fw
            .chaos_replay_on(&apps, &placement, &schedule, DegradationPolicy::default())
            .unwrap();
        let mut teleport = fw
            .chaos_replay_on_with(
                &apps,
                &placement,
                &schedule,
                DegradationPolicy::default(),
                Some(MigrationConfig::teleport()),
            )
            .unwrap();
        let machine = teleport.migration.take().expect("machine path attaches a report");
        prop_assert!(machine.rolled_back == 0 && machine.failed == 0);
        prop_assert_eq!(
            serde_json::to_string(&legacy).unwrap(),
            serde_json::to_string(&teleport).unwrap(),
            "teleport config must reproduce the legacy replay bit for bit"
        );
    }
}

/// The golden replay: seed 7's plan of the six-app fleet under the
/// two-day outage, replayed with `migration` on `threads` workers.
/// Returns the report JSON and the deterministic obs snapshot JSON.
fn golden_run(migration: Option<MigrationConfig>, threads: usize) -> (String, String) {
    let apps = fleet(6);
    let fw = framework(7, threads);
    let placement = fw.plan_normal_only(&apps).unwrap();
    let schedule = outage_for(&placement);
    let obs = Obs::deterministic();
    let report = fw
        .chaos_replay_on_with(
            PlanRequest::of(&apps).with_obs(&obs),
            &placement,
            &schedule,
            DegradationPolicy::default(),
            migration,
        )
        .unwrap();
    (
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&obs.report()).unwrap(),
    )
}

/// The chaos replay's committed reference outputs: the report with no
/// migration config (zero-cost moves, no report attached) and with the
/// paced config, plus the det obs snapshot of the unconfigured run. The
/// files were captured before the teleport replay path was folded into
/// the migration machine, so they pin that fold bit for bit.
#[test]
fn chaos_replay_matches_committed_goldens() {
    for threads in [1, 4] {
        let (teleport, teleport_obs) = golden_run(None, threads);
        assert_eq!(
            teleport,
            include_str!("golden/chaos_teleport.json").trim_end(),
            "threads {threads}"
        );
        assert_eq!(
            teleport_obs,
            include_str!("golden/chaos_teleport_obs.json").trim_end(),
            "threads {threads}"
        );
        let (paced, _) = golden_run(Some(MigrationConfig::paced()), threads);
        assert_eq!(
            paced,
            include_str!("golden/chaos_paced.json").trim_end(),
            "threads {threads}"
        );
    }
}

fn wl(name: &str, cos1: f64, cos2: f64) -> Workload {
    Workload::new(
        name,
        Trace::constant(hourly(), cos1, hourly().slots_per_week()).unwrap(),
        Trace::constant(hourly(), cos2, hourly().slots_per_week()).unwrap(),
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Satellite 3c: beginning a migration double-books the destination,
    /// and rolling it back restores both servers' aggregate loads to the
    /// exact bits they held before the move started.
    #[test]
    fn rollback_restores_aggregate_loads_bit_exactly(
        demands in proptest::collection::vec((0.2f64..2.5, 0.1f64..1.5), 2..8),
        mover in 0usize..8,
    ) {
        let mut session = EngineSession::new(
            ServerSpec::sixteen_way(),
            PoolCommitments::new(CosSpec::new(0.9, 120).unwrap()),
        );
        let mut ids = Vec::new();
        for (i, &(cos1, cos2)) in demands.iter().enumerate() {
            let (id, _) = session
                .admit(wl(&format!("w-{i}"), cos1, cos2), i % 2)
                .unwrap();
            ids.push(id);
        }
        let id = ids[mover % ids.len()];
        let src = session.assignment_of(id).unwrap();
        let dst = 1 - src;
        let before_src = session.server_required(src).map(f64::to_bits);
        let before_dst = session.server_required(dst).map(f64::to_bits);

        session.begin_migration(id, dst).unwrap();
        // Mid-flight, the destination carries the reservation.
        prop_assert_eq!(session.migrating_to(id), Some(dst));
        prop_assert!(session.server_reserved(dst).contains(&id));
        let booked_dst = session.server_required(dst);
        if let (Some(b), Some(a)) = (before_dst.map(f64::from_bits), booked_dst) {
            prop_assert!(a >= b - 1e-12, "reservation must not shrink the load");
        }

        session.rollback_migration(id).unwrap();
        prop_assert_eq!(session.migrating_to(id), None);
        prop_assert_eq!(session.assignment_of(id), Some(src));
        prop_assert_eq!(
            session.server_required(src).map(f64::to_bits),
            before_src,
            "source load must be restored bit-exactly"
        );
        prop_assert_eq!(
            session.server_required(dst).map(f64::to_bits),
            before_dst,
            "destination load must be restored bit-exactly"
        );
    }
}
