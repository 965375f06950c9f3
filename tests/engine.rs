//! Integration tests of the placement engine's concurrency and caching
//! guarantees: parallel runs must be bit-identical to serial runs under a
//! fixed seed, and cached fit evaluations must agree with uncached ones.

use ropus::case_study::translate_fleet;
use ropus::case_study::CaseConfig;
use ropus::prelude::*;
use ropus_obs::ObsCtx;
use ropus_placement::hetero::consolidate_hetero;
use ropus_placement::simulator::{AggregateLoad, FitOptions, FitRequest};

fn translated_fleet() -> Vec<Workload> {
    let fleet = case_study_fleet(&FleetConfig {
        apps: 12,
        weeks: 2,
        ..FleetConfig::paper()
    });
    translate_fleet(&fleet, &CaseConfig::table1()[2])
        .unwrap()
        .into_iter()
        .map(|t| t.workload)
        .collect()
}

fn consolidate_with(threads: usize) -> PlacementReport {
    let workloads = translated_fleet();
    let consolidator = Consolidator::new(
        ServerSpec::sixteen_way(),
        CaseConfig::table1()[2].commitments(),
        ConsolidationOptions::fast(7).with_threads(threads),
    );
    consolidator
        .consolidate(&workloads, ObsCtx::none())
        .unwrap()
}

#[test]
fn parallel_consolidation_is_bit_identical_to_serial() {
    let serial = consolidate_with(1);
    for threads in [2, 4] {
        let parallel = consolidate_with(threads);
        // PlacementReport equality covers assignment, scores, and
        // per-server capacities bitwise; only the stats are excluded.
        assert_eq!(serial, parallel);
        assert_eq!(serial.assignment, parallel.assignment);
        assert_eq!(
            serial.required_capacity_total.to_bits(),
            parallel.required_capacity_total.to_bits()
        );
        assert_eq!(serial.score.to_bits(), parallel.score.to_bits());
        // The lookup count is scheduling-free (perfbench digests it).
        assert_eq!(serial.stats.evaluations, parallel.stats.evaluations);
        assert_eq!(serial.stats.generations, parallel.stats.generations);
        assert_eq!(parallel.stats.threads, threads);
    }
    assert_eq!(serial.stats.threads, 1);

    // A mixed pool runs the same engine and search, per-server Z included.
    let workloads = translated_fleet();
    let pool = [
        ServerSpec::sixteen_way(),
        ServerSpec::new(8, 1.0),
        ServerSpec::sixteen_way(),
        ServerSpec::new(4, 1.0),
        ServerSpec::new(8, 1.0),
    ];
    let mixed = |threads| {
        consolidate_hetero(
            &workloads,
            &pool,
            CaseConfig::table1()[2].commitments(),
            &GaOptions::fast(7).with_threads(threads),
        )
        .unwrap()
    };
    let serial = mixed(1);
    for threads in [2, 4] {
        let parallel = mixed(threads);
        assert_eq!(serial.assignment, parallel.assignment);
        assert_eq!(serial.score.to_bits(), parallel.score.to_bits());
        assert_eq!(
            serial.required_capacity_total.to_bits(),
            parallel.required_capacity_total.to_bits()
        );
    }
}

#[test]
fn report_carries_engine_statistics() {
    let report = consolidate_with(2);
    let stats = report.stats;
    assert!(stats.evaluations > 0);
    assert_eq!(stats.evaluations, stats.cache_hits + stats.cache_misses);
    assert!(stats.cache_hits > 0, "the GA must revisit member sets");
    assert!(stats.generations > 0);
    assert!(stats.total_wall_ms > 0.0);
    assert!(stats.mean_generation_wall_ms <= stats.total_wall_ms);
    assert!((0.0..=1.0).contains(&stats.hit_rate()));
}

#[test]
fn parallel_plan_matches_serial_plan() {
    let fleet = case_study_fleet(&FleetConfig {
        apps: 8,
        weeks: 2,
        ..FleetConfig::paper()
    });
    let policy = QosPolicy {
        normal: AppQos::paper_default(Some(30)),
        failure: AppQos::paper_default(None),
    };
    let apps: Vec<AppSpec> = fleet
        .into_iter()
        .map(|w| AppSpec::new(w.name, w.trace, policy))
        .collect();
    let build = |threads: usize| {
        Framework::builder()
            .server(ServerSpec::sixteen_way())
            .commitments(PoolCommitments::new(CosSpec::new(0.9, 60).unwrap()))
            .options(ConsolidationOptions::fast(3))
            .threads(threads)
            .build()
            .plan(&apps)
            .unwrap()
    };
    let serial = build(1);
    for threads in [2, 4] {
        let parallel = build(threads);
        assert_eq!(serial.normal_placement, parallel.normal_placement);
        assert_eq!(
            serial.normal_placement.stats.evaluations,
            parallel.normal_placement.stats.evaluations
        );
        assert_eq!(
            serial.failure_analysis.cases.len(),
            parallel.failure_analysis.cases.len()
        );
        for (a, b) in serial
            .failure_analysis
            .cases
            .iter()
            .zip(&parallel.failure_analysis.cases)
        {
            assert_eq!(a.failed_server, b.failed_server);
            assert_eq!(a.affected, b.affected);
            assert_eq!(a.placement, b.placement);
            // Hits plus misses: concurrent cases on the shared memo may
            // trade one for the other, never change the sum.
            let evaluations = |p: &Option<PlacementReport>| p.as_ref().map(|r| r.stats.evaluations);
            assert_eq!(evaluations(&a.placement), evaluations(&b.placement));
        }
        assert_eq!(serial.spare_needed(), parallel.spare_needed());
    }
}

#[test]
fn concurrent_cache_hammer_agrees_with_serial_oracle() {
    // Two threads hammer one shared engine with overlapping member-set
    // queries — racing cache insertions and hits against in-flight
    // misses. Every answer must still be bit-identical to an independent
    // serial evaluation of the same set.
    let workloads = translated_fleet();
    let commitments = CaseConfig::table1()[2].commitments();
    let engine = FitEngine::new(&workloads, ServerSpec::sixteen_way(), commitments, 0.05);

    let n = workloads.len() as u16;
    let mut queries: Vec<Vec<u16>> = Vec::new();
    for i in 0..n {
        queries.push(vec![i]);
        queries.push(vec![i, (i + 1) % n]);
        queries.push(vec![i, (i + 3) % n, (i + 7) % n]);
        // Permuted duplicate of the pair above: must share a cache entry.
        queries.push(vec![(i + 1) % n, i]);
    }

    // Serial oracle: fresh uncached evaluation per query.
    let oracle: Vec<Option<f64>> = queries
        .iter()
        .map(|members| {
            let mut sorted = members.clone();
            sorted.sort_unstable();
            let refs: Vec<&Workload> = sorted.iter().map(|&i| &workloads[i as usize]).collect();
            let load = AggregateLoad::of(&refs).unwrap();
            FitRequest::new(&load, &engine.commitments())
                .with_options(
                    FitOptions::new()
                        .with_memory_capacity(engine.server(0).memory_gb())
                        .with_tolerance(0.05),
                )
                .required_capacity(engine.server(0).capacity())
        })
        .collect();

    let rounds = 4;
    let results: Vec<Vec<Option<f64>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let queries = &queries;
                let engine = &engine;
                // Opposite iteration orders maximize same-key collisions.
                scope.spawn(move || {
                    let mut answers = vec![None; queries.len()];
                    for _ in 0..rounds {
                        for index in 0..queries.len() {
                            let q = if t == 0 {
                                index
                            } else {
                                queries.len() - 1 - index
                            };
                            answers[q] = engine.server_required(0, &queries[q]);
                        }
                    }
                    answers
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for answers in &results {
        for (got, want) in answers.iter().zip(&oracle) {
            assert_eq!(
                got.map(f64::to_bits),
                want.map(f64::to_bits),
                "hammered result diverged from the serial oracle"
            );
        }
    }
    let stats = engine.stats();
    assert_eq!(stats.evaluations, stats.cache_hits + stats.cache_misses);
    assert!(
        stats.cache_hits > 0,
        "repeated and permuted queries must hit the cache"
    );
}

mod cached_matches_uncached {
    use super::*;
    use proptest::prelude::*;

    fn hourly() -> Calendar {
        Calendar::new(60).unwrap()
    }

    fn fleet_from(sizes: &[f64]) -> Vec<Workload> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                Workload::new(
                    format!("w{i}"),
                    Trace::constant(hourly(), 0.0, 168).unwrap(),
                    Trace::constant(hourly(), s, 168).unwrap(),
                )
                .unwrap()
            })
            .collect()
    }

    proptest! {
        #[test]
        fn engine_cache_agrees_with_direct_fit_requests(
            sizes in proptest::collection::vec(0.5f64..9.0, 2..7),
            queries in proptest::collection::vec(
                proptest::collection::vec(0usize..6, 1..5),
                1..12,
            ),
        ) {
            let workloads = fleet_from(&sizes);
            let commitments = PoolCommitments::new(CosSpec::new(0.9, 60).unwrap());
            let engine = FitEngine::new(
                &workloads,
                ServerSpec::sixteen_way(),
                commitments,
                0.05,
            );
            for query in &queries {
                let members: Vec<u16> = query
                    .iter()
                    .map(|&i| (i % workloads.len()) as u16)
                    .collect();
                // First call computes, second call answers from cache.
                let first = engine.server_required(0, &members);
                let cached = engine.server_required(0, &members);
                prop_assert_eq!(first, cached);
                // Both agree with an uncached direct evaluation.
                let mut sorted = members.clone();
                sorted.sort_unstable();
                let refs: Vec<&Workload> =
                    sorted.iter().map(|&i| &workloads[i as usize]).collect();
                let load = AggregateLoad::of(&refs).unwrap();
                let direct = FitRequest::new(&load, &engine.commitments())
                    .with_options(
                        FitOptions::new()
                            .with_memory_capacity(engine.server(0).memory_gb())
                            .with_tolerance(0.05),
                    )
                    .required_capacity(engine.server(0).capacity());
                prop_assert_eq!(first, direct);
            }
            let stats = engine.stats();
            prop_assert_eq!(stats.evaluations, stats.cache_hits + stats.cache_misses);
            prop_assert!(stats.cache_hits >= queries.len() as u64);
        }
    }
}

/// A consolidator's memo is shared by every consolidation it runs: fits
/// warmed by one fleet must never change another's result, and the
/// distinct-case fan-out must reproduce a cold consolidator per case.
mod warm_memo_matches_cold {
    use super::*;
    use proptest::prelude::*;
    use ropus_placement::failure::{analyze_multi_failures, analyze_single_failures};

    fn hourly() -> Calendar {
        Calendar::new(60).unwrap()
    }

    /// An app with a constant CoS1 floor and a six-hour daily CoS2 burst.
    fn app(name: String, (floor, burst, phase): (f64, f64, usize)) -> Workload {
        let cos2: Vec<f64> = (0..168)
            .map(|h| {
                if (h + phase) % 24 < 6 {
                    burst
                } else {
                    burst * 0.25
                }
            })
            .collect();
        Workload::new(
            name,
            Trace::constant(hourly(), floor, 168).unwrap(),
            Trace::from_samples(hourly(), cos2).unwrap(),
        )
        .unwrap()
    }

    fn consolidator(threads: usize) -> Consolidator {
        Consolidator::new(
            ServerSpec::sixteen_way(),
            PoolCommitments::new(CosSpec::new(0.9, 60).unwrap()),
            ConsolidationOptions::fast(5).with_threads(threads),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn consolidate_onto_a_warm_memo_matches_a_cold_consolidator(
            shapes in proptest::collection::vec((0.0f64..1.5, 0.5f64..6.0, 0usize..24), 4..9),
            keep in proptest::collection::vec(0u8..4, 9),
            servers in 2usize..4,
        ) {
            // The second fleet overlaps the first in reverse order: each
            // app is a clone (shared buffers), a separately allocated
            // twin, a new app, or a same-named app with new content.
            let first: Vec<Workload> = shapes
                .iter()
                .enumerate()
                .map(|(i, &s)| app(format!("a{i}"), s))
                .collect();
            let second: Vec<Workload> = shapes
                .iter()
                .enumerate()
                .rev()
                .map(|(i, &s)| match keep[i] {
                    0 => first[i].clone(),
                    1 => app(format!("a{i}"), s),
                    2 => app(format!("b{i}"), (s.0 * 0.5, s.1 + 0.5, s.2 + 3)),
                    _ => app(format!("a{i}"), (s.0, s.1 * 1.5, s.2)),
                })
                .collect();
            let pool = Pool::homogeneous(ServerSpec::sixteen_way(), servers);
            let warm = consolidator(1);
            let _ = warm.consolidate_onto(&first, pool, ObsCtx::none());
            let before = warm.memo_stats();
            let reused = warm.consolidate_onto(&second, pool, ObsCtx::none());
            let cold = consolidator(1).consolidate_onto(&second, pool, ObsCtx::none());
            prop_assert_eq!(reused, cold);
            prop_assert!(warm.memo_stats().entries >= before.entries);
        }
    }

    /// The failure-mode fleet of one app: a separately allocated twin of
    /// its normal workload (so content ids, not buffers, must match it),
    /// or a shrunk one.
    fn failure_fleet(shapes: &[(f64, f64, usize)], shrink: bool) -> Vec<Workload> {
        shapes
            .iter()
            .enumerate()
            .map(|(i, &(floor, burst, phase))| {
                let shape = if shrink && i % 2 == 0 {
                    (0.0, burst * 0.6, phase)
                } else {
                    (floor, burst, phase)
                };
                app(format!("a{i}"), shape)
            })
            .collect()
    }

    fn mixed(
        normal: &[Workload],
        failure: &[Workload],
        affected: &[usize],
        scope: FailureScope,
    ) -> Vec<Workload> {
        (0..normal.len())
            .map(|i| {
                if scope == FailureScope::AllApplications || affected.contains(&i) {
                    failure[i].clone()
                } else {
                    normal[i].clone()
                }
            })
            .collect()
    }

    #[test]
    fn failure_sweeps_match_a_per_case_loop_of_fresh_consolidators() {
        let shapes: Vec<(f64, f64, usize)> = (0..12)
            .map(|i| (0.8 + 0.1 * i as f64, 5.0 + 0.6 * (i % 4) as f64, 2 * i))
            .collect();
        let normal: Vec<Workload> = shapes
            .iter()
            .enumerate()
            .map(|(i, &s)| app(format!("a{i}"), s))
            .collect();
        let fresh = |fleet: &[Workload], servers: usize| {
            let pool = Pool::homogeneous(ServerSpec::sixteen_way(), servers);
            consolidator(1)
                .consolidate_onto(fleet, pool, ObsCtx::none())
                .ok()
        };
        for shrink in [false, true] {
            let failure = failure_fleet(&shapes, shrink);
            for threads in [1, 3] {
                let c = consolidator(threads);
                let report = c.consolidate(&normal, ObsCtx::none()).unwrap();
                let used = report.servers_used;
                assert!(used >= 3, "need three servers, got {used}");
                for scope in [FailureScope::AffectedOnly, FailureScope::AllApplications] {
                    let before = c.memo_stats();
                    let single =
                        analyze_single_failures(&c, &report, &normal, &failure, scope).unwrap();
                    let sweep = c.memo_stats().since(&before);
                    assert_eq!(single.cases.len(), used);
                    for (case, server) in single.cases.iter().zip(&report.servers) {
                        let fleet = mixed(&normal, &failure, &server.workloads, scope);
                        assert_eq!(case.placement, fresh(&fleet, used - 1), "{scope:?}");
                    }
                    // Bit-identical twins make every case one consolidation,
                    // as do all-applications sweeps.
                    if !shrink || scope == FailureScope::AllApplications {
                        assert_eq!(sweep.distinct_cases, 1, "{scope:?} shrink {shrink}");
                    } else {
                        // Only the shrunk (even) apps tell cases apart.
                        let mut shrunk: Vec<Vec<usize>> = report
                            .servers
                            .iter()
                            .map(|s| s.workloads.iter().copied().filter(|i| i % 2 == 0).collect())
                            .collect();
                        shrunk.sort();
                        shrunk.dedup();
                        assert_eq!(sweep.distinct_cases, shrunk.len() as u64);
                    }

                    let multi =
                        analyze_multi_failures(&c, &report, &normal, &failure, scope, 2).unwrap();
                    for case in &multi.cases {
                        let fleet = mixed(&normal, &failure, &case.affected, scope);
                        assert_eq!(case.placement, fresh(&fleet, used - 2), "{scope:?}");
                    }
                }
            }
        }
    }
}
