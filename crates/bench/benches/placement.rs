//! Criterion benchmarks of the consolidation search (§VI-B): genetic
//! algorithm vs the greedy baselines on translated case-study workloads,
//! plus the engine-level axes the placement refactor introduced —
//! serial vs parallel population scoring and cold vs warm fit cache.
//!
//! The paper reports ~10 minutes of CPU time on a 3.4 GHz Pentium for the
//! full 26-app exercise; only relative algorithmic cost is meaningful for
//! the reproduction, so the benchmark uses a 12-app subset and reduced
//! search options to keep iterations statistically sound.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ropus_obs::ObsCtx;
use std::hint::black_box;

use ropus::case_study::{translate_fleet, CaseConfig};
use ropus_placement::consolidate::{ConsolidationOptions, Consolidator};
use ropus_placement::engine::FitEngine;
use ropus_placement::greedy::{place, GreedyStrategy};
use ropus_placement::server::ServerSpec;
use ropus_placement::workload::Workload;
use ropus_trace::gen::{case_study_fleet, FleetConfig};

fn bench_workloads() -> Vec<Workload> {
    let fleet = case_study_fleet(&FleetConfig {
        apps: 12,
        weeks: 2,
        ..FleetConfig::paper()
    });
    translate_fleet(&fleet, &CaseConfig::table1()[2])
        .expect("translation succeeds")
        .into_iter()
        .map(|t| t.workload)
        .collect()
}

fn bench_greedy(c: &mut Criterion) {
    let workloads = bench_workloads();
    let case = CaseConfig::table1()[2];
    let mut group = c.benchmark_group("greedy_12_apps");
    for strategy in GreedyStrategy::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{strategy:?}")),
            &strategy,
            |b, &strategy| {
                b.iter(|| {
                    // A fresh engine per iteration so the fit cache does
                    // not carry over (the cache is the point of reuse in
                    // production, but here we want the cold cost).
                    let evaluator = FitEngine::new(
                        &workloads,
                        ServerSpec::sixteen_way(),
                        case.commitments(),
                        0.1,
                    );
                    black_box(place(&evaluator, strategy).unwrap())
                })
            },
        );
    }
    group.finish();
}

fn bench_ga(c: &mut Criterion) {
    let workloads = bench_workloads();
    let case = CaseConfig::table1()[2];
    let mut group = c.benchmark_group("consolidation_12_apps");
    group.sample_size(10);
    group.bench_function("genetic_algorithm_fast", |b| {
        b.iter(|| {
            let consolidator = Consolidator::new(
                ServerSpec::sixteen_way(),
                case.commitments(),
                ConsolidationOptions::fast(7),
            );
            black_box(
                consolidator
                    .consolidate(&workloads, ObsCtx::none())
                    .unwrap(),
            )
        })
    });
    group.finish();
}

/// Serial vs parallel population scoring: the same fixed-seed search on
/// 1, 2, and 4 worker threads. Results are bit-identical across the axis;
/// only wall time should move.
fn bench_threads(c: &mut Criterion) {
    let workloads = bench_workloads();
    let case = CaseConfig::table1()[2];
    let mut group = c.benchmark_group("consolidation_threads");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let consolidator = Consolidator::new(
                        ServerSpec::sixteen_way(),
                        case.commitments(),
                        ConsolidationOptions::fast(7).with_threads(threads),
                    );
                    black_box(
                        consolidator
                            .consolidate(&workloads, ObsCtx::none())
                            .unwrap(),
                    )
                })
            },
        );
    }
    group.finish();
}

/// Cold vs warm fit cache: repeated required-capacity queries over the
/// same member sets, against a fresh engine per iteration (every query is
/// a binary search) and against a pre-warmed engine (every query is a
/// hash lookup).
fn bench_cache(c: &mut Criterion) {
    let workloads = bench_workloads();
    let case = CaseConfig::table1()[2];
    let member_sets: Vec<Vec<u16>> = (0..workloads.len() as u16)
        .map(|i| vec![i, (i + 1) % workloads.len() as u16])
        .collect();
    let mut group = c.benchmark_group("fit_cache");
    group.bench_function("cold", |b| {
        b.iter(|| {
            let engine = FitEngine::new(
                &workloads,
                ServerSpec::sixteen_way(),
                case.commitments(),
                0.1,
            );
            for set in &member_sets {
                black_box(engine.server_required(0, set));
            }
        })
    });
    let warm = FitEngine::new(
        &workloads,
        ServerSpec::sixteen_way(),
        case.commitments(),
        0.1,
    );
    for set in &member_sets {
        warm.server_required(0, set);
    }
    group.bench_function("warm", |b| {
        b.iter(|| {
            for set in &member_sets {
                black_box(warm.server_required(0, set));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_greedy, bench_ga, bench_threads, bench_cache);
criterion_main!(benches);
