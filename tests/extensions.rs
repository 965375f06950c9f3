//! Integration tests of the beyond-the-paper extensions working together:
//! heterogeneous pools, the memory attribute, epoch budgets, and
//! multi-node failure sweeps.

use ropus::prelude::*;
use ropus_obs::ObsCtx;
use ropus_placement::failure::analyze_multi_failures;
use ropus_placement::ga::GaOptions;
use ropus_placement::hetero::{consolidate_hetero, seed_ffd};
use ropus_trace::gen::MemoryModel;
use ropus_trace::rng::Rng;

fn policy() -> QosPolicy {
    QosPolicy {
        normal: AppQos::paper_default(Some(30)),
        failure: AppQos::paper_default(None),
    }
}

fn translated_fleet(apps: usize, theta: f64) -> Vec<Workload> {
    let fleet = case_study_fleet(&FleetConfig {
        apps,
        weeks: 1,
        ..FleetConfig::paper()
    });
    let cos2 = CosSpec::new(theta, 60).unwrap();
    fleet
        .into_iter()
        .map(|app| {
            let t = translate(&app.trace, &policy().normal, &cos2, ObsCtx::none()).unwrap();
            Workload::from_translation(app.name, t)
        })
        .collect()
}

#[test]
fn hetero_pool_places_case_study_apps() {
    let workloads = translated_fleet(8, 0.9);
    let pool = vec![
        ServerSpec::sixteen_way(),
        ServerSpec::sixteen_way(),
        ServerSpec::new(8, 1.0),
        ServerSpec::new(4, 1.0),
    ];
    let commitments = PoolCommitments::new(CosSpec::new(0.9, 60).unwrap());
    let options = GaOptions::fast(2);
    let report = consolidate_hetero(&workloads, &pool, commitments, &options).unwrap();
    // Every workload placed, on a feasible assignment.
    assert_eq!(report.assignment.len(), 8);
    let engine = FitEngine::for_servers(&workloads, &pool, commitments, options.capacity_tolerance);
    let (_, feasible) = engine.evaluate(&report.assignment, pool.len());
    assert!(feasible);
    // The GA never scores below its FFD seed.
    let seed = seed_ffd(&engine, pool.len()).unwrap();
    let (seed_score, _) = engine.evaluate(&seed, pool.len());
    assert!(report.score >= seed_score - 1e-9);
}

#[test]
fn hetero_matches_homogeneous_when_pool_is_uniform() {
    // A uniform list is one server class: the heterogeneous entry must
    // return exactly the homogeneous consolidator's placement on a pool of
    // the same size — same assignment, bit-identical score. On this fleet
    // the search improves on its FFD seed, so the result depends on every
    // RNG draw and score of the run.
    let workloads = translated_fleet(16, 0.95);
    let commitments = PoolCommitments::new(CosSpec::new(0.95, 60).unwrap());
    let options = ConsolidationOptions::fast(3);
    let consolidator = Consolidator::new(ServerSpec::sixteen_way(), commitments, options);
    let k = consolidator
        .consolidate(&workloads, ObsCtx::none())
        .unwrap()
        .servers_used;
    let homo = consolidator
        .consolidate_onto(
            &workloads,
            Pool::homogeneous(ServerSpec::sixteen_way(), k),
            ObsCtx::none(),
        )
        .unwrap();
    let pool = vec![ServerSpec::sixteen_way(); k];
    let report = consolidate_hetero(&workloads, &pool, commitments, &options.ga).unwrap();
    assert_eq!(report.assignment, homo.assignment);
    assert_eq!(report.score.to_bits(), homo.score.to_bits());
}

#[test]
fn memory_attribute_survives_the_full_plan_pipeline() {
    let fleet = case_study_fleet(&FleetConfig {
        apps: 5,
        weeks: 1,
        ..FleetConfig::paper()
    });
    let mut rng = Rng::seed_from_u64(77);
    let model = MemoryModel {
        base_gb: 20.0,
        per_cpu_gb: 2.0,
        ..MemoryModel::typical()
    };
    let apps: Vec<AppSpec> = fleet
        .into_iter()
        .map(|app| {
            let memory = model.generate(&app.trace, &mut rng);
            AppSpec::new(app.name, app.trace, policy())
                .with_memory(memory)
                .unwrap()
        })
        .collect();
    let framework = Framework::builder()
        .server(ServerSpec::sixteen_way())
        .commitments(PoolCommitments::new(CosSpec::new(0.9, 60).unwrap()))
        .options(ConsolidationOptions::fast(4))
        .build();
    let plan = framework.plan(&apps).unwrap();
    // 5 apps x >= 20 GB on 64 GB servers: at least ceil(100/64) = 2 servers.
    assert!(plan.normal_servers() >= 2, "{}", plan.normal_servers());
    // Failure cases inherit the memory constraint too: any supported case
    // must respect it on the survivors.
    for case in &plan.failure_analysis.cases {
        if let Some(p) = &case.placement {
            assert!(p.servers_used >= 2);
        }
    }
}

#[test]
fn epoch_budget_tightens_the_fleet_translation() {
    let fleet = case_study_fleet(&FleetConfig {
        apps: 6,
        weeks: 2,
        ..FleetConfig::paper()
    });
    let cos2 = CosSpec::new(0.6, 60).unwrap();
    let plain = AppQos::paper_default(None);
    let budgeted = AppQos::new(
        UtilizationBand::paper_default(),
        Some(
            DegradationSpec::paper_default(None)
                .with_epoch_budget(2)
                .unwrap(),
        ),
    );
    for app in &fleet {
        let free = translate(&app.trace, &plain, &cos2, ObsCtx::none())
            .unwrap()
            .report;
        let tight = translate(&app.trace, &budgeted, &cos2, ObsCtx::none())
            .unwrap()
            .report;
        assert!(tight.max_degraded_epochs_per_week <= 2, "{}", app.name);
        // The budget can only raise the cap (reduce savings).
        assert!(tight.d_new_max >= free.d_new_max - 1e-9);
        assert!(tight.peak_allocation >= free.peak_allocation - 1e-9);
    }
}

#[test]
fn double_failure_needs_more_relief_than_single() {
    let fleet = case_study_fleet(&FleetConfig {
        apps: 8,
        weeks: 1,
        ..FleetConfig::paper()
    });
    let cos2 = CosSpec::new(0.9, 60).unwrap();
    let normal: Vec<Workload> = fleet
        .iter()
        .map(|app| {
            let t = translate(&app.trace, &policy().normal, &cos2, ObsCtx::none()).unwrap();
            Workload::from_translation(app.name.clone(), t)
        })
        .collect();
    let failure: Vec<Workload> = fleet
        .iter()
        .map(|app| {
            let t = translate(&app.trace, &policy().failure, &cos2, ObsCtx::none()).unwrap();
            Workload::from_translation(app.name.clone(), t)
        })
        .collect();
    let consolidator = Consolidator::new(
        ServerSpec::sixteen_way(),
        PoolCommitments::new(cos2),
        ConsolidationOptions::fast(6),
    );
    let report = consolidator.consolidate(&normal, ObsCtx::none()).unwrap();
    if report.servers_used < 3 {
        // Not enough servers for a meaningful k=2 sweep on this subset.
        return;
    }
    let single = ropus_placement::failure::analyze_single_failures(
        &consolidator,
        &report,
        &normal,
        &failure,
        FailureScope::AllApplications,
    )
    .unwrap();
    let double = analyze_multi_failures(
        &consolidator,
        &report,
        &normal,
        &failure,
        FailureScope::AllApplications,
        2,
    )
    .unwrap();
    // C(n, 2) combinations, and double failures are never easier to absorb
    // than single ones.
    let n = report.servers_used;
    assert_eq!(double.cases.len(), n * (n - 1) / 2);
    if single.spare_needed() {
        assert!(!double.all_supported());
    }
}
