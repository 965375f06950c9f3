//! Ablation: genetic search vs greedy baselines.
//!
//! §VIII of the paper claims the GA "compared favorably to the greedy
//! algorithms we implemented ourselves". This experiment runs all four
//! search strategies on the same translated case-study fleet (case 2 QoS)
//! and reports servers used, C_requ, score, and wall time. Wall time is
//! printed only: `results/ablation_search.tsv` keeps the deterministic
//! columns, so it regenerates byte-identically.
//!
//! Run with: `cargo run --release -p ropus-bench --bin ablation_search`

use ropus_obs::{Clock, ObsCtx, WallClock};

use ropus::case_study::{translate_fleet, CaseConfig};
use ropus_bench::{fmt, paper_fleet, write_tsv};
use ropus_placement::consolidate::{ConsolidationOptions, Consolidator};
use ropus_placement::engine::FitEngine;
use ropus_placement::greedy::{place, servers_used, GreedyStrategy};
use ropus_placement::server::ServerSpec;
use ropus_placement::workload::Workload;

fn main() {
    let fleet = paper_fleet();
    let case = CaseConfig::table1()[1];
    let workloads: Vec<Workload> = translate_fleet(&fleet, &case)
        .expect("translation succeeds")
        .into_iter()
        .map(|t| t.workload)
        .collect();

    println!("Search ablation (case 2 QoS: M_degr 3%, θ 0.6, T_degr 30 min)");
    println!(
        "{:<22} {:>8} {:>10} {:>10} {:>10}",
        "strategy", "servers", "C_requ", "score", "ms"
    );
    let mut rows = Vec::new();

    for strategy in GreedyStrategy::ALL {
        let evaluator = FitEngine::new(
            &workloads,
            ServerSpec::sixteen_way(),
            case.commitments(),
            0.05,
        );
        let clock = WallClock::new();
        let assignment = place(&evaluator, strategy).expect("greedy placement succeeds");
        let elapsed = clock.now_ms() as u128;
        let n = servers_used(&assignment);
        let (score, feasible) = evaluator.evaluate(&assignment, n);
        assert!(feasible);
        let c_requ: f64 = (0..n)
            .map(|srv| {
                let members: Vec<u16> = assignment
                    .iter()
                    .enumerate()
                    .filter(|(_, &s)| s == srv)
                    .map(|(i, _)| i as u16)
                    .collect();
                evaluator
                    .server_required(srv, &members)
                    .expect("feasible server fits")
            })
            .sum();
        let label = format!("{strategy:?}");
        println!("{label:<22} {n:>8} {c_requ:>10.1} {score:>10.3} {elapsed:>10}");
        rows.push(vec![label, n.to_string(), fmt(c_requ, 2), fmt(score, 4)]);
    }

    let consolidator = Consolidator::new(
        ServerSpec::sixteen_way(),
        case.commitments(),
        ConsolidationOptions::thorough(0x0DE5),
    );
    let clock = WallClock::new();
    let report = consolidator
        .consolidate(&workloads, ObsCtx::none())
        .expect("GA consolidation succeeds");
    let elapsed = clock.now_ms() as u128;
    println!(
        "{:<22} {:>8} {:>10.1} {:>10.3} {:>10}",
        "GeneticAlgorithm",
        report.servers_used,
        report.required_capacity_total,
        report.score,
        elapsed
    );
    rows.push(vec![
        "GeneticAlgorithm".to_string(),
        report.servers_used.to_string(),
        fmt(report.required_capacity_total, 2),
        fmt(report.score, 4),
    ]);

    write_tsv(
        "ablation_search",
        &["strategy", "servers", "c_requ", "score"],
        &rows,
    );
    println!("\nthe GA must match or beat every greedy baseline on score (never on speed)");
}
