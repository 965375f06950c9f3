//! Ablation: the paper's `f(U) = U^(2Z)` utilization value vs flatter
//! alternatives (`U²`, `U`).
//!
//! The Z-scaled square term "exaggerates the advantages of higher
//! utilizations" and "demands that servers with greater numbers of CPUs
//! be higher utilized". Flatter shapes blunt the search gradient: an
//! almost-empty server contributes nearly as much as a hot one, so the GA
//! has less pressure to consolidate.
//!
//! Run with: `cargo run --release -p ropus-bench --bin ablation_score`

use ropus::case_study::{translate_fleet, CaseConfig};
use ropus_bench::{fmt, paper_fleet, write_tsv};
use ropus_placement::engine::FitEngine;
use ropus_placement::ga::{optimize, GaOptions};
use ropus_placement::greedy::{place, servers_used, GreedyStrategy};
use ropus_placement::score::ScoreModel;
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

    println!("Score-function ablation (case 2 QoS), GA with identical seeds/options");
    println!(
        "{:<12} {:>8} {:>10} {:>16}",
        "f(U)", "servers", "C_requ", "fit evaluations"
    );
    let mut rows = Vec::new();

    for (label, model) in [
        ("U^(2Z)", ScoreModel::PowerTwoZ),
        ("U^2", ScoreModel::Quadratic),
        ("U", ScoreModel::Linear),
    ] {
        let evaluator = FitEngine::new(
            &workloads,
            ServerSpec::sixteen_way(),
            case.commitments(),
            0.05,
        )
        .with_score_model(model);
        let initial =
            place(&evaluator, GreedyStrategy::FirstFitDecreasing).expect("FFD seeding succeeds");
        let pool = servers_used(&initial);
        let outcome = optimize(&evaluator, &[initial], pool, &GaOptions::thorough(0x0DE5))
            .expect("search finds a feasible assignment");
        // Distinct servers actually hosting workloads (GA may leave gaps in
        // the index space).
        let n = outcome
            .assignment
            .iter()
            .collect::<std::collections::HashSet<_>>()
            .len();
        let c_requ: f64 = (0..pool)
            .filter_map(|srv| {
                let members: Vec<u16> = outcome
                    .assignment
                    .iter()
                    .enumerate()
                    .filter(|(_, &s)| s == srv)
                    .map(|(i, _)| i as u16)
                    .collect();
                if members.is_empty() {
                    None
                } else {
                    evaluator.server_required(srv, &members)
                }
            })
            .sum();
        println!(
            "{label:<12} {n:>8} {c_requ:>10.1} {:>16}",
            outcome.evaluations
        );
        rows.push(vec![
            label.to_string(),
            n.to_string(),
            fmt(c_requ, 2),
            outcome.evaluations.to_string(),
        ]);
    }
    write_tsv(
        "ablation_score",
        &["f_u", "servers", "c_requ", "fit_evaluations"],
        &rows,
    );
    println!(
        "\nflatter utilization values weaken the consolidation gradient; the paper's \
              Z-scaled square should use the fewest (or equal) servers"
    );
}
