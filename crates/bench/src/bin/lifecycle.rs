//! Out-of-sample validation of the paper's trace-based premise: plan on
//! the first three weeks of the case-study fleet, then replay the unseen
//! fourth week through the placed hosts and audit every application's
//! delivered QoS ("we assume the resource access QoS will be similar in
//! the near future", §II).
//!
//! A second table re-plans weekly on a one-week window under the paced
//! migration model, so every epoch after the first walks its moves
//! through drain, transfer, cutover and health check before the unseen
//! week is audited.
//!
//! Run with: `cargo run --release -p ropus-bench --bin lifecycle`

use ropus::prelude::*;
use ropus_bench::{fmt, paper_fleet, write_tsv};
use ropus_placement::server::ServerSpec;

fn main() {
    let policy = QosPolicy::uniform(AppQos::paper_default(Some(30)));
    let apps: Vec<AppSpec> = paper_fleet()
        .into_iter()
        .map(|a| AppSpec::new(a.name, a.trace, policy))
        .collect();
    let framework = Framework::builder()
        .server(ServerSpec::sixteen_way())
        .commitments(PoolCommitments::new(
            CosSpec::new(0.95, 60).expect("valid θ"),
        ))
        .options(ConsolidationOptions::thorough(0x0DE5))
        .build();

    println!("Out-of-sample lifecycle: plan on a 3-week window, replay the next week");
    let report = framework
        .run_lifecycle(&apps, 3)
        .expect("4-week fleet supports one epoch");
    print_epochs(&report);
    let rows: Vec<Vec<String>> = report.epochs.iter().map(epoch_row).collect();
    write_tsv("lifecycle_out_of_sample", &COLUMNS, &rows);
    println!(
        "\n{} of 26 applications kept their QoS on the unseen week — the paper's \
         trace-based premise {} for this fleet",
        26 - report.epochs[0].violations,
        if report.worst_compliance() >= 0.9 {
            "holds"
        } else {
            "strains"
        }
    );

    println!("\nPaced migrations: re-plan weekly on a 1-week window");
    let paced = framework
        .run_lifecycle_with(&apps, 1, MigrationConfig::paced())
        .expect("4-week fleet supports three epochs");
    print_epochs(&paced);
    let rows: Vec<Vec<String>> = paced
        .epochs
        .iter()
        .map(|epoch| {
            let mut row = epoch_row(epoch);
            row.extend([
                epoch.rolled_back.to_string(),
                epoch.failed.to_string(),
                epoch.slo_alerts.to_string(),
            ]);
            row
        })
        .collect();
    let mut columns = COLUMNS.to_vec();
    columns.extend(["rolled_back", "failed", "slo_alerts"]);
    write_tsv("lifecycle_paced_out_of_sample", &columns, &rows);
}

const COLUMNS: [&str; 5] = [
    "week",
    "servers",
    "violations",
    "compliant_fraction",
    "migrations",
];

fn epoch_row(epoch: &EpochOutcome) -> Vec<String> {
    vec![
        epoch.week.to_string(),
        epoch.servers.to_string(),
        epoch.violations.to_string(),
        fmt(epoch.compliant_fraction, 4),
        epoch.migrations.to_string(),
    ]
}

fn print_epochs(report: &LifecycleReport) {
    println!(
        "{:>6} {:>8} {:>12} {:>22} {:>11}",
        "week", "servers", "violations", "compliant fraction", "migrations"
    );
    for epoch in &report.epochs {
        println!(
            "{:>6} {:>8} {:>12} {:>22.3} {:>11}",
            epoch.week, epoch.servers, epoch.violations, epoch.compliant_fraction, epoch.migrations
        );
    }
}
