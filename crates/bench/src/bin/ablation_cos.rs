//! Ablation: two classes of service vs a single class.
//!
//! The paper (§VII): "If all demands were associated with CoS1 then ...
//! we would require at least 15 servers for case 1 and 11 servers for
//! case 3. Thus having multiple classes of service is advantageous."
//! This experiment consolidates the fleet three ways per case:
//! all demand guaranteed (CoS1-only), the paper's portfolio split, and
//! everything statistical (CoS2-only).
//!
//! Run with: `cargo run --release -p ropus-bench --bin ablation_cos`

use ropus::case_study::{translate_fleet, CaseConfig};
use ropus_bench::{fmt, paper_fleet, write_tsv};
use ropus_obs::ObsCtx;
use ropus_placement::consolidate::{ConsolidationOptions, Consolidator};
use ropus_placement::server::ServerSpec;
use ropus_placement::workload::Workload;
use ropus_trace::Trace;

/// Moves every unit of allocation into the chosen class.
fn reclass(workloads: &[Workload], all_cos1: bool) -> Vec<Workload> {
    workloads
        .iter()
        .map(|w| {
            let total = Trace::from_samples(w.calendar(), w.total_allocation())
                .expect("a translated allocation is a valid trace");
            let zero = total.scaled(0.0).expect("zero scale is valid");
            if all_cos1 {
                Workload::new(w.name(), total, zero).expect("aligned by construction")
            } else {
                Workload::new(w.name(), zero, total).expect("aligned by construction")
            }
        })
        .collect()
}

fn main() {
    let fleet = paper_fleet();
    println!("CoS ablation: servers and C_requ per demand-classing policy");
    println!(
        "{:>4} {:<18} {:>8} {:>10} {:>10}",
        "case", "classing", "servers", "C_requ", "C_peak"
    );
    let mut rows = Vec::new();

    for case in [CaseConfig::table1()[0], CaseConfig::table1()[2]] {
        let portfolio: Vec<Workload> = translate_fleet(&fleet, &case)
            .expect("translation succeeds")
            .into_iter()
            .map(|t| t.workload)
            .collect();
        let variants: [(&str, Vec<Workload>); 3] = [
            ("all-CoS1", reclass(&portfolio, true)),
            ("portfolio (paper)", portfolio.clone()),
            ("all-CoS2", reclass(&portfolio, false)),
        ];
        for (label, workloads) in variants {
            let consolidator = Consolidator::new(
                ServerSpec::sixteen_way(),
                case.commitments(),
                ConsolidationOptions::thorough(0x0DE5),
            );
            match consolidator.consolidate(&workloads, ObsCtx::none()) {
                Ok(report) => {
                    println!(
                        "{:>4} {:<18} {:>8} {:>10.1} {:>10.1}",
                        case.id,
                        label,
                        report.servers_used,
                        report.required_capacity_total,
                        report.peak_allocation_total
                    );
                    rows.push(vec![
                        case.id.to_string(),
                        label.to_string(),
                        report.servers_used.to_string(),
                        fmt(report.required_capacity_total, 2),
                        fmt(report.peak_allocation_total, 2),
                    ]);
                }
                Err(err) => {
                    println!("{:>4} {:<18} {:>8} {err}", case.id, label, "-");
                    rows.push(vec![
                        case.id.to_string(),
                        label.to_string(),
                        "-".to_string(),
                        "-".to_string(),
                        "-".to_string(),
                    ]);
                }
            }
        }
    }
    write_tsv(
        "ablation_cos",
        &["case", "classing", "servers", "c_requ", "c_peak"],
        &rows,
    );
    println!(
        "\nall-CoS1 reserves the sum of peaks per server (no overbooking), so it needs the most \
         servers; the portfolio matches all-CoS2's packing while keeping a guaranteed floor."
    );
}
