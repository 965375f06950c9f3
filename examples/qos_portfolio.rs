//! The portfolio translation under the microscope: how one bursty
//! application's demand is split across the two classes of service as the
//! pool's resource access probability θ varies (the Fig. 3 mechanics).
//!
//! Run with: `cargo run --release -p ropus --example qos_portfolio`

use ropus::prelude::*;
use ropus_obs::ObsCtx;
use ropus_qos::portfolio::{breakpoint, normalized_max_allocation};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One bursty app from the case-study fleet.
    let fleet = case_study_fleet(&FleetConfig {
        apps: 3,
        weeks: 2,
        ..FleetConfig::paper()
    });
    let app = &fleet[2];
    let band = UtilizationBand::new(0.5, 0.66)?;
    let qos = AppQos::new(band, Some(DegradationSpec::new(0.03, 0.9, Some(30))?));

    println!(
        "application: {} (D_max = {:.2} CPUs)",
        app.name,
        app.trace.peak()
    );
    println!("QoS: band (0.5, 0.66), M_degr 3%, U_degr 0.9, T_degr 30 min\n");
    println!(
        "{:>5} {:>12} {:>12} {:>12} {:>12} {:>12} {:>10}",
        "θ", "breakpoint", "norm. A_max", "D_new_max", "CoS1 peak", "CoS2 peak", "degraded%"
    );
    for theta in [0.5, 0.6, 0.7, 0.76, 0.8, 0.9, 0.95, 1.0] {
        let cos2 = CosSpec::new(theta, 60)?;
        let translation = translate(&app.trace, &qos, &cos2, ObsCtx::none())?;
        let r = &translation.report;
        println!(
            "{theta:>5.2} {:>12.3} {:>12.3} {:>12.2} {:>12.2} {:>12.2} {:>9.2}%",
            breakpoint(band, &cos2),
            normalized_max_allocation(band, &cos2),
            r.d_new_max,
            translation.cos1().peak(),
            translation.cos2().peak(),
            100.0 * r.degraded_fraction,
        );
    }
    println!("\nHigher θ: smaller guaranteed share (breakpoint), smaller maximum");
    println!("allocation under the 30-minute degradation limit — exactly the");
    println!("trends of Fig. 3 in the paper.");
    Ok(())
}
