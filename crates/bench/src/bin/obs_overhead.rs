//! Obs-overhead smoke for the SLO engine: a 10,000-app week replay
//! (2016 five-minute slots, slot-major) run twice — once with obs off,
//! once with a deterministic collector plus the per-slot counter and
//! histogram load the serve daemon generates — written as JSON under
//! `target/bench/` so CI archives the overhead trajectory.
//!
//! The acceptance budget is < 3% overhead for the obs-on run. Each side
//! is timed over several interleaved repeats and the minimum is
//! compared, so scheduler noise on a loaded runner does not trip the
//! gate.
//!
//! Run with: `cargo run --release -p ropus-bench --bin obs_overhead`

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use serde::Serialize;

use ropus_obs::{names, BurnRateRule, Clock, Obs, ObsCtx, SloContract, SloEngine, WallClock};

/// Fleet size of the overhead point.
const APPS: usize = 10_000;
/// One week of five-minute slots.
const SLOTS: usize = 2016;
/// Interleaved (off, on) timing pairs; the gate reads the min per side.
const REPEATS: usize = 5;
/// Overhead budget, percent.
const BUDGET_PCT: f64 = 3.0;
/// Histogram bounds for the per-slot degraded-fraction sample.
const SATURATION_BOUNDS: &[f64] = &[0.001, 0.01, 0.05, 0.1, 0.5];

/// The archived summary, one JSON object per CI run.
#[derive(Serialize)]
struct OverheadSummary {
    bench: &'static str,
    apps: usize,
    slots: usize,
    repeats: usize,
    obs_off_s: f64,
    obs_on_s: f64,
    overhead_pct: f64,
    alerts: usize,
    budget_pct: f64,
}

/// Registers the 10k-app contract set (paper-shaped: U_high 0.66,
/// U_degr 0.9, M_degr 3%, T_degr 3 h).
fn build_engine() -> SloEngine {
    let mut engine = SloEngine::new(BurnRateRule::default_rules());
    for i in 0..APPS {
        engine.register(SloContract::new(
            format!("app-{i:05}"),
            0.66,
            0.9,
            0.03,
            Some(36),
        ));
    }
    engine
}

/// Synthetic utilization of allocation: a healthy 0.30–0.60 spread
/// (always under `U_high`) with roughly 1% of the fleet bursting
/// contiguously (slots 600..660) hard enough to trip both burn-rate
/// rules.
fn utilization(app: usize, slot: usize) -> f64 {
    if app.is_multiple_of(97) && (600..660).contains(&slot) {
        return 0.85;
    }
    let phase = (app * 31 + slot * 7) % 101;
    0.30 + 0.003 * phase as f64
}

/// One full week replay; returns the alert count as a cross-run check.
fn run_week(obs: ObsCtx<'_>) -> usize {
    let mut engine = build_engine();
    for slot in 0..SLOTS {
        let mut degraded = 0usize;
        for app in 0..APPS {
            let u = utilization(app, slot);
            if u > 0.66 {
                degraded += 1;
            }
            engine.observe(app, slot, u, obs);
        }
        // The per-slot recording load a serve tick generates.
        obs.counter(names::SERVE_TICK_COUNT, 1);
        obs.histogram(
            names::WLM_HOST_SATURATION,
            SATURATION_BOUNDS,
            degraded as f64 / APPS as f64,
        );
    }
    engine.record_counters(obs);
    engine.alerts().len()
}

fn main() -> ExitCode {
    let clock = WallClock::new();

    // One untimed pass warms the allocator and fault-in costs so the
    // first timed repeat is not systematically slower.
    run_week(ObsCtx::none());

    let mut off_s = f64::INFINITY;
    let mut on_s = f64::INFINITY;
    let mut alerts_off = 0usize;
    let mut alerts_on = 0usize;
    for _ in 0..REPEATS {
        let start = clock.now_ms();
        alerts_off = run_week(ObsCtx::none());
        off_s = off_s.min((clock.now_ms() - start) / 1e3);

        let obs = Obs::deterministic();
        let start = clock.now_ms();
        alerts_on = run_week(ObsCtx::from(&obs));
        on_s = on_s.min((clock.now_ms() - start) / 1e3);
        let report = obs.report();
        assert_eq!(
            report.counter(names::SLO_SAMPLES),
            (APPS * SLOTS) as u64,
            "deterministic collector saw every sample"
        );
    }
    assert_eq!(alerts_off, alerts_on, "alert log is obs-independent");

    let overhead_pct = (on_s - off_s) / off_s * 100.0;
    println!(
        "obs_overhead: {APPS} apps × {SLOTS} slots: obs-off {off_s:.3} s, obs-on {on_s:.3} s, overhead {overhead_pct:+.2}% ({alerts_on} alerts)",
    );

    let summary = OverheadSummary {
        bench: "obs_overhead_10k",
        apps: APPS,
        slots: SLOTS,
        repeats: REPEATS,
        obs_off_s: off_s,
        obs_on_s: on_s,
        overhead_pct,
        alerts: alerts_on,
        budget_pct: BUDGET_PCT,
    };
    let json = serde_json::to_string_pretty(&summary).expect("serialize bench summary");
    let dir = Path::new("target/bench");
    fs::create_dir_all(dir).expect("create target/bench");
    let path = dir.join("obs_overhead_10k.json");
    fs::write(&path, json + "\n").expect("write bench summary");
    println!("obs_overhead: wrote {}", path.display());

    if overhead_pct > BUDGET_PCT {
        eprintln!(
            "obs_overhead: FAIL — obs-on replay cost {overhead_pct:+.2}% (> {BUDGET_PCT:.1}% budget)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
