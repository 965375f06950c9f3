//! What every workload shares: the run settings, the measured report, and
//! the set-up and timed loops.

use std::time::Instant;

use crate::spans::Spans;

/// Fewest set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Set-ups repeat past [`SETUP_REPEATS`] until they have taken this long
/// in total (or [`SETUP_MAX_REPEATS`] ran), so a set-up of milliseconds
/// still reports a steady median.
const SETUP_MIN_TOTAL_S: f64 = 1.0;
const SETUP_MAX_REPEATS: usize = 50;

/// Engine worker threads every workload runs with.
pub const THREADS: usize = 2;

/// Settings of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Wall time the timed loop runs for.
    pub seconds: f64,
    /// Whether this is the traced run that reports per-layer metrics.
    pub traced: bool,
}

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

/// Everything one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Wall time of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall time of the fleet generation inside each set-up.
    pub fleet_gen_s: Vec<f64>,
    /// Wall time of each untraced pass.
    pub pass_s: Vec<f64>,
    /// Wall time of each traced pass.
    pub traced_pass_s: Vec<f64>,
    /// Latency of each client-visible operation, milliseconds, one list
    /// per untraced pass.
    pub op_ms: Vec<Vec<f64>>,
    /// Servers the workload's result needs.
    pub servers: f64,
    /// Capacity, in CPUs, the workload's result requires.
    pub capacity_cpus: f64,
    /// Operations sent to the program.
    pub attempted: u64,
    /// Operations that returned an error or were refused.
    pub failed: u64,
    /// Output checks, by name.
    pub checks: Vec<(String, bool)>,
    /// Per-layer metrics of the traced passes.
    pub layers: Vec<Metric>,
    /// Extra human-readable result lines.
    pub notes: Vec<String>,
}

impl Report {
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    pub fn layer(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.layers.push(Metric {
            name: name.into(),
            unit,
            value,
        });
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records one operation's outcome.
    pub fn attempt(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Whether every check passed and at least one ran.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Runs `setup` at least [`SETUP_REPEATS`] times, timing each, and
    /// keeps the last result. The previous result is dropped before the
    /// next set-up starts, so peak memory holds one copy.
    pub fn setup<T>(&mut self, mut setup: impl FnMut(&mut Report) -> T) -> T {
        let mut kept = None;
        let mut total = 0.0;
        let mut n = 0;
        while n < SETUP_REPEATS || (total < SETUP_MIN_TOTAL_S && n < SETUP_MAX_REPEATS) {
            drop(kept.take());
            let start = Instant::now();
            let value = setup(self);
            let secs = since(start);
            self.setup_s.push(secs);
            total += secs;
            n += 1;
            kept = Some(value);
        }
        kept.expect("SETUP_REPEATS is positive")
    }

    /// Times `generate` as the fleet-generation part of a set-up.
    pub fn generate<T>(&mut self, generate: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = generate();
        self.fleet_gen_s.push(start.elapsed().as_secs_f64());
        value
    }
}

/// Calls `pass(traced)` until `config.seconds` have passed and at least
/// `min_passes` ran. The traced run alternates untraced and traced passes,
/// starting untraced, so the two share the machine's conditions.
pub fn timed_loop(config: &RunConfig, min_passes: usize, mut pass: impl FnMut(bool)) {
    let min = if config.traced {
        min_passes.max(2)
    } else {
        min_passes
    };
    let start = Instant::now();
    let mut i = 0;
    while i < min || start.elapsed().as_secs_f64() < config.seconds {
        pass(config.traced && i % 2 == 1);
        i += 1;
    }
}

/// Records `bench.unattributed_s`: the self time of the traced `pass`
/// spans — time no layer span covers — per traced pass.
pub fn unattributed(report: &mut Report, spans: &Spans) {
    let pass = spans.get("pass");
    report.layer(
        "bench.unattributed_s",
        "s",
        pass.self_s / pass.count.max(1) as f64,
    );
}

/// Seconds since `start`.
pub fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}
