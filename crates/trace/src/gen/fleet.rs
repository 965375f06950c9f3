use serde::{Deserialize, Serialize};

use super::{generate_with, BurstModel, WorkloadProfile};
use crate::parallel::parallel_map_init;
use crate::rng::Rng;
use crate::{Calendar, Trace};

/// One application of the case-study fleet: a name plus its demand trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppWorkload {
    /// Application name (`app-01` .. `app-26` for the default fleet).
    pub name: String,
    /// The generated demand trace in CPUs.
    pub trace: Trace,
}

/// Configuration of the synthetic case-study fleet.
///
/// The defaults mirror the paper's §VII setup: 26 applications, four weeks
/// of 5-minute CPU demand observations. The generated fleet is a pure
/// function of these fields, whatever the number of worker threads
/// [`case_study_fleet`] runs on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Master seed; the fleet is a pure function of this value.
    pub seed: u64,
    /// Number of applications (default 26).
    pub apps: usize,
    /// Number of whole weeks of history (default 4).
    pub weeks: usize,
    /// Observation calendar (default 5-minute slots).
    pub calendar: Calendar,
}

impl FleetConfig {
    /// The paper's case-study shape: 26 apps, 4 weeks, 5-minute sampling.
    pub fn paper() -> Self {
        FleetConfig {
            seed: 0x0DE5_2006,
            apps: 26,
            weeks: 4,
            calendar: Calendar::five_minute(),
        }
    }
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self::paper()
    }
}

/// Generates the synthetic stand-in for the paper's 26-application
/// order-entry fleet.
///
/// Population structure, chosen to reproduce the Fig. 6 characterization:
///
/// * apps 1–2: *extreme* burst processes — a small share of observations
///   ~10x the body of the distribution;
/// * apps 3–10: *moderate* burst processes — top 3% of demand 2–10x the
///   remaining observations;
/// * apps 11–26: smooth diurnal workloads of varied scale and amplitude.
///
/// Apps are generated in parallel, one worker per available CPU
/// (`std::thread::available_parallelism`, 1 if unknown). The fleet is a
/// pure function of the seed, whatever the worker count: every app draws
/// from its own stream forked from the seed by its index, and results
/// join in index order. The count is measured rather than configured
/// because it cannot change a single sample.
///
/// # Example
///
/// ```
/// use ropus_trace::gen::{case_study_fleet, FleetConfig};
///
/// let fleet = case_study_fleet(&FleetConfig::paper());
/// assert_eq!(fleet.len(), 26);
/// assert!(fleet.iter().all(|app| app.trace.weeks() == 4));
/// ```
pub fn case_study_fleet(config: &FleetConfig) -> Vec<AppWorkload> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    fleet_on(config, threads)
}

/// [`case_study_fleet`] on `threads` workers. Each app's profile and
/// noise stream fork from the root seed by the app's index, and
/// [`parallel_map_init`] joins in input order, so the fleet is the same
/// for every worker count; each worker reuses one weekly level buffer.
pub(crate) fn fleet_on(config: &FleetConfig, threads: usize) -> Vec<AppWorkload> {
    assert!(
        config.apps > 0,
        "fleet must contain at least one application"
    );
    let root = Rng::seed_from_u64(config.seed);
    let indices: Vec<usize> = (0..config.apps).collect();
    parallel_map_init(threads, &indices, Vec::new, |levels, &i| {
        let profile = profile_for(i, &root);
        let mut rng = root.fork(1000 + i as u64);
        let trace = generate_with(&profile, config.calendar, config.weeks, &mut rng, levels);
        AppWorkload {
            name: profile.name().to_string(),
            trace,
        }
    })
}

/// Deterministic per-application profile parameters.
fn profile_for(index: usize, root: &Rng) -> WorkloadProfile {
    // Draw stable per-app parameter jitter from a dedicated substream so the
    // profile of app i never depends on how many apps exist.
    let mut params = root.fork(index as u64);
    let name = format!("app-{:02}", index + 1);

    // Demand scales are chosen so that, as in the paper's fleet, every
    // application's peak *allocation* (2x its peak demand under the
    // case-study burst factor) fits a 16-way server, and the 26-app C_peak
    // lands on the order of a couple of hundred CPUs. Bursty applications
    // get small bodies so their spikes are large *relative* to the rest of
    // their demand (the Fig. 6 shape) while staying server-sized.
    let amplitude = params.uniform(0.8, 1.6);
    let weekend = params.uniform(0.2, 0.55);
    let mean = match index {
        0 | 1 => params.uniform(0.3, 0.5),
        2..=9 => params.uniform(0.4, 1.0),
        _ => params.uniform(0.7, 2.5),
    };
    // Staggered business peaks: different applications serve different
    // user communities (and time zones), so their daily maxima do not
    // coincide — the diversity that makes statistical multiplexing pay.
    let morning = params.uniform(8.5, 12.0);
    let afternoon = params.uniform(13.0, 17.0);

    let builder = WorkloadProfile::builder(name)
        .mean_demand(mean)
        .diurnal_amplitude(amplitude)
        .weekend_factor(weekend)
        .curve(super::DiurnalCurve::with_peaks(morning, afternoon));

    match index {
        0 | 1 => builder
            .noise_cv(params.uniform(0.25, 0.4))
            .burst(BurstModel::extreme())
            .build(),
        2..=9 => builder
            .noise_cv(params.uniform(0.25, 0.4))
            .burst(BurstModel::moderate())
            .build(),
        _ => builder.noise_cv(params.uniform(0.06, 0.15)).build(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    fn small_fleet() -> Vec<AppWorkload> {
        case_study_fleet(&FleetConfig {
            weeks: 2,
            ..FleetConfig::paper()
        })
    }

    #[test]
    fn fleet_is_deterministic() {
        let a = small_fleet();
        let b = small_fleet();
        assert_eq!(a, b);
    }

    #[test]
    fn fleet_has_unique_names_and_positive_demand() {
        let fleet = small_fleet();
        let mut names: Vec<&str> = fleet.iter().map(|a| a.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fleet.len());
        for app in &fleet {
            assert!(app.trace.peak() > 0.0, "{} has zero demand", app.name);
        }
    }

    #[test]
    fn adding_apps_does_not_change_existing_traces() {
        let base = case_study_fleet(&FleetConfig {
            apps: 5,
            weeks: 1,
            ..FleetConfig::paper()
        });
        let bigger = case_study_fleet(&FleetConfig {
            apps: 8,
            weeks: 1,
            ..FleetConfig::paper()
        });
        for (a, b) in base.iter().zip(bigger.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bursty_apps_have_heavier_tails_than_smooth_apps() {
        let fleet = case_study_fleet(&FleetConfig::paper());
        // Ratio of peak to 97th percentile, the Fig. 6 signature.
        let tail_ratio = |t: &Trace| t.peak() / t.percentile(97.0);
        let bursty: Vec<f64> = fleet[..10].iter().map(|a| tail_ratio(&a.trace)).collect();
        let smooth: Vec<f64> = fleet[10..].iter().map(|a| tail_ratio(&a.trace)).collect();
        assert!(
            stats::mean(&bursty) > 1.5 * stats::mean(&smooth),
            "bursty {:?} vs smooth {:?}",
            stats::mean(&bursty),
            stats::mean(&smooth)
        );
        // The two extreme apps should show very large spikes.
        assert!(
            bursty[0] > 2.0 || bursty[1] > 2.0,
            "extreme apps should spike: {bursty:?}"
        );
    }

    /// The fleet is the same bits on 1, 2 and 5 workers, including fleets
    /// smaller than the worker count.
    #[test]
    fn fleet_is_independent_of_worker_count() {
        for apps in [1, 3, 26] {
            let config = FleetConfig {
                seed: 7,
                apps,
                weeks: 1,
                ..FleetConfig::paper()
            };
            let serial = fleet_on(&config, 1);
            assert_eq!(serial.len(), apps);
            for threads in [2, 5] {
                assert_eq!(
                    fleet_digest(&fleet_on(&config, threads)),
                    fleet_digest(&serial),
                    "{apps} apps on {threads} workers"
                );
            }
        }
    }

    /// 64-bit FNV-1a over every app's name and the bits of every sample.
    fn fleet_digest(fleet: &[AppWorkload]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut feed = |bytes: &[u8]| {
            for &b in bytes {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for app in fleet {
            feed(app.name.as_bytes());
            for v in app.trace.iter() {
                feed(&v.to_bits().to_le_bytes());
            }
        }
        hash
    }

    /// Digests captured before the generator became template-driven and
    /// parallel: every sample of both fleets must keep its bits.
    #[test]
    fn fleets_match_golden_digests() {
        assert_eq!(
            fleet_digest(&case_study_fleet(&FleetConfig::paper())),
            0x8b98_31d2_f500_fd28,
            "paper fleet"
        );
        let wide = FleetConfig {
            seed: 1,
            apps: 200,
            weeks: 1,
            ..FleetConfig::paper()
        };
        assert_eq!(
            fleet_digest(&case_study_fleet(&wide)),
            0xdff6_22d2_f199_9e58,
            "200-app fleet"
        );
    }

    #[test]
    #[should_panic(expected = "at least one application")]
    fn empty_fleet_rejected() {
        case_study_fleet(&FleetConfig {
            apps: 0,
            ..FleetConfig::paper()
        });
    }
}
