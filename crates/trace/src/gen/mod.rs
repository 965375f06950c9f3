//! Synthetic enterprise workload generation.
//!
//! The paper's case study uses four weeks of proprietary CPU demand traces
//! from 26 applications of a large enterprise order-entry system. Those
//! traces are not available, so this module builds the closest synthetic
//! equivalent: interactive enterprise workloads with
//!
//! * a *diurnal* business-hours pattern (morning and afternoon peaks with a
//!   lunch dip — the paper's "time of day captures the diurnal nature of
//!   interactive enterprise workloads");
//! * a weekly pattern (lighter weekends);
//! * multiplicative lognormal noise; and
//! * Pareto-magnitude, geometric-duration *burst episodes*, which produce
//!   the Fig. 6 signature where an application's top percentiles are
//!   2–10x its remaining demands.
//!
//! Everything is driven by the deterministic [`crate::rng::Rng`], so a
//! fleet is a pure function of its seed.

mod diurnal;
mod fleet;
mod memory;
mod profile;

pub use diurnal::DiurnalCurve;
pub use fleet::{case_study_fleet, AppWorkload, FleetConfig};
pub use memory::MemoryModel;
pub use profile::{BurstModel, WorkloadProfile, WorkloadProfileBuilder};

use crate::rng::Rng;
use crate::{Calendar, Trace};

/// Generates `weeks` whole weeks of demand for `profile` on `calendar`.
///
/// The generator is deterministic in `(profile, calendar, weeks, rng state)`.
///
/// # Example
///
/// ```
/// use ropus_trace::gen::{generate, WorkloadProfile};
/// use ropus_trace::rng::Rng;
/// use ropus_trace::Calendar;
///
/// let profile = WorkloadProfile::builder("app").mean_demand(2.0).build();
/// let trace = generate(&profile, Calendar::five_minute(), 2, &mut Rng::seed_from_u64(1));
/// assert_eq!(trace.weeks(), 2);
/// ```
pub fn generate(
    profile: &WorkloadProfile,
    calendar: Calendar,
    weeks: usize,
    rng: &mut Rng,
) -> Trace {
    generate_with(profile, calendar, weeks, rng, &mut Vec::new())
}

/// [`generate`] with a caller-owned buffer for the weekly level template,
/// so a fleet generator reuses one buffer per worker across its apps.
///
/// The deterministic part of a sample, `mean · (base + amplitude ·
/// curve(tod))` scaled by the weekend factor on weekends, depends only
/// on the slot of the week: both the time of day and the day of the week
/// are functions of `index mod slots_per_week`, because a day divides a
/// week. It is computed once per slot of the week, with the expression
/// order of the per-slot formula, and every week walks that table. The
/// random part draws, per slot and in this order, the AR(1) log-noise
/// innovation and then the burst draws, so the trace is bit-identical to
/// evaluating the formula at every slot.
pub(crate) fn generate_with(
    profile: &WorkloadProfile,
    calendar: Calendar,
    weeks: usize,
    rng: &mut Rng,
    levels: &mut Vec<f64>,
) -> Trace {
    assert!(weeks > 0, "at least one week of data is required");
    fill_week_levels(profile, calendar, levels);
    let mut samples = Vec::with_capacity(levels.len() * weeks);

    // Remaining slots of an in-progress burst episode and its multiplier.
    let mut burst_left = 0usize;
    let mut burst_multiplier = 1.0f64;

    // AR(1) log-noise: busy excursions persist across slots, as real
    // 5-minute utilization samples do. The stationary distribution is
    // lognormal with unit mean and the profile's CV.
    let rho = profile.noise_correlation();
    let sigma2 = (1.0 + profile.noise_cv() * profile.noise_cv()).ln();
    let sigma = sigma2.sqrt();
    let innovation = (1.0 - rho * rho).sqrt();
    let mut log_noise = if sigma > 0.0 {
        rng.normal(0.0, sigma)
    } else {
        0.0
    };

    for _ in 0..weeks {
        for &slot_level in levels.iter() {
            let mut level = slot_level;
            if sigma > 0.0 {
                log_noise = rho * log_noise + innovation * rng.normal(0.0, sigma);
                level *= (log_noise - 0.5 * sigma2).exp();
            }

            if let Some(burst) = profile.burst() {
                if burst_left == 0 && rng.bernoulli(burst.start_probability) {
                    burst_left = rng.geometric(1.0 / burst.mean_duration_slots.max(1) as f64);
                    burst_multiplier = rng
                        .pareto(burst.magnitude_scale, burst.magnitude_alpha)
                        .min(burst.max_multiplier);
                }
                if burst_left > 0 {
                    level *= burst_multiplier;
                    burst_left -= 1;
                }
            }

            samples.push(level.max(0.0));
        }
    }

    // lint:allow(panic-expect): every sample is clamped non-negative just
    // above and all profile arithmetic is finite, so validation holds.
    Trace::from_samples(calendar, samples).expect("generator emits finite non-negative samples")
}

/// Fills `levels` with the deterministic demand level of each slot of the
/// week. Weekdays and weekend days share one curve, so the curve runs
/// once per slot of the day and each later day copies the first.
fn fill_week_levels(profile: &WorkloadProfile, calendar: Calendar, levels: &mut Vec<f64>) {
    let per_day = calendar.slots_per_day();
    levels.clear();
    levels.extend((0..per_day).map(|slot| {
        let shape = profile.curve().value(calendar.time_of_day_fraction(slot));
        profile.mean_demand() * (profile.base_fraction() + profile.diurnal_amplitude() * shape)
    }));
    while levels.len() < calendar.slots_per_week() {
        levels.extend_from_within(..per_day);
    }
    for (slot, level) in levels.iter_mut().enumerate() {
        if calendar.day_of_week(slot).is_weekend() {
            *level *= profile.weekend_factor();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-slot generator the weekly level template replaced, kept as
    /// the oracle the template must match bit for bit.
    fn reference_generate(
        profile: &WorkloadProfile,
        calendar: Calendar,
        weeks: usize,
        rng: &mut Rng,
    ) -> Vec<f64> {
        let total = calendar.slots_per_week() * weeks;
        let mut samples = Vec::with_capacity(total);
        let mut burst_left = 0usize;
        let mut burst_multiplier = 1.0f64;
        let rho = profile.noise_correlation();
        let sigma2 = (1.0 + profile.noise_cv() * profile.noise_cv()).ln();
        let sigma = sigma2.sqrt();
        let innovation = (1.0 - rho * rho).sqrt();
        let mut log_noise = if sigma > 0.0 {
            rng.normal(0.0, sigma)
        } else {
            0.0
        };
        for index in 0..total {
            let tod = calendar.time_of_day_fraction(index);
            let day = calendar.day_of_week(index);
            let shape = profile.curve().value(tod);
            let mut level = profile.mean_demand()
                * (profile.base_fraction() + profile.diurnal_amplitude() * shape);
            if day.is_weekend() {
                level *= profile.weekend_factor();
            }
            if sigma > 0.0 {
                log_noise = rho * log_noise + innovation * rng.normal(0.0, sigma);
                level *= (log_noise - 0.5 * sigma2).exp();
            }
            if let Some(burst) = profile.burst() {
                if burst_left == 0 && rng.bernoulli(burst.start_probability) {
                    burst_left = rng.geometric(1.0 / burst.mean_duration_slots.max(1) as f64);
                    burst_multiplier = rng
                        .pareto(burst.magnitude_scale, burst.magnitude_alpha)
                        .min(burst.max_multiplier);
                }
                if burst_left > 0 {
                    level *= burst_multiplier;
                    burst_left -= 1;
                }
            }
            samples.push(level.max(0.0));
        }
        samples
    }

    /// A profile mixing every generator arm: `noise_cv` 0 (no normal
    /// draws) or positive, AR(1) correlation 0 or 0.9, and no burst, a
    /// moderate or an extreme burst process.
    fn any_profile() -> impl Strategy<Value = WorkloadProfile> {
        let level = (0.05f64..4.0, 0.0f64..0.5, 0.0f64..2.5, 0.05f64..1.0);
        let curve = (0.0f64..12.0, 12.0f64..24.0, 0.5f64..4.0, 0.0f64..1.5);
        let noise = (0u32..2, 0.01f64..0.6, 0u32..2);
        (level, curve, noise, 0usize..3).prop_map(
            |((mean, base, amplitude, weekend), (am, pm, width, height), (nk, cv, rk), bk)| {
                let builder = WorkloadProfile::builder("p")
                    .mean_demand(mean)
                    .base_fraction(base)
                    .diurnal_amplitude(amplitude)
                    .weekend_factor(weekend)
                    .curve(DiurnalCurve::with_shape(am, pm, width, height))
                    .noise_cv([0.0, cv][nk as usize])
                    .noise_correlation([0.0, 0.9][rk as usize]);
                match bk {
                    0 => builder.build(),
                    1 => builder.burst(BurstModel::moderate()).build(),
                    _ => builder.burst(BurstModel::extreme()).build(),
                }
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The weekly level template reproduces the per-slot formula bit
        /// for bit, on 5-, 15- and 60-minute calendars over 1–3 weeks,
        /// and leaves the RNG in the same state.
        #[test]
        fn template_matches_per_slot_formula(
            profile in any_profile(),
            minutes in (0usize..3).prop_map(|k| [5u32, 15, 60][k]),
            weeks in 1usize..4,
            seed in 0u64..u64::MAX,
        ) {
            let calendar = Calendar::new(minutes).unwrap();
            let mut reference_rng = Rng::seed_from_u64(seed);
            let expected = reference_generate(&profile, calendar, weeks, &mut reference_rng);
            let mut rng = Rng::seed_from_u64(seed);
            let trace = generate(&profile, calendar, weeks, &mut rng);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(trace.samples()), bits(&expected));
            prop_assert_eq!(rng.next_u64(), reference_rng.next_u64());
        }
    }

    #[test]
    fn reused_level_buffer_does_not_leak_between_profiles() {
        let wide = WorkloadProfile::builder("a").mean_demand(3.0).build();
        let narrow = WorkloadProfile::builder("b")
            .mean_demand(0.5)
            .weekend_factor(0.1)
            .build();
        let mut levels = Vec::new();
        let five = Calendar::five_minute();
        let hourly = Calendar::new(60).unwrap();
        generate_with(&wide, five, 1, &mut Rng::seed_from_u64(1), &mut levels);
        let reused = generate_with(&narrow, hourly, 2, &mut Rng::seed_from_u64(2), &mut levels);
        let fresh = generate(&narrow, hourly, 2, &mut Rng::seed_from_u64(2));
        assert_eq!(reused, fresh);
    }

    #[test]
    fn generates_requested_length() {
        let cal = Calendar::five_minute();
        let p = WorkloadProfile::builder("x").mean_demand(1.0).build();
        let t = generate(&p, cal, 3, &mut Rng::seed_from_u64(0));
        assert_eq!(t.len(), cal.slots_per_week() * 3);
        assert!(t.require_whole_weeks().is_ok());
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let cal = Calendar::five_minute();
        let p = WorkloadProfile::builder("x")
            .mean_demand(2.0)
            .noise_cv(0.4)
            .build();
        let a = generate(&p, cal, 1, &mut Rng::seed_from_u64(5));
        let b = generate(&p, cal, 1, &mut Rng::seed_from_u64(5));
        assert_eq!(a, b);
        let c = generate(&p, cal, 1, &mut Rng::seed_from_u64(6));
        assert_ne!(a, c);
    }

    #[test]
    fn business_hours_exceed_night_on_average() {
        let cal = Calendar::five_minute();
        let p = WorkloadProfile::builder("x")
            .mean_demand(2.0)
            .diurnal_amplitude(2.0)
            .noise_cv(0.1)
            .build();
        let t = generate(&p, cal, 2, &mut Rng::seed_from_u64(3));
        let per_day = cal.slots_per_day();
        let mut business = Vec::new();
        let mut night = Vec::new();
        for (i, v) in t.iter().enumerate() {
            if cal.day_of_week(i).is_weekend() {
                continue;
            }
            let slot = i % per_day;
            let hour = slot as f64 * 24.0 / per_day as f64;
            if (9.0..17.0).contains(&hour) {
                business.push(v);
            } else if !(7.0..20.0).contains(&hour) {
                night.push(v);
            }
        }
        let b = crate::stats::mean(&business);
        let n = crate::stats::mean(&night);
        assert!(
            b > 2.0 * n,
            "business mean {b} should dominate night mean {n}"
        );
    }

    #[test]
    fn weekends_are_lighter() {
        let cal = Calendar::five_minute();
        let p = WorkloadProfile::builder("x")
            .mean_demand(2.0)
            .weekend_factor(0.2)
            .noise_cv(0.1)
            .build();
        let t = generate(&p, cal, 2, &mut Rng::seed_from_u64(4));
        let (mut wk, mut we) = (Vec::new(), Vec::new());
        for (i, v) in t.iter().enumerate() {
            if cal.day_of_week(i).is_weekend() {
                we.push(v);
            } else {
                wk.push(v);
            }
        }
        assert!(crate::stats::mean(&we) < 0.5 * crate::stats::mean(&wk));
    }

    #[test]
    fn bursty_profile_has_heavy_top_percentiles() {
        let cal = Calendar::five_minute();
        let p = WorkloadProfile::builder("x")
            .mean_demand(1.0)
            .noise_cv(0.2)
            .burst(BurstModel {
                start_probability: 0.002,
                magnitude_scale: 3.0,
                magnitude_alpha: 1.2,
                mean_duration_slots: 3,
                max_multiplier: 15.0,
            })
            .build();
        let t = generate(&p, cal, 4, &mut Rng::seed_from_u64(11));
        let p97 = t.percentile(97.0);
        let peak = t.peak();
        assert!(
            peak > 2.0 * p97,
            "peak {peak} should dwarf the 97th percentile {p97}"
        );
    }

    #[test]
    fn smooth_profile_has_tame_tail() {
        let cal = Calendar::five_minute();
        let p = WorkloadProfile::builder("x")
            .mean_demand(1.0)
            .noise_cv(0.1)
            .build();
        let t = generate(&p, cal, 4, &mut Rng::seed_from_u64(12));
        assert!(t.peak() < 2.0 * t.percentile(97.0));
    }

    #[test]
    #[should_panic(expected = "at least one week")]
    fn zero_weeks_rejected() {
        let p = WorkloadProfile::builder("x").build();
        generate(&p, Calendar::five_minute(), 0, &mut Rng::seed_from_u64(0));
    }
}
