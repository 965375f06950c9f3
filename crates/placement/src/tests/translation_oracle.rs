//! The multi-pass QoS translation and streaming workload fold that
//! `translate` and `Workload::from_translation` replaced, kept as the
//! reference the three-pass versions must match bit for bit.
//!
//! The reference reads the demand once per statistic: the peak, a sort
//! for `D_M%`, a `T_degr` search that restarts at slot 0 on every
//! iteration, a count above the degraded threshold, the run lists for
//! the longest run and for each week's epochs, and a fold over every
//! sample's split for the workload peaks and the zero-CoS1 flag.

use proptest::prelude::*;

use ropus_obs::ObsCtx;
use ropus_qos::portfolio::{
    breakpoint, cap_for_degraded_threshold, degraded_threshold, worst_case_utilization,
};
use ropus_qos::translation::{enforce_epoch_budget, translate, CosSplit, TranslationReport};
use ropus_qos::{AppQos, CosSpec, DegradationSpec, QosError, UtilizationBand};
use ropus_trace::runs::{first_full_window, min_in_range, runs_where};
use ropus_trace::{stats, Calendar, Trace};

use crate::workload::Workload;

/// Formulas 2–3 over the sorted upper nearest-rank percentile.
fn reference_cap(demand: &Trace, d_max: f64, qos: &AppQos) -> f64 {
    let Some(degr) = qos.degradation() else {
        return d_max;
    };
    let high = qos.band().high();
    let d_m = stats::percentile_upper(demand.samples(), degr.acceptable_percentile());
    if d_m / high >= d_max / degr.u_degr() {
        d_m
    } else {
        d_max * high / degr.u_degr()
    }
}

/// Formulas 6–11, searching for the first full window from slot 0 on
/// every iteration.
fn reference_time_limit(
    demand: &Trace,
    qos: &AppQos,
    cos2: &CosSpec,
    initial_cap: f64,
    minutes: u32,
) -> Result<(f64, usize), QosError> {
    let band = qos.band();
    let window = demand.calendar().slots_in_minutes(minutes) + 1;
    let samples = demand.samples();
    let mut cap = initial_cap;
    let mut iterations = 0;
    loop {
        let threshold = degraded_threshold(band, cos2, cap);
        let Some(start) = first_full_window(samples, window, |d| d > threshold) else {
            return Ok((cap, iterations));
        };
        iterations += 1;
        let candidate =
            cap_for_degraded_threshold(band, cos2, min_in_range(samples, start, window));
        if iterations > samples.len() + 1 || candidate <= cap {
            return Err(QosError::TimeLimitDiverged { iterations });
        }
        cap = candidate;
    }
}

/// The translation report and split, one pass per statistic.
fn reference_translate(
    demand: &Trace,
    qos: &AppQos,
    cos2: &CosSpec,
) -> Result<(TranslationReport, CosSplit), QosError> {
    qos.validate()?;
    let band = qos.band();
    let p = breakpoint(band, cos2);
    let d_max = demand.peak();
    let d_cap_mdegr = reference_cap(demand, d_max, qos);
    let (mut d_new_max, mut iterations) =
        match qos.degradation().and_then(|d| d.time_limit_minutes()) {
            Some(minutes) if d_max > 0.0 => {
                reference_time_limit(demand, qos, cos2, d_cap_mdegr, minutes)?
            }
            _ => (d_cap_mdegr, 0),
        };
    if let Some(budget) = qos.degradation().and_then(|d| d.max_epochs_per_week()) {
        if d_max > 0.0 {
            let (cap, extra) = enforce_epoch_budget(demand, qos, cos2, d_new_max, budget)?;
            d_new_max = cap;
            iterations += extra;
        }
    }
    let cap = if p == 0.0 && d_new_max >= d_max {
        f64::INFINITY
    } else {
        d_new_max
    };
    let split = CosSplit {
        p,
        cap,
        factor: band.burst_factor(),
    };
    let calendar = demand.calendar();
    let threshold = degraded_threshold(band, cos2, d_new_max);
    let degraded = |d: f64| d > threshold;
    let longest = runs_where(demand.samples(), degraded)
        .iter()
        .map(|r| r.len)
        .max()
        .unwrap_or(0);
    let max_degraded_epochs_per_week = demand
        .samples()
        .chunks(calendar.slots_per_week())
        .map(|week| runs_where(week, degraded).len())
        .max()
        .unwrap_or(0);
    let report = TranslationReport {
        breakpoint: p,
        d_max,
        d_new_max_before_time_limit: d_cap_mdegr,
        d_new_max,
        max_cap_reduction: if d_max > 0.0 {
            (d_max - d_new_max) / d_max
        } else {
            0.0
        },
        time_limit_iterations: iterations,
        degraded_fraction: demand.fraction_above(threshold),
        longest_degraded_minutes: longest as u32 * calendar.slot_minutes(),
        max_degraded_epochs_per_week,
        max_worst_case_utilization: if d_max > 0.0 {
            worst_case_utilization(d_max, band, cos2, d_new_max)
        } else {
            0.0
        },
        peak_allocation: d_max.min(d_new_max) * band.burst_factor(),
    };
    Ok((report, split))
}

/// `cos1_peak`, `total_peak` and the zero-CoS1 flag, folded over every
/// sample's split.
fn reference_peaks(demand: &Trace, split: &CosSplit) -> (f64, f64, bool) {
    let mut cos1_peak = 0.0f64;
    let mut total_peak = 0.0f64;
    let mut cos1_zero = true;
    for &d in demand.samples() {
        let (c1, c2) = split.classes(d);
        cos1_peak = cos1_peak.max(c1);
        total_peak = total_peak.max(c1 + c2);
        cos1_zero &= c1.to_bits() == 0;
    }
    (cos1_peak, total_peak, cos1_zero)
}

/// Every report field as bits, in declaration order.
fn report_bits(r: &TranslationReport) -> [u64; 11] {
    [
        r.breakpoint.to_bits(),
        r.d_max.to_bits(),
        r.d_new_max_before_time_limit.to_bits(),
        r.d_new_max.to_bits(),
        r.max_cap_reduction.to_bits(),
        r.time_limit_iterations as u64,
        r.degraded_fraction.to_bits(),
        u64::from(r.longest_degraded_minutes),
        r.max_degraded_epochs_per_week as u64,
        r.max_worst_case_utilization.to_bits(),
        r.peak_allocation.to_bits(),
    ]
}

/// The six Table I policies (`M_degr`, `θ`, `T_degr`) plus a footnote-2
/// epoch budget (two per week, beside `T_degr` 30) under each `θ`.
fn policies() -> Vec<(AppQos, CosSpec)> {
    let band = UtilizationBand::paper_default();
    let table1 = [
        (0.0, 0.60, None),
        (0.03, 0.60, Some(30)),
        (0.03, 0.60, None),
        (0.0, 0.95, None),
        (0.03, 0.95, Some(30)),
        (0.03, 0.95, None),
    ];
    let mut out: Vec<(AppQos, CosSpec)> = table1
        .iter()
        .map(|&(m_degr, theta, t_degr)| {
            let qos = if m_degr == 0.0 {
                AppQos::strict(band)
            } else {
                AppQos::new(
                    band,
                    Some(DegradationSpec::new(m_degr, 0.9, t_degr).unwrap()),
                )
            };
            (qos, CosSpec::new(theta, 60).unwrap())
        })
        .collect();
    for theta in [0.60, 0.95] {
        let budget = DegradationSpec::new(0.03, 0.9, Some(30))
            .unwrap()
            .with_epoch_budget(2)
            .unwrap();
        out.push((
            AppQos::new(band, Some(budget)),
            CosSpec::new(theta, 60).unwrap(),
        ));
    }
    out
}

/// Five-minute demand built from plateaus: `+0.0`, `-0.0`, a few integer
/// levels that tie at the percentile rank, arbitrary levels, and rising
/// or falling ramps (a degraded run whose minimum sits at one end, so the
/// `T_degr` search must resume inside the window it just broke). The
/// length is one sample, one week, a week and a partial one, or two
/// weeks; one week or the whole trace may be zeros of mixed sign.
fn demand() -> impl Strategy<Value = Trace> {
    let plateau = (0u32..12, 0.0f64..10.0, 1usize..40);
    (
        proptest::collection::vec(plateau, 1..60),
        0u32..4,
        1usize..2016,
        0u32..6,
    )
        .prop_map(|(plateaus, shape, partial, zeros)| {
            let week = Calendar::five_minute().slots_per_week();
            let len = [1, week, week + partial, 2 * week][shape as usize];
            let mut samples: Vec<f64> = plateaus
                .iter()
                .flat_map(|&(kind, level, run)| {
                    (0..run).map(move |j| match kind {
                        0 => 0.0,
                        1 => -0.0,
                        2..=5 => f64::from(kind - 1),
                        10 => level + 0.25 * j as f64,
                        11 => level + 0.25 * (run - j) as f64,
                        _ => level,
                    })
                })
                .cycle()
                .take(len)
                .collect();
            let zeroed = match zeros {
                0 => samples.len(),
                1 => week.min(samples.len()),
                _ => 0,
            };
            for (i, s) in samples.iter_mut().take(zeroed).enumerate() {
                *s = if i % 3 == 0 { -0.0 } else { 0.0 };
            }
            Trace::from_samples(Calendar::five_minute(), samples).unwrap()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The three-pass translation and the split-at-`D_max` workload
    /// peaks reproduce the multi-pass reference bit for bit: every report
    /// field, the split, `cos1_peak`, `total_peak` and the zero-CoS1 flag,
    /// or the same error.
    #[test]
    fn three_pass_translation_matches_the_multi_pass_reference(demand in demand()) {
        for (qos, cos2) in policies() {
            let reference = reference_translate(&demand, &qos, &cos2);
            let translated = translate(&demand, &qos, &cos2, ObsCtx::none());
            let ((report, split), translation) = match (reference, translated) {
                (Ok(reference), Ok(translation)) => (reference, translation),
                (reference, translated) => {
                    prop_assert_eq!(reference.err(), translated.err());
                    continue;
                }
            };
            prop_assert_eq!(report_bits(&translation.report), report_bits(&report));
            let workload = Workload::from_translation("app", translation.clone());
            let (_, _, got) = translation.into_parts();
            prop_assert!(got.same_bits(&split), "split {:?} != {:?}", got, split);
            let (cos1_peak, total_peak, cos1_zero) = reference_peaks(&demand, &split);
            prop_assert_eq!(workload.cos1_peak().to_bits(), cos1_peak.to_bits());
            prop_assert_eq!(workload.total_peak().to_bits(), total_peak.to_bits());
            prop_assert_eq!(workload.cos1_is_zero(), cos1_zero);
        }
    }
}
