//! The QoS translation: mapping an application's demand trace onto the
//! pool's two classes of service (§V of the paper, steps 1–3).
//!
//! Given a demand trace, the application QoS requirement, and the pool's
//! CoS2 commitment, [`translate`] produces per-class *allocation
//! requirement* traces plus a [`TranslationReport`] with every intermediate
//! the paper discusses: the breakpoint `p`, the demand cap `D_new_max`
//! after the `M_degr` relaxation (formulas 2–3) and after the iterative
//! `T_degr` analysis (formulas 6–11), the realized `MaxCapReduction`
//! (formula 4), and the worst-case degraded-measurement statistics that
//! Figs. 7 and 8 report.

use serde::{Deserialize, Serialize};

use ropus_obs::ObsCtx;
use ropus_trace::kernels::BlockMax;
use ropus_trace::runs::{first_full_window, min_in_range, run_stats, runs_where};
use ropus_trace::stats::percentile_upper_rank;
use ropus_trace::{Calendar, Trace, TraceError};

pub use ropus_trace::kernels::CosSplit;

use crate::portfolio::{
    breakpoint, cap_for_degraded_threshold, degraded_threshold, worst_case_utilization,
};
use crate::units::{self, least_passing};
use crate::{AppQos, CosSpec, QosError};

/// Result of translating one application's demand onto the two CoS.
///
/// The per-class allocation requirements are not stored: they are the
/// demand trace divided slot by slot by a [`CosSplit`], which
/// [`cos1`](Self::cos1)/[`cos2`](Self::cos2) materialize on request and
/// the placement kernels apply while they aggregate (DESIGN.md §5k).
#[derive(Debug, Clone, PartialEq)]
pub struct Translation {
    /// The translated demand (a shared handle on the caller's trace).
    demand: Trace,
    /// The demand's peak `D_max`, kept beside the demand so that only
    /// [`translate`] pairs the two (the report's copy is public and
    /// mutable).
    d_max: f64,
    /// How each demand sample divides into CoS1 and CoS2 allocation.
    /// Private so that only [`translate`], which checks that the split of
    /// every sample is finite, can pair it with a demand.
    split: CosSplit,
    /// Every intermediate quantity of the translation.
    pub report: TranslationReport,
}

impl Translation {
    /// The translated demand, its peak `D_max`, and how each of its
    /// samples divides into CoS1 and CoS2 allocation, consuming the
    /// translation.
    pub fn into_parts(self) -> (Trace, f64, CosSplit) {
        (self.demand, self.d_max, self.split)
    }

    /// Allocation requirements placed in the guaranteed class.
    pub fn cos1(&self) -> Trace {
        self.classes().0
    }

    /// Allocation requirements placed in the statistical class.
    pub fn cos2(&self) -> Trace {
        self.classes().1
    }

    /// Both class traces, materialized from the demand and the split.
    fn classes(&self) -> (Trace, Trace) {
        self.demand
            .split_classes(&self.split)
            // lint:allow(panic-expect): `translate` checked that the split
            // of the peak demand, and so of every sample, is finite.
            .expect("translation split is finite")
    }

    /// Total (CoS1 + CoS2) allocation-requirement trace.
    ///
    /// # Panics
    ///
    /// Never panics: both traces are produced aligned.
    pub fn total_allocation(&self) -> Trace {
        let (cos1, cos2) = self.classes();
        cos1.checked_add(&cos2)
            // lint:allow(panic-expect): both class traces split one demand
            // trace, so the pair is aligned by construction.
            .expect("translation traces are aligned")
    }

    /// Peak of the total allocation-requirement trace — the application's
    /// contribution to the paper's `C_peak` column.
    pub fn peak_allocation(&self) -> f64 {
        self.report.peak_allocation
    }
}

/// Intermediates and outcome statistics of a translation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TranslationReport {
    /// Breakpoint `p` from formula (1).
    pub breakpoint: f64,
    /// Peak demand `D_max` of the input trace.
    pub d_max: f64,
    /// Demand cap after the `M_degr` relaxation only (formulas 2–3).
    pub d_new_max_before_time_limit: f64,
    /// Final demand cap after the `T_degr` trace analysis (formulas 6–11).
    pub d_new_max: f64,
    /// Realized `MaxCapReduction` = `(D_max − D_new_max)/D_max` (formula 4).
    pub max_cap_reduction: f64,
    /// Iterations the `T_degr` analysis needed (0 when no limit applies).
    pub time_limit_iterations: usize,
    /// Fraction of observations that are degraded in the worst case
    /// (CoS2 delivered at exactly `θ`) — the Fig. 8 series.
    pub degraded_fraction: f64,
    /// Longest worst-case degraded episode, in minutes, after enforcement.
    pub longest_degraded_minutes: u32,
    /// Largest number of degraded epochs in any single week.
    pub max_degraded_epochs_per_week: usize,
    /// Worst-case utilization of allocation over the whole trace; bounded
    /// by `U_degr` when a degradation spec is present, else by `U_high`.
    pub max_worst_case_utilization: f64,
    /// Peak of the total requested allocation (`min(D_max, D_new_max)` ×
    /// burst factor).
    pub peak_allocation: f64,
}

/// Translates a demand trace into per-CoS allocation requirements.
///
/// Observability rides the [`ObsCtx`] parameter — pass [`ObsCtx::none`]
/// for a silent run. With a collector attached, the translation emits one
/// `qos.translate.breakpoint` event (the formula-1 `p` and `D_max`) and
/// one `qos.translate.relaxation` event (the `M_degr` cap of formulas
/// 2–3, the final cap after the `T_degr`/epoch-budget analyses of
/// formulas 6–11, and the iteration count), and bumps the
/// `qos.translations` counter.
///
/// # Errors
///
/// Returns [`QosError::DegradedBelowHigh`] for inconsistent requirements
/// and [`QosError::TimeLimitDiverged`] if the iterative analysis fails to
/// converge (which would indicate a bug, not bad input).
///
/// # Example
///
/// ```
/// use ropus_obs::ObsCtx;
/// use ropus_qos::{AppQos, CosSpec};
/// use ropus_qos::translation::translate;
/// use ropus_trace::{Calendar, Trace};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let demand = Trace::from_samples(Calendar::five_minute(), vec![1.0; 2016])?;
/// let t = translate(
///     &demand,
///     &AppQos::paper_default(None),
///     &CosSpec::new(0.6, 60)?,
///     ObsCtx::none(),
/// )?;
/// // Constant demand: everything below the cap, utilization within band.
/// assert!(t.report.max_worst_case_utilization <= 0.66 + 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn translate(
    demand: &Trace,
    qos: &AppQos,
    cos2: &CosSpec,
    obs: ObsCtx<'_>,
) -> Result<Translation, QosError> {
    qos.validate()?;
    let band = qos.band();
    let p = breakpoint(band, cos2);
    let calendar = demand.calendar();
    // One pass indexes the demand's week blocks and finds `D_max`; every
    // later scan reads only the blocks that can hold a sample it counts.
    let blocks = BlockMax::new(demand.samples(), calendar.slots_per_week());
    let d_max = blocks.peak();

    // Step 2 (formulas 2-3): the M_degr percentile relaxation.
    let d_cap_mdegr = demand_cap(&blocks, qos);

    // Step 3 (formulas 6-11): the T_degr contiguous-time analysis.
    let (mut d_new_max, mut iterations) =
        match qos.degradation().and_then(|d| d.time_limit_minutes()) {
            Some(minutes) if d_max > 0.0 => {
                enforce_time_limit(&blocks, calendar, qos, cos2, d_cap_mdegr, minutes)?
            }
            _ => (d_cap_mdegr, 0),
        };

    // Footnote-2 extension: budget on degraded epochs per week.
    if let Some(budget) = qos.degradation().and_then(|d| d.max_epochs_per_week()) {
        if d_max > 0.0 {
            let (cap, extra) = enforce_epoch_budget(demand, qos, cos2, d_new_max, budget)?;
            d_new_max = cap;
            iterations += extra;
        }
    }

    obs.counter("qos.translations", 1);
    obs.event("qos.translate.breakpoint")
        .with_f64("p", p)
        .with_f64("d_max", d_max)
        .emit();
    obs.event("qos.translate.relaxation")
        .with_f64("m_degr_cap", d_cap_mdegr)
        .with_f64("d_new_max", d_new_max)
        .with_u64("iterations", iterations as u64)
        .emit();

    // The per-class allocation requirements, as a split of the demand.
    let burst_factor = band.burst_factor();
    // lint:allow(unit-float-eq): exact zero selects the `p = 0` arm (the
    // breakpoint formula clamps to literal 0.0); a tolerance test would
    // change results. That arm is `min(d, cap) · factor`, and its
    // reference `Trace::cap_scaled` skips the `min` when the cap cannot
    // bind (`cap >= D_max`). An infinite cap does the same bit for bit:
    // `min(d, ∞) = d` for every sample, `-0.0` included.
    let cap = if p == 0.0 && d_new_max >= d_max {
        f64::INFINITY
    } else {
        d_new_max
    };
    let split = CosSplit {
        p,
        cap,
        factor: burst_factor,
    };
    // Both classes are non-decreasing in the demand, so the peak sample
    // bounds every slot: a finite split there makes every class sample a
    // valid trace sample.
    let (peak_cos1, peak_cos2) = split.classes(d_max);
    for value in [peak_cos1, peak_cos2] {
        if !value.is_finite() {
            let index = demand.iter().position(|d| d >= d_max).unwrap_or(0);
            return Err(TraceError::InvalidSample { index, value }.into());
        }
    }

    // Worst-case outcome statistics, from the blocks above the threshold.
    let threshold = degraded_threshold(band, cos2, d_new_max);
    let degraded = run_stats(&blocks, threshold);
    let degraded_fraction = units::count(degraded.count) / units::count(demand.len());
    let longest_degraded_minutes = (degraded.longest_run as u32) * calendar.slot_minutes();
    let max_worst_case_utilization = if d_max > 0.0 {
        worst_case_utilization(d_max, band, cos2, d_new_max)
    } else {
        0.0
    };
    let max_cap_reduction = if d_max > 0.0 {
        (d_max - d_new_max) / d_max
    } else {
        0.0
    };
    let peak_allocation = d_max.min(d_new_max) * burst_factor;

    Ok(Translation {
        demand: demand.clone(),
        d_max,
        split,
        report: TranslationReport {
            breakpoint: p,
            d_max,
            d_new_max_before_time_limit: d_cap_mdegr,
            d_new_max,
            max_cap_reduction,
            time_limit_iterations: iterations,
            degraded_fraction,
            longest_degraded_minutes,
            max_degraded_epochs_per_week: degraded.max_runs_per_chunk,
            max_worst_case_utilization,
            peak_allocation,
        },
    })
}

/// The `M_degr` demand cap of formulas (2)–(3).
///
/// With no degradation allowance the cap is `D_max`. Otherwise, if the
/// allocation supporting acceptable performance at the `M`-th percentile
/// (`A_ok = D_M% / U_high`) already covers degraded performance at the peak
/// (`A_degr = D_max / U_degr`), the cap is `D_M%`; otherwise it is the
/// larger `D_max · U_high / U_degr` needed to keep the worst observation at
/// or below `U_degr`.
///
/// `blocks` indexes the demand's samples; its peak is `D_max`.
///
/// `D_M%` is the upper nearest-rank percentile (at most `M_degr` of the
/// measurements sit strictly above it), but the cap needs it only when
/// `A_ok >= A_degr`. That test, `v / U_high >= A_degr`, is monotone in
/// the sample `v`, so it holds on the top `c` samples of the sorted
/// demand and nowhere else. It is evaluated as `v >= x0`, with `x0` the
/// smallest `f64` that passes it: the same samples, with no division
/// per sample, and blocks whose maximum is below `x0` hold none of them.
/// One count of `c` decides the branch: with `rank` the percentile's
/// index, `c < n − rank` means formula 3 wins and no order statistic is
/// needed; otherwise `D_M%` is element `rank − (n − c)` among those `c`
/// samples alone. The result is the same order statistic, bit for bit,
/// as selecting over the whole demand.
pub fn demand_cap(blocks: &BlockMax<'_>, qos: &AppQos) -> f64 {
    let d_max = blocks.peak();
    let Some(degr) = qos.degradation() else {
        return d_max;
    };
    let high = qos.band().high();
    let a_degr = d_max / degr.u_degr();
    // `A_degr` overflows for a peak near `f64::MAX`; the passing samples
    // are then those whose quotient overflows too, from near `MAX · U_high`.
    let start = (a_degr * high).min(f64::MAX * high);
    let x0 = least_passing(start, |v| v / high >= a_degr);
    let covering_blocks = || {
        blocks
            .blocks()
            .filter(move |&(_, max)| max >= x0)
            .map(|(block, _)| block)
    };
    let n = blocks.samples().len();
    let rank = percentile_upper_rank(n, degr.acceptable_percentile());
    let count: usize = covering_blocks()
        .map(|block| block.iter().filter(|&&v| v >= x0).count())
        .sum();
    let below = n - count;
    if rank < below {
        return d_max * high / degr.u_degr();
    }
    let mut covering = Vec::with_capacity(count);
    for block in covering_blocks() {
        covering.extend(block.iter().copied().filter(|&v| v >= x0));
    }
    let (_, d_m, _) = covering.select_nth_unstable_by(rank - below, f64::total_cmp);
    *d_m
}

/// The iterative `T_degr` trace analysis of formulas (6)–(11).
///
/// With `R` observations per `T_degr` minutes, any window of `R + 1`
/// contiguous *degraded* observations (worst-case utilization strictly
/// above `U_high`) violates the time limit. Each iteration finds the first
/// violating window, takes its smallest demand `D_min_degr`, and raises the
/// cap to `D_min_degr · U_low / (U_high · (p(1−θ) + θ))` — the value that
/// puts `D_min_degr` exactly at `U_high`, breaking the run. The cap rises
/// strictly each iteration, so the analysis terminates. Raising the cap
/// only shrinks the degraded set, so no window before the last violating
/// one can become full: each search resumes at that window's start.
/// `blocks` indexes the demand's samples, aligned to `calendar`; each
/// search reads only the blocks above the current threshold.
///
/// Returns the final cap and the number of iterations.
///
/// # Errors
///
/// Returns [`QosError::TimeLimitDiverged`] if the analysis somehow fails to
/// make progress (defensive; unreachable for valid inputs, since the
/// threshold inverse always makes the window's smallest demand
/// non-degraded).
pub fn enforce_time_limit(
    blocks: &BlockMax<'_>,
    calendar: Calendar,
    qos: &AppQos,
    cos2: &CosSpec,
    initial_cap: f64,
    time_limit_minutes: u32,
) -> Result<(f64, usize), QosError> {
    let band = qos.band();
    let r = calendar.slots_in_minutes(time_limit_minutes);
    let window = r + 1;
    let samples = blocks.samples();

    let mut cap = initial_cap;
    let mut iterations = 0usize;
    let max_iterations = samples.len() + 1;
    let mut from = 0usize;

    loop {
        let threshold = degraded_threshold(band, cos2, cap);
        let Some(start) = first_full_window(blocks, from, window, threshold) else {
            return Ok((cap, iterations));
        };
        from = start;
        iterations += 1;
        if iterations > max_iterations {
            return Err(QosError::TimeLimitDiverged { iterations });
        }
        let d_min_degr = min_in_range(samples, start, window);
        // Formula (10); with the formula-(1) breakpoint and p > 0 this is
        // exactly d_min_degr, and with p = 0 it is formula (11). Computed
        // via the threshold inverse, whose cap always makes d_min_degr
        // non-degraded, so a rounding wobble cannot pick this window again.
        let candidate = cap_for_degraded_threshold(band, cos2, d_min_degr);
        if candidate <= cap {
            // d_min_degr > threshold guarantees candidate > cap; reaching
            // here means a floating-point degeneracy.
            return Err(QosError::TimeLimitDiverged { iterations });
        }
        cap = candidate;
    }
}

/// Enforcement of the footnote-2 epoch budget: at most
/// `max_epochs_per_week` maximal contiguous degraded runs in any week.
///
/// Raising the cap shrinks the degraded set but can *split* runs, so the
/// epoch count is not monotone in the cap; the analysis therefore
/// eliminates one epoch at a time — always the one with the smallest
/// maximum demand, since removing it costs the least capacity — until
/// every week is within budget. The cap rises strictly each iteration,
/// bounded by the week's peak demand, so the loop terminates.
///
/// Returns the final cap and the number of iterations.
///
/// # Errors
///
/// Returns [`QosError::TimeLimitDiverged`] if no progress is made
/// (defensive; unreachable for valid inputs, since the threshold inverse
/// always makes the eliminated epoch's peak non-degraded).
pub fn enforce_epoch_budget(
    demand: &Trace,
    qos: &AppQos,
    cos2: &CosSpec,
    initial_cap: f64,
    max_epochs_per_week: u32,
) -> Result<(f64, usize), QosError> {
    let band = qos.band();
    let per_week = demand.calendar().slots_per_week();
    let mut cap = initial_cap;
    let mut iterations = 0usize;
    let max_iterations = demand.len() + 1;

    loop {
        let threshold = degraded_threshold(band, cos2, cap);
        // The epoch with the smallest maximum among weeks over budget.
        let mut cheapest_epoch_max: Option<f64> = None;
        for week in demand.samples().chunks(per_week) {
            let runs = runs_where(week, |d| d > threshold);
            if runs.len() <= max_epochs_per_week as usize {
                continue;
            }
            for run in runs {
                let run_max = week
                    .get(run.start..run.end())
                    .into_iter()
                    .flatten()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max);
                if cheapest_epoch_max.is_none_or(|m| run_max < m) {
                    cheapest_epoch_max = Some(run_max);
                }
            }
        }
        let Some(run_max) = cheapest_epoch_max else {
            return Ok((cap, iterations));
        };
        iterations += 1;
        if iterations > max_iterations {
            return Err(QosError::TimeLimitDiverged { iterations });
        }
        // Raise the cap so this epoch's peak sits exactly at U_high,
        // eliminating the whole run (every sample in it is <= run_max).
        let candidate = cap_for_degraded_threshold(band, cos2, run_max);
        if candidate <= cap {
            return Err(QosError::TimeLimitDiverged { iterations });
        }
        cap = candidate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DegradationSpec, UtilizationBand};
    use proptest::prelude::*;
    use ropus_trace::{stats, Calendar};

    fn cal() -> Calendar {
        Calendar::five_minute()
    }

    fn band() -> UtilizationBand {
        UtilizationBand::new(0.5, 0.66).unwrap()
    }

    fn index(t: &Trace) -> BlockMax<'_> {
        BlockMax::new(t.samples(), t.calendar().slots_per_week())
    }

    fn qos_no_limit() -> AppQos {
        AppQos::new(band(), Some(DegradationSpec::new(0.03, 0.9, None).unwrap()))
    }

    fn qos_strict() -> AppQos {
        AppQos::strict(band())
    }

    fn cos(theta: f64) -> CosSpec {
        CosSpec::new(theta, 60).unwrap()
    }

    /// A trace that is mostly 1.0 with a given fraction of spikes at `spike`.
    fn spiky(len: usize, spike: f64, spike_every: usize) -> Trace {
        let samples: Vec<f64> = (0..len)
            .map(|i| {
                if i % spike_every == spike_every - 1 {
                    spike
                } else {
                    1.0
                }
            })
            .collect();
        Trace::from_samples(cal(), samples).unwrap()
    }

    #[test]
    fn strict_qos_keeps_peak_demand() {
        let t = spiky(2016, 10.0, 100);
        let tr = translate(&t, &qos_strict(), &cos(0.6), ObsCtx::none()).unwrap();
        assert_eq!(tr.report.d_new_max, 10.0);
        assert_eq!(tr.report.max_cap_reduction, 0.0);
        assert_eq!(tr.report.degraded_fraction, 0.0);
        // Peak allocation = D_max * burst factor.
        assert_eq!(tr.report.peak_allocation, 20.0);
        assert!(tr.report.max_worst_case_utilization <= 0.66 + 1e-9);
    }

    #[test]
    fn partition_reassembles_capped_demand() {
        let t = spiky(2016, 10.0, 100);
        let tr = translate(&t, &qos_no_limit(), &cos(0.6), ObsCtx::none()).unwrap();
        let bf = band().burst_factor();
        let cap = tr.report.d_new_max;
        let (cos1, cos2) = (tr.cos1(), tr.cos2());
        for (i, d) in t.iter().enumerate() {
            let total = cos1.samples()[i] + cos2.samples()[i];
            let expected = d.min(cap) * bf;
            assert!((total - expected).abs() < 1e-9, "slot {i}");
        }
    }

    #[test]
    fn cos1_share_respects_breakpoint() {
        let t = spiky(2016, 10.0, 100);
        let tr = translate(&t, &qos_no_limit(), &cos(0.6), ObsCtx::none()).unwrap();
        let p = tr.report.breakpoint;
        let cap = tr.report.d_new_max;
        let bf = band().burst_factor();
        let max_cos1 = tr.cos1().peak();
        assert!((max_cos1 - p * cap * bf).abs() < 1e-9);
    }

    #[test]
    fn high_theta_puts_everything_in_cos2() {
        let t = spiky(2016, 10.0, 100);
        let tr = translate(&t, &qos_no_limit(), &cos(0.95), ObsCtx::none()).unwrap();
        assert_eq!(tr.report.breakpoint, 0.0);
        assert_eq!(tr.cos1().peak(), 0.0);
        assert!(tr.cos2().peak() > 0.0);
    }

    #[test]
    fn mdegr_cap_uses_percentile_when_it_covers_degraded() {
        // 3% of points at 1.3, the rest at 1.0: D_97% = 1.0, A_ok = 1.515,
        // A_degr = 1.3/0.9 = 1.444 -> percentile wins.
        let t = spiky(3000, 1.3, 34);
        let cap = demand_cap(&index(&t), &qos_no_limit());
        let d97 = stats::percentile(t.samples(), 97.0);
        assert_eq!(cap, d97);
    }

    #[test]
    fn mdegr_cap_counts_samples_at_the_covering_boundary() {
        // One week: `D_max` in block 0 and `k` samples at the covering
        // boundary `x0`, each the maximum of its own block beside its
        // lower ulp neighbour, on a floor of 1.0. Around k = 60 the
        // percentile rank crosses them, so the count must read every
        // block whose maximum is exactly `x0`; the cap must equal formulas
        // 2-3 over the sorted percentile, division and all.
        let qos = qos_no_limit();
        let high = band().high();
        let mut distinct = 0;
        for d_max in [10.0, 7.3, 3.3, 1.7, 5.9, 2.45] {
            let a_degr = d_max / 0.9;
            let x0 = least_passing(a_degr * high, |v| v / high >= a_degr);
            assert!(x0 / high >= a_degr && x0.next_down() / high < a_degr);
            let formula_3 = d_max * high / 0.9;
            distinct += usize::from(formula_3.to_bits() != x0.to_bits());
            for k in 57..=62 {
                let mut samples = vec![1.0; 2016];
                samples[0] = d_max;
                for block in 1..=k {
                    samples[block * 32] = x0.next_down();
                    samples[block * 32 + 17] = x0;
                }
                let t = Trace::from_samples(cal(), samples).unwrap();
                let d_m = stats::percentile_upper(t.samples(), 97.0);
                let expected = if d_m / high >= a_degr { d_m } else { formula_3 };
                let cap = demand_cap(&index(&t), &qos);
                assert_eq!(cap.to_bits(), expected.to_bits(), "D_max {d_max}, k {k}");
            }
        }
        assert!(distinct > 0, "no case tells x0 from formula 3");
    }

    #[test]
    fn mdegr_cap_handles_a_peak_whose_a_degr_overflows() {
        // `D_max / U_degr` is infinite; the cap still equals formulas 2-3
        // over the sorted percentile, and the boundary search ends.
        let qos = qos_no_limit();
        let high = band().high();
        for tall in [0, 1, 60, 100] {
            let mut samples = vec![1.0; 2016];
            for (i, s) in samples.iter_mut().take(tall).enumerate() {
                *s = if i % 2 == 0 { f64::MAX } else { f64::MAX * 0.7 };
            }
            samples[2015] = f64::MAX;
            let t = Trace::from_samples(cal(), samples).unwrap();
            let d_m = stats::percentile_upper(t.samples(), 97.0);
            let expected = if d_m / high >= f64::MAX / 0.9 {
                d_m
            } else {
                f64::MAX * high / 0.9
            };
            let cap = demand_cap(&index(&t), &qos);
            assert_eq!(cap.to_bits(), expected.to_bits(), "{tall} tall samples");
        }
    }

    #[test]
    fn mdegr_cap_uses_degraded_bound_for_tall_spikes() {
        // Spikes of 10x: A_degr = 10/0.9 = 11.1 > A_ok = 1/0.66.
        let t = spiky(3000, 10.0, 100);
        let cap = demand_cap(&index(&t), &qos_no_limit());
        assert!((cap - 10.0 * 0.66 / 0.9).abs() < 1e-9);
        // This is the MaxCapReduction upper bound: 1 - U_high/U_degr.
        let tr = translate(&t, &qos_no_limit(), &cos(0.6), ObsCtx::none()).unwrap();
        assert!((tr.report.max_cap_reduction - (1.0 - 0.66 / 0.9)).abs() < 1e-9);
    }

    #[test]
    fn degraded_points_stay_below_u_degr() {
        let t = spiky(3000, 10.0, 100);
        let tr = translate(&t, &qos_no_limit(), &cos(0.6), ObsCtx::none()).unwrap();
        assert!(tr.report.max_worst_case_utilization <= 0.9 + 1e-9);
        assert!(tr.report.degraded_fraction <= 0.03 + 1e-9);
        assert!(tr.report.degraded_fraction > 0.0);
    }

    #[test]
    fn no_degradation_for_flat_demand() {
        let t = Trace::constant(cal(), 2.0, 2016).unwrap();
        let tr = translate(&t, &qos_no_limit(), &cos(0.6), ObsCtx::none()).unwrap();
        // D_97% == D_max: A_ok = 2/0.66 = 3.03 >= A_degr = 2/0.9 = 2.22.
        assert_eq!(tr.report.d_new_max, 2.0);
        assert_eq!(tr.report.degraded_fraction, 0.0);
    }

    #[test]
    fn time_limit_breaks_long_runs() {
        // A 10-slot (50-minute) plateau at 5.0 in a sea of 1.0, repeated so
        // it lands in the top 3%: the plateau would violate T_degr = 30 min.
        let mut samples = vec![1.0; 2016];
        for s in samples.iter_mut().take(300).skip(290) {
            *s = 5.0;
        }
        let t = Trace::from_samples(cal(), samples).unwrap();
        let qos = AppQos::new(
            band(),
            Some(DegradationSpec::new(0.03, 0.9, Some(30)).unwrap()),
        );
        let no_limit = translate(&t, &qos_no_limit(), &cos(0.6), ObsCtx::none()).unwrap();
        let limited = translate(&t, &qos, &cos(0.6), ObsCtx::none()).unwrap();
        // Without the limit the plateau is entirely degraded (cap below 5).
        assert!(no_limit.report.d_new_max < 5.0);
        assert!(no_limit.report.longest_degraded_minutes > 30);
        // With the limit the cap must rise to cover the plateau.
        assert!(limited.report.d_new_max > no_limit.report.d_new_max);
        assert!(limited.report.longest_degraded_minutes <= 30);
        assert!(limited.report.time_limit_iterations >= 1);
    }

    #[test]
    fn time_limit_with_p_positive_raises_cap_to_run_min() {
        let mut samples = vec![1.0; 2016];
        // Plateau of 7 slots (35 min) with min value 4.0.
        let plateau = [4.5, 4.2, 4.0, 4.8, 5.0, 4.3, 4.6];
        samples[100..107].copy_from_slice(&plateau);
        let t = Trace::from_samples(cal(), samples).unwrap();
        let qos = AppQos::new(
            band(),
            Some(DegradationSpec::new(0.03, 0.9, Some(30)).unwrap()),
        );
        let tr = translate(&t, &qos, &cos(0.6), ObsCtx::none()).unwrap();
        // With p > 0, the paper notes D_new_max = D_min_degr: the smallest
        // demand in the violating window. The 7-slot window min is 4.0.
        assert!(
            (tr.report.d_new_max - 4.0).abs() < 1e-9,
            "cap {}",
            tr.report.d_new_max
        );
    }

    #[test]
    fn time_limit_with_p_zero_uses_formula_eleven() {
        let mut samples = vec![1.0; 2016];
        samples[100..107].fill(4.0);
        let t = Trace::from_samples(cal(), samples).unwrap();
        let qos = AppQos::new(
            band(),
            Some(DegradationSpec::new(0.03, 0.9, Some(30)).unwrap()),
        );
        let theta = 0.95;
        let tr = translate(&t, &qos, &cos(theta), ObsCtx::none()).unwrap();
        // Formula (11): cap = D_min_degr * U_low / (U_high * theta).
        let expected = 4.0 * 0.5 / (0.66 * theta);
        assert!(
            (tr.report.d_new_max - expected).abs() < 1e-9,
            "cap {}",
            tr.report.d_new_max
        );
        // And the plateau is no longer degraded.
        assert!(tr.report.longest_degraded_minutes <= 30);
    }

    #[test]
    fn higher_theta_needs_smaller_cap_under_time_limit() {
        // Fig. 3 / §V: with time-limiting constraints, higher theta yields a
        // smaller maximum allocation.
        let mut samples = vec![1.0; 2016];
        samples[100..110].fill(6.0);
        let t = Trace::from_samples(cal(), samples).unwrap();
        let qos = AppQos::new(
            band(),
            Some(DegradationSpec::new(0.03, 0.9, Some(30)).unwrap()),
        );
        let lo = translate(&t, &qos, &cos(0.6), ObsCtx::none()).unwrap();
        let hi = translate(&t, &qos, &cos(0.95), ObsCtx::none()).unwrap();
        assert!(hi.report.d_new_max < lo.report.d_new_max);
        let reduction = 1.0 - hi.report.d_new_max / lo.report.d_new_max;
        assert!((reduction - 0.2).abs() < 0.03, "reduction {reduction}");
    }

    #[test]
    fn epoch_budget_eliminates_cheapest_epochs_first() {
        // Three separated spikes per week with distinct heights; budget of
        // one epoch per week must keep only the tallest.
        let mut samples = vec![1.0; 2016];
        samples[100..103].fill(3.0);
        samples[500..503].fill(4.0);
        samples[900..903].fill(5.0);
        let t = Trace::from_samples(cal(), samples).unwrap();
        let spec = DegradationSpec::new(0.03, 0.9, None)
            .unwrap()
            .with_epoch_budget(1)
            .unwrap();
        let qos = AppQos::new(band(), Some(spec));
        let tr = translate(&t, &qos, &cos(0.6), ObsCtx::none()).unwrap();
        // With p > 0 the threshold equals the cap: the 3.0 and 4.0 spikes
        // must be below it, the 5.0 spike may stay degraded.
        assert!(
            tr.report.d_new_max >= 4.0 - 1e-9,
            "cap {}",
            tr.report.d_new_max
        );
        assert!(tr.report.d_new_max < 5.0, "cap {}", tr.report.d_new_max);
        assert_eq!(tr.report.max_degraded_epochs_per_week, 1);
        // Without the budget, the M_degr cap (5.0 * 0.66/0.9 = 3.67)
        // leaves the 4.0 and 5.0 spikes degraded.
        let free = translate(&t, &qos_no_limit(), &cos(0.6), ObsCtx::none()).unwrap();
        assert_eq!(free.report.max_degraded_epochs_per_week, 2);
    }

    #[test]
    fn epoch_budget_counts_worst_week() {
        // Week 1 has one degraded spike, week 2 has three (the M_degr cap
        // is 5.0 * 0.66/0.9 = 3.67, so all of 4.2, 4.5 and 5.0 start out
        // degraded); a budget of two must be driven by week 2.
        let mut samples = vec![1.0; 4032];
        samples[100..103].fill(5.0);
        samples[2116..2119].fill(4.2);
        samples[2516..2519].fill(4.5);
        samples[2916..2919].fill(5.0);
        let t = Trace::from_samples(cal(), samples).unwrap();
        let spec = DegradationSpec::new(0.03, 0.9, None)
            .unwrap()
            .with_epoch_budget(2)
            .unwrap();
        let qos = AppQos::new(band(), Some(spec));
        let tr = translate(&t, &qos, &cos(0.6), ObsCtx::none()).unwrap();
        assert_eq!(tr.report.max_degraded_epochs_per_week, 2);
        // Only the cheapest spike (4.2) needed to be absorbed.
        assert!(
            (tr.report.d_new_max - 4.2).abs() < 1e-9,
            "cap {}",
            tr.report.d_new_max
        );
    }

    #[test]
    fn epoch_budget_composes_with_time_limit() {
        let mut samples = vec![1.0; 2016];
        samples[100..110].fill(4.0); // 50-minute plateau: violates T_degr
        samples[500..503].fill(4.5); // two short spikes: violate the budget
        samples[900..903].fill(4.8);
        let t = Trace::from_samples(cal(), samples).unwrap();
        let spec = DegradationSpec::new(0.03, 0.9, Some(30))
            .unwrap()
            .with_epoch_budget(1)
            .unwrap();
        let qos = AppQos::new(band(), Some(spec));
        let tr = translate(&t, &qos, &cos(0.6), ObsCtx::none()).unwrap();
        // T_degr raised the cap to the plateau (4.0); the budget then had
        // to absorb the 4.5 spike, keeping only the 4.8 one degraded.
        assert!(tr.report.longest_degraded_minutes <= 30);
        assert_eq!(tr.report.max_degraded_epochs_per_week, 1);
        assert!(
            (tr.report.d_new_max - 4.5).abs() < 1e-9,
            "cap {}",
            tr.report.d_new_max
        );
        assert!(tr.report.time_limit_iterations >= 2);
    }

    #[test]
    fn zero_demand_trace_translates_cleanly() {
        let t = Trace::constant(cal(), 0.0, 2016).unwrap();
        let tr = translate(&t, &qos_no_limit(), &cos(0.6), ObsCtx::none()).unwrap();
        assert_eq!(tr.report.d_new_max, 0.0);
        assert_eq!(tr.report.peak_allocation, 0.0);
        assert_eq!(tr.report.max_worst_case_utilization, 0.0);
        assert_eq!(tr.report.degraded_fraction, 0.0);
    }

    #[test]
    fn allocation_overflow_is_rejected() {
        // Burst factor 2 takes 1e308 past f64::MAX; with p = 0 all of it
        // lands in CoS2.
        let t = Trace::constant(cal(), 1e308, 2016).unwrap();
        assert!(matches!(
            translate(&t, &qos_strict(), &cos(0.95), ObsCtx::none()),
            Err(QosError::Trace(TraceError::InvalidSample { .. }))
        ));
    }

    #[test]
    fn inconsistent_qos_is_rejected() {
        let t = Trace::constant(cal(), 1.0, 10).unwrap();
        let qos = AppQos::new(band(), Some(DegradationSpec::new(0.03, 0.6, None).unwrap()));
        assert!(matches!(
            translate(&t, &qos, &cos(0.6), ObsCtx::none()),
            Err(QosError::DegradedBelowHigh { .. })
        ));
    }

    #[test]
    fn total_allocation_matches_sum() {
        let t = spiky(500, 3.0, 50);
        let tr = translate(&t, &qos_no_limit(), &cos(0.6), ObsCtx::none()).unwrap();
        let total = tr.total_allocation();
        let (cos1, cos2) = (tr.cos1(), tr.cos2());
        for i in 0..t.len() {
            let s = cos1.samples()[i] + cos2.samples()[i];
            assert!((total.samples()[i] - s).abs() < 1e-12);
        }
        assert!((tr.peak_allocation() - total.peak()).abs() < 1e-9);
    }

    /// One or two weeks of hourly demand: `-0.0`, `+0.0`, four levels
    /// that tie across many slots, and spikes up to 1000; each week may
    /// instead be all zeros of mixed sign.
    fn hourly_demand() -> impl Strategy<Value = Trace> {
        let slot = (0u32..10, 0usize..4);
        (
            1usize..=2,
            proptest::collection::vec(slot, 2 * 168),
            (0u32..2, 0u32..2),
        )
            .prop_map(|(weeks, slots, zero_weeks)| {
                let samples: Vec<f64> = slots[..weeks * 168]
                    .iter()
                    .enumerate()
                    .map(|(i, &(kind, level))| {
                        let zero_week = [zero_weeks.0, zero_weeks.1][i / 168] == 1;
                        match kind {
                            _ if zero_week => [0.0, -0.0][i % 2],
                            0 => -0.0,
                            1 => 0.0,
                            2..=7 => [1.0, 1.5, 2.0, 3.0][level],
                            _ => [8.0, 12.0, 40.0, 1e3][level],
                        }
                    })
                    .collect();
                Trace::from_samples(Calendar::new(60).unwrap(), samples).unwrap()
            })
    }

    /// A valid policy and CoS2 commitment: with `p_zero`, a narrow band
    /// (`U_low/U_high` in 0.8..0.95) under `θ >= 0.95`, so `p = 0`;
    /// otherwise `θ` below the band ratio, so `p > 0`. `T_degr` and the
    /// epoch budget are each on or off; a zero budget comes with
    /// `M_degr = 0`, the only allowance it is valid with.
    fn policy() -> impl Strategy<Value = (AppQos, CosSpec)> {
        (
            0u32..2,
            (0.3f64..0.9, 0.0f64..1.0, 0.0f64..1.0),
            (0.0f64..0.1, 0.05f64..1.0),
            (
                proptest::option::of(1u32..480),
                proptest::option::of(0u32..4),
            ),
        )
            .prop_map(|(p_zero, (high, x, y), (m_degr, u), (t_degr, budget))| {
                let p_zero = p_zero == 1;
                let (ratio, theta) = if p_zero {
                    (0.8 + 0.15 * x, 0.95 + 0.05 * y)
                } else {
                    let theta = 0.1 + 0.8 * y;
                    (theta + (1.0 - theta) * (0.05 + 0.9 * x), theta)
                };
                let band = UtilizationBand::new(high * ratio, high).unwrap();
                let m_degr = if budget == Some(0) { 0.0 } else { m_degr };
                let mut spec =
                    DegradationSpec::new(m_degr, high + (0.99 - high) * u, t_degr).unwrap();
                if let Some(budget) = budget {
                    spec = spec.with_epoch_budget(budget).unwrap();
                }
                let cos2 = CosSpec::new(theta, 60).unwrap();
                assert_eq!(breakpoint(band, &cos2) == 0.0, p_zero);
                (AppQos::new(band, Some(spec)), cos2)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// `translate` is total over valid policies: it returns `Ok`, its
        /// report passes `check_report`, and the enforced `T_degr` and
        /// epoch budget hold in the report.
        #[test]
        fn translation_is_total_and_meets_its_limits(
            demand in hourly_demand(),
            policy in policy(),
        ) {
            let (qos, cos2) = policy;
            let tr = translate(&demand, &qos, &cos2, ObsCtx::none());
            prop_assert!(tr.is_ok(), "{:?}", tr.err());
            let report = tr.unwrap().report;
            let check = crate::analysis::check_report(&qos, &report);
            prop_assert!(check.is_ok(), "{check:?}");
            let degr = qos.degradation().unwrap();
            if let Some(minutes) = degr.time_limit_minutes() {
                prop_assert!(report.longest_degraded_minutes <= minutes, "{report:?}");
            }
            if let Some(budget) = degr.max_epochs_per_week() {
                prop_assert!(report.max_degraded_epochs_per_week <= budget as usize, "{report:?}");
            }
        }
    }
}
