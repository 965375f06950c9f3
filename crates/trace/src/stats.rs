//! Summary statistics used throughout R-Opus.
//!
//! The percentile definition matches what the paper relies on for `D_M%`
//! (the `M`-th percentile of workload demand): linear interpolation between
//! order statistics, with `percentile(_, 100)` equal to the maximum.

use crate::kernels;

/// Arithmetic mean; 0 for an empty slice. Lane-chunked: see
/// [`kernels::mean`] for the fixed accumulation order.
pub fn mean(samples: &[f64]) -> f64 {
    kernels::mean(samples)
}

/// Population variance; 0 for slices shorter than 2. Lane-chunked: see
/// [`kernels::variance`] for the fixed accumulation order.
pub fn variance(samples: &[f64]) -> f64 {
    kernels::variance(samples)
}

/// Population standard deviation.
pub fn std_dev(samples: &[f64]) -> f64 {
    variance(samples).sqrt()
}

/// Coefficient of variation (`σ/µ`); 0 when the mean is 0.
pub fn coefficient_of_variation(samples: &[f64]) -> f64 {
    let m = mean(samples);
    if m == 0.0 {
        0.0
    } else {
        std_dev(samples) / m
    }
}

/// The `q`-th percentile with linear interpolation between order statistics.
///
/// `percentile(s, 100)` is `max(s)` and `percentile(s, 0)` is `min(s)`.
/// Returns 0 for an empty slice.
///
/// # Panics
///
/// Panics if `q` is NaN or outside `[0, 100]`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!(
        (0.0..=100.0).contains(&q),
        "percentile {q} outside [0, 100]"
    );
    percentile_of_sorted(&kernels::sorted(samples), q)
}

/// Percentile of an already ascending-sorted slice; avoids re-sorting when
/// many percentiles of the same data are needed (e.g. the Fig. 6 sweep).
///
/// # Panics
///
/// Panics if `q` is NaN or outside `[0, 100]`.
pub fn percentile_of_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(
        (0.0..=100.0).contains(&q),
        "percentile {q} outside [0, 100]"
    );
    if sorted.is_empty() {
        return 0.0;
    }
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    // rank lies in [0, len-1], so both ranks are in bounds; get() keeps
    // the lookup panic-free regardless.
    let value_at = |i: usize| sorted.get(i).copied().unwrap_or(0.0);
    if lo == hi {
        value_at(lo)
    } else {
        let weight = rank - lo as f64;
        value_at(lo) * (1.0 - weight) + value_at(hi) * weight
    }
}

/// The `q`-th percentile with *upper nearest-rank* semantics:
/// `sorted[ceil(q/100 · (n−1))]`.
///
/// Unlike the interpolating [`percentile`], this value guarantees that at
/// most `1 − q/100` of the samples are strictly greater — the property the
/// R-Opus `M_degr` demand cap needs ("for at least `M%` of measurements,
/// utilization of allocation is within the desirable range").
///
/// # Panics
///
/// Panics if `q` is NaN or outside `[0, 100]`.
pub fn percentile_upper(samples: &[f64], q: f64) -> f64 {
    assert!(
        (0.0..=100.0).contains(&q),
        "percentile {q} outside [0, 100]"
    );
    kernels::sorted(samples)
        .get(percentile_upper_rank(samples.len(), q))
        .copied()
        .unwrap_or(0.0)
}

/// Index of the upper nearest-rank `q`-th percentile in an ascending
/// slice of `len` samples: `ceil(q/100 · (len − 1))`, clamped to the last
/// index (0 when `len` is 0).
pub fn percentile_upper_rank(len: usize, q: f64) -> usize {
    let last = len.saturating_sub(1);
    ((q / 100.0 * last as f64).ceil() as usize).min(last)
}

/// Pearson correlation of two equally long series; 0 when undefined
/// (length mismatch, fewer than two points, or a constant series).
///
/// Used to validate the generator's cross-attribute structure (memory
/// footprints must track CPU demand) and as the measurement behind the
/// correlation-aware placement heuristic.
pub fn correlation(a: &[f64], b: &[f64]) -> f64 {
    if a.len() != b.len() || a.len() < 2 {
        return 0.0;
    }
    let ma = mean(a);
    let mb = mean(b);
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma) * (x - ma);
        vb += (y - mb) * (y - mb);
    }
    if va == 0.0 || vb == 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert_eq!(variance(&[2.0, 4.0]), 1.0);
        assert_eq!(std_dev(&[2.0, 4.0]), 1.0);
    }

    #[test]
    fn cv_handles_zero_mean() {
        assert_eq!(coefficient_of_variation(&[0.0, 0.0]), 0.0);
        let cv = coefficient_of_variation(&[2.0, 4.0]);
        assert!((cv - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_endpoints() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 100.0), 4.0);
        assert_eq!(percentile(&s, 50.0), 2.5);
    }

    #[test]
    fn percentile_interpolates() {
        let s = [10.0, 20.0];
        assert_eq!(percentile(&s, 25.0), 12.5);
        assert_eq!(percentile(&s, 75.0), 17.5);
    }

    #[test]
    fn percentile_of_single_sample() {
        assert_eq!(percentile(&[7.0], 30.0), 7.0);
        assert_eq!(percentile(&[], 30.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn percentile_rejects_out_of_range() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn percentile_of_sorted_matches_percentile() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        let mut sorted = s.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.0, 10.0, 33.3, 50.0, 90.0, 97.0, 99.9, 100.0] {
            assert_eq!(percentile(&s, q), percentile_of_sorted(&sorted, q));
        }
    }

    #[test]
    fn percentile_upper_bounds_fraction_above() {
        // 162 zeros then 6 large values: the interpolating percentile sits
        // between the groups, leaving 6/168 > 3% of samples above it; the
        // upper nearest-rank value leaves exactly 5/168 < 3%.
        let mut samples = vec![0.0; 162];
        samples.extend([15.9, 17.9, 18.7, 19.1, 19.5, 19.7]);
        let p = percentile_upper(&samples, 97.0);
        assert_eq!(p, 15.9);
        let above = samples.iter().filter(|&&v| v > p).count();
        assert!(above as f64 / samples.len() as f64 <= 0.03);
        assert!(percentile(&samples, 97.0) < p);
    }

    #[test]
    fn percentile_upper_edges() {
        assert_eq!(percentile_upper(&[], 50.0), 0.0);
        assert_eq!(percentile_upper(&[7.0], 30.0), 7.0);
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_upper(&s, 0.0), 1.0);
        assert_eq!(percentile_upper(&s, 100.0), 4.0);
        // Any fractional rank rounds up.
        assert_eq!(percentile_upper(&s, 50.0), 3.0);
    }

    #[test]
    fn correlation_of_linear_series() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((correlation(&a, &b) - 1.0).abs() < 1e-12);
        let inverted = [8.0, 6.0, 4.0, 2.0];
        assert!((correlation(&a, &inverted) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&a, &[1.0, 1.0, 1.0, 1.0]), 0.0);
        assert_eq!(
            correlation(&a, &b[..2]),
            0.0,
            "length mismatch is undefined"
        );
        assert_eq!(correlation(&[1.0], &[2.0]), 0.0);
    }
}
