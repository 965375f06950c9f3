//! Order statistics for the benchmark's reported timings.

/// The percentiles a tail may be reported at, highest first, in tenths
/// of a percent.
const TAIL_LADDER_PERMILLE: [usize; 3] = [999, 990, 900];

/// Samples that must lie beyond a percentile before it is reported.
const MIN_BEYOND: usize = 10;

/// The median (the mean of the two middle values for an even count);
/// `None` when there are no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some(0.5 * (sorted[n / 2 - 1] + sorted[n / 2])),
    }
}

/// Nearest-rank percentile `q` (0 < q <= 100) of the samples.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted(samples);
    if sorted.is_empty() {
        return None;
    }
    let rank = (q / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The highest percentile of the ladder (99.9, 99, 90) that has at least
/// ten of `n` samples beyond its nearest rank; 50 (the median) when none
/// has.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER_PERMILLE
        .into_iter()
        .find(|&q| n - (q * n).div_ceil(1000) >= MIN_BEYOND)
        .map_or(50.0, |q| q as f64 / 10.0)
}

/// A latency summary: median, tail at the percentile [`tail_percentile`]
/// picks, and the sample count both rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub p50: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

impl Summary {
    /// Summarizes `samples`; all-zero for an empty set.
    pub fn of(samples: &[f64]) -> Summary {
        let tail_pct = tail_percentile(samples.len());
        let p50 = median(samples).unwrap_or(0.0);
        let tail = if tail_pct > 50.0 {
            percentile(samples, tail_pct).unwrap_or(0.0)
        } else {
            p50
        };
        Summary {
            count: samples.len(),
            p50,
            tail_pct,
            tail,
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn summary_reports_the_tail_the_count_supports() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.count, 1000);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail, 990.0);
        let few = Summary::of(&[5.0, 7.0, 6.0, 8.0]);
        assert_eq!((few.tail_pct, few.tail, few.p50), (50.0, 6.5, 6.5));
    }
}
