//! Run-length analysis of boolean conditions over traces.
//!
//! The time-limited-degradation requirement (`T_degr`, §III of the paper)
//! constrains the *contiguous* time a workload may spend above `U_high`.
//! With `R` observations per `T_degr` minutes, the translation must ensure
//! no window of `R + 1` consecutive observations is entirely degraded.
//! This module provides the generic run and window machinery.

/// A maximal run of consecutive indices where a predicate held.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    /// Index of the first sample in the run.
    pub start: usize,
    /// Number of consecutive samples in the run (always >= 1).
    pub len: usize,
}

impl Run {
    /// One-past-the-end index of the run.
    pub fn end(&self) -> usize {
        self.start + self.len
    }
}

/// Maximal runs of samples for which `predicate` returns `true`.
///
/// # Example
///
/// ```
/// use ropus_trace::runs::{runs_where, Run};
///
/// let demand = [1.0, 5.0, 6.0, 1.0, 7.0];
/// let runs = runs_where(&demand, |d| d > 4.0);
/// assert_eq!(runs, vec![Run { start: 1, len: 2 }, Run { start: 4, len: 1 }]);
/// ```
pub fn runs_where<F>(samples: &[f64], mut predicate: F) -> Vec<Run>
where
    F: FnMut(f64) -> bool,
{
    let mut runs = Vec::new();
    let mut current: Option<Run> = None;
    for (i, &v) in samples.iter().enumerate() {
        if predicate(v) {
            match current.as_mut() {
                Some(run) => run.len += 1,
                None => current = Some(Run { start: i, len: 1 }),
            }
        } else if let Some(run) = current.take() {
            runs.push(run);
        }
    }
    if let Some(run) = current {
        runs.push(run);
    }
    runs
}

/// Degraded-run statistics of one predicate over a trace, from
/// [`run_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of samples satisfying the predicate.
    pub count: usize,
    /// Length of the longest run over the whole trace (runs may cross
    /// chunk boundaries); 0 if none.
    pub longest_run: usize,
    /// Largest number of maximal runs inside any one chunk, a partial
    /// last chunk included; a run crossing a chunk boundary counts once
    /// in each chunk it touches.
    pub max_runs_per_chunk: usize,
}

/// Counts, longest run and most runs per `chunk_len`-sample chunk for
/// `predicate`, in one pass. The same numbers as counting matches,
/// taking the longest of [`runs_where`] over all samples, and taking the
/// most [`runs_where`] runs over `samples.chunks(chunk_len)`.
///
/// # Panics
///
/// Panics if `chunk_len` is 0.
///
/// # Example
///
/// ```
/// use ropus_trace::runs::{run_stats, RunStats};
///
/// let demand = [5.0, 5.0, 1.0, 5.0, 5.0, 5.0, 1.0, 5.0];
/// let stats = run_stats(&demand, 4, |d| d > 4.0);
/// assert_eq!(
///     stats,
///     RunStats { count: 6, longest_run: 3, max_runs_per_chunk: 2 }
/// );
/// ```
pub fn run_stats<F>(samples: &[f64], chunk_len: usize, mut predicate: F) -> RunStats
where
    F: FnMut(f64) -> bool,
{
    let mut stats = RunStats::default();
    let mut streak = 0usize;
    for chunk in samples.chunks(chunk_len) {
        let mut runs = 0usize;
        let mut previous = false;
        for &v in chunk {
            let hit = predicate(v);
            stats.count += usize::from(hit);
            runs += usize::from(hit && !previous);
            streak = if hit { streak + 1 } else { 0 };
            stats.longest_run = stats.longest_run.max(streak);
            previous = hit;
        }
        stats.max_runs_per_chunk = stats.max_runs_per_chunk.max(runs);
    }
    stats
}

/// First window of exactly `window` consecutive samples all satisfying
/// `predicate`, returned as its start index.
///
/// This is the violation detector for `T_degr`: with `R` observations per
/// `T_degr` minutes, a window of `R + 1` all-degraded observations means
/// degradation persisted *longer* than `T_degr`.
pub fn first_full_window<F>(samples: &[f64], window: usize, mut predicate: F) -> Option<usize>
where
    F: FnMut(f64) -> bool,
{
    if window == 0 {
        return Some(0);
    }
    let mut streak = 0usize;
    for (i, &v) in samples.iter().enumerate() {
        if predicate(v) {
            streak += 1;
            if streak == window {
                return Some(i + 1 - window);
            }
        } else {
            streak = 0;
        }
    }
    None
}

/// Smallest sample within `samples[start..start + len]`.
///
/// # Panics
///
/// Panics if the range is empty or out of bounds.
pub fn min_in_range(samples: &[f64], start: usize, len: usize) -> f64 {
    assert!(
        len > 0 && start + len <= samples.len(),
        "range out of bounds"
    );
    // lint:allow(panic-slice-index): the assert above pins the range
    // inside the slice; the documented panic is the precondition check.
    samples[start..start + len]
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min)
}

/// Total number of samples covered by runs at least `min_len` long.
///
/// Used to report how much trace time sits in *sustained* degradation
/// episodes, as opposed to isolated spikes.
pub fn time_in_long_runs<F>(samples: &[f64], min_len: usize, predicate: F) -> usize
where
    F: FnMut(f64) -> bool,
{
    runs_where(samples, predicate)
        .iter()
        .filter(|r| r.len >= min_len)
        .map(|r| r.len)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TRACE: [f64; 10] = [0.0, 5.0, 5.0, 5.0, 0.0, 5.0, 0.0, 5.0, 5.0, 5.0];

    fn hot(v: f64) -> bool {
        v > 1.0
    }

    #[test]
    fn finds_all_maximal_runs() {
        let runs = runs_where(&TRACE, hot);
        assert_eq!(
            runs,
            vec![
                Run { start: 1, len: 3 },
                Run { start: 5, len: 1 },
                Run { start: 7, len: 3 },
            ]
        );
        assert_eq!(runs[0].end(), 4);
    }

    #[test]
    fn empty_and_all_true_inputs() {
        assert!(runs_where(&[], hot).is_empty());
        let all = runs_where(&[2.0, 2.0], hot);
        assert_eq!(all, vec![Run { start: 0, len: 2 }]);
        assert!(runs_where(&[0.0, 0.0], hot).is_empty());
    }

    #[test]
    fn longest_run_length() {
        assert_eq!(run_stats(&TRACE, TRACE.len(), hot).longest_run, 3);
        assert_eq!(run_stats(&[0.0], 1, hot).longest_run, 0);
    }

    #[test]
    fn run_stats_counts_runs_per_chunk_and_across_chunks() {
        // Chunks [0 5 5] [5 0 5] [0 5 5] [5]: the first run crosses into
        // the second chunk and counts in both; the last run spans the
        // partial last chunk.
        assert_eq!(
            run_stats(&TRACE, 3, hot),
            RunStats {
                count: 7,
                longest_run: 3,
                max_runs_per_chunk: 2
            }
        );
        assert_eq!(run_stats(&[0.0], 4, hot), RunStats::default());
        assert_eq!(run_stats(&[], 4, hot), RunStats::default());
    }

    proptest! {
        /// The fused pass matches the run lists it replaces.
        #[test]
        fn run_stats_matches_run_lists(
            samples in proptest::collection::vec(0u8..3, 0..60),
            chunk_len in 1usize..12,
        ) {
            let samples: Vec<f64> = samples.into_iter().map(f64::from).collect();
            let stats = run_stats(&samples, chunk_len, hot);
            prop_assert_eq!(stats.count, samples.iter().filter(|&&v| hot(v)).count());
            let longest = runs_where(&samples, hot).iter().map(|r| r.len).max().unwrap_or(0);
            prop_assert_eq!(stats.longest_run, longest);
            let per_chunk = samples
                .chunks(chunk_len)
                .map(|chunk| runs_where(chunk, hot).len())
                .max()
                .unwrap_or(0);
            prop_assert_eq!(stats.max_runs_per_chunk, per_chunk);
        }
    }

    #[test]
    fn first_full_window_detection() {
        assert_eq!(first_full_window(&TRACE, 3, hot), Some(1));
        assert_eq!(first_full_window(&TRACE, 4, hot), None);
        assert_eq!(first_full_window(&TRACE, 1, hot), Some(1));
        assert_eq!(first_full_window(&TRACE, 0, hot), Some(0));
        // A window longer than the trace never matches.
        assert_eq!(first_full_window(&TRACE, 11, hot), None);
    }

    #[test]
    fn first_full_window_finds_second_run_when_first_is_short() {
        let t = [5.0, 0.0, 5.0, 5.0, 5.0, 5.0];
        assert_eq!(first_full_window(&t, 4, hot), Some(2));
    }

    #[test]
    fn min_in_range_works() {
        assert_eq!(min_in_range(&TRACE, 1, 3), 5.0);
        assert_eq!(min_in_range(&[3.0, 1.0, 2.0], 0, 3), 1.0);
    }

    #[test]
    #[should_panic(expected = "range out of bounds")]
    fn min_in_range_rejects_bad_range() {
        min_in_range(&TRACE, 8, 5);
    }

    #[test]
    fn time_in_long_runs_filters_short_episodes() {
        assert_eq!(time_in_long_runs(&TRACE, 2, hot), 6);
        assert_eq!(time_in_long_runs(&TRACE, 4, hot), 0);
        assert_eq!(time_in_long_runs(&TRACE, 1, hot), 7);
    }
}
