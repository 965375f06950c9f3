//! Run-length analysis of boolean conditions over traces.
//!
//! The time-limited-degradation requirement (`T_degr`, §III of the paper)
//! constrains the *contiguous* time a workload may spend above `U_high`.
//! With `R` observations per `T_degr` minutes, the translation must ensure
//! no window of `R + 1` consecutive observations is entirely degraded.
//! This module provides the generic run and window machinery; the two
//! scans on the translation's hot path ([`run_stats`],
//! [`first_full_window`]) read a [`BlockMax`] index and skip every block
//! that holds no sample above their threshold.

use crate::kernels::{BlockMax, BLOCK};

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

/// Degraded-run statistics of one threshold over a trace, from
/// [`run_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of samples above the threshold.
    pub count: usize,
    /// Length of the longest run over the whole trace (runs may cross
    /// chunk boundaries); 0 if none.
    pub longest_run: usize,
    /// Largest number of maximal runs inside any one chunk, a partial
    /// last chunk included; a run crossing a chunk boundary counts once
    /// in each chunk it touches.
    pub max_runs_per_chunk: usize,
}

/// Counts, longest run and most runs per chunk of the samples strictly
/// above `threshold`, in one pass over the blocks of `index` that hold
/// such a sample. The same numbers as counting matches, taking the
/// longest of [`runs_where`] over all samples, and taking the most
/// [`runs_where`] runs over `samples.chunks(index.chunk_len())`.
///
/// A skipped block (maximum at or below `threshold`) holds no match: it
/// ends any run in progress and clears the chunk's previous-match flag.
///
/// # Example
///
/// ```
/// use ropus_trace::kernels::BlockMax;
/// use ropus_trace::runs::{run_stats, RunStats};
///
/// let demand = [5.0, 5.0, 1.0, 5.0, 5.0, 5.0, 1.0, 5.0];
/// let stats = run_stats(&BlockMax::new(&demand, 4), 4.0);
/// assert_eq!(
///     stats,
///     RunStats { count: 6, longest_run: 3, max_runs_per_chunk: 2 }
/// );
/// ```
pub fn run_stats(index: &BlockMax<'_>, threshold: f64) -> RunStats {
    let mut stats = RunStats::default();
    let mut streak = 0usize;
    for (chunk, maxima) in index.chunks() {
        let mut runs = 0usize;
        let mut previous = false;
        for (block, &max) in chunk.chunks(BLOCK).zip(maxima) {
            if max <= threshold {
                streak = 0;
                previous = false;
                continue;
            }
            for &v in block {
                let hit = v > threshold;
                stats.count += usize::from(hit);
                runs += usize::from(hit && !previous);
                streak = if hit { streak + 1 } else { 0 };
                stats.longest_run = stats.longest_run.max(streak);
                previous = hit;
            }
        }
        stats.max_runs_per_chunk = stats.max_runs_per_chunk.max(runs);
    }
    stats
}

/// Start of the first window of exactly `window` consecutive samples
/// all strictly above `threshold` that starts at or after `from`, read
/// from the blocks of `index` that hold such a sample (`from` may fall
/// inside a block). `Some(from)` for an empty window when `from` is in
/// range.
///
/// This is the violation detector for `T_degr`: with `R` observations per
/// `T_degr` minutes, a window of `R + 1` all-degraded observations means
/// degradation persisted *longer* than `T_degr`.
///
/// # Example
///
/// ```
/// use ropus_trace::kernels::BlockMax;
/// use ropus_trace::runs::first_full_window;
///
/// let demand = [5.0, 1.0, 5.0, 5.0, 5.0, 1.0];
/// let index = BlockMax::new(&demand, 6);
/// assert_eq!(first_full_window(&index, 0, 3, 4.0), Some(2));
/// assert_eq!(first_full_window(&index, 3, 3, 4.0), None);
/// ```
pub fn first_full_window(
    index: &BlockMax<'_>,
    from: usize,
    window: usize,
    threshold: f64,
) -> Option<usize> {
    if window == 0 {
        return (from <= index.samples().len()).then_some(from);
    }
    let chunk_len = index.chunk_len();
    let mut streak = 0usize;
    for (c, (chunk, maxima)) in index.chunks().enumerate().skip(from / chunk_len) {
        for (b, (block, &max)) in chunk.chunks(BLOCK).zip(maxima).enumerate() {
            let start = c * chunk_len + b * BLOCK;
            if start + block.len() <= from {
                continue;
            }
            if max <= threshold {
                streak = 0;
                continue;
            }
            let skip = from.saturating_sub(start);
            for (i, &v) in block.iter().enumerate().skip(skip) {
                if v > threshold {
                    streak += 1;
                    if streak == window {
                        return Some(start + i + 1 - window);
                    }
                } else {
                    streak = 0;
                }
            }
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

    /// The threshold behind `hot`.
    const HOT: f64 = 1.0;

    fn hot(v: f64) -> bool {
        v > HOT
    }

    fn stats(samples: &[f64], chunk_len: usize, threshold: f64) -> RunStats {
        run_stats(&BlockMax::new(samples, chunk_len), threshold)
    }

    /// The closure-generic run statistics the threshold kernel replaced:
    /// every sample tested, no block skipped.
    fn reference_run_stats(
        samples: &[f64],
        chunk_len: usize,
        predicate: impl Fn(f64) -> bool,
    ) -> RunStats {
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

    /// The closure-generic window search the threshold kernel replaced.
    fn reference_first_full_window(
        samples: &[f64],
        window: usize,
        predicate: impl Fn(f64) -> bool,
    ) -> Option<usize> {
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
        assert_eq!(stats(&TRACE, TRACE.len(), HOT).longest_run, 3);
        assert_eq!(stats(&[0.0], 1, HOT).longest_run, 0);
    }

    #[test]
    fn run_stats_counts_runs_per_chunk_and_across_chunks() {
        // Chunks [0 5 5] [5 0 5] [0 5 5] [5]: the first run crosses into
        // the second chunk and counts in both; the last run spans the
        // partial last chunk.
        assert_eq!(
            stats(&TRACE, 3, HOT),
            RunStats {
                count: 7,
                longest_run: 3,
                max_runs_per_chunk: 2
            }
        );
        assert_eq!(stats(&[0.0], 4, HOT), RunStats::default());
        assert_eq!(stats(&[], 4, HOT), RunStats::default());
    }

    #[test]
    fn skipped_blocks_end_runs_and_clear_the_previous_match() {
        // One 168-slot hourly week (five full blocks and an 8-slot one)
        // and a second week. Runs touch the last slot of block 0 and the
        // first slot of block 2 with a quiet block 1 between them (two
        // runs, not one), and one run crosses the partial block into the
        // next week (one run in each week).
        let mut samples = vec![0.0; 336];
        samples[31] = 5.0;
        samples[64] = 5.0;
        samples[165..171].fill(5.0);
        assert_eq!(
            stats(&samples, 168, HOT),
            RunStats {
                count: 8,
                longest_run: 6,
                max_runs_per_chunk: 3
            }
        );
        assert_eq!(
            stats(&samples, 168, HOT),
            reference_run_stats(&samples, 168, hot)
        );
        let index = BlockMax::new(&samples, 168);
        assert_eq!(first_full_window(&index, 0, 2, HOT), Some(165));
        assert_eq!(first_full_window(&index, 168, 2, HOT), Some(168));
        assert_eq!(first_full_window(&index, 0, 7, HOT), None);
    }

    #[test]
    fn samples_at_the_threshold_are_not_above_it() {
        // A block whose maximum equals the threshold is skipped, and a
        // sample equal to it inside a scanned block is no match.
        let mut samples = vec![2.0; 64];
        samples[40] = 3.0;
        samples[41] = 3.0;
        assert_eq!(
            stats(&samples, 64, 2.0),
            RunStats {
                count: 2,
                longest_run: 2,
                max_runs_per_chunk: 1
            }
        );
        let index = BlockMax::new(&samples, 64);
        assert_eq!(first_full_window(&index, 0, 2, 2.0), Some(40));
        assert_eq!(first_full_window(&index, 0, 3, 2.0), None);
    }

    /// Samples as plateaus of `-0.0`, `+0.0` and small integer levels, so
    /// that runs cross block and chunk edges.
    fn plateaus() -> impl Strategy<Value = Vec<f64>> {
        proptest::collection::vec((0u8..5, 1usize..50), 0..16).prop_map(|plateaus| {
            plateaus
                .into_iter()
                .flat_map(|(kind, len)| {
                    let level = match kind {
                        0 => -0.0,
                        k => f64::from(k - 1),
                    };
                    std::iter::repeat_n(level, len)
                })
                .collect()
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The fused pass matches the run lists it replaces.
        #[test]
        fn run_stats_matches_run_lists(
            samples in proptest::collection::vec(0u8..3, 0..60),
            chunk_len in 1usize..12,
        ) {
            let samples: Vec<f64> = samples.into_iter().map(f64::from).collect();
            let stats = stats(&samples, chunk_len, HOT);
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

        /// The block-skipping threshold kernels equal the closure scans
        /// over every sample, for chunks shorter than, equal to, and
        /// not a multiple of a block, thresholds at, between and around
        /// the sample levels (signed zeros included), and every start.
        #[test]
        fn threshold_kernels_match_the_closure_references(
            samples in plateaus(),
            chunk_len in (0usize..5, 1usize..70)
                .prop_map(|(k, n)| [n, n, BLOCK, 168, 2016][k]),
            threshold in (0usize..8).prop_map(|k| {
                [-0.0, 0.0, 0.5, 1.0, 2.0, 3.0, f64::MIN_POSITIVE, -1.0][k]
            }),
            window in 0usize..40,
            from in 0usize..800,
        ) {
            let index = BlockMax::new(&samples, chunk_len);
            let above = |v: f64| v > threshold;
            prop_assert_eq!(
                run_stats(&index, threshold),
                reference_run_stats(&samples, chunk_len, above)
            );
            let expected = samples
                .get(from..)
                .and_then(|rest| reference_first_full_window(rest, window, above))
                .map(|offset| from + offset);
            prop_assert_eq!(first_full_window(&index, from, window, threshold), expected);
        }
    }

    #[test]
    fn first_full_window_detection() {
        let index = BlockMax::new(&TRACE, TRACE.len());
        assert_eq!(first_full_window(&index, 0, 3, HOT), Some(1));
        assert_eq!(first_full_window(&index, 0, 4, HOT), None);
        assert_eq!(first_full_window(&index, 0, 1, HOT), Some(1));
        assert_eq!(first_full_window(&index, 0, 0, HOT), Some(0));
        // A window longer than the trace never matches.
        assert_eq!(first_full_window(&index, 0, 11, HOT), None);
        // A search resumed inside a run counts from its start slot.
        assert_eq!(first_full_window(&index, 2, 2, HOT), Some(2));
        assert_eq!(first_full_window(&index, 8, 3, HOT), None);
    }

    #[test]
    fn first_full_window_finds_second_run_when_first_is_short() {
        let t = [5.0, 0.0, 5.0, 5.0, 5.0, 5.0];
        assert_eq!(first_full_window(&BlockMax::new(&t, 6), 0, 4, HOT), Some(2));
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
