//! Property tests for the zero-copy trace storage: weekly windows must be
//! observationally identical to eagerly-copied subtraces, clones must
//! share storage, and deserialization must still run the sample
//! validation.
//!
//! An hourly calendar (168 slots/week) keeps generated traces small.

use proptest::prelude::*;

use ropus_trace::{Calendar, Trace};
use serde::{Deserialize, Serialize, Value};

fn hourly() -> Calendar {
    Calendar::new(60).unwrap()
}

const WEEK: usize = 168;

/// One to four weeks of non-negative hourly samples.
fn weeks_of_samples() -> impl Strategy<Value = Vec<f64>> {
    (
        1usize..=4,
        proptest::collection::vec(0.0f64..50.0, 4 * WEEK),
    )
        .prop_map(|(w, v)| v[..w * WEEK].to_vec())
}

/// Serializes `samples` under a forged trace envelope, bypassing the
/// `Trace` constructor so deserialization alone must catch bad values.
fn forged_trace_value(samples: &[f64]) -> Value {
    Value::Object(vec![
        ("calendar".to_string(), hourly().serialize()),
        ("samples".to_string(), samples.serialize()),
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn windowing_equals_eager_subtrace(samples in weeks_of_samples(), bounds in (0usize..=4, 0usize..=4)) {
        let trace = Trace::from_samples(hourly(), samples.clone()).unwrap();
        let weeks = trace.weeks();
        let (a, b) = (bounds.0 % weeks, bounds.1 % weeks);
        let (lo, hi) = (a.min(b), a.max(b) + 1);

        let window = trace.weeks_range(lo, hi).unwrap();
        let eager =
            Trace::from_samples(hourly(), samples[lo * WEEK..hi * WEEK].to_vec()).unwrap();

        // Same observable trace...
        prop_assert_eq!(&window, &eager);
        prop_assert_eq!(window.samples(), eager.samples());
        prop_assert_eq!(window.weeks(), hi - lo);
        prop_assert_eq!(window.peak(), eager.peak());
        // ...but zero copies: the window shares the parent's buffer, the
        // eager copy does not.
        prop_assert!(window.shares_buffer(&trace));
        prop_assert!(!eager.shares_buffer(&trace));
    }

    #[test]
    fn clone_and_whole_range_share_storage(samples in weeks_of_samples()) {
        let trace = Trace::from_samples(hourly(), samples).unwrap();
        let cloned = trace.clone();
        prop_assert_eq!(&cloned, &trace);
        prop_assert!(cloned.shares_buffer(&trace));
        // Windows of clones still point at the one allocation.
        let whole = cloned.weeks_range(0, cloned.weeks()).unwrap();
        prop_assert!(whole.shares_buffer(&trace));
    }

    #[test]
    fn serde_still_rejects_nan_and_negatives(
        samples in weeks_of_samples(),
        slot in 0usize..WEEK,
        bad in (0usize..3, -50.0f64..-0.001).prop_map(|(k, neg)| match k {
            0 => f64::NAN,
            1 => f64::NEG_INFINITY,
            _ => neg,
        }),
    ) {
        // The untampered envelope deserializes to an equal trace.
        let good = Trace::deserialize(&forged_trace_value(&samples)).unwrap();
        prop_assert_eq!(good.samples(), &samples[..]);

        // Tampering one sample must be caught by the RawTrace guard.
        let mut tampered = samples;
        let at = slot % tampered.len();
        tampered[at] = bad;
        prop_assert!(Trace::deserialize(&forged_trace_value(&tampered)).is_err());
    }
}
