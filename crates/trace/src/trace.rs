use std::sync::Arc;

use serde::{Deserialize, Serialize, Value};

use crate::kernels;
use crate::{Calendar, TraceError};

/// A validated, non-negative time series aligned to a [`Calendar`].
///
/// `Trace` is the common currency of R-Opus: raw CPU *demand* observations,
/// per-class *allocation* requirements produced by the QoS translation, and
/// *delivered* allocations measured by the workload-manager simulation are
/// all traces. Every sample is guaranteed finite and non-negative.
///
/// # Representation
///
/// Samples live in an immutable, reference-counted buffer (`Arc<Vec<f64>>`)
/// plus a window (`start`, `len`) into it. Consequences:
///
/// * [`Trace::clone`] is O(1) — it bumps a reference count; the clones
///   share storage (observable via [`Trace::shares_buffer`]);
/// * windowing operations such as [`Trace::weeks_range`] allocate nothing:
///   they return a new window over the same buffer;
/// * the buffer can never be mutated after construction, so every derived
///   statistic (and any cache keyed by workload identity, such as the
///   placement `FitEngine` memo) stays valid for the life of the trace.
///
/// Layers that only read samples borrow them as a slice via
/// [`Trace::samples`].
///
/// # Example
///
/// ```
/// use ropus_trace::{Calendar, Trace};
///
/// # fn main() -> Result<(), ropus_trace::TraceError> {
/// let trace = Trace::from_samples(Calendar::five_minute(), vec![1.0, 2.5, 0.5])?;
/// assert_eq!(trace.peak(), 2.5);
/// assert_eq!(trace.len(), 3);
/// let cheap = trace.clone(); // shares the sample buffer, no copy
/// assert!(cheap.shares_buffer(&trace));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Deserialize)]
#[serde(try_from = "RawTrace")]
pub struct Trace {
    calendar: Calendar,
    // `Arc<Vec<f64>>` rather than `Arc<[f64]>`: `Arc::new(vec)` adopts the
    // Vec's allocation, so construction from an owned Vec is copy-free,
    // while `Arc<[f64]>::from(vec)` would memcpy every sample. The extra
    // pointer hop is paid once per `samples()` call, not per sample.
    buf: Arc<Vec<f64>>,
    start: usize,
    len: usize,
}

/// Unvalidated mirror used so deserialized traces re-run the constructor
/// checks (serde derive alone would accept NaNs and negatives).
#[derive(Deserialize)]
struct RawTrace {
    calendar: Calendar,
    samples: Vec<f64>,
}

impl TryFrom<RawTrace> for Trace {
    type Error = TraceError;

    fn try_from(raw: RawTrace) -> Result<Self, TraceError> {
        Trace::from_samples(raw.calendar, raw.samples)
    }
}

/// Serializes as `{ calendar, samples }` — the *window's* samples, so the
/// wire format is identical to the former owned-`Vec` representation and
/// round-trips through `RawTrace` validation.
impl Serialize for Trace {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("calendar".to_string(), self.calendar.serialize()),
            ("samples".to_string(), self.samples().serialize()),
        ])
    }
}

/// Equality is value equality of the window (calendar + samples), not
/// buffer identity: a windowed trace equals an eagerly-copied one.
impl PartialEq for Trace {
    fn eq(&self, other: &Self) -> bool {
        self.calendar == other.calendar && self.samples() == other.samples()
    }
}

impl Trace {
    /// Creates a trace from raw samples.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Empty`] for an empty vector and
    /// [`TraceError::InvalidSample`] if any sample is negative, NaN, or
    /// infinite.
    pub fn from_samples(calendar: Calendar, samples: Vec<f64>) -> Result<Self, TraceError> {
        if samples.is_empty() {
            return Err(TraceError::Empty);
        }
        for (index, &value) in samples.iter().enumerate() {
            if !value.is_finite() || value < 0.0 {
                return Err(TraceError::InvalidSample { index, value });
            }
        }
        let len = samples.len();
        Ok(Trace {
            calendar,
            buf: Arc::new(samples),
            start: 0,
            len,
        })
    }

    /// Creates a trace sharing an already-validated buffer. The caller is
    /// [`weeks_range`](Self::weeks_range), whose window lies inside an
    /// existing validated buffer, so re-validation is skipped.
    fn from_window(calendar: Calendar, buf: Arc<Vec<f64>>, start: usize, len: usize) -> Self {
        debug_assert!(start.checked_add(len).is_some_and(|end| end <= buf.len()));
        Trace {
            calendar,
            buf,
            start,
            len,
        }
    }

    /// Creates a trace where every slot holds the same value.
    ///
    /// # Errors
    ///
    /// Returns an error under the same conditions as
    /// [`from_samples`](Self::from_samples).
    pub fn constant(calendar: Calendar, value: f64, len: usize) -> Result<Self, TraceError> {
        Self::from_samples(calendar, vec![value; len])
    }

    /// The calendar the samples are aligned to.
    pub fn calendar(&self) -> Calendar {
        self.calendar
    }

    /// Number of samples in the window.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trace holds no samples. Always `false` for a constructed
    /// trace; present for API completeness.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Borrow the samples.
    pub fn samples(&self) -> &[f64] {
        // lint:allow(panic-slice-index): the window invariant
        // `start + len <= buf.len()` is established by every constructor
        // and the buffer is immutable, so the range is always in bounds.
        &self.buf[self.start..self.start + self.len]
    }

    /// Whether `self` and `other` share the same underlying sample buffer
    /// (regardless of window). `Trace::clone` and the windowing methods
    /// preserve sharing; constructors allocate fresh buffers.
    pub fn shares_buffer(&self, other: &Trace) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf)
    }

    /// Iterator over samples.
    pub fn iter(&self) -> std::iter::Copied<std::slice::Iter<'_, f64>> {
        self.samples().iter().copied()
    }

    /// Number of *whole* weeks covered (the paper's `W`). Trailing partial
    /// weeks are not counted.
    pub fn weeks(&self) -> usize {
        self.len / self.calendar.slots_per_week()
    }

    /// Checks the trace covers a whole number of weeks.
    ///
    /// The paper's resource-access-probability metric (`θ`) is defined per
    /// week and per slot-of-day, so placement requires whole weeks.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::PartialWeek`] otherwise.
    pub fn require_whole_weeks(&self) -> Result<(), TraceError> {
        let per_week = self.calendar.slots_per_week();
        if !self.len.is_multiple_of(per_week) {
            return Err(TraceError::PartialWeek {
                len: self.len,
                per_week,
            });
        }
        Ok(())
    }

    /// Largest sample (the paper's `D_max`).
    pub fn peak(&self) -> f64 {
        kernels::peak(self.samples())
    }

    /// Returns a new trace scaled by a non-negative factor.
    ///
    /// Scaling by exactly `1.0` shares the buffer instead of copying
    /// (`v * 1.0` is bit-identical to `v` for every valid sample).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidSample`] if `factor` is negative or
    /// non-finite.
    pub fn scaled(&self, factor: f64) -> Result<Trace, TraceError> {
        if factor == 1.0 {
            return Ok(self.clone());
        }
        // `min(v, ∞) = v` exactly, so the fused cap/scale kernel reduces
        // to a pure scale.
        let mut out = Vec::with_capacity(self.len);
        kernels::cap_scale_into(&mut out, self.samples(), f64::INFINITY, factor);
        Trace::from_samples(self.calendar, out)
    }

    /// Returns a new trace with samples capped at `limit` (`min(d, limit)`).
    ///
    /// This is the translation's demand cap at `D_new_max`. When the cap
    /// does not bind (`limit >= peak`), the result shares this trace's
    /// buffer — the common case for smooth workloads whose `M_degr` cap
    /// sits above the observed peak.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidSample`] if `limit` is negative or
    /// non-finite.
    pub fn capped(&self, limit: f64) -> Result<Trace, TraceError> {
        // A NaN limit compares false and falls through to the slow path,
        // preserving the historical `v.min(limit)` semantics.
        if limit >= self.peak() {
            return Ok(self.clone());
        }
        // `v · 1.0` is bit-identical to `v` for every valid sample, so the
        // fused kernel reduces to a pure cap.
        let mut out = Vec::with_capacity(self.len);
        kernels::cap_scale_into(&mut out, self.samples(), limit, 1.0);
        Trace::from_samples(self.calendar, out)
    }

    /// Fused `min(v, limit) · factor` over every sample — one pass, one
    /// allocation, bit-identical to [`capped`](Self::capped) followed by
    /// [`scaled`](Self::scaled) (`min` is exact and `· 1.0` is identity).
    ///
    /// When neither operation would change a sample the buffer is shared
    /// instead of copied, matching the individual methods' fast paths.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidSample`] if `limit` or `factor`
    /// produce a negative or non-finite sample.
    pub fn cap_scaled(&self, limit: f64, factor: f64) -> Result<Trace, TraceError> {
        if factor == 1.0 {
            return self.capped(limit);
        }
        if limit >= self.peak() {
            return self.scaled(factor);
        }
        let mut out = Vec::with_capacity(self.len);
        kernels::cap_scale_into(&mut out, self.samples(), limit, factor);
        Trace::from_samples(self.calendar, out)
    }

    /// The CoS1 and CoS2 allocation traces `split` divides this demand
    /// into, materialized (the kernels apply a split without this copy).
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::InvalidSample`] if a split sample overflows
    /// to infinity.
    pub fn split_classes(&self, split: &kernels::CosSplit) -> Result<(Trace, Trace), TraceError> {
        let (mut cos1, mut cos2) = (Vec::new(), Vec::new());
        split.classes_into(self.samples(), &mut cos1, &mut cos2);
        Ok((
            Trace::from_samples(self.calendar, cos1)?,
            Trace::from_samples(self.calendar, cos2)?,
        ))
    }

    /// Element-wise sum of two aligned traces.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Misaligned`] if lengths differ.
    pub fn checked_add(&self, other: &Trace) -> Result<Trace, TraceError> {
        if self.len() != other.len() {
            return Err(TraceError::Misaligned {
                left: self.len(),
                right: other.len(),
            });
        }
        let samples = self
            .samples()
            .iter()
            .zip(other.samples().iter())
            .map(|(a, b)| a + b)
            .collect();
        Trace::from_samples(self.calendar, samples)
    }

    /// A new trace holding whole weeks `start..end` (zero-based,
    /// end-exclusive), or `None` when the range is empty or out of range.
    ///
    /// Allocation-free: the result is a window over the shared buffer.
    pub fn weeks_range(&self, start: usize, end: usize) -> Option<Trace> {
        if start >= end {
            return None;
        }
        let per_week = self.calendar.slots_per_week();
        let lo = start.checked_mul(per_week)?;
        let hi = end.checked_mul(per_week)?;
        if hi > self.len {
            return None;
        }
        Some(Trace::from_window(
            self.calendar,
            Arc::clone(&self.buf),
            self.start.checked_add(lo)?,
            hi - lo,
        ))
    }

    /// The samples of week `w` (zero-based), or `None` if out of range.
    pub fn week(&self, w: usize) -> Option<&[f64]> {
        let per_week = self.calendar.slots_per_week();
        let start = w.checked_mul(per_week)?;
        let end = start.checked_add(per_week)?;
        self.samples().get(start..end)
    }

    /// Fraction of samples strictly greater than `threshold`.
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        let samples = self.samples();
        let count = samples.iter().filter(|&&v| v > threshold).count();
        count as f64 / samples.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    fn cal() -> Calendar {
        Calendar::five_minute()
    }

    #[test]
    fn rejects_empty_and_invalid_samples() {
        assert_eq!(Trace::from_samples(cal(), vec![]), Err(TraceError::Empty));
        assert!(matches!(
            Trace::from_samples(cal(), vec![1.0, -0.5]),
            Err(TraceError::InvalidSample { index: 1, .. })
        ));
        assert!(matches!(
            Trace::from_samples(cal(), vec![f64::NAN]),
            Err(TraceError::InvalidSample { index: 0, .. })
        ));
        assert!(matches!(
            Trace::from_samples(cal(), vec![f64::INFINITY]),
            Err(TraceError::InvalidSample { .. })
        ));
    }

    #[test]
    fn accepts_zero_samples() {
        let t = Trace::from_samples(cal(), vec![0.0, 0.0]).unwrap();
        assert_eq!(t.peak(), 0.0);
    }

    #[test]
    fn clone_shares_storage() {
        let t = Trace::from_samples(cal(), vec![1.0, 2.0, 3.0]).unwrap();
        let c = t.clone();
        assert!(c.shares_buffer(&t));
        assert_eq!(c, t);
        // Fresh constructions do not share.
        let fresh = Trace::from_samples(cal(), vec![1.0, 2.0, 3.0]).unwrap();
        assert!(!fresh.shares_buffer(&t));
        assert_eq!(fresh, t);
    }

    #[test]
    fn scaled_by_one_and_nonbinding_cap_share_storage() {
        let t = Trace::from_samples(cal(), vec![1.0, 5.0, 3.0]).unwrap();
        assert!(t.scaled(1.0).unwrap().shares_buffer(&t));
        assert!(t.capped(5.0).unwrap().shares_buffer(&t));
        assert!(t.capped(f64::INFINITY).unwrap().shares_buffer(&t));
        // A binding cap must still copy.
        let capped = t.capped(4.0).unwrap();
        assert!(!capped.shares_buffer(&t));
        assert_eq!(capped.samples(), &[1.0, 4.0, 3.0]);
        // A NaN limit falls through to the slow path, where `v.min(NaN)`
        // keeps `v` (f64::min ignores NaN) — samples unchanged, no sharing.
        let nan_capped = t.capped(f64::NAN).unwrap();
        assert_eq!(nan_capped.samples(), t.samples());
        assert!(!nan_capped.shares_buffer(&t));
        // A negative limit produces negative samples and errors.
        assert!(t.capped(-1.0).is_err());
    }

    #[test]
    fn peak_mean_percentile() {
        let t = Trace::from_samples(cal(), vec![1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!(t.peak(), 4.0);
        assert_eq!(stats::mean(t.samples()), 2.5);
        assert_eq!(stats::percentile(t.samples(), 100.0), 4.0);
        assert_eq!(stats::percentile(t.samples(), 0.0), 1.0);
    }

    #[test]
    fn capped_and_scaled() {
        let t = Trace::from_samples(cal(), vec![1.0, 5.0, 3.0]).unwrap();
        assert_eq!(t.capped(3.0).unwrap().samples(), &[1.0, 3.0, 3.0]);
        assert_eq!(t.scaled(2.0).unwrap().samples(), &[2.0, 10.0, 6.0]);
        assert!(t.scaled(-1.0).is_err());
    }

    #[test]
    fn checked_add_requires_alignment() {
        let a = Trace::from_samples(cal(), vec![1.0, 2.0]).unwrap();
        let b = Trace::from_samples(cal(), vec![3.0, 4.0]).unwrap();
        let c = Trace::from_samples(cal(), vec![1.0]).unwrap();
        assert_eq!(a.checked_add(&b).unwrap().samples(), &[4.0, 6.0]);
        assert!(matches!(
            a.checked_add(&c),
            Err(TraceError::Misaligned { .. })
        ));
    }

    #[test]
    fn whole_weeks_check() {
        let per_week = cal().slots_per_week();
        let whole = Trace::constant(cal(), 1.0, per_week * 2).unwrap();
        assert_eq!(whole.weeks(), 2);
        assert!(whole.require_whole_weeks().is_ok());
        let partial = Trace::constant(cal(), 1.0, per_week + 1).unwrap();
        assert_eq!(partial.weeks(), 1);
        assert!(matches!(
            partial.require_whole_weeks(),
            Err(TraceError::PartialWeek { .. })
        ));
    }

    #[test]
    fn week_slicing() {
        let per_week = cal().slots_per_week();
        let mut samples = vec![1.0; per_week];
        samples.extend(vec![2.0; per_week]);
        let t = Trace::from_samples(cal(), samples).unwrap();
        assert_eq!(t.week(0).unwrap()[0], 1.0);
        assert_eq!(t.week(1).unwrap()[0], 2.0);
        assert!(t.week(2).is_none());
    }

    #[test]
    fn weeks_range_extracts_whole_weeks() {
        let per_week = cal().slots_per_week();
        let mut samples = vec![1.0; per_week];
        samples.extend(vec![2.0; per_week]);
        samples.extend(vec![3.0; per_week]);
        let t = Trace::from_samples(cal(), samples).unwrap();
        let middle = t.weeks_range(1, 2).unwrap();
        assert_eq!(middle.len(), per_week);
        assert_eq!(middle.samples()[0], 2.0);
        let tail = t.weeks_range(1, 3).unwrap();
        assert_eq!(tail.weeks(), 2);
        assert!(t.weeks_range(2, 2).is_none());
        assert!(t.weeks_range(0, 4).is_none());
    }

    #[test]
    fn weeks_range_is_a_shared_window() {
        let per_week = cal().slots_per_week();
        let t = Trace::constant(cal(), 1.0, per_week * 3).unwrap();
        let window = t.weeks_range(1, 3).unwrap();
        assert!(window.shares_buffer(&t));
        // Windows of windows still share and stay consistent.
        let inner = window.weeks_range(1, 2).unwrap();
        assert!(inner.shares_buffer(&t));
        assert_eq!(inner.len(), per_week);
        // Serialization captures only the window.
        let json = serde_json::to_string(&inner).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(back, inner);
        assert!(!back.shares_buffer(&inner));
    }

    #[test]
    fn fraction_above_counts_strictly() {
        let t = Trace::from_samples(cal(), vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(t.fraction_above(2.0), 0.5);
        assert_eq!(t.fraction_above(4.0), 0.0);
        assert_eq!(t.fraction_above(0.0), 1.0);
    }

    #[test]
    fn serde_round_trip_and_validation() {
        let t = Trace::from_samples(cal(), vec![1.0, 2.0]).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
        // Deserialization re-runs the invariant checks.
        let forged = json.replace("2.0", "-2.0");
        assert!(serde_json::from_str::<Trace>(&forged).is_err());
    }
}
