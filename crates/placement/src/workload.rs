//! Workloads as seen by the placement service: named pairs of per-CoS
//! allocation-requirement traces.

use serde::{Deserialize, Serialize};

use ropus_qos::translation::Translation;
use ropus_trace::{Trace, TraceError, TraceView};

use crate::PlacementError;

/// One application workload's allocation requirements, split across the
/// pool's two classes of service by the QoS translation.
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(try_from = "RawWorkload")]
pub struct Workload {
    name: String,
    cos1: Trace,
    cos2: Trace,
    cos1_peak: f64,
    total_peak: f64,
    #[serde(default)]
    memory: Option<Trace>,
    /// Whether every CoS1 sample is bitwise `+0.0` — the aggregate's
    /// zero-CoS1 fast path (DESIGN.md §5h). Derived from `cos1`, so it is
    /// neither serialized nor compared.
    #[serde(skip_serializing_if = "is_derived")]
    cos1_zero: bool,
}

/// `skip_serializing_if` predicate for derived state: never on the wire.
fn is_derived(_: &bool) -> bool {
    true
}

/// Whether every sample is bitwise `+0.0`. Stops at the first sample that
/// is not, so only all-zero traces pay a full scan.
fn all_positive_zero(trace: &Trace) -> bool {
    trace.iter().all(|a| a.to_bits() == 0)
}

/// The serialized form: the derived zero-CoS1 flag is recomputed from the
/// samples on load instead of being trusted from (or written to) the wire.
#[derive(Deserialize)]
struct RawWorkload {
    name: String,
    cos1: Trace,
    cos2: Trace,
    cos1_peak: f64,
    total_peak: f64,
    #[serde(default)]
    memory: Option<Trace>,
}

impl From<RawWorkload> for Workload {
    fn from(raw: RawWorkload) -> Self {
        let cos1_zero = all_positive_zero(&raw.cos1);
        Workload {
            name: raw.name,
            cos1: raw.cos1,
            cos2: raw.cos2,
            cos1_peak: raw.cos1_peak,
            total_peak: raw.total_peak,
            memory: raw.memory,
            cos1_zero,
        }
    }
}

/// Equality of the serialized fields; the derived zero-CoS1 flag does not
/// participate (trace equality treats `-0.0 == +0.0`, the flag does not).
impl PartialEq for Workload {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.cos1 == other.cos1
            && self.cos2 == other.cos2
            && self.cos1_peak == other.cos1_peak
            && self.total_peak == other.total_peak
            && self.memory == other.memory
    }
}

impl Workload {
    /// Creates a workload from aligned per-CoS allocation traces.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Misaligned`] when the traces differ in length.
    pub fn new(name: impl Into<String>, cos1: Trace, cos2: Trace) -> Result<Self, TraceError> {
        if cos1.len() != cos2.len() {
            return Err(TraceError::Misaligned {
                left: cos1.len(),
                right: cos2.len(),
            });
        }
        let cos1_peak = cos1.peak();
        let cos1_zero = all_positive_zero(&cos1);
        let total_peak = cos1
            .iter()
            .zip(cos2.iter())
            .map(|(a, b)| a + b)
            .fold(0.0, f64::max);
        Ok(Workload {
            name: name.into(),
            cos1,
            cos2,
            cos1_peak,
            total_peak,
            memory: None,
            cos1_zero,
        })
    }

    /// Attaches a memory-footprint trace (GB per slot), the second
    /// capacity attribute. Memory is placed as a guaranteed attribute:
    /// the placement simulator requires the aggregate footprint to stay
    /// within the server's memory at every slot.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::Misaligned`] when the memory trace length
    /// differs from the CPU traces.
    pub fn with_memory(mut self, memory: Trace) -> Result<Self, TraceError> {
        if memory.len() != self.cos1.len() {
            return Err(TraceError::Misaligned {
                left: self.cos1.len(),
                right: memory.len(),
            });
        }
        self.memory = Some(memory);
        Ok(self)
    }

    /// The memory-footprint trace, if one is attached.
    pub fn memory(&self) -> Option<&Trace> {
        self.memory.as_ref()
    }

    /// Peak memory footprint in GB (0 when no memory trace is attached).
    pub fn memory_peak(&self) -> f64 {
        self.memory.as_ref().map_or(0.0, Trace::peak)
    }

    /// Builds a workload from a QoS [`Translation`].
    pub fn from_translation(name: impl Into<String>, translation: Translation) -> Self {
        Workload::new(name, translation.cos1, translation.cos2)
            // lint:allow(panic-expect): a Translation's per-CoS traces
            // share one calendar and length by construction.
            .expect("translation traces are aligned by construction")
    }

    /// Application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Guaranteed-class allocation trace.
    pub fn cos1(&self) -> &Trace {
        &self.cos1
    }

    /// Statistical-class allocation trace.
    pub fn cos2(&self) -> &Trace {
        &self.cos2
    }

    /// Borrowed view of the guaranteed-class trace (for read-only layers:
    /// aggregation, replay, statistics).
    pub fn cos1_view(&self) -> TraceView<'_> {
        self.cos1.view()
    }

    /// Borrowed view of the statistical-class trace.
    pub fn cos2_view(&self) -> TraceView<'_> {
        self.cos2.view()
    }

    /// Borrowed view of the memory-footprint trace, if one is attached.
    pub fn memory_view(&self) -> Option<TraceView<'_>> {
        self.memory.as_ref().map(Trace::view)
    }

    /// Peak of the CoS1 trace — the workload's contribution to the
    /// guaranteed-class constraint (sum of peaks <= capacity).
    pub fn cos1_peak(&self) -> f64 {
        self.cos1_peak
    }

    /// Whether every CoS1 sample is bitwise `+0.0` (true for every app
    /// whose translation breakpoint is `p = 0`). A set of such workloads
    /// has a CoS1 sum of exactly `+0.0` per slot, which the aggregate
    /// skips computing.
    pub(crate) fn cos1_is_zero(&self) -> bool {
        self.cos1_zero
    }

    /// Peak of the total (CoS1 + CoS2) allocation — the workload's
    /// contribution to the paper's `C_peak` column.
    pub fn total_peak(&self) -> f64 {
        self.total_peak
    }

    /// Number of observation slots.
    pub fn len(&self) -> usize {
        self.cos1.len()
    }

    /// Whether the traces are empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.cos1.is_empty()
    }
}

/// Validates that a set of workloads is non-empty, no larger than the fit
/// engine can index (`u16::MAX`), mutually aligned, and covers whole
/// weeks; returns the common slot count.
///
/// Accepts any iterator of borrowed workloads (`&[Workload]`,
/// `slice.iter().copied()` over `&[&Workload]`, …) so callers holding
/// references validate without cloning anything.
///
/// # Errors
///
/// Returns the corresponding [`PlacementError`] variant on each violation.
pub fn validate_workloads<'a, I>(workloads: I) -> Result<usize, PlacementError>
where
    I: IntoIterator<Item = &'a Workload>,
{
    let mut iter = workloads.into_iter();
    let first = iter.next().ok_or(PlacementError::NoWorkloads)?;
    let len = first.len();
    let calendar = first.cos1().calendar();
    let mut count = 0usize;
    for w in std::iter::once(first).chain(iter) {
        count += 1;
        if w.len() != len || w.cos1().calendar() != calendar {
            return Err(PlacementError::MisalignedWorkloads {
                name: w.name().to_string(),
            });
        }
        if w.cos1().require_whole_weeks().is_err() {
            return Err(PlacementError::PartialWeeks {
                name: w.name().to_string(),
            });
        }
    }
    if count > u16::MAX as usize {
        return Err(PlacementError::TooManyWorkloads { count });
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropus_trace::Calendar;

    fn cal() -> Calendar {
        Calendar::five_minute()
    }

    fn wl(name: &str, c1: f64, c2: f64, len: usize) -> Workload {
        Workload::new(
            name,
            Trace::constant(cal(), c1, len).unwrap(),
            Trace::constant(cal(), c2, len).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn peaks_are_precomputed() {
        let w = Workload::new(
            "a",
            Trace::from_samples(cal(), vec![1.0, 3.0]).unwrap(),
            Trace::from_samples(cal(), vec![4.0, 1.0]).unwrap(),
        )
        .unwrap();
        assert_eq!(w.cos1_peak(), 3.0);
        // Total peak is the peak of the *sum*, not the sum of peaks.
        assert_eq!(w.total_peak(), 5.0);
    }

    #[test]
    fn rejects_misaligned_traces() {
        let err = Workload::new(
            "a",
            Trace::constant(cal(), 1.0, 2).unwrap(),
            Trace::constant(cal(), 1.0, 3).unwrap(),
        )
        .unwrap_err();
        assert!(matches!(err, TraceError::Misaligned { .. }));
    }

    #[test]
    fn from_translation_builds_workload() {
        use ropus_qos::translation::translate;
        use ropus_qos::{AppQos, CosSpec};
        let demand = Trace::constant(cal(), 2.0, cal().slots_per_week()).unwrap();
        let t = translate(
            &demand,
            &AppQos::paper_default(None),
            &CosSpec::new(0.6, 60).unwrap(),
            ropus_obs::ObsCtx::none(),
        )
        .unwrap();
        let w = Workload::from_translation("app", t);
        assert_eq!(w.name(), "app");
        assert!(w.total_peak() > 0.0);
    }

    #[test]
    fn memory_trace_must_align() {
        let w = wl("a", 1.0, 1.0, 4);
        let good = Trace::constant(cal(), 8.0, 4).unwrap();
        let w = w.with_memory(good).unwrap();
        assert_eq!(w.memory_peak(), 8.0);
        assert!(w.memory().is_some());
        let bad = Trace::constant(cal(), 8.0, 5).unwrap();
        assert!(matches!(
            wl("b", 1.0, 1.0, 4).with_memory(bad),
            Err(TraceError::Misaligned { .. })
        ));
        assert_eq!(wl("c", 1.0, 1.0, 4).memory_peak(), 0.0);
    }

    #[test]
    fn zero_cos1_flag_is_derived_and_stays_off_the_wire() {
        let zero = wl("z", 0.0, 2.0, 4);
        assert!(zero.cos1_is_zero());
        assert!(!wl("c", 0.5, 2.0, 4).cos1_is_zero());
        let negative_zero = Workload::new(
            "n",
            Trace::from_samples(cal(), vec![0.0, -0.0]).unwrap(),
            Trace::constant(cal(), 1.0, 2).unwrap(),
        )
        .unwrap();
        assert!(!negative_zero.cos1_is_zero());
        let json = serde_json::to_string(&zero).unwrap();
        assert!(!json.contains("cos1_zero"), "{json}");
        let back: Workload = serde_json::from_str(&json).unwrap();
        assert_eq!(back, zero);
        assert!(back.cos1_is_zero());
    }

    #[test]
    fn validate_accepts_aligned_whole_weeks() {
        let n = cal().slots_per_week();
        let ws = vec![wl("a", 1.0, 1.0, n), wl("b", 2.0, 0.5, n)];
        assert_eq!(validate_workloads(&ws).unwrap(), n);
    }

    #[test]
    fn validate_rejects_empty_misaligned_and_partial() {
        assert!(matches!(
            validate_workloads(&[]),
            Err(PlacementError::NoWorkloads)
        ));
        let n = cal().slots_per_week();
        let ws = vec![wl("a", 1.0, 1.0, n), wl("b", 1.0, 1.0, n * 2)];
        assert!(matches!(
            validate_workloads(&ws),
            Err(PlacementError::MisalignedWorkloads { .. })
        ));
        let ws = vec![wl("a", 1.0, 1.0, 100)];
        assert!(matches!(
            validate_workloads(&ws),
            Err(PlacementError::PartialWeeks { .. })
        ));
    }
}
