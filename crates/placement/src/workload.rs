//! Workloads as seen by the placement service: named pairs of per-CoS
//! allocation-requirement traces.
//!
//! A workload holds its two class traces in one of two forms, chosen by
//! how it was made and invisible to every caller outside this crate:
//!
//! * **explicit traces** — [`Workload::new`], CSV input and
//!   deserialization;
//! * **a split demand** — [`Workload::from_translation`]: the translated
//!   demand trace (a shared handle, not a copy) plus the [`CosSplit`]
//!   that divides each sample into CoS1 and CoS2.
//!
//! The aggregation kernels read either form through a borrowed `Columns`
//! view, applying a split as they sum, so no per-app class trace is
//! allocated on the placement paths (DESIGN.md §5k). Equality,
//! serialization and content ids see only the class samples, never the
//! form.

use serde::{Deserialize, Serialize, Value};

use ropus_qos::translation::{CosSplit, Translation};
use ropus_trace::kernels::Columns;
use ropus_trace::{Calendar, Trace, TraceError, TraceView};

use crate::PlacementError;

/// One application workload's allocation requirements, split across the
/// pool's two classes of service by the QoS translation.
#[derive(Debug, Clone, Deserialize)]
#[serde(try_from = "RawWorkload")]
pub struct Workload {
    name: String,
    classes: Classes,
    cos1_peak: f64,
    total_peak: f64,
    memory: Option<Trace>,
    /// Whether every CoS1 sample is bitwise `+0.0` — the aggregate's
    /// zero-CoS1 fast path (DESIGN.md §5h). Derived from the classes, so
    /// it is neither serialized nor compared.
    cos1_zero: bool,
}

/// How a workload holds its two class traces (see the module docs).
#[derive(Debug, Clone)]
enum Classes {
    /// Explicit, aligned per-class traces.
    Traces { cos1: Trace, cos2: Trace },
    /// A demand trace and the split that derives both classes from it.
    Split { demand: Trace, split: CosSplit },
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
            classes: Classes::Traces {
                cos1: raw.cos1,
                cos2: raw.cos2,
            },
            cos1_peak: raw.cos1_peak,
            total_peak: raw.total_peak,
            memory: raw.memory,
            cos1_zero,
        }
    }
}

/// Writes the class samples whatever the form, so the wire format is the
/// one explicit traces always had: `name`, `cos1`, `cos2`, `cos1_peak`,
/// `total_peak`, `memory`.
impl Serialize for Workload {
    fn serialize(&self) -> Value {
        let field = |name: &str, value: Value| (name.to_string(), value);
        Value::Object(vec![
            field("name", self.name.serialize()),
            field("cos1", self.cos1().serialize()),
            field("cos2", self.cos2().serialize()),
            field("cos1_peak", self.cos1_peak.serialize()),
            field("total_peak", self.total_peak.serialize()),
            field("memory", self.memory.serialize()),
        ])
    }
}

/// Equality of the serialized fields (value equality of the class samples,
/// whatever the form); the derived zero-CoS1 flag does not participate
/// (trace equality treats `-0.0 == +0.0`, the flag does not).
impl PartialEq for Workload {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.classes_match(other, |a, b| a == b)
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
            classes: Classes::Traces { cos1, cos2 },
            cos1_peak,
            total_peak,
            memory: None,
            cos1_zero,
        })
    }

    /// Builds a workload from a QoS [`Translation`]: the translated demand
    /// (shared, not copied) and its split. The peaks and the zero-CoS1
    /// flag are bit-identical to [`Workload::new`] over the materialized
    /// traces (see `from_split`).
    pub fn from_translation(name: impl Into<String>, translation: Translation) -> Self {
        let (demand, d_max, split) = translation.into_parts();
        Workload::from_split(name.into(), demand, d_max, split)
    }

    /// A split workload over `demand`, whose peak (`Trace::peak`) is
    /// `d_max`; the split's cap is non-negative and its factor positive.
    ///
    /// Explicit traces would hold `cos1_peak` and `total_peak` as
    /// `fold(0.0, max)` of `c1` and of `c1 + c2`. Both are non-decreasing
    /// in the demand under round-to-nearest (`min`, scaling by a positive
    /// factor and `capped − min(capped, p·cap)` each are), so both folds
    /// peak at the split of `D_max`. Where that peak is positive it is a
    /// sample's exact value and no pass is needed. With `p = 0` every `c1`
    /// is the literal `+0.0` and every `c1 + c2` is `+0.0 + c2`, never
    /// `-0.0`, so the split of `D_max` gives the folds there too. Only a
    /// `p > 0` split whose `c1` at `D_max` is zero keeps the streaming
    /// fold: its `-0.0` samples decide the flag and the sign of a zero
    /// peak.
    fn from_split(name: String, demand: Trace, d_max: f64, split: CosSplit) -> Self {
        let (c1, c2) = split.classes(d_max);
        // lint:allow(unit-float-eq): exact zero is `CosSplit::classes`'s
        // own test for the `p = 0` arm, whose `c1` is the literal `+0.0`.
        let (cos1_peak, total_peak, cos1_zero) = if c1 > 0.0 || split.p == 0.0 {
            (c1, c1 + c2, c1.to_bits() == 0)
        } else {
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
        };
        Workload {
            name,
            classes: Classes::Split { demand, split },
            cos1_peak,
            total_peak,
            memory: None,
            cos1_zero,
        }
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
        if memory.len() != self.len() {
            return Err(TraceError::Misaligned {
                left: self.len(),
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

    /// Application name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The trace that fixes the workload's calendar and length: its CoS1
    /// trace, or its demand.
    fn shape(&self) -> &Trace {
        match &self.classes {
            Classes::Traces { cos1, .. } => cos1,
            Classes::Split { demand, .. } => demand,
        }
    }

    /// The calendar the allocation traces are aligned to.
    pub fn calendar(&self) -> Calendar {
        self.shape().calendar()
    }

    /// The class columns, as the aggregation kernels read them.
    pub(crate) fn columns(&self) -> Columns<'_> {
        match &self.classes {
            Classes::Traces { cos1, cos2 } => Columns::Slices {
                cos1: cos1.samples(),
                cos2: cos2.samples(),
            },
            Classes::Split { demand, split } => Columns::Split {
                demand: demand.samples(),
                split: *split,
            },
        }
    }

    /// Guaranteed-class allocation trace. A translated workload
    /// materializes it, so hot paths read the columns instead.
    pub fn cos1(&self) -> Trace {
        self.class_traces().0
    }

    /// Statistical-class allocation trace (materialized like
    /// [`cos1`](Self::cos1)).
    pub fn cos2(&self) -> Trace {
        self.class_traces().1
    }

    fn class_traces(&self) -> (Trace, Trace) {
        match &self.classes {
            Classes::Traces { cos1, cos2 } => (cos1.clone(), cos2.clone()),
            Classes::Split { demand, split } => demand
                .split_classes(split)
                // lint:allow(panic-expect): `translate` checked that the
                // split of every demand sample is finite.
                .expect("translation split is finite"),
        }
    }

    /// Total (CoS1 + CoS2) allocation per slot, computed in one pass
    /// without materializing either class.
    pub fn total_allocation(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.len());
        self.columns().totals_into(&mut out, true);
        out
    }

    /// Whether the class samples of two workloads agree under `eq`, slot
    /// by slot, with equal calendars. Two splits of one demand window
    /// with bit-equal scalars agree without a scan; explicit traces
    /// sharing a buffer window compare by pointer.
    fn classes_match(&self, other: &Workload, eq: impl Fn(f64, f64) -> bool) -> bool {
        let calendars = |w: &Workload| match &w.classes {
            Classes::Traces { cos1, cos2 } => (cos1.calendar(), cos2.calendar()),
            Classes::Split { demand, .. } => (demand.calendar(), demand.calendar()),
        };
        if self.len() != other.len() || calendars(self) != calendars(other) {
            return false;
        }
        let slices_match = |x: &[f64], y: &[f64]| {
            std::ptr::eq(x, y) || (x.len() == y.len() && x.iter().zip(y).all(|(&p, &q)| eq(p, q)))
        };
        match (&self.classes, &other.classes) {
            (
                Classes::Split {
                    demand: a,
                    split: s,
                },
                Classes::Split {
                    demand: b,
                    split: t,
                },
            ) if s.same_bits(t) && std::ptr::eq(a.samples(), b.samples()) => true,
            (Classes::Traces { cos1: a1, cos2: a2 }, Classes::Traces { cos1: b1, cos2: b2 }) => {
                slices_match(a1.samples(), b1.samples()) && slices_match(a2.samples(), b2.samples())
            }
            _ => {
                let (x, y) = (self.columns(), other.columns());
                (0..self.len()).all(|i| match (x.at(i), y.at(i)) {
                    (Some((a1, a2)), Some((b1, b2))) => eq(a1, b1) && eq(a2, b2),
                    _ => false,
                })
            }
        }
    }

    /// Whether both workloads hold bitwise-equal class samples (the
    /// content-id test; `==` cannot tell `-0.0` from `+0.0`).
    pub(crate) fn same_class_bits(&self, other: &Workload) -> bool {
        self.classes_match(other, |a, b| a.to_bits() == b.to_bits())
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
        self.shape().len()
    }

    /// Whether the traces are empty (never true for a constructed value).
    pub fn is_empty(&self) -> bool {
        self.shape().is_empty()
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
    let calendar = first.calendar();
    let mut count = 0usize;
    for w in std::iter::once(first).chain(iter) {
        count += 1;
        if w.len() != len || w.calendar() != calendar {
            return Err(PlacementError::MisalignedWorkloads {
                name: w.name().to_string(),
            });
        }
        if w.shape().require_whole_weeks().is_err() {
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
    use crate::engine::FitMemo;
    use crate::simulator::AggregateLoad;
    use proptest::prelude::*;

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

    /// A demand sample: ordinary, zero of either sign, or subnormal.
    fn sample() -> impl Strategy<Value = f64> {
        (0u32..7, 0.0f64..20.0).prop_map(|(kind, x)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f64::MIN_POSITIVE / 8.0,
            _ => x,
        })
    }

    /// A split workload and its explicit-trace twin over one week of
    /// hourly demand; `p = 0`, `p = 1`, an infinite cap, `factor = 1` and
    /// all-zero weeks of mixed zero signs show up often.
    fn twins() -> impl Strategy<Value = (Workload, Workload)> {
        let scalars = (
            (0u32..3, 0.0f64..1.0),
            (0u32..2, 0.0f64..25.0),
            (0u32..2, 1.0f64..3.0),
        );
        (
            proptest::collection::vec(sample(), 168),
            scalars,
            0u32..1000,
            0u32..4,
        )
            .prop_map(
                |(samples, ((pk, p), (ck, cap), (fk, factor)), tag, zeros)| {
                    let samples: Vec<f64> = if zeros == 0 {
                        samples
                            .iter()
                            .map(|&d| if d > 5.0 { -0.0 } else { 0.0 })
                            .collect()
                    } else {
                        samples
                    };
                    let demand = Trace::from_samples(Calendar::new(60).unwrap(), samples).unwrap();
                    let split = CosSplit {
                        p: [0.0, 1.0, p][pk as usize],
                        cap: [f64::INFINITY, cap][ck as usize],
                        factor: [1.0, factor][fk as usize],
                    };
                    let d_max = demand.peak();
                    let split = Workload::from_split(format!("w{tag}"), demand, d_max, split);
                    let twin = Workload::new(split.name(), split.cos1(), split.cos2()).unwrap();
                    (split, twin)
                },
            )
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A split workload is indistinguishable from its materialized
        /// twin: equality, wire bytes, derived scalars, aggregate totals
        /// (cold and incremental), and content id.
        #[test]
        fn split_workloads_match_their_materialized_twins(
            pairs in proptest::collection::vec(twins(), 1..6),
        ) {
            let memo = FitMemo::new();
            for (split, twin) in &pairs {
                prop_assert_eq!(split, twin);
                prop_assert_eq!(twin, split);
                prop_assert_eq!(
                    serde_json::to_string(split).unwrap(),
                    serde_json::to_string(twin).unwrap()
                );
                prop_assert_eq!(split.cos1_peak().to_bits(), twin.cos1_peak().to_bits());
                prop_assert_eq!(split.total_peak().to_bits(), twin.total_peak().to_bits());
                prop_assert_eq!(split.cos1_is_zero(), twin.cos1_is_zero());
                prop_assert_eq!(bits(&split.total_allocation()), bits(&twin.total_allocation()));
                prop_assert!(split.same_class_bits(twin) && twin.same_class_bits(split));
                prop_assert_eq!(memo.intern(std::slice::from_ref(split)), memo.intern(std::slice::from_ref(twin)));
            }
            // Names may repeat across pairs; keep the first of each.
            let mut splits: Vec<Workload> = Vec::new();
            let mut traces: Vec<Workload> = Vec::new();
            for (split, twin) in pairs {
                if splits.iter().all(|w| w.name() != split.name()) {
                    splits.push(split);
                    traces.push(twin);
                }
            }
            let split_refs: Vec<&Workload> = splits.iter().collect();
            let trace_refs: Vec<&Workload> = traces.iter().collect();
            let a = AggregateLoad::of(&split_refs).unwrap();
            let b = AggregateLoad::of(&trace_refs).unwrap();
            prop_assert_eq!(bits(a.totals()), bits(b.totals()));
            prop_assert_eq!(a.cos1_peak_sum().to_bits(), b.cos1_peak_sum().to_bits());
            // Incremental edits run the dense recompute over split leaves.
            if splits.len() > 1 {
                let (mut a, mut b) = (a, b);
                a.remove(splits[0].name()).unwrap();
                b.remove(traces[0].name()).unwrap();
                prop_assert_eq!(bits(a.totals()), bits(b.totals()));
                a.add(&splits[0]).unwrap();
                b.add(&traces[0]).unwrap();
                prop_assert_eq!(bits(a.totals()), bits(b.totals()));
            }
        }
    }

    /// Twins that differ only in their split scalars still share a content
    /// id when the classes come out bit-identical, and differ otherwise.
    #[test]
    fn content_ids_follow_class_bits_not_split_scalars() {
        let demand = Trace::from_samples(cal(), vec![1.0; cal().slots_per_week()]).unwrap();
        let split = |cap: f64| {
            Workload::from_split(
                "w".into(),
                demand.clone(),
                demand.peak(),
                CosSplit {
                    p: 0.5,
                    cap,
                    factor: 2.0,
                },
            )
        };
        let memo = FitMemo::new();
        let id = memo.intern(&[split(4.0)]);
        // p·cap = 2.5 ≥ every sample either way: the same classes.
        assert_eq!(memo.intern(&[split(5.0)]), id);
        assert_ne!(memo.intern(&[split(1.5)]), id);
        assert_eq!(split(4.0), split(5.0));
        assert_ne!(split(4.0), split(1.5));
    }

    /// A split's signed zeros keep it apart from a twin that differs only
    /// in zero signs: equal by value, distinct content ids.
    #[test]
    fn content_ids_tell_signed_zeros_in_a_split_apart() {
        let mut samples = vec![1.0; cal().slots_per_week()];
        samples[5] = -0.0;
        let demand = Trace::from_samples(cal(), samples).unwrap();
        let split = CosSplit {
            p: 0.0,
            cap: f64::INFINITY,
            factor: 2.0,
        };
        let w = Workload::from_split("w".into(), demand.clone(), demand.peak(), split);
        let cos2 = w.cos2();
        assert_eq!(cos2.samples()[5].to_bits(), (-0.0f64).to_bits());
        let positive: Vec<f64> = cos2.iter().map(|v| v + 0.0).collect();
        let twin =
            Workload::new("w", w.cos1(), Trace::from_samples(cal(), positive).unwrap()).unwrap();
        assert_eq!(w, twin);
        assert!(!w.same_class_bits(&twin));
        let memo = FitMemo::new();
        assert_ne!(memo.intern(&[w]), memo.intern(&[twin]));
    }

    /// The wire format of one translated app, pinned byte for byte: a
    /// split workload serializes exactly as explicit traces always have.
    #[test]
    fn translated_workload_json_is_pinned() {
        use ropus_qos::translation::translate;
        use ropus_qos::{AppQos, CosSpec};
        let daily = Calendar::new(1440).unwrap();
        let demand = Trace::from_samples(daily, vec![1.0, 2.5, 0.0, 4.0, 3.0, 0.5, 2.0]).unwrap();
        let t = translate(
            &demand,
            &AppQos::paper_default(None),
            &CosSpec::new(0.6, 60).unwrap(),
            ropus_obs::ObsCtx::none(),
        )
        .unwrap();
        let w = Workload::from_translation("app", t);
        assert_eq!(serde_json::to_string(&w).unwrap(), GOLDEN);
        let back: Workload = serde_json::from_str(GOLDEN).unwrap();
        assert_eq!(back, w);
        assert!(back.same_class_bits(&w));
    }

    const GOLDEN: &str = concat!(
        r#"{"name":"app","#,
        r#""cos1":{"calendar":{"slot_minutes":1440},"samples":[2.0,3.151515151515152,0.0,"#,
        r#"3.151515151515152,3.151515151515152,1.0,3.151515151515152]},"#,
        r#""cos2":{"calendar":{"slot_minutes":1440},"samples":[0.0,1.8484848484848482,0.0,"#,
        r#"4.848484848484848,2.848484848484848,0.0,0.8484848484848482]},"#,
        r#""cos1_peak":3.151515151515152,"total_peak":8.0,"memory":null}"#,
    );
}
