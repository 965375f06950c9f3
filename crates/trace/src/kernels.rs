//! Chunked, auto-vectorizable slot kernels.
//!
//! Every hot loop over demand slots funnels through this module so the
//! codebase has exactly one place where the floating-point association of
//! each operation is pinned down. Two families live here:
//!
//! * **Element-wise kernels** (`add_assign`, `sub_saturating`, `cap_scale`,
//!   `split_cos`, …) — each output slot depends on one input slot, so the
//!   loop carries no dependency and LLVM vectorizes the plain `zip` form.
//!   These are *bit-identical* to the obvious scalar loop by construction:
//!   chunking independent elements never reassociates anything.
//! * **Reduction kernels** (`sum`, `mean`, `variance`) — a strict
//!   left-to-right `f64` fold cannot be vectorized, so these use a fixed
//!   [`LANES`]-wide accumulation whose association is part of the kernel's
//!   *definition*: lane `j` sums slots `j, j+LANES, j+2·LANES, …`, the lane
//!   totals combine pairwise, and the trailing remainder folds in last.
//!   The association depends only on the input length — never on threads,
//!   chunk scheduling, or platform — so results are deterministic and
//!   reproducible everywhere.
//!
//! The maximum kernels ([`peak`], [`BlockMax`]) also run in lanes. A
//! maximum of non-NaN samples does not depend on association except in
//! the sign of a zero, and every lane starts at `+0.0` and keeps its
//! value on a tie, so both equal the scalar `fold(0.0, f64::max)` bit
//! for bit.
//!
//! The sorting kernel [`sorted`] is the single sanctioned
//! sample-buffer copy for order statistics; [`Trace`](crate::Trace) callers
//! should prefer the cached [`Trace::sorted_samples`](crate::Trace::sorted_samples)
//! view, which pays this copy once per window.

/// Number of independent accumulator lanes used by the reduction kernels.
///
/// Part of the kernel definition: changing it changes results (by ulps) and
/// invalidates recorded experiment numbers.
pub const LANES: usize = 4;

/// Element-wise `acc[i] += xs[i]` over the common prefix of the slices.
///
/// This is the aggregation primitive: summing a fleet column into a
/// per-slot total. Accumulating columns one at a time keeps the per-slot
/// association identical to the scalar reference loop
/// (`for each column c { for each slot i { acc[i] += c[i] } }`).
pub fn add_assign(acc: &mut [f64], xs: &[f64]) {
    debug_assert_eq!(acc.len(), xs.len(), "kernel operands must be aligned");
    for (a, &x) in acc.iter_mut().zip(xs) {
        *a += x;
    }
}

/// Element-wise `out[i] = a[i] - b[i]`, clamped at zero.
///
/// Used for unmet-demand computation (`demand - served`); the clamp keeps
/// results valid trace samples when `b` exceeds `a` by rounding.
pub fn sub_saturating_into(out: &mut Vec<f64>, a: &[f64], b: &[f64]) {
    debug_assert_eq!(a.len(), b.len(), "kernel operands must be aligned");
    out.clear();
    out.extend(a.iter().zip(b).map(|(&x, &y)| (x - y).max(0.0)));
}

/// Element-wise `out[i] = min(xs[i], cap) * factor`.
///
/// The fused form of the translation's demand cap followed by the burst
/// scale. `min` is exact, so the fusion is bit-identical to capping into a
/// temporary and scaling it afterwards.
pub fn cap_scale_into(out: &mut Vec<f64>, xs: &[f64], cap: f64, factor: f64) {
    out.clear();
    out.extend(xs.iter().map(|&v| v.min(cap) * factor));
}

/// Element-wise CoS split of a demand column, in its reference form.
///
/// For each slot: `capped = min(d, cap)`, `cos1 = min(capped, p · cap)`,
/// `cos2 = capped − cos1`, both scaled by `factor`. This reproduces
/// `portfolio::split_demand` exactly, slot by slot. Translation and
/// placement split through [`CosSplit`]; this plain form is the oracle
/// its kernels are tested against.
pub fn split_cos_into(
    demand: &[f64],
    p: f64,
    cap: f64,
    factor: f64,
    cos1_out: &mut Vec<f64>,
    cos2_out: &mut Vec<f64>,
) {
    cos1_out.clear();
    cos2_out.clear();
    cos1_out.reserve(demand.len());
    cos2_out.reserve(demand.len());
    let split_at = p * cap;
    for &d in demand {
        let capped = d.min(cap);
        let cos1 = capped.min(split_at);
        let cos2 = capped - cos1;
        cos1_out.push(cos1 * factor);
        cos2_out.push(cos2 * factor);
    }
}

/// `min(x, cap)` for non-NaN operands, returning `x` on a tie: one
/// `minpd` where `f64::min` needs a NaN guard around it. On x86-64,
/// `f64::min(x, cap)` with a run-time `cap` lowers to exactly this choice
/// (a tie keeps `x`), so the split kernels below match
/// [`split_cos_into`]/[`cap_scale_into`] bit for bit, signed zeros
/// included; the proptests pin that.
#[inline(always)]
fn lesser(x: f64, cap: f64) -> f64 {
    if cap < x {
        cap
    } else {
        x
    }
}

/// The QoS translation's per-slot division of demand into the two
/// classes of service: breakpoint `p`, demand cap, and burst factor.
///
/// A translated workload keeps its demand column plus this split instead
/// of two materialized class traces; the aggregation kernels below apply
/// the split while they sum. Each slot's allocation pair `(cos1, cos2)`
/// is:
///
/// * `p == 0`: `(+0.0, min(d, cap) · factor)`, the [`cap_scale_into`]
///   arithmetic beside an all-`+0.0` CoS1 trace;
/// * otherwise: the [`split_cos_into`] arithmetic.
///
/// Every kernel here performs those operations per slot and nothing
/// else, so a fused split-and-add is bit-identical to splitting into
/// scratch traces and adding them with [`add_assign`]. Demand samples and
/// the scalars are never NaN (traces validate their samples).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CosSplit {
    /// Breakpoint `p` of formula (1): the CoS1 share of the cap.
    pub p: f64,
    /// Demand cap `D_new_max` (formulas 2–11); the translation stores
    /// `+∞` when `p = 0` and the cap cannot bind.
    pub cap: f64,
    /// Burst factor `1/U_low` converting demand into allocation.
    pub factor: f64,
}

impl CosSplit {
    /// Whether two splits have bit-identical scalars, so the same demand
    /// splits into the same bits under both.
    pub fn same_bits(&self, other: &CosSplit) -> bool {
        self.p.to_bits() == other.p.to_bits()
            && self.cap.to_bits() == other.cap.to_bits()
            && self.factor.to_bits() == other.factor.to_bits()
    }

    /// The `(cos1, cos2)` allocation of one demand sample.
    #[inline]
    pub fn classes(&self, d: f64) -> (f64, f64) {
        // Exact zero selects the translation's `p = 0` arm; it is not a
        // tolerance test.
        if self.p == 0.0 {
            cap_scale_pair(d, self.cap, self.factor)
        } else {
            divide_pair(d, self.cap, self.p * self.cap, self.factor)
        }
    }

    /// Materializes both class columns of `demand` into the buffers
    /// (resized to its length), for readers that need the explicit traces.
    /// It runs the same [`sum_classes`] pass the aggregation uses, so every
    /// reader sees the same per-slot split.
    pub fn classes_into(&self, demand: &[f64], cos1: &mut Vec<f64>, cos2: &mut Vec<f64>) {
        for out in [&mut *cos1, &mut *cos2] {
            out.clear();
            out.resize(demand.len(), 0.0);
        }
        let part = Columns::Split {
            demand,
            split: *self,
        };
        sum_classes(cos1, cos2, true, true, &[part]);
    }

    /// Appends `base(c1) + c2` per slot to a cleared `out`, where `base` is
    /// `c1` itself when `with_cos1` and `+0.0` otherwise: a one-member
    /// aggregate's total allocation, in the association the aggregate
    /// uses (the CoS1 root copied, then the CoS2 root added).
    pub fn totals_into(&self, demand: &[f64], with_cos1: bool, out: &mut Vec<f64>) {
        out.clear();
        if with_cos1 {
            out.extend(demand.iter().map(|&d| {
                let (c1, c2) = self.classes(d);
                c1 + c2
            }));
        } else {
            out.extend(demand.iter().map(|&d| 0.0 + self.classes(d).1));
        }
    }
}

/// The `p = 0` split of one sample: `(+0.0, min(d, cap) · factor)`.
#[inline(always)]
fn cap_scale_pair(d: f64, cap: f64, factor: f64) -> (f64, f64) {
    (0.0, lesser(d, cap) * factor)
}

/// The `p > 0` split of one sample, with `split_at = p · cap`.
#[inline(always)]
fn divide_pair(d: f64, cap: f64, split_at: f64, factor: f64) -> (f64, f64) {
    let capped = lesser(d, cap);
    let cos1 = lesser(capped, split_at);
    (cos1 * factor, (capped - cos1) * factor)
}

/// One contributor to a class sum: two materialized class columns, or a
/// demand column and the split that derives them.
#[derive(Debug, Clone, Copy)]
pub enum Columns<'a> {
    /// Materialized class columns (explicit traces or partial sums). The
    /// CoS1 column is ignored, and may be empty, when CoS1 is skipped.
    Slices {
        /// CoS1 allocation per slot.
        cos1: &'a [f64],
        /// CoS2 allocation per slot.
        cos2: &'a [f64],
    },
    /// A demand column split on the fly.
    Split {
        /// Demand per slot.
        demand: &'a [f64],
        /// How each demand sample divides into the two classes.
        split: CosSplit,
    },
}

impl Columns<'_> {
    /// Number of slots.
    pub fn len(&self) -> usize {
        match self {
            Columns::Slices { cos2, .. } => cos2.len(),
            Columns::Split { demand, .. } => demand.len(),
        }
    }

    /// Whether there are no slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Slot `i`'s `(cos1, cos2)`, `None` past the end: the streamed,
    /// non-hot reader.
    pub fn at(&self, i: usize) -> Option<(f64, f64)> {
        match self {
            Columns::Slices { cos1, cos2 } => Some((*cos1.get(i)?, *cos2.get(i)?)),
            Columns::Split { demand, split } => demand.get(i).map(|&d| split.classes(d)),
        }
    }

    /// Appends `cos1 + cos2` per slot to cleared `out`, or `+0.0 + cos2`
    /// when CoS1 is skipped: an aggregate's total allocation, in the
    /// association it has always used (CoS1 copied, CoS2 added).
    pub fn totals_into(self, out: &mut Vec<f64>, with_cos1: bool) {
        match self {
            Columns::Slices { cos1, cos2 } if with_cos1 => {
                out.clear();
                out.extend(cos1.iter().zip(cos2).map(|(&a, &b)| a + b));
            }
            Columns::Slices { cos2, .. } => {
                out.clear();
                out.extend(cos2.iter().map(|&b| 0.0 + b));
            }
            Columns::Split { demand, split } => split.totals_into(demand, with_cos1, out),
        }
    }
}

/// Sums `parts`, in order, into `cos1`/`cos2` slot by slot: the first
/// part written over the sums when `write` (copied), every other part
/// added. Only CoS2 is touched unless `with_cos1`; `cos1` may then be
/// empty. Split parts are split as they are summed.
///
/// Parts go two per pass, so the sums are loaded and stored once per two
/// contributors rather than once per contributor. Each slot still gets
/// `(s + a) + b`, the association of adding the parts one at a time, so
/// the result is bit-identical to materializing every part and copying
/// or [`add_assign`]ing them in order.
pub fn sum_classes(
    cos1: &mut [f64],
    cos2: &mut [f64],
    with_cos1: bool,
    write: bool,
    parts: &[Columns<'_>],
) {
    debug_assert!(
        parts.iter().all(|part| part.len() == cos2.len()),
        "kernel operands must be aligned"
    );
    for (k, pass) in parts.chunks(2).enumerate() {
        match (with_cos1, write && k == 0) {
            (true, true) => sum_pass::<true, true>(cos1, cos2, pass),
            (true, false) => sum_pass::<true, false>(cos1, cos2, pass),
            (false, true) => sum_pass::<false, true>(cos1, cos2, pass),
            (false, false) => sum_pass::<false, false>(cos1, cos2, pass),
        }
    }
}

/// One contributor's per-slot class values inside a fused pass. Each
/// kind is its own type, so every pass is a branch-free loop.
trait Slots: Copy {
    /// Each slot's `(cos1, cos2)`, in slot order.
    fn pairs(self) -> impl Iterator<Item = (f64, f64)>;
}

/// Materialized class columns.
#[derive(Clone, Copy)]
struct Both<'a>(&'a [f64], &'a [f64]);

/// A materialized CoS2 column whose CoS1 is skipped.
#[derive(Clone, Copy)]
struct Cos2Only<'a>(&'a [f64]);

/// A demand column under a `p = 0` split.
#[derive(Clone, Copy)]
struct CapScale<'a> {
    demand: &'a [f64],
    cap: f64,
    factor: f64,
}

/// A demand column under a `p > 0` split.
#[derive(Clone, Copy)]
struct Divide<'a> {
    demand: &'a [f64],
    cap: f64,
    split_at: f64,
    factor: f64,
}

impl Slots for Both<'_> {
    fn pairs(self) -> impl Iterator<Item = (f64, f64)> {
        self.0.iter().zip(self.1).map(|(&c1, &c2)| (c1, c2))
    }
}

impl Slots for Cos2Only<'_> {
    fn pairs(self) -> impl Iterator<Item = (f64, f64)> {
        self.0.iter().map(|&c2| (0.0, c2))
    }
}

impl Slots for CapScale<'_> {
    fn pairs(self) -> impl Iterator<Item = (f64, f64)> {
        let Self {
            demand,
            cap,
            factor,
        } = self;
        demand.iter().map(move |&d| cap_scale_pair(d, cap, factor))
    }
}

impl Slots for Divide<'_> {
    fn pairs(self) -> impl Iterator<Item = (f64, f64)> {
        let Self {
            demand,
            cap,
            split_at,
            factor,
        } = self;
        demand
            .iter()
            .map(move |&d| divide_pair(d, cap, split_at, factor))
    }
}

/// Binds `$s` to `$part`'s [`Slots`] type and evaluates `$body`.
macro_rules! with_slots {
    ($part:expr, $with_cos1:expr, |$s:ident| $body:expr) => {
        match $part {
            Columns::Slices { cos1, cos2 } if $with_cos1 => {
                let $s = Both(cos1, cos2);
                $body
            }
            Columns::Slices { cos2, .. } => {
                let $s = Cos2Only(cos2);
                $body
            }
            // Exact zero selects the translation's `p = 0` arm.
            Columns::Split { demand, split } if split.p == 0.0 => {
                let $s = CapScale {
                    demand,
                    cap: split.cap,
                    factor: split.factor,
                };
                $body
            }
            Columns::Split { demand, split } => {
                let $s = Divide {
                    demand,
                    cap: split.cap,
                    split_at: split.p * split.cap,
                    factor: split.factor,
                };
                $body
            }
        }
    };
}

/// One pass of [`sum_classes`] over one or two parts.
fn sum_pass<const COS1: bool, const WRITE: bool>(
    cos1: &mut [f64],
    cos2: &mut [f64],
    pass: &[Columns<'_>],
) {
    match *pass {
        [x] => with_slots!(x, COS1, |xs| add_one::<COS1, WRITE>(cos1, cos2, xs)),
        [x, y] => with_slots!(x, COS1, |xs| with_slots!(y, COS1, |ys| {
            add_two::<COS1, WRITE>(cos1, cos2, xs, ys)
        })),
        _ => {}
    }
}

/// `s = x` when `WRITE`, else `s += x`, per slot and class; CoS1 only
/// when `COS1`.
#[inline(always)]
fn add_one<const COS1: bool, const WRITE: bool>(cos1: &mut [f64], cos2: &mut [f64], x: impl Slots) {
    let put = |s: &mut f64, a: f64| *s = if WRITE { a } else { *s + a };
    if COS1 {
        debug_assert_eq!(cos1.len(), cos2.len(), "kernel operands must be aligned");
        for ((s1, s2), (a1, a2)) in cos1.iter_mut().zip(cos2.iter_mut()).zip(x.pairs()) {
            put(s1, a1);
            put(s2, a2);
        }
    } else {
        for (s2, (_, a2)) in cos2.iter_mut().zip(x.pairs()) {
            put(s2, a2);
        }
    }
}

/// `s = x + y` when `WRITE`, else `s = (s + x) + y`, per slot and class;
/// CoS1 only when `COS1`.
#[inline(always)]
fn add_two<const COS1: bool, const WRITE: bool>(
    cos1: &mut [f64],
    cos2: &mut [f64],
    x: impl Slots,
    y: impl Slots,
) {
    let put = |s: &mut f64, a: f64, b: f64| *s = if WRITE { a + b } else { (*s + a) + b };
    let parts = x.pairs().zip(y.pairs());
    if COS1 {
        debug_assert_eq!(cos1.len(), cos2.len(), "kernel operands must be aligned");
        for ((s1, s2), ((a1, a2), (b1, b2))) in cos1.iter_mut().zip(cos2.iter_mut()).zip(parts) {
            put(s1, a1, b1);
            put(s2, a2, b2);
        }
    } else {
        for (s2, ((_, a2), (_, b2))) in cos2.iter_mut().zip(parts) {
            put(s2, a2, b2);
        }
    }
}

/// Ascending sort of a sample slice into a fresh buffer (`total_cmp`
/// order), the shared primitive behind every percentile query.
///
/// This is the one deliberate O(len) copy in the statistics path: order
/// statistics need owned, mutable storage. [`Trace`](crate::Trace) caches
/// the result per window so repeated percentile queries pay it once.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut owned = values.to_vec();
    owned.sort_by(f64::total_cmp);
    owned
}

/// Lane-chunked sum with the fixed association documented at the module
/// level. Returns 0 for an empty slice.
pub fn sum(values: &[f64]) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let chunks = values.chunks_exact(LANES);
    let remainder = chunks.remainder();
    for chunk in chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane += v;
        }
    }
    let mut tail = 0.0;
    for &v in remainder {
        tail += v;
    }
    ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
}

/// Lane-chunked arithmetic mean; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    sum(values) / values.len() as f64
}

/// Lane-chunked population variance; 0 for slices shorter than 2.
pub fn variance(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let m = mean(values);
    let mut lanes = [0.0f64; LANES];
    let chunks = values.chunks_exact(LANES);
    let remainder = chunks.remainder();
    for chunk in chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane += (v - m) * (v - m);
        }
    }
    let mut tail = 0.0;
    for &v in remainder {
        tail += (v - m) * (v - m);
    }
    (((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail) / values.len() as f64
}

/// `v` when it is strictly larger than `m`, else `m`: one `maxpd`, and
/// a tie keeps the running value.
#[inline(always)]
fn larger(m: f64, v: f64) -> f64 {
    if v > m {
        v
    } else {
        m
    }
}

/// Largest of `values` and `+0.0`, taken in [`LANES`] lanes.
///
/// Equal to `values.iter().copied().fold(0.0, f64::max)` bit for bit
/// for non-NaN samples: a larger sample always wins, and an all-zero
/// slice gives `+0.0` whatever the signs of its zeros. Returns `+0.0`
/// for an empty slice.
pub fn peak(values: &[f64]) -> f64 {
    let mut lanes = [0.0f64; LANES];
    let chunks = values.chunks_exact(LANES);
    let tail = chunks.remainder().iter().fold(0.0, |m, &v| larger(m, v));
    for chunk in chunks {
        for (lane, &v) in lanes.iter_mut().zip(chunk) {
            *lane = larger(*lane, v);
        }
    }
    lanes.iter().fold(tail, |m, &lane| larger(m, lane))
}

/// Slots per block of a [`BlockMax`] index.
pub const BLOCK: usize = 32;

/// The peak of a sample slice and the [`peak`] of every [`BLOCK`]-slot
/// block, built in one pass.
///
/// Blocks are laid out chunk by chunk (`chunk_len` samples, a week for a
/// trace), so no block straddles two chunks: a chunk whose length is not
/// a multiple of [`BLOCK`] ends in a short block, as does the last
/// chunk. A scan for samples above a threshold reads only the blocks
/// whose maximum exceeds it; every other block holds no such sample.
#[derive(Debug, Clone)]
pub struct BlockMax<'a> {
    samples: &'a [f64],
    chunk_len: usize,
    peak: f64,
    maxima: Vec<f64>,
}

impl<'a> BlockMax<'a> {
    /// Indexes `samples` in `chunk_len`-sample chunks.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is 0.
    pub fn new(samples: &'a [f64], chunk_len: usize) -> Self {
        assert!(chunk_len > 0, "chunk length must be positive");
        let per_chunk = chunk_len.div_ceil(BLOCK);
        let blocks =
            samples.len() / chunk_len * per_chunk + (samples.len() % chunk_len).div_ceil(BLOCK);
        let mut maxima = Vec::with_capacity(blocks);
        for chunk in samples.chunks(chunk_len) {
            maxima.extend(chunk.chunks(BLOCK).map(peak));
        }
        let peak = maxima.iter().fold(0.0, |m, &v| larger(m, v));
        BlockMax {
            samples,
            chunk_len,
            peak,
            maxima,
        }
    }

    /// The indexed samples.
    pub fn samples(&self) -> &'a [f64] {
        self.samples
    }

    /// Samples per chunk.
    pub fn chunk_len(&self) -> usize {
        self.chunk_len
    }

    /// Largest sample, equal to [`peak`] of the whole slice.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Every block's maximum, chunk by chunk.
    pub fn maxima(&self) -> &[f64] {
        &self.maxima
    }

    /// Each chunk's samples beside its blocks' maxima, in slot order.
    pub fn chunks(&self) -> impl Iterator<Item = (&'a [f64], &[f64])> + '_ {
        self.samples
            .chunks(self.chunk_len)
            .zip(self.maxima.chunks(self.chunk_len.div_ceil(BLOCK)))
    }

    /// Each block's samples beside its maximum, in slot order.
    pub fn blocks(&self) -> impl Iterator<Item = (&'a [f64], f64)> + '_ {
        self.chunks()
            .flat_map(|(chunk, maxima)| chunk.chunks(BLOCK).zip(maxima.iter().copied()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn add_assign_matches_scalar_reference() {
        let mut acc = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let xs = [0.5, 0.25, 0.125, 0.0625, 0.03125];
        let mut reference = acc.clone();
        for (r, &x) in reference.iter_mut().zip(&xs) {
            *r += x;
        }
        add_assign(&mut acc, &xs);
        assert_eq!(acc, reference);
    }

    #[test]
    fn sub_saturating_clamps_at_zero() {
        let mut out = Vec::new();
        sub_saturating_into(&mut out, &[3.0, 1.0, 2.0], &[1.0, 2.0, 2.0]);
        assert_eq!(out, vec![2.0, 0.0, 0.0]);
    }

    #[test]
    fn cap_scale_fuses_exactly() {
        let xs = [1.0, 5.0, 3.0, 0.7];
        let mut fused = Vec::new();
        cap_scale_into(&mut fused, &xs, 3.0, 1.25);
        let reference: Vec<f64> = xs.iter().map(|&v| v.min(3.0)).map(|v| v * 1.25).collect();
        assert_eq!(fused, reference);
    }

    #[test]
    fn split_cos_conserves_capped_demand() {
        let demand = [0.0, 1.0, 2.0, 5.0, 10.0];
        let (p, cap, factor) = (0.4, 4.0, 1.5);
        let mut cos1 = Vec::new();
        let mut cos2 = Vec::new();
        split_cos_into(&demand, p, cap, factor, &mut cos1, &mut cos2);
        for ((&d, &c1), &c2) in demand.iter().zip(&cos1).zip(&cos2) {
            let capped = d.min(cap);
            assert!((c1 + c2 - capped * factor).abs() < 1e-12);
            assert!(c1 <= p * cap * factor + 1e-12);
        }
    }

    /// A demand sample: ordinary, zero of either sign, or subnormal.
    fn sample() -> impl Strategy<Value = f64> {
        (0u32..7, 0.0f64..20.0, 1u32..52).prop_map(|(kind, x, k)| match kind {
            0 => 0.0,
            1 => -0.0,
            2 => f64::MIN_POSITIVE / f64::from(k).exp2(),
            _ => x,
        })
    }

    /// A split covering `p = 0`, `p = 1`, a cap at or above every sample
    /// (including the infinite `p = 0` cap), a zero cap, and `factor = 1`.
    fn any_split() -> impl Strategy<Value = CosSplit> {
        let p = (0u32..3, 0.0f64..1.0);
        let cap = (0u32..4, 0.0f64..25.0);
        let factor = (0u32..2, 0.5f64..3.0);
        (p, cap, factor).prop_map(|((pk, p), (ck, cap), (fk, factor))| CosSplit {
            p: [0.0, 1.0, p][pk as usize],
            cap: [f64::INFINITY, 1e9, 0.0, cap][ck as usize],
            factor: [1.0, factor][fk as usize],
        })
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    /// The classes of `demand` the way translation materialized them:
    /// `split_cos_into`, or an all-`+0.0` CoS1 beside `cap_scale_into`
    /// when `p = 0`.
    fn oracle(demand: &[f64], split: &CosSplit) -> (Vec<f64>, Vec<f64>) {
        let (mut cos1, mut cos2) = (Vec::new(), Vec::new());
        if split.p == 0.0 {
            cos1 = vec![0.0; demand.len()];
            cap_scale_into(&mut cos2, demand, split.cap, split.factor);
        } else {
            split_cos_into(
                demand,
                split.p,
                split.cap,
                split.factor,
                &mut cos1,
                &mut cos2,
            );
        }
        (cos1, cos2)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every split reader equals materializing the classes the way
        /// translation did, and [`sum_classes`] over any mix of split and
        /// materialized parts equals copying then [`add_assign`]ing the
        /// materialized classes one part at a time, bit for bit.
        #[test]
        fn fused_split_kernels_match_split_then_add(
            demand in proptest::collection::vec(sample(), 1..80),
            all_zero in (0u32..10).prop_map(|k| k == 0),
            other in proptest::collection::vec(sample(), 80),
            acc in proptest::collection::vec(sample(), 80),
            split in any_split(),
            other_split in any_split(),
            kinds in proptest::collection::vec(0usize..4, 1..4),
            write in (0u32..2).prop_map(|k| k == 1),
        ) {
            let demand: Vec<f64> = if all_zero { vec![0.0; demand.len()] } else { demand };
            let n = demand.len();
            let other = &other[..n];
            let (cos1, cos2) = oracle(&demand, &split);

            let (mut m1, mut m2) = (vec![7.0], vec![7.0]);
            split.classes_into(&demand, &mut m1, &mut m2);
            prop_assert_eq!(bits(&m1), bits(&cos1));
            prop_assert_eq!(bits(&m2), bits(&cos2));
            for ((&d, &c1), &c2) in demand.iter().zip(&cos1).zip(&cos2) {
                let (a, b) = split.classes(d);
                prop_assert_eq!((a.to_bits(), b.to_bits()), (c1.to_bits(), c2.to_bits()));
            }

            // Parts 0/1 split `demand`/`other`; parts 2/3 are the same
            // classes materialized.
            let (o1, o2) = oracle(other, &other_split);
            let materialized = [(&cos1, &cos2), (&o1, &o2), (&cos1, &cos2), (&o1, &o2)];
            let part = |k: usize| match k {
                0 => Columns::Split { demand: &demand, split },
                1 => Columns::Split { demand: other, split: other_split },
                _ => Columns::Slices { cos1: materialized[k].0, cos2: materialized[k].1 },
            };
            let parts: Vec<Columns<'_>> = kinds.iter().map(|&k| part(k)).collect();
            let acc = &acc[..n];
            for with_cos1 in [true, false] {
                let (mut want1, mut want2) = (acc.to_vec(), acc.to_vec());
                for (i, &k) in kinds.iter().enumerate() {
                    let (c1, c2) = materialized[k];
                    if i == 0 && write {
                        want1.copy_from_slice(c1);
                        want2.copy_from_slice(c2);
                    } else {
                        add_assign(&mut want1, c1);
                        add_assign(&mut want2, c2);
                    }
                }
                let (mut got1, mut got2) = (acc.to_vec(), acc.to_vec());
                let got1_arg: &mut [f64] = if with_cos1 { &mut got1 } else { &mut [] };
                sum_classes(got1_arg, &mut got2, with_cos1, write, &parts);
                prop_assert_eq!(bits(&got2), bits(&want2));
                if with_cos1 {
                    prop_assert_eq!(bits(&got1), bits(&want1));
                } else {
                    prop_assert_eq!(bits(&got1), bits(acc));
                }
            }

            // Totals: the CoS1 column copied then the CoS2 column added,
            // or CoS2 added onto `+0.0` when CoS1 is skipped.
            let mut with_cos1 = cos1.clone();
            add_assign(&mut with_cos1, &cos2);
            let mut without = vec![0.0; n];
            add_assign(&mut without, &cos2);
            for columns in [part(0), part(2)] {
                let mut totals = vec![7.0];
                columns.totals_into(&mut totals, true);
                prop_assert_eq!(bits(&totals), bits(&with_cos1));
                columns.totals_into(&mut totals, false);
                prop_assert_eq!(bits(&totals), bits(&without));
            }
        }
    }

    fn fold_peak(values: &[f64]) -> f64 {
        values.iter().copied().fold(0.0, f64::max)
    }

    #[test]
    fn peak_of_signed_zeros_is_positive_zero() {
        for values in [&[-0.0; 9][..], &[0.0, -0.0, -0.0, 0.0, -0.0], &[-0.0], &[]] {
            assert_eq!(peak(values).to_bits(), 0.0f64.to_bits());
            assert_eq!(peak(values).to_bits(), fold_peak(values).to_bits());
            let index = BlockMax::new(values, 3);
            assert_eq!(index.peak().to_bits(), 0.0f64.to_bits());
        }
    }

    #[test]
    fn blocks_never_straddle_a_chunk() {
        // A 168-slot hourly week is five full blocks and an 8-slot one.
        let samples: Vec<f64> = (0..400).map(f64::from).collect();
        let index = BlockMax::new(&samples, 168);
        let lens: Vec<usize> = index.blocks().map(|(block, _)| block.len()).collect();
        let week = [32, 32, 32, 32, 32, 8];
        let tail = [32, 32];
        assert_eq!(lens, [&week[..], &week[..], &tail[..]].concat());
        // The maximum of each block is its last sample.
        let last: Vec<f64> = index
            .blocks()
            .map(|(block, _)| block[block.len() - 1])
            .collect();
        assert_eq!(index.maxima(), &last[..]);
        assert_eq!(index.maxima()[5], 167.0);
        assert_eq!(index.peak(), 399.0);
        assert_eq!(index.chunks().count(), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The lane peak and every block maximum equal the scalar fold,
        /// bit for bit, over signed zeros and subnormals, and blocks tile
        /// each chunk in order.
        #[test]
        fn lane_maxima_match_the_scalar_fold(
            values in proptest::collection::vec(sample(), 0..300),
            chunk_len in (0usize..4, 1usize..80).prop_map(|(k, n)| [n, BLOCK, 168, n][k]),
        ) {
            prop_assert_eq!(peak(&values).to_bits(), fold_peak(&values).to_bits());
            let index = BlockMax::new(&values, chunk_len);
            prop_assert_eq!(index.peak().to_bits(), fold_peak(&values).to_bits());
            let expected: Vec<u64> = values
                .chunks(chunk_len)
                .flat_map(|chunk| chunk.chunks(BLOCK).map(|block| fold_peak(block).to_bits()))
                .collect();
            prop_assert_eq!(bits(index.maxima()), expected);
            let tiled: Vec<f64> = index.blocks().flat_map(|(block, _)| block.to_vec()).collect();
            prop_assert_eq!(bits(&tiled), bits(&values));
        }
    }

    #[test]
    fn sorted_is_ascending_and_total() {
        let s = sorted(&[3.0, 1.0, 2.0, 1.0]);
        assert_eq!(s, vec![1.0, 1.0, 2.0, 3.0]);
        assert!(sorted(&[]).is_empty());
    }

    #[test]
    fn sum_matches_lane_definition() {
        // Scalar reference implementing the documented association.
        fn sum_ref(values: &[f64]) -> f64 {
            let full = values.len() - values.len() % LANES;
            let mut lanes = [0.0f64; LANES];
            for (i, &v) in values[..full].iter().enumerate() {
                lanes[i % LANES] += v;
            }
            let mut tail = 0.0;
            for &v in &values[full..] {
                tail += v;
            }
            ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + tail
        }
        let values: Vec<f64> = (0..103)
            .map(|i| (i as f64) * 0.1 + 1e10 / (i + 1) as f64)
            .collect();
        assert_eq!(sum(&values), sum_ref(&values));
        assert_eq!(sum(&[]), 0.0);
        // Close to the naive fold as well.
        let naive: f64 = values.iter().sum();
        assert!((sum(&values) - naive).abs() / naive < 1e-12);
    }

    #[test]
    fn mean_and_variance_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[5.0]), 0.0);
        assert_eq!(variance(&[2.0, 4.0]), 1.0);
    }
}
