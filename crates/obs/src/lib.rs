//! Dependency-free observability for the R-Opus workspace.
//!
//! Three facilities behind one cheap-to-clone handle ([`Obs`]):
//!
//! * **Tracing** — named spans ([`Obs::span`]) and events ([`Obs::event`])
//!   collected into per-thread buffers and merged deterministically by a
//!   stable sort on `(seq, thread-ordinal)`;
//! * **Metrics** — a registry of saturating counters, last-write gauges,
//!   and fixed-bucket histograms keyed by `&'static str` names
//!   ([`Obs::counter`], [`Obs::gauge`], [`Obs::histogram`]);
//! * **Profiling** — span durations read from a pluggable [`Clock`]:
//!   [`WallClock`] for interactive runs, [`NullClock`] for deterministic
//!   ones, where every duration is exactly `0.0` and the serialized
//!   [`ObsReport`] is byte-identical across runs and thread counts.
//!
//! The disabled handle ([`Obs::off`]) makes every call a no-op branch, so
//! instrumented library code pays near-zero cost when observability is
//! off. Two measurements watch the cost of turning it on: the
//! `obs_overhead` binary in `ropus-bench` fails when a deterministic
//! collector slows a 10,000-app SLO week replay by more than 3%, and the
//! benchmark's `chaos-storm` workload, whose traced passes carry a
//! wall-clock collector, reports their extra cost as
//! `bench.trace_overhead_s`.
//!
//! # Determinism contract
//!
//! Spans and events must be emitted from *serial* code paths only (phase
//! boundaries, per-slot loops); parallel workers may touch **counters and
//! histograms only**, whose integer updates are commutative. Under that
//! discipline — which is how every ropus crate is instrumented — the
//! `(seq, thread)` sort key is reproducible and the report serializes
//! byte-identically for any `--threads` setting.
//!
//! # Example
//!
//! ```
//! use ropus_obs::Obs;
//!
//! let obs = Obs::deterministic();
//! {
//!     let _phase = obs.span("pipeline.translate");
//!     obs.event("qos.breakpoint").with_f64("p", 0.31).emit();
//!     obs.counter("apps.translated", 1);
//! }
//! let report = obs.report();
//! assert_eq!(report.spans[0].name, "pipeline.translate");
//! assert_eq!(report.counter("apps.translated"), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::ThreadId;

pub mod clock;
pub mod names;
pub mod report;
pub mod slo;

pub use clock::{Clock, NullClock, WallClock};
pub use report::{
    CounterSnapshot, EventAttr, EventRecord, GaugeSnapshot, HistogramSnapshot, ObsReport,
    SpanRecord, SpanTreeNode,
};
pub use slo::{
    AlertEvent, AlertKind, BurnRateRule, SloAttainment, SloContract, SloEngine, SloSummary,
};

/// One buffered trace record, before thread ordinals are attached.
enum Record {
    Span {
        name: &'static str,
        seq: u64,
        wall_ms: f64,
        parent: Option<u64>,
    },
    Event {
        name: &'static str,
        seq: u64,
        attrs: Vec<EventAttr>,
    },
}

impl Record {
    fn seq(&self) -> u64 {
        match self {
            Record::Span { seq, .. } | Record::Event { seq, .. } => *seq,
        }
    }
}

/// A registered fixed-bucket histogram.
struct Hist {
    bounds: &'static [f64],
    counts: Vec<u64>,
    total: u64,
}

/// Everything behind the mutex: per-thread record buffers plus metrics.
#[derive(Default)]
struct State {
    /// Thread-ordinal assignment, in first-emission order; a record from
    /// `threads[i]` carries thread ordinal `i`.
    threads: Vec<ThreadId>,
    /// One record buffer per registered thread.
    buffers: Vec<Vec<Record>>,
    /// Seqs of the spans currently open on each thread, innermost last;
    /// the top of a thread's stack is the parent of its next span.
    open_spans: Vec<Vec<u64>>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Hist>,
}

impl State {
    /// Ordinal of the calling thread, registering it on first contact.
    // lint:allow(det-taint): the ordinal only selects a per-thread
    // buffer; report() merges by (seq, ordinal) stable sort, so the
    // emitted snapshot is identical for any thread interleaving.
    fn ordinal(&mut self, id: ThreadId) -> usize {
        match self.threads.iter().position(|t| *t == id) {
            Some(i) => i,
            None => {
                self.threads.push(id);
                self.buffers.push(Vec::new());
                self.open_spans.push(Vec::new());
                self.threads.len() - 1
            }
        }
    }
}

struct Inner {
    clock: Box<dyn Clock>,
    /// Whether timing-dependent metrics ([`Obs::timing_counter`]) are
    /// recorded. False on deterministic collectors, whose snapshots must
    /// be byte-identical across runs and thread counts.
    timing_dependent: bool,
    seq: AtomicU64,
    state: Mutex<State>,
}

impl Inner {
    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push(&self, record: Record) {
        let id = std::thread::current().id();
        let mut state = self.state();
        let ordinal = state.ordinal(id);
        // lint:allow(panic-slice-index): ordinal() pushes a fresh buffer
        // for an unseen thread id before returning its index.
        state.buffers[ordinal].push(record);
    }

    /// Registers an opening span on the calling thread's open-span stack
    /// and returns the seq of the span it nests under, if any.
    fn open_span(&self, seq: u64) -> Option<u64> {
        // lint:allow(det-taint): spans are emitted from serial code only
        // (the crate contract), so the per-thread open-span stack cannot
        // make parent links depend on thread interleaving.
        let id = std::thread::current().id();
        let mut state = self.state();
        let ordinal = state.ordinal(id);
        // lint:allow(panic-slice-index): ordinal() pushes a fresh stack
        // for an unseen thread id before returning its index.
        let stack = &mut state.open_spans[ordinal];
        let parent = stack.last().copied();
        stack.push(seq);
        parent
    }

    /// Records a closing span, removing it from the calling thread's
    /// open-span stack.
    fn close_span(&self, record: Record) {
        let id = std::thread::current().id();
        let mut state = self.state();
        let ordinal = state.ordinal(id);
        let seq = record.seq();
        // lint:allow(panic-slice-index): ordinal() pushes fresh buffers
        // for an unseen thread id before returning its index.
        let stack = &mut state.open_spans[ordinal];
        if let Some(pos) = stack.iter().rposition(|open| *open == seq) {
            stack.remove(pos);
        }
        // lint:allow(panic-slice-index): ordinal() pushes a fresh buffer
        // for an unseen thread id before returning its index.
        state.buffers[ordinal].push(record);
    }
}

/// The observability handle threaded through the pipeline.
///
/// Cheap to clone (an `Option<Arc>`); [`Obs::off`] is a no-op sink, so
/// library code can instrument unconditionally and let the caller decide
/// whether anything is recorded.
#[derive(Clone)]
pub struct Obs {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Default for Obs {
    /// The disabled handle, so `#[derive(Default)]` holders stay silent.
    fn default() -> Self {
        Obs::off()
    }
}

/// The shared disabled handle behind [`ObsCtx::none`].
static OFF: Obs = Obs { inner: None };

impl Obs {
    /// The disabled handle: every call is a cheap no-op.
    pub fn off() -> Obs {
        Obs { inner: None }
    }

    /// The current reading of this collector's [`Clock`], in milliseconds
    /// since the collector's epoch. Returns `0.0` on disabled handles and
    /// on [`NullClock`] collectors, so callers can time operations without
    /// touching the system clock directly (the `det-wall-clock` lint
    /// forbids wall-clock reads outside the obs clock facade).
    pub fn now_ms(&self) -> f64 {
        self.inner
            .as_ref()
            .map_or(0.0, |inner| inner.clock.now_ms())
    }

    /// An enabled collector on the given clock. `timing_dependent`
    /// decides whether [`Obs::timing_counter`] records anything; pass
    /// `false` whenever the snapshot must be reproducible.
    pub fn with_clock(clock: Box<dyn Clock>, timing_dependent: bool) -> Obs {
        Obs {
            inner: Some(Arc::new(Inner {
                clock,
                timing_dependent,
                seq: AtomicU64::new(0),
                state: Mutex::new(State::default()),
            })),
        }
    }

    /// An enabled collector on the [`NullClock`]: fully deterministic
    /// output (all durations `0.0`, timing-dependent metrics dropped).
    pub fn deterministic() -> Obs {
        Obs::with_clock(Box::new(NullClock), false)
    }

    /// An enabled collector on the [`WallClock`]: real phase timings and
    /// timing-dependent metrics, non-reproducible output.
    pub fn wall() -> Obs {
        Obs::with_clock(Box::new(WallClock::new()), true)
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a named span; the span closes (and records its duration)
    /// when the returned guard drops.
    ///
    /// `name` must be a string literal (enforced by the `obs-static-name`
    /// lint). Emit spans from serial code paths only — see the crate-level
    /// determinism contract.
    #[must_use = "a span records its duration when the guard drops"]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard { active: None };
        };
        let seq = inner.next_seq();
        let parent = inner.open_span(seq);
        let start = inner.clock.now_ms();
        SpanGuard {
            active: Some(ActiveSpan {
                inner: Arc::clone(inner),
                name,
                seq,
                parent,
                start,
            }),
        }
    }

    /// Starts building a named event; call [`EventBuilder::emit`] to
    /// record it.
    ///
    /// `name` must be a string literal (enforced by the `obs-static-name`
    /// lint). Emit events from serial code paths only.
    #[must_use = "an event is recorded only when `emit()` is called"]
    pub fn event(&self, name: &'static str) -> EventBuilder {
        EventBuilder {
            inner: self.inner.clone(),
            name,
            attrs: Vec::new(),
        }
    }

    /// Adds `delta` to the named counter (saturating at `u64::MAX`).
    ///
    /// Counter updates are commutative, so counters are safe to touch
    /// from parallel workers.
    pub fn counter(&self, name: &'static str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.state();
        let slot = state.counters.entry(name).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Adds `delta` to the named counter, but only on collectors that
    /// record timing-dependent values (wall-clock runs).
    ///
    /// Use this for quantities that depend on scheduling — cache hit/miss
    /// tallies under parallel scoring, retry counts under contention.
    /// Deterministic collectors drop the update entirely (the metric does
    /// not even appear in the snapshot), the counter-shaped analogue of
    /// [`NullClock`] zeroing span durations.
    pub fn timing_counter(&self, name: &'static str, delta: u64) {
        let Some(inner) = &self.inner else { return };
        if !inner.timing_dependent {
            return;
        }
        let mut state = inner.state();
        let slot = state.counters.entry(name).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    /// Sets the named gauge to `value` (last write wins).
    ///
    /// Gauges are *not* commutative: set them from serial code only.
    pub fn gauge(&self, name: &'static str, value: f64) {
        let Some(inner) = &self.inner else { return };
        inner.state().gauges.insert(name, value);
    }

    /// Records `value` into the named fixed-bucket histogram.
    ///
    /// `bounds` are inclusive upper bucket bounds, strictly increasing;
    /// the histogram gets `bounds.len() + 1` buckets, the last counting
    /// samples above the final bound. The bounds passed on the first call
    /// win; later calls only need the same slice. Histogram updates are
    /// commutative (integer bucket counts), so they are safe from
    /// parallel workers. NaN samples land in the overflow bucket.
    pub fn histogram(&self, name: &'static str, bounds: &'static [f64], value: f64) {
        let Some(inner) = &self.inner else { return };
        let mut state = inner.state();
        let hist = state.histograms.entry(name).or_insert_with(|| Hist {
            bounds,
            counts: vec![0; bounds.len() + 1],
            total: 0,
        });
        let bucket = hist
            .bounds
            .iter()
            .position(|b| value <= *b)
            .unwrap_or(hist.bounds.len());
        // lint:allow(panic-slice-index): counts holds bounds.len()+1
        // entries, and bucket is at most bounds.len() (the overflow slot).
        hist.counts[bucket] = hist.counts[bucket].saturating_add(1);
        hist.total = hist.total.saturating_add(1);
    }

    /// Snapshots everything recorded so far into a serializable report.
    ///
    /// Trace records are merged from the per-thread buffers by a stable
    /// sort on `(seq, thread-ordinal)`; metrics are sorted by name. The
    /// collector keeps recording afterwards (the snapshot does not drain).
    pub fn report(&self) -> ObsReport {
        let Some(inner) = &self.inner else {
            return ObsReport::default();
        };
        let state = inner.state();

        let mut merged: Vec<(u64, u64, &Record)> = Vec::new();
        for (thread, buffer) in state.buffers.iter().enumerate() {
            for record in buffer {
                merged.push((record.seq(), thread as u64, record));
            }
        }
        merged.sort_by_key(|(seq, thread, _)| (*seq, *thread));

        let mut spans = Vec::new();
        let mut events = Vec::new();
        for (seq, thread, record) in merged {
            match record {
                Record::Span {
                    name,
                    wall_ms,
                    parent,
                    ..
                } => spans.push(SpanRecord {
                    name: (*name).to_string(),
                    seq,
                    thread,
                    wall_ms: *wall_ms,
                    parent: *parent,
                }),
                Record::Event { name, attrs, .. } => events.push(EventRecord {
                    name: (*name).to_string(),
                    seq,
                    thread,
                    attrs: attrs.clone(),
                }),
            }
        }

        ObsReport {
            spans,
            events,
            counters: state
                .counters
                .iter()
                .map(|(name, value)| CounterSnapshot {
                    name: (*name).to_string(),
                    value: *value,
                })
                .collect(),
            gauges: state
                .gauges
                .iter()
                .map(|(name, value)| GaugeSnapshot {
                    name: (*name).to_string(),
                    value: *value,
                })
                .collect(),
            histograms: state
                .histograms
                .iter()
                .map(|(name, hist)| HistogramSnapshot {
                    name: (*name).to_string(),
                    bounds: hist.bounds.to_vec(),
                    counts: hist.counts.clone(),
                    total: hist.total,
                })
                .collect(),
        }
    }
}

/// A borrowed observability context: the single parameter unified pipeline
/// entry points take instead of `*_observed` twins.
///
/// `ObsCtx` is a `Copy` wrapper over `Option<&Obs>`. It dereferences to an
/// [`Obs`] handle — the borrowed collector when attached, a shared
/// disabled handle otherwise — so instrumented code calls
/// `ctx.span("...")` / `ctx.counter("...", 1)` exactly as it would on an
/// owned `Obs`.
///
/// Construct it with [`ObsCtx::none`] (or `ObsCtx::default()`) for silent
/// runs, or from a collector via `From`:
///
/// ```
/// use ropus_obs::{Obs, ObsCtx};
///
/// fn work(ctx: ObsCtx<'_>) {
///     ctx.counter("work.calls", 1);
/// }
///
/// work(ObsCtx::none()); // silent
/// let obs = Obs::deterministic();
/// work(ObsCtx::from(&obs)); // recorded
/// assert_eq!(obs.report().counter("work.calls"), 1);
/// ```
#[derive(Clone, Copy, Default)]
pub struct ObsCtx<'a> {
    obs: Option<&'a Obs>,
}

impl<'a> ObsCtx<'a> {
    /// The silent context: every observation is a cheap no-op.
    pub fn none() -> ObsCtx<'a> {
        ObsCtx { obs: None }
    }

    /// The underlying handle: the attached collector, or the shared
    /// disabled handle when none is attached.
    pub fn obs(&self) -> &'a Obs {
        self.obs.unwrap_or(&OFF)
    }

    /// Whether a recording collector is attached.
    pub fn is_enabled(&self) -> bool {
        self.obs.is_some_and(Obs::is_enabled)
    }
}

impl<'a> From<&'a Obs> for ObsCtx<'a> {
    fn from(obs: &'a Obs) -> ObsCtx<'a> {
        ObsCtx { obs: Some(obs) }
    }
}

impl std::ops::Deref for ObsCtx<'_> {
    type Target = Obs;

    fn deref(&self) -> &Obs {
        self.obs()
    }
}

impl std::fmt::Debug for ObsCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsCtx")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

/// The live half of an open span; dropping it records the duration.
struct ActiveSpan {
    inner: Arc<Inner>,
    name: &'static str,
    seq: u64,
    parent: Option<u64>,
    start: f64,
}

/// Guard returned by [`Obs::span`]; records the span when dropped.
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(span) = self.active.take() else {
            return;
        };
        let wall_ms = (span.inner.clock.now_ms() - span.start).max(0.0);
        span.inner.close_span(Record::Span {
            name: span.name,
            seq: span.seq,
            wall_ms,
            parent: span.parent,
        });
    }
}

/// Builder returned by [`Obs::event`]; attach attributes, then [`emit`].
///
/// [`emit`]: EventBuilder::emit
pub struct EventBuilder {
    inner: Option<Arc<Inner>>,
    name: &'static str,
    attrs: Vec<EventAttr>,
}

impl EventBuilder {
    /// Attaches a text attribute.
    pub fn with_str(mut self, key: &'static str, value: &str) -> EventBuilder {
        if self.inner.is_some() {
            self.attrs.push(EventAttr {
                key: key.to_string(),
                value: value.to_string(),
            });
        }
        self
    }

    /// Attaches an integer attribute (rendered to text).
    pub fn with_u64(self, key: &'static str, value: u64) -> EventBuilder {
        let rendered = if self.inner.is_some() {
            value.to_string()
        } else {
            String::new()
        };
        self.with_rendered(key, rendered)
    }

    /// Attaches a float attribute (rendered via shortest `Display` form,
    /// which is deterministic across platforms).
    pub fn with_f64(self, key: &'static str, value: f64) -> EventBuilder {
        let rendered = if self.inner.is_some() {
            value.to_string()
        } else {
            String::new()
        };
        self.with_rendered(key, rendered)
    }

    fn with_rendered(mut self, key: &'static str, value: String) -> EventBuilder {
        if self.inner.is_some() {
            self.attrs.push(EventAttr {
                key: key.to_string(),
                value,
            });
        }
        self
    }

    /// Records the event.
    pub fn emit(self) {
        let Some(inner) = self.inner else { return };
        let seq = inner.next_seq();
        inner.push(Record::Event {
            name: self.name,
            seq,
            attrs: self.attrs,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_handle_records_nothing() {
        let obs = Obs::off();
        assert!(!obs.is_enabled());
        {
            let _g = obs.span("ignored");
            obs.event("ignored").with_u64("k", 1).emit();
            obs.counter("ignored", 5);
            obs.gauge("ignored", 1.0);
            obs.histogram("ignored", &[1.0], 0.5);
        }
        assert!(obs.report().is_empty());
    }

    #[test]
    fn records_interleave_by_sequence() {
        let obs = Obs::deterministic();
        {
            let _outer = obs.span("outer");
            obs.event("first").emit();
            {
                let _inner = obs.span("inner");
            }
            obs.event("second").with_str("k", "v").emit();
        }
        let report = obs.report();
        // Spans take their seq at open time: outer=0, first=1, inner=2,
        // second=3.
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.spans[0].name, "outer");
        assert_eq!(report.spans[0].seq, 0);
        assert_eq!(report.spans[1].name, "inner");
        assert_eq!(report.events[0].name, "first");
        assert_eq!(report.events[1].attrs[0].key, "k");
        assert_eq!(report.events[1].attrs[0].value, "v");
        assert!(report.spans.iter().all(|s| s.wall_ms == 0.0));
    }

    #[test]
    fn nested_spans_record_their_parent_seq() {
        let obs = Obs::deterministic();
        {
            let _outer = obs.span("outer");
            {
                let _inner = obs.span("inner");
                let _leaf = obs.span("leaf");
            }
            let _sibling = obs.span("sibling");
        }
        let report = obs.report();
        let parent_of = |name: &str| {
            report
                .spans_named(name)
                .next()
                .and_then(|s| s.parent)
                .map(|p| {
                    report
                        .spans
                        .iter()
                        .find(|s| s.seq == p)
                        .unwrap()
                        .name
                        .clone()
                })
        };
        assert_eq!(parent_of("outer"), None);
        assert_eq!(parent_of("inner"), Some("outer".to_string()));
        assert_eq!(parent_of("leaf"), Some("inner".to_string()));
        assert_eq!(parent_of("sibling"), Some("outer".to_string()));
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let obs = Obs::deterministic();
        obs.counter("c", u64::MAX - 1);
        obs.counter("c", 5);
        assert_eq!(obs.report().counter("c"), u64::MAX);
    }

    #[test]
    fn histogram_buckets_by_inclusive_upper_bound() {
        const BOUNDS: [f64; 2] = [0.5, 0.9];
        let obs = Obs::deterministic();
        for v in [0.1, 0.5, 0.7, 0.95, 2.0] {
            obs.histogram("h", &BOUNDS, v);
        }
        let report = obs.report();
        let hist = report.histogram("h").unwrap();
        assert_eq!(hist.bounds, vec![0.5, 0.9]);
        assert_eq!(hist.counts, vec![2, 1, 2]);
        assert_eq!(hist.total, 5);
    }

    #[test]
    fn parallel_counter_updates_from_worker_threads_accumulate() {
        let obs = Obs::deterministic();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let obs = obs.clone();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        obs.counter("work", 1);
                        obs.histogram("load", &[0.5], 0.25);
                    }
                });
            }
        });
        let report = obs.report();
        assert_eq!(report.counter("work"), 4000);
        assert_eq!(report.histogram("load").unwrap().total, 4000);
    }

    #[test]
    fn timing_counters_are_dropped_on_deterministic_collectors() {
        let det = Obs::deterministic();
        det.timing_counter("racy", 3);
        assert!(det.report().counters.is_empty(), "not even a zero entry");

        let wall = Obs::wall();
        wall.timing_counter("racy", 3);
        assert_eq!(wall.report().counter("racy"), 3);
    }

    #[test]
    fn report_is_a_non_draining_snapshot() {
        let obs = Obs::deterministic();
        obs.counter("c", 1);
        assert_eq!(obs.report().counter("c"), 1);
        obs.counter("c", 1);
        assert_eq!(obs.report().counter("c"), 2);
    }

    #[test]
    fn obs_ctx_derefs_to_attached_or_disabled_handle() {
        let silent = ObsCtx::none();
        assert!(!silent.is_enabled());
        silent.counter("ignored", 1);
        assert!(silent.obs().report().is_empty());

        let obs = Obs::deterministic();
        let ctx = ObsCtx::from(&obs);
        assert!(ctx.is_enabled());
        ctx.counter("seen", 2);
        {
            let _g = ctx.span("phase");
        }
        assert_eq!(obs.report().counter("seen"), 2);
        assert_eq!(obs.report().spans[0].name, "phase");
    }

    #[test]
    fn obs_ctx_over_disabled_handle_reports_disabled() {
        let off = Obs::off();
        let ctx = ObsCtx::from(&off);
        assert!(!ctx.is_enabled());
    }

    #[test]
    fn now_ms_is_zero_when_off_or_deterministic() {
        assert_eq!(Obs::off().now_ms(), 0.0);
        assert_eq!(Obs::deterministic().now_ms(), 0.0);
        assert!(Obs::wall().now_ms() >= 0.0);
    }

    #[test]
    fn deterministic_reports_serialize_identically() {
        let run = || {
            let obs = Obs::deterministic();
            let _g = obs.span("phase");
            obs.event("evt").with_u64("n", 3).with_f64("x", 0.5).emit();
            obs.counter("c", 2);
            obs.gauge("g", 1.5);
            obs.histogram("h", &[1.0], 0.2);
            drop(_g);
            serde_json::to_string(&obs.report()).unwrap()
        };
        assert_eq!(run(), run());
    }
}
