//! The unified, thread-safe fit-evaluation engine.
//!
//! [`FitEngine`] is the one entry point for per-server fit evaluations: it
//! owns the workload set, the pool's server specs, the pool commitments,
//! and the binary-search tolerance, and memoizes required-capacity results
//! in a content-addressed memo: one table per *server class* (a distinct
//! [`ServerSpec`]), keyed by the *sorted content ids* of the workloads
//! assigned to a server. GA populations revisit the same server
//! compositions constantly across generations and restarts, so the memo
//! converts the dominant cost of consolidation into hash lookups. A
//! homogeneous pool is one class that every server index maps to; a mixed
//! pool ([`FitEngine::for_servers`]) maps each server to the class of its
//! spec, so identical servers share memo entries and each server is fitted
//! and scored (`Z`) by its own spec.
//!
//! An engine built by [`FitEngine::new`] or [`FitEngine::for_servers`]
//! owns a private memo. Every engine a
//! [`Consolidator`](crate::consolidate::Consolidator) builds — the normal
//! consolidation, each failure case, each chaos re-plan — shares the
//! consolidator's memo instead, so a member set fitted by one is a hit for
//! all the others (DESIGN.md §5a).
//!
//! The engine is `Sync`: each memo table is a [`Mutex`]ed map and the
//! hit/miss counters are atomics, so engines sharing a memo can run on
//! different threads with no `unsafe` and no new dependency. Within one
//! search, the genetic search's batches ([`crate::ga`]) split the work:
//! the calling thread looks member sets up in the memo, counts every
//! lookup and inserts every new fit, while the search's helper threads
//! only compute the missed fits. Each fit is a pure function of its member
//! set, so neither thread interleaving nor cache state can change a result,
//! and the batches count exactly the lookups the serial loop counts.

use std::collections::BTreeMap;
// lint:allow(det-unordered-collection): the memo tables are lookup-only —
// they are never iterated, so hash order cannot reach any result.
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use ropus_obs::ObsCtx;
use serde::{Deserialize, Serialize};

use ropus_qos::PoolCommitments;
use ropus_trace::Trace;

use crate::score::{assignment_feasible, ScoreModel, ServerOutcome};
use crate::server::ServerSpec;
use crate::simulator::{AggregateLoad, FitOptions, FitRequest};
use crate::sumtree::SlotArena;
use crate::workload::Workload;

/// Reusable per-worker scratch for the engine's hot loops: a pool of
/// slot buffers for the transient aggregates each candidate evaluation
/// builds, plus the key and bucket vectors every evaluation needs.
///
/// The GA and consolidation score thousands of candidate assignments;
/// giving each fitting thread one `FitScratch` (the genetic search makes
/// one per worker of its worker set) makes the inner loop allocation-free
/// after warm-up. Scratch state never influences results — it only
/// recycles storage — so scoring stays bit-identical across thread counts.
#[derive(Debug, Default)]
pub struct FitScratch {
    arena: SlotArena,
    key: Vec<u16>,
    ids: Vec<u32>,
    buckets: Vec<Vec<u16>>,
}

impl FitScratch {
    /// An empty scratch; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        FitScratch::default()
    }
}

/// Runtime statistics of a [`FitEngine`] (and, when attached to a search
/// outcome, of the search that drove it).
///
/// Every lookup counts once, as a hit or a miss, on the thread that drives
/// the search: a search's helper threads only compute fits, and a member
/// set missed twice in one batch counts one miss and then hits, as in the
/// serial loop. One search's counters are therefore the same at every
/// thread count. Engines sharing a memo while they run concurrently (the
/// distinct cases of
/// [`Consolidator::consolidate_cases`](crate::consolidate::Consolidator::consolidate_cases))
/// can still trade hits for misses, depending on which reaches a member set
/// first, though never their sum, `evaluations`; reports exclude this
/// struct from equality comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EngineStats {
    /// Total memoized fit lookups (cache hits + misses).
    pub evaluations: u64,
    /// Lookups answered from the cache.
    pub cache_hits: u64,
    /// Lookups that ran the trace-replay binary search.
    pub cache_misses: u64,
    /// Worker threads the engine was configured with.
    pub threads: usize,
    /// Generations run by the search that produced this snapshot
    /// (0 for a bare engine snapshot).
    pub generations: usize,
    /// Wall-clock time of the search, in milliseconds.
    pub total_wall_ms: f64,
    /// `total_wall_ms / generations` (0 when no generations ran).
    pub mean_generation_wall_ms: f64,
}

impl EngineStats {
    /// Fraction of lookups answered from the cache (0 when none ran).
    pub fn hit_rate(&self) -> f64 {
        if self.evaluations == 0 {
            return 0.0;
        }
        self.cache_hits as f64 / self.evaluations as f64
    }
}

/// Counters of a consolidator's fit memo, summed over every consolidation
/// the consolidator has run.
///
/// `entries` and `distinct_cases` are deterministic per seed: the member
/// sets a search looks up do not depend on scheduling, and racing inserts
/// of one key leave one entry. `hits` and `misses` are the searches'
/// [`EngineStats`] lookups; their split is timing-dependent when distinct
/// cases run concurrently on one memo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct MemoStats {
    /// Member sets with a memoized fit, over all server classes. The memo
    /// never evicts, so this is also its peak size.
    pub entries: u64,
    /// Lookups answered from the memo.
    pub hits: u64,
    /// Lookups that ran the trace-replay binary search.
    pub misses: u64,
    /// Distinct re-placement cases solved through
    /// [`Consolidator::consolidate_cases`](crate::consolidate::Consolidator::consolidate_cases).
    pub distinct_cases: u64,
}

impl MemoStats {
    /// The hits, misses and distinct cases recorded since `earlier`, with
    /// the current entry count (the memo only grows).
    pub fn since(&self, earlier: &MemoStats) -> MemoStats {
        MemoStats {
            entries: self.entries,
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            distinct_cases: self.distinct_cases.saturating_sub(earlier.distinct_cases),
        }
    }

    /// Records the memo counters on `obs`: the entry count as a gauge (a
    /// level, not a sum), hits and misses on the timing channel. Distinct
    /// cases are left to the caller, which names them after its own stage.
    pub fn record(&self, obs: ObsCtx<'_>) {
        obs.gauge("placement.memo.entries", self.entries as f64);
        obs.timing_counter("placement.memo.hits", self.hits);
        obs.timing_counter("placement.memo.misses", self.misses);
    }
}

/// One server class's memo table: sorted content ids → required capacity,
/// valid for one (spec, commitments, tolerance) scope.
#[derive(Debug)]
struct FitTable {
    spec: ServerSpec,
    commitments: PoolCommitments,
    tolerance: f64,
    // Boxed-slice keys, one word smaller than a Vec: the memo never
    // evicts, so every entry's size lasts the consolidator's lifetime.
    // lint:allow(det-unordered-collection): lookup-only table, never
    // iterated.
    fits: Mutex<HashMap<Box<[u32]>, Option<f64>>>,
}

impl FitTable {
    fn new(spec: ServerSpec, commitments: PoolCommitments, tolerance: f64) -> Self {
        FitTable {
            spec,
            commitments,
            tolerance,
            // lint:allow(det-unordered-collection): lookup-only table.
            fits: Mutex::new(HashMap::new()),
        }
    }
}

/// Content-id allocator: workloads with the same name and bitwise-equal
/// content share an id.
#[derive(Default)]
struct Interner {
    next: u32,
    /// Every interned workload, grouped by name, with its id.
    by_name: BTreeMap<String, Vec<(u32, Workload)>>,
}

impl Interner {
    fn fresh(&mut self) -> u32 {
        let id = self.next;
        // lint:allow(panic-expect): four billion workloads interned by one
        // consolidator is not a reachable state.
        self.next = id.checked_add(1).expect("content ids exhausted");
        id
    }

    fn id_of(&mut self, workload: &Workload) -> u32 {
        if let Some(twins) = self.by_name.get(workload.name()) {
            if let Some(&(id, _)) = twins.iter().find(|(_, w)| same_content(w, workload)) {
                return id;
            }
        }
        let id = self.fresh();
        self.by_name
            .entry(workload.name().to_owned())
            .or_default()
            .push((id, workload.clone()));
        id
    }
}

/// Whether two workloads are interchangeable inside any fit: same name
/// (member order in the sum tree follows names) and bitwise-equal class
/// samples, memory and peaks. Bitwise, not `==`, which treats
/// `-0.0 == +0.0` while the zero-CoS1 fast path does not. Two splits of
/// one shared demand window with bit-equal scalars match in O(1); any
/// other pair streams its samples without allocating.
fn same_content(a: &Workload, b: &Workload) -> bool {
    a.name() == b.name()
        && a.cos1_peak().to_bits() == b.cos1_peak().to_bits()
        && a.total_peak().to_bits() == b.total_peak().to_bits()
        && a.same_class_bits(b)
        && match (a.memory(), b.memory()) {
            (None, None) => true,
            (Some(x), Some(y)) => same_bits(x, y),
            _ => false,
        }
}

/// Bitwise trace equality. A clone shares its buffer and window (one
/// pointer-and-length compare of the sample slices); only separately
/// allocated twins compare sample by sample.
fn same_bits(a: &Trace, b: &Trace) -> bool {
    let (x, y) = (a.samples(), b.samples());
    a.calendar() == b.calendar()
        && (std::ptr::eq(x, y)
            || (x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())))
}

/// A content-addressed fit memo, shared by every [`FitEngine`] built
/// [`in_memo`](FitEngine::in_memo) it; [`FitEngine::new`] makes a private
/// one.
///
/// Each workload gets a *content id*: its name plus the bits of its CoS1,
/// CoS2 and memory traces. A member set's key is the sorted ids of its
/// members, so two engines over different fleets — or different index
/// orders of one fleet — share every fit whose member contents agree.
/// That is exact because the aggregate orders members by name: with
/// unique names it is a function of the content set alone. A fleet with a
/// repeated name gets fresh ids in index order instead, which are never
/// shared, so its fits are exactly a fresh engine's (DESIGN.md §5a).
///
/// Tables are scoped by (server spec, commitments, tolerance), so engines
/// with different search settings never read each other's results.
#[derive(Default)]
pub(crate) struct FitMemo {
    interner: Mutex<Interner>,
    tables: Mutex<Vec<Arc<FitTable>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    distinct_cases: AtomicU64,
}

/// Prints the counters only: the interner holds whole fleets' traces.
impl std::fmt::Debug for FitMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FitMemo")
            .field("stats", &self.stats())
            .finish()
    }
}

impl FitMemo {
    /// An empty memo.
    pub(crate) fn new() -> Self {
        FitMemo::default()
    }

    /// The content id of each workload of a fleet, allocating ids for
    /// contents not seen before. A fleet with a repeated name gets fresh,
    /// never-shared ids in index order.
    pub(crate) fn intern(&self, workloads: &[Workload]) -> Vec<u32> {
        // lint:allow(panic-expect): a poisoned mutex means an interning
        // thread already panicked; propagating is the only sound move.
        let mut interner = self.interner.lock().expect("fit memo poisoned");
        let mut names: Vec<&str> = workloads.iter().map(Workload::name).collect();
        names.sort_unstable();
        if names.windows(2).any(|pair| pair[0] == pair[1]) {
            return workloads.iter().map(|_| interner.fresh()).collect();
        }
        workloads.iter().map(|w| interner.id_of(w)).collect()
    }

    /// The table of one (spec, commitments, tolerance) scope, created on
    /// first use.
    fn table(
        &self,
        spec: ServerSpec,
        commitments: PoolCommitments,
        tolerance: f64,
    ) -> Arc<FitTable> {
        // lint:allow(panic-expect): see the poisoning note on `intern`.
        let mut tables = self.tables.lock().expect("fit memo poisoned");
        if let Some(table) = tables.iter().find(|t| {
            t.spec == spec
                && t.commitments == commitments
                && t.tolerance.to_bits() == tolerance.to_bits()
        }) {
            return Arc::clone(table);
        }
        let table = Arc::new(FitTable::new(spec, commitments, tolerance));
        tables.push(Arc::clone(&table));
        table
    }

    /// Counts `cases` distinct re-placement cases as solved.
    pub(crate) fn record_cases(&self, cases: usize) {
        self.distinct_cases
            .fetch_add(cases as u64, Ordering::Relaxed);
    }

    /// Adds one finished engine's lookups to the memo's hit/miss counts.
    pub(crate) fn record_lookups(&self, stats: &EngineStats) {
        self.hits.fetch_add(stats.cache_hits, Ordering::Relaxed);
        self.misses.fetch_add(stats.cache_misses, Ordering::Relaxed);
    }

    /// A snapshot of the memo's counters over all its tables.
    pub(crate) fn stats(&self) -> MemoStats {
        // lint:allow(panic-expect): see the poisoning note on `intern`.
        let tables = self.tables.lock().expect("fit memo poisoned");
        let entries: usize = tables
            .iter()
            // lint:allow(panic-expect): a poisoned mutex means a scoring
            // worker already panicked; propagating is the only sound move.
            .map(|table| table.fits.lock().expect("fit memo poisoned").len())
            .sum();
        MemoStats {
            entries: entries as u64,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            distinct_cases: self.distinct_cases.load(Ordering::Relaxed),
        }
    }
}

/// Memoizing, optionally parallel per-server fit engine shared by the GA,
/// the greedy baselines, and the consolidation reports.
///
/// Construct with [`FitEngine::new`] (a homogeneous pool) or
/// [`FitEngine::for_servers`] (an explicit, possibly mixed server list),
/// then tune with the consuming builders [`with_threads`](Self::with_threads) and
/// [`with_score_model`](Self::with_score_model).
#[derive(Debug)]
pub struct FitEngine<'a> {
    workloads: &'a [Workload],
    /// Content id of each workload, in the memo the tables belong to.
    ids: Vec<u32>,
    /// One memo table per server class (distinct spec). A homogeneous
    /// engine has one class.
    classes: Vec<Arc<FitTable>>,
    /// Class of each server of an explicit pool list. Empty for a
    /// homogeneous engine, whose every server index maps to class 0.
    server_class: Vec<usize>,
    commitments: PoolCommitments,
    tolerance: f64,
    score_model: ScoreModel,
    threads: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<'a> FitEngine<'a> {
    /// Creates an engine over a fixed workload set and a homogeneous pool
    /// of `server`s, of any size, with a private memo.
    ///
    /// Defaults: serial evaluation (one thread), the paper's
    /// `f(U) = U^(2Z)` score model.
    ///
    /// # Panics
    ///
    /// Panics if more than `u16::MAX` workloads are supplied or the
    /// tolerance is not positive.
    pub fn new(
        workloads: &'a [Workload],
        server: ServerSpec,
        commitments: PoolCommitments,
        tolerance: f64,
    ) -> Self {
        Self::in_memo(&FitMemo::new(), workloads, server, commitments, tolerance)
    }

    /// [`FitEngine::new`] on a shared memo: fits are keyed by the
    /// workloads' content ids in `memo`, so every engine built in the same
    /// memo with the same server, commitments and tolerance reuses the
    /// others' results.
    ///
    /// # Panics
    ///
    /// As for [`FitEngine::new`].
    pub(crate) fn in_memo(
        memo: &FitMemo,
        workloads: &'a [Workload],
        server: ServerSpec,
        commitments: PoolCommitments,
        tolerance: f64,
    ) -> Self {
        Self::with_classes(
            memo,
            workloads,
            vec![server],
            Vec::new(),
            commitments,
            tolerance,
        )
    }

    /// Creates an engine over an explicit pool, with a private memo:
    /// server `i` has spec `servers[i]`. Identical specs form one class and
    /// share memo entries, so a uniform list behaves exactly like
    /// [`FitEngine::new`].
    ///
    /// # Panics
    ///
    /// Panics if `servers` is empty, more than `u16::MAX` workloads are
    /// supplied, or the tolerance is not positive.
    pub fn for_servers(
        workloads: &'a [Workload],
        servers: &[ServerSpec],
        commitments: PoolCommitments,
        tolerance: f64,
    ) -> Self {
        assert!(!servers.is_empty(), "pool has no servers");
        let mut classes: Vec<ServerSpec> = Vec::new();
        let server_class = servers
            .iter()
            .map(|&spec| match classes.iter().position(|&c| c == spec) {
                Some(class) => class,
                None => {
                    classes.push(spec);
                    classes.len() - 1
                }
            })
            .collect();
        Self::with_classes(
            &FitMemo::new(),
            workloads,
            classes,
            server_class,
            commitments,
            tolerance,
        )
    }

    /// Builds the engine on `memo`'s tables, which outlive `memo` itself:
    /// a fresh memo gives index-order ids that no other engine shares.
    fn with_classes(
        memo: &FitMemo,
        workloads: &'a [Workload],
        classes: Vec<ServerSpec>,
        server_class: Vec<usize>,
        commitments: PoolCommitments,
        tolerance: f64,
    ) -> Self {
        assert!(workloads.len() <= u16::MAX as usize, "too many workloads");
        assert!(tolerance > 0.0, "tolerance must be positive");
        FitEngine {
            workloads,
            ids: memo.intern(workloads),
            classes: classes
                .into_iter()
                .map(|spec| memo.table(spec, commitments, tolerance))
                .collect(),
            server_class,
            commitments,
            tolerance,
            score_model: ScoreModel::PowerTwoZ,
            threads: 1,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Replaces the utilization-value model (default: the paper's
    /// `f(U) = U^(2Z)`); used by the score-function ablation.
    pub fn with_score_model(mut self, model: ScoreModel) -> Self {
        self.score_model = model;
        self
    }

    /// Sets the thread count of the genetic search driven on this engine:
    /// its population scoring and drain-mutation fits fan out over one
    /// worker set of that many threads, the caller included. Values below
    /// 1 are clamped to 1 (serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The utilization-value model in force.
    pub fn score_model(&self) -> ScoreModel {
        self.score_model
    }

    /// The workloads under evaluation.
    pub fn workloads(&self) -> &'a [Workload] {
        self.workloads
    }

    /// The spec of server `server`: its class's spec, so every index of a
    /// homogeneous engine answers with the one server type.
    ///
    /// # Panics
    ///
    /// Panics if `server` is outside an explicit pool list.
    pub fn server(&self, server: usize) -> ServerSpec {
        self.class(server).spec
    }

    /// The memo table of server `server`'s class.
    fn class(&self, server: usize) -> &FitTable {
        let class = if self.server_class.is_empty() {
            0
        } else {
            // lint:allow(panic-slice-index): an index outside the pool
            // list is a caller bug, not a recoverable state.
            self.server_class[server]
        };
        // lint:allow(panic-slice-index): class ids are built together with
        // `classes` at construction and always index it.
        &self.classes[class]
    }

    /// The pool commitments.
    pub fn commitments(&self) -> PoolCommitments {
        self.commitments
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of *uncached* fit evaluations performed so far.
    pub fn evaluations(&self) -> usize {
        self.misses.load(Ordering::Relaxed) as usize
    }

    /// A snapshot of the engine's counters. Search-level fields
    /// (`generations`, wall times) are zero; the search that drives the
    /// engine fills them in its outcome.
    pub fn stats(&self) -> EngineStats {
        let hits = self.hits.load(Ordering::Relaxed);
        let misses = self.misses.load(Ordering::Relaxed);
        EngineStats {
            evaluations: hits.saturating_add(misses),
            cache_hits: hits,
            cache_misses: misses,
            threads: self.threads,
            generations: 0,
            total_wall_ms: 0.0,
            mean_generation_wall_ms: 0.0,
        }
    }

    /// Required capacity for a set of workload indices on server `server`,
    /// or `None` when they do not fit at that server's limit. Results are
    /// memoized by (server class, sorted member content ids) — sound
    /// because the workloads' sample buffers are immutable after
    /// construction (DESIGN.md §5c), so a content id identifies its traces
    /// for the memo's lifetime.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn server_required(&self, server: usize, members: &[u16]) -> Option<f64> {
        self.server_required_scratch(server, members, &mut FitScratch::new())
    }

    /// [`server_required`](Self::server_required) with caller-provided
    /// scratch: the memo key is built in the scratch, so a hit allocates
    /// nothing, and misses build their transient aggregate from the
    /// scratch arena's pooled buffers and recycle it afterwards, so a loop
    /// holding one scratch evaluates allocation-free after warm-up.
    pub fn server_required_scratch(
        &self,
        server: usize,
        members: &[u16],
        scratch: &mut FitScratch,
    ) -> Option<f64> {
        let table = self.class(server);
        self.key_into(members, &mut scratch.ids);
        if let Some(hit) = lookup(table, &scratch.ids) {
            saturating_inc(&self.hits);
            return hit;
        }
        saturating_inc(&self.misses);
        let result = self.compute(server, members, scratch);
        insert(table, scratch.ids.as_slice().into(), result);
        result
    }

    /// The sorted content ids of `members`: their memo key.
    fn key_into(&self, members: &[u16], ids: &mut Vec<u32>) {
        ids.clear();
        for &i in members {
            // lint:allow(panic-slice-index): out-of-range member indices
            // are a caller bug, not a recoverable state.
            ids.push(self.ids[i as usize]);
        }
        ids.sort_unstable();
    }

    /// The fit of `members` on server `server`, computed without reading
    /// or writing the memo — the step a search's helper threads run.
    pub(crate) fn compute(
        &self,
        server: usize,
        members: &[u16],
        scratch: &mut FitScratch,
    ) -> Option<f64> {
        let spec = self.class(server).spec;
        // The aggregate takes members in index order: with unique names
        // the order cannot matter, and a fleet with a repeated name has
        // its ids in index order, so the key and the aggregate agree.
        scratch.key.clear();
        scratch.key.extend_from_slice(members);
        scratch.key.sort_unstable();
        let refs: Vec<&Workload> = scratch
            .key
            .iter()
            // lint:allow(panic-slice-index): indices were checked against
            // the id map when the memo key was built.
            .map(|&i| &self.workloads[i as usize])
            .collect();
        let load = AggregateLoad::of_pooled(&refs, &mut scratch.arena)
            // lint:allow(panic-expect): member traces were validated
            // aligned at engine construction.
            .expect("members validated at engine construction");
        let result = FitRequest::new(&load, &self.commitments)
            .with_options(
                FitOptions::new()
                    .with_memory_capacity(spec.memory_gb())
                    .with_tolerance(self.tolerance),
            )
            .required_capacity(spec.capacity());
        load.recycle(&mut scratch.arena);
        result
    }

    /// Per-server outcomes of an assignment over `servers` servers, each
    /// fitted against its own spec's capacity and memory.
    ///
    /// # Panics
    ///
    /// Panics if an assignment entry is `>= servers` or the assignment
    /// length differs from the workload count.
    pub fn outcomes(&self, assignment: &[usize], servers: usize) -> Vec<ServerOutcome> {
        self.outcomes_scratch(assignment, servers, &mut FitScratch::new())
    }

    /// [`outcomes`](Self::outcomes) with caller-provided scratch; the
    /// membership buckets and transient aggregates reuse its buffers.
    pub fn outcomes_scratch(
        &self,
        assignment: &[usize],
        servers: usize,
        scratch: &mut FitScratch,
    ) -> Vec<ServerOutcome> {
        let members = self.bucket(assignment, servers, scratch);
        let outcomes = members
            .iter()
            .take(servers)
            .enumerate()
            .map(|(srv, set)| {
                if set.is_empty() {
                    return ServerOutcome::Unused;
                }
                let required = self.server_required_scratch(srv, set, scratch);
                self.outcome(srv, set.len(), required)
            })
            .collect();
        scratch.buckets = members;
        outcomes
    }

    /// The members of each of the first `servers` servers under
    /// `assignment`, in the scratch's recycled bucket vectors; hand them
    /// back through `scratch.buckets` when done.
    fn bucket(
        &self,
        assignment: &[usize],
        servers: usize,
        scratch: &mut FitScratch,
    ) -> Vec<Vec<u16>> {
        assert_eq!(
            assignment.len(),
            self.workloads.len(),
            "assignment length mismatch"
        );
        let mut members = std::mem::take(&mut scratch.buckets);
        members.iter_mut().for_each(Vec::clear);
        if members.len() < servers {
            members.resize_with(servers, Vec::new);
        }
        for (app, &srv) in assignment.iter().enumerate() {
            assert!(
                srv < servers,
                "assignment targets server {srv} outside the pool"
            );
            // lint:allow(panic-slice-index): `srv < servers` asserted
            // directly above, and `members` has at least `servers` slots.
            members[srv].push(app as u16);
        }
        members
    }

    /// The outcome of a used server with `workloads` members and the given
    /// required capacity.
    fn outcome(&self, server: usize, workloads: usize, required: Option<f64>) -> ServerOutcome {
        match required {
            Some(required) => ServerOutcome::Fits {
                required,
                utilization: required / self.server(server).capacity(),
            },
            None => ServerOutcome::Overbooked { workloads },
        }
    }

    /// [`outcomes_scratch`](Self::outcomes_scratch) for a batch of
    /// assignments whose memo misses are fitted by `fit` — a search's
    /// batch on its worker set.
    ///
    /// The calling thread looks every used server's member set up in
    /// assignment and server order and counts each lookup once: a set
    /// first missed in this batch counts one miss and becomes one job,
    /// and every later lookup of it counts a hit, exactly as the serial
    /// loop counts. `fit` returns the jobs' fits in job order; the calling
    /// thread alone inserts them into the memo and assembles each
    /// assignment's outcomes in server order. Results and counters are
    /// therefore those of [`outcomes_scratch`](Self::outcomes_scratch)
    /// called on each assignment in turn, whoever computed the fits.
    pub(crate) fn outcomes_batched<A: AsRef<[usize]>>(
        &self,
        assignments: &[A],
        servers: usize,
        scratch: &mut FitScratch,
        fit: impl FnOnce(Vec<FitJob>) -> Vec<Option<f64>>,
    ) -> Vec<Vec<ServerOutcome>> {
        /// One server of one assignment: unused, answered by the memo, or
        /// waiting on a job of this batch (with its member count).
        enum Slot {
            Unused,
            Known(Option<f64>, usize),
            Pending(usize, usize),
        }
        // Per job: its server's memo table and its key.
        let mut keys: Vec<(&FitTable, Box<[u32]>)> = Vec::new();
        let mut jobs: Vec<FitJob> = Vec::new();
        let mut rows: Vec<Vec<Slot>> = Vec::with_capacity(assignments.len());
        for assignment in assignments {
            let members = self.bucket(assignment.as_ref(), servers, scratch);
            let row = members
                .iter()
                .take(servers)
                .enumerate()
                .map(|(srv, set)| {
                    if set.is_empty() {
                        return Slot::Unused;
                    }
                    let table = self.class(srv);
                    self.key_into(set, &mut scratch.ids);
                    if let Some(hit) = lookup(table, &scratch.ids) {
                        saturating_inc(&self.hits);
                        return Slot::Known(hit, set.len());
                    }
                    let pending = keys
                        .iter()
                        .position(|(t, key)| std::ptr::eq(*t, table) && **key == *scratch.ids);
                    if let Some(job) = pending {
                        saturating_inc(&self.hits);
                        return Slot::Pending(job, set.len());
                    }
                    saturating_inc(&self.misses);
                    keys.push((table, scratch.ids.as_slice().into()));
                    jobs.push(FitJob {
                        server: srv,
                        members: set.clone(),
                    });
                    Slot::Pending(jobs.len() - 1, set.len())
                })
                .collect();
            scratch.buckets = members;
            rows.push(row);
        }
        let fits = fit(jobs);
        for ((table, key), &result) in keys.into_iter().zip(&fits) {
            insert(table, key, result);
        }
        rows.into_iter()
            .map(|row| {
                row.into_iter()
                    .enumerate()
                    .map(|(srv, slot)| match slot {
                        Slot::Unused => ServerOutcome::Unused,
                        Slot::Known(required, workloads) => self.outcome(srv, workloads, required),
                        Slot::Pending(job, workloads) => {
                            // lint:allow(panic-slice-index): `fit` returns
                            // one fit per job, and `job` indexes the jobs.
                            self.outcome(srv, workloads, fits[job])
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Score and feasibility of an assignment; each used server scores
    /// `f(U)` with its own spec's `Z`, summed in server order.
    pub fn evaluate(&self, assignment: &[usize], servers: usize) -> (f64, bool) {
        self.evaluate_scratch(assignment, servers, &mut FitScratch::new())
    }

    /// [`evaluate`](Self::evaluate) with caller-provided scratch.
    pub fn evaluate_scratch(
        &self,
        assignment: &[usize],
        servers: usize,
        scratch: &mut FitScratch,
    ) -> (f64, bool) {
        self.score(&self.outcomes_scratch(assignment, servers, scratch))
    }

    /// Score and feasibility of per-server outcomes in server order, as
    /// [`evaluate`](Self::evaluate) sums them.
    pub(crate) fn score(&self, outcomes: &[ServerOutcome]) -> (f64, bool) {
        let score = outcomes
            .iter()
            .enumerate()
            .map(|(srv, o)| o.value_with(self.score_model, self.server(srv).cpus()))
            .sum();
        (score, assignment_feasible(outcomes))
    }
}

/// One uncached fit of a search's batch: a server and its members.
#[derive(Debug)]
pub(crate) struct FitJob {
    pub(crate) server: usize,
    pub(crate) members: Vec<u16>,
}

/// The memoized fit of a key in `table`, if any.
fn lookup(table: &FitTable, ids: &[u32]) -> Option<Option<f64>> {
    table
        .fits
        .lock()
        // lint:allow(panic-expect): a poisoned mutex means a fitting thread
        // already panicked; propagating is the only sound move.
        .expect("fit memo poisoned")
        .get(ids)
        .copied()
}

/// Memoizes a fit in `table`.
fn insert(table: &FitTable, key: Box<[u32]>, fit: Option<f64>) {
    table
        .fits
        .lock()
        // lint:allow(panic-expect): see `lookup`.
        .expect("fit memo poisoned")
        .insert(key, fit);
}

/// Increments an atomic counter, pinning it at `u64::MAX` instead of
/// wrapping: week-scale replays with the metrics registry always on can
/// push the hit/miss counters far enough that wrap-around would corrupt
/// every downstream rate.
fn saturating_inc(counter: &AtomicU64) {
    // lint:allow(robust-result-discard): Err here only reports that the
    // closure declined the update, i.e. the counter is already pinned at
    // u64::MAX — exactly the saturation this helper exists to provide.
    let _ = counter.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| v.checked_add(1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropus_qos::CosSpec;
    use ropus_trace::{Calendar, Trace};

    fn cal() -> Calendar {
        Calendar::five_minute()
    }

    fn commitments(theta: f64) -> PoolCommitments {
        PoolCommitments::new(CosSpec::new(theta, 60).unwrap())
    }

    fn constant_fleet(sizes: &[f64]) -> Vec<Workload> {
        sizes
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                Workload::new(
                    format!("w{i}"),
                    Trace::constant(cal(), 0.0, cal().slots_per_week()).unwrap(),
                    Trace::constant(cal(), s, cal().slots_per_week()).unwrap(),
                )
                .unwrap()
            })
            .collect()
    }

    /// A workload with a daily ramp in each class, scaled per class.
    fn ramp(name: &str, cos1: f64, cos2: f64) -> Workload {
        let per_day = cal().slots_per_day();
        let samples = |scale: f64| -> Vec<f64> {
            (0..cal().slots_per_week())
                .map(|i| scale * (1.0 + (i % per_day) as f64 / per_day as f64))
                .collect()
        };
        Workload::new(
            name,
            Trace::from_samples(cal(), samples(cos1)).unwrap(),
            Trace::from_samples(cal(), samples(cos2)).unwrap(),
        )
        .unwrap()
    }

    /// Direct, unmemoized fit of `members` (index order) on a 16-way.
    fn oracle(fleet: &[Workload], members: &[u16], commitments: &PoolCommitments) -> Option<f64> {
        let refs: Vec<&Workload> = members.iter().map(|&i| &fleet[i as usize]).collect();
        let load = AggregateLoad::of(&refs).unwrap();
        let spec = ServerSpec::sixteen_way();
        FitRequest::new(&load, commitments)
            .with_options(
                FitOptions::new()
                    .with_memory_capacity(spec.memory_gb())
                    .with_tolerance(0.05),
            )
            .required_capacity(spec.capacity())
    }

    #[test]
    fn interning_tells_signed_zeros_apart() {
        let n = cal().slots_per_week();
        let cos2 = Trace::constant(cal(), 2.0, n).unwrap();
        let positive =
            Workload::new("w", Trace::constant(cal(), 0.0, n).unwrap(), cos2.clone()).unwrap();
        let negative = Workload::new(
            "w",
            Trace::from_samples(cal(), vec![-0.0; n]).unwrap(),
            cos2,
        )
        .unwrap();
        // `Trace::eq` cannot tell the zeros apart; the zero-CoS1 fast
        // path can, so the two must not share fits.
        assert_eq!(positive, negative);
        assert!(positive.cos1_is_zero() && !negative.cos1_is_zero());
        let memo = FitMemo::new();
        assert_ne!(memo.intern(&[positive]), memo.intern(&[negative]));
    }

    #[test]
    fn separately_allocated_twins_share_one_id() {
        let a = ramp("a", 1.0, 2.0);
        let twin = ramp("a", 1.0, 2.0);
        assert!(!a.cos1().shares_buffer(&twin.cos1()));
        let memo = FitMemo::new();
        let ids = memo.intern(&[a.clone(), ramp("b", 1.0, 2.0)]);
        assert_ne!(ids[0], ids[1], "the name is part of the content id");
        assert_eq!(memo.intern(&[twin]), [ids[0]], "bitwise twin");
        assert_eq!(memo.intern(&[a]), [ids[0]], "clone");
        assert_ne!(memo.intern(&[ramp("a", 1.0, 2.5)]), [ids[0]]);
        // Two engines over the twins answer each other's member sets.
        let commitments = commitments(0.9);
        let first = [ramp("a", 1.0, 2.0), ramp("b", 0.5, 3.0)];
        let second = [ramp("b", 0.5, 3.0), ramp("a", 1.0, 2.0)];
        let warm = FitEngine::in_memo(&memo, &first, ServerSpec::sixteen_way(), commitments, 0.05);
        let reuse =
            FitEngine::in_memo(&memo, &second, ServerSpec::sixteen_way(), commitments, 0.05);
        let cold = warm.server_required(0, &[0, 1]);
        assert_eq!(
            reuse.server_required(0, &[1, 0]).map(f64::to_bits),
            cold.map(f64::to_bits)
        );
        assert_eq!(reuse.stats().cache_hits, 1);
        assert_eq!(reuse.stats().cache_misses, 0);
        assert_eq!(
            cold.map(f64::to_bits),
            oracle(&first, &[0, 1], &commitments).map(f64::to_bits)
        );
    }

    #[test]
    fn repeated_names_get_fresh_ids_and_reproduce_a_private_engine() {
        let fleet = [
            ramp("a", 0.3, 1.1),
            ramp("b", 0.2, 2.3),
            ramp("a", 0.1, 1.7),
            ramp("a", 0.4, 0.9),
        ];
        let reversed: Vec<Workload> = fleet.iter().rev().cloned().collect();
        let memo = FitMemo::new();
        let first = memo.intern(&fleet);
        let second = memo.intern(&fleet);
        assert!(first.windows(2).all(|w| w[0] < w[1]), "index order");
        assert!(first.iter().all(|id| !second.contains(id)), "never shared");

        let commitments = commitments(0.9);
        let subsets: Vec<Vec<u16>> = (1u16..16)
            .map(|mask| (0..4).filter(|i| mask & (1 << i) != 0).collect())
            .collect();
        // Warm the memo with the same contents in another index order.
        let warm = FitEngine::in_memo(
            &memo,
            &reversed,
            ServerSpec::sixteen_way(),
            commitments,
            0.05,
        );
        for set in &subsets {
            let _ = warm.server_required(0, set);
        }
        let shared =
            FitEngine::in_memo(&memo, &fleet, ServerSpec::sixteen_way(), commitments, 0.05);
        let private = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments, 0.05);
        for set in &subsets {
            let got = shared.server_required(0, set).map(f64::to_bits);
            assert_eq!(got, private.server_required(0, set).map(f64::to_bits));
            assert_eq!(got, oracle(&fleet, set, &commitments).map(f64::to_bits));
        }
        assert_eq!(
            shared.stats().cache_hits,
            0,
            "no fit crosses fleets with a repeated name"
        );
    }

    #[test]
    fn engine_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<FitEngine<'_>>();
    }

    #[test]
    fn caches_by_member_set_and_counts_hits() {
        let fleet = constant_fleet(&[2.0, 3.0]);
        let engine = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(1.0), 0.05);
        let r1 = engine.server_required(0, &[0, 1]).unwrap();
        let r2 = engine.server_required(0, &[1, 0]).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(engine.evaluations(), 1, "order-insensitive cache");
        let stats = engine.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.evaluations, 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn equivalence_classes_share_cache_entries() {
        let fleet = constant_fleet(&[2.0, 2.0]);
        let pool = [
            ServerSpec::sixteen_way(),
            ServerSpec::new(4, 1.0),
            ServerSpec::new(4, 1.0),
        ];
        let engine = FitEngine::for_servers(&fleet, &pool, commitments(1.0), 0.05);
        // Same member set on the two identical 4-ways: one evaluation.
        assert!(engine.server_required(1, &[0]).is_some());
        assert!(engine.server_required(2, &[0]).is_some());
        assert_eq!(engine.evaluations(), 1);
        // The 16-way is a different class.
        assert!(engine.server_required(0, &[0]).is_some());
        assert_eq!(engine.evaluations(), 2);
        // A homogeneous engine maps every server index to its one class.
        let homogeneous = FitEngine::new(&fleet, ServerSpec::new(4, 1.0), commitments(1.0), 0.05);
        assert_eq!(
            homogeneous.server_required(999, &[0]),
            engine.server_required(1, &[0])
        );
    }

    #[test]
    fn counters_saturate_at_max_instead_of_wrapping() {
        let fleet = constant_fleet(&[2.0]);
        let engine = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(1.0), 0.05);
        engine.hits.store(u64::MAX, Ordering::Relaxed);
        engine.misses.store(u64::MAX - 1, Ordering::Relaxed);
        // A miss (fresh key) then a hit (same key) land on counters that
        // are at or near the ceiling.
        let _ = engine.server_required(0, &[0]);
        let _ = engine.server_required(0, &[0]);
        let stats = engine.stats();
        assert_eq!(stats.cache_misses, u64::MAX, "miss counter pinned");
        assert_eq!(stats.cache_hits, u64::MAX, "hit counter pinned, not 0");
        assert_eq!(stats.evaluations, u64::MAX, "sum saturates too");
        assert!((stats.hit_rate() - 1.0).abs() < 1e-12, "MAX/MAX, not 0/MAX");
    }

    #[test]
    fn scratch_paths_match_fresh_paths_bitwise() {
        let fleet = constant_fleet(&[2.0, 3.0, 4.0, 5.0]);
        let engine = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(1.0), 0.05);
        let fresh = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(1.0), 0.05);
        let mut scratch = FitScratch::new();
        for set in [&[0u16][..], &[0, 1], &[1, 2, 3], &[0, 1, 2, 3]] {
            assert_eq!(
                engine.server_required_scratch(0, set, &mut scratch),
                fresh.server_required(0, set)
            );
        }
        // Whole-assignment evaluation through the same reused scratch.
        let a = vec![0usize, 0, 1, 1];
        assert_eq!(
            engine.evaluate_scratch(&a, 2, &mut scratch),
            fresh.evaluate(&a, 2)
        );
        // A smaller follow-up call reuses the larger bucket list.
        let b = vec![0usize, 0, 0, 0];
        assert_eq!(
            engine.evaluate_scratch(&b, 1, &mut scratch),
            fresh.evaluate(&b, 1)
        );
    }
}
