//! The unified, thread-safe fit-evaluation engine.
//!
//! [`FitEngine`] is the one entry point for per-server fit evaluations: it
//! owns the workload set, the pool's server specs, the pool commitments,
//! and the binary-search tolerance, and memoizes required-capacity results
//! behind one cache per *server class* (a distinct [`ServerSpec`]), keyed
//! by the *sorted set of workload indices* assigned to a server. GA
//! populations revisit the same server compositions constantly across
//! generations and restarts, so the cache converts the dominant cost of
//! consolidation into hash lookups. A homogeneous pool is one class that
//! every server index maps to; a mixed pool ([`FitEngine::for_servers`])
//! maps each server to the class of its spec, so identical servers share
//! cache entries and each server is fitted and scored (`Z`) by its own spec.
//!
//! The engine is `Sync`: each class cache is a [`Mutex`]ed map and the
//! hit/miss counters are atomics, so whole populations can be scored concurrently
//! on a scoped worker pool ([`FitEngine::score_assignments`]) with no
//! `unsafe` and no new dependency. Parallel scoring is *bit-identical* to
//! the serial path: each evaluation is a pure function of the member set,
//! so neither thread interleaving nor cache state can change a result —
//! only the [`EngineStats`] counters are timing-dependent.

// lint:allow(det-unordered-collection): the memo cache is lookup-only —
// it is never iterated, so hash order cannot reach any result.
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

use ropus_qos::PoolCommitments;

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
/// handing each scoring worker one `FitScratch` (see
/// [`parallel_map_init`]) makes the inner loop allocation-free after
/// warm-up. Scratch state never influences results — it only recycles
/// storage — so scoring stays bit-identical across thread counts.
#[derive(Debug, Default)]
pub struct FitScratch {
    arena: SlotArena,
    key: Vec<u16>,
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
/// The counters are timing-dependent under parallel scoring — two workers
/// racing on the same uncached member set each count a miss — so reports
/// deliberately exclude this struct from equality comparisons.
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

// lint:allow(det-unordered-collection): lookup-only cache, never iterated.
/// One server class's memo: sorted member set → required capacity.
type FitCache = Mutex<HashMap<Vec<u16>, Option<f64>>>;

/// Memoizing, optionally parallel per-server fit engine shared by the GA,
/// the greedy baselines, and the consolidation reports.
///
/// Construct with [`FitEngine::new`] (a homogeneous pool) or
/// [`FitEngine::for_servers`] (an explicit, possibly mixed server list),
/// then tune with the consuming builders
/// [`with_threads`](Self::with_threads) and
/// [`with_score_model`](Self::with_score_model).
#[derive(Debug)]
pub struct FitEngine<'a> {
    workloads: &'a [Workload],
    /// One entry per server class (distinct spec): the spec and its memo
    /// cache. A homogeneous engine has one class.
    classes: Vec<(ServerSpec, FitCache)>,
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
    /// of `server`s, of any size.
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
        Self::with_classes(workloads, vec![server], Vec::new(), commitments, tolerance)
    }

    /// Creates an engine over an explicit pool: server `i` has spec
    /// `servers[i]`. Identical specs form one class and share cache
    /// entries, so a uniform list behaves exactly like [`FitEngine::new`].
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
        Self::with_classes(workloads, classes, server_class, commitments, tolerance)
    }

    fn with_classes(
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
            classes: classes
                .into_iter()
                // lint:allow(det-unordered-collection): lookup-only caches,
                // never iterated.
                .map(|spec| (spec, Mutex::new(HashMap::new())))
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

    /// Sets the worker-thread count for population scoring and batched
    /// binary searches; values below 1 are clamped to 1 (serial).
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
        self.class(server).0
    }

    /// The class (spec and memo cache) of server `server`.
    fn class(&self, server: usize) -> &(ServerSpec, FitCache) {
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
    /// memoized by (server class, sorted member set) — sound because the
    /// workloads' sample buffers are immutable after construction
    /// (DESIGN.md §5c), so a member set identifies its traces for the
    /// engine's lifetime.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn server_required(&self, server: usize, members: &[u16]) -> Option<f64> {
        self.server_required_scratch(server, members, &mut FitScratch::new())
    }

    /// [`server_required`](Self::server_required) with caller-provided
    /// scratch: cache misses build their transient aggregate from the
    /// scratch arena's pooled buffers and recycle it afterwards, so a
    /// loop holding one scratch evaluates allocation-free after warm-up.
    pub fn server_required_scratch(
        &self,
        server: usize,
        members: &[u16],
        scratch: &mut FitScratch,
    ) -> Option<f64> {
        let (spec, cache) = self.class(server);
        scratch.key.clear();
        scratch.key.extend_from_slice(members);
        scratch.key.sort_unstable();
        if let Some(hit) = cache
            .lock()
            // lint:allow(panic-expect): a poisoned mutex means a scoring
            // worker already panicked; propagating is the only sound move.
            .expect("fit cache poisoned")
            .get(&scratch.key)
        {
            saturating_inc(&self.hits);
            return *hit;
        }
        saturating_inc(&self.misses);
        let refs: Vec<&Workload> = scratch
            .key
            .iter()
            // lint:allow(panic-slice-index): out-of-range member indices
            // are a caller bug, not a recoverable state.
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
        cache
            .lock()
            // lint:allow(panic-expect): see the lock note above.
            .expect("fit cache poisoned")
            .insert(scratch.key.clone(), result);
        result
    }

    /// Required capacities for many member sets on server `server`,
    /// evaluated on the worker pool when the engine has more than one
    /// thread. Results are in input order regardless of scheduling.
    pub fn required_many(&self, server: usize, sets: &[Vec<u16>]) -> Vec<Option<f64>> {
        parallel_map_init(self.threads, sets, FitScratch::new, |scratch, set| {
            self.server_required_scratch(server, set, scratch)
        })
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
        let outcomes = members
            .iter()
            .take(servers)
            .enumerate()
            .map(|(srv, set)| {
                if set.is_empty() {
                    return ServerOutcome::Unused;
                }
                match self.server_required_scratch(srv, set, scratch) {
                    Some(required) => ServerOutcome::Fits {
                        required,
                        utilization: required / self.server(srv).capacity(),
                    },
                    None => ServerOutcome::Overbooked {
                        workloads: set.len(),
                    },
                }
            })
            .collect();
        scratch.buckets = members;
        outcomes
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
        let outcomes = self.outcomes_scratch(assignment, servers, scratch);
        let score = outcomes
            .iter()
            .enumerate()
            .map(|(srv, o)| o.value_with(self.score_model, self.server(srv).cpus()))
            .sum();
        (score, assignment_feasible(&outcomes))
    }

    /// Scores a whole population, fanning out over the worker pool when
    /// the engine has more than one thread.
    ///
    /// Each evaluation is a pure function of its member sets, so the
    /// result vector is bit-identical to scoring serially in input order —
    /// the property that keeps the parallel GA deterministic per seed.
    /// Every worker carries its own [`FitScratch`], so the population
    /// loop recycles its aggregate buffers instead of allocating.
    pub fn score_assignments(
        &self,
        assignments: &[Vec<usize>],
        servers: usize,
    ) -> Vec<(f64, bool)> {
        parallel_map_init(self.threads, assignments, FitScratch::new, |scratch, a| {
            self.evaluate_scratch(a, servers, scratch)
        })
    }
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

/// Maps `f` over `items` on up to `threads` scoped workers, preserving
/// input order. Serial (no threads spawned) when `threads <= 1` or there
/// are fewer than two items. Items are split into contiguous chunks and
/// joined in spawn order, so the output is identical to a serial map —
/// callers that need bit-identical results across thread counts (the
/// failure sweeps, the chaos replay) rely on exactly this property.
pub fn parallel_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_init(threads, items, || (), |(), item| f(item))
}

/// [`parallel_map`] with per-worker mutable state: `init` runs once per
/// worker (and once on the serial path) and `f` receives that worker's
/// state alongside each item.
///
/// The state exists for *scratch reuse only* — pooled buffers, key
/// vectors — and must not influence results; chunking and join order are
/// those of [`parallel_map`], so the output stays identical to a serial
/// map for any thread count.
pub fn parallel_map_init<T, S, R, I, F>(threads: usize, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, &T) -> R + Sync,
{
    if threads <= 1 || items.len() < 2 {
        let mut state = init();
        return items.iter().map(|item| f(&mut state, item)).collect();
    }
    let workers = threads.min(items.len());
    let chunk_size = items.len().div_ceil(workers);
    let init = &init;
    let f = &f;
    let mut results = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk_size)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut state = init();
                    chunk
                        .iter()
                        .map(|item| f(&mut state, item))
                        .collect::<Vec<R>>()
                })
            })
            .collect();
        for handle in handles {
            // lint:allow(panic-expect): a worker panic is already fatal;
            // re-raising it on the coordinating thread is intentional.
            results.extend(handle.join().expect("fit-engine worker panicked"));
        }
    });
    results
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
    fn parallel_scoring_matches_serial_bitwise() {
        let fleet = constant_fleet(&[2.0, 3.0, 4.0, 5.0, 1.0, 6.0]);
        let population: Vec<Vec<usize>> = (0..8)
            .map(|k| (0..fleet.len()).map(|i| (i + k) % 3).collect())
            .collect();
        let serial = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(1.0), 0.05);
        let parallel = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(1.0), 0.05)
            .with_threads(4);
        let s = serial.score_assignments(&population, 3);
        let p = parallel.score_assignments(&population, 3);
        assert_eq!(s, p);
        assert_eq!(parallel.threads(), 4);
    }

    #[test]
    fn required_many_preserves_input_order() {
        let fleet = constant_fleet(&[2.0, 3.0, 4.0]);
        let engine = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(1.0), 0.05)
            .with_threads(3);
        let sets = vec![vec![0u16], vec![1], vec![2], vec![0, 1, 2]];
        let batched = engine.required_many(0, &sets);
        let single: Vec<Option<f64>> = sets.iter().map(|s| engine.server_required(0, s)).collect();
        assert_eq!(batched, single);
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

    #[test]
    fn parallel_map_init_matches_serial_and_reuses_state() {
        let items: Vec<usize> = (0..23).collect();
        // Count how many items each worker state saw; results must not
        // depend on that state.
        let mapped = parallel_map_init(
            4,
            &items,
            || 0usize,
            |seen, &i| {
                *seen += 1;
                i * 3
            },
        );
        assert_eq!(mapped, (0..23).map(|i| i * 3).collect::<Vec<_>>());
        let serial = parallel_map_init(1, &items, || 0usize, |_, &i| i * 3);
        assert_eq!(mapped, serial);
    }

    #[test]
    fn parallel_map_is_order_preserving() {
        let items: Vec<usize> = (0..17).collect();
        let doubled = parallel_map(4, &items, |&i| i * 2);
        assert_eq!(doubled, (0..17).map(|i| i * 2).collect::<Vec<_>>());
        // Serial fallback paths.
        assert_eq!(parallel_map(1, &items, |&i| i + 1).len(), 17);
        assert_eq!(parallel_map(8, &[1], |&i: &i32| i), vec![1]);
        assert!(parallel_map::<i32, i32, _>(4, &[], |&i| i).is_empty());
    }
}
