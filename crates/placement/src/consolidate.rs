//! The consolidation exercise: pack a fleet of translated workloads onto
//! as few servers as possible while honouring the pool's resource access
//! commitments (§VI-B, producing the Table I columns).

use std::sync::Arc;

use ropus_obs::ObsCtx;
use serde::{Deserialize, Serialize};

use ropus_qos::PoolCommitments;
use ropus_trace::parallel::parallel_map;

use crate::engine::{EngineStats, FitEngine, FitMemo, MemoStats};
use crate::ga::{optimize, GaOptions, GaOutcome};
use crate::greedy::{place, servers_used, GreedyStrategy};
use crate::server::{Pool, ServerSpec};
use crate::session::EngineSession;
use crate::workload::{validate_workloads, Workload};
use crate::PlacementError;

/// Options for a consolidation run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ConsolidationOptions {
    /// Genetic-search tuning.
    pub ga: GaOptions,
    /// Capacity tolerance used when reporting per-server required
    /// capacities (finer than the search tolerance).
    pub report_tolerance: f64,
}

impl ConsolidationOptions {
    /// Case-study quality settings.
    pub fn thorough(seed: u64) -> Self {
        ConsolidationOptions {
            ga: GaOptions::thorough(seed),
            report_tolerance: 0.05,
        }
    }

    /// Fast settings for tests and examples.
    pub fn fast(seed: u64) -> Self {
        ConsolidationOptions {
            ga: GaOptions::fast(seed),
            report_tolerance: 0.1,
        }
    }

    /// Sets the worker-thread count used by the engine (1 = serial).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.ga = self.ga.with_threads(threads);
        self
    }

    /// Sets the hard cap on GA generations.
    pub fn with_max_generations(mut self, max_generations: usize) -> Self {
        self.ga = self.ga.with_max_generations(max_generations);
        self
    }

    /// Sets the GA seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.ga = self.ga.with_seed(seed);
        self
    }
}

/// One used server in a placement report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerPlacement {
    /// Server index within the report's pool.
    pub server: usize,
    /// Indices of the workloads assigned to the server.
    pub workloads: Vec<usize>,
    /// The smallest capacity satisfying the commitments for this set.
    pub required_capacity: f64,
    /// `required_capacity / capacity limit`.
    pub utilization: f64,
}

/// Outcome of a consolidation exercise — the Table I row ingredients.
///
/// Equality deliberately ignores [`stats`](Self::stats): wall times and
/// cache-hit counts vary run to run, but the placement itself is
/// deterministic per seed regardless of thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlacementReport {
    /// Final assignment (`app → server`).
    pub assignment: Vec<usize>,
    /// Number of servers that host at least one workload.
    pub servers_used: usize,
    /// Sum of per-server required capacities — the paper's `C_requ`.
    pub required_capacity_total: f64,
    /// Sum of per-application peak allocations — the paper's `C_peak`.
    pub peak_allocation_total: f64,
    /// Final objective score.
    pub score: f64,
    /// Per-server detail for the used servers.
    pub servers: Vec<ServerPlacement>,
    /// Engine statistics of the run (ignored by equality).
    #[serde(default)]
    pub stats: EngineStats,
    /// Observability snapshot, attached only when the caller ran with an
    /// enabled [`Obs`](ropus_obs::Obs) handle *and* asked for it; omitted from the JSON
    /// when absent so un-observed reports serialize byte-identically to
    /// earlier releases. Ignored by equality, like [`stats`](Self::stats).
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub obs: Option<ropus_obs::ObsReport>,
}

impl PartialEq for PlacementReport {
    fn eq(&self, other: &Self) -> bool {
        self.assignment == other.assignment
            && self.servers_used == other.servers_used
            && self.required_capacity_total == other.required_capacity_total
            && self.peak_allocation_total == other.peak_allocation_total
            && self.score == other.score
            && self.servers == other.servers
    }
}

impl PlacementReport {
    /// Ratio of required capacity to the sum of peak allocations; the
    /// paper reports required capacities "between 37% to 45% lower than
    /// the sum of per-application peak allocations".
    pub fn sharing_savings(&self) -> f64 {
        if self.peak_allocation_total == 0.0 {
            return 0.0;
        }
        1.0 - self.required_capacity_total / self.peak_allocation_total
    }
}

/// The consolidation service: owns the server type, commitments, search
/// options, and the fit memo every engine it builds shares.
///
/// The memo lives as long as the consolidator (clones share it), so one
/// plan or one chaos replay reuses fits across its normal consolidation,
/// failure cases and re-plans. Nothing long-lived should hold a
/// consolidator: build one per run.
#[derive(Debug, Clone)]
pub struct Consolidator {
    server: ServerSpec,
    commitments: PoolCommitments,
    options: ConsolidationOptions,
    memo: Arc<FitMemo>,
}

impl Consolidator {
    /// Creates a consolidator with an empty memo.
    pub fn new(
        server: ServerSpec,
        commitments: PoolCommitments,
        options: ConsolidationOptions,
    ) -> Self {
        Consolidator {
            server,
            commitments,
            options,
            memo: Arc::new(FitMemo::new()),
        }
    }

    /// The server type being packed onto.
    pub fn server(&self) -> ServerSpec {
        self.server
    }

    /// The pool commitments in force.
    pub fn commitments(&self) -> PoolCommitments {
        self.commitments
    }

    /// The options in force.
    pub fn options(&self) -> ConsolidationOptions {
        self.options
    }

    /// The counters of the fit memo shared by every consolidation this
    /// consolidator has run.
    pub fn memo_stats(&self) -> MemoStats {
        self.memo.stats()
    }

    /// Builds the search-tolerance fit engine for a fleet on the shared
    /// memo, with `threads` scoring workers.
    fn engine<'a>(&self, workloads: &'a [Workload], threads: usize) -> FitEngine<'a> {
        FitEngine::in_memo(
            &self.memo,
            workloads,
            self.server,
            self.commitments,
            self.options.ga.capacity_tolerance,
        )
        .with_threads(threads)
    }

    /// Consolidates the workloads onto as few servers as the search finds,
    /// with the pool sized by a first-fit-decreasing pre-pass.
    ///
    /// With a collector attached to `obs`, the greedy seeding, genetic
    /// search, and report phases are wrapped in spans and the run's
    /// [`EngineStats`] migrate onto the metrics registry.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::Infeasible`] when some workload cannot be
    /// placed at all, and validation errors for degenerate inputs.
    pub fn consolidate(
        &self,
        workloads: &[Workload],
        obs: ObsCtx<'_>,
    ) -> Result<PlacementReport, PlacementError> {
        validate_workloads(workloads)?;
        let threads = self.options.ga.threads;
        let evaluator = self.engine(workloads, threads);
        let search = || {
            // Seed with every greedy baseline: FFD bounds the pool size,
            // and elitism makes the search dominate all of them by
            // construction.
            let seed_span = obs.span("placement.seed");
            let ffd = place(&evaluator, GreedyStrategy::FirstFitDecreasing)?;
            let pool_size = servers_used(&ffd);
            let mut seeds = vec![ffd];
            for strategy in GreedyStrategy::ALL {
                if strategy == GreedyStrategy::FirstFitDecreasing {
                    continue;
                }
                if let Ok(seed) = place(&evaluator, strategy) {
                    if servers_used(&seed) <= pool_size {
                        seeds.push(seed);
                    }
                }
            }
            drop(seed_span);
            let _search_span = obs.span("placement.search");
            optimize(&evaluator, &seeds, pool_size, &self.options.ga)
        };
        let outcome = search();
        self.memo.record_lookups(&evaluator.stats());
        self.report(workloads, outcome?, threads, obs)
    }

    /// Consolidates onto a fixed pool (used by failure planning, where the
    /// surviving pool size is given); same spans and registry migration as
    /// [`consolidate`](Self::consolidate).
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::Infeasible`] when no feasible assignment
    /// onto `pool.count` servers is found.
    pub fn consolidate_onto(
        &self,
        workloads: &[Workload],
        pool: Pool,
        obs: ObsCtx<'_>,
    ) -> Result<PlacementReport, PlacementError> {
        self.place_onto(workloads, pool, self.options.ga.threads, obs)
    }

    /// Re-places many fleets, each onto its own pool, as the failure sweeps
    /// and chaos re-plans need; results are in input order.
    ///
    /// Cases whose fleets have the same content-id vector and whose pools
    /// are equal are one consolidation, solved once (DESIGN.md §5a). The
    /// distinct cases fan out over the worker pool; when there are fewer
    /// of them than threads, each inner search gets the spare threads.
    /// Every consolidation is deterministic per seed for any thread count,
    /// so results are bit-identical across `threads` settings.
    ///
    /// Inner consolidations run without observability; the shared memo's
    /// counters ([`memo_stats`](Self::memo_stats)) cover them.
    pub fn consolidate_cases(
        &self,
        cases: &[(Vec<Workload>, Pool)],
    ) -> Vec<Result<PlacementReport, PlacementError>> {
        // Each distinct (content ids, pool) key with its first case.
        let mut distinct: Vec<((Vec<u32>, Pool), usize)> = Vec::new();
        let case_of: Vec<usize> = cases
            .iter()
            .enumerate()
            .map(|(i, (fleet, pool))| {
                let key = (self.memo.intern(fleet), *pool);
                distinct
                    .iter()
                    .position(|(k, _)| *k == key)
                    .unwrap_or_else(|| {
                        distinct.push((key, i));
                        distinct.len() - 1
                    })
            })
            .collect();
        self.memo.record_cases(distinct.len());
        let threads = self.options.ga.threads;
        let outer = threads.min(distinct.len()).max(1);
        let inner = (threads / outer).max(1);
        let solved = parallel_map(outer, &distinct, |&(_, i)| {
            // lint:allow(panic-slice-index): `distinct` holds indices of
            // `cases`.
            let (fleet, pool) = &cases[i];
            self.place_onto(fleet, *pool, inner, ObsCtx::none())
        });
        case_of
            .into_iter()
            // lint:allow(panic-slice-index): every case maps to one of the
            // distinct cases solved above.
            .map(|d| solved[d].clone())
            .collect()
    }

    /// [`consolidate_onto`](Self::consolidate_onto) with `threads` engine
    /// workers.
    fn place_onto(
        &self,
        workloads: &[Workload],
        pool: Pool,
        threads: usize,
        obs: ObsCtx<'_>,
    ) -> Result<PlacementReport, PlacementError> {
        validate_workloads(workloads)?;
        let evaluator = self.engine(workloads, threads);
        let search = || {
            let seed_span = obs.span("placement.seed");
            let ffd = place(&evaluator, GreedyStrategy::FirstFitDecreasing)?;
            let ffd_servers = servers_used(&ffd);
            drop(seed_span);
            let _search_span = obs.span("placement.search");
            if ffd_servers > pool.count {
                // FFD overflowed the pool; fold the excess onto the pool
                // round-robin and let the search try to repair it.
                let folded: Vec<usize> = ffd.iter().map(|&s| s % pool.count).collect();
                optimize(&evaluator, &[folded], pool.count, &self.options.ga)
            } else {
                optimize(&evaluator, &[ffd], pool.count, &self.options.ga)
            }
        };
        let outcome = search();
        self.memo.record_lookups(&evaluator.stats());
        self.report(workloads, outcome?, threads, obs)
    }

    /// Builds the report, recomputing per-server required capacities at
    /// the (finer) report tolerance. The recomputation is a thin client of
    /// the incremental [`EngineSession`] API: the final assignment is
    /// bulk-loaded into a session, which re-fits each used server through
    /// the same per-server code path `ropus serve` maintains online —
    /// independent binary searches fanned over the engine's parallel map.
    fn report(
        &self,
        workloads: &[Workload],
        outcome: GaOutcome,
        threads: usize,
        obs: ObsCtx<'_>,
    ) -> Result<PlacementReport, PlacementError> {
        let GaOutcome {
            assignment,
            score,
            stats,
            ..
        } = outcome;
        let _report_span = obs.span("placement.report");
        // Migrate the search's engine statistics onto the registry. The
        // evaluation and hit/miss tallies are timing-dependent under
        // parallel scoring (two workers racing on one uncached key both
        // count a miss), so they ride the timing-dependent channel, which
        // deterministic collectors drop; generations are deterministic
        // per seed and always recorded.
        obs.timing_counter("placement.engine.evaluations", stats.evaluations);
        obs.timing_counter("placement.engine.cache_hits", stats.cache_hits);
        obs.timing_counter("placement.engine.cache_misses", stats.cache_misses);
        obs.counter("placement.search.generations", stats.generations as u64);

        let mut session = EngineSession::new(self.server, self.commitments)
            .with_tolerance(self.options.report_tolerance)
            .with_threads(threads)
            .with_assignment(workloads, &assignment)?;
        let servers = session.server_placements()?;

        let required_capacity_total = servers.iter().map(|s| s.required_capacity).sum();
        let peak_allocation_total = workloads.iter().map(Workload::total_peak).sum();
        Ok(PlacementReport {
            servers_used: servers.len(),
            assignment,
            required_capacity_total,
            peak_allocation_total,
            score,
            servers,
            stats,
            obs: None,
        })
    }
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
    fn more_workloads_than_the_engine_indexes_is_an_error() {
        // Clones share one sample buffer, so 65,536 of them stay cheap.
        let fleet = vec![constant_fleet(&[1.0]).remove(0); u16::MAX as usize + 1];
        let consolidator = Consolidator::new(
            ServerSpec::sixteen_way(),
            commitments(1.0),
            ConsolidationOptions::fast(0),
        );
        assert_eq!(
            consolidator
                .consolidate(&fleet, ObsCtx::none())
                .unwrap_err(),
            PlacementError::TooManyWorkloads { count: 65_536 }
        );
    }

    #[test]
    fn consolidates_and_reports_totals() {
        let fleet = constant_fleet(&[4.0, 4.0, 4.0, 2.0]);
        let consolidator = Consolidator::new(
            ServerSpec::sixteen_way(),
            commitments(1.0),
            ConsolidationOptions::fast(5),
        );
        let report = consolidator.consolidate(&fleet, ObsCtx::none()).unwrap();
        assert_eq!(report.servers_used, 1);
        assert!((report.peak_allocation_total - 14.0).abs() < 1e-9);
        assert!((report.required_capacity_total - 14.0).abs() < 0.2);
        assert_eq!(report.servers.len(), 1);
        assert_eq!(report.servers[0].workloads.len(), 4);
        assert!(report.servers[0].utilization > 0.8);
    }

    #[test]
    fn report_is_consistent_with_assignment() {
        let fleet = constant_fleet(&[9.0, 9.0, 9.0, 2.0]);
        let consolidator = Consolidator::new(
            ServerSpec::sixteen_way(),
            commitments(1.0),
            ConsolidationOptions::fast(2),
        );
        let report = consolidator.consolidate(&fleet, ObsCtx::none()).unwrap();
        // 9+9 never fits: at least 2 servers.
        assert!(report.servers_used >= 2);
        let mut seen = vec![false; fleet.len()];
        for sp in &report.servers {
            for &w in &sp.workloads {
                assert_eq!(report.assignment[w], sp.server);
                seen[w] = true;
            }
            assert!(sp.required_capacity <= 16.0 + 0.2);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn consolidate_onto_respects_pool_limit() {
        let fleet = constant_fleet(&[6.0, 6.0, 6.0, 6.0]);
        let consolidator = Consolidator::new(
            ServerSpec::sixteen_way(),
            commitments(1.0),
            ConsolidationOptions::fast(9),
        );
        let pool = Pool::homogeneous(ServerSpec::sixteen_way(), 2);
        let report = consolidator
            .consolidate_onto(&fleet, pool, ObsCtx::none())
            .unwrap();
        assert!(report.servers_used <= 2);
        assert!(report.assignment.iter().all(|&s| s < 2));
    }

    #[test]
    fn consolidate_onto_reports_infeasible_when_pool_too_small() {
        let fleet = constant_fleet(&[10.0, 10.0, 10.0]);
        let consolidator = Consolidator::new(
            ServerSpec::sixteen_way(),
            commitments(1.0),
            ConsolidationOptions::fast(1),
        );
        let pool = Pool::homogeneous(ServerSpec::sixteen_way(), 1);
        let err = consolidator
            .consolidate_onto(&fleet, pool, ObsCtx::none())
            .unwrap_err();
        assert!(matches!(err, PlacementError::Infeasible { .. }));
    }

    #[test]
    fn sharing_savings_reflects_overbooking() {
        // Two anti-correlated workloads: savings should be well above zero
        // with a statistical commitment.
        let per_day = cal().slots_per_day();
        let mk = |name: &str, offset: usize| {
            let samples: Vec<f64> = (0..cal().slots_per_week())
                .map(|i| {
                    let slot = i % per_day;
                    if (offset..offset + 24).contains(&slot) {
                        12.0
                    } else {
                        1.0
                    }
                })
                .collect();
            Workload::new(
                name,
                Trace::constant(cal(), 0.0, cal().slots_per_week()).unwrap(),
                Trace::from_samples(cal(), samples).unwrap(),
            )
            .unwrap()
        };
        let fleet = vec![mk("a", 96), mk("b", 192)];
        let consolidator = Consolidator::new(
            ServerSpec::sixteen_way(),
            commitments(0.9),
            ConsolidationOptions::fast(3),
        );
        let report = consolidator.consolidate(&fleet, ObsCtx::none()).unwrap();
        assert_eq!(report.servers_used, 1);
        // C_peak = 24, C_requ ~ 13: savings > 40%.
        assert!(
            report.sharing_savings() > 0.4,
            "savings {}",
            report.sharing_savings()
        );
    }

    #[test]
    fn empty_fleet_is_rejected() {
        let consolidator = Consolidator::new(
            ServerSpec::sixteen_way(),
            commitments(1.0),
            ConsolidationOptions::fast(0),
        );
        assert!(matches!(
            consolidator.consolidate(&[], ObsCtx::none()),
            Err(PlacementError::NoWorkloads)
        ));
    }
}
