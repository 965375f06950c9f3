//! The optimizing search of §VI-B: a genetic algorithm over
//! workload-to-server assignments (Fig. 5 of the paper).
//!
//! Chromosomes are assignment vectors (`app → server`). Fitness is the
//! [`score`](crate::score) objective. The mutation operator follows the
//! paper: a used server is selected with probability inversely related to
//! its `f(U)` value and its workloads are migrated to other used servers,
//! tending to free one server per step. Crossover mates two assignments by
//! taking a random subset of application assignments from one parent and
//! the rest from the other.
//!
//! Per-server fit evaluations dominate the cost, so the search runs on a
//! [`FitEngine`], which memoizes required-capacity results by workload set
//! (the same server contents recur constantly across a run). On an engine
//! with more than one thread, the search opens one worker set for its
//! whole run ([`with_workers`]) and feeds it two kinds of batch: each
//! population-scoring round, and each drain mutation's per-server fits.
//! The calling thread looks fits up, inserts them and consumes the RNG;
//! the helpers only compute missed fits. Every fit is a pure function of
//! its member set, so the search is bit-identical to the serial loop.

use serde::{Deserialize, Serialize};

use ropus_obs::{Clock, WallClock};

use ropus_trace::parallel::{with_workers, Workers};
use ropus_trace::rng::Rng;

use crate::engine::{EngineStats, FitEngine, FitJob, FitScratch};
use crate::score::ServerOutcome;
use crate::PlacementError;

/// Tuning knobs of the genetic search.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GaOptions {
    /// Population size.
    pub population: usize,
    /// Hard cap on generations.
    pub max_generations: usize,
    /// Stop after this many generations without score improvement.
    pub stagnation_limit: usize,
    /// Per-individual probability of the server-drain mutation.
    pub drain_mutation_probability: f64,
    /// Per-gene probability of a random reassignment.
    pub gene_mutation_probability: f64,
    /// Capacity tolerance of the fit binary search, in capacity units.
    pub capacity_tolerance: f64,
    /// PRNG seed; runs are deterministic per seed.
    pub seed: u64,
    /// Worker threads of the search, the calling thread included (1 =
    /// serial): population scoring and the drain mutation's per-server
    /// fits fan out over them. Parallel runs are bit-identical to serial
    /// runs under the same seed.
    #[serde(default = "default_threads")]
    pub threads: usize,
}

fn default_threads() -> usize {
    1
}

impl GaOptions {
    /// Production-quality defaults (the case-study setting).
    pub fn thorough(seed: u64) -> Self {
        GaOptions {
            population: 32,
            max_generations: 400,
            stagnation_limit: 40,
            drain_mutation_probability: 0.8,
            gene_mutation_probability: 0.02,
            capacity_tolerance: 0.05,
            seed,
            threads: 1,
        }
    }

    /// A small, fast configuration for tests and examples.
    pub fn fast(seed: u64) -> Self {
        GaOptions {
            population: 12,
            max_generations: 60,
            stagnation_limit: 12,
            drain_mutation_probability: 0.8,
            gene_mutation_probability: 0.05,
            capacity_tolerance: 0.1,
            seed,
            threads: 1,
        }
    }

    /// Sets the hard cap on generations.
    pub fn with_max_generations(mut self, max_generations: usize) -> Self {
        self.max_generations = max_generations;
        self
    }

    /// Sets the capacity tolerance of the fit binary search.
    pub fn with_capacity_tolerance(mut self, tolerance: f64) -> Self {
        self.capacity_tolerance = tolerance;
        self
    }

    /// Sets the PRNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the worker-thread count (values below 1 clamp to 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

impl Default for GaOptions {
    fn default() -> Self {
        Self::thorough(0)
    }
}

/// Result of a genetic search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaOutcome {
    /// Best feasible assignment found (`app → server`).
    pub assignment: Vec<usize>,
    /// Its score.
    pub score: f64,
    /// Generations actually run.
    pub generations: usize,
    /// Uncached per-server fit evaluations performed.
    pub evaluations: usize,
    /// Engine statistics of the search (cache hits/misses, wall time per
    /// generation, thread count).
    #[serde(default)]
    pub stats: EngineStats,
}

/// Runs the genetic search from one or more seed assignments over the
/// first `servers` servers of the engine's pool; each server is scored
/// with its own spec's `Z`.
///
/// Elitism guarantees the result scores at least as well as the best
/// feasible seed, so seeding with greedy solutions makes the GA dominate
/// them by construction.
///
/// The search runs on the engine's [`threads`](FitEngine::threads): one
/// keeps the serial loop on the calling thread; more open one worker set
/// of that many threads (the caller included) for the whole search.
///
/// # Errors
///
/// Returns [`PlacementError::Infeasible`] when no feasible assignment was
/// encountered during the whole search (including the seeds).
///
/// # Panics
///
/// Panics if `seeds` is empty, a seed is empty, or entries exceed
/// `servers`.
pub fn optimize(
    evaluator: &FitEngine<'_>,
    seeds: &[Vec<usize>],
    servers: usize,
    options: &GaOptions,
) -> Result<GaOutcome, PlacementError> {
    assert!(
        !seeds.is_empty() && seeds.iter().all(|s| !s.is_empty()),
        "seeds must be non-empty"
    );
    let threads = evaluator.threads();
    if threads <= 1 {
        let mut fits = Fits::Serial(FitScratch::new());
        return search(evaluator, seeds, servers, options, &mut fits);
    }
    with_workers(
        threads,
        FitScratch::new,
        |scratch, job: FitJob| evaluator.compute(job.server, &job.members, scratch),
        |workers| {
            let mut fits = Fits::Batched {
                scratch: FitScratch::new(),
                workers,
            };
            search(evaluator, seeds, servers, options, &mut fits)
        },
    )
}

/// The search itself, drawing its fits from `fits`.
fn search(
    evaluator: &FitEngine<'_>,
    seeds: &[Vec<usize>],
    servers: usize,
    options: &GaOptions,
    fits: &mut Fits<'_, '_>,
) -> Result<GaOutcome, PlacementError> {
    // Wall time feeds only the EngineStats telemetry (elapsed duration),
    // never a score or a placement decision, so the sanctioned obs clock
    // is the right source.
    // lint:allow(det-taint): elapsed time is telemetry-only; scores and
    // placements are pure functions of the seeded inputs.
    let clock = WallClock::new();
    let mut rng = Rng::seed_from_u64(options.seed);

    // Seed the population with the provided assignments plus noisy
    // variants of the first.
    let mut population: Vec<Vec<usize>> = Vec::with_capacity(options.population);
    for seed in seeds.iter().take(options.population) {
        population.push(seed.clone());
    }
    while population.len() < options.population.max(2) {
        let mut variant = seeds[0].clone();
        mutate_genes(
            &mut variant,
            servers,
            options.gene_mutation_probability.max(0.05),
            &mut rng,
        );
        population.push(variant);
    }

    let mut scored = score_population(evaluator, fits, population, servers);

    let mut best: Option<(Vec<usize>, f64)> = None;
    let mut stagnation = 0usize;
    let mut generations = 0usize;

    update_best(&mut best, &scored);

    for _ in 0..options.max_generations {
        generations += 1;
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));

        let mut next: Vec<Vec<usize>> = Vec::with_capacity(options.population);
        // Elitism: carry the two best forward unchanged.
        for elite in scored.iter().take(2) {
            next.push(elite.0.clone());
        }
        while next.len() < options.population {
            let a = tournament(&scored, &mut rng);
            let b = tournament(&scored, &mut rng);
            let mut child = crossover(a, b, &mut rng);
            if rng.bernoulli(options.drain_mutation_probability) {
                drain_mutation(&mut child, servers, evaluator, fits, &mut rng);
            }
            mutate_genes(
                &mut child,
                servers,
                options.gene_mutation_probability,
                &mut rng,
            );
            next.push(child);
        }

        scored = score_population(evaluator, fits, next, servers);

        if update_best(&mut best, &scored) {
            stagnation = 0;
        } else {
            stagnation += 1;
        }
        if stagnation >= options.stagnation_limit {
            break;
        }
    }

    match best {
        Some((assignment, score)) => {
            let total_wall_ms = clock.now_ms();
            let mut stats = evaluator.stats();
            stats.generations = generations;
            stats.total_wall_ms = total_wall_ms;
            stats.mean_generation_wall_ms = if generations > 0 {
                total_wall_ms / generations as f64
            } else {
                0.0
            };
            Ok(GaOutcome {
                assignment,
                score,
                generations,
                evaluations: evaluator.evaluations(),
                stats,
            })
        }
        None => Err(PlacementError::Infeasible {
            servers,
            message: "no feasible assignment found by the genetic search".into(),
        }),
    }
}

/// Where a search's fits come from: the serial loop on the calling
/// thread, or batches on the search's worker set, whose helpers compute
/// the misses while the calling thread looks up, inserts and assembles.
enum Fits<'a, 'w> {
    Serial(FitScratch),
    Batched {
        scratch: FitScratch,
        workers: &'a mut Workers<'w, FitJob, FitScratch, Option<f64>>,
    },
}

impl Fits<'_, '_> {
    /// Score and feasibility of each assignment, in order.
    fn scores(
        &mut self,
        evaluator: &FitEngine<'_>,
        population: &[Vec<usize>],
        servers: usize,
    ) -> Vec<(f64, bool)> {
        match self {
            Fits::Serial(scratch) => population
                .iter()
                .map(|a| evaluator.evaluate_scratch(a, servers, scratch))
                .collect(),
            Fits::Batched { scratch, workers } => evaluator
                .outcomes_batched(population, servers, scratch, |jobs| workers.map(jobs))
                .iter()
                .map(|outcomes| evaluator.score(outcomes))
                .collect(),
        }
    }

    /// Per-server outcomes of one assignment.
    fn outcomes(
        &mut self,
        evaluator: &FitEngine<'_>,
        assignment: &[usize],
        servers: usize,
    ) -> Vec<ServerOutcome> {
        match self {
            Fits::Serial(scratch) => evaluator.outcomes_scratch(assignment, servers, scratch),
            Fits::Batched { scratch, workers } => evaluator
                .outcomes_batched(&[assignment], servers, scratch, |jobs| workers.map(jobs))
                .pop()
                .unwrap_or_default(),
        }
    }
}

/// Scores a population, pairing each assignment with its score and
/// feasibility.
fn score_population(
    evaluator: &FitEngine<'_>,
    fits: &mut Fits<'_, '_>,
    population: Vec<Vec<usize>>,
    servers: usize,
) -> Vec<(Vec<usize>, f64, bool)> {
    let scores = fits.scores(evaluator, &population, servers);
    population
        .into_iter()
        .zip(scores)
        .map(|(assignment, (score, feasible))| (assignment, score, feasible))
        .collect()
}

/// Updates the best feasible solution; returns whether it improved.
fn update_best(best: &mut Option<(Vec<usize>, f64)>, scored: &[(Vec<usize>, f64, bool)]) -> bool {
    let mut improved = false;
    for (assignment, score, feasible) in scored {
        if !feasible {
            continue;
        }
        let better = match best {
            Some((_, best_score)) => *score > *best_score + 1e-12,
            None => true,
        };
        if better {
            *best = Some((assignment.clone(), *score));
            improved = true;
        }
    }
    improved
}

/// Binary tournament selection by score.
fn tournament<'p>(scored: &'p [(Vec<usize>, f64, bool)], rng: &mut Rng) -> &'p [usize] {
    let a = rng.below(scored.len());
    let b = rng.below(scored.len());
    if scored[a].1 >= scored[b].1 {
        &scored[a].0
    } else {
        &scored[b].0
    }
}

/// The paper's crossover: a random share of application assignments from
/// one parent, the rest from the other.
fn crossover(a: &[usize], b: &[usize], rng: &mut Rng) -> Vec<usize> {
    let share = rng.next_f64();
    a.iter()
        .zip(b.iter())
        .map(|(&ga, &gb)| if rng.next_f64() < share { ga } else { gb })
        .collect()
}

/// Random per-gene reassignment within the pool.
fn mutate_genes(assignment: &mut [usize], servers: usize, probability: f64, rng: &mut Rng) {
    for gene in assignment.iter_mut() {
        if rng.bernoulli(probability) {
            *gene = rng.below(servers);
        }
    }
}

/// The paper's mutation: pick a used server with probability inversely
/// related to its `f(U)` contribution, then migrate its workloads to other
/// used servers — tending to reduce the number of servers in use by one.
fn drain_mutation(
    assignment: &mut [usize],
    servers: usize,
    evaluator: &FitEngine<'_>,
    fits: &mut Fits<'_, '_>,
    rng: &mut Rng,
) {
    let outcomes = fits.outcomes(evaluator, assignment, servers);
    let used: Vec<usize> = (0..servers)
        .filter(|&s| !matches!(outcomes[s], ServerOutcome::Unused))
        .collect();
    if used.len() < 2 {
        return;
    }
    let model = evaluator.score_model();
    // Weight = how far the server is from a perfect contribution of 1.
    let weights: Vec<f64> = used
        .iter()
        .map(|&s| (1.0 - outcomes[s].value_with(model, evaluator.server(s).cpus())).max(0.01))
        .collect();
    let victim = used[rng.weighted_index(&weights)];
    let targets: Vec<usize> = used.iter().copied().filter(|&s| s != victim).collect();
    for gene in assignment.iter_mut() {
        if *gene == victim {
            // lint:allow(panic-expect): `targets` is `used` minus one
            // server and `used.len() >= 2` was checked on entry.
            let (_, &target) = rng.choose(&targets).expect("targets non-empty");
            *gene = target;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServerSpec;
    use crate::workload::Workload;
    use ropus_qos::{CosSpec, PoolCommitments};
    use ropus_trace::{Calendar, Trace};

    fn cal() -> Calendar {
        Calendar::five_minute()
    }

    fn commitments(theta: f64) -> PoolCommitments {
        PoolCommitments::new(CosSpec::new(theta, 60).unwrap())
    }

    /// Workloads with constant CoS2 allocation of the given sizes.
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
    fn evaluator_caches_by_member_set() {
        let fleet = constant_fleet(&[2.0, 3.0]);
        let eval = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(1.0), 0.05);
        let r1 = eval.server_required(0, &[0, 1]).unwrap();
        let r2 = eval.server_required(0, &[1, 0]).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(eval.evaluations(), 1, "order-insensitive cache");
        assert!((r1 - 5.0).abs() < 0.1);
    }

    #[test]
    fn evaluator_outcomes_classify_servers() {
        let fleet = constant_fleet(&[10.0, 10.0, 2.0]);
        let eval = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(1.0), 0.05);
        // Server 0: both 10s (20 > 16, overbooked); server 1: the 2.0;
        // server 2: unused.
        let outcomes = eval.outcomes(&[0, 0, 1], 3);
        assert!(matches!(
            outcomes[0],
            ServerOutcome::Overbooked { workloads: 2 }
        ));
        assert!(matches!(outcomes[1], ServerOutcome::Fits { .. }));
        assert!(matches!(outcomes[2], ServerOutcome::Unused));
    }

    #[test]
    fn ga_consolidates_small_workloads_onto_fewer_servers() {
        // Six 2-CPU workloads all fit on one 16-way server; start scattered.
        let fleet = constant_fleet(&[2.0; 6]);
        let eval = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(1.0), 0.05);
        let initial: Vec<usize> = (0..6).collect();
        let outcome = optimize(&eval, &[initial], 6, &GaOptions::fast(7)).unwrap();
        let used: std::collections::HashSet<usize> = outcome.assignment.iter().copied().collect();
        assert_eq!(used.len(), 1, "assignment {:?}", outcome.assignment);
        // Score: 5 unused servers + f(12/16).
        let expected = 5.0 + (12.0f64 / 16.0).powi(32);
        assert!(
            (outcome.score - expected).abs() < 0.3,
            "score {}",
            outcome.score
        );
    }

    #[test]
    fn ga_respects_capacity_and_reports_feasible_best() {
        // Three 10-CPU workloads cannot share a 16-way server pairwise.
        let fleet = constant_fleet(&[10.0, 10.0, 10.0]);
        let eval = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(1.0), 0.05);
        let initial: Vec<usize> = (0..3).collect();
        let outcome = optimize(&eval, &[initial], 3, &GaOptions::fast(3)).unwrap();
        let (_, feasible) = eval.evaluate(&outcome.assignment, 3);
        assert!(feasible);
        let used: std::collections::HashSet<usize> = outcome.assignment.iter().copied().collect();
        assert_eq!(used.len(), 3);
    }

    #[test]
    fn ga_is_deterministic_per_seed() {
        let fleet = constant_fleet(&[2.0, 3.0, 4.0, 5.0, 1.0]);
        let run = |seed| {
            let eval = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(1.0), 0.05);
            optimize(&eval, &[vec![0, 1, 2, 3, 4]], 5, &GaOptions::fast(seed)).unwrap()
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.score, b.score);
    }

    #[test]
    fn parallel_search_matches_serial_bitwise_with_equal_lookup_counts() {
        let fleet = constant_fleet(&[2.0, 3.0, 4.0, 5.0, 1.0, 6.0, 7.0, 2.5, 3.5]);
        let seeds = [(0..fleet.len()).collect::<Vec<usize>>()];
        let run = |threads| {
            let eval = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(1.0), 0.05)
                .with_threads(threads);
            optimize(&eval, &seeds, fleet.len(), &GaOptions::fast(13)).unwrap()
        };
        let serial = run(1);
        for threads in [2, 4] {
            let parallel = run(threads);
            assert_eq!(parallel.assignment, serial.assignment);
            assert_eq!(parallel.score.to_bits(), serial.score.to_bits());
            assert_eq!(parallel.generations, serial.generations);
            // The calling thread counts every lookup, so even the
            // hit/miss split is the serial loop's.
            assert_eq!(parallel.evaluations, serial.evaluations);
            assert_eq!(parallel.stats.cache_hits, serial.stats.cache_hits);
            assert_eq!(parallel.stats.cache_misses, serial.stats.cache_misses);
            assert_eq!(parallel.stats.threads, threads);
        }
    }

    #[test]
    fn batched_outcomes_match_serial_outcomes_and_counts() {
        let fleet = constant_fleet(&[2.0, 3.0, 4.0, 5.0, 1.0, 6.0]);
        // Repeated member sets inside one batch: each is one miss, then
        // hits, as in the serial loop.
        let population: Vec<Vec<usize>> = (0..8)
            .map(|k| (0..fleet.len()).map(|i| (i + k % 3) % 3).collect())
            .collect();
        let serial = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(1.0), 0.05);
        let batched = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(1.0), 0.05);
        let mut scratch = FitScratch::new();
        let expected: Vec<Vec<ServerOutcome>> = population
            .iter()
            .map(|a| serial.outcomes_scratch(a, 3, &mut scratch))
            .collect();
        let mut jobs_seen = 0;
        let got = batched.outcomes_batched(&population, 3, &mut FitScratch::new(), |jobs| {
            jobs_seen = jobs.len();
            jobs.iter()
                .map(|job| batched.compute(job.server, &job.members, &mut FitScratch::new()))
                .collect()
        });
        assert_eq!(got, expected);
        assert_eq!(jobs_seen, 3, "three distinct member sets");
        assert_eq!(batched.stats(), serial.stats());
        // The batch inserted its fits: the next lookups all hit.
        let again = batched.outcomes_batched(&population, 3, &mut FitScratch::new(), |jobs| {
            assert!(jobs.is_empty());
            Vec::new()
        });
        assert_eq!(again, expected);
        assert_eq!(batched.stats().cache_misses, 3);
    }

    #[test]
    fn ga_infeasible_when_a_workload_cannot_fit_anywhere() {
        let fleet = constant_fleet(&[20.0]);
        let eval = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(1.0), 0.05);
        let err = optimize(&eval, &[vec![0]], 1, &GaOptions::fast(0)).unwrap_err();
        assert!(matches!(err, PlacementError::Infeasible { .. }));
    }

    #[test]
    fn memory_pressure_forces_more_servers() {
        // Four tiny-CPU workloads whose memory footprints (24 GB each)
        // only pack two per 64 GB server.
        let fleet: Vec<Workload> = (0..4)
            .map(|i| {
                Workload::new(
                    format!("w{i}"),
                    Trace::constant(cal(), 0.0, cal().slots_per_week()).unwrap(),
                    Trace::constant(cal(), 1.0, cal().slots_per_week()).unwrap(),
                )
                .unwrap()
                .with_memory(Trace::constant(cal(), 24.0, cal().slots_per_week()).unwrap())
                .unwrap()
            })
            .collect();
        let eval = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(1.0), 0.05);
        // CPU-wise all four fit one server (4 CPUs of 16), but memory
        // (96 GB) does not.
        assert!(eval.server_required(0, &[0, 1]).is_some());
        assert!(eval.server_required(0, &[0, 1, 2]).is_none());
        let initial: Vec<usize> = (0..4).collect();
        let outcome = optimize(&eval, &[initial], 4, &GaOptions::fast(5)).unwrap();
        let used: std::collections::HashSet<usize> = outcome.assignment.iter().copied().collect();
        assert_eq!(used.len(), 2, "{:?}", outcome.assignment);
    }

    #[test]
    fn statistical_cos_allows_overbooking() {
        // Two workloads that are busy at *different* times of day: each
        // needs 10 for two hours, base 1. Peak sum = 20 > 16, but a theta
        // = 0.9 commitment lets them share one server.
        let per_day = cal().slots_per_day();
        let mk = |name: &str, offset: usize| {
            let samples: Vec<f64> = (0..cal().slots_per_week())
                .map(|i| {
                    let slot = i % per_day;
                    if (offset..offset + 24).contains(&slot) {
                        10.0
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
        let fleet = vec![mk("morning", 96), mk("evening", 192)];
        let eval = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(0.9), 0.05);
        let req = eval.server_required(0, &[0, 1]);
        assert!(req.is_some());
        assert!(req.unwrap() <= 16.0);
    }
}
