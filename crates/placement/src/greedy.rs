//! Greedy bin-packing baselines for the consolidation exercise.
//!
//! The paper (§VIII) notes that contemporaries — AOG, TeamQuest, AutoGlobe
//! — rely on greedy placement, and that the R-Opus genetic algorithm
//! "compared favorably to the greedy algorithms we implemented ourselves".
//! These are those baselines: first-fit, first-fit-decreasing, and
//! best-fit-decreasing over the same trace-replay fit test the GA uses, so
//! the comparison isolates the search strategy.

use serde::{Deserialize, Serialize};

use crate::engine::{FitEngine, FitScratch};
use crate::PlacementError;

/// Which greedy packing order and bin-choice rule to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum GreedyStrategy {
    /// Workloads in input order, first server that fits.
    FirstFit,
    /// Workloads by descending peak allocation, first server that fits.
    FirstFitDecreasing,
    /// Workloads by descending peak allocation, fitting server whose
    /// resulting required capacity is highest (tightest fit).
    BestFitDecreasing,
    /// Workloads by descending peak allocation, fitting server where the
    /// workload *adds the least required capacity* — i.e. the server whose
    /// existing load is least correlated with the newcomer. This is the
    /// correlation-aware heuristic the paper's related work suggests
    /// ("heuristic search approaches that also take into account
    /// correlations in resource demands among workloads").
    MinMarginalCapacity,
}

impl GreedyStrategy {
    /// All strategies, for sweeps.
    pub const ALL: [GreedyStrategy; 4] = [
        GreedyStrategy::FirstFit,
        GreedyStrategy::FirstFitDecreasing,
        GreedyStrategy::BestFitDecreasing,
        GreedyStrategy::MinMarginalCapacity,
    ];
}

/// Packs the evaluator's workloads onto as few servers as the strategy
/// manages, returning an assignment (`app → server`) using server indices
/// `0..servers_used`; bin `i` is fitted as the engine's server `i`.
///
/// # Errors
///
/// Returns [`PlacementError::Infeasible`] when some workload does not fit
/// even on an empty server, and [`PlacementError::NoWorkloads`] for an
/// empty workload set.
pub fn place(
    evaluator: &FitEngine<'_>,
    strategy: GreedyStrategy,
) -> Result<Vec<usize>, PlacementError> {
    let workloads = evaluator.workloads();
    if workloads.is_empty() {
        return Err(PlacementError::NoWorkloads);
    }

    let mut order: Vec<usize> = (0..workloads.len()).collect();
    if strategy != GreedyStrategy::FirstFit {
        order.sort_by(|&a, &b| {
            workloads[b]
                .total_peak()
                .total_cmp(&workloads[a].total_peak())
        });
    }

    let mut bins: Vec<Vec<u16>> = Vec::new();
    let mut assignment = vec![usize::MAX; workloads.len()];
    // One scratch for the whole placement: every candidate fit test
    // recycles the same aggregate buffers.
    let mut scratch = FitScratch::new();

    for &app in &order {
        let mut candidate: Vec<u16> = Vec::new();
        let mut chosen: Option<usize> = None;
        let mut best_required = f64::NEG_INFINITY;
        let mut best_marginal = f64::INFINITY;

        for (bin_index, bin) in bins.iter().enumerate() {
            candidate.clear();
            candidate.extend_from_slice(bin);
            candidate.push(app as u16);
            let Some(required) =
                evaluator.server_required_scratch(bin_index, &candidate, &mut scratch)
            else {
                continue;
            };
            match strategy {
                GreedyStrategy::FirstFit | GreedyStrategy::FirstFitDecreasing => {
                    chosen = Some(bin_index);
                    break;
                }
                GreedyStrategy::BestFitDecreasing => {
                    if required > best_required {
                        best_required = required;
                        chosen = Some(bin_index);
                    }
                }
                GreedyStrategy::MinMarginalCapacity => {
                    let before = evaluator
                        .server_required_scratch(bin_index, bin, &mut scratch)
                        // lint:allow(panic-expect): every bin was admitted
                        // through this same fit check, so it must refit.
                        .expect("an existing bin always fits its own contents");
                    let marginal = required - before;
                    if marginal < best_marginal {
                        best_marginal = marginal;
                        chosen = Some(bin_index);
                    }
                }
            }
        }

        match chosen {
            Some(bin_index) => {
                bins[bin_index].push(app as u16);
                assignment[app] = bin_index;
            }
            None => {
                // Open a new server; the workload must at least fit alone.
                if evaluator
                    .server_required_scratch(bins.len(), &[app as u16], &mut scratch)
                    .is_none()
                {
                    return Err(PlacementError::Infeasible {
                        servers: bins.len(),
                        message: format!(
                            "workload {} does not fit on an empty server",
                            workloads[app].name()
                        ),
                    });
                }
                bins.push(vec![app as u16]);
                assignment[app] = bins.len() - 1;
            }
        }
    }

    Ok(assignment)
}

/// Friendlier alias for [`GreedyStrategy`], matching the naming used by
/// the CLI and the prelude.
pub type GreedyPolicy = GreedyStrategy;

/// Number of servers a greedy assignment uses.
pub fn servers_used(assignment: &[usize]) -> usize {
    assignment.iter().copied().max().map_or(0, |m| m + 1)
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

    fn commitments() -> PoolCommitments {
        PoolCommitments::new(CosSpec::new(1.0, 60).unwrap())
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
    fn ffd_packs_classic_instance_tightly() {
        // Sizes 10, 6, 6, 4, 4, 2 on capacity-16 servers: FFD gives
        // {10, 6}, {6, 4, 4, 2} = 2 servers.
        let fleet = constant_fleet(&[10.0, 6.0, 6.0, 4.0, 4.0, 2.0]);
        let eval = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(), 0.05);
        let assignment = place(&eval, GreedyStrategy::FirstFitDecreasing).unwrap();
        assert_eq!(servers_used(&assignment), 2, "{assignment:?}");
    }

    #[test]
    fn first_fit_is_order_sensitive() {
        // In input order 2, 10, 6, 6, 4, 4: FF places 2+10 together (12),
        // then 6s and 4s pack worse than FFD would.
        let fleet = constant_fleet(&[2.0, 10.0, 6.0, 6.0, 4.0, 4.0]);
        let eval = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(), 0.05);
        let ff = place(&eval, GreedyStrategy::FirstFit).unwrap();
        let ffd = place(&eval, GreedyStrategy::FirstFitDecreasing).unwrap();
        assert!(servers_used(&ff) >= servers_used(&ffd));
    }

    #[test]
    fn bfd_prefers_the_tightest_bin() {
        let fleet = constant_fleet(&[9.0, 8.0, 7.0, 6.0, 2.0]);
        let eval = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(), 0.05);
        let assignment = place(&eval, GreedyStrategy::BestFitDecreasing).unwrap();
        // 9+7, 8+6+2 is achievable in 2 bins.
        assert_eq!(servers_used(&assignment), 2, "{assignment:?}");
        // Feasibility of every bin.
        let (_, feasible) = eval.evaluate(&assignment, servers_used(&assignment));
        assert!(feasible);
    }

    #[test]
    fn min_marginal_capacity_prefers_anti_correlated_neighbours() {
        // Workloads: a morning-heavy anchor, an evening-heavy anchor, and
        // an evening-heavy newcomer. The newcomer's marginal capacity is
        // near zero on the morning anchor's server and large on the
        // evening anchor's, so the correlation-aware rule must co-locate
        // it with the *morning* anchor — even though that server is the
        // "looser" fit that BestFitDecreasing would avoid.
        let cal = Calendar::five_minute();
        let per_day = cal.slots_per_day();
        let mk = |name: &str, offset: usize, level: f64, base: f64| {
            let samples: Vec<f64> = (0..cal.slots_per_week())
                .map(|i| {
                    let slot = i % per_day;
                    if (offset..offset + 48).contains(&slot) {
                        level
                    } else {
                        base
                    }
                })
                .collect();
            Workload::new(
                name,
                Trace::constant(cal, 0.0, cal.slots_per_week()).unwrap(),
                Trace::from_samples(cal, samples).unwrap(),
            )
            .unwrap()
        };
        // High bases keep the two anchors off one server (6.5 + 10 > 16).
        let fleet = vec![
            mk("morning-anchor", 96, 10.0, 6.5),
            mk("evening-anchor", 192, 10.0, 6.5),
            mk("evening-rider", 192, 5.0, 1.0),
        ];
        let eval = FitEngine::new(
            &fleet,
            ServerSpec::sixteen_way(),
            PoolCommitments::new(CosSpec::new(1.0, 60).unwrap()),
            0.05,
        );
        // BestFitDecreasing picks the *tightest* fitting bin for the rider,
        // which is the correlated evening anchor (required 15 vs 11.5).
        let bfd = place(&eval, GreedyStrategy::BestFitDecreasing).unwrap();
        assert_eq!(bfd[2], bfd[1], "BFD co-locates correlated peaks: {bfd:?}");
        // MinMarginalCapacity instead minimizes added capacity, joining the
        // anti-correlated morning anchor.
        let assignment = place(&eval, GreedyStrategy::MinMarginalCapacity).unwrap();
        assert_ne!(
            assignment[0], assignment[1],
            "anchors cannot share: {assignment:?}"
        );
        assert_eq!(
            assignment[2], assignment[0],
            "rider should join the anti-correlated morning anchor: {assignment:?}"
        );
    }

    #[test]
    fn oversized_workload_is_infeasible() {
        let fleet = constant_fleet(&[17.0]);
        let eval = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(), 0.05);
        let err = place(&eval, GreedyStrategy::FirstFitDecreasing).unwrap_err();
        assert!(matches!(err, PlacementError::Infeasible { .. }));
    }

    #[test]
    fn every_strategy_returns_a_feasible_assignment() {
        let fleet = constant_fleet(&[5.0, 3.0, 8.0, 1.0, 12.0, 2.0, 6.0]);
        for strategy in GreedyStrategy::ALL {
            let eval = FitEngine::new(&fleet, ServerSpec::sixteen_way(), commitments(), 0.05);
            let assignment = place(&eval, strategy).unwrap();
            let n = servers_used(&assignment);
            let (_, feasible) = eval.evaluate(&assignment, n);
            assert!(feasible, "{strategy:?} produced {assignment:?}");
            assert!(assignment.iter().all(|&s| s < n));
        }
    }
}
