//! Consolidation onto *heterogeneous* pools.
//!
//! The paper's score function is defined for pools where "resources may
//! have different numbers of CPUs" — `f(U) = U^(2Z)` with a per-server
//! `Z`. A pool given as an explicit list of [`ServerSpec`]s (e.g. 16-way
//! boxes plus smaller blades) runs through the same [`FitEngine`] and
//! genetic search ([`ga::optimize`]) as the homogeneous path: the engine
//! maps each server to the class of its spec, so identical servers share
//! cache entries and each server is fitted and scored by its own spec. A
//! uniform list is one class and reproduces
//! [`Consolidator::consolidate_onto`](crate::consolidate::Consolidator::consolidate_onto)
//! bit for bit.

use serde::{Deserialize, Serialize};

use ropus_qos::PoolCommitments;

use crate::engine::{FitEngine, FitScratch};
use crate::ga::{self, GaOptions};
use crate::score::ServerOutcome;
use crate::server::ServerSpec;
use crate::workload::{validate_workloads, Workload};
use crate::PlacementError;

/// Greedy first-fit-decreasing seed over the engine's first `servers`
/// servers: workloads by descending peak allocation, servers tried
/// largest-capacity first.
///
/// # Errors
///
/// Returns [`PlacementError::Infeasible`] when some workload fits no
/// server of the pool, even empty.
pub fn seed_ffd(engine: &FitEngine<'_>, servers: usize) -> Result<Vec<usize>, PlacementError> {
    let workloads = engine.workloads();
    let mut app_order: Vec<usize> = (0..workloads.len()).collect();
    app_order.sort_by(|&a, &b| {
        workloads[b]
            .total_peak()
            .total_cmp(&workloads[a].total_peak())
    });
    let mut server_order: Vec<usize> = (0..servers).collect();
    server_order.sort_by(|&a, &b| {
        engine
            .server(b)
            .capacity()
            .total_cmp(&engine.server(a).capacity())
    });

    let mut members: Vec<Vec<u16>> = vec![Vec::new(); servers];
    let mut assignment = vec![usize::MAX; workloads.len()];
    let mut candidate: Vec<u16> = Vec::new();
    let mut scratch = FitScratch::new();
    for &app in &app_order {
        let srv = server_order
            .iter()
            .copied()
            .find(|&srv| {
                candidate.clear();
                candidate.extend_from_slice(&members[srv]);
                candidate.push(app as u16);
                engine
                    .server_required_scratch(srv, &candidate, &mut scratch)
                    .is_some()
            })
            .ok_or_else(|| PlacementError::Infeasible {
                servers,
                message: format!(
                    "workload {} fits no server of the pool",
                    workloads[app].name()
                ),
            })?;
        members[srv].push(app as u16);
        assignment[app] = srv;
    }
    Ok(assignment)
}

/// Result of a heterogeneous consolidation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HeteroReport {
    /// Final assignment (`app → server index` in the pool list).
    pub assignment: Vec<usize>,
    /// Indices of servers hosting at least one workload.
    pub used_servers: Vec<usize>,
    /// Final score.
    pub score: f64,
    /// Sum of per-used-server required capacities.
    pub required_capacity_total: f64,
}

/// Genetic consolidation over the pool `servers` (server `i` has spec
/// `servers[i]`): a first-fit-decreasing seed refined by
/// [`ga::optimize`]. The fit tolerance, worker threads and PRNG seed come
/// from `options`.
///
/// # Errors
///
/// Returns [`PlacementError::InvalidServer`] for an empty pool, validation
/// errors for degenerate workloads, and [`PlacementError::Infeasible`]
/// when no feasible assignment is found.
pub fn consolidate_hetero(
    workloads: &[Workload],
    servers: &[ServerSpec],
    commitments: PoolCommitments,
    options: &GaOptions,
) -> Result<HeteroReport, PlacementError> {
    if servers.is_empty() {
        return Err(PlacementError::InvalidServer {
            message: "pool has no servers".into(),
        });
    }
    validate_workloads(workloads)?;
    let engine =
        FitEngine::for_servers(workloads, servers, commitments, options.capacity_tolerance)
            .with_threads(options.threads);
    let seed = seed_ffd(&engine, servers.len())?;
    let outcome = ga::optimize(&engine, &[seed], servers.len(), options)?;

    let mut used_servers = Vec::new();
    let mut required_capacity_total = 0.0;
    for (srv, outcome) in engine
        .outcomes(&outcome.assignment, servers.len())
        .iter()
        .enumerate()
    {
        if let ServerOutcome::Fits { required, .. } = outcome {
            used_servers.push(srv);
            required_capacity_total += required;
        }
    }
    Ok(HeteroReport {
        assignment: outcome.assignment,
        used_servers,
        score: outcome.score,
        required_capacity_total,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ropus_qos::CosSpec;
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

    fn mixed_pool() -> Vec<ServerSpec> {
        vec![
            ServerSpec::sixteen_way(),
            ServerSpec::new(4, 1.0),
            ServerSpec::new(4, 1.0),
        ]
    }

    fn engine(fleet: &[Workload]) -> FitEngine<'_> {
        FitEngine::for_servers(fleet, &mixed_pool(), commitments(), 0.05)
    }

    #[test]
    fn big_workloads_only_fit_the_big_server() {
        let fleet = constant_fleet(&[10.0, 1.0, 1.0]);
        let eval = engine(&fleet);
        assert!(eval.server_required(0, &[0]).is_some());
        assert!(
            eval.server_required(1, &[0]).is_none(),
            "10 CPUs on a 4-way"
        );
        let seed = seed_ffd(&eval, 3).unwrap();
        assert_eq!(
            seed[0], 0,
            "FFD must put the 10-CPU workload on the 16-way: {seed:?}"
        );
        let report =
            consolidate_hetero(&fleet, &mixed_pool(), commitments(), &GaOptions::fast(1)).unwrap();
        assert_eq!(report.assignment[0], 0, "{:?}", report.assignment);
    }

    #[test]
    fn consolidation_packs_feasibly_and_beats_the_seed() {
        let fleet = constant_fleet(&[10.0, 3.0, 3.0, 2.0, 1.5, 1.0]);
        let eval = engine(&fleet);
        let seed = seed_ffd(&eval, 3).unwrap();
        let (seed_score, seed_feasible) = eval.evaluate(&seed, 3);
        assert!(seed_feasible);
        let options = GaOptions::fast(3).with_capacity_tolerance(0.05);
        let report = consolidate_hetero(&fleet, &mixed_pool(), commitments(), &options).unwrap();
        assert!(
            report.score >= seed_score - 1e-9,
            "{} vs {}",
            report.score,
            seed_score
        );
        let (_, feasible) = eval.evaluate(&report.assignment, 3);
        assert!(feasible);
        assert!(!report.used_servers.is_empty());
        assert!(report.required_capacity_total > 0.0);
    }

    #[test]
    fn infeasible_when_nothing_fits() {
        let fleet = constant_fleet(&[20.0]);
        assert!(matches!(
            seed_ffd(&engine(&fleet), 3),
            Err(PlacementError::Infeasible { .. })
        ));
        assert!(matches!(
            consolidate_hetero(&fleet, &mixed_pool(), commitments(), &GaOptions::fast(0)),
            Err(PlacementError::Infeasible { .. })
        ));
    }

    #[test]
    fn empty_pool_rejected() {
        let fleet = constant_fleet(&[1.0]);
        assert!(matches!(
            consolidate_hetero(&fleet, &[], commitments(), &GaOptions::fast(0)),
            Err(PlacementError::InvalidServer { .. })
        ));
    }

    #[test]
    fn deterministic_per_seed() {
        let fleet = constant_fleet(&[5.0, 4.0, 3.0, 2.0]);
        let run = |s| {
            consolidate_hetero(&fleet, &mixed_pool(), commitments(), &GaOptions::fast(s)).unwrap()
        };
        assert_eq!(run(5), run(5));
    }
}
