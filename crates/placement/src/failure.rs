//! Failure planning (§VI-C of the paper).
//!
//! Starting from the consolidated normal-mode configuration, the planner
//! removes one server at a time, switches applications to their
//! failure-mode QoS translations (see [`FailureScope`] for which ones),
//! and re-runs the consolidation onto the surviving servers. If every
//! single-server failure can be absorbed, no spare server is needed;
//! otherwise the pool needs a spare (or stronger failure-mode QoS
//! concessions).

use serde::{Deserialize, Serialize};

use crate::consolidate::{Consolidator, PlacementReport};
use crate::server::Pool;
use crate::workload::Workload;
use crate::PlacementError;

/// Which applications fall back to failure-mode QoS after a failure.
///
/// §VI-C of the paper re-associates only the *affected* applications
/// (those hosted on the failed server) with their failure-mode
/// requirements; the §VII case study argues from whole-system placements,
/// effectively relaxing *every* application during the repair window.
/// Both are useful: `AffectedOnly` disturbs fewer applications,
/// `AllApplications` frees more capacity on the survivors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureScope {
    /// Only applications hosted on the failed server are relaxed (§VI-C).
    AffectedOnly,
    /// Every application runs under failure-mode QoS until repair (§VII).
    AllApplications,
}

/// Outcome of re-placing after one server's failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureCase {
    /// Index of the failed server (in the normal-mode report).
    pub failed_server: usize,
    /// Indices of the applications that were hosted on the failed server.
    pub affected: Vec<usize>,
    /// The re-placement onto the surviving servers, if one was found.
    pub placement: Option<PlacementReport>,
}

impl FailureCase {
    /// Whether this failure can be absorbed by the surviving servers.
    pub fn is_supported(&self) -> bool {
        self.placement.is_some()
    }
}

/// Aggregate result of the single-failure sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureAnalysis {
    /// One case per used server in the normal-mode placement.
    pub cases: Vec<FailureCase>,
    /// Servers used in normal mode.
    pub normal_servers: usize,
}

impl FailureAnalysis {
    /// Whether *every* single-server failure can be absorbed without a
    /// spare server.
    pub fn all_supported(&self) -> bool {
        self.cases.iter().all(FailureCase::is_supported)
    }

    /// Whether the pool needs a spare server to cover single failures.
    pub fn spare_needed(&self) -> bool {
        !self.all_supported()
    }

    /// The largest surviving-pool usage across supported cases.
    pub fn worst_case_servers(&self) -> Option<usize> {
        self.cases
            .iter()
            .filter_map(|c| c.placement.as_ref().map(|p| p.servers_used))
            .max()
    }
}

/// Outcome of re-placing after a simultaneous multi-server failure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiFailureCase {
    /// Indices of the failed servers (in the normal-mode report).
    pub failed_servers: Vec<usize>,
    /// Indices of the applications hosted on the failed servers.
    pub affected: Vec<usize>,
    /// The re-placement onto the surviving servers, if one was found.
    pub placement: Option<PlacementReport>,
}

impl MultiFailureCase {
    /// Whether this combination of failures can be absorbed.
    pub fn is_supported(&self) -> bool {
        self.placement.is_some()
    }
}

/// Aggregate result of a `k`-simultaneous-failure sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiFailureAnalysis {
    /// One case per combination of `simultaneous` used servers.
    pub cases: Vec<MultiFailureCase>,
    /// Number of simultaneous failures analyzed.
    pub simultaneous: usize,
    /// Servers used in normal mode.
    pub normal_servers: usize,
}

impl MultiFailureAnalysis {
    /// Whether every combination can be absorbed without spares.
    pub fn all_supported(&self) -> bool {
        self.cases.iter().all(MultiFailureCase::is_supported)
    }

    /// Number of unsupported combinations.
    pub fn unsupported_count(&self) -> usize {
        self.cases.iter().filter(|c| !c.is_supported()).count()
    }
}

/// Sweeps every combination of `simultaneous` failed servers — the
/// paper's §III remark that the single-failure scenario "can be extended
/// to multiple node failures".
///
/// The number of cases is `C(servers_used, simultaneous)`; each distinct
/// case runs a full consolidation, so keep `simultaneous` small for large
/// pools.
///
/// # Errors
///
/// Returns [`PlacementError::MisalignedWorkloads`] for mismatched workload
/// vectors and [`PlacementError::InvalidServer`] when `simultaneous` is 0
/// or not smaller than the number of used servers.
pub fn analyze_multi_failures(
    consolidator: &Consolidator,
    normal_report: &PlacementReport,
    normal: &[Workload],
    failure: &[Workload],
    scope: FailureScope,
    simultaneous: usize,
) -> Result<MultiFailureAnalysis, PlacementError> {
    if normal.len() != failure.len() {
        return Err(PlacementError::MisalignedWorkloads {
            name: "failure-mode workload set".to_string(),
        });
    }
    let used = normal_report.servers_used;
    if simultaneous == 0 || simultaneous >= used {
        return Err(PlacementError::InvalidServer {
            message: format!(
                "cannot analyze {simultaneous} simultaneous failures of {used} used servers"
            ),
        });
    }

    let survivors = Pool::homogeneous(consolidator.server(), used - simultaneous);
    let mut cases: Vec<(Vec<usize>, Vec<usize>)> = Vec::new();
    let mut inputs: Vec<(Vec<Workload>, Pool)> = Vec::new();
    for combo in combinations(normal_report.servers.len(), simultaneous) {
        let failed_servers: Vec<usize> = combo
            .iter()
            .map(|&i| normal_report.servers[i].server)
            .collect();
        let affected: Vec<usize> = combo
            .iter()
            .flat_map(|&i| normal_report.servers[i].workloads.iter().copied())
            .collect();
        inputs.push((mixed_fleet(normal, failure, &affected, scope), survivors));
        cases.push((failed_servers, affected));
    }

    let placements = consolidator.consolidate_cases(&inputs);
    let cases = cases
        .into_iter()
        .zip(placements)
        .map(|((failed_servers, affected), placement)| MultiFailureCase {
            failed_servers,
            affected,
            placement: placement.ok(),
        })
        .collect();

    Ok(MultiFailureAnalysis {
        cases,
        simultaneous,
        normal_servers: used,
    })
}

/// The fleet after a failure: each application in failure mode when
/// `scope` relaxes it (every application, or only the `affected` ones),
/// in normal mode otherwise. `normal[i]` and `failure[i]` are application
/// `i`'s two translations; `affected` holds application indices.
pub fn mixed_fleet(
    normal: &[Workload],
    failure: &[Workload],
    affected: &[usize],
    scope: FailureScope,
) -> Vec<Workload> {
    normal
        .iter()
        .zip(failure)
        .enumerate()
        .map(|(i, (n, f))| match scope {
            FailureScope::AllApplications => f.clone(),
            FailureScope::AffectedOnly if affected.contains(&i) => f.clone(),
            FailureScope::AffectedOnly => n.clone(),
        })
        .collect()
}

/// All `k`-element index combinations of `0..n`, in lexicographic order.
fn combinations(n: usize, k: usize) -> Vec<Vec<usize>> {
    fn recurse(
        n: usize,
        k: usize,
        start: usize,
        current: &mut Vec<usize>,
        out: &mut Vec<Vec<usize>>,
    ) {
        if current.len() == k {
            out.push(current.clone());
            return;
        }
        for i in start..n {
            // Prune: not enough elements left to complete the combination.
            if n - i < k - current.len() {
                break;
            }
            current.push(i);
            recurse(n, k, i + 1, current, out);
            current.pop();
        }
    }
    let mut result = Vec::new();
    let mut current = Vec::with_capacity(k);
    recurse(n, k, 0, &mut current, &mut result);
    result
}

/// Sweeps all single-server failures of a normal-mode placement.
///
/// `normal` and `failure` are the per-application workloads translated
/// under the normal-mode and failure-mode QoS requirements respectively;
/// they must be index-aligned. For each used server, applications switch
/// to their failure-mode workloads according to `scope` and the whole
/// fleet is re-consolidated onto the surviving `servers_used − 1` servers.
///
/// # Errors
///
/// Returns [`PlacementError::MisalignedWorkloads`] when the two workload
/// vectors differ in length; infeasibility of an individual failure case is
/// *not* an error — it is recorded as an unsupported case.
pub fn analyze_single_failures(
    consolidator: &Consolidator,
    normal_report: &PlacementReport,
    normal: &[Workload],
    failure: &[Workload],
    scope: FailureScope,
) -> Result<FailureAnalysis, PlacementError> {
    if normal.len() != failure.len() {
        return Err(PlacementError::MisalignedWorkloads {
            name: "failure-mode workload set".to_string(),
        });
    }

    // Each case re-consolidates the whole fleet, with the failed server's
    // applications (or all of them) in failure mode, onto the survivors.
    // A single-server pool has no survivors: every case is unsupported.
    let placements: Vec<Option<PlacementReport>> = if normal_report.servers_used <= 1 {
        vec![None; normal_report.servers.len()]
    } else {
        let survivors = Pool::homogeneous(consolidator.server(), normal_report.servers_used - 1);
        let inputs: Vec<(Vec<Workload>, Pool)> = normal_report
            .servers
            .iter()
            .map(|s| (mixed_fleet(normal, failure, &s.workloads, scope), survivors))
            .collect();
        consolidator
            .consolidate_cases(&inputs)
            .into_iter()
            .map(Result::ok)
            .collect()
    };
    let cases = normal_report
        .servers
        .iter()
        .zip(placements)
        .map(|(server_placement, placement)| FailureCase {
            failed_server: server_placement.server,
            affected: server_placement.workloads.clone(),
            placement,
        })
        .collect();

    Ok(FailureAnalysis {
        cases,
        normal_servers: normal_report.servers_used,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consolidate::ConsolidationOptions;
    use crate::server::ServerSpec;
    use ropus_obs::ObsCtx;
    use ropus_qos::{CosSpec, PoolCommitments};
    use ropus_trace::{Calendar, Trace};

    fn cal() -> Calendar {
        Calendar::five_minute()
    }

    fn commitments() -> PoolCommitments {
        PoolCommitments::new(CosSpec::new(1.0, 60).unwrap())
    }

    fn wl(name: &str, size: f64) -> Workload {
        Workload::new(
            name,
            Trace::constant(cal(), 0.0, cal().slots_per_week()).unwrap(),
            Trace::constant(cal(), size, cal().slots_per_week()).unwrap(),
        )
        .unwrap()
    }

    fn consolidator(seed: u64) -> Consolidator {
        Consolidator::new(
            ServerSpec::sixteen_way(),
            commitments(),
            ConsolidationOptions::fast(seed),
        )
    }

    #[test]
    fn failure_absorbed_when_failure_mode_shrinks_demand() {
        // Normal: four 6-CPU workloads -> 2 servers (6+6 each). Failure
        // mode shrinks an affected workload to 2 CPUs, so losing either
        // server leaves 2+2 (affected, failure mode) + 6+6 (survivors,
        // normal mode) = 16 on the one remaining 16-way server.
        let normal = vec![wl("a", 6.0), wl("b", 6.0), wl("c", 6.0), wl("d", 6.0)];
        let failure = vec![wl("a", 2.0), wl("b", 2.0), wl("c", 2.0), wl("d", 2.0)];
        let c = consolidator(4);
        let report = c.consolidate(&normal, ObsCtx::none()).unwrap();
        assert_eq!(report.servers_used, 2);
        let analysis =
            analyze_single_failures(&c, &report, &normal, &failure, FailureScope::AffectedOnly)
                .unwrap();
        assert_eq!(analysis.cases.len(), 2);
        assert!(analysis.all_supported(), "{analysis:?}");
        assert!(!analysis.spare_needed());
        assert_eq!(analysis.worst_case_servers(), Some(1));
    }

    #[test]
    fn spare_needed_when_failure_mode_gives_no_relief() {
        // Three 10-CPU workloads on 3 servers; failure mode identical:
        // two survivors cannot host three 10s.
        let normal = vec![wl("a", 10.0), wl("b", 10.0), wl("c", 10.0)];
        let c = consolidator(8);
        let report = c.consolidate(&normal, ObsCtx::none()).unwrap();
        assert_eq!(report.servers_used, 3);
        let analysis =
            analyze_single_failures(&c, &report, &normal, &normal, FailureScope::AffectedOnly)
                .unwrap();
        assert!(analysis.spare_needed());
        assert!(analysis.cases.iter().all(|case| !case.is_supported()));
    }

    #[test]
    fn single_server_normal_mode_cannot_absorb_failure() {
        let normal = vec![wl("a", 2.0), wl("b", 2.0)];
        let c = consolidator(1);
        let report = c.consolidate(&normal, ObsCtx::none()).unwrap();
        assert_eq!(report.servers_used, 1);
        let analysis =
            analyze_single_failures(&c, &report, &normal, &normal, FailureScope::AffectedOnly)
                .unwrap();
        assert!(analysis.spare_needed());
    }

    #[test]
    fn only_affected_apps_switch_to_failure_mode() {
        // Two servers: {a: 12}, {b: 12}. Failure mode shrinks everything to
        // 3. Losing either server must still fit: survivor hosts its own
        // normal 12 + affected failure-mode 3 = 15 <= 16. If *all* apps had
        // switched to failure mode it would be 6; if none, 24. The case is
        // only supported under the mixed interpretation.
        let normal = vec![wl("a", 12.0), wl("b", 12.0)];
        let failure = vec![wl("a", 3.0), wl("b", 3.0)];
        let c = consolidator(6);
        let report = c.consolidate(&normal, ObsCtx::none()).unwrap();
        assert_eq!(report.servers_used, 2);
        let analysis =
            analyze_single_failures(&c, &report, &normal, &failure, FailureScope::AffectedOnly)
                .unwrap();
        assert!(analysis.all_supported());
        for case in &analysis.cases {
            let placement = case.placement.as_ref().unwrap();
            assert_eq!(placement.servers_used, 1);
            // The survivor's required capacity reflects 12 + 3, not 6 or 24.
            let total = placement.required_capacity_total;
            assert!((total - 15.0).abs() < 0.3, "required {total}");
        }
    }

    #[test]
    fn all_applications_scope_frees_more_capacity() {
        // Normal: two 12s on two servers. Failure mode: 3 each. With
        // AffectedOnly the survivor hosts 12 + 3 = 15; with
        // AllApplications it hosts 3 + 3 = 6. Both fit here, but the
        // whole-system scope must report the smaller required capacity.
        let normal = vec![wl("a", 12.0), wl("b", 12.0)];
        let failure = vec![wl("a", 3.0), wl("b", 3.0)];
        let c = consolidator(2);
        let report = c.consolidate(&normal, ObsCtx::none()).unwrap();
        let affected_only =
            analyze_single_failures(&c, &report, &normal, &failure, FailureScope::AffectedOnly)
                .unwrap();
        let all_apps = analyze_single_failures(
            &c,
            &report,
            &normal,
            &failure,
            FailureScope::AllApplications,
        )
        .unwrap();
        assert!(affected_only.all_supported() && all_apps.all_supported());
        for (a, b) in affected_only.cases.iter().zip(&all_apps.cases) {
            let ra = a.placement.as_ref().unwrap().required_capacity_total;
            let rb = b.placement.as_ref().unwrap().required_capacity_total;
            assert!(rb < ra, "all-apps {rb} should be below affected-only {ra}");
        }
    }

    #[test]
    fn combinations_enumerate_lexicographically() {
        assert_eq!(
            combinations(4, 2),
            vec![
                vec![0, 1],
                vec![0, 2],
                vec![0, 3],
                vec![1, 2],
                vec![1, 3],
                vec![2, 3],
            ]
        );
        assert_eq!(combinations(3, 3), vec![vec![0, 1, 2]]);
        assert_eq!(combinations(3, 0), vec![Vec::<usize>::new()]);
        assert!(combinations(2, 3).is_empty());
    }

    #[test]
    fn double_failure_sweep_enumerates_all_pairs() {
        // Six 4-CPU workloads -> 2 per server on 16-ways? FFD packs four
        // per server (16/4): 2 servers of 3? 6 x 4 = 24 -> 2 servers.
        // Make it 3 servers: six 7-CPU workloads (two per server).
        let normal: Vec<Workload> = (0..6).map(|i| wl(&format!("w{i}"), 7.0)).collect();
        let failure: Vec<Workload> = (0..6).map(|i| wl(&format!("w{i}"), 2.0)).collect();
        let c = consolidator(3);
        let report = c.consolidate(&normal, ObsCtx::none()).unwrap();
        assert_eq!(report.servers_used, 3);
        let analysis = analyze_multi_failures(
            &c,
            &report,
            &normal,
            &failure,
            FailureScope::AllApplications,
            2,
        )
        .unwrap();
        // C(3, 2) = 3 pairs; with every app at 2 CPUs, 12 total fits one
        // surviving server.
        assert_eq!(analysis.cases.len(), 3);
        assert!(analysis.all_supported(), "{analysis:?}");
        assert_eq!(analysis.unsupported_count(), 0);
        for case in &analysis.cases {
            assert_eq!(case.failed_servers.len(), 2);
            assert_eq!(case.affected.len(), 4);
            assert_eq!(case.placement.as_ref().unwrap().servers_used, 1);
        }
    }

    #[test]
    fn double_failure_unsupported_without_relief() {
        let normal: Vec<Workload> = (0..6).map(|i| wl(&format!("w{i}"), 7.0)).collect();
        let c = consolidator(5);
        let report = c.consolidate(&normal, ObsCtx::none()).unwrap();
        assert_eq!(report.servers_used, 3);
        let analysis =
            analyze_multi_failures(&c, &report, &normal, &normal, FailureScope::AffectedOnly, 2)
                .unwrap();
        // Six 7s cannot fit one 16-way survivor.
        assert_eq!(analysis.unsupported_count(), 3);
        assert!(!analysis.all_supported());
    }

    #[test]
    fn multi_failure_rejects_degenerate_k() {
        let normal = vec![wl("a", 2.0), wl("b", 2.0)];
        let c = consolidator(0);
        let report = c.consolidate(&normal, ObsCtx::none()).unwrap();
        for k in [0, report.servers_used, report.servers_used + 1] {
            let err = analyze_multi_failures(
                &c,
                &report,
                &normal,
                &normal,
                FailureScope::AffectedOnly,
                k,
            )
            .unwrap_err();
            assert!(
                matches!(err, PlacementError::InvalidServer { .. }),
                "k = {k}"
            );
        }
    }

    #[test]
    fn mismatched_workload_vectors_are_rejected() {
        let normal = vec![wl("a", 1.0)];
        let c = consolidator(0);
        let report = c.consolidate(&normal, ObsCtx::none()).unwrap();
        let err = analyze_single_failures(&c, &report, &normal, &[], FailureScope::AffectedOnly)
            .unwrap_err();
        assert!(matches!(err, PlacementError::MisalignedWorkloads { .. }));
    }
}
