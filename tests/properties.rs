//! Property-based tests over the core R-Opus invariants.
//!
//! These use an hourly calendar (24 slots/day, 168/week) so each generated
//! trace stays small while still exercising the weekly θ machinery.

use proptest::prelude::*;
use ropus_obs::ObsCtx;

use ropus::case_study::{translate_fleet_threaded, CaseConfig};
use ropus::prelude::*;
use ropus_placement::failure::{analyze_multi_failures, MultiFailureAnalysis};
use ropus_placement::simulator::{access_probability, AggregateLoad, FitOptions, FitRequest};
use ropus_placement::workload::Workload;
use ropus_placement::PlacementError;
use ropus_qos::portfolio::{breakpoint, split_demand, worst_case_utilization};
use ropus_qos::translation::{demand_cap, translate};
use ropus_trace::gen::AppWorkload;
use ropus_trace::{kernels, stats, FleetMatrix};

fn hourly() -> Calendar {
    Calendar::new(60).unwrap()
}

/// A week of non-negative hourly demand samples.
fn demand_week() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..20.0, 168)
}

/// A valid utilization band with visible gaps between the bounds.
fn band_strategy() -> impl Strategy<Value = UtilizationBand> {
    (0.05f64..0.7, 0.05f64..0.25)
        .prop_map(|(low, gap)| UtilizationBand::new(low, (low + gap).min(0.97)).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn breakpoint_is_a_probability_and_monotone_in_theta(
        band in band_strategy(),
        theta_lo in 0.01f64..1.0,
        delta in 0.0f64..0.5,
    ) {
        let theta_hi = (theta_lo + delta).min(1.0);
        let p_lo = breakpoint(band, &CosSpec::new(theta_lo, 60).unwrap());
        let p_hi = breakpoint(band, &CosSpec::new(theta_hi, 60).unwrap());
        prop_assert!((0.0..=1.0).contains(&p_lo));
        prop_assert!((0.0..=1.0).contains(&p_hi));
        prop_assert!(p_hi <= p_lo + 1e-12, "p({theta_hi}) = {p_hi} > p({theta_lo}) = {p_lo}");
    }

    #[test]
    fn split_reassembles_capped_demand(
        demand in 0.0f64..50.0,
        p in 0.0f64..=1.0,
        cap in 0.0f64..30.0,
    ) {
        let split = split_demand(demand, p, cap);
        prop_assert!(split.cos1 >= 0.0 && split.cos2 >= 0.0);
        prop_assert!((split.total() - demand.min(cap)).abs() < 1e-9);
        prop_assert!(split.cos1 <= p * cap + 1e-9);
    }

    #[test]
    fn worst_case_utilization_never_exceeds_u_degr_after_translation(
        samples in demand_week(),
        theta in 0.05f64..=1.0,
        t_degr in prop::option::of(1u32..240),
    ) {
        let trace = Trace::from_samples(hourly(), samples).unwrap();
        let qos = AppQos::new(
            UtilizationBand::new(0.5, 0.66).unwrap(),
            Some(DegradationSpec::new(0.03, 0.9, t_degr).unwrap()),
        );
        let cos2 = CosSpec::new(theta, 60).unwrap();
        let t = translate(&trace, &qos, &cos2, ObsCtx::none()).unwrap();
        prop_assert!(t.report.max_worst_case_utilization <= 0.9 + 1e-9);
        prop_assert!(t.report.degraded_fraction <= 0.03 + 1e-9);
        prop_assert!(t.report.d_new_max <= t.report.d_max + 1e-9);
        prop_assert!(t.report.max_cap_reduction >= -1e-12);
        prop_assert!(t.report.max_cap_reduction <= 1.0 - 0.66 / 0.9 + 1e-9);
    }

    #[test]
    fn time_limit_only_raises_the_cap(
        samples in demand_week(),
        theta in 0.05f64..=1.0,
    ) {
        let trace = Trace::from_samples(hourly(), samples).unwrap();
        let cos2 = CosSpec::new(theta, 60).unwrap();
        let free = AppQos::new(
            UtilizationBand::new(0.5, 0.66).unwrap(),
            Some(DegradationSpec::new(0.03, 0.9, None).unwrap()),
        );
        let limited = AppQos::new(
            UtilizationBand::new(0.5, 0.66).unwrap(),
            Some(DegradationSpec::new(0.03, 0.9, Some(120)).unwrap()),
        );
        let t_free = translate(&trace, &free, &cos2, ObsCtx::none()).unwrap();
        let t_limited = translate(&trace, &limited, &cos2, ObsCtx::none()).unwrap();
        prop_assert!(t_limited.report.d_new_max >= t_free.report.d_new_max - 1e-9);
        prop_assert_eq!(
            t_free.report.d_new_max_before_time_limit,
            t_limited.report.d_new_max_before_time_limit
        );
    }

    #[test]
    fn translation_respects_u_low_below_breakpoint_share(
        samples in demand_week(),
        theta in 0.05f64..=1.0,
    ) {
        let trace = Trace::from_samples(hourly(), samples).unwrap();
        let band = UtilizationBand::new(0.5, 0.66).unwrap();
        let qos = AppQos::strict(band);
        let cos2 = CosSpec::new(theta, 60).unwrap();
        let t = translate(&trace, &qos, &cos2, ObsCtx::none()).unwrap();
        // Strict QoS: cap = D_max, so every observation's worst-case
        // utilization is at most U_high.
        for &d in trace.samples() {
            let u = worst_case_utilization(d, band, &cos2, t.report.d_new_max);
            if t.report.d_max > 0.0 {
                prop_assert!(u <= band.high() + 1e-9, "u = {u} for d = {d}");
            }
        }
    }

    #[test]
    fn access_probability_is_monotone_in_capacity(
        samples in demand_week(),
        cap_lo in 0.5f64..10.0,
        extra in 0.0f64..10.0,
    ) {
        let trace = Trace::from_samples(hourly(), samples).unwrap();
        let zero = Trace::constant(hourly(), 0.0, 168).unwrap();
        let w = Workload::new("w", zero, trace).unwrap();
        let load = AggregateLoad::of(&[&w]).unwrap();
        let lo = access_probability(&load, cap_lo);
        let hi = access_probability(&load, cap_lo + extra);
        prop_assert!((0.0..=1.0).contains(&lo));
        prop_assert!(hi >= lo - 1e-12);
    }

    #[test]
    fn required_capacity_is_minimal_and_sufficient(
        samples in demand_week(),
        theta in 0.5f64..=1.0,
    ) {
        let trace = Trace::from_samples(hourly(), samples).unwrap();
        let zero = Trace::constant(hourly(), 0.0, 168).unwrap();
        let w = Workload::new("w", zero, trace).unwrap();
        let load = AggregateLoad::of(&[&w]).unwrap();
        let commitments = PoolCommitments::new(CosSpec::new(theta, 60).unwrap());
        let limit = load.total_peak().max(1.0) + 1.0;
        let request = FitRequest::new(&load, &commitments)
            .with_options(FitOptions::new().with_tolerance(0.01));
        if let Some(req) = request.required_capacity(limit) {
            prop_assert!(request.evaluate(req).fits);
            if req > 0.05 {
                prop_assert!(
                    !request.evaluate(req - 0.05).fits,
                    "required {req} is not minimal"
                );
            }
        } else {
            // Must genuinely not fit at the limit.
            prop_assert!(!request.evaluate(limit).fits);
        }
    }

    #[test]
    fn epoch_budget_never_lowers_the_cap_and_meets_the_budget(
        samples in demand_week(),
        theta in 0.05f64..=1.0,
        budget in 1u32..6,
    ) {
        let trace = Trace::from_samples(hourly(), samples).unwrap();
        let cos2 = CosSpec::new(theta, 60).unwrap();
        let free = AppQos::new(
            UtilizationBand::new(0.5, 0.66).unwrap(),
            Some(DegradationSpec::new(0.03, 0.9, None).unwrap()),
        );
        let budgeted = AppQos::new(
            UtilizationBand::new(0.5, 0.66).unwrap(),
            Some(
                DegradationSpec::new(0.03, 0.9, None)
                    .unwrap()
                    .with_epoch_budget(budget)
                    .unwrap(),
            ),
        );
        let t_free = translate(&trace, &free, &cos2, ObsCtx::none()).unwrap();
        let t_budgeted = translate(&trace, &budgeted, &cos2, ObsCtx::none()).unwrap();
        prop_assert!(t_budgeted.report.d_new_max >= t_free.report.d_new_max - 1e-9);
        prop_assert!(
            t_budgeted.report.max_degraded_epochs_per_week <= budget as usize,
            "epochs {} > budget {budget}",
            t_budgeted.report.max_degraded_epochs_per_week
        );
        // All other guarantees survive the extra constraint.
        prop_assert!(t_budgeted.report.degraded_fraction <= 0.03 + 1e-9);
        prop_assert!(t_budgeted.report.max_worst_case_utilization <= 0.9 + 1e-9);
    }

    #[test]
    fn memory_attribute_only_ever_shrinks_feasibility(
        samples in demand_week(),
        memory_gb in 1.0f64..100.0,
        capacity in 8.0f64..64.0,
    ) {
        let trace = Trace::from_samples(hourly(), samples).unwrap();
        let zero = Trace::constant(hourly(), 0.0, 168).unwrap();
        let memory = Trace::constant(hourly(), memory_gb, 168).unwrap();
        let plain = Workload::new("w", zero.clone(), trace.clone()).unwrap();
        let with_memory =
            Workload::new("w", zero, trace).unwrap().with_memory(memory).unwrap();
        let commitments = PoolCommitments::new(CosSpec::new(0.9, 60).unwrap());
        let plain_load = AggregateLoad::of(&[&plain]).unwrap();
        let mem_load = AggregateLoad::of(&[&with_memory]).unwrap();
        let plain_fits = FitRequest::new(&plain_load, &commitments)
            .evaluate(capacity)
            .fits;
        let mem_fits = FitRequest::new(&mem_load, &commitments)
            .with_options(FitOptions::new().with_memory_capacity(64.0))
            .evaluate(capacity)
            .fits;
        // Adding a memory requirement can only remove feasibility.
        if mem_fits {
            prop_assert!(plain_fits);
        }
        // And it is exactly the peak test.
        prop_assert_eq!(mem_fits, plain_fits && memory_gb <= 64.0 + 1e-9);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded(
        samples in proptest::collection::vec(0.0f64..100.0, 1..300),
        q1 in 0.0f64..=100.0,
        dq in 0.0f64..=50.0,
    ) {
        let q2 = (q1 + dq).min(100.0);
        let p1 = ropus_trace::stats::percentile(&samples, q1);
        let p2 = ropus_trace::stats::percentile(&samples, q2);
        prop_assert!(p1 <= p2 + 1e-12);
        let max = samples.iter().copied().fold(f64::MIN, f64::max);
        let min = samples.iter().copied().fold(f64::MAX, f64::min);
        prop_assert!(p1 >= min - 1e-12 && p1 <= max + 1e-12);
    }

    #[test]
    fn multi_failure_unsupported_fraction_is_monotone_in_k(
        levels in proptest::collection::vec(0.5f64..6.0, 6),
        seed in 0u64..1000,
    ) {
        // Six constant 7-CPU workloads force exactly two per 16-way in
        // normal mode (three at 21 CPUs breaks θ = 0.9); the failure-mode
        // sizes are drawn per app, so whether the survivors can absorb
        // k simultaneous failures varies case to case.
        let week = hourly().slots_per_week();
        let zero = Trace::constant(hourly(), 0.0, week).unwrap();
        let constant = |level: f64| Trace::constant(hourly(), level, week).unwrap();
        let normal: Vec<Workload> = (0..6)
            .map(|i| Workload::new(format!("w{i}"), zero.clone(), constant(7.0)).unwrap())
            .collect();
        let failure: Vec<Workload> = levels
            .iter()
            .enumerate()
            .map(|(i, &f)| Workload::new(format!("w{i}"), zero.clone(), constant(f)).unwrap())
            .collect();
        let commitments = PoolCommitments::new(CosSpec::new(0.9, 60).unwrap());
        let c = Consolidator::new(
            ServerSpec::sixteen_way(),
            commitments,
            ConsolidationOptions::fast(seed),
        );
        let report = c.consolidate(&normal, ObsCtx::none()).unwrap();
        prop_assert_eq!(report.servers_used, 3);

        let sweep = |k: usize| -> Result<MultiFailureAnalysis, PlacementError> {
            analyze_multi_failures(
                &c,
                &report,
                &normal,
                &failure,
                FailureScope::AllApplications,
                k,
            )
        };
        let one = sweep(1).unwrap();
        let two = sweep(2).unwrap();
        // The unsupported *fraction* never shrinks as failures compound;
        // cross-multiplied so no float division is involved.
        prop_assert!(
            two.unsupported_count() * one.cases.len()
                >= one.unsupported_count() * two.cases.len(),
            "fraction dropped: {}/{} at k=1 vs {}/{} at k=2",
            one.unsupported_count(),
            one.cases.len(),
            two.unsupported_count(),
            two.cases.len()
        );
        if one.unsupported_count() > 0 {
            prop_assert!(two.unsupported_count() > 0);
        }

        // Degenerate sweeps (no failures, or nothing left standing) are
        // rejected up front rather than reported as an empty analysis.
        for k in [0, report.servers_used, report.servers_used + 1] {
            let err = sweep(k).unwrap_err();
            prop_assert!(matches!(err, PlacementError::InvalidServer { .. }), "k = {}", k);
        }
    }

    /// Every element-wise columnar kernel is *bitwise* equal to the
    /// obvious scalar loop it replaced — not approximately, since chunked
    /// independent elements never reassociate anything.
    #[test]
    fn elementwise_kernels_are_bit_identical_to_scalar_loops(
        pairs in proptest::collection::vec((0.0f64..50.0, 0.0f64..50.0), 0..200),
        cap in 0.0f64..30.0,
        factor in 0.0f64..2.0,
        p in 0.0f64..=1.0,
    ) {
        let (a, b): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();

        let mut acc = a.clone();
        kernels::add_assign(&mut acc, &b);
        for ((&x, &y), &got) in a.iter().zip(&b).zip(&acc) {
            prop_assert_eq!((x + y).to_bits(), got.to_bits());
        }

        let mut out = Vec::new();
        kernels::sub_saturating_into(&mut out, &a, &b);
        for ((&x, &y), &got) in a.iter().zip(&b).zip(&out) {
            prop_assert_eq!((x - y).max(0.0).to_bits(), got.to_bits());
        }

        kernels::cap_scale_into(&mut out, &a, cap, factor);
        for (&x, &got) in a.iter().zip(&out) {
            prop_assert_eq!((x.min(cap) * factor).to_bits(), got.to_bits());
        }

        // The fused CoS split reproduces per-sample `split_demand` exactly.
        let mut cos1 = Vec::new();
        let mut cos2 = Vec::new();
        kernels::split_cos_into(&a, p, cap, factor, &mut cos1, &mut cos2);
        for ((&d, &c1), &c2) in a.iter().zip(&cos1).zip(&cos2) {
            let split = split_demand(d, p, cap);
            prop_assert_eq!((split.cos1 * factor).to_bits(), c1.to_bits());
            prop_assert_eq!((split.cos2 * factor).to_bits(), c2.to_bits());
        }
    }

    /// Fleet aggregation and order statistics agree bitwise across all
    /// three implementations: the slot-major `FleetMatrix` path, the
    /// `add_assign` column accumulation, and the scalar per-slot sum —
    /// and the count-first `M_degr` cap matches formulas 2–3 over the
    /// sorted-cache percentile.
    #[test]
    fn fleet_aggregation_and_percentiles_match_scalar_references(
        fleet in proptest::collection::vec(proptest::collection::vec(0.0f64..20.0, 168), 1..6),
        m_degr in 0.0f64..1.0,
        u_degr in 0.67f64..0.99,
    ) {
        let traces: Vec<Trace> = fleet
            .iter()
            .map(|s| Trace::from_samples(hourly(), s.clone()).unwrap())
            .collect();
        let matrix = FleetMatrix::from_traces(&traces).unwrap();

        let aggregate = matrix.aggregate();
        let mut columnar = vec![0.0; 168];
        for column in &fleet {
            kernels::add_assign(&mut columnar, column);
        }
        for slot in 0..168 {
            let mut scalar = 0.0;
            for column in &fleet {
                scalar += column[slot];
            }
            prop_assert_eq!(scalar.to_bits(), aggregate[slot].to_bits());
            prop_assert_eq!(scalar.to_bits(), columnar[slot].to_bits());
        }

        // The one-shot sort and the per-trace sorted cache return the same
        // order statistic, and the cap that selects it only among the
        // samples that cover `A_degr` picks formula 2 or 3 exactly as the
        // cap over that percentile does, bit for bit.
        let band = UtilizationBand::paper_default();
        let qos = AppQos::new(band, Some(DegradationSpec::new(m_degr, u_degr, None).unwrap()));
        let q = 100.0 * (1.0 - m_degr);
        for (trace, column) in traces.iter().zip(&fleet) {
            let d_m = trace.percentile_upper(q);
            prop_assert_eq!(d_m.to_bits(), stats::percentile_upper(column, q).to_bits());
            let d_max = trace.peak();
            let expected = if d_m / band.high() >= d_max / u_degr {
                d_m
            } else {
                d_max * band.high() / u_degr
            };
            let index = kernels::BlockMax::new(trace.samples(), trace.calendar().slots_per_week());
            prop_assert_eq!(demand_cap(&index, &qos).to_bits(), expected.to_bits());
        }
    }

    /// A translation's split reproduces the two class traces translation
    /// used to materialize, bit for bit: an all-`+0.0` CoS1 beside
    /// `cap_scaled` demand when `p = 0` (sharing the demand when the cap
    /// cannot bind), `split_cos_into` otherwise. Demand mixes in `-0.0`
    /// and all-zero weeks.
    #[test]
    fn translation_split_reproduces_the_materialized_classes(
        samples in demand_week(),
        zeros in (0u32..4, 0u32..168),
        band in band_strategy(),
        theta in 0.5f64..1.0,
    ) {
        let (zero_kind, stride) = zeros;
        let samples: Vec<f64> = samples
            .into_iter()
            .enumerate()
            .map(|(i, d)| match zero_kind {
                0 => 0.0,
                1 if i % (stride as usize + 1) == 0 => -0.0,
                _ => d,
            })
            .collect();
        let demand = Trace::from_samples(hourly(), samples).unwrap();
        let qos = AppQos::new(band, None);
        let t = translate(&demand, &qos, &CosSpec::new(theta, 60).unwrap(), ObsCtx::none()).unwrap();
        let (p, cap, factor) = (t.report.breakpoint, t.report.d_new_max, band.burst_factor());
        let (cos1, cos2) = if p == 0.0 {
            (
                Trace::constant(hourly(), 0.0, demand.len()).unwrap(),
                demand.cap_scaled(cap, factor).unwrap(),
            )
        } else {
            let (mut c1, mut c2) = (Vec::new(), Vec::new());
            kernels::split_cos_into(demand.samples(), p, cap, factor, &mut c1, &mut c2);
            (
                Trace::from_samples(hourly(), c1).unwrap(),
                Trace::from_samples(hourly(), c2).unwrap(),
            )
        };
        let bits = |t: &Trace| t.iter().map(f64::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(bits(&t.cos1()), bits(&cos1));
        prop_assert_eq!(bits(&t.cos2()), bits(&cos2));
        let w = Workload::from_translation("app", t);
        let twin = Workload::new("app", cos1, cos2).unwrap();
        prop_assert_eq!(w.cos1_peak().to_bits(), twin.cos1_peak().to_bits());
        prop_assert_eq!(w.total_peak().to_bits(), twin.total_peak().to_bits());
        prop_assert_eq!(
            serde_json::to_string(&w).unwrap(),
            serde_json::to_string(&twin).unwrap()
        );
    }

    /// The threaded fleet translation (the 10k-plan entry point) is a pure
    /// function of the fleet: 1 worker and 4 workers produce bit-identical
    /// reports and workload columns for arbitrary demand traces.
    #[test]
    fn threaded_translation_matches_serial_on_arbitrary_fleets(
        fleet in proptest::collection::vec(proptest::collection::vec(0.0f64..20.0, 168), 1..6),
    ) {
        let apps: Vec<AppWorkload> = fleet
            .into_iter()
            .enumerate()
            .map(|(i, samples)| AppWorkload {
                name: format!("app-{i}"),
                trace: Trace::from_samples(hourly(), samples).unwrap(),
            })
            .collect();
        let case = CaseConfig::table1()[2];
        let serial = translate_fleet_threaded(&apps, &case, 1).unwrap();
        let threaded = translate_fleet_threaded(&apps, &case, 4).unwrap();
        prop_assert_eq!(&serial, &threaded);
        for (s, t) in serial.iter().zip(&threaded) {
            for (a, b) in s
                .workload
                .cos1()
                .samples()
                .iter()
                .zip(t.workload.cos1().samples())
            {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in s
                .workload
                .cos2()
                .samples()
                .iter()
                .zip(t.workload.cos2().samples())
            {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn fleet_savings_aggregate_is_bounded_by_components(
        samples in demand_week(),
    ) {
        let trace = Trace::from_samples(hourly(), samples).unwrap();
        let qos = AppQos::paper_default(None);
        let cos2 = CosSpec::new(0.9, 60).unwrap();
        let r = translate(&trace, &qos, &cos2, ObsCtx::none()).unwrap().report;
        let agg = ropus_qos::analysis::FleetSavings::aggregate(&[r, r]);
        prop_assert!((agg.total_peak_allocation - 2.0 * r.peak_allocation).abs() < 1e-9);
        prop_assert!(agg.max_cap_reduction >= agg.mean_cap_reduction - 1e-12);
    }
}
