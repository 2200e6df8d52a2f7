//! Property-based cross-crate tests of the privacy and statistical guarantees:
//! budget compliance for arbitrary parameters, unbiasedness, and the
//! theoretical loss relationships (Theorem 9).

use bigraph::{BipartiteGraph, Layer};
use cne::{
    CentralDP, CommonNeighborEstimator, MultiRDS, MultiRDSBasic, MultiRDSStar, MultiRSS, Naive,
    OneR, ProtocolEnv, Query, RoundContext,
};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Builds a random sparse bipartite graph plus a valid query pair.
fn arb_instance() -> impl Strategy<Value = (BipartiteGraph, Query)> {
    (2usize..6, 20usize..120, 0usize..200, any::<u64>()).prop_map(
        |(n_upper, n_lower, extra_edges, seed)| {
            let mut rng = ChaCha12Rng::seed_from_u64(seed);
            use rand::Rng;
            let mut edges = Vec::new();
            // Guarantee both query vertices have at least one edge.
            edges.push((0u32, 0u32));
            edges.push((1u32, 0u32));
            for _ in 0..extra_edges {
                edges.push((
                    rng.gen_range(0..n_upper) as u32,
                    rng.gen_range(0..n_lower) as u32,
                ));
            }
            let g = BipartiteGraph::from_edges(n_upper, n_lower, edges).expect("edges in range");
            (g, Query::new(Layer::Upper, 0, 1))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// No algorithm ever spends more than the requested privacy budget, for
    /// arbitrary graphs, budgets, and parameterisations.
    #[test]
    fn budget_is_never_exceeded(
        (g, query) in arb_instance(),
        epsilon in 0.2f64..5.0,
        fraction in 0.1f64..0.9,
        seed in any::<u64>(),
    ) {
        let algorithms: Vec<Box<dyn CommonNeighborEstimator>> = vec![
            Box::new(Naive),
            Box::new(OneR::default()),
            Box::new(MultiRSS::with_fraction(fraction).unwrap()),
            Box::new(MultiRDSBasic::with_fraction(fraction).unwrap()),
            Box::new(MultiRDS::default()),
            Box::new(MultiRDSStar),
            Box::new(CentralDP),
        ];
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        for algo in &algorithms {
            // Detailed mode so the per-charge ledger is retained; the
            // default lean mode keeps only the (identical) totals.
            let ctx = RoundContext::begin_detailed(epsilon, &mut rng).unwrap();
            let report = algo.estimate_in(ProtocolEnv::uncached(&g), &query, ctx).unwrap();
            prop_assert!(report.budget.consumed() <= epsilon * (1.0 + 1e-9) + 1e-9);
            prop_assert!(report.estimate.is_finite());
            // Every charge in the accounting is positive and labelled.
            prop_assert!(!report.budget.charges().is_empty());
            for charge in report.budget.charges() {
                prop_assert!(charge.epsilon > 0.0);
                prop_assert!(!charge.label.is_empty());
            }
        }
    }

    /// The chosen MultiR-DS allocation always sums back to the total budget
    /// and its weight stays in [0, 1].
    #[test]
    fn multirds_allocation_is_consistent(
        (g, query) in arb_instance(),
        epsilon in 0.5f64..4.0,
        seed in any::<u64>(),
    ) {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let report = MultiRDS::default().estimate(&g, &query, epsilon, &mut rng).unwrap();
        let p = report.parameters;
        let e0 = p.epsilon0.unwrap();
        let e1 = p.epsilon1.unwrap();
        let e2 = p.epsilon2.unwrap();
        prop_assert!((e0 + e1 + e2 - epsilon).abs() < 1e-9);
        prop_assert!(e0 > 0.0 && e1 > 0.0 && e2 > 0.0);
        let alpha = p.alpha.unwrap();
        prop_assert!((0.0..=1.0).contains(&alpha));
        prop_assert!(p.degree_u.unwrap() > 0.0);
        prop_assert!(p.degree_w.unwrap() > 0.0);
    }

    /// Theorem 9 (in its analytic form): the optimised double-source loss is
    /// never worse than either single-source loss, for arbitrary degrees and
    /// budgets.
    #[test]
    fn theorem9_optimised_loss_dominates(
        du in 1.0f64..2000.0,
        dw in 1.0f64..2000.0,
        epsilon in 0.5f64..4.0,
    ) {
        let opt = cne::optimizer::optimize_double_source(du, dw, epsilon);
        let half = epsilon / 2.0;
        let ss_u = cne::loss::single_source_l2(du, half, half);
        let ss_w = cne::loss::single_source_l2(dw, half, half);
        prop_assert!(opt.loss <= ss_u.min(ss_w) + 1e-9,
            "optimised {} vs best even-split single source {}", opt.loss, ss_u.min(ss_w));
        // And the analytic loss ordering of Table 3 holds for any n1 >= degrees.
        let n1 = (du.max(dw) as usize) * 4;
        let oner = cne::loss::one_round_l2(n1, du, dw, epsilon);
        prop_assert!(oner > ss_u.min(ss_w) * 0.99 || oner > opt.loss);
    }
}

/// Statistical unbiasedness of the unbiased estimators, end to end: the mean
/// over repeated runs approaches the exact count within Chebyshev-style
/// tolerances derived from the analytic variances.
#[test]
fn unbiased_estimators_center_on_truth() {
    // Fixed, moderately sized instance: deg(u) = 12, deg(w) = 40, overlap 6.
    let edges = (0..12u32)
        .map(|v| (0u32, v))
        .chain((6..46u32).map(|v| (1u32, v)));
    let g = BipartiteGraph::from_edges(2, 800, edges).expect("valid edges");
    let query = Query::new(Layer::Upper, 0, 1);
    let truth = query.exact_count(&g).expect("valid query") as f64;
    assert_eq!(truth, 6.0);
    let eps = 2.0;
    let runs = 700;

    let cases: Vec<(Box<dyn CommonNeighborEstimator>, f64)> = vec![
        (
            Box::new(OneR::default()),
            cne::loss::one_round_l2(800, 12.0, 40.0, eps),
        ),
        (
            Box::new(MultiRSS::default()),
            cne::loss::single_source_l2(12.0, 1.0, 1.0),
        ),
        (
            Box::new(MultiRDSBasic::default()),
            cne::loss::double_source_l2(12.0, 40.0, 0.5, 1.0, 1.0),
        ),
        (Box::new(CentralDP), cne::loss::central_dp_l2(eps)),
    ];
    let mut rng = ChaCha12Rng::seed_from_u64(2024);
    for (algo, variance) in cases {
        let mean: f64 = (0..runs)
            .map(|_| algo.estimate(&g, &query, eps, &mut rng).unwrap().estimate)
            .sum::<f64>()
            / runs as f64;
        let se = (variance / runs as f64).sqrt();
        assert!(
            (mean - truth).abs() < 5.0 * se + 0.05,
            "{}: mean {mean} deviates from truth {truth} (se {se})",
            algo.kind()
        );
    }
}
