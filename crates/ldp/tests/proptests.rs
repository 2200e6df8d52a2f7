//! Property-based tests for the LDP substrate.

use bigraph::bitset::PackedSet;
use ldp::budget::{BudgetAccountant, Composition, PrivacyBudget};
use ldp::laplace::{sample_laplace, LaplaceMechanism};
use ldp::mechanism::Sensitivity;
use ldp::randomized_response::{PerturbScratch, RandomizedResponse};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

fn arb_epsilon() -> impl Strategy<Value = f64> {
    0.1f64..8.0
}

proptest! {
    /// Flip probability is always in (0, 0.5) and decreasing in epsilon.
    #[test]
    fn flip_probability_in_range(eps in arb_epsilon()) {
        let rr = RandomizedResponse::new(PrivacyBudget::new(eps).unwrap());
        let p = rr.flip_probability();
        prop_assert!(p > 0.0 && p < 0.5);
        let rr2 = RandomizedResponse::new(PrivacyBudget::new(eps + 0.5).unwrap());
        prop_assert!(rr2.flip_probability() < p);
        prop_assert!((rr.keep_probability() + p - 1.0).abs() < 1e-12);
    }

    /// The unbiased edge estimator has expectation equal to the true bit for
    /// any epsilon (checked symbolically through the two-outcome expectation).
    #[test]
    fn edge_estimator_unbiased(eps in arb_epsilon()) {
        let rr = RandomizedResponse::new(PrivacyBudget::new(eps).unwrap());
        let p = rr.flip_probability();
        let phi1 = rr.unbiased_edge_estimate(true);
        let phi0 = rr.unbiased_edge_estimate(false);
        // true bit = 1
        prop_assert!(((1.0 - p) * phi1 + p * phi0 - 1.0).abs() < 1e-9);
        // true bit = 0
        prop_assert!((p * phi1 + (1.0 - p) * phi0).abs() < 1e-9);
        // variance formula is symmetric and positive
        prop_assert!(rr.edge_estimate_variance() > 0.0);
    }

    /// Perturbed rows span exactly the opposite layer and hold no id past it.
    #[test]
    fn perturbed_rows_are_well_formed(
        eps in arb_epsilon(),
        seed in any::<u64>(),
        degree in 0usize..30,
        extra in 1usize..100,
    ) {
        let opposite = degree + extra;
        let truth: Vec<u32> = (0..degree as u32).collect();
        let rr = RandomizedResponse::new(PrivacyBudget::new(eps).unwrap());
        let mut rng = StdRng::seed_from_u64(seed);
        let noisy =
            rr.perturb_neighbor_list_packed(&truth, None, opposite, &mut rng, &mut PerturbScratch::new());
        prop_assert_eq!(noisy.universe(), opposite);
        prop_assert_eq!(noisy.as_words().len(), opposite.div_ceil(64));
        prop_assert!(noisy.to_sorted_ids().iter().all(|&v| (v as usize) < opposite));
    }

    /// Expected noisy-edge formula is bounded by the opposite-layer size and
    /// never smaller than both endpoints' contributions.
    #[test]
    fn expected_noisy_edges_bounds(eps in arb_epsilon(), d in 0usize..200, n in 200usize..2000) {
        let rr = RandomizedResponse::new(PrivacyBudget::new(eps).unwrap());
        let e = rr.expected_noisy_edges(d, n);
        prop_assert!(e >= 0.0);
        prop_assert!(e <= n as f64);
    }

    /// Laplace mechanism scale equals sensitivity / epsilon and variance 2b².
    #[test]
    fn laplace_scale_formula(eps in arb_epsilon(), sens in 0.1f64..10.0) {
        let m = LaplaceMechanism::new(
            PrivacyBudget::new(eps).unwrap(),
            Sensitivity::new(sens).unwrap(),
        );
        prop_assert!((m.scale() - sens / eps).abs() < 1e-12);
        prop_assert!((m.noise_variance() - 2.0 * (sens / eps).powi(2)).abs() < 1e-9);
    }

    /// Laplace samples are finite for any positive scale.
    #[test]
    fn laplace_samples_finite(scale in 0.01f64..100.0, seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            let x = sample_laplace(scale, &mut rng);
            prop_assert!(x.is_finite());
        }
    }

    /// Budget splits always sum back to the original budget.
    #[test]
    fn budget_splits_sum(eps in arb_epsilon(), k in 1usize..10, frac in 0.01f64..0.99) {
        let b = PrivacyBudget::new(eps).unwrap();
        let parts = b.split_even(k).unwrap();
        let sum: f64 = parts.iter().map(|p| p.value()).sum();
        prop_assert!((sum - eps).abs() < 1e-9);
        let (a, c) = b.split_fraction(frac).unwrap();
        prop_assert!((a.value() + c.value() - eps).abs() < 1e-9);
        prop_assert!(a.value() > 0.0 && c.value() > 0.0);
    }

    /// An accountant never reports consumption above its allowance, and
    /// rejects charges that would exceed it.
    #[test]
    fn accountant_never_exceeds(
        eps in 0.5f64..4.0,
        charges in prop::collection::vec((0.01f64..2.0, any::<bool>()), 1..12),
    ) {
        let total = PrivacyBudget::new(eps).unwrap();
        let mut acc = BudgetAccountant::new(total);
        for (i, (amount, parallel)) in charges.into_iter().enumerate() {
            let comp = if parallel { Composition::Parallel } else { Composition::Sequential };
            let label = ldp::Label::Indexed("c", i as u32, "");
            let _ = acc.charge(label, PrivacyBudget::new(amount).unwrap(), comp);
            prop_assert!(acc.consumed() <= eps * (1.0 + 1e-9) + 1e-9);
        }
        prop_assert!(acc.remaining() >= 0.0);
    }

    /// Sequential-only consumption is exactly the sum of accepted charges.
    #[test]
    fn sequential_consumption_is_additive(
        eps in 2.0f64..10.0,
        amounts in prop::collection::vec(0.01f64..0.5, 1..8),
    ) {
        let total = PrivacyBudget::new(eps).unwrap();
        let mut acc = BudgetAccountant::new(total);
        let mut accepted = 0.0;
        for (i, a) in amounts.into_iter().enumerate() {
            if acc
                .charge(
                    ldp::Label::Indexed("c", i as u32, ""),
                    PrivacyBudget::new(a).unwrap(),
                    Composition::Sequential,
                )
                .is_ok()
            {
                accepted += a;
            }
        }
        prop_assert!((acc.consumed() - accepted).abs() < 1e-9);
    }
}

/// Statistical test (not proptest): the empirical flip rate matches p within
/// a tolerance for a couple of representative budgets.
#[test]
fn empirical_flip_rates() {
    for eps in [0.5, 1.0, 2.0] {
        let rr = RandomizedResponse::new(PrivacyBudget::new(eps).unwrap());
        let mut rng = StdRng::seed_from_u64(1234 + eps.to_bits() % 1000);
        let trials = 100_000;
        let flips = (0..trials)
            .filter(|_| rr.perturb_bit(false, &mut rng))
            .count();
        let rate = flips as f64 / trials as f64;
        assert!(
            (rate - rr.flip_probability()).abs() < 0.01,
            "eps {eps}: rate {rate} vs p {}",
            rr.flip_probability()
        );
    }
}

// ---------------------------------------------------------------------------
// Skip-sampled randomized response vs the dense per-bit reference sampler.
// ---------------------------------------------------------------------------

proptest! {
    /// The skip sampler keeps every bit inside the universe and its
    /// population count equal to its set bits, for arbitrary budgets,
    /// seeds, degrees, and layer sizes.
    #[test]
    fn skip_sampler_output_is_well_formed(
        eps in arb_epsilon(),
        seed in any::<u64>(),
        degree in 0usize..40,
        extra in 1usize..200,
    ) {
        let opposite = degree + extra;
        let truth: Vec<u32> = (0..degree as u32).map(|i| i * 2).collect();
        let rr = RandomizedResponse::new(PrivacyBudget::new(eps).unwrap());
        let mut rng = StdRng::seed_from_u64(seed);
        // Spread the true neighbors out so flips can land between them.
        let opposite = opposite + degree;
        let noisy =
            rr.perturb_neighbor_list_packed(&truth, None, opposite, &mut rng, &mut PerturbScratch::new());
        let ids = noisy.to_sorted_ids();
        prop_assert!(ids.iter().all(|&v| (v as usize) < opposite), "in range");
        prop_assert_eq!(ids.len(), noisy.len(), "population count");
    }

    /// With a huge budget the skip sampler reproduces the truth, like the
    /// dense sampler does. The ε values straddle the float-precision
    /// regimes: ε = 25 (p ≈ 1e-11, where `1.0 - p` is still < 1.0), ε = 50
    /// and 700 (p so small that `1.0 - p` rounds to exactly 1.0 — the
    /// `ln_1p` path; a naive `ln(1.0 - p)` collapses every gap to zero and
    /// returns the *complement* of the list here), and ε = 1000 (p
    /// underflows to exactly 0 — the early-return guard).
    #[test]
    fn skip_sampler_identity_at_high_budget(seed in any::<u64>(), degree in 0usize..30) {
        let truth: Vec<u32> = (0..degree as u32).map(|i| i * 3 + 1).collect();
        let n = 3 * degree + 10;
        let true_packed = PackedSet::from_sorted(&truth, n);
        let mut scratch = PerturbScratch::new();
        for eps in [25.0, 50.0, 700.0, 1000.0] {
            let rr = RandomizedResponse::new(PrivacyBudget::new(eps).unwrap());
            for cached in [None, Some(&true_packed)] {
                let mut rng = StdRng::seed_from_u64(seed);
                let noisy = rr.perturb_neighbor_list_packed(&truth, cached, n, &mut rng, &mut scratch);
                prop_assert_eq!(noisy.to_sorted_ids(), truth.clone(), "eps {}", eps);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Packed-native perturbation and the batched draw pipeline.
// ---------------------------------------------------------------------------

/// An arbitrary sorted true-neighbor list inside an arbitrary universe.
fn arb_row() -> impl Strategy<Value = (Vec<u32>, usize)> {
    (0usize..60, 1usize..6000).prop_map(|(degree, extra)| {
        let n = degree + extra;
        let stride = (n / degree.max(1)).max(1) as u32;
        let truth: Vec<u32> = (0..degree as u32)
            .map(|i| i * stride)
            .filter(|&v| (v as usize) < n)
            .collect();
        (truth, n)
    })
}

proptest! {
    /// The packed pipeline sets exactly the ids of the scalar reference
    /// sampler for random rows and budgets — covering the skip (low-ε,
    /// table) and near-dense (high-ε, formula) regimes, with and without a
    /// pre-packed true bitmap — and consumes the RNG stream draw-for-draw
    /// identically to it.
    #[test]
    fn packed_native_equals_scalar_reference_and_stream(
        (truth, n) in arb_row(),
        eps in 0.1f64..8.0,
        seed in any::<u64>(),
    ) {
        let rr = RandomizedResponse::new(PrivacyBudget::new(eps).unwrap());
        let mut scratch = PerturbScratch::new();
        let true_packed = PackedSet::from_sorted(&truth, n);

        let mut rng_scalar = StdRng::seed_from_u64(seed);
        let mut rng_packed = StdRng::seed_from_u64(seed);
        let mut rng_cached = StdRng::seed_from_u64(seed);

        let scalar = rr.perturb_neighbor_list_scalar_reference(&truth, n, &mut rng_scalar);
        let packed = rr.perturb_neighbor_list_packed(&truth, None, n, &mut rng_packed, &mut scratch);
        let cached =
            rr.perturb_neighbor_list_packed(&truth, Some(&true_packed), n, &mut rng_cached, &mut scratch);

        // Identical bits with and without the cached bitmap.
        prop_assert_eq!(packed.to_sorted_ids(), scalar.clone());
        prop_assert_eq!(&cached, &packed);
        prop_assert_eq!(packed.len(), scalar.len());

        // Identical RNG stream consumption: the post-call stream positions
        // of all three samplers coincide.
        let next = rng_scalar.next_u64();
        prop_assert_eq!(rng_packed.next_u64(), next);
        prop_assert_eq!(rng_cached.next_u64(), next);
    }
}

/// The batched pipeline at table-building scale (ε = 1 and 4 over a 100k
/// universe — the bench workload) stays draw-for-draw identical to the
/// scalar reference, with and without a cached true bitmap. Kept out of
/// proptest so the big universes run once.
#[test]
fn batched_pipeline_stream_identity_at_bench_scale() {
    let n = 100_000usize;
    let truth: Vec<u32> = (0..10u32).map(|i| i * 9_999).collect();
    let true_packed = PackedSet::from_sorted(&truth, n);
    let mut scratch = PerturbScratch::new();
    for eps in [1.0f64, 4.0] {
        let rr = RandomizedResponse::new(PrivacyBudget::new(eps).unwrap());
        for seed in [5u64, 71, 901] {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let mut rng_c = StdRng::seed_from_u64(seed);
            let scalar = rr.perturb_neighbor_list_scalar_reference(&truth, n, &mut rng_a);
            let cached = rr.perturb_neighbor_list_packed(
                &truth,
                Some(&true_packed),
                n,
                &mut rng_b,
                &mut scratch,
            );
            let packed = rr.perturb_neighbor_list_packed(&truth, None, n, &mut rng_c, &mut scratch);
            assert_eq!(packed.to_sorted_ids(), scalar, "eps {eps} seed {seed}");
            assert_eq!(cached, packed, "cached eps {eps} seed {seed}");
            let next = rng_a.next_u64();
            assert_eq!(
                rng_b.next_u64(),
                next,
                "cached stream eps {eps} seed {seed}"
            );
            assert_eq!(
                rng_c.next_u64(),
                next,
                "packed stream eps {eps} seed {seed}"
            );
        }
    }
}

/// χ² goodness-of-fit at fixed seeds: for both the skip sampler and the dense
/// reference, the aggregate counts of the four bit transitions (1→1, 1→0,
/// 0→1, 0→0) must match the analytic randomized-response probabilities. Both
/// samplers passing the same test against the same analytic law is the
/// distribution-identity check the skip-sampling rewrite is gated on.
#[test]
fn skip_and_dense_samplers_match_rr_law_chi_squared() {
    let n = 400usize;
    let truth: Vec<u32> = (0..25u32).map(|i| i * 7).collect(); // d = 25
    let d = truth.len();
    let runs = 3_000usize;

    for (eps, seed) in [(1.0, 11u64), (4.0, 13u64)] {
        let rr = RandomizedResponse::new(PrivacyBudget::new(eps).unwrap());
        let p = rr.flip_probability();

        // counts = (kept ones, dropped ones, flipped zeros, silent zeros)
        let mut scratch = PerturbScratch::new();
        let mut tally = |use_skip: bool, seed: u64| -> [f64; 4] {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut counts = [0f64; 4];
            for _ in 0..runs {
                let noisy = if use_skip {
                    rr.perturb_neighbor_list_packed(&truth, None, n, &mut rng, &mut scratch)
                        .to_sorted_ids()
                } else {
                    rr.perturb_neighbor_list_dense(&truth, n, &mut rng)
                };
                let kept_ones = noisy
                    .iter()
                    .filter(|v| truth.binary_search(v).is_ok())
                    .count();
                let flipped_zeros = noisy.len() - kept_ones;
                counts[0] += kept_ones as f64;
                counts[1] += (d - kept_ones) as f64;
                counts[2] += flipped_zeros as f64;
                counts[3] += ((n - d) - flipped_zeros) as f64;
            }
            counts
        };

        let expected = [
            runs as f64 * d as f64 * (1.0 - p),
            runs as f64 * d as f64 * p,
            runs as f64 * (n - d) as f64 * p,
            runs as f64 * (n - d) as f64 * (1.0 - p),
        ];
        for (label, counts) in [("skip", tally(true, seed)), ("dense", tally(false, seed))] {
            let chi2: f64 = counts
                .iter()
                .zip(&expected)
                .map(|(obs, exp)| (obs - exp) * (obs - exp) / exp)
                .sum();
            // 2 effective degrees of freedom (ones and zeros each split in
            // two); the 99.9th percentile of χ²(2) is 13.8 — use a little
            // headroom so the fixed-seed test is robust yet still sharp
            // enough to catch a mis-specified sampler immediately.
            assert!(
                chi2 < 20.0,
                "{label} sampler failed chi^2 at eps {eps}: {chi2:.2} (counts {counts:?} expected {expected:?})"
            );
        }
    }
}

/// The skip sampler's mean noisy degree matches the analytic expectation for
/// a sparse-large configuration (the batch-engine workload shape).
#[test]
fn skip_sampler_density_sparse_large() {
    let n = 100_000usize;
    let truth: Vec<u32> = (0..10u32).map(|i| i * 9_999).collect(); // d = 10
    let rr = RandomizedResponse::new(PrivacyBudget::new(4.0).unwrap());
    let mut rng = StdRng::seed_from_u64(7);
    let mut scratch = PerturbScratch::new();
    let runs = 200;
    let total: usize = (0..runs)
        .map(|_| {
            rr.perturb_neighbor_list_packed(&truth, None, n, &mut rng, &mut scratch)
                .len()
        })
        .sum();
    let avg = total as f64 / runs as f64;
    let expected = rr.expected_noisy_edges(truth.len(), n);
    // Binomial sd per run is ~42; the mean of 200 runs has se ~3.
    assert!(
        (avg - expected).abs() < 15.0,
        "avg {avg} vs expected {expected}"
    );
}

// ---------------------------------------------------------------------------
// Batched per-user stream setup.
// ---------------------------------------------------------------------------

proptest! {
    /// Batched per-user stream setup + one keyed draw per stream equals the
    /// per-user scalar path (`seed_from_u64` then `sample_laplace`) exactly.
    #[test]
    fn keyed_laplace_matches_scalar_per_user(
        scale in 0.01f64..100.0,
        base in any::<u64>(),
        n in 1usize..70,
    ) {
        use ldp::laplace::sample_laplace_each;
        let seeds: Vec<u64> = (0..n as u64)
            .map(|v| base ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let mut streams = Vec::new();
        StdRng::seed_batch_from_u64(&seeds, &mut streams);
        let mut out = vec![0.0f64; n];
        sample_laplace_each(scale, &mut streams, &mut out);
        for (i, &s) in seeds.iter().enumerate() {
            let mut reference = StdRng::seed_from_u64(s);
            prop_assert_eq!(out[i].to_bits(), sample_laplace(scale, &mut reference).to_bits());
            // Stream positions coincide afterwards too.
            prop_assert_eq!(streams[i].next_u64(), reference.next_u64());
        }
    }
}
