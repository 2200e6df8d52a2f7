//! The `OneR` algorithm (Algorithm 2): a one-round unbiased estimator.

use crate::engine::{ProtocolEnv, RoundContext};
use crate::error::Result;
use crate::estimate::{AlgorithmKind, ChosenParameters, EstimateReport};
use crate::estimator::CommonNeighborEstimator;
use crate::protocol::{randomized_response_round_packed, Query};
use ldp::noisy_graph::NoisyGraphViewPacked;
use serde::{Deserialize, Serialize};

/// The one-round unbiased estimator.
///
/// Both query vertices perturb their neighbor lists with the full budget; the
/// curator then computes
///
/// ```text
/// f̃₂(u, w) = Σ_v (A'[u,v] − p)(A'[v,w] − p) / (1 − 2p)²
/// ```
///
/// over every vertex `v` of the opposite layer. Using
/// `E[A'[i,j]] = A[i,j] + p(1 − 2A[i,j])` this is an unbiased estimate of
/// `C2(u, w)`, but its variance carries a factor of the opposite-layer size
/// `n₁` because every candidate vertex contributes noise.
///
/// The sum is evaluated with the expanded closed form of the paper
/// (Section 3.2), which only needs the noisy intersection size `N₁`, the
/// noisy union size `N₂`, and `n₁` — `O(deg)` curator work instead of `O(n₁)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OneR {
    /// If `true`, evaluate the estimator by the naive `O(n₁)` summation over
    /// all candidates instead of the closed form. The two are algebraically
    /// identical; the flag exists for the ablation benchmark that measures
    /// the cost of the unexpanded form.
    pub use_dense_sum: bool,
}

impl OneR {
    /// The closed-form evaluation given the noisy view (Section 3.2):
    /// `N₁ (1−p)²/(1−2p)² − (N₂−N₁)(1−p)p/(1−2p)² + (n₁−N₂) p²/(1−2p)²`.
    #[must_use]
    pub fn closed_form(n1: u64, n2: u64, opposite_size: usize, p: f64) -> f64 {
        let q = (1.0 - 2.0 * p) * (1.0 - 2.0 * p);
        let n1 = n1 as f64;
        let n2 = n2 as f64;
        let n = opposite_size as f64;
        n1 * (1.0 - p) * (1.0 - p) / q - (n2 - n1) * (1.0 - p) * p / q + (n - n2) * p * p / q
    }

    fn dense_sum(view: &NoisyGraphViewPacked, p: f64) -> f64 {
        let q = (1.0 - 2.0 * p) * (1.0 - 2.0 * p);
        let mut total = 0.0;
        for v in 0..view.opposite_size() as u32 {
            let au = if view.u.contains(v) { 1.0 } else { 0.0 };
            let aw = if view.w.contains(v) { 1.0 } else { 0.0 };
            total += (au - p) * (aw - p) / q;
        }
        total
    }
}

impl CommonNeighborEstimator for OneR {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::OneR
    }

    fn estimate_in(
        &self,
        env: ProtocolEnv<'_>,
        query: &Query,
        mut ctx: RoundContext<'_>,
    ) -> Result<EstimateReport> {
        query.validate(env.graph)?;

        // Vertex side: u and w perturb their neighbor lists with the full ε
        // — the noisy rows land directly in packed form, so the curator's
        // intersection below is one AND+popcount pass.
        let round = randomized_response_round_packed(
            env,
            query.layer,
            &[query.u, query.w],
            ctx.total(),
            1,
            &mut ctx,
        )?;
        let p = round.flip_probability;
        let mut noisy = round.noisy.into_iter();
        let view = NoisyGraphViewPacked::new(
            noisy.next().expect("two lists requested"),
            noisy.next().expect("two lists requested"),
        );

        // Curator side: unbiased correction.
        let estimate = if self.use_dense_sum {
            Self::dense_sum(&view, p)
        } else {
            let (n1, n2) = view.noisy_counts();
            Self::closed_form(n1, n2, view.opposite_size(), p)
        };

        let epsilon = ctx.epsilon();
        let (budget, transcript) = ctx.finish();
        Ok(EstimateReport {
            algorithm: self.kind(),
            estimate,
            epsilon,
            budget,
            transcript,
            rounds: 1,
            parameters: ChosenParameters::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::BipartiteGraph;
    use bigraph::Layer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sparse_graph() -> (BipartiteGraph, Query) {
        let edges = (0..8u32)
            .map(|v| (0u32, v))
            .chain((4..12u32).map(|v| (1u32, v)));
        let g = BipartiteGraph::from_edges(2, 500, edges).unwrap();
        (g, Query::new(Layer::Upper, 0, 1))
    }

    #[test]
    fn closed_form_equals_dense_sum() {
        let (g, q) = sparse_graph();
        for seed in 0..10 {
            let mut rng_a = StdRng::seed_from_u64(seed);
            let mut rng_b = StdRng::seed_from_u64(seed);
            let fast = OneR::default().estimate(&g, &q, 1.5, &mut rng_a).unwrap();
            let dense = OneR {
                use_dense_sum: true,
            }
            .estimate(&g, &q, 1.5, &mut rng_b)
            .unwrap();
            assert!(
                (fast.estimate - dense.estimate).abs() < 1e-9,
                "closed form {} vs dense {}",
                fast.estimate,
                dense.estimate
            );
        }
    }

    #[test]
    fn estimates_are_unbiased() {
        let (g, q) = sparse_graph();
        let truth = q.exact_count(&g).unwrap() as f64; // = 4
        let mut rng = StdRng::seed_from_u64(42);
        let runs = 600;
        let mean: f64 = (0..runs)
            .map(|_| {
                OneR::default()
                    .estimate(&g, &q, 2.0, &mut rng)
                    .unwrap()
                    .estimate
            })
            .sum::<f64>()
            / runs as f64;
        // Standard error of the mean is sqrt(Var/runs); Var here is roughly
        // n1·p²(1-p)²/(1-2p)^4 + ... ≈ 7, so SE ≈ 0.1. Allow 5 SEs.
        let var = crate::loss::one_round_l2(500, 8.0, 8.0, 2.0);
        let se = (var / runs as f64).sqrt();
        assert!(
            (mean - truth).abs() < 5.0 * se + 0.05,
            "mean {mean} truth {truth} se {se}"
        );
    }

    #[test]
    fn empirical_variance_matches_theorem_4() {
        let (g, q) = sparse_graph();
        let mut rng = StdRng::seed_from_u64(9);
        let runs = 800;
        let vals: Vec<f64> = (0..runs)
            .map(|_| {
                OneR::default()
                    .estimate(&g, &q, 2.0, &mut rng)
                    .unwrap()
                    .estimate
            })
            .collect();
        let mean = vals.iter().sum::<f64>() / runs as f64;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / runs as f64;
        let expected = crate::loss::one_round_l2(500, 8.0, 8.0, 2.0);
        assert!(
            (var - expected).abs() < expected * 0.25,
            "empirical var {var} vs theoretical {expected}"
        );
    }

    #[test]
    fn beats_naive_on_sparse_graphs() {
        let (g, q) = sparse_graph();
        let truth = q.exact_count(&g).unwrap() as f64;
        let mut rng = StdRng::seed_from_u64(5);
        let runs = 100;
        let mut naive_err = 0.0;
        let mut oner_err = 0.0;
        for _ in 0..runs {
            naive_err += (crate::Naive
                .estimate(&g, &q, 1.0, &mut rng)
                .unwrap()
                .estimate
                - truth)
                .abs();
            oner_err += (OneR::default()
                .estimate(&g, &q, 1.0, &mut rng)
                .unwrap()
                .estimate
                - truth)
                .abs();
        }
        assert!(
            oner_err < naive_err,
            "OneR mean abs error {} should beat Naive {}",
            oner_err / runs as f64,
            naive_err / runs as f64
        );
    }

    #[test]
    fn report_metadata() {
        let (g, q) = sparse_graph();
        let mut rng = StdRng::seed_from_u64(1);
        let report = OneR::default().estimate(&g, &q, 2.0, &mut rng).unwrap();
        assert_eq!(report.algorithm, AlgorithmKind::OneR);
        assert_eq!(report.rounds, 1);
        assert!((report.budget.consumed() - 2.0).abs() < 1e-9);
        assert_eq!(report.transcript.message_count(), 2);
    }

    #[test]
    fn closed_form_extreme_inputs() {
        // All candidates are common noisy neighbors.
        let p = 0.2;
        let all_common = OneR::closed_form(10, 10, 10, p);
        assert!(all_common > 0.0);
        // No noisy edges at all: estimate is n·p²/(1-2p)², small but positive.
        let none = OneR::closed_form(0, 0, 10, p);
        assert!(none > 0.0 && none < all_common);
    }

    #[test]
    fn invalid_budget_rejected() {
        let (g, q) = sparse_graph();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(OneR::default()
            .estimate(&g, &q, f64::NAN, &mut rng)
            .is_err());
    }
}
