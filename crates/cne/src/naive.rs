//! The `Naive` baseline (Algorithm 1): count common neighbors on the noisy graph.

use crate::engine::{ProtocolEnv, RoundContext};
use crate::error::Result;
use crate::estimate::{AlgorithmKind, ChosenParameters, EstimateReport};
use crate::estimator::CommonNeighborEstimator;
use crate::protocol::{randomized_response_round_packed, Query};
use ldp::noisy_graph::NoisyGraphViewPacked;
use serde::{Deserialize, Serialize};

/// The naive estimator: both query vertices perturb their neighbor lists with
/// randomized response using the full budget `ε`, and the curator simply
/// intersects the two noisy lists.
///
/// Because the noisy graph is much denser than the original (every absent edge
/// materialises with probability `p = 1/(1+e^ε)`), the count is severely
/// biased upwards — the motivation for every other algorithm in this crate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Naive;

impl CommonNeighborEstimator for Naive {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Naive
    }

    fn estimate_in(
        &self,
        env: ProtocolEnv<'_>,
        query: &Query,
        mut ctx: RoundContext<'_>,
    ) -> Result<EstimateReport> {
        query.validate(env.graph)?;

        // Vertex side: u and w perturb their neighbor lists with the full ε
        // (packed-native rows — see `randomized_response_round_packed`).
        let round = randomized_response_round_packed(
            env,
            query.layer,
            &[query.u, query.w],
            ctx.total(),
            1,
            &mut ctx,
        )?;
        let mut noisy = round.noisy.into_iter();
        let noisy_u = noisy.next().expect("two lists requested");
        let noisy_w = noisy.next().expect("two lists requested");

        // Curator side: intersect the noisy rows word-parallel.
        let view = NoisyGraphViewPacked::new(noisy_u, noisy_w);
        let estimate = view.noisy_intersection_size() as f64;

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

    /// A sparse graph where u and w share a handful of neighbors among many
    /// candidates — the regime where Naive overcounts badly.
    fn sparse_graph() -> (BipartiteGraph, Query) {
        let n_lower = 2_000u32;
        let edges = (0..5u32)
            .map(|v| (0u32, v))
            .chain((3..8u32).map(|v| (1u32, v)));
        let g = BipartiteGraph::from_edges(2, n_lower as usize, edges).unwrap();
        (g, Query::new(Layer::Upper, 0, 1))
    }

    #[test]
    fn naive_overcounts_on_sparse_graphs() {
        let (g, q) = sparse_graph();
        let truth = q.exact_count(&g).unwrap() as f64; // = 2
        let mut rng = StdRng::seed_from_u64(7);
        let runs = 60;
        let mean: f64 = (0..runs)
            .map(|_| Naive.estimate(&g, &q, 1.0, &mut rng).unwrap().estimate)
            .sum::<f64>()
            / runs as f64;
        // Expected intersection of two noisy lists ≈ n1·p² plus a small
        // signal term — with n1=2000 and ε=1 this is ≈ 28, far above 2.
        assert!(
            mean > truth * 3.0,
            "Naive should substantially overcount: mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn report_metadata() {
        let (g, q) = sparse_graph();
        let mut rng = StdRng::seed_from_u64(1);
        let report = Naive.estimate(&g, &q, 2.0, &mut rng).unwrap();
        assert_eq!(report.algorithm, AlgorithmKind::Naive);
        assert_eq!(report.rounds, 1);
        assert!(report.estimate >= 0.0);
        assert!((report.budget.consumed() - 2.0).abs() < 1e-9);
        // Both query vertices uploaded noisy edges.
        assert_eq!(report.transcript.message_count(), 2);
        assert!(report.communication_bytes() > 0);
        assert_eq!(report.parameters, ChosenParameters::default());
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (g, _) = sparse_graph();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(Naive
            .estimate(&g, &Query::new(Layer::Upper, 0, 0), 1.0, &mut rng)
            .is_err());
        assert!(Naive
            .estimate(&g, &Query::new(Layer::Upper, 0, 5), 1.0, &mut rng)
            .is_err());
        assert!(Naive
            .estimate(&g, &Query::new(Layer::Upper, 0, 1), 0.0, &mut rng)
            .is_err());
        assert!(Naive
            .estimate(&g, &Query::new(Layer::Upper, 0, 1), -1.0, &mut rng)
            .is_err());
    }

    #[test]
    fn lower_layer_queries_work() {
        let g = BipartiteGraph::from_edges(
            50,
            4,
            (0..20u32).map(|u| (u, 0)).chain((0..20u32).map(|u| (u, 1))),
        )
        .unwrap();
        let q = Query::new(Layer::Lower, 0, 1);
        let mut rng = StdRng::seed_from_u64(3);
        let report = Naive.estimate(&g, &q, 2.0, &mut rng).unwrap();
        assert!(report.estimate >= 0.0);
    }

    #[test]
    fn large_epsilon_recovers_truth() {
        let (g, q) = sparse_graph();
        let truth = q.exact_count(&g).unwrap() as f64;
        let mut rng = StdRng::seed_from_u64(11);
        let report = Naive.estimate(&g, &q, 30.0, &mut rng).unwrap();
        assert_eq!(report.estimate, truth);
    }
}
