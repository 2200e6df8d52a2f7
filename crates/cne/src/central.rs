//! The central-model baseline `CentralDP`.

use crate::engine::{ProtocolEnv, RoundContext};
use crate::error::Result;
use crate::estimate::{AlgorithmKind, ChosenParameters, EstimateReport};
use crate::estimator::CommonNeighborEstimator;
use crate::protocol::Query;
use ldp::budget::Composition;
use ldp::laplace::LaplaceMechanism;
use ldp::mechanism::Sensitivity;
use serde::{Deserialize, Serialize};

/// The central differential-privacy baseline.
///
/// A trusted curator with access to the whole graph computes the exact count
/// and releases `C2(u, w) + Lap(1/ε)` — the global sensitivity of a common-
/// neighbor count under edge DP is 1 because adding or removing one edge can
/// change the count by at most one. This is not a local-model algorithm; the
/// paper includes it to show the utility gap between the central and local
/// models, and so do we.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CentralDP;

impl CommonNeighborEstimator for CentralDP {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::CentralDP
    }

    fn estimate_in(
        &self,
        env: ProtocolEnv<'_>,
        query: &Query,
        mut ctx: RoundContext<'_>,
    ) -> Result<EstimateReport> {
        query.validate(env.graph)?;
        let total = ctx.total();

        ctx.charge("central:laplace", total, Composition::Sequential)?;
        let mechanism = LaplaceMechanism::new(total, Sensitivity::one());
        let exact = query.exact_count(env.graph)? as f64;
        let estimate = mechanism.perturb(exact, ctx.rng());
        ctx.record_scalar_upload(1, "central-release");

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

    fn toy() -> (BipartiteGraph, Query) {
        let edges = (0..10u32)
            .map(|v| (0u32, v))
            .chain((5..15u32).map(|v| (1u32, v)));
        let g = BipartiteGraph::from_edges(2, 100, edges).unwrap();
        (g, Query::new(Layer::Upper, 0, 1))
    }

    #[test]
    fn unbiased_with_laplace_variance() {
        let (g, q) = toy();
        let truth = q.exact_count(&g).unwrap() as f64; // 5
        let mut rng = StdRng::seed_from_u64(8);
        let runs = 20_000;
        let vals: Vec<f64> = (0..runs)
            .map(|_| CentralDP.estimate(&g, &q, 2.0, &mut rng).unwrap().estimate)
            .collect();
        let mean = vals.iter().sum::<f64>() / runs as f64;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / runs as f64;
        assert!((mean - truth).abs() < 0.05, "mean {mean}");
        let expected_var = crate::loss::central_dp_l2(2.0); // 0.5
        assert!(
            (var - expected_var).abs() < 0.1 * expected_var,
            "var {var} vs {expected_var}"
        );
    }

    #[test]
    fn central_beats_local_algorithms() {
        let (g, q) = toy();
        let truth = q.exact_count(&g).unwrap() as f64;
        let mut rng = StdRng::seed_from_u64(77);
        let runs = 200;
        let mut central_err = 0.0;
        let mut ss_err = 0.0;
        for _ in 0..runs {
            central_err +=
                (CentralDP.estimate(&g, &q, 2.0, &mut rng).unwrap().estimate - truth).abs();
            ss_err += (crate::MultiRSS::default()
                .estimate(&g, &q, 2.0, &mut rng)
                .unwrap()
                .estimate
                - truth)
                .abs();
        }
        assert!(central_err < ss_err);
    }

    #[test]
    fn report_metadata() {
        let (g, q) = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let report = CentralDP.estimate(&g, &q, 1.0, &mut rng).unwrap();
        assert_eq!(report.algorithm, AlgorithmKind::CentralDP);
        assert!(!report.algorithm.is_local());
        assert_eq!(report.rounds, 1);
        assert_eq!(report.communication_bytes(), 8);
        assert!((report.budget.consumed() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let (g, _) = toy();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(CentralDP
            .estimate(&g, &Query::new(Layer::Upper, 0, 0), 1.0, &mut rng)
            .is_err());
        assert!(CentralDP
            .estimate(&g, &Query::new(Layer::Upper, 0, 1), 0.0, &mut rng)
            .is_err());
    }
}
