//! The [`CommonNeighborEstimator`] trait unifying all algorithms.

use crate::engine::{ProtocolEnv, RoundContext};
use crate::error::Result;
use crate::estimate::{AlgorithmKind, EstimateReport};
use crate::protocol::Query;
use bigraph::BipartiteGraph;

/// A privacy-preserving estimator of the common-neighbor count `C2(u, w)`.
///
/// Implementations simulate both the vertex side and the curator side of the
/// protocol; the privacy guarantee is that everything recorded in the
/// returned transcript — i.e. everything that crosses the client/curator
/// boundary — satisfies `ε`-edge LDP.
///
/// The protocol logic lives in [`CommonNeighborEstimator::estimate_in`],
/// which runs in any [`ProtocolEnv`] (with or without an engine's warm
/// adjacency cache) and records into a [`RoundContext`] whose accounting
/// mode — lean or detailed — the caller chose when it opened the context.
/// The provided [`CommonNeighborEstimator::estimate`] is the one-shot
/// entry point: an uncached environment and a lean context. Both paths run
/// the same code, so they cannot drift apart.
///
/// The trait is object safe (`&mut dyn RngCore`), so experiment harnesses can
/// iterate over a heterogeneous list of algorithms.
pub trait CommonNeighborEstimator {
    /// Which algorithm this is.
    fn kind(&self) -> AlgorithmKind;

    /// Runs the protocol for `query` in `env`, reading and writing run
    /// state (budget, transcript, RNG stream, scratch) through `ctx`.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid queries (unknown vertices, `u == w`),
    /// an exhausted budget, or mis-configured algorithm parameters.
    fn estimate_in(
        &self,
        env: ProtocolEnv<'_>,
        query: &Query,
        ctx: RoundContext<'_>,
    ) -> Result<EstimateReport>;

    /// Runs the protocol for `query` on `g` with total privacy budget
    /// `epsilon`: [`CommonNeighborEstimator::estimate_in`] over
    /// [`ProtocolEnv::uncached`] in a lean [`RoundContext`].
    ///
    /// # Errors
    ///
    /// Non-positive, NaN, or infinite budgets, and the contract of
    /// [`CommonNeighborEstimator::estimate_in`].
    fn estimate(
        &self,
        g: &BipartiteGraph,
        query: &Query,
        epsilon: f64,
        rng: &mut dyn rand::RngCore,
    ) -> Result<EstimateReport> {
        let ctx = RoundContext::begin(epsilon, rng)?;
        self.estimate_in(ProtocolEnv::uncached(g), query, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CentralDP, Naive, OneR};
    use bigraph::Layer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> BipartiteGraph {
        BipartiteGraph::from_edges(
            2,
            30,
            (0..10u32).map(|v| (0, v)).chain((5..15u32).map(|v| (1, v))),
        )
        .unwrap()
    }

    #[test]
    fn trait_objects_work() {
        let algorithms: Vec<Box<dyn CommonNeighborEstimator>> = vec![
            Box::new(Naive),
            Box::new(OneR::default()),
            Box::new(CentralDP),
        ];
        let g = toy();
        let q = Query::new(Layer::Upper, 0, 1);
        let mut rng = StdRng::seed_from_u64(1);
        for algo in &algorithms {
            let report = algo.estimate(&g, &q, 2.0, &mut rng).unwrap();
            assert_eq!(report.algorithm, algo.kind());
            assert!(report.estimate.is_finite());
        }
    }
}
