//! The `MultiR-SS` algorithm (Algorithm 3): a two-round single-source estimator.

use crate::engine::{ProtocolEnv, RoundContext, ScratchArena};
use crate::error::{CneError, Result};
use crate::estimate::{AlgorithmKind, ChosenParameters, EstimateReport};
use crate::estimator::CommonNeighborEstimator;
use crate::protocol::{randomized_response_round_packed, Query};
use bigraph::bitset::PackedSet;
use bigraph::{Layer, VertexId};
use ldp::budget::{Composition, PrivacyBudget};
use ldp::laplace::LaplaceMechanism;
use ldp::mechanism::Sensitivity;
use serde::{Deserialize, Serialize};

/// The multiple-round single-source estimator.
///
/// Round 1: vertex `w` perturbs its neighbor list with budget `ε₁` and uploads
/// the noisy edges. Round 2: vertex `u` downloads them, combines them with its
/// **true** neighborhood to form
///
/// ```text
/// f_u(u, w) = Σ_{v ∈ N(u,G)} (A'[v,w] − p) / (1 − 2p)
///           = S₁ · (1−p)/(1−2p) − S₂ · p/(1−2p)
/// ```
///
/// (`S₁` = true neighbors of `u` that are noisy neighbors of `w`, `S₂` = the
/// rest), adds Laplace noise scaled to the global sensitivity `(1−p)/(1−2p)`
/// with budget `ε₂`, and uploads the single scalar. Restricting the candidate
/// pool to `N(u, G)` removes the `n₁` factor from the variance.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiRSS {
    /// Fraction of the total budget spent on the randomized-response round
    /// (`ε₁ = fraction · ε`, `ε₂ = (1 − fraction) · ε`). The paper's default
    /// is an even split.
    pub epsilon1_fraction: f64,
}

impl Default for MultiRSS {
    fn default() -> Self {
        Self {
            epsilon1_fraction: 0.5,
        }
    }
}

impl MultiRSS {
    /// Creates a MultiR-SS instance with a custom ε₁ fraction.
    ///
    /// # Errors
    ///
    /// Returns [`CneError::InvalidParameter`] unless `0 < fraction < 1`.
    pub fn with_fraction(fraction: f64) -> Result<Self> {
        if fraction > 0.0 && fraction < 1.0 {
            Ok(Self {
                epsilon1_fraction: fraction,
            })
        } else {
            Err(CneError::InvalidParameter {
                name: "epsilon1_fraction",
                reason: format!("must be strictly between 0 and 1, got {fraction}"),
            })
        }
    }
}

/// The unbiasing combination `S₁(1−p)/(1−2p) − S₂·p/(1−2p)` every
/// single-source variant applies to its hit/miss counts. One definition so
/// the bit-identical-across-variants contract cannot drift: each variant
/// differs only in *how* `S₁` is counted, never in this arithmetic.
#[inline]
fn unbias_counts(s1: u64, s2: u64, p: f64) -> f64 {
    let q = 1.0 - 2.0 * p;
    s1 as f64 * (1.0 - p) / q - s2 as f64 * p / q
}

/// The un-noised single-source value `f_source`: the true neighborhood of
/// `source` against the packed noisy row of the other query vertex. Shared
/// by MultiR-SS, both MultiR-DS variants and the batch round 2.
///
/// A sparse source bit-probes the row per neighbor; a dense one popcounts
/// its adjacency bitmap against the row — from the environment's
/// [`crate::engine::AdjacencyStore`] when it carries a warm one, otherwise
/// packed into `scratch` (no allocation). Every branch counts the same
/// intersection, so the value is bit-identical whichever ran.
#[must_use]
pub fn single_source_value_scratch(
    env: ProtocolEnv<'_>,
    layer: Layer,
    source: VertexId,
    other_packed: &PackedSet,
    flip_probability: f64,
    scratch: &mut ScratchArena,
) -> f64 {
    let s1 = env.true_intersection_with_scratch(layer, source, other_packed, scratch);
    let s2 = env.graph.neighbors(layer, source).len() as u64 - s1;
    unbias_counts(s1, s2, flip_probability)
}

/// The un-noised single-source values of one `source` against several noisy
/// rows at once: `out[i]` is bit-identical to
/// [`single_source_value_scratch`]`(env, layer, source, rows[i],
/// flip_probabilities[i], scratch)`.
///
/// The shared work — the strategy dispatch and (for a dense source) the
/// streaming of the candidate bitmap — runs once per source instead of once
/// per row via [`ProtocolEnv::true_intersection_multi_scratch`]; the
/// unbiasing stays the exact per-row arithmetic. `counts` is caller-provided
/// staging for the raw intersection sizes (same length as `rows`).
///
/// # Panics
///
/// Panics if `rows`, `flip_probabilities`, `counts`, and `out` disagree on
/// length.
#[allow(clippy::too_many_arguments)]
pub(crate) fn single_source_value_multi(
    env: ProtocolEnv<'_>,
    layer: Layer,
    source: VertexId,
    rows: &[&PackedSet],
    flip_probabilities: &[f64],
    scratch: &mut ScratchArena,
    counts: &mut [u64],
    out: &mut [f64],
) {
    assert_eq!(rows.len(), flip_probabilities.len(), "one p per row");
    assert_eq!(rows.len(), out.len(), "one value per row");
    env.true_intersection_multi_scratch(layer, source, rows, scratch, counts);
    let degree = env.graph.neighbors(layer, source).len() as u64;
    for ((slot, &s1), &p) in out.iter_mut().zip(counts.iter()).zip(flip_probabilities) {
        *slot = unbias_counts(s1, degree - s1, p);
    }
}

/// The global sensitivity of the single-source estimator: `(1−p)/(1−2p)`.
#[must_use]
pub fn single_source_sensitivity(flip_probability: f64) -> f64 {
    (1.0 - flip_probability) / (1.0 - 2.0 * flip_probability)
}

/// The Laplace mechanism used to release a single-source estimator computed
/// under flip probability `p` with Laplace budget `ε₂`.
///
/// # Errors
///
/// Propagates budget/sensitivity validation errors.
pub fn single_source_laplace(
    flip_probability: f64,
    epsilon2: PrivacyBudget,
) -> Result<LaplaceMechanism> {
    let sensitivity = Sensitivity::new(single_source_sensitivity(flip_probability))?;
    Ok(LaplaceMechanism::new(epsilon2, sensitivity))
}

impl CommonNeighborEstimator for MultiRSS {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::MultiRSS
    }

    fn estimate_in(
        &self,
        env: ProtocolEnv<'_>,
        query: &Query,
        mut ctx: RoundContext<'_>,
    ) -> Result<EstimateReport> {
        query.validate(env.graph)?;
        let (eps1, eps2) = ctx.total().split_fraction(self.epsilon1_fraction)?;

        // Round 1: w applies randomized response with ε₁ and uploads — the
        // noisy row is produced directly in packed form.
        let round1 =
            randomized_response_round_packed(env, query.layer, &[query.w], eps1, 1, &mut ctx)?;
        let p = round1.flip_probability;
        let noisy_w = round1.noisy.into_iter().next().expect("one list requested");

        // Round 2: u downloads the noisy edges of w ...
        ctx.record_download_packed(2, "noisy-edges(w) -> u", &noisy_w);
        // ... combines them with its own neighborhood (through the adjacency
        // cache when the run has one and u is dense — bit-identical either
        // way) ...
        let raw =
            single_source_value_scratch(env, query.layer, query.u, noisy_w.set(), p, ctx.scratch());
        // ... and releases the estimator through the Laplace mechanism.
        ctx.charge("round2:laplace(f_u)", eps2, Composition::Sequential)?;
        let laplace = single_source_laplace(p, eps2)?;
        let estimate = laplace.perturb(raw, ctx.rng());
        ctx.record_scalar_upload(2, "estimator(f_u)");

        let epsilon = ctx.epsilon();
        let (budget, transcript) = ctx.finish();
        Ok(EstimateReport {
            algorithm: self.kind(),
            estimate,
            epsilon,
            budget,
            transcript,
            rounds: 2,
            parameters: ChosenParameters {
                epsilon1: Some(eps1.value()),
                epsilon2: Some(eps2.value()),
                ..Default::default()
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::BipartiteGraph;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sparse_graph() -> (BipartiteGraph, Query) {
        let edges = (0..8u32)
            .map(|v| (0u32, v))
            .chain((4..12u32).map(|v| (1u32, v)));
        let g = BipartiteGraph::from_edges(2, 500, edges).unwrap();
        (g, Query::new(Layer::Upper, 0, 1))
    }

    /// The oracle: probe the noisy ids per true neighbor of `source`.
    fn probe_value(g: &BipartiteGraph, q: &Query, noisy_w: &[VertexId], p: f64) -> f64 {
        let neighbors = g.neighbors(q.layer, q.u);
        let s1 = neighbors
            .iter()
            .filter(|v| noisy_w.binary_search(v).is_ok())
            .count() as u64;
        unbias_counts(s1, neighbors.len() as u64 - s1, p)
    }

    /// Draws w's noisy ids with the scalar reference sampler.
    fn noisy_ids(
        g: &BipartiteGraph,
        q: &Query,
        eps: f64,
        rng: &mut StdRng,
    ) -> (Vec<VertexId>, f64) {
        let rr = ldp::RandomizedResponse::new(ldp::budget::PrivacyBudget::new(eps).unwrap());
        let ids = rr.perturb_neighbor_list_scalar_reference(
            g.neighbors(q.layer, q.w),
            g.layer_size(q.layer.opposite()),
            rng,
        );
        (ids, rr.flip_probability())
    }

    #[test]
    fn single_source_value_on_exact_noisy_list() {
        // If the "noisy" row equals the true row of w, S1 = C2 and
        // S2 = deg(u) − C2; the value is then slightly biased away from C2 by
        // construction (it is only unbiased in expectation over RR noise).
        let (g, q) = sparse_graph();
        let p = 0.2;
        let noisy_w = PackedSet::from_sorted(g.neighbors(q.layer, q.w), 500);
        let value = single_source_value_scratch(
            ProtocolEnv::uncached(&g),
            q.layer,
            q.u,
            &noisy_w,
            p,
            &mut ScratchArena::new(),
        );
        let s1 = 4.0;
        let s2 = 4.0;
        let expected = s1 * 0.8 / 0.6 - s2 * 0.2 / 0.6;
        assert!((value - expected).abs() < 1e-12);
    }

    #[test]
    fn packed_value_matches_probe_oracle() {
        let (g, q) = sparse_graph();
        let mut rng = StdRng::seed_from_u64(41);
        let mut scratch = ScratchArena::new();
        for eps in [0.5, 1.0, 4.0] {
            let (ids, p) = noisy_ids(&g, &q, eps, &mut rng);
            let oracle = probe_value(&g, &q, &ids, p);
            let packed = single_source_value_scratch(
                ProtocolEnv::uncached(&g),
                q.layer,
                q.u,
                &PackedSet::from_sorted(&ids, 500),
                p,
                &mut scratch,
            );
            assert_eq!(
                oracle.to_bits(),
                packed.to_bits(),
                "packed and probe paths must agree exactly at eps {eps}"
            );
        }
    }

    #[test]
    fn cached_value_matches_probe_oracle() {
        use crate::engine::AdjacencyStore;
        // A *dense* source: degree 40 over a 100-item universe (2 packed
        // words, dense threshold 4), so the store-backed popcount branch —
        // not just the probe path — is what gets compared.
        let edges = (0..40u32)
            .map(|v| (0u32, v))
            .chain((20..70u32).map(|v| (1u32, v)));
        let g = BipartiteGraph::from_edges(2, 100, edges).unwrap();
        let q = Query::new(Layer::Upper, 0, 1);
        let store = AdjacencyStore::new(&g);
        let mut rng = StdRng::seed_from_u64(43);
        let mut scratch = ScratchArena::new();
        for eps in [0.5, 1.0, 4.0] {
            let (ids, p) = noisy_ids(&g, &q, eps, &mut rng);
            let oracle = probe_value(&g, &q, &ids, p);
            let row = PackedSet::from_sorted(&ids, 100);
            for env in [ProtocolEnv::cached(&g, &store), ProtocolEnv::uncached(&g)] {
                let value = single_source_value_scratch(env, q.layer, q.u, &row, p, &mut scratch);
                assert_eq!(
                    oracle.to_bits(),
                    value.to_bits(),
                    "dense-source paths must agree exactly with the probe at eps {eps}"
                );
            }
        }
        assert!(
            store.cached_count(q.layer) > 0,
            "the dense source must actually have taken the store-backed branch"
        );
    }

    #[test]
    fn sensitivity_formula() {
        let p = 0.25;
        assert!((single_source_sensitivity(p) - 0.75 / 0.5).abs() < 1e-12);
        // Sensitivity grows as the budget shrinks (p -> 0.5).
        assert!(single_source_sensitivity(0.4) > single_source_sensitivity(0.1));
    }

    #[test]
    fn estimates_are_unbiased() {
        let (g, q) = sparse_graph();
        let truth = q.exact_count(&g).unwrap() as f64; // 4
        let mut rng = StdRng::seed_from_u64(17);
        let runs = 800;
        let algo = MultiRSS::default();
        let mean: f64 = (0..runs)
            .map(|_| algo.estimate(&g, &q, 2.0, &mut rng).unwrap().estimate)
            .sum::<f64>()
            / runs as f64;
        let var = crate::loss::single_source_l2(8.0, 1.0, 1.0);
        let se = (var / runs as f64).sqrt();
        assert!(
            (mean - truth).abs() < 5.0 * se + 0.05,
            "mean {mean} truth {truth} se {se}"
        );
    }

    #[test]
    fn empirical_variance_matches_theorem_6() {
        let (g, q) = sparse_graph();
        let mut rng = StdRng::seed_from_u64(23);
        let runs = 1_000;
        let algo = MultiRSS::default();
        let vals: Vec<f64> = (0..runs)
            .map(|_| algo.estimate(&g, &q, 2.0, &mut rng).unwrap().estimate)
            .collect();
        let mean = vals.iter().sum::<f64>() / runs as f64;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / runs as f64;
        let expected = crate::loss::single_source_l2(8.0, 1.0, 1.0);
        assert!(
            (var - expected).abs() < expected * 0.25,
            "empirical var {var} vs theoretical {expected}"
        );
    }

    #[test]
    fn variance_is_much_smaller_than_one_round() {
        // The headline claim: removing the n₁ factor slashes the error.
        let (g, q) = sparse_graph();
        let truth = q.exact_count(&g).unwrap() as f64;
        let mut rng = StdRng::seed_from_u64(31);
        let runs = 150;
        let mut ss_err = 0.0;
        let mut oner_err = 0.0;
        for _ in 0..runs {
            ss_err += (MultiRSS::default()
                .estimate(&g, &q, 1.0, &mut rng)
                .unwrap()
                .estimate
                - truth)
                .abs();
            oner_err += (crate::OneR::default()
                .estimate(&g, &q, 1.0, &mut rng)
                .unwrap()
                .estimate
                - truth)
                .abs();
        }
        assert!(
            ss_err < oner_err,
            "MultiR-SS MAE {} should beat OneR {}",
            ss_err / runs as f64,
            oner_err / runs as f64
        );
    }

    #[test]
    fn budget_split_and_transcript() {
        let (g, q) = sparse_graph();
        let mut rng = StdRng::seed_from_u64(3);
        let report = MultiRSS::default().estimate(&g, &q, 2.0, &mut rng).unwrap();
        assert_eq!(report.rounds, 2);
        assert_eq!(report.parameters.epsilon1, Some(1.0));
        assert_eq!(report.parameters.epsilon2, Some(1.0));
        assert!((report.budget.consumed() - 2.0).abs() < 1e-9);
        // Round 1 upload, round 2 download + scalar upload. The default run
        // is lean, so the count comes from the always-on stats.
        assert_eq!(report.transcript.message_count(), 3);
        assert!(report.transcript.messages().is_empty());
        assert_eq!(report.transcript.rounds(), 2);
    }

    #[test]
    fn custom_fraction_validated() {
        assert!(MultiRSS::with_fraction(0.3).is_ok());
        assert!(MultiRSS::with_fraction(0.0).is_err());
        assert!(MultiRSS::with_fraction(1.0).is_err());
        assert!(MultiRSS::with_fraction(f64::NAN).is_err());
        let (g, q) = sparse_graph();
        let mut rng = StdRng::seed_from_u64(5);
        let report = MultiRSS::with_fraction(0.25)
            .unwrap()
            .estimate(&g, &q, 2.0, &mut rng)
            .unwrap();
        assert!((report.parameters.epsilon1.unwrap() - 0.5).abs() < 1e-12);
        assert!((report.parameters.epsilon2.unwrap() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn invalid_query_rejected() {
        let (g, _) = sparse_graph();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(MultiRSS::default()
            .estimate(&g, &Query::new(Layer::Upper, 1, 1), 2.0, &mut rng)
            .is_err());
    }
}
