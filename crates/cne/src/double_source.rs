//! The double-source algorithms (Algorithm 4): `MultiR-DS`, `MultiR-DS-Basic`
//! and `MultiR-DS*`.
//!
//! All three combine the two single-source estimators `f̃_u` and `f̃_w`:
//!
//! * [`MultiRDSBasic`] averages them with a fixed, even budget split —
//!   no degree estimation, no optimisation;
//! * [`MultiRDS`] spends a small budget `ε₀` on noisy degree estimates, then
//!   picks the budget split `ε₁` and the weight `α` that minimise the analytic
//!   L2 loss before running the remaining rounds;
//! * [`MultiRDSStar`] is `MultiR-DS` under the assumption that vertex degrees
//!   are public, so the `ε₀` round is skipped and the whole budget goes to the
//!   optimised `ε₁ + ε₂` split.

use crate::engine::{ProtocolEnv, RoundContext};
use crate::error::{CneError, Result};
use crate::estimate::{AlgorithmKind, ChosenParameters, EstimateReport};
use crate::estimator::CommonNeighborEstimator;
use crate::optimizer::optimize_double_source;
use crate::protocol::{randomized_response_round_packed, Query, SCALAR_BYTES};
use crate::single_source::{single_source_laplace, single_source_value_scratch};
use bigraph::VertexId;
use ldp::budget::{Composition, PrivacyBudget};
use ldp::laplace::LaplaceMechanism;
use ldp::mechanism::Sensitivity;
use ldp::transcript::{Direction, Label};
use serde::{Deserialize, Serialize};

/// Fraction of the total budget MultiR-DS spends on degree estimation
/// (`ε₀ = 0.05 ε`, the paper's default).
pub const DEFAULT_EPSILON0_FRACTION: f64 = 0.05;

/// The plain double-source estimator: `(f̃_u + f̃_w) / 2` with a fixed split.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiRDSBasic {
    /// Fraction of the budget spent on randomized response (`ε₁ = fraction·ε`).
    pub epsilon1_fraction: f64,
}

impl Default for MultiRDSBasic {
    fn default() -> Self {
        Self {
            epsilon1_fraction: 0.5,
        }
    }
}

impl MultiRDSBasic {
    /// Creates a basic double-source estimator with a custom ε₁ fraction.
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

/// The full MultiR-DS algorithm with degree estimation and `(ε₁, α)` optimisation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiRDS {
    /// Fraction of the budget spent on the degree-estimation round.
    pub epsilon0_fraction: f64,
}

impl Default for MultiRDS {
    fn default() -> Self {
        Self {
            epsilon0_fraction: DEFAULT_EPSILON0_FRACTION,
        }
    }
}

impl MultiRDS {
    /// Creates a MultiR-DS instance with a custom ε₀ fraction.
    ///
    /// # Errors
    ///
    /// Returns [`CneError::InvalidParameter`] unless `0 < fraction < 0.5`.
    pub fn with_epsilon0_fraction(fraction: f64) -> Result<Self> {
        if fraction > 0.0 && fraction < 0.5 {
            Ok(Self {
                epsilon0_fraction: fraction,
            })
        } else {
            Err(CneError::InvalidParameter {
                name: "epsilon0_fraction",
                reason: format!("must be in (0, 0.5), got {fraction}"),
            })
        }
    }
}

/// MultiR-DS with public degrees: no `ε₀` round, otherwise identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiRDSStar;

/// Outcome of the shared rounds 2–3 of the double-source algorithms.
struct DoubleSourceRounds {
    f_u: f64,
    f_w: f64,
}

/// Runs the RR round for both query vertices and builds both noisy
/// single-source estimators (rounds 2 and 3 of Algorithm 4).
fn run_double_source_rounds(
    env: ProtocolEnv<'_>,
    query: &Query,
    eps1: PrivacyBudget,
    eps2: PrivacyBudget,
    first_round: u32,
    ctx: &mut RoundContext<'_>,
) -> Result<DoubleSourceRounds> {
    // RR round: both u and w perturb and upload their noisy edges — the
    // rows are produced directly in packed form (cached adjacency bitmaps
    // OR in word-wise when the run has a warm store).
    let rr = randomized_response_round_packed(
        env,
        query.layer,
        &[query.u, query.w],
        eps1,
        first_round,
        ctx,
    )?;
    let p = rr.flip_probability;
    let mut noisy = rr.noisy.into_iter();
    let noisy_u = noisy.next().expect("two lists requested");
    let noisy_w = noisy.next().expect("two lists requested");

    // Estimator round: each query vertex downloads the other's noisy edges,
    // builds its single-source estimator, adds Laplace noise, and uploads it.
    let round = first_round + 1;
    ctx.record_download_packed(round, "noisy-edges(w) -> u", &noisy_w);
    ctx.record_download_packed(round, "noisy-edges(u) -> w", &noisy_u);

    let laplace = single_source_laplace(p, eps2)?;
    ctx.charge(
        Label::Indexed("round", round, ":laplace(f_u)"),
        eps2,
        Composition::Sequential,
    )?;
    // f_w is computed from w's own neighbor list — disjoint data from u's —
    // so its release composes in parallel with f_u's (Theorem 10).
    ctx.charge(
        Label::Indexed("round", round, ":laplace(f_w)"),
        eps2,
        Composition::Parallel,
    )?;

    // Both sub-estimators read the already-packed noisy rows: a dense
    // source popcounts its cached bitmap against the row, a sparse source
    // bit-probes it per neighbor (bit-identical either way — see
    // `single_source_value_scratch`).
    let raw_u =
        single_source_value_scratch(env, query.layer, query.u, noisy_w.set(), p, ctx.scratch());
    let raw_w =
        single_source_value_scratch(env, query.layer, query.w, noisy_u.set(), p, ctx.scratch());
    let f_u = laplace.perturb(raw_u, ctx.rng());
    let f_w = laplace.perturb(raw_w, ctx.rng());
    ctx.record_scalar_upload(round, "estimator(f_u)");
    ctx.record_scalar_upload(round, "estimator(f_w)");

    Ok(DoubleSourceRounds { f_u, f_w })
}

impl CommonNeighborEstimator for MultiRDSBasic {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::MultiRDSBasic
    }

    fn estimate_in(
        &self,
        env: ProtocolEnv<'_>,
        query: &Query,
        mut ctx: RoundContext<'_>,
    ) -> Result<EstimateReport> {
        query.validate(env.graph)?;
        let (eps1, eps2) = ctx.total().split_fraction(self.epsilon1_fraction)?;

        let rounds = run_double_source_rounds(env, query, eps1, eps2, 1, &mut ctx)?;
        let estimate = 0.5 * rounds.f_u + 0.5 * rounds.f_w;

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
                alpha: Some(0.5),
                ..Default::default()
            },
        })
    }
}

impl CommonNeighborEstimator for MultiRDS {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::MultiRDS
    }

    fn estimate_in(
        &self,
        env: ProtocolEnv<'_>,
        query: &Query,
        mut ctx: RoundContext<'_>,
    ) -> Result<EstimateReport> {
        query.validate(env.graph)?;
        let (eps0, eps_rest) = ctx.total().split_fraction(self.epsilon0_fraction)?;

        // ---- Round 1: degree estimation under ε₀ ----------------------------
        // Every vertex on the query layer reports its degree through the
        // Laplace mechanism (sensitivity 1). The reports cover disjoint
        // neighbor lists, so they compose in parallel and the round costs ε₀.
        ctx.charge("round1:laplace(degrees)", eps0, Composition::Sequential)?;
        let degree_laplace = LaplaceMechanism::new(eps0, Sensitivity::one());
        let layer_size = env.graph.layer_size(query.layer);
        let mut noisy_degree_sum = 0.0;
        let mut noisy_du = 0.0;
        let mut noisy_dw = 0.0;
        for v in 0..layer_size as VertexId {
            let noisy = degree_laplace.perturb(env.graph.degree(query.layer, v) as f64, ctx.rng());
            noisy_degree_sum += noisy;
            if v == query.u {
                noisy_du = noisy;
            }
            if v == query.w {
                noisy_dw = noisy;
            }
        }
        ctx.record(
            1,
            Direction::Upload,
            "noisy-degrees(layer)",
            layer_size * SCALAR_BYTES,
        );
        // Correct non-positive noisy degrees with the (noisy) layer average.
        let avg_degree = (noisy_degree_sum / layer_size.max(1) as f64).max(1.0);
        if noisy_du <= 0.0 {
            noisy_du = avg_degree;
        }
        if noisy_dw <= 0.0 {
            noisy_dw = avg_degree;
        }

        // ---- Choose (ε₁, α) minimising the analytic loss ---------------------
        let allocation = optimize_double_source(noisy_du, noisy_dw, eps_rest.value());
        let eps1 = PrivacyBudget::new(allocation.epsilon1)?;
        let eps2 = PrivacyBudget::new(allocation.epsilon2)?;
        let alpha = allocation.alpha;

        // ---- Rounds 2–3: RR + two single-source estimators -------------------
        let rounds = run_double_source_rounds(env, query, eps1, eps2, 2, &mut ctx)?;
        let estimate = alpha * rounds.f_u + (1.0 - alpha) * rounds.f_w;

        let epsilon = ctx.epsilon();
        let (budget, transcript) = ctx.finish();
        Ok(EstimateReport {
            algorithm: self.kind(),
            estimate,
            epsilon,
            budget,
            transcript,
            rounds: 3,
            parameters: ChosenParameters {
                epsilon0: Some(eps0.value()),
                epsilon1: Some(eps1.value()),
                epsilon2: Some(eps2.value()),
                alpha: Some(alpha),
                degree_u: Some(noisy_du),
                degree_w: Some(noisy_dw),
            },
        })
    }
}

impl CommonNeighborEstimator for MultiRDSStar {
    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::MultiRDSStar
    }

    fn estimate_in(
        &self,
        env: ProtocolEnv<'_>,
        query: &Query,
        mut ctx: RoundContext<'_>,
    ) -> Result<EstimateReport> {
        query.validate(env.graph)?;

        // Degrees are public: use them directly and optimise over the full ε.
        let du = env.graph.degree(query.layer, query.u) as f64;
        let dw = env.graph.degree(query.layer, query.w) as f64;
        let allocation = optimize_double_source(du.max(1e-9), dw.max(1e-9), ctx.epsilon());
        let eps1 = PrivacyBudget::new(allocation.epsilon1)?;
        let eps2 = PrivacyBudget::new(allocation.epsilon2)?;
        let alpha = allocation.alpha;

        let rounds = run_double_source_rounds(env, query, eps1, eps2, 1, &mut ctx)?;
        let estimate = alpha * rounds.f_u + (1.0 - alpha) * rounds.f_w;

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
                alpha: Some(alpha),
                degree_u: Some(du),
                degree_w: Some(dw),
                ..Default::default()
            },
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

    /// A graph with an imbalanced query pair: deg(u) = 6, deg(w) = 120.
    fn imbalanced_graph() -> (BipartiteGraph, Query) {
        let edges = (0..6u32)
            .map(|v| (0u32, v))
            .chain((0..120u32).map(|v| (1u32, v)))
            .chain((0..30u32).map(|v| (2u32, v + 50)));
        let g = BipartiteGraph::from_edges(3, 400, edges).unwrap();
        (g, Query::new(Layer::Upper, 0, 1))
    }

    #[test]
    fn ds_basic_is_unbiased() {
        let (g, q) = imbalanced_graph();
        let truth = q.exact_count(&g).unwrap() as f64; // 6
        let mut rng = StdRng::seed_from_u64(13);
        let runs = 800;
        let algo = MultiRDSBasic::default();
        let mean: f64 = (0..runs)
            .map(|_| algo.estimate(&g, &q, 2.0, &mut rng).unwrap().estimate)
            .sum::<f64>()
            / runs as f64;
        let var = crate::loss::double_source_l2(6.0, 120.0, 0.5, 1.0, 1.0);
        let se = (var / runs as f64).sqrt();
        assert!(
            (mean - truth).abs() < 5.0 * se + 0.05,
            "mean {mean} truth {truth}"
        );
    }

    #[test]
    fn ds_is_unbiased_and_beats_basic_on_imbalanced_pairs() {
        let (g, q) = imbalanced_graph();
        let truth = q.exact_count(&g).unwrap() as f64;
        let mut rng = StdRng::seed_from_u64(29);
        let runs = 400;
        let ds = MultiRDS::default();
        let basic = MultiRDSBasic::default();
        let mut ds_sq = 0.0;
        let mut basic_sq = 0.0;
        let mut ds_sum = 0.0;
        for _ in 0..runs {
            let a = ds.estimate(&g, &q, 2.0, &mut rng).unwrap().estimate;
            let b = basic.estimate(&g, &q, 2.0, &mut rng).unwrap().estimate;
            ds_sum += a;
            ds_sq += (a - truth) * (a - truth);
            basic_sq += (b - truth) * (b - truth);
        }
        let ds_mean = ds_sum / runs as f64;
        // Unbiasedness within a loose statistical tolerance.
        assert!(
            (ds_mean - truth).abs() < 1.0,
            "DS mean {ds_mean} vs truth {truth}"
        );
        // On a highly imbalanced pair DS should have lower squared error.
        assert!(
            ds_sq < basic_sq,
            "DS L2 {} should beat Basic {}",
            ds_sq / runs as f64,
            basic_sq / runs as f64
        );
    }

    #[test]
    fn ds_star_beats_or_matches_ds() {
        // DS* skips the ε₀ round, so it has more budget for the other rounds
        // and uses exact degrees: its error should not be (much) worse.
        let (g, q) = imbalanced_graph();
        let truth = q.exact_count(&g).unwrap() as f64;
        let mut rng = StdRng::seed_from_u64(41);
        let runs = 400;
        let mut star_sq = 0.0;
        let mut ds_sq = 0.0;
        for _ in 0..runs {
            let a = MultiRDSStar
                .estimate(&g, &q, 2.0, &mut rng)
                .unwrap()
                .estimate;
            let b = MultiRDS::default()
                .estimate(&g, &q, 2.0, &mut rng)
                .unwrap()
                .estimate;
            star_sq += (a - truth) * (a - truth);
            ds_sq += (b - truth) * (b - truth);
        }
        assert!(
            star_sq < ds_sq * 1.2,
            "DS* L2 {} should be <= ~DS L2 {}",
            star_sq / runs as f64,
            ds_sq / runs as f64
        );
    }

    #[test]
    fn ds_alpha_favours_low_degree_vertex() {
        let (g, q) = imbalanced_graph();
        let mut rng = StdRng::seed_from_u64(55);
        let report = MultiRDS::default().estimate(&g, &q, 2.0, &mut rng).unwrap();
        let alpha = report.parameters.alpha.unwrap();
        // deg(u) = 6 << deg(w) = 120, so f_u should dominate.
        assert!(
            alpha > 0.5,
            "alpha {alpha} should favour the low-degree vertex"
        );
        assert_eq!(report.rounds, 3);
        assert!(report.parameters.epsilon0.is_some());
        assert!(report.parameters.degree_u.is_some());
    }

    #[test]
    fn budgets_never_exceed_epsilon() {
        let (g, q) = imbalanced_graph();
        let mut rng = StdRng::seed_from_u64(3);
        for eps in [1.0, 2.0, 3.0] {
            for report in [
                MultiRDSBasic::default()
                    .estimate(&g, &q, eps, &mut rng)
                    .unwrap(),
                MultiRDS::default().estimate(&g, &q, eps, &mut rng).unwrap(),
                MultiRDSStar.estimate(&g, &q, eps, &mut rng).unwrap(),
            ] {
                assert!(
                    report.budget.consumed() <= eps + 1e-9,
                    "{}: consumed {} > {eps}",
                    report.algorithm,
                    report.budget.consumed()
                );
            }
        }
    }

    #[test]
    fn ds_communication_includes_degree_round() {
        let (g, q) = imbalanced_graph();
        let mut rng = StdRng::seed_from_u64(7);
        let mut detailed = |est: &dyn CommonNeighborEstimator| {
            let ctx = RoundContext::begin_detailed(2.0, &mut rng).unwrap();
            est.estimate_in(ProtocolEnv::uncached(&g), &q, ctx).unwrap()
        };
        let ds = detailed(&MultiRDS::default());
        // DS uploads one noisy degree per vertex of the query layer in round 1.
        let degree_msg = ds
            .transcript
            .messages()
            .iter()
            .find(|m| m.label == "noisy-degrees(layer)")
            .expect("MultiR-DS must record the degree-estimation upload");
        assert_eq!(degree_msg.bytes, g.layer_size(q.layer) * SCALAR_BYTES);
        assert_eq!(degree_msg.round, 1);
        // Basic and DS* skip the degree round entirely.
        let basic = detailed(&MultiRDSBasic::default());
        let star = detailed(&MultiRDSStar);
        for report in [&basic, &star] {
            assert!(report
                .transcript
                .messages()
                .iter()
                .all(|m| m.label != "noisy-degrees(layer)"));
        }
    }

    #[test]
    fn parameter_validation() {
        assert!(MultiRDSBasic::with_fraction(0.7).is_ok());
        assert!(MultiRDSBasic::with_fraction(0.0).is_err());
        assert!(MultiRDSBasic::with_fraction(1.0).is_err());
        assert!(MultiRDS::with_epsilon0_fraction(0.1).is_ok());
        assert!(MultiRDS::with_epsilon0_fraction(0.5).is_err());
        assert!(MultiRDS::with_epsilon0_fraction(-0.1).is_err());
    }

    #[test]
    fn invalid_queries_rejected() {
        let (g, _) = imbalanced_graph();
        let mut rng = StdRng::seed_from_u64(1);
        for algo in [
            Box::new(MultiRDSBasic::default()) as Box<dyn CommonNeighborEstimator>,
            Box::new(MultiRDS::default()),
            Box::new(MultiRDSStar),
        ] {
            assert!(algo
                .estimate(&g, &Query::new(Layer::Upper, 0, 0), 2.0, &mut rng)
                .is_err());
            assert!(algo
                .estimate(&g, &Query::new(Layer::Upper, 0, 1), -1.0, &mut rng)
                .is_err());
        }
    }
}
