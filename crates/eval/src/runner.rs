//! Evaluates algorithms over sampled query pairs.
//!
//! The paper's protocol is: sample 100 same-layer vertex pairs uniformly,
//! run each algorithm once per pair, and report the mean absolute error,
//! the wall-clock time, and the communication cost. [`evaluate_on_pairs`]
//! implements exactly that, parallelised across pairs with deterministic
//! per-pair seeding so results are reproducible regardless of thread count.
//! All runs go through one [`cne::EstimationEngine`] per call, so every pair
//! shares the same warm packed-adjacency cache.

use crate::metrics::{ErrorMetrics, Observation};
use bigraph::sampling::QueryPair;
use bigraph::BipartiteGraph;
use cne::{
    AlgorithmKind, CentralDP, CommonNeighborEstimator, EstimationEngine, MultiRDS, MultiRDSBasic,
    MultiRDSStar, MultiRSS, Naive, OneR, Query,
};
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// An algorithm choice plus its tunable parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AlgorithmSelection {
    /// The biased baseline.
    Naive,
    /// The one-round unbiased estimator.
    OneR,
    /// MultiR-SS with a given ε₁ fraction.
    MultiRSS {
        /// Fraction of ε used for randomized response.
        epsilon1_fraction: f64,
    },
    /// MultiR-DS-Basic with a given ε₁ fraction.
    MultiRDSBasic {
        /// Fraction of ε used for randomized response.
        epsilon1_fraction: f64,
    },
    /// The fully-optimised MultiR-DS.
    MultiRDS,
    /// MultiR-DS* (public degrees).
    MultiRDSStar,
    /// The central-model baseline.
    CentralDP,
}

impl AlgorithmSelection {
    /// The algorithm set of the paper's Fig. 6 (all edge-LDP algorithms plus
    /// the central baseline), with default parameters.
    #[must_use]
    pub fn figure6_set() -> Vec<AlgorithmSelection> {
        vec![
            AlgorithmSelection::Naive,
            AlgorithmSelection::OneR,
            AlgorithmSelection::MultiRSS {
                epsilon1_fraction: 0.5,
            },
            AlgorithmSelection::MultiRDS,
            AlgorithmSelection::MultiRDSStar,
            AlgorithmSelection::CentralDP,
        ]
    }

    /// The algorithm set of the ε-sweep in Fig. 7.
    #[must_use]
    pub fn figure7_set() -> Vec<AlgorithmSelection> {
        vec![
            AlgorithmSelection::Naive,
            AlgorithmSelection::OneR,
            AlgorithmSelection::MultiRSS {
                epsilon1_fraction: 0.5,
            },
            AlgorithmSelection::MultiRDS,
            AlgorithmSelection::CentralDP,
        ]
    }

    /// Which [`AlgorithmKind`] this selection builds.
    #[must_use]
    pub fn kind(&self) -> AlgorithmKind {
        match self {
            AlgorithmSelection::Naive => AlgorithmKind::Naive,
            AlgorithmSelection::OneR => AlgorithmKind::OneR,
            AlgorithmSelection::MultiRSS { .. } => AlgorithmKind::MultiRSS,
            AlgorithmSelection::MultiRDSBasic { .. } => AlgorithmKind::MultiRDSBasic,
            AlgorithmSelection::MultiRDS => AlgorithmKind::MultiRDS,
            AlgorithmSelection::MultiRDSStar => AlgorithmKind::MultiRDSStar,
            AlgorithmSelection::CentralDP => AlgorithmKind::CentralDP,
        }
    }
}

/// Builds a boxed estimator for a selection.
///
/// The estimator runs standalone
/// ([`cne::CommonNeighborEstimator::estimate`]), through an
/// [`EstimationEngine`]'s warm cache ([`EstimationEngine::estimate_with`]),
/// or in any caller-opened context
/// ([`cne::CommonNeighborEstimator::estimate_in`]) — byte-identically.
///
/// # Panics
///
/// Panics if a fraction parameter is outside `(0, 1)` — selections are
/// experiment configuration, so this is a programming error.
#[must_use]
pub fn build_estimator(
    selection: &AlgorithmSelection,
) -> Box<dyn CommonNeighborEstimator + Send + Sync> {
    match *selection {
        AlgorithmSelection::Naive => Box::new(Naive),
        AlgorithmSelection::OneR => Box::new(OneR::default()),
        AlgorithmSelection::MultiRSS { epsilon1_fraction } => {
            Box::new(MultiRSS::with_fraction(epsilon1_fraction).expect("valid fraction"))
        }
        AlgorithmSelection::MultiRDSBasic { epsilon1_fraction } => {
            Box::new(MultiRDSBasic::with_fraction(epsilon1_fraction).expect("valid fraction"))
        }
        AlgorithmSelection::MultiRDS => Box::new(MultiRDS::default()),
        AlgorithmSelection::MultiRDSStar => Box::new(MultiRDSStar),
        AlgorithmSelection::CentralDP => Box::new(CentralDP),
    }
}

/// The outcome of running one algorithm on one query pair.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairEvaluation {
    /// The query pair.
    pub u: u32,
    /// The query pair.
    pub w: u32,
    /// The exact common-neighbor count.
    pub truth: f64,
    /// The estimator's output.
    pub estimate: f64,
    /// Bytes exchanged between clients and curator.
    pub communication_bytes: usize,
    /// Wall-clock time of the protocol run.
    pub elapsed: Duration,
}

/// Aggregate results of one algorithm over a set of pairs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSummary {
    /// Which algorithm ran.
    pub algorithm: AlgorithmKind,
    /// The privacy budget used.
    pub epsilon: f64,
    /// Per-pair results in pair order.
    pub evaluations: Vec<PairEvaluation>,
    /// Aggregate error metrics.
    pub metrics: ErrorMetrics,
    /// Sum of per-pair wall-clock times.
    pub total_time: Duration,
    /// Mean communication cost per pair, in bytes.
    pub mean_communication_bytes: f64,
}

impl RunSummary {
    /// Mean communication cost per pair in megabytes (Fig. 10's unit).
    #[must_use]
    pub fn mean_communication_megabytes(&self) -> f64 {
        self.mean_communication_bytes / (1024.0 * 1024.0)
    }
}

/// Runs `selection` once per pair and aggregates the results.
///
/// Pairs are fanned out across all cores with `rayon`; each pair uses an
/// independent RNG stream derived from `seed` and the pair index via the
/// same `seed + id → stream` contract the batch engine uses
/// ([`cne::batch::user_stream_seed`]), so results are byte-identical at any
/// thread count.
///
/// # Errors
///
/// Propagates the first estimation error encountered (invalid pair, bad
/// budget, ...).
pub fn evaluate_on_pairs(
    graph: &BipartiteGraph,
    pairs: &[QueryPair],
    selection: &AlgorithmSelection,
    epsilon: f64,
    seed: u64,
) -> cne::Result<RunSummary> {
    // One engine per evaluation run: every pair shares the same lazily
    // warmed packed-adjacency cache (byte-identical to the uncached path).
    let engine = EstimationEngine::new(graph);
    evaluate_on_pairs_with_engine(&engine, pairs, selection, epsilon, seed)
}

/// [`evaluate_on_pairs`] against a caller-owned [`EstimationEngine`] — for
/// long-lived or *streaming* evaluation loops that keep one engine warm
/// across sweeps (and across [`cne::EstimationEngine::apply_updates`]
/// rounds) instead of rebuilding the adjacency cache per call. Results are
/// byte-identical to [`evaluate_on_pairs`] on the same graph and seed.
///
/// # Errors
///
/// Same contract as [`evaluate_on_pairs`].
pub fn evaluate_on_pairs_with_engine(
    engine: &EstimationEngine<'_>,
    pairs: &[QueryPair],
    selection: &AlgorithmSelection,
    epsilon: f64,
    seed: u64,
) -> cne::Result<RunSummary> {
    let estimator = build_estimator(selection);
    let graph = engine.graph();
    let results: Vec<cne::Result<PairEvaluation>> = pairs
        .par_iter()
        .enumerate()
        .map(|(idx, pair)| {
            let mut rng =
                ChaCha12Rng::seed_from_u64(cne::batch::user_stream_seed(seed, idx as u64));
            let query = Query::new(pair.layer, pair.u, pair.w);
            let truth = query.exact_count(graph)? as f64;
            let start = Instant::now();
            let report = engine.estimate_with(estimator.as_ref(), &query, epsilon, &mut rng)?;
            let elapsed = start.elapsed();
            Ok(PairEvaluation {
                u: pair.u,
                w: pair.w,
                truth,
                estimate: report.estimate,
                communication_bytes: report.communication_bytes(),
                elapsed,
            })
        })
        .collect();

    let mut evaluations = Vec::with_capacity(pairs.len());
    for result in results {
        evaluations.push(result?);
    }

    let observations: Vec<Observation> = evaluations
        .iter()
        .map(|e| Observation {
            estimate: e.estimate,
            truth: e.truth,
        })
        .collect();
    let metrics = ErrorMetrics::from_observations(&observations).unwrap_or(ErrorMetrics {
        count: 0,
        mean_absolute_error: 0.0,
        mean_relative_error: 0.0,
        mean_squared_error: 0.0,
        bias: 0.0,
    });
    let total_time = evaluations.iter().map(|e| e.elapsed).sum();
    let mean_communication_bytes = if evaluations.is_empty() {
        0.0
    } else {
        evaluations
            .iter()
            .map(|e| e.communication_bytes as f64)
            .sum::<f64>()
            / evaluations.len() as f64
    };

    Ok(RunSummary {
        algorithm: selection.kind(),
        epsilon,
        evaluations,
        metrics,
        total_time,
        mean_communication_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bigraph::{sampling, Layer};
    use datasets::{Catalog, DatasetCode};

    fn small_dataset() -> BipartiteGraph {
        // Keep RM at its original Table 2 size: shrinking the opposite layer
        // would erase the one-round vs multi-round gap the tests check.
        Catalog::scaled(60_000)
            .generate(DatasetCode::RM, 3)
            .unwrap()
            .graph
    }

    #[test]
    fn evaluate_produces_one_result_per_pair() {
        let g = small_dataset();
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let pairs = sampling::uniform_pairs(&g, Layer::Upper, 12, &mut rng).unwrap();
        let summary = evaluate_on_pairs(&g, &pairs, &AlgorithmSelection::OneR, 2.0, 7).unwrap();
        assert_eq!(summary.evaluations.len(), 12);
        assert_eq!(summary.metrics.count, 12);
        assert_eq!(summary.algorithm, AlgorithmKind::OneR);
        assert!(summary.mean_communication_bytes > 0.0);
        assert!(summary.metrics.mean_absolute_error.is_finite());
    }

    #[test]
    fn engine_variant_matches_and_survives_updates() {
        let g = small_dataset();
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let pairs = sampling::uniform_pairs(&g, Layer::Upper, 6, &mut rng).unwrap();
        let fresh = evaluate_on_pairs(&g, &pairs, &AlgorithmSelection::OneR, 2.0, 13).unwrap();
        let engine = EstimationEngine::new(&g);
        let reused =
            evaluate_on_pairs_with_engine(&engine, &pairs, &AlgorithmSelection::OneR, 2.0, 13)
                .unwrap();
        let bits = |s: &RunSummary| -> Vec<u64> {
            s.evaluations.iter().map(|e| e.estimate.to_bits()).collect()
        };
        assert_eq!(bits(&fresh), bits(&reused));

        // After a streaming update, the warm engine equals a cold rebuild.
        let mut live = EstimationEngine::from_graph(g.clone());
        let mut batch = bigraph::UpdateBatch::new();
        batch
            .add_edge(pairs[0].u, 0)
            .remove_edge(pairs[0].w, g.neighbors(Layer::Upper, pairs[0].w)[0]);
        live.apply_updates(&batch).unwrap();
        let warm = evaluate_on_pairs_with_engine(&live, &pairs, &AlgorithmSelection::OneR, 2.0, 13)
            .unwrap();
        let cold =
            evaluate_on_pairs(live.graph(), &pairs, &AlgorithmSelection::OneR, 2.0, 13).unwrap();
        assert_eq!(bits(&warm), bits(&cold));
        assert_ne!(
            bits(&warm),
            bits(&reused),
            "the update moved a queried vertex, so estimates must move"
        );
    }

    #[test]
    fn evaluation_is_deterministic_under_seed() {
        let g = small_dataset();
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let pairs = sampling::uniform_pairs(&g, Layer::Upper, 8, &mut rng).unwrap();
        let a = evaluate_on_pairs(&g, &pairs, &AlgorithmSelection::MultiRDS, 2.0, 11).unwrap();
        let b = evaluate_on_pairs(&g, &pairs, &AlgorithmSelection::MultiRDS, 2.0, 11).unwrap();
        let ea: Vec<f64> = a.evaluations.iter().map(|e| e.estimate).collect();
        let eb: Vec<f64> = b.evaluations.iter().map(|e| e.estimate).collect();
        assert_eq!(ea, eb);
        let c = evaluate_on_pairs(&g, &pairs, &AlgorithmSelection::MultiRDS, 2.0, 12).unwrap();
        let ec: Vec<f64> = c.evaluations.iter().map(|e| e.estimate).collect();
        assert_ne!(ea, ec);
    }

    #[test]
    fn evaluation_is_byte_identical_across_thread_counts() {
        // The per-pair streams are keyed by (seed, pair index), never by
        // thread assignment, so forcing different worker counts must not
        // change a single bit of the output.
        let g = small_dataset();
        let mut rng = ChaCha12Rng::seed_from_u64(6);
        let pairs = sampling::uniform_pairs(&g, Layer::Upper, 10, &mut rng).unwrap();
        let run = || {
            evaluate_on_pairs(&g, &pairs, &AlgorithmSelection::MultiRDS, 2.0, 9)
                .unwrap()
                .evaluations
                .iter()
                .map(|e| e.estimate.to_bits())
                .collect::<Vec<u64>>()
        };
        // Process-global env mutation: restore on drop so a failing assert
        // cannot leak the override into concurrently running tests. Those
        // tests tolerate a transient worker-count change by the very
        // property under test (results are thread-count-independent).
        //
        // NOTE: this relies on the vendored rayon stub reading
        // RAYON_NUM_THREADS on every call; real rayon latches it at
        // global-pool init, so on a future swap to the real crate this test
        // must move to an explicit `ThreadPoolBuilder`.
        struct RestoreEnv;
        impl Drop for RestoreEnv {
            fn drop(&mut self) {
                std::env::remove_var("RAYON_NUM_THREADS");
            }
        }
        let _restore = RestoreEnv;
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let serial = run();
        std::env::set_var("RAYON_NUM_THREADS", "7");
        let parallel = run();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn multi_round_beats_one_round_on_average() {
        let g = small_dataset();
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        let pairs = sampling::uniform_pairs(&g, Layer::Upper, 30, &mut rng).unwrap();
        let naive = evaluate_on_pairs(&g, &pairs, &AlgorithmSelection::Naive, 2.0, 5).unwrap();
        let oner = evaluate_on_pairs(&g, &pairs, &AlgorithmSelection::OneR, 2.0, 5).unwrap();
        let ss = evaluate_on_pairs(
            &g,
            &pairs,
            &AlgorithmSelection::MultiRSS {
                epsilon1_fraction: 0.5,
            },
            2.0,
            5,
        )
        .unwrap();
        assert!(oner.metrics.mean_absolute_error < naive.metrics.mean_absolute_error);
        assert!(ss.metrics.mean_absolute_error < oner.metrics.mean_absolute_error);
    }

    #[test]
    fn all_selections_build_and_report_their_kind() {
        let g = small_dataset();
        let mut rng = ChaCha12Rng::seed_from_u64(4);
        let pairs = sampling::uniform_pairs(&g, Layer::Upper, 3, &mut rng).unwrap();
        let selections = [
            AlgorithmSelection::Naive,
            AlgorithmSelection::OneR,
            AlgorithmSelection::MultiRSS {
                epsilon1_fraction: 0.5,
            },
            AlgorithmSelection::MultiRDSBasic {
                epsilon1_fraction: 0.5,
            },
            AlgorithmSelection::MultiRDS,
            AlgorithmSelection::MultiRDSStar,
            AlgorithmSelection::CentralDP,
        ];
        for sel in selections {
            let summary = evaluate_on_pairs(&g, &pairs, &sel, 2.0, 1).unwrap();
            assert_eq!(summary.algorithm, sel.kind());
        }
    }

    #[test]
    fn empty_pairs_yield_empty_summary() {
        let g = small_dataset();
        let summary = evaluate_on_pairs(&g, &[], &AlgorithmSelection::OneR, 2.0, 1).unwrap();
        assert_eq!(summary.evaluations.len(), 0);
        assert_eq!(summary.metrics.count, 0);
        assert_eq!(summary.mean_communication_bytes, 0.0);
    }

    #[test]
    fn figure_sets_are_nonempty() {
        assert!(AlgorithmSelection::figure6_set().len() >= 5);
        assert!(AlgorithmSelection::figure7_set().len() >= 4);
    }
}
