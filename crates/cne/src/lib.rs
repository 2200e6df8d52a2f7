//! # cne — common neighborhood estimation under edge local differential privacy
//!
//! This crate implements the algorithms of *"Common Neighborhood Estimation
//! over Bipartite Graphs under Local Differential Privacy"* (SIGMOD 2025):
//! given a bipartite graph `G`, a privacy budget `ε`, and two query vertices
//! `u`, `w` on the same layer, estimate the number of their common neighbors
//! `C2(u, w) = |N(u) ∩ N(w)|` while every byte that leaves a vertex satisfies
//! ε-edge local differential privacy.
//!
//! ## Algorithms
//!
//! | Type | Paper name | Rounds | Idea |
//! |---|---|---|---|
//! | [`Naive`] | Naive | 1 | count common neighbors on the randomized-response noisy graph (biased) |
//! | [`OneR`] | OneR | 1 | unbiased correction of the noisy-graph count |
//! | [`MultiRSS`] | MultiR-SS | 2 | `u` combines its true neighborhood with `w`'s noisy edges, then adds Laplace noise |
//! | [`MultiRDSBasic`] | MultiR-DS-Basic | 2 | plain average of the two single-source estimators |
//! | [`MultiRDS`] | MultiR-DS | 3 | weighted average with optimised budget split `(ε₁, α)` |
//! | [`MultiRDSStar`] | MultiR-DS* | 2 | MultiR-DS with public degrees (no ε₀ round) |
//! | [`CentralDP`] | CentralDP | — | central-model Laplace baseline |
//!
//! All algorithms implement [`CommonNeighborEstimator`] and return an
//! [`EstimateReport`] containing the estimate, the exact privacy-budget
//! accounting, and a byte-accurate communication transcript. The protocol
//! runs in [`CommonNeighborEstimator::estimate_in`], inside a
//! [`RoundContext`] whose opener picks lean or detailed accounting;
//! [`CommonNeighborEstimator::estimate`] is the one-shot shortcut.
//!
//! ## Serving repeated queries
//!
//! For one-off estimates call [`CommonNeighborEstimator::estimate`] directly.
//! For anything that issues more than a handful of queries against the same
//! graph — batch screening, experiment sweeps, a long-lived service — build
//! an [`EstimationEngine`] once and route queries through it: every run then
//! shares a lazily warmed cache of bit-packed adjacencies
//! ([`AdjacencyStore`]), and sharded fan-outs
//! ([`EstimationEngine::estimate_many_targets`]) keep the deterministic
//! per-user RNG-stream contract at any thread count. Engine results are
//! byte-identical to the one-shot path for the same seed.
//!
//! The graph need not be static: [`EstimationEngine::apply_updates`]
//! ingests epoch-counted [`bigraph::UpdateBatch`]es of streaming edge
//! updates, precisely invalidating only the touched vertices' cached
//! bitmaps, and generation-checked readers
//! ([`EstimationEngine::estimate_batch_at`]) are rejected, before any
//! protocol round, when updates superseded the state they derived their
//! query from, instead of being silently served. Caches can be byte-capped with
//! LRU eviction ([`EstimationEngine::with_cache_budget`]) for graphs too
//! large to cache in full. See the [`engine`] module docs for the cache,
//! mutation & invalidation lifecycles and the determinism contract.
//!
//! When queries must *never* wait on a splice — a live recommendation
//! tier with a continuous write stream — wrap the graph in a
//! [`ServingEngine`] instead of owning an engine directly: readers pin
//! epoch-stamped snapshots (lock-free, allocation-free) while a dedicated
//! writer thread drains the producer-sharded [`bigraph::UpdateLog`] and
//! splices an offline buffer, publishing by epoch swap. Served estimates
//! stay byte-identical to a cold engine at the pinned epoch; see the
//! [`serving`] module docs for the lifecycle and the [`engine`] docs'
//! *Serving lifecycle* section for how the two models relate.
//!
//! ## Quick start
//!
//! ```
//! use bigraph::{BipartiteGraph, Layer};
//! use cne::{CommonNeighborEstimator, MultiRDS, Query};
//! use rand::SeedableRng;
//!
//! // Two users sharing three items.
//! let g = BipartiteGraph::from_edges(
//!     2,
//!     100,
//!     [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (1, 3)],
//! )
//! .unwrap();
//!
//! let query = Query::new(Layer::Upper, 0, 1);
//! let algo = MultiRDS::default();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let report = algo.estimate(&g, &query, 2.0, &mut rng).unwrap();
//!
//! // The estimate is unbiased; a single draw lands near the true count 3.
//! assert!(report.estimate.is_finite());
//! assert!(report.budget.consumed() <= 2.0 + 1e-9);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod central;
pub mod double_source;
pub mod engine;
pub mod error;
pub mod estimate;
pub mod estimator;
pub mod loss;
pub mod naive;
pub mod one_round;
pub mod optimizer;
pub mod protocol;
pub mod serving;
pub mod similarity;
pub mod single_source;

pub use batch::{
    batch_round2, validate_batch_query, BatchEstimate, BatchReport, BatchRound1, BatchSingleSource,
};
pub use central::CentralDP;
pub use double_source::{MultiRDS, MultiRDSBasic, MultiRDSStar};
pub use engine::{AdjacencyStore, EstimationEngine, ProtocolEnv, RoundContext, ScratchArena};
pub use error::{CneError, Result};
pub use estimate::{AlgorithmKind, EstimateReport};
pub use estimator::CommonNeighborEstimator;
pub use naive::Naive;
pub use one_round::OneR;
pub use protocol::Query;
pub use serving::{EngineSnapshot, ServingConfig, ServingEngine, ServingStats};
pub use similarity::{SimilarityEstimator, SimilarityReport};
pub use single_source::MultiRSS;
