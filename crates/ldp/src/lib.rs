//! # ldp — local differential privacy substrate
//!
//! This crate implements the privacy mechanisms that the common-neighborhood
//! estimators in the `cne` crate are composed from:
//!
//! * [`budget`] — privacy-budget arithmetic with sequential / parallel
//!   composition accounting,
//! * [`randomized_response`] — Warner's randomized response over bits and
//!   neighbor lists (the paper's noisy-graph construction),
//! * [`laplace`] — the Laplace mechanism with explicit global sensitivity,
//! * [`noisy_graph`] — the per-query-vertex noisy neighbor rows produced by
//!   randomized response, in bit-packed form, with membership queries,
//!   intersection counts, and size accounting,
//! * [`transcript`] — byte-level communication-cost accounting for the
//!   messages exchanged between clients (vertices) and the data curator,
//!   used by the paper's Fig. 10 experiment.
//!
//! # Lean vs detailed accounting
//!
//! Both the message transcript and the budget ledger come in two modes.
//! The **lean** mode (the default on every estimation hot path) maintains
//! only fixed-size aggregate counters — per-round × per-direction bytes and
//! message counts ([`transcript::TranscriptStats`]) and `O(1)` incremental
//! budget-consumption totals — so recording a message or charging the
//! budget performs zero heap allocations; labels are interned
//! [`transcript::Label`] values that are never rendered. The **detailed**
//! mode ([`Transcript::detailed`], [`budget::BudgetAccountant::new`])
//! additionally retains every [`transcript::Message`] and
//! [`budget::BudgetCharge`] with rendered labels for tests and debugging.
//! Every aggregate accessor returns identical values in either mode
//! (property-tested against random protocol runs in the `cne` crate).
//!
//! # Performance: the packed perturbation pipeline
//!
//! The hot path of every estimator is randomized-response perturbation of
//! a neighbor row. It is implemented with **geometric skip sampling**:
//! rather than drawing one Bernoulli(`p`) per candidate slot (`O(n)` work
//! and RNG draws for an opposite layer of size `n`), the sampler jumps
//! straight between flips with geometric-gap draws — expected `O(d + p·n)`
//! work and `O(p·(n + d) + 2)` draws for a vertex of degree `d`, while
//! producing an output *identically distributed* to the per-bit scan.
//!
//! The gaps are evaluated through a **batched draw pipeline**
//! (uniform draws pulled in guaranteed-consumed blocks, gaps resolved by
//! exact two-tier threshold tables — branchless compares plus a bounded
//! binary search — with only a `(1−p)^288` tail paying a `ln`), and the
//! noisy row is written **directly into packed `u64` words** by
//! [`RandomizedResponse::perturb_neighbor_list_packed`] /
//! [`noisy_graph::NoisyNeighborsPacked`]: kept true neighbors OR in
//! word-wise from a cached bitmap, flipped zeros set bits as their ranks
//! are translated — no sorted id list, no merge pass. The packed row is the
//! only form a round-1 report takes: every consumer intersects it
//! (word-parallel `AND` + popcount, or single-bit membership probes).
//!
//! **Draw-sequence compatibility contract:** the pipeline — with or
//! without the threshold tables, with or without a cached true bitmap —
//! consumes the RNG stream *identically, draw for draw*, to the scalar
//! skip sampler
//! ([`RandomizedResponse::perturb_neighbor_list_scalar_reference`]) and
//! sets exactly the ids it returns. That sampler and the per-bit scan
//! ([`RandomizedResponse::perturb_neighbor_list_dense`], the χ² oracle for
//! the output law) are kept only as test oracles. The contract is what lets
//! the pipeline be rewritten without moving a single downstream estimate.
//! See `BENCH_micro.json` at the workspace root for the recorded
//! baselines.
//!
//! # Determinism contract
//!
//! All mechanisms are generic over `rand::Rng`, so experiments are fully
//! deterministic under a seeded RNG. Parallel engines (the `cne` batch
//! protocol, the `eval` runner) derive one independent stream per
//! participating user as `mix(seed, vertex id)` (`cne::batch::user_stream_seed`);
//! streams never depend on thread scheduling, so seeded runs are
//! **byte-identical at any core count**.
//!
//! ```
//! use ldp::budget::PrivacyBudget;
//! use ldp::randomized_response::RandomizedResponse;
//! use rand::SeedableRng;
//!
//! let eps = PrivacyBudget::new(2.0).unwrap();
//! let rr = RandomizedResponse::new(eps);
//! // Flip probability p = 1 / (1 + e^eps)
//! assert!((rr.flip_probability() - 1.0 / (1.0 + 2.0f64.exp())).abs() < 1e-12);
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
//! let noisy = rr.perturb_bit(true, &mut rng);
//! let _ = noisy; // either true or false, with P(flip) = p
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod budget;
pub mod degree;
pub mod error;
pub mod laplace;
pub mod mechanism;
pub mod noisy_graph;
pub mod randomized_response;
pub mod transcript;

pub use budget::PrivacyBudget;
pub use error::{LdpError, Result};
pub use laplace::LaplaceMechanism;
pub use mechanism::Sensitivity;
pub use noisy_graph::NoisyNeighborsPacked;
pub use randomized_response::{PerturbScratch, RandomizedResponse};
pub use transcript::{Direction, Label, Transcript, TranscriptStats};
