//! # ldp-cne — common neighborhood estimation under edge local differential privacy
//!
//! Meta-crate re-exporting the workspace members so downstream users can add a
//! single dependency:
//!
//! * [`bigraph`] — bipartite graph storage, exact common-neighbor operators,
//!   sampling,
//! * [`ldp`] — randomized response, Laplace mechanism, privacy-budget
//!   accounting, communication transcripts,
//! * [`datasets`] — synthetic stand-ins for the paper's 15 KONECT datasets and
//!   KONECT edge-list I/O,
//! * [`cne`] — the paper's estimators (`Naive`, `OneR`, `MultiR-SS`,
//!   `MultiR-DS`, variants, and the `CentralDP` baseline),
//! * [`eval`] — the experiment harness regenerating every table and figure of
//!   the paper's evaluation.
//!
//! ```
//! use ldp_cne::cne::{CommonNeighborEstimator, MultiRDS, Query};
//! use ldp_cne::bigraph::{BipartiteGraph, Layer};
//! use rand::SeedableRng;
//!
//! let g = BipartiteGraph::from_edges(2, 50, [(0, 0), (0, 1), (1, 0), (1, 1)]).unwrap();
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
//! let report = MultiRDS::default()
//!     .estimate(&g, &Query::new(Layer::Upper, 0, 1), 2.0, &mut rng)
//!     .unwrap();
//! assert!(report.estimate.is_finite());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use bigraph;
pub use cne;
pub use datasets;
pub use eval;
pub use ldp;
