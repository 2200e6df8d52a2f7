//! # bigraph — bipartite graph substrate
//!
//! This crate provides the bipartite-graph data structures and exact (non-private)
//! graph algorithms that the privacy-preserving common-neighborhood estimators in
//! the [`cne`] crate are built upon.
//!
//! The central type is [`BipartiteGraph`], a CSR-style adjacency structure
//! over two vertex layers (*upper* and *lower*). Graphs are assembled with
//! [`GraphBuilder`], which deduplicates edges and validates layer membership,
//! and mutate under live traffic through epoch-counted
//! [`UpdateBatch`]es of edge/vertex deltas that are spliced into the CSR
//! arrays without a full rebuild ([`delta`]).
//!
//! Beyond storage, the crate implements the exact operators that the paper's
//! evaluation needs as ground truth and as downstream applications:
//!
//! * exact common-neighbor counting and listing ([`common_neighbors`]),
//! * Jaccard / cosine vertex similarity ([`common_neighbors`]),
//! * bit-packed vertex sets with degree-aware popcount intersection,
//!   used by the LDP noisy-neighborhood hot paths ([`bitset`]),
//! * vertex-pair samplers, including degree-imbalance (κ) constrained sampling
//!   and induced-subgraph sampling for scaling experiments ([`sampling`]),
//! * degree statistics and dataset summaries ([`stats`]),
//! * versioned binary on-disk snapshots of the CSR plus packed dense
//!   adjacencies, for persistence and fast engine restart ([`snapshot`]).
//!
//! ```
//! use bigraph::{GraphBuilder, Layer};
//!
//! let mut b = GraphBuilder::new(3, 4);
//! b.add_edge(0, 0).unwrap();
//! b.add_edge(0, 1).unwrap();
//! b.add_edge(1, 0).unwrap();
//! b.add_edge(1, 1).unwrap();
//! b.add_edge(2, 3).unwrap();
//! let g = b.build();
//!
//! // u0 and u1 (upper layer) share lower vertices {0, 1}.
//! assert_eq!(bigraph::common_neighbors::count(&g, Layer::Upper, 0, 1).unwrap(), 2);
//! ```
//!
//! [`cne`]: https://docs.rs/cne

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
// `deny` rather than `forbid`: the one sanctioned exception is
// `bitset`'s feature-gated popcount kernel module, which carries a scoped
// `allow(unsafe_code)` — `#[target_feature]` SIMD intrinsics are unsafe by
// definition and are only ever reached after the matching CPUID check.
#![deny(unsafe_code)]

pub mod bitset;
pub mod builder;
pub mod common_neighbors;
pub mod delta;
pub mod error;
pub mod graph;
pub mod sampling;
pub mod snapshot;
pub mod stats;
pub mod vertex;

pub use bitset::PackedSet;
pub use builder::GraphBuilder;
pub use delta::{AppliedBatch, GraphDelta, UpdateBatch, UpdateLog};
pub use error::{GraphError, Result};
pub use graph::BipartiteGraph;
pub use snapshot::{read_snapshot, write_snapshot, GraphSnapshot, SnapshotError};
pub use vertex::{Layer, VertexId};
