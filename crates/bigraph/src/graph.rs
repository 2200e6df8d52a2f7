//! The CSR bipartite graph.
//!
//! [`BipartiteGraph`] stores both layers' adjacency in compressed sparse row
//! form with sorted neighbor slices. Neighbor iteration is `O(deg)`, edge
//! membership is `O(log deg)`, and memory is `O(n + m)` with two `u32` entries
//! per edge (one per direction).
//!
//! The graph is immutable under queries, but supports transactional
//! streaming mutation through [`BipartiteGraph::apply_update_batch`]: an
//! [`UpdateBatch`] of edge/vertex deltas is spliced into the existing CSR
//! arrays in place — no rebuild, no re-sort, no new allocation while the
//! adjacency has spare capacity — and bumps the graph's
//! [`epoch`](BipartiteGraph::epoch). A splice costs one memmove of the
//! adjacency past the first touched vertex plus an `O(n)` offset shift.

use crate::delta::{AppliedBatch, NetEffect, UpdateBatch};
use crate::error::{GraphError, Result};
use crate::vertex::{Layer, VertexId};
use serde::{Deserialize, Serialize};

/// An unweighted bipartite graph in CSR form.
///
/// Construct one with [`crate::GraphBuilder`] or [`BipartiteGraph::from_edges`].
/// The graph keeps adjacency for both directions (upper→lower and lower→upper)
/// so that degree and neighborhood queries are symmetric and `O(deg)`.
///
/// Equality is **structural**: the [`epoch`](BipartiteGraph::epoch) mutation
/// counter is excluded, so a graph reached through update batches compares
/// equal to the same graph rebuilt from scratch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BipartiteGraph {
    /// CSR offsets for the upper layer; length `n_upper + 1`.
    upper_offsets: Vec<usize>,
    /// Concatenated, per-vertex-sorted lower-neighbor lists of upper vertices.
    upper_adj: Vec<VertexId>,
    /// CSR offsets for the lower layer; length `n_lower + 1`.
    lower_offsets: Vec<usize>,
    /// Concatenated, per-vertex-sorted upper-neighbor lists of lower vertices.
    lower_adj: Vec<VertexId>,
    /// Mutation counter: number of non-empty update batches applied.
    epoch: u64,
}

impl PartialEq for BipartiteGraph {
    fn eq(&self, other: &Self) -> bool {
        // Structural equality only — the epoch records history, not identity.
        self.upper_offsets == other.upper_offsets
            && self.upper_adj == other.upper_adj
            && self.lower_offsets == other.lower_offsets
            && self.lower_adj == other.lower_adj
    }
}

impl Eq for BipartiteGraph {}

impl BipartiteGraph {
    /// Builds a graph directly from an iterator of `(upper, lower)` edges.
    ///
    /// Duplicate edges are collapsed. Edges referring to vertices outside the
    /// declared layer sizes are rejected.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an endpoint exceeds the
    /// declared layer size.
    pub fn from_edges<I>(n_upper: usize, n_lower: usize, edges: I) -> Result<Self>
    where
        I: IntoIterator<Item = (VertexId, VertexId)>,
    {
        let mut builder = crate::GraphBuilder::new(n_upper, n_lower);
        for (u, v) in edges {
            builder.add_edge(u, v)?;
        }
        Ok(builder.build())
    }

    /// Internal constructor used by [`crate::GraphBuilder`]; assumes the CSR
    /// arrays are already consistent (sorted, deduplicated, mirrored).
    pub(crate) fn from_csr(
        upper_offsets: Vec<usize>,
        upper_adj: Vec<VertexId>,
        lower_offsets: Vec<usize>,
        lower_adj: Vec<VertexId>,
    ) -> Self {
        debug_assert_eq!(*upper_offsets.last().unwrap_or(&0), upper_adj.len());
        debug_assert_eq!(*lower_offsets.last().unwrap_or(&0), lower_adj.len());
        debug_assert_eq!(upper_adj.len(), lower_adj.len());
        Self {
            upper_offsets,
            upper_adj,
            lower_offsets,
            lower_adj,
            epoch: 0,
        }
    }

    /// [`from_csr`](Self::from_csr) with an explicit epoch stamp — used by
    /// snapshot adoption, which must restore the mutation counter the
    /// graph had when it was captured.
    pub(crate) fn from_csr_at_epoch(
        upper_offsets: Vec<usize>,
        upper_adj: Vec<VertexId>,
        lower_offsets: Vec<usize>,
        lower_adj: Vec<VertexId>,
        epoch: u64,
    ) -> Self {
        let mut g = Self::from_csr(upper_offsets, upper_adj, lower_offsets, lower_adj);
        g.epoch = epoch;
        g
    }

    /// The raw CSR arrays `(upper_offsets, upper_adj, lower_offsets,
    /// lower_adj)` — snapshot serialization reads them directly so the
    /// on-disk layout mirrors the in-memory one.
    pub(crate) fn csr_parts(&self) -> (&[usize], &[VertexId], &[usize], &[VertexId]) {
        (
            &self.upper_offsets,
            &self.upper_adj,
            &self.lower_offsets,
            &self.lower_adj,
        )
    }

    /// The mutation counter: how many effective (non-no-op) update batches
    /// have been applied since construction. Builders and deserialization
    /// preserve it; structural equality ignores it.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Number of vertices in the upper layer (`n₁ = |U(G)|`).
    #[must_use]
    pub fn n_upper(&self) -> usize {
        self.upper_offsets.len() - 1
    }

    /// Number of vertices in the lower layer (`n₂ = |L(G)|`).
    #[must_use]
    pub fn n_lower(&self) -> usize {
        self.lower_offsets.len() - 1
    }

    /// Number of vertices in the given layer.
    #[must_use]
    pub fn layer_size(&self, layer: Layer) -> usize {
        match layer {
            Layer::Upper => self.n_upper(),
            Layer::Lower => self.n_lower(),
        }
    }

    /// Total number of vertices, `n = n₁ + n₂`.
    #[must_use]
    pub fn n_vertices(&self) -> usize {
        self.n_upper() + self.n_lower()
    }

    /// Number of edges, `m = |E|`.
    #[must_use]
    pub fn n_edges(&self) -> usize {
        self.upper_adj.len()
    }

    /// Returns `true` if the graph has no edges.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n_edges() == 0
    }

    /// Checks whether `id` is a valid vertex of `layer`.
    #[must_use]
    pub fn contains_vertex(&self, layer: Layer, id: VertexId) -> bool {
        (id as usize) < self.layer_size(layer)
    }

    /// Validates that `id` names a vertex of `layer`.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] otherwise.
    pub fn check_vertex(&self, layer: Layer, id: VertexId) -> Result<()> {
        if self.contains_vertex(layer, id) {
            Ok(())
        } else {
            Err(GraphError::VertexOutOfRange {
                layer,
                id,
                layer_size: self.layer_size(layer),
            })
        }
    }

    /// The sorted neighbor slice of vertex `id` on `layer`.
    ///
    /// Neighbors are ids on the *opposite* layer. Panics in debug builds if
    /// the vertex is out of range; use [`BipartiteGraph::check_vertex`] first
    /// for untrusted input.
    #[must_use]
    pub fn neighbors(&self, layer: Layer, id: VertexId) -> &[VertexId] {
        let (offsets, adj) = match layer {
            Layer::Upper => (&self.upper_offsets, &self.upper_adj),
            Layer::Lower => (&self.lower_offsets, &self.lower_adj),
        };
        let i = id as usize;
        &adj[offsets[i]..offsets[i + 1]]
    }

    /// The degree of vertex `id` on `layer`.
    #[must_use]
    pub fn degree(&self, layer: Layer, id: VertexId) -> usize {
        let offsets = match layer {
            Layer::Upper => &self.upper_offsets,
            Layer::Lower => &self.lower_offsets,
        };
        let i = id as usize;
        offsets[i + 1] - offsets[i]
    }

    /// Whether the edge `(upper, lower)` exists. `O(log deg)`.
    #[must_use]
    pub fn has_edge(&self, upper: VertexId, lower: VertexId) -> bool {
        if !self.contains_vertex(Layer::Upper, upper) || !self.contains_vertex(Layer::Lower, lower)
        {
            return false;
        }
        // Search the smaller endpoint's list for better constants.
        let du = self.degree(Layer::Upper, upper);
        let dl = self.degree(Layer::Lower, lower);
        if du <= dl {
            self.neighbors(Layer::Upper, upper)
                .binary_search(&lower)
                .is_ok()
        } else {
            self.neighbors(Layer::Lower, lower)
                .binary_search(&upper)
                .is_ok()
        }
    }

    /// Whether vertex `a` of `layer` is adjacent to vertex `b` of the opposite
    /// layer. Symmetric convenience wrapper over [`BipartiteGraph::has_edge`].
    #[must_use]
    pub fn are_adjacent(&self, layer: Layer, a: VertexId, b: VertexId) -> bool {
        match layer {
            Layer::Upper => self.has_edge(a, b),
            Layer::Lower => self.has_edge(b, a),
        }
    }

    /// Iterates over all edges as `(upper, lower)` pairs in CSR order.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.n_upper() as VertexId)
            .flat_map(move |u| self.neighbors(Layer::Upper, u).iter().map(move |&v| (u, v)))
    }

    /// Maximum degree among vertices of `layer`.
    #[must_use]
    pub fn max_degree(&self, layer: Layer) -> usize {
        (0..self.layer_size(layer) as VertexId)
            .map(|v| self.degree(layer, v))
            .max()
            .unwrap_or(0)
    }

    /// Average degree among vertices of `layer` (0.0 for an empty layer).
    #[must_use]
    pub fn avg_degree(&self, layer: Layer) -> f64 {
        let n = self.layer_size(layer);
        if n == 0 {
            0.0
        } else {
            self.n_edges() as f64 / n as f64
        }
    }

    /// Applies an [`UpdateBatch`] transactionally: either every delta
    /// validates and the whole batch lands, or the graph is left untouched.
    ///
    /// Deltas apply in order; edge operations are idempotent (re-adding an
    /// existing edge or removing an absent one is a no-op), so the net
    /// effect on each edge is decided by the last delta naming it.
    ///
    /// The batch is spliced in place, once per direction: each touched
    /// vertex's old slice is merged with its changes in a scratch buffer,
    /// the untouched ranges between touched vertices shift with one
    /// `copy_within` each, and the offsets past each touched vertex move by
    /// the running degree change. Cost is `O(b log b)` for the net effect,
    /// one memmove of the adjacency past the first touched vertex, and an
    /// `O(n)` offset shift; the adjacency vectors reallocate only when they
    /// grow past their capacity. Validation runs before the first
    /// mutation, and nothing after it can fail.
    ///
    /// A batch that changes anything bumps [`BipartiteGraph::epoch`] by one.
    /// The returned [`AppliedBatch`] lists the touched vertices per layer so
    /// downstream adjacency caches can invalidate precisely.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if an edge delta references
    /// a vertex outside the layer sizes *at its point in the sequence*
    /// (vertices added earlier in the batch are in range).
    pub fn apply_update_batch(&mut self, batch: &UpdateBatch) -> Result<AppliedBatch> {
        let net = NetEffect::compute(self, batch)?;
        let mut applied = AppliedBatch {
            epoch: self.epoch,
            edges_added: net.adds.len(),
            edges_removed: net.removes.len(),
            vertices_added_upper: net.added_upper,
            vertices_added_lower: net.added_lower,
            touched_upper: Vec::new(),
            touched_lower: Vec::new(),
        };
        if applied.is_noop() {
            return Ok(applied);
        }

        // Grow the offset arrays for appended (isolated) vertices: each new
        // vertex starts with an empty slice at the end of the adjacency.
        let upper_end = *self.upper_offsets.last().expect("offsets non-empty");
        self.upper_offsets.resize(net.n_upper + 1, upper_end);
        let lower_end = *self.lower_offsets.last().expect("offsets non-empty");
        self.lower_offsets.resize(net.n_lower + 1, lower_end);

        // Upper direction: `net.adds`/`net.removes` are already sorted by
        // `(upper, lower)`.
        applied.touched_upper = splice_direction(
            &mut self.upper_offsets,
            &mut self.upper_adj,
            &net.adds,
            &net.removes,
        );
        // Lower direction: mirror the pairs and re-sort by `(lower, upper)`.
        let mirror = |pairs: &[(VertexId, VertexId)]| -> Vec<(VertexId, VertexId)> {
            let mut m: Vec<_> = pairs.iter().map(|&(u, v)| (v, u)).collect();
            m.sort_unstable();
            m
        };
        applied.touched_lower = splice_direction(
            &mut self.lower_offsets,
            &mut self.lower_adj,
            &mirror(&net.adds),
            &mirror(&net.removes),
        );

        self.epoch += 1;
        applied.epoch = self.epoch;
        debug_assert!(self.validate().is_ok(), "splice broke a CSR invariant");
        Ok(applied)
    }

    /// Verifies internal CSR invariants. Intended for tests and debugging.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Malformed`] describing the first violated invariant.
    pub fn validate(&self) -> Result<()> {
        let check_side = |offsets: &[usize], adj: &[VertexId], opposite: usize, side: &str| {
            if offsets.is_empty() {
                return Err(GraphError::Malformed {
                    reason: format!("{side} offsets empty"),
                });
            }
            if offsets[0] != 0 || *offsets.last().unwrap() != adj.len() {
                return Err(GraphError::Malformed {
                    reason: format!("{side} offsets do not span adjacency"),
                });
            }
            for w in offsets.windows(2) {
                if w[0] > w[1] {
                    return Err(GraphError::Malformed {
                        reason: format!("{side} offsets not monotone"),
                    });
                }
                let slice = &adj[w[0]..w[1]];
                for pair in slice.windows(2) {
                    if pair[0] >= pair[1] {
                        return Err(GraphError::Malformed {
                            reason: format!("{side} adjacency not strictly sorted"),
                        });
                    }
                }
                if let Some(&max) = slice.last() {
                    if max as usize >= opposite {
                        return Err(GraphError::Malformed {
                            reason: format!("{side} adjacency references out-of-range vertex"),
                        });
                    }
                }
            }
            Ok(())
        };
        check_side(
            &self.upper_offsets,
            &self.upper_adj,
            self.n_lower(),
            "upper",
        )?;
        check_side(
            &self.lower_offsets,
            &self.lower_adj,
            self.n_upper(),
            "lower",
        )?;
        if self.upper_adj.len() != self.lower_adj.len() {
            return Err(GraphError::Malformed {
                reason: "edge count mismatch between directions".into(),
            });
        }
        Ok(())
    }
}

/// Splices per-vertex sorted change lists into one CSR direction, editing
/// `offsets` and `adj` in place, and returns the touched source vertices
/// in increasing order.
///
/// `adds`/`removes` are `(src, dst)` pairs sorted by `(src, dst)`; `adds`
/// must be absent from and `removes` present in the current adjacency
/// (guaranteed by [`NetEffect::compute`]).
///
/// The untouched vertices between two touched ones form a *run* that moves
/// as one block by the net degree change of every touched vertex before
/// it. Steps:
///
/// 1. merge each touched vertex's old slice with its changes into a
///    scratch buffer;
/// 2. grow `adj` by the net growth (no allocation with spare capacity);
/// 3. move the runs with `copy_within` — left-shifting runs in ascending
///    order, then right-shifting runs in descending order. A run's
///    destination never reaches the unmoved source of a run still waiting
///    its turn, because the final layout keeps runs in vertex order;
/// 4. write the merged lists into their slots and add the running shift
///    to each offset range;
/// 5. truncate `adj` to its final length.
///
/// Cost: one memmove of the adjacency past the first touched vertex plus
/// an `O(n)` offset shift.
fn splice_direction(
    offsets: &mut [usize],
    adj: &mut Vec<VertexId>,
    adds: &[(VertexId, VertexId)],
    removes: &[(VertexId, VertexId)],
) -> Vec<VertexId> {
    let new_len = adj.len() + adds.len() - removes.len();

    // 1. Merge: touched vertex `touched[i]`'s new list ends at `ends[i]`
    //    in `merged`, and `shifts[i]` is the degree change through it.
    let (mut touched, mut ends, mut shifts) = (Vec::new(), Vec::new(), Vec::new());
    let mut merged: Vec<VertexId> = Vec::new();
    let (mut adds, mut removes) = (adds, removes);
    let first_src = |pairs: &[(VertexId, VertexId)]| pairs.first().map_or(VertexId::MAX, |p| p.0);
    while !adds.is_empty() || !removes.is_empty() {
        let src = first_src(adds).min(first_src(removes));
        let (add, rest) = adds.split_at(adds.partition_point(|p| p.0 == src));
        adds = rest;
        let (rem, rest) = removes.split_at(removes.partition_point(|p| p.0 == src));
        removes = rest;
        let old = &adj[offsets[src as usize]..offsets[src as usize + 1]];
        let mut add_iter = add.iter().map(|&(_, dst)| dst).peekable();
        let mut rem_iter = rem.iter().map(|&(_, dst)| dst).peekable();
        for &dst in old {
            // Emit pending insertions that sort before the old entry.
            while add_iter.peek().is_some_and(|&a| a < dst) {
                merged.push(add_iter.next().expect("peeked"));
            }
            if rem_iter.peek() == Some(&dst) {
                rem_iter.next();
            } else {
                merged.push(dst);
            }
        }
        merged.extend(add_iter);
        debug_assert!(rem_iter.peek().is_none(), "removal of an absent edge");
        let growth = add.len() as isize - rem.len() as isize;
        touched.push(src);
        ends.push(merged.len());
        shifts.push(shifts.last().copied().unwrap_or(0) + growth);
    }

    // 2. Grow by the net growth.
    if new_len > adj.len() {
        adj.resize(new_len, 0);
    }

    // 3. Move the untouched runs. Run `j >= 1` spans the old adjacency
    //    between touched vertices `j - 1` and `j` (or the end) and moves by
    //    `shifts[j - 1]`; run 0 precedes every touched vertex and stays.
    let n = offsets.len() - 1;
    let run = |j: usize| -> (std::ops::Range<usize>, isize) {
        let start = offsets[touched[j - 1] as usize + 1];
        let end = touched.get(j).map_or(offsets[n], |&t| offsets[t as usize]);
        (start..end, shifts[j - 1])
    };
    for j in 1..=touched.len() {
        let (src, s) = run(j);
        if s < 0 {
            let dest = src.start - s.unsigned_abs();
            adj.copy_within(src, dest);
        }
    }
    for j in (1..=touched.len()).rev() {
        let (src, s) = run(j);
        if s > 0 {
            let dest = src.start + s.unsigned_abs();
            adj.copy_within(src, dest);
        }
    }

    // 4. Shift the offsets after each touched vertex by the change through
    //    it, then drop each merged list at its vertex's final start offset.
    let mut list_start = 0usize;
    for (i, &t) in touched.iter().enumerate() {
        let t = t as usize;
        let list = &merged[list_start..ends[i]];
        adj[offsets[t]..offsets[t] + list.len()].copy_from_slice(list);
        list_start = ends[i];
        let next = touched.get(i + 1).map_or(n, |&u| u as usize);
        if shifts[i] != 0 {
            for o in &mut offsets[t + 1..=next] {
                *o = o.wrapping_add_signed(shifts[i]);
            }
        }
    }

    // 5. Truncate to the final length (capacity is kept for regrowth).
    adj.truncate(new_len);
    debug_assert_eq!(offsets[n], new_len);
    touched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::GraphDelta;

    fn toy() -> BipartiteGraph {
        // Figure 1-like toy graph: 2 upper vertices, 4 lower vertices.
        // u0 - v0, v1, v2 ; u1 - v1, v2, v3
        BipartiteGraph::from_edges(2, 4, [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3)]).unwrap()
    }

    #[test]
    fn sizes_and_degrees() {
        let g = toy();
        assert_eq!(g.n_upper(), 2);
        assert_eq!(g.n_lower(), 4);
        assert_eq!(g.n_vertices(), 6);
        assert_eq!(g.n_edges(), 6);
        assert!(!g.is_empty());
        assert_eq!(g.degree(Layer::Upper, 0), 3);
        assert_eq!(g.degree(Layer::Upper, 1), 3);
        assert_eq!(g.degree(Layer::Lower, 0), 1);
        assert_eq!(g.degree(Layer::Lower, 1), 2);
        assert_eq!(g.max_degree(Layer::Upper), 3);
        assert_eq!(g.max_degree(Layer::Lower), 2);
        assert!((g.avg_degree(Layer::Upper) - 3.0).abs() < 1e-12);
        assert!((g.avg_degree(Layer::Lower) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn neighbors_are_sorted_and_mirrored() {
        let g = toy();
        assert_eq!(g.neighbors(Layer::Upper, 0), &[0, 1, 2]);
        assert_eq!(g.neighbors(Layer::Upper, 1), &[1, 2, 3]);
        assert_eq!(g.neighbors(Layer::Lower, 1), &[0, 1]);
        assert_eq!(g.neighbors(Layer::Lower, 3), &[1]);
        g.validate().unwrap();
    }

    #[test]
    fn has_edge_and_adjacency() {
        let g = toy();
        assert!(g.has_edge(0, 0));
        assert!(g.has_edge(1, 3));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(5, 0), "out of range upper should be false");
        assert!(!g.has_edge(0, 9), "out of range lower should be false");
        assert!(g.are_adjacent(Layer::Upper, 0, 2));
        assert!(g.are_adjacent(Layer::Lower, 2, 0));
        assert!(!g.are_adjacent(Layer::Lower, 0, 1));
    }

    #[test]
    fn edges_iterator_round_trips() {
        let g = toy();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 6);
        let g2 = BipartiteGraph::from_edges(2, 4, edges).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn duplicate_edges_are_collapsed() {
        let g = BipartiteGraph::from_edges(1, 1, [(0, 0), (0, 0), (0, 0)]).unwrap();
        assert_eq!(g.n_edges(), 1);
    }

    #[test]
    fn out_of_range_edge_is_rejected() {
        let err = BipartiteGraph::from_edges(1, 1, [(0, 1)]).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { .. }));
        let err = BipartiteGraph::from_edges(1, 1, [(3, 0)]).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { .. }));
    }

    #[test]
    fn empty_graph_behaves() {
        let g = BipartiteGraph::from_edges(3, 2, std::iter::empty()).unwrap();
        assert!(g.is_empty());
        assert_eq!(g.n_edges(), 0);
        assert_eq!(g.max_degree(Layer::Upper), 0);
        assert_eq!(g.avg_degree(Layer::Lower), 0.0);
        assert_eq!(g.neighbors(Layer::Upper, 2), &[] as &[VertexId]);
        g.validate().unwrap();
    }

    #[test]
    fn zero_vertex_layer() {
        let g = BipartiteGraph::from_edges(0, 0, std::iter::empty()).unwrap();
        assert_eq!(g.n_vertices(), 0);
        assert_eq!(g.layer_size(Layer::Upper), 0);
        g.validate().unwrap();
    }

    #[test]
    fn check_vertex_errors() {
        let g = toy();
        assert!(g.check_vertex(Layer::Upper, 1).is_ok());
        let err = g.check_vertex(Layer::Upper, 2).unwrap_err();
        assert!(matches!(
            err,
            GraphError::VertexOutOfRange {
                layer: Layer::Upper,
                id: 2,
                layer_size: 2
            }
        ));
    }

    #[test]
    fn serde_round_trip() {
        let g = toy();
        let json = serde_json::to_string(&g).unwrap();
        let back: BipartiteGraph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn apply_batch_adds_and_removes_edges() {
        let mut g = toy();
        let mut batch = UpdateBatch::new();
        batch.add_edge(0, 3).remove_edge(1, 1).add_edge(1, 0);
        let applied = g.apply_update_batch(&batch).unwrap();
        assert_eq!(applied.edges_added, 2);
        assert_eq!(applied.edges_removed, 1);
        assert_eq!(applied.epoch, 1);
        assert_eq!(g.epoch(), 1);
        assert_eq!(applied.touched_upper, vec![0, 1]);
        assert_eq!(applied.touched_lower, vec![0, 1, 3]);
        assert!(g.has_edge(0, 3));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(1, 1));
        g.validate().unwrap();
        // The spliced graph equals a from-scratch rebuild of the same edges.
        let rebuilt = BipartiteGraph::from_edges(2, 4, g.edges().collect::<Vec<_>>()).unwrap();
        assert_eq!(g, rebuilt);
        // ...even though their epochs differ (equality is structural).
        assert_ne!(g.epoch(), rebuilt.epoch());
    }

    #[test]
    fn apply_batch_is_idempotent_at_the_edge_level() {
        let mut g = toy();
        let mut batch = UpdateBatch::new();
        batch.add_edge(0, 0).remove_edge(0, 3).remove_edge(0, 3);
        let applied = g.apply_update_batch(&batch).unwrap();
        assert!(applied.is_noop(), "replayed ops must not dirty the graph");
        assert_eq!(g.epoch(), 0, "a no-op batch must not bump the epoch");
        assert_eq!(g, toy());
    }

    #[test]
    fn apply_batch_add_vertex_grows_layers() {
        let mut g = toy();
        let mut batch = UpdateBatch::new();
        batch
            .add_vertex(Layer::Upper)
            .add_vertex(Layer::Lower)
            .add_edge(2, 4)
            .add_edge(2, 0);
        let applied = g.apply_update_batch(&batch).unwrap();
        assert_eq!(applied.vertices_added_upper, 1);
        assert_eq!(applied.vertices_added_lower, 1);
        assert_eq!(g.n_upper(), 3);
        assert_eq!(g.n_lower(), 5);
        assert_eq!(g.neighbors(Layer::Upper, 2), &[0, 4]);
        assert_eq!(g.neighbors(Layer::Lower, 4), &[2]);
        g.validate().unwrap();
    }

    #[test]
    fn apply_batch_rejects_out_of_range_atomically() {
        let mut g = toy();
        let before = g.clone();
        let mut batch = UpdateBatch::new();
        batch.add_edge(0, 3).add_edge(9, 0);
        let err = g.apply_update_batch(&batch).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { .. }));
        assert_eq!(g, before, "a failed batch must leave the graph untouched");
        assert_eq!(g.epoch(), 0);
        assert!(!g.has_edge(0, 3), "no partial application");
    }

    #[test]
    fn apply_batch_last_delta_wins_within_a_batch() {
        let mut g = toy();
        let mut batch = UpdateBatch::new();
        batch.push(GraphDelta::AddEdge { upper: 0, lower: 3 });
        batch.push(GraphDelta::RemoveEdge { upper: 0, lower: 3 });
        let applied = g.apply_update_batch(&batch).unwrap();
        assert!(applied.is_noop());
        assert!(!g.has_edge(0, 3));

        let mut batch = UpdateBatch::new();
        batch.remove_edge(0, 0).add_edge(0, 0);
        let applied = g.apply_update_batch(&batch).unwrap();
        assert!(applied.is_noop());
        assert!(g.has_edge(0, 0));
    }

    /// `(ptr, capacity)` of both adjacency buffers.
    fn adj_buffers(g: &BipartiteGraph) -> [(*const VertexId, usize); 2] {
        [
            (g.upper_adj.as_ptr(), g.upper_adj.capacity()),
            (g.lower_adj.as_ptr(), g.lower_adj.capacity()),
        ]
    }

    #[test]
    fn splice_edits_the_adjacency_buffers_in_place() {
        // Net zero per direction: u0 gains v3 and u1 loses v1, so each
        // adjacency keeps its length while entries move between vertices.
        let mut g = toy();
        let before = adj_buffers(&g);
        let mut batch = UpdateBatch::new();
        batch.add_edge(0, 3).remove_edge(1, 1);
        g.apply_update_batch(&batch).unwrap();
        assert_eq!(g.n_edges(), 6);
        assert_eq!(adj_buffers(&g), before, "a net-zero splice reallocated");
        let rebuilt = BipartiteGraph::from_edges(2, 4, g.edges().collect::<Vec<_>>()).unwrap();
        assert_eq!(g, rebuilt);

        // Shrinking keeps the capacity, and regrowing into it reuses it.
        let mut shrink = UpdateBatch::new();
        shrink.remove_edge(0, 0).remove_edge(1, 3);
        g.apply_update_batch(&shrink).unwrap();
        let mut regrow = UpdateBatch::new();
        regrow.add_edge(1, 0).add_edge(0, 0);
        g.apply_update_batch(&regrow).unwrap();
        assert_eq!(
            adj_buffers(&g),
            before,
            "regrowth within capacity reallocated"
        );
        let rebuilt = BipartiteGraph::from_edges(2, 4, g.edges().collect::<Vec<_>>()).unwrap();
        assert_eq!(g, rebuilt);
        g.validate().unwrap();
    }

    #[test]
    fn apply_batch_sequence_matches_rebuild() {
        // A handful of sequential batches lands on the same structure as a
        // single from-scratch build of the surviving edge set.
        let mut g = BipartiteGraph::from_edges(3, 3, [(0, 0), (1, 1), (2, 2)]).unwrap();
        let mut b1 = UpdateBatch::new();
        b1.add_edge(0, 1).add_edge(0, 2).remove_edge(2, 2);
        g.apply_update_batch(&b1).unwrap();
        let mut b2 = UpdateBatch::new();
        b2.add_vertex(Layer::Upper).add_edge(3, 0).add_edge(3, 2);
        g.apply_update_batch(&b2).unwrap();
        let mut b3 = UpdateBatch::new();
        b3.remove_edge(0, 0).add_edge(2, 1);
        g.apply_update_batch(&b3).unwrap();
        assert_eq!(g.epoch(), 3);
        let rebuilt =
            BipartiteGraph::from_edges(4, 3, [(0, 1), (0, 2), (1, 1), (2, 1), (3, 0), (3, 2)])
                .unwrap();
        assert_eq!(g, rebuilt);
        g.validate().unwrap();
    }
}
