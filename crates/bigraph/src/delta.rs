//! Streaming mutations: edge/vertex deltas, update batches, and the
//! ingestion log.
//!
//! The serving story in `ROADMAP.md` assumes edges arrive and retire while
//! the curator keeps answering common-neighbor queries. This module is the
//! graph-side half of that story:
//!
//! * [`GraphDelta`] — one atomic mutation (add/remove an edge, append a
//!   vertex to a layer);
//! * [`UpdateBatch`] — an ordered sequence of deltas applied transactionally
//!   by [`BipartiteGraph::apply_update_batch`](crate::BipartiteGraph::apply_update_batch):
//!   either every delta validates and the whole batch lands, or the graph is
//!   left untouched;
//! * [`AppliedBatch`] — the receipt: the graph's new epoch, net edge/vertex
//!   counts, and the **touched vertex sets** downstream caches (the
//!   `cne::engine` adjacency store) use for precise invalidation;
//! * [`UpdateLog`] — a thread-safe append log decoupling producers (edges
//!   arriving from live traffic) from the single writer that drains the log
//!   into batches and applies them between query rounds.
//!
//! # Batch semantics
//!
//! Deltas apply in order within a batch, and the batch is *idempotent at the
//! edge level*: adding an edge that already exists and removing one that
//! does not are no-ops (streams routinely replay events), so the net effect
//! of a batch on an edge is decided by the **last** delta naming it. Vertex
//! additions grow a layer by one id each and take effect immediately — a
//! later delta in the same batch may reference the new vertex.
//!
//! Application cost for a batch of `b` deltas is `O(b log b)` to reduce it
//! to its net effect, then an in-place splice per direction: touched
//! vertices are merged in a scratch buffer, the untouched ranges between
//! them shift with one memmove each (together, one memmove of the
//! adjacency past the first touched vertex), and the offsets shift in
//! `O(n)`. There is no [`GraphBuilder`](crate::GraphBuilder) rebuild, no
//! re-sort, no re-validation of untouched adjacency, and no allocation of
//! new CSR arrays while the adjacency has spare capacity.
//!
//! # Epochs
//!
//! Every applied batch that changes anything bumps the graph's
//! [`epoch`](crate::BipartiteGraph::epoch) by one. The epoch is a mutation
//! counter, not part of graph identity: two structurally equal graphs
//! compare equal regardless of how many batches produced them. Downstream
//! caches tag entries with the epoch they were built at and use the
//! [`AppliedBatch`] receipt to invalidate precisely.

use crate::error::{GraphError, Result};
use crate::graph::BipartiteGraph;
use crate::vertex::{Layer, VertexId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// One atomic graph mutation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GraphDelta {
    /// Insert the edge `(upper, lower)`. A no-op if the edge already exists.
    AddEdge {
        /// The upper-layer endpoint.
        upper: VertexId,
        /// The lower-layer endpoint.
        lower: VertexId,
    },
    /// Delete the edge `(upper, lower)`. A no-op if the edge is absent.
    RemoveEdge {
        /// The upper-layer endpoint.
        upper: VertexId,
        /// The lower-layer endpoint.
        lower: VertexId,
    },
    /// Append one isolated vertex to `layer` (its id is the layer's current
    /// size). Later deltas in the same batch may reference it.
    AddVertex {
        /// The layer that grows.
        layer: Layer,
    },
}

impl GraphDelta {
    /// The endpoint that decides which contiguous vertex-range shard owns
    /// this delta when the graph is partitioned along `shard_layer`.
    ///
    /// Edge deltas are owned by their `shard_layer` endpoint; `AddVertex`
    /// has no owner (`None`) and must be **broadcast** to every shard so
    /// layer sizes stay aligned across replicas.
    #[must_use]
    pub fn shard_vertex(&self, shard_layer: Layer) -> Option<VertexId> {
        match *self {
            GraphDelta::AddEdge { upper, lower } | GraphDelta::RemoveEdge { upper, lower } => {
                Some(match shard_layer {
                    Layer::Upper => upper,
                    Layer::Lower => lower,
                })
            }
            GraphDelta::AddVertex { .. } => None,
        }
    }
}

/// An ordered sequence of [`GraphDelta`]s applied as one transaction.
///
/// ```
/// use bigraph::{BipartiteGraph, Layer, UpdateBatch};
///
/// let mut g = BipartiteGraph::from_edges(2, 3, [(0, 0), (1, 2)]).unwrap();
/// let mut batch = UpdateBatch::new();
/// batch.add_edge(0, 1).remove_edge(1, 2).add_vertex(Layer::Lower);
/// let applied = g.apply_update_batch(&batch).unwrap();
/// assert_eq!(applied.edges_added, 1);
/// assert_eq!(applied.edges_removed, 1);
/// assert_eq!(g.n_lower(), 4);
/// assert!(g.has_edge(0, 1));
/// assert!(!g.has_edge(1, 2));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateBatch {
    deltas: Vec<GraphDelta>,
}

impl UpdateBatch {
    /// Creates an empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty batch with room for `n` deltas.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Self {
            deltas: Vec::with_capacity(n),
        }
    }

    /// Appends an arbitrary delta.
    pub fn push(&mut self, delta: GraphDelta) -> &mut Self {
        self.deltas.push(delta);
        self
    }

    /// Appends an edge insertion.
    pub fn add_edge(&mut self, upper: VertexId, lower: VertexId) -> &mut Self {
        self.push(GraphDelta::AddEdge { upper, lower })
    }

    /// Appends an edge deletion.
    pub fn remove_edge(&mut self, upper: VertexId, lower: VertexId) -> &mut Self {
        self.push(GraphDelta::RemoveEdge { upper, lower })
    }

    /// Appends a vertex addition on `layer`.
    pub fn add_vertex(&mut self, layer: Layer) -> &mut Self {
        self.push(GraphDelta::AddVertex { layer })
    }

    /// The deltas in application order.
    #[must_use]
    pub fn deltas(&self) -> &[GraphDelta] {
        &self.deltas
    }

    /// Validates every delta against `g` without applying anything: edge
    /// endpoints must be in range at their point in the sequence (vertices
    /// added earlier in the batch count). Exactly the check
    /// [`BipartiteGraph::apply_update_batch`](crate::BipartiteGraph::apply_update_batch)
    /// performs before touching the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] for the first out-of-range
    /// edge delta.
    pub fn validate(&self, g: &BipartiteGraph) -> Result<()> {
        NetEffect::compute(g, self).map(|_| ())
    }

    /// Splits the batch into one sub-batch per contiguous vertex range of
    /// `shard_layer`, in a **single pass** — the replication path in a
    /// sharded deployment calls this instead of cloning the full batch per
    /// worker and filtering.
    ///
    /// Routing rules (the shard-assignment contract the multi-process
    /// serving tier relies on):
    ///
    /// * an edge delta goes to the one range containing its `shard_layer`
    ///   endpoint ([`GraphDelta::shard_vertex`]); a delta covered by no
    ///   range is dropped, so callers should make the ranges cover the id
    ///   space (conventionally the last range ends at `VertexId::MAX`);
    /// * `AddVertex` is **broadcast** into every sub-batch, keeping layer
    ///   sizes aligned across shards;
    /// * relative order is preserved within each sub-batch, which is enough
    ///   for equivalence: two deltas naming the same edge share a
    ///   `shard_layer` endpoint and therefore a sub-batch, and deltas on
    ///   different edges commute under last-delta-wins semantics.
    #[must_use]
    pub fn partition_by_ranges(
        &self,
        shard_layer: Layer,
        ranges: &[std::ops::Range<VertexId>],
    ) -> Vec<UpdateBatch> {
        let mut parts = vec![UpdateBatch::new(); ranges.len()];
        for &delta in &self.deltas {
            match delta.shard_vertex(shard_layer) {
                Some(v) => {
                    if let Some(at) = ranges.iter().position(|r| r.contains(&v)) {
                        parts[at].push(delta);
                    }
                }
                None => {
                    for part in &mut parts {
                        part.push(delta);
                    }
                }
            }
        }
        parts
    }

    /// Number of deltas in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// Whether the batch holds no deltas.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }
}

impl FromIterator<GraphDelta> for UpdateBatch {
    fn from_iter<I: IntoIterator<Item = GraphDelta>>(iter: I) -> Self {
        Self {
            deltas: iter.into_iter().collect(),
        }
    }
}

impl Extend<GraphDelta> for UpdateBatch {
    fn extend<I: IntoIterator<Item = GraphDelta>>(&mut self, iter: I) {
        self.deltas.extend(iter);
    }
}

/// The receipt of one applied [`UpdateBatch`]: what actually changed, and
/// which vertices downstream caches must invalidate.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppliedBatch {
    /// The graph's epoch after application (unchanged for a no-op batch).
    pub epoch: u64,
    /// Edges that were actually inserted (idempotent re-adds excluded).
    pub edges_added: usize,
    /// Edges that were actually deleted (removals of absent edges excluded).
    pub edges_removed: usize,
    /// Vertices appended to the upper layer.
    pub vertices_added_upper: usize,
    /// Vertices appended to the lower layer.
    pub vertices_added_lower: usize,
    /// Upper vertices whose adjacency changed (sorted, deduplicated).
    pub touched_upper: Vec<VertexId>,
    /// Lower vertices whose adjacency changed (sorted, deduplicated).
    pub touched_lower: Vec<VertexId>,
}

impl AppliedBatch {
    /// Whether the batch changed nothing (every delta was a no-op).
    #[must_use]
    pub fn is_noop(&self) -> bool {
        self.edges_added == 0
            && self.edges_removed == 0
            && self.vertices_added_upper == 0
            && self.vertices_added_lower == 0
    }

    /// The touched vertices of `layer`.
    #[must_use]
    pub fn touched(&self, layer: Layer) -> &[VertexId] {
        match layer {
            Layer::Upper => &self.touched_upper,
            Layer::Lower => &self.touched_lower,
        }
    }

    /// Vertices appended to `layer`.
    #[must_use]
    pub fn vertices_added(&self, layer: Layer) -> usize {
        match layer {
            Layer::Upper => self.vertices_added_upper,
            Layer::Lower => self.vertices_added_lower,
        }
    }
}

/// Number of producer-side shards in an [`UpdateLog`]. Appending threads
/// spread across shards round-robin, so producers contend with at most
/// `1/LOG_SHARDS` of their peers (and never with the drain's merge work).
const LOG_SHARDS: usize = 8;

/// A sentinel-free shard assignment: each OS thread picks a shard once, via
/// a global round-robin counter, and sticks with it. Two threads may share
/// a shard (hint collisions are fine — shards tolerate interleaved
/// producers), but a single producer never migrates, which keeps its
/// entries nearly sorted within the shard.
fn shard_hint() -> usize {
    static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static HINT: usize = NEXT_SHARD.fetch_add(1, Ordering::Relaxed);
    }
    HINT.with(|h| *h)
}

/// A thread-safe append log decoupling edge producers from the single
/// writer that applies batches.
///
/// Producers [`append`](UpdateLog::append) deltas from any thread; the
/// writer periodically [`drain`](UpdateLog::drain_batch)s up to a batch
/// budget and applies the result between query rounds. Sequence numbers
/// (`appended` / `drained` / [`lag`](UpdateLog::lag)) let operators observe
/// ingestion lag exactly.
///
/// # Lock split
///
/// The log is internally sharded so producers never serialize behind the
/// drain. A global atomic allocates sequence numbers; each append then only
/// locks its thread's shard buffer for a push. The drain side sweeps the
/// shards (one brief lock each) into a private staging map and emits deltas
/// in **exact global sequence order**, stopping at the first gap — a
/// sequence number that was allocated but whose delta has not landed in a
/// shard yet is never jumped over, so arrival order is preserved even under
/// concurrent producers.
///
/// ```
/// use bigraph::{GraphDelta, UpdateLog};
///
/// let log = UpdateLog::new();
/// log.append(GraphDelta::AddEdge { upper: 0, lower: 1 });
/// log.append(GraphDelta::AddEdge { upper: 0, lower: 2 });
/// assert_eq!(log.pending(), 2);
/// assert_eq!(log.lag(), 2);
/// let batch = log.drain_batch(10).unwrap();
/// assert_eq!(batch.len(), 2);
/// assert_eq!(log.pending(), 0);
/// assert_eq!(log.drained(), 2);
/// ```
#[derive(Debug, Default)]
pub struct UpdateLog {
    /// Per-producer buffers of `(sequence, delta)`, each kept sorted by
    /// sequence (producers insert near the back; inversions only happen
    /// when two threads share a shard and race the allocator).
    shards: [Mutex<VecDeque<(u64, GraphDelta)>>; LOG_SHARDS],
    /// Drain-side staging: deltas swept out of the shards but not yet
    /// emitted into a batch (because an earlier sequence number was still
    /// in flight, or the batch budget ran out). Guarded by the drain lock.
    staging: Mutex<BTreeMap<u64, GraphDelta>>,
    /// Highest sequence number ever allocated (1-based; 0 = empty).
    appended: AtomicU64,
    /// Total deltas emitted into batches, in order: the drain cursor.
    emitted: AtomicU64,
    /// Drained-delta retention, `None` unless the log was built with
    /// [`with_retention`](UpdateLog::with_retention): every emitted
    /// `(sequence, delta)` pair, in sequence order, kept for
    /// [`replay_from`](UpdateLog::replay_from).
    history: Mutex<Option<Vec<(u64, GraphDelta)>>>,
}

/// Inserts `(seq, delta)` keeping `q` sorted by sequence. Scans from the
/// back: an entry is out of order only when two producers sharing a shard
/// raced the sequence allocator, so the scan is O(1) amortized.
fn insert_by_seq(q: &mut VecDeque<(u64, GraphDelta)>, seq: u64, delta: GraphDelta) {
    let mut at = q.len();
    while at > 0 && q[at - 1].0 > seq {
        at -= 1;
    }
    q.insert(at, (seq, delta));
}

impl UpdateLog {
    /// Creates an empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty log that **retains drained deltas** so
    /// [`replay_from`](UpdateLog::replay_from) can re-emit any tail of the
    /// stream. A plain [`new`](UpdateLog::new) log discards deltas as they
    /// are drained.
    ///
    /// Retention grows by one entry per drained delta until the owner
    /// truncates it: once a newer snapshot covers a prefix of the stream,
    /// [`truncate_history_through`](UpdateLog::truncate_history_through)
    /// discards everything at or below the snapshot's pinned sequence —
    /// which is how a sharded-serving coordinator bounds the history each
    /// time a rebalance re-pins its recovery source.
    #[must_use]
    pub fn with_retention() -> Self {
        Self {
            history: Mutex::new(Some(Vec::new())),
            ..Self::default()
        }
    }

    /// Re-emits every retained delta with sequence number **strictly
    /// greater than** `after_seq`, in sequence order — the tail-replay
    /// primitive for snapshot-bootstrapped consumers: a snapshot pinned at
    /// sequence `s` is caught up by applying `replay_from(s)`.
    ///
    /// Only deltas that have already been drained are replayed (the
    /// retention hook sits on the drain path); anything still pending will
    /// arrive through the normal drain. Returns `None` when the log was
    /// not built with [`with_retention`](UpdateLog::with_retention) —
    /// callers must treat that as "replay unavailable", not "empty tail".
    /// The returned batch may be empty when the tail is fully covered.
    #[must_use]
    pub fn replay_from(&self, after_seq: u64) -> Option<UpdateBatch> {
        let history = self.history.lock().expect("update log poisoned");
        let history = history.as_ref()?;
        // History is sorted by sequence; find the first entry past the pin.
        let start = history.partition_point(|&(seq, _)| seq <= after_seq);
        Some(history[start..].iter().map(|&(_, delta)| delta).collect())
    }

    /// Discards retained history with sequence number **at or below**
    /// `through_seq`, bounding the memory
    /// [`replay_from`](UpdateLog::replay_from) keeps alive. Call it when a
    /// newer snapshot covers that prefix of the stream: a later
    /// `replay_from(s)` with `s >= through_seq` still returns the exact
    /// tail, while replaying from an older pin would silently miss the
    /// truncated deltas — the caller owns that invariant. No-op on a log
    /// without retention.
    pub fn truncate_history_through(&self, through_seq: u64) {
        if let Some(history) = self.history.lock().expect("update log poisoned").as_mut() {
            let keep_from = history.partition_point(|&(seq, _)| seq <= through_seq);
            history.drain(..keep_from);
        }
    }

    /// Appends one delta, returning its sequence number (1-based).
    pub fn append(&self, delta: GraphDelta) -> u64 {
        let seq = self.appended.fetch_add(1, Ordering::Relaxed) + 1;
        let shard = &self.shards[shard_hint() % LOG_SHARDS];
        insert_by_seq(&mut shard.lock().expect("update log poisoned"), seq, delta);
        seq
    }

    /// Appends many deltas, returning the last sequence number assigned.
    /// The deltas receive consecutive-per-call order within this thread's
    /// shard; other producers may interleave between them in global order.
    pub fn extend<I: IntoIterator<Item = GraphDelta>>(&self, deltas: I) -> u64 {
        let shard = &self.shards[shard_hint() % LOG_SHARDS];
        let mut q = shard.lock().expect("update log poisoned");
        let mut last = self.appended.load(Ordering::Relaxed);
        for d in deltas {
            last = self.appended.fetch_add(1, Ordering::Relaxed) + 1;
            insert_by_seq(&mut q, last, d);
        }
        last
    }

    /// Number of deltas waiting to be drained (allocated sequence numbers
    /// not yet emitted into a batch, including any still in producer
    /// shards or the drain staging area).
    #[must_use]
    pub fn pending(&self) -> usize {
        usize::try_from(self.lag()).unwrap_or(usize::MAX)
    }

    /// Total deltas ever appended.
    #[must_use]
    pub fn appended(&self) -> u64 {
        self.appended.load(Ordering::Acquire)
    }

    /// Total deltas ever drained into batches.
    #[must_use]
    pub fn drained(&self) -> u64 {
        self.emitted.load(Ordering::Acquire)
    }

    /// Exact ingestion lag in deltas: `appended() - drained()`.
    #[must_use]
    pub fn lag(&self) -> u64 {
        // Load the drain cursor first: racing producers can only make the
        // reported lag momentarily high, never negative.
        let emitted = self.emitted.load(Ordering::Acquire);
        self.appended
            .load(Ordering::Acquire)
            .saturating_sub(emitted)
    }

    /// Drains up to `max` pending deltas (in exact arrival order) into a
    /// batch. Returns `None` when nothing is ready. A delta whose sequence
    /// number was allocated but whose producer has not finished appending
    /// yet stops the drain at that gap; it (and everything after it) stays
    /// pending for the next call.
    #[must_use]
    pub fn drain_batch(&self, max: usize) -> Option<UpdateBatch> {
        if max == 0 {
            return None;
        }
        let mut staging = self.staging.lock().expect("update log poisoned");
        // Sweep every shard's current contents into the staging map. Each
        // shard lock is held only for the buffer handoff, so producers keep
        // appending while the merge below runs.
        for shard in &self.shards {
            let mut swept = {
                let mut q = shard.lock().expect("update log poisoned");
                std::mem::take(&mut *q)
            };
            for (seq, delta) in swept.drain(..) {
                staging.insert(seq, delta);
            }
        }
        if staging.is_empty() {
            return None;
        }
        let mut next = self.emitted.load(Ordering::Acquire) + 1;
        let mut batch = UpdateBatch::with_capacity(max.min(staging.len()));
        while batch.len() < max {
            match staging.remove(&next) {
                Some(delta) => {
                    batch.push(delta);
                    next += 1;
                }
                None => break,
            }
        }
        if batch.is_empty() {
            return None;
        }
        let first = next - batch.len() as u64;
        if let Some(history) = self.history.lock().expect("update log poisoned").as_mut() {
            history.extend(
                batch
                    .deltas()
                    .iter()
                    .enumerate()
                    .map(|(i, &delta)| (first + i as u64, delta)),
            );
        }
        self.emitted
            .fetch_add(batch.len() as u64, Ordering::Release);
        Some(batch)
    }

    /// Drains up to `max` pending deltas and partitions them by contiguous
    /// vertex range in the same pass — the sharded-replication form of
    /// [`drain_batch`](UpdateLog::drain_batch). Returns one sub-batch per
    /// range (possibly empty), or `None` when nothing was ready.
    ///
    /// Routing follows [`UpdateBatch::partition_by_ranges`]: edge deltas go
    /// to the range owning their `shard_layer` endpoint, `AddVertex` is
    /// broadcast, and global arrival order is preserved within each
    /// sub-batch.
    #[must_use]
    pub fn drain_partitioned(
        &self,
        max: usize,
        shard_layer: Layer,
        ranges: &[std::ops::Range<VertexId>],
    ) -> Option<Vec<UpdateBatch>> {
        self.drain_batch(max)
            .map(|batch| batch.partition_by_ranges(shard_layer, ranges))
    }
}

/// The per-batch working state of [`BipartiteGraph::apply_update_batch`]
/// (crate-internal; constructed by the validation pass in `graph.rs`).
pub(crate) struct NetEffect {
    /// Final upper-layer size after vertex additions.
    pub n_upper: usize,
    /// Final lower-layer size after vertex additions.
    pub n_lower: usize,
    /// Vertices appended per layer.
    pub added_upper: usize,
    /// Vertices appended per layer.
    pub added_lower: usize,
    /// Net edge insertions, sorted by `(upper, lower)`.
    pub adds: Vec<(VertexId, VertexId)>,
    /// Net edge deletions, sorted by `(upper, lower)`.
    pub removes: Vec<(VertexId, VertexId)>,
}

impl NetEffect {
    /// Validates `batch` against `g` and reduces it to its net effect.
    ///
    /// Walks the deltas in order, growing the layer-size bounds as
    /// `AddVertex` deltas appear, and records the **last** operation per
    /// edge pair. The net lists then compare that desired final state with
    /// the current membership, so replayed adds/removes drop out.
    pub(crate) fn compute(g: &BipartiteGraph, batch: &UpdateBatch) -> Result<Self> {
        let mut n_upper = g.n_upper();
        let mut n_lower = g.n_lower();
        let mut added_upper = 0usize;
        let mut added_lower = 0usize;
        // Last-delta-wins per pair: `true` means the edge must exist after
        // the batch. A BTreeMap keeps pairs sorted for the splice pass.
        let mut desired = std::collections::BTreeMap::new();
        for delta in batch.deltas() {
            match *delta {
                GraphDelta::AddVertex { layer } => match layer {
                    Layer::Upper => {
                        n_upper += 1;
                        added_upper += 1;
                    }
                    Layer::Lower => {
                        n_lower += 1;
                        added_lower += 1;
                    }
                },
                GraphDelta::AddEdge { upper, lower } | GraphDelta::RemoveEdge { upper, lower } => {
                    if upper as usize >= n_upper {
                        return Err(GraphError::VertexOutOfRange {
                            layer: Layer::Upper,
                            id: upper,
                            layer_size: n_upper,
                        });
                    }
                    if lower as usize >= n_lower {
                        return Err(GraphError::VertexOutOfRange {
                            layer: Layer::Lower,
                            id: lower,
                            layer_size: n_lower,
                        });
                    }
                    let present = matches!(delta, GraphDelta::AddEdge { .. });
                    desired.insert((upper, lower), present);
                }
            }
        }
        let mut adds = Vec::new();
        let mut removes = Vec::new();
        for (&(u, v), &present) in &desired {
            // `has_edge` answers `false` for ids beyond the *current* layer
            // sizes, which is exactly right for edges on just-added vertices.
            let has = g.has_edge(u, v);
            if present && !has {
                adds.push((u, v));
            } else if !present && has {
                removes.push((u, v));
            }
        }
        Ok(Self {
            n_upper,
            n_lower,
            added_upper,
            added_lower,
            adds,
            removes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> BipartiteGraph {
        BipartiteGraph::from_edges(2, 4, [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3)]).unwrap()
    }

    #[test]
    fn batch_builder_collects_in_order() {
        let mut b = UpdateBatch::new();
        b.add_edge(0, 1).remove_edge(2, 3).add_vertex(Layer::Upper);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
        assert_eq!(b.deltas()[0], GraphDelta::AddEdge { upper: 0, lower: 1 });
        assert_eq!(b.deltas()[1], GraphDelta::RemoveEdge { upper: 2, lower: 3 });
        assert_eq!(
            b.deltas()[2],
            GraphDelta::AddVertex {
                layer: Layer::Upper
            }
        );
    }

    #[test]
    fn net_effect_applies_last_delta_per_pair() {
        let g = toy();
        let mut b = UpdateBatch::new();
        // Edge (0,3): absent, add→remove→add ⇒ net add.
        b.add_edge(0, 3).remove_edge(0, 3).add_edge(0, 3);
        // Edge (0,0): present, remove→add ⇒ net nothing.
        b.remove_edge(0, 0).add_edge(0, 0);
        // Edge (1,1): present, add (replay) ⇒ net nothing.
        b.add_edge(1, 1);
        let net = NetEffect::compute(&g, &b).unwrap();
        assert_eq!(net.adds, vec![(0, 3)]);
        assert!(net.removes.is_empty());
    }

    #[test]
    fn net_effect_validates_against_growing_sizes() {
        let g = toy();
        // Vertex u2 does not exist yet...
        let mut early = UpdateBatch::new();
        early.add_edge(2, 0).add_vertex(Layer::Upper);
        assert!(matches!(
            NetEffect::compute(&g, &early),
            Err(GraphError::VertexOutOfRange {
                layer: Layer::Upper,
                id: 2,
                ..
            })
        ));
        // ...but referencing it after its AddVertex delta is fine.
        let mut late = UpdateBatch::new();
        late.add_vertex(Layer::Upper).add_edge(2, 0);
        let net = NetEffect::compute(&g, &late).unwrap();
        assert_eq!(net.n_upper, 3);
        assert_eq!(net.adds, vec![(2, 0)]);
    }

    #[test]
    fn partition_routes_by_shard_endpoint_and_broadcasts_vertices() {
        let mut b = UpdateBatch::new();
        b.add_edge(0, 9)
            .add_edge(5, 0)
            .add_vertex(Layer::Lower)
            .remove_edge(3, 1)
            .add_edge(9, 9);
        let ranges = [0u32..4, 4..u32::MAX];
        let parts = b.partition_by_ranges(Layer::Upper, &ranges);
        assert_eq!(parts.len(), 2);
        // Shard 0 owns uppers [0,4): edges on u0/u3 plus the broadcast.
        assert_eq!(
            parts[0].deltas(),
            &[
                GraphDelta::AddEdge { upper: 0, lower: 9 },
                GraphDelta::AddVertex {
                    layer: Layer::Lower
                },
                GraphDelta::RemoveEdge { upper: 3, lower: 1 },
            ]
        );
        // Shard 1 owns uppers [4,MAX): edges on u5/u9 plus the broadcast.
        assert_eq!(
            parts[1].deltas(),
            &[
                GraphDelta::AddEdge { upper: 5, lower: 0 },
                GraphDelta::AddVertex {
                    layer: Layer::Lower
                },
                GraphDelta::AddEdge { upper: 9, lower: 9 },
            ]
        );
        // Every edge delta lands exactly once; AddVertex lands everywhere.
        let total: usize = parts.iter().map(UpdateBatch::len).sum();
        assert_eq!(total, 4 + 2);
        // Partitioning along the other layer routes by the lower endpoint.
        let by_lower = b.partition_by_ranges(Layer::Lower, &[0u32..2, 2..u32::MAX]);
        assert_eq!(by_lower[0].len(), 2 + 1); // l0, l1 edges + broadcast
        assert_eq!(by_lower[1].len(), 2 + 1); // l9, l9 edges + broadcast
    }

    #[test]
    fn partition_drops_deltas_covered_by_no_range() {
        let mut b = UpdateBatch::new();
        b.add_edge(0, 0).add_edge(7, 0);
        let parts = b.partition_by_ranges(Layer::Upper, std::slice::from_ref(&(0u32..4)));
        assert_eq!(parts.len(), 1);
        assert_eq!(
            parts[0].deltas(),
            &[GraphDelta::AddEdge { upper: 0, lower: 0 }]
        );
    }

    #[test]
    fn drain_partitioned_matches_drain_then_partition() {
        let log = UpdateLog::new();
        assert!(log
            .drain_partitioned(8, Layer::Upper, std::slice::from_ref(&(0..u32::MAX)))
            .is_none());
        for i in 0..10u32 {
            log.append(GraphDelta::AddEdge {
                upper: i % 4,
                lower: i,
            });
        }
        let ranges = [0u32..1, 1..2, 2..u32::MAX];
        let parts = log
            .drain_partitioned(10, Layer::Upper, &ranges)
            .expect("deltas pending");
        assert_eq!(parts.len(), 3);
        assert_eq!(log.drained(), 10);
        // Reconstruct per-range expectations from the original stream.
        for (range, part) in ranges.iter().zip(&parts) {
            for delta in part.deltas() {
                let v = delta.shard_vertex(Layer::Upper).unwrap();
                assert!(range.contains(&v));
            }
        }
        let total: usize = parts.iter().map(UpdateBatch::len).sum();
        assert_eq!(total, 10);
        // Order within a sub-batch follows global arrival order: lowers
        // are strictly increasing for each shard's stream.
        for part in &parts {
            let lowers: Vec<u32> = part
                .deltas()
                .iter()
                .map(|d| match *d {
                    GraphDelta::AddEdge { lower, .. } => lower,
                    _ => unreachable!(),
                })
                .collect();
            let mut sorted = lowers.clone();
            sorted.sort_unstable();
            assert_eq!(lowers, sorted);
        }
    }

    #[test]
    fn update_log_drains_in_arrival_order() {
        let log = UpdateLog::new();
        assert!(log.drain_batch(8).is_none());
        assert_eq!(log.append(GraphDelta::AddEdge { upper: 0, lower: 0 }), 1);
        let last = log.extend([
            GraphDelta::AddEdge { upper: 0, lower: 1 },
            GraphDelta::RemoveEdge { upper: 0, lower: 0 },
        ]);
        assert_eq!(last, 3);
        assert_eq!(log.pending(), 3);
        let batch = log.drain_batch(2).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(
            batch.deltas()[0],
            GraphDelta::AddEdge { upper: 0, lower: 0 }
        );
        assert_eq!(log.pending(), 1);
        assert_eq!(log.appended(), 3);
        assert_eq!(log.drained(), 2);
        assert!(log.drain_batch(0).is_none());
        let rest = log.drain_batch(99).unwrap();
        assert_eq!(rest.len(), 1);
        assert_eq!(log.drained(), 3);
    }

    #[test]
    fn update_log_is_shareable_across_threads() {
        let log = std::sync::Arc::new(UpdateLog::new());
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let log = std::sync::Arc::clone(&log);
                std::thread::spawn(move || {
                    for k in 0..25u32 {
                        log.append(GraphDelta::AddEdge { upper: t, lower: k });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.pending(), 100);
        assert_eq!(log.appended(), 100);
    }

    #[test]
    fn update_log_emits_exact_global_sequence_order() {
        // Concurrent producers record the sequence number of every delta
        // they append; the drained stream must equal the deltas sorted by
        // sequence, with no gap jumped and no delta lost.
        let log = std::sync::Arc::new(UpdateLog::new());
        let handles: Vec<_> = (0..4u32)
            .map(|t| {
                let log = std::sync::Arc::clone(&log);
                std::thread::spawn(move || {
                    (0..250u32)
                        .map(|k| (log.append(GraphDelta::AddEdge { upper: t, lower: k }), t, k))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut by_seq = std::collections::BTreeMap::new();
        for h in handles {
            for (seq, t, k) in h.join().unwrap() {
                assert!(by_seq.insert(seq, (t, k)).is_none(), "duplicate seq {seq}");
            }
        }
        assert_eq!(by_seq.len(), 1000);
        assert_eq!(log.lag(), 1000);
        let mut drained = Vec::new();
        while let Some(batch) = log.drain_batch(7) {
            drained.extend(batch.deltas().iter().copied());
        }
        assert_eq!(log.drained(), 1000);
        assert_eq!(log.lag(), 0);
        let expected: Vec<GraphDelta> = by_seq
            .values()
            .map(|&(t, k)| GraphDelta::AddEdge { upper: t, lower: k })
            .collect();
        assert_eq!(drained, expected);
    }

    #[test]
    fn update_log_drain_runs_concurrently_with_producers() {
        let log = std::sync::Arc::new(UpdateLog::new());
        let producers: Vec<_> = (0..3u32)
            .map(|t| {
                let log = std::sync::Arc::clone(&log);
                std::thread::spawn(move || {
                    for k in 0..400u32 {
                        log.append(GraphDelta::AddEdge { upper: t, lower: k });
                        if k % 64 == 0 {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        // Drain while producers are live: per-producer order must survive
        // in the concatenated output, and counters must stay exact.
        let mut seen: Vec<GraphDelta> = Vec::new();
        loop {
            if let Some(batch) = log.drain_batch(97) {
                seen.extend(batch.deltas().iter().copied());
            }
            if producers.iter().all(|p| p.is_finished()) && log.lag() == 0 {
                break;
            }
            std::thread::yield_now();
        }
        for p in producers {
            p.join().unwrap();
        }
        while let Some(batch) = log.drain_batch(usize::MAX) {
            seen.extend(batch.deltas().iter().copied());
        }
        assert_eq!(seen.len(), 1200);
        assert_eq!(log.appended(), 1200);
        assert_eq!(log.drained(), 1200);
        let mut next_per_thread = [0u32; 3];
        for d in seen {
            let GraphDelta::AddEdge { upper, lower } = d else {
                panic!("unexpected delta {d:?}");
            };
            assert_eq!(
                lower, next_per_thread[upper as usize],
                "thread {upper} reordered"
            );
            next_per_thread[upper as usize] += 1;
        }
        assert_eq!(next_per_thread, [400; 3]);
    }

    #[test]
    fn serde_round_trip() {
        let mut b = UpdateBatch::new();
        b.add_edge(1, 2).add_vertex(Layer::Lower).remove_edge(0, 0);
        let json = serde_json::to_string(&b).unwrap();
        let back: UpdateBatch = serde_json::from_str(&json).unwrap();
        assert_eq!(b, back);
    }
}
