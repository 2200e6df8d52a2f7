//! The persistent curator-side estimation engine.
//!
//! The per-algorithm modules implement *one* protocol run each. Serving
//! millions of repeated queries needs three things they cannot provide on
//! their own, and this module supplies all three:
//!
//! * [`AdjacencyStore`] — a lazily built, read-only cache of bit-packed
//!   ([`bigraph::bitset::PackedSet`]) true adjacencies, one bitmap per
//!   vertex and layer, plus per-layer degree statistics. Packing a vertex's
//!   neighbor list costs `O(degree + universe/64)`; the store pays that cost
//!   once per vertex per graph instead of once per query, so the word-parallel
//!   popcount intersections in the single-source hot loop start from warm
//!   bitmaps.
//! * [`RoundContext`] — the unified per-run state (privacy-budget accountant,
//!   byte-accurate message transcript, the RNG stream, and a reusable
//!   [`ScratchArena`]) that every protocol round reads and writes. It
//!   replaces the `&mut BudgetAccountant, &mut Transcript, &mut dyn RngCore`
//!   parameter trains the protocol modules used to thread through every
//!   helper.
//! * [`EstimationEngine`] — the facade applications talk to: build it once
//!   per graph, then call [`EstimationEngine::estimate`] /
//!   [`EstimationEngine::estimate_batch`] /
//!   [`EstimationEngine::estimate_many_targets`] as often as needed. Every
//!   call shares the same warm [`AdjacencyStore`].
//!
//! # Lean vs detailed accounting
//!
//! A [`RoundContext`] opened with [`RoundContext::begin`] records **lean**
//! accounting artifacts: the transcript keeps only the fixed-size
//! [`ldp::transcript::TranscriptStats`] counters and the budget accountant
//! keeps only its consumption totals, so recording a message or charging
//! the budget is pure arithmetic — no allocation, no label rendering. All
//! aggregate accessors (total/per-round/per-direction bytes, rounds,
//! consumed budget) are exact in this mode; only the per-message /
//! per-charge logs are absent. Open the context with
//! [`RoundContext::begin_detailed`] (or run through
//! [`run_detailed`] / `BatchSingleSource::estimate_batch_detailed`) to
//! additionally retain those logs for tests and debugging. Estimates and
//! aggregates are byte-identical across the two modes — the mode changes
//! *what is retained*, never what is computed.
//!
//! # Scratch-arena lifecycle
//!
//! The per-candidate hot loops used to allocate once per candidate (packing
//! an adjacency into a fresh bitmap, building label strings). A
//! [`ScratchArena`] bundles the reusable buffers — randomized-response
//! perturbation scratch, packed-word scratch for pack-then-popcount
//! intersections, and candidate id-list staging:
//!
//! * every [`RoundContext`] owns one arena for the sequential protocol
//!   steps of its run (buffers grow on first use, then are reused across
//!   rounds of the same run);
//! * the rayon fan-outs ([`crate::batch::BatchSingleSource`] round 2,
//!   [`EstimationEngine::estimate_many_targets`]) use one **thread-local**
//!   arena per worker, accessed through [`with_shard_scratch`], so each
//!   shard's inner candidate loop performs zero heap allocations once its
//!   buffers have grown to the working size (regression-tested with a
//!   counting allocator in `tests/alloc_regression.rs`).
//!
//! Arenas hold no protocol state — only capacity — so reuse can never
//! change a result: every scratch-based kernel counts the same set the
//! allocating kernel counted.
//!
//! # The packed-native round-1 pipeline
//!
//! Round-1 randomized response — the dominant cost of a warm batch — runs
//! **packed-native** end to end: every engine-routed protocol perturbs
//! through [`crate::protocol::randomized_response_round_packed`], which
//! writes each noisy row directly into bit-packed `u64` words
//! ([`ldp::noisy_graph::NoisyNeighborsPacked`]). Kept true neighbors OR in
//! word-wise from the [`AdjacencyStore`]'s cached bitmap
//! ([`ProtocolEnv::round1_true_bitmap`] — dense vertices build through the
//! admission-aware cache, sparse ones reuse a bitmap only if it already
//! exists), flipped zeros set bits as their skip-sampled ranks are
//! translated, and consumers popcount the words as-is — the warm path is
//! RNG → words → popcount with **zero intermediate id lists**. The
//! underlying draws come from `ldp`'s batched gap pipeline (block fills,
//! exact threshold tables cached on the [`ScratchArena`]).
//!
//! **Draw-sequence compatibility:** the packed round consumes the RNG
//! stream draw-for-draw identically to `ldp`'s scalar reference sampler
//! and sets exactly the ids it returns (property-tested in `ldp`), so the
//! pipeline can be rewritten without moving an estimate — pinned across
//! revisions by `tests/pinned_fingerprints.rs`.
//!
//! # Cache lifecycle
//!
//! The store is immutable-after-init per slot *between update batches*:
//! each vertex's bitmap is built on first use (from any thread — slots are
//! [`std::sync::OnceLock`]s) and only dropped when an update batch touches
//! its vertex. A store must only ever be used with the graph it was created
//! for; [`EstimationEngine`] enforces that pairing by construction. Sparse
//! vertices never get packed at all — the degree-aware dispatch only consults
//! the cache for vertices dense enough that popcount beats per-id probing —
//! so memory stays proportional to the number of *dense* vertices actually
//! queried. Call [`EstimationEngine::warm`] (or [`AdjacencyStore::warm`]) to
//! pre-build a layer's *dense* vertices up front (sparse ones are skipped —
//! no query path ever reads their bitmaps), e.g. before latency-sensitive
//! serving.
//!
//! # Mutation & invalidation lifecycle
//!
//! Edges arrive and retire while the curator keeps serving: the graph side
//! is an epoch-counted [`bigraph::delta::UpdateBatch`] spliced in place by
//! [`bigraph::BipartiteGraph::apply_update_batch`], and
//! [`EstimationEngine::apply_updates`] is the engine-side transaction that
//! keeps the cache coherent with it. The lifecycle per applied batch:
//!
//! 1. **Validate, then splice.** The batch is validated against the current
//!    graph first; a rejected batch leaves graph, cache, and generation
//!    untouched. A valid batch is spliced into the CSR arrays in place.
//! 2. **Precise invalidation.** Only the *touched* vertices' cached
//!    [`PackedSet`]s are dropped ([`AdjacencyStore::invalidate_applied`]);
//!    every other entry stays warm. Cached [`LayerStats`] are cleared (any
//!    edge moves both layers' degree distributions). The one coarse case is
//!    vertex addition: growing a layer grows the bitmap universe of the
//!    *opposite* layer, so that layer's entries are all dropped — their
//!    word counts no longer match a fresh pack.
//! 3. **Epochs.** Every slot is tagged with the store epoch it was built
//!    at ([`AdjacencyStore::entry_epoch`]); invalidation advances the store
//!    epoch to the graph's. Because every touched entry is dropped, a
//!    cached entry is always bit-identical to a fresh pack of the current
//!    adjacency — the **determinism contract survives mutation**: after any
//!    update sequence, engine estimates are byte-identical to a cold engine
//!    built on the post-update graph (property-tested in
//!    `tests/streaming_updates.rs`).
//! 4. **Generations.** Effective batches bump
//!    [`EstimationEngine::generation`]. Readers that derive state from
//!    query results (candidate sets, rankings) snapshot the generation and
//!    re-check it via [`EstimationEngine::check_generation`] or the
//!    [`EstimationEngine::estimate_at`] /
//!    [`EstimationEngine::estimate_batch_at`] guards, turning
//!    read-your-stale-writes races into explicit
//!    [`CneError::StaleGeneration`] retries.
//!
//! # Serving lifecycle
//!
//! Two ways to keep serving while the graph moves, by ownership model:
//!
//! * **Single-owner loop** — one thread owns the engine, alternating
//!   [`EstimationEngine::apply_updates`] and query rounds. Readers guard
//!   with the generation-checked entry points and, instead of hand-rolling
//!   the retry, can use [`EstimationEngine::estimate_with_retry`] /
//!   [`EstimationEngine::estimate_batch_with_retry`]: a
//!   [`CneError::StaleGeneration`] rejection carries the current
//!   generation, so the helper re-resolves the cursor and retries within a
//!   bound — staleness is a *retry hint*, not a failure. The cost of this
//!   model is the stop-the-world splice: every batch blocks queries while
//!   the CSR is spliced.
//! * **Serving tier** — [`crate::serving::ServingEngine`] removes that
//!   stall with epoch-pinned double-buffering. Readers pin a snapshot
//!   (`snapshot()` — a slot CAS, no locks, no allocation), query it like
//!   any engine, and retire it by dropping; a dedicated writer thread
//!   drains the producer-sharded [`bigraph::UpdateLog`] in bounded
//!   batches, splices the *offline* buffer (coalescing everything pending
//!   into one splice), pre-warms the touched bitmaps, and publishes by
//!   bumping the epoch. Queries never wait on a splice, and every pinned
//!   answer is byte-identical to a cold engine at the pinned epoch
//!   (`tests/serving_swap.rs`). See the [`crate::serving`] module docs for
//!   the pin/publish protocol and its freshness ↔ throughput trade.
//!
//! # Bounded caches (LRU eviction)
//!
//! Graphs too large to cache every dense vertex use
//! [`AdjacencyStore::with_byte_cap`] (engine:
//! [`EstimationEngine::with_cache_budget`]): built bitmaps are byte-
//! accounted, and an insertion that would exceed the cap is *declined* —
//! the query falls back to scratch packing, so results never depend on
//! admission decisions, and the accounting compare-exchange guarantees the
//! budget is never exceeded, not even transiently. Every read stamps its
//! slot with a monotonic recency tick; [`AdjacencyStore::maintain`] (run
//! automatically at the end of every `apply_updates`, or manually via
//! [`EstimationEngine::maintain_cache`]) reacts to declined admissions by
//! evicting least-recently-stamped entries until a quarter of the budget is
//! free, letting the current hot set in. Eviction, like invalidation,
//! cannot change any estimate — only where the bits are counted from. The
//! warm path stays allocation-free: recency stamps are relaxed atomic
//! stores, and declined vertices pack into the worker's scratch arena.
//!
//! # Determinism contract
//!
//! Engine results are a pure function of `(graph, query, epsilon, seed)`:
//!
//! * cached and uncached paths are **byte-identical** — the cache only
//!   changes *how* an intersection is counted, never the count, so every
//!   downstream floating-point operation sees identical inputs;
//! * parallel fan-outs ([`EstimationEngine::estimate_batch`] round 2,
//!   [`EstimationEngine::estimate_many_targets`]) derive one RNG stream per
//!   participating user as `mix(seed, vertex id)`
//!   ([`crate::batch::user_stream_seed`]) — never from thread scheduling —
//!   so output is byte-identical at any `RAYON_NUM_THREADS`.
//!
//! Both properties are enforced by regression tests
//! (`tests/engine_determinism.rs`).
//!
//! # Sharding story
//!
//! [`EstimationEngine::estimate_many_targets`] fans `targets × candidates`
//! over rayon. Logically each target shard runs the whole batch protocol on
//! its own `mix(seed, target)` stream, and inside a shard every candidate
//! estimator runs on its own `mix(base, candidate)` stream. Physically the
//! execution is **fused candidate-major**: round 1 runs per target in
//! target order (so the first validation error matches the sequential
//! reference), then one parallel pass over *candidate chunks* computes the
//! dense `targets × chunk` value block — each candidate's adjacency is
//! resolved once and counted against every target's noisy row while it is
//! cache-hot ([`ProtocolEnv::true_intersection_multi_scratch`]), and each
//! chunk's per-user RNG streams are seeded in batch and given their Laplace
//! draw in bulk. Because every `(target, candidate)` estimate depends only
//! on its own independently keyed stream, the fused schedule is
//! byte-identical to the per-shard one; and because no stream depends on
//! placement, the same contract extends across processes or machines —
//! shard the target list however is convenient and concatenate the reports.
//!
//! # Kernel dispatch
//!
//! The data-parallel kernels under the hot paths — `popcount`/AND-popcount
//! over packed words ([`bigraph::bitset`]) and the ChaCha block core
//! (vendored `rand_chacha`) — pick a hardware tier **once per process**: a
//! `OnceLock`'d function pointer is installed after runtime CPU-feature
//! detection (`is_x86_feature_detected!`), choosing AVX2, then `popcnt`,
//! then the portable software implementation. Every tier computes exact
//! integer counts (or the exact keystream), so dispatch can never change an
//! estimate — only its speed; the adversarial-length equivalence tests in
//! `bigraph::bitset` pin every selectable tier to the scalar reference.
//! Setting `CNE_FORCE_PORTABLE_KERNELS=1` (read once at first dispatch)
//! pins every dispatcher to the portable tier — the escape hatch for
//! A/B-testing a suspect hardware kernel or reproducing results on exotic
//! hardware; CI runs the full `bigraph`/`ldp`/`cne` suites under it.
//! The same detect-once philosophy covers the batched scalar pipelines:
//! per-user RNG setup seeds stream blocks through
//! `StdRng::seed_batch_from_u64` (interleaved SplitMix64 lanes,
//! state-identical to per-seed setup). Round-2 noise is one scalar
//! [`ldp::LaplaceMechanism::perturb`] draw per candidate from that
//! candidate's own stream (see [`crate::batch::batch_round2`]).

use crate::batch::{user_stream_seed, BatchReport, BatchSingleSource};
use crate::central::CentralDP;
use crate::double_source::{MultiRDS, MultiRDSBasic, MultiRDSStar};
use crate::error::{CneError, Result};
use crate::estimate::{AlgorithmKind, EstimateReport};
use crate::estimator::CommonNeighborEstimator;
use crate::naive::Naive;
use crate::one_round::OneR;
use crate::protocol::Query;
use crate::single_source::MultiRSS;
use bigraph::bitset::{PackScratch, PackedSet};
use bigraph::delta::{AppliedBatch, UpdateBatch};
use bigraph::snapshot::GraphSnapshot;
use bigraph::{BipartiteGraph, Layer, VertexId};
use ldp::budget::{BudgetAccountant, Composition, PrivacyBudget};
use ldp::noisy_graph::NoisyNeighborsPacked;
use ldp::randomized_response::PerturbScratch;
use ldp::transcript::{Direction, Label, Transcript};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Aggregate degree statistics of one graph layer, computed once and cached.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LayerStats {
    /// Number of vertices on the layer.
    pub vertices: usize,
    /// Number of edges incident to the layer (= `|E|` for either layer).
    pub edges: usize,
    /// Largest vertex degree on the layer.
    pub max_degree: usize,
    /// Mean vertex degree on the layer (0 for an empty layer).
    pub mean_degree: f64,
}

/// One cache slot: the lazily built bitmap plus its bookkeeping tags.
///
/// `set` is initialized at most once between invalidations; `stamp` is a
/// recency tick (updated relaxed on every read — the eviction policy's
/// LRU signal) and `built_epoch` records the store epoch the bitmap was
/// built at, so tests and debug assertions can prove an entry is fresh.
#[derive(Debug, Default)]
struct Slot {
    set: OnceLock<PackedSet>,
    stamp: AtomicU64,
    built_epoch: AtomicU64,
}

/// Heap bytes of one packed bitmap over `universe` opposite-layer slots.
fn slot_bytes(universe: usize) -> usize {
    universe.div_ceil(64) * std::mem::size_of::<u64>()
}

/// A lazily built, shareable cache of bit-packed true adjacencies.
///
/// One slot per vertex and layer; each slot is initialized at most once
/// between invalidations (on first use, from whichever thread gets there
/// first) and then shared read-only until the next update batch touches its
/// vertex. Stores created with [`AdjacencyStore::with_byte_cap`] additionally
/// enforce a hard byte budget: insertions past the cap are declined (the
/// query falls back to scratch packing, bit-identically) and recorded as
/// cache pressure, which the next [`AdjacencyStore::maintain`] call relieves
/// by evicting the least-recently-used entries. See the
/// [module docs](self) for the full mutation & invalidation lifecycle.
#[derive(Debug)]
pub struct AdjacencyStore {
    upper: Vec<Slot>,
    lower: Vec<Slot>,
    upper_stats: OnceLock<LayerStats>,
    lower_stats: OnceLock<LayerStats>,
    /// Hard byte budget for built bitmaps (`None` = unbounded).
    cap_bytes: Option<usize>,
    /// Bytes currently accounted to built bitmaps. Never exceeds `cap_bytes`.
    bytes_used: AtomicUsize,
    /// Monotonic recency clock; every read stamps its slot with a fresh tick.
    tick: AtomicU64,
    /// Admissions declined since the last [`AdjacencyStore::maintain`].
    declined: AtomicU64,
    /// The store's view of the graph epoch (bumped by invalidation).
    epoch: AtomicU64,
}

impl AdjacencyStore {
    /// Creates an unbounded store sized for `g`. No bitmaps are built yet.
    #[must_use]
    pub fn new(g: &BipartiteGraph) -> Self {
        Self::build(g, None)
    }

    /// Creates a store whose built bitmaps may never exceed `max_bytes` of
    /// heap. Queries against vertices that cannot be admitted fall back to
    /// scratch packing (bit-identical results); [`AdjacencyStore::maintain`]
    /// evicts cold entries when admissions were declined.
    #[must_use]
    pub fn with_byte_cap(g: &BipartiteGraph, max_bytes: usize) -> Self {
        Self::build(g, Some(max_bytes))
    }

    fn build(g: &BipartiteGraph, cap_bytes: Option<usize>) -> Self {
        let mut upper = Vec::new();
        let mut lower = Vec::new();
        upper.resize_with(g.n_upper(), Slot::default);
        lower.resize_with(g.n_lower(), Slot::default);
        Self {
            upper,
            lower,
            upper_stats: OnceLock::new(),
            lower_stats: OnceLock::new(),
            cap_bytes,
            bytes_used: AtomicUsize::new(0),
            tick: AtomicU64::new(0),
            declined: AtomicU64::new(0),
            epoch: AtomicU64::new(g.epoch()),
        }
    }

    fn slots(&self, layer: Layer) -> &[Slot] {
        match layer {
            Layer::Upper => &self.upper,
            Layer::Lower => &self.lower,
        }
    }

    fn slots_mut(&mut self, layer: Layer) -> &mut Vec<Slot> {
        match layer {
            Layer::Upper => &mut self.upper,
            Layer::Lower => &mut self.lower,
        }
    }

    /// Reserves `cost` bytes against the cap. With a cap, the running total
    /// is only ever advanced through a compare-exchange that re-checks the
    /// budget, so `bytes_used` can never exceed `cap_bytes` — not even
    /// transiently under concurrent admission races.
    fn try_admit(&self, cost: usize) -> bool {
        match self.cap_bytes {
            None => {
                self.bytes_used.fetch_add(cost, Ordering::Relaxed);
                true
            }
            Some(cap) => {
                let mut cur = self.bytes_used.load(Ordering::Relaxed);
                loop {
                    let Some(next) = cur.checked_add(cost).filter(|&n| n <= cap) else {
                        self.declined.fetch_add(1, Ordering::Relaxed);
                        return false;
                    };
                    match self.bytes_used.compare_exchange_weak(
                        cur,
                        next,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => return true,
                        Err(actual) => cur = actual,
                    }
                }
            }
        }
    }

    /// The packed true adjacency of vertex `v` on `layer`, built on first
    /// use — or `None` when the store is byte-capped and admitting this
    /// bitmap would exceed the budget (the caller packs into scratch
    /// instead; the count is identical either way). Reads stamp the slot's
    /// recency tick for the LRU eviction policy.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for `layer`, or if `g` is not the graph
    /// this store was created for (detected via a layer-size mismatch).
    #[must_use]
    pub fn try_packed(&self, g: &BipartiteGraph, layer: Layer, v: VertexId) -> Option<&PackedSet> {
        let slots = self.slots(layer);
        assert_eq!(
            slots.len(),
            g.layer_size(layer),
            "AdjacencyStore used with a graph it was not built for"
        );
        let slot = &slots[v as usize];
        if let Some(set) = slot.set.get() {
            slot.stamp.store(self.next_tick(), Ordering::Relaxed);
            return Some(set);
        }
        let universe = g.layer_size(layer.opposite());
        let cost = slot_bytes(universe);
        if !self.try_admit(cost) {
            return None;
        }
        let mut installed = false;
        let set = slot.set.get_or_init(|| {
            installed = true;
            slot.built_epoch
                .store(self.epoch.load(Ordering::Relaxed), Ordering::Relaxed);
            PackedSet::from_sorted(g.neighbors(layer, v), universe)
        });
        if !installed {
            // Lost the init race: the winner accounted the identical cost.
            self.bytes_used.fetch_sub(cost, Ordering::Relaxed);
        }
        slot.stamp.store(self.next_tick(), Ordering::Relaxed);
        Some(set)
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// [`AdjacencyStore::try_packed`] for unbounded stores, where admission
    /// never fails.
    ///
    /// # Panics
    ///
    /// Panics under the contract of [`AdjacencyStore::try_packed`], and
    /// additionally if this store is byte-capped and the budget is
    /// exhausted — capped callers should use `try_packed`.
    #[must_use]
    pub fn packed(&self, g: &BipartiteGraph, layer: Layer, v: VertexId) -> &PackedSet {
        self.try_packed(g, layer, v)
            .expect("adjacency store byte budget exhausted — use try_packed on capped stores")
    }

    /// The bitmap for `v` if it has already been built, without building it
    /// (and without touching the recency stamp).
    #[must_use]
    pub fn cached(&self, layer: Layer, v: VertexId) -> Option<&PackedSet> {
        self.slots(layer).get(v as usize).and_then(|s| s.set.get())
    }

    /// How many vertices of `layer` currently have a built bitmap.
    #[must_use]
    pub fn cached_count(&self, layer: Layer) -> usize {
        self.slots(layer)
            .iter()
            .filter(|slot| slot.set.get().is_some())
            .count()
    }

    /// Heap bytes currently held by built bitmaps. With a byte cap this
    /// never exceeds [`AdjacencyStore::byte_cap`].
    #[must_use]
    pub fn bytes_used(&self) -> usize {
        self.bytes_used.load(Ordering::Relaxed)
    }

    /// The configured byte budget, if any.
    #[must_use]
    pub fn byte_cap(&self) -> Option<usize> {
        self.cap_bytes
    }

    /// The store's epoch: its view of the graph mutation counter, advanced
    /// by [`AdjacencyStore::invalidate_applied`].
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    /// The store epoch the cached bitmap of `v` was built at, if one is
    /// currently built. An entry's epoch always equals the epoch of some
    /// state in which its vertex's adjacency was identical to now —
    /// invalidation drops every touched entry, so stale tags cannot occur.
    #[must_use]
    pub fn entry_epoch(&self, layer: Layer, v: VertexId) -> Option<u64> {
        let slot = self.slots(layer).get(v as usize)?;
        slot.set
            .get()
            .map(|_| slot.built_epoch.load(Ordering::Relaxed))
    }

    /// Pre-builds the bitmaps of every *dense* vertex on `layer` — those the
    /// degree-aware dispatch ([`ProtocolEnv::true_intersection_with_scratch`]) will
    /// actually read. Sparse vertices are skipped: their queries take the
    /// probe path, so packing them would only burn memory
    /// (`⌈universe/64⌉ · 8` bytes each) that no query ever touches. On a
    /// byte-capped store, warming stops admitting once the budget is full
    /// (highest-degree vertices are *not* prioritized — warm order is id
    /// order).
    pub fn warm(&self, g: &BipartiteGraph, layer: Layer) {
        let words = g.layer_size(layer.opposite()).div_ceil(64);
        for v in 0..g.layer_size(layer) as VertexId {
            if g.degree(layer, v) > 2 * words {
                let _ = self.try_packed(g, layer, v);
            }
        }
    }

    /// Targeted warm-up: pre-builds the packed adjacency of just the given
    /// `layer` vertices (skipping the sparse ones, same density heuristic
    /// as [`AdjacencyStore::warm`]). The serving writer calls this with an
    /// applied batch's touched sets so the bitmaps invalidated by a splice
    /// are rebuilt *before* the buffer is published, not on the first
    /// query that misses them.
    pub fn warm_vertices(&self, g: &BipartiteGraph, layer: Layer, vertices: &[VertexId]) {
        let words = g.layer_size(layer.opposite()).div_ceil(64);
        for &v in vertices {
            if (v as usize) < g.layer_size(layer) && g.degree(layer, v) > 2 * words {
                let _ = self.try_packed(g, layer, v);
            }
        }
    }

    /// Installs pre-built bitmaps into many slots of one layer in a
    /// single pass — the snapshot adoption path: a loaded snapshot's
    /// packed sections go straight into the store, no re-pack. Adoption
    /// happens at construction time under exclusive access (`&mut`),
    /// which lets this skip [`AdjacencyStore::try_packed`]'s per-entry
    /// atomic admission round-trips while keeping its exact admission
    /// semantics: entries are admitted in the given
    /// (vertex-id) order, each charged the same `slot_bytes` cost against
    /// any byte cap, and an entry that is already built or does not fit
    /// is declined — queries rebuild it on demand, bit-identically.
    /// Returns how many bitmaps were installed.
    fn preload_bulk(
        &mut self,
        g: &BipartiteGraph,
        layer: Layer,
        entries: &[(VertexId, PackedSet)],
    ) -> usize {
        assert_eq!(
            self.slots(layer).len(),
            g.layer_size(layer),
            "AdjacencyStore preloaded from a snapshot it was not built for"
        );
        let cost = slot_bytes(g.layer_size(layer.opposite()));
        let epoch = *self.epoch.get_mut();
        let cap = self.cap_bytes;
        let mut used = *self.bytes_used.get_mut();
        let mut declined = 0u64;
        let mut installed = 0usize;
        let slots = self.slots_mut(layer);
        for (v, set) in entries {
            debug_assert_eq!(
                set.to_sorted_ids(),
                g.neighbors(layer, *v),
                "preloaded bitmap disagrees with the graph's adjacency"
            );
            let slot = &mut slots[*v as usize];
            if slot.set.get().is_some() {
                continue;
            }
            if cap.is_some_and(|cap| used.checked_add(cost).is_none_or(|n| n > cap)) {
                declined += 1;
                continue;
            }
            used += cost;
            slot.set = OnceLock::from(set.clone());
            *slot.built_epoch.get_mut() = epoch;
            installed += 1;
        }
        *self.bytes_used.get_mut() = used;
        *self.declined.get_mut() += declined;
        installed
    }

    /// Applies the receipt of an update batch: grows the slot tables for
    /// appended vertices, drops exactly the cached bitmaps the batch
    /// invalidated, refreshes the epoch, and clears the cached layer stats.
    ///
    /// Invalidation is *precise* for edge updates — only the touched
    /// vertices' entries are dropped; everything else stays warm. The one
    /// coarse case is vertex addition: appending a vertex to a layer grows
    /// the universe every *opposite*-layer bitmap ranges over, so those
    /// entries are all dropped (their word counts no longer match a
    /// fresh pack). Ends with [`AdjacencyStore::maintain`] so a capped
    /// store under pressure frees headroom in the same step.
    pub fn invalidate_applied(&mut self, g: &BipartiteGraph, applied: &AppliedBatch) {
        if applied.is_noop() {
            return;
        }
        for layer in [Layer::Upper, Layer::Lower] {
            let n = g.layer_size(layer);
            let slots = self.slots_mut(layer);
            assert!(
                slots.len() <= n,
                "AdjacencyStore invalidated against a graph it was not built for"
            );
            slots.resize_with(n, Slot::default);
        }
        for layer in [Layer::Upper, Layer::Lower] {
            let mut freed = 0usize;
            if applied.vertices_added(layer.opposite()) > 0 {
                // This layer's bitmaps range over the opposite layer, which
                // just grew: none of them match a fresh pack any more, so
                // the whole layer drops (touched or not).
                for slot in self.slots_mut(layer).iter_mut() {
                    if let Some(set) = slot.set.take() {
                        freed += std::mem::size_of_val(set.as_words());
                        *slot.stamp.get_mut() = 0;
                    }
                }
            } else {
                // Universe unchanged: drop exactly the touched vertices.
                let touched = applied.touched(layer);
                let slots = self.slots_mut(layer);
                for &v in touched {
                    if let Some(set) = slots[v as usize].set.take() {
                        freed += std::mem::size_of_val(set.as_words());
                        *slots[v as usize].stamp.get_mut() = 0;
                    }
                }
            }
            *self.bytes_used.get_mut() -= freed;
        }
        // Degree distributions shifted on both layers (every edge has one
        // endpoint in each), so both stat caches are stale.
        self.upper_stats = OnceLock::new();
        self.lower_stats = OnceLock::new();
        *self.epoch.get_mut() = g.epoch();
        self.maintain();
    }

    /// Relieves cache pressure on a byte-capped store: if any admission was
    /// declined since the last call, evicts least-recently-stamped entries
    /// until a quarter of the budget is free, so the current hot set can be
    /// admitted on its next read. A no-op on unbounded stores and when no
    /// admission was declined. Never exceeds — only lowers — `bytes_used`.
    pub fn maintain(&mut self) {
        let Some(cap) = self.cap_bytes else {
            return;
        };
        if *self.declined.get_mut() == 0 {
            return;
        }
        *self.declined.get_mut() = 0;
        let target = cap - cap / 4;
        if *self.bytes_used.get_mut() <= target {
            return;
        }
        // Coldest-first eviction order over every built entry.
        let mut entries: Vec<(u64, Layer, usize)> = Vec::new();
        for layer in [Layer::Upper, Layer::Lower] {
            for (i, slot) in self.slots_mut(layer).iter_mut().enumerate() {
                if slot.set.get().is_some() {
                    entries.push((*slot.stamp.get_mut(), layer, i));
                }
            }
        }
        entries.sort_unstable();
        for (_, layer, i) in entries {
            if *self.bytes_used.get_mut() <= target {
                break;
            }
            let slot = &mut self.slots_mut(layer)[i];
            if let Some(set) = slot.set.take() {
                let freed = std::mem::size_of_val(set.as_words());
                *slot.stamp.get_mut() = 0;
                *self.bytes_used.get_mut() -= freed;
            }
        }
    }

    /// Degree statistics of `layer`, computed on first use and cached.
    pub fn stats(&self, g: &BipartiteGraph, layer: Layer) -> LayerStats {
        let cell = match layer {
            Layer::Upper => &self.upper_stats,
            Layer::Lower => &self.lower_stats,
        };
        *cell.get_or_init(|| {
            let vertices = g.layer_size(layer);
            let mut edges = 0usize;
            let mut max_degree = 0usize;
            for v in 0..vertices as VertexId {
                let d = g.degree(layer, v);
                edges += d;
                max_degree = max_degree.max(d);
            }
            let mean_degree = if vertices == 0 {
                0.0
            } else {
                edges as f64 / vertices as f64
            };
            LayerStats {
                vertices,
                edges,
                max_degree,
                mean_degree,
            }
        })
    }
}

/// The read-only environment a protocol run executes in: the graph plus an
/// optional warm [`AdjacencyStore`].
///
/// `Copy` so it can be captured by value in parallel closures. With
/// `store: None` every dense intersection packs the source's adjacency
/// into the run's scratch arena instead — byte-identical to the cached
/// path.
#[derive(Clone, Copy)]
pub struct ProtocolEnv<'a> {
    /// The graph both vertex- and curator-side steps read.
    pub graph: &'a BipartiteGraph,
    /// The shared adjacency cache, if the run goes through an engine.
    pub store: Option<&'a AdjacencyStore>,
}

impl<'a> ProtocolEnv<'a> {
    /// An environment with no adjacency cache (the legacy one-shot path).
    #[must_use]
    pub fn uncached(graph: &'a BipartiteGraph) -> Self {
        Self { graph, store: None }
    }

    /// An environment backed by a warm adjacency cache.
    #[must_use]
    pub fn cached(graph: &'a BipartiteGraph, store: &'a AdjacencyStore) -> Self {
        Self {
            graph,
            store: Some(store),
        }
    }

    /// Counts `|N(v) ∩ other|` for the *true* neighborhood of `v`, using the
    /// cheapest available strategy.
    ///
    /// Sparse `v` probes `other` per neighbor id; dense `v` uses a
    /// word-parallel popcount against the cached bitmap when a store is
    /// available, and otherwise packs its adjacency into `scratch` (no
    /// allocation) and popcounts that. All strategies count the same set,
    /// so the result — and everything derived from it — is identical with
    /// and without a store. The density threshold matches
    /// [`bigraph::bitset::intersection_size_degree_aware`] exactly.
    #[must_use]
    pub fn true_intersection_with_scratch(
        &self,
        layer: Layer,
        v: VertexId,
        other: &PackedSet,
        scratch: &mut ScratchArena,
    ) -> u64 {
        let neighbors = self.graph.neighbors(layer, v);
        if let Some(store) = self.store {
            let words = other.universe().div_ceil(64);
            if neighbors.len() > 2 * words {
                // A byte-capped store may decline to cache; the fall-through
                // packs into scratch and counts the identical set.
                if let Some(packed) = store.try_packed(self.graph, layer, v) {
                    return packed.intersection_size(other);
                }
            }
        }
        bigraph::bitset::intersection_size_degree_aware_into(neighbors, other, &mut scratch.pack)
    }

    /// Counts `|N(v) ∩ rowᵢ|` for several packed rows sharing one universe,
    /// writing one count per row into `out`.
    ///
    /// Per-row results are bit-identical to calling
    /// [`ProtocolEnv::true_intersection_with_scratch`] once per row, but the
    /// strategy dispatch runs **once** per candidate instead of once per
    /// (candidate, row) pair: a dense `v` is resolved to a single word slice
    /// (cached bitmap, or one scratch pack instead of one per row) and then
    /// counted against all rows through the tiled
    /// [`bigraph::bitset::popcount_and_multi`], which streams the candidate
    /// bitmap from memory once while the rows ride in cache. This is the
    /// kernel under the fused multi-target round 2, where every candidate is
    /// intersected against every target's noisy row.
    ///
    /// # Panics
    ///
    /// Panics if `rows` and `out` have different lengths.
    pub fn true_intersection_multi_scratch(
        &self,
        layer: Layer,
        v: VertexId,
        rows: &[&PackedSet],
        scratch: &mut ScratchArena,
        out: &mut [u64],
    ) {
        assert_eq!(rows.len(), out.len(), "one output count per row");
        let Some(first) = rows.first() else { return };
        let universe = first.universe();
        debug_assert!(
            rows.iter().all(|r| r.universe() == universe),
            "rows must share a universe"
        );
        let neighbors = self.graph.neighbors(layer, v);
        let words = universe.div_ceil(64);
        if neighbors.len() > 2 * words {
            // Dense: resolve v's bitmap once — same threshold and same
            // sources (store, else scratch pack) as the per-row path, so
            // every count is the popcount of the identical word pair.
            let packed_words: &[u64] =
                match self.store.and_then(|s| s.try_packed(self.graph, layer, v)) {
                    Some(packed) => packed.as_words(),
                    None => scratch.pack.pack(neighbors, universe),
                };
            let mut group: [&[u64]; 4] = [&[]; 4];
            for (rows4, out4) in rows.chunks(4).zip(out.chunks_mut(4)) {
                for (slot, row) in group.iter_mut().zip(rows4) {
                    *slot = row.as_words();
                }
                bigraph::bitset::popcount_and_multi(packed_words, &group[..rows4.len()], out4);
            }
        } else {
            // Sparse: the per-row probe loop is already one pass over the
            // short id list per row; nothing to share.
            for (slot, row) in out.iter_mut().zip(rows) {
                *slot = bigraph::bitset::intersection_size_degree_aware_into(
                    neighbors,
                    row,
                    &mut scratch.pack,
                );
            }
        }
    }

    /// The cached true-adjacency bitmap the packed round-1 perturbation
    /// ORs kept neighbors from, if one is available for `v`.
    ///
    /// Density policy matches the intersection dispatch: a *dense* vertex
    /// (`degree > 2 · words`) is worth building through
    /// [`AdjacencyStore::try_packed`] (admission-aware on capped stores);
    /// a sparse vertex is only reused opportunistically when its bitmap
    /// already exists — building one that no intersection will read would
    /// waste exactly the memory the density dispatch exists to save. A
    /// `None` changes only how the kept bits are written (bit-by-bit from
    /// the id list), never the output.
    #[must_use]
    pub fn round1_true_bitmap(&self, layer: Layer, v: VertexId) -> Option<&'a PackedSet> {
        let store = self.store?;
        let words = self.graph.layer_size(layer.opposite()).div_ceil(64);
        if self.graph.neighbors(layer, v).len() > 2 * words {
            store.try_packed(self.graph, layer, v)
        } else {
            store.cached(layer, v)
        }
    }
}

/// Reusable per-run / per-shard working buffers (see the
/// [module docs](self) for the lifecycle).
///
/// An arena holds only capacity, never protocol state: every kernel that
/// borrows a buffer fully overwrites it before reading, so reuse cannot
/// change any result.
#[derive(Debug, Default)]
pub struct ScratchArena {
    /// Packed-word scratch for pack-then-popcount intersections.
    pack: PackScratch,
    /// Candidate id-list staging (duplicate checks, shard candidate lists).
    ids: Vec<VertexId>,
    /// Randomized-response perturbation scratch: event/survivor staging
    /// buffers plus the cached exact gap-resolution tables (see
    /// [`ldp::randomized_response::PerturbScratch`]). Holding the table
    /// cache here — not just thread-local — keeps it warm across the
    /// protocol steps of a run and across a worker's candidates.
    rr: PerturbScratch,
    /// Round-2 fan-out staging: per-chunk user stream seeds, the
    /// batch-seeded generator states, and the keyed noise block (see
    /// `crate::batch`'s candidate-major multi-target round 2).
    r2_seeds: Vec<u64>,
    r2_streams: Vec<StdRng>,
    r2_noise: Vec<f64>,
}

impl ScratchArena {
    /// Creates an empty arena; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The packed-word scratch buffer.
    pub fn pack_scratch(&mut self) -> &mut PackScratch {
        &mut self.pack
    }

    /// Takes the id-list buffer out of the arena (cleared), so it can be
    /// used while the arena is borrowed elsewhere — e.g. a shard candidate
    /// list that must stay alive across a nested protocol run. Return it
    /// with [`ScratchArena::put_ids`] to keep the capacity warm.
    #[must_use]
    pub fn take_ids(&mut self) -> Vec<VertexId> {
        let mut ids = std::mem::take(&mut self.ids);
        ids.clear();
        ids
    }

    /// Returns a buffer taken with [`ScratchArena::take_ids`].
    pub fn put_ids(&mut self, ids: Vec<VertexId>) {
        // Keep whichever buffer has more capacity warm.
        if ids.capacity() > self.ids.capacity() {
            self.ids = ids;
        }
    }

    /// The randomized-response perturbation scratch (staging buffers and
    /// the per-arena gap-table cache).
    pub fn perturb_scratch(&mut self) -> &mut PerturbScratch {
        &mut self.rr
    }

    /// The round-2 fan-out staging buffers — `(stream seeds, generator
    /// states, noise block)` — borrowed together so a chunk worker can
    /// batch-seed ([`StdRng::seed_batch_from_u64`]) into one buffer while
    /// transforming into another. Like every arena buffer they carry
    /// capacity only: each chunk fully overwrites them before reading.
    pub fn round2_buffers(&mut self) -> (&mut Vec<u64>, &mut Vec<StdRng>, &mut Vec<f64>) {
        (&mut self.r2_seeds, &mut self.r2_streams, &mut self.r2_noise)
    }
}

thread_local! {
    static SHARD_SCRATCH: RefCell<ScratchArena> = RefCell::new(ScratchArena::new());
}

/// Runs `f` with this worker thread's [`ScratchArena`].
///
/// The parallel fan-outs hold one arena per rayon worker (the "shard"
/// granularity): each worker's inner candidate loop borrows the arena per
/// candidate, so after the buffers reach the working size the loop
/// performs zero heap allocations. The calling thread (which runs the
/// first chunk) and the rayon pool's workers are long-lived, so every
/// arena persists across engine calls, which is what makes the *warm*
/// batch path allocation-free end to end at any thread count.
pub fn with_shard_scratch<R>(f: impl FnOnce(&mut ScratchArena) -> R) -> R {
    SHARD_SCRATCH.with(|cell| f(&mut cell.borrow_mut()))
}

/// The unified mutable state of one protocol run: privacy-budget accounting,
/// the message transcript, the RNG stream, and the run's [`ScratchArena`],
/// created with [`RoundContext::begin`] (lean accounting) or
/// [`RoundContext::begin_detailed`] and consumed by
/// [`RoundContext::finish`]. See the [module docs](self) for the two
/// accounting modes.
pub struct RoundContext<'r> {
    total: PrivacyBudget,
    budget: BudgetAccountant,
    transcript: Transcript,
    rng: &'r mut dyn RngCore,
    scratch: ScratchArena,
}

impl<'r> RoundContext<'r> {
    /// Validates `epsilon` and opens a fresh **lean** context around `rng`:
    /// aggregate transcript counters and budget totals only, zero
    /// allocations per recorded message or charge.
    ///
    /// # Errors
    ///
    /// Returns an error for non-positive, NaN, or infinite budgets.
    pub fn begin(epsilon: f64, rng: &'r mut dyn RngCore) -> Result<Self> {
        Self::begin_with(epsilon, rng, false)
    }

    /// [`RoundContext::begin`] in **detailed** mode: the per-message
    /// transcript log and the per-charge budget ledger are retained (with
    /// labels rendered) for tests and debugging. Estimates and every
    /// aggregate are byte-identical to a lean run.
    ///
    /// # Errors
    ///
    /// Returns an error for non-positive, NaN, or infinite budgets.
    pub fn begin_detailed(epsilon: f64, rng: &'r mut dyn RngCore) -> Result<Self> {
        Self::begin_with(epsilon, rng, true)
    }

    fn begin_with(epsilon: f64, rng: &'r mut dyn RngCore, detailed: bool) -> Result<Self> {
        let total = PrivacyBudget::new(epsilon)?;
        Ok(Self {
            total,
            budget: if detailed {
                BudgetAccountant::new(total)
            } else {
                BudgetAccountant::lean(total)
            },
            transcript: if detailed {
                Transcript::detailed()
            } else {
                Transcript::new()
            },
            rng,
            scratch: ScratchArena::new(),
        })
    }

    /// The total budget of the run.
    #[must_use]
    pub fn total(&self) -> PrivacyBudget {
        self.total
    }

    /// The total budget as a raw `ε` (what [`EstimateReport::epsilon`] records).
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.total.value()
    }

    /// Charges `eps` against the run's budget.
    ///
    /// # Errors
    ///
    /// Returns an error if the charge would exceed the total budget.
    pub fn charge(
        &mut self,
        label: impl Into<Label>,
        eps: PrivacyBudget,
        composition: Composition,
    ) -> Result<()> {
        self.budget.charge(label, eps, composition)?;
        Ok(())
    }

    /// Records an arbitrary message in the transcript.
    pub fn record(
        &mut self,
        round: u32,
        direction: Direction,
        label: impl Into<Label>,
        bytes: usize,
    ) {
        self.transcript.record(round, direction, label, bytes);
    }

    /// Records the curator pushing a noisy row down to a client (4 bytes
    /// per noisy edge: the row travels as an id list).
    pub fn record_download_packed(
        &mut self,
        round: u32,
        label: impl Into<Label>,
        list: &NoisyNeighborsPacked,
    ) {
        self.transcript
            .record(round, Direction::Download, label, list.message_bytes());
    }

    /// Records a client uploading one scalar (estimator value or noisy degree).
    pub fn record_scalar_upload(&mut self, round: u32, label: impl Into<Label>) {
        self.transcript.record(
            round,
            Direction::Upload,
            label,
            crate::protocol::SCALAR_BYTES,
        );
    }

    /// The run's RNG stream.
    pub fn rng(&mut self) -> &mut dyn RngCore {
        self.rng
    }

    /// The run's scratch arena.
    pub fn scratch(&mut self) -> &mut ScratchArena {
        &mut self.scratch
    }

    /// Splits the context into its RNG stream and scratch arena, for steps
    /// that need both at once (e.g. perturbing into scratch buffers).
    pub fn rng_and_scratch(&mut self) -> (&mut dyn RngCore, &mut ScratchArena) {
        (self.rng, &mut self.scratch)
    }

    /// Draws a base seed for deterministic per-user fan-out streams.
    ///
    /// Combine with [`RoundContext::user_rng`]: the derived streams depend
    /// only on the draw and the vertex id, never on thread scheduling.
    pub fn next_stream_base(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// The deterministic RNG stream of one participating user, per the
    /// `mix(seed, vertex id)` contract ([`crate::batch::user_stream_seed`]).
    #[must_use]
    pub fn user_rng(base: u64, vertex: VertexId) -> StdRng {
        StdRng::seed_from_u64(user_stream_seed(base, u64::from(vertex)))
    }

    /// Closes the run, yielding the accounting artifacts for the report.
    #[must_use]
    pub fn finish(self) -> (BudgetAccountant, Transcript) {
        (self.budget, self.transcript)
    }
}

/// A pairwise estimator that can run inside an engine environment.
///
/// This is the engine-aware face of [`CommonNeighborEstimator`]: the logic
/// lives in [`EngineEstimator::estimate_in`], and the legacy
/// [`CommonNeighborEstimator::estimate`] entry point of every algorithm is a
/// thin wrapper that runs the same code with an uncached environment —
/// guaranteeing the two paths cannot drift apart.
pub trait EngineEstimator: CommonNeighborEstimator {
    /// Runs the protocol in `env`, reading and writing run state via `ctx`.
    ///
    /// # Errors
    ///
    /// Same contract as [`CommonNeighborEstimator::estimate`].
    fn estimate_in(
        &self,
        env: ProtocolEnv<'_>,
        query: &Query,
        ctx: RoundContext<'_>,
    ) -> Result<EstimateReport>;
}

/// Runs `est` once without a cache — the body of every legacy
/// [`CommonNeighborEstimator::estimate`] implementation. Lean accounting.
pub(crate) fn run_uncached(
    est: &dyn EngineEstimator,
    g: &BipartiteGraph,
    query: &Query,
    epsilon: f64,
    rng: &mut dyn RngCore,
) -> Result<EstimateReport> {
    let ctx = RoundContext::begin(epsilon, rng)?;
    est.estimate_in(ProtocolEnv::uncached(g), query, ctx)
}

/// Runs `est` once without a cache in **detailed** accounting mode: the
/// returned report retains the full per-message transcript log and
/// per-charge budget ledger. The estimate and every transcript/budget
/// aggregate are byte-identical to [`CommonNeighborEstimator::estimate`]
/// on the same seed.
///
/// # Errors
///
/// Same contract as [`CommonNeighborEstimator::estimate`].
pub fn run_detailed(
    est: &dyn EngineEstimator,
    g: &BipartiteGraph,
    query: &Query,
    epsilon: f64,
    rng: &mut dyn RngCore,
) -> Result<EstimateReport> {
    let ctx = RoundContext::begin_detailed(epsilon, rng)?;
    est.estimate_in(ProtocolEnv::uncached(g), query, ctx)
}

/// The persistent curator-side service facade: one graph, one warm
/// [`AdjacencyStore`], any number of queries — and, for engines that own
/// their graph, streaming mutation through
/// [`EstimationEngine::apply_updates`].
///
/// See the [module docs](self) for the cache lifecycle, the mutation &
/// invalidation lifecycle, the determinism contract, and the sharding
/// story.
pub struct EstimationEngine<'g> {
    graph: Cow<'g, BipartiteGraph>,
    store: AdjacencyStore,
    generation: u64,
}

impl<'g> EstimationEngine<'g> {
    /// Creates an engine borrowing `graph`, with a cold (empty, unbounded)
    /// adjacency cache.
    ///
    /// A borrowed engine can still [`apply_updates`](Self::apply_updates),
    /// but the first update clones the graph (copy-on-write); streaming
    /// services should construct with [`EstimationEngine::from_graph`]
    /// instead, which owns the graph and mutates it in place.
    #[must_use]
    pub fn new(graph: &'g BipartiteGraph) -> Self {
        Self::build(Cow::Borrowed(graph), None)
    }

    /// [`EstimationEngine::new`] with a hard byte budget on the adjacency
    /// cache (see [`AdjacencyStore::with_byte_cap`]): for graphs too large
    /// to cache every dense vertex, the store stays within `max_bytes` and
    /// serves the rest via scratch packing, bit-identically.
    #[must_use]
    pub fn with_cache_budget(graph: &'g BipartiteGraph, max_bytes: usize) -> Self {
        Self::build(Cow::Borrowed(graph), Some(max_bytes))
    }

    /// Creates an engine that owns `graph`, so update batches splice the
    /// CSR arrays in place with no copy.
    #[must_use]
    pub fn from_graph(graph: BipartiteGraph) -> EstimationEngine<'static> {
        EstimationEngine::build(Cow::Owned(graph), None)
    }

    /// [`EstimationEngine::from_graph`] with a byte-capped adjacency cache.
    #[must_use]
    pub fn from_graph_with_cache_budget(
        graph: BipartiteGraph,
        max_bytes: usize,
    ) -> EstimationEngine<'static> {
        EstimationEngine::build(Cow::Owned(graph), Some(max_bytes))
    }

    /// Builds an engine from a loaded [`GraphSnapshot`]: the graph is
    /// adopted (epoch intact) and the snapshot's packed dense-vertex
    /// bitmaps are installed directly into the adjacency cache — the warm
    /// state a [`warm`](Self::warm)-ed text-built engine would reach, at
    /// the cost of a memcpy instead of a per-vertex re-pack. Estimates,
    /// transcripts, and budget ledgers are byte-identical to a text-built
    /// engine over the same graph (pinned in `tests/pinned_fingerprints.rs`).
    #[must_use]
    pub fn from_snapshot(snapshot: &GraphSnapshot) -> EstimationEngine<'static> {
        Self::adopt_snapshot(snapshot, None)
    }

    /// [`EstimationEngine::from_snapshot`] with a byte-capped adjacency
    /// cache: packed bitmaps are admitted in vertex-id order until the
    /// budget fills; the rest serve via the normal admission path,
    /// bit-identically.
    #[must_use]
    pub fn from_snapshot_with_cache_budget(
        snapshot: &GraphSnapshot,
        max_bytes: usize,
    ) -> EstimationEngine<'static> {
        Self::adopt_snapshot(snapshot, Some(max_bytes))
    }

    fn adopt_snapshot(snapshot: &GraphSnapshot, cap: Option<usize>) -> EstimationEngine<'static> {
        let mut engine = EstimationEngine::build(Cow::Owned(snapshot.graph().clone()), cap);
        for layer in [Layer::Upper, Layer::Lower] {
            let _ = engine
                .store
                .preload_bulk(engine.graph.as_ref(), layer, snapshot.packed(layer));
        }
        engine
    }

    fn build(graph: Cow<'g, BipartiteGraph>, cap: Option<usize>) -> Self {
        let store = match cap {
            None => AdjacencyStore::new(graph.as_ref()),
            Some(max_bytes) => AdjacencyStore::with_byte_cap(graph.as_ref(), max_bytes),
        };
        Self {
            graph,
            store,
            generation: 0,
        }
    }

    /// The graph this engine serves (in its current generation).
    #[must_use]
    pub fn graph(&self) -> &BipartiteGraph {
        self.graph.as_ref()
    }

    /// The engine's adjacency cache.
    #[must_use]
    pub fn store(&self) -> &AdjacencyStore {
        &self.store
    }

    /// The engine's generation: how many effective update batches have been
    /// applied since construction. Readers snapshot this before deriving
    /// state from query results (candidate sets, rankings) and re-check it
    /// with [`EstimationEngine::check_generation`] — or query through the
    /// `*_at` variants — to detect that updates intervened.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Verifies that a reader's generation snapshot is still current.
    ///
    /// # Errors
    ///
    /// Returns [`CneError::StaleGeneration`] when update batches have been
    /// applied since the snapshot was taken.
    pub fn check_generation(&self, observed: u64) -> Result<()> {
        if observed == self.generation {
            Ok(())
        } else {
            Err(CneError::StaleGeneration {
                observed,
                current: self.generation,
            })
        }
    }

    /// Applies a batch of streaming edge/vertex updates: splices the graph
    /// CSR in place ([`BipartiteGraph::apply_update_batch`]), precisely
    /// invalidates the touched vertices' cached bitmaps and the layer
    /// stats ([`AdjacencyStore::invalidate_applied`]), and — if anything
    /// changed — advances the engine generation.
    ///
    /// Validation is transactional: a rejected batch leaves graph, cache,
    /// and generation untouched. On an engine built over a *borrowed* graph
    /// the first effective update copies the graph (copy-on-write); build
    /// with [`EstimationEngine::from_graph`] to stream without copies.
    ///
    /// # Errors
    ///
    /// Same contract as [`BipartiteGraph::apply_update_batch`].
    pub fn apply_updates(&mut self, batch: &UpdateBatch) -> Result<AppliedBatch> {
        // On a borrowed engine, validate *before* to_mut so a rejected
        // batch doesn't clone the graph just to fail. Owned engines skip
        // this — apply_update_batch performs the same check transactionally.
        if matches!(self.graph, Cow::Borrowed(_)) {
            batch.validate(self.graph.as_ref())?;
        }
        let graph = self.graph.to_mut();
        let applied = graph.apply_update_batch(batch)?;
        self.store.invalidate_applied(graph, &applied);
        if !applied.is_noop() {
            self.generation += 1;
        }
        Ok(applied)
    }

    /// Relieves adjacency-cache pressure on a byte-capped engine by
    /// evicting least-recently-used bitmaps (see
    /// [`AdjacencyStore::maintain`]). Also runs automatically at the end of
    /// every [`EstimationEngine::apply_updates`].
    pub fn maintain_cache(&mut self) {
        self.store.maintain();
    }

    /// Pre-builds the packed adjacency of every dense vertex on `layer`
    /// (the only bitmaps queries read — see [`AdjacencyStore::warm`]), so
    /// the first query is as fast as the thousandth. Returns `&self` so
    /// warming chains off construction.
    pub fn warm(&self, layer: Layer) -> &Self {
        self.store.warm(self.graph.as_ref(), layer);
        self
    }

    /// Pre-builds the packed adjacencies invalidated by an applied update
    /// batch (both layers' touched sets — see
    /// [`AdjacencyStore::warm_vertices`]). The double-buffered serving
    /// writer runs this on the offline buffer after a splice so readers
    /// never pay a cold bitmap rebuild on a freshly published snapshot.
    pub fn warm_touched(&self, applied: &AppliedBatch) -> &Self {
        for layer in [Layer::Upper, Layer::Lower] {
            self.store
                .warm_vertices(self.graph.as_ref(), layer, applied.touched(layer));
        }
        self
    }

    /// Degree statistics of `layer` (computed once, then cached).
    pub fn layer_stats(&self, layer: Layer) -> LayerStats {
        self.store.stats(self.graph.as_ref(), layer)
    }

    /// The cached environment engine-routed protocol runs execute in.
    #[must_use]
    pub fn env(&self) -> ProtocolEnv<'_> {
        ProtocolEnv::cached(self.graph.as_ref(), &self.store)
    }

    /// Runs `kind` with its default parameters on one query pair.
    ///
    /// # Errors
    ///
    /// Same contract as [`CommonNeighborEstimator::estimate`].
    pub fn estimate(
        &self,
        query: &Query,
        kind: AlgorithmKind,
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<EstimateReport> {
        match kind {
            AlgorithmKind::Naive => self.estimate_with(&Naive, query, epsilon, rng),
            AlgorithmKind::OneR => self.estimate_with(&OneR::default(), query, epsilon, rng),
            AlgorithmKind::MultiRSS => {
                self.estimate_with(&MultiRSS::default(), query, epsilon, rng)
            }
            AlgorithmKind::MultiRDSBasic => {
                self.estimate_with(&MultiRDSBasic::default(), query, epsilon, rng)
            }
            AlgorithmKind::MultiRDS => {
                self.estimate_with(&MultiRDS::default(), query, epsilon, rng)
            }
            AlgorithmKind::MultiRDSStar => self.estimate_with(&MultiRDSStar, query, epsilon, rng),
            AlgorithmKind::CentralDP => self.estimate_with(&CentralDP, query, epsilon, rng),
        }
    }

    /// Runs a configured estimator through the engine's warm cache.
    ///
    /// # Errors
    ///
    /// Same contract as [`CommonNeighborEstimator::estimate`].
    pub fn estimate_with(
        &self,
        est: &dyn EngineEstimator,
        query: &Query,
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<EstimateReport> {
        let ctx = RoundContext::begin(epsilon, rng)?;
        est.estimate_in(self.env(), query, ctx)
    }

    /// Runs the batch single-source protocol (default configuration) for one
    /// target against many candidates, reusing the warm cache.
    ///
    /// # Errors
    ///
    /// Same contract as [`BatchSingleSource::estimate_batch`].
    pub fn estimate_batch(
        &self,
        layer: Layer,
        target: VertexId,
        candidates: &[VertexId],
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<BatchReport> {
        self.estimate_batch_with(
            &BatchSingleSource::default(),
            layer,
            target,
            candidates,
            epsilon,
            rng,
        )
    }

    /// [`EstimationEngine::estimate_batch`] with a custom batch configuration.
    ///
    /// # Errors
    ///
    /// Same contract as [`BatchSingleSource::estimate_batch`].
    pub fn estimate_batch_with(
        &self,
        algo: &BatchSingleSource,
        layer: Layer,
        target: VertexId,
        candidates: &[VertexId],
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<BatchReport> {
        algo.estimate_batch_in(self.env(), layer, target, candidates, epsilon, rng)
    }

    /// [`EstimationEngine::estimate`] guarded by a generation snapshot: the
    /// query only runs if no update batch has landed since the reader
    /// observed `generation` (typically when it picked the query pair).
    ///
    /// # Errors
    ///
    /// [`CneError::StaleGeneration`] when updates intervened; otherwise the
    /// contract of [`EstimationEngine::estimate`].
    pub fn estimate_at(
        &self,
        generation: u64,
        query: &Query,
        kind: AlgorithmKind,
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<EstimateReport> {
        self.check_generation(generation)?;
        self.estimate(query, kind, epsilon, rng)
    }

    /// [`EstimationEngine::estimate_batch`] guarded by a generation
    /// snapshot (see [`EstimationEngine::estimate_at`]): the batch only
    /// runs if the candidate list was derived from the current graph.
    ///
    /// # Errors
    ///
    /// [`CneError::StaleGeneration`] when updates intervened; otherwise the
    /// contract of [`EstimationEngine::estimate_batch`].
    pub fn estimate_batch_at(
        &self,
        generation: u64,
        layer: Layer,
        target: VertexId,
        candidates: &[VertexId],
        epsilon: f64,
        rng: &mut dyn RngCore,
    ) -> Result<BatchReport> {
        self.check_generation(generation)?;
        self.estimate_batch(layer, target, candidates, epsilon, rng)
    }

    /// [`EstimationEngine::estimate_at`] with bounded stale-generation
    /// retry, for callers that track a generation themselves instead of
    /// going through [`ServingEngine`](crate::serving::ServingEngine).
    ///
    /// On [`CneError::StaleGeneration`] the caller's `generation` cursor is
    /// advanced to the current generation carried in the error and the
    /// query re-issued, up to `max_retries` times. The generation check
    /// runs *before* any protocol rounds, so a rejected attempt consumes no
    /// randomness from `rng` — retries leave the draw stream of the
    /// successful attempt byte-identical to a first-try success.
    ///
    /// On a single engine the first retry always succeeds (nothing mutates
    /// an `&self` engine between the error and the retry); the bound
    /// matters when the engine is re-resolved between attempts, e.g. a
    /// serving tier swapping buffers under the caller.
    ///
    /// # Errors
    ///
    /// [`CneError::StaleGeneration`] if the cursor is still stale after
    /// `max_retries` retries; otherwise the contract of
    /// [`EstimationEngine::estimate`].
    pub fn estimate_with_retry(
        &self,
        generation: &mut u64,
        query: &Query,
        kind: AlgorithmKind,
        epsilon: f64,
        rng: &mut dyn RngCore,
        max_retries: usize,
    ) -> Result<EstimateReport> {
        let mut retries = 0;
        loop {
            match self.estimate_at(*generation, query, kind, epsilon, rng) {
                Err(CneError::StaleGeneration { current, .. }) if retries < max_retries => {
                    *generation = current;
                    retries += 1;
                }
                outcome => return outcome,
            }
        }
    }

    /// [`EstimationEngine::estimate_batch_at`] with bounded
    /// stale-generation retry — the batch counterpart of
    /// [`EstimationEngine::estimate_with_retry`], with the same
    /// draw-stream guarantee (a rejected attempt consumes no randomness).
    ///
    /// # Errors
    ///
    /// [`CneError::StaleGeneration`] if still stale after `max_retries`
    /// retries; otherwise the contract of
    /// [`EstimationEngine::estimate_batch`].
    #[allow(clippy::too_many_arguments)]
    pub fn estimate_batch_with_retry(
        &self,
        generation: &mut u64,
        layer: Layer,
        target: VertexId,
        candidates: &[VertexId],
        epsilon: f64,
        rng: &mut dyn RngCore,
        max_retries: usize,
    ) -> Result<BatchReport> {
        let mut retries = 0;
        loop {
            match self.estimate_batch_at(*generation, layer, target, candidates, epsilon, rng) {
                Err(CneError::StaleGeneration { current, .. }) if retries < max_retries => {
                    *generation = current;
                    retries += 1;
                }
                outcome => return outcome,
            }
        }
    }

    /// Sharded batch estimation: every target in `targets` is estimated
    /// against every candidate in `candidates` (minus itself), fanned out
    /// over rayon with one deterministic RNG stream per target shard.
    ///
    /// Each shard runs on the stream `mix(seed, target)`, so the report for
    /// target `t` is byte-identical to
    /// `engine.estimate_batch(layer, t, candidates_without_t, ..., &mut
    /// RoundContext::user_rng(seed, t))` — and therefore
    /// independent of thread count, shard order, and process placement.
    ///
    /// # Privacy composition across shards
    ///
    /// Each returned [`BatchReport`]'s ledger accounts **one** shard: per
    /// shard, every participant spends at most `epsilon`. Across shards the
    /// releases compose *sequentially* — a candidate screened against `T`
    /// targets releases `T` Laplace-noised estimators from its neighbor
    /// list and accrues up to `T · ε₂` (plus `ε₁` for each shard it is the
    /// target of). The cost is `ε` **per vertex per target**; callers own
    /// the cross-shard budget, exactly as if they had issued the `T` batch
    /// calls themselves.
    ///
    /// # Errors
    ///
    /// Rejects an empty or duplicate-containing target list, and propagates
    /// the first per-shard protocol error (unknown vertices, exhausted
    /// budget, a shard left with no candidates, ...).
    pub fn estimate_many_targets(
        &self,
        layer: Layer,
        targets: &[VertexId],
        candidates: &[VertexId],
        epsilon: f64,
        seed: u64,
    ) -> Result<Vec<BatchReport>> {
        self.estimate_many_targets_with(
            &BatchSingleSource::default(),
            layer,
            targets,
            candidates,
            epsilon,
            seed,
        )
    }

    /// [`EstimationEngine::estimate_many_targets`] with a custom batch
    /// configuration.
    ///
    /// # Errors
    ///
    /// Same contract as [`EstimationEngine::estimate_many_targets`].
    pub fn estimate_many_targets_with(
        &self,
        algo: &BatchSingleSource,
        layer: Layer,
        targets: &[VertexId],
        candidates: &[VertexId],
        epsilon: f64,
        seed: u64,
    ) -> Result<Vec<BatchReport>> {
        if targets.is_empty() {
            return Err(CneError::InvalidParameter {
                name: "targets",
                reason: "the target list must not be empty".into(),
            });
        }
        // Duplicate targets would re-release the duplicate's data on the
        // identical mix(seed, target) stream — reject them like the batch
        // protocol rejects duplicate candidates.
        let mut seen = targets.to_vec();
        seen.sort_unstable();
        if seen.windows(2).any(|w| w[0] == w[1]) {
            return Err(CneError::InvalidParameter {
                name: "targets",
                reason: "target vertices must be distinct".into(),
            });
        }
        // The fused candidate-major implementation (see
        // [`BatchSingleSource::estimate_many_in`]): round 1 per target in
        // target order, then one parallel candidate-chunk pass intersecting
        // each candidate's adjacency — loaded once — against all noisy
        // target rows, with per-chunk batched stream seeding and keyed
        // Laplace draws. Byte-identical to the per-target reference above.
        algo.estimate_many_in(self.env(), layer, targets, candidates, epsilon, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Upper layer of 4 users over 400 items; u0 shares 8/4/0 items with
    /// u1/u2/u3 (the batch-module test graph).
    fn graph() -> BipartiteGraph {
        let edges = (0..10u32)
            .map(|v| (0u32, v))
            .chain((2..12u32).map(|v| (1u32, v)))
            .chain((6..16u32).map(|v| (2u32, v)))
            .chain((50..60u32).map(|v| (3u32, v)));
        BipartiteGraph::from_edges(4, 400, edges).unwrap()
    }

    #[test]
    fn store_is_lazy_and_warmable() {
        let g = graph();
        let store = AdjacencyStore::new(&g);
        assert_eq!(store.cached_count(Layer::Upper), 0);
        assert!(store.cached(Layer::Upper, 0).is_none());
        let packed = store.packed(&g, Layer::Upper, 0);
        assert_eq!(packed.len(), 10);
        assert_eq!(packed.universe(), 400);
        assert_eq!(store.cached_count(Layer::Upper), 1);
        assert!(store.cached(Layer::Upper, 0).is_some());
        // Every vertex here is sparse (degree 10 ≤ 2 · ⌈400/64⌉ = 14), so
        // warming packs nothing new: no query path would read those bitmaps.
        store.warm(&g, Layer::Upper);
        assert_eq!(store.cached_count(Layer::Upper), 1);
        assert_eq!(store.cached_count(Layer::Lower), 0);
    }

    #[test]
    fn warm_packs_exactly_the_dense_vertices() {
        // Universe 64 → 1 word → dense threshold is degree > 2. Vertices 0
        // and 1 qualify; vertex 2 (degree 2) stays un-packed.
        let edges = (0..40u32)
            .map(|v| (0u32, v))
            .chain((20..60u32).map(|v| (1u32, v)))
            .chain((0..2u32).map(|v| (2u32, v)));
        let g = BipartiteGraph::from_edges(3, 64, edges).unwrap();
        let store = AdjacencyStore::new(&g);
        store.warm(&g, Layer::Upper);
        assert_eq!(store.cached_count(Layer::Upper), 2);
        assert!(store.cached(Layer::Upper, 0).is_some());
        assert!(store.cached(Layer::Upper, 1).is_some());
        assert!(store.cached(Layer::Upper, 2).is_none());
    }

    #[test]
    fn store_packed_matches_true_adjacency() {
        let g = graph();
        let store = AdjacencyStore::new(&g);
        for v in 0..4u32 {
            let packed = store.packed(&g, Layer::Upper, v);
            assert_eq!(packed.to_sorted_ids(), g.neighbors(Layer::Upper, v));
        }
    }

    #[test]
    fn layer_stats_are_correct() {
        let g = graph();
        let engine = EstimationEngine::new(&g);
        let stats = engine.layer_stats(Layer::Upper);
        assert_eq!(stats.vertices, 4);
        assert_eq!(stats.edges, 40);
        assert_eq!(stats.max_degree, 10);
        assert!((stats.mean_degree - 10.0).abs() < 1e-12);
        let lower = engine.layer_stats(Layer::Lower);
        assert_eq!(lower.vertices, 400);
        assert_eq!(lower.edges, 40);
    }

    #[test]
    fn env_intersection_matches_degree_aware_dispatch() {
        let g = graph();
        let store = AdjacencyStore::new(&g);
        let env_cached = ProtocolEnv::cached(&g, &store);
        let env_uncached = ProtocolEnv::uncached(&g);
        // A packed "other" set dense enough to exercise both branches.
        let other: Vec<u32> = (0..400).step_by(2).collect();
        let packed = PackedSet::from_sorted(&other, 400);
        let mut scratch = ScratchArena::new();
        for v in 0..4u32 {
            let a =
                env_cached.true_intersection_with_scratch(Layer::Upper, v, &packed, &mut scratch);
            let b =
                env_uncached.true_intersection_with_scratch(Layer::Upper, v, &packed, &mut scratch);
            let merge =
                bigraph::common_neighbors::intersection_size(g.neighbors(Layer::Upper, v), &other);
            assert_eq!(a, merge);
            assert_eq!(b, merge);
        }
    }

    #[test]
    fn all_kinds_run_through_the_engine() {
        let g = graph();
        let engine = EstimationEngine::new(&g);
        let q = Query::new(Layer::Upper, 0, 1);
        let kinds = [
            AlgorithmKind::Naive,
            AlgorithmKind::OneR,
            AlgorithmKind::MultiRSS,
            AlgorithmKind::MultiRDSBasic,
            AlgorithmKind::MultiRDS,
            AlgorithmKind::MultiRDSStar,
            AlgorithmKind::CentralDP,
        ];
        for kind in kinds {
            let mut rng = StdRng::seed_from_u64(3);
            let report = engine.estimate(&q, kind, 2.0, &mut rng).unwrap();
            assert_eq!(report.algorithm, kind);
            assert!(report.estimate.is_finite());
            assert!(report.budget.consumed() <= 2.0 + 1e-9);
        }
    }

    #[test]
    fn engine_matches_legacy_for_every_kind() {
        let g = graph();
        let engine = EstimationEngine::new(&g);
        let q = Query::new(Layer::Upper, 0, 1);
        let legacy: Vec<Box<dyn CommonNeighborEstimator>> = vec![
            Box::new(Naive),
            Box::new(OneR::default()),
            Box::new(MultiRSS::default()),
            Box::new(MultiRDSBasic::default()),
            Box::new(MultiRDS::default()),
            Box::new(MultiRDSStar),
            Box::new(CentralDP),
        ];
        for est in &legacy {
            let mut rng_a = StdRng::seed_from_u64(11);
            let mut rng_b = StdRng::seed_from_u64(11);
            let a = est.estimate(&g, &q, 2.0, &mut rng_a).unwrap();
            let b = engine.estimate(&q, est.kind(), 2.0, &mut rng_b).unwrap();
            assert_eq!(
                a.estimate.to_bits(),
                b.estimate.to_bits(),
                "{}: engine must be byte-identical to the legacy path",
                est.kind()
            );
            assert_eq!(a.transcript, b.transcript);
        }
    }

    #[test]
    fn engine_batch_matches_legacy_batch() {
        let g = graph();
        let engine = EstimationEngine::new(&g);
        let algo = BatchSingleSource::default();
        let mut rng_a = StdRng::seed_from_u64(21);
        let mut rng_b = StdRng::seed_from_u64(21);
        let legacy = algo
            .estimate_batch(&g, Layer::Upper, 0, &[1, 2, 3], 2.0, &mut rng_a)
            .unwrap();
        let cached = engine
            .estimate_batch(Layer::Upper, 0, &[1, 2, 3], 2.0, &mut rng_b)
            .unwrap();
        let bits = |r: &BatchReport| -> Vec<u64> {
            r.estimates.iter().map(|e| e.estimate.to_bits()).collect()
        };
        assert_eq!(bits(&legacy), bits(&cached));
        assert_eq!(legacy.transcript, cached.transcript);
    }

    #[test]
    fn many_targets_matches_per_target_batches() {
        let g = graph();
        let engine = EstimationEngine::new(&g);
        let seed = 97u64;
        let reports = engine
            .estimate_many_targets(Layer::Upper, &[0, 1], &[0, 1, 2, 3], 2.0, seed)
            .unwrap();
        assert_eq!(reports.len(), 2);
        for report in &reports {
            // Each shard drops its own target from the candidate list.
            assert_eq!(report.estimates.len(), 3);
            assert!(report
                .estimates
                .iter()
                .all(|e| e.candidate != report.target));
            let mut rng = StdRng::seed_from_u64(user_stream_seed(seed, u64::from(report.target)));
            let shard: Vec<u32> = [0u32, 1, 2, 3]
                .into_iter()
                .filter(|&w| w != report.target)
                .collect();
            let direct = engine
                .estimate_batch(Layer::Upper, report.target, &shard, 2.0, &mut rng)
                .unwrap();
            let bits = |r: &BatchReport| -> Vec<u64> {
                r.estimates.iter().map(|e| e.estimate.to_bits()).collect()
            };
            assert_eq!(bits(report), bits(&direct));
        }
    }

    #[test]
    fn many_targets_rejects_bad_target_lists() {
        let g = graph();
        let engine = EstimationEngine::new(&g);
        assert!(engine
            .estimate_many_targets(Layer::Upper, &[], &[1], 2.0, 1)
            .is_err());
        assert!(engine
            .estimate_many_targets(Layer::Upper, &[0, 0], &[1], 2.0, 1)
            .is_err());
        // A shard left with no candidates is a per-shard protocol error.
        assert!(engine
            .estimate_many_targets(Layer::Upper, &[0], &[0], 2.0, 1)
            .is_err());
    }

    #[test]
    fn engine_queries_populate_the_cache_only_for_dense_vertices() {
        // In this small graph every vertex is sparse relative to the packed
        // word count, so the probe branch runs and nothing is cached.
        let g = graph();
        let engine = EstimationEngine::new(&g);
        let mut rng = StdRng::seed_from_u64(5);
        engine
            .estimate_batch(Layer::Upper, 0, &[1, 2, 3], 2.0, &mut rng)
            .unwrap();
        assert_eq!(engine.store().cached_count(Layer::Upper), 0);
    }

    /// Universe 64 → 1 packed word (8 bytes) per upper bitmap; all three
    /// upper vertices are dense (degree > 2).
    fn dense_small_graph() -> BipartiteGraph {
        let edges = (0..40u32)
            .map(|v| (0u32, v))
            .chain((20..60u32).map(|v| (1u32, v)))
            .chain((0..30u32).map(|v| (2u32, v)));
        BipartiteGraph::from_edges(3, 64, edges).unwrap()
    }

    #[test]
    fn byte_capped_store_declines_and_falls_back() {
        let g = dense_small_graph();
        // Room for exactly two 8-byte upper bitmaps.
        let store = AdjacencyStore::with_byte_cap(&g, 16);
        assert_eq!(store.byte_cap(), Some(16));
        assert!(store.try_packed(&g, Layer::Upper, 0).is_some());
        assert!(store.try_packed(&g, Layer::Upper, 1).is_some());
        assert_eq!(store.bytes_used(), 16);
        // The third admission is declined, and the budget holds.
        assert!(store.try_packed(&g, Layer::Upper, 2).is_none());
        assert_eq!(store.bytes_used(), 16);
        assert_eq!(store.cached_count(Layer::Upper), 2);
        // Declined vertices still answer correctly through the env fallback.
        let env = ProtocolEnv::cached(&g, &store);
        let other = PackedSet::from_sorted(&(0..64).collect::<Vec<u32>>(), 64);
        assert_eq!(
            env.true_intersection_with_scratch(Layer::Upper, 2, &other, &mut ScratchArena::new()),
            30
        );
        assert!(
            store.packed(&g, Layer::Upper, 0).len() == 40,
            "packed() still works for admitted slots"
        );
    }

    #[test]
    fn maintain_evicts_cold_entries_after_pressure() {
        let g = dense_small_graph();
        let mut store = AdjacencyStore::with_byte_cap(&g, 16);
        let _ = store.try_packed(&g, Layer::Upper, 0);
        let _ = store.try_packed(&g, Layer::Upper, 1);
        // Touch 1 again so vertex 0 is the cold one.
        let _ = store.try_packed(&g, Layer::Upper, 1);
        assert!(store.try_packed(&g, Layer::Upper, 2).is_none());
        store.maintain();
        // A quarter of the 16-byte budget must be free: the coldest entry
        // (vertex 0) was evicted, the hot one kept.
        assert!(store.bytes_used() <= 12);
        assert!(store.cached(Layer::Upper, 0).is_none());
        assert!(store.cached(Layer::Upper, 1).is_some());
        // The pressured vertex can now be admitted.
        assert!(store.try_packed(&g, Layer::Upper, 2).is_some());
        assert!(store.bytes_used() <= 16);
        // Without new pressure, maintain is a no-op.
        let before = store.bytes_used();
        store.maintain();
        assert_eq!(store.bytes_used(), before);
    }

    #[test]
    fn invalidation_is_precise_for_edge_updates() {
        let g0 = dense_small_graph();
        let mut engine = EstimationEngine::from_graph(g0);
        engine.warm(Layer::Upper);
        assert_eq!(engine.store().cached_count(Layer::Upper), 3);
        assert_eq!(engine.store().entry_epoch(Layer::Upper, 0), Some(0));
        let mut batch = bigraph::UpdateBatch::new();
        batch.add_edge(1, 0).remove_edge(2, 0);
        let applied = engine.apply_updates(&batch).unwrap();
        assert_eq!(applied.touched_upper, vec![1, 2]);
        // Vertex 0's bitmap survived; 1 and 2 were dropped.
        assert!(engine.store().cached(Layer::Upper, 0).is_some());
        assert!(engine.store().cached(Layer::Upper, 1).is_none());
        assert!(engine.store().cached(Layer::Upper, 2).is_none());
        assert_eq!(engine.generation(), 1);
        assert_eq!(engine.store().epoch(), engine.graph().epoch());
        // Rebuilt entries carry the new epoch tag.
        engine.warm(Layer::Upper);
        assert_eq!(engine.store().entry_epoch(Layer::Upper, 0), Some(0));
        assert_eq!(engine.store().entry_epoch(Layer::Upper, 1), Some(1));
        // And the rebuilt bitmap reflects the update.
        assert!(engine.store().cached(Layer::Upper, 1).unwrap().contains(0));
        assert!(!engine.store().cached(Layer::Upper, 2).unwrap().contains(0));
    }

    #[test]
    fn vertex_addition_drops_opposite_layer_bitmaps() {
        let mut engine = EstimationEngine::from_graph(dense_small_graph());
        engine.warm(Layer::Upper);
        assert_eq!(engine.store().cached_count(Layer::Upper), 3);
        let mut batch = bigraph::UpdateBatch::new();
        // Growing the lower layer grows every upper bitmap's universe.
        batch.add_vertex(Layer::Lower).add_edge(0, 64);
        engine.apply_updates(&batch).unwrap();
        assert_eq!(engine.store().cached_count(Layer::Upper), 0);
        assert_eq!(engine.store().bytes_used(), 0);
        assert_eq!(engine.graph().n_lower(), 65);
        // Rebuilt bitmaps range over the new universe.
        engine.warm(Layer::Upper);
        assert_eq!(
            engine.store().cached(Layer::Upper, 0).unwrap().universe(),
            65
        );
    }

    #[test]
    fn same_layer_touched_entries_drop_even_when_that_layer_grew() {
        // Regression: a batch that both adds a vertex on a layer *and*
        // touches edges of that layer's existing vertices must drop the
        // touched entries — the coarse opposite-layer drop for the grown
        // universe must not swallow the same-layer precise invalidation.
        let mut engine = EstimationEngine::from_graph(dense_small_graph());
        engine.warm(Layer::Upper);
        assert_eq!(engine.store().cached_count(Layer::Upper), 3);
        let mut batch = bigraph::UpdateBatch::new();
        batch.add_vertex(Layer::Upper).add_edge(0, 63);
        engine.apply_updates(&batch).unwrap();
        assert!(
            engine.store().cached(Layer::Upper, 0).is_none(),
            "touched upper vertex must be invalidated despite the upper-layer growth"
        );
        // And the rebuilt bitmap sees the new edge.
        engine.warm(Layer::Upper);
        assert!(engine.store().cached(Layer::Upper, 0).unwrap().contains(63));
        // Lower bitmaps (universe grew: 3 -> 4 upper vertices) were dropped.
        assert_eq!(engine.store().cached_count(Layer::Lower), 0);
    }

    #[test]
    fn capped_store_serves_single_source_queries_without_panicking() {
        // Regression: MultiR-SS/DS route dense sources through
        // single_source_value_env, which must fall back (not panic) when a
        // byte-capped store declines to cache the source.
        let g = dense_small_graph();
        let capped = EstimationEngine::with_cache_budget(&g, 8); // one bitmap
        let unbounded = EstimationEngine::new(&g);
        capped.warm(Layer::Upper); // fills the budget with vertex 0
        assert_eq!(capped.store().cached_count(Layer::Upper), 1);
        let q = Query::new(Layer::Upper, 1, 2); // both dense, both declined
        for kind in [
            AlgorithmKind::MultiRSS,
            AlgorithmKind::MultiRDS,
            AlgorithmKind::MultiRDSBasic,
        ] {
            let mut rng_a = StdRng::seed_from_u64(17);
            let mut rng_b = StdRng::seed_from_u64(17);
            let a = capped.estimate(&q, kind, 2.0, &mut rng_a).unwrap();
            let b = unbounded.estimate(&q, kind, 2.0, &mut rng_b).unwrap();
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits(), "{kind}");
        }
        assert!(capped.store().bytes_used() <= 8);
    }

    #[test]
    fn apply_updates_checks_generation_and_rejects_atomically() {
        let mut engine = EstimationEngine::from_graph(dense_small_graph());
        let gen0 = engine.generation();
        engine.check_generation(gen0).unwrap();
        // A rejected batch changes nothing.
        let mut bad = bigraph::UpdateBatch::new();
        bad.add_edge(0, 1).add_edge(99, 0);
        assert!(engine.apply_updates(&bad).is_err());
        assert_eq!(engine.generation(), gen0);
        engine.check_generation(gen0).unwrap();
        // A no-op batch does not bump the generation either.
        let mut noop = bigraph::UpdateBatch::new();
        noop.add_edge(0, 1); // already present
        assert!(engine.apply_updates(&noop).unwrap().is_noop());
        assert_eq!(engine.generation(), gen0);
        // An effective batch does, and stale readers get told.
        let mut good = bigraph::UpdateBatch::new();
        good.add_edge(0, 63);
        engine.apply_updates(&good).unwrap();
        assert_eq!(engine.generation(), gen0 + 1);
        let err = engine.check_generation(gen0).unwrap_err();
        assert!(matches!(
            err,
            CneError::StaleGeneration {
                observed: 0,
                current: 1
            }
        ));
        let q = Query::new(Layer::Upper, 0, 1);
        let mut rng = StdRng::seed_from_u64(3);
        assert!(engine
            .estimate_at(gen0, &q, AlgorithmKind::OneR, 2.0, &mut rng)
            .is_err());
        assert!(engine
            .estimate_at(gen0 + 1, &q, AlgorithmKind::OneR, 2.0, &mut rng)
            .is_ok());
        assert!(engine
            .estimate_batch_at(gen0, Layer::Upper, 0, &[1, 2], 2.0, &mut rng)
            .is_err());
    }

    #[test]
    fn borrowed_engine_updates_copy_on_write() {
        let g = dense_small_graph();
        let mut engine = EstimationEngine::new(&g);
        let mut batch = bigraph::UpdateBatch::new();
        batch.add_edge(0, 63);
        engine.apply_updates(&batch).unwrap();
        // The engine's copy moved on; the caller's graph is untouched.
        assert!(engine.graph().has_edge(0, 63));
        assert!(!g.has_edge(0, 63));
        assert_eq!(engine.generation(), 1);
    }

    #[test]
    fn dense_vertices_hit_the_cache() {
        // 3 upper vertices over a 64-item layer (1 packed word): degree > 2
        // crosses the dense threshold, so the engine packs and caches.
        let edges = (0..40u32)
            .map(|v| (0u32, v))
            .chain((20..60u32).map(|v| (1u32, v)))
            .chain((0..30u32).map(|v| (2u32, v)));
        let g = BipartiteGraph::from_edges(3, 64, edges).unwrap();
        let engine = EstimationEngine::new(&g);
        let mut rng = StdRng::seed_from_u64(9);
        let report = engine
            .estimate_batch(Layer::Upper, 0, &[1, 2], 4.0, &mut rng)
            .unwrap();
        assert_eq!(report.estimates.len(), 2);
        // Both candidates are dense, and so is the round-1 target (the
        // packed perturbation ORs its cached bitmap in word-wise), so all
        // three bitmaps are now warm.
        assert_eq!(engine.store().cached_count(Layer::Upper), 3);
        // And a second run reuses them (still 3, not 6).
        let mut rng = StdRng::seed_from_u64(10);
        engine
            .estimate_batch(Layer::Upper, 0, &[1, 2], 4.0, &mut rng)
            .unwrap();
        assert_eq!(engine.store().cached_count(Layer::Upper), 3);
    }
}
