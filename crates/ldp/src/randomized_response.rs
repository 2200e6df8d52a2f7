//! Warner's randomized response (RR) over bits and neighbor lists.
//!
//! Each bit `x ∈ {0, 1}` of a neighbor list is flipped independently with
//! probability `p = 1 / (1 + e^ε)` and kept with probability `e^ε / (1 + e^ε)`.
//! Applying RR to a whole neighbor list satisfies ε-edge LDP because two lists
//! differing in one bit produce any given output with probability ratio at
//! most `e^ε`.
//!
//! The module also provides the *unbiased edge estimator*
//! `φ(i,j) = (A'[i,j] − p) / (1 − 2p)` from Section 3.1 of the paper, together
//! with its variance, which the `cne` estimators build on.
//!
//! # The perturbation pipeline
//!
//! A noisy row has one form: bit-packed `u64` words, produced by
//! [`RandomizedResponse::perturb_neighbor_list_packed`]. Every consumer
//! intersects the row, so it never exists as an id list. The row is drawn
//! by **geometric skip sampling** (gaps between successive flips drawn
//! from the geometric distribution — expected `O(d + p·n)` work instead of
//! the dense `O(n)` scan), evaluated through a **batched draw pipeline**:
//!
//! * uniform draws are pulled from the RNG in blocks sized so that the
//!   scalar sampler would certainly have consumed every draw in the block
//!   (the block length is bounded by `remaining / max_gap_advance`, so a
//!   block can never overshoot the skip range) — RNG stream consumption is
//!   **exactly** the scalar sampler's, draw for draw;
//! * gaps resolve against exact threshold tables — a `GapTable` of 32
//!   small-gap thresholds extended to 288 by `GapTables`, fronted by a
//!   mantissa-prefix direct-lookup tier that maps almost every draw to its
//!   gap with one shift and one load (buckets containing a step boundary
//!   fall back to a partition-point search); only the rare tail
//!   (`(1−p)^288` of draws) pays the `ln` formula. Every threshold sits
//!   exactly on a step boundary of the reference formula, so resolved gaps
//!   are **bit-identical** to `⌊ln u / ln(1−p)⌋`;
//! * true neighbors are OR-ed in word-wise from a cached bitmap (or set
//!   bit-wise from the id list), dropped bits are cleared, and flipped
//!   zeros are set as their ranks are translated — no id list, no merge
//!   pass, no allocation beyond the returned bitmap.
//!
//! Two id-list samplers remain as **test oracles** only:
//! [`RandomizedResponse::perturb_neighbor_list_scalar_reference`] (the
//! formula-only skip sampler: same bits, same RNG position afterwards) and
//! [`RandomizedResponse::perturb_neighbor_list_dense`] (one Bernoulli draw
//! per slot: same distribution).

use crate::budget::PrivacyBudget;
use crate::mechanism::Mechanism;
use bigraph::bitset::{clear_bit, set_bit, PackedSet};
use bigraph::VertexId;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::sync::Arc;

/// The randomized-response mechanism for one privacy budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RandomizedResponse {
    epsilon: f64,
    flip_probability: f64,
}

impl RandomizedResponse {
    /// Creates a randomized-response mechanism for privacy budget `epsilon`.
    #[must_use]
    pub fn new(epsilon: PrivacyBudget) -> Self {
        let eps = epsilon.value();
        Self {
            epsilon: eps,
            flip_probability: 1.0 / (1.0 + eps.exp()),
        }
    }

    /// The flip probability `p = 1 / (1 + e^ε)`, always in `(0, 0.5)`.
    #[must_use]
    pub fn flip_probability(&self) -> f64 {
        self.flip_probability
    }

    /// The keep probability `e^ε / (1 + e^ε) = 1 − p`.
    #[must_use]
    pub fn keep_probability(&self) -> f64 {
        1.0 - self.flip_probability
    }

    /// The privacy budget this mechanism consumes per neighbor list.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// Perturbs one bit: flips it with probability `p`.
    pub fn perturb_bit<R: Rng + ?Sized>(&self, bit: bool, rng: &mut R) -> bool {
        if rng.gen::<f64>() < self.flip_probability {
            !bit
        } else {
            bit
        }
    }

    /// Applies RR to a neighbor list, producing the noisy row in bit-packed
    /// form — the one way a round-1 row is drawn.
    ///
    /// `true_neighbors` must be sorted ascending (as produced by
    /// [`bigraph::BipartiteGraph::neighbors`]). `true_packed`, when
    /// provided, must be the packed form of `true_neighbors` over
    /// `0..opposite_size` (e.g. the estimation engine's cached adjacency
    /// bitmap): the kept true neighbors are then OR-ed in **word-wise**
    /// instead of bit-by-bit. With or without it, the returned set holds
    /// exactly the ids [`Self::perturb_neighbor_list_scalar_reference`]
    /// returns, and the RNG stream is consumed identically draw-for-draw
    /// (property-tested).
    ///
    /// The output is distributed exactly as one Bernoulli(`p`) flip per
    /// slot (the dense scan kept as [`Self::perturb_neighbor_list_dense`]),
    /// at expected cost `O(d + p·n)` work and `O(p·n + p·d + 2)` RNG draws
    /// for degree `d` and opposite size `n`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `true_neighbors` is unsorted or `true_packed`
    /// disagrees with `true_neighbors`/`opposite_size`.
    pub fn perturb_neighbor_list_packed<R: Rng + ?Sized>(
        &self,
        true_neighbors: &[VertexId],
        true_packed: Option<&PackedSet>,
        opposite_size: usize,
        rng: &mut R,
        scratch: &mut PerturbScratch,
    ) -> PackedSet {
        debug_assert!(true_neighbors.windows(2).all(|w| w[0] < w[1]));
        if let Some(packed) = true_packed {
            debug_assert_eq!(packed.universe(), opposite_size);
            debug_assert_eq!(packed.len(), true_neighbors.len());
        }
        let p = self.flip_probability;
        if p <= 0.0 {
            // ε large enough that p underflowed to exactly 0 (ε ≳ 710): no
            // bit can flip, so the noisy row is the true row. Guarding here
            // keeps the gap distribution's `ln(1 − p) = 0` division out of
            // reach.
            return match true_packed {
                Some(packed) => packed.clone(),
                None => PackedSet::from_sorted(true_neighbors, opposite_size),
            };
        }
        let d = true_neighbors.len();
        let zeros = opposite_size.saturating_sub(d);
        let sampler = GapSampler::prepare(p, opposite_size, scratch);

        // 1 → 0 flips first (same draw order as the scalar reference): stage the
        // drop positions, then materialize the kept true bits — word-wise
        // from the cached bitmap when one is available — and clear the
        // dropped ones.
        let events = scratch.events_mut();
        sampler.sample_events(d, rng, events);
        let mut words = match true_packed {
            Some(packed) => packed.as_words().to_vec(),
            None => {
                let mut words = vec![0u64; opposite_size.div_ceil(64)];
                for &v in true_neighbors {
                    set_bit(&mut words, v as usize);
                }
                words
            }
        };
        for &drop in events.iter() {
            clear_bit(&mut words, true_neighbors[drop as usize] as usize);
        }

        // 0 → 1 flips: translate each sampled zero-rank to its vertex id and
        // set the bit directly — flipped slots are non-neighbors, so they
        // are disjoint from the kept bits by construction.
        //
        // The translation `id = rank + |{neighbors ≤ id}|` is a merge of two
        // sorted sequences (candidate ids and true neighbors). Written as a
        // per-rank catch-up loop it mispredicts on nearly every rank and its
        // ~10-cycle step chain is fully serial; here it runs as a masked
        // two-pointer merge split into [`TRANSLATE_LANES`] independent
        // segments walked in lockstep. The neighbor pointer at any point of
        // the merge is a pure function of the current rank (the partition
        // point of the shifted thresholds `neighbor[t] − t`, which ascend),
        // so each segment's start state comes from a binary search and the
        // segments reproduce the global merge exactly — same ids, same bits.
        events.clear();
        sampler.sample_events(zeros, rng, events);
        translate_ranks_to_bits(events, true_neighbors, &mut words);

        PackedSet::from_words(words, opposite_size)
    }

    /// The straight-line scalar skip sampler (formula-only, no tables, no
    /// batching), kept as the test oracle
    /// [`Self::perturb_neighbor_list_packed`] is property-tested against:
    /// identical ids *and* identical RNG stream consumption. Returns the
    /// sorted noisy ids.
    pub fn perturb_neighbor_list_scalar_reference<R: Rng + ?Sized>(
        &self,
        true_neighbors: &[VertexId],
        opposite_size: usize,
        rng: &mut R,
    ) -> Vec<VertexId> {
        debug_assert!(true_neighbors.windows(2).all(|w| w[0] < w[1]));
        let p = self.flip_probability;
        if p <= 0.0 {
            return true_neighbors.to_vec();
        }
        let d = true_neighbors.len();
        let zeros = opposite_size.saturating_sub(d);
        let denom = gap_denominator(p);
        let draw = |rng: &mut R| -> usize {
            let u: f64 = rng.gen::<f64>();
            if u <= 0.0 {
                return usize::MAX;
            }
            gap_formula(u, denom)
        };

        let mut kept = Vec::with_capacity(d);
        let mut flipped = Vec::new();
        {
            let mut drops = Vec::new();
            let mut pos = draw(rng);
            while pos < d {
                drops.push(pos);
                pos = pos.saturating_add(1).saturating_add(draw(rng));
            }
            let mut prev = 0usize;
            for &drop in &drops {
                kept.extend_from_slice(&true_neighbors[prev..drop]);
                prev = drop + 1;
            }
            kept.extend_from_slice(&true_neighbors[prev..]);
        }
        {
            let mut rank = draw(rng);
            while rank < zeros {
                flipped.push(rank as VertexId);
                rank = rank.saturating_add(1).saturating_add(draw(rng));
            }
            let mut ti = 0usize;
            for slot in flipped.iter_mut() {
                let mut id = *slot as usize + ti;
                while ti < d && (true_neighbors[ti] as usize) <= id {
                    ti += 1;
                    id += 1;
                }
                *slot = id as VertexId;
            }
        }
        // Kept and flipped ids are disjoint: their sorted union is the row.
        kept.extend_from_slice(&flipped);
        kept.sort_unstable();
        kept
    }

    /// The per-bit reference: one Bernoulli draw per candidate slot,
    /// `O(opposite_size)` work, returning the sorted noisy ids. Kept as the
    /// test oracle whose output law the skip sampler is χ²-tested against.
    pub fn perturb_neighbor_list_dense<R: Rng + ?Sized>(
        &self,
        true_neighbors: &[VertexId],
        opposite_size: usize,
        rng: &mut R,
    ) -> Vec<VertexId> {
        debug_assert!(true_neighbors.windows(2).all(|w| w[0] < w[1]));
        let mut noisy = Vec::new();
        let mut next_true = 0usize;
        for candidate in 0..opposite_size as VertexId {
            let is_edge =
                if next_true < true_neighbors.len() && true_neighbors[next_true] == candidate {
                    next_true += 1;
                    true
                } else {
                    false
                };
            if self.perturb_bit(is_edge, rng) {
                noisy.push(candidate);
            }
        }
        noisy
    }

    /// Expected number of noisy edges for a vertex of degree `degree` whose
    /// opposite layer has `opposite_size` vertices:
    /// `d·(1−p) + (n−d)·p`.
    #[must_use]
    pub fn expected_noisy_edges(&self, degree: usize, opposite_size: usize) -> f64 {
        let p = self.flip_probability;
        degree as f64 * (1.0 - p) + (opposite_size.saturating_sub(degree)) as f64 * p
    }

    /// The unbiased edge estimator `φ(i,j) = (A'[i,j] − p)/(1 − 2p)` given the
    /// observed noisy bit.
    #[must_use]
    pub fn unbiased_edge_estimate(&self, noisy_bit: bool) -> f64 {
        let p = self.flip_probability;
        let a = if noisy_bit { 1.0 } else { 0.0 };
        (a - p) / (1.0 - 2.0 * p)
    }

    /// Variance of the unbiased edge estimator: `p(1−p)/(1−2p)²`
    /// (Equation 1 in the paper). Independent of the true bit.
    #[must_use]
    pub fn edge_estimate_variance(&self) -> f64 {
        let p = self.flip_probability;
        p * (1.0 - p) / ((1.0 - 2.0 * p) * (1.0 - 2.0 * p))
    }
}

/// The gap distribution's log-denominator `ln(1 − p)`.
///
/// Via `ln_1p`: for tiny p (large ε), `1.0 - p` would round to exactly 1.0
/// and the naive log would be 0, collapsing every gap to 0 (i.e. flipping
/// *every* bit — the exact opposite of the distribution). `ln_1p` keeps
/// full precision down to the smallest subnormal p. Hoisted out of the
/// per-draw path because it depends only on `p`.
fn gap_denominator(p: f64) -> f64 {
    debug_assert!(p > 0.0 && p < 1.0);
    (-p).ln_1p()
}

/// The reference gap evaluation — the number of Bernoulli(`p`) failures
/// before the next success, `⌊ln u / denom⌋` for one uniform sample
/// `u > 0` and `denom =` [`gap_denominator`]`(p)` — saturating at
/// `usize::MAX` where the float math overflows.
#[inline]
fn gap_formula(u: f64, denom: f64) -> usize {
    let gap = (u.ln() / denom).floor();
    if gap >= usize::MAX as f64 {
        usize::MAX
    } else {
        gap as usize
    }
}

/// Number of small gaps [`GapTable`] resolves by branchless threshold
/// comparison (the first tier of the resolution pipeline).
const GAP_TABLE_SIZE: usize = 32;

/// Number of additional gaps (`32..288`) the extension table resolves by
/// bounded binary search. Together the two tiers cover every draw except a
/// `(1−p)^288` tail — even at ε = 4 (`p ≈ 0.018`) that leaves ~0.5% of
/// draws on the `ln` fallback.
const GAP_EXT_SIZE: usize = 256;

/// Exact threshold table for the common small geometric gaps.
///
/// `thresholds[k]` is the smallest sample on the uniform grid the RNG can
/// produce (`u = m · 2⁻⁵³`) whose gap is `≤ k`, located with
/// [`gap_formula`] itself as the oracle (the gap is a non-increasing step
/// function of `u`). A draw then resolves to the first `k` with
/// `u ≥ thresholds[k]` — by construction *exactly* the value the reference
/// formula would compute — and only gaps `≥ GAP_TABLE_SIZE` fall through to
/// the extension table. This trades one `ln` per draw for comparisons,
/// which is what makes long perturbations cheap at the dense-noise budgets
/// where skip sampling draws tens of thousands of gaps per list.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GapTable {
    thresholds: [f64; GAP_TABLE_SIZE],
}

impl GapTable {
    /// Grid scale of the RNG's `f64` samples: `u = m · 2⁻⁵³`.
    const SCALE: f64 = 1.0 / (1u64 << 53) as f64;

    fn new(denom: f64) -> Self {
        let mut thresholds = [0.0f64; GAP_TABLE_SIZE];
        for (k, slot) in thresholds.iter_mut().enumerate() {
            *slot = threshold_for(k, denom);
        }
        Self { thresholds }
    }

    /// Resolves one sample against the 32 small-gap thresholds, falling
    /// back to the formula for larger gaps (unit-test surface; the
    /// pipeline's [`GapTables::resolve`] adds the extension tier).
    ///
    /// Branchless: `u < thresholds[k] ⟺ gap(u) > k` (the thresholds
    /// decrease with `k`), so counting the thresholds above `u` yields
    /// `min(gap, GAP_TABLE_SIZE)` in 32 autovectorizable comparisons with
    /// no data-dependent branches — an early-exit scan mispredicts once
    /// per draw on the geometric tail and measures ~3× slower.
    #[cfg(test)]
    fn gap(&self, u: f64, denom: f64) -> usize {
        let mut count = 0usize;
        for &threshold in &self.thresholds {
            count += usize::from(u < threshold);
        }
        if count == GAP_TABLE_SIZE {
            gap_formula(u, denom)
        } else {
            count
        }
    }
}

/// The smallest grid point `m · 2⁻⁵³` (as an `f64`) whose gap is `≤ k`,
/// found exactly with [`gap_formula`] as the oracle.
///
/// The binary search is seeded from the real-math boundary
/// `e^{(k+1)·denom}`: floating-point rounding in `ln`/`exp`/the division
/// shifts the effective step boundary by at most a few grid points, so a
/// small window around the seed almost always brackets it; when
/// verification fails the search falls back to the full grid. Either way
/// the result is decided by the oracle, never by the seed — thresholds are
/// exact by construction.
fn threshold_for(k: usize, denom: f64) -> f64 {
    const GRID_MAX: u64 = 1u64 << 53;
    const WINDOW: u64 = 64;
    let oracle = |m: u64| gap_formula(m as f64 * GapTable::SCALE, denom);
    // Seed window from e^{(k+1)·denom} (underflows to 0 for huge k — the
    // clamp to grid point 1 then covers the "every grid point qualifies or
    // none do" extremes).
    let est = ((k as f64 + 1.0) * denom).exp();
    let m_est = ((est / GapTable::SCALE) as u64).clamp(1, GRID_MAX);
    let mut lo = m_est.saturating_sub(WINDOW).max(1);
    let mut hi = m_est.saturating_add(WINDOW).min(GRID_MAX);
    // Bracket: need gap(hi) ≤ k and gap(lo − 1) > k (or lo == 1). The
    // upper bound GRID_MAX is always valid: gap(1.0) = ⌊0/denom⌋ = 0 ≤ k.
    if oracle(hi) > k {
        lo = hi;
        hi = GRID_MAX;
    } else if lo > 1 && oracle(lo) <= k {
        hi = lo;
        lo = 1;
    }
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if oracle(mid) <= k {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi as f64 * GapTable::SCALE
}

/// Total gaps the threshold tables resolve without a `ln`.
const GAP_TOTAL: usize = GAP_TABLE_SIZE + GAP_EXT_SIZE;

/// Bits of the 53-bit mantissa indexing the direct-lookup tier.
const LUT_BITS: u32 = 13;
/// Buckets in the direct-lookup tier (16 KiB of `u16` — cache resident;
/// doubling past 13 bits no longer moves the ambiguous-bucket fraction
/// enough to pay for the extra footprint).
const LUT_SIZE: usize = 1 << LUT_BITS;
/// Shift from a 53-bit mantissa to its bucket index.
const LUT_SHIFT: u32 = 53 - LUT_BITS;
/// Bucket contains a threshold: resolve by exact partition-point search.
const LUT_AMBIG: u16 = u16::MAX;
/// Whole bucket lies below every threshold (gap ≥ [`GAP_TOTAL`]): `ln` tail.
const LUT_TAIL: u16 = u16::MAX - 1;

/// The exact gap-resolution tables for one denominator.
///
/// Resolution is **lookup-first**: the gap is a non-increasing step
/// function of the 53-bit sample mantissa, so bucketing the mantissa's top
/// [`LUT_BITS`] bits yields a table where almost every bucket (all but the
/// ≤ [`GAP_TOTAL`] + 1 buckets a step boundary lands in) maps straight to
/// its gap — one shift and one load per draw. Ambiguous buckets fall back
/// to a partition-point search over the full descending threshold array,
/// and only samples below the last threshold (`(1−p)^288` of draws) pay
/// the `ln` formula. Every path is exact: thresholds sit on the formula's
/// step boundaries by construction.
#[derive(Debug, Clone)]
pub(crate) struct GapTables {
    /// Every threshold, descending — the 32 [`GapTable`] entries followed
    /// by the [`GAP_EXT_SIZE`] extension — for the ambiguous-bucket search.
    all: Box<[f64; GAP_TOTAL]>,
    /// Mantissa-prefix bucket → gap, [`LUT_AMBIG`], or [`LUT_TAIL`].
    lut: Box<[u16; LUT_SIZE]>,
}

impl GapTables {
    fn new(denom: f64) -> Self {
        let small = GapTable::new(denom);
        let mut all = Box::new([0.0f64; GAP_TOTAL]);
        all[..GAP_TABLE_SIZE].copy_from_slice(&small.thresholds);
        for (i, slot) in all[GAP_TABLE_SIZE..].iter_mut().enumerate() {
            *slot = threshold_for(GAP_TABLE_SIZE + i, denom);
        }

        // Direct-lookup tier. A bucket holding a threshold is marked
        // ambiguous (over-marking is safe — the search is exact); every
        // other bucket's gap is constant and equals the threshold count
        // above its highest sample.
        let mut lut = Box::new([0u16; LUT_SIZE]);
        let mut ambiguous = [false; LUT_SIZE];
        for &t in all.iter() {
            // Thresholds are grid points, so `t / SCALE` is an exact
            // integer round-trip.
            let m = (t / GapTable::SCALE) as u64;
            let bucket = ((m >> LUT_SHIFT) as usize).min(LUT_SIZE - 1);
            ambiguous[bucket] = true;
        }
        let mut above = 0usize; // thresholds > the current bucket's u_high
        for b in (0..LUT_SIZE).rev() {
            let m_high = (((b as u64) + 1) << LUT_SHIFT) - 1;
            let u_high = m_high as f64 * GapTable::SCALE;
            while above < GAP_TOTAL && all[above] > u_high {
                above += 1;
            }
            lut[b] = if ambiguous[b] {
                LUT_AMBIG
            } else if above >= GAP_TOTAL {
                // gap(u_high) ≥ GAP_TOTAL and gap only grows toward the
                // bucket's low end: the whole bucket is `ln` territory.
                LUT_TAIL
            } else {
                above as u16
            };
        }
        Self { all, lut }
    }

    /// Resolves one positive sample mantissa (`u = m · 2⁻⁵³`) to its exact
    /// gap.
    #[inline]
    fn resolve_m(&self, m: u64, denom: f64) -> usize {
        debug_assert!(m > 0);
        let code = self.lut[(m >> LUT_SHIFT) as usize];
        if (code as usize) < GAP_TOTAL {
            return code as usize;
        }
        let u = m as f64 * GapTable::SCALE;
        if code == LUT_TAIL {
            return gap_formula(u, denom);
        }
        // Ambiguous bucket: count the thresholds above `u` (they descend,
        // so it is a prefix — partition-point search, exact).
        let (mut lo, mut hi) = (0usize, GAP_TOTAL);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if u < self.all[mid] {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo >= GAP_TOTAL {
            gap_formula(u, denom)
        } else {
            lo
        }
    }

    /// [`GapTables::resolve_m`] from the f64 sample (test surface; the
    /// division by the power-of-two grid scale is an exact round-trip).
    #[cfg(test)]
    fn resolve(&self, u: f64, denom: f64) -> usize {
        self.resolve_m((u / GapTable::SCALE) as u64, denom)
    }
}

thread_local! {
    /// Thread-wide one-entry table cache keyed by the denominator bits.
    /// Tables cost ~300 seeded threshold searches to build; rounds perturb
    /// many lists at the same ε (and engines many rounds), so the cache
    /// hands the same `Arc` to every scratch that asks.
    static GAP_TABLES_CACHE: RefCell<Option<(u64, Arc<GapTables>)>> = const { RefCell::new(None) };
}

/// Reusable working state for the perturbation pipeline: a staging buffer
/// for skip-sampled event positions, plus a one-entry cache of the exact
/// gap-resolution tables keyed by the denominator bits.
///
/// One lives per `cne` scratch arena, so engine runs and per-worker shards
/// keep tables and buffers warm. Holds only capacity and derived
/// constants — never protocol state — so reuse cannot change any output.
#[derive(Debug, Default)]
pub struct PerturbScratch {
    /// Skip-sampled event positions (drop indices, then flip ranks).
    events: Vec<VertexId>,
    /// Cached gap tables for the last denominator used.
    tables: Option<(u64, Arc<GapTables>)>,
}

impl PerturbScratch {
    /// Creates an empty scratch; buffers grow and tables build on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn events_mut(&mut self) -> &mut Vec<VertexId> {
        self.events.clear();
        &mut self.events
    }

    /// The gap tables for `denom`, from this scratch's cache, the
    /// thread-wide cache, or a fresh (seeded, exact) construction.
    fn tables_for(&mut self, denom: f64) -> Arc<GapTables> {
        let key = denom.to_bits();
        if let Some((bits, tables)) = &self.tables {
            if *bits == key {
                return Arc::clone(tables);
            }
        }
        let tables = GAP_TABLES_CACHE.with(|cell| {
            let mut cache = cell.borrow_mut();
            match &*cache {
                Some((bits, tables)) if *bits == key => Arc::clone(tables),
                _ => {
                    let tables = Arc::new(GapTables::new(denom));
                    *cache = Some((key, Arc::clone(&tables)));
                    tables
                }
            }
        });
        self.tables = Some((key, Arc::clone(&tables)));
        tables
    }
}

/// Uniform draws per batched fill. 64 keeps the whole block (raw mantissas
/// plus resolved gaps) in L1 while amortizing the per-draw RNG and
/// dispatch overhead across a full cache line of events.
const DRAW_BLOCK: usize = 64;

/// Expected draws above which building (or fetching) the exact gap tables
/// pays for itself. Below it the pipeline resolves every gap with the
/// formula — bit-identical, just without the table fast path.
const TABLE_MIN_EXPECTED_DRAWS: f64 = 1024.0;

/// Flip probabilities below this produce gaps so large that even the
/// extension table misses most draws; skip table construction entirely.
const TABLE_MIN_P: f64 = 1e-3;

/// One phase's skip-sampling state: the resolution tables (if built) plus
/// the constants the exact-consumption block sizing needs.
struct GapSampler {
    denom: f64,
    tables: Option<Arc<GapTables>>,
    /// `1 + ` the largest finite gap any positive grid sample can produce
    /// (`gap(2⁻⁵³)`): no draw can advance the skip position by more, so a
    /// block of `1 + remaining/max_advance` draws is certainly consumed.
    max_advance: usize,
}

impl GapSampler {
    /// Hoists the per-list constants and (when the workload warrants)
    /// the exact resolution tables out of the draw loop.
    fn prepare(p: f64, opposite_size: usize, scratch: &mut PerturbScratch) -> Self {
        let denom = gap_denominator(p);
        let expected_draws = p * opposite_size as f64;
        let cached = matches!(&scratch.tables, Some((bits, _)) if *bits == denom.to_bits());
        let tables = if cached || (expected_draws >= TABLE_MIN_EXPECTED_DRAWS && p >= TABLE_MIN_P) {
            Some(scratch.tables_for(denom))
        } else {
            None
        };
        let max_advance = gap_formula(GapTable::SCALE, denom).saturating_add(1);
        Self {
            denom,
            tables,
            max_advance,
        }
    }

    /// Skip-samples event positions in `0..bound`, pushing each into `out`
    /// — the batched form of the scalar loop
    ///
    /// ```text
    /// pos = draw_gap(); while pos < bound { emit(pos); pos += 1 + draw_gap(); }
    /// ```
    ///
    /// consuming the RNG **exactly** as that loop would, draw for draw:
    ///
    /// * a block of `min(64, 1 + remaining/max_advance)` raw draws is
    ///   pulled first — since no finite gap advances the position by more
    ///   than `max_advance`, the scalar loop would certainly have consumed
    ///   every one of them;
    /// * the one event that can end the phase early — a zero mantissa,
    ///   whose gap saturates to `usize::MAX` — truncates the fill at the
    ///   draw the scalar sampler would also have stopped at;
    /// * gaps then resolve in a tight pass (branchless table count, bounded
    ///   binary search, `ln` tail — all exact), and the position walk emits
    ///   the events. Only the final draw of a block can overshoot `bound`,
    ///   which is precisely the scalar loop's termination draw.
    fn sample_events<R: Rng + ?Sized>(&self, bound: usize, rng: &mut R, out: &mut Vec<VertexId>) {
        let mut raw = [0u64; DRAW_BLOCK];
        let mut gaps = [0usize; DRAW_BLOCK];
        // `base`: the offset the next gap is added to (0 before the first
        // draw, `pos + 1` after an event at `pos`).
        let mut base = 0usize;
        loop {
            // How many draws the scalar sampler is guaranteed to consume
            // from this state (≥ 1: it always draws once more).
            let remaining = bound.saturating_sub(base);
            let guaranteed = 1 + remaining / self.max_advance;
            let k = guaranteed.min(DRAW_BLOCK);
            // Fill: raw 53-bit mantissas (the exact grid `gen::<f64>()`
            // samples from). A zero mantissa is u = 0.0 — its gap is
            // `usize::MAX`, ending the phase — so it truncates the block.
            let mut n = 0usize;
            while n < k {
                let m = rng.next_u64() >> 11;
                raw[n] = m;
                n += 1;
                if m == 0 {
                    break;
                }
            }
            // Resolve the block's gaps in a tight pass.
            match &self.tables {
                Some(tables) => {
                    for i in 0..n {
                        let m = raw[i];
                        gaps[i] = if m == 0 {
                            usize::MAX
                        } else {
                            tables.resolve_m(m, self.denom)
                        };
                    }
                }
                None => {
                    for i in 0..n {
                        let m = raw[i];
                        gaps[i] = if m == 0 {
                            usize::MAX
                        } else {
                            gap_formula(m as f64 * GapTable::SCALE, self.denom)
                        };
                    }
                }
            }
            // Walk: emit events; only the final draw of the block can
            // cross `bound` (that is the scalar loop's exit draw).
            for (i, &gap) in gaps[..n].iter().enumerate() {
                let pos = base.saturating_add(gap);
                if pos >= bound {
                    debug_assert_eq!(i, n - 1, "only the last guaranteed draw may overshoot");
                    return;
                }
                out.push(pos as VertexId);
                base = pos + 1;
            }
        }
    }
}

/// Independent merge segments of [`translate_ranks_to_bits`]: four serial
/// ~10-cycle pointer chains in flight cover the chain latency; more lanes
/// stop paying once the core's load ports saturate.
const TRANSLATE_LANES: usize = 4;

/// Translates sorted non-neighbor ranks to vertex ids and sets their bits:
/// for each rank `r` in `ranks`, the bit `r + |{t ∈ true_neighbors : t ≤ id}|`
/// (the id of the `r`-th zero slot) is set in `words`.
///
/// Output-identical to the obvious per-rank catch-up loop
///
/// ```text
/// for r { id = r + ti; while neighbors[ti] <= id { ti += 1; id += 1 } set(id) }
/// ```
///
/// but restructured for the pipeline: the merge is cut into
/// [`TRANSLATE_LANES`] rank segments whose start states come from a binary
/// search (the neighbor pointer at rank `r` is the partition point of the
/// ascending thresholds `neighbors[t] − t > r`, independent of merge
/// history), and the segments advance in lockstep with masked bit writes —
/// four independent dependency chains instead of one, and no
/// data-dependent branch in the hot loop.
fn translate_ranks_to_bits(ranks: &[VertexId], true_neighbors: &[VertexId], words: &mut [u64]) {
    let d = true_neighbors.len();
    let n = ranks.len();
    if d == 0 {
        for &r in ranks {
            set_bit(words, r as usize);
        }
        return;
    }
    // First neighbor pointer whose shifted threshold exceeds `rank`.
    let start_ti = |rank: usize| -> usize {
        let (mut lo, mut hi) = (0usize, d);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if true_neighbors[mid] as usize - mid <= rank {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    };
    let mut ei = [0usize; TRANSLATE_LANES];
    let mut end = [0usize; TRANSLATE_LANES];
    let mut ti = [d; TRANSLATE_LANES];
    for lane in 0..TRANSLATE_LANES {
        ei[lane] = n * lane / TRANSLATE_LANES;
        end[lane] = n * (lane + 1) / TRANSLATE_LANES;
        if ei[lane] < end[lane] {
            ti[lane] = start_ti(ranks[ei[lane]] as usize);
        }
    }
    // One masked merge step: emit the rank's bit if no neighbor precedes
    // its id, else advance past that neighbor (which shifts this and every
    // later rank of the lane up by one).
    macro_rules! step {
        ($lane:expr) => {
            let id = ranks[ei[$lane]] as usize + ti[$lane];
            let is_event = id < true_neighbors[ti[$lane]] as usize;
            let mask = (is_event as u64).wrapping_neg();
            words[id / 64] |= (1u64 << (id % 64)) & mask;
            ei[$lane] += usize::from(is_event);
            ti[$lane] += usize::from(!is_event);
        };
    }
    // Lockstep while every lane still merges; finish each lane serially
    // (the lanes are balanced by rank count, so the tails are short).
    while (0..TRANSLATE_LANES).all(|l| ei[l] < end[l] && ti[l] < d) {
        step!(0);
        step!(1);
        step!(2);
        step!(3);
    }
    for lane in 0..TRANSLATE_LANES {
        while ei[lane] < end[lane] && ti[lane] < d {
            step!(lane);
        }
        // Ranks past the last neighbor shift by the full degree.
        for &r in &ranks[ei[lane]..end[lane]] {
            set_bit(words, r as usize + d);
        }
    }
}

impl Mechanism<bool> for RandomizedResponse {
    type Output = bool;

    fn apply<R: Rng + ?Sized>(&self, input: bool, rng: &mut R) -> bool {
        self.perturb_bit(input, rng)
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn rr(eps: f64) -> RandomizedResponse {
        RandomizedResponse::new(PrivacyBudget::new(eps).unwrap())
    }

    #[test]
    fn flip_probability_formula() {
        for eps in [0.5, 1.0, 2.0, 3.0] {
            let r = rr(eps);
            let expected = 1.0 / (1.0 + eps.exp());
            assert!((r.flip_probability() - expected).abs() < 1e-15);
            assert!((r.keep_probability() - (1.0 - expected)).abs() < 1e-15);
            assert!(r.flip_probability() > 0.0 && r.flip_probability() < 0.5);
            assert_eq!(r.epsilon(), eps);
        }
    }

    #[test]
    fn higher_budget_flips_less() {
        assert!(rr(3.0).flip_probability() < rr(1.0).flip_probability());
    }

    #[test]
    fn empirical_flip_rate_matches_p() {
        let r = rr(1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let trials = 200_000;
        let flipped = (0..trials)
            .filter(|_| r.perturb_bit(false, &mut rng))
            .count();
        let rate = flipped as f64 / trials as f64;
        assert!(
            (rate - r.flip_probability()).abs() < 0.005,
            "rate {rate} vs p {}",
            r.flip_probability()
        );

        let kept = (0..trials)
            .filter(|_| r.perturb_bit(true, &mut rng))
            .count();
        let keep_rate = kept as f64 / trials as f64;
        assert!((keep_rate - r.keep_probability()).abs() < 0.005);
    }

    #[test]
    fn gap_tables_match_formula_exactly() {
        let mut rng = StdRng::seed_from_u64(99);
        for eps in [0.5f64, 1.0, 2.0, 3.0, 4.0] {
            let p = 1.0 / (1.0 + eps.exp());
            let denom = gap_denominator(p);
            let tables = GapTables::new(denom);
            let small = GapTable::new(denom);
            // Both the full tables and the 32-entry small tier must agree
            // with the reference formula on every sample, including the
            // small-u fallback region.
            for _ in 0..200_000 {
                let u: f64 = rng.gen();
                if u <= 0.0 {
                    continue;
                }
                assert_eq!(
                    tables.resolve(u, denom),
                    gap_formula(u, denom),
                    "tables and formula disagree at u={u} eps={eps}"
                );
                assert_eq!(
                    small.gap(u, denom),
                    gap_formula(u, denom),
                    "small tier disagrees at u={u} eps={eps}"
                );
            }
            // Deliberately tiny samples exercise the ln tail beyond both
            // tiers (gap ≥ 288 needs u ≤ (1−p)^288: guaranteed at these ε).
            for m in [1u64, 2, 3, 1000, 1 << 20] {
                let u = m as f64 * GapTable::SCALE;
                assert_eq!(tables.resolve(u, denom), gap_formula(u, denom));
            }
            // Every threshold — the 32 small-tier entries followed by the
            // 256 extension entries — sits exactly on a step boundary of
            // the grid the RNG samples from: entry k maps to ≤ k, its grid
            // predecessor to > k. The combined array must also start with
            // the small tier verbatim.
            for (k, &t) in small.thresholds.iter().enumerate() {
                assert_eq!(t.to_bits(), tables.all[k].to_bits(), "tier mismatch at {k}");
            }
            for (k, &t) in tables.all.iter().enumerate() {
                let m = (t / GapTable::SCALE).round() as u64;
                assert!(gap_formula(m as f64 * GapTable::SCALE, denom) <= k);
                if m > 1 {
                    assert!(
                        gap_formula((m - 1) as f64 * GapTable::SCALE, denom) > k,
                        "threshold {k} not tight at eps {eps}"
                    );
                }
            }
        }
    }

    #[test]
    fn seeded_threshold_construction_matches_full_binary_search() {
        // The exp-seeded window search must agree with an oracle-only full
        // binary search over the whole grid, for representative ε and ks
        // across both tiers.
        for eps in [0.5f64, 1.0, 4.0, 6.0] {
            let p = 1.0 / (1.0 + eps.exp());
            let denom = gap_denominator(p);
            for k in [0usize, 1, 15, 31, 32, 100, 255, 287] {
                let mut lo = 1u64;
                let mut hi = 1u64 << 53;
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if gap_formula(mid as f64 * GapTable::SCALE, denom) <= k {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                let reference = hi as f64 * GapTable::SCALE;
                assert_eq!(
                    threshold_for(k, denom).to_bits(),
                    reference.to_bits(),
                    "k={k} eps={eps}"
                );
            }
        }
    }

    /// The packed pipeline must equal the scalar reference in both output
    /// and RNG stream consumption — with and without a pre-packed true
    /// bitmap — across table and no-table regimes and the zero-size edge
    /// cases.
    #[test]
    fn packed_pipeline_matches_scalar_reference_exactly() {
        let mut scratch = PerturbScratch::new();
        for eps in [0.3f64, 0.5, 1.0, 2.0, 4.0, 7.0, 25.0] {
            let r = rr(eps);
            for (d, n) in [
                (0usize, 0usize),
                (0, 64),
                (0, 100),
                (5, 200),
                (10, 10),
                (25, 4_096),
                (10, 5_000),
                (10, 50_000),
                (40, 50_000),
            ] {
                let truth: Vec<VertexId> = (0..d as u32)
                    .map(|i| i * (n as u32 / d.max(1) as u32).max(1))
                    .collect();
                let truth: Vec<VertexId> =
                    truth.into_iter().filter(|&v| (v as usize) < n).collect();
                let true_packed = PackedSet::from_sorted(&truth, n);
                for seed in [0u64, 1, 2, 3, 4, 17, 99] {
                    let mut rng_scalar = StdRng::seed_from_u64(seed);
                    let mut rng_packed = StdRng::seed_from_u64(seed);
                    let mut rng_cached = StdRng::seed_from_u64(seed);
                    let scalar =
                        r.perturb_neighbor_list_scalar_reference(&truth, n, &mut rng_scalar);
                    let packed = r.perturb_neighbor_list_packed(
                        &truth,
                        None,
                        n,
                        &mut rng_packed,
                        &mut scratch,
                    );
                    let cached = r.perturb_neighbor_list_packed(
                        &truth,
                        Some(&true_packed),
                        n,
                        &mut rng_cached,
                        &mut scratch,
                    );
                    let case = format!("eps {eps} d {} n {n} seed {seed}", truth.len());
                    assert_eq!(packed.universe(), n, "{case}");
                    assert_eq!(packed.to_sorted_ids(), scalar, "{case}");
                    assert_eq!(packed.len(), scalar.len(), "{case}");
                    assert_eq!(cached, packed, "cached-bitmap path differs: {case}");
                    // Post-state equality proves draw-for-draw consumption.
                    let next = rng_scalar.next_u64();
                    assert_eq!(rng_packed.next_u64(), next, "stream diverged: {case}");
                    assert_eq!(
                        rng_cached.next_u64(),
                        next,
                        "cached stream diverged: {case}"
                    );
                }
            }
        }
    }

    /// The segmented lane merge emits exactly the ids of the naive per-rank
    /// catch-up loop on lane-hostile shapes: empty inputs, fewer ranks than
    /// lanes, every rank past the last neighbor, and dense neighbor runs
    /// that force long catch-ups right at lane boundaries.
    #[test]
    fn translate_ranks_matches_catchup_reference() {
        let naive = |ranks: &[VertexId], nbrs: &[VertexId], words: &mut [u64]| {
            let mut ti = 0usize;
            for &slot in ranks {
                let mut id = slot as usize + ti;
                while ti < nbrs.len() && (nbrs[ti] as usize) <= id {
                    ti += 1;
                    id += 1;
                }
                set_bit(words, id);
            }
        };
        let universe = 512usize;
        let cases: Vec<(Vec<VertexId>, Vec<VertexId>)> = vec![
            (vec![], vec![]),
            (vec![0, 3], vec![]),
            (vec![], vec![1, 2, 3]),
            (vec![5], vec![0, 1, 2, 3, 4, 5, 6, 7]),
            (vec![0, 1, 2], vec![0, 1, 2]),
            ((0..40).collect(), vec![0, 1, 2, 3, 100, 101, 102, 103]),
            ((100..140).collect(), (0..90).collect()),
            (
                (0..200).step_by(3).map(|r| r as VertexId).collect(),
                (0..300).step_by(7).map(|v| v as VertexId).collect(),
            ),
        ];
        for (ranks, nbrs) in cases {
            let words_len = universe.div_ceil(64);
            let mut expect = vec![0u64; words_len];
            naive(&ranks, &nbrs, &mut expect);
            let mut got = vec![0u64; words_len];
            translate_ranks_to_bits(&ranks, &nbrs, &mut got);
            assert_eq!(got, expect, "ranks {ranks:?} nbrs {nbrs:?}");
        }
    }

    #[test]
    fn packed_row_stays_inside_its_universe() {
        let r = rr(1.0);
        let mut scratch = PerturbScratch::new();
        let mut rng = StdRng::seed_from_u64(7);
        let truth: Vec<VertexId> = vec![2, 5, 9];
        let noisy = r.perturb_neighbor_list_packed(&truth, None, 50, &mut rng, &mut scratch);
        assert_eq!(noisy.universe(), 50);
        assert_eq!(noisy.as_words().len(), 1);
        assert!(noisy.to_sorted_ids().iter().all(|&v| (v as usize) < 50));
    }

    #[test]
    fn packed_row_density_matches_expectation() {
        let r = rr(2.0);
        let mut scratch = PerturbScratch::new();
        let mut rng = StdRng::seed_from_u64(11);
        let truth: Vec<VertexId> = (0..20).collect();
        let n = 1000usize;
        let runs = 300;
        let total: usize = (0..runs)
            .map(|_| {
                r.perturb_neighbor_list_packed(&truth, None, n, &mut rng, &mut scratch)
                    .len()
            })
            .sum();
        let avg = total as f64 / runs as f64;
        let expected = r.expected_noisy_edges(truth.len(), n);
        assert!(
            (avg - expected).abs() < expected * 0.05 + 3.0,
            "avg {avg} vs expected {expected}"
        );
    }

    #[test]
    fn high_epsilon_preserves_list_exactly_in_expectation() {
        // With a huge budget the flip probability is ~0, so the noisy row
        // should equal the true row almost always.
        let r = rr(20.0);
        let mut scratch = PerturbScratch::new();
        let mut rng = StdRng::seed_from_u64(3);
        let truth: Vec<VertexId> = vec![1, 4, 8];
        let noisy = r.perturb_neighbor_list_packed(&truth, None, 100, &mut rng, &mut scratch);
        assert_eq!(noisy.to_sorted_ids(), truth);
    }

    #[test]
    fn unbiased_edge_estimate_is_unbiased() {
        let r = rr(1.0);
        let p = r.flip_probability();
        // E[phi | A=1] = (1-p)·phi(1) + p·phi(0) = 1
        let e1 = (1.0 - p) * r.unbiased_edge_estimate(true) + p * r.unbiased_edge_estimate(false);
        assert!((e1 - 1.0).abs() < 1e-12);
        // E[phi | A=0] = p·phi(1) + (1-p)·phi(0) = 0
        let e0 = p * r.unbiased_edge_estimate(true) + (1.0 - p) * r.unbiased_edge_estimate(false);
        assert!(e0.abs() < 1e-12);
    }

    #[test]
    fn edge_estimate_variance_formula() {
        let r = rr(1.5);
        let p = r.flip_probability();
        let expected = p * (1.0 - p) / ((1.0 - 2.0 * p) * (1.0 - 2.0 * p));
        assert!((r.edge_estimate_variance() - expected).abs() < 1e-15);
        // Variance decreases as epsilon grows.
        assert!(rr(3.0).edge_estimate_variance() < rr(1.0).edge_estimate_variance());
    }

    #[test]
    fn expected_noisy_edges_monotone_in_degree() {
        let r = rr(1.0);
        assert!(r.expected_noisy_edges(10, 100) > r.expected_noisy_edges(0, 100));
        // degree larger than opposite size saturates rather than panics
        let e = r.expected_noisy_edges(200, 100);
        assert!(e > 0.0);
    }

    #[test]
    fn mechanism_trait_dispatch() {
        let r = rr(1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let out: bool = Mechanism::<bool>::apply(&r, true, &mut rng);
        let _ = out;
        assert_eq!(Mechanism::<bool>::epsilon(&r), 1.0);
    }

    #[test]
    fn serde_round_trip() {
        let r = rr(2.0);
        let json = serde_json::to_string(&r).unwrap();
        let back: RandomizedResponse = serde_json::from_str(&json).unwrap();
        // JSON float round-tripping can differ in the last ulp, so compare
        // fields with a tolerance instead of exact equality.
        assert_eq!(back.epsilon(), r.epsilon());
        assert!((back.flip_probability() - r.flip_probability()).abs() < 1e-12);
    }
}
