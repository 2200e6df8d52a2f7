//! Batch estimation: one target vertex against many candidates.
//!
//! Applications such as "find the most similar users to `u`" need
//! `C2(u, w₁), …, C2(u, w_k)` for many candidates. Running MultiR-SS
//! independently per candidate would multiply the privacy cost of `u`'s data
//! by `k`. The batch protocol avoids that:
//!
//! * **Round 1** — the target `u` applies randomized response to its neighbor
//!   list once with budget `ε₁` and uploads the noisy edges. This is the only
//!   release that touches `u`'s data, so `u` spends exactly `ε₁` regardless of
//!   how many candidates there are.
//! * **Round 2** — every candidate `w_i` downloads `u`'s noisy edges, builds
//!   the single-source estimator `f̃_{w_i}` from its *own* neighborhood, adds
//!   Laplace noise with budget `ε₂`, and uploads one scalar. The candidates'
//!   neighbor lists are disjoint datasets, so these releases compose in
//!   parallel: each vertex's total spend is `ε₁ + ε₂ = ε`.
//!
//! The result is `k` unbiased estimates for the price (in privacy) of one.
//!
//! # Parallel batch engine
//!
//! Round 2 is embarrassingly parallel: every candidate's estimator reads the
//! same packed noisy target row and its own (immutable) adjacency. Round 1
//! produces that row **directly in bit-packed form**
//! ([`ldp::noisy_graph::NoisyNeighborsPacked`] — RNG draws become words,
//! with no intermediate id list or merge pass), the engine fans the
//! candidates out across all cores with `rayon`, and gives every candidate
//! its own RNG stream derived as `seed + vertex id` (see
//! [`user_stream_seed`]). Streams depend only on the draw of one base seed
//! and the candidate's vertex id — never on thread scheduling — so a
//! seeded run produces **byte-identical** results at any core count.
//!
//! The per-candidate loop is **allocation-free after warmup**: accounting
//! runs in the lean mode (interned labels, fixed-size counters — see
//! [`crate::engine`]), and any per-candidate packing goes through the
//! worker's scratch arena ([`crate::engine::with_shard_scratch`]). Use
//! [`BatchSingleSource::estimate_batch_detailed`] to retain the full
//! message log and budget ledger instead.

use crate::engine::{with_shard_scratch, ProtocolEnv, RoundContext};
use crate::error::{CneError, Result};
use crate::estimate::AlgorithmKind;
use crate::protocol::randomized_response_round_packed;
use crate::single_source::{
    single_source_laplace, single_source_value_multi, single_source_value_scratch,
};
use bigraph::bitset::PackedSet;
use bigraph::{common_neighbors, BipartiteGraph, Layer, VertexId};
use ldp::budget::{BudgetAccountant, Composition, PrivacyBudget};
use ldp::laplace::{sample_laplace_each, LaplaceMechanism};
use ldp::noisy_graph::NoisyNeighborsPacked;
use ldp::transcript::{Label, Transcript};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Derives the deterministic RNG stream seed for one participating user.
///
/// The contract (documented in ROADMAP.md) is `stream = mix(seed, vertex id)`
/// with a SplitMix64-style finalizer: streams are decorrelated across users,
/// reproducible for a fixed `(seed, vertex)` pair, and independent of both
/// thread scheduling and the order users are processed in.
#[must_use]
pub fn user_stream_seed(seed: u64, vertex: u64) -> u64 {
    let mut z = seed ^ vertex.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One candidate's estimate in a batch run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchEstimate {
    /// The candidate vertex.
    pub candidate: VertexId,
    /// The unbiased estimate of `C2(target, candidate)`.
    pub estimate: f64,
}

/// The outcome of a batch estimation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchReport {
    /// The target vertex all estimates are relative to.
    pub target: VertexId,
    /// The layer the target and candidates live on.
    pub layer: Layer,
    /// Per-candidate estimates, in the order the candidates were given.
    pub estimates: Vec<BatchEstimate>,
    /// The total privacy budget each participating vertex spent.
    pub epsilon: f64,
    /// Privacy accounting for the run (per-vertex view).
    pub budget: BudgetAccountant,
    /// Byte-accurate transcript of all exchanged messages.
    pub transcript: Transcript,
}

impl BatchReport {
    /// The candidates ranked by decreasing estimate (ties keep input order).
    ///
    /// A NaN estimate (possible only from pathological downstream
    /// post-processing — the protocol itself never produces one) sorts
    /// *after* every real value ([`crate::estimate::nan_last_desc`]) instead
    /// of panicking the ranking or surfacing as the winner.
    #[must_use]
    pub fn ranked(&self) -> Vec<BatchEstimate> {
        let mut sorted = self.estimates.clone();
        sorted.sort_by(|a, b| crate::estimate::nan_last_desc(a.estimate, b.estimate));
        sorted
    }

    /// Total communication in bytes.
    #[must_use]
    pub fn communication_bytes(&self) -> usize {
        self.transcript.total_bytes()
    }
}

/// The batch single-source estimator (see the module docs for the protocol).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BatchSingleSource {
    /// Fraction of the budget spent on the target's randomized response.
    pub epsilon1_fraction: f64,
}

impl Default for BatchSingleSource {
    fn default() -> Self {
        Self {
            epsilon1_fraction: 0.5,
        }
    }
}

impl BatchSingleSource {
    /// The algorithm family this protocol belongs to (it generalises MultiR-SS).
    #[must_use]
    pub fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::MultiRSS
    }

    /// Runs the batch protocol for `target` against `candidates` on `layer`.
    ///
    /// # Errors
    ///
    /// * invalid budget or fraction,
    /// * unknown target/candidate vertices,
    /// * a candidate equal to the target,
    /// * duplicate candidates (each user may release once per batch),
    /// * an empty candidate list.
    pub fn estimate_batch(
        &self,
        g: &BipartiteGraph,
        layer: Layer,
        target: VertexId,
        candidates: &[VertexId],
        epsilon: f64,
        rng: &mut dyn rand::RngCore,
    ) -> Result<BatchReport> {
        self.estimate_batch_in(
            ProtocolEnv::uncached(g),
            layer,
            target,
            candidates,
            epsilon,
            rng,
        )
    }

    /// [`BatchSingleSource::estimate_batch`] in **detailed** accounting
    /// mode: the report retains the per-message transcript log and the
    /// per-charge budget ledger. Estimates and every aggregate are
    /// byte-identical to the lean run on the same seed.
    ///
    /// # Errors
    ///
    /// Same contract as [`BatchSingleSource::estimate_batch`].
    pub fn estimate_batch_detailed(
        &self,
        g: &BipartiteGraph,
        layer: Layer,
        target: VertexId,
        candidates: &[VertexId],
        epsilon: f64,
        rng: &mut dyn rand::RngCore,
    ) -> Result<BatchReport> {
        self.estimate_batch_impl(
            ProtocolEnv::uncached(g),
            layer,
            target,
            candidates,
            epsilon,
            rng,
            true,
        )
    }

    /// [`BatchSingleSource::estimate_batch`] inside a protocol environment —
    /// the entry point [`crate::engine::EstimationEngine`] routes through so
    /// candidate adjacencies come from its warm
    /// [`crate::engine::AdjacencyStore`]. Byte-identical to the uncached
    /// path for the same seed.
    ///
    /// # Errors
    ///
    /// Same contract as [`BatchSingleSource::estimate_batch`].
    pub fn estimate_batch_in(
        &self,
        env: ProtocolEnv<'_>,
        layer: Layer,
        target: VertexId,
        candidates: &[VertexId],
        epsilon: f64,
        rng: &mut dyn rand::RngCore,
    ) -> Result<BatchReport> {
        self.estimate_batch_impl(env, layer, target, candidates, epsilon, rng, false)
    }

    /// [`BatchSingleSource::estimate_batch_in`] with detailed accounting
    /// (see [`BatchSingleSource::estimate_batch_detailed`]).
    ///
    /// # Errors
    ///
    /// Same contract as [`BatchSingleSource::estimate_batch`].
    pub fn estimate_batch_in_detailed(
        &self,
        env: ProtocolEnv<'_>,
        layer: Layer,
        target: VertexId,
        candidates: &[VertexId],
        epsilon: f64,
        rng: &mut dyn rand::RngCore,
    ) -> Result<BatchReport> {
        self.estimate_batch_impl(env, layer, target, candidates, epsilon, rng, true)
    }

    #[allow(clippy::too_many_arguments)]
    fn estimate_batch_impl(
        &self,
        env: ProtocolEnv<'_>,
        layer: Layer,
        target: VertexId,
        candidates: &[VertexId],
        epsilon: f64,
        rng: &mut dyn rand::RngCore,
        detailed: bool,
    ) -> Result<BatchReport> {
        validate_batch_query(env.graph, layer, target, candidates)?;
        let mut ctx = if detailed {
            RoundContext::begin_detailed(epsilon, rng)?
        } else {
            RoundContext::begin(epsilon, rng)?
        };
        let round1 = self.round1_with_ctx(env, layer, target, &mut ctx)?;

        // Round 2: every candidate downloads the noisy list, builds its
        // single-source estimator, and releases it with Laplace noise.
        let estimates = batch_round2(env, layer, candidates, &round1)?;

        // Accounting and the message transcript are sequential bookkeeping,
        // recorded exactly as the wire protocol would observe them — pure
        // counter arithmetic in the default lean mode.
        replay_round2_accounting(
            &mut ctx,
            &round1.noisy_target,
            round1.eps2,
            candidates.len(),
        )?;

        let (budget, transcript) = ctx.finish();
        Ok(BatchReport {
            target,
            layer,
            estimates,
            epsilon,
            budget,
            transcript,
        })
    }

    /// The split-out first phase of [`BatchSingleSource::estimate_batch_in`]:
    /// validates the full query, runs the target's randomized-response
    /// round, and fixes the per-candidate RNG stream base — everything
    /// round 2 depends on, bundled as a [`BatchRound1`].
    ///
    /// This is the phase a sharded deployment runs **once, at the worker
    /// that owns the target's adjacency**: the artifacts it returns are
    /// placement-free (a noisy row over the global opposite layer, a flip
    /// probability, a stream base), so round 2 can be evaluated for any
    /// candidate subset, anywhere, and the results concatenated — see
    /// [`batch_round2`] and [`BatchSingleSource::assemble_report`]. Running
    /// `round1_in` + `batch_round2` + `assemble_report` over any partition
    /// of `candidates` is byte-identical to
    /// [`BatchSingleSource::estimate_batch_in`] on the same `rng`, because
    /// all three share their validation, estimation, and accounting code
    /// with it.
    ///
    /// The run-scoped accounting (budget charge for the RR round) is *not*
    /// retained here — [`BatchSingleSource::assemble_report`] replays it;
    /// the charge is still validated against `epsilon` before any draw.
    ///
    /// # Errors
    ///
    /// Same contract as [`BatchSingleSource::estimate_batch`].
    pub fn round1_in(
        &self,
        env: ProtocolEnv<'_>,
        layer: Layer,
        target: VertexId,
        candidates: &[VertexId],
        epsilon: f64,
        rng: &mut dyn rand::RngCore,
    ) -> Result<BatchRound1> {
        validate_batch_query(env.graph, layer, target, candidates)?;
        let mut ctx = RoundContext::begin(epsilon, rng)?;
        self.round1_with_ctx(env, layer, target, &mut ctx)
    }

    /// Round 1 proper, inside an already-begun context: budget split, the
    /// target's packed randomized-response round, and the stream-base draw
    /// — in exactly this order, so the `rng` consumption matches the
    /// monolithic path draw for draw.
    fn round1_with_ctx(
        &self,
        env: ProtocolEnv<'_>,
        layer: Layer,
        target: VertexId,
        ctx: &mut RoundContext<'_>,
    ) -> Result<BatchRound1> {
        let epsilon = ctx.total().value();
        let (eps1, eps2) = ctx.total().split_fraction(self.epsilon1_fraction)?;

        // Round 1: the target perturbs and uploads its neighbor list once —
        // directly in packed form (RNG → words, no id list, no merge pass;
        // the engine's cached true-adjacency bitmap is OR-ed in word-wise
        // when the environment carries a warm store).
        let round1 = randomized_response_round_packed(env, layer, &[target], eps1, 1, ctx)?;
        let flip_probability = round1.flip_probability;
        let noisy_target = round1.noisy.into_iter().next().expect("one list requested");
        let base_seed = ctx.next_stream_base();
        Ok(BatchRound1 {
            epsilon,
            flip_probability,
            eps2,
            base_seed,
            noisy_target,
        })
    }

    /// Rebuilds the full [`BatchReport`] from round-1 artifacts and the
    /// (re)assembled per-candidate estimates — the curator-side closing
    /// step of a sharded run.
    ///
    /// `estimates` must be the concatenation, **in the original candidate
    /// order**, of [`batch_round2`] outputs over a partition of the
    /// candidate list. The budget ledger and transcript are replayed
    /// through the same accounting helpers the monolithic path records
    /// through, so the report is byte-identical (estimates, budget,
    /// transcript — lean mode) to [`BatchSingleSource::estimate_batch_in`]
    /// on the equivalent unsharded engine.
    ///
    /// # Errors
    ///
    /// Invalid `epsilon`/fraction, or an empty `estimates` list (a batch
    /// always has at least one candidate).
    pub fn assemble_report(
        &self,
        layer: Layer,
        target: VertexId,
        round1: &BatchRound1,
        estimates: Vec<BatchEstimate>,
    ) -> Result<BatchReport> {
        if estimates.is_empty() {
            return Err(CneError::InvalidParameter {
                name: "estimates",
                reason: "the assembled estimate list must not be empty".into(),
            });
        }
        // The replay never draws: the rng is only a constructor argument.
        let mut unused_rng = StdRng::seed_from_u64(0);
        let mut ctx = RoundContext::begin(round1.epsilon, &mut unused_rng)?;
        let (eps1, eps2) = ctx.total().split_fraction(self.epsilon1_fraction)?;
        replay_round1_accounting(&mut ctx, eps1, &round1.noisy_target)?;
        replay_round2_accounting(&mut ctx, &round1.noisy_target, eps2, estimates.len())?;
        let (budget, transcript) = ctx.finish();
        Ok(BatchReport {
            target,
            layer,
            estimates,
            epsilon: round1.epsilon,
            budget,
            transcript,
        })
    }
}

/// The placement-free artifacts of a batch run's round 1 (see
/// [`BatchSingleSource::round1_in`]): everything a round-2 evaluation
/// depends on, and nothing tied to where it runs. Ship these across a
/// process boundary and any worker holding a candidate's true adjacency
/// can produce that candidate's exact estimate.
#[derive(Debug, Clone)]
pub struct BatchRound1 {
    /// The total per-vertex budget `ε` of the run.
    pub epsilon: f64,
    /// The randomized-response flip probability `1 / (1 + e^{ε₁})`.
    pub flip_probability: f64,
    /// The round-2 Laplace budget `ε₂`.
    pub eps2: PrivacyBudget,
    /// Base seed for the per-candidate streams: candidate `w` perturbs on
    /// `mix(base_seed, w)` ([`user_stream_seed`]), independent of every
    /// other candidate.
    pub base_seed: u64,
    /// The target's packed noisy row over the (global) opposite layer.
    pub noisy_target: NoisyNeighborsPacked,
}

/// The batch protocol's query validation, exactly as
/// [`BatchSingleSource::estimate_batch`] applies it: non-empty candidate
/// list, every pair `(target, wᵢ)` valid on `layer`, candidates distinct.
/// Layer sizes are the only graph state consulted, so any shard holding
/// the global layer sizes validates identically to the full graph.
///
/// # Errors
///
/// The first failing check, in input order — the same first error the
/// monolithic path returns.
pub fn validate_batch_query(
    g: &BipartiteGraph,
    layer: Layer,
    target: VertexId,
    candidates: &[VertexId],
) -> Result<()> {
    if candidates.is_empty() {
        return Err(CneError::InvalidParameter {
            name: "candidates",
            reason: "the candidate list must not be empty".into(),
        });
    }
    for &w in candidates {
        common_neighbors::check_query_pair(g, layer, target, w)?;
    }
    // Duplicates are rejected rather than silently re-estimated: the
    // round-2 releases compose in parallel only because the candidates'
    // neighbor lists are disjoint datasets, which a repeated vertex
    // violates — and per-user streams (seed + vertex id) would hand the
    // duplicate the identical Laplace draw, not an independent one.
    // (One sorted copy per call — per-call setup, not per-candidate.)
    let mut seen = candidates.to_vec();
    seen.sort_unstable();
    if seen.windows(2).any(|w| w[0] == w[1]) {
        return Err(CneError::InvalidParameter {
            name: "candidates",
            reason: "candidate vertices must be distinct".into(),
        });
    }
    Ok(())
}

/// Round 2 of the batch protocol for a **slice** of the candidate list:
/// each candidate intersects its own true adjacency with the shipped noisy
/// row and releases its estimator under Laplace noise drawn from its keyed
/// stream. Estimates depend only on `round1` and the candidate's adjacency
/// — never on which other candidates share the slice — so evaluating a
/// partition of the candidate list slice-by-slice (on different workers,
/// in any order) and concatenating preserves byte-identity with the
/// monolithic run.
///
/// Compute is fanned out across cores: the target's noisy row is already
/// bit-packed, dense candidates reuse the environment's cached bitmaps (or
/// each worker's scratch word buffer when there is no cache), and each
/// candidate perturbs on its own `mix(base_seed, w)` stream, so the output
/// is identical at any thread count — and the loop performs zero heap
/// allocations per candidate after warmup.
///
/// # Errors
///
/// An invalid Laplace configuration (degenerate flip probability) — the
/// artifacts of a successful [`BatchSingleSource::round1_in`] never
/// produce one.
pub fn batch_round2(
    env: ProtocolEnv<'_>,
    layer: Layer,
    candidates: &[VertexId],
    round1: &BatchRound1,
) -> Result<Vec<BatchEstimate>> {
    let laplace = single_source_laplace(round1.flip_probability, round1.eps2)?;
    let packed_target = round1.noisy_target.set();
    let p = round1.flip_probability;
    let base_seed = round1.base_seed;
    Ok(candidates
        .par_iter()
        .map(|&w| {
            let mut stream = RoundContext::user_rng(base_seed, w);
            let raw = with_shard_scratch(|scratch| {
                single_source_value_scratch(env, layer, w, packed_target, p, scratch)
            });
            BatchEstimate {
                candidate: w,
                estimate: laplace.perturb(raw, &mut stream),
            }
        })
        .collect())
}

/// Replays round 1's accounting — one sequential `ε₁` charge, one noisy-row
/// upload record — exactly as `randomized_response_round_packed` records
/// it for a single-vertex round. Generation itself touches only the RNG, never the
/// ledger, so charge-then-record reproduces the monolithic context state
/// bit for bit.
fn replay_round1_accounting(
    ctx: &mut RoundContext<'_>,
    eps1: PrivacyBudget,
    noisy_target: &NoisyNeighborsPacked,
) -> Result<()> {
    ctx.charge(
        Label::Indexed("round", 1, ":rr"),
        eps1,
        Composition::Sequential,
    )?;
    ctx.record(
        1,
        ldp::transcript::Direction::Upload,
        Label::Indexed("noisy-edges(v", 0, ")"),
        noisy_target.message_bytes(),
    );
    Ok(())
}

/// The shared round-2 bookkeeping of every batch path (monolithic,
/// fused multi-target, and the cluster coordinator's reassembly): per
/// candidate, one noisy-row download record, one `ε₂` Laplace charge —
/// sequential for the first candidate, parallel composition for the rest
/// (disjoint neighbor lists) — and one scalar estimator upload.
fn replay_round2_accounting(
    ctx: &mut RoundContext<'_>,
    noisy_target: &NoisyNeighborsPacked,
    eps2: PrivacyBudget,
    k: usize,
) -> Result<()> {
    for i in 0..k {
        ctx.record_download_packed(2, "noisy-edges(target) -> candidate", noisy_target);
        let composition = if i == 0 {
            Composition::Sequential
        } else {
            Composition::Parallel
        };
        ctx.charge(
            Label::Indexed("round2:laplace(f_w", i as u32, ")"),
            eps2,
            composition,
        )?;
        ctx.record_scalar_upload(2, "estimator(f_w)");
    }
    Ok(())
}

/// Candidates processed per chunk of the fused multi-target round 2: large
/// enough to amortize one batched stream-seed pass and one keyed Laplace
/// pass per target, small enough that a chunk's staging stays L1-resident.
const ROUND2_CHUNK: usize = 32;

/// Per-target round-1 state staged for the fused candidate-major round 2.
struct TargetShard {
    target: VertexId,
    flip_probability: f64,
    laplace: LaplaceMechanism,
    base_seed: u64,
    eps2: PrivacyBudget,
    noisy: NoisyNeighborsPacked,
}

impl BatchSingleSource {
    /// Sharded batch estimation across many targets with a **fused,
    /// candidate-major round 2**, byte-identical to running
    /// [`BatchSingleSource::estimate_batch_in`] per target on the stream
    /// `RoundContext::user_rng(seed, t)` — the contract
    /// [`crate::engine::EstimationEngine::estimate_many_targets`] documents.
    ///
    /// The per-target reference walks the candidate list once per target,
    /// re-streaming every candidate's packed adjacency (~`universe/8`
    /// bytes) from memory `T` times. This path inverts the loop nest:
    /// round 1 runs per target exactly as before (in target order, on the
    /// target's own stream), then one parallel pass walks the candidates in
    /// fixed chunks and intersects each candidate's adjacency — loaded
    /// once, hot in cache — against **all** `T` noisy target rows. Per
    /// chunk and target, the `mix(base, candidate)` stream seeds are
    /// precomputed in a block, the generator states are batch-initialized
    /// ([`StdRng::seed_batch_from_u64`]), and one keyed Laplace draw per
    /// stream is applied in bulk ([`sample_laplace_each`]) — amortizing
    /// per-user RNG setup that the reference pays per candidate.
    ///
    /// Bit-identity holds because every `(target, candidate)` estimate
    /// depends only on its own independently keyed stream and on inputs
    /// (`noisy row`, `flip probability`, Laplace scale) fixed in round 1;
    /// neither loop order nor chunking touches any draw. Accounting replays
    /// sequentially per target, in the reference order.
    ///
    /// # Errors
    ///
    /// Per-shard validation and protocol errors, reported for the earliest
    /// failing target — the same first error the per-target reference
    /// returns.
    pub(crate) fn estimate_many_in(
        &self,
        env: ProtocolEnv<'_>,
        layer: Layer,
        targets: &[VertexId],
        candidates: &[VertexId],
        epsilon: f64,
        seed: u64,
    ) -> Result<Vec<BatchReport>> {
        let g = env.graph;
        // Round 1 + validation per target, in target order (so the first
        // error matches the sequential reference). Each target's context
        // wraps its own `mix(seed, target)` stream.
        let mut rngs: Vec<StdRng> = targets
            .iter()
            .map(|&t| RoundContext::user_rng(seed, t))
            .collect();
        let mut shards: Vec<TargetShard> = Vec::with_capacity(targets.len());
        let mut ctxs: Vec<RoundContext<'_>> = Vec::with_capacity(targets.len());
        for (&target, rng) in targets.iter().zip(rngs.iter_mut()) {
            // The shard's candidate list is `candidates` minus the target;
            // validate exactly as `estimate_batch_impl` validates it.
            if !candidates.iter().any(|&w| w != target) {
                return Err(CneError::InvalidParameter {
                    name: "candidates",
                    reason: "the candidate list must not be empty".into(),
                });
            }
            for &w in candidates {
                if w != target {
                    common_neighbors::check_query_pair(g, layer, target, w)?;
                }
            }
            let mut seen: Vec<VertexId> = candidates
                .iter()
                .copied()
                .filter(|&w| w != target)
                .collect();
            seen.sort_unstable();
            if seen.windows(2).any(|w| w[0] == w[1]) {
                return Err(CneError::InvalidParameter {
                    name: "candidates",
                    reason: "candidate vertices must be distinct".into(),
                });
            }
            let mut ctx = RoundContext::begin(epsilon, rng)?;
            let (eps1, eps2) = ctx.total().split_fraction(self.epsilon1_fraction)?;
            let round1 =
                randomized_response_round_packed(env, layer, &[target], eps1, 1, &mut ctx)?;
            let flip_probability = round1.flip_probability;
            let noisy = round1.noisy.into_iter().next().expect("one list requested");
            let laplace = single_source_laplace(flip_probability, eps2)?;
            let base_seed = ctx.next_stream_base();
            shards.push(TargetShard {
                target,
                flip_probability,
                laplace,
                base_seed,
                eps2,
                noisy,
            });
            ctxs.push(ctx);
        }

        // Fused round 2: one parallel pass over candidate chunks. Chunk
        // results are dense `targets × chunk` value blocks; slots where the
        // candidate equals the target are dead weight dropped at assembly
        // (their streams are independent of every live one).
        let chunk_count = candidates.len().div_ceil(ROUND2_CHUNK);
        let shards_ref = &shards;
        let rows: Vec<&PackedSet> = shards.iter().map(|s| s.noisy.set()).collect();
        let flips: Vec<f64> = shards.iter().map(|s| s.flip_probability).collect();
        let (rows_ref, flips_ref) = (&rows, &flips);
        let chunk_values: Vec<Vec<f64>> = (0..chunk_count)
            .into_par_iter()
            .map(|ci| {
                let start = ci * ROUND2_CHUNK;
                let chunk = &candidates[start..candidates.len().min(start + ROUND2_CHUNK)];
                let mut values = vec![0.0f64; chunk.len() * shards_ref.len()];
                with_shard_scratch(|scratch| {
                    // Candidate-major raw pass: each candidate's adjacency
                    // is resolved once and counted against target rows in
                    // groups of four while it is cache-hot (the multi-row
                    // kernel tiles the candidate bitmap through L1).
                    for (i, &w) in chunk.iter().enumerate() {
                        let mut counts = [0u64; 4];
                        let mut vals = [0.0f64; 4];
                        for (g, (rows4, flips4)) in
                            rows_ref.chunks(4).zip(flips_ref.chunks(4)).enumerate()
                        {
                            let n = rows4.len();
                            single_source_value_multi(
                                env,
                                layer,
                                w,
                                rows4,
                                flips4,
                                scratch,
                                &mut counts[..n],
                                &mut vals[..n],
                            );
                            for (k, &v) in vals[..n].iter().enumerate() {
                                values[(g * 4 + k) * chunk.len() + i] = v;
                            }
                        }
                    }
                    // Per-target noise pass: block-compute the stream
                    // seeds, batch-seed the generators, and draw one keyed
                    // Laplace sample per stream.
                    for (ti, shard) in shards_ref.iter().enumerate() {
                        let (seeds, streams, noise) = scratch.round2_buffers();
                        seeds.clear();
                        seeds.extend(
                            chunk
                                .iter()
                                .map(|&w| user_stream_seed(shard.base_seed, u64::from(w))),
                        );
                        StdRng::seed_batch_from_u64(seeds, streams);
                        noise.clear();
                        noise.resize(chunk.len(), 0.0);
                        sample_laplace_each(shard.laplace.scale(), streams, noise);
                        let row = &mut values[ti * chunk.len()..(ti + 1) * chunk.len()];
                        for (slot, &n) in row.iter_mut().zip(noise.iter()) {
                            *slot += n;
                        }
                    }
                });
                values
            })
            .collect();

        // Assembly + sequential accounting per target, in the reference
        // order (shard order = candidate order minus the target).
        let mut reports = Vec::with_capacity(targets.len());
        for (ti, (shard, mut ctx)) in shards.iter().zip(ctxs).enumerate() {
            let mut estimates = Vec::with_capacity(candidates.len());
            for (ci, values) in chunk_values.iter().enumerate() {
                let start = ci * ROUND2_CHUNK;
                let chunk = &candidates[start..candidates.len().min(start + ROUND2_CHUNK)];
                for (i, &w) in chunk.iter().enumerate() {
                    if w != shard.target {
                        estimates.push(BatchEstimate {
                            candidate: w,
                            estimate: values[ti * chunk.len() + i],
                        });
                    }
                }
            }
            replay_round2_accounting(&mut ctx, &shard.noisy, shard.eps2, estimates.len())?;
            let (budget, transcript) = ctx.finish();
            reports.push(BatchReport {
                target: shard.target,
                layer,
                estimates,
                epsilon,
                budget,
                transcript,
            });
        }
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Target u0 shares 8, 4, and 0 items with candidates u1, u2, u3.
    fn graph() -> BipartiteGraph {
        let edges = (0..10u32)
            .map(|v| (0u32, v))
            .chain((2..12u32).map(|v| (1u32, v)))
            .chain((6..16u32).map(|v| (2u32, v)))
            .chain((50..60u32).map(|v| (3u32, v)));
        BipartiteGraph::from_edges(4, 400, edges).unwrap()
    }

    #[test]
    fn batch_estimates_are_unbiased_per_candidate() {
        let g = graph();
        let algo = BatchSingleSource::default();
        let mut rng = StdRng::seed_from_u64(3);
        let runs = 400;
        let mut sums = [0.0f64; 3];
        for _ in 0..runs {
            let report = algo
                .estimate_batch(&g, Layer::Upper, 0, &[1, 2, 3], 2.0, &mut rng)
                .unwrap();
            for (i, est) in report.estimates.iter().enumerate() {
                sums[i] += est.estimate;
            }
        }
        let truths = [8.0, 4.0, 0.0];
        for i in 0..3 {
            let mean = sums[i] / runs as f64;
            assert!(
                (mean - truths[i]).abs() < 0.6,
                "candidate {i}: mean {mean} vs truth {}",
                truths[i]
            );
        }
    }

    #[test]
    fn per_vertex_budget_is_epsilon_not_k_epsilon() {
        let g = graph();
        let algo = BatchSingleSource::default();
        let mut rng = StdRng::seed_from_u64(5);
        let report = algo
            .estimate_batch(&g, Layer::Upper, 0, &[1, 2, 3], 2.0, &mut rng)
            .unwrap();
        // One sequential RR charge + one sequential Laplace charge; the other
        // candidates' Laplace charges are parallel, so total consumption is ε.
        assert!((report.budget.consumed() - 2.0).abs() < 1e-9);
        assert_eq!(report.estimates.len(), 3);
    }

    #[test]
    fn ranking_orders_by_estimate() {
        let g = graph();
        let algo = BatchSingleSource::default();
        let mut rng = StdRng::seed_from_u64(9);
        // Use a generous budget so the ranking matches the ground truth.
        let report = algo
            .estimate_batch(&g, Layer::Upper, 0, &[3, 2, 1], 8.0, &mut rng)
            .unwrap();
        let ranked = report.ranked();
        assert_eq!(ranked.len(), 3);
        assert!(ranked[0].estimate >= ranked[1].estimate);
        assert!(ranked[1].estimate >= ranked[2].estimate);
        assert_eq!(ranked[0].candidate, 1, "u1 shares the most items with u0");
    }

    #[test]
    fn ranking_is_total_and_does_not_panic_on_nan() {
        use ldp::budget::PrivacyBudget;
        let report = BatchReport {
            target: 0,
            layer: Layer::Upper,
            estimates: vec![
                BatchEstimate {
                    candidate: 1,
                    estimate: 2.5,
                },
                BatchEstimate {
                    candidate: 2,
                    estimate: f64::NAN,
                },
                BatchEstimate {
                    candidate: 3,
                    estimate: 7.0,
                },
            ],
            epsilon: 1.0,
            budget: BudgetAccountant::new(PrivacyBudget::new(1.0).unwrap()),
            transcript: Transcript::new(),
        };
        let ranked = report.ranked();
        assert_eq!(ranked.len(), 3);
        // Finite values keep their order; the NaN is demoted to last instead
        // of panicking the sort or surfacing as the winner.
        let order: Vec<u32> = ranked.iter().map(|e| e.candidate).collect();
        assert_eq!(order, vec![3, 1, 2]);
        assert!(ranked[2].estimate.is_nan());
    }

    #[test]
    fn transcript_scales_with_candidates_but_uploads_target_once() {
        let g = graph();
        let algo = BatchSingleSource::default();
        let mut rng = StdRng::seed_from_u64(7);
        let small = algo
            .estimate_batch_detailed(&g, Layer::Upper, 0, &[1], 2.0, &mut rng)
            .unwrap();
        let large = algo
            .estimate_batch_detailed(&g, Layer::Upper, 0, &[1, 2, 3], 2.0, &mut rng)
            .unwrap();
        // Exactly one upload of the target's noisy edges in both runs.
        let uploads = |r: &BatchReport| {
            r.transcript
                .messages()
                .iter()
                .filter(|m| m.label.starts_with("noisy-edges(v"))
                .count()
        };
        assert_eq!(uploads(&small), 1);
        assert_eq!(uploads(&large), 1);
        assert!(large.communication_bytes() > small.communication_bytes());
    }

    #[test]
    fn invalid_inputs_rejected() {
        let g = graph();
        let algo = BatchSingleSource::default();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(algo
            .estimate_batch(&g, Layer::Upper, 0, &[], 2.0, &mut rng)
            .is_err());
        assert!(algo
            .estimate_batch(&g, Layer::Upper, 0, &[0], 2.0, &mut rng)
            .is_err());
        assert!(algo
            .estimate_batch(&g, Layer::Upper, 0, &[99], 2.0, &mut rng)
            .is_err());
        assert!(algo
            .estimate_batch(&g, Layer::Upper, 0, &[1], 0.0, &mut rng)
            .is_err());
        assert!(
            algo.estimate_batch(&g, Layer::Upper, 0, &[1, 2, 1], 2.0, &mut rng)
                .is_err(),
            "duplicate candidates must be rejected"
        );
    }

    #[test]
    fn batch_is_bit_identical_for_fixed_seed() {
        let g = graph();
        let algo = BatchSingleSource::default();
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            algo.estimate_batch(&g, Layer::Upper, 0, &[1, 2, 3], 2.0, &mut rng)
                .unwrap()
        };
        let a = run(77);
        let b = run(77);
        let bits = |r: &BatchReport| -> Vec<u64> {
            r.estimates.iter().map(|e| e.estimate.to_bits()).collect()
        };
        assert_eq!(bits(&a), bits(&b), "same seed must be byte-identical");
        let c = run(78);
        assert_ne!(bits(&a), bits(&c), "different seeds must differ");
    }

    #[test]
    fn candidate_streams_are_independent_of_batch_composition() {
        // A candidate's noise stream is keyed by (base seed, vertex id), so
        // its estimate must not change when other candidates join the batch.
        let g = graph();
        let algo = BatchSingleSource::default();
        let solo = algo
            .estimate_batch(
                &g,
                Layer::Upper,
                0,
                &[2],
                2.0,
                &mut StdRng::seed_from_u64(5),
            )
            .unwrap();
        let full = algo
            .estimate_batch(
                &g,
                Layer::Upper,
                0,
                &[1, 2, 3],
                2.0,
                &mut StdRng::seed_from_u64(5),
            )
            .unwrap();
        let solo_est = solo.estimates[0].estimate;
        let full_est = full
            .estimates
            .iter()
            .find(|e| e.candidate == 2)
            .unwrap()
            .estimate;
        assert_eq!(solo_est.to_bits(), full_est.to_bits());
    }

    #[test]
    fn split_phase_partition_matches_monolithic_byte_for_byte() {
        let g = graph();
        let algo = BatchSingleSource::default();
        let candidates = [1u32, 2, 3];
        let reference = algo
            .estimate_batch(
                &g,
                Layer::Upper,
                0,
                &candidates,
                2.0,
                &mut StdRng::seed_from_u64(11),
            )
            .unwrap();
        // Every partition of the candidate list must reassemble to the
        // identical report: estimates, budget ledger, and transcript.
        let env = ProtocolEnv::uncached(&g);
        for split in [
            &[&[1u32, 2, 3][..]][..],
            &[&[1], &[2, 3]],
            &[&[1], &[2], &[3]],
        ] {
            let mut rng = StdRng::seed_from_u64(11);
            let round1 = algo
                .round1_in(env, Layer::Upper, 0, &candidates, 2.0, &mut rng)
                .unwrap();
            let mut estimates = Vec::new();
            for slice in split {
                estimates.extend(batch_round2(env, Layer::Upper, slice, &round1).unwrap());
            }
            let assembled = algo
                .assemble_report(Layer::Upper, 0, &round1, estimates)
                .unwrap();
            let bits = |r: &BatchReport| -> Vec<u64> {
                r.estimates.iter().map(|e| e.estimate.to_bits()).collect()
            };
            assert_eq!(bits(&assembled), bits(&reference));
            assert_eq!(assembled.budget, reference.budget);
            assert_eq!(assembled.transcript, reference.transcript);
            assert_eq!(
                assembled.budget.consumed().to_bits(),
                reference.budget.consumed().to_bits()
            );
            assert_eq!(
                serde_json::to_string(&assembled).unwrap(),
                serde_json::to_string(&reference).unwrap()
            );
        }
    }

    #[test]
    fn round1_artifacts_survive_a_wire_round_trip() {
        // Ship only what the wire protocol ships (row words + epsilons +
        // base seed), rebuild on the "far side", and the estimates and
        // report must still be byte-identical.
        use bigraph::bitset::PackedSet;
        use ldp::noisy_graph::NoisyNeighborsPacked;
        let g = graph();
        let algo = BatchSingleSource::default();
        let candidates = [1u32, 2, 3];
        let reference = algo
            .estimate_batch(
                &g,
                Layer::Upper,
                0,
                &candidates,
                2.0,
                &mut StdRng::seed_from_u64(23),
            )
            .unwrap();
        let env = ProtocolEnv::uncached(&g);
        let round1 = algo
            .round1_in(
                env,
                Layer::Upper,
                0,
                &candidates,
                2.0,
                &mut StdRng::seed_from_u64(23),
            )
            .unwrap();
        // Wire image: raw words + universe + scalar fields.
        let words = round1.noisy_target.set().as_words().to_vec();
        let universe = round1.noisy_target.set().universe();
        let rebuilt = BatchRound1 {
            epsilon: round1.epsilon,
            flip_probability: round1.flip_probability,
            eps2: round1.eps2,
            base_seed: round1.base_seed,
            noisy_target: NoisyNeighborsPacked::from_parts(
                0,
                Layer::Upper,
                round1.noisy_target.epsilon,
                PackedSet::from_words(words, universe),
            ),
        };
        let estimates = batch_round2(env, Layer::Upper, &candidates, &rebuilt).unwrap();
        let assembled = algo
            .assemble_report(Layer::Upper, 0, &rebuilt, estimates)
            .unwrap();
        assert_eq!(assembled.budget, reference.budget);
        assert_eq!(assembled.transcript, reference.transcript);
        for (a, b) in assembled.estimates.iter().zip(&reference.estimates) {
            assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        }
    }

    #[test]
    fn user_stream_seed_decorrelates_users() {
        let s = 42u64;
        let streams: Vec<u64> = (0..100).map(|v| user_stream_seed(s, v)).collect();
        let mut unique = streams.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), streams.len());
        assert_ne!(user_stream_seed(1, 0), user_stream_seed(2, 0));
    }

    #[test]
    fn serde_round_trip() {
        let g = graph();
        let mut rng = StdRng::seed_from_u64(21);
        let report = BatchSingleSource::default()
            .estimate_batch(&g, Layer::Upper, 0, &[1, 2], 2.0, &mut rng)
            .unwrap();
        let json = serde_json::to_string(&report).unwrap();
        let back: BatchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.estimates.len(), 2);
        assert_eq!(back.target, 0);
    }
}
