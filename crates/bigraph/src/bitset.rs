//! Bit-packed vertex sets with word-parallel (popcount) intersection.
//!
//! Randomized-response noisy neighbor lists are *dense*: a vertex with true
//! degree `d` in an opposite layer of size `n` reports `≈ d + p·n` noisy
//! neighbors, and at ε = 1 the flip probability `p ≈ 0.27` makes the noisy
//! list a constant fraction of the whole layer. Intersecting two such lists
//! with a sorted merge costs one branchy comparison per element; packing each
//! list into `⌈n/64⌉` machine words turns the same intersection into an
//! `AND` + `popcount` loop that processes 64 candidates per instruction.
//!
//! [`intersection_size_degree_aware_into`] picks the cheapest of the three
//! available strategies (sorted merge, one-sided membership probes into a
//! packed set, word-parallel popcount) from the operand densities; the `ldp`
//! crate's noisy-neighborhood views and the `cne` batch engine both route
//! their common-neighbor counts through it.
//!
//! # Kernel dispatch
//!
//! [`popcount_and`] and [`popcount`] are dispatching entry points: the first
//! call detects the CPU once and caches a kernel function pointer, so every
//! later call is one indirect jump with zero feature checks. Three kernel
//! tiers exist:
//!
//! * **avx2** — Harley–Seal carry-save accumulation on 256-bit vectors with
//!   a `vpshufb` nibble-table popcount (selected when AVX2 is available),
//! * **popcnt** — an unrolled loop over the hardware `popcnt` instruction
//!   (selected when only SSE4.2-era popcount is available),
//! * **portable** — the original scalar Harley–Seal kernel
//!   ([`popcount_and_portable`] / [`popcount_portable`]), selected on
//!   non-x86 targets and whenever `CNE_FORCE_PORTABLE_KERNELS=1` is set in
//!   the environment at first use.
//!
//! Every kernel returns the exact population count, so dispatch is
//! invisible to callers: results are bit-identical across tiers (asserted
//! by the adversarial-length equivalence tests below, and transitively by
//! the pinned end-to-end estimate fingerprints in `cne`). The active tier
//! is reported by [`active_popcount_kernel`] for bench headers and
//! diagnostics.

use crate::vertex::VertexId;
use std::sync::OnceLock;

/// A fixed-universe set of vertex ids packed into 64-bit words.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedSet {
    words: Vec<u64>,
    universe: usize,
    len: usize,
}

impl PackedSet {
    /// Packs a sorted, deduplicated, in-range id list over `0..universe`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `ids` is unsorted or contains an id `≥ universe`.
    #[must_use]
    pub fn from_sorted(ids: &[VertexId], universe: usize) -> Self {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        let mut words = vec![0u64; universe.div_ceil(64)];
        for &id in ids {
            debug_assert!(
                (id as usize) < universe,
                "id {id} out of universe {universe}"
            );
            words[id as usize / 64] |= 1u64 << (id as usize % 64);
        }
        Self {
            words,
            universe,
            len: ids.len(),
        }
    }

    /// Wraps an already-built word buffer as a set over `0..universe`,
    /// counting the population in one popcount pass. The entry point for
    /// kernels that produce bitmaps natively (e.g. the packed randomized-
    /// response perturbation in `ldp`), where a round-trip through a sorted
    /// id list would cost the very allocation the kernel exists to avoid.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != ⌈universe/64⌉` or if any bit beyond
    /// `universe` is set (the universe contract every kernel relies on).
    #[must_use]
    pub fn from_words(words: Vec<u64>, universe: usize) -> Self {
        assert_eq!(
            words.len(),
            universe.div_ceil(64),
            "word count must match the universe"
        );
        if !universe.is_multiple_of(64) {
            if let Some(&last) = words.last() {
                assert_eq!(
                    last >> (universe % 64),
                    0,
                    "bits beyond the universe must be clear"
                );
            }
        }
        let len = popcount(&words) as usize;
        Self {
            words,
            universe,
            len,
        }
    }

    /// The number of vertex slots this set ranges over.
    #[must_use]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The number of ids in the set.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The packed words (`⌈universe/64⌉` of them), for callers composing
    /// custom word-parallel kernels (e.g. [`popcount_and`] against a
    /// scratch-packed operand).
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Constant-time membership test.
    #[must_use]
    pub fn contains(&self, id: VertexId) -> bool {
        let idx = id as usize;
        idx < self.universe && self.words[idx / 64] & (1u64 << (idx % 64)) != 0
    }

    /// Word-parallel intersection size: `AND` + popcount over the packed
    /// words, evaluated by the runtime-dispatched [`popcount_and`] kernel.
    /// `O(universe / 64)` regardless of the operand densities.
    ///
    /// # Panics
    ///
    /// Panics if the two sets range over different universes.
    #[must_use]
    pub fn intersection_size(&self, other: &PackedSet) -> u64 {
        assert_eq!(
            self.universe, other.universe,
            "packed sets must share a universe"
        );
        popcount_and(&self.words, &other.words)
    }

    /// Intersection size against a sorted id list: one `O(1)` membership
    /// probe per element of `ids`. The cheap path when `ids` is much
    /// sparser than `universe / 64` words.
    #[must_use]
    pub fn intersection_size_sorted(&self, ids: &[VertexId]) -> u64 {
        ids.iter().filter(|&&id| self.contains(id)).count() as u64
    }

    /// Unpacks back to a sorted id list (mainly for tests and debugging).
    #[must_use]
    pub fn to_sorted_ids(&self) -> Vec<VertexId> {
        let mut out = Vec::with_capacity(self.len);
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push((w * 64 + b) as VertexId);
                bits &= bits - 1;
            }
        }
        out
    }
}

/// One carry-save-adder step: `a + b + c` as a (sum, carry) bit pair.
#[inline]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let partial = a ^ b;
    (partial ^ c, (a & b) | (partial & c))
}

/// The environment variable that pins dispatch to the portable kernels
/// (checked once, at first use): `CNE_FORCE_PORTABLE_KERNELS=1`.
pub const FORCE_PORTABLE_ENV: &str = "CNE_FORCE_PORTABLE_KERNELS";

/// The resolved popcount kernel family: one function pointer per entry
/// point, picked once at first use and cached for the process lifetime.
struct PopcountKernels {
    and: fn(&[u64], &[u64]) -> u64,
    plain: fn(&[u64]) -> u64,
    name: &'static str,
}

/// Selects the kernel tier. `force_portable` short-circuits feature
/// detection (the `CNE_FORCE_PORTABLE_KERNELS=1` escape hatch, split out so
/// tests can exercise the selection logic without mutating the process
/// environment).
fn select_popcount_kernels(force_portable: bool) -> PopcountKernels {
    #[cfg(target_arch = "x86_64")]
    {
        if !force_portable {
            if is_x86_feature_detected!("avx2") {
                return PopcountKernels {
                    and: x86::popcount_and_avx2_safe,
                    plain: x86::popcount_avx2_safe,
                    name: "avx2",
                };
            }
            if is_x86_feature_detected!("popcnt") {
                return PopcountKernels {
                    and: x86::popcount_and_popcnt_safe,
                    plain: x86::popcount_popcnt_safe,
                    name: "popcnt",
                };
            }
        }
    }
    let _ = force_portable;
    PopcountKernels {
        and: popcount_and_portable,
        plain: popcount_portable,
        name: "portable",
    }
}

/// The detect-once cache behind [`popcount_and`] and [`popcount`].
fn popcount_kernels() -> &'static PopcountKernels {
    static KERNELS: OnceLock<PopcountKernels> = OnceLock::new();
    KERNELS.get_or_init(|| {
        let force = std::env::var(FORCE_PORTABLE_ENV).is_ok_and(|v| v == "1");
        select_popcount_kernels(force)
    })
}

/// The name of the popcount kernel tier runtime dispatch selected:
/// `"avx2"`, `"popcnt"`, or `"portable"`. Intended for bench report
/// headers, so cross-machine ratio comparisons are interpretable.
#[must_use]
pub fn active_popcount_kernel() -> &'static str {
    popcount_kernels().name
}

/// `AND`-then-popcount over two word slices, runtime-dispatched to the
/// fastest kernel the CPU supports (see the module-level *Kernel dispatch*
/// section). All tiers return the exact count, so the choice never changes
/// results — only throughput.
///
/// The shared kernel behind [`PackedSet::intersection_size`] and the scratch
/// pack path; counts `min(a.len(), b.len())` word pairs.
#[must_use]
pub fn popcount_and(a: &[u64], b: &[u64]) -> u64 {
    // Truncate both slices to the common length up front so every kernel
    // sees index-aligned operands regardless of input lengths.
    let len = a.len().min(b.len());
    (popcount_kernels().and)(&a[..len], &b[..len])
}

/// The portable baseline for [`popcount_and`]: the Harley–Seal carry-save
/// kernel. Blocks of 16 word pairs are folded into ones/twos/fours/eights
/// counter planes with pure bit operations, so only one full `count_ones`
/// runs per 16 words (plus four at the end). On targets where `count_ones`
/// lowers to a ~13-op SWAR sequence this measures ~1.4× faster than the
/// straight per-word loop ([`popcount_and_scalar`]). No `unsafe`, counts
/// are exact, and the chunked shape keeps the bit-plane chains independent
/// for the out-of-order core.
///
/// Requires `a.len() == b.len()` only in the sense that extra words of the
/// longer slice are ignored (same min-length contract as the dispatcher).
#[must_use]
pub fn popcount_and_portable(a: &[u64], b: &[u64]) -> u64 {
    let len = a.len().min(b.len());
    let (a, b) = (&a[..len], &b[..len]);
    let a_chunks = a.chunks_exact(16);
    let b_chunks = b.chunks_exact(16);
    let a_rem = a_chunks.remainder();
    let b_rem = b_chunks.remainder();
    let mut total = 0u64;
    let (mut ones, mut twos, mut fours, mut eights) = (0u64, 0u64, 0u64, 0u64);
    for (ca, cb) in a_chunks.zip(b_chunks) {
        let w = |i: usize| ca[i] & cb[i];
        let (s, twos_a) = csa(ones, w(0), w(1));
        let (s, twos_b) = csa(s, w(2), w(3));
        ones = s;
        let (t, fours_a) = csa(twos, twos_a, twos_b);
        let (s, twos_a) = csa(ones, w(4), w(5));
        let (s, twos_b) = csa(s, w(6), w(7));
        ones = s;
        let (t, fours_b) = csa(t, twos_a, twos_b);
        twos = t;
        let (f, eights_a) = csa(fours, fours_a, fours_b);
        let (s, twos_a) = csa(ones, w(8), w(9));
        let (s, twos_b) = csa(s, w(10), w(11));
        ones = s;
        let (t, fours_a) = csa(twos, twos_a, twos_b);
        let (s, twos_a) = csa(ones, w(12), w(13));
        let (s, twos_b) = csa(s, w(14), w(15));
        ones = s;
        let (t, fours_b) = csa(t, twos_a, twos_b);
        twos = t;
        let (f, eights_b) = csa(f, fours_a, fours_b);
        fours = f;
        let (e, sixteens) = csa(eights, eights_a, eights_b);
        eights = e;
        total += u64::from(sixteens.count_ones());
    }
    let tail: u64 = a_rem
        .iter()
        .zip(b_rem)
        .map(|(x, y)| u64::from((x & y).count_ones()))
        .sum();
    16 * total
        + 8 * u64::from(eights.count_ones())
        + 4 * u64::from(fours.count_ones())
        + 2 * u64::from(twos.count_ones())
        + u64::from(ones.count_ones())
        + tail
}

/// The straight-line scalar reference for [`popcount_and`]: one
/// `AND` + `count_ones` per word, no unrolling.
///
/// Kept as the ground truth the unrolled kernel is tested against, and as
/// the comparison point for the popcount micro benchmark.
#[must_use]
pub fn popcount_and_scalar(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| u64::from((x & y).count_ones()))
        .sum()
}

/// Population count of one word slice, runtime-dispatched exactly like
/// [`popcount_and`]. Used by [`PackedSet::from_words`] (the packed
/// randomized-response entry point) and the engine's layer-density stats.
#[must_use]
pub fn popcount(a: &[u64]) -> u64 {
    (popcount_kernels().plain)(a)
}

/// The portable baseline for [`popcount`] (`Σ count_ones`).
#[must_use]
pub fn popcount_portable(a: &[u64]) -> u64 {
    a.iter().map(|x| u64::from(x.count_ones())).sum()
}

/// Hardware kernels, selected by [`select_popcount_kernels`] only after the
/// matching CPUID feature check succeeded.
///
/// The only `unsafe` in the crate: `#[target_feature]` functions and the
/// intrinsics they wrap. Safety rests on the dispatch contract — a kernel's
/// safe shim is placed in the process-wide table exclusively behind its
/// `is_x86_feature_detected!` check.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_loadu_si256,
        _mm256_or_si256, _mm256_sad_epu8, _mm256_set1_epi8, _mm256_setr_epi8, _mm256_setzero_si256,
        _mm256_shuffle_epi8, _mm256_srli_epi16, _mm256_storeu_si256, _mm256_xor_si256,
    };

    /// Per-byte popcount of a 256-bit vector via two `vpshufb` nibble
    /// lookups, horizontally folded into four 64-bit lane sums by
    /// `vpsadbw` (Muła's method).
    #[inline(always)]
    unsafe fn popcount_256(v: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
        let counts = _mm256_add_epi8(
            _mm256_shuffle_epi8(lookup, lo),
            _mm256_shuffle_epi8(lookup, hi),
        );
        _mm256_sad_epu8(counts, _mm256_setzero_si256())
    }

    /// Vector carry-save-adder step: `(h, l) = a + b + c` as bit planes.
    #[inline(always)]
    unsafe fn csa_256(a: __m256i, b: __m256i, c: __m256i) -> (__m256i, __m256i) {
        let u = _mm256_xor_si256(a, b);
        (
            _mm256_xor_si256(u, c),
            _mm256_or_si256(_mm256_and_si256(a, b), _mm256_and_si256(u, c)),
        )
    }

    /// Sums the four 64-bit lanes of an accumulator vector.
    #[inline(always)]
    unsafe fn hsum_epi64(v: __m256i) -> u64 {
        let mut lanes = [0u64; 4];
        _mm256_storeu_si256(lanes.as_mut_ptr().cast::<__m256i>(), v);
        lanes[0] + lanes[1] + lanes[2] + lanes[3]
    }

    /// Harley–Seal popcount on 256-bit vectors: 16 vectors (64 words) per
    /// block are CSA-folded so only one `popcount_256` runs per block; the
    /// residual bit planes and the scalar tail use hardware `popcnt`.
    ///
    /// `LOAD` produces the next vector (an `AND` of two streams for the
    /// intersection kernel, a single load for the plain one); generic so
    /// both entry points share the one carefully-checked accumulation loop.
    #[inline(always)]
    unsafe fn harley_seal_256<const AND: bool>(a: &[u64], b: &[u64]) -> u64 {
        debug_assert!(!AND || b.len() >= a.len());
        let n = a.len();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let load = |i: usize| {
            let va = _mm256_loadu_si256(ap.add(i).cast::<__m256i>());
            if AND {
                _mm256_and_si256(va, _mm256_loadu_si256(bp.add(i).cast::<__m256i>()))
            } else {
                va
            }
        };
        let mut acc = _mm256_setzero_si256();
        let mut ones = _mm256_setzero_si256();
        let mut twos = _mm256_setzero_si256();
        let mut fours = _mm256_setzero_si256();
        let mut eights = _mm256_setzero_si256();
        let mut i = 0usize;
        // 16 vectors x 4 words = 64 words per Harley-Seal block.
        while i + 64 <= n {
            let (s, twos_a) = csa_256(ones, load(i), load(i + 4));
            let (s, twos_b) = csa_256(s, load(i + 8), load(i + 12));
            ones = s;
            let (t, fours_a) = csa_256(twos, twos_a, twos_b);
            let (s, twos_a) = csa_256(ones, load(i + 16), load(i + 20));
            let (s, twos_b) = csa_256(s, load(i + 24), load(i + 28));
            ones = s;
            let (t, fours_b) = csa_256(t, twos_a, twos_b);
            twos = t;
            let (f, eights_a) = csa_256(fours, fours_a, fours_b);
            let (s, twos_a) = csa_256(ones, load(i + 32), load(i + 36));
            let (s, twos_b) = csa_256(s, load(i + 40), load(i + 44));
            ones = s;
            let (t, fours_a) = csa_256(twos, twos_a, twos_b);
            let (s, twos_a) = csa_256(ones, load(i + 48), load(i + 52));
            let (s, twos_b) = csa_256(s, load(i + 56), load(i + 60));
            ones = s;
            let (t, fours_b) = csa_256(t, twos_a, twos_b);
            twos = t;
            let (f, eights_b) = csa_256(f, fours_a, fours_b);
            fours = f;
            let (e, sixteens) = csa_256(eights, eights_a, eights_b);
            eights = e;
            acc = _mm256_add_epi64(acc, popcount_256(sixteens));
            i += 64;
        }
        let mut total = 16 * hsum_epi64(acc)
            + 8 * hsum_epi64(popcount_256(eights))
            + 4 * hsum_epi64(popcount_256(fours))
            + 2 * hsum_epi64(popcount_256(twos))
            + hsum_epi64(popcount_256(ones));
        while i < n {
            let w = if AND { a[i] & b[i] } else { a[i] };
            total += u64::from(w.count_ones());
            i += 1;
        }
        total
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    unsafe fn popcount_and_avx2(a: &[u64], b: &[u64]) -> u64 {
        harley_seal_256::<true>(a, b)
    }

    #[target_feature(enable = "avx2", enable = "popcnt")]
    unsafe fn popcount_avx2(a: &[u64]) -> u64 {
        harley_seal_256::<false>(a, &[])
    }

    /// Unrolled hardware-popcnt loop: four independent accumulators keep
    /// the `popcnt` dependency chains apart (the instruction's
    /// false output dependency on older cores serializes a single chain).
    #[target_feature(enable = "popcnt")]
    unsafe fn popcount_and_popcnt(a: &[u64], b: &[u64]) -> u64 {
        let mut acc = [0u64; 4];
        let ac = a.chunks_exact(4);
        let bc = b.chunks_exact(4);
        let (ar, br) = (ac.remainder(), bc.remainder());
        for (x, y) in ac.zip(bc) {
            acc[0] += u64::from((x[0] & y[0]).count_ones());
            acc[1] += u64::from((x[1] & y[1]).count_ones());
            acc[2] += u64::from((x[2] & y[2]).count_ones());
            acc[3] += u64::from((x[3] & y[3]).count_ones());
        }
        let tail: u64 = ar
            .iter()
            .zip(br)
            .map(|(x, y)| u64::from((x & y).count_ones()))
            .sum();
        acc[0] + acc[1] + acc[2] + acc[3] + tail
    }

    #[target_feature(enable = "popcnt")]
    unsafe fn popcount_popcnt(a: &[u64]) -> u64 {
        let mut acc = [0u64; 4];
        let ac = a.chunks_exact(4);
        let tail: u64 = ac
            .remainder()
            .iter()
            .map(|x| u64::from(x.count_ones()))
            .sum();
        for x in ac {
            acc[0] += u64::from(x[0].count_ones());
            acc[1] += u64::from(x[1].count_ones());
            acc[2] += u64::from(x[2].count_ones());
            acc[3] += u64::from(x[3].count_ones());
        }
        acc[0] + acc[1] + acc[2] + acc[3] + tail
    }

    // Safe fn-pointer shims: stored in the dispatch table only after the
    // matching `is_x86_feature_detected!` check succeeded, which is exactly
    // the safety contract of the `#[target_feature]` functions they call.
    pub(super) fn popcount_and_avx2_safe(a: &[u64], b: &[u64]) -> u64 {
        unsafe { popcount_and_avx2(a, b) }
    }
    pub(super) fn popcount_avx2_safe(a: &[u64]) -> u64 {
        unsafe { popcount_avx2(a) }
    }
    pub(super) fn popcount_and_popcnt_safe(a: &[u64], b: &[u64]) -> u64 {
        unsafe { popcount_and_popcnt(a, b) }
    }
    pub(super) fn popcount_popcnt_safe(a: &[u64]) -> u64 {
        unsafe { popcount_popcnt(a) }
    }
}

/// Sets bit `id` in a packed word buffer.
#[inline]
pub fn set_bit(words: &mut [u64], id: usize) {
    words[id / 64] |= 1u64 << (id % 64);
}

/// Clears bit `id` in a packed word buffer.
#[inline]
pub fn clear_bit(words: &mut [u64], id: usize) {
    words[id / 64] &= !(1u64 << (id % 64));
}

/// A reusable word buffer for pack-then-popcount intersections.
///
/// The uncached batch path packs a candidate's sorted id list into a fresh
/// `⌈universe/64⌉`-word bitmap on every call. Holding one `PackScratch` per
/// worker (see `cne::engine`'s scratch arena) re-zeroes the same buffer
/// instead, so the per-candidate loop performs zero heap allocations after
/// the first pack at each universe size.
#[derive(Debug, Clone, Default)]
pub struct PackScratch {
    words: Vec<u64>,
}

impl PackScratch {
    /// Creates an empty scratch (no buffer allocated yet).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Packs a sorted id list over `0..universe` into the scratch buffer,
    /// returning the packed words. Reuses (re-zeroing) the existing buffer
    /// whenever its capacity suffices.
    ///
    /// # Panics
    ///
    /// Panics (debug) under the same contract as
    /// [`PackedSet::from_sorted`]: `ids` sorted, strictly increasing, and
    /// in range.
    pub fn pack(&mut self, ids: &[VertexId], universe: usize) -> &[u64] {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids must be sorted");
        let words = universe.div_ceil(64);
        self.words.clear();
        self.words.resize(words, 0);
        for &id in ids {
            debug_assert!(
                (id as usize) < universe,
                "id {id} out of universe {universe}"
            );
            self.words[id as usize / 64] |= 1u64 << (id as usize % 64);
        }
        &self.words
    }
}

/// Words per tile of [`popcount_and_multi`]: 8 KiB of `a`, small enough to
/// stay L1-resident across all row passes of the tile.
const MULTI_TILE_WORDS: usize = 1024;

/// Counts `|a ∩ rowᵢ|` for several packed rows against one shared word
/// stream, writing one count per row into `out`.
///
/// Equal to `out[i] = popcount_and(a, rows[i])` for every row (including
/// the shorter-operand truncation), but computed tile-by-tile: an 8 KiB
/// tile of `a` is counted against every row before moving on, so `a` is
/// streamed from memory **once** instead of once per row — the memory-
/// bound case this exists for is one candidate adjacency intersected
/// against many noisy target rows. Each tile count goes through the same
/// runtime-dispatched kernel as [`popcount_and`]; counts are exact
/// integers, so tiling cannot change any result.
///
/// # Panics
///
/// Panics if `rows` and `out` have different lengths.
pub fn popcount_and_multi(a: &[u64], rows: &[&[u64]], out: &mut [u64]) {
    assert_eq!(rows.len(), out.len(), "one output count per row");
    out.fill(0);
    let mut start = 0usize;
    while start < a.len() {
        let end = (start + MULTI_TILE_WORDS).min(a.len());
        let tile = &a[start..end];
        for (slot, row) in out.iter_mut().zip(rows.iter()) {
            let row_tile = &row[start.min(row.len())..end.min(row.len())];
            *slot += popcount_and(tile, row_tile);
        }
        start = end;
    }
}

/// Degree-aware intersection: chooses the cheapest strategy for counting
/// `|a ∩ b|` given that a packed form of `b` is already available.
///
/// * `a` much sparser than one probe per packed word → membership probes,
/// * otherwise `a` is packed into `scratch` (no allocation once the buffer
///   has grown) and the two word slices are popcounted — `|a|` greater
///   than roughly twice the word count is the break-even point of one pack
///   pass plus the popcount loop versus per-element probes.
#[must_use]
pub fn intersection_size_degree_aware_into(
    a: &[VertexId],
    b_packed: &PackedSet,
    scratch: &mut PackScratch,
) -> u64 {
    let words = b_packed.universe().div_ceil(64);
    if a.len() <= 2 * words {
        b_packed.intersection_size_sorted(a)
    } else {
        popcount_and(scratch.pack(a, b_packed.universe()), &b_packed.words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common_neighbors::intersection_size;

    #[test]
    fn pack_and_unpack_round_trip() {
        let ids: Vec<VertexId> = vec![0, 1, 63, 64, 65, 127, 200];
        let packed = PackedSet::from_sorted(&ids, 256);
        assert_eq!(packed.len(), ids.len());
        assert_eq!(packed.universe(), 256);
        assert_eq!(packed.to_sorted_ids(), ids);
        for id in 0..256u32 {
            assert_eq!(packed.contains(id), ids.binary_search(&id).is_ok());
        }
    }

    #[test]
    fn popcount_intersection_matches_merge() {
        let a: Vec<VertexId> = (0..500).step_by(3).collect();
        let b: Vec<VertexId> = (0..500).step_by(5).collect();
        let pa = PackedSet::from_sorted(&a, 500);
        let pb = PackedSet::from_sorted(&b, 500);
        assert_eq!(pa.intersection_size(&pb), intersection_size(&a, &b));
        assert_eq!(pa.intersection_size(&pb), pb.intersection_size(&pa));
    }

    #[test]
    fn sorted_probe_intersection_matches_merge() {
        let sparse: Vec<VertexId> = vec![7, 90, 333, 499];
        let dense: Vec<VertexId> = (0..500).filter(|v| v % 2 == 1).collect();
        let packed = PackedSet::from_sorted(&dense, 500);
        assert_eq!(
            packed.intersection_size_sorted(&sparse),
            intersection_size(&sparse, &dense)
        );
    }

    #[test]
    fn degree_aware_matches_merge_on_both_branches() {
        let universe = 1000;
        let dense: Vec<VertexId> = (0..1000).filter(|v| v % 3 != 0).collect();
        let packed = PackedSet::from_sorted(&dense, universe);
        let mut scratch = PackScratch::new();
        // Sparse probe branch.
        let sparse: Vec<VertexId> = vec![1, 2, 3, 500, 999];
        assert_eq!(
            intersection_size_degree_aware_into(&sparse, &packed, &mut scratch),
            intersection_size(&sparse, &dense)
        );
        // Pack-and-popcount branch.
        let medium: Vec<VertexId> = (0..1000).step_by(2).collect();
        assert_eq!(
            intersection_size_degree_aware_into(&medium, &packed, &mut scratch),
            intersection_size(&medium, &dense)
        );
    }

    #[test]
    fn unrolled_popcount_matches_scalar_reference() {
        // Word counts straddling the 16-word Harley–Seal block boundary
        // (0..=9 exercises the pure-remainder path; 16..=40 covers one and
        // two blocks plus remainders).
        for words in (0..10usize).chain(16..41) {
            let a: Vec<u64> = (0..words as u64)
                .map(|w| w.wrapping_mul(0x9E37_79B9))
                .collect();
            let b: Vec<u64> = (0..words as u64)
                .map(|w| (w ^ 0x5555).wrapping_mul(0x0101_0101_0101_0101))
                .collect();
            assert_eq!(
                popcount_and(&a, &b),
                popcount_and_scalar(&a, &b),
                "{words} words"
            );
        }
        // Unequal lengths pair words by index over the common prefix
        // (min-length contract), never by misaligned remainders.
        let a = vec![u64::MAX; 20];
        let b: Vec<u64> = (0..36u64).map(|i| (1u64 << (i % 63)) - 1).collect();
        assert_eq!(popcount_and(&a, &b), popcount_and(&a, &b[..20]));
        assert_eq!(popcount_and(&a, &b), popcount_and_scalar(&a, &b));
    }

    #[test]
    fn degree_aware_scratch_reuse_matches_merge() {
        let universe = 777usize; // 13 words, remainder path exercised
        let dense: Vec<VertexId> = (0..777).filter(|v| v % 3 != 0).collect();
        let packed = PackedSet::from_sorted(&dense, universe);
        let mut scratch = PackScratch::new();
        for step in [2usize, 5, 7] {
            let a: Vec<VertexId> = (0..777).step_by(step).collect();
            assert_eq!(
                intersection_size_degree_aware_into(&a, &packed, &mut scratch),
                intersection_size(&a, &dense),
                "step {step}"
            );
        }
        // Sparse probe branch also agrees (scratch untouched there).
        let sparse: Vec<VertexId> = vec![3, 100, 776];
        assert_eq!(
            intersection_size_degree_aware_into(&sparse, &packed, &mut scratch),
            intersection_size(&sparse, &dense)
        );
        // Reuse across shrinking universes re-zeroes correctly.
        let small_dense: Vec<VertexId> = (0..100).collect();
        let small_packed = PackedSet::from_sorted(&small_dense, 100);
        let a: Vec<VertexId> = (0..100).step_by(2).collect();
        assert_eq!(
            intersection_size_degree_aware_into(&a, &small_packed, &mut scratch),
            50
        );
    }

    #[test]
    fn from_words_matches_from_sorted() {
        let ids: Vec<VertexId> = vec![0, 1, 63, 64, 65, 127, 200];
        let packed = PackedSet::from_sorted(&ids, 256);
        let rebuilt = PackedSet::from_words(packed.as_words().to_vec(), 256);
        assert_eq!(rebuilt, packed);
        assert_eq!(rebuilt.len(), ids.len());
        assert_eq!(rebuilt.to_sorted_ids(), ids);
        // Non-multiple-of-64 universe keeps its trailing-bit invariant.
        let small = PackedSet::from_sorted(&[0, 76], 77);
        let again = PackedSet::from_words(small.as_words().to_vec(), 77);
        assert_eq!(again.len(), 2);
        assert!(again.contains(76));
    }

    #[test]
    #[should_panic(expected = "beyond the universe")]
    fn from_words_rejects_out_of_universe_bits() {
        let _ = PackedSet::from_words(vec![1u64 << 40], 33);
    }

    #[test]
    #[should_panic(expected = "word count")]
    fn from_words_rejects_wrong_word_count() {
        let _ = PackedSet::from_words(vec![0u64; 3], 100);
    }

    #[test]
    fn bit_helpers_and_popcount() {
        let mut words = vec![0u64; 4];
        set_bit(&mut words, 0);
        set_bit(&mut words, 65);
        set_bit(&mut words, 255);
        assert_eq!(popcount(&words), 3);
        clear_bit(&mut words, 65);
        assert_eq!(popcount(&words), 2);
        assert_eq!(words[1], 0);
    }

    #[test]
    fn empty_sets() {
        let empty = PackedSet::from_sorted(&[], 100);
        assert!(empty.is_empty());
        assert_eq!(empty.len(), 0);
        let other = PackedSet::from_sorted(&[5, 50], 100);
        assert_eq!(empty.intersection_size(&other), 0);
        assert_eq!(other.intersection_size_sorted(&[]), 0);
        assert!(empty.to_sorted_ids().is_empty());
    }

    #[test]
    fn zero_universe() {
        let s = PackedSet::from_sorted(&[], 0);
        assert_eq!(s.universe(), 0);
        assert!(!s.contains(0));
    }

    #[test]
    #[should_panic(expected = "share a universe")]
    fn mismatched_universes_panic() {
        let a = PackedSet::from_sorted(&[1], 100);
        let b = PackedSet::from_sorted(&[1], 200);
        let _ = a.intersection_size(&b);
    }

    /// Deterministic word-pattern generator for the kernel equivalence
    /// tests: a SplitMix64-style stream keyed by (salt, index).
    fn pattern(salt: u64, i: u64) -> u64 {
        let mut z = salt
            .wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Dispatcher == Harley–Seal == scalar on adversarial word lengths:
    /// 0 and 1 (degenerate), 15/16/17 (the popcnt unroll and the scalar
    /// Harley–Seal block boundary), 63/64/65 (the AVX2 block boundary),
    /// and 4096 (many full blocks), over random, all-ones, and all-zeros
    /// planes.
    #[test]
    fn dispatched_kernels_match_portable_and_scalar() {
        for words in [0usize, 1, 15, 16, 17, 63, 64, 65, 4096] {
            let mut planes: Vec<(Vec<u64>, Vec<u64>)> = vec![
                (vec![u64::MAX; words], vec![u64::MAX; words]),
                (vec![0u64; words], vec![u64::MAX; words]),
                (vec![0u64; words], vec![0u64; words]),
            ];
            for salt in 0..4u64 {
                let a: Vec<u64> = (0..words as u64).map(|i| pattern(salt, i)).collect();
                let b: Vec<u64> = (0..words as u64)
                    .map(|i| pattern(salt ^ 0xDEAD, i))
                    .collect();
                planes.push((a, b));
            }
            for (a, b) in &planes {
                let reference = popcount_and_scalar(a, b);
                assert_eq!(popcount_and(a, b), reference, "dispatch, {words} words");
                assert_eq!(
                    popcount_and_portable(a, b),
                    reference,
                    "portable, {words} words"
                );
                let plain_ref: u64 = a.iter().map(|x| u64::from(x.count_ones())).sum();
                assert_eq!(popcount(a), plain_ref, "plain dispatch, {words} words");
                assert_eq!(
                    popcount_portable(a),
                    plain_ref,
                    "plain portable, {words} words"
                );
            }
        }
    }

    /// Tiled multi-row counting == per-row `popcount_and` on lengths that
    /// straddle the tile boundary (1023/1024/1025), with rows both shorter
    /// and longer than `a`, and with zero rows.
    #[test]
    fn popcount_and_multi_matches_per_row() {
        for words in [0usize, 1, 65, 1023, 1024, 1025, 3000] {
            let a: Vec<u64> = (0..words as u64).map(|i| pattern(21, i)).collect();
            let rows: Vec<Vec<u64>> = [words, words / 2, words + 200, 0]
                .iter()
                .enumerate()
                .map(|(r, &len)| {
                    (0..len as u64)
                        .map(|i| pattern(100 + r as u64, i))
                        .collect()
                })
                .collect();
            let row_refs: Vec<&[u64]> = rows.iter().map(Vec::as_slice).collect();
            let mut out = vec![u64::MAX; row_refs.len()];
            popcount_and_multi(&a, &row_refs, &mut out);
            for (r, row) in row_refs.iter().enumerate() {
                assert_eq!(out[r], popcount_and(&a, row), "{words} words, row {r}");
            }
            let mut empty: [u64; 0] = [];
            popcount_and_multi(&a, &[], &mut empty);
        }
    }

    /// All selectable kernel tiers agree with the scalar reference (the
    /// dispatch-table variant of the test above: exercises the hardware
    /// tiers even when the cached process-wide choice is pinned portable
    /// via `CNE_FORCE_PORTABLE_KERNELS`).
    #[test]
    fn every_selectable_tier_matches_scalar() {
        let forced = select_popcount_kernels(true);
        assert_eq!(forced.name, "portable");
        let detected = select_popcount_kernels(false);
        let a: Vec<u64> = (0..257u64).map(|i| pattern(7, i)).collect();
        let b: Vec<u64> = (0..257u64).map(|i| pattern(13, i)).collect();
        let reference = popcount_and_scalar(&a, &b);
        for k in [&forced, &detected] {
            assert_eq!((k.and)(&a, &b), reference, "tier {}", k.name);
            assert_eq!(
                (k.plain)(&a),
                a.iter().map(|x| u64::from(x.count_ones())).sum::<u64>(),
                "tier {}",
                k.name
            );
        }
        assert!(["avx2", "popcnt", "portable"].contains(&active_popcount_kernel()));
    }
}
