//! Noisy neighbor rows produced by randomized response.
//!
//! The paper's algorithms never need the full noisy graph — only the noisy
//! neighbor rows of the one or two query vertices. A row has one form,
//! [`NoisyNeighborsPacked`]: the perturbed bits live directly in `u64`
//! words ([`bigraph::bitset::PackedSet`]), drawn by
//! [`RandomizedResponse::perturb_neighbor_list_packed`]. Every curator-side
//! use of a row is an intersection — a word-parallel popcount or a per-id
//! bit probe — so no id list is ever built. [`NoisyGraphViewPacked`]
//! bundles the rows of both query vertices so curator-side code can
//! intersect them.

use crate::budget::PrivacyBudget;
use crate::randomized_response::{PerturbScratch, RandomizedResponse};
use bigraph::bitset::{popcount_and, PackedSet};
use bigraph::{BipartiteGraph, Layer, VertexId};
use rand::Rng;

/// The noisy neighbor row of one vertex: the perturbed bits live directly
/// in `u64` words, produced without an id list.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyNeighborsPacked {
    /// The vertex whose list was perturbed.
    pub owner: VertexId,
    /// The layer the owner lives on.
    pub owner_layer: Layer,
    /// The privacy budget used for the perturbation.
    pub epsilon: f64,
    /// The perturbed row over the opposite layer.
    set: PackedSet,
}

impl NoisyNeighborsPacked {
    /// Applies randomized response to `owner`'s neighbor list in `g`,
    /// producing the noisy row directly in packed form.
    ///
    /// `true_packed`, when provided, must be the packed true adjacency of
    /// `owner` (e.g. from the estimation engine's cache): kept true bits
    /// are then OR-ed in word-wise. The output — and the RNG stream
    /// consumed — is identical either way.
    pub fn generate_with<R: Rng + ?Sized>(
        g: &BipartiteGraph,
        layer: Layer,
        owner: VertexId,
        epsilon: PrivacyBudget,
        rng: &mut R,
        scratch: &mut PerturbScratch,
        true_packed: Option<&PackedSet>,
    ) -> Self {
        let rr = RandomizedResponse::new(epsilon);
        let opposite_size = g.layer_size(layer.opposite());
        let set = rr.perturb_neighbor_list_packed(
            g.neighbors(layer, owner),
            true_packed,
            opposite_size,
            rng,
            scratch,
        );
        Self {
            owner,
            owner_layer: layer,
            epsilon: epsilon.value(),
            set,
        }
    }

    /// Reassembles a packed noisy row from its transported parts — the
    /// inverse of reading [`NoisyNeighborsPacked::set`],
    /// [`owner`](NoisyNeighborsPacked::owner) and
    /// [`epsilon`](NoisyNeighborsPacked::epsilon) off a row that crossed a
    /// process boundary (the cluster wire protocol ships the raw words).
    /// The caller asserts that `set` really is the output of a
    /// randomized-response round run with budget `epsilon`; accounting
    /// helpers ([`NoisyNeighborsPacked::message_bytes`],
    /// [`flip_probability`](NoisyNeighborsPacked::flip_probability)) then
    /// report exactly what they would have on the originating side.
    #[must_use]
    pub fn from_parts(owner: VertexId, owner_layer: Layer, epsilon: f64, set: PackedSet) -> Self {
        Self {
            owner,
            owner_layer,
            epsilon,
            set,
        }
    }

    /// The packed noisy row.
    #[must_use]
    pub fn set(&self) -> &PackedSet {
        &self.set
    }

    /// Number of vertices on the opposite layer.
    #[must_use]
    pub fn opposite_size(&self) -> usize {
        self.set.universe()
    }

    /// The noisy degree (number of set bits).
    #[must_use]
    pub fn degree(&self) -> usize {
        self.set.len()
    }

    /// Whether `v` is a noisy neighbor of the owner. `O(1)` bit probe.
    #[must_use]
    pub fn contains(&self, v: VertexId) -> bool {
        self.set.contains(v)
    }

    /// Bytes to transmit this row to the curator, counting 4 bytes per
    /// reported edge endpoint (the convention of the paper's
    /// communication-cost experiments: the client sends its noisy edges as
    /// an id list; packing is a curator-side representation).
    #[must_use]
    pub fn message_bytes(&self) -> usize {
        self.degree() * std::mem::size_of::<VertexId>()
    }

    /// The flip probability the row was generated with.
    #[must_use]
    pub fn flip_probability(&self) -> f64 {
        1.0 / (1.0 + self.epsilon.exp())
    }
}

/// The curator's view after collecting the noisy rows of both query
/// vertices, intersected word-parallel.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyGraphViewPacked {
    /// Packed noisy row of the first query vertex `u`.
    pub u: NoisyNeighborsPacked,
    /// Packed noisy row of the second query vertex `w`.
    pub w: NoisyNeighborsPacked,
}

impl NoisyGraphViewPacked {
    /// Bundles the two packed rows, checking basic consistency.
    ///
    /// # Panics
    ///
    /// Panics if the rows disagree on layer or opposite-layer size.
    #[must_use]
    pub fn new(u: NoisyNeighborsPacked, w: NoisyNeighborsPacked) -> Self {
        assert_eq!(
            u.owner_layer, w.owner_layer,
            "query vertices must share a layer"
        );
        assert_eq!(
            u.opposite_size(),
            w.opposite_size(),
            "noisy lists must cover the same opposite layer"
        );
        Self { u, w }
    }

    /// `N1`: the number of common neighbors of `u` and `w` in the noisy
    /// graph — one `AND` + popcount pass over the packed words.
    #[must_use]
    pub fn noisy_intersection_size(&self) -> u64 {
        popcount_and(self.u.set().as_words(), self.w.set().as_words())
    }

    /// `(N1, N2)`: the noisy intersection and union sizes in one popcount
    /// pass (the union is derived from the degrees).
    #[must_use]
    pub fn noisy_counts(&self) -> (u64, u64) {
        let intersection = self.noisy_intersection_size();
        let union = self.u.degree() as u64 + self.w.degree() as u64 - intersection;
        (intersection, union)
    }

    /// Number of vertices on the opposite layer (`n₁` when querying lower
    /// vertices, `n₂` when querying upper vertices).
    #[must_use]
    pub fn opposite_size(&self) -> usize {
        self.u.opposite_size()
    }

    /// Total bytes both clients sent to the curator for this view.
    #[must_use]
    pub fn message_bytes(&self) -> usize {
        self.u.message_bytes() + self.w.message_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    fn toy() -> BipartiteGraph {
        BipartiteGraph::from_edges(
            3,
            50,
            (0..20u32)
                .map(|v| (0, v))
                .chain((10..30u32).map(|v| (1, v))),
        )
        .unwrap()
    }

    fn row(
        owner: VertexId,
        layer: Layer,
        universe: usize,
        ids: &[VertexId],
    ) -> NoisyNeighborsPacked {
        NoisyNeighborsPacked::from_parts(owner, layer, 1.0, PackedSet::from_sorted(ids, universe))
    }

    #[test]
    fn generate_produces_in_range_row() {
        let g = toy();
        let mut rng = StdRng::seed_from_u64(1);
        let eps = PrivacyBudget::new(1.0).unwrap();
        let noisy = NoisyNeighborsPacked::generate_with(
            &g,
            Layer::Upper,
            0,
            eps,
            &mut rng,
            &mut PerturbScratch::new(),
            None,
        );
        assert_eq!(noisy.owner, 0);
        assert_eq!(noisy.owner_layer, Layer::Upper);
        assert_eq!(noisy.opposite_size(), 50);
        assert!(noisy
            .set()
            .to_sorted_ids()
            .iter()
            .all(|&v| (v as usize) < 50));
        assert_eq!(noisy.message_bytes(), noisy.degree() * 4);
        assert!((noisy.flip_probability() - 1.0 / (1.0 + 1.0f64.exp())).abs() < 1e-12);
    }

    #[test]
    fn packed_generation_matches_scalar_reference() {
        let g = toy();
        let eps = PrivacyBudget::new(1.0).unwrap();
        let rr = RandomizedResponse::new(eps);
        let mut scratch = PerturbScratch::new();
        for seed in [1u64, 9, 55] {
            let mut rng_oracle = StdRng::seed_from_u64(seed);
            let mut rng_packed = StdRng::seed_from_u64(seed);
            let ids = rr.perturb_neighbor_list_scalar_reference(
                g.neighbors(Layer::Upper, 0),
                50,
                &mut rng_oracle,
            );
            let packed = NoisyNeighborsPacked::generate_with(
                &g,
                Layer::Upper,
                0,
                eps,
                &mut rng_packed,
                &mut scratch,
                None,
            );
            assert_eq!(packed.owner, 0);
            assert_eq!(packed.opposite_size(), 50);
            assert_eq!(packed.degree(), ids.len());
            assert_eq!(packed.message_bytes(), ids.len() * 4);
            assert_eq!(packed.set().to_sorted_ids(), ids);
            for v in 0..50u32 {
                assert_eq!(packed.contains(v), ids.binary_search(&v).is_ok());
            }
            assert_eq!(rng_packed.next_u64(), rng_oracle.next_u64());
        }
    }

    #[test]
    fn packed_view_counts_match_scalar_reference() {
        let g = toy();
        let eps = PrivacyBudget::new(0.8).unwrap();
        let rr = RandomizedResponse::new(eps);
        let mut scratch = PerturbScratch::new();
        let mut rng_a = StdRng::seed_from_u64(4);
        let mut rng_b = StdRng::seed_from_u64(4);
        let ids_u =
            rr.perturb_neighbor_list_scalar_reference(g.neighbors(Layer::Upper, 0), 50, &mut rng_a);
        let ids_w =
            rr.perturb_neighbor_list_scalar_reference(g.neighbors(Layer::Upper, 1), 50, &mut rng_a);
        let mut generate = |v| {
            NoisyNeighborsPacked::generate_with(
                &g,
                Layer::Upper,
                v,
                eps,
                &mut rng_b,
                &mut scratch,
                None,
            )
        };
        let view = NoisyGraphViewPacked::new(generate(0), generate(1));
        let n1 = bigraph::common_neighbors::intersection_size(&ids_u, &ids_w);
        let n2 = (ids_u.len() + ids_w.len()) as u64 - n1;
        assert_eq!(view.noisy_intersection_size(), n1);
        assert_eq!(view.noisy_counts(), (n1, n2));
        assert_eq!(view.opposite_size(), 50);
        assert_eq!(view.message_bytes(), (ids_u.len() + ids_w.len()) * 4);
    }

    #[test]
    fn contains_agrees_with_ids() {
        let noisy = row(0, Layer::Upper, 10, &[1, 3, 7]);
        assert!(noisy.contains(3));
        assert!(!noisy.contains(2));
        assert!(
            !noisy.contains(10),
            "ids past the universe are never members"
        );
        assert_eq!(noisy.degree(), 3);
    }

    #[test]
    fn high_epsilon_reproduces_truth() {
        let g = toy();
        let mut rng = StdRng::seed_from_u64(5);
        let eps = PrivacyBudget::new(30.0).unwrap();
        let noisy = NoisyNeighborsPacked::generate_with(
            &g,
            Layer::Upper,
            1,
            eps,
            &mut rng,
            &mut PerturbScratch::new(),
            None,
        );
        assert_eq!(noisy.set().to_sorted_ids(), g.neighbors(Layer::Upper, 1));
    }

    #[test]
    fn view_intersection_and_union() {
        let view = NoisyGraphViewPacked::new(
            row(0, Layer::Upper, 10, &[1, 2, 3, 4]),
            row(1, Layer::Upper, 10, &[3, 4, 5]),
        );
        assert_eq!(view.noisy_intersection_size(), 2);
        assert_eq!(view.noisy_counts(), (2, 5));
        assert_eq!(view.opposite_size(), 10);
        assert_eq!(view.message_bytes(), (4 + 3) * 4);
    }

    #[test]
    #[should_panic(expected = "same opposite layer")]
    fn view_rejects_mismatched_sizes() {
        let _ =
            NoisyGraphViewPacked::new(row(0, Layer::Upper, 10, &[]), row(1, Layer::Upper, 20, &[]));
    }

    #[test]
    #[should_panic(expected = "share a layer")]
    fn view_rejects_mismatched_layers() {
        let _ =
            NoisyGraphViewPacked::new(row(0, Layer::Upper, 10, &[]), row(1, Layer::Lower, 10, &[]));
    }

    #[test]
    fn dense_rows_count_like_the_sorted_merge() {
        let n = 256usize;
        let a: Vec<u32> = (0..256).filter(|v| v % 3 != 0).collect();
        let b: Vec<u32> = (0..256).filter(|v| v % 2 == 0).collect();
        let merge = bigraph::common_neighbors::intersection_size(&a, &b);
        let view =
            NoisyGraphViewPacked::new(row(0, Layer::Upper, n, &a), row(1, Layer::Upper, n, &b));
        assert_eq!(view.noisy_intersection_size(), merge);
        let (n1, n2) = view.noisy_counts();
        assert_eq!(n1, merge);
        assert_eq!(n2, (a.len() + b.len()) as u64 - merge);
    }
}
