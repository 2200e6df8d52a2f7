//! Locally differentially private degree estimation.
//!
//! Degrees are the simplest graph statistic released under edge LDP: the
//! global sensitivity of a degree is 1 (one flipped bit in the neighbor list
//! changes it by one), so `deg + Lap(1/ε)` suffices. MultiR-DS uses this in
//! its first round; the helpers here are also useful on their own (degree
//! distributions are a standard LDP graph-analytics task) and are shared by
//! the `cne::similarity` estimators.

use crate::budget::PrivacyBudget;
use crate::laplace::LaplaceMechanism;
use crate::mechanism::Sensitivity;
use bigraph::{BipartiteGraph, Layer, VertexId};
use rand::Rng;

/// Releases the degree of one vertex under `ε`-edge LDP.
pub fn noisy_degree<R: Rng + ?Sized>(
    g: &BipartiteGraph,
    layer: Layer,
    vertex: VertexId,
    epsilon: PrivacyBudget,
    rng: &mut R,
) -> f64 {
    let mechanism = LaplaceMechanism::new(epsilon, Sensitivity::one());
    mechanism.perturb(g.degree(layer, vertex) as f64, rng)
}

/// Releases the degrees of every vertex on `layer`.
///
/// Each vertex perturbs only its own neighbor list, so the releases compose in
/// parallel and the whole vector satisfies `ε`-edge LDP.
pub fn noisy_degree_vector<R: Rng + ?Sized>(
    g: &BipartiteGraph,
    layer: Layer,
    epsilon: PrivacyBudget,
    rng: &mut R,
) -> Vec<f64> {
    let mechanism = LaplaceMechanism::new(epsilon, Sensitivity::one());
    (0..g.layer_size(layer) as VertexId)
        .map(|v| mechanism.perturb(g.degree(layer, v) as f64, &mut *rng))
        .collect()
}

/// The average of a noisy degree vector, clamped to be at least `floor`.
///
/// Averaging `n` independent `Lap(1/ε)` noises shrinks their standard
/// deviation by `√n`, so the layer average is far more accurate than any
/// individual degree — which is why MultiR-DS uses it to correct non-positive
/// per-vertex estimates.
#[must_use]
pub fn average_noisy_degree(noisy_degrees: &[f64], floor: f64) -> f64 {
    if noisy_degrees.is_empty() {
        return floor;
    }
    let avg = noisy_degrees.iter().sum::<f64>() / noisy_degrees.len() as f64;
    avg.max(floor)
}

/// A non-negative integer degree estimate obtained by post-processing a noisy
/// degree (rounding and clamping never hurt privacy).
#[must_use]
pub fn post_process_degree(noisy: f64, max_degree: usize) -> usize {
    if !noisy.is_finite() || noisy <= 0.0 {
        0
    } else {
        (noisy.round() as usize).min(max_degree)
    }
}

/// Estimates the degree histogram of `layer` under `ε`-edge LDP by rounding
/// the noisy degree vector. Bins above `max_degree` are clamped into the last
/// bin. The result is a crude but private summary suitable for choosing
/// experiment parameters without touching raw data.
pub fn noisy_degree_histogram<R: Rng + ?Sized>(
    g: &BipartiteGraph,
    layer: Layer,
    epsilon: PrivacyBudget,
    max_degree: usize,
    rng: &mut R,
) -> Vec<usize> {
    let mut hist = vec![0usize; max_degree + 1];
    for noisy in noisy_degree_vector(g, layer, epsilon, rng) {
        let d = post_process_degree(noisy, max_degree);
        hist[d] += 1;
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> BipartiteGraph {
        // upper degrees: 4, 2, 0
        BipartiteGraph::from_edges(3, 6, [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 5)]).unwrap()
    }

    #[test]
    fn noisy_degree_is_unbiased() {
        let g = toy();
        let eps = PrivacyBudget::new(1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let runs = 50_000;
        let mean: f64 = (0..runs)
            .map(|_| noisy_degree(&g, Layer::Upper, 0, eps, &mut rng))
            .sum::<f64>()
            / runs as f64;
        assert!((mean - 4.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn degree_vector_covers_layer() {
        let g = toy();
        let eps = PrivacyBudget::new(2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let v = noisy_degree_vector(&g, Layer::Upper, eps, &mut rng);
        assert_eq!(v.len(), 3);
        let l = noisy_degree_vector(&g, Layer::Lower, eps, &mut rng);
        assert_eq!(l.len(), 6);
    }

    #[test]
    fn average_noisy_degree_concentrates() {
        let g = toy();
        let eps = PrivacyBudget::new(0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        // True average upper degree = 2. With only 3 vertices the average is
        // noisy, so average over repeated releases to test concentration.
        let runs = 5_000;
        let mean: f64 = (0..runs)
            .map(|_| {
                let v = noisy_degree_vector(&g, Layer::Upper, eps, &mut rng);
                average_noisy_degree(&v, 0.0)
            })
            .sum::<f64>()
            / runs as f64;
        // Clamping negative averages at the floor introduces a small upward
        // bias on this tiny 3-vertex layer, so the tolerance is generous.
        assert!((mean - 2.0).abs() < 0.3, "mean {mean}");
    }

    #[test]
    fn average_floor_and_empty() {
        assert_eq!(average_noisy_degree(&[], 1.0), 1.0);
        assert_eq!(average_noisy_degree(&[-5.0, -3.0], 1.0), 1.0);
        assert!((average_noisy_degree(&[2.0, 4.0], 1.0) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn post_processing_clamps() {
        assert_eq!(post_process_degree(-3.2, 10), 0);
        assert_eq!(post_process_degree(f64::NAN, 10), 0);
        assert_eq!(post_process_degree(4.4, 10), 4);
        assert_eq!(post_process_degree(4.6, 10), 5);
        assert_eq!(post_process_degree(99.0, 10), 10);
    }

    #[test]
    fn histogram_sums_to_layer_size() {
        let g = toy();
        let eps = PrivacyBudget::new(2.0).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let hist = noisy_degree_histogram(&g, Layer::Upper, eps, 8, &mut rng);
        assert_eq!(hist.len(), 9);
        assert_eq!(hist.iter().sum::<usize>(), 3);
    }

    #[test]
    fn histogram_high_budget_recovers_truth() {
        let g = toy();
        let eps = PrivacyBudget::new(50.0).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let hist = noisy_degree_histogram(&g, Layer::Upper, eps, 6, &mut rng);
        assert_eq!(hist[4], 1);
        assert_eq!(hist[2], 1);
        assert_eq!(hist[0], 1);
    }
}
