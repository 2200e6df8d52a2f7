//! The Laplace mechanism.
//!
//! Given a function `f` with global sensitivity `Δf` and a privacy budget `ε`,
//! releasing `f + Lap(Δf/ε)` satisfies ε-(edge) LDP. The sampler draws from
//! the Laplace distribution by inverse-CDF transform so the only dependency is
//! a uniform `rand::Rng`.

use crate::budget::PrivacyBudget;
use crate::mechanism::{Mechanism, Sensitivity};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// The Laplace mechanism for a fixed sensitivity and budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LaplaceMechanism {
    epsilon: f64,
    sensitivity: f64,
}

impl LaplaceMechanism {
    /// Creates a Laplace mechanism adding noise scaled to `Δf / ε`.
    #[must_use]
    pub fn new(epsilon: PrivacyBudget, sensitivity: Sensitivity) -> Self {
        Self {
            epsilon: epsilon.value(),
            sensitivity: sensitivity.value(),
        }
    }

    /// The scale parameter `b = Δf / ε` of the Laplace noise.
    #[must_use]
    pub fn scale(&self) -> f64 {
        self.sensitivity / self.epsilon
    }

    /// The privacy budget consumed per application.
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The global sensitivity the noise is calibrated to.
    #[must_use]
    pub fn sensitivity(&self) -> f64 {
        self.sensitivity
    }

    /// The variance of the added noise: `2b²`.
    #[must_use]
    pub fn noise_variance(&self) -> f64 {
        2.0 * self.scale() * self.scale()
    }

    /// Draws one sample of Laplace noise with scale `b` (mean zero).
    pub fn sample_noise<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        sample_laplace(self.scale(), rng)
    }

    /// Releases `value + Lap(Δf/ε)`.
    pub fn perturb<R: Rng + ?Sized>(&self, value: f64, rng: &mut R) -> f64 {
        value + self.sample_noise(rng)
    }
}

impl Mechanism<f64> for LaplaceMechanism {
    type Output = f64;

    fn apply<R: Rng + ?Sized>(&self, input: f64, rng: &mut R) -> f64 {
        self.perturb(input, rng)
    }

    fn epsilon(&self) -> f64 {
        self.epsilon
    }
}

/// Draws a sample from the zero-mean Laplace distribution with scale `b`
/// using the inverse-CDF transform: for `u ~ Uniform(-½, ½)`,
/// `x = −b · sign(u) · ln(1 − 2|u|)`.
pub fn sample_laplace<R: Rng + ?Sized>(scale: f64, rng: &mut R) -> f64 {
    // Uniform in (-0.5, 0.5); the endpoints have probability zero but we guard
    // against ln(0) anyway by resampling.
    loop {
        let u: f64 = rng.gen::<f64>() - 0.5;
        let magnitude = 1.0 - 2.0 * u.abs();
        if magnitude > 0.0 {
            return -scale * u.signum() * magnitude.ln();
        }
    }
}

/// Draws **one** Laplace sample with scale `b` from each stream in `rngs`,
/// writing into the matching slot of `out`.
///
/// Equivalent to `out[i] = sample_laplace(scale, &mut rngs[i])` — each
/// stream is advanced exactly as the scalar call advances it — but shaped
/// as one pass over a dense array of states so callers that key noise by
/// user (one independent stream per participant, seeded in bulk via
/// [`rand::rngs::StdRng::seed_batch_from_u64`]) can amortize setup and let
/// the draw/transform loops pipeline across streams.
///
/// # Panics
///
/// Panics if `rngs` and `out` have different lengths.
pub fn sample_laplace_each<R: Rng>(scale: f64, rngs: &mut [R], out: &mut [f64]) {
    assert_eq!(rngs.len(), out.len(), "one output slot per stream");
    for (rng, slot) in rngs.iter_mut().zip(out.iter_mut()) {
        *slot = sample_laplace(scale, rng);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mech(eps: f64, sens: f64) -> LaplaceMechanism {
        LaplaceMechanism::new(
            PrivacyBudget::new(eps).unwrap(),
            Sensitivity::new(sens).unwrap(),
        )
    }

    #[test]
    fn scale_and_variance() {
        let m = mech(2.0, 1.0);
        assert!((m.scale() - 0.5).abs() < 1e-15);
        assert!((m.noise_variance() - 0.5).abs() < 1e-15);
        assert_eq!(m.epsilon(), 2.0);
        assert_eq!(m.sensitivity(), 1.0);

        let m = mech(0.5, 3.0);
        assert!((m.scale() - 6.0).abs() < 1e-15);
        assert!((m.noise_variance() - 72.0).abs() < 1e-12);
    }

    #[test]
    fn noise_is_zero_mean_with_correct_variance() {
        let m = mech(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(99);
        let n = 400_000usize;
        let samples: Vec<f64> = (0..n).map(|_| m.sample_noise(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!(
            (var - m.noise_variance()).abs() < 0.1 * m.noise_variance(),
            "var {var} expected {}",
            m.noise_variance()
        );
    }

    #[test]
    fn perturb_shifts_by_noise() {
        let m = mech(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 100_000usize;
        let avg = (0..n).map(|_| m.perturb(42.0, &mut rng)).sum::<f64>() / n as f64;
        assert!((avg - 42.0).abs() < 0.05, "avg {avg}");
    }

    #[test]
    fn sample_laplace_median_is_zero() {
        let mut rng = StdRng::seed_from_u64(12);
        let n = 100_000usize;
        let negatives = (0..n)
            .filter(|_| sample_laplace(2.0, &mut rng) < 0.0)
            .count();
        let frac = negatives as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "negative fraction {frac}");
    }

    #[test]
    fn laplace_tail_probability() {
        // P(|X| > b·ln 2) = 1/2 for Laplace(b).
        let b = 1.5;
        let threshold = b * std::f64::consts::LN_2;
        let mut rng = StdRng::seed_from_u64(21);
        let n = 200_000usize;
        let exceed = (0..n)
            .filter(|_| sample_laplace(b, &mut rng).abs() > threshold)
            .count();
        let frac = exceed as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "tail fraction {frac}");
    }

    #[test]
    fn smaller_epsilon_means_more_noise() {
        assert!(mech(0.5, 1.0).noise_variance() > mech(2.0, 1.0).noise_variance());
    }

    #[test]
    fn mechanism_trait_dispatch() {
        let m = mech(1.0, 1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let out = Mechanism::<f64>::apply(&m, 10.0, &mut rng);
        assert!(out.is_finite());
        assert_eq!(Mechanism::<f64>::epsilon(&m), 1.0);
    }

    #[test]
    fn serde_round_trip() {
        let m = mech(1.5, 2.0);
        let json = serde_json::to_string(&m).unwrap();
        let back: LaplaceMechanism = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn keyed_sampler_matches_per_stream_scalar() {
        let seeds: Vec<u64> = (0..37u64).map(|i| i * 977 + 5).collect();
        let mut streams = Vec::new();
        StdRng::seed_batch_from_u64(&seeds, &mut streams);
        let mut out = vec![0.0f64; seeds.len()];
        sample_laplace_each(2.5, &mut streams, &mut out);
        for (i, &seed) in seeds.iter().enumerate() {
            let reference = sample_laplace(2.5, &mut StdRng::seed_from_u64(seed));
            assert_eq!(out[i].to_bits(), reference.to_bits(), "stream {i}");
        }
    }
}
