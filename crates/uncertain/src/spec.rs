//! Perturbation workload specifications.
//!
//! [`ErrorSpec`] describes *how a whole series is perturbed* — which error
//! family and σ applies at each timestamp. The paper's evaluation uses
//! three shapes:
//!
//! * a **constant** spec (one family, one σ) for the σ-sweep experiments
//!   (Figures 4–7, 11–12);
//! * a **mixed-σ** spec — "the error for 20% of the values has standard
//!   deviation 1, and the rest 80% has standard deviation 0.4" (Figure 8,
//!   and Figures 13–17 with each family);
//! * a **mixed-family** spec — "a mixture of uniform, normal, and
//!   exponential distributions" with the same 20/80 σ split (Figure 9).

use rand::seq::SliceRandom;
use rand::Rng;
use uts_stats::rng::Seed;

use crate::error_model::{ErrorFamily, PointError};

/// Description of a perturbation workload over a series of arbitrary
/// length. Realise it into per-point errors with [`ErrorSpec::realize`].
#[derive(Debug, Clone, PartialEq)]
pub enum ErrorSpec {
    /// Same family and σ at every timestamp.
    Constant {
        /// Error family.
        family: ErrorFamily,
        /// Standard deviation at every point.
        sigma: f64,
    },
    /// One family, two σ levels: a fraction `frac_high` of the points
    /// (chosen uniformly at random per series) gets `sigma_high`, the rest
    /// `sigma_low`. Paper §4.2.3 uses 20% at σ = 1.0, 80% at σ = 0.4.
    MixedSigma {
        /// Error family for all points.
        family: ErrorFamily,
        /// Fraction of points receiving `sigma_high` (in `[0, 1]`).
        frac_high: f64,
        /// σ for the high-noise points.
        sigma_high: f64,
        /// σ for the remaining points.
        sigma_low: f64,
    },
    /// Mixed families *and* two σ levels: each point draws its family
    /// uniformly from `families` and its σ level with probability
    /// `frac_high` (paper Figure 9).
    MixedFamily {
        /// Families to draw from (must be non-empty).
        families: Vec<ErrorFamily>,
        /// Fraction of points receiving `sigma_high`.
        frac_high: f64,
        /// σ for the high-noise points.
        sigma_high: f64,
        /// σ for the remaining points.
        sigma_low: f64,
    },
}

impl ErrorSpec {
    /// Constant-error spec (σ-sweep workloads).
    pub fn constant(family: ErrorFamily, sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma.is_finite(), "sigma must be positive");
        ErrorSpec::Constant { family, sigma }
    }

    /// The paper's §4.2.3 mixed-σ workload for one family:
    /// 20% of points at σ = 1.0, 80% at σ = 0.4.
    pub fn paper_mixed(family: ErrorFamily) -> Self {
        ErrorSpec::MixedSigma {
            family,
            frac_high: 0.2,
            sigma_high: 1.0,
            sigma_low: 0.4,
        }
    }

    /// The paper's Figure 9 workload: uniform+normal+exponential mixture
    /// with the 20%/80% σ split.
    pub fn paper_mixed_families() -> Self {
        ErrorSpec::MixedFamily {
            families: ErrorFamily::ALL.to_vec(),
            frac_high: 0.2,
            sigma_high: 1.0,
            sigma_low: 0.4,
        }
    }

    /// General mixed-σ constructor with validation.
    pub fn mixed_sigma(
        family: ErrorFamily,
        frac_high: f64,
        sigma_high: f64,
        sigma_low: f64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&frac_high),
            "frac_high must be in [0,1]"
        );
        assert!(
            sigma_high > 0.0 && sigma_low > 0.0,
            "sigmas must be positive"
        );
        ErrorSpec::MixedSigma {
            family,
            frac_high,
            sigma_high,
            sigma_low,
        }
    }

    /// Realises the spec into one [`PointError`] per timestamp,
    /// deterministically from `seed`.
    ///
    /// For the mixed-σ specs the number of high-σ points is exactly
    /// `round(frac_high · len)` (the paper states a fixed 20% share, not a
    /// per-point coin flip); their positions are a seeded random subset.
    pub fn realize(&self, len: usize, seed: Seed) -> Vec<PointError> {
        let mut rng = seed.derive("error-spec").rng();
        match self {
            ErrorSpec::Constant { family, sigma } => {
                vec![PointError::new(*family, *sigma); len]
            }
            ErrorSpec::MixedSigma {
                family,
                frac_high,
                sigma_high,
                sigma_low,
            } => {
                let highs = high_positions(len, *frac_high, &mut rng);
                (0..len)
                    .map(|i| {
                        let sigma = if highs[i] { *sigma_high } else { *sigma_low };
                        PointError::new(*family, sigma)
                    })
                    .collect()
            }
            ErrorSpec::MixedFamily {
                families,
                frac_high,
                sigma_high,
                sigma_low,
            } => {
                assert!(
                    !families.is_empty(),
                    "MixedFamily requires at least one family"
                );
                let highs = high_positions(len, *frac_high, &mut rng);
                (0..len)
                    .map(|i| {
                        let family = families[rng.gen_range(0..families.len())];
                        let sigma = if highs[i] { *sigma_high } else { *sigma_low };
                        PointError::new(family, sigma)
                    })
                    .collect()
            }
        }
    }

    /// Largest σ the spec can assign (used for conservative bounds).
    pub fn max_sigma(&self) -> f64 {
        match self {
            ErrorSpec::Constant { sigma, .. } => *sigma,
            ErrorSpec::MixedSigma {
                sigma_high,
                sigma_low,
                ..
            }
            | ErrorSpec::MixedFamily {
                sigma_high,
                sigma_low,
                ..
            } => sigma_high.max(*sigma_low),
        }
    }

    /// Mean σ over points in expectation (the "effective" noise level; the
    /// paper tells PROUD σ = 0.7 for the 20%·1.0 / 80%·0.4 mix, which is
    /// close to this average).
    pub fn expected_sigma(&self) -> f64 {
        match self {
            ErrorSpec::Constant { sigma, .. } => *sigma,
            ErrorSpec::MixedSigma {
                frac_high,
                sigma_high,
                sigma_low,
                ..
            }
            | ErrorSpec::MixedFamily {
                frac_high,
                sigma_high,
                sigma_low,
                ..
            } => frac_high * sigma_high + (1.0 - frac_high) * sigma_low,
        }
    }
}

/// Chooses exactly `round(frac · len)` high positions uniformly at random.
fn high_positions<R: Rng + ?Sized>(len: usize, frac: f64, rng: &mut R) -> Vec<bool> {
    let k = ((frac * len as f64).round() as usize).min(len);
    let mut idx: Vec<usize> = (0..len).collect();
    idx.shuffle(rng);
    let mut out = vec![false; len];
    for &i in &idx[..k] {
        out[i] = true;
    }
    out
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn constant_spec_is_uniform() {
        let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.5);
        let errs = spec.realize(10, Seed::new(1));
        assert_eq!(errs.len(), 10);
        assert!(errs
            .iter()
            .all(|e| e.sigma == 0.5 && e.family == ErrorFamily::Normal));
    }

    #[test]
    fn mixed_sigma_has_exact_share() {
        let spec = ErrorSpec::paper_mixed(ErrorFamily::Uniform);
        let errs = spec.realize(100, Seed::new(2));
        let high = errs.iter().filter(|e| e.sigma == 1.0).count();
        let low = errs.iter().filter(|e| e.sigma == 0.4).count();
        assert_eq!(high, 20);
        assert_eq!(low, 80);
        assert!(errs.iter().all(|e| e.family == ErrorFamily::Uniform));
    }

    #[test]
    fn mixed_share_rounds() {
        let spec = ErrorSpec::mixed_sigma(ErrorFamily::Normal, 0.2, 1.0, 0.4);
        // len = 7 → round(1.4) = 1 high point.
        let errs = spec.realize(7, Seed::new(3));
        assert_eq!(errs.iter().filter(|e| e.sigma == 1.0).count(), 1);
    }

    #[test]
    fn mixed_family_draws_all_families() {
        let spec = ErrorSpec::paper_mixed_families();
        let errs = spec.realize(600, Seed::new(4));
        for family in ErrorFamily::ALL {
            let count = errs.iter().filter(|e| e.family == family).count();
            // Uniform draw over 3 families: expect ~200, allow wide slack.
            assert!(count > 120 && count < 280, "{family}: {count}");
        }
    }

    #[test]
    fn realization_is_deterministic() {
        let spec = ErrorSpec::paper_mixed(ErrorFamily::Exponential);
        let a = spec.realize(50, Seed::new(9));
        let b = spec.realize(50, Seed::new(9));
        assert_eq!(a, b);
        let c = spec.realize(50, Seed::new(10));
        assert_ne!(a, c);
    }

    #[test]
    fn summary_statistics() {
        let spec = ErrorSpec::paper_mixed(ErrorFamily::Normal);
        assert!((spec.expected_sigma() - 0.52).abs() < 1e-12);
        assert_eq!(spec.max_sigma(), 1.0);
        let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.3);
        assert_eq!(spec.expected_sigma(), 0.3);
        assert_eq!(spec.max_sigma(), 0.3);
    }

    #[test]
    fn zero_length_realization() {
        let spec = ErrorSpec::paper_mixed_families();
        assert!(spec.realize(0, Seed::new(1)).is_empty());
    }
}
