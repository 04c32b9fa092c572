//! Per-point error models.
//!
//! The paper perturbs clean values with zero-mean errors from three
//! families — uniform, normal and exponential — parameterised by their
//! standard deviation σ (§4.1.1). [`PointError`] is the (family, σ) pair
//! attached to every timestamp of an [`UncertainSeries`](crate::series::UncertainSeries);
//! it knows how to sample itself, evaluate its density, and report the
//! moments the techniques need (PROUD uses the variance; its exact
//! fourth-moment extension and DUST's φ tables need the fourth central
//! moment and the density respectively).

use rand::Rng;
use uts_stats::dist::{ContinuousDistribution, Exponential, Normal, Uniform};

/// The three zero-mean error families of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorFamily {
    /// Gaussian `N(0, σ²)`.
    Normal,
    /// Uniform on `[−σ√3, σ√3]`.
    Uniform,
    /// Shifted exponential `Exp(1/σ) − σ` (zero mean, std σ, skewed).
    Exponential,
}

impl ErrorFamily {
    /// All families, in the order the paper plots them.
    pub const ALL: [ErrorFamily; 3] = [
        ErrorFamily::Normal,
        ErrorFamily::Uniform,
        ErrorFamily::Exponential,
    ];

    /// Lower-case display name used in result tables.
    pub fn name(self) -> &'static str {
        match self {
            ErrorFamily::Normal => "normal",
            ErrorFamily::Uniform => "uniform",
            ErrorFamily::Exponential => "exponential",
        }
    }

    /// Excess-free fourth standardized moment (kurtosis) of the family:
    /// `E[e⁴]/σ⁴`.
    ///
    /// Normal: 3, uniform: 9/5, shifted exponential: 9. Used by the
    /// exact-moment PROUD extension.
    pub fn kurtosis(self) -> f64 {
        match self {
            ErrorFamily::Normal => 3.0,
            ErrorFamily::Uniform => 1.8,
            ErrorFamily::Exponential => 9.0,
        }
    }
}

impl std::fmt::Display for ErrorFamily {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A zero-mean error distribution attached to one timestamp: a family
/// plus a standard deviation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointError {
    /// Distribution family.
    pub family: ErrorFamily,
    /// Standard deviation σ of the error (must be positive).
    pub sigma: f64,
}

impl PointError {
    /// Creates a point error; panics unless `sigma > 0` and finite.
    pub fn new(family: ErrorFamily, sigma: f64) -> Self {
        assert!(
            sigma > 0.0 && sigma.is_finite(),
            "PointError requires sigma > 0, got {sigma}"
        );
        Self { family, sigma }
    }

    /// Draws one error sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self.family {
            ErrorFamily::Normal => Normal::new(0.0, self.sigma).sample(rng),
            ErrorFamily::Uniform => Uniform::zero_mean(self.sigma).sample(rng),
            ErrorFamily::Exponential => Exponential::zero_mean(self.sigma).sample(rng),
        }
    }

    /// Density of the error at `e`.
    pub fn pdf(&self, e: f64) -> f64 {
        match self.family {
            ErrorFamily::Normal => Normal::new(0.0, self.sigma).pdf(e),
            ErrorFamily::Uniform => Uniform::zero_mean(self.sigma).pdf(e),
            ErrorFamily::Exponential => Exponential::zero_mean(self.sigma).pdf(e),
        }
    }

    /// CDF of the error at `e`.
    pub fn cdf(&self, e: f64) -> f64 {
        match self.family {
            ErrorFamily::Normal => Normal::new(0.0, self.sigma).cdf(e),
            ErrorFamily::Uniform => Uniform::zero_mean(self.sigma).cdf(e),
            ErrorFamily::Exponential => Exponential::zero_mean(self.sigma).cdf(e),
        }
    }

    /// Effective support of the error density, `[lo, hi]`.
    pub fn support(&self) -> (f64, f64) {
        match self.family {
            ErrorFamily::Normal => {
                let d = Normal::new(0.0, self.sigma);
                (d.support_lo(), d.support_hi())
            }
            ErrorFamily::Uniform => {
                let d = Uniform::zero_mean(self.sigma);
                (d.support_lo(), d.support_hi())
            }
            ErrorFamily::Exponential => {
                let d = Exponential::zero_mean(self.sigma);
                (d.support_lo(), d.support_hi())
            }
        }
    }

    /// Error variance σ².
    pub fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }

    /// Fourth central moment `E[e⁴] = kurtosis · σ⁴`.
    pub fn fourth_central_moment(&self) -> f64 {
        self.family.kurtosis() * self.sigma.powi(4)
    }

    /// The same error with a different *reported* standard deviation —
    /// the paper's Figure 10 feeds the techniques a wrong σ (0.7) while
    /// the data is perturbed with the true mixed σ.
    pub fn with_sigma(&self, sigma: f64) -> Self {
        Self::new(self.family, sigma)
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use uts_stats::rng::Seed;
    use uts_stats::Moments;

    #[test]
    fn sampling_respects_moments() {
        let mut rng = Seed::new(3).rng();
        for family in ErrorFamily::ALL {
            for sigma in [0.2, 0.7, 2.0] {
                let pe = PointError::new(family, sigma);
                let mut m = Moments::new();
                for _ in 0..60_000 {
                    m.push(pe.sample(&mut rng));
                }
                assert!(
                    m.mean().abs() < 0.05 * sigma.max(1.0),
                    "{family} σ={sigma}: mean {}",
                    m.mean()
                );
                assert!(
                    (m.sample_std() - sigma).abs() < 0.05 * sigma,
                    "{family} σ={sigma}: std {}",
                    m.sample_std()
                );
            }
        }
    }

    #[test]
    fn kurtosis_matches_simulation() {
        let mut rng = Seed::new(4).rng();
        for family in ErrorFamily::ALL {
            let pe = PointError::new(family, 1.0);
            let n = 400_000;
            let m4: f64 = (0..n).map(|_| pe.sample(&mut rng).powi(4)).sum::<f64>() / n as f64;
            let want = pe.fourth_central_moment();
            // Exponential kurtosis estimator is noisy; loose tolerance.
            assert!(
                (m4 - want).abs() < 0.15 * want,
                "{family}: simulated m4 {m4} vs analytic {want}"
            );
        }
    }

    #[test]
    fn pdf_zero_outside_support() {
        let pe = PointError::new(ErrorFamily::Uniform, 1.0);
        let (lo, hi) = pe.support();
        assert_eq!(pe.pdf(lo - 0.01), 0.0);
        assert_eq!(pe.pdf(hi + 0.01), 0.0);
        assert!(pe.pdf(0.0) > 0.0);

        let pe = PointError::new(ErrorFamily::Exponential, 1.0);
        let (lo, _) = pe.support();
        assert_eq!(pe.pdf(lo - 0.01), 0.0);
        assert!(pe.pdf(lo + 0.01) > 0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(ErrorFamily::Normal.to_string(), "normal");
        assert_eq!(ErrorFamily::Uniform.to_string(), "uniform");
        assert_eq!(ErrorFamily::Exponential.to_string(), "exponential");
    }

    #[test]
    #[should_panic(expected = "sigma > 0")]
    fn zero_sigma_rejected() {
        let _ = PointError::new(ErrorFamily::Normal, 0.0);
    }
}
