//! PROUD — PRObabilistic queries over Uncertain Data streams
//! (Yeh, Wu, Yu, Chen — EDBT 2009; paper §2.2).
//!
//! PROUD models the distance between two uncertain series as the random
//! variable `distance²(X, Y) = Σᵢ Dᵢ²` with `Dᵢ = xᵢ − yᵢ`, and invokes the
//! central limit theorem: the sum approaches
//! `N(Σᵢ E[Dᵢ²], Σᵢ Var[Dᵢ²])` (paper Eq. 7) *regardless of the point
//! error distribution*. A probabilistic range query `PRQ(Q, C, ε, τ)` is
//! then answered with two table lookups (Eq. 8–11):
//!
//! 1. `ε_limit = Φ⁻¹(τ)`;
//! 2. `ε_norm = (ε² − E[dist²]) / √Var[dist²]`;
//! 3. accept iff `ε_norm ≥ ε_limit`.
//!
//! PROUD's stated input requirement (paper §3.1) is minimal: one observed
//! value per timestamp and a **single, constant error standard deviation**
//! for the whole stream. [`ProudConfig::sigma_override`] models exactly
//! that interface — the mixed-error experiments of §4.2.3 exploit it by
//! telling PROUD σ = 0.7 while the data was perturbed at two σ levels.
//!
//! Two moment models are provided:
//!
//! * [`MomentModel::NormalTheory`] (default, what the original paper
//!   effectively computes): `Var[Dᵢ²] = 4δᵢ²v + 2v²` with `v = σx² + σy²`,
//!   exact when errors are Gaussian.
//! * [`MomentModel::ExactMoments`] (extension): uses the true third/fourth
//!   central moments of the declared error families, removing the Gaussian
//!   approximation for uniform/exponential errors.

use uts_stats::dist::Normal;
use uts_tseries::HaarSynopsis;
use uts_uncertain::UncertainSeries;

/// How `Var[Dᵢ²]` is computed from the per-point error descriptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MomentModel {
    /// Gaussian-error formula `4δ²v + 2v²` (the original PROUD).
    #[default]
    NormalTheory,
    /// Family-exact third/fourth moments (workspace extension).
    ExactMoments,
}

/// PROUD configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ProudConfig {
    /// When set, every point of both series is treated as having this
    /// error standard deviation — PROUD's "single σ for the stream"
    /// interface. When `None`, the per-point reported σ values are used
    /// (a strictly more informed variant than the original).
    pub sigma_override: Option<f64>,
    /// Moment model for `Var[Dᵢ²]`.
    pub moment_model: MomentModel,
}

impl ProudConfig {
    /// The paper's configuration: one constant σ, Gaussian moment theory.
    pub fn with_sigma(sigma: f64) -> Self {
        assert!(sigma > 0.0 && sigma.is_finite(), "sigma must be positive");
        Self {
            sigma_override: Some(sigma),
            moment_model: MomentModel::NormalTheory,
        }
    }
}

/// Mean and variance of the squared-distance random variable — the
/// sufficient statistics PROUD's normal approximation needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistanceStats {
    /// `E[distance²]`.
    pub mean_sq: f64,
    /// `Var[distance²]`.
    pub var_sq: f64,
}

impl DistanceStats {
    /// `Pr(distance ≤ ε)` under the CLT normal approximation
    /// (paper Eq. 7: `distance² ∼ N(mean_sq, var_sq)`).
    pub fn probability_within(&self, epsilon: f64) -> f64 {
        assert!(epsilon >= 0.0, "distance threshold must be non-negative");
        if self.var_sq <= 0.0 {
            // Degenerate: no uncertainty at all; the distance is a constant.
            return if self.mean_sq <= epsilon * epsilon {
                1.0
            } else {
                0.0
            };
        }
        Normal::phi((epsilon * epsilon - self.mean_sq) / self.var_sq.sqrt())
    }

    /// The paper's `ε_norm(X, Y) = (ε² − E[dist²]) / √Var[dist²]` (Eq. 9).
    pub fn epsilon_norm(&self, epsilon: f64) -> f64 {
        if self.var_sq <= 0.0 {
            return if self.mean_sq <= epsilon * epsilon {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            };
        }
        (epsilon * epsilon - self.mean_sq) / self.var_sq.sqrt()
    }
}

/// The PROUD similarity technique.
#[derive(Debug, Clone, Copy, Default)]
pub struct Proud {
    config: ProudConfig,
}

impl Proud {
    /// Creates PROUD with the given configuration.
    pub fn new(config: ProudConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ProudConfig {
        &self.config
    }

    /// The paper's `ε_limit` such that `Pr(N(0,1) ≤ ε_limit) = τ`
    /// (Eq. 8) — a standard-normal quantile lookup.
    pub fn epsilon_limit(tau: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&tau),
            "probability threshold τ must be in [0, 1], got {tau}"
        );
        Normal::phi_inv(tau)
    }

    /// Computes the sufficient statistics of `distance²(X, Y)`.
    ///
    /// # Panics
    /// If the series lengths differ or either is empty.
    pub fn distance_stats(&self, x: &UncertainSeries, y: &UncertainSeries) -> DistanceStats {
        assert_eq!(x.len(), y.len(), "PROUD requires equal-length series");
        assert!(!x.is_empty(), "PROUD requires non-empty series");
        let mut mean_sq = 0.0;
        let mut var_sq = 0.0;
        for i in 0..x.len() {
            let delta = x.value_at(i) - y.value_at(i);
            let (sx, ex) = match self.config.sigma_override {
                Some(s) => (s, None),
                None => (x.error_at(i).sigma, Some(x.error_at(i))),
            };
            let (sy, ey) = match self.config.sigma_override {
                Some(s) => (s, None),
                None => (y.error_at(i).sigma, Some(y.error_at(i))),
            };
            let v = sx * sx + sy * sy;
            // E[D²] = δ² + v  (W = e_x − e_y has mean 0, variance v).
            mean_sq += delta * delta + v;
            var_sq += match self.config.moment_model {
                MomentModel::NormalTheory => 4.0 * delta * delta * v + 2.0 * v * v,
                MomentModel::ExactMoments => {
                    // Var[D²] = 4δ²·E[W²] + 4δ·E[W³] + (E[W⁴] − v²), with
                    //   E[W³] = μ₃(e_x) − μ₃(e_y),
                    //   E[W⁴] = μ₄(e_x) + μ₄(e_y) + 6σx²σy².
                    let mu3 = |e: Option<uts_uncertain::PointError>, s: f64| match e {
                        Some(pe) => third_central_moment(pe),
                        // σ-override leaves the family unknown: Gaussian μ₃=0.
                        None => {
                            let _ = s;
                            0.0
                        }
                    };
                    let mu4 = |e: Option<uts_uncertain::PointError>, s: f64| match e {
                        Some(pe) => pe.fourth_central_moment(),
                        None => 3.0 * s.powi(4),
                    };
                    let w3 = mu3(ex, sx) - mu3(ey, sy);
                    let w4 = mu4(ex, sx) + mu4(ey, sy) + 6.0 * sx * sx * sy * sy;
                    4.0 * delta * delta * v + 4.0 * delta * w3 + (w4 - v * v)
                }
            };
        }
        DistanceStats { mean_sq, var_sq }
    }

    /// `Pr(distance(X, Y) ≤ ε)` under the CLT approximation.
    pub fn probability_within(
        &self,
        x: &UncertainSeries,
        y: &UncertainSeries,
        epsilon: f64,
    ) -> f64 {
        self.distance_stats(x, y).probability_within(epsilon)
    }

    /// PRQ membership test: `Pr(distance ≤ ε) ≥ τ`, evaluated exactly as
    /// the paper does — `ε_norm(X, Y) ≥ ε_limit(τ)` (Eq. 10).
    ///
    /// A negative or NaN ε matches nothing, as in every other
    /// technique's range query (`ε_norm` squares ε and would otherwise
    /// answer for `|ε|`).
    pub fn matches(
        &self,
        x: &UncertainSeries,
        y: &UncertainSeries,
        epsilon: f64,
        tau: f64,
    ) -> bool {
        let limit = Self::epsilon_limit(tau);
        epsilon >= 0.0 && self.distance_stats(x, y).epsilon_norm(epsilon) >= limit
    }

    /// Expected distance point estimate `sqrt(E[dist²])` — a convenient
    /// scalar for ranking (not part of the original PROUD interface).
    pub fn expected_distance(&self, x: &UncertainSeries, y: &UncertainSeries) -> f64 {
        self.distance_stats(x, y).mean_sq.sqrt()
    }
}

/// Third central moment of a declared error distribution.
fn third_central_moment(pe: uts_uncertain::PointError) -> f64 {
    use uts_uncertain::ErrorFamily;
    match pe.family {
        // Symmetric families.
        ErrorFamily::Normal | ErrorFamily::Uniform => 0.0,
        // Zero-mean shifted exponential: μ₃ = 2σ³.
        ErrorFamily::Exponential => 2.0 * pe.sigma.powi(3),
    }
}

/// PROUD over a Haar wavelet synopsis (paper §4.3 extension).
///
/// The orthonormal Haar prefix gives a lower bound `LB` on the observed
/// Euclidean distance. Since `E[dist²] = ‖X − Y‖² + Σᵢ vᵢ ≥ LB² + Σᵢ vᵢ`,
/// a candidate whose bound already pushes the acceptance probability below
/// τ can be pruned without touching the full series. This struct carries
/// the synopsis together with the error-variance total needed for the
/// bound.
#[derive(Debug, Clone)]
pub struct ProudSynopsis {
    synopsis: HaarSynopsis,
    total_error_variance: f64,
    len: usize,
}

impl ProudSynopsis {
    /// Builds a `k`-coefficient synopsis of an uncertain series.
    pub fn new(series: &UncertainSeries, k: usize, config: &ProudConfig) -> Self {
        let total_error_variance = match config.sigma_override {
            Some(s) => s * s * series.len() as f64,
            None => series.errors().iter().map(|e| e.variance()).sum(),
        };
        Self {
            synopsis: HaarSynopsis::new(series.values(), k),
            total_error_variance,
            len: series.len(),
        }
    }

    /// Number of retained coefficients.
    pub fn coefficients(&self) -> usize {
        self.synopsis.coefficients().len()
    }

    /// Conservative upper bound on `Pr(distance ≤ ε)`: uses the synopsis
    /// lower bound on `‖X − Y‖` in place of the true value. Guaranteed to
    /// be ≥ the full PROUD probability, so pruning on
    /// `upper_bound < τ` never causes a false dismissal relative to full
    /// PROUD.
    pub fn probability_upper_bound(&self, other: &ProudSynopsis, epsilon: f64) -> f64 {
        assert_eq!(self.len, other.len, "synopses of different-length series");
        let lb = self.synopsis.distance_lower_bound(&other.synopsis);
        let v_total = self.total_error_variance + other.total_error_variance;
        let mean_sq_lb = lb * lb + v_total;
        // Var[dist²] is NOT bounded by the synopsis; the conservative
        // choice maximising Φ((ε²−m)/√V) over V needs m: for m ≤ ε² larger
        // V lowers the probability, for m > ε² larger V raises it. Use the
        // exact normal-theory variance at δ = lb, which is the smallest
        // admissible variance when m > ε² (v fixed, δ ≥ lb):
        // probability is monotone decreasing in δ for either branch.
        let var_lb = {
            // per-point split unknown at synopsis level; aggregate form:
            // Σ 4δᵢ²vᵢ + 2vᵢ² ≥ 0. We only need *some* admissible variance;
            // use 4·lb²·v̄ + 2·v̄²·n with v̄ = v_total/n, the equality case
            // for evenly spread coordinates.
            let n = self.len as f64;
            let v_bar = v_total / n;
            4.0 * lb * lb * v_bar + 2.0 * v_bar * v_bar * n
        };
        let stats = DistanceStats {
            mean_sq: mean_sq_lb,
            var_sq: var_lb,
        };
        stats.probability_within(epsilon)
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use uts_stats::rng::Seed;
    use uts_tseries::TimeSeries;
    use uts_uncertain::{perturb, ErrorFamily, ErrorSpec, PointError};

    fn series(values: Vec<f64>, sigma: f64) -> UncertainSeries {
        let n = values.len();
        UncertainSeries::new(values, vec![PointError::new(ErrorFamily::Normal, sigma); n])
    }

    #[test]
    fn stats_match_hand_computation() {
        // Two length-2 series, σ = 0.5 each ⇒ v = 0.5 per point.
        let x = series(vec![0.0, 1.0], 0.5);
        let y = series(vec![1.0, 1.0], 0.5);
        let p = Proud::new(ProudConfig::default());
        let s = p.distance_stats(&x, &y);
        // δ₁ = −1, δ₂ = 0. E = (1 + 0.5) + (0 + 0.5) = 2.
        assert!((s.mean_sq - 2.0).abs() < 1e-12);
        // Var = (4·1·0.5 + 2·0.25) + (0 + 2·0.25) = 2.5 + 0.5 = 3.
        assert!((s.var_sq - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sigma_override_takes_precedence() {
        let x = series(vec![0.0, 0.0], 2.0);
        let y = series(vec![0.0, 0.0], 2.0);
        let p = Proud::new(ProudConfig::with_sigma(0.1));
        let s = p.distance_stats(&x, &y);
        // v = 0.02 per point, δ = 0: E = 2·v = 0.04, Var = 2 points · 2v² = 1.6e-3.
        assert!((s.mean_sq - 0.04).abs() < 1e-12);
        assert!((s.var_sq - 1.6e-3).abs() < 1e-12);
    }

    #[test]
    fn probability_is_monotone_in_epsilon() {
        let x = series(vec![0.0, 1.0, -0.5], 0.4);
        let y = series(vec![0.2, 0.3, 0.1], 0.4);
        let p = Proud::new(ProudConfig::default());
        let mut prev = 0.0;
        for i in 0..40 {
            let eps = i as f64 * 0.2;
            let prob = p.probability_within(&x, &y, eps);
            assert!((0.0..=1.0).contains(&prob));
            assert!(prob + 1e-12 >= prev, "not monotone at ε = {eps}");
            prev = prob;
        }
        assert!(prev > 0.99, "large ε must be near-certain, got {prev}");
    }

    #[test]
    fn matches_agrees_with_probability() {
        // The paper's ε_norm ≥ ε_limit formulation must agree with the
        // direct probability comparison.
        let x = series(vec![0.0, 1.0, -0.5, 0.3], 0.6);
        let y = series(vec![0.4, 0.3, 0.1, -0.2], 0.6);
        let p = Proud::new(ProudConfig::default());
        for tau in [0.1, 0.3, 0.5, 0.7, 0.9] {
            for eps in [0.5, 1.0, 2.0, 4.0] {
                let via_matches = p.matches(&x, &y, eps, tau);
                let via_prob = p.probability_within(&x, &y, eps) >= tau;
                assert_eq!(via_matches, via_prob, "τ={tau} ε={eps}");
            }
        }
    }

    #[test]
    fn epsilon_limit_is_phi_inverse() {
        assert!((Proud::epsilon_limit(0.5)).abs() < 1e-12);
        assert!((Proud::epsilon_limit(0.975) - 1.959963984540054).abs() < 1e-9);
    }

    #[test]
    fn clt_probability_matches_monte_carlo() {
        // Empirical check of Eq. 7 on a moderately long series.
        let n = 64;
        let sigma = 0.5;
        let clean = TimeSeries::from_values((0..n).map(|i| (i as f64 / 6.0).sin()));
        let spec = ErrorSpec::constant(ErrorFamily::Normal, sigma);
        let x = perturb(&clean, &spec, Seed::new(1));
        let y = perturb(&clean, &spec, Seed::new(2));
        let p = Proud::new(ProudConfig::default());
        let stats = p.distance_stats(&x, &y);

        // Monte Carlo over the *model*: true values unknown, so simulate
        // D_i = δ_i + e - e' with δ the observed differences.
        let mut rng = Seed::new(99).rng();
        let pe = PointError::new(ErrorFamily::Normal, sigma);
        let trials = 20_000;
        let eps = stats.mean_sq.sqrt(); // test near the distribution centre
        let mut hits = 0;
        for _ in 0..trials {
            let mut d2 = 0.0;
            for i in 0..n {
                let delta =
                    x.value_at(i) - y.value_at(i) + pe.sample(&mut rng) - pe.sample(&mut rng);
                d2 += delta * delta;
            }
            if d2.sqrt() <= eps {
                hits += 1;
            }
        }
        let mc = hits as f64 / trials as f64;
        let clt = stats.probability_within(eps);
        assert!(
            (mc - clt).abs() < 0.03,
            "CLT {clt} vs Monte-Carlo {mc} at ε = {eps}"
        );
    }

    #[test]
    fn exact_moments_differ_for_exponential() {
        let n = 8;
        let errs = vec![PointError::new(ErrorFamily::Exponential, 1.0); n];
        let x = UncertainSeries::new(vec![0.0; n], errs.clone());
        let y = UncertainSeries::new(vec![1.0; n], errs);
        let normal = Proud::new(ProudConfig {
            sigma_override: None,
            moment_model: MomentModel::NormalTheory,
        });
        let exact = Proud::new(ProudConfig {
            sigma_override: None,
            moment_model: MomentModel::ExactMoments,
        });
        let sn = normal.distance_stats(&x, &y);
        let se = exact.distance_stats(&x, &y);
        assert!((sn.mean_sq - se.mean_sq).abs() < 1e-12, "means agree");
        // Exponential kurtosis (9) > Gaussian (3) ⇒ larger Var[D²].
        assert!(se.var_sq > sn.var_sq, "{} vs {}", se.var_sq, sn.var_sq);
    }

    #[test]
    fn synopsis_upper_bound_never_prunes_wrongly() {
        let clean = TimeSeries::from_values((0..64).map(|i| (i as f64 / 5.0).cos()));
        let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.4);
        let cfg = ProudConfig::default();
        let p = Proud::new(cfg);
        for pair_seed in 0..10u64 {
            let x = perturb(&clean, &spec, Seed::new(pair_seed));
            let y = perturb(&clean, &spec, Seed::new(pair_seed + 100));
            let sx = ProudSynopsis::new(&x, 8, &cfg);
            let sy = ProudSynopsis::new(&y, 8, &cfg);
            for eps in [1.0, 3.0, 6.0, 10.0] {
                let full = p.probability_within(&x, &y, eps);
                let bound = sx.probability_upper_bound(&sy, eps);
                assert!(
                    bound + 1e-9 >= full,
                    "seed {pair_seed} ε={eps}: bound {bound} < full {full}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn length_mismatch_panics() {
        let x = series(vec![0.0], 0.1);
        let y = series(vec![0.0, 1.0], 0.1);
        let _ = Proud::new(ProudConfig::default()).distance_stats(&x, &y);
    }
}
