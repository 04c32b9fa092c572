//! UMA and UEMA — uncertain moving averages (paper §5, Eq. 17–18).
//!
//! The paper's own contribution: two embarrassingly simple filters that
//! nevertheless beat MUNICH/PROUD/DUST across the board, because they are
//! the only technique that *uses the temporal correlation of neighbouring
//! points* instead of assuming independence.
//!
//! * **UMA** (Uncertain Moving Average, Eq. 17) replaces each observation
//!   by a window average with each neighbour weighted by `1/σⱼ` — less
//!   confidence in noisier observations.
//! * **UEMA** (Uncertain Exponential Moving Average, Eq. 18) additionally
//!   decays the weight of distant neighbours by `e^{−λ|j−i|}`.
//!
//! Neither defines a new distance: "Euclidean, UMA, and UEMA share the
//! same distance function, but the input sequence is different" (§5.1).
//! [`Uma::distance`] / [`Uema::distance`] therefore filter both series and
//! apply the plain Euclidean distance.
//!
//! ## Weighting fidelity
//!
//! Read literally, Eq. 17 divides by `2w + 1` and Eq. 18 by
//! `Σ e^{−λ|j−i|}` — in both cases the denominator does **not** include
//! the `1/σⱼ` confidence factors that appear in the numerator, so the
//! filtered series is globally shrunk by roughly `E[1/σ]`. Because every
//! series passes through the same filter and the matching threshold is
//! calibrated in the *filtered* space (paper §4.1.2), this shrinkage is
//! harmless for matching. We implement the literal formulas as
//! [`WeightNormalization::Literal`] (default) and the self-normalising
//! variant (`Σ weights = 1`) as [`WeightNormalization::Normalized`]; the
//! `filters_ablation` bench compares them.
//!
//! Window truncation at the series boundaries follows the same convention
//! as `uts-tseries::filters`: only in-range terms are summed, and the
//! denominator counts only in-range contributions.

use uts_tseries::distance::euclidean;
use uts_tseries::TimeSeries;
use uts_uncertain::UncertainSeries;

/// Denominator convention for the UMA/UEMA filters (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightNormalization {
    /// The paper's literal Eq. 17–18 denominators (window size / decay
    /// sum, without the `1/σ` factors).
    #[default]
    Literal,
    /// Fully normalised weights: the denominator is the sum of the exact
    /// per-term weights, making the filter an unbiased weighted mean.
    Normalized,
}

/// The UMA filter + Euclidean distance (paper Eq. 17).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uma {
    /// Window half-width `w` (full window `2w + 1`). The paper settles on
    /// `w = 2` (§5.2).
    pub w: usize,
    /// Denominator convention.
    pub normalization: WeightNormalization,
}

impl Default for Uma {
    /// The paper's §5.2 default: `W = 5`, i.e. `w = 2`, literal weights.
    fn default() -> Self {
        Self {
            w: 2,
            normalization: WeightNormalization::Literal,
        }
    }
}

impl Uma {
    /// Creates a UMA filter with half-width `w`.
    pub fn new(w: usize) -> Self {
        Self {
            w,
            ..Self::default()
        }
    }

    /// Applies the filter: `Sp` of the paper, Eq. 17.
    pub fn filter(&self, series: &UncertainSeries) -> TimeSeries {
        let sigmas = series.sigmas();
        filter_impl(
            series.values(),
            &sigmas,
            self.w,
            |_| 1.0,
            self.normalization,
        )
    }

    /// Euclidean distance between the UMA-filtered series.
    pub fn distance(&self, x: &UncertainSeries, y: &UncertainSeries) -> f64 {
        euclidean(self.filter(x).values(), self.filter(y).values())
    }
}

/// The UEMA filter + Euclidean distance (paper Eq. 18).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uema {
    /// Window half-width `w`.
    pub w: usize,
    /// Exponential decay factor λ ≥ 0; the paper settles on λ = 1 (§5.2).
    pub lambda: f64,
    /// Denominator convention.
    pub normalization: WeightNormalization,
}

impl Default for Uema {
    /// The paper's §5.2 default: `w = 2`, `λ = 1`, literal weights.
    fn default() -> Self {
        Self {
            w: 2,
            lambda: 1.0,
            normalization: WeightNormalization::Literal,
        }
    }
}

impl Uema {
    /// Creates a UEMA filter.
    pub fn new(w: usize, lambda: f64) -> Self {
        assert!(
            lambda >= 0.0,
            "decay factor must be non-negative, got {lambda}"
        );
        Self {
            w,
            lambda,
            ..Self::default()
        }
    }

    /// Applies the filter: `Se` of the paper, Eq. 18.
    pub fn filter(&self, series: &UncertainSeries) -> TimeSeries {
        let sigmas = series.sigmas();
        let lambda = self.lambda;
        filter_impl(
            series.values(),
            &sigmas,
            self.w,
            |off| (-lambda * off.unsigned_abs() as f64).exp(),
            self.normalization,
        )
    }

    /// Euclidean distance between the UEMA-filtered series.
    pub fn distance(&self, x: &UncertainSeries, y: &UncertainSeries) -> f64 {
        euclidean(self.filter(x).values(), self.filter(y).values())
    }
}

/// Shared filter core.
///
/// Numerator term: `decay(j−i) · vⱼ / σⱼ`.
/// Denominator (literal): `Σ decay(j−i)` over in-range j.
/// Denominator (normalised): `Σ decay(j−i)/σⱼ` over in-range j.
fn filter_impl(
    values: &[f64],
    sigmas: &[f64],
    w: usize,
    decay: impl Fn(isize) -> f64,
    normalization: WeightNormalization,
) -> TimeSeries {
    debug_assert_eq!(values.len(), sigmas.len());
    let n = values.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(w);
        let hi = (i + w).min(n.saturating_sub(1));
        let mut num = 0.0;
        let mut den = 0.0;
        for j in lo..=hi {
            let off = j as isize - i as isize;
            let d = decay(off);
            let sigma = sigmas[j];
            assert!(sigma > 0.0, "UMA/UEMA require positive σ at every point");
            num += d * values[j] / sigma;
            den += match normalization {
                WeightNormalization::Literal => d,
                WeightNormalization::Normalized => d / sigma,
            };
        }
        out.push(num / den);
    }
    TimeSeries::from_values(out)
}

#[cfg(test)]
mod unit {
    use super::*;
    use uts_stats::rng::Seed;
    use uts_uncertain::{perturb, ErrorFamily, ErrorSpec, PointError};

    fn us(values: Vec<f64>, sigma: f64) -> UncertainSeries {
        let n = values.len();
        UncertainSeries::new(values, vec![PointError::new(ErrorFamily::Normal, sigma); n])
    }

    #[test]
    fn literal_uma_matches_hand_computation() {
        // Eq. 17 with w = 1, constant σ = 2: pmᵢ = Σ vⱼ/2 / window_count.
        let s = us(vec![2.0, 4.0, 6.0], 2.0);
        let uma = Uma {
            w: 1,
            normalization: WeightNormalization::Literal,
        };
        let f = uma.filter(&s);
        // i=0: (2/2 + 4/2) / 2 = 1.5 ; i=1: (1+2+3)/3 = 2 ; i=2: (2+3)/2 = 2.5
        assert!((f.at(0) - 1.5).abs() < 1e-12);
        assert!((f.at(1) - 2.0).abs() < 1e-12);
        assert!((f.at(2) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn literal_scales_by_inverse_sigma() {
        // Constant σ: literal UMA = MA(v)/σ.
        let s = us(vec![1.0, 2.0, 3.0, 4.0], 0.5);
        let uma = Uma::new(1);
        let f = uma.filter(&s);
        let ma = uts_tseries::moving_average(s.values(), 1);
        for (a, m) in f.iter().zip(&ma) {
            assert!((a - m / 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn normalized_uma_is_unbiased_for_constants() {
        // Constant values with wildly varying σ: a normalised weighted
        // mean must return the constant exactly.
        let values = vec![3.0; 6];
        let errors = vec![
            PointError::new(ErrorFamily::Normal, 0.1),
            PointError::new(ErrorFamily::Normal, 2.0),
            PointError::new(ErrorFamily::Normal, 0.5),
            PointError::new(ErrorFamily::Normal, 1.5),
            PointError::new(ErrorFamily::Normal, 0.2),
            PointError::new(ErrorFamily::Normal, 1.0),
        ];
        let s = UncertainSeries::new(values, errors);
        let uma = Uma {
            w: 2,
            normalization: WeightNormalization::Normalized,
        };
        assert!(uma.filter(&s).iter().all(|v| (v - 3.0).abs() < 1e-12));
    }

    #[test]
    fn noisy_points_are_downweighted() {
        // One very noisy point among precise ones: the normalised filter
        // output at the noisy index should stay near its precise
        // neighbours' values, not the outlier's.
        let values = vec![0.0, 0.0, 10.0, 0.0, 0.0];
        let errors = vec![
            PointError::new(ErrorFamily::Normal, 0.1),
            PointError::new(ErrorFamily::Normal, 0.1),
            PointError::new(ErrorFamily::Normal, 5.0), // outlier, low confidence
            PointError::new(ErrorFamily::Normal, 0.1),
            PointError::new(ErrorFamily::Normal, 0.1),
        ];
        let s = UncertainSeries::new(values, errors);
        let uma = Uma {
            w: 1,
            normalization: WeightNormalization::Normalized,
        };
        let f = uma.filter(&s);
        assert!(
            f.at(2).abs() < 1.0,
            "outlier should be suppressed, got {}",
            f.at(2)
        );
    }

    #[test]
    fn uema_lambda_zero_equals_uma() {
        let clean = TimeSeries::from_values((0..30).map(|i| (i as f64 / 4.0).sin()));
        let s = perturb(
            &clean,
            &ErrorSpec::paper_mixed(ErrorFamily::Normal),
            Seed::new(5),
        );
        for norm in [
            WeightNormalization::Literal,
            WeightNormalization::Normalized,
        ] {
            let uma = Uma {
                w: 3,
                normalization: norm,
            };
            let uema = Uema {
                w: 3,
                lambda: 0.0,
                normalization: norm,
            };
            let a = uma.filter(&s);
            let b = uema.filter(&s);
            for (x, y) in a.iter().zip(b.iter()) {
                assert!((x - y).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn w_zero_degenerates_to_scaled_euclidean() {
        // Paper §5.2: "when w = 0, UMA and UEMA degenerate to the simple
        // Euclidean distance" (up to the constant 1/σ scale for the
        // literal form with constant σ).
        let sigma = 0.7;
        let x = us(vec![0.0, 1.0, -0.5], sigma);
        let y = us(vec![0.4, 0.2, 0.3], sigma);
        let uma = Uma::new(0);
        let d = uma.distance(&x, &y);
        let e = euclidean(x.values(), y.values());
        assert!((d - e / sigma).abs() < 1e-12, "{d} vs {}", e / sigma);
        let uema = Uema::new(0, 1.0);
        assert!((uema.distance(&x, &y) - e / sigma).abs() < 1e-12);
    }

    #[test]
    fn large_lambda_approaches_w_zero() {
        // λ → ∞ kills all neighbours: UEMA ≈ the w = 0 filter.
        let clean = TimeSeries::from_values((0..24).map(|i| (i as f64 / 3.0).cos()));
        let s = perturb(
            &clean,
            &ErrorSpec::constant(ErrorFamily::Normal, 0.5),
            Seed::new(8),
        );
        let sharp = Uema::new(4, 50.0).filter(&s);
        let point = Uema::new(0, 50.0).filter(&s);
        for (a, b) in sharp.iter().zip(point.iter()) {
            assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn filtering_improves_snr() {
        // The whole point of §5: averaging recovers the clean shape.
        let n = 256;
        let clean = TimeSeries::from_values((0..n).map(|i| (i as f64 / 10.0).sin())).znormalized();
        let spec = ErrorSpec::constant(ErrorFamily::Normal, 1.0);
        let noisy = perturb(&clean, &spec, Seed::new(13));
        let sigma = 1.0;
        // Compare on the same scale: multiply literal output back by σ.
        let uma = Uma::new(2);
        let filtered: Vec<f64> = uma.filter(&noisy).iter().map(|v| v * sigma).collect();
        let err_raw = euclidean(noisy.values(), clean.values());
        let err_filtered = euclidean(&filtered, clean.values());
        assert!(
            err_filtered < 0.75 * err_raw,
            "filtering should denoise: raw {err_raw}, filtered {err_filtered}"
        );
    }

    #[test]
    fn distance_is_symmetric_and_reflexive() {
        let clean = TimeSeries::from_values((0..20).map(|i| i as f64 * 0.2));
        let spec = ErrorSpec::paper_mixed(ErrorFamily::Uniform);
        let x = perturb(&clean, &spec, Seed::new(1));
        let y = perturb(&clean, &spec, Seed::new(2));
        for (dxy, dyx, dxx) in [
            (
                Uma::default().distance(&x, &y),
                Uma::default().distance(&y, &x),
                Uma::default().distance(&x, &x),
            ),
            (
                Uema::default().distance(&x, &y),
                Uema::default().distance(&y, &x),
                Uema::default().distance(&x, &x),
            ),
        ] {
            assert!((dxy - dyx).abs() < 1e-12);
            assert_eq!(dxx, 0.0);
        }
    }

    use uts_tseries::TimeSeries;

    #[test]
    #[should_panic(expected = "positive σ")]
    fn zero_sigma_panics_via_pointerror() {
        // PointError already rejects σ = 0 at construction; build the
        // degenerate case through the filter's own guard instead.
        let _ = filter_impl(
            &[1.0, 2.0],
            &[1.0, 0.0],
            1,
            |_| 1.0,
            WeightNormalization::Literal,
        );
    }
}
