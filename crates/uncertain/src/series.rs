//! Uncertain time-series value types.
//!
//! Two models, mirroring the paper's two modelling families (§1, §3.1):
//!
//! * [`UncertainSeries`] — one observed value per timestamp plus a
//!   per-point error description. This is what PROUD and DUST consume
//!   (PROUD reads only the σ, DUST the full family+σ), and what the
//!   Euclidean baseline and UMA/UEMA read the observed values from.
//! * [`MultiObsSeries`] — `s` repeated observations per timestamp with no
//!   distribution attached; MUNICH's input.

use uts_stats::Moments;
use uts_tseries::TimeSeries;

use crate::error_model::PointError;

/// Pdf-model uncertain series: observed values plus per-point error
/// descriptions.
///
/// The error attached to each point is what the similarity techniques are
/// *told* about the uncertainty; the experiment harness deliberately makes
/// it diverge from the truth in the misreported-σ workload (paper
/// Figure 10) via [`UncertainSeries::with_reported_sigma`].
#[derive(Debug, Clone, PartialEq)]
pub struct UncertainSeries {
    values: Box<[f64]>,
    errors: Box<[PointError]>,
}

impl UncertainSeries {
    /// Builds a series from observed values and matching per-point errors.
    ///
    /// # Panics
    /// If lengths differ or any value is non-finite.
    pub fn new(values: Vec<f64>, errors: Vec<PointError>) -> Self {
        assert_eq!(
            values.len(),
            errors.len(),
            "values/errors length mismatch ({} vs {})",
            values.len(),
            errors.len()
        );
        assert!(
            values.iter().all(|v| v.is_finite()),
            "uncertain series values must be finite"
        );
        Self {
            values: values.into_boxed_slice(),
            errors: errors.into_boxed_slice(),
        }
    }

    /// Number of timestamps.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Observed values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Per-point error descriptions.
    pub fn errors(&self) -> &[PointError] {
        &self.errors
    }

    /// Observed value at timestamp `i`.
    pub fn value_at(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Error description at timestamp `i`.
    pub fn error_at(&self, i: usize) -> PointError {
        self.errors[i]
    }

    /// Per-point σ values (convenience for UMA/UEMA weighting).
    pub fn sigmas(&self) -> Vec<f64> {
        self.errors.iter().map(|e| e.sigma).collect()
    }

    /// The observed values as a certain [`TimeSeries`] — the
    /// "just use a single value for every timestamp" Euclidean baseline.
    pub fn as_certain(&self) -> TimeSeries {
        TimeSeries::from_slice(&self.values)
    }

    /// Copy with every reported σ replaced by `sigma` (paper Figure 10:
    /// "inform DUST (wrongly) that the standard deviation is 0.7").
    pub fn with_reported_sigma(&self, sigma: f64) -> Self {
        Self {
            values: self.values.clone(),
            errors: self.errors.iter().map(|e| e.with_sigma(sigma)).collect(),
        }
    }

    /// Copy with reported errors replaced wholesale (arbitrary
    /// misreporting scenarios).
    pub fn with_reported_errors(&self, errors: Vec<PointError>) -> Self {
        assert_eq!(errors.len(), self.len(), "reported errors length mismatch");
        Self {
            values: self.values.clone(),
            errors: errors.into_boxed_slice(),
        }
    }

    /// Truncated prefix of at most `len` points.
    pub fn truncated(&self, len: usize) -> Self {
        let len = len.min(self.len());
        Self {
            values: self.values[..len].to_vec().into_boxed_slice(),
            errors: self.errors[..len].to_vec().into_boxed_slice(),
        }
    }
}

/// Multi-observation uncertain series (MUNICH's model): `s` samples per
/// timestamp.
///
/// Stored row-major as `n` timestamps × `s` observations. `s` is constant
/// across timestamps, matching the paper's setup ("for each timestamp, we
/// have 5 samples as input for MUNICH").
#[derive(Debug, Clone, PartialEq)]
pub struct MultiObsSeries {
    /// Flattened observations, timestamp-major: `obs[i * s + j]`.
    obs: Box<[f64]>,
    len: usize,
    samples_per_point: usize,
}

/// Typed rejection of malformed multi-observation rows, returned by
/// [`MultiObsSeries::try_from_rows`]. [`MultiObsSeries::from_rows`]
/// panics with the same messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MultiObsError {
    /// The row set covers no timestamps.
    NoTimestamps,
    /// A timestamp has an empty sample set.
    EmptyTimestamp {
        /// Index of the offending timestamp.
        index: usize,
    },
    /// A row's sample count differs from the first row's.
    RaggedRows {
        /// Index of the offending timestamp.
        index: usize,
        /// Sample count of the first row.
        expected: usize,
        /// Sample count of the offending row.
        got: usize,
    },
    /// An observation is NaN or infinite.
    NonFiniteObservation {
        /// Timestamp of the offending sample.
        index: usize,
    },
}

impl core::fmt::Display for MultiObsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::NoTimestamps => write!(f, "MultiObsSeries requires at least one timestamp"),
            Self::EmptyTimestamp { index } => write!(
                f,
                "each timestamp needs at least one observation (timestamp {index} is empty)"
            ),
            Self::RaggedRows {
                index,
                expected,
                got,
            } => write!(
                f,
                "all timestamps must have the same number of observations \
                 (timestamp {index} has {got}, expected {expected})"
            ),
            Self::NonFiniteObservation { index } => write!(
                f,
                "observations must be finite (timestamp {index} holds a NaN or infinity)"
            ),
        }
    }
}

impl std::error::Error for MultiObsError {}

impl MultiObsSeries {
    /// Builds from per-timestamp observation rows.
    ///
    /// # Panics
    /// If `rows` is empty, rows have unequal lengths, any row is empty,
    /// or any observation is non-finite
    /// ([`MultiObsSeries::try_from_rows`] reports the same conditions as
    /// typed errors instead).
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Self {
        Self::try_from_rows(rows).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`MultiObsSeries::from_rows`]: malformed rows come
    /// back as a [`MultiObsError`] naming the offending timestamp instead
    /// of a panic — the ingestion-boundary entry point for untrusted data.
    pub fn try_from_rows(rows: Vec<Vec<f64>>) -> Result<Self, MultiObsError> {
        if rows.is_empty() {
            return Err(MultiObsError::NoTimestamps);
        }
        let s = rows[0].len();
        if s == 0 {
            return Err(MultiObsError::EmptyTimestamp { index: 0 });
        }
        for (i, r) in rows.iter().enumerate() {
            if r.is_empty() {
                return Err(MultiObsError::EmptyTimestamp { index: i });
            }
            if r.len() != s {
                return Err(MultiObsError::RaggedRows {
                    index: i,
                    expected: s,
                    got: r.len(),
                });
            }
            if !r.iter().all(|v| v.is_finite()) {
                return Err(MultiObsError::NonFiniteObservation { index: i });
            }
        }
        let len = rows.len();
        let obs: Box<[f64]> = rows.into_iter().flatten().collect();
        Ok(Self {
            obs,
            len,
            samples_per_point: s,
        })
    }

    /// Number of timestamps `n`.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the series has no timestamps.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Observations per timestamp `s`.
    pub fn samples_per_point(&self) -> usize {
        self.samples_per_point
    }

    /// The observation row at timestamp `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        let s = self.samples_per_point;
        &self.obs[i * s..(i + 1) * s]
    }

    /// Minimal bounding interval `[min, max]` of the samples at
    /// timestamp `i` — the summarisation MUNICH's filter step uses
    /// ("summarizing the repeated samples using minimal bounding
    /// intervals", paper §2.1).
    pub fn mbi(&self, i: usize) -> (f64, f64) {
        let row = self.row(i);
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in row {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Sample mean at each timestamp — collapses the model to a
    /// pdf-style point estimate.
    pub fn mean_series(&self) -> TimeSeries {
        TimeSeries::from_values((0..self.len).map(|i| Moments::from_slice(self.row(i)).mean()))
    }

    /// Per-timestamp sample standard deviation (n−1 denominator); zero
    /// when `s == 1`.
    pub fn std_per_point(&self) -> Vec<f64> {
        (0..self.len)
            .map(|i| {
                if self.samples_per_point < 2 {
                    0.0
                } else {
                    Moments::from_slice(self.row(i)).sample_std()
                }
            })
            .collect()
    }

    /// Truncated prefix of at most `len` timestamps.
    pub fn truncated(&self, len: usize) -> Self {
        let len = len.min(self.len);
        let s = self.samples_per_point;
        Self {
            obs: self.obs[..len * s].to_vec().into_boxed_slice(),
            len,
            samples_per_point: s,
        }
    }

    /// Total number of possible materialisations `s^n` as an `f64`
    /// (overflows to `inf` harmlessly for large inputs) — the quantity
    /// that makes MUNICH's naive enumeration "infeasible" (paper §2.1).
    pub fn materialization_count(&self) -> f64 {
        (self.samples_per_point as f64).powi(self.len as i32)
    }

    /// Bridges MUNICH's sample model to the pdf model: estimates each
    /// timestamp's value as the sample mean and its error σ as the sample
    /// standard deviation, declaring the given `family`.
    ///
    /// This is the §3.1 observation made executable — "[MUNICH's repeated
    /// observations] can be thought of as sampling from the distribution
    /// of the value errors" — and lets PROUD/DUST/UMA/UEMA consume
    /// repeated-observation data. With `s` samples the σ estimate carries
    /// `O(1/√s)` relative error; `sigma_floor` guards the degenerate
    /// all-samples-equal case (σ = 0 is not a valid [`PointError`]).
    ///
    /// # Panics
    /// If `sigma_floor` is not strictly positive.
    pub fn to_uncertain(
        &self,
        family: crate::error_model::ErrorFamily,
        sigma_floor: f64,
    ) -> UncertainSeries {
        assert!(sigma_floor > 0.0, "sigma floor must be positive");
        let means = self.mean_series();
        let stds = self.std_per_point();
        let errors = stds
            .iter()
            .map(|&s| crate::error_model::PointError::new(family, s.max(sigma_floor)))
            .collect();
        UncertainSeries::new(means.values().to_vec(), errors)
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::error_model::ErrorFamily;

    fn pe(sigma: f64) -> PointError {
        PointError::new(ErrorFamily::Normal, sigma)
    }

    #[test]
    fn uncertain_series_accessors() {
        let s = UncertainSeries::new(vec![1.0, 2.0], vec![pe(0.1), pe(0.2)]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.value_at(1), 2.0);
        assert_eq!(s.error_at(0).sigma, 0.1);
        assert_eq!(s.sigmas(), vec![0.1, 0.2]);
        assert_eq!(s.as_certain().values(), &[1.0, 2.0]);
    }

    #[test]
    fn reported_sigma_override() {
        let s = UncertainSeries::new(vec![1.0, 2.0], vec![pe(0.1), pe(0.9)]);
        let r = s.with_reported_sigma(0.7);
        assert_eq!(r.values(), s.values());
        assert!(r.errors().iter().all(|e| e.sigma == 0.7));
        // Originals untouched.
        assert_eq!(s.error_at(1).sigma, 0.9);
    }

    #[test]
    fn truncation() {
        let s = UncertainSeries::new(vec![1.0, 2.0, 3.0], vec![pe(0.1); 3]);
        let t = s.truncated(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.values(), &[1.0, 2.0]);
        assert_eq!(s.truncated(99).len(), 3);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = UncertainSeries::new(vec![1.0], vec![pe(0.1), pe(0.2)]);
    }

    #[test]
    fn multi_obs_layout() {
        let m = MultiObsSeries::from_rows(vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.samples_per_point(), 3);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.mbi(0), (1.0, 3.0));
        assert_eq!(m.materialization_count(), 9.0);
    }

    #[test]
    fn multi_obs_means_and_stds() {
        let m = MultiObsSeries::from_rows(vec![vec![1.0, 3.0], vec![10.0, 10.0]]);
        assert_eq!(m.mean_series().values(), &[2.0, 10.0]);
        let stds = m.std_per_point();
        assert!((stds[0] - 2f64.sqrt()).abs() < 1e-12);
        assert_eq!(stds[1], 0.0);
    }

    #[test]
    fn multi_obs_truncation() {
        let m = MultiObsSeries::from_rows(vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let t = m.truncated(2);
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(1), &[3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "same number of observations")]
    fn ragged_rows_panic() {
        let _ = MultiObsSeries::from_rows(vec![vec![1.0], vec![2.0, 3.0]]);
    }

    #[test]
    fn single_sample_std_is_zero() {
        let m = MultiObsSeries::from_rows(vec![vec![1.0], vec![2.0]]);
        assert_eq!(m.std_per_point(), vec![0.0, 0.0]);
    }

    #[test]
    fn bridge_estimates_mean_and_sigma() {
        let m = MultiObsSeries::from_rows(vec![vec![1.0, 3.0], vec![10.0, 10.0]]);
        let u = m.to_uncertain(ErrorFamily::Normal, 0.05);
        assert_eq!(u.values(), &[2.0, 10.0]);
        assert!((u.error_at(0).sigma - 2f64.sqrt()).abs() < 1e-12);
        // Degenerate timestamp: σ clamped to the floor, not zero.
        assert_eq!(u.error_at(1).sigma, 0.05);
        assert!(u.errors().iter().all(|e| e.family == ErrorFamily::Normal));
    }

    #[test]
    fn bridge_estimate_converges_with_samples() {
        let mut rng = uts_stats::rng::Seed::new(77).rng();
        let sigma = 0.5;
        let truth = 1.25;
        let s = 4000;
        let rows = vec![(0..s)
            .map(|_| truth + sigma * uts_stats::dist::sample_standard_normal(&mut rng))
            .collect::<Vec<f64>>()];
        let m = MultiObsSeries::from_rows(rows);
        let u = m.to_uncertain(ErrorFamily::Normal, 1e-6);
        assert!((u.value_at(0) - truth).abs() < 0.05);
        assert!((u.error_at(0).sigma - sigma).abs() < 0.05);
    }

    #[test]
    #[should_panic(expected = "floor must be positive")]
    fn bridge_rejects_zero_floor() {
        let m = MultiObsSeries::from_rows(vec![vec![1.0, 2.0]]);
        let _ = m.to_uncertain(ErrorFamily::Normal, 0.0);
    }
}
