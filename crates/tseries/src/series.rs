//! The [`TimeSeries`] value type.
//!
//! A time series here is exactly the paper's definition (§2): a finite
//! sequence `S = <s₁, …, sₙ>` of real values sampled at a constant rate
//! with discrete timestamps, so the timestamp is just the index. Values
//! are stored densely as `f64`.

use uts_stats::Moments;

/// An immutable, densely-sampled univariate time series.
///
/// Construction validates that every value is finite — NaN/±inf values
/// poison every distance downstream, so they are rejected at the boundary
/// rather than checked in the hot loops.
///
/// ```
/// use uts_tseries::TimeSeries;
/// let s = TimeSeries::from_values([3.0, 1.0, 2.0]);
/// assert_eq!(s.len(), 3);
/// let z = s.znormalized();
/// assert!(z.mean().abs() < 1e-12);
/// assert!((z.population_std() - 1.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimeSeries {
    values: Box<[f64]>,
}

impl TimeSeries {
    /// Builds a series from anything yielding `f64`.
    ///
    /// # Panics
    /// If any value is non-finite.
    pub fn from_values(values: impl IntoIterator<Item = f64>) -> Self {
        let values: Box<[f64]> = values.into_iter().collect();
        assert!(
            values.iter().all(|v| v.is_finite()),
            "TimeSeries values must be finite"
        );
        Self { values }
    }

    /// Builds a series from a slice.
    pub fn from_slice(values: &[f64]) -> Self {
        Self::from_values(values.iter().copied())
    }

    /// Fallible construction: returns `None` when any value is non-finite
    /// or the input is empty.
    pub fn try_from_values(values: impl IntoIterator<Item = f64>) -> Option<Self> {
        let values: Box<[f64]> = values.into_iter().collect();
        if values.is_empty() || values.iter().any(|v| !v.is_finite()) {
            return None;
        }
        Some(Self { values })
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series has no points.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The raw values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Value at timestamp `i` (0-based).
    pub fn at(&self, i: usize) -> f64 {
        self.values[i]
    }

    /// Iterator over values.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = f64> + '_ {
        self.values.iter().copied()
    }

    /// Arithmetic mean; `NaN` for an empty series.
    pub fn mean(&self) -> f64 {
        Moments::from_slice(&self.values).mean()
    }

    /// Population standard deviation (divides by `n`); the convention for
    /// time-series z-normalisation.
    pub fn population_std(&self) -> f64 {
        Moments::from_slice(&self.values).population_std()
    }

    /// Minimum value; `NaN` for an empty series.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::NAN, f64::min)
    }

    /// Maximum value; `NaN` for an empty series.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().fold(f64::NAN, f64::max)
    }

    /// Z-normalised copy: zero mean and unit (population) variance — the
    /// preprocessing the paper applies to every series (§2).
    ///
    /// Constant series (zero variance) cannot be z-normalised; they map to
    /// the all-zero series, the conventional guard used by time-series
    /// toolkits (a constant carries no shape information).
    pub fn znormalized(&self) -> Self {
        let m = Moments::from_slice(&self.values);
        let mean = m.mean();
        let std = m.population_std();
        // NaN-safe: a constant (or empty) series has std 0 or NaN.
        if std.partial_cmp(&0.0) != Some(core::cmp::Ordering::Greater) {
            return Self {
                values: vec![0.0; self.values.len()].into_boxed_slice(),
            };
        }
        Self {
            values: self.values.iter().map(|v| (v - mean) / std).collect(),
        }
    }

    /// Whether the series is already z-normalised within `tol`.
    pub fn is_znormalized(&self, tol: f64) -> bool {
        if self.is_empty() {
            return false;
        }
        let m = Moments::from_slice(&self.values);
        m.mean().abs() <= tol && (m.population_std() - 1.0).abs() <= tol
    }

    /// Sub-series covering `[start, start + len)`.
    ///
    /// # Panics
    /// If the range exceeds the series length.
    pub fn slice(&self, start: usize, len: usize) -> Self {
        Self {
            values: self.values[start..start + len].to_vec().into_boxed_slice(),
        }
    }

    /// Truncated prefix of at most `len` points (used by the paper's
    /// Figure 4 setup, which truncates Gun Point series to length 6).
    pub fn truncated(&self, len: usize) -> Self {
        self.slice(0, len.min(self.len()))
    }
}

impl From<Vec<f64>> for TimeSeries {
    fn from(v: Vec<f64>) -> Self {
        Self::from_values(v)
    }
}

impl<const N: usize> From<[f64; N]> for TimeSeries {
    fn from(v: [f64; N]) -> Self {
        Self::from_values(v)
    }
}

impl AsRef<[f64]> for TimeSeries {
    fn as_ref(&self) -> &[f64] {
        &self.values
    }
}

impl std::ops::Index<usize> for TimeSeries {
    type Output = f64;

    fn index(&self, i: usize) -> &f64 {
        &self.values[i]
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn construction_and_access() {
        let s = TimeSeries::from_values([1.0, 2.0, 3.0]);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.at(1), 2.0);
        assert_eq!(s[2], 3.0);
        assert_eq!(s.values(), &[1.0, 2.0, 3.0]);
        assert_eq!(s.iter().sum::<f64>(), 6.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn rejects_nan() {
        let _ = TimeSeries::from_values([1.0, f64::NAN]);
    }

    #[test]
    fn try_from_rejects_bad_input() {
        assert!(TimeSeries::try_from_values([]).is_none());
        assert!(TimeSeries::try_from_values([f64::INFINITY]).is_none());
        assert!(TimeSeries::try_from_values([0.0, 1.0]).is_some());
    }

    #[test]
    fn znormalization() {
        let s = TimeSeries::from_values([2.0, 4.0, 6.0, 8.0]);
        let z = s.znormalized();
        assert!(z.mean().abs() < 1e-12);
        assert!((z.population_std() - 1.0).abs() < 1e-12);
        assert!(z.is_znormalized(1e-9));
        assert!(!s.is_znormalized(1e-9));
        // Shape preserved: ordering and equal spacing.
        let v = z.values();
        assert!(v.windows(2).all(|w| w[1] > w[0]));
        let gap = v[1] - v[0];
        assert!(v.windows(2).all(|w| ((w[1] - w[0]) - gap).abs() < 1e-12));
    }

    #[test]
    fn znormalize_constant_series_is_zero() {
        let s = TimeSeries::from_values([5.0; 7]);
        let z = s.znormalized();
        assert!(z.values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn min_max_mean() {
        let s = TimeSeries::from_values([3.0, -1.0, 2.0]);
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 3.0);
        assert!((s.mean() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn slicing_and_truncation() {
        let s = TimeSeries::from_values((0..10).map(|i| i as f64));
        let mid = s.slice(2, 3);
        assert_eq!(mid.values(), &[2.0, 3.0, 4.0]);
        let t = s.truncated(4);
        assert_eq!(t.len(), 4);
        let t = s.truncated(100);
        assert_eq!(t.len(), 10);
    }
}
