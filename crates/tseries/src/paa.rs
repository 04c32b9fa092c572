//! Piecewise Aggregate Approximation (PAA).
//!
//! The other classical time-series synopsis (Keogh et al., KAIS 2001 —
//! the paper's ref. \[13\] on dimensionality reduction for fast similarity
//! search), complementing the Haar transform in [`crate::haar`]: the
//! series is split into `m` (near-)equal segments and each segment is
//! replaced by its mean. Scaled appropriately, PAA distances lower-bound
//! the Euclidean distance, which makes PAA prefixes usable as a
//! no-false-dismissal pre-filter exactly like the Haar synopsis.

use crate::series::TimeSeries;

/// Reduces `values` to `segments` averages (segment boundaries follow the
/// standard fractional-split convention so any `segments ≤ len` works,
/// not just divisors).
///
/// # Panics
/// If `values` is empty, `segments` is zero, or `segments > len`.
///
/// ```
/// use uts_tseries::paa::paa;
/// assert_eq!(paa(&[1.0, 3.0, 5.0, 7.0], 2), vec![2.0, 6.0]);
/// ```
pub fn paa(values: &[f64], segments: usize) -> Vec<f64> {
    assert!(!values.is_empty(), "PAA of empty series");
    assert!(segments > 0, "PAA needs at least one segment");
    assert!(
        segments <= values.len(),
        "more segments ({segments}) than points ({})",
        values.len()
    );
    let n = values.len();
    if segments == n {
        return values.to_vec();
    }
    // Fractional assignment on the segment axis: point i covers
    // [i·m/n, (i+1)·m/n), a width of m/n < 1, so it touches at most two
    // segments. Each segment spans exactly one unit of the segment axis,
    // so the per-segment overlap weights sum to 1 and the weighted sums
    // are already the segment means.
    let m = segments as f64;
    let nf = n as f64;
    let mut means = vec![0.0f64; segments];
    for (i, &v) in values.iter().enumerate() {
        let lo = i as f64 * m / nf;
        let hi = (i + 1) as f64 * m / nf;
        let s_lo = lo.floor() as usize;
        let s_hi = (hi.ceil() as usize).min(segments) - 1;
        if s_lo == s_hi {
            means[s_lo] += v * (hi - lo);
        } else {
            let boundary = (s_lo + 1) as f64;
            means[s_lo] += v * (boundary - lo);
            means[s_hi] += v * (hi - boundary);
        }
    }
    means
}

/// A PAA synopsis carrying the scaling needed for its lower-bound
/// distance.
#[derive(Debug, Clone, PartialEq)]
pub struct PaaSynopsis {
    means: Vec<f64>,
    original_len: usize,
}

impl PaaSynopsis {
    /// Builds a `segments`-segment synopsis.
    pub fn new(values: &[f64], segments: usize) -> Self {
        Self {
            means: paa(values, segments),
            original_len: values.len(),
        }
    }

    /// The segment means.
    pub fn means(&self) -> &[f64] {
        &self.means
    }

    /// Length of the original series.
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// Lower bound on the Euclidean distance between the original series:
    /// `sqrt(n/m) · ‖paa(x) − paa(y)‖ ≤ ‖x − y‖` (Keogh's PAA bound; a
    /// consequence of Jensen's inequality per segment).
    ///
    /// # Panics
    /// If the synopses have different segment counts or original lengths.
    pub fn distance_lower_bound(&self, other: &PaaSynopsis) -> f64 {
        assert_eq!(
            self.original_len, other.original_len,
            "synopses describe series of different lengths"
        );
        assert_eq!(
            self.means.len(),
            other.means.len(),
            "synopses use different segment counts"
        );
        let scale = (self.original_len as f64 / self.means.len() as f64).sqrt();
        scale * crate::distance::euclidean(&self.means, &other.means)
    }
}

/// [`paa`] lifted to [`TimeSeries`].
pub fn paa_series(series: &TimeSeries, segments: usize) -> TimeSeries {
    TimeSeries::from_values(paa(series.values(), segments))
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::distance::euclidean;

    #[test]
    fn exact_divisor_segments() {
        assert_eq!(paa(&[1.0, 3.0, 5.0, 7.0], 2), vec![2.0, 6.0]);
        assert_eq!(paa(&[2.0, 2.0, 8.0, 8.0, 5.0, 5.0], 3), vec![2.0, 8.0, 5.0]);
    }

    #[test]
    fn identity_when_segments_equal_len() {
        let xs = [1.0, -2.0, 3.0];
        assert_eq!(paa(&xs, 3), xs.to_vec());
    }

    #[test]
    fn single_segment_is_mean() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let out = paa(&xs, 1);
        assert_eq!(out.len(), 1);
        assert!((out[0] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn non_divisor_segments_preserve_mass() {
        // The weighted split must preserve the overall mean.
        let xs: Vec<f64> = (0..7).map(|i| (i as f64).powi(2)).collect();
        let out = paa(&xs, 3);
        assert_eq!(out.len(), 3);
        let mean_in: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let mean_out: f64 = out.iter().sum::<f64>() / out.len() as f64;
        assert!(
            (mean_in - mean_out).abs() < 1e-12,
            "{mean_in} vs {mean_out}"
        );
    }

    #[test]
    fn constant_series_stays_constant() {
        for m in [1, 2, 3, 5, 9] {
            let out = paa(&[4.0; 9], m);
            assert!(out.iter().all(|&v| (v - 4.0).abs() < 1e-12), "m={m}");
        }
    }

    #[test]
    fn lower_bound_holds_and_tightens() {
        let x: Vec<f64> = (0..64)
            .map(|i| (i as f64 / 5.0).sin() + 0.1 * (i as f64))
            .collect();
        let y: Vec<f64> = (0..64).map(|i| (i as f64 / 4.0).cos() * 1.4).collect();
        let full = euclidean(&x, &y);
        let mut prev = 0.0;
        for m in [1, 2, 4, 8, 16, 32, 64] {
            let lb = PaaSynopsis::new(&x, m).distance_lower_bound(&PaaSynopsis::new(&y, m));
            assert!(lb <= full + 1e-9, "m={m}: lb {lb} > full {full}");
            assert!(lb + 1e-9 >= prev, "m={m}: bound not monotone");
            prev = lb;
        }
        // Full-resolution PAA recovers the exact distance.
        assert!((prev - full).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "more segments")]
    fn too_many_segments_panics() {
        let _ = paa(&[1.0, 2.0], 3);
    }
}
