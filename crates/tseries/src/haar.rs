//! Orthonormal Haar wavelet transform.
//!
//! The paper notes (§4.3) that PROUD can run "on top of a Haar wavelet
//! synopsis" with CPU time at or below Euclidean while keeping accuracy.
//! The orthonormal Haar transform preserves the Euclidean distance
//! (Parseval), so any coefficient prefix yields a *lower bound* on the
//! true distance — a conservative pruning filter with no false
//! dismissals. [`HaarSynopsis`] packages exactly that.

/// Forward orthonormal Haar transform.
///
/// The input is zero-padded to the next power of two (padding with zeros
/// keeps the transform linear and the inverse exact on the padded
/// domain). Output layout is the standard recursive one: overall average
/// coefficient first, then detail coefficients coarsest → finest.
///
/// Energy (the squared L2 norm) is preserved for power-of-two inputs:
/// `‖haar(x)‖² = ‖x‖²`.
pub fn haar_forward(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "haar transform of empty input");
    let n = values.len().next_power_of_two();
    let mut data = values.to_vec();
    data.resize(n, 0.0);
    let mut len = n;
    let mut tmp = vec![0.0; n];
    let inv_sqrt2 = core::f64::consts::FRAC_1_SQRT_2;
    while len > 1 {
        let half = len / 2;
        for i in 0..half {
            let a = data[2 * i];
            let b = data[2 * i + 1];
            tmp[i] = (a + b) * inv_sqrt2;
            tmp[half + i] = (a - b) * inv_sqrt2;
        }
        data[..len].copy_from_slice(&tmp[..len]);
        len = half;
    }
    data
}

/// Inverse orthonormal Haar transform; exact inverse of [`haar_forward`]
/// on power-of-two inputs.
pub fn haar_inverse(coeffs: &[f64]) -> Vec<f64> {
    assert!(
        coeffs.len().is_power_of_two(),
        "haar inverse requires power-of-two coefficient count, got {}",
        coeffs.len()
    );
    let n = coeffs.len();
    let mut data = coeffs.to_vec();
    let mut len = 2;
    let mut tmp = vec![0.0; n];
    let inv_sqrt2 = core::f64::consts::FRAC_1_SQRT_2;
    while len <= n {
        let half = len / 2;
        for i in 0..half {
            let avg = data[i];
            let diff = data[half + i];
            tmp[2 * i] = (avg + diff) * inv_sqrt2;
            tmp[2 * i + 1] = (avg - diff) * inv_sqrt2;
        }
        data[..len].copy_from_slice(&tmp[..len]);
        len *= 2;
    }
    data
}

/// A `k`-coefficient Haar prefix synopsis of a series.
///
/// Because the transform is orthonormal, the Euclidean distance between
/// two prefixes lower-bounds the Euclidean distance between the full
/// series: `‖P_k(X) − P_k(Y)‖ ≤ ‖X − Y‖`. PROUD's synopsis mode uses this
/// as a cheap pre-filter.
#[derive(Debug, Clone, PartialEq)]
pub struct HaarSynopsis {
    coeffs: Vec<f64>,
    original_len: usize,
}

impl HaarSynopsis {
    /// Builds a synopsis keeping the first `k` (coarsest) coefficients.
    ///
    /// `k` is clamped to the padded transform length.
    pub fn new(values: &[f64], k: usize) -> Self {
        let full = haar_forward(values);
        let k = k.clamp(1, full.len());
        Self {
            coeffs: full[..k].to_vec(),
            original_len: values.len(),
        }
    }

    /// The retained coefficients (coarsest first).
    pub fn coefficients(&self) -> &[f64] {
        &self.coeffs
    }

    /// Length of the original series.
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// Lower bound on the Euclidean distance between the two original
    /// series.
    ///
    /// # Panics
    /// If the synopses have different sizes or original lengths (they
    /// would not describe comparable series).
    pub fn distance_lower_bound(&self, other: &HaarSynopsis) -> f64 {
        assert_eq!(
            self.original_len, other.original_len,
            "synopses describe series of different lengths"
        );
        assert_eq!(
            self.coeffs.len(),
            other.coeffs.len(),
            "synopses keep different coefficient counts"
        );
        crate::distance::euclidean(&self.coeffs, &other.coeffs)
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::distance::euclidean;

    #[test]
    fn round_trip_power_of_two() {
        let xs = [4.0, 2.0, 5.0, 5.0, 1.0, 0.0, -3.0, 2.0];
        let c = haar_forward(&xs);
        let back = haar_inverse(&c);
        for (a, b) in xs.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn round_trip_padded() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let c = haar_forward(&xs);
        assert_eq!(c.len(), 8);
        let back = haar_inverse(&c);
        for (a, b) in xs.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
        // Padding reconstructs as zeros.
        for &v in &back[5..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn energy_preservation() {
        let xs = [0.5, -1.5, 2.0, 0.0, 3.0, -2.0, 1.0, 1.0];
        let c = haar_forward(&xs);
        let e_in: f64 = xs.iter().map(|v| v * v).sum();
        let e_out: f64 = c.iter().map(|v| v * v).sum();
        assert!((e_in - e_out).abs() < 1e-10);
    }

    #[test]
    fn first_coefficient_is_scaled_mean() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let c = haar_forward(&xs);
        // Orthonormal overall-average coefficient = sum/√n.
        assert!((c[0] - 10.0 / 2.0).abs() < 1e-12);
    }

    #[test]
    fn distance_preservation_full_transform() {
        let x = [0.1, 0.9, -0.4, 1.2, 0.0, -0.8, 0.3, 0.5];
        let y = [1.0, 0.0, 0.4, -0.2, 0.7, 0.1, -0.3, 0.9];
        let cx = haar_forward(&x);
        let cy = haar_forward(&y);
        assert!((euclidean(&x, &y) - euclidean(&cx, &cy)).abs() < 1e-10);
    }

    #[test]
    fn synopsis_lower_bound_tightens_with_k() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64 / 3.0).sin()).collect();
        let y: Vec<f64> = (0..32).map(|i| (i as f64 / 3.0 + 0.7).cos()).collect();
        let full = euclidean(&x, &y);
        let mut prev = 0.0;
        for k in [1, 2, 4, 8, 16, 32] {
            let lb = HaarSynopsis::new(&x, k).distance_lower_bound(&HaarSynopsis::new(&y, k));
            assert!(lb <= full + 1e-10, "k={k}: lb={lb} > full={full}");
            assert!(lb + 1e-12 >= prev, "bound must be monotone in k");
            prev = lb;
        }
        // Full coefficient set recovers the exact distance.
        assert!((prev - full).abs() < 1e-10);
    }

    #[test]
    #[should_panic(expected = "different lengths")]
    fn mismatched_synopses_panic() {
        let a = HaarSynopsis::new(&[1.0; 8], 4);
        let b = HaarSynopsis::new(&[1.0; 16], 4);
        let _ = a.distance_lower_bound(&b);
    }
}
