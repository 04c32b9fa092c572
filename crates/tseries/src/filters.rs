//! Moving-average filters (paper Eq. 15–16).
//!
//! "The moving average is among the simplest filters for noise reduction
//! in signal processing" (§5). These are the *certain* filters; the
//! uncertainty-aware UMA/UEMA variants (Eq. 17–18), which additionally
//! weight by the per-point error standard deviation, live in
//! `uts-core::uma`, which runs its own window loop over values and σs.

/// Moving average with window half-width `w` (full window `2w + 1`,
/// paper Eq. 15).
///
/// At the series boundaries the window is truncated to the valid index
/// range and the denominator counts only the in-range terms (the paper
/// does not pin down edge handling; truncation is the standard choice and
/// keeps the filter mean-preserving).
///
/// `w = 0` returns the input unchanged.
///
/// ```
/// use uts_tseries::moving_average;
/// let out = moving_average(&[0.0, 3.0, 0.0, 3.0, 0.0], 1);
/// assert_eq!(out[2], 2.0); // (3 + 0 + 3) / 3
/// assert_eq!(out[0], 1.5); // truncated window: (0 + 3) / 2
/// ```
pub fn moving_average(values: &[f64], w: usize) -> Vec<f64> {
    weighted_window_filter(values, w, |_offset| 1.0)
}

/// Exponential moving average with window half-width `w` and decay `λ`
/// (paper Eq. 16): weights `e^{−λ|j−i|}` normalised over the window.
///
/// `λ = 0` reduces to the plain moving average.
pub fn exponential_moving_average(values: &[f64], w: usize, lambda: f64) -> Vec<f64> {
    assert!(
        lambda >= 0.0,
        "decay factor must be non-negative, got {lambda}"
    );
    weighted_window_filter(values, w, |offset| {
        (-lambda * offset.unsigned_abs() as f64).exp()
    })
}

/// Generic centred-window weighted filter:
/// `out[i] = Σ_j weight(j−i)·v[j] / Σ_j weight(j−i)`, `j ∈ [i−w, i+w]`
/// clamped to the series.
///
/// `weight` receives the signed offset `j − i` and must return a
/// non-negative finite weight; a zero total weight in some window (all
/// weights zero) is a caller bug and panics.
pub fn weighted_window_filter(values: &[f64], w: usize, weight: impl Fn(isize) -> f64) -> Vec<f64> {
    let n = values.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(w);
        let hi = (i + w).min(n.saturating_sub(1));
        let mut num = 0.0;
        let mut den = 0.0;
        for (j, &v) in values.iter().enumerate().take(hi + 1).skip(lo) {
            let wt = weight(j as isize - i as isize);
            debug_assert!(wt >= 0.0 && wt.is_finite(), "invalid filter weight {wt}");
            num += wt * v;
            den += wt;
        }
        assert!(den > 0.0, "window at index {i} has zero total weight");
        out.push(num / den);
    }
    out
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn ma_zero_window_is_identity() {
        let xs = [1.0, -2.0, 3.5];
        assert_eq!(moving_average(&xs, 0), xs.to_vec());
    }

    #[test]
    fn ma_interior_and_edges() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let out = moving_average(&xs, 1);
        assert!((out[0] - 1.5).abs() < 1e-12);
        assert!((out[1] - 2.0).abs() < 1e-12);
        assert!((out[2] - 3.0).abs() < 1e-12);
        assert!((out[4] - 4.5).abs() < 1e-12);
    }

    #[test]
    fn ma_window_larger_than_series() {
        let xs = [1.0, 2.0, 3.0];
        let out = moving_average(&xs, 10);
        for &v in &out {
            assert!((v - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn ma_preserves_constants() {
        let xs = [4.2; 9];
        for w in 0..5 {
            assert!(moving_average(&xs, w)
                .iter()
                .all(|&v| (v - 4.2).abs() < 1e-12));
        }
    }

    #[test]
    fn ema_zero_lambda_equals_ma() {
        let xs: Vec<f64> = (0..20).map(|i| ((i * i) % 7) as f64).collect();
        let a = moving_average(&xs, 3);
        let b = exponential_moving_average(&xs, 3, 0.0);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn ema_weights_centre_more_with_larger_lambda() {
        // An impulse at the centre: larger λ keeps more of the impulse.
        let mut xs = vec![0.0; 11];
        xs[5] = 1.0;
        let small = exponential_moving_average(&xs, 3, 0.1)[5];
        let large = exponential_moving_average(&xs, 3, 2.0)[5];
        assert!(large > small, "large-λ centre weight {large} <= {small}");
    }

    #[test]
    fn ema_smooths_noise() {
        // Alternating ±1: any averaging with w > 0 must shrink the amplitude.
        let xs: Vec<f64> = (0..50)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect();
        let out = exponential_moving_average(&xs, 2, 0.5);
        let max_abs = out.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        assert!(max_abs < 1.0);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        assert!(moving_average(&[], 3).is_empty());
        assert!(exponential_moving_average(&[], 3, 1.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_lambda_panics() {
        let _ = exponential_moving_average(&[1.0], 1, -0.5);
    }
}
