//! Dynamic Time Warping (Berndt & Clifford, 1994 — the paper's ref. \[6\]).
//!
//! MUNICH applies its probabilistic framework to both Euclidean and DTW
//! distances, and DUST "can be employed to compute the Dynamic Time
//! Warping distance" (paper §3.2). The implementation here is therefore
//! generic over the *local cost*: [`dtw_with_cost`] takes any
//! `cost(i, j) → f64`, which lets `uts-core` plug in squared value
//! differences (classic DTW), squared `dust(xᵢ, yⱼ)` values (DUST-DTW),
//! or interval min/max costs (MUNICH's bounding DTW) without duplicating
//! the dynamic program.

/// Options controlling the DTW dynamic program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DtwOptions {
    /// Sakoe–Chiba band half-width: cell `(i, j)` is admissible iff
    /// `|i − j| ≤ band`. `None` (the default) means unconstrained.
    pub band: Option<usize>,
}

impl DtwOptions {
    /// Unconstrained warping.
    pub const UNCONSTRAINED: DtwOptions = DtwOptions { band: None };

    /// Sakoe–Chiba band of half-width `r`.
    pub fn with_band(r: usize) -> Self {
        Self { band: Some(r) }
    }
}

/// Reusable scratch space for the DTW dynamic program: the two rolling
/// rows, kept between calls so a batched query scan (one query against a
/// whole collection) is allocation-free in steady state.
///
/// The kernel never clears a full row. Under a Sakoe–Chiba band of
/// half-width `r` each row admits only `2r + 1` cells; instead of
/// resetting all `m` cells per row (the old behaviour), reads outside the
/// previous row's band window are guarded and treated as `+∞`, so cells
/// holding stale values from earlier rows — or earlier *calls* — are
/// never observed.
#[derive(Debug, Clone, Default)]
pub struct DtwWorkspace {
    prev: Vec<f64>,
    curr: Vec<f64>,
}

impl DtwWorkspace {
    /// Creates an empty workspace; rows grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// DTW over a generic local cost matrix, returned as the *accumulated
    /// cost* of the optimal warping path (no square root applied — the
    /// cost semantics belong to the caller).
    ///
    /// Classic O(n·m) dynamic program with two rolling rows; step pattern
    /// is the standard (match / insert / delete) recurrence with unit
    /// slope weights and boundary conditions `(0,0) → (n−1,m−1)`.
    ///
    /// Returns `f64::INFINITY` when the band admits no complete path
    /// (possible when `|n − m| > band`); panics on empty inputs.
    pub fn accumulated_cost(
        &mut self,
        n: usize,
        m: usize,
        cost: impl Fn(usize, usize) -> f64,
        opts: DtwOptions,
    ) -> f64 {
        assert!(n > 0 && m > 0, "DTW requires non-empty series");
        if let Some(band) = opts.band {
            if n.abs_diff(m) > band {
                return f64::INFINITY;
            }
        }
        if self.prev.len() < m {
            self.prev.resize(m, f64::INFINITY);
            self.curr.resize(m, f64::INFINITY);
        }
        // Valid window of the previous row: reads outside it would see
        // stale cells (from row i − 2 or a previous call) and must
        // resolve to +∞ instead.
        let (mut prev_lo, mut prev_hi) = (0usize, 0usize);
        for i in 0..n {
            let (j_lo, j_hi) = match opts.band {
                Some(b) => (i.saturating_sub(b), (i + b).min(m - 1)),
                None => (0, m - 1),
            };
            for j in j_lo..=j_hi {
                let c = cost(i, j);
                let best_prev = if i == 0 && j == 0 {
                    0.0
                } else {
                    let up = if i > 0 && j >= prev_lo && j <= prev_hi {
                        self.prev[j]
                    } else {
                        f64::INFINITY
                    };
                    // Within the row, only cells written this pass are
                    // readable: j_lo's left neighbour is out of band.
                    let left = if j > j_lo {
                        self.curr[j - 1]
                    } else {
                        f64::INFINITY
                    };
                    let diag = if i > 0 && j > prev_lo && j - 1 <= prev_hi {
                        self.prev[j - 1]
                    } else {
                        f64::INFINITY
                    };
                    up.min(left).min(diag)
                };
                self.curr[j] = c + best_prev;
            }
            core::mem::swap(&mut self.prev, &mut self.curr);
            (prev_lo, prev_hi) = (j_lo, j_hi);
        }
        // The last row's window always covers m − 1 once the |n − m| ≤
        // band guard has passed.
        debug_assert!((prev_lo..=prev_hi).contains(&(m - 1)));
        self.prev[m - 1]
    }

    /// Classic DTW between two value series with squared local cost (the
    /// workspace-reusing form of [`dtw`]).
    pub fn dtw(&mut self, x: &[f64], y: &[f64], opts: DtwOptions) -> f64 {
        self.accumulated_cost(
            x.len(),
            y.len(),
            |i, j| {
                let d = x[i] - y[j];
                d * d
            },
            opts,
        )
        .sqrt()
    }
}

/// DTW over a generic local cost matrix — one-shot form of
/// [`DtwWorkspace::accumulated_cost`] (allocates its rows per call).
pub fn dtw_with_cost(
    n: usize,
    m: usize,
    cost: impl Fn(usize, usize) -> f64,
    opts: DtwOptions,
) -> f64 {
    DtwWorkspace::new().accumulated_cost(n, m, cost, opts)
}

/// Classic DTW between two value series with squared local cost; the
/// result is the square root of the accumulated squared differences, so
/// for equal-length series and `band = 0` it coincides with the Euclidean
/// distance.
///
/// ```
/// use uts_tseries::{dtw, DtwOptions};
/// let x = [0.0, 1.0, 2.0];
/// let y = [0.0, 1.0, 2.0];
/// assert_eq!(dtw(&x, &y, DtwOptions::default()), 0.0);
/// ```
pub fn dtw(x: &[f64], y: &[f64], opts: DtwOptions) -> f64 {
    dtw_with_cost(
        x.len(),
        y.len(),
        |i, j| {
            let d = x[i] - y[j];
            d * d
        },
        opts,
    )
    .sqrt()
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::distance::euclidean;

    #[test]
    fn identical_series_distance_zero() {
        let x = [1.0, 2.0, 3.0, 2.0, 1.0];
        assert_eq!(dtw(&x, &x, DtwOptions::default()), 0.0);
        assert_eq!(dtw(&x, &x, DtwOptions::with_band(1)), 0.0);
    }

    #[test]
    fn band_zero_equals_euclidean() {
        let x = [0.3, -1.0, 2.0, 0.7];
        let y = [1.0, 0.0, -0.5, 0.2];
        let d = dtw(&x, &y, DtwOptions::with_band(0));
        assert!((d - euclidean(&x, &y)).abs() < 1e-12);
    }

    #[test]
    fn dtw_is_leq_euclidean() {
        // More warping freedom can only lower the distance.
        let x = [0.0, 1.0, 0.0, -1.0, 0.0, 1.5];
        let y = [0.0, 0.0, 1.0, 0.0, -1.0, 0.0];
        let free = dtw(&x, &y, DtwOptions::default());
        let banded = dtw(&x, &y, DtwOptions::with_band(2));
        let eucl = euclidean(&x, &y);
        assert!(free <= banded + 1e-12);
        assert!(banded <= eucl + 1e-12);
    }

    #[test]
    fn shifted_pattern_matches_under_warping() {
        // A spike shifted by one position: Euclidean is large, DTW small.
        let x = [0.0, 0.0, 5.0, 0.0, 0.0, 0.0];
        let y = [0.0, 0.0, 0.0, 5.0, 0.0, 0.0];
        let e = euclidean(&x, &y);
        let d = dtw(&x, &y, DtwOptions::default());
        assert!(d < 1e-9, "DTW should absorb the shift, got {d}");
        assert!(e > 7.0);
    }

    #[test]
    fn unequal_lengths_supported() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [0.0, 3.0];
        let d = dtw(&x, &y, DtwOptions::default());
        assert!(d.is_finite());
        // Band smaller than the length difference admits no path.
        let d = dtw(&x, &y, DtwOptions::with_band(1));
        assert!(d.is_infinite());
    }

    #[test]
    fn custom_cost_plugs_in() {
        // Constant cost 1: the optimal path length for n = m with diagonal
        // moves allowed is exactly n.
        let d = dtw_with_cost(4, 4, |_, _| 1.0, DtwOptions::default());
        assert_eq!(d, 4.0);
        // With band 0 the path is forced diagonal: still n cells.
        let d = dtw_with_cost(4, 4, |_, _| 1.0, DtwOptions::with_band(0));
        assert_eq!(d, 4.0);
    }

    #[test]
    fn workspace_reuse_matches_fresh_calls() {
        // A single workspace driven across pairs of varying length and
        // band must reproduce the one-shot results exactly — stale cells
        // from earlier (larger) calls must never leak into later ones.
        let series: Vec<Vec<f64>> = (0..6)
            .map(|k| {
                (0..(8 + 3 * k))
                    .map(|i| ((i as f64) * 0.37 + k as f64).sin() * (1.0 + 0.1 * k as f64))
                    .collect()
            })
            .collect();
        let mut ws = DtwWorkspace::new();
        for x in &series {
            for y in &series {
                for opts in [
                    DtwOptions::default(),
                    DtwOptions::with_band(0),
                    DtwOptions::with_band(2),
                    DtwOptions::with_band(5),
                ] {
                    let fresh = dtw(x, y, opts);
                    let reused = ws.dtw(x, y, opts);
                    assert!(
                        fresh == reused || (fresh.is_infinite() && reused.is_infinite()),
                        "fresh {fresh} vs reused {reused}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_series_panics() {
        let _ = dtw(&[], &[1.0], DtwOptions::default());
    }
}
