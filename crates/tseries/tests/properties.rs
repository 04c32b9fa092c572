//! Property-based tests for the time-series substrate.

use proptest::prelude::*;
use uts_tseries::{
    chebyshev, dtw, euclidean, euclidean_squared, euclidean_squared_early_abandon,
    exponential_moving_average, haar_forward, haar_inverse, lp_distance, manhattan, moving_average,
    paa, resample_linear, squared_cutoff, squared_cutoff_strict, DtwOptions, DtwWorkspace,
    HaarSynopsis, PaaSynopsis, SaxWord, TimeSeries,
};

fn series_strategy(min_len: usize, max_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-50.0..50.0f64, min_len..=max_len)
}

proptest! {
    // ---- metric axioms -------------------------------------------------

    #[test]
    fn euclidean_metric_axioms(x in series_strategy(1, 32), y in series_strategy(1, 32), z in series_strategy(1, 32)) {
        let n = x.len().min(y.len()).min(z.len());
        let (x, y, z) = (&x[..n], &y[..n], &z[..n]);
        let dxy = euclidean(x, y);
        let dyx = euclidean(y, x);
        prop_assert!(dxy >= 0.0);
        prop_assert!((dxy - dyx).abs() < 1e-10);                 // symmetry
        prop_assert!(euclidean(x, x) < 1e-10);                   // identity
        let dxz = euclidean(x, z);
        let dzy = euclidean(z, y);
        prop_assert!(dxy <= dxz + dzy + 1e-9);                   // triangle
    }

    #[test]
    fn lp_ordering(x in series_strategy(2, 24), y in series_strategy(2, 24)) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        // L∞ ≤ L2 ≤ L1 always.
        prop_assert!(chebyshev(x, y) <= euclidean(x, y) + 1e-9);
        prop_assert!(euclidean(x, y) <= manhattan(x, y) + 1e-9);
        // General p between 1 and 2 sits between L1 and L∞.
        let d15 = lp_distance(x, y, 1.5);
        prop_assert!(d15 <= manhattan(x, y) + 1e-9);
        prop_assert!(d15 + 1e-9 >= chebyshev(x, y));
    }

    #[test]
    fn euclidean_symmetric_under_scaling(
        x in series_strategy(1, 32),
        y in series_strategy(1, 32),
        scale in 0.01..100.0f64,
    ) {
        // Dedicated symmetry check, including under a common rescaling
        // (distances scale linearly; symmetry must be exact either way).
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        prop_assert!((euclidean(x, y) - euclidean(y, x)).abs() < 1e-12);
        let xs: Vec<f64> = x.iter().map(|v| v * scale).collect();
        let ys: Vec<f64> = y.iter().map(|v| v * scale).collect();
        prop_assert!((euclidean(&xs, &ys) - euclidean(&ys, &xs)).abs() < 1e-12);
        prop_assert!((euclidean(&xs, &ys) - scale * euclidean(x, y)).abs() < 1e-7 * (1.0 + scale));
    }

    // ---- z-normalisation ----------------------------------------------

    #[test]
    fn znorm_invariants(xs in series_strategy(2, 64)) {
        let s = TimeSeries::from_values(xs.iter().copied());
        let z = s.znormalized();
        prop_assert_eq!(z.len(), s.len());
        let spread = s.max() - s.min();
        if spread > 1e-9 {
            prop_assert!(z.mean().abs() < 1e-9);
            prop_assert!((z.population_std() - 1.0).abs() < 1e-9);
            // Idempotent.
            let zz = z.znormalized();
            for (a, b) in z.iter().zip(zz.iter()) {
                prop_assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn znorm_is_shift_scale_invariant(xs in series_strategy(3, 32), shift in -100.0..100.0f64, scale in 0.1..50.0f64) {
        let spread = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - xs.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assume!(spread > 1e-6);
        let a = TimeSeries::from_values(xs.iter().copied()).znormalized();
        let b = TimeSeries::from_values(xs.iter().map(|v| v * scale + shift)).znormalized();
        for (u, v) in a.iter().zip(b.iter()) {
            prop_assert!((u - v).abs() < 1e-7);
        }
    }

    // ---- filters --------------------------------------------------------

    #[test]
    fn ma_stays_in_value_range(xs in series_strategy(1, 48), w in 0usize..6) {
        let out = moving_average(&xs, w);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(out.iter().all(|&v| v >= lo - 1e-9 && v <= hi + 1e-9));
    }

    #[test]
    fn ema_stays_in_value_range(xs in series_strategy(1, 48), w in 0usize..6, lambda in 0.0..3.0f64) {
        let out = exponential_moving_average(&xs, w, lambda);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(out.iter().all(|&v| v >= lo - 1e-9 && v <= hi + 1e-9));
    }

    #[test]
    fn ma_reduces_total_variation(xs in series_strategy(4, 48)) {
        // Total variation never increases under averaging.
        let tv = |v: &[f64]| v.windows(2).map(|w| (w[1] - w[0]).abs()).sum::<f64>();
        let out = moving_average(&xs, 2);
        prop_assert!(tv(&out) <= tv(&xs) + 1e-9);
    }

    // ---- resampling -----------------------------------------------------

    #[test]
    fn resample_endpoints_and_range(xs in series_strategy(2, 40), target in 2usize..200) {
        let out = resample_linear(&xs, target);
        prop_assert_eq!(out.len(), target);
        prop_assert!((out[0] - xs[0]).abs() < 1e-9);
        prop_assert!((out[target - 1] - xs[xs.len() - 1]).abs() < 1e-9);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(out.iter().all(|&v| v >= lo - 1e-9 && v <= hi + 1e-9));
    }

    #[test]
    fn resample_round_trip_up_down(xs in series_strategy(2, 30)) {
        // Upsample by an integer factor, then back: recovers the original.
        let n = xs.len();
        let up = resample_linear(&xs, (n - 1) * 4 + 1);
        let back = resample_linear(&up, n);
        for (a, b) in xs.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-7);
        }
    }

    // ---- early abandonment -------------------------------------------------

    #[test]
    fn early_abandon_agrees_with_naive_on_both_sides(
        x in series_strategy(1, 32),
        y in series_strategy(1, 32),
        frac in 0.0..2.0f64,
    ) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let full = euclidean_squared(x, y);
        // A limit swept across both sides of the actual sum.
        let limit = full * frac;
        match euclidean_squared_early_abandon(x, y, limit) {
            Some(s) => {
                prop_assert_eq!(s, full);           // bit-identical sum
                prop_assert!(s <= limit);
            }
            None => prop_assert!(full > limit),
        }
        // Exactly at the sum: never abandons, returns the same bits.
        prop_assert_eq!(euclidean_squared_early_abandon(x, y, full), Some(full));
        // Just below (when representable): always abandons.
        if full > 0.0 {
            prop_assert_eq!(euclidean_squared_early_abandon(x, y, full.next_down()), None);
        }
    }

    #[test]
    fn squared_cutoff_decision_matches_sqrt_comparison(
        x in series_strategy(1, 24),
        y in series_strategy(1, 24),
        eps in 0.0..200.0f64,
    ) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let naive = euclidean(x, y) <= eps;
        let fast = euclidean_squared_early_abandon(x, y, squared_cutoff(eps)).is_some();
        prop_assert_eq!(fast, naive);
        // Strict variant mirrors `<`.
        let naive_strict = euclidean(x, y) < eps;
        let fast_strict =
            euclidean_squared_early_abandon(x, y, squared_cutoff_strict(eps)).is_some();
        prop_assert_eq!(fast_strict, naive_strict);
    }

    // ---- DTW --------------------------------------------------------------

    #[test]
    fn dtw_bounded_by_euclidean(x in series_strategy(2, 24), y in series_strategy(2, 24)) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let d = dtw(x, y, DtwOptions::default());
        prop_assert!(d >= 0.0);
        prop_assert!(d <= euclidean(x, y) + 1e-9);
    }

    #[test]
    fn dtw_band_monotone(x in series_strategy(4, 20), y in series_strategy(4, 20)) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        // Wider band ⇒ smaller-or-equal distance.
        let mut prev = f64::INFINITY;
        for band in [0usize, 1, 2, n] {
            let d = dtw(x, y, DtwOptions::with_band(band));
            prop_assert!(d <= prev + 1e-9, "band {band}: {d} > {prev}");
            prev = d;
        }
    }

    #[test]
    fn dtw_workspace_matches_one_shot(
        x in series_strategy(2, 24),
        y in series_strategy(2, 24),
        band in 0usize..8,
    ) {
        let mut ws = DtwWorkspace::new();
        // Dirty the workspace with a first (larger) computation, then
        // check the reused rows reproduce the fresh results bit-for-bit.
        let _ = ws.dtw(&x, &x, DtwOptions::default());
        for opts in [DtwOptions::default(), DtwOptions::with_band(band)] {
            let fresh = dtw(&x, &y, opts);
            let reused = ws.dtw(&x, &y, opts);
            prop_assert!(
                fresh == reused || (fresh.is_infinite() && reused.is_infinite()),
                "fresh {} vs reused {}", fresh, reused
            );
        }
    }

    #[test]
    fn dtw_symmetric(x in series_strategy(2, 16), y in series_strategy(2, 16)) {
        let d1 = dtw(&x, &y, DtwOptions::default());
        let d2 = dtw(&y, &x, DtwOptions::default());
        prop_assert!((d1 - d2).abs() < 1e-9);
    }

    #[test]
    fn dtw_identity_is_zero(x in series_strategy(1, 32), band in 0usize..8) {
        // dtw(x, x) = 0 for every band width: the diagonal path has zero
        // cost and is always admissible.
        prop_assert!(dtw(&x, &x, DtwOptions::default()) < 1e-12);
        prop_assert!(dtw(&x, &x, DtwOptions::with_band(band)) < 1e-12);
    }

    // ---- Haar -------------------------------------------------------------

    #[test]
    fn haar_round_trip(xs in series_strategy(1, 65)) {
        let c = haar_forward(&xs);
        let back = haar_inverse(&c);
        for (a, b) in xs.iter().zip(&back) {
            prop_assert!((a - b).abs() < 1e-8);
        }
    }

    #[test]
    fn haar_parseval(xs in series_strategy(1, 64)) {
        let c = haar_forward(&xs);
        let e_in: f64 = xs.iter().map(|v| v * v).sum();
        let e_out: f64 = c.iter().map(|v| v * v).sum();
        prop_assert!((e_in - e_out).abs() < 1e-7 * (1.0 + e_in));
    }

    #[test]
    fn haar_synopsis_is_lower_bound(x in series_strategy(8, 64), y in series_strategy(8, 64), k in 1usize..16) {
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let lb = HaarSynopsis::new(x, k).distance_lower_bound(&HaarSynopsis::new(y, k));
        prop_assert!(lb <= euclidean(x, y) + 1e-8);
    }

    // ---- PAA ---------------------------------------------------------------

    #[test]
    fn paa_stays_in_value_range(xs in series_strategy(2, 64), m in 1usize..32) {
        let m = m.min(xs.len());
        let out = paa(&xs, m);
        prop_assert_eq!(out.len(), m);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(out.iter().all(|&v| v >= lo - 1e-9 && v <= hi + 1e-9));
    }

    #[test]
    fn paa_preserves_global_mean(xs in series_strategy(2, 64), m in 1usize..32) {
        let m = m.min(xs.len());
        // Segment means weighted by (equal) segment mass average back to
        // the global mean.
        let out = paa(&xs, m);
        let mean_in: f64 = xs.iter().sum::<f64>() / xs.len() as f64;
        let mean_out: f64 = out.iter().sum::<f64>() / out.len() as f64;
        prop_assert!((mean_in - mean_out).abs() < 1e-9);
    }

    #[test]
    fn paa_synopsis_is_lower_bound(x in series_strategy(4, 64), y in series_strategy(4, 64), m in 1usize..80) {
        // Admissibility under the *same* slack predicate the candidate
        // index uses (relative 1e-9 + absolute 1e-12), which is much
        // tighter than a flat 1e-8 — segment counts range through and
        // beyond n so the m == n identity case is exercised too.
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let m = m.min(n);
        let d = euclidean(x, y);
        let lb = PaaSynopsis::new(x, m).distance_lower_bound(&PaaSynopsis::new(y, m));
        prop_assert!(lb <= d * (1.0 + 1e-9) + 1e-12, "m={m}: lb={lb}, full={d}");
        if m == n {
            // Identity PAA: the bound collapses to the exact distance.
            prop_assert!((lb - d).abs() <= 1e-9 * (1.0 + d), "m==n: lb={lb}, full={d}");
        }
    }

    #[test]
    fn paa_synopsis_on_constant_series(c1 in -50.0..50.0f64, c2 in -50.0..50.0f64, n in 1usize..64, m in 1usize..16) {
        // Degenerate flat series: every segment mean equals the constant,
        // so the bound is exactly √n·|c1 − c2| — tight at every m.
        let m = m.min(n);
        let x = vec![c1; n];
        let y = vec![c2; n];
        let lb = PaaSynopsis::new(&x, m).distance_lower_bound(&PaaSynopsis::new(&y, m));
        let d = euclidean(&x, &y);
        prop_assert!(lb <= d * (1.0 + 1e-9) + 1e-12, "lb={lb} d={d}");
        prop_assert!((lb - d).abs() <= 1e-9 * (1.0 + d), "constant series bound is tight");
        // Self-distance is exactly zero.
        prop_assert_eq!(PaaSynopsis::new(&x, m).distance_lower_bound(&PaaSynopsis::new(&x, m)), 0.0);
    }

    #[test]
    fn paa_is_linear(
        x in series_strategy(2, 64),
        y in series_strategy(2, 64),
        m in 1usize..32,
    ) {
        // PAA is a fixed linear map of the values (fractional overlap
        // weights independent of the data), so segment means of a
        // difference equal the difference of segment means. This is what
        // lets the candidate index bound a *distance* from two
        // independently-stored PAA views — for Euclidean and for any
        // per-segment cost pushed through the DUST envelope alike.
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let m = m.min(n);
        let diff: Vec<f64> = x.iter().zip(y).map(|(a, b)| a - b).collect();
        let lhs = paa(&diff, m);
        let px = paa(x, m);
        let py = paa(y, m);
        for (s, v) in lhs.iter().enumerate() {
            let rhs = px[s] - py[s];
            prop_assert!(
                (v - rhs).abs() <= 1e-9 * (1.0 + v.abs()),
                "segment {s}: paa(x−y)={v} vs paa(x)−paa(y)={rhs}"
            );
        }
    }

    #[test]
    fn paa_l1_mass_inequality(
        x in series_strategy(2, 64),
        y in series_strategy(2, 64),
        m in 1usize..32,
    ) {
        // (n/m)·Σ_s |paa(x−y)_s| ≤ Σᵢ |Δᵢ|: each segment mean's
        // magnitude is at most the mean magnitude of the points it
        // averages (triangle inequality), and the overlap weights
        // redistribute exactly n/m points of mass per segment. This is
        // the step of the index's Jensen chain that converts per-point
        // gaps into per-segment gaps without breaking admissibility.
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let m = m.min(n);
        let diff: Vec<f64> = x.iter().zip(y).map(|(a, b)| a - b).collect();
        let seg_mass: f64 = paa(&diff, m).iter().map(|v| v.abs()).sum::<f64>()
            * (n as f64 / m as f64);
        let point_mass: f64 = diff.iter().map(|v| v.abs()).sum();
        prop_assert!(
            seg_mass <= point_mass * (1.0 + 1e-9) + 1e-12,
            "n={n} m={m}: segment mass {seg_mass} > point mass {point_mass}"
        );
    }

    // ---- SAX ---------------------------------------------------------------

    #[test]
    fn sax_mindist_is_lower_bound(
        x in series_strategy(8, 64),
        y in series_strategy(8, 64),
        w in 2usize..12,
        a in 2u8..12,
    ) {
        // Alphabet starts at the 2-symbol minimum (single breakpoint at
        // zero — the coarsest quantisation the index may configure) and
        // admissibility uses the index's slack predicate, not a loose
        // absolute epsilon.
        let n = x.len().min(y.len());
        let (x, y) = (&x[..n], &y[..n]);
        let w = w.min(n);
        let wx = SaxWord::encode(x, w, a);
        let wy = SaxWord::encode(y, w, a);
        let lb = wx.mindist(&wy);
        let d = euclidean(x, y);
        prop_assert!(lb >= 0.0);
        prop_assert!(lb <= d * (1.0 + 1e-9) + 1e-12, "w={w} a={a}: {lb} > {d}");
        // Symmetry.
        prop_assert!((wx.mindist(&wy) - wy.mindist(&wx)).abs() < 1e-12);
        // Identical words bound to zero: a word's mindist to itself.
        prop_assert_eq!(wx.mindist(&wx), 0.0);
    }

    #[test]
    fn sax_mindist_constant_series_is_zero(c in -50.0..50.0f64, n in 2usize..48, w in 1usize..10, a in 2u8..12) {
        // Two identical constant series quantise to the same word, and
        // mindist between equal symbols must be exactly zero (adjacent
        // symbols also bound to zero by construction, so this checks the
        // degenerate all-same-symbol diagonal).
        let w = w.min(n);
        let x = vec![c; n];
        let wx = SaxWord::encode(&x, w, a);
        let wy = SaxWord::encode(&x, w, a);
        prop_assert_eq!(wx.symbols(), wy.symbols());
        prop_assert_eq!(wx.mindist(&wy), 0.0);
    }

    #[test]
    fn sax_symbols_in_alphabet(xs in series_strategy(4, 48), w in 1usize..10, a in 2u8..20) {
        let w = w.min(xs.len());
        let word = SaxWord::encode(&xs, w, a);
        prop_assert_eq!(word.symbols().len(), w);
        prop_assert!(word.symbols().iter().all(|&s| s < a));
        prop_assert_eq!(word.to_letters().chars().count() >= w, true);
    }
}
