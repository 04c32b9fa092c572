//! Strategy coherence for MUNICH, property-tested over random
//! multi-observation pairs.
//!
//! The strategies' contract (module docs of `uts_core::munich`): Auto,
//! with a support limit that keeps every generated pair on the exact DP,
//! is ground truth; Convolution's `[lo, hi]` must bracket it; MonteCarlo
//! lands within a seeded tolerance; and the pruned decision pipeline
//! (`try_decide_within`) equals the reference decision (`matches`) for every
//! strategy, ε, and τ — including τ sitting exactly on the computed
//! probability. The long-series property drives the pipeline's moment
//! rung at production length, where it decides most pairs, and the
//! convolution fold's shortcuts and count bounds on short series.

use proptest::prelude::*;
use uts_core::munich::{MbiEnvelope, Munich, MunichConfig, MunichStrategy};
use uts_uncertain::MultiObsSeries;

/// Carves `n` rows of `s` samples out of a flat value pool.
fn carve(pool: &[f64], n: usize, s: usize) -> MultiObsSeries {
    MultiObsSeries::from_rows((0..n).map(|i| pool[i * s..(i + 1) * s].to_vec()).collect())
}

/// Equal-length pair with (possibly) different sample counts per side —
/// MUNICH supports `s_x ≠ s_y`, and the cross-product arithmetic must
/// not care. Values stay in a modest range so ε sweeps hit both tails
/// and the interior. (The vendored proptest has no flat-map, so sizes
/// and a sufficiently large value pool are drawn together and the rows
/// carved out in `prop_map`.)
fn pair() -> impl Strategy<Value = (MultiObsSeries, MultiObsSeries)> {
    (
        2usize..6,
        1usize..4,
        1usize..4,
        prop::collection::vec(-3.0..3.0f64, 30),
    )
        .prop_map(|(n, sx, sy, pool)| (carve(&pool, n, sx), carve(&pool[15..], n, sy)))
}

/// A pair of 8 to 160 timestamps — from series short enough that the
/// moment rung's brackets are wide and most pairs reach the convolution
/// fold, to production length — with 2–4 samples per side, on a
/// common offset up to ±1e4 (so a moment computed from raw values would
/// lose ~7 digits to cancellation) with per-sample noise down to σ = 1e-3.
/// `y` is `x`'s curve scaled and phase-shifted, so pairs range from
/// near-identical to far apart.
fn long_pair() -> impl Strategy<Value = (MultiObsSeries, MultiObsSeries)> {
    (
        (8usize..161, 2usize..5, 2usize..5),
        (-1e4..1e4f64, -3.0..0.0f64),
        (0.0..1.5f64, 0.5..1.5f64),
        prop::collection::vec(-1.0..1.0f64, 2 * 160 * 4),
    )
        .prop_map(
            |((n, sx, sy), (offset, log_sigma), (phase, scale), noise)| {
                let sigma = 10f64.powf(log_sigma);
                let rows = |s: usize, noise: &[f64], curve: &dyn Fn(f64) -> f64| {
                    (0..n)
                        .map(|i| {
                            let base = offset + curve(i as f64);
                            (0..s).map(|k| base + sigma * noise[i * s + k]).collect()
                        })
                        .collect()
                };
                let x = rows(sx, &noise, &|t| (t / 6.0).sin());
                let y = rows(sy, &noise[160 * 4..], &|t| scale * (t / 6.0 + phase).sin());
                (MultiObsSeries::from_rows(x), MultiObsSeries::from_rows(y))
            },
        )
}

/// `E[dist²]` over every materialisation pair, for placing ε around
/// the bulk of the distribution.
fn mean_sq_distance(x: &MultiObsSeries, y: &MultiObsSeries) -> f64 {
    (0..x.len())
        .map(|i| {
            let (xr, yr) = (x.row(i), y.row(i));
            let sum: f64 = xr
                .iter()
                .flat_map(|a| yr.iter().map(move |b| (a - b) * (a - b)))
                .sum();
            sum / (xr.len() * yr.len()) as f64
        })
        .sum()
}

/// `Σᵢ min Cᵢ`: the smallest squared distance of any materialisation
/// pair. Just above it, every convolution window holds a single bin or
/// none: the ceil-rounded histogram's live window is empty from the
/// start while the floor-rounded one's is not.
fn min_sq_distance(x: &MultiObsSeries, y: &MultiObsSeries) -> f64 {
    (0..x.len())
        .map(|i| {
            let (xr, yr) = (x.row(i), y.row(i));
            xr.iter()
                .flat_map(|a| yr.iter().map(move |b| (a - b) * (a - b)))
                .fold(f64::INFINITY, f64::min)
        })
        .sum()
}

/// A limit generous enough that every generated pair stays exactly
/// feasible: at most (4·4)⁶ ≈ 1.7e7 distinct partial sums.
const FEASIBLE_LIMIT: usize = 20_000_000;

fn munich_with(strategy: MunichStrategy) -> Munich {
    Munich::new(MunichConfig {
        strategy,
        exact_support_limit: FEASIBLE_LIMIT,
        ..MunichConfig::default()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Convolution's rigorous bounds bracket the exact probability, and
    /// the midpoint estimate stays within the interval width of truth.
    #[test]
    fn convolution_brackets_exact((x, y) in pair(), eps in 0.0..6.0f64) {
        let exact = munich_with(MunichStrategy::Auto);
        let conv = munich_with(MunichStrategy::Convolution { bins: 2048 });
        let truth = exact.probability_within(&x, &y, eps);
        let b = conv.try_probability_bounds(&x, &y, eps).unwrap();
        prop_assert!(b.lo <= b.hi + 1e-12);
        prop_assert!(
            b.lo <= truth + 1e-9 && truth <= b.hi + 1e-9,
            "bounds [{}, {}] miss exact {}", b.lo, b.hi, truth
        );
        prop_assert!((b.estimate() - truth).abs() <= 0.5 * b.width() + 1e-9);
    }

    /// The seeded Monte-Carlo estimator lands inside a fixed tolerance of
    /// the exact probability (10k samples → σ ≤ 0.005; 0.05 gives 10σ).
    #[test]
    fn monte_carlo_within_seeded_tolerance((x, y) in pair(), eps in 0.0..6.0f64) {
        let exact = munich_with(MunichStrategy::Auto);
        let mc = munich_with(MunichStrategy::MonteCarlo { samples: 10_000 });
        let truth = exact.probability_within(&x, &y, eps);
        let est = mc.probability_within(&x, &y, eps);
        prop_assert!(
            (truth - est).abs() < 0.05,
            "exact {} vs MC {}", truth, est
        );
    }

    /// The pruned decision pipeline returns exactly what the reference
    /// decision returns, for every strategy — with τ probed on, just
    /// below, and just above the computed probability, plus both ends of
    /// the valid range.
    #[test]
    fn decision_pipeline_equals_reference((x, y) in pair(), eps in 0.0..6.0f64, tau in 0.0..=1.0f64) {
        for strategy in [
            MunichStrategy::Convolution { bins: 512 },
            MunichStrategy::Convolution { bins: 64 },
            MunichStrategy::Convolution { bins: 1024 },
            MunichStrategy::MonteCarlo { samples: 2_000 },
            MunichStrategy::Auto,
        ] {
            let m = munich_with(strategy);
            let p = m.probability_within(&x, &y, eps);
            for t in [
                tau,
                0.0,
                1.0,
                p.clamp(0.0, 1.0),
                (p - 1e-12).clamp(0.0, 1.0),
                (p + 1e-12).clamp(0.0, 1.0),
            ] {
                prop_assert_eq!(
                    m.try_decide_within(&x, &y, eps, t),
                    Ok(m.matches(&x, &y, eps, t)),
                    "{:?} ε={} τ={} p={}", strategy, eps, t, p
                );
            }
        }
    }

    /// Probability estimates are monotone in ε for the deterministic
    /// strategies (the CDF of a fixed distribution).
    #[test]
    fn estimates_monotone_in_epsilon((x, y) in pair()) {
        for strategy in [MunichStrategy::Auto, MunichStrategy::Convolution { bins: 1024 }] {
            let m = munich_with(strategy);
            let mut prev = -1.0f64;
            for i in 0..12 {
                let p = m.probability_within(&x, &y, i as f64 * 0.5);
                prop_assert!(p + 1e-9 >= prev, "{:?}: not monotone at ε={}", strategy, i as f64 * 0.5);
                prev = p;
            }
        }
    }

    /// From short series to production length the decision pipeline —
    /// moment rung included — still returns exactly the reference
    /// decision, pairwise and enveloped, with τ on, just below and just
    /// above the estimate. `Convolution { bins: 64 }` is coarse enough that
    /// its estimate sits far from the true probability, which a rung
    /// bracketing only the true probability would get wrong. The second ε
    /// sits just above `Σ min Cᵢ`, where the ceil window is empty from the
    /// start; at τ = 1e-12, below the decision margin, neither the moment
    /// rung nor the MBI filter can settle the pair, so the convolution
    /// fold decides it.
    #[test]
    fn long_series_decisions_equal_reference(
        (x, y) in long_pair(),
        eps_frac in 0.3..2.0f64,
        tau in 0.0..=1.0f64,
    ) {
        let (ex, ey) = (MbiEnvelope::build(&x), MbiEnvelope::build(&y));
        let bulk = (eps_frac * mean_sq_distance(&x, &y)).sqrt();
        let floor = (min_sq_distance(&x, &y) * (1.0 + 1e-6)).sqrt();
        for strategy in [
            MunichStrategy::Auto,
            MunichStrategy::Convolution { bins: 1024 },
            MunichStrategy::Convolution { bins: 8192 },
            MunichStrategy::Convolution { bins: 64 },
        ] {
            let m = Munich::new(MunichConfig { strategy, ..MunichConfig::default() });
            for eps in [bulk, floor] {
                let p = m.probability_within(&x, &y, eps);
                for t in [
                    tau,
                    p.clamp(0.0, 1.0),
                    (p - 1e-12).clamp(0.0, 1.0),
                    (p + 1e-12).clamp(0.0, 1.0),
                    0.1,
                    0.9,
                    1e-12,
                ] {
                    let want = m.matches(&x, &y, eps, t);
                    let ctx = format!("{strategy:?} n={} ε={eps} τ={t} p={p}", x.len());
                    prop_assert_eq!(m.try_decide_within(&x, &y, eps, t), Ok(want), "{}", ctx);
                    prop_assert_eq!(m.matches_enveloped(&x, &y, eps, t, &ex, &ey), want, "{}", ctx);
                }
            }
        }
    }
}
