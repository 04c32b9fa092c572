//! Perturbation: injecting uncertainty into clean series.
//!
//! The paper's workload generator (§4.1.1): "we used existing time series
//! datasets with exact values as the ground truth, and subsequently
//! introduced uncertainty through perturbation. Perturbation models errors
//! in measurements". Clean series are z-normalised first; the perturbed
//! observation at timestamp `i` is `clean[i] + e_i` with `e_i` drawn from
//! the per-point error model the [`ErrorSpec`] assigns.
//!
//! Perturbed series are *not* re-normalised: the techniques receive the
//! observed values together with the nominal error σ, and re-normalising
//! would silently shrink the injected σ.

use uts_stats::rng::Seed;
use uts_tseries::TimeSeries;

use crate::series::{MultiObsSeries, UncertainSeries};
use crate::spec::ErrorSpec;

/// Perturbs a clean series into a pdf-model [`UncertainSeries`]:
/// one observation per timestamp plus the (truthful) error description.
///
/// Deterministic in `(clean, spec, seed)`.
pub fn perturb(clean: &TimeSeries, spec: &ErrorSpec, seed: Seed) -> UncertainSeries {
    let errors = spec.realize(clean.len(), seed.derive("assign"));
    let mut rng = seed.derive("draw").rng();
    let values = clean
        .iter()
        .zip(&errors)
        .map(|(v, e)| v + e.sample(&mut rng))
        .collect();
    UncertainSeries::new(values, errors)
}

/// Perturbs raw values (no [`TimeSeries`] wrapper) — convenience for
/// benchmarks that work on slices.
pub fn perturb_values(clean: &[f64], spec: &ErrorSpec, seed: Seed) -> UncertainSeries {
    perturb(&TimeSeries::from_slice(clean), spec, seed)
}

/// Perturbs a clean series into MUNICH's multi-observation model:
/// `samples` independent perturbed observations per timestamp.
///
/// All observations at a timestamp share that timestamp's error model
/// (they are repeated measurements of the same quantity).
pub fn perturb_multi(
    clean: &TimeSeries,
    spec: &ErrorSpec,
    samples: usize,
    seed: Seed,
) -> MultiObsSeries {
    assert!(samples > 0, "need at least one observation per timestamp");
    let errors = spec.realize(clean.len(), seed.derive("assign"));
    let mut rng = seed.derive("draw-multi").rng();
    let rows = clean
        .iter()
        .zip(&errors)
        .map(|(v, e)| (0..samples).map(|_| v + e.sample(&mut rng)).collect())
        .collect();
    MultiObsSeries::from_rows(rows)
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::error_model::ErrorFamily;
    use uts_stats::Moments;

    fn clean(n: usize) -> TimeSeries {
        TimeSeries::from_values((0..n).map(|i| (i as f64 / 5.0).sin())).znormalized()
    }

    #[test]
    fn perturbation_is_deterministic() {
        let c = clean(64);
        let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.5);
        let a = perturb(&c, &spec, Seed::new(11));
        let b = perturb(&c, &spec, Seed::new(11));
        assert_eq!(a, b);
        let c2 = perturb(&c, &spec, Seed::new(12));
        assert_ne!(a, c2);
    }

    #[test]
    fn perturbation_noise_has_expected_scale() {
        let c = clean(4000);
        let sigma = 0.8;
        let spec = ErrorSpec::constant(ErrorFamily::Uniform, sigma);
        let p = perturb(&c, &spec, Seed::new(5));
        let mut m = Moments::new();
        for (obs, truth) in p.values().iter().zip(c.iter()) {
            m.push(obs - truth);
        }
        assert!(m.mean().abs() < 0.05, "noise mean {}", m.mean());
        assert!(
            (m.sample_std() - sigma).abs() < 0.05,
            "noise std {}",
            m.sample_std()
        );
    }

    #[test]
    fn multi_obs_rows_center_on_truth() {
        let c = clean(200);
        let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.3);
        let m = perturb_multi(&c, &spec, 50, Seed::new(6));
        assert_eq!(m.len(), 200);
        assert_eq!(m.samples_per_point(), 50);
        // Row means track the clean values within sampling noise.
        let mut worst: f64 = 0.0;
        for (i, truth) in c.iter().enumerate() {
            let mean = Moments::from_slice(m.row(i)).mean();
            worst = worst.max((mean - truth).abs());
        }
        // 50 samples of σ=0.3 → se ≈ 0.042; 200 rows, allow 5 se.
        assert!(worst < 0.25, "worst row-mean deviation {worst}");
    }

    #[test]
    fn mixed_spec_sigma_positions_shared_between_models() {
        // The error-assignment seed path is shared, so the same seed gives
        // the same σ layout for pdf and multi-obs models.
        let c = clean(40);
        let spec = ErrorSpec::paper_mixed(ErrorFamily::Normal);
        let p = perturb(&c, &spec, Seed::new(7));
        let m = perturb_multi(&c, &spec, 3, Seed::new(7));
        let p_high: Vec<usize> = p
            .errors()
            .iter()
            .enumerate()
            .filter(|(_, e)| e.sigma == 1.0)
            .map(|(i, _)| i)
            .collect();
        // Re-realise to compare: spec.realize is deterministic per seed.
        let errs = spec.realize(40, Seed::new(7).derive("assign"));
        let want: Vec<usize> = errs
            .iter()
            .enumerate()
            .filter(|(_, e)| e.sigma == 1.0)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(p_high, want);
        assert_eq!(m.len(), 40);
    }

    #[test]
    #[should_panic(expected = "at least one observation")]
    fn zero_samples_panics() {
        let c = clean(4);
        let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.1);
        let _ = perturb_multi(&c, &spec, 0, Seed::new(1));
    }
}
