//! Failure injection: degenerate, adversarial and boundary inputs across
//! the whole stack. A production library's behaviour at the edges must be
//! *predictable* — a documented panic for caller bugs, a graceful result
//! for legitimate-but-extreme data.

use std::panic::{catch_unwind, AssertUnwindSafe};

use uncertts::core::dust::{Dust, DustConfig};
use uncertts::core::matching::{MatchingTask, QualityScores, Technique};
use uncertts::core::munich::{Munich, MunichConfig, MunichStrategy};
use uncertts::core::proud::{Proud, ProudConfig};
use uncertts::core::uma::{Uema, Uma};
use uncertts::stats::rng::Seed;
use uncertts::tseries::TimeSeries;
use uncertts::uncertain::{
    perturb, ErrorFamily, ErrorSpec, MultiObsSeries, PointError, UncertainSeries,
};

fn panics<F: FnOnce() -> R, R>(f: F) -> bool {
    catch_unwind(AssertUnwindSafe(|| {
        let _ = f();
    }))
    .is_err()
}

// ---------------------------------------------------------------------------
// Input validation is loud, not silent
// ---------------------------------------------------------------------------

#[test]
fn non_finite_values_rejected_at_every_boundary() {
    assert!(panics(|| TimeSeries::from_values([1.0, f64::NAN])));
    assert!(panics(|| TimeSeries::from_values([f64::INFINITY])));
    assert!(panics(|| UncertainSeries::new(
        vec![f64::NAN],
        vec![PointError::new(ErrorFamily::Normal, 0.1)],
    )));
    assert!(panics(|| MultiObsSeries::from_rows(vec![vec![
        1.0,
        f64::NEG_INFINITY
    ]])));
}

#[test]
fn invalid_parameters_rejected() {
    assert!(panics(|| PointError::new(ErrorFamily::Normal, 0.0)));
    assert!(panics(|| PointError::new(ErrorFamily::Normal, -1.0)));
    assert!(panics(|| PointError::new(ErrorFamily::Normal, f64::NAN)));
    assert!(panics(|| ErrorSpec::constant(ErrorFamily::Uniform, -0.5)));
    assert!(panics(|| ErrorSpec::mixed_sigma(
        ErrorFamily::Normal,
        1.5,
        1.0,
        0.4
    )));
    assert!(panics(|| ProudConfig::with_sigma(0.0)));
    assert!(panics(|| Uema::new(2, -0.1)));
    assert!(panics(|| Dust::new(DustConfig {
        table_resolution: 1,
        ..DustConfig::default()
    })));
    assert!(panics(|| Munich::new(MunichConfig {
        auto_bins: 4,
        ..MunichConfig::default()
    })));
}

#[test]
fn mismatched_shapes_rejected() {
    let e = PointError::new(ErrorFamily::Normal, 0.2);
    let a = UncertainSeries::new(vec![0.0; 4], vec![e; 4]);
    let b = UncertainSeries::new(vec![0.0; 5], vec![e; 5]);
    assert!(panics(|| Dust::default().distance(&a, &b)));
    assert!(panics(|| Proud::default().distance_stats(&a, &b)));
    assert!(panics(|| Uma::default().distance(&a, &b)));
    assert!(panics(|| Uema::default().distance(&a, &b)));
    assert!(panics(|| MultiObsSeries::from_rows(vec![
        vec![1.0],
        vec![1.0, 2.0]
    ])));
}

// ---------------------------------------------------------------------------
// Legitimate-but-extreme data degrades gracefully
// ---------------------------------------------------------------------------

#[test]
fn dust_survives_huge_observed_differences() {
    // Log-space kernels: a 1000σ difference must give a finite, ordered
    // distance, not an underflow artefact.
    let dust = Dust::default();
    for family in ErrorFamily::ALL {
        let e = PointError::new(family, 0.1);
        let d_small = dust.dust(e, e, 1.0);
        let d_huge = dust.dust(e, e, 100.0);
        assert!(d_huge.is_finite(), "{family}: non-finite dust at Δ=100");
        assert!(d_huge > d_small, "{family}: ordering lost in the far tail");
    }
}

#[test]
fn dust_handles_extreme_sigma_ratios() {
    let dust = Dust::default();
    let precise = PointError::new(ErrorFamily::Normal, 1e-6);
    let noisy = PointError::new(ErrorFamily::Normal, 1e3);
    let d = dust.dust(precise, noisy, 5.0);
    assert!(d.is_finite() && d >= 0.0);
}

#[test]
fn proud_with_tiny_and_huge_variance() {
    let e = PointError::new(ErrorFamily::Normal, 1e-9);
    let x = UncertainSeries::new(vec![0.0; 8], vec![e; 8]);
    let y = UncertainSeries::new(vec![1.0; 8], vec![e; 8]);
    let proud = Proud::default();
    // Near-zero uncertainty: the probability collapses to a step function
    // around the true distance sqrt(8).
    let d = 8f64.sqrt();
    assert!(proud.probability_within(&x, &y, d * 1.01) > 0.999);
    assert!(proud.probability_within(&x, &y, d * 0.99) < 0.001);
    // Huge uncertainty: probabilities stay in [0, 1] and monotone.
    let e = PointError::new(ErrorFamily::Normal, 1e6);
    let x = UncertainSeries::new(vec![0.0; 8], vec![e; 8]);
    let y = UncertainSeries::new(vec![1.0; 8], vec![e; 8]);
    let p = proud.probability_within(&x, &y, 1.0);
    assert!((0.0..=1.0).contains(&p));
}

#[test]
fn proud_tau_boundaries() {
    let e = PointError::new(ErrorFamily::Normal, 0.5);
    let x = UncertainSeries::new(vec![0.0; 4], vec![e; 4]);
    let y = UncertainSeries::new(vec![0.5; 4], vec![e; 4]);
    let proud = Proud::default();
    // τ = 0 accepts everything with any positive probability; τ = 1
    // accepts nothing short of certainty.
    assert!(proud.matches(&x, &y, 100.0, 0.0));
    assert!(!proud.matches(&x, &y, 0.1, 1.0));
    assert!(panics(|| Proud::epsilon_limit(1.5)));
}

#[test]
fn munich_single_sample_is_certain() {
    // One observation per timestamp: the distance is deterministic and
    // MUNICH's probability must be exactly 0 or 1.
    let x = MultiObsSeries::from_rows(vec![vec![0.0], vec![1.0]]);
    let y = MultiObsSeries::from_rows(vec![vec![0.5], vec![1.0]]);
    let munich = Munich::default();
    let d = 0.5;
    assert_eq!(munich.probability_within(&x, &y, d * 1.01), 1.0);
    assert_eq!(munich.probability_within(&x, &y, d * 0.99), 0.0);
}

#[test]
fn munich_identical_samples_per_timestamp() {
    // All samples equal → zero-width MBIs → the exact answer comes from
    // the filter step alone.
    let x = MultiObsSeries::from_rows(vec![vec![1.0; 5], vec![2.0; 5]]);
    let munich = Munich::default();
    assert_eq!(munich.probability_within(&x, &x, 0.0), 1.0);
}

#[test]
fn munich_degenerate_inputs_yield_typed_errors() {
    use uncertts::core::InputError;
    use uncertts::uncertain::MultiObsError;

    // Ingestion boundary: malformed rows come back as values naming the
    // offending timestamp, not panics.
    assert_eq!(
        MultiObsSeries::try_from_rows(vec![]),
        Err(MultiObsError::NoTimestamps)
    );
    // Empty sample set at one timestamp.
    assert_eq!(
        MultiObsSeries::try_from_rows(vec![vec![1.0], vec![]]),
        Err(MultiObsError::EmptyTimestamp { index: 1 })
    );
    // NaN sample.
    assert_eq!(
        MultiObsSeries::try_from_rows(vec![vec![1.0], vec![f64::NAN]]),
        Err(MultiObsError::NonFiniteObservation { index: 1 })
    );
    // Ragged rows.
    assert_eq!(
        MultiObsSeries::try_from_rows(vec![vec![1.0], vec![1.0, 2.0]]),
        Err(MultiObsError::RaggedRows {
            index: 1,
            expected: 1,
            got: 2
        })
    );
    // The panicking constructor raises the same message.
    assert!(panics(|| MultiObsSeries::from_rows(vec![
        vec![1.0],
        vec![]
    ])));

    // Query boundary: a length-mismatched query is a typed error through
    // the `try_*` APIs (and still a documented panic through
    // `probability_within`, covered by the in-module unit tests).
    let a = MultiObsSeries::from_rows(vec![vec![0.0]]);
    let b = MultiObsSeries::from_rows(vec![vec![0.0], vec![1.0]]);
    let munich = Munich::default();
    assert_eq!(
        munich.try_probability_bounds(&a, &b, 1.0).unwrap_err(),
        InputError::LengthMismatch {
            expected: 1,
            got: 2
        }
    );
    assert_eq!(
        munich.try_decide_within(&a, &b, 1.0, 0.5).unwrap_err(),
        InputError::LengthMismatch {
            expected: 1,
            got: 2
        }
    );
    assert_eq!(
        munich.try_decide_within(&a, &a, -2.0, 0.5).unwrap_err(),
        InputError::InvalidEpsilon(-2.0)
    );
    assert_eq!(
        munich.try_decide_within(&a, &a, 1.0, 2.0).unwrap_err(),
        InputError::InvalidTau(2.0)
    );
    // Valid inputs still answer through the fallible paths.
    assert_eq!(munich.try_decide_within(&a, &a, 1.0, 0.5), Ok(true));
}

#[test]
fn munich_prepare_without_multi_obs_is_typed() {
    use uncertts::core::engine::QueryEngine;
    use uncertts::core::index::IndexConfig;
    use uncertts::core::InputError;
    use uncertts::tseries::TimeSeries;
    use uncertts::uncertain::PointError;

    let e = PointError::new(ErrorFamily::Normal, 0.2);
    let clean: Vec<TimeSeries> = (0..4)
        .map(|i| TimeSeries::from_values((0..8).map(|t| (t + i) as f64)))
        .collect();
    let uncertain: Vec<UncertainSeries> = clean
        .iter()
        .map(|c| UncertainSeries::new(c.values().to_vec(), vec![e; 8]))
        .collect();
    let task = MatchingTask::new(clean, uncertain, None, 2);
    let technique = Technique::Munich {
        munich: Munich::default(),
        tau: 0.5,
    };
    // Typed error from try_prepare_with; documented panic (same message)
    // from prepare.
    let err = QueryEngine::try_prepare_with(&task, &technique, IndexConfig::default()).unwrap_err();
    assert_eq!(err, InputError::MissingMultiObs);
    assert!(err.to_string().contains("multi-observation"));
    assert!(panics(|| QueryEngine::prepare(&task, &technique)));
}

#[test]
fn munich_strategies_agree_on_degenerate_epsilon() {
    let x = MultiObsSeries::from_rows(vec![vec![0.0, 0.1], vec![1.0, 1.1]]);
    let y = MultiObsSeries::from_rows(vec![vec![5.0, 5.1], vec![6.0, 6.1]]);
    for strategy in [
        MunichStrategy::Convolution { bins: 1024 },
        MunichStrategy::MonteCarlo { samples: 2000 },
        MunichStrategy::Auto,
    ] {
        let m = Munich::new(MunichConfig {
            strategy,
            ..MunichConfig::default()
        });
        // ε = 0 with disjoint values: nothing matches.
        assert_eq!(m.probability_within(&x, &y, 0.0), 0.0, "{strategy:?}");
    }
}

#[test]
fn filters_on_single_point_series() {
    let e = PointError::new(ErrorFamily::Exponential, 0.3);
    let s = UncertainSeries::new(vec![2.0], vec![e]);
    // A single point is its own window.
    let f = Uma::default().filter(&s);
    assert_eq!(f.len(), 1);
    assert!((f.at(0) - 2.0 / 0.3).abs() < 1e-9); // literal 1/σ weighting
    let f = Uema::default().filter(&s);
    assert_eq!(f.len(), 1);
}

#[test]
fn matching_task_minimum_size_guard() {
    let e = PointError::new(ErrorFamily::Normal, 0.2);
    let clean: Vec<TimeSeries> = (0..4)
        .map(|i| TimeSeries::from_values((0..8).map(|t| (t + i) as f64)))
        .collect();
    let uncertain: Vec<UncertainSeries> = clean
        .iter()
        .map(|c| UncertainSeries::new(c.values().to_vec(), vec![e; 8]))
        .collect();
    // k = 10 with only 4 series must be rejected up front.
    assert!(panics(|| MatchingTask::new(
        clean.clone(),
        uncertain.clone(),
        None,
        10
    )));
    // k = 2 works.
    let task = MatchingTask::new(clean, uncertain, None, 2);
    let s = task.query_quality(0, &Technique::Euclidean);
    assert!((0.0..=1.0).contains(&s.f1));
}

#[test]
fn quality_scores_tolerate_degenerate_sets() {
    // Empty vs empty, empty vs full, full vs empty — no NaN leaks.
    for (answer, truth) in [
        (vec![], vec![]),
        (vec![], vec![1usize, 2]),
        (vec![1usize, 2], vec![]),
    ] {
        let s = QualityScores::from_sets(&answer, &truth);
        assert!(!s.precision.is_nan());
        assert!(!s.recall.is_nan());
        assert!(!s.f1.is_nan());
    }
}

#[test]
fn perturbation_with_extreme_sigma_still_finite() {
    let clean = TimeSeries::from_values((0..32).map(|i| (i as f64 / 3.0).sin()));
    for sigma in [1e-9, 1e6] {
        let spec = ErrorSpec::constant(ErrorFamily::Exponential, sigma);
        let p = perturb(&clean, &spec, Seed::new(1));
        assert!(p.values().iter().all(|v| v.is_finite()), "σ={sigma}");
    }
}

#[test]
fn znormalize_pathological_series() {
    // Constant series: all-zero output, and downstream distances behave.
    let s = TimeSeries::from_values([7.0; 16]).znormalized();
    assert!(s.values().iter().all(|&v| v == 0.0));
    // Two constant series at different levels are indistinguishable after
    // z-normalisation — distance exactly zero, not NaN.
    let t = TimeSeries::from_values([-3.0; 16]).znormalized();
    assert_eq!(uncertts::tseries::euclidean(s.values(), t.values()), 0.0);
}
