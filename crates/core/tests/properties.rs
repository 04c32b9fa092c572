//! Property-based tests for the similarity techniques.

use proptest::prelude::*;
use uts_core::classify::{knn_loocv, one_nn_loocv};
use uts_core::dust::{Dust, DustConfig};
use uts_core::matching::QualityScores;
use uts_core::munich::{Munich, MunichConfig, MunichStrategy};
use uts_core::proud::Proud;
use uts_core::proud_stream::ProudStream;
use uts_core::query::EuclideanMeasure;
use uts_core::uma::{Uema, Uma};
use uts_stats::rng::Seed;
use uts_tseries::euclidean;
use uts_uncertain::{ErrorFamily, MultiObsSeries, PointError, UncertainSeries};

fn family_strategy() -> impl Strategy<Value = ErrorFamily> {
    prop::sample::select(ErrorFamily::ALL.to_vec())
}

fn uncertain_pair(
    len: usize,
) -> impl Strategy<Value = (UncertainSeries, UncertainSeries, ErrorFamily, f64)> {
    (
        prop::collection::vec(-5.0..5.0f64, len..=len),
        prop::collection::vec(-5.0..5.0f64, len..=len),
        family_strategy(),
        0.1..2.0f64,
    )
        .prop_map(|(xs, ys, fam, sigma)| {
            let errs = vec![PointError::new(fam, sigma); xs.len()];
            (
                UncertainSeries::new(xs, errs.clone()),
                UncertainSeries::new(ys, errs),
                fam,
                sigma,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- DUST ----------------------------------------------------------

    #[test]
    fn dust_nonnegative_and_reflexive((x, y, _fam, _sigma) in uncertain_pair(12)) {
        let dust = Dust::default();
        let d = dust.distance(&x, &y);
        prop_assert!(d >= 0.0 && d.is_finite());
        prop_assert!(dust.distance(&x, &x) < 1e-9);
    }

    #[test]
    fn dust_normal_proportional_to_euclidean(
        xs in prop::collection::vec(-5.0..5.0f64, 8),
        ys in prop::collection::vec(-5.0..5.0f64, 8),
        sigma in 0.1..2.0f64,
    ) {
        let errs = vec![PointError::new(ErrorFamily::Normal, sigma); 8];
        let x = UncertainSeries::new(xs, errs.clone());
        let y = UncertainSeries::new(ys, errs);
        let dust = Dust::new(DustConfig { exact_evaluation: true, ..DustConfig::default() });
        let d = dust.distance(&x, &y);
        let scale = 1.0 / (4.0 * sigma * sigma).sqrt();
        let want = euclidean(x.values(), y.values()) * scale;
        prop_assert!((d - want).abs() < 1e-6 * (1.0 + want), "dust {d} vs scaled euclid {want}");
    }

    #[test]
    fn dust_table_close_to_exact((x, y, _fam, _sigma) in uncertain_pair(10)) {
        let table = Dust::default();
        let exact = Dust::new(DustConfig { exact_evaluation: true, ..DustConfig::default() });
        let a = table.distance(&x, &y);
        let b = exact.distance(&x, &y);
        prop_assert!((a - b).abs() < 5e-3 * (1.0 + b), "table {a} vs exact {b}");
    }

    // ---- PROUD ----------------------------------------------------------

    #[test]
    fn proud_probability_in_unit_interval((x, y, _fam, _sigma) in uncertain_pair(12), eps in 0.0..20.0f64) {
        let p = Proud::default().probability_within(&x, &y, eps);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    #[test]
    fn proud_probability_monotone_in_epsilon((x, y, _fam, _sigma) in uncertain_pair(12), eps in 0.0..10.0f64, de in 0.0..10.0f64) {
        let proud = Proud::default();
        let p1 = proud.probability_within(&x, &y, eps);
        let p2 = proud.probability_within(&x, &y, eps + de);
        prop_assert!(p2 + 1e-12 >= p1);
    }

    #[test]
    fn proud_matches_consistent_with_probability((x, y, _fam, _sigma) in uncertain_pair(8), eps in 0.1..8.0f64, tau in 0.01..0.99f64) {
        let proud = Proud::default();
        let via_matches = proud.matches(&x, &y, eps, tau);
        let via_prob = proud.probability_within(&x, &y, eps) >= tau;
        prop_assert_eq!(via_matches, via_prob);
    }

    // ---- MUNICH ----------------------------------------------------------

    #[test]
    fn munich_bounds_are_ordered_and_valid(
        seed in any::<u64>(),
        n in 2usize..5,
        s in 2usize..4,
        eps in 0.0..6.0f64,
    ) {
        let mut rng = Seed::new(seed).rng();
        use rand::Rng;
        let mk = |rng: &mut rand::rngs::StdRng| {
            MultiObsSeries::from_rows(
                (0..n).map(|_| (0..s).map(|_| rng.gen_range(-2.0..2.0)).collect()).collect(),
            )
        };
        let x = mk(&mut rng);
        let y = mk(&mut rng);
        let b = Munich::default().try_probability_bounds(&x, &y, eps).unwrap();
        prop_assert!(b.lo <= b.hi + 1e-12);
        prop_assert!((0.0..=1.0).contains(&b.lo));
        prop_assert!((0.0..=1.0).contains(&b.hi));
    }

    #[test]
    fn munich_strategies_agree(
        seed in any::<u64>(),
        eps in 0.2..4.0f64,
    ) {
        let mut rng = Seed::new(seed).rng();
        use rand::Rng;
        let n = 4;
        let s = 3;
        let mk = |rng: &mut rand::rngs::StdRng| {
            MultiObsSeries::from_rows(
                (0..n).map(|_| (0..s).map(|_| rng.gen_range(-1.5..1.5)).collect()).collect(),
            )
        };
        let x = mk(&mut rng);
        let y = mk(&mut rng);
        let exact = Munich::new(MunichConfig {
            strategy: MunichStrategy::Auto,
            use_mbi_filter: false,
            ..MunichConfig::default()
        }).probability_within(&x, &y, eps);
        let conv = Munich::new(MunichConfig {
            strategy: MunichStrategy::Convolution { bins: 8192 },
            use_mbi_filter: false,
            ..MunichConfig::default()
        }).try_probability_bounds(&x, &y, eps).unwrap();
        prop_assert!(conv.lo <= exact + 1e-9 && exact <= conv.hi + 1e-9,
            "convolution [{}, {}] misses exact {exact}", conv.lo, conv.hi);
        let mc = Munich::new(MunichConfig {
            strategy: MunichStrategy::MonteCarlo { samples: 20_000 },
            use_mbi_filter: false,
            ..MunichConfig::default()
        }).probability_within(&x, &y, eps);
        prop_assert!((mc - exact).abs() < 0.05, "MC {mc} vs exact {exact}");
    }

    // ---- UMA / UEMA -------------------------------------------------------

    #[test]
    fn uma_filter_preserves_length((x, _y, _fam, _sigma) in uncertain_pair(16), w in 0usize..6) {
        let f = Uma::new(w).filter(&x);
        prop_assert_eq!(f.len(), x.len());
    }

    #[test]
    fn uma_distance_is_pseudometric((x, y, _fam, _sigma) in uncertain_pair(12), w in 0usize..4) {
        let uma = Uma::new(w);
        let dxy = uma.distance(&x, &y);
        let dyx = uma.distance(&y, &x);
        prop_assert!(dxy >= 0.0);
        prop_assert!((dxy - dyx).abs() < 1e-9);
        prop_assert!(uma.distance(&x, &x) < 1e-12);
    }

    #[test]
    fn uema_lambda_zero_is_uma((x, _y, _fam, _sigma) in uncertain_pair(16), w in 0usize..5) {
        let a = Uma::new(w).filter(&x);
        let b = Uema::new(w, 0.0).filter(&x);
        for (u, v) in a.iter().zip(b.iter()) {
            prop_assert!((u - v).abs() < 1e-10);
        }
    }

    // ---- streaming PROUD -----------------------------------------------------

    #[test]
    fn stream_matches_batch(
        xs in prop::collection::vec(-5.0..5.0f64, 2..40),
        ys in prop::collection::vec(-5.0..5.0f64, 2..40),
        sigma in 0.05..2.0f64,
    ) {
        let n = xs.len().min(ys.len());
        let (xs, ys) = (&xs[..n], &ys[..n]);
        let mut stream = ProudStream::new();
        for (x, y) in xs.iter().zip(ys) {
            stream.push(*x, *y, sigma, sigma);
        }
        let e = PointError::new(ErrorFamily::Normal, sigma);
        let bx = UncertainSeries::new(xs.to_vec(), vec![e; n]);
        let by = UncertainSeries::new(ys.to_vec(), vec![e; n]);
        let batch = Proud::default().distance_stats(&bx, &by);
        let s = stream.stats();
        prop_assert!((s.mean_sq - batch.mean_sq).abs() < 1e-9 * (1.0 + batch.mean_sq));
        prop_assert!((s.var_sq - batch.var_sq).abs() < 1e-9 * (1.0 + batch.var_sq));
    }

    #[test]
    fn sliding_window_equals_suffix(
        pairs in prop::collection::vec((-3.0..3.0f64, -3.0..3.0f64), 4..60),
        w in 1usize..12,
    ) {
        let w = w.min(pairs.len());
        let mut windowed = ProudStream::with_window(w);
        for (x, y) in &pairs {
            windowed.push(*x, *y, 0.4, 0.4);
        }
        let mut suffix = ProudStream::new();
        for (x, y) in &pairs[pairs.len() - w..] {
            suffix.push(*x, *y, 0.4, 0.4);
        }
        prop_assert_eq!(windowed.len(), suffix.len());
        prop_assert!((windowed.stats().mean_sq - suffix.stats().mean_sq).abs() < 1e-8);
        prop_assert!((windowed.stats().var_sq - suffix.stats().var_sq).abs() < 1e-8);
    }

    // ---- classification -------------------------------------------------------

    #[test]
    fn classification_accuracy_valid(
        seed in any::<u64>(),
        n_per_class in 3usize..8,
        sigma in 0.1..1.5f64,
        k in 1usize..4,
    ) {
        let s = Seed::new(seed);
        let mut coll = Vec::new();
        let mut labels = Vec::new();
        for class in 0..2usize {
            for j in 0..n_per_class {
                let mut rng = s.derive_u64((class * 100 + j) as u64).rng();
                use rand::Rng;
                let e = PointError::new(ErrorFamily::Normal, sigma);
                let values: Vec<f64> = (0..16)
                    .map(|t| ((t as f64 / 3.0) + class as f64).sin() + 0.1 * rng.gen_range(-1.0..1.0))
                    .collect();
                coll.push(UncertainSeries::new(values, vec![e; 16]));
                labels.push(class);
            }
        }
        let o1 = one_nn_loocv(&coll, &labels, &EuclideanMeasure);
        prop_assert!((0.0..=1.0).contains(&o1.accuracy()));
        prop_assert_eq!(o1.total, coll.len());
        let k = k.min(coll.len() - 1);
        let ok = knn_loocv(&coll, &labels, k, &EuclideanMeasure);
        prop_assert!((0.0..=1.0).contains(&ok.accuracy()));
        if k == 1 {
            prop_assert_eq!(o1, ok);
        }
    }

    // ---- quality scores -----------------------------------------------------

    #[test]
    fn f1_is_harmonic_mean(
        answer in prop::collection::hash_set(0usize..40, 0..20),
        truth in prop::collection::hash_set(0usize..40, 0..20),
    ) {
        let answer: Vec<usize> = answer.into_iter().collect();
        let truth: Vec<usize> = truth.into_iter().collect();
        let s = QualityScores::from_sets(&answer, &truth);
        prop_assert!((0.0..=1.0).contains(&s.precision));
        prop_assert!((0.0..=1.0).contains(&s.recall));
        prop_assert!((0.0..=1.0).contains(&s.f1));
        if s.precision + s.recall > 0.0 {
            let want = 2.0 * s.precision * s.recall / (s.precision + s.recall);
            prop_assert!((s.f1 - want).abs() < 1e-12);
        } else {
            prop_assert_eq!(s.f1, 0.0);
        }
        // F1 never exceeds either component's maximum.
        prop_assert!(s.f1 <= s.precision.max(s.recall) + 1e-12);
    }
}
