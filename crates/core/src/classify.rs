//! 1-NN classification under uncertainty.
//!
//! The paper's motivation for studying similarity matching is that it
//! "serves as the basis for developing various more complex analysis and
//! mining algorithms" (§1) — and the UCR datasets it evaluates on are
//! classification benchmarks. This module builds the canonical such
//! algorithm, leave-one-out 1-NN classification, on top of any
//! [`UncertainDistance`], so the downstream effect of a distance choice
//! can be measured directly (see the `ext-classify` experiment).

use crate::query::UncertainDistance;
use uts_uncertain::UncertainSeries;

/// Result of a leave-one-out 1-NN classification run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassificationOutcome {
    /// Correctly classified instances.
    pub correct: usize,
    /// Total classified instances.
    pub total: usize,
}

impl ClassificationOutcome {
    /// Classification accuracy in `[0, 1]`.
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.correct as f64 / self.total as f64
        }
    }

    /// Error rate `1 − accuracy`.
    pub fn error_rate(&self) -> f64 {
        1.0 - self.accuracy()
    }
}

/// Leave-one-out 1-NN classification: each series is classified by the
/// label of its nearest neighbour under `measure` (self excluded).
///
/// # Panics
/// If `collection` and `labels` disagree in length or fewer than two
/// series are provided.
pub fn one_nn_loocv<M: UncertainDistance>(
    collection: &[UncertainSeries],
    labels: &[usize],
    measure: &M,
) -> ClassificationOutcome {
    assert_eq!(
        collection.len(),
        labels.len(),
        "collection/labels length mismatch"
    );
    assert!(collection.len() >= 2, "need at least two series");
    let mut correct = 0;
    for (q, query) in collection.iter().enumerate() {
        let mut best = (f64::INFINITY, usize::MAX);
        for (i, candidate) in collection.iter().enumerate() {
            if i == q {
                continue;
            }
            let d = measure.distance(query, candidate);
            if d < best.0 {
                best = (d, i);
            }
        }
        if labels[best.1] == labels[q] {
            correct += 1;
        }
    }
    ClassificationOutcome {
        correct,
        total: collection.len(),
    }
}

/// k-NN majority-vote variant (ties broken toward the nearer neighbour
/// set: the first label reaching the plurality among the k nearest).
pub fn knn_loocv<M: UncertainDistance>(
    collection: &[UncertainSeries],
    labels: &[usize],
    k: usize,
    measure: &M,
) -> ClassificationOutcome {
    assert!(k >= 1, "k must be positive");
    assert_eq!(
        collection.len(),
        labels.len(),
        "collection/labels length mismatch"
    );
    assert!(collection.len() > k, "need more than k series");
    let n_classes = labels.iter().copied().max().map_or(1, |m| m + 1);
    let mut correct = 0;
    let mut votes = vec![0usize; n_classes];
    for (q, query) in collection.iter().enumerate() {
        let mut dists: Vec<(f64, usize)> = collection
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != q)
            .map(|(i, c)| (measure.distance(query, c), i))
            .collect();
        dists.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
        votes.iter_mut().for_each(|v| *v = 0);
        let mut winner = labels[dists[0].1];
        let mut winner_votes = 0;
        for &(_, i) in dists.iter().take(k) {
            let l = labels[i];
            votes[l] += 1;
            // Strict improvement keeps the nearest-first tie-break.
            if votes[l] > winner_votes {
                winner_votes = votes[l];
                winner = l;
            }
        }
        if winner == labels[q] {
            correct += 1;
        }
    }
    ClassificationOutcome {
        correct,
        total: collection.len(),
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::query::EuclideanMeasure;
    use crate::uma::Uema;
    use uts_stats::rng::Seed;
    use uts_tseries::TimeSeries;
    use uts_uncertain::{perturb, ErrorFamily, ErrorSpec};

    /// Two well-separated classes of noisy sinusoids.
    fn workload(sigma: f64, n_per_class: usize) -> (Vec<UncertainSeries>, Vec<usize>) {
        let seed = Seed::new(31);
        let spec = ErrorSpec::constant(ErrorFamily::Normal, sigma);
        let mut coll = Vec::new();
        let mut labels = Vec::new();
        for class in 0..2usize {
            for j in 0..n_per_class {
                let phase = class as f64 * std::f64::consts::FRAC_PI_2;
                let clean =
                    TimeSeries::from_values((0..64).map(|t| ((t as f64 / 5.0) + phase).sin()))
                        .znormalized();
                coll.push(perturb(
                    &clean,
                    &spec,
                    seed.derive_u64((class * 1000 + j) as u64),
                ));
                labels.push(class);
            }
        }
        (coll, labels)
    }

    #[test]
    fn separable_classes_classify_well() {
        let (coll, labels) = workload(0.2, 10);
        let out = one_nn_loocv(&coll, &labels, &EuclideanMeasure);
        assert!(out.accuracy() > 0.9, "accuracy {}", out.accuracy());
        assert_eq!(out.total, 20);
    }

    #[test]
    fn noise_degrades_accuracy() {
        let (clean_coll, labels) = workload(0.2, 12);
        let (noisy_coll, _) = workload(2.5, 12);
        let a_clean = one_nn_loocv(&clean_coll, &labels, &EuclideanMeasure).accuracy();
        let a_noisy = one_nn_loocv(&noisy_coll, &labels, &EuclideanMeasure).accuracy();
        assert!(a_clean > a_noisy, "{a_clean} !> {a_noisy}");
    }

    #[test]
    fn uema_recovers_accuracy_under_noise() {
        let (coll, labels) = workload(1.5, 12);
        let eucl = one_nn_loocv(&coll, &labels, &EuclideanMeasure).accuracy();
        let uema = one_nn_loocv(&coll, &labels, &Uema::default()).accuracy();
        assert!(
            uema >= eucl,
            "UEMA ({uema}) should not lose to Euclidean ({eucl}) on smooth noisy data"
        );
    }

    #[test]
    fn knn_equals_1nn_at_k1() {
        let (coll, labels) = workload(0.8, 8);
        let a = one_nn_loocv(&coll, &labels, &EuclideanMeasure);
        let b = knn_loocv(&coll, &labels, 1, &EuclideanMeasure);
        assert_eq!(a, b);
    }

    #[test]
    fn knn_majority_stabilises() {
        let (coll, labels) = workload(1.2, 12);
        let k1 = knn_loocv(&coll, &labels, 1, &EuclideanMeasure).accuracy();
        let k5 = knn_loocv(&coll, &labels, 5, &EuclideanMeasure).accuracy();
        // Majority voting should not be dramatically worse; usually better
        // under noise. Allow equality within a small slack.
        assert!(k5 + 0.15 >= k1, "k=5 {k5} collapsed vs k=1 {k1}");
    }

    #[test]
    fn outcome_arithmetic() {
        let o = ClassificationOutcome {
            correct: 3,
            total: 4,
        };
        assert!((o.accuracy() - 0.75).abs() < 1e-12);
        assert!((o.error_rate() - 0.25).abs() < 1e-12);
        let empty = ClassificationOutcome {
            correct: 0,
            total: 0,
        };
        assert!(empty.accuracy().is_nan());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_labels_panic() {
        let (coll, _) = workload(0.5, 3);
        let _ = one_nn_loocv(&coll, &[0, 1], &EuclideanMeasure);
    }
}
