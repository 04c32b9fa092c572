//! k-NN classification under uncertainty.
//!
//! The paper's motivation for studying similarity matching is that it
//! "serves as the basis for developing various more complex analysis and
//! mining algorithms" (§1) — and the UCR datasets it evaluates on are
//! classification benchmarks. This module builds the canonical such
//! algorithm, leave-one-out k-NN classification, as a loop of
//! [`QueryEngine::top_k`] queries over a prepared engine, so the
//! downstream effect of a technique choice can be measured directly (see
//! the `ext-classify` experiment).

use std::borrow::Borrow;

use crate::collection::Collection;
use crate::engine::QueryEngine;

/// Result of a leave-one-out classification run.
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
}

/// Leave-one-out k-NN classification: each member of the engine's
/// collection is classified by majority vote among its `k` nearest
/// neighbours ([`QueryEngine::top_k`]: self excluded, ordered by distance
/// then index). Ties go to the nearer neighbour set: the first label
/// reaching the plurality among the k nearest. `k = 1` is 1-NN. `None`
/// for the probabilistic techniques, which rank no neighbours.
///
/// # Panics
/// If the collection and `labels` disagree in length, `k == 0`, or the
/// collection holds no more than `k` series.
pub fn knn_loocv<T: Borrow<Collection>>(
    engine: &QueryEngine<T>,
    labels: &[usize],
    k: usize,
) -> Option<ClassificationOutcome> {
    assert!(k >= 1, "k must be positive");
    let n = engine.collection().len();
    assert_eq!(n, labels.len(), "collection/labels length mismatch");
    assert!(n > k, "need more than k series");
    let n_classes = labels.iter().copied().max().map_or(1, |m| m + 1);
    let mut correct = 0;
    let mut votes = vec![0usize; n_classes];
    for (q, &label) in labels.iter().enumerate() {
        let neighbours = engine.top_k(q, k)?;
        votes.fill(0);
        let mut winner = labels[neighbours[0].0];
        let mut winner_votes = 0;
        for &(i, _) in &neighbours {
            let l = labels[i];
            votes[l] += 1;
            // Strict improvement keeps the nearest-first tie-break.
            if votes[l] > winner_votes {
                winner_votes = votes[l];
                winner = l;
            }
        }
        if winner == label {
            correct += 1;
        }
    }
    Some(ClassificationOutcome { correct, total: n })
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::matching::Technique;
    use crate::proud::Proud;
    use crate::uma::Uema;
    use uts_stats::rng::Seed;
    use uts_tseries::TimeSeries;
    use uts_uncertain::{perturb, ErrorFamily, ErrorSpec};

    /// Two well-separated classes of noisy sinusoids, as a collection
    /// with its labels.
    fn workload(sigma: f64, n_per_class: usize) -> (Collection, Vec<usize>) {
        let seed = Seed::new(31);
        let spec = ErrorSpec::constant(ErrorFamily::Normal, sigma);
        let mut coll = Vec::new();
        let mut labels = Vec::new();
        for class in 0..2usize {
            for j in 0..n_per_class {
                let phase = class as f64 * std::f64::consts::FRAC_PI_2;
                let series =
                    TimeSeries::from_values((0..64).map(|t| ((t as f64 / 5.0) + phase).sin()))
                        .znormalized();
                coll.push(perturb(
                    &series,
                    &spec,
                    seed.derive_u64((class * 1000 + j) as u64),
                ));
                labels.push(class);
            }
        }
        (Collection::try_new(coll, None).unwrap(), labels)
    }

    fn accuracy(collection: &Collection, labels: &[usize], technique: &Technique, k: usize) -> f64 {
        let engine = QueryEngine::prepare(collection, technique);
        knn_loocv(&engine, labels, k)
            .expect("distance-ranked technique")
            .accuracy()
    }

    #[test]
    fn separable_classes_classify_well() {
        let (collection, labels) = workload(0.2, 10);
        let engine = QueryEngine::prepare(&collection, &Technique::Euclidean);
        let out = knn_loocv(&engine, &labels, 1).unwrap();
        assert!(out.accuracy() > 0.9, "accuracy {}", out.accuracy());
        assert_eq!(out.total, 20);
    }

    #[test]
    fn noise_degrades_accuracy() {
        let (quiet, labels) = workload(0.2, 12);
        let (noisy, _) = workload(2.5, 12);
        let a_clean = accuracy(&quiet, &labels, &Technique::Euclidean, 1);
        let a_noisy = accuracy(&noisy, &labels, &Technique::Euclidean, 1);
        assert!(a_clean > a_noisy, "{a_clean} !> {a_noisy}");
    }

    #[test]
    fn uema_recovers_accuracy_under_noise() {
        let (collection, labels) = workload(1.5, 12);
        let eucl = accuracy(&collection, &labels, &Technique::Euclidean, 1);
        let uema = accuracy(&collection, &labels, &Technique::Uema(Uema::default()), 1);
        assert!(
            uema >= eucl,
            "UEMA ({uema}) should not lose to Euclidean ({eucl}) on smooth noisy data"
        );
    }

    #[test]
    fn probabilistic_techniques_do_not_classify() {
        let (collection, labels) = workload(0.8, 4);
        let proud = Technique::Proud {
            proud: Proud::default(),
            tau: 0.5,
        };
        assert_eq!(
            knn_loocv(&QueryEngine::prepare(&collection, &proud), &labels, 1),
            None
        );
    }

    #[test]
    fn knn_majority_stabilises() {
        let (collection, labels) = workload(1.2, 12);
        let k1 = accuracy(&collection, &labels, &Technique::Euclidean, 1);
        let k5 = accuracy(&collection, &labels, &Technique::Euclidean, 5);
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
        let empty = ClassificationOutcome {
            correct: 0,
            total: 0,
        };
        assert!(empty.accuracy().is_nan());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_labels_panic() {
        let (collection, _) = workload(0.5, 3);
        let engine = QueryEngine::prepare(&collection, &Technique::Euclidean);
        let _ = knn_loocv(&engine, &[0, 1], 1);
    }
}
