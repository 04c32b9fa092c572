//! The similarity-matching comparison methodology (paper §4.1.2).
//!
//! The paper's central methodological contribution is a protocol that puts
//! probabilistic techniques (MUNICH, PROUD), distance-based techniques
//! (DUST, Euclidean) and filter-based techniques (UMA, UEMA) on the *same*
//! task with *equivalent* thresholds:
//!
//! 1. **Ground truth** — clean series are the truth. For a query `q`, the
//!    ground-truth answer is its `k = 10` nearest neighbours among the
//!    clean series ("distance thresholds are chosen such that in the
//!    ground truth set they return exactly 10 time series").
//! 2. **Threshold calibration** — let `c` be the 10th clean NN of `q`.
//!    Then `ε_eucl` = the Euclidean distance *on the observations* between
//!    `q` and `c` (shared by MUNICH, PROUD and Euclidean), `ε_dust` = the
//!    DUST distance between the observed `q` and `c`, and analogously each
//!    filter technique measures `q`–`c` in its own filtered space.
//! 3. **Evaluation** — each technique returns its answer set; quality is
//!    precision/recall/F1 against the ground truth. MUNICH and PROUD
//!    additionally take the probability threshold τ, which the paper
//!    optimises per configuration ("the optimal probabilistic threshold,
//!    determined after repeated experiments") — the experiment runner's
//!    sweep over [`default_tau_grid`]: one probability pass per query,
//!    then thresholding at every τ.
//!
//! The query itself is excluded from both ground truth and answers (it
//! always matches itself; including it would inflate every score by the
//! same constant — a deliberate deviation from the paper's setup).

use uts_tseries::distance::euclidean;
use uts_tseries::TimeSeries;
use uts_uncertain::{MultiObsSeries, UncertainSeries};

use crate::dust::Dust;
use crate::engine::QueryEngine;
use crate::error::InputError;
use crate::munich::Munich;
use crate::proud::Proud;
use crate::uma::{Uema, Uma};

/// Identifies a similarity technique in reports and result tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TechniqueKind {
    /// Point-estimate Euclidean baseline.
    Euclidean,
    /// MUNICH probabilistic range matching.
    Munich,
    /// PROUD probabilistic range matching.
    Proud,
    /// DUST distance.
    Dust,
    /// Uncertain moving average filter + Euclidean.
    Uma,
    /// Uncertain exponential moving average filter + Euclidean.
    Uema,
}

impl TechniqueKind {
    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            TechniqueKind::Euclidean => "Euclidean",
            TechniqueKind::Munich => "MUNICH",
            TechniqueKind::Proud => "PROUD",
            TechniqueKind::Dust => "DUST",
            TechniqueKind::Uma => "UMA",
            TechniqueKind::Uema => "UEMA",
        }
    }
}

impl std::fmt::Display for TechniqueKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A configured technique instance, ready to answer matching queries.
#[derive(Debug, Clone)]
pub enum Technique {
    /// Euclidean on observed values.
    Euclidean,
    /// MUNICH with its probability threshold τ.
    Munich {
        /// Configured MUNICH engine.
        munich: Munich,
        /// Probability threshold τ of the PRQ.
        tau: f64,
    },
    /// PROUD with its probability threshold τ.
    Proud {
        /// Configured PROUD engine.
        proud: Proud,
        /// Probability threshold τ of the PRQ.
        tau: f64,
    },
    /// DUST distance matching.
    Dust(Dust),
    /// UMA filter matching.
    Uma(Uma),
    /// UEMA filter matching.
    Uema(Uema),
}

impl Technique {
    /// The kind tag of this instance.
    pub fn kind(&self) -> TechniqueKind {
        match self {
            Technique::Euclidean => TechniqueKind::Euclidean,
            Technique::Munich { .. } => TechniqueKind::Munich,
            Technique::Proud { .. } => TechniqueKind::Proud,
            Technique::Dust(_) => TechniqueKind::Dust,
            Technique::Uma(_) => TechniqueKind::Uma,
            Technique::Uema(_) => TechniqueKind::Uema,
        }
    }

    /// Whether the technique answers probabilistic range queries
    /// (MUNICH, PROUD) rather than ranking by a distance.
    pub(crate) fn is_probabilistic(&self) -> bool {
        matches!(self, Technique::Munich { .. } | Technique::Proud { .. })
    }

    /// The filtered view of `series` under UMA or UEMA, which both compare
    /// filtered views by Euclidean distance. Panics for the other
    /// techniques, which callers match out first.
    pub(crate) fn filtered(&self, series: &UncertainSeries) -> TimeSeries {
        match self {
            Technique::Uma(u) => u.filter(series),
            Technique::Uema(u) => u.filter(series),
            _ => unreachable!("only UMA and UEMA filter their series"),
        }
    }

    /// Copy of this technique with a different τ (no-op for
    /// non-probabilistic techniques).
    pub fn with_tau(&self, tau: f64) -> Self {
        match self {
            Technique::Munich { munich, .. } => Technique::Munich {
                munich: *munich,
                tau,
            },
            Technique::Proud { proud, .. } => Technique::Proud { proud: *proud, tau },
            other => other.clone(),
        }
    }
}

/// Precision / recall / F1 of one query's answer set (paper Eq. 14).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QualityScores {
    /// Fraction of returned series that are truly similar.
    pub precision: f64,
    /// Fraction of truly similar series that were returned.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl QualityScores {
    /// Computes scores from an answer set and the ground-truth set
    /// (both as sorted index slices; order does not matter, duplicates
    /// must not occur).
    ///
    /// Conventions for empty sets: an empty answer has precision 1 if the
    /// truth is also empty, else 0; recall mirrors this; F1 is 0 whenever
    /// precision + recall is 0.
    pub fn from_sets(answer: &[usize], truth: &[usize]) -> Self {
        let answer_set: std::collections::HashSet<usize> = answer.iter().copied().collect();
        let truth_set: std::collections::HashSet<usize> = truth.iter().copied().collect();
        debug_assert_eq!(answer_set.len(), answer.len(), "duplicate answers");
        debug_assert_eq!(truth_set.len(), truth.len(), "duplicate truths");
        let tp = answer_set.intersection(&truth_set).count() as f64;
        let precision = if answer.is_empty() {
            if truth.is_empty() {
                1.0
            } else {
                0.0
            }
        } else {
            tp / answer.len() as f64
        };
        let recall = if truth.is_empty() {
            1.0
        } else {
            tp / truth.len() as f64
        };
        let f1 = if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        };
        Self {
            precision,
            recall,
            f1,
        }
    }
}

/// Ground-truth information for one query.
#[derive(Debug, Clone, PartialEq)]
pub struct GroundTruth {
    /// Indices of the k nearest clean neighbours (the truth set).
    pub neighbors: Vec<usize>,
    /// The k-th nearest neighbour `c` — the threshold anchor.
    pub anchor: usize,
    /// Clean Euclidean distance from the query to `c`.
    pub clean_distance: f64,
}

/// One dataset instance prepared for the matching task: clean truth,
/// pdf-model observations, and (optionally) MUNICH's multi-observation
/// views.
#[derive(Debug, Clone)]
pub struct MatchingTask {
    clean: Vec<TimeSeries>,
    uncertain: Vec<UncertainSeries>,
    multi: Option<Vec<MultiObsSeries>>,
    k: usize,
}

impl MatchingTask {
    /// Builds a task over parallel collections of clean and uncertain
    /// series.
    ///
    /// # Panics
    /// If the collections disagree in count or per-series length, the
    /// collection is smaller than `k + 2` (a query needs `k` neighbours
    /// plus itself), or `k == 0`.
    pub fn new(
        clean: Vec<TimeSeries>,
        uncertain: Vec<UncertainSeries>,
        multi: Option<Vec<MultiObsSeries>>,
        k: usize,
    ) -> Self {
        assert!(k > 0, "ground-truth k must be positive");
        assert_eq!(
            clean.len(),
            uncertain.len(),
            "clean/uncertain collection size mismatch"
        );
        assert!(
            clean.len() >= k + 2,
            "need at least k + 2 = {} series, got {}",
            k + 2,
            clean.len()
        );
        for (c, u) in clean.iter().zip(&uncertain) {
            assert_eq!(c.len(), u.len(), "clean/uncertain series length mismatch");
        }
        if let Some(m) = &multi {
            assert_eq!(m.len(), clean.len(), "multi-obs collection size mismatch");
            for (c, mo) in clean.iter().zip(m) {
                assert_eq!(c.len(), mo.len(), "multi-obs series length mismatch");
            }
        }
        Self {
            clean,
            uncertain,
            multi,
            k,
        }
    }

    /// Shard-local view for the serving layer: the members at `indices`
    /// (ascending global order), cloned into a standalone task. Skips the
    /// `k + 2` minimum-size guard — a shard is a scan target, never a
    /// ground-truth provider, and may legitimately hold one series.
    pub(crate) fn subset(&self, indices: &[usize]) -> MatchingTask {
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "shard members must be ascending"
        );
        MatchingTask {
            clean: indices.iter().map(|&i| self.clean[i].clone()).collect(),
            uncertain: indices.iter().map(|&i| self.uncertain[i].clone()).collect(),
            multi: self
                .multi
                .as_ref()
                .map(|m| indices.iter().map(|&i| m[i].clone()).collect()),
            k: self.k,
        }
    }

    /// Replaces member `i` in place — the serving layer's mutation
    /// primitive — and returns the observed series it replaced. Validates
    /// the replacement against the task's shape first: lengths must match
    /// the member it replaces, and the multi-observation side must be
    /// supplied iff the task carries one. A shape the task cannot absorb
    /// is a typed [`InputError`] and leaves the task untouched.
    pub(crate) fn try_replace(
        &mut self,
        i: usize,
        clean: TimeSeries,
        uncertain: UncertainSeries,
        multi: Option<MultiObsSeries>,
    ) -> Result<UncertainSeries, InputError> {
        if i >= self.len() {
            return Err(InputError::IndexOutOfRange {
                index: i,
                len: self.len(),
            });
        }
        if clean.len() != self.clean[i].len() {
            return Err(InputError::LengthMismatch {
                expected: self.clean[i].len(),
                got: clean.len(),
            });
        }
        if uncertain.len() != clean.len() {
            return Err(InputError::CleanUncertainMismatch {
                clean: clean.len(),
                uncertain: uncertain.len(),
            });
        }
        match (self.multi.as_mut(), multi) {
            (Some(m), Some(new_m)) => {
                if new_m.len() != m[i].len() {
                    return Err(InputError::MultiLengthMismatch {
                        expected: m[i].len(),
                        got: new_m.len(),
                    });
                }
                m[i] = new_m;
            }
            (None, None) => {}
            (m, _) => {
                return Err(InputError::MultiPresenceMismatch {
                    task_has_multi: m.is_some(),
                })
            }
        }
        self.clean[i] = clean;
        Ok(std::mem::replace(&mut self.uncertain[i], uncertain))
    }

    /// Number of series in the task.
    pub fn len(&self) -> usize {
        self.clean.len()
    }

    /// Whether the task is empty (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.clean.is_empty()
    }

    /// Ground-truth neighbourhood size `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The clean (ground-truth) series.
    pub fn clean(&self) -> &[TimeSeries] {
        &self.clean
    }

    /// The observed uncertain series.
    pub fn uncertain(&self) -> &[UncertainSeries] {
        &self.uncertain
    }

    /// MUNICH's multi-observation views, when present.
    pub fn multi(&self) -> Option<&[MultiObsSeries]> {
        self.multi.as_deref()
    }

    /// Ground truth for query `q`: its `k` nearest clean neighbours
    /// (self excluded) and the threshold anchor `c`.
    ///
    /// Served by the engine's early-abandoned selection scan; identical
    /// to [`MatchingTask::ground_truth_naive`] (asserted by the
    /// equivalence suite).
    pub fn ground_truth(&self, q: usize) -> GroundTruth {
        assert!(q < self.len(), "query index out of range");
        crate::engine::clean_ground_truth(&self.clean, q, self.k)
    }

    /// Reference implementation of [`MatchingTask::ground_truth`]: full
    /// distance pass plus a stable sort. Kept as the naive baseline the
    /// engine is tested against.
    pub fn ground_truth_naive(&self, q: usize) -> GroundTruth {
        assert!(q < self.len(), "query index out of range");
        let qs = self.clean[q].values();
        let mut dists: Vec<(usize, f64)> = (0..self.len())
            .filter(|&i| i != q)
            .map(|i| (i, euclidean(qs, self.clean[i].values())))
            .collect();
        dists.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distances"));
        let kth = dists[self.k - 1];
        GroundTruth {
            neighbors: dists[..self.k].iter().map(|(i, _)| *i).collect(),
            anchor: kth.0,
            clean_distance: kth.1,
        }
    }

    /// The calibrated threshold for `technique` on query `q`: the
    /// technique's own measure between the observed `q` and the observed
    /// anchor `c` (paper §4.1.2).
    pub fn calibrated_threshold(&self, q: usize, technique: &Technique) -> f64 {
        let gt = self.ground_truth(q);
        self.threshold_against(q, gt.anchor, technique)
    }

    /// Threshold measured against a specific anchor (avoids recomputing
    /// ground truth when the caller already has it).
    pub fn threshold_against(&self, q: usize, anchor: usize, technique: &Technique) -> f64 {
        let qu = &self.uncertain[q];
        let cu = &self.uncertain[anchor];
        match technique {
            // "Since the distances in MUNICH and PROUD are based on the
            // Euclidean distance, we will use the same threshold for both
            // methods, ε_eucl."
            Technique::Euclidean | Technique::Munich { .. } | Technique::Proud { .. } => {
                euclidean(qu.values(), cu.values())
            }
            Technique::Dust(d) => d.distance(qu, cu),
            Technique::Uma(u) => u.distance(qu, cu),
            Technique::Uema(u) => u.distance(qu, cu),
        }
    }

    /// Reference implementation of [`QueryEngine::answer_set`]: the
    /// per-query candidate scan with no precomputation, no early
    /// abandonment and no pruning. Kept as the naive baseline the engine
    /// is tested against.
    pub fn answer_set_naive(&self, q: usize, technique: &Technique, epsilon: f64) -> Vec<usize> {
        assert!(q < self.len(), "query index out of range");
        let others = (0..self.len()).filter(|&i| i != q);
        match technique {
            Technique::Proud { proud, tau } => {
                let qu = &self.uncertain[q];
                others
                    .filter(|&i| proud.matches(qu, &self.uncertain[i], epsilon, *tau))
                    .collect()
            }
            Technique::Munich { munich, tau } => {
                let multi = self
                    .multi
                    .as_ref()
                    .expect("MUNICH requires multi-observation data in the task");
                if epsilon.is_nan() || epsilon < 0.0 {
                    // Matches nothing, as in every other technique.
                    return Vec::new();
                }
                others
                    .filter(|&i| munich.matches(&multi[q], &multi[i], epsilon, *tau))
                    .collect()
            }
            _ => self
                .naive_distances(q, technique)
                .into_iter()
                .flatten()
                .filter(|&(_, d)| d <= epsilon)
                .map(|(i, _)| i)
                .collect(),
        }
    }

    /// The full distance pass behind the distance oracles: `(i,
    /// distance(q, i))` for every `i ≠ q` in index order, re-filtering
    /// each member per pair; `None` for the probabilistic techniques.
    fn naive_distances(&self, q: usize, technique: &Technique) -> Option<Vec<(usize, f64)>> {
        let qu = &self.uncertain[q];
        let others = (0..self.len()).filter(|&i| i != q);
        Some(match technique {
            Technique::Euclidean => others
                .map(|i| (i, euclidean(qu.values(), self.uncertain[i].values())))
                .collect(),
            Technique::Dust(d) => others
                .map(|i| (i, d.distance(qu, &self.uncertain[i])))
                .collect(),
            Technique::Uma(_) | Technique::Uema(_) => {
                let fq = technique.filtered(qu);
                others
                    .map(|i| {
                        let fi = technique.filtered(&self.uncertain[i]);
                        (i, euclidean(fq.values(), fi.values()))
                    })
                    .collect()
            }
            Technique::Proud { .. } | Technique::Munich { .. } => return None,
        })
    }

    /// For probabilistic techniques: `Pr(distance(q, i) ≤ ε)` for every
    /// candidate `i ≠ q`, as `(index, probability)` pairs (all `0.0` for a
    /// negative or NaN ε); `None` for non-probabilistic techniques.
    /// Reference implementation of [`QueryEngine::probabilities`] with
    /// per-pair MBI recomputation, kept as the naive baseline the engine
    /// is tested against.
    ///
    /// Thresholding these probabilities at τ reproduces the range answer
    /// exactly (PROUD's `ε_norm ≥ ε_limit` test is `Φ(ε_norm) ≥ τ` by
    /// monotonicity of Φ), so τ sweeps can reuse one probability pass.
    pub fn probabilities_naive(
        &self,
        q: usize,
        technique: &Technique,
        epsilon: f64,
    ) -> Option<Vec<(usize, f64)>> {
        let qu = &self.uncertain[q];
        let others = (0..self.len()).filter(|&i| i != q);
        // A negative or NaN ε bounds no distance: every probability is 0,
        // as the range answer is empty.
        let degenerate = epsilon.is_nan() || epsilon < 0.0;
        match technique {
            Technique::Proud { .. } | Technique::Munich { .. } if degenerate => {
                Some(others.map(|i| (i, 0.0)).collect())
            }
            Technique::Proud { proud, .. } => Some(
                others
                    .map(|i| (i, proud.probability_within(qu, &self.uncertain[i], epsilon)))
                    .collect(),
            ),
            Technique::Munich { munich, .. } => {
                let multi = self
                    .multi
                    .as_ref()
                    .expect("MUNICH requires multi-observation data in the task");
                let qm = &multi[q];
                Some(
                    others
                        .map(|i| (i, munich.probability_within(qm, &multi[i], epsilon)))
                        .collect(),
                )
            }
            _ => None,
        }
    }

    /// Top-k nearest neighbours of query `q` under the technique's
    /// distance (self excluded), `(index, distance)` sorted ascending by
    /// distance then index; `None` for the probabilistic techniques.
    /// Reference implementation of [`QueryEngine::top_k`]: full distance
    /// pass plus a sort, kept as the naive baseline the engine is tested
    /// against.
    pub fn top_k_naive(
        &self,
        q: usize,
        technique: &Technique,
        k: usize,
    ) -> Option<Vec<(usize, f64)>> {
        assert!(q < self.len(), "query index out of range");
        assert!(k > 0, "k must be positive");
        let mut dists = self.naive_distances(q, technique)?;
        dists.sort_by(|a, b| {
            a.1.partial_cmp(&b.1)
                .expect("finite distances")
                .then(a.0.cmp(&b.0))
        });
        dists.truncate(k);
        Some(dists)
    }

    /// Full §4.1.2 protocol for one query: calibrate, answer, score.
    /// Prepares an engine for this one query; batch callers should
    /// prepare one [`QueryEngine`] and call
    /// [`QueryEngine::query_quality`] per query, which pays the
    /// per-collection work (UMA/UEMA filtering, DUST table warm-up,
    /// MUNICH envelopes) once.
    pub fn query_quality(&self, q: usize, technique: &Technique) -> QualityScores {
        QueryEngine::prepare(self, technique).query_quality(q)
    }
}

/// The default τ grid used by the experiment harness's optimal-τ search.
///
/// Linear steps over (0, 1) plus log-spaced small values: PROUD's CLT
/// probabilities carry a systematic `−2σ²n/√Var` offset (the model
/// distance counts the noise of both series while the calibrated ε
/// observed it once), so at high σ the informative thresholds sit many
/// orders of magnitude below the linear grid. The paper's "optimal
/// probabilistic threshold, determined after repeated experiments"
/// corresponds to searching this widened range.
pub fn default_tau_grid() -> Vec<f64> {
    let mut grid: Vec<f64> = vec![
        1e-60, 1e-40, 1e-30, 1e-20, 1e-15, 1e-10, 1e-7, 1e-5, 1e-4, 1e-3, 0.01,
    ];
    grid.extend((1..20).map(|i| i as f64 * 0.05));
    grid.extend([0.99, 0.999]);
    grid
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::dust::DustConfig;
    use crate::proud::ProudConfig;
    use uts_stats::rng::Seed;
    use uts_uncertain::{perturb, perturb_multi, ErrorFamily, ErrorSpec};

    /// Builds a toy dataset: three clusters of similar series.
    fn toy_task(n_per_cluster: usize, len: usize, sigma: f64, k: usize) -> MatchingTask {
        let seed = Seed::new(42);
        let mut clean = Vec::new();
        for cluster in 0..3 {
            for j in 0..n_per_cluster {
                let phase = cluster as f64 * 2.0;
                let mut rng = seed.derive_u64((cluster * 1000 + j) as u64).rng();
                use rand::Rng;
                // Phase jitter keeps cluster members similar but distinct
                // (an additive constant would be erased by z-normalisation,
                // collapsing each cluster into identical series).
                let jitter: f64 = rng.gen_range(-0.1..0.1);
                clean.push(
                    TimeSeries::from_values(
                        (0..len).map(|i| ((i as f64 / 4.0) + phase + jitter).sin()),
                    )
                    .znormalized(),
                );
            }
        }
        let spec = ErrorSpec::constant(ErrorFamily::Normal, sigma);
        let uncertain: Vec<UncertainSeries> = clean
            .iter()
            .enumerate()
            .map(|(i, c)| perturb(c, &spec, seed.derive("pdf").derive_u64(i as u64)))
            .collect();
        let multi: Vec<MultiObsSeries> = clean
            .iter()
            .enumerate()
            .map(|(i, c)| perturb_multi(c, &spec, 5, seed.derive("multi").derive_u64(i as u64)))
            .collect();
        MatchingTask::new(clean, uncertain, Some(multi), k)
    }

    #[test]
    fn quality_scores_hand_cases() {
        // answer {1,2,3}, truth {2,3,4}: tp=2, p=2/3, r=2/3.
        let s = QualityScores::from_sets(&[1, 2, 3], &[2, 3, 4]);
        assert!((s.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.recall - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.f1 - 2.0 / 3.0).abs() < 1e-12);
        // Perfect.
        let s = QualityScores::from_sets(&[5, 6], &[6, 5]);
        assert_eq!((s.precision, s.recall, s.f1), (1.0, 1.0, 1.0));
        // Disjoint.
        let s = QualityScores::from_sets(&[1], &[2]);
        assert_eq!((s.precision, s.recall, s.f1), (0.0, 0.0, 0.0));
        // Empty answer, non-empty truth.
        let s = QualityScores::from_sets(&[], &[1]);
        assert_eq!((s.precision, s.recall, s.f1), (0.0, 0.0, 0.0));
        // Both empty.
        let s = QualityScores::from_sets(&[], &[]);
        assert_eq!((s.precision, s.recall), (1.0, 1.0));
    }

    #[test]
    fn ground_truth_is_k_nearest() {
        let task = toy_task(5, 32, 0.3, 4);
        let gt = task.ground_truth(0);
        assert_eq!(gt.neighbors.len(), 4);
        assert!(!gt.neighbors.contains(&0), "self must be excluded");
        assert!(gt.neighbors.contains(&gt.anchor));
        // The anchor is the farthest of the k neighbours.
        let qs = task.clean()[0].values();
        for &n in &gt.neighbors {
            let d = euclidean(qs, task.clean()[n].values());
            assert!(d <= gt.clean_distance + 1e-12);
        }
        // Everyone outside the set is at least as far.
        for i in 1..task.len() {
            if !gt.neighbors.contains(&i) {
                let d = euclidean(qs, task.clean()[i].values());
                assert!(d + 1e-12 >= gt.clean_distance);
            }
        }
    }

    #[test]
    fn euclidean_with_clean_data_is_perfect() {
        // Zero noise ⇒ observed = clean ⇒ the calibrated threshold
        // returns exactly the ground-truth set (up to ties).
        let task = {
            let base = toy_task(5, 32, 0.3, 4);
            // Rebuild the observations with near-zero noise.
            let spec = ErrorSpec::constant(ErrorFamily::Normal, 1e-9);
            let uncertain = base
                .clean()
                .iter()
                .enumerate()
                .map(|(i, c)| perturb(c, &spec, Seed::new(i as u64)))
                .collect();
            MatchingTask::new(base.clean().to_vec(), uncertain, None, 4)
        };
        for q in [0, 3, 7] {
            let s = task.query_quality(q, &Technique::Euclidean);
            assert!(s.f1 > 0.99, "q={q}: F1 {}", s.f1);
        }
    }

    #[test]
    fn all_techniques_run_end_to_end() {
        let task = toy_task(4, 16, 0.4, 3);
        let techniques = [
            Technique::Euclidean,
            Technique::Dust(Dust::new(DustConfig::default())),
            Technique::Uma(Uma::default()),
            Technique::Uema(Uema::default()),
            Technique::Proud {
                proud: Proud::new(ProudConfig::with_sigma(0.4)),
                tau: 0.5,
            },
            Technique::Munich {
                munich: Munich::default(),
                tau: 0.5,
            },
        ];
        for t in &techniques {
            let s = task.query_quality(0, t);
            assert!(
                (0.0..=1.0).contains(&s.f1),
                "{}: invalid F1 {}",
                t.kind(),
                s.f1
            );
            assert!((0.0..=1.0).contains(&s.precision));
            assert!((0.0..=1.0).contains(&s.recall));
        }
    }

    #[test]
    fn low_noise_beats_high_noise() {
        // The core qualitative finding: accuracy decreases with σ.
        let low = toy_task(5, 32, 0.2, 4);
        let high = toy_task(5, 32, 2.0, 4);
        let t = Technique::Euclidean;
        let queries: Vec<usize> = (0..low.len()).collect();
        let f1 = |task: &MatchingTask| {
            let engine = QueryEngine::prepare(task, &t);
            let total: f64 = queries.iter().map(|&q| engine.query_quality(q).f1).sum();
            total / queries.len() as f64
        };
        let f_low = f1(&low);
        let f_high = f1(&high);
        assert!(
            f_low > f_high,
            "σ=0.2 F1 {f_low} should beat σ=2.0 F1 {f_high}"
        );
    }

    #[test]
    fn munich_requires_multi_obs() {
        let base = toy_task(4, 8, 0.3, 3);
        let task = MatchingTask::new(base.clean().to_vec(), base.uncertain().to_vec(), None, 3);
        let t = Technique::Munich {
            munich: Munich::default(),
            tau: 0.5,
        };
        let r =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| task.query_quality(0, &t)));
        assert!(r.is_err(), "MUNICH without multi-obs data must panic");
    }

    #[test]
    fn with_tau_only_affects_probabilistic() {
        let d = Technique::Dust(Dust::default());
        assert_eq!(d.with_tau(0.9).kind(), TechniqueKind::Dust);
        let p = Technique::Proud {
            proud: Proud::default(),
            tau: 0.1,
        };
        if let Technique::Proud { tau, .. } = p.with_tau(0.9) {
            assert_eq!(tau, 0.9);
        } else {
            panic!("expected Proud");
        }
    }

    #[test]
    #[should_panic(expected = "size mismatch")]
    fn mismatched_collections_panic() {
        let task = toy_task(4, 8, 0.3, 3);
        let _ = MatchingTask::new(
            task.clean().to_vec(),
            task.uncertain()[..5].to_vec(),
            None,
            3,
        );
    }
}
