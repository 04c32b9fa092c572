//! Workload construction and parallel evaluation.
//!
//! Translates a clean [`Dataset`] plus an [`ErrorSpec`] into the paper's
//! §4.1.2 matching task, picks the query set, and evaluates techniques
//! over all queries in parallel (`parallel_map` on uts-core's worker
//! pool — queries are embarrassingly parallel).

use std::time::Instant;

use uts_core::engine::QueryEngine;
use uts_core::matching::{MatchingTask, QualityScores, Technique};
use uts_datasets::Dataset;
use uts_stats::rng::Seed;
use uts_stats::Moments;
use uts_uncertain::{perturb, perturb_multi, ErrorSpec, MultiObsSeries, UncertainSeries};

/// What the techniques are *told* about the per-point error — the paper's
/// misreporting experiments (Figures 8–10) deliberately diverge from the
/// truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ReportedError {
    /// Techniques receive the true perturbation parameters.
    Truthful,
    /// Every point is reported as having this σ (family preserved).
    ConstantSigma(f64),
}

/// Builds the matching task for one dataset and one perturbation spec.
///
/// Each series gets an independent perturbation stream derived from
/// `seed` and its index; `munich_samples` additionally materialises the
/// repeated-observation views MUNICH needs (skip it for the experiments
/// that exclude MUNICH — it multiplies the perturbation work by `s`).
pub fn build_task(
    dataset: &Dataset,
    spec: &ErrorSpec,
    reported: ReportedError,
    munich_samples: Option<usize>,
    k: usize,
    seed: Seed,
) -> MatchingTask {
    let uncertain: Vec<UncertainSeries> = dataset
        .series
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let p = perturb(c, spec, seed.derive("pdf").derive_u64(i as u64));
            match reported {
                ReportedError::Truthful => p,
                ReportedError::ConstantSigma(s) => p.with_reported_sigma(s),
            }
        })
        .collect();
    let multi: Option<Vec<MultiObsSeries>> = munich_samples.map(|s| {
        dataset
            .series
            .iter()
            .enumerate()
            .map(|(i, c)| perturb_multi(c, spec, s, seed.derive("multi").derive_u64(i as u64)))
            .collect()
    });
    MatchingTask::new(dataset.series.clone(), uncertain, multi, k)
}

/// Deterministic query subset: `count` distinct indices out of `n`
/// (all of them when `count >= n`), shuffled by `seed`.
pub fn pick_queries(n: usize, count: usize, seed: Seed) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    if count >= n {
        return idx;
    }
    use rand::seq::SliceRandom;
    let mut rng = seed.derive("queries").rng();
    idx.shuffle(&mut rng);
    idx.truncate(count);
    idx.sort_unstable();
    idx
}

// Now lives in uts-core (the engine's MUNICH refinement fans candidates
// over it too); re-exported here so existing callers keep their path.
pub use uts_core::parallel::parallel_map;

/// Aggregated quality over a query set: one [`Moments`] accumulator per
/// metric, ready for means and 95% confidence intervals.
#[derive(Debug, Clone, Default)]
pub struct ScoreAgg {
    /// F1 accumulator.
    pub f1: Moments,
    /// Precision accumulator.
    pub precision: Moments,
    /// Recall accumulator.
    pub recall: Moments,
}

impl ScoreAgg {
    /// Adds one query's scores.
    pub fn push(&mut self, s: QualityScores) {
        self.f1.push(s.f1);
        self.precision.push(s.precision);
        self.recall.push(s.recall);
    }

    /// Merges another aggregate (for cross-dataset averaging).
    pub fn merge(&mut self, other: &ScoreAgg) {
        self.f1.merge(&other.f1);
        self.precision.merge(&other.precision);
        self.recall.merge(&other.recall);
    }

    /// Builds from a batch of per-query scores.
    pub fn from_scores(scores: &[QualityScores]) -> Self {
        let mut agg = Self::default();
        for &s in scores {
            agg.push(s);
        }
        agg
    }
}

/// Evaluates a technique over the query set in parallel (full §4.1.2
/// protocol per query: calibrate threshold → answer → score).
///
/// One [`QueryEngine`] is prepared up front and shared by all workers, so
/// the per-collection state (UMA/UEMA filtered series, DUST tables,
/// MUNICH envelopes) is computed once instead of once per query.
pub fn technique_scores(task: &MatchingTask, queries: &[usize], technique: &Technique) -> ScoreAgg {
    let engine = QueryEngine::prepare(task, technique);
    let scores = parallel_map(queries, |&q| engine.query_quality(q));
    ScoreAgg::from_scores(&scores)
}

/// Evaluates a probabilistic technique at its *optimal* τ (paper: "we are
/// using the optimal probabilistic threshold, determined after repeated
/// experiments"): grid-search τ on the same query set, then score.
///
/// Returns `(best_tau, aggregate)`. Non-probabilistic techniques skip the
/// search.
pub fn technique_scores_optimal_tau(
    task: &MatchingTask,
    queries: &[usize],
    technique: &Technique,
    tau_grid: &[f64],
) -> (f64, ScoreAgg) {
    use uts_core::matching::TechniqueKind;
    match technique.kind() {
        TechniqueKind::Munich | TechniqueKind::Proud => {
            // One probability pass per query (the expensive part), then a
            // cheap τ sweep by thresholding — exactly equivalent to
            // re-running `answer_set` per τ (see
            // `MatchingTask::probabilities_naive`).
            let engine = QueryEngine::prepare(task, technique);
            let per_query = parallel_map(queries, |&q| {
                let gt = task.ground_truth(q);
                let eps = task.threshold_against(q, gt.anchor, technique);
                let probs = engine
                    .probabilities(q, eps)
                    .expect("probabilistic technique");
                (gt.neighbors, probs)
            });
            let mut best: Option<(f64, ScoreAgg)> = None;
            for &tau in tau_grid {
                let mut agg = ScoreAgg::default();
                for (truth, probs) in &per_query {
                    let answer: Vec<usize> = probs
                        .iter()
                        .filter(|(_, p)| *p >= tau)
                        .map(|(i, _)| *i)
                        .collect();
                    agg.push(QualityScores::from_sets(&answer, truth));
                }
                let better = match &best {
                    Some((_, b)) => agg.f1.mean() > b.f1.mean(),
                    None => true,
                };
                if better {
                    best = Some((tau, agg));
                }
            }
            best.expect("non-empty grid")
        }
        _ => (0.0, technique_scores(task, queries, technique)),
    }
}

/// Timed passes over the query set in [`time_per_query_ms`]; the fastest
/// one is reported.
const TIMED_PASSES: usize = 5;

/// Wall-clock milliseconds per similarity query for a technique: runs the
/// calibrated matching query for each query index and divides by the
/// query count. Threshold calibration and the engine's per-collection
/// preparation are excluded from the timed region (they are amortised
/// per-collection work, not per-query work).
///
/// One untimed pass warms the caches (lazily built tables, the worker
/// pool, the data itself); then five timed passes run and the fastest
/// is reported. A pass takes about a millisecond, so a single cold pass
/// mixes first-touch costs and scheduler noise into the figure; the
/// minimum over warm passes is the steadiest estimate of the query
/// path's own cost within one process.
pub fn time_per_query_ms(task: &MatchingTask, queries: &[usize], technique: &Technique) -> f64 {
    // Pre-calibrate and prepare outside the timed region.
    let thresholds: Vec<(usize, f64)> = queries
        .iter()
        .map(|&q| (q, task.calibrated_threshold(q, technique)))
        .collect();
    let engine = QueryEngine::prepare(task, technique);
    let pass = || {
        let start = Instant::now();
        let mut guard = 0usize;
        for &(q, eps) in &thresholds {
            guard += engine.answer_set(q, eps).len();
        }
        // Keep the result-set size observable so the optimiser cannot
        // elide the query loop.
        std::hint::black_box(guard);
        start.elapsed().as_secs_f64() * 1e3
    };
    pass();
    let fastest = (0..TIMED_PASSES)
        .map(|_| pass())
        .fold(f64::INFINITY, f64::min);
    fastest / queries.len().max(1) as f64
}

#[cfg(test)]
mod unit {
    use super::*;
    use uts_core::matching::Technique;
    use uts_datasets::{Catalogue, DatasetId};
    use uts_uncertain::ErrorFamily;

    fn small_dataset() -> Dataset {
        Catalogue::new(Seed::new(77)).generate_scaled(DatasetId::GunPoint, 24)
    }

    #[test]
    fn build_task_shapes() {
        let d = small_dataset();
        let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.4);
        let task = build_task(&d, &spec, ReportedError::Truthful, Some(3), 5, Seed::new(1));
        assert_eq!(task.len(), 24);
        assert_eq!(task.k(), 5);
        assert!(task.multi().is_some());
        assert_eq!(task.multi().unwrap()[0].samples_per_point(), 3);
        let task = build_task(&d, &spec, ReportedError::Truthful, None, 5, Seed::new(1));
        assert!(task.multi().is_none());
    }

    #[test]
    fn reported_sigma_override_applies() {
        let d = small_dataset();
        let spec = ErrorSpec::paper_mixed(ErrorFamily::Normal);
        let task = build_task(
            &d,
            &spec,
            ReportedError::ConstantSigma(0.7),
            None,
            5,
            Seed::new(2),
        );
        for u in task.uncertain() {
            assert!(u.errors().iter().all(|e| e.sigma == 0.7));
        }
    }

    #[test]
    fn build_task_is_deterministic() {
        let d = small_dataset();
        let spec = ErrorSpec::constant(ErrorFamily::Exponential, 0.6);
        let a = build_task(&d, &spec, ReportedError::Truthful, None, 5, Seed::new(3));
        let b = build_task(&d, &spec, ReportedError::Truthful, None, 5, Seed::new(3));
        assert_eq!(a.uncertain()[7], b.uncertain()[7]);
    }

    #[test]
    fn pick_queries_contract() {
        let q = pick_queries(100, 10, Seed::new(4));
        assert_eq!(q.len(), 10);
        assert!(q.windows(2).all(|w| w[1] > w[0]));
        assert!(q.iter().all(|&i| i < 100));
        // Same seed → same set; different seed → (almost surely) different.
        assert_eq!(q, pick_queries(100, 10, Seed::new(4)));
        assert_ne!(q, pick_queries(100, 10, Seed::new(5)));
        // count >= n returns everything.
        assert_eq!(pick_queries(5, 10, Seed::new(6)), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..250).collect();
        let out = parallel_map(&items, |&x| x * 2);
        assert_eq!(out, items.iter().map(|&x| x * 2).collect::<Vec<_>>());
        // Tiny input takes the sequential path.
        let out = parallel_map(&items[..2], |&x| x + 1);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn scores_pipeline_end_to_end() {
        let d = small_dataset();
        let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.3);
        let task = build_task(&d, &spec, ReportedError::Truthful, None, 5, Seed::new(7));
        let queries = pick_queries(task.len(), 6, Seed::new(8));
        let agg = technique_scores(&task, &queries, &Technique::Euclidean);
        assert_eq!(agg.f1.count(), 6);
        let ci = agg.f1.confidence_interval(0.95);
        assert!((0.0..=1.0).contains(&ci.mean));
    }

    #[test]
    fn optimal_tau_beats_fixed_tau() {
        let d = small_dataset();
        let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.5);
        let task = build_task(&d, &spec, ReportedError::Truthful, None, 5, Seed::new(9));
        let queries = pick_queries(task.len(), 6, Seed::new(10));
        let proud = Technique::Proud {
            proud: uts_core::proud::Proud::new(uts_core::proud::ProudConfig::with_sigma(0.5)),
            tau: 0.5,
        };
        let grid = [0.1, 0.3, 0.5, 0.7, 0.9];
        let (best_tau, best) = technique_scores_optimal_tau(&task, &queries, &proud, &grid);
        assert!(grid.contains(&best_tau));
        for tau in grid {
            let fixed = technique_scores(&task, &queries, &proud.with_tau(tau));
            assert!(best.f1.mean() + 1e-12 >= fixed.f1.mean(), "τ={tau}");
        }
    }

    /// The runner's τ sweep over one probability pass per query equals
    /// re-running `answer_set` at every grid τ: its best F1 is the
    /// maximum of the per-τ scores, and its τ the first grid point that
    /// reaches it.
    #[test]
    fn optimal_tau_sweep_equals_per_tau_answer_sets() {
        use uts_core::matching::default_tau_grid;
        use uts_core::munich::Munich;
        use uts_core::proud::{Proud, ProudConfig};
        use uts_tseries::TimeSeries;
        // Short series keep MUNICH's per-τ refinements cheap.
        let mut d = small_dataset();
        for s in &mut d.series {
            *s = TimeSeries::from_values(s.values()[..24].iter().copied()).znormalized();
        }
        let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.5);
        let task = build_task(
            &d,
            &spec,
            ReportedError::Truthful,
            Some(3),
            5,
            Seed::new(13),
        );
        let queries = pick_queries(task.len(), 4, Seed::new(14));
        let grid = default_tau_grid();
        for technique in [
            Technique::Proud {
                proud: Proud::new(ProudConfig::with_sigma(0.5)),
                tau: 0.5,
            },
            Technique::Munich {
                munich: Munich::default(),
                tau: 0.5,
            },
        ] {
            let name = technique.kind();
            let per_tau: Vec<f64> = grid
                .iter()
                .map(|&tau| {
                    let t = technique.with_tau(tau);
                    let engine = QueryEngine::prepare(&task, &t);
                    let scores: Vec<QualityScores> = queries
                        .iter()
                        .map(|&q| {
                            let gt = task.ground_truth(q);
                            let eps = task.threshold_against(q, gt.anchor, &t);
                            QualityScores::from_sets(&engine.answer_set(q, eps), &gt.neighbors)
                        })
                        .collect();
                    ScoreAgg::from_scores(&scores).f1.mean()
                })
                .collect();
            let max_of = |f1: &[f64]| f1.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert!(
                per_tau.iter().any(|&f| f < max_of(&per_tau)),
                "{name}: τ matters"
            );
            // The grid's smallest τ accept every candidate alike, so its
            // head is a plateau: there the first-τ tie rule decides.
            let head = 5;
            assert!(per_tau[..head].iter().all(|&f| f == per_tau[0]), "{name}");
            for len in [grid.len(), head] {
                let (grid, per_tau) = (&grid[..len], &per_tau[..len]);
                let max = max_of(per_tau);
                let first = per_tau.iter().position(|&f| f == max).unwrap();
                let (best_tau, best) =
                    technique_scores_optimal_tau(&task, &queries, &technique, grid);
                assert_eq!(best.f1.mean().to_bits(), max.to_bits(), "{name} len={len}");
                assert_eq!(
                    best_tau.to_bits(),
                    grid[first].to_bits(),
                    "{name} len={len}"
                );
            }
        }
    }

    #[test]
    fn timing_returns_positive() {
        let d = small_dataset();
        let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.4);
        let task = build_task(&d, &spec, ReportedError::Truthful, None, 5, Seed::new(11));
        let queries = pick_queries(task.len(), 4, Seed::new(12));
        let ms = time_per_query_ms(&task, &queries, &Technique::Euclidean);
        assert!(ms > 0.0 && ms.is_finite());
    }
}
