//! Extension experiments — capabilities the paper mentions but does not
//! evaluate, exercised end-to-end.
//!
//! * [`run_dtw`] — §3.2 notes that MUNICH and DUST extend to Dynamic Time
//!   Warping. This experiment builds a warped workload (each series gets
//!   a random smooth time warp before perturbation) where aligned
//!   distances are structurally wrong, and compares aligned Euclidean /
//!   DUST against their DTW counterparts.
//! * [`run_moments`] — PROUD's variance formula is exact only for
//!   Gaussian errors; the workspace adds an exact-moment mode
//!   (`MomentModel::ExactMoments`). This experiment measures whether it
//!   matters under the skewed exponential errors.
//! * [`run_synopsis`] — §4.3 notes PROUD can run over a Haar wavelet
//!   synopsis. This experiment measures the pruning rate and the
//!   agreement of the synopsis pre-filter against full PROUD.

use std::time::Instant;

use uts_core::dust::Dust;
use uts_core::matching::QualityScores;
use uts_core::proud::{MomentModel, Proud, ProudConfig, ProudSynopsis};
use uts_datasets::{Catalogue, DatasetId};
use uts_tseries::dtw::{dtw, DtwOptions};
use uts_tseries::{euclidean, TimeSeries};
use uts_uncertain::{perturb, ErrorFamily, ErrorSpec, UncertainSeries};

use crate::config::ExpConfig;
use crate::figures;
use crate::runner::{
    build_task, parallel_map, pick_queries, technique_scores_optimal_tau, ReportedError,
};
use crate::table::Table;

// ---------------------------------------------------------------------------
// ext-dtw
// ---------------------------------------------------------------------------

/// Sakoe–Chiba band used by the DTW variants (fraction of length).
const DTW_BAND_FRACTION: f64 = 0.1;

/// Runs the DTW extension experiment.
pub fn run_dtw(config: &ExpConfig) -> Vec<Table> {
    let seed = config.seed.derive("ext-dtw");
    // CBF: the classical benchmark where the discriminating shape occurs
    // at a random position, so warping-invariance matters.
    let n = 40.min(config.scale.max_series());
    let base = Catalogue::new(seed).generate_scaled(DatasetId::Cbf, n);

    // Warp each series (simulating phase jitter between recordings).
    let warped: Vec<TimeSeries> = base
        .series
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut rng = seed.derive("warp").derive_u64(i as u64).rng();
            let warp = uts_datasets::generator::SmoothWarp::random(&mut rng, 0.05);
            let len = s.len();
            TimeSeries::from_values((0..len).map(|t| {
                let u = t as f64 / (len - 1) as f64;
                let uw = warp.apply(u);
                // Piecewise-linear read of the original at the warped position.
                let pos = uw * (len - 1) as f64;
                let lo = pos.floor() as usize;
                let hi = (lo + 1).min(len - 1);
                let frac = pos - lo as f64;
                s.at(lo) * (1.0 - frac) + s.at(hi) * frac
            }))
            .znormalized()
        })
        .collect();

    let band = ((warped[0].len() as f64 * DTW_BAND_FRACTION) as usize).max(2);
    let opts = DtwOptions::with_band(band);
    let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.4);
    let observed: Vec<UncertainSeries> = warped
        .iter()
        .enumerate()
        .map(|(i, s)| perturb(s, &spec, seed.derive("obs").derive_u64(i as u64)))
        .collect();

    // Ground truth by clean *DTW* (the right notion of similarity for a
    // warped workload).
    let k = config.ground_truth_k.min(n / 3);
    let queries = pick_queries(n, config.scale.queries_per_dataset(), seed);
    let dust = Dust::default();

    // Four measures over observed series.
    type Measure<'a> = (
        &'a str,
        Box<dyn Fn(&UncertainSeries, &UncertainSeries) -> f64 + Sync + 'a>,
    );
    let measures: Vec<Measure> = vec![
        (
            "Euclidean",
            Box::new(|a, b| euclidean(a.values(), b.values())),
        ),
        (
            "DTW",
            Box::new(move |a, b| dtw(a.values(), b.values(), opts)),
        ),
        ("DUST", Box::new(|a, b| dust.distance(a, b))),
        ("DUST-DTW", Box::new(|a, b| dust.dtw_distance(a, b, opts))),
    ];

    let mut table = Table::new(
        format!("Extension (DTW): F1 on warped CBF, normal error sigma=0.4, band {band}"),
        vec![
            "measure".into(),
            "mean_F1".into(),
            "mean_precision".into(),
            "mean_recall".into(),
        ],
    );
    for (name, measure) in &measures {
        let scores = parallel_map(&queries, |&q| {
            // Clean DTW ground truth.
            let mut clean_d: Vec<(usize, f64)> = (0..n)
                .filter(|&i| i != q)
                .map(|i| (i, dtw(warped[q].values(), warped[i].values(), opts)))
                .collect();
            clean_d.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
            let truth: Vec<usize> = clean_d[..k].iter().map(|(i, _)| *i).collect();
            let anchor = clean_d[k - 1].0;
            // Calibrated threshold in the measure's own space.
            let eps = measure(&observed[q], &observed[anchor]);
            let answer: Vec<usize> = (0..n)
                .filter(|&i| i != q && measure(&observed[q], &observed[i]) <= eps)
                .collect();
            QualityScores::from_sets(&answer, &truth)
        });
        let agg = crate::runner::ScoreAgg::from_scores(&scores);
        table.push_row(vec![
            name.to_string(),
            Table::cell_ci(agg.f1.mean(), agg.f1.confidence_interval(0.95).half_width),
            Table::cell_ci(
                agg.precision.mean(),
                agg.precision.confidence_interval(0.95).half_width,
            ),
            Table::cell_ci(
                agg.recall.mean(),
                agg.recall.confidence_interval(0.95).half_width,
            ),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// ext-moments
// ---------------------------------------------------------------------------

/// Runs the PROUD moment-model experiment.
pub fn run_moments(config: &ExpConfig) -> Vec<Table> {
    let datasets = figures::datasets(config);
    let mut table = Table::new(
        "Extension (moments): PROUD normal-theory vs exact-moment variance, exponential error",
        vec![
            "sigma".into(),
            "PROUD-normal-theory".into(),
            "PROUD-exact-moments".into(),
        ],
    );
    for sigma in config.scale.sigma_grid() {
        let spec = ErrorSpec::constant(ErrorFamily::Exponential, sigma);
        let mut normal_all = crate::runner::ScoreAgg::default();
        let mut exact_all = crate::runner::ScoreAgg::default();
        for dataset in datasets.iter().take(6) {
            let seed = config
                .seed
                .derive("ext-moments")
                .derive(dataset.meta.name)
                .derive_u64((sigma * 1000.0) as u64);
            let task = build_task(
                dataset,
                &spec,
                ReportedError::Truthful,
                None,
                config.ground_truth_k,
                seed,
            );
            let queries = pick_queries(task.len(), config.scale.queries_per_dataset(), seed);
            for (model, agg) in [
                (MomentModel::NormalTheory, &mut normal_all),
                (MomentModel::ExactMoments, &mut exact_all),
            ] {
                let technique = uts_core::matching::Technique::Proud {
                    proud: Proud::new(ProudConfig {
                        sigma_override: None, // exact mode needs per-point family info
                        moment_model: model,
                    }),
                    tau: 0.5,
                };
                let (_, scores) = technique_scores_optimal_tau(
                    &task,
                    &queries,
                    &technique,
                    &config.scale.tau_grid(),
                );
                agg.merge(&scores);
            }
        }
        table.push_row(vec![
            format!("{sigma:.1}"),
            Table::cell_ci(
                normal_all.f1.mean(),
                normal_all.f1.confidence_interval(0.95).half_width,
            ),
            Table::cell_ci(
                exact_all.f1.mean(),
                exact_all.f1.confidence_interval(0.95).half_width,
            ),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// ext-synopsis
// ---------------------------------------------------------------------------

/// Runs the PROUD Haar-synopsis pruning experiment.
pub fn run_synopsis(config: &ExpConfig) -> Vec<Table> {
    let seed = config.seed.derive("ext-synopsis");
    let n = 60.min(config.scale.max_series());
    let dataset = Catalogue::new(seed).generate_scaled(DatasetId::Fish, n);
    let sigma = 0.5;
    let spec = ErrorSpec::constant(ErrorFamily::Normal, sigma);
    let cfg = ProudConfig::with_sigma(sigma);
    let proud = Proud::new(cfg);
    let observed: Vec<UncertainSeries> = dataset
        .series
        .iter()
        .enumerate()
        .map(|(i, s)| perturb(s, &spec, seed.derive_u64(i as u64)))
        .collect();
    let queries = pick_queries(n, config.scale.queries_per_dataset(), seed);
    let tau = 0.5;

    let mut table = Table::new(
        "Extension (synopsis): PROUD with Haar-prefix pruning (FISH, sigma=0.5, tau=0.5)",
        vec![
            "coefficients".into(),
            "pruned_frac".into(),
            "false_dismissals".into(),
            "time_full_ms".into(),
            "time_pruned_ms".into(),
        ],
    );

    // Reference: full PROUD answers and timing.
    let eps_of = |q: usize| {
        // Calibrate against the 10th clean NN, as everywhere else.
        let qs = dataset.series[q].values();
        let mut d: Vec<(usize, f64)> = (0..n)
            .filter(|&i| i != q)
            .map(|i| (i, euclidean(qs, dataset.series[i].values())))
            .collect();
        d.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
        let anchor = d[config.ground_truth_k.min(n / 3) - 1].0;
        euclidean(observed[q].values(), observed[anchor].values())
    };
    let epsilons: Vec<f64> = queries.iter().map(|&q| eps_of(q)).collect();

    let t0 = Instant::now();
    let full_answers: Vec<Vec<usize>> = queries
        .iter()
        .zip(&epsilons)
        .map(|(&q, &eps)| {
            (0..n)
                .filter(|&i| i != q && proud.matches(&observed[q], &observed[i], eps, tau))
                .collect()
        })
        .collect();
    let time_full = t0.elapsed().as_secs_f64() * 1e3 / queries.len() as f64;

    for k_coeff in [4usize, 8, 16, 32] {
        let synopses: Vec<ProudSynopsis> = observed
            .iter()
            .map(|s| ProudSynopsis::new(s, k_coeff, &cfg))
            .collect();
        let mut pruned = 0usize;
        let mut candidates = 0usize;
        let mut false_dismissals = 0usize;
        let t0 = Instant::now();
        for ((&q, &eps), full) in queries.iter().zip(&epsilons).zip(&full_answers) {
            let mut answer = Vec::new();
            for i in (0..n).filter(|&i| i != q) {
                candidates += 1;
                // Conservative pre-filter: an upper bound below τ proves
                // the candidate cannot pass the full test.
                if synopses[q].probability_upper_bound(&synopses[i], eps) < tau {
                    pruned += 1;
                    continue;
                }
                if proud.matches(&observed[q], &observed[i], eps, tau) {
                    answer.push(i);
                }
            }
            false_dismissals += full.iter().filter(|i| !answer.contains(i)).count();
        }
        let time_pruned = t0.elapsed().as_secs_f64() * 1e3 / queries.len() as f64;
        table.push_row(vec![
            k_coeff.to_string(),
            Table::cell(pruned as f64 / candidates as f64),
            false_dismissals.to_string(),
            Table::cell(time_full),
            Table::cell(time_pruned),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// ext-bridge
// ---------------------------------------------------------------------------

/// Runs the model-bridge experiment: MUNICH's repeated-observation data
/// consumed (a) natively by MUNICH and (b) by PROUD/DUST through the
/// sample-estimation bridge (`MultiObsSeries::to_uncertain`), at
/// increasing samples-per-timestamp.
///
/// The question: how many repeated observations does the estimation
/// bridge need before the pdf-model techniques match their
/// known-σ performance? (§3.1 frames the two models as interchangeable
/// in principle; this measures the sample cost of that equivalence.)
pub fn run_bridge(config: &ExpConfig) -> Vec<Table> {
    use uts_core::matching::{MatchingTask, Technique};
    use uts_uncertain::{perturb_multi, MultiObsSeries};

    let seed = config.seed.derive("ext-bridge");
    let n = 40.min(config.scale.max_series());
    let dataset = Catalogue::new(seed).generate_scaled(DatasetId::SyntheticControl, n);
    let sigma = 0.6;
    let spec = ErrorSpec::constant(ErrorFamily::Normal, sigma);
    let k = config.ground_truth_k.min(n / 3);
    let tau_grid = config.scale.tau_grid();

    let mut table = Table::new(
        "Extension (bridge): sample-estimated pdf model vs known-sigma, syntheticControl, sigma=0.6",
        vec![
            "samples_per_point".into(),
            "DUST-estimated".into(),
            "DUST-known-sigma".into(),
            "PROUD-estimated".into(),
            "MUNICH-native".into(),
        ],
    );

    for s in [2usize, 3, 5, 10, 20] {
        let multi: Vec<MultiObsSeries> = dataset
            .series
            .iter()
            .enumerate()
            .map(|(i, c)| perturb_multi(c, &spec, s, seed.derive_u64((s * 1000 + i) as u64)))
            .collect();
        // Bridge: estimate value + σ from the samples.
        let estimated: Vec<_> = multi
            .iter()
            .map(|m| m.to_uncertain(ErrorFamily::Normal, 1e-3))
            .collect();
        // Known-σ reference: same estimated values, true σ declared.
        let known: Vec<_> = estimated
            .iter()
            .map(|u| u.with_reported_sigma(sigma))
            .collect();

        let task_est = MatchingTask::new(dataset.series.clone(), estimated, Some(multi.clone()), k);
        let task_known = MatchingTask::new(dataset.series.clone(), known, None, k);
        let queries = pick_queries(n, config.scale.queries_per_dataset(), seed);

        let dust_est = crate::runner::technique_scores(&task_est, &queries, &figures::dust());
        let dust_known = crate::runner::technique_scores(&task_known, &queries, &figures::dust());
        let (_, proud_est) = technique_scores_optimal_tau(
            &task_est,
            &queries,
            &uts_core::matching::Technique::Proud {
                proud: Proud::new(ProudConfig::default()), // per-point estimated σ
                tau: 0.5,
            },
            &tau_grid,
        );
        let (_, munich) = technique_scores_optimal_tau(
            &task_est,
            &queries,
            &Technique::Munich {
                munich: uts_core::munich::Munich::new(uts_core::munich::MunichConfig {
                    strategy: uts_core::munich::MunichStrategy::MonteCarlo { samples: 500 },
                    ..uts_core::munich::MunichConfig::default()
                }),
                tau: 0.5,
            },
            &tau_grid,
        );

        table.push_row(vec![
            s.to_string(),
            Table::cell_ci(
                dust_est.f1.mean(),
                dust_est.f1.confidence_interval(0.95).half_width,
            ),
            Table::cell_ci(
                dust_known.f1.mean(),
                dust_known.f1.confidence_interval(0.95).half_width,
            ),
            Table::cell_ci(
                proud_est.f1.mean(),
                proud_est.f1.confidence_interval(0.95).half_width,
            ),
            Table::cell_ci(
                munich.f1.mean(),
                munich.f1.confidence_interval(0.95).half_width,
            ),
        ]);
    }
    vec![table]
}

// ---------------------------------------------------------------------------
// ext-classify
// ---------------------------------------------------------------------------

/// Runs the 1-NN classification experiment: leave-one-out accuracy on
/// three datasets under the mixed-noise workload, per distance measure —
/// the "mining algorithm built on similarity matching" the paper's
/// introduction motivates.
pub fn run_classify(config: &ExpConfig) -> Vec<Table> {
    use uts_core::classify::knn_loocv;
    use uts_core::engine::QueryEngine;
    use uts_core::matching::Technique;
    use uts_core::uma::{Uema, Uma};
    use uts_core::Collection;

    let seed = config.seed.derive("ext-classify");
    let spec = ErrorSpec::paper_mixed(ErrorFamily::Normal);
    let techniques = [
        Technique::Euclidean,
        Technique::Dust(Dust::default()),
        Technique::Uma(Uma::default()),
        Technique::Uema(Uema::default()),
    ];
    let mut table = Table::new(
        "Extension (classification): leave-one-out 1-NN accuracy, mixed normal error",
        vec![
            "dataset".into(),
            "Euclidean".into(),
            "DUST".into(),
            "UMA".into(),
            "UEMA".into(),
        ],
    );
    for id in [
        DatasetId::Cbf,
        DatasetId::GunPoint,
        DatasetId::SyntheticControl,
    ] {
        let n = 48.min(config.scale.max_series());
        let dataset = Catalogue::new(seed).generate_scaled(id, n);
        let observed: Vec<UncertainSeries> = dataset
            .series
            .iter()
            .enumerate()
            .map(|(i, s)| perturb(s, &spec, seed.derive(id.name()).derive_u64(i as u64)))
            .collect();
        let collection = Collection::try_new(observed, None).expect("no multi-observation rows");
        let mut row = vec![id.name().to_string()];
        for technique in &techniques {
            let engine = QueryEngine::prepare(&collection, technique);
            let outcome = knn_loocv(&engine, &dataset.labels, 1).expect("distance-ranked");
            row.push(Table::cell(outcome.accuracy()));
        }
        table.push_row(row);
    }
    vec![table]
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::config::Scale;

    #[test]
    fn dtw_extension_shows_warping_gain() {
        let config = ExpConfig::with_scale(Scale::Quick);
        let tables = run_dtw(&config);
        // Pinned rows: DUST-DTW's served tables must keep every score.
        let want = [
            ["Euclidean", "0.666±0.106", "0.764±0.190", "0.734±0.253"],
            ["DTW", "0.760±0.125", "0.815±0.152", "0.781±0.207"],
            ["DUST", "0.666±0.106", "0.764±0.190", "0.734±0.253"],
            ["DUST-DTW", "0.760±0.125", "0.815±0.152", "0.781±0.207"],
        ];
        assert_eq!(
            tables[0].rows,
            want.map(|row| row.map(String::from).to_vec())
        );
        // Parse mean F1 cells ("x.xxx±y.yyy").
        let f1 = |row: usize| -> f64 {
            tables[0].rows[row][1]
                .split('±')
                .next()
                .unwrap()
                .parse()
                .unwrap()
        };
        let (eucl, dtw_f1, _dust, dust_dtw) = (f1(0), f1(1), f1(2), f1(3));
        // On a warped workload with DTW ground truth, warping-aware
        // measures must beat aligned ones.
        assert!(
            dtw_f1 > eucl && dust_dtw > eucl,
            "DTW {dtw_f1} / DUST-DTW {dust_dtw} should beat aligned Euclidean {eucl}"
        );
    }

    #[test]
    fn synopsis_never_dismisses_falsely() {
        let config = ExpConfig::with_scale(Scale::Quick);
        let tables = run_synopsis(&config);
        for row in &tables[0].rows {
            assert_eq!(row[2], "0", "synopsis pruning produced false dismissals");
        }
    }

    #[test]
    fn bridge_estimation_improves_with_samples() {
        let config = ExpConfig::with_scale(Scale::Quick);
        let tables = run_bridge(&config);
        let rows = &tables[0].rows;
        assert_eq!(rows.len(), 5);
        let f1 = |row: &Vec<String>, col: usize| -> f64 {
            row[col].split('±').next().unwrap().parse().unwrap()
        };
        // With many samples the estimated-σ DUST approaches the known-σ
        // reference (within a small gap).
        let last = &rows[rows.len() - 1];
        let est = f1(last, 1);
        let known = f1(last, 2);
        assert!(
            est + 0.1 >= known,
            "estimated-σ DUST ({est}) far from known-σ ({known}) at 20 samples"
        );
    }

    #[test]
    fn classification_runs_on_three_datasets() {
        let tables = run_classify(&ExpConfig::default());
        let want = [
            ["CBF", "0.7708", "0.8125", "0.8750", "0.8750"],
            ["GunPoint", "0.8750", "0.9375", "0.9792", "0.9792"],
            ["syntheticControl", "0.6667", "0.7292", "0.8958", "0.8333"],
        ];
        assert_eq!(
            tables[0].rows,
            want.map(|row| row.map(String::from).to_vec())
        );
    }
}
