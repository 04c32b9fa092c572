//! Figure 4 — F1 of MUNICH, PROUD, DUST and Euclidean on the truncated
//! Gun Point dataset, varying the error standard deviation, for the
//! normal (a), uniform (b) and exponential (c) error distributions.
//!
//! Paper setup (§4.2.1): "We compare MUNICH, PROUD, DUST and Euclidean on
//! the Gun Point dataset, truncating it to 60 time series of length 6.
//! For each timestamp, we have 5 samples as input for MUNICH. Results are
//! averaged on 5 random queries. For both MUNICH and PROUD we are using
//! the optimal probabilistic threshold τ … Distance thresholds are chosen
//! such that in the ground truth set they return exactly 10 time series."

use uts_datasets::generator::{generate_template_dataset, TemplateConfig};
use uts_datasets::{Dataset, DatasetId, Spread};
use uts_uncertain::{ErrorFamily, ErrorSpec};

use crate::config::ExpConfig;
use crate::figures;
use crate::runner::{
    build_task, pick_queries, technique_scores, technique_scores_optimal_tau, ReportedError,
};
use crate::table::Table;

/// Number of series after truncation (paper: 60).
const N_SERIES: usize = 60;
/// Truncated series length (paper: 6).
const SERIES_LEN: usize = 6;
/// Random queries (paper: 5).
const N_QUERIES: usize = 5;

/// Runs the experiment; returns one table per error family.
pub fn run(config: &ExpConfig) -> Vec<Table> {
    let n_series = N_SERIES.min(config.scale.max_series());
    // The paper truncates real Gun Point recordings to length 6; those
    // prefixes still differ per recording (human motion varies take to
    // take). Our GunPoint analogue is a smooth parametric arc whose
    // six-point slices are nearly identical across series, which would
    // leave the ground truth arbitrary — so this experiment generates a
    // dedicated two-class, length-6 workload with realistic per-recording
    // variation (high jitter + smooth per-series noise). The calibration
    // target is the experiment's signal-to-noise geometry: clean 10th-NN
    // distances comfortably above the σ = 0.2 noise floor and far below
    // the σ = 2.0 one, as in the paper (paper Figure 4).
    let (series, labels) = generate_template_dataset(
        n_series,
        SERIES_LEN,
        DatasetId::GunPoint.meta().n_classes,
        Spread::Medium,
        &TemplateConfig {
            jitter: 1.0,
            smooth_noise: 0.4,
            ..TemplateConfig::default()
        },
        config.seed.derive("fig4-gunpoint"),
    );
    let dataset = Dataset {
        meta: DatasetId::GunPoint.meta(),
        series,
        labels,
    };

    let mut tables = Vec::new();
    for (panel, family) in [
        ('a', ErrorFamily::Normal),
        ('b', ErrorFamily::Uniform),
        ('c', ErrorFamily::Exponential),
    ] {
        let mut table = Table::new(
            format!(
                "Figure 4({panel}): F1 on truncated GunPoint ({n_series} series, length {SERIES_LEN}), {family} error"
            ),
            vec![
                "sigma".into(),
                "MUNICH".into(),
                "DUST".into(),
                "PROUD".into(),
                "Euclidean".into(),
            ],
        );
        for sigma in config.scale.sigma_grid() {
            let spec = ErrorSpec::constant(family, sigma);
            let seed = config
                .seed
                .derive("fig4")
                .derive(family.name())
                .derive_u64((sigma * 1000.0) as u64);
            let task = build_task(
                &dataset,
                &spec,
                ReportedError::Truthful,
                Some(config.munich_samples),
                config.ground_truth_k,
                seed,
            );
            let queries = pick_queries(task.len(), N_QUERIES, seed);
            let tau_grid = config.scale.tau_grid();

            let (_, munich) =
                technique_scores_optimal_tau(&task, &queries, &figures::munich(), &tau_grid);
            let (_, proud) = technique_scores_optimal_tau(
                &task,
                &queries,
                &figures::proud_with_sigma(sigma),
                &tau_grid,
            );
            let dust = technique_scores(&task, &queries, &figures::dust());
            let eucl = technique_scores(&task, &queries, &figures::euclidean());

            table.push_row(vec![
                format!("{sigma:.1}"),
                Table::cell_ci(
                    munich.f1.mean(),
                    munich.f1.confidence_interval(0.95).half_width,
                ),
                Table::cell_ci(dust.f1.mean(), dust.f1.confidence_interval(0.95).half_width),
                Table::cell_ci(
                    proud.f1.mean(),
                    proud.f1.confidence_interval(0.95).half_width,
                ),
                Table::cell_ci(eucl.f1.mean(), eucl.f1.confidence_interval(0.95).half_width),
            ]);
        }
        tables.push(table);
    }
    tables
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::config::Scale;

    #[test]
    fn runs_at_quick_scale() {
        let mut config = ExpConfig::with_scale(Scale::Quick);
        config.ground_truth_k = 5; // 24-series quick subsample can't give 10 NNs cleanly
        let tables = run(&config);
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert_eq!(t.headers.len(), 5);
            assert_eq!(t.rows.len(), config.scale.sigma_grid().len());
        }
    }
}
