//! Shared fixtures for the criterion benchmarks.
//!
//! The benches mirror the paper's timing figures (11 and 12) and add
//! ablations for three design choices: MUNICH estimation strategies,
//! DUST table resolution, and UMA/UEMA weighting.

#![warn(missing_docs)]

use uts_datasets::{Catalogue, Dataset, DatasetId};
use uts_stats::rng::Seed;
use uts_uncertain::{
    perturb, perturb_multi, ErrorFamily, ErrorSpec, MultiObsSeries, UncertainSeries,
};

/// Root seed shared by all benches (fixed for comparability across runs).
pub const BENCH_SEED: u64 = 0xBE7C;

/// A small clean dataset for timing (30 GunPoint-analogue series).
pub fn bench_dataset() -> Dataset {
    Catalogue::new(Seed::new(BENCH_SEED)).generate_scaled(DatasetId::GunPoint, 30)
}

/// Perturbed pdf-model series for the whole bench dataset.
pub fn bench_uncertain(sigma: f64, family: ErrorFamily) -> Vec<UncertainSeries> {
    let d = bench_dataset();
    let spec = ErrorSpec::constant(family, sigma);
    d.series
        .iter()
        .enumerate()
        .map(|(i, s)| perturb(s, &spec, Seed::new(BENCH_SEED).derive_u64(i as u64)))
        .collect()
}

/// A pair of uncertain series of the given length (values resampled).
pub fn bench_pair(len: usize, sigma: f64) -> (UncertainSeries, UncertainSeries) {
    let d = bench_dataset();
    let spec = ErrorSpec::constant(ErrorFamily::Normal, sigma);
    let a = uts_tseries::resample::resample_series(&d.series[0], len);
    let b = uts_tseries::resample::resample_series(&d.series[1], len);
    (
        perturb(&a, &spec, Seed::new(BENCH_SEED).derive("a")),
        perturb(&b, &spec, Seed::new(BENCH_SEED).derive("b")),
    )
}

/// A full seeded matching task over the bench dataset: clean series,
/// pdf-model perturbation and a multi-observation perturbation, with
/// ground-truth size `k` — the fixture the `query_throughput` bench runs
/// range / top-k / DTW scans against.
pub fn bench_task(sigma: f64, k: usize) -> uts_core::matching::MatchingTask {
    let d = bench_dataset();
    let spec = ErrorSpec::constant(ErrorFamily::Normal, sigma);
    let uncertain: Vec<UncertainSeries> = d
        .series
        .iter()
        .enumerate()
        .map(|(i, s)| {
            perturb(
                s,
                &spec,
                Seed::new(BENCH_SEED).derive("task").derive_u64(i as u64),
            )
        })
        .collect();
    let multi: Vec<MultiObsSeries> = d
        .series
        .iter()
        .enumerate()
        .map(|(i, s)| {
            perturb_multi(
                s,
                &spec,
                3,
                Seed::new(BENCH_SEED)
                    .derive("task-multi")
                    .derive_u64(i as u64),
            )
        })
        .collect();
    uts_core::matching::MatchingTask::new(d.series, uncertain, Some(multi), k)
}

/// A matching task over `n` GunPoint-analogue series — the scalable
/// fixture the `serving_throughput` bench shards. Same construction as
/// [`bench_task`], with the collection size a parameter.
pub fn bench_task_sized(n: usize, sigma: f64, k: usize) -> uts_core::matching::MatchingTask {
    let d = Catalogue::new(Seed::new(BENCH_SEED)).generate_scaled(DatasetId::GunPoint, n);
    let spec = ErrorSpec::constant(ErrorFamily::Normal, sigma);
    let uncertain: Vec<UncertainSeries> = d
        .series
        .iter()
        .enumerate()
        .map(|(i, s)| {
            perturb(
                s,
                &spec,
                Seed::new(BENCH_SEED).derive("task").derive_u64(i as u64),
            )
        })
        .collect();
    let multi: Vec<MultiObsSeries> = d
        .series
        .iter()
        .enumerate()
        .map(|(i, s)| {
            perturb_multi(
                s,
                &spec,
                3,
                Seed::new(BENCH_SEED)
                    .derive("task-multi")
                    .derive_u64(i as u64),
            )
        })
        .collect();
    uts_core::matching::MatchingTask::new(d.series, uncertain, Some(multi), k)
}

/// A clustered synthetic matching task at arbitrary scale — the
/// `index_scaling` fixture. [`Catalogue::generate_scaled`] can only
/// *subsample* a catalogue dataset, so collections beyond the
/// catalogue's size are synthesised directly: sixteen sine-mixture
/// families with per-member phase and frequency jitter (so SAX packing
/// sees real locality, as a recorded archive would), z-normalised,
/// then perturbed under a constant Normal error model. No
/// multi-observation model — MUNICH bypasses the index, and at 100k
/// series the samples would dominate the fixture's memory rather than
/// the measurement.
pub fn bench_task_clustered(
    n: usize,
    len: usize,
    sigma: f64,
    k: usize,
) -> uts_core::matching::MatchingTask {
    const CLUSTERS: usize = 16;
    let clean: Vec<uts_tseries::TimeSeries> = (0..n)
        .map(|i| {
            let c = (i % CLUSTERS) as f64;
            let member = (i / CLUSTERS) as f64;
            let freq = 1.0 / (4.0 + c * 0.7 + member * 1e-4);
            let phase = c * 0.9 + member * 0.003;
            uts_tseries::TimeSeries::from_values((0..len).map(|t| {
                let t = t as f64;
                (t * freq + phase).sin() + 0.3 * (t * freq * 2.3 + phase * 1.7).cos()
            }))
            .znormalized()
        })
        .collect();
    let spec = ErrorSpec::constant(ErrorFamily::Normal, sigma);
    let uncertain: Vec<UncertainSeries> = clean
        .iter()
        .enumerate()
        .map(|(i, s)| {
            perturb(
                s,
                &spec,
                Seed::new(BENCH_SEED)
                    .derive("clustered")
                    .derive_u64(i as u64),
            )
        })
        .collect();
    uts_core::matching::MatchingTask::new(clean, uncertain, None, k)
}

/// A pair of multi-observation series (`n` timestamps × `s` samples).
pub fn bench_multi_pair(n: usize, s: usize, sigma: f64) -> (MultiObsSeries, MultiObsSeries) {
    let d = bench_dataset();
    let spec = ErrorSpec::constant(ErrorFamily::Normal, sigma);
    let a = uts_tseries::resample::resample_series(&d.series[0], n);
    let b = uts_tseries::resample::resample_series(&d.series[1], n);
    (
        perturb_multi(&a, &spec, s, Seed::new(BENCH_SEED).derive("ma")),
        perturb_multi(&b, &spec, s, Seed::new(BENCH_SEED).derive("mb")),
    )
}
