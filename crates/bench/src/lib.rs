//! Seeded fixtures shared with the perfbench benchmark.
//!
//! perfbench (`perfbench/`, declared in `BENCHMARK.json`) builds its
//! `search_large` collection from [`bench_task_clustered`]; its answers
//! and `answer_f1` rest on this fixture, so its output is pinned by a
//! unit test below.

#![warn(missing_docs)]

use uts_stats::rng::Seed;
use uts_uncertain::{perturb, ErrorFamily, ErrorSpec, UncertainSeries};

/// Root seed shared by all fixtures (fixed for comparability across runs).
pub const BENCH_SEED: u64 = 0xBE7C;

/// A clustered synthetic matching task at arbitrary scale — the
/// fixture of perfbench's `search_large` workload.
/// [`uts_datasets::Catalogue::generate_scaled`] can only
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

#[cfg(test)]
mod unit {
    use super::*;

    /// `(value, σ)` bit patterns of a member's first and last point.
    fn ends(u: &UncertainSeries) -> [(u64, u64); 2] {
        let sigmas = u.sigmas();
        let last = u.len() - 1;
        [
            (u.values()[0].to_bits(), sigmas[0].to_bits()),
            (u.values()[last].to_bits(), sigmas[last].to_bits()),
        ]
    }

    #[test]
    fn clustered_fixture_is_pinned() {
        // perfbench's search_large answers and `answer_f1` are only
        // comparable across commits while this fixture is unchanged.
        let task = bench_task_clustered(20, 8, 0.4, 3);
        assert_eq!(task.len(), 20);
        let sigma = 0.4f64.to_bits();
        let u = task.uncertain();
        assert_eq!(
            ends(&u[0]),
            [
                (0xbffd_b809_13b5_98a7, sigma),
                (0x3ff0_26fc_2963_d400, sigma)
            ]
        );
        assert_eq!(
            ends(&u[19]),
            [
                (0x3ff8_4914_51ea_6bbe, sigma),
                (0xbff5_9e3c_5659_0238, sigma)
            ]
        );
        assert!(u
            .iter()
            .all(|s| s.errors().iter().all(|e| e.family == ErrorFamily::Normal)));
    }
}
