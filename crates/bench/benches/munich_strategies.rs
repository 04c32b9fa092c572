//! Ablation — MUNICH's estimation strategies (paper §2.1).
//!
//! Compares the strategies on the paper's Figure 4 geometry (length 6,
//! 5 samples per timestamp): the default Auto strategy (its exact-DP
//! support, up to 25⁶ sums, exceeds the default limit here, so it
//! convolves at `auto_bins`), histogram convolution at two resolutions,
//! Monte-Carlo at two sample counts, and the effect of the
//! minimal-bounding-interval filter step.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use uts_bench::bench_multi_pair;
use uts_core::munich::{Munich, MunichConfig, MunichStrategy};

fn bench(c: &mut Criterion) {
    // Paper Figure 4 geometry.
    let (x, y) = bench_multi_pair(6, 5, 0.6);
    let eps = 1.5;

    let mut group = c.benchmark_group("munich_strategies");

    let mk = |strategy: MunichStrategy, mbi: bool| {
        Munich::new(MunichConfig {
            strategy,
            use_mbi_filter: mbi,
            ..MunichConfig::default()
        })
    };

    group.bench_function("auto", |b| {
        let m = mk(MunichStrategy::Auto, false);
        b.iter(|| m.probability_within(black_box(&x), black_box(&y), black_box(eps)))
    });
    group.bench_function("convolution_1024", |b| {
        let m = mk(MunichStrategy::Convolution { bins: 1024 }, false);
        b.iter(|| m.probability_within(black_box(&x), black_box(&y), black_box(eps)))
    });
    group.bench_function("convolution_8192", |b| {
        let m = mk(MunichStrategy::Convolution { bins: 8192 }, false);
        b.iter(|| m.probability_within(black_box(&x), black_box(&y), black_box(eps)))
    });
    group.bench_function("monte_carlo_1k", |b| {
        let m = mk(MunichStrategy::MonteCarlo { samples: 1_000 }, false);
        b.iter(|| m.probability_within(black_box(&x), black_box(&y), black_box(eps)))
    });
    group.bench_function("monte_carlo_10k", |b| {
        let m = mk(MunichStrategy::MonteCarlo { samples: 10_000 }, false);
        b.iter(|| m.probability_within(black_box(&x), black_box(&y), black_box(eps)))
    });
    // MBI filter effect: an ε far beyond the upper bound is answered
    // without touching the samples.
    group.bench_function("auto_with_mbi_certain_answer", |b| {
        let m = mk(MunichStrategy::Auto, true);
        b.iter(|| m.probability_within(black_box(&x), black_box(&y), black_box(100.0)))
    });
    group.bench_function("auto_without_mbi_certain_answer", |b| {
        let m = mk(MunichStrategy::Auto, false);
        b.iter(|| m.probability_within(black_box(&x), black_box(&y), black_box(100.0)))
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
