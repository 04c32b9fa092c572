//! Ablation — UMA/UEMA weighting variants (paper §5, Eq. 17–18).
//!
//! Compares the literal paper formulas (Eq. 17–18 denominators) against
//! the fully-normalised weighting, across window sizes, plus the plain
//! (σ-blind) moving averages as the baseline cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use uts_bench::bench_pair;
use uts_core::uma::{Uema, Uma, WeightNormalization};
use uts_tseries::{exponential_moving_average, moving_average};

fn bench(c: &mut Criterion) {
    let (x, _) = bench_pair(290, 0.5);
    let mut group = c.benchmark_group("filters_ablation");

    for w in [2usize, 8] {
        group.bench_with_input(BenchmarkId::new("uma_literal", w), &w, |b, &w| {
            let f = Uma {
                w,
                normalization: WeightNormalization::Literal,
            };
            b.iter(|| f.filter(black_box(&x)))
        });
        group.bench_with_input(BenchmarkId::new("uma_normalized", w), &w, |b, &w| {
            let f = Uma {
                w,
                normalization: WeightNormalization::Normalized,
            };
            b.iter(|| f.filter(black_box(&x)))
        });
        group.bench_with_input(BenchmarkId::new("uema_literal", w), &w, |b, &w| {
            let f = Uema {
                w,
                lambda: 1.0,
                normalization: WeightNormalization::Literal,
            };
            b.iter(|| f.filter(black_box(&x)))
        });
        group.bench_with_input(BenchmarkId::new("plain_ma", w), &w, |b, &w| {
            b.iter(|| moving_average(black_box(x.values()), w))
        });
        group.bench_with_input(BenchmarkId::new("plain_ema", w), &w, |b, &w| {
            b.iter(|| exponential_moving_average(black_box(x.values()), w, 1.0))
        });
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
