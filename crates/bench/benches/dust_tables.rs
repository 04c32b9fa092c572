//! Ablation — DUST's lookup tables (paper §2.3).
//!
//! Measures (a) the steady-state speedup of table interpolation over
//! exact kernel evaluation, per error-family pair (analytic kernels for
//! same-family pairs, numeric integration for cross-family), and (b) the
//! one-off table construction cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use uts_bench::bench_pair;
use uts_core::dust::{Dust, DustConfig};
use uts_uncertain::{ErrorFamily, PointError, UncertainSeries};

fn with_family(series: &UncertainSeries, family: ErrorFamily, sigma: f64) -> UncertainSeries {
    series.with_reported_errors(vec![PointError::new(family, sigma); series.len()])
}

fn bench(c: &mut Criterion) {
    let (x0, y0) = bench_pair(290, 0.5);
    let mut group = c.benchmark_group("dust_tables");

    for (label, fx, fy) in [
        ("normal_normal", ErrorFamily::Normal, ErrorFamily::Normal),
        (
            "uniform_uniform",
            ErrorFamily::Uniform,
            ErrorFamily::Uniform,
        ),
        (
            "exp_exp",
            ErrorFamily::Exponential,
            ErrorFamily::Exponential,
        ),
        ("normal_uniform", ErrorFamily::Normal, ErrorFamily::Uniform),
    ] {
        let x = with_family(&x0, fx, 0.5);
        let y = with_family(&y0, fy, 0.8);

        let table = Dust::default();
        let _ = table.distance(&x, &y); // build once, measure steady state
        group.bench_with_input(BenchmarkId::new("table_lookup", label), &label, |b, _| {
            b.iter(|| table.distance(black_box(&x), black_box(&y)))
        });

        let exact = Dust::new(DustConfig {
            exact_evaluation: true,
            ..DustConfig::default()
        });
        group.bench_with_input(BenchmarkId::new("exact_kernel", label), &label, |b, _| {
            b.iter(|| exact.distance(black_box(&x), black_box(&y)))
        });
    }

    // Table construction cost at two resolutions (analytic kernel).
    for resolution in [512usize, 4096] {
        group.bench_with_input(
            BenchmarkId::new("table_build_normal", resolution),
            &resolution,
            |b, &res| {
                let e1 = PointError::new(ErrorFamily::Normal, 0.5);
                let e2 = PointError::new(ErrorFamily::Normal, 0.8);
                b.iter(|| {
                    // A fresh instance rebuilds its table on first use.
                    let dust = Dust::new(DustConfig {
                        table_resolution: res,
                        ..DustConfig::default()
                    });
                    dust.dust_squared(black_box(e1), black_box(e2), black_box(1.0))
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
