//! MUNICH pruned refinement: the count-bound early-abandonment pipeline
//! against the full-probability scan it replaced (ISSUE 6 acceptance:
//! ≥ 50× median on `query_throughput/range/munich`).
//!
//! The `query_throughput/range/munich/{naive,engine}` entries replicate
//! the workload of the `query_throughput` bench bit-for-bit (same task,
//! same queries, same calibrated thresholds), so a BENCH_munich.json
//! captured here compares directly against the BENCH_engine.json
//! baseline. The extra `munich_refinement/*` entries isolate where the
//! win comes from: the per-pair decision pipeline vs the full
//! probability, per strategy.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use uts_bench::{bench_multi_pair, bench_task};
use uts_core::engine::QueryEngine;
use uts_core::matching::Technique;
use uts_core::munich::{Munich, MunichConfig, MunichStrategy};

const QUERIES: [usize; 8] = [0, 4, 8, 12, 16, 20, 24, 28];
const SIGMA: f64 = 0.5;
const K: usize = 3;

fn bench(c: &mut Criterion) {
    let task = bench_task(SIGMA, K);
    let technique = Technique::Munich {
        munich: Default::default(),
        tau: 0.4,
    };
    let eps: Vec<(usize, f64)> = QUERIES
        .iter()
        .map(|&q| (q, task.calibrated_threshold(q, &technique)))
        .collect();

    let mut group = c.benchmark_group("query_throughput");
    group.bench_function("range/munich/naive", |b| {
        b.iter(|| {
            let mut guard = 0usize;
            for &(q, e) in &eps {
                guard += task
                    .answer_set_naive(black_box(q), &technique, black_box(e))
                    .len();
            }
            guard
        })
    });
    let engine = QueryEngine::prepare(&task, &technique);
    group.bench_function("range/munich/engine", |b| {
        b.iter(|| {
            let mut guard = 0usize;
            for &(q, e) in &eps {
                guard += engine.answer_set(black_box(q), black_box(e)).len();
            }
            guard
        })
    });
    group.finish();

    // Per-pair ablation: full probability vs pruned decision, per
    // strategy, on one undecided-by-MBI pair (the cost centre the range
    // scan above multiplies by |collection|).
    let (x, y) = bench_multi_pair(150, 3, SIGMA);
    let mut group = c.benchmark_group("munich_refinement");
    for (name, strategy) in [
        ("auto", MunichStrategy::Auto),
        ("convolution", MunichStrategy::Convolution { bins: 8192 }),
        ("montecarlo", MunichStrategy::MonteCarlo { samples: 10_000 }),
    ] {
        let munich = Munich::new(MunichConfig {
            strategy,
            ..MunichConfig::default()
        });
        // ε chosen mid-distribution so neither the MBI filter nor a
        // trivial bound decides instantly; τ at the throughput bench's
        // setting.
        let eps = {
            let mut lo = 0.0f64;
            let mut hi = 64.0f64;
            for _ in 0..24 {
                let mid = 0.5 * (lo + hi);
                if munich.probability_within(&x, &y, mid) < 0.5 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        };
        group.bench_function(format!("probability/{name}"), |b| {
            b.iter(|| black_box(munich.probability_within(black_box(&x), black_box(&y), eps)))
        });
        group.bench_function(format!("decide/{name}"), |b| {
            b.iter(|| {
                black_box(
                    munich
                        .try_decide_within(black_box(&x), black_box(&y), eps, 0.4)
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
