//! MUNICH refinement smoke check — CI's short-iteration throughput
//! guard.
//!
//! ```sh
//! cargo run --release --example munich_smoke
//! ```
//!
//! Runs a MUNICH range workload on production-length series (150
//! timestamps, 3 samples each) at τ ∈ {0.1, 0.4, 0.9} twice — through
//! the naive per-pair probability scan and through the engine's pruned
//! decision pipeline — asserting (1) bit-identical answer sets at every
//! τ, which exercises the moment rung's accept side (low τ) and reject
//! side (high τ), and (2) a soft speedup floor, so a regression that
//! quietly disables the pruning fails CI without paying for a full
//! criterion capture. A probability pass then asserts (3) the engine's
//! per-candidate estimates equal the naive per-pair ones bit for bit at
//! ε scales 0.3, 1.0 and 2.0 of the calibrated threshold — the fold
//! kernel at a length the debug test suite cannot afford. A last range
//! pass on length-24 series at τ ∈ {0.1, 0.5, 0.9} asserts (4)
//! bit-identical answer sets where most pairs reach the convolution
//! fold, with no speed floor.

use std::time::{Duration, Instant};

use uncertts::core::engine::QueryEngine;
use uncertts::core::matching::{MatchingTask, Technique};
use uncertts::core::munich::Munich;
use uncertts::stats::rng::Seed;
use uncertts::tseries::TimeSeries;
use uncertts::uncertain::{perturb, perturb_multi, ErrorFamily, ErrorSpec};

/// `count` z-normalised series of `len` timestamps, each observed with 3
/// normal samples (σ = 0.5) per timestamp, as a matching task.
fn smoke_task(count: usize, len: usize) -> MatchingTask {
    let seed = Seed::new(0xBE7C);
    let clean: Vec<TimeSeries> = (0..count)
        .map(|i| {
            TimeSeries::from_values((0..len).map(|t| {
                let t = t as f64;
                (t / 4.0 + i as f64 * 0.3).sin() + 0.4 * (t / 11.0 + i as f64).cos()
            }))
            .znormalized()
        })
        .collect();
    let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.5);
    let uncertain: Vec<_> = clean
        .iter()
        .enumerate()
        .map(|(i, c)| perturb(c, &spec, seed.derive("pdf").derive_u64(i as u64)))
        .collect();
    let multi: Vec<_> = clean
        .iter()
        .enumerate()
        .map(|(i, c)| perturb_multi(c, &spec, 3, seed.derive("multi").derive_u64(i as u64)))
        .collect();
    MatchingTask::new(clean, uncertain, Some(multi), 3)
}

/// Range queries at each τ, naive and through the engine; asserts equal
/// answer sets and returns the time each side took.
fn range_pass(task: &MatchingTask, queries: &[usize], taus: &[f64]) -> (Duration, Duration) {
    let len = task.clean()[0].len();
    let (mut naive_time, mut engine_time) = (Duration::ZERO, Duration::ZERO);
    for &tau in taus {
        let technique = Technique::Munich {
            munich: Munich::default(),
            tau,
        };
        let eps: Vec<(usize, f64)> = queries
            .iter()
            .map(|&q| (q, task.calibrated_threshold(q, &technique)))
            .collect();

        let t0 = Instant::now();
        let naive: Vec<Vec<usize>> = eps
            .iter()
            .map(|&(q, e)| task.answer_set_naive(q, &technique, e))
            .collect();
        naive_time += t0.elapsed();

        let engine = QueryEngine::prepare(task, &technique);
        let t0 = Instant::now();
        let fast: Vec<Vec<usize>> = eps.iter().map(|&(q, e)| engine.answer_set(q, e)).collect();
        engine_time += t0.elapsed();

        assert_eq!(
            naive, fast,
            "engine answer sets diverged from naive at length {len}, τ={tau}"
        );
        let hits: usize = fast.iter().map(Vec::len).sum();
        println!(
            "length {len}, τ={tau}: {hits} hits over {} queries, answers identical",
            queries.len()
        );
    }
    (naive_time, engine_time)
}

fn main() {
    let n = 24;
    let task = smoke_task(n, 150);
    let queries: Vec<usize> = (0..n).step_by(3).collect();
    let (naive_time, engine_time) = range_pass(&task, &queries, &[0.1, 0.4, 0.9]);
    let speedup = naive_time.as_secs_f64() / engine_time.as_secs_f64().max(1e-9);
    println!(
        "munich range x{} queries x3 τ: naive {:?}, engine {:?} ({speedup:.1}x)",
        queries.len(),
        naive_time,
        engine_time
    );
    // Soft floor: the pruned pipeline must stay clearly ahead of the
    // full-probability scan even on one core and a small collection (the
    // criterion capture in BENCH_munich.json records the real margin).
    assert!(
        speedup >= 2.0,
        "pruned refinement regressed: only {speedup:.2}x over naive"
    );

    let technique = Technique::Munich {
        munich: Munich::default(),
        tau: 0.4,
    };
    let engine = QueryEngine::prepare(&task, &technique);
    let bits = |v: &[(usize, f64)]| v.iter().map(|&(i, p)| (i, p.to_bits())).collect::<Vec<_>>();
    for scale in [0.3, 1.0, 2.0] {
        let mut interior = 0;
        for &q in &queries {
            let eps = scale * task.calibrated_threshold(q, &technique);
            let fast = engine
                .probabilities(q, eps)
                .expect("probabilistic technique");
            let naive = task
                .probabilities_naive(q, &technique, eps)
                .expect("probabilistic technique");
            assert_eq!(
                bits(&fast),
                bits(&naive),
                "engine probabilities diverged from naive at q={q}, ε scale {scale}"
            );
            interior += fast.iter().filter(|&&(_, p)| p > 0.0 && p < 1.0).count();
        }
        println!(
            "ε scale {scale}: probabilities bit-identical over {} queries ({interior} strictly inside (0, 1))",
            queries.len()
        );
    }

    // Short series: the moment rung's brackets are wide at length 24, so
    // most pairs reach the convolution fold's shortcuts and count bounds.
    // Correctness only — short series pay more per refined pair than the
    // length-150 pass, so no speed floor applies here.
    let short = smoke_task(n, 24);
    let (naive_time, engine_time) = range_pass(&short, &queries, &[0.1, 0.5, 0.9]);
    println!("munich range at length 24: naive {naive_time:?}, engine {engine_time:?}");
    println!("ok");
}
