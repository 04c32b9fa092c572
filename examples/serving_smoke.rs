//! Serving-layer smoke check — CI's sharded-equivalence guard.
//!
//! ```sh
//! cargo run --release --example serving_smoke
//! ```
//!
//! Prepares the same collection unsharded and sharded (a shard count
//! that does not divide the collection), replays a mixed range / top-k
//! / probability workload through both, and asserts bit-identical
//! answers plus a working result cache — the serving layer's two
//! contracts, checked in seconds without a full perfbench run.
//!
//! It then gates the write path on a ratio rather than an absolute time
//! (1-core timings drift by ±10%): on a 20k-series single-shard DUST
//! engine, the median `try_update_series` must cost at most 1/20 of the
//! median `ShardedEngine::prepare`, and answers after the writes must
//! equal a fresh engine's over the mutated collection.

use std::sync::Arc;
use std::time::Instant;

use uncertts::core::dust::Dust;
use uncertts::core::engine::QueryEngine;
use uncertts::core::matching::{MatchingTask, Technique};
use uncertts::core::proud::{Proud, ProudConfig};
use uncertts::core::serving::{QueryOptions, ShardAssignment, ShardedEngine};
use uncertts::core::uma::Uma;
use uncertts::stats::rng::Seed;
use uncertts::tseries::TimeSeries;
use uncertts::uncertain::{perturb, perturb_multi, ErrorFamily, ErrorSpec, UncertainSeries};

fn main() {
    let seed = Seed::new(0x5E4E);
    let n = 23; // deliberately prime: no shard count divides it
    let len = 100;
    let sigma = 0.5;
    let clean: Vec<TimeSeries> = (0..n)
        .map(|i| {
            TimeSeries::from_values((0..len).map(|t| {
                let t = t as f64;
                (t / 5.0 + i as f64 * 0.4).sin() + 0.3 * (t / 13.0 + i as f64).cos()
            }))
            .znormalized()
        })
        .collect();
    let spec = ErrorSpec::constant(ErrorFamily::Normal, sigma);
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
    let task = MatchingTask::new(clean, uncertain, Some(multi), 3);

    let techniques: Vec<(&str, Technique)> = vec![
        ("euclidean", Technique::Euclidean),
        ("uma", Technique::Uma(Uma::default())),
        (
            "proud",
            Technique::Proud {
                proud: Proud::new(ProudConfig::with_sigma(sigma)),
                tau: 0.4,
            },
        ),
    ];
    let queries: Vec<usize> = (0..n).step_by(4).collect();
    let shards = 4; // 23 = 4·5 + 3: shard sizes 6/6/6/5

    let opts = QueryOptions::default();
    let t0 = Instant::now();
    for (name, technique) in &techniques {
        let flat = QueryEngine::prepare(&task, technique);
        let sharded = ShardedEngine::prepare(&task, technique, shards, ShardAssignment::RoundRobin);
        for &q in &queries {
            let eps = task.calibrated_threshold(q, technique);
            assert_eq!(
                *sharded.answer_set_opts(q, eps, &opts).unwrap().value,
                flat.answer_set(q, eps),
                "{name}: sharded range answers diverged (q={q})"
            );
            match (sharded.top_k_opts(q, 3, &opts), flat.top_k(q, 3)) {
                (Ok(s), Some(f)) => {
                    assert!(
                        s.value
                            .iter()
                            .zip(&f)
                            .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()),
                        "{name}: sharded top-k diverged (q={q})"
                    );
                }
                (Err(_), None) => {} // probabilistic: both layers decline
                (s, f) => panic!("{name}: top-k disagreement {s:?} vs {f:?}"),
            }
            if let Some(s) = sharded.probabilities_opts(q, eps, &opts).unwrap() {
                let f = flat.probabilities(q, eps).expect("both probabilistic");
                assert!(
                    s.value
                        .iter()
                        .zip(&f)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()),
                    "{name}: sharded probabilities diverged (q={q})"
                );
            }
        }
        // Replaying the workload must hit the cache, with the very same
        // allocations coming back.
        let q = queries[0];
        let eps = task.calibrated_threshold(q, technique);
        let first = sharded.answer_set_opts(q, eps, &opts).unwrap().value;
        let again = sharded.answer_set_opts(q, eps, &opts).unwrap().value;
        assert!(
            Arc::ptr_eq(&first, &again),
            "{name}: repeated query missed the cache"
        );
        let stats = sharded.cache_stats();
        assert!(stats.hits > 0, "{name}: no cache hits recorded");
        println!(
            "{name}: {} queries sharded ≡ unsharded (cache: {} hits / {} misses)",
            queries.len(),
            stats.hits,
            stats.misses
        );
    }
    println!(
        "serving smoke ok: {} techniques × {} queries × {shards} shards in {:?}",
        techniques.len(),
        queries.len(),
        t0.elapsed()
    );
    write_cost_gate();
}

/// Median of a set of durations, in seconds.
fn median(mut secs: Vec<f64>) -> f64 {
    secs.sort_by(f64::total_cmp);
    secs[secs.len() / 2]
}

/// The write-path ratio gate described in the module docs.
fn write_cost_gate() {
    let seed = Seed::new(0x5E4F);
    let (n, len, sigma) = (20_000, 64, 0.4);
    let clean: Vec<TimeSeries> = (0..n)
        .map(|i| {
            // Sixteen coarse families, so the index packs real leaves.
            let phase = (i % 16) as f64 * 0.9 + (i / 16) as f64 * 0.003;
            TimeSeries::from_values((0..len).map(|t| {
                let t = t as f64;
                (t / 5.0 + phase).sin() + 0.3 * (t / 11.0 + phase * 1.7).cos()
            }))
            .znormalized()
        })
        .collect();
    let spec = ErrorSpec::constant(ErrorFamily::Normal, sigma);
    let mut uncertain: Vec<UncertainSeries> = clean
        .iter()
        .enumerate()
        .map(|(i, c)| perturb(c, &spec, seed.derive("pdf").derive_u64(i as u64)))
        .collect();
    let task = MatchingTask::new(clean.clone(), uncertain.clone(), None, 10);
    let dust = Technique::Dust(Dust::default());
    let prepare = || ShardedEngine::prepare(&task, &dust, 1, ShardAssignment::RoundRobin);

    // One untimed prepare warms the DUST tables every later one shares.
    let mut sharded = prepare();
    let mut prepares = Vec::new();
    for _ in 0..5 {
        drop(sharded);
        let t0 = Instant::now();
        sharded = prepare();
        prepares.push(t0.elapsed().as_secs_f64());
    }

    // Each write re-perturbs a member's own clean series.
    let mut writes = Vec::new();
    for w in 0..21u64 {
        let i = (w as usize * 7919) % n;
        let fresh = perturb(&clean[i], &spec, seed.derive("write").derive_u64(w));
        uncertain[i] = fresh.clone();
        let t0 = Instant::now();
        sharded
            .try_update_series(i, clean[i].clone(), fresh, None)
            .expect("shape-preserving write");
        writes.push(t0.elapsed().as_secs_f64());
    }
    let (prepare_s, write_s) = (median(prepares), median(writes));
    assert!(
        write_s * 20.0 <= prepare_s,
        "a write ({:.3} ms) costs more than 1/20 of a prepare ({:.3} ms)",
        write_s * 1e3,
        prepare_s * 1e3
    );

    drop(task);
    let mutated = MatchingTask::new(clean, uncertain, None, 10);
    let fresh = QueryEngine::prepare(&mutated, &dust);
    let opts = QueryOptions::default();
    for q in (0..n).step_by(n / 8).chain([7919, 2 * 7919]) {
        let eps = mutated.calibrated_threshold(q, &dust);
        assert_eq!(
            *sharded.answer_set_opts(q, eps, &opts).unwrap().value,
            fresh.answer_set(q, eps),
            "dust: range answers diverged after the writes (q={q})"
        );
        let served = sharded.top_k_opts(q, 10, &opts).unwrap().value;
        let want = fresh.top_k(q, 10).expect("distance technique");
        assert!(
            served.len() == want.len()
                && served
                    .iter()
                    .zip(&want)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()),
            "dust: top-k diverged after the writes (q={q})"
        );
    }
    println!(
        "write gate ok: {n} series, median write {:.1} us vs median prepare {:.1} ms ({:.0}x)",
        write_s * 1e6,
        prepare_s * 1e3,
        prepare_s / write_s
    );
}
