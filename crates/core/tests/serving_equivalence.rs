//! Sharded-vs-unsharded equivalence suite: for every [`Technique`], the
//! [`ShardedEngine`] must return *bit-identical* answer sets, top-k
//! results and probabilities to the unsharded [`QueryEngine`] — for
//! every shard count (including counts that do not divide the
//! collection), both assignment strategies, and shards prepared from a
//! task or from its bare [`Collection`] — plus the cache
//! contracts (hit ≡ miss, invalidation on mutation, thread-safety) and
//! property tests over random collection/shard shapes.

use std::sync::Arc;
use std::time::Duration;

use proptest::prelude::*;
use uts_core::dust::Dust;
use uts_core::engine::QueryEngine;
use uts_core::index::{IndexConfig, IndexStats};
use uts_core::matching::{MatchingTask, Technique};
use uts_core::munich::Munich;
use uts_core::proud::{Proud, ProudConfig};
use uts_core::serving::{QueryOptions, ScoredAnswer, ServeError, ShardAssignment, ShardedEngine};
use uts_core::uma::{Uema, Uma};
use uts_core::{euclidean_distance, Collection};
use uts_stats::rng::Seed;
use uts_tseries::TimeSeries;
use uts_uncertain::{
    perturb, perturb_multi, ErrorFamily, ErrorSpec, MultiObsSeries, UncertainSeries,
};

/// Shard counts exercised everywhere: degenerate (1), dividing and
/// non-dividing counts for the 12-member workload (2 divides, 7 does
/// not and leaves shards of size 2 and 1).
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

const ASSIGNMENTS: [ShardAssignment; 2] =
    [ShardAssignment::RoundRobin, ShardAssignment::Contiguous];

fn build_task(seed: u64, n: usize, len: usize, k: usize) -> MatchingTask {
    let root = Seed::new(seed);
    let clean: Vec<TimeSeries> = (0..n)
        .map(|i| {
            TimeSeries::from_values((0..len).map(|t| {
                let t = t as f64;
                (t / 3.0 + i as f64 * 0.5).sin() + 0.3 * (t / 7.0 + i as f64).cos()
            }))
            .znormalized()
        })
        .collect();
    let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.4);
    let uncertain: Vec<UncertainSeries> = clean
        .iter()
        .enumerate()
        .map(|(i, c)| perturb(c, &spec, root.derive("pdf").derive_u64(i as u64)))
        .collect();
    let multi: Vec<MultiObsSeries> = clean
        .iter()
        .enumerate()
        .map(|(i, c)| perturb_multi(c, &spec, 3, root.derive("multi").derive_u64(i as u64)))
        .collect();
    MatchingTask::new(clean, uncertain, Some(multi), k)
}

fn techniques() -> Vec<Technique> {
    vec![
        Technique::Euclidean,
        Technique::Dust(Dust::default()),
        Technique::Uma(Uma::default()),
        Technique::Uema(Uema::default()),
        Technique::Proud {
            proud: Proud::new(ProudConfig::with_sigma(0.4)),
            tau: 0.4,
        },
        Technique::Munich {
            munich: Munich::default(),
            tau: 0.4,
        },
    ]
}

fn probe_queries(task: &MatchingTask) -> [usize; 3] {
    [0, task.len() / 2, task.len() - 1]
}

/// Default-options range query; a fault-free engine always answers.
fn range(engine: &ShardedEngine, q: usize, eps: f64) -> Arc<Vec<usize>> {
    engine
        .answer_set_opts(q, eps, &QueryOptions::default())
        .expect("fault-free default-options query")
        .value
}

/// Default-options top-k; `Err` only for the probabilistic techniques.
fn top_k(engine: &ShardedEngine, q: usize, k: usize) -> Result<ScoredAnswer, ServeError> {
    engine
        .top_k_opts(q, k, &QueryOptions::default())
        .map(|r| r.value)
}

/// Default-options probabilities; `None` for the distance techniques.
fn probabilities(engine: &ShardedEngine, q: usize, eps: f64) -> Option<ScoredAnswer> {
    engine
        .probabilities_opts(q, eps, &QueryOptions::default())
        .expect("fault-free default-options query")
        .map(|r| r.value)
}

/// Range answer sets: sharded ≡ unsharded, all six techniques, all
/// shard counts, both assignments, sparse and dense thresholds — and
/// with every shard's candidate index forced on, the same bits again
/// (per-shard pruning must not move a sharded answer either).
#[test]
fn sharded_answer_sets_bit_identical() {
    let task = build_task(0x5E41, 12, 20, 3);
    for technique in techniques() {
        let flat = QueryEngine::prepare(&task, &technique);
        for shards in SHARD_COUNTS {
            for assignment in ASSIGNMENTS {
                let sharded = ShardedEngine::prepare(&task, &technique, shards, assignment);
                let indexed = ShardedEngine::prepare_with(
                    &task,
                    &technique,
                    shards,
                    assignment,
                    IndexConfig::always(),
                );
                let bare =
                    ShardedEngine::prepare(task.collection(), &technique, shards, assignment);
                for q in probe_queries(&task) {
                    let eps = task.calibrated_threshold(q, &technique);
                    for scale in [0.5, 1.0, 2.0] {
                        let e = eps * scale;
                        let want = flat.answer_set(q, e);
                        assert_eq!(
                            *range(&sharded, q, e),
                            want,
                            "{} shards={shards} {assignment:?} q={q} eps={e}",
                            technique.kind()
                        );
                        assert_eq!(
                            *range(&bare, q, e),
                            want,
                            "{} shards={shards} {assignment:?} q={q} eps={e} (collection)",
                            technique.kind()
                        );
                        assert_eq!(
                            *range(&indexed, q, e),
                            want,
                            "{} shards={shards} {assignment:?} q={q} eps={e} (indexed)",
                            technique.kind()
                        );
                    }
                }
            }
        }
    }
}

/// Top-k: identical indices and bit-identical distances for the
/// distance techniques; the typed [`ServeError::NotDistanceRanked`] for
/// the probabilistic ones.
#[test]
fn sharded_top_k_bit_identical() {
    let task = build_task(0x5E42, 12, 20, 3);
    for technique in techniques() {
        let flat = QueryEngine::prepare(&task, &technique);
        for shards in SHARD_COUNTS {
            for assignment in ASSIGNMENTS {
                let sharded = ShardedEngine::prepare(&task, &technique, shards, assignment);
                let indexed = ShardedEngine::prepare_with(
                    &task,
                    &technique,
                    shards,
                    assignment,
                    IndexConfig::always(),
                );
                let bare =
                    ShardedEngine::prepare(task.collection(), &technique, shards, assignment);
                for q in probe_queries(&task) {
                    for k in [1, 3, task.len() - 1] {
                        for (label, engine) in [
                            ("scan", &sharded),
                            ("indexed", &indexed),
                            ("collection", &bare),
                        ] {
                            match (top_k(engine, q, k), flat.top_k(q, k)) {
                                (Ok(s), Some(f)) => {
                                    assert_eq!(s.len(), f.len());
                                    for (a, b) in s.iter().zip(&f) {
                                        assert_eq!(
                                            (a.0, a.1.to_bits()),
                                            (b.0, b.1.to_bits()),
                                            "{} shards={shards} {assignment:?} q={q} k={k} ({label})",
                                            technique.kind()
                                        );
                                    }
                                }
                                (Err(ServeError::NotDistanceRanked(kind)), None) => {
                                    assert_eq!(kind, technique.kind());
                                }
                                (s, f) => panic!(
                                    "{} shards={shards} q={q} k={k} ({label}): sharded {s:?} vs flat {f:?}",
                                    technique.kind()
                                ),
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Probabilities: bit-identical per-candidate values for PROUD and
/// MUNICH; `None` from both layers for the distance techniques.
#[test]
fn sharded_probabilities_bit_identical() {
    let task = build_task(0x5E43, 12, 20, 3);
    for technique in techniques() {
        let flat = QueryEngine::prepare(&task, &technique);
        for shards in SHARD_COUNTS {
            for assignment in ASSIGNMENTS {
                let sharded = ShardedEngine::prepare(&task, &technique, shards, assignment);
                let bare =
                    ShardedEngine::prepare(task.collection(), &technique, shards, assignment);
                for q in probe_queries(&task) {
                    let eps = task.calibrated_threshold(q, &technique);
                    assert_eq!(
                        probabilities(&bare, q, eps).map(|p| bits(&p)),
                        probabilities(&sharded, q, eps).map(|p| bits(&p)),
                        "{} shards={shards} {assignment:?} q={q} (collection)",
                        technique.kind()
                    );
                    match (probabilities(&sharded, q, eps), flat.probabilities(q, eps)) {
                        (Some(s), Some(f)) => {
                            assert_eq!(s.len(), f.len());
                            for (a, b) in s.iter().zip(&f) {
                                assert_eq!(
                                    (a.0, a.1.to_bits()),
                                    (b.0, b.1.to_bits()),
                                    "{} shards={shards} {assignment:?} q={q}",
                                    technique.kind()
                                );
                            }
                        }
                        (None, None) => {}
                        (s, f) => panic!(
                            "{} shards={shards} q={q}: sharded {s:?} vs flat {f:?}",
                            technique.kind()
                        ),
                    }
                }
            }
        }
    }
}

/// A 2-member collection — below `MatchingTask::new`'s `k + 2` floor,
/// since it carries no ground truth — is served as it is: range and
/// top-k through the engine and through a 2-shard sharded engine (one
/// member per shard) match an inline pair scan, bit for bit.
#[test]
fn two_member_collection_matches_pair_scan() {
    let source = build_task(0x5E44, 5, 20, 3);
    let collection = Collection::try_new(
        source.uncertain()[..2].to_vec(),
        Some(source.multi().unwrap()[..2].to_vec()),
    )
    .unwrap();
    let u = collection.uncertain();
    let (dust, uma, uema) = (Dust::default(), Uma::default(), Uema::default());
    type Pair<'a> = Box<dyn Fn(usize, usize) -> f64 + 'a>;
    let cases: [(Technique, Pair); 4] = [
        (
            Technique::Euclidean,
            Box::new(|a, b| euclidean_distance(u[a].values(), u[b].values())),
        ),
        (
            Technique::Dust(dust.clone()),
            Box::new(|a, b| dust.distance(&u[a], &u[b])),
        ),
        (
            Technique::Uma(uma),
            Box::new(|a, b| uma.distance(&u[a], &u[b])),
        ),
        (
            Technique::Uema(uema),
            Box::new(|a, b| uema.distance(&u[a], &u[b])),
        ),
    ];
    for (technique, distance) in &cases {
        let flat = QueryEngine::prepare(&collection, technique);
        let sharded =
            ShardedEngine::prepare(&collection, technique, 2, ShardAssignment::Contiguous);
        for q in 0..2 {
            let other = 1 - q;
            let d = distance(q, other);
            let want = vec![(other, d.to_bits())];
            let ctx = format!("{} q={q}", technique.kind());
            assert_eq!(bits(&flat.top_k(q, 1).unwrap()), want, "{ctx}");
            assert_eq!(bits(&top_k(&sharded, q, 1).unwrap()), want, "{ctx}");
            for (eps, want) in [(d, vec![other]), (0.5 * d, vec![])] {
                assert_eq!(flat.answer_set(q, eps), want, "{ctx} eps={eps}");
                assert_eq!(*range(&sharded, q, eps), want, "{ctx} eps={eps}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Cache contracts
// ---------------------------------------------------------------------------

/// A cache hit returns the very allocation the miss computed — hit ≡
/// miss by construction — and the counters see both, for all three
/// operations (range and top-k on a distance technique, probabilities on
/// a probabilistic one).
#[test]
fn cache_hit_is_identical_to_miss() {
    let task = build_task(0x5E44, 12, 20, 3);
    let sharded =
        ShardedEngine::prepare(&task, &Technique::Euclidean, 4, ShardAssignment::RoundRobin);
    let eps = task.calibrated_threshold(0, &Technique::Euclidean);
    let miss = range(&sharded, 0, eps);
    let hit = range(&sharded, 0, eps);
    assert!(Arc::ptr_eq(&miss, &hit));
    let k_miss = top_k(&sharded, 1, 3).unwrap();
    let k_hit = top_k(&sharded, 1, 3).unwrap();
    assert!(Arc::ptr_eq(&k_miss, &k_hit));
    let stats = sharded.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 2));

    let proud = Technique::Proud {
        proud: Proud::new(ProudConfig::with_sigma(0.4)),
        tau: 0.4,
    };
    let sharded = ShardedEngine::prepare(&task, &proud, 4, ShardAssignment::RoundRobin);
    let eps = task.calibrated_threshold(2, &proud);
    let p_miss = probabilities(&sharded, 2, eps).expect("probabilistic technique");
    let p_hit = probabilities(&sharded, 2, eps).expect("probabilistic technique");
    assert!(Arc::ptr_eq(&p_miss, &p_hit));
    let stats = sharded.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
}

/// `ε = -0.0` and `ε = +0.0` are the same threshold: for all six
/// techniques the uncached answers at both are bit-identical, so the
/// cache keys them as one entry and the second ask is a hit on the
/// first ask's answer.
#[test]
fn signed_zero_thresholds_share_one_cache_entry() {
    let task = build_task(0x5E4A, 12, 20, 3);
    for technique in techniques() {
        let name = format!("{:?}", technique.kind());
        let flat = QueryEngine::prepare(&task, &technique);
        let sharded = ShardedEngine::prepare(&task, &technique, 4, ShardAssignment::RoundRobin);
        for q in probe_queries(&task) {
            assert_eq!(flat.answer_set(q, 0.0), flat.answer_set(q, -0.0), "{name}");
            let pos = flat.probabilities(q, 0.0);
            let neg = flat.probabilities(q, -0.0);
            assert_eq!(pos.is_some(), neg.is_some(), "{name}");
            for (a, b) in pos.iter().flatten().zip(neg.iter().flatten()) {
                assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()), "{name}");
            }

            let hits = sharded.cache_stats().hits;
            let miss = range(&sharded, q, 0.0);
            let hit = range(&sharded, q, -0.0);
            assert!(Arc::ptr_eq(&miss, &hit), "{name}: -0.0 reuses +0.0's entry");
            assert_eq!(sharded.cache_stats().hits, hits + 1, "{name}");
            if let Some(miss) = probabilities(&sharded, q, -0.0) {
                let hit = probabilities(&sharded, q, 0.0).expect("probabilistic technique");
                assert!(Arc::ptr_eq(&miss, &hit), "{name}: +0.0 reuses -0.0's entry");
                assert_eq!(sharded.cache_stats().hits, hits + 2, "{name}");
            }
        }
    }
}

/// Every NaN threshold is one threshold: two NaNs with different
/// payloads get the same (empty) uncached answer from every technique,
/// MUNICH included, so the cache keys them as one entry and the second
/// ask is a hit.
#[test]
fn nan_thresholds_share_one_cache_entry() {
    let task = build_task(0x5E4B, 12, 20, 3);
    let quiet = f64::NAN;
    let payload = f64::from_bits(f64::NAN.to_bits() | 0xBEEF);
    assert_ne!(quiet.to_bits(), payload.to_bits());
    for technique in techniques() {
        let name = format!("{:?}", technique.kind());
        let flat = QueryEngine::prepare(&task, &technique);
        let sharded = ShardedEngine::prepare(&task, &technique, 4, ShardAssignment::RoundRobin);
        for q in probe_queries(&task) {
            assert_eq!(
                flat.answer_set(q, quiet),
                flat.answer_set(q, payload),
                "{name}"
            );
            let hits = sharded.cache_stats().hits;
            let miss = range(&sharded, q, payload);
            let hit = range(&sharded, q, quiet);
            assert_eq!(*miss, flat.answer_set(q, payload), "{name}");
            assert!(
                Arc::ptr_eq(&miss, &hit),
                "{name}: both NaNs share one entry"
            );
            assert_eq!(sharded.cache_stats().hits, hits + 1, "{name}");
        }
        assert_eq!(sharded.cache_stats().entries, 3, "{name}");
    }
}

/// A negative or NaN ε bounds no distance: PROUD and MUNICH probability
/// queries answer every candidate with `0.0` on every shard — no shard
/// fault — bit-identical to the unsharded engine. (`-0.0` stays a valid
/// threshold; `signed_zero_thresholds_share_one_cache_entry` covers it.)
#[test]
fn degenerate_thresholds_answer_zero_probabilities() {
    let task = build_task(0x5E4C, 12, 20, 3);
    for technique in techniques() {
        let name = format!("{:?}", technique.kind());
        let flat = QueryEngine::prepare(&task, &technique);
        for shards in [1, 4, 7] {
            let sharded =
                ShardedEngine::prepare(&task, &technique, shards, ShardAssignment::RoundRobin);
            for q in probe_queries(&task) {
                for eps in [-1.0, -10.0, f64::NAN] {
                    let ctx = format!("{name} shards={shards} q={q} ε={eps}");
                    match (probabilities(&sharded, q, eps), flat.probabilities(q, eps)) {
                        (Some(s), Some(f)) => {
                            let bits = |v: &[(usize, f64)]| {
                                v.iter().map(|&(i, p)| (i, p.to_bits())).collect::<Vec<_>>()
                            };
                            assert_eq!(bits(&s), bits(&f), "{ctx}");
                            assert_eq!(s.len(), task.len() - 1, "{ctx}");
                            assert!(s.iter().all(|&(_, p)| p.to_bits() == 0), "{ctx}");
                        }
                        (None, None) => {}
                        (s, f) => panic!("{ctx}: sharded {s:?} vs flat {f:?}"),
                    }
                }
            }
        }
    }
}

/// Every pruning counter of `before` is at most its twin in `after`.
fn assert_no_counter_decreases(before: &IndexStats, after: &IndexStats, ctx: &str) {
    let fields = |s: &IndexStats| {
        [
            s.indexed_queries,
            s.scan_queries,
            s.leaves_visited,
            s.leaves_pruned,
            s.series_pruned,
            s.candidates,
        ]
    };
    for (b, a) in fields(before).into_iter().zip(fields(after)) {
        assert!(
            a >= b,
            "{ctx}: index stats went backwards: {before:?} -> {after:?}"
        );
    }
}

/// `try_update_series` on a sharded engine is equivalent to rebuilding from
/// the mutated collection: the stale cached answer is dropped and the
/// patched owner shard serves the new data, bit-identical to a
/// from-scratch unsharded engine.
#[test]
fn update_series_matches_full_rebuild() {
    let seed = 0x5E45;
    let (n, len, k) = (12, 20, 3);
    let task = build_task(seed, n, len, k);
    let technique = Technique::Dust(Dust::default());
    let victim = 5;

    // The replacement: a fresh perturbation of a shifted clean series.
    let root = Seed::new(seed);
    let new_clean =
        TimeSeries::from_values((0..len).map(|t| ((t as f64) / 2.0 + 9.0).sin())).znormalized();
    let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.4);
    let new_uncertain = perturb(&new_clean, &spec, root.derive("replacement"));
    let new_multi = perturb_multi(&new_clean, &spec, 3, root.derive("replacement-multi"));

    // Rebuilt-from-scratch reference task with the same replacement.
    let mut clean: Vec<TimeSeries> = task.clean().to_vec();
    let mut uncertain: Vec<UncertainSeries> = task.uncertain().to_vec();
    let mut multi: Vec<MultiObsSeries> = task.multi().unwrap().to_vec();
    clean[victim] = new_clean.clone();
    uncertain[victim] = new_uncertain.clone();
    multi[victim] = new_multi.clone();
    let rebuilt = MatchingTask::new(clean, uncertain, Some(multi), k);
    let reference = QueryEngine::prepare(&rebuilt, &technique);

    for shards in SHARD_COUNTS {
        let mut sharded =
            ShardedEngine::prepare(&task, &technique, shards, ShardAssignment::RoundRobin);
        // Warm the cache with pre-mutation answers for every probe query.
        let eps = task.calibrated_threshold(0, &technique);
        for q in probe_queries(&task) {
            let _ = range(&sharded, q, eps);
            let _ = top_k(&sharded, q, k);
        }
        sharded
            .try_update_series(
                victim,
                new_clean.clone(),
                new_uncertain.clone(),
                Some(new_multi.clone()),
            )
            .expect("shape-preserving replacement");
        assert_eq!(sharded.cache_stats().generation, 1, "shards={shards}");
        assert_eq!(sharded.cache_stats().entries, 0, "shards={shards}");
        for q in probe_queries(&task) {
            assert_eq!(
                *range(&sharded, q, eps),
                reference.answer_set(q, eps),
                "shards={shards} q={q}"
            );
            let s = top_k(&sharded, q, k).unwrap();
            let f = reference.top_k(q, k).unwrap();
            for (a, b) in s.iter().zip(&f) {
                assert_eq!(
                    (a.0, a.1.to_bits()),
                    (b.0, b.1.to_bits()),
                    "shards={shards} q={q}"
                );
            }
        }
    }
}

/// Regression for the index-path cache contract: with per-shard indexes
/// enabled, `try_update_series` must invalidate every cached answer *and*
/// keep the owner shard's index current — a re-query
/// of the exact cached key returns the post-update answer, bit-identical
/// to a from-scratch engine over the mutated collection (indexed or
/// not). The pruning counters never go backwards across the update: the
/// owner shard keeps its counters.
#[test]
fn update_series_with_index_serves_post_update_answers() {
    let seed = 0x5E47;
    let (n, len, k) = (12, 20, 3);
    let task = build_task(seed, n, len, k);
    let technique = Technique::Euclidean;
    let victim = 4;
    let q = 0;

    let root = Seed::new(seed);
    let new_clean =
        TimeSeries::from_values((0..len).map(|t| ((t as f64) / 2.5 - 3.0).cos())).znormalized();
    let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.4);
    let new_uncertain = perturb(&new_clean, &spec, root.derive("replacement"));
    let new_multi = perturb_multi(&new_clean, &spec, 3, root.derive("replacement-multi"));

    let mut clean: Vec<TimeSeries> = task.clean().to_vec();
    let mut uncertain: Vec<UncertainSeries> = task.uncertain().to_vec();
    let mut multi: Vec<MultiObsSeries> = task.multi().unwrap().to_vec();
    clean[victim] = new_clean.clone();
    uncertain[victim] = new_uncertain.clone();
    multi[victim] = new_multi.clone();
    let rebuilt = MatchingTask::new(clean, uncertain, Some(multi), k);
    let reference_scan = QueryEngine::prepare_with(&rebuilt, &technique, IndexConfig::disabled());
    let reference_indexed = QueryEngine::prepare_with(&rebuilt, &technique, IndexConfig::always());

    for shards in SHARD_COUNTS {
        let mut sharded = ShardedEngine::prepare_with(
            &task,
            &technique,
            shards,
            ShardAssignment::RoundRobin,
            IndexConfig::always(),
        );
        assert_eq!(sharded.index_config(), IndexConfig::always());
        let eps = task.calibrated_threshold(q, &technique);
        // Warm the cache on the exact keys re-queried after the update.
        let stale_range = range(&sharded, q, eps);
        let stale_top = top_k(&sharded, q, k).unwrap();
        // Extra range traffic so every shard's counters are non-zero
        // before the update.
        for probe in probe_queries(&task) {
            let _ = range(&sharded, probe, eps * 1.5);
        }
        let before = sharded.index_stats();
        sharded
            .try_update_series(
                victim,
                new_clean.clone(),
                new_uncertain.clone(),
                Some(new_multi.clone()),
            )
            .expect("shape-preserving replacement");
        let ctx = format!("shards={shards}");
        assert_no_counter_decreases(&before, &sharded.index_stats(), &ctx);
        // Same keys, post-update: the stale allocations must not be
        // served (generation bump), and the fresh answers must match a
        // from-scratch engine bit for bit — with and without its index.
        let fresh_range = range(&sharded, q, eps);
        assert!(!Arc::ptr_eq(&stale_range, &fresh_range), "shards={shards}");
        assert_eq!(
            *fresh_range,
            reference_scan.answer_set(q, eps),
            "shards={shards}"
        );
        assert_eq!(
            *fresh_range,
            reference_indexed.answer_set(q, eps),
            "shards={shards}"
        );
        let fresh_top = top_k(&sharded, q, k).unwrap();
        assert!(!Arc::ptr_eq(&stale_top, &fresh_top), "shards={shards}");
        for (a, b) in fresh_top
            .iter()
            .zip(&reference_indexed.top_k(q, k).unwrap())
        {
            assert_eq!(
                (a.0, a.1.to_bits()),
                (b.0, b.1.to_bits()),
                "shards={shards}"
            );
        }
        // The updated owner shard kept its index (same config as built).
        let stats = sharded.index_stats();
        assert_no_counter_decreases(&before, &stats, &ctx);
        assert!(stats.indexed_queries > 0, "shards={shards}: index engaged");
        assert_eq!(stats.scan_queries, 0, "shards={shards}: no silent fallback");
    }
}

/// One replacement of member `i`: new clean, observed and
/// multi-observation series.
struct Write {
    i: usize,
    clean: TimeSeries,
    uncertain: UncertainSeries,
    multi: MultiObsSeries,
}

/// A seeded sequence of writes over `task` that visits every patch case:
/// a far-away series (new SAX word, and a DUST `max_abs` beyond the
/// envelope's validity horizon, which turns the index off), a smaller
/// series over the member holding `max_abs`, a σ outside the prepared
/// DUST error set (the re-prepare case), a write to a probe query's own
/// member, and random members with fresh perturbations in between. The
/// last two writes give the re-prepared member's slot per-point σ drawn
/// from its shard's error set {0.4, 0.7} (DUST rewrites only the member's
/// error classes, from one class to one per point), then constant σ
/// again (back to one class).
fn write_sequence(task: &MatchingTask, seed: u64) -> Vec<Write> {
    use rand::Rng;
    let (n, len) = (task.len(), task.clean()[0].len());
    let root = Seed::new(seed);
    let mut rng = root.derive("writes").rng();
    let mut writes = Vec::new();
    let normal = |sigma| ErrorSpec::constant(ErrorFamily::Normal, sigma);
    let mut outside = 0;
    for step in 0..26u64 {
        let (i, offset, spec) = match step {
            3 => (7, 3000.0, normal(0.4)), // far away: raises max_abs
            8 => (7, 0.0, normal(0.4)),    // the max_abs holder shrinks back
            12 => {
                // σ outside the error set: the owner shard re-prepares,
                // and its set holds 0.7 from then on.
                outside = rng.gen_range(0..n);
                (outside, 0.0, normal(0.7))
            }
            16 => (0, 0.0, normal(0.4)), // a probe query's own member
            // Per-point σ, all in the set: new classes, no re-prepare.
            24 => (
                outside,
                0.0,
                ErrorSpec::mixed_sigma(ErrorFamily::Normal, 0.5, 0.7, 0.4),
            ),
            25 => (outside, 0.0, normal(0.4)), // constant again
            _ => (rng.gen_range(0..n), 0.0, normal(0.4)),
        };
        let phase: f64 = rng.gen_range(0.0..6.0);
        let clean = TimeSeries::from_values((0..len).map(|t| {
            let t = t as f64;
            (t / 3.0 + phase).sin() + 0.3 * (t / 7.0 + phase).cos()
        }))
        .znormalized();
        let clean = TimeSeries::from_values(clean.values().iter().map(|v| v + offset));
        let s = root.derive_u64(step);
        let uncertain = perturb(&clean, &spec, s.derive("pdf"));
        if step == 24 {
            let sigmas = uncertain.sigmas();
            assert!(sigmas.contains(&0.4) && sigmas.contains(&0.7), "{sigmas:?}");
        }
        writes.push(Write {
            i,
            uncertain,
            multi: perturb_multi(&clean, &spec, 3, s.derive("multi")),
            clean,
        });
    }
    writes
}

/// What a freshly prepared engine answers for one probe query: range, top-k
/// and probabilities (the last two `None` where the technique has none).
type Expected = (
    Vec<usize>,
    Option<Vec<(usize, f64)>>,
    Option<Vec<(usize, f64)>>,
);

/// A probe query, its calibrated ε and the answers expected for it.
type Probe = (usize, f64, Expected);

/// Bit-level view of scored answers, so `assert_eq!` compares scores by
/// their bits.
fn bits(scored: &[(usize, f64)]) -> Vec<(usize, u64)> {
    scored.iter().map(|&(i, d)| (i, d.to_bits())).collect()
}

/// A sequence of in-place writes is equivalent to rebuilding: after every
/// `try_update_series`, range, top-k and probability answers are
/// bit-identical to a freshly prepared unsharded engine over the mutated
/// collection — six techniques × shard counts {1, 2, 4, 7} × index
/// forced on and off. Each shard also engages its index exactly when a
/// freshly prepared shard would, which pins the patched DUST `max_abs`.
#[test]
fn write_sequences_match_rebuild() {
    let (n, len, k) = (12, 16, 3);
    let task = build_task(0x5E48, n, len, k);
    let writes = write_sequence(&task, 0x5E48);
    for technique in techniques() {
        let name = technique.kind();
        // The expected answers after each write, from fresh engines.
        let mut clean = task.clean().to_vec();
        let mut uncertain = task.uncertain().to_vec();
        let mut multi = task.multi().unwrap().to_vec();
        let expected: Vec<(MatchingTask, Vec<Probe>)> = writes
            .iter()
            .map(|w| {
                clean[w.i] = w.clean.clone();
                uncertain[w.i] = w.uncertain.clone();
                multi[w.i] = w.multi.clone();
                let mutated =
                    MatchingTask::new(clean.clone(), uncertain.clone(), Some(multi.clone()), k);
                let fresh = QueryEngine::prepare(&mutated, &technique);
                let mut queries = probe_queries(&mutated).to_vec();
                queries.push(w.i);
                let probes = queries
                    .into_iter()
                    .map(|q| {
                        let eps = mutated.calibrated_threshold(q, &technique);
                        let want = (
                            fresh.answer_set(q, eps),
                            fresh.top_k(q, k),
                            fresh.probabilities(q, eps),
                        );
                        (q, eps, want)
                    })
                    .collect();
                (mutated, probes)
            })
            .collect();
        for shards in SHARD_COUNTS {
            for cfg in [IndexConfig::always(), IndexConfig::disabled()] {
                let mut sharded = ShardedEngine::prepare_with(
                    &task,
                    &technique,
                    shards,
                    ShardAssignment::RoundRobin,
                    cfg,
                );
                for (step, (w, (mutated, probes))) in writes.iter().zip(&expected).enumerate() {
                    sharded
                        .try_update_series(
                            w.i,
                            w.clean.clone(),
                            w.uncertain.clone(),
                            Some(w.multi.clone()),
                        )
                        .expect("shape-preserving replacement");
                    let indexed = cfg != IndexConfig::disabled();
                    let ctx = format!("{name} shards={shards} indexed={indexed} step={step}");
                    let fresh = ShardedEngine::prepare_with(
                        mutated,
                        &technique,
                        shards,
                        ShardAssignment::RoundRobin,
                        cfg,
                    );
                    for (q, eps, (want_range, want_top, want_prob)) in probes {
                        let (before, fresh_before) = (sharded.index_stats(), fresh.index_stats());
                        let _ = (range(&fresh, *q, *eps), top_k(&fresh, *q, k));
                        assert_eq!(*range(&sharded, *q, *eps), *want_range, "{ctx} q={q}");
                        match want_top {
                            Some(f) => assert_eq!(
                                bits(&top_k(&sharded, *q, k).expect("distance technique")),
                                bits(f),
                                "{ctx} q={q}"
                            ),
                            None => assert!(top_k(&sharded, *q, k).is_err(), "{ctx}"),
                        }
                        let got = probabilities(&sharded, *q, *eps);
                        assert_eq!(
                            got.map(|p| bits(&p)),
                            want_prob.as_ref().map(|p| bits(p)),
                            "{ctx} q={q}"
                        );
                        let engaged = |after: IndexStats, before: &IndexStats| {
                            let d = after.since(before);
                            (d.indexed_queries, d.scan_queries)
                        };
                        assert_eq!(
                            engaged(sharded.index_stats(), &before),
                            engaged(fresh.index_stats(), &fresh_before),
                            "{ctx} q={q}: index engagement"
                        );
                    }
                }
            }
        }
    }
}

/// Many threads hammering the same sharded engine — same and different
/// keys — all observe the unsharded answers; the cache never serves a
/// divergent value.
#[test]
fn concurrent_queries_are_consistent() {
    let task = build_task(0x5E46, 12, 20, 3);
    let technique = Technique::Euclidean;
    let flat = QueryEngine::prepare(&task, &technique);
    let sharded = ShardedEngine::prepare(&task, &technique, 4, ShardAssignment::RoundRobin);
    let expected: Vec<Vec<usize>> = (0..task.len())
        .map(|q| flat.answer_set(q, task.calibrated_threshold(q, &technique)))
        .collect();

    std::thread::scope(|scope| {
        for t in 0..8 {
            let sharded = &sharded;
            let task = &task;
            let expected = &expected;
            let technique = &technique;
            scope.spawn(move || {
                // Each thread walks the queries from a different offset,
                // so cold misses, races on the same key and warm hits all
                // occur across the pool.
                for round in 0..3 {
                    for q in 0..task.len() {
                        let q = (q + t * 2 + round) % task.len();
                        let eps = task.calibrated_threshold(q, technique);
                        assert_eq!(*range(sharded, q, eps), expected[q], "thread={t} q={q}");
                    }
                }
            });
        }
    });
    let stats = sharded.cache_stats();
    assert_eq!(stats.hits + stats.misses, 8 * 3 * task.len() as u64);
    assert!(stats.entries <= task.len());
}

/// Default-options entry points ≡ the unsharded engine, bit for bit,
/// with complete coverage and zero retries — the fault-tolerance
/// machinery is invisible until asked for, across all six techniques and
/// every shard count.
#[test]
fn default_options_path_is_bit_identical_to_flat() {
    let task = build_task(0x5E47, 12, 20, 3);
    let opts = QueryOptions::default();
    for technique in techniques() {
        let flat = QueryEngine::prepare(&task, &technique);
        let probabilistic = matches!(
            technique,
            Technique::Munich { .. } | Technique::Proud { .. }
        );
        for shards in SHARD_COUNTS {
            let sharded =
                ShardedEngine::prepare(&task, &technique, shards, ShardAssignment::RoundRobin);
            for q in probe_queries(&task) {
                let eps = task.calibrated_threshold(q, &technique);
                let via_opts = sharded
                    .answer_set_opts(q, eps, &opts)
                    .expect("fault-free default-options query");
                assert!(via_opts.is_complete());
                assert_eq!(via_opts.coverage.shard_count(), shards);
                assert_eq!(via_opts.retries, 0);
                assert_eq!(
                    *via_opts.value,
                    flat.answer_set(q, eps),
                    "{} shards={shards} q={q}",
                    technique.kind()
                );

                match sharded.top_k_opts(q, 3, &opts) {
                    Ok(resp) => {
                        assert!(!probabilistic);
                        assert!(resp.is_complete());
                        assert_eq!(resp.retries, 0);
                        let want = flat.top_k(q, 3).unwrap();
                        assert_eq!(resp.value.len(), want.len());
                        for (a, c) in resp.value.iter().zip(&want) {
                            assert_eq!(a.0, c.0);
                            assert_eq!(a.1.to_bits(), c.1.to_bits());
                        }
                    }
                    Err(e) => {
                        assert!(probabilistic, "{}: unexpected {e:?}", technique.kind());
                        assert_eq!(e, ServeError::NotDistanceRanked(technique.kind()));
                    }
                }

                let via_opts = sharded
                    .probabilities_opts(q, eps, &opts)
                    .expect("fault-free default-options query");
                match via_opts {
                    Some(resp) => {
                        assert!(probabilistic);
                        assert!(resp.is_complete());
                        assert_eq!(resp.retries, 0);
                        let want = flat.probabilities(q, eps).unwrap();
                        assert_eq!(resp.value.len(), want.len());
                        for (a, c) in resp.value.iter().zip(&want) {
                            assert_eq!(a.0, c.0);
                            assert_eq!(a.1.to_bits(), c.1.to_bits());
                        }
                    }
                    None => assert!(!probabilistic, "{}", technique.kind()),
                }
            }
        }
    }
}

/// An armed deadline that does not expire changes no answer: range,
/// top-k and probability answers under a 60 s budget are bit-identical
/// to the default options' — the armed decision loops decide exactly as
/// the unarmed ones — for all six techniques, index forced on and off,
/// one and four shards. Armed and default queries go to separate
/// engines, so neither is answered from the other's cache.
///
/// The second collection has 512 members in leaves of two, so each
/// shard's indexed range queries split into leaf chunks that poll the
/// deadline on the worker pool.
#[test]
fn armed_deadline_answers_match_default_options() {
    let many_leaves = IndexConfig {
        leaf_capacity: 2,
        ..IndexConfig::always()
    };
    armed_deadline_matches_default(&build_task(0x5E49, 12, 20, 3), IndexConfig::always());
    armed_deadline_matches_default(&build_task(0x5E4A, 512, 20, 3), many_leaves);
}

/// The body of [`armed_deadline_answers_match_default_options`] over one
/// collection, with the index forced on under `indexed` and off.
fn armed_deadline_matches_default(task: &MatchingTask, indexed: IndexConfig) {
    let armed = QueryOptions::default().with_deadline(Duration::from_secs(60));
    for technique in techniques() {
        let name = technique.kind();
        let probabilistic = matches!(
            technique,
            Technique::Munich { .. } | Technique::Proud { .. }
        );
        for shards in [1, 4] {
            for cfg in [indexed, IndexConfig::disabled()] {
                let prepare = || {
                    let rr = ShardAssignment::RoundRobin;
                    ShardedEngine::prepare_with(task, &technique, shards, rr, cfg)
                };
                let (deadlined, default) = (prepare(), prepare());
                for q in probe_queries(task) {
                    let indexed = cfg != IndexConfig::disabled();
                    let ctx = format!("{name} shards={shards} indexed={indexed} q={q}");
                    let eps = task.calibrated_threshold(q, &technique);
                    let got = deadlined
                        .answer_set_opts(q, eps, &armed)
                        .expect("the deadline does not expire");
                    assert!(got.is_complete(), "{ctx}");
                    assert_eq!(*got.value, *range(&default, q, eps), "{ctx}");
                    let got = deadlined.top_k_opts(q, 3, &armed);
                    let want = top_k(&default, q, 3);
                    assert_eq!(got.map(|r| bits(&r.value)), want.map(|v| bits(&v)), "{ctx}");
                    let got = deadlined
                        .probabilities_opts(q, eps, &armed)
                        .expect("the deadline does not expire");
                    assert_eq!(
                        got.map(|r| bits(&r.value)),
                        probabilities(&default, q, eps).map(|v| bits(&v)),
                        "{ctx}"
                    );
                }
                let stats = deadlined.index_stats();
                let indexed = cfg != IndexConfig::disabled() && !probabilistic;
                assert_eq!(stats.indexed_queries > 0, indexed, "{name} shards={shards}");
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Shard-boundary property tests
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random collection size × shard count × assignment × index on/off
    /// × technique (Euclidean and DUST — the two whose indexed paths
    /// cross shard boundaries with external query views): the sharded
    /// merge equals the naive reference for top-k (indices and
    /// bit-level distances) and range answers — the boundary cases a
    /// fixed-size suite can miss (empty shards, size-1 shards, k beyond
    /// shard sizes, leaves holding a single member).
    #[test]
    fn random_shapes_match_naive(
        seed in any::<u64>(),
        n in 6usize..18,
        shards in 1usize..9,
        assignment in prop::sample::select(ASSIGNMENTS.to_vec()),
        k in 1usize..6,
        use_index in any::<bool>(),
        use_dust in any::<bool>(),
    ) {
        let k = k.min(n - 2);
        let task = build_task(seed, n, 12, k.max(1));
        let technique = if use_dust {
            Technique::Dust(Dust::default())
        } else {
            Technique::Euclidean
        };
        let cfg = if use_index { IndexConfig::always() } else { IndexConfig::disabled() };
        let sharded = ShardedEngine::prepare_with(&task, &technique, shards, assignment, cfg);
        for q in [0, n / 2, n - 1] {
            let eps = task.calibrated_threshold(q, &technique);
            prop_assert_eq!(
                &*range(&sharded, q, eps),
                &task.answer_set_naive(q, &technique, eps)
            );
            let s = top_k(&sharded, q, k.max(1)).unwrap();
            let naive = task.top_k_naive(q, &technique, k.max(1)).unwrap();
            prop_assert_eq!(s.len(), naive.len());
            for (a, b) in s.iter().zip(&naive) {
                prop_assert_eq!(a.0, b.0);
                prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
    }
}
