//! Index-on ≡ index-off property suite: the lower-bound candidate index
//! must never move a result, over random collection shapes, index
//! geometries (segment counts spanning coarse through identity PAA,
//! tiny alphabets, single-member leaves) and degenerate collections
//! (identical members, exact-boundary thresholds).
//!
//! The fixed-workload equivalence suites pin the six techniques; this
//! file hammers the *index geometry* dimension those suites hold
//! constant.

use proptest::prelude::*;
use uts_core::dust::{Dust, DustConfig};
use uts_core::engine::QueryEngine;
use uts_core::index::{admits, IndexConfig};
use uts_core::matching::{MatchingTask, Technique};
use uts_core::uma::Uma;
use uts_stats::rng::Seed;
use uts_tseries::paa::paa;
use uts_tseries::TimeSeries;
use uts_uncertain::{perturb, ErrorFamily, ErrorSpec, PointError, UncertainSeries};

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
    MatchingTask::new(clean, uncertain, None, k)
}

/// A collection whose members are all bit-identical: every pairwise
/// distance is exactly 0.0, so range at ε = 0 must keep everyone and
/// top-k ties are resolved purely by index.
fn identical_task(n: usize, len: usize, k: usize) -> MatchingTask {
    let values: Vec<f64> = (0..len).map(|t| ((t as f64) / 4.0).sin()).collect();
    let e = uts_uncertain::PointError::new(ErrorFamily::Normal, 0.1);
    let clean: Vec<TimeSeries> = (0..n)
        .map(|_| TimeSeries::from_values(values.iter().copied()))
        .collect();
    let uncertain: Vec<UncertainSeries> = (0..n)
        .map(|_| UncertainSeries::new(values.clone(), vec![e; len]))
        .collect();
    MatchingTask::new(clean, uncertain, None, k)
}

fn assert_top_k_matches(
    indexed: &QueryEngine<&MatchingTask>,
    task: &MatchingTask,
    technique: &Technique,
    q: usize,
    k: usize,
    label: &str,
) {
    let fast = indexed.top_k(q, k).expect("distance technique");
    let naive = task
        .top_k_naive(q, technique, k)
        .expect("distance technique");
    assert_eq!(fast.len(), naive.len(), "{label}");
    for (a, b) in fast.iter().zip(&naive) {
        assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()), "{label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random collection × index geometry: answer sets (at the
    /// calibrated threshold — which sits *exactly* on the anchor's
    /// distance — and scaled sparse/dense) and top-k are bit-identical
    /// to the naive path for Euclidean, UMA and DUST (the φ-space
    /// envelope bound), through any segment count (including identity
    /// PAA), alphabet and leaf capacity.
    #[test]
    fn random_geometry_never_moves_an_answer(
        seed in any::<u64>(),
        n in 4usize..24,
        len in 4usize..32,
        segments in 1usize..40,
        alphabet in 2u8..12,
        leaf_capacity in 1usize..12,
    ) {
        let k = 2.min(n - 2).max(1);
        let task = build_task(seed, n, len, k);
        let cfg = IndexConfig {
            segments,
            alphabet,
            leaf_capacity,
            ..IndexConfig::always()
        };
        for technique in [
            Technique::Euclidean,
            Technique::Uma(Uma::default()),
            Technique::Dust(Dust::default()),
        ] {
            let indexed = QueryEngine::prepare_with(&task, &technique, cfg);
            prop_assert!(indexed.is_indexed());
            for q in [0, n - 1] {
                let eps = task.calibrated_threshold(q, &technique);
                for scale in [0.0, 0.5, 1.0, 2.0] {
                    let e = eps * scale;
                    prop_assert_eq!(
                        indexed.answer_set(q, e),
                        task.answer_set_naive(q, &technique, e),
                        "{} q={} eps={}", technique.kind(), q, e
                    );
                }
                assert_top_k_matches(&indexed, &task, &technique, q, k, "top-k");
                assert_top_k_matches(&indexed, &task, &technique, q, n - 1, "top-all");
            }
        }
    }

    /// The admissibility predicate is what the equivalence above leans
    /// on; spot-check its algebra over random magnitudes: a bound at or
    /// below the threshold is always admitted, a bound clearly above is
    /// always pruned.
    #[test]
    fn admits_is_one_sided(lb in 0.0f64..1e12, slack in 1e-6f64..1.0) {
        prop_assert!(admits(lb, lb), "lb == threshold always admitted");
        prop_assert!(admits(lb, lb * (1.0 + slack)), "below threshold admitted");
        let above = lb * (1.0 + slack) + 1.0;
        prop_assert!(!admits(above, lb), "clearly above threshold pruned");
    }
}

/// All-identical members: every distance is exactly 0.0. Range at ε = 0
/// (and negative / NaN ε) plus fully tied top-k must match the naive
/// path — the hardest tie-resolution case for a best-first visit order.
#[test]
fn identical_members_tie_exactly_like_the_scan() {
    for (n, len) in [(6usize, 9usize), (13, 16), (40, 8)] {
        let k = 3.min(n - 2);
        let task = identical_task(n, len, k);
        let technique = Technique::Euclidean;
        for cfg in [
            IndexConfig::always(),
            IndexConfig {
                leaf_capacity: 2,
                segments: len,
                ..IndexConfig::always()
            },
        ] {
            let indexed = QueryEngine::prepare_with(&task, &technique, cfg);
            assert!(indexed.is_indexed());
            for q in [0, n / 2, n - 1] {
                for eps in [0.0, 1.0] {
                    assert_eq!(
                        indexed.answer_set(q, eps),
                        task.answer_set_naive(q, &technique, eps),
                        "n={n} q={q} eps={eps}"
                    );
                }
                assert!(indexed.answer_set(q, -1.0).is_empty());
                assert!(indexed.answer_set(q, f64::NAN).is_empty());
                for kk in [1, k, n - 1] {
                    let fast = indexed.top_k(q, kk).unwrap();
                    let naive = task.top_k_naive(q, &technique, kk).unwrap();
                    assert_eq!(fast.len(), naive.len());
                    for (a, b) in fast.iter().zip(&naive) {
                        assert_eq!(
                            (a.0, a.1.to_bits()),
                            (b.0, b.1.to_bits()),
                            "n={n} q={q} k={kk}"
                        );
                    }
                }
            }
        }
    }
}

/// DUST with per-point σ beyond the warm-table cap: no envelope exists,
/// so `prepare_with(always())` must refuse the index and keep every
/// query on the exact scan — bit-identical to the naive path, with the
/// fallback visible in the stats. A multi-family error set *within* the
/// cap builds the envelope and engages the index with the same
/// bit-identity.
#[test]
fn dust_error_cardinality_gates_the_index() {
    let n = 8;
    let len = 24;
    let mk_task = |error: &dyn Fn(usize, usize) -> PointError| -> MatchingTask {
        let clean: Vec<TimeSeries> = (0..n)
            .map(|i| {
                TimeSeries::from_values((0..len).map(|t| ((t as f64 / 3.0) + i as f64 * 0.7).sin()))
                    .znormalized()
            })
            .collect();
        let uncertain: Vec<UncertainSeries> = clean
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let errors: Vec<PointError> = (0..len).map(|t| error(i, t)).collect();
                UncertainSeries::new(c.values().to_vec(), errors)
            })
            .collect();
        MatchingTask::new(clean, uncertain, None, 3)
    };
    // Reduced grid keeps the many lazy table builds of the capped case
    // and the cross-family envelope of the enveloped case cheap; the
    // gating logic under test is resolution-independent.
    let technique = Technique::Dust(Dust::new(DustConfig {
        table_resolution: 256,
        ..DustConfig::default()
    }));
    // Every (member, point) gets its own σ: 8 × 24 = 192 distinct
    // descriptions, far beyond MAX_WARM_ERRORS — the lazy fallback.
    // (All-Normal keeps every lazily-built table closed-form.)
    let capped =
        mk_task(&|i, t| PointError::new(ErrorFamily::Normal, 0.1 + (i * len + t) as f64 * 1e-3));
    // Three families × two σ levels: six descriptions, within the cap.
    let enveloped = mk_task(&|i, t| {
        PointError::new(
            ErrorFamily::ALL[(i + t) % 3],
            if (i + t) % 2 == 0 { 0.3 } else { 0.6 },
        )
    });
    for (task, expect_index) in [(&capped, false), (&enveloped, true)] {
        let indexed = QueryEngine::prepare_with(task, &technique, IndexConfig::always());
        let naive = QueryEngine::prepare_with(task, &technique, IndexConfig::disabled());
        assert_eq!(indexed.is_indexed(), expect_index);
        for q in [0, n - 1] {
            let eps = task.calibrated_threshold(q, &technique);
            for scale in [0.5, 1.0, 2.0] {
                assert_eq!(
                    indexed.answer_set(q, eps * scale),
                    naive.answer_set(q, eps * scale),
                    "expect_index={expect_index} q={q} scale={scale}"
                );
            }
            let fast = indexed.top_k(q, 3).unwrap();
            let slow = naive.top_k(q, 3).unwrap();
            assert_eq!(fast.len(), slow.len());
            for (a, b) in fast.iter().zip(&slow) {
                assert_eq!(
                    (a.0, a.1.to_bits()),
                    (b.0, b.1.to_bits()),
                    "expect_index={expect_index} q={q}"
                );
            }
        }
        let stats = indexed.index_stats();
        if expect_index {
            assert_eq!(stats.scan_queries, 0, "enveloped DUST stays indexed");
            assert!(stats.indexed_queries > 0);
        } else {
            assert_eq!(stats.indexed_queries, 0, "capped DUST stays on the scan");
            assert!(stats.scan_queries > 0);
        }
    }
}

/// Pruning statistics stay coherent on the indexed paths: every query
/// counts exactly once, and pruned + emitted accounts for every
/// non-excluded member on range queries.
#[test]
fn stats_account_for_every_member() {
    let n = 30;
    let task = build_task(0x1DEC5, n, 24, 3);
    let technique = Technique::Euclidean;
    let indexed = QueryEngine::prepare_with(&task, &technique, IndexConfig::always());
    let queries = [0usize, 7, 29];
    for (idx, &q) in queries.iter().enumerate() {
        let eps = task.calibrated_threshold(q, &technique);
        let before = indexed.index_stats();
        let hits = indexed.answer_set(q, eps);
        let after = indexed.index_stats();
        let delta = after.since(&before);
        assert_eq!(delta.indexed_queries, 1, "q={q}");
        assert_eq!(delta.scan_queries, 0, "q={q}");
        assert!(delta.candidates >= hits.len() as u64, "q={q}");
        // Each leaf is either visited or pruned; each non-excluded
        // member of a visited leaf is either pruned or emitted.
        let leaf_total = indexed.index().unwrap().leaf_count() as u64;
        assert_eq!(
            delta.leaves_visited + delta.leaves_pruned,
            leaf_total,
            "q={q}"
        );
        let _ = idx;
    }
    let stats = indexed.index_stats();
    assert_eq!(stats.indexed_queries, queries.len() as u64);
    // Calibrated thresholds keep answer sets sparse; pruning must have
    // removed at least *some* members across three queries.
    assert!(
        stats.series_pruned + stats.leaves_pruned > 0,
        "pruning engaged: {stats:?}"
    );
}

/// Many small leaves: n = 512 with 1–4 members per leaf (128–512
/// leaves) takes the engine's leaf-chunked range path, which fans chunks
/// of leaves over the worker pool, and the best-first top-k over the same
/// leaves. Both must answer exactly as the naive path, and each query's
/// pruning counters must account for every leaf and every member:
/// each leaf is visited or pruned, and each non-excluded member of a
/// visited leaf is pruned or emitted.
#[test]
fn many_leaf_collections_answer_like_the_scan_and_count_every_member() {
    let n = 512;
    let len = 32;
    let task = build_task(0xC4C5, n, len, 5);
    let uma = Uma::default();
    for technique in [
        Technique::Euclidean,
        Technique::Uma(uma),
        Technique::Dust(Dust::default()),
    ] {
        let name = technique.kind();
        // The value view each technique indexes, and its per-segment
        // pruning cost (DUST's envelope over the task's one error).
        let views: Vec<Vec<f64>> = task
            .uncertain()
            .iter()
            .map(|u| match &technique {
                Technique::Uma(u_) => u_.filter(u).values().to_vec(),
                _ => u.values().to_vec(),
            })
            .collect();
        let envelope = match &technique {
            Technique::Dust(d) => Some(
                d.bound_envelope(&task.uncertain()[0].errors()[..1])
                    .expect("constant Normal errors have an envelope"),
            ),
            _ => None,
        };
        let cost = |gap: f64| match &envelope {
            Some(env) => env.cost(gap.abs()),
            None => gap * gap,
        };
        for leaf_capacity in [1, 2, 4] {
            let cfg = IndexConfig {
                leaf_capacity,
                ..IndexConfig::always()
            };
            let engine = QueryEngine::prepare_with(&task, &technique, cfg);
            let ix = engine.index().expect("indexed");
            assert_eq!(ix.leaf_count(), n.div_ceil(leaf_capacity));
            let synopses: Vec<Vec<f64>> = views.iter().map(|v| paa(v, ix.segments())).collect();
            let leaves = ix.leaf_count() as u64;
            // Non-excluded members of leaf `l`.
            let members =
                |l: usize, q: usize| ix.leaf_members(l).iter().filter(|&&i| i != q).count() as u64;
            for q in [0, 171, 342, n - 1] {
                let ctx = format!("{name} leaf_capacity={leaf_capacity} q={q}");
                let qp = paa(&views[q], ix.segments());
                let eps = task.calibrated_threshold(q, &technique);
                for scale in [0.0, 0.5, 1.0, 2.0] {
                    let e = eps * scale;
                    let before = engine.index_stats();
                    let hits = engine.answer_set(q, e);
                    let delta = engine.index_stats().since(&before);
                    assert_eq!(
                        hits,
                        task.answer_set_naive(q, &technique, e),
                        "{ctx} eps={e}"
                    );
                    // A leaf is visited when its rectangle's cost-space gap
                    // stays within the limit (costs are non-negative, so the
                    // index's early abandonment decides the same way).
                    let limit = ix.squared_prune_limit(e);
                    let visited: Vec<usize> = (0..ix.leaf_count())
                        .filter(|&l| {
                            let gap = (0..ix.segments()).fold(0.0, |acc, s| {
                                let col = ix.leaf_members(l).iter().map(|&i| synopses[i][s]);
                                let lo = col.clone().fold(f64::INFINITY, f64::min);
                                let hi = col.fold(f64::NEG_INFINITY, f64::max);
                                let g = if qp[s] < lo {
                                    lo - qp[s]
                                } else if qp[s] > hi {
                                    qp[s] - hi
                                } else {
                                    0.0
                                };
                                acc + cost(g)
                            });
                            gap <= limit
                        })
                        .collect();
                    assert_eq!(delta.indexed_queries, 1, "{ctx} eps={e}");
                    assert_eq!(delta.leaves_visited, visited.len() as u64, "{ctx} eps={e}");
                    assert_eq!(delta.leaves_visited + delta.leaves_pruned, leaves, "{ctx}");
                    assert_eq!(
                        delta.series_pruned + delta.candidates,
                        visited.iter().map(|&l| members(l, q)).sum::<u64>(),
                        "{ctx} eps={e}"
                    );
                }
                for k in [1, 5, 40] {
                    let before = engine.index_stats();
                    assert_top_k_matches(&engine, &task, &technique, q, k, &ctx);
                    let delta = engine.index_stats().since(&before);
                    // Top-k visits a prefix of the best-first leaf order.
                    assert_eq!(delta.leaves_visited + delta.leaves_pruned, leaves, "{ctx}");
                    let order = ix.leaves_by_lower_bound_by(&qp, cost);
                    let prefix = &order[..delta.leaves_visited as usize];
                    assert_eq!(
                        delta.series_pruned + delta.candidates,
                        prefix.iter().map(|&(_, l)| members(l, q)).sum::<u64>(),
                        "{ctx} k={k}"
                    );
                }
            }
        }
    }
}
