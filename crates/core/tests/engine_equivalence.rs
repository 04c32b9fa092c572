//! Engine-vs-naive equivalence suite: for every [`Technique`], the
//! batched [`QueryEngine`] must return *bit-identical* answer sets,
//! top-k results and probabilities to the naive `*_naive` reference
//! paths on [`MatchingTask`], across several seeded workloads — whether
//! the engine is prepared over the task or over its bare collection.
//!
//! This is the contract that lets every figure reproduction run on the
//! fast path: the early-abandon kernels replay the naive accumulation
//! order and the squared cutoffs are exact under IEEE rounding, so the
//! speedups never move a result. Any divergence — one index, one ulp —
//! fails here. Top-k motifs, which the engine answers from per-member
//! top-k lists, are held to the exhaustive pair scan the same way.

use uts_core::dust::{Dust, DustConfig};
use uts_core::engine::QueryEngine;
use uts_core::index::IndexConfig;
use uts_core::matching::{MatchingTask, QualityScores, Technique};
use uts_core::munich::Munich;
use uts_core::proud::{Proud, ProudConfig};
use uts_core::uma::{Uema, Uma};
use uts_datasets::{Catalogue, DatasetId};
use uts_stats::rng::Seed;
use uts_tseries::TimeSeries;
use uts_uncertain::{
    perturb, perturb_multi, ErrorFamily, ErrorSpec, MultiObsSeries, PointError, UncertainSeries,
};

/// One seeded workload: a clean collection, its pdf-model perturbation
/// and a multi-observation perturbation, wrapped in a `MatchingTask`.
struct Workload {
    name: &'static str,
    seed: u64,
    n: usize,
    len: usize,
    sigma: f64,
    family: ErrorFamily,
    k: usize,
}

/// Three deliberately different workloads: size, length, error level and
/// error family all vary, so the fast paths are exercised with dense and
/// sparse answer sets and with every DUST table family.
const WORKLOADS: &[Workload] = &[
    Workload {
        name: "small-normal",
        seed: 0xA11CE,
        n: 12,
        len: 24,
        sigma: 0.3,
        family: ErrorFamily::Normal,
        k: 3,
    },
    Workload {
        name: "mid-uniform",
        seed: 0xB0B,
        n: 14,
        len: 30,
        sigma: 0.8,
        family: ErrorFamily::Uniform,
        k: 5,
    },
    Workload {
        name: "noisy-exponential",
        seed: 0xC4B,
        n: 11,
        len: 18,
        sigma: 1.4,
        family: ErrorFamily::Exponential,
        k: 4,
    },
];

fn build(w: &Workload) -> MatchingTask {
    let root = Seed::new(w.seed);
    let clean: Vec<TimeSeries> = (0..w.n)
        .map(|i| {
            TimeSeries::from_values((0..w.len).map(|t| {
                let t = t as f64;
                (t / 3.5 + i as f64 * 0.4).sin() + 0.3 * (t / 9.0 + i as f64).cos()
            }))
            .znormalized()
        })
        .collect();
    let spec = ErrorSpec::constant(w.family, w.sigma);
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
    MatchingTask::new(clean, uncertain, Some(multi), w.k)
}

/// Query subsample exercised per workload: first, middle, last — keeps
/// the suite inside the tier-1 budget while still probing both ends of
/// the index range (the early-abandon limits evolve along the scan).
fn probe_queries(task: &MatchingTask) -> [usize; 3] {
    [0, task.len() / 2, task.len() - 1]
}

fn techniques(sigma: f64) -> Vec<Technique> {
    vec![
        Technique::Euclidean,
        Technique::Dust(Dust::default()),
        // A tiny table grid: most per-point gaps fall beyond it and are
        // served by the exact kernel, on the range path as on top-k.
        Technique::Dust(Dust::new(DustConfig {
            table_max_delta: 0.5,
            table_resolution: 8,
            ..DustConfig::default()
        })),
        Technique::Uma(Uma::default()),
        Technique::Uema(Uema::default()),
        Technique::Proud {
            proud: Proud::new(ProudConfig::with_sigma(sigma)),
            tau: 0.4,
        },
        Technique::Munich {
            munich: Munich::default(),
            tau: 0.4,
        },
    ]
}

/// Bit-level view of an optional scored answer, so `assert_eq!`
/// compares scores by their bits.
fn bits(scored: &Option<Vec<(usize, f64)>>) -> Option<Vec<(usize, u64)>> {
    scored
        .as_ref()
        .map(|v| v.iter().map(|&(i, d)| (i, d.to_bits())).collect())
}

/// Range answer sets: engine vs naive, every query, at the calibrated
/// threshold and at scaled thresholds (sparse and dense answer sets) —
/// with the candidate index both off (the workloads sit below the
/// default `min_collection`) and forced on ([`IndexConfig::always`]),
/// so the lower-bound pruning provably never moves an answer.
#[test]
fn answer_sets_bit_identical_across_workloads() {
    for w in WORKLOADS {
        let task = build(w);
        for technique in techniques(w.sigma) {
            let engine = QueryEngine::prepare(&task, &technique);
            let indexed = QueryEngine::prepare_with(&task, &technique, IndexConfig::always());
            let bare = QueryEngine::prepare(task.collection(), &technique);
            for q in probe_queries(&task) {
                let eps = task.calibrated_threshold(q, &technique);
                for scale in [0.5, 1.0, 2.0] {
                    let e = eps * scale;
                    let naive = task.answer_set_naive(q, &technique, e);
                    assert_eq!(
                        engine.answer_set(q, e),
                        naive,
                        "{} / {} q={q} eps={e}",
                        w.name,
                        technique.kind()
                    );
                    assert_eq!(
                        bare.answer_set(q, e),
                        naive,
                        "{} / {} q={q} eps={e} (collection)",
                        w.name,
                        technique.kind()
                    );
                    assert_eq!(
                        indexed.answer_set(q, e),
                        naive,
                        "{} / {} q={q} eps={e} (indexed)",
                        w.name,
                        technique.kind()
                    );
                }
            }
        }
    }
}

/// Top-k: identical indices *and* bit-identical distances for the
/// distance techniques; `None` from both paths for the probabilistic
/// ones.
#[test]
fn top_k_bit_identical_across_workloads() {
    for w in WORKLOADS {
        let task = build(w);
        for technique in techniques(w.sigma) {
            let engine = QueryEngine::prepare(&task, &technique);
            let indexed = QueryEngine::prepare_with(&task, &technique, IndexConfig::always());
            let bare = QueryEngine::prepare(task.collection(), &technique);
            for q in probe_queries(&task) {
                for k in [1, w.k, task.len() - 1] {
                    let naive = task.top_k_naive(q, &technique, k);
                    for (label, fast) in [
                        ("scan", engine.top_k(q, k)),
                        ("indexed", indexed.top_k(q, k)),
                        ("collection", bare.top_k(q, k)),
                    ] {
                        match (&fast, &naive) {
                            (Some(f), Some(nv)) => {
                                assert_eq!(f.len(), nv.len());
                                for (a, b) in f.iter().zip(nv) {
                                    assert_eq!(
                                        a.0,
                                        b.0,
                                        "{} / {} q={q} k={k} ({label})",
                                        w.name,
                                        technique.kind()
                                    );
                                    assert_eq!(
                                        a.1.to_bits(),
                                        b.1.to_bits(),
                                        "{} / {} q={q} k={k} ({label}): {} vs {}",
                                        w.name,
                                        technique.kind(),
                                        a.1,
                                        b.1
                                    );
                                }
                            }
                            (None, None) => {}
                            _ => panic!(
                                "{} / {} q={q} k={k} ({label}): engine {fast:?} vs naive {naive:?}",
                                w.name,
                                technique.kind()
                            ),
                        }
                    }
                }
            }
        }
    }
}

/// Probabilities: PROUD and MUNICH per-candidate probabilities are
/// bit-identical (MUNICH's precomputed MBI envelopes must not move the
/// filter decision); distance techniques return `None` on both paths.
#[test]
fn probabilities_bit_identical_across_workloads() {
    for w in WORKLOADS {
        let task = build(w);
        for technique in techniques(w.sigma) {
            // The index never touches the probability paths; forcing it
            // on must leave them bit-identical too.
            let engine = QueryEngine::prepare_with(&task, &technique, IndexConfig::always());
            let bare = QueryEngine::prepare(task.collection(), &technique);
            for q in probe_queries(&task) {
                let eps = task.calibrated_threshold(q, &technique);
                let naive = task.probabilities_naive(q, &technique, eps);
                assert_eq!(
                    bits(&bare.probabilities(q, eps)),
                    bits(&naive),
                    "{} / {} q={q} (collection)",
                    w.name,
                    technique.kind()
                );
                let fast = engine.probabilities(q, eps);
                match (&fast, &naive) {
                    (Some(f), Some(nv)) => {
                        assert_eq!(f.len(), nv.len());
                        for (a, b) in f.iter().zip(nv) {
                            assert_eq!(a.0, b.0, "{} / {} q={q}", w.name, technique.kind());
                            assert_eq!(
                                a.1.to_bits(),
                                b.1.to_bits(),
                                "{} / {} q={q} cand={}: {} vs {}",
                                w.name,
                                technique.kind(),
                                a.0,
                                a.1,
                                b.1
                            );
                        }
                    }
                    (None, None) => {}
                    _ => panic!(
                        "{} / {} q={q}: engine {fast:?} vs naive {naive:?}",
                        w.name,
                        technique.kind()
                    ),
                }
            }
        }
    }
}

/// A negative or NaN ε bounds no distance: PROUD and MUNICH answer every
/// candidate with probability `0.0` on both paths instead of panicking,
/// as their range queries answer empty.
#[test]
fn degenerate_epsilon_probabilities_equal_naive() {
    let w = &WORKLOADS[0];
    let task = build(w);
    for technique in techniques(w.sigma) {
        let engine = QueryEngine::prepare(&task, &technique);
        for q in probe_queries(&task) {
            for eps in [-1.0, -10.0, f64::NAN] {
                let ctx = format!("{} q={q} ε={eps}", technique.kind());
                let fast = engine.probabilities(q, eps);
                let naive = task.probabilities_naive(q, &technique, eps);
                let bits = |v: &Option<Vec<(usize, f64)>>| {
                    v.as_ref()
                        .map(|v| v.iter().map(|&(i, p)| (i, p.to_bits())).collect::<Vec<_>>())
                };
                assert_eq!(bits(&fast), bits(&naive), "{ctx}");
                if let Some(fast) = fast {
                    assert_eq!(fast.len(), task.len() - 1, "{ctx}");
                    assert!(fast.iter().all(|&(_, p)| p.to_bits() == 0), "{ctx}");
                }
            }
        }
    }
}

/// Ground truth (early-abandoned selection scan) matches the naive full
/// pass + sort, including the anchor and its clean distance.
#[test]
fn ground_truth_bit_identical_across_workloads() {
    for w in WORKLOADS {
        let task = build(w);
        for q in 0..task.len() {
            let fast = task.ground_truth(q);
            let naive = task.ground_truth_naive(q);
            assert_eq!(fast.neighbors, naive.neighbors, "{} q={q}", w.name);
            assert_eq!(fast.anchor, naive.anchor, "{} q={q}", w.name);
            assert_eq!(
                fast.clean_distance.to_bits(),
                naive.clean_distance.to_bits(),
                "{} q={q}",
                w.name
            );
        }
    }
}

// ---------------------------------------------------------------------------
// MUNICH boundary workloads: the pruned decision pipeline at the edges
// ---------------------------------------------------------------------------

/// A short MUNICH workload whose members carry *different* sample counts
/// (`s = 1 + i mod 3`): every query pairs series with `s_x ≠ s_y`, and
/// the `s = 1` members degenerate to certain series. Series are short
/// enough that the exact DP is always feasible, so Exact/Auto probe the
/// abandonment arithmetic, not the convolution fallback.
fn munich_boundary_task(seed: u64) -> MatchingTask {
    let root = Seed::new(seed);
    let n = 9;
    let len = 6;
    let clean: Vec<TimeSeries> = (0..n)
        .map(|i| {
            TimeSeries::from_values((0..len).map(|t| ((t as f64) / 2.0 + i as f64 * 0.7).sin()))
        })
        .collect();
    let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.5);
    let uncertain: Vec<UncertainSeries> = clean
        .iter()
        .enumerate()
        .map(|(i, c)| perturb(c, &spec, root.derive("pdf").derive_u64(i as u64)))
        .collect();
    let multi: Vec<MultiObsSeries> = clean
        .iter()
        .enumerate()
        .map(|(i, c)| {
            perturb_multi(
                c,
                &spec,
                1 + i % 3,
                root.derive("multi").derive_u64(i as u64),
            )
        })
        .collect();
    MatchingTask::new(clean, uncertain, Some(multi), 3)
}

fn munich_boundary_strategies() -> Vec<uts_core::munich::MunichStrategy> {
    use uts_core::munich::MunichStrategy;
    vec![
        MunichStrategy::Convolution { bins: 1024 },
        MunichStrategy::MonteCarlo { samples: 3000 },
        MunichStrategy::Auto,
    ]
}

/// MUNICH boundary τ values: the closed ends of the valid range, plus τ
/// sitting *exactly* on each candidate's probability (`count / total` of
/// the materialisation enumeration) — where `p ≥ τ` flips on the last
/// ulp and any early-abandonment slop would show. Engine answer sets
/// must stay bit-identical to the naive path through all of them.
#[test]
fn munich_boundary_taus_bit_identical() {
    use uts_core::munich::MunichConfig;
    for seed in [0x0D01_u64, 0x0D02, 0x0D03] {
        let task = munich_boundary_task(seed);
        for strategy in munich_boundary_strategies() {
            let munich = Munich::new(MunichConfig {
                strategy,
                ..MunichConfig::default()
            });
            let probe = Technique::Munich { munich, tau: 0.4 };
            for q in probe_queries(&task) {
                let eps = task.calibrated_threshold(q, &probe);
                // Exact per-candidate probabilities (count/total values).
                let probs = task
                    .probabilities_naive(q, &probe, eps)
                    .expect("MUNICH is probabilistic");
                let mut taus = vec![0.0, 1.0];
                taus.extend(probs.iter().map(|&(_, p)| p.clamp(0.0, 1.0)));
                for tau in taus {
                    let technique = Technique::Munich { munich, tau };
                    let engine = QueryEngine::prepare(&task, &technique);
                    assert_eq!(
                        engine.answer_set(q, eps),
                        task.answer_set_naive(q, &technique, eps),
                        "seed={seed:#x} {strategy:?} q={q} τ={tau}"
                    );
                }
            }
        }
    }
}

/// Mixed sample counts and single-sample members: answer sets and
/// probabilities engine vs naive, across ε scales (sparse through
/// dense).
#[test]
fn munich_mixed_sample_counts_bit_identical() {
    let task = munich_boundary_task(0x0D04);
    let technique = Technique::Munich {
        munich: Munich::default(),
        tau: 0.4,
    };
    let engine = QueryEngine::prepare(&task, &technique);
    for q in 0..task.len() {
        let eps = task.calibrated_threshold(q, &technique);
        for scale in [0.25, 0.5, 1.0, 2.0, 4.0] {
            let e = eps * scale;
            assert_eq!(
                engine.answer_set(q, e),
                task.answer_set_naive(q, &technique, e),
                "q={q} eps={e}"
            );
        }
        let fast = engine.probabilities(q, eps).expect("probabilistic");
        let naive = task
            .probabilities_naive(q, &technique, eps)
            .expect("probabilistic");
        for (a, b) in fast.iter().zip(&naive) {
            assert_eq!(a.0, b.0, "q={q}");
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "q={q} cand={}", a.0);
        }
    }
}

/// The index engages exactly where it should: the value-based
/// techniques (Euclidean, UMA, UEMA) and DUST (whose φ-space envelope
/// is available on these constant-σ workloads) build an index under
/// `always()` and route their range/top-k queries through it; PROUD and
/// MUNICH bypass it and count as scan queries — and `disabled()` keeps
/// everyone on the scan path.
#[test]
fn index_engagement_follows_the_technique() {
    let w = &WORKLOADS[0];
    let task = build(w);
    for technique in techniques(w.sigma) {
        let indexed = QueryEngine::prepare_with(&task, &technique, IndexConfig::always());
        let engages = matches!(
            technique,
            Technique::Euclidean | Technique::Uma(_) | Technique::Uema(_) | Technique::Dust(_)
        );
        assert_eq!(
            indexed.is_indexed(),
            engages,
            "{}: index built iff the technique engages it",
            technique.kind()
        );
        let eps = task.calibrated_threshold(0, &technique);
        let _ = indexed.answer_set(0, eps);
        let stats = indexed.index_stats();
        if engages {
            assert_eq!(
                (stats.indexed_queries, stats.scan_queries),
                (1, 0),
                "{}: range through the index",
                technique.kind()
            );
        } else {
            assert_eq!(
                (stats.indexed_queries, stats.scan_queries),
                (0, 1),
                "{}: range bypasses the index",
                technique.kind()
            );
        }
        let off = QueryEngine::prepare_with(&task, &technique, IndexConfig::disabled());
        assert!(!off.is_indexed(), "{}: disabled config", technique.kind());
        let _ = off.answer_set(0, eps);
        assert_eq!(off.index_stats().scan_queries, 1);
    }
}

/// The full §4.1.2 protocol through one shared engine equals the naive
/// per-query pipeline (ground truth → calibrate → answer → score).
#[test]
fn shared_engine_protocol_matches_naive_protocol() {
    for w in WORKLOADS {
        let task = build(w);
        let queries: Vec<usize> = probe_queries(&task).to_vec();
        for technique in techniques(w.sigma) {
            let engine = QueryEngine::prepare(&task, &technique);
            let fast: Vec<QualityScores> =
                queries.iter().map(|&q| engine.query_quality(q)).collect();
            let naive: Vec<QualityScores> = queries
                .iter()
                .map(|&q| {
                    let gt = task.ground_truth_naive(q);
                    let eps = task.threshold_against(q, gt.anchor, &technique);
                    let answer = task.answer_set_naive(q, &technique, eps);
                    QualityScores::from_sets(&answer, &gt.neighbors)
                })
                .collect();
            assert_eq!(fast, naive, "{} / {}", w.name, technique.kind());
        }
    }
}

/// The exhaustive motif oracle: every pair `(i, j > i)` at the distance
/// query `i` measures to `j` (`top_k_naive` over all `n − 1`
/// neighbours), sorted by distance, then `i`, then `j`.
fn naive_motifs(task: &MatchingTask, technique: &Technique) -> Vec<(usize, usize, f64)> {
    let mut pairs = Vec::new();
    for i in 0..task.len() {
        let neighbours = task.top_k_naive(i, technique, task.len() - 1).unwrap();
        pairs.extend(
            neighbours
                .into_iter()
                .filter(|&(j, _)| j > i)
                .map(|(j, d)| (i, j, d)),
        );
    }
    pairs.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
    pairs
}

/// `n` members of a catalogue dataset under the paper's mixed-σ normal
/// errors (DUST then looks up both orders of each σ pair), with planted
/// duplicates: members `n − 3` and `n − 2` copy member 1 outright (three
/// pairs tied at one distance), and member `n − 1` takes member 7's
/// observed values with its own errors.
fn motif_task(id: DatasetId, n: usize) -> MatchingTask {
    let seed = Seed::new(0x5EED);
    let mut clean = Catalogue::new(seed).generate_scaled(id, n).series;
    for (to, from) in [(n - 3, 1), (n - 2, 1), (n - 1, 7)] {
        clean[to] = clean[from].clone();
    }
    let spec = ErrorSpec::paper_mixed(ErrorFamily::Normal);
    let mut uncertain: Vec<UncertainSeries> = clean
        .iter()
        .enumerate()
        .map(|(i, c)| perturb(c, &spec, seed.derive_u64(i as u64)))
        .collect();
    uncertain[n - 3] = uncertain[1].clone();
    uncertain[n - 2] = uncertain[1].clone();
    uncertain[n - 1] = UncertainSeries::new(
        uncertain[7].values().to_vec(),
        uncertain[n - 1].errors().to_vec(),
    );
    MatchingTask::new(clean, uncertain, None, 1)
}

/// Top-k motifs: the engine's pairs equal the exhaustive scan's first `k`
/// bit for bit, on the scan path (60 members) and the indexed path (300),
/// for every distance technique, for `k` from 1 past the number of pairs.
#[test]
fn top_k_motifs_bit_identical_to_pair_scan() {
    let bits = |m: &[(usize, usize, f64)]| -> Vec<(usize, usize, u64)> {
        m.iter().map(|&(i, j, d)| (i, j, d.to_bits())).collect()
    };
    for (id, n) in [(DatasetId::Ecg200, 60), (DatasetId::Cbf, 300)] {
        let task = motif_task(id, n);
        let pairs = n * (n - 1) / 2;
        for technique in [
            Technique::Euclidean,
            Technique::Dust(Dust::default()),
            Technique::Uma(Uma::default()),
            Technique::Uema(Uema::default()),
        ] {
            let engine = QueryEngine::prepare(&task, &technique);
            assert_eq!(engine.is_indexed(), n == 300, "{}", technique.kind());
            let naive = naive_motifs(&task, &technique);
            assert_eq!(naive.len(), pairs);
            for k in [1, 3, 10, 50, pairs + 1] {
                let fast = engine.top_k_motifs(k).unwrap();
                assert_eq!(
                    bits(&fast),
                    bits(&naive[..k.min(pairs)]),
                    "{id:?} n={n} / {} k={k}",
                    technique.kind()
                );
            }
        }
    }
}

/// A motif only a widened list reveals. DUST distances depend on
/// direction when two series' error pdfs differ, so member 1's nearest
/// neighbour can tie between members 0 and 2 (member 0 wins on index)
/// while pair (0, 1), measured from member 0, ranks behind (1, 2). The
/// top motif (1, 2) is then in neither 1-wide list, and member 1's list
/// has to be widened to find it.
#[test]
fn motifs_widen_lists_under_direction_dependent_distances() {
    let dust = Dust::default();
    let lo = PointError::new(ErrorFamily::Normal, 0.4);
    let hi = PointError::new(ErrorFamily::Exponential, 1.0);
    let member = |gap: f64, e: PointError| {
        let mut values = vec![0.0; 8];
        values[3] = gap;
        UncertainSeries::new(values, vec![e; 8])
    };
    // Members 0 and 2 sit one gap either side of member 1 at one timestamp.
    let (members, x) = (1..200)
        .map(|s| s as f64 * 0.013)
        .find_map(|gap| {
            let m = [member(gap, hi), member(0.0, lo), member(-gap, hi)];
            let x = dust.distance(&m[1], &m[0]);
            let ranks_first =
                x > 0.0 && x < dust.distance(&m[0], &m[1]) && x < dust.distance(&m[0], &m[2]);
            ranks_first.then_some((m, x))
        })
        .expect("a gap whose DUST distance depends on direction");
    let clean = members
        .iter()
        .map(|u| TimeSeries::from_values(u.values().iter().copied()))
        .collect();
    let task = MatchingTask::new(clean, members.to_vec(), None, 1);
    let technique = Technique::Dust(dust);
    let engine = QueryEngine::prepare(&task, &technique);
    assert_eq!(engine.top_k(1, 1).unwrap(), vec![(0, x)]);
    assert_eq!(engine.top_k_motifs(1).unwrap(), vec![(1, 2, x)]);
    assert_eq!(
        engine.top_k_motifs(3).unwrap(),
        naive_motifs(&task, &technique)
    );
}

/// The planted exact duplicate ranks first at distance 0.
#[test]
fn motifs_find_closest_pair() {
    let task = motif_task(DatasetId::Ecg200, 60);
    let engine = QueryEngine::prepare(&task, &Technique::Euclidean);
    let motifs = engine.top_k_motifs(3).unwrap();
    assert_eq!(motifs.len(), 3);
    assert_eq!(motifs[0], (1, 57, 0.0));
    assert!(motifs.windows(2).all(|w| w[0].2 <= w[1].2));
}

/// A `k` past the number of pairs returns every pair, `C(n, 2)`.
#[test]
fn motifs_truncate_to_available_pairs() {
    let task = build(&WORKLOADS[0]);
    let engine = QueryEngine::prepare(&task, &Technique::Euclidean);
    let n = task.len();
    assert_eq!(engine.top_k_motifs(1000).unwrap().len(), n * (n - 1) / 2);
}

/// PROUD and MUNICH produce probabilities, not distances: no motifs.
#[test]
fn probabilistic_techniques_have_no_motifs() {
    let w = &WORKLOADS[0];
    let task = build(w);
    for technique in techniques(w.sigma) {
        let motifs = QueryEngine::prepare(&task, &technique).top_k_motifs(3);
        let ranked = !matches!(
            technique,
            Technique::Proud { .. } | Technique::Munich { .. }
        );
        assert_eq!(motifs.is_some(), ranked, "{}", technique.kind());
    }
}
