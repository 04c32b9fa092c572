//! Candidate-index smoke check — CI's index-equivalence guard.
//!
//! ```sh
//! cargo run --release --example index_smoke
//! ```
//!
//! Prepares a mid-size collection with the lower-bound candidate index
//! forced on and forced off, replays range and top-k workloads through
//! both for the value-based techniques (Euclidean, UMA, UEMA) and for
//! DUST (whose pruning pushes PAA gaps through the φ-space cost
//! envelope), and asserts bit-identical answers — plus that the index
//! actually pruned (candidates visited strictly below collection size;
//! DUST additionally below a 90% floor, since its envelope must do real
//! work, not just squeak by). The index's two contracts, checked in
//! seconds without a full perfbench run.
//!
//! A second pass packs the same collection into leaves of 8 (128
//! leaves), so indexed range queries split into leaf chunks that run on
//! the worker pool; its answers must be bit-identical to the scan too.
//!
//! DUST runs twice: on constant σ, where every member has one error
//! class, and on the paper's mixed σ (20% of points at σ 1.0, the rest at
//! 0.4), where the kernel reads each point's table by its per-point
//! class — so the release build's class-indexed loop is held to the scan
//! here too.

use std::time::Instant;

use uncertts::core::dust::Dust;
use uncertts::core::engine::QueryEngine;
use uncertts::core::index::IndexConfig;
use uncertts::core::matching::{MatchingTask, Technique};
use uncertts::core::uma::{Uema, Uma};
use uncertts::stats::rng::Seed;
use uncertts::tseries::TimeSeries;
use uncertts::uncertain::{perturb, ErrorFamily, ErrorSpec};

fn main() {
    let seed = Seed::new(0x1DE8);
    let n = 1024;
    let len = 64;
    let clean: Vec<TimeSeries> = (0..n)
        .map(|i| {
            // Four coarse clusters so SAX packing has real locality.
            let phase = (i % 4) as f64 * 1.7;
            TimeSeries::from_values((0..len).map(|t| {
                let t = t as f64;
                (t / 6.0 + phase + i as f64 * 0.01).sin()
                    + 0.25 * (t / 11.0 + i as f64 * 0.03).cos()
            }))
            .znormalized()
        })
        .collect();
    let perturbed = |spec: ErrorSpec| {
        let uncertain: Vec<_> = clean
            .iter()
            .enumerate()
            .map(|(i, c)| perturb(c, &spec, seed.derive("pdf").derive_u64(i as u64)))
            .collect();
        MatchingTask::new(clean.clone(), uncertain, None, 5)
    };
    let task = perturbed(ErrorSpec::constant(ErrorFamily::Normal, 0.4));
    let mixed = perturbed(ErrorSpec::paper_mixed(ErrorFamily::Normal));

    let techniques: Vec<(&str, &MatchingTask, Technique)> = vec![
        ("euclidean", &task, Technique::Euclidean),
        ("uma", &task, Technique::Uma(Uma::default())),
        ("uema", &task, Technique::Uema(Uema::default())),
        ("dust", &task, Technique::Dust(Dust::default())),
        ("dust (mixed σ)", &mixed, Technique::Dust(Dust::default())),
    ];
    let queries: Vec<usize> = (0..n).step_by(97).collect();

    let layouts = [
        ("16 leaves", IndexConfig::default()),
        (
            "128 leaves",
            IndexConfig {
                leaf_capacity: 8,
                ..IndexConfig::default()
            },
        ),
    ];

    let t0 = Instant::now();
    for &(name, task, ref technique) in &techniques {
        let scan = QueryEngine::prepare_with(task, technique, IndexConfig::disabled());
        assert!(!scan.is_indexed(), "{name}: disabled config built an index");
        for (layout, cfg) in layouts {
            let indexed = QueryEngine::prepare_with(task, technique, cfg);
            assert!(
                indexed.is_indexed(),
                "{name}: {layout} config skipped the index at n={n}"
            );
            assert_eq!(
                indexed.index().map(|ix| ix.leaf_count()),
                Some(n.div_ceil(cfg.leaf_capacity)),
                "{name}: {layout}"
            );
            for &q in &queries {
                let eps = task.calibrated_threshold(q, technique);
                for scale in [0.5, 1.0, 2.0] {
                    let e = eps * scale;
                    assert_eq!(
                        indexed.answer_set(q, e),
                        scan.answer_set(q, e),
                        "{name} ({layout}): indexed range answers diverged (q={q}, eps={e})"
                    );
                }
                let fast = indexed.top_k(q, 10).expect("value-based technique");
                let base = scan.top_k(q, 10).expect("value-based technique");
                assert!(
                    fast.iter()
                        .zip(&base)
                        .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits()),
                    "{name} ({layout}): indexed top-k diverged (q={q})"
                );
            }
            let stats = indexed.index_stats();
            let per_query = stats.candidates as f64 / stats.indexed_queries as f64;
            assert_eq!(
                stats.scan_queries, 0,
                "{name} ({layout}): indexed engine fell back to scan"
            );
            assert!(
                per_query < n as f64,
                "{name} ({layout}): index visited {per_query:.0} candidates/query — no pruning at n={n}"
            );
            if name.starts_with("dust") {
                // The φ-space envelope must deliver real pruning, not just
                // engage: a 90% candidate floor catches an envelope gone
                // degenerate (e.g. collapsed to zero cost) that
                // bit-identity alone would never notice.
                assert!(
                    per_query < 0.9 * n as f64,
                    "{name} ({layout}): envelope pruning degenerate — {per_query:.0} of {n} candidates/query"
                );
            }
            println!(
                "{name} ({layout}): {} queries indexed ≡ scan ({:.0} candidates/query of {n}, {} of {} leaves pruned)",
                stats.indexed_queries,
                per_query,
                stats.leaves_pruned,
                stats.leaves_pruned + stats.leaves_visited,
            );
        }
    }
    println!(
        "index smoke ok: {} techniques × {} layouts × {} range + top-k queries over {n}×{len} in {:?}",
        techniques.len(),
        layouts.len(),
        queries.len(),
        t0.elapsed()
    );
}
