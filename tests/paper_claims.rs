//! Integration tests pinning the paper's *qualitative claims* — the
//! statements its figures exist to support. Each test names the paper
//! section it checks. These are the workspace's regression net for the
//! reproduction itself: if a refactor breaks one of these, the repo no
//! longer reproduces the paper.

use uncertts::core::dust::{Dust, DustConfig};
use uncertts::core::engine::QueryEngine;
use uncertts::core::matching::Technique;
use uncertts::core::munich::{Munich, MunichConfig, MunichStrategy};
use uncertts::core::proud::{Proud, ProudConfig};
use uncertts::core::uma::{Uema, Uma};
use uncertts::datasets::{Catalogue, DatasetId};
use uncertts::stats::rng::Seed;
use uncertts::uncertain::{ErrorFamily, ErrorSpec, PointError};
use uts_experiments::config::{ExpConfig, Scale};
use uts_experiments::runner::{
    build_task, pick_queries, technique_scores, technique_scores_optimal_tau, ReportedError,
};

fn quick_config() -> ExpConfig {
    ExpConfig::with_scale(Scale::Quick)
}

/// §4.1.1: the chi-square test rejects value-uniformity on all datasets.
#[test]
fn claim_uniformity_rejected_everywhere() {
    let cat = Catalogue::new(Seed::new(20));
    for id in DatasetId::all() {
        let d = cat.generate_scaled(id, 30);
        let out = uncertts::stats::chi_square_uniformity(&d.all_values(), 20).unwrap();
        assert!(out.reject_at(0.01), "{id}: p = {}", out.p_value);
    }
}

/// §2.3 / §3.2: DUST with normal errors is order-equivalent to Euclidean.
#[test]
fn claim_dust_normal_equivalence() {
    let seed = Seed::new(21);
    let dataset = Catalogue::new(seed).generate_scaled(DatasetId::Fish, 20);
    let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.9);
    let task = build_task(&dataset, &spec, ReportedError::Truthful, None, 5, seed);
    let dust = Dust::new(DustConfig::default());
    // Pairwise order agreement on a sample of triples.
    let u = task.uncertain();
    for (a, b, c) in [(0, 1, 2), (3, 7, 11), (5, 10, 15), (2, 9, 19)] {
        let e_ab = uncertts::core::euclidean::euclidean_uncertain(&u[a], &u[b]);
        let e_ac = uncertts::core::euclidean::euclidean_uncertain(&u[a], &u[c]);
        let d_ab = dust.distance(&u[a], &u[b]);
        let d_ac = dust.distance(&u[a], &u[c]);
        assert_eq!(
            e_ab < e_ac,
            d_ab < d_ac,
            "order disagreement on triple ({a},{b},{c})"
        );
    }
}

/// §4.2.1 (Figure 4 trend): accuracy decreases as σ grows, for every
/// technique.
#[test]
fn claim_accuracy_decreases_with_sigma() {
    let config = quick_config();
    let seed = Seed::new(22);
    let dataset = Catalogue::new(seed).generate_scaled(DatasetId::Cbf, 30);
    for technique in [
        Technique::Euclidean,
        Technique::Dust(Dust::default()),
        Technique::Uema(Uema::default()),
    ] {
        let f1_at = |sigma: f64| {
            let spec = ErrorSpec::constant(ErrorFamily::Normal, sigma);
            let task = build_task(
                &dataset,
                &spec,
                ReportedError::Truthful,
                None,
                config.ground_truth_k,
                seed.derive_u64((sigma * 100.0) as u64),
            );
            let queries = pick_queries(task.len(), 10, seed);
            technique_scores(&task, &queries, &technique).f1.mean()
        };
        let low = f1_at(0.2);
        let high = f1_at(2.0);
        assert!(
            low > high,
            "{}: F1(σ=0.2) = {low} should exceed F1(σ=2.0) = {high}",
            technique.kind()
        );
    }
}

/// §4.2.2 (Figures 6–7): as σ grows, precision collapses much harder than
/// recall for the probabilistic/distance techniques under calibrated
/// thresholds.
#[test]
fn claim_precision_falls_harder_than_recall() {
    let seed = Seed::new(23);
    let dataset = Catalogue::new(seed).generate_scaled(DatasetId::SwedishLeaf, 40);
    let grid = [0.2, 2.0];
    let mut precision_drop = 0.0;
    let mut recall_drop = 0.0;
    for (i, sigma) in grid.iter().enumerate() {
        let spec = ErrorSpec::constant(ErrorFamily::Normal, *sigma);
        let task = build_task(
            &dataset,
            &spec,
            ReportedError::Truthful,
            None,
            10,
            seed.derive_u64(i as u64),
        );
        let queries = pick_queries(task.len(), 12, seed);
        let (_, agg) = technique_scores_optimal_tau(
            &task,
            &queries,
            &Technique::Proud {
                proud: Proud::new(ProudConfig::with_sigma(*sigma)),
                tau: 0.5,
            },
            &[0.1, 0.3, 0.5, 0.7, 0.9],
        );
        let sign = if i == 0 { 1.0 } else { -1.0 };
        precision_drop += sign * agg.precision.mean();
        recall_drop += sign * agg.recall.mean();
    }
    assert!(
        precision_drop > recall_drop,
        "precision should fall harder: Δprecision {precision_drop} vs Δrecall {recall_drop}"
    );
}

/// §4.2.3 (Figures 8/10): when the error information is wrong or
/// unusable, DUST loses its edge over Euclidean ("PROUD and DUST do not
/// offer an advantage when compared to Euclidean").
#[test]
fn claim_misreported_sigma_levels_dust_and_euclidean() {
    let seed = Seed::new(24);
    let dataset = Catalogue::new(seed).generate_scaled(DatasetId::Lighting7, 30);
    let spec = ErrorSpec::paper_mixed(ErrorFamily::Normal);
    let task = build_task(
        &dataset,
        &spec,
        ReportedError::ConstantSigma(0.7),
        None,
        10,
        seed,
    );
    let queries = pick_queries(task.len(), 12, seed);
    let dust = technique_scores(&task, &queries, &Technique::Dust(Dust::default()));
    let eucl = technique_scores(&task, &queries, &Technique::Euclidean);
    // With constant misreported σ, DUST degenerates to a monotone
    // transform of Euclidean: identical calibrated answers.
    assert!(
        (dust.f1.mean() - eucl.f1.mean()).abs() < 1e-9,
        "DUST {} vs Euclidean {}",
        dust.f1.mean(),
        eucl.f1.mean()
    );
}

/// §5.2 (Figures 15–17): UMA/UEMA outperform Euclidean on the mixed-error
/// stress test, averaged across a sample of datasets.
#[test]
fn claim_filters_beat_euclidean_on_mixed_errors() {
    let seed = Seed::new(25);
    let cat = Catalogue::new(seed);
    for family in ErrorFamily::ALL {
        let spec = ErrorSpec::paper_mixed(family);
        let mut eucl_total = 0.0;
        let mut uma_total = 0.0;
        let mut uema_total = 0.0;
        for id in [DatasetId::OliveOil, DatasetId::Adiac, DatasetId::GunPoint] {
            let dataset = cat.generate_scaled(id, 36);
            let task = build_task(
                &dataset,
                &spec,
                ReportedError::Truthful,
                None,
                10,
                seed.derive(id.name()).derive(family.name()),
            );
            let queries = pick_queries(task.len(), 12, seed);
            eucl_total += technique_scores(&task, &queries, &Technique::Euclidean)
                .f1
                .mean();
            uma_total += technique_scores(&task, &queries, &Technique::Uma(Uma::default()))
                .f1
                .mean();
            uema_total += technique_scores(&task, &queries, &Technique::Uema(Uema::default()))
                .f1
                .mean();
        }
        assert!(
            uma_total > eucl_total && uema_total > eucl_total,
            "{family}: UMA {uma_total} / UEMA {uema_total} must beat Euclidean {eucl_total}"
        );
    }
}

/// §6: per-dataset hardness follows the inter-series distance — the tight
/// datasets score lower than the loose ones under identical noise.
#[test]
fn claim_tight_datasets_are_harder() {
    let seed = Seed::new(26);
    let cat = Catalogue::new(seed);
    let spec = ErrorSpec::paper_mixed(ErrorFamily::Normal);
    let f1_of = |id: DatasetId| {
        let dataset = cat.generate_scaled(id, 36);
        let task = build_task(
            &dataset,
            &spec,
            ReportedError::Truthful,
            None,
            10,
            seed.derive(id.name()),
        );
        let queries = pick_queries(task.len(), 12, seed);
        technique_scores(&task, &queries, &Technique::Euclidean)
            .f1
            .mean()
    };
    let hard = (f1_of(DatasetId::OliveOil) + f1_of(DatasetId::Adiac)) / 2.0;
    let easy = (f1_of(DatasetId::FaceFour) + f1_of(DatasetId::OsuLeaf)) / 2.0;
    assert!(
        easy > hard + 0.05,
        "loose datasets ({easy}) must be clearly easier than tight ones ({hard})"
    );
}

/// §4.3 (Figure 11 ordering): Euclidean ≤ DUST ≤ PROUD in per-query cost,
/// and MUNICH is orders of magnitude above all three.
#[test]
fn claim_time_ordering() {
    use std::time::Instant;
    let seed = Seed::new(27);
    let dataset = Catalogue::new(seed).generate_scaled(DatasetId::Beef, 20);
    let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.5);
    let task = build_task(&dataset, &spec, ReportedError::Truthful, Some(5), 5, seed);
    let queries = pick_queries(task.len(), 5, seed);

    // Warm DUST tables first so we time the steady state.
    let dust = Technique::Dust(Dust::default());
    let _ = task.query_quality(0, &dust);

    let time_of = |t: &Technique| {
        let start = Instant::now();
        for &q in &queries {
            // One-shot: prepare and answer inside the timed loop, so each
            // technique's per-collection work is part of its query cost.
            let eps = task.calibrated_threshold(q, t);
            let _ = QueryEngine::prepare(&task, t).answer_set(q, eps);
        }
        start.elapsed().as_secs_f64()
    };
    let t_eucl = time_of(&Technique::Euclidean);
    let t_dust = time_of(&dust);
    let t_munich = time_of(&Technique::Munich {
        munich: Munich::new(MunichConfig {
            strategy: MunichStrategy::Convolution { bins: 2048 },
            ..MunichConfig::default()
        }),
        tau: 0.3,
    });
    // MUNICH is the claim that matters (orders of magnitude); the
    // Euclidean/DUST gap is small and can be noisy, so only sanity-check
    // it within a generous factor.
    assert!(
        t_munich > 5.0 * t_eucl.max(t_dust),
        "MUNICH ({t_munich:.4}s) must dwarf Euclidean ({t_eucl:.4}s) / DUST ({t_dust:.4}s)"
    );
}

/// §2.3: dust(x, x) = 0 — the reflexivity the constant k exists for.
#[test]
fn claim_dust_reflexivity_constant() {
    let dust = Dust::default();
    for family in ErrorFamily::ALL {
        for sigma in [0.2, 0.7, 1.5] {
            let e = PointError::new(family, sigma);
            assert!(
                dust.dust(e, e, 0.0) < 1e-9,
                "{family} σ={sigma}: dust(x,x) != 0"
            );
        }
    }
}
