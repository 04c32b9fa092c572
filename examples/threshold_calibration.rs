//! Threshold calibration — the paper's §4.1.2 methodology, step by step.
//!
//! ```sh
//! cargo run --release --example threshold_calibration
//! ```
//!
//! The subtle part of comparing MUNICH/PROUD (probabilistic range
//! queries) against DUST/Euclidean (plain distances) is making the
//! thresholds *equivalent*. The paper's recipe, reproduced verbatim here:
//!
//! 1. find the query's 10th nearest neighbour `c` among the clean series;
//! 2. ε_eucl  := Euclidean distance between the *observed* q and c;
//! 3. ε_dust  := DUST distance between the observed q and c;
//! 4. ground truth := the 10 clean NNs; every technique is scored on it.

use uncertts::core::dust::Dust;
use uncertts::core::engine::QueryEngine;
use uncertts::core::matching::{MatchingTask, Technique};
use uncertts::core::proud::{Proud, ProudConfig};
use uncertts::datasets::{Catalogue, DatasetId};
use uncertts::stats::rng::Seed;
use uncertts::uncertain::{perturb, ErrorFamily, ErrorSpec};

fn main() {
    let seed = Seed::new(99);
    let sigma = 0.8;

    let dataset = Catalogue::new(seed).generate_scaled(DatasetId::SwedishLeaf, 50);
    let spec = ErrorSpec::constant(ErrorFamily::Normal, sigma);
    let uncertain: Vec<_> = dataset
        .series
        .iter()
        .enumerate()
        .map(|(i, s)| perturb(s, &spec, seed.derive_u64(i as u64)))
        .collect();
    let task = MatchingTask::new(dataset.series.clone(), uncertain, None, 10);

    let q = 3;
    println!(
        "query: series #{q} of {} ({} dataset, σ = {sigma})\n",
        task.len(),
        dataset.meta.name
    );

    // Step 1-2: ground truth and the anchor c.
    let gt = task.ground_truth(q);
    println!("10 clean nearest neighbours : {:?}", gt.neighbors);
    println!("threshold anchor c          : #{}", gt.anchor);
    println!("clean distance to c         : {:.4}", gt.clean_distance);

    // Step 3: per-technique equivalent thresholds.
    let dust = Technique::Dust(Dust::default());
    let eps_eucl = task.calibrated_threshold(q, &Technique::Euclidean);
    let eps_dust = task.calibrated_threshold(q, &dust);
    println!("\nε_eucl (observed q ↔ c)     : {eps_eucl:.4}");
    println!("ε_dust (observed q ↔ c)     : {eps_dust:.4}");
    println!(
        "  note: different scales — each technique is thresholded in its\n\
         own space, which is what makes the comparison fair."
    );

    // Step 4: answers and scores.
    let proud = Technique::Proud {
        proud: Proud::new(ProudConfig::with_sigma(sigma)),
        tau: 0.3,
    };
    println!(
        "\n{:>10}  {:>7}  {:>9}  {:>7}  {:>6}",
        "technique", "|answer|", "precision", "recall", "F1"
    );
    for (name, technique) in [
        ("Euclidean", &Technique::Euclidean),
        ("DUST", &dust),
        ("PROUD", &proud),
    ] {
        let engine = QueryEngine::prepare(&task, technique);
        let eps = task.calibrated_threshold(q, technique);
        let answer = engine.answer_set(q, eps);
        let scores = engine.query_quality(q);
        println!(
            "{name:>10}  {:>7}  {:>9.3}  {:>7.3}  {:>6.3}",
            answer.len(),
            scores.precision,
            scores.recall,
            scores.f1
        );
    }

    // Bonus: how τ moves PROUD along the precision/recall curve.
    println!("\nPROUD precision/recall as τ varies (same ε):");
    println!(
        "{:>6}  {:>7}  {:>9}  {:>7}  {:>6}",
        "τ", "|answer|", "precision", "recall", "F1"
    );
    for tau in [0.05, 0.2, 0.4, 0.6, 0.8, 0.95] {
        let t = proud.with_tau(tau);
        let engine = QueryEngine::prepare(&task, &t);
        let eps = task.calibrated_threshold(q, &t);
        let answer = engine.answer_set(q, eps);
        let s = engine.query_quality(q);
        println!(
            "{tau:>6.2}  {:>7}  {:>9.3}  {:>7.3}  {:>6.3}",
            answer.len(),
            s.precision,
            s.recall,
            s.f1
        );
    }
    println!(
        "\nRaising τ shrinks the answer set: precision rises, recall falls —\n\
         the trade-off behind the paper's \"optimal τ\" grid search."
    );
}
