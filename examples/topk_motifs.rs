//! Top-k search and motif discovery with DUST.
//!
//! ```sh
//! cargo run --release --example topk_motifs
//! ```
//!
//! DUST — unlike MUNICH and PROUD — "is a real number that measures the
//! dissimilarity between uncertain time series. Thus, it can be used in
//! all mining techniques for certain time series" (paper §2.3), including
//! top-k nearest-neighbour queries and top-k motif search (§3.3). This
//! example runs both over an uncertain ECG-like collection, and shows
//! DUST-DTW handling phase-shifted beats where aligned distances fail.

use uncertts::core::dust::{Dust, DustConfig};
use uncertts::core::engine::QueryEngine;
use uncertts::core::matching::Technique;
use uncertts::core::Collection;
use uncertts::datasets::{Catalogue, DatasetId};
use uncertts::stats::rng::Seed;
use uncertts::tseries::DtwOptions;
use uncertts::uncertain::{perturb, ErrorFamily, ErrorSpec};

fn main() {
    let seed = Seed::new(17);
    let dataset = Catalogue::new(seed).generate_scaled(DatasetId::Ecg200, 60);
    let spec = ErrorSpec::paper_mixed(ErrorFamily::Normal);
    let observed: Vec<_> = dataset
        .series
        .iter()
        .enumerate()
        .map(|(i, s)| perturb(s, &spec, seed.derive_u64(i as u64)))
        .collect();

    let dust = Dust::new(DustConfig::default());

    // --- top-k nearest neighbours -------------------------------------
    // Prepared once (DUST lookup tables warmed for the collection's
    // errors); the query is a member, excluded from its own answer.
    let collection = Collection::try_new(observed, None).expect("no multi-observation rows");
    let engine = QueryEngine::prepare(&collection, &Technique::Dust(dust.clone()));
    let q = 0;
    let top = engine.top_k(q, 5).expect("DUST ranks by distance");
    println!(
        "top-5 DUST neighbours of series #{q} (class {}):",
        dataset.labels[q]
    );
    for (rank, &(i, d)) in top.iter().enumerate() {
        println!(
            "  #{:<2} series {i:>2}  dust {d:>7.3}  class {}",
            rank + 1,
            dataset.labels[i]
        );
    }

    // --- top-k motifs ---------------------------------------------------
    // The motif pairs: the most similar series in the collection, from
    // the same prepared engine's per-member top-k lists.
    println!("\ntop-3 motif pairs under DUST:");
    let motifs = engine.top_k_motifs(3).expect("DUST ranks by distance");
    for (i, j, d) in motifs {
        println!(
            "  ({i:>2}, {j:>2})  dust {d:>7.3}  classes ({}, {})",
            dataset.labels[i], dataset.labels[j]
        );
    }

    // --- DUST as a DTW local cost ----------------------------------------
    // Build a phase-shifted copy of a beat train: aligned DUST sees a large
    // distance, DUST-DTW absorbs the shift (paper §3.2: DUST "can be
    // employed to compute the Dynamic Time Warping distance").
    let original = &collection.uncertain()[1];
    let shift = 6;
    let shifted = {
        let mut values: Vec<f64> = original.values()[shift..].to_vec();
        values.extend_from_slice(&original.values()[..shift]);
        let errors = original.errors().to_vec();
        uncertts::uncertain::UncertainSeries::new(values, errors)
    };
    let aligned = dust.distance(original, &shifted);
    let warped = dust.dtw_distance(original, &shifted, DtwOptions::with_band(12));
    println!(
        "\nphase-shifted beat train: aligned DUST = {aligned:.3}, DUST-DTW = {warped:.3}\n\
         (warping absorbs the {shift}-sample shift; the band keeps it O(n·band))"
    );
}
