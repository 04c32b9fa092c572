//! # uncertts — uncertain time-series similarity
//!
//! A comprehensive Rust reproduction of **"Uncertain Time-Series
//! Similarity: Return to the Basics"** (Dallachiesa, Nushi, Mirylenka,
//! Palpanas — PVLDB 5(11), 2012): the MUNICH, PROUD and DUST similarity
//! techniques for uncertain time series, the Euclidean baseline, the
//! paper's UMA/UEMA moving-average measures, the full
//! similarity-matching methodology (10-NN threshold calibration,
//! probabilistic range queries, precision/recall/F1), synthetic stand-ins
//! for the 17 UCR evaluation datasets, and an experiment harness that
//! regenerates every figure in the paper.
//!
//! This crate is a facade: it re-exports the workspace crates under a
//! single dependency. Use the individual `uts-*` crates directly if you
//! only need a subset.
//!
//! ## Quick start
//!
//! ```
//! use uncertts::prelude::*;
//!
//! // A clean series and an uncertain observation of it.
//! let clean = TimeSeries::from_values((0..64).map(|i| (i as f64 / 8.0).sin()));
//! let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.3);
//! let seed = Seed::new(7);
//! let noisy = perturb(&clean, &spec, seed);
//!
//! // Point-estimate Euclidean vs the DUST distance.
//! let other = perturb(&clean, &spec, seed.derive("second"));
//! let eucl = euclidean_distance(noisy.values(), other.values());
//! let dust = Dust::new(DustConfig::default());
//! let d = dust.distance(&noisy, &other);
//! assert!(eucl >= 0.0 && d >= 0.0);
//! ```
//!
//! See `examples/` for end-to-end scenarios, `repro --help` (crate
//! `uts-experiments`) for the experiment inventory, and
//! `docs/ARCHITECTURE.md` for the crate map and data flow.

#![warn(missing_docs)]

pub use uts_core as core;
pub use uts_datasets as datasets;
pub use uts_experiments as experiments;
pub use uts_stats as stats;
pub use uts_tseries as tseries;
pub use uts_uncertain as uncertain;

/// Convenience re-exports covering the common workflow: generate or load
/// series, perturb them, and run similarity measures / matching.
pub mod prelude {
    pub use uts_core::dust::{Dust, DustConfig};
    pub use uts_core::engine::QueryEngine;
    pub use uts_core::euclidean::euclidean_distance;
    pub use uts_core::index::{IndexConfig, IndexStats};
    pub use uts_core::matching::{MatchingTask, QualityScores, Technique, TechniqueKind};
    pub use uts_core::munich::{Munich, MunichConfig};
    pub use uts_core::proud::{Proud, ProudConfig};
    pub use uts_core::uma::{Uema, Uma};
    pub use uts_core::Collection;
    pub use uts_datasets::{Catalogue, DatasetId};
    pub use uts_stats::rng::Seed;
    pub use uts_tseries::TimeSeries;
    pub use uts_uncertain::{
        perturb, ErrorFamily, ErrorSpec, MultiObsSeries, PointError, UncertainSeries,
    };
}
