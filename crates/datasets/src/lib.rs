//! Synthetic stand-ins for the 17 UCR datasets used in the evaluation of
//! Dallachiesa et al. (VLDB 2012).
//!
//! The paper evaluates on "17 real datasets from the UCR classification
//! datasets collection": 50words, Adiac, Beef, CBF, Coffee, ECG200, FISH,
//! FaceAll, FaceFour, Gun Point, Lighting2, Lighting7, OSULeaf, OliveOil,
//! SwedishLeaf, Trace and synthetic control — "on average 502 time series
//! of length 290 per dataset" after joining train and test splits.
//!
//! The UCR archive is not redistributable here, so this crate generates
//! *structure-matched synthetic analogues*. Every analogue reproduces:
//!
//! * the catalogue metadata the paper's setup relies on — series count,
//!   length and class count per dataset ([`DatasetId::meta`]); the
//!   catalogue-wide averages land on the paper's 502 × 290;
//! * strong **temporal correlation** between neighbouring points (smooth
//!   class templates) — the property UMA/UEMA exploit and the
//!   independence-assuming techniques ignore;
//! * per-dataset **inter-series distance spread** — the paper observes
//!   that datasets whose series lie close together (Adiac, SwedishLeaf)
//!   are hard for every technique, while well-separated ones (FaceFour,
//!   OSULeaf) are easy (§6). [`Spread`] is an explicit generator knob and
//!   the per-dataset assignments mirror that observation.
//!
//! CBF and synthetic control use the classical published generator
//! definitions; GunPoint/ECG200/Trace use shape-specific generators; the
//! remaining datasets use the generic smooth-template machinery in
//! [`generator`]. Everything is deterministic from a
//! [`Seed`](uts_stats::rng::Seed).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod catalogue;
pub mod generator;
pub mod meta;
pub mod special;

pub use catalogue::{Catalogue, Dataset};
pub use meta::{DatasetId, DatasetMeta, Spread};
