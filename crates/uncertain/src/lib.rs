//! Uncertainty models and perturbation workloads for the `uncertts`
//! workspace.
//!
//! The paper (§2) defines an uncertain time series as a sequence of random
//! variables, and surveys two concrete modelling families:
//!
//! 1. **Pdf-based** (PROUD, DUST): one observed value per timestamp plus a
//!    description of the error distribution — [`UncertainSeries`].
//! 2. **Multi-observation** (MUNICH): `s` repeated observations per
//!    timestamp, no distribution assumption — [`MultiObsSeries`].
//!
//! Uncertainty is *injected*, exactly as in the paper's evaluation
//! (§4.1.1): "we used existing time series datasets with exact values as
//! the ground truth, and subsequently introduced uncertainty through
//! perturbation", with uniform, normal and exponential zero-mean errors of
//! standard deviation σ ∈ [0.2, 2.0], plus the mixed-error configurations
//! of §4.2.3. The [`ErrorSpec`] type describes all of those workloads;
//! [`perturb()`] / [`perturb_multi`] realise them deterministically from a
//! [`Seed`](uts_stats::rng::Seed).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod error_model;
pub mod perturb;
pub mod series;
pub mod spec;

pub use error_model::{ErrorFamily, PointError};
pub use perturb::{perturb, perturb_multi, perturb_values};
pub use series::{MultiObsError, MultiObsSeries, UncertainSeries};
pub use spec::ErrorSpec;
