//! Time-series substrate for the `uncertts` workspace.
//!
//! Plain (certain) time-series machinery that the uncertain-similarity
//! techniques of Dallachiesa et al. (VLDB 2012) are built on:
//!
//! * [`series`] — the [`TimeSeries`] value type with z-normalisation
//!   (the paper assumes "normalized time series with zero mean and unit
//!   variance", §2) and basic statistics.
//! * [`resample`] — linear-interpolation resampling; the paper's Figure 12
//!   obtains series of length 50–1000 by "resampling the raw sequences".
//! * [`filters`] — moving average and exponential moving average
//!   (paper Eq. 15–16), the certain ancestors of UMA/UEMA.
//! * [`distance`] — Lp norms and Euclidean distance (paper Eq. 1 context).
//! * [`dtw()`] — Dynamic Time Warping with an optional Sakoe–Chiba band and
//!   a pluggable local cost, so DUST and MUNICH variants can reuse it
//!   (paper §3.2 notes MUNICH and DUST extend to DTW).
//! * [`haar`] — orthonormal Haar wavelet transform; PROUD can run on top
//!   of a Haar synopsis (paper §4.3).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod distance;
pub mod dtw;
pub mod filters;
pub mod haar;
pub mod paa;
pub mod resample;
pub mod sax;
pub mod series;

pub use distance::{
    chebyshev, euclidean, euclidean_squared, euclidean_squared_early_abandon, lp_distance,
    manhattan, squared_cutoff, squared_cutoff_strict,
};
pub use dtw::{dtw, dtw_with_cost, DtwOptions, DtwWorkspace};
pub use filters::{exponential_moving_average, moving_average};
pub use haar::{haar_forward, haar_inverse, HaarSynopsis};
pub use paa::{paa, PaaSynopsis};
pub use resample::resample_linear;
pub use sax::{sax_breakpoints, SaxWord};
pub use series::TimeSeries;
