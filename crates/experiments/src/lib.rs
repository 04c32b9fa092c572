//! Experiment harness regenerating every figure of Dallachiesa et al.
//! (VLDB 2012).
//!
//! One module per experiment (grouped where the paper groups them), plus
//! shared machinery:
//!
//! * [`config`] — run configuration and the three scale presets
//!   (`quick` / `paper-shape` / `full`).
//! * [`table`] — result tables: aligned console output + CSV files.
//! * [`runner`] — the workload builder (dataset → perturbed task) and the
//!   parallel query-evaluation loop (`parallel_map` on uts-core's worker
//!   pool).
//! * [`figures`] — the per-figure experiment drivers; `repro --help`
//!   lists them figure by figure.
//!
//! The `repro` binary exposes each experiment as a subcommand
//! (`repro fig4 … repro fig17`, `repro chisq`, `repro all`).

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod figures;
pub mod runner;
pub mod table;

pub use config::{ExpConfig, Scale};
pub use table::Table;
