//! Run configuration and scale presets.

use uts_stats::rng::Seed;

/// How much of the paper-scale workload to run.
///
/// The paper evaluates 17 datasets with on average 502 series of length
/// 290, using *every* series as a query — far more compute than a figure
/// regeneration needs. The presets trade completeness for wall-clock:
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke-test scale: few series, few queries, coarse σ grid.
    /// Whole-suite runtime: seconds-to-minutes.
    Quick,
    /// Default: enough series/queries per dataset for stable technique
    /// ordering, full σ grid — reproduces the *shape* of every figure.
    PaperShape,
    /// Full catalogue scale: every series, every query, as in the paper.
    /// Hours of compute; use for final verification.
    Full,
}

impl Scale {
    /// Parses the CLI spelling.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "paper-shape" | "paper" | "default" => Some(Scale::PaperShape),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::PaperShape => "paper-shape",
            Scale::Full => "full",
        }
    }

    /// Maximum series kept per dataset (stratified subsample).
    pub fn max_series(self) -> usize {
        match self {
            Scale::Quick => 24,
            Scale::PaperShape => 60,
            Scale::Full => usize::MAX,
        }
    }

    /// Number of queries evaluated per dataset (`usize::MAX` = every
    /// series, the paper's setup).
    pub fn queries_per_dataset(self) -> usize {
        match self {
            Scale::Quick => 8,
            Scale::PaperShape => 20,
            Scale::Full => usize::MAX,
        }
    }

    /// The error-σ sweep grid (paper: 0.2 … 2.0).
    pub fn sigma_grid(self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![0.2, 0.6, 1.0, 1.4, 1.8],
            _ => (1..=10).map(|i| i as f64 * 0.2).collect(),
        }
    }

    /// τ grid for the optimal-threshold search of MUNICH/PROUD (see
    /// `uts_core::matching::default_tau_grid` for why it reaches far
    /// below the linear range).
    pub fn tau_grid(self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![1e-30, 1e-15, 1e-7, 1e-3, 0.1, 0.3, 0.5, 0.7, 0.9],
            _ => uts_core::matching::default_tau_grid(),
        }
    }
}

/// Configuration shared by all experiments.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Root seed: the entire experiment suite is deterministic in it.
    pub seed: Seed,
    /// Workload scale preset.
    pub scale: Scale,
    /// Directory for CSV outputs (created on demand).
    pub out_dir: std::path::PathBuf,
    /// Ground-truth neighbourhood size (paper: 10).
    pub ground_truth_k: usize,
    /// MUNICH repeated observations per timestamp (paper Figure 4: 5).
    pub munich_samples: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            seed: Seed::new(20120827), // the paper's conference start date
            scale: Scale::PaperShape,
            out_dir: std::path::PathBuf::from("results"),
            ground_truth_k: 10,
            munich_samples: 5,
        }
    }
}

impl ExpConfig {
    /// Config with a given scale, defaults elsewhere.
    pub fn with_scale(scale: Scale) -> Self {
        Self {
            scale,
            ..Self::default()
        }
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn scale_parsing_round_trip() {
        for s in [Scale::Quick, Scale::PaperShape, Scale::Full] {
            assert_eq!(Scale::parse(s.name()), Some(s));
        }
        assert_eq!(Scale::parse("paper"), Some(Scale::PaperShape));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn sigma_grid_spans_paper_range() {
        for s in [Scale::Quick, Scale::PaperShape, Scale::Full] {
            let grid = s.sigma_grid();
            assert!((grid[0] - 0.2).abs() < 1e-12);
            assert!((grid.last().unwrap() - 1.8).abs() < 0.21, "{grid:?}");
            assert!(grid.windows(2).all(|w| w[1] > w[0]));
        }
        assert_eq!(Scale::PaperShape.sigma_grid().len(), 10);
    }

    #[test]
    fn default_config_matches_paper_constants() {
        let c = ExpConfig::default();
        assert_eq!(c.ground_truth_k, 10);
        assert_eq!(c.munich_samples, 5);
        assert_eq!(c.scale, Scale::PaperShape);
    }
}
