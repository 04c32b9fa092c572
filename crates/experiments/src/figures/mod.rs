//! Per-figure experiment drivers.
//!
//! One module per figure (grouped where the paper groups them); each
//! exposes `run(&ExpConfig) -> Vec<Table>`. The `repro` binary's usage
//! text maps each subcommand to its paper figure.

pub mod chisq;
pub mod dataset_stats;
pub mod extensions;
pub mod fig04;
pub mod fig05;
pub mod fig06_07;
pub mod fig08_10;
pub mod fig11;
pub mod fig12;
pub mod fig13_14;
pub mod fig15_17;

use uts_core::dust::Dust;
use uts_core::matching::Technique;
use uts_core::proud::{Proud, ProudConfig};
use uts_core::uma::{Uema, Uma};
use uts_datasets::{Catalogue, Dataset};

use crate::config::ExpConfig;

/// Generates the (scaled) 17-dataset suite for a config.
pub fn datasets(config: &ExpConfig) -> Vec<Dataset> {
    let cat = Catalogue::new(config.seed.derive("catalogue"));
    uts_datasets::DatasetId::all()
        .map(|id| cat.generate_scaled(id, config.scale.max_series()))
        .collect()
}

/// The Euclidean baseline technique.
pub fn euclidean() -> Technique {
    Technique::Euclidean
}

/// DUST with default tables (shared cache across the whole experiment).
pub fn dust() -> Technique {
    Technique::Dust(Dust::default())
}

/// PROUD told the (single) error σ; τ is a placeholder replaced by the
/// optimal-τ search.
pub fn proud_with_sigma(sigma: f64) -> Technique {
    Technique::Proud {
        proud: Proud::new(ProudConfig::with_sigma(sigma)),
        tau: 0.5,
    }
}

/// MUNICH with default (Auto) strategy; τ placeholder as above.
pub fn munich() -> Technique {
    Technique::Munich {
        munich: uts_core::munich::Munich::default(),
        tau: 0.5,
    }
}

/// UMA at the paper's §5.2 setting (w = 2).
pub fn uma_default() -> Technique {
    Technique::Uma(Uma::default())
}

/// UEMA at the paper's §5.2 setting (w = 2, λ = 1).
pub fn uema_default() -> Technique {
    Technique::Uema(Uema::default())
}
