//! The dataset catalogue metadata.
//!
//! Counts, lengths and class numbers follow the public UCR archive
//! metadata for the 17 datasets the paper uses (train and test splits
//! joined, as in §4.1.1). The catalogue averages reproduce the paper's
//! "on average 502 time series of length 290 per dataset".

/// Identifier of one of the paper's 17 evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)] // variant names are the dataset names
pub enum DatasetId {
    FiftyWords,
    Adiac,
    Beef,
    Cbf,
    Coffee,
    Ecg200,
    Fish,
    FaceAll,
    FaceFour,
    GunPoint,
    Lighting2,
    Lighting7,
    OsuLeaf,
    OliveOil,
    SwedishLeaf,
    Trace,
    SyntheticControl,
}

/// How tightly a dataset's series cluster together — the property the
/// paper identifies as the main driver of per-dataset accuracy (§6):
/// low average inter-series distance ⇒ uncertainty swamps the signal ⇒
/// low F1 for every technique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Spread {
    /// Series lie close together (hard: e.g. Adiac, SwedishLeaf).
    Tight,
    /// Intermediate separation.
    Medium,
    /// Well-separated series (easy: e.g. FaceFour, OSULeaf).
    Loose,
}

impl Spread {
    /// Scale factor applied to between-class template differences and
    /// within-class jitter amplitude.
    pub(crate) fn class_separation(self) -> f64 {
        match self {
            Spread::Tight => 0.25,
            Spread::Medium => 0.9,
            Spread::Loose => 2.2,
        }
    }
}

/// Static description of one dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetMeta {
    /// Dataset identifier.
    pub id: DatasetId,
    /// Canonical UCR-style display name (as printed in the paper's
    /// figures).
    pub name: &'static str,
    /// Number of series (train + test joined).
    pub n_series: usize,
    /// Series length.
    pub length: usize,
    /// Number of classes.
    pub n_classes: usize,
    /// Inter-series distance regime.
    pub spread: Spread,
}

/// The full catalogue, in the order the paper's per-dataset figures use.
pub const ALL_DATASETS: [DatasetMeta; 17] = [
    DatasetMeta {
        id: DatasetId::FiftyWords,
        name: "50words",
        n_series: 905,
        length: 270,
        n_classes: 50,
        spread: Spread::Medium,
    },
    DatasetMeta {
        id: DatasetId::Adiac,
        name: "Adiac",
        n_series: 781,
        length: 176,
        n_classes: 37,
        spread: Spread::Tight,
    },
    DatasetMeta {
        id: DatasetId::Beef,
        name: "Beef",
        n_series: 60,
        length: 470,
        n_classes: 5,
        spread: Spread::Medium,
    },
    DatasetMeta {
        id: DatasetId::Cbf,
        name: "CBF",
        n_series: 930,
        length: 128,
        n_classes: 3,
        spread: Spread::Medium,
    },
    DatasetMeta {
        id: DatasetId::Coffee,
        name: "Coffee",
        n_series: 56,
        length: 286,
        n_classes: 2,
        spread: Spread::Medium,
    },
    DatasetMeta {
        id: DatasetId::Ecg200,
        name: "ECG200",
        n_series: 200,
        length: 96,
        n_classes: 2,
        spread: Spread::Medium,
    },
    DatasetMeta {
        id: DatasetId::Fish,
        name: "FISH",
        n_series: 350,
        length: 463,
        n_classes: 7,
        spread: Spread::Medium,
    },
    DatasetMeta {
        id: DatasetId::FaceAll,
        name: "FaceAll",
        n_series: 2250,
        length: 131,
        n_classes: 14,
        spread: Spread::Medium,
    },
    DatasetMeta {
        id: DatasetId::FaceFour,
        name: "FaceFour",
        n_series: 112,
        length: 350,
        n_classes: 4,
        spread: Spread::Loose,
    },
    DatasetMeta {
        id: DatasetId::GunPoint,
        name: "GunPoint",
        n_series: 200,
        length: 150,
        n_classes: 2,
        spread: Spread::Medium,
    },
    DatasetMeta {
        id: DatasetId::Lighting2,
        name: "Lighting2",
        n_series: 121,
        length: 637,
        n_classes: 2,
        spread: Spread::Medium,
    },
    DatasetMeta {
        id: DatasetId::Lighting7,
        name: "Lighting7",
        n_series: 143,
        length: 319,
        n_classes: 7,
        spread: Spread::Medium,
    },
    DatasetMeta {
        id: DatasetId::OsuLeaf,
        name: "OSULeaf",
        n_series: 442,
        length: 427,
        n_classes: 6,
        spread: Spread::Loose,
    },
    DatasetMeta {
        id: DatasetId::OliveOil,
        name: "OliveOil",
        n_series: 60,
        length: 570,
        n_classes: 4,
        spread: Spread::Tight,
    },
    DatasetMeta {
        id: DatasetId::SwedishLeaf,
        name: "SwedishLeaf",
        n_series: 1125,
        length: 128,
        n_classes: 15,
        spread: Spread::Tight,
    },
    DatasetMeta {
        id: DatasetId::Trace,
        name: "Trace",
        n_series: 200,
        length: 275,
        n_classes: 4,
        spread: Spread::Loose,
    },
    DatasetMeta {
        id: DatasetId::SyntheticControl,
        name: "syntheticControl",
        n_series: 600,
        length: 60,
        n_classes: 6,
        spread: Spread::Medium,
    },
];

impl DatasetId {
    /// All dataset ids in catalogue order.
    pub fn all() -> impl Iterator<Item = DatasetId> {
        ALL_DATASETS.iter().map(|m| m.id)
    }

    /// Metadata for this dataset.
    pub fn meta(self) -> &'static DatasetMeta {
        ALL_DATASETS
            .iter()
            .find(|m| m.id == self)
            .expect("every id appears in ALL_DATASETS")
    }

    /// Canonical display name.
    pub fn name(self) -> &'static str {
        self.meta().name
    }

    /// Parses a UCR-style name (case-insensitive).
    pub fn from_name(name: &str) -> Option<DatasetId> {
        let lower = name.to_ascii_lowercase();
        ALL_DATASETS
            .iter()
            .find(|m| m.name.to_ascii_lowercase() == lower)
            .map(|m| m.id)
    }
}

impl std::fmt::Display for DatasetId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn catalogue_matches_paper_averages() {
        let n: usize = ALL_DATASETS.iter().map(|m| m.n_series).sum();
        let len: usize = ALL_DATASETS.iter().map(|m| m.length).sum();
        let avg_n = n as f64 / 17.0;
        let avg_len = len as f64 / 17.0;
        // Paper §4.1.1: "on average 502 time series of length 290".
        assert!((avg_n - 502.0).abs() < 1.0, "avg series count {avg_n}");
        assert!((avg_len - 290.0).abs() < 1.0, "avg length {avg_len}");
    }

    #[test]
    fn seventeen_unique_datasets() {
        assert_eq!(ALL_DATASETS.len(), 17);
        let mut ids: Vec<DatasetId> = DatasetId::all().collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), 17);
    }

    #[test]
    fn name_round_trip() {
        for meta in &ALL_DATASETS {
            assert_eq!(DatasetId::from_name(meta.name), Some(meta.id));
            assert_eq!(meta.id.name(), meta.name);
            assert_eq!(meta.id.to_string(), meta.name);
        }
        assert_eq!(DatasetId::from_name("gunpoint"), Some(DatasetId::GunPoint));
        assert_eq!(DatasetId::from_name("nope"), None);
    }

    #[test]
    fn hardness_assignments_follow_the_paper() {
        // §6 explicitly calls out these four.
        assert_eq!(DatasetId::Adiac.meta().spread, Spread::Tight);
        assert_eq!(DatasetId::SwedishLeaf.meta().spread, Spread::Tight);
        assert_eq!(DatasetId::FaceFour.meta().spread, Spread::Loose);
        assert_eq!(DatasetId::OsuLeaf.meta().spread, Spread::Loose);
    }

    #[test]
    fn classes_dont_exceed_series() {
        for meta in &ALL_DATASETS {
            assert!(meta.n_classes >= 2);
            assert!(meta.n_series >= meta.n_classes * 2, "{}", meta.name);
        }
    }
}
