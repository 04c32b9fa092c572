//! Distance-generic queries over uncertain series that the batched
//! engine has no equivalent for.
//!
//! Range, top-k and probabilistic range queries (paper §2, Eqs. 1–2) run
//! through [`crate::engine::QueryEngine`], which prepares the collection
//! once and prunes with admissible bounds. This module keeps what sits
//! outside that collection model: [`UncertainDistance`], the plain
//! distance interface, and the two queries generic over it —
//! [`SubsequenceScan`] (a pattern slid over one long stream) and
//! [`TopKMotifs`] (the closest *pairs* within a collection, the top-k
//! motif search DUST supports, paper §3.3).

use crate::dust::Dust;
use crate::uma::{Uema, Uma};
use uts_tseries::distance::euclidean;
use uts_uncertain::UncertainSeries;

/// A distance measure over pdf-model uncertain series that yields a plain
/// real number — the interface subsequence and motif queries are generic
/// over.
pub trait UncertainDistance {
    /// The distance between two equal-length uncertain series.
    fn distance(&self, x: &UncertainSeries, y: &UncertainSeries) -> f64;

    /// Short display name.
    fn name(&self) -> &'static str;
}

/// Euclidean on observed values as an [`UncertainDistance`].
#[derive(Debug, Clone, Copy, Default)]
pub struct EuclideanMeasure;

impl UncertainDistance for EuclideanMeasure {
    fn distance(&self, x: &UncertainSeries, y: &UncertainSeries) -> f64 {
        euclidean(x.values(), y.values())
    }

    fn name(&self) -> &'static str {
        "Euclidean"
    }
}

impl UncertainDistance for Dust {
    fn distance(&self, x: &UncertainSeries, y: &UncertainSeries) -> f64 {
        Dust::distance(self, x, y)
    }

    fn name(&self) -> &'static str {
        "DUST"
    }
}

impl UncertainDistance for Uma {
    fn distance(&self, x: &UncertainSeries, y: &UncertainSeries) -> f64 {
        Uma::distance(self, x, y)
    }

    fn name(&self) -> &'static str {
        "UMA"
    }
}

impl UncertainDistance for Uema {
    fn distance(&self, x: &UncertainSeries, y: &UncertainSeries) -> f64 {
        Uema::distance(self, x, y)
    }

    fn name(&self) -> &'static str {
        "UEMA"
    }
}

/// Subsequence scan: slides a pattern over a longer uncertain stream and
/// reports every window within ε (the paper's refs [10, 18, 19] cover
/// subsequence matching for certain series; this is the uncertain-model
/// lift, usable with any [`UncertainDistance`]).
#[derive(Debug, Clone, Copy)]
pub struct SubsequenceScan {
    /// Distance threshold ε.
    pub epsilon: f64,
    /// Hop between consecutive windows (1 = every offset).
    pub stride: usize,
}

impl SubsequenceScan {
    /// Creates a scan; panics on negative ε or zero stride.
    pub fn new(epsilon: f64, stride: usize) -> Self {
        assert!(epsilon >= 0.0, "ε must be non-negative");
        assert!(stride > 0, "stride must be positive");
        Self { epsilon, stride }
    }

    /// Evaluates the scan: `(offset, distance)` for every window of
    /// `stream` (length = `pattern.len()`) whose distance to `pattern`
    /// is within ε, in offset order.
    ///
    /// # Panics
    /// If the pattern is empty or longer than the stream.
    pub fn evaluate<M: UncertainDistance>(
        &self,
        pattern: &UncertainSeries,
        stream: &UncertainSeries,
        measure: &M,
    ) -> Vec<(usize, f64)> {
        let m = pattern.len();
        assert!(m > 0, "pattern must be non-empty");
        assert!(
            m <= stream.len(),
            "pattern ({m}) longer than stream ({})",
            stream.len()
        );
        let mut out = Vec::new();
        let mut offset = 0;
        while offset + m <= stream.len() {
            let window = UncertainSeries::new(
                stream.values()[offset..offset + m].to_vec(),
                stream.errors()[offset..offset + m].to_vec(),
            );
            let d = measure.distance(pattern, &window);
            if d <= self.epsilon {
                out.push((offset, d));
            }
            offset += self.stride;
        }
        out
    }
}

/// Top-k motif query: the `k` most similar *pairs* in a collection under
/// any [`UncertainDistance`] (paper §3.3 lists "top-k motif search" among
/// the queries DUST supports).
#[derive(Debug, Clone, Copy)]
pub struct TopKMotifs {
    /// Number of motif pairs to return.
    pub k: usize,
}

impl TopKMotifs {
    /// Creates a motif query; panics when `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        Self { k }
    }

    /// Evaluates the query by exhaustive pair scan (the classical motif
    /// definition): the `k` closest pairs `(i, j, distance)`, `i < j`,
    /// sorted ascending by distance. O(n²) distance evaluations.
    pub fn evaluate<M: UncertainDistance>(
        &self,
        collection: &[UncertainSeries],
        measure: &M,
    ) -> Vec<(usize, usize, f64)> {
        let mut pairs = Vec::with_capacity(collection.len().saturating_mul(collection.len()) / 2);
        for i in 0..collection.len() {
            for j in (i + 1)..collection.len() {
                pairs.push((i, j, measure.distance(&collection[i], &collection[j])));
            }
        }
        pairs.sort_by(|a, b| {
            a.2.partial_cmp(&b.2)
                .expect("finite distances")
                .then(a.0.cmp(&b.0))
                .then(a.1.cmp(&b.1))
        });
        pairs.truncate(self.k);
        pairs
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use uts_stats::rng::Seed;
    use uts_tseries::TimeSeries;
    use uts_uncertain::{perturb, ErrorFamily, ErrorSpec};

    fn collection(n: usize, len: usize) -> (UncertainSeries, Vec<UncertainSeries>) {
        let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.2);
        let seed = Seed::new(17);
        let mk = |i: usize| {
            let clean = TimeSeries::from_values(
                (0..len).map(|t| ((t as f64 / 4.0) + i as f64 * 0.5).sin()),
            );
            perturb(&clean, &spec, seed.derive_u64(i as u64))
        };
        (mk(0), (0..n).map(mk).collect())
    }

    #[test]
    fn all_measures_have_zero_self_distance() {
        let (q, coll) = collection(6, 16);
        for measure in [
            Box::new(EuclideanMeasure) as Box<dyn UncertainDistance>,
            Box::new(Dust::default()),
            Box::new(Uma::default()),
            Box::new(Uema::default()),
        ] {
            let d0 = measure.distance(&q, &coll[0]);
            assert!(d0 < 1e-9, "{}: self-distance {d0}", measure.name());
        }
    }

    #[test]
    fn motifs_find_closest_pair() {
        let (_, mut coll) = collection(6, 16);
        // Plant a near-duplicate pair: copy series 2 with its own errors.
        coll.push(UncertainSeries::new(
            coll[2].values().to_vec(),
            coll[2].errors().to_vec(),
        ));
        let motifs = TopKMotifs::new(3).evaluate(&coll, &EuclideanMeasure);
        assert_eq!(motifs.len(), 3);
        // The planted duplicate pair (2, 6) must rank first at distance 0.
        assert_eq!((motifs[0].0, motifs[0].1), (2, 6));
        assert!(motifs[0].2 < 1e-12);
        // Sorted ascending.
        assert!(motifs.windows(2).all(|w| w[0].2 <= w[1].2));
    }

    #[test]
    fn motifs_truncate_to_available_pairs() {
        let (_, coll) = collection(3, 8);
        let motifs = TopKMotifs::new(100).evaluate(&coll, &EuclideanMeasure);
        assert_eq!(motifs.len(), 3); // C(3,2)
    }

    #[test]
    fn subsequence_scan_finds_planted_pattern() {
        use uts_uncertain::{ErrorFamily, PointError};
        let e = PointError::new(ErrorFamily::Normal, 0.1);
        // A stream of zeros with the pattern planted at offset 7.
        let pattern_vals = vec![1.0, 2.0, 3.0, 2.0];
        let mut stream_vals = vec![0.0; 20];
        stream_vals[7..11].copy_from_slice(&pattern_vals);
        let pattern = UncertainSeries::new(pattern_vals, vec![e; 4]);
        let stream = UncertainSeries::new(stream_vals, vec![e; 20]);
        let hits = SubsequenceScan::new(0.5, 1).evaluate(&pattern, &stream, &EuclideanMeasure);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, 7);
        assert!(hits[0].1 < 1e-12);
        // Stride skipping the plant misses it.
        let hits = SubsequenceScan::new(0.5, 6).evaluate(&pattern, &stream, &EuclideanMeasure);
        assert!(hits.is_empty());
        // Huge ε matches every window.
        let hits = SubsequenceScan::new(1e9, 1).evaluate(&pattern, &stream, &EuclideanMeasure);
        assert_eq!(hits.len(), 17); // 20 − 4 + 1
    }

    #[test]
    #[should_panic(expected = "longer than stream")]
    fn subsequence_pattern_too_long_panics() {
        use uts_uncertain::{ErrorFamily, PointError};
        let e = PointError::new(ErrorFamily::Normal, 0.1);
        let pattern = UncertainSeries::new(vec![0.0; 5], vec![e; 5]);
        let stream = UncertainSeries::new(vec![0.0; 3], vec![e; 3]);
        let _ = SubsequenceScan::new(1.0, 1).evaluate(&pattern, &stream, &EuclideanMeasure);
    }
}
