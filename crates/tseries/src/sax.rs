//! SAX — Symbolic Aggregate approXimation (Lin, Keogh, Wei, Lonardi,
//! DMKD 2007 — the paper's ref. \[16\]; its indexed descendant iSAX is
//! ref. \[24\]).
//!
//! SAX discretises a z-normalised series in two steps: PAA reduction to
//! `w` segments ([`mod@crate::paa`]), then quantisation of each segment
//! mean
//! into one of `a` symbols using breakpoints that make the symbols
//! equiprobable under the standard normal distribution (z-normalised
//! series are approximately Gaussian pointwise). The symbolic distance
//! `MINDIST` lower-bounds the true Euclidean distance, so SAX words
//! support no-false-dismissal filtering like the Haar and PAA synopses —
//! at a fraction of the storage (a few bits per segment).
//!
//! The breakpoints come from this workspace's own `Φ⁻¹`
//! ([`uts_stats::dist::Normal::phi_inv`]) rather than the usual hardcoded
//! table, so any alphabet size works.

use uts_stats::dist::Normal;

use crate::paa::paa;

/// A SAX word: the symbolic representation of one series.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SaxWord {
    symbols: Vec<u8>,
    alphabet: u8,
    original_len: usize,
}

/// Equiprobable standard-normal breakpoints for an alphabet of size `a`:
/// the `a − 1` values `Φ⁻¹(1/a), Φ⁻¹(2/a), …`.
///
/// # Panics
/// If `a < 2` (a one-symbol alphabet carries no information).
pub fn sax_breakpoints(a: u8) -> Vec<f64> {
    assert!(a >= 2, "SAX alphabet must have at least two symbols");
    (1..a)
        .map(|i| Normal::phi_inv(i as f64 / a as f64))
        .collect()
}

impl SaxWord {
    /// Encodes a (z-normalised) series as a `segments`-symbol word over
    /// an `alphabet`-letter alphabet.
    ///
    /// # Panics
    /// Propagates [`paa`]'s input requirements; requires `alphabet ≥ 2`.
    pub fn encode(values: &[f64], segments: usize, alphabet: u8) -> Self {
        let breakpoints = sax_breakpoints(alphabet);
        let means = paa(values, segments);
        let symbols = means
            .iter()
            .map(|&m| {
                // partition_point = number of breakpoints below m = symbol.
                breakpoints.partition_point(|&b| b <= m) as u8
            })
            .collect();
        Self {
            symbols,
            alphabet,
            original_len: values.len(),
        }
    }

    /// The symbol sequence (values in `0..alphabet`).
    pub fn symbols(&self) -> &[u8] {
        &self.symbols
    }

    /// Alphabet size.
    pub fn alphabet(&self) -> u8 {
        self.alphabet
    }

    /// Length of the encoded series.
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// Renders the word with letters `a, b, c, …` (the visual convention
    /// of the SAX papers). Alphabets beyond 26 symbols fall back to
    /// `[n]` numeric cells.
    pub fn to_letters(&self) -> String {
        self.symbols
            .iter()
            .map(|&s| {
                if self.alphabet <= 26 {
                    ((b'a' + s) as char).to_string()
                } else {
                    format!("[{s}]")
                }
            })
            .collect()
    }

    /// `MINDIST` between two SAX words: a lower bound on the Euclidean
    /// distance between the original series,
    /// `sqrt(n/w) · sqrt(Σ cell(sᵢ, tᵢ)²)`, where `cell` is the
    /// breakpoint gap between non-adjacent symbols (0 for equal or
    /// adjacent symbols).
    ///
    /// # Panics
    /// If the words disagree in segment count, alphabet, or original
    /// length.
    pub fn mindist(&self, other: &SaxWord) -> f64 {
        assert_eq!(self.alphabet, other.alphabet, "alphabet mismatch");
        assert_eq!(
            self.symbols.len(),
            other.symbols.len(),
            "segment count mismatch"
        );
        assert_eq!(
            self.original_len, other.original_len,
            "original length mismatch"
        );
        let breakpoints = sax_breakpoints(self.alphabet);
        let mut acc = 0.0;
        for (&s, &t) in self.symbols.iter().zip(&other.symbols) {
            let (lo, hi) = if s < t { (s, t) } else { (t, s) };
            if hi - lo >= 2 {
                // Gap between the upper breakpoint of the lower symbol and
                // the lower breakpoint of the upper symbol.
                let d = breakpoints[hi as usize - 1] - breakpoints[lo as usize];
                acc += d * d;
            }
        }
        (self.original_len as f64 / self.symbols.len() as f64).sqrt() * acc.sqrt()
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::distance::euclidean;
    use crate::series::TimeSeries;

    #[test]
    fn breakpoints_match_published_table() {
        // The classical a = 4 breakpoints: −0.67, 0, 0.67.
        let b = sax_breakpoints(4);
        assert_eq!(b.len(), 3);
        assert!((b[0] + 0.6744897501960817).abs() < 1e-9);
        assert!(b[1].abs() < 1e-12);
        assert!((b[2] - 0.6744897501960817).abs() < 1e-9);
        // a = 3: −0.43, 0.43.
        let b = sax_breakpoints(3);
        assert!((b[0] + 0.4307272992954576).abs() < 1e-9);
    }

    #[test]
    fn encoding_is_monotone_in_value() {
        // A rising ramp encodes as a non-decreasing word.
        let xs = TimeSeries::from_values((0..32).map(|i| i as f64)).znormalized();
        let w = SaxWord::encode(xs.values(), 8, 5);
        assert!(w.symbols().windows(2).all(|p| p[1] >= p[0]));
        assert_eq!(w.symbols().len(), 8);
        assert!(*w.symbols().last().unwrap() < 5);
    }

    #[test]
    fn letters_render() {
        let xs = TimeSeries::from_values((0..16).map(|i| i as f64)).znormalized();
        let w = SaxWord::encode(xs.values(), 4, 4);
        let s = w.to_letters();
        assert_eq!(s.len(), 4);
        assert!(s.chars().all(|c| ('a'..='d').contains(&c)));
        assert!(s.starts_with('a') && s.ends_with('d'));
    }

    #[test]
    fn identical_words_have_zero_mindist() {
        let xs: Vec<f64> = (0..64).map(|i| (i as f64 / 7.0).sin()).collect();
        let a = SaxWord::encode(&xs, 8, 6);
        assert_eq!(a.mindist(&a), 0.0);
    }

    #[test]
    fn adjacent_symbols_cost_nothing() {
        // Words differing only by adjacent symbols: MINDIST 0 (the SAX
        // definition's deliberate slack).
        let bp = sax_breakpoints(4);
        let just_below = bp[1] - 0.01; // symbol 1
        let just_above = bp[1] + 0.01; // symbol 2
        let x = vec![just_below; 16];
        let y = vec![just_above; 16];
        let a = SaxWord::encode(&x, 4, 4);
        let b = SaxWord::encode(&y, 4, 4);
        assert_ne!(a.symbols(), b.symbols());
        assert_eq!(a.mindist(&b), 0.0);
    }

    #[test]
    fn mindist_lower_bounds_euclidean() {
        // Across random-ish smooth z-normalised pairs and several (w, a).
        for seed in 0..12u64 {
            let x = TimeSeries::from_values(
                (0..64).map(|i| ((i as f64 + seed as f64 * 3.0) / 6.0).sin()),
            )
            .znormalized();
            let y = TimeSeries::from_values(
                (0..64).map(|i| ((i as f64 * 1.3 + seed as f64) / 9.0).cos()),
            )
            .znormalized();
            let full = euclidean(x.values(), y.values());
            for (w, a) in [(4usize, 3u8), (8, 4), (16, 8), (32, 12)] {
                let wx = SaxWord::encode(x.values(), w, a);
                let wy = SaxWord::encode(y.values(), w, a);
                let lb = wx.mindist(&wy);
                assert!(
                    lb <= full + 1e-9,
                    "seed={seed} w={w} a={a}: MINDIST {lb} > Euclid {full}"
                );
            }
        }
    }

    #[test]
    fn far_series_have_positive_mindist() {
        let x = TimeSeries::from_values((0..32).map(|i| i as f64)).znormalized();
        let y = TimeSeries::from_values((0..32).map(|i| -(i as f64))).znormalized();
        let wx = SaxWord::encode(x.values(), 8, 8);
        let wy = SaxWord::encode(y.values(), 8, 8);
        assert!(wx.mindist(&wy) > 1.0);
    }

    #[test]
    #[should_panic(expected = "alphabet mismatch")]
    fn mismatched_alphabets_panic() {
        let xs = [0.0; 8];
        let a = SaxWord::encode(&xs, 4, 4);
        let b = SaxWord::encode(&xs, 4, 5);
        let _ = a.mindist(&b);
    }

    #[test]
    #[should_panic(expected = "at least two symbols")]
    fn tiny_alphabet_panics() {
        let _ = sax_breakpoints(1);
    }
}
