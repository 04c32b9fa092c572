//! MUNICH — probabilistic similarity search over repeated observations
//! (Aßfalg, Kriegel, Kröger, Renz — SSDBM 2009; paper §2.1).
//!
//! MUNICH materialises the two uncertain sequences into all possible
//! certain sequences (one sample per timestamp) and counts:
//!
//! ```text
//! Pr(distance(X, Y) ≤ ε) = |{d ∈ dists(X, Y) : d ≤ ε}| / |dists(X, Y)|
//! ```
//!
//! The naive enumeration is `s_x^n · s_y^n` — "infeasible, because of the
//! very large space that leads to an exponential computational cost"
//! (paper §2.1). For the Euclidean distance, however, a materialisation
//! pair decomposes into independent per-timestamp choices: the squared
//! distance is `Σᵢ Cᵢ` with `Cᵢ` uniform over the `s_x · s_y` squared
//! sample differences at timestamp `i`. This module exploits that product
//! form with a choice of strategies (selected via [`MunichStrategy`]):
//!
//! * **Auto** (default) — dynamic programming over the exact support of
//!   the partial sums (exponential in the worst case; ground truth for
//!   tests) while that support stays within
//!   [`MunichConfig::exact_support_limit`], else convolution.
//! * **Convolution** — fixed-bin histogram convolution of the `n`
//!   per-timestamp distributions, tracking rigorous lower/upper
//!   probability bounds (mass is shifted by floor/ceil bin rounding).
//! * **MonteCarlo** — unbiased sampling of materialisation pairs.
//!
//! Every strategy runs after the minimal-bounding-interval (MBI) filter
//! step of the original paper, which short-circuits certain 0/1 answers
//! ("upper and lower bounding the distances, summarizing the repeated
//! samples using minimal bounding intervals"): no false dismissals.
//!
//! ## The refinement pipeline for PRQ decisions
//!
//! A probabilistic range query does not need the probability — it needs
//! the *decision* `Pr(dist ≤ ε) ≥ τ`. Every decision entry point —
//! [`Munich::try_decide_within`] on a pair of series,
//! [`Munich::matches_enveloped`] on the engine's precomputed MBI
//! envelopes — runs one pipeline that differs only in where the MBI
//! bounds are read from, and is guaranteed to return exactly what
//! [`Munich::matches`] would have returned, usually at a fraction of the
//! cost:
//!
//! 1. **MBI filter** — the paper's interval bounds decide certain 0/1
//!    answers without touching sample rows;
//! 2. **moment rung** — Cantelli and Berry–Esseen bounds from the exact
//!    moments of the squared distance decide clearly-in and clearly-out
//!    pairs in `O(n·s_x·s_y)`, before any convolution (see below;
//!    deterministic strategies only);
//! 3. **count-bound early abandonment** — the strategy's one refinement
//!    run (the exact DP, one full-resolution convolution fold, or the
//!    Monte-Carlo draws) keeps running lower/upper bounds on the fraction
//!    of materialisations within ε as per-timestamp contributions fold
//!    in, and stops the moment the bound interval can no longer cross τ;
//! 4. **exact completion** — only candidates whose bound interval
//!    straddles τ to the very end complete the run, which is then the
//!    estimate's own computation, so the decision is *bit-identical* to
//!    the reference.
//!
//! On GunPoint-shaped collections (length 150, 3 samples a side,
//! τ = 0.5) the MBI filter decides almost no pair, the moment rung about
//! four in five, and the fold's count bounds about three in five of the
//! rest; the remaining ~7% of pairs complete.
//!
//! Probability estimates ([`Munich::try_probability_bounds`],
//! [`Munich::probability_within_enveloped`]) share stage 1 and then
//! complete the same refinement run, since the value itself is the
//! answer.
//!
//! ### Why the moment rung never changes an answer
//!
//! `S = Σᵢ Cᵢ` is a sum of independent terms, so its mean `μ = Σ E[Cᵢ]`,
//! variance `V = Σ Var(Cᵢ)` and absolute third central moment
//! `ρ = Σ E|Cᵢ − E Cᵢ|³` are exact and bound the true CDF
//! `p(t) = Pr(S ≤ t)` from both sides, `L(t) ≤ p(t) ≤ U(t)`:
//!
//! * Cantelli's one-sided inequality gives `p(t) ≤ V / (V + (μ − t)²)`
//!   for `t < μ` and `p(t) ≥ 1 − V / (V + (t − μ)²)` for `t > μ`;
//! * the Berry–Esseen theorem for independent, not identically
//!   distributed terms gives `|p(t) − Φ((t − μ)/√V)| ≤ 0.56·ρ / V^{3/2}`
//!   (Shevtsova's constant). It is much the tighter of the two near the
//!   bulk of the distribution, where τ = 0.5 decisions fall, while
//!   Cantelli wins in the tails;
//!
//! and `U`, `L` take the tighter of the two on each side.
//!
//! But [`Munich::matches`] compares the *reference estimate* with τ, not
//! `p(ε²)`. For the convolution that estimate is the midpoint
//! `½(lo_F + hi_F)` of a floor- and a ceil-rounded histogram with bin
//! width `w = total_max / bins`. Rounding moves each of the `n` terms by
//! less than one bin, and ε² is itself floored to a bin, so
//!
//! * `lo_F ≤ p(ε²)` and `hi_F ≤ p(ε² + n·w)`;
//! * `hi_F ≥ p(ε² − w)` and `lo_F ≥ p(ε² − (n+1)·w)`.
//!
//! The rung therefore rejects when `½(U(ε²) + U(ε² + n·w))` clears τ
//! from below and accepts when `½(L(ε² − w) + L(ε² − (n+1)·w))` clears
//! it from above, each by `DECISION_MARGIN` (1e-9). The exact DP's
//! probability is `p(ε²)` itself, and the saturated convolution's
//! estimate is 1, so both lie inside the same brackets: one rule serves
//! every deterministic strategy. Floating-point drift is absorbed by
//! widening every threshold by `1e-9·(1 + ε² + total_max)` (the exact
//! DP's slack), inflating `V` by the same relative amount and the
//! Berry–Esseen error by a little more. Monte-Carlo estimates are sample
//! fractions that these bounds do not bracket, so that strategy skips
//! the rung.
//!
//! The per-timestamp squared-difference distributions feeding stages 3–4
//! are computed once per pair (`PairContribs` internally), and the exact
//! DP and the convolution fold them tightest-first (largest guaranteed
//! contribution first) so the running bounds converge as fast as
//! possible.
//!
//! ### The convolution fold
//!
//! Every convolution — estimate or decision — runs one fold kernel
//! (`LiveHist::step` internally). It folds the floor- and the
//! ceil-rounded histogram one timestamp at a time over the window
//! `[0, ε²-bin]`, since binned shifts are non-negative and mass that
//! leaves the window never returns. Within the window it computes only
//! the *live* bins: every bin below the sum of the folded minimum shifts
//! is an exact zero, and no bin at or past the window's end minus the
//! remaining minimum shifts can return. When the minimum shifts alone
//! overshoot the window, the histogram is an exact zero and no bin is
//! computed. Each live bin sums its shift groups in a register
//! block, in ascending-shift order, reading a source buffer padded with
//! zeros so no group needs a bounds branch. These are the additions, in
//! the order, of the historical fold (one shifted saxpy per group into a
//! zeroed window); every term trimmed or padded is `+0.0·w = +0.0`, and
//! with non-negative masses no partial sum is `-0.0`, so the estimate is
//! bit-identical to that fold — a test-only copy of it checks `to_bits`,
//! including the sign of an all-zero total.

use rand::Rng;
use uts_stats::rng::Seed;
use uts_stats::Normal;
use uts_uncertain::MultiObsSeries;

use crate::error::InputError;

/// Strategy for computing the materialisation-distance distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MunichStrategy {
    /// Histogram convolution with the given bin count.
    Convolution {
        /// Number of histogram bins for the squared-distance axis.
        bins: usize,
    },
    /// Monte-Carlo estimation with the given number of materialisation
    /// pairs.
    MonteCarlo {
        /// Sample count.
        samples: usize,
    },
    /// Exact DP over partial-sum supports when the support stays within
    /// [`MunichConfig::exact_support_limit`], otherwise convolution.
    Auto,
}

/// MUNICH configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MunichConfig {
    /// Distribution strategy.
    pub strategy: MunichStrategy,
    /// Exact DP runs only when the product of per-timestamp *distinct*
    /// squared-difference counts stays within this limit (the DP support
    /// can never exceed it); beyond it the Auto strategy falls back to
    /// convolution.
    pub exact_support_limit: usize,
    /// Bin count used when `Auto` falls back to convolution.
    pub auto_bins: usize,
    /// Apply the MBI filter step before any refinement.
    pub use_mbi_filter: bool,
    /// Seed for the Monte-Carlo estimator (kept in the config so repeated
    /// queries are reproducible).
    pub mc_seed: u64,
}

impl Default for MunichConfig {
    fn default() -> Self {
        Self {
            strategy: MunichStrategy::Auto,
            exact_support_limit: 200_000,
            auto_bins: 8192,
            use_mbi_filter: true,
            mc_seed: 0x4d554e49, // "MUNI"
        }
    }
}

/// Slop absorbed by every early-abandonment decision: a candidate is only
/// abandoned when its running probability bounds clear τ by more than
/// this margin. IEEE drift between the incremental bound arithmetic and
/// the full computation is orders of magnitude smaller (≲ 1e-12 for the
/// longest supported series), so a decision taken early always equals the
/// decision the completed — bit-identical — computation would take;
/// within the margin the pipeline completes the full computation instead.
const DECISION_MARGIN: f64 = 1e-9;

/// Lower/upper bounds on `Pr(distance ≤ ε)`; equal when the answer is
/// exact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbabilityBounds {
    /// Guaranteed lower bound.
    pub lo: f64,
    /// Guaranteed upper bound.
    pub hi: f64,
}

impl ProbabilityBounds {
    fn exact(p: f64) -> Self {
        Self { lo: p, hi: p }
    }

    /// Midpoint point estimate.
    pub fn estimate(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    /// Width of the bound interval (0 for exact answers).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }
}

/// The MUNICH similarity technique.
#[derive(Debug, Clone, Copy, Default)]
pub struct Munich {
    config: MunichConfig,
}

impl Munich {
    /// Creates MUNICH with the given configuration.
    ///
    /// # Panics
    /// If the support limit is below 2, `auto_bins` below 16, a
    /// convolution has no bins, or a Monte-Carlo estimate no samples.
    pub fn new(config: MunichConfig) -> Self {
        assert!(config.exact_support_limit >= 2, "support limit too small");
        assert!(config.auto_bins >= 16, "need at least 16 bins");
        match config.strategy {
            MunichStrategy::Convolution { bins } => {
                assert!(bins >= 1, "convolution needs at least one bin");
            }
            MunichStrategy::MonteCarlo { samples } => {
                assert!(samples >= 1, "need at least one Monte-Carlo sample");
            }
            MunichStrategy::Auto => {}
        }
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &MunichConfig {
        &self.config
    }

    fn validate_pair(x: &MultiObsSeries, y: &MultiObsSeries) -> Result<(), InputError> {
        if x.len() != y.len() {
            return Err(InputError::LengthMismatch {
                expected: x.len(),
                got: y.len(),
            });
        }
        if x.is_empty() {
            return Err(InputError::EmptySeries);
        }
        Ok(())
    }

    fn validate_epsilon(epsilon: f64) -> Result<(), InputError> {
        if epsilon >= 0.0 {
            Ok(())
        } else {
            Err(InputError::InvalidEpsilon(epsilon))
        }
    }

    fn validate_tau(tau: f64) -> Result<(), InputError> {
        if (0.0..=1.0).contains(&tau) {
            Ok(())
        } else {
            Err(InputError::InvalidTau(tau))
        }
    }

    /// `Pr(distance(X, Y) ≤ ε)` over all materialisation pairs
    /// (paper Eq. 4), as rigorous bounds.
    ///
    /// # Errors
    /// [`InputError`] if the series lengths differ, either is empty, or
    /// `ε` is negative or NaN.
    pub fn try_probability_bounds(
        &self,
        x: &MultiObsSeries,
        y: &MultiObsSeries,
        epsilon: f64,
    ) -> Result<ProbabilityBounds, InputError> {
        self.estimate_bounds(x, y, epsilon, || interval_distance_sq_bounds(x, y))
    }

    /// The sample-level refinement: everything after the MBI filter
    /// (and, for a decision, the moment rung) has failed to settle the
    /// pair. Each strategy runs one loop for both uses: `decide = None`
    /// completes it and returns the estimate's bounds; `decide = Some(τ)`
    /// may abandon it early with the decision the completed run would
    /// give (see the module docs).
    fn refine(
        &self,
        x: &MultiObsSeries,
        y: &MultiObsSeries,
        eps_sq: f64,
        decide: Option<f64>,
    ) -> Refined<ProbabilityBounds> {
        let (bins, try_exact) = match self.config.strategy {
            MunichStrategy::MonteCarlo { samples } => {
                return self
                    .monte_carlo_euclid(x, y, eps_sq, samples, decide)
                    .map(ProbabilityBounds::exact);
            }
            MunichStrategy::Convolution { bins } => (bins, false),
            MunichStrategy::Auto => (self.config.auto_bins, true),
        };
        let c = PairContribs::build(x, y);
        if try_exact && c.distinct_product <= self.config.exact_support_limit {
            exact_dp(&c, eps_sq, decide).map(ProbabilityBounds::exact)
        } else {
            convolve(&c, eps_sq, bins, decide).map(ProbabilityBounds::from)
        }
    }

    /// Point estimate of `Pr(distance(X, Y) ≤ ε)`.
    ///
    /// # Panics
    /// On the inputs [`Munich::try_probability_bounds`] rejects, with
    /// the same message.
    pub fn probability_within(&self, x: &MultiObsSeries, y: &MultiObsSeries, epsilon: f64) -> f64 {
        self.try_probability_bounds(x, y, epsilon)
            .unwrap_or_else(|e| panic!("{e}"))
            .estimate()
    }

    /// [`Munich::probability_within`] with precomputed MBI envelopes for
    /// the pair: the filter step reads the envelopes instead of
    /// re-scanning both series' sample rows. Bit-identical to the
    /// pairwise path for the series the envelopes were built from, and
    /// panics on the same invalid inputs.
    pub fn probability_within_enveloped(
        &self,
        x: &MultiObsSeries,
        y: &MultiObsSeries,
        epsilon: f64,
        env_x: &MbiEnvelope,
        env_y: &MbiEnvelope,
    ) -> f64 {
        self.estimate_bounds(x, y, epsilon, || {
            interval_distance_sq_bounds_enveloped(env_x, env_y)
        })
        .unwrap_or_else(|e| panic!("{e}"))
        .estimate()
    }

    /// PRQ membership: `Pr(distance ≤ ε) ≥ τ` (paper Eq. 2), decided on
    /// the point estimate. This is the reference decision path; prefer
    /// [`Munich::try_decide_within`], which returns the same answer
    /// without always paying for the full probability.
    pub fn matches(&self, x: &MultiObsSeries, y: &MultiObsSeries, epsilon: f64, tau: f64) -> bool {
        assert!((0.0..=1.0).contains(&tau), "τ must be in [0, 1]");
        self.probability_within(x, y, epsilon) >= tau
    }

    /// PRQ membership via the pruned refinement pipeline (see the module
    /// docs): MBI filter, then count-bound early abandonment inside the
    /// configured strategy, completing the full — bit-identical —
    /// computation only when the running bounds straddle τ throughout.
    ///
    /// Returns exactly what [`Munich::matches`] returns on the same
    /// inputs. The decision uses the non-strict `≥ τ` cutoff of Eq. 2
    /// (mirroring `squared_cutoff` semantics in the engine's distance
    /// scans; there is no strict variant because PRQ membership is
    /// inclusive).
    ///
    /// # Errors
    /// [`InputError`] on the inputs [`Munich::try_probability_bounds`]
    /// rejects, or when `τ` is outside `[0, 1]` or NaN.
    pub fn try_decide_within(
        &self,
        x: &MultiObsSeries,
        y: &MultiObsSeries,
        epsilon: f64,
        tau: f64,
    ) -> Result<bool, InputError> {
        self.decide(x, y, epsilon, tau, || interval_distance_sq_bounds(x, y))
    }

    /// [`Munich::try_decide_within`] with precomputed MBI envelopes — the
    /// batched engine's per-candidate decision. Bit-identical to the
    /// pairwise decision (and therefore to [`Munich::matches`]) for the
    /// series the envelopes were built from, and panics on the same
    /// invalid inputs.
    pub fn matches_enveloped(
        &self,
        x: &MultiObsSeries,
        y: &MultiObsSeries,
        epsilon: f64,
        tau: f64,
        env_x: &MbiEnvelope,
        env_y: &MbiEnvelope,
    ) -> bool {
        self.decide(x, y, epsilon, tau, || {
            interval_distance_sq_bounds_enveloped(env_x, env_y)
        })
        .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The estimate pipeline behind every probability entry point:
    /// validation, the MBI filter over the pair's `(lb², ub²)` — taken
    /// from the series or from their envelopes, whichever `bounds` reads
    /// — then the sample-level refinement.
    fn estimate_bounds(
        &self,
        x: &MultiObsSeries,
        y: &MultiObsSeries,
        epsilon: f64,
        bounds: impl FnOnce() -> (f64, f64),
    ) -> Result<ProbabilityBounds, InputError> {
        Self::validate_pair(x, y)?;
        Self::validate_epsilon(epsilon)?;
        let eps_sq = epsilon * epsilon;
        Ok(match self.mbi_filter(eps_sq, bounds) {
            Some(within) => ProbabilityBounds::exact(if within { 1.0 } else { 0.0 }),
            None => self.refine(x, y, eps_sq, None).completed(),
        })
    }

    /// The decision pipeline behind every PRQ entry point (see the
    /// module docs): validation, the MBI filter over `bounds` as in
    /// [`Self::estimate_bounds`], the moment rung, then the
    /// early-abandoning refinement.
    fn decide(
        &self,
        x: &MultiObsSeries,
        y: &MultiObsSeries,
        epsilon: f64,
        tau: f64,
        bounds: impl FnOnce() -> (f64, f64),
    ) -> Result<bool, InputError> {
        Self::validate_pair(x, y)?;
        Self::validate_epsilon(epsilon)?;
        Self::validate_tau(tau)?;
        if tau <= 0.0 {
            // Probabilities are non-negative, so `p ≥ 0` always holds.
            return Ok(true);
        }
        let eps_sq = epsilon * epsilon;
        // A filter answer is p = 1 ≥ τ or p = 0 < τ (τ > 0 here).
        Ok(self
            .mbi_filter(eps_sq, bounds)
            .or_else(|| self.moment_rung(x, y, eps_sq, tau))
            .unwrap_or_else(|| match self.refine(x, y, eps_sq, Some(tau)) {
                Refined::Completed(b) => b.estimate() >= tau,
                Refined::Decided(hit) => hit,
            }))
    }

    /// The moment rung (see the module docs): decides the pair from the
    /// moments of its squared distance when the brackets they put around
    /// the reference estimate clear τ. `None` for Monte-Carlo, whose
    /// estimate those brackets do not bound, and for pairs they cannot
    /// settle.
    fn moment_rung(
        &self,
        x: &MultiObsSeries,
        y: &MultiObsSeries,
        eps_sq: f64,
        tau: f64,
    ) -> Option<bool> {
        let bins = match self.config.strategy {
            MunichStrategy::Auto => self.config.auto_bins,
            MunichStrategy::Convolution { bins } => bins,
            MunichStrategy::MonteCarlo { .. } => return None,
        };
        let s = SumMoments::of(x, y)?;
        // The convolution's rounding bracket and the FP slack (module
        // docs, "Why the moment rung never changes an answer").
        let slack = 1e-9 * (1.0 + eps_sq + s.total_max);
        let w = s.total_max / bins as f64;
        let nw = x.len() as f64 * w;
        let hi = 0.5 * (s.cdf_upper(eps_sq + slack) + s.cdf_upper(eps_sq + nw + slack));
        if hi + DECISION_MARGIN < tau {
            return Some(false);
        }
        let lo = 0.5 * (s.cdf_lower(eps_sq - w - slack) + s.cdf_lower(eps_sq - nw - w - slack));
        if lo - DECISION_MARGIN >= tau {
            return Some(true);
        }
        None
    }

    /// The paper's MBI filter step: decides a pair without touching
    /// sample rows when its squared-distance bounds settle `dist ≤ ε` for
    /// every materialisation. `None` when the filter is switched off —
    /// `bounds` is then never evaluated — or cannot decide.
    fn mbi_filter(&self, eps_sq: f64, bounds: impl FnOnce() -> (f64, f64)) -> Option<bool> {
        let (lb_sq, ub_sq) = self.config.use_mbi_filter.then(bounds)?;
        bounds_decide(lb_sq, ub_sq, eps_sq)
    }

    /// Monte-Carlo estimate of `Pr(distance ≤ ε)` over `samples` seeded
    /// materialisation pairs — or, with `decide = Some(τ)`, the decision
    /// under integer count bounds: after `t` of `N` draws with `h` hits,
    /// the final hit count lies in `[h, h + (N − t)]`. Division by a
    /// positive constant is monotone under IEEE rounding, so `h/N ≥ τ`
    /// already proves the completed estimate would match and
    /// `(h + N − t)/N < τ` that it would not: both early exits are exact,
    /// and the draws before them are the estimate's own.
    fn monte_carlo_euclid(
        &self,
        x: &MultiObsSeries,
        y: &MultiObsSeries,
        eps_sq: f64,
        samples: usize,
        decide: Option<f64>,
    ) -> Refined<f64> {
        let mut rng = Seed::new(self.config.mc_seed).derive("euclid").rng();
        let total = samples as f64;
        let mut hits = 0usize;
        for done in 1..=samples {
            let mut acc = 0.0;
            for i in 0..x.len() {
                let xv = x.row(i)[rng.gen_range(0..x.samples_per_point())];
                let yv = y.row(i)[rng.gen_range(0..y.samples_per_point())];
                let d = xv - yv;
                acc += d * d;
                if acc > eps_sq {
                    break; // early abandon: the sum only grows
                }
            }
            if acc <= eps_sq {
                hits += 1;
            }
            if let Some(tau) = decide {
                if hits as f64 / total >= tau {
                    return Refined::Decided(true);
                }
                if (hits + (samples - done)) as f64 / total < tau {
                    return Refined::Decided(false);
                }
            }
        }
        Refined::Completed(hits as f64 / total)
    }
}

impl From<(f64, f64)> for ProbabilityBounds {
    fn from((lo, hi): (f64, f64)) -> Self {
        Self { lo, hi }
    }
}

/// Per-pair refinement state: the per-timestamp squared-difference sample
/// distributions, computed once per pair and read by the exact DP or the
/// convolution, and by their running decision bounds.
struct PairContribs {
    /// Number of timestamps.
    n: usize,
    /// Cross-product size `s_x · s_y` (constant across timestamps).
    m: usize,
    /// Probability of each raw squared difference, `1 / m`.
    p_each: f64,
    /// Raw per-timestamp squared differences, `n × m` row-major in the
    /// naive enumeration order (x-sample outer, y-sample inner) — the
    /// convolution folds these so its arithmetic stays bit-identical to
    /// the historical per-pair enumeration.
    raw: Vec<f64>,
    /// Distinct sorted values per timestamp (flattened)...
    dvals: Vec<f64>,
    /// ...with their aggregated probabilities `count · p_each`.
    dwts: Vec<f64>,
    /// Timestamp `i` owns `dvals[dstart[i]..dstart[i + 1]]`.
    dstart: Vec<usize>,
    /// Per-timestamp minimum squared difference.
    step_min: Vec<f64>,
    /// Per-timestamp maximum squared difference.
    step_max: Vec<f64>,
    /// `Σᵢ step_max[i]` accumulated in ascending timestamp order (the
    /// convolution's histogram range; order matters for bit-identity).
    total_max: f64,
    /// `∏ᵢ distinct_countᵢ`, saturating — an upper bound on the exact
    /// DP's final support size, decided before any DP work.
    distinct_product: usize,
    /// Tightest-first fold order (see [`Self::fold_order`]), sorted once
    /// at build time: the convolution reads it for its suffix bounds and
    /// for each of its two sides.
    fold_order: Vec<usize>,
}

impl PairContribs {
    fn build(x: &MultiObsSeries, y: &MultiObsSeries) -> Self {
        let n = x.len();
        let m = x.samples_per_point() * y.samples_per_point();
        let p_each = 1.0 / m as f64;
        let mut raw = Vec::with_capacity(n * m);
        let mut dvals = Vec::new();
        let mut dwts = Vec::new();
        let mut dstart = Vec::with_capacity(n + 1);
        dstart.push(0usize);
        let mut step_min = Vec::with_capacity(n);
        let mut step_max = Vec::with_capacity(n);
        let mut total_max = 0.0f64;
        let mut distinct_product = 1usize;
        let mut sorted: Vec<f64> = Vec::with_capacity(m);
        for i in 0..n {
            let start = raw.len();
            for &a in x.row(i) {
                for &b in y.row(i) {
                    let d = a - b;
                    raw.push(d * d);
                }
            }
            let step = &raw[start..];
            total_max += step.iter().fold(0.0f64, |acc, &v| acc.max(v));
            sorted.clear();
            sorted.extend_from_slice(step);
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite sample differences"));
            let mut distinct = 0usize;
            let mut idx = 0usize;
            while idx < sorted.len() {
                let v = sorted[idx];
                let mut cnt = 1usize;
                while idx + cnt < sorted.len() && sorted[idx + cnt] == v {
                    cnt += 1;
                }
                dvals.push(v);
                dwts.push(cnt as f64 * p_each);
                distinct += 1;
                idx += cnt;
            }
            dstart.push(dvals.len());
            step_min.push(sorted[0]);
            step_max.push(sorted[m - 1]);
            distinct_product = distinct_product.saturating_mul(distinct);
        }
        let mut fold_order: Vec<usize> = (0..n).collect();
        fold_order.sort_by(|&a, &b| {
            step_max[a]
                .partial_cmp(&step_max[b])
                .expect("finite sample differences")
                .then(
                    step_min[a]
                        .partial_cmp(&step_min[b])
                        .expect("finite sample differences"),
                )
                .then(a.cmp(&b))
        });
        Self {
            n,
            m,
            p_each,
            raw,
            dvals,
            dwts,
            dstart,
            step_min,
            step_max,
            total_max,
            distinct_product,
            fold_order,
        }
    }

    fn step_raw(&self, i: usize) -> &[f64] {
        &self.raw[i * self.m..(i + 1) * self.m]
    }

    fn step_distinct(&self, i: usize) -> (&[f64], &[f64]) {
        let r = self.dstart[i]..self.dstart[i + 1];
        (&self.dvals[r.clone()], &self.dwts[r])
    }

    /// Fold order for the exact DP and the convolutions: tightest-first —
    /// the timestamp with the largest guaranteed (minimum) contribution
    /// folds first, so the running sum's lower bound climbs toward ε² as
    /// fast as possible and the count bounds decide candidates in as few
    /// steps as possible. Ties break by the largest maximum, then by
    /// timestamp index, so the order (and with it every downstream FP
    /// sum) is deterministic. Computed once in [`Self::build`].
    fn fold_order(&self) -> &[usize] {
        &self.fold_order
    }
}

/// Outcome of one refinement run: the exact DP, the convolution fold or
/// the Monte-Carlo draws.
enum Refined<T> {
    /// The run completed: the reference estimate itself.
    Completed(T),
    /// Count-bound early abandonment fired: the PRQ decision is already
    /// certain, and equal to what the completed run would yield.
    Decided(bool),
}

impl<T> Refined<T> {
    fn map<U>(self, f: impl FnOnce(T) -> U) -> Refined<U> {
        match self {
            Self::Completed(v) => Refined::Completed(f(v)),
            Self::Decided(hit) => Refined::Decided(hit),
        }
    }

    /// The completed value of a run given no decision threshold.
    fn completed(self) -> T {
        match self {
            Self::Completed(v) => v,
            Self::Decided(_) => unreachable!("no decision threshold given"),
        }
    }
}

/// Exact probability via DP over the support of partial sums, folding the
/// per-timestamp distinct distributions in [`PairContribs::fold_order`].
///
/// With `decide = Some(τ)`, running count bounds are maintained after
/// every fold: an entry whose partial sum plus the *maximum* possible
/// remaining contribution stays below ε² is certainly within range, one
/// whose partial sum plus the *minimum* remaining contribution exceeds ε²
/// is certainly out. When the certain mass alone reaches τ (or the
/// possible mass can no longer reach it) beyond [`DECISION_MARGIN`], the
/// DP abandons with the decision. The margin (and an ε²-side `slack`
/// guarding the final sum comparisons) dominates the IEEE drift of the
/// bound arithmetic, so an abandoned decision always equals the completed
/// one; near-τ candidates simply complete, bit-identical to
/// `decide = None`.
fn exact_dp(c: &PairContribs, eps_sq: f64, decide: Option<f64>) -> Refined<f64> {
    let n = c.n;
    let order = c.fold_order();
    // Min/max total contribution of the not-yet-folded suffix, in fold
    // order. Only the deciding path reads it, but it is O(n) to build.
    let mut suffix = vec![(0.0f64, 0.0f64); n + 1];
    for t in (0..n).rev() {
        let s = order[t];
        suffix[t] = (
            suffix[t + 1].0 + c.step_min[s],
            suffix[t + 1].1 + c.step_max[s],
        );
    }
    // Guards the `partial + remaining ≤ ε²` comparisons against the FP
    // drift between "bound arithmetic now" and "actual fold later".
    let slack = 1e-9 * (1.0 + eps_sq + c.total_max);
    // support: sorted (sum, probability) pairs.
    let mut support: Vec<(f64, f64)> = vec![(0.0, 1.0)];
    for (t, &s) in order.iter().enumerate() {
        let (vals, wts) = c.step_distinct(s);
        let mut next: Vec<(f64, f64)> = Vec::with_capacity(support.len() * vals.len());
        for &(sum, p) in &support {
            for (&v, &w) in vals.iter().zip(wts) {
                next.push((sum + v, p * w));
            }
        }
        next.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite sums"));
        // Merge exact duplicates (common with symmetric samples).
        let mut merged: Vec<(f64, f64)> = Vec::with_capacity(next.len());
        for (v, p) in next {
            match merged.last_mut() {
                Some((lv, lp)) if *lv == v => *lp += p,
                _ => merged.push((v, p)),
            }
        }
        support = merged;
        if let Some(tau) = decide {
            if t + 1 < n {
                let (rem_lo, rem_hi) = suffix[t + 1];
                // The support is sorted, so both predicates split it at a
                // prefix boundary.
                let certain = support.partition_point(|&(v, _)| v + rem_hi <= eps_sq - slack);
                let lb: f64 = support[..certain].iter().map(|&(_, p)| p).sum();
                if lb - DECISION_MARGIN >= tau {
                    return Refined::Decided(true);
                }
                let possible = support.partition_point(|&(v, _)| v + rem_lo <= eps_sq + slack);
                let ub: f64 = support[..possible].iter().map(|&(_, p)| p).sum();
                if ub + DECISION_MARGIN < tau {
                    return Refined::Decided(false);
                }
            }
        }
    }
    let p: f64 = support
        .iter()
        .take_while(|&&(v, _)| v <= eps_sq)
        .map(|&(_, p)| p)
        .sum();
    Refined::Completed(p.clamp(0.0, 1.0))
}

/// Exact probability of `Pr(Σ Cᵢ ≤ ε²)`, or `None` when the product of
/// per-timestamp distinct-difference counts exceeds `limit` (the DP
/// support can never outgrow that product, so feasibility is decided
/// up front instead of abandoning a half-finished fold).
#[cfg(test)]
fn exact_probability(
    x: &MultiObsSeries,
    y: &MultiObsSeries,
    eps_sq: f64,
    limit: usize,
) -> Option<f64> {
    let c = PairContribs::build(x, y);
    if c.distinct_product > limit {
        return None;
    }
    Some(exact_dp(&c, eps_sq, None).completed())
}

/// Binned shifts of every distinct squared difference (aligned with
/// [`PairContribs::dvals`]), floor- and ceil-rounded at one bin width —
/// computed once per fold, so each `d / width` division happens once for
/// both rounding sides.
struct BinShifts {
    floor: Vec<u32>,
    ceil: Vec<u32>,
}

impl BinShifts {
    fn build(c: &PairContribs, width: f64) -> Self {
        let mut floor = Vec::with_capacity(c.dvals.len());
        let mut ceil = Vec::with_capacity(c.dvals.len());
        for &d in &c.dvals {
            let raw = d / width;
            // `d ≤ total_max = bins · width`, so both roundings fit u32.
            floor.push(raw.floor() as u32);
            ceil.push(raw.ceil() as u32);
        }
        Self { floor, ceil }
    }

    /// This timestamp's shifts, selected by rounding mode.
    fn step(&self, c: &PairContribs, i: usize, ceil: bool) -> &[u32] {
        let r = c.dstart[i]..c.dstart[i + 1];
        if ceil {
            &self.ceil[r]
        } else {
            &self.floor[r]
        }
    }
}

/// Suffix sums of the per-timestamp binned shift extremes in fold order:
/// `suffix[t]` is `[floor_min, floor_max, ceil_min, ceil_max]` summed
/// over fold steps `t..n`, each saturated at `cap` (a shift past the
/// window is simply "gone"). The per-step extremes are the first and
/// last shifts — `dvals` is sorted per timestamp.
fn shift_suffix(c: &PairContribs, shifts: &BinShifts, cap: usize) -> Vec<[usize; 4]> {
    let mut suffix = vec![[0usize; 4]; c.n + 1];
    for (t, &i) in c.fold_order().iter().enumerate().rev() {
        let (first, last) = (c.dstart[i], c.dstart[i + 1] - 1);
        let step = [
            shifts.floor[first],
            shifts.floor[last],
            shifts.ceil[first],
            shifts.ceil[last],
        ];
        let rest = suffix[t + 1];
        suffix[t] = std::array::from_fn(|k| (rest[k] + step[k] as usize).min(cap));
    }
    suffix
}

/// Output bins per register block of the fold kernel
/// ([`LiveHist::step`]). Each bin's sum is a chain of dependent adds, so
/// a block needs enough independent bins to hide the add latency; it is
/// also the zero padding on each side of a histogram buffer.
const LANES: usize = 32;

/// One floor- or ceil-rounded histogram window of `cap` bins, folded one
/// timestamp at a time by [`LiveHist::step`] — the one fold kernel behind
/// every convolution, estimate or decision.
///
/// Two ping-pong buffers hold bins `[0, cap)` at offset [`LANES`], with
/// `LANES` bins of padding on both sides. Every bin outside a buffer's
/// live window, padding included, is exactly `+0.0`: the kernel reads
/// whole register blocks without a bounds branch and relies on it.
struct LiveHist {
    cap: usize,
    cur: Vec<f64>,
    next: Vec<f64>,
    /// `cur`'s live window `[lo, hi)` in bins; `(0, 0)` when empty.
    live: (usize, usize),
    /// `next`'s live window of two steps ago, zeroed as it is overwritten.
    stale: (usize, usize),
    /// The untrimmed fold's occupied-prefix bound: every bin of the full
    /// `[0, cap)` window at or past it is zero. It caps `hi` and decides
    /// the sign of an all-zero total (see [`Self::total`]).
    sup: usize,
    /// This step's `(bin shift, merged weight)` groups, reused per step.
    groups: Vec<(usize, f64)>,
}

impl LiveHist {
    /// A histogram of unit mass at bin 0, in a window of `cap` bins.
    fn new(cap: usize) -> Self {
        let mut cur = vec![0.0f64; cap + 2 * LANES];
        cur[LANES] = 1.0;
        Self {
            cap,
            cur,
            next: vec![0.0f64; cap + 2 * LANES],
            live: (0, 1),
            stale: (0, 0),
            sup: 1,
            groups: Vec::new(),
        }
    }

    /// Back to unit mass at bin 0, zeroing only the bins still live.
    fn reset(&mut self) {
        for (buf, (lo, hi)) in [(&mut self.cur, self.live), (&mut self.next, self.stale)] {
            if lo < hi {
                buf[LANES + lo..LANES + hi].fill(0.0);
            }
        }
        self.cur[LANES] = 1.0;
        self.live = (0, 1);
        self.stale = (0, 0);
        self.sup = 1;
    }

    /// The live window: its first bin and its bins.
    fn live(&self) -> (usize, &[f64]) {
        let (lo, hi) = self.live;
        (lo, &self.cur[LANES + lo..LANES + hi])
    }

    /// Folds one timestamp into the window — the fold kernel. The step's
    /// distribution arrives as integer bin shifts (see [`BinShifts`])
    /// with the weights of [`PairContribs::step_distinct`]. Distinct
    /// values that land in the same bin merge into one group, their
    /// weights summed in ascending-value order. `rem_min` is the sum of
    /// the minimum shifts of the steps still to fold.
    ///
    /// Each output bin `j` is `0.0 + Σ_g src[j − shift_g]·w_g`, summed in
    /// a register block over the groups in ascending-shift order — the
    /// additions, and their order, of the historical input-stationary
    /// fold (one shifted saxpy per group into a zeroed window). The
    /// result is bit-identical to that fold on every bin it computes,
    /// and it computes only the bins that can matter:
    ///
    /// * **Below `lo`**, the sum of the folded minimum shifts, every bin
    ///   is an exact zero: no materialisation sums to less.
    /// * **At or past `cap − rem_min`**, mass can never return to the
    ///   window, so no later step or final sum reads those bins.
    ///
    /// The terms skipped — groups whose block reads fall outside the
    /// source's live window, bins read from the zero padding — are all
    /// `+0.0·w = +0.0`. Every mass is non-negative, so no partial sum is
    /// ever `-0.0` and adding `+0.0` leaves every bit unchanged.
    fn step(&mut self, shifts: &[u32], dwts: &[f64], rem_min: usize) {
        let cap = self.cap;
        let Self {
            cur,
            next,
            live,
            stale,
            sup,
            groups,
            ..
        } = self;
        let (src_lo, src_hi) = *live;
        // The untrimmed support: the largest in-window shift plus however
        // much of the old support it carries (shifts are sorted).
        *sup = shifts
            .iter()
            .rev()
            .map(|&s| s as usize)
            .find(|&s| s < cap)
            .map_or(0, |s| s + (cap - s).min(*sup));
        let lo = src_lo + shifts[0] as usize;
        let hi = (*sup).min(cap.saturating_sub(rem_min));
        let (lo, hi) = if src_lo < src_hi && lo < hi {
            (lo, hi)
        } else {
            (0, 0)
        };
        groups.clear();
        let mut idx = 0usize;
        while idx < shifts.len() {
            let shift = shifts[idx] as usize;
            if shift >= hi {
                break; // this and every later group lands past the window
            }
            let mut weight = dwts[idx];
            idx += 1;
            while idx < shifts.len() && shifts[idx] as usize == shift {
                weight += dwts[idx];
                idx += 1;
            }
            groups.push((shift, weight));
        }
        // The groups that read the source's live window for block
        // `[j0, j0 + LANES)` have shifts in `(j0 − src_hi, j0 + LANES −
        // 1 − src_lo]`: a sliding range, since groups ascend. Its reads
        // stay within `LANES − 1` bins of the live window, inside the
        // padding.
        let (mut first, mut end) = (0usize, 0usize);
        for j0 in (lo..hi).step_by(LANES) {
            while end < groups.len() && groups[end].0 + src_lo < j0 + LANES {
                end += 1;
            }
            while first < end && groups[first].0 + src_hi <= j0 {
                first += 1;
            }
            let mut acc = [0.0f64; LANES];
            for &(shift, weight) in &groups[first..end] {
                let at = LANES + j0 - shift;
                let block: &[f64; LANES] = cur[at..at + LANES]
                    .try_into()
                    .expect("a block is LANES bins");
                for (a, &v) in acc.iter_mut().zip(block) {
                    *a += v * weight;
                }
            }
            // Whole blocks store straight from registers; the last one
            // may run up to `LANES − 1` bins past `hi`, into the padding.
            next[LANES + j0..LANES + j0 + LANES].copy_from_slice(&acc);
        }
        // Zero what the last block wrote past `hi`, and what is left of
        // `next`'s old window outside the new one.
        let overrun = lo + (hi - lo).div_ceil(LANES) * LANES;
        let (old_lo, old_hi) = *stale;
        for (a, b) in [
            (hi, overrun),
            (old_lo, old_hi.min(lo)),
            (old_lo.max(hi), old_hi),
        ] {
            if a < b {
                next[LANES + a..LANES + b].fill(0.0);
            }
        }
        std::mem::swap(cur, next);
        *stale = *live;
        *live = (lo, hi);
    }

    /// The window's total mass after the last step (`rem_min = 0`, so the
    /// live window ends at `sup`), bit-identical to the untrimmed fold's
    /// `Σ bins[0..sup]`: the bins outside the live window are `+0.0`, and
    /// a sum of non-negative values that starts with some of them ends
    /// equal. Only an all-zero total tells them apart — an empty `f64`
    /// sum is `-0.0`, a sum of zeros `+0.0` — so it follows `sup`.
    fn total(&self) -> f64 {
        let (lo, hi) = self.live;
        if lo < hi {
            self.cur[LANES + lo..LANES + hi].iter().sum()
        } else if self.sup > 0 {
            0.0
        } else {
            -0.0
        }
    }
}

/// Histogram-convolution bounds `(lo, hi)` on `Pr(Σ Cᵢ ≤ ε²)` — or, with
/// `decide = Some(τ)`, the decision `½(lo + hi) ≥ τ`, abandoning the fold
/// as soon as running bounds settle it.
///
/// Two histograms cover `[0, total_max]`: one where every shift is
/// rounded *down* a bin (stochastically dominated by the true sum ⇒ upper
/// bound `hi` on the CDF) and one rounded *up* (lower bound `lo`). Both
/// CDFs are read at the largest integer bin `k` with `k·width ≤ ε²`.
///
/// Binned shifts are non-negative integers, so mass only ever moves right
/// and mass past `eps_bin` never returns: folding just the `[0, eps_bin]`
/// window — within it only the live bins ([`LiveHist::step`]) —
/// reproduces the full histograms' prefix bins bit-identically. The
/// timestamps fold tightest-first ([`PairContribs::fold_order`]), pushing
/// mass out of the window as fast as possible.
///
/// When deciding, integer suffix sums of the remaining shifts bracket
/// where the window's mass can still end up, so every step can bound
/// each side's final prefix mass; the fold abandons once the bounds clear
/// τ by more than [`DECISION_MARGIN`] (which dominates the ≲1e-12 mass
/// drift of the remaining steps). The two sides fold one after the other:
/// the ceil prefix never exceeds the floor prefix, so a reject needs only
/// the floor side (`est ≤ hi`) and an accept only the ceil side
/// (`est ≥ lo`), and the second side's bounds combine with the first
/// side's completed sum. A decision that never clears τ completes the
/// estimate's own fold, so it is the reference decision bit for bit.
fn convolve(
    c: &PairContribs,
    eps_sq: f64,
    bins: usize,
    decide: Option<f64>,
) -> Refined<(f64, f64)> {
    debug_assert!(
        decide.is_none_or(|tau| tau > 0.0),
        "τ ≤ 0 is decided before refinement"
    );
    let total_max = c.total_max;
    if total_max == 0.0 {
        // All samples identical: distance is exactly zero.
        let p = if 0.0 <= eps_sq { 1.0 } else { 0.0 };
        return Refined::Completed((p, p));
    }
    let width = total_max / bins as f64;
    let eps_bin = ((eps_sq / width).floor() as usize).min(bins);
    // The shortcuts below stand in for an estimate of 1 that drifts from
    // it only by `p_each` round-off (≪ margin); a τ within the margin of 1
    // needs the full computation instead.
    let below_one = decide.is_some_and(|tau| tau <= 1.0 - DECISION_MARGIN);
    if eps_bin >= bins {
        // ε² spans the whole sum range: the saturated top bin is inside
        // the prefix, so mass parked there by the `.min(bins)` cap counts
        // — fold the full histograms, or decide straight away.
        if below_one {
            return Refined::Decided(true);
        }
        return Refined::Completed(convolve_saturated(c, eps_bin, width, bins));
    }
    let cap = eps_bin + 1;
    let shifts = BinShifts::build(c, width);
    let suffix = shift_suffix(c, &shifts, cap);
    if decide.is_some() {
        // Whole-query shortcuts. All mass starts at bin 0, so the suffix
        // bounds at step 0 bracket the entire fold.
        if suffix[0][0] > eps_bin {
            // Even the floor-rounded shifts push every unit of mass past
            // ε²: `hi`, and with it the estimate, is exactly zero < τ.
            return Refined::Decided(false);
        }
        if suffix[0][3] <= eps_bin && below_one {
            // Even the ceil-rounded shifts keep all mass in the window:
            // `lo`, and with it the estimate, is the total mass.
            return Refined::Decided(true);
        }
    }
    // Which side folds first when deciding: the floor (reject) side when
    // a normal approximation from the sum's exact mean and variance puts
    // the estimate below τ. A pure cost heuristic — either order reaches
    // the same decision and the same bounds.
    let floor_first = decide.is_some_and(|tau| {
        let (mut mean, mut var) = (0.0f64, 0.0f64);
        for i in 0..c.n {
            let (vals, wts) = c.step_distinct(i);
            let (m1, m2) = vals.iter().zip(wts).fold((0.0, 0.0), |(m1, m2), (&v, &w)| {
                (m1 + v * w, m2 + v * v * w)
            });
            mean += m1;
            var += m2 - m1 * m1;
        }
        Normal::phi((eps_sq - mean) / var.max(0.0).sqrt()) < tau
    });
    let mut hist = LiveHist::new(cap);
    let (mut lo, mut hi) = (None, None);
    for ceil in [!floor_first, floor_first] {
        hist.reset();
        // This side's [min, max] slots of `suffix`, and the other side's
        // completed sum, if it has folded.
        let (k_min, k_max) = if ceil { (2, 3) } else { (0, 1) };
        let other = if ceil { hi } else { lo };
        for (t, &i) in c.fold_order().iter().enumerate() {
            let rem = suffix[t + 1];
            hist.step(shifts.step(c, i, ceil), c.step_distinct(i).1, rem[k_min]);
            // Bounding the final prefix costs a window scan; every 4th
            // step keeps that overhead at a quarter while delaying an
            // abandonment by at most three steps. The checks only
            // accelerate: completion is exact whichever steps test.
            let Some(tau) = decide.filter(|_| t % 4 == 3) else {
                continue;
            };
            // Mass needing more shift than the window affords is certainly
            // gone; mass that even the maximum remaining shift cannot push
            // out certainly stays.
            let (ub, lb) = bound_masses(hist.live(), eps_bin, rem[k_min], rem[k_max]);
            if let Some(hit) = settle(lb.min(1.0), ub.min(1.0), other, ceil, tau) {
                return Refined::Decided(hit);
            }
        }
        let total = hist.total().clamp(0.0, 1.0);
        if let Some(hit) = decide.and_then(|tau| settle(total, total, other, ceil, tau)) {
            return Refined::Decided(hit);
        }
        *(if ceil { &mut lo } else { &mut hi }) = Some(total);
    }
    Refined::Completed((
        lo.expect("both sides folded"),
        hi.expect("both sides folded"),
    ))
}

/// What bounds `[lb, ub]` on one side's final prefix mass say about the
/// estimate `½(lo + hi) ≥ τ`, given the other side's completed sum if it
/// has one. The ceil side's `lo` never exceeds the floor side's `hi`, so
/// alone the ceil side bounds the estimate only from below (`est ≥ lo`)
/// and the floor side only from above (`est ≤ hi`).
fn settle(lb: f64, ub: f64, other: Option<f64>, ceil: bool, tau: f64) -> Option<bool> {
    let (est_lo, est_hi) = match (other, ceil) {
        (Some(sum), _) => (0.5 * (lb + sum), 0.5 * (ub + sum)),
        (None, true) => (lb, 1.0),
        (None, false) => (0.0, ub),
    };
    if est_lo - DECISION_MARGIN >= tau {
        Some(true)
    } else if est_hi + DECISION_MARGIN < tau {
        Some(false)
    } else {
        None
    }
}

/// Full-histogram convolution with shift saturation into the top bin —
/// the historical fold, kept for the `eps_bin ≥ bins` case where the
/// saturated bin lies inside the CDF prefix.
fn convolve_saturated(c: &PairContribs, eps_bin: usize, width: f64, bins: usize) -> (f64, f64) {
    let mut lo_hist = vec![0.0f64; bins + 1];
    let mut hi_hist = vec![0.0f64; bins + 1];
    lo_hist[0] = 1.0;
    hi_hist[0] = 1.0;
    let mut scratch = vec![0.0f64; bins + 1];
    for i in 0..c.n {
        let diffs = c.step_raw(i);
        let p_each = c.p_each;
        for (hist, ceil) in [(&mut lo_hist, false), (&mut hi_hist, true)] {
            scratch.iter_mut().for_each(|v| *v = 0.0);
            for &d in diffs {
                let raw = d / width;
                let shift = if ceil {
                    raw.ceil() as usize
                } else {
                    raw.floor() as usize
                };
                for (k, &mass) in hist.iter().enumerate() {
                    if mass > 0.0 {
                        let idx = (k + shift).min(bins);
                        scratch[idx] += mass * p_each;
                    }
                }
            }
            hist.copy_from_slice(&scratch);
        }
    }
    let upper: f64 = lo_hist[..=eps_bin].iter().sum();
    let lower: f64 = hi_hist[..=eps_bin].iter().sum();
    (lower.clamp(0.0, 1.0), upper.clamp(0.0, 1.0))
}

/// One left-to-right pass over a live window (its first bin and its
/// bins, as [`LiveHist::live`] returns them), bounding its final prefix
/// mass: returns `(upper, lower)` — the mass that can still end at or
/// below `eps_bin` given at least `rem_min` more bins of rightward shift,
/// and the mass that stays at or below it even after `rem_max` more.
fn bound_masses(
    (lo, live): (usize, &[f64]),
    eps_bin: usize,
    rem_min: usize,
    rem_max: usize,
) -> (f64, f64) {
    debug_assert!(rem_min <= rem_max);
    let ub_end = (eps_bin + 1).saturating_sub(rem_min);
    let lb_end = (eps_bin + 1).saturating_sub(rem_max);
    // Bins outside the live window are exactly zero — truncating the
    // scan drops only +0.0 terms. Two partial sums keep the scans
    // branch-free; the re-association drift in `ub` (vs one running sum)
    // is far below [`DECISION_MARGIN`], and every consumer of these
    // bounds is margin-guarded.
    let scan = ub_end.min(lo + live.len()).saturating_sub(lo);
    let cut = lb_end.saturating_sub(lo).min(scan);
    let head: f64 = live[..cut].iter().sum();
    let tail: f64 = live[cut..scan].iter().sum();
    let lb = if lb_end > 0 { head } else { 0.0 };
    (head + tail, lb)
}

/// Upper bound on the Berry–Esseen constant for sums of independent,
/// not identically distributed terms (Shevtsova 2010):
/// `sup_t |Pr(S ≤ t) − Φ((t − μ)/√V)| ≤ C · Σ E|Cᵢ − E Cᵢ|³ / V^{3/2}`.
const BERRY_ESSEEN: f64 = 0.56;

/// The exact moments of a pair's squared distance `S = Σᵢ Cᵢ`, inflated
/// just enough to cover their floating-point error, and the two-sided
/// CDF bounds they imply.
struct SumMoments {
    /// `Σᵢ max Cᵢ`, accumulated exactly as `PairContribs::total_max` is.
    total_max: f64,
    /// `μ = Σ E[Cᵢ]`.
    mean: f64,
    /// `V = Σ Var(Cᵢ)`, inflated by a relative 1e-9.
    var: f64,
    /// `(√V, Berry–Esseen error)`, or `None` when `V` is too small for
    /// the third moments to be computed without underflow.
    normal: Option<(f64, f64)>,
}

impl SumMoments {
    /// The moments of `S` for a pair; `None` when any of them overflows.
    ///
    /// The per-timestamp moments are taken over the same `d = a − b`
    /// differences [`PairContribs::build`] enumerates, centred in a
    /// second pass, so no precision is lost to a large common offset.
    /// Nothing is allocated.
    fn of(x: &MultiObsSeries, y: &MultiObsSeries) -> Option<Self> {
        let inv_m = 1.0 / (x.samples_per_point() * y.samples_per_point()) as f64;
        let (mut mean, mut var, mut abs3, mut total_max) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        for i in 0..x.len() {
            let (xr, yr) = (x.row(i), y.row(i));
            let (mut sum, mut top) = (0.0f64, 0.0f64);
            for &a in xr {
                for &b in yr {
                    let d = a - b;
                    sum += d * d;
                    top = top.max(d * d);
                }
            }
            let e = sum * inv_m;
            let (mut dev2, mut dev3) = (0.0f64, 0.0f64);
            for &a in xr {
                for &b in yr {
                    let d = a - b;
                    let r = d * d - e;
                    dev2 += r * r;
                    dev3 += r * r * r.abs();
                }
            }
            mean += e;
            var += dev2 * inv_m;
            abs3 += dev3 * inv_m;
            total_max += top;
        }
        if !(mean.is_finite() && var.is_finite() && total_max.is_finite()) {
            return None;
        }
        let var = var * (1.0 + 1e-9);
        // Below V = 1e-100 a cubed deviation could underflow while still
        // mattering; the Cantelli bounds alone are safe at any scale.
        let normal = (var >= 1e-100 && abs3.is_finite()).then(|| {
            let sd = var.sqrt();
            // The relative and absolute allowances cover the moments'
            // rounding (V may be off by the 1e-9 inflation) and Φ's.
            (sd, BERRY_ESSEEN * (abs3 / var / sd) * (1.0 + 1e-8) + 1e-9)
        });
        Some(Self {
            total_max,
            mean,
            var,
            normal,
        })
    }

    /// An upper bound on `Pr(S ≤ t)`: the smaller of Cantelli's
    /// `V / (V + (μ − t)²)` (below the mean, else 1) and Berry–Esseen's.
    fn cdf_upper(&self, t: f64) -> f64 {
        let cantelli = if t >= self.mean {
            1.0
        } else if self.var == 0.0 {
            0.0
        } else {
            self.var / (self.var + (self.mean - t) * (self.mean - t))
        };
        match self.normal {
            Some((sd, err)) => cantelli.min(Normal::phi((t - self.mean) / sd) + err),
            None => cantelli,
        }
    }

    /// A lower bound on `Pr(S ≤ t)`: the larger of Cantelli's
    /// `1 − V / (V + (t − μ)²)` (above the mean, else 0) and
    /// Berry–Esseen's.
    fn cdf_lower(&self, t: f64) -> f64 {
        let cantelli = if t <= self.mean {
            0.0
        } else if self.var == 0.0 {
            1.0
        } else {
            1.0 - self.var / (self.var + (t - self.mean) * (t - self.mean))
        };
        match self.normal {
            Some((sd, err)) => cantelli.max(Normal::phi((t - self.mean) / sd) - err),
            None => cantelli,
        }
    }
}

/// What squared-distance bounds `[lb², ub²]` over every materialisation
/// pair say about `dist² ≤ ε²`: `Some(true)` when even the upper bound is
/// within (p = 1), `Some(false)` when even the lower bound is beyond
/// (p = 0), `None` when the bounds straddle ε².
fn bounds_decide(lb_sq: f64, ub_sq: f64, eps_sq: f64) -> Option<bool> {
    if ub_sq <= eps_sq {
        Some(true)
    } else if lb_sq > eps_sq {
        Some(false)
    } else {
        None
    }
}

/// Minimal-bounding-interval bounds on the squared Euclidean distance over
/// all materialisation pairs: per timestamp, the distance between samples
/// is bounded by the min/max distance between the MBIs.
fn interval_distance_sq_bounds(x: &MultiObsSeries, y: &MultiObsSeries) -> (f64, f64) {
    let mut lb = 0.0;
    let mut ub = 0.0;
    for i in 0..x.len() {
        let (xl, xh) = x.mbi(i);
        let (yl, yh) = y.mbi(i);
        let (lo, hi) = interval_pair_sq_range(xl, xh, yl, yh);
        lb += lo;
        ub += hi;
    }
    (lb, ub)
}

/// Precomputed per-timestamp minimal bounding intervals of one
/// multi-observation series.
///
/// MUNICH's filter step ("summarizing the repeated samples using minimal
/// bounding intervals") recomputes every row's min/max for *both* sides
/// of every candidate pair; building the envelope once per collection
/// member turns that `O(n·s)` per-pair cost into a one-time preparation
/// cost — the batched engine's per-collection state.
#[derive(Debug, Clone, PartialEq)]
pub struct MbiEnvelope {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl MbiEnvelope {
    /// Builds the envelope of a series (same per-row min/max as
    /// [`MultiObsSeries::mbi`], so downstream bounds are bit-identical to
    /// the pairwise path).
    pub fn build(m: &MultiObsSeries) -> Self {
        let mut lo = Vec::with_capacity(m.len());
        let mut hi = Vec::with_capacity(m.len());
        for i in 0..m.len() {
            let (l, h) = m.mbi(i);
            lo.push(l);
            hi.push(h);
        }
        Self { lo, hi }
    }

    /// Number of timestamps covered.
    pub fn len(&self) -> usize {
        self.lo.len()
    }

    /// Whether the envelope covers no timestamps.
    pub fn is_empty(&self) -> bool {
        self.lo.is_empty()
    }
}

/// MBI bounds on the squared Euclidean distance from precomputed
/// envelopes — bit-identical to the internal pairwise computation for the
/// series the envelopes were built from.
pub fn interval_distance_sq_bounds_enveloped(x: &MbiEnvelope, y: &MbiEnvelope) -> (f64, f64) {
    debug_assert_eq!(x.len(), y.len(), "envelope length mismatch");
    let mut lb = 0.0;
    let mut ub = 0.0;
    for i in 0..x.len() {
        let (lo, hi) = interval_pair_sq_range(x.lo[i], x.hi[i], y.lo[i], y.hi[i]);
        lb += lo;
        ub += hi;
    }
    (lb, ub)
}

/// Min/max of `(a − b)²` over `a ∈ [xl, xh]`, `b ∈ [yl, yh]`.
fn interval_pair_sq_range(xl: f64, xh: f64, yl: f64, yh: f64) -> (f64, f64) {
    // Min distance is 0 if the intervals overlap, else the gap.
    let gap = (yl - xh).max(xl - yh).max(0.0);
    let far = (xh - yl).abs().max((yh - xl).abs());
    (gap * gap, far * far)
}

#[cfg(test)]
mod unit {
    use super::*;
    use uts_stats::rng::Seed;
    use uts_tseries::TimeSeries;
    use uts_uncertain::{perturb_multi, ErrorFamily, ErrorSpec};

    /// Brute-force ground truth: enumerate ALL materialisation pairs.
    fn brute_force(x: &MultiObsSeries, y: &MultiObsSeries, eps: f64) -> f64 {
        let n = x.len();
        let sx = x.samples_per_point();
        let sy = y.samples_per_point();
        let total_x = sx.pow(n as u32);
        let total_y = sy.pow(n as u32);
        let mut hits = 0usize;
        for ix in 0..total_x {
            // Decode materialisation ix in base sx.
            let mut xv = Vec::with_capacity(n);
            let mut rem = ix;
            for i in 0..n {
                xv.push(x.row(i)[rem % sx]);
                rem /= sx;
            }
            for iy in 0..total_y {
                let mut rem = iy;
                let mut acc = 0.0;
                for (i, xs) in xv.iter().enumerate() {
                    let yv = y.row(i)[rem % sy];
                    rem /= sy;
                    let d = xs - yv;
                    acc += d * d;
                }
                if acc.sqrt() <= eps {
                    hits += 1;
                }
            }
        }
        hits as f64 / (total_x as f64 * total_y as f64)
    }

    fn small_pair(seed: u64, n: usize, s: usize) -> (MultiObsSeries, MultiObsSeries) {
        let clean = TimeSeries::from_values((0..n).map(|i| (i as f64 / 2.0).sin()));
        let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.4);
        let x = perturb_multi(&clean, &spec, s, Seed::new(seed));
        let y = perturb_multi(&clean, &spec, s, Seed::new(seed + 1000));
        (x, y)
    }

    #[test]
    fn exact_matches_brute_force() {
        let (x, y) = small_pair(1, 4, 3);
        for eps in [0.1, 0.5, 1.0, 2.0, 5.0] {
            let brute = brute_force(&x, &y, eps);
            let exact = exact_probability(&x, &y, eps * eps, 1_000_000).unwrap();
            assert!(
                (brute - exact).abs() < 1e-12,
                "ε={eps}: brute {brute} vs exact {exact}"
            );
        }
    }

    #[test]
    fn convolution_brackets_exact() {
        let (x, y) = small_pair(2, 5, 4);
        let c = PairContribs::build(&x, &y);
        for eps in [0.3, 0.8, 1.5, 3.0] {
            let truth = exact_probability(&x, &y, eps * eps, 10_000_000).unwrap();
            let (lo, hi) = convolve(&c, eps * eps, 4096, None).completed();
            assert!(
                lo <= truth + 1e-9 && truth <= hi + 1e-9,
                "ε={eps}: bounds [{lo}, {hi}] miss truth {truth}"
            );
            assert!(hi - lo < 0.2, "ε={eps}: bounds too loose: [{lo}, {hi}]");
        }
    }

    #[test]
    fn monte_carlo_approximates_exact() {
        // n = 5, s = 4: 16 pair-diffs per step, 16⁵ ≈ 1.0M support — within
        // the exact DP's reach.
        let (x, y) = small_pair(3, 5, 4);
        let munich_mc = Munich::new(MunichConfig {
            strategy: MunichStrategy::MonteCarlo { samples: 40_000 },
            use_mbi_filter: false,
            ..MunichConfig::default()
        });
        for eps in [0.8, 1.5, 2.5] {
            let truth = exact_probability(&x, &y, eps * eps, 10_000_000).unwrap();
            let est = munich_mc.probability_within(&x, &y, eps);
            assert!(
                (truth - est).abs() < 0.02,
                "ε={eps}: exact {truth} vs MC {est}"
            );
        }
    }

    #[test]
    fn auto_strategy_equals_exact_when_feasible() {
        let (x, y) = small_pair(4, 4, 3);
        let munich = Munich::default();
        for eps in [0.5, 1.2, 2.4] {
            let b = munich.try_probability_bounds(&x, &y, eps).unwrap();
            let truth = brute_force(&x, &y, eps);
            assert!(
                b.lo <= truth + 1e-9 && truth <= b.hi + 1e-9,
                "ε={eps}: [{}, {}] vs {truth}",
                b.lo,
                b.hi
            );
        }
    }

    #[test]
    fn mbi_filter_short_circuits() {
        // Identical multi-obs series with ε larger than the max possible
        // distance → probability exactly 1 via MBI alone.
        let (x, _) = small_pair(5, 4, 3);
        let munich = Munich::default();
        let (_, ub_sq) = interval_distance_sq_bounds(&x, &x);
        let eps = ub_sq.sqrt() + 0.1;
        let b = munich.try_probability_bounds(&x, &x, eps).unwrap();
        assert_eq!((b.lo, b.hi), (1.0, 1.0));
        // And ε below the min distance of two far-apart series → 0.
        let shifted = MultiObsSeries::from_rows(
            (0..x.len())
                .map(|i| x.row(i).iter().map(|v| v + 100.0).collect())
                .collect(),
        );
        let b = munich.try_probability_bounds(&x, &shifted, 1.0).unwrap();
        assert_eq!((b.lo, b.hi), (0.0, 0.0));
    }

    #[test]
    fn probability_monotone_in_epsilon() {
        let (x, y) = small_pair(6, 5, 3);
        let munich = Munich::default();
        let mut prev = 0.0;
        for i in 0..30 {
            let eps = i as f64 * 0.25;
            let p = munich.probability_within(&x, &y, eps);
            assert!((0.0..=1.0).contains(&p));
            assert!(p + 1e-9 >= prev, "not monotone at ε={eps}");
            prev = p;
        }
        assert!(prev > 0.999);
    }

    #[test]
    fn matches_uses_tau() {
        let (x, y) = small_pair(7, 4, 3);
        let munich = Munich::default();
        // Find an ε with interior probability.
        let mut eps = 0.1;
        while munich.probability_within(&x, &y, eps) < 0.5 {
            eps += 0.1;
        }
        let p = munich.probability_within(&x, &y, eps);
        assert!(munich.matches(&x, &y, eps, p - 0.05));
        assert!(!munich.matches(&x, &y, eps, (p + 0.05).min(1.0)));
    }

    #[test]
    fn interval_pair_sq_range_cases() {
        // Overlapping intervals: min 0.
        assert_eq!(interval_pair_sq_range(0.0, 2.0, 1.0, 3.0), (0.0, 9.0));
        // Disjoint: gap² to far².
        let (lo, hi) = interval_pair_sq_range(0.0, 1.0, 3.0, 5.0);
        assert_eq!(lo, 4.0);
        assert_eq!(hi, 25.0);
        // Point intervals.
        let (lo, hi) = interval_pair_sq_range(2.0, 2.0, -1.0, -1.0);
        assert_eq!(lo, 9.0);
        assert_eq!(hi, 9.0);
    }

    #[test]
    fn exact_gives_up_over_limit() {
        let (x, y) = small_pair(10, 8, 4);
        // 16 pairwise diffs per step, 8 steps → 16^8 ≈ 4.3e9 >> 1000.
        assert!(exact_probability(&x, &y, 1.0, 1000).is_none());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let a = MultiObsSeries::from_rows(vec![vec![0.0]]);
        let b = MultiObsSeries::from_rows(vec![vec![0.0], vec![1.0]]);
        let _ = Munich::default().probability_within(&a, &b, 1.0);
    }

    // ---------------------------------------------------------------
    // Decision pipeline: try_decide_within must equal matches, always
    // ---------------------------------------------------------------

    fn decision_taus(p: f64) -> Vec<f64> {
        vec![
            0.0,
            1e-9,
            0.25,
            (p - 1e-12).clamp(0.0, 1.0),
            p.clamp(0.0, 1.0),
            (p + 1e-12).clamp(0.0, 1.0),
            0.5,
            0.999,
            1.0,
        ]
    }

    /// Every decision entry point — pairwise and enveloped — decides as
    /// the reference `matches` at τ values around the pair's probability,
    /// and the enveloped estimate is bit-identical to the pairwise one.
    fn assert_decisions_match(
        munich: &Munich,
        x: &MultiObsSeries,
        y: &MultiObsSeries,
        eps: &[f64],
    ) {
        let (ex, ey) = (MbiEnvelope::build(x), MbiEnvelope::build(y));
        for &eps in eps {
            let p = munich.probability_within(x, y, eps);
            let p_env = munich.probability_within_enveloped(x, y, eps, &ex, &ey);
            assert_eq!(p_env.to_bits(), p.to_bits(), "ε={eps}");
            for tau in decision_taus(p) {
                let want = munich.matches(x, y, eps, tau);
                let ctx = format!("{:?} ε={eps} τ={tau} p={p}", munich.config());
                assert_eq!(munich.try_decide_within(x, y, eps, tau), Ok(want), "{ctx}");
                let enveloped = munich.matches_enveloped(x, y, eps, tau, &ex, &ey);
                assert_eq!(enveloped, want, "{ctx}");
            }
        }
    }

    #[test]
    fn decide_within_equals_matches_for_every_strategy() {
        let strategies = [
            MunichStrategy::Convolution { bins: 1024 },
            MunichStrategy::MonteCarlo { samples: 4000 },
            MunichStrategy::Auto,
        ];
        for (seed, n, s) in [(12, 5, 3), (13, 6, 2), (14, 4, 4), (15, 7, 1)] {
            let (x, y) = small_pair(seed, n, s);
            for strategy in strategies {
                let munich = Munich::new(MunichConfig {
                    strategy,
                    ..MunichConfig::default()
                });
                assert_decisions_match(&munich, &x, &y, &[0.0, 0.3, 0.7, 1.1, 1.9, 3.0, 10.0]);
            }
        }
    }

    #[test]
    fn decide_exercises_infeasible_exact_fallback() {
        // 8 timestamps × 16 distinct diffs: the exact DP is infeasible at
        // the tiny limit, so Auto decides through the convolution path —
        // still in lockstep with the naive estimate.
        let (x, y) = small_pair(16, 8, 4);
        let munich = Munich::new(MunichConfig {
            exact_support_limit: 100,
            ..MunichConfig::default()
        });
        assert_decisions_match(&munich, &x, &y, &[0.5, 1.5, 2.5, 4.0]);
    }

    #[test]
    fn enveloped_decision_equals_pairwise() {
        let (x, y) = small_pair(17, 5, 3);
        assert_decisions_match(&Munich::default(), &x, &y, &[0.2, 0.9, 1.7, 4.0]);
    }

    #[test]
    fn decide_without_filter_still_equals_matches() {
        let (x, y) = small_pair(18, 5, 3);
        let munich = Munich::new(MunichConfig {
            use_mbi_filter: false,
            ..MunichConfig::default()
        });
        assert_decisions_match(&munich, &x, &y, &[0.0, 0.6, 1.4, 6.0]);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn new_rejects_binless_convolution() {
        let _ = Munich::new(MunichConfig {
            strategy: MunichStrategy::Convolution { bins: 0 },
            ..MunichConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "at least one Monte-Carlo sample")]
    fn new_rejects_sampleless_monte_carlo() {
        let _ = Munich::new(MunichConfig {
            strategy: MunichStrategy::MonteCarlo { samples: 0 },
            ..MunichConfig::default()
        });
    }

    /// A GunPoint-shaped batch: `count` z-normalised plateau curves of
    /// length 150 (a rise, a hold, a fall, at varying onsets and widths),
    /// each observed with 3 normal samples (σ = 0.5) per timestamp.
    fn gunpoint_batch(seed: u64, count: usize) -> Vec<MultiObsSeries> {
        let spec = ErrorSpec::constant(ErrorFamily::Normal, 0.5);
        (0..count)
            .map(|k| {
                let k_f = k as f64;
                let (onset, width) = (40.0 + 6.0 * k_f, 45.0 + 4.0 * k_f);
                let clean = TimeSeries::from_values((0..150).map(|t| {
                    let t = t as f64;
                    let rise = 1.0 / (1.0 + (-(t - onset) / 4.0).exp());
                    let fall = 1.0 / (1.0 + (-(t - onset - width) / 4.0).exp());
                    rise - fall + 0.1 * (t / 9.0 + k_f).sin()
                }))
                .znormalized();
                perturb_multi(&clean, &spec, 3, Seed::new(seed).derive_u64(k as u64))
            })
            .collect()
    }

    /// The rung's moment bounds bracket the exact CDF on both sides of
    /// every atom of few-term sums, where Berry–Esseen is nearly tight: a
    /// single fair 0/1 term misses `Φ` by 0.34 just below its upper atom,
    /// against a bound of 0.56.
    #[test]
    fn moment_bounds_bracket_the_exact_cdf() {
        let rows = |r: &[&[f64]]| MultiObsSeries::from_rows(r.iter().map(|v| v.to_vec()).collect());
        let mut pairs = vec![
            (rows(&[&[0.0, 0.0]]), rows(&[&[0.0, 1.0]])),
            (rows(&[&[0.0]]), rows(&[&[0.0, 0.0, 0.0, 1.0]])),
            (
                rows(&[&[0.0, 0.0], &[2.0, 2.0]]),
                rows(&[&[0.0, 1.0], &[2.0, 3.0]]),
            ),
        ];
        pairs.extend(
            [(19, 1, 3), (20, 2, 2), (21, 3, 3), (22, 4, 2)]
                .map(|(seed, n, s)| small_pair(seed, n, s)),
        );
        for (x, y) in &pairs {
            let m = SumMoments::of(x, y).expect("finite moments");
            // Every materialisation's squared distance, by brute force.
            let c = PairContribs::build(x, y);
            let mut sums = vec![0.0f64];
            for i in 0..c.n {
                sums = sums
                    .iter()
                    .flat_map(|s| c.step_raw(i).iter().map(move |v| s + v))
                    .collect();
            }
            let cdf = |t: f64| sums.iter().filter(|&&s| s <= t).count() as f64 / sums.len() as f64;
            for &atom in &sums {
                for t in [atom, atom - 1e-9 * (1.0 + atom)] {
                    let p = cdf(t);
                    assert!(
                        m.cdf_lower(t) <= p && p <= m.cdf_upper(t),
                        "t={t}: [{}, {}] misses {p}",
                        m.cdf_lower(t),
                        m.cdf_upper(t)
                    );
                }
            }
        }
    }

    /// The moment rung, called directly on production-shaped pairs,
    /// never contradicts the reference estimate — on either side, and
    /// also at a resolution so coarse that the estimate sits far from the
    /// true probability — and it does decide pairs.
    #[test]
    fn moment_rung_never_contradicts_the_estimate() {
        let batch = gunpoint_batch(0x6E57, 6);
        for strategy in [
            MunichStrategy::Auto,
            MunichStrategy::Convolution { bins: 1024 },
            MunichStrategy::Convolution { bins: 64 },
        ] {
            let munich = Munich::new(MunichConfig {
                strategy,
                ..MunichConfig::default()
            });
            let (mut accepted, mut rejected, mut asked) = (0, 0, 0);
            for (i, x) in batch.iter().enumerate() {
                for y in &batch[i + 1..] {
                    for eps_sq in [60.0, 110.0, 160.0, 260.0] {
                        let mut estimate = None;
                        for tau in [0.1, 0.5, 0.9] {
                            asked += 1;
                            let Some(hit) = munich.moment_rung(x, y, eps_sq, tau) else {
                                continue;
                            };
                            if hit {
                                accepted += 1;
                            } else {
                                rejected += 1;
                            }
                            let p = *estimate.get_or_insert_with(|| {
                                munich.refine(x, y, eps_sq, None).completed().estimate()
                            });
                            assert_eq!(hit, p >= tau, "{strategy:?} ε²={eps_sq} τ={tau} p={p}");
                        }
                    }
                }
            }
            assert!(
                accepted > 0 && rejected > 0,
                "{strategy:?}: the rung accepted {accepted} and rejected {rejected} of {asked}"
            );
        }
        let mc = Munich::new(MunichConfig {
            strategy: MunichStrategy::MonteCarlo { samples: 100 },
            ..MunichConfig::default()
        });
        assert_eq!(mc.moment_rung(&batch[0], &batch[1], 1e6, 0.5), None);
    }

    #[test]
    fn try_apis_report_typed_errors() {
        let a = MultiObsSeries::from_rows(vec![vec![0.0]]);
        let b = MultiObsSeries::from_rows(vec![vec![0.0], vec![1.0]]);
        let munich = Munich::default();
        let err = munich.try_probability_bounds(&a, &b, 1.0).unwrap_err();
        assert_eq!(
            err,
            InputError::LengthMismatch {
                expected: 1,
                got: 2
            }
        );
        let err = munich.try_decide_within(&a, &a, -1.0, 0.5).unwrap_err();
        assert_eq!(err, InputError::InvalidEpsilon(-1.0));
        let err = munich.try_decide_within(&a, &a, 1.0, 1.5).unwrap_err();
        assert_eq!(err, InputError::InvalidTau(1.5));
        // NaN thresholds are invalid, not silently accepted.
        assert!(munich.try_decide_within(&a, &a, f64::NAN, 0.5).is_err());
        assert!(munich.try_decide_within(&a, &a, 1.0, f64::NAN).is_err());
        // The valid case still answers.
        assert_eq!(munich.try_decide_within(&a, &a, 1.0, 0.5), Ok(true));
    }

    // ---------------------------------------------------------------
    // The fold kernel: bit-identical to the historical fold
    // ---------------------------------------------------------------

    /// The historical input-stationary convolution, kept unchanged as the
    /// bit-identity oracle for [`convolve`].
    ///
    /// Histogram-convolution bounds on `Pr(Σ Cᵢ ≤ ε²)`.
    ///
    /// Maintains two histograms over `[0, total_max]`: one where every shift
    /// is rounded *down* a bin (stochastically dominated by the true sum ⇒
    /// upper bound on the CDF) and one rounded *up* (lower bound). The final
    /// CDF at `ε²` is read off both.
    fn reference_convolve(c: &PairContribs, eps_sq: f64, bins: usize) -> (f64, f64) {
        let total_max = c.total_max;
        if total_max == 0.0 {
            // All samples identical: distance is exactly zero.
            return if 0.0 <= eps_sq {
                (1.0, 1.0)
            } else {
                (0.0, 0.0)
            };
        }
        let width = total_max / bins as f64;
        let eps_bin = ((eps_sq / width).floor() as usize).min(bins);
        if eps_bin >= bins {
            // The saturated top bin is inside the prefix, so mass parked
            // there by the `.min(bins)` cap counts — fold the full
            // histograms.
            return convolve_saturated(c, eps_bin, width, bins);
        }
        // Only the prefix bins `[0, eps_bin]` are ever read, and binned
        // shifts are non-negative integers — mass that leaves the prefix can
        // never return. Folding just that window reproduces the full
        // histograms' prefix bins *bit-identically* (same additions, same
        // order), at `cap / bins` of the cost.
        let cap = eps_bin + 1;
        let mut wf = vec![0.0f64; cap];
        let mut wc = vec![0.0f64; cap];
        wf[0] = 1.0;
        wc[0] = 1.0;
        let mut sf = vec![0.0f64; cap];
        let mut sc = vec![0.0f64; cap];
        let (mut sup_f, mut sup_c) = (1usize, 1usize);
        // Tightest-first order — the same order the decision pipeline folds
        // in, so an abandoned decision that completes instead reproduces this
        // fold's floating-point trajectory exactly. (Any order yields valid
        // bounds; sharing one keeps decide ≡ estimate ≥ τ bit-for-bit.)
        let shifts = BinShifts::build(c, width);
        for &i in c.fold_order() {
            let (_, dw) = c.step_distinct(i);
            sup_f = reference_fold_step(&wf, &mut sf, shifts.step(c, i, false), dw, sup_f);
            std::mem::swap(&mut wf, &mut sf);
            sup_c = reference_fold_step(&wc, &mut sc, shifts.step(c, i, true), dw, sup_c);
            std::mem::swap(&mut wc, &mut sc);
        }
        // Floored sums never exceed the true sums, so their CDF dominates the
        // true CDF (upper bound); ceiled sums never fall below the true sums,
        // so their CDF is dominated (lower bound). Both CDFs are read at the
        // largest integer bin k with k·width ≤ ε².
        // Bins past the occupied support are exact zeros — restricting the
        // sums drops only `+0.0` terms.
        let upper: f64 = wf[..sup_f].iter().sum();
        let lower: f64 = wc[..sup_c].iter().sum();
        (lower.clamp(0.0, 1.0), upper.clamp(0.0, 1.0))
    }

    /// One per-timestamp fold of a histogram window: adds every binned shift
    /// of `src` into `dst` (zeroed here), dropping mass that leaves the
    /// window (shifts are non-negative, so it can never return). Callers
    /// ping-pong two buffers through successive steps instead of copying.
    ///
    /// The step's distribution arrives as precomputed integer shifts (see
    /// [`BinShifts`]) with the aggregated weights of
    /// [`PairContribs::step_distinct`]. Distinct values that land in the
    /// same bin merge into a single weighted saxpy (their weights summing
    /// in ascending-value order). Sortedness also makes the binned shifts
    /// monotone: the fold stops at the first shift past the window.
    ///
    /// `src_support` bounds the occupied prefix of `src` (`src[src_support..]`
    /// is exactly zero); the return value is the same bound for `dst`.
    /// Restricting the shifted saxpys to the occupied prefix skips only
    /// exact `+0.0` terms, so the result is bit-identical to a full-window
    /// fold.
    fn reference_fold_step(
        src: &[f64],
        dst: &mut [f64],
        shifts: &[u32],
        dwts: &[f64],
        src_support: usize,
    ) -> usize {
        let cap = src.len();
        // Occupied-prefix bound for `dst`: the largest in-window shift plus
        // however much of `src`'s support it carries. Shifts are monotone
        // over the sorted values, so scan from the top.
        let mut dst_support = 0usize;
        for &s in shifts.iter().rev() {
            let shift = s as usize;
            if shift < cap {
                dst_support = shift + (cap - shift).min(src_support);
                break;
            }
        }
        // `dst` is the ping-pong partner: its stale occupied prefix is the
        // support of two steps ago, which never exceeds `src_support`
        // (support is monotone while any shift stays inside the window, and
        // the dead-window case zeroes up to the old support here). Zeroing
        // to the larger of the old and new supports therefore keeps every
        // untouched bin an exact zero without re-zeroing the full window.
        let zero_to = dst_support.max(src_support);
        dst[..zero_to].iter_mut().for_each(|v| *v = 0.0);
        let mut idx = 0usize;
        while idx < shifts.len() {
            let shift = shifts[idx] as usize;
            if shift >= cap {
                break; // this and every later destination is past the window
            }
            let mut weight = dwts[idx];
            idx += 1;
            while idx < shifts.len() && shifts[idx] as usize == shift {
                weight += dwts[idx];
                idx += 1;
            }
            let len = (cap - shift).min(src_support);
            // Shifted saxpy over disjoint slices: bounds-check-free and
            // autovectorizable.
            for (out, &inp) in dst[shift..shift + len].iter_mut().zip(src[..len].iter()) {
                *out += inp * weight;
            }
        }
        dst_support
    }

    /// ε² values where the live window is at its edges: just below, at
    /// and just above the sum of the per-step minima — exact, floor-binned
    /// and ceil-binned at `bins`, where the floor or ceil window empties —
    /// and around `total_max`, where the window saturates.
    fn edge_eps_sq(c: &PairContribs, bins: usize) -> Vec<f64> {
        let w = c.total_max / bins as f64;
        let (mut exact, mut floor, mut ceil) = (0.0f64, 0.0f64, 0.0f64);
        for &m in &c.step_min {
            exact += m;
            floor += (m / w).floor();
            ceil += (m / w).ceil();
        }
        let mut out = Vec::new();
        for base in [exact, floor * w, ceil * w, c.total_max] {
            for x in [
                base * (1.0 - 1e-12),
                base,
                base * (1.0 + 1e-12),
                base - 0.5 * w,
                base + 0.5 * w,
            ] {
                if x >= 0.0 {
                    out.push(x);
                }
            }
        }
        out
    }

    /// Both bounds of the live-window fold equal the historical fold's,
    /// bit for bit (`to_bits`, so the sign of a zero counts too).
    fn assert_fold_bits(c: &PairContribs, eps_sq: f64, bins: usize) {
        let (lo, hi) = convolve(c, eps_sq, bins, None).completed();
        let (ref_lo, ref_hi) = reference_convolve(c, eps_sq, bins);
        assert_eq!(
            (lo.to_bits(), hi.to_bits()),
            (ref_lo.to_bits(), ref_hi.to_bits()),
            "bins={bins} ε²={eps_sq} n={}: ({lo:e}, {hi:e}) vs reference ({ref_lo:e}, {ref_hi:e})",
            c.n
        );
    }

    /// The fold bins at which both the exact and the empty-window cases
    /// are checked: the production default, two coarser powers of two,
    /// one that is not a power of two, and a single bin.
    const FOLD_BINS: [usize; 5] = [8192, 1024, 64, 1000, 1];

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(24))]

        /// Random pairs — sample counts differing per side, a common
        /// offset up to ±1e4, noise down to σ = 1e-3 — at every bin count,
        /// at random ε² and at the live window's edges.
        #[test]
        fn live_fold_is_bit_identical_to_reference(
            (n, sx, sy) in (1usize..24, 1usize..5, 1usize..5),
            (offset, log_sigma) in (-1e4..1e4f64, -3.0..0.5f64),
            pool in proptest::collection::vec(-1.0..1.0f64, 2 * 24 * 4),
            fracs in proptest::collection::vec(0.0..1.2f64, 3),
        ) {
            let sigma = 10f64.powf(log_sigma);
            let rows = |s: usize, noise: &[f64], phase: f64| {
                MultiObsSeries::from_rows(
                    (0..n)
                        .map(|i| {
                            let base = offset + (i as f64 / 3.0 + phase).sin();
                            (0..s).map(|k| base + sigma * noise[i * s + k]).collect()
                        })
                        .collect(),
                )
            };
            let c = PairContribs::build(&rows(sx, &pool, 0.0), &rows(sy, &pool[24 * 4..], 0.7));
            for bins in FOLD_BINS {
                for eps_sq in edge_eps_sq(&c, bins) {
                    assert_fold_bits(&c, eps_sq, bins);
                }
                for &f in &fracs {
                    assert_fold_bits(&c, f * c.total_max, bins);
                }
            }
        }
    }

    /// Production-shaped pairs (length 150, 3 samples a side) at every
    /// bin count, across the bulk of the distribution and at the live
    /// window's edges.
    #[test]
    fn live_fold_matches_reference_on_gunpoint_batch() {
        let batch = gunpoint_batch(0xF01D, 3);
        for (i, x) in batch.iter().enumerate() {
            for y in &batch[i + 1..] {
                let c = PairContribs::build(x, y);
                for bins in FOLD_BINS {
                    for eps_sq in edge_eps_sq(&c, bins).into_iter().chain([60.0, 160.0]) {
                        assert_fold_bits(&c, eps_sq, bins);
                    }
                }
            }
        }
    }
}
