//! DUST — a generalised notion of similarity between uncertain time
//! series (Sarangi & Murthy, KDD 2010; paper §2.3).
//!
//! DUST defines a per-point dissimilarity from the probability that the
//! *true* values behind two observations coincide:
//!
//! ```text
//! φ(Δ)       — "similarity kernel" at observed difference Δ = |x − y|
//! dust(x, y) = sqrt( −log φ(|x − y|) − k ),   k = −log φ(0)
//! DUST(X, Y) = sqrt( Σᵢ dust(xᵢ, yᵢ)² )
//! ```
//!
//! Under the uniform prior over true values that the DUST paper assumes,
//! `φ(Δ)` is the density of the error difference `e_x − e_y` evaluated at
//! Δ — the cross-correlation of the two error densities. Because `dust`
//! only ever uses `log(φ(0)/φ(Δ))`, any constant normalisation of φ
//! cancels; this module therefore works with the un-normalised density.
//!
//! Three analytic kernels cover the paper's error families, with adaptive
//! numeric integration (from `uts-stats`) for arbitrary cross-family
//! pairs:
//!
//! * **normal ⊗ normal** — `e_x − e_y ∼ N(0, σx² + σy²)`, giving
//!   `dust(x, y) = Δ / √(2(σx² + σy²))`: exactly proportional to the L1
//!   point distance, which reproduces the paper's remark that DUST is
//!   "equivalent to the Euclidean distance, in the case where the error
//!   … follows the normal distribution".
//! * **uniform ⊗ uniform** — triangular/trapezoidal difference density
//!   with *bounded support*: `φ(Δ) = 0` for large Δ, the degenerate
//!   `log 0` the paper hit in §4.2.1. The fix implemented here is the
//!   paper's own workaround: "adding two tails to the uniform error, so
//!   that the error probability density function is never exactly zero" —
//!   an ε-mixture with a wide Gaussian ([`DustConfig::uniform_tail_weight`]).
//! * **exponential ⊗ exponential** — the difference of two zero-mean
//!   shifted exponentials is an (asymmetric) Laplace; analytic.
//!
//! Like the original implementation, `dust` values are served from
//! per-(families, σx, σy) **lookup tables** over a Δ grid
//! (paper §4.2.1 mentions "how the DUST lookup tables are determined"),
//! built lazily and cached behind an `std::sync::RwLock`. One loop,
//! [`Dust::distance_sq_early_abandon`], serves every aligned question —
//! the distance, range decisions and top-k scans — and DUST-DTW serves
//! each cell the same way: the table's interpolation on the grid, the
//! exact kernel only beyond it. [`Dust::dust_squared_exact`] exposes that
//! exact kernel as the reference the tables are tested against.

use std::collections::HashMap;
use std::sync::{Arc, RwLock};

use uts_stats::dist::{ContinuousDistribution, Normal};
use uts_stats::integrate::adaptive_simpson_with_breaks;
use uts_tseries::dtw::{dtw_with_cost, DtwOptions};
use uts_uncertain::{ErrorFamily, PointError, UncertainSeries};

/// Largest distinct-error-set size for which [`Dust::bound_envelope`]
/// builds an envelope (resolving every ordered pair's table as it goes)
/// and [`Dust::warm_tables`] warms eagerly. The paper's workloads carry
/// at most a handful of (family, σ) levels; sample-estimated workloads
/// with per-point σ blow past this and stay on lazy per-pair resolution.
pub const MAX_WARM_ERRORS: usize = 16;

/// DUST configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DustConfig {
    /// Number of grid cells in each lookup table.
    pub table_resolution: usize,
    /// Tables cover `Δ ∈ [0, table_max_delta]`; beyond the grid the exact
    /// kernel is evaluated directly.
    pub table_max_delta: f64,
    /// Mixture weight of the Gaussian tail added to uniform errors so
    /// `φ` never reaches zero (the paper's §4.2.1 workaround). Applied
    /// only when at least one side is uniform.
    pub uniform_tail_weight: f64,
    /// Relative width of the Gaussian tail (in multiples of the uniform
    /// σ).
    pub uniform_tail_width: f64,
}

impl Default for DustConfig {
    fn default() -> Self {
        Self {
            table_resolution: 4096,
            table_max_delta: 16.0,
            uniform_tail_weight: 1e-3,
            uniform_tail_width: 3.0,
        }
    }
}

/// Cache key: families plus bit-exact σ values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TableKey {
    fx: ErrorFamily,
    fy: ErrorFamily,
    sx_bits: u64,
    sy_bits: u64,
}

impl TableKey {
    fn new(ex: PointError, ey: PointError) -> Self {
        Self {
            fx: ex.family,
            fy: ey.family,
            sx_bits: ex.sigma.to_bits(),
            sy_bits: ey.sigma.to_bits(),
        }
    }
}

/// A precomputed `dust²(Δ)` grid with linear interpolation.
#[derive(Debug)]
struct DustTable {
    /// `dust²` sampled at `Δ = i · step`.
    values: Box<[f64]>,
    step: f64,
}

impl DustTable {
    fn lookup(&self, delta: f64) -> Option<f64> {
        let pos = delta / self.step;
        let idx = pos.floor() as usize;
        if idx + 1 >= self.values.len() {
            return None; // out of table range; caller computes exactly
        }
        let frac = pos - idx as f64;
        Some(self.values[idx] * (1.0 - frac) + self.values[idx + 1] * frac)
    }
}

/// An admissible lower envelope of `dust²(Δ)` across *every ordered
/// pair* of a collection's distinct error descriptions — the φ-space
/// bound that lets the candidate index ([`crate::index`]) prune DUST
/// queries.
///
/// Construction (see [`Dust::bound_envelope`]): take the pointwise
/// minimum of every pair's sampled `dust²` grid, make it monotone with a
/// suffix-minimum sweep, then take the *lower convex hull* of the result.
/// The stored per-cell values are the hull evaluated at the grid (never
/// above the suffix-min samples), and [`DustBoundTable::cost`] rounds a
/// gap *down* to its cell's left edge. Three properties follow, and they
/// are exactly what the index's admissibility argument needs:
///
/// 1. **One-sided vs. the lookup kernel, unconditionally.** On any grid
///    cell the served kernel is the lerp of the two bracketing samples,
///    and the hull sits below every chord of points it was built from —
///    so `cost(g) ≤ dust²_served(Δ)` for every pair and every `Δ ≥ g`,
///    with no monotonicity assumption on the underlying kernel.
/// 2. **Monotone nondecreasing** (suffix-min + hull of a nondecreasing
///    sequence), so a per-segment *minimum* gap can stand in for every
///    member of a leaf's MBR.
/// 3. **Convex**, so Jensen's inequality pushes the bound through the
///    PAA averaging: `Σᵢ dust²(Δᵢ) ≥ (n/m)·Σ_s cost(gap_s)` for the
///    per-segment PAA gaps — the same `√(n/m)`-scaled shape as the
///    Euclidean Keogh bound, which is why the index's squared-space
///    plumbing is shared verbatim.
///
/// Beyond the grid the envelope extends linearly with the hull's final
/// slope, validated against beyond-grid probes of the exact kernel at
/// construction (a probe falling under the extension refuses the
/// envelope — the engine then keeps the exact scan). With z-normalised
/// inputs and the default 16.0 grid range the extension is unreachable.
#[derive(Debug, Clone)]
pub struct DustBoundTable {
    /// Envelope value at grid cell `j` (`Δ = j · step`); `bounds[0] = 0`.
    bounds: Box<[f64]>,
    step: f64,
    /// Slope of the linear extension beyond the last grid cell.
    tail_slope: f64,
    /// Largest per-point |Δ| the envelope is admissible for (the last
    /// beyond-grid probe of the exact kernel). The engine compares the
    /// workload's maximum possible gap against this before engaging the
    /// index.
    valid_delta: f64,
}

impl DustBoundTable {
    /// The envelope's value for a per-segment gap: a lower bound on
    /// `dust²(Δ)` for every ordered error pair of the set the envelope
    /// was built over and every `|Δ| ≥ gap`, admissible up to the
    /// validity horizon ([`DustBoundTable::valid_delta`]). Non-positive
    /// and NaN gaps cost 0 (the envelope starts at `dust²(0) = 0`).
    #[must_use]
    pub fn cost(&self, gap: f64) -> f64 {
        if gap.is_nan() || gap <= 0.0 {
            return 0.0;
        }
        let idx = (gap / self.step) as usize;
        if let Some(&b) = self.bounds.get(idx) {
            return b;
        }
        let last = self.bounds.len() - 1;
        if self.tail_slope == 0.0 {
            return self.bounds[last]; // avoid 0·∞ on an infinite gap
        }
        self.bounds[last] + self.tail_slope * (gap - last as f64 * self.step)
    }

    /// Grid spacing (same as the lookup tables the envelope was built
    /// from).
    #[must_use]
    pub fn grid_step(&self) -> f64 {
        self.step
    }

    /// Number of grid cells.
    #[must_use]
    pub fn grid_len(&self) -> usize {
        self.bounds.len()
    }

    /// Slope of the beyond-grid linear extension.
    #[cfg(test)]
    fn tail_slope(&self) -> f64 {
        self.tail_slope
    }

    /// The envelope's validity horizon: [`DustBoundTable::cost`] is an
    /// admissible lower bound only while every per-point |Δ| a query can
    /// produce stays at or below this value. Callers with larger
    /// potential gaps must fall back to the exact scan.
    #[must_use]
    pub fn valid_delta(&self) -> f64 {
        self.valid_delta
    }
}

/// The DUST distance.
///
/// Cloning shares the table cache (cheap `Arc` clone), so one `Dust`
/// value can serve many threads.
#[derive(Debug, Clone)]
pub struct Dust {
    config: DustConfig,
    tables: Arc<RwLock<HashMap<TableKey, Arc<DustTable>>>>,
}

impl Default for Dust {
    fn default() -> Self {
        Self::new(DustConfig::default())
    }
}

impl Dust {
    /// Creates DUST with the given configuration.
    pub fn new(config: DustConfig) -> Self {
        assert!(
            config.table_resolution >= 2,
            "table needs at least two cells"
        );
        assert!(config.table_max_delta > 0.0, "table range must be positive");
        assert!(
            (0.0..1.0).contains(&config.uniform_tail_weight),
            "tail weight must be in [0, 1)"
        );
        Self {
            config,
            tables: Arc::new(RwLock::new(HashMap::new())),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DustConfig {
        &self.config
    }

    /// Number of lookup tables built so far.
    #[cfg(test)]
    fn cached_tables(&self) -> usize {
        self.tables.read().expect("dust table lock").len()
    }

    /// Per-point squared dust value `dust²(x, y) = −log φ(Δ) + log φ(0)`,
    /// clamped at zero (skewed error pairs can peak away from Δ = 0; the
    /// clamp preserves `dust(x, x) = 0` reflexivity, the role of the
    /// paper's constant `k`).
    pub fn dust_squared(&self, ex: PointError, ey: PointError, delta: f64) -> f64 {
        let table = self.resolve_table(TableKey::new(ex, ey), ex, ey);
        self.served(&table, ex, ey, delta.abs())
    }

    /// [`Dust::dust_squared`] evaluated from the kernel itself, with no
    /// lookup table: the reference the served tables interpolate. Builds
    /// no table; each call evaluates the kernel (a numeric integration
    /// for cross-family pairs).
    pub fn dust_squared_exact(&self, ex: PointError, ey: PointError, delta: f64) -> f64 {
        dust_sq_exact(&self.config, ex, ey, delta.abs())
    }

    /// Per-point dust value (paper's `dust(x, y)`).
    pub fn dust(&self, ex: PointError, ey: PointError, delta: f64) -> f64 {
        self.dust_squared(ex, ey, delta).sqrt()
    }

    /// The DUST distance between two uncertain series (paper Eq. 13).
    ///
    /// Consecutive points sharing an error pair (the common case: the
    /// paper's workloads use one or two σ levels) reuse the resolved
    /// lookup table, so the shared-cache lock is touched once per *run*
    /// of equal error pairs rather than once per point.
    ///
    /// # Panics
    /// If the series lengths differ.
    pub fn distance(&self, x: &UncertainSeries, y: &UncertainSeries) -> f64 {
        self.distance_sq_early_abandon(x, y, f64::INFINITY)
            .expect("no abandonment at an infinite limit")
            .sqrt()
    }

    /// Squared DUST distance with early abandonment: `Some(Σ dust²)` when
    /// the running sum never exceeds `limit`, `None` as soon as it does.
    ///
    /// The accumulation is the exact loop [`Dust::distance`] runs (same
    /// term order, same table lookups), so `Some(s)` implies
    /// `Dust::distance(x, y) == s.sqrt()` bit-for-bit — the property the
    /// batched query engine's ε²-pruned range scans rely on.
    ///
    /// # Panics
    /// If the series lengths differ.
    pub fn distance_sq_early_abandon(
        &self,
        x: &UncertainSeries,
        y: &UncertainSeries,
        limit: f64,
    ) -> Option<f64> {
        assert_eq!(x.len(), y.len(), "DUST requires equal-length series");
        let mut acc = 0.0;
        let mut memo = None;
        for i in 0..x.len() {
            let ex = x.error_at(i);
            let ey = y.error_at(i);
            let delta = (x.value_at(i) - y.value_at(i)).abs();
            acc += self.served(self.memo_table(&mut memo, ex, ey), ex, ey, delta);
            if acc > limit {
                return None;
            }
        }
        Some(acc)
    }

    /// The table for `(ex, ey)`, resolved through the shared cache only
    /// when the pair differs from the one `memo` holds. Runs of equal
    /// error pairs (the common case: the paper's workloads use one or
    /// two σ levels) then borrow the table without touching the lock or
    /// the `Arc` refcount.
    #[inline]
    fn memo_table<'m>(
        &self,
        memo: &'m mut Option<(TableKey, Arc<DustTable>)>,
        ex: PointError,
        ey: PointError,
    ) -> &'m DustTable {
        let key = TableKey::new(ex, ey);
        if memo.as_ref().is_some_and(|(k, _)| *k != key) {
            *memo = None;
        }
        &memo
            .get_or_insert_with(|| (key, self.resolve_table(key, ex, ey)))
            .1
    }

    /// The served `dust²` at `|Δ|`: the table's interpolation on the
    /// grid, the exact kernel beyond it.
    #[inline]
    fn served(&self, table: &DustTable, ex: PointError, ey: PointError, delta: f64) -> f64 {
        match table.lookup(delta) {
            Some(v) => v,
            None => dust_sq_exact(&self.config, ex, ey, delta),
        }
    }

    /// Fetches (building if necessary) the table for an error pair.
    fn resolve_table(&self, key: TableKey, ex: PointError, ey: PointError) -> Arc<DustTable> {
        if let Some(t) = self.tables.read().expect("dust table lock").get(&key) {
            return t.clone();
        }
        let t = Arc::new(self.build_table(ex, ey));
        self.tables
            .write()
            .expect("dust table lock")
            .entry(key)
            .or_insert_with(|| t.clone());
        t
    }

    /// DUST as the local cost of Dynamic Time Warping (paper §3.2: DUST
    /// "can be employed to compute the Dynamic Time Warping distance").
    ///
    /// Each cell serves `dust²` exactly as [`Dust::dust_squared`] does,
    /// through the same last-error-pair memo as the aligned kernels.
    pub fn dtw_distance(&self, x: &UncertainSeries, y: &UncertainSeries, opts: DtwOptions) -> f64 {
        let mut memo = None;
        dtw_with_cost(
            x.len(),
            y.len(),
            |i, j| {
                let (ex, ey) = (x.error_at(i), y.error_at(j));
                let delta = (x.value_at(i) - y.value_at(j)).abs();
                self.served(self.memo_table(&mut memo, ex, ey), ex, ey, delta)
            },
            opts,
        )
        .sqrt()
    }

    /// Pre-resolves the lookup tables for every ordered pair of the given
    /// error descriptions, or nothing when there are more than
    /// [`MAX_WARM_ERRORS`] of them (eager warming is quadratic in
    /// distinct errors).
    ///
    /// The query engine does not call this: [`Dust::bound_envelope`]
    /// resolves the same tables while it builds. It is public only for
    /// the benchmark's trace mirror (the `perfbench` package), which
    /// warms its shards through it; once that mirror moves off it, it
    /// goes.
    pub fn warm_tables(&self, errors: &[PointError]) {
        if errors.len() > MAX_WARM_ERRORS {
            return;
        }
        for &ex in errors {
            for &ey in errors {
                let _ = self.resolve_table(TableKey::new(ex, ey), ex, ey);
            }
        }
    }

    /// Builds the admissible φ-space lower envelope ([`DustBoundTable`])
    /// over every ordered pair of the given distinct error descriptions,
    /// or `None` when no sound envelope is available: an empty or
    /// over-[`MAX_WARM_ERRORS`] error set (the per-point-σ workloads that
    /// also skip eager warming), or a beyond-grid probe of the exact
    /// kernel evaluating to NaN (the tail cannot then be validated).
    /// Refusal is always safe — the engine keeps the exact scan.
    pub fn bound_envelope(&self, errors: &[PointError]) -> Option<DustBoundTable> {
        if errors.is_empty() || errors.len() > MAX_WARM_ERRORS {
            return None;
        }
        let n = self.config.table_resolution;
        let step = self.config.table_max_delta / (n - 1) as f64;
        let x_last = (n - 1) as f64 * step;
        // Pointwise minimum over every ordered pair's sampled dust² grid
        // (the same cached tables the query kernel serves from), extended
        // by a geometric ladder of beyond-grid probes of the exact
        // kernel. The probes are *not* trusted between their sample
        // points — the kernels are monotone but not convex out there (a
        // mixture kernel crosses over from linear exponential decay to
        // quadratic Gaussian-tail decay, dipping below any chord), so a
        // probe's value may only be credited from the *next* probe
        // onward, where monotonicity alone guarantees the kernel has
        // passed it. The envelope is sound up to the last probe
        // ([`DustBoundTable::valid_delta`]); the engine checks the
        // workload's maximum possible per-point |Δ| against that horizon
        // before engaging the index.
        let mut w = vec![f64::INFINITY; n];
        let mut probes: Vec<(f64, f64)> = [1.5, 2.0, 4.0, 8.0, 32.0, 128.0]
            .iter()
            .map(|&m| (x_last * m, f64::INFINITY))
            .collect();
        for &ex in errors {
            for &ey in errors {
                let table = self.resolve_table(TableKey::new(ex, ey), ex, ey);
                for (m, &v) in w.iter_mut().zip(table.values.iter()) {
                    *m = m.min(v);
                }
                for (x, v) in probes.iter_mut() {
                    let e = dust_sq_exact(&self.config, ex, ey, *x);
                    if e.is_nan() {
                        return None; // this pair's tail cannot be bounded
                    }
                    *v = v.min(e);
                }
            }
        }
        // Suffix-minimum over the whole sequence, probes included: the
        // samples become nondecreasing, so the envelope below them is
        // monotone. w[0] = 0 exactly (dust²(0) = 0 for every pair, by
        // the clamp), keeping cost(0) = 0.
        let mut run = f64::INFINITY;
        for (_, v) in probes.iter_mut().rev() {
            run = run.min(*v);
            *v = run;
        }
        for v in w.iter_mut().rev() {
            run = run.min(*v);
            *v = run;
        }
        // Lower convex hull by monotone chain over the grid points plus
        // the *shifted* probe ladder: the sample at probe `i` is plotted
        // at probe `i + 1`'s abscissa (and the grid-edge minimum at the
        // first probe's), because a monotone kernel is only guaranteed
        // to have passed a sampled value one interval later. The hull is
        // at or below every floor the samples establish, convex by
        // construction, and nondecreasing because no sample sits below
        // the (0, 0) start. The last probe's abscissa becomes the
        // envelope's validity horizon.
        let mut hull: Vec<(f64, f64)> = Vec::with_capacity(64);
        let points = (0..n)
            .map(|j| (j as f64 * step, w[j]))
            .chain(core::iter::once((probes[0].0, w[n - 1])))
            .chain((1..probes.len()).map(|i| (probes[i].0, probes[i - 1].1)));
        for (x, v) in points {
            while hull.len() >= 2 {
                let (ax, av) = hull[hull.len() - 2];
                let (bx, bv) = hull[hull.len() - 1];
                if (bx - ax) * (v - av) - (bv - av) * (x - ax) <= 0.0 {
                    hull.pop();
                } else {
                    break;
                }
            }
            hull.push((x, v));
        }
        // The stored envelope is the hull evaluated at each grid cell,
        // clamped to the suffix-min sample so fp rounding in the chord
        // interpolation can never push a cell above the data it bounds.
        let mut bounds = vec![0.0f64; n];
        let mut seg = 0;
        for (j, slot) in bounds.iter_mut().enumerate() {
            let x = j as f64 * step;
            while seg + 2 < hull.len() && hull[seg + 1].0 < x {
                seg += 1;
            }
            let (ax, av) = hull[seg];
            let (bx, bv) = hull[seg + 1];
            *slot = (av + (bv - av) * ((x - ax) / (bx - ax))).min(w[j]);
        }
        // The linear extension beyond the grid uses the hull's slope at
        // the grid edge — the segment covering Δ just past the last grid
        // cell. By convexity the extension stays at or below the hull —
        // and hence below the shifted probe floors — all the way to the
        // validity horizon. Z-normalized workloads sit far inside the
        // horizon: per-point |Δ| ≤ 2·√(len − 1) for the paper's series
        // lengths, against a horizon of 128 × the grid span.
        let mut tseg = 0;
        while tseg + 2 < hull.len() && hull[tseg + 1].0 <= x_last {
            tseg += 1;
        }
        let (ax, av) = hull[tseg];
        let (bx, bv) = hull[tseg + 1];
        let tail_slope = ((bv - av) / (bx - ax)).max(0.0);
        Some(DustBoundTable {
            bounds: bounds.into_boxed_slice(),
            step,
            tail_slope,
            valid_delta: probes.last().expect("probe ladder is non-empty").0,
        })
    }

    /// Whether the squared DUST distance stays within `cutoff`: exactly
    /// `self.distance_sq_early_abandon(x, y, cutoff).is_some()`, the
    /// decision the query engine's range scans make directly.
    ///
    /// Kept public only for the benchmark's trace mirror (the `perfbench`
    /// package), which times its range decisions through this name; once
    /// that mirror calls [`Dust::distance_sq_early_abandon`], it goes.
    ///
    /// # Panics
    /// If the series lengths differ.
    pub fn within_sq(&self, x: &UncertainSeries, y: &UncertainSeries, cutoff: f64) -> bool {
        self.distance_sq_early_abandon(x, y, cutoff).is_some()
    }

    fn build_table(&self, ex: PointError, ey: PointError) -> DustTable {
        let n = self.config.table_resolution;
        let step = self.config.table_max_delta / (n - 1) as f64;
        let values = (0..n)
            .map(|i| dust_sq_exact(&self.config, ex, ey, i as f64 * step))
            .collect();
        DustTable { values, step }
    }
}

/// Bit-exact identity of two error descriptions — the same equivalence
/// the table cache keys on ([`TableKey`]), shared by every dedup that
/// decides whether two points can reuse one table.
pub(crate) fn same_error(a: &PointError, b: &PointError) -> bool {
    a.family == b.family && a.sigma.to_bits() == b.sigma.to_bits()
}

/// Exact `dust²` evaluation (no table): `ln φ(0) − ln φ(Δ)`, clamped at 0.
///
/// Works on log-densities so that far-tail Δ values (where the density
/// underflows `f64`) still produce the correct quadratic/linear growth —
/// e.g. normal-normal dust² = Δ²/(2v) stays exact at any Δ.
fn dust_sq_exact(config: &DustConfig, ex: PointError, ey: PointError, delta: f64) -> f64 {
    let ln_phi0 = ln_phi_kernel(config, ex, ey, 0.0);
    let ln_phid = ln_phi_kernel(config, ex, ey, delta);
    debug_assert!(ln_phi0.is_finite(), "φ(0) must be positive");
    if ln_phid == f64::NEG_INFINITY {
        // Only reachable with tails disabled (the paper's degenerate
        // uniform case); finite sentinel keeps sums usable.
        return f64::MAX / 1e6;
    }
    (ln_phi0 - ln_phid).max(0.0)
}

/// Log-density of the standard normal scaled to std `s`, at `x`.
fn ln_normal_pdf(x: f64, s: f64) -> f64 {
    let z = x / s;
    -0.5 * z * z - s.ln() - 0.5 * (2.0 * core::f64::consts::PI).ln()
}

/// Numerically-stable `ln(Σ exp(terms))`; ignores `-inf` terms.
fn log_sum_exp(terms: &[f64]) -> f64 {
    let m = terms.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if m == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    m + terms.iter().map(|&t| (t - m).exp()).sum::<f64>().ln()
}

/// `ln φ(Δ)`: log-density of `e_x − e_y` at Δ (−∞ where the density is
/// exactly zero, which only happens with the tail workaround disabled).
fn ln_phi_kernel(config: &DustConfig, ex: PointError, ey: PointError, delta: f64) -> f64 {
    use ErrorFamily as F;
    match (ex.family, ey.family) {
        (F::Normal, F::Normal) => {
            let v = ex.sigma * ex.sigma + ey.sigma * ey.sigma;
            ln_normal_pdf(delta, v.sqrt())
        }
        (F::Exponential, F::Exponential) => {
            // e_x = X − σx, e_y = Y − σy with X ∼ Exp(a), Y ∼ Exp(b),
            // a = 1/σx, b = 1/σy. Then e_x − e_y = (X − Y) − (σx − σy)
            // and X − Y has the asymmetric Laplace density
            //   f(z) = ab/(a+b) · e^{−a·z}  (z ≥ 0),   ab/(a+b) · e^{b·z}  (z < 0).
            let a = 1.0 / ex.sigma;
            let b = 1.0 / ey.sigma;
            let z = delta + (ex.sigma - ey.sigma);
            let ln_c = (a * b / (a + b)).ln();
            if z >= 0.0 {
                ln_c - a * z
            } else {
                ln_c + b * z
            }
        }
        (F::Uniform, F::Uniform) => {
            // Cross-correlation of two (tail-contaminated) uniforms:
            //   f_x = (1−w)·U_x + w·G_x, similarly f_y ⇒ four convolution
            //   terms, combined in log space so the Gaussian⊗Gaussian tail
            //   keeps φ > 0 at any Δ.
            let w = config.uniform_tail_weight;
            let uu = uniform_diff_density(ex.sigma, ey.sigma, delta);
            if w == 0.0 {
                return if uu > 0.0 { uu.ln() } else { f64::NEG_INFINITY };
            }
            let gx = config.uniform_tail_width * ex.sigma;
            let gy = config.uniform_tail_width * ey.sigma;
            let ug = uniform_normal_diff_density(ex.sigma, gy, delta);
            let gu = uniform_normal_diff_density(ey.sigma, gx, -delta);
            let ln_w = w.ln();
            let ln_1w = (1.0 - w).ln();
            let terms = [
                if uu > 0.0 {
                    2.0 * ln_1w + uu.ln()
                } else {
                    f64::NEG_INFINITY
                },
                if ug > 0.0 {
                    ln_1w + ln_w + ug.ln()
                } else {
                    f64::NEG_INFINITY
                },
                if gu > 0.0 {
                    ln_1w + ln_w + gu.ln()
                } else {
                    f64::NEG_INFINITY
                },
                2.0 * ln_w + ln_normal_pdf(delta, (gx * gx + gy * gy).sqrt()),
            ];
            log_sum_exp(&terms)
        }
        // Cross-family pairs: numeric integration of
        //   φ(Δ) = ∫ f_x(u) · f_y(u − Δ) du
        // over the effective overlap of the supports (tail-contaminated
        // uniforms where applicable, keeping φ > 0 everywhere).
        _ => {
            let fx = contaminated_pdf(config, ex);
            let fy = contaminated_pdf(config, ey);
            let (xl, xh) = contaminated_support(config, ex);
            let (yl, yh) = contaminated_support(config, ey);
            // u ranges over supp(f_x) ∩ (Δ + supp(f_y)).
            let lo = xl.max(delta + yl);
            let hi = xh.min(delta + yh);
            if lo >= hi {
                return f64::NEG_INFINITY;
            }
            // At large Δ the product's mass is a narrow spike (each
            // factor clusters near its own center: f_x near 0, the f_y
            // factor near u = Δ) while the effective supports — ±40σ for
            // normals — stretch the interval orders of magnitude wider.
            // Seed the quadrature with the density centers and the
            // uncontaminated support kinks so no mass concentration can
            // hide between the adaptive rule's probe points; without the
            // breaks the rule sees zeros at every probe and returns ~0,
            // which made dust² non-monotone in the deep tail.
            let (kxl, kxh) = ex.support();
            let (kyl, kyh) = ey.support();
            let breaks = [0.0, delta, kxl, kxh, delta + kyl, delta + kyh];
            let v =
                adaptive_simpson_with_breaks(|u| fx(u) * fy(u - delta), lo, hi, &breaks, 1e-12, 40);
            if v > 0.0 {
                v.ln()
            } else {
                f64::NEG_INFINITY
            }
        }
    }
}

/// Density of `U₁ − U₂` at Δ for zero-mean uniforms with std σ₁, σ₂
/// (a symmetric trapezoid; a triangle when σ₁ = σ₂).
fn uniform_diff_density(s1: f64, s2: f64, delta: f64) -> f64 {
    let a1 = s1 * 3f64.sqrt();
    let a2 = s2 * 3f64.sqrt();
    let d = delta.abs();
    // Convolution of U[−a1,a1] and U[−a2,a2] (difference of independent
    // uniforms has the same law as the sum by symmetry).
    let (lo, hi) = (2.0 * (a1.min(a2)), a1 + a2);
    let peak = 1.0 / (2.0 * a1.max(a2));
    if d >= hi {
        0.0
    } else if d <= hi - lo {
        peak
    } else {
        peak * (hi - d) / lo
    }
}

/// Density of `U − G` at Δ: zero-mean uniform (std `su`) minus zero-mean
/// normal (std `sg`); closed form via the normal CDF.
fn uniform_normal_diff_density(su: f64, sg: f64, delta: f64) -> f64 {
    let a = su * 3f64.sqrt();
    // f(Δ) = (1/2a) ∫_{−a}^{a} φ_G(u − Δ) du = (Φ((a−Δ)/sg) − Φ((−a−Δ)/sg)) / 2a
    (Normal::phi((a - delta) / sg) - Normal::phi((-a - delta) / sg)) / (2.0 * a)
}

/// Pdf of the error with the uniform family replaced by its
/// tail-contaminated version.
fn contaminated_pdf(config: &DustConfig, pe: PointError) -> impl Fn(f64) -> f64 {
    let w = if pe.family == ErrorFamily::Uniform {
        config.uniform_tail_weight
    } else {
        0.0
    };
    let tail = Normal::new(0.0, config.uniform_tail_width * pe.sigma);
    move |e: f64| (1.0 - w) * pe.pdf(e) + w * tail.pdf(e)
}

/// Effective support of the (possibly contaminated) error density.
fn contaminated_support(config: &DustConfig, pe: PointError) -> (f64, f64) {
    let (lo, hi) = pe.support();
    if pe.family == ErrorFamily::Uniform && config.uniform_tail_weight > 0.0 {
        let t = 10.0 * config.uniform_tail_width * pe.sigma;
        (lo.min(-t), hi.max(t))
    } else {
        (lo, hi)
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use uts_stats::integrate::adaptive_simpson;
    use uts_tseries::euclidean;

    fn pe(family: ErrorFamily, sigma: f64) -> PointError {
        PointError::new(family, sigma)
    }

    #[test]
    fn normal_dust_is_scaled_euclidean() {
        // Equal normal σ at every point ⇒ DUST(X, Y) ∝ Euclid(X, Y)
        // with factor 1/√(2·2σ²) on each per-point distance.
        let sigma = 0.5;
        let errs = vec![pe(ErrorFamily::Normal, sigma); 4];
        let x = UncertainSeries::new(vec![0.0, 1.0, -0.5, 2.0], errs.clone());
        let y = UncertainSeries::new(vec![1.0, 1.0, 0.5, 0.0], errs);
        let dust = Dust::default();
        let d = dust.distance(&x, &y);
        let e = euclidean(x.values(), y.values());
        let scale = 1.0 / (2.0 * (2.0 * sigma * sigma)).sqrt();
        assert!(
            (d - e * scale).abs() < 1e-3,
            "dust {d} vs scaled euclid {}",
            e * scale
        );
    }

    #[test]
    fn reflexive_and_symmetric() {
        let dust = Dust::default();
        for fam in ErrorFamily::ALL {
            let e1 = pe(fam, 0.4);
            let e2 = pe(fam, 0.9);
            assert!(
                dust.dust(e1, e1, 0.0) < 1e-9,
                "{fam}: dust(x,x) should be 0"
            );
            // Symmetry in the observed difference for symmetric families.
            if fam != ErrorFamily::Exponential {
                let a = dust.dust(e1, e2, 0.8);
                let b = dust.dust(e1, e2, -0.8);
                assert!((a - b).abs() < 1e-9, "{fam}: ±Δ asymmetry {a} vs {b}");
            }
        }
    }

    #[test]
    fn dust_monotone_in_delta_for_symmetric_families() {
        let dust = Dust::default();
        for fam in [ErrorFamily::Normal, ErrorFamily::Uniform] {
            let e = pe(fam, 0.6);
            let mut prev = -1.0;
            for i in 0..60 {
                let delta = i as f64 * 0.1;
                let d = dust.dust(e, e, delta);
                assert!(d + 1e-9 >= prev, "{fam}: not monotone at Δ = {delta}");
                prev = d;
            }
        }
    }

    #[test]
    fn uniform_tails_keep_phi_positive() {
        // Without tails the uniform difference density is 0 beyond the
        // trapezoid edge — the degenerate case of paper §4.2.1.
        let dust = Dust::default();
        let e = pe(ErrorFamily::Uniform, 0.2);
        // 2·a = 2·0.2·√3 ≈ 0.69 < 3: far outside the pure support.
        let d = dust.dust(e, e, 3.0);
        assert!(d.is_finite() && d > 0.0, "tail workaround failed: {d}");
        // And φ itself is positive there.
        assert!(ln_phi_kernel(dust.config(), e, e, 3.0).exp() > 0.0);
        // With tails disabled it degenerates (guarded to a huge value).
        let raw = Dust::new(DustConfig {
            uniform_tail_weight: 0.0,
            ..DustConfig::default()
        });
        assert!(raw.dust_squared_exact(e, e, 3.0) > 1e100);
    }

    #[test]
    fn exponential_kernel_matches_numeric_integration() {
        let cfg = DustConfig::default();
        let e1 = pe(ErrorFamily::Exponential, 0.5);
        let e2 = pe(ErrorFamily::Exponential, 1.1);
        for delta in [-2.0, -0.5, 0.0, 0.3, 1.7] {
            let analytic = ln_phi_kernel(&cfg, e1, e2, delta).exp();
            let numeric = {
                let fx = contaminated_pdf(&cfg, e1);
                let fy = contaminated_pdf(&cfg, e2);
                let (xl, xh) = contaminated_support(&cfg, e1);
                let (yl, yh) = contaminated_support(&cfg, e2);
                let lo = xl.max(delta + yl);
                let hi = xh.min(delta + yh);
                adaptive_simpson(|u| fx(u) * fy(u - delta), lo, hi, 1e-12, 40)
            };
            assert!(
                (analytic - numeric).abs() < 1e-6,
                "Δ={delta}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn normal_kernel_matches_numeric_integration() {
        let cfg = DustConfig::default();
        let e1 = pe(ErrorFamily::Normal, 0.7);
        let e2 = pe(ErrorFamily::Normal, 0.3);
        for delta in [0.0, 0.4, 1.5] {
            let analytic = ln_phi_kernel(&cfg, e1, e2, delta).exp();
            let fx = contaminated_pdf(&cfg, e1);
            let fy = contaminated_pdf(&cfg, e2);
            let numeric = adaptive_simpson(|u| fx(u) * fy(u - delta), -30.0, 30.0, 1e-12, 40);
            assert!(
                (analytic - numeric).abs() < 1e-8,
                "Δ={delta}: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn uniform_kernel_matches_numeric_integration() {
        let cfg = DustConfig::default();
        let e1 = pe(ErrorFamily::Uniform, 0.8);
        let e2 = pe(ErrorFamily::Uniform, 0.5);
        for delta in [0.0, 0.5, 1.2, 2.0, 4.0] {
            let analytic = ln_phi_kernel(&cfg, e1, e2, delta).exp();
            let fx = contaminated_pdf(&cfg, e1);
            let fy = contaminated_pdf(&cfg, e2);
            let (xl, xh) = contaminated_support(&cfg, e1);
            let (yl, yh) = contaminated_support(&cfg, e2);
            let lo = xl.max(delta + yl);
            let hi = xh.min(delta + yh);
            let numeric = adaptive_simpson(|u| fx(u) * fy(u - delta), lo, hi, 1e-12, 44);
            assert!(
                (analytic - numeric).abs() < 1e-5 * (1.0 + analytic),
                "Δ={delta}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn table_lookup_matches_exact() {
        let dust = Dust::default();
        for (fx, fy) in [
            (ErrorFamily::Normal, ErrorFamily::Normal),
            (ErrorFamily::Uniform, ErrorFamily::Normal),
            (ErrorFamily::Exponential, ErrorFamily::Uniform),
        ] {
            let e1 = pe(fx, 0.4);
            let e2 = pe(fy, 1.0);
            for i in 0..40 {
                let delta = i as f64 * 0.25;
                let a = dust.dust_squared(e1, e2, delta);
                let b = dust.dust_squared_exact(e1, e2, delta);
                assert!(
                    (a - b).abs() < 2e-3 * (1.0 + b),
                    "{fx}/{fy} Δ={delta}: table {a} vs exact {b}"
                );
            }
        }
    }

    #[test]
    fn tables_are_cached_per_error_pair() {
        let dust = Dust::default();
        let e1 = pe(ErrorFamily::Normal, 0.4);
        let e2 = pe(ErrorFamily::Normal, 1.0);
        let _ = dust.dust(e1, e2, 0.5);
        let _ = dust.dust(e1, e2, 1.5);
        assert_eq!(dust.cached_tables(), 1);
        let _ = dust.dust(e2, e1, 0.5);
        assert_eq!(dust.cached_tables(), 2); // order matters in the key
        let shared = dust.clone();
        let _ = shared.dust(e1, e1, 0.1);
        assert_eq!(dust.cached_tables(), 3); // cache shared across clones
    }

    #[test]
    fn beyond_table_range_falls_back_to_exact() {
        let dust = Dust::new(DustConfig {
            table_max_delta: 1.0,
            table_resolution: 64,
            ..DustConfig::default()
        });
        let e = pe(ErrorFamily::Normal, 0.5);
        // Δ = 5 is far beyond the 1.0 table range.
        let got = dust.dust_squared(e, e, 5.0);
        let want = 25.0 / (2.0 * (2.0 * 0.25));
        assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    }

    #[test]
    fn dtw_matches_per_cell_dust_squared() {
        // Mixed error pairs across the two series: the memoised cell cost
        // must reproduce a fresh `dust_squared` per cell bit-for-bit.
        let mk_errs = |seed: usize| -> Vec<PointError> {
            (0..7)
                .map(|i| {
                    let fam = ErrorFamily::ALL[(i + seed) % 3];
                    pe(fam, 0.3 + 0.2 * ((i + seed) % 4) as f64)
                })
                .collect()
        };
        let x = UncertainSeries::new(vec![0.0, 1.0, -0.5, 2.0, 0.3, -1.1, 0.8], mk_errs(0));
        let y = UncertainSeries::new(vec![1.0, 1.0, 0.5, 0.0, -0.2, 0.4, 1.3], mk_errs(1));
        let dust = Dust::default();
        for opts in [
            DtwOptions::default(),
            DtwOptions::with_band(0),
            DtwOptions::with_band(2),
        ] {
            let served = dust.dtw_distance(&x, &y, opts);
            // Reference: per-cell table resolution through `dust_squared`.
            let reference = uts_tseries::dtw::dtw_with_cost(
                x.len(),
                y.len(),
                |i, j| {
                    let delta = x.value_at(i) - y.value_at(j);
                    dust.dust_squared(x.error_at(i), y.error_at(j), delta)
                },
                opts,
            )
            .sqrt();
            assert_eq!(served, reference, "opts {opts:?}");
        }
    }

    #[test]
    fn dtw_tracks_the_exact_kernel() {
        // Against DTW over the ground-truth kernel (no tables): the
        // table-served DTW agrees to table-interpolation accuracy.
        let errs = [pe(ErrorFamily::Normal, 0.4), pe(ErrorFamily::Uniform, 0.7)];
        let e: Vec<PointError> = (0..6).map(|i| errs[i % 2]).collect();
        let x = UncertainSeries::new(vec![0.0, 0.6, -0.5, 1.2, 0.3, -0.9], e.clone());
        let y = UncertainSeries::new(vec![0.4, 0.2, 0.5, 0.0, -0.6, 0.1], e);
        let dust = Dust::default();
        let opts = DtwOptions::with_band(2);
        let a = dust.dtw_distance(&x, &y, opts);
        let b = uts_tseries::dtw::dtw_with_cost(
            x.len(),
            y.len(),
            |i, j| {
                let delta = x.value_at(i) - y.value_at(j);
                dust.dust_squared_exact(x.error_at(i), y.error_at(j), delta)
            },
            opts,
        )
        .sqrt();
        assert!((a - b).abs() < 2e-3 * (1.0 + b), "table {a} vs exact {b}");
    }

    #[test]
    fn early_abandon_matches_full_distance() {
        let errs: Vec<PointError> = (0..8)
            .map(|i| pe(ErrorFamily::ALL[i % 3], 0.3 + 0.1 * (i % 3) as f64))
            .collect();
        let x = UncertainSeries::new(vec![0.0, 1.0, -0.5, 2.0, 0.3, -1.1, 0.8, 0.2], errs.clone());
        let y = UncertainSeries::new(vec![1.0, 1.0, 0.5, 0.0, -0.2, 0.4, 1.3, -0.7], errs);
        let dust = Dust::default();
        let d = dust.distance(&x, &y);
        let sq = dust
            .distance_sq_early_abandon(&x, &y, f64::INFINITY)
            .expect("infinite limit");
        assert_eq!(sq.sqrt(), d, "full sum must match distance bits");
        // At the sum: kept. Just below: abandoned.
        assert_eq!(dust.distance_sq_early_abandon(&x, &y, sq), Some(sq));
        assert_eq!(dust.distance_sq_early_abandon(&x, &y, sq.next_down()), None);
    }

    #[test]
    fn warm_tables_builds_all_ordered_pairs() {
        let dust = Dust::default();
        let errs = [pe(ErrorFamily::Normal, 0.4), pe(ErrorFamily::Uniform, 1.0)];
        dust.warm_tables(&errs);
        assert_eq!(dust.cached_tables(), 4);
    }

    #[test]
    fn dtw_variant_absorbs_shifts() {
        let errs = vec![pe(ErrorFamily::Normal, 0.3); 6];
        let x = UncertainSeries::new(vec![0.0, 0.0, 5.0, 0.0, 0.0, 0.0], errs.clone());
        let y = UncertainSeries::new(vec![0.0, 0.0, 0.0, 5.0, 0.0, 0.0], errs);
        let dust = Dust::default();
        let straight = dust.distance(&x, &y);
        let warped = dust.dtw_distance(&x, &y, DtwOptions::default());
        assert!(
            warped < straight * 0.2,
            "dtw {warped} vs straight {straight}"
        );
    }

    #[test]
    fn series_distance_is_symmetric_for_symmetric_errors() {
        let errs = vec![pe(ErrorFamily::Uniform, 0.5); 5];
        let x = UncertainSeries::new(vec![0.0, 1.0, 0.2, -0.7, 0.4], errs.clone());
        let y = UncertainSeries::new(vec![0.3, 0.8, -0.2, -0.5, 1.0], errs);
        let dust = Dust::default();
        assert!((dust.distance(&x, &y) - dust.distance(&y, &x)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "equal-length")]
    fn length_mismatch_panics() {
        let e = vec![pe(ErrorFamily::Normal, 0.2)];
        let x = UncertainSeries::new(vec![0.0], e.clone());
        let y = UncertainSeries::new(vec![0.0, 1.0], vec![e[0]; 2]);
        let _ = Dust::default().distance(&x, &y);
    }

    #[test]
    fn envelope_refusal_conditions() {
        let dust = Dust::default();
        let e = pe(ErrorFamily::Normal, 0.4);
        assert!(dust.bound_envelope(&[]).is_none(), "empty error set");
        let many: Vec<PointError> = (0..MAX_WARM_ERRORS + 1)
            .map(|i| pe(ErrorFamily::Normal, 0.1 + i as f64 * 0.01))
            .collect();
        assert!(dust.bound_envelope(&many).is_none(), "beyond the cap");
        assert!(dust.bound_envelope(&[e]).is_some(), "single pair works");
    }

    #[test]
    fn envelope_is_monotone_convex_and_starts_at_zero() {
        let dust = Dust::default();
        let errors = [
            pe(ErrorFamily::Normal, 0.4),
            pe(ErrorFamily::Uniform, 0.8),
            pe(ErrorFamily::Exponential, 1.1),
        ];
        let env = dust.bound_envelope(&errors).expect("within cap");
        assert_eq!(env.cost(0.0), 0.0);
        assert_eq!(env.cost(-3.0), 0.0);
        assert_eq!(env.cost(f64::NAN), 0.0);
        assert!(env.tail_slope() >= 0.0);
        let mut prev = -1.0;
        let mut prev_slope = -1.0;
        let step = env.grid_step();
        for j in 0..env.grid_len() + 50 {
            let v = env.cost(j as f64 * step);
            assert!(v >= prev, "monotone at cell {j}: {v} < {prev}");
            if j > 0 {
                let slope = v - prev;
                assert!(
                    slope >= prev_slope - 1e-12 * (1.0 + slope.abs()),
                    "convex at cell {j}"
                );
                prev_slope = slope;
            }
            prev = v;
        }
        // An infinite gap must not produce NaN.
        assert!(env.cost(f64::INFINITY) >= 0.0);
    }

    #[test]
    fn envelope_is_one_sided_against_the_served_kernel() {
        // cost(g) lower-bounds the kernel the queries actually run —
        // dust_squared, table-served — for every ordered pair of the
        // error set and every Δ ≥ g, at and between grid cells.
        let dust = Dust::default();
        let errors = [
            pe(ErrorFamily::Normal, 0.3),
            pe(ErrorFamily::Uniform, 0.9),
            pe(ErrorFamily::Exponential, 0.6),
        ];
        let env = dust.bound_envelope(&errors).expect("within cap");
        let step = env.grid_step();
        for &ex in &errors {
            for &ey in &errors {
                for i in 0..400 {
                    // Off-grid Δ; gaps at the cell edge and strictly inside.
                    let delta = i as f64 * (step * 11.73);
                    for gap in [delta, delta * 0.71, (delta - step).max(0.0)] {
                        let bound = env.cost(gap);
                        let kernel = dust.dust_squared(ex, ey, delta);
                        assert!(
                            bound <= kernel * (1.0 + 1e-9) + 1e-12,
                            "{}/{} Δ={delta} gap={gap}: bound {bound} > kernel {kernel}",
                            ex.family,
                            ey.family
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn envelope_bounds_series_distances() {
        // End to end: (len/segments)·Σ_s cost(gap_s) through the PAA of
        // the |Δ| profile never exceeds the squared DUST distance — the
        // exact inequality the candidate index stakes pruning on.
        let errors = [pe(ErrorFamily::Normal, 0.4), pe(ErrorFamily::Uniform, 0.6)];
        let dust = Dust::default();
        let env = dust.bound_envelope(&errors).expect("within cap");
        let mk = |seed: u64, n: usize| -> UncertainSeries {
            let vals: Vec<f64> = (0..n)
                .map(|i| ((i as f64 + seed as f64 * 0.7) / 2.3).sin() * 2.0)
                .collect();
            let errs: Vec<PointError> = (0..n)
                .map(|i| errors[(i + seed as usize) % errors.len()])
                .collect();
            UncertainSeries::new(vals, errs)
        };
        for (n, segments) in [(24usize, 6usize), (17, 5), (16, 16), (9, 1)] {
            let x = mk(1, n);
            let y = mk(5, n);
            let gaps: Vec<f64> = x
                .values()
                .iter()
                .zip(y.values())
                .map(|(a, b)| (a - b).abs())
                .collect();
            let paa_gaps = uts_tseries::paa::paa(&gaps, segments);
            let bound_sq =
                (n as f64 / segments as f64) * paa_gaps.iter().map(|&g| env.cost(g)).sum::<f64>();
            let exact_sq = dust
                .distance_sq_early_abandon(&x, &y, f64::INFINITY)
                .unwrap();
            assert!(
                bound_sq <= exact_sq * (1.0 + 1e-9) + 1e-12,
                "n={n} m={segments}: bound {bound_sq} > exact {exact_sq}"
            );
        }
    }
}
