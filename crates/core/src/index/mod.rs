//! Lower-bound candidate index: sub-linear candidate generation for the
//! value-based techniques.
//!
//! A scan pays `O(n)` candidate generation per query, however cheap its
//! kernels. The Lernaean Hydra survey (Echihabi et al., PVLDB 2019) shows
//! that at ≥100k series, summarization-based indexes with *admissible*
//! lower bounds dominate linear scan. This module supplies that stage for
//! the [`QueryEngine`](crate::engine)'s range and top-k queries.
//!
//! # Shape: a flat PAA grid with SAX-ordered leaf packing
//!
//! [`CandidateIndex`] is a single-level grid rather than an iSAX tree:
//!
//! 1. every member gets a PAA synopsis (`segments` means, the transform
//!    of [`uts_tseries::paa::paa`]);
//! 2. members are sorted by their SAX word (the PAA means quantised
//!    against [`uts_tseries::sax_breakpoints`]) so that members with
//!    similar coarse shapes become neighbours;
//! 3. consecutive runs of ≤ `leaf_capacity` members are packed into
//!    leaves, each carrying a minimum bounding rectangle (per-segment
//!    min/max over its members' PAA means).
//!
//! The flat layout was chosen over an iSAX split tree deliberately:
//! construction is one sort (deterministic, `O(n log n)`), the node count
//! is bounded by `⌈n / leaf_capacity⌉` with no degenerate splits to
//! balance, leaves are scanned linearly (cache-friendly: all PAA means
//! live in one flat array), and the SAX sort gives the same locality a
//! tree's prefix splits would — tight MBRs — without the pointer
//! chasing. At 10⁵ series, leaf-MBR pruning already removes the vast
//! majority of candidates (see `BENCH_index.json`); a hierarchical index
//! only starts paying for itself orders of magnitude later.
//!
//! # Pruning and admissibility
//!
//! A query is reduced to the *same* PAA transform. Two bounds are then
//! admissible lower bounds on the true Euclidean distance between full
//! series (both are the Keogh PAA bound, proptested in
//! `uts-tseries/tests/properties.rs`):
//!
//! * **leaf MBR bound** — `scale · ‖max(0, lo − q, q − hi)‖₂` over the
//!   leaf's rectangle: no member of the leaf can be closer than this;
//! * **member bound** — `scale · ‖paa(q) − paa(m)‖₂`, the exact PAA
//!   lower bound for one member,
//!
//! with `scale = sqrt(len / segments)`. A leaf (or member) is pruned only
//! when its bound *provably* exceeds the decision threshold — ε for range
//! queries, the current k-th best distance for top-k — so no candidate
//! that the exact kernel would accept is ever dismissed. Because the
//! bounds are computed in floating point, [`admits`] keeps a relative +
//! absolute slack margin ([`LB_SLACK_REL`], [`LB_SLACK_ABS`]): a
//! mathematically tight bound (e.g. `segments == len`, where PAA is the
//! identity) may exceed the exact distance by a few ulps of rounding, and
//! the calibrated-ε protocol queries *exactly at* a member's distance.
//! The margin admits those borderline candidates to the exact kernel,
//! which then makes the bit-exact decision.
//!
//! # Beyond Euclidean: cost-generalised bounds
//!
//! Both bounds generalise from `gap²` to any *monotone convex* per-segment
//! cost `H(|gap|)` with `H(0) = 0`: by Jensen's inequality the PAA
//! averaging step only shrinks `Σᵢ H(|Δᵢ|)`, so
//! `scale · sqrt(Σ_s H(gap_s))` stays an admissible lower bound whenever
//! the exact distance is `sqrt(Σᵢ h(Δᵢ))` with `h(Δ) ≥ H(|Δ|)` pointwise.
//! The pruning entry points ([`CandidateIndex::range_candidates_by`],
//! [`CandidateIndex::leaves_by_lower_bound_by`],
//! [`CandidateIndex::member_bound_exceeds_by`]) take that cost as a
//! closure; Euclidean is the instance `cost(d) = d * d`.
//! This is what lets DUST queries run through the index: the engine pushes
//! per-segment gaps through a conservatively-rounded monotone convex
//! envelope of the `dust²` tables
//! ([`Dust::bound_envelope`](crate::dust::Dust::bound_envelope)).
//!
//! Which representation is indexed follows the engine's prepared state:
//! Euclidean indexes the observed values, UMA/UEMA index the *filtered*
//! series (the representation their exact kernels compare), and DUST
//! indexes the observed values with the φ-space cost envelope above.
//! PROUD and MUNICH distances are not of the `sqrt(Σᵢ h(Δᵢ))` shape on
//! any per-series vector the engine stores, so those two techniques
//! transparently bypass the index and keep their exact scans (counted as
//! `scan_queries` in [`IndexStats`]); DUST also falls back to the scan
//! when its envelope is unavailable (exact-evaluation mode, error sets
//! beyond the warm-table cap, or an envelope construction refusal).
//!
//! # Parallel construction
//!
//! [`CandidateIndex::build`] fans the PAA summarization and the per-leaf
//! MBR construction over all cores via
//! [`parallel_map`](crate::parallel::parallel_map), which runs them on
//! the process-wide worker pool; both stages are order-preserving and
//! per-item pure, so the layout is bit-identical to
//! [`CandidateIndex::build_serial`] (asserted in the unit suite). On a
//! single-core host `parallel_map` degrades to the sequential loop.

use std::sync::atomic::{AtomicU64, Ordering};

use uts_tseries::paa::paa;
use uts_tseries::sax::sax_breakpoints;

/// Default PAA segment count ([`IndexConfig::segments`]).
pub const DEFAULT_SEGMENTS: usize = 16;
/// Default SAX alphabet size for the leaf-packing sort
/// ([`IndexConfig::alphabet`]).
pub const DEFAULT_ALPHABET: u8 = 8;
/// Default number of members per leaf ([`IndexConfig::leaf_capacity`]).
pub const DEFAULT_LEAF_CAPACITY: usize = 64;
/// Default collection size below which `prepare` skips index
/// construction ([`IndexConfig::min_collection`]): a linear scan over a
/// few hundred members is already cheaper than any pruning bookkeeping.
pub const DEFAULT_MIN_COLLECTION: usize = 256;

/// Relative slack of the [`admits`] predicate (see the module docs).
pub const LB_SLACK_REL: f64 = 1e-9;
/// Absolute slack of the [`admits`] predicate (covers thresholds at or
/// near zero, where relative slack vanishes).
pub const LB_SLACK_ABS: f64 = 1e-12;

/// Whether a candidate with lower bound `lb` must be passed to the exact
/// kernel under decision threshold `threshold`.
///
/// Admissibility direction: `true` (keep) whenever the bound does not
/// *provably* exceed the threshold, with a small rounding margin — so
/// false dismissals are impossible, and a degenerate threshold (negative
/// or NaN, which the exact paths reject wholesale) prunes everything.
#[inline]
#[must_use]
pub fn admits(lb: f64, threshold: f64) -> bool {
    lb <= threshold * (1.0 + LB_SLACK_REL) + LB_SLACK_ABS
}

/// Construction parameters for the [`CandidateIndex`], threaded through
/// `QueryEngine::prepare_with` and `ShardedEngine::prepare_with`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexConfig {
    /// PAA segments per synopsis (clamped to the series length at build
    /// time).
    pub segments: usize,
    /// SAX alphabet for the leaf-packing sort order (≥ 2).
    pub alphabet: u8,
    /// Maximum members per leaf.
    pub leaf_capacity: usize,
    /// Collections smaller than this are not indexed (scan wins there;
    /// `usize::MAX` forces the pure scan path).
    pub min_collection: usize,
}

impl Default for IndexConfig {
    fn default() -> Self {
        Self {
            segments: DEFAULT_SEGMENTS,
            alphabet: DEFAULT_ALPHABET,
            leaf_capacity: DEFAULT_LEAF_CAPACITY,
            min_collection: DEFAULT_MIN_COLLECTION,
        }
    }
}

impl IndexConfig {
    /// Index any non-empty collection, regardless of size — what the
    /// equivalence suites use to force the indexed paths on small
    /// fixtures.
    #[must_use]
    pub fn always() -> Self {
        Self {
            min_collection: 0,
            ..Self::default()
        }
    }

    /// Never index: every query takes the exact scan path (the reference
    /// side of the equivalence suites).
    #[must_use]
    pub fn disabled() -> Self {
        Self {
            min_collection: usize::MAX,
            ..Self::default()
        }
    }
}

/// One leaf of the grid: an ascending member list plus the bounding
/// rectangle of their PAA synopses.
#[derive(Debug, Clone)]
struct Leaf {
    /// Global member slots, ascending.
    members: Vec<usize>,
    /// Per-segment minimum of the members' PAA means.
    lo: Vec<f64>,
    /// Per-segment maximum of the members' PAA means.
    hi: Vec<f64>,
}

/// The lower-bound candidate index over one prepared collection (see the
/// module docs for the design and the admissibility argument).
///
/// Built by `QueryEngine::prepare` over the technique's value view;
/// queried through the engine's range/top-k entry points, never
/// directly — the engine owns the fallback-to-scan decision and the
/// bit-identity contract.
#[derive(Debug, Clone)]
pub struct CandidateIndex {
    /// Series length the index was built for (queries of any other
    /// length fall back to the scan).
    series_len: usize,
    /// PAA segments per synopsis.
    segments: usize,
    /// `sqrt(series_len / segments)` — the PAA bound's scale factor.
    scale: f64,
    /// All members' PAA means, `segments` per member, indexed by global
    /// slot (not leaf order): `member_paa[i * segments ..][.. segments]`.
    member_paa: Vec<f64>,
    /// SAX-packed leaves.
    leaves: Vec<Leaf>,
    /// The leaf holding each member, indexed by global slot, so a write
    /// finds its leaf without searching every leaf's member list.
    member_leaf: Vec<u32>,
}

impl CandidateIndex {
    /// Builds the index over one value view per member, or `None` when
    /// the collection is smaller than `min_collection` or the
    /// collection shape cannot be indexed (empty series, ragged
    /// lengths — the exact scan handles whatever semantics those have).
    ///
    /// Summarization and leaf construction run over all cores (see the
    /// module docs); the layout is bit-identical to
    /// [`Self::build_serial`].
    #[must_use]
    pub fn build(views: &[&[f64]], cfg: &IndexConfig) -> Option<Self> {
        Self::build_impl(views, cfg, true)
    }

    /// Single-threaded twin of [`Self::build`] — the reference layout the
    /// parallel build is asserted against.
    #[must_use]
    pub fn build_serial(views: &[&[f64]], cfg: &IndexConfig) -> Option<Self> {
        Self::build_impl(views, cfg, false)
    }

    fn build_impl(views: &[&[f64]], cfg: &IndexConfig, parallel: bool) -> Option<Self> {
        if views.len() < cfg.min_collection.max(1) {
            return None;
        }
        let series_len = views[0].len();
        if series_len == 0 || views.iter().any(|v| v.len() != series_len) {
            return None;
        }
        let segments = cfg.segments.clamp(1, series_len);
        let alphabet = cfg.alphabet.max(2);
        let leaf_capacity = cfg.leaf_capacity.max(1);
        let n = views.len();

        // Per-member PAA is pure and order-preserving, so fanning it over
        // cores cannot change a single bit of the flat synopsis array.
        let member_paa: Vec<f64> = if parallel {
            crate::parallel::parallel_map(views, |v| paa(v, segments))
                .into_iter()
                .flatten()
                .collect()
        } else {
            let mut acc = Vec::with_capacity(n * segments);
            for v in views {
                acc.extend_from_slice(&paa(v, segments));
            }
            acc
        };

        // SAX words drive the packing order only: members whose coarse
        // shapes quantise alike become leaf neighbours, which is what
        // keeps the leaf MBRs tight. Quantising the already-computed PAA
        // means replays `SaxWord::encode` without a second PAA pass.
        let breakpoints = sax_breakpoints(alphabet);
        let sax: Vec<u8> = member_paa
            .iter()
            .map(|&m| breakpoints.partition_point(|&b| b <= m) as u8)
            .collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            sax[a * segments..(a + 1) * segments]
                .cmp(&sax[b * segments..(b + 1) * segments])
                .then(a.cmp(&b))
        });

        let build_leaf = |chunk: &&[usize]| {
            let mut members = chunk.to_vec();
            members.sort_unstable();
            let (lo, hi) = bounding_box(&member_paa, segments, &members);
            Leaf { members, lo, hi }
        };
        let chunks: Vec<&[usize]> = order.chunks(leaf_capacity).collect();
        let leaves = if parallel {
            crate::parallel::parallel_map(&chunks, build_leaf)
        } else {
            chunks.iter().map(build_leaf).collect()
        };

        let mut member_leaf = vec![0; n];
        for (l, leaf) in leaves.iter().enumerate() {
            let l = u32::try_from(l).expect("fewer than 2³² leaves");
            for &i in &leaf.members {
                member_leaf[i] = l;
            }
        }

        Some(Self {
            series_len,
            segments,
            scale: (series_len as f64 / segments as f64).sqrt(),
            member_paa,
            leaves,
            member_leaf,
        })
    }

    /// Re-summarises member `i` after its value view changed to `view`:
    /// rewrites its PAA synopsis and recomputes its leaf's bounding
    /// rectangle from that leaf's members — `O(leaf_capacity · segments)`
    /// work instead of a rebuild.
    ///
    /// The member stays in its leaf even when its SAX word moved, so the
    /// layout can differ from a fresh [`Self::build`]. Every rectangle
    /// still bounds its members exactly, so every bound stays admissible
    /// and answers cannot change; only pruning counts can.
    ///
    /// # Panics
    /// If `i` is not indexed or `view` has another length than the
    /// indexed series (the engine validates both before patching).
    pub(crate) fn replace_member(&mut self, i: usize, view: &[f64]) {
        assert_eq!(view.len(), self.series_len, "replacement length mismatch");
        let segments = self.segments;
        self.member_paa[i * segments..(i + 1) * segments].copy_from_slice(&paa(view, segments));
        let leaf = &mut self.leaves[self.member_leaf[i] as usize];
        (leaf.lo, leaf.hi) = bounding_box(&self.member_paa, segments, &leaf.members);
    }

    /// Number of members indexed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.member_paa.len() / self.segments
    }

    /// Whether the index holds no members (never true for a built
    /// index — [`CandidateIndex::build`] refuses empty collections).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.member_paa.is_empty()
    }

    /// Number of leaves.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// PAA segment count per synopsis.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// The query's synopsis under the index's own PAA transform, or
    /// `None` when the query length disagrees with the indexed series
    /// (the engine then falls back to the exact scan).
    #[must_use]
    pub fn query_synopsis(&self, query: &[f64]) -> Option<Vec<f64>> {
        (query.len() == self.series_len).then(|| paa(query, self.segments))
    }

    /// The admissible PAA lower bound between the (synopsised) query and
    /// member `i`'s full series.
    #[must_use]
    pub fn member_lower_bound(&self, qp: &[f64], i: usize) -> f64 {
        let means = &self.member_paa[i * self.segments..(i + 1) * self.segments];
        let mut acc = 0.0;
        for (&q, &m) in qp.iter().zip(means) {
            let d = q - m;
            acc += d * d;
        }
        self.scale * acc.sqrt()
    }

    /// Squared-space pruning limit equivalent to [`admits`] under this
    /// index's scale: a bound `lb = scale·√acc` fails `admits(lb, t)`
    /// exactly when `acc` exceeds this limit, up to ulp-level noise that
    /// the slack inside [`admits`] absorbs — so admissibility (never
    /// pruning a true answer) is preserved while the hot loops get to
    /// compare partial sums and abandon early, with no square root.
    /// Negative and NaN thresholds map to a negative limit, pruning
    /// everything — matching the scan path's empty answer under a
    /// degenerate ε.
    #[must_use]
    pub fn squared_prune_limit(&self, threshold: f64) -> f64 {
        let t = threshold * (1.0 + LB_SLACK_REL) + LB_SLACK_ABS;
        if t >= 0.0 {
            let s = t / self.scale;
            s * s
        } else {
            -1.0
        }
    }

    /// Whether member `i`'s cost-space PAA gap `Σ_s cost(q_s − m_s)`
    /// exceeds `limit` (obtained from [`Self::squared_prune_limit`]),
    /// abandoning the segment sum as soon as the limit is crossed (see
    /// the module docs for the admissibility requirements on `cost`).
    /// With `cost(d) = d * d` this is the early-abandoning form of
    /// [`Self::member_lower_bound`].
    #[must_use]
    pub fn member_bound_exceeds_by(
        &self,
        qp: &[f64],
        i: usize,
        limit: f64,
        cost: impl Fn(f64) -> f64,
    ) -> bool {
        let means = &self.member_paa[i * self.segments..(i + 1) * self.segments];
        let mut acc = 0.0;
        for (&q, &m) in qp.iter().zip(means) {
            acc += cost(q - m);
            if acc > limit {
                return true;
            }
        }
        false
    }

    /// Early-abandoning form of [`Self::leaf_lower_bound_by`] against a
    /// squared-space (cost-space) limit.
    fn leaf_bound_exceeds_by(
        &self,
        qp: &[f64],
        leaf: &Leaf,
        limit: f64,
        cost: &impl Fn(f64) -> f64,
    ) -> bool {
        let mut acc = 0.0;
        for gap in leaf_gaps(qp, leaf) {
            acc += cost(gap);
            if acc > limit {
                return true;
            }
        }
        false
    }

    /// The admissible MBR lower bound between the query and *every*
    /// member of leaf `leaf`: `scale · sqrt(Σ_s cost(gap_s))`.
    fn leaf_lower_bound_by(&self, qp: &[f64], leaf: &Leaf, cost: &impl Fn(f64) -> f64) -> f64 {
        self.scale
            * leaf_gaps(qp, leaf)
                .fold(0.0, |acc, gap| acc + cost(gap))
                .sqrt()
    }

    /// Range-query candidate generation: every member whose leaf and
    /// member bounds under `cost` admit it under threshold `epsilon`,
    /// ascending, `exclude` skipped. The caller runs the exact kernel
    /// over exactly this list; admissibility guarantees it is a superset
    /// of the true answer set.
    ///
    /// Pruning effort is recorded in `counters`.
    #[must_use]
    pub fn range_candidates_by(
        &self,
        qp: &[f64],
        epsilon: f64,
        exclude: Option<usize>,
        counters: &IndexCounters,
        cost: impl Fn(f64) -> f64,
    ) -> Vec<usize> {
        let mut out = Vec::new();
        let mut leaves_visited = 0u64;
        let mut leaves_pruned = 0u64;
        let mut series_pruned = 0u64;
        let limit = self.squared_prune_limit(epsilon);
        for leaf in &self.leaves {
            if self.leaf_bound_exceeds_by(qp, leaf, limit, &cost) {
                leaves_pruned += 1;
                continue;
            }
            leaves_visited += 1;
            for &i in &leaf.members {
                if Some(i) == exclude {
                    continue;
                }
                if self.member_bound_exceeds_by(qp, i, limit, &cost) {
                    series_pruned += 1;
                    continue;
                }
                out.push(i);
            }
        }
        counters.record_descent(leaves_visited, leaves_pruned, series_pruned);
        out.sort_unstable();
        out
    }

    /// Leaves ordered by ascending MBR lower bound under `cost` (ties by
    /// leaf id) — the best-first visit order for top-k. The bound is
    /// returned with each leaf so the caller can stop as soon as the
    /// k-th best distance proves the remainder unreachable.
    #[must_use]
    pub fn leaves_by_lower_bound_by(
        &self,
        qp: &[f64],
        cost: impl Fn(f64) -> f64,
    ) -> Vec<(f64, usize)> {
        let mut order: Vec<(f64, usize)> = self
            .leaves
            .iter()
            .enumerate()
            .map(|(id, leaf)| (self.leaf_lower_bound_by(qp, leaf, &cost), id))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        order
    }

    /// The ascending member list of leaf `leaf`.
    #[must_use]
    pub fn leaf_members(&self, leaf: usize) -> &[usize] {
        &self.leaves[leaf].members
    }
}

/// Per segment, the gap from the query mean to `leaf`'s rectangle (zero
/// inside it) — the terms of the MBR bound.
fn leaf_gaps<'a>(qp: &'a [f64], leaf: &'a Leaf) -> impl Iterator<Item = f64> + 'a {
    let gap = |((&q, &lo), &hi): ((&f64, &f64), &f64)| {
        if q < lo {
            lo - q
        } else if q > hi {
            q - hi
        } else {
            0.0
        }
    };
    qp.iter().zip(&leaf.lo).zip(&leaf.hi).map(gap)
}

/// Per-segment minimum and maximum of `members`' PAA means — a leaf's
/// bounding rectangle.
fn bounding_box(member_paa: &[f64], segments: usize, members: &[usize]) -> (Vec<f64>, Vec<f64>) {
    let mut lo = vec![f64::INFINITY; segments];
    let mut hi = vec![f64::NEG_INFINITY; segments];
    for &i in members {
        let means = &member_paa[i * segments..(i + 1) * segments];
        for (d, &m) in means.iter().enumerate() {
            lo[d] = lo[d].min(m);
            hi[d] = hi[d].max(m);
        }
    }
    (lo, hi)
}

/// Live pruning-effectiveness counters on a prepared engine, accumulated
/// across all queries answered so far (relaxed atomics — the engine is
/// `Sync` and counts from every worker thread). Snapshot with
/// [`IndexCounters::snapshot`].
#[derive(Debug, Default)]
pub struct IndexCounters {
    /// Range/top-k queries answered through the index.
    pub indexed_queries: AtomicU64,
    /// Range/top-k queries answered by the exact scan (no index built,
    /// technique bypasses, or query shape mismatch).
    pub scan_queries: AtomicU64,
    /// Leaves whose members were examined.
    pub leaves_visited: AtomicU64,
    /// Leaves dismissed wholesale by their MBR bound.
    pub leaves_pruned: AtomicU64,
    /// Members dismissed by their per-series PAA bound.
    pub series_pruned: AtomicU64,
    /// Members that reached the exact kernel (the candidates the index
    /// emitted).
    pub candidates: AtomicU64,
}

impl IndexCounters {
    /// Adds one query's leaf visits and prunes.
    pub(crate) fn record_descent(
        &self,
        leaves_visited: u64,
        leaves_pruned: u64,
        series_pruned: u64,
    ) {
        self.leaves_visited
            .fetch_add(leaves_visited, Ordering::Relaxed);
        self.leaves_pruned
            .fetch_add(leaves_pruned, Ordering::Relaxed);
        self.series_pruned
            .fetch_add(series_pruned, Ordering::Relaxed);
    }

    /// A point-in-time copy of the counters.
    #[must_use]
    pub fn snapshot(&self) -> IndexStats {
        IndexStats {
            indexed_queries: self.indexed_queries.load(Ordering::Relaxed),
            scan_queries: self.scan_queries.load(Ordering::Relaxed),
            leaves_visited: self.leaves_visited.load(Ordering::Relaxed),
            leaves_pruned: self.leaves_pruned.load(Ordering::Relaxed),
            series_pruned: self.series_pruned.load(Ordering::Relaxed),
            candidates: self.candidates.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time pruning statistics (see [`IndexCounters`] for field
/// meanings), exposed on `QueryEngine::index_stats` and summed across
/// shards by `ShardedEngine::index_stats`, and mirrored into the
/// `serving_throughput` bench JSON.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Range/top-k queries answered through the index.
    pub indexed_queries: u64,
    /// Range/top-k queries answered by the exact scan.
    pub scan_queries: u64,
    /// Leaves whose members were examined.
    pub leaves_visited: u64,
    /// Leaves dismissed wholesale by their MBR bound.
    pub leaves_pruned: u64,
    /// Members dismissed by their per-series PAA bound.
    pub series_pruned: u64,
    /// Members that reached the exact kernel.
    pub candidates: u64,
}

impl IndexStats {
    /// Accumulates `other` into `self` (shard aggregation).
    pub fn absorb(&mut self, other: &IndexStats) {
        self.indexed_queries += other.indexed_queries;
        self.scan_queries += other.scan_queries;
        self.leaves_visited += other.leaves_visited;
        self.leaves_pruned += other.leaves_pruned;
        self.series_pruned += other.series_pruned;
        self.candidates += other.candidates;
    }

    /// `self` minus `other`, fieldwise — the effort spent between two
    /// snapshots (benchmark instrumentation).
    #[must_use]
    pub fn since(&self, other: &IndexStats) -> IndexStats {
        IndexStats {
            indexed_queries: self.indexed_queries - other.indexed_queries,
            scan_queries: self.scan_queries - other.scan_queries,
            leaves_visited: self.leaves_visited - other.leaves_visited,
            leaves_pruned: self.leaves_pruned - other.leaves_pruned,
            series_pruned: self.series_pruned - other.series_pruned,
            candidates: self.candidates - other.candidates,
        }
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use uts_tseries::distance::euclidean;

    /// Deterministic wavy collection with two coarse shape families.
    fn views(n: usize, len: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|i| {
                (0..len)
                    .map(|t| {
                        let phase = (i % 7) as f64 * 0.37;
                        let flip = if i % 2 == 0 { 1.0 } else { -1.0 };
                        flip * ((t as f64 / 5.0) + phase).sin() + (i as f64) * 1e-3
                    })
                    .collect()
            })
            .collect()
    }

    /// The Euclidean per-segment cost.
    fn sq(d: f64) -> f64 {
        d * d
    }

    fn build(n: usize, len: usize, cfg: &IndexConfig) -> (Vec<Vec<f64>>, CandidateIndex) {
        let vs = views(n, len);
        let refs: Vec<&[f64]> = vs.iter().map(|v| v.as_slice()).collect();
        let ix = CandidateIndex::build(&refs, cfg).expect("index built");
        (vs, ix)
    }

    #[test]
    fn admits_keeps_borderline_and_drops_degenerate() {
        assert!(admits(0.0, 0.0));
        assert!(admits(1.0, 1.0));
        assert!(admits(1.0 + 1e-13, 1.0), "ulp-level overshoot admitted");
        assert!(!admits(1.1, 1.0));
        assert!(!admits(0.0, -1.0), "negative threshold prunes all");
        assert!(!admits(0.0, f64::NAN), "NaN threshold prunes all");
        assert!(admits(f64::INFINITY, f64::INFINITY));
    }

    #[test]
    fn config_gates_construction() {
        let vs = views(8, 16);
        let refs: Vec<&[f64]> = vs.iter().map(|v| v.as_slice()).collect();
        assert!(CandidateIndex::build(&refs, &IndexConfig::disabled()).is_none());
        assert!(
            CandidateIndex::build(&refs, &IndexConfig::default()).is_none(),
            "below min_collection"
        );
        assert!(CandidateIndex::build(&refs, &IndexConfig::always()).is_some());
        assert!(CandidateIndex::build(&[], &IndexConfig::always()).is_none());
        // Ragged lengths cannot be indexed.
        let a = [1.0, 2.0];
        let b = [1.0, 2.0, 3.0];
        let ragged: Vec<&[f64]> = vec![&a, &b];
        assert!(CandidateIndex::build(&ragged, &IndexConfig::always()).is_none());
    }

    #[test]
    fn leaves_partition_the_collection() {
        let cfg = IndexConfig {
            leaf_capacity: 16,
            ..IndexConfig::always()
        };
        let (_, ix) = build(100, 32, &cfg);
        assert_eq!(ix.len(), 100);
        assert!(ix.leaf_count() >= 100usize.div_ceil(16));
        let mut seen: Vec<usize> = (0..ix.leaf_count())
            .flat_map(|l| ix.leaf_members(l).to_vec())
            .collect();
        for l in 0..ix.leaf_count() {
            let m = ix.leaf_members(l);
            assert!(m.windows(2).all(|w| w[0] < w[1]), "leaf members ascending");
            assert!(m.len() <= 16);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn member_bound_is_admissible_and_segments_clamp() {
        for segments in [1, 4, 32, 64] {
            let cfg = IndexConfig {
                segments,
                ..IndexConfig::always()
            };
            let (vs, ix) = build(40, 32, &cfg);
            assert_eq!(ix.segments(), segments.min(32));
            let qp = ix.query_synopsis(&vs[0]).expect("length matches");
            for (i, v) in vs.iter().enumerate() {
                let lb = ix.member_lower_bound(&qp, i);
                let exact = euclidean(&vs[0], v);
                assert!(
                    admits(lb, exact),
                    "segments={segments} i={i}: lb {lb} > exact {exact}"
                );
            }
        }
    }

    #[test]
    fn range_candidates_are_a_superset_of_true_answers() {
        let (vs, ix) = build(120, 24, &IndexConfig::always());
        let counters = IndexCounters::default();
        for q in [0usize, 17, 119] {
            let qp = ix.query_synopsis(&vs[q]).unwrap();
            for eps in [0.0, 0.8, 2.5, f64::INFINITY] {
                let cands = ix.range_candidates_by(&qp, eps, Some(q), &counters, sq);
                assert!(cands.windows(2).all(|w| w[0] < w[1]), "ascending");
                assert!(!cands.contains(&q), "exclude honoured");
                for (i, v) in vs.iter().enumerate() {
                    if i != q && euclidean(&vs[q], v) <= eps {
                        assert!(
                            cands.contains(&i),
                            "q={q} eps={eps}: true answer {i} dismissed"
                        );
                    }
                }
            }
        }
        let stats = counters.snapshot();
        assert!(
            stats.leaves_pruned + stats.series_pruned > 0,
            "pruning engaged"
        );
    }

    #[test]
    fn degenerate_thresholds_prune_everything() {
        let (vs, ix) = build(60, 16, &IndexConfig::always());
        let counters = IndexCounters::default();
        let qp = ix.query_synopsis(&vs[3]).unwrap();
        for eps in [-1.0, f64::NAN] {
            assert!(ix
                .range_candidates_by(&qp, eps, None, &counters, sq)
                .is_empty());
        }
    }

    #[test]
    fn leaf_order_is_sorted_and_admissible() {
        let (vs, ix) = build(90, 20, &IndexConfig::always());
        let qp = ix.query_synopsis(&vs[5]).unwrap();
        let order = ix.leaves_by_lower_bound_by(&qp, sq);
        assert_eq!(order.len(), ix.leaf_count());
        assert!(
            order.windows(2).all(|w| w[0].0 <= w[1].0),
            "ascending bounds"
        );
        for &(lb, leaf) in &order {
            for &i in ix.leaf_members(leaf) {
                let exact = euclidean(&vs[5], &vs[i]);
                assert!(
                    admits(lb, exact),
                    "leaf {leaf} bound {lb} > member {i} {exact}"
                );
            }
        }
    }

    #[test]
    fn query_shape_mismatch_is_a_fallback() {
        let (_, ix) = build(30, 16, &IndexConfig::always());
        assert!(ix.query_synopsis(&[0.0; 15]).is_none());
        assert!(ix.query_synopsis(&[0.0; 16]).is_some());
    }

    #[test]
    fn parallel_build_matches_serial_layout() {
        let vs = views(300, 48);
        let refs: Vec<&[f64]> = vs.iter().map(|v| v.as_slice()).collect();
        for cfg in [
            IndexConfig::always(),
            IndexConfig {
                segments: 7,
                leaf_capacity: 5,
                alphabet: 3,
                ..IndexConfig::always()
            },
        ] {
            let par = CandidateIndex::build(&refs, &cfg).expect("parallel build");
            let ser = CandidateIndex::build_serial(&refs, &cfg).expect("serial build");
            assert_eq!(par.series_len, ser.series_len);
            assert_eq!(par.segments, ser.segments);
            assert_eq!(par.scale.to_bits(), ser.scale.to_bits());
            assert_eq!(par.member_paa.len(), ser.member_paa.len());
            assert!(par
                .member_paa
                .iter()
                .zip(&ser.member_paa)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            assert_eq!(par.leaf_count(), ser.leaf_count());
            for (a, b) in par.leaves.iter().zip(&ser.leaves) {
                assert_eq!(a.members, b.members);
                assert!(a
                    .lo
                    .iter()
                    .zip(&b.lo)
                    .all(|(x, y)| x.to_bits() == y.to_bits()));
                assert!(a
                    .hi
                    .iter()
                    .zip(&b.hi)
                    .all(|(x, y)| x.to_bits() == y.to_bits()));
            }
        }
    }

    #[test]
    fn replace_member_keeps_the_layout_invariants() {
        use rand::Rng;
        let cfg = IndexConfig {
            leaf_capacity: 8,
            ..IndexConfig::always()
        };
        let (mut vs, mut ix) = build(90, 24, &cfg);
        let mut rng = uts_stats::rng::Seed::new(0x1DE7).rng();
        for _ in 0..40 {
            let i = rng.gen_range(0..vs.len());
            let shift: f64 = rng.gen_range(-5.0..5.0);
            let donor = rng.gen_range(0..vs.len());
            vs[i] = vs[donor].iter().map(|v| v * -1.5 + shift).collect();
            ix.replace_member(i, &vs[i]);
        }
        let mut seen = Vec::new();
        for (l, leaf) in ix.leaves.iter().enumerate() {
            assert!(leaf.members.windows(2).all(|w| w[0] < w[1]), "ascending");
            assert!(
                leaf.members
                    .iter()
                    .all(|&i| ix.member_leaf[i] as usize == l),
                "member_leaf names each member's leaf"
            );
            seen.extend_from_slice(&leaf.members);
            for d in 0..ix.segments {
                let means = leaf
                    .members
                    .iter()
                    .map(|&i| ix.member_paa[i * ix.segments + d]);
                let lo = means.clone().fold(f64::INFINITY, f64::min);
                let hi = means.fold(f64::NEG_INFINITY, f64::max);
                assert_eq!(leaf.lo[d].to_bits(), lo.to_bits(), "segment {d}");
                assert_eq!(leaf.hi[d].to_bits(), hi.to_bits(), "segment {d}");
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..vs.len()).collect::<Vec<_>>(), "leaves partition");
        for (i, v) in vs.iter().enumerate() {
            let want = paa(v, ix.segments);
            let got = &ix.member_paa[i * ix.segments..(i + 1) * ix.segments];
            assert!(got
                .iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
        }
        // So the bounds stay admissible over the patched members.
        let counters = IndexCounters::default();
        for q in [0usize, 45, 89] {
            let qp = ix.query_synopsis(&vs[q]).unwrap();
            let cands = ix.range_candidates_by(&qp, 3.0, Some(q), &counters, sq);
            for (i, v) in vs.iter().enumerate() {
                if i != q && euclidean(&vs[q], v) <= 3.0 {
                    assert!(cands.contains(&i), "q={q}: true answer {i} dismissed");
                }
            }
        }
    }

    /// The `cost(d) = d * d` instance of the pruning entry points is the
    /// Euclidean PAA bound: it agrees with
    /// [`CandidateIndex::member_lower_bound`] and with brute-force sums
    /// over fresh synopses and the leaf rectangles.
    #[test]
    fn squared_cost_bounds_are_the_euclidean_paa_bounds() {
        let (vs, ix) = build(80, 24, &IndexConfig::always());
        let counters = IndexCounters::default();
        let q = 9;
        let qp = ix.query_synopsis(&vs[q]).unwrap();
        let sum_sq = |gaps: Vec<f64>| gaps.iter().fold(0.0, |acc, d| acc + d * d);
        let member_acc: Vec<f64> = vs
            .iter()
            .map(|v| {
                sum_sq(
                    qp.iter()
                        .zip(paa(v, ix.segments))
                        .map(|(a, b)| a - b)
                        .collect(),
                )
            })
            .collect();
        let leaf_acc: Vec<f64> = ix
            .leaves
            .iter()
            .map(|l| {
                let gaps = qp.iter().zip(&l.lo).zip(&l.hi);
                sum_sq(
                    gaps.map(|((&m, &lo), &hi)| (lo - m).max(m - hi).max(0.0))
                        .collect(),
                )
            })
            .collect();
        for (i, &acc) in member_acc.iter().enumerate() {
            assert_eq!(
                ix.member_lower_bound(&qp, i),
                ix.scale * acc.sqrt(),
                "i={i}"
            );
        }
        let mut order: Vec<(f64, usize)> = leaf_acc
            .iter()
            .map(|acc| ix.scale * acc.sqrt())
            .zip(0..)
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        assert_eq!(ix.leaves_by_lower_bound_by(&qp, sq), order);
        for eps in [0.0, 1.0, 3.0, f64::INFINITY] {
            let limit = ix.squared_prune_limit(eps);
            let mut want = Vec::new();
            for (leaf, &leaf_sum) in ix.leaves.iter().zip(&leaf_acc) {
                for &i in &leaf.members {
                    let pruned = member_acc[i] > limit;
                    assert_eq!(ix.member_bound_exceeds_by(&qp, i, limit, sq), pruned);
                    if i != q && leaf_sum <= limit && !pruned {
                        want.push(i);
                    }
                }
            }
            want.sort_unstable();
            let got = ix.range_candidates_by(&qp, eps, Some(q), &counters, sq);
            assert_eq!(got, want, "eps={eps}");
        }
    }

    #[test]
    fn stats_absorb_and_since_are_fieldwise() {
        let a = IndexStats {
            indexed_queries: 5,
            scan_queries: 1,
            leaves_visited: 10,
            leaves_pruned: 20,
            series_pruned: 30,
            candidates: 40,
        };
        let mut sum = a;
        sum.absorb(&a);
        assert_eq!(sum.indexed_queries, 10);
        assert_eq!(sum.candidates, 80);
        assert_eq!(sum.since(&a), a);
    }
}
