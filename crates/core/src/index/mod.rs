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
//! The synopses are stored in *leaf order*: one block with a row of
//! `segments` means per member, leaf after leaf, ascending by member slot
//! within each leaf. A leaf's members are one contiguous run of rows, so
//! the range pass, top-k's member bounds and a write's rectangle
//! recompute read them sequentially instead of gathering rows scattered
//! across the whole collection. A per-member row table maps a global
//! slot to its row for the slot-addressed methods
//! ([`CandidateIndex::member_lower_bound`],
//! [`CandidateIndex::member_bound_exceeds_by`]) and for writes; there is
//! no second, slot-ordered copy.
//!
//! The flat layout was chosen over an iSAX split tree deliberately:
//! construction is one sort (deterministic, `O(n log n)`), the node count
//! is bounded by `⌈n / leaf_capacity⌉` with no degenerate splits to
//! balance, leaves are scanned linearly (cache-friendly: a leaf's PAA
//! means are one contiguous block), and the SAX sort gives the same
//! locality a tree's prefix splits would — tight MBRs — without the
//! pointer chasing. At 10⁵ series, leaf-MBR pruning already removes the vast
//! majority of candidates (see the index history rows in
//! `docs/BENCHMARKS.md`); a hierarchical index
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
//! when its envelope is unavailable (error sets beyond the warm-table
//! cap, or an envelope construction refusal).
//!
//! # Parallel construction and leaf-chunked range queries
//!
//! [`CandidateIndex::build`] fans the PAA summarization and the per-leaf
//! MBR construction over all cores via
//! [`parallel_map`](crate::parallel::parallel_map), which runs them on
//! the process-wide worker pool; both stages are order-preserving and
//! per-item pure, so the layout is bit-identical to a single-threaded
//! build (asserted in the unit suite). On a
//! single-core host `parallel_map` degrades to the sequential loop.
//!
//! Range queries use the same pool. The engine splits the leaves into
//! fixed-size chunks; each chunk generates the candidates of its own
//! leaves (the crate-internal `candidates_in`, whose disjoint leaf
//! ranges partition [`CandidateIndex::range_candidates_by`]'s list and
//! sum to its pruning counts) and runs the exact kernel on them. The
//! hits are concatenated and sorted, so the answer is unchanged. Top-k
//! stays sequential: its best-first descent shares one k-th-best bound.

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

/// Worker-pool items the member summaries of an index build are split
/// into: enough to share among the cores at any collection size, few
/// enough that the pool's per-item cost and the allocations stay small
/// next to the PAA work at 50k members.
const SUMMARY_ITEMS: usize = 64;

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
    /// Members per leaf: leaf `l` owns rows
    /// `l * leaf_capacity .. min((l + 1) * leaf_capacity, len)`.
    leaf_capacity: usize,
    /// Every member's PAA means in leaf order, one row of `segments`
    /// means per member, so a leaf's synopses are one contiguous run.
    synopses: Vec<f64>,
    /// The global slot of each row: ascending within each leaf.
    row_slot: Vec<usize>,
    /// The row of each member, indexed by global slot — how the
    /// slot-addressed methods and a write find a member's synopsis.
    slot_row: Vec<u32>,
    /// Each leaf's bounding rectangle: per segment, the `[min, max]` of
    /// its members' PAA means, `segments` pairs per leaf.
    boxes: Vec<[f64; 2]>,
}

impl CandidateIndex {
    /// Builds the index over one value view per member, or `None` when
    /// the collection is smaller than `min_collection` or the
    /// collection shape cannot be indexed (empty series, ragged
    /// lengths — the exact scan handles whatever semantics those have).
    ///
    /// Summarization and leaf construction run over all cores (see the
    /// module docs); the layout is bit-identical to a single-threaded
    /// build.
    #[must_use]
    pub fn build(views: &[&[f64]], cfg: &IndexConfig) -> Option<Self> {
        Self::build_impl(views, cfg, true)
    }

    /// Single-threaded twin of [`Self::build`] — the reference layout the
    /// parallel build is asserted against.
    #[cfg(test)]
    #[must_use]
    fn build_serial(views: &[&[f64]], cfg: &IndexConfig) -> Option<Self> {
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
        // cores cannot change a single bit of any synopsis. Each pool item
        // summarises one run of members into one flat block.
        let run_len = n.div_ceil(SUMMARY_ITEMS);
        let summarize = |run: &&[&[f64]]| {
            let mut means = Vec::with_capacity(run.len() * segments);
            for v in *run {
                means.extend_from_slice(&paa(v, segments));
            }
            means
        };
        let runs: Vec<&[&[f64]]> = views.chunks(run_len).collect();
        let slot_paa: Vec<Vec<f64>> = if parallel {
            crate::parallel::parallel_map(&runs, summarize)
        } else {
            runs.iter().map(summarize).collect()
        };
        let means_of = |i: usize| {
            let at = i % run_len * segments;
            &slot_paa[i / run_len][at..at + segments]
        };

        // SAX words drive the packing order only: members whose coarse
        // shapes quantise alike become leaf neighbours, which is what
        // keeps the leaf MBRs tight. Quantising the already-computed PAA
        // means replays `SaxWord::encode` without a second PAA pass.
        let breakpoints = sax_breakpoints(alphabet);
        let sax: Vec<u8> = slot_paa
            .iter()
            .flatten()
            .map(|&m| breakpoints.partition_point(|&b| b <= m) as u8)
            .collect();
        let mut row_slot: Vec<usize> = (0..n).collect();
        row_slot.sort_by(|&a, &b| {
            sax[a * segments..(a + 1) * segments]
                .cmp(&sax[b * segments..(b + 1) * segments])
                .then(a.cmp(&b))
        });
        // Consecutive runs of the SAX order are the leaves; each leaf
        // lists its members by ascending slot.
        for leaf in row_slot.chunks_mut(leaf_capacity) {
            leaf.sort_unstable();
        }
        let mut slot_row = vec![0; n];
        let mut synopses = Vec::with_capacity(n * segments);
        for (row, &i) in row_slot.iter().enumerate() {
            slot_row[i] = u32::try_from(row).expect("fewer than 2³² members");
            synopses.extend_from_slice(means_of(i));
        }

        let leaves: Vec<&[f64]> = synopses.chunks(leaf_capacity * segments).collect();
        let boxes = if parallel {
            crate::parallel::parallel_map(&leaves, |l| bounding_box(l, segments))
                .into_iter()
                .flatten()
                .collect()
        } else {
            leaves
                .iter()
                .flat_map(|l| bounding_box(l, segments))
                .collect()
        };

        Some(Self {
            series_len,
            segments,
            scale: (series_len as f64 / segments as f64).sqrt(),
            leaf_capacity,
            synopses,
            row_slot,
            slot_row,
            boxes,
        })
    }

    /// Re-summarises member `i` after its value view changed to `view`:
    /// rewrites its PAA synopsis and recomputes its leaf's bounding
    /// rectangle from that leaf's rows — `O(leaf_capacity · segments)`
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
        let row = self.slot_row[i] as usize;
        self.synopses[row * segments..(row + 1) * segments].copy_from_slice(&paa(view, segments));
        let leaf = row / self.leaf_capacity;
        let rect = bounding_box(self.leaf_block(leaf), segments);
        self.boxes[leaf * segments..(leaf + 1) * segments].copy_from_slice(&rect);
    }

    /// Number of members indexed.
    #[must_use]
    pub fn len(&self) -> usize {
        self.row_slot.len()
    }

    /// Whether the index holds no members (never true for a built
    /// index — [`CandidateIndex::build`] refuses empty collections).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.row_slot.is_empty()
    }

    /// Number of leaves.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        self.len().div_ceil(self.leaf_capacity)
    }

    /// PAA segment count per synopsis.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.segments
    }

    /// The rows of leaf `leaf`.
    fn rows(&self, leaf: usize) -> std::ops::Range<usize> {
        leaf * self.leaf_capacity..((leaf + 1) * self.leaf_capacity).min(self.len())
    }

    /// The PAA means of leaf `leaf`'s members, one row after another.
    fn leaf_block(&self, leaf: usize) -> &[f64] {
        let rows = self.rows(leaf);
        &self.synopses[rows.start * self.segments..rows.end * self.segments]
    }

    /// Member `i`'s PAA means.
    fn synopsis(&self, i: usize) -> &[f64] {
        let row = self.slot_row[i] as usize;
        &self.synopses[row * self.segments..(row + 1) * self.segments]
    }

    /// Leaf `leaf`'s rectangle, one `[min, max]` pair per segment.
    fn leaf_box(&self, leaf: usize) -> &[[f64; 2]] {
        &self.boxes[leaf * self.segments..(leaf + 1) * self.segments]
    }

    /// Leaf `leaf`'s members in row order — ascending slots, each with
    /// its PAA means, read sequentially from the leaf's block.
    pub(crate) fn leaf_rows(&self, leaf: usize) -> impl Iterator<Item = (usize, &[f64])> {
        self.row_slot[self.rows(leaf)]
            .iter()
            .copied()
            .zip(self.leaf_block(leaf).chunks_exact(self.segments))
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
        let mut acc = 0.0;
        for (&q, &m) in qp.iter().zip(self.synopsis(i)) {
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
        synopsis_exceeds_by(qp, self.synopsis(i), limit, cost)
    }

    /// The admissible MBR lower bound between the query and *every*
    /// member of leaf `leaf`: `scale · sqrt(Σ_s cost(gap_s))`.
    fn leaf_lower_bound_by(&self, qp: &[f64], leaf: usize, cost: &impl Fn(f64) -> f64) -> f64 {
        self.scale
            * leaf_gaps(qp, self.leaf_box(leaf))
                .fold(0.0, |acc, gap| acc + cost(gap))
                .sqrt()
    }

    /// Range-query candidate generation: every member whose leaf and
    /// member bounds under `cost` admit it under threshold `epsilon`,
    /// ascending, `exclude` skipped. The caller runs the exact kernel
    /// over exactly this list; admissibility guarantees it is a superset
    /// of the true answer set.
    ///
    /// Pruning effort, the emitted candidates included, is recorded in
    /// `counters`.
    #[must_use]
    pub fn range_candidates_by(
        &self,
        qp: &[f64],
        epsilon: f64,
        exclude: Option<usize>,
        counters: &IndexCounters,
        cost: impl Fn(f64) -> f64,
    ) -> Vec<usize> {
        let limit = self.squared_prune_limit(epsilon);
        let (mut out, effort) = self.candidates_in(qp, limit, exclude, 0..self.leaf_count(), &cost);
        counters.record(&effort);
        out.sort_unstable();
        out
    }

    /// The range candidates of the leaves `leaves` against the
    /// cost-space `limit`, in row order (ascending within each leaf),
    /// `exclude` skipped, with the pruning effort spent on them (its
    /// `candidates` field counts the list). Disjoint leaf ranges
    /// partition [`Self::range_candidates_by`]'s list and sum to its
    /// effort, which is what lets the engine split one range query into
    /// leaf chunks.
    pub(crate) fn candidates_in(
        &self,
        qp: &[f64],
        limit: f64,
        exclude: Option<usize>,
        leaves: std::ops::Range<usize>,
        cost: &impl Fn(f64) -> f64,
    ) -> (Vec<usize>, IndexStats) {
        let mut out = Vec::new();
        let mut effort = IndexStats::default();
        for leaf in leaves {
            if exceeds_by(leaf_gaps(qp, self.leaf_box(leaf)), limit, cost) {
                effort.leaves_pruned += 1;
                continue;
            }
            effort.leaves_visited += 1;
            for (i, means) in self.leaf_rows(leaf) {
                if Some(i) == exclude {
                    continue;
                }
                if synopsis_exceeds_by(qp, means, limit, cost) {
                    effort.series_pruned += 1;
                    continue;
                }
                out.push(i);
            }
        }
        effort.candidates = out.len() as u64;
        (out, effort)
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
        let mut order: Vec<(f64, usize)> = (0..self.leaf_count())
            .map(|leaf| (self.leaf_lower_bound_by(qp, leaf, &cost), leaf))
            .collect();
        order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        order
    }

    /// The ascending member list of leaf `leaf`.
    #[must_use]
    pub fn leaf_members(&self, leaf: usize) -> &[usize] {
        &self.row_slot[self.rows(leaf)]
    }
}

/// Whether the cost-space PAA gap `Σ_s cost(q_s − m_s)` between the query
/// synopsis `qp` and one member's means exceeds `limit`, abandoning the
/// sum as soon as it does.
#[inline]
pub(crate) fn synopsis_exceeds_by(
    qp: &[f64],
    means: &[f64],
    limit: f64,
    cost: impl Fn(f64) -> f64,
) -> bool {
    exceeds_by(qp.iter().zip(means).map(|(&q, &m)| q - m), limit, cost)
}

/// Whether `Σ cost(term)` exceeds `limit`, summed in order and abandoned
/// as soon as it does.
#[inline]
fn exceeds_by(terms: impl Iterator<Item = f64>, limit: f64, cost: impl Fn(f64) -> f64) -> bool {
    let mut acc = 0.0;
    for term in terms {
        acc += cost(term);
        if acc > limit {
            return true;
        }
    }
    false
}

/// Per segment, the gap from the query mean to a leaf's rectangle (zero
/// inside it) — the terms of the MBR bound.
fn leaf_gaps<'a>(qp: &'a [f64], rect: &'a [[f64; 2]]) -> impl Iterator<Item = f64> + 'a {
    qp.iter().zip(rect).map(|(&q, &[lo, hi])| {
        if q < lo {
            lo - q
        } else if q > hi {
            q - hi
        } else {
            0.0
        }
    })
}

/// Per-segment `[min, max]` of a run of synopsis rows — a leaf's bounding
/// rectangle.
fn bounding_box(rows: &[f64], segments: usize) -> Vec<[f64; 2]> {
    let mut rect = vec![[f64::INFINITY, f64::NEG_INFINITY]; segments];
    for means in rows.chunks_exact(segments) {
        for (r, &m) in rect.iter_mut().zip(means) {
            r[0] = r[0].min(m);
            r[1] = r[1].max(m);
        }
    }
    rect
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
    /// Adds one pass's effort (every non-zero field of `effort`).
    pub(crate) fn record(&self, effort: &IndexStats) {
        let fields = [
            (&self.indexed_queries, effort.indexed_queries),
            (&self.scan_queries, effort.scan_queries),
            (&self.leaves_visited, effort.leaves_visited),
            (&self.leaves_pruned, effort.leaves_pruned),
            (&self.series_pruned, effort.series_pruned),
            (&self.candidates, effort.candidates),
        ];
        for (counter, n) in fields {
            if n > 0 {
                counter.fetch_add(n, Ordering::Relaxed);
            }
        }
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
/// shards by `ShardedEngine::index_stats`.
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

    /// Bitwise equality of two `f64` runs.
    fn same_bits<'a>(
        a: impl IntoIterator<Item = &'a f64>,
        b: impl IntoIterator<Item = &'a f64>,
    ) -> bool {
        a.into_iter()
            .map(|x| x.to_bits())
            .eq(b.into_iter().map(|x| x.to_bits()))
    }

    /// Every member's leaf-block row is its fresh `paa(view, segments)`,
    /// bit for bit, and the position table points at that row.
    fn assert_rows_are_fresh_synopses(ix: &CandidateIndex, vs: &[Vec<f64>]) {
        assert_eq!(ix.len(), vs.len());
        for (i, v) in vs.iter().enumerate() {
            let row = ix.slot_row[i] as usize;
            assert_eq!(ix.row_slot[row], i, "position table names member {i}'s row");
            assert!(
                same_bits(ix.synopsis(i), &paa(v, ix.segments)),
                "member {i}'s row is not its PAA"
            );
        }
        for leaf in 0..ix.leaf_count() {
            for (i, means) in ix.leaf_rows(leaf) {
                assert!(
                    same_bits(means, &paa(&vs[i], ix.segments)),
                    "leaf {leaf} row of {i}"
                );
            }
        }
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
            assert_eq!(par.leaf_capacity, ser.leaf_capacity);
            assert_eq!(par.row_slot, ser.row_slot);
            assert_eq!(par.slot_row, ser.slot_row);
            assert!(same_bits(&par.synopses, &ser.synopses));
            assert!(same_bits(
                par.boxes.iter().flatten(),
                ser.boxes.iter().flatten()
            ));
            assert_eq!(par.leaf_count(), ser.leaf_count());
            assert_rows_are_fresh_synopses(&par, &vs);
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
        assert_rows_are_fresh_synopses(&ix, &vs);
        let mut rng = uts_stats::rng::Seed::new(0x1DE7).rng();
        for _ in 0..40 {
            let i = rng.gen_range(0..vs.len());
            let shift: f64 = rng.gen_range(-5.0..5.0);
            let donor = rng.gen_range(0..vs.len());
            vs[i] = vs[donor].iter().map(|v| v * -1.5 + shift).collect();
            ix.replace_member(i, &vs[i]);
        }
        assert_rows_are_fresh_synopses(&ix, &vs);
        let mut seen = Vec::new();
        for leaf in 0..ix.leaf_count() {
            let members = ix.leaf_members(leaf);
            assert!(members.windows(2).all(|w| w[0] < w[1]), "ascending");
            assert!(
                members
                    .iter()
                    .all(|&i| ix.slot_row[i] as usize / ix.leaf_capacity == leaf),
                "the position table names each member's leaf"
            );
            seen.extend_from_slice(members);
            for d in 0..ix.segments {
                let means: Vec<f64> = ix.leaf_rows(leaf).map(|(_, means)| means[d]).collect();
                let lo = means.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = means.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                let [box_lo, box_hi] = ix.leaf_box(leaf)[d];
                assert_eq!(box_lo.to_bits(), lo.to_bits(), "segment {d}");
                assert_eq!(box_hi.to_bits(), hi.to_bits(), "segment {d}");
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..vs.len()).collect::<Vec<_>>(), "leaves partition");
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

    /// Leaf chunks partition the full candidate pass: their candidates
    /// concatenate to the same set and their effort sums to the same
    /// counts, whatever the chunk size.
    #[test]
    fn leaf_chunks_partition_the_candidate_pass() {
        let cfg = IndexConfig {
            leaf_capacity: 3,
            ..IndexConfig::always()
        };
        let (vs, ix) = build(150, 24, &cfg);
        let q = 17;
        let qp = ix.query_synopsis(&vs[q]).unwrap();
        for eps in [0.0, 1.0, 3.0] {
            let counters = IndexCounters::default();
            let whole = ix.range_candidates_by(&qp, eps, Some(q), &counters, sq);
            let limit = ix.squared_prune_limit(eps);
            for chunk in [1, 7, 32, ix.leaf_count()] {
                let mut got = Vec::new();
                let mut effort = IndexStats::default();
                for start in (0..ix.leaf_count()).step_by(chunk) {
                    let leaves = start..(start + chunk).min(ix.leaf_count());
                    let (part, part_effort) = ix.candidates_in(&qp, limit, Some(q), leaves, &sq);
                    got.extend(part);
                    effort.absorb(&part_effort);
                }
                got.sort_unstable();
                assert_eq!(got, whole, "eps={eps} chunk={chunk}");
                assert_eq!(effort, counters.snapshot(), "eps={eps} chunk={chunk}");
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
        let leaf_acc: Vec<f64> = (0..ix.leaf_count())
            .map(|l| {
                let gaps = qp.iter().zip(ix.leaf_box(l));
                sum_sq(
                    gaps.map(|(&m, &[lo, hi])| (lo - m).max(m - hi).max(0.0))
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
            for (leaf, &leaf_sum) in leaf_acc.iter().enumerate() {
                for &i in ix.leaf_members(leaf) {
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
