//! Batched query engine: per-collection preparation split from per-query
//! evaluation.
//!
//! The paper's central experiment (§5, Figs. 8–17) runs range/k-NN
//! matching of *many* queries against one fixed collection, yet the naive
//! per-query paths in [`matching`](crate::matching) recompute
//! per-collection work inside every candidate scan: UMA/UEMA re-filter
//! the entire collection per query, MUNICH re-derives both sides' minimal
//! bounding intervals per candidate pair, DUST looks its lookup tables
//! up in a shared cache by error pair, and every Euclidean comparison
//! pays a full pass plus a square root even when the running sum has
//! already crossed ε.
//!
//! [`QueryEngine`] splits the work the way the Lernaean Hydra evaluation
//! (Echihabi et al.) shows dominates similarity-search cost:
//!
//! 1. **Prepare** (once per collection × technique):
//!    * UMA/UEMA — the filtered view of every collection member, computed
//!      in `O(collection)` instead of `O(queries × collection)`;
//!    * DUST — a class id per distinct error description, each member's
//!      classes, and a flat store of the lookup table of every ordered
//!      class pair (resolved while building the candidate index's
//!      envelope), so no query pays a table *build* and the kernel reads
//!      each point's table by index;
//!    * MUNICH — per-series MBI envelopes feeding the filter step without
//!      re-scanning sample rows per pair; range queries then refine the
//!      surviving candidates through the count-bound early-abandonment
//!      pipeline ([`Munich::matches_enveloped`](crate::munich::Munich)),
//!      fanned over all cores.
//! 2. **Query** (per query): squared-distance comparisons with early
//!    abandonment against the exact ε² decision boundary
//!    ([`uts_tseries::squared_cutoff`]).
//!
//! Every fast path is *bit-identical* to its naive counterpart (asserted
//! by the `engine_equivalence` suite): the early-abandon kernels replay
//! the same accumulation order and the cutoffs are exact under IEEE
//! rounding, so answer sets, top-k results and probabilities match the
//! `*_naive` paths down to the last ulp.
//!
//! On top of the prepared state, `prepare` also builds a lower-bound
//! candidate index ([`crate::index`]) for the value-based techniques
//! *and* for DUST (whose per-segment pruning cost is the φ-space
//! envelope of [`crate::dust::Dust::bound_envelope`]) when the
//! collection is large enough: range and top-k queries then generate
//! candidates sub-linearly (leaf-MBR and per-series PAA bounds) before
//! the exact kernels decide, with the same bit-identity contract
//! (admissible bounds never dismiss a true answer; the exact kernel
//! still makes every accept/reject decision).

use std::borrow::Borrow;
use std::ops::Range;
use std::sync::atomic::Ordering;

use uts_tseries::distance::{
    euclidean_squared_early_abandon, squared_cutoff, squared_cutoff_strict,
};
use uts_tseries::TimeSeries;
use uts_uncertain::{MultiObsSeries, PointError, UncertainSeries};

use crate::cancel::{Deadline, DeadlineExpired};
use crate::collection::Collection;
use crate::dust::{ClassTables, Dust, DustBoundTable, ErrorClasses};
use crate::error::InputError;
use crate::index::{
    admits, synopsis_exceeds_by, CandidateIndex, IndexConfig, IndexCounters, IndexStats,
};
use crate::matching::{GroundTruth, MatchingTask, QualityScores, Technique};
use crate::munich::MbiEnvelope;
use crate::parallel::parallel_map;

/// Leaves per chunk of an indexed range query (see
/// [`QueryEngine::range_select_by`]): enough bound and kernel work per
/// chunk to outweigh handing it to a pool thread, few enough that a
/// 50k-member collection (782 leaves of 64) splits into ~25 chunks to
/// share among the cores.
const RANGE_CHUNK_LEAVES: usize = 32;

/// Per-collection state prepared once for a `(collection, technique)`
/// pair (see the module docs for what each technique precomputes).
#[derive(Debug)]
enum Prepared {
    /// Euclidean and PROUD carry no extra per-query state beyond what
    /// their technique values already cache internally.
    Plain,
    /// UMA/UEMA: the filtered view of every collection member.
    Filtered(Vec<TimeSeries>),
    /// DUST: the collection's error classes and their resolved tables
    /// (`None` when the distinct errors exceed the warm-table cap: the
    /// kernel then reads the shared cache per error-pair run) plus the
    /// φ-space cost envelope that makes the candidate index admissible
    /// for DUST (`None` when the envelope is unavailable — a capped error
    /// set or a construction refusal — in which case DUST queries keep
    /// the exact scan).
    Dust {
        classes: Option<DustClasses>,
        envelope: Option<DustBoundTable>,
        /// Largest |value| across the collection: together with the
        /// query's own maximum it bounds every per-point gap a query can
        /// produce, which must stay inside the envelope's validity
        /// horizon for the index bound to be admissible.
        max_abs: f64,
    },
    /// MUNICH: the MBI envelope of every collection member.
    Munich(Vec<MbiEnvelope>),
}

/// A DUST collection's error classes: each distinct error description
/// gets a small id, each member stores its points' ids, and one flat
/// store holds the table of every `(query class, member class)` pair.
/// A query's classes are resolved once; its kernel calls then read each
/// point's table by index.
#[derive(Debug)]
struct DustClasses {
    /// The distinct error descriptions, at most
    /// [`crate::dust::MAX_WARM_ERRORS`]; a class id indexes this list.
    errors: Vec<PointError>,
    /// The resolved table of every ordered pair of `errors`.
    tables: ClassTables,
    /// Each member's classes.
    members: Vec<ErrorClasses>,
}

/// A query's technique-specific view, detached from any particular
/// engine's collection.
///
/// This is what lets the serving layer fan one query out across shard
/// engines the query is *not* a member of: the owner shard resolves the
/// query's prepared view once ([`QueryEngine::query_ref`]), and every
/// shard then scans its own members against it through the `*_ref`
/// entry points ([`QueryEngine::answer_set_ref`],
/// [`QueryEngine::top_k_ref`], [`QueryEngine::probabilities_ref`]).
///
/// The variant must match the technique the receiving engine was
/// prepared for (the `*_ref` methods panic on a mismatch — it is a
/// caller bug, like an out-of-range index).
#[derive(Debug, Clone, Copy)]
pub enum QueryRef<'q> {
    /// The observed/pdf-model query series (Euclidean, DUST, PROUD).
    Uncertain(&'q UncertainSeries),
    /// The query's filtered view (UMA/UEMA) — already passed through the
    /// technique's filter, so shards never re-filter per query.
    Filtered(&'q TimeSeries),
    /// The multi-observation query plus its precomputed MBI envelope
    /// (MUNICH).
    Multi(&'q MultiObsSeries, &'q MbiEnvelope),
}

/// A similarity technique bound to a collection, with the per-collection
/// work hoisted out of the query loop.
///
/// Build once with [`QueryEngine::prepare`], then answer any number of
/// range / top-k / probability queries. The engine is `Sync`: one
/// prepared instance serves all worker threads of a batched evaluation.
///
/// The collection parameter `T` is anything that borrows a
/// [`Collection`]: a bare `Collection` or `&Collection` (the sharded
/// serving layer owns one per shard), or a [`MatchingTask`] as
/// `MatchingTask`, `&MatchingTask` or `Arc<MatchingTask>`, which serves
/// the task's collection and adds the §4.1.2 protocol
/// ([`QueryEngine::task`], [`QueryEngine::query_quality`]).
///
/// # Example: prepare once, query many
///
/// ```
/// use uts_core::engine::QueryEngine;
/// use uts_core::matching::{MatchingTask, Technique};
/// use uts_tseries::TimeSeries;
/// use uts_uncertain::{ErrorFamily, PointError, UncertainSeries};
///
/// let e = PointError::new(ErrorFamily::Normal, 0.1);
/// let clean: Vec<TimeSeries> = (0..6)
///     .map(|i| TimeSeries::from_values((0..8).map(|t| ((t + i) as f64 / 3.0).sin())))
///     .collect();
/// let uncertain: Vec<UncertainSeries> = clean
///     .iter()
///     .map(|c| UncertainSeries::new(c.values().to_vec(), vec![e; 8]))
///     .collect();
/// let task = MatchingTask::new(clean, uncertain, None, 2);
///
/// // Per-collection work happens once, here — not inside the loop.
/// let engine = QueryEngine::prepare(&task, &Technique::Euclidean);
/// for q in 0..task.len() {
///     let eps = task.calibrated_threshold(q, &Technique::Euclidean);
///     let hits = engine.answer_set(q, eps);
///     assert!(hits.iter().all(|&i| i != q), "self is excluded");
/// }
/// ```
#[derive(Debug)]
pub struct QueryEngine<T: Borrow<Collection>> {
    collection: T,
    technique: Technique,
    state: Prepared,
    /// Lower-bound candidate index over the technique's value view
    /// (`None` when the technique bypasses it, the collection is below
    /// the config's threshold, or indexing is disabled).
    index: Option<CandidateIndex>,
    /// Pruning-effectiveness counters across all queries answered.
    counters: IndexCounters,
}

impl<T: Borrow<Collection>> QueryEngine<T> {
    /// Prepares the engine: runs the technique's per-collection
    /// precomputation (the `O(collection)` work every query would
    /// otherwise repeat).
    ///
    /// Uses the default [`IndexConfig`]: collections of at least
    /// [`crate::index::DEFAULT_MIN_COLLECTION`] members get a candidate
    /// index for the value-based techniques.
    ///
    /// # Panics
    /// For [`Technique::Munich`] when the collection holds no
    /// multi-observation data ([`QueryEngine::try_prepare_with`] reports
    /// this as a typed [`InputError`] instead).
    pub fn prepare(collection: T, technique: &Technique) -> Self {
        Self::prepare_with(collection, technique, IndexConfig::default())
    }

    /// [`QueryEngine::prepare`] with an explicit [`IndexConfig`] —
    /// [`IndexConfig::always`] forces the indexed paths on any
    /// collection, [`IndexConfig::disabled`] forces the pure scans.
    ///
    /// # Panics
    /// As [`QueryEngine::prepare`].
    pub fn prepare_with(collection: T, technique: &Technique, index: IndexConfig) -> Self {
        Self::try_prepare_with(collection, technique, index).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`QueryEngine::prepare_with`].
    pub fn try_prepare_with(
        collection: T,
        technique: &Technique,
        index: IndexConfig,
    ) -> Result<Self, InputError> {
        let state = Self::build_state(collection.borrow(), technique)?;
        let index = Self::build_index(collection.borrow(), technique, &state, &index);
        Ok(Self {
            collection,
            technique: technique.clone(),
            state,
            index,
            counters: IndexCounters::default(),
        })
    }

    /// The candidate index over the technique's value view — the
    /// representation its exact kernel compares: observed values for
    /// Euclidean and DUST (DUST's pruning pushes PAA gaps through its
    /// φ-space cost envelope; see [`crate::index`]'s module docs), the
    /// *filtered* series for UMA/UEMA. PROUD and MUNICH distances are
    /// not of the required shape over any stored per-series vector, so
    /// they bypass the index (their queries count as `scan_queries` in
    /// [`IndexStats`]); DUST also skips the build when its envelope is
    /// unavailable.
    fn build_index(
        collection: &Collection,
        technique: &Technique,
        state: &Prepared,
        cfg: &IndexConfig,
    ) -> Option<CandidateIndex> {
        let views: Vec<&[f64]> = match (technique, state) {
            (Technique::Uma(_) | Technique::Uema(_), Prepared::Filtered(filtered)) => {
                filtered.iter().map(|f| f.values()).collect()
            }
            (Technique::Euclidean, _)
            | (
                Technique::Dust(_),
                Prepared::Dust {
                    envelope: Some(_), ..
                },
            ) => collection.uncertain().iter().map(|u| u.values()).collect(),
            _ => return None,
        };
        CandidateIndex::build(&views, cfg)
    }

    /// The per-collection precomputation behind
    /// [`QueryEngine::try_prepare_with`] (see the module docs for what each
    /// technique hoists out of the query loop).
    fn build_state(coll: &Collection, technique: &Technique) -> Result<Prepared, InputError> {
        let state = match technique {
            Technique::Euclidean | Technique::Proud { .. } => Prepared::Plain,
            Technique::Dust(d) => {
                // Distinct (family, σ) descriptions across the collection
                // and each member's classes in one pass, abandoned as soon
                // as the set exceeds what `bound_envelope` accepts — a
                // per-point-σ workload would otherwise make this scan
                // quadratic in total points.
                let mut errors: Vec<PointError> = Vec::new();
                let members: Option<Vec<ErrorClasses>> = coll
                    .uncertain()
                    .iter()
                    .map(|u| ErrorClasses::collect(&mut errors, u.errors()))
                    .collect();
                if members.is_none() {
                    errors.clear();
                }
                // Building the envelope resolves every ordered pair's
                // lookup table, so no query pays a table build. `None`
                // (capped error sets, construction refusal) keeps every
                // DUST query on the exact scan; over the cap, tables are
                // built lazily.
                let envelope = d.bound_envelope(&errors);
                Prepared::Dust {
                    classes: members.map(|members| DustClasses {
                        tables: d.class_tables(&errors, &errors),
                        errors,
                        members,
                    }),
                    envelope,
                    max_abs: collection_max_abs(coll),
                }
            }
            Technique::Uma(_) | Technique::Uema(_) => {
                Prepared::Filtered(parallel_map(coll.uncertain(), |s| technique.filtered(s)))
            }
            Technique::Munich { .. } => {
                let multi = coll.multi().ok_or(InputError::MissingMultiObs)?;
                Prepared::Munich(multi.iter().map(MbiEnvelope::build).collect())
            }
        };
        Ok(state)
    }

    /// The collection the engine serves.
    pub fn collection(&self) -> &Collection {
        self.collection.borrow()
    }

    /// The technique the engine was prepared for.
    pub fn technique(&self) -> &Technique {
        &self.technique
    }

    /// Whether a candidate index was built at prepare time.
    pub fn is_indexed(&self) -> bool {
        self.index.is_some()
    }

    /// The candidate index, when one was built.
    pub fn index(&self) -> Option<&CandidateIndex> {
        self.index.as_ref()
    }

    /// Point-in-time pruning statistics across every range/top-k query
    /// this engine has answered (indexed or scanned).
    pub fn index_stats(&self) -> IndexStats {
        self.counters.snapshot()
    }

    /// The prepared query view of member `q` — its own series for the
    /// uncertain-series techniques, its cached filtered view for
    /// UMA/UEMA, its multi-observation rows plus MBI envelope for MUNICH.
    ///
    /// Pass the result to the `*_ref` entry points of *any* engine
    /// prepared for the same technique (in particular another shard's
    /// engine — the query need not be a member of the receiving
    /// collection).
    pub fn query_ref(&self, q: usize) -> QueryRef<'_> {
        let coll = self.collection();
        assert!(q < coll.len(), "query index out of range");
        match (&self.technique, &self.state) {
            (Technique::Uma(_) | Technique::Uema(_), Prepared::Filtered(filtered)) => {
                QueryRef::Filtered(&filtered[q])
            }
            (Technique::Munich { .. }, Prepared::Munich(envelopes)) => {
                let multi = coll
                    .multi()
                    .expect("MUNICH requires multi-observation data in the task");
                QueryRef::Multi(&multi[q], &envelopes[q])
            }
            _ => QueryRef::Uncertain(&coll.uncertain()[q]),
        }
    }

    /// Range query: all candidates within `epsilon` of query `q` (self
    /// excluded), as a sorted index vector. Bit-identical to
    /// [`MatchingTask::answer_set_naive`].
    pub fn answer_set(&self, q: usize, epsilon: f64) -> Vec<usize> {
        self.answer_set_ref(&self.query_ref(q), epsilon, Some(q))
    }

    /// Range query against an external query view: all members of *this*
    /// engine's collection within `epsilon` of `query`, as a sorted
    /// (local) index vector. `exclude` skips one local index — pass the
    /// query's own position when it is a member of this collection,
    /// `None` when it lives elsewhere (another shard).
    ///
    /// Runs exactly the kernels of [`QueryEngine::answer_set`], so a
    /// sharded scan unions to the bit-identical unsharded answer.
    ///
    /// # Panics
    /// If the `query` variant does not match the prepared technique.
    pub fn answer_set_ref(
        &self,
        query: &QueryRef<'_>,
        epsilon: f64,
        exclude: Option<usize>,
    ) -> Vec<usize> {
        self.answer_set_ref_within(query, epsilon, exclude, &Deadline::NONE)
            .expect("the unarmed deadline never expires")
    }

    /// Deadline-bounded twin of [`QueryEngine::answer_set_ref`]: the
    /// scan polls `deadline` at cooperative checkpoints (every
    /// [`crate::cancel::CHECK_INTERVAL`] candidates on the value scans,
    /// every candidate on the MUNICH/PROUD refinement loops) and abandons
    /// with the typed [`DeadlineExpired`] once it passes. An answer that
    /// *is* returned is bit-identical to the deadline-free scan —
    /// checkpoints never alter a decision, they only stop the loop.
    pub(crate) fn answer_set_ref_within(
        &self,
        query: &QueryRef<'_>,
        epsilon: f64,
        exclude: Option<usize>,
        deadline: &Deadline,
    ) -> Result<Vec<usize>, DeadlineExpired> {
        let coll = self.collection();
        let hits = match (&self.technique, &self.state, query) {
            (Technique::Euclidean, _, QueryRef::Uncertain(qu)) => {
                let qv = qu.values();
                return self.range_select_by(
                    qv,
                    epsilon,
                    exclude,
                    deadline,
                    Some(squared),
                    |i, limit| {
                        euclidean_squared_early_abandon(qv, coll.uncertain()[i].values(), limit)
                    },
                );
            }
            (
                Technique::Uma(_) | Technique::Uema(_),
                Prepared::Filtered(filtered),
                QueryRef::Filtered(fq),
            ) => {
                let qv = fq.values();
                return self.range_select_by(
                    qv,
                    epsilon,
                    exclude,
                    deadline,
                    Some(squared),
                    |i, limit| euclidean_squared_early_abandon(qv, filtered[i].values(), limit),
                );
            }
            (
                Technique::Dust(d),
                Prepared::Dust {
                    classes,
                    envelope,
                    max_abs,
                },
                QueryRef::Uncertain(qu),
            ) => {
                let dq = DustQuery::new(d, classes, coll.uncertain(), qu);
                return self.range_select_by(
                    qu.values(),
                    epsilon,
                    exclude,
                    deadline,
                    dq.cost(envelope.as_ref(), *max_abs),
                    |i, cutoff| dq.dist_sq(i, cutoff),
                );
            }
            (Technique::Proud { proud, tau }, _, QueryRef::Uncertain(qu)) => {
                self.counters.scan_queries.fetch_add(1, Ordering::Relaxed);
                self.scan_pairs(exclude, deadline, false, |i| {
                    proud.matches(qu, &coll.uncertain()[i], epsilon, *tau)
                })?
            }
            (
                Technique::Munich { munich, tau },
                Prepared::Munich(envelopes),
                QueryRef::Multi(qm, qenv),
            ) => {
                assert!((0.0..=1.0).contains(tau), "τ must be in [0, 1]");
                self.counters.scan_queries.fetch_add(1, Ordering::Relaxed);
                if epsilon.is_nan() || epsilon < 0.0 {
                    // A negative or NaN ε matches nothing, as in every
                    // other technique (MUNICH's pair API rejects it).
                    return Ok(Vec::new());
                }
                let multi = coll
                    .multi()
                    .expect("MUNICH requires multi-observation data in the task");
                // Each candidate runs the MBI-filter → count-bound-abandon
                // → refine pipeline, whose decision is bit-identical to
                // the naive `matches`.
                self.scan_pairs(exclude, deadline, true, |i| {
                    munich.matches_enveloped(qm, &multi[i], epsilon, *tau, qenv, &envelopes[i])
                })?
            }
            _ => panic!("query view does not match the prepared technique"),
        };
        Ok(hits
            .into_iter()
            .filter_map(|(i, hit)| hit.then_some(i))
            .collect())
    }

    /// `Pr(distance(q, i) ≤ ε)` for every candidate `i ≠ q` — `None` for
    /// non-probabilistic techniques, and `0.0` for every candidate when
    /// ε is negative or NaN. Bit-identical to
    /// [`MatchingTask::probabilities_naive`].
    pub fn probabilities(&self, q: usize, epsilon: f64) -> Option<Vec<(usize, f64)>> {
        self.probabilities_ref(&self.query_ref(q), epsilon, Some(q))
    }

    /// Probabilities against an external query view (see
    /// [`QueryEngine::answer_set_ref`] for the `exclude` convention);
    /// local indices, `None` for non-probabilistic techniques.
    ///
    /// # Panics
    /// If the `query` variant does not match the prepared technique.
    pub fn probabilities_ref(
        &self,
        query: &QueryRef<'_>,
        epsilon: f64,
        exclude: Option<usize>,
    ) -> Option<Vec<(usize, f64)>> {
        self.probabilities_ref_within(query, epsilon, exclude, &Deadline::NONE)
            .expect("the unarmed deadline never expires")
    }

    /// Deadline-bounded twin of [`QueryEngine::probabilities_ref`] (see
    /// [`QueryEngine::answer_set_ref_within`] for the checkpoint
    /// contract).
    pub(crate) fn probabilities_ref_within(
        &self,
        query: &QueryRef<'_>,
        epsilon: f64,
        exclude: Option<usize>,
        deadline: &Deadline,
    ) -> Result<Option<Vec<(usize, f64)>>, DeadlineExpired> {
        let coll = self.collection();
        // A negative or NaN ε bounds no distance: every candidate's
        // probability is 0, as the range answer is empty.
        let degenerate = epsilon.is_nan() || epsilon < 0.0;
        match (&self.technique, &self.state, query) {
            (Technique::Proud { .. }, _, QueryRef::Uncertain(_))
            | (Technique::Munich { .. }, Prepared::Munich(_), QueryRef::Multi(..))
                if degenerate =>
            {
                Ok(Some(self.scan_pairs(exclude, deadline, false, |_| 0.0)?))
            }
            (Technique::Proud { proud, .. }, _, QueryRef::Uncertain(qu)) => {
                Ok(Some(self.scan_pairs(exclude, deadline, false, |i| {
                    proud.probability_within(qu, &coll.uncertain()[i], epsilon)
                })?))
            }
            (
                Technique::Munich { munich, .. },
                Prepared::Munich(envelopes),
                QueryRef::Multi(qm, qenv),
            ) => {
                let multi = coll
                    .multi()
                    .expect("MUNICH requires multi-observation data in the task");
                Ok(Some(self.scan_pairs(exclude, deadline, true, |i| {
                    munich.probability_within_enveloped(qm, &multi[i], epsilon, qenv, &envelopes[i])
                })?))
            }
            (Technique::Proud { .. } | Technique::Munich { .. }, _, _) => {
                panic!("query view does not match the prepared technique")
            }
            _ => Ok(None),
        }
    }

    /// Top-k nearest neighbours of query `q` under the technique's
    /// distance (self excluded), as `(index, distance)` sorted ascending
    /// by distance then index. `None` for the probabilistic techniques
    /// (they produce probabilities, not distances). Bit-identical to
    /// [`MatchingTask::top_k_naive`].
    ///
    /// The scan keeps the current k-th best distance as an early-abandon
    /// limit: a candidate whose running squared sum proves it cannot beat
    /// the k-th best is dropped mid-pass.
    pub fn top_k(&self, q: usize, k: usize) -> Option<Vec<(usize, f64)>> {
        self.top_k_ref(&self.query_ref(q), k, Some(q))
    }

    /// Top-k motifs: the `k` closest pairs `(i, j, distance)`, `i < j`,
    /// of the collection (paper §3.3 lists top-k motif search among the
    /// queries DUST supports), sorted ascending by distance, then `i`,
    /// then `j`; `None` for the probabilistic techniques. A pair's
    /// distance is the one query `i` measures to candidate `j`, as in an
    /// exhaustive pair scan. A collection of fewer than two members has
    /// no pairs: the distance-ranked techniques answer an empty list.
    ///
    /// Answered from per-member [`QueryEngine::top_k`] lists: for a
    /// symmetric distance, a pair among the `k` closest has `j` among
    /// `i`'s `k` nearest neighbours. DUST's tables are keyed by the
    /// ordered error pair, so its two directions of a pair can differ
    /// (widely when the two error pdfs differ in family), and a list is
    /// not trusted to hold every needed pair: while some member's list
    /// omits a pair `(i, j > i)` yet ends no farther than the current
    /// k-th candidate, that list is doubled and re-queried.
    ///
    /// # Example: a planted duplicate is the closest pair
    ///
    /// ```
    /// use uts_core::engine::QueryEngine;
    /// use uts_core::matching::Technique;
    /// use uts_core::Collection;
    /// use uts_uncertain::{ErrorFamily, PointError, UncertainSeries};
    ///
    /// let e = PointError::new(ErrorFamily::Normal, 0.1);
    /// // Member 4 repeats member 1.
    /// let uncertain: Vec<UncertainSeries> = [0, 1, 2, 3, 1]
    ///     .iter()
    ///     .map(|&f| {
    ///         let values = (0..8).map(|t| ((t * (f + 1)) as f64 / 3.0).sin()).collect();
    ///         UncertainSeries::new(values, vec![e; 8])
    ///     })
    ///     .collect();
    /// // No ground truth: the engine serves the bare collection.
    /// let collection = Collection::try_new(uncertain, None).unwrap();
    /// let engine = QueryEngine::prepare(&collection, &Technique::Euclidean);
    /// let motifs = engine.top_k_motifs(2).expect("Euclidean ranks by distance");
    /// assert_eq!(motifs.len(), 2);
    /// assert_eq!(motifs[0], (1, 4, 0.0));
    /// ```
    pub fn top_k_motifs(&self, k: usize) -> Option<Vec<(usize, usize, f64)>> {
        assert!(k > 0, "k must be positive");
        let n = self.collection().len();
        if n < 2 {
            return (!self.technique.is_probabilistic()).then(Vec::new);
        }
        let first = k.min(n - 1);
        let mut lists = (0..n)
            .map(|i| Some((first, self.top_k(i, first)?)))
            .collect::<Option<Vec<_>>>()?;
        loop {
            let mut pairs: Vec<(usize, usize, f64)> = lists
                .iter()
                .enumerate()
                .flat_map(|(i, (_, list))| {
                    list.iter()
                        .filter(move |&&(j, _)| j > i)
                        .map(move |&(j, d)| (i, j, d))
                })
                .collect();
            pairs.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
            let kth = pairs.get(k - 1).map_or(f64::INFINITY, |p| p.2);
            let mut complete = true;
            for (i, (width, list)) in lists.iter_mut().enumerate() {
                let later = list.iter().filter(|&&(j, _)| j > i).count();
                if later < n - 1 - i && list.last().is_some_and(|&(_, d)| d <= kth) {
                    *width = (*width * 2).min(n - 1);
                    *list = self.top_k(i, *width)?;
                    complete = false;
                }
            }
            if complete {
                pairs.truncate(k);
                return Some(pairs);
            }
        }
    }

    /// Top-k against an external query view (see
    /// [`QueryEngine::answer_set_ref`] for the `exclude` convention):
    /// the `min(k, candidates)` nearest members of *this* collection, as
    /// `(local index, distance)` sorted ascending by distance then index.
    /// `None` for the probabilistic techniques.
    ///
    /// Distances returned for surviving candidates do not depend on the
    /// early-abandon limit (the accumulation order is fixed), so
    /// per-shard selections merge to the bit-identical global top-k —
    /// the guarantee the serving layer's bounded merge relies on.
    ///
    /// # Panics
    /// If the `query` variant does not match the prepared technique.
    pub fn top_k_ref(
        &self,
        query: &QueryRef<'_>,
        k: usize,
        exclude: Option<usize>,
    ) -> Option<Vec<(usize, f64)>> {
        self.top_k_ref_within(query, k, exclude, &Deadline::NONE)
            .expect("the unarmed deadline never expires")
    }

    /// Deadline-bounded twin of [`QueryEngine::top_k_ref`] (see
    /// [`QueryEngine::answer_set_ref_within`] for the checkpoint
    /// contract). The outer `Result` carries expiry; the inner `Option`
    /// keeps the "probabilistic techniques have no distance ranking"
    /// convention.
    pub(crate) fn top_k_ref_within(
        &self,
        query: &QueryRef<'_>,
        k: usize,
        exclude: Option<usize>,
        deadline: &Deadline,
    ) -> Result<Option<Vec<(usize, f64)>>, DeadlineExpired> {
        let coll = self.collection();
        assert!(k > 0, "k must be positive");
        match (&self.technique, &self.state, query) {
            (Technique::Euclidean, _, QueryRef::Uncertain(qu)) => {
                let qv = qu.values();
                Ok(Some(self.top_k_select_by(
                    qv,
                    k,
                    exclude,
                    deadline,
                    Some(squared),
                    |i, limit| {
                        euclidean_squared_early_abandon(qv, coll.uncertain()[i].values(), limit)
                    },
                )?))
            }
            (
                Technique::Uma(_) | Technique::Uema(_),
                Prepared::Filtered(filtered),
                QueryRef::Filtered(fq),
            ) => {
                let qv = fq.values();
                Ok(Some(self.top_k_select_by(
                    qv,
                    k,
                    exclude,
                    deadline,
                    Some(squared),
                    |i, limit| euclidean_squared_early_abandon(qv, filtered[i].values(), limit),
                )?))
            }
            (
                Technique::Dust(d),
                Prepared::Dust {
                    classes,
                    envelope,
                    max_abs,
                },
                QueryRef::Uncertain(qu),
            ) => {
                let dq = DustQuery::new(d, classes, coll.uncertain(), qu);
                Ok(Some(self.top_k_select_by(
                    qu.values(),
                    k,
                    exclude,
                    deadline,
                    dq.cost(envelope.as_ref(), *max_abs),
                    |i, limit| dq.dist_sq(i, limit),
                )?))
            }
            (Technique::Proud { .. } | Technique::Munich { .. }, _, _) => Ok(None),
            _ => panic!("query view does not match the prepared technique"),
        }
    }

    /// The probabilistic techniques' scan: `pair(i)` for every candidate,
    /// in order, polling the deadline before each pair — one pair's
    /// moments (PROUD) or refinement (MUNICH) is the unit of work. MUNICH
    /// pairs cost enough to fan over all cores (`parallel_map` preserves
    /// order); PROUD's stay on the calling thread.
    fn scan_pairs<R: Send>(
        &self,
        exclude: Option<usize>,
        deadline: &Deadline,
        parallel: bool,
        pair: impl Fn(usize) -> R + Sync,
    ) -> Result<Vec<(usize, R)>, DeadlineExpired> {
        let cands: Vec<usize> = candidates(self.collection().len(), exclude).collect();
        let run = |&i: &usize| {
            deadline.check()?;
            Ok((i, pair(i)))
        };
        if parallel {
            parallel_map(&cands, run).into_iter().collect()
        } else {
            cands.iter().map(run).collect()
        }
    }

    /// The index and the query's synopsis when the index can serve this
    /// query under `cost` — an index was built, the caller has an
    /// admissible bound (`None` forces the scan: DUST with no envelope or
    /// uncovered query errors) and the query length matches. Counts the
    /// query on whichever path it takes.
    fn index_route<C>(
        &self,
        qv: &[f64],
        cost: Option<C>,
    ) -> Option<(&CandidateIndex, Vec<f64>, C)> {
        let route = match (&self.index, cost) {
            (Some(ix), Some(cost)) => ix.query_synopsis(qv).map(|qp| (ix, qp, cost)),
            _ => None,
        };
        let path = match route {
            Some(_) => &self.counters.indexed_queries,
            None => &self.counters.scan_queries,
        };
        path.fetch_add(1, Ordering::Relaxed);
        route
    }

    /// Range selection over the value view: indexed candidate
    /// generation under the per-segment pruning `cost` ([`squared`] for
    /// the Euclidean kernels, DUST's envelope) when the prepared index
    /// can serve this query, exact scan otherwise. Either way `dist_sq`
    /// (the early-abandon kernel) makes every accept/reject decision
    /// against the exact ε² cutoff in [`range_decide`], so the answer is
    /// bit-identical to the pure scan — the index only dismisses
    /// candidates whose admissible lower bound proves `d > ε`.
    ///
    /// The indexed path splits the leaves into chunks of
    /// [`RANGE_CHUNK_LEAVES`] and fans them over the worker pool: each
    /// chunk runs its leaf bounds, its member bounds and then the exact
    /// kernel on its own survivors, polling `deadline` as it goes. The
    /// chunks' hits are concatenated and sorted, so the answer is the
    /// same ascending list, and their effort sums to the same counters.
    /// A collection of fewer than four chunks runs inline on the calling
    /// thread (see [`parallel_map`]).
    fn range_select_by(
        &self,
        qv: &[f64],
        epsilon: f64,
        exclude: Option<usize>,
        deadline: &Deadline,
        cost: Option<impl Fn(f64) -> f64 + Sync>,
        dist_sq: impl Fn(usize, f64) -> Option<f64> + Sync,
    ) -> Result<Vec<usize>, DeadlineExpired> {
        let cutoff = range_cutoff(epsilon);
        let Some((ix, qp, cost)) = self.index_route(qv, cost) else {
            let scan = candidates(self.collection().len(), exclude);
            return range_decide(scan, cutoff, deadline, dist_sq);
        };
        let limit = ix.squared_prune_limit(epsilon);
        let leaves = ix.leaf_count();
        let chunks: Vec<Range<usize>> = (0..leaves)
            .step_by(RANGE_CHUNK_LEAVES)
            .map(|start| start..(start + RANGE_CHUNK_LEAVES).min(leaves))
            .collect();
        let parts = parallel_map(&chunks, |chunk| {
            let (cands, effort) = ix.candidates_in(&qp, limit, exclude, chunk.clone(), &cost);
            (effort, range_decide(cands, cutoff, deadline, &dist_sq))
        });
        let mut effort = IndexStats::default();
        for (part, _) in &parts {
            effort.absorb(part);
        }
        self.counters.record(&effort);
        let mut hits = Vec::new();
        for (_, part) in parts {
            hits.extend(part?);
        }
        hits.sort_unstable();
        Ok(hits)
    }

    /// Top-k selection over the value view: best-first leaf visitation
    /// when the prepared index can serve this query, the index-order
    /// scan of [`select_top_k`] otherwise (see [`Self::range_select_by`]
    /// for the `cost` convention).
    fn top_k_select_by(
        &self,
        qv: &[f64],
        k: usize,
        exclude: Option<usize>,
        deadline: &Deadline,
        cost: Option<impl Fn(f64) -> f64>,
        dist_sq: impl FnMut(usize, f64) -> Option<f64>,
    ) -> Result<Vec<(usize, f64)>, DeadlineExpired> {
        match self.index_route(qv, cost) {
            Some((ix, qp, cost)) => {
                self.indexed_top_k(ix, &qp, k, exclude, deadline, cost, dist_sq)
            }
            None => select_top_k(self.collection().len(), exclude, k, deadline, dist_sq),
        }
    }

    /// Best-first top-k through the index: leaves in ascending MBR-bound
    /// order, stopping once the k-th best distance proves every
    /// remaining leaf unreachable.
    ///
    /// Visit order is arbitrary with respect to member index, so unlike
    /// [`select_top_k`] (index-order, where a tie with the k-th best
    /// always loses to the earlier index already kept) this selection
    /// must stay order-insensitive to remain bit-identical: the abandon
    /// limit is the *non-strict* [`squared_cutoff`] of the k-th best
    /// distance (a tying candidate survives the kernel), and ties are
    /// resolved by explicit `(distance, index)` lexicographic
    /// comparison. Distances of kept candidates are full exact sums
    /// (independent of the limit), so the final `(d, i)`-sorted k are
    /// the same bits the scan path returns.
    #[allow(clippy::too_many_arguments)]
    fn indexed_top_k(
        &self,
        ix: &CandidateIndex,
        qp: &[f64],
        k: usize,
        exclude: Option<usize>,
        deadline: &Deadline,
        cost: impl Fn(f64) -> f64,
        mut dist_sq: impl FnMut(usize, f64) -> Option<f64>,
    ) -> Result<Vec<(usize, f64)>, DeadlineExpired> {
        let mut best: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
        let mut limit = f64::INFINITY;
        let mut bound = f64::INFINITY; // current k-th best distance
        let mut prune_limit = f64::INFINITY; // squared-space twin of `bound`
        let order = ix.leaves_by_lower_bound_by(qp, &cost);
        let mut effort = IndexStats::default();
        for (pos, &(leaf_lb, leaf)) in order.iter().enumerate() {
            // One poll per leaf: the natural granule of the best-first
            // descent (a leaf is a bounded batch of kernel calls).
            deadline.check()?;
            if best.len() == k && !admits(leaf_lb, bound) {
                // Bounds ascend with `pos`: everything after is pruned too.
                effort.leaves_pruned += (order.len() - pos) as u64;
                break;
            }
            effort.leaves_visited += 1;
            for (i, means) in ix.leaf_rows(leaf) {
                if Some(i) == exclude {
                    continue;
                }
                if best.len() == k && synopsis_exceeds_by(qp, means, prune_limit, &cost) {
                    effort.series_pruned += 1;
                    continue;
                }
                effort.candidates += 1;
                let Some(total) = dist_sq(i, limit) else {
                    continue;
                };
                let d = total.sqrt();
                if best.len() == k {
                    let (bd, bi) = best[k - 1];
                    if d > bd || (d == bd && i > bi) {
                        continue;
                    }
                }
                let at = best.partition_point(|&(bd, bi)| bd < d || (bd == d && bi < i));
                best.insert(at, (d, i));
                best.truncate(k);
                if best.len() == k {
                    bound = best[k - 1].0;
                    limit = squared_cutoff(bound);
                    prune_limit = ix.squared_prune_limit(bound);
                }
            }
        }
        self.counters.record(&effort);
        Ok(best.into_iter().map(|(d, i)| (i, d)).collect())
    }
}

/// The §4.1.2 protocol, for engines prepared over a [`MatchingTask`].
impl<T: Borrow<Collection> + Borrow<MatchingTask>> QueryEngine<T> {
    /// The task the engine was prepared over.
    pub fn task(&self) -> &MatchingTask {
        Borrow::<MatchingTask>::borrow(&self.collection)
    }

    /// Full §4.1.2 protocol for one query: ground truth, calibrated
    /// threshold, answer, score — with the answer scan on the prepared
    /// fast path.
    pub fn query_quality(&self, q: usize) -> QualityScores {
        let task = self.task();
        let gt = task.ground_truth(q);
        let eps = task.threshold_against(q, gt.anchor, &self.technique);
        let answer = self.answer_set(q, eps);
        QualityScores::from_sets(&answer, &gt.neighbors)
    }
}

impl QueryEngine<Collection> {
    /// Replaces member `i` of the owned collection in place and patches
    /// only that member's slot of the prepared state and candidate index
    /// — the serving layer's write path, `O(one member)` instead of a
    /// re-prepare. Answers afterwards are bit-identical to a fresh engine
    /// over the mutated collection, and the pruning counters carry on.
    ///
    /// DUST keeps its error set, tables and envelope while every error
    /// description of the new member is already in the set: the set is
    /// then a superset of the collection's, so the envelope stays
    /// admissible, and only the member's classes are rewritten. A new
    /// description re-runs the DUST preparation and index build under
    /// `cfg` (the config the engine was prepared with).
    ///
    /// # Errors
    /// A replacement whose shape the collection cannot absorb is a typed
    /// [`InputError`] and leaves the engine untouched.
    pub(crate) fn try_replace_member(
        &mut self,
        i: usize,
        uncertain: UncertainSeries,
        multi: Option<MultiObsSeries>,
        cfg: &IndexConfig,
    ) -> Result<(), InputError> {
        let old = self.collection.try_replace(i, uncertain, multi)?;
        let coll = &self.collection;
        let u = &coll.uncertain()[i];
        let view = match (&self.technique, &mut self.state) {
            (Technique::Euclidean, _) => Some(u.values()),
            (t @ (Technique::Uma(_) | Technique::Uema(_)), Prepared::Filtered(filtered)) => {
                filtered[i] = t.filtered(u);
                Some(filtered[i].values())
            }
            (Technique::Munich { .. }, Prepared::Munich(envelopes)) => {
                let multi = coll
                    .multi()
                    .expect("MUNICH requires multi-observation data in the task");
                envelopes[i] = MbiEnvelope::build(&multi[i]);
                None
            }
            (
                Technique::Dust(_),
                Prepared::Dust {
                    classes, max_abs, ..
                },
            ) => {
                let covered = classes
                    .as_mut()
                    .and_then(|c| Some((ErrorClasses::within(&c.errors, u.errors())?, c)));
                let Some((member, classes)) = covered else {
                    // A new error description (or a capped set): the
                    // envelope does not cover its pairs, so DUST is
                    // prepared afresh.
                    self.state = Self::build_state(coll, &self.technique)
                        .expect("DUST prepares on any collection");
                    self.index = Self::build_index(coll, &self.technique, &self.state, cfg);
                    return Ok(());
                };
                classes.members[i] = member;
                let new_max = series_max_abs(u.values());
                if new_max > *max_abs {
                    *max_abs = new_max;
                } else if new_max < *max_abs && series_max_abs(old.values()) == *max_abs {
                    // The replaced member held the maximum.
                    *max_abs = collection_max_abs(coll);
                }
                Some(u.values())
            }
            // PROUD keeps no per-member state.
            _ => None,
        };
        if let (Some(ix), Some(view)) = (self.index.as_mut(), view) {
            ix.replace_member(i, view);
        }
        Ok(())
    }
}

/// Ground truth for query `q` over the clean collection: the `k` nearest
/// clean neighbours by Euclidean distance (self excluded), found with an
/// early-abandoned selection scan instead of a full distance pass plus
/// sort. Order and values are bit-identical to the naive
/// sort-by-distance path (ties resolve by index either way).
pub(crate) fn clean_ground_truth(clean: &[TimeSeries], q: usize, k: usize) -> GroundTruth {
    let qs = clean[q].values();
    let best = select_top_k(clean.len(), Some(q), k, &Deadline::NONE, |i, limit| {
        euclidean_squared_early_abandon(qs, clean[i].values(), limit)
    })
    .expect("the unarmed deadline never expires");
    let &(anchor, clean_distance) = best.last().expect("k >= 1 and len >= k + 2");
    GroundTruth {
        neighbors: best.iter().map(|&(i, _)| i).collect(),
        anchor,
        clean_distance,
    }
}

/// Candidate iterator for a scan over `n` members, skipping at most one
/// local index (the query's own slot when it lives in this collection).
fn candidates(n: usize, exclude: Option<usize>) -> impl Iterator<Item = usize> {
    (0..n).filter(move |&i| Some(i) != exclude)
}

/// One DUST query against a prepared collection: the kernel and the
/// pruning cost its range and top-k selections share.
///
/// The query's classes are resolved once, at construction. They double
/// as the coverage check: a local query is always covered, but an
/// external one (another shard's member, or ad-hoc) may carry a
/// (family, σ) the collection never saw. A covered query's kernel reads
/// each point's table from the flat store by class; an uncovered one (or
/// any query over a capped error set) reads the shared cache.
struct DustQuery<'a> {
    dust: &'a Dust,
    query: &'a UncertainSeries,
    members: &'a [UncertainSeries],
    /// The collection's classes and the query's, when it is covered.
    classed: Option<(&'a DustClasses, ErrorClasses)>,
}

impl<'a> DustQuery<'a> {
    fn new(
        dust: &'a Dust,
        classes: &'a Option<DustClasses>,
        members: &'a [UncertainSeries],
        query: &'a UncertainSeries,
    ) -> Self {
        let classed = classes
            .as_ref()
            .and_then(|c| Some((c, ErrorClasses::within(&c.errors, query.errors())?)));
        Self {
            dust,
            query,
            members,
            classed,
        }
    }

    /// The early-abandoned squared distance to member `i`.
    fn dist_sq(&self, i: usize, limit: f64) -> Option<f64> {
        let (q, m) = (self.query, &self.members[i]);
        match &self.classed {
            Some((c, qc)) => {
                self.dust
                    .distance_sq_classed(q, qc, m, &c.members[i], &c.tables, limit)
            }
            None => self.dust.distance_sq_early_abandon(q, m, limit),
        }
    }

    /// The per-segment pruning cost: the φ-space envelope when it exists
    /// *and* its lower bound is admissible for this query — the query
    /// covered and the largest per-point gap it can produce against any
    /// member (its own maximum |value| plus the collection's `max_abs`)
    /// inside the envelope's validity horizon. `None` keeps the query on
    /// the exact scan, through the same decision kernel; non-finite
    /// values fail the comparison and land there too.
    fn cost(
        &self,
        envelope: Option<&'a DustBoundTable>,
        max_abs: f64,
    ) -> Option<impl Fn(f64) -> f64 + Sync + 'a> {
        let env = envelope.filter(|e| {
            self.classed.is_some()
                && series_max_abs(self.query.values()) + max_abs <= e.valid_delta()
        })?;
        Some(move |gap: f64| env.cost(gap.abs()))
    }
}

/// Largest |value| of one series (0 when empty).
fn series_max_abs(values: &[f64]) -> f64 {
    values.iter().fold(0.0f64, |m, v| m.max(v.abs()))
}

/// Largest |value| across the collection's observed series.
fn collection_max_abs(collection: &Collection) -> f64 {
    collection
        .uncertain()
        .iter()
        .fold(0.0f64, |m, u| m.max(series_max_abs(u.values())))
}

/// The Euclidean per-segment pruning cost `d²` — the index's own bound.
fn squared(d: f64) -> f64 {
    d * d
}

/// Exact cutoff for `distance <= epsilon` decisions in squared space,
/// tolerating the degenerate `epsilon < 0` and `epsilon = NaN` (reject
/// everything, matching the naive `d <= epsilon` comparison — distances
/// are non-negative).
fn range_cutoff(epsilon: f64) -> f64 {
    if epsilon >= 0.0 {
        squared_cutoff(epsilon)
    } else {
        -1.0
    }
}

/// The range decision loop, generic over the candidate source (the
/// index's candidate list or the full scan): `dist_sq` decides every
/// candidate against the exact squared `cutoff`.
fn range_decide(
    cands: impl IntoIterator<Item = usize>,
    cutoff: f64,
    deadline: &Deadline,
    dist_sq: impl Fn(usize, f64) -> Option<f64>,
) -> Result<Vec<usize>, DeadlineExpired> {
    let mut out = Vec::new();
    if deadline.is_armed() {
        for (it, i) in cands.into_iter().enumerate() {
            deadline.checkpoint(it)?;
            if dist_sq(i, cutoff).is_some() {
                out.push(i);
            }
        }
    } else {
        // Deadline-free twin of the loop above: the armed branch costs a
        // few ns per candidate — measurable next to a short
        // early-abandoned kernel — so the default path keeps the exact
        // pre-deadline loop body.
        for i in cands {
            if dist_sq(i, cutoff).is_some() {
                out.push(i);
            }
        }
    }
    Ok(out)
}

/// Shared top-k selection: scans candidates (skipping `exclude`) in
/// index order, keeping the `k` best `(distance, index)` pairs.
/// `dist_sq` receives the candidate and the current squared abandon
/// limit (strict: a tie with the k-th best loses, since later candidates
/// carry larger indices) and returns the full squared distance or `None`
/// once it exceeds the limit.
fn select_top_k(
    n: usize,
    exclude: Option<usize>,
    k: usize,
    deadline: &Deadline,
    mut dist_sq: impl FnMut(usize, f64) -> Option<f64>,
) -> Result<Vec<(usize, f64)>, DeadlineExpired> {
    // Sorted ascending by (distance, index); length ≤ k. The strict
    // cutoff only moves when an insertion changes the k-th best, so it is
    // recomputed there rather than per candidate (its ulp-walk is not
    // free on short series).
    let mut best: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
    let mut limit = f64::INFINITY;
    // The checkpoint branch is hoisted out of the loop (see
    // `range_decide`): the armed path polls, the default path is the
    // exact deadline-free loop body.
    let armed = deadline.is_armed();
    for (it, i) in candidates(n, exclude).enumerate() {
        if armed {
            deadline.checkpoint(it)?;
        }
        let Some(total) = dist_sq(i, limit) else {
            continue;
        };
        let d = total.sqrt();
        if best.len() == k && d >= best[k - 1].0 {
            continue; // ties lose to the earlier index already kept
        }
        let pos = best.partition_point(|&(bd, bi)| bd < d || (bd == d && bi < i));
        best.insert(pos, (d, i));
        best.truncate(k);
        if best.len() == k {
            limit = squared_cutoff_strict(best[k - 1].0);
        }
    }
    Ok(best.into_iter().map(|(d, i)| (i, d)).collect())
}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::dust::{Dust, DustConfig};
    use crate::munich::Munich;
    use crate::proud::{Proud, ProudConfig};
    use crate::uma::{Uema, Uma};
    use uts_stats::rng::Seed;
    use uts_uncertain::{
        perturb, perturb_multi, ErrorFamily, ErrorSpec, MultiObsSeries, UncertainSeries,
    };

    fn toy_task(seed: u64, n: usize, len: usize, sigma: f64, k: usize) -> MatchingTask {
        let root = Seed::new(seed);
        let clean: Vec<TimeSeries> = (0..n)
            .map(|i| {
                TimeSeries::from_values(
                    (0..len).map(|t| ((t as f64 / 4.0) + i as f64 * 0.45).sin()),
                )
                .znormalized()
            })
            .collect();
        let spec = ErrorSpec::constant(ErrorFamily::Normal, sigma);
        let uncertain: Vec<UncertainSeries> = clean
            .iter()
            .enumerate()
            .map(|(i, c)| perturb(c, &spec, root.derive("pdf").derive_u64(i as u64)))
            .collect();
        let multi: Vec<MultiObsSeries> = clean
            .iter()
            .enumerate()
            .map(|(i, c)| perturb_multi(c, &spec, 3, root.derive("multi").derive_u64(i as u64)))
            .collect();
        MatchingTask::new(clean, uncertain, Some(multi), k)
    }

    fn all_techniques(sigma: f64) -> Vec<Technique> {
        vec![
            Technique::Euclidean,
            Technique::Dust(Dust::new(DustConfig::default())),
            Technique::Uma(Uma::default()),
            Technique::Uema(Uema::default()),
            Technique::Proud {
                proud: Proud::new(ProudConfig::with_sigma(sigma)),
                tau: 0.3,
            },
            Technique::Munich {
                munich: Munich::default(),
                tau: 0.3,
            },
        ]
    }

    #[test]
    fn engine_answers_match_naive_for_every_technique() {
        let task = toy_task(11, 12, 20, 0.4, 3);
        for technique in all_techniques(0.4) {
            let engine = QueryEngine::prepare(&task, &technique);
            for q in [0, 5, 11] {
                let eps = task.calibrated_threshold(q, &technique);
                assert_eq!(
                    engine.answer_set(q, eps),
                    task.answer_set_naive(q, &technique, eps),
                    "{} q={q}",
                    technique.kind()
                );
            }
        }
    }

    #[test]
    fn engine_quality_matches_task_protocol() {
        let task = toy_task(5, 10, 16, 0.3, 3);
        for technique in all_techniques(0.3) {
            let engine = QueryEngine::prepare(&task, &technique);
            for q in [1, 7] {
                assert_eq!(
                    engine.query_quality(q),
                    task.query_quality(q, &technique),
                    "{} q={q}",
                    technique.kind()
                );
            }
        }
    }

    #[test]
    fn ground_truth_selection_matches_naive() {
        let task = toy_task(7, 14, 24, 0.5, 4);
        for q in 0..task.len() {
            assert_eq!(task.ground_truth(q), task.ground_truth_naive(q), "q={q}");
        }
    }

    #[test]
    fn top_k_is_sorted_and_excludes_self() {
        let task = toy_task(3, 10, 16, 0.4, 3);
        let engine = QueryEngine::prepare(&task, &Technique::Euclidean);
        let top = engine.top_k(2, 4).expect("distance technique");
        assert_eq!(top.len(), 4);
        assert!(top.iter().all(|&(i, _)| i != 2));
        assert!(top.windows(2).all(|w| w[0].1 <= w[1].1));
        // Probabilistic techniques have no distance ranking.
        let proud = Technique::Proud {
            proud: Proud::default(),
            tau: 0.5,
        };
        assert!(QueryEngine::prepare(&task, &proud).top_k(2, 4).is_none());
        assert!(task.top_k_naive(2, &proud, 4).is_none());
    }

    #[test]
    fn motifs_of_fewer_than_two_members_are_empty() {
        // No pairs exist: distance-ranked techniques answer `Some([])`,
        // the probabilistic ones keep `None`.
        let base = toy_task(37, 3, 8, 0.3, 1);
        for n in [0, 1] {
            let uncertain = base.uncertain()[..n].to_vec();
            let multi = base.multi().map(|m| m[..n].to_vec());
            let coll = Collection::try_new(uncertain, multi).expect("well-formed");
            for technique in all_techniques(0.3) {
                let motifs = QueryEngine::prepare(&coll, &technique).top_k_motifs(2);
                let want = (!technique.is_probabilistic()).then(Vec::new);
                assert_eq!(motifs, want, "{} n={n}", technique.kind());
            }
        }
    }

    #[test]
    fn prq_proud_monotone_in_tau() {
        // PRQ(Q, C, ε, τ) (paper Eq. 2): a higher τ can only shrink the
        // answer.
        let task = toy_task(17, 8, 32, 0.2, 3);
        let proud = Proud::new(ProudConfig::with_sigma(0.2));
        let eps = 1.5 * task.calibrated_threshold(0, &Technique::Euclidean);
        let answer =
            |tau| QueryEngine::prepare(&task, &Technique::Proud { proud, tau }).answer_set(0, eps);
        let (loose, tight) = (answer(0.1), answer(0.9));
        assert!(!loose.is_empty());
        assert!(
            tight.iter().all(|i| loose.contains(i)),
            "{tight:?} ⊄ {loose:?}"
        );
    }

    #[test]
    fn prq_munich_end_to_end() {
        let task = toy_task(23, 5, 6, 0.3, 1);
        let engine = QueryEngine::prepare(
            &task,
            &Technique::Munich {
                munich: Munich::default(),
                tau: 0.5,
            },
        );
        // Member 0 queried as an external view (nothing excluded) must
        // match itself.
        let query = engine.query_ref(0);
        let res = engine.answer_set_ref(&query, 1.5, None);
        assert!(res.contains(&0), "a series must match itself");
        // Wider ε can only add members.
        let wider = engine.answer_set_ref(&query, 5.0, None);
        assert!(res.iter().all(|i| wider.contains(i)), "{res:?} ⊄ {wider:?}");
    }

    #[test]
    fn degenerate_epsilon_matches_nothing() {
        // Negative and NaN thresholds must reject every candidate from
        // both candidate sources, index and scan (the naive `d <= eps`
        // comparison is false for both). The probabilistic techniques
        // always scan, and answer empty too: PROUD would otherwise square
        // a negative ε away, and MUNICH's pair API rejects it.
        let task = toy_task(29, 8, 10, 0.3, 3);
        for technique in all_techniques(0.3) {
            let name = technique.kind();
            for cfg in [IndexConfig::disabled(), IndexConfig::always()] {
                let engine = QueryEngine::prepare_with(&task, &technique, cfg);
                let indexed = cfg != IndexConfig::disabled() && !technique.is_probabilistic();
                assert_eq!(engine.is_indexed(), indexed, "{name}");
                for eps in [-1.0, -10.0, f64::NAN] {
                    assert!(engine.answer_set(0, eps).is_empty(), "{name} eps={eps}");
                    assert!(
                        task.answer_set_naive(0, &technique, eps).is_empty(),
                        "{name} eps={eps}"
                    );
                }
                let s = engine.index_stats();
                let routed = if indexed { (3, 0) } else { (0, 3) };
                assert_eq!((s.indexed_queries, s.scan_queries), routed, "{name}");
            }
        }
    }

    #[test]
    fn dust_uncovered_external_query_falls_back_to_scan() {
        let task = toy_task(41, 12, 20, 0.4, 3);
        let technique = Technique::Dust(Dust::default());
        let indexed = QueryEngine::prepare_with(&task, &technique, IndexConfig::always());
        let scan = QueryEngine::prepare_with(&task, &technique, IndexConfig::disabled());
        assert!(indexed.is_indexed(), "DUST builds the index when enveloped");
        // Local queries engage the index (their errors are by definition
        // part of the envelope's set)...
        let _ = indexed.answer_set(0, 1.0);
        assert_eq!(indexed.index_stats().indexed_queries, 1);
        // ...but an external query carrying a σ the envelope never saw
        // must not: its lower bound would be inadmissible.
        let foreign = UncertainSeries::new(
            task.uncertain()[0].values().to_vec(),
            vec![PointError::new(ErrorFamily::Normal, 0.123); 20],
        );
        let before = indexed.index_stats();
        for eps in [0.5, 1.5, 4.0] {
            assert_eq!(
                indexed.answer_set_ref(&QueryRef::Uncertain(&foreign), eps, None),
                scan.answer_set_ref(&QueryRef::Uncertain(&foreign), eps, None),
                "eps={eps}"
            );
        }
        let gk = indexed
            .top_k_ref(&QueryRef::Uncertain(&foreign), 3, None)
            .unwrap();
        let wk = scan
            .top_k_ref(&QueryRef::Uncertain(&foreign), 3, None)
            .unwrap();
        assert_eq!(gk.len(), wk.len());
        for (a, b) in gk.iter().zip(&wk) {
            assert_eq!((a.0, a.1.to_bits()), (b.0, b.1.to_bits()));
        }
        let delta = indexed.index_stats().since(&before);
        assert_eq!((delta.indexed_queries, delta.scan_queries), (0, 4));
    }

    #[test]
    #[should_panic(expected = "multi-observation")]
    fn munich_without_multi_panics_at_prepare() {
        let base = toy_task(31, 8, 10, 0.3, 3);
        let task = MatchingTask::new(base.clean().to_vec(), base.uncertain().to_vec(), None, 3);
        let _ = QueryEngine::prepare(
            &task,
            &Technique::Munich {
                munich: Munich::default(),
                tau: 0.5,
            },
        );
    }
}
