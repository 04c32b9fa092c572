//! Sharded concurrent serving layer: one collection, N prepared shard
//! engines, deterministic merges, and a cross-query result cache.
//!
//! # Why a serving layer
//!
//! The batched [`QueryEngine`] answers one query against one prepared
//! collection. A serving workload adds two
//! pressures the engine alone does not address:
//!
//! * **Concurrency** — a single range/top-k scan is sequential per
//!   candidate (MUNICH excepted); partitioning the collection across
//!   shards lets one query occupy every core, with each shard running
//!   the same early-abandon kernels over its slice.
//! * **Skew** — real query streams are Zipf-shaped; the same few
//!   queries repeat. A result cache keyed by `(query, ε/k)` turns
//!   repeats into a map probe.
//!
//! # The equivalence contract
//!
//! Sharding is an execution strategy, not a semantics change: every
//! entry point returns results **bit-identical** to the unsharded
//! engine, for any shard count and either assignment strategy. The
//! pieces of that argument:
//!
//! 1. Shard member lists are ascending in global index
//!    ([`ShardPlan`]), so a shard's local scan order is global scan
//!    order restricted to that shard.
//! 2. Range and probability decisions are per-candidate — independent
//!    of which other candidates share the scan — so per-shard answers
//!    union (in series order, [`merge_answer_sets`] /
//!    [`merge_scored_by_index`]) to exactly the flat answer.
//! 3. Per-shard top-k selections run with a *looser* early-abandon
//!    limit than the global scan (the k-th best of a subset is no
//!    closer than the global k-th best), so every globally surviving
//!    candidate survives its shard too, with a distance that does not
//!    depend on the limit (fixed accumulation order). The bounded
//!    [`merge_top_k`] then resolves ties by the same
//!    `(distance, global index)` order the flat scan uses.
//!
//! The contract is enforced by `tests/serving_equivalence.rs` across
//! all six techniques and shard counts `{1, 2, 4, 7}`, and by property
//! tests over random collection sizes and shard counts.
//!
//! # Fault tolerance
//!
//! The entry points ([`ShardedEngine::answer_set_opts`],
//! [`ShardedEngine::top_k_opts`], [`ShardedEngine::probabilities_opts`])
//! are thin adapters over one pipeline — cache probe, admission,
//! deadline, owner-shard view, fan-out, merge, cache insert — whose
//! fan-out runs inside a fault boundary:
//!
//! * a **panicking shard** is isolated per attempt
//!   ([`crate::parallel::try_parallel_map`] plus a per-attempt catch),
//!   retried with backoff up to [`QueryOptions::retries`], and finally
//!   reported as a typed [`ServeError::Shard`] — never a process abort;
//! * a **deadline** ([`QueryOptions::deadline`]) is polled cooperatively
//!   inside every shard's scan; expiry yields the typed
//!   [`ServeError::Timeout`];
//! * under [`Strictness::Degraded`] a failed or expired shard is dropped
//!   from the merge and the [`ServingResponse`]'s [`Coverage`] bitmap
//!   records exactly which shards the answer saw;
//! * an [`AdmissionGate`] (opt-in, [`ShardedEngine::with_admission`])
//!   caps in-flight queries and rejects the overflow with the typed
//!   [`ServeError::Overloaded`] after a bounded wait;
//! * a seeded [`FaultPlan`] ([`ShardedEngine::inject_faults`]) injects
//!   deterministic one-shot faults at shard boundaries for chaos tests —
//!   the fault-free engine consults an empty plan and pays nothing.
//!
//! With [`QueryOptions::default`] (no deadline, no retries, strict) and
//! no injected faults, every answer is complete and bit-identical to the
//! unsharded engine's.
//!
//! Every query failure is one [`ServeError`]. Rejected input — a
//! collection the technique cannot be prepared on
//! ([`ShardedEngine::try_prepare_with`]) or a replacement of the wrong
//! shape ([`ShardedEngine::try_update_series`]) — is one
//! [`crate::InputError`], the type the unsharded engine and the MUNICH
//! pair methods return too.

pub mod admission;
pub mod cache;
pub mod fault;
pub mod merge;
pub mod options;
pub mod shard;

pub use admission::{AdmissionConfig, AdmissionGate, GateStats, Permit};
pub use cache::{CacheKey, CacheOp, CacheStats, CachedAnswer, ResultCache};
pub use fault::{FaultKind, FaultPlan};
pub use merge::{merge_answer_sets, merge_scored_by_index, merge_top_k};
pub use options::{Coverage, QueryOptions, ServeError, ServingResponse, ShardFault, Strictness};
pub use shard::{ShardAssignment, ShardPlan};

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Duration;

use uts_tseries::TimeSeries;
use uts_uncertain::{MultiObsSeries, UncertainSeries};

use crate::cancel::{Deadline, DeadlineExpired};
use crate::engine::{QueryEngine, QueryRef};
use crate::error::InputError;
use crate::index::{IndexConfig, IndexStats};
use crate::matching::{MatchingTask, Technique};
use crate::parallel::{panic_message, try_parallel_map};

/// Default bound on resident cache entries (see [`ResultCache`]).
pub const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// A shared, merged `(global index, score)` ranking — the payload type
/// of top-k and probability answers (scores are distances for the
/// former, `Pr(dist ≤ ε)` for the latter).
pub type ScoredAnswer = Arc<Vec<(usize, f64)>>;

/// An element of a served answer: how it maps from shard-local to
/// global indices, and how its answer round-trips through the
/// [`ResultCache`].
trait Answer: Send + Sized {
    fn globalize(self, global_of: impl Fn(usize) -> usize) -> Self;
    fn to_cached(answer: Arc<Vec<Self>>) -> CachedAnswer;
    fn from_cached(cached: CachedAnswer) -> Option<Arc<Vec<Self>>>;
}

/// Range answers: bare member indices.
impl Answer for usize {
    fn globalize(self, global_of: impl Fn(usize) -> usize) -> Self {
        global_of(self)
    }
    fn to_cached(answer: Arc<Vec<Self>>) -> CachedAnswer {
        CachedAnswer::Indices(answer)
    }
    fn from_cached(cached: CachedAnswer) -> Option<Arc<Vec<Self>>> {
        match cached {
            CachedAnswer::Indices(v) => Some(v),
            CachedAnswer::Scored(_) => None,
        }
    }
}

/// Top-k and probability answers: `(member index, score)`.
impl Answer for (usize, f64) {
    fn globalize(self, global_of: impl Fn(usize) -> usize) -> Self {
        (global_of(self.0), self.1)
    }
    fn to_cached(answer: Arc<Vec<Self>>) -> CachedAnswer {
        CachedAnswer::Scored(answer)
    }
    fn from_cached(cached: CachedAnswer) -> Option<Arc<Vec<Self>>> {
        match cached {
            CachedAnswer::Scored(v) => Some(v),
            CachedAnswer::Indices(_) => None,
        }
    }
}

/// First retry backoff; doubles per attempt, clipped to the remaining
/// deadline budget.
const RETRY_BACKOFF: Duration = Duration::from_micros(100);

/// How often a delayed (straggling) shard polls the deadline while it
/// sleeps — also the slack a deadline-bound query pays at worst on top
/// of its budget when every shard straggles.
const DELAY_SLICE: Duration = Duration::from_millis(1);

/// A collection partitioned across shard engines, serving range, top-k
/// and probability queries concurrently with cached, deterministic
/// answers.
///
/// Each shard owns a prepared [`QueryEngine`] over its slice of the
/// collection (`QueryEngine<Arc<MatchingTask>>` — the owning form of
/// the same engine the batch protocols borrow). A query resolves its
/// prepared view once on its owner shard, fans out across all shards
/// on a scoped worker pool, and merges deterministically.
///
/// # Example: sharded top-k is bit-identical to unsharded
///
/// ```
/// use uts_core::engine::QueryEngine;
/// use uts_core::matching::{MatchingTask, Technique};
/// use uts_core::serving::{QueryOptions, ShardAssignment, ShardedEngine};
/// use uts_tseries::TimeSeries;
/// use uts_uncertain::{ErrorFamily, PointError, UncertainSeries};
///
/// let e = PointError::new(ErrorFamily::Normal, 0.1);
/// let clean: Vec<TimeSeries> = (0..9)
///     .map(|i| TimeSeries::from_values((0..12).map(|t| ((t * (i + 1)) as f64 / 5.0).cos())))
///     .collect();
/// let uncertain: Vec<UncertainSeries> = clean
///     .iter()
///     .map(|c| UncertainSeries::new(c.values().to_vec(), vec![e; 12]))
///     .collect();
/// let task = MatchingTask::new(clean, uncertain, None, 3);
///
/// let flat = QueryEngine::prepare(&task, &Technique::Euclidean);
/// let sharded = ShardedEngine::prepare(
///     &task,
///     &Technique::Euclidean,
///     4, // does not divide 9: shard sizes 3/2/2/2
///     ShardAssignment::RoundRobin,
/// );
/// for q in 0..task.len() {
///     let served = sharded.top_k_opts(q, 3, &QueryOptions::default()).unwrap();
///     assert_eq!(*served.value, flat.top_k(q, 3).unwrap());
/// }
/// ```
#[derive(Debug)]
pub struct ShardedEngine {
    technique: Technique,
    plan: ShardPlan,
    shards: Vec<QueryEngine<Arc<MatchingTask>>>,
    cache: ResultCache,
    /// The index config every shard was prepared with — kept so a DUST
    /// write that must rebuild its shard's index
    /// ([`ShardedEngine::try_update_series`]) keeps the same indexing
    /// decision.
    index_config: IndexConfig,
    /// Opt-in admission gate ([`ShardedEngine::with_admission`]); `None`
    /// admits everything.
    gate: Option<AdmissionGate>,
    /// Injected chaos faults ([`ShardedEngine::inject_faults`]); the
    /// default empty plan costs one branch per shard attempt.
    faults: FaultPlan,
}

impl ShardedEngine {
    /// Partitions `task` across `shards` shards and prepares one engine
    /// per shard.
    ///
    /// Uses the default [`IndexConfig`] — shards of at least
    /// [`crate::index::DEFAULT_MIN_COLLECTION`] members get their own
    /// candidate index.
    ///
    /// # Panics
    /// If `shards == 0`, or for [`Technique::Munich`] when the task
    /// holds no multi-observation data ([`ShardedEngine::try_prepare_with`]
    /// reports the latter as a typed [`InputError`] instead).
    pub fn prepare(
        task: &MatchingTask,
        technique: &Technique,
        shards: usize,
        assignment: ShardAssignment,
    ) -> Self {
        Self::prepare_with(task, technique, shards, assignment, IndexConfig::default())
    }

    /// [`ShardedEngine::prepare`] with an explicit [`IndexConfig`],
    /// applied per shard (each shard indexes its own slice; the
    /// `min_collection` gate sees shard sizes, not the global size).
    ///
    /// # Panics
    /// As [`ShardedEngine::prepare`].
    pub fn prepare_with(
        task: &MatchingTask,
        technique: &Technique,
        shards: usize,
        assignment: ShardAssignment,
        index: IndexConfig,
    ) -> Self {
        Self::try_prepare_with(task, technique, shards, assignment, index)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible twin of [`ShardedEngine::prepare_with`].
    pub fn try_prepare_with(
        task: &MatchingTask,
        technique: &Technique,
        shards: usize,
        assignment: ShardAssignment,
        index: IndexConfig,
    ) -> Result<Self, InputError> {
        let plan = ShardPlan::new(task.len(), shards, assignment);
        let shards = (0..plan.shard_count())
            .map(|s| {
                let shard_task = Arc::new(task.subset(plan.members(s)));
                QueryEngine::try_prepare_with(shard_task, technique, index)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            technique: technique.clone(),
            plan,
            shards,
            cache: ResultCache::new(DEFAULT_CACHE_CAPACITY),
            index_config: index,
            gate: None,
            faults: FaultPlan::new(),
        })
    }

    /// Adds an admission gate: at most [`AdmissionConfig::permits`]
    /// queries run concurrently, and an arrival that cannot get a permit
    /// within [`AdmissionConfig::max_wait`] is rejected with the typed
    /// [`ServeError::Overloaded`].
    ///
    /// Cache hits are served *before* the gate — a saturated gate still
    /// answers repeat queries from the cache.
    pub fn with_admission(mut self, cfg: AdmissionConfig) -> Self {
        self.gate = Some(AdmissionGate::new(cfg));
        self
    }

    /// Admission counters, when a gate is configured.
    pub fn gate_stats(&self) -> Option<GateStats> {
        self.gate.as_ref().map(|g| g.stats())
    }

    /// Installs a chaos [`FaultPlan`]: its one-shot rules fire on the
    /// next attempts the targeted shards evaluate. Test-only
    /// configuration — an engine with no injected faults pays nothing.
    pub fn inject_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// How many injected fault rules are still armed.
    pub fn armed_faults(&self) -> usize {
        self.faults.armed_count()
    }

    /// The technique every shard was prepared for.
    pub fn technique(&self) -> &Technique {
        &self.technique
    }

    /// The shard plan (member lists and the global ↔ local maps).
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total number of series served.
    pub fn len(&self) -> usize {
        self.plan.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.plan.is_empty()
    }

    /// Point-in-time cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The index config every shard was prepared with.
    pub fn index_config(&self) -> IndexConfig {
        self.index_config
    }

    /// Point-in-time pruning statistics summed across all shards.
    ///
    /// Covers every technique the per-shard candidate index serves —
    /// the value-based ones and DUST (whose bound pushes PAA gaps
    /// through the φ-space cost envelope); a DUST query that falls
    /// outside the envelope's validity horizon on some shard shows up
    /// in `scan_queries` there while still counting `indexed_queries`
    /// on shards where it engages.
    pub fn index_stats(&self) -> IndexStats {
        let mut total = IndexStats::default();
        for shard in &self.shards {
            total.absorb(&shard.index_stats());
        }
        total
    }

    /// The deadline for one query under `opts`, armed at entry so the
    /// budget covers the whole fan-out (retries and merge included).
    fn deadline_of(opts: &QueryOptions) -> Deadline {
        match opts.deadline {
            Some(budget) => Deadline::within(budget),
            None => Deadline::NONE,
        }
    }

    /// One shard's attempt loop: fire any injected fault, run the
    /// evaluation inside a per-attempt panic catch, and retry panics
    /// (with exponential backoff, clipped to the deadline) up to
    /// `opts.retries` times. Deadline expiry and degenerate input are
    /// deterministic — they return immediately without burning retries.
    fn run_shard<X>(
        &self,
        s: usize,
        deadline: &Deadline,
        opts: &QueryOptions,
        retries_spent: &AtomicU32,
        run: &(impl Fn(usize, &Deadline) -> Result<Vec<X>, DeadlineExpired> + Sync),
    ) -> Result<Vec<X>, ShardFault> {
        let mut last_panic = String::new();
        for attempt in 0..=opts.retries {
            if deadline.expired() {
                return Err(ShardFault::Expired);
            }
            if attempt > 0 {
                retries_spent.fetch_add(1, Ordering::Relaxed);
                let mut backoff = RETRY_BACKOFF * (1 << (attempt - 1).min(10));
                if let Some(left) = deadline.remaining() {
                    backoff = backoff.min(left);
                }
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<Vec<X>, ShardFault> {
                match self.faults.take(s) {
                    Some(FaultKind::Panic) => panic!("injected fault: shard {s} panicked"),
                    Some(FaultKind::Delay(total)) => {
                        // A straggling shard: sleep in slices, polling the
                        // deadline the way a real scan's checkpoints would.
                        let mut left = total;
                        while !left.is_zero() {
                            if deadline.expired() {
                                return Err(ShardFault::Expired);
                            }
                            let step = left.min(DELAY_SLICE);
                            std::thread::sleep(step);
                            left -= step;
                        }
                    }
                    Some(FaultKind::NanInput) => return Err(ShardFault::DegenerateInput),
                    None => {}
                }
                run(s, deadline).map_err(|DeadlineExpired| ShardFault::Expired)
            }));
            match outcome {
                Ok(Ok(v)) => return Ok(v),
                Ok(Err(fault)) => return Err(fault),
                Err(payload) => last_panic = panic_message(payload.as_ref()),
            }
        }
        Err(ShardFault::Panic(last_panic))
    }

    /// Fault-bounded fan-out: every shard runs `run` through
    /// [`Self::run_shard`] on the panic-isolating worker pool, and the
    /// outcomes fold into covered per-shard parts plus a [`Coverage`]
    /// bitmap. Strict mode fails on the first shard fault (or
    /// [`ServeError::Timeout`] on expiry); degraded mode fails only when
    /// no shard finished.
    fn fan_out<X: Send>(
        &self,
        deadline: &Deadline,
        opts: &QueryOptions,
        run: impl Fn(usize, &Deadline) -> Result<Vec<X>, DeadlineExpired> + Sync,
    ) -> Result<(Vec<Vec<X>>, Coverage, u32), ServeError> {
        let ids: Vec<usize> = (0..self.shards.len()).collect();
        let retries_spent = AtomicU32::new(0);
        let outcomes = try_parallel_map(&ids, |&s| {
            self.run_shard(s, deadline, opts, &retries_spent, &run)
        });
        let mut coverage = Coverage::none(self.shards.len());
        let mut parts: Vec<Vec<X>> = Vec::with_capacity(self.shards.len());
        let mut first_fault: Option<ServeError> = None;
        let mut expired = false;
        for (s, outcome) in outcomes.into_iter().enumerate() {
            // The WorkerPanic arm is a second safety net — `run_shard`
            // already catches panics per attempt.
            let settled = match outcome {
                Ok(r) => r,
                Err(wp) => Err(ShardFault::Panic(wp.message)),
            };
            match settled {
                Ok(v) => {
                    coverage.set(s);
                    parts.push(v);
                }
                Err(ShardFault::Expired) => expired = true,
                Err(cause) => {
                    if first_fault.is_none() {
                        first_fault = Some(ServeError::Shard { shard: s, cause });
                    }
                }
            }
        }
        let retries = retries_spent.load(Ordering::Relaxed);
        match opts.strictness {
            Strictness::Strict => {
                if let Some(e) = first_fault {
                    return Err(e);
                }
                if expired {
                    return Err(ServeError::Timeout);
                }
                Ok((parts, coverage, retries))
            }
            Strictness::Degraded => {
                if coverage.covered_count() == 0 {
                    return Err(match first_fault {
                        Some(e) if !expired => e,
                        _ => ServeError::Timeout,
                    });
                }
                Ok((parts, coverage, retries))
            }
        }
    }

    /// Acquires the admission permit, when a gate is configured.
    fn admit(&self) -> Result<Option<Permit<'_>>, ServeError> {
        self.gate.as_ref().map(AdmissionGate::admit).transpose()
    }

    /// The one query pipeline behind every `_opts` entry point: cache
    /// probe → admission → deadline → owner-shard view → fan-out →
    /// merge → cache insert. Cache hits bypass the admission gate, and
    /// only complete answers are cached — a degraded partial must not be
    /// replayed as if it were the full one.
    ///
    /// `run` evaluates one shard against the query's prepared view (the
    /// `exclude` argument skips the query's own slot on its owner shard)
    /// and returns local indices; the pipeline maps them to global ones
    /// before `merge` folds the covered shards' parts.
    fn serve<X: Answer>(
        &self,
        q: usize,
        op: CacheOp,
        opts: &QueryOptions,
        run: impl Fn(
                &QueryEngine<Arc<MatchingTask>>,
                &QueryRef<'_>,
                Option<usize>,
                &Deadline,
            ) -> Result<Vec<X>, DeadlineExpired>
            + Sync,
        merge: impl FnOnce(&[Vec<X>]) -> Vec<X>,
    ) -> Result<ServingResponse<Arc<Vec<X>>>, ServeError> {
        let key = CacheKey { query: q, op };
        if let Some(hit) = self.cache.get(&key).and_then(X::from_cached) {
            return Ok(ServingResponse {
                value: hit,
                coverage: Coverage::full(self.shards.len()),
                retries: 0,
            });
        }
        let _permit = self.admit()?;
        let deadline = Self::deadline_of(opts);
        assert!(q < self.plan.len(), "query index out of range");
        let (owner, local) = self.plan.owner_of(q);
        let query = self.shards[owner].query_ref(local);
        let (parts, coverage, retries) = self.fan_out(&deadline, opts, |s, dl| {
            let exclude = (s == owner).then_some(local);
            Ok(run(&self.shards[s], &query, exclude, dl)?
                .into_iter()
                .map(|x| x.globalize(|l| self.plan.global_of(s, l)))
                .collect())
        })?;
        let merged = Arc::new(merge(&parts));
        if coverage.is_complete() {
            self.cache.insert(key, X::to_cached(merged.clone()));
        }
        Ok(ServingResponse {
            value: merged,
            coverage,
            retries,
        })
    }

    /// Range query (see the module docs for the fault taxonomy): all
    /// members of the covered shards within `epsilon` of member `q`
    /// (self excluded), ascending global indices, plus the [`Coverage`]
    /// the merge saw. With default options and no injected faults the
    /// response is complete and bit-identical to the unsharded
    /// [`QueryEngine::answer_set`]; repeated calls hit the cache.
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] when a configured gate stays full
    /// through its bounded wait; [`ServeError::Timeout`] when the
    /// deadline expires (strict: any shard; degraded: every shard);
    /// [`ServeError::Shard`] when a shard fails beyond its retries
    /// (strict) or no shard finishes (degraded).
    ///
    /// # Panics
    /// If `q` is out of range.
    pub fn answer_set_opts(
        &self,
        q: usize,
        epsilon: f64,
        opts: &QueryOptions,
    ) -> Result<ServingResponse<Arc<Vec<usize>>>, ServeError> {
        self.serve(
            q,
            CacheOp::range(epsilon),
            opts,
            |shard, query, exclude, dl| shard.answer_set_ref_within(query, epsilon, exclude, dl),
            merge_answer_sets,
        )
    }

    /// Top-k nearest neighbours of member `q` (self excluded), as
    /// `(global index, distance)` ascending by distance then index.
    /// Bit-identical to the unsharded [`QueryEngine::top_k`] (see
    /// [`ShardedEngine::answer_set_opts`] for the error and coverage
    /// contract). A degraded response holds the best `k` across the
    /// *covered* shards only — its coverage bitmap says which slices of
    /// the collection competed.
    ///
    /// # Errors
    /// [`ServeError::NotDistanceRanked`] for the probabilistic
    /// techniques (MUNICH, PROUD) — they rank by `Pr(dist ≤ ε)`, not a
    /// distance; use [`ShardedEngine::probabilities_opts`] instead. Plus
    /// the fault taxonomy of [`ShardedEngine::answer_set_opts`].
    ///
    /// # Panics
    /// If `q` is out of range or `k == 0`.
    pub fn top_k_opts(
        &self,
        q: usize,
        k: usize,
        opts: &QueryOptions,
    ) -> Result<ServingResponse<ScoredAnswer>, ServeError> {
        if self.technique.is_probabilistic() {
            return Err(ServeError::NotDistanceRanked(self.technique.kind()));
        }
        assert!(k > 0, "k must be positive");
        self.serve(
            q,
            CacheOp::top_k(k),
            opts,
            |shard, query, exclude, dl| {
                Ok(shard
                    .top_k_ref_within(query, k, exclude, dl)?
                    .expect("distance-ranked technique"))
            },
            |parts| merge_top_k(parts, k),
        )
    }

    /// `Pr(distance(q, i) ≤ ε)` for every member `i ≠ q`, as
    /// `(global index, probability)` ascending by index. Bit-identical
    /// to the unsharded [`QueryEngine::probabilities`] (see
    /// [`ShardedEngine::answer_set_opts`] for the error and coverage
    /// contract); `Ok(None)` for non-probabilistic techniques.
    ///
    /// # Panics
    /// If `q` is out of range.
    pub fn probabilities_opts(
        &self,
        q: usize,
        epsilon: f64,
        opts: &QueryOptions,
    ) -> Result<Option<ServingResponse<ScoredAnswer>>, ServeError> {
        if !self.technique.is_probabilistic() {
            return Ok(None);
        }
        self.serve(
            q,
            CacheOp::probabilities(epsilon),
            opts,
            |shard, query, exclude, dl| {
                Ok(shard
                    .probabilities_ref_within(query, epsilon, exclude, dl)?
                    .expect("probabilistic technique"))
            },
            merge_scored_by_index,
        )
        .map(Some)
    }

    /// Replaces global member `i` with new clean/uncertain (and, iff
    /// the task carries one, multi-observation) series, patches the owner
    /// shard in place, and invalidates the result cache — the mutation
    /// path that keeps cached answers from outliving the data.
    ///
    /// The patch touches only member `i`'s slot: its filtered view
    /// (UMA/UEMA), MBI envelope (MUNICH) or DUST collection maximum, and
    /// its PAA synopsis plus its leaf's bounding rectangle in the
    /// candidate index. A write costs one member's share of preparation,
    /// not a shard's, and answers stay bit-identical to a fresh engine
    /// over the mutated collection. Two caveats: the member stays in its
    /// index leaf, so pruning counts can differ from a fresh build; and
    /// DUST keeps its error set and envelope as long as the new member's
    /// error descriptions are all in the set, so the envelope can be
    /// looser than a fresh one (still admissible). A new DUST error
    /// description re-prepares the owner shard's DUST state and index
    /// under the same [`IndexConfig`] the engine was built with. Shard
    /// engines are never replaced, so [`ShardedEngine::index_stats`]
    /// never goes backwards across an update.
    ///
    /// # Errors
    /// A replacement whose shape the task cannot absorb (index out of
    /// range, length mismatch, multi-observation presence disagreeing
    /// with the task) is a typed [`InputError`] and leaves the engine
    /// (shards, indexes, cache) untouched.
    ///
    /// # Example: mutation invalidates the cache
    ///
    /// ```
    /// use uts_core::matching::{MatchingTask, Technique};
    /// use uts_core::serving::{QueryOptions, ShardAssignment, ShardedEngine};
    /// use uts_tseries::TimeSeries;
    /// use uts_uncertain::{ErrorFamily, PointError, UncertainSeries};
    ///
    /// let e = PointError::new(ErrorFamily::Normal, 0.1);
    /// let clean: Vec<TimeSeries> = (0..6)
    ///     .map(|i| TimeSeries::from_values((0..8).map(|t| (t + i) as f64)))
    ///     .collect();
    /// let uncertain: Vec<UncertainSeries> = clean
    ///     .iter()
    ///     .map(|c| UncertainSeries::new(c.values().to_vec(), vec![e; 8]))
    ///     .collect();
    /// let task = MatchingTask::new(clean, uncertain, None, 2);
    ///
    /// let mut serving = ShardedEngine::prepare(
    ///     &task,
    ///     &Technique::Euclidean,
    ///     2,
    ///     ShardAssignment::Contiguous,
    /// );
    /// let opts = QueryOptions::default();
    /// let before = serving.top_k_opts(0, 2, &opts).unwrap().value;
    /// let again = serving.top_k_opts(0, 2, &opts).unwrap().value;
    /// assert!(std::sync::Arc::ptr_eq(&before, &again)); // cache hit
    ///
    /// // Move series 1 far away; the cached ranking must not survive.
    /// let far = TimeSeries::from_values((0..8).map(|_| 1e6));
    /// let far_u = UncertainSeries::new(far.values().to_vec(), vec![e; 8]);
    /// serving.try_update_series(1, far, far_u, None).unwrap();
    /// assert_eq!(serving.cache_stats().generation, 1);
    /// let after = serving.top_k_opts(0, 2, &opts).unwrap().value;
    /// assert!(!after.iter().any(|&(i, _)| i == 1), "series 1 is no longer near");
    /// ```
    pub fn try_update_series(
        &mut self,
        i: usize,
        clean: TimeSeries,
        uncertain: UncertainSeries,
        multi: Option<MultiObsSeries>,
    ) -> Result<(), InputError> {
        if i >= self.plan.len() {
            return Err(InputError::IndexOutOfRange {
                index: i,
                len: self.plan.len(),
            });
        }
        let (owner, local) = self.plan.owner_of(i);
        self.shards[owner].try_replace_member(
            local,
            clean,
            uncertain,
            multi,
            &self.index_config,
        )?;
        self.cache.invalidate();
        Ok(())
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use uts_uncertain::{ErrorFamily, PointError};

    fn small_task() -> MatchingTask {
        let e = PointError::new(ErrorFamily::Normal, 0.1);
        let clean: Vec<TimeSeries> = (0..7)
            .map(|i| TimeSeries::from_values((0..10).map(|t| ((t * (i + 2)) as f64 / 4.0).sin())))
            .collect();
        let uncertain = clean
            .iter()
            .map(|c| UncertainSeries::new(c.values().to_vec(), vec![e; 10]))
            .collect();
        MatchingTask::new(clean, uncertain, None, 2)
    }

    #[test]
    fn more_shards_than_members_is_served() {
        let task = small_task();
        let flat = QueryEngine::prepare(&task, &Technique::Euclidean);
        let sharded = ShardedEngine::prepare(
            &task,
            &Technique::Euclidean,
            task.len() + 3,
            ShardAssignment::RoundRobin,
        );
        let opts = QueryOptions::default();
        for q in 0..task.len() {
            let top = sharded.top_k_opts(q, 3, &opts).unwrap();
            assert_eq!(*top.value, flat.top_k(q, 3).unwrap());
            let range = sharded.answer_set_opts(q, 1.5, &opts).unwrap();
            assert_eq!(*range.value, flat.answer_set(q, 1.5));
        }
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let task = small_task();
        let sharded =
            ShardedEngine::prepare(&task, &Technique::Euclidean, 3, ShardAssignment::Contiguous);
        let opts = QueryOptions::default();
        let first = sharded.answer_set_opts(2, 1.0, &opts).unwrap().value;
        let second = sharded.answer_set_opts(2, 1.0, &opts).unwrap().value;
        assert!(Arc::ptr_eq(&first, &second));
        let stats = sharded.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // A different ε is a different key.
        let _ = sharded.answer_set_opts(2, 2.0, &opts);
        assert_eq!(sharded.cache_stats().misses, 2);
    }

    #[test]
    fn probabilistic_top_k_is_typed_error() {
        let task = small_task();
        let technique = Technique::Proud {
            proud: crate::proud::Proud::default(),
            tau: 0.5,
        };
        let sharded = ShardedEngine::prepare(&task, &technique, 2, ShardAssignment::RoundRobin);
        let opts = QueryOptions::default();
        assert_eq!(
            sharded.top_k_opts(0, 3, &opts),
            Err(ServeError::NotDistanceRanked(crate::TechniqueKind::Proud))
        );
        assert!(sharded.probabilities_opts(0, 1.0, &opts).unwrap().is_some());
        // And the distance techniques have no probabilities.
        let euclid =
            ShardedEngine::prepare(&task, &Technique::Euclidean, 2, ShardAssignment::RoundRobin);
        assert!(euclid.probabilities_opts(0, 1.0, &opts).unwrap().is_none());
    }
}
