//! The traced run: per-layer metrics from a replay of every op through
//! each layer's public functions, timed from outside the program.
//!
//! A fresh engine runs the same warm-up and op sequence as the untraced
//! pass, so its cache sees the same hits and misses. Around each op the
//! run records spans (name, start, end, parent; one op id per op):
//!
//! ```text
//! op
//! ├── serve             the ShardedEngine call itself (hit or miss)
//! ├── admission         AdmissionGate::admit + drop            (misses)
//! ├── fanout.spawn      try_parallel_map over no-op shard items (misses)
//! ├── engine            each shard's QueryEngine *_ref call     (misses)
//! │   └── engine.shard
//! ├── merge             merge_* over the shard parts            (misses)
//! ├── replay            the same answer from layer functions    (misses)
//! │   └── replay.shard
//! │       ├── candgen   query_synopsis + index candidate generation
//! │       └── kernel    the exact kernel over every candidate
//! └── update.reprepare  QueryEngine::prepare_with on the owner shard (writes)
//! ```
//!
//! The replayed answer and the merged per-shard engine answers must both
//! equal the engine's answer, so the breakdown covers the work the
//! engine did. Spans stay in memory and are written to
//! `perfbench/out/spans-<workload>.csv` when the run ends.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use uts_core::dust::DustBoundTable;
use uts_core::engine::{QueryEngine, QueryRef};
use uts_core::index::{admits, CandidateIndex, IndexCounters, IndexStats};
use uts_core::matching::{MatchingTask, Technique};
use uts_core::munich::{interval_distance_sq_bounds_enveloped, MbiEnvelope};
use uts_core::parallel::try_parallel_map;
use uts_core::serving::{
    merge_answer_sets, merge_scored_by_index, merge_top_k, AdmissionGate, ShardAssignment,
    ShardPlan,
};
use uts_tseries::distance::{
    euclidean, euclidean_squared_early_abandon, squared_cutoff, squared_cutoff_strict,
};
use uts_uncertain::PointError;

use crate::serve::{self, Answer, Pass};
use crate::stats::{mean, median};
use crate::workloads::{Op, Workload, Write};
use crate::Metric;

// ------------------------------------------------------------------ spans

/// One recorded span; `parent` is `None` for an op's root span.
struct Span {
    op: usize,
    parent: Option<usize>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log; a span's id is its position in the log.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, op: usize, parent: Option<usize>, name: &'static str) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            op,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    fn close(&mut self, id: usize) -> u64 {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end_ns = end;
        end - span.start_ns
    }

    /// Runs `f` inside a span, returning its result and duration.
    fn span<R>(
        &mut self,
        op: usize,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.open(op, parent, name);
        let r = f();
        (r, self.close(id))
    }

    /// Total self time per span name: each span's duration minus the
    /// part its children cover (children of one span never overlap —
    /// the replay is single-threaded).
    fn self_ns(&self) -> HashMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: HashMap<&'static str, u64> = HashMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_default() += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        out
    }

    /// Writes the log as CSV (`op,span,parent,name,start_ns,end_ns`).
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op,span,parent,name,start_ns,end_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{},{id},{parent},{},{},{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

// ------------------------------------------------------------------ mirror

/// The technique-specific per-member state the replay's kernels read —
/// rebuilt from the technique's public functions, not taken from the
/// engine.
enum Views {
    /// UMA: every member's filtered series.
    Filtered(Vec<Vec<f64>>),
    /// DUST: the φ-space envelope (when built), the collection's largest
    /// |value| and its distinct error descriptions.
    Dust {
        envelope: Option<DustBoundTable>,
        max_abs: f64,
        errors: Vec<PointError>,
    },
    /// MUNICH: every member's MBI envelope.
    Munich(Vec<MbiEnvelope>),
}

/// One shard of the benchmark's own mirror of the sharded engine: the
/// shard's task, a `QueryEngine` prepared on it (the per-shard engine
/// timings and the index the replay reads) and the replay's views.
struct Shard {
    engine: QueryEngine<Arc<MatchingTask>>,
    views: Views,
}

/// Build-time measurements of the mirror, per layer.
#[derive(Default)]
struct BuildTimes {
    prepare_ms: f64,
    index_ms: f64,
    filter_us_per_series: Vec<f64>,
    dust_envelope_ms: f64,
    munich_envelope_us: f64,
    engine_mb: f64,
    cpu_probe_us: f64,
}

fn shard_task(task: &MatchingTask, members: &[usize]) -> MatchingTask {
    MatchingTask::new(
        members.iter().map(|&i| task.clean()[i].clone()).collect(),
        members
            .iter()
            .map(|&i| task.uncertain()[i].clone())
            .collect(),
        task.multi()
            .map(|m| members.iter().map(|&i| m[i].clone()).collect()),
        task.k(),
    )
}

/// Distinct error descriptions of a collection.
fn distinct_errors(task: &MatchingTask) -> Vec<PointError> {
    let mut errors: Vec<PointError> = Vec::new();
    for u in task.uncertain() {
        for e in u.errors() {
            if !errors
                .iter()
                .any(|k| k.family == e.family && k.sigma.to_bits() == e.sigma.to_bits())
            {
                errors.push(*e);
            }
        }
    }
    errors
}

/// Builds the replay views of one shard, timing each layer's build into
/// `times` (the candidate index, which the replay reads from the
/// shard's engine, is built here only to be timed).
fn build_views(w: &Workload, task: &MatchingTask, times: &mut BuildTimes) -> Views {
    let index_views = |views: &[&[f64]], times: &mut BuildTimes| {
        let t0 = Instant::now();
        drop(CandidateIndex::build(views, &w.index));
        times.index_ms += t0.elapsed().as_secs_f64() * 1e3;
    };
    match &w.technique {
        Technique::Uma(u) => {
            let t0 = Instant::now();
            let filtered: Vec<Vec<f64>> = task
                .uncertain()
                .iter()
                .map(|s| u.filter(s).values().to_vec())
                .collect();
            let us = t0.elapsed().as_secs_f64() * 1e6 / task.len() as f64;
            times.filter_us_per_series.push(us);
            let refs: Vec<&[f64]> = filtered.iter().map(Vec::as_slice).collect();
            index_views(&refs, times);
            Views::Filtered(filtered)
        }
        Technique::Dust(d) => {
            let errors = distinct_errors(task);
            let t0 = Instant::now();
            d.warm_tables(&errors);
            let envelope = d.bound_envelope(&errors);
            times.dust_envelope_ms += t0.elapsed().as_secs_f64() * 1e3;
            let max_abs = task
                .uncertain()
                .iter()
                .flat_map(|u| u.values())
                .fold(0.0f64, |m, &v| m.max(v.abs()));
            if envelope.is_some() {
                let refs: Vec<&[f64]> = task.uncertain().iter().map(|u| u.values()).collect();
                index_views(&refs, times);
            }
            Views::Dust {
                envelope,
                max_abs,
                errors,
            }
        }
        Technique::Munich { .. } => {
            let multi = task.multi().expect("the MUNICH workload carries samples");
            let t0 = Instant::now();
            let envs: Vec<MbiEnvelope> = multi.iter().map(MbiEnvelope::build).collect();
            times.munich_envelope_us += t0.elapsed().as_secs_f64() * 1e6;
            Views::Munich(envs)
        }
        _ => unreachable!("no workload serves this technique"),
    }
}

fn build_shard(w: &Workload, task: MatchingTask, times: &mut BuildTimes) -> Shard {
    let views = build_views(w, &task, times);
    let task = Arc::new(task);
    let ((engine, ms), mb) = crate::heap::retained_mb(|| {
        let t0 = Instant::now();
        let engine = QueryEngine::prepare_with(task, &w.technique, w.index);
        (engine, t0.elapsed().as_secs_f64() * 1e3)
    });
    times.prepare_ms += ms;
    times.engine_mb += mb;
    Shard { engine, views }
}

// ------------------------------------------------------------------ replay

/// Work counts of one replayed shard evaluation.
#[derive(Default, Clone, Copy)]
struct Work {
    candgen_ns: u64,
    kernel_ns: u64,
    kernel_calls: u64,
    members: u64,
    /// DUST range kernel (`within_sq`) time and calls.
    within_ns: u64,
    within_calls: u64,
    mbi_decided: u64,
    refined: u64,
    refine_ns: u64,
}

impl Work {
    fn absorb(&mut self, o: &Work) {
        self.candgen_ns += o.candgen_ns;
        self.kernel_ns += o.kernel_ns;
        self.kernel_calls += o.kernel_calls;
        self.members += o.members;
        self.within_ns += o.within_ns;
        self.within_calls += o.within_calls;
        self.mbi_decided += o.mbi_decided;
        self.refined += o.refined;
        self.refine_ns += o.refine_ns;
    }
}

/// Whether the DUST envelope's lower bound is admissible for a query
/// (the engine's own engagement rule, restated from its documentation):
/// every query error covered and every possible gap inside the
/// envelope's validity horizon.
fn dust_env<'a>(
    envelope: &'a Option<DustBoundTable>,
    errors: &[PointError],
    max_abs: f64,
    query: &uts_uncertain::UncertainSeries,
) -> Option<&'a DustBoundTable> {
    let e = envelope.as_ref()?;
    let q_max = query.values().iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let covered = query.errors().iter().all(|x| {
        errors
            .iter()
            .any(|k| k.family == x.family && k.sigma.to_bits() == x.sigma.to_bits())
    });
    (q_max + max_abs <= e.valid_delta() && covered).then_some(e)
}

/// Range-query exact cutoff in squared space (`ε < 0` or NaN rejects
/// everything).
fn range_cutoff(eps: f64) -> f64 {
    if eps >= 0.0 {
        squared_cutoff(eps)
    } else {
        -1.0
    }
}

/// The index, the query's synopsis and the leaves in best-first order —
/// top-k's candidate generation.
type LeafOrder<'a> = (&'a CandidateIndex, Vec<f64>, Vec<(f64, usize)>);

/// The top-k selection the engine runs: best-first over the index's
/// leaves (order-insensitive ties, non-strict limit) when an order is
/// given, the index-order scan (strict limit) otherwise.
fn select_top_k(
    ix: Option<&LeafOrder<'_>>,
    n: usize,
    exclude: Option<usize>,
    k: usize,
    cost: &impl Fn(f64) -> f64,
    mut dist_sq: impl FnMut(usize, f64) -> Option<f64>,
) -> Vec<(usize, f64)> {
    let mut best: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
    let mut limit = f64::INFINITY;
    let keep = |best: &mut Vec<(f64, usize)>, d: f64, i: usize| {
        let at = best.partition_point(|&(bd, bi)| bd < d || (bd == d && bi < i));
        best.insert(at, (d, i));
        best.truncate(k);
    };
    match ix {
        Some((ix, qp, order)) => {
            let mut bound = f64::INFINITY;
            let mut prune = f64::INFINITY;
            for &(leaf_lb, leaf) in order {
                if best.len() == k && !admits(leaf_lb, bound) {
                    break;
                }
                for &i in ix.leaf_members(leaf) {
                    if Some(i) == exclude
                        || (best.len() == k && ix.member_bound_exceeds_by(qp, i, prune, cost))
                    {
                        continue;
                    }
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
                    keep(&mut best, d, i);
                    if best.len() == k {
                        bound = best[k - 1].0;
                        limit = squared_cutoff(bound);
                        prune = ix.squared_prune_limit(bound);
                    }
                }
            }
        }
        None => {
            for i in (0..n).filter(|&i| Some(i) != exclude) {
                let Some(total) = dist_sq(i, limit) else {
                    continue;
                };
                let d = total.sqrt();
                if best.len() == k && d >= best[k - 1].0 {
                    continue;
                }
                keep(&mut best, d, i);
                if best.len() == k {
                    limit = squared_cutoff_strict(best[k - 1].0);
                }
            }
        }
    }
    best.into_iter().map(|(d, i)| (i, d)).collect()
}

/// A shard's replayed part, in local indices.
enum Part {
    Indices(Vec<usize>),
    Scored(Vec<(usize, f64)>),
}

/// A read against a value-view technique (UMA's filtered series, DUST's
/// observed values) on one shard: the engine's index when it would
/// engage for this query, the query values, and the scan bounds.
struct ValueView<'a> {
    ix: Option<&'a CandidateIndex>,
    qv: &'a [f64],
    n: usize,
    exclude: Option<usize>,
    counters: &'a IndexCounters,
}

impl ValueView<'_> {
    /// Candidate generation (synopsis plus leaf and member bounds for a
    /// range; synopsis plus best-first leaf order for top-k) in a
    /// `candgen` span, then the exact kernel in a `kernel` span. Top-k's
    /// member bounds interleave with its kernel calls, so they count as
    /// kernel time. `within` decides a range candidate at the squared
    /// cutoff; `dist_sq` is top-k's early-abandoning kernel.
    #[allow(clippy::too_many_arguments)]
    fn replay(
        &self,
        tr: &mut Tracer,
        (op, parent): (usize, usize),
        read: &Op,
        cost: impl Fn(f64) -> f64,
        within: impl Fn(usize, f64) -> Option<f64>,
        mut dist_sq: impl FnMut(usize, f64) -> Option<f64>,
        work: &mut Work,
    ) -> Part {
        let all = || {
            (0..self.n)
                .filter(|&i| Some(i) != self.exclude)
                .collect::<Vec<_>>()
        };
        let synopsis = |ix: &CandidateIndex| ix.query_synopsis(self.qv);
        match *read {
            Op::Range { eps, .. } => {
                let (cands, ns) = tr.span(op, Some(parent), "candgen", || {
                    match self.ix.and_then(|ix| synopsis(ix).map(|qp| (ix, qp))) {
                        Some((ix, qp)) => {
                            ix.range_candidates_by(&qp, eps, self.exclude, self.counters, &cost)
                        }
                        None => all(),
                    }
                });
                work.candgen_ns += ns;
                let cutoff = range_cutoff(eps);
                let (hits, ns) = tr.span(op, Some(parent), "kernel", || {
                    cands
                        .iter()
                        .copied()
                        .filter(|&i| within(i, cutoff).is_some())
                        .collect()
                });
                work.kernel_ns += ns;
                work.kernel_calls += cands.len() as u64;
                Part::Indices(hits)
            }
            Op::TopK { k, .. } => {
                let (order, ns) = tr.span(op, Some(parent), "candgen", || {
                    self.ix.and_then(|ix| {
                        let qp = synopsis(ix)?;
                        let order = ix.leaves_by_lower_bound_by(&qp, &cost);
                        Some((ix, qp, order))
                    })
                });
                work.candgen_ns += ns;
                let mut calls = 0;
                let (best, ns) = tr.span(op, Some(parent), "kernel", || {
                    select_top_k(
                        order.as_ref(),
                        self.n,
                        self.exclude,
                        k,
                        &cost,
                        |i, limit| {
                            calls += 1;
                            dist_sq(i, limit)
                        },
                    )
                });
                work.kernel_ns += ns;
                work.kernel_calls += calls;
                Part::Scored(best)
            }
            _ => unreachable!("value-view techniques serve range and top-k reads"),
        }
    }
}

/// Replays one read on one shard: candidate generation through the
/// shard's index (when the engine would use it), then the exact kernel
/// on every candidate, each inside its own span.
#[allow(clippy::too_many_arguments)]
fn replay_shard(
    tr: &mut Tracer,
    (op_id, parent): (usize, usize),
    w: &Workload,
    shard: &Shard,
    op: &Op,
    query: &QueryRef<'_>,
    exclude: Option<usize>,
    counters: &IndexCounters,
) -> (Part, Work) {
    let task = shard.engine.task();
    let n = task.len();
    let ix = shard.engine.index();
    let mut work = Work {
        members: (n - usize::from(exclude.is_some())) as u64,
        ..Work::default()
    };
    let all = || (0..n).filter(|&i| Some(i) != exclude).collect::<Vec<_>>();
    let span = (op_id, parent);
    let part = match (&w.technique, &shard.views, query) {
        (Technique::Uma(_), Views::Filtered(fv), QueryRef::Filtered(fq)) => {
            let qv = fq.values();
            let kernel = |i: usize, limit: f64| euclidean_squared_early_abandon(qv, &fv[i], limit);
            let view = ValueView {
                ix,
                qv,
                n,
                exclude,
                counters,
            };
            view.replay(tr, span, op, |d| d * d, kernel, kernel, &mut work)
        }
        (
            Technique::Dust(d),
            Views::Dust {
                envelope,
                max_abs,
                errors,
            },
            QueryRef::Uncertain(qu),
        ) => {
            let env = dust_env(envelope, errors, *max_abs, qu);
            let members = task.uncertain();
            let view = ValueView {
                ix: env.and(ix),
                qv: qu.values(),
                n,
                exclude,
                counters,
            };
            let part = view.replay(
                tr,
                span,
                op,
                |g| env.map_or(0.0, |e| e.cost(g.abs())),
                |i, cutoff| d.within_sq(qu, &members[i], cutoff).then_some(0.0),
                |i, limit| d.distance_sq_early_abandon(qu, &members[i], limit),
                &mut work,
            );
            if matches!(op, Op::Range { .. }) {
                work.within_ns = work.kernel_ns;
                work.within_calls = work.kernel_calls;
            }
            part
        }
        (Technique::Munich { munich, tau }, Views::Munich(envs), QueryRef::Multi(qm, qenv)) => {
            let multi = task.multi().expect("the MUNICH workload carries samples");
            let cands = all();
            let eps = match *op {
                Op::Range { eps, .. } | Op::Prob { eps, .. } => eps,
                _ => unreachable!("MUNICH serves range and probability reads"),
            };
            let eps_sq = eps * eps;
            let estimate = matches!(op, Op::Prob { .. });
            let kid = tr.open(op_id, Some(parent), "kernel");
            let mut hits = Vec::new();
            let mut probs = Vec::new();
            for &i in &cands {
                let (lb, ub) = interval_distance_sq_bounds_enveloped(qenv, &envs[i]);
                let decided = ub <= eps_sq || lb > eps_sq;
                let t0 = Instant::now();
                if estimate {
                    probs.push((
                        i,
                        munich.probability_within_enveloped(qm, &multi[i], eps, qenv, &envs[i]),
                    ));
                } else if munich.matches_enveloped(qm, &multi[i], eps, *tau, qenv, &envs[i]) {
                    hits.push(i);
                }
                if decided {
                    work.mbi_decided += 1;
                } else {
                    work.refined += 1;
                    work.refine_ns += t0.elapsed().as_nanos() as u64;
                }
            }
            work.kernel_ns += tr.close(kid);
            work.kernel_calls += cands.len() as u64;
            if estimate {
                Part::Scored(probs)
            } else {
                Part::Indices(hits)
            }
        }
        _ => unreachable!("query view matches the workload's technique"),
    };
    (part, work)
}

/// A shard's engine answer to one read, in local indices.
fn engine_part(shard: &Shard, op: &Op, query: &QueryRef<'_>, exclude: Option<usize>) -> Part {
    let e = &shard.engine;
    match *op {
        Op::Range { eps, .. } => Part::Indices(e.answer_set_ref(query, eps, exclude)),
        Op::TopK { k, .. } => {
            Part::Scored(e.top_k_ref(query, k, exclude).expect("distance-ranked"))
        }
        Op::Prob { eps, .. } => Part::Scored(
            e.probabilities_ref(query, eps, exclude)
                .expect("probabilistic"),
        ),
        Op::Update(_) => unreachable!("writes have no shard part"),
    }
}

/// Merges global-index parts the way the serving layer does for `op`.
fn merge(op: &Op, parts: Vec<Part>) -> Answer {
    match *op {
        Op::Range { .. } => {
            let p: Vec<Vec<usize>> = parts
                .into_iter()
                .map(|p| match p {
                    Part::Indices(v) => v,
                    Part::Scored(_) => unreachable!("range parts are index lists"),
                })
                .collect();
            Answer::Indices(Arc::new(merge_answer_sets(&p)))
        }
        _ => {
            let p: Vec<Vec<(usize, f64)>> = parts
                .into_iter()
                .map(|p| match p {
                    Part::Scored(v) => v,
                    Part::Indices(_) => unreachable!("scored parts are scored"),
                })
                .collect();
            match *op {
                Op::TopK { k, .. } => Answer::Scored(Arc::new(merge_top_k(&p, k))),
                _ => Answer::Scored(Arc::new(merge_scored_by_index(&p))),
            }
        }
    }
}

/// Maps a shard part to global indices.
fn globalise(plan: &ShardPlan, s: usize, part: Part) -> Part {
    match part {
        Part::Indices(v) => Part::Indices(v.into_iter().map(|l| plan.global_of(s, l)).collect()),
        Part::Scored(v) => Part::Scored(
            v.into_iter()
                .map(|(l, x)| (plan.global_of(s, l), x))
                .collect(),
        ),
    }
}

// ------------------------------------------------------------------ traced pass

/// Per-layer accumulators over the traced pass.
#[derive(Default)]
struct Acc {
    reads: u64,
    hits: u64,
    hit_ns: Vec<f64>,
    misses: u64,
    admit_ns: Vec<f64>,
    spawn_us: Vec<f64>,
    overhead_us: Vec<f64>,
    skew: Vec<f64>,
    shard_eval_us: Vec<f64>,
    merge_range_us: Vec<f64>,
    merge_topk_us: Vec<f64>,
    reprepare_ms: Vec<f64>,
    work: Work,
    uma_kernel_ns: u64,
    uma_kernel_calls: u64,
    decide_ns: u64,
    decide_pairs: u64,
    estimate_ns: u64,
    estimate_pairs: u64,
    serial_kernel_ns: u64,
    parallel_engine_ns: u64,
    tlb: Vec<f64>,
    index: IndexStats,
    /// Ops whose traced answer, per-shard merge or replay differs from
    /// the untraced pass's answer, or whose answer is a failure.
    failed: Vec<bool>,
}

/// Tightness of the PAA lower bound on a UMA shard: mean of
/// `member_lower_bound / true distance` over the shard's members.
fn tightness(shard: &Shard, query: &QueryRef<'_>) -> Option<f64> {
    let (ix, fv, qv) = match (shard.engine.index(), &shard.views, query) {
        (Some(ix), Views::Filtered(fv), QueryRef::Filtered(fq)) => (ix, fv, fq.values()),
        _ => return None,
    };
    let qp = ix.query_synopsis(qv)?;
    let ratios: Vec<f64> = fv
        .iter()
        .enumerate()
        .filter_map(|(i, v)| {
            let d = euclidean(qv, v);
            (d > 0.0).then(|| ix.member_lower_bound(&qp, i) / d)
        })
        .collect();
    Some(mean(&ratios))
}

/// Runs the traced pass and returns every per-layer metric plus, per
/// op, whether it failed: the untraced pass returned an error, or the
/// traced engine, the merged per-shard engines or the layer-function
/// replay disagree with the untraced answer.
pub fn per_layer(w: &Workload, untraced: &Pass) -> (Vec<Metric>, Vec<bool>) {
    // Mirror build: one QueryEngine per shard plus the replay's views.
    let plan = ShardPlan::new(w.task.len(), w.shards, ShardAssignment::RoundRobin);
    let tasks: Vec<MatchingTask> = (0..plan.shard_count())
        .map(|s| shard_task(&w.task, plan.members(s)))
        .collect();
    let mut times = BuildTimes::default();
    let mut shards: Vec<Shard> = tasks
        .into_iter()
        .map(|t| build_shard(w, t, &mut times))
        .collect();

    // `try_parallel_map` asks the OS for the core count on every call;
    // time that query on its own.
    let probe_us: Vec<f64> = (0..201)
        .map(|_| {
            let t0 = Instant::now();
            let _ = std::hint::black_box(std::thread::available_parallelism());
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    times.cpu_probe_us = median(&probe_us);

    let mut engine = serve::prepare(w);
    serve::run_untimed(&mut engine, &w.warmup);
    let gate = w.admission.map(AdmissionGate::new);
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let counters = IndexCounters::default();
    let shard_ids: Vec<usize> = (0..shards.len()).collect();
    let mut tr = Tracer::new();
    let mut acc = Acc {
        failed: untraced
            .answers
            .iter()
            .map(|a| matches!(a, Answer::Failed(_)))
            .collect(),
        ..Acc::default()
    };
    let mut seg_start = engine.index_stats();
    let gen0 = engine.cache_stats().generation;

    let wall = Instant::now();
    for (j, op) in w.ops.iter().enumerate() {
        let root = tr.open(j, None, "op");
        if let Op::Update(write) = op {
            let payload = serve::payload(op);
            acc.index.absorb(&engine.index_stats().since(&seg_start));
            let (answer, _) = tr.span(j, Some(root), "serve", || {
                serve::execute(&mut engine, op, payload)
            });
            seg_start = engine.index_stats();
            acc.failed[j] |= !answer.same(&untraced.answers[j]);
            let (ms, shard) = reprepare(&mut tr, (j, root), w, &plan, &shards, write);
            acc.reprepare_ms.push(ms);
            let (owner, _) = plan.owner_of(write.i);
            shards[owner] = shard;
            tr.close(root);
            continue;
        }
        acc.reads += 1;
        let hits0 = engine.cache_stats().hits;
        let (answer, serve_ns) = tr.span(j, Some(root), "serve", || {
            serve::execute(&mut engine, op, None)
        });
        acc.failed[j] |= !answer.same(&untraced.answers[j]);
        if engine.cache_stats().hits > hits0 {
            acc.hits += 1;
            acc.hit_ns.push(serve_ns as f64);
            tr.close(root);
            continue;
        }
        acc.misses += 1;
        if let Some(g) = &gate {
            let (_, ns) = tr.span(j, Some(root), "admission", || drop(g.admit()));
            acc.admit_ns.push(ns as f64);
        }
        let (_, ns) = tr.span(j, Some(root), "fanout.spawn", || {
            drop(try_parallel_map(&shard_ids, |_| ()))
        });
        acc.spawn_us.push(ns as f64 / 1e3);

        let q = op.query().expect("reads carry a query");
        let (owner, local) = plan.owner_of(q);
        let query = shards[owner].engine.query_ref(local);
        let exclude = |s: usize| (s == owner).then_some(local);

        let eid = tr.open(j, Some(root), "engine");
        let mut parts = Vec::with_capacity(shards.len());
        let mut shard_ns = Vec::with_capacity(shards.len());
        for (s, shard) in shards.iter().enumerate() {
            let (part, ns) = tr.span(j, Some(eid), "engine.shard", || {
                engine_part(shard, op, &query, exclude(s))
            });
            parts.push(globalise(&plan, s, part));
            shard_ns.push(ns as f64);
        }
        tr.close(eid);
        let (merged, merge_ns) = tr.span(j, Some(root), "merge", || merge(op, parts));
        acc.failed[j] |= !merged.same(&answer);

        let rid = tr.open(j, Some(root), "replay");
        let mut replayed = Vec::with_capacity(shards.len());
        for (s, shard) in shards.iter().enumerate() {
            let sid = tr.open(j, Some(rid), "replay.shard");
            let (part, work) = replay_shard(
                &mut tr,
                (j, sid),
                w,
                shard,
                op,
                &query,
                exclude(s),
                &counters,
            );
            tr.close(sid);
            replayed.push(globalise(&plan, s, part));
            acc.work.absorb(&work);
            if matches!(op, Op::Prob { .. }) {
                acc.estimate_ns += work.refine_ns;
                acc.estimate_pairs += work.refined;
            } else {
                acc.decide_ns += work.refine_ns;
                acc.decide_pairs += work.refined;
            }
            if matches!(w.technique, Technique::Uma(_)) {
                acc.uma_kernel_ns += work.kernel_ns;
                acc.uma_kernel_calls += work.kernel_calls;
            }
            if matches!(w.technique, Technique::Munich { .. }) {
                acc.serial_kernel_ns += work.kernel_ns;
            }
        }
        tr.close(rid);
        acc.failed[j] |= !merge(op, replayed).same(&answer);
        tr.close(root);

        // Derived per-miss figures, outside every span.
        let slowest = shard_ns.iter().copied().fold(0.0, f64::max);
        acc.overhead_us
            .push((serve_ns as f64 - slowest - merge_ns as f64) / 1e3);
        acc.skew.push(slowest / mean(&shard_ns).max(1.0));
        acc.shard_eval_us.extend(shard_ns.iter().map(|ns| ns / 1e3));
        if matches!(w.technique, Technique::Munich { .. }) {
            acc.parallel_engine_ns += shard_ns.iter().sum::<f64>() as u64;
        }
        match op {
            Op::Range { .. } => acc.merge_range_us.push(merge_ns as f64 / 1e3),
            Op::TopK { .. } => acc.merge_topk_us.push(merge_ns as f64 / 1e3),
            _ => {}
        }
        if let Some(t) = tightness(&shards[owner], &query) {
            acc.tlb.push(t);
        }
    }
    let traced_wall = wall.elapsed().as_secs_f64();
    acc.index.absorb(&engine.index_stats().since(&seg_start));
    let invalidations = engine.cache_stats().generation - gen0;

    let path = std::path::Path::new("perfbench/out").join(format!("spans-{}.csv", w.name));
    if let Err(e) = tr.write(&path) {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
    let failed = acc.failed.iter().filter(|&&f| f).count();
    if failed > 0 {
        eprintln!("perfbench: {failed} ops failed or were not reproduced by the traced replay");
    }
    let metrics = metrics(
        w,
        untraced,
        &tr,
        &acc,
        &times,
        invalidations,
        traced_wall,
        workers,
    );
    (metrics, acc.failed)
}

/// Re-prepares the mirror's owner shard after a write, inside an
/// `update.reprepare` span, and returns its duration in ms with the new
/// shard.
fn reprepare(
    tr: &mut Tracer,
    (op, parent): (usize, usize),
    w: &Workload,
    plan: &ShardPlan,
    shards: &[Shard],
    write: &Write,
) -> (f64, Shard) {
    let (owner, local) = plan.owner_of(write.i);
    let old = shards[owner].engine.task();
    let task = crate::verify::replaced(
        old,
        &Write {
            i: local,
            ..write.clone()
        },
    );
    let views = build_views(w, &task, &mut BuildTimes::default());
    let task = Arc::new(task);
    let (engine, ns) = tr.span(op, Some(parent), "update.reprepare", || {
        QueryEngine::prepare_with(task, &w.technique, w.index)
    });
    (ns as f64 / 1e6, Shard { engine, views })
}

#[allow(clippy::too_many_arguments)]
fn metrics(
    w: &Workload,
    untraced: &Pass,
    tr: &Tracer,
    acc: &Acc,
    times: &BuildTimes,
    invalidations: u64,
    traced_wall: f64,
    workers: usize,
) -> Vec<Metric> {
    let per = |x: u64, n: u64| if n == 0 { 0.0 } else { x as f64 / n as f64 };
    let misses = acc.misses;
    let ix = &acc.index;
    let is = |t: fn(&Technique) -> bool| t(&w.technique);
    let uma = is(|t| matches!(t, Technique::Uma(_)));
    let dust = is(|t| matches!(t, Technique::Dust(_)));
    let self_ns = tr.self_ns();
    let self_us =
        |name: &str| per(self_ns.get(name).copied().unwrap_or(0), w.ops.len() as u64) / 1e3;
    let untraced_qps = w.ops.len() as f64 / untraced.wall_s;
    let traced_qps = w.ops.len() as f64 / traced_wall;
    vec![
        Metric::new("admission.admit_ns", mean(&acc.admit_ns), "ns"),
        Metric::new("cache.hit_ratio", per(acc.hits, acc.reads), "ratio"),
        Metric::new("cache.hit_us", mean(&acc.hit_ns) / 1e3, "us"),
        Metric::new("cache.invalidations", invalidations as f64, "count"),
        Metric::new("fanout.spawn_us", median(&acc.spawn_us), "us"),
        Metric::new("fanout.cpu_probe_us", times.cpu_probe_us, "us"),
        Metric::new("fanout.overhead_us", mean(&acc.overhead_us), "us"),
        Metric::new("fanout.shard_skew", mean(&acc.skew), "ratio"),
        Metric::new("merge.range_us", mean(&acc.merge_range_us), "us"),
        Metric::new("merge.topk_us", mean(&acc.merge_topk_us), "us"),
        Metric::new("update.reprepare_ms", mean(&acc.reprepare_ms), "ms"),
        Metric::new("engine.prepare_ms", times.prepare_ms, "ms"),
        Metric::new("engine.eval_us", mean(&acc.shard_eval_us), "us"),
        Metric::new("engine.rss_delta_mb", times.engine_mb, "MiB"),
        Metric::new("index.build_ms", times.index_ms, "ms"),
        Metric::new(
            "index.engaged_ratio",
            per(ix.indexed_queries, ix.indexed_queries + ix.scan_queries),
            "ratio",
        ),
        Metric::new(
            "index.candgen_us",
            per(acc.work.candgen_ns, misses) / 1e3,
            "us",
        ),
        Metric::new(
            "index.candidates_per_query",
            per(acc.work.kernel_calls, misses),
            "count",
        ),
        Metric::new(
            "index.pruning_ratio",
            1.0 - per(acc.work.kernel_calls, acc.work.members),
            "ratio",
        ),
        Metric::new(
            "index.leaf_prune_ratio",
            per(ix.leaves_pruned, ix.leaves_pruned + ix.leaves_visited),
            "ratio",
        ),
        Metric::new("index.tlb", mean(&acc.tlb), "ratio"),
        Metric::new("uma.filter_us", mean(&times.filter_us_per_series), "us"),
        Metric::new(
            "kernel.sqdist_ns",
            if uma {
                per(acc.uma_kernel_ns, acc.uma_kernel_calls)
            } else {
                0.0
            },
            "ns",
        ),
        Metric::new(
            "kernel.sqdist_calls_per_query",
            if uma {
                per(acc.uma_kernel_calls, misses)
            } else {
                0.0
            },
            "count",
        ),
        Metric::new(
            "dust.within_ns",
            per(acc.work.within_ns, acc.work.within_calls),
            "ns",
        ),
        Metric::new(
            "dust.calls_per_query",
            if dust {
                per(acc.work.kernel_calls, misses)
            } else {
                0.0
            },
            "count",
        ),
        Metric::new("dust.envelope_build_ms", times.dust_envelope_ms, "ms"),
        Metric::new("munich.envelope_build_us", times.munich_envelope_us, "us"),
        Metric::new(
            "munich.mbi_decided_ratio",
            per(
                acc.work.mbi_decided,
                acc.work.mbi_decided + acc.work.refined,
            ),
            "ratio",
        ),
        Metric::new(
            "munich.refined_pairs_per_query",
            per(acc.work.refined, misses),
            "count",
        ),
        Metric::new(
            "munich.decide_ms_per_pair",
            per(acc.decide_ns, acc.decide_pairs) / 1e6,
            "ms",
        ),
        Metric::new(
            "munich.estimate_ms_per_pair",
            per(acc.estimate_ns, acc.estimate_pairs) / 1e6,
            "ms",
        ),
        Metric::new(
            "munich.parallel_efficiency",
            per(
                acc.serial_kernel_ns,
                acc.parallel_engine_ns * workers as u64,
            ),
            "ratio",
        ),
        Metric::new("trace.overhead_ratio", traced_qps / untraced_qps, "ratio"),
        Metric::new("self.serve_us", self_us("serve"), "us"),
        Metric::new("self.admission_us", self_us("admission"), "us"),
        Metric::new("self.fanout_spawn_us", self_us("fanout.spawn"), "us"),
        Metric::new("self.engine_shard_us", self_us("engine.shard"), "us"),
        Metric::new("self.merge_us", self_us("merge"), "us"),
        Metric::new("self.candgen_us", self_us("candgen"), "us"),
        Metric::new("self.kernel_us", self_us("kernel"), "us"),
        Metric::new("self.reprepare_us", self_us("update.reprepare"), "us"),
    ]
}
