//! Serving-layer load generator: replays a Zipf-skewed query stream
//! against [`ShardedEngine`] and reports QPS and latency percentiles
//! per (phase, technique, shard count).
//!
//! Two phases isolate the two serving-layer effects:
//!
//! * `zipf` — ranks drawn from a Zipf(s = 1.1) distribution over a
//!   fixed key pool, so the same few queries repeat: the result cache
//!   absorbs the repeats and QPS reflects the hit path.
//! * `scan` — every operation is a distinct `(query, ε)` key: all
//!   misses, so QPS reflects the sharded fan-out itself. This is the
//!   phase where shard-count scaling shows — on a multi-core host.
//!   On one core `parallel_map` degrades to a sequential loop and
//!   1-vs-4 shards measures only partitioning overhead (the JSON
//!   records `threads` so a reader can tell which regime produced it).
//! * `scan_indexed` — the scan workload with the candidate index forced
//!   on, so per-technique `IndexStats` (indexed vs scanned queries,
//!   candidates visited — for DUST, the φ-space envelope engaging
//!   through the sharded path) appear in the snapshot.
//! * `overload` — the scan workload hammered from more client threads
//!   than the admission gate has permits, so load shedding engages:
//!   QPS and percentiles cover the *admitted* queries, and the gate's
//!   admitted/rejected counters land in the snapshot next to the cache
//!   and index statistics.
//!
//! Not a criterion bench (criterion reports per-iteration medians; a
//! load generator wants QPS and tail latency), so it is a
//! `harness = false` main like the others, with its own JSON snapshot:
//! set `SERVING_JSON=path` to write `BENCH_serving.json`.

use std::time::Instant;

use rand::Rng;
use uts_bench::bench_task_sized;
use uts_core::index::IndexConfig;
use uts_core::matching::{MatchingTask, Technique};
use uts_core::serving::{
    AdmissionConfig, QueryOptions, ServeError, ShardAssignment, ShardedEngine,
};
use uts_stats::rng::Seed;

const COLLECTION: usize = 48;
const K: usize = 5;
const SIGMA: f64 = 0.5;
const SHARD_COUNTS: [usize; 3] = [1, 2, 4];
/// Distinct `(query, ε, kind)` keys the Zipf phase draws from.
const POOL: usize = 200;
/// Zipf exponent (s > 1 so the head dominates).
const ZIPF_S: f64 = 1.1;

#[derive(Clone, Copy)]
enum OpKind {
    Range,
    TopK,
}

#[derive(Clone, Copy)]
struct Op {
    kind: OpKind,
    query: usize,
    epsilon: f64,
}

struct PhaseResult {
    phase: &'static str,
    technique: &'static str,
    shards: usize,
    ops: usize,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    cache_hits: u64,
    cache_misses: u64,
    indexed_queries: u64,
    scan_queries: u64,
    index_candidates: u64,
    gate_admitted: u64,
    gate_rejected: u64,
}

/// Inverse-CDF Zipf sampler over ranks `0..n`: rank r has weight
/// `1 / (r + 1)^s`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut rand::rngs::StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The key pool the Zipf phase draws from: popularity rank r maps to a
/// spread-out query id and one of a few ε scales, 30% top-k.
fn build_pool(task: &MatchingTask, technique: &Technique, rng: &mut rand::rngs::StdRng) -> Vec<Op> {
    let n = task.len();
    (0..POOL)
        .map(|r| {
            let query = (r * 7) % n;
            let scale = [0.5, 0.8, 1.0, 1.5, 2.0][r % 5];
            let epsilon = task.calibrated_threshold(query, technique) * scale;
            let kind = if rng.gen_range(0.0..1.0) < 0.3 {
                OpKind::TopK
            } else {
                OpKind::Range
            };
            Op {
                kind,
                query,
                epsilon,
            }
        })
        .collect()
}

fn run_op(engine: &ShardedEngine, op: Op) -> usize {
    let opts = QueryOptions::default();
    match op.kind {
        OpKind::Range => engine
            .answer_set_opts(op.query, op.epsilon, &opts)
            .map(|r| r.value.len()),
        OpKind::TopK => engine.top_k_opts(op.query, K, &opts).map(|r| r.value.len()),
    }
    .expect("fault-free distance-technique query")
}

fn percentile(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ns.len() - 1) as f64 * p).round() as usize;
    sorted_ns[idx] as f64 / 1_000.0
}

fn run_phase(
    phase: &'static str,
    technique_name: &'static str,
    engine: &ShardedEngine,
    workload: &[Op],
) -> PhaseResult {
    // Warm-up pass over a small prefix so first-touch allocation noise
    // stays out of the percentiles; the cache is reset after it by
    // measuring deltas instead of absolutes.
    for &op in workload.iter().take(8) {
        let _ = run_op(engine, op);
    }
    let before = engine.cache_stats();
    let index_before = engine.index_stats();
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(workload.len());
    let mut guard = 0usize;
    let wall = Instant::now();
    for &op in workload {
        let t0 = Instant::now();
        guard += run_op(engine, op);
        latencies_ns.push(t0.elapsed().as_nanos() as u64);
    }
    let elapsed = wall.elapsed().as_secs_f64();
    std::hint::black_box(guard);
    latencies_ns.sort_unstable();
    let after = engine.cache_stats();
    let index_delta = engine.index_stats().since(&index_before);
    PhaseResult {
        phase,
        technique: technique_name,
        shards: engine.shard_count(),
        ops: workload.len(),
        qps: workload.len() as f64 / elapsed,
        p50_us: percentile(&latencies_ns, 0.50),
        p99_us: percentile(&latencies_ns, 0.99),
        cache_hits: after.hits - before.hits,
        cache_misses: after.misses - before.misses,
        indexed_queries: index_delta.indexed_queries,
        scan_queries: index_delta.scan_queries,
        index_candidates: index_delta.candidates,
        gate_admitted: 0,
        gate_rejected: 0,
    }
}

/// How many client threads hammer the gated engine in the overload
/// phase (more than [`OVERLOAD_PERMITS`], so shedding engages).
const OVERLOAD_CLIENTS: usize = 4;
/// The overload phase's admission capacity.
const OVERLOAD_PERMITS: usize = 2;

/// Replays `workload` from [`OVERLOAD_CLIENTS`] threads against an
/// engine whose admission gate holds only [`OVERLOAD_PERMITS`] permits:
/// rejected operations count into the gate counters, admitted ones into
/// QPS and the latency percentiles.
fn run_overload(
    technique_name: &'static str,
    engine: &ShardedEngine,
    workload: &[Op],
) -> PhaseResult {
    let before = engine.cache_stats();
    let gate_before = engine.gate_stats().expect("overload engine has a gate");
    let chunk = workload.len().div_ceil(OVERLOAD_CLIENTS);
    let opts = QueryOptions::default();
    let wall = Instant::now();
    let per_thread: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = workload
            .chunks(chunk)
            .map(|slice| {
                scope.spawn(move || {
                    let mut latencies_ns = Vec::with_capacity(slice.len());
                    let mut guard = 0usize;
                    for &op in slice {
                        let t0 = Instant::now();
                        match engine.answer_set_opts(op.query, op.epsilon, &opts) {
                            Ok(resp) => {
                                guard += resp.value.len();
                                latencies_ns.push(t0.elapsed().as_nanos() as u64);
                            }
                            Err(ServeError::Overloaded) => {}
                            Err(e) => panic!("overload phase: unexpected {e}"),
                        }
                    }
                    std::hint::black_box(guard);
                    latencies_ns
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("overload client"))
            .collect()
    });
    let elapsed = wall.elapsed().as_secs_f64();
    let mut latencies_ns: Vec<u64> = per_thread.into_iter().flatten().collect();
    latencies_ns.sort_unstable();
    let after = engine.cache_stats();
    let gate_after = engine.gate_stats().expect("overload engine has a gate");
    PhaseResult {
        phase: "overload",
        technique: technique_name,
        shards: engine.shard_count(),
        ops: workload.len(),
        qps: latencies_ns.len() as f64 / elapsed,
        p50_us: percentile(&latencies_ns, 0.50),
        p99_us: percentile(&latencies_ns, 0.99),
        cache_hits: after.hits - before.hits,
        cache_misses: after.misses - before.misses,
        indexed_queries: 0,
        scan_queries: 0,
        index_candidates: 0,
        gate_admitted: gate_after.admitted - gate_before.admitted,
        gate_rejected: gate_after.rejected - gate_before.rejected,
    }
}

fn main() {
    // Under `cargo bench` the harness passes flags (e.g. `--bench`); a
    // load generator has no filters, so they are accepted and ignored.
    let _ = std::env::args();

    let task = bench_task_sized(COLLECTION, SIGMA, K);
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let techniques: [(&str, Technique, usize); 2] = [
        ("euclidean", Technique::Euclidean, 2000),
        ("dust", Technique::Dust(Default::default()), 300),
    ];

    let mut results: Vec<PhaseResult> = Vec::new();
    for (name, technique, ops) in &techniques {
        let mut rng = Seed::new(0x5EF).derive(name).rng();
        let pool = build_pool(&task, technique, &mut rng);
        let zipf = Zipf::new(POOL, ZIPF_S);
        let zipf_workload: Vec<Op> = (0..*ops).map(|_| pool[zipf.sample(&mut rng)]).collect();
        // Scan phase: every key distinct (an ε nudged by one part per
        // billion per round is a different bit pattern, hence a
        // guaranteed cache miss), so throughput is pure fan-out.
        let scan_workload: Vec<Op> = (0..*ops)
            .map(|t| {
                let mut op = pool[t % POOL];
                op.epsilon *= 1.0 + 1e-9 * (1 + t / POOL) as f64;
                if matches!(op.kind, OpKind::TopK) {
                    op.kind = OpKind::Range;
                }
                op
            })
            .collect();

        for shards in SHARD_COUNTS {
            let engine =
                ShardedEngine::prepare(&task, technique, shards, ShardAssignment::RoundRobin);
            results.push(run_phase("zipf", name, &engine, &zipf_workload));
            // Fresh engine: the scan phase must not inherit zipf's cache.
            let engine =
                ShardedEngine::prepare(&task, technique, shards, ShardAssignment::RoundRobin);
            results.push(run_phase("scan", name, &engine, &scan_workload));
            // Same miss-heavy workload with the candidate index forced
            // on (the default config never indexes a collection this
            // small), so the per-technique IndexStats — indexed vs
            // scanned queries, candidates visited; for DUST that means
            // the φ-space envelope engaging across shard boundaries —
            // land in the snapshot next to the unindexed rows.
            let engine = ShardedEngine::prepare_with(
                &task,
                technique,
                shards,
                ShardAssignment::RoundRobin,
                IndexConfig::always(),
            );
            results.push(run_phase("scan_indexed", name, &engine, &scan_workload));
            // Overload phase: fresh gated engine, more clients than
            // permits, so the load-shedding counters are exercised.
            let engine =
                ShardedEngine::prepare(&task, technique, shards, ShardAssignment::RoundRobin)
                    .with_admission(AdmissionConfig::reject_when_full(OVERLOAD_PERMITS));
            results.push(run_overload(name, &engine, &scan_workload));
        }
    }

    let mut json = String::from("{\n");
    json.push_str("  \"bench\": \"serving_throughput\",\n");
    json.push_str(&format!("  \"collection\": {COLLECTION},\n"));
    json.push_str(&format!("  \"series_len\": {},\n", task.clean()[0].len()));
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"zipf_s\": {ZIPF_S},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"phase\": \"{}\", \"technique\": \"{}\", \"shards\": {}, \"ops\": {}, \
             \"qps\": {:.1}, \"p50_us\": {:.2}, \"p99_us\": {:.2}, \
             \"cache_hits\": {}, \"cache_misses\": {}, \
             \"indexed_queries\": {}, \"scan_queries\": {}, \"index_candidates\": {}, \
             \"gate_admitted\": {}, \"gate_rejected\": {}}}{}\n",
            r.phase,
            r.technique,
            r.shards,
            r.ops,
            r.qps,
            r.p50_us,
            r.p99_us,
            r.cache_hits,
            r.cache_misses,
            r.indexed_queries,
            r.scan_queries,
            r.index_candidates,
            r.gate_admitted,
            r.gate_rejected,
            if i + 1 == results.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    for r in &results {
        println!(
            "{:4}/{:9} shards={} ops={:5} qps={:>10.1} p50={:>8.2}µs p99={:>8.2}µs hits={} misses={} idx_q={} scan_q={} gate={}/{}",
            r.phase, r.technique, r.shards, r.ops, r.qps, r.p50_us, r.p99_us, r.cache_hits,
            r.cache_misses, r.indexed_queries, r.scan_queries, r.gate_admitted, r.gate_rejected
        );
    }
    if let Ok(path) = std::env::var("SERVING_JSON") {
        std::fs::write(&path, &json).expect("write serving json");
        println!("wrote {path}");
    }
}
