//! The three workloads: their collections, techniques, serving
//! configuration and seeded op sequences.
//!
//! Every input is a pure function of `(workload, seed, seconds)`: the
//! collection, the query keys, their calibrated thresholds, the write
//! payloads and the op order. The op count is derived from `seconds`
//! through a fixed nominal rate, never from the wall clock, so every run
//! with the same arguments executes the same op multiset to completion.
//! An untraced run executes the op sequence [`Workload::rounds`] times;
//! each rate is set so that all rounds together take about `seconds`.

use rand::seq::SliceRandom;
use rand::Rng;
use uts_core::index::IndexConfig;
use uts_core::matching::{GroundTruth, MatchingTask, Technique};
use uts_core::munich::Munich;
use uts_core::parallel::parallel_map;
use uts_core::serving::AdmissionConfig;
use uts_core::{Dust, Uma};
use uts_datasets::{Catalogue, DatasetId};
use uts_stats::rng::Seed;
use uts_tseries::TimeSeries;
use uts_uncertain::{
    perturb, perturb_multi, ErrorFamily, ErrorSpec, MultiObsSeries, UncertainSeries,
};

/// Root seed of the catalogue datasets: the FaceAll and GunPoint
/// analogues are fixed collections; the run seed drives their
/// perturbation and the op sequence.
const CATALOGUE_SEED: u64 = 0xBE7C;

/// Ground-truth neighbourhood size and top-k `k` on every workload.
const K: usize = 10;

/// One client operation.
#[derive(Debug, Clone)]
pub enum Op {
    /// `answer_set(q, eps)`.
    Range { q: usize, eps: f64 },
    /// `top_k(q, k)`.
    TopK { q: usize, k: usize },
    /// `probabilities(q, eps)`.
    Prob { q: usize, eps: f64 },
    /// `update_series(i, ..)`: member `i` replaced by a fresh
    /// perturbation of its own clean series.
    Update(Box<Write>),
}

/// The payload of an [`Op::Update`].
#[derive(Debug, Clone)]
pub struct Write {
    pub i: usize,
    pub clean: TimeSeries,
    pub uncertain: UncertainSeries,
    pub multi: Option<MultiObsSeries>,
}

impl Op {
    /// The op class name used in reports.
    pub fn class(&self) -> Class {
        match self {
            Op::Range { .. } => Class::Range,
            Op::TopK { .. } => Class::TopK,
            Op::Prob { .. } => Class::Prob,
            Op::Update(_) => Class::Update,
        }
    }

    /// The query member of a read.
    pub fn query(&self) -> Option<usize> {
        match *self {
            Op::Range { q, .. } | Op::TopK { q, .. } | Op::Prob { q, .. } => Some(q),
            Op::Update(_) => None,
        }
    }
}

/// Op classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Range,
    TopK,
    Prob,
    Update,
}

/// A fully generated workload.
pub struct Workload {
    pub name: &'static str,
    pub technique: Technique,
    pub shards: usize,
    pub index: IndexConfig,
    pub admission: Option<AdmissionConfig>,
    pub task: MatchingTask,
    /// Ground-truth neighbours of every query member the ops use
    /// (indexed by member; empty for members never queried).
    pub truth: Vec<Vec<usize>>,
    /// Ops run before timing, on keys the measured ops never use.
    pub warmup: Vec<Op>,
    /// The measured op sequence.
    pub ops: Vec<Op>,
    /// Prepares repeated to measure `setup_s`.
    pub setup_reps: usize,
    /// Times an untraced run executes `ops`, each on a fresh engine.
    pub rounds: usize,
}

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["serve_mixed", "search_large", "munich_refine"];

/// Builds workload `name` for `seed`, sized for `seconds` of measured
/// work; `None` for an unknown name.
pub fn build(name: &str, seed: u64, seconds: u64) -> Option<Workload> {
    let seed = Seed::new(seed);
    match name {
        "serve_mixed" => Some(serve_mixed(seed, seconds)),
        "search_large" => Some(search_large(seed, seconds)),
        "munich_refine" => Some(munich_refine(seed, seconds)),
        _ => None,
    }
}

/// Perturbs every clean series under a constant Normal(σ) model, with
/// `samples` repeated observations per timestamp when given.
fn perturb_all(
    clean: Vec<TimeSeries>,
    sigma: f64,
    samples: Option<usize>,
    seed: Seed,
) -> MatchingTask {
    let spec = ErrorSpec::constant(ErrorFamily::Normal, sigma);
    let uncertain: Vec<UncertainSeries> = clean
        .iter()
        .enumerate()
        .map(|(i, c)| perturb(c, &spec, seed.derive("pdf").derive_u64(i as u64)))
        .collect();
    let multi = samples.map(|s| {
        clean
            .iter()
            .enumerate()
            .map(|(i, c)| perturb_multi(c, &spec, s, seed.derive("multi").derive_u64(i as u64)))
            .collect()
    });
    MatchingTask::new(clean, uncertain, multi, K)
}

/// A write replacing member `i` with perturbation number `version` of
/// its own clean series, so ground truth and F1 stay defined.
fn write_for(task: &MatchingTask, i: usize, sigma: f64, version: u64, seed: Seed) -> Op {
    let spec = ErrorSpec::constant(ErrorFamily::Normal, sigma);
    let clean = task.clean()[i].clone();
    let s = seed.derive("update").derive_u64(version);
    let uncertain = perturb(&clean, &spec, s.derive("pdf"));
    let multi = task
        .multi()
        .map(|m| perturb_multi(&clean, &spec, m[i].samples_per_point(), s.derive("multi")));
    Op::Update(Box::new(Write {
        i,
        clean,
        uncertain,
        multi,
    }))
}

/// Ground truth and calibrated threshold (paper §4.1.2: the
/// technique's own measure between the observed query and its k-th
/// clean neighbour) of every member in `queries`, computed over both
/// cores. Returns the per-member truth table and the thresholds in
/// `queries` order.
fn calibrate(
    task: &MatchingTask,
    technique: &Technique,
    queries: &[usize],
) -> (Vec<Vec<usize>>, Vec<f64>) {
    let found: Vec<(GroundTruth, f64)> = parallel_map(queries, |&q| {
        let gt = task.ground_truth(q);
        let eps = task.threshold_against(q, gt.anchor, technique);
        (gt, eps)
    });
    let mut truth = vec![Vec::new(); task.len()];
    let mut eps = Vec::with_capacity(queries.len());
    for (&q, (gt, e)) in queries.iter().zip(found) {
        truth[q] = gt.neighbors;
        eps.push(e);
    }
    (truth, eps)
}

/// Inverse-CDF Zipf sampler over ranks `0..n`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

// ---------------------------------------------------------------- serve_mixed

const SERVE_SIGMA: f64 = 0.5;
/// Distinct read keys: more than the cache's 1024-entry capacity.
const SERVE_POOL: usize = 3000;
const SERVE_ZIPF_S: f64 = 1.05;
/// One op in this many is a write.
const SERVE_WRITE_EVERY: usize = 100;
/// Nominal ops per round per measured second (sizes the op sequence).
const SERVE_RATE: u64 = 2400;
const SERVE_SCALES: [f64; 4] = [0.8, 1.0, 1.25, 1.5];

fn serve_mixed(seed: Seed, seconds: u64) -> Workload {
    let clean = Catalogue::new(Seed::new(CATALOGUE_SEED))
        .generate(DatasetId::FaceAll)
        .series;
    // The collection and the key pool are fixed; the seed drives the Zipf
    // draws and the writes. On a 2-vCPU VM a seeded pool moved the run's
    // cost by ~20% with which members the few hottest keys landed on.
    let fixed = Seed::new(CATALOGUE_SEED).derive("serve_mixed");
    let task = perturb_all(clean, SERVE_SIGMA, None, fixed);
    let technique = Technique::Uma(Uma::default());
    let mut rng = seed.derive("serve_mixed-ops").rng();

    // Key pool: popularity rank r → a member; ranks ≡ 3, 6, 9 (mod 10)
    // are top-k, so both read classes hold heavy and light keys and each
    // class's hit share stays near the overall one.
    let mut members: Vec<usize> = (0..task.len()).collect();
    members.shuffle(&mut fixed.derive("pool").rng());
    let pool_queries: Vec<usize> = (0..SERVE_POOL)
        .map(|r| members[r % members.len()])
        .collect();
    let (truth, eps_of) = calibrate(&task, &technique, &pool_queries);
    let pool: Vec<Op> = (0..SERVE_POOL)
        .map(|r| {
            let q = pool_queries[r];
            if matches!(r % 10, 3 | 6 | 9) {
                Op::TopK { q, k: K }
            } else {
                Op::Range {
                    q,
                    eps: eps_of[r] * SERVE_SCALES[r % SERVE_SCALES.len()],
                }
            }
        })
        .collect();

    let zipf = Zipf::new(SERVE_POOL, SERVE_ZIPF_S);
    let n_ops = (seconds * SERVE_RATE) as usize;
    let mut version = 0;
    let ops: Vec<Op> = (0..n_ops)
        .map(|j| {
            if j % SERVE_WRITE_EVERY == SERVE_WRITE_EVERY - 1 {
                version += 1;
                let i = rng.gen_range(0..task.len());
                write_for(&task, i, SERVE_SIGMA, version, seed)
            } else {
                pool[zipf.sample(&mut rng)].clone()
            }
        })
        .collect();
    // Warm-up keys sit outside the pool's: k + 1 top-k on pool members.
    let warmup = pool_queries[..16]
        .iter()
        .map(|&q| Op::TopK { q, k: K + 1 })
        .collect();
    Workload {
        name: "serve_mixed",
        technique,
        shards: 4,
        index: IndexConfig::default(),
        admission: Some(AdmissionConfig::reject_when_full(2)),
        task,
        truth,
        warmup,
        ops,
        setup_reps: 101,
        rounds: 3,
    }
}

// ---------------------------------------------------------------- search_large

/// Collection size. On a 2-vCPU VM, at 100,000 series the medians moved
/// by up to 70% from one process to the next on identical inputs, while
/// the rounds inside each process agreed; at 50,000, by up to ~20%.
const LARGE_N: usize = 50_000;
const LARGE_LEN: usize = 64;
const LARGE_SIGMA: f64 = 0.4;
/// Nominal ops per round per measured second.
const LARGE_RATE: u64 = 30;
/// One op in this many is a write.
const LARGE_WRITE_EVERY: usize = 200;
/// Share of the read keys that are top-k.
const LARGE_TOPK_SHARE: f64 = 0.3;

fn search_large(seed: Seed, seconds: u64) -> Workload {
    let task = uts_bench::bench_task_clustered(LARGE_N, LARGE_LEN, LARGE_SIGMA, K);
    let technique = Technique::Dust(Dust::default());
    let mut rng = seed.derive("search_large-ops").rng();
    let n_ops = (seconds * LARGE_RATE) as usize;
    let warm = 8;
    // Distinct query members, so the cache never hits. The key pool and
    // each key's class are fixed; the seed drives their order and the
    // writes. A seeded pool of ~350 range keys moved `answer_f1` by 11%
    // between seeds.
    let fixed = Seed::new(CATALOGUE_SEED).derive("search_large");
    let mut members: Vec<usize> = (0..task.len()).collect();
    members.shuffle(&mut fixed.derive("pool").rng());
    let queries: Vec<usize> = members[..n_ops + warm].to_vec();
    let (truth, eps) = calibrate(&task, &technique, &queries);
    let mut class_rng = fixed.derive("class").rng();
    let mut reads: Vec<Op> = queries
        .iter()
        .zip(&eps)
        .map(|(&q, &eps)| {
            if class_rng.gen_range(0.0..1.0) < LARGE_TOPK_SHARE {
                Op::TopK { q, k: K }
            } else {
                Op::Range { q, eps }
            }
        })
        .collect();
    let warmup: Vec<Op> = reads.drain(..warm).collect();
    reads.shuffle(&mut rng);
    let mut reads = reads.into_iter();
    let mut version = 0;
    let ops: Vec<Op> = (0..n_ops)
        .map(|j| {
            if j % LARGE_WRITE_EVERY == LARGE_WRITE_EVERY - 1 {
                version += 1;
                let i = rng.gen_range(0..task.len());
                write_for(&task, i, LARGE_SIGMA, version, seed)
            } else {
                reads.next().expect("one query per read")
            }
        })
        .collect();
    Workload {
        name: "search_large",
        technique,
        shards: 1,
        index: IndexConfig::default(),
        admission: None,
        task,
        truth,
        warmup,
        ops,
        setup_reps: 5,
        rounds: 8,
    }
}

// ---------------------------------------------------------------- munich_refine

const MUNICH_SIGMA: f64 = 0.5;
const MUNICH_SAMPLES: usize = 3;
const MUNICH_TAU: f64 = 0.5;
/// Members whose index is a multiple of this get probability
/// estimates; the rest get range decisions.
const MUNICH_PROB_EVERY: usize = 6;
/// One write follows every this many reads (enough writes for a steady
/// `update_p50_us`; each costs ~1 ms beside ~50 ms reads).
const MUNICH_WRITE_EVERY: usize = 5;
/// Nominal reads per round per measured second: twenty seconds make
/// one full pass per round.
const MUNICH_READ_RATE: u64 = 10;
const MUNICH_SCALES: [f64; 3] = [1.0, 0.9, 1.1];

fn munich_refine(seed: Seed, seconds: u64) -> Workload {
    let clean = Catalogue::new(Seed::new(CATALOGUE_SEED))
        .generate(DatasetId::GunPoint)
        .series;
    // The collection is fixed: per-query MUNICH cost spans ~10×, and a
    // seeded noise realisation would move every run's cost mix with it.
    let task = perturb_all(
        clean,
        MUNICH_SIGMA,
        Some(MUNICH_SAMPLES),
        Seed::new(CATALOGUE_SEED).derive("munich_refine"),
    );
    let technique = Technique::Munich {
        munich: Munich::default(),
        tau: MUNICH_TAU,
    };
    let mut rng = seed.derive("munich_refine-ops").rng();
    let mut write_rng = seed.derive("munich_refine-writes").rng();
    let n = task.len();
    let all: Vec<usize> = (0..n).collect();
    let (truth, eps) = calibrate(&task, &technique, &all);
    // Stratified keys: each pass visits every member once, in seeded
    // order, at one threshold scale; which members get a probability
    // estimate is fixed, so a full pass is the same op multiset on
    // every seed.
    let eps = &eps;
    let keys = MUNICH_SCALES.iter().cycle().flat_map(|&scale| {
        let mut order = all.clone();
        order.shuffle(&mut rng);
        order.into_iter().map(move |q| (q, eps[q] * scale))
    });
    let n_reads = (seconds * MUNICH_READ_RATE) as usize;
    let mut ops = Vec::with_capacity(n_reads + n_reads / MUNICH_WRITE_EVERY);
    for (r, (q, eps)) in keys.take(n_reads).enumerate() {
        ops.push(if q % MUNICH_PROB_EVERY == 0 {
            Op::Prob { q, eps }
        } else {
            Op::Range { q, eps }
        });
        if r % MUNICH_WRITE_EVERY == MUNICH_WRITE_EVERY - 1 {
            let i = write_rng.gen_range(0..n);
            ops.push(write_for(&task, i, MUNICH_SIGMA, r as u64, seed));
        }
    }
    // Warm-up at a threshold scale no measured op uses.
    let warmup = [0, n / 2]
        .iter()
        .map(|&q| Op::Range {
            q,
            eps: eps[q] * 0.95,
        })
        .collect();
    Workload {
        name: "munich_refine",
        technique,
        shards: 1,
        index: IndexConfig::default(),
        admission: None,
        task,
        truth,
        warmup,
        ops,
        setup_reps: 201,
        rounds: 2,
    }
}
