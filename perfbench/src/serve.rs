//! The measured path: set-up, warm-up and the closed-loop timed rounds
//! through the public `ShardedEngine` API, with one client thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use uts_core::serving::{QueryOptions, ShardAssignment, ShardedEngine};

use crate::workloads::{Op, Workload, Write};

/// What one op returned, recorded during the timed pass and checked
/// after it.
#[derive(Debug, Clone)]
pub enum Answer {
    Indices(Arc<Vec<usize>>),
    Scored(Arc<Vec<(usize, f64)>>),
    Written,
    /// A `ServeError`, a missing answer or a panic, with its message.
    Failed(String),
}

impl Answer {
    /// Whether two answers are identical, scores compared bit for bit.
    pub fn same(&self, other: &Answer) -> bool {
        match (self, other) {
            (Answer::Indices(x), Answer::Indices(y)) => x == y,
            (Answer::Scored(x), Answer::Scored(y)) => {
                x.len() == y.len()
                    && x.iter()
                        .zip(y.iter())
                        .all(|(p, q)| p.0 == q.0 && p.1.to_bits() == q.1.to_bits())
            }
            (Answer::Written, Answer::Written) => true,
            _ => false,
        }
    }
}

/// Prepares the workload's sharded engine (the operation `setup_s`
/// times).
pub fn prepare(w: &Workload) -> ShardedEngine {
    let engine = ShardedEngine::try_prepare_with(
        &w.task,
        &w.technique,
        w.shards,
        ShardAssignment::RoundRobin,
        w.index,
    )
    .expect("every workload's technique prepares on its own task");
    match w.admission {
        Some(cfg) => engine.with_admission(cfg),
        None => engine,
    }
}

/// Times `reps` prepares and returns their durations in seconds plus the
/// last engine. One untimed prepare runs first, so lazily built state
/// the technique shares across prepares (DUST's lookup tables) is warm,
/// as it is for every prepare after the first in a serving process.
pub fn timed_setups(w: &Workload, reps: usize) -> (Vec<f64>, ShardedEngine) {
    let mut engine = prepare(w);
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        drop(engine);
        let t0 = Instant::now();
        engine = prepare(w);
        secs.push(t0.elapsed().as_secs_f64());
    }
    (secs, engine)
}

/// Message of a caught panic payload.
pub fn panic_text(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

/// Runs one op. A write's payload is passed in already cloned, so the
/// clone stays outside the op's timed interval.
pub fn execute(engine: &mut ShardedEngine, op: &Op, write: Option<Write>) -> Answer {
    let opts = QueryOptions::default();
    let outcome = catch_unwind(AssertUnwindSafe(|| match *op {
        Op::Range { q, eps } => match engine.answer_set_opts(q, eps, &opts) {
            Ok(r) => Answer::Indices(r.value),
            Err(e) => Answer::Failed(e.to_string()),
        },
        Op::TopK { q, k } => match engine.top_k_opts(q, k, &opts) {
            Ok(r) => Answer::Scored(r.value),
            Err(e) => Answer::Failed(e.to_string()),
        },
        Op::Prob { q, eps } => match engine.probabilities_opts(q, eps, &opts) {
            Ok(Some(r)) => Answer::Scored(r.value),
            Ok(None) => Answer::Failed("technique has no probabilities".to_string()),
            Err(e) => Answer::Failed(e.to_string()),
        },
        Op::Update(_) => {
            let w = write.expect("a write op carries its payload");
            match engine.try_update_series(w.i, w.clean, w.uncertain, w.multi) {
                Ok(()) => Answer::Written,
                Err(e) => Answer::Failed(e.to_string()),
            }
        }
    }));
    outcome.unwrap_or_else(|p| Answer::Failed(panic_text(p.as_ref())))
}

/// The payload clone a write op needs (`None` for reads).
pub fn payload(op: &Op) -> Option<Write> {
    match op {
        Op::Update(w) => Some((**w).clone()),
        _ => None,
    }
}

/// Runs `ops` without timing them (warm-up).
pub fn run_untimed(engine: &mut ShardedEngine, ops: &[Op]) {
    for op in ops {
        let _ = execute(engine, op, payload(op));
    }
}

/// The outcome of a timed pass.
pub struct Pass {
    /// Per-op latency in nanoseconds, in op order.
    pub latency_ns: Vec<u64>,
    /// Per-op answers, in op order.
    pub answers: Vec<Answer>,
    /// Wall time of the whole op sequence, in seconds.
    pub wall_s: f64,
}

/// Runs every op once, in order, timing each (closed loop: the next op
/// starts when the previous one returned).
pub fn timed_pass(engine: &mut ShardedEngine, ops: &[Op]) -> Pass {
    let mut latency_ns = Vec::with_capacity(ops.len());
    let mut answers = Vec::with_capacity(ops.len());
    let wall = Instant::now();
    for op in ops {
        let write = payload(op);
        let t0 = Instant::now();
        let answer = execute(engine, op, write);
        latency_ns.push(t0.elapsed().as_nanos() as u64);
        answers.push(answer);
    }
    Pass {
        latency_ns,
        answers,
        wall_s: wall.elapsed().as_secs_f64(),
    }
}

/// Runs the op sequence `rounds` times, each round on a freshly prepared
/// engine after the warm-up, so every round sees the same states and
/// must give the same answers. `engine` serves the first round.
///
/// Each op's latency is its fastest round. On a shared host, other
/// tenants slow stretches of a run by 10–20%; the fastest of rounds
/// seconds apart is the closest reading of the op's own cost. The pass's
/// wall time is the sum of those latencies. An answer that differs from
/// the first round's marks the op failed.
///
/// Returns the combined pass and the durations of the later rounds'
/// prepares, in seconds.
pub fn timed_rounds(w: &Workload, mut engine: ShardedEngine, rounds: usize) -> (Pass, Vec<f64>) {
    run_untimed(&mut engine, &w.warmup);
    let mut pass = timed_pass(&mut engine, &w.ops);
    let mut prepares = Vec::with_capacity(rounds.saturating_sub(1));
    for round in 1..rounds {
        drop(engine);
        let t0 = Instant::now();
        engine = prepare(w);
        prepares.push(t0.elapsed().as_secs_f64());
        run_untimed(&mut engine, &w.warmup);
        let next = timed_pass(&mut engine, &w.ops);
        for (j, (ns, answer)) in next.latency_ns.into_iter().zip(next.answers).enumerate() {
            pass.latency_ns[j] = pass.latency_ns[j].min(ns);
            if !answer.same(&pass.answers[j]) {
                pass.answers[j] = Answer::Failed(format!("round {round} answered differently"));
            }
        }
    }
    pass.wall_s = pass.latency_ns.iter().sum::<u64>() as f64 / 1e9;
    (pass, prepares)
}
