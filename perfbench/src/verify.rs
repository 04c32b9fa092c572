//! Correctness gate and answer quality, computed after the timed pass.
//!
//! The reference is an unsharded `QueryEngine` with the candidate index
//! disabled — the exact scans the equivalence suites pin to the naive
//! oracles — prepared on the same collection state each op saw: writes
//! are re-applied in op order, and the reads between two writes are
//! checked against the engine prepared after the first of them. Each
//! distinct key is evaluated once per state and every answer recorded
//! for it is compared bit for bit.

use std::collections::HashMap;
use std::sync::Arc;

use uts_core::engine::QueryEngine;
use uts_core::index::IndexConfig;
use uts_core::matching::{MatchingTask, QualityScores, Technique};
use uts_core::parallel::parallel_map;

use crate::serve::Answer;
use crate::workloads::{Op, Workload, Write};

/// The verdict over one pass.
pub struct Check {
    /// Per op: whether its answer was missing, an error or wrong.
    pub failed: Vec<bool>,
    /// Mean F1 of each distinct range-answer key against the clean ground
    /// truth.
    pub f1: f64,
}

/// A collection with member `w.i` replaced — the state an update leaves.
pub fn replaced(task: &MatchingTask, w: &Write) -> MatchingTask {
    let mut clean = task.clean().to_vec();
    let mut uncertain = task.uncertain().to_vec();
    let mut multi = task.multi().map(<[_]>::to_vec);
    clean[w.i] = w.clean.clone();
    uncertain[w.i] = w.uncertain.clone();
    if let (Some(m), Some(new)) = (multi.as_mut(), &w.multi) {
        m[w.i] = new.clone();
    }
    MatchingTask::new(clean, uncertain, multi, task.k())
}

/// The range answer a read's answer stands for: the answer set itself,
/// or the members whose probability reaches τ; empty for a failed op.
fn range_answer(answer: &Answer, tau: f64) -> Vec<usize> {
    match answer {
        Answer::Indices(v) => v.to_vec(),
        Answer::Scored(v) => v
            .iter()
            .filter(|&&(_, p)| p >= tau)
            .map(|&(i, _)| i)
            .collect(),
        Answer::Written | Answer::Failed(_) => Vec::new(),
    }
}

/// Whether `answer` is exactly what the reference engine returns for `op`.
fn matches_reference(
    oracle: &QueryEngine<Arc<MatchingTask>>,
    op: &Op,
    answers: &[&Answer],
) -> Vec<bool> {
    let reference = match *op {
        Op::Range { q, eps } => Answer::Indices(Arc::new(oracle.answer_set(q, eps))),
        Op::TopK { q, k } => match oracle.top_k(q, k) {
            Some(v) => Answer::Scored(Arc::new(v)),
            None => Answer::Failed(String::new()),
        },
        Op::Prob { q, eps } => match oracle.probabilities(q, eps) {
            Some(v) => Answer::Scored(Arc::new(v)),
            None => Answer::Failed(String::new()),
        },
        Op::Update(_) => Answer::Written,
    };
    answers.iter().map(|a| a.same(&reference)).collect()
}

/// Cache-key identity of a read: class, query and ε bits or k.
fn key(op: &Op) -> (u8, usize, u64) {
    match *op {
        Op::Range { q, eps } => (0, q, eps.to_bits()),
        Op::TopK { q, k } => (1, q, k as u64),
        Op::Prob { q, eps } => (2, q, eps.to_bits()),
        Op::Update(_) => unreachable!("writes are not keyed"),
    }
}

/// Checks the answers of a pass over `w.ops` and scores their quality.
/// Every write is checked, and of the distinct read keys of each
/// collection state every `sample`-th (in key order) is compared with the
/// reference; the other reads count as correct.
pub fn check(w: &Workload, answers: &[Answer], sample: usize) -> Check {
    let tau = match w.technique {
        Technique::Munich { tau, .. } | Technique::Proud { tau, .. } => tau,
        _ => 0.0,
    };
    let mut ok = vec![false; w.ops.len()];
    let mut state = Arc::new(w.task.clone());
    let mut start = 0;
    while start < w.ops.len() {
        let end = w.ops[start..]
            .iter()
            .position(|op| matches!(op, Op::Update(_)))
            .map_or(w.ops.len(), |p| start + p);
        let oracle =
            QueryEngine::prepare_with(state.clone(), &w.technique, IndexConfig::disabled());
        let mut groups: HashMap<(u8, usize, u64), Vec<usize>> = HashMap::new();
        for j in start..end {
            groups.entry(key(&w.ops[j])).or_default().push(j);
        }
        let mut groups: Vec<Vec<usize>> = groups.into_values().collect();
        groups.sort_unstable();
        for js in groups
            .iter()
            .enumerate()
            .filter(|(g, _)| g % sample != 0)
            .flat_map(|(_, js)| js)
        {
            ok[*js] = true;
        }
        let groups: Vec<Vec<usize>> = groups.into_iter().step_by(sample).collect();
        let verdicts = parallel_map(&groups, |js| {
            let recorded: Vec<&Answer> = js.iter().map(|&j| &answers[j]).collect();
            matches_reference(&oracle, &w.ops[js[0]], &recorded)
        });
        for (js, v) in groups.iter().zip(verdicts) {
            for (&j, good) in js.iter().zip(v) {
                ok[j] = good;
            }
        }
        if let Some(Op::Update(write)) = w.ops.get(end) {
            ok[end] = matches!(answers[end], Answer::Written);
            state = Arc::new(replaced(&state, write));
        }
        start = end + 1;
    }
    for (j, _) in ok.iter().enumerate().filter(|(_, good)| !**good).take(5) {
        let why = match &answers[j] {
            Answer::Failed(message) => message.as_str(),
            _ => "answer differs from the reference engine",
        };
        eprintln!("perfbench: op {j} ({:?}) failed: {why}", w.ops[j].class());
    }

    // Quality is the paper's: range answers (probability estimates
    // thresholded at τ are range answers) against the clean ground truth.
    // Each distinct key counts once (its first answer), so the
    // Zipf-weighted repeats of a few hot keys do not dominate it.
    let mut seen = std::collections::HashSet::new();
    let mut f1 = Vec::new();
    for (op, answer) in w.ops.iter().zip(answers) {
        if let (Some(q), false) = (op.query(), matches!(op, Op::TopK { .. })) {
            if !seen.insert(key(op)) {
                continue;
            }
            let set = range_answer(answer, tau);
            f1.push(QualityScores::from_sets(&set, &w.truth[q]).f1);
        }
    }
    Check {
        failed: ok.iter().map(|&good| !good).collect(),
        f1: crate::stats::mean(&f1),
    }
}
