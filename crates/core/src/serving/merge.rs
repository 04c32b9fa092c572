//! Deterministic merges of per-shard partial answers.
//!
//! Every input list arrives already in the order its shard scan produced
//! it — ascending global index for range/probability scans, ascending
//! `(distance, global index)` for per-shard top-k selections (shard
//! member lists are ascending, so local scan order is global order
//! restricted to the shard). The merges below are therefore pure k-way
//! merges with no re-sorting, and the combined result is bit-identical
//! to what one unsharded scan would have produced.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Union of per-shard range answers (each ascending, mutually disjoint)
/// into one ascending index vector — "answer sets unioned in series
/// order".
pub fn merge_answer_sets(per_shard: &[Vec<usize>]) -> Vec<usize> {
    merge_by_index(per_shard, |&i| i)
}

/// Union of per-shard `(index, value)` answers (each ascending in
/// index, mutually disjoint) in series order — the probability merge.
pub fn merge_scored_by_index(per_shard: &[Vec<(usize, f64)>]) -> Vec<(usize, f64)> {
    merge_by_index(per_shard, |&(i, _)| i)
}

/// The k-way union behind both series-order merges: per-shard lists,
/// each ascending in `index` and mutually disjoint, into one ascending
/// list.
fn merge_by_index<T: Copy>(per_shard: &[Vec<T>], index: impl Fn(&T) -> usize) -> Vec<T> {
    let total = per_shard.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    // Running cursor per shard; repeatedly take the smallest head. Shard
    // counts are small, so the linear head scan beats heap bookkeeping.
    let mut pos = vec![0usize; per_shard.len()];
    loop {
        let mut best: Option<(usize, usize)> = None; // (index, shard)
        for (s, list) in per_shard.iter().enumerate() {
            if let Some(head) = list.get(pos[s]) {
                let i = index(head);
                if best.is_none_or(|(bi, _)| i < bi) {
                    best = Some((i, s));
                }
            }
        }
        match best {
            Some((_, s)) => {
                out.push(per_shard[s][pos[s]]);
                pos[s] += 1;
            }
            None => return out,
        }
    }
}

/// One candidate inside the bounded top-k merge heap: the head of a
/// shard's ranked list. Ordered ascending by `(distance, global index)`
/// — the same total order the unsharded selection uses, so ties resolve
/// identically.
struct HeapHead {
    distance: f64,
    index: usize,
    shard: usize,
    pos: usize,
}

impl PartialEq for HeapHead {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapHead {}
impl PartialOrd for HeapHead {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapHead {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the smallest
        // (distance, index) on top.
        other
            .distance
            .total_cmp(&self.distance)
            .then(other.index.cmp(&self.index))
    }
}

/// Bounded merge of per-shard top-k selections (each ascending by
/// `(distance, global index)`) into the global top-k: a k-way heap merge
/// that stops after `k` results, never materialising the full union.
pub fn merge_top_k(per_shard: &[Vec<(usize, f64)>], k: usize) -> Vec<(usize, f64)> {
    let mut heap: BinaryHeap<HeapHead> = per_shard
        .iter()
        .enumerate()
        .filter_map(|(s, list)| {
            list.first().map(|&(index, distance)| HeapHead {
                distance,
                index,
                shard: s,
                pos: 0,
            })
        })
        .collect();
    let mut out = Vec::with_capacity(k.min(per_shard.iter().map(Vec::len).sum()));
    while out.len() < k {
        let Some(head) = heap.pop() else { break };
        out.push((head.index, head.distance));
        if let Some(&(index, distance)) = per_shard[head.shard].get(head.pos + 1) {
            heap.push(HeapHead {
                distance,
                index,
                shard: head.shard,
                pos: head.pos + 1,
            });
        }
    }
    out
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn answer_sets_union_in_series_order() {
        let merged = merge_answer_sets(&[vec![0, 3, 9], vec![1, 4], vec![], vec![2, 11]]);
        assert_eq!(merged, vec![0, 1, 2, 3, 4, 9, 11]);
        assert!(merge_answer_sets(&[]).is_empty());
        assert!(merge_answer_sets(&[vec![], vec![]]).is_empty());
    }

    #[test]
    fn scored_merge_keeps_values_with_indices() {
        let merged = merge_scored_by_index(&[vec![(0, 0.5), (4, 0.1)], vec![(1, 0.9)]]);
        assert_eq!(merged, vec![(0, 0.5), (1, 0.9), (4, 0.1)]);
    }

    #[test]
    fn top_k_merge_is_bounded_and_tie_stable() {
        // Shard lists sorted by (distance, index); the tie at d=1.0 must
        // resolve to the smaller global index, as one flat scan would.
        let a = vec![(5, 0.5), (0, 1.0), (7, 3.0)];
        let b = vec![(2, 1.0), (4, 2.0)];
        assert_eq!(
            merge_top_k(&[a.clone(), b.clone()], 3),
            vec![(5, 0.5), (0, 1.0), (2, 1.0)]
        );
        // k larger than the union truncates to what exists.
        assert_eq!(merge_top_k(&[a, b], 99).len(), 5);
        assert!(merge_top_k(&[vec![], vec![]], 3).is_empty());
    }
}
