//! Shard assignment: partitioning a collection's index space across N
//! shards.
//!
//! A [`ShardPlan`] is pure index bookkeeping — which global series lands
//! in which shard, and how local positions map back. Both strategies
//! keep every shard's member list ascending in global index, which is
//! what makes the serving layer's merges order-preserving (a shard's
//! local scan order *is* global order restricted to that shard).

/// How global indices are distributed across shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardAssignment {
    /// Global index `i` lands in shard `i mod N` — interleaved, so
    /// workloads skewed toward a contiguous region still spread across
    /// all shards.
    RoundRobin,
    /// Contiguous size-balanced blocks: the first `n mod N` shards hold
    /// `⌈n / N⌉` members, the rest `⌊n / N⌋` — cache-friendly for scans
    /// that walk neighbouring series together.
    Contiguous,
}

/// The index bookkeeping of one partitioning: shard member lists
/// (ascending global indices) plus the inverse global → (shard, local)
/// map.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    /// Global indices per shard, ascending within each shard.
    members: Vec<Vec<usize>>,
    /// Global index → (shard, local position within the shard).
    owner: Vec<(usize, usize)>,
}

impl ShardPlan {
    /// Partitions `0..n` across `shards` shards.
    ///
    /// `shards > n` is allowed (the surplus shards are empty); a shard
    /// count of zero is a caller bug.
    ///
    /// # Panics
    /// If `shards == 0`.
    pub fn new(n: usize, shards: usize, assignment: ShardAssignment) -> Self {
        assert!(shards > 0, "shard count must be positive");
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); shards];
        let mut owner = Vec::with_capacity(n);
        match assignment {
            ShardAssignment::RoundRobin => {
                for i in 0..n {
                    let s = i % shards;
                    owner.push((s, members[s].len()));
                    members[s].push(i);
                }
            }
            ShardAssignment::Contiguous => {
                let base = n / shards;
                let extra = n % shards;
                let mut start = 0;
                for (s, shard) in members.iter_mut().enumerate() {
                    let size = base + usize::from(s < extra);
                    for i in start..start + size {
                        owner.push((s, shard.len()));
                        shard.push(i);
                    }
                    start += size;
                }
            }
        }
        Self { members, owner }
    }

    /// Number of shards (including empty ones).
    pub fn shard_count(&self) -> usize {
        self.members.len()
    }

    /// Total number of series across all shards.
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// Whether the plan covers an empty collection.
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// Global indices of shard `s`, ascending.
    pub fn members(&self, s: usize) -> &[usize] {
        &self.members[s]
    }

    /// The shard and local position holding global index `i`.
    ///
    /// # Panics
    /// If `i` is out of range.
    pub fn owner_of(&self, i: usize) -> (usize, usize) {
        self.owner[i]
    }

    /// The global index at local position `local` of shard `s`.
    pub fn global_of(&self, s: usize, local: usize) -> usize {
        self.members[s][local]
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn round_robin_interleaves() {
        let p = ShardPlan::new(7, 3, ShardAssignment::RoundRobin);
        assert_eq!(p.members(0), &[0, 3, 6]);
        assert_eq!(p.members(1), &[1, 4]);
        assert_eq!(p.members(2), &[2, 5]);
        assert_eq!(p.owner_of(4), (1, 1));
        assert_eq!(p.global_of(1, 1), 4);
    }

    #[test]
    fn contiguous_balances_sizes() {
        let p = ShardPlan::new(10, 3, ShardAssignment::Contiguous);
        assert_eq!(p.members(0), &[0, 1, 2, 3]);
        assert_eq!(p.members(1), &[4, 5, 6]);
        assert_eq!(p.members(2), &[7, 8, 9]);
        assert_eq!(p.owner_of(6), (1, 2));
    }

    #[test]
    fn roundtrip_and_ascending_for_both_assignments() {
        for assignment in [ShardAssignment::RoundRobin, ShardAssignment::Contiguous] {
            for n in [0, 1, 5, 12, 13] {
                for shards in [1, 2, 4, 7, 15] {
                    let p = ShardPlan::new(n, shards, assignment);
                    assert_eq!(p.len(), n);
                    assert_eq!(p.shard_count(), shards);
                    let mut seen = 0;
                    for s in 0..shards {
                        assert!(p.members(s).windows(2).all(|w| w[0] < w[1]));
                        for (local, &g) in p.members(s).iter().enumerate() {
                            assert_eq!(p.owner_of(g), (s, local), "{assignment:?} n={n}");
                            seen += 1;
                        }
                    }
                    assert_eq!(seen, n, "every index owned exactly once");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_shards_panics() {
        let _ = ShardPlan::new(4, 0, ShardAssignment::RoundRobin);
    }
}
