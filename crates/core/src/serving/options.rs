//! Per-query serving options and the typed fault taxonomy.
//!
//! The `_opts` entry points of [`crate::serving::ShardedEngine`] accept a
//! [`QueryOptions`] (deadline, retry budget, strictness) and answer with
//! either a [`ServingResponse`] — the merged value plus a per-shard
//! [`Coverage`] bitmap — or a [`ServeError`] naming exactly what went
//! wrong: the deadline passed ([`ServeError::Timeout`]), the admission
//! gate was full ([`ServeError::Overloaded`]), a shard failed after its
//! retries ([`ServeError::Shard`]), or the question itself is not
//! well-posed for the technique ([`ServeError::NotDistanceRanked`]).
//!
//! Under [`Strictness::Degraded`] a failing or straggling shard does not
//! fail the query: the merge proceeds over the shards that finished and
//! the response's coverage bitmap records which slices of the collection
//! the answer actually saw. A complete response (every bit set) is
//! bit-identical to the strict answer — degradation only ever *removes*
//! shards from the merge, never alters a surviving shard's results.

use std::time::Duration;

use crate::matching::TechniqueKind;

/// How the serving layer reacts to per-shard failures and deadline
/// expiry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strictness {
    /// Any shard failure or deadline expiry fails the whole query with
    /// a typed error — the default, and the contract every equivalence
    /// suite runs under.
    #[default]
    Strict,
    /// Failing or expired shards are dropped from the merge: the query
    /// answers with whatever coverage the healthy shards produced (the
    /// response's [`Coverage`] says which), and fails only when *no*
    /// shard finished.
    Degraded,
}

/// Per-query serving options: deadline, retry budget, strictness.
///
/// The default (`no deadline, no retries, strict`) is the fault-free
/// contract: the hot path pays nothing for the machinery, and answers
/// are bit-identical to the unsharded engine's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryOptions {
    /// Wall-clock budget for the whole query (fan-out, retries and
    /// merge included). `None` never expires.
    pub deadline: Option<Duration>,
    /// How many times a shard whose attempt *panicked* is retried
    /// (with exponential backoff) before the failure is reported.
    pub retries: u32,
    /// Failure policy: fail fast or merge what finished.
    pub strictness: Strictness,
}

impl QueryOptions {
    /// Options with a wall-clock budget.
    pub fn with_deadline(mut self, budget: Duration) -> Self {
        self.deadline = Some(budget);
        self
    }

    /// Options with a per-shard retry budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Options in degraded mode (merge what finished).
    pub fn degraded(mut self) -> Self {
        self.strictness = Strictness::Degraded;
        self
    }
}

/// What took a single shard down during one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardFault {
    /// The shard's evaluation panicked (message extracted from the
    /// payload); retries, if any, were exhausted.
    Panic(String),
    /// The shard rejected its input as degenerate (non-finite or
    /// malformed values reaching the kernel boundary).
    DegenerateInput,
    /// The shard's scan abandoned at a deadline checkpoint before
    /// finishing.
    Expired,
}

impl std::fmt::Display for ShardFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Panic(msg) => write!(f, "evaluation panicked: {msg}"),
            Self::DegenerateInput => write!(f, "degenerate input rejected at the shard boundary"),
            Self::Expired => write!(f, "deadline expired before the shard finished"),
        }
    }
}

/// Typed failure of a served query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The deadline passed before a complete (strict) or any (degraded)
    /// answer was produced.
    Timeout,
    /// The admission gate was at capacity for the whole bounded wait.
    Overloaded,
    /// A shard failed after its retries (strict mode; in degraded mode
    /// this surfaces only when no shard at all finished).
    Shard {
        /// Which shard failed.
        shard: usize,
        /// What happened there.
        cause: ShardFault,
    },
    /// The technique answers probabilistic range queries, not distance
    /// rankings — top-k by distance is undefined for it (paper §2: MUNICH
    /// and PROUD return `Pr(dist ≤ ε)`, not a real-valued distance).
    NotDistanceRanked(TechniqueKind),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Timeout => f.write_str("query deadline expired"),
            Self::Overloaded => f.write_str("admission gate at capacity: query rejected"),
            Self::Shard { shard, cause } => write!(f, "shard {shard}: {cause}"),
            Self::NotDistanceRanked(kind) => write!(
                f,
                "{kind} answers probabilistic range queries, not distance rankings; \
                 top-k by distance is undefined"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

/// Which shards contributed to a merged answer, as a bitmap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Coverage {
    words: Vec<u64>,
    shards: usize,
}

impl Coverage {
    /// An all-clear bitmap over `shards` shards.
    pub(crate) fn none(shards: usize) -> Self {
        Coverage {
            words: vec![0; shards.div_ceil(64)],
            shards,
        }
    }

    /// An all-set bitmap (used for cache hits, which by construction
    /// were stored complete).
    pub(crate) fn full(shards: usize) -> Self {
        let mut c = Coverage::none(shards);
        for s in 0..shards {
            c.set(s);
        }
        c
    }

    /// Marks shard `s` as covered.
    pub(crate) fn set(&mut self, s: usize) {
        debug_assert!(s < self.shards);
        self.words[s / 64] |= 1 << (s % 64);
    }

    /// Whether shard `s` contributed to the answer.
    pub fn covered(&self, s: usize) -> bool {
        assert!(s < self.shards, "shard index out of range");
        self.words[s / 64] & (1 << (s % 64)) != 0
    }

    /// Number of shards that contributed.
    pub fn covered_count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Total number of shards the query fanned out to.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Whether every shard contributed — a complete answer,
    /// bit-identical to the strict/unsharded one.
    pub fn is_complete(&self) -> bool {
        self.covered_count() == self.shards
    }

    /// The shards that did *not* contribute, ascending.
    pub fn missing(&self) -> Vec<usize> {
        (0..self.shards).filter(|&s| !self.covered(s)).collect()
    }
}

/// A served answer plus the coverage it was merged from.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingResponse<T> {
    /// The merged answer (over the covered shards only).
    pub value: T,
    /// Which shards contributed.
    pub coverage: Coverage,
    /// Total shard retry attempts this query spent.
    pub retries: u32,
}

impl<T> ServingResponse<T> {
    /// Whether every shard contributed (the answer is the full one).
    pub fn is_complete(&self) -> bool {
        self.coverage.is_complete()
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn coverage_tracks_bits_across_word_boundaries() {
        let mut c = Coverage::none(70);
        assert_eq!(c.covered_count(), 0);
        assert!(!c.is_complete());
        for s in [0, 63, 64, 69] {
            c.set(s);
            assert!(c.covered(s));
        }
        assert_eq!(c.covered_count(), 4);
        assert_eq!(c.missing().len(), 66);
        for s in 0..70 {
            if ![0, 63, 64, 69].contains(&s) {
                c.set(s);
            }
        }
        assert!(c.is_complete());
        assert!(c.missing().is_empty());
    }

    #[test]
    fn default_options_are_the_fault_free_contract() {
        let opts = QueryOptions::default();
        assert_eq!(opts.deadline, None);
        assert_eq!(opts.retries, 0);
        assert_eq!(opts.strictness, Strictness::Strict);
        let tuned = QueryOptions::default()
            .with_deadline(Duration::from_millis(5))
            .with_retries(2)
            .degraded();
        assert_eq!(tuned.deadline, Some(Duration::from_millis(5)));
        assert_eq!(tuned.retries, 2);
        assert_eq!(tuned.strictness, Strictness::Degraded);
    }
}
