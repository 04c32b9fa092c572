//! The one error type for rejected input.

use std::fmt;

/// Typed rejection of input that does not fit the technique's model or
/// the collection's shape (paper §2: MUNICH takes repeated observations,
/// every technique takes equal-length series). Returned by
/// [`crate::Collection::try_new`],
/// [`crate::QueryEngine::try_prepare_with`],
/// [`crate::ShardedEngine::try_prepare_with`],
/// [`crate::ShardedEngine::try_update_series`] and the MUNICH `try_*`
/// pair methods; their panicking twins raise the same messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum InputError {
    /// MUNICH needs repeated observations, but the collection has none.
    MissingMultiObs,
    /// A series' length differs from the one it is compared with or
    /// replaces (the first series of a MUNICH pair, a collection's first
    /// member, or the collection member being replaced).
    LengthMismatch {
        /// Length of the reference series.
        expected: usize,
        /// Length the other series brought.
        got: usize,
    },
    /// One of the series covers no timestamps.
    EmptySeries,
    /// The distance threshold is negative or NaN.
    InvalidEpsilon(f64),
    /// The probability threshold is outside `[0, 1]` or NaN.
    InvalidTau(f64),
    /// The replaced index is not a member of the collection.
    IndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The collection size it had to be below.
        len: usize,
    },
    /// The replacement's clean and uncertain sides disagree in length.
    CleanUncertainMismatch {
        /// Length of the replacement's clean series.
        clean: usize,
        /// Length of the replacement's uncertain series.
        uncertain: usize,
    },
    /// Multi-observation data must be supplied iff the collection has it.
    MultiPresenceMismatch {
        /// Whether the task holds multi-observation data.
        task_has_multi: bool,
    },
    /// A multi-observation series' length differs from its member's
    /// uncertain series, or from the one it replaces.
    MultiLengthMismatch {
        /// Length of the member's series.
        expected: usize,
        /// Length the multi-observation series brought.
        got: usize,
    },
    /// A collection's multi-observation series are not one per member.
    MultiCountMismatch {
        /// Number of members.
        expected: usize,
        /// Number of multi-observation series.
        got: usize,
    },
}

impl fmt::Display for InputError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingMultiObs => {
                write!(f, "MUNICH requires multi-observation data in the task")
            }
            Self::LengthMismatch { expected, got } => {
                write!(f, "series length mismatch: expected {expected}, got {got}")
            }
            Self::EmptySeries => write!(f, "MUNICH requires non-empty series"),
            Self::InvalidEpsilon(e) => {
                write!(f, "distance threshold must be non-negative (got {e})")
            }
            Self::InvalidTau(t) => write!(f, "τ must be in [0, 1] (got {t})"),
            Self::IndexOutOfRange { index, len } => {
                write!(f, "replacement index {index} out of range (len {len})")
            }
            Self::CleanUncertainMismatch { clean, uncertain } => write!(
                f,
                "clean/uncertain series length mismatch: clean {clean}, uncertain {uncertain}"
            ),
            Self::MultiPresenceMismatch { task_has_multi } => {
                if *task_has_multi {
                    write!(
                        f,
                        "task carries multi-observation data but replacement has none"
                    )
                } else {
                    write!(
                        f,
                        "replacement carries multi-observation data but task has none"
                    )
                }
            }
            Self::MultiLengthMismatch { expected, got } => write!(
                f,
                "multi-obs series length mismatch: expected {expected}, got {got}"
            ),
            Self::MultiCountMismatch { expected, got } => write!(
                f,
                "multi-obs collection size mismatch: expected {expected}, got {got}"
            ),
        }
    }
}

impl std::error::Error for InputError {}

#[cfg(test)]
mod unit {
    use super::*;
    use crate::matching::TechniqueKind;
    use crate::serving::{ServeError, ShardFault};

    /// Every rejection an operator can see keeps its wording. The one
    /// deliberate change is the merged `LengthMismatch`, which replaced
    /// "MUNICH requires equal-length series (got 3 vs 4)" and
    /// "replacement series length mismatch: expected 3, got 4".
    #[test]
    fn every_error_message_keeps_its_wording() {
        let input = [
            (
                InputError::MissingMultiObs,
                "MUNICH requires multi-observation data in the task",
            ),
            (
                InputError::LengthMismatch {
                    expected: 3,
                    got: 4,
                },
                "series length mismatch: expected 3, got 4",
            ),
            (InputError::EmptySeries, "MUNICH requires non-empty series"),
            (
                InputError::InvalidEpsilon(-2.5),
                "distance threshold must be non-negative (got -2.5)",
            ),
            (InputError::InvalidTau(1.5), "τ must be in [0, 1] (got 1.5)"),
            (
                InputError::IndexOutOfRange { index: 99, len: 12 },
                "replacement index 99 out of range (len 12)",
            ),
            (
                InputError::CleanUncertainMismatch {
                    clean: 8,
                    uncertain: 7,
                },
                "clean/uncertain series length mismatch: clean 8, uncertain 7",
            ),
            (
                InputError::MultiPresenceMismatch {
                    task_has_multi: true,
                },
                "task carries multi-observation data but replacement has none",
            ),
            (
                InputError::MultiPresenceMismatch {
                    task_has_multi: false,
                },
                "replacement carries multi-observation data but task has none",
            ),
            (
                InputError::MultiLengthMismatch {
                    expected: 10,
                    got: 9,
                },
                "multi-obs series length mismatch: expected 10, got 9",
            ),
            (
                InputError::MultiCountMismatch {
                    expected: 12,
                    got: 11,
                },
                "multi-obs collection size mismatch: expected 12, got 11",
            ),
        ];
        for (e, want) in input {
            assert_eq!(e.to_string(), want, "{e:?}");
        }
        let shard = |cause| ServeError::Shard { shard: 3, cause };
        let serve = [
            (ServeError::Timeout, "query deadline expired"),
            (
                ServeError::Overloaded,
                "admission gate at capacity: query rejected",
            ),
            (
                shard(ShardFault::Panic("boom".into())),
                "shard 3: evaluation panicked: boom",
            ),
            (
                shard(ShardFault::DegenerateInput),
                "shard 3: degenerate input rejected at the shard boundary",
            ),
            (
                shard(ShardFault::Expired),
                "shard 3: deadline expired before the shard finished",
            ),
            (
                ServeError::NotDistanceRanked(TechniqueKind::Munich),
                "MUNICH answers probabilistic range queries, not distance rankings; \
                 top-k by distance is undefined",
            ),
        ];
        for (e, want) in serve {
            assert_eq!(e.to_string(), want, "{e:?}");
        }
    }
}
