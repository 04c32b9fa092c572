//! The collection an engine serves: the uncertain series every query is
//! defined over (paper §2, Eq. 2), with no ground truth.

use uts_uncertain::{MultiObsSeries, UncertainSeries};

use crate::error::InputError;

/// The series a [`crate::QueryEngine`] or [`crate::ShardedEngine`]
/// serves: the observed uncertain series and, for MUNICH, one
/// multi-observation series per member. Clean series belong to the
/// evaluation protocol ([`crate::MatchingTask`]), not here.
#[derive(Debug, Clone)]
pub struct Collection {
    uncertain: Vec<UncertainSeries>,
    multi: Option<Vec<MultiObsSeries>>,
}

impl Collection {
    /// Builds a collection over `uncertain` and, optionally, the members'
    /// multi-observation series, checking their shapes once.
    ///
    /// # Errors
    /// [`InputError::LengthMismatch`] when a member's length differs from
    /// the first member's, [`InputError::MultiCountMismatch`] when
    /// `multi` holds a different number of series,
    /// [`InputError::MultiLengthMismatch`] when a member's
    /// multi-observation series differs in length from its uncertain one.
    pub fn try_new(
        uncertain: Vec<UncertainSeries>,
        multi: Option<Vec<MultiObsSeries>>,
    ) -> Result<Self, InputError> {
        if let Some(first) = uncertain.first() {
            if let Some(u) = uncertain.iter().find(|u| u.len() != first.len()) {
                return Err(InputError::LengthMismatch {
                    expected: first.len(),
                    got: u.len(),
                });
            }
        }
        if let Some(m) = &multi {
            if m.len() != uncertain.len() {
                return Err(InputError::MultiCountMismatch {
                    expected: uncertain.len(),
                    got: m.len(),
                });
            }
            if let Some((u, mo)) = uncertain.iter().zip(m).find(|(u, mo)| u.len() != mo.len()) {
                return Err(InputError::MultiLengthMismatch {
                    expected: u.len(),
                    got: mo.len(),
                });
            }
        }
        Ok(Self { uncertain, multi })
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.uncertain.len()
    }

    /// Whether the collection has no members.
    pub fn is_empty(&self) -> bool {
        self.uncertain.is_empty()
    }

    /// The observed uncertain series.
    pub fn uncertain(&self) -> &[UncertainSeries] {
        &self.uncertain
    }

    /// MUNICH's multi-observation views, when present.
    pub fn multi(&self) -> Option<&[MultiObsSeries]> {
        self.multi.as_deref()
    }

    /// Shard-local view for the serving layer: the members at `indices`
    /// (ascending global order), cloned into a standalone collection.
    pub(crate) fn subset(&self, indices: &[usize]) -> Collection {
        debug_assert!(
            indices.windows(2).all(|w| w[0] < w[1]),
            "shard members must be ascending"
        );
        Collection {
            uncertain: indices.iter().map(|&i| self.uncertain[i].clone()).collect(),
            multi: self
                .multi
                .as_ref()
                .map(|m| indices.iter().map(|&i| m[i].clone()).collect()),
        }
    }

    /// Replaces member `i` (range-checked by the caller) in place — the
    /// serving layer's mutation primitive — and returns the observed
    /// series it replaced. The replacement must match the member's
    /// length, and bring a multi-observation series of that length iff
    /// the collection carries them; otherwise it is a typed
    /// [`InputError`] and the collection is untouched.
    pub(crate) fn try_replace(
        &mut self,
        i: usize,
        uncertain: UncertainSeries,
        multi: Option<MultiObsSeries>,
    ) -> Result<UncertainSeries, InputError> {
        let expected = self.uncertain[i].len();
        if uncertain.len() != expected {
            return Err(InputError::LengthMismatch {
                expected,
                got: uncertain.len(),
            });
        }
        match (self.multi.as_mut(), multi) {
            (Some(m), Some(new_m)) => {
                if new_m.len() != m[i].len() {
                    return Err(InputError::MultiLengthMismatch {
                        expected: m[i].len(),
                        got: new_m.len(),
                    });
                }
                m[i] = new_m;
            }
            (None, None) => {}
            (m, _) => {
                return Err(InputError::MultiPresenceMismatch {
                    task_has_multi: m.is_some(),
                })
            }
        }
        Ok(std::mem::replace(&mut self.uncertain[i], uncertain))
    }
}

#[cfg(test)]
mod unit {
    use super::*;
    use uts_uncertain::{ErrorFamily, PointError};

    fn members(n: usize, len: usize) -> Vec<UncertainSeries> {
        let e = PointError::new(ErrorFamily::Normal, 0.2);
        (0..n)
            .map(|i| UncertainSeries::new(vec![i as f64; len], vec![e; len]))
            .collect()
    }

    fn multi(n: usize, len: usize) -> Vec<MultiObsSeries> {
        (0..n)
            .map(|i| MultiObsSeries::from_rows(vec![vec![i as f64; 2]; len]))
            .collect()
    }

    /// Any member count is a collection, empty included; multi-observation
    /// rows must come one per member, each as long as its member.
    #[test]
    fn try_new_checks_multi_shapes() {
        assert!(Collection::try_new(Vec::new(), None).unwrap().is_empty());
        let c = Collection::try_new(members(3, 4), Some(multi(3, 4))).unwrap();
        assert_eq!((c.len(), c.multi().map(<[_]>::len)), (3, Some(3)));

        let e = Collection::try_new(members(3, 4), Some(multi(2, 4))).unwrap_err();
        assert_eq!(
            e,
            InputError::MultiCountMismatch {
                expected: 3,
                got: 2
            }
        );

        let mut rows = multi(3, 4);
        rows[1] = MultiObsSeries::from_rows(vec![vec![0.0; 2]; 5]);
        let e = Collection::try_new(members(3, 4), Some(rows)).unwrap_err();
        assert_eq!(
            e,
            InputError::MultiLengthMismatch {
                expected: 4,
                got: 5
            }
        );
    }

    /// Members must share one length: a ragged collection is rejected
    /// against the first member's length, with or without multi rows.
    #[test]
    fn try_new_rejects_ragged_members() {
        let mut uncertain = members(4, 8);
        uncertain[1] = members(1, 6).remove(0);
        let want = InputError::LengthMismatch {
            expected: 8,
            got: 6,
        };
        let e = Collection::try_new(uncertain.clone(), None).unwrap_err();
        assert_eq!(e, want);
        let e = Collection::try_new(uncertain, Some(multi(4, 8))).unwrap_err();
        assert_eq!(e, want);
    }
}
