//! Cooperative cancellation: query deadlines checked at loop
//! checkpoints.
//!
//! A [`Deadline`] is an optional wall-clock cutoff a long evaluation
//! polls at coarse intervals — between candidates in the value scans,
//! between leaves on the indexed paths, between candidate refinements in
//! the MUNICH pipeline. Expiry surfaces as the typed [`DeadlineExpired`]
//! and *never* changes a computed value: a checkpoint either lets the
//! loop continue exactly as before or abandons the whole evaluation, so
//! every answer that is returned stays bit-identical to the
//! deadline-free path.
//!
//! The unarmed deadline ([`Deadline::NONE`]) reduces every checkpoint to
//! one predictable branch on an `Option` — the fault-free hot path pays
//! effectively nothing, which is what lets the default serving entry
//! points keep their throughput (guarded by the `serving_throughput`
//! scan-phase regression bound).

use std::time::{Duration, Instant};

/// How many scan iterations run between two deadline polls on the
/// per-candidate checkpoints (`Instant::now` is a vDSO call, cheap but
/// not free next to a short early-abandoned kernel).
pub(crate) const CHECK_INTERVAL: usize = 64;

/// An optional evaluation cutoff, polled cooperatively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Deadline {
    at: Option<Instant>,
}

impl Deadline {
    /// The unarmed deadline: never expires, checkpoints cost one branch.
    pub(crate) const NONE: Deadline = Deadline { at: None };

    /// A deadline `budget` from now.
    pub(crate) fn within(budget: Duration) -> Self {
        Deadline {
            at: Instant::now().checked_add(budget),
        }
    }

    /// Whether this deadline can ever expire.
    pub(crate) fn is_armed(&self) -> bool {
        self.at.is_some()
    }

    /// Whether the cutoff has passed. The unarmed deadline never
    /// expires.
    pub(crate) fn expired(&self) -> bool {
        match self.at {
            Some(at) => Instant::now() >= at,
            None => false,
        }
    }

    /// Time left before expiry: `None` when unarmed, zero once expired.
    pub(crate) fn remaining(&self) -> Option<Duration> {
        self.at
            .map(|at| at.saturating_duration_since(Instant::now()))
    }

    /// Checkpoint for counted loops: polls the clock only every
    /// [`CHECK_INTERVAL`]-th iteration (and only when armed), returning
    /// the typed expiry so scan loops can `?` their way out.
    #[inline]
    pub(crate) fn checkpoint(&self, iteration: usize) -> Result<(), DeadlineExpired> {
        if self.at.is_some() && iteration.is_multiple_of(CHECK_INTERVAL) && self.expired() {
            Err(DeadlineExpired)
        } else {
            Ok(())
        }
    }

    /// Uncounted checkpoint for coarse-grained loops (one poll per call).
    #[inline]
    pub(crate) fn check(&self) -> Result<(), DeadlineExpired> {
        if self.expired() {
            Err(DeadlineExpired)
        } else {
            Ok(())
        }
    }
}

/// Typed abandonment of an evaluation whose [`Deadline`] passed. The
/// evaluation produced no answer (never a partial or altered one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DeadlineExpired;

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn unarmed_never_expires() {
        let d = Deadline::NONE;
        assert!(!d.is_armed());
        assert!(!d.expired());
        assert_eq!(d.remaining(), None);
        for i in 0..1000 {
            assert_eq!(d.checkpoint(i), Ok(()));
        }
        assert_eq!(d.check(), Ok(()));
    }

    #[test]
    fn armed_deadline_expires() {
        let d = Deadline::within(Duration::ZERO);
        assert!(d.is_armed());
        assert!(d.expired());
        assert_eq!(d.check(), Err(DeadlineExpired));
        // Counted checkpoints only poll on interval boundaries.
        assert_eq!(d.checkpoint(1), Ok(()));
        assert_eq!(d.checkpoint(CHECK_INTERVAL), Err(DeadlineExpired));
    }

    #[test]
    fn generous_deadline_does_not_expire() {
        let d = Deadline::within(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining().expect("armed") > Duration::from_secs(3000));
    }
}
