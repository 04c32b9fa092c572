//! Admission control: a counting semaphore with bounded wait.
//!
//! A serving deployment must shed load it cannot absorb: past the point
//! where every core is busy, queued queries only grow tail latency. The
//! [`AdmissionGate`] caps in-flight queries at a configured number of
//! permits; a query that cannot get a permit within the bounded wait is
//! rejected with the typed [`ServeError::Overloaded`] instead of queueing
//! unboundedly. Counters ([`GateStats`]) surface next to the cache and
//! index statistics in the serving bench.
//!
//! The gate is plain `Mutex` + `Condvar` — no dependencies, and the
//! uncontended acquire is one lock round-trip, far below the cost of any
//! actual shard fan-out.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use super::ServeError;

/// Configuration of an [`AdmissionGate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum in-flight queries.
    pub permits: usize,
    /// How long an arriving query may wait for a permit before it is
    /// rejected ([`Duration::ZERO`] rejects immediately when full).
    pub max_wait: Duration,
}

impl AdmissionConfig {
    /// A gate with `permits` slots and no waiting (full ⇒ reject now).
    pub fn reject_when_full(permits: usize) -> Self {
        AdmissionConfig {
            permits,
            max_wait: Duration::ZERO,
        }
    }
}

/// Point-in-time admission counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GateStats {
    /// Queries that received a permit.
    pub admitted: u64,
    /// Queries rejected after the bounded wait (the `Overloaded` count).
    pub rejected: u64,
    /// Queries currently holding a permit.
    pub in_flight: usize,
    /// The gate's permit capacity.
    pub permits: usize,
}

/// A counting semaphore with bounded wait and typed rejection.
#[derive(Debug)]
pub struct AdmissionGate {
    permits: usize,
    max_wait: Duration,
    in_flight: Mutex<usize>,
    freed: Condvar,
    admitted: AtomicU64,
    rejected: AtomicU64,
}

impl AdmissionGate {
    /// Builds a gate from its configuration.
    ///
    /// # Panics
    /// If `permits == 0` (a gate that can never admit is a
    /// misconfiguration, not a policy).
    pub fn new(cfg: AdmissionConfig) -> Self {
        assert!(cfg.permits > 0, "admission gate needs at least one permit");
        AdmissionGate {
            permits: cfg.permits,
            max_wait: cfg.max_wait,
            in_flight: Mutex::new(0),
            freed: Condvar::new(),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// Acquires a permit, waiting at most the configured bound; the
    /// permit is released when the returned guard drops.
    ///
    /// # Errors
    /// [`ServeError::Overloaded`] when the gate stays at capacity for the
    /// whole bounded wait.
    pub fn admit(&self) -> Result<Permit<'_>, ServeError> {
        let start = Instant::now();
        let mut in_flight = self.in_flight.lock().expect("admission gate lock");
        while *in_flight >= self.permits {
            let waited = start.elapsed();
            if waited >= self.max_wait {
                drop(in_flight);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded);
            }
            let (guard, timeout) = self
                .freed
                .wait_timeout(in_flight, self.max_wait - waited)
                .expect("admission gate lock");
            in_flight = guard;
            if timeout.timed_out() && *in_flight >= self.permits {
                drop(in_flight);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(ServeError::Overloaded);
            }
        }
        *in_flight += 1;
        drop(in_flight);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        Ok(Permit { gate: self })
    }

    /// Point-in-time counters.
    pub fn stats(&self) -> GateStats {
        GateStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            in_flight: *self.in_flight.lock().expect("admission gate lock"),
            permits: self.permits,
        }
    }
}

/// An admission permit; dropping it frees the slot and wakes one waiter.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut in_flight = self.gate.in_flight.lock().expect("admission gate lock");
        *in_flight = in_flight.saturating_sub(1);
        drop(in_flight);
        self.gate.freed.notify_one();
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn admits_up_to_capacity_then_rejects() {
        let gate = AdmissionGate::new(AdmissionConfig::reject_when_full(2));
        let a = gate.admit().expect("first");
        let b = gate.admit().expect("second");
        assert_eq!(gate.admit().unwrap_err(), ServeError::Overloaded);
        let stats = gate.stats();
        assert_eq!((stats.admitted, stats.rejected, stats.in_flight), (2, 1, 2));
        drop(a);
        let c = gate.admit().expect("slot freed");
        drop(b);
        drop(c);
        assert_eq!(gate.stats().in_flight, 0);
    }

    #[test]
    fn bounded_wait_picks_up_a_freed_permit() {
        use std::sync::Arc;
        let gate = Arc::new(AdmissionGate::new(AdmissionConfig {
            permits: 1,
            max_wait: Duration::from_secs(5),
        }));
        let held = gate.admit().expect("capacity 1");
        let waiter = {
            let gate = gate.clone();
            std::thread::spawn(move || gate.admit().map(drop).is_ok())
        };
        // Give the waiter time to block, then free the permit.
        std::thread::sleep(Duration::from_millis(30));
        drop(held);
        assert!(waiter.join().expect("no panic"), "waiter must be admitted");
        assert_eq!(gate.stats().rejected, 0);
    }

    #[test]
    #[should_panic(expected = "at least one permit")]
    fn zero_permits_is_a_misconfiguration() {
        let _ = AdmissionGate::new(AdmissionConfig::reject_when_full(0));
    }
}
