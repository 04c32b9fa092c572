//! A process-wide worker pool for embarrassingly parallel scans.
//!
//! Lives in uts-core so the query engine's MUNICH refinement can fan
//! surviving candidates over all cores; the experiment runner re-exports
//! it for its figure sweeps, and the serving layer fans queries across
//! shard engines through the panic-isolating [`try_parallel_map`].
//!
//! # The pool
//!
//! The first call over four or more items starts the pool: one helper
//! thread per core beyond the first, asked of the OS once per process.
//! The helpers live until the process exits. A call posts its job,
//! drains items on the calling thread alongside whichever helpers join
//! it, then retracts the job and waits only for the helpers that
//! joined. No call ever waits for a job to be picked up, so calls nest
//! freely: a shard fan-out whose items run MUNICH's own `parallel_map`
//! on a helper thread finishes with fewer helpers, never deadlocks.
//! Calls over fewer than four items, and every call on a single-core
//! host, run sequentially on the calling thread.
//!
//! # Panic behaviour
//!
//! Each item's outcome lands in a slot of its own, and a panic inside
//! the mapper is caught per item, so one item's panic cannot poison a
//! sibling's result or stop a helper.
//!
//! * [`parallel_map`] re-raises the panic of the lowest panicking index
//!   in the calling thread, with its original payload — a panicking
//!   mapper is a caller bug, exactly as in a sequential `map`.
//! * [`try_parallel_map`] isolates panics per *item*: every item maps to
//!   `Ok(value)` or a [`WorkerPanic`] carrying the payload's message,
//!   and all non-panicking items still return their values. This is what
//!   lets the serving layer turn a crashing shard kernel into a typed
//!   per-shard error instead of tearing down the whole query.

use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A mapped item whose evaluation panicked, captured by
/// [`try_parallel_map`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the item whose mapping panicked.
    pub index: usize,
    /// Human-readable panic message (the payload's `&str`/`String`
    /// content, or a placeholder for non-string payloads).
    pub message: String,
}

impl std::fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "worker panicked on item {}: {}",
            self.index, self.message
        )
    }
}

impl std::error::Error for WorkerPanic {}

/// Best-effort extraction of the conventional string payloads a panic
/// carries (`panic!("…")` yields `&str` or `String`).
pub(crate) fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

type Payload = Box<dyn Any + Send>;

/// Locks `m` whether or not it is poisoned: every critical section in
/// this module is a push, a `retain`, a slot store or a counter step,
/// and leaves the data valid even if a panic interrupts it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide pool, started by the first call to [`pool`].
struct Pool {
    /// Jobs posted and not yet retracted; idle helpers join the newest.
    queue: Mutex<Vec<Posted>>,
    /// Signalled once per wanted helper when a job is posted.
    posted: Condvar,
    /// Helper threads running: 0 on a single-core host.
    helpers: usize,
}

/// A posted job: the poster's drain loop with its borrow's lifetime
/// erased (see [`Pool::run`]), and the count of helpers running it.
struct Posted {
    work: &'static (dyn Fn() + Sync),
    inside: Arc<Inside>,
}

/// How many helpers are inside one job's drain loop.
#[derive(Default)]
struct Inside {
    count: Mutex<usize>,
    /// Signalled when `count` returns to 0.
    left: Condvar,
}

/// The pool, started on first use with one helper per core beyond the
/// calling thread's.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    POOL.get_or_init(|| {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        // Each helper blocks in `pool()` until this initialiser returns.
        // Helpers run until the process exits, so their handles are
        // dropped; `help` catches every panic, so none is lost with them.
        let helpers = (1..cores)
            .filter(|i| {
                std::thread::Builder::new()
                    .name(format!("uts-pool-{i}"))
                    .spawn(|| pool().help())
                    .is_ok()
            })
            .count();
        Pool {
            queue: Mutex::default(),
            posted: Condvar::new(),
            helpers,
        }
    })
}

impl Pool {
    /// A helper's loop: join the newest posted job, run its drain loop
    /// until every item is claimed, retract the job, leave it.
    fn help(&self) {
        let mut queue = lock(&self.queue);
        loop {
            let Some(job) = queue.last() else {
                queue = self
                    .posted
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            // Counted in under the queue lock: the poster's retraction
            // then either precedes this join or waits for it to leave.
            *lock(&job.inside.count) += 1;
            let inside = Arc::clone(&job.inside);
            let work = job.work;
            drop(queue);
            // The drain loop catches panics per item; this catch keeps
            // the helper alive, and the count below exact, regardless.
            let _ = catch_unwind(AssertUnwindSafe(work));
            queue = lock(&self.queue);
            queue.retain(|p| !Arc::ptr_eq(&p.inside, &inside));
            let mut count = lock(&inside.count);
            *count -= 1;
            if *count == 0 {
                inside.left.notify_all();
            }
        }
    }

    /// Runs `work` on the calling thread and on up to `helpers` pool
    /// threads at once, and returns once every thread running it has
    /// returned from it. `work` must return only when no work is left,
    /// so that a helper joining late finds nothing to do.
    fn run(&self, work: &(dyn Fn() + Sync), helpers: usize) {
        /// Retracts the job and waits out the helpers inside it, on
        /// every exit path from [`Pool::run`], unwinding included.
        struct Retract<'p> {
            pool: &'p Pool,
            inside: Arc<Inside>,
        }
        impl Drop for Retract<'_> {
            fn drop(&mut self) {
                lock(&self.pool.queue).retain(|p| !Arc::ptr_eq(&p.inside, &self.inside));
                let mut count = lock(&self.inside.count);
                while *count > 0 {
                    count = self
                        .inside
                        .left
                        .wait(count)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            }
        }

        let helpers = helpers.min(self.helpers);
        if helpers == 0 {
            return work();
        }
        let inside = Arc::<Inside>::default();
        let _retract = Retract {
            pool: self,
            inside: Arc::clone(&inside),
        };
        // SAFETY: the erased reference is only read by helpers, and only
        // while `work` is still borrowed by this frame:
        // (1) a helper copies it out of the queue and counts itself into
        //     `inside` while holding the queue lock;
        // (2) `_retract` removes the job from the queue under that same
        //     lock, so no helper can copy it afterwards, and then blocks
        //     until `inside` is back to 0 — until every helper that
        //     copied it has returned from it and never calls it again;
        // (3) `_retract` is dropped on every exit from this frame,
        //     unwinding included, before the borrow of `work` ends.
        // Nothing else stores the reference, so it is never read after
        // `work`'s referent may be gone.
        let erased =
            unsafe { std::mem::transmute::<&(dyn Fn() + Sync), &'static (dyn Fn() + Sync)>(work) };
        lock(&self.queue).push(Posted {
            work: erased,
            inside,
        });
        for _ in 0..helpers {
            self.posted.notify_one();
        }
        work();
    }
}

/// Order-preserving scatter-gather over the pool: threads claim indices
/// from a shared counter and store each item's outcome in that item's
/// own slot, so no thread ever waits on another's lock. Yields, in item
/// order, `Ok` or the payload of the panic the item raised.
fn scatter_gather<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> impl Iterator<Item = Result<R, Payload>> {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, Payload>>>> =
        items.iter().map(|_| Mutex::new(None)).collect();
    let drain = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(item) = items.get(i) else { break };
        let outcome = catch_unwind(AssertUnwindSafe(|| f(item)));
        *lock(&slots[i]) = Some(outcome);
    };
    match items.len() {
        0..=3 => drain(),
        n => pool().run(&drain, n - 1),
    }
    slots.into_iter().map(|slot| {
        slot.into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .expect("the drain loops claimed every index")
    })
}

/// Parallel map over a slice on the process-wide pool; preserves order.
/// Runs sequentially for tiny inputs and on single-core hosts.
///
/// A panic inside `f` is re-raised in the calling thread with its
/// original payload (lowest panicking index wins) once every item has
/// run, so sibling items complete unaffected and no partially-poisoned
/// state survives. Callers that need to *survive* a panicking item use
/// [`try_parallel_map`].
pub fn parallel_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    scatter_gather(items, f)
        .map(|r| r.unwrap_or_else(|payload| std::panic::resume_unwind(payload)))
        .collect()
}

/// Panic-isolating twin of [`parallel_map`]: every item independently
/// maps to `Ok(f(item))` or — when `f` panicked on it — a typed
/// [`WorkerPanic`] carrying the panic message. Order is preserved and
/// non-panicking items always return their values.
pub fn try_parallel_map<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<Result<R, WorkerPanic>> {
    scatter_gather(items, f)
        .enumerate()
        .map(|(index, r)| {
            r.map_err(|payload| WorkerPanic {
                index,
                message: panic_message(payload.as_ref()),
            })
        })
        .collect()
}

#[cfg(test)]
mod unit {
    use super::*;
    use std::collections::HashSet;
    use std::thread::ThreadId;
    use std::time::Duration;

    #[test]
    fn preserves_order_and_covers_every_item() {
        let items: Vec<usize> = (0..257).collect();
        let out = parallel_map(&items, |&v| v * 2);
        assert_eq!(out, items.iter().map(|&v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn handles_tiny_and_empty_inputs() {
        let empty: Vec<u8> = vec![];
        assert!(parallel_map(&empty, |&v| v).is_empty());
        assert_eq!(parallel_map(&[7u8], |&v| v + 1), vec![8]);
    }

    #[test]
    fn try_map_isolates_panicking_items() {
        let items: Vec<usize> = (0..64).collect();
        let out = try_parallel_map(&items, |&v| {
            if v % 13 == 5 {
                panic!("boom at {v}");
            }
            v * 3
        });
        assert_eq!(out.len(), items.len());
        for (i, r) in out.iter().enumerate() {
            if i % 13 == 5 {
                let e = r.as_ref().expect_err("panicking item");
                assert_eq!(e.index, i);
                assert_eq!(e.message, format!("boom at {i}"));
            } else {
                assert_eq!(*r.as_ref().expect("healthy item"), i * 3);
            }
        }
    }

    #[test]
    fn try_map_sequential_path_isolates_too() {
        // Below the parallel threshold the same contract must hold.
        let out = try_parallel_map(&[1usize, 2, 3], |&v| {
            if v == 2 {
                panic!("two");
            }
            v
        });
        assert!(out[0].is_ok() && out[1].is_err() && out[2].is_ok());
    }

    #[test]
    fn parallel_map_reraises_with_original_payload() {
        let items: Vec<usize> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            parallel_map(&items, |&v| {
                if v == 11 || v == 40 {
                    panic!("original payload at {v}");
                }
                v
            })
        });
        let payload = caught.expect_err("panic must propagate");
        assert_eq!(panic_message(payload.as_ref()), "original payload at 11");
    }

    #[test]
    fn nested_calls_complete_in_order() {
        let outer: Vec<usize> = (0..8).collect();
        let out = try_parallel_map(&outer, |&o| {
            let inner: Vec<usize> = (0..16).collect();
            parallel_map(&inner, |&i| {
                let deeper: Vec<usize> = (0..4).collect();
                parallel_map(&deeper, |&d| o * 1000 + i * 10 + d)
            })
        });
        for (o, r) in out.into_iter().enumerate() {
            let expected: Vec<Vec<usize>> = (0..16)
                .map(|i| (0..4).map(|d| o * 1000 + i * 10 + d).collect())
                .collect();
            assert_eq!(r.expect("no item panics"), expected);
        }
    }

    #[test]
    fn concurrent_callers_get_their_own_results() {
        let callers: Vec<_> = (0..8u64)
            .map(|c| {
                std::thread::spawn(move || {
                    for call in 0..200u64 {
                        let items: Vec<u64> = (0..4 + (call % 9)).collect();
                        let out = parallel_map(&items, |&v| c * 1_000_000 + call * 100 + v);
                        let expected: Vec<u64> = items
                            .iter()
                            .map(|&v| c * 1_000_000 + call * 100 + v)
                            .collect();
                        assert_eq!(out, expected, "caller {c}, call {call}");
                    }
                })
            })
            .collect();
        for h in callers {
            h.join().expect("caller thread completes");
        }
    }

    /// Maps eight items and returns the threads that ran them. Every
    /// item waits (up to 10 s) until items have run on two threads, so
    /// once the calling thread blocks in its first item, the others can
    /// only be run by a helper.
    fn threads_running_items() -> HashSet<ThreadId> {
        let seen = Mutex::new(HashSet::new());
        let two_seen = Condvar::new();
        let items: Vec<usize> = (0..8).collect();
        parallel_map(&items, |_| {
            let mut s = lock(&seen);
            s.insert(std::thread::current().id());
            two_seen.notify_all();
            let _ = two_seen
                .wait_timeout_while(s, Duration::from_secs(10), |s| s.len() < 2)
                .unwrap_or_else(PoisonError::into_inner);
        });
        seen.into_inner().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn helpers_survive_panicking_items() {
        let items: Vec<usize> = (0..32).collect();
        for round in 0..20 {
            let out = try_parallel_map(&items, |&v| {
                if (v + round) % 3 == 0 {
                    panic!("round {round} item {v}");
                }
                v
            });
            for (v, r) in out.iter().enumerate() {
                assert_eq!(r.is_err(), (v + round) % 3 == 0);
            }
            let reraised = catch_unwind(|| parallel_map(&items, |&v| assert_ne!(v, round)));
            assert!(reraised.is_err());
        }
        let out = parallel_map(&items, |&v| v + 1);
        assert_eq!(out, (1..=32).collect::<Vec<_>>());
        if pool().helpers > 0 {
            let ran = threads_running_items();
            assert!(
                ran.iter().any(|&t| t != std::thread::current().id()),
                "a helper must still run items after panics"
            );
        }
    }
}
