//! Live-heap accounting for the traced run's `engine.rss_delta_mb`.
//!
//! Resident-set readings cannot attribute memory to one prepare: the
//! allocator keeps freed pages from earlier phases and hands them out
//! again, so the RSS barely moves. This wrapper around the system
//! allocator counts the bytes allocated minus the bytes freed while
//! counting is switched on; off, each allocation pays one relaxed load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

/// The system allocator plus an on/off live-byte counter.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static LIVE: AtomicI64 = AtomicI64::new(0);

fn count(delta: i64) {
    if ON.load(Ordering::Relaxed) {
        LIVE.fetch_add(delta, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged and returns its result; the counter only observes sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System::alloc`'s.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            count(layout.size() as i64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator — that is, by
        // `System` — with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as i64));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's guarantees on
        // `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as i64 - layout.size() as i64);
        }
        p
    }
}

/// Net heap bytes `f` left allocated, in MiB, with its result.
pub fn retained_mb<R>(f: impl FnOnce() -> R) -> (R, f64) {
    LIVE.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::Relaxed);
    let r = f();
    ON.store(false, Ordering::Relaxed);
    (r, LIVE.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0))
}
