//! A counting allocator for the tests that pin a heap-request budget.
//!
//! Not a test itself: each budget test lives alone in its binary,
//! includes this file by `#[path]` and installs [`Counting`] as its
//! `#[global_allocator]`. A `realloc` counts as one request of its new
//! size, as in the ledger's allocator (`benchmark/src/alloc.rs`).
//!
//! Two counts: [`during`], the calling thread's own, which the test
//! harness's other threads cannot disturb; and [`in_process`] /
//! [`in_process_requests`], for a threaded cell whose work happens
//! elsewhere.

#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

thread_local! {
    static THREAD: Cell<Requests> = const { Cell::new(Requests { count: 0, bytes: 0 }) };
}

static PROCESS: AtomicU64 = AtomicU64::new(0);
static PROCESS_BYTES: AtomicU64 = AtomicU64::new(0);

/// Heap requests made and bytes requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Requests {
    pub count: u64,
    pub bytes: u64,
}

/// Requests made by the calling thread while `f` runs.
pub fn during<R>(f: impl FnOnce() -> R) -> (Requests, R) {
    let before = THREAD.with(Cell::get);
    let out = f();
    let after = THREAD.with(Cell::get);
    let requests = Requests {
        count: after.count - before.count,
        bytes: after.bytes - before.bytes,
    };
    (requests, out)
}

/// Requests made by every thread since the process started.
pub fn in_process() -> u64 {
    PROCESS.load(Ordering::Relaxed)
}

/// Requests made and bytes requested by every thread since the process
/// started.
pub fn in_process_requests() -> Requests {
    Requests {
        count: PROCESS.load(Ordering::Relaxed),
        bytes: PROCESS_BYTES.load(Ordering::Relaxed),
    }
}

pub struct Counting;

fn count(size: usize) {
    // Relaxed: the counter publishes no other data.
    PROCESS.fetch_add(1, Ordering::Relaxed);
    PROCESS_BYTES.fetch_add(size as u64, Ordering::Relaxed);
    THREAD.with(|t| {
        let now = t.get();
        t.set(Requests {
            count: now.count + 1,
            bytes: now.bytes + size as u64,
        });
    });
}

// SAFETY: every method forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters are an atomic and a
// const-initialised thread-local without a destructor, so touching them
// never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as for `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}
