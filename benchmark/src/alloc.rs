//! A counting global allocator: the stand-in for the paper's "packet
//! copying". Every heap allocation the process makes — on any thread —
//! bumps two counters; the windows read them before and after.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Forwards to the system allocator and counts calls and requested bytes.
/// A `realloc` counts as one allocation of its new size.
pub struct Counting {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl Counting {
    pub const fn new() -> Self {
        Counting {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// `(allocations, bytes requested)` since process start.
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.allocs.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }

    fn count(&self, size: usize) {
        // Relaxed: the counters publish no other data.
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters never touch the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(new_size);
        // SAFETY: as for `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
pub static GLOBAL: Counting = Counting::new();

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bookkeeping_counts_calls_and_requested_bytes() {
        // A private instance: the process-wide one is shared with every
        // other test thread.
        let a = Counting::new();
        let layout = Layout::from_size_align(100, 8).unwrap();
        // SAFETY: non-zero-size layout; each pointer is freed once with
        // the layout it currently has.
        unsafe {
            let p = a.alloc(layout);
            assert!(!p.is_null());
            assert_eq!(a.snapshot(), (1, 100));
            let p = a.realloc(p, layout, 300);
            assert_eq!(a.snapshot(), (2, 400));
            a.dealloc(p, Layout::from_size_align(300, 8).unwrap());
            assert_eq!(a.snapshot(), (2, 400), "frees are not counted");
            let z = a.alloc_zeroed(layout);
            assert_eq!(*z, 0);
            assert_eq!(a.snapshot(), (3, 500));
            a.dealloc(z, layout);
        }
    }

    #[test]
    fn global_counter_sees_a_vec() {
        let (allocs, bytes) = GLOBAL.snapshot();
        let v = std::hint::black_box(vec![7u8; 4096]);
        let (allocs2, bytes2) = GLOBAL.snapshot();
        assert!(allocs2 > allocs && bytes2 >= bytes + 4096);
        drop(v);
    }
}
