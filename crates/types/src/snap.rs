//! Copy-on-write snapshots for read-mostly state.
//!
//! [`SnapshotCell`] holds an `Arc<T>` behind one mutex. A reader locks,
//! clones the `Arc` and unlocks; a writer swaps in a new `Arc` under
//! the lock. It is the hot-path primitive behind the bus's route table
//! and the tracer handles: `publish` does one [`SnapshotCell::load`]
//! where it used to take three mutexes.
//!
//! The lock is held only for a reference-count bump or a pointer swap,
//! never while a snapshot is built or dropped — except by
//! [`SnapshotCell::rcu`], whose `update` runs under it so that
//! concurrent read-modify-writes serialise. A snapshot replaced by a
//! writer is dropped after the lock is released, so a `Drop` may load
//! the cell again. A panic under the lock cannot corrupt the `Arc`, so
//! a poisoned lock is recovered, not propagated.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A cell whose current value is an immutable snapshot behind an `Arc`,
/// readable under a short lock and replaceable atomically.
///
/// ```
/// use std::sync::Arc;
/// use smc_types::SnapshotCell;
///
/// let cell = SnapshotCell::new(Arc::new(vec![1, 2, 3]));
/// assert_eq!(*cell.load(), vec![1, 2, 3]);
/// cell.store(Arc::new(vec![4]));
/// assert_eq!(*cell.load(), vec![4]);
/// ```
pub struct SnapshotCell<T> {
    current: Mutex<Arc<T>>,
}

impl<T> SnapshotCell<T> {
    /// Creates a cell holding `value`.
    pub fn new(value: Arc<T>) -> Self {
        SnapshotCell {
            current: Mutex::new(value),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Arc<T>> {
        self.current.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the current snapshot: one lock, one reference-count bump.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.lock())
    }

    /// Replaces the snapshot. Readers that raced the swap keep whichever
    /// value they loaded; subsequent loads see `value`.
    pub fn store(&self, value: Arc<T>) {
        let old = std::mem::replace(&mut *self.lock(), value);
        // The guard is gone: the old snapshot drops outside the lock.
        drop(old);
    }

    /// Applies `update` to the current snapshot and stores the result,
    /// atomically with respect to other writers. `update` runs under
    /// the lock, so it must not touch this cell.
    pub fn rcu(&self, update: impl FnOnce(&T) -> T) {
        let mut current = self.lock();
        let next = Arc::new(update(&current));
        let old = std::mem::replace(&mut *current, next);
        drop(current);
        drop(old);
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for SnapshotCell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("SnapshotCell").field(&self.load()).finish()
    }
}

impl<T: Default> Default for SnapshotCell<T> {
    fn default() -> Self {
        SnapshotCell::new(Arc::new(T::default()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering::SeqCst};

    #[test]
    fn load_store_round_trip() {
        let cell = SnapshotCell::new(Arc::new(1u32));
        assert_eq!(*cell.load(), 1);
        cell.store(Arc::new(2));
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn rcu_updates_in_place() {
        let cell = SnapshotCell::new(Arc::new(10u64));
        cell.rcu(|v| v + 5);
        assert_eq!(*cell.load(), 15);
    }

    #[test]
    fn old_snapshots_survive_while_held() {
        let cell = SnapshotCell::new(Arc::new("first".to_string()));
        let held = cell.load();
        cell.store(Arc::new("second".to_string()));
        assert_eq!(*held, "first");
        assert_eq!(*cell.load(), "second");
    }

    /// Every snapshot the cell ever held is dropped exactly once — no
    /// leak on swap, no double free on drop.
    #[test]
    fn snapshots_are_reclaimed() {
        static LIVE: AtomicU64 = AtomicU64::new(0);
        struct Counted;
        impl Counted {
            fn new() -> Self {
                LIVE.fetch_add(1, SeqCst);
                Counted
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                LIVE.fetch_sub(1, SeqCst);
            }
        }
        {
            let cell = SnapshotCell::new(Arc::new(Counted::new()));
            for _ in 0..100 {
                cell.store(Arc::new(Counted::new()));
            }
            assert_eq!(LIVE.load(SeqCst), 1, "only the current snapshot lives");
        }
        assert_eq!(LIVE.load(SeqCst), 0, "dropping the cell frees the last");
    }

    /// A panicking `update` poisons the lock; the cell recovers it, still
    /// holds the snapshot from before the `rcu` and takes new writes.
    #[test]
    fn a_panicking_rcu_leaves_the_old_snapshot() {
        let cell = SnapshotCell::new(Arc::new(7u64));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cell.rcu(|_| panic!("update failed"));
        }));
        assert!(panicked.is_err());
        assert!(cell.current.is_poisoned());
        assert_eq!(*cell.load(), 7);
        cell.rcu(|v| v + 1);
        assert_eq!(*cell.load(), 8);
        cell.store(Arc::new(9));
        assert_eq!(*cell.load(), 9);
    }

    /// A replaced snapshot is dropped after the lock is released, so a
    /// `Drop` that loads the same cell does not deadlock the writer.
    #[test]
    fn a_snapshot_may_load_its_cell_while_dropping() {
        struct Reloads(std::sync::Weak<SnapshotCell<Reloads>>, Arc<AtomicU64>);
        impl Drop for Reloads {
            fn drop(&mut self) {
                if let Some(cell) = self.0.upgrade() {
                    drop(cell.load());
                    self.1.fetch_add(1, SeqCst);
                }
            }
        }
        let reloads = Arc::new(AtomicU64::new(0));
        let cell = Arc::new(SnapshotCell::new(Arc::new(Reloads(
            std::sync::Weak::new(),
            Arc::clone(&reloads),
        ))));
        let (done, finished) = std::sync::mpsc::channel();
        let writer = {
            let cell = Arc::clone(&cell);
            let reloads = Arc::clone(&reloads);
            std::thread::spawn(move || {
                for _ in 0..3 {
                    let next = Reloads(Arc::downgrade(&cell), Arc::clone(&reloads));
                    cell.store(Arc::new(next));
                }
                done.send(()).unwrap();
            })
        };
        finished
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("store deadlocked dropping a snapshot that loads its cell");
        writer.join().unwrap();
        assert_eq!(reloads.load(SeqCst), 2, "two replaced snapshots reloaded");
    }

    /// Concurrent readers and a writer never observe a torn or freed
    /// value. (A correctness smoke test.)
    #[test]
    fn concurrent_load_store_stress() {
        let cell = Arc::new(SnapshotCell::new(Arc::new(vec![0u64; 16])));
        let live = Arc::new(AtomicU64::new(4));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let cell = Arc::clone(&cell);
            let live = Arc::clone(&live);
            handles.push(std::thread::spawn(move || {
                let mut last_seen = 0u64;
                for _ in 0..20_000 {
                    let snap = cell.load();
                    // Every snapshot is internally consistent: all
                    // elements carry the same generation number…
                    let first = snap[0];
                    assert!(snap.iter().all(|&v| v == first), "torn snapshot");
                    // …and generations are observed monotonically.
                    assert!(first >= last_seen, "snapshot went backwards");
                    last_seen = first;
                }
                live.fetch_sub(1, SeqCst);
            }));
        }
        // Keep swapping until every reader has done all its loads, so
        // loads genuinely race stores.
        let mut generation = 0u64;
        while live.load(SeqCst) != 0 {
            generation += 1;
            cell.store(Arc::new(vec![generation; 16]));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(cell.load()[0], generation);
    }
}
