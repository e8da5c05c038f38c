//! A counting global allocator for the traced run.
//!
//! It forwards every call to the system allocator. Counting sits behind
//! one flag that the untraced run never sets, so an untraced allocation
//! pays a single relaxed load of a read-mostly byte.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

// Relaxed everywhere: these are statistics that publish no other data,
// and they are read only after the counted work has been joined.
static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated minus bytes freed since counting started. Memory
/// allocated before and freed after the start drives it negative.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE: AtomicI64 = AtomicI64::new(0);

pub struct CountingAlloc;

fn on_alloc(size: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(size as u64, Relaxed);
    let live = LIVE.fetch_add(size as i64, Relaxed) + size as i64;
    PEAK_LIVE.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counters touch no
// allocator state and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            on_alloc(layout.size());
        }
        // SAFETY: the caller's obligations are passed on as they came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            on_alloc(layout.size());
        }
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: as in `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            on_alloc(new_size);
        }
        // SAFETY: as in `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counter readings; `since` turns two of them into the cost of the
/// work in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Snapshot {
    pub allocs: u64,
    pub bytes: u64,
}

impl Snapshot {
    pub fn since(self, earlier: Snapshot) -> Snapshot {
        Snapshot {
            allocs: self.allocs - earlier.allocs,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

/// Zeroes the counters and starts counting.
pub fn start() {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK_LIVE.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
}

/// Stops counting and returns the highest `LIVE` seen since `start`, in
/// bytes (0 if memory only ever shrank).
pub fn stop() -> u64 {
    COUNTING.store(false, Relaxed);
    PEAK_LIVE.load(Relaxed).max(0) as u64
}

pub fn snapshot() -> Snapshot {
    Snapshot {
        allocs: ALLOCS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hint::black_box;

    /// One test owns the flag: the counters are process-wide, and the
    /// harness runs tests on parallel threads, whose allocations are
    /// counted too while the flag is up — hence `>=` below.
    #[test]
    fn counts_only_between_start_and_stop() {
        const MIB: usize = 1 << 20;

        start();
        let before = snapshot();
        let block = black_box(vec![1u8; MIB]);
        let grown = {
            let mut v = black_box(Vec::<u64>::with_capacity(4));
            v.extend(0..1024u64);
            v
        };
        let used = snapshot().since(before);
        drop(block);
        let peak = stop();

        assert!(used.allocs >= 2, "{used:?}");
        assert!(used.bytes >= (MIB + 1024 * 8) as u64, "{used:?}");
        assert!(peak >= MIB as u64, "peak {peak}");
        drop(grown);

        // Off again: nothing moves, whatever this or any other thread
        // allocates.
        let frozen = snapshot();
        drop(black_box(vec![0u8; MIB]));
        assert_eq!(snapshot(), frozen);
        assert_eq!(
            snapshot().since(frozen),
            Snapshot {
                allocs: 0,
                bytes: 0
            }
        );
    }
}
