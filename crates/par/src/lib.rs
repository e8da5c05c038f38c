//! Deterministic data-parallel kernels.
//!
//! Every hot loop in this workspace that fans out across threads goes
//! through this crate, and all of it obeys one contract: **results are
//! identical at any thread count**. The ingredients are
//!
//! 1. **Fixed chunk boundaries** — work is split at positions derived
//!    from the input length only ([`DEFAULT_CHUNK`]), never from the
//!    thread count, so any order-sensitive per-chunk value (an f64
//!    partial sum, a derived RNG stream) is computed over the same
//!    index ranges whether one thread runs or sixteen do.
//! 2. **Input-order reduction** — [`par_map`] and [`par_chunk_map`]
//!    return results in input/chunk order; callers fold partials in
//!    that order, so floating-point summation chains are fixed.
//! 3. **Derived RNG streams** — [`derive_seed`] turns one master seed
//!    into an independent per-item stream, so randomized per-item work
//!    consumes no shared generator and is scheduling-invariant.
//!
//! Only *who* runs an item is left to scheduling: a parallel call spawns
//! scoped workers ([`std::thread::scope`]) that take items off a shared
//! atomic next-index beside the calling thread, and joins them before it
//! returns. That is sound *because* nothing order-sensitive happens at
//! scheduling granularity. A parallel call made from inside another one
//! (a K-means run inside a sweep cell) runs inline on the thread that
//! made it, so one call tree never runs on more than [`max_threads`]
//! threads.
//!
//! Thread count resolution, in precedence order: the programmatic
//! [`set_max_threads`] override (used by benchmark sweeps), the
//! `ECG_THREADS` environment variable, then
//! [`std::thread::available_parallelism`]. When one thread is resolved,
//! every entry point degrades to a plain sequential loop with no thread
//! spawns and no synchronization.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

use std::cell::Cell;
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Fixed work-chunk length for [`chunk_ranges`] / [`par_chunk_map`].
///
/// Chunk boundaries depend only on the input length, never on the
/// thread count — the cornerstone of thread-count-invariant partial
/// reductions.
pub const DEFAULT_CHUNK: usize = 256;

/// Programmatic thread-count override; `0` means "not set".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Overrides the thread count for every kernel in this crate,
/// process-wide, taking precedence over `ECG_THREADS` and the host
/// parallelism. `None` removes the override.
///
/// Benchmark sweeps use this to measure 1→P scaling in one process.
/// Because every kernel is thread-count-invariant, flipping the
/// override concurrently with running kernels cannot change any
/// result, only its timing.
pub fn set_max_threads(threads: Option<usize>) {
    THREAD_OVERRIDE.store(threads.map_or(0, |t| t.max(1)), Ordering::SeqCst);
}

/// Maximum worker threads a kernel may use: the [`set_max_threads`]
/// override if set, else a positive integer `ECG_THREADS` environment
/// variable, else the host's available parallelism.
///
/// # Examples
///
/// ```
/// ecg_par::set_max_threads(Some(3));
/// assert_eq!(ecg_par::max_threads(), 3);
/// ecg_par::set_max_threads(None);
/// assert!(ecg_par::max_threads() >= 1);
/// ```
pub fn max_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(raw) = std::env::var("ECG_THREADS") {
        if let Ok(t) = raw.trim().parse::<usize>() {
            if t >= 1 {
                return t;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

thread_local! {
    /// Set while this thread runs the items of a parallel call.
    static IN_CALL: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as inside a parallel call until dropped,
/// unwinding included.
struct InCall;

impl InCall {
    fn enter() -> Self {
        IN_CALL.set(true);
        InCall
    }
}

impl Drop for InCall {
    fn drop(&mut self) {
        IN_CALL.set(false);
    }
}

/// Applies `f` to every item on up to [`max_threads`] threads (never
/// more than there are items), returning results in input order.
///
/// Workers self-schedule items off a shared atomic index, so long and
/// short items balance automatically; the output order is the input
/// order regardless. With one resolved thread, or when called from
/// inside another parallel call, this is a plain sequential `map` on
/// the calling thread — no spawns, no locks.
///
/// # Panics
///
/// Propagates a panic from any worker.
///
/// # Examples
///
/// ```
/// let squares = ecg_par::par_map(vec![1u64, 2, 3, 4], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn par_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    par_map_with(items, max_threads(), f)
}

/// [`par_map`] on at most `threads` threads, the caller's included:
/// never more threads than items, as the extra ones would idle.
///
/// # Panics
///
/// Panics if `threads == 0`; re-raises a worker's panic with its own
/// payload.
fn par_map_with<T, U, F>(items: Vec<T>, threads: usize, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    assert!(threads > 0, "need at least one thread");
    let n = items.len();
    if threads == 1 || n <= 1 || IN_CALL.get() {
        return items.into_iter().map(f).collect();
    }
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<U>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    // The caller and `threads - 1` scoped workers all run this
    // self-scheduling loop, each marked as inside the call so that a
    // parallel call made from an item runs inline.
    let worker = || {
        let _in_call = InCall::enter();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let item = work[i]
                .lock()
                .expect("work slot lock")
                .take()
                .expect("each slot is taken once");
            let result = f(item);
            *out[i].lock().expect("out slot lock") = Some(result);
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads.min(n)).map(|_| scope.spawn(worker)).collect();
        worker();
        // A bare `scope` would re-panic with a generic message; joining
        // here keeps the first failed worker's own payload.
        for handle in handles {
            if let Err(payload) = handle.join() {
                resume_unwind(payload);
            }
        }
    });

    out.into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("out slot lock")
                .expect("every slot was filled")
        })
        .collect()
}

/// Splits `0..n` into consecutive ranges of [`DEFAULT_CHUNK`] (the last
/// may be shorter). The boundaries depend only on `n`.
pub fn chunk_ranges(n: usize) -> Vec<Range<usize>> {
    let chunk = DEFAULT_CHUNK;
    (0..n.div_ceil(chunk))
        .map(|c| c * chunk..((c + 1) * chunk).min(n))
        .collect()
}

/// Applies `f` to every fixed chunk of `0..n` in parallel, returning
/// per-chunk results **in chunk order** — the map half of an ordered
/// map-reduce. Folding the returned partials left-to-right gives a
/// reduction whose floating-point association is independent of the
/// thread count (it depends only on `n` via the chunk boundaries).
///
/// The chunk is also the one sequential cutoff: below [`DEFAULT_CHUNK`]
/// items there is one chunk, and it runs on the calling thread.
///
/// # Examples
///
/// ```
/// // An ordered chunked sum: same result at any thread count.
/// let partials = ecg_par::par_chunk_map(1000, |r| r.map(|i| i as f64).sum::<f64>());
/// let total: f64 = partials.into_iter().sum();
/// assert_eq!(total, 499_500.0);
/// ```
pub fn par_chunk_map<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(Range<usize>) -> U + Sync,
{
    par_map(chunk_ranges(n), f)
}

/// Derives an independent per-item RNG seed from a master seed using a
/// SplitMix64 finalizer — the same mixer `StdRng::seed_from_u64` uses
/// to expand seeds, so derived streams are as decorrelated as directly
/// seeded ones.
///
/// Parallel randomized kernels draw **one** value from the caller's
/// generator (the master seed), then give item `i` its own
/// `StdRng::seed_from_u64(derive_seed(master, i))` stream: per-item
/// output depends only on `(master, i)`, never on which thread ran the
/// item or in what order.
pub fn derive_seed(master: u64, index: u64) -> u64 {
    // Golden-ratio stream separation, then a SplitMix64 finalizer.
    let mut z = master.wrapping_add((index.wrapping_add(1)).wrapping_mul(0x9E3779B97F4A7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn par_map_preserves_order_and_covers_all_items() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(items, |i| i * 2);
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn par_map_runs_closures_once_each() {
        let calls = AtomicU64::new(0);
        let out = par_map((0..257).collect::<Vec<usize>>(), |i| {
            calls.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(calls.load(Ordering::Relaxed), 257);
        assert_eq!(out, (0..257).collect::<Vec<usize>>());
    }

    #[test]
    fn par_map_handles_empty_and_singleton() {
        assert_eq!(par_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let items: Vec<usize> = (0..503).collect();
        let seq = par_map_with(items.clone(), 1, |i| i * i);
        for threads in [2, 3, 8, 64] {
            assert_eq!(
                par_map_with(items.clone(), threads, |i| i * i),
                seq,
                "threads={threads}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = par_map_with(vec![1], 0, |x: i32| x);
    }

    #[test]
    fn chunk_ranges_tile_the_input_exactly() {
        for n in [0usize, 1, 255, 256, 257, 1000, 4096] {
            let ranges = chunk_ranges(n);
            let mut next = 0usize;
            for r in &ranges {
                assert_eq!(r.start, next, "n={n}");
                assert!(r.end > r.start, "n={n}");
                assert!(r.end - r.start <= DEFAULT_CHUNK, "n={n}");
                next = r.end;
            }
            assert_eq!(next, n, "n={n}");
        }
    }

    #[test]
    fn chunk_boundaries_ignore_thread_count() {
        // The ranges are a pure function of n — no thread-count input
        // exists. Changing the override must not change them.
        let a = chunk_ranges(1027);
        set_max_threads(Some(7));
        let b = chunk_ranges(1027);
        set_max_threads(None);
        assert_eq!(a, b);
    }

    #[test]
    fn ordered_chunked_f64_sum_is_thread_count_invariant() {
        // Pathological summands where association visibly matters.
        let value = |i: usize| ((i as f64) * 1e10).sin() * 1e6 + 1e-6;
        let sum_with = |threads: usize| -> f64 {
            set_max_threads(Some(threads));
            let partials = par_chunk_map(10_000, |r| r.map(value).sum::<f64>());
            set_max_threads(None);
            partials.into_iter().sum()
        };
        let t1 = sum_with(1);
        for t in [2, 4, 16] {
            let tn = sum_with(t);
            assert_eq!(t1.to_bits(), tn.to_bits(), "threads={t}");
        }
    }

    #[test]
    fn override_takes_precedence_and_restores() {
        // Single test mutates the global override so assertions cannot
        // race each other across the parallel test harness.
        set_max_threads(Some(5));
        assert_eq!(max_threads(), 5);
        set_max_threads(Some(0)); // clamps to 1, still an override
        assert_eq!(max_threads(), 1);
        set_max_threads(None);
        assert!(max_threads() >= 1);
    }

    #[test]
    fn derived_seeds_are_distinct_and_stable() {
        let mut seen = HashSet::new();
        for master in [0u64, 1, 0xDEAD_BEEF] {
            for i in 0..10_000u64 {
                assert!(seen.insert(derive_seed(master, i)), "collision at {i}");
            }
        }
        // Pure function: same inputs, same seed.
        assert_eq!(derive_seed(42, 7), derive_seed(42, 7));
        assert_ne!(derive_seed(42, 7), derive_seed(42, 8));
        assert_ne!(derive_seed(42, 7), derive_seed(43, 7));
    }

    #[test]
    fn nested_parallel_calls_do_not_deadlock() {
        let out = par_map_with((0..8).collect::<Vec<usize>>(), 4, |outer| {
            let inner = par_map_with((0..100).collect::<Vec<usize>>(), 4, move |i| i + outer);
            inner.into_iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..8)
            .map(|outer| (0..100).map(|i| i + outer).sum())
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn nested_calls_stay_within_the_outer_thread_count() {
        // Each inner call runs inline on the thread that made it, so the
        // whole tree runs on the outer call's threads and no more.
        let threads = 4;
        let ids = Mutex::new(HashSet::new());
        par_map_with((0..16).collect::<Vec<usize>>(), threads, |_| {
            par_map_with((0..64).collect::<Vec<usize>>(), threads, |_| {
                ids.lock().unwrap().insert(std::thread::current().id());
                std::thread::yield_now();
            })
        });
        let distinct = ids.lock().unwrap().len();
        assert!((1..=threads).contains(&distinct), "{distinct} threads");
    }

    #[test]
    #[should_panic(expected = "intentional kernel panic")]
    fn worker_panic_propagates_to_the_caller() {
        let _ = par_map_with((0..64).collect::<Vec<usize>>(), 4, |i| {
            if i == 33 {
                panic!("intentional kernel panic");
            }
            i
        });
    }

    #[test]
    fn the_next_call_works_after_a_panic() {
        let poisoned = std::panic::catch_unwind(|| {
            par_map_with((0..64).collect::<Vec<usize>>(), 4, |i| {
                assert!(i != 10, "poison");
                i
            })
        });
        assert!(poisoned.is_err());
        // The caller's in-call mark unwound with the panic: this call
        // fans out again instead of running inline.
        assert!(!IN_CALL.get());
        let out = par_map_with((0..300).collect::<Vec<usize>>(), 4, |i| i + 1);
        assert_eq!(out, (1..=300).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_calls_from_many_threads_complete() {
        std::thread::scope(|scope| {
            for t in 0..6usize {
                scope.spawn(move || {
                    let out = par_map_with((0..400).collect::<Vec<usize>>(), 3, move |i| i * t);
                    assert_eq!(out, (0..400).map(|i| i * t).collect::<Vec<_>>());
                });
            }
        });
    }
}
