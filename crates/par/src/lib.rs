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
//!    return results in input/chunk order, and [`par_fold`] folds each
//!    result in that order as soon as the ones before it are in, so
//!    floating-point summation chains are fixed.
//! 3. **Derived RNG streams** — [`derive_seed`] turns one master seed
//!    into an independent per-item stream, so randomized per-item work
//!    consumes no shared generator and is scheduling-invariant.
//!
//! Only *who* runs an item is left to scheduling: a parallel call spawns
//! scoped workers ([`std::thread::scope`]) that take items off a shared
//! atomic next-index beside the calling thread, and joins them before it
//! returns — at most one thread per two items, so a two-chunk scan runs
//! on the caller. That is sound *because* nothing order-sensitive
//! happens at scheduling granularity. A parallel call made from inside
//! another one (a K-means run inside a sweep cell) runs inline on the
//! thread that made it, so one call tree never runs on more than
//! [`max_threads`] threads.
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
use std::collections::VecDeque;
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

/// Applies `f` to every item on up to [`max_threads`] threads, returning
/// results in input order.
///
/// Workers self-schedule items off a shared atomic index, so long and
/// short items balance automatically; the output order is the input
/// order regardless. A thread is only worth its spawn if it gets at
/// least two items of its own, so at most `n / 2` threads run `n`
/// items. When that leaves one thread (one to three items, or one
/// resolved thread), or when called from inside another parallel call,
/// this is a plain sequential `map` on the calling thread — no spawns,
/// no locks. It is [`par_fold`] pushing each result onto a `Vec`.
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

/// [`par_map`] on at most `threads` threads, the caller's included, and
/// never more than half as many threads as items.
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
    let out = Vec::with_capacity(items.len());
    par_fold_with(items, threads, out, f, |out, result| out.push(result))
}

/// Applies `map` to every item on up to [`max_threads`] threads, as
/// [`par_map`] does, and folds each result into `acc` with `fold` as
/// soon as every result before it has been folded: the fold sees every
/// result exactly once, in input order, so an order-sensitive
/// accumulation comes out the same at any thread count.
///
/// The fold runs on whichever thread completes the next result in
/// order, never on two threads at once. A result that finishes ahead of
/// its turn waits in a reorder buffer, which is empty again when the
/// call returns; so what the call holds at once is the items being
/// mapped, the results that finished out of order, and `acc` — not
/// every result. It runs inline, as a plain sequential fold on the
/// calling thread, exactly when [`par_map`] would.
///
/// # Panics
///
/// Propagates a panic from `map` or `fold`, with its own payload.
///
/// # Examples
///
/// ```
/// // A running digest that depends on the order of its inputs.
/// let digest = ecg_par::par_fold((1u64..=100).collect(), 0u64, |x| x * x, |acc, sq| {
///     *acc = acc.wrapping_mul(31).wrapping_add(sq)
/// });
/// let sequential = (1u64..=100).fold(0u64, |acc, x| acc.wrapping_mul(31).wrapping_add(x * x));
/// assert_eq!(digest, sequential);
/// ```
pub fn par_fold<T, U, A, F, G>(items: Vec<T>, acc: A, map: F, fold: G) -> A
where
    T: Send,
    U: Send,
    A: Send,
    F: Fn(T) -> U + Sync,
    G: FnMut(&mut A, U) + Send,
{
    par_fold_with(items, max_threads(), acc, map, fold)
}

/// [`par_fold`] on at most `threads` threads, the caller's included, and
/// never more than half as many threads as items: at `threads == 1` it
/// is the sequential fold on the calling thread.
///
/// # Panics
///
/// Panics if `threads == 0`; re-raises a panic from `map` or `fold`
/// with its own payload.
pub fn par_fold_with<T, U, A, F, G>(
    items: Vec<T>,
    threads: usize,
    mut acc: A,
    map: F,
    mut fold: G,
) -> A
where
    T: Send,
    U: Send,
    A: Send,
    F: Fn(T) -> U + Sync,
    G: FnMut(&mut A, U) + Send,
{
    assert!(threads > 0, "need at least one thread");
    let n = items.len();
    let threads = threads.min(n / 2);
    if threads <= 1 || IN_CALL.get() {
        for item in items {
            fold(&mut acc, map(item));
        }
        return acc;
    }
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let order = Mutex::new(Reorder::default());
    // Locked only by the thread that set `Reorder::folding`.
    let folder = Mutex::new((acc, fold));

    // The caller and `threads - 1` scoped workers all run this
    // self-scheduling loop, each marked as inside the call so that a
    // parallel call made from an item (or from the fold) runs inline.
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
            let result = map(item);
            let mut pending = order.lock().expect("reorder lock");
            pending.park(i, result);
            if pending.folding {
                // The folding thread looks again before it stops.
                continue;
            }
            pending.folding = true;
            while let Some(ready) = pending.take_next() {
                drop(pending);
                let mut folder = folder.lock().expect("fold lock");
                let (acc, fold) = &mut *folder;
                fold(acc, ready);
                drop(folder);
                pending = order.lock().expect("reorder lock");
            }
            pending.folding = false;
        }
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
        worker();
        // A bare `scope` would re-panic with a generic message; joining
        // here keeps the first failed worker's own payload.
        for handle in handles {
            if let Err(payload) = handle.join() {
                resume_unwind(payload);
            }
        }
    });

    let order = order.into_inner().expect("reorder lock");
    assert!(
        order.next == n && order.early.is_empty(),
        "every result was folded"
    );
    folder.into_inner().expect("fold lock").0
}

/// The results of a [`par_fold_with`] call that finished ahead of their
/// turn, and whose turn it is.
struct Reorder<U> {
    /// Input index of the next result the fold takes.
    next: usize,
    /// Slot `k` holds result `next + k` once it has finished.
    early: VecDeque<Option<U>>,
    /// Set while a thread runs the fold.
    folding: bool,
}

impl<U> Default for Reorder<U> {
    fn default() -> Self {
        Reorder {
            next: 0,
            early: VecDeque::new(),
            folding: false,
        }
    }
}

impl<U> Reorder<U> {
    /// Parks result `i`, which has not been folded yet.
    fn park(&mut self, i: usize, result: U) {
        let slot = i - self.next;
        if self.early.len() <= slot {
            self.early.resize_with(slot + 1, || None);
        }
        self.early[slot] = Some(result);
    }

    /// The next result in input order, if it has finished.
    fn take_next(&mut self) -> Option<U> {
        let ready = self.early.front_mut()?.take()?;
        self.early.pop_front();
        self.next += 1;
        Some(ready)
    }
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
        for n in (1..=9).chain([503]) {
            let items: Vec<usize> = (0..n).collect();
            let seq = par_map_with(items.clone(), 1, |i| i * i);
            for threads in [2, 3, 8, 64] {
                assert_eq!(
                    par_map_with(items.clone(), threads, |i| i * i),
                    seq,
                    "n={n} threads={threads}"
                );
            }
        }
    }

    /// The threads that ran `n` items at `threads`, with every item
    /// waiting until a second thread has joined or a second has passed,
    /// so a call that may fan out does.
    fn threads_running(n: usize, threads: usize) -> HashSet<std::thread::ThreadId> {
        let ids = Mutex::new(HashSet::new());
        let started = std::time::Instant::now();
        par_map_with((0..n).collect::<Vec<usize>>(), threads, |_| {
            ids.lock().unwrap().insert(std::thread::current().id());
            while ids.lock().unwrap().len() < 2 && started.elapsed().as_secs() < 1 {
                std::thread::yield_now();
            }
        });
        ids.into_inner().unwrap()
    }

    #[test]
    fn a_thread_is_spawned_only_for_two_items_of_its_own() {
        let caller = std::thread::current().id();
        for n in [2, 3] {
            let ids = threads_running(n, 2);
            assert_eq!(ids, HashSet::from([caller]), "n={n} ran off the caller");
        }
        for n in [4, 5, 9] {
            assert_eq!(threads_running(n, 2).len(), 2, "n={n} did not fan out");
        }
        // Eight threads get four items apiece at most: 9 items run on 4.
        assert!(threads_running(9, 8).len() <= 4);
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

    /// Spins for `units` steps: items of uneven cost, so results finish
    /// out of input order when several threads run them.
    fn spin(units: u64) -> u64 {
        (0..units * 200).fold(units, |acc, x| std::hint::black_box(acc ^ x))
    }

    /// An order-sensitive digest step: any reordering changes the value.
    fn digest(acc: &mut u64, value: u64) {
        *acc = acc.wrapping_mul(0x100_0000_01B3).wrapping_add(value);
    }

    proptest::proptest! {
        #[test]
        fn par_fold_folds_in_input_order_like_the_sequential_fold(
            len in proptest::prop_oneof![0usize..3, 3usize..300],
            costs in proptest::collection::vec(0u64..40, 1..16),
        ) {
            let items: Vec<u64> = (0..len as u64).collect();
            let cost = |i: u64| costs[i as usize % costs.len()];
            let sequential = items.iter().fold((0u64, Vec::new()), |(mut acc, mut seen), &i| {
                digest(&mut acc, spin(cost(i)) ^ i);
                seen.push(i);
                (acc, seen)
            });
            for threads in [1, 2, 8] {
                let folded = par_fold_with(
                    items.clone(),
                    threads,
                    (0u64, Vec::new()),
                    |i| (i, spin(cost(i)) ^ i),
                    |(acc, seen), (i, value)| {
                        digest(acc, value);
                        seen.push(i);
                    },
                );
                proptest::prop_assert_eq!(&folded, &sequential, "threads={}", threads);
            }
        }
    }

    #[test]
    fn par_fold_at_the_default_thread_count_matches_par_map() {
        let items: Vec<u64> = (0..500).collect();
        let mapped = par_map(items.clone(), |i| spin(i % 7) ^ i);
        let folded = par_fold(items, Vec::new(), |i| spin(i % 7) ^ i, |out, v| out.push(v));
        assert_eq!(folded, mapped);
    }

    #[test]
    fn a_call_nested_in_par_fold_runs_inline() {
        let threads = 4;
        let inline = |label: &str| {
            let caller = std::thread::current().id();
            let ids = par_fold_with(
                (0..64).collect::<Vec<usize>>(),
                threads,
                HashSet::new(),
                |_| std::thread::current().id(),
                |ids, id| {
                    ids.insert(id);
                },
            );
            assert_eq!(ids, HashSet::from([caller]), "{label} fanned out");
        };
        par_fold_with(
            (0..16).collect::<Vec<usize>>(),
            threads,
            (),
            |_| inline("a call from map"),
            |(), ()| inline("a call from fold"),
        );
    }

    /// The payload `run` panicked with, as text.
    fn panic_message(run: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let payload = std::panic::catch_unwind(run).expect_err("the call panics");
        match payload.downcast::<String>() {
            Ok(text) => *text,
            Err(payload) => payload
                .downcast::<&str>()
                .map(|text| text.to_string())
                .expect("a text payload"),
        }
    }

    #[test]
    fn a_panic_in_map_or_fold_re_raises_with_its_own_payload() {
        for threads in [1, 4] {
            let from_map = panic_message(|| {
                par_fold_with(
                    (0..64).collect::<Vec<usize>>(),
                    threads,
                    0,
                    |i| {
                        assert!(i != 41, "map failed on item {i}");
                        i
                    },
                    |acc, i| *acc += i,
                );
            });
            assert_eq!(from_map, "map failed on item 41", "threads={threads}");
            let from_fold = panic_message(|| {
                par_fold_with(
                    (0..64).collect::<Vec<usize>>(),
                    threads,
                    0,
                    |i| i,
                    |acc, i| {
                        assert!(i != 17, "fold failed on result {i}");
                        *acc += i;
                    },
                );
            });
            assert_eq!(from_fold, "fold failed on result 17", "threads={threads}");
            assert!(!IN_CALL.get());
        }
    }

    /// A result that counts how many of its kind are alive.
    struct Counted<'a>(&'a AtomicU64);

    impl<'a> Counted<'a> {
        fn new(live: &'a AtomicU64) -> Self {
            live.fetch_add(1, Ordering::SeqCst);
            Counted(live)
        }
    }

    impl Drop for Counted<'_> {
        fn drop(&mut self) {
            self.0.fetch_sub(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn the_reorder_buffer_is_empty_when_the_call_returns() {
        let live = AtomicU64::new(0);
        for threads in [2, 8] {
            // Early items cost the most, so later ones finish first and
            // wait for their turn.
            let folds = par_fold_with(
                (0..200u64).collect::<Vec<_>>(),
                threads,
                0usize,
                |i| {
                    spin(200u64.saturating_sub(i * 4));
                    Counted::new(&live)
                },
                |folds, result| {
                    drop(result);
                    *folds += 1;
                },
            );
            assert_eq!(folds, 200, "threads={threads}");
            assert_eq!(live.load(Ordering::SeqCst), 0, "threads={threads}");
        }
        let mut buffer = Reorder::default();
        buffer.park(2, 'c');
        buffer.park(0, 'a');
        assert_eq!(buffer.take_next(), Some('a'));
        assert_eq!(buffer.take_next(), None);
        buffer.park(1, 'b');
        assert_eq!(
            (buffer.take_next(), buffer.take_next()),
            (Some('b'), Some('c'))
        );
        assert!(buffer.early.is_empty() && buffer.next == 3);
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
