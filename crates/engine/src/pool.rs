//! Scoped thread pool primitives for the bench sweep runners, plus the
//! engine's default worker count.
//!
//! [`par_map`] fans independent work items across OS threads with
//! `std::thread::scope` — no external dependencies — while preserving
//! input order in the results. The bench crate re-exports it (as
//! `flashcache_bench::parallel`) for its embarrassingly parallel figure
//! sweeps, where every point is an independent simulation with its own
//! seed.
//!
//! Distribution is lock-free: workers claim indices from one atomic
//! counter and write results into pre-split per-index slots, so figure
//! sweeps never serialize on a queue or results mutex.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Default worker count: the machine's available parallelism, 1 if it
/// cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Per-index slots shared across workers without a lock. Safe because
/// the claim counter hands each index to exactly one worker, and the
/// scope join orders every slot write before the final collection.
struct Slots<V>(Vec<UnsafeCell<Option<V>>>);

// SAFETY: disjoint-index access only (see above).
unsafe impl<V: Send> Sync for Slots<V> {}

/// Maps `f` over `items` on up to `threads` worker threads, returning
/// results in input order.
///
/// Work is distributed dynamically (each worker claims the next pending
/// index from an atomic counter), so uneven per-item cost — e.g.
/// short-lived vs long-lived workloads in a lifetime sweep — balances
/// automatically, and neither the claim nor the result write takes a
/// lock. With `threads <= 1` or a single item, runs inline with no
/// thread overhead.
///
/// # Panics
///
/// Propagates a panic from any worker once all threads are joined.
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.max(1).min(n);
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let items: Slots<T> = Slots(
        items
            .into_iter()
            .map(|t| UnsafeCell::new(Some(t)))
            .collect(),
    );
    let results: Slots<R> = Slots((0..n).map(|_| UnsafeCell::new(None)).collect());
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        // Shared by reference to the whole `Slots` wrappers (not their
        // inner vectors), which is what carries the `Sync` promise.
        let (items, results, next, f) = (&items, &results, &next, &f);
        for _ in 0..threads {
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                // SAFETY: the fetch_add above hands index `i` to this
                // worker exclusively, so no other thread touches either
                // slot `i`.
                let item = unsafe { (*items.0[i].get()).take() }.expect("item claimed once");
                let r = f(item);
                unsafe { *results.0[i].get() = Some(r) };
            });
        }
    });
    results
        .0
        .into_iter()
        .map(|c| c.into_inner().expect("every item was processed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_maps_all_items() {
        let items: Vec<u64> = (0..100).collect();
        let expected: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 7, 64] {
            let got = par_map(items.clone(), threads, |x| x * x);
            assert_eq!(got, expected, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single() {
        assert_eq!(par_map(Vec::<u32>::new(), 8, |x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![41u32], 8, |x| x + 1), vec![42]);
    }

    #[test]
    fn uneven_work_balances() {
        // Items with wildly different costs still come back in order.
        let items: Vec<u64> = (0..16).collect();
        let got = par_map(items, 4, |x| {
            let spins = if x % 4 == 0 { 200_000 } else { 10 };
            let mut acc = x;
            for i in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            (x, acc)
        });
        for (i, (x, _)) in got.iter().enumerate() {
            assert_eq!(*x, i as u64);
        }
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
