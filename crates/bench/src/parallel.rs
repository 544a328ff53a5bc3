//! Parallel sweep runner for the figure binaries.
//!
//! The exhibit sweeps (per-`t` decode/lifetime points, per-workload
//! lifetime comparisons) are embarrassingly parallel: every point is an
//! independent simulation with its own seed. [`par_map`] fans the
//! points across OS threads with `std::thread::scope` — no external
//! dependencies — while preserving input order in the results.
//!
//! Workers claim `(index, item)` pairs from one shared queue and keep
//! their `(index, result)` pairs to themselves; the pairs are merged
//! into input order after the scope joins. The queue lock is held for
//! one `next()` per item, and every item is an independent simulation,
//! so sweeps never serialize on it.

use std::sync::Mutex;

/// Default worker count: the machine's available parallelism, 1 if it
/// cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Maps `f` over `items` on up to `threads` worker threads, returning
/// results in input order.
///
/// Work is distributed dynamically (each worker claims the next pending
/// item from a shared queue), so uneven per-item cost — e.g.
/// short-lived vs long-lived workloads in a lifetime sweep — balances
/// automatically. With `threads <= 1` or a single item, runs inline
/// with no thread overhead.
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
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let (queue, f) = (&queue, &f);
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        // The guard drops before `f` runs, so a
                        // panicking item cannot poison the queue.
                        let claimed = queue.lock().expect("queue lock is never poisoned").next();
                        let Some((i, item)) = claimed else {
                            break done;
                        };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        let mut done = Vec::with_capacity(n);
        for worker in workers {
            match worker.join() {
                Ok(part) => done.extend(part),
                // The scope joins the remaining workers before this
                // leaves it.
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        done
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
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
    #[should_panic(expected = "item 5 failed")]
    fn propagates_a_worker_panic() {
        par_map((0..16u32).collect(), 4, |x| {
            assert!(x != 5, "item {x} failed");
            x
        });
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
