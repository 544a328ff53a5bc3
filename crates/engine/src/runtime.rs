//! The engine's executor: one fork-join over `std::sync::mpsc`.
//!
//! [`ShardedCache::submit_ops`](crate::ShardedCache::submit_ops) routes a
//! whole op stream into per-shard groups before anything runs and
//! returns only after every outcome is back, so a shard's share of a
//! batch is one [`Job`]: the shard itself and its [`Group`], moved by
//! value to the thread that services it and moved back filled. Ownership
//! transfer is the synchronisation — while a job is away nothing else can
//! name its shard, and when `submit_ops` returns every shard is back in
//! the engine's `Vec`.
//!
//! Each worker services a contiguous run of shards. Worker 0 is the
//! submitter, whose run never leaves the `Vec` and is serviced in place
//! while the [`Helper`] threads service theirs; one worker is the
//! zero-helper case of the same code. Every thread services a group
//! through [`service`], so per-shard op order and arithmetic do not
//! depend on the worker count.
//!
//! # Panic hygiene
//!
//! [`service`] runs a group under `catch_unwind`: a panicking shard is
//! poisoned (later groups degrade without touching it), every degraded
//! operation is counted in its group, and a degraded disk-bound outcome
//! pads the group to one outcome per op — a batch always completes
//! whole.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use flashcache_core::{AccessOutcome, CacheOp, CacheOutcome, FlashCache};

/// One shard's share of a batch plus the panic state that outlives it.
#[derive(Debug, Default)]
pub(crate) struct Group {
    /// The shard's ops, in stream order.
    pub(crate) ops: Vec<CacheOp>,
    /// The stream index of each of `ops`; empty when one shard owns the
    /// whole stream.
    pub(crate) owners: Vec<u32>,
    /// One outcome per op, in the same order.
    pub(crate) outs: Vec<CacheOutcome>,
    /// Set when a group on this shard panicked; later groups degrade
    /// without touching the (possibly inconsistent) shard.
    poisoned: bool,
    /// Operations degraded on this shard so far.
    pub(crate) degraded: u64,
}

/// A shard and its group, travelling together.
pub(crate) type Job = (FlashCache, Group);

/// Runs `group.ops` through `cache` in order as one pipelined batch into
/// `group.outs`. The batch executes sequentially, so a panic at op `k`
/// leaves exactly `k` outcomes; those are reported as-is and the rest
/// degrade to the disk-bound outcome `FlashCache::op` also reports for
/// an internal error.
pub(crate) fn service(cache: &mut FlashCache, group: &mut Group) {
    let Group {
        ops,
        outs,
        poisoned,
        degraded: lost_ops,
        ..
    } = group;
    outs.clear();
    if !*poisoned {
        *poisoned = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            if let Some(k) = ops.iter().position(|op| op.lba >= tests::PANIC_FLOOR) {
                cache.op_batch_into(&ops[..k], outs);
                panic!("injected shard panic");
            }
            cache.op_batch_into(ops, outs)
        }))
        .is_err();
    }
    *lost_ops += (ops.len() - outs.len()) as u64;
    let access = AccessOutcome::to_disk();
    outs.resize(ops.len(), CacheOutcome { access });
}

/// A long-lived helper thread and the two channels its jobs travel on.
#[derive(Debug)]
pub(crate) struct Helper {
    jobs: Sender<Job>,
    finished: Receiver<Job>,
    thread: JoinHandle<()>,
}

impl Helper {
    /// Spawns worker thread `w`, which services every job it is sent and
    /// sends it back, in order, until the job channel closes.
    pub(crate) fn spawn(w: usize) -> Helper {
        let (jobs, inbox) = channel::<Job>();
        let (outbox, finished) = channel::<Job>();
        let thread = std::thread::Builder::new()
            .name(format!("flashcache-shard-worker-{w}"))
            .spawn(move || {
                for (mut cache, mut group) in inbox {
                    service(&mut cache, &mut group);
                    if outbox.send((cache, group)).is_err() {
                        break;
                    }
                }
            })
            .expect("spawn shard worker");
        Helper {
            jobs,
            finished,
            thread,
        }
    }

    /// Hands `job` to the helper.
    pub(crate) fn send(&self, job: Job) {
        self.jobs
            .send(job)
            .expect("a helper runs until its job channel closes");
    }

    /// Takes back the oldest job sent and not yet received, serviced.
    pub(crate) fn recv(&self) -> Job {
        self.finished
            .recv()
            .expect("a helper returns every job it is sent")
    }

    /// Closes the job channel, which ends the thread's loop, and joins
    /// it.
    pub(crate) fn join(self) {
        drop(self.jobs);
        // Called from `Drop`, which must not panic; `service` catches
        // shard panics, so the thread has nothing to report.
        let _ = self.thread.join();
    }
}

#[cfg(test)]
mod tests {
    use flashcache_core::{AccessOutcome, CacheOp, FlashCacheConfig};
    use nand_flash::{FlashConfig, FlashGeometry};

    use crate::sharded::MIN_FORK_OPS;
    use crate::{EngineConfig, ShardedCache};

    /// Injection point: `service` panics when a group reaches a page at
    /// or above this one. No other in-crate test goes near it.
    pub(super) const PANIC_FLOOR: u64 = u64::MAX - 64;

    fn engine(workers: usize) -> ShardedCache {
        let config = FlashCacheConfig::builder()
            .flash(FlashConfig {
                geometry: FlashGeometry {
                    blocks: 16,
                    pages_per_block: 8,
                },
                ..FlashConfig::default()
            })
            .build()
            .expect("valid config");
        let engine = EngineConfig {
            workers: Some(workers),
        };
        ShardedCache::with_engine_config(config, 2, engine).expect("valid engine")
    }

    /// Reads interleaving the two page lists; each shard's group still
    /// holds its own pages in the order listed.
    fn interleaved(a: &[u64], b: &[u64]) -> Vec<CacheOp> {
        let pairs = a.iter().zip(b);
        pairs
            .flat_map(|(&a, &b)| [CacheOp::read(a), CacheOp::read(b)])
            .collect()
    }

    /// A shard panic at op `k` of its group reports `k` real outcomes
    /// and pads the group with degraded ones, so the stream still gets
    /// one outcome per op in stream order; the next batch on the
    /// poisoned shard degrades whole, counted op for op in
    /// `internal_errors`; the other shard keeps servicing; every shard
    /// comes home. Shard 0 is always the submitter's and shard 1 is a
    /// helper's at two workers (the batches are large enough to fork),
    /// so the four cases panic on the submitter with and without a
    /// helper running, and on a helper.
    #[test]
    fn worker_panic_degrades_without_deadlock() {
        const PER_SHARD: usize = MIN_FORK_OPS / 2;
        for (workers, poisoned) in [(1, 0), (1, 1), (2, 0), (2, 1)] {
            let mut e = engine(workers);
            let on = |shard: usize, from: u64| -> Vec<u64> {
                let owned = (from..u64::MAX).filter(|&p| e.shard_of(p) == shard);
                owned.take(PER_SHARD).collect()
            };
            let healthy = on(1 - poisoned, 0);
            let mut hurt = on(poisoned, 0);
            let k = 3;
            let first = hurt[k];
            hurt[k] = on(poisoned, PANIC_FLOOR)[0];

            let mut outs = Vec::new();
            e.submit_ops(&interleaved(&healthy, &hurt), &mut outs);
            assert_eq!(outs.len(), 2 * PER_SHARD, "every op completes");
            for (i, pair) in outs.chunks_exact(2).enumerate() {
                assert!(!pair[0].bypassed && !pair[0].hit);
                assert_eq!(
                    pair[1].bypassed,
                    i >= k,
                    "op {i}: real before the panic, degraded after"
                );
                assert!(!pair[1].hit);
            }
            let lost = (hurt.len() - k) as u64;
            assert_eq!(e.stats().internal_errors, lost);

            // The poisoned shard degrades the next batch whole (its
            // first `k` pages were filled, yet none hits); the healthy
            // shard hits what it filled. Outcomes append to `outs`.
            hurt[k] = first;
            e.submit_ops(&interleaved(&healthy, &hurt), &mut outs);
            assert_eq!(outs.len(), 4 * PER_SHARD);
            for pair in outs[2 * PER_SHARD..].chunks_exact(2) {
                assert!(pair[0].hit, "the other shard keeps servicing");
                assert!(pair[1].bypassed && !pair[1].hit);
            }
            assert_eq!(e.stats().internal_errors, lost + hurt.len() as u64);
            assert_eq!(e.shards().len(), 2, "both shards came home");
            let hits = e.shards()[1 - poisoned].stats().read_hits;
            assert_eq!(hits, PER_SHARD as u64);
            assert_eq!(e.shards()[poisoned].stats().reads, k as u64);
        }
    }

    /// Dropping an engine whose helpers are alive and idle closes their
    /// job channels and joins them: the test finishing is the assertion.
    #[test]
    fn drop_joins_live_helpers() {
        let mut e = engine(2);
        let ops: Vec<CacheOp> = (0..MIN_FORK_OPS as u64).map(CacheOp::read).collect();
        e.submit_ops(&ops, &mut Vec::new());
        assert_eq!(e.workers(), 2);
        drop(e);
    }

    /// A poisoned shard sends its reads to disk with the disk-bound
    /// outcome every layer reports (the cache's internal error, pinned
    /// in `flashcache-core`'s edge tests, and a hierarchy without
    /// flash), counted as an internal error until the engine's
    /// statistics are reset.
    #[test]
    fn disk_bound_reads_agree_across_layers() {
        let to_disk = AccessOutcome::to_disk();
        assert!(to_disk.bypassed && !to_disk.hit);
        let mut e = engine(1);
        let mut outs = Vec::new();
        e.submit_ops(&[CacheOp::read(PANIC_FLOOR)], &mut outs);
        assert_eq!(outs, [to_disk]);
        assert_eq!(e.stats().internal_errors, 1);
        e.reset_stats();
        assert_eq!(e.stats().internal_errors, 0);
    }
}
