//! Persistent shard worker runtime.
//!
//! [`Runtime`] owns N long-lived worker threads, each servicing a fixed
//! subset of the engine's [`FlashCache`] shards for the runtime's whole
//! lifetime — the multi-channel overlap model: channels make progress
//! continuously instead of in per-batch lockstep. Per shard there is
//! one bounded SPSC request ring (submitter → worker) and one bounded
//! SPSC completion ring (worker → submitter); the hot path spawns no
//! threads, takes no locks and allocates nothing.
//!
//! # Quiescence contract
//!
//! Workers touch a shard only between popping a request for it and
//! pushing the matching completion. [`ShardedCache::submit`]
//! (`crate::sharded`) never returns before every pushed request's
//! completion has been popped, and the completion-ring `Release`/
//! `Acquire` pair orders the worker's shard writes before the
//! submitter's subsequent reads. Outside of `submit`, therefore, no
//! worker holds a reference into the slab, which is what makes
//! [`ShardSlab::shards`]/[`ShardSlab::shards_mut`] sound and lets the
//! engine keep its plain `&[FlashCache]` accessors.
//!
//! # Panic hygiene
//!
//! Each popped chunk runs under `catch_unwind`: a panicking shard is
//! poisoned (subsequent chunks degrade without touching it), every
//! degraded operation is counted in [`Runtime::internal_errors`], and a
//! degraded disk-bound completion keeps the request/completion counts
//! matched — the submitter never deadlocks on a lost completion.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use disk_trace::OpKind;
use flash_obs::ServiceTier;
use flashcache_core::{AccessOutcome, CacheOp, CacheOutcome, FlashCache};

use crate::ring::{self, Consumer, Producer};

/// One staged operation: (request index, disk page, op).
pub(crate) type Req = (u32, u64, OpKind);

/// One completed operation: (request index, outcome).
pub(crate) type Done = (u32, AccessOutcome);

/// Per-shard ring capacity. The submitter drains completions whenever a
/// request ring fills, so capacity only bounds in-flight burst size,
/// not batch size.
const RING_CAPACITY: usize = 1024;

/// Empty sweeps a worker spins through before parking.
const SPIN_SWEEPS: u32 = 256;

/// Park timeout bounding the cost of a lost wakeup.
const PARK_TIMEOUT: Duration = Duration::from_micros(200);

/// Requests a worker pops from one shard's ring per sweep: large enough
/// to amortize the ring's atomic handoff and feed `op_batch`'s prefetch
/// pipeline, small enough that completions keep flowing back while a
/// batch is in flight.
const CHUNK: usize = 64;

/// Staging buffers one executor reuses across chunks: the typed ops
/// handed to [`FlashCache::op_batch_into`] and the outcomes it fills.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    ops: Vec<CacheOp>,
    pub(crate) outs: Vec<CacheOutcome>,
}

/// Runs `reqs` through `cache` in order as one pipelined batch, leaving
/// one outcome per completed op in `scratch.outs`. Both executors — the
/// submitter's in-place loop and the workers — service ops through
/// this, so per-shard op order and arithmetic are identical.
pub(crate) fn run_chunk(cache: &mut FlashCache, reqs: &[Req], scratch: &mut Scratch) {
    scratch.ops.clear();
    scratch.outs.clear();
    scratch
        .ops
        .extend(reqs.iter().map(|&(_, page, op)| match op {
            OpKind::Read => CacheOp::read(page),
            OpKind::Write => CacheOp::write(page),
        }));
    cache.op_batch_into(&scratch.ops, &mut scratch.outs);
}

/// The engine's shards, shared between the submitter and the workers.
///
/// The vector's length never changes after construction (callers get
/// `&mut [FlashCache]`, never the `Vec`), so raw element pointers
/// handed to workers stay valid for the slab's lifetime.
pub(crate) struct ShardSlab(std::cell::UnsafeCell<Vec<FlashCache>>);

// SAFETY: access is serialized by the quiescence contract above — the
// submitter only dereferences outside `submit`'s push/drain window, and
// each worker only within it, for its own disjoint shards.
unsafe impl Sync for ShardSlab {}

impl fmt::Debug for ShardSlab {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardSlab").finish_non_exhaustive()
    }
}

impl ShardSlab {
    pub(crate) fn new(shards: Vec<FlashCache>) -> Arc<Self> {
        Arc::new(ShardSlab(std::cell::UnsafeCell::new(shards)))
    }

    /// # Safety
    ///
    /// Caller must hold the quiescence contract: no worker is inside an
    /// operation (true whenever `submit` is not between its first push
    /// and final drain).
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn shards_mut(&self) -> &mut [FlashCache] {
        unsafe { (*self.0.get()).as_mut_slice() }
    }

    /// # Safety
    ///
    /// Same contract as [`ShardSlab::shards_mut`].
    pub(crate) unsafe fn shards(&self) -> &[FlashCache] {
        unsafe { (*self.0.get()).as_slice() }
    }
}

/// One shard as seen from its worker thread.
struct WorkerShard {
    /// Raw pointer into the slab; valid for the worker's lifetime
    /// because the runtime holds the slab `Arc` and the vector never
    /// reallocates.
    cache: *mut FlashCache,
    req: Consumer<Req>,
    done: Producer<Done>,
    /// Set when a chunk on this shard panicked; later chunks degrade
    /// without touching the (possibly inconsistent) shard.
    poisoned: bool,
}

/// Moves the raw shard pointers into the worker thread.
struct WorkerCtx {
    shards: Vec<WorkerShard>,
    shutdown: Arc<AtomicBool>,
    sleeping: Arc<AtomicBool>,
    errors: Arc<AtomicU64>,
}

// SAFETY: the pointers target slab elements owned (at runtime, by ring
// handoff) exclusively by this worker; the slab outlives the thread via
// the runtime's `Arc`.
unsafe impl Send for WorkerCtx {}

/// Persistent worker threads plus the submitter-side ring endpoints.
pub(crate) struct Runtime {
    /// Per-shard request producers, in shard order.
    req: Vec<Producer<Req>>,
    /// Per-shard completion consumers, in shard order.
    done: Vec<Consumer<Done>>,
    /// Shard index → worker index.
    shard_worker: Vec<usize>,
    /// Per-worker "parked or about to park" flags.
    sleeping: Vec<Arc<AtomicBool>>,
    handles: Vec<JoinHandle<()>>,
    shutdown: Arc<AtomicBool>,
    errors: Arc<AtomicU64>,
    workers: usize,
    /// Keeps the shard storage alive as long as any worker holds
    /// pointers into it.
    _slab: Arc<ShardSlab>,
}

impl fmt::Debug for Runtime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Runtime")
            .field("workers", &self.workers)
            .field("shards", &self.shard_worker.len())
            .finish_non_exhaustive()
    }
}

impl Runtime {
    /// Spawns `workers` threads over the slab's shards (shard `s` is
    /// owned by worker `s % workers`).
    pub(crate) fn spawn(slab: &Arc<ShardSlab>, workers: usize) -> Runtime {
        // SAFETY: construction happens before any worker exists.
        let n = unsafe { slab.shards() }.len();
        let workers = workers.max(1).min(n.max(1));
        let shutdown = Arc::new(AtomicBool::new(false));
        let errors = Arc::new(AtomicU64::new(0));
        let mut req = Vec::with_capacity(n);
        let mut done = Vec::with_capacity(n);
        let mut shard_worker = Vec::with_capacity(n);
        let mut ctxs: Vec<WorkerCtx> = (0..workers)
            .map(|_| WorkerCtx {
                shards: Vec::new(),
                shutdown: Arc::clone(&shutdown),
                sleeping: Arc::new(AtomicBool::new(false)),
                errors: Arc::clone(&errors),
            })
            .collect();
        // SAFETY: the vec is fully built and will not reallocate again.
        let base = unsafe { slab.shards_mut() }.as_mut_ptr();
        for s in 0..n {
            let (req_tx, req_rx) = ring::pair::<Req>(RING_CAPACITY);
            let (done_tx, done_rx) = ring::pair::<Done>(RING_CAPACITY);
            req.push(req_tx);
            done.push(done_rx);
            let w = s % workers;
            shard_worker.push(w);
            ctxs[w].shards.push(WorkerShard {
                // SAFETY: s < n, in bounds.
                cache: unsafe { base.add(s) },
                req: req_rx,
                done: done_tx,
                poisoned: false,
            });
        }
        let sleeping = ctxs.iter().map(|c| Arc::clone(&c.sleeping)).collect();
        let handles = ctxs
            .into_iter()
            .enumerate()
            .map(|(w, ctx)| {
                std::thread::Builder::new()
                    .name(format!("flashcache-shard-worker-{w}"))
                    .spawn(move || worker_loop(ctx))
                    .expect("spawn shard worker")
            })
            .collect();
        Runtime {
            req,
            done,
            shard_worker,
            sleeping,
            handles,
            shutdown,
            errors,
            workers,
            _slab: Arc::clone(slab),
        }
    }

    /// Operations degraded by worker panics so far.
    pub(crate) fn internal_errors(&self) -> u64 {
        self.errors.load(Ordering::Acquire)
    }

    /// Services one staged batch: streams each shard's group into its
    /// request ring as contiguous slices (one Release store per slice),
    /// draining completions whenever a ring fills — which is what makes
    /// backpressure deadlock-free — then drains until every pushed
    /// operation has completed. Completions land in `done` per shard in
    /// submission order.
    pub(crate) fn execute(&mut self, groups: &[Vec<Req>], done: &mut [Vec<Done>]) {
        let mut pushed = 0usize;
        let mut completed = 0usize;
        for (s, ops) in groups.iter().enumerate() {
            let mut sent = 0usize;
            while sent < ops.len() {
                let took = self.req[s].push_slice(&ops[sent..]);
                sent += took;
                pushed += took;
                self.wake(s);
                if took == 0 {
                    // Ring full: drain completions so the worker can
                    // retire in-flight work and free slots.
                    completed += self.drain(done);
                }
            }
        }
        while completed < pushed {
            completed += self.drain(done);
        }
    }

    /// Unparks the worker owning shard `s` if it is (about to go)
    /// sleeping. Cheap when the worker is busy: one relaxed load.
    #[inline]
    fn wake(&self, s: usize) {
        let w = self.shard_worker[s];
        if self.sleeping[w].load(Ordering::Relaxed)
            && self.sleeping[w].swap(false, Ordering::AcqRel)
        {
            self.handles[w].thread().unpark();
        }
    }

    /// Pops every currently available completion into `bufs` (one
    /// buffer per shard, in arrival = per-shard submission order) and
    /// returns how many were moved, yielding the timeslice when there
    /// were none (on one CPU the owning worker cannot run otherwise).
    fn drain(&mut self, bufs: &mut [Vec<Done>]) -> usize {
        let mut moved = 0;
        for (s, ring) in self.done.iter_mut().enumerate() {
            while let Some(d) = ring.pop() {
                bufs[s].push(d);
                moved += 1;
            }
        }
        if moved == 0 {
            std::thread::yield_now();
        }
        moved
    }
}

impl Drop for Runtime {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for (w, h) in self.handles.iter().enumerate() {
            self.sleeping[w].store(false, Ordering::Release);
            h.thread().unpark();
        }
        for h in self.handles.drain(..) {
            // A worker that somehow died panicking already did its
            // damage; joining must not double-panic the engine.
            let _ = h.join();
        }
    }
}

/// Outcome reported for an operation whose shard panicked: the access
/// bypasses the cache and the caller goes to disk, mirroring the
/// degraded outcome `FlashCache::op` produces for an internal
/// `CacheError`.
fn degraded(op: OpKind) -> AccessOutcome {
    AccessOutcome {
        hit: false,
        tier: ServiceTier::Disk,
        needs_disk_read: matches!(op, OpKind::Read),
        bypassed: true,
        ..AccessOutcome::default()
    }
}

fn worker_loop(mut ctx: WorkerCtx) {
    let mut idle_sweeps = 0u32;
    // Reused scratch: the hot path allocates nothing after warm-up.
    let mut reqs: Vec<Req> = Vec::with_capacity(CHUNK);
    let mut scratch = Scratch::default();
    let mut done: Vec<Done> = Vec::with_capacity(CHUNK);
    loop {
        let mut serviced = 0usize;
        for sh in ctx.shards.iter_mut() {
            loop {
                reqs.clear();
                if sh.req.pop_chunk(&mut reqs, CHUNK) == 0 {
                    break;
                }
                serviced += reqs.len();
                done.clear();
                service_chunk(sh, &reqs, &mut scratch, &mut done, &ctx.errors);
                // The submitter drains completions whenever it stalls,
                // so a full ring always makes progress; yielding lets
                // it run when cores are scarce.
                let mut sent = 0;
                while sent < done.len() {
                    let took = sh.done.push_slice(&done[sent..]);
                    if took == 0 {
                        std::thread::yield_now();
                    }
                    sent += took;
                }
            }
        }
        if serviced > 0 {
            idle_sweeps = 0;
            continue;
        }
        if ctx.shutdown.load(Ordering::Acquire) {
            break;
        }
        idle_sweeps += 1;
        if idle_sweeps < SPIN_SWEEPS {
            // Brief pure spin for low latency, then yield so a starved
            // submitter can run on core-scarce hosts.
            if idle_sweeps < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            continue;
        }
        // Park protocol: announce first, then re-check for work pushed
        // concurrently; the timeout bounds any remaining lost-wakeup
        // window.
        ctx.sleeping.store(true, Ordering::SeqCst);
        let work_waiting = ctx.shards.iter_mut().any(|sh| !sh.req.is_empty())
            || ctx.shutdown.load(Ordering::Acquire);
        if work_waiting {
            ctx.sleeping.store(false, Ordering::SeqCst);
        } else {
            std::thread::park_timeout(PARK_TIMEOUT);
            ctx.sleeping.store(false, Ordering::SeqCst);
        }
        idle_sweeps = 0;
    }
}

/// Services a popped chunk through [`run_chunk`] under one
/// `catch_unwind`. Because the batch executes ops sequentially in
/// order, a panic at op `k` leaves exactly `k` completed outcomes in
/// the scratch buffer; those are reported as-is and the rest degrade.
/// Every later chunk on the poisoned shard degrades whole.
fn service_chunk(
    sh: &mut WorkerShard,
    reqs: &[Req],
    scratch: &mut Scratch,
    done: &mut Vec<Done>,
    errors: &AtomicU64,
) {
    scratch.outs.clear();
    if !sh.poisoned {
        // SAFETY: ring handoff gives this worker exclusive access to the
        // shard for the duration of the chunk (quiescence contract).
        let cache = unsafe { &mut *sh.cache };
        sh.poisoned = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            if let Some(k) = reqs.iter().position(|r| r.1 == tests::PANIC_PAGE) {
                run_chunk(cache, &reqs[..k], scratch);
                panic!("injected worker panic");
            }
            run_chunk(cache, reqs, scratch)
        }))
        .is_err();
    }
    let real = scratch.outs.len();
    if real < reqs.len() {
        errors.fetch_add((reqs.len() - real) as u64, Ordering::AcqRel);
    }
    for (k, &(ri, _, op)) in reqs.iter().enumerate() {
        let out = scratch
            .outs
            .get(k)
            .map_or_else(|| degraded(op), |o| o.access);
        done.push((ri, out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flashcache_core::FlashCacheConfig;
    use nand_flash::{FlashConfig, FlashGeometry};

    /// Injection point: a worker panics when a chunk reaches this page
    /// (see `service_chunk`). No other in-crate test touches it.
    pub(super) const PANIC_PAGE: u64 = u64::MAX;

    fn slab(shards: usize) -> Arc<ShardSlab> {
        let config = FlashCacheConfig::builder()
            .flash(FlashConfig {
                geometry: FlashGeometry {
                    blocks: 8,
                    pages_per_block: 8,
                    ..FlashGeometry::default()
                },
                ..FlashConfig::default()
            })
            .build()
            .expect("valid config");
        ShardSlab::new(
            (0..shards)
                .map(|_| FlashCache::new(config.clone()).expect("valid cache"))
                .collect(),
        )
    }

    fn reads(pages: impl IntoIterator<Item = u64>) -> Vec<Req> {
        pages
            .into_iter()
            .enumerate()
            .map(|(i, p)| (i as u32, p, OpKind::Read))
            .collect()
    }

    /// One batch through the runtime: shard `s` gets `groups[s]`.
    fn execute(rt: &mut Runtime, groups: &[Vec<Req>]) -> Vec<Vec<Done>> {
        let mut done = vec![Vec::new(); groups.len()];
        rt.execute(groups, &mut done);
        done
    }

    /// A worker panic at op `k` of a chunk reports `k` real outcomes
    /// and degrades the rest; every later chunk on the poisoned shard
    /// degrades whole, counted op for op in `internal_errors`; other
    /// shards keep servicing; the submitter never deadlocks.
    #[test]
    fn worker_panic_degrades_without_deadlock() {
        for workers in [1, 2] {
            let slab = slab(2);
            let mut rt = Runtime::spawn(&slab, workers);
            let k = 3;
            let mut poisoned = reads(0..10);
            poisoned[k].1 = PANIC_PAGE;
            let healthy = reads(0..10);

            let done = execute(&mut rt, &[healthy.clone(), poisoned.clone()]);
            assert_eq!(done[1].len(), poisoned.len(), "every op completes");
            for (i, &(ri, out)) in done[1].iter().enumerate() {
                assert_eq!(ri as usize, i, "per-shard submission order");
                assert_eq!(
                    out.bypassed,
                    i >= k,
                    "op {i}: real before the panic, degraded after"
                );
                assert!(out.needs_disk_read && !out.hit);
            }
            assert_eq!(rt.internal_errors(), (poisoned.len() - k) as u64);
            assert!(done[0]
                .iter()
                .all(|(_, o)| !o.bypassed && o.needs_disk_read));

            // The poisoned shard degrades every later chunk whole; the
            // healthy shard now hits what it filled.
            let done = execute(&mut rt, &[healthy.clone(), healthy.clone()]);
            assert!(done[1].iter().all(|(_, o)| o.bypassed && !o.hit));
            assert_eq!(
                rt.internal_errors(),
                (poisoned.len() - k + healthy.len()) as u64
            );
            assert!(
                done[0].iter().all(|(_, o)| o.hit),
                "other shards keep servicing"
            );
        }
    }
}
