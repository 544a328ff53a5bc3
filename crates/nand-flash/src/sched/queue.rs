//! The event timeline of the event-driven scheduler: the [`Ev`] record,
//! the [`EventQueue`] contract the scheduler core is generic over, and
//! [`TimerWheel`], the only queue the product builds. A `BinaryHeap`
//! queue exists under `#[cfg(test)]` as the lock-step reference.

use std::cmp::Ordering;
use std::fmt;

use crate::geometry::CellMode;

/// What a timeline event does when it fires.
#[derive(Debug, Clone, Copy)]
pub enum EvKind {
    /// An op's completion (observable only through the event trace).
    Complete {
        /// Channel the op ran on.
        channel: u32,
    },
    /// A buffered background program reaches its writeback deadline.
    WbFlush {
        /// Logical address of the buffered write.
        lba: u64,
        /// Write-buffer generation; a stale generation was superseded.
        generation: u64,
        /// Cell mode of the pending program.
        mode: CellMode,
        /// Target block of the pending program.
        block: u32,
    },
}

/// Timeline event, min-ordered on `(time, seq)`.
#[derive(Debug, Clone, Copy)]
pub struct Ev {
    /// Firing time, µs.
    pub t: f64,
    /// Submission sequence number (tie-break).
    pub seq: u64,
    /// What fires.
    pub kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ev {}

impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Ev {
    fn cmp(&self, other: &Self) -> Ordering {
        self.t.total_cmp(&other.t).then(self.seq.cmp(&other.seq))
    }
}

/// A priority queue of [`Ev`]s popping in exact `(time, seq)` order.
/// The scheduler core touches its timeline only through these three
/// methods, so any implementation yields byte-identical timings.
pub trait EventQueue: Default + fmt::Debug + Send {
    /// Enqueues an event.
    fn push(&mut self, ev: Ev);
    /// Pops the globally earliest `(t, seq)` event if its time is at or
    /// before `limit`.
    fn pop_due(&mut self, limit: f64) -> Option<Ev>;
    /// Events currently queued.
    fn len(&self) -> usize;
}

/// Ring size of the calendar queue (one wrap of the wheel).
pub(super) const WHEEL_BUCKETS: usize = 1024;
/// Bitmap words covering the ring.
const WHEEL_WORDS: usize = WHEEL_BUCKETS / 64;
/// Bucket width, µs. Sized so one wrap (16.4 ms) covers the event
/// horizon of deep queues of the slowest op (MLC erase, 3.3 ms) plus
/// any realistic writeback window; farther events overflow to a side
/// list that is cascaded back in when the ring empties.
pub(super) const WHEEL_QUANTUM_US: f64 = 16.0;
const WHEEL_INV_QUANTUM: f64 = 1.0 / WHEEL_QUANTUM_US;
/// Null link in the slab arena.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub(super) struct EvNode {
    ev: Ev,
    next: u32,
}

/// Bucketed calendar queue (timer wheel) over a slab event arena.
///
/// Events are binned by quantized time (`tick = floor(t / quantum)`)
/// into a ring of singly linked buckets; freed nodes return to a free
/// list, so steady-state push/pop allocates nothing. The quantization
/// contract: bucketing affects only *placement* — the tick mapping is
/// monotone (so an event in an earlier bucket never has a later time),
/// and within a bucket the exact `(t, seq)` minimum is selected — so
/// pop order, and therefore every drained time, is bit-identical to a
/// total-order heap. Events beyond one wrap land on an unsorted
/// overflow list and cascade into the ring when it empties; all ring
/// events hold ticks inside `[base_tick, base_tick + WHEEL_BUCKETS)`,
/// which keeps every bucket single-ticked (no wrap collisions).
#[derive(Debug)]
pub struct TimerWheel {
    pub(super) nodes: Vec<EvNode>,
    free_head: u32,
    heads: Vec<u32>,
    occupied: [u64; WHEEL_WORDS],
    /// Quantized time of the ring window start. Events pushed with an
    /// earlier tick are clamped into the base bucket (see
    /// [`EventQueue::push`]); everything else in the ring holds ticks
    /// inside `[base_tick, base_tick + WHEEL_BUCKETS)`.
    base_tick: u64,
    ring_len: usize,
    overflow: Vec<Ev>,
    len: usize,
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel {
            nodes: Vec::new(),
            free_head: NIL,
            heads: vec![NIL; WHEEL_BUCKETS],
            occupied: [0; WHEEL_WORDS],
            base_tick: 0,
            ring_len: 0,
            overflow: Vec::new(),
            len: 0,
        }
    }
}

impl EventQueue for TimerWheel {
    #[inline]
    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, ev: Ev) {
        let tick = Self::tick_of(ev.t);
        if self.len == 0 {
            self.base_tick = tick;
        }
        self.len += 1;
        // An event can land before the window start when the wheel was
        // seeded by a *later* event (a distant writeback deadline, say,
        // followed by a near completion). Clamping it into the base
        // bucket preserves exact pop order: the base bucket is scanned
        // first, every clamped event's time precedes every event in a
        // later bucket (`t < base_tick * quantum <= later bucket
        // start`), and within the bucket selection compares exact
        // `(t, seq)`.
        let tick = tick.max(self.base_tick);
        if tick - self.base_tick >= WHEEL_BUCKETS as u64 {
            self.overflow.push(ev);
        } else {
            self.insert_ring(tick, ev);
        }
    }

    fn pop_due(&mut self, limit: f64) -> Option<Ev> {
        if self.len == 0 {
            return None;
        }
        if self.ring_len == 0 {
            self.refill_from_overflow();
        }
        let slot = self.first_occupied_slot();
        // Exact (t, seq) minimum within the bucket: quantization decides
        // placement, never order.
        let head = self.heads[slot];
        let mut min_idx = head;
        let mut min_prev = NIL;
        let mut prev = head;
        let mut cur = self.nodes[head as usize].next;
        while cur != NIL {
            let c = &self.nodes[cur as usize].ev;
            let m = &self.nodes[min_idx as usize].ev;
            if c.cmp(m) == Ordering::Less {
                min_idx = cur;
                min_prev = prev;
            }
            prev = cur;
            cur = self.nodes[cur as usize].next;
        }
        let ev = self.nodes[min_idx as usize].ev;
        if ev.t > limit {
            return None;
        }
        // Unlink and recycle the node.
        let after = self.nodes[min_idx as usize].next;
        if min_prev == NIL {
            self.heads[slot] = after;
        } else {
            self.nodes[min_prev as usize].next = after;
        }
        self.nodes[min_idx as usize].next = self.free_head;
        self.free_head = min_idx;
        if self.heads[slot] == NIL {
            self.occupied[slot / 64] &= !(1u64 << (slot % 64));
        }
        self.ring_len -= 1;
        self.len -= 1;
        self.base_tick = self.base_tick.max(Self::tick_of(ev.t));
        Some(ev)
    }
}

impl TimerWheel {
    /// Quantized bucket index of an event time. Monotone: `t1 <= t2`
    /// implies `tick_of(t1) <= tick_of(t2)` (IEEE multiplication by a
    /// positive constant and the truncating cast are both monotone), so
    /// bucket order can never contradict time order.
    #[inline]
    pub(super) fn tick_of(t: f64) -> u64 {
        (t * WHEEL_INV_QUANTUM) as u64
    }

    fn insert_ring(&mut self, tick: u64, ev: Ev) {
        let slot = (tick % WHEEL_BUCKETS as u64) as usize;
        let node = EvNode {
            ev,
            next: self.heads[slot],
        };
        let idx = if self.free_head != NIL {
            let idx = self.free_head;
            self.free_head = self.nodes[idx as usize].next;
            self.nodes[idx as usize] = node;
            idx
        } else {
            let idx = self.nodes.len() as u32;
            self.nodes.push(node);
            idx
        };
        self.heads[slot] = idx;
        self.occupied[slot / 64] |= 1u64 << (slot % 64);
        self.ring_len += 1;
    }

    /// First occupied bucket in cyclic order from the window start;
    /// caller guarantees the ring is non-empty.
    fn first_occupied_slot(&self) -> usize {
        debug_assert!(self.ring_len > 0);
        let base_slot = (self.base_tick % WHEEL_BUCKETS as u64) as usize;
        let word0 = base_slot / 64;
        let bit0 = base_slot % 64;
        let masked = self.occupied[word0] & (!0u64 << bit0);
        if masked != 0 {
            return word0 * 64 + masked.trailing_zeros() as usize;
        }
        for i in 1..=WHEEL_WORDS {
            let w = (word0 + i) % WHEEL_WORDS;
            let bits = if w == word0 {
                // Wrapped back to the base word: only the low bits.
                self.occupied[w] & !(!0u64 << bit0)
            } else {
                self.occupied[w]
            };
            if bits != 0 {
                return w * 64 + bits.trailing_zeros() as usize;
            }
        }
        unreachable!("non-empty ring always has an occupied bucket")
    }

    /// Advances the window to the earliest overflow event and moves
    /// every overflow event now inside one wrap into the ring.
    fn refill_from_overflow(&mut self) {
        debug_assert!(self.ring_len == 0 && !self.overflow.is_empty());
        let mut min_tick = u64::MAX;
        for ev in &self.overflow {
            min_tick = min_tick.min(Self::tick_of(ev.t));
        }
        self.base_tick = self.base_tick.max(min_tick);
        let mut i = 0;
        while i < self.overflow.len() {
            let tick = Self::tick_of(self.overflow[i].t).max(self.base_tick);
            if tick - self.base_tick < WHEEL_BUCKETS as u64 {
                let ev = self.overflow.swap_remove(i);
                self.insert_ring(tick, ev);
            } else {
                i += 1;
            }
        }
        debug_assert!(self.ring_len > 0, "refill must land the earliest event");
    }
}

/// The lock-step reference queue: a plain binary heap on `(t, seq)`.
#[cfg(test)]
#[derive(Debug, Default)]
pub struct HeapQueue(std::collections::BinaryHeap<std::cmp::Reverse<Ev>>);

#[cfg(test)]
impl EventQueue for HeapQueue {
    fn push(&mut self, ev: Ev) {
        self.0.push(std::cmp::Reverse(ev));
    }

    fn pop_due(&mut self, limit: f64) -> Option<Ev> {
        if self.0.peek()?.0.t > limit {
            return None;
        }
        self.0.pop().map(|std::cmp::Reverse(ev)| ev)
    }

    fn len(&self) -> usize {
        self.0.len()
    }
}
