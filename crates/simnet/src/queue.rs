//! The future-event list: a pooled, indexed 4-ary min-heap.
//!
//! The engine used to keep its future events in a
//! `BinaryHeap<Reverse<Scheduled<M>>>` of *owned* entries: every sift-up and
//! sift-down moved a full envelope (tens to hundreds of bytes once a
//! protocol message is inside), and every push/pop round-trip was an
//! allocation-sized `memcpy` chain. [`EventQueue`] separates ordering from
//! storage:
//!
//! * envelopes live in a **slab** of pooled slots that never move; freed
//!   slots are recycled through a free list, so steady-state traffic
//!   performs no allocation at all;
//! * the heap itself is a flat array of small heap-entry records — the
//!   `(at, seq)` ordering key plus a `u32` slot id — so sifting moves
//!   24-byte keys, never envelopes;
//! * the heap is **4-ary** rather than binary: half the tree depth, and the
//!   four children of a node share one cache line, which is the classic
//!   d-ary-heap trade (slightly more comparisons per level, far fewer levels
//!   and far fewer cache misses) and measurably wins once the queue holds
//!   thousands of in-flight messages.
//!
//! Ordering is the same total order the engine has always used —
//! `(at, seq)` with the globally unique send sequence breaking ties — so pop
//! order is *identical* to the old `BinaryHeap` path (asserted by the fuzz
//! tests below and the differential tests in `tests/engine_equivalence.rs`).

use crate::engine::Envelope;
use crate::time::SimTime;

/// Heap arity. Four children per node: depth log₄(n), children contiguous.
const ARITY: usize = 4;

/// One heap node: the ordering key plus the slab slot holding the envelope.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// Result of [`EventQueue::pop_at_or_before`].
#[derive(Debug)]
pub enum PopBefore<M> {
    /// The queue is empty.
    Empty,
    /// The earliest event is due after the horizon; nothing was popped.
    Later,
    /// The popped event: `(delivery instant, envelope)`.
    Due(SimTime, Envelope<M>),
}

/// A pooled, indexed 4-ary min-heap of scheduled envelopes, ordered by
/// `(delivery instant, send sequence)`.
#[derive(Debug)]
pub struct EventQueue<M> {
    heap: Vec<HeapEntry>,
    /// Envelope storage; `heap` entries point into it by index. `None` slots
    /// are free (listed in `free`). Slots never move, so pushing and popping
    /// shuffles 24-byte keys only.
    slab: Vec<Option<Envelope<M>>>,
    /// Recycled slot ids, popped before the slab grows.
    free: Vec<u32>,
    /// High-water mark of the queue length (peak in-flight messages).
    peak: usize,
    /// Number of slot/heap/free-list growth events — the engine's
    /// allocations-per-delivery sanity counter reads this; in steady state
    /// it plateaus while deliveries keep climbing.
    grows: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slab: Vec::new(),
            free: Vec::new(),
            peak: 0,
            grows: 0,
        }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// High-water mark of [`len`](Self::len) over the queue's lifetime.
    pub fn peak_len(&self) -> usize {
        self.peak
    }

    /// Number of storage growth events (slab slots allocated + heap array
    /// regrowths). Once the pool has warmed up this stops increasing: every
    /// push reuses a recycled slot.
    pub fn alloc_events(&self) -> u64 {
        self.grows
    }

    /// Schedule `env` for delivery at `at`. `seq` must be unique per queue
    /// (the engine's global send sequence), which makes the order total.
    pub fn push(&mut self, at: SimTime, seq: u64, env: Envelope<M>) {
        let slot = match self.free.pop() {
            Some(s) => {
                debug_assert!(self.slab[s as usize].is_none());
                self.slab[s as usize] = Some(env);
                s
            }
            None => {
                let s = self.slab.len() as u32;
                self.slab.push(Some(env));
                self.grows += 1;
                s
            }
        };
        if self.heap.len() == self.heap.capacity() {
            self.grows += 1;
        }
        self.heap.push(HeapEntry { at, seq, slot });
        self.peak = self.peak.max(self.heap.len());
        self.sift_up(self.heap.len() - 1);
    }

    /// Pop the earliest event: `(delivery instant, envelope)`. The slot is
    /// recycled immediately.
    pub fn pop(&mut self) -> Option<(SimTime, Envelope<M>)> {
        let top = *self.heap.first()?;
        self.remove_root();
        let env = self.release(top.slot);
        Some((top.at, env))
    }

    /// Pop the earliest event only if it is due at or before `horizon` —
    /// the single-queue-access fast path of `Engine::run_until` (the old
    /// loop peeked, then popped again inside `step`).
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> PopBefore<M> {
        let Some(top) = self.heap.first().copied() else {
            return PopBefore::Empty;
        };
        if top.at > horizon {
            return PopBefore::Later;
        }
        self.remove_root();
        let env = self.release(top.slot);
        PopBefore::Due(top.at, env)
    }

    /// Pop the earliest event only if it is due *strictly before* `horizon` —
    /// the lazy-injection path of the scenario runner: the engine drains
    /// everything earlier than the next external action, then injects the
    /// action, so an internal event at exactly the action's instant (whose
    /// sequence number is necessarily larger than the action's reserved one)
    /// is popped after it.
    pub fn pop_strictly_before(&mut self, horizon: SimTime) -> PopBefore<M> {
        let Some(top) = self.heap.first().copied() else {
            return PopBefore::Empty;
        };
        if top.at >= horizon {
            return PopBefore::Later;
        }
        self.remove_root();
        let env = self.release(top.slot);
        PopBefore::Due(top.at, env)
    }

    /// Take the envelope out of a slot and recycle the slot.
    fn release(&mut self, slot: u32) -> Envelope<M> {
        let env = self.slab[slot as usize]
            .take()
            .expect("heap entry pointed at a free slot");
        if self.free.len() == self.free.capacity() {
            self.grows += 1;
        }
        self.free.push(slot);
        env
    }

    /// Remove the root heap entry, restoring the heap property.
    fn remove_root(&mut self) {
        let last = self.heap.pop().expect("remove_root on an empty heap");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let key = entry.key();
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[parent].key() <= key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = entry;
    }

    fn sift_down(&mut self, mut i: usize) {
        let entry = self.heap[i];
        let key = entry.key();
        let len = self.heap.len();
        loop {
            let first_child = i * ARITY + 1;
            if first_child >= len {
                break;
            }
            // Smallest of up to four contiguous children.
            let mut best = first_child;
            let mut best_key = self.heap[best].key();
            let end = (first_child + ARITY).min(len);
            for c in first_child + 1..end {
                let k = self.heap[c].key();
                if k < best_key {
                    best = c;
                    best_key = k;
                }
            }
            if best_key >= key {
                break;
            }
            self.heap[i] = self.heap[best];
            i = best;
        }
        self.heap[i] = entry;
    }

    /// Drop any remaining events and reset the lifetime counters, keeping
    /// the slab, free-list, and heap capacity — the arena-reuse path. A
    /// reset queue reports zero [`alloc_events`](Self::alloc_events) until
    /// traffic outgrows the warmed pool.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.free.clear();
        for (i, slot) in self.slab.iter_mut().enumerate() {
            *slot = None;
            self.free.push(i as u32);
        }
        self.peak = 0;
        self.grows = 0;
    }

    /// Check the heap invariant (every parent ≤ each of its children) and
    /// the slab/free-list bookkeeping. Test-only; O(n).
    #[cfg(test)]
    fn assert_invariants(&self) {
        for i in 1..self.heap.len() {
            let parent = (i - 1) / ARITY;
            assert!(
                self.heap[parent].key() <= self.heap[i].key(),
                "heap violation at {i}: parent {:?} > child {:?}",
                self.heap[parent].key(),
                self.heap[i].key()
            );
        }
        let live = self.slab.iter().filter(|s| s.is_some()).count();
        assert_eq!(live, self.heap.len(), "live slots != heap entries");
        assert_eq!(
            self.free.len() + live,
            self.slab.len(),
            "free list + live slots != slab size"
        );
        for e in &self.heap {
            assert!(self.slab[e.slot as usize].is_some());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;
    use crate::random::DetRng;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn env(tag: u64) -> Envelope<u64> {
        Envelope {
            from: NodeId(0),
            to: NodeId(1),
            sent_at: SimTime::ZERO,
            fate: crate::faults::LinkFate::Intact,
            msg: tag,
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(5), 2, env(2));
        q.push(SimTime::from_millis(1), 1, env(1));
        q.push(SimTime::from_millis(5), 0, env(0));
        q.push(SimTime::from_millis(3), 3, env(3));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e.msg).collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_at_or_before_respects_the_horizon() {
        let mut q = EventQueue::new();
        assert!(matches!(
            q.pop_at_or_before(SimTime::from_secs(99)),
            PopBefore::Empty
        ));
        q.push(SimTime::from_millis(10), 0, env(0));
        assert!(matches!(
            q.pop_at_or_before(SimTime::from_millis(9)),
            PopBefore::Later
        ));
        assert_eq!(q.len(), 1, "a Later answer must not pop");
        match q.pop_at_or_before(SimTime::from_millis(10)) {
            PopBefore::Due(at, e) => {
                assert_eq!(at, SimTime::from_millis(10));
                assert_eq!(e.msg, 0);
            }
            other => panic!("expected Due, got {other:?}"),
        }
        assert!(q.is_empty());
    }

    #[test]
    fn slots_are_recycled_after_warmup() {
        let mut q = EventQueue::new();
        for i in 0..64 {
            q.push(SimTime::from_micros(i), i, env(i));
        }
        while q.pop().is_some() {}
        let warmed = q.alloc_events();
        // A steady-state churn of ≤64 in flight must not grow anything.
        for round in 0..100u64 {
            for i in 0..64 {
                let seq = 64 + round * 64 + i;
                q.push(SimTime::from_micros(seq), seq, env(seq));
            }
            while q.pop().is_some() {}
        }
        assert_eq!(q.alloc_events(), warmed, "steady state must not allocate");
        assert_eq!(q.peak_len(), 64);
    }

    /// Random push/pop interleavings against a `BinaryHeap` oracle: the pop
    /// sequence must be identical, and the heap invariant must hold after
    /// every operation. This is the fuzz half of the determinism argument —
    /// the old engine's `BinaryHeap<Reverse<Scheduled>>` and this queue
    /// implement the same total order.
    #[test]
    fn fuzz_against_binary_heap_oracle() {
        for seed in 0..16u64 {
            let mut rng = DetRng::new(0xF0F0 ^ seed);
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut oracle: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            for _ in 0..2_000 {
                // Bias toward pushes so the queue grows and shrinks in waves.
                if oracle.is_empty() || rng.next_f64() < 0.6 {
                    let at = SimTime::from_micros(rng.next_below(500));
                    q.push(at, seq, env(seq));
                    oracle.push(Reverse((at, seq)));
                    seq += 1;
                } else {
                    let Reverse((want_at, want_seq)) = oracle.pop().unwrap();
                    let (got_at, got_env) = q.pop().expect("oracle says non-empty");
                    assert_eq!((got_at, got_env.msg), (want_at, want_seq), "seed {seed}");
                }
                q.assert_invariants();
            }
            // Drain both; tails must agree too.
            while let Some(Reverse((want_at, want_seq))) = oracle.pop() {
                let (got_at, got_env) = q.pop().unwrap();
                assert_eq!((got_at, got_env.msg), (want_at, want_seq), "seed {seed}");
            }
            assert!(q.pop().is_none());
            q.assert_invariants();
        }
    }

    /// `pop_at_or_before` fuzz: interleave horizon pops with pushes and
    /// check against the oracle's peek.
    #[test]
    fn fuzz_horizon_pops_against_oracle() {
        for seed in 0..8u64 {
            let mut rng = DetRng::new(0xBEEF ^ seed);
            let mut q: EventQueue<u64> = EventQueue::new();
            let mut oracle: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            for _ in 0..2_000 {
                if oracle.is_empty() || rng.next_f64() < 0.5 {
                    let at = SimTime::from_micros(rng.next_below(300));
                    q.push(at, seq, env(seq));
                    oracle.push(Reverse((at, seq)));
                    seq += 1;
                } else {
                    let horizon = SimTime::from_micros(rng.next_below(300));
                    match q.pop_at_or_before(horizon) {
                        PopBefore::Empty => assert!(oracle.is_empty()),
                        PopBefore::Later => {
                            let &Reverse((at, _)) = oracle.peek().unwrap();
                            assert!(at > horizon, "seed {seed}");
                        }
                        PopBefore::Due(at, e) => {
                            let Reverse((want_at, want_seq)) = oracle.pop().unwrap();
                            assert!(at <= horizon);
                            assert_eq!((at, e.msg), (want_at, want_seq), "seed {seed}");
                        }
                    }
                }
                q.assert_invariants();
            }
        }
    }

    #[test]
    fn reset_recycles_storage_and_zeroes_counters() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_micros(i), i, env(i));
        }
        q.reset();
        assert!(q.is_empty());
        assert_eq!(q.alloc_events(), 0);
        assert_eq!(q.peak_len(), 0);
        q.assert_invariants();
        // The warmed pool absorbs the same load without allocating.
        for i in 0..100 {
            q.push(SimTime::from_micros(i), 1000 + i, env(i));
        }
        assert_eq!(q.alloc_events(), 0, "reset pool must be reused");
        q.assert_invariants();
        while q.pop().is_some() {}
    }
}
