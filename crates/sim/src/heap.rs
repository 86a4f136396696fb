//! Indexed 4-ary min-heap for wake scheduling.
//!
//! The engine's hot loop is pop-one-wake / push-one-wake. A 4-ary layout
//! halves the tree height of a binary heap and keeps sift-down children in
//! one cache line (four 24-byte entries), which is where a
//! [`std::collections::BinaryHeap`] of `Reverse` tuples spends its time.
//! On top of that the heap is *indexed*: each entry belongs to a process
//! index and a positions table maps the index back to its slot, so a
//! pending wake can be rescheduled earlier **in place**
//! ([`WakeHeap::decrease_key`]) instead of by lazy re-push + stale-entry
//! filtering, keeping heap size exactly equal to the number of scheduled
//! processes.
//!
//! Ordering is identical to the previous
//! `BinaryHeap<Reverse<(Nanos, u64, usize)>>`: entries sort by
//! `(time, seq)` and `seq` is unique, so pop order — and therefore every
//! simulated trace — is bit-for-bit unchanged.

use bps_core::time::Nanos;

const ARITY: usize = 4;
const ABSENT: usize = usize::MAX;

/// One scheduled wake: at `time`, insertion sequence `seq`, for process
/// `idx`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WakeEntry {
    /// Wake instant.
    pub time: Nanos,
    /// Insertion sequence number; unique, breaks time ties determinism.
    pub seq: u64,
    /// Process index owning this wake.
    pub idx: usize,
}

impl WakeEntry {
    #[inline]
    fn key(&self) -> (Nanos, u64) {
        (self.time, self.seq)
    }
}

/// An indexed 4-ary min-heap over [`WakeEntry`], ordered by `(time, seq)`.
///
/// At most one entry per process index may be present at a time (the
/// engine's invariant: a process is either running, parked, done, or has
/// exactly one scheduled wake).
#[derive(Debug, Clone, Default)]
pub struct WakeHeap {
    entries: Vec<WakeEntry>,
    /// `pos[idx]` is the slot of `idx`'s entry in `entries`, or `ABSENT`.
    pos: Vec<usize>,
}

impl WakeHeap {
    /// An empty heap.
    pub fn new() -> Self {
        WakeHeap::default()
    }

    /// Reset for a run over `n` process indices, keeping allocations.
    pub fn reset(&mut self, n: usize) {
        self.entries.clear();
        self.pos.clear();
        self.pos.resize(n, ABSENT);
    }

    /// Number of scheduled wakes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Schedule a wake. Panics if `idx` already has one (use
    /// [`WakeHeap::decrease_key`] to reschedule) or is out of range.
    pub fn push(&mut self, time: Nanos, seq: u64, idx: usize) {
        assert!(
            self.pos[idx] == ABSENT,
            "process {idx} already has a scheduled wake"
        );
        let slot = self.entries.len();
        self.entries.push(WakeEntry { time, seq, idx });
        self.pos[idx] = slot;
        self.sift_up(slot);
    }

    /// Remove and return the earliest wake (ties by `seq`).
    pub fn pop(&mut self) -> Option<WakeEntry> {
        let top = *self.entries.first()?;
        self.pos[top.idx] = ABSENT;
        let last = self.entries.pop().expect("nonempty");
        if !self.entries.is_empty() {
            self.entries[0] = last;
            self.pos[last.idx] = 0;
            self.sift_down(0);
        }
        Some(top)
    }

    /// Reschedule `idx`'s pending wake to an earlier (or equal) key,
    /// sifting it up in place. Panics if `idx` has no pending wake or the
    /// new key is larger than the current one.
    pub fn decrease_key(&mut self, idx: usize, time: Nanos, seq: u64) {
        let slot = self.pos[idx];
        assert!(slot != ABSENT, "process {idx} has no scheduled wake");
        let e = &mut self.entries[slot];
        assert!(
            (time, seq) <= e.key(),
            "decrease_key would increase the key of process {idx}"
        );
        e.time = time;
        e.seq = seq;
        self.sift_up(slot);
    }

    #[inline]
    fn sift_up(&mut self, mut slot: usize) {
        let moving = self.entries[slot];
        while slot > 0 {
            let parent = (slot - 1) / ARITY;
            if self.entries[parent].key() <= moving.key() {
                break;
            }
            let shifted = self.entries[parent];
            self.entries[slot] = shifted;
            self.pos[shifted.idx] = slot;
            slot = parent;
        }
        self.entries[slot] = moving;
        self.pos[moving.idx] = slot;
    }

    #[inline]
    fn sift_down(&mut self, mut slot: usize) {
        let moving = self.entries[slot];
        let len = self.entries.len();
        loop {
            let first_child = slot * ARITY + 1;
            if first_child >= len {
                break;
            }
            let mut best = first_child;
            let mut best_key = self.entries[first_child].key();
            for child in (first_child + 1)..(first_child + ARITY).min(len) {
                let k = self.entries[child].key();
                if k < best_key {
                    best = child;
                    best_key = k;
                }
            }
            if moving.key() <= best_key {
                break;
            }
            let shifted = self.entries[best];
            self.entries[slot] = shifted;
            self.pos[shifted.idx] = slot;
            slot = best;
        }
        self.entries[slot] = moving;
        self.pos[moving.idx] = slot;
    }

    #[cfg(test)]
    fn check_invariants(&self) {
        for (slot, e) in self.entries.iter().enumerate() {
            assert_eq!(self.pos[e.idx], slot, "positions table out of sync");
            if slot > 0 {
                let parent = (slot - 1) / ARITY;
                assert!(
                    self.entries[parent].key() <= e.key(),
                    "heap property violated at slot {slot}"
                );
            }
        }
        let present = self.pos.iter().filter(|&&p| p != ABSENT).count();
        assert_eq!(present, self.entries.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn ns(v: u64) -> Nanos {
        Nanos(v)
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut h = WakeHeap::new();
        h.reset(4);
        h.push(ns(30), 0, 0);
        h.push(ns(10), 1, 1);
        h.push(ns(10), 2, 2);
        h.push(ns(20), 3, 3);
        h.check_invariants();
        let order: Vec<usize> = std::iter::from_fn(|| h.pop()).map(|e| e.idx).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
        assert!(h.is_empty());
    }

    /// Interleaved push/pop agrees with `BinaryHeap<Reverse<..>>` — the
    /// exact structure the engine used before — on a pseudo-random
    /// schedule.
    #[test]
    fn matches_std_binary_heap_ordering() {
        let n = 64;
        let mut ours = WakeHeap::new();
        ours.reset(n);
        let mut std_heap: BinaryHeap<Reverse<(Nanos, u64, usize)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut rng = 0x2545F4914F6CDD1Du64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        for idx in 0..n {
            let t = ns(next() % 50);
            ours.push(t, seq, idx);
            std_heap.push(Reverse((t, seq, idx)));
            seq += 1;
        }
        // Pop everything, re-pushing each popped index once with a later
        // time, like a process scheduling its next wake.
        let mut repushed = vec![false; n];
        loop {
            ours.check_invariants();
            let (a, b) = (ours.pop(), std_heap.pop());
            match (a, b) {
                (None, None) => break,
                (Some(e), Some(Reverse((t, s, i)))) => {
                    assert_eq!((e.time, e.seq, e.idx), (t, s, i));
                    if !repushed[i] {
                        repushed[i] = true;
                        let nt = t + bps_core::time::Dur(next() % 100);
                        ours.push(nt, seq, i);
                        std_heap.push(Reverse((nt, seq, i)));
                        seq += 1;
                    }
                }
                other => panic!("heaps disagree on emptiness: {other:?}"),
            }
        }
    }

    #[test]
    fn decrease_key_moves_entry_to_front() {
        let mut h = WakeHeap::new();
        h.reset(8);
        for idx in 0..8 {
            h.push(ns(100 + idx as u64 * 10), idx as u64, idx);
        }
        assert_eq!(h.entries[h.pos[7]].time, ns(170));
        h.decrease_key(7, ns(5), 100);
        h.check_invariants();
        assert_eq!(h.entries[h.pos[7]].time, ns(5));
        assert_eq!(h.pop().unwrap().idx, 7);
        // The rest still pop in order.
        let order: Vec<usize> = std::iter::from_fn(|| h.pop()).map(|e| e.idx).collect();
        assert_eq!(order, (0..7).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "would increase")]
    fn decrease_key_rejects_increase() {
        let mut h = WakeHeap::new();
        h.reset(1);
        h.push(ns(10), 0, 0);
        h.decrease_key(0, ns(20), 1);
    }

    #[test]
    #[should_panic(expected = "already has a scheduled wake")]
    fn double_push_panics() {
        let mut h = WakeHeap::new();
        h.reset(1);
        h.push(ns(10), 0, 0);
        h.push(ns(20), 1, 0);
    }

    #[test]
    fn reset_reuses_allocations() {
        let mut h = WakeHeap::new();
        h.reset(4);
        for idx in 0..4 {
            h.push(ns(idx as u64), idx as u64, idx);
        }
        h.reset(2);
        assert!(h.is_empty());
        assert_eq!(h.pos[0], ABSENT);
        h.push(ns(1), 0, 1);
        assert_eq!(h.pop().unwrap().idx, 1);
    }
}
