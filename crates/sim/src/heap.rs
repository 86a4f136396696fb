//! The engine's wake queue.
//!
//! A plain [`std::collections::BinaryHeap`] of `Reverse((time, seq,
//! process))` that hands out the sequence numbers itself. Every push takes
//! a fresh `seq`, so `(time, seq)` is unique and pops come out in time
//! order with ties broken by insertion order — the rule that makes reruns
//! produce byte-identical traces.

use bps_core::time::Nanos;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Scheduled wakes, popped in `(time, insertion order)`.
#[derive(Debug, Default)]
pub(crate) struct WakeHeap {
    heap: BinaryHeap<Reverse<(Nanos, u64, usize)>>,
    seq: u64,
}

impl WakeHeap {
    /// An empty queue with room for `n` wakes.
    pub(crate) fn with_capacity(n: usize) -> Self {
        WakeHeap {
            heap: BinaryHeap::with_capacity(n),
            seq: 0,
        }
    }

    /// Schedule process `idx` to wake at `time`.
    #[inline]
    pub(crate) fn push(&mut self, time: Nanos, idx: usize) {
        self.heap.push(Reverse((time, self.seq, idx)));
        self.seq += 1;
    }

    /// The earliest wake as `(time, idx)`; on equal times, the one pushed
    /// first.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<(Nanos, usize)> {
        self.heap.pop().map(|Reverse((t, _, idx))| (t, idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ns(v: u64) -> Nanos {
        Nanos(v)
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut h = WakeHeap::with_capacity(4);
        h.push(ns(30), 0);
        h.push(ns(10), 1);
        h.push(ns(10), 2);
        h.push(ns(20), 3);
        let order: Vec<usize> = std::iter::from_fn(|| h.pop()).map(|(_, idx)| idx).collect();
        assert_eq!(order, vec![1, 2, 3, 0]);
        assert!(h.pop().is_none());
    }

    /// Interleaved push/pop agrees with a `BinaryHeap<Reverse<..>>` keyed
    /// by an explicit insertion counter on a pseudo-random schedule, so the
    /// queue's own `seq` bookkeeping is exactly insertion order.
    #[test]
    fn matches_std_binary_heap_ordering() {
        let n = 64;
        let mut ours = WakeHeap::with_capacity(n);
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
            ours.push(t, idx);
            std_heap.push(Reverse((t, seq, idx)));
            seq += 1;
        }
        // Pop everything, re-pushing each popped index once with a later
        // time, like a process scheduling its next wake.
        let mut repushed = vec![false; n];
        loop {
            match (ours.pop(), std_heap.pop()) {
                (None, None) => break,
                (Some(got), Some(Reverse((t, _, i)))) => {
                    assert_eq!(got, (t, i));
                    if !repushed[i] {
                        repushed[i] = true;
                        let nt = t + bps_core::time::Dur(next() % 100);
                        ours.push(nt, i);
                        std_heap.push(Reverse((nt, seq, i)));
                        seq += 1;
                    }
                }
                other => panic!("heaps disagree on emptiness: {other:?}"),
            }
        }
    }
}
