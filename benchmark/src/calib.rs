//! The machine-speed reference the end-to-end times are scaled by.
//!
//! On a shared machine the speed of the same code drifts by tens of
//! percent from one minute to the next, with the neighbours' load. The
//! run times two fixed kernels in the parent right before and right
//! after every pass, on as many threads as the pass keeps busy, and
//! divides the pass's times by how much slower than nominal they ran
//! around it. The kernels are the benchmark's own code, so no change to
//! the library can speed them up.
//!
//! Neither kernel alone tracks the simulation: over 8 runs each of
//! `paper-quick` and `noncontig`, scaling by the event-queue kernel left
//! a 6–7 % spread of the run medians, and by the geometric mean of both
//! kernels 3 %.

use crate::inputs::splitmix;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// A typical reference sample on the machine the benchmark was defined
/// on (2 vCPUs at 2.1 GHz). End-to-end times are reported as if the
/// run's machine were that fast.
pub const NOMINAL_S: f64 = 0.007;

/// Words in the event-queue kernel's table (8 MiB) and in each buffer
/// of the allocation kernel (4 MiB).
const TABLE_WORDS: usize = 1 << 20;
const BUFFER_WORDS: usize = 1 << 19;

/// The reference kernels and the event-queue kernel's table.
pub struct Reference {
    table: Vec<u64>,
}

impl Reference {
    /// Build the table once; sampling does not rebuild it.
    pub fn new() -> Reference {
        Reference {
            table: (0..TABLE_WORDS as u64).map(splitmix).collect(),
        }
    }

    /// A binary-heap event queue over 64 tickers plus random reads of the
    /// table: the scheduler and memory traffic shape of a simulation.
    fn event_queue(&self) -> f64 {
        let t = Instant::now();
        let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..64).map(|p| Reverse((0, p))).collect();
        let mut x = 0x5EED_u64;
        let mut acc = 0u64;
        for _ in 0..150_000 {
            let Reverse((now, p)) = heap.pop().expect("the queue never empties");
            x = splitmix(x);
            acc = acc.wrapping_add(self.table[(x as usize) & (TABLE_WORDS - 1)] ^ now);
            heap.push(Reverse((now + 1_000 + (x & 0xFFFF), p)));
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    }

    /// Fresh 4 MiB buffers filled and dropped: allocation and first-touch
    /// page faults, which a fresh pass process pays too.
    fn allocation() -> f64 {
        let t = Instant::now();
        let mut acc = 0u64;
        for i in 0..16u64 {
            let buf: Vec<u64> = (0..BUFFER_WORDS as u64).map(|j| j ^ i).collect();
            acc = acc.wrapping_add(black_box(&buf)[(i as usize * 7919) % BUFFER_WORDS]);
        }
        black_box(acc);
        t.elapsed().as_secs_f64()
    }

    /// Seconds of `kernel` per thread, run on `threads` threads at once.
    fn on_threads(&self, threads: usize, kernel: impl Fn() -> f64 + Sync) -> f64 {
        let total: f64 = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(&kernel)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference thread panicked"))
                .sum()
        });
        total / threads as f64
    }

    /// One reference sample: the geometric mean of both kernels' seconds
    /// per thread, each run on `threads` threads at once.
    pub fn sample(&self, threads: usize) -> f64 {
        let queue = self.on_threads(threads, || self.event_queue());
        let alloc = self.on_threads(threads, Self::allocation);
        (queue * alloc).sqrt()
    }
}
