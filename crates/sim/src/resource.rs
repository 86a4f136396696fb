//! Analytic FIFO resources.
//!
//! Every contended element of the simulated I/O path — a disk, a NIC, a
//! switch backplane, a server CPU — is a non-preemptive FIFO server. For
//! such a server, given arrivals in nondecreasing time order (which the
//! engine guarantees), the service start of a request is exactly
//! `max(arrival, busy_until)` and its completion is `start + service_time`.
//! No event machinery is needed; a single `busy_until` register per resource
//! suffices, which makes the simulation exact, O(1) per request, and
//! trivially deterministic.

use bps_core::time::{Dur, Nanos};

/// A transfer rate in bytes per second that prices each size once.
///
/// [`price`](ByteRate::price) returns exactly `Dur::for_bytes(bytes,
/// rate)`, and remembers the last two sizes it priced, so the conversion
/// runs only on a size change. Two entries, because a switch carries a
/// small request and then a large reply for every chunk. The rate is fixed
/// at construction, so the memo can never go stale.
#[derive(Debug, Clone)]
pub struct ByteRate {
    rate: u64,
    /// Most recent size first. `(0, ZERO)` is exact: zero bytes take no
    /// time at any rate.
    memo: [(u64, Dur); 2],
}

impl ByteRate {
    /// A rate of `rate` bytes per second.
    pub fn new(rate: u64) -> Self {
        ByteRate {
            rate,
            memo: [(0, Dur::ZERO); 2],
        }
    }

    /// The rate in bytes per second.
    pub fn rate(&self) -> u64 {
        self.rate
    }

    /// Time to move `bytes` at this rate: `Dur::for_bytes(bytes, rate)`.
    #[inline]
    pub fn price(&mut self, bytes: u64) -> Dur {
        if self.memo[0].0 == bytes {
            return self.memo[0].1;
        }
        if self.memo[1].0 == bytes {
            self.memo.swap(0, 1);
            return self.memo[0].1;
        }
        let d = Dur::for_bytes(bytes, self.rate);
        self.memo = [(bytes, d), self.memo[0]];
        d
    }
}

/// A single non-preemptive FIFO server.
#[derive(Debug, Clone, Default)]
pub struct FifoResource {
    busy_until: Nanos,
}

/// Timing of one request through a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service began (≥ arrival).
    pub start: Nanos,
    /// When service completed.
    pub end: Nanos,
}

impl FifoResource {
    /// A fresh, idle resource.
    pub fn new() -> Self {
        FifoResource::default()
    }

    /// Serve a request arriving at `arrival` needing `service` time.
    ///
    /// Arrivals must be issued in nondecreasing time order (the engine's
    /// wake ordering provides this); violating it would silently model an
    /// impossible preemption, so it is checked.
    pub fn acquire(&mut self, arrival: Nanos, service: Dur) -> Grant {
        let start = arrival.max(self.busy_until);
        let end = start + service;
        self.busy_until = end;
        Grant { start, end }
    }

    /// The instant the resource next becomes free.
    pub fn busy_until(&self) -> Nanos {
        self.busy_until
    }
}

/// `k` identical FIFO servers fed from one queue (an SSD's internal
/// channels, a multi-lane PCIe link). A request is served by the channel
/// that frees up first.
#[derive(Debug, Clone)]
pub struct MultiChannel {
    channels: Vec<FifoResource>,
}

impl MultiChannel {
    /// Build with `k ≥ 1` channels.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "a resource needs at least one channel");
        MultiChannel {
            channels: vec![FifoResource::new(); k],
        }
    }

    /// Serve a request on the earliest-free channel.
    pub fn acquire(&mut self, arrival: Nanos, service: Dur) -> Grant {
        let idx = self
            .channels
            .iter()
            .enumerate()
            .min_by_key(|(_, c)| c.busy_until())
            .map(|(i, _)| i)
            .expect("at least one channel");
        self.channels[idx].acquire(arrival, service)
    }

    /// The instant every channel is free: the latest grant end so far
    /// (`Nanos::ZERO` before the first grant).
    pub fn busy_until(&self) -> Nanos {
        self.channels
            .iter()
            .map(FifoResource::busy_until)
            .max()
            .expect("at least one channel")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Nanos {
        Nanos::from_millis(v)
    }
    fn dms(v: u64) -> Dur {
        Dur::from_millis(v)
    }

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = FifoResource::new();
        let g = r.acquire(ms(5), dms(3));
        assert_eq!(g.start, ms(5));
        assert_eq!(g.end, ms(8));
    }

    #[test]
    fn busy_resource_queues() {
        let mut r = FifoResource::new();
        r.acquire(ms(0), dms(10));
        let g = r.acquire(ms(2), dms(5));
        assert_eq!(g.start, ms(10));
        assert_eq!(g.end, ms(15));
        assert_eq!(r.busy_until(), ms(15));
    }

    #[test]
    fn gap_leaves_resource_idle() {
        let mut r = FifoResource::new();
        r.acquire(ms(0), dms(1));
        assert_eq!(r.busy_until(), ms(1));
        let g = r.acquire(ms(5), dms(1));
        assert_eq!(g.start, ms(5));
        assert_eq!(r.busy_until(), ms(6));
    }

    #[test]
    fn fifo_order_preserved() {
        let mut r = FifoResource::new();
        let a = r.acquire(ms(0), dms(4));
        let b = r.acquire(ms(1), dms(4));
        let c = r.acquire(ms(2), dms(4));
        assert!(a.end <= b.start && b.end <= c.start);
    }

    #[test]
    fn multichannel_parallelism() {
        let mut m = MultiChannel::new(2);
        let a = m.acquire(ms(0), dms(10));
        let b = m.acquire(ms(0), dms(10));
        // Two channels: both start immediately.
        assert_eq!(a.start, ms(0));
        assert_eq!(b.start, ms(0));
        // Third request waits for the first free channel.
        let c = m.acquire(ms(1), dms(10));
        assert_eq!(c.start, ms(10));
        assert_eq!(c.end, ms(20));
        assert_eq!(m.busy_until(), ms(20));
        assert_eq!(m.channels.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_rejected() {
        let _ = MultiChannel::new(0);
    }
}
