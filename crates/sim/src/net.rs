//! Network model: point-to-point links and a shared switch.
//!
//! The paper's cluster interconnect is Gigabit Ethernet. A transfer over a
//! [`Link`] pays propagation + protocol latency once and then serializes its
//! bytes through the link's bandwidth (a FIFO resource, so concurrent
//! transfers on the same NIC queue behind each other). NICs carry
//! homogeneous traffic (a server NIC's outbound side sees only replies, its
//! inbound side only requests), so the analytic FIFO's
//! acquire-order-equals-arrival-order assumption holds to within
//! sub-millisecond skew.
//!
//! The [`Switch`] is different: *every* message crosses it — early requests
//! and late replies interleaved — so a FIFO there would let an operation
//! computed in one engine wake push the backplane's `busy_until` into the
//! future and falsely serialize other processes' earlier messages behind
//! it. The switch is therefore modeled as a causal delay element:
//! forwarding latency + backplane serialization + a soft congestion penalty
//! driven by an exponentially decaying message-rate estimate. At the
//! paper's scales the penalty is tens of microseconds — invisible to
//! throughput, but it gives ARPT the gentle upward drift under concurrency
//! that the paper's Figure 10 shows.

use crate::resource::{ByteRate, FifoResource, Grant};
use bps_core::time::{Dur, Nanos};

/// A simplex point-to-point link (one NIC direction).
#[derive(Debug, Clone)]
pub struct Link {
    latency: Dur,
    rate: ByteRate,
    queue: FifoResource,
}

impl Link {
    /// Build from one-way latency and bandwidth in bytes/second.
    pub fn new(latency: Dur, bandwidth: u64) -> Self {
        assert!(bandwidth > 0, "link bandwidth must be positive");
        Link {
            latency,
            rate: ByteRate::new(bandwidth),
            queue: FifoResource::new(),
        }
    }

    /// Gigabit Ethernet as deployed in the paper's cluster: ~117 MB/s of
    /// goodput and ~80 µs of stack + propagation latency.
    pub fn gigabit_ethernet() -> Self {
        Link::new(Dur::from_micros(80), 117_000_000)
    }

    /// Transfer `bytes` arriving at the NIC at `arrival`. Returns the
    /// instant the last byte is delivered at the far end: queueing +
    /// serialization, then latency.
    pub fn transfer(&mut self, arrival: Nanos, bytes: u64) -> Nanos {
        let serialization = self.rate.price(bytes);
        let g: Grant = self.queue.acquire_bytes(arrival, serialization, bytes);
        g.end + self.latency
    }

    /// Bandwidth in bytes/second.
    pub fn bandwidth(&self) -> u64 {
        self.rate.rate()
    }

    /// Short human description, e.g. `117 MB/s, 80.00us one-way`
    /// (topology renderers, debug output).
    pub fn describe(&self) -> String {
        format!(
            "{} MB/s, {} one-way",
            self.bandwidth() / 1_000_000,
            self.latency
        )
    }
}

/// A shared switch backplane all transfers cross (see module docs for why
/// it is a delay element, not a queue).
#[derive(Debug, Clone)]
pub struct Switch {
    forwarding: Dur,
    aggregate_bandwidth: ByteRate,
    /// Extra delay per concurrently active message.
    congestion_per_msg: Dur,
    /// Decay window of the message-rate estimator.
    window: Dur,
    /// Exponentially decayed count of recent messages.
    recent_load: f64,
    /// Anchor of the last decay update (monotone).
    last_update: Nanos,
}

impl Switch {
    /// Build from per-message forwarding cost and aggregate bandwidth.
    pub fn new(forwarding: Dur, aggregate_bandwidth: u64) -> Self {
        assert!(aggregate_bandwidth > 0, "switch bandwidth must be positive");
        Switch {
            forwarding,
            aggregate_bandwidth: ByteRate::new(aggregate_bandwidth),
            congestion_per_msg: Dur::from_micros(4),
            window: Dur::from_millis(1),
            recent_load: 0.0,
            last_update: Nanos::ZERO,
        }
    }

    /// A 48-port GigE switch of the era: ~10 µs forwarding, ~6 GB/s
    /// backplane.
    pub fn gigabit_cluster() -> Self {
        Switch::new(Dur::from_micros(10), 6_000_000_000)
    }

    /// Forward `bytes` through the backplane at `arrival`; returns egress
    /// completion.
    pub fn forward(&mut self, arrival: Nanos, bytes: u64) -> Nanos {
        // Decay the load estimate. Arrivals may be slightly out of order
        // (bounded path skew); anchor decay monotonically. An arrival at or
        // before the anchor decays by exp(-0) = 1 and an empty estimate
        // stays empty, so both skip the exponential without changing a bit.
        if arrival > self.last_update {
            if self.recent_load != 0.0 {
                let dt = arrival.since(self.last_update).as_secs_f64();
                let w = self.window.as_secs_f64();
                self.recent_load *= (-dt / w).exp();
            }
            self.last_update = arrival;
        }
        let penalty = Dur::from_secs_f64(self.congestion_per_msg.as_secs_f64() * self.recent_load);
        self.recent_load += 1.0;
        arrival + self.forwarding + self.aggregate_bandwidth.price(bytes) + penalty
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_plus_serialization() {
        let mut l = Link::new(Dur::from_micros(100), 1_000_000); // 1 MB/s
        let done = l.transfer(Nanos::ZERO, 1_000_000);
        // 1 s serialization + 100 us latency.
        assert_eq!(done, Nanos(1_000_100_000));
    }

    #[test]
    fn concurrent_transfers_serialize() {
        let mut l = Link::new(Dur::ZERO, 1_000_000);
        let a = l.transfer(Nanos::ZERO, 500_000);
        let b = l.transfer(Nanos::ZERO, 500_000);
        assert_eq!(a, Nanos::from_millis(500));
        assert_eq!(b, Nanos::from_millis(1000));
    }

    #[test]
    fn gige_goodput_shape() {
        let mut l = Link::gigabit_ethernet();
        // 64 KB at ~117 MB/s ≈ 560 us + 80 us latency.
        let done = l.transfer(Nanos::ZERO, 64 << 10);
        let secs = (done - Nanos::ZERO).as_secs_f64();
        assert!((0.0005..0.0008).contains(&secs), "{secs}");
    }

    #[test]
    fn switch_is_cheap_at_low_load() {
        let mut s = Switch::gigabit_cluster();
        let done = s.forward(Nanos::ZERO, 64 << 10);
        // ~10 us forwarding + ~11 us backplane, no congestion yet.
        assert!(done < Nanos(40_000), "{done}");
    }

    #[test]
    fn switch_does_not_falsely_serialize() {
        // Two messages at the same instant: both complete at (almost) the
        // same time — the switch is a delay element, not a queue.
        let mut s = Switch::gigabit_cluster();
        let a = s.forward(Nanos::ZERO, 64 << 10);
        let b = s.forward(Nanos::ZERO, 64 << 10);
        // b pays only the small congestion penalty over a.
        assert!(b.since(a) < Dur::from_micros(10), "{a} {b}");
    }

    #[test]
    fn congestion_penalty_grows_with_load() {
        let mut s = Switch::gigabit_cluster();
        let lone = s.forward(Nanos::ZERO, 1024).since(Nanos::ZERO);
        // Hammer the switch within one window.
        for i in 0..100 {
            s.forward(Nanos(i * 1_000), 1024);
        }
        let loaded = s.forward(Nanos(100_000), 1024).since(Nanos(100_000));
        assert!(loaded > lone + Dur::from_micros(50), "{lone} vs {loaded}");
        assert!(s.recent_load > 50.0);
    }

    #[test]
    fn congestion_decays_when_quiet() {
        let mut s = Switch::gigabit_cluster();
        for i in 0..100 {
            s.forward(Nanos(i * 1_000), 1024);
        }
        // After 100 windows of silence the penalty is gone.
        let calm = s
            .forward(Nanos::from_millis(200), 1024)
            .since(Nanos::from_millis(200));
        assert!(calm < Dur::from_micros(25), "{calm}");
    }

    /// Skipping the exponential when nothing decays gives bit for bit
    /// what decaying on every arrival gave, with out-of-order arrivals,
    /// repeated instants and idle gaps.
    #[test]
    fn decay_skip_matches_decaying_every_arrival() {
        let mut s = Switch::gigabit_cluster();
        let (mut load, mut anchor) = (0.0f64, Nanos::ZERO);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut t = 0u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t += x % 50_000;
            let arrival = Nanos(t.saturating_sub(x >> 60 << 12));
            let bytes = x >> 44;
            // The decay as written before the shortcut.
            let at = anchor.max(arrival);
            load *= (-at.since(anchor).as_secs_f64() / 1e-3).exp();
            anchor = at;
            let want = arrival
                + Dur::from_micros(10)
                + Dur::for_bytes(bytes, 6_000_000_000)
                + Dur::from_secs_f64(4e-6 * load);
            load += 1.0;
            assert_eq!(s.forward(arrival, bytes), want);
            assert_eq!(s.recent_load.to_bits(), load.to_bits());
        }
    }

    #[test]
    fn out_of_order_arrival_is_tolerated() {
        let mut s = Switch::gigabit_cluster();
        s.forward(Nanos::from_millis(10), 1024);
        // An arrival slightly in the past still gets a sane, causal result.
        let done = s.forward(Nanos::from_millis(9), 1024);
        assert!(done >= Nanos::from_millis(9));
        assert!(done < Nanos::from_millis(10));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_bandwidth_link_rejected() {
        let _ = Link::new(Dur::ZERO, 0);
    }
}
