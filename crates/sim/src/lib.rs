//! # bps-sim — deterministic discrete-event I/O substrate
//!
//! The paper evaluated BPS on a 65-node cluster (GigE, 7200 RPM SATA HDDs,
//! a PCI-E SSD, PVFS2 with 1–8 I/O servers). This crate replaces that
//! hardware with a virtual-time simulation precise enough to reproduce every
//! qualitative result of the evaluation:
//!
//! * [`engine`] — the event loop. Simulated *processes* wake in global time
//!   order; each wake lets a process issue its next I/O through the
//!   environment and schedule its own next wake.
//! * [`resource`] — analytic FIFO resources. A non-preemptive FIFO queue's
//!   completion times are exactly `max(arrival, busy_until) + service`, so
//!   queues need no per-event machinery; this keeps the simulator exact,
//!   fast, and trivially deterministic.
//! * [`device`] — HDD (seek + rotation + streaming transfer + per-request
//!   controller overhead, with head-position state) and SSD (fixed low
//!   per-op latency, channel parallelism) block-device models.
//! * [`net`] — links (latency + bandwidth serialization) and a shared
//!   switch, modeling the cluster's Gigabit Ethernet.
//! * [`rng`] — seeded RNG with log-normal service-time jitter, so the
//!   "5 runs, report the average" protocol of the paper is meaningful.
//! * [`fault`] — declarative, seeded fault injection (stragglers, transient
//!   device errors, lossy links, outages) consulted by the cluster on every
//!   grant; `FaultPlan::none()` is bit-for-bit neutral.
//!
//! Determinism: all state is integer nanoseconds, the event heap tie-breaks
//! on (time, sequence), and all randomness flows from one seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod device;
pub mod engine;
pub mod fault;
mod heap;
pub mod net;
pub mod resource;
pub mod rng;

pub use engine::{run_processes, Process, RunOutcome, Wake};
pub use fault::{FaultInjector, FaultPlan};
pub use rng::SimRng;
