//! # bps-core — the BPS metric and its measurement algebra
//!
//! This crate implements the primary contribution of *"BPS: A Performance
//! Metric of I/O System"* (He, Sun, Yin — IPDPSW 2013):
//!
//! * [`record::IoRecord`] — the per-access record the paper's methodology
//!   captures in the I/O middleware layer (process id, size, start, end).
//! * [`interval`] — the overlapped I/O-time computation of the paper's
//!   Figure 2 (idle time excluded, concurrent accesses counted once),
//!   including both a faithful port of the Figure 3 pseudocode
//!   ([`interval::paper_union_time`]) and an independently implemented,
//!   property-tested maintained union ([`interval::IntervalSet`]).
//! * [`metrics`] — BPS itself (equation (1): `BPS = B / T`), plus the three
//!   conventional metrics the paper compares against (IOPS, bandwidth,
//!   average response time) and several extended diagnostics.
//! * [`correlation`] — the Pearson correlation-coefficient machinery
//!   (equation (2)) and the direction normalization of Table 1 used to score
//!   each metric against application execution time.
//!
//! The crate is deliberately free of any simulation or OS dependency: it
//! consumes [`trace::Trace`] values produced either by the `bps-sim`
//! simulated I/O stack or by the `bps-trace` real-file tracer.
//!
//! ## Quick example
//!
//! ```
//! use bps_core::prelude::*;
//!
//! // Two concurrent 1 MiB reads that fully overlap: BPS counts the wall
//! // time once, ARPT averages the two response times.
//! let mut trace = Trace::new();
//! for pid in 0..2 {
//!     trace.push(IoRecord::app_read(
//!         ProcessId(pid), FileId(0), 0, 1 << 20,
//!         Nanos::from_millis(0), Nanos::from_millis(10),
//!     ));
//! }
//! let bps = Bps.compute(&trace).unwrap();
//! // 2 MiB = 4096 blocks over 10 ms of overlapped I/O time.
//! assert_eq!(trace.app_blocks(), 4096);
//! assert!((bps - 4096.0 / 0.010).abs() < 1e-6);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod block;
pub mod correlation;
pub mod error;
pub mod extent;
pub mod interval;
pub mod metrics;
pub mod record;
pub mod report;
pub mod sink;
pub mod time;
pub mod trace;
pub mod window;

/// Convenient glob-import surface for downstream crates and examples.
pub mod prelude {
    pub use crate::batch::RecordBatch;
    pub use crate::block::{blocks_for_bytes, BLOCK_SIZE};
    pub use crate::correlation::{normalized_cc, pearson, CcOutcome};
    pub use crate::extent::Extent;
    pub use crate::interval::{Interval, IntervalSet};
    pub use crate::metrics::{
        paper_metrics, registry, Arpt, Bandwidth, Bps, Direction, FoldNeeds, Iops, Metric,
        MetricFold, MetricRegistry, MetricSelection, UnknownMetric,
    };
    pub use crate::record::{FileId, IoOp, IoRecord, Layer, ProcessId};
    pub use crate::report::MetricsSummary;
    pub use crate::sink::{RecordSink, StreamingMetrics};
    pub use crate::time::{Dur, Nanos};
    pub use crate::trace::Trace;
    pub use crate::window::windowed_series;
}
