//! # bps-fs — simulated local and parallel file systems
//!
//! The paper's testbed accessed data through a local file system (on HDD or
//! SSD) and through PVFS2 striped over 1–8 I/O servers. This crate builds
//! both on top of `bps-sim`:
//!
//! * [`layout`] — PVFS-style round-robin stripe mapping, including the
//!   per-file layout attributes the paper sets in §IV.C.3 to pin each file
//!   to a single I/O server ("we limited each file to locate on one I/O
//!   server by setting the file stripe layout attributes").
//! * [`cluster`] — the simulated machines: client nodes and I/O server
//!   nodes (NIC links + device + server CPU cost) joined by a switch, plus
//!   the shared [`bps_core::trace::Trace`] into which every layer records.
//! * [`localfs`] — a local file system: per-op syscall/FS overhead in front
//!   of one device, contiguous extent allocation.
//! * [`pfs`] — the PVFS2-like parallel file system client: splits requests
//!   into per-server chunks, issues them concurrently, completes at the
//!   last chunk.
//!
//! The file systems model timing only and never hold file contents.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod file;
pub mod layout;
pub mod localfs;
pub mod pfs;

pub use cluster::{Cluster, ClusterConfig};
pub use layout::{Chunk, StripeLayout};
pub use localfs::LocalFs;
pub use pfs::ParallelFs;
