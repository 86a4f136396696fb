//! Composable I/O stack topologies.
//!
//! Every experiment in this repository simulates the same vertical path: an
//! application workload issues requests, zero or more middleware layers
//! transform them (collective exchange, data sieving, read-ahead), a file
//! system maps them onto servers, a network carries remote chunks, and a
//! device executes them. Historically that path was hardcoded in the
//! experiment runner; this crate re-expresses it as a *component graph* —
//! a linear chain of typed nodes that can be declared as data:
//!
//! ```text
//! Workload -> [Collective | Sieving | Prefetch]* -> {LocalFs | Pfs} -> Net -> Device
//! ```
//!
//! The pieces:
//!
//! * [`NodeSpec`] — one node, the only per-node type: what a scenario
//!   JSON `"topology"` array contains, its typed input and output ports,
//!   and the one-line description `reproduce topology` prints.
//! * [`TopologySpec`] — an ordered list of nodes plus validation that the
//!   chain is well-typed (exactly one file system, middleware above it,
//!   `Net` only above a parallel file system, `Device` last) and that
//!   every duration and size fits its 64-bit engine unit.
//! * [`TopologySpec::build`] — lowers the validated nodes straight into
//!   the existing engine types ([`bps_middleware::stack::IoStack`] over
//!   [`bps_fs::cluster::Cluster`]), so a declared graph runs on exactly
//!   the same simulation loop as the historical hardcoded stacks.
//! * [`Storage`] and [`Layout`] — the storage configuration a case names
//!   and how a parallel file system places its stripes.
//!
//! The prebuilt graphs ([`Storage::default_topology`], built from
//! [`TopologySpec::local`] and [`TopologySpec::pfs`]) reproduce those
//! historical stacks node for node: an experiment that omits
//! `"topology"` gets a byte-identical run.

pub mod build;
pub mod spec;

pub use crate::build::{BuildEnv, BuiltStack, Layout};
pub use crate::spec::{NodeSpec, Storage, TopologySpec, VALID_COMPONENTS};

/// A topology that cannot be validated or built.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopologyError(pub String);

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TopologyError {}
