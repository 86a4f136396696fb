//! # bps-experiments — reproducing every table and figure
//!
//! One module per experiment in the paper's evaluation (§IV), each
//! assembling the simulated cluster, the benchmark workload, and the BPS
//! measurement pipeline, then reporting the same rows/series the paper
//! plots. The `reproduce` binary prints them:
//!
//! ```text
//! cargo run -p bps-experiments --release --bin reproduce -- all
//! cargo run -p bps-experiments --release --bin reproduce -- fig12
//! cargo run -p bps-experiments --release --bin reproduce -- fig5 --paper
//! ```
//!
//! Absolute numbers are simulator-scale, not the authors' testbed; the
//! reproduction is judged on the *shape*: correlation directions, who
//! misleads where, and approximate strengths (see EXPERIMENTS.md).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod export;
pub mod figures;
pub mod journal;
pub mod reference;
pub mod runner;
pub mod scale;
pub mod scenario;
pub mod supervise;
pub mod sweep;

pub use runner::{run_case, run_case_streaming, CasePoint, CaseSpec, LayoutPolicy, Storage};
pub use scale::Scale;
pub use supervise::{FailureKind, UnitFailure};
pub use sweep::SweepExec;
