//! The declarative scenario engine: experiments as data, not code.
//!
//! Every sweep in the evaluation — and any user-authored experiment — is
//! a [`Scenario`](spec::Scenario): a serializable value naming a base
//! case (storage + workload + middleware knobs), a case grid that varies
//! it, the output to score, and the Table-1 expectations. The
//! [`engine`] expands the grid against a scale preset, fans the cases
//! through the parallel sweep executor, and scores the result; the
//! [`registry`] holds the bundled figures by name.
//!
//! `reproduce list` prints the registry, `reproduce run <name>` runs one
//! bundled scenario, and `reproduce run <path.json>` runs a scenario
//! from a JSON file with zero code changes — see `examples/scenarios/`.

pub mod engine;
pub mod registry;
pub mod spec;
pub mod store;

pub use engine::{expand, EngineError, ResolvedCase, ScenarioOutput};
pub use spec::Scenario;
