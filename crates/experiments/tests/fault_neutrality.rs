//! Fault-injection neutrality and determinism.
//!
//! Two guarantees guard the fault subsystem:
//!
//! 1. **Neutrality** — `FaultPlan::none()` (the default on every
//!    `CaseSpec` and `ClusterConfig`) is *bit-for-bit* invisible: the
//!    sweep JSON below was captured from the tree **before** the fault
//!    subsystem existed, and the default path must keep reproducing it
//!    exactly. The injector draws its randomness from a stream independent
//!    of the cluster's master RNG and never touches it while every rate is
//!    zero, so this holds to the last bit, not within a tolerance.
//! 2. **Determinism** — the same fault plan and run seeds reproduce
//!    identical degraded results at any thread count.

use bps_core::time::{Dur, Nanos};
use bps_experiments::runner::{CasePoint, CaseSpec, Storage};
use bps_experiments::sweep::SweepExec;
use bps_sim::fault::{FaultPlan, Outage, Slowdown};
use bps_workloads::iozone::Iozone;
use proptest::prelude::*;

/// Serialized sweep output captured on the pre-fault tree (commit "Stream
/// metrics incrementally and parallelize sweeps"), same cases and seeds as
/// below. Any drift here means the healthy path is no longer the pre-fault
/// path.
const GOLDEN_SWEEP_JSON: &str = "[{\"label\":\"hdd-small\",\"iops\":303.9253246240201,\"bw\":79.67220029823913,\"arpt\":0.0032903635000000003,\"bps\":155609.7662074983,\"exec_s\":0.026362908},{\"label\":\"ssd-small\",\"iops\":649.2060178482678,\"bw\":170.1854623428163,\"arpt\":0.0015404251666666666,\"bps\":332393.48113831313,\"exec_s\":0.012363401333333334},{\"label\":\"pvfs-2\",\"iops\":87.30744506358985,\"bw\":91.94988804974197,\"arpt\":0.011453806583333332,\"bps\":178805.64749023202,\"exec_s\":0.04583522633333333}]";

/// Average every case over `seeds` with [`SweepExec::run_one`], in input
/// order.
fn sweep(threads: usize, cases: &[(&str, CaseSpec<'_>)], seeds: &[u64]) -> Vec<CasePoint> {
    let exec = SweepExec::new(threads);
    cases
        .iter()
        .map(|(label, spec)| exec.run_one(*label, spec, seeds))
        .collect()
}

fn sweep_json_with(fault: impl Fn() -> FaultPlan) -> String {
    let w_small = Iozone::seq_read(2 << 20, 256 << 10);
    let w_large = Iozone::seq_read(4 << 20, 1 << 20);
    let cases = vec![
        (
            "hdd-small",
            CaseSpec {
                fault: fault(),
                ..CaseSpec::new(Storage::Hdd, &w_small)
            },
        ),
        (
            "ssd-small",
            CaseSpec {
                fault: fault(),
                ..CaseSpec::new(Storage::Ssd, &w_small)
            },
        ),
        (
            "pvfs-2",
            CaseSpec {
                fault: fault(),
                ..CaseSpec::new(Storage::Pvfs { servers: 2 }, &w_large)
            },
        ),
    ];
    let points = sweep(2, &cases, &[1, 2, 3]);
    serde_json::to_string(&points).expect("CasePoint serializes")
}

#[test]
fn none_plan_reproduces_the_pre_fault_golden_output() {
    assert_eq!(
        sweep_json_with(FaultPlan::none),
        GOLDEN_SWEEP_JSON,
        "FaultPlan::none() must be bit-for-bit neutral vs the pre-fault tree"
    );
}

/// One cheap run (single case, single seed) for the seed-irrelevance
/// property below.
fn quick_run_json(fault: FaultPlan) -> String {
    let w = Iozone::seq_read(1 << 20, 256 << 10);
    let cases = vec![(
        "hdd-quick",
        CaseSpec {
            fault,
            ..CaseSpec::new(Storage::Hdd, &w)
        },
    )];
    serde_json::to_string(&sweep(1, &cases, &[1])).expect("CasePoint serializes")
}

proptest! {
    /// The *seed* of an all-zero-rate plan is irrelevant: with nothing to
    /// inject, the RNG is never drawn from, so every seed produces the
    /// same bits as the unseeded none-plan.
    #[test]
    fn none_plan_seed_is_irrelevant(seed in any::<u64>()) {
        use std::sync::OnceLock;
        static REFERENCE: OnceLock<String> = OnceLock::new();
        let reference = REFERENCE.get_or_init(|| quick_run_json(FaultPlan::none()));
        let json = quick_run_json(FaultPlan { seed, ..FaultPlan::none() });
        prop_assert_eq!(&json, reference);
    }
}

fn degraded_plan() -> FaultPlan {
    FaultPlan {
        seed: 0xFA_57,
        ..FaultPlan::none()
    }
    .with_slowdown(Slowdown {
        server: 0,
        factor: 2.5,
    })
    .with_device_errors(0.05)
    .with_link_loss(0.02, Dur::from_millis(2))
    .with_outage(Outage {
        server: 1,
        start: Nanos::from_millis(5),
        end: Nanos::from_millis(9),
    })
}

fn degraded_sweep_json(threads: usize) -> String {
    let w = Iozone::seq_read(4 << 20, 1 << 20);
    let cases = vec![(
        "pvfs-2-degraded",
        CaseSpec {
            fault: degraded_plan(),
            ..CaseSpec::new(Storage::Pvfs { servers: 2 }, &w)
        },
    )];
    let points = sweep(threads, &cases, &[1, 2, 3]);
    serde_json::to_string(&points).expect("CasePoint serializes")
}

#[test]
fn same_fault_seed_is_deterministic_across_thread_counts() {
    let one = degraded_sweep_json(1);
    let four = degraded_sweep_json(4);
    assert_eq!(
        one, four,
        "degraded runs must not depend on the thread count"
    );
    // And a rerun at the same thread count is byte-identical.
    assert_eq!(four, degraded_sweep_json(4));
}

#[test]
fn faults_actually_degrade_the_run() {
    let healthy = sweep_json_with(FaultPlan::none);
    let w = Iozone::seq_read(4 << 20, 1 << 20);
    let cases = vec![(
        "pvfs-2",
        CaseSpec {
            fault: degraded_plan(),
            ..CaseSpec::new(Storage::Pvfs { servers: 2 }, &w)
        },
    )];
    let degraded = sweep(2, &cases, &[1, 2, 3]);
    #[derive(serde::Deserialize)]
    struct Point {
        exec_s: f64,
    }
    let healthy_points: Vec<Point> = serde_json::from_str(&healthy).expect("golden parses");
    let healthy_exec = healthy_points[2].exec_s;
    assert!(
        degraded[0].exec_s > healthy_exec,
        "faults should lengthen the run: degraded {} vs healthy {healthy_exec}",
        degraded[0].exec_s
    );
}
