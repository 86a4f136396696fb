//! Property tests for the scenario layer: specs survive JSON round-trips,
//! grids expand deterministically, and running a scenario is independent
//! of the sweep's thread count.

use bps_experiments::scale::Scale;
use bps_experiments::scenario::engine::{self, RunOpts};
use bps_experiments::scenario::spec::{
    CaseDecl, CaseTemplate, Expect, Grid, Num, OutputSpec, Patch, Scenario, StorageSpec,
    WorkloadTemplate,
};
use bps_experiments::sweep::SweepExec;
use bps_workloads::iozone::IozoneMode;
use bps_workloads::synthetic::Pattern;
use bps_workloads::WorkloadSpec;
use proptest::prelude::*;

fn iozone_mode(idx: usize) -> IozoneMode {
    [
        IozoneMode::SeqRead,
        IozoneMode::SeqWrite,
        IozoneMode::ReRead,
        IozoneMode::ReWrite,
        IozoneMode::RandomRead,
        IozoneMode::BackwardRead,
    ][idx % 6]
}

fn workload_spec(kind: usize, a: u64, b: u64, procs: usize, flag: bool) -> WorkloadSpec {
    match kind % 4 {
        0 => WorkloadSpec::Iozone {
            mode: iozone_mode(kind),
            file_size: a,
            record_size: b,
            processes: procs,
            seed: a ^ b,
        },
        1 => WorkloadSpec::Ior {
            file_size: a,
            transfer_size: b,
            processes: procs,
            write: flag,
        },
        2 => WorkloadSpec::Hpio {
            region_count: a % 10_000,
            region_size: 1 + b % 4096,
            region_spacing: a % 4096,
            regions_per_call: 1 + b % 512,
            processes: procs,
            collective: flag,
        },
        _ => WorkloadSpec::Synthetic {
            file_size: a,
            record_size: b,
            ops_per_process: 1 + a % 100,
            read_fraction: (a % 101) as f64 / 100.0,
            pattern: if flag {
                Pattern::Zipf {
                    exponent: 0.5 + (a % 10) as f64 / 10.0,
                }
            } else {
                Pattern::Uniform
            },
            processes: procs,
            think_time_us: b % 50,
            burst_len: a % 8,
            seed: b,
        },
    }
}

/// A small storage choice by index.
fn storage(idx: usize) -> StorageSpec {
    match idx % 3 {
        0 => StorageSpec::Hdd,
        1 => StorageSpec::Ssd,
        _ => StorageSpec::Pvfs {
            servers: 1 + idx % 4,
        },
    }
}

/// A scenario over a record-size x process-count grid of tiny IOzone runs.
fn grid_scenario(
    storage_idx: usize,
    file_kb: u64,
    record_sizes: &[u64],
    process_counts: &[usize],
) -> Scenario {
    let dims = vec![
        record_sizes
            .iter()
            .map(|&rs| {
                CaseDecl::new(
                    format!("r{rs}"),
                    Patch {
                        record_size: Some(rs),
                        ..Patch::none()
                    },
                )
            })
            .collect::<Vec<_>>(),
        process_counts
            .iter()
            .map(|&np| {
                CaseDecl::new(
                    format!("np{np}"),
                    Patch {
                        processes: Some(np),
                        ..Patch::none()
                    },
                )
            })
            .collect::<Vec<_>>(),
    ];
    Scenario {
        name: "prop".to_string(),
        title: "property-generated sweep".to_string(),
        output: OutputSpec::Cc,
        base: CaseTemplate::new(
            storage(storage_idx),
            WorkloadTemplate::Iozone {
                mode: IozoneMode::SeqRead,
                file_size: Num::Abs { n: file_kb << 10 },
                record_size: Num::Abs { n: 4 << 10 },
                processes: 1,
                seed: 0,
            },
        ),
        grid: Grid { dims },
        metrics: Vec::new(),
        deadline_ms: None,
        expect: vec![Expect::correct_direction("BPS")],
        verdict: None,
    }
}

proptest! {
    /// Every `WorkloadSpec` shape survives JSON serialization unchanged.
    #[test]
    fn workload_spec_round_trips(
        kind in 0usize..16,
        a in 1u64..10_000_000,
        b in 1u64..1_000_000,
        procs in 1usize..16,
        flag in 0usize..2,
    ) {
        let spec = workload_spec(kind, a, b, procs, flag == 1);
        let json = serde_json::to_string(&spec).unwrap();
        let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, spec);
    }

    /// Every generated scenario survives JSON round-trips, and expansion is
    /// a pure function: same scenario, same scale, same cases — with the
    /// full cross product of labels, in row-major order.
    #[test]
    fn scenario_round_trips_and_expands_deterministically(
        storage_idx in 0usize..6,
        file_kb in 16u64..256,
        n_rs in 1usize..4,
        n_np in 1usize..4,
    ) {
        let record_sizes: Vec<u64> = (0..n_rs).map(|i| 4u64 << (10 + i)).collect();
        let process_counts: Vec<usize> = (1..=n_np).collect();
        let sc = grid_scenario(storage_idx, file_kb, &record_sizes, &process_counts);

        let json = serde_json::to_string(&sc).unwrap();
        let back: Scenario = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &sc);

        let scale = Scale::tiny();
        let once = engine::expand(&sc, &scale).unwrap();
        let twice = engine::expand(&back, &scale).unwrap();
        prop_assert_eq!(&once, &twice);
        prop_assert_eq!(once.len(), n_rs * n_np);
        let labels: Vec<&str> = once.iter().map(|c| c.label.as_str()).collect();
        for (i, rs) in record_sizes.iter().enumerate() {
            for (j, np) in process_counts.iter().enumerate() {
                prop_assert_eq!(labels[i * n_np + j], format!("r{rs}/np{np}"));
            }
        }
    }

    /// Running a scenario is byte-identical at 1 and N sweep threads.
    #[test]
    fn run_is_thread_count_invariant(
        storage_idx in 0usize..6,
        file_kb in 16u64..128,
        threads in 2usize..5,
    ) {
        let sc = grid_scenario(storage_idx, file_kb, &[4 << 10, 64 << 10], &[1]);
        let scale = Scale::tiny();
        let seq = engine::run_with_opts(&sc, &scale, SweepExec::new(1), true, &RunOpts::default()).unwrap();
        let par = engine::run_with_opts(&sc, &scale, SweepExec::new(threads), true, &RunOpts::default()).unwrap();
        prop_assert_eq!(format!("{seq}"), format!("{par}"));
        let (seq, par) = (seq.into_cc(), par.into_cc());
        for (a, b) in seq.cases.iter().zip(&par.cases) {
            prop_assert_eq!(a.exec_s.to_bits(), b.exec_s.to_bits());
            prop_assert_eq!(a.bps.to_bits(), b.bps.to_bits());
            prop_assert_eq!(a.iops.to_bits(), b.iops.to_bits());
        }
    }
}
