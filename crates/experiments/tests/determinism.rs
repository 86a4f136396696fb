//! Sweep determinism: the parallel executor must be invisible in the
//! results. A scenario run on one thread and the same run fanned over
//! many threads serialize to byte-identical JSON, and a same-seed rerun is
//! byte-identical too.

use bps_experiments::runner::{CaseSpec, Storage};
use bps_experiments::scale::Scale;
use bps_experiments::scenario::engine::{self, RunOpts};
use bps_experiments::scenario::spec::{
    CaseDecl, CaseTemplate, Grid, Num, OutputSpec, Patch, Scenario, StorageSpec, WorkloadTemplate,
};
use bps_experiments::sweep::SweepExec;
use bps_workloads::iozone::{Iozone, IozoneMode};

/// Three cases over two storage classes and two record sizes.
fn scenario() -> Scenario {
    let cell = |label: &str, storage: StorageSpec, record_size: Option<u64>| {
        CaseDecl::new(
            label,
            Patch {
                storage: Some(storage),
                record_size,
                ..Patch::none()
            },
        )
    };
    Scenario {
        name: "determinism".to_string(),
        title: "thread-count determinism".to_string(),
        output: OutputSpec::Cc,
        base: CaseTemplate::new(
            StorageSpec::Hdd,
            WorkloadTemplate::Iozone {
                mode: IozoneMode::SeqRead,
                file_size: Num::Abs { n: 2 << 20 },
                record_size: Num::Abs { n: 256 << 10 },
                processes: 1,
                seed: 0,
            },
        ),
        grid: Grid::single(vec![
            cell("hdd-small", StorageSpec::Hdd, None),
            cell("ssd-small", StorageSpec::Ssd, None),
            cell("pvfs-2", StorageSpec::Pvfs { servers: 2 }, Some(1 << 20)),
        ]),
        metrics: Vec::new(),
        deadline_ms: None,
        expect: Vec::new(),
        verdict: None,
    }
}

/// The scenario's case points as JSON, memo off so every run simulates.
fn sweep_json(threads: usize) -> String {
    let scale = Scale {
        runs: 3,
        ..Scale::tiny()
    };
    let out = engine::run_with_opts(
        &scenario(),
        &scale,
        SweepExec::new(threads),
        false,
        &RunOpts::default(),
    )
    .expect("scenario runs");
    serde_json::to_string(&out.into_cc().cases).expect("CasePoint serializes")
}

#[test]
fn one_thread_and_many_threads_serialize_identically() {
    let sequential = sweep_json(1);
    let parallel = sweep_json(8);
    assert_eq!(sequential, parallel);
    // More workers than units exercises the worker cap too.
    assert_eq!(sequential, sweep_json(64));
}

#[test]
fn same_seed_rerun_is_byte_identical() {
    assert_eq!(sweep_json(4), sweep_json(4));
}

#[test]
fn different_seeds_actually_change_the_numbers() {
    let w = Iozone::seq_read(2 << 20, 256 << 10);
    let spec = CaseSpec::new(Storage::Hdd, &w);
    let exec = SweepExec::new(2);
    let a = serde_json::to_string(&exec.run_one("hdd", &spec, &[1, 2])).unwrap();
    let b = serde_json::to_string(&exec.run_one("hdd", &spec, &[3, 4])).unwrap();
    assert_ne!(a, b, "seed set should perturb the averaged metrics");
}
