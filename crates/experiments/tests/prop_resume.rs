//! Property tests for journaled checkpoint/resume: a run resumed from a
//! randomly truncated journal is byte-identical to a cold run, at any
//! thread count, with the memo on or off. This is the crash-safety
//! contract — SIGKILL at an arbitrary byte offset loses at most the units
//! that had not finished, never the correctness of the figures.

use bps_experiments::journal::Journal;
use bps_experiments::scale::Scale;
use bps_experiments::scenario::engine::{self, RunOpts};
use bps_experiments::scenario::spec::{
    CaseDecl, CaseTemplate, Expect, Grid, Num, OutputSpec, Patch, Scenario, StorageSpec,
    WorkloadTemplate,
};
use bps_experiments::sweep::SweepExec;
use bps_workloads::iozone::IozoneMode;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn storage(idx: usize) -> StorageSpec {
    match idx % 3 {
        0 => StorageSpec::Hdd,
        1 => StorageSpec::Ssd,
        _ => StorageSpec::Pvfs {
            servers: 1 + idx % 4,
        },
    }
}

/// A small two-case IOzone sweep (record-size dimension only) so each
/// proptest case stays cheap: the property is about journal plumbing,
/// not simulation breadth.
fn scenario(storage_idx: usize, file_kb: u64) -> Scenario {
    let dims = vec![[4u64 << 10, 64 << 10]
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
        .collect::<Vec<_>>()];
    Scenario {
        name: "prop-resume".to_string(),
        title: "property-generated resume sweep".to_string(),
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

/// A collision-free journal path per proptest case (tests run in
/// parallel; the journal API takes explicit instances, no globals).
fn unique_path() -> PathBuf {
    static N: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "bps_prop_resume_{}_{}.jsonl",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

fn journal_opts(j: Journal) -> RunOpts {
    RunOpts {
        journal: Some(Arc::new(j)),
        ..RunOpts::default()
    }
}

proptest! {
    /// Cold run == journaled run == run resumed from a journal truncated
    /// at an arbitrary byte offset — formatted output and raw f64 bits.
    #[test]
    fn resume_from_truncated_journal_is_byte_identical(
        storage_idx in 0usize..6,
        file_kb in 16u64..64,
        threads in 1usize..5,
        cut in 0.0f64..1.0,
        memo_on in any::<bool>(),
    ) {
        let sc = scenario(storage_idx, file_kb);
        let scale = Scale::tiny();
        let cold = engine::run_with_opts(
            &sc, &scale, SweepExec::new(1), false, &RunOpts::default(),
        ).unwrap();

        // A journaled run records every unit and matches the cold bytes.
        let path = unique_path();
        let opts = journal_opts(Journal::create(&path, &[]).unwrap());
        let full = engine::run_with_opts(
            &sc, &scale, SweepExec::new(threads), false, &opts,
        ).unwrap();
        prop_assert_eq!(format!("{full}"), format!("{cold}"));
        drop(opts);

        // Truncate the journal at an arbitrary byte offset past the
        // header — simulating SIGKILL mid-write, torn final line and all.
        let bytes = std::fs::read(&path).unwrap();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let cut_at = header_end + (((bytes.len() - header_end) as f64) * cut) as usize;
        std::fs::write(&path, &bytes[..cut_at]).unwrap();

        let (j, _stored) = Journal::open_resume(&path).unwrap();
        let opts = journal_opts(j);
        let resumed = engine::run_with_opts(
            &sc, &scale, SweepExec::new(threads), memo_on, &opts,
        ).unwrap();
        prop_assert_eq!(format!("{resumed}"), format!("{cold}"));
        let (c, r) = (cold.into_cc(), resumed.into_cc());
        for (a, b) in c.cases.iter().zip(&r.cases) {
            prop_assert_eq!(a.iops.to_bits(), b.iops.to_bits());
            prop_assert_eq!(a.bw.to_bits(), b.bw.to_bits());
            prop_assert_eq!(a.arpt.to_bits(), b.arpt.to_bits());
            prop_assert_eq!(a.bps.to_bits(), b.bps.to_bits());
            prop_assert_eq!(a.exec_s.to_bits(), b.exec_s.to_bits());
        }
        std::fs::remove_file(&path).ok();
    }

    /// A journal replayed in full (no truncation) re-runs nothing and
    /// still reproduces the cold bytes — the replay path alone feeds the
    /// exact same averaging arithmetic.
    #[test]
    fn full_replay_recomputes_nothing_and_matches(
        storage_idx in 0usize..6,
        file_kb in 16u64..64,
        threads in 1usize..5,
    ) {
        let sc = scenario(storage_idx, file_kb);
        let scale = Scale::tiny();
        let cold = engine::run_with_opts(
            &sc, &scale, SweepExec::new(1), false, &RunOpts::default(),
        ).unwrap();

        let path = unique_path();
        let opts = journal_opts(Journal::create(&path, &[]).unwrap());
        engine::run_with_opts(&sc, &scale, SweepExec::new(1), false, &opts).unwrap();
        drop(opts);

        let (j, _stored) = Journal::open_resume(&path).unwrap();
        prop_assert!(j.replayed_units() > 0);
        let opts = journal_opts(j);
        let replayed = engine::run_with_opts(
            &sc, &scale, SweepExec::new(threads), false, &opts,
        ).unwrap();
        prop_assert_eq!(format!("{replayed}"), format!("{cold}"));
        std::fs::remove_file(&path).ok();
    }
}
