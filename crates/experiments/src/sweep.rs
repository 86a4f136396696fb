//! Parallel sweep execution.
//!
//! Every figure in the evaluation is a sweep: a list of cases, each run
//! once per seed and averaged. The units are completely independent, so
//! [`SweepExec::run_indexed`] fans them across OS threads
//! (`std::thread::scope`, no extra crates) and hands the results back in
//! input order — the output is byte-identical at any thread count,
//! because each unit is deterministic in `(case, seed)` and the averaging
//! still happens in seed order on the caller's thread.
//!
//! This is the one pool every sweep unit schedules on: the supervisor
//! ([`run_supervised`](crate::supervise::run_supervised)) wraps each unit
//! with failure isolation, the journal, the failure budget and, when one
//! is set, a per-unit deadline. [`SweepExec::run_one`] averages one
//! ad-hoc [`CaseSpec`] for examples and tests.
//!
//! Thread count: the caller's explicit count ([`SweepExec::new`], the
//! `reproduce --threads N` flag), else [`SweepExec::default`], the
//! machine's [`std::thread::available_parallelism`]. A count of 1 runs
//! inline on the calling thread.

use crate::runner::{run_case_streaming_selected, CasePoint, CaseSpec, UnitValues};
use bps_core::metrics::MetricSelection;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A work-stealing executor for embarrassingly parallel sweep units.
#[derive(Debug, Clone, Copy)]
pub struct SweepExec {
    threads: usize,
}

impl Default for SweepExec {
    /// An executor over the machine's available parallelism.
    fn default() -> Self {
        SweepExec::new(std::thread::available_parallelism().map_or(1, |n| n.get()))
    }
}

impl SweepExec {
    /// An executor over exactly `threads` worker threads (minimum 1).
    pub fn new(threads: usize) -> Self {
        SweepExec {
            threads: threads.max(1),
        }
    }

    /// Run `f(0..n)` across the executor's threads and collect the results
    /// indexed by input position. Workers claim indices from a shared
    /// counter (work stealing), so uneven unit costs balance out; the
    /// output order is the input order regardless of completion order.
    pub fn run_indexed<T, F>(&self, n: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if n == 0 {
            return Vec::new();
        }
        let workers = self.threads.min(n);
        if workers <= 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let value = f(i);
                    *slots[i].lock().expect("sweep slot lock poisoned") = Some(value);
                });
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("sweep slot lock poisoned")
                    .expect("every unit index was claimed by a worker")
            })
            .collect()
    }

    /// Run one ad-hoc case once per seed in parallel and average it under
    /// the paper selection: each unit's values are captured as it finishes
    /// and averaged in seed order by [`CasePoint::from_units`], the same
    /// arithmetic a scenario run uses, so the point is identical at any
    /// thread count. A panicking unit propagates; scenario runs isolate
    /// failures in [`run_supervised`](crate::supervise::run_supervised).
    pub fn run_one(
        &self,
        label: impl Into<String>,
        spec: &CaseSpec<'_>,
        seeds: &[u64],
    ) -> CasePoint {
        assert!(!seeds.is_empty(), "need at least one seed");
        let selection = MetricSelection::paper();
        let units = self.run_indexed(seeds.len(), |i| {
            let run = run_case_streaming_selected(spec, seeds[i], &selection);
            UnitValues::capture(&run, &selection)
        });
        CasePoint::from_units(label, &units, &selection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Storage;
    use bps_workloads::iozone::Iozone;

    #[test]
    fn run_indexed_preserves_input_order() {
        let exec = SweepExec::new(4);
        let out = exec.run_indexed(100, |i| i * i);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn run_indexed_handles_empty_and_single() {
        let exec = SweepExec::new(8);
        assert!(exec.run_indexed(0, |i| i).is_empty());
        assert_eq!(exec.run_indexed(1, |i| i + 41), vec![41]);
    }

    #[test]
    fn thread_count_floor_is_one() {
        assert_eq!(SweepExec::new(0).threads, 1);
    }

    #[test]
    fn default_uses_the_machines_parallelism() {
        let machine = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(SweepExec::default().threads, machine);
    }

    #[test]
    fn run_one_is_thread_count_invariant() {
        let w = Iozone::seq_read(2 << 20, 256 << 10);
        for storage in [Storage::Hdd, Storage::Ssd] {
            let spec = CaseSpec::new(storage, &w);
            let seq = SweepExec::new(1).run_one("case", &spec, &[1, 2, 3]);
            let par = SweepExec::new(4).run_one("case", &spec, &[1, 2, 3]);
            assert_eq!(seq.label, par.label);
            assert_eq!(seq.iops.to_bits(), par.iops.to_bits());
            assert_eq!(seq.bw.to_bits(), par.bw.to_bits());
            assert_eq!(seq.arpt.to_bits(), par.arpt.to_bits());
            assert_eq!(seq.bps.to_bits(), par.bps.to_bits());
            assert_eq!(seq.exec_s.to_bits(), par.exec_s.to_bits());
        }
    }
}
