//! Extension experiment (the paper's future work): "we will adopt and
//! evaluate different I/O optimization mechanisms and their combinations
//! in terms of overall I/O system performance."
//!
//! This module sweeps the optimization space — data sieving × read-ahead
//! prefetching × disk scheduling — on a mixed workload (a noncontiguous
//! HPIO phase followed by a sequential IOzone phase) and ranks every
//! combination by BPS, demonstrating the metric doing the job the paper
//! built it for.

use crate::runner::{CasePoint, UnitValues};
use crate::scale::Scale;
use crate::sweep::SweepExec;
use bps_core::metrics::MetricSelection;
use bps_core::record::FileId;
use bps_core::sink::StreamingMetrics;
use bps_core::time::Dur;
use bps_fs::cluster::{Cluster, ClusterConfig, DeviceSpec};
use bps_fs::layout::StripeLayout;
use bps_fs::pfs::ParallelFs;
use bps_middleware::prefetch::PrefetchConfig;
use bps_middleware::process::run_workload;
use bps_middleware::sieving::SievingConfig;
use bps_middleware::stack::{FsBackend, IoStack};
use bps_sim::device::hdd::HddProfile;
use bps_sim::device::DiskSched;
use bps_sim::rng::Jitter;
use bps_workloads::spec::{AppOp, OpStream, Workload};
use bps_workloads::{hpio::Hpio, iozone::Iozone};
use std::fmt::Write;

/// One optimization combination.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Combo {
    /// Data sieving on noncontiguous reads.
    pub sieving: bool,
    /// Sequential read-ahead.
    pub prefetch: bool,
    /// Elevator disk scheduling.
    pub elevator: bool,
}

impl Combo {
    /// All eight combinations.
    pub fn all() -> Vec<Combo> {
        let mut v = Vec::new();
        for sieving in [false, true] {
            for prefetch in [false, true] {
                for elevator in [false, true] {
                    v.push(Combo {
                        sieving,
                        prefetch,
                        elevator,
                    });
                }
            }
        }
        v
    }

    /// Short label like "S+P-E-".
    pub fn label(&self) -> String {
        format!(
            "S{}P{}E{}",
            if self.sieving { "+" } else { "-" },
            if self.prefetch { "+" } else { "-" },
            if self.elevator { "+" } else { "-" },
        )
    }
}

/// A mixed workload: one HPIO noncontiguous phase, then one sequential
/// read phase, per process.
struct Mixed {
    hpio: Hpio,
    seq: Iozone,
}

impl Workload for Mixed {
    fn name(&self) -> &'static str {
        "mixed"
    }
    fn processes(&self) -> usize {
        self.hpio.processes()
    }
    fn file_sizes(&self) -> Vec<u64> {
        // File 0: the HPIO file. Files 1..: one sequential file per proc.
        let mut v = self.hpio.file_sizes();
        v.extend(self.seq.file_sizes());
        v
    }
    fn stream(&self, pid: usize) -> OpStream {
        let noncontig = self.hpio.stream(pid);
        // Shift the sequential phase's file indices past the HPIO file.
        let seq = self.seq.stream(pid).map(|op| match op {
            AppOp::Read { file, extent } => AppOp::Read {
                file: file + 1,
                extent,
            },
            AppOp::Write { file, extent } => AppOp::Write {
                file: file + 1,
                extent,
            },
            other => other,
        });
        Box::new(noncontig.chain(seq))
    }
}

fn run_combo(combo: Combo, scale: &Scale, seed: u64) -> StreamingMetrics {
    let procs = 2;
    let workload = Mixed {
        hpio: Hpio {
            region_count: scale.fig12_regions / 8,
            region_size: 256,
            region_spacing: 1024,
            regions_per_call: 512,
            processes: procs,
            collective: false,
        },
        seq: Iozone::throughput_read(procs, scale.fig12_regions * 256, 64 << 10),
    };
    let cfg = ClusterConfig {
        servers: 4,
        clients: procs,
        device: DeviceSpec::Hdd(HddProfile::sata_7200_250gb()),
        sched: if combo.elevator {
            DiskSched::Elevator
        } else {
            DiskSched::Fifo
        },
        server_cpu: Dur::from_micros(25),
        jitter: Jitter::DEFAULT,
        seed,
        record_device_layer: false,
        record_net_layer: false,
        fault: bps_sim::fault::FaultPlan::none(),
    };
    let cluster = Cluster::with_sink(&cfg, StreamingMetrics::new());
    let mut pfs = ParallelFs::new(4);
    let files: Vec<FileId> = workload
        .file_sizes()
        .iter()
        .map(|&s| pfs.create(s, StripeLayout::default_over(4)))
        .collect();
    let mut stack = IoStack::new(cluster, FsBackend::Parallel(pfs));
    stack.sieving = if combo.sieving {
        SievingConfig::romio_default()
    } else {
        SievingConfig::disabled()
    };
    stack.prefetch = combo.prefetch.then(PrefetchConfig::readahead_128k);
    let (metrics, _) = run_workload(stack, &workload, &files, Dur::from_micros(5));
    metrics
}

/// Sweep all combinations — every `(combo, seed)` unit in parallel on
/// `exec` through the streaming pipeline, its values captured as it
/// finishes — averaged over the scale's seeds by
/// [`CasePoint::from_units`] under the paper selection, sorted by BPS
/// (best first). No scenario runs here, so no
/// [`RunOpts`](crate::scenario::engine::RunOpts) applies.
pub fn sweep(scale: &Scale, exec: SweepExec) -> Vec<(Combo, CasePoint)> {
    let seeds = scale.seeds();
    let combos = Combo::all();
    let selection = MetricSelection::paper();
    let units = exec.run_indexed(combos.len() * seeds.len(), |i| {
        let run = run_combo(combos[i / seeds.len()], scale, seeds[i % seeds.len()]);
        UnitValues::capture(&run, &selection)
    });
    let mut results: Vec<(Combo, CasePoint)> = combos
        .iter()
        .zip(units.chunks_exact(seeds.len()))
        .map(|(&combo, per_combo)| {
            (
                combo,
                CasePoint::from_units(combo.label(), per_combo, &selection),
            )
        })
        .collect();
    results.sort_by(|a, b| b.1.bps.partial_cmp(&a.1.bps).expect("finite BPS"));
    results
}

/// Render the extension study.
pub fn report(scale: &Scale, exec: SweepExec) -> String {
    let results = sweep(scale, exec);
    let mut out = String::new();
    writeln!(
        out,
        "=== Extension: optimization combinations ranked by BPS ==="
    )
    .unwrap();
    writeln!(
        out,
        "(S = data sieving, P = prefetch, E = elevator; mixed HPIO+sequential workload)"
    )
    .unwrap();
    writeln!(
        out,
        "{:<8} {:>10} {:>12} {:>12}",
        "combo", "exec(s)", "BPS", "BW(MB/s)"
    )
    .unwrap();
    for (_, p) in &results {
        writeln!(
            out,
            "{:<8} {:>10.3} {:>12.0} {:>12.1}",
            p.label, p.exec_s, p.bps, p.bw
        )
        .unwrap();
    }
    writeln!(
        out,
        "\nBPS order matches execution-time order: {}",
        if bps_ranks_match_exec(&results) {
            "yes"
        } else {
            "no (see EXPERIMENTS.md)"
        }
    )
    .unwrap();
    out
}

/// Whether sorting by BPS descending equals sorting by exec time ascending.
pub fn bps_ranks_match_exec(results: &[(Combo, CasePoint)]) -> bool {
    let mut by_exec: Vec<&(Combo, CasePoint)> = results.iter().collect();
    by_exec.sort_by(|a, b| a.1.exec_s.partial_cmp(&b.1.exec_s).expect("finite"));
    by_exec.iter().zip(results).all(|(a, b)| a.0 == b.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_combos() {
        let combos = Combo::all();
        assert_eq!(combos.len(), 8);
        let labels: std::collections::HashSet<String> = combos.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 8);
    }

    #[test]
    fn sieving_dominates_on_this_workload() {
        let results = sweep(&Scale::tiny(), SweepExec::from_env(None));
        assert_eq!(results.len(), 8);
        // The best combination uses sieving (the noncontiguous phase is
        // hostile without it), and every sieving combo beats every
        // non-sieving combo on BPS.
        assert!(results[0].0.sieving, "{results:?}");
        let worst_sieving = results
            .iter()
            .filter(|(c, _)| c.sieving)
            .map(|(_, p)| p.bps)
            .fold(f64::MAX, f64::min);
        let best_plain = results
            .iter()
            .filter(|(c, _)| !c.sieving)
            .map(|(_, p)| p.bps)
            .fold(f64::MIN, f64::max);
        assert!(worst_sieving > best_plain, "{results:?}");
    }

    #[test]
    fn bps_ranking_tracks_execution_time() {
        // The whole point of the metric: ranking optimizations by BPS is
        // ranking them by what the application experiences.
        let results = sweep(&Scale::tiny(), SweepExec::from_env(None));
        assert!(bps_ranks_match_exec(&results), "{results:?}");
    }
}
