//! End-to-end integration: workload generation → simulated I/O stack →
//! trace collection → metrics → correlation, plus persistence round-trips.

use bps::core::metrics::{Bandwidth, Bps, Iops, Metric, MetricSelection};
use bps::core::record::Layer;
use bps::core::report::MetricsSummary;
use bps::core::time::Dur;
use bps::experiments::figures::CcFigure;
use bps::experiments::runner::{
    run_case, run_case_streaming_selected, CasePoint, CaseSpec, LayoutPolicy, Storage, UnitValues,
};
use bps::fs::layout::StripeLayout;
use bps::middleware::process::run_workload;
use bps::middleware::stack::{FsBackend, IoStack};
use bps::workloads::ior::Ior;
use bps::workloads::iozone::Iozone;
use bps::workloads::spec::Workload;

fn pvfs_stack(servers: usize, clients: usize, seed: u64) -> bps::fs::cluster::Cluster {
    let mut cfg = bps::fs::cluster::ClusterConfig::hdd_cluster(servers, clients, seed);
    cfg.jitter = bps::sim::rng::Jitter::NONE;
    bps::fs::cluster::Cluster::new(&cfg)
}

#[test]
fn full_pipeline_produces_consistent_layers() {
    let w = Iozone::seq_read(32 << 20, 1 << 20);
    let cluster = pvfs_stack(4, 1, 7);
    let mut pfs = bps::fs::pfs::ParallelFs::new(4);
    let files: Vec<_> = w
        .file_sizes()
        .iter()
        .map(|&s| pfs.create(s, StripeLayout::default_over(4)))
        .collect();
    let stack = IoStack::new(cluster, FsBackend::Parallel(pfs));
    let (trace, outcome) = run_workload(stack, &w, &files, Dur::from_micros(5));

    // Application layer: exactly the workload's requests.
    assert_eq!(trace.layer(Layer::Application).count(), 32);
    assert_eq!(trace.bytes(Layer::Application), 32 << 20);
    // FS layer moved the same bytes (no sieving/prefetch on contiguous
    // reads) in 64 KB stripe chunks.
    assert_eq!(trace.bytes(Layer::FileSystem), 32 << 20);
    assert_eq!(trace.layer(Layer::FileSystem).count(), 512);
    // Exec time covers the I/O time.
    assert!(trace.execution_time() >= trace.overlapped_io_time(Layer::Application));
    assert_eq!(trace.execution_time(), outcome.makespan());

    // All metrics computable; summary renders.
    let summary = MetricsSummary::from_trace(&trace);
    assert!(summary.value("BPS").unwrap() > 0.0);
    assert!(summary.value("IOEff").unwrap() > 0.99);
    assert!(format!("{summary}").contains("BPS"));
}

#[test]
fn cc_report_from_simulated_sweep() {
    // A size sweep through the whole stack: BPS must correlate correctly,
    // IOPS must not.
    let paper = MetricSelection::paper();
    let cases: Vec<CasePoint> = [16u64 << 10, 256 << 10, 2 << 20]
        .iter()
        .map(|&rs| {
            let w = Iozone::seq_read(16 << 20, rs);
            let spec = CaseSpec::new(Storage::Hdd, &w);
            let run = run_case_streaming_selected(&spec, 1, &paper);
            CasePoint::from_units(rs.to_string(), &[UnitValues::capture(&run, &paper)], &paper)
        })
        .collect();
    let report = CcFigure::from_points("size sweep", cases);
    assert!(report.normalized("BPS").unwrap() > 0.8);
    assert!(report.normalized("IOPS").unwrap() < 0.0);
}

#[test]
fn trace_survives_binary_roundtrip_with_metrics() {
    let w = Ior::shared_read(4, 8 << 20);
    let mut spec = CaseSpec::new(Storage::Pvfs { servers: 4 }, &w);
    spec.layout = LayoutPolicy::DefaultStripe;
    spec.clients = 4;
    let trace = run_case(&spec, 3);
    let bin = bps::trace::format::to_binary(&trace);
    let back = bps::trace::format::from_binary(&bin).unwrap();
    assert_eq!(back.len(), trace.len());
    for m in [&Bps as &dyn Metric, &Iops] {
        let a = m.compute(&trace).unwrap();
        let b = m.compute(&back).unwrap();
        assert!((a - b).abs() < 1e-9 * a.abs().max(1.0), "{}", m.name());
    }
    // JSON round-trip is fully lossless.
    let json = bps::trace::format::to_json(&trace).unwrap();
    let back = bps::trace::format::from_json(&json).unwrap();
    assert_eq!(back.records(), trace.records());
    assert_eq!(
        Bandwidth.compute(&back).unwrap(),
        Bandwidth.compute(&trace).unwrap()
    );
}

#[test]
fn collector_gathers_simulated_processes() {
    // Split a simulated trace by process and verify that the gather step
    // (concatenate every process's records, then sort by start, as
    // `realfile::trace_session` does) rebuilds the same metrics.
    let w = Iozone {
        processes: 3,
        ..Iozone::seq_read(8 << 20, 512 << 10)
    };
    let mut spec = CaseSpec::new(Storage::Pvfs { servers: 3 }, &w);
    spec.layout = LayoutPolicy::PinnedPerFile;
    spec.clients = 3;
    let trace = run_case(&spec, 2);

    let pids: std::collections::BTreeSet<_> =
        trace.layer(Layer::Application).map(|r| r.pid).collect();
    let mut records = Vec::new();
    for pid in pids {
        records.extend(trace.records().iter().filter(|r| r.pid == pid));
    }
    let mut gathered = bps::core::trace::Trace::from_records(records);
    gathered.sort_by_start();
    gathered.set_execution_time(trace.execution_time());
    assert_eq!(gathered.len(), trace.len());
    let a = Bps.compute(&trace).unwrap();
    let b = Bps.compute(&gathered).unwrap();
    assert!((a - b).abs() < 1e-9 * a);
}

#[test]
fn workspace_facade_reexports_work() {
    // The `bps` crate's prelude is usable on its own.
    use bps::prelude::*;
    let mut t = Trace::new();
    t.push(IoRecord::app_read(
        ProcessId(0),
        FileId(0),
        0,
        BLOCK_SIZE * 8,
        Nanos::ZERO,
        Nanos::from_millis(1),
    ));
    assert_eq!(t.app_blocks(), 8);
    assert!(Bps.compute(&t).unwrap() > 0.0);
}
