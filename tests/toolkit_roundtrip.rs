//! The full toolkit loop on a simulated run: simulate → persist in both
//! formats → reload → validate → windowed analysis → per-process breakdown.

use bps::core::record::Layer;
use bps::core::report::per_process;
use bps::core::time::Dur;
use bps::core::window::windowed_series;
use bps::experiments::runner::{run_case, CaseSpec, LayoutPolicy, Storage};
use bps::trace::validate::{is_usable, validate};
use bps::workloads::iozone::Iozone;

#[test]
fn simulate_persist_reload_analyze() {
    let dir = std::env::temp_dir().join("bps_toolkit_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();

    // Simulate a 3-process run.
    let w = Iozone {
        processes: 3,
        ..Iozone::seq_read(16 << 20, 256 << 10)
    };
    let mut spec = CaseSpec::new(Storage::Pvfs { servers: 3 }, &w);
    spec.layout = LayoutPolicy::PinnedPerFile;
    spec.clients = 3;
    let trace = run_case(&spec, 5);

    // The simulated trace is clean.
    let findings = validate(&trace);
    assert!(is_usable(&findings), "{findings:?}");

    // Persist both ways; reload by extension.
    let json_path = dir.join("run.json");
    let bin_path = dir.join("run.bpstrc");
    bps::trace::format::store_path(&trace, &json_path).unwrap();
    bps::trace::format::store_path(&trace, &bin_path).unwrap();
    let from_json = bps::trace::format::load_path(&json_path).unwrap();
    let from_bin = bps::trace::format::load_path(&bin_path).unwrap();
    assert_eq!(from_json.records(), trace.records());
    assert_eq!(from_bin.len(), trace.len());

    // Windowed analysis: blocks conserved, at least one busy window.
    let series = windowed_series(&from_json, Dur::from_millis(50));
    let total_blocks: f64 = series.iter().map(|p| p.blocks).sum();
    assert!(
        (total_blocks - trace.app_blocks() as f64).abs() < 1e-6 * total_blocks,
        "{total_blocks} vs {}",
        trace.app_blocks()
    );
    assert!(series.iter().any(|p| p.bps.is_some()));

    // Per-process breakdown: three processes, ops summing to the trace's.
    let rows = per_process(&from_json);
    assert_eq!(rows.len(), 3);
    let ops: u64 = rows.iter().map(|r| r.ops).sum();
    assert_eq!(ops, trace.layer(Layer::Application).count() as u64);
    for row in &rows {
        assert!(row.bps.unwrap() > 0.0);
    }

    std::fs::remove_file(json_path).ok();
    std::fs::remove_file(bin_path).ok();
}

#[test]
fn validation_catches_a_doctored_trace() {
    // Start clean, then doctor it: duplicate a record with inverted-looking
    // (zero-length) durations en masse.
    let w = Iozone::seq_read(4 << 20, 512 << 10);
    let spec = CaseSpec::new(Storage::Ssd, &w);
    let trace = run_case(&spec, 1);
    let mut doctored = bps::core::trace::Trace::new();
    for r in trace.records() {
        let mut broken = *r;
        broken.end = broken.start; // zero duration
        doctored.push(broken);
    }
    let findings = validate(&doctored);
    assert!(!is_usable(&findings), "{findings:?}");
}
