//! Every metric the benchmark reports: name, unit, and which direction is
//! better. `BENCHMARK.json` at the repository root must list the same
//! metrics; the smoke test checks that the two agree.

/// One reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Dotted `layer.quantity` name (end-to-end metrics have no layer).
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// Host cost a user of the reproduction sees, measured with tracing off.
pub const END_TO_END: &[Def] = &[
    def("wall_s", "s", "lower"),
    def("cpu_s", "s", "lower"),
    def("setup_s", "s", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Per-layer numbers from the traced run. The layers are crate names;
/// `stack` is bps-sim + bps-fs + bps-middleware, which cannot be timed
/// apart from outside.
pub const PER_LAYER: &[Def] = &[
    def("core.fold_s", "s", "lower"),
    def("core.ns_per_record", "ns", "lower"),
    def("core.records", "count", "lower"),
    def("core.calls", "count", "lower"),
    def("core.records_per_call", "count", "higher"),
    def("core.fold_share", "ratio", "lower"),
    def("core.fold_vs_copy", "ratio", "higher"),
    def("core.summary_s", "s", "lower"),
    def("core.union_s", "s", "lower"),
    def("core.window_s", "s", "lower"),
    def("trace.decode_s", "s", "lower"),
    def("trace.decode_mb_per_s", "MB/s", "higher"),
    def("trace.decode_vs_copy", "ratio", "higher"),
    def("trace.validate_s", "s", "lower"),
    def("stack.self_s", "s", "lower"),
    def("stack.ns_per_wake", "ns", "lower"),
    def("stack.us_per_app_op", "us", "lower"),
    def("sim.wakes", "count", "lower"),
    def("sim.wake_ceiling_per_s", "1/s", "higher"),
    def("sim.fault_events", "count", "lower"),
    def("fs.ops_per_app_op", "ratio", "lower"),
    def("middleware.moved_over_required", "ratio", "lower"),
    def("middleware.retry_attempts", "count", "lower"),
    def("workloads.build_s", "s", "lower"),
    def("workloads.gen_s", "s", "lower"),
    def("workloads.ops", "count", "lower"),
    def("topology.build_s", "s", "lower"),
    def("experiments.units", "count", "lower"),
    def("experiments.failed_units", "count", "lower"),
    def("experiments.unit_ms_p50", "ms", "lower"),
    def("experiments.unit_ms_tail", "ms", "lower"),
    def("experiments.parallel_eff", "ratio", "higher"),
    def("experiments.expand_s", "s", "lower"),
    def("experiments.l1_hit_ratio", "ratio", "higher"),
    def("experiments.l2_hit_ratio", "ratio", "higher"),
    def("experiments.l2_lookup_s", "s", "lower"),
    def("model.bps_cc_err", "ratio", "lower"),
    def("bench.trace_overhead", "ratio", "lower"),
    def("bench.breakdown_gap", "ratio", "lower"),
];

/// The definition of a per-layer metric by name.
pub fn per_layer(name: &str) -> &'static Def {
    PER_LAYER
        .iter()
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("unknown per-layer metric `{name}`"))
}
