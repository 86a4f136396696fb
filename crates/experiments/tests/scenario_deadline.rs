//! A scenario's own `deadline_ms` bounds its units on every path into the
//! engine, not only through the `reproduce` CLI. This binary sets
//! `BPS_TEST_UNIT_STALL`, so it lives alone: the variable is process-wide
//! and would stall units of any other test sharing the process.

use bps_experiments::scale::Scale;
use bps_experiments::scenario::engine::{self, RunOpts};
use bps_experiments::scenario::spec::{
    CaseDecl, CaseTemplate, Grid, Num, OutputSpec, Patch, Scenario, StorageSpec, WorkloadTemplate,
};
use bps_experiments::supervise::FailureKind;
use bps_experiments::sweep::SweepExec;
use bps_workloads::iozone::IozoneMode;

#[test]
fn scenario_deadline_applies_with_default_run_options() {
    let sc = Scenario {
        name: "deadline-lib".to_string(),
        title: "a scenario deadline outside the CLI".to_string(),
        output: OutputSpec::Cc,
        base: CaseTemplate::new(
            StorageSpec::Ssd,
            WorkloadTemplate::Iozone {
                mode: IozoneMode::SeqRead,
                file_size: Num::Abs { n: 64 << 10 },
                record_size: Num::Abs { n: 4 << 10 },
                processes: 1,
                seed: 0,
            },
        ),
        grid: Grid::single(vec![
            CaseDecl::new("stalled", Patch::none()),
            CaseDecl::new("healthy", Patch::none()),
        ]),
        metrics: Vec::new(),
        deadline_ms: Some(1000),
        expect: Vec::new(),
        verdict: None,
    };
    // Every unit of the `stalled` case sleeps far past the deadline.
    std::env::set_var("BPS_TEST_UNIT_STALL", "stalled:10000");
    let fig = engine::run_with_opts(
        &sc,
        &Scale::tiny(),
        SweepExec::new(2),
        false,
        &RunOpts::default(),
    )
    .unwrap()
    .into_cc();
    let by_label = |l: &str| fig.cases.iter().find(|c| c.label == l).unwrap();
    assert_eq!(by_label("stalled").failed, Some(FailureKind::Timeout));
    assert_eq!(by_label("healthy").failed, None);
}
