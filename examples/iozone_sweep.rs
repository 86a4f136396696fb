//! The paper's Set 2 in miniature: an IOzone record-size sweep on the
//! simulated HDD, showing IOPS and ARPT pointing the wrong way while
//! bandwidth and BPS track the application.
//!
//! ```text
//! cargo run --release --example iozone_sweep
//! ```

use bps::experiments::figures::common::CcFigure;
use bps::experiments::runner::{CasePoint, CaseSpec, Storage};
use bps::experiments::sweep::SweepExec;
use bps::workloads::iozone::Iozone;

fn main() {
    let file_size = 128 << 20; // 128 MiB per case
    let seeds = [1, 2, 3];
    let exec = SweepExec::default();
    let points: Vec<CasePoint> = [4u64 << 10, 64 << 10, 512 << 10, 4 << 20]
        .iter()
        .map(|&record| {
            let w = Iozone::seq_read(file_size, record);
            let spec = CaseSpec::new(Storage::Hdd, &w);
            let label = if record >= 1 << 20 {
                format!("{}MB", record >> 20)
            } else {
                format!("{}KB", record >> 10)
            };
            exec.run_one(label, &spec, &seeds)
        })
        .collect();

    let fig = CcFigure::from_points("IOzone record-size sweep (simulated HDD)", points);
    println!("{fig}");
    println!("Reading the table: growing the record size makes the run *faster*");
    println!("while IOPS collapses and ARPT rises — both anti-correlated with");
    println!("what the application experiences. BW and BPS track it correctly.");
}
