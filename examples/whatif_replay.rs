//! What-if replay: record real I/O with the tracer, then replay the same
//! access pattern against different simulated storage configurations and
//! rank them by BPS — the workflow the toolkit enables end to end.
//!
//! ```text
//! cargo run --release --example whatif_replay
//! ```

use bps::core::metrics::{Bps, Metric};
use bps::core::record::FileId;
use bps::experiments::runner::{run_case, CaseSpec, Storage};
use bps::trace::realfile::{trace_session, TracedFile};
use bps::workloads::replay::Replay;
use bps::workloads::spec::Workload;
use std::io::{Read, Seek, SeekFrom, Write};

fn main() -> std::io::Result<()> {
    // 1. Record: a small, mixed real workload on this machine.
    let dir = std::env::temp_dir().join("bps_whatif");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("app.dat");
    let ((), recorded) = trace_session(|clock, rec| {
        let mut f = TracedFile::create(&path, FileId(0), rec.clone(), clock.clone()).unwrap();
        let buf = vec![1u8; 64 << 10];
        for _ in 0..128 {
            f.write_all(&buf).unwrap();
        }
        f.flush().unwrap();
        let mut f = TracedFile::open(&path, FileId(0), rec.clone(), clock.clone()).unwrap();
        let mut small = vec![0u8; 4096];
        for i in 0..256u64 {
            f.seek(SeekFrom::Start((i * 31 * 4096) % (8 << 20)))
                .unwrap();
            f.read_exact(&mut small).unwrap();
        }
    });
    println!(
        "recorded {} real ops ({} bytes) in {:.3} s; real BPS = {:.0}",
        recorded.len(),
        recorded.bytes(bps::core::record::Layer::Application),
        recorded.execution_time().as_secs_f64(),
        Bps.compute(&recorded).unwrap()
    );

    // 2. Distill the access pattern.
    let replay = Replay::from_trace(&recorded).expect("recorded extents fit in u64");
    println!(
        "\nreplaying {} processes / {} file(s) through simulated configurations:\n",
        replay.processes(),
        replay.file_sizes().len()
    );

    // 3. What-if: the same pattern on each candidate storage.
    println!("{:<22} {:>10} {:>12}", "configuration", "exec(s)", "BPS");
    for (label, storage) in [
        ("local HDD (7200rpm)", Storage::Hdd),
        ("local PCIe SSD", Storage::Ssd),
        ("PVFS, 2 servers", Storage::Pvfs { servers: 2 }),
        ("PVFS, 8 servers", Storage::Pvfs { servers: 8 }),
    ] {
        let spec = CaseSpec::new(storage, &replay);
        let trace = run_case(&spec, 1);
        println!(
            "{label:<22} {:>10.3} {:>12.0}",
            trace.execution_time().as_secs_f64(),
            Bps.compute(&trace).unwrap()
        );
    }

    std::fs::remove_file(&path).ok();
    Ok(())
}
