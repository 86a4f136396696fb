//! The five workloads and the inputs each one is generated from.
//!
//! Everything the measured program sees is written here, from the seed
//! alone: scenario JSON files for the sweep workloads, `.bpstrc` trace
//! files for `trace-analyze`, and the scale preset. The seed varies what
//! can vary without changing the amount of work — fault and IOzone
//! seeds, random offsets, the per-run seeds of simulated traces — so runs
//! on different seeds are comparable in host cost.

use bps_core::trace::Trace;
use bps_experiments::runner::{run_case_with, CaseSpec, Storage};
use bps_experiments::scale::Scale;
use bps_experiments::scenario::registry;
use bps_experiments::scenario::spec::{
    CaseDecl, CaseTemplate, Grid, LayoutSpec, Num, OutputSpec, Patch, Scenario, SievingSpec,
    StorageSpec, WorkloadTemplate,
};
use bps_workloads::hpio::Hpio;
use bps_workloads::ior::Ior;
use bps_workloads::iozone::{Iozone, IozoneMode};
use bps_workloads::WorkloadSpec;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 15 bundled scenarios at quick scale: what `reproduce all
    /// --quick` sweeps.
    PaperQuick,
    /// Generated IOR shared-file reads and writes plus pinned IOzone
    /// random reads on an 8-server PVFS, up to 64 processes.
    ManyProcs,
    /// Generated HPIO noncontiguous reads: sieved, two-phase collective,
    /// and unsieved.
    Noncontig,
    /// Decode, summarize, union, validate and window stored traces.
    TraceAnalyze,
    /// The three sweep workloads replayed from a warm case store.
    WarmReplay,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 5] = [
        Workload::PaperQuick,
        Workload::ManyProcs,
        Workload::Noncontig,
        Workload::TraceAnalyze,
        Workload::WarmReplay,
    ];

    /// The name used on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperQuick => "paper-quick",
            Workload::ManyProcs => "many-procs",
            Workload::Noncontig => "noncontig",
            Workload::TraceAnalyze => "trace-analyze",
            Workload::WarmReplay => "warm-replay",
        }
    }

    /// Look a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The sweep workloads simulate; the other two replay stored results.
    pub fn simulates(self) -> bool {
        matches!(
            self,
            Workload::PaperQuick | Workload::ManyProcs | Workload::Noncontig
        )
    }
}

/// Input sizes: the real benchmark, or the smoke test's tiny version.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Shrink every input so a debug build finishes in seconds.
    pub smoke: bool,
}

impl Sizes {
    /// The scale preset every sweep scenario resolves against.
    pub fn scale(self) -> Scale {
        if self.smoke {
            Scale {
                runs: 1,
                ..Scale::tiny()
            }
        } else {
            Scale::quick()
        }
    }

    /// Divide a generated size in smoke mode.
    fn shrink(self, n: u64, div: u64) -> u64 {
        if self.smoke {
            n / div
        } else {
            n
        }
    }
}

/// SplitMix64: the seed expander for every generated value.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A value derived from the benchmark seed and a per-use salt.
fn derive(seed: u64, salt: u64) -> u64 {
    splitmix(seed ^ splitmix(salt))
}

/// Rewrite every fault and IOzone seed of a bundled scenario. Seed 0
/// keeps the bundled values, so it runs exactly what `reproduce` runs.
fn reseed(sc: &mut Scenario, seed: u64) {
    if seed == 0 {
        return;
    }
    let fresh = |old: u64| derive(seed, old);
    if let Some(f) = &mut sc.base.fault {
        f.seed = fresh(f.seed);
    }
    for dim in &mut sc.grid.dims {
        for cell in dim {
            if let Some(f) = &mut cell.patch.fault {
                f.seed = fresh(f.seed);
            }
        }
    }
    match &mut sc.base.workload {
        WorkloadTemplate::Iozone { seed: s, .. } => *s = fresh(*s),
        WorkloadTemplate::Fixed {
            spec: WorkloadSpec::Iozone { seed: s, .. } | WorkloadSpec::Synthetic { seed: s, .. },
        } => *s = fresh(*s),
        _ => {}
    }
}

fn scenario(name: &str, base: CaseTemplate, cases: Vec<CaseDecl>) -> Scenario {
    Scenario {
        name: name.to_string(),
        title: format!("benchmark: {name}"),
        output: OutputSpec::Cc,
        base,
        grid: Grid::single(cases),
        metrics: Vec::new(),
        deadline_ms: None,
        expect: Vec::new(),
        verdict: None,
    }
}

fn np_cells(counts: &[usize]) -> Vec<CaseDecl> {
    counts
        .iter()
        .map(|&n| {
            CaseDecl::new(
                format!("np={n}"),
                Patch {
                    processes: Some(n),
                    ..Patch::none()
                },
            )
        })
        .collect()
}

/// `many-procs`: wake-bound sweeps with many processes in the scheduler
/// heap and the server and network queues. Total bytes are fixed per
/// case, so the process count moves queueing, not the amount of work.
fn many_procs(seed: u64, sizes: Sizes) -> Vec<Scenario> {
    let ior_total = sizes.shrink(4 << 30, 256);
    let iozone_per_process = sizes.shrink(256 << 20, 256);
    let ior = |write: bool| {
        CaseTemplate::new(
            StorageSpec::Pvfs { servers: 8 },
            WorkloadTemplate::IorShared {
                file_size: Num::Abs { n: ior_total },
                transfer_size: 64 << 10,
                write,
                processes: 1,
            },
        )
    };
    let mut iozone = CaseTemplate::new(
        StorageSpec::Pvfs { servers: 8 },
        WorkloadTemplate::Iozone {
            mode: IozoneMode::RandomRead,
            file_size: Num::Abs {
                n: iozone_per_process,
            },
            record_size: Num::Abs { n: 64 << 10 },
            processes: 1,
            seed: derive(seed, 3),
        },
    );
    iozone.layout = Some(LayoutSpec::PinnedPerFile);
    vec![
        scenario(
            "many-procs-ior-read",
            ior(false),
            np_cells(&[8, 16, 32, 64]),
        ),
        scenario(
            "many-procs-ior-write",
            ior(true),
            np_cells(&[8, 16, 32, 64]),
        ),
        scenario("many-procs-iozone-random", iozone, np_cells(&[8, 16, 32])),
    ]
}

/// `noncontig`: 256-byte HPIO regions on 4 servers, read three ways over
/// Figure 12's spacings. Middleware planning dominates. HPIO makes no
/// random choices, so the seed changes nothing here; reordering the
/// spacings by seed moved host time by up to 10 % through the sweep
/// executor's tail, so the order is fixed.
fn noncontig(sizes: Sizes) -> Vec<Scenario> {
    let cells: Vec<CaseDecl> = bps_experiments::figures::fig12::SPACINGS
        .iter()
        .map(|&gap| {
            CaseDecl::new(
                format!("gap={gap}B"),
                Patch {
                    region_spacing: Some(gap),
                    ..Patch::none()
                },
            )
        })
        .collect();
    let hpio = |regions: u64, collective: bool, sieving: SievingSpec| {
        let mut t = CaseTemplate::new(
            StorageSpec::Pvfs { servers: 4 },
            WorkloadTemplate::Hpio {
                region_count: Num::Abs {
                    n: sizes.shrink(regions, 64),
                },
                region_size: 256,
                region_spacing: Num::Abs { n: 8 },
                regions_per_call: Num::Abs { n: 4096 },
                processes: 4,
                collective,
            },
        );
        t.sieving = Some(sieving);
        t
    };
    vec![
        scenario(
            "noncontig-sieved",
            hpio(2_048_000, false, SievingSpec::RomioDefault),
            cells.clone(),
        ),
        scenario(
            "noncontig-collective",
            hpio(409_600, true, SievingSpec::RomioDefault),
            cells.clone(),
        ),
        scenario(
            "noncontig-unsieved",
            hpio(40_960, false, SievingSpec::Disabled),
            cells,
        ),
    ]
}

/// `warm-replay` replays the sweep workloads at this many consecutive
/// seeds, so a pass replays a few hundred stored cases.
const REPLAY_SEEDS: u64 = 8;

/// The scenarios a sweep workload runs, in run order.
pub fn scenarios(w: Workload, seed: u64, sizes: Sizes) -> Vec<Scenario> {
    match w {
        Workload::PaperQuick => {
            let mut all = registry::all();
            if sizes.smoke {
                all.truncate(3);
            }
            for sc in &mut all {
                reseed(sc, seed);
            }
            all
        }
        Workload::ManyProcs => many_procs(seed, sizes),
        Workload::Noncontig => noncontig(sizes),
        Workload::WarmReplay => (0..REPLAY_SEEDS)
            .flat_map(|k| {
                [
                    Workload::PaperQuick,
                    Workload::ManyProcs,
                    Workload::Noncontig,
                ]
                .map(|w| scenarios(w, seed.wrapping_add(k), sizes))
            })
            .flatten()
            .collect(),
        Workload::TraceAnalyze => Vec::new(),
    }
}

/// The cases `trace-analyze` simulates into traces at set-up: local
/// disks, and striped, sieved and collective PVFS runs.
fn trace_cases(
    sizes: Sizes,
) -> Vec<(
    &'static str,
    Storage,
    Box<dyn bps_workloads::spec::Workload>,
)> {
    let mb = |n: u64| sizes.shrink(n << 20, 64);
    vec![
        (
            "hdd-seq-4k",
            Storage::Hdd,
            Box::new(Iozone::seq_read(mb(1024), 4 << 10)),
        ),
        (
            "ssd-random-16k",
            Storage::Ssd,
            Box::new(Iozone {
                mode: IozoneMode::RandomRead,
                file_size: mb(512),
                record_size: 16 << 10,
                processes: 4,
                seed: 7,
            }),
        ),
        (
            "pvfs8-ior-write",
            Storage::Pvfs { servers: 8 },
            Box::new(Ior {
                file_size: mb(8192),
                transfer_size: 64 << 10,
                processes: 16,
                write: true,
            }),
        ),
        (
            "pvfs4-hpio-sieved",
            Storage::Pvfs { servers: 4 },
            Box::new(Hpio::paper_shape(sizes.shrink(1_024_000, 64), 1024, 4)),
        ),
        (
            "pvfs4-hpio-collective",
            Storage::Pvfs { servers: 4 },
            Box::new(Hpio::paper_shape(sizes.shrink(262_144, 64), 64, 4).collective()),
        ),
    ]
}

/// FNV-1a over a byte string: output and trace digests.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The scenario files of the sweep workloads.
pub fn scenario_dir(dir: &Path) -> PathBuf {
    dir.join("scenarios")
}

/// The trace set of `trace-analyze`.
pub fn trace_dir(dir: &Path) -> PathBuf {
    dir.join("traces")
}

/// The case store of `warm-replay`.
pub fn store_dir(dir: &Path) -> PathBuf {
    dir.join("store")
}

/// The trace manifest: one `name digest records` line per trace file,
/// the digest being FNV-1a of the file's bytes as written.
pub fn manifest_path(dir: &Path) -> PathBuf {
    trace_dir(dir).join("manifest.txt")
}

/// Write a workload's inputs into `dir`.
pub fn prepare(w: Workload, seed: u64, sizes: Sizes, dir: &Path) -> io::Result<()> {
    fs::create_dir_all(dir)?;
    let scale = serde_json::to_string(&sizes.scale()).map_err(io::Error::other)?;
    fs::write(dir.join("scale.json"), scale)?;
    if w != Workload::TraceAnalyze {
        let sdir = scenario_dir(dir);
        fs::create_dir_all(&sdir)?;
        for (i, sc) in scenarios(w, seed, sizes).iter().enumerate() {
            let json = serde_json::to_string_pretty(sc).map_err(io::Error::other)?;
            fs::write(sdir.join(format!("{i:03}-{}.json", sc.name)), json)?;
        }
        return Ok(());
    }
    let tdir = trace_dir(dir);
    fs::create_dir_all(&tdir)?;
    let mut manifest = String::new();
    for (i, (label, storage, workload)) in trace_cases(sizes).into_iter().enumerate() {
        let spec = CaseSpec::new(storage, workload.as_ref());
        let trace: Trace = run_case_with(&spec, derive(seed, 100 + i as u64), Trace::new());
        let bytes = bps_trace::format::to_binary(&trace);
        let name = format!("{i:02}-{label}.bpstrc");
        fs::write(tdir.join(&name), &bytes)?;
        manifest.push_str(&format!("{name} {:016x} {}\n", fnv1a(&bytes), trace.len()));
    }
    fs::write(manifest_path(dir), manifest)
}

/// Every input file of a kind, in name order.
pub fn files_with_extension(dir: &Path, ext: &str) -> io::Result<Vec<PathBuf>> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    files.retain(|p| p.extension().is_some_and(|x| x == ext));
    files.sort();
    Ok(files)
}
