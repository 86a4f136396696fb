//! Serializable workload descriptions.
//!
//! [`WorkloadSpec`] is the pure-data counterpart of every generator in
//! this crate: a value that can be written in a JSON scenario file,
//! round-tripped through serde, and turned into a live [`Workload`] with
//! [`WorkloadSpec::build`]. The scenario engine in `bps-experiments`
//! builds on it so that new experiment configurations are data, not code.
//!
//! Durations are expressed in microseconds (`think_time_us`) because the
//! serialized form has no `Dur` type; sizes and counts are plain integers.

use crate::hpio::Hpio;
use crate::ior::Ior;
use crate::iozone::{Iozone, IozoneMode};
use crate::replay::Replay;
use crate::spec::{AppOp, OpStream, Workload};
use crate::synthetic::{Pattern, Synthetic};
use bps_core::time::Dur;
use std::fmt;
use std::path::Path;

/// Error building a [`Workload`] from a [`WorkloadSpec`]: either the spec
/// is invalid (zero record size, out-of-range fraction, ...) or, for
/// `Replay`, the trace file could not be loaded.
#[derive(Debug)]
pub struct BuildError(String);

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for BuildError {}

fn invalid(msg: impl fmt::Display) -> BuildError {
    BuildError(format!("invalid workload spec: {msg}"))
}

/// A pure-data description of any workload generator in this crate.
///
/// Externally tagged on the generator name, e.g.
/// `{"Ior": {"file_size": 1048576, "transfer_size": 65536,
/// "processes": 4, "write": false}}`.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum WorkloadSpec {
    /// An [`Iozone`] run.
    Iozone {
        /// Operation under test.
        mode: IozoneMode,
        /// Bytes per file (one file per process).
        file_size: u64,
        /// Record (request) size in bytes.
        record_size: u64,
        /// Number of processes (1 = single mode, >1 = throughput mode).
        processes: usize,
        /// Seed for the random modes.
        seed: u64,
    },
    /// An [`Ior`] run (shared file, per-process segments).
    Ior {
        /// Total bytes of the shared file.
        file_size: u64,
        /// Fixed transfer size per request.
        transfer_size: u64,
        /// Number of MPI processes.
        processes: usize,
        /// Write instead of read.
        write: bool,
    },
    /// An [`Hpio`] noncontiguous run.
    Hpio {
        /// Total number of regions across all processes.
        region_count: u64,
        /// Bytes per region.
        region_size: u64,
        /// Bytes of hole between consecutive regions.
        region_spacing: u64,
        /// Regions bundled into one noncontiguous call.
        regions_per_call: u64,
        /// Number of MPI processes.
        processes: usize,
        /// Issue collective (two-phase) reads instead of independent ones.
        collective: bool,
    },
    /// A [`Synthetic`] mixed read/write run.
    Synthetic {
        /// Bytes per file (one file per process).
        file_size: u64,
        /// Record size in bytes.
        record_size: u64,
        /// Operations per process.
        ops_per_process: u64,
        /// Fraction of reads in [0, 1]; the rest are writes.
        read_fraction: f64,
        /// Position distribution.
        pattern: Pattern,
        /// Number of processes.
        processes: usize,
        /// Compute time between ops, microseconds (0 = none).
        think_time_us: u64,
        /// Ops per burst (0 disables bursting).
        burst_len: u64,
        /// Seed.
        seed: u64,
    },
    /// A [`Replay`] of a recorded trace file (any format
    /// `bps_trace::format::load_path` understands).
    Replay {
        /// Path to the trace file, resolved relative to the working
        /// directory at build time.
        path: String,
    },
    /// Several workloads run back to back: each process issues its stream
    /// of every part in order. The file tables concatenate, later parts'
    /// file indices shifted past earlier parts' files. Every part must run
    /// the same number of processes.
    Sequence {
        /// The parts, in run order.
        parts: Vec<WorkloadSpec>,
    },
}

/// A built [`WorkloadSpec::Sequence`]: the parts, each with the number of
/// files the parts before it declare.
struct Sequence {
    parts: Vec<(Box<dyn Workload>, usize)>,
}

impl Workload for Sequence {
    fn name(&self) -> &'static str {
        "sequence"
    }

    fn processes(&self) -> usize {
        self.parts[0].0.processes()
    }

    fn file_sizes(&self) -> Vec<u64> {
        self.parts
            .iter()
            .flat_map(|(w, _)| w.file_sizes())
            .collect()
    }

    fn stream(&self, pid: usize) -> OpStream {
        let mut stream: OpStream = Box::new(std::iter::empty());
        for (part, shift) in &self.parts {
            let shift = *shift;
            let ops = part.stream(pid).map(move |mut op| {
                if let AppOp::Read { file, .. }
                | AppOp::Write { file, .. }
                | AppOp::ReadNoncontig { file, .. }
                | AppOp::CollectiveReadNoncontig { file, .. } = &mut op
                {
                    *file += shift;
                }
                op
            });
            stream = Box::new(stream.chain(ops));
        }
        stream
    }
}

impl WorkloadSpec {
    /// One-line human description of the generator, for topology renderers
    /// and debug listings (no validation; mirrors the spec fields).
    pub fn summary(&self) -> String {
        match self {
            WorkloadSpec::Iozone {
                mode,
                file_size,
                record_size,
                processes,
                ..
            } => format!(
                "IOzone {mode:?}: {file_size} B/file, {record_size} B records, {processes} proc"
            ),
            WorkloadSpec::Ior {
                file_size,
                transfer_size,
                processes,
                write,
            } => format!(
                "IOR shared-file {}: {file_size} B total, {transfer_size} B transfers, {processes} proc",
                if *write { "write" } else { "read" }
            ),
            WorkloadSpec::Hpio {
                region_count,
                region_size,
                processes,
                collective,
                ..
            } => format!(
                "HPIO {}: {region_count} regions x {region_size} B, {processes} proc",
                if *collective {
                    "collective"
                } else {
                    "independent"
                }
            ),
            WorkloadSpec::Synthetic {
                ops_per_process,
                read_fraction,
                processes,
                ..
            } => format!(
                "Synthetic mix: {ops_per_process} ops/proc, {:.0}% reads, {processes} proc",
                read_fraction * 100.0
            ),
            WorkloadSpec::Replay { path } => format!("Replay of `{path}`"),
            WorkloadSpec::Sequence { parts } => format!(
                "Sequence: {}",
                parts
                    .iter()
                    .map(WorkloadSpec::summary)
                    .collect::<Vec<_>>()
                    .join(", then ")
            ),
        }
    }

    /// Validate the spec and construct the described generator.
    pub fn build(&self) -> Result<Box<dyn Workload>, BuildError> {
        match self.clone() {
            WorkloadSpec::Iozone {
                mode,
                file_size,
                record_size,
                processes,
                seed,
            } => {
                if record_size == 0 {
                    return Err(invalid("iozone record_size must be > 0"));
                }
                if processes == 0 {
                    return Err(invalid("iozone processes must be > 0"));
                }
                Ok(Box::new(Iozone {
                    mode,
                    file_size,
                    record_size,
                    processes,
                    seed,
                }))
            }
            WorkloadSpec::Ior {
                file_size,
                transfer_size,
                processes,
                write,
            } => {
                if transfer_size == 0 {
                    return Err(invalid("ior transfer_size must be > 0"));
                }
                if processes == 0 {
                    return Err(invalid("ior processes must be > 0"));
                }
                Ok(Box::new(Ior {
                    file_size,
                    transfer_size,
                    processes,
                    write,
                }))
            }
            WorkloadSpec::Hpio {
                region_count,
                region_size,
                region_spacing,
                regions_per_call,
                processes,
                collective,
            } => {
                if region_size == 0 {
                    return Err(invalid("hpio region_size must be > 0"));
                }
                if processes == 0 {
                    return Err(invalid("hpio processes must be > 0"));
                }
                // The last region must end inside a u64 file: the file
                // span and every region offset derive from these sums.
                let span = region_size
                    .checked_add(region_spacing)
                    .and_then(|stride| region_count.saturating_sub(1).checked_mul(stride))
                    .and_then(|last| last.checked_add(region_size));
                if span.is_none() {
                    return Err(invalid(format!(
                        "hpio regions overflow u64: {region_count} regions of \
                         {region_size} B spaced {region_spacing} B apart"
                    )));
                }
                Ok(Box::new(Hpio {
                    region_count,
                    region_size,
                    region_spacing,
                    regions_per_call,
                    processes,
                    collective,
                }))
            }
            WorkloadSpec::Synthetic {
                file_size,
                record_size,
                ops_per_process,
                read_fraction,
                pattern,
                processes,
                think_time_us,
                burst_len,
                seed,
            } => {
                if record_size == 0 {
                    return Err(invalid("synthetic record_size must be > 0"));
                }
                if processes == 0 {
                    return Err(invalid("synthetic processes must be > 0"));
                }
                if !(0.0..=1.0).contains(&read_fraction) {
                    return Err(invalid("synthetic read_fraction must be in [0, 1]"));
                }
                if let Pattern::Zipf { exponent } = pattern {
                    if exponent.is_nan() || exponent <= 0.0 {
                        return Err(invalid("zipf exponent must be > 0"));
                    }
                }
                Ok(Box::new(Synthetic {
                    file_size,
                    record_size,
                    ops_per_process,
                    read_fraction,
                    pattern,
                    processes,
                    think_time: Dur::from_micros(think_time_us),
                    burst_len,
                    seed,
                }))
            }
            WorkloadSpec::Replay { path } => {
                let trace = bps_trace::format::load_path(Path::new(&path))
                    .map_err(|e| BuildError(format!("cannot load trace `{path}`: {e}")))?;
                let replay = Replay::from_trace(&trace)
                    .map_err(|e| BuildError(format!("cannot replay trace `{path}`: {e}")))?;
                Ok(Box::new(replay))
            }
            WorkloadSpec::Sequence { parts } => {
                let mut built: Vec<(Box<dyn Workload>, usize)> = Vec::with_capacity(parts.len());
                let mut files = 0;
                for (i, part) in parts.iter().enumerate() {
                    let w = part.build()?;
                    if let Some((first, _)) = built.first() {
                        if w.processes() != first.processes() {
                            return Err(invalid(format!(
                                "sequence part {i} runs {} processes, part 0 runs {}",
                                w.processes(),
                                first.processes()
                            )));
                        }
                    }
                    let shift = files;
                    files += w.file_sizes().len();
                    built.push((w, shift));
                }
                if built.is_empty() {
                    return Err(invalid("sequence needs at least one part"));
                }
                Ok(Box::new(Sequence { parts: built }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AppOp;
    use bps_core::extent::{self, Extent, Regions};
    use serde::{Deserialize, Serialize};

    fn specimens() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::Iozone {
                mode: IozoneMode::SeqRead,
                file_size: 1 << 20,
                record_size: 4096,
                processes: 1,
                seed: 0,
            },
            WorkloadSpec::Ior {
                file_size: 1 << 20,
                transfer_size: 64 << 10,
                processes: 4,
                write: false,
            },
            WorkloadSpec::Hpio {
                region_count: 1000,
                region_size: 256,
                region_spacing: 8,
                regions_per_call: 256,
                processes: 4,
                collective: true,
            },
            WorkloadSpec::Synthetic {
                file_size: 1 << 20,
                record_size: 4096,
                ops_per_process: 100,
                read_fraction: 0.7,
                pattern: Pattern::Zipf { exponent: 1.1 },
                processes: 2,
                think_time_us: 50,
                burst_len: 10,
                seed: 42,
            },
            WorkloadSpec::Sequence {
                parts: vec![hpio(8), iozone_read(1 << 20, 64 << 10)],
            },
        ]
    }

    /// One sequential IOzone read per process, in throughput mode.
    fn iozone_read(file_size: u64, record_size: u64) -> WorkloadSpec {
        WorkloadSpec::Iozone {
            mode: IozoneMode::SeqRead,
            file_size,
            record_size,
            processes: 1,
            seed: 0,
        }
    }

    fn hpio(region_spacing: u64) -> WorkloadSpec {
        WorkloadSpec::Hpio {
            region_count: 4,
            region_size: 256,
            region_spacing,
            regions_per_call: 4,
            processes: 1,
            collective: false,
        }
    }

    #[test]
    fn hpio_regions_past_u64_are_rejected() {
        let err = hpio(u64::MAX / 2).build().err().expect("overflowing spec");
        assert!(err.to_string().contains("overflow"), "{err}");
        // The widest spacing whose last region still ends inside u64.
        let stride = (u64::MAX - 256) / 3;
        let w = hpio(stride - 256).build().expect("spec inside the limit");
        assert_eq!(w.file_sizes(), vec![3 * stride + 256]);
        // One call, one run, expanding to the four regions the generator
        // used to build one by one; the last ends within 256 B of the top.
        let calls: Vec<Regions> = w
            .stream(0)
            .map(|op| match op {
                AppOp::ReadNoncontig { regions, .. } => regions,
                other => panic!("not a noncontiguous call: {other:?}"),
            })
            .collect();
        assert_eq!(calls, vec![Regions::strided(0, 256, stride, 4)]);
        let extents: Vec<Extent> = extent::expand(&calls[0]).collect();
        let want: Vec<Extent> = (0..4).map(|i| Extent::new(i * stride, 256)).collect();
        assert_eq!(extents, want);
        assert!(u64::MAX - extents[3].end() < 256);
        assert!(hpio(stride - 255).build().is_err());
    }

    #[test]
    fn json_round_trip_preserves_every_spec() {
        for spec in specimens() {
            let json = serde_json::to_string(&spec).unwrap();
            let back: WorkloadSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "round-trip of {json}");
        }
    }

    #[test]
    fn external_tagging_shape() {
        let spec = WorkloadSpec::Iozone {
            mode: IozoneMode::BackwardRead,
            file_size: 100,
            record_size: 10,
            processes: 1,
            seed: 7,
        };
        let json = serde_json::to_string(&spec).unwrap();
        assert!(json.starts_with("{\"Iozone\":{"), "{json}");
        assert!(json.contains("\"mode\":\"BackwardRead\""), "{json}");
    }

    #[test]
    fn build_matches_hand_constructed_generator() {
        let spec = WorkloadSpec::Iozone {
            mode: IozoneMode::SeqRead,
            file_size: 1000,
            record_size: 64,
            processes: 1,
            seed: 0,
        };
        let built = spec.build().unwrap();
        let hand = Iozone::seq_read(1000, 64);
        let a: Vec<_> = built.stream(0).collect();
        let b: Vec<_> = hand.stream(0).collect();
        assert_eq!(a, b);
        assert_eq!(built.required_bytes(), hand.required_bytes());
    }

    #[test]
    fn build_rejects_invalid_specs() {
        let bad = [
            WorkloadSpec::Iozone {
                mode: IozoneMode::SeqRead,
                file_size: 100,
                record_size: 0,
                processes: 1,
                seed: 0,
            },
            WorkloadSpec::Ior {
                file_size: 100,
                transfer_size: 64,
                processes: 0,
                write: false,
            },
            WorkloadSpec::Synthetic {
                file_size: 100,
                record_size: 10,
                ops_per_process: 1,
                read_fraction: 1.5,
                pattern: Pattern::Uniform,
                processes: 1,
                think_time_us: 0,
                burst_len: 0,
                seed: 0,
            },
            WorkloadSpec::Synthetic {
                file_size: 100,
                record_size: 10,
                ops_per_process: 1,
                read_fraction: 0.5,
                pattern: Pattern::Zipf { exponent: -1.0 },
                processes: 1,
                think_time_us: 0,
                burst_len: 0,
                seed: 0,
            },
            WorkloadSpec::Sequence { parts: Vec::new() },
            // Part 1 runs one process, part 0 two.
            WorkloadSpec::Sequence {
                parts: vec![
                    WorkloadSpec::Ior {
                        file_size: 100,
                        transfer_size: 10,
                        processes: 2,
                        write: false,
                    },
                    iozone_read(100, 10),
                ],
            },
            // An invalid part invalidates the sequence.
            WorkloadSpec::Sequence {
                parts: vec![iozone_read(100, 0)],
            },
        ];
        for spec in bad {
            assert!(spec.build().is_err(), "{spec:?} should be rejected");
        }
        let err = WorkloadSpec::Sequence { parts: Vec::new() }
            .build()
            .err()
            .expect("empty sequence");
        assert!(err.to_string().contains("at least one part"), "{err}");
    }

    #[test]
    fn sequence_concatenates_streams_and_shifts_files() {
        // HPIO declares one shared file; IOzone one file per process.
        let parts = vec![hpio(8), iozone_read(1000, 500)];
        let seq = WorkloadSpec::Sequence {
            parts: parts.clone(),
        }
        .build()
        .unwrap();
        let built: Vec<_> = parts.iter().map(|p| p.build().unwrap()).collect();
        assert_eq!(seq.processes(), 1);
        assert_eq!(
            seq.file_sizes(),
            [built[0].file_sizes(), built[1].file_sizes()].concat()
        );
        let ops: Vec<AppOp> = seq.stream(0).collect();
        let mut expected: Vec<AppOp> = built[0].stream(0).collect();
        expected.extend(built[1].stream(0).map(|op| match op {
            AppOp::Read { file, extent } => AppOp::Read {
                file: file + 1,
                extent,
            },
            other => panic!("IOzone reads only, got {other:?}"),
        }));
        assert_eq!(ops, expected);
        let summary = WorkloadSpec::Sequence { parts }.summary();
        assert!(
            summary.starts_with("Sequence: HPIO independent"),
            "{summary}"
        );
        assert!(summary.contains(", then IOzone SeqRead"), "{summary}");
    }

    #[test]
    fn replay_build_reports_missing_file() {
        let spec = WorkloadSpec::Replay {
            path: "/nonexistent/trace.bpstrace".to_string(),
        };
        let err = match spec.build() {
            Err(e) => e.to_string(),
            Ok(_) => panic!("expected missing-file error"),
        };
        assert!(err.contains("/nonexistent/trace.bpstrace"), "{err}");
    }

    #[test]
    fn replay_build_reports_overflowing_record() {
        use bps_core::record::{FileId, IoOp, IoRecord, Layer, ProcessId};
        use bps_core::time::Nanos;
        use bps_core::trace::Trace;
        let dir = std::env::temp_dir().join(format!("bps_replay_spec-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("overflow.json");
        let record = IoRecord::new(
            ProcessId(2),
            IoOp::Read,
            FileId(0),
            u64::MAX - 10,
            512,
            Nanos::ZERO,
            Nanos(5_000),
            Layer::Application,
        );
        bps_trace::format::store_path(&Trace::from_records(vec![record]), &path).unwrap();
        let spec = WorkloadSpec::Replay {
            path: path.display().to_string(),
        };
        let err = match spec.build() {
            Err(e) => e.to_string(),
            Ok(_) => panic!("expected an overflow error"),
        };
        std::fs::remove_dir_all(&dir).ok();
        assert!(err.contains("overflow.json"), "{err}");
        assert!(err.contains("record 0 (pid 2, file 0"), "{err}");
    }

    #[test]
    fn unknown_variant_is_a_clear_error() {
        let err = serde_json::from_str::<WorkloadSpec>("{\"Bonnie\":{}}")
            .unwrap_err()
            .to_string();
        assert!(err.contains("Bonnie"), "{err}");
    }

    #[test]
    fn unit_enum_still_round_trips() {
        // IozoneMode keeps the bare-string encoding.
        let v = IozoneMode::RandomRead.to_value();
        assert_eq!(serde_json::to_string(&v).unwrap(), "\"RandomRead\"");
        let back = IozoneMode::from_value(&v).unwrap();
        assert_eq!(back, IozoneMode::RandomRead);
    }
}
