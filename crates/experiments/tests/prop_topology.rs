//! Property tests for the topology layer: the prebuilt component graphs
//! are invisible — a case that declares the topology its storage would
//! have derived runs bit-for-bit identically to one that declares
//! nothing — and `TopologySpec` survives JSON round-trips.

use bps_core::time::Dur;
use bps_experiments::runner::{CaseSpec, Storage};
use bps_experiments::scale::Scale;
use bps_experiments::scenario::engine::{self, RunOpts};
use bps_experiments::scenario::spec::{
    CaseDecl, CaseTemplate, Expect, Grid, Num, OutputSpec, Patch, Scenario, StorageSpec,
    WorkloadTemplate,
};
use bps_experiments::sweep::SweepExec;
use bps_sim::device::DeviceNode;
use bps_sim::fault::FaultPlan;
use bps_topology::{NodeSpec, TopologySpec};
use bps_workloads::iozone::{Iozone, IozoneMode};
use proptest::prelude::*;

fn storage(idx: usize) -> Storage {
    match idx % 3 {
        0 => Storage::Hdd,
        1 => Storage::Ssd,
        _ => Storage::Pvfs {
            servers: 1 + idx % 4,
        },
    }
}

/// A well-formed random component chain: optional middleware above one
/// file-system node, `Net` only above `Pfs`, optional device last.
#[derive(Debug, Clone)]
struct ChainParams {
    collective: bool,
    sieving: Option<bool>,
    prefetch_kb: Option<u64>,
    pfs_servers: Option<usize>,
    local_overhead_us: Option<u64>,
    net: Option<(Option<u64>, Option<bool>)>,
    loss_permille: u64,
    device: Option<usize>,
}

fn chain(p: &ChainParams) -> TopologySpec {
    let mut nodes = Vec::new();
    if p.collective {
        nodes.push(NodeSpec::Collective);
    }
    if let Some(enabled) = p.sieving {
        nodes.push(NodeSpec::Sieving { enabled });
    }
    if let Some(window_kb) = p.prefetch_kb {
        nodes.push(NodeSpec::Prefetch { window_kb });
    }
    match p.pfs_servers {
        Some(servers) => {
            nodes.push(NodeSpec::Pfs {
                servers,
                server_cpu_us: None,
            });
            if let Some((retransmit_delay_ms, record)) = p.net {
                nodes.push(NodeSpec::Net {
                    loss_rate: if p.loss_permille == 0 {
                        None
                    } else {
                        Some(p.loss_permille as f64 / 1000.0)
                    },
                    retransmit_delay_ms,
                    record,
                });
            }
        }
        None => nodes.push(NodeSpec::LocalFs {
            overhead_us: p.local_overhead_us,
        }),
    }
    if let Some(d) = p.device {
        let device = match d % 4 {
            0 => DeviceNode::Hdd,
            1 => DeviceNode::Ssd,
            2 => DeviceNode::Raid0 { members: 1 + d % 5 },
            _ => DeviceNode::Ram {
                fixed_us: 1 + d as u64,
                rate: 1_000_000 * (1 + d as u64),
                capacity: 1 << 30,
            },
        };
        nodes.push(NodeSpec::Device {
            device,
            sched: None,
        });
    }
    TopologySpec::new(nodes)
}

/// A one-dimension scenario over record sizes, optionally carrying an
/// explicit topology on its base template.
fn scenario(topology: Option<TopologySpec>, storage: StorageSpec, file_kb: u64) -> Scenario {
    let mut base = CaseTemplate::new(
        storage,
        WorkloadTemplate::Iozone {
            mode: IozoneMode::SeqRead,
            file_size: Num::Abs { n: file_kb << 10 },
            record_size: Num::Abs { n: 4 << 10 },
            processes: 1,
            seed: 0,
        },
    );
    base.topology = topology;
    Scenario {
        name: "prop-topology".to_string(),
        title: "property-generated topology sweep".to_string(),
        output: OutputSpec::Cc,
        base,
        grid: Grid {
            dims: vec![vec![
                CaseDecl::new(
                    "r4k",
                    Patch {
                        record_size: Some(4 << 10),
                        ..Patch::none()
                    },
                ),
                CaseDecl::new(
                    "r64k",
                    Patch {
                        record_size: Some(64 << 10),
                        ..Patch::none()
                    },
                ),
            ]],
        },
        metrics: Vec::new(),
        deadline_ms: None,
        expect: vec![Expect::correct_direction("BPS")],
        verdict: None,
    }
}

proptest! {
    /// Declaring the exact topology the storage would have derived is a
    /// no-op: same records, same execution time, same averaged metrics —
    /// healthy or faulty.
    #[test]
    fn prebuilt_topology_is_bit_identical(
        storage_idx in 0usize..6,
        file_kb in 16u64..128,
        record_kb in 2u64..64,
        seed in 1u64..1000,
        lossy in any::<bool>(),
    ) {
        let s = storage(storage_idx);
        let w = Iozone::seq_read(file_kb << 10, record_kb << 10);
        let fault = if lossy {
            FaultPlan::none().with_link_loss(0.02, Dur::from_millis(5))
        } else {
            FaultPlan::none()
        };
        let implicit = CaseSpec {
            fault: fault.clone(),
            ..CaseSpec::new(s, &w)
        };
        let explicit = CaseSpec {
            fault,
            topology: Some(s.default_topology()),
            ..CaseSpec::new(s, &w)
        };

        let a = bps_experiments::runner::run_case(&implicit, seed);
        let b = bps_experiments::runner::run_case(&explicit, seed);
        prop_assert_eq!(a.execution_time(), b.execution_time());
        prop_assert_eq!(a.records(), b.records());

        let exec = SweepExec::default();
        let pa = exec.run_one("case", &implicit, &[seed, seed + 1]);
        let pb = exec.run_one("case", &explicit, &[seed, seed + 1]);
        // `{:?}` prints shortest round-trip decimals: equal strings, equal bits.
        prop_assert_eq!(format!("{pa:?}"), format!("{pb:?}"));
    }

    /// Every well-formed chain validates, survives a JSON round-trip
    /// unchanged, and renders one line per node.
    #[test]
    fn topology_spec_round_trips(
        collective in any::<bool>(),
        sieving_sel in 0usize..3,
        prefetch_kb in 0u64..2048,
        pfs_servers in 0usize..9,
        local_overhead_us in 0u64..500,
        net_sel in 0usize..3,
        retransmit_ms in 0u64..100,
        record_sel in 0usize..3,
        loss_permille in 0u64..500,
        device_sel in 0usize..17,
    ) {
        let spec = chain(&ChainParams {
            collective,
            sieving: [None, Some(false), Some(true)][sieving_sel],
            prefetch_kb: (prefetch_kb > 0).then_some(prefetch_kb),
            pfs_servers: (pfs_servers > 0).then_some(pfs_servers),
            local_overhead_us: (local_overhead_us > 0).then_some(local_overhead_us),
            net: (net_sel > 0).then_some((
                (retransmit_ms > 0).then_some(retransmit_ms),
                [None, Some(false), Some(true)][record_sel],
            )),
            loss_permille,
            device: device_sel.checked_sub(1),
        });
        prop_assert!(spec.validate().is_ok(), "{:?}", spec);

        let json = serde_json::to_string(&spec).unwrap();
        let back: TopologySpec = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&back, &spec);

        let rendered = spec.render(None);
        let has_device = spec
            .nodes()
            .iter()
            .any(|n| matches!(n, NodeSpec::Device { .. }));
        let expected_lines = spec.nodes().len() + usize::from(!has_device);
        prop_assert_eq!(rendered.lines().count(), expected_lines);
    }

    /// A scenario with an explicit topology equal to the storage default
    /// prints byte-identically to one with no topology field, at one
    /// sweep thread and many.
    #[test]
    fn scenario_with_default_topology_is_invisible(
        storage_idx in 0usize..6,
        file_kb in 16u64..64,
        threads in 2usize..5,
    ) {
        let spec = storage(storage_idx);
        let implicit = scenario(None, spec, file_kb);
        let explicit = scenario(Some(spec.default_topology()), spec, file_kb);
        // The resolved cases differ only in the topology field itself.
        let scale = Scale::tiny();
        let ia = engine::expand(&implicit, &scale).unwrap();
        let ea = engine::expand(&explicit, &scale).unwrap();
        for (a, b) in ia.iter().zip(&ea) {
            prop_assert_eq!(&a.effective_topology(), &b.effective_topology());
        }
        let out_implicit = engine::run_with_opts(&implicit, &scale, SweepExec::new(1), true, &RunOpts::default()).unwrap();
        let out_explicit = engine::run_with_opts(&explicit, &scale, SweepExec::new(threads), true, &RunOpts::default()).unwrap();
        prop_assert_eq!(format!("{out_implicit}"), format!("{out_explicit}"));
    }
}

/// Memoization is invisible to topology runs: the same scenario scores
/// identically with the memo disabled, cold, and warm.
#[test]
fn memo_on_and_off_agree_for_explicit_topologies() {
    let topo = TopologySpec::new(vec![
        NodeSpec::Prefetch { window_kb: 256 },
        NodeSpec::Pfs {
            servers: 3,
            server_cpu_us: None,
        },
        NodeSpec::Net {
            loss_rate: Some(0.01),
            retransmit_delay_ms: Some(5),
            record: None,
        },
        NodeSpec::Device {
            device: DeviceNode::Ssd,
            sched: None,
        },
    ]);
    let sc = scenario(Some(topo), StorageSpec::Pvfs { servers: 3 }, 32);
    let scale = Scale::tiny();
    let off =
        engine::run_with_opts(&sc, &scale, SweepExec::new(2), false, &RunOpts::default()).unwrap();
    let off = format!("{off}");
    let memo = || engine::run_with_opts(&sc, &scale, SweepExec::new(2), true, &RunOpts::default());
    let cold = format!("{}", memo().unwrap());
    let warm = format!("{}", memo().unwrap());
    assert_eq!(off, cold);
    assert_eq!(cold, warm);
}
