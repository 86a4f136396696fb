//! Content-key collision audit for the two-level case cache.
//!
//! Both cache levels — the in-process memo and the persistent
//! content-addressed store — index scored points by
//! [`engine::content_key`]. A key collision between two cases that
//! simulate differently would serve one case's numbers as the other's,
//! silently. These tests audit injectivity two ways:
//!
//! 1. a property test generating *pairs* of fully resolved cases
//!    (storage, layout, sieving, retry, faults, topology with its disk
//!    scheduler and server CPU, workload with sequences of parts),
//!    scales, and metric selections, asserting keys agree exactly when
//!    the label-stripped inputs agree;
//! 2. a deterministic one-field audit: every simulation-feeding field of
//!    a base case is mutated alone and must change the key, while the
//!    display label — which legitimately differs between figures sharing
//!    a case — must not.

use bps_core::metrics::MetricSelection;
use bps_experiments::runner::Storage;
use bps_experiments::scale::Scale;
use bps_experiments::scenario::engine::{content_key, ResolvedCase, ResolvedWorkload};
use bps_experiments::scenario::spec::{
    DeviceErrorSpec, FaultSpec, LayoutSpec, LinkLossSpec, OutageTrainSpec, RetrySpec, SievingSpec,
    SlowdownSpec, StorageSpec,
};
use bps_sim::device::DiskSched;
use bps_topology::{DeviceNode, NodeSpec, TopologySpec};
use bps_workloads::iozone::IozoneMode;
use bps_workloads::WorkloadSpec;
use proptest::prelude::*;

fn base_case() -> ResolvedCase {
    ResolvedCase {
        label: "base".to_string(),
        storage: StorageSpec::Hdd,
        layout: LayoutSpec::DefaultStripe,
        sieving: SievingSpec::RomioDefault,
        retry: RetrySpec::Default,
        fault: None,
        cpu_per_op_us: 50,
        clients: None,
        topology: None,
        workload: ResolvedWorkload::Spec(WorkloadSpec::Iozone {
            mode: IozoneMode::SeqRead,
            file_size: 1 << 20,
            record_size: 4096,
            processes: 1,
            seed: 0,
        }),
    }
}

fn storages() -> impl Strategy<Value = StorageSpec> {
    prop_oneof![
        Just(StorageSpec::Hdd),
        Just(StorageSpec::Ssd),
        (1usize..=8).prop_map(|servers| StorageSpec::Pvfs { servers }),
    ]
}

fn faults() -> impl Strategy<Value = Option<FaultSpec>> {
    let slowdown = (0usize..4, 1u32..6).prop_map(|(server, f)| SlowdownSpec {
        server,
        factor: f as f64,
    });
    let device_error = prop_oneof![
        (1u32..10).prop_map(|r| DeviceErrorSpec::Uniform {
            rate: r as f64 / 100.0
        }),
        (0usize..4, 1u32..10).prop_map(|(server, r)| DeviceErrorSpec::Server {
            server,
            rate: r as f64 / 100.0
        }),
    ];
    let link_loss = (1u32..10, 1u64..5).prop_map(|(r, d)| LinkLossSpec {
        rate: r as f64 / 100.0,
        retransmit_delay_ms: d,
    });
    let outage = (0usize..4, 1u64..20, 20u64..50, 0u64..10, 1u64..4).prop_map(
        |(server, width_ms, period_ms, phase_ms, cycles)| OutageTrainSpec {
            server,
            width_ms,
            period_ms,
            phase_ms,
            cycles,
        },
    );
    prop_oneof![
        Just(None),
        (
            0u64..4,
            collection::vec(slowdown, 0..2),
            collection::vec(device_error, 0..2),
            prop_oneof![Just(None), link_loss.prop_map(Some)],
            collection::vec(outage, 0..2),
        )
            .prop_map(
                |(seed, slowdowns, device_errors, link_loss, outage_trains)| {
                    Some(FaultSpec {
                        seed,
                        slowdowns,
                        device_errors,
                        link_loss,
                        outage_trains,
                    })
                }
            ),
    ]
}

/// A `Pfs` over an HDD whose server CPU and disk scheduler are optional.
fn tuned_pfs(server_cpu_us: Option<u64>, sched: Option<DiskSched>) -> TopologySpec {
    TopologySpec::new(vec![
        NodeSpec::Pfs {
            servers: 2,
            server_cpu_us,
        },
        NodeSpec::Device {
            device: DeviceNode::Hdd,
            sched,
        },
    ])
}

fn topologies() -> impl Strategy<Value = Option<TopologySpec>> {
    // Distinct component graphs, including derived ones: the audit cares
    // that two cases declaring different stacks never share a key.
    let sched = prop_oneof![
        Just(None),
        Just(Some(DiskSched::Fifo)),
        Just(Some(DiskSched::Elevator))
    ];
    prop_oneof![
        Just(None),
        Just(Some(Storage::Hdd.default_topology())),
        Just(Some(Storage::Ssd.default_topology())),
        (1usize..=4).prop_map(|servers| Some(Storage::Pvfs { servers }.default_topology())),
        (
            prop_oneof![Just(None), Just(Some(25u64)), Just(Some(50u64))],
            sched
        )
            .prop_map(|(cpu, sched)| Some(tuned_pfs(cpu, sched))),
    ]
}

fn workloads() -> impl Strategy<Value = ResolvedWorkload> {
    let iozone = (
        prop_oneof![
            Just(IozoneMode::SeqRead),
            Just(IozoneMode::SeqWrite),
            Just(IozoneMode::RandomRead),
        ],
        prop_oneof![Just(1u64 << 18), Just(1u64 << 20)],
        prop_oneof![Just(4096u64), Just(65536u64)],
        1usize..4,
        0u64..3,
    )
        .prop_map(|(mode, file_size, record_size, processes, seed)| {
            ResolvedWorkload::Spec(WorkloadSpec::Iozone {
                mode,
                file_size,
                record_size,
                processes,
                seed,
            })
        });
    let ior = (prop_oneof![Just(1u64 << 18), Just(1u64 << 20)], 1usize..4).prop_map(
        |(file_size, processes)| {
            ResolvedWorkload::Spec(WorkloadSpec::Ior {
                file_size,
                transfer_size: 65536,
                processes,
                write: false,
            })
        },
    );
    let sequence = (1usize..4, prop_oneof![Just(4096u64), Just(65536u64)]).prop_map(
        |(processes, record_size)| {
            ResolvedWorkload::Spec(WorkloadSpec::Sequence {
                parts: vec![
                    WorkloadSpec::Ior {
                        file_size: 1 << 18,
                        transfer_size: 65536,
                        processes,
                        write: false,
                    },
                    WorkloadSpec::Iozone {
                        mode: IozoneMode::SeqRead,
                        file_size: 1 << 18,
                        record_size,
                        processes,
                        seed: 0,
                    },
                ],
            })
        },
    );
    prop_oneof![iozone, ior, sequence, Just(ResolvedWorkload::DegradedMix)]
}

fn cases() -> impl Strategy<Value = ResolvedCase> {
    (
        (
            prop_oneof![Just("a".to_string()), Just("b".to_string())],
            storages(),
            prop_oneof![
                Just(LayoutSpec::DefaultStripe),
                Just(LayoutSpec::PinnedPerFile)
            ],
            prop_oneof![Just(SievingSpec::RomioDefault), Just(SievingSpec::Disabled)],
            prop_oneof![
                Just(RetrySpec::Default),
                (1u32..5, 1u64..100).prop_map(|(max_attempts, b)| RetrySpec::Custom {
                    max_attempts,
                    base_backoff_us: b,
                    max_backoff_us: b * 10,
                }),
            ],
        ),
        faults(),
        prop_oneof![Just(0u64), Just(50u64)],
        prop_oneof![Just(None), Just(Some(1usize)), Just(Some(4usize))],
        topologies(),
        workloads(),
    )
        .prop_map(
            |(
                (label, storage, layout, sieving, retry),
                fault,
                cpu_per_op_us,
                clients,
                topology,
                workload,
            )| ResolvedCase {
                label,
                storage,
                layout,
                sieving,
                retry,
                fault,
                cpu_per_op_us,
                clients,
                topology,
                workload,
            },
        )
}

fn scales() -> [Scale; 3] {
    [Scale::tiny(), Scale::quick(), Scale::paper()]
}

fn selections() -> Vec<MetricSelection> {
    let parse = |names: &[&str]| {
        MetricSelection::parse(&names.iter().map(|s| s.to_string()).collect::<Vec<_>>())
            .expect("valid registry names")
    };
    vec![
        MetricSelection::paper(),
        parse(&["BPS"]),
        parse(&["BPS", "P99"]),
        parse(&[
            "IOPS", "BW", "ARPT", "BPS", "P50", "P99", "EffPar", "IOEff", "MaxQD",
        ]),
    ]
}

proptest! {
    /// Keys collide exactly when every simulation-feeding input agrees:
    /// the label-stripped case, the scale, and the metric selection.
    /// Anything else sharing a key would replay the wrong numbers.
    #[test]
    fn keys_collide_only_for_identical_inputs(
        a in cases(),
        b in cases(),
        sa in 0usize..3,
        sb in 0usize..3,
        la in 0usize..4,
        lb in 0usize..4,
    ) {
        let scales = scales();
        let sels = selections();
        let ka = content_key(&a, &scales[sa], &sels[la]);
        let kb = content_key(&b, &scales[sb], &sels[lb]);
        let mut sa_case = a.clone();
        sa_case.label.clear();
        let mut sb_case = b.clone();
        sb_case.label.clear();
        let same_inputs =
            sa_case == sb_case && sa == sb && sels[la].names() == sels[lb].names();
        prop_assert_eq!(
            ka == kb,
            same_inputs,
            "key collision audit failed:\n a={:?}\n b={:?}",
            a,
            b
        );
    }

    /// The same case keyed under two different *pairs* of (scale,
    /// selection) never collides unless both components match.
    #[test]
    fn scale_and_selection_are_both_keyed(
        c in cases(),
        sa in 0usize..3,
        sb in 0usize..3,
        la in 0usize..4,
        lb in 0usize..4,
    ) {
        let scales = scales();
        let sels = selections();
        let ka = content_key(&c, &scales[sa], &sels[la]);
        let kb = content_key(&c, &scales[sb], &sels[lb]);
        let same = sa == sb && sels[la].names() == sels[lb].names();
        prop_assert_eq!(ka == kb, same);
    }
}

/// Every simulation-feeding field, mutated alone, changes the key; the
/// display label does not.
#[test]
fn every_field_mutation_changes_the_key() {
    let scale = Scale::tiny();
    let sel = MetricSelection::paper();
    let base = base_case();
    let base_key = content_key(&base, &scale, &sel);

    type Mutation = Box<dyn Fn(&mut ResolvedCase)>;
    let mutations: Vec<(&str, Mutation)> = vec![
        ("storage", Box::new(|c| c.storage = StorageSpec::Ssd)),
        ("layout", Box::new(|c| c.layout = LayoutSpec::PinnedPerFile)),
        ("sieving", Box::new(|c| c.sieving = SievingSpec::Disabled)),
        (
            "retry",
            Box::new(|c| {
                c.retry = RetrySpec::Custom {
                    max_attempts: 2,
                    base_backoff_us: 10,
                    max_backoff_us: 100,
                }
            }),
        ),
        ("fault", Box::new(|c| c.fault = Some(FaultSpec::seeded(7)))),
        ("cpu_per_op_us", Box::new(|c| c.cpu_per_op_us += 1)),
        ("clients", Box::new(|c| c.clients = Some(2))),
        (
            "topology",
            Box::new(|c| c.topology = Some(Storage::Hdd.default_topology())),
        ),
        (
            "workload",
            Box::new(|c| {
                c.workload = ResolvedWorkload::Spec(WorkloadSpec::Iozone {
                    mode: IozoneMode::SeqRead,
                    file_size: 1 << 20,
                    record_size: 8192, // one field off the base
                    processes: 1,
                    seed: 0,
                })
            }),
        ),
        (
            "workload kind",
            Box::new(|c| c.workload = ResolvedWorkload::DegradedMix),
        ),
        (
            "workload as a one-part sequence",
            Box::new(|c| {
                if let ResolvedWorkload::Spec(spec) = &c.workload {
                    c.workload = ResolvedWorkload::Spec(WorkloadSpec::Sequence {
                        parts: vec![spec.clone()],
                    });
                }
            }),
        ),
    ];
    for (name, mutate) in &mutations {
        let mut c = base.clone();
        mutate(&mut c);
        assert_ne!(
            content_key(&c, &scale, &sel),
            base_key,
            "mutating `{name}` must change the content key"
        );
    }

    // Fault plans differing in one sub-field must not collide either.
    let mut fa = base.clone();
    fa.fault = Some(FaultSpec::seeded(7));
    let mut fb = fa.clone();
    fb.fault.as_mut().unwrap().slowdowns.push(SlowdownSpec {
        server: 0,
        factor: 2.0,
    });
    assert_ne!(
        content_key(&fa, &scale, &sel),
        content_key(&fb, &scale, &sel)
    );

    // Graphs differing only in the disk scheduler or the server CPU, and
    // sequences differing only in one part, never share a key.
    let keyed = |topology: Option<TopologySpec>, workload: Option<WorkloadSpec>| {
        let mut c = base.clone();
        c.topology = topology;
        if let Some(w) = workload {
            c.workload = ResolvedWorkload::Spec(w);
        }
        content_key(&c, &scale, &sel)
    };
    let variants = [
        tuned_pfs(None, None),
        tuned_pfs(None, Some(DiskSched::Fifo)),
        tuned_pfs(None, Some(DiskSched::Elevator)),
        tuned_pfs(Some(25), None),
        tuned_pfs(Some(26), None),
    ];
    let keys: std::collections::BTreeSet<String> = variants
        .iter()
        .map(|t| keyed(Some(t.clone()), None))
        .collect();
    assert_eq!(keys.len(), variants.len());
    let sequence = |record_size: u64| WorkloadSpec::Sequence {
        parts: vec![
            WorkloadSpec::Ior {
                file_size: 1 << 20,
                transfer_size: 65536,
                processes: 1,
                write: false,
            },
            WorkloadSpec::Iozone {
                mode: IozoneMode::SeqRead,
                file_size: 1 << 20,
                record_size,
                processes: 1,
                seed: 0,
            },
        ],
    };
    assert_ne!(
        keyed(None, Some(sequence(4096))),
        keyed(None, Some(sequence(8192)))
    );

    // The label is display-only: figures sharing a case under different
    // labels must share the key (that is the memo's whole point).
    let mut relabeled = base.clone();
    relabeled.label = "same case, other figure".to_string();
    assert_eq!(content_key(&relabeled, &scale, &sel), base_key);
}
