//! Declarable topology nodes and the validated node list.
//!
//! [`NodeSpec`] is the one per-node type: what a scenario JSON
//! `"topology"` array contains, with its ports and one-line description.
//! [`TopologySpec`] wraps the ordered list, owns the structural rules
//! (exactly one file system, middleware above it, `Net` only above `Pfs`,
//! `Device` last) and renders the graph. [`Storage`] names the prebuilt
//! graphs. Assembly lives in [`crate::build`].
//!
//! Requests flow downward through typed ports:
//!
//! * `app` — application-level requests (process, file, extent),
//!   possibly noncontiguous.
//! * `file` — contiguous file-system requests after the middleware
//!   layers have exchanged, sieved, or extended them.
//! * `block` — block-level device requests.
//!
//! A chain is well-typed when each node's output port matches the next
//! node's input port; [`TopologySpec::validate`] enforces the ordering
//! rules that guarantee this.

use crate::TopologyError;
use bps_core::time::Dur;
use bps_fs::cluster::DeviceSpec;
use bps_sim::device::hdd::HddProfile;
use bps_sim::device::ssd::SsdProfile;
use bps_sim::device::DiskSched;
use bps_sim::net::Link;
use serde::{Deserialize, Error, Serialize, Value};

const NS_PER_US: u64 = 1_000;
const NS_PER_MS: u64 = 1_000_000;

/// The component kinds a topology may contain, in canonical stack order.
/// Used verbatim in unknown-component error messages.
pub const VALID_COMPONENTS: [&str; 7] = [
    "Collective",
    "Sieving",
    "Prefetch",
    "LocalFs",
    "Pfs",
    "Net",
    "Device",
];

/// Retransmit timeout of a lossy `Net` node that does not set one.
const DEFAULT_RETRANSMIT_MS: u64 = 10;

/// What flows across a port boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PortKind {
    /// Application requests, as the workload issued them.
    App,
    /// Contiguous file-system requests.
    File,
    /// Block-level device requests.
    Block,
}

impl std::fmt::Display for PortKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            PortKind::App => "app",
            PortKind::File => "file",
            PortKind::Block => "block",
        })
    }
}

/// Which device model sits at the bottom of the stack.
///
/// Profiles are the calibrated ones the paper's experiments use; a node
/// selects a profile rather than re-specifying raw device parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DeviceNode {
    /// Rotating disk: the SATA 7200 rpm, 250 GB profile.
    Hdd,
    /// Flash SSD: the PCIe x4, 100 GB profile.
    Ssd,
    /// RAID-0 array of SATA member disks.
    Raid0 {
        /// Number of member disks.
        members: usize,
    },
    /// Constant-cost device (calibration and tests).
    Ram {
        /// Fixed per-op latency in microseconds.
        fixed_us: u64,
        /// Bytes per second.
        rate: u64,
        /// Capacity in bytes.
        capacity: u64,
    },
}

impl DeviceNode {
    /// Lower to the cluster's device specification.
    pub fn to_spec(&self) -> DeviceSpec {
        match self {
            DeviceNode::Hdd => DeviceSpec::Hdd(HddProfile::sata_7200_250gb()),
            DeviceNode::Ssd => DeviceSpec::Ssd(SsdProfile::pcie_x4_100gb()),
            DeviceNode::Raid0 { members } => DeviceSpec::Raid0 {
                member: HddProfile::sata_7200_250gb(),
                members: *members,
            },
            DeviceNode::Ram {
                fixed_us,
                rate,
                capacity,
            } => DeviceSpec::Ram {
                fixed: Dur::from_micros(*fixed_us),
                rate: *rate,
                capacity: *capacity,
            },
        }
    }
}

/// One declarable node of the component graph.
///
/// In JSON a unit node is a bare string (`"Collective"`) and a configured
/// node is a single-key object (`{"Pfs": {"servers": 4}}`). An optional
/// field added after a node's format was fixed is omitted on the wire
/// when unset, so files written before it stay byte-identical.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeSpec {
    /// Two-phase collective I/O marker. Group size always follows the
    /// workload's process count, so this node documents the exchange
    /// layer rather than configuring it.
    Collective,
    /// Data sieving for noncontiguous requests.
    Sieving {
        /// `true` for ROMIO-default covering reads, `false` for one file
        /// system request per region.
        enabled: bool,
    },
    /// Sequential read-ahead.
    Prefetch {
        /// Window fetched beyond each sequential read, in KB.
        window_kb: u64,
    },
    /// Local file system on a single server.
    LocalFs {
        /// Optional per-call overhead in microseconds (`null` for the
        /// profile default).
        overhead_us: Option<u64>,
    },
    /// Striped parallel file system.
    Pfs {
        /// Number of I/O servers.
        servers: usize,
        /// Fixed per-request server CPU cost in microseconds; unset for
        /// the runner's per-seed jittered cost.
        #[serde(skip_serializing_if = "Option::is_none")]
        server_cpu_us: Option<u64>,
    },
    /// The client/server interconnect (Gigabit Ethernet model).
    Net {
        /// Probability a payload transfer is lost and retransmitted;
        /// `null` or `0.0` for a lossless link.
        loss_rate: Option<f64>,
        /// Retransmit timeout in milliseconds (defaults to 10).
        retransmit_delay_ms: Option<u64>,
        /// Emit `Layer::Network` records for each remote chunk's payload
        /// leg (defaults to `false`; network records never count toward
        /// the paper's four metrics).
        record: Option<bool>,
    },
    /// The storage device on each server.
    Device {
        /// Device model selector.
        device: DeviceNode,
        /// Disk scheduling policy; unset for FIFO.
        #[serde(skip_serializing_if = "Option::is_none")]
        sched: Option<DiskSched>,
    },
}

impl NodeSpec {
    /// The component kind name, matching [`VALID_COMPONENTS`].
    pub fn kind(&self) -> &'static str {
        match self {
            NodeSpec::Collective => "Collective",
            NodeSpec::Sieving { .. } => "Sieving",
            NodeSpec::Prefetch { .. } => "Prefetch",
            NodeSpec::LocalFs { .. } => "LocalFs",
            NodeSpec::Pfs { .. } => "Pfs",
            NodeSpec::Net { .. } => "Net",
            NodeSpec::Device { .. } => "Device",
        }
    }

    /// The ports this node receives and emits requests on.
    pub(crate) fn ports(&self) -> (PortKind, PortKind) {
        match self {
            NodeSpec::Collective | NodeSpec::Sieving { .. } | NodeSpec::Prefetch { .. } => {
                (PortKind::App, PortKind::App)
            }
            NodeSpec::LocalFs { .. } | NodeSpec::Pfs { .. } => (PortKind::App, PortKind::File),
            NodeSpec::Net { .. } => (PortKind::File, PortKind::File),
            NodeSpec::Device { .. } => (PortKind::File, PortKind::Block),
        }
    }

    /// A lossy `Net` node's loss rate and effective retransmit timeout in
    /// milliseconds; `None` for every other node and for a lossless link.
    pub(crate) fn link_loss(&self) -> Option<(f64, u64)> {
        match self {
            NodeSpec::Net {
                loss_rate: Some(rate),
                retransmit_delay_ms,
                ..
            } if *rate > 0.0 => Some((*rate, retransmit_delay_ms.unwrap_or(DEFAULT_RETRANSMIT_MS))),
            _ => None,
        }
    }

    /// One-line human description of what the node does, with its
    /// effective parameters.
    pub(crate) fn describe(&self) -> String {
        match self {
            NodeSpec::Collective => {
                "two-phase collective exchange (group size follows the workload's process count)"
                    .into()
            }
            NodeSpec::Sieving { enabled: true } => {
                "ROMIO-default data sieving (4 MB covering reads)".into()
            }
            NodeSpec::Sieving { enabled: false } => {
                "data sieving disabled (one request per region)".into()
            }
            NodeSpec::Prefetch { window_kb } => {
                format!("sequential read-ahead, {window_kb} KB window")
            }
            NodeSpec::LocalFs {
                overhead_us: Some(us),
            } => format!("local file system on one server, {us} us per-call overhead"),
            NodeSpec::LocalFs { overhead_us: None } => "local file system on one server".into(),
            NodeSpec::Pfs {
                servers,
                server_cpu_us,
            } => {
                let mut d = format!(
                    "parallel file system, 64 KB stripes over {servers} server{}",
                    if *servers == 1 { "" } else { "s" }
                );
                if let Some(us) = server_cpu_us {
                    d.push_str(&format!(", {us} us server CPU per request"));
                }
                d
            }
            NodeSpec::Net { record, .. } => {
                let mut d = format!("gigabit ethernet, {}", Link::gigabit_ethernet().describe());
                match self.link_loss() {
                    Some((rate, delay_ms)) => d.push_str(&format!(
                        ", loss rate {rate}, retransmit after {delay_ms} ms"
                    )),
                    None => d.push_str(", lossless"),
                }
                if record.unwrap_or(false) {
                    d.push_str(", recording network-layer spans");
                }
                d
            }
            NodeSpec::Device { device, sched } => {
                let mut d: String = match device {
                    DeviceNode::Hdd => "HDD, SATA 7200 rpm 250 GB profile".into(),
                    DeviceNode::Ssd => "SSD, PCIe x4 100 GB profile (4 channels)".into(),
                    DeviceNode::Raid0 { members } => {
                        format!("RAID-0 over {members} SATA 7200 rpm members")
                    }
                    DeviceNode::Ram {
                        fixed_us,
                        rate,
                        capacity,
                    } => format!(
                        "RAM-backed: {fixed_us} us fixed + {} MB/s, {} MB capacity",
                        rate / 1_000_000,
                        capacity / 1_000_000
                    ),
                };
                match sched {
                    Some(DiskSched::Elevator) => d.push_str(", elevator scheduling"),
                    Some(DiskSched::Fifo) => d.push_str(", FIFO scheduling"),
                    None => {}
                }
                d
            }
        }
    }
}

/// The storage configuration a case names (the paper's Set 1
/// dimension), and with it the prebuilt component graph the case runs
/// when it declares no `"topology"` of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Storage {
    /// Local file system on the testbed HDD.
    Hdd,
    /// Local file system on the testbed SSD.
    Ssd,
    /// PVFS2-like parallel FS over this many I/O servers.
    Pvfs {
        /// Number of I/O servers.
        servers: usize,
    },
}

impl Storage {
    /// The prebuilt component graph this storage historically hardcoded:
    /// local-over-device for `Hdd`/`Ssd`, striped-over-the-network for
    /// `Pvfs`.
    pub fn default_topology(&self) -> TopologySpec {
        match *self {
            Storage::Hdd => TopologySpec::local(DeviceNode::Hdd),
            Storage::Ssd => TopologySpec::local(DeviceNode::Ssd),
            Storage::Pvfs { servers } => TopologySpec::pfs(servers),
        }
    }
}

/// An ordered, validated component chain.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    nodes: Vec<NodeSpec>,
}

impl TopologySpec {
    /// Wrap a node list. Call [`TopologySpec::validate`] before building.
    pub fn new(nodes: Vec<NodeSpec>) -> Self {
        TopologySpec { nodes }
    }

    /// The nodes, in declaration order.
    pub fn nodes(&self) -> &[NodeSpec] {
        &self.nodes
    }

    /// The prebuilt single-server stack the runner's `Hdd`/`Ssd` storage
    /// historically hardcoded: a local file system straight onto `device`.
    pub fn local(device: DeviceNode) -> Self {
        TopologySpec::new(vec![
            NodeSpec::LocalFs { overhead_us: None },
            NodeSpec::Device {
                device,
                sched: None,
            },
        ])
    }

    /// The prebuilt parallel stack the runner's `Pvfs` storage
    /// historically hardcoded: a striped file system over `servers`
    /// servers, each chunk crossing a lossless Gigabit link to an HDD.
    pub fn pfs(servers: usize) -> Self {
        TopologySpec::new(vec![
            NodeSpec::Pfs {
                servers,
                server_cpu_us: None,
            },
            NodeSpec::Net {
                loss_rate: None,
                retransmit_delay_ms: None,
                record: None,
            },
            NodeSpec::Device {
                device: DeviceNode::Hdd,
                sched: None,
            },
        ])
    }

    /// Check the structural rules of the chain. Errors name the offending
    /// node by index and kind.
    pub fn validate(&self) -> Result<(), TopologyError> {
        let err = |i: usize, kind: &str, msg: &str| {
            Err(TopologyError(format!("topology node {i} ({kind}): {msg}")))
        };
        if self.nodes.is_empty() {
            return Err(TopologyError(
                "topology must contain at least one node (a `LocalFs` or `Pfs` file system)".into(),
            ));
        }
        let mut fs_at: Option<usize> = None;
        let mut net_at: Option<usize> = None;
        let mut middleware_seen: Vec<&'static str> = Vec::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let kind = node.kind();
            match node {
                NodeSpec::Collective | NodeSpec::Sieving { .. } | NodeSpec::Prefetch { .. } => {
                    if fs_at.is_some() {
                        return err(
                            i,
                            kind,
                            "middleware layers must come before the file-system node",
                        );
                    }
                    if middleware_seen.contains(&kind) {
                        return err(i, kind, "each middleware layer may appear at most once");
                    }
                    if let NodeSpec::Prefetch { window_kb } = node {
                        if *window_kb == 0 {
                            return err(i, kind, "read-ahead window must be positive");
                        }
                        if window_kb.checked_mul(1 << 10).is_none() {
                            return err(i, kind, "window_kb overflows a 64-bit byte count");
                        }
                    }
                    middleware_seen.push(kind);
                }
                NodeSpec::LocalFs { .. } | NodeSpec::Pfs { .. } => {
                    if fs_at.is_some() {
                        return err(
                            i,
                            kind,
                            "a topology has exactly one file-system node, found a second",
                        );
                    }
                    if let NodeSpec::Pfs { servers: 0, .. } = node {
                        return err(i, kind, "a parallel file system needs at least one server");
                    }
                    if let NodeSpec::Pfs {
                        server_cpu_us: Some(us),
                        ..
                    } = node
                    {
                        if us.checked_mul(NS_PER_US).is_none() {
                            return err(i, kind, "server_cpu_us overflows 64-bit nanoseconds");
                        }
                    }
                    if let NodeSpec::LocalFs {
                        overhead_us: Some(us),
                    } = node
                    {
                        if us.checked_mul(NS_PER_US).is_none() {
                            return err(i, kind, "overhead_us overflows 64-bit nanoseconds");
                        }
                    }
                    fs_at = Some(i);
                }
                NodeSpec::Net { .. } => {
                    match fs_at.map(|at| &self.nodes[at]) {
                        None => {
                            return err(i, kind, "`Net` must come after the file-system node");
                        }
                        Some(NodeSpec::LocalFs { .. }) => {
                            return err(
                                i,
                                kind,
                                "`Net` is only meaningful above a `Pfs` node (local file system I/O never crosses the interconnect)",
                            );
                        }
                        Some(_) => {}
                    }
                    if net_at.is_some() {
                        return err(i, kind, "at most one `Net` node is allowed");
                    }
                    if let NodeSpec::Net {
                        loss_rate,
                        retransmit_delay_ms,
                        ..
                    } = node
                    {
                        if loss_rate.is_some_and(|rate| !(0.0..1.0).contains(&rate)) {
                            return err(i, kind, "loss_rate must be in [0, 1)");
                        }
                        if retransmit_delay_ms.is_some_and(|ms| ms.checked_mul(NS_PER_MS).is_none())
                        {
                            return err(
                                i,
                                kind,
                                "retransmit_delay_ms overflows 64-bit nanoseconds",
                            );
                        }
                    }
                    net_at = Some(i);
                }
                NodeSpec::Device { device, .. } => {
                    if fs_at.is_none() {
                        return err(i, kind, "`Device` must come after the file-system node");
                    }
                    if i + 1 != self.nodes.len() {
                        return err(i, kind, "`Device` must be the last node");
                    }
                    match device {
                        DeviceNode::Raid0 { members: 0 } => {
                            return err(i, kind, "a RAID-0 array needs at least one member");
                        }
                        DeviceNode::Ram { rate: 0, .. } => {
                            return err(i, kind, "a RAM device needs a positive byte rate");
                        }
                        DeviceNode::Ram { fixed_us, .. }
                            if fixed_us.checked_mul(NS_PER_US).is_none() =>
                        {
                            return err(i, kind, "fixed_us overflows 64-bit nanoseconds");
                        }
                        _ => {}
                    }
                }
            }
        }
        if fs_at.is_none() {
            return Err(TopologyError(
                "topology needs exactly one file-system node (`LocalFs` or `Pfs`)".into(),
            ));
        }
        Ok(())
    }

    /// Pretty-print the component graph: one line per node showing its
    /// ports and effective configuration. `workload` is an optional
    /// source-line description shown above the chain; a missing `Device`
    /// node is rendered as the implicit HDD default.
    pub fn render(&self, workload: Option<&str>) -> String {
        let mut lines: Vec<String> = workload
            .map(|w| {
                format!(
                    "  {:<10} {:>5} -> {:<5}  {w}",
                    "Workload",
                    "",
                    PortKind::App
                )
            })
            .into_iter()
            .collect();
        let implicit = NodeSpec::Device {
            device: DeviceNode::Hdd,
            sched: None,
        };
        let has_device = self
            .nodes
            .iter()
            .any(|n| matches!(n, NodeSpec::Device { .. }));
        let nodes = self
            .nodes
            .iter()
            .map(|n| (n, ""))
            .chain((!has_device).then_some((&implicit, " [implicit default]")));
        for (node, note) in nodes {
            let (input, output) = node.ports();
            lines.push(format!(
                "  {:<10} {input:>5} -> {output:<5}  {}{note}",
                node.kind(),
                node.describe()
            ));
        }
        lines.join("\n")
    }
}

/// The kind name of a raw JSON topology entry: a bare string, or the key
/// of a single-key object.
fn entry_kind(v: &Value) -> Option<String> {
    match v {
        Value::Str(s) => Some(s.clone()),
        Value::Object(fields) if fields.len() == 1 => Some(fields[0].0.clone()),
        _ => None,
    }
}

impl Serialize for TopologySpec {
    fn to_value(&self) -> Value {
        Value::Array(self.nodes.iter().map(Serialize::to_value).collect())
    }
}

impl Deserialize for TopologySpec {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = match v {
            Value::Array(items) => items,
            other => {
                return Err(Error(format!(
                    "topology must be an array of component nodes, got {}",
                    other.kind()
                )))
            }
        };
        let mut nodes = Vec::with_capacity(items.len());
        for (i, item) in items.iter().enumerate() {
            let kind = entry_kind(item).ok_or_else(|| {
                Error(format!(
                    "topology node {i}: expected a component name or a single-key object, got {}",
                    item.kind()
                ))
            })?;
            if !VALID_COMPONENTS.contains(&kind.as_str()) {
                return Err(Error(format!(
                    "topology node {i}: unknown component `{kind}` (valid components: {})",
                    VALID_COMPONENTS.join(", ")
                )));
            }
            let node = NodeSpec::from_value(item)
                .map_err(|e| Error(format!("topology node {i} ({kind}): {e}")))?;
            nodes.push(node);
        }
        Ok(TopologySpec::new(nodes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(json: &str) -> Result<TopologySpec, serde_json::Error> {
        serde_json::from_str(json)
    }

    #[test]
    fn prebuilt_topologies_validate() {
        TopologySpec::local(DeviceNode::Hdd).validate().unwrap();
        TopologySpec::local(DeviceNode::Ssd).validate().unwrap();
        TopologySpec::pfs(4).validate().unwrap();
    }

    #[test]
    fn json_roundtrip_preserves_every_node_kind() {
        let spec = TopologySpec::new(vec![
            NodeSpec::Collective,
            NodeSpec::Sieving { enabled: false },
            NodeSpec::Prefetch { window_kb: 256 },
            NodeSpec::Pfs {
                servers: 4,
                server_cpu_us: None,
            },
            NodeSpec::Net {
                loss_rate: Some(0.01),
                retransmit_delay_ms: Some(5),
                record: Some(true),
            },
            NodeSpec::Device {
                device: DeviceNode::Raid0 { members: 3 },
                sched: None,
            },
        ]);
        let json = serde_json::to_string(&spec).unwrap();
        let back = parse(&json).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn unset_optional_node_fields_stay_off_the_wire() {
        let json = serde_json::to_string(&TopologySpec::pfs(4)).unwrap();
        assert_eq!(
            json,
            r#"[{"Pfs":{"servers":4}},{"Net":{"loss_rate":null,"retransmit_delay_ms":null,"record":null}},{"Device":{"device":"Hdd"}}]"#
        );
        let tuned = TopologySpec::new(vec![
            NodeSpec::Pfs {
                servers: 4,
                server_cpu_us: Some(25),
            },
            NodeSpec::Device {
                device: DeviceNode::Hdd,
                sched: Some(DiskSched::Elevator),
            },
        ]);
        let json = serde_json::to_string(&tuned).unwrap();
        assert_eq!(
            json,
            r#"[{"Pfs":{"servers":4,"server_cpu_us":25}},{"Device":{"device":"Hdd","sched":"Elevator"}}]"#
        );
        assert_eq!(parse(&json).unwrap(), tuned);
        let shown = tuned.render(None);
        assert!(shown.contains("25 us server CPU per request"), "{shown}");
        assert!(shown.contains("elevator scheduling"), "{shown}");
    }

    #[test]
    fn bare_string_and_object_forms_parse() {
        let spec =
            parse(r#"["Collective", {"Pfs": {"servers": 2}}, {"Device": {"device": "Ssd"}}]"#)
                .unwrap();
        assert_eq!(spec.nodes()[0], NodeSpec::Collective);
        assert_eq!(
            spec.nodes()[1],
            NodeSpec::Pfs {
                servers: 2,
                server_cpu_us: None
            }
        );
        spec.validate().unwrap();
    }

    #[test]
    fn unknown_component_names_the_node_and_lists_valid_kinds() {
        let e = parse(r#"[{"Pfs": {"servers": 2}}, "Cache"]"#).unwrap_err();
        assert_eq!(
            e.0,
            "topology node 1: unknown component `Cache` (valid components: \
             Collective, Sieving, Prefetch, LocalFs, Pfs, Net, Device)"
        );
    }

    #[test]
    fn malformed_node_errors_carry_index_and_kind() {
        let e = parse(r#"[{"Pfs": {"servers": "four"}}]"#).unwrap_err();
        assert!(e.0.starts_with("topology node 0 (Pfs):"), "{}", e.0);
        let e = parse(r#"[42]"#).unwrap_err();
        assert!(e.0.contains("expected a component name"), "{}", e.0);
    }

    #[test]
    fn structural_rules_are_enforced() {
        let bad = |nodes: Vec<NodeSpec>, needle: &str| {
            let e = TopologySpec::new(nodes).validate().unwrap_err();
            assert!(e.0.contains(needle), "{}", e.0);
        };
        bad(vec![], "at least one node");
        bad(vec![NodeSpec::Collective], "exactly one file-system node");
        bad(
            vec![
                NodeSpec::LocalFs { overhead_us: None },
                NodeSpec::Pfs {
                    servers: 2,
                    server_cpu_us: None,
                },
            ],
            "found a second",
        );
        bad(
            vec![
                NodeSpec::LocalFs { overhead_us: None },
                NodeSpec::Collective,
            ],
            "before the file-system node",
        );
        bad(
            vec![
                NodeSpec::Collective,
                NodeSpec::Collective,
                NodeSpec::Pfs {
                    servers: 2,
                    server_cpu_us: None,
                },
            ],
            "at most once",
        );
        bad(
            vec![
                NodeSpec::LocalFs { overhead_us: None },
                NodeSpec::Net {
                    loss_rate: None,
                    retransmit_delay_ms: None,
                    record: None,
                },
            ],
            "only meaningful above a `Pfs`",
        );
        bad(
            vec![
                NodeSpec::Device {
                    device: DeviceNode::Hdd,
                    sched: None,
                },
                NodeSpec::LocalFs { overhead_us: None },
            ],
            "after the file-system node",
        );
        bad(
            vec![
                NodeSpec::Pfs {
                    servers: 2,
                    server_cpu_us: None,
                },
                NodeSpec::Device {
                    device: DeviceNode::Hdd,
                    sched: None,
                },
                NodeSpec::Net {
                    loss_rate: None,
                    retransmit_delay_ms: None,
                    record: None,
                },
            ],
            "last node",
        );
        bad(
            vec![NodeSpec::Pfs {
                servers: 0,
                server_cpu_us: None,
            }],
            "at least one server",
        );
        bad(
            vec![
                NodeSpec::Pfs {
                    servers: 2,
                    server_cpu_us: None,
                },
                NodeSpec::Net {
                    loss_rate: Some(1.5),
                    retransmit_delay_ms: None,
                    record: None,
                },
            ],
            "loss_rate",
        );
    }

    #[test]
    fn chains_are_port_typed() {
        let spec = TopologySpec::new(vec![
            NodeSpec::Collective,
            NodeSpec::Sieving { enabled: true },
            NodeSpec::Prefetch { window_kb: 128 },
            NodeSpec::Pfs {
                servers: 4,
                server_cpu_us: None,
            },
            NodeSpec::Net {
                loss_rate: None,
                retransmit_delay_ms: None,
                record: None,
            },
            NodeSpec::Device {
                device: DeviceNode::Hdd,
                sched: None,
            },
        ]);
        spec.validate().unwrap();
        let ports: Vec<_> = spec.nodes().iter().map(NodeSpec::ports).collect();
        assert_eq!(ports.first().unwrap().0, PortKind::App);
        assert_eq!(ports.last().unwrap().1, PortKind::Block);
        for pair in ports.windows(2) {
            assert_eq!(pair[0].1, pair[1].0);
        }
    }

    #[test]
    fn render_shows_ports_and_implicit_device() {
        let out = TopologySpec::new(vec![NodeSpec::Pfs {
            servers: 2,
            server_cpu_us: None,
        }])
        .render(Some("test workload"));
        assert!(out.contains("Workload"), "{out}");
        assert!(out.contains("app -> file"), "{out}");
        assert!(out.contains("[implicit default]"), "{out}");
        let lossy = TopologySpec::new(vec![
            NodeSpec::Pfs {
                servers: 2,
                server_cpu_us: None,
            },
            NodeSpec::Net {
                loss_rate: Some(0.02),
                retransmit_delay_ms: None,
                record: Some(true),
            },
        ])
        .render(None);
        assert!(lossy.contains("loss rate 0.02"), "{lossy}");
        assert!(lossy.contains("recording network-layer spans"), "{lossy}");
    }

    #[test]
    fn numbers_that_overflow_their_engine_unit_are_rejected() {
        let bad = |nodes: Vec<NodeSpec>, needle: &str| {
            let e = TopologySpec::new(nodes).validate().unwrap_err();
            assert_eq!(e.0, needle);
        };
        let net = |ms: u64| NodeSpec::Net {
            loss_rate: Some(0.01),
            retransmit_delay_ms: Some(ms),
            record: None,
        };
        bad(
            vec![
                NodeSpec::Pfs {
                    servers: 2,
                    server_cpu_us: None,
                },
                net(100_000_000_000_000),
            ],
            "topology node 1 (Net): retransmit_delay_ms overflows 64-bit nanoseconds",
        );
        bad(
            vec![NodeSpec::LocalFs {
                overhead_us: Some(u64::MAX / NS_PER_US + 1),
            }],
            "topology node 0 (LocalFs): overhead_us overflows 64-bit nanoseconds",
        );
        bad(
            vec![NodeSpec::Pfs {
                servers: 2,
                server_cpu_us: Some(u64::MAX / NS_PER_US + 1),
            }],
            "topology node 0 (Pfs): server_cpu_us overflows 64-bit nanoseconds",
        );
        bad(
            vec![
                NodeSpec::LocalFs { overhead_us: None },
                NodeSpec::Device {
                    device: DeviceNode::Ram {
                        fixed_us: 100_000_000_000_000_000,
                        rate: 1_000_000,
                        capacity: 1 << 30,
                    },
                    sched: None,
                },
            ],
            "topology node 1 (Device): fixed_us overflows 64-bit nanoseconds",
        );
        bad(
            vec![
                NodeSpec::Prefetch { window_kb: 1 << 55 },
                NodeSpec::LocalFs { overhead_us: None },
            ],
            "topology node 0 (Prefetch): window_kb overflows a 64-bit byte count",
        );
        // The largest values that still fit are accepted.
        TopologySpec::new(vec![
            NodeSpec::Prefetch {
                window_kb: u64::MAX >> 10,
            },
            NodeSpec::Pfs {
                servers: 2,
                server_cpu_us: None,
            },
            net(u64::MAX / NS_PER_MS),
        ])
        .validate()
        .unwrap();
    }
}
