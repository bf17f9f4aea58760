//! Platform assembly: zones of nodes plus the network between them.

use crate::network::{LinkSpec, NetworkModel};
use crate::node::{DeviceClass, Node, NodeId, NodeSpec};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a zone (cluster, cloud region, fog area).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ZoneId(pub(crate) u16);

impl ZoneId {
    /// A zone id from its raw index (inverse of [`ZoneId::index`]).
    pub fn from_index(index: usize) -> Self {
        ZoneId(index as u16)
    }

    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ZoneId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "z{}", self.0)
    }
}

/// What kind of resource pool a zone is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ZoneKind {
    /// Fixed-size HPC cluster (possibly SLURM-elastic).
    Cluster,
    /// Elastic cloud pool: nodes can be provisioned up to a maximum.
    Cloud,
    /// Fog area: volatile consumer devices.
    FogArea,
    /// Edge/sensor field.
    EdgeField,
}

/// A zone: a named group of homogeneous nodes with a kind and, for
/// elastic pools, a provisioning limit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Zone {
    id: ZoneId,
    name: String,
    kind: ZoneKind,
    /// Node template used when the pool grows elastically.
    template: NodeSpec,
    /// Maximum node count (== initial count for non-elastic zones).
    max_nodes: usize,
    /// Ids of the nodes currently in this zone.
    nodes: Vec<NodeId>,
}

impl Zone {
    /// The zone's id.
    pub fn id(&self) -> ZoneId {
        self.id
    }

    /// The zone's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The zone's kind.
    pub fn kind(&self) -> ZoneKind {
        self.kind
    }

    /// Node template for elastic growth.
    pub fn template(&self) -> &NodeSpec {
        &self.template
    }

    /// Maximum number of nodes this zone may hold.
    pub fn max_nodes(&self) -> usize {
        self.max_nodes
    }

    /// Current node ids.
    pub fn node_ids(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Returns `true` if the zone can still grow.
    pub fn can_grow(&self) -> bool {
        matches!(self.kind, ZoneKind::Cloud | ZoneKind::Cluster)
            && self.nodes.len() < self.max_nodes
    }
}

/// A complete platform description: nodes, zones and the network.
///
/// Use [`PlatformBuilder`] to construct one; see the crate-level example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Platform {
    nodes: Vec<Node>,
    zones: Vec<Zone>,
    network: NetworkModel,
}

impl Platform {
    /// Number of nodes currently in the platform.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by dense index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn node_by_index(&self, idx: usize) -> &Node {
        &self.nodes[idx]
    }

    /// A node by id, if present.
    pub fn node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id.index())
    }

    /// All zones.
    pub fn zones(&self) -> &[Zone] {
        &self.zones
    }

    /// A zone by id.
    ///
    /// # Panics
    ///
    /// Panics if the zone id is unknown.
    pub fn zone(&self, id: ZoneId) -> &Zone {
        &self.zones[id.index()]
    }

    /// The network model.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Seconds to move `bytes` between two nodes (free on the same
    /// node).
    pub fn transfer_seconds(&self, bytes: u64, from: NodeId, to: NodeId) -> f64 {
        if from == to {
            return 0.0;
        }
        let fz = self.nodes[from.index()].zone();
        let tz = self.nodes[to.index()].zone();
        self.network.transfer_seconds(bytes, fz, tz)
    }

    /// Total core count across all nodes.
    pub fn total_cores(&self) -> u64 {
        self.nodes.iter().map(|n| n.capacity().cores() as u64).sum()
    }

    /// Nodes of a given device class.
    pub fn nodes_of_class(&self, class: DeviceClass) -> impl Iterator<Item = &Node> {
        self.nodes
            .iter()
            .filter(move |n| n.spec().device_class() == class)
    }

    /// Grows an elastic zone by one node from its template. Returns the
    /// new node's id, or `None` if the zone is at its maximum.
    pub fn grow_zone(&mut self, zone: ZoneId) -> Option<NodeId> {
        let z = &mut self.zones[zone.index()];
        if z.nodes.len() >= z.max_nodes {
            return None;
        }
        let id = NodeId(self.nodes.len() as u32);
        let name = format!("{}-{}", z.name, z.nodes.len());
        self.nodes
            .push(Node::new(id, name, z.template.clone(), zone));
        z.nodes.push(id);
        Some(id)
    }
}

/// Builder for [`Platform`].
#[derive(Debug)]
pub struct PlatformBuilder {
    nodes: Vec<Node>,
    zones: Vec<Zone>,
    network: NetworkModel,
}

impl Default for PlatformBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl PlatformBuilder {
    /// Creates a builder with a WAN default between zones.
    pub fn new() -> Self {
        PlatformBuilder {
            nodes: Vec::new(),
            zones: Vec::new(),
            network: NetworkModel::new(LinkSpec::wan()),
        }
    }

    fn add_zone(
        &mut self,
        name: &str,
        kind: ZoneKind,
        initial: usize,
        max_nodes: usize,
        template: NodeSpec,
        intra: LinkSpec,
    ) -> ZoneId {
        let zone_id = self.network.add_zone(intra);
        debug_assert_eq!(zone_id.index(), self.zones.len());
        let mut node_ids = Vec::with_capacity(initial);
        for i in 0..initial {
            let id = NodeId(self.nodes.len() as u32);
            self.nodes.push(Node::new(
                id,
                format!("{name}-{i}"),
                template.clone(),
                zone_id,
            ));
            node_ids.push(id);
        }
        self.zones.push(Zone {
            id: zone_id,
            name: name.to_string(),
            kind,
            template,
            max_nodes: max_nodes.max(initial),
            nodes: node_ids,
        });
        zone_id
    }

    /// Adds a fixed-size cluster with an InfiniBand-class fabric.
    pub fn cluster(mut self, name: &str, nodes: usize, spec: NodeSpec) -> Self {
        self.add_zone(
            name,
            ZoneKind::Cluster,
            nodes,
            nodes,
            spec,
            LinkSpec::infiniband(),
        );
        self
    }

    /// Adds an elastic SLURM-like cluster that can grow to `max_nodes`.
    pub fn elastic_cluster(
        mut self,
        name: &str,
        initial: usize,
        max_nodes: usize,
        spec: NodeSpec,
    ) -> Self {
        self.add_zone(
            name,
            ZoneKind::Cluster,
            initial,
            max_nodes,
            spec,
            LinkSpec::infiniband(),
        );
        self
    }

    /// Adds a cloud pool with `initial` VMs (datacenter fabric inside).
    pub fn cloud(mut self, name: &str, initial: usize, spec: NodeSpec) -> Self {
        self.add_zone(
            name,
            ZoneKind::Cloud,
            initial,
            initial.max(64),
            spec,
            LinkSpec::datacenter(),
        );
        self
    }

    /// Adds a cloud pool with an explicit elastic maximum.
    pub fn elastic_cloud(
        mut self,
        name: &str,
        initial: usize,
        max_nodes: usize,
        spec: NodeSpec,
    ) -> Self {
        self.add_zone(
            name,
            ZoneKind::Cloud,
            initial,
            max_nodes,
            spec,
            LinkSpec::datacenter(),
        );
        self
    }

    /// Adds a fog area (wireless fabric inside).
    pub fn fog_area(mut self, name: &str, nodes: usize, spec: NodeSpec) -> Self {
        self.add_zone(
            name,
            ZoneKind::FogArea,
            nodes,
            nodes,
            spec,
            LinkSpec::wireless(),
        );
        self
    }

    /// Adds an edge/sensor field (mobile uplinks inside).
    pub fn edge_field(mut self, name: &str, nodes: usize, spec: NodeSpec) -> Self {
        self.add_zone(
            name,
            ZoneKind::EdgeField,
            nodes,
            nodes,
            spec,
            LinkSpec::mobile(),
        );
        self
    }

    /// Sets an explicit link between two zones (by insertion order
    /// index).
    ///
    /// # Panics
    ///
    /// Panics if either zone index is out of range.
    pub fn link_zones(mut self, a: usize, b: usize, link: LinkSpec) -> Self {
        assert!(a < self.zones.len() && b < self.zones.len(), "unknown zone");
        self.network
            .set_inter_zone(self.zones[a].id, self.zones[b].id, link);
        self
    }

    /// Finalises the platform.
    pub fn build(self) -> Platform {
        Platform {
            nodes: self.nodes,
            zones: self.zones,
            network: self.network,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Platform {
        PlatformBuilder::new()
            .cluster("mn", 3, NodeSpec::hpc(48, 96_000))
            .cloud("aws", 2, NodeSpec::cloud_vm(8, 16_000))
            .fog_area("campus", 4, NodeSpec::fog(4, 4_000))
            .build()
    }

    #[test]
    fn builder_creates_nodes_and_zones() {
        let p = sample();
        assert_eq!(p.num_nodes(), 9);
        assert_eq!(p.zones().len(), 3);
        assert_eq!(p.total_cores(), 3 * 48 + 2 * 8 + 4 * 4);
        assert_eq!(p.zone(ZoneId(0)).name(), "mn");
        assert_eq!(p.node_by_index(0).name(), "mn-0");
        assert_eq!(p.node_by_index(3).name(), "aws-0");
    }

    #[test]
    fn node_zone_assignment() {
        let p = sample();
        assert_eq!(p.node_by_index(0).zone(), ZoneId(0));
        assert_eq!(p.node_by_index(4).zone(), ZoneId(1));
        assert_eq!(p.node_by_index(8).zone(), ZoneId(2));
    }

    #[test]
    fn transfer_free_on_same_node() {
        let p = sample();
        let n0 = p.node_by_index(0).id();
        assert_eq!(p.transfer_seconds(1_000_000, n0, n0), 0.0);
    }

    #[test]
    fn transfer_cost_grows_across_zones() {
        let p = sample();
        let bytes = 100_000_000;
        let intra = p.transfer_seconds(bytes, NodeId(0), NodeId(1));
        let wan = p.transfer_seconds(bytes, NodeId(0), NodeId(3));
        assert!(intra < wan);
    }

    #[test]
    fn grow_zone_respects_maximum() {
        let mut p = PlatformBuilder::new()
            .elastic_cloud("ec2", 1, 3, NodeSpec::cloud_vm(8, 16_000))
            .build();
        assert_eq!(p.num_nodes(), 1);
        let z = p.zones()[0].id();
        assert!(p.grow_zone(z).is_some());
        assert!(p.grow_zone(z).is_some());
        assert!(p.grow_zone(z).is_none(), "at max");
        assert_eq!(p.num_nodes(), 3);
        assert_eq!(p.zone(z).node_ids().len(), 3);
        assert_eq!(p.node_by_index(2).name(), "ec2-2");
    }

    #[test]
    fn fixed_cluster_cannot_grow() {
        let mut p = PlatformBuilder::new()
            .cluster("mn", 2, NodeSpec::hpc(48, 96_000))
            .build();
        let z = p.zones()[0].id();
        assert!(!p.zone(z).can_grow());
        assert!(p.grow_zone(z).is_none());
    }

    #[test]
    fn nodes_of_class_filter() {
        let p = sample();
        assert_eq!(p.nodes_of_class(DeviceClass::Hpc).count(), 3);
        assert_eq!(p.nodes_of_class(DeviceClass::Fog).count(), 4);
        assert_eq!(p.nodes_of_class(DeviceClass::Sensor).count(), 0);
    }

    #[test]
    fn explicit_zone_links() {
        let p = PlatformBuilder::new()
            .cluster("a", 1, NodeSpec::hpc(4, 1000))
            .cluster("b", 1, NodeSpec::hpc(4, 1000))
            .link_zones(0, 1, LinkSpec::new(5000.0, 1e-5))
            .build();
        let t = p.transfer_seconds(1_000_000_000, NodeId(0), NodeId(1));
        assert!(t < 1.0, "custom fast link should beat WAN default, got {t}");
    }

    #[test]
    fn elastic_cluster_grows() {
        let mut p = PlatformBuilder::new()
            .elastic_cluster("slurm", 2, 4, NodeSpec::hpc(48, 96_000))
            .build();
        let z = p.zones()[0].id();
        assert!(p.zone(z).can_grow());
        p.grow_zone(z).unwrap();
        p.grow_zone(z).unwrap();
        assert!(p.grow_zone(z).is_none());
    }
}
