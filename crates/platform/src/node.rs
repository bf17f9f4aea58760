//! Nodes of the computing continuum: HPC, cloud, fog and edge devices.

use crate::constraints::NodeCapacity;
use crate::energy::PowerModel;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node within a [`crate::Platform`].
#[derive(
    Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    /// Creates a node id from a raw index.
    pub fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }

    /// The raw dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The layer of the continuum a device belongs to (paper Fig. 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceClass {
    /// Supercomputer/cluster node.
    Hpc,
    /// Cloud virtual machine.
    CloudVm,
    /// Fog device with moderate compute (smartphone, gateway, tablet).
    Fog,
    /// Edge device with minimal compute (embedded board).
    Edge,
    /// Sensor/instrument: produces data, no general compute.
    Sensor,
}

impl DeviceClass {
    /// Default power model for the class (typical idle/active watts).
    pub fn default_power(self) -> PowerModel {
        match self {
            DeviceClass::Hpc => PowerModel::new(150.0, 350.0),
            DeviceClass::CloudVm => PowerModel::new(60.0, 180.0),
            DeviceClass::Fog => PowerModel::new(2.0, 7.0),
            DeviceClass::Edge => PowerModel::new(0.5, 3.0),
            DeviceClass::Sensor => PowerModel::new(0.05, 0.3),
        }
    }

    /// Returns `true` for battery-powered classes subject to churn.
    pub fn is_volatile(self) -> bool {
        matches!(
            self,
            DeviceClass::Fog | DeviceClass::Edge | DeviceClass::Sensor
        )
    }
}

impl fmt::Display for DeviceClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceClass::Hpc => "hpc",
            DeviceClass::CloudVm => "cloud-vm",
            DeviceClass::Fog => "fog",
            DeviceClass::Edge => "edge",
            DeviceClass::Sensor => "sensor",
        };
        f.write_str(s)
    }
}

/// Static description of a node type: capacity, relative speed, device
/// class and power model.
///
/// # Example
///
/// ```
/// use continuum_platform::{NodeSpec, DeviceClass};
///
/// let spec = NodeSpec::hpc(48, 96_000).with_speed(1.2).with_gpus(2);
/// assert_eq!(spec.device_class(), DeviceClass::Hpc);
/// assert_eq!(spec.capacity().gpus(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    capacity: NodeCapacity,
    /// Relative speed factor: task durations are divided by this.
    speed: f64,
    class: DeviceClass,
    power: PowerModel,
}

impl NodeSpec {
    /// Creates a node spec with explicit class; speed 1.0, class-default
    /// power.
    pub fn new(class: DeviceClass, cores: u32, memory_mb: u64) -> Self {
        NodeSpec {
            capacity: NodeCapacity::new(cores, memory_mb),
            speed: 1.0,
            class,
            power: class.default_power(),
        }
    }

    /// An HPC cluster node (e.g. MareNostrum: 48 cores, 96 GB).
    pub fn hpc(cores: u32, memory_mb: u64) -> Self {
        Self::new(DeviceClass::Hpc, cores, memory_mb)
    }

    /// A cloud VM.
    pub fn cloud_vm(cores: u32, memory_mb: u64) -> Self {
        Self::new(DeviceClass::CloudVm, cores, memory_mb)
    }

    /// A fog device (smartphone/gateway class).
    pub fn fog(cores: u32, memory_mb: u64) -> Self {
        Self::new(DeviceClass::Fog, cores, memory_mb)
    }

    /// An edge device (embedded class).
    pub fn edge(cores: u32, memory_mb: u64) -> Self {
        Self::new(DeviceClass::Edge, cores, memory_mb)
    }

    /// A sensor: one notional core for data-producing stub tasks.
    pub fn sensor() -> Self {
        Self::new(DeviceClass::Sensor, 1, 64)
    }

    /// Sets the relative speed factor (>0).
    pub fn with_speed(mut self, speed: f64) -> Self {
        assert!(speed > 0.0, "speed factor must be positive");
        self.speed = speed;
        self
    }

    /// Sets the GPU count.
    pub fn with_gpus(mut self, n: u32) -> Self {
        self.capacity = self.capacity.clone().with_gpus(n);
        self
    }

    /// Adds installed software.
    pub fn with_software<I, S>(mut self, pkgs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.capacity = self.capacity.clone().with_software(pkgs);
        self
    }

    /// Sets the architecture string.
    pub fn with_arch(mut self, arch: impl Into<String>) -> Self {
        self.capacity = self.capacity.clone().with_arch(arch);
        self
    }

    /// Sets the disk capacity.
    pub fn with_disk_mb(mut self, mb: u64) -> Self {
        self.capacity = self.capacity.clone().with_disk_mb(mb);
        self
    }

    /// The full (idle) capacity.
    pub fn capacity(&self) -> &NodeCapacity {
        &self.capacity
    }

    /// Relative speed factor.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Device class.
    pub fn device_class(&self) -> DeviceClass {
        self.class
    }

    /// Power model.
    pub fn power(&self) -> PowerModel {
        self.power
    }
}

/// A node instance in a platform: a spec bound to an id and a zone.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Node {
    id: NodeId,
    name: String,
    spec: NodeSpec,
    zone: crate::platform::ZoneId,
}

impl Node {
    pub(crate) fn new(
        id: NodeId,
        name: String,
        spec: NodeSpec,
        zone: crate::platform::ZoneId,
    ) -> Self {
        Node {
            id,
            name,
            spec,
            zone,
        }
    }

    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Human-readable name (`cluster-3`, `fog-0`, …).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node's static spec.
    pub fn spec(&self) -> &NodeSpec {
        &self.spec
    }

    /// The full (idle) capacity.
    pub fn capacity(&self) -> &NodeCapacity {
        self.spec.capacity()
    }

    /// The zone the node belongs to.
    pub fn zone(&self) -> crate::platform::ZoneId {
        self.zone
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::Constraints;

    #[test]
    fn class_constructors() {
        assert_eq!(NodeSpec::hpc(48, 96_000).device_class(), DeviceClass::Hpc);
        assert_eq!(
            NodeSpec::cloud_vm(8, 16_000).device_class(),
            DeviceClass::CloudVm
        );
        assert_eq!(NodeSpec::fog(4, 4_000).device_class(), DeviceClass::Fog);
        assert_eq!(NodeSpec::edge(2, 1_000).device_class(), DeviceClass::Edge);
        assert_eq!(NodeSpec::sensor().device_class(), DeviceClass::Sensor);
    }

    #[test]
    fn volatility_by_class() {
        assert!(!DeviceClass::Hpc.is_volatile());
        assert!(!DeviceClass::CloudVm.is_volatile());
        assert!(DeviceClass::Fog.is_volatile());
        assert!(DeviceClass::Edge.is_volatile());
        assert!(DeviceClass::Sensor.is_volatile());
    }

    #[test]
    fn power_defaults_scale_with_class() {
        let hpc = DeviceClass::Hpc.default_power();
        let edge = DeviceClass::Edge.default_power();
        assert!(hpc.active_watts() > edge.active_watts());
    }

    #[test]
    #[should_panic(expected = "speed factor must be positive")]
    fn zero_speed_rejected() {
        let _ = NodeSpec::hpc(1, 1).with_speed(0.0);
    }

    #[test]
    fn builder_decorations_apply() {
        let spec = NodeSpec::hpc(48, 96_000)
            .with_gpus(4)
            .with_software(["cuda"])
            .with_arch("ppc64le")
            .with_speed(2.0);
        let req = Constraints::new().gpus(1).software("cuda").arch("ppc64le");
        assert!(spec.capacity().satisfies(&req));
        assert_eq!(spec.speed(), 2.0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId::from_raw(3).to_string(), "n3");
        assert_eq!(DeviceClass::CloudVm.to_string(), "cloud-vm");
    }
}
