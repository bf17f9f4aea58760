//! Task resource constraints and node capacities.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Resource requirements a task imposes on the node that hosts it.
///
/// This mirrors the COMPSs `@constraint` annotation from the paper:
/// compute units, memory, disk, GPUs, required software packages and a
/// processor architecture. An empty `Constraints` (the default) is
/// satisfied by any node with at least one free core.
///
/// # Example
///
/// ```
/// use continuum_platform::{Constraints, NodeCapacity};
///
/// let req = Constraints::new()
///     .compute_units(4)
///     .memory_mb(8_192)
///     .software("blast");
/// let node = NodeCapacity::new(48, 96_000).with_software(["blast"]);
/// assert!(node.satisfies(&req));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Constraints {
    compute_units: u32,
    memory_mb: u64,
    disk_mb: u64,
    gpus: u32,
    software: BTreeSet<String>,
    arch: Option<String>,
    /// Number of whole nodes required (for rigid MPI tasks). 1 for
    /// ordinary tasks; >1 means the task simultaneously occupies
    /// `nodes` full nodes.
    nodes: u32,
}

impl Default for Constraints {
    fn default() -> Self {
        Constraints {
            compute_units: 1,
            memory_mb: 0,
            disk_mb: 0,
            gpus: 0,
            software: BTreeSet::new(),
            arch: None,
            nodes: 1,
        }
    }
}

impl Constraints {
    /// Creates the default constraints: one compute unit, no further
    /// requirements.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requires `n` compute units (cores) on the host node.
    pub fn compute_units(mut self, n: u32) -> Self {
        self.compute_units = n.max(1);
        self
    }

    /// Requires `mb` megabytes of memory.
    pub fn memory_mb(mut self, mb: u64) -> Self {
        self.memory_mb = mb;
        self
    }

    /// Requires `mb` megabytes of scratch disk.
    pub fn disk_mb(mut self, mb: u64) -> Self {
        self.disk_mb = mb;
        self
    }

    /// Requires `n` GPUs.
    pub fn gpus(mut self, n: u32) -> Self {
        self.gpus = n;
        self
    }

    /// Requires a software package to be present on the node.
    pub fn software(mut self, pkg: impl Into<String>) -> Self {
        self.software.insert(pkg.into());
        self
    }

    /// Requires a processor architecture (e.g. `"x86_64"`).
    pub fn arch(mut self, arch: impl Into<String>) -> Self {
        self.arch = Some(arch.into());
        self
    }

    /// Declares a rigid multi-node (MPI) task spanning `n` full nodes.
    pub fn nodes(mut self, n: u32) -> Self {
        self.nodes = n.max(1);
        self
    }

    /// Required compute units.
    pub fn required_compute_units(&self) -> u32 {
        self.compute_units
    }

    /// Required memory in MB.
    pub fn required_memory_mb(&self) -> u64 {
        self.memory_mb
    }

    /// Required disk in MB.
    pub fn required_disk_mb(&self) -> u64 {
        self.disk_mb
    }

    /// Required GPU count.
    pub fn required_gpus(&self) -> u32 {
        self.gpus
    }

    /// Required software packages.
    pub fn required_software(&self) -> &BTreeSet<String> {
        &self.software
    }

    /// Required architecture, if constrained.
    pub fn required_arch(&self) -> Option<&str> {
        self.arch.as_deref()
    }

    /// Number of whole nodes required (1 = ordinary task).
    pub fn required_nodes(&self) -> u32 {
        self.nodes
    }

    /// Returns `true` if this is a rigid multi-node task.
    pub fn is_multi_node(&self) -> bool {
        self.nodes > 1
    }
}

/// The (remaining) capacity of a node, against which task
/// [`Constraints`] are matched.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeCapacity {
    cores: u32,
    memory_mb: u64,
    disk_mb: u64,
    gpus: u32,
    software: BTreeSet<String>,
    arch: String,
}

impl NodeCapacity {
    /// Creates a capacity with the given cores and memory, ample disk,
    /// no GPUs and `x86_64` architecture.
    pub fn new(cores: u32, memory_mb: u64) -> Self {
        NodeCapacity {
            cores,
            memory_mb,
            disk_mb: u64::MAX / 2,
            gpus: 0,
            software: BTreeSet::new(),
            arch: "x86_64".to_string(),
        }
    }

    /// Sets the available disk.
    pub fn with_disk_mb(mut self, mb: u64) -> Self {
        self.disk_mb = mb;
        self
    }

    /// Sets the GPU count.
    pub fn with_gpus(mut self, n: u32) -> Self {
        self.gpus = n;
        self
    }

    /// Adds installed software packages.
    pub fn with_software<I, S>(mut self, pkgs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.software.extend(pkgs.into_iter().map(Into::into));
        self
    }

    /// Sets the architecture string.
    pub fn with_arch(mut self, arch: impl Into<String>) -> Self {
        self.arch = arch.into();
        self
    }

    /// Available cores.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Available memory in MB.
    pub fn memory_mb(&self) -> u64 {
        self.memory_mb
    }

    /// Available disk in MB.
    pub fn disk_mb(&self) -> u64 {
        self.disk_mb
    }

    /// Available GPUs.
    pub fn gpus(&self) -> u32 {
        self.gpus
    }

    /// Installed software.
    pub fn software(&self) -> &BTreeSet<String> {
        &self.software
    }

    /// Architecture string.
    pub fn arch(&self) -> &str {
        &self.arch
    }

    /// Returns `true` if this capacity can host a task with the given
    /// constraints (single-node check: multi-node tasks must be checked
    /// per participating node).
    pub fn satisfies(&self, req: &Constraints) -> bool {
        self.cores >= req.required_compute_units()
            && self.memory_mb >= req.required_memory_mb()
            && self.disk_mb >= req.required_disk_mb()
            && self.gpus >= req.required_gpus()
            && (req.software.is_empty() || req.software.is_subset(&self.software))
            && req.arch.as_deref().is_none_or(|a| a == self.arch)
    }

    /// Subtracts a task's requirements from this capacity.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the capacity does not satisfy the
    /// constraints; callers must check [`NodeCapacity::satisfies`]
    /// first.
    pub fn allocate(&mut self, req: &Constraints) {
        debug_assert!(self.satisfies(req), "allocate without satisfies check");
        self.cores -= req.required_compute_units();
        self.memory_mb -= req.required_memory_mb();
        self.disk_mb = self.disk_mb.saturating_sub(req.required_disk_mb());
        self.gpus -= req.required_gpus();
    }

    /// Returns a task's requirements to this capacity.
    pub fn release(&mut self, req: &Constraints) {
        self.cores += req.required_compute_units();
        self.memory_mb += req.required_memory_mb();
        self.disk_mb = self.disk_mb.saturating_add(req.required_disk_mb());
        self.gpus += req.required_gpus();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_constraints_need_one_core() {
        let c = Constraints::new();
        assert_eq!(c.required_compute_units(), 1);
        assert!(!c.is_multi_node());
        let cap = NodeCapacity::new(1, 0);
        assert!(cap.satisfies(&c));
        let empty = NodeCapacity::new(0, 0);
        assert!(!empty.satisfies(&c));
    }

    #[test]
    fn compute_units_clamped_to_one() {
        assert_eq!(
            Constraints::new().compute_units(0).required_compute_units(),
            1
        );
        assert_eq!(Constraints::new().nodes(0).required_nodes(), 1);
    }

    #[test]
    fn memory_and_gpu_matching() {
        let req = Constraints::new().memory_mb(1000).gpus(2);
        let cap = NodeCapacity::new(4, 2000).with_gpus(2);
        assert!(cap.satisfies(&req));
        assert!(!NodeCapacity::new(4, 500).with_gpus(2).satisfies(&req));
        assert!(!NodeCapacity::new(4, 2000).with_gpus(1).satisfies(&req));
    }

    #[test]
    fn software_subset_matching() {
        let req = Constraints::new().software("blast").software("samtools");
        let full = NodeCapacity::new(4, 0).with_software(["blast", "samtools", "bwa"]);
        let partial = NodeCapacity::new(4, 0).with_software(["blast"]);
        assert!(full.satisfies(&req));
        assert!(!partial.satisfies(&req));
    }

    #[test]
    fn arch_matching() {
        let req = Constraints::new().arch("aarch64");
        assert!(!NodeCapacity::new(1, 0).satisfies(&req));
        assert!(NodeCapacity::new(1, 0).with_arch("aarch64").satisfies(&req));
        // Unconstrained arch matches anything.
        assert!(NodeCapacity::new(1, 0)
            .with_arch("riscv")
            .satisfies(&Constraints::new()));
    }

    #[test]
    fn allocate_release_roundtrip() {
        let req = Constraints::new().compute_units(2).memory_mb(100).gpus(1);
        let mut cap = NodeCapacity::new(4, 300).with_gpus(2).with_disk_mb(1000);
        cap.allocate(&req);
        assert_eq!(cap.cores(), 2);
        assert_eq!(cap.memory_mb(), 200);
        assert_eq!(cap.gpus(), 1);
        cap.release(&req);
        assert_eq!(cap.cores(), 4);
        assert_eq!(cap.memory_mb(), 300);
        assert_eq!(cap.gpus(), 2);
    }

    #[test]
    fn capacity_exhaustion_detected() {
        let req = Constraints::new().compute_units(3);
        let mut cap = NodeCapacity::new(4, 0);
        cap.allocate(&req);
        assert!(!cap.satisfies(&req), "only 1 core left");
    }

    #[test]
    fn multi_node_constraint() {
        let c = Constraints::new().nodes(4);
        assert!(c.is_multi_node());
        assert_eq!(c.required_nodes(), 4);
    }

    #[test]
    fn disk_constraint() {
        let req = Constraints::new().disk_mb(500);
        assert!(NodeCapacity::new(1, 0).with_disk_mb(600).satisfies(&req));
        assert!(!NodeCapacity::new(1, 0).with_disk_mb(100).satisfies(&req));
    }
}
