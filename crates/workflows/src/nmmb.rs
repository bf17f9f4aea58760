//! NMMB-Monarch-like multiscale weather pipeline generator.
//!
//! The paper (§VI-A) reports porting NMMB-Monarch — a chemical
//! weather prediction system whose workflow has five steps mixing
//! scripts, binaries and a Fortran/MPI simulation — to PyCOMPSs, and
//! gaining speed-up "thanks to the parallelization of the sequential
//! part of the application, composed of the initialization scripts".
//!
//! The generator reproduces the per-day structure:
//!
//! 1. `N` initialisation scripts (variable-data preparation) —
//!    *sequential* in the original, *parallel* in the PyCOMPSs port;
//! 2. one fixed-data preparation step;
//! 3. a rigid multi-node MPI simulation (consumes the previous day's
//!    restart file);
//! 4. post-processing;
//! 5. archiving.

use crate::add_task;
use continuum_dag::TaskSpec;
use continuum_platform::Constraints;
use continuum_runtime::{SimWorkload, TaskProfile};

/// Builder for NMMB-like forecast workloads.
///
/// # Example
///
/// ```
/// use continuum_workflows::NmmbWorkload;
///
/// let w = NmmbWorkload::new().days(3).init_scripts(6).build();
/// assert_eq!(w.stats().tasks, 3 * (6 + 4));
/// ```
#[derive(Debug, Clone)]
pub struct NmmbWorkload {
    days: usize,
    init_scripts: usize,
    parallel_init: bool,
    init_script_s: f64,
    fixed_prep_s: f64,
    mpi_s: f64,
    mpi_nodes: u32,
    post_s: f64,
    archive_s: f64,
    restart_bytes: u64,
}

impl Default for NmmbWorkload {
    fn default() -> Self {
        NmmbWorkload {
            days: 5,
            init_scripts: 12,
            parallel_init: true,
            init_script_s: 90.0,
            fixed_prep_s: 60.0,
            mpi_s: 1_800.0,
            mpi_nodes: 4,
            post_s: 300.0,
            archive_s: 60.0,
            restart_bytes: 2_000_000_000,
        }
    }
}

impl NmmbWorkload {
    /// Creates the default 5-day forecast.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulated days.
    pub fn days(mut self, n: usize) -> Self {
        self.days = n.max(1);
        self
    }

    /// Initialisation scripts per day.
    pub fn init_scripts(mut self, n: usize) -> Self {
        self.init_scripts = n.max(1);
        self
    }

    /// Parallel (PyCOMPSs port) vs sequential (original) init scripts.
    pub fn parallel_init(mut self, on: bool) -> Self {
        self.parallel_init = on;
        self
    }

    /// Seconds per initialisation script.
    pub fn init_script_s(mut self, s: f64) -> Self {
        self.init_script_s = s;
        self
    }

    /// Seconds of the MPI simulation step.
    pub fn mpi_s(mut self, s: f64) -> Self {
        self.mpi_s = s;
        self
    }

    /// Nodes the rigid MPI step occupies.
    pub fn mpi_nodes(mut self, n: u32) -> Self {
        self.mpi_nodes = n.max(1);
        self
    }

    /// Seconds of post-processing per day.
    pub fn post_s(mut self, s: f64) -> Self {
        self.post_s = s;
        self
    }

    /// Generates the workload.
    pub fn build(&self) -> SimWorkload {
        let mut w = SimWorkload::new();
        let mut prev_restart = None;
        for day in 0..self.days {
            // 1. Variable-data initialisation scripts.
            let mut init_outputs = Vec::with_capacity(self.init_scripts);
            let mut prev_script: Option<continuum_dag::DataId> = None;
            for s in 0..self.init_scripts {
                let out = w.data(format!("init_d{day}_s{s}"));
                let mut spec = TaskSpec::new("init_script").group(format!("day{day}"));
                if !self.parallel_init {
                    // The original driver runs the scripts one after
                    // another: chain them through a control datum.
                    if let Some(prev) = prev_script {
                        spec = spec.input(prev);
                    }
                }
                spec = spec.output(out);
                add_task(
                    &mut w,
                    spec,
                    TaskProfile::new(self.init_script_s).outputs_bytes(50_000_000),
                );
                prev_script = Some(out);
                init_outputs.push(out);
            }
            // 2. Fixed-data preparation.
            let fixed = w.data(format!("fixed_d{day}"));
            add_task(
                &mut w,
                TaskSpec::new("fixed_prep")
                    .group(format!("day{day}"))
                    .output(fixed),
                TaskProfile::new(self.fixed_prep_s).outputs_bytes(100_000_000),
            );
            // 3. Rigid MPI simulation: all init outputs + fixed data +
            //    the previous day's restart file.
            let sim_out = w.data(format!("sim_d{day}"));
            let mut spec = TaskSpec::new("mpi_simulation")
                .group(format!("day{day}"))
                .inputs(init_outputs)
                .input(fixed);
            if let Some(restart) = prev_restart {
                spec = spec.input(restart);
            }
            spec = spec.output(sim_out);
            add_task(
                &mut w,
                spec,
                TaskProfile::new(self.mpi_s)
                    .constraints(Constraints::new().nodes(self.mpi_nodes))
                    .outputs_bytes(self.restart_bytes),
            );
            // 4. Post-processing.
            let post = w.data(format!("post_d{day}"));
            add_task(
                &mut w,
                TaskSpec::new("postprocess")
                    .group(format!("day{day}"))
                    .input(sim_out)
                    .output(post),
                TaskProfile::new(self.post_s).outputs_bytes(self.restart_bytes / 10),
            );
            // 5. Archiving.
            let archive = w.data(format!("archive_d{day}"));
            add_task(
                &mut w,
                TaskSpec::new("archive")
                    .group(format!("day{day}"))
                    .input(post)
                    .output(archive),
                TaskProfile::new(self.archive_s).outputs_bytes(0),
            );
            prev_restart = Some(sim_out);
        }
        w
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use continuum_dag::GraphAnalysis;

    #[test]
    fn task_count_matches_structure() {
        let w = NmmbWorkload::new().days(3).init_scripts(5).build();
        assert_eq!(w.stats().tasks, 3 * (5 + 4));
    }

    #[test]
    fn sequential_init_chains_scripts() {
        let seq = NmmbWorkload::new()
            .days(1)
            .init_scripts(6)
            .parallel_init(false)
            .build();
        let par = NmmbWorkload::new()
            .days(1)
            .init_scripts(6)
            .parallel_init(true)
            .build();
        // Critical path difference: 6 chained scripts vs 1 script depth.
        let seq_cp = seq.stats().critical_path_s;
        let par_cp = par.stats().critical_path_s;
        assert!(
            seq_cp - par_cp > 4.0 * 90.0,
            "chained init must lengthen the critical path: {seq_cp} vs {par_cp}"
        );
    }

    #[test]
    fn days_are_serialised_by_restart_files() {
        let w = NmmbWorkload::new().days(3).init_scripts(2).build();
        let g = w.graph();
        // Find the three MPI tasks and check day d+1 depends on day d.
        let mpi: Vec<_> = g
            .nodes()
            .filter(|n| n.spec().name() == "mpi_simulation")
            .map(|n| n.id())
            .collect();
        assert_eq!(mpi.len(), 3);
        assert!(g.predecessors(mpi[1]).contains(&mpi[0]));
        assert!(g.predecessors(mpi[2]).contains(&mpi[1]));
        // Depth grows with days: the MPI chain plus post/archive tail.
        let analysis = GraphAnalysis::new(g);
        assert!(analysis.level_stats().depth >= 3 + 3);
    }

    #[test]
    fn mpi_step_is_rigid_multi_node() {
        let w = NmmbWorkload::new().days(1).mpi_nodes(8).build();
        let mpi = w
            .graph()
            .nodes()
            .find(|n| n.spec().name() == "mpi_simulation")
            .unwrap()
            .id();
        let c = w.profile(mpi).constraints_ref();
        assert!(c.is_multi_node());
        assert_eq!(c.required_nodes(), 8);
    }

    #[test]
    fn five_step_structure_per_day() {
        let w = NmmbWorkload::new().days(1).init_scripts(3).build();
        let names: Vec<&str> = w.graph().nodes().map(|n| n.spec().name()).collect();
        assert_eq!(names.iter().filter(|n| **n == "init_script").count(), 3);
        for step in ["fixed_prep", "mpi_simulation", "postprocess", "archive"] {
            assert_eq!(names.iter().filter(|n| **n == step).count(), 1, "{step}");
        }
    }
}
