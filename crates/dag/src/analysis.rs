//! Static graph analyses: levels, width/depth, critical path and bottom
//! levels (the inputs to list schedulers such as HEFT).

use crate::graph::TaskGraph;
use crate::ids::TaskId;
use serde::{Deserialize, Serialize};

/// Per-level statistics of a layered view of the DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LevelStats {
    /// Number of levels (graph depth). Zero for an empty graph.
    pub depth: usize,
    /// Maximum number of tasks in any level (graph width).
    pub max_width: usize,
    /// Tasks per level, index = level.
    pub widths: Vec<usize>,
}

/// A weighted critical path through the DAG.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CriticalPath {
    /// Tasks on the path, from a source to a sink.
    pub tasks: Vec<TaskId>,
    /// Total weight along the path.
    pub length: f64,
}

/// Analyses computed over a [`TaskGraph`].
///
/// All analyses are static: the graph holds no run state (that lives in
/// a [`GraphRun`](crate::GraphRun)), so results never change as a
/// runtime executes the graph. They are intended for reporting and for
/// static baseline schedulers.
///
/// # Example
///
/// ```
/// use continuum_dag::{AccessProcessor, GraphAnalysis, TaskSpec};
///
/// let mut ap = AccessProcessor::new();
/// let x = ap.new_data("x");
/// let a = ap.register(TaskSpec::new("produce").output(x)).unwrap();
/// let b = ap.register(TaskSpec::new("refine").inout(x)).unwrap();
///
/// let analysis = GraphAnalysis::new(ap.graph());
/// assert_eq!(analysis.levels(), vec![0, 1]);
/// let cp = analysis.critical_path(|_| 1.0);
/// assert_eq!(cp.tasks, vec![a, b]);
/// assert_eq!(cp.length, 2.0);
/// assert_eq!(analysis.find_cycle(), None);
/// ```
#[derive(Debug)]
pub struct GraphAnalysis<'g> {
    graph: &'g TaskGraph,
}

impl<'g> GraphAnalysis<'g> {
    /// Creates an analysis view over a graph.
    pub fn new(graph: &'g TaskGraph) -> Self {
        GraphAnalysis { graph }
    }

    /// The level (longest distance from any source, in edges) of every
    /// task, indexed by task id.
    pub fn levels(&self) -> Vec<usize> {
        let n = self.graph.len();
        let mut level = vec![0usize; n];
        for id in self.graph.topological_order() {
            let node_level = self
                .graph
                .predecessors(id)
                .iter()
                .map(|p| level[p.index()] + 1)
                .max()
                .unwrap_or(0);
            level[id.index()] = node_level;
        }
        level
    }

    /// Depth/width statistics of the layered DAG.
    pub fn level_stats(&self) -> LevelStats {
        let levels = self.levels();
        let depth = levels.iter().map(|l| l + 1).max().unwrap_or(0);
        let mut widths = vec![0usize; depth];
        for l in &levels {
            widths[*l] += 1;
        }
        let max_width = widths.iter().copied().max().unwrap_or(0);
        LevelStats {
            depth,
            max_width,
            widths,
        }
    }

    /// Bottom level of every task: the weight of the heaviest path from
    /// the task (inclusive) to any sink, under the given per-task
    /// weights. This is the task priority used by HEFT.
    ///
    /// `weight(t)` must return a non-negative cost for each task.
    pub fn bottom_levels<F: Fn(TaskId) -> f64>(&self, weight: F) -> Vec<f64> {
        let n = self.graph.len();
        let mut bl = vec![0f64; n];
        let order = self.graph.topological_order();
        for id in order.iter().rev() {
            let succ_max = self
                .graph
                .successors(*id)
                .iter()
                .map(|s| bl[s.index()])
                .fold(0f64, f64::max);
            bl[id.index()] = weight(*id) + succ_max;
        }
        bl
    }

    /// The weighted critical path: the heaviest source-to-sink chain.
    ///
    /// Returns an empty path for a graph without a source: an empty
    /// one, or one whose every source was retired. Bottom levels are
    /// compared by [`f64::total_cmp`], so a NaN weight yields a path
    /// too.
    pub fn critical_path<F: Fn(TaskId) -> f64>(&self, weight: F) -> CriticalPath {
        let bl = self.bottom_levels(&weight);
        // Start from the source with the highest bottom level; walk down
        // following the successor with the highest bottom level.
        let Some(start) = self
            .graph
            .nodes()
            .filter(|n| n.predecessors().is_empty())
            .map(|n| n.id())
            .max_by(|a, b| bl[a.index()].total_cmp(&bl[b.index()]))
        else {
            return CriticalPath {
                tasks: Vec::new(),
                length: 0.0,
            };
        };
        let mut tasks = vec![start];
        let mut cur = start;
        loop {
            let next = self
                .graph
                .successors(cur)
                .iter()
                .copied()
                .max_by(|a, b| bl[a.index()].total_cmp(&bl[b.index()]));
            match next {
                Some(n) => {
                    tasks.push(n);
                    cur = n;
                }
                None => break,
            }
        }
        CriticalPath {
            tasks,
            length: bl[start.index()],
        }
    }

    /// The total weight of all tasks: the sequential execution time under
    /// the given weights. `critical_path().length / total_weight()` is
    /// the inherent-parallelism bound of the workflow.
    pub fn total_weight<F: Fn(TaskId) -> f64>(&self, weight: F) -> f64 {
        self.graph.nodes().map(|n| weight(n.id())).sum()
    }

    /// Average parallelism: total weight divided by critical-path
    /// length. Returns 0 for an empty graph.
    pub fn average_parallelism<F: Fn(TaskId) -> f64 + Copy>(&self, weight: F) -> f64 {
        let cp = self.critical_path(weight);
        if cp.length <= 0.0 {
            return 0.0;
        }
        self.total_weight(weight) / cp.length
    }

    /// Searches for a dependency cycle and returns one as a witness
    /// path (each task followed by the next task it points to; the last
    /// task has an edge back to the first). Returns `None` for acyclic
    /// graphs.
    ///
    /// Graphs built through the access processor are acyclic by
    /// construction, so this only fires on hand-crafted or corrupted
    /// graphs (e.g. deserialized from an untrusted dump). Unlike
    /// [`TaskGraph::topological_order`], which debug-asserts acyclicity,
    /// this is safe to call on arbitrary graphs.
    pub fn find_cycle(&self) -> Option<Vec<TaskId>> {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.graph.len();
        let mut color = vec![WHITE; n];
        let mut path: Vec<TaskId> = Vec::new();
        for root in self.graph.nodes().map(|node| node.id()) {
            if color[root.index()] != WHITE {
                continue;
            }
            // Iterative DFS keeping the gray path explicit so a back
            // edge can be reported as a full witness.
            let mut stack: Vec<(TaskId, usize)> = vec![(root, 0)];
            color[root.index()] = GRAY;
            path.push(root);
            while let Some(&mut (id, ref mut next)) = stack.last_mut() {
                let succs = self.graph.successors(id);
                if *next < succs.len() {
                    let s = succs[*next];
                    *next += 1;
                    match color.get(s.index()).copied() {
                        Some(WHITE) => {
                            color[s.index()] = GRAY;
                            path.push(s);
                            stack.push((s, 0));
                        }
                        Some(GRAY) => {
                            let start = path
                                .iter()
                                .position(|t| *t == s)
                                // INVARIANT: a node is gray from when it
                                // is pushed on `path` until it is popped.
                                .expect("gray nodes are on the path");
                            return Some(path[start..].to_vec());
                        }
                        _ => {}
                    }
                } else {
                    color[id.index()] = BLACK;
                    path.pop();
                    stack.pop();
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessProcessor;
    use crate::spec::TaskSpec;

    fn chain(n: usize) -> AccessProcessor {
        let mut ap = AccessProcessor::new();
        let x = ap.new_data("x");
        ap.register(TaskSpec::new("t0").output(x)).unwrap();
        for i in 1..n {
            ap.register(TaskSpec::new(format!("t{i}")).inout(x))
                .unwrap();
        }
        ap
    }

    fn fan(width: usize) -> AccessProcessor {
        let mut ap = AccessProcessor::new();
        let root = ap.new_data("root");
        ap.register(TaskSpec::new("src").output(root)).unwrap();
        let outs = ap.new_data_batch("o", width);
        for (i, o) in outs.iter().enumerate() {
            ap.register(TaskSpec::new(format!("w{i}")).input(root).output(*o))
                .unwrap();
        }
        ap
    }

    #[test]
    fn chain_levels_and_depth() {
        let ap = chain(5);
        let a = GraphAnalysis::new(ap.graph());
        assert_eq!(a.levels(), vec![0, 1, 2, 3, 4]);
        let stats = a.level_stats();
        assert_eq!(stats.depth, 5);
        assert_eq!(stats.max_width, 1);
    }

    #[test]
    fn fan_width() {
        let ap = fan(8);
        let a = GraphAnalysis::new(ap.graph());
        let stats = a.level_stats();
        assert_eq!(stats.depth, 2);
        assert_eq!(stats.max_width, 8);
        assert_eq!(stats.widths, vec![1, 8]);
    }

    #[test]
    fn empty_graph_stats() {
        let ap = AccessProcessor::new();
        let a = GraphAnalysis::new(ap.graph());
        assert_eq!(a.level_stats().depth, 0);
        assert_eq!(a.critical_path(|_| 1.0).tasks.len(), 0);
        assert_eq!(a.average_parallelism(|_| 1.0), 0.0);
    }

    #[test]
    fn chain_critical_path_is_whole_chain() {
        let ap = chain(4);
        let a = GraphAnalysis::new(ap.graph());
        let cp = a.critical_path(|_| 2.0);
        assert_eq!(cp.tasks.len(), 4);
        assert!((cp.length - 8.0).abs() < 1e-9);
    }

    #[test]
    fn fan_critical_path_and_parallelism() {
        let ap = fan(10);
        let a = GraphAnalysis::new(ap.graph());
        let cp = a.critical_path(|_| 1.0);
        assert_eq!(cp.tasks.len(), 2);
        assert!((cp.length - 2.0).abs() < 1e-9);
        // 11 unit tasks over a CP of 2 => parallelism 5.5.
        assert!((a.average_parallelism(|_| 1.0) - 5.5).abs() < 1e-9);
    }

    #[test]
    fn bottom_levels_decrease_along_chain() {
        let ap = chain(3);
        let a = GraphAnalysis::new(ap.graph());
        let bl = a.bottom_levels(|_| 1.0);
        assert_eq!(bl, vec![3.0, 2.0, 1.0]);
    }

    #[test]
    fn acyclic_graphs_have_no_cycle() {
        let ap = chain(6);
        assert_eq!(GraphAnalysis::new(ap.graph()).find_cycle(), None);
        let ap = fan(5);
        assert_eq!(GraphAnalysis::new(ap.graph()).find_cycle(), None);
        let ap = AccessProcessor::new();
        assert_eq!(GraphAnalysis::new(ap.graph()).find_cycle(), None);
    }

    #[test]
    fn weighted_critical_path_picks_heavier_branch() {
        // src -> cheap -> sink ; src -> heavy -> sink
        let mut ap = AccessProcessor::new();
        let s = ap.new_data("s");
        let l = ap.new_data("l");
        let h = ap.new_data("h");
        let o = ap.new_data("o");
        let src = ap.register(TaskSpec::new("src").output(s)).unwrap();
        let _cheap = ap
            .register(TaskSpec::new("cheap").input(s).output(l))
            .unwrap();
        let heavy = ap
            .register(TaskSpec::new("heavy").input(s).output(h))
            .unwrap();
        let sink = ap
            .register(TaskSpec::new("sink").input(l).input(h).output(o))
            .unwrap();
        let a = GraphAnalysis::new(ap.graph());
        let w = move |t: TaskId| if t == heavy { 10.0 } else { 1.0 };
        let cp = a.critical_path(w);
        assert_eq!(cp.tasks, vec![src, heavy, sink]);
        assert!((cp.length - 12.0).abs() < 1e-9);
    }

    /// A weight callback may return anything: NaN bottom levels still
    /// order, so two sources do not stop the walk.
    #[test]
    fn nan_weights_still_give_a_path() -> Result<(), crate::DagError> {
        let mut ap = AccessProcessor::new();
        let [x, y, z] = ["x", "y", "z"].map(|name| ap.new_data(name));
        let a = ap.register(TaskSpec::new("a").output(x))?;
        let b = ap.register(TaskSpec::new("b").output(y))?;
        let join = ap.register(TaskSpec::new("join").input(x).input(y).output(z))?;
        let cp = GraphAnalysis::new(ap.graph()).critical_path(|_| f64::NAN);
        assert_eq!(cp.tasks.len(), 2);
        assert!([a, b].contains(&cp.tasks[0]));
        assert_eq!(cp.tasks[1], join);
        assert!(cp.length.is_nan());
        Ok(())
    }
}
