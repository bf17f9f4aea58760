//! Trace analysis: "where did the time go?" for a recorded run.
//!
//! Everything here consumes the same [`Event`] stream the exporters do,
//! so it works on traces from either engine (and on Chrome-JSON traces
//! read back with [`crate::chrome::parse_chrome_trace`]). Three layers:
//!
//! * [`collect_task_obs`] reconstructs per-task observed intervals
//!   (optional input-transfer stall followed by the compute span);
//! * [`critical_path`] / [`slack`] join those observations with the
//!   [`TaskGraph`] to report the longest dependent chain and each
//!   task's scheduling slack, and [`trace_critical_chain`] gives a
//!   DAG-free approximation for standalone trace files;
//! * [`RunDiagnostics`] decomposes the makespan of every node into
//!   compute / transfer / scheduler-stall / queue-wait / idle buckets
//!   that sum to the makespan exactly, plus utilization and
//!   load-imbalance metrics.

mod diagnostics;

pub use diagnostics::{NodeAttribution, RunDiagnostics, UtilizationMetrics};

use crate::event::{Event, Micros, TaskPhase, Track};
use continuum_dag::{TaskGraph, TaskId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// Task observations
// ---------------------------------------------------------------------------

/// One observed task execution: the optional input-transfer stall
/// followed by the compute span, reconstructed from a trace.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskObs {
    /// Row the task ran on.
    pub track: Track,
    /// Task name (the span label).
    pub name: String,
    /// When the task occupied the node: transfer start when the task
    /// stalled on inputs, otherwise equal to `exec_start_us`.
    pub start_us: Micros,
    /// When the task body started.
    pub exec_start_us: Micros,
    /// When the task body finished.
    pub end_us: Micros,
}

impl TaskObs {
    /// Total observed duration including any input-transfer stall.
    pub fn dur_us(&self) -> Micros {
        self.end_us - self.start_us
    }
}

/// Reconstructs per-task observations from an event stream: every
/// `Executing` span on a non-run track becomes one [`TaskObs`], and a
/// `Transferring` span on the same track and name ending exactly where
/// the execution starts is folded in as its input-stall prefix.
pub fn collect_task_obs(events: &[Event]) -> Vec<TaskObs> {
    // (track, name, transfer end) -> transfer starts, earliest last so
    // `pop` hands out the match closest to the execution start first.
    let mut transfers: BTreeMap<(Track, &str, Micros), Vec<Micros>> = BTreeMap::new();
    for event in events {
        if let Event::Span {
            track,
            name,
            phase: TaskPhase::Transferring,
            start_us,
            dur_us,
            ctx: _,
        } = event
        {
            transfers
                .entry((*track, name.as_str(), start_us + dur_us))
                .or_default()
                .push(*start_us);
        }
    }
    for starts in transfers.values_mut() {
        starts.sort_unstable_by(|a, b| b.cmp(a));
    }

    let mut out = Vec::new();
    for event in events {
        if let Event::Span {
            track,
            name,
            phase: TaskPhase::Executing,
            start_us,
            dur_us,
            ctx: _,
        } = event
        {
            if *track == Track::Run {
                continue; // engine-level spans ("sim-run") are not tasks
            }
            let transfer_start = transfers
                .get_mut(&(*track, name.as_str(), *start_us))
                .and_then(Vec::pop);
            out.push(TaskObs {
                track: *track,
                name: name.to_string(),
                start_us: transfer_start.unwrap_or(*start_us),
                exec_start_us: *start_us,
                end_us: start_us + dur_us,
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Critical path and slack (trace ⋈ DAG)
// ---------------------------------------------------------------------------

/// Joins trace observations with graph tasks by name, in order: the
/// k-th observation carrying a name is matched to the k-th graph task
/// with that name (task-id order). Replayed executions of a task fold
/// onto the same id, keeping the latest end. Observations with no
/// graph counterpart are dropped.
pub fn join_with_graph(graph: &TaskGraph, events: &[Event]) -> BTreeMap<TaskId, TaskObs> {
    let mut by_name: BTreeMap<&str, Vec<TaskId>> = BTreeMap::new();
    for node in graph.nodes() {
        by_name
            .entry(node.spec().name())
            .or_default()
            .push(node.id());
    }
    let mut cursor: BTreeMap<String, usize> = BTreeMap::new();
    let mut joined: BTreeMap<TaskId, TaskObs> = BTreeMap::new();
    for obs in collect_task_obs(events) {
        let Some(ids) = by_name.get(obs.name.as_str()) else {
            continue;
        };
        let k = cursor.entry(obs.name.clone()).or_insert(0);
        let id = if *k < ids.len() {
            let id = ids[*k];
            *k += 1;
            id
        } else {
            // More observations than graph tasks with this name: a
            // lineage replay of some earlier execution. Which body it
            // re-ran is unknowable from names alone, so fold it onto
            // the bucket's last id (keeps totals conservative).
            *ids.last().expect("non-empty name bucket")
        };
        match joined.get_mut(&id) {
            Some(existing) if existing.end_us >= obs.end_us => {}
            _ => {
                joined.insert(id, obs);
            }
        }
    }
    joined
}

/// One hop of the critical path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalTask {
    /// The graph task.
    pub task: TaskId,
    /// Its name.
    pub name: String,
    /// Observed interval (includes the transfer prefix).
    pub obs: TaskObs,
    /// Idle time between the gating predecessor's finish (or the run
    /// origin for the first hop) and this task starting.
    pub gap_us: Micros,
}

/// The longest dependent chain of a run: trace intervals joined with
/// graph edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CriticalPathReport {
    /// End of the latest observed task.
    pub makespan_us: Micros,
    /// The chain, source first.
    pub tasks: Vec<CriticalTask>,
    /// Summed task durations along the chain.
    pub work_us: Micros,
    /// Summed gaps along the chain; `work_us + gap_us == makespan_us`.
    pub gap_us: Micros,
}

/// Extracts the critical path: starting from the latest-finishing
/// observed task, repeatedly steps to the predecessor that finished
/// last (the one that gated this task's start). Requires observations
/// joined with the graph (see [`join_with_graph`]).
pub fn critical_path(graph: &TaskGraph, obs: &BTreeMap<TaskId, TaskObs>) -> CriticalPathReport {
    let Some((&last, _)) = obs
        .iter()
        .max_by_key(|(id, o)| (o.end_us, std::cmp::Reverse(**id)))
    else {
        return CriticalPathReport {
            makespan_us: 0,
            tasks: Vec::new(),
            work_us: 0,
            gap_us: 0,
        };
    };
    let makespan_us = obs[&last].end_us;

    let mut chain = Vec::new();
    let mut cur = last;
    loop {
        let cur_obs = obs[&cur].clone();
        let gating = graph
            .predecessors(cur)
            .iter()
            .filter(|p| obs.contains_key(p))
            .max_by_key(|p| (obs[p].end_us, std::cmp::Reverse(**p)))
            .copied();
        let gap_us = match gating {
            Some(p) => cur_obs.start_us.saturating_sub(obs[&p].end_us),
            None => cur_obs.start_us,
        };
        chain.push(CriticalTask {
            task: cur,
            name: cur_obs.name.clone(),
            obs: cur_obs,
            gap_us,
        });
        match gating {
            Some(p) => cur = p,
            None => break,
        }
    }
    chain.reverse();
    let work_us = chain.iter().map(|t| t.obs.dur_us()).sum();
    let gap_us = chain.iter().map(|t| t.gap_us).sum();
    CriticalPathReport {
        makespan_us,
        tasks: chain,
        work_us,
        gap_us,
    }
}

/// Per-task slack: how much later each task could have finished without
/// extending the makespan, assuming successors keep their observed
/// durations. Tasks on the critical path have zero slack.
pub fn slack(graph: &TaskGraph, obs: &BTreeMap<TaskId, TaskObs>) -> BTreeMap<TaskId, Micros> {
    let makespan = obs.values().map(|o| o.end_us).max().unwrap_or(0);
    let mut latest_finish: BTreeMap<TaskId, Micros> = BTreeMap::new();
    for id in graph.topological_order().into_iter().rev() {
        if !obs.contains_key(&id) {
            continue;
        }
        let lf = graph
            .successors(id)
            .iter()
            .filter_map(|s| {
                let s_obs = obs.get(s)?;
                Some(latest_finish[s].saturating_sub(s_obs.dur_us()))
            })
            .min()
            .unwrap_or(makespan);
        latest_finish.insert(id, lf);
    }
    latest_finish
        .into_iter()
        .map(|(id, lf)| (id, lf.saturating_sub(obs[&id].end_us)))
        .collect()
}

/// A DAG-free critical-chain approximation for standalone trace files:
/// starting from the latest-finishing task, repeatedly steps to the
/// latest-finishing task that ended at or before the current one
/// started. On traces from this workspace's engines the heuristic
/// chain's `work + gaps` still spans the whole makespan, but hops are
/// "could have gated", not proven dependencies.
pub fn trace_critical_chain(events: &[Event]) -> Vec<TaskObs> {
    fn key(o: &TaskObs) -> (Micros, std::cmp::Reverse<Track>, std::cmp::Reverse<&str>) {
        (
            o.end_us,
            std::cmp::Reverse(o.track),
            std::cmp::Reverse(o.name.as_str()),
        )
    }
    let obs = collect_task_obs(events);
    let Some(mut cur) = obs.iter().max_by(|a, b| key(a).cmp(&key(b))).cloned() else {
        return Vec::new();
    };
    let mut chain = vec![cur.clone()];
    // The strict key decrease guarantees termination: zero-duration
    // spans in wall-clock traces can satisfy `end_us <= start_us` of
    // themselves (or of each other), which would cycle forever.
    while let Some(prev) = obs
        .iter()
        .filter(|o| o.end_us <= cur.start_us && key(o) < key(&cur))
        .max_by(|a, b| key(a).cmp(&key(b)))
        .cloned()
    {
        chain.push(prev.clone());
        cur = prev;
    }
    chain.reverse();
    chain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exec(node: u32, name: &str, start_us: Micros, end_us: Micros) -> Event {
        Event::Span {
            track: Track::Node(node),
            name: name.to_string().into(),
            phase: TaskPhase::Executing,
            start_us,
            dur_us: end_us - start_us,
            ctx: None,
        }
    }

    fn xfer(node: u32, name: &str, start_us: Micros, end_us: Micros) -> Event {
        Event::Span {
            track: Track::Node(node),
            name: name.to_string().into(),
            phase: TaskPhase::Transferring,
            start_us,
            dur_us: end_us - start_us,
            ctx: None,
        }
    }

    #[test]
    fn task_obs_pairs_transfer_with_execution() {
        let events = vec![xfer(0, "t", 5, 10), exec(0, "t", 10, 30)];
        let obs = collect_task_obs(&events);
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].start_us, 5);
        assert_eq!(obs[0].exec_start_us, 10);
        assert_eq!(obs[0].end_us, 30);
        assert_eq!(obs[0].dur_us(), 25);
    }

    #[test]
    fn run_spans_are_not_tasks() {
        let events = vec![Event::Span {
            track: Track::Run,
            name: "sim-run".into(),
            phase: TaskPhase::Executing,
            start_us: 0,
            dur_us: 100,
            ctx: None,
        }];
        assert!(collect_task_obs(&events).is_empty());
    }

    #[test]
    fn heuristic_chain_walks_back_through_gating_spans() {
        let events = vec![
            exec(0, "first", 0, 10),
            exec(1, "parallel", 0, 8),
            exec(0, "second", 10, 30),
            exec(1, "last", 30, 45),
        ];
        let chain = trace_critical_chain(&events);
        let names: Vec<&str> = chain.iter().map(|o| o.name.as_str()).collect();
        assert_eq!(names, vec!["first", "second", "last"]);
    }

    #[test]
    fn heuristic_chain_terminates_on_zero_duration_spans() {
        // Wall-clock traces of trivial tasks produce spans that start
        // and end on the same microsecond; the back-walk must not
        // cycle through them (regression: infinite loop / OOM).
        let events = vec![
            exec(0, "a", 0, 0),
            exec(1, "b", 0, 0),
            exec(0, "c", 5, 5),
            exec(1, "d", 5, 9),
        ];
        let chain = trace_critical_chain(&events);
        assert!(!chain.is_empty() && chain.len() <= 4);
        assert_eq!(chain.last().unwrap().name, "d");
        for hop in chain.windows(2) {
            assert!(hop[0].end_us <= hop[1].start_us);
        }
    }

    #[test]
    fn empty_trace_is_empty_diagnostics() {
        let diag = RunDiagnostics::from_events(&[]);
        assert!(diag.is_empty());
        assert_eq!(diag.makespan_us, 0);
        assert!(trace_critical_chain(&[]).is_empty());
    }
}
