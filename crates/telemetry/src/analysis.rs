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

use crate::event::{CounterKey, Event, Micros, TaskPhase, Track};
use continuum_dag::{TaskGraph, TaskId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

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

// ---------------------------------------------------------------------------
// Bottleneck attribution
// ---------------------------------------------------------------------------

/// Half-open microsecond interval `[start, end)`.
type Iv = (Micros, Micros);

/// Sorts, drops empties and merges overlapping/adjacent intervals.
fn normalize(mut v: Vec<Iv>) -> Vec<Iv> {
    v.retain(|(s, e)| e > s);
    v.sort_unstable();
    let mut out: Vec<Iv> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some((_, prev_end)) if s <= *prev_end => *prev_end = (*prev_end).max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// `a \ b` for normalized interval sets.
fn subtract(a: &[Iv], b: &[Iv]) -> Vec<Iv> {
    let mut out = Vec::new();
    for &(start, end) in a {
        let mut s = start;
        for &(bs, be) in b {
            if be <= s {
                continue;
            }
            if bs >= end {
                break;
            }
            if bs > s {
                out.push((s, bs));
            }
            s = s.max(be);
            if s >= end {
                break;
            }
        }
        if s < end {
            out.push((s, end));
        }
    }
    out
}

/// `a ∩ b` for normalized interval sets.
fn intersect(a: &[Iv], b: &[Iv]) -> Vec<Iv> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        let s = a[i].0.max(b[j].0);
        let e = a[i].1.min(b[j].1);
        if s < e {
            out.push((s, e));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

/// Union of two normalized sets.
fn union(a: &[Iv], b: &[Iv]) -> Vec<Iv> {
    normalize(a.iter().chain(b.iter()).copied().collect())
}

/// Total covered time of a normalized set.
fn covered(a: &[Iv]) -> Micros {
    a.iter().map(|(s, e)| e - s).sum()
}

/// `[0, end) \ a` for a normalized set.
fn complement(a: &[Iv], end: Micros) -> Vec<Iv> {
    let mut out = Vec::new();
    let mut cur = 0;
    for &(s, e) in a {
        if s > cur {
            out.push((cur, s));
        }
        cur = cur.max(e);
    }
    if cur < end {
        out.push((cur, end));
    }
    out
}

/// Time regions where the global ready queue was non-empty, derived
/// from `QueueDepth` counter samples treated as a step function (last
/// sample wins at equal timestamps; the final sample extends to the
/// makespan).
fn queue_busy_intervals(events: &[Event], makespan: Micros) -> Vec<Iv> {
    let mut samples: Vec<(Micros, f64)> = events
        .iter()
        .filter_map(|e| match e {
            Event::Counter {
                key: CounterKey::QueueDepth,
                at_us,
                value,
            } => Some((*at_us, *value)),
            _ => None,
        })
        .collect();
    samples.sort_by_key(|(t, _)| *t);
    let mut out = Vec::new();
    for (i, (t, v)) in samples.iter().enumerate() {
        if i + 1 < samples.len() && samples[i + 1].0 == *t {
            continue; // superseded by a later sample at the same time
        }
        if *v > 0.0 {
            let until = samples.get(i + 1).map_or(makespan, |(t2, _)| *t2);
            out.push((*t, until.max(*t)));
        }
    }
    normalize(out)
}

/// One node's (track's) makespan decomposition. All buckets are
/// disjoint and sum to the run makespan exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeAttribution {
    /// The node/worker/agent row.
    pub track: Track,
    /// Executing spans observed on the row.
    pub tasks: u64,
    /// Time covered by task bodies, minus stream-blocked time.
    pub compute_us: Micros,
    /// Time a task on this row sat blocked on a stream channel (a
    /// writer waiting for capacity or a reader waiting for elements).
    /// Carved out of the enclosing executing span, so compute remains
    /// pure body time.
    pub stream_wait_us: Micros,
    /// Time stalled moving inputs (not already counted as compute).
    pub transfer_us: Micros,
    /// Time between a task being placed here and its first activity.
    pub sched_stall_us: Micros,
    /// Otherwise-idle time while the global ready queue was non-empty —
    /// work existed but this row wasn't running it.
    pub queue_wait_us: Micros,
    /// Idle time with an empty queue (no work to run).
    pub idle_us: Micros,
}

impl NodeAttribution {
    /// Sum of all buckets; equals the run makespan by construction.
    pub fn total_us(&self) -> Micros {
        self.compute_us
            + self.stream_wait_us
            + self.transfer_us
            + self.sched_stall_us
            + self.queue_wait_us
            + self.idle_us
    }

    /// Time the row was doing productive work (compute + transfer).
    /// Stream-blocked time occupies the row but produces nothing, so it
    /// is excluded — a pipeline bottleneck shows up as low busy%.
    pub fn busy_us(&self) -> Micros {
        self.compute_us + self.transfer_us
    }
}

/// Whole-run utilization and load-imbalance metrics over per-node busy
/// time (compute + transfer).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct UtilizationMetrics {
    /// Mean busy fraction across rows.
    pub mean_busy_fraction: f64,
    /// Largest busy fraction across rows.
    pub max_busy_fraction: f64,
    /// `max busy / mean busy`; 1.0 is perfectly balanced.
    pub imbalance_ratio: f64,
    /// Gini coefficient of busy time across rows; 0 is perfectly
    /// balanced, →1 means one row did all the work.
    pub gini: f64,
}

/// A run's makespan decomposition: per-node buckets, per-phase span
/// totals, and utilization metrics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunDiagnostics {
    /// Latest event edge in the trace.
    pub makespan_us: Micros,
    /// One decomposition per node/worker/agent row, in track order.
    pub nodes: Vec<NodeAttribution>,
    /// Summed span time per lifecycle phase, across all rows.
    pub phase_totals_us: BTreeMap<TaskPhase, Micros>,
    /// Committed instant markers.
    pub tasks_committed: u64,
    /// Failed instant markers.
    pub tasks_failed: u64,
    /// Replayed instant markers.
    pub replays: u64,
    /// Utilization and imbalance over the same rows.
    pub utilization: UtilizationMetrics,
}

impl RunDiagnostics {
    /// Decomposes an event stream. Rows that never produced an event
    /// are invisible to the trace and therefore absent here.
    pub fn from_events(events: &[Event]) -> Self {
        let makespan_us = events.iter().map(Event::end_us).max().unwrap_or(0);
        let queue_busy = queue_busy_intervals(events, makespan_us);

        // Per-row raw interval sets.
        let mut exec: BTreeMap<Track, Vec<Iv>> = BTreeMap::new();
        let mut stream: BTreeMap<Track, Vec<Iv>> = BTreeMap::new();
        let mut transfer: BTreeMap<Track, Vec<Iv>> = BTreeMap::new();
        let mut task_counts: BTreeMap<Track, u64> = BTreeMap::new();
        // (track, name) -> sorted activity starts, for stall matching.
        let mut activity_starts: BTreeMap<(Track, &str), Vec<Micros>> = BTreeMap::new();
        let mut scheduled: Vec<(Track, &str, Micros)> = Vec::new();
        let mut phase_totals_us: BTreeMap<TaskPhase, Micros> = BTreeMap::new();
        let (mut committed, mut failed, mut replays) = (0u64, 0u64, 0u64);

        for event in events {
            match event {
                Event::Span {
                    track,
                    name,
                    phase,
                    start_us,
                    dur_us,
                    ctx: _,
                } => {
                    // Overlapping spans can sum past `u64::MAX`.
                    let total = phase_totals_us.entry(*phase).or_default();
                    *total = total.saturating_add(*dur_us);
                    if *track == Track::Run {
                        continue;
                    }
                    let iv = (*start_us, start_us + dur_us);
                    match phase {
                        TaskPhase::Executing => {
                            exec.entry(*track).or_default().push(iv);
                            *task_counts.entry(*track).or_default() += 1;
                        }
                        TaskPhase::Transferring => {
                            transfer.entry(*track).or_default().push(iv);
                        }
                        TaskPhase::StreamWait => {
                            stream.entry(*track).or_default().push(iv);
                        }
                        _ => {}
                    }
                    activity_starts
                        .entry((*track, name.as_str()))
                        .or_default()
                        .push(*start_us);
                }
                Event::Instant {
                    track,
                    name,
                    phase,
                    at_us,
                } => {
                    match phase {
                        TaskPhase::Committed => committed += 1,
                        TaskPhase::Failed => failed += 1,
                        TaskPhase::Replayed => replays += 1,
                        _ => {}
                    }
                    if *phase == TaskPhase::Scheduled && *track != Track::Run {
                        scheduled.push((*track, name.as_str(), *at_us));
                    }
                }
                Event::Counter { .. } => {}
            }
        }
        for starts in activity_starts.values_mut() {
            starts.sort_unstable();
        }

        // Scheduler-stall intervals: placement marker -> first activity
        // of the same task on the same row.
        let mut stall: BTreeMap<Track, Vec<Iv>> = BTreeMap::new();
        for (track, name, at_us) in scheduled {
            let Some(starts) = activity_starts.get(&(track, name)) else {
                continue;
            };
            let next = starts.partition_point(|s| *s < at_us);
            if let Some(first_activity) = starts.get(next) {
                stall
                    .entry(track)
                    .or_default()
                    .push((at_us, *first_activity));
            }
        }

        let mut tracks: Vec<Track> = exec
            .keys()
            .chain(stream.keys())
            .chain(transfer.keys())
            .chain(stall.keys())
            .copied()
            .collect();
        tracks.sort_unstable();
        tracks.dedup();

        let mut nodes = Vec::with_capacity(tracks.len());
        for track in tracks {
            // Bucket priority: stream-wait > compute > transfer >
            // stall > wait > idle. Stream-blocked intervals happen
            // *inside* executing spans, so they are carved out first.
            let stream = normalize(stream.remove(&track).unwrap_or_default());
            let compute = subtract(&normalize(exec.remove(&track).unwrap_or_default()), &stream);
            let occupied = union(&compute, &stream);
            let transfer = subtract(
                &normalize(transfer.remove(&track).unwrap_or_default()),
                &occupied,
            );
            let busy = union(&occupied, &transfer);
            let stall = subtract(&normalize(stall.remove(&track).unwrap_or_default()), &busy);
            let accounted = union(&busy, &stall);
            let uncovered = complement(&accounted, makespan_us);
            let queue_wait = intersect(&uncovered, &queue_busy);
            let idle = subtract(&uncovered, &queue_busy);
            nodes.push(NodeAttribution {
                track,
                tasks: task_counts.get(&track).copied().unwrap_or(0),
                compute_us: covered(&compute),
                stream_wait_us: covered(&stream),
                transfer_us: covered(&transfer),
                sched_stall_us: covered(&stall),
                queue_wait_us: covered(&queue_wait),
                idle_us: covered(&idle),
            });
        }

        let utilization = Self::utilization(&nodes, makespan_us);
        RunDiagnostics {
            makespan_us,
            nodes,
            phase_totals_us,
            tasks_committed: committed,
            tasks_failed: failed,
            replays,
            utilization,
        }
    }

    fn utilization(nodes: &[NodeAttribution], makespan_us: Micros) -> UtilizationMetrics {
        if nodes.is_empty() || makespan_us == 0 {
            return UtilizationMetrics::default();
        }
        let busy: Vec<f64> = nodes.iter().map(|n| n.busy_us() as f64).collect();
        let n = busy.len() as f64;
        let mean = busy.iter().sum::<f64>() / n;
        let max = busy.iter().cloned().fold(0.0, f64::max);
        let imbalance_ratio = if mean > 0.0 { max / mean } else { 1.0 };
        let gini = if mean > 0.0 {
            let mut diff_sum = 0.0;
            for a in &busy {
                for b in &busy {
                    diff_sum += (a - b).abs();
                }
            }
            diff_sum / (2.0 * n * n * mean)
        } else {
            0.0
        };
        UtilizationMetrics {
            mean_busy_fraction: mean / makespan_us as f64,
            max_busy_fraction: max / makespan_us as f64,
            imbalance_ratio,
            gini,
        }
    }

    /// Whether the trace yielded no attributable rows.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The human-readable table (same as `Display`).
    pub fn summary(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for RunDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = |us: Micros| us as f64 / 1e6;
        writeln!(
            f,
            "run diagnostics — makespan {:.3} s, {} committed, {} failed, {} replays",
            s(self.makespan_us),
            self.tasks_committed,
            self.tasks_failed,
            self.replays
        )?;
        writeln!(
            f,
            "  {:<12} {:>6} {:>11} {:>10} {:>11} {:>11} {:>11} {:>11} {:>7}",
            "track",
            "tasks",
            "compute_s",
            "stream_s",
            "transfer_s",
            "stall_s",
            "wait_s",
            "idle_s",
            "busy%"
        )?;
        for node in &self.nodes {
            writeln!(
                f,
                "  {:<12} {:>6} {:>11.3} {:>10.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3} {:>6.1}%",
                node.track.label(),
                node.tasks,
                s(node.compute_us),
                s(node.stream_wait_us),
                s(node.transfer_us),
                s(node.sched_stall_us),
                s(node.queue_wait_us),
                s(node.idle_us),
                if self.makespan_us > 0 {
                    100.0 * node.busy_us() as f64 / self.makespan_us as f64
                } else {
                    0.0
                }
            )?;
        }
        if self.nodes.len() > 1 {
            // Each row's buckets sum to the makespan: on a trace ending
            // near `u64::MAX` the rows' totals saturate.
            let all = |bucket: fn(&NodeAttribution) -> Micros| {
                s(self
                    .nodes
                    .iter()
                    .fold(0, |sum, n| sum.saturating_add(bucket(n))))
            };
            writeln!(
                f,
                "  {:<12} {:>6} {:>11.3} {:>10.3} {:>11.3} {:>11.3} {:>11.3} {:>11.3}",
                "all rows",
                self.nodes.iter().map(|n| n.tasks).sum::<u64>(),
                all(|n| n.compute_us),
                all(|n| n.stream_wait_us),
                all(|n| n.transfer_us),
                all(|n| n.sched_stall_us),
                all(|n| n.queue_wait_us),
                all(|n| n.idle_us)
            )?;
        }
        writeln!(
            f,
            "  utilization: mean busy {:.1}%, max {:.1}%, imbalance {:.2}x, gini {:.3}",
            100.0 * self.utilization.mean_busy_fraction,
            100.0 * self.utilization.max_busy_fraction,
            self.utilization.imbalance_ratio,
            self.utilization.gini
        )?;
        if !self.phase_totals_us.is_empty() {
            let phases: Vec<String> = self
                .phase_totals_us
                .iter()
                .map(|(p, us)| format!("{} {:.3}s", p.as_str(), s(*us)))
                .collect();
            writeln!(f, "  span time by phase: {}", phases.join(", "))?;
        }
        Ok(())
    }
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

    fn stream_wait(node: u32, name: &str, start_us: Micros, end_us: Micros) -> Event {
        Event::Span {
            track: Track::Node(node),
            name: name.to_string().into(),
            phase: TaskPhase::StreamWait,
            start_us,
            dur_us: end_us - start_us,
            ctx: None,
        }
    }

    fn queue(at_us: Micros, depth: f64) -> Event {
        Event::Counter {
            key: CounterKey::QueueDepth,
            at_us,
            value: depth,
        }
    }

    #[test]
    fn interval_algebra_holds() {
        let a = normalize(vec![(5, 10), (0, 3), (9, 12)]);
        assert_eq!(a, vec![(0, 3), (5, 12)]);
        assert_eq!(subtract(&a, &[(2, 6)]), vec![(0, 2), (6, 12)]);
        assert_eq!(intersect(&a, &[(2, 6)]), vec![(2, 3), (5, 6)]);
        assert_eq!(complement(&a, 15), vec![(3, 5), (12, 15)]);
        assert_eq!(covered(&a), 10);
        assert_eq!(union(&[(0, 2)], &[(2, 4)]), vec![(0, 4)]);
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
    fn attribution_buckets_sum_to_makespan() {
        let events = vec![
            queue(0, 2.0),
            xfer(0, "a", 0, 10),
            exec(0, "a", 10, 40),
            queue(40, 1.0),
            exec(0, "b", 60, 100),
            queue(100, 0.0),
            // node 1 is idle the whole run except one short task.
            exec(1, "c", 0, 5),
        ];
        let diag = RunDiagnostics::from_events(&events);
        assert_eq!(diag.makespan_us, 100);
        assert_eq!(diag.nodes.len(), 2);
        for node in &diag.nodes {
            assert_eq!(
                node.total_us(),
                diag.makespan_us,
                "buckets must sum to makespan on {}",
                node.track.label()
            );
        }
        let n0 = &diag.nodes[0];
        assert_eq!(n0.track, Track::Node(0));
        assert_eq!(n0.compute_us, 70);
        assert_eq!(n0.transfer_us, 10);
        assert_eq!(n0.queue_wait_us, 20, "queue stayed >0 during 40..60");
        assert_eq!(n0.idle_us, 0);
        let n1 = &diag.nodes[1];
        assert_eq!(n1.compute_us, 5);
        assert_eq!(n1.queue_wait_us, 95, "queue >0 for the rest of the run");
    }

    #[test]
    fn stream_wait_is_carved_out_of_execution() {
        let events = vec![
            exec(0, "producer", 0, 100),
            // Blocked on a full channel for 20..50, inside the
            // enclosing executing span.
            stream_wait(0, "s0", 20, 50),
            exec(1, "consumer", 30, 100),
        ];
        let diag = RunDiagnostics::from_events(&events);
        assert_eq!(diag.makespan_us, 100);
        let n0 = &diag.nodes[0];
        assert_eq!(n0.stream_wait_us, 30);
        assert_eq!(n0.compute_us, 70, "stream wait carved out of compute");
        assert_eq!(
            n0.busy_us(),
            70,
            "blocked-on-channel time is not productive"
        );
        let n1 = &diag.nodes[1];
        assert_eq!(n1.stream_wait_us, 0);
        assert_eq!(n1.compute_us, 70);
        for node in &diag.nodes {
            assert_eq!(
                node.total_us(),
                diag.makespan_us,
                "buckets must still sum to makespan on {}",
                node.track.label()
            );
        }
    }

    #[test]
    fn scheduler_stall_is_the_placement_to_activity_gap() {
        let events = vec![
            Event::Instant {
                track: Track::Node(0),
                name: "t".into(),
                phase: TaskPhase::Scheduled,
                at_us: 10,
            },
            exec(0, "t", 25, 50),
        ];
        let diag = RunDiagnostics::from_events(&events);
        let n0 = &diag.nodes[0];
        assert_eq!(n0.sched_stall_us, 15);
        assert_eq!(n0.compute_us, 25);
        assert_eq!(n0.idle_us, 10, "before placement, with no queue data");
        assert_eq!(n0.total_us(), diag.makespan_us);
    }

    #[test]
    fn utilization_flags_imbalance() {
        let events = vec![exec(0, "a", 0, 100), exec(1, "b", 0, 50)];
        let diag = RunDiagnostics::from_events(&events);
        let u = diag.utilization;
        assert!((u.mean_busy_fraction - 0.75).abs() < 1e-9);
        assert!((u.max_busy_fraction - 1.0).abs() < 1e-9);
        assert!((u.imbalance_ratio - 100.0 / 75.0).abs() < 1e-9);
        // Gini for (100, 50): |100-50|*2 / (2*4*75) = 1/6.
        assert!((u.gini - 1.0 / 6.0).abs() < 1e-9);
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
    fn diagnostics_survive_json_round_trip() {
        let events = vec![exec(0, "a", 0, 100), queue(0, 1.0)];
        let diag = RunDiagnostics::from_events(&events);
        let back: RunDiagnostics = serde::from_str(&serde::to_string(&diag)).unwrap();
        assert_eq!(back, diag);
    }

    #[test]
    fn empty_trace_is_empty_diagnostics() {
        let diag = RunDiagnostics::from_events(&[]);
        assert!(diag.is_empty());
        assert_eq!(diag.makespan_us, 0);
        assert!(trace_critical_chain(&[]).is_empty());
    }
}
