//! Makespan attribution: every row's makespan split into disjoint
//! compute / stream-wait / transfer / scheduler-stall / queue-wait /
//! idle buckets, plus utilization and load-imbalance metrics.
//!
//! [`RunDiagnostics::from_events`] reads the trace once into dense
//! per-row tables (rows numbered on first sight, names by their rank in
//! [`NameRanks`]), then works on interval sets row by row.

use crate::event::{CounterKey, Event, Micros, TaskPhase, Track};
use crate::names::NameRanks;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

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

/// One row's raw interval sets, before the buckets are carved out of
/// them.
struct Row {
    track: Track,
    /// Executing spans.
    tasks: u64,
    exec: Vec<Iv>,
    stream: Vec<Iv>,
    transfer: Vec<Iv>,
    stall: Vec<Iv>,
}

impl Row {
    fn new(track: Track) -> Self {
        Row {
            track,
            tasks: 0,
            exec: Vec::new(),
            stream: Vec::new(),
            transfer: Vec::new(),
            stall: Vec::new(),
        }
    }

    /// Whether the row has anything to attribute; a row seen only in
    /// other phases, or in placements that led nowhere, is not reported.
    fn has_intervals(&self) -> bool {
        !(self.exec.is_empty()
            && self.stream.is_empty()
            && self.transfer.is_empty()
            && self.stall.is_empty())
    }
}

/// The rows of a trace, numbered densely in order of first appearance.
#[derive(Default)]
struct Rows {
    index: HashMap<Track, u32>,
    /// The previous lookup, tried first.
    last: Option<(Track, u32)>,
    rows: Vec<Row>,
}

impl Rows {
    /// The number of `track`'s row, which is added if new.
    fn index(&mut self, track: Track) -> u32 {
        if let Some((seen, index)) = self.last {
            if seen == track {
                return index;
            }
        }
        let rows = &mut self.rows;
        let index = *self.index.entry(track).or_insert_with(|| {
            rows.push(Row::new(track));
            u32::try_from(rows.len() - 1).expect("fewer than 2^32 rows")
        });
        self.last = Some((track, index));
        index
    }
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

        let mut rows = Rows::default();
        let mut names = NameRanks::default();
        // `(row, name, start)` of every span on a row and `(row, name,
        // at)` of every placement marker, for stall matching.
        let mut activity: Vec<(u32, u32, Micros)> = Vec::new();
        let mut placed: Vec<(u32, u32, Micros)> = Vec::new();
        let mut phase_totals = [None::<Micros>; TaskPhase::ALL.len()];
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
                    let total = phase_totals[*phase as usize].get_or_insert(0);
                    *total = total.saturating_add(*dur_us);
                    if *track == Track::Run {
                        continue;
                    }
                    let index = rows.index(*track);
                    let row = &mut rows.rows[index as usize];
                    let iv = (*start_us, start_us + dur_us);
                    match phase {
                        TaskPhase::Executing => {
                            row.exec.push(iv);
                            row.tasks += 1;
                        }
                        TaskPhase::Transferring => row.transfer.push(iv),
                        TaskPhase::StreamWait => row.stream.push(iv),
                        _ => {}
                    }
                    activity.push((index, names.id(name), *start_us));
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
                        placed.push((rows.index(*track), names.id(name), *at_us));
                    }
                }
                Event::Counter { .. } => {}
            }
        }

        // Scheduler-stall intervals: placement marker -> first activity
        // of the same task on the same row. Names compare by rank, so
        // equal texts match wherever they are stored.
        let ranks = names.ranks();
        let by_text = |(row, id, at): (u32, u32, Micros)| (row, ranks[id as usize], at);
        for entry in &mut activity {
            *entry = by_text(*entry);
        }
        activity.sort_unstable();
        for marker in placed {
            let (row, name, at_us) = by_text(marker);
            let next = activity.partition_point(|a| *a < (row, name, at_us));
            if let Some(&(r, n, first_activity)) = activity.get(next) {
                if (r, n) == (row, name) {
                    rows.rows[row as usize].stall.push((at_us, first_activity));
                }
            }
        }

        let mut rows = rows.rows;
        rows.retain(Row::has_intervals);
        rows.sort_unstable_by_key(|row| row.track);
        let nodes: Vec<NodeAttribution> = rows
            .into_iter()
            .map(|row| {
                // Bucket priority: stream-wait > compute > transfer >
                // stall > wait > idle. Stream-blocked intervals happen
                // *inside* executing spans, so they are carved out first.
                let stream = normalize(row.stream);
                let compute = subtract(&normalize(row.exec), &stream);
                let occupied = union(&compute, &stream);
                let transfer = subtract(&normalize(row.transfer), &occupied);
                let busy = union(&occupied, &transfer);
                let stall = subtract(&normalize(row.stall), &busy);
                let accounted = union(&busy, &stall);
                let uncovered = complement(&accounted, makespan_us);
                let queue_wait = intersect(&uncovered, &queue_busy);
                let idle = subtract(&uncovered, &queue_busy);
                NodeAttribution {
                    track: row.track,
                    tasks: row.tasks,
                    compute_us: covered(&compute),
                    stream_wait_us: covered(&stream),
                    transfer_us: covered(&transfer),
                    sched_stall_us: covered(&stall),
                    queue_wait_us: covered(&queue_wait),
                    idle_us: covered(&idle),
                }
            })
            .collect();

        let utilization = Self::utilization(&nodes, makespan_us);
        RunDiagnostics {
            makespan_us,
            nodes,
            phase_totals_us: TaskPhase::ALL
                .into_iter()
                .zip(phase_totals)
                .filter_map(|(phase, total)| Some((phase, total?)))
                .collect(),
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
    use proptest::prelude::*;
    use rand::prelude::*;

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
    fn diagnostics_survive_json_round_trip() {
        let events = vec![exec(0, "a", 0, 100), queue(0, 1.0)];
        let diag = RunDiagnostics::from_events(&events);
        let back: RunDiagnostics = serde::from_str(&serde::to_string(&diag)).unwrap();
        assert_eq!(back, diag);
    }

    /// The `BTreeMap`-keyed attribution the dense tables replaced,
    /// kept as the oracle.
    fn reference(events: &[Event]) -> RunDiagnostics {
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

        let utilization = RunDiagnostics::utilization(&nodes, makespan_us);
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

    /// Event lists drawn from small pools so that rows, names, times and
    /// phases collide: names either the shared literal or a fresh
    /// `String` (equal texts at different addresses), overlapping and
    /// empty spans, placements with and without a later activity, and
    /// queue samples at equal times.
    fn colliding_events(seed: u64, n: usize) -> Vec<Event> {
        const TRACKS: [Track; 6] = [
            Track::Run,
            Track::Node(0),
            Track::Node(3),
            Track::Worker(0),
            Track::Agent(1),
            Track::Remote(2, 5),
        ];
        const NAMES: [&str; 4] = ["", "a", "stencil_r1", "stencil_r10"];
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let track = TRACKS[rng.gen_range(0..TRACKS.len())];
                let text = NAMES[rng.gen_range(0..NAMES.len())];
                let name = if rng.gen() {
                    text.into()
                } else {
                    text.to_string().into()
                };
                let phase = TaskPhase::ALL[rng.gen_range(0..TaskPhase::ALL.len())];
                let at_us = rng.gen_range(0..60);
                match rng.gen_range(0..10u32) {
                    0..=5 => Event::Span {
                        track,
                        name,
                        phase,
                        start_us: at_us,
                        dur_us: rng.gen_range(0..25),
                        ctx: None,
                    },
                    6..=8 => Event::Instant {
                        track,
                        name,
                        phase,
                        at_us,
                    },
                    _ => queue(at_us, f64::from(rng.gen_range(0..3u32))),
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(320))]

        /// The dense tables attribute, field for field, what the
        /// `BTreeMap`-keyed pass did.
        #[test]
        fn dense_tables_match_the_reference(seed in 0u64..1 << 48, n in 0usize..80) {
            let events = colliding_events(seed, n);
            prop_assert_eq!(RunDiagnostics::from_events(&events), reference(&events));
        }
    }
}
