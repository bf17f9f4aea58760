//! Execution traces: per-task placement and timing records, the
//! equivalent of the Paraver traces the COMPSs runtime emits for
//! post-mortem analysis.

use continuum_dag::TaskId;
use continuum_platform::NodeId;
use continuum_telemetry::{
    micros_from_seconds, Event, GanttSpan, Label, SpanContext, TaskPhase, Track,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// One task execution (re-executions appear as separate records).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceRecord {
    /// The executed task.
    pub task: TaskId,
    /// Head node of the execution (first host for rigid tasks).
    pub node: NodeId,
    /// Start time (transfer stall included), seconds.
    pub start_s: f64,
    /// Completion time, seconds.
    pub end_s: f64,
    /// Seconds spent waiting for input transfers before compute.
    pub transfer_stall_s: f64,
    /// `true` for lineage replays of already-completed tasks.
    pub replay: bool,
}

impl TraceRecord {
    /// Expands the record into engine-independent telemetry events on
    /// the execution node's track, in virtual microseconds: a
    /// `Transferring` span for any input stall, an `Executing` span,
    /// and a `Committed` (or `Replayed`) marker. This is the single
    /// conversion the simulated engine and post-hoc trace exports
    /// share. Each event's name is a clone of `name` — free for the
    /// literal and interned labels task specs usually carry. `ctx`,
    /// when given, stamps the spans so the task chains into a
    /// distributed trace (both phases share the one context: they are
    /// phases of a single logical execution).
    pub fn to_events(&self, name: &Label, ctx: Option<SpanContext>) -> impl Iterator<Item = Event> {
        let track = Track::Node(self.node.index() as u32);
        let start_us = micros_from_seconds(self.start_s);
        let exec_start_us = micros_from_seconds(self.start_s + self.transfer_stall_s);
        let end_us = micros_from_seconds(self.end_s);
        let ctx = ctx.map(Box::new);
        let transfer = (exec_start_us > start_us).then(|| Event::Span {
            track,
            name: name.clone(),
            phase: TaskPhase::Transferring,
            start_us,
            dur_us: exec_start_us - start_us,
            ctx: ctx.clone(),
        });
        let exec = Event::Span {
            track,
            name: name.clone(),
            phase: TaskPhase::Executing,
            start_us: exec_start_us,
            dur_us: end_us.saturating_sub(exec_start_us),
            ctx,
        };
        let marker = Event::Instant {
            track,
            name: name.clone(),
            phase: if self.replay {
                TaskPhase::Replayed
            } else {
                TaskPhase::Committed
            },
            at_us: end_us,
        };
        transfer.into_iter().chain([exec, marker])
    }
}

/// A full execution trace.
#[derive(Debug, Clone)]
pub struct ExecutionTrace {
    records: Vec<TraceRecord>,
    /// Running sum of the records' `transfer_stall_s`, added in record
    /// order from the same start value as `Iterator::sum` (`-0.0`), so
    /// it is bit-for-bit the sum over `records`.
    stall_total_s: f64,
}

impl Default for ExecutionTrace {
    fn default() -> Self {
        ExecutionTrace {
            records: Vec::new(),
            stall_total_s: -0.0,
        }
    }
}

/// Two traces are equal when their records are (the running total is
/// a function of the records).
impl PartialEq for ExecutionTrace {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
    }
}

/// Serializes as `{"records": [...]}`.
impl Serialize for ExecutionTrace {
    fn to_json_value(&self) -> serde::Value {
        serde::Value::Obj(vec![("records".to_string(), self.records.to_json_value())])
    }
}

impl Deserialize for ExecutionTrace {
    fn from_json_value(value: &serde::Value) -> Option<Self> {
        let records = Vec::<TraceRecord>::from_json_value(value.get("records")?)?;
        let mut trace = ExecutionTrace::new();
        for record in records {
            trace.record(record);
        }
        Some(trace)
    }
}

/// Most records [`ExecutionTrace::reserve_hint`] sets aside in one go
/// (160 MiB of them — the paper's largest campaigns are 3 M tasks).
const MAX_RESERVED_RECORDS: u64 = 1 << 22;

impl ExecutionTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets room aside for `records` more records, so that a run that
    /// knows its length up front does not grow the trace by doubling
    /// (each doubling holds the old and the new buffer at once). The
    /// number is a hint from outside the engine: one above
    /// `MAX_RESERVED_RECORDS`, or one the allocator refuses, is
    /// ignored and the trace grows as it is written.
    pub fn reserve_hint(&mut self, records: u64) {
        if records <= MAX_RESERVED_RECORDS {
            // A refusal leaves the trace as it was.
            let _ = self.records.try_reserve_exact(records as usize);
        }
    }

    /// Appends a record.
    pub fn record(&mut self, record: TraceRecord) {
        self.stall_total_s += record.transfer_stall_s;
        self.records.push(record);
    }

    /// All records, in completion order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Records executed on a given node.
    pub fn on_node(&self, node: NodeId) -> impl Iterator<Item = &TraceRecord> {
        self.records.iter().filter(move |r| r.node == node)
    }

    /// Total seconds stalled on transfers across all executions
    /// (O(1): kept as a running sum by [`ExecutionTrace::record`]).
    pub fn total_transfer_stall_s(&self) -> f64 {
        self.stall_total_s
    }

    /// Renders an ASCII Gantt chart: one row per node, time bucketed
    /// into `width` columns. Busy buckets show `#`, replays `r`.
    /// Rendering is delegated to [`continuum_telemetry::gantt`].
    pub fn gantt(&self, nodes: usize, width: usize) -> String {
        let rows: Vec<(String, Vec<GanttSpan>)> = (0..nodes)
            .map(|n| {
                let spans = self
                    .on_node(NodeId::from_raw(n as u32))
                    .map(|r| GanttSpan {
                        start_s: r.start_s,
                        end_s: r.end_s,
                        replay: r.replay,
                    })
                    .collect();
                (format!("n{n}"), spans)
            })
            .collect();
        continuum_telemetry::gantt::render(&rows, width)
    }

    /// Converts the whole trace to telemetry events (see
    /// [`TraceRecord::to_events`]), labelling spans with the task id.
    pub fn to_events(&self) -> Vec<Event> {
        self.to_events_traced(None)
    }

    /// Like [`ExecutionTrace::to_events`], but parents every record
    /// under `ctx`: record *i* gets the child context derived with
    /// sequence `i + 1` (record order, so lineage replays of one task
    /// still get distinct span ids).
    pub fn to_events_traced(&self, ctx: Option<SpanContext>) -> Vec<Event> {
        self.records
            .iter()
            .enumerate()
            .flat_map(|(i, r)| {
                let child = ctx.map(|c| c.child(c.agent_id, i as u64 + 1));
                r.to_events(&r.task.to_string().into(), child)
            })
            .collect()
    }
}

impl fmt::Display for ExecutionTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.records {
            writeln!(
                f,
                "{}{} on {}: {:.3}s → {:.3}s (stall {:.3}s)",
                r.task,
                if r.replay { " (replay)" } else { "" },
                r.node,
                r.start_s,
                r.end_s,
                r.transfer_stall_s
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(task: u64, node: u32, start: f64, end: f64) -> TraceRecord {
        TraceRecord {
            task: TaskId::from_raw(task),
            node: NodeId::from_raw(node),
            start_s: start,
            end_s: end,
            transfer_stall_s: 0.1,
            replay: false,
        }
    }

    #[test]
    fn records_and_filters() {
        let mut t = ExecutionTrace::new();
        assert!(t.is_empty());
        t.record(rec(0, 0, 0.0, 5.0));
        t.record(rec(1, 1, 0.0, 3.0));
        t.record(rec(2, 0, 5.0, 8.0));
        assert_eq!(t.len(), 3);
        assert_eq!(t.on_node(NodeId::from_raw(0)).count(), 2);
        assert!((t.total_transfer_stall_s() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn a_length_hint_reserves_once_and_a_wild_one_is_ignored() {
        let mut t = ExecutionTrace::new();
        t.reserve_hint(1_000);
        assert_eq!(t.records.capacity(), 1_000);
        let mut wild = ExecutionTrace::new();
        wild.reserve_hint(u64::MAX);
        wild.reserve_hint(MAX_RESERVED_RECORDS + 1);
        assert_eq!(wild.records.capacity(), 0, "falls back to growth");
        wild.record(rec(0, 0, 0.0, 1.0));
        assert_eq!(wild.len(), 1);
    }

    #[test]
    fn running_stall_total_is_bitwise_the_sum_over_records() {
        let mut t = ExecutionTrace::new();
        assert!(t.total_transfer_stall_s().is_sign_negative(), "-0.0");
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..500 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let mut r = rec(i, 0, 0.0, 1.0);
            // Stalls across many magnitudes, plenty of exact zeros.
            r.transfer_stall_s = match state >> 62 {
                0 => 0.0,
                1 => (state >> 11) as f64 * 1e-19,
                _ => (state >> 11) as f64 * 1e-9,
            };
            t.record(r);
            let prefix: f64 = t.records().iter().map(|r| r.transfer_stall_s).sum();
            assert_eq!(t.total_transfer_stall_s().to_bits(), prefix.to_bits());
        }
        let back: ExecutionTrace = serde::from_str(&serde::to_string(&t)).unwrap();
        assert_eq!(back, t);
        assert_eq!(
            back.total_transfer_stall_s().to_bits(),
            t.total_transfer_stall_s().to_bits()
        );
    }

    #[test]
    fn gantt_renders_busy_cells() {
        let mut t = ExecutionTrace::new();
        t.record(rec(0, 0, 0.0, 10.0));
        t.record(rec(1, 1, 5.0, 10.0));
        let g = t.gantt(2, 20);
        let lines: Vec<&str> = g.lines().collect();
        assert!(lines[0].starts_with("n0"));
        assert!(lines[0].contains("####"));
        // Node 1 is idle in the first half.
        let n1 = lines[1];
        let bar = &n1[n1.find('|').unwrap() + 1..n1.rfind('|').unwrap()];
        assert!(bar.starts_with(' '));
        assert!(bar.ends_with('#'));
    }

    #[test]
    fn to_events_carries_stalls_and_commits() {
        let mut t = ExecutionTrace::new();
        let mut r = rec(3, 1, 1.0, 4.0); // 0.1 s stall from rec()
        r.transfer_stall_s = 0.5;
        t.record(r);
        let events = t.to_events();
        assert_eq!(events.len(), 3, "transfer span + exec span + marker");
        match &events[0] {
            Event::Span {
                phase,
                start_us,
                dur_us,
                ..
            } => {
                assert_eq!(*phase, TaskPhase::Transferring);
                assert_eq!((*start_us, *dur_us), (1_000_000, 500_000));
            }
            other => panic!("expected transfer span, got {other:?}"),
        }
        match &events[2] {
            Event::Instant {
                phase,
                at_us,
                track,
                ..
            } => {
                assert_eq!(*phase, TaskPhase::Committed);
                assert_eq!(*at_us, 4_000_000);
                assert_eq!(*track, Track::Node(1));
            }
            other => panic!("expected commit marker, got {other:?}"),
        }
    }

    #[test]
    fn replays_render_differently() {
        let mut t = ExecutionTrace::new();
        let mut r = rec(0, 0, 0.0, 10.0);
        r.replay = true;
        t.record(r);
        assert!(t.gantt(1, 10).contains('r'));
        assert!(t.to_string().contains("(replay)"));
    }
}
