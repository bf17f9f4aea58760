//! The event model: typed records of what an engine did and when.
//!
//! Both engines speak this vocabulary — the local runtime stamps events
//! with wall-clock time, the simulator with virtual time — so every
//! exporter ([`crate::chrome`], [`crate::paraver`], [`crate::metrics`])
//! works on either without knowing which engine produced the stream.

use continuum_dag::Label;
use serde::{Deserialize, Serialize};

/// Event timestamps, in integer microseconds since the run origin.
///
/// Integer microseconds are what Chrome's `trace_event` format uses
/// natively, keep virtual-time exports byte-deterministic, and are
/// cheap to produce on the hot path.
pub type Micros = u64;

/// Converts engine seconds (wall-clock or virtual) to [`Micros`].
pub fn micros_from_seconds(seconds: f64) -> Micros {
    (seconds * 1e6).round().max(0.0) as Micros
}

/// The timeline an event belongs to. Exporters render one row (Chrome
/// thread, Paraver line, Gantt row) per distinct track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Track {
    /// The whole run (engine-level events and counters).
    Run,
    /// A simulated platform node.
    Node(u32),
    /// A local-runtime worker thread.
    Worker(u32),
    /// An autonomous agent on the message bus.
    Agent(u32),
    /// A row from another agent's trace after a federated merge:
    /// `(agent, row)` where `row` is the remote track's index on its
    /// home agent ([`Track::REMOTE_RUN_ROW`] for its `Run` row).
    ///
    /// Merging never nests: a remote trace's own `Remote` rows keep
    /// their original agent id. Both components must fit in 16 bits so
    /// the pair packs into one Chrome `tid`.
    Remote(u32, u32),
}

impl Track {
    /// Row index [`Track::Remote`] uses for a remote trace's `Run` row.
    pub const REMOTE_RUN_ROW: u32 = 0xFFFF;

    /// Inverse of [`Track::chrome_pid`]/[`Track::chrome_tid`]: rebuilds
    /// the track from a Chrome `(pid, tid)` pair, `None` for pids this
    /// crate never emits.
    pub fn from_chrome(pid: u64, tid: u64) -> Option<Track> {
        if pid == 5 {
            let packed = u32::try_from(tid).ok()?;
            return Some(Track::Remote(packed >> 16, packed & 0xFFFF));
        }
        let id = u32::try_from(tid).ok()?;
        match pid {
            1 => Some(Track::Run),
            2 => Some(Track::Node(id)),
            3 => Some(Track::Worker(id)),
            4 => Some(Track::Agent(id)),
            _ => None,
        }
    }

    /// Human-readable row label.
    pub fn label(&self) -> String {
        match self {
            Track::Run => "run".to_string(),
            Track::Node(i) => format!("node {i}"),
            Track::Worker(i) => format!("worker {i}"),
            Track::Agent(i) => format!("agent {i}"),
            Track::Remote(a, r) if *r == Track::REMOTE_RUN_ROW => format!("agent {a} run"),
            Track::Remote(a, r) => format!("agent {a} row {r}"),
        }
    }

    /// Chrome `pid`: one process per track family.
    pub fn chrome_pid(&self) -> u64 {
        match self {
            Track::Run => 1,
            Track::Node(_) => 2,
            Track::Worker(_) => 3,
            Track::Agent(_) => 4,
            Track::Remote(..) => 5,
        }
    }

    /// Chrome `tid`: the row within the family.
    pub fn chrome_tid(&self) -> u64 {
        match self {
            Track::Run => 0,
            Track::Node(i) | Track::Worker(i) | Track::Agent(i) => u64::from(*i),
            Track::Remote(a, r) => u64::from((a & 0xFFFF) << 16 | (r & 0xFFFF)),
        }
    }

    /// Name of the Chrome process grouping this family's rows.
    pub fn family_name(&self) -> &'static str {
        match self {
            Track::Run => "engine",
            Track::Node(_) => "sim nodes",
            Track::Worker(_) => "local workers",
            Track::Agent(_) => "agents",
            Track::Remote(..) => "remote agents",
        }
    }
}

/// Causal identity of a span: which distributed trace it belongs to and
/// where it sits in the cross-agent parent tree.
///
/// Contexts propagate through offload hops: the orchestrator stamps the
/// dispatch span with a child of the workflow root, ships that context
/// in the network message, and the executing agent parents its own
/// transfer/execute spans under it — so a task running three hops away
/// still chains back to the submitting workflow. Span ids are derived
/// by hashing `(parent span id, agent, seq)`, which needs no cross-agent
/// coordination and is deterministic for a given tree shape; the merge
/// pass verifies ids stay unique.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SpanContext {
    /// Identity of the whole distributed trace (shared by every span).
    pub trace_id: u64,
    /// This span's unique id within the trace.
    pub span_id: u64,
    /// Causal parent span, `None` for the workflow root.
    pub parent_span_id: Option<u64>,
    /// Agent that recorded the span ([`SpanContext::COORDINATOR`] for
    /// an orchestrator running outside any agent).
    pub agent_id: u32,
}

/// SplitMix64 finalizer: a cheap, well-distributed 64-bit mixer.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl SpanContext {
    /// Sentinel agent id for an orchestrator that is not itself an
    /// agent on the bus (e.g. a test driver or the CLI).
    pub const COORDINATOR: u32 = u32::MAX;

    /// Root context for a new distributed trace.
    pub fn root(trace_id: u64, agent_id: u32) -> SpanContext {
        SpanContext {
            trace_id,
            span_id: mix64(trace_id),
            parent_span_id: None,
            agent_id,
        }
    }

    /// Child context under `self`, recorded by `agent_id`. `seq` must be
    /// unique per `(parent, agent)` pair — callers use a per-parent or
    /// per-agent monotone counter.
    pub fn child(&self, agent_id: u32, seq: u64) -> SpanContext {
        let id = mix64(mix64(self.span_id ^ u64::from(agent_id).rotate_left(32)).wrapping_add(seq));
        SpanContext {
            trace_id: self.trace_id,
            span_id: id,
            parent_span_id: Some(self.span_id),
            agent_id,
        }
    }
}

/// Where a task is in its lifecycle:
/// `submitted → ready → scheduled → transferring → executing →
/// committed | failed | replayed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TaskPhase {
    /// Registered with the engine; dependencies may be unmet.
    Submitted,
    /// All dependencies satisfied, waiting for resources.
    Ready,
    /// Placed on a node/worker/agent.
    Scheduled,
    /// Stalled moving inputs to the execution site.
    Transferring,
    /// Running the task body.
    Executing,
    /// Outputs committed; the task is done.
    Committed,
    /// The task body failed.
    Failed,
    /// A lineage replay of an already-completed task.
    Replayed,
    /// Blocked on a stream channel: a writer waiting for capacity or a
    /// reader waiting for the next element.
    StreamWait,
    /// A remote dispatch as seen from the submitting side: the interval
    /// from sending an offload request to receiving its reply.
    Offloading,
    /// An async task body suspended on a waker (timer, stream, storage
    /// or RPC readiness): the interval from `Poll::Pending` to the wake
    /// that re-queued it. The worker thread is *not* occupied during a
    /// parked interval — that is the point of the M:N executor.
    Parked,
}

impl TaskPhase {
    /// Lower-case label, used as the Chrome `cat` field.
    pub fn as_str(&self) -> &'static str {
        match self {
            TaskPhase::Submitted => "submitted",
            TaskPhase::Ready => "ready",
            TaskPhase::Scheduled => "scheduled",
            TaskPhase::Transferring => "transferring",
            TaskPhase::Executing => "executing",
            TaskPhase::Committed => "committed",
            TaskPhase::Failed => "failed",
            TaskPhase::Replayed => "replayed",
            TaskPhase::StreamWait => "stream_wait",
            TaskPhase::Offloading => "offloading",
            TaskPhase::Parked => "parked",
        }
    }

    /// Every phase, in lifecycle order.
    pub const ALL: [TaskPhase; 11] = [
        TaskPhase::Submitted,
        TaskPhase::Ready,
        TaskPhase::Scheduled,
        TaskPhase::Transferring,
        TaskPhase::Executing,
        TaskPhase::Committed,
        TaskPhase::Failed,
        TaskPhase::Replayed,
        TaskPhase::StreamWait,
        TaskPhase::Offloading,
        TaskPhase::Parked,
    ];

    /// Inverse of [`TaskPhase::as_str`].
    pub fn parse(s: &str) -> Option<TaskPhase> {
        TaskPhase::ALL.into_iter().find(|p| p.as_str() == s)
    }

    /// Paraver state code: `1` is the conventional "running" state;
    /// the rest use a stable private numbering.
    pub fn paraver_state(&self) -> u32 {
        match self {
            TaskPhase::Executing => 1,
            TaskPhase::Submitted => 2,
            TaskPhase::Ready => 3,
            TaskPhase::Scheduled => 4,
            TaskPhase::Transferring => 5,
            TaskPhase::Committed => 6,
            TaskPhase::Failed => 7,
            TaskPhase::Replayed => 8,
            TaskPhase::StreamWait => 9,
            TaskPhase::Offloading => 10,
            TaskPhase::Parked => 11,
        }
    }
}

/// A metric an engine samples over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CounterKey {
    /// Tasks ready but not yet placed.
    QueueDepth,
    /// Tasks currently executing.
    RunningTasks,
    /// Cumulative bytes moved between nodes.
    TransferBytes,
    /// Cumulative microseconds stalled on input transfers.
    TransferStallMicros,
    /// Cumulative lineage replays of completed tasks.
    LineageReplays,
    /// Microseconds between a task becoming ready and being placed.
    ScheduleLatencyMicros,
    /// Tasks offered to the scheduler in a scheduling round.
    SchedulerTasksOffered,
    /// Tasks the scheduler placed in a scheduling round.
    SchedulerTasksPlaced,
    /// Cumulative rounds that placed nothing solely because tasks were
    /// waiting on in-flight lineage replays (distinguishes replay
    /// stalls from true unschedulability).
    ReplayStallRounds,
    /// Highest channel occupancy observed on any stream (elements).
    StreamOccupancyHighWater,
    /// Cumulative microseconds stream writers spent blocked on a full
    /// channel.
    StreamBlockedSendMicros,
    /// Cumulative microseconds stream readers spent blocked on an
    /// empty channel.
    StreamBlockedRecvMicros,
    /// Cumulative elements moved through stream channels.
    StreamElements,
    /// Cumulative payload bytes moved through stream channels.
    StreamBytes,
    /// Highest number of materialized (non-retired) tasks resident at
    /// once — the lazy-materialization frontier high-water mark.
    MaterializedTasksHighWater,
    /// Highest number of live (non-retired) data values tracked by the
    /// registry at once.
    LiveValuesHighWater,
    /// Highest event-queue occupancy (pending events) observed.
    EventQueueHighWater,
    /// Highest number of in-flight tasks (started but not finished,
    /// including parked async bodies) observed at once — the M:N
    /// executor's concurrency high-water mark.
    InflightTasksHighWater,
    /// Tasks a local worker, or a waiting client, ran straight after the
    /// commit that readied them, without a queue (the run's total,
    /// published at its end).
    HandedOffTasks,
    /// Tasks local workers took from a sibling worker's queue, and
    /// waiting clients from a worker's (the run's total, published at
    /// its end).
    StolenTasks,
    /// Tasks client threads ran while they waited in `get` or
    /// `wait_all` (the run's total, summed per wait and published at
    /// its end).
    ClientTasks,
}

impl CounterKey {
    /// Every counter key.
    pub const ALL: [CounterKey; 21] = [
        CounterKey::QueueDepth,
        CounterKey::RunningTasks,
        CounterKey::TransferBytes,
        CounterKey::TransferStallMicros,
        CounterKey::LineageReplays,
        CounterKey::ScheduleLatencyMicros,
        CounterKey::SchedulerTasksOffered,
        CounterKey::SchedulerTasksPlaced,
        CounterKey::ReplayStallRounds,
        CounterKey::StreamOccupancyHighWater,
        CounterKey::StreamBlockedSendMicros,
        CounterKey::StreamBlockedRecvMicros,
        CounterKey::StreamElements,
        CounterKey::StreamBytes,
        CounterKey::MaterializedTasksHighWater,
        CounterKey::LiveValuesHighWater,
        CounterKey::EventQueueHighWater,
        CounterKey::InflightTasksHighWater,
        CounterKey::HandedOffTasks,
        CounterKey::StolenTasks,
        CounterKey::ClientTasks,
    ];

    /// Inverse of [`CounterKey::as_str`].
    pub fn parse(s: &str) -> Option<CounterKey> {
        CounterKey::ALL.into_iter().find(|k| k.as_str() == s)
    }

    /// Lower-snake-case label, used as the Chrome counter name.
    pub fn as_str(&self) -> &'static str {
        match self {
            CounterKey::QueueDepth => "queue_depth",
            CounterKey::RunningTasks => "running_tasks",
            CounterKey::TransferBytes => "transfer_bytes",
            CounterKey::TransferStallMicros => "transfer_stall_us",
            CounterKey::LineageReplays => "lineage_replays",
            CounterKey::ScheduleLatencyMicros => "schedule_latency_us",
            CounterKey::SchedulerTasksOffered => "scheduler_tasks_offered",
            CounterKey::SchedulerTasksPlaced => "scheduler_tasks_placed",
            CounterKey::ReplayStallRounds => "replay_stall_rounds",
            CounterKey::StreamOccupancyHighWater => "stream_occupancy_high_water",
            CounterKey::StreamBlockedSendMicros => "stream_blocked_send_us",
            CounterKey::StreamBlockedRecvMicros => "stream_blocked_recv_us",
            CounterKey::StreamElements => "stream_elements",
            CounterKey::StreamBytes => "stream_bytes",
            CounterKey::MaterializedTasksHighWater => "materialized_tasks_high_water",
            CounterKey::LiveValuesHighWater => "live_values_high_water",
            CounterKey::EventQueueHighWater => "event_queue_high_water",
            CounterKey::InflightTasksHighWater => "inflight_tasks_high_water",
            CounterKey::HandedOffTasks => "handed_off_tasks",
            CounterKey::StolenTasks => "stolen_tasks",
            CounterKey::ClientTasks => "client_tasks",
        }
    }
}

/// One telemetry record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// A closed interval on a track (e.g. a task body execution).
    Span {
        /// Row the span lives on.
        track: Track,
        /// Span label (usually the task name, copied from its spec by
        /// reference count).
        name: Label,
        /// Lifecycle phase the interval covers.
        phase: TaskPhase,
        /// Interval start.
        start_us: Micros,
        /// Interval length.
        dur_us: Micros,
        /// Causal identity for cross-agent correlation, `None` for
        /// spans that never leave one engine's trace. Boxed: only agent
        /// spans carry one, and inline it would make every event of
        /// every engine 32 bytes larger.
        ctx: Option<Box<SpanContext>>,
    },
    /// A point-in-time marker (e.g. a task commit).
    Instant {
        /// Row the marker lives on.
        track: Track,
        /// Marker label (usually the task name).
        name: Label,
        /// Lifecycle phase the marker records.
        phase: TaskPhase,
        /// When it happened.
        at_us: Micros,
    },
    /// A sampled metric value.
    Counter {
        /// Which metric.
        key: CounterKey,
        /// Sample time.
        at_us: Micros,
        /// Sample value.
        value: f64,
    },
}

impl Event {
    /// The event's timestamp (span start for spans).
    pub fn at_us(&self) -> Micros {
        match self {
            Event::Span { start_us, .. } => *start_us,
            Event::Instant { at_us, .. } | Event::Counter { at_us, .. } => *at_us,
        }
    }

    /// The event's end (start for instants and counters).
    pub fn end_us(&self) -> Micros {
        match self {
            Event::Span {
                start_us, dur_us, ..
            } => start_us + dur_us,
            Event::Instant { at_us, .. } | Event::Counter { at_us, .. } => *at_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn micros_conversion_rounds() {
        assert_eq!(micros_from_seconds(0.0), 0);
        assert_eq!(micros_from_seconds(1.5), 1_500_000);
        assert_eq!(micros_from_seconds(-1.0), 0, "clamped at zero");
        assert_eq!(micros_from_seconds(1e-7), 0, "sub-microsecond rounds down");
    }

    /// A traced run buffers half a dozen of these per task.
    #[test]
    fn event_did_not_grow() {
        assert_eq!(std::mem::size_of::<Event>(), 64);
    }

    #[test]
    fn events_report_bounds() {
        let span = Event::Span {
            track: Track::Node(0),
            name: "t".into(),
            phase: TaskPhase::Executing,
            start_us: 10,
            dur_us: 5,
            ctx: None,
        };
        assert_eq!(span.at_us(), 10);
        assert_eq!(span.end_us(), 15);
    }

    #[test]
    fn labels_round_trip() {
        for phase in TaskPhase::ALL {
            assert_eq!(TaskPhase::parse(phase.as_str()), Some(phase));
        }
        for key in CounterKey::ALL {
            assert_eq!(CounterKey::parse(key.as_str()), Some(key));
        }
        assert_eq!(TaskPhase::parse("no-such-phase"), None);
        assert_eq!(CounterKey::parse("no-such-key"), None);
    }

    #[test]
    fn chrome_ids_round_trip() {
        for track in [
            Track::Run,
            Track::Node(7),
            Track::Worker(0),
            Track::Agent(42),
            Track::Remote(3, 1),
            Track::Remote(0, Track::REMOTE_RUN_ROW),
        ] {
            assert_eq!(
                Track::from_chrome(track.chrome_pid(), track.chrome_tid()),
                Some(track)
            );
        }
        assert_eq!(Track::from_chrome(9, 0), None);
    }

    #[test]
    fn span_context_children_are_distinct_and_parented() {
        let root = SpanContext::root(42, SpanContext::COORDINATOR);
        assert_eq!(root.parent_span_id, None);
        let mut seen = std::collections::HashSet::new();
        seen.insert(root.span_id);
        for agent in 0..4u32 {
            for seq in 0..16u64 {
                let c = root.child(agent, seq);
                assert_eq!(c.trace_id, root.trace_id);
                assert_eq!(c.parent_span_id, Some(root.span_id));
                assert_eq!(c.agent_id, agent);
                assert!(seen.insert(c.span_id), "span id collision");
                let grand = c.child(agent, seq);
                assert!(seen.insert(grand.span_id), "grandchild collision");
            }
        }
    }

    #[test]
    fn event_round_trips_through_json() {
        let e = Event::Counter {
            key: CounterKey::QueueDepth,
            at_us: 7,
            value: 3.0,
        };
        let back: Event = serde::from_str(&serde::to_string(&e)).unwrap();
        assert_eq!(back, e);
    }
}
