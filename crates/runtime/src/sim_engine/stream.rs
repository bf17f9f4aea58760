//! Stream edges in virtual time: per-datum channels, the send/receive
//! events between a producer and its running consumers, and the
//! counters a run publishes about them.

use super::{Engine, Event};
use crate::error::RuntimeError;
use continuum_dag::{DataId, TaskId, TaskSpec};
use continuum_platform::NodeId;
use continuum_sim::VirtualTime;
use continuum_telemetry::{micros_from_seconds, CounterKey, RecorderHandle};
use std::collections::{BTreeMap, HashMap};

/// Nominal capacity of a simulated stream channel. Virtual time is
/// driven by the cost model, not by backpressure, so capacity is
/// *recorded* rather than enforced: the time a channel spends above
/// this bound is accumulated as blocked-send micros instead of
/// delaying the producer (see [`SimChannel`]).
const SIM_STREAM_CAPACITY: u64 = 16;

/// Virtual-time bookkeeping of one stream datum: sends and receives
/// are discrete events on the sim clock, occupancy is the element
/// backlog between them. Unlike the local runtime's
/// [`StreamChannel`](crate::stream), capacity never *blocks* anything
/// — virtual durations come from the cost model — so backpressure is
/// recorded instead: time spent above [`SIM_STREAM_CAPACITY`] counts
/// as blocked-send micros, and a running consumer's wait for the next
/// element counts as blocked-recv micros.
#[derive(Debug, Default)]
struct SimChannel {
    /// Producer tasks registered at workload build time.
    writers_total: usize,
    /// Producers not yet completed (close protocol: the channel is
    /// exhausted when this reaches zero).
    open_writers: usize,
    /// Consumers currently executing (they absorb sends immediately;
    /// elements queue only while no consumer is admitted).
    consumers_running: usize,
    /// Elements sent but not yet received.
    occupancy: u64,
    /// Highest occupancy ever observed.
    high_water: u64,
    /// Elements sent over the run.
    elements: u64,
    /// Approximate payload bytes sent over the run.
    bytes: u64,
    /// Virtual µs the backlog sat above the nominal capacity.
    blocked_send_us: u64,
    /// Virtual µs a running consumer waited for the next element.
    blocked_recv_us: u64,
    /// When the backlog went above capacity (recorded, not enforced).
    over_capacity_since: Option<VirtualTime>,
    /// When a running consumer started waiting on an empty channel.
    waiting_since: Option<VirtualTime>,
}

/// Ends the window opened at `since`, if one is open, adding its
/// length to `total_us`.
fn close_window(since: &mut Option<VirtualTime>, total_us: &mut u64, now: VirtualTime) {
    if let Some(start) = since.take() {
        *total_us += micros_from_seconds(now.since(start));
    }
}

/// The stream state of one run. Empty for workloads without stream
/// edges, which then pay nothing on any path.
#[derive(Default)]
pub(super) struct Streams {
    /// Channels by datum (ordered for deterministic end-of-run
    /// aggregation).
    channels: BTreeMap<DataId, SimChannel>,
    /// Node hosting the producer of each stream datum, recorded at
    /// producer start — the locality index stream edges contribute to
    /// (affinity for co-location, not data-resident bytes).
    pub(super) sites: HashMap<DataId, NodeId>,
}

impl Streams {
    pub(super) fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Registers the channels `spec` touches.
    pub(super) fn open(&mut self, spec: &TaskSpec) {
        for d in spec.stream_writes() {
            let ch = self.channels.entry(d).or_default();
            ch.writers_total += 1;
            ch.open_writers += 1;
        }
        for d in spec.stream_reads() {
            self.channels.entry(d).or_default();
        }
    }

    #[expect(
        clippy::expect_used,
        reason = "INVARIANT: `open` registered a channel for every stream datum of every task before the task could run"
    )]
    fn channel(&mut self, data: DataId) -> &mut SimChannel {
        self.channels
            .get_mut(&data)
            .expect("channel for stream datum")
    }

    /// Rewinds the live state for a from-scratch restart (pending
    /// send/recv events are stale-guarded by epoch and generation);
    /// cumulative counters keep what already flowed.
    pub(super) fn restart(&mut self) {
        for ch in self.channels.values_mut() {
            ch.open_writers = ch.writers_total;
            ch.consumers_running = 0;
            ch.occupancy = 0;
            ch.over_capacity_since = None;
            ch.waiting_since = None;
        }
        self.sites.clear();
    }

    /// Closes every still-open window at the makespan and publishes
    /// the run's stream counters. Those only exist for workloads with
    /// stream edges; their absence means "no streams", mirroring the
    /// local engine.
    pub(super) fn publish_run_end(&mut self, telemetry: &RecorderHandle, makespan: VirtualTime) {
        if self.channels.is_empty() {
            return;
        }
        for ch in self.channels.values_mut() {
            close_window(
                &mut ch.over_capacity_since,
                &mut ch.blocked_send_us,
                makespan,
            );
            close_window(&mut ch.waiting_since, &mut ch.blocked_recv_us, makespan);
        }
        let channels = || self.channels.values();
        telemetry.run_end_stream_counters(
            micros_from_seconds(makespan.as_seconds()),
            channels().map(|c| c.high_water).max().unwrap_or(0),
            channels().map(|c| c.blocked_send_us).sum(),
            channels().map(|c| c.blocked_recv_us).sum(),
            channels().map(|c| c.elements).sum(),
            channels().map(|c| c.bytes).sum(),
        );
    }
}

impl Engine<'_, '_> {
    /// Opens the task's stream endpoints as it starts executing:
    /// producers get their element sends scheduled as discrete events
    /// spaced evenly across the execution window (the last element
    /// strictly before completion, so first-element release precedes
    /// the completion event even for a single element), consumers
    /// immediately absorb any backlog queued before their admission.
    /// Replayed attempts regenerate versioned data only and never
    /// reach here — their stream consumers ran long ago.
    pub(super) fn start_stream_endpoints(
        &mut self,
        task: TaskId,
        node: NodeId,
        exec_start: VirtualTime,
        exec_s: f64,
        epoch: u64,
    ) {
        let record = self.workload.task_node(task);
        let spec = record.spec();
        let elems = self.workload.profile(task).stream_elements_count();
        for data in spec.stream_writes() {
            self.streams.sites.insert(data, node);
            for k in 0..elems {
                let at = exec_start.after(exec_s * (k as f64 + 1.0) / (elems as f64 + 1.0));
                self.queue.push(at, Event::StreamSend { task, data, epoch });
            }
        }
        let generation = self.restarts;
        for data in spec.stream_reads() {
            let ch = self.streams.channel(data);
            ch.consumers_running += 1;
            for _ in 0..ch.occupancy {
                self.queue
                    .push(exec_start, Event::StreamRecv { data, generation });
            }
            if ch.occupancy == 0 && ch.open_writers > 0 && ch.waiting_since.is_none() {
                ch.waiting_since = Some(exec_start);
            }
        }
    }

    /// Closes the task's stream endpoints at completion: a producer
    /// deregisters as an open writer (last close ends any consumer
    /// wait), a consumer drains whatever is still queued and stops
    /// absorbing future sends.
    pub(super) fn finish_stream_endpoints(&mut self, task: TaskId, now: VirtualTime) {
        let Ok(record) = self.workload.graph().node(task) else {
            return;
        };
        let spec = record.spec();
        for data in spec.stream_writes() {
            let ch = self.streams.channel(data);
            ch.open_writers = ch.open_writers.saturating_sub(1);
            if ch.open_writers == 0 {
                close_window(&mut ch.waiting_since, &mut ch.blocked_recv_us, now);
            }
        }
        for data in spec.stream_reads() {
            let ch = self.streams.channel(data);
            ch.consumers_running = ch.consumers_running.saturating_sub(1);
            close_window(&mut ch.waiting_since, &mut ch.blocked_recv_us, now);
            if ch.consumers_running == 0 && ch.occupancy > 0 {
                // The departing consumer takes the remaining backlog
                // with it (bounded-window services drain at close).
                ch.occupancy = 0;
                close_window(&mut ch.over_capacity_since, &mut ch.blocked_send_us, now);
            }
        }
    }

    /// One element leaves `task` on stream `data`. The producer's
    /// *first* element releases every consumer gated on it (the
    /// defining semantics of a stream edge) and triggers a scheduling
    /// round so released consumers can be placed at this very instant.
    pub(super) fn on_stream_send(
        &mut self,
        task: TaskId,
        data: DataId,
        epoch: u64,
        now: VirtualTime,
    ) -> Result<(), RuntimeError> {
        let live = self
            .slots
            .get(task.index())
            .is_some_and(|slot| slot.flight_epoch == epoch);
        if !live {
            return Ok(()); // stale: attempt lost to a fault or restart
        }
        let elem_bytes = self.workload.profile(task).stream_element_size();
        let generation = self.restarts;
        let ch = self.streams.channel(data);
        ch.elements += 1;
        ch.bytes += elem_bytes;
        ch.occupancy += 1;
        ch.high_water = ch.high_water.max(ch.occupancy);
        close_window(&mut ch.waiting_since, &mut ch.blocked_recv_us, now);
        if ch.consumers_running > 0 {
            // A running consumer absorbs the element; the receive is
            // its own discrete event so traces order send before recv.
            self.queue.push(now, Event::StreamRecv { data, generation });
        } else if ch.occupancy > SIM_STREAM_CAPACITY && ch.over_capacity_since.is_none() {
            ch.over_capacity_since = Some(now);
        }
        // Occupancy sampled on the sim clock (monotone high-water, so
        // identical runs stay byte-identical under re-sorting).
        self.options.telemetry.counter(
            CounterKey::StreamOccupancyHighWater,
            micros_from_seconds(now.as_seconds()),
            ch.high_water as f64,
        );
        if !self.run.stream_released(task) {
            let released = self.run.stream_release(self.workload.graph(), task)?;
            if released > 0 {
                self.inval_add_epoch += 1;
                self.schedule_round(now)?;
            }
        }
        Ok(())
    }

    /// One element is absorbed by a consumer of stream `data`.
    pub(super) fn on_stream_recv(&mut self, data: DataId, generation: usize, now: VirtualTime) {
        if generation != self.restarts {
            return; // scheduled before a from-scratch restart
        }
        let ch = self.streams.channel(data);
        if ch.occupancy == 0 {
            return;
        }
        ch.occupancy -= 1;
        if ch.occupancy <= SIM_STREAM_CAPACITY {
            close_window(&mut ch.over_capacity_since, &mut ch.blocked_send_us, now);
        }
        if ch.occupancy == 0 && ch.consumers_running > 0 && ch.open_writers > 0 {
            // Drained: the consumer now waits for the next element.
            ch.waiting_since = Some(now);
        }
    }
}
