//! `stream_local` — source → two stages → sink as async task bodies
//! over bounded streams: four long-lived tasks that park and wake
//! instead of a task storm, so a dispatch gain that hurts park/wake or
//! the stream hand-off shows here.

use super::local_probe::{counter_max, finish_signal, os_threads, Finish};
use super::workers;
use crate::gen::{mix, splitmix};
use crate::harness::{Timed, Verdict, Workload};
use crate::metrics::Metrics;
use crate::span::Spans;
use crate::stats::quantile_of;
use continuum::dag::TaskSpec;
use continuum::platform::Constraints;
use continuum::runtime::{DataHandle, LocalConfig, LocalRuntime, TraceBuffer};
use continuum::telemetry::{CounterKey, Event, TaskPhase};
use std::cell::OnceCell;
use std::sync::Arc;
use std::time::Instant;

const CAPACITY: usize = 64;
/// SplitMix64 rounds per element per stage.
const ROUNDS: u32 = 16;
/// On the traced run every this-many-th element carries its creation
/// time, so the sink can report source→sink latency.
const STAMP_EVERY: usize = 64;

/// One stream element: a value and, when sampled, nanoseconds since
/// the run's origin at creation (0 = not sampled).
#[derive(Clone, Copy)]
struct Element {
    value: u64,
    created_ns: u64,
}

/// What the sink hands back.
struct SinkResult {
    checksum: u64,
    received: u64,
    latencies_ns: Vec<u64>,
}

pub struct StreamLocal {
    elements: u64,
    /// Checksum of the serial fold, computed on the first check.
    reference: OnceCell<u64>,
}

impl StreamLocal {
    pub fn new(smoke: bool) -> Self {
        StreamLocal {
            elements: if smoke { 50_000 } else { 1_000_000 },
            reference: OnceCell::new(),
        }
    }

    /// The seeded values the source emits.
    fn values(&self, seed: u64) -> Arc<Vec<u64>> {
        Arc::new((0..self.elements).map(|i| splitmix(seed ^ i)).collect())
    }

    /// The same computation as a plain loop.
    fn serial(&self, seed: u64, rounds: u32) -> u64 {
        self.values(seed).iter().fold(0u64, |acc, v| {
            acc.wrapping_add(mix(mix(*v, rounds), rounds))
        })
    }
}

pub struct Input {
    rt: LocalRuntime,
    buffer: Option<Arc<TraceBuffer>>,
    values: Arc<Vec<u64>>,
}

pub struct Output {
    rt: LocalRuntime,
    buffer: Option<Arc<TraceBuffer>>,
    sink: Arc<SinkResult>,
    os_threads: usize,
}

fn submit_pipeline(
    rt: &LocalRuntime,
    values: Arc<Vec<u64>>,
    rounds: u32,
    stamp: bool,
) -> (DataHandle<SinkResult>, Finish) {
    let (finished, finish) = finish_signal();
    let s0 = rt.stream::<Element>("s0", CAPACITY);
    let s1 = rt.stream::<Element>("s1", CAPACITY);
    let s2 = rt.stream::<Element>("s2", CAPACITY);
    let result = rt.data::<SinkResult>("sink_result");
    let origin = Instant::now();

    rt.submit_async(
        TaskSpec::new("source").stream_out(s0.id()),
        Constraints::new(),
        move |ctx| async move {
            let w = ctx.stream_writer::<Element>(0);
            for (i, value) in values.iter().enumerate() {
                let created_ns = if stamp && i.is_multiple_of(STAMP_EVERY) {
                    origin.elapsed().as_nanos() as u64 | 1
                } else {
                    0
                };
                let e = Element {
                    value: *value,
                    created_ns,
                };
                if !w.send_async(e).await {
                    break;
                }
            }
            ctx
        },
    )
    .expect("source admitted");

    for (name, input, output) in [("stage1", s0, s1), ("stage2", s1, s2)] {
        rt.submit_async(
            TaskSpec::new(name)
                .stream_in(input.id())
                .stream_out(output.id()),
            Constraints::new(),
            move |ctx| async move {
                let r = ctx.stream_reader::<Element>(0);
                let w = ctx.stream_writer::<Element>(0);
                while let Some(e) = r.recv_async().await {
                    let out = Element {
                        value: mix(e.value, rounds),
                        created_ns: e.created_ns,
                    };
                    if !w.send_async(out).await {
                        break;
                    }
                }
                ctx
            },
        )
        .expect("stage admitted");
    }

    rt.submit_async(
        TaskSpec::new("sink").stream_in(s2.id()).output(result.id()),
        Constraints::new(),
        move |mut ctx| async move {
            let r = ctx.stream_reader::<Element>(0);
            let mut out = SinkResult {
                checksum: 0,
                received: 0,
                latencies_ns: Vec::new(),
            };
            while let Some(e) = r.recv_async().await {
                out.checksum = out.checksum.wrapping_add(e.value);
                out.received += 1;
                if e.created_ns != 0 {
                    let now = origin.elapsed().as_nanos() as u64;
                    out.latencies_ns.push(now.saturating_sub(e.created_ns));
                }
            }
            ctx.set_output(0, out);
            finished.signal();
            ctx
        },
    )
    .expect("sink admitted");
    (result, finish)
}

impl Workload for StreamLocal {
    type Input = Input;
    type Output = Output;

    const NAME: &'static str = "stream_local";

    fn setup(&self, seed: u64, traced: bool) -> Input {
        // The traced run needs the engine's run-end stream counters,
        // which only a recording runtime publishes.
        let mut config = LocalConfig::with_workers(workers());
        let mut buffer = None;
        if traced {
            let (events, telemetry) = TraceBuffer::collector();
            config = config.telemetry(telemetry);
            buffer = Some(events);
        }
        Input {
            rt: LocalRuntime::new(config),
            buffer,
            values: self.values(seed),
        }
    }

    fn run(&self, input: Input, spans: &mut Spans) -> Output {
        let Input { rt, buffer, values } = input;
        let stamp = spans.enabled();
        let (result, finish) =
            spans.span("submit", |_| submit_pipeline(&rt, values, ROUNDS, stamp));
        let os_threads = os_threads();
        spans.span("stream", |_| finish.wait());
        let sink = spans.span("drain", |_| {
            rt.wait_all().expect("pipeline completes");
            rt.get(&result).expect("sink finished")
        });
        Output {
            rt,
            buffer,
            sink,
            os_threads,
        }
    }

    fn check(&self, seed: u64, out: &Output) -> Verdict {
        let mut v = Verdict::new(self.elements);
        let expected = *self.reference.get_or_init(|| self.serial(seed, ROUNDS));
        let lost = self.elements.abs_diff(out.sink.received);
        v.expect(lost == 0, lost, || {
            format!(
                "sink received {} of {} elements",
                out.sink.received, self.elements
            )
        });
        v.expect(out.sink.checksum == expected, self.elements, || {
            format!(
                "sink checksum {:#x} != serial fold {expected:#x}",
                out.sink.checksum
            )
        });
        v.expect(out.rt.parked_count() == 0, 1, || {
            "a task is still parked after the run".to_string()
        });
        v
    }

    fn layers(&self, seed: u64, out: Output, _spans: &Spans, timed: &Timed, m: &mut Metrics) {
        let n = self.elements as f64;
        m.set("stream.elements_per_s", n / timed.wall_s);
        let mut lat: Vec<f64> = out
            .sink
            .latencies_ns
            .iter()
            .map(|ns| *ns as f64 / 1e3)
            .collect();
        m.set("stream.latency_samples", lat.len() as f64);
        m.set("stream.latency_p50_us", quantile_of(&mut lat, 0.50));
        m.set("stream.latency_p99_us", quantile_of(&mut lat, 0.99));
        m.set("local.os_threads_peak", out.os_threads as f64);
        m.set(
            "local.inflight_high_water",
            out.rt.inflight_high_water() as f64,
        );
        m.set("local.tasks_per_s", 4.0 / timed.wall_s);

        // The engine publishes its stream counters when the runtime
        // shuts down.
        let buffer = out.buffer.clone().expect("traced run records");
        drop(out);
        let events = buffer.take();
        let counter = |key: CounterKey| counter_max(&events, key);
        // The engine's blocked-time counters cover blocking endpoints;
        // an async endpoint parks instead, and each park is a `Parked`
        // span named after its task. The source only ever waits to
        // send, the sink only to receive.
        let parked_us = |task: &str| {
            events
                .iter()
                .filter_map(|e| match e {
                    Event::Span {
                        name,
                        phase: TaskPhase::Parked,
                        dur_us,
                        ..
                    } if name == task => Some(*dur_us as f64),
                    _ => None,
                })
                .sum::<f64>()
        };
        m.set(
            "stream.blocked_send_us",
            counter(CounterKey::StreamBlockedSendMicros) + parked_us("source"),
        );
        m.set(
            "stream.blocked_recv_us",
            counter(CounterKey::StreamBlockedRecvMicros) + parked_us("sink"),
        );
        // Most tasks parked at once: sweep the park intervals.
        let mut edges: Vec<(u64, i32)> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span {
                    phase: TaskPhase::Parked,
                    start_us,
                    dur_us,
                    ..
                } => Some([(*start_us, 1), (start_us + dur_us, -1)]),
                _ => None,
            })
            .flatten()
            .collect();
        edges.sort_unstable();
        let mut parked = 0;
        let mut parked_peak = 0;
        for (_, step) in edges {
            parked += step;
            parked_peak = parked_peak.max(parked);
        }
        m.set("local.parked_peak", f64::from(parked_peak));
        m.set(
            "stream.occupancy_high_water",
            counter(CounterKey::StreamOccupancyHighWater),
        );
        let moved = counter(CounterKey::StreamElements);
        assert_eq!(moved, 3.0 * n, "three channels each carry every element");
        drop(events);

        // Zero-work replay: what the channels and park/wake cost alone.
        let rt = LocalRuntime::new(LocalConfig::with_workers(workers()));
        let values = self.values(seed);
        let t = Instant::now();
        let (result, finish) = submit_pipeline(&rt, values, 0, false);
        finish.wait();
        rt.wait_all().expect("pipeline completes");
        let sink = rt.get(&result).expect("sink finished");
        m.set(
            "stream.channel_ns_per_element",
            t.elapsed().as_secs_f64() * 1e9 / n,
        );
        assert_eq!(sink.checksum, self.serial(seed, 0), "zero-work checksum");
        drop(rt);

        let t = Instant::now();
        std::hint::black_box(self.serial(seed, ROUNDS));
        m.set("local.serial_baseline_s", t.elapsed().as_secs_f64());
    }
}
