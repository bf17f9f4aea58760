//! `fog_storage` — sense → filter → aggregate over a field of sensors
//! on two fog agents sharing a replicated key-value store behind a
//! write-ahead log. Phase A drives the application through the blocking
//! orchestrator; phase B runs the same tasks as async bodies that sleep
//! on the timer wheel, then await async storage reads/writes and async
//! agent RPCs. Reads beside writes on storage, both agent reply paths,
//! and the only timer-wheel user.

use super::local_probe::{finish_signal, os_threads, Finish, MeanNs};
use super::workers;
use crate::gen::Rng;
use crate::harness::{Timed, Verdict, Workload};
use crate::metrics::Metrics;
use crate::span::Spans;
use crate::stats::quantile_of;
use bytes::Bytes;
use continuum::agents::{
    AgentId, AgentNetwork, AppReport, AppTask, Application, ExecReply, OpRegistry, Orchestrator,
    RoundRobinOffload,
};
use continuum::dag::TaskSpec;
use continuum::platform::{Constraints, DeviceClass, NodeId};
use continuum::runtime::{DataHandle, LocalConfig, LocalRuntime, TraceBuffer};
use continuum::storage::{
    AsyncStorage, KvConfig, KvStore, ObjectKey, StorageError, StorageRuntime, StoredValue,
    WriteAheadLog,
};
use continuum::telemetry::{Event, TaskPhase};
use std::cell::OnceCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const PAYLOAD_BYTES: usize = 64 * 1024;
const STORAGE_NODES: u32 = 4;
const FOG_AGENTS: usize = 2;
/// How long each phase-B sensor task sleeps before reading.
const SENSOR_DELAY: Duration = Duration::from_millis(2);

/// The shared store as the agents see it: every put is logged before
/// it reaches the replicated key-value store. On the traced run it
/// also times each operation at this boundary.
struct LoggedStore {
    kv: KvStore,
    wal: WriteAheadLog,
    timing: Option<StoreTiming>,
}

#[derive(Default)]
struct StoreTiming {
    put: MeanNs,
    get: MeanNs,
    wal_append: MeanNs,
}

impl StorageRuntime for LoggedStore {
    fn put(
        &self,
        key: ObjectKey,
        value: StoredValue,
        hint: Option<NodeId>,
    ) -> Result<Vec<NodeId>, StorageError> {
        let Some(t) = &self.timing else {
            self.wal.append(key.clone(), value.clone());
            return self.kv.put(key, value, hint);
        };
        let start = Instant::now();
        self.wal.append(key.clone(), value.clone());
        t.wal_append.since(start);
        let start = Instant::now();
        let out = self.kv.put(key, value, hint);
        t.put.since(start);
        out
    }

    fn get(&self, key: &ObjectKey) -> Result<StoredValue, StorageError> {
        let Some(t) = &self.timing else {
            return self.kv.get(key);
        };
        let start = Instant::now();
        let out = self.kv.get(key);
        t.get.since(start);
        out
    }

    fn locations(&self, key: &ObjectKey) -> Result<Vec<NodeId>, StorageError> {
        self.kv.locations(key)
    }

    fn delete(&self, key: &ObjectKey) {
        self.kv.delete(key);
    }

    fn contains(&self, key: &ObjectKey) -> bool {
        self.kv.contains(key)
    }
}

/// `sense` copies a reading through a byte-wise transform, `filter`
/// reduces it to `(count, sum)` of the bytes above the threshold,
/// `aggregate` adds those pairs up.
fn ops() -> OpRegistry {
    let ops = OpRegistry::new();
    ops.register("sense", |ins| {
        Bytes::from(ins[0].iter().map(|b| b ^ 0x5A).collect::<Vec<u8>>())
    });
    ops.register("filter", |ins| {
        let (count, sum) = ins[0]
            .iter()
            .filter(|b| **b > 127)
            .fold((0u64, 0u64), |(n, s), b| (n + 1, s + u64::from(*b)));
        pair(count, sum)
    });
    ops.register("aggregate", |ins| {
        let (count, sum) = ins.iter().fold((0u64, 0u64), |(n, s), b| {
            let (c, t) = unpair(b);
            (n + c, s + t)
        });
        pair(count, sum)
    });
    ops
}

fn pair(count: u64, sum: u64) -> Bytes {
    let mut out = Vec::with_capacity(16);
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&sum.to_le_bytes());
    Bytes::from(out)
}

fn unpair(b: &[u8]) -> (u64, u64) {
    let word = |i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("16-byte pair"));
    (word(0), word(8))
}

/// The seeded reading of sensor `s`.
fn reading(seed: u64, s: usize) -> Vec<u8> {
    let mut rng = Rng::new(seed ^ (s as u64).wrapping_mul(0xA5A5_A5A5));
    let mut out = Vec::with_capacity(PAYLOAD_BYTES);
    while out.len() < PAYLOAD_BYTES {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out
}

fn key(prefix: &str, s: usize) -> ObjectKey {
    ObjectKey::new(format!("{prefix}{s}"))
}

/// What the async bodies measure on the traced run.
#[derive(Default)]
struct AsyncProbe {
    wake_lag_us: Mutex<Vec<f64>>,
    rtt_us: Mutex<Vec<f64>>,
    get: MeanNs,
    put: MeanNs,
}

/// State shared by the phase-B bodies.
struct Fog {
    net: AgentNetwork,
    storage: AsyncStorage,
    agents: Vec<AgentId>,
    /// Operations that failed, were lost or went unanswered.
    failed_ops: AtomicU64,
    probe: Option<AsyncProbe>,
}

impl Fog {
    /// One agent RPC; anything but `Done` counts as a failed op.
    async fn execute(&self, on: AgentId, task: AppTask) {
        let t = Instant::now();
        let reply = match self.net.execute_async(on, &task) {
            Ok(pending) => pending.await,
            Err(_) => None,
        };
        if let Some(p) = &self.probe {
            p.rtt_us
                .lock()
                .expect("probe lock")
                .push(t.elapsed().as_secs_f64() * 1e6);
        }
        if reply != Some(ExecReply::Done) {
            self.failed_ops.fetch_add(1, Ordering::Relaxed);
        }
    }

    async fn get(&self, key: ObjectKey) -> Option<StoredValue> {
        let t = Instant::now();
        let value = self.storage.get(key).await.and_then(Result::ok);
        if let Some(p) = &self.probe {
            p.get.since(t);
        }
        if value.is_none() {
            self.failed_ops.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    async fn put(&self, key: ObjectKey, value: StoredValue) {
        let t = Instant::now();
        let ok = matches!(self.storage.put(key, value, None).await, Some(Ok(_)));
        if let Some(p) = &self.probe {
            p.put.since(t);
        }
        if !ok {
            self.failed_ops.fetch_add(1, Ordering::Relaxed);
        }
    }
}

pub struct FogStorage {
    sensors: usize,
    /// The expected aggregate, computed on the first check.
    reference: OnceCell<Vec<u8>>,
}

impl FogStorage {
    pub fn new(smoke: bool) -> Self {
        FogStorage {
            sensors: if smoke { 100 } else { 2_000 },
            reference: OnceCell::new(),
        }
    }

    /// Agent task executions per run: both phases run every task.
    fn executions(&self) -> u64 {
        2 * (2 * self.sensors as u64 + 1)
    }

    fn application(&self) -> Application {
        let mut app = Application::new("sense-filter-aggregate");
        let mut cleaned = Vec::with_capacity(self.sensors);
        for s in 0..self.sensors {
            app = app
                .task(
                    AppTask::new("sense", vec![key("in", s)], key("raw", s))
                        .prefer_class(DeviceClass::Fog),
                )
                .task(
                    AppTask::new("filter", vec![key("raw", s)], key("clean", s))
                        .input_bytes_hint(PAYLOAD_BYTES as u64),
                );
            cleaned.push(key("clean", s));
        }
        app.task(AppTask::new("aggregate", cleaned, "result").input_bytes_hint(16))
    }

    /// The aggregate a serial pass over the generated readings gives.
    fn expected(&self, seed: u64) -> Vec<u8> {
        let ops = ops();
        let (sense, filter, aggregate) = (
            ops.get("sense").expect("registered"),
            ops.get("filter").expect("registered"),
            ops.get("aggregate").expect("registered"),
        );
        let cleaned: Vec<Bytes> = (0..self.sensors)
            .map(|s| filter(&[sense(&[Bytes::from(reading(seed, s))])]))
            .collect();
        aggregate(&cleaned).to_vec()
    }
}

pub struct Input {
    store: Arc<LoggedStore>,
    fog: Arc<Fog>,
    rt: LocalRuntime,
    /// Orchestrator telemetry (traced run only).
    buffer: Option<Arc<TraceBuffer>>,
    app: Application,
}

pub struct Output {
    input: Input,
    report: AppReport,
    result_a: Option<Vec<u8>>,
    result_b: Bytes,
    parked_peak: usize,
    os_threads: usize,
}

/// Phase B: the same tasks as async bodies on the local runtime.
fn submit_async_phase(
    rt: &LocalRuntime,
    fog: &Arc<Fog>,
    sensors: usize,
) -> (DataHandle<Bytes>, Finish) {
    let (finished, finish) = finish_signal();
    let mut done = Vec::with_capacity(sensors);
    for s in 0..sensors {
        let marker = rt.data::<()>(format!("b_done{s}"));
        let fog = Arc::clone(fog);
        rt.submit_async(
            TaskSpec::new("sensor").output(marker.id()),
            Constraints::new(),
            move |mut ctx| async move {
                let t = Instant::now();
                ctx.sleep(SENSOR_DELAY).await;
                if let Some(p) = &fog.probe {
                    let lag = t.elapsed().saturating_sub(SENSOR_DELAY);
                    p.wake_lag_us
                        .lock()
                        .expect("probe lock")
                        .push(lag.as_secs_f64() * 1e6);
                }
                if let Some(value) = fog.get(key("in", s)).await {
                    fog.put(key("b_in", s), value).await;
                }
                let agent = fog.agents[s % fog.agents.len()];
                let sense = AppTask::new("sense", vec![key("b_in", s)], key("b_raw", s));
                fog.execute(agent, sense).await;
                let filter = AppTask::new("filter", vec![key("b_raw", s)], key("b_clean", s));
                fog.execute(agent, filter).await;
                ctx.set_output(0, ());
                ctx
            },
        )
        .expect("sensor task admitted");
        done.push(marker.id());
    }
    let result = rt.data::<Bytes>("b_result");
    let fog = Arc::clone(fog);
    rt.submit_async(
        TaskSpec::new("aggregate").inputs(done).output(result.id()),
        Constraints::new(),
        move |mut ctx| async move {
            let cleaned = (0..sensors).map(|s| key("b_clean", s)).collect();
            fog.execute(
                fog.agents[0],
                AppTask::new("aggregate", cleaned, "b_result"),
            )
            .await;
            let payload = fog
                .get(ObjectKey::new("b_result"))
                .await
                .map_or_else(Bytes::new, |v| v.payload);
            ctx.set_output(0, payload);
            finished.signal();
            ctx
        },
    )
    .expect("aggregate task admitted");
    (result, finish)
}

impl Workload for FogStorage {
    type Input = Input;
    type Output = Output;

    const NAME: &'static str = "fog_storage";

    fn setup(&self, seed: u64, traced: bool) -> Input {
        let kv = KvStore::new(
            (0..STORAGE_NODES).map(NodeId::from_raw).collect(),
            KvConfig { replication: 2 },
        )
        .expect("valid store");
        let store = Arc::new(LoggedStore {
            kv,
            wal: WriteAheadLog::new(),
            timing: traced.then(StoreTiming::default),
        });
        for s in 0..self.sensors {
            store
                .kv
                .put(key("in", s), StoredValue::blob(reading(seed, s)), None)
                .expect("pre-load");
        }
        let shared: Arc<dyn StorageRuntime> = store.clone();
        let net = AgentNetwork::new(Arc::clone(&shared), ops());
        let agents = (0..FOG_AGENTS)
            .map(|i| net.deploy(format!("fog-{i}"), DeviceClass::Fog))
            .collect();
        let fog = Arc::new(Fog {
            net,
            storage: AsyncStorage::new(shared),
            agents,
            failed_ops: AtomicU64::new(0),
            probe: traced.then(AsyncProbe::default),
        });
        Input {
            store,
            fog,
            rt: LocalRuntime::new(LocalConfig::with_workers(workers())),
            buffer: traced.then(|| Arc::new(TraceBuffer::new())),
            app: self.application(),
        }
    }

    fn run(&self, input: Input, spans: &mut Spans) -> Output {
        let report = spans.span("orchestrate", |_| {
            let mut orchestrator = Orchestrator::new(&input.fog.net);
            if let Some(buffer) = &input.buffer {
                let recorder = Arc::clone(buffer);
                orchestrator =
                    orchestrator.telemetry(continuum::telemetry::RecorderHandle::new(recorder));
            }
            orchestrator
                .run(&input.app, &mut RoundRobinOffload::new())
                .expect("application completes")
        });
        let result_a = spans.span("read_result", |_| {
            input
                .store
                .get(&ObjectKey::new("result"))
                .ok()
                .map(|v| v.payload.to_vec())
        });
        let (result, finish) = spans.span("submit", |_| {
            submit_async_phase(&input.rt, &input.fog, self.sensors)
        });
        let parked_peak = input.rt.parked_count();
        let os_threads = os_threads();
        spans.span("await", |_| finish.wait());
        let result_b = spans.span("drain", |_| {
            input.rt.wait_all().expect("async phase completes");
            Bytes::clone(&input.rt.get(&result).expect("async aggregate finished"))
        });
        Output {
            input,
            report,
            result_a,
            result_b,
            parked_peak,
            os_threads,
        }
    }

    fn check(&self, seed: u64, out: &Output) -> Verdict {
        let mut v = Verdict::new(self.executions());
        let expected = self.reference.get_or_init(|| self.expected(seed));
        let per_phase = self.executions() / 2;
        v.expect(
            out.result_a.as_deref() == Some(&expected[..]),
            per_phase,
            || "phase A aggregate differs from the serial pass".to_string(),
        );
        v.expect(out.result_b[..] == expected[..], per_phase, || {
            "phase B aggregate differs from the serial pass".to_string()
        });
        let completed = out.report.completed as u64;
        v.expect(
            completed == per_phase,
            per_phase.abs_diff(completed),
            || format!("orchestrator completed {completed} of {per_phase} tasks"),
        );
        v.expect(
            out.report.reexecutions == 0,
            out.report.reexecutions as u64,
            || format!("{} re-executions with no churn", out.report.reexecutions),
        );
        let failed = out.input.fog.failed_ops.load(Ordering::Relaxed);
        v.expect(failed == 0, failed, || {
            format!("{failed} failed async operations")
        });
        // Every put went through the log: 2n+1 per phase, plus phase
        // B's n re-puts of the readings.
        let logged = out.input.store.wal.len() as u64;
        let expected_log = self.executions() + self.sensors as u64;
        v.expect(logged == expected_log, 1, || {
            format!("write-ahead log holds {logged} records, expected {expected_log}")
        });
        v
    }

    fn layers(&self, _seed: u64, out: Output, _spans: &Spans, timed: &Timed, m: &mut Metrics) {
        let store = &out.input.store;
        let timing = store.timing.as_ref().expect("traced run times the store");
        m.set("storage.put_ns", timing.put.mean());
        m.set("storage.get_ns", timing.get.mean());
        m.set("storage.wal_append_ns", timing.wal_append.mean());
        let stats = store.kv.stats();
        m.set("storage.bytes_put", stats.bytes_written as f64);
        m.set("storage.bytes_get", stats.bytes_read as f64);
        let fog = &out.input.fog;
        m.set(
            "storage.failed_ops",
            fog.failed_ops.load(Ordering::Relaxed) as f64,
        );
        let probe = fog.probe.as_ref().expect("traced run probes the bodies");
        m.set("storage.async_get_ns", probe.get.mean());
        m.set("storage.async_put_ns", probe.put.mean());
        let mut rtt = probe.rtt_us.lock().expect("probe lock").clone();
        m.set(
            "agents.execute_async_rtt_p50_us",
            quantile_of(&mut rtt, 0.5),
        );
        let mut lag = probe.wake_lag_us.lock().expect("probe lock").clone();
        m.set("reactor.timers", lag.len() as f64);
        m.set("reactor.wake_lag_p50_us", quantile_of(&mut lag, 0.50));
        m.set("reactor.wake_lag_p99_us", quantile_of(&mut lag, 0.99));
        let buffer = out.input.buffer.as_ref().expect("traced run records");
        let mut blocking_rtt: Vec<f64> = buffer
            .events()
            .iter()
            .filter_map(|e| match e {
                Event::Span {
                    phase: TaskPhase::Offloading,
                    dur_us,
                    ..
                } => Some(*dur_us as f64),
                _ => None,
            })
            .collect();
        m.set(
            "agents.execute_rtt_p50_us",
            quantile_of(&mut blocking_rtt, 0.5),
        );
        m.set("agents.reexecutions", out.report.reexecutions as f64);
        m.set("local.parked_peak", out.parked_peak as f64);
        m.set("local.os_threads_peak", out.os_threads as f64);
        m.set(
            "local.inflight_high_water",
            out.input.rt.inflight_high_water() as f64,
        );
        m.set(
            "local.tasks_per_s",
            (self.sensors + 1) as f64 / timed.wall_s,
        );
    }
}
