//! Benchmark-side probes of the simulated engine's layers: timing
//! wrappers around the public `Scheduler` and `GraphSource` traits, and
//! replays of generated inputs through one layer's public API alone
//! (access processor, graph release, event queue, data registry).

use crate::alloc;
use crate::gen::Rng;
use crate::metrics::Metrics;
use continuum::dag::{
    AccessProcessor, DagError, DataId, DataVersion, ExpandSink, GraphRun, GraphSource, TaskId,
    TaskSpec, VersionedData,
};
use continuum::platform::NodeId;
use continuum::runtime::{DataRegistry, PlacementView, Scheduler, TaskProfile};
use continuum::sim::EventQueue;
use std::time::Instant;

/// What a [`TimedScheduler`] saw over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlaceStats {
    pub seconds: f64,
    pub rounds: u64,
    pub offered: u64,
    pub placed: u64,
}

impl PlaceStats {
    pub fn report(&self, m: &mut Metrics) {
        m.set("scheduler.place_s", self.seconds);
        m.set("scheduler.rounds", self.rounds as f64);
        m.set(
            "scheduler.ready_per_round_mean",
            self.offered as f64 / self.rounds.max(1) as f64,
        );
        m.set(
            "scheduler.placed_over_offered",
            self.placed as f64 / self.offered.max(1) as f64,
        );
    }
}

/// Times every `place` call of the wrapped policy.
pub struct TimedScheduler<S> {
    inner: S,
    stats: PlaceStats,
}

impl<S: Scheduler> TimedScheduler<S> {
    pub fn new(inner: S) -> Self {
        TimedScheduler {
            inner,
            stats: PlaceStats::default(),
        }
    }

    pub fn stats(&self) -> PlaceStats {
        self.stats
    }
}

impl<S: Scheduler> Scheduler for TimedScheduler<S> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn place(&mut self, view: &PlacementView<'_>, ready: &[TaskId]) -> Vec<(TaskId, NodeId)> {
        let t = Instant::now();
        let placed = self.inner.place(view, ready);
        self.stats.seconds += t.elapsed().as_secs_f64();
        self.stats.rounds += 1;
        self.stats.offered += ready.len() as u64;
        self.stats.placed += placed.len() as u64;
        placed
    }
}

/// Times every expansion call of the wrapped source. The time includes
/// the engine's sink (data registration and task submission).
pub struct TimedSource<G> {
    inner: G,
    seconds: f64,
}

impl<G> TimedSource<G> {
    pub fn new(inner: G) -> Self {
        TimedSource {
            inner,
            seconds: 0.0,
        }
    }

    pub fn seconds(&self) -> f64 {
        self.seconds
    }
}

impl<G: GraphSource<TaskProfile>> GraphSource<TaskProfile> for TimedSource<G> {
    fn prime(&mut self, sink: &mut dyn ExpandSink<TaskProfile>) -> Result<(), DagError> {
        let t = Instant::now();
        let r = self.inner.prime(sink);
        self.seconds += t.elapsed().as_secs_f64();
        r
    }

    fn on_task_complete(
        &mut self,
        task: TaskId,
        sink: &mut dyn ExpandSink<TaskProfile>,
    ) -> Result<(), DagError> {
        let t = Instant::now();
        let r = self.inner.on_task_complete(task, sink);
        self.seconds += t.elapsed().as_secs_f64();
        r
    }

    fn total_tasks(&self) -> Option<u64> {
        self.inner.total_tasks()
    }
}

/// One step of building a graph through the access processor.
pub enum GraphOp {
    Data(String),
    Submit(TaskSpec),
}

/// An [`ExpandSink`] that only records what a source emits, handing out
/// the ids a fresh access processor would.
#[derive(Default)]
pub struct CapturingSink {
    pub ops: Vec<GraphOp>,
    data: u64,
    tasks: u64,
}

impl CapturingSink {
    /// Expands `source` to exhaustion, completing tasks in id order.
    pub fn drain(&mut self, source: &mut dyn GraphSource<TaskProfile>) {
        source
            .prime(self)
            .expect("capturing sink accepts every task");
        let mut next = 0;
        while next < self.tasks {
            source
                .on_task_complete(TaskId::from_raw(next), self)
                .expect("capturing sink accepts every task");
            next += 1;
        }
    }
}

impl ExpandSink<TaskProfile> for CapturingSink {
    fn data(&mut self, name: &str) -> DataId {
        self.ops.push(GraphOp::Data(name.to_string()));
        self.data += 1;
        DataId::from_raw(self.data - 1)
    }

    fn initial_data(&mut self, name: &str, _bytes: u64) -> DataId {
        self.data(name)
    }

    fn submit(&mut self, spec: TaskSpec, _payload: TaskProfile) -> Result<TaskId, DagError> {
        self.ops.push(GraphOp::Submit(spec));
        self.tasks += 1;
        Ok(TaskId::from_raw(self.tasks - 1))
    }

    fn close_data(&mut self, _data: DataId) {}
}

/// Feeds `ops` to a bare [`AccessProcessor`], then releases the graph
/// through a [`GraphRun`] in topological order.
pub fn dag_replay(ops: Vec<GraphOp>, m: &mut Metrics) {
    let tasks = ops
        .iter()
        .filter(|op| matches!(op, GraphOp::Submit(_)))
        .count()
        .max(1) as f64;
    let mut ap = AccessProcessor::new();
    let allocs = alloc::allocations();
    let t = Instant::now();
    for op in ops {
        match op {
            GraphOp::Data(name) => {
                ap.new_data(name);
            }
            GraphOp::Submit(spec) => {
                ap.register(spec).expect("replayed spec registers");
            }
        }
    }
    m.set(
        "dag.register_ns_per_task",
        t.elapsed().as_secs_f64() * 1e9 / tasks,
    );
    m.set(
        "dag.register_allocs_per_task",
        (alloc::allocations() - allocs) as f64 / tasks,
    );

    let graph = ap.graph();
    let order = graph.topological_order();
    let mut run = GraphRun::new(graph);
    let t = Instant::now();
    for id in order {
        run.mark_running(id)
            .expect("topological order is ready order");
        run.complete(graph, id).expect("running task completes");
    }
    m.set(
        "dag.release_ns_per_task",
        t.elapsed().as_secs_f64() * 1e9 / tasks,
    );
    assert!(run.all_completed(), "replay releases every task");
}

/// Hold-model replay on the engine's event queue at `population`
/// pending events: `ops` alternating pops and pushes. Returns ns per
/// queue operation.
pub fn queue_replay(population: usize, ops: usize, seed: u64) -> f64 {
    let mut rng = Rng::new(seed);
    let mut queue = EventQueue::<u64>::new();
    for i in 0..population.max(1) {
        queue.push_after(rng.next_f64() * 100.0, i as u64);
    }
    let t = Instant::now();
    for _ in 0..ops / 2 {
        let (_, event) = queue.pop().expect("population stays constant");
        queue.push_after(rng.next_f64() * 100.0, event);
    }
    let ns = t.elapsed().as_secs_f64() * 1e9 / ops as f64;
    std::hint::black_box(queue.len());
    ns
}

/// Replays the registry traffic of `values` task outputs on `nodes`
/// nodes: record the production, look its locations up three times
/// (one per stencil consumer), retire it `window` values later. Returns
/// ns per registry operation.
pub fn registry_replay(values: usize, nodes: u32, window: usize, seed: u64) -> f64 {
    let mut rng = Rng::new(seed);
    let mut registry = DataRegistry::new();
    let vd = |i: usize| VersionedData::new(DataId::from_raw(i as u64), DataVersion::from_raw(1));
    let mut ops = 0u64;
    let mut found = 0usize;
    let t = Instant::now();
    for i in 0..values {
        let node = NodeId::from_raw((rng.next_u64() % u64::from(nodes)) as u32);
        registry.record_production(vd(i), node, 1_000_000);
        for _ in 0..3 {
            found += registry.locations_slice(vd(i)).len();
        }
        ops += 4;
        if i >= window {
            registry.retire(vd(i - window));
            ops += 1;
        }
    }
    let ns = t.elapsed().as_secs_f64() * 1e9 / ops.max(1) as f64;
    std::hint::black_box((found, registry.len()));
    ns
}
