//! `gwas_local` — the GWAS shape as a storm of tiny closure tasks on
//! the threaded engine: per-task runtime overhead dominates and the run
//! is submit-bound, so admission, the graph mutex, dispatch and the
//! value store do the work and the bodies none.

use super::local_probe::{finish_signal, os_threads, BodyClock, Finished};
use super::sim_probe::{dag_replay, GraphOp};
use super::workers;
use crate::gen::splitmix;
use crate::harness::{Timed, Verdict, Workload};
use crate::metrics::Metrics;
use crate::span::Spans;
use continuum::dag::{DataId, TaskSpec};
use continuum::platform::Constraints;
use continuum::runtime::{DataHandle, LocalConfig, LocalRuntime};
use std::cell::OnceCell;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

const CHROMOSOMES: usize = 22;
/// Fan-in of the per-chromosome merge trees.
const FAN_IN: usize = 16;
/// The campaign merge depends on every other task.
const LAST_TASK: &str = "merge_campaign";

/// Where the GWAS shape is built: the threaded runtime, a plain serial
/// fold (the reference), or a recorder of task specs (the dag replay).
/// One pair of builders drives all three, so they cannot drift apart.
trait Backend {
    type Handle: Copy;
    /// `n` data named `{prefix}{i}`.
    fn data_batch(&mut self, prefix: &str, n: usize) -> Vec<Self::Handle>;
    fn data(&mut self, name: String) -> Self::Handle;
    /// `out = splitmix(seed)`.
    fn leaf(&mut self, name: &'static str, seed: u64, out: Self::Handle);
    /// `out = splitmix(input)`.
    fn unary(&mut self, name: &'static str, input: Self::Handle, out: Self::Handle);
    /// `out = splitmix(wrapping sum of inputs)`.
    fn merge(&mut self, name: &'static str, inputs: &[Self::Handle], out: Self::Handle);
}

/// Every datum of one chromosome.
struct Chromosome<H> {
    filtered: Vec<H>,
    imputed: Vec<H>,
    assoc: Vec<H>,
    /// Outputs of each merge-tree level, leaves' parents first; the
    /// last level holds the chromosome's single result.
    merges: Vec<Vec<H>>,
}

/// Every datum of the campaign, declared up front (set-up).
pub struct Layout<H> {
    chromosomes: Vec<Chromosome<H>>,
    summary: H,
}

/// Declares the campaign's data on `b`.
fn declare<B: Backend>(b: &mut B, chunks: usize) -> Layout<B::Handle> {
    let chromosomes = (0..CHROMOSOMES)
        .map(|chrom| {
            let filtered = b.data_batch(&format!("c{chrom}_filt"), chunks);
            let imputed = b.data_batch(&format!("c{chrom}_imp"), chunks);
            let assoc = b.data_batch(&format!("c{chrom}_assoc"), chunks);
            let mut merges = Vec::new();
            let mut width = chunks;
            while width > 1 || merges.is_empty() {
                width = width.div_ceil(FAN_IN);
                merges.push(b.data_batch(&format!("c{chrom}_m{}_", merges.len()), width));
            }
            Chromosome {
                filtered,
                imputed,
                assoc,
                merges,
            }
        })
        .collect();
    Layout {
        chromosomes,
        summary: b.data("campaign_summary".to_string()),
    }
}

/// Submits the campaign's tasks over `layout`; returns the task count.
fn submit<B: Backend>(b: &mut B, layout: &Layout<B::Handle>, seed: u64) -> usize {
    let mut tasks = 0;
    let mut results = Vec::with_capacity(CHROMOSOMES);
    for (chrom, c) in layout.chromosomes.iter().enumerate() {
        let chunks = c.filtered.len();
        for chunk in 0..chunks {
            let chunk_seed = seed ^ ((chrom * chunks + chunk) as u64).wrapping_mul(0x9E37);
            b.leaf("filter", chunk_seed, c.filtered[chunk]);
            b.unary("impute", c.filtered[chunk], c.imputed[chunk]);
            b.unary("association", c.imputed[chunk], c.assoc[chunk]);
            tasks += 3;
        }
        let mut level = &c.assoc;
        for outputs in &c.merges {
            for (group, out) in level.chunks(FAN_IN).zip(outputs) {
                b.merge("merge_chromosome", group, *out);
                tasks += 1;
            }
            level = outputs;
        }
        results.push(level[0]);
    }
    b.merge(LAST_TASK, &results, layout.summary);
    tasks + 1
}

struct Serial {
    values: Vec<u64>,
}

impl Backend for Serial {
    type Handle = usize;

    fn data_batch(&mut self, _prefix: &str, n: usize) -> Vec<usize> {
        let start = self.values.len();
        self.values.resize(start + n, 0);
        (start..start + n).collect()
    }

    fn data(&mut self, _name: String) -> usize {
        self.values.push(0);
        self.values.len() - 1
    }

    fn leaf(&mut self, _name: &'static str, seed: u64, out: usize) {
        self.values[out] = splitmix(seed);
    }

    fn unary(&mut self, _name: &'static str, input: usize, out: usize) {
        self.values[out] = splitmix(self.values[input]);
    }

    fn merge(&mut self, _name: &'static str, inputs: &[usize], out: usize) {
        let sum = inputs
            .iter()
            .fold(0u64, |acc, i| acc.wrapping_add(self.values[*i]));
        self.values[out] = splitmix(sum);
    }
}

struct Submitter<'r> {
    rt: &'r LocalRuntime,
    clock: BodyClock,
    /// Fired by the campaign merge, the last task to run.
    finished: Option<Finished>,
}

impl Backend for Submitter<'_> {
    type Handle = DataHandle<u64>;

    fn data_batch(&mut self, prefix: &str, n: usize) -> Vec<DataHandle<u64>> {
        self.rt.data_batch(prefix, n)
    }

    fn data(&mut self, name: String) -> DataHandle<u64> {
        self.rt.data(name)
    }

    fn leaf(&mut self, name: &'static str, seed: u64, out: DataHandle<u64>) {
        let clock = self.clock.clone();
        self.rt
            .submit(
                TaskSpec::new(name).output(out.id()),
                Constraints::new(),
                move |ctx| clock.time(|| ctx.set_output(0, splitmix(seed))),
            )
            .expect("leaf task admitted");
    }

    fn unary(&mut self, name: &'static str, input: DataHandle<u64>, out: DataHandle<u64>) {
        let clock = self.clock.clone();
        self.rt
            .submit(
                TaskSpec::new(name).input(input.id()).output(out.id()),
                Constraints::new(),
                move |ctx| {
                    clock.time(|| {
                        let x = *ctx.input::<u64>(0);
                        ctx.set_output(0, splitmix(x));
                    });
                },
            )
            .expect("chunk task admitted");
    }

    fn merge(&mut self, name: &'static str, inputs: &[DataHandle<u64>], out: DataHandle<u64>) {
        let clock = self.clock.clone();
        let n = inputs.len();
        let finished = if name == LAST_TASK {
            self.finished.take()
        } else {
            None
        };
        self.rt
            .submit(
                TaskSpec::new(name)
                    .inputs(inputs.iter().map(DataHandle::id))
                    .output(out.id()),
                Constraints::new(),
                move |ctx| {
                    clock.time(|| {
                        let sum =
                            (0..n).fold(0u64, |acc, i| acc.wrapping_add(*ctx.input::<u64>(i)));
                        ctx.set_output(0, splitmix(sum));
                    });
                    if let Some(finished) = &finished {
                        finished.signal();
                    }
                },
            )
            .expect("merge task admitted");
    }
}

/// Records the specs `Submitter` would submit, with the ids a fresh
/// access processor hands out.
#[derive(Default)]
struct Recorder {
    ops: Vec<GraphOp>,
    data: u64,
}

impl Backend for Recorder {
    type Handle = DataId;

    fn data_batch(&mut self, prefix: &str, n: usize) -> Vec<DataId> {
        (0..n).map(|i| self.data(format!("{prefix}{i}"))).collect()
    }

    fn data(&mut self, name: String) -> DataId {
        self.ops.push(GraphOp::Data(name));
        self.data += 1;
        DataId::from_raw(self.data - 1)
    }

    fn leaf(&mut self, name: &'static str, _seed: u64, out: DataId) {
        self.ops
            .push(GraphOp::Submit(TaskSpec::new(name).output(out)));
    }

    fn unary(&mut self, name: &'static str, input: DataId, out: DataId) {
        self.ops.push(GraphOp::Submit(
            TaskSpec::new(name).input(input).output(out),
        ));
    }

    fn merge(&mut self, name: &'static str, inputs: &[DataId], out: DataId) {
        self.ops.push(GraphOp::Submit(
            TaskSpec::new(name)
                .inputs(inputs.iter().copied())
                .output(out),
        ));
    }
}

pub struct GwasLocal {
    chunks: usize,
    /// Checksum of the serial fold, computed on the first check.
    reference: OnceCell<u64>,
}

impl GwasLocal {
    pub fn new(smoke: bool) -> Self {
        GwasLocal {
            chunks: if smoke { 125 } else { 2_500 },
            reference: OnceCell::new(),
        }
    }

    fn serial(&self, seed: u64) -> (u64, usize) {
        let mut serial = Serial { values: Vec::new() };
        let layout = declare(&mut serial, self.chunks);
        let tasks = submit(&mut serial, &layout, seed);
        (serial.values[layout.summary], tasks)
    }

    fn setup_with(&self, seed: u64, workers: usize) -> Input {
        let rt = LocalRuntime::new(LocalConfig::with_workers(workers));
        let layout = declare(
            &mut Submitter {
                rt: &rt,
                clock: BodyClock::new(false),
                finished: None,
            },
            self.chunks,
        );
        Input {
            rt,
            layout,
            workers,
            seed,
        }
    }

    fn wall_with_workers(&self, seed: u64, workers: usize) -> f64 {
        let input = self.setup_with(seed, workers);
        let t = Instant::now();
        let out = execute(input, &mut Spans::new(false));
        let wall = t.elapsed().as_secs_f64();
        drop(out);
        wall
    }
}

pub struct Input {
    rt: LocalRuntime,
    layout: Layout<DataHandle<u64>>,
    workers: usize,
    seed: u64,
}

pub struct Output {
    rt: LocalRuntime,
    checksum: u64,
    tasks: usize,
    body_s: f64,
    live_values_peak: usize,
    os_threads: usize,
}

/// Holds every worker until the campaign is submitted. With tasks this
/// small a free worker drains each one as it arrives and goes back to
/// sleep, so driver and worker ping-pong through the OS scheduler, and
/// whether it keeps the two on one CPU or two moves the wall time 2×
/// from run to run. Gated, the run is a pure submission phase followed
/// by a pure dispatch phase, and repeats.
struct Gate(Arc<(Mutex<bool>, Condvar)>);

impl Gate {
    fn close(rt: &LocalRuntime, workers: usize) -> Gate {
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        for i in 0..workers {
            let held = Arc::clone(&gate);
            let out = rt.data::<()>(format!("gate{i}"));
            rt.submit(
                TaskSpec::new("gate").output(out.id()),
                Constraints::new(),
                move |ctx| {
                    let (open, cv) = &*held;
                    let mut open = open.lock().expect("gate lock");
                    while !*open {
                        open = cv.wait(open).expect("gate lock");
                    }
                    ctx.set_output(0, ());
                },
            )
            .expect("gate task admitted");
        }
        Gate(gate)
    }

    fn open(self) {
        let (open, cv) = &*self.0;
        *open.lock().expect("gate lock") = true;
        cv.notify_all();
    }
}

fn execute(input: Input, spans: &mut Spans) -> Output {
    let Input {
        rt,
        layout,
        workers,
        seed,
    } = input;
    let clock = BodyClock::new(spans.enabled());
    let gate = Gate::close(&rt, workers);
    let (finished, finish) = finish_signal();
    let tasks = spans.span("submit", |_| {
        let mut submitter = Submitter {
            rt: &rt,
            clock: clock.clone(),
            finished: Some(finished),
        };
        submit(&mut submitter, &layout, seed)
    });
    let mut live_values_peak = rt.live_value_count();
    let os_threads = os_threads();
    spans.span("drain", |_| {
        gate.open();
        finish.wait();
        rt.wait_all().expect("campaign completes");
    });
    live_values_peak = live_values_peak.max(rt.live_value_count());
    let checksum = spans.span("get", |_| {
        *rt.get(&layout.summary).expect("summary produced")
    });
    Output {
        checksum,
        tasks,
        body_s: clock.seconds(),
        live_values_peak,
        os_threads,
        rt,
    }
}

impl Workload for GwasLocal {
    type Input = Input;
    type Output = Output;

    const NAME: &'static str = "gwas_local";

    fn setup(&self, seed: u64, _traced: bool) -> Input {
        self.setup_with(seed, workers())
    }

    fn run(&self, input: Input, spans: &mut Spans) -> Output {
        execute(input, spans)
    }

    fn check(&self, seed: u64, out: &Output) -> Verdict {
        let mut v = Verdict::new(out.tasks as u64);
        let expected = *self.reference.get_or_init(|| self.serial(seed).0);
        v.expect(out.checksum == expected, out.tasks as u64, || {
            format!("checksum {:#x} != serial fold {expected:#x}", out.checksum)
        });
        // The gate tasks are the runtime's only other tasks.
        let done = out.rt.completed_count() - workers();
        v.expect(done == out.tasks, out.tasks.abs_diff(done) as u64, || {
            format!("completed {done} != submitted {}", out.tasks)
        });
        v
    }

    fn layers(&self, seed: u64, out: Output, spans: &Spans, timed: &Timed, m: &mut Metrics) {
        let tasks = out.tasks as f64;
        m.set("local.submit_s", spans.total_s("submit"));
        m.set(
            "local.submit_ns_per_task",
            spans.total_s("submit") * 1e9 / tasks,
        );
        m.set("local.drain_s", spans.total_s("drain"));
        m.set("local.get_ns", spans.total_s("get") * 1e9);
        m.set("local.body_s", out.body_s);
        m.set(
            "local.overhead_ns_per_task",
            (timed.cpu_s - out.body_s) * 1e9 / tasks,
        );
        m.set("local.tasks_per_s", tasks / timed.wall_s);
        m.set("local.live_values_peak", out.live_values_peak as f64);
        m.set(
            "local.inflight_high_water",
            out.rt.inflight_high_water() as f64,
        );
        m.set("local.os_threads_peak", out.os_threads as f64);
        drop(out);

        let t = Instant::now();
        std::hint::black_box(self.serial(seed));
        m.set("local.serial_baseline_s", t.elapsed().as_secs_f64());
        m.set(
            "local.w2_over_w1",
            self.wall_with_workers(seed, 2) / self.wall_with_workers(seed, 1),
        );

        let mut recorder = Recorder::default();
        let layout = declare(&mut recorder, self.chunks);
        submit(&mut recorder, &layout, seed);
        dag_replay(recorder.ops, m);
    }
}
