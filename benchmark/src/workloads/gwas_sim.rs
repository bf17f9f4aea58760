//! `gwas_sim` — the paper-scale GWAS campaign on the simulated engine,
//! materialized lazily: event loop, lazy expand/retire and residency do
//! nearly all the work; parsing, telemetry and transfers none.

use super::sim_probe::{
    dag_replay, queue_replay, CapturingSink, PlaceStats, TimedScheduler, TimedSource,
};
use crate::harness::{Timed, Verdict, Workload};
use crate::metrics::Metrics;
use crate::span::Spans;
use continuum::platform::presets;
use continuum::runtime::{LazyRunOutcome, LocalityScheduler, SimOptions, SimRuntime};
use continuum::sim::FaultPlan;
use continuum::workflows::{GwasSource, GwasWorkload};
use std::time::Instant;

const CHROMOSOMES: usize = 22;
const WINDOW: usize = 256;
const NODES: usize = 100;

pub struct GwasSim {
    chunks: usize,
}

impl GwasSim {
    pub fn new(smoke: bool) -> Self {
        GwasSim {
            chunks: if smoke { 75 } else { 1_500 },
        }
    }

    fn campaign(&self, seed: u64, chunks: usize) -> GwasWorkload {
        GwasWorkload::new()
            .chromosomes(CHROMOSOMES)
            .chunks_per_chromosome(chunks)
            .seed(seed)
    }

    fn setup_with(&self, seed: u64, chunks: usize) -> Input {
        Input {
            runtime: SimRuntime::new(presets::marenostrum(NODES), SimOptions::default()),
            source: self.campaign(seed, chunks).into_source(WINDOW),
        }
    }
}

pub struct Input {
    runtime: SimRuntime,
    source: GwasSource,
}

pub struct Output {
    outcome: LazyRunOutcome,
    /// Traced run only: seconds inside `Scheduler::place` and the
    /// source's expansion calls, with their call counts.
    place: Option<PlaceStats>,
    expand_s: f64,
}

fn run_lazy(input: Input, traced: bool) -> Output {
    let Input {
        runtime,
        mut source,
    } = input;
    let faults = FaultPlan::new();
    if traced {
        let mut source = TimedSource::new(source);
        let mut scheduler = TimedScheduler::new(LocalityScheduler::new());
        let outcome = runtime
            .run_lazy(&mut source, &mut scheduler, &faults)
            .expect("gwas campaign completes");
        Output {
            outcome,
            place: Some(scheduler.stats()),
            expand_s: source.seconds(),
        }
    } else {
        let outcome = runtime
            .run_lazy(&mut source, &mut LocalityScheduler::new(), &faults)
            .expect("gwas campaign completes");
        Output {
            outcome,
            place: None,
            expand_s: 0.0,
        }
    }
}

impl Workload for GwasSim {
    type Input = Input;
    type Output = Output;

    const NAME: &'static str = "gwas_sim";

    fn setup(&self, seed: u64, _traced: bool) -> Input {
        self.setup_with(seed, self.chunks)
    }

    fn run(&self, input: Input, spans: &mut Spans) -> Output {
        let traced = spans.enabled();
        spans.span("run_lazy", |_| run_lazy(input, traced))
    }

    fn check(&self, seed: u64, out: &Output) -> Verdict {
        let expected = self.campaign(seed, self.chunks).task_count();
        let mut v = Verdict::new(expected as u64);
        let done = out.outcome.report.tasks_completed;
        v.expect(done == expected, expected.abs_diff(done) as u64, || {
            format!("tasks_completed {done} != generated {expected}")
        });
        v.expect(out.outcome.report.tasks_reexecuted == 0, 1, || {
            "re-executions without a fault plan".to_string()
        });
        v.makespan_s = Some(out.outcome.report.makespan_s);
        v
    }

    fn layers(&self, seed: u64, out: Output, spans: &Spans, timed: &Timed, m: &mut Metrics) {
        let o = &out.outcome;
        let tasks = o.report.tasks_completed as f64;
        let run_s = spans.total_s("run_lazy");
        let place = out.place.expect("traced run times the scheduler");
        let self_s = run_s - place.seconds - out.expand_s;
        let events = o.events_processed as f64;

        m.set("workflows.expand_s", out.expand_s);
        m.set("workflows.expand_ns_per_task", out.expand_s * 1e9 / tasks);
        place.report(m);
        m.set("sim_engine.self_s", self_s);
        m.set("sim_engine.events_per_s", events / run_s);
        m.set("sim_engine.ns_per_event", self_s * 1e9 / events);
        m.set(
            "sim_engine.peak_materialized_tasks",
            o.peak_materialized_tasks as f64,
        );
        m.set("sim_engine.peak_live_values", o.peak_live_values as f64);
        m.set("sim_engine.peak_event_queue", o.peak_event_queue as f64);
        m.set(
            "sim_engine.bytes_per_resident_task",
            timed.peak_heap_bytes as f64 / o.peak_materialized_tasks.max(1) as f64,
        );
        m.set("sim.makespan_s", o.report.makespan_s);
        m.set("sim.transfer_count", o.report.transfer_count as f64);
        m.set("sim.transfer_bytes", o.report.transfer_bytes as f64);
        m.set("sim.transfer_stall_s", o.report.transfer_stall_s);
        m.set("sim.locality_rate", o.report.locality_rate);
        m.set(
            "sim.queue_ns_per_op",
            queue_replay(o.peak_event_queue, 2_000_000, seed),
        );
        drop(out);

        // Events/s of the whole campaign over events/s of a tenth of it:
        // the engine's throughput should not depend on how long the
        // campaign is. Fastest of a few runs each, since one run on a
        // noisy host moves the ratio by 0.2.
        let best_rate = |chunks: usize, runs: usize| {
            (0..runs)
                .map(|_| {
                    let input = self.setup_with(seed, chunks);
                    let t = Instant::now();
                    let run = run_lazy(input, false);
                    run.outcome.events_processed as f64 / t.elapsed().as_secs_f64()
                })
                .fold(0.0, f64::max)
        };
        m.set(
            "sim_engine.scale_flatness",
            best_rate(self.chunks, 3) / best_rate((self.chunks / 10).max(1), 9),
        );

        // The same task specs into a bare access processor.
        let mut capture = CapturingSink::default();
        capture.drain(&mut self.campaign(seed, self.chunks).into_source(WINDOW));
        dag_replay(capture.ops, m);
    }
}
