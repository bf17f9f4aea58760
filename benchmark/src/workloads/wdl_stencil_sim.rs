//! `wdl_stencil_sim` — the textual front door: benchmark-generated WDL
//! text → `parse_wdl` → lint admission → list-scheduler plan → eager
//! simulated run with telemetry on → Chrome export and makespan
//! attribution. The same sim/scheduler layers as `gwas_sim` used the
//! other way (eager graph, multi-input locality scoring, inter-zone
//! transfers), and the only WDL/lint/trace-export path.

use super::local_probe::counter_max;
use super::sim_probe::{dag_replay, registry_replay, GraphOp, PlaceStats, TimedScheduler};
use crate::gen::Rng;
use crate::harness::{Timed, Verdict, Workload};
use crate::metrics::Metrics;
use crate::span::Spans;
use continuum::platform::{presets, Platform};
use continuum::runtime::{ListScheduler, SimOptions, SimRuntime, SimWorkload, TraceBuffer};
use continuum::sim::{FaultPlan, RunReport};
use continuum::telemetry::{chrome_trace, CounterKey, Event, RunDiagnostics};
use continuum::workflows::parse_wdl;
use continuum_analyze::has_errors;
use std::fmt::Write as _;
use std::time::Instant;

pub struct WdlStencilSim {
    rows: usize,
    cols: usize,
}

impl WdlStencilSim {
    pub fn new(smoke: bool) -> Self {
        let side = if smoke { 30 } else { 140 };
        WdlStencilSim {
            rows: side,
            cols: side,
        }
    }

    fn tasks(&self) -> usize {
        self.rows * self.cols
    }
}

/// A `rows × cols` stencil sweep as WDL text: the task at `(r, c)`
/// reads its three row-`r-1` neighbours. Durations and output sizes
/// carry seeded jitter so no two rows schedule alike.
fn stencil_wdl(rows: usize, cols: usize, seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut text = String::with_capacity(rows * cols * 96);
    text.push_str("# generated stencil sweep\n");
    for r in 0..rows {
        for c in 0..cols {
            let dur = 8.0 + 4.0 * rng.next_f64();
            let out_bytes = 1_000_000 + rng.next_u64() % 1_000_000;
            let _ = write!(text, "task stencil_r{r}");
            if r > 0 {
                let lo = c.saturating_sub(1);
                let hi = (c + 1).min(cols - 1);
                text.push_str(" in=");
                for (i, p) in (lo..=hi).enumerate() {
                    if i > 0 {
                        text.push(',');
                    }
                    let _ = write!(text, "s{}_{p}", r - 1);
                }
            }
            let _ = writeln!(
                text,
                " out=s{r}_{c} dur={dur:.3} out_bytes={out_bytes} group=row{r}"
            );
        }
    }
    text
}

pub struct Input {
    text: String,
    platform: Platform,
}

pub struct Output {
    text_bytes: usize,
    lint_errors: usize,
    report: RunReport,
    events: Vec<Event>,
    trace_json: String,
    diagnostics: RunDiagnostics,
    /// The parsed workload and platform, kept for the replays.
    workload: SimWorkload,
    platform: Platform,
    place: Option<PlaceStats>,
}

fn plan(workload: &SimWorkload) -> ListScheduler {
    ListScheduler::plan(workload, |t| workload.profile(t).duration_s())
}

fn simulate(
    runtime: &SimRuntime,
    workload: &SimWorkload,
    plan: ListScheduler,
    traced: bool,
) -> (RunReport, Option<PlaceStats>) {
    let faults = FaultPlan::new();
    if traced {
        let mut scheduler = TimedScheduler::new(plan);
        let report = runtime
            .run(workload, &mut scheduler, &faults)
            .expect("stencil completes");
        (report, Some(scheduler.stats()))
    } else {
        let mut scheduler = plan;
        let report = runtime
            .run(workload, &mut scheduler, &faults)
            .expect("stencil completes");
        (report, None)
    }
}

impl Workload for WdlStencilSim {
    type Input = Input;
    type Output = Output;

    const NAME: &'static str = "wdl_stencil_sim";

    fn setup(&self, seed: u64, _traced: bool) -> Input {
        Input {
            text: stencil_wdl(self.rows, self.cols, seed),
            platform: presets::hybrid_hpc_cloud(16, 4, 8),
        }
    }

    fn run(&self, input: Input, spans: &mut Spans) -> Output {
        let Input { text, platform } = input;
        let traced = spans.enabled();
        let workload = spans.span("parse", |_| parse_wdl(&text).expect("generated WDL parses"));
        // Reject-mode admission: the verifier the engine runs under
        // `LintMode::Reject`, called here so it has its own span.
        let lint_errors = spans.span("lint", |_| {
            let findings = workload.lint_bundle(&platform).verify();
            assert!(!has_errors(&findings), "generated stencil must be admitted");
            findings.iter().filter(|d| d.is_error()).count()
        });
        let (buffer, telemetry) = TraceBuffer::collector();
        let options = SimOptions {
            telemetry,
            ..SimOptions::default()
        };
        let runtime = SimRuntime::new(platform.clone(), options);
        let scheduler = spans.span("plan", |_| plan(&workload));
        let (report, place) =
            spans.span("run", |_| simulate(&runtime, &workload, scheduler, traced));
        let events = buffer.take();
        let trace_json = spans.span("export", |_| chrome_trace(&events));
        let diagnostics = spans.span("diagnostics", |_| RunDiagnostics::from_events(&events));
        Output {
            text_bytes: text.len(),
            lint_errors,
            report,
            events,
            trace_json,
            diagnostics,
            workload,
            platform,
            place,
        }
    }

    fn check(&self, _seed: u64, out: &Output) -> Verdict {
        let expected = self.tasks();
        let mut v = Verdict::new(expected as u64);
        let done = out.report.tasks_completed;
        v.expect(done == expected, expected.abs_diff(done) as u64, || {
            format!("tasks_completed {done} != generated {expected}")
        });
        v.expect(out.lint_errors == 0, 1, || {
            format!("{} error-severity lints", out.lint_errors)
        });
        let makespan_us = out.diagnostics.makespan_us;
        let bad_rows = out
            .diagnostics
            .nodes
            .iter()
            .filter(|n| n.total_us() != makespan_us)
            .count();
        v.expect(
            bad_rows == 0 && !out.diagnostics.nodes.is_empty(),
            1,
            || format!("{bad_rows} RunDiagnostics rows do not sum to the makespan"),
        );
        v.expect(
            out.diagnostics.tasks_committed == expected as u64,
            1,
            || {
                format!(
                    "trace carries {} commits, expected {expected}",
                    out.diagnostics.tasks_committed
                )
            },
        );
        v.expect(out.trace_json.len() > expected, 1, || {
            "Chrome export is shorter than one byte per task".to_string()
        });
        v.makespan_s = Some(out.report.makespan_s);
        v
    }

    fn layers(&self, seed: u64, out: Output, spans: &Spans, _timed: &Timed, m: &mut Metrics) {
        let tasks = out.report.tasks_completed as f64;
        let events = out.events.len() as f64;
        let place = out.place.expect("traced run times the scheduler");
        let run_s = spans.total_s("run");

        m.set(
            "workflows.parse_wdl_ns_per_task",
            spans.total_s("parse") * 1e9 / tasks,
        );
        m.set("workflows.wdl_bytes", out.text_bytes as f64);
        m.set(
            "analyze.verify_ns_per_task",
            spans.total_s("lint") * 1e9 / tasks,
        );
        place.report(m);
        m.set("sim_engine.self_s", run_s - place.seconds);
        m.set(
            "sim_engine.peak_event_queue",
            counter_max(&out.events, CounterKey::EventQueueHighWater),
        );
        m.set(
            "sim_engine.peak_live_values",
            counter_max(&out.events, CounterKey::LiveValuesHighWater),
        );
        m.set("sim.makespan_s", out.report.makespan_s);
        m.set("sim.transfer_count", out.report.transfer_count as f64);
        m.set("sim.transfer_bytes", out.report.transfer_bytes as f64);
        m.set("sim.transfer_stall_s", out.report.transfer_stall_s);
        m.set("sim.locality_rate", out.report.locality_rate);
        m.set("telemetry.events", events);
        m.set(
            "telemetry.chrome_export_ns_per_event",
            spans.total_s("export") * 1e9 / events,
        );
        m.set(
            "telemetry.diagnostics_ns_per_event",
            spans.total_s("diagnostics") * 1e9 / events,
        );
        m.set("telemetry.trace_bytes", out.trace_json.len() as f64);

        // The same run with the no-op recorder: what recording costs.
        let runtime = SimRuntime::new(out.platform.clone(), SimOptions::default());
        let scheduler = plan(&out.workload);
        let t = Instant::now();
        let (quiet, _) = simulate(&runtime, &out.workload, scheduler, true);
        let quiet_s = t.elapsed().as_secs_f64();
        assert_eq!(
            quiet.makespan_s.to_bits(),
            out.report.makespan_s.to_bits(),
            "telemetry must not change the schedule"
        );
        m.set("telemetry.record_overhead_ratio", run_s / quiet_s);

        m.set(
            "data.registry_ns_per_op",
            registry_replay(
                out.report.tasks_completed,
                out.platform.nodes().len() as u32,
                2 * self.cols,
                seed,
            ),
        );

        // The parsed specs into a bare access processor.
        let graph = out.workload.graph();
        let catalog = out.workload.catalog();
        let mut ops = Vec::with_capacity(graph.len() + catalog.len());
        for d in 0..catalog.len() {
            let id = continuum::dag::DataId::from_raw(d as u64);
            ops.push(GraphOp::Data(catalog.name(id).unwrap_or("?").to_string()));
        }
        ops.extend(graph.nodes().map(|n| GraphOp::Submit(n.spec().clone())));
        drop(out);
        dag_replay(ops, m);
    }
}
