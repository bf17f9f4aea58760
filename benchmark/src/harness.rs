//! The repeat loop every workload shares: set-up, the timed region
//! (wall, CPU, allocations, peak heap), the output check, and — on a
//! traced run — the span recorder and the per-layer pass.

use crate::alloc;
use crate::cpu::process_cpu_s;
use crate::metrics::Metrics;
use crate::span::Spans;
use crate::stats::median;
use std::time::{Duration, Instant};

/// What one repeat's output check found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Units of work attempted (tasks, elements, operations).
    pub units: u64,
    /// Units failed, rejected, lost or checksum-mismatched.
    pub failed: u64,
    /// Virtual makespan of a simulated run; must repeat bit-for-bit.
    pub makespan_s: Option<f64>,
    /// One line per failed check.
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn new(units: u64) -> Self {
        Verdict {
            units,
            ..Verdict::default()
        }
    }

    /// Records a failed check costing `failed` units.
    pub fn fail(&mut self, failed: u64, problem: String) {
        self.failed = (self.failed + failed.max(1)).min(self.units);
        self.problems.push(problem);
    }

    pub fn expect(&mut self, ok: bool, failed: u64, problem: impl FnOnce() -> String) {
        if !ok {
            self.fail(failed, problem());
        }
    }
}

/// Measurements of one timed region.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub allocs: u64,
    pub peak_heap_bytes: u64,
}

/// One end-to-end workflow. `setup` builds the inputs and the engine
/// (timed as `setup_s`), `run` is the timed region, `check` verifies
/// the output outside it.
pub trait Workload {
    type Input;
    type Output;

    const NAME: &'static str;

    /// `traced` is set for the traced repeat, whose engines record.
    fn setup(&self, seed: u64, traced: bool) -> Self::Input;

    /// The timed region, front to back. When `spans.enabled()` the
    /// workload also installs its timing wrappers.
    fn run(&self, input: Self::Input, spans: &mut Spans) -> Self::Output;

    /// Verifies `out`; a run has one seed, so a reference result may
    /// be computed on first use and kept.
    fn check(&self, seed: u64, out: &Self::Output) -> Verdict;

    /// Per-layer metrics from the traced repeat plus this layer's
    /// replays through its public API alone.
    fn layers(&self, seed: u64, out: Self::Output, spans: &Spans, timed: &Timed, m: &mut Metrics);
}

/// How to run.
#[derive(Debug, Clone)]
pub struct Opts {
    pub seed: u64,
    /// Measure for about this long (set-up, run and check of the timed
    /// repeats), unless `repeats` fixes the count.
    pub seconds: f64,
    pub repeats: Option<usize>,
    pub trace: bool,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    pub workload: &'static str,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// End-to-end samples, one per timed repeat (set-up has extras).
    pub setup_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub allocs_per_unit: Vec<f64>,
    pub peak_heap_bytes: Vec<f64>,
    /// Per-layer metrics (traced runs only).
    pub layers: Option<Metrics>,
    /// Chrome JSON of the traced repeat's spans.
    pub trace_json: Option<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn end_to_end(&self) -> [(&'static str, &[f64]); 5] {
        [
            ("setup_s", &self.setup_s),
            ("wall_s", &self.wall_s),
            ("cpu_s", &self.cpu_s),
            ("allocs_per_unit", &self.allocs_per_unit),
            ("peak_heap_bytes", &self.peak_heap_bytes),
        ]
    }
}

struct Repeat<O> {
    setup_s: f64,
    timed: Timed,
    out: O,
    spans: Spans,
}

fn repeat<W: Workload>(w: &W, seed: u64, traced: bool) -> Repeat<W::Output> {
    let t = Instant::now();
    let input = w.setup(seed, traced);
    let setup_s = t.elapsed().as_secs_f64();

    let mut spans = Spans::new(traced);
    alloc::reset_peak();
    let allocs = alloc::allocations();
    let cpu = process_cpu_s();
    let t = Instant::now();
    spans.restart();
    let out = w.run(input, &mut spans);
    let wall_s = t.elapsed().as_secs_f64();
    let timed = Timed {
        wall_s,
        cpu_s: process_cpu_s() - cpu,
        allocs: alloc::allocations() - allocs,
        peak_heap_bytes: alloc::peak_bytes(),
    };
    Repeat {
        setup_s,
        timed,
        out,
        spans,
    }
}

/// Set-up is short next to the timed region, so each repeat is followed
/// by set-up-only passes: as many as fit in `SETUP_SLICE`, so that the
/// samples spread over the whole run like the timed ones do. A run
/// reports at least `MIN_SETUP_SAMPLES`.
const SETUP_SLICE: Duration = Duration::from_millis(10);
const MIN_SETUP_SAMPLES: usize = 9;
/// Untraced repeats a traced run times for the overhead ratio.
const TRACE_BASELINE_REPEATS: usize = 2;

struct Runner<'w, W: Workload> {
    w: &'w W,
    seed: u64,
    report: Report,
    makespan_bits: Option<u64>,
}

impl<W: Workload> Runner<'_, W> {
    fn judge(&mut self, out: &W::Output) -> u64 {
        let mut v = self.w.check(self.seed, out);
        if let Some(ms) = v.makespan_s {
            let bits = ms.to_bits();
            let first = *self.makespan_bits.get_or_insert(bits);
            if first != bits {
                v.fail(
                    v.units,
                    format!(
                        "sim makespan differs between repeats: {} vs {ms}",
                        f64::from_bits(first)
                    ),
                );
            }
        }
        self.report.attempted += v.units;
        self.report.failed += v.failed;
        self.report.problems.append(&mut v.problems);
        v.units
    }

    /// One more `setup_s` sample; the input is dropped unused.
    fn setup_only(&mut self) {
        let t = Instant::now();
        let input = self.w.setup(self.seed, false);
        self.report.setup_s.push(t.elapsed().as_secs_f64());
        drop(input);
    }

    /// One untraced repeat: measured, checked, sampled unless it is
    /// the warm-up.
    fn untraced(&mut self, keep: bool) {
        let r = repeat(self.w, self.seed, false);
        let units = self.judge(&r.out);
        if keep {
            self.report.setup_s.push(r.setup_s);
            self.report.wall_s.push(r.timed.wall_s);
            self.report.cpu_s.push(r.timed.cpu_s);
            self.report
                .allocs_per_unit
                .push(r.timed.allocs as f64 / units.max(1) as f64);
            self.report
                .peak_heap_bytes
                .push(r.timed.peak_heap_bytes as f64);
        }
    }
}

/// Runs one workload: a discarded warm-up, then timed repeats with a
/// fresh engine each; on a traced run, one more repeat with the span
/// recorder on and the per-layer pass.
pub fn measure<W: Workload>(w: &W, opts: &Opts) -> Report {
    let mut runner = Runner {
        w,
        seed: opts.seed,
        report: Report {
            workload: W::NAME,
            ..Report::default()
        },
        makespan_bits: None,
    };
    runner.untraced(false);

    let started = Instant::now();
    let fixed = if opts.trace {
        Some(opts.repeats.unwrap_or(TRACE_BASELINE_REPEATS))
    } else {
        opts.repeats
    };
    loop {
        runner.untraced(true);
        let slice = Instant::now();
        while slice.elapsed() < SETUP_SLICE {
            runner.setup_only();
        }
        let n = runner.report.wall_s.len();
        let done = match fixed {
            Some(repeats) => n >= repeats,
            None => started.elapsed().as_secs_f64() >= opts.seconds,
        };
        if done {
            break;
        }
    }
    while runner.report.setup_s.len() < MIN_SETUP_SAMPLES {
        runner.setup_only();
    }

    if opts.trace {
        let r = repeat(runner.w, opts.seed, true);
        runner.judge(&r.out);
        let mut m = Metrics::default();
        let untraced_wall = median(&runner.report.wall_s);
        m.set("bench.trace_overhead_ratio", r.timed.wall_s / untraced_wall);
        m.set(
            "bench.tile_error",
            (r.spans.top_level_s() - r.timed.wall_s).abs() / r.timed.wall_s,
        );
        runner.report.trace_json = Some(r.spans.chrome_json(W::NAME));
        runner
            .w
            .layers(opts.seed, r.out, &r.spans, &r.timed, &mut m);
        runner.report.layers = Some(m);
    }
    runner.report
}
