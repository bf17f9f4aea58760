//! `kmeans_local` — dislib K-means over a distributed matrix: a few
//! hundred coarse tasks whose kernels do the work and whose dispatch
//! does almost none. A dispatch optimisation must show no change here,
//! a kernel one only here.

use super::local_probe::os_threads;
use super::workers;
use crate::harness::{Timed, Verdict, Workload};
use crate::metrics::Metrics;
use crate::span::Spans;
use continuum::dislib::{DistMatrix, KMeans, KMeansModel};
use continuum::runtime::{LocalConfig, LocalRuntime};
use std::cell::OnceCell;
use std::time::Instant;

const COLS: usize = 16;
const K: usize = 32;
const BLOCKS: usize = 8;

pub struct KMeansLocal {
    rows: usize,
    iterations: usize,
    /// `(centroids, inertia, labels)` of a single-worker run, computed
    /// on the first check.
    reference: OnceCell<(Vec<f64>, f64, Vec<usize>)>,
}

impl KMeansLocal {
    pub fn new(smoke: bool) -> Self {
        KMeansLocal {
            rows: if smoke { 6_000 } else { 120_000 },
            iterations: if smoke { 5 } else { 12 },
            reference: OnceCell::new(),
        }
    }

    fn setup_with(&self, seed: u64, workers: usize) -> Input {
        let rt = LocalRuntime::new(LocalConfig::with_workers(workers));
        let x = DistMatrix::random(&rt, self.rows, COLS, self.rows.div_ceil(BLOCKS), seed)
            .expect("random blocks submit");
        rt.wait_all().expect("random blocks generate");
        Input { rt, x, seed }
    }

    fn estimator(&self, seed: u64) -> KMeans {
        // tol 0: every run executes exactly `iterations` Lloyd steps.
        KMeans::new(K).max_iter(self.iterations).tol(0.0).seed(seed)
    }
}

pub struct Input {
    rt: LocalRuntime,
    x: DistMatrix,
    seed: u64,
}

pub struct Output {
    rt: LocalRuntime,
    model: KMeansModel,
    labels: Vec<usize>,
    tasks: usize,
    os_threads: usize,
}

impl KMeansLocal {
    fn execute(&self, input: Input, spans: &mut Spans) -> Output {
        let Input { rt, x, seed } = input;
        let before = rt.submitted_count();
        let model = spans.span("fit", |_| {
            self.estimator(seed).fit(&rt, &x).expect("k-means fits")
        });
        let os_threads = os_threads();
        let labels = spans.span("predict", |_| {
            model.predict(&rt, &x).expect("k-means predicts")
        });
        Output {
            tasks: rt.submitted_count() - before,
            rt,
            model,
            labels,
            os_threads,
        }
    }
}

impl Workload for KMeansLocal {
    type Input = Input;
    type Output = Output;

    const NAME: &'static str = "kmeans_local";

    fn setup(&self, seed: u64, _traced: bool) -> Input {
        self.setup_with(seed, workers())
    }

    fn run(&self, input: Input, spans: &mut Spans) -> Output {
        self.execute(input, spans)
    }

    fn check(&self, seed: u64, out: &Output) -> Verdict {
        let mut v = Verdict::new(out.tasks as u64);
        let (centroids, inertia, labels) = self.reference.get_or_init(|| {
            let single = self.execute(self.setup_with(seed, 1), &mut Spans::new(false));
            (
                single.model.centroids.as_slice().to_vec(),
                single.model.inertia,
                single.labels,
            )
        });
        let got = out.model.centroids.as_slice();
        let off = got
            .iter()
            .zip(centroids)
            .filter(|(a, b)| (*a - *b).abs() > 1e-9)
            .count();
        v.expect(
            got.len() == centroids.len() && off == 0,
            out.tasks as u64,
            || format!("{off} centroid coordinates differ from the single-worker run by > 1e-9"),
        );
        let rel = (out.model.inertia - inertia).abs() / inertia.abs().max(1.0);
        v.expect(rel <= 1e-9, out.tasks as u64, || {
            format!("inertia {} vs single-worker {inertia}", out.model.inertia)
        });
        v.expect(out.labels == *labels, 1, || {
            "predicted labels differ from the single-worker run".to_string()
        });
        v.expect(out.model.iterations == self.iterations, 1, || {
            format!(
                "{} iterations, expected {}",
                out.model.iterations, self.iterations
            )
        });
        v
    }

    fn layers(&self, seed: u64, out: Output, spans: &Spans, timed: &Timed, m: &mut Metrics) {
        let fit_s = spans.total_s("fit");
        m.set("dislib.fit_s", fit_s);
        m.set("dislib.predict_s", spans.total_s("predict"));
        m.set("dislib.tasks", out.tasks as f64);
        // Computed, not counted: 2·n·d·k distance flops per iteration.
        let flops = 2.0 * self.rows as f64 * COLS as f64 * K as f64 * self.iterations as f64;
        m.set("dislib.flops_per_s_computed", flops / fit_s);
        m.set("dislib.inertia", out.model.inertia);
        m.set("local.tasks_per_s", out.tasks as f64 / timed.wall_s);
        m.set("local.live_values_peak", out.rt.live_value_count() as f64);
        m.set(
            "local.inflight_high_water",
            out.rt.inflight_high_water() as f64,
        );
        m.set("local.os_threads_peak", out.os_threads as f64);
        drop(out);
        // Same kernels, one worker: the baseline dispatch must not beat.
        let input = self.setup_with(seed, 1);
        let t = Instant::now();
        drop(self.execute(input, &mut Spans::new(false)));
        m.set("local.serial_baseline_s", t.elapsed().as_secs_f64());
    }
}
