//! Streaming dataflow: a continuous-inference service on both engines.
//!
//! The hybrid-workflows shape — sensor → featurize → model → sink —
//! written once with `Stream` parameter directions. Unlike `In`/`Out`
//! edges, a stream edge releases its consumer at the producer's *first
//! element*, so all four stages run concurrently as one pipeline:
//!
//! * on the **local runtime**, each edge is a bounded MPMC channel with
//!   real backpressure; the model stage applies coefficients learned by
//!   a dislib linear regression to every frame as it arrives;
//! * on the **simulated runtime**, the same shape (from
//!   `workflows::patterns::continuous_inference`) shows the makespan
//!   effect: four 10 s stages overlap to ~11 s instead of 40 s.
//!
//! ```text
//! cargo run --example stream_pipeline
//! ```

use continuum::dag::TaskSpec;
use continuum::dislib::{DistMatrix, LinearRegression, Matrix};
use continuum::platform::{Constraints, NodeSpec, PlatformBuilder};
use continuum::runtime::{
    FifoScheduler, LocalConfig, LocalRuntime, RuntimeError, SimOptions, SimRuntime,
};
use continuum::sim::FaultPlan;
use continuum::workflows::patterns;

const FRAMES: usize = 64;

fn main() -> Result<(), RuntimeError> {
    // ---- phase 0: train the model (dislib on the local runtime) ----
    let rt = LocalRuntime::new(LocalConfig::with_workers(4));
    let x: Vec<Vec<f64>> = (0..512)
        .map(|i| {
            let t = i as f64 * 0.13;
            vec![t.sin() * 5.0, t.cos() * 5.0]
        })
        .collect();
    let y: Vec<Vec<f64>> = x.iter().map(|r| vec![2.0 * r[0] - r[1] + 1.0]).collect();
    let dx = DistMatrix::from_matrix(&rt, &Matrix::from_rows(&x), 128);
    let dy = DistMatrix::from_matrix(&rt, &Matrix::from_rows(&y), 128);
    let model = LinearRegression::new()
        .fit(&rt, &dx, &dy)
        .expect("ols fits");
    let coef = [model.coefficients().at(0, 0), model.coefficients().at(1, 0)];
    let intercept = model.intercept()[0];
    println!(
        "trained model: y = {:.2}·x0 + {:.2}·x1 + {:.2}",
        coef[0], coef[1], intercept
    );

    // ---- phase 1: the streamed service on the local runtime ----
    // One bounded window of FRAMES observations; a deployment would
    // re-submit windows back-to-back.
    let frames = rt.stream::<[f64; 2]>("frames", 8);
    let feats = rt.stream::<[f64; 2]>("feats", 8);
    let preds = rt.stream::<f64>("preds", 8);
    let report = rt.data::<Vec<f64>>("report");

    rt.submit(
        TaskSpec::new("sensor").stream_out(frames.id()),
        Constraints::new(),
        |ctx| {
            let tx = ctx.stream_writer::<[f64; 2]>(0);
            for i in 0..FRAMES {
                let t = i as f64 * 0.31;
                if !tx.send([t.sin() * 5.0, t.cos() * 5.0]) {
                    break;
                }
            }
        },
    )?;
    rt.submit(
        TaskSpec::new("featurize")
            .stream_in(frames.id())
            .stream_out(feats.id()),
        Constraints::new(),
        |ctx| {
            let rx = ctx.stream_reader::<[f64; 2]>(0);
            let tx = ctx.stream_writer::<[f64; 2]>(0);
            while let Some(f) = rx.recv() {
                // Clamp outliers before inference.
                if !tx.send([f[0].clamp(-4.0, 4.0), f[1].clamp(-4.0, 4.0)]) {
                    break;
                }
            }
        },
    )?;
    rt.submit(
        TaskSpec::new("model")
            .stream_in(feats.id())
            .stream_out(preds.id()),
        Constraints::new(),
        move |ctx| {
            let rx = ctx.stream_reader::<[f64; 2]>(0);
            let tx = ctx.stream_writer::<f64>(0);
            while let Some(f) = rx.recv() {
                let y = coef[0] * f[0] + coef[1] * f[1] + intercept;
                if !tx.send(y) {
                    break;
                }
            }
        },
    )?;
    rt.submit(
        TaskSpec::new("sink")
            .stream_in(preds.id())
            .output(report.id()),
        Constraints::new(),
        |ctx| {
            let rx = ctx.stream_reader::<f64>(0);
            ctx.set_output(0, rx.iter().collect::<Vec<f64>>());
        },
    )?;

    let predictions = rt.get(&report)?;
    rt.wait_all()?;
    println!(
        "local streamed window: {} predictions, first {:.2}, last {:.2}",
        predictions.len(),
        predictions.first().copied().unwrap_or(f64::NAN),
        predictions.last().copied().unwrap_or(f64::NAN),
    );

    // ---- phase 2: the same shape under the simulated engine ----
    let platform = || {
        PlatformBuilder::new()
            .cluster("edge", 2, NodeSpec::hpc(4, 96_000))
            .build()
    };
    let streamed = SimRuntime::new(platform(), SimOptions::default()).run(
        &patterns::continuous_inference(FRAMES as u64, 4_096, 10.0),
        &mut FifoScheduler::new(),
        &FaultPlan::new(),
    )?;
    let batch = SimRuntime::new(platform(), SimOptions::default()).run(
        &patterns::batch_inference(FRAMES as u64, 4_096, 10.0),
        &mut FifoScheduler::new(),
        &FaultPlan::new(),
    )?;
    println!(
        "sim makespan: streamed {:.2}s vs batch {:.2}s ({:.1}× overlap win)",
        streamed.makespan_s,
        batch.makespan_s,
        batch.makespan_s / streamed.makespan_s
    );
    Ok(())
}
