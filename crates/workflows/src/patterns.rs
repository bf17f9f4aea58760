//! Generic DAG patterns for tests, micro-benchmarks and ablations.

use continuum_dag::TaskSpec;
use continuum_runtime::{SimWorkload, TaskProfile};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` independent tasks of `duration_s` each.
pub fn embarrassingly_parallel(n: usize, duration_s: f64) -> SimWorkload {
    let mut w = SimWorkload::new();
    let outs = w.data_batch("ep_out", n);
    for o in &outs {
        w.task(
            TaskSpec::new("work").output(*o),
            TaskProfile::new(duration_s),
        )
        .expect("valid pattern task");
    }
    w
}

/// `mappers` parallel map tasks feeding one reduce; each map output is
/// `bytes` large (for locality/transfer experiments).
pub fn map_reduce(mappers: usize, map_s: f64, reduce_s: f64, bytes: u64) -> SimWorkload {
    let mut w = SimWorkload::new();
    let outs = w.data_batch("map_out", mappers);
    let result = w.data("reduced");
    for o in &outs {
        w.task(
            TaskSpec::new("map").output(*o),
            TaskProfile::new(map_s).outputs_bytes(bytes),
        )
        .expect("valid pattern task");
    }
    w.task(
        TaskSpec::new("reduce").inputs(outs).output(result),
        TaskProfile::new(reduce_s),
    )
    .expect("valid pattern task");
    w
}

/// A chain of `n` tasks, each depending on the previous.
pub fn chain(n: usize, duration_s: f64) -> SimWorkload {
    let mut w = SimWorkload::new();
    let d = w.data("chain");
    w.task(
        TaskSpec::new("stage0").output(d),
        TaskProfile::new(duration_s),
    )
    .expect("valid pattern task");
    for i in 1..n {
        w.task(
            TaskSpec::new(format!("stage{i}")).inout(d),
            TaskProfile::new(duration_s),
        )
        .expect("valid pattern task");
    }
    w
}

/// `ensembles` independent fork-join pipelines: fork into `width`
/// branches of `depth` stages, then join.
pub fn fork_join(ensembles: usize, width: usize, depth: usize, duration_s: f64) -> SimWorkload {
    let mut w = SimWorkload::new();
    for e in 0..ensembles {
        let root = w.data(format!("fj{e}_root"));
        w.task(
            TaskSpec::new("fork").group(format!("ens{e}")).output(root),
            TaskProfile::new(duration_s),
        )
        .expect("valid pattern task");
        let mut lasts = Vec::with_capacity(width);
        for b in 0..width {
            let mut prev = root;
            for s in 0..depth {
                let next = w.data(format!("fj{e}_b{b}_s{s}"));
                w.task(
                    TaskSpec::new("branch")
                        .group(format!("ens{e}"))
                        .input(prev)
                        .output(next),
                    TaskProfile::new(duration_s),
                )
                .expect("valid pattern task");
                prev = next;
            }
            lasts.push(prev);
        }
        let joined = w.data(format!("fj{e}_join"));
        w.task(
            TaskSpec::new("join")
                .group(format!("ens{e}"))
                .inputs(lasts)
                .output(joined),
            TaskProfile::new(duration_s),
        )
        .expect("valid pattern task");
    }
    w
}

/// A `rows × cols` stencil sweep: the task at `(r, c)` consumes the
/// outputs of its row-`r-1` neighbours `(c-1, c, c+1)` — the
/// NMMB-style halo-exchange shape that stresses multi-input locality
/// scoring, since every placement choice weighs three candidate
/// data-holding nodes.
pub fn stencil(rows: usize, cols: usize, duration_s: f64, bytes: u64) -> SimWorkload {
    assert!(rows > 0 && cols > 0, "empty stencil");
    let mut w = SimWorkload::new();
    let mut prev_row: Vec<continuum_dag::DataId> = Vec::new();
    for r in 0..rows {
        let mut this_row = Vec::with_capacity(cols);
        for c in 0..cols {
            let out = w.data(format!("st_r{r}_c{c}"));
            let mut spec = TaskSpec::new(format!("stencil_r{r}"))
                .group(format!("row{r}"))
                .output(out);
            if r > 0 {
                let lo = c.saturating_sub(1);
                let hi = (c + 1).min(cols - 1);
                for p in &prev_row[lo..=hi] {
                    spec = spec.input(*p);
                }
            }
            w.task(spec, TaskProfile::new(duration_s).outputs_bytes(bytes))
                .expect("valid pattern task");
            this_row.push(out);
        }
        prev_row = this_row;
    }
    w
}

/// A binary tree reduction over `leaves` inputs: the classic
/// Montage-style aggregation shape. Returns the workload; level 0 are
/// the leaf producers.
pub fn tree_reduce(leaves: usize, leaf_s: f64, merge_s: f64, bytes: u64) -> SimWorkload {
    assert!(leaves > 0, "need at least one leaf");
    let mut w = SimWorkload::new();
    let mut frontier: Vec<continuum_dag::DataId> = Vec::with_capacity(leaves);
    for i in 0..leaves {
        let out = w.data(format!("leaf{i}"));
        w.task(
            TaskSpec::new("produce").group("leaves").output(out),
            TaskProfile::new(leaf_s).outputs_bytes(bytes),
        )
        .expect("valid pattern task");
        frontier.push(out);
    }
    let mut level = 0;
    while frontier.len() > 1 {
        let mut next = Vec::with_capacity(frontier.len().div_ceil(2));
        for (i, pair) in frontier.chunks(2).enumerate() {
            if pair.len() == 1 {
                next.push(pair[0]);
                continue;
            }
            let out = w.data(format!("merge_{level}_{i}"));
            w.task(
                TaskSpec::new("merge")
                    .group(format!("level{level}"))
                    .input(pair[0])
                    .input(pair[1])
                    .output(out),
                TaskProfile::new(merge_s).outputs_bytes(bytes),
            )
            .expect("valid pattern task");
            next.push(out);
        }
        frontier = next;
        level += 1;
    }
    w
}

/// A streaming pipeline: `batches` data batches arrive from an edge
/// source every `interval_s` seconds (modelled by a chain of tick
/// tasks, so batch `i` becomes available at `i × interval_s`); each
/// batch then flows through the given processing stages. Batch latency
/// (completion − arrival) is measurable from the execution trace.
///
/// The arrival process must be *open-loop*: if ticks shared cores with
/// the processing stages, back-pressure would throttle arrivals to the
/// service rate and hide saturation. Tick tasks therefore require the
/// `"edge-source"` software tag (run them on a dedicated sensor node),
/// and stage tasks require 1 GB of memory so they can never crowd onto
/// a tiny sensor device.
pub fn streaming_pipeline(
    batches: usize,
    interval_s: f64,
    stage_durations: &[f64],
    batch_bytes: u64,
) -> SimWorkload {
    assert!(batches > 0 && !stage_durations.is_empty(), "empty stream");
    let mut w = SimWorkload::new();
    let mut prev_tick: Option<continuum_dag::DataId> = None;
    for b in 0..batches {
        // The tick chain models the arrival process on the source
        // device: batch b's raw data exists at b × interval.
        let tick = w.data(format!("batch{b}"));
        let mut spec = TaskSpec::new("arrive").group("source").output(tick);
        if let Some(prev) = prev_tick {
            spec = spec.input(prev);
        }
        w.task(
            spec,
            TaskProfile::new(interval_s)
                .constraints(continuum_platform::Constraints::new().software("edge-source"))
                .outputs_bytes(batch_bytes),
        )
        .expect("valid pattern task");
        prev_tick = Some(tick);
        // Per-batch processing stages.
        let mut upstream = tick;
        for (s, dur) in stage_durations.iter().enumerate() {
            let out = w.data(format!("b{b}_s{s}"));
            w.task(
                TaskSpec::new(format!("stage{s}"))
                    .group(format!("batch{b}"))
                    .input(upstream)
                    .output(out),
                TaskProfile::new(*dur)
                    .constraints(continuum_platform::Constraints::new().memory_mb(1_000))
                    .outputs_bytes(batch_bytes / 2),
            )
            .expect("valid pattern task");
            upstream = out;
        }
    }
    w
}

/// The continuous-inference service of the hybrid-workflows extension:
/// sensor → featurize → model → sink, every edge a
/// [`Stream`](continuum_dag::Direction::Stream) channel, so each stage
/// is released at its upstream's *first element* and the whole service
/// runs as one overlapping pipeline instead of four serial phases.
///
/// The service is conceptually indefinite; `frames` bounds one
/// observation window so tests and benchmarks terminate (a deployment
/// re-submits windows back-to-back). Each stage takes `stage_s` for the
/// whole window and forwards `frames` elements of `frame_bytes`
/// downstream; the sink writes one versioned `report` consumed by the
/// client.
///
/// With `frames` elements per window, the streamed makespan approaches
/// `stage_s × (1 + 3/(frames+1))` — versus `4 × stage_s` for the batch
/// equivalent of the same DAG with completion edges.
pub fn continuous_inference(frames: u64, frame_bytes: u64, stage_s: f64) -> SimWorkload {
    assert!(stage_s > 0.0, "stages need a positive duration");
    let mut w = SimWorkload::new();
    let raw = w.data("ci_raw");
    let feats = w.data("ci_feats");
    let preds = w.data("ci_preds");
    let report = w.data("ci_report");
    w.task(
        TaskSpec::new("sensor").group("ci").stream_out(raw),
        TaskProfile::new(stage_s)
            .stream_elements(frames)
            .stream_element_bytes(frame_bytes),
    )
    .expect("valid pattern task");
    w.task(
        TaskSpec::new("featurize")
            .group("ci")
            .stream_in(raw)
            .stream_out(feats),
        TaskProfile::new(stage_s)
            .stream_elements(frames)
            .stream_element_bytes(frame_bytes / 4),
    )
    .expect("valid pattern task");
    w.task(
        TaskSpec::new("model")
            .group("ci")
            .stream_in(feats)
            .stream_out(preds),
        TaskProfile::new(stage_s)
            .stream_elements(frames)
            .stream_element_bytes(64),
    )
    .expect("valid pattern task");
    w.task(
        TaskSpec::new("sink")
            .group("ci")
            .stream_in(preds)
            .output(report),
        TaskProfile::new(stage_s).outputs_bytes(frames * 64),
    )
    .expect("valid pattern task");
    w
}

/// The batch rendition of [`continuous_inference`]: the same four
/// stages chained through versioned whole-window data, each stage
/// starting only at its predecessor's *completion*. The baseline for
/// the streamed/batch makespan comparison in
/// `crates/bench/tests/stream_pipeline.rs`.
pub fn batch_inference(frames: u64, frame_bytes: u64, stage_s: f64) -> SimWorkload {
    assert!(stage_s > 0.0, "stages need a positive duration");
    let mut w = SimWorkload::new();
    let raw = w.data("ci_raw");
    let feats = w.data("ci_feats");
    let preds = w.data("ci_preds");
    let report = w.data("ci_report");
    let window = frames * frame_bytes;
    w.task(
        TaskSpec::new("sensor").group("ci").output(raw),
        TaskProfile::new(stage_s).outputs_bytes(window),
    )
    .expect("valid pattern task");
    w.task(
        TaskSpec::new("featurize")
            .group("ci")
            .input(raw)
            .output(feats),
        TaskProfile::new(stage_s).outputs_bytes(window / 4),
    )
    .expect("valid pattern task");
    w.task(
        TaskSpec::new("model")
            .group("ci")
            .input(feats)
            .output(preds),
        TaskProfile::new(stage_s).outputs_bytes(frames * 64),
    )
    .expect("valid pattern task");
    w.task(
        TaskSpec::new("sink")
            .group("ci")
            .input(preds)
            .output(report),
        TaskProfile::new(stage_s).outputs_bytes(frames * 64),
    )
    .expect("valid pattern task");
    w
}

/// A random layered DAG: `layers` levels of `width` tasks; each task
/// reads each task of the previous layer with probability `p_edge`.
/// Durations are uniform in `[min_s, max_s]`. Deterministic per seed.
pub fn random_layered(
    seed: u64,
    layers: usize,
    width: usize,
    p_edge: f64,
    min_s: f64,
    max_s: f64,
) -> SimWorkload {
    assert!(layers > 0 && width > 0, "empty dag");
    assert!(max_s >= min_s && min_s >= 0.0, "bad duration range");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut w = SimWorkload::new();
    let mut prev_layer: Vec<continuum_dag::DataId> = Vec::new();
    for layer in 0..layers {
        let mut this_layer = Vec::with_capacity(width);
        for i in 0..width {
            let out = w.data(format!("l{layer}_t{i}"));
            let mut spec = TaskSpec::new(format!("task_l{layer}"))
                .group(format!("layer{layer}"))
                .output(out);
            let mut has_input = false;
            for p in &prev_layer {
                if rng.gen::<f64>() < p_edge {
                    spec = spec.input(*p);
                    has_input = true;
                }
            }
            // Guarantee connectivity below the first layer.
            if layer > 0 && !has_input {
                let pick = prev_layer[rng.gen_range(0..prev_layer.len())];
                spec = spec.input(pick);
            }
            let duration = min_s + rng.gen::<f64>() * (max_s - min_s);
            w.task(spec, TaskProfile::new(duration).outputs_bytes(1_000_000))
                .expect("valid pattern task");
            this_layer.push(out);
        }
        prev_layer = this_layer;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ep_shape() {
        let w = embarrassingly_parallel(10, 2.0);
        let s = w.stats();
        assert_eq!(s.tasks, 10);
        assert_eq!(s.edges, 0);
        assert!((s.critical_path_s - 2.0).abs() < 1e-9);
        assert!((s.average_parallelism - 10.0).abs() < 1e-9);
    }

    #[test]
    fn map_reduce_shape() {
        let w = map_reduce(8, 5.0, 3.0, 100);
        let s = w.stats();
        assert_eq!(s.tasks, 9);
        assert_eq!(s.edges, 8);
        assert!((s.critical_path_s - 8.0).abs() < 1e-9);
    }

    #[test]
    fn chain_shape() {
        let w = chain(6, 1.0);
        let s = w.stats();
        assert_eq!(s.tasks, 6);
        assert_eq!(s.edges, 5);
        assert!((s.average_parallelism - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fork_join_shape() {
        let w = fork_join(2, 3, 2, 1.0);
        let s = w.stats();
        // Per ensemble: 1 fork + 3×2 branch + 1 join = 8.
        assert_eq!(s.tasks, 16);
        // Depth: fork + 2 stages + join = 4.
        assert!((s.critical_path_s - 4.0).abs() < 1e-9);
    }

    #[test]
    fn stencil_shape() {
        let w = stencil(3, 4, 1.0, 100);
        let s = w.stats();
        assert_eq!(s.tasks, 12);
        // Depth: one task per row along any column.
        assert!((s.critical_path_s - 3.0).abs() < 1e-9);
        let g = w.graph();
        // Interior tasks below row 0 have exactly 3 predecessors,
        // column edges have 2.
        for (i, node) in g.nodes().enumerate() {
            let (r, c) = (i / 4, i % 4);
            let expect = if r == 0 {
                0
            } else if c == 0 || c == 3 {
                2
            } else {
                3
            };
            assert_eq!(node.predecessors().len(), expect, "task ({r},{c})");
        }
    }

    #[test]
    fn tree_reduce_shape() {
        let w = tree_reduce(8, 2.0, 1.0, 100);
        let s = w.stats();
        assert_eq!(s.tasks, 8 + 7, "n leaves need n-1 merges");
        // Depth: leaf + 3 merge levels.
        assert!((s.critical_path_s - (2.0 + 3.0)).abs() < 1e-9);
        // Odd leaf counts promote the straggler.
        let w = tree_reduce(5, 1.0, 1.0, 0);
        assert_eq!(w.stats().tasks, 5 + 4);
    }

    #[test]
    fn streaming_pipeline_arrivals_are_spaced() {
        let w = streaming_pipeline(4, 10.0, &[2.0, 3.0], 1000);
        let s = w.stats();
        assert_eq!(s.tasks, 4 * 3);
        // Critical path: 4 ticks then the last batch's two stages.
        assert!((s.critical_path_s - (40.0 + 5.0)).abs() < 1e-9);
    }

    #[test]
    fn continuous_inference_is_a_stream_chain() {
        let w = continuous_inference(32, 4_096, 10.0);
        let s = w.stats();
        assert_eq!(s.tasks, 4);
        assert_eq!(s.edges, 0, "no completion edges between the stages");
        assert_eq!(w.graph().stream_edge_count(), 3);
        assert_eq!(
            w.profile(continuum_dag::TaskId::from_raw(0))
                .stream_elements_count(),
            32
        );
        let b = batch_inference(32, 4_096, 10.0);
        assert_eq!(b.stats().edges, 3, "batch rendition uses completion edges");
        assert_eq!(b.graph().stream_edge_count(), 0);
        assert!((b.stats().critical_path_s - 40.0).abs() < 1e-9);
    }

    #[test]
    fn streamed_window_overlaps_batch_serialises() {
        use continuum_platform::{NodeSpec, PlatformBuilder};
        use continuum_runtime::{FifoScheduler, SimOptions, SimRuntime};
        use continuum_sim::FaultPlan;
        let platform = || {
            PlatformBuilder::new()
                .cluster("c", 2, NodeSpec::hpc(4, 96_000))
                .build()
        };
        let streamed = SimRuntime::new(platform(), SimOptions::default())
            .run(
                &continuous_inference(32, 4_096, 10.0),
                &mut FifoScheduler::new(),
                &FaultPlan::new(),
            )
            .unwrap();
        let batch = SimRuntime::new(platform(), SimOptions::default())
            .run(
                &batch_inference(32, 4_096, 10.0),
                &mut FifoScheduler::new(),
                &FaultPlan::new(),
            )
            .unwrap();
        assert!(
            streamed.makespan_s < batch.makespan_s,
            "streamed {} !< batch {}",
            streamed.makespan_s,
            batch.makespan_s
        );
        // Four 10 s stages: batch ≥ 40 s; streamed ≈ 10.9 s.
        assert!(streamed.makespan_s < 12.0, "{}", streamed.makespan_s);
    }

    #[test]
    fn random_layered_is_connected_and_deterministic() {
        let a = random_layered(5, 4, 6, 0.3, 1.0, 10.0);
        let b = random_layered(5, 4, 6, 0.3, 1.0, 10.0);
        assert_eq!(a.stats(), b.stats());
        let g = a.graph();
        // Every non-first-layer task has at least one predecessor.
        for node in g.nodes().skip(6) {
            assert!(
                !node.predecessors().is_empty(),
                "task {} disconnected",
                node.id()
            );
        }
        assert_eq!(g.len(), 24);
    }

    #[test]
    fn random_layered_durations_in_range() {
        let w = random_layered(9, 3, 5, 0.5, 2.0, 4.0);
        for t in 0..w.stats().tasks {
            let d = w
                .profile(continuum_dag::TaskId::from_raw(t as u64))
                .duration_s();
            assert!((2.0..=4.0).contains(&d));
        }
    }
}
