//! The metric tables: every name the benchmark prints, with its unit,
//! its direction and — for per-layer metrics — the end-to-end metric
//! and workload it is predicted to move. `BENCHMARK.json` lists the
//! same names; `check.sh` compares the two.

use std::collections::BTreeMap;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// How a run's repeats become the one value it reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Estimator {
    /// The fastest repeat. Noise on a shared host only ever adds time,
    /// and on the reference host it adds ~22 % for seconds at a stretch
    /// (see README.md), so a run's median flips between two levels
    /// while its minimum stays on the lower one.
    Fastest,
    /// The median repeat, for counts that barely vary.
    Median,
}

impl Estimator {
    pub fn of(self, samples: &[f64]) -> f64 {
        match self {
            Estimator::Fastest => samples.iter().copied().fold(f64::INFINITY, f64::min),
            Estimator::Median => crate::stats::median(samples),
        }
    }
}

/// An end-to-end metric and the share of the parent's median by which
/// it may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub estimator: Estimator,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        estimator: Estimator::Fastest,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        estimator: Estimator::Fastest,
    },
    EndToEnd {
        name: "cpu_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        estimator: Estimator::Fastest,
    },
    EndToEnd {
        name: "allocs_per_unit",
        unit: "count",
        better: Better::Lower,
        bound: 0.02,
        estimator: Estimator::Median,
    },
    EndToEnd {
        name: "peak_heap_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.05,
        estimator: Estimator::Median,
    },
];

/// A per-layer metric: (name, unit, better, what it should move).
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[PerLayer] = &[
    pl(
        "workflows.parse_wdl_ns_per_task",
        "ns",
        Lower,
        "wall_s@wdl_stencil_sim",
    ),
    pl(
        "workflows.wdl_bytes",
        "bytes",
        Lower,
        "wall_s@wdl_stencil_sim",
    ),
    pl("workflows.expand_s", "s", Lower, "wall_s@gwas_sim"),
    pl(
        "workflows.expand_ns_per_task",
        "ns",
        Lower,
        "wall_s@gwas_sim",
    ),
    pl(
        "analyze.verify_ns_per_task",
        "ns",
        Lower,
        "wall_s@wdl_stencil_sim",
    ),
    pl(
        "dag.register_ns_per_task",
        "ns",
        Lower,
        "wall_s@gwas_local, then both sim workloads",
    ),
    pl(
        "dag.register_allocs_per_task",
        "count",
        Lower,
        "allocs_per_unit@gwas_local",
    ),
    pl(
        "dag.release_ns_per_task",
        "ns",
        Lower,
        "wall_s@gwas_local, then both sim workloads",
    ),
    pl(
        "scheduler.place_s",
        "s",
        Lower,
        "wall_s@wdl_stencil_sim; small on gwas_sim",
    ),
    pl("scheduler.rounds", "count", Lower, "wall_s@wdl_stencil_sim"),
    pl(
        "scheduler.ready_per_round_mean",
        "count",
        Lower,
        "wall_s@wdl_stencil_sim",
    ),
    pl(
        "scheduler.placed_over_offered",
        "ratio",
        Higher,
        "wall_s@wdl_stencil_sim",
    ),
    pl("sim_engine.self_s", "s", Lower, "wall_s@gwas_sim"),
    pl("sim_engine.events_per_s", "1/s", Higher, "wall_s@gwas_sim"),
    pl("sim_engine.ns_per_event", "ns", Lower, "wall_s@gwas_sim"),
    pl(
        "sim_engine.peak_materialized_tasks",
        "count",
        Lower,
        "peak_heap_bytes@gwas_sim",
    ),
    pl(
        "sim_engine.peak_live_values",
        "count",
        Lower,
        "peak_heap_bytes@gwas_sim",
    ),
    pl(
        "sim_engine.peak_event_queue",
        "count",
        Lower,
        "wall_s@gwas_sim",
    ),
    pl(
        "sim_engine.bytes_per_resident_task",
        "bytes",
        Lower,
        "peak_heap_bytes@gwas_sim",
    ),
    pl(
        "sim_engine.scale_flatness",
        "ratio",
        Higher,
        "wall_s@gwas_sim",
    ),
    pl(
        "sim.makespan_s",
        "sim_s",
        Lower,
        "scheduler changes only; bit-identical across repeats",
    ),
    pl("sim.queue_ns_per_op", "ns", Lower, "wall_s@gwas_sim"),
    pl(
        "sim.transfer_count",
        "count",
        Lower,
        "sim.makespan_s@wdl_stencil_sim",
    ),
    pl(
        "sim.transfer_bytes",
        "bytes",
        Lower,
        "sim.makespan_s@wdl_stencil_sim",
    ),
    pl(
        "sim.transfer_stall_s",
        "sim_s",
        Lower,
        "sim.makespan_s@wdl_stencil_sim",
    ),
    pl(
        "sim.locality_rate",
        "ratio",
        Higher,
        "sim.makespan_s@wdl_stencil_sim",
    ),
    pl(
        "data.registry_ns_per_op",
        "ns",
        Lower,
        "wall_s@wdl_stencil_sim",
    ),
    pl("local.submit_s", "s", Lower, "wall_s@gwas_local"),
    pl("local.submit_ns_per_task", "ns", Lower, "wall_s@gwas_local"),
    pl("local.drain_s", "s", Lower, "wall_s@gwas_local"),
    pl("local.get_ns", "ns", Lower, "wall_s@gwas_local"),
    pl("local.body_s", "s", Lower, "cpu_s@gwas_local"),
    pl(
        "local.overhead_ns_per_task",
        "ns",
        Lower,
        "cpu_s@gwas_local; flat on kmeans_local",
    ),
    pl("local.tasks_per_s", "1/s", Higher, "wall_s@gwas_local"),
    pl(
        "local.live_values_peak",
        "count",
        Lower,
        "peak_heap_bytes@gwas_local",
    ),
    pl(
        "local.inflight_high_water",
        "count",
        Lower,
        "peak_heap_bytes@fog_storage",
    ),
    pl(
        "local.parked_peak",
        "count",
        Lower,
        "peak_heap_bytes@fog_storage",
    ),
    pl("local.os_threads_peak", "count", Lower, "cpu_s@fog_storage"),
    pl(
        "local.serial_baseline_s",
        "s",
        Lower,
        "baseline, not a target",
    ),
    pl(
        "local.w2_over_w1",
        "ratio",
        Lower,
        "diagnostic, never gated",
    ),
    pl(
        "stream.elements_per_s",
        "1/s",
        Higher,
        "wall_s@stream_local",
    ),
    pl(
        "stream.channel_ns_per_element",
        "ns",
        Lower,
        "wall_s@stream_local",
    ),
    pl("stream.latency_p50_us", "us", Lower, "wall_s@stream_local"),
    pl("stream.latency_p99_us", "us", Lower, "wall_s@stream_local"),
    pl(
        "stream.latency_samples",
        "count",
        Higher,
        "sample count of the two above",
    ),
    pl("stream.blocked_send_us", "us", Lower, "wall_s@stream_local"),
    pl("stream.blocked_recv_us", "us", Lower, "wall_s@stream_local"),
    pl(
        "stream.occupancy_high_water",
        "count",
        Lower,
        "peak_heap_bytes@stream_local",
    ),
    pl("reactor.wake_lag_p50_us", "us", Lower, "wall_s@fog_storage"),
    pl("reactor.wake_lag_p99_us", "us", Lower, "wall_s@fog_storage"),
    pl("reactor.timers", "count", Lower, "wall_s@fog_storage"),
    pl("storage.put_ns", "ns", Lower, "wall_s@fog_storage"),
    pl("storage.get_ns", "ns", Lower, "wall_s@fog_storage"),
    pl("storage.async_get_ns", "ns", Lower, "wall_s@fog_storage"),
    pl("storage.async_put_ns", "ns", Lower, "wall_s@fog_storage"),
    pl("storage.wal_append_ns", "ns", Lower, "wall_s@fog_storage"),
    pl(
        "storage.bytes_put",
        "bytes",
        Lower,
        "allocs_per_unit@fog_storage",
    ),
    pl(
        "storage.bytes_get",
        "bytes",
        Lower,
        "allocs_per_unit@fog_storage",
    ),
    pl(
        "storage.failed_ops",
        "count",
        Lower,
        "correctness@fog_storage",
    ),
    pl(
        "agents.execute_rtt_p50_us",
        "us",
        Lower,
        "wall_s@fog_storage",
    ),
    pl(
        "agents.execute_async_rtt_p50_us",
        "us",
        Lower,
        "wall_s@fog_storage",
    ),
    pl("agents.reexecutions", "count", Lower, "wall_s@fog_storage"),
    pl(
        "telemetry.record_overhead_ratio",
        "ratio",
        Lower,
        "wall_s@wdl_stencil_sim",
    ),
    pl(
        "telemetry.events",
        "count",
        Lower,
        "peak_heap_bytes@wdl_stencil_sim",
    ),
    pl(
        "telemetry.chrome_export_ns_per_event",
        "ns",
        Lower,
        "wall_s@wdl_stencil_sim",
    ),
    pl(
        "telemetry.diagnostics_ns_per_event",
        "ns",
        Lower,
        "wall_s@wdl_stencil_sim",
    ),
    pl(
        "telemetry.trace_bytes",
        "bytes",
        Lower,
        "peak_heap_bytes@wdl_stencil_sim",
    ),
    pl("dislib.fit_s", "s", Lower, "wall_s@kmeans_local"),
    pl("dislib.predict_s", "s", Lower, "wall_s@kmeans_local"),
    pl("dislib.tasks", "count", Lower, "wall_s@kmeans_local"),
    pl(
        "dislib.flops_per_s_computed",
        "1/s",
        Higher,
        "wall_s@kmeans_local",
    ),
    pl("dislib.inertia", "value", Lower, "correctness@kmeans_local"),
    pl(
        "bench.trace_overhead_ratio",
        "ratio",
        Lower,
        "instrument cost, per workload",
    ),
    pl(
        "bench.tile_error",
        "ratio",
        Lower,
        "top-level spans must tile wall_s within 0.02",
    ),
];

/// Per-layer values of one traced run. A layer the workload does not
/// exercise keeps 0.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`PER_LAYER`]: a misspelt metric
    /// would otherwise be dropped silently.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|p| p.name == name),
            "`{name}` is not in the per-layer table"
        );
        self.0.insert(name, value);
    }

    /// `(metric, value)` for every per-layer metric, in table order;
    /// the flag says whether the workload set it.
    pub fn all(&self) -> impl Iterator<Item = (&'static PerLayer, f64, bool)> + '_ {
        PER_LAYER.iter().map(|p| {
            (
                p,
                self.0.get(p.name).copied().unwrap_or(0.0),
                self.0.contains_key(p.name),
            )
        })
    }
}
