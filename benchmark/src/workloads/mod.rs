//! The six end-to-end workloads. Names are normative; sizes are
//! constants calibrated on the reference host (see README.md), shrunk
//! about 20× by `--smoke`.

mod fog_storage;
mod gwas_local;
mod gwas_sim;
mod kmeans_local;
mod local_probe;
mod sim_probe;
mod stream_local;
mod wdl_stencil_sim;

use crate::harness::{measure, Opts, Report};

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "gwas_sim",
        "lazy GWAS campaign on the simulated engine: event loop, expand/retire and residency do the work; parsing, telemetry and transfers none",
    ),
    (
        "wdl_stencil_sim",
        "WDL text to trace export on an eager stencil: same sim/scheduler layers used the other way (multi-input locality, inter-zone transfers, telemetry on)",
    ),
    (
        "gwas_local",
        "GWAS shape as a storm of tiny closure tasks on LocalRuntime: submit-bound, so admission, graph mutex, dispatch and value store do the work",
    ),
    (
        "kmeans_local",
        "dislib K-means in a few hundred coarse tasks: kernels do the work and dispatch none, so a dispatch change must show no change here",
    ),
    (
        "stream_local",
        "four long-lived async stream stages that park and wake instead of a task storm: a dispatch gain that hurts park/wake or hand-off shows",
    ),
    (
        "fog_storage",
        "fog agents over a replicated KV store and WAL, blocking then async: reads beside writes, both agent reply paths, the only timer-wheel user",
    ),
];

/// LocalRuntime workers: the driver thread plus the workers never
/// exceed `min(nproc, 4)` busy threads.
pub fn workers() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    nproc.min(4).saturating_sub(1).max(1)
}

/// Runs the workload called `name`; `None` for an unknown name.
pub fn run(name: &str, smoke: bool, opts: &Opts) -> Option<Report> {
    Some(match name {
        "gwas_sim" => measure(&gwas_sim::GwasSim::new(smoke), opts),
        "wdl_stencil_sim" => measure(&wdl_stencil_sim::WdlStencilSim::new(smoke), opts),
        "gwas_local" => measure(&gwas_local::GwasLocal::new(smoke), opts),
        "kmeans_local" => measure(&kmeans_local::KMeansLocal::new(smoke), opts),
        "stream_local" => measure(&stream_local::StreamLocal::new(smoke), opts),
        "fog_storage" => measure(&fog_storage::FogStorage::new(smoke), opts),
        _ => return None,
    })
}
