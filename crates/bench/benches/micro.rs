//! Criterion micro-benchmarks of the hot paths of every subsystem:
//! access-processor task registration, graph completion throughput,
//! KV store operations, DES event throughput, end-to-end simulated
//! execution, local runtime overhead and dislib block kernels.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use continuum_dag::{AccessProcessor, TaskSpec};
use continuum_dislib::Matrix;
use continuum_platform::{NodeId, NodeSpec, PlatformBuilder};
use continuum_runtime::{
    FifoScheduler, LocalConfig, LocalRuntime, LocalityScheduler, SimOptions, SimRuntime,
};
use continuum_sim::{EventQueue, FaultPlan, VirtualTime};
use continuum_storage::{KvConfig, KvStore, StorageRuntime, StoredValue};
use continuum_workflows::{patterns, GwasWorkload};

/// Access processor: tasks registered per second.
fn bench_access_processor(c: &mut Criterion) {
    let mut group = c.benchmark_group("access_processor");
    for &n in &[1_000usize, 10_000] {
        group.bench_with_input(BenchmarkId::new("register_chain", n), &n, |b, &n| {
            b.iter(|| {
                let mut ap = AccessProcessor::new();
                let d = ap.new_data("x");
                ap.register(TaskSpec::new("t0").output(d)).unwrap();
                for i in 1..n {
                    ap.register(TaskSpec::new(format!("t{i}")).inout(d))
                        .unwrap();
                }
                black_box(ap.graph().len())
            })
        });
        group.bench_with_input(BenchmarkId::new("register_fan", n), &n, |b, &n| {
            b.iter(|| {
                let mut ap = AccessProcessor::new();
                let root = ap.new_data("root");
                ap.register(TaskSpec::new("src").output(root)).unwrap();
                let outs = ap.new_data_batch("o", n);
                for (i, o) in outs.iter().enumerate() {
                    ap.register(TaskSpec::new(format!("w{i}")).input(root).output(*o))
                        .unwrap();
                }
                black_box(ap.graph().edge_count())
            })
        });
    }
    group.finish();
}

/// Graph lifecycle: ready-set driven completion throughput.
fn bench_graph_completion(c: &mut Criterion) {
    c.bench_function("graph/complete_10k_fan", |b| {
        b.iter_batched(
            || {
                let mut ap = AccessProcessor::new();
                let outs = ap.new_data_batch("o", 10_000);
                for o in &outs {
                    ap.register(TaskSpec::new("w").output(*o)).unwrap();
                }
                ap
            },
            |mut ap| {
                let g = ap.graph_mut();
                while let Some(t) = g.pop_ready() {
                    g.mark_running(t).unwrap();
                    g.complete(t).unwrap();
                }
                black_box(g.completed_count())
            },
            criterion::BatchSize::SmallInput,
        )
    });
}

/// KV store put/get/locations throughput.
fn bench_kv_store(c: &mut Criterion) {
    let store = KvStore::new(
        (0..8).map(NodeId::from_raw).collect(),
        KvConfig { replication: 2 },
    )
    .unwrap();
    for i in 0..1024 {
        store
            .put(
                format!("k{i}").into(),
                StoredValue::blob(vec![0u8; 256]),
                None,
            )
            .unwrap();
    }
    c.bench_function("kv/put_256B", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            store
                .put(
                    format!("bench{}", i % 4096).into(),
                    StoredValue::blob(vec![0u8; 256]),
                    None,
                )
                .unwrap()
        })
    });
    c.bench_function("kv/get_256B", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            store.get(&format!("k{}", i % 1024).into()).unwrap()
        })
    });
    c.bench_function("kv/locations", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            store.locations(&format!("k{}", i % 1024).into()).unwrap()
        })
    });
}

/// DES event queue throughput at a 100k-event population — far above
/// the few hundred events the engine ever holds (DESIGN §12.1), so this
/// row bounds the queue's cost from the unfavourable side.
fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("des/push_pop_100k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..100_000u64 {
                q.push(VirtualTime::from_seconds((i % 977) as f64), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            black_box(sum)
        })
    });
}

/// End-to-end simulated execution throughput.
fn bench_sim_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_engine");
    group.sample_size(10);
    let gwas = GwasWorkload::new()
        .chromosomes(4)
        .chunks_per_chromosome(8)
        .seed(3)
        .build();
    let platform = PlatformBuilder::new()
        .cluster("mn", 8, NodeSpec::hpc(48, 96_000))
        .build();
    group.bench_function("gwas_101_tasks_fifo", |b| {
        b.iter(|| {
            SimRuntime::new(platform.clone(), SimOptions::default())
                .run(&gwas, &mut FifoScheduler::new(), &FaultPlan::new())
                .unwrap()
        })
    });
    group.bench_function("gwas_101_tasks_locality", |b| {
        b.iter(|| {
            SimRuntime::new(platform.clone(), SimOptions::default())
                .run(&gwas, &mut LocalityScheduler::new(), &FaultPlan::new())
                .unwrap()
        })
    });
    let dag = patterns::random_layered(5, 10, 20, 0.2, 1.0, 10.0);
    group.bench_function("random_200_tasks_locality", |b| {
        b.iter(|| {
            SimRuntime::new(platform.clone(), SimOptions::default())
                .run(&dag, &mut LocalityScheduler::new(), &FaultPlan::new())
                .unwrap()
        })
    });
    group.finish();
}

/// Local runtime: per-task overhead for trivial bodies.
fn bench_local_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_runtime");
    group.sample_size(10);
    group.bench_function("1000_trivial_tasks_4_workers", |b| {
        b.iter(|| {
            let rt = LocalRuntime::new(LocalConfig::with_workers(4));
            let outs = rt.data_batch::<u64>("o", 1000);
            for (i, o) in outs.iter().enumerate() {
                rt.submit(
                    TaskSpec::new("w").output(o.id()),
                    continuum_platform::Constraints::new(),
                    move |ctx| ctx.set_output(0, i as u64),
                )
                .unwrap();
            }
            rt.wait_all().unwrap();
            black_box(rt.completed_count())
        })
    });
    group.finish();
}

/// Telemetry overhead on the task submission/execution path: the same
/// trivial-task workload with the default no-op recorder, a collecting
/// recorder, and disabled telemetry on the simulated engine. The no-op
/// case must track the uninstrumented baseline above (< 2% target: a
/// single virtual `enabled()` call per instrumentation site).
fn bench_telemetry_overhead(c: &mut Criterion) {
    use continuum_runtime::TraceBuffer;
    let mut group = c.benchmark_group("telemetry");
    group.sample_size(10);
    let run_local = |config: LocalConfig| {
        let rt = LocalRuntime::new(config);
        let outs = rt.data_batch::<u64>("o", 1000);
        for (i, o) in outs.iter().enumerate() {
            rt.submit(
                TaskSpec::new("w").output(o.id()),
                continuum_platform::Constraints::new(),
                move |ctx| ctx.set_output(0, i as u64),
            )
            .unwrap();
        }
        rt.wait_all().unwrap();
        rt.completed_count()
    };
    group.bench_function("local_1000_tasks_noop_recorder", |b| {
        b.iter(|| black_box(run_local(LocalConfig::with_workers(4))))
    });
    group.bench_function("local_1000_tasks_trace_buffer", |b| {
        b.iter(|| {
            let (buffer, telemetry) = TraceBuffer::collector();
            let done = run_local(LocalConfig {
                workers: 4,
                telemetry,
                ..LocalConfig::default()
            });
            black_box((done, buffer.len()))
        })
    });
    // The always-on flight recorder: bounded memory, target within 2x
    // of the no-op recorder (see observe_bench for the tripwire).
    group.bench_function("local_1000_tasks_ring_recorder", |b| {
        b.iter(|| {
            let (ring, telemetry) = continuum_runtime::RingRecorder::collector(4096);
            let done = run_local(LocalConfig {
                workers: 4,
                telemetry,
                ..LocalConfig::default()
            });
            black_box((done, ring.len()))
        })
    });
    group.bench_function("local_1000_tasks_ring_sampled_1_in_8", |b| {
        b.iter(|| {
            let (ring, telemetry) = continuum_runtime::RingRecorder::sampling_collector(4096, 8);
            let done = run_local(LocalConfig {
                workers: 4,
                telemetry,
                ..LocalConfig::default()
            });
            black_box((done, ring.len()))
        })
    });
    group.bench_function("sim_gwas_noop_recorder", |b| {
        let workload = GwasWorkload::new()
            .chromosomes(2)
            .chunks_per_chromosome(8)
            .build();
        let platform = PlatformBuilder::new()
            .cluster("c", 8, NodeSpec::hpc(48, 96_000))
            .build();
        b.iter(|| {
            let report = SimRuntime::new(platform.clone(), SimOptions::default())
                .run(&workload, &mut LocalityScheduler::new(), &FaultPlan::new())
                .unwrap();
            black_box(report.tasks_completed)
        })
    });
    group.finish();
}

/// dislib kernels: blocked matmul, Gram partials and dense solve.
fn bench_dislib_kernels(c: &mut Criterion) {
    let a = Matrix::from_vec(128, 128, (0..128 * 128).map(|i| i as f64 * 1e-4).collect());
    let b = a.transpose();
    c.bench_function("dislib/matmul_128", |bench| {
        bench.iter(|| black_box(a.matmul(&b)))
    });
    c.bench_function("dislib/gram_256x16", |bench| {
        let x = Matrix::from_vec(256, 16, (0..256 * 16).map(|i| (i % 97) as f64).collect());
        bench.iter(|| black_box(x.transpose().matmul(&x)))
    });
    c.bench_function("dislib/solve_32", |bench| {
        let mut m = Matrix::zeros(32, 32);
        for i in 0..32 {
            for j in 0..32 {
                m.set(
                    i,
                    j,
                    if i == j {
                        10.0
                    } else {
                        1.0 / (1.0 + (i + j) as f64)
                    },
                );
            }
        }
        let rhs = Matrix::from_vec(32, 1, (0..32).map(|i| i as f64).collect());
        bench.iter(|| black_box(m.solve(&rhs).unwrap()))
    });
}

criterion_group!(
    benches,
    bench_access_processor,
    bench_graph_completion,
    bench_kv_store,
    bench_event_queue,
    bench_sim_engine,
    bench_local_runtime,
    bench_telemetry_overhead,
    bench_dislib_kernels
);
criterion_main!(benches);
