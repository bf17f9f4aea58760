//! Paper-scale SimRuntime macro-benchmark driver: times lazy GWAS
//! campaigns at 10⁴–10⁶ tasks and records the results in a labelled,
//! mergeable JSON file.
//!
//! ```text
//! cargo run --release -p continuum-bench --bin sim_bench -- --label lazy
//! cargo run --release -p continuum-bench --bin sim_bench -- --smoke --check
//! ```
//!
//! `--label <name>` stores this binary's measurements under that name
//! in the output file (default `BENCH_sim.json`), preserving runs
//! recorded under other labels. `--smoke` keeps only the 10⁴-task
//! campaign for CI. `--check` exits non-zero if a run allocates more
//! than once per four tasks — the tripwire for an allocation creeping
//! back onto the per-task path.

use continuum_bench::alloc::CountingAllocator;
use continuum_bench::cli::{results_value, BenchArgs};
use continuum_bench::sim_bench::{cases, check_violations, measure};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn main() {
    let args = BenchArgs::parse("BENCH_sim.json", 1);
    println!(
        "sim macro-bench — lazy GWAS campaigns, {} scale, label `{}`",
        args.scale(),
        args.label
    );
    println!(
        "{:<6} {:>9} {:>9} {:>10} {:>12} {:>10} {:>10} {:>9} {:>10} {:>12}",
        "case",
        "tasks",
        "events",
        "wall_ms",
        "events/s",
        "peak_mat",
        "peak_vals",
        "peak_evq",
        "allocs",
        "peak_bytes"
    );
    let mut results = Vec::new();
    for case in cases(args.smoke) {
        let m = measure(&case);
        println!(
            "{:<6} {:>9} {:>9} {:>10.1} {:>12.0} {:>10} {:>10} {:>9} {:>10} {:>12}",
            m.case,
            m.tasks,
            m.events,
            m.wall_ms,
            m.events_per_sec,
            m.peak_materialized_tasks,
            m.peak_live_values,
            m.peak_event_queue,
            m.allocations,
            m.peak_resident_bytes
        );
        results.push(m);
    }

    let violations = check_violations(&results);
    for v in &violations {
        eprintln!("VIOLATION: {v}");
    }
    if violations.is_empty() {
        println!("\ninvariant: no run allocates more than once per four tasks");
    }

    args.record_run("sim-macro", Vec::new(), vec![results_value(&results)]);
    println!("wrote {} result(s) to {}", results.len(), args.out);

    if args.check && !violations.is_empty() {
        std::process::exit(2);
    }
}
