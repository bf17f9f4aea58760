//! Scheduling macro-benchmark driver: times the sim-engine placement
//! path at 100-node scale and records the results in a labelled,
//! mergeable JSON file so before/after trajectories accumulate.
//!
//! ```text
//! cargo run --release -p continuum-bench --bin sched_bench -- --label seed
//! # ... optimise ...
//! cargo run --release -p continuum-bench --bin sched_bench -- --label indexed
//! cargo run --release -p continuum-bench --bin sched_bench -- --smoke --check
//! ```
//!
//! `--label <name>` stores this binary's measurements under that name
//! in the output file (default `BENCH_sched.json`), preserving runs
//! recorded under other labels; when several labels are present, a
//! comparison table is printed. `--smoke` shrinks workloads for CI,
//! and `--check` exits non-zero if any run regresses more than 3× the
//! wall time of the same case/scheduler under any other stored label —
//! a loud tripwire for hot-path regressions.

use continuum_bench::alloc::CountingAllocator;
use continuum_bench::cli::{results_value, stored_f64, stored_str, stored_u64, BenchArgs};
use continuum_bench::sched_bench::{cases, measure, SCHEDULERS};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn main() {
    let args = BenchArgs::parse("BENCH_sched.json", 3);
    let (smoke, label, out_path) = (args.smoke, &args.label, &args.out);

    println!(
        "scheduling macro-bench — 100-node platform, {} scale, label `{label}`",
        args.scale()
    );
    println!(
        "{:<10} {:<14} {:>7} {:>12} {:>10} {:>12} {:>12}",
        "case", "scheduler", "tasks", "makespan_s", "wall_ms", "tasks/s", "allocs"
    );
    let mut results = Vec::new();
    for case in cases(smoke) {
        for sched in SCHEDULERS {
            let m = measure(&case, sched, args.repeats);
            println!(
                "{:<10} {:<14} {:>7} {:>12.1} {:>10.2} {:>12.0} {:>12}",
                m.case,
                m.scheduler,
                m.tasks,
                m.makespan_s,
                m.wall_ms,
                m.tasks_per_sec,
                m.allocations
            );
            results.push(m);
        }
    }

    // Merge into the output file, preserving other labels.
    let runs = args.record_run(
        "sched-macro",
        vec![("platform_nodes".to_string(), serde::Value::U64(100))],
        vec![args.repeats_field(), results_value(&results)],
    );
    println!("\nwrote {} result(s) to {out_path}", results.len());

    // Cross-label comparison (and the --check regression tripwire).
    let regressed = args.compare_labels(
        &runs,
        &results,
        |m, r| {
            stored_str(r, "case") == Some(&m.case)
                && stored_str(r, "scheduler") == Some(&m.scheduler)
        },
        |m, r| {
            let other_ms = stored_f64(r, "wall_ms");
            let other_allocs = stored_u64(r, "allocations").unwrap_or(0);
            let alloc_ratio = if m.allocations > 0 {
                other_allocs as f64 / m.allocations as f64
            } else {
                f64::INFINITY
            };
            let line = format!(
                "{:<10} {:<14} wall {:>8.2} ms vs {:>8.2} ms ({:>5.2}x), allocs {:>10} vs {:>10} ({:>5.2}x)",
                m.case, m.scheduler, m.wall_ms, other_ms, other_ms / m.wall_ms, m.allocations, other_allocs, alloc_ratio
            );
            (line, Some((m.wall_ms, other_ms)))
        },
    );
    if regressed {
        std::process::exit(2);
    }
}
