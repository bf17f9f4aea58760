//! Local-runtime dispatch macro-benchmark driver: times the threaded
//! executor on fine-grained task storms and records the results in a
//! labelled, mergeable JSON file so before/after trajectories
//! accumulate.
//!
//! ```text
//! cargo run --release -p continuum-bench --bin local_bench -- --label seed
//! # ... optimise ...
//! cargo run --release -p continuum-bench --bin local_bench -- --label worksteal
//! cargo run --release -p continuum-bench --bin local_bench -- --smoke --check
//! ```
//!
//! `--label <name>` stores this binary's measurements under that name
//! in the output file (default `BENCH_local.json`), preserving runs
//! recorded under other labels; when several labels are present, a
//! comparison table is printed. `--smoke` shrinks workloads for CI.
//! `--check` enforces four invariants and exits non-zero on
//! violation: every worker count must produce a result identical to
//! the single-worker reference execution (checksum + completed count);
//! the await-heavy case must reach its M:N plateau (≥90% of the storm
//! concurrently parked); the wide case must not allocate more than 3.5
//! times per task (body box, task record, output value — the tripwire
//! for an allocation creeping back into submission or dispatch); and
//! no case/worker pair may regress more than 3× the wall time of the
//! same pair under any other same-scale stored label.

use continuum_bench::alloc::CountingAllocator;
use continuum_bench::cli::{results_value, stored_f64, stored_str, stored_u64, BenchArgs};
use continuum_bench::local_bench::{case_worker_counts, cases, measure, LocalMeasurement};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap allocations per task the wide case may make: three (the body's
/// box, the task record, the output's `Arc`) plus slack for queue and
/// scratch growth amortized over a smoke-sized run.
const MAX_WIDE_ALLOCS_PER_TASK: f64 = 3.5;

fn main() {
    let args = BenchArgs::parse("BENCH_local.json", 3);
    let (smoke, check, label, out_path) = (args.smoke, args.check, &args.label, &args.out);

    println!(
        "local-runtime dispatch macro-bench — {} scale, label `{label}`",
        args.scale()
    );
    println!(
        "{:<12} {:>7} {:>7} {:>10} {:>12} {:>12} {:>12} {:>10} {:>11} {:>8}",
        "case",
        "workers",
        "tasks",
        "wall_ms",
        "tasks/s",
        "allocs",
        "allocs/task",
        "live_peak",
        "parked_peak",
        "threads"
    );
    let mut results: Vec<LocalMeasurement> = Vec::new();
    for case in cases(smoke) {
        for &workers in case_worker_counts(&case, smoke) {
            let m = measure(&case, workers, args.repeats);
            println!(
                "{:<12} {:>7} {:>7} {:>10.2} {:>12.0} {:>12} {:>12.1} {:>10} {:>11} {:>8}",
                m.case,
                m.workers,
                m.tasks,
                m.wall_ms,
                m.tasks_per_sec,
                m.allocations,
                m.allocs_per_task,
                m.live_values_peak,
                m.parked_peak,
                m.peak_threads
            );
            results.push(m);
        }
    }

    // -- equivalence check: every worker count vs the 1-worker run ------
    let mut violations = 0;
    for case in cases(smoke) {
        let per_case: Vec<&LocalMeasurement> =
            results.iter().filter(|m| m.case == case.name).collect();
        let Some(reference) = per_case.iter().find(|m| m.workers == 1) else {
            continue;
        };
        for m in &per_case {
            if m.checksum != reference.checksum || m.tasks != reference.tasks {
                eprintln!(
                    "DIVERGENCE: {} at {} workers produced checksum {:#x} ({} tasks), \
                     1-worker reference {:#x} ({} tasks)",
                    m.case, m.workers, m.checksum, m.tasks, reference.checksum, reference.tasks
                );
                violations += 1;
            }
        }
    }
    if violations == 0 {
        println!("\nequivalence: all worker counts match the 1-worker reference execution");
    }

    // -- M:N gate: await-heavy must actually reach its parked plateau --
    for m in results.iter().filter(|m| m.case == "await-heavy") {
        if m.parked_peak < m.tasks * 9 / 10 {
            eprintln!(
                "PARK SHORTFALL: await-heavy at {} workers parked only {} of {} tasks \
                 concurrently — the M:N plateau was not reached",
                m.workers, m.parked_peak, m.tasks
            );
            violations += 1;
        } else {
            println!(
                "await-heavy at {} workers: {} tasks concurrently parked on {} OS thread(s)",
                m.workers, m.parked_peak, m.peak_threads
            );
        }
    }

    // -- allocation tripwire: a one-output task costs three blocks -----
    for m in results.iter().filter(|m| m.case == "wide") {
        if m.allocs_per_task > MAX_WIDE_ALLOCS_PER_TASK {
            eprintln!(
                "ALLOCATIONS: wide at {} workers allocates {:.2} times per task, \
                 limit {MAX_WIDE_ALLOCS_PER_TASK}",
                m.workers, m.allocs_per_task
            );
            violations += 1;
        }
    }

    // -- merge into the output file, preserving other labels ------------
    let runs = args.record_run(
        "local-dispatch",
        Vec::new(),
        vec![args.repeats_field(), results_value(&results)],
    );
    println!("wrote {} result(s) to {out_path}", results.len());

    // -- cross-label comparison (and the --check regression tripwire) ---
    let regressed = args.compare_labels(
        &runs,
        &results,
        |m, r| {
            stored_str(r, "case") == Some(&m.case)
                && stored_u64(r, "workers") == Some(m.workers as u64)
        },
        |m, r| {
            let other_ms = stored_f64(r, "wall_ms");
            let other_live = stored_u64(r, "live_values_peak").unwrap_or(0);
            let line = format!(
                "{:<9} {:>2}w wall {:>9.2} ms vs {:>9.2} ms ({:>5.2}x), tasks/s {:>10.0} vs {:>10.0}, live {:>6} vs {:>6}",
                m.case,
                m.workers,
                m.wall_ms,
                other_ms,
                other_ms / m.wall_ms,
                m.tasks_per_sec,
                stored_f64(r, "tasks_per_sec"),
                m.live_values_peak,
                other_live
            );
            (line, Some((m.wall_ms, other_ms)))
        },
    );
    if (check && violations > 0) || regressed {
        std::process::exit(2);
    }
}
