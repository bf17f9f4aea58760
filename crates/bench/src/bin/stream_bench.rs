//! Streaming-pipeline macro-benchmark driver: measures streamed vs
//! batch renditions of the same pipelines on both engines and records
//! the results in a labelled, mergeable JSON file.
//!
//! ```text
//! cargo run --release -p continuum-bench --bin stream_bench -- --label seed
//! cargo run --release -p continuum-bench --bin stream_bench -- --smoke --check
//! ```
//!
//! `--label <name>` stores this binary's measurements under that name
//! in the output file (default `BENCH_stream.json`), preserving runs
//! recorded under other labels; when several labels are present, a
//! comparison table is printed. `--smoke` shrinks workloads for CI.
//! `--check` enforces the streaming subsystem's invariants and exits
//! non-zero on violation: every measurement's streamed makespan must
//! be strictly below its batch equivalent, streamed and batch sinks
//! must produce the identical checksum, a streamed local run must not
//! allocate more than `elements / 4` times beyond its zero-element
//! run, and no case/worker pair may regress more than 3× the streamed
//! wall time of the same pair under any other same-scale stored label.

use continuum_bench::alloc::CountingAllocator;
use continuum_bench::cli::{results_value, stored_f64, stored_str, stored_u64, BenchArgs};
use continuum_bench::stream_bench::{
    cases, check_violations, measure_local, measure_sim, worker_counts, StreamMeasurement,
};

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn print_row(m: StreamMeasurement) -> StreamMeasurement {
    println!(
        "{:<6} {:<20} {:>7} {:>8} {:>12.2} {:>12.2} {:>7.2}x {:>10}",
        m.engine,
        m.case,
        m.workers,
        m.elements,
        m.streamed_ms,
        m.batch_ms,
        m.speedup,
        m.allocations
    );
    m
}

fn main() {
    let args = BenchArgs::parse("BENCH_stream.json", 3);
    let (smoke, check, label, out_path) = (args.smoke, args.check, &args.label, &args.out);

    println!(
        "streaming-pipeline macro-bench — {} scale, label `{label}`",
        args.scale()
    );
    println!(
        "{:<6} {:<20} {:>7} {:>8} {:>12} {:>12} {:>8} {:>10}",
        "engine", "case", "workers", "elems", "streamed_ms", "batch_ms", "speedup", "allocs"
    );
    let mut results: Vec<StreamMeasurement> = Vec::new();
    for case in cases(smoke) {
        for &workers in worker_counts(smoke) {
            // A blocked stream endpoint holds its worker thread, so a
            // case is only live with a worker per concurrent stage.
            if workers < case.min_workers() {
                continue;
            }
            results.push(print_row(measure_local(&case, workers, args.repeats)));
        }
    }
    results.push(print_row(measure_sim(if smoke { 32 } else { 256 })));

    // -- invariant check: overlap wins, identical sink checksums --------
    let violations = check_violations(&results);
    for v in &violations {
        eprintln!("VIOLATION: {v}");
    }
    if violations.is_empty() {
        println!(
            "\ninvariants: streamed strictly below batch everywhere, checksums agree, \
             no per-element allocation"
        );
    }

    // -- merge into the output file, preserving other labels ------------
    let runs = args.record_run(
        "stream-pipeline",
        Vec::new(),
        vec![args.repeats_field(), results_value(&results)],
    );
    println!("wrote {} result(s) to {out_path}", results.len());

    // -- cross-label comparison (and the --check regression tripwire) ---
    let regressed = args.compare_labels(
        &runs,
        &results,
        |m, r| {
            stored_str(r, "engine") == Some(&m.engine)
                && stored_str(r, "case") == Some(&m.case)
                && stored_u64(r, "workers") == Some(m.workers as u64)
        },
        |m, r| {
            let other_streamed = stored_f64(r, "streamed_ms");
            let line = format!(
                "{:<6} {:<20} {:>2}w streamed {:>9.2} ms vs {:>9.2} ms ({:>5.2}x), speedup {:>5.2}x vs {:>5.2}x",
                m.engine,
                m.case,
                m.workers,
                m.streamed_ms,
                other_streamed,
                other_streamed / m.streamed_ms,
                m.speedup,
                stored_f64(r, "speedup")
            );
            // Only local wall-clock rows are comparable for the
            // tripwire; sim rows are exact and covered by the strict
            // streamed-below-batch invariant above.
            let gate = (m.engine == "local").then_some((m.streamed_ms, other_streamed));
            (line, gate)
        },
    );
    if (check && !violations.is_empty()) || regressed {
        std::process::exit(2);
    }
}
