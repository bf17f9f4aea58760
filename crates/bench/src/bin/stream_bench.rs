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

use continuum_bench::stream_bench::{
    cases, check_violations, measure_local, measure_sim, worker_counts, StreamMeasurement,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts heap allocations on every thread, including workers. The
/// metric is "how many times the channel subsystem asked the allocator
/// for memory while moving a window of elements".
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counter is a
// relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args.iter().any(|a| a == "--check");
    let label = flag_value(&args, "--label").unwrap_or_else(|| "current".to_string());
    let out_path = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_stream.json".to_string());
    let repeats: usize = flag_value(&args, "--repeats")
        .and_then(|r| r.parse().ok())
        .unwrap_or(3);

    println!(
        "streaming-pipeline macro-bench — {} scale, label `{label}`",
        if smoke { "smoke" } else { "full" }
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
            let m = measure_local(&case, workers, repeats, || {
                ALLOCATIONS.load(Ordering::Relaxed)
            });
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
            results.push(m);
        }
    }
    let m = measure_sim(if smoke { 32 } else { 256 });
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
    results.push(m);

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
    let mut runs: Vec<(String, serde::Value)> = match std::fs::read_to_string(&out_path) {
        Ok(text) => serde::json::parse(&text)
            .ok()
            .and_then(|doc| {
                doc.get("runs")
                    .and_then(|r| r.as_obj().map(<[(String, serde::Value)]>::to_vec))
            })
            .unwrap_or_default(),
        Err(_) => Vec::new(),
    };
    let entry = serde::Value::Obj(vec![
        (
            "scale".to_string(),
            serde::Value::Str(if smoke { "smoke" } else { "full" }.to_string()),
        ),
        ("repeats".to_string(), serde::Value::U64(repeats as u64)),
        (
            "results".to_string(),
            serde::Value::Arr(
                results
                    .iter()
                    .map(serde::Serialize::to_json_value)
                    .collect(),
            ),
        ),
    ]);
    runs.retain(|(k, _)| *k != label);
    runs.push((label.clone(), entry));
    let doc = serde::Value::Obj(vec![
        (
            "bench".to_string(),
            serde::Value::Str("stream-pipeline".to_string()),
        ),
        ("runs".to_string(), serde::Value::Obj(runs.clone())),
    ]);
    if let Err(e) = std::fs::write(&out_path, doc.to_string() + "\n") {
        eprintln!("cannot write {out_path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {} result(s) to {out_path}", results.len());

    // -- cross-label comparison (and the --check regression tripwire) ---
    let mut regressed = false;
    for (other_label, other) in &runs {
        if *other_label == label {
            continue;
        }
        let Some(other_results) = other.get("results").and_then(serde::Value::as_arr) else {
            continue;
        };
        let same_scale = other.get("scale").and_then(serde::Value::as_str)
            == Some(if smoke { "smoke" } else { "full" });
        println!("\nlabel `{label}` vs `{other_label}`:");
        for m in &results {
            let found = other_results.iter().find(|r| {
                r.get("engine").and_then(serde::Value::as_str) == Some(&m.engine)
                    && r.get("case").and_then(serde::Value::as_str) == Some(&m.case)
                    && r.get("workers").and_then(serde::Value::as_u64) == Some(m.workers as u64)
            });
            let Some(found) = found else { continue };
            let other_streamed = found
                .get("streamed_ms")
                .and_then(serde::Value::as_f64)
                .unwrap_or(f64::NAN);
            let other_speedup = found
                .get("speedup")
                .and_then(serde::Value::as_f64)
                .unwrap_or(f64::NAN);
            println!(
                "  {:<6} {:<20} {:>2}w streamed {:>9.2} ms vs {:>9.2} ms ({:>5.2}x), speedup {:>5.2}x vs {:>5.2}x",
                m.engine,
                m.case,
                m.workers,
                m.streamed_ms,
                other_streamed,
                other_streamed / m.streamed_ms,
                m.speedup,
                other_speedup
            );
            // Only same-scale local wall-clock rows are comparable for
            // the tripwire; sim rows are exact and covered by the
            // strict streamed-below-batch invariant above.
            if check && same_scale && m.engine == "local" && m.streamed_ms > other_streamed * 3.0 {
                eprintln!(
                    "  REGRESSION: {}/{}w streamed is {:.2}x slower than label `{other_label}`",
                    m.case,
                    m.workers,
                    m.streamed_ms / other_streamed
                );
                regressed = true;
            }
        }
    }
    if check && !violations.is_empty() {
        std::process::exit(2);
    }
    if regressed {
        std::process::exit(2);
    }
}
