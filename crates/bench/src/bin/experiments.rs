//! Experiment driver: regenerates every evaluation-grade claim of the
//! paper as a table.
//!
//! ```text
//! cargo run --release -p continuum-bench --bin experiments            # all, full scale
//! cargo run --release -p continuum-bench --bin experiments -- --quick # all, CI scale
//! cargo run --release -p continuum-bench --bin experiments -- e2 e6   # a subset
//! cargo run --release -p continuum-bench --bin experiments -- \
//!     --quick --json results.json --trace e1.trace.json               # machine-readable
//! ```
//!
//! `--json <path>` writes the selected experiments' tables (id, claim,
//! headers, rows, finding) as a JSON document. `--trace <path>` writes
//! the e1 campaign as Chrome `trace_event` JSON with virtual
//! timestamps (open in `chrome://tracing` or Perfetto).

#![deny(clippy::unwrap_used, clippy::expect_used)]

use continuum_bench::{e01_scalability, fixtures, run_experiment, Scale, ALL_EXPERIMENTS};

/// The value following `flag` on the command line.
fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let json_path = flag_value(&args, "--json");
    let trace_path = flag_value(&args, "--trace");
    let lint_dir = flag_value(&args, "--dump-lint");
    let selected: Vec<String> = {
        let mut skip_next = false;
        args.iter()
            .filter(|a| {
                if skip_next {
                    skip_next = false;
                    return false;
                }
                if *a == "--json" || *a == "--trace" || *a == "--dump-lint" {
                    skip_next = true;
                    return false;
                }
                !a.starts_with("--")
            })
            .map(|a| a.to_lowercase())
            .collect()
    };
    let ids: Vec<&str> = if selected.is_empty() {
        ALL_EXPERIMENTS.to_vec()
    } else {
        selected.iter().map(String::as_str).collect()
    };

    println!(
        "continuum experiment harness — reproducing Badia et al., ICDCS 2019 ({} scale)\n",
        if quick { "quick" } else { "full" }
    );
    let mut tables = Vec::new();
    let mut unknown = Vec::new();
    for id in ids {
        match run_experiment(id, scale) {
            Some(Ok(table)) => {
                println!("{table}");
                tables.push(table);
            }
            Some(Err(err)) => die(&format!("{id} failed: {err}")),
            None => unknown.push(id.to_string()),
        }
    }
    if let Some(path) = json_path {
        let doc = serde::Value::Obj(vec![
            (
                "scale".to_string(),
                serde::Value::Str(if quick { "quick" } else { "full" }.to_string()),
            ),
            (
                "experiments".to_string(),
                serde::Value::Arr(tables.iter().map(serde::Serialize::to_json_value).collect()),
            ),
        ]);
        write_or_die(&path, &doc.to_string());
        println!("wrote {} experiment result(s) to {path}", tables.len());
    }
    if let Some(path) = trace_path {
        match e01_scalability::chrome_trace(scale) {
            Ok(trace) => write_or_die(&path, &trace),
            Err(err) => die(&format!("e1 trace failed: {err}")),
        }
        println!("wrote e1 Chrome trace to {path}");
    }
    if let Some(dir) = lint_dir {
        dump_lint_bundles(&dir, &tables);
    }
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment id(s): {} (valid: {})",
            unknown.join(", "),
            ALL_EXPERIMENTS.join(", ")
        );
        std::process::exit(2);
    }
}

/// Writes one `eNN.lint.json` bundle per ran experiment into `dir`,
/// ready for `continuum-lint check`.
fn dump_lint_bundles(dir: &str, tables: &[continuum_bench::ExperimentTable]) {
    if let Err(err) = std::fs::create_dir_all(dir) {
        die(&format!("cannot create {dir}: {err}"));
    }
    let mut written = 0usize;
    for id in tables.iter().map(|t| t.id.as_str()) {
        let Some(bundle) = fixtures::lint_fixture(id) else {
            continue;
        };
        // Ids are `e` and a number; the file name pads it to two digits.
        let path = format!("{dir}/e{:0>2}.lint.json", &id[1..]);
        write_or_die(&path, &serde::to_string(&bundle));
        written += 1;
    }
    println!("wrote {written} lint bundle(s) to {dir}");
}

fn write_or_die(path: &str, contents: &str) {
    if let Err(err) = std::fs::write(path, contents) {
        die(&format!("cannot write {path}: {err}"));
    }
}

fn die(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(1);
}
