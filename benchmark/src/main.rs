//! The repository's benchmark: six end-to-end paper workflows, each
//! checked, with per-layer budgets from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W] [--seed S] [--seconds N | --repeats N] [--trace [0|1]] \
//!     [--smoke] [--out F]
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --compare A.json B.json
//! ```
//!
//! The last line of standard output of a single-workload run is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod alloc;
mod compare;
mod cpu;
mod gen;
mod harness;
mod host;
mod metrics;
mod span;
mod stats;
mod workloads;

use harness::{Opts, Report};
use metrics::{END_TO_END, PER_LAYER};
use stats::Summary;
use std::fmt::Write as _;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

const USAGE: &str =
    "usage: continuum-benchmark [--workload W] [--seed S] [--seconds N | --repeats N] \
[--trace [0|1]] [--smoke] [--out F]\n       continuum-benchmark --compare A.json B.json\n       \
continuum-benchmark --list-metrics";

struct Cli {
    workload: Option<String>,
    opts: Opts,
    smoke: bool,
    out: Option<String>,
}

enum Command {
    Run(Cli),
    Compare(String, String),
    ListMetrics,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut cli = Cli {
        workload: None,
        opts: Opts {
            seed: 42,
            seconds: 10.0,
            repeats: None,
            trace: false,
        },
        smoke: false,
        out: None,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
        v.parse()
            .map_err(|_| format!("{flag}: `{v}` is not a valid number"))
    }
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => cli.workload = Some(value(&mut i, "--workload")?),
            "--seed" => cli.opts.seed = number("--seed", &value(&mut i, "--seed")?)?,
            "--seconds" => {
                cli.opts.seconds = number("--seconds", &value(&mut i, "--seconds")?)?;
            }
            "--repeats" => {
                let n: usize = number("--repeats", &value(&mut i, "--repeats")?)?;
                if n == 0 {
                    return Err("--repeats must be at least 1".into());
                }
                cli.opts.repeats = Some(n);
            }
            "--trace" => {
                // `--trace`, `--trace 0` and `--trace 1` are accepted.
                cli.opts.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => {
                        i += 1;
                        false
                    }
                    Some("1") => {
                        i += 1;
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => cli.smoke = true,
            "--out" => cli.out = Some(value(&mut i, "--out")?),
            "--compare" => {
                let a = value(&mut i, "--compare")?;
                let b = value(&mut i, "--compare")?;
                return Ok(Command::Compare(a, b));
            }
            "--list-metrics" => return Ok(Command::ListMetrics),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 1;
    }
    if let Some(w) = &cli.workload {
        if !workloads::WORKLOADS.iter().any(|(name, _)| name == w) {
            let names: Vec<&str> = workloads::WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "unknown workload `{w}`; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(Command::Run(cli))
}

/// A JSON number with all its digits (`{}` on `f64` round-trips).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One metric of a report: the value the run reports and the spread
/// of the samples behind it.
struct Row {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Summary,
    /// Whether the workload exercises this metric's layer.
    set: bool,
}

fn rows(report: &Report, trace: bool) -> Vec<Row> {
    if trace {
        let layers = report.layers.as_ref().expect("traced report has layers");
        layers
            .all()
            .map(|(p, value, set)| Row {
                name: p.name,
                unit: p.unit,
                value,
                samples: Summary::of(&[value]).expect("one sample"),
                set,
            })
            .collect()
    } else {
        report
            .end_to_end()
            .into_iter()
            .zip(END_TO_END)
            .map(|((name, samples), e)| {
                debug_assert_eq!(name, e.name);
                Row {
                    name: e.name,
                    unit: e.unit,
                    value: e.estimator.of(samples),
                    samples: Summary::of(samples).expect("at least one timed repeat"),
                    set: true,
                }
            })
            .collect()
    }
}

/// The contract's result line.
fn result_line(report: &Report, trace: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted.max(1),
        report.failed
    );
    for (i, r) in rows(report, trace).iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            r.name,
            num(r.value),
            r.unit
        );
    }
    out.push_str("}}");
    out
}

fn print_report(report: &Report, trace: bool) {
    println!(
        "\n== {} ({}) ==",
        report.workload,
        if trace {
            "traced, per-layer"
        } else {
            "end to end"
        }
    );
    if trace {
        // One traced repeat: a single value per metric. A layer the
        // workload does not exercise is 0 in the JSON and left out here.
        println!("{:<40} {:>8} {:>20}", "metric", "unit", "value");
        for r in rows(report, trace).iter().filter(|r| r.set) {
            println!("{:<40} {:>8} {:>20.6}", r.name, r.unit, r.value);
        }
    } else {
        println!(
            "{:<18} {:>6} {:>16} {:>16} {:>16} {:>16} {:>4}",
            "metric", "unit", "reported", "median", "min", "max", "n"
        );
        for r in rows(report, trace) {
            let s = r.samples;
            println!(
                "{:<18} {:>6} {:>16.6} {:>16.6} {:>16.6} {:>16.6} {:>4}",
                r.name, r.unit, r.value, s.median, s.min, s.max, s.n
            );
        }
    }
    println!(
        "attempted {}  failed {}  failed_share {}",
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
}

/// One workload's block of a result file.
fn report_json(report: &Report, trace: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.correct(),
        report.attempted,
        report.failed
    );
    for (i, r) in rows(report, trace).iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let s = r.samples;
        let _ = write!(
            out,
            "\"{}\": {{\"unit\": \"{}\", \"value\": {}, \"median\": {}, \"min\": {}, \
             \"max\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}}}",
            r.name,
            r.unit,
            num(r.value),
            num(s.median),
            num(s.min),
            num(s.max),
            num(s.q1),
            num(s.q3),
            s.n
        );
    }
    out.push_str("}}");
    out
}

fn write_trace(report: &Report) {
    let Some(json) = &report.trace_json else {
        return;
    };
    let dir = std::path::Path::new("benchmark/target/trace");
    let path = dir.join(format!("{}.trace.json", report.workload));
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

fn run(cli: &Cli) -> ExitCode {
    let names: Vec<&str> = match &cli.workload {
        Some(w) => vec![w.as_str()],
        None => workloads::WORKLOADS.iter().map(|(n, _)| *n).collect(),
    };
    let mut all_correct = true;
    let mut blocks = Vec::new();
    for name in &names {
        let report = workloads::run(name, cli.smoke, &cli.opts).expect("validated workload name");
        print_report(&report, cli.opts.trace);
        write_trace(&report);
        all_correct &= report.correct();
        blocks.push(format!(
            "\"{name}\": {}",
            report_json(&report, cli.opts.trace)
        ));
        // Last line of a single-workload run; one line per workload
        // otherwise.
        println!("{}", result_line(&report, cli.opts.trace));
    }
    if let Some(path) = &cli.out {
        let doc = format!(
            "{{\"benchmark\": \"continuum\", \"claim\": null, \"host\": {}, \"seed\": {}, \
             \"smoke\": {}, \"trace\": {}, \"workloads\": {{{}}}}}\n",
            host::host_json(),
            cli.opts.seed,
            cli.smoke,
            cli.opts.trace,
            blocks.join(", ")
        );
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("output checks failed");
        ExitCode::from(1)
    }
}

fn list_metrics() {
    for e in END_TO_END {
        println!(
            "end_to_end {} {} {} {}",
            e.name,
            e.unit,
            e.better.as_str(),
            e.bound
        );
    }
    for p in PER_LAYER {
        println!(
            "per_layer {} {} {} -> {}",
            p.name,
            p.unit,
            p.better.as_str(),
            p.moves
        );
    }
    for (name, why) in workloads::WORKLOADS {
        println!("workload {name} {why}");
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Run(cli)) => run(&cli),
        Ok(Command::Compare(a, b)) => compare::compare(&a, &b),
        Ok(Command::ListMetrics) => {
            list_metrics();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
