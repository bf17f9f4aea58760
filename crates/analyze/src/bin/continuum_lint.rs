//! `continuum-lint` — verify a workflow before running it.
//!
//! Input is a serialized [`continuum_analyze::LintBundle`]: a task
//! graph plus the platform it should run on, as dumped by
//! `experiments --dump-lint DIR` or any program serializing a bundle.
//!
//! ```text
//! continuum-lint check <bundle.lint.json> [--json]
//! continuum-lint lints
//! ```
//!
//! Exit codes: 0 no error-severity findings, 1 usage error, 2
//! unreadable/unparseable bundle, 3 error-severity findings present.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use continuum_analyze::{has_errors, Diagnostic, Lint, LintBundle, Severity};
use continuum_telemetry::{render_table, Align};

const USAGE: &str = "continuum-lint — ahead-of-run workflow verification

USAGE:
  continuum-lint check <bundle.lint.json> [--json]
  continuum-lint lints

Bundles are JSON LintBundle dumps, e.g. from
`cargo run --release -p continuum-bench --bin experiments -- --quick e1 --dump-lint target/lint`.

Exit codes: 0 clean (warnings allowed), 1 usage, 2 unreadable bundle,
3 error-severity findings.";

fn load_bundle(path: &str) -> LintBundle {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("continuum-lint: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match serde::from_str::<LintBundle>(&text) {
        Ok(bundle) => bundle,
        Err(e) => {
            eprintln!("continuum-lint: {path} is not a valid lint bundle: {e}");
            std::process::exit(2);
        }
    }
}

fn print_human(path: &str, bundle: &LintBundle, report: &[Diagnostic]) {
    let (errors, warnings, infos) =
        report
            .iter()
            .fold((0, 0, 0), |(e, w, i), d| match d.severity {
                Severity::Error => (e + 1, w, i),
                Severity::Warning => (e, w + 1, i),
                Severity::Info => (e, w, i + 1),
            });
    println!(
        "{path}: {} tasks, {} nodes — {errors} error(s), {warnings} warning(s), {infos} info",
        bundle.graph.len(),
        bundle.nodes.len()
    );
    if report.is_empty() {
        return;
    }
    println!();
    for d in report {
        println!("{d}");
    }
    // Per-lint summary table (shared renderer with continuum-trace).
    let mut rows: Vec<Vec<String>> = Vec::new();
    for lint in Lint::all() {
        let n = report.iter().filter(|d| d.lint == lint).count();
        if n > 0 {
            rows.push(vec![
                lint.name().to_string(),
                lint.severity().to_string(),
                n.to_string(),
            ]);
        }
    }
    println!();
    print!(
        "{}",
        render_table(
            &["lint", "severity", "count"],
            &[Align::Left, Align::Left, Align::Right],
            &rows,
        )
    );
}

fn cmd_check(path: &str, json: bool) {
    let bundle = load_bundle(path);
    let report = bundle.verify();
    if json {
        println!("{}", serde::to_string(&report));
    } else {
        print_human(path, &bundle, &report);
    }
    if has_errors(&report) {
        std::process::exit(3);
    }
}

fn cmd_lints() {
    let rows: Vec<Vec<String>> = Lint::all()
        .iter()
        .map(|l| vec![l.name().to_string(), l.severity().to_string()])
        .collect();
    print!(
        "{}",
        render_table(&["lint", "severity"], &[Align::Left, Align::Left], &rows)
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let positional: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();
    match (positional.first().map(|s| s.as_str()), &positional[1..]) {
        (Some("check"), [path]) => cmd_check(path, args.iter().any(|a| a == "--json")),
        (Some("lints"), []) => cmd_lints(),
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(1);
        }
    }
}
