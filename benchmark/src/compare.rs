//! `--compare A.json B.json`: per workload × end-to-end metric, both
//! reported values, the change and the bound. A metric whose run-to-run spread
//! exceeds its bound in either file is `unresolved`, never `ok`.

use crate::metrics::{Better, END_TO_END};
use serde::json::{parse, Value};
use std::process::ExitCode;

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

struct Cell {
    /// The value the run reported for the metric.
    value: f64,
    /// Interquartile range of its repeats over their median.
    spread: f64,
}

fn cell(workload: &Value, metric: &str) -> Option<Cell> {
    let m = workload.get("metrics")?.get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let median = m.get("median")?.as_f64()?;
    let (q1, q3) = (m.get("q1")?.as_f64()?, m.get("q3")?.as_f64()?);
    let spread = if median == 0.0 {
        0.0
    } else {
        (q3 - q1) / median.abs()
    };
    Some(Cell { value, spread })
}

/// Prints the comparison; non-zero exit on a regression beyond a
/// bound, a failed output check or a malformed file.
pub fn compare(a_path: &str, b_path: &str) -> ExitCode {
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (Some(wa), Some(wb)) = (
        a.get("workloads").and_then(Value::as_obj),
        b.get("workloads").and_then(Value::as_obj),
    ) else {
        eprintln!("both files need a `workloads` object (write them with --out)");
        return ExitCode::from(2);
    };
    println!("A = {a_path}\nB = {b_path}  (change = B against A; + is worse)");
    println!(
        "{:<18} {:<16} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "A", "B", "change", "bound", "A iqr", "B iqr"
    );
    let mut violations = 0;
    let mut unresolved = 0;
    for (name, block_a) in wa {
        let Some((_, block_b)) = wb.iter().find(|(n, _)| n == name) else {
            println!("{name:<18} missing from B");
            violations += 1;
            continue;
        };
        for side in [block_a, block_b] {
            if side.get("correct").and_then(Value::as_bool) != Some(true)
                || side.get("failed").and_then(Value::as_u64) != Some(0)
            {
                println!("{name:<18} output checks failed (failed_share must be 0)");
                violations += 1;
            }
        }
        for e in END_TO_END {
            let (Some(ca), Some(cb)) = (cell(block_a, e.name), cell(block_b, e.name)) else {
                println!("{name:<18} {:<16} missing", e.name);
                violations += 1;
                continue;
            };
            let change = match e.better {
                Better::Lower => (cb.value - ca.value) / ca.value.abs(),
                Better::Higher => (ca.value - cb.value) / ca.value.abs(),
            };
            let verdict = if ca.spread > e.bound || cb.spread > e.bound {
                unresolved += 1;
                "unresolved"
            } else if change > e.bound {
                violations += 1;
                "REGRESSION"
            } else {
                "ok"
            };
            println!(
                "{name:<18} {:<16} {:>14.6} {:>14.6} {:>+8.2}% {:>6.1}% {:>7.2}% {:>7.2}%  {verdict}",
                e.name,
                ca.value,
                cb.value,
                change * 100.0,
                e.bound * 100.0,
                ca.spread * 100.0,
                cb.spread * 100.0
            );
        }
    }
    println!("{violations} violation(s), {unresolved} unresolved");
    if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
