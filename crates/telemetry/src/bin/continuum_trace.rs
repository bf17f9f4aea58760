//! `continuum-trace` — diagnose a recorded run from its trace file.
//!
//! Works on Chrome `trace_event` JSON produced by either engine (the
//! `--trace` flag of the experiments binary, `telemetry_demo`, or any
//! [`continuum_telemetry::chrome_trace`] export):
//!
//! ```text
//! continuum-trace summary        trace.json
//! continuum-trace critical-path  trace.json [--limit N]
//! continuum-trace attrib         trace.json [--json]
//! continuum-trace diff           a.json b.json
//! continuum-trace merge          a.json b.json [...] [--out PATH] [--check]
//! continuum-trace convert        trace.json --to paraver|prometheus|chrome [--out PATH]
//! ```
//!
//! `merge` joins per-agent trace files of one distributed run into a
//! single causally-consistent trace: clocks are re-aligned from the
//! offload send/reply handshakes and remote agents' rows are remapped
//! under a *remote* track family. On a merged (or any span-context
//! carrying) trace, `critical-path` and `attrib` additionally report
//! the cross-agent view: the end-to-end critical chain through offload
//! hops and a per-hop compute/transfer/queue/network attribution whose
//! buckets sum exactly to the makespan.
//!
//! Exit codes: 0 success, 1 usage error, 2 unreadable/unparseable
//! trace, 3 parseable trace with nothing to attribute (empty run),
//! 4 `merge --check` invariant violation.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use continuum_telemetry::{
    chrome_trace, cross_agent_report, merge_traces, paraver_trace, parse_chrome_trace,
    prometheus_text, render_table, trace_critical_chain, write_chrome_trace, AgentTrace, Align,
    CrossAgentReport, Event, MetricsSnapshot, RunDiagnostics, TaskObs,
};
use std::fmt;
use std::io::{self, Write};

const USAGE: &str = "continuum-trace — trace analysis for continuum runs

USAGE:
  continuum-trace summary        <trace.json>
  continuum-trace critical-path  <trace.json> [--limit N]
  continuum-trace attrib         <trace.json> [--json]
  continuum-trace diff           <a.json> <b.json>
  continuum-trace merge          <a.json> <b.json> [...] [--out PATH] [--check]
  continuum-trace convert        <trace.json> --to paraver|prometheus|chrome [--out PATH]

Traces are Chrome trace_event JSON, e.g. from
`cargo run --release -p continuum-bench --bin experiments -- --quick e1 --trace e1.json`
or `cargo run --release --example telemetry_demo`. `merge` joins one
trace file per agent (e.g. from `--example trace_merge_demo`) into a
single causally-consistent trace; `--check` fails (exit 4) unless the
cross-agent attribution sums to the makespan and the critical path
crosses at least one offload hop.";

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn load_events(path: &str) -> Vec<Event> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("continuum-trace: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match parse_chrome_trace(&text) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("continuum-trace: {path} is not a valid trace: {e}");
            std::process::exit(2);
        }
    }
}

/// The formatter sink [`write_chrome_trace`] wants, over a byte sink:
/// counts what went through and keeps the I/O error `fmt::Error`
/// cannot carry.
struct Utf8Sink<W> {
    inner: W,
    bytes: usize,
    error: Option<io::Error>,
}

impl<W: Write> fmt::Write for Utf8Sink<W> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes += s.len();
        self.inner.write_all(s.as_bytes()).map_err(|e| {
            self.error = Some(e);
            fmt::Error
        })
    }
}

/// Writes the Chrome export of `events` to `path` row by row through a
/// buffer, so a large trace is never held as text; returns its length.
fn stream_chrome_trace(path: &str, events: &[Event]) -> io::Result<usize> {
    let mut sink = Utf8Sink {
        inner: io::BufWriter::new(std::fs::File::create(path)?),
        bytes: 0,
        error: None,
    };
    if write_chrome_trace(events, &mut sink).is_err() {
        return Err(sink
            .error
            .unwrap_or_else(|| io::Error::other("export failed")));
    }
    sink.inner.flush()?;
    Ok(sink.bytes)
}

fn write_chrome_file(path: &str, events: &[Event]) {
    match stream_chrome_trace(path, events) {
        Ok(bytes) => eprintln!("wrote {bytes} bytes to {path}"),
        Err(e) => {
            eprintln!("continuum-trace: cannot write {path}: {e}");
            std::process::exit(2);
        }
    }
}

fn seconds(us: u64) -> f64 {
    us as f64 / 1e6
}

fn cmd_summary(path: &str) {
    let events = load_events(path);
    if events.is_empty() {
        println!("{path}: empty trace (no events)");
        std::process::exit(3);
    }
    let (mut spans, mut instants, mut counters) = (0usize, 0usize, 0usize);
    for event in &events {
        match event {
            Event::Span { .. } => spans += 1,
            Event::Instant { .. } => instants += 1,
            Event::Counter { .. } => counters += 1,
        }
    }
    println!(
        "{path}: {} events ({spans} spans, {instants} markers, {counters} counter samples)\n",
        events.len()
    );
    print!("{}", MetricsSnapshot::from_events(&events).summary());
    let gantt = continuum_telemetry::gantt::render_events(&events, 72);
    if !gantt.is_empty() {
        println!("\n{gantt}");
    }
}

fn print_chain(chain: &[TaskObs], makespan_us: u64, limit: usize) {
    println!(
        "critical chain: {} hops over {:.3} s makespan",
        chain.len(),
        seconds(makespan_us)
    );
    let work: u64 = chain.iter().map(TaskObs::dur_us).sum();
    println!(
        "  on-chain work {:.3} s ({:.1}% of makespan); the rest is waiting",
        seconds(work),
        if makespan_us > 0 {
            100.0 * work as f64 / makespan_us as f64
        } else {
            0.0
        }
    );
    println!(
        "  {:<28} {:<10} {:>11} {:>11} {:>11}",
        "task", "where", "start_s", "dur_s", "gap_s"
    );
    let skip = chain.len().saturating_sub(limit);
    if skip > 0 {
        println!("  ... {skip} earlier hop(s) elided (--limit {limit})");
    }
    let mut prev_end = if skip > 0 { chain[skip - 1].end_us } else { 0 };
    for obs in &chain[skip..] {
        println!(
            "  {:<28} {:<10} {:>11.3} {:>11.3} {:>11.3}",
            obs.name,
            obs.track.label(),
            seconds(obs.start_us),
            seconds(obs.dur_us()),
            seconds(obs.start_us.saturating_sub(prev_end))
        );
        prev_end = obs.end_us;
    }
}

fn agent_label(agent: u32) -> String {
    if agent == continuum_telemetry::SpanContext::COORDINATOR {
        "coord".to_string()
    } else {
        format!("agent{agent}")
    }
}

/// Prints the cross-agent view of a span-context-carrying trace: the
/// causal critical chain through offload hops, and the per-hop
/// attribution whose buckets sum exactly to the makespan.
fn print_cross_agent(report: &CrossAgentReport) {
    println!(
        "\ncross-agent trace `{}`: {:.3} s end-to-end, {} hop rows, critical path crosses {} offload hop(s)",
        report.root_name,
        seconds(report.makespan_us),
        report.hops.len(),
        report.critical_offload_hops()
    );
    let cells: Vec<Vec<String>> = report
        .hops
        .iter()
        .map(|h| {
            vec![
                format!("{}{}", "  ".repeat(h.depth as usize), h.name),
                format!("{}→{}", agent_label(h.from_agent), agent_label(h.to_agent)),
                format!("{:.3}", seconds(h.compute_us)),
                format!("{:.3}", seconds(h.transfer_us)),
                format!("{:.3}", seconds(h.queue_us)),
                format!("{:.3}", seconds(h.network_us)),
                format!("{:.3}", seconds(h.total_us())),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "hop",
                "route",
                "compute_s",
                "transfer_s",
                "queue_s",
                "network_s",
                "total_s"
            ],
            &[
                Align::Left,
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
            ],
            &cells,
        )
    );
    println!(
        "  attributed {:.3} s of {:.3} s makespan (exact tiling)",
        seconds(report.attributed_total_us()),
        seconds(report.makespan_us)
    );
    println!("  causal critical chain:");
    for hop in &report.critical {
        println!(
            "    {:<28} {:<8} {:>9.3}s → {:>9.3}s{}",
            hop.name,
            agent_label(hop.agent_id),
            seconds(hop.start_us),
            seconds(hop.end_us),
            if hop.offload { "  [offload]" } else { "" }
        );
    }
}

fn cmd_critical_path(path: &str, limit: usize) {
    let events = load_events(path);
    let chain = trace_critical_chain(&events);
    if chain.is_empty() {
        eprintln!("continuum-trace: no task executions in {path}");
        std::process::exit(3);
    }
    let makespan_us = chain.last().map(|o| o.end_us).unwrap_or(0);
    print_chain(&chain, makespan_us, limit);
    if let Ok(report) = cross_agent_report(&events) {
        print_cross_agent(&report);
    }
    println!(
        "\nnote: chain inferred from the trace alone (latest-gating-span\nheuristic); run the analysis against the DAG for proven edges."
    );
}

fn cmd_attrib(path: &str, json: bool) {
    let events = load_events(path);
    let diag = RunDiagnostics::from_events(&events);
    if diag.is_empty() {
        eprintln!("continuum-trace: empty trace — nothing to attribute in {path} (no task rows)");
        std::process::exit(3);
    }
    if diag.makespan_us == 0 {
        eprintln!("continuum-trace: empty trace — zero makespan in {path}");
        std::process::exit(3);
    }
    if json {
        println!("{}", serde::Serialize::to_json_value(&diag));
    } else {
        print!("{diag}");
        if let Ok(report) = cross_agent_report(&events) {
            print_cross_agent(&report);
        }
    }
}

fn cmd_merge(paths: &[&String], out: Option<String>, check: bool) {
    let traces: Vec<AgentTrace> = paths
        .iter()
        .map(|p| AgentTrace::infer(load_events(p)))
        .collect();
    let merged = match merge_traces(&traces) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("continuum-trace: merge failed: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "merged {} traces, {} events, root agent {}",
        traces.len(),
        merged.events.len(),
        agent_label(merged.root.agent_id)
    );
    for a in &merged.alignments {
        eprintln!(
            "  clock {}: offset {:+} µs (feasible [{}, {}] µs, via {})",
            agent_label(a.agent_id),
            a.offset_us,
            a.feasible_lo_us,
            a.feasible_hi_us,
            agent_label(a.via)
        );
    }
    for v in &merged.violations {
        eprintln!("  violation: {v}");
    }
    if let Some(out_path) = out {
        write_chrome_file(&out_path, &merged.events);
    }
    let report = match cross_agent_report(&merged.events) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("continuum-trace: no cross-agent view: {e}");
            std::process::exit(3);
        }
    };
    print_cross_agent(&report);
    if check {
        let mut failures = Vec::new();
        if !merged.violations.is_empty() {
            failures.push(format!(
                "{} happens-before violation(s)",
                merged.violations.len()
            ));
        }
        if report.attributed_total_us() != report.makespan_us {
            failures.push(format!(
                "attribution does not sum to makespan ({} µs != {} µs)",
                report.attributed_total_us(),
                report.makespan_us
            ));
        }
        if report.critical_offload_hops() == 0 {
            failures.push("critical path crosses no offload hop".to_string());
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("continuum-trace: check failed: {f}");
            }
            std::process::exit(4);
        }
        eprintln!("check passed: buckets sum to makespan, critical path crosses an offload hop");
    }
}

fn cmd_diff(path_a: &str, path_b: &str) {
    let a = RunDiagnostics::from_events(&load_events(path_a));
    let b = RunDiagnostics::from_events(&load_events(path_b));
    let pct = |x: f64, y: f64| {
        if x != 0.0 {
            format!("{:+.1}%", 100.0 * (y - x) / x)
        } else {
            "-".to_string()
        }
    };
    let rows: Vec<(&str, f64, f64)> = vec![
        ("makespan_s", seconds(a.makespan_us), seconds(b.makespan_us)),
        ("rows", a.nodes.len() as f64, b.nodes.len() as f64),
        (
            "tasks_committed",
            a.tasks_committed as f64,
            b.tasks_committed as f64,
        ),
        ("tasks_failed", a.tasks_failed as f64, b.tasks_failed as f64),
        ("replays", a.replays as f64, b.replays as f64),
        (
            "compute_s",
            seconds(a.nodes.iter().map(|n| n.compute_us).sum()),
            seconds(b.nodes.iter().map(|n| n.compute_us).sum()),
        ),
        (
            "transfer_s",
            seconds(a.nodes.iter().map(|n| n.transfer_us).sum()),
            seconds(b.nodes.iter().map(|n| n.transfer_us).sum()),
        ),
        (
            "sched_stall_s",
            seconds(a.nodes.iter().map(|n| n.sched_stall_us).sum()),
            seconds(b.nodes.iter().map(|n| n.sched_stall_us).sum()),
        ),
        (
            "queue_wait_s",
            seconds(a.nodes.iter().map(|n| n.queue_wait_us).sum()),
            seconds(b.nodes.iter().map(|n| n.queue_wait_us).sum()),
        ),
        (
            "idle_s",
            seconds(a.nodes.iter().map(|n| n.idle_us).sum()),
            seconds(b.nodes.iter().map(|n| n.idle_us).sum()),
        ),
        (
            "mean_busy_frac",
            a.utilization.mean_busy_fraction,
            b.utilization.mean_busy_fraction,
        ),
        (
            "imbalance",
            a.utilization.imbalance_ratio,
            b.utilization.imbalance_ratio,
        ),
        ("gini", a.utilization.gini, b.utilization.gini),
    ];
    let cells: Vec<Vec<String>> = rows
        .into_iter()
        .map(|(name, x, y)| {
            vec![
                name.to_string(),
                format!("{x:.3}"),
                format!("{y:.3}"),
                pct(x, y),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &["metric", path_a, path_b, "delta"],
            &[Align::Left, Align::Right, Align::Right, Align::Right],
            &cells,
        )
    );
}

fn cmd_convert(path: &str, to: &str, out: Option<String>) {
    let events = load_events(path);
    if let ("chrome", Some(out_path)) = (to, &out) {
        write_chrome_file(out_path, &events);
        return;
    }
    let rendered = match to {
        "chrome" => chrome_trace(&events),
        "paraver" => paraver_trace(&events),
        "prometheus" => prometheus_text(&MetricsSnapshot::from_events(&events)),
        other => {
            eprintln!("continuum-trace: unknown format {other:?} (chrome|paraver|prometheus)");
            std::process::exit(1);
        }
    };
    match out {
        Some(out_path) => {
            if let Err(e) = std::fs::write(&out_path, &rendered) {
                eprintln!("continuum-trace: cannot write {out_path}: {e}");
                std::process::exit(2);
            }
            eprintln!("wrote {} bytes to {out_path}", rendered.len());
        }
        None => print!("{rendered}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let positional: Vec<&String> = {
        // Drop flags and their values to find the subcommand/paths.
        let mut out = Vec::new();
        let mut skip_next = false;
        for arg in &args {
            if skip_next {
                skip_next = false;
                continue;
            }
            if arg == "--json" || arg == "--check" {
                continue;
            }
            if arg.starts_with("--") {
                skip_next = true;
                continue;
            }
            out.push(arg);
        }
        out
    };
    let Some(command) = positional.first() else {
        eprintln!("{USAGE}");
        std::process::exit(1);
    };
    match (command.as_str(), &positional[1..]) {
        ("summary", [path]) => cmd_summary(path),
        ("critical-path", [path]) => {
            let limit = flag_value(&args, "--limit")
                .and_then(|v| v.parse().ok())
                .unwrap_or(30);
            cmd_critical_path(path, limit);
        }
        ("attrib", [path]) => cmd_attrib(path, args.iter().any(|a| a == "--json")),
        ("diff", [a, b]) => cmd_diff(a, b),
        ("merge", paths) if !paths.is_empty() => {
            cmd_merge(
                paths,
                flag_value(&args, "--out"),
                args.iter().any(|a| a == "--check"),
            );
        }
        ("convert", [path]) => {
            let Some(to) = flag_value(&args, "--to") else {
                eprintln!("continuum-trace: convert needs --to paraver|prometheus|chrome");
                std::process::exit(1);
            };
            cmd_convert(path, &to, flag_value(&args, "--out"));
        }
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(1);
        }
    }
}
