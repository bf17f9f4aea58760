//! `model_check` — explore the runtime's concurrency protocols as
//! **real code** run under the DPOR schedule-exploration scheduler
//! (`continuum_analyze::conc::sched` over
//! `continuum_runtime::conc_targets`). The targets need
//! `--features conc-instrument`; without it the run reports them as
//! skipped.
//!
//! ```text
//! model_check [--smoke] [--json] [--only SUBSTR]
//! model_check --replay TARGET SCHEDULE      # e.g. --replay sched::oneshot 1,0,0,1
//! ```
//!
//! Every run covers the correct protocols *and* the planted-bug
//! variants: a green run therefore proves both that the protocols
//! verify and that the harness still detects the historical failure
//! modes. `--only` selects targets by name *before* anything is
//! explored. `--json` emits one machine-readable report (used by CI and
//! the CLI tests), including the DPOR-vs-naive pruning ratio.
//!
//! Exit codes (stable, asserted by `tests/model_check_cli.rs`):
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | all targets verified clean and all planted bugs detected |
//! | 1    | usage or harness error (bad flags, unknown replay target) |
//! | 2    | a violation in a target expected clean (or budget exhausted before the schedule space — an unproven target is not a clean one) |
//! | 3    | a planted bug was **not** detected, or was found as the wrong kind of violation: the checker itself has regressed and no green result can be trusted |
//!
//! When both conditions occur, 3 wins: a harness that misses planted
//! bugs invalidates every other verdict in the run.
//!
//! The hidden flags `--demo-violation` / `--demo-missed-plant` append a
//! deliberately misclassified op-less target, which any build can
//! explore, so the exit paths themselves stay testable.

#![deny(clippy::unwrap_used, clippy::expect_used)]

use continuum_analyze::conc::sched::{
    explore_sched, format_schedule, Expect, ExploreOpts, Pruning, Scenario, SchedOutcome,
    SchedTarget,
};

#[cfg(feature = "conc-instrument")]
use continuum_analyze::conc::sched::{parse_schedule, replay_schedule};
#[cfg(feature = "conc-instrument")]
use continuum_runtime::conc_targets::sched_targets;

const EXIT_CLEAN: i32 = 0;
const EXIT_USAGE: i32 = 1;
const EXIT_VIOLATION: i32 = 2;
const EXIT_PLANT_MISSED: i32 = 3;

/// Per-target outcome, shared by text and JSON rendering.
struct Report {
    name: String,
    /// `"clean"` (must verify) or `"planted"` (must be detected).
    expect: &'static str,
    /// `"ok"`, `"detected"`, `"violation"`, `"missed"`, or `"skipped"`.
    status: &'static str,
    /// Violation description or skip reason.
    detail: Option<String>,
    /// Replayable witness schedule.
    witness: Option<String>,
    counters: Vec<(&'static str, u64)>,
}

impl Report {
    fn exit_contribution(&self) -> i32 {
        match self.status {
            "violation" => EXIT_VIOLATION,
            "missed" => EXIT_PLANT_MISSED,
            _ => EXIT_CLEAN,
        }
    }
}

/// Measured DPOR-vs-naive comparison on one sched target.
struct PruningReport {
    target: String,
    dpor_schedules: u64,
    naive_schedules: u64,
}

/// Test hooks: op-less targets misclassified on purpose, one failing
/// its final check while expected clean (exit 2), one expected to
/// deadlock while it cannot (exit 3).
fn demo_targets(violation: bool, missed: bool) -> Vec<SchedTarget> {
    let mut out = Vec::new();
    if violation {
        out.push(SchedTarget {
            name: "demo[planted-as-clean]",
            about: "one op-less thread whose final check fails, expected clean",
            expect: Expect::Clean,
            make: Box::new(|| Scenario {
                threads: vec![Box::new(|| {})],
                check: Some(Box::new(|| Err("the demo check always fails".to_string()))),
            }),
        });
    }
    if missed {
        out.push(SchedTarget {
            name: "demo[correct-as-planted]",
            about: "one empty thread, expected to deadlock",
            expect: Expect::Deadlock,
            make: Box::new(|| Scenario {
                threads: vec![Box::new(|| {})],
                check: None,
            }),
        });
    }
    out
}

/// The row for one explored target. A planted target must be found as
/// its own kind of violation; anything else is a miss.
fn report(target: &SchedTarget, result: &SchedOutcome) -> Report {
    let planted = target.expect != Expect::Clean;
    let witness = result
        .violation
        .as_ref()
        .and_then(|v| v.witness())
        .map(|w| format_schedule(w));
    let (status, detail) = match &result.violation {
        None if planted => (
            "missed",
            Some(format!(
                "explored clean; planted {:?} not found",
                target.expect
            )),
        ),
        None => ("ok", None),
        Some(v) if !planted => ("violation", Some(v.to_string())),
        Some(v) if target.expect.is_planted_kind(v) => ("detected", Some(v.to_string())),
        Some(v) => ("missed", Some(format!("wrong violation kind: {v}"))),
    };
    Report {
        name: target.name.to_string(),
        expect: if planted { "planted" } else { "clean" },
        status,
        detail,
        witness,
        counters: vec![
            ("schedules", result.stats.schedules),
            ("redundant", result.stats.redundant),
            ("steps", result.stats.steps),
            ("max_depth", result.stats.max_depth as u64),
        ],
    }
}

/// The shipped targets whose name `selected` accepts, explored, and the
/// DPOR-vs-naive comparison on the first clean one when it is selected.
#[cfg(feature = "conc-instrument")]
fn sched_reports(
    opts: &ExploreOpts,
    smoke: bool,
    selected: &dyn Fn(&str) -> bool,
) -> (Vec<Report>, Option<PruningReport>) {
    let mut out = Vec::new();
    let mut pruning = None;
    let targets = sched_targets(smoke);
    let measured = targets
        .iter()
        .find(|t| t.expect == Expect::Clean)
        .map(|t| t.name);
    for target in targets.iter().filter(|t| selected(t.name)) {
        let result = explore_sched(target, opts);
        out.push(report(target, &result));
        if measured == Some(target.name) {
            let naive = explore_sched(
                target,
                &ExploreOpts {
                    pruning: Pruning::Naive,
                    ..*opts
                },
            );
            if naive.violation.is_none() {
                pruning = Some(PruningReport {
                    target: target.name.to_string(),
                    dpor_schedules: result.stats.schedules,
                    naive_schedules: naive.stats.schedules,
                });
            }
        }
    }
    (out, pruning)
}

#[cfg(not(feature = "conc-instrument"))]
fn sched_reports(
    _opts: &ExploreOpts,
    _smoke: bool,
    selected: &dyn Fn(&str) -> bool,
) -> (Vec<Report>, Option<PruningReport>) {
    let placeholder = Report {
        name: "sched::*".to_string(),
        expect: "clean",
        status: "skipped",
        detail: Some(
            "instrumentation not compiled in; rebuild with --features conc-instrument".to_string(),
        ),
        witness: None,
        counters: Vec::new(),
    };
    let rows = Some(placeholder).filter(|r| selected(&r.name));
    (rows.into_iter().collect(), None)
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn render_json(reports: &[Report], pruning: Option<&PruningReport>, smoke: bool, exit: i32) {
    let mut targets = Vec::new();
    for r in reports {
        let mut fields = vec![
            format!("\"name\":{}", json_string(&r.name)),
            // Every row is a real-code exploration.
            "\"kind\":\"sched\"".to_string(),
            format!("\"expect\":{}", json_string(r.expect)),
            format!("\"status\":{}", json_string(r.status)),
        ];
        for &(k, v) in &r.counters {
            fields.push(format!("\"{k}\":{v}"));
        }
        if let Some(d) = &r.detail {
            fields.push(format!("\"detail\":{}", json_string(d)));
        }
        if let Some(w) = &r.witness {
            fields.push(format!("\"witness\":{}", json_string(w)));
        }
        targets.push(format!("{{{}}}", fields.join(",")));
    }
    let pruning_json = match pruning {
        Some(p) => {
            let ratio = p.naive_schedules as f64 / p.dpor_schedules.max(1) as f64;
            format!(
                "{{\"target\":{},\"dpor_schedules\":{},\"naive_schedules\":{},\"ratio\":{ratio:.2}}}",
                json_string(&p.target),
                p.dpor_schedules,
                p.naive_schedules
            )
        }
        None => "null".to_string(),
    };
    println!(
        "{{\"smoke\":{smoke},\"targets\":[{}],\"pruning\":{pruning_json},\"exit_code\":{exit}}}",
        targets.join(",")
    );
}

fn render_text(reports: &[Report], pruning: Option<&PruningReport>) {
    for r in reports {
        let counters = r
            .counters
            .iter()
            .map(|(k, v)| format!("{k} {v}"))
            .collect::<Vec<_>>()
            .join(", ");
        let verdict = match r.status {
            "ok" => "OK",
            "detected" => "OK — planted bug detected",
            "violation" => "FAILED",
            "missed" => "FAILED — planted bug NOT detected",
            _ => "SKIPPED",
        };
        let mut line = format!("{}: {verdict}", r.name);
        if !counters.is_empty() {
            line.push_str(&format!(" — {counters}"));
        }
        if let Some(d) = &r.detail {
            line.push_str(&format!(" — {d}"));
        }
        if r.status == "violation" || r.status == "missed" {
            eprintln!("{line}");
        } else {
            println!("{line}");
        }
    }
    if let Some(p) = pruning {
        println!(
            "pruning[{}]: dpor {} vs naive {} schedules ({:.2}x)",
            p.target,
            p.dpor_schedules,
            p.naive_schedules,
            p.naive_schedules as f64 / p.dpor_schedules.max(1) as f64
        );
    }
}

#[cfg(feature = "conc-instrument")]
fn run_replay(target_name: &str, schedule_str: &str) -> i32 {
    let Some(target) = sched_targets(false)
        .into_iter()
        .find(|t| t.name == target_name)
    else {
        eprintln!("unknown sched target {target_name:?}; known targets:");
        for t in sched_targets(false) {
            eprintln!("  {} — {}", t.name, t.about);
        }
        return EXIT_USAGE;
    };
    let schedule = match parse_schedule(schedule_str) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("bad schedule: {e}");
            return EXIT_USAGE;
        }
    };
    let report = replay_schedule(&target, &schedule);
    for step in &report.steps {
        println!("{step}");
    }
    match report.violation {
        Some(v) => {
            println!("reproduced: {v}");
            EXIT_VIOLATION
        }
        None => {
            println!("schedule completed clean");
            EXIT_CLEAN
        }
    }
}

#[cfg(not(feature = "conc-instrument"))]
fn run_replay(_target_name: &str, _schedule_str: &str) -> i32 {
    eprintln!("--replay needs the sched targets; rebuild with --features conc-instrument");
    EXIT_USAGE
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut smoke = false;
    let mut json = false;
    let mut only: Option<String> = None;
    let mut demo_violation = false;
    let mut demo_missed = false;
    let mut replay: Option<(String, String)> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => smoke = true,
            "--json" => json = true,
            "--demo-violation" => demo_violation = true,
            "--demo-missed-plant" => demo_missed = true,
            "--only" => {
                i += 1;
                match args.get(i) {
                    Some(s) => only = Some(s.clone()),
                    None => {
                        eprintln!("--only needs a substring argument");
                        std::process::exit(EXIT_USAGE);
                    }
                }
            }
            "--replay" => {
                if i + 2 >= args.len() {
                    eprintln!("--replay needs TARGET and SCHEDULE arguments");
                    std::process::exit(EXIT_USAGE);
                }
                replay = Some((args[i + 1].clone(), args[i + 2].clone()));
                i += 2;
            }
            other => {
                eprintln!("unknown flag {other:?}; see the doc comment for usage");
                std::process::exit(EXIT_USAGE);
            }
        }
        i += 1;
    }

    if let Some((target, schedule)) = replay {
        std::process::exit(run_replay(&target, &schedule));
    }

    // Filter first: an unselected target costs nothing.
    let selected = |name: &str| only.as_ref().is_none_or(|pat| name.contains(pat.as_str()));
    let opts = ExploreOpts {
        max_schedules: if smoke { 20_000 } else { 200_000 },
        pruning: Pruning::Dpor,
    };
    let (mut reports, pruning) = sched_reports(&opts, smoke, &selected);
    for demo in demo_targets(demo_violation, demo_missed) {
        if selected(demo.name) {
            reports.push(report(&demo, &explore_sched(&demo, &opts)));
        }
    }

    // 3 (harness regressed) dominates 2 (violation found) dominates 0.
    let exit = reports
        .iter()
        .map(Report::exit_contribution)
        .max()
        .unwrap_or(EXIT_CLEAN);

    if json {
        render_json(&reports, pruning.as_ref(), smoke, exit);
    } else {
        render_text(&reports, pruning.as_ref());
    }
    std::process::exit(exit);
}
