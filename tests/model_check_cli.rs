//! CLI contract of the `model_check` binary: the `--json` report shape
//! and the documented exit codes (0 clean, 2 violation, 3 planted bug
//! not detected), plus — when built with `--features conc-instrument` —
//! the `sched::*` real-code exploration targets: exhaustion under the
//! smoke budget, planted bugs detected as their own kind (race,
//! deadlock, invariant) with replayable witnesses, and the
//! DPOR-vs-naive pruning ratio.

use serde::json::{parse, Value};
use std::process::{Command, Output};

fn model_check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_model_check"))
        .args(args)
        .output()
        .expect("run model_check")
}

fn field<'a>(obj: &'a Value, key: &str) -> &'a Value {
    match obj {
        Value::Obj(pairs) => pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or(&Value::Null),
        other => panic!("expected object, got {other:?}"),
    }
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::Str(s) => s,
        other => panic!("expected string, got {other:?}"),
    }
}

fn u64_of(v: &Value) -> u64 {
    match v {
        Value::U64(n) => *n,
        other => panic!("expected integer, got {other:?}"),
    }
}

/// Parses `--json` output into the targets array plus the pruning
/// object, asserting the envelope shape.
fn json_report(args: &[&str], expect_exit: i32) -> (Vec<Value>, Value) {
    let out = model_check(args);
    assert_eq!(
        out.status.code(),
        Some(expect_exit),
        "stdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let report = parse(&String::from_utf8_lossy(&out.stdout)).expect("valid JSON on stdout");
    assert_eq!(u64_of(field(&report, "exit_code")), expect_exit as u64);
    let Value::Arr(targets) = field(&report, "targets") else {
        panic!("targets must be an array");
    };
    (targets.clone(), field(&report, "pruning").clone())
}

#[test]
fn smoke_run_is_clean_and_every_row_is_a_sched_target() {
    // One kind of check: every row, demo targets included, is a
    // real-code exploration; no explicit-state row is left.
    let (targets, _) = json_report(&["--smoke", "--json"], 0);
    assert!(!targets.is_empty(), "the smoke run reports its targets");
    for t in &targets {
        assert_eq!(str_of(field(t, "kind")), "sched", "{t:?}");
        let status = str_of(field(t, "status"));
        assert!(
            ["ok", "detected", "skipped"].contains(&status),
            "{} reads {status}",
            str_of(field(t, "name"))
        );
    }
    let (demos, _) = json_report(
        &["--smoke", "--json", "--only", "demo", "--demo-violation"],
        2,
    );
    assert_eq!(demos.len(), 1, "--only selects the demo target too");
    assert_eq!(str_of(field(&demos[0], "kind")), "sched");
}

#[test]
fn only_filters_before_exploring_and_may_select_nothing() {
    let (targets, pruning) = json_report(&["--smoke", "--json", "--only", "no-such-target"], 0);
    assert!(targets.is_empty(), "nothing matches: {targets:?}");
    assert_eq!(pruning, Value::Null);
}

#[test]
fn violation_in_a_clean_target_exits_2() {
    let (targets, _) = json_report(&["--smoke", "--json", "--demo-violation"], 2);
    let demo = targets
        .iter()
        .find(|t| str_of(field(t, "name")) == "demo[planted-as-clean]")
        .expect("demo target present");
    assert_eq!(str_of(field(demo, "status")), "violation");
}

#[test]
fn missed_planted_bug_exits_3_and_dominates() {
    // 3 must win over 2: a harness that misses planted bugs invalidates
    // every other verdict.
    let (targets, _) = json_report(
        &[
            "--smoke",
            "--json",
            "--demo-violation",
            "--demo-missed-plant",
        ],
        3,
    );
    assert!(targets
        .iter()
        .any(|t| str_of(field(t, "status")) == "missed"));
}

#[test]
fn unknown_flag_exits_1() {
    let out = model_check(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(1));
}

#[cfg(not(feature = "conc-instrument"))]
#[test]
fn sched_targets_are_skipped_without_instrumentation() {
    let (targets, pruning) = json_report(&["--smoke", "--json"], 0);
    let sched = targets
        .iter()
        .find(|t| str_of(field(t, "kind")) == "sched")
        .expect("a sched placeholder entry");
    assert_eq!(str_of(field(sched, "status")), "skipped");
    assert_eq!(pruning, Value::Null);
}

#[cfg(feature = "conc-instrument")]
mod instrumented {
    use super::*;

    #[test]
    fn sched_targets_exhaust_and_planted_bugs_carry_witnesses() {
        let (targets, pruning) = json_report(&["--smoke", "--json"], 0);

        let clean: Vec<&Value> = targets
            .iter()
            .filter(|t| {
                str_of(field(t, "kind")) == "sched" && str_of(field(t, "expect")) == "clean"
            })
            .collect();
        assert!(
            clean.len() >= 4,
            "at least 4 clean sched targets must run to exhaustion, got {}",
            clean.len()
        );
        for name in [
            "sched::value-cell",
            "sched::task-cell-requeue",
            "sched::executor-sleep",
            "sched::executor-sleep-pass-on",
            "sched::deque",
        ] {
            assert!(
                clean.iter().any(|t| str_of(field(t, "name")) == name),
                "{name} is explored"
            );
        }
        for t in &clean {
            assert_eq!(str_of(field(t, "status")), "ok");
            assert!(u64_of(field(t, "schedules")) > 0);
        }

        let planted: Vec<&Value> = targets
            .iter()
            .filter(|t| {
                str_of(field(t, "kind")) == "sched" && str_of(field(t, "expect")) == "planted"
            })
            .collect();
        // Three planted races, two planted deadlocks, one planted
        // invariant break — each found as its own kind.
        let kind_of = |name: &str| match name {
            "sched::task-cell-dropped-wake" | "sched::sleeper-no-recheck" => "deadlock",
            "sched::deque-double-take" => "invariant failed",
            _ => "data race",
        };
        assert_eq!(planted.len(), 6, "every planted bug present");
        for t in &planted {
            let name = str_of(field(t, "name"));
            assert_eq!(
                str_of(field(t, "status")),
                "detected",
                "planted bug in {name} must stay detected"
            );
            assert!(
                str_of(field(t, "detail")).starts_with(kind_of(name)),
                "{name} found as the wrong kind: {}",
                str_of(field(t, "detail"))
            );
            assert!(
                !str_of(field(t, "witness")).is_empty(),
                "detected bug carries a witness schedule"
            );
        }
        let races = planted
            .iter()
            .filter(|t| kind_of(str_of(field(t, "name"))) == "data race")
            .count();
        assert_eq!(races, 3);

        // DPOR must prune at least 2x vs naive on the measured target.
        let dpor = u64_of(field(&pruning, "dpor_schedules"));
        let naive = u64_of(field(&pruning, "naive_schedules"));
        assert!(
            naive >= 2 * dpor && dpor > 0,
            "DPOR pruning ratio must be >= 2x (dpor {dpor}, naive {naive})"
        );
    }

    #[test]
    fn race_witness_replays_through_the_cli() {
        let (targets, _) = json_report(&["--smoke", "--json", "--only", "racy-wake"], 0);
        let racy = targets
            .iter()
            .find(|t| str_of(field(t, "name")) == "sched::task-cell-racy-wake")
            .expect("racy target present");
        let witness = str_of(field(racy, "witness")).to_string();

        let out = model_check(&["--replay", "sched::task-cell-racy-wake", &witness]);
        assert_eq!(
            out.status.code(),
            Some(2),
            "replayed witness must reproduce the violation"
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("reproduced: data race"),
            "replay names the reproduced race: {stdout}"
        );
    }

    #[test]
    fn dropped_wake_witness_replays_as_a_deadlock() {
        let (targets, pruning) = json_report(&["--smoke", "--json", "--only", "dropped-wake"], 0);
        assert_eq!(targets.len(), 1, "--only selects before exploring");
        assert_eq!(pruning, Value::Null, "the measured target is not selected");
        let witness = str_of(field(&targets[0], "witness")).to_string();

        let out = model_check(&["--replay", "sched::task-cell-dropped-wake", &witness]);
        assert_eq!(out.status.code(), Some(2));
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.contains("reproduced: deadlock"),
            "replay names the reproduced deadlock: {stdout}"
        );
    }

    #[test]
    fn replay_of_unknown_target_exits_1() {
        let out = model_check(&["--replay", "sched::nonexistent", "0,1"]);
        assert_eq!(out.status.code(), Some(1));
    }
}
