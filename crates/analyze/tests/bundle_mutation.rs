//! Mutation fuzz of the lint bundle reader — the `continuum-lint`
//! CLI's input, and the task graph's JSON inside it: seeded byte and
//! token mutations of two bundles, a GWAS campaign with constraints,
//! weights and initial data, and a streamed graph with channel sizings.
//! Every mutant goes through `serde::json::parse`,
//! `LintBundle::from_json_value` and `verify`:
//!
//! * nothing panics, whatever the reader accepts;
//! * a bundle it accepts writes back to JSON that reads back to the
//!   same bundle, and writing that gives the same bytes.
//!
//! The suite runs in the debug profile, where arithmetic overflow
//! panics, so a value the reader lets through and a later sum cannot
//! hold shows here.

use continuum_analyze::{Lint, LintBundle, StreamInfo};
use continuum_dag::{TaskId, TaskSpec};
use continuum_platform::{Constraints, NodeSpec, PlatformBuilder};
use continuum_runtime::{SimWorkload, TaskProfile};
use serde::json::parse;
use serde::{Deserialize, Serialize};

const MUTANTS: usize = 5_000;

/// Replacements for a number or a literal.
const NUMBERS: [&str; 18] = [
    "0",
    "1",
    "2",
    "7",
    "-1",
    "0.5",
    "1e400",
    "-1e400",
    "4294967295",
    "4294967296",
    "65535",
    "65536",
    "18446744073709551615",
    "18446744073709551616",
    "true",
    "null",
    "[]",
    "{}",
];

/// Replacements for a string: keys the reader looks up, directions,
/// escapes.
const STRINGS: [&str; 22] = [
    r#""graph""#,
    r#""nodes""#,
    r#""id""#,
    r#""preds""#,
    r#""succs""#,
    r#""streams""#,
    r#""consumed""#,
    r#""produced""#,
    r#""data""#,
    r#""version""#,
    r#""direction""#,
    r#""In""#,
    r#""Out""#,
    r#""InOut""#,
    r#""Stream""#,
    r#""Produce""#,
    r#""Consume""#,
    r#""weights""#,
    r#""capacity""#,
    r#""\ud800""#,
    r#""é\n""#,
    r#""""#,
];

/// Bytes that matter to the JSON grammar.
const GRAMMAR: &[u8] = b"{}[]:,\"\\-+.0123456789eEnul ";

/// A small seeded generator (SplitMix64): the suite needs no more.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`, `n > 0`.
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A GWAS campaign in miniature: per chromosome, filter → impute →
/// association per chunk, imputation against an initial reference
/// panel under a memory constraint, a merge per chromosome on two
/// cores, and one campaign merge.
fn gwas_bundle() -> LintBundle {
    let mut w = SimWorkload::new();
    let panel = w.initial_data("panel", 1 << 30, None);
    let mut results = Vec::new();
    for chrom in 0..3 {
        let raw: Vec<_> = (0..4)
            .map(|chunk| w.initial_data(format!("c{chrom}_raw{chunk}"), 1 << 20, None))
            .collect();
        let mut assoc = Vec::new();
        for (chunk, raw) in raw.into_iter().enumerate() {
            let [filt, imp, out] =
                ["filt", "imp", "assoc"].map(|stage| w.data(format!("c{chrom}_{stage}{chunk}")));
            let heavy = Constraints::new().memory_mb(24_000);
            for (spec, profile) in [
                (
                    TaskSpec::new("filter").input(raw).output(filt),
                    TaskProfile::new(1.5),
                ),
                (
                    TaskSpec::new("impute").input(filt).input(panel).output(imp),
                    TaskProfile::new(20.0).constraints(heavy),
                ),
                (
                    TaskSpec::new("association").input(imp).output(out),
                    TaskProfile::new(4.25),
                ),
            ] {
                w.task(spec.group(format!("chr{chrom}")), profile)
                    .expect("valid task");
            }
            assoc.push(out);
        }
        let merged = w.data(format!("c{chrom}_merged"));
        w.task(
            TaskSpec::new("merge_chromosome")
                .inputs(assoc)
                .output(merged),
            TaskProfile::new(3.0).constraints(Constraints::new().compute_units(2)),
        )
        .expect("valid task");
        results.push(merged);
    }
    let summary = w.data("summary");
    w.task(
        TaskSpec::new("merge_campaign")
            .inputs(results)
            .output(summary),
        TaskProfile::new(1.0),
    )
    .expect("valid task");
    let platform = PlatformBuilder::new()
        .cluster("mn", 2, NodeSpec::hpc(8, 32_000))
        .cloud("cloud", 1, NodeSpec::cloud_vm(4, 16_000))
        .build();
    w.lint_bundle(&platform).to_bundle()
}

/// Sensor → featurize → sink over two bounded channels, one of them
/// fed by two sensors, the sink also reading a versioned model.
fn streamed_bundle() -> LintBundle {
    let mut w = SimWorkload::new();
    let [raw, feats, model, report] = ["raw", "feats", "model", "report"].map(|n| w.data(n));
    for (spec, elements) in [
        (TaskSpec::new("train").output(model), 0),
        (TaskSpec::new("sensor").stream_out(raw), 16),
        (TaskSpec::new("sensor").stream_out(raw), 16),
        (
            TaskSpec::new("featurize").stream_in(raw).stream_out(feats),
            32,
        ),
        (
            TaskSpec::new("sink")
                .input(model)
                .stream_in(feats)
                .output(report),
            0,
        ),
    ] {
        w.task(spec, TaskProfile::new(2.0).stream_elements(elements))
            .expect("valid task");
    }
    let platform = PlatformBuilder::new()
        .cluster("edge", 2, NodeSpec::hpc(4, 8_000))
        .build();
    w.lint_bundle(&platform).to_bundle().with_streams(vec![
        StreamInfo {
            data: raw,
            capacity: 4,
            expected_elements: 32,
        },
        StreamInfo {
            data: feats,
            capacity: 0,
            expected_elements: 32,
        },
    ])
}

/// Byte ranges of the JSON tokens in `text`: strings with their quotes,
/// numbers and literals, single punctuation.
fn tokens(text: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < text.len() {
        let start = i;
        match text[i] {
            b'"' => {
                i += 1;
                while i < text.len() && text[i] != b'"' {
                    i += if text[i] == b'\\' { 2 } else { 1 };
                }
                i = (i + 1).min(text.len());
            }
            b'-' | b'0'..=b'9' | b'a'..=b'z' => {
                while i < text.len()
                    && matches!(text[i], b'-' | b'+' | b'.' | b'0'..=b'9' | b'a'..=b'z' | b'E')
                {
                    i += 1;
                }
            }
            _ => i += 1,
        }
        out.push((start, i));
    }
    out
}

/// One to three byte or token mutations of `text`.
fn mutate(rng: &mut Rng, text: &[u8]) -> Vec<u8> {
    let mut bytes = text.to_vec();
    for _ in 0..1 + rng.below(3) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.below(bytes.len());
        let len = (1 + rng.below(8)).min(bytes.len() - at);
        match rng.below(8) {
            0 => bytes[at] = rng.next() as u8,
            1 => bytes[at] = GRAMMAR[rng.below(GRAMMAR.len())],
            2 => {
                bytes.drain(at..at + len);
            }
            3 => {
                let copy = bytes[at..at + len].to_vec();
                bytes.splice(at..at, copy);
            }
            _ => {
                let spans = tokens(&bytes);
                let pick = |rng: &mut Rng, starting: &dyn Fn(u8) -> bool| {
                    let of_kind: Vec<_> =
                        spans.iter().filter(|(s, _)| starting(bytes[*s])).collect();
                    let all = if of_kind.is_empty() {
                        spans.iter().collect()
                    } else {
                        of_kind
                    };
                    *all[rng.below(all.len())]
                };
                let (s, e) = pick(rng, &|_| true);
                let ((s, e), replacement): ((usize, usize), Vec<u8>) = match rng.below(5) {
                    0 => (
                        pick(rng, &|b| b == b'-' || b.is_ascii_digit()),
                        NUMBERS[rng.below(NUMBERS.len())].into(),
                    ),
                    1 => (
                        pick(rng, &|b| b == b'"'),
                        STRINGS[rng.below(STRINGS.len())].into(),
                    ),
                    2 => {
                        let (s2, e2) = pick(rng, &|_| true);
                        ((s, e), bytes[s2..e2].to_vec())
                    }
                    3 => ((s, e), Vec::new()),
                    _ => ((s, e), [&bytes[s..e], &bytes[s..e]].concat()),
                };
                bytes.splice(s..e, replacement);
            }
        }
    }
    bytes
}

/// Reads `text` the way the CLI does; `None` where any step refuses.
fn read(text: &str) -> Option<LintBundle> {
    LintBundle::from_json_value(&parse(text).ok()?)
}

/// Verifies `bundle` and checks that its JSON reads back to a bundle
/// that writes the same bytes. Panics, naming `what`, where it does not.
fn verify_and_round_trip(bundle: &LintBundle, what: &str) {
    bundle.verify();
    let written = serde::to_string(bundle);
    let again = read(&written).unwrap_or_else(|| panic!("{what}: the writer's output is refused"));
    assert_eq!(
        again.to_json_value(),
        bundle.to_json_value(),
        "{what}: the bundle changed on a round trip"
    );
    assert_eq!(serde::to_string(&again), written, "{what}: bytes moved");
}

#[test]
fn mutated_bundles_fail_cleanly_or_round_trip() {
    for (name, bundle, seed) in [
        ("gwas", gwas_bundle(), 0x6a5a_b0d1),
        ("streamed", streamed_bundle(), 0x57e4_a3ed),
    ] {
        let text = serde::to_string(&bundle);
        let unmutated = read(&text).expect("the unmutated bundle reads back");
        verify_and_round_trip(&unmutated, name);

        let mut rng = Rng(seed);
        let mut accepted = 0;
        for case in 0..MUTANTS {
            let mutant = String::from_utf8_lossy(&mutate(&mut rng, text.as_bytes())).into_owned();
            let Some(bundle) = read(&mutant) else {
                continue;
            };
            accepted += 1;
            verify_and_round_trip(&bundle, &format!("{name} mutant {case}\n{mutant}"));
        }
        // Most mutants break the syntax or the schema; enough must
        // survive to test the verifier and the round trip.
        assert!(
            accepted > MUTANTS / 50,
            "{name}: only {accepted} mutants accepted"
        );
    }
}

/// Values the fuzz found: a weight of `1e400`, which the reader took
/// for infinity and the writer could only give back as `null`, and a
/// task asking for `u32::MAX` whole nodes, whose suggestion overflowed
/// while the verifier wrote it.
#[test]
fn hostile_values_found_by_the_fuzz_are_handled() {
    let text = serde::to_string(&streamed_bundle());
    let infinite = text.replacen(r#""weights":[2.0"#, r#""weights":[1e400"#, 1);
    assert_ne!(infinite, text);
    assert!(read(&infinite).is_none(), "a weight past f64 is refused");

    let mut bundle = gwas_bundle();
    bundle.constraints[0] = Constraints::new().nodes(u32::MAX);
    let report = bundle.verify();
    assert!(
        report.iter().any(
            |d| d.lint == Lint::UnsatisfiableConstraints && d.task == Some(TaskId::from_raw(0))
        ),
        "{report:?}"
    );
    verify_and_round_trip(&bundle, "a task on u32::MAX nodes");
}
