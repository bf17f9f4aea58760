//! Mutation fuzz of the WDL reader: seeded byte, token and line
//! mutations of two valid descriptions — a stencil sweep as the
//! benchmark writes it (declared and implicit data, a shared type and
//! group per row, jittered durations) and a GWAS campaign as `to_wdl`
//! writes it (memory, cores, explicit data ids) — fed to `parse_wdl`.
//! For every mutant:
//!
//! * the reader returns a workload or an error, and never panics;
//! * an error names a line of the input;
//! * a workload it accepts survives `to_wdl` and a second `parse_wdl`
//!   with the same task count, the same specs (names, groups and
//!   parameters in order, data renumbered one to one) and the same
//!   profiles.
//!
//! The suite runs in the debug profile, where arithmetic overflow
//! panics, so a quantity the reader lets through and a later product
//! cannot hold shows here.

use continuum_dag::{DataId, TaskId};
use continuum_runtime::SimWorkload;
use continuum_workflows::{parse_wdl, to_wdl, GwasWorkload};
use rand::prelude::*;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};

const MUTANTS: usize = 6_000;

/// Replacements for a value: numbers on each side of every width the
/// reader converts to, suffixes, floats `f64` parses but no duration
/// is, empty and repeated lists.
const VALUES: [&str; 24] = [
    "0",
    "1",
    "-1",
    "-0",
    "0.5",
    "1e400",
    "1e-400",
    "NaN",
    "inf",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "18446744073709551615G",
    "18446744073709552K",
    "1K",
    "9M",
    "3G",
    "",
    ",",
    "x,x",
    "d0",
    "a=b",
    "\u{e9}",
];

/// Replacements for a key or a directive: every key either directive
/// takes, both directives, a comment.
const KEYS: [&str; 19] = [
    "in",
    "out",
    "inout",
    "stream_in",
    "stream_out",
    "dur",
    "mem",
    "cores",
    "nodes",
    "gpus",
    "out_bytes",
    "elems",
    "elem_bytes",
    "group",
    "size",
    "home",
    "task",
    "data",
    "#",
];

/// Bytes that matter to the line grammar.
const GRAMMAR: &[u8] = b" \n\r\t=,#KMG0123456789.-e";

/// A `side × side` stencil sweep in the benchmark's shape: row 0 reads
/// a declared input, every later task its three upper neighbours.
fn stencil_text(side: usize, seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut text = String::from("# generated stencil sweep\ndata seed size=40M home=2\n");
    for r in 0..side {
        for c in 0..side {
            let _ = write!(text, "task stencil_r{r} in=");
            if r == 0 {
                text.push_str("seed");
            }
            for p in c.saturating_sub(1)..=(c + 1).min(side - 1) {
                if r > 0 {
                    let _ = write!(text, "s{}_{p},", r - 1);
                }
            }
            let dur = 8.0 + 4.0 * rng.gen::<f64>();
            let out_bytes = 1_000_000 + rng.gen_range(0..1_000_000u64);
            let _ = writeln!(
                text,
                " out=s{r}_{c} dur={dur:.3} out_bytes={out_bytes} group=row{r}"
            );
        }
    }
    text
}

fn corpus() -> [String; 2] {
    let gwas = GwasWorkload::new()
        .chromosomes(2)
        .chunks_per_chromosome(3)
        .build();
    [stencil_text(5, 7), to_wdl(&gwas)]
}

/// Byte ranges of the whitespace-separated words of `text`.
fn words(text: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < text.len() {
        if text[i].is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        while i < text.len() && !text[i].is_ascii_whitespace() {
            i += 1;
        }
        out.push((start, i));
    }
    out
}

/// Byte ranges of the lines of `text`, each with its newline.
fn lines(text: &[u8]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, &b) in text.iter().enumerate() {
        if b == b'\n' {
            out.push((start, i + 1));
            start = i + 1;
        }
    }
    if start < text.len() {
        out.push((start, text.len()));
    }
    out
}

/// One to three byte, word or line mutations of `text`.
fn mutate(rng: &mut StdRng, text: &[u8]) -> Vec<u8> {
    let mut bytes = text.to_vec();
    for _ in 0..rng.gen_range(1..4) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        let len = rng.gen_range(1..9).min(bytes.len() - at);
        let ((s, e), replacement): ((usize, usize), Vec<u8>) = match rng.gen_range(0..12) {
            0 => ((at, at + 1), vec![rng.gen()]),
            1 => ((at, at + 1), vec![GRAMMAR[rng.gen_range(0..GRAMMAR.len())]]),
            2 => ((at, at + len), Vec::new()),
            3 => ((at, at), bytes[at..at + len].to_vec()),
            4..=9 => {
                let spans = words(&bytes);
                if spans.is_empty() {
                    continue;
                }
                let (s, e) = spans[rng.gen_range(0..spans.len())];
                let word = &bytes[s..e];
                let eq = word.iter().position(|&b| b == b'=');
                match (rng.gen_range(0..5), eq) {
                    // A new value, or a new key, for a `key=value` word.
                    (0, Some(eq)) => (
                        (s + eq + 1, e),
                        VALUES[rng.gen_range(0..VALUES.len())].into(),
                    ),
                    (1, Some(eq)) => ((s, s + eq), KEYS[rng.gen_range(0..KEYS.len())].into()),
                    (0 | 1, None) => ((s, e), KEYS[rng.gen_range(0..KEYS.len())].into()),
                    // Another word of the text in its place.
                    (2, _) => {
                        let (s2, e2) = spans[rng.gen_range(0..spans.len())];
                        ((s, e), bytes[s2..e2].to_vec())
                    }
                    (3, _) => ((s, e), Vec::new()),
                    _ => ((s, e), [word, b" ", word].concat()),
                }
            }
            _ => {
                let spans = lines(&bytes);
                let (s, e) = spans[rng.gen_range(0..spans.len())];
                match rng.gen_range(0..3) {
                    0 => ((s, e), Vec::new()),
                    1 => ((s, s), bytes[s..e].to_vec()),
                    _ => {
                        let (s2, e2) = spans[rng.gen_range(0..spans.len())];
                        ((s, e), bytes[s2..e2].to_vec())
                    }
                }
            }
        };
        bytes.splice(s..e, replacement);
    }
    bytes
}

/// Why `again` (the accepted workload after `to_wdl` and a second
/// parse) differs from `first`, if it does.
fn round_trip_mismatch(first: &SimWorkload, again: &SimWorkload) -> Option<String> {
    let tasks = first.stats().tasks;
    if again.stats().tasks != tasks {
        return Some(format!("{tasks} tasks became {}", again.stats().tasks));
    }
    // `to_wdl` names data by id and declares the initial ones first, so
    // ids may be renumbered: one to one, both ways.
    let mut forward: HashMap<DataId, DataId> = HashMap::new();
    let mut backward: HashMap<DataId, DataId> = HashMap::new();
    for t in 0..tasks as u64 {
        let id = TaskId::from_raw(t);
        let spec = |w: &SimWorkload| {
            w.graph()
                .node(id)
                .expect("task ids are dense")
                .spec()
                .clone()
        };
        let (a, b) = (spec(first), spec(again));
        if a.name() != b.name() || a.group_label() != b.group_label() {
            return Some(format!("task {t}: {a:?} became {b:?}"));
        }
        let same_params = a.params().len() == b.params().len()
            && a.params().zip(b.params()).all(|(p, q)| {
                p.direction == q.direction
                    && *forward.entry(p.data).or_insert(q.data) == q.data
                    && *backward.entry(q.data).or_insert(p.data) == p.data
            });
        if !same_params {
            return Some(format!("task {t}: parameters {a:?} became {b:?}"));
        }
        if first.profile(id) != again.profile(id) {
            return Some(format!(
                "task {t}: profile {:?} became {:?}",
                first.profile(id),
                again.profile(id)
            ));
        }
    }
    None
}

#[test]
fn mutated_descriptions_fail_cleanly_or_round_trip() {
    let mut rng = StdRng::seed_from_u64(0x0000_3d1e_5eed);
    for text in corpus() {
        let workload = parse_wdl(&text).expect("the unmutated description parses");
        let again = parse_wdl(&to_wdl(&workload)).expect("its dump parses");
        assert_eq!(round_trip_mismatch(&workload, &again), None);

        let (mut accepted, mut rejected) = (0, 0);
        for case in 0..MUTANTS {
            let mutant = String::from_utf8_lossy(&mutate(&mut rng, text.as_bytes())).into_owned();
            let parsed = catch_unwind(AssertUnwindSafe(|| parse_wdl(&mutant)))
                .unwrap_or_else(|_| panic!("mutant {case}: parse_wdl panicked on\n{mutant}"));
            let workload = match parsed {
                Ok(workload) => workload,
                Err(e) => {
                    rejected += 1;
                    let last = mutant.lines().count();
                    assert!(
                        (1..=last).contains(&e.line),
                        "mutant {case}: `{e}` names no line of the {last}\n{mutant}"
                    );
                    continue;
                }
            };
            accepted += 1;
            let dumped = catch_unwind(AssertUnwindSafe(|| to_wdl(&workload)))
                .unwrap_or_else(|_| panic!("mutant {case}: to_wdl panicked on\n{mutant}"));
            let again = parse_wdl(&dumped).unwrap_or_else(|e| {
                panic!("mutant {case}: the dump is refused: {e}\n{mutant}\n---\n{dumped}")
            });
            if let Some(why) = round_trip_mismatch(&workload, &again) {
                panic!("mutant {case}: {why}\n{mutant}\n---\n{dumped}");
            }
        }
        // Both outcomes must be exercised, each often.
        assert!(
            accepted > MUTANTS / 10 && rejected > MUTANTS / 10,
            "{accepted} mutants accepted, {rejected} rejected"
        );
    }
}

/// Descriptions the reader accepted but `to_wdl` once gave back
/// changed: a stream profile on a task without an output stream was
/// dropped (`elems=`/`elem_bytes=` were only written for producers),
/// and parameters came back grouped by direction instead of in the
/// order they were declared.
#[test]
fn hostile_dumps_that_changed_the_workload_round_trip() {
    for text in [
        "task t out=x dur=1 elems=1684418 elem_bytes=4K",
        "task t in=a out=b in=c dur=1",
        "task t out=x dur=1\ntask u out=y in=x stream_out=s out=z dur=1 elems=0",
    ] {
        let first = parse_wdl(text).unwrap_or_else(|e| panic!("{text}: {e}"));
        let dumped = to_wdl(&first);
        let again = parse_wdl(&dumped).unwrap_or_else(|e| panic!("{dumped}: {e}"));
        assert_eq!(
            round_trip_mismatch(&first, &again),
            None,
            "{text}\n---\n{dumped}"
        );
    }
}
