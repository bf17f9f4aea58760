//! Mutation fuzz of the Chrome trace reader: seeded byte and token
//! mutations of one valid export — every track kind, span contexts with
//! and without a parent, instants and counters — fed to
//! `parse_chrome_trace`. For every mutant:
//!
//! * the reader returns an error or events, and never panics;
//! * events it accepts go through `chrome_trace`,
//!   `RunDiagnostics::from_events` and its summary without panicking;
//! * reading back what the writer makes of them gives the same events,
//!   in the writer's order, and writing those gives the same bytes.
//!
//! The suite runs in the debug profile, where arithmetic overflow
//! panics, so a value the reader lets through and a later sum cannot
//! hold shows here.

use continuum_telemetry::{
    chrome_trace, parse_chrome_trace, CounterKey, Event, RunDiagnostics, SpanContext, TaskPhase,
    Track,
};
use rand::prelude::*;

const MUTANTS: usize = 8_000;

/// Replacements for a number or a literal.
const NUMBERS: [&str; 22] = [
    "0",
    "1",
    "-1",
    "-0",
    "0.5",
    "2.0",
    "1e400",
    "-1e400",
    "1e-400",
    "4294967295",
    "4294967296",
    "65535",
    "65536",
    "9007199254740993",
    "18446744073709551614",
    "18446744073709551615",
    "18446744073709551616",
    "1.8446744073709552e19",
    "true",
    "null",
    "[]",
    "{}",
];

/// Replacements for a string: every `ph`, keys the reader looks up,
/// labels it parses, escapes.
const STRINGS: [&str; 20] = [
    r#""X""#,
    r#""i""#,
    r#""C""#,
    r#""M""#,
    r#""B""#,
    r#""ts""#,
    r#""dur""#,
    r#""pid""#,
    r#""tid""#,
    r#""cat""#,
    r#""args""#,
    r#""value""#,
    r#""ctx_span""#,
    r#""ctx_agent""#,
    r#""executing""#,
    r#""queue_depth""#,
    r#""client_tasks""#,
    r#""\ud800""#,
    r#""é\n""#,
    r#""""#,
];

/// Bytes that matter to the JSON grammar.
const GRAMMAR: &[u8] = b"{}[]:,\"\\-+.0123456789eEnul ";

/// A run's worth of events on every track kind.
fn corpus() -> Vec<Event> {
    let root = SpanContext::root(7, 1);
    let tracks = [
        Track::Run,
        Track::Node(0),
        Track::Node(3),
        Track::Worker(1),
        Track::Agent(2),
        Track::Remote(2, 1),
        Track::Remote(4, Track::REMOTE_RUN_ROW),
    ];
    let names = ["gen", "q\"uote", "tab\there", "h\u{e9}llo", "a:b,c"];
    let mut events = Vec::new();
    for (i, track) in tracks.into_iter().enumerate() {
        let (t, n) = (100 * i as u64, i as u64);
        let name = names[i % names.len()];
        events.push(Event::Instant {
            track,
            name: name.into(),
            phase: TaskPhase::Scheduled,
            at_us: t,
        });
        events.push(Event::Span {
            track,
            name: name.into(),
            phase: TaskPhase::Executing,
            start_us: t + 5,
            dur_us: 50 + n,
            ctx: match i % 3 {
                0 => None,
                1 => Some(root),
                _ => Some(root.child(2, n)),
            },
        });
        events.push(Event::Span {
            track,
            name: format!("stream:s{i}").into(),
            phase: TaskPhase::StreamWait,
            start_us: t + 10,
            dur_us: 20,
            ctx: None,
        });
        events.push(Event::Span {
            track,
            name: name.into(),
            phase: TaskPhase::Transferring,
            start_us: t + 60,
            dur_us: 30,
            ctx: None,
        });
        events.push(Event::Instant {
            track,
            name: name.into(),
            phase: if i == 4 {
                TaskPhase::Failed
            } else {
                TaskPhase::Committed
            },
            at_us: t + 55 + n,
        });
    }
    // Every counter key, with values on each branch of the number
    // writer: integral, fractional, negative, large.
    let values = [2.0, 0.0, 1.5, 1e15, 12.0, -3.25, 123_456_789.0];
    for (i, key) in CounterKey::ALL.into_iter().enumerate() {
        events.push(Event::Counter {
            key,
            at_us: 40 * i as u64,
            value: values[i % values.len()],
        });
    }
    events
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
            b' ' | b'\n' | b'\t' | b'\r' => {
                i += 1;
                continue;
            }
            _ => i += 1,
        }
        out.push((start, i));
    }
    out
}

/// One to three byte or token mutations of `text`.
fn mutate(rng: &mut StdRng, text: &[u8]) -> Vec<u8> {
    let mut bytes = text.to_vec();
    for _ in 0..rng.gen_range(1..4) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        let len = rng.gen_range(1..9).min(bytes.len() - at);
        match rng.gen_range(0..8) {
            0 => bytes[at] = rng.gen(),
            1 => bytes[at] = GRAMMAR[rng.gen_range(0..GRAMMAR.len())],
            2 => {
                bytes.drain(at..at + len);
            }
            3 => {
                let copy: Vec<u8> = bytes[at..at + len].to_vec();
                bytes.splice(at..at, copy);
            }
            _ => {
                let spans = tokens(&bytes);
                let pick = |rng: &mut StdRng, starting: &dyn Fn(u8) -> bool| {
                    let of_kind: Vec<_> =
                        spans.iter().filter(|(s, _)| starting(bytes[*s])).collect();
                    let all = if of_kind.is_empty() {
                        spans.iter().collect()
                    } else {
                        of_kind
                    };
                    *all[rng.gen_range(0..all.len())]
                };
                let (s, e) = pick(rng, &|_| true);
                let ((s, e), replacement): ((usize, usize), Vec<u8>) = match rng.gen_range(0..5) {
                    0 => (
                        pick(rng, &|b| b == b'-' || b.is_ascii_digit()),
                        NUMBERS[rng.gen_range(0..NUMBERS.len())].into(),
                    ),
                    1 => (
                        pick(rng, &|b| b == b'"'),
                        STRINGS[rng.gen_range(0..STRINGS.len())].into(),
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

/// Whether `a` and `b` hold the same events, each as often.
fn same_events(a: &[Event], b: &[Event]) -> bool {
    let mut taken = vec![false; b.len()];
    a.len() == b.len()
        && a.iter().all(|x| {
            let found = (0..b.len()).find(|&j| !taken[j] && b[j] == *x);
            found.map(|j| taken[j] = true).is_some()
        })
}

#[test]
fn mutated_exports_fail_cleanly_or_round_trip() {
    let events = corpus();
    let text = chrome_trace(&events);
    let back = parse_chrome_trace(&text).expect("the unmutated export reads back");
    assert!(same_events(&back, &events));

    let mut rng = StdRng::seed_from_u64(0x0c47_0e5e);
    let mut accepted = 0;
    for case in 0..MUTANTS {
        let mutant = String::from_utf8_lossy(&mutate(&mut rng, text.as_bytes())).into_owned();
        let Ok(read) = parse_chrome_trace(&mutant) else {
            continue;
        };
        accepted += 1;
        let written = chrome_trace(&read);
        RunDiagnostics::from_events(&read).summary();
        let again = parse_chrome_trace(&written).unwrap_or_else(|e| {
            panic!("mutant {case}: the writer's output is refused: {e}\n{mutant}")
        });
        assert!(
            same_events(&again, &read),
            "mutant {case}: the events changed on a round trip\n{mutant}"
        );
        assert_eq!(chrome_trace(&again), written, "mutant {case}: bytes moved");
    }
    // Most mutants break the syntax; enough must survive to test the
    // round trip.
    assert!(accepted > MUTANTS / 20, "only {accepted} mutants accepted");
}

/// Values the reader once accepted but the writer cannot give back:
/// a span ending past `u64::MAX` (its end overflowed in
/// `Event::end_us`) and a counter too large for an `f64` (written
/// back as `null`, which the reader then refused).
#[test]
fn hostile_values_the_writer_cannot_return_are_rejected() {
    let cases = [
        (
            r#"[{"name":"x","ph":"X","ts":1,"pid":2,"tid":0,"dur":18446744073709551615}]"#,
            "entry 0: span ends past the largest timestamp",
        ),
        (
            r#"[{"name":"queue_depth","ph":"C","ts":1,"args":{"value":1e400}}]"#,
            "entry 0: counter value is not finite",
        ),
        (
            r#"[{"name":"queue_depth","ph":"C","ts":1,"args":{"value":-1e400}}]"#,
            "entry 0: counter value is not finite",
        ),
    ];
    for (text, expected) in cases {
        assert_eq!(parse_chrome_trace(text).unwrap_err(), expected, "{text}");
    }
    let last = r#"[{"name":"x","ph":"X","ts":1,"pid":2,"tid":0,"dur":18446744073709551614}]"#;
    let events = parse_chrome_trace(last).unwrap();
    assert_eq!(events[0].end_us(), u64::MAX);
    assert_eq!(parse_chrome_trace(&chrome_trace(&events)).unwrap(), events);
}

/// A trace ending a microsecond before the last: each row's buckets sum
/// to the makespan, so the rows' totals, like overlapping spans' phase
/// totals, saturate instead of overflowing.
#[test]
fn a_trace_ending_near_the_last_microsecond_summarizes() {
    let span = |tid| {
        format!(
            r#"{{"name":"t","ph":"X","ts":0,"pid":2,"tid":{tid},"dur":18446744073709551614,"cat":"executing"}}"#
        )
    };
    let events = parse_chrome_trace(&format!("[{},{}]", span(0), span(1))).unwrap();
    let diagnostics = RunDiagnostics::from_events(&events);
    assert_eq!(diagnostics.phase_totals_us[&TaskPhase::Executing], u64::MAX);
    assert!(diagnostics.summary().contains("all rows"));
}
