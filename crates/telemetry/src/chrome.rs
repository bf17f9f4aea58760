//! Chrome `trace_event` export and import: the JSON array flavour,
//! loadable in `chrome://tracing` and Perfetto.
//!
//! Output is deterministic: metadata rows are sorted by track, payload
//! events by `(timestamp, track, kind, duration, name, phase, span id)`
//! and then arrival, so equal-timestamp events order identically however
//! the recorder happened to interleave them, and all timestamps are
//! integer microseconds — two identical runs export byte-identical
//! traces. [`parse_chrome_trace`] reads the same dialect back into
//! [`Event`]s, so analysis tools work on standalone trace files.
//!
//! Neither direction builds the document: the writer puts each row
//! straight into the output (one buffer, the export order as four bytes
//! per event, the track set and each distinct name escaped once are all
//! it keeps while writing; the `order` module computes them), the reader
//! turns one array entry at a time into an [`Event`].

mod order;

use crate::event::{CounterKey, Event, SpanContext, TaskPhase, Track};
use order::{export_plan, Plan};
use serde::json::{write_json_f64, write_json_string, write_json_u64};
use serde::Value;
use std::fmt;

/// Span-context `args` keys, in the fixed order the exporter writes
/// them (alphabetical, so the bytes are deterministic).
const CTX_AGENT: &str = "ctx_agent";
const CTX_PARENT: &str = "ctx_parent";
const CTX_SPAN: &str = "ctx_span";
const CTX_TRACE: &str = "ctx_trace";

fn parse_ctx_args(entry: &Value) -> Option<SpanContext> {
    let args = entry.get("args")?;
    Some(SpanContext {
        trace_id: args.get(CTX_TRACE).and_then(Value::as_u64)?,
        span_id: args.get(CTX_SPAN).and_then(Value::as_u64)?,
        parent_span_id: args.get(CTX_PARENT).and_then(Value::as_u64),
        agent_id: u32::try_from(args.get(CTX_AGENT).and_then(Value::as_u64)?).ok()?,
    })
}

/// `{"name":<name>,"ph":"<ph>","ts":<ts>,"pid":<pid>,"tid":<tid>` — the
/// fields every row starts with; `quoted` is the name as a JSON string,
/// `ph_ts` the literal between it and the timestamp.
fn write_row_head<W: fmt::Write>(
    out: &mut W,
    quoted: &str,
    ph_ts: &'static str,
    ts: u64,
    track: Track,
) -> fmt::Result {
    out.write_str("{\"name\":")?;
    out.write_str(quoted)?;
    out.write_str(ph_ts)?;
    write_json_u64(ts, out)?;
    out.write_str(",\"pid\":")?;
    write_json_u64(track.chrome_pid(), out)?;
    out.write_str(",\"tid\":")?;
    write_json_u64(track.chrome_tid(), out)
}

fn write_name_row<W: fmt::Write>(
    out: &mut W,
    quoted_row: &'static str,
    track: Track,
    name: &str,
) -> fmt::Result {
    write_row_head(out, quoted_row, ",\"ph\":\"M\",\"ts\":", 0, track)?;
    out.write_str(",\"args\":{\"name\":")?;
    write_json_string(name, out)?;
    out.write_str("}}")
}

fn write_ctx_field<W: fmt::Write>(out: &mut W, sep: &str, key: &str, value: u64) -> fmt::Result {
    out.write_str(sep)?;
    write_json_string(key, out)?;
    out.write_char(':')?;
    write_json_u64(value, out)
}

fn write_event<W: fmt::Write>(out: &mut W, event: &Event, quoted: &str) -> fmt::Result {
    match event {
        Event::Span {
            track,
            phase,
            start_us,
            dur_us,
            ctx,
            ..
        } => {
            write_row_head(out, quoted, ",\"ph\":\"X\",\"ts\":", *start_us, *track)?;
            out.write_str(",\"dur\":")?;
            write_json_u64(*dur_us, out)?;
            out.write_str(",\"cat\":")?;
            write_json_string(phase.as_str(), out)?;
            if let Some(ctx) = ctx {
                out.write_str(",\"args\":{")?;
                write_ctx_field(out, "", CTX_AGENT, u64::from(ctx.agent_id))?;
                if let Some(parent) = ctx.parent_span_id {
                    write_ctx_field(out, ",", CTX_PARENT, parent)?;
                }
                write_ctx_field(out, ",", CTX_SPAN, ctx.span_id)?;
                write_ctx_field(out, ",", CTX_TRACE, ctx.trace_id)?;
                out.write_char('}')?;
            }
            out.write_char('}')
        }
        Event::Instant {
            track,
            phase,
            at_us,
            ..
        } => {
            write_row_head(out, quoted, ",\"ph\":\"i\",\"ts\":", *at_us, *track)?;
            out.write_str(",\"cat\":")?;
            write_json_string(phase.as_str(), out)?;
            out.write_str(",\"s\":\"t\"}")
        }
        Event::Counter { at_us, value, .. } => {
            write_row_head(out, quoted, ",\"ph\":\"C\",\"ts\":", *at_us, Track::Run)?;
            out.write_str(",\"args\":{\"value\":")?;
            write_json_f64(*value, out)?;
            out.write_str("}}")
        }
    }
}

/// Writes the rows of a Chrome trace: first the metadata naming each
/// process (track family) once and each thread (track), in sorted
/// order so viewers group rows predictably, then the events in export
/// order.
fn write_rows<W: fmt::Write>(out: &mut W, events: &[Event], plan: &Plan) -> fmt::Result {
    out.write_char('[')?;
    let mut first = true;
    let mut separate = |out: &mut W| {
        if std::mem::take(&mut first) {
            Ok(())
        } else {
            out.write_char(',')
        }
    };
    let mut named_pid = 0;
    for track in &plan.tracks {
        // Tracks iterate family by family, so a new pid shows once.
        if named_pid != track.chrome_pid() {
            named_pid = track.chrome_pid();
            separate(out)?;
            write_name_row(out, "\"process_name\"", *track, track.family_name())?;
        }
        separate(out)?;
        write_name_row(out, "\"thread_name\"", *track, &track.label())?;
    }
    for &index in &plan.order {
        separate(out)?;
        let event = &events[index as usize];
        write_event(out, event, plan.quoted_name(event))?;
    }
    out.write_char(']')
}

/// Writes events as a Chrome `trace_event` JSON array into `out`, row
/// by row: what [`chrome_trace`] returns, for sinks that should not
/// hold the whole text (a buffered file).
///
/// # Errors
///
/// Only those of the sink.
pub fn write_chrome_trace<W: fmt::Write>(events: &[Event], out: &mut W) -> fmt::Result {
    write_rows(out, events, &export_plan(events))
}

/// Renders events as a Chrome `trace_event` JSON array.
pub fn chrome_trace(events: &[Event]) -> String {
    let plan = export_plan(events);
    // A row of a sim trace is about 90 bytes.
    let mut out = String::with_capacity(96 * (events.len() + plan.tracks.len()) + 64);
    // INVARIANT: `fmt::Write` for `String` never returns an error, and
    // `write_rows` raises none of its own.
    write_rows(&mut out, events, &plan).expect("writing to a String cannot fail");
    out
}

/// Reads a Chrome `trace_event` JSON array (as produced by
/// [`chrome_trace`]) back into [`Event`]s.
///
/// Metadata rows (`"ph": "M"`) are skipped; counter rows with names
/// this crate does not define are skipped too, so traces from newer
/// versions still load. Structurally broken input — not JSON, not an
/// array, entries missing `ph`/`ts`, unknown track pids — is an error.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<Event>, String> {
    // Entry by entry, so no more than one entry's JSON value is alive
    // beside the events. A malformed entry stops the conversion but not
    // the parse: a syntax error further on is still the one reported.
    let mut events = Vec::new();
    let mut entries = 0usize;
    let mut bad_entry = None;
    let scalar = serde::json::parse_array_elements(text, |entry| {
        if bad_entry.is_none() {
            match parse_entry(entries, &entry) {
                Ok(event) => events.extend(event),
                Err(e) => bad_entry = Some(e),
            }
        }
        entries += 1;
    })
    .map_err(|e| format!("invalid JSON: {e}"))?;
    if scalar.is_some() {
        return Err("top level is not a JSON array".to_string());
    }
    bad_entry.map_or(Ok(events), Err)
}

/// One entry of the array as an [`Event`]; `None` for the rows
/// [`parse_chrome_trace`] skips.
fn parse_entry(i: usize, entry: &Value) -> Result<Option<Event>, String> {
    let ph = entry
        .get("ph")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("entry {i}: missing \"ph\""))?;
    if ph == "M" {
        return Ok(None);
    }
    let ts = entry
        .get("ts")
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("entry {i}: missing or non-integer \"ts\""))?;
    let name = entry
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| format!("entry {i}: missing \"name\""))?;
    match ph {
        "X" | "i" => {
            let pid = entry.get("pid").and_then(Value::as_u64).unwrap_or(0);
            let tid = entry.get("tid").and_then(Value::as_u64).unwrap_or(0);
            let track = Track::from_chrome(pid, tid)
                .ok_or_else(|| format!("entry {i}: unknown track pid {pid}"))?;
            let phase = entry
                .get("cat")
                .and_then(Value::as_str)
                .and_then(TaskPhase::parse)
                .unwrap_or(TaskPhase::Executing);
            if ph == "X" {
                let dur = entry
                    .get("dur")
                    .and_then(Value::as_u64)
                    .ok_or_else(|| format!("entry {i}: span missing \"dur\""))?;
                // An end past the last microsecond has no `Micros`.
                if ts.checked_add(dur).is_none() {
                    return Err(format!("entry {i}: span ends past the largest timestamp"));
                }
                Ok(Some(Event::Span {
                    track,
                    name: name.to_string().into(),
                    phase,
                    start_us: ts,
                    dur_us: dur,
                    ctx: parse_ctx_args(entry).map(Box::new),
                }))
            } else {
                Ok(Some(Event::Instant {
                    track,
                    name: name.to_string().into(),
                    phase,
                    at_us: ts,
                }))
            }
        }
        "C" => {
            let Some(key) = CounterKey::parse(name) else {
                return Ok(None); // foreign counter: tolerate, don't fail
            };
            let value = entry
                .get("args")
                .and_then(|a| a.get("value"))
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("entry {i}: counter missing args.value"))?;
            // Out of range for an `f64`, a value parses as infinite, and
            // the writer has no number to give it back as.
            if !value.is_finite() {
                return Err(format!("entry {i}: counter value is not finite"));
            }
            Ok(Some(Event::Counter {
                key,
                at_us: ts,
                value,
            }))
        }
        other => Err(format!("entry {i}: unsupported event type {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CounterKey, Micros, TaskPhase};
    use proptest::prelude::*;
    use rand::prelude::*;
    use std::collections::BTreeSet;

    /// The order of payload rows, as the exporter defined it before the
    /// one-pass writer: a stable sort on this key.
    fn sort_key(e: &Event) -> (Micros, u64, u64, u8, Micros, &str, &str, u64) {
        match e {
            Event::Span {
                track,
                name,
                phase,
                start_us,
                dur_us,
                ctx,
            } => (
                *start_us,
                track.chrome_pid(),
                track.chrome_tid(),
                0,
                u64::MAX - dur_us,
                name.as_str(),
                phase.as_str(),
                ctx.as_ref().map_or(0, |c| c.span_id),
            ),
            Event::Instant {
                track,
                name,
                phase,
                at_us,
            } => (
                *at_us,
                track.chrome_pid(),
                track.chrome_tid(),
                1,
                0,
                name.as_str(),
                phase.as_str(),
                0,
            ),
            Event::Counter { key, at_us, .. } => (*at_us, 0, 0, 2, 0, key.as_str(), "", 0),
        }
    }

    /// The tree-building exporter [`chrome_trace`] replaced, kept as the
    /// oracle: one `Value::Obj` per row, rendered by the JSON shim.
    fn chrome_trace_reference(events: &[Event]) -> String {
        fn obj(fields: Vec<(&str, Value)>) -> Value {
            Value::Obj(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        }
        fn common(name: &str, ph: &str, ts: u64, track: Track) -> Vec<(&'static str, Value)> {
            vec![
                ("name", Value::Str(name.to_string())),
                ("ph", Value::Str(ph.to_string())),
                ("ts", Value::U64(ts)),
                ("pid", Value::U64(track.chrome_pid())),
                ("tid", Value::U64(track.chrome_tid())),
            ]
        }
        fn ctx_args(ctx: &SpanContext) -> Value {
            let mut fields = vec![(CTX_AGENT, Value::U64(u64::from(ctx.agent_id)))];
            if let Some(parent) = ctx.parent_span_id {
                fields.push((CTX_PARENT, Value::U64(parent)));
            }
            fields.push((CTX_SPAN, Value::U64(ctx.span_id)));
            fields.push((CTX_TRACE, Value::U64(ctx.trace_id)));
            obj(fields)
        }

        let mut out: Vec<Value> = Vec::new();
        let tracks: BTreeSet<Track> = events
            .iter()
            .filter_map(|e| match e {
                Event::Span { track, .. } | Event::Instant { track, .. } => Some(*track),
                Event::Counter { .. } => None,
            })
            .collect();
        let mut named_pids = BTreeSet::new();
        for track in &tracks {
            if named_pids.insert(track.chrome_pid()) {
                let mut fields = common("process_name", "M", 0, *track);
                fields.push((
                    "args",
                    obj(vec![("name", Value::Str(track.family_name().to_string()))]),
                ));
                out.push(obj(fields));
            }
            let mut fields = common("thread_name", "M", 0, *track);
            fields.push(("args", obj(vec![("name", Value::Str(track.label()))])));
            out.push(obj(fields));
        }

        let mut ordered: Vec<&Event> = events.iter().collect();
        ordered.sort_by(|a, b| sort_key(a).cmp(&sort_key(b)));
        for event in ordered {
            match event {
                Event::Span {
                    track,
                    name,
                    phase,
                    start_us,
                    dur_us,
                    ctx,
                } => {
                    let mut fields = common(name, "X", *start_us, *track);
                    fields.push(("dur", Value::U64(*dur_us)));
                    fields.push(("cat", Value::Str(phase.as_str().to_string())));
                    if let Some(ctx) = ctx {
                        fields.push(("args", ctx_args(ctx)));
                    }
                    out.push(obj(fields));
                }
                Event::Instant {
                    track,
                    name,
                    phase,
                    at_us,
                } => {
                    let mut fields = common(name, "i", *at_us, *track);
                    fields.push(("cat", Value::Str(phase.as_str().to_string())));
                    fields.push(("s", Value::Str("t".to_string())));
                    out.push(obj(fields));
                }
                Event::Counter { key, at_us, value } => {
                    let mut fields = common(key.as_str(), "C", *at_us, Track::Run);
                    fields.push(("args", obj(vec![("value", Value::F64(*value))])));
                    out.push(obj(fields));
                }
            }
        }
        Value::Arr(out).to_string()
    }

    /// Event lists drawn from small pools, so that timestamps, tracks,
    /// durations, names and span ids collide often: every track variant
    /// (`Remote` at both ends of its 16-bit fields, and one whose agent
    /// overflows them and so shares a `tid` with another track), every
    /// phase and counter key, names that need every escape, floats on
    /// every branch of the number writer, and exact duplicates. Half the
    /// lists also draw timestamps, durations and span contexts (with and
    /// without a parent) from the whole `u64` range, so the fields
    /// overflow a 16-byte key, and half put most of their events on one
    /// timestamp: runs of a hundred and more.
    fn colliding_events(seed: u64, n: usize) -> Vec<Event> {
        const TIMES: [Micros; 6] = [0, 1, 100, 100, 1_585_508_610, u64::MAX];
        const DURS: [Micros; 5] = [0, 1, 50, 12_000_000, u64::MAX];
        const TRACKS: [Track; 13] = [
            Track::Run,
            Track::Node(0),
            Track::Node(7),
            Track::Node(u32::MAX),
            Track::Worker(1),
            Track::Agent(3),
            Track::Remote(3, 1),
            Track::Remote(0x1_0003, 1),
            Track::Remote(3, Track::REMOTE_RUN_ROW),
            Track::Remote(0, 0),
            Track::Remote(0, 0xFFFE),
            Track::Remote(0xFFFF, 0),
            Track::Remote(0xFFFF, 0xFFFF),
        ];
        const NAMES: [&str; 10] = [
            "",
            "a",
            "stencil_r1",
            "stencil_r10",
            "q\"uote",
            "back\\slash",
            "ctl\u{1}\n\r\t\u{1f}",
            "del\u{7f}",
            "h\u{e9}llo \u{2713} \u{1f680}",
            "a:b,c\nd\"e\\f",
        ];
        const VALUES: [f64; 16] = [
            0.0,
            -0.0,
            1.0,
            2.5,
            -3.0,
            -7.25,
            0.1,
            123_456_789.0,
            999_999_999_999_999.0,
            1e15,
            -1e15,
            1.5e300,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let mut rng = StdRng::seed_from_u64(seed);
        let wide = rng.gen_bool(0.5);
        let run_at = rng
            .gen_bool(0.5)
            .then(|| TIMES[rng.gen_range(0..TIMES.len())]);
        let root = SpanContext::root(rng.gen_range(1..4), rng.gen_range(0..3));
        let mut contexts = vec![
            None,
            Some(root),
            Some(root.child(1, 1)),
            Some(root.child(2, 1)),
            Some(SpanContext {
                agent_id: SpanContext::COORDINATOR,
                ..root.child(1, 1) // same span id, different recorder
            }),
        ];
        if wide {
            for parent in [None, Some(rng.gen())] {
                contexts.push(Some(SpanContext {
                    trace_id: rng.gen(),
                    span_id: rng.gen(),
                    parent_span_id: parent,
                    agent_id: rng.gen(),
                }));
            }
            contexts.push(Some(SpanContext::root(u64::MAX, u32::MAX)));
        }
        fn pick<T: Copy>(rng: &mut StdRng, pool: &[T]) -> T {
            pool[rng.gen_range(0..pool.len())]
        }
        let time = |rng: &mut StdRng, pool: &[Micros]| match run_at {
            Some(at) if rng.gen_bool(0.7) => at,
            _ if wide && rng.gen_bool(0.5) => rng.gen(),
            _ => pick(rng, pool),
        };
        let mut events: Vec<Event> = Vec::with_capacity(n);
        for _ in 0..n {
            let event = match rng.gen_range(0..10u32) {
                0 if !events.is_empty() => events[rng.gen_range(0..events.len())].clone(),
                0..=4 => Event::Span {
                    track: pick(&mut rng, &TRACKS),
                    name: pick(&mut rng, &NAMES).to_string().into(),
                    phase: pick(&mut rng, &TaskPhase::ALL),
                    start_us: time(&mut rng, &TIMES),
                    dur_us: if wide && rng.gen_bool(0.5) {
                        rng.gen()
                    } else {
                        pick(&mut rng, &DURS)
                    },
                    ctx: contexts[rng.gen_range(0..contexts.len())].map(Box::new),
                },
                5..=6 => Event::Instant {
                    track: pick(&mut rng, &TRACKS),
                    name: pick(&mut rng, &NAMES).to_string().into(),
                    phase: pick(&mut rng, &TaskPhase::ALL),
                    at_us: time(&mut rng, &TIMES),
                },
                _ => Event::Counter {
                    key: pick(&mut rng, &CounterKey::ALL),
                    at_us: time(&mut rng, &TIMES),
                    value: pick(&mut rng, &VALUES),
                },
            };
            events.push(event);
        }
        events
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(320))]

        /// The one-pass writer produces, byte for byte, what the
        /// tree-building exporter did — whatever collides.
        #[test]
        fn export_matches_the_reference_exporter(seed in 0u64..1 << 48, n in 0usize..300) {
            let events = colliding_events(seed, n);
            let text = chrome_trace(&events);
            prop_assert_eq!(&text, &chrome_trace_reference(&events));
            let mut streamed = String::new();
            write_chrome_trace(&events, &mut streamed).unwrap();
            prop_assert_eq!(&streamed, &text);

            // Arrival order decides only between events equal in the
            // whole sort key: keep one event per key, and any shuffle
            // of what is left exports the same bytes.
            let mut seen = BTreeSet::new();
            let mut distinct: Vec<Event> = events
                .iter()
                .filter(|e| {
                    let k = sort_key(e);
                    seen.insert((k.0, k.1, k.2, k.3, k.4, k.5.to_string(), k.6, k.7))
                })
                .cloned()
                .collect();
            let text = chrome_trace(&distinct);
            prop_assert_eq!(&text, &chrome_trace_reference(&distinct));
            distinct.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x5eed));
            prop_assert_eq!(&chrome_trace(&distinct), &text);
        }
    }

    fn sample() -> Vec<Event> {
        vec![
            Event::Span {
                track: Track::Worker(1),
                name: "sum".into(),
                phase: TaskPhase::Executing,
                start_us: 100,
                dur_us: 50,
                ctx: None,
            },
            Event::Instant {
                track: Track::Worker(1),
                name: "sum".into(),
                phase: TaskPhase::Committed,
                at_us: 150,
            },
            Event::Counter {
                key: CounterKey::QueueDepth,
                at_us: 150,
                value: 2.0,
            },
        ]
    }

    #[test]
    fn output_is_a_valid_json_array_of_events() {
        let text = chrome_trace(&sample());
        let value = serde::json::parse(&text).unwrap();
        let arr = value.as_arr().expect("array of events");
        // 2 metadata (process + thread for worker 1) + 3 payload.
        assert_eq!(arr.len(), 5);
        for entry in arr {
            assert!(entry.get("ph").is_some(), "every event has a phase");
            assert!(entry.get("ts").is_some(), "every event has a timestamp");
        }
    }

    #[test]
    fn span_carries_duration_and_category() {
        let text = chrome_trace(&sample());
        let value = serde::json::parse(&text).unwrap();
        let span = value
            .as_arr()
            .unwrap()
            .iter()
            .find(|e| e.get("ph").and_then(Value::as_str) == Some("X"))
            .expect("one complete span");
        assert_eq!(span.get("dur").and_then(Value::as_u64), Some(50));
        assert_eq!(span.get("cat").and_then(Value::as_str), Some("executing"));
    }

    #[test]
    fn export_is_deterministic() {
        assert_eq!(chrome_trace(&sample()), chrome_trace(&sample()));
    }

    #[test]
    fn parse_round_trips_payload_events() {
        let text = chrome_trace(&sample());
        let back = parse_chrome_trace(&text).unwrap();
        assert_eq!(back.len(), 3, "metadata is dropped, payload kept");
        for event in sample() {
            assert!(back.contains(&event), "missing {event:?}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_chrome_trace("not json").is_err());
        assert!(parse_chrome_trace("{\"a\": 1}").is_err());
        assert!(parse_chrome_trace("[{\"name\": \"x\"}]").is_err());
    }

    /// The streamed reader reports what the whole-document reader did,
    /// in the same words: the shim's syntax errors with their byte
    /// offsets first (wherever in the file they are), then the first
    /// malformed entry by its index among all rows.
    #[test]
    fn parse_errors_read_as_before() {
        let meta =
            r#"{"name":"thread_name","ph":"M","ts":0,"pid":2,"tid":0,"args":{"name":"node 0"}}"#;
        let span = r#"{"name":"t","ph":"X","ts":1,"pid":2,"tid":0,"dur":1,"cat":"executing"}"#;
        let cases = [
            (
                "not json".to_string(),
                "invalid JSON: json parse error at byte 0: unexpected token",
            ),
            ("{\"a\": 1}".to_string(), "top level is not a JSON array"),
            ("[{\"name\": \"x\"}]".to_string(), "entry 0: missing \"ph\""),
            (
                format!("[{meta},{span},{{\"name\":\"t\",\"ph\":\"X\"}}]"),
                "entry 2: missing or non-integer \"ts\"",
            ),
            (
                format!("[{span},{{\"ph\":\"i\",\"ts\":1}}]"),
                "entry 1: missing \"name\"",
            ),
            (
                r#"[{"name":"x","ph":"X","ts":1,"pid":9,"tid":0,"dur":1}]"#.to_string(),
                "entry 0: unknown track pid 9",
            ),
            (
                r#"[{"name":"x","ph":"X","ts":1,"pid":2,"tid":0}]"#.to_string(),
                "entry 0: span missing \"dur\"",
            ),
            (
                r#"[{"name":"queue_depth","ph":"C","ts":1,"args":{}}]"#.to_string(),
                "entry 0: counter missing args.value",
            ),
            (
                r#"[{"name":"x","ph":"B","ts":1}]"#.to_string(),
                "entry 0: unsupported event type \"B\"",
            ),
            (
                format!("[{span}] ]"),
                "invalid JSON: json parse error at byte 73: trailing characters",
            ),
            // A malformed entry, then broken syntax: syntax wins.
            (
                format!("[{{\"name\":\"x\"}},{span},"),
                "invalid JSON: json parse error at byte 85: unexpected end of input",
            ),
        ];
        for (text, expected) in cases {
            assert_eq!(parse_chrome_trace(&text).unwrap_err(), expected, "{text}");
        }
    }

    #[test]
    fn foreign_counters_and_metadata_are_skipped() {
        let text = r#"[
            {"name":"process_name","ph":"M","ts":0,"pid":7,"tid":0,"args":{"name":"other tool"}},
            {"name":"gpu_temperature","ph":"C","ts":5,"pid":1,"tid":0,"args":{"celsius":70}},
            {"name":"queue_depth","ph":"C","ts":5,"pid":1,"tid":0,"args":{"value":2}}
        ]"#;
        assert_eq!(
            parse_chrome_trace(text).unwrap(),
            [Event::Counter {
                key: CounterKey::QueueDepth,
                at_us: 5,
                value: 2.0,
            }]
        );
        assert_eq!(parse_chrome_trace(" [ ] ").unwrap(), []);
    }

    #[test]
    fn truncated_traces_are_errors_not_panics() {
        let mut events = sample();
        if let Event::Span { name, ctx, .. } = &mut events[0] {
            *name = "s\u{fc}m \"\\\u{1}".into();
            *ctx = Some(Box::new(SpanContext::root(7, 1).child(2, 3)));
        }
        let text = chrome_trace(&events);
        assert_eq!(parse_chrome_trace(&text).unwrap().len(), 3);
        for cut in (0..text.len()).filter(|i| text.is_char_boundary(*i)) {
            assert!(parse_chrome_trace(&text[..cut]).is_err(), "cut at {cut}");
        }
        for garbage in ["]", ",", "[]", "x", "\u{0}"] {
            let e = parse_chrome_trace(&format!("{text}{garbage}")).unwrap_err();
            assert!(e.ends_with("trailing characters"), "{garbage:?}: {e}");
        }
    }

    #[test]
    fn hostile_names_round_trip() {
        let events = vec![Event::Span {
            track: Track::Node(0),
            name: "a:b,c\nd\"e\\f".into(),
            phase: TaskPhase::Executing,
            start_us: 0,
            dur_us: 10,
            ctx: None,
        }];
        let text = chrome_trace(&events);
        assert_eq!(chrome_trace(&events), text, "deterministic");
        let back = parse_chrome_trace(&text).unwrap();
        assert_eq!(back, events, "escaping preserves the name exactly");
    }

    #[test]
    fn stream_events_reorder_and_round_trip() {
        // Stream telemetry — a StreamWait span plus the per-channel
        // counters — must keep the export byte-deterministic and
        // survive a parse round trip like every other event kind.
        let events = vec![
            Event::Span {
                track: Track::Worker(0),
                name: "stream:s0".into(),
                phase: TaskPhase::StreamWait,
                start_us: 100,
                dur_us: 40,
                ctx: None,
            },
            Event::Counter {
                key: CounterKey::StreamOccupancyHighWater,
                at_us: 100,
                value: 7.0,
            },
            Event::Counter {
                key: CounterKey::StreamBlockedSendMicros,
                at_us: 100,
                value: 40.0,
            },
            Event::Counter {
                key: CounterKey::StreamElements,
                at_us: 100,
                value: 128.0,
            },
            Event::Counter {
                key: CounterKey::StreamBytes,
                at_us: 100,
                value: 4096.0,
            },
        ];
        let text = chrome_trace(&events);
        let mut reversed = events.clone();
        reversed.reverse();
        assert_eq!(
            chrome_trace(&reversed),
            text,
            "equal-timestamp stream events must sort into a stable order"
        );
        let back = parse_chrome_trace(&text).unwrap();
        assert_eq!(back.len(), events.len());
        for event in &events {
            assert!(back.contains(event), "missing {event:?}");
        }
    }

    #[test]
    fn equal_timestamp_events_order_independently_of_arrival() {
        let a = Event::Span {
            track: Track::Worker(0),
            name: "alpha".into(),
            phase: TaskPhase::Executing,
            start_us: 100,
            dur_us: 5,
            ctx: None,
        };
        let b = Event::Span {
            track: Track::Worker(1),
            name: "beta".into(),
            phase: TaskPhase::Executing,
            start_us: 100,
            dur_us: 5,
            ctx: None,
        };
        let c = Event::Instant {
            track: Track::Worker(0),
            name: "alpha".into(),
            phase: TaskPhase::Committed,
            at_us: 100,
        };
        let one = chrome_trace(&[a.clone(), b.clone(), c.clone()]);
        let two = chrome_trace(&[c, b, a]);
        assert_eq!(one, two, "arrival interleaving must not change bytes");
    }
}
