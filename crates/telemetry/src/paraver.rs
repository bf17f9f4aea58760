//! Paraver-style `.prv` export, the trace dialect of the BSC tools the
//! paper's COMPSs runtime feeds.
//!
//! The dialect here is a faithful subset: a `#Paraver` header, then one
//! record per line — state records (`1:`) for spans and event records
//! (`2:`) for instants and span-name markers — with colon-separated
//! fields. Each track maps to one application task/thread. Exports are
//! byte-deterministic: the header date is fixed, records are sorted by
//! `(time, row, type)` so equal-timestamp events order identically
//! however the recorder interleaved them, and task names are escaped
//! (`:`, `,`, newlines) before entering the name table.

use crate::event::{Event, Track};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Event-record type base for task-phase markers (BSC tools reserve
/// ranges per tool; this is a private range).
const PHASE_EVENT_TYPE_BASE: u32 = 50_000_000;

/// Event-record type for span-name markers: the value is the 1-based
/// index into the `# value N:` name table in the trace comments.
const TASK_NAME_EVENT_TYPE: u32 = 60_000_000;

/// Escapes a task name for the `.prv` comment table: the record
/// separators `:` and `,` plus newlines, so hostile names can never
/// break a record or forge extra table rows.
fn escape_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            ':' => out.push_str("\\:"),
            ',' => out.push_str("\\,"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders events as a Paraver-style `.prv` trace.
pub fn paraver_trace(events: &[Event]) -> String {
    // Rows are 1-based, assigned in sorted track order; span names get
    // 1-based values in sorted name order — both independent of
    // arrival order.
    let mut rows: BTreeMap<Track, usize> = BTreeMap::new();
    let mut names: BTreeMap<&str, usize> = BTreeMap::new();
    let mut end_us: u64 = 0;
    for event in events {
        match event {
            Event::Span { track, name, .. } => {
                rows.insert(*track, 0);
                names.insert(name.as_str(), 0);
            }
            Event::Instant { track, .. } => {
                rows.insert(*track, 0);
            }
            Event::Counter { .. } => {}
        }
        end_us = end_us.max(event.end_us());
    }
    for (row, slot) in rows.values_mut().enumerate() {
        *slot = row + 1;
    }
    for (value, slot) in names.values_mut().enumerate() {
        *slot = value + 1;
    }
    let nrows = rows.len().max(1);

    let mut out = String::new();
    // Header: fixed date, total time, one node, one application with
    // `nrows` tasks of one thread each.
    let _ = writeln!(
        out,
        "#Paraver (01/01/2019 at 00:00):{end_us}_us:1({nrows}):1:{nrows}({})",
        vec!["1:1"; nrows].join(",")
    );
    for (track, row) in &rows {
        let _ = writeln!(out, "# row {row}: {}", track.label());
    }
    for (name, value) in &names {
        let _ = writeln!(out, "# value {value}: {}", escape_name(name));
    }

    // Records, sorted by (time, row, record type, payload) so the
    // export does not depend on recorder arrival order.
    let mut records: Vec<(u64, usize, u32, String)> = Vec::new();
    for event in events {
        match event {
            Event::Span {
                track,
                name,
                phase,
                start_us,
                dur_us,
                ctx: _,
            } => {
                let row = rows[track];
                records.push((
                    *start_us,
                    row,
                    1,
                    format!(
                        "1:1:1:{row}:1:{start_us}:{}:{}",
                        start_us + dur_us,
                        phase.paraver_state()
                    ),
                ));
                records.push((
                    *start_us,
                    row,
                    2,
                    format!(
                        "2:1:1:{row}:1:{start_us}:{TASK_NAME_EVENT_TYPE}:{}",
                        names[name.as_str()]
                    ),
                ));
            }
            Event::Instant {
                track,
                phase,
                at_us,
                ..
            } => {
                let row = rows[track];
                records.push((
                    *at_us,
                    row,
                    2,
                    format!(
                        "2:1:1:{row}:1:{at_us}:{}:1",
                        PHASE_EVENT_TYPE_BASE + phase.paraver_state()
                    ),
                ));
            }
            Event::Counter { .. } => {} // counters have no .prv record here
        }
    }
    records.sort();
    for (_, _, _, line) in records {
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TaskPhase;

    #[test]
    fn header_and_records_render() {
        let events = vec![
            Event::Span {
                track: Track::Node(0),
                name: "t".into(),
                phase: TaskPhase::Executing,
                start_us: 0,
                dur_us: 1_000,
                ctx: None,
            },
            Event::Instant {
                track: Track::Node(0),
                name: "t".into(),
                phase: TaskPhase::Committed,
                at_us: 1_000,
            },
        ];
        let prv = paraver_trace(&events);
        let lines: Vec<&str> = prv.lines().collect();
        assert!(lines[0].starts_with("#Paraver (01/01/2019 at 00:00):1000_us"));
        assert!(lines.contains(&"1:1:1:1:1:0:1000:1"));
        assert!(lines.iter().any(|l| l.starts_with("2:1:1:1:1:1000:")));
        assert!(prv.contains("# value 1: t"), "span names get a table row");
    }

    #[test]
    fn rows_assigned_in_track_order() {
        let mk = |track| Event::Span {
            track,
            name: "t".into(),
            phase: TaskPhase::Executing,
            start_us: 0,
            dur_us: 1,
            ctx: None,
        };
        // Arrival order worker-then-node; sorted order is node first.
        let prv = paraver_trace(&[mk(Track::Worker(0)), mk(Track::Node(3))]);
        assert!(prv.contains("# row 1: node 3"));
        assert!(prv.contains("# row 2: worker 0"));
    }

    #[test]
    fn export_is_deterministic() {
        let events = vec![Event::Span {
            track: Track::Run,
            name: "run".into(),
            phase: TaskPhase::Executing,
            start_us: 0,
            dur_us: 42,
            ctx: None,
        }];
        assert_eq!(paraver_trace(&events), paraver_trace(&events));
    }

    #[test]
    fn hostile_names_are_escaped_in_the_table() {
        let events = vec![Event::Span {
            track: Track::Node(0),
            name: "a:b,c\nd".into(),
            phase: TaskPhase::Executing,
            start_us: 0,
            dur_us: 1,
            ctx: None,
        }];
        let prv = paraver_trace(&events);
        assert!(prv.contains("# value 1: a\\:b\\,c\\nd"));
        // The raw newline must not have produced an extra line.
        assert!(!prv.lines().any(|l| l == "d"));
    }

    #[test]
    fn stream_wait_spans_get_their_own_state() {
        let mk = |name: &'static str| Event::Span {
            track: Track::Worker(2),
            name: name.into(),
            phase: TaskPhase::StreamWait,
            start_us: 10,
            dur_us: 30,
            ctx: None,
        };
        let prv = paraver_trace(&[mk("stream:s0"), mk("stream:s1")]);
        assert!(
            prv.contains(&format!(
                "1:1:1:1:1:10:40:{}",
                TaskPhase::StreamWait.paraver_state()
            )),
            "stream-wait state record present:\n{prv}"
        );
        assert_eq!(
            paraver_trace(&[mk("stream:s1"), mk("stream:s0")]),
            prv,
            "arrival order must not change bytes"
        );
    }

    #[test]
    fn equal_timestamp_records_order_independently_of_arrival() {
        let mk = |track, name: &'static str| Event::Span {
            track,
            name: name.into(),
            phase: TaskPhase::Executing,
            start_us: 50,
            dur_us: 5,
            ctx: None,
        };
        let a = mk(Track::Node(0), "x");
        let b = mk(Track::Node(1), "y");
        assert_eq!(
            paraver_trace(&[a.clone(), b.clone()]),
            paraver_trace(&[b, a])
        );
    }
}
