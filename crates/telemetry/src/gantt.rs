//! ASCII Gantt rendering: one labelled row per timeline, time bucketed
//! into fixed-width columns. This is the single renderer behind the
//! simulator's `ExecutionTrace::gantt` and the event-stream view here.

use crate::event::{Event, TaskPhase, Track};
use std::collections::BTreeMap;

/// One busy interval on a Gantt row, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GanttSpan {
    /// Interval start.
    pub start_s: f64,
    /// Interval end.
    pub end_s: f64,
    /// Render as `r` (a lineage replay) instead of `#`.
    pub replay: bool,
}

/// Renders labelled rows of busy intervals. Busy buckets show `#`,
/// replays `r`; the footer marks the time axis.
pub fn render(rows: &[(String, Vec<GanttSpan>)], width: usize) -> String {
    let width = width.max(3);
    let end = rows
        .iter()
        .flat_map(|(_, spans)| spans.iter().map(|s| s.end_s))
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let label_width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0).max(4);
    let mut out = String::new();
    for (label, spans) in rows {
        let mut row = vec![b' '; width];
        for span in spans {
            let a = ((span.start_s / end) * width as f64).floor() as usize;
            let b = ((span.end_s / end) * width as f64).ceil() as usize;
            for cell in row.iter_mut().take(b.min(width)).skip(a.min(width)) {
                *cell = if span.replay { b'r' } else { b'#' };
            }
        }
        out.push_str(&format!(
            "{label:<label_width$} |{}|\n",
            String::from_utf8_lossy(&row)
        ));
    }
    out.push_str(&format!(
        "{:l$}0s {:>w$.1}s\n",
        "",
        end,
        l = label_width + 2,
        w = width - 2
    ));
    out
}

/// Builds Gantt rows from an event stream — one row per track carrying
/// `Executing` spans, replays detected via `Replayed` markers sharing
/// the span's name and track — and renders them.
pub fn render_events(events: &[Event], width: usize) -> String {
    let mut rows: BTreeMap<Track, Vec<GanttSpan>> = BTreeMap::new();
    for event in events {
        if let Event::Span {
            track,
            phase: TaskPhase::Executing,
            start_us,
            dur_us,
            ..
        } = event
        {
            let replay = events.iter().any(|e| {
                matches!(e, Event::Instant { track: t, phase: TaskPhase::Replayed, at_us, .. }
                    if t == track && *at_us == start_us + dur_us)
            });
            rows.entry(*track).or_default().push(GanttSpan {
                start_s: *start_us as f64 / 1e6,
                end_s: (*start_us + *dur_us) as f64 / 1e6,
                replay,
            });
        }
    }
    let rows: Vec<(String, Vec<GanttSpan>)> = rows
        .into_iter()
        .map(|(track, spans)| (track.label(), spans))
        .collect();
    render(&rows, width)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_and_idle_cells_render() {
        let rows = vec![
            (
                "n0".to_string(),
                vec![GanttSpan {
                    start_s: 0.0,
                    end_s: 10.0,
                    replay: false,
                }],
            ),
            (
                "n1".to_string(),
                vec![GanttSpan {
                    start_s: 5.0,
                    end_s: 10.0,
                    replay: true,
                }],
            ),
        ];
        let g = render(&rows, 20);
        let lines: Vec<&str> = g.lines().collect();
        assert!(lines[0].starts_with("n0"));
        assert!(lines[0].contains("####"));
        let bar = &lines[1][lines[1].find('|').unwrap() + 1..lines[1].rfind('|').unwrap()];
        assert!(bar.starts_with(' '), "idle first half");
        assert!(bar.ends_with('r'), "replay cells");
        assert!(lines[2].contains("0s"));
    }

    #[test]
    fn event_stream_renders_per_track() {
        let events = vec![Event::Span {
            track: Track::Node(0),
            name: "t".into(),
            phase: TaskPhase::Executing,
            start_us: 0,
            dur_us: 2_000_000,
            ctx: None,
        }];
        let g = render_events(&events, 10);
        assert!(g.starts_with("node 0 |"));
        assert!(g.contains('#'));
    }
}
