//! Prometheus text-format exposition of a [`MetricsSnapshot`].
//!
//! No HTTP server — the caller writes the rendered page to a path (a
//! node-exporter textfile-collector drop) or to stdout. The format is
//! the plain `text/plain; version=0.0.4` exposition dialect: `# HELP` /
//! `# TYPE` preambles, one sample per line, deterministic ordering
//! (phases in lifecycle order, counter keys in declaration order).

use crate::event::{CounterKey, TaskPhase};
use crate::metrics::{Histogram, MetricsSnapshot};
use crate::ring::RingRecorder;
use std::fmt::Write as _;

/// Prometheus floats: integral values render without an exponent so
/// pages are stable and diffable; everything else uses `{}` which the
/// exposition format accepts (including scientific notation).
fn num(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

fn seconds(us: u64) -> String {
    num(us as f64 / 1e6)
}

fn histogram_lines(out: &mut String, name: &str, help: &str, h: &Histogram) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0u64;
    for (i, n) in h.buckets().iter().enumerate() {
        cumulative += n;
        let le = Histogram::bucket_bound_us(i) as f64 / 1e6;
        let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cumulative}", num(le));
    }
    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
    let _ = writeln!(out, "{name}_sum {}", seconds(h.total_us()));
    let _ = writeln!(out, "{name}_count {}", h.count());
}

/// Renders a snapshot as a Prometheus text-format page.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();

    let _ = writeln!(
        out,
        "# HELP continuum_run_duration_seconds Timestamp of the latest event edge."
    );
    let _ = writeln!(out, "# TYPE continuum_run_duration_seconds gauge");
    let _ = writeln!(
        out,
        "continuum_run_duration_seconds {}",
        seconds(snap.end_us)
    );

    let _ = writeln!(
        out,
        "# HELP continuum_spans_total Closed spans per lifecycle phase."
    );
    let _ = writeln!(out, "# TYPE continuum_spans_total counter");
    for phase in TaskPhase::ALL {
        if let Some(stat) = snap.spans.get(&phase) {
            let _ = writeln!(
                out,
                "continuum_spans_total{{phase=\"{}\"}} {}",
                phase.as_str(),
                stat.count
            );
        }
    }

    let _ = writeln!(
        out,
        "# HELP continuum_span_seconds_total Summed span time per lifecycle phase."
    );
    let _ = writeln!(out, "# TYPE continuum_span_seconds_total counter");
    for phase in TaskPhase::ALL {
        if let Some(stat) = snap.spans.get(&phase) {
            let _ = writeln!(
                out,
                "continuum_span_seconds_total{{phase=\"{}\"}} {}",
                phase.as_str(),
                seconds(stat.total_us)
            );
        }
    }

    let _ = writeln!(
        out,
        "# HELP continuum_markers_total Instant markers per lifecycle phase."
    );
    let _ = writeln!(out, "# TYPE continuum_markers_total counter");
    for phase in TaskPhase::ALL {
        if let Some(n) = snap.instants.get(&phase) {
            let _ = writeln!(
                out,
                "continuum_markers_total{{phase=\"{}\"}} {n}",
                phase.as_str()
            );
        }
    }

    let _ = writeln!(
        out,
        "# HELP continuum_counter Last and peak sampled value per engine counter."
    );
    let _ = writeln!(out, "# TYPE continuum_counter gauge");
    for key in CounterKey::ALL {
        if let Some(last) = snap.counters_last.get(&key) {
            let peak = snap.counters_peak.get(&key).copied().unwrap_or(*last);
            let _ = writeln!(
                out,
                "continuum_counter{{key=\"{}\",stat=\"last\"}} {}",
                key.as_str(),
                num(*last)
            );
            let _ = writeln!(
                out,
                "continuum_counter{{key=\"{}\",stat=\"peak\"}} {}",
                key.as_str(),
                num(peak)
            );
        }
    }

    histogram_lines(
        &mut out,
        "continuum_exec_duration_seconds",
        "Distribution of executing-span durations.",
        &snap.exec_histogram,
    );
    out
}

/// Like [`prometheus_text`], with the bounded recorder's data-loss
/// counters appended — how many events the ring overwrote and how many
/// spans its sampler dropped. A snapshot scraped from a [`RingRecorder`]
/// without these gauges silently under-reports; with them, dashboards
/// can alert on loss instead of trusting a truncated window.
pub fn prometheus_text_with_ring(snap: &MetricsSnapshot, ring: &RingRecorder) -> String {
    let mut out = prometheus_text(snap);
    let _ = writeln!(
        out,
        "# HELP continuum_ring_capacity_events Bounded recorder ring capacity."
    );
    let _ = writeln!(out, "# TYPE continuum_ring_capacity_events gauge");
    let _ = writeln!(out, "continuum_ring_capacity_events {}", ring.capacity());
    let _ = writeln!(
        out,
        "# HELP continuum_ring_buffered_events Events currently retained in the ring."
    );
    let _ = writeln!(out, "# TYPE continuum_ring_buffered_events gauge");
    let _ = writeln!(out, "continuum_ring_buffered_events {}", ring.len());
    let _ = writeln!(
        out,
        "# HELP continuum_ring_overwritten_events_total Events evicted by ring wraparound."
    );
    let _ = writeln!(
        out,
        "# TYPE continuum_ring_overwritten_events_total counter"
    );
    let _ = writeln!(
        out,
        "continuum_ring_overwritten_events_total {}",
        ring.overwritten()
    );
    let _ = writeln!(
        out,
        "# HELP continuum_ring_sampled_out_spans_total Spans dropped by 1-in-N sampling before buffering."
    );
    let _ = writeln!(out, "# TYPE continuum_ring_sampled_out_spans_total counter");
    let _ = writeln!(
        out,
        "continuum_ring_sampled_out_spans_total {}",
        ring.sampled_out()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, Track};

    fn sample_snapshot() -> MetricsSnapshot {
        MetricsSnapshot::from_events(&[
            Event::Span {
                track: Track::Node(0),
                name: "t".into(),
                phase: TaskPhase::Executing,
                start_us: 0,
                dur_us: 1_500_000,
                ctx: None,
            },
            Event::Span {
                track: Track::Node(1),
                name: "t".into(),
                phase: TaskPhase::Executing,
                start_us: 0,
                dur_us: 3,
                ctx: None,
            },
            Event::Instant {
                track: Track::Node(0),
                name: "t".into(),
                phase: TaskPhase::Committed,
                at_us: 1_500_000,
            },
            Event::Counter {
                key: CounterKey::QueueDepth,
                at_us: 10,
                value: 7.0,
            },
            Event::Counter {
                key: CounterKey::QueueDepth,
                at_us: 20,
                value: 2.0,
            },
        ])
    }

    #[test]
    fn page_has_preambles_and_samples() {
        let page = prometheus_text(&sample_snapshot());
        assert!(page.contains("# TYPE continuum_spans_total counter"));
        assert!(page.contains("continuum_spans_total{phase=\"executing\"} 2"));
        assert!(page.contains("continuum_span_seconds_total{phase=\"executing\"} 1.500003"));
        assert!(page.contains("continuum_markers_total{phase=\"committed\"} 1"));
        assert!(page.contains("continuum_counter{key=\"queue_depth\",stat=\"last\"} 2"));
        assert!(page.contains("continuum_counter{key=\"queue_depth\",stat=\"peak\"} 7"));
        assert!(page.contains("continuum_run_duration_seconds 1.5"));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_end_at_count() {
        let page = prometheus_text(&sample_snapshot());
        assert!(page.contains("continuum_exec_duration_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(page.contains("continuum_exec_duration_seconds_count 2"));
        assert!(page.contains("continuum_exec_duration_seconds_sum 1.500003"));
        // Cumulative counts never decrease down the page.
        let mut last = 0u64;
        for line in page.lines() {
            if let Some(rest) = line.strip_prefix("continuum_exec_duration_seconds_bucket") {
                let n: u64 = rest.split('}').nth(1).unwrap().trim().parse().unwrap();
                assert!(n >= last, "cumulative buckets must not decrease");
                last = n;
            }
        }
    }

    #[test]
    fn page_is_deterministic() {
        let snap = sample_snapshot();
        assert_eq!(prometheus_text(&snap), prometheus_text(&snap));
    }

    #[test]
    fn ring_page_exposes_data_loss() {
        use crate::recorder::Recorder;

        // Capacity 2, sampling 1-in-2: feed 5 spans so both loss modes
        // (sampler drops and ring overwrites) have non-zero counters.
        let ring = crate::ring::RingRecorder::with_sampling(2, 2);
        for i in 0..5u64 {
            ring.record(Event::Span {
                track: Track::Worker(0),
                name: format!("t{i}").into(),
                phase: TaskPhase::Executing,
                start_us: i,
                dur_us: 1,
                ctx: None,
            });
        }
        let snap = MetricsSnapshot::from_events(&ring.events());
        let page = prometheus_text_with_ring(&snap, &ring);
        assert!(page.contains("continuum_ring_capacity_events 2"));
        assert!(page.contains("continuum_ring_buffered_events 2"));
        assert!(page.contains(&format!(
            "continuum_ring_overwritten_events_total {}",
            ring.overwritten()
        )));
        assert!(page.contains(&format!(
            "continuum_ring_sampled_out_spans_total {}",
            ring.sampled_out()
        )));
        assert!(ring.sampled_out() > 0, "sampler must have dropped spans");
        assert!(ring.overwritten() > 0, "ring must have wrapped");
        // The base page is a prefix: ring metrics only append.
        assert!(page.starts_with(&prometheus_text(&snap)));
    }
}
