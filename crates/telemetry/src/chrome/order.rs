//! The order payload rows are exported in, computed on integers.
//!
//! The order is `(timestamp, track, kind, duration, name, phase, span
//! id)`, with arrival order between events equal in all of it, so that
//! equal-timestamp events export identically regardless of recorder
//! interleaving (worker threads racing to a shared buffer must not
//! change the bytes on disk). Every field becomes an integer before the
//! sort: names by their rank among the trace's distinct names, phases by
//! a table, so no comparison reads an event or a string.

use crate::event::{Event, TaskPhase, Track};
use crate::names::NameRanks;
use std::collections::BTreeSet;

/// One event's place in the export. The derived order is the export
/// order: fields compare top to bottom, and because the arrival index
/// decides last no two slots compare equal, so any correct sort gives
/// the one order (the unstable one needs no scratch block).
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Slot {
    at_us: u64,
    /// `(pid, tid, kind)`, see [`row_key`].
    row: u64,
    /// `u64::MAX - duration` for spans: parents enclose children, so
    /// longer spans go first.
    longer_first: u64,
    /// The name's rank above eight bits of phase rank (the name's id
    /// from [`NameRanks::id`] until the ranks are known).
    name_phase: u64,
    span_id: u64,
    index: u32,
}

/// `(pid, tid, kind)` as one integer that orders like the triple: the
/// kind needs two bits, a `tid` at most 32 (see [`Track::chrome_tid`]).
fn row_key(track: Track, kind: u64) -> u64 {
    track.chrome_pid() << 34 | track.chrome_tid() << 2 | kind
}

/// `1 +` each phase's place among the phase names in byte order,
/// indexed by the phase's place in [`TaskPhase::ALL`]. Zero stands for
/// the empty phase of counter rows.
fn phase_ranks() -> [u64; TaskPhase::ALL.len()] {
    TaskPhase::ALL.map(|p| {
        1 + TaskPhase::ALL
            .iter()
            .filter(|q| q.as_str() < p.as_str())
            .count() as u64
    })
}

/// One pass over the events: their export order as arrival indices, and
/// the tracks that need a metadata row. The sort keys are gone when it
/// returns; only the four-byte indices are left.
///
/// # Panics
///
/// On a trace of `2^32` events or more.
pub(super) fn export_order(events: &[Event]) -> (Vec<u32>, BTreeSet<Track>) {
    assert!(
        u32::try_from(events.len()).is_ok(),
        "a trace exports at most 2^32 - 1 events"
    );
    let phase_rank = phase_ranks();
    let mut names = NameRanks::default();
    let mut tracks = BTreeSet::new();
    let mut last_track = None;
    let mut slots = Vec::with_capacity(events.len());
    for (event, index) in events.iter().zip(0..) {
        let slot = match event {
            Event::Span {
                track,
                name,
                phase,
                start_us,
                dur_us,
                ctx,
            } => Slot {
                at_us: *start_us,
                row: row_key(*track, 0),
                longer_first: u64::MAX - dur_us,
                name_phase: u64::from(names.id(name)) << 8 | phase_rank[*phase as usize],
                span_id: ctx.map_or(0, |c| c.span_id),
                index,
            },
            Event::Instant {
                track,
                name,
                phase,
                at_us,
            } => Slot {
                at_us: *at_us,
                row: row_key(*track, 1),
                longer_first: 0,
                name_phase: u64::from(names.id(name)) << 8 | phase_rank[*phase as usize],
                span_id: 0,
                index,
            },
            Event::Counter { key, at_us, .. } => Slot {
                at_us: *at_us,
                row: 2,
                longer_first: 0,
                name_phase: u64::from(names.id(key.as_str())) << 8,
                span_id: 0,
                index,
            },
        };
        if let Event::Span { track, .. } | Event::Instant { track, .. } = event {
            if last_track != Some(*track) {
                tracks.insert(*track);
                last_track = Some(*track);
            }
        }
        slots.push(slot);
    }
    let ranks = names.ranks();
    for slot in &mut slots {
        let rank = u64::from(ranks[(slot.name_phase >> 8) as usize]);
        slot.name_phase = rank << 8 | slot.name_phase & 0xFF;
    }
    slots.sort_unstable();
    let order = slots.iter().map(|slot| slot.index).collect();
    (order, tracks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_table_ranks_the_phase_names() {
        let ranks = phase_ranks();
        for (i, p) in TaskPhase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "ALL lists the phases in declaration order");
            for (j, q) in TaskPhase::ALL.iter().enumerate() {
                assert_eq!(ranks[i].cmp(&ranks[j]), p.as_str().cmp(q.as_str()));
            }
        }
        assert!(ranks.iter().all(|&r| r > 0 && r < 256));
    }
}
