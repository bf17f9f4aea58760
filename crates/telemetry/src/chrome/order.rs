//! The order payload rows are exported in, computed on 16-byte keys.
//!
//! The order is `(timestamp, track, kind, duration, name, phase, span
//! id)`, with arrival order between events equal in all of it, so that
//! equal-timestamp events export identically regardless of recorder
//! interleaving (worker threads racing to a shared buffer must not
//! change the bytes on disk).
//!
//! Every field becomes an integer no wider than the trace needs: the
//! timestamp less the earliest one, the row by its rank among the
//! trace's rows, the duration from the longest one down, the name by its
//! rank among the trace's distinct names, the phase by a table, the span
//! id as it is. The fields are packed into one `u128` in that order,
//! above the arrival index. A trace whose fields do not all fit keeps
//! the top bits that do; events whose packed fields come out equal are
//! then put in order by comparing the events themselves, so every trace
//! gets the one order from one sort.

use crate::event::{CounterKey, Event, TaskPhase, Track};
use crate::names::{NameRanks, Ranked};
use serde::json::write_json_string;
use std::cmp::Ordering;
use std::collections::BTreeSet;

/// What the writer needs besides the events: their order, the tracks
/// that get a metadata row, and their names already escaped.
pub(super) struct Plan<'a> {
    /// Arrival indices in export order.
    pub(super) order: Vec<u32>,
    /// Tracks that need a metadata row.
    pub(super) tracks: BTreeSet<Track>,
    /// The rank of each span's and instant's name, by where its text
    /// lives.
    names: Ranked<'a>,
    /// The rank of each counter key's label. (A label's place is not
    /// taken from the event: copies of one literal may sit at several
    /// addresses.)
    counter_ranks: [u32; CounterKey::ALL.len()],
    /// Every distinct name as a JSON string (quotes included), back to
    /// back in rank order: each text is escaped once, however many
    /// events carry it.
    quoted: String,
    /// Where each rank's string ends in `quoted`.
    ends: Vec<usize>,
}

impl Plan<'_> {
    /// The name of `event`, one of the events the plan was made for, as
    /// a JSON string.
    pub(super) fn quoted_name(&self, event: &Event) -> &str {
        let rank = match event {
            Event::Span { name, .. } | Event::Instant { name, .. } => self.names.rank(name),
            Event::Counter { key, .. } => self.counter_ranks[*key as usize],
        } as usize;
        let start = if rank == 0 { 0 } else { self.ends[rank - 1] };
        &self.quoted[start..self.ends[rank]]
    }
}

/// Bits needed to write `x`.
fn bits(x: u64) -> u32 {
    u64::BITS - x.leading_zeros()
}

/// Bits a phase rank takes (see [`phase_ranks`]).
const PHASE_BITS: u32 = 4;

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

/// `(pid, tid)` as one integer that orders like the pair (a `tid` takes
/// at most 32 bits, see [`Track::chrome_tid`]).
fn pid_tid(track: Track) -> u64 {
    track.chrome_pid() << 32 | track.chrome_tid()
}

/// The sort fields of an event, compared as they are: what the packed
/// keys stand for, and what decides between events whose keys tie.
fn fields(event: &Event) -> (u64, u64, u64, &str, &str, u64) {
    // The row is `(pid, tid, kind)`: the kind takes two bits, and the
    // counter row is `(0, 0, 2)`.
    let row = |track: Track, kind: u64| pid_tid(track) << 2 | kind;
    match event {
        Event::Span {
            track,
            name,
            phase,
            start_us,
            dur_us,
            ctx,
        } => (
            *start_us,
            row(*track, 0),
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
        } => (*at_us, row(*track, 1), 0, name.as_str(), phase.as_str(), 0),
        Event::Counter { key, at_us, .. } => (*at_us, 2, 0, key.as_str(), "", 0),
    }
}

/// How the six sort fields sit in a key: each field's width and how
/// many of its top bits the key keeps, and the arrival index's width.
struct Packing {
    fields: [(u32, u32); 6],
    index_bits: u32,
}

impl Packing {
    /// Keeps each field whole while the key has room for it, then the
    /// top bits of the first that does not fit, then nothing.
    fn new(widths: [u32; 6], index_bits: u32) -> Packing {
        let mut room = u128::BITS - index_bits;
        let fields = widths.map(|width| {
            let keep = width.min(room);
            room -= keep;
            (width, keep)
        });
        Packing { fields, index_bits }
    }

    /// Whether every field is kept whole.
    fn exact(&self) -> bool {
        self.fields.iter().all(|&(width, keep)| keep == width)
    }

    fn key(&self, values: [u64; 6], index: u32) -> u128 {
        let mut key = 0u128;
        for (value, &(width, keep)) in values.into_iter().zip(&self.fields) {
            if keep > 0 {
                key = key << keep | u128::from(value >> (width - keep));
            }
        }
        key << self.index_bits | u128::from(index)
    }
}

/// Two passes over the events and one sort of 16-byte keys: the export
/// order as arrival indices, the tracks that need a metadata row and the
/// escaped names. The keys are gone when it returns.
///
/// # Panics
///
/// On a trace of `2^32` events or more.
pub(super) fn export_plan(events: &[Event]) -> Plan<'_> {
    assert!(
        u32::try_from(events.len()).is_ok(),
        "a trace exports at most 2^32 - 1 events"
    );
    // First pass: name ids, tracks, and the range of every field.
    let mut names = NameRanks::default();
    let mut name_ids = Vec::with_capacity(events.len());
    let mut tracks = BTreeSet::new();
    let mut last_track = None;
    let (mut first_at, mut last_at) = (u64::MAX, 0);
    let (mut longest, mut top_span) = (0, 0);
    let mut counter_ids = [0; CounterKey::ALL.len()];
    for event in events {
        let (at, name, track) = match event {
            Event::Span {
                track,
                name,
                start_us,
                dur_us,
                ctx,
                ..
            } => {
                longest = longest.max(*dur_us);
                top_span = top_span.max(ctx.as_ref().map_or(0, |c| c.span_id));
                (*start_us, name.as_str(), Some(*track))
            }
            Event::Instant {
                track, name, at_us, ..
            } => (*at_us, name.as_str(), Some(*track)),
            Event::Counter { key, at_us, .. } => (*at_us, key.as_str(), None),
        };
        first_at = first_at.min(at);
        last_at = last_at.max(at);
        let id = names.id(name);
        if track.is_some() && track != last_track {
            tracks.extend(track);
            last_track = track;
        }
        if let Event::Counter { key, .. } = event {
            counter_ids[*key as usize] = id;
        }
        name_ids.push(id);
    }
    let (ranks, names) = names.ranked();
    let counter_ranks = counter_ids.map(|id| ranks.get(id as usize).copied().unwrap_or(0));

    // Rows rank by `(pid, tid)`, two per pair (spans, then instants),
    // above the counter row's zero. Two tracks can share a pair.
    let mut pairs: Vec<u64> = tracks.iter().map(|&t| pid_tid(t)).collect();
    pairs.sort_unstable();
    pairs.dedup();
    let mut last_pair = (u64::MAX, 0);
    let mut row_rank = |track: Track, kind: u64| {
        let pair = pid_tid(track);
        if last_pair.0 != pair {
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: `pairs` holds the pair of every track in the plan, and rows are ranked only for those tracks"
            )]
            let place = pairs.binary_search(&pair).expect("every track was seen");
            last_pair = (pair, 1 + 2 * place as u64);
        }
        last_pair.1 + kind
    };

    // Second pass: the keys.
    let phase_rank = phase_ranks();
    let packing = Packing::new(
        [
            bits(last_at.saturating_sub(first_at)),
            bits(2 * pairs.len() as u64),
            bits(longest),
            bits(names.texts.len().saturating_sub(1) as u64),
            PHASE_BITS,
            bits(top_span),
        ],
        bits(events.len().saturating_sub(1) as u64),
    );
    let mut keys = Vec::with_capacity(events.len());
    for ((event, index), id) in events.iter().zip(0..).zip(name_ids) {
        let rank = u64::from(ranks[id as usize]);
        let values = match event {
            Event::Span {
                track,
                phase,
                start_us,
                dur_us,
                ctx,
                ..
            } => [
                start_us - first_at,
                row_rank(*track, 0),
                longest - dur_us,
                rank,
                phase_rank[*phase as usize],
                ctx.as_ref().map_or(0, |c| c.span_id),
            ],
            Event::Instant {
                track,
                phase,
                at_us,
                ..
            } => [
                at_us - first_at,
                row_rank(*track, 1),
                0,
                rank,
                phase_rank[*phase as usize],
                0,
            ],
            Event::Counter { at_us, .. } => [at_us - first_at, 0, 0, rank, 0, 0],
        };
        keys.push(packing.key(values, index));
    }
    keys.sort_unstable();

    // Keys that tie above the index differ, if at all, only in bits
    // the key had no room for: the events decide. Where every field fit,
    // tied events are equal in all of them, and already in arrival order.
    let index_of = |key: u128| (key & ((1 << packing.index_bits) - 1)) as u32;
    let full = |a: &u128, b: &u128| -> Ordering {
        let (i, j) = (index_of(*a), index_of(*b));
        fields(&events[i as usize])
            .cmp(&fields(&events[j as usize]))
            .then(i.cmp(&j))
    };
    if !packing.exact() {
        for run in keys.chunk_by_mut(|a, b| a >> packing.index_bits == b >> packing.index_bits) {
            if run.len() > 1 {
                run.sort_unstable_by(full);
            }
        }
    }
    let order = keys.iter().map(|&key| index_of(key)).collect();
    drop(keys);

    // Room for every text and its quotes; only escapes grow it.
    let mut quoted = String::with_capacity(names.texts.iter().map(|t| t.len() + 2).sum());
    let mut ends = Vec::with_capacity(names.texts.len());
    for text in &names.texts {
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: `fmt::Write` for `String` never returns an error, and `write_json_string` raises none of its own"
        )]
        write_json_string(text, &mut quoted).expect("writing to a String cannot fail");
        ends.push(quoted.len());
    }
    Plan {
        order,
        tracks,
        names,
        counter_ranks,
        quoted,
        ends,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::SpanContext;

    #[test]
    fn phase_table_ranks_the_phase_names() {
        let ranks = phase_ranks();
        for (i, p) in TaskPhase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i, "ALL lists the phases in declaration order");
            for (j, q) in TaskPhase::ALL.iter().enumerate() {
                assert_eq!(ranks[i].cmp(&ranks[j]), p.as_str().cmp(q.as_str()));
            }
        }
        assert!(ranks.iter().all(|&r| r > 0 && bits(r) <= PHASE_BITS));
    }

    /// Timestamps and durations of 64 bits each leave the key no room
    /// for names, phases and span ids: those decide after the sort.
    #[test]
    fn keys_that_tie_are_ordered_by_their_events() {
        let mut events = Vec::new();
        for (i, name) in ["d", "b", "c", "a", "b", "a"].into_iter().enumerate() {
            let ctx = SpanContext::root(1, 0).child(0, i as u64 % 2);
            events.push(Event::Span {
                track: Track::Node(0),
                name: name.into(),
                phase: TaskPhase::ALL[i % 3],
                start_us: if i < 4 { 0 } else { u64::MAX },
                dur_us: if i % 2 == 0 { u64::MAX } else { 0 },
                ctx: (i % 4 != 0).then(|| Box::new(ctx)),
            });
            events.push(Event::Instant {
                track: Track::Node(0),
                name: name.into(),
                phase: TaskPhase::ALL[i % 2],
                at_us: u64::MAX,
            });
        }
        events.extend(events.clone());
        let plan = export_plan(&events);
        let mut expected: Vec<u32> = (0..events.len() as u32).collect();
        expected.sort_by_key(|&i| (fields(&events[i as usize]), i));
        assert_eq!(plan.order, expected);
        for event in &events {
            let (_, _, _, name, _, _) = fields(event);
            assert_eq!(plan.quoted_name(event), format!("\"{name}\""));
        }
    }

    #[test]
    fn fields_that_do_not_fit_keep_their_top_bits() {
        let packing = Packing::new([64, 3, 64, 10, 4, 0], 20);
        assert_eq!(
            packing.fields,
            [(64, 64), (3, 3), (64, 41), (10, 0), (4, 0), (0, 0)]
        );
        assert!(!packing.exact());
        assert!(Packing::new([64, 3, 20, 10, 4, 0], 20).exact());
        let key = packing.key([u64::MAX, 5, 1 << 63 | 1 << 23 | 1, 7, 3, 0], 9);
        assert_eq!(key >> 64, u128::from(u64::MAX), "timestamp on top");
        assert_eq!(key >> 61 & 7, 5, "then the row");
        assert_eq!(
            key >> 20 & ((1 << 41) - 1),
            1 << 40 | 1,
            "the duration's top 41 bits"
        );
        assert_eq!(key & 0xF_FFFF, 9, "arrival index last");
    }
}
