//! `SegVec` against a flat model: random pushes and retirements, a
//! second column following every outcome. The model keeps one
//! `Option` per index and states the retirement policy over it the
//! slow, obvious way — count the segment's live slots.

use continuum_dag::{Retired, SegVec, EVACUATE_LIVE, SEGMENT_SLOTS};
use proptest::prelude::*;
use std::ops::Range;

#[derive(Debug, Clone)]
enum Op {
    Push(usize),
    /// Retire a run of indices, sparing every `spare_every`-th (the
    /// stragglers); positions are per mille of the current length.
    RetireRun {
        start: usize,
        len: usize,
        spare_every: usize,
    },
    /// Retire one index, possibly a repeat or one never pushed.
    RetireOne(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let op = prop_oneof![
        (1..1500usize).prop_map(Op::Push),
        // Runs long enough to drain a segment, sparing nothing or a
        // few slots of each.
        (
            0..1000usize,
            1..2500usize,
            prop_oneof![Just(0usize), 90..700usize]
        )
            .prop_map(|(start, len, spare_every)| Op::RetireRun {
                start,
                len,
                spare_every,
            }),
        (0..1100usize).prop_map(Op::RetireOne),
    ];
    proptest::collection::vec(op, 1..48)
}

/// What a column must answer, index by index.
#[derive(Default)]
struct Model {
    /// The leading column: `None` once the slot is gone.
    lead: Vec<Option<u64>>,
    /// The following column.
    follow: Vec<Option<u64>>,
    retired: Vec<bool>,
    /// Segments whose block is gone.
    gone: Vec<bool>,
}

impl Model {
    fn segment(&self, s: usize) -> Range<usize> {
        s * SEGMENT_SLOTS..((s + 1) * SEGMENT_SLOTS).min(self.lead.len())
    }

    fn push(&mut self, value: u64) {
        if self.lead.len().is_multiple_of(SEGMENT_SLOTS) {
            self.gone.push(false);
        }
        self.lead.push(Some(value));
        self.follow.push(Some(value + 1));
        self.retired.push(false);
    }

    /// Retires `index` and says what the column has to report.
    fn retire(&mut self, index: usize) -> Retired {
        if index >= self.lead.len() || self.retired[index] {
            return Retired::Nothing;
        }
        self.retired[index] = true;
        let s = index / SEGMENT_SLOTS;
        let range = self.segment(s);
        let live: Vec<usize> = range.clone().filter(|&i| !self.retired[i]).collect();
        if self.gone[s] {
            self.lead[index] = None;
            if live.is_empty() {
                range.for_each(|i| self.follow[i] = None);
                return Retired::Dropped(s);
            }
            return Retired::Nothing;
        }
        if range.len() < SEGMENT_SLOTS || live.len() > EVACUATE_LIVE {
            return Retired::Nothing;
        }
        self.gone[s] = true;
        for i in range.filter(|i| !live.contains(i)) {
            self.lead[i] = None;
            self.follow[i] = None;
        }
        if live.is_empty() {
            Retired::Dropped(s)
        } else {
            Retired::Evacuated {
                segment: s,
                survivors: live.into_iter().collect(),
            }
        }
    }
}

fn check(model: &[Option<u64>], gone: &[bool], column: &SegVec<u64>) {
    prop_assert_eq!(column.len(), model.len());
    for (i, want) in model.iter().enumerate() {
        prop_assert_eq!(column.get(i), want.as_ref(), "get({})", i);
    }
    prop_assert_eq!(column.get(model.len()), None);
    prop_assert!(column.iter().eq(model.iter().flatten()), "iter()");
    prop_assert!(
        column.iter().rev().eq(model.iter().rev().flatten()),
        "iter().rev()"
    );
    for start in [0, 1, 1023, 1024, 1500, model.len() / 2, model.len()] {
        let want = model.iter().skip(start).flatten();
        prop_assert!(column.iter_from(start).eq(want), "iter_from({})", start);
    }
    prop_assert_eq!(
        column.resident_segments(),
        gone.iter().filter(|g| !**g).count()
    );
    let evacuated = model
        .iter()
        .enumerate()
        .filter(|(i, slot)| gone[i / SEGMENT_SLOTS] && slot.is_some())
        .count();
    prop_assert_eq!(column.evacuated_slots(), evacuated);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn seg_vec_agrees_with_the_flat_model(ops in ops()) {
        let mut model = Model::default();
        let mut lead: SegVec<u64> = SegVec::new();
        let mut follow: SegVec<u64> = SegVec::new();
        let mut next = 0u64;
        let retire = |model: &mut Model, lead: &mut SegVec<u64>, follow: &mut SegVec<u64>, i| {
            let outcome = lead.retire(i);
            follow.follow(&outcome);
            prop_assert_eq!(outcome, model.retire(i), "retire({})", i);
            prop_assert_eq!(lead.is_retired(i), i < model.lead.len());
        };
        for op in ops {
            match op {
                Op::Push(n) => {
                    for _ in 0..n {
                        model.push(next);
                        prop_assert_eq!(lead.push(next), model.lead.len() - 1);
                        follow.push(next + 1);
                        next += 2;
                    }
                }
                Op::RetireRun { start, len, spare_every } => {
                    let start = start * model.lead.len() / 1000;
                    for i in start..(start + len).min(model.lead.len()) {
                        if spare_every == 0 || !i.is_multiple_of(spare_every) {
                            retire(&mut model, &mut lead, &mut follow, i);
                        }
                    }
                }
                Op::RetireOne(at) => {
                    let at = at * model.lead.len() / 1000;
                    retire(&mut model, &mut lead, &mut follow, at);
                }
            }
            check(&model.lead, &model.gone, &lead);
            check(&model.follow, &model.gone, &follow);
            // What is held outside the resident blocks is exactly what
            // is live there.
            let live = model.retired.iter().filter(|r| !**r).count();
            let live_in_blocks = (0..model.lead.len())
                .filter(|&i| !model.gone[i / SEGMENT_SLOTS] && !model.retired[i])
                .count();
            prop_assert_eq!(lead.evacuated_slots() + live_in_blocks, live);
        }
    }
}
