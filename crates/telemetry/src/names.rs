//! Names as integers: the rank of each distinct event name in byte
//! order, so the consumers of a trace compare and group names without
//! reading their text again.
//!
//! Events share their name's text — a [`crate::Label`] cloned from a
//! task spec points at the spec's one allocation — so a name is first
//! told apart by where its text lives (address and length: two words to
//! hash, no bytes read), and only the distinct texts are compared, in
//! one sort. Two copies of one text at different addresses (names built
//! from a `String` each time) get the same rank all the same.

use std::cell::Cell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Hashes a name's place, one rotate, xor and multiply per word. The
/// keys are addresses in this process, which no input chooses, so the
/// default hasher's resistance to colliding keys buys nothing here.
#[derive(Default)]
struct PlaceHasher(u64);

impl Hasher for PlaceHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Where a name's text lives: address and length.
type Place = (usize, usize);

/// Hands out an id per distinct name place, then ranks the ids.
#[derive(Default)]
pub(crate) struct NameRanks<'a> {
    /// The id of each place seen.
    ids: HashMap<Place, u32, BuildHasherDefault<PlaceHasher>>,
    /// The previous lookup, tried first: events of one task arrive
    /// together and carry one name.
    last: Option<(Place, u32)>,
    /// The text behind each id.
    names: Vec<&'a str>,
}

impl<'a> NameRanks<'a> {
    /// The id of `name`, the same for every name at the same place. Ids
    /// count up from zero; [`NameRanks::ranks`] maps them to ranks.
    pub(crate) fn id(&mut self, name: &'a str) -> u32 {
        let place = (name.as_ptr() as usize, name.len());
        if let Some((seen, id)) = self.last {
            if seen == place {
                return id;
            }
        }
        let names = &mut self.names;
        let id = *self.ids.entry(place).or_insert_with(|| {
            names.push(name);
            u32::try_from(names.len() - 1).expect("fewer than 2^32 distinct names")
        });
        self.last = Some((place, id));
        id
    }

    /// The rank of every id handed out, indexed by id: equal texts rank
    /// equal, and ranks order as their texts do.
    pub(crate) fn ranks(self) -> Vec<u32> {
        self.ranked().0
    }

    /// [`NameRanks::ranks`], and the table turned into a lookup of the
    /// rank of each name it has seen.
    pub(crate) fn ranked(self) -> (Vec<u32>, Ranked<'a>) {
        let names = self.names;
        let mut by_text: Vec<u32> = (0..names.len() as u32).collect();
        by_text.sort_unstable_by_key(|&id| names[id as usize]);
        let mut ranks = vec![0; names.len()];
        let mut texts: Vec<&str> = Vec::with_capacity(names.len());
        for &id in &by_text {
            let text = names[id as usize];
            if texts.last() != Some(&text) {
                texts.push(text);
            }
            ranks[id as usize] = texts.len() as u32 - 1;
        }
        let mut places = self.ids;
        for id in places.values_mut() {
            *id = ranks[*id as usize];
        }
        let lookup = Ranked {
            places,
            last: Cell::new(None),
            texts,
        };
        (ranks, lookup)
    }
}

/// The rank of each name a [`NameRanks`] saw, found by its place.
pub(crate) struct Ranked<'a> {
    /// The rank of each place.
    places: HashMap<Place, u32, BuildHasherDefault<PlaceHasher>>,
    /// The previous lookup, tried first.
    last: Cell<Option<(Place, u32)>>,
    /// The distinct texts, in rank order.
    pub(crate) texts: Vec<&'a str>,
}

impl Ranked<'_> {
    /// The rank of `name`.
    ///
    /// # Panics
    ///
    /// If no name at `name`'s place was ranked.
    pub(crate) fn rank(&self, name: &str) -> u32 {
        let place = (name.as_ptr() as usize, name.len());
        match self.last.get() {
            Some((seen, rank)) if seen == place => rank,
            _ => {
                let rank = self.places[&place];
                self.last.set(Some((place, rank)));
                rank
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_order_like_the_texts_and_merge_copies() {
        let (gamma, copy) = ("gamma", String::from("beta"));
        let mut table = NameRanks::default();
        let texts = [gamma, "beta", "", copy.as_str(), "alpha", gamma, "beta"];
        let ids: Vec<u32> = texts.iter().map(|t| table.id(t)).collect();
        assert_eq!(ids[0], ids[5], "one place, one id");
        let (ranks, lookup) = table.ranked();
        let ranked: Vec<u32> = ids.iter().map(|&id| ranks[id as usize]).collect();
        assert_eq!(ranked, [3, 2, 0, 2, 1, 3, 2]);
        assert_eq!(lookup.texts, ["", "alpha", "beta", "gamma"]);
        let looked_up: Vec<u32> = texts.iter().map(|t| lookup.rank(t)).collect();
        assert_eq!(looked_up, ranked, "every place finds its rank");
    }
}
