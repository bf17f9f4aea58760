//! `ObjectKey`'s two forms — up to 22 bytes in place, longer keys
//! shared — are one key: it compares, orders, hashes and serializes as
//! its text, and the store places it where it placed the text.

use continuum_platform::NodeId;
use continuum_storage::{KvConfig, KvStore, ObjectKey, StorageRuntime, StoredValue};
use proptest::prelude::*;
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// One to four bytes per character, so multibyte characters land
/// across the 22-byte edge.
const ALPHABET: [char; 8] = ['a', 'z', '0', '/', 'é', 'ß', '€', '🦀'];

/// Text of 0 to 40 bytes, cut at the last whole character.
fn key_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..ALPHABET.len(), 0..41).prop_map(|picks| {
        let mut text = String::new();
        for c in picks.into_iter().map(|i| ALPHABET[i]) {
            if text.len() + c.len_utf8() > 40 {
                break;
            }
            text.push(c);
        }
        text
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn a_key_is_its_text(a in key_text(), b in key_text()) {
        let (ka, kb) = (ObjectKey::new(&a), ObjectKey::new(&b));
        prop_assert_eq!(ka.as_str(), a.as_str());
        prop_assert_eq!(ka.to_string(), a.clone());
        prop_assert_eq!(ka.clone(), ka.clone());
        prop_assert_eq!(ka == kb, a == b);
        prop_assert_eq!(ka.cmp(&kb), a.cmp(&b));
        prop_assert_eq!(ka.partial_cmp(&kb), Some(a.cmp(&b)));
        prop_assert_eq!(hash_of(&ka), hash_of(a.as_str()));
        prop_assert_eq!(hash_of(&ka.clone()), hash_of(a.as_str()));
        prop_assert_eq!(format!("{ka:?}"), format!("ObjectKey({a:?})"));
        prop_assert_eq!(serde::to_string(&ka), serde::to_string(&a));
        let back: ObjectKey = serde::from_str(&serde::to_string(&ka)).unwrap();
        prop_assert_eq!(back, ka.clone());
        prop_assert_eq!(ObjectKey::from(a.clone()), ka.clone());
        prop_assert_eq!(ObjectKey::from(a.as_str()), ka);
    }
}

#[test]
fn the_edge_between_the_forms_is_invisible() {
    for text in [
        "",
        "a",
        &"k".repeat(21),
        &"k".repeat(22),
        &"k".repeat(23),
        &format!("{}é", "k".repeat(20)),  // 22 bytes, in place
        &format!("{}é", "k".repeat(21)),  // 23 bytes, shared
        &format!("{}🦀", "k".repeat(18)), // 22 bytes
        &format!("{}🦀", "k".repeat(19)), // 23 bytes
    ] {
        let key = ObjectKey::new(text);
        assert_eq!(key.as_str(), text);
        assert_eq!(hash_of(&key), hash_of(text));
        assert_eq!(key.cmp(&ObjectKey::new(text)), Ordering::Equal);
    }
    let (short, long) = (
        ObjectKey::new("k".repeat(22)),
        ObjectKey::new("k".repeat(23)),
    );
    assert!(short < long, "ordered as text across the forms");
    assert_ne!(short, long);
}

#[test]
fn a_key_takes_what_a_string_took() {
    assert_eq!(std::mem::size_of::<ObjectKey>(), 24);
}

/// Key `i` of the pinned set: 6 to 41 bytes in turn (476 of the 1 000
/// fit in place), every third with two-byte characters.
fn pinned_key(i: usize) -> String {
    let mut key = format!("k{i:04}-");
    let len = 6 + i % 36;
    while key.len() < len {
        if i.is_multiple_of(3) && key.len().is_multiple_of(4) {
            key.push('é');
        } else {
            key.push(char::from(b'a' + (key.len() % 26) as u8));
        }
    }
    key
}

/// The primary of each pinned key on eight nodes, as the store placed
/// the key when it was a `String`; the other two replicas are its
/// successors.
const PINNED_PRIMARIES: [&str; 20] = [
    "46361311724751172756733772707354122162204673023307",
    "60166504777614670611776374541705433724361433017710",
    "03503524355541017706634723716125600501422652166400",
    "30377372476670234053130215210160344462660751736141",
    "02206074427647301025521134233316666572711430434203",
    "04356422304615604717257007066230160065560536620265",
    "14406345207371266730332260115545123015450565251255",
    "70760274524061641551213210354407445261331700400636",
    "16046450322040514046445374550260441035340054620214",
    "71753507455066505671250667653633414762122544741652",
    "24420004272703363177014712771126725607432324111250",
    "54662570732345551600175630370507364656241515276117",
    "72356101251317603203222175446454611575266213402071",
    "16101070465442147005036123446137077023465752375170",
    "56051525466017274621221116305324370566016176215016",
    "67052101715621043540026705410254135041253064020356",
    "45453667235167731577033347547340505643136135446130",
    "02337566323674745127347766524312157502454245573366",
    "33621522137360234262407635410163422120550557727737",
    "54676556070302430515674201612147435233240102251220",
];

#[test]
fn placement_of_both_forms_is_pinned() {
    let nodes: Vec<NodeId> = (0..8).map(NodeId::from_raw).collect();
    let store = KvStore::new(nodes.clone(), KvConfig { replication: 3 }).unwrap();
    let primaries = PINNED_PRIMARIES.concat();
    let (mut in_place, mut shared) = (0, 0);
    for (i, digit) in primaries.bytes().enumerate() {
        let key = pinned_key(i);
        if key.len() <= 22 {
            in_place += 1;
        } else {
            shared += 1;
        }
        let primary = usize::from(digit - b'0');
        let expected: Vec<NodeId> = (0..3).map(|k| nodes[(primary + k) % 8]).collect();
        let replicas = store
            .put(ObjectKey::new(&key), StoredValue::blob(vec![0]), None)
            .unwrap();
        assert_eq!(replicas, expected, "key {i} `{key}` moved");
        assert_eq!(store.locations(&ObjectKey::new(&key)).unwrap(), expected);
    }
    assert_eq!((in_place, shared), (476, 524));
}
