//! Task names and group labels: text that is written once and copied
//! many times.
//!
//! A task's name travels from its [`TaskSpec`](crate::TaskSpec) into
//! every telemetry event the engines record for it — half a dozen
//! copies per task on a traced run. [`Label`] makes the common copies
//! free: a string literal is stored as the `&'static str` it is, and a
//! name many tasks share (a WDL task type, a `map_blocks` stage) can be
//! [interned](Label::shared) once and handed out by reference count.

use serde::{Deserialize, Serialize, Value};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// An immutable text label, 24 bytes like the `String` and
/// `Cow<'static, str>` fields it replaces.
///
/// Cloning a label built from a string literal or with
/// [`Label::shared`] copies a pointer; cloning one built from a
/// `String` copies the text, exactly as cloning the `String` did — so
/// `From<String>` never costs more than keeping the `String`, and
/// callers that hand one name to many tasks opt into sharing.
///
/// Labels compare, order and hash as the text they hold, and serialize
/// as a plain JSON string.
///
/// ```
/// use continuum_dag::Label;
///
/// let literal = Label::from("impute");
/// let shared = Label::shared("impute");
/// assert_eq!(literal, shared);
/// assert_eq!(shared.clone(), "impute");
/// assert_eq!(format!("{literal}"), "impute");
/// ```
#[derive(Clone)]
pub struct Label(Repr);

#[derive(Clone)]
enum Repr {
    Static(&'static str),
    Shared(Arc<str>),
    Owned(String),
}

impl Label {
    /// Copies `text` into a reference-counted label: one allocation
    /// now, none for any later clone.
    pub fn shared(text: &str) -> Self {
        Label(Repr::Shared(Arc::from(text)))
    }

    /// The label's text.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Shared(s) => s,
            Repr::Owned(s) => s,
        }
    }
}

/// A string literal: no allocation, free to clone.
impl From<&'static str> for Label {
    fn from(text: &'static str) -> Self {
        Label(Repr::Static(text))
    }
}

/// A computed name, kept as the `String` it arrived in.
impl From<String> for Label {
    fn from(text: String) -> Self {
        Label(Repr::Owned(text))
    }
}

impl Deref for Label {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl AsRef<str> for Label {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_str().fmt(f)
    }
}

/// Prints as the quoted text, like the `String` it replaces.
impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.as_str().fmt(f)
    }
}

impl PartialEq for Label {
    fn eq(&self, other: &Self) -> bool {
        self.as_str() == other.as_str()
    }
}

impl Eq for Label {}

impl PartialEq<str> for Label {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for Label {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl PartialOrd for Label {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Label {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Label {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl Serialize for Label {
    fn to_json_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for Label {
    fn from_json_value(value: &Value) -> Option<Self> {
        String::from_json_value(value).map(Label::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn every_representation_is_the_same_label() {
        let forms = [
            Label::from("row7"),
            Label::shared("row7"),
            Label::from(String::from("row7")),
        ];
        for a in &forms {
            assert_eq!(a, "row7");
            assert_eq!(*a, *"row7");
            assert_eq!(a.len(), 4, "derefs to str");
            assert_eq!(format!("{a}"), "row7");
            assert_eq!(format!("{a:?}"), "\"row7\"");
            assert_eq!(hash_of(a), hash_of("row7"));
            for b in &forms {
                assert_eq!(a, b);
                assert_eq!(a.cmp(b), Ordering::Equal);
            }
        }
        let (a, b) = (Label::from("a"), Label::shared("b"));
        assert!(a < b, "ordered as text, whatever the representation");
    }

    #[test]
    fn shared_clones_point_at_one_text() {
        let a = Label::shared("stencil_r3");
        let b = a.clone();
        assert!(std::ptr::eq(a.as_str(), b.as_str()));
        let lit = Label::from("lit");
        assert!(std::ptr::eq(lit.as_str(), lit.clone().as_str()));
    }

    #[test]
    fn no_larger_than_the_types_it_replaces() {
        assert_eq!(std::mem::size_of::<Label>(), 24);
        assert_eq!(std::mem::size_of::<Option<Label>>(), 24);
    }

    #[test]
    fn serializes_as_a_plain_string() {
        for label in [Label::from("qc"), Label::shared("qc")] {
            assert_eq!(serde::to_string(&label), "\"qc\"");
        }
        let back: Label = serde::from_str("\"qc\"").unwrap();
        assert_eq!(back, "qc");
    }
}
