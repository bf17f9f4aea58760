//! Offline drop-in stand-in for the `serde` facade.
//!
//! The real `serde` crate cannot be fetched in this build environment
//! (the registry mirror is unreachable and nothing is vendored), so this
//! workspace-local shim provides the same *spelling* — `serde::{Serialize,
//! Deserialize}`, `#[derive(Serialize, Deserialize)]` — backed by a small
//! JSON value model instead of serde's visitor machinery. Types that
//! derive the traits get real, working JSON round-trips via
//! [`to_string`]/[`from_str`].
//!
//! Scope is intentionally limited to what this workspace uses: plain
//! structs (named, tuple, unit), enums with unit/tuple/struct variants,
//! and the std types implemented below. `#[serde(...)]` attributes and
//! generic deriving types are unsupported.

pub mod json;

pub use json::Value;

#[cfg(feature = "derive")]
pub use serde_derive::{Deserialize, Serialize};

/// A type that can convert itself into a JSON [`Value`].
pub trait Serialize {
    /// Converts `self` to a JSON value.
    fn to_json_value(&self) -> Value;
}

/// A type that can reconstruct itself from a JSON [`Value`].
pub trait Deserialize: Sized {
    /// Reconstructs `Self`, returning `None` on shape mismatch.
    fn from_json_value(value: &Value) -> Option<Self>;
}

/// Serializes a value to a compact JSON string (deterministic: object
/// keys keep declaration order).
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> String {
    value.to_json_value().to_string()
}

/// Deserializes a value from a JSON string.
///
/// # Errors
///
/// Returns the parse error, or a synthetic one if the JSON shape does
/// not match `T`.
pub fn from_str<T: Deserialize>(input: &str) -> Result<T, json::ParseError> {
    let value = json::parse(input)?;
    T::from_json_value(&value).ok_or_else(|| json::ParseError {
        offset: 0,
        message: format!("value does not match {}", std::any::type_name::<T>()),
    })
}

impl Serialize for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_json_value(value: &Value) -> Option<Self> {
        Some(value.clone())
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

impl Serialize for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_json_value(value: &Value) -> Option<Self> {
        value.as_bool()
    }
}

macro_rules! impl_serde_uint {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_json_value(&self) -> Value {
                Value::U64(*self as u64)
            }
        }
        impl Deserialize for $ty {
            fn from_json_value(value: &Value) -> Option<Self> {
                <$ty>::try_from(value.as_u64()?).ok()
            }
        }
    )*};
}

macro_rules! impl_serde_int {
    ($($ty:ty),*) => {$(
        impl Serialize for $ty {
            fn to_json_value(&self) -> Value {
                let v = *self as i64;
                if v < 0 { Value::I64(v) } else { Value::U64(v as u64) }
            }
        }
        impl Deserialize for $ty {
            fn from_json_value(value: &Value) -> Option<Self> {
                <$ty>::try_from(value.as_i64()?).ok()
            }
        }
    )*};
}

impl_serde_uint!(u8, u16, u32, u64, usize);
impl_serde_int!(i8, i16, i32, i64, isize);

impl Serialize for u128 {
    fn to_json_value(&self) -> Value {
        match u64::try_from(*self) {
            Ok(n) => Value::U64(n),
            Err(_) => Value::Str(self.to_string()),
        }
    }
}

impl Deserialize for u128 {
    fn from_json_value(value: &Value) -> Option<Self> {
        match value {
            Value::Str(s) => s.parse().ok(),
            _ => value.as_u64().map(u128::from),
        }
    }
}

impl Serialize for f64 {
    fn to_json_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_json_value(value: &Value) -> Option<Self> {
        value.as_f64()
    }
}

impl Serialize for f32 {
    fn to_json_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_json_value(value: &Value) -> Option<Self> {
        value.as_f64().map(|f| f as f32)
    }
}

impl Serialize for char {
    fn to_json_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_json_value(value: &Value) -> Option<Self> {
        let mut chars = value.as_str()?.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Some(c),
            _ => None,
        }
    }
}

impl Serialize for str {
    fn to_json_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for String {
    fn to_json_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_json_value(value: &Value) -> Option<Self> {
        value.as_str().map(str::to_string)
    }
}

impl Serialize for std::borrow::Cow<'_, str> {
    fn to_json_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for std::borrow::Cow<'static, str> {
    fn from_json_value(value: &Value) -> Option<Self> {
        String::from_json_value(value).map(std::borrow::Cow::Owned)
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_json_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json_value(value: &Value) -> Option<Self> {
        match value {
            Value::Null => Some(None),
            other => T::from_json_value(other).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json_value(value: &Value) -> Option<Self> {
        value.as_arr()?.iter().map(T::from_json_value).collect()
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_json_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_json_value(value: &Value) -> Option<Self> {
        T::from_json_value(value).map(Box::new)
    }
}

impl<A: Serialize, B: Serialize> Serialize for (A, B) {
    fn to_json_value(&self) -> Value {
        Value::Arr(vec![self.0.to_json_value(), self.1.to_json_value()])
    }
}

impl<A: Deserialize, B: Deserialize> Deserialize for (A, B) {
    fn from_json_value(value: &Value) -> Option<Self> {
        match value.as_arr()? {
            [a, b] => Some((A::from_json_value(a)?, B::from_json_value(b)?)),
            _ => None,
        }
    }
}

impl<A: Serialize, B: Serialize, C: Serialize> Serialize for (A, B, C) {
    fn to_json_value(&self) -> Value {
        Value::Arr(vec![
            self.0.to_json_value(),
            self.1.to_json_value(),
            self.2.to_json_value(),
        ])
    }
}

impl<A: Deserialize, B: Deserialize, C: Deserialize> Deserialize for (A, B, C) {
    fn from_json_value(value: &Value) -> Option<Self> {
        match value.as_arr()? {
            [a, b, c] => Some((
                A::from_json_value(a)?,
                B::from_json_value(b)?,
                C::from_json_value(c)?,
            )),
            _ => None,
        }
    }
}

impl<K: Serialize, V: Serialize, S> Serialize for std::collections::HashMap<K, V, S> {
    fn to_json_value(&self) -> Value {
        // Deterministic output: sort entries by serialized key text.
        let mut items: Vec<Value> = self
            .iter()
            .map(|(k, v)| Value::Arr(vec![k.to_json_value(), v.to_json_value()]))
            .collect();
        items.sort_by_key(Value::to_string);
        Value::Arr(items)
    }
}

impl<K, V> Deserialize for std::collections::HashMap<K, V>
where
    K: Deserialize + std::hash::Hash + Eq,
    V: Deserialize,
{
    fn from_json_value(value: &Value) -> Option<Self> {
        value
            .as_arr()?
            .iter()
            .map(<(K, V)>::from_json_value)
            .collect()
    }
}

impl<K: Serialize, V: Serialize> Serialize for std::collections::BTreeMap<K, V> {
    fn to_json_value(&self) -> Value {
        Value::Arr(
            self.iter()
                .map(|(k, v)| Value::Arr(vec![k.to_json_value(), v.to_json_value()]))
                .collect(),
        )
    }
}

impl<K, V> Deserialize for std::collections::BTreeMap<K, V>
where
    K: Deserialize + Ord,
    V: Deserialize,
{
    fn from_json_value(value: &Value) -> Option<Self> {
        value
            .as_arr()?
            .iter()
            .map(<(K, V)>::from_json_value)
            .collect()
    }
}

impl<T: Serialize, S> Serialize for std::collections::HashSet<T, S> {
    fn to_json_value(&self) -> Value {
        let mut items: Vec<Value> = self.iter().map(Serialize::to_json_value).collect();
        items.sort_by_key(Value::to_string);
        Value::Arr(items)
    }
}

impl<T> Deserialize for std::collections::HashSet<T>
where
    T: Deserialize + std::hash::Hash + Eq,
{
    fn from_json_value(value: &Value) -> Option<Self> {
        value.as_arr()?.iter().map(T::from_json_value).collect()
    }
}

impl<T: Serialize> Serialize for std::collections::BTreeSet<T> {
    fn to_json_value(&self) -> Value {
        Value::Arr(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T> Deserialize for std::collections::BTreeSet<T>
where
    T: Deserialize + Ord,
{
    fn from_json_value(value: &Value) -> Option<Self> {
        value.as_arr()?.iter().map(T::from_json_value).collect()
    }
}

impl Serialize for std::time::Duration {
    fn to_json_value(&self) -> Value {
        Value::F64(self.as_secs_f64())
    }
}

impl Deserialize for std::time::Duration {
    fn from_json_value(value: &Value) -> Option<Self> {
        let secs = value.as_f64()?;
        (secs >= 0.0 && secs.is_finite()).then(|| std::time::Duration::from_secs_f64(secs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn std_impls_round_trip() {
        let v: Vec<Option<u32>> = vec![Some(1), None, Some(3)];
        let text = to_string(&v);
        assert_eq!(text, "[1,null,3]");
        let back: Vec<Option<u32>> = from_str(&text).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn negative_and_float_numbers() {
        assert_eq!(to_string(&-5i32), "-5");
        let back: i32 = from_str("-5").unwrap();
        assert_eq!(back, -5);
        let f: f64 = from_str("2.5").unwrap();
        assert!((f - 2.5).abs() < 1e-12);
    }

    #[test]
    fn maps_round_trip_deterministically() {
        let mut m = std::collections::HashMap::new();
        m.insert("b".to_string(), 2u32);
        m.insert("a".to_string(), 1u32);
        assert_eq!(to_string(&m), "[[\"a\",1],[\"b\",2]]");
        let back: std::collections::HashMap<String, u32> = from_str(&to_string(&m)).unwrap();
        assert_eq!(back, m);
    }
}
