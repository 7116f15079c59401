//! In-workspace shim for the `serde` crate (no crates.io access in the build
//! environment — see `shims/README.md`).
//!
//! Unlike real serde's zero-copy visitor architecture, this shim serializes
//! through an owned JSON-like [`Value`] tree: `Serialize` renders a value
//! into a [`Value`], `Deserialize` reads one back. The only format the
//! workspace uses is JSON (via the sibling `serde_json` shim), so the tree
//! model loses nothing but speed — and model files here are megabytes, not
//! gigabytes.
//!
//! The derive macros (re-exported from `serde_derive`) cover named structs,
//! newtype/tuple structs, unit-variant enums, and the
//! `#[serde(from = "T", into = "T")]` container attributes.

use std::collections::{BTreeMap, HashMap};

pub use serde_derive::{Deserialize, Serialize};

/// A parsed JSON number, preserving 64-bit integer precision.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Number {
    /// A non-negative integer.
    PosInt(u64),
    /// A negative integer.
    NegInt(i64),
    /// A float.
    Float(f64),
}

impl Number {
    /// The value as `f64` (lossy for huge integers, as in real serde_json).
    pub fn as_f64(&self) -> f64 {
        match *self {
            Number::PosInt(u) => u as f64,
            Number::NegInt(i) => i as f64,
            Number::Float(f) => f,
        }
    }

    /// The value as `u64` when exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::PosInt(u) => Some(u),
            Number::NegInt(_) => None,
            Number::Float(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => {
                Some(f as u64)
            }
            Number::Float(_) => None,
        }
    }

    /// The value as `i64` when exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::PosInt(u) => i64::try_from(u).ok(),
            Number::NegInt(i) => Some(i),
            Number::Float(f)
                if f.fract() == 0.0 && (i64::MIN as f64..=i64::MAX as f64).contains(&f) =>
            {
                Some(f as i64)
            }
            Number::Float(_) => None,
        }
    }
}

/// An owned JSON-like document tree — the shim's serialization data model.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// JSON `null` (also used for non-finite floats).
    Null,
    /// A boolean.
    Bool(bool),
    /// A number.
    Num(Number),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Value>),
    /// An object; insertion order is preserved.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// The object entries, if this is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Object(entries) => Some(entries),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value as `u64` when exactly representable.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Num(n) => n.as_u64(),
            _ => None,
        }
    }

    /// The numeric value as `i64` when exactly representable.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Num(n) => n.as_i64(),
            _ => None,
        }
    }

    /// The numeric value as `f64` (lossy for huge integers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A (de)serialization error.
#[derive(Debug, Clone)]
pub struct Error(pub String);

impl Error {
    /// An error with the given message.
    pub fn custom(msg: impl Into<String>) -> Self {
        Error(msg.into())
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Types renderable into a [`Value`].
pub trait Serialize {
    /// Renders `self` as a document tree.
    fn to_value(&self) -> Value;
}

/// Types readable back from a [`Value`].
pub trait Deserialize: Sized {
    /// Reads a value from a document tree.
    fn from_value(v: &Value) -> Result<Self, Error>;

    /// Reads a value from an owned tree. Types that can take the tree's
    /// contents instead of copying them override this (`Value` does).
    fn from_owned_value(v: Value) -> Result<Self, Error> {
        Self::from_value(&v)
    }

    /// The value to use when a struct field is absent (`None` = error).
    /// `Option<T>` overrides this to tolerate missing fields, as real serde
    /// does.
    fn if_missing() -> Option<Self> {
        None
    }
}

/// Derive-support helper: extracts and deserializes field `name` from the
/// entries of an object.
pub fn field_from_object<T: Deserialize>(
    entries: &[(String, Value)],
    name: &str,
) -> Result<T, Error> {
    match entries.iter().find(|(k, _)| k == name) {
        Some((_, v)) => {
            T::from_value(v).map_err(|e| Error::custom(format!("field '{name}': {}", e.0)))
        }
        None => T::if_missing().ok_or_else(|| Error::custom(format!("missing field '{name}'"))),
    }
}

// ---- impls for primitives ------------------------------------------------

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Num(Number::PosInt(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Num(n) => n
                        .as_u64()
                        .and_then(|u| <$t>::try_from(u).ok())
                        .ok_or_else(|| Error::custom(concat!("number out of range for ", stringify!($t)))),
                    _ => Err(Error::custom(concat!("expected number for ", stringify!($t)))),
                }
            }
        }
    )*};
}
impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let i = *self as i64;
                if i >= 0 {
                    Value::Num(Number::PosInt(i as u64))
                } else {
                    Value::Num(Number::NegInt(i))
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Num(n) => n
                        .as_i64()
                        .and_then(|i| <$t>::try_from(i).ok())
                        .ok_or_else(|| Error::custom(concat!("number out of range for ", stringify!($t)))),
                    _ => Err(Error::custom(concat!("expected number for ", stringify!($t)))),
                }
            }
        }
    )*};
}
impl_signed!(i8, i16, i32, i64, isize);

macro_rules! impl_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                let f = *self as f64;
                // JSON has no NaN/inf literal; serialize as null (and read
                // null back as NaN below), keeping NaN-bearing reports
                // round-trippable.
                if f.is_finite() {
                    Value::Num(Number::Float(f))
                } else {
                    Value::Null
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::Num(n) => Ok(n.as_f64() as $t),
                    Value::Null => Ok(<$t>::NAN),
                    _ => Err(Error::custom(concat!("expected number for ", stringify!($t)))),
                }
            }
        }
    )*};
}
impl_float!(f32, f64);

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            _ => Err(Error::custom("expected bool")),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_str().map(str::to_string).ok_or_else(|| Error::custom("expected string"))
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Serialize for char {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl Deserialize for char {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s = v.as_str().ok_or_else(|| Error::custom("expected single-char string"))?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(Error::custom("expected single-char string")),
        }
    }
}

// ---- impls for composites ------------------------------------------------

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize> Serialize for [T] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = v.as_array().ok_or_else(|| Error::custom("expected array"))?;
        if items.len() != N {
            return Err(Error::custom(format!(
                "expected array of length {N}, got {}",
                items.len()
            )));
        }
        let mut out = Vec::with_capacity(N);
        for item in items {
            out.push(T::from_value(item)?);
        }
        out.try_into().map_err(|_| Error::custom("array length changed"))
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_array()
            .ok_or_else(|| Error::custom("expected array"))?
            .iter()
            .map(T::from_value)
            .collect()
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(x) => x.to_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
    }

    fn if_missing() -> Option<Self> {
        Some(None)
    }
}

impl<T: Serialize> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(Box::new)
    }
}

impl<T: Serialize> Serialize for std::sync::Arc<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for std::sync::Arc<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        T::from_value(v).map(std::sync::Arc::new)
    }
}

macro_rules! impl_tuple {
    ($(($($n:tt $t:ident),+))*) => {$(
        impl<$($t: Serialize),+> Serialize for ($($t,)+) {
            fn to_value(&self) -> Value {
                Value::Array(vec![$(self.$n.to_value()),+])
            }
        }
        impl<$($t: Deserialize),+> Deserialize for ($($t,)+) {
            fn from_value(v: &Value) -> Result<Self, Error> {
                let items = v.as_array().ok_or_else(|| Error::custom("expected array for tuple"))?;
                let expected = [$($n),+].len();
                if items.len() != expected {
                    return Err(Error::custom(format!(
                        "expected {expected}-tuple, got {} elements", items.len()
                    )));
                }
                Ok(($($t::from_value(&items[$n])?,)+))
            }
        }
    )*};
}
impl_tuple! {
    (0 A)
    (0 A, 1 B)
    (0 A, 1 B, 2 C)
    (0 A, 1 B, 2 C, 3 D)
    (0 A, 1 B, 2 C, 3 D, 4 E)
}

/// Map key types: serialized as JSON object keys (strings), the way upstream
/// serde_json stringifies integer map keys.
pub trait MapKey: Sized {
    fn to_key(&self) -> String;
    fn from_key(s: &str) -> Result<Self, Error>;
}

impl MapKey for String {
    fn to_key(&self) -> String {
        self.clone()
    }
    fn from_key(s: &str) -> Result<Self, Error> {
        Ok(s.to_string())
    }
}

macro_rules! impl_int_map_key {
    ($($t:ty),*) => {$(
        impl MapKey for $t {
            fn to_key(&self) -> String {
                self.to_string()
            }
            fn from_key(s: &str) -> Result<Self, Error> {
                s.parse()
                    .map_err(|_| Error::custom(format!("bad integer map key {s:?}")))
            }
        }
    )*};
}
impl_int_map_key!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl<K: MapKey + Eq + std::hash::Hash, V: Serialize, S> Serialize for HashMap<K, V, S> {
    fn to_value(&self) -> Value {
        // Sort keys so serialization is deterministic despite hash order.
        let mut entries: Vec<(String, Value)> =
            self.iter().map(|(k, v)| (k.to_key(), v.to_value())).collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Value::Object(entries)
    }
}

impl<K, V, S> Deserialize for HashMap<K, V, S>
where
    K: MapKey + Eq + std::hash::Hash,
    V: Deserialize,
    S: std::hash::BuildHasher + Default,
{
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::custom("expected object for map"))?
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?)))
            .collect()
    }
}

impl<K: MapKey + Ord, V: Serialize> Serialize for BTreeMap<K, V> {
    fn to_value(&self) -> Value {
        Value::Object(self.iter().map(|(k, v)| (k.to_key(), v.to_value())).collect())
    }
}

impl<K: MapKey + Ord, V: Deserialize> Deserialize for BTreeMap<K, V> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        v.as_object()
            .ok_or_else(|| Error::custom("expected object for map"))?
            .iter()
            .map(|(k, v)| Ok((K::from_key(k)?, V::from_value(v)?)))
            .collect()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(v.clone())
    }

    fn from_owned_value(v: Value) -> Result<Self, Error> {
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(u64::from_value(&42u64.to_value()).unwrap(), 42);
        assert_eq!(i32::from_value(&(-7i32).to_value()).unwrap(), -7);
        assert_eq!(f64::from_value(&1.5f64.to_value()).unwrap(), 1.5);
        assert!(f32::from_value(&f32::NAN.to_value()).unwrap().is_nan());
        assert!(bool::from_value(&true.to_value()).unwrap());
        assert_eq!(String::from_value(&"hi".to_string().to_value()).unwrap(), "hi");
    }

    #[test]
    fn u64_precision_survives() {
        let big = u64::MAX - 3;
        assert_eq!(u64::from_value(&big.to_value()).unwrap(), big);
    }

    #[test]
    fn composites_round_trip() {
        let v = vec![(1usize, "a".to_string()), (2, "b".to_string())];
        let back: Vec<(usize, String)> = Deserialize::from_value(&v.to_value()).unwrap();
        assert_eq!(back, v);
        let opt: Option<u32> = None;
        assert_eq!(Option::<u32>::from_value(&opt.to_value()).unwrap(), None);
    }

    #[test]
    fn missing_option_field_is_none() {
        let entries: Vec<(String, Value)> = vec![];
        let x: Option<u32> = field_from_object(&entries, "absent").unwrap();
        assert_eq!(x, None);
        assert!(field_from_object::<u32>(&entries, "absent").is_err());
    }
}
