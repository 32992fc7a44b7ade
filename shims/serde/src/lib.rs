//! A minimal, dependency-free, offline drop-in for the subset of `serde`
//! this workspace uses.
//!
//! Instead of serde's visitor architecture, this shim serializes through an
//! owned JSON-like [`Value`] tree: [`Serialize`] renders a value into a
//! `Value`, [`Deserialize`] rebuilds a value from one. The companion
//! `serde_json` shim adds the text layer (`to_string`, `from_str`).
//!
//! The derive macros (re-exported from `odrl-serde-derive`) support the
//! container shapes this workspace actually has: structs with named fields,
//! newtype/tuple structs, externally tagged enums (unit, one-field tuple
//! and struct variants), plus the `#[serde(default)]`, `#[serde(transparent)]`
//! and `#[serde(try_from = "...")]` attributes.

#![warn(missing_docs)]

pub mod value;

pub use value::{Map, Number, Value};

// Derive macros live in the proc-macro companion crate; re-export them under
// the names `#[derive(Serialize, Deserialize)]` expects. The trait and macro
// namespaces are distinct, so these coexist with the traits below.
pub use odrl_serde_derive::{Deserialize, Serialize};

use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Error produced when a [`Value`] cannot be decoded into the target type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeError {
    message: String,
}

impl DeError {
    /// Creates an error with a custom message.
    pub fn custom(message: impl fmt::Display) -> Self {
        Self {
            message: message.to_string(),
        }
    }
}

impl fmt::Display for DeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DeError {}

/// A type that can render itself into a [`Value`] tree.
pub trait Serialize {
    /// Serializes `self` into a value tree.
    fn to_value(&self) -> Value;
}

/// A type that can rebuild itself from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Deserializes from a value tree.
    ///
    /// # Errors
    ///
    /// Returns [`DeError`] if the value's shape or range does not match.
    fn from_value(v: &Value) -> Result<Self, DeError>;
}

/// Marker alias so `serde::de::DeserializeOwned` bounds keep compiling.
pub mod de {
    pub use super::DeError as Error;
    /// In this shim every `Deserialize` is owned.
    pub use super::Deserialize as DeserializeOwned;
    pub use super::Deserialize;
}

/// Marker alias so `serde::ser` paths keep compiling.
pub mod ser {
    pub use super::Serialize;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Serialize + ?Sized> Serialize for Box<T> {
    fn to_value(&self) -> Value {
        (**self).to_value()
    }
}

impl<T: Deserialize> Deserialize for Box<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        T::from_value(v).map(Box::new)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_bool()
            .ok_or_else(|| DeError::custom(format!("expected bool, got {}", v.kind())))
    }
}

impl Serialize for String {
    fn to_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Deserialize for String {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| DeError::custom(format!("expected string, got {}", v.kind())))
    }
}

macro_rules! impl_unsigned {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from_u64(*self as u64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = v
                    .as_u64()
                    .ok_or_else(|| DeError::custom(format!("expected unsigned integer, got {}", v.kind())))?;
                <$t>::try_from(n).map_err(|_| DeError::custom(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_unsigned!(u8, u16, u32, u64, usize);

macro_rules! impl_signed {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                Value::Number(Number::from_i64(*self as i64))
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let n = v
                    .as_i64()
                    .ok_or_else(|| DeError::custom(format!("expected integer, got {}", v.kind())))?;
                <$t>::try_from(n).map_err(|_| DeError::custom(format!("{n} out of range for {}", stringify!($t))))
            }
        }
    )*};
}

impl_signed!(i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::Number(Number::from_f64(*self))
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_f64()
            .ok_or_else(|| DeError::custom(format!("expected number, got {}", v.kind())))
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::Number(Number::from_f64(f64::from(*self)))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        f64::from_value(v).map(|x| x as f32)
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
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v {
            Value::Null => Ok(None),
            other => T::from_value(other).map(Some),
        }
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

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_array()
            .ok_or_else(|| DeError::custom(format!("expected array, got {}", v.kind())))?
            .iter()
            .map(T::from_value)
            .collect()
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
            fn from_value(v: &Value) -> Result<Self, DeError> {
                let arr = v
                    .as_array()
                    .ok_or_else(|| DeError::custom(format!("expected tuple array, got {}", v.kind())))?;
                let expected = [$($n),+].len();
                if arr.len() != expected {
                    return Err(DeError::custom(format!(
                        "expected array of {expected}, got {}", arr.len()
                    )));
                }
                Ok(($($t::from_value(&arr[$n])?,)+))
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

impl<V: Serialize> Serialize for BTreeMap<String, V> {
    fn to_value(&self) -> Value {
        let mut map = Map::new();
        for (k, v) in self {
            map.insert(k.clone(), v.to_value());
        }
        Value::Object(map)
    }
}

impl<V: Deserialize> Deserialize for BTreeMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::custom(format!("expected object, got {}", v.kind())))?;
        obj.iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

impl<V: Serialize> Serialize for HashMap<String, V> {
    fn to_value(&self) -> Value {
        // Sort keys so serialization is deterministic.
        let mut keys: Vec<&String> = self.keys().collect();
        keys.sort();
        let mut map = Map::new();
        for k in keys {
            map.insert(k.clone(), self[k].to_value());
        }
        Value::Object(map)
    }
}

impl<V: Deserialize> Deserialize for HashMap<String, V> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let obj = v
            .as_object()
            .ok_or_else(|| DeError::custom(format!("expected object, got {}", v.kind())))?;
        obj.iter()
            .map(|(k, v)| Ok((k.clone(), V::from_value(v)?)))
            .collect()
    }
}

impl Serialize for Value {
    fn to_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(v.clone())
    }
}
