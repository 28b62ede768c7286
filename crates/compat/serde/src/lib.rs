//! Offline stand-in for `serde`.
//!
//! Re-exports the no-op derive macros so `#[derive(serde::Serialize,
//! serde::Deserialize)]` attributes compile without the real crate, and —
//! since the serving layer now does speak JSON over HTTP — provides a
//! deliberately small data-model slice: a [`json::Value`] tree plus
//! [`Serialize`]/[`Deserialize`] traits that convert to and from it.
//!
//! Divergence from real serde, by design (documented per the stub
//! policy): there is no visitor/serializer machinery and no derive
//! support — the handful of wire types in `fpdq-serve` implement the two
//! traits by hand against `json::Value`. The `serde_json` compat crate
//! supplies the familiar `to_string`/`from_str` entry points on top.

pub mod json;

pub use serde_derive::{Deserialize, Serialize};

/// Conversion into the JSON data model.
pub trait Serialize {
    /// Builds the [`json::Value`] tree for `self`.
    fn to_value(&self) -> json::Value;
}

/// Conversion from the JSON data model.
pub trait Deserialize: Sized {
    /// Reads `Self` out of a [`json::Value`] tree.
    fn from_value(value: &json::Value) -> Result<Self, json::JsonError>;
}

/// The largest integer `n` for which the JSON layer's `f64` numbers hold
/// `n` and every integer below it exactly, `2^53 - 1`. Integer text above it
/// can parse to a neighbouring integer (`2^53 + 1` reads as `2^53`), so the
/// integer impls reject anything larger instead of returning a value the
/// sender never wrote.
const MAX_EXACT_INT: f64 = 9_007_199_254_740_991.0;

macro_rules! int_impls {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> json::Value {
                json::Value::Number(*self as f64)
            }
        }
        impl Deserialize for $t {
            fn from_value(value: &json::Value) -> Result<Self, json::JsonError> {
                let n = value.as_number()?;
                if n.fract() != 0.0 || n < 0.0 || n > (<$t>::MAX as f64).min(MAX_EXACT_INT) {
                    return Err(json::JsonError::new(format!(
                        "expected a {} integer in 0..=2^53-1, got {n}",
                        stringify!($t)
                    )));
                }
                Ok(n as $t)
            }
        }
    )*};
}

int_impls!(u16, u32, u64, usize);

impl Serialize for f64 {
    fn to_value(&self) -> json::Value {
        json::Value::Number(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(value: &json::Value) -> Result<Self, json::JsonError> {
        value.as_number()
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> json::Value {
        // f32 → f64 is exact, so an f32 round-trips bit-for-bit through
        // the f64-backed number node.
        json::Value::Number(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(value: &json::Value) -> Result<Self, json::JsonError> {
        Ok(value.as_number()? as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> json::Value {
        json::Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(value: &json::Value) -> Result<Self, json::JsonError> {
        match value {
            json::Value::Bool(b) => Ok(*b),
            other => Err(json::JsonError::new(format!("expected a bool, got {}", other.kind()))),
        }
    }
}

impl Serialize for String {
    fn to_value(&self) -> json::Value {
        json::Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_value(value: &json::Value) -> Result<Self, json::JsonError> {
        match value {
            json::Value::String(s) => Ok(s.clone()),
            other => Err(json::JsonError::new(format!("expected a string, got {}", other.kind()))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> json::Value {
        json::Value::String(self.to_string())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> json::Value {
        match self {
            Some(v) => v.to_value(),
            None => json::Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_value(value: &json::Value) -> Result<Self, json::JsonError> {
        match value {
            json::Value::Null => Ok(None),
            v => T::from_value(v).map(Some),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> json::Value {
        json::Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(value: &json::Value) -> Result<Self, json::JsonError> {
        match value {
            json::Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(json::JsonError::new(format!("expected an array, got {}", other.kind()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrips() {
        for v in [0u64, 1, u32::MAX as u64] {
            assert_eq!(u64::from_value(&v.to_value()).unwrap(), v);
        }
        assert!(u64::from_value(&json::Value::Number(-1.0)).is_err());
        assert!(u64::from_value(&json::Value::Number(1.5)).is_err());
    }

    #[test]
    fn integers_beyond_exact_f64_range_are_rejected() {
        let max = (1u64 << 53) - 1;
        assert_eq!(u64::from_value(&max.to_value()).unwrap(), max);
        assert_eq!(usize::from_value(&json::Value::Number(MAX_EXACT_INT)).unwrap(), max as usize);
        // `2^53 + 1` parses to `2^53`, so `2^53` itself may stand for a
        // different integer on the wire; `2^53 + 2` is exact but too large.
        for n in [1u64 << 53, (1 << 53) + 2, u64::MAX] {
            assert!(u64::from_value(&json::Value::Number(n as f64)).is_err(), "{n}");
        }
        let parsed = json::Value::parse("9007199254740993").unwrap();
        assert!(u64::from_value(&parsed).is_err());
        // Narrow types keep their own, smaller bound.
        assert!(u32::from_value(&json::Value::Number(u32::MAX as f64 + 1.0)).is_err());
        for v in [0.0f32, -1.5, 7.5, f32::MIN_POSITIVE] {
            assert_eq!(f32::from_value(&v.to_value()).unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(String::from_value(&"hi".to_value()).unwrap(), "hi");
        assert_eq!(Option::<u64>::from_value(&json::Value::Null).unwrap(), None);
        assert_eq!(Vec::<u64>::from_value(&vec![3u64, 4].to_value()).unwrap(), vec![3, 4]);
    }
}
