//! Offline stand-in for `serde`.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors a minimal serialisation framework under the `serde`
//! package name. It is API-compatible with the subset of real serde the
//! workspace uses: `#[derive(Serialize, Deserialize)]` on non-generic structs
//! with named fields and on enums with unit or struct variants, plus the
//! primitive / `String` / `Option` / `Vec` impls those derives need.
//!
//! Values serialise into a [`value::Value`] tree; `serde_json` (also vendored)
//! renders that tree as JSON and parses JSON back into it. The external JSON
//! representation matches real serde's defaults (unit enum variants as
//! strings, struct variants externally tagged), so swapping the real crates
//! back in later is a manifest-only change.

pub use serde_derive::{Deserialize, Serialize};

pub mod value;

use value::{Error, Value};

/// Types that can serialise themselves into a [`Value`] tree.
pub trait Serialize {
    /// Converts `self` into a value tree.
    fn to_value(&self) -> Value;
}

/// Types that can reconstruct themselves from a [`Value`] tree.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a value tree.
    fn from_value(v: &Value) -> Result<Self, Error>;
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_value(&self) -> Value {
                if (*self as i128) < 0 {
                    Value::I64(*self as i64)
                } else {
                    Value::U64(*self as u64)
                }
            }
        }
        impl Deserialize for $t {
            fn from_value(v: &Value) -> Result<Self, Error> {
                match v {
                    Value::U64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::new(format!("integer {n} out of range"))),
                    Value::I64(n) => <$t>::try_from(*n)
                        .map_err(|_| Error::new(format!("integer {n} out of range"))),
                    other => Err(Error::new(format!("expected integer, found {other:?}"))),
                }
            }
        }
    )*};
}

impl_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Serialize for f64 {
    fn to_value(&self) -> Value {
        Value::F64(*self)
    }
}

impl Deserialize for f64 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::F64(f) => Ok(*f),
            Value::U64(n) => Ok(*n as f64),
            Value::I64(n) => Ok(*n as f64),
            other => Err(Error::new(format!("expected float, found {other:?}"))),
        }
    }
}

impl Serialize for f32 {
    fn to_value(&self) -> Value {
        Value::F64(f64::from(*self))
    }
}

impl Deserialize for f32 {
    fn from_value(v: &Value) -> Result<Self, Error> {
        f64::from_value(v).map(|f| f as f32)
    }
}

impl Serialize for bool {
    fn to_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Bool(b) => Ok(*b),
            other => Err(Error::new(format!("expected bool, found {other:?}"))),
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
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(Error::new(format!("expected string, found {other:?}"))),
        }
    }
}

impl Serialize for str {
    fn to_value(&self) -> Value {
        Value::Str(self.to_string())
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_value(&self) -> Value {
        match self {
            Some(inner) => inner.to_value(),
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
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Array(items) => items.iter().map(T::from_value).collect(),
            other => Err(Error::new(format!("expected array, found {other:?}"))),
        }
    }
}

impl<T: Serialize, const N: usize> Serialize for [T; N] {
    fn to_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_value).collect())
    }
}

impl<T: Deserialize, const N: usize> Deserialize for [T; N] {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let items = Vec::<T>::from_value(v)?;
        <[T; N]>::try_from(items).map_err(|items: Vec<T>| {
            Error::new(format!("expected {N} elements, found {}", items.len()))
        })
    }
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_value(&self) -> Value {
        (*self).to_value()
    }
}

/// Support routines used by the generated derive code. Not public API.
#[doc(hidden)]
pub mod __private {
    use super::{Deserialize, Error, Value};

    /// Looks up and deserialises one named field of an object value. A
    /// value of the wrong type is refused with an error naming the field.
    pub fn field<T: Deserialize>(v: &Value, name: &str) -> Result<T, Error> {
        match v {
            Value::Object(entries) => match entries.iter().find(|(k, _)| k == name) {
                Some((_, inner)) => {
                    T::from_value(inner).map_err(|e| Error::new(format!("{name}: {e}")))
                }
                None => T::from_value(&Value::Null)
                    .map_err(|_| Error::new(format!("missing field `{name}`"))),
            },
            other => Err(Error::new(format!("expected object, found {other:?}"))),
        }
    }

    /// Extracts the variant tag of an enum value: either a bare string (unit
    /// variant) or the single key of an externally tagged object.
    pub fn variant_tag(v: &Value) -> Result<(&str, &Value), Error> {
        match v {
            Value::Str(s) => Ok((s.as_str(), &Value::Null)),
            Value::Object(entries) if entries.len() == 1 => {
                Ok((entries[0].0.as_str(), &entries[0].1))
            }
            other => Err(Error::new(format!("expected enum value, found {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_refuse_floats_and_out_of_range_values() {
        assert_eq!(u64::from_value(&Value::U64(8)).unwrap(), 8);
        assert_eq!(i32::from_value(&Value::I64(-1)).unwrap(), -1);
        // A float is refused even when it is integral, as real serde does:
        // a cast would saturate 1e30 to u64::MAX and -1.0 to 0.
        for float in [8.0, 1e30, -1.0] {
            assert!(u64::from_value(&Value::F64(float)).is_err(), "{float}");
        }
        assert!(u64::from_value(&Value::I64(-1)).is_err());
        assert!(u8::from_value(&Value::U64(256)).is_err());
        let err = Vec::<u64>::from_value(&Value::Array(vec![Value::F64(8.0)])).unwrap_err();
        assert!(err.to_string().contains("expected integer"), "{err}");
    }
}
