//! Typed conversion to and from [`Json`] for primitives, `String`,
//! `Vec<T>` and `Option<T>`.
//!
//! [`ToJson`] is infallible; [`FromJson`] reports *semantic* mismatches
//! (wrong type, lossy number, missing field) through [`ConvertError`],
//! distinct from the byte-level [`crate::JsonError`] the parser raises.

use crate::value::Json;
use std::fmt;

/// A typed-conversion failure: what was expected, and what was found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvertError(pub String);

impl ConvertError {
    /// A failure described by `msg`.
    pub fn new(msg: impl Into<String>) -> ConvertError {
        ConvertError(msg.into())
    }

    /// The standard "expected X, found Y" failure.
    pub fn expected(what: &str, found: &Json) -> ConvertError {
        let kind = match found {
            Json::Null => "null",
            Json::Bool(_) => "a boolean",
            Json::Num(_) => "a number",
            Json::Str(_) => "a string",
            Json::Arr(_) => "an array",
            Json::Obj(_) => "an object",
        };
        ConvertError(format!("expected {what}, found {kind}"))
    }
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConvertError {}

/// Infallible conversion into a [`Json`] value.
pub trait ToJson {
    /// The JSON form of `self`.
    fn to_json(&self) -> Json;
}

/// Fallible conversion out of a [`Json`] value.
pub trait FromJson: Sized {
    /// Build `Self` from `v`, or explain why it doesn't fit.
    fn from_json(v: &Json) -> Result<Self, ConvertError>;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl FromJson for Json {
    fn from_json(v: &Json) -> Result<Json, ConvertError> {
        Ok(v.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(v: &Json) -> Result<bool, ConvertError> {
        v.as_bool()
            .ok_or_else(|| ConvertError::expected("a boolean", v))
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<f64, ConvertError> {
        v.as_f64()
            .ok_or_else(|| ConvertError::expected("a number", v))
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl FromJson for String {
    fn from_json(v: &Json) -> Result<String, ConvertError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| ConvertError::expected("a string", v))
    }
}

/// Unsigned integers must be exact: `2.5` or `-1` for a `u64` is a
/// conversion error, never a silent truncation.
macro_rules! impl_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }

        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<$t, ConvertError> {
                let raw = v
                    .as_u64()
                    .ok_or_else(|| ConvertError::expected("a non-negative integer", v))?;
                <$t>::try_from(raw).map_err(|_| {
                    ConvertError::new(format!(
                        "integer {raw} out of range for {}",
                        stringify!($t)
                    ))
                })
            }
        }
    )*};
}
impl_uint!(u32, u64, usize);

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl FromJson for i64 {
    fn from_json(v: &Json) -> Result<i64, ConvertError> {
        let f = v
            .as_f64()
            .ok_or_else(|| ConvertError::expected("an integer", v))?;
        if f.fract() != 0.0 || f < i64::MIN as f64 || f > i64::MAX as f64 {
            return Err(ConvertError::expected("an integer", v));
        }
        Ok(f as i64)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(T::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Vec<T>, ConvertError> {
        let items = v
            .as_arr()
            .ok_or_else(|| ConvertError::expected("an array", v))?;
        items
            .iter()
            .enumerate()
            .map(|(i, item)| {
                T::from_json(item).map_err(|e| ConvertError::new(format!("at index {i}: {e}")))
            })
            .collect()
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(t) => t.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Option<T>, ConvertError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl Json {
    /// Required-field lookup: [`Json::get`] that reports the missing
    /// key instead of returning `None`.
    pub fn field(&self, key: &str) -> Result<&Json, ConvertError> {
        self.get(key)
            .ok_or_else(|| ConvertError::new(format!("missing field {key:?}")))
    }

    /// Typed required-field lookup.
    pub fn field_as<T: FromJson>(&self, key: &str) -> Result<T, ConvertError> {
        T::from_json(self.field(key)?).map_err(|e| ConvertError::new(format!("field {key:?}: {e}")))
    }

    /// Typed optional-field lookup: absent *and* `null` both map to
    /// `None`.
    pub fn opt_field_as<T: FromJson>(&self, key: &str) -> Result<Option<T>, ConvertError> {
        match self.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(v) => T::from_json(v)
                .map(Some)
                .map_err(|e| ConvertError::new(format!("field {key:?}: {e}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::obj;

    #[test]
    fn primitives_round_trip() {
        assert_eq!(bool::from_json(&true.to_json()), Ok(true));
        assert_eq!(f64::from_json(&1.5f64.to_json()), Ok(1.5));
        assert_eq!(u64::from_json(&7u64.to_json()), Ok(7));
        assert_eq!(usize::from_json(&7usize.to_json()), Ok(7));
        assert_eq!(i64::from_json(&(-3i64).to_json()), Ok(-3));
        assert_eq!(String::from_json(&"hi".to_json()), Ok("hi".to_string()));
        assert_eq!(
            Vec::<u64>::from_json(&vec![1u64, 2].to_json()),
            Ok(vec![1, 2])
        );
        assert_eq!(Option::<u64>::from_json(&Json::Null), Ok(None));
        assert_eq!(Option::<u64>::from_json(&Json::Num(4.0)), Ok(Some(4)));
    }

    #[test]
    fn lossy_and_mistyped_conversions_fail() {
        assert!(u64::from_json(&Json::Num(2.5)).is_err());
        assert!(u64::from_json(&Json::Num(-1.0)).is_err());
        assert!(u32::from_json(&Json::Num(5e12)).is_err());
        assert!(i64::from_json(&Json::Num(0.5)).is_err());
        assert!(bool::from_json(&Json::Num(1.0)).is_err());
        let e = Vec::<u64>::from_json(&Json::Arr(vec![Json::Num(1.0), Json::Str("x".into())]))
            .unwrap_err();
        assert!(e.to_string().contains("at index 1"), "{e}");
    }

    #[test]
    fn field_lookups_name_the_key() {
        let v = obj(vec![("n", Json::Num(3.0))]);
        assert_eq!(v.field_as::<u64>("n"), Ok(3));
        assert!(v
            .field_as::<u64>("missing")
            .unwrap_err()
            .to_string()
            .contains("missing"));
        assert!(v
            .field_as::<bool>("n")
            .unwrap_err()
            .to_string()
            .contains("\"n\""));
        assert_eq!(v.opt_field_as::<u64>("absent"), Ok(None));
    }
}
