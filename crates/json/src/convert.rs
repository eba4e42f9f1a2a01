//! [`ToJson`]/[`FromJson`] traits, implementations for std types, and the
//! derive-style macros.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::{Json, JsonError};

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// Converts `self` into a JSON value.
    fn to_json(&self) -> Json;
}

/// Conversion from a borrowed [`Json`] value.
pub trait FromJson: Sized {
    /// Converts a JSON value into `Self`.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the offending field or variant when
    /// the value's shape does not match.
    fn from_json(v: &Json) -> Result<Self, JsonError>;
}

/// Extracts and converts a named object field — the building block the
/// struct macro uses.
///
/// # Errors
///
/// Returns a [`JsonError`] if the field is absent or fails to convert.
pub fn field<T: FromJson>(v: &Json, name: &str) -> Result<T, JsonError> {
    field_with(v, name, T::from_json)
}

/// [`field`] for a value that is not read through [`FromJson`]: hands the
/// named member to `read` and prefixes the name to whatever it refuses.
///
/// # Errors
///
/// Returns a [`JsonError`] if the field is absent or `read` fails.
pub fn field_with<'a, T>(
    v: &'a Json,
    name: &str,
    read: impl FnOnce(&'a Json) -> Result<T, JsonError>,
) -> Result<T, JsonError> {
    match v.get(name) {
        Some(inner) => read(inner).map_err(|e| e.in_context(name)),
        None => Err(JsonError::msg(format!("missing field `{name}`"))),
    }
}

/// The elements of an array value.
///
/// # Errors
///
/// Returns a [`JsonError`] for any other kind of value.
pub fn array(v: &Json) -> Result<&[Json], JsonError> {
    match v {
        Json::Arr(items) => Ok(items),
        other => Err(JsonError::msg(format!("expected array, found {}", other.type_name()))),
    }
}

fn expect_num(v: &Json) -> Result<f64, JsonError> {
    v.as_f64().ok_or_else(|| JsonError::msg(format!("expected number, found {}", v.type_name())))
}

macro_rules! impl_json_int {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
        impl FromJson for $t {
            fn from_json(v: &Json) -> Result<Self, JsonError> {
                let x = expect_num(v)?;
                if x != x.trunc() {
                    return Err(JsonError::msg(format!("expected integer, found {x}")));
                }
                let out = x as $t;
                // Past 2^53 an `f64` skips integers, and `as` saturates:
                // 2^64 would read back as `u64::MAX`.
                if out as f64 != x || x.abs() > 9_007_199_254_740_992.0 {
                    return Err(JsonError::msg(format!(
                        "{x} out of range for {}",
                        stringify!($t)
                    )));
                }
                Ok(out)
            }
        }
    )*};
}

impl_json_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}
impl FromJson for f64 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        expect_num(v)
    }
}

impl ToJson for f32 {
    fn to_json(&self) -> Json {
        Json::Num(f64::from(*self))
    }
}
impl FromJson for f32 {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        Ok(expect_num(v)? as f32)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}
impl FromJson for bool {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Bool(b) => Ok(*b),
            other => Err(JsonError::msg(format!("expected bool, found {}", other.type_name()))),
        }
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}
impl FromJson for String {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| JsonError::msg(format!("expected string, found {}", v.type_name())))
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}
impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        array(v)?
            .iter()
            .enumerate()
            .map(|(i, x)| T::from_json(x).map_err(|e| e.in_context(&format!("[{i}]"))))
            .collect()
    }
}

impl<T: ToJson, const N: usize> ToJson for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}
impl<T: FromJson, const N: usize> FromJson for [T; N] {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        let items: Vec<T> = Vec::from_json(v)?;
        let len = items.len();
        items
            .try_into()
            .map_err(|_| JsonError::msg(format!("expected array of {N}, found {len}")))
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}
impl<T: FromJson> FromJson for Option<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_json(other).map(Some),
        }
    }
}

impl<V: ToJson> ToJson for BTreeMap<String, V> {
    fn to_json(&self) -> Json {
        Json::Obj(self.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
    }
}
impl<V: FromJson> FromJson for BTreeMap<String, V> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Obj(fields) => fields
                .iter()
                .map(|(k, x)| Ok((k.clone(), V::from_json(x).map_err(|e| e.in_context(k))?)))
                .collect(),
            other => Err(JsonError::msg(format!("expected object, found {}", other.type_name()))),
        }
    }
}

impl<T: ToJson> ToJson for Arc<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}
impl<T: FromJson> FromJson for Arc<T> {
    fn from_json(v: &Json) -> Result<Self, JsonError> {
        T::from_json(v).map(Arc::new)
    }
}

/// Implements [`ToJson`]/[`FromJson`] for a struct with named fields.
///
/// ```
/// use attila_json::{impl_json_struct, FromJson, ToJson};
/// #[derive(Debug, PartialEq)]
/// struct P { x: f32, y: f32 }
/// impl_json_struct!(P { x, y });
/// let p = P { x: 1.0, y: 2.0 };
/// assert_eq!(P::from_json(&p.to_json()).unwrap(), p);
/// ```
#[macro_export]
macro_rules! impl_json_struct {
    ($name:ident { $($f:ident),* $(,)? }) => {
        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![
                    $( (stringify!($f).to_string(), $crate::ToJson::to_json(&self.$f)), )*
                ])
            }
        }
        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::Json) -> ::std::result::Result<Self, $crate::JsonError> {
                Ok($name { $( $f: $crate::field(v, stringify!($f))?, )* })
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a C-like enum, encoding each
/// variant as its name string (serde's unit-variant encoding).
#[macro_export]
macro_rules! impl_json_enum_unit {
    ($name:ident { $($v:ident),* $(,)? }) => {
        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                match self {
                    $( $name::$v => $crate::Json::Str(stringify!($v).to_string()), )*
                }
            }
        }
        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::Json) -> ::std::result::Result<Self, $crate::JsonError> {
                match v {
                    $crate::Json::Str(s) => match s.as_str() {
                        $( stringify!($v) => Ok($name::$v), )*
                        other => Err($crate::JsonError::msg(format!(
                            "unknown {} variant `{other}`",
                            stringify!($name)
                        ))),
                    },
                    other => Err($crate::JsonError::msg(format!(
                        "expected {} variant string, found {}",
                        stringify!($name),
                        other.type_name()
                    ))),
                }
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for an enum mixing unit, newtype and
/// struct variants, using the externally-tagged encoding: unit variants as
/// `"Variant"`, data variants as `{"Variant": ...}`. Each of the three
/// sections must be present (possibly empty).
#[macro_export]
macro_rules! impl_json_enum {
    ($name:ident {
        units { $($u:ident),* $(,)? }
        newtypes { $($n:ident($nt:ty)),* $(,)? }
        structs { $($s:ident { $($f:ident),* $(,)? }),* $(,)? }
    }) => {
        impl $crate::ToJson for $name {
            fn to_json(&self) -> $crate::Json {
                #[allow(unused_variables)]
                match self {
                    $( $name::$u => $crate::Json::Str(stringify!($u).to_string()), )*
                    $( $name::$n(inner) => {
                        $crate::Json::obj1(stringify!($n), $crate::ToJson::to_json(inner))
                    } )*
                    $( $name::$s { $($f),* } => $crate::Json::obj1(
                        stringify!($s),
                        $crate::Json::Obj(vec![
                            $( (stringify!($f).to_string(), $crate::ToJson::to_json($f)), )*
                        ]),
                    ), )*
                }
            }
        }
        impl $crate::FromJson for $name {
            fn from_json(v: &$crate::Json) -> ::std::result::Result<Self, $crate::JsonError> {
                match v {
                    $crate::Json::Str(s) => match s.as_str() {
                        $( stringify!($u) => Ok($name::$u), )*
                        other => Err($crate::JsonError::msg(format!(
                            "unknown {} unit variant `{other}`",
                            stringify!($name)
                        ))),
                    },
                    $crate::Json::Obj(fields) if fields.len() == 1 => {
                        let (tag, inner) = &fields[0];
                        #[allow(unused_variables)]
                        match tag.as_str() {
                            $( stringify!($n) => {
                                <$nt as $crate::FromJson>::from_json(inner)
                                    .map($name::$n)
                                    .map_err(|e| e.in_context(stringify!($n)))
                            } )*
                            $( stringify!($s) => Ok($name::$s {
                                $( $f: $crate::field(inner, stringify!($f))
                                    .map_err(|e| e.in_context(stringify!($s)))?, )*
                            }), )*
                            other => Err($crate::JsonError::msg(format!(
                                "unknown {} variant `{other}`",
                                stringify!($name)
                            ))),
                        }
                    }
                    other => Err($crate::JsonError::msg(format!(
                        "expected {} variant, found {}",
                        stringify!($name),
                        other.type_name()
                    ))),
                }
            }
        }
    };
}
