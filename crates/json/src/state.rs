//! State that is saved to and loaded from JSON *in place*: [`JsonState`],
//! the [`impl_json_state!`] field-list macro and the [`HexJson`] codec for
//! 64-bit counters.
//!
//! [`impl_json_struct!`](crate::impl_json_struct) builds a new value from a
//! document; a simulator box cannot be built from one — it holds ports,
//! statistics handles and configuration that only elaboration provides —
//! so its persistent fields are overwritten inside the box that
//! elaboration made.

use std::collections::VecDeque;

use crate::{array, Json, JsonError};

/// Persistent state that is rendered to JSON and loaded back in place.
pub trait JsonState {
    /// The state as a JSON value.
    fn save_state(&self) -> Json;

    /// Overwrites the state with what [`save_state`](Self::save_state)
    /// rendered.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] naming the offending field when the value's
    /// shape, or a size it carries, does not fit `self`.
    fn load_state(&mut self, v: &Json) -> Result<(), JsonError>;
}

/// Element by element, in place: the array must carry exactly as many
/// elements as `self` has (banks of a channel, units of a pool).
impl<T: JsonState> JsonState for Vec<T> {
    fn save_state(&self) -> Json {
        Json::Arr(self.iter().map(T::save_state).collect())
    }

    fn load_state(&mut self, v: &Json) -> Result<(), JsonError> {
        let items = array(v)?;
        if items.len() != self.len() {
            return Err(JsonError::msg(format!(
                "the file carries {} elements, this machine has {}",
                items.len(),
                self.len()
            )));
        }
        for (i, (x, item)) in self.iter_mut().zip(items).enumerate() {
            x.load_state(item).map_err(|e| e.in_context(&format!("[{i}]")))?;
        }
        Ok(())
    }
}

/// `null` for `None`. Presence must match: state the machine has no part
/// for, or a part the file has no state for, is refused.
impl<T: JsonState> JsonState for Option<T> {
    fn save_state(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::save_state)
    }

    fn load_state(&mut self, v: &Json) -> Result<(), JsonError> {
        match (self, v) {
            (None, Json::Null) => Ok(()),
            (None, _) => Err(JsonError::msg("state for a part this machine does not have")),
            (Some(_), Json::Null) => Err(JsonError::msg("no state for a part this machine has")),
            (Some(part), v) => part.load_state(v),
        }
    }
}

/// `u64` state as a 16-digit lowercase hex string: the JSON number line
/// (`f64`) is exact only up to 2^53.
pub trait HexJson: Sized {
    /// The value as hex text.
    fn to_hex(&self) -> Json;

    /// Reads [`to_hex`](Self::to_hex)'s rendering.
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] for anything but a hex string.
    fn from_hex(v: &Json) -> Result<Self, JsonError>;
}

impl HexJson for u64 {
    fn to_hex(&self) -> Json {
        Json::Str(format!("{self:016x}"))
    }

    fn from_hex(v: &Json) -> Result<Self, JsonError> {
        let Json::Str(s) = v else {
            return Err(JsonError::msg(format!("expected hex string, found {}", v.type_name())));
        };
        u64::from_str_radix(s, 16).map_err(|_| JsonError::msg(format!("bad hex string `{s}`")))
    }
}

impl<T: HexJson> HexJson for Option<T> {
    fn to_hex(&self) -> Json {
        self.as_ref().map_or(Json::Null, T::to_hex)
    }

    fn from_hex(v: &Json) -> Result<Self, JsonError> {
        match v {
            Json::Null => Ok(None),
            other => T::from_hex(other).map(Some),
        }
    }
}

impl<T: HexJson> HexJson for VecDeque<T> {
    fn to_hex(&self) -> Json {
        Json::Arr(self.iter().map(T::to_hex).collect())
    }

    fn from_hex(v: &Json) -> Result<Self, JsonError> {
        array(v)?.iter().map(T::from_hex).collect()
    }
}

/// Implements [`JsonState`] for a struct from **one list** of its
/// persistent fields: `save_state` renders them as an object in list
/// order, `load_state` overwrites them by key. Every other field — wiring,
/// configuration, scratch — is left as elaboration made it, and is named
/// in the required `skip { … }` tail under a string saying why.
///
/// An entry is `field` (through [`ToJson`](crate::ToJson) /
/// [`FromJson`](crate::FromJson)), `field: hex` (through [`HexJson`]) or
/// `field: state` (a nested [`JsonState`], loaded in place); write
/// `field as key` when the JSON key is not the field's name. A type whose
/// whole state is one field and whose rendering is that field's, with no
/// object around it, is written `Type = field`.
///
/// The two lists together must name every field of the struct exactly
/// once: the expansion builds `Self` from them (in a closure that never
/// runs), so a field added to the struct and to neither list is a compile
/// error that names it.
///
/// ```
/// use attila_json::{impl_json_state, JsonState};
/// #[derive(Default)]
/// struct Unit { wiring: &'static str, cursor: usize, issued: u64 }
/// impl_json_state!(Unit { cursor, issued as ids_issued: hex } skip {
///     "wiring: rebuilt at elaboration": wiring,
/// });
/// let unit = Unit { wiring: "kept", cursor: 3, issued: 1 << 60 };
/// let saved = unit.save_state();
/// assert_eq!(saved.render(), r#"{"cursor":3,"ids_issued":"1000000000000000"}"#);
/// let mut fresh = Unit { wiring: "elaborated", ..Default::default() };
/// fresh.load_state(&saved).unwrap();
/// assert_eq!((fresh.wiring, fresh.cursor, fresh.issued), ("elaborated", 3, 1 << 60));
///
/// struct Cursor { at: u64 }
/// impl_json_state!(Cursor = at: hex skip {});
/// let mut cursor = Cursor { at: 0xabc };
/// assert_eq!(cursor.save_state().render(), r#""0000000000000abc""#);
/// assert!(cursor.load_state(&saved).is_err());
/// ```
///
/// A field that is neither listed nor skipped does not compile
/// (`E0063 missing field`):
///
/// ```compile_fail,E0063
/// use attila_json::impl_json_state;
/// struct Unit { wiring: &'static str, cursor: usize, pending: Vec<u8> }
/// impl_json_state!(Unit { cursor } skip { "wiring: rebuilt at elaboration": wiring });
/// ```
///
/// Nor does a skipped name that is not a field (`E0560`):
///
/// ```compile_fail,E0560
/// use attila_json::impl_json_state;
/// struct Unit { wiring: &'static str, cursor: usize }
/// impl_json_state!(Unit { cursor } skip { "wiring": wiring, renamed_away });
/// ```
#[macro_export]
macro_rules! impl_json_state {
    ($name:ident { $($f:ident $(as $key:ident)? $(: $codec:ident)?),* $(,)? }
     skip { $($why:literal: $($skip:ident),+ $(,)?);* $(;)? }) => {
        impl $crate::JsonState for $name {
            fn save_state(&self) -> $crate::Json {
                $crate::impl_json_state!(@exhaustive $($f)* $($($skip)+)*);
                $crate::Json::obj([$((
                    $crate::impl_json_state!(@key $f $($key)?),
                    $crate::impl_json_state!(@save $($codec)?, self.$f),
                )),*])
            }

            fn load_state(
                &mut self,
                v: &$crate::Json,
            ) -> ::std::result::Result<(), $crate::JsonError> {
                $($crate::field_with(v, $crate::impl_json_state!(@key $f $($key)?), |j| {
                    $crate::impl_json_state!(@load $($codec)?, self.$f, j)
                })?;)*
                Ok(())
            }
        }
    };
    ($name:ident = $f:ident $(: $codec:ident)?
     skip { $($why:literal: $($skip:ident),+ $(,)?);* $(;)? }) => {
        impl $crate::JsonState for $name {
            fn save_state(&self) -> $crate::Json {
                $crate::impl_json_state!(@exhaustive $f $($($skip)+)*);
                $crate::impl_json_state!(@save $($codec)?, self.$f)
            }

            fn load_state(
                &mut self,
                v: &$crate::Json,
            ) -> ::std::result::Result<(), $crate::JsonError> {
                $crate::impl_json_state!(@load $($codec)?, self.$f, v)
            }
        }
    };
    (@exhaustive $($f:ident)*) => {
        #[allow(unreachable_code)]
        let _ = || Self { $($f: loop {}),* };
    };
    (@key $f:ident) => { stringify!($f) };
    (@key $f:ident $key:ident) => { stringify!($key) };
    (@save, $e:expr) => { $crate::ToJson::to_json(&$e) };
    (@save hex, $e:expr) => { $crate::HexJson::to_hex(&$e) };
    (@save state, $e:expr) => { $crate::JsonState::save_state(&$e) };
    (@load, $e:expr, $j:expr) => { $crate::FromJson::from_json($j).map(|x| $e = x) };
    (@load hex, $e:expr, $j:expr) => { $crate::HexJson::from_hex($j).map(|x| $e = x) };
    (@load state, $e:expr, $j:expr) => { $crate::JsonState::load_state(&mut $e, $j) };
}
