//! A small, dependency-free JSON library for the simulator's on-disk
//! formats (GPU configuration files, captured API traces and
//! checkpoints).
//!
//! The crate provides a [`Json`] value model, a strict recursive-descent
//! [`parse`] function, compact and pretty printers, and the
//! [`ToJson`]/[`FromJson`] conversion traits together with three
//! derive-style macros ([`impl_json_struct!`], [`impl_json_enum_unit!`]
//! and [`impl_json_enum!`]) that generate conversions for plain structs
//! and enums. The encoding is the conventional externally-tagged one:
//! unit enum variants serialize as strings, data-carrying variants as
//! single-key objects (`{"Variant": {...}}`), so files written by earlier
//! serde-based builds keep parsing.
//!
//! State that cannot be built from a document — a simulator box holds
//! wiring only elaboration provides — is saved and loaded *in place*
//! through [`JsonState`], generated from one field list by
//! [`impl_json_state!`]; [`HexJson`] carries its 64-bit counters.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod convert;
mod parse;
mod state;
mod value;

pub use convert::{array, field, field_with, FromJson, ToJson};
pub use state::{HexJson, JsonState};
pub use parse::parse;
pub use value::Json;

use std::fmt;

/// Error produced by parsing or by [`FromJson`] conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    msg: String,
}

impl JsonError {
    /// Builds an error from a message.
    pub fn msg(msg: impl Into<String>) -> Self {
        JsonError { msg: msg.into() }
    }

    /// Returns a copy of this error with `context` prefixed, used to build
    /// a path-like trail while unwinding nested conversions.
    pub fn in_context(&self, context: &str) -> Self {
        JsonError { msg: format!("{context}: {}", self.msg) }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.msg)
    }
}

impl std::error::Error for JsonError {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn scalar_round_trip() {
        for text in ["null", "true", "false", "0", "-17", "3.5", "\"hi\\n\\\"there\\\"\""] {
            let v = parse(text).unwrap();
            assert_eq!(parse(&v.render()).unwrap(), v, "round-trip {text}");
        }
    }

    #[test]
    fn nested_round_trip() {
        let text = r#"{"a":[1,2,{"b":null}],"c":{"d":[true,false]},"e":-0.125}"#;
        let v = parse(text).unwrap();
        assert_eq!(v.render(), text);
        let pretty = v.pretty();
        assert_eq!(parse(&pretty).unwrap(), v);
    }

    #[test]
    fn parse_rejects_garbage() {
        for text in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated", "{\"a\" 1}"] {
            assert!(parse(text).is_err(), "should reject {text:?}");
        }
    }

    #[test]
    fn unicode_escapes() {
        let v = parse(r#""Aé😀""#).unwrap();
        assert_eq!(v, Json::Str("Aé😀".to_string()));
        // Non-ASCII renders escaped-free but still round-trips.
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn float_precision_round_trips() {
        for x in [0.1f64, 1e-9, 123456789.123456, f64::from(f32::MAX)] {
            let v = Json::Num(x);
            let Json::Num(back) = parse(&v.render()).unwrap() else { panic!() };
            assert_eq!(back, x);
        }
    }

    #[derive(Debug, PartialEq)]
    struct Demo {
        name: String,
        count: u32,
        scale: f32,
        tags: Vec<String>,
        table: BTreeMap<String, u64>,
    }
    impl_json_struct!(Demo { name, count, scale, tags, table });

    #[test]
    fn struct_macro_round_trips() {
        let mut table = BTreeMap::new();
        table.insert("mul".to_string(), 9u64);
        let d = Demo {
            name: "x".into(),
            count: 3,
            scale: 0.25,
            tags: vec!["a".into(), "b".into()],
            table,
        };
        let v = d.to_json();
        assert_eq!(Demo::from_json(&v).unwrap(), d);
        let err = Demo::from_json(&parse("{\"name\":\"x\"}").unwrap()).unwrap_err();
        assert!(err.to_string().contains("count"), "mentions missing field: {err}");
    }

    #[derive(Debug, PartialEq, Clone, Copy)]
    enum Mode {
        Fast,
        Slow,
    }
    impl_json_enum_unit!(Mode { Fast, Slow });

    #[test]
    fn unit_enum_macro() {
        assert_eq!(Mode::Fast.to_json(), Json::Str("Fast".into()));
        assert_eq!(Mode::from_json(&Json::Str("Slow".into())).unwrap(), Mode::Slow);
        assert!(Mode::from_json(&Json::Str("Medium".into())).is_err());
    }

    #[derive(Debug, PartialEq)]
    enum Cmd {
        Nop,
        Set(Mode),
        Move { x: f32, y: f32 },
    }
    impl_json_enum!(Cmd {
        units { Nop }
        newtypes { Set(Mode) }
        structs { Move { x, y } }
    });

    #[test]
    fn mixed_enum_macro() {
        let cases = [Cmd::Nop, Cmd::Set(Mode::Slow), Cmd::Move { x: 1.5, y: -2.0 }];
        for c in cases {
            let v = c.to_json();
            assert_eq!(Cmd::from_json(&parse(&v.render()).unwrap()).unwrap(), c);
        }
        assert_eq!(Cmd::Nop.to_json().render(), "\"Nop\"");
        assert_eq!(Cmd::Set(Mode::Fast).to_json().render(), "{\"Set\":\"Fast\"}");
        assert_eq!(
            Cmd::Move { x: 1.0, y: 2.0 }.to_json().render(),
            "{\"Move\":{\"x\":1,\"y\":2}}"
        );
    }

    #[test]
    fn arrays_and_options() {
        let m = [[1.0f32, 2.0], [3.0, 4.0]];
        let v = m.to_json();
        assert_eq!(<[[f32; 2]; 2]>::from_json(&v).unwrap(), m);
        let o: Option<u32> = None;
        assert_eq!(o.to_json(), Json::Null);
        assert_eq!(<Option<u32>>::from_json(&Json::Null).unwrap(), None);
        assert_eq!(<Option<u32>>::from_json(&Json::Num(4.0)).unwrap(), Some(4));
    }

    #[test]
    fn integers_are_read_exactly_or_refused() {
        let two53 = 2f64.powi(53);
        assert_eq!(u64::from_json(&Json::Num(two53)).unwrap(), 1 << 53);
        assert_eq!(i64::from_json(&Json::Num(-two53)).unwrap(), -(1 << 53));
        assert_eq!(u32::from_json(&Json::Num(4294967295.0)).unwrap(), u32::MAX);
        // 2^64 saturates to `u64::MAX` under `as`, which casts back to 2^64.
        for past in [two53 * 2.0, 2f64.powi(64), 2f64.powi(63), -two53 * 2.0] {
            assert!(u64::from_json(&Json::Num(past)).is_err(), "{past}");
            assert!(i64::from_json(&Json::Num(past)).is_err(), "{past}");
        }
        for bad in [-1.0, 0.5, 4294967296.0, f64::NAN, f64::INFINITY] {
            assert!(u32::from_json(&Json::Num(bad)).is_err(), "{bad}");
        }
    }
}
