//! The JSON value model and printers.

use std::fmt::{self, Write};

/// A parsed JSON value.
///
/// Objects preserve insertion order (a `Vec` of pairs, not a map): config
/// files print their fields in declaration order, matching the structs
/// they serialize.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; integers survive to ±2⁵³ exactly.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a single-key object — the externally-tagged enum encoding.
    pub fn obj1(key: &str, value: Json) -> Json {
        Json::Obj(vec![(key.to_string(), value)])
    }

    /// Builds an object from `(key, value)` pairs, in the order given.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Looks up a key in an object; `None` for absent keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A short name for the value's type, used in error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }

    /// Renders compact JSON (no whitespace).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out).expect("a String takes every write");
        out
    }

    /// Renders pretty JSON (two-space indent), for config files.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out).expect("a String takes every write");
        out
    }

    /// Writes [`render`](Self::render)'s text into `out` piece by piece,
    /// so a large document can be hashed without being held whole.
    ///
    /// # Errors
    ///
    /// Passes on the first error `out` returns.
    pub fn write_compact<W: Write>(&self, out: &mut W) -> fmt::Result {
        self.write(out, None, 0)
    }

    /// Writes [`pretty`](Self::pretty)'s text into `out` piece by piece,
    /// so a large document reaches a file without being held whole.
    ///
    /// # Errors
    ///
    /// Passes on the first error `out` returns.
    pub fn write_pretty<W: Write>(&self, out: &mut W) -> fmt::Result {
        self.write(out, Some(2), 0)
    }

    fn write<W: Write>(&self, out: &mut W, indent: Option<usize>, depth: usize) -> fmt::Result {
        match self {
            Json::Null => out.write_str("null"),
            Json::Bool(true) => out.write_str("true"),
            Json::Bool(false) => out.write_str("false"),
            Json::Num(x) => write_number(out, *x),
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d)
                })
            }
            Json::Obj(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i, d| {
                    write_string(out, &fields[i].0)?;
                    out.write_str(if indent.is_some() { ": " } else { ":" })?;
                    fields[i].1.write(out, indent, d)
                })
            }
        }
    }
}

fn write_seq<W: Write>(
    out: &mut W,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut W, usize, usize) -> fmt::Result,
) -> fmt::Result {
    out.write_char(open)?;
    if len == 0 {
        return out.write_char(close);
    }
    for i in 0..len {
        if i > 0 {
            out.write_char(',')?;
        }
        if let Some(step) = indent {
            write_line_break(out, step * (depth + 1))?;
        }
        item(out, i, depth + 1)?;
    }
    if let Some(step) = indent {
        write_line_break(out, step * depth)?;
    }
    out.write_char(close)
}

/// A newline and `spaces` of indent.
fn write_line_break<W: Write>(out: &mut W, spaces: usize) -> fmt::Result {
    const BLANKS: &str = "                                ";
    out.write_char('\n')?;
    let mut left = spaces;
    while left > 0 {
        let run = left.min(BLANKS.len());
        out.write_str(&BLANKS[..run])?;
        left -= run;
    }
    Ok(())
}

fn write_number<W: Write>(out: &mut W, x: f64) -> fmt::Result {
    if !x.is_finite() {
        // JSON has no Inf/NaN; `null` is the least-bad conventional stand-in.
        out.write_str("null")
    } else if x == x.trunc() && x.abs() < 9.007_199_254_740_992e15 {
        write_integer(out, x as i64)
    } else {
        // Rust's shortest round-trip float formatting.
        write!(out, "{x}")
    }
}

/// Decimal digits without `fmt`: counts, offsets and small integers are
/// most of the numbers a checkpoint or a config holds.
fn write_integer<W: Write>(out: &mut W, v: i64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    let mut rest = v.unsigned_abs();
    loop {
        at -= 1;
        buf[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if v < 0 {
        at -= 1;
        buf[at] = b'-';
    }
    out.write_str(std::str::from_utf8(&buf[at..]).expect("ascii digits"))
}

/// Writes a string literal. Text between characters that need an escape
/// (`"`, `\`, anything below 0x20 — all ASCII, so every cut is a char
/// boundary) moves with one `write_str`.
fn write_string<W: Write>(out: &mut W, s: &str) -> fmt::Result {
    out.write_char('"')?;
    let mut rest = s;
    let needs_escape = |b: u8| b == b'"' || b == b'\\' || b < 0x20;
    while let Some(at) = rest.bytes().position(needs_escape) {
        out.write_str(&rest[..at])?;
        match rest.as_bytes()[at] {
            b'"' => out.write_str("\\\"")?,
            b'\\' => out.write_str("\\\\")?,
            b'\n' => out.write_str("\\n")?,
            b'\r' => out.write_str("\\r")?,
            b'\t' => out.write_str("\\t")?,
            c => write!(out, "\\u{c:04x}")?,
        }
        rest = &rest[at + 1..];
    }
    out.write_str(rest)?;
    out.write_char('"')
}
