//! A strict recursive-descent JSON parser.

use crate::{Json, JsonError};

/// Parses a complete JSON document.
///
/// # Errors
///
/// Returns a [`JsonError`] with a byte offset for malformed input or
/// trailing garbage.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser::new(text);
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Self {
        Parser { text, bytes: text.as_bytes(), pos: 0 }
    }

    fn error(&self, msg: &str) -> JsonError {
        JsonError::msg(format!("{msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected `{word}`")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected `,` or `}`")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let number = self.text[start..self.pos].parse::<f64>();
        number.map(Json::Num).map_err(|_| self.error("malformed number"))
    }

    /// Parses a string literal. Unescaped text moves in whole runs: a run
    /// ends only at `"`, `\` or a byte below 0x20 — all ASCII — so both
    /// ends of the slice sit on char boundaries of the `&str` input and
    /// nothing is re-validated.
    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err(self.error("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                    self.pos += 1;
                }
                Some(_) => return Err(self.error("raw control character in string")),
            }
        }
    }

    /// Decodes the escape whose first character is at `pos` (just past the
    /// backslash), leaving `pos` on the escape's last character.
    fn escape(&mut self) -> Result<char, JsonError> {
        Ok(match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                let first = self.hex4()?;
                let code = if (0xD800..0xDC00).contains(&first) {
                    // Surrogate pair: expect `\uXXXX` low half.
                    self.pos += 1;
                    self.expect(b'\\')?;
                    self.expect(b'u')?;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.error("bad low surrogate"));
                    }
                    0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00)
                } else {
                    first
                };
                // hex4 leaves pos on the last hex digit.
                char::from_u32(code).ok_or_else(|| self.error("bad unicode escape"))?
            }
            _ => return Err(self.error("bad escape")),
        })
    }

    /// Reads four hex digits starting at `pos`, leaving `pos` on the last one.
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code = 0u32;
        for i in 0..4 {
            let d = self
                .bytes
                .get(self.pos + i)
                .and_then(|b| (*b as char).to_digit(16))
                .ok_or_else(|| self.error("bad \\u escape"))?;
            code = code * 16 + d;
        }
        self.pos += 3;
        Ok(code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Parser<'_> {
        /// The char-at-a-time `string()` this crate shipped before the
        /// run-based one: the reference the differential tests compare
        /// against. It re-validates the rest of the input per character,
        /// so it is quadratic — keep the inputs small.
        fn reference_string(&mut self) -> Result<String, JsonError> {
            self.expect(b'"')?;
            let mut out = String::new();
            loop {
                match self.peek() {
                    None => return Err(self.error("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(out);
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.peek() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'u') => {
                                self.pos += 1;
                                let first = self.hex4()?;
                                let code = if (0xD800..0xDC00).contains(&first) {
                                    // Surrogate pair: expect `\uXXXX` low half.
                                    self.pos += 1;
                                    self.expect(b'\\')?;
                                    self.expect(b'u')?;
                                    let low = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&low) {
                                        return Err(self.error("bad low surrogate"));
                                    }
                                    0x10000 + ((first - 0xD800) << 10) + (low - 0xDC00)
                                } else {
                                    first
                                };
                                let c = char::from_u32(code)
                                    .ok_or_else(|| self.error("bad unicode escape"))?;
                                out.push(c);
                                // hex4 leaves pos on the last hex digit.
                            }
                            _ => return Err(self.error("bad escape")),
                        }
                        self.pos += 1;
                    }
                    Some(c) if c < 0x20 => return Err(self.error("raw control character in string")),
                    Some(_) => {
                        // Consume one UTF-8 encoded char (input is valid UTF-8).
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| self.error("invalid utf-8"))?;
                        let c = rest.chars().next().expect("non-empty");
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    /// `parse` for a document that is one string literal, through the
    /// reference string path.
    fn reference_parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser::new(text);
        p.skip_ws();
        if p.peek() != Some(b'"') {
            return Err(p.error("expected a JSON value"));
        }
        let v = Json::Str(p.reference_string()?);
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after document"));
        }
        Ok(v)
    }

    /// SplitMix64: dependency-free and seedable.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
            items[self.below(items.len() as u64) as usize]
        }
    }

    /// One string-literal document: mostly well-formed pieces, each kind
    /// next to every other across the seeds, with a malformed piece in
    /// about a third of them.
    fn document(seed: u64) -> String {
        const ESCAPES: &[&str] =
            &["\\\"", "\\\\", "\\/", "\\b", "\\f", "\\n", "\\r", "\\t"];
        const UNICODE: &[&str] =
            &["\\u0041", "\\u00e9", "\\u20AC", "\\ud83d\\ude00", "\\uD834\\uDD1E", "\\u0000"];
        const UTF8: &[&str] = &["é", "ß", "€", "한", "😀", "𝄞"];
        const BAD: &[&str] = &[
            "\u{1}", "\n", "\t", "\u{1f}", // raw control characters
            "\\x", "\\", "\\u12", "\\u12g4", "\\uZZZZ", // bad escapes
            "\\ud83d", "\\ud83dx", "\\ud83d\\n", "\\ud83d\\u0041", "\\ude00", // surrogates
        ];
        let mut rng = Rng(seed);
        let mut text = String::from(rng.pick(&["\"", " \"", "\n\t\""]));
        for _ in 0..1 + rng.below(12) {
            match rng.below(if seed.is_multiple_of(3) { 5 } else { 4 }) {
                0 => {
                    for _ in 0..rng.below(40) {
                        let c = (0x20 + rng.below(0x5f) as u8) as char;
                        if c != '"' && c != '\\' {
                            text.push(c);
                        }
                    }
                }
                1 => text.push_str(rng.pick(ESCAPES)),
                2 => text.push_str(rng.pick(UNICODE)),
                3 => text.push_str(rng.pick(UTF8)),
                _ => text.push_str(rng.pick(BAD)),
            }
        }
        text.push_str(rng.pick(&["\"", "\" ", "\"\r\n", "\"x", ""]));
        text
    }

    fn assert_same(text: &str, what: &str) -> Option<Json> {
        let new = parse(text);
        let reference = reference_parse(text);
        match (&new, &reference) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{what}: values differ for {text:?}"),
            // The message ends in the byte offset, so this compares both.
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "{what}: errors differ for {text:?}")
            }
            _ => panic!("{what}: {new:?} vs reference {reference:?} for {text:?}"),
        }
        new.ok()
    }

    #[test]
    fn string_paths_match_the_reference_on_512_seeded_documents() {
        let (mut accepted, mut rejected) = (0, 0);
        for seed in 0..512u64 {
            let text = document(seed);
            match assert_same(&text, &format!("seed {seed}")) {
                Some(value) => {
                    accepted += 1;
                    // The run-based writer, compact and pretty, inside
                    // containers and as an object key.
                    let Json::Str(s) = &value else { unreachable!() };
                    let nested = Json::Obj(vec![
                        (s.clone(), Json::Arr(vec![value.clone(), Json::Num(seed as f64)])),
                        ("plain".into(), value.clone()),
                    ]);
                    for v in [&value, &nested] {
                        assert_eq!(&parse(&v.render()).expect("render parses"), v, "seed {seed}");
                        assert_eq!(&parse(&v.pretty()).expect("pretty parses"), v, "seed {seed}");
                    }
                }
                None => rejected += 1,
            }
            for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
                assert_same(&text[..cut], &format!("seed {seed} cut at {cut}"));
            }
        }
        assert!(accepted >= 128 && rejected >= 128, "corpus is lopsided: {accepted}/{rejected}");
    }

    #[test]
    fn every_control_character_is_escaped_and_read_back() {
        let all: String = (0u8..0x80).map(char::from).collect();
        let v = Json::Str(all);
        let text = v.render();
        assert!(text.bytes().all(|b| b >= 0x20), "no raw control character is written");
        assert_eq!(parse(&text).unwrap(), v);
        assert_eq!(assert_same(&text, "controls"), Some(v));
    }

    #[test]
    fn integers_print_as_fmt_would() {
        let mut rng = Rng(7);
        let mut values = vec![0i64, 1, -1, 9, 10, -10, 4095, 4096, (1 << 53) - 1, -(1 << 53) + 1];
        values.extend((0..256).map(|_| (rng.next() as i64) >> (11 + rng.below(52))));
        for v in values {
            assert_eq!(Json::Num(v as f64).render(), format!("{v}"));
        }
        assert_eq!(Json::Num(-0.0).render(), "0");
        assert_eq!(Json::Num(1e300).render(), format!("{}", 1e300f64));
    }

    #[test]
    fn two_mib_string_parses_in_linear_time() {
        // The reference re-validates the rest of the document for every
        // character: 256 KiB took 0.9 s, this would take about a minute.
        let unit = "0123456789abcdef é€😀";
        let body = unit.repeat((2 << 20) / unit.len() + 1);
        let text = format!("\"{body}\\n\"");
        let Json::Str(s) = parse(&text).expect("parses") else { panic!("not a string") };
        assert_eq!(s.len(), body.len() + 1);
        assert!(s.starts_with(unit) && s.ends_with("😀\n"));
        assert_eq!(Json::Str(s).render(), text);
    }
}
