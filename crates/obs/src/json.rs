//! The workspace's one JSON codec: a value type, a strict parser and a
//! canonical printer, with no external dependencies.
//!
//! Plan bundles (`sepe_core::plan_io`), metrics snapshots
//! ([`Snapshot`](crate::Snapshot)) and the bench reports all read and
//! write through it, so they share one grammar, one duplicate-key policy
//! and one decimal-`u64` rule.
//!
//! The contract is a parse/print round trip: for every document `text`
//! that [`Json::parse`] accepts, `Json::parse(&v.to_string()) == Ok(v)`
//! with `v = Json::parse(text)?`. Printing is canonical: objects are
//! [`BTreeMap`]s printed in key order, with no whitespace, so the same
//! value always prints to the same bytes. A plan bundle's checksum is
//! FNV-1a over the printed payload, so the printer's spelling is frozen:
//! changing it invalidates every stored bundle.
//!
//! Parsing is a trust boundary, so it is strict. Beyond RFC 8259 it
//! rejects duplicate object keys, numbers too large for a finite `f64`,
//! and nesting deeper than [`MAX_DEPTH`]; `\u` escapes take exactly four
//! hex digits and must name a scalar value (no surrogates). Every
//! rejection is a typed [`ParseError`] with a byte offset — never a panic.

use std::collections::BTreeMap;
use std::fmt;

/// Deepest array/object nesting [`Json::parse`] accepts. Plans, bundles
/// and snapshots nest well under ten levels; the cap keeps hostile input
/// from overflowing the parser's stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Objects use a [`BTreeMap`] so printing is
/// deterministic regardless of insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number. Stored as `f64`, which is exact for integers only
    /// up to 2^53; 64-bit values (plan masks, checksums, metric values)
    /// are therefore encoded as [`Json::Str`] decimal strings.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

/// A malformed JSON document or a well-formed document of the wrong shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset the error was detected at (0 for shape errors).
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Reads a `u64` spelled as a canonical decimal string: ASCII digits only,
/// no sign, no redundant leading zero, no overflow. Every value has
/// exactly one accepted spelling, the one `u64::to_string` prints.
#[must_use]
pub fn decimal_u64(text: &str) -> Option<u64> {
    let canonical = !text.is_empty()
        && text.bytes().all(|b| b.is_ascii_digit())
        && (text.len() == 1 || !text.starts_with('0'));
    if canonical {
        text.parse().ok()
    } else {
        None
    }
}

impl Json {
    /// Member access on objects; [`Json::Null`] on anything else or when
    /// the key is absent. Mirrors `serde_json::Value`'s indexing, which the
    /// tests rely on for shape assertions.
    #[must_use]
    pub fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(map) => map.get(key).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    /// Element access on arrays; [`Json::Null`] out of range.
    #[must_use]
    pub fn at(&self, index: usize) -> &Json {
        match self {
            Json::Arr(items) => items.get(index).unwrap_or(&Json::Null),
            _ => &Json::Null,
        }
    }

    /// The value as a `u64`: a non-negative integral number up to 2^53,
    /// or a string [`decimal_u64`] accepts (the spelling of 64-bit
    /// masks, checksums and metric values).
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 9_007_199_254_740_992.0 => {
                Some(*n as u64)
            }
            Json::Str(s) => decimal_u64(s),
            _ => None,
        }
    }

    /// The value as a string slice.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    #[must_use]
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses a JSON document. The whole input must be consumed.
    ///
    /// # Errors
    ///
    /// Returns a byte offset plus message for malformed input; see the
    /// module docs for what counts as malformed.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser { text, pos: 0 };
        p.skip_ws();
        let value = p.value(0)?;
        p.skip_ws();
        if p.pos != text.len() {
            return Err(p.err("trailing characters"));
        }
        Ok(value)
    }
}

/// Prints `s` as a JSON string literal. Unescaped runs are written whole;
/// every escaped character is ASCII, so the run boundaries are char
/// boundaries.
fn write_string(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        f.write_str(&s[run..i])?;
        match b {
            b'"' => f.write_str("\\\"")?,
            b'\\' => f.write_str("\\\\")?,
            b'\n' => f.write_str("\\n")?,
            b'\r' => f.write_str("\\r")?,
            b'\t' => f.write_str("\\t")?,
            _ => write!(f, "\\u{b:04x}")?,
        }
        run = i + 1;
    }
    f.write_str(&s[run..])?;
    f.write_str("\"")
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            // JSON has no spelling for infinities or NaN; print what a
            // measurement that produced one carries: nothing.
            Json::Num(n) if !n.is_finite() => f.write_str("null"),
            Json::Num(n) => {
                if n.fract() == 0.0 && n.abs() < 9e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    // `f64`'s `Display` never uses exponent notation and
                    // prints the shortest digits that read back exactly.
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_string(f, s),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(map) => {
                f.write_str("{")?;
                for (i, (k, v)) in map.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_string(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, message: &str) -> ParseError {
        ParseError {
            at: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> Result<(), ParseError> {
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.eat_keyword("null").map(|()| Json::Null),
            Some(b't') => self.eat_keyword("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.eat_keyword("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[' | b'{') if depth == MAX_DEPTH => {
                Err(self.err("arrays and objects nested too deep"))
            }
            Some(b'[') => self.array(depth + 1),
            Some(b'{') => self.object(depth + 1),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte in one go. Those are ASCII, so the run ends on a char
            // boundary of the (already valid UTF-8) input.
            let start = self.pos;
            while matches!(self.peek(), Some(b) if b >= 0x20 && b != b'"' && b != b'\\') {
                self.pos += 1;
            }
            out.push_str(&self.text[start..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("raw control character in string")),
            }
        }
    }

    /// The character an escape sequence names; `pos` is just past the
    /// backslash and ends just past the sequence.
    fn escape(&mut self) -> Result<char, ParseError> {
        let c = match self.peek() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'u') => {
                // Exactly four hex digits: `from_str_radix` alone would
                // also take a sign.
                let c = self
                    .text
                    .get(self.pos + 1..self.pos + 5)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .and_then(|h| u32::from_str_radix(h, 16).ok())
                    .and_then(char::from_u32)
                    .ok_or_else(|| {
                        self.err("\\u escape needs four hex digits of a scalar value")
                    })?;
                self.pos += 4;
                c
            }
            _ => return Err(self.err("bad escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    fn digits(&mut self) -> Result<(), ParseError> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return Err(self.err("expected a digit"));
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?`, finite.
    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits()?;
        }
        match self.text[start..self.pos].parse::<f64>() {
            Ok(n) if n.is_finite() => Ok(Json::Num(n)),
            _ => Err(ParseError {
                at: start,
                message: "number out of range".to_string(),
            }),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, ParseError> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth)?;
            if map.contains_key(&key) {
                return Err(ParseError {
                    at: key_at,
                    message: format!("duplicate key {key:?}"),
                });
            }
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_nesting_and_escapes() {
        let v = Json::parse(r#"{"a":[1,2.5,"x\n\"y"],"b":{"c":null,"d":true}}"#).unwrap();
        assert_eq!(v.get("a").at(0).as_u64(), Some(1));
        assert_eq!(v.get("a").at(1), &Json::Num(2.5));
        assert_eq!(v.get("a").at(2).as_str(), Some("x\n\"y"));
        assert_eq!(v.get("b").get("c"), &Json::Null);
        assert_eq!(v.get("b").get("d"), &Json::Bool(true));
        assert_eq!(v.get("missing"), &Json::Null);
    }

    #[test]
    fn parser_rejects_garbage() {
        for bad in ["{", "[1,]", "1 2", r#""open"#, "\"a\u{1}b\"", "nul", ""] {
            assert!(Json::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn deep_nesting_is_a_typed_error_not_a_stack_overflow() {
        for (open, close) in [("[", "]"), ("{\"a\":", "}")] {
            let nest = |n: usize| open.repeat(n) + "0" + &close.repeat(n);
            assert!(Json::parse(&nest(100_000)).is_err());
            assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
            let over = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
            assert_eq!(over.message, "arrays and objects nested too deep");
        }
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(Json::parse(r#""a\u0041""#).unwrap().as_str(), Some("aA"));
        for bad in [
            r#""a\u+041""#,
            r#""a\u-041""#,
            r#""a\u 041""#,
            r#""a\u04""#,
            r#""a\ud800""#,
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn duplicate_keys_are_rejected_at_any_depth() {
        for dup in [
            r#"{"a":1,"a":1}"#,
            r#"{"b":{"a":1,"a":2}}"#,
            r#"[{"a":[],"a":{}}]"#,
        ] {
            let err = Json::parse(dup).unwrap_err();
            assert!(err.message.contains("duplicate key"), "{dup}: {err}");
        }
    }

    #[test]
    fn numbers_follow_the_json_grammar() {
        for good in ["0", "-0", "12", "-3.25", "1e3", "1E+3", "2.5e-3", "0.0"] {
            assert!(matches!(Json::parse(good), Ok(Json::Num(_))), "{good}");
        }
        for bad in [
            "01", "-01", "1.", "-.5", ".5", "+1", "1e", "1e+", "--1", "1.e3",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad}");
        }
        for huge in ["1e400", "-1e400", &"9".repeat(400)] {
            let err = Json::parse(huge).unwrap_err();
            assert_eq!(err.message, "number out of range", "{huge}");
        }
    }

    #[test]
    fn non_finite_numbers_print_as_null() {
        for n in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(Json::Num(n).to_string(), "null");
        }
        assert_eq!(Json::Num(1.5e300).to_string().parse::<f64>(), Ok(1.5e300));
        assert_eq!(Json::Num(-7.0).to_string(), "-7");
    }

    #[test]
    fn decimal_u64_takes_one_spelling_per_value() {
        assert_eq!(decimal_u64("0"), Some(0));
        assert_eq!(decimal_u64("18446744073709551615"), Some(u64::MAX));
        for bad in [
            "",
            "+5",
            "-5",
            "007",
            "00",
            " 5",
            "5 ",
            "1e3",
            "18446744073709551616",
        ] {
            assert_eq!(decimal_u64(bad), None, "{bad:?}");
        }
        assert_eq!(Json::Str("+5".to_string()).as_u64(), None);
        assert_eq!(Json::Num(5.0).as_u64(), Some(5));
        assert_eq!(Json::Num(-5.0).as_u64(), None);
    }

    #[test]
    fn strings_print_their_escapes_and_round_trip() {
        let s = "plain \"q\" \\ \n\r\t\u{1}\u{1f} é ✓";
        let printed = Json::Str(s.to_string()).to_string();
        assert_eq!(
            printed,
            "\"plain \\\"q\\\" \\\\ \\n\\r\\t\\u0001\\u001f é ✓\""
        );
        assert_eq!(Json::parse(&printed), Ok(Json::Str(s.to_string())));
        assert_eq!(
            Json::parse(r#""\b\f\/""#),
            Ok(Json::Str("\u{8}\u{c}/".to_string()))
        );
    }

    #[test]
    fn display_round_trips() {
        let text = r#"{"a":[1,"m",true,-0.5],"b":null,"c":{}}"#;
        let v = Json::parse(text).unwrap();
        assert_eq!(v.to_string(), text);
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }
}
