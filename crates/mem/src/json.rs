//! The workspace's one JSON parser (there is no serde here), and the views
//! of it the exporters and the results store use.
//!
//! [`Parser`] is a strict RFC 8259 recursive-descent reader: the four
//! whitespace characters, the eight short escapes, `\u` with exactly four
//! hex digits (surrogates only as a high/low pair), no raw control
//! characters in strings, the number grammar with no leading zeros. Three
//! things are built on it:
//!
//! - [`validate`] — is this text exactly one JSON value? The telemetry and
//!   profile exporters' tests and the benchmark's report writer ask.
//! - [`escape`] / [`quote`] — the writer side, for hand-written exporters.
//! - [`json_record!`](crate::json_record) — a *flat* object whose values
//!   are strings or unsigned integers, generated in both directions from
//!   one `key => field: kind` list, the JSON sibling of
//!   [`text_record!`](crate::text_record): a store object and a journal
//!   line are each one such object on one line. The list expands to an
//!   exhaustive `let Self { .. }`, so a field without a key does not
//!   compile. The reader takes the members in list order (these are our
//!   own lines, not interchange), with any JSON whitespace between tokens;
//!   a missing, repeated, unknown or misplaced key, a value of the wrong
//!   type or an integer out of the field's range does not decode.
//!
//! Because the store reads through the same parser the validator is, a
//! line cannot validate and fail to load for a syntactic reason, or load
//! without being JSON.

use crate::text::clip;
use std::fmt::Write as _;

/// Escapes `s` for embedding inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Quotes and escapes `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// Validates that `s` is exactly one well-formed JSON value (RFC 8259
/// syntax, no trailing data).
///
/// # Errors
///
/// What was expected, and the byte offset where it was not found.
pub fn validate(s: &str) -> Result<(), String> {
    let mut p = Parser::new(s);
    p.value(0)?;
    p.end()
}

/// Arrays and objects may nest this deep. The parser recurses once per
/// level, and RFC 8259 section 9 lets an implementation set the limit.
const MAX_DEPTH: usize = 128;

/// A cursor over JSON text. Every method that consumes a token also
/// consumes the whitespace after it.
pub struct Parser<'a> {
    text: &'a str,
    pos: usize,
    /// What precedes the next member of a record: `{`, then `,`.
    lead: &'static str,
}

impl<'a> Parser<'a> {
    /// A cursor at the first token of `text`.
    #[doc(hidden)]
    pub fn new(text: &'a str) -> Parser<'a> {
        let mut p = Parser {
            text,
            pos: 0,
            lead: "{",
        };
        p.skip_ws();
        p
    }

    fn err<T>(&self, what: &str) -> Result<T, String> {
        Err(format!("{what} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    /// Consumes `word` if the text continues with it.
    fn eat(&mut self, word: &str) -> bool {
        let found = self.text.as_bytes()[self.pos..].starts_with(word.as_bytes());
        if found {
            self.pos += word.len();
        }
        found
    }

    /// Consumes the token `word` (punctuation or a literal name).
    fn expect(&mut self, word: &str) -> Result<(), String> {
        if !self.eat(word) {
            return self.err(&format!("expected '{word}'"));
        }
        self.skip_ws();
        Ok(())
    }

    fn end(&self) -> Result<(), String> {
        match self.peek() {
            None => Ok(()),
            Some(_) => self.err("trailing data"),
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), String> {
        match self.peek() {
            Some(b'{') => self.sequence("{", "}", depth, |p, depth| {
                p.string()?;
                p.expect(":")?;
                p.value(depth)
            }),
            Some(b'[') => self.sequence("[", "]", depth, Parser::value),
            Some(b'"') => self.string().map(drop),
            Some(b't') => self.expect("true"),
            Some(b'f') => self.expect("false"),
            Some(b'n') => self.expect("null"),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            _ => self.err("expected a JSON value"),
        }
    }

    /// `open close`, or `open item (, item)* close`.
    fn sequence(
        &mut self,
        open: &str,
        close: &str,
        depth: usize,
        mut item: impl FnMut(&mut Parser<'a>, usize) -> Result<(), String>,
    ) -> Result<(), String> {
        if depth == MAX_DEPTH {
            return self.err("nested too deep");
        }
        self.expect(open)?;
        let mut first = true;
        while !self.eat(close) {
            if !first {
                self.expect(",")?;
            }
            item(self, depth + 1)?;
            first = false;
        }
        self.skip_ws();
        Ok(())
    }

    /// A string literal, unescaped.
    fn string(&mut self) -> Result<String, String> {
        if self.peek() != Some(b'"') {
            return self.err("expected '\"'");
        }
        self.pos += 1;
        let mut out = String::new();
        // `"`, `\` and control bytes never occur inside a multi-byte
        // UTF-8 sequence, so the runs between them are whole characters.
        let mut run = self.pos;
        loop {
            match self.peek() {
                None => return self.err("unterminated string"),
                Some(b'"') => break,
                Some(b'\\') => {
                    out.push_str(&self.text[run..self.pos]);
                    self.pos += 1;
                    out.push(self.escaped()?);
                    run = self.pos;
                }
                Some(c) if c < 0x20 => return self.err("raw control character in string"),
                Some(_) => self.pos += 1,
            }
        }
        out.push_str(&self.text[run..self.pos]);
        self.pos += 1;
        self.skip_ws();
        Ok(out)
    }

    /// The character the escape after a backslash stands for.
    fn escaped(&mut self) -> Result<char, String> {
        let c = match self.peek() {
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
                let mut code = self.hex4()?;
                if (0xD800..0xDC00).contains(&code) && self.eat("\\u") {
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return self.err("unpaired surrogate");
                    }
                    code = 0x1_0000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                }
                return char::from_u32(code).map_or_else(|| self.err("unpaired surrogate"), Ok);
            }
            _ => return self.err("bad escape"),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Exactly four hex digits (`from_str_radix` would take a sign).
    fn hex4(&mut self) -> Result<u32, String> {
        let mut code = 0;
        for _ in 0..4 {
            match self.peek().and_then(|c| char::from(c).to_digit(16)) {
                Some(digit) => code = code * 16 + digit,
                None => return self.err("bad \\u escape"),
            }
            self.pos += 1;
        }
        Ok(code)
    }

    /// A number by the RFC grammar; its text.
    fn number(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        if self.peek() == Some(b'0') {
            self.pos += 1;
        } else {
            self.digits("expected a digit")?;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits("expected a fraction digit")?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            self.digits("expected an exponent digit")?;
        }
        let text = &self.text[start..self.pos];
        self.skip_ws();
        Ok(text)
    }

    fn digits(&mut self, what: &str) -> Result<(), String> {
        if !matches!(self.peek(), Some(b'0'..=b'9')) {
            return self.err(what);
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        Ok(())
    }
}

/// The members of a flat object, one after the other: what
/// [`json_record!`](crate::json_record) reads a line through.
impl<'a> Parser<'a> {
    /// Begins the next member, which must be `key`: `{` before the first
    /// and `,` before the others, then the key and its colon.
    #[doc(hidden)]
    pub fn member(&mut self, key: &str) -> Result<(), String> {
        let (at, lead) = (self.pos, std::mem::replace(&mut self.lead, ","));
        self.expect(lead)?;
        if self.string()? != key {
            return Err(format!("expected member {key:?} at byte {at}"));
        }
        self.expect(":")
    }

    /// Closes the object; nothing may follow it.
    #[doc(hidden)]
    pub fn close(&mut self) -> Result<(), String> {
        self.expect("}")?;
        self.end()
    }
}

/// Begins the next member of the object being written into `out` (an
/// empty `out` begins the object). Keys are written as given: a list
/// names them, and names need no escaping.
#[doc(hidden)]
pub fn put_key(out: &mut String, key: &str) {
    out.push(if out.is_empty() { '{' } else { ',' });
    let _ = write!(out, "\"{key}\":");
}

/// `field: string` of a [`json_record!`](crate::json_record): a `String`
/// field as a JSON string.
pub mod string {
    use super::{quote, Parser};

    /// Appends the quoted, escaped string.
    pub fn put(v: &str, out: &mut String) {
        out.push_str(&quote(v));
    }

    /// Reads a string.
    ///
    /// # Errors
    ///
    /// The value is not a well-formed string.
    pub fn get(p: &mut Parser) -> Result<String, String> {
        p.string()
    }
}

/// `field: number` of a [`json_record!`](crate::json_record): an unsigned
/// integer field as a JSON number.
pub mod number {
    use super::*;

    /// Appends the decimal digits.
    pub fn put(v: &impl std::fmt::Display, out: &mut String) {
        let _ = write!(out, "{v}");
    }

    /// Reads an integer of the field's type.
    ///
    /// # Errors
    ///
    /// The value is not a number, or is negative, fractional or too large
    /// for `T` — never truncated.
    pub fn get<T: std::str::FromStr>(p: &mut Parser) -> Result<T, String> {
        let at = p.pos;
        let what = std::any::type_name::<T>();
        (p.number()?.parse()).map_err(|_| format!("expected a {what} at byte {at}"))
    }
}

/// `field: hex` of a [`json_record!`](crate::json_record): a `u64` field
/// as a `"0x"`-prefixed, 16-digit hex string (a digest reads better so).
pub mod hex {
    use super::*;

    /// Appends `"0x%016x"`.
    pub fn put(v: &u64, out: &mut String) {
        let _ = write!(out, "\"{v:#018x}\"");
    }

    /// Reads the string form back; any number of hex digits.
    ///
    /// # Errors
    ///
    /// Not a string, no `0x`, a non-hex digit (`from_str_radix` alone
    /// would take a sign), or more than 64 bits.
    pub fn get(p: &mut Parser) -> Result<u64, String> {
        let s = p.string()?;
        s.strip_prefix("0x")
            .filter(|hex| hex.bytes().all(|b| b.is_ascii_hexdigit()))
            .and_then(|hex| u64::from_str_radix(hex, 16).ok())
            .ok_or_else(|| format!("bad hex value {:?}", clip(&s)))
    }
}

/// Gives a struct `to_json_line` / `from_json_line` (of visibility `$vis`)
/// from one `key => field: kind` list, `kind` one of [`string`], [`number`] and
/// [`hex`]. See the [module docs](crate::json).
#[macro_export]
macro_rules! json_record {
    ($vis:vis $ty:ident { $($key:tt => $f:ident: $kind:ident),+ $(,)? }) => {
        impl $ty {
            /// Serializes as a single JSON object line.
            $vis fn to_json_line(&self) -> String {
                let Self { $($f),+ } = self;
                let mut out = String::new();
                $(
                    $crate::json::put_key(&mut out, $key);
                    $crate::json::$kind::put($f, &mut out);
                )+
                out.push('}');
                out
            }

            /// Parses a `to_json_line` object.
            ///
            /// # Errors
            ///
            /// Returns a message on malformed JSON, on a member that is
            /// not the next of the list, and on a mistyped or
            /// out-of-range value.
            $vis fn from_json_line(line: &str) -> Result<$ty, String> {
                let mut p = $crate::json::Parser::new(line);
                $(
                    p.member($key)?;
                    let $f = $crate::json::$kind::get(&mut p)?;
                )+
                p.close()?;
                Ok($ty { $($f),+ })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accepts_valid_documents() {
        for doc in [
            "{}",
            "[]",
            "0",
            "-12.5e3",
            "true",
            "null",
            r#""hi \"there\"""#,
            r#"{"a":[1,2,{"b":null}],"c":"é"}"#,
            "  { \"k\" : [ 1 , 2 ] }\n",
            r#""\/\b\f\u00e9\uD83D\uDE00""#,
        ] {
            assert!(validate(doc).is_ok(), "rejected valid {doc:?}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for doc in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\" 1}",
            "01",
            "1.",
            "\"unterminated",
            "nul",
            "{} extra",
            "{'a':1}",
            "{\"a\":1,}",
            "[1 2]",
            "\"raw \u{1} control\"",
            "\"\\x41\"",
        ] {
            assert!(validate(doc).is_err(), "accepted invalid {doc:?}");
        }
    }

    #[test]
    fn escape_round_trips_through_validation() {
        let nasty = "quote \" backslash \\ newline \n tab \t bell \u{7}";
        let doc = format!("{{\"k\":\"{}\"}}", escape(nasty));
        assert!(validate(&doc).is_ok(), "{doc}");
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        assert!(validate(&deep(MAX_DEPTH)).is_ok());
        assert!(validate(&deep(MAX_DEPTH + 1)).is_err());
        assert!(validate(&"[".repeat(1 << 20)).is_err());
    }

    #[derive(Debug, Clone, PartialEq, Default)]
    struct Rec {
        plain: String,
        tricky: String,
        n: u64,
        small: u32,
        digest: u64,
    }
    crate::json_record!(Rec {
        "plain" => plain: string,
        "tricky" => tricky: string,
        "n" => n: number,
        "small" => small: number,
        "digest" => digest: hex,
    });

    fn rec() -> Rec {
        Rec {
            plain: "hello".to_owned(),
            tricky: "a\"b\\c\nd\tz\u{1}é".to_owned(),
            n: u64::MAX,
            small: 42,
            digest: 0xdead_beef,
        }
    }

    #[test]
    fn quote_and_parse_roundtrip() {
        let line = rec().to_json_line();
        assert_eq!(
            line,
            "{\"plain\":\"hello\",\"tricky\":\"a\\\"b\\\\c\\nd\\tz\\u0001é\",\
             \"n\":18446744073709551615,\"small\":42,\"digest\":\"0x00000000deadbeef\"}"
        );
        validate(&line).unwrap();
        assert_eq!(Rec::from_json_line(&line), Ok(rec()));
        // Whitespace is the reader's to ignore; member order is not.
        let spaced = " { \"plain\" : \"\\u0041\" , \"tricky\":\"\",\n\"n\":1,\"small\":0, \"digest\":\"0xF\" } ";
        let want = Rec {
            plain: "A".to_owned(),
            n: 1,
            digest: 15,
            ..Rec::default()
        };
        assert_eq!(Rec::from_json_line(spaced), Ok(want));
        let swapped = "{\"tricky\":\"\",\"plain\":\"A\",\"n\":1,\"small\":0,\"digest\":\"0xF\"}";
        validate(swapped).unwrap();
        assert!(Rec::from_json_line(swapped).is_err());
    }

    fn with(member: &str) -> String {
        rec().to_json_line().replacen("\"small\":42", member, 1)
    }

    #[test]
    fn rejects_malformed() {
        for bad in [
            String::new(),
            "{".to_owned(),
            "{}x".to_owned(),
            "{}".to_owned(),
            with("\"small\""),
            with("\"small\":"),
            with("\"small\":42,"),
            with("\"small\":-1"),
            with("\"small\":{}"),
            with("\"small\":\"42\""),
            with("\"small\":42.0"),
            with("\"small\":042"),
            with("\"small\":42,\"small\":42"),
            with("\"small\":42,\"extra\":1"),
            with("\"n\":42"),
            rec().to_json_line() + "{",
            rec().to_json_line().replace("0x", ""),
            rec().to_json_line().replace("0x", "0x+"),
            rec().to_json_line().replace("\"hello\"", "7"),
        ] {
            assert!(Rec::from_json_line(&bad).is_err(), "{bad:?}");
        }
    }

    #[derive(Debug, PartialEq)]
    struct One {
        only: u32,
    }
    crate::json_record!(One { "only" => only: number });

    #[test]
    fn empty_object_parses() {
        // As JSON, yes; as a record, only when nothing is missing.
        for text in ["{}", " { } "] {
            validate(text).unwrap();
            assert!(One::from_json_line(text).is_err());
        }
        assert_eq!(
            One::from_json_line(" { \"only\" : 7 } "),
            Ok(One { only: 7 })
        );
        assert_eq!(One { only: 7 }.to_json_line(), "{\"only\":7}");
    }

    /// Inputs the two parsers this one replaced disagreed on: the store's
    /// reader took a signed `\u`, refused `\/ \b \f`, skipped form feed as
    /// whitespace and truncated a 2^32 `retries`; the validator did none
    /// of these. Now the reader is the validator.
    #[test]
    fn validator_and_reader_agree() {
        for (member, ok) in [
            ("\"plain\":\"\\u+041\"", false),
            ("\"plain\":\"\\u-041\"", false),
            ("\"plain\":\"\\u41\"", false),
            ("\"plain\":\"\\/\\b\\f\"", true),
            ("\u{c}\"plain\":\"x\"", false),
            ("\"plain\":\"\\uD83D\\uDE00\"", true),
            ("\"plain\":\"\\uD83D\"", false),
            ("\"plain\":\"\\uDE00\"", false),
            ("\"plain\":\"\\uD83D\\u0041\"", false),
        ] {
            let line = rec()
                .to_json_line()
                .replacen("\"plain\":\"hello\"", member, 1);
            assert_eq!(validate(&line).is_ok(), ok, "validate {line:?}");
            assert_eq!(Rec::from_json_line(&line).is_ok(), ok, "read {line:?}");
        }
        let parsed = Rec::from_json_line(&with("\"small\":42").replace("hello", "\\/\\b\\f"));
        assert_eq!(parsed.unwrap().plain, "/\u{8}\u{c}");
        // Valid JSON, but not a value the field can hold.
        for member in [
            "\"small\":4294967296",
            "\"small\":99999999999999999999999999999",
        ] {
            assert!(validate(&with(member)).is_ok());
            assert!(Rec::from_json_line(&with(member)).is_err(), "{member}");
        }
        assert_eq!(
            Rec::from_json_line(&with("\"small\":4294967295")).map(|r| r.small),
            Ok(u32::MAX)
        );
    }
}
