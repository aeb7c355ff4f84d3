//! The text codec: one trait, three field-list macros.
//!
//! The machine configuration, an injection plan and a job each have one
//! *canonical text*. `hb-serve` hashes it to key cached results, writes it
//! into manifests, and a checkpoint carries it in its header — so the text
//! is the identity of everything stored, and writer and reader must agree
//! on it byte for byte. They cannot disagree here, because neither is
//! written by hand: a type names its fields *once*, in a field list next
//! to its definition, and the list expands to both directions. This is the
//! text-side twin of [`crate::snap`], and lives in `hb-mem` for the same
//! reason: every crate that owns such a type can reach it.
//!
//! # The trait
//!
//! [`Text`] is the one spelling of a value: `put` appends it, `parse`
//! reads it back and accepts nothing else. It is implemented here for the
//! leaves:
//!
//! | type | spelling |
//! |---|---|
//! | `u8` `u16` `u32` `u64` `usize` | decimal digits (no sign, range-checked) |
//! | `bool` | `0` or `1` |
//! | `String` | itself; never empty |
//! | `(A, B)` | `a,b` |
//! | `Vec<T>` | elements joined by `T::LIST_SEP` (`+` by default); empty for none |
//!
//! Decoders return a message naming what is malformed, never panic, hold
//! nothing that is not proportional to the text they were given (there is
//! no length field to trust), and quote at most [`clip`]'s worth of it back.
//!
//! # The field lists
//!
//! - [`text_record!`](crate::text_record) — `key=value` entries joined by
//!   a separator, optionally led by a version entry that must match
//!   exactly. Every field of the struct is in one of two classes:
//!   - `hashed "key" => field,` — the field is in the text under that key,
//!     so it is part of every content hash taken over the text. **Anything
//!     that can change a simulated result must be `hashed`**; two values
//!     that differ in a hashed field never share a cached result.
//!   - `host field = value,` — the field is *not* in the text: it only
//!     steers the host (worker threads, profiling, sanitizers), results
//!     are bit-identical at any setting, and decoding sets it to the
//!     `value` given here, its normalized setting.
//!
//!   `check method` runs on the decoded value and turns its error into the
//!   decoder's. The text is *canonical*: entries come in list order, each
//!   once, and nothing follows them — one text per value, so equal texts
//!   and equal hashes mean equal values and nothing else does. An entry is
//!   spelled `key=value` unless the list gives its delimiters
//!   (`hashed "cfg" ["{" "}"] => config`).
//! - [`text_tuple!`](crate::text_tuple) — positional fields joined by a
//!   separator (`16x8`, `cycle@site`), all of them in the text.
//! - [`text_enum!`](crate::text_enum) — `token` for a unit variant,
//!   `token open fields close` with comma-joined fields otherwise
//!   (`regfile(0,1,2,3,4)`, `seeded:2`).
//!
//! All three expand to an exhaustive `let Self { .. }` destructuring (or an
//! exhaustive `match`), so a field that no list names does not compile —
//! adding one forces the choice between `hashed` and `host`:
//!
//! ```
//! use hb_mem::text::Text;
//!
//! #[derive(Debug, PartialEq)]
//! struct Config { ways: usize, lpc: bool, threads: usize }
//! hb_mem::text_record!(Config, ';' {
//!     version "v" = 2u32,
//!     hashed "ways" => ways,
//!     hashed "lpc" => lpc,
//!     host threads = 1,
//! });
//!
//! let config = Config { ways: 8, lpc: true, threads: 4 };
//! assert_eq!(config.to_text(), "v=2;ways=8;lpc=1");
//! let back = Config { threads: 1, ..config };
//! assert_eq!(Config::parse("v=2;ways=8;lpc=1"), Ok(back));
//! assert!(Config::parse("v=1;ways=8;lpc=1").is_err()); // stale version
//! assert!(Config::parse("v=2;lpc=1;ways=8").is_err()); // not canonical
//! ```
//!
//! ```compile_fail,E0027
//! struct Config { ways: usize, lpc: bool, threads: usize, added_later: u64 }
//! hb_mem::text_record!(Config, ';' {
//!     version "v" = 2u32,
//!     hashed "ways" => ways,
//!     hashed "lpc" => lpc,
//!     host threads = 1,
//! }); // pattern does not mention `added_later`
//! ```

use std::fmt::Write as _;

/// A value with exactly one text spelling. See the [module docs](self).
pub trait Text: Sized {
    /// What joins the elements of a `Vec<Self>`.
    const LIST_SEP: char = '+';

    /// `(field, true)` of every `hashed` and `(field, false)` of every
    /// `host` entry of a [`text_record!`](crate::text_record) list, in list
    /// order; empty for the leaves and enums. Tests loop over it.
    const FIELDS: &'static [(&'static str, bool)] = &[];

    /// Appends the spelling of `self`.
    fn put(&self, out: &mut String);

    /// Reads a spelling back.
    ///
    /// # Errors
    ///
    /// A message naming the malformed part.
    fn parse(text: &str) -> Result<Self, String>;

    /// The spelling as a new string.
    fn to_text(&self) -> String {
        let mut out = String::new();
        self.put(&mut out);
        out
    }
}

/// At most the first 40 characters of `text`: what an error message
/// quotes, so a hostile input cannot make its own diagnosis large.
pub fn clip(text: &str) -> &str {
    text.char_indices()
        .nth(40)
        .map_or(text, |(end, _)| &text[..end])
}

macro_rules! text_uints {
    ($($ty:ty),*) => {$(
        impl Text for $ty {
            fn put(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }

            fn parse(text: &str) -> Result<Self, String> {
                // `FromStr` alone would take a leading `+`.
                let digits = text.starts_with(|c: char| c.is_ascii_digit());
                text.parse()
                    .ok()
                    .filter(|_| digits)
                    .ok_or_else(|| format!("bad number {:?}", clip(text)))
            }
        }
    )*};
}
text_uints!(u8, u16, u32, u64, usize);

impl Text for bool {
    fn put(&self, out: &mut String) {
        out.push(if *self { '1' } else { '0' });
    }

    fn parse(text: &str) -> Result<Self, String> {
        match text {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(format!("bad flag {:?}", clip(text))),
        }
    }
}

impl Text for String {
    fn put(&self, out: &mut String) {
        out.push_str(self);
    }

    fn parse(text: &str) -> Result<Self, String> {
        if text.is_empty() {
            return Err("empty name".to_owned());
        }
        Ok(text.to_owned())
    }
}

impl<A: Text, B: Text> Text for (A, B) {
    fn put(&self, out: &mut String) {
        self.0.put(out);
        out.push(',');
        self.1.put(out);
    }

    fn parse(text: &str) -> Result<Self, String> {
        let mut parts = text.splitn(2, ',');
        let bare = ["", ""];
        Ok((
            field(&mut parts, ("first", ""), bare)?,
            field(&mut parts, ("second", ""), bare)?,
        ))
    }
}

impl<T: Text> Text for Vec<T> {
    fn put(&self, out: &mut String) {
        for (i, item) in self.iter().enumerate() {
            if i > 0 {
                out.push(T::LIST_SEP);
            }
            item.put(out);
        }
    }

    fn parse(text: &str) -> Result<Self, String> {
        if text.is_empty() {
            return Ok(Vec::new());
        }
        text.split(T::LIST_SEP).map(T::parse).collect()
    }
}

/// What `token open .. close` encloses in `text`, if it has that shape;
/// with no delimiters, `text` must be the bare token.
#[doc(hidden)]
pub fn strip<'a>(text: &'a str, token: &str, delims: &[&str]) -> Option<&'a str> {
    let rest = text.strip_prefix(token)?;
    match delims {
        [open, close] => rest.strip_prefix(open)?.strip_suffix(close),
        _ => rest.is_empty().then_some(rest),
    }
}

/// Decodes the next of `parts` as the field `name`: a record's entry
/// `key open value close`, or — with an empty key and empty delimiters —
/// the bare value of a positional field.
#[doc(hidden)]
pub fn field<'a, T: Text>(
    parts: &mut impl Iterator<Item = &'a str>,
    (name, key): (&str, &str),
    delims: [&str; 2],
) -> Result<T, String> {
    let part = parts.next().ok_or_else(|| format!("missing {name}"))?;
    let value = strip(part, key, &delims)
        .ok_or_else(|| format!("expected {name}, found {:?}", clip(part)))?;
    T::parse(value).map_err(|e| format!("{name}: {e}"))
}

/// Appends the entry `key open value close` of a record that began at
/// `out[at.0..]` and is joined by `at.1`.
#[doc(hidden)]
pub fn put_entry(out: &mut String, at: (usize, char), key: &str, d: [&str; 2], v: &impl Text) {
    if out.len() > at.0 {
        out.push(at.1);
    }
    out.push_str(key);
    out.push_str(d[0]);
    v.put(out);
    out.push_str(d[1]);
}

/// Implements [`Text`] for a struct of `key=value` entries from one list
/// that puts every field in a class; `list` overrides [`Text::LIST_SEP`].
/// See the [module docs](crate::text).
#[macro_export]
macro_rules! text_record {
    (@delims) => {
        ["=", ""]
    };
    (@delims $open:literal $close:literal) => {
        [$open, $close]
    };
    ($ty:ty, $sep:literal {
        $(version $vkey:literal = $ver:expr,)?
        $(hashed $key:literal $([$open:literal $close:literal])? => $f:ident,)+
        $(host $h:ident = $hv:expr,)*
    } $(list $list:literal)? $(check $check:ident)?) => {
        impl $crate::text::Text for $ty {
            $(const LIST_SEP: char = $list;)?
            const FIELDS: &'static [(&'static str, bool)] =
                &[$((stringify!($f), true),)+ $((stringify!($h), false),)*];

            fn put(&self, out: &mut String) {
                let Self { $($f,)+ $($h: _,)* } = self;
                let at = (out.len(), $sep);
                $($crate::text::put_entry(out, at, $vkey, ["=", ""], &u32::from($ver));)?
                $($crate::text::put_entry(
                    out, at, $key, $crate::text_record!(@delims $($open $close)?), $f,
                );)+
            }

            fn parse(text: &str) -> Result<Self, String> {
                let mut parts = text.split($sep);
                $(let found: u32 = $crate::text::field(&mut parts, ($vkey, $vkey), ["=", ""])?;
                if found != u32::from($ver) {
                    return Err(format!("{} {found} is not the supported {}", $vkey, $ver));
                })?
                let value = Self {
                    $($f: $crate::text::field(
                        &mut parts,
                        (stringify!($f), $key),
                        $crate::text_record!(@delims $($open $close)?),
                    )?,)+
                    $($h: $hv,)*
                };
                if let Some(extra) = parts.next() {
                    return Err(format!("unknown field {:?}", $crate::text::clip(extra)));
                }
                $(value.$check().map_err(|e| e.to_string())?;)?
                Ok(value)
            }
        }
    };
}

/// Implements [`Text`] for a struct of positional fields joined by `sep`
/// — a record whose entries have no keys. See the [module docs](crate::text).
#[macro_export]
macro_rules! text_tuple {
    ($ty:ty, $sep:literal { $($f:ident),+ $(,)? } $($list:tt)*) => {
        $crate::text_record!($ty, $sep { $(hashed "" ["" ""] => $f,)+ } $($list)*);
    };
}

/// Implements [`Text`] for an enum from one `token => Variant` list; a
/// variant with fields gives its delimiters (`"spm" ["(" ")"] => Spm { .. }`).
/// See the [module docs](crate::text).
#[macro_export]
macro_rules! text_enum {
    ($ty:ty, $what:literal {
        $($tok:tt $([$open:literal $close:literal])? => $v:ident
            $(( $tf:ident ))?
            $({ $sf0:ident $(, $sf:ident)* })?
        ),+ $(,)?
    }) => {
        impl $crate::text::Text for $ty {
            fn put(&self, out: &mut String) {
                match self {
                    $(Self::$v $(( $tf ))? $({ $sf0 $(, $sf)* })? => {
                        out.push_str($tok);
                        $(out.push_str($open);)?
                        $($crate::text::Text::put($tf, out);)?
                        $(
                            $crate::text::Text::put($sf0, out);
                            $(out.push(','); $crate::text::Text::put($sf, out);)*
                        )?
                        $(out.push_str($close);)?
                    })+
                }
            }

            fn parse(text: &str) -> Result<Self, String> {
                $(if let Some(_body) = $crate::text::strip(text, $tok, &[$($open, $close)?]) {
                    $(let $tf = $crate::text::Text::parse(_body)?;)?
                    $(
                        let names = [stringify!($sf0) $(, stringify!($sf))*];
                        let mut parts = _body.splitn(names.len(), ',');
                        let bare = ["", ""];
                        let $sf0 = $crate::text::field(&mut parts, (stringify!($sf0), ""), bare)?;
                        $(let $sf = $crate::text::field(&mut parts, (stringify!($sf), ""), bare)?;)*
                    )?
                    return Ok(Self::$v $(( $tf ))? $({ $sf0 $(, $sf)* })?);
                })+
                Err(format!("unknown {} {:?}", $what, $crate::text::clip(text)))
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq)]
    struct Dim {
        x: u8,
        y: u8,
    }
    crate::text_tuple!(Dim, 'x' { x, y });

    #[derive(Debug, Clone, PartialEq)]
    enum Shape {
        Point,
        Grid { dim: Dim, pitch: u16 },
        Named(String),
    }
    crate::text_enum!(Shape, "shape" {
        "point" => Point,
        "grid" ["(" ")"] => Grid { dim, pitch },
        "named" [":" ""] => Named(name),
    });

    #[derive(Debug, Clone, PartialEq)]
    struct Job {
        shape: Shape,
        dead: Vec<(u8, u8)>,
        seed: u64,
        threads: usize,
    }
    crate::text_record!(Job, ' ' {
        version "jobv" = 3u32,
        hashed "shape" => shape,
        hashed "dead" => dead,
        hashed "seed" ["{" "}"] => seed,
        host threads = 1,
    });

    fn job() -> Job {
        Job {
            shape: Shape::Grid {
                dim: Dim { x: 16, y: 8 },
                pitch: 3,
            },
            dead: vec![(1, 1), (0, 2)],
            seed: u64::MAX,
            threads: 8,
        }
    }

    #[test]
    fn every_form_round_trips() {
        let text = job().to_text();
        assert_eq!(
            text,
            "jobv=3 shape=grid(16x8,3) dead=1,1+0,2 seed{18446744073709551615}"
        );
        assert_eq!(
            Job::parse(&text),
            Ok(Job {
                threads: 1,
                ..job()
            })
        );
        assert_eq!(
            Job::FIELDS,
            [
                ("shape", true),
                ("dead", true),
                ("seed", true),
                ("threads", false),
            ]
        );
        for (shape, text) in [
            (Shape::Point, "point"),
            (Shape::Named("a,b:c".to_owned()), "named:a,b:c"),
        ] {
            assert_eq!(shape.to_text(), text);
            assert_eq!(Shape::parse(text), Ok(shape));
        }
        assert_eq!(Vec::<(u8, u8)>::parse(""), Ok(Vec::new()));
    }

    #[test]
    fn entry_order_is_part_of_the_form() {
        let job = Job::parse("jobv=3 shape=point dead= seed{7}").unwrap();
        assert_eq!(job.to_text(), "jobv=3 shape=point dead= seed{7}");
        assert!(Job::parse("jobv=3 seed{7} dead= shape=point").is_err());
    }

    #[test]
    fn malformed_text_is_an_error_that_names_the_part() {
        for (bad, why) in [
            ("", "expected jobv"),
            ("jobv=2 shape=point dead= seed{7}", "jobv 2 is not"),
            ("shape=point jobv=3 dead= seed{7}", "expected jobv"),
            ("jobv=3 shape=point dead=", "missing seed"),
            ("jobv=3 shape=point dead= seed{7} seed{7}", "unknown field"),
            ("jobv=3 shape=point dead= seed{7} more=1", "unknown field"),
            ("jobv=3 shape=point dead= seed=7", "expected seed"),
            (
                "jobv=3 shape=point  dead= seed{7}",
                "expected dead, found \"\"",
            ),
            ("jobv=3 shape=disc dead= seed{7}", "unknown shape"),
            ("jobv=3 shape=pointy dead= seed{7}", "unknown shape"),
            ("jobv=3 shape=grid(16x8) dead= seed{7}", "missing pitch"),
            (
                "jobv=3 shape=grid(16x8,3,1) dead= seed{7}",
                "pitch: bad number",
            ),
            ("jobv=3 shape=grid(16,3) dead= seed{7}", "missing y"),
            ("jobv=3 shape=grid(16x256,3) dead= seed{7}", "y: bad number"),
            ("jobv=3 shape=named: dead= seed{7}", "empty name"),
            ("jobv=3 shape=point dead=1 seed{7}", "missing second"),
            ("jobv=3 shape=point dead=1,1+ seed{7}", "bad number"),
            ("jobv=3 shape=point dead= seed{+7}", "bad number"),
            ("jobv=3 shape=point dead= seed{-7}", "bad number"),
            (
                "jobv=3 shape=point dead= seed{18446744073709551616}",
                "bad number",
            ),
            ("jobv=+3 shape=point dead= seed{7}", "bad number"),
        ] {
            let err = Job::parse(bad).expect_err(bad);
            assert!(err.contains(why), "{bad:?}: {err}");
        }
        assert!(bool::parse("2").is_err());
    }

    #[test]
    fn errors_quote_a_bounded_piece_of_the_input() {
        let long = "é".repeat(10_000);
        assert_eq!(clip(&long).chars().count(), 40);
        assert_eq!(clip("short"), "short");
        let err = Job::parse(&format!("jobv=3 {long}")).unwrap_err();
        assert!(err.len() < 200, "{err}");
    }
}
