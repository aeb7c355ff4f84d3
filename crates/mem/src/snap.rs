//! The snapshot codec: one trait, three field-list macros.
//!
//! A checkpoint is a flat little-endian byte stream with no
//! self-description beyond section tags, so writer and reader must agree
//! on the layout. They cannot disagree here, because neither is written by
//! hand: a type names its fields *once*, in a field list next to its
//! definition, and the list expands to both directions. The stream is
//! deterministic by construction — the same machine state always encodes
//! to the same bytes — which is what lets the checkpoint layer
//! content-hash snapshots and lets tests `assert_eq!` whole encodings.
//!
//! This module lives in `hb-mem` (the bottom of the crate stack, zero
//! dependencies) so `hb-noc`, `hb-cache` and `hb-core` can all reach it.
//!
//! # The trait
//!
//! [`Snap`] is the codec of a *value*: `save` appends it to a
//! [`SnapWriter`], `load` rebuilds it from a [`SnapReader`] and nothing
//! else. It is implemented here for the scalars and the std containers:
//!
//! | type | encoding |
//! |---|---|
//! | `u8` `u16` `u32` `u64` | little-endian |
//! | `usize` | as `u64`; values the host cannot index are rejected |
//! | `bool` | one byte, `0` or `1`; anything else is an error |
//! | `f32` | its IEEE-754 bit pattern (bit-exact restore) |
//! | `String` | `u64` length, then UTF-8 bytes (validated) |
//! | `Vec<T>` `VecDeque<T>` | `u64` length, then the elements |
//! | `HashMap<K, V>` [`IdMap<K, V>`](crate::IdMap) | `u64` length, then `(K, V)` pairs sorted by key |
//! | `Option<T>` | presence byte, then `T` when present |
//! | `[T; N]` tuples `Box<T>` | the elements, nothing added |
//!
//! Every length read from the stream is bounded by the bytes that remain
//! before anything is allocated for it, and byte sequences move as one
//! `memcpy` (the `save_slice`/`load_slice`/`load_vec` hooks, overridden
//! for `u8` only) — an SPM or a DRAM extent is not a per-byte loop.
//!
//! A machine *component* (a tile, a cache bank, a network) cannot be
//! rebuilt from the stream alone: its geometry comes from the machine
//! configuration. It implements [`SnapState`] instead — the same `save`,
//! but `load_state` restores *into* a component that was constructed from
//! the matching configuration. Every [`Snap`] value is a [`SnapState`]
//! (restoring it is an assignment), so a component's list may name values
//! and nested components alike.
//!
//! # The field lists
//!
//! - [`snap_value!`](crate::snap_value) — a value struct: every field, in
//!   stream order; optionally a section tag, `derived` fields (not in the
//!   stream; default-initialised, then filled by the check), and a `check`
//!   method run on the decoded value.
//! - [`snap_enum!`](crate::snap_enum) — a tagged enum: `tag => Variant`
//!   per variant, unit, tuple or struct shaped; an unknown tag is
//!   [`SnapError::Bad`] with the message the list gives.
//! - [`snap_state!`](crate::snap_state) — an in-place component: a section
//!   tag and every field in exactly one of three classes:
//!   - `save:` dynamic state, replaced on restore (values) or restored in
//!     place (nested components);
//!   - `fixed:` a `Vec`/array whose length is the configuration's: a `u64`
//!     length that must equal the live one, then the elements in place;
//!   - `host:` configuration, derived state and host-side scaffolding —
//!     not in the stream, untouched by restore.
//!
//!   Optionally `extra (save_fn, load_fn)` appends a hand-written section
//!   for state that needs context, and `check method` validates (and
//!   re-derives) after the fields are in.
//!
//! One component is written by hand, below the macros: a [`Dram`] stores
//! its non-zero extents, not its image.
//!
//! A field of a type from a crate that cannot see this one (`hb-isa`
//! registers, say) is written `field [codec]` in a `snap_enum!` list,
//! where `codec` is a module with `save(&T, &mut SnapWriter)` and
//! `load(&mut SnapReader) -> Result<T, SnapError>`.
//!
//! All three expand to an exhaustive `let Self { .. }` destructuring (or an
//! exhaustive `match`), so a field or variant that no list names does not
//! compile:
//!
//! ```
//! use hb_mem::{snap_value, Snap, SnapReader, SnapWriter};
//!
//! #[derive(Debug, PartialEq)]
//! struct Beat { id: u64, lanes: [u16; 2], note: Option<String> }
//! snap_value!(Beat { id, lanes, note });
//!
//! let beat = Beat { id: 7, lanes: [1, 2], note: Some("hi".into()) };
//! let mut w = SnapWriter::new();
//! beat.save(&mut w);
//! let bytes = w.into_bytes();
//! let mut r = SnapReader::new(&bytes);
//! assert_eq!(Beat::load(&mut r).unwrap(), beat);
//! r.finish().unwrap();
//! ```
//!
//! ```compile_fail,E0027
//! use hb_mem::snap_value;
//!
//! struct Beat { id: u64, lanes: [u16; 2], added_later: bool }
//! snap_value!(Beat { id, lanes }); // pattern does not mention `added_later`
//! ```

use crate::{ClockDivider, Dram};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;

/// Snapshot decoding errors. Encoding is infallible (it only appends to a
/// buffer); every decode error is one of these, never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapError {
    /// The stream ended before the expected field.
    Eof,
    /// A section tag or validated field didn't match; the message names the
    /// section or invariant.
    Bad(&'static str),
}

impl fmt::Display for SnapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapError::Eof => write!(f, "snapshot truncated"),
            SnapError::Bad(what) => write!(f, "snapshot mismatch: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Append-only snapshot encoder.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl From<Vec<u8>> for SnapWriter {
    /// A writer that appends to `buf` (a container header, say) instead of
    /// starting a second buffer.
    fn from(buf: Vec<u8>) -> SnapWriter {
        SnapWriter { buf }
    }
}

impl SnapWriter {
    /// A fresh, empty writer.
    pub fn new() -> SnapWriter {
        SnapWriter::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes a four-byte section tag.
    pub fn tag(&mut self, tag: &[u8; 4]) {
        self.buf.extend_from_slice(tag);
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a little-endian `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes an `f32` as its IEEE-754 bit pattern.
    pub fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    /// Appends bytes as they are, with no length prefix.
    pub fn raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.raw(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }
}

/// Cursor-based snapshot decoder over a borrowed byte slice.
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> SnapReader<'a> {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Checks the stream was fully consumed (trailing garbage is a layout
    /// mismatch, not padding).
    ///
    /// # Errors
    ///
    /// [`SnapError::Bad`] when bytes remain.
    pub fn finish(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Bad("trailing bytes after snapshot"))
        }
    }

    /// Reads the next `n` bytes as they are, borrowed from the input.
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] on truncation (likewise for every reader below).
    pub fn raw(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        let end = self.pos.checked_add(n).ok_or(SnapError::Eof)?;
        let out = self.buf.get(self.pos..end).ok_or(SnapError::Eof)?;
        self.pos = end;
        Ok(out)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], SnapError> {
        let mut out = [0; N];
        out.copy_from_slice(self.raw(N)?);
        Ok(out)
    }

    /// Reads and verifies a four-byte section tag.
    ///
    /// # Errors
    ///
    /// [`SnapError::Bad`] naming `what` on mismatch, [`SnapError::Eof`] on
    /// truncation.
    pub fn expect_tag(&mut self, tag: &[u8; 4], what: &'static str) -> Result<(), SnapError> {
        if self.raw(4)? == tag {
            Ok(())
        } else {
            Err(SnapError::Bad(what))
        }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] on truncation.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.raw(1)?[0])
    }

    /// Reads a bool byte; any value other than 0/1 is a layout error.
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] or [`SnapError::Bad`].
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Bad("bool byte out of range")),
        }
    }

    /// Reads a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] on truncation.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] on truncation.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] on truncation.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Reads a `u64` into `usize`, rejecting values the host cannot index.
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] or [`SnapError::Bad`].
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::Bad("usize out of range"))
    }

    /// Reads an `f32` from its stored bit pattern.
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] on truncation.
    pub fn f32(&mut self) -> Result<f32, SnapError> {
        Ok(f32::from_bits(self.u32()?))
    }

    /// Reads a length-prefixed byte slice, borrowed from the input so the
    /// caller copies it straight to where it belongs.
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] or [`SnapError::Bad`].
    pub fn bytes(&mut self) -> Result<&'a [u8], SnapError> {
        let n = self.usize()?;
        self.raw(n)
    }

    /// Reads a length-prefixed UTF-8 string, borrowed from the input.
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] or [`SnapError::Bad`] on invalid UTF-8.
    pub fn str(&mut self) -> Result<&'a str, SnapError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| SnapError::Bad("invalid UTF-8 string"))
    }

    /// Reads a sequence length, sanity-bounded by the remaining bytes (every
    /// element costs at least one byte).
    ///
    /// # Errors
    ///
    /// [`SnapError::Eof`] or [`SnapError::Bad`].
    pub fn seq_len(&mut self) -> Result<usize, SnapError> {
        let n = self.usize()?;
        if n > self.remaining() {
            return Err(SnapError::Eof);
        }
        Ok(n)
    }
}

/// A value that encodes itself and decodes from the stream alone. See the
/// [module docs](self) for the conventions and the field-list macros that
/// implement it.
pub trait Snap: Sized {
    /// Appends the value to the stream.
    fn save(&self, w: &mut SnapWriter);

    /// Decodes one value.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation or a value the type cannot hold.
    fn load(r: &mut SnapReader) -> Result<Self, SnapError>;

    /// Appends `items` back to back (no length). `u8` overrides this with
    /// one bulk copy; the same goes for the two hooks below.
    #[doc(hidden)]
    fn save_slice(items: &[Self], w: &mut SnapWriter) {
        for item in items {
            item.save(w);
        }
    }

    /// Decodes `out.len()` values over `out`.
    #[doc(hidden)]
    fn load_slice(out: &mut [Self], r: &mut SnapReader) -> Result<(), SnapError> {
        for slot in out {
            *slot = Self::load(r)?;
        }
        Ok(())
    }

    /// Decodes `n` values into a fresh `Vec`. `n` came out of
    /// [`SnapReader::seq_len`]; the reservation is further capped so that
    /// it never exceeds the bytes still unread.
    #[doc(hidden)]
    fn load_vec(n: usize, r: &mut SnapReader) -> Result<Vec<Self>, SnapError> {
        let fits = r.remaining() / std::mem::size_of::<Self>().max(1);
        let mut out = Vec::with_capacity(n.min(fits));
        for _ in 0..n {
            out.push(Self::load(r)?);
        }
        Ok(out)
    }
}

/// A machine component whose dynamic state is restored *into* an instance
/// built from the matching configuration. Implemented by
/// [`snap_state!`](crate::snap_state); every [`Snap`] value is one too.
pub trait SnapState {
    /// Appends the component's dynamic state to the stream.
    fn save_state(&self, w: &mut SnapWriter);

    /// Restores the dynamic state in place. On error the component may be
    /// partially overwritten and must be discarded.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on truncation, a section-tag or geometry mismatch, or
    /// an out-of-range index.
    fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError>;

    /// [`save_fixed`]'s element loop (bulk for `u8`).
    #[doc(hidden)]
    fn save_states(items: &[Self], w: &mut SnapWriter)
    where
        Self: Sized,
    {
        for item in items {
            item.save_state(w);
        }
    }

    /// [`load_fixed`]'s element loop (bulk for `u8`).
    #[doc(hidden)]
    fn load_states(items: &mut [Self], r: &mut SnapReader) -> Result<(), SnapError>
    where
        Self: Sized,
    {
        for item in items {
            item.load_state(r)?;
        }
        Ok(())
    }
}

impl<T: Snap> SnapState for T {
    fn save_state(&self, w: &mut SnapWriter) {
        self.save(w);
    }

    fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        *self = T::load(r)?;
        Ok(())
    }

    fn save_states(items: &[T], w: &mut SnapWriter) {
        T::save_slice(items, w);
    }

    fn load_states(items: &mut [T], r: &mut SnapReader) -> Result<(), SnapError> {
        T::load_slice(items, r)
    }
}

/// Saves a fixed-geometry sequence: its length, then the elements.
pub fn save_fixed<T: SnapState>(items: &[T], w: &mut SnapWriter) {
    w.usize(items.len());
    T::save_states(items, w);
}

/// Restores a fixed-geometry sequence element by element, in place.
///
/// # Errors
///
/// [`SnapError::Bad`] naming `what` when the stored length is not the live
/// one (the checkpoint was taken under another geometry).
pub fn load_fixed<T: SnapState>(
    items: &mut [T],
    r: &mut SnapReader,
    what: &'static str,
) -> Result<(), SnapError> {
    if r.usize()? != items.len() {
        return Err(SnapError::Bad(what));
    }
    T::load_states(items, r)
}

macro_rules! snap_scalars {
    ($($t:ident),*) => {$(
        impl Snap for $t {
            fn save(&self, w: &mut SnapWriter) {
                w.$t(*self);
            }

            fn load(r: &mut SnapReader) -> Result<$t, SnapError> {
                r.$t()
            }
        }
    )*};
}
snap_scalars!(u16, u32, u64, usize, bool, f32);

impl Snap for u8 {
    fn save(&self, w: &mut SnapWriter) {
        w.u8(*self);
    }

    fn load(r: &mut SnapReader) -> Result<u8, SnapError> {
        r.u8()
    }

    fn save_slice(items: &[u8], w: &mut SnapWriter) {
        w.raw(items);
    }

    fn load_slice(out: &mut [u8], r: &mut SnapReader) -> Result<(), SnapError> {
        out.copy_from_slice(r.raw(out.len())?);
        Ok(())
    }

    fn load_vec(n: usize, r: &mut SnapReader) -> Result<Vec<u8>, SnapError> {
        Ok(r.raw(n)?.to_vec())
    }
}

impl Snap for String {
    fn save(&self, w: &mut SnapWriter) {
        w.str(self);
    }

    fn load(r: &mut SnapReader) -> Result<String, SnapError> {
        Ok(r.str()?.to_owned())
    }
}

impl<T: Snap> Snap for Option<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.save(w);
        }
    }

    fn load(r: &mut SnapReader) -> Result<Option<T>, SnapError> {
        Ok(if r.bool()? { Some(T::load(r)?) } else { None })
    }
}

impl<T: Snap> Snap for Box<T> {
    fn save(&self, w: &mut SnapWriter) {
        (**self).save(w);
    }

    fn load(r: &mut SnapReader) -> Result<Box<T>, SnapError> {
        Ok(Box::new(T::load(r)?))
    }
}

impl<T: Snap> Snap for Vec<T> {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.len());
        T::save_slice(self, w);
    }

    fn load(r: &mut SnapReader) -> Result<Vec<T>, SnapError> {
        let n = r.seq_len()?;
        T::load_vec(n, r)
    }
}

impl<T: Snap> Snap for VecDeque<T> {
    fn save(&self, w: &mut SnapWriter) {
        let (front, back) = self.as_slices();
        w.usize(self.len());
        T::save_slice(front, w);
        T::save_slice(back, w);
    }

    fn load(r: &mut SnapReader) -> Result<VecDeque<T>, SnapError> {
        Ok(Vec::load(r)?.into())
    }
}

impl<T: Snap, const N: usize> Snap for [T; N] {
    fn save(&self, w: &mut SnapWriter) {
        T::save_slice(self, w);
    }

    fn load(r: &mut SnapReader) -> Result<[T; N], SnapError> {
        let mut failed = None;
        let slots: [Option<T>; N] = std::array::from_fn(|_| {
            if failed.is_some() {
                return None;
            }
            T::load(r).map_err(|e| failed = Some(e)).ok()
        });
        match failed {
            Some(e) => Err(e),
            None => Ok(slots.map(|slot| slot.expect("no slot failed to decode"))),
        }
    }
}

impl<A: Snap, B: Snap> Snap for (A, B) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
    }

    fn load(r: &mut SnapReader) -> Result<(A, B), SnapError> {
        Ok((A::load(r)?, B::load(r)?))
    }
}

impl<A: Snap, B: Snap, C: Snap> Snap for (A, B, C) {
    fn save(&self, w: &mut SnapWriter) {
        self.0.save(w);
        self.1.save(w);
        self.2.save(w);
    }

    fn load(r: &mut SnapReader) -> Result<(A, B, C), SnapError> {
        Ok((A::load(r)?, B::load(r)?, C::load(r)?))
    }
}

/// Saved in key order: `HashMap` iteration order differs between runs and
/// the stream must not.
impl<K: Snap + Ord + Hash, V: Snap> Snap for HashMap<K, V> {
    fn save(&self, w: &mut SnapWriter) {
        let mut entries: Vec<(&K, &V)> = self.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        w.usize(entries.len());
        for (k, v) in entries {
            k.save(w);
            v.save(w);
        }
    }

    fn load(r: &mut SnapReader) -> Result<HashMap<K, V>, SnapError> {
        let mut out = HashMap::new();
        for _ in 0..r.seq_len()? {
            out.insert(K::load(r)?, V::load(r)?);
        }
        Ok(out)
    }
}

/// One field of a `snap_enum!` variant: through [`Snap`], or through the
/// codec module named in brackets.
#[doc(hidden)]
#[macro_export]
macro_rules! __snap_save_field {
    ($f:expr, $w:expr) => {
        $crate::Snap::save($f, $w)
    };
    ($f:expr, $w:expr, $codec:ident) => {
        $codec::save($f, $w)
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __snap_load_field {
    ($r:expr; $f:ident) => {
        $crate::Snap::load($r)?
    };
    ($r:expr, $codec:ident; $f:ident) => {
        $codec::load($r)?
    };
}

/// Implements [`Snap`] for a struct from one list of its fields, in stream
/// order. See the [module docs](crate::snap).
#[macro_export]
macro_rules! snap_value {
    ($ty:ident $(<$p:ident>)? $([$tag:literal])? {
        $($f:ident),* $(,)? $(; derived $($d:ident),+)?
    } $(check $check:ident)?) => {
        impl$(<$p: $crate::Snap>)? $crate::Snap for $ty$(<$p>)? {
            fn save(&self, w: &mut $crate::SnapWriter) {
                let Self { $($f,)* $($($d: _,)+)? } = self;
                $(w.tag($tag);)?
                $($crate::Snap::save($f, w);)*
            }

            fn load(r: &mut $crate::SnapReader) -> Result<Self, $crate::SnapError> {
                $(r.expect_tag($tag, concat!(stringify!($ty), " section"))?;)?
                #[allow(unused_mut)]
                let mut value = Self {
                    $($f: $crate::Snap::load(r)?,)*
                    $($($d: Default::default(),)+)?
                };
                $(value.$check()?;)?
                Ok(value)
            }
        }
    };
}

/// Implements [`Snap`] for an enum from one `tag => Variant` list. See the
/// [module docs](crate::snap).
#[macro_export]
macro_rules! snap_enum {
    ($ty:ident, $what:literal {
        $($tag:literal => $v:ident
            $(( $($tf:ident $([$tc:ident])?),+ ))?
            $({ $($sf:ident $([$sc:ident])?),+ })?
        ),+ $(,)?
    }) => {
        impl $crate::Snap for $ty {
            fn save(&self, w: &mut $crate::SnapWriter) {
                match self {
                    $(Self::$v $(( $($tf),+ ))? $({ $($sf),+ })? => {
                        w.u8($tag);
                        $($($crate::__snap_save_field!($tf, w $(, $tc)?);)+)?
                        $($($crate::__snap_save_field!($sf, w $(, $sc)?);)+)?
                    })+
                }
            }

            fn load(r: &mut $crate::SnapReader) -> Result<Self, $crate::SnapError> {
                Ok(match r.u8()? {
                    $($tag => Self::$v
                        $(( $($crate::__snap_load_field!(r $(, $tc)?; $tf)),+ ))?
                        $({ $($sf: $crate::__snap_load_field!(r $(, $sc)?; $sf)),+ })?,
                    )+
                    _ => return Err($crate::SnapError::Bad($what)),
                })
            }
        }
    };
}

/// Implements [`SnapState`] for a machine component from one list that
/// puts every field in a class. See the [module docs](crate::snap).
#[macro_export]
macro_rules! snap_state {
    ($ty:ident $(<$p:ident>)? [$tag:literal] {
        $(save: $($s:ident),+ ;)?
        $(fixed: $($x:ident),+ ;)?
        $(host: $($h:ident),+ ;)?
    } $(extra ($extra_save:ident, $extra_load:ident))? $(check $check:ident)?) => {
        impl$(<$p: $crate::Snap>)? $crate::SnapState for $ty$(<$p>)? {
            fn save_state(&self, w: &mut $crate::SnapWriter) {
                let Self { $($($s,)+)? $($($x,)+)? $($($h: _,)+)? } = self;
                w.tag($tag);
                $($($crate::SnapState::save_state($s, w);)+)?
                $($($crate::snap::save_fixed(&$x[..], w);)+)?
                $(self.$extra_save(w);)?
            }

            fn load_state(
                &mut self,
                r: &mut $crate::SnapReader,
            ) -> Result<(), $crate::SnapError> {
                r.expect_tag($tag, concat!(stringify!($ty), " section"))?;
                let Self { $($($s,)+)? $($($x,)+)? $($($h: _,)+)? } = self;
                $($($crate::SnapState::load_state($s, r)?;)+)?
                $($($crate::snap::load_fixed(
                    &mut $x[..],
                    r,
                    concat!(stringify!($ty), ".", stringify!($x), " length mismatch"),
                )?;)+)?
                $(self.$extra_load(r)?;)?
                $(self.$check()?;)?
                Ok(())
            }
        }
    };
}

/// The one component written by hand — a data-dependent list is what a
/// `fixed:` class cannot say: the tag, the image length (must equal the live
/// one), `(offset, u64 length + bytes)` per [`Dram::extents`] run of pages,
/// ascending, and a closing offset equal to the image length.
impl SnapState for Dram {
    fn save_state(&self, w: &mut SnapWriter) {
        w.tag(b"DRAM");
        w.usize(self.len());
        for (offset, pages) in self.extents() {
            w.usize(offset);
            w.usize(pages.iter().map(|page| page.len()).sum());
            pages.iter().for_each(|page| w.raw(page));
        }
        w.usize(self.len());
    }

    /// Drops every page and writes only the stored extents: the target of a
    /// restore is not always a fresh machine, and a gap reads as zero.
    fn load_state(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        r.expect_tag(b"DRAM", "Dram section")?;
        let len = self.len();
        if r.usize()? != len {
            return Err(SnapError::Bad("Dram.bytes length mismatch"));
        }
        self.clear();
        let mut done = 0; // everything below it is restored
        loop {
            let offset = r.usize()?;
            if offset == len {
                return Ok(());
            }
            let bytes = r.bytes()?;
            if offset < done || offset > len || bytes.is_empty() || bytes.len() > len - offset {
                return Err(SnapError::Bad("Dram extent out of order or out of range"));
            }
            self.write_at(offset, bytes);
            done = offset + bytes.len();
        }
    }
}

impl ClockDivider {
    fn check_ratio(&mut self) -> Result<(), SnapError> {
        if self.denom == 0 || self.numer > self.denom || self.acc >= self.denom {
            return Err(SnapError::Bad("ClockDivider ratio out of range"));
        }
        Ok(())
    }
}
crate::snap_value!(ClockDivider { numer, denom, acc } check check_ratio);

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Snap + PartialEq + fmt::Debug>(value: T) {
        let mut w = SnapWriter::new();
        value.save(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(T::load(&mut r).unwrap(), value);
        r.finish().unwrap();
        // Every strict prefix is a clean error, never a panic.
        for cut in 0..bytes.len() {
            assert!(T::load(&mut SnapReader::new(&bytes[..cut])).is_err());
        }
    }

    #[test]
    fn scalars_round_trip() {
        let mut w = SnapWriter::new();
        w.tag(b"TEST");
        w.u8(7);
        w.bool(true);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 1);
        w.usize(42);
        w.f32(-1.5);
        w.bytes(b"abc");
        w.str("hé");
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        r.expect_tag(b"TEST", "test").unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.usize().unwrap(), 42);
        assert_eq!(r.f32().unwrap(), -1.5);
        assert_eq!(r.bytes().unwrap(), b"abc");
        assert_eq!(r.str().unwrap(), "hé");
        r.finish().unwrap();
    }

    #[test]
    fn containers_round_trip() {
        round_trip((7u8, 0xbeefu16, u64::MAX - 1));
        round_trip((usize::MAX >> 1, true, -1.5f32));
        round_trip(String::from("hé"));
        round_trip(vec![Some(1u32), None, Some(3)]);
        round_trip(VecDeque::from([(1u8, vec![9u8, 8, 7]), (2, vec![])]));
        round_trip([[1u64, 2], [3, 4], [5, 6]]);
        round_trip(Some(Box::new((1u32, String::from("boxed")))));
        round_trip(HashMap::from([(3u32, false), (1, true), (2, true)]));
        // A wrapped-around deque saves in queue order.
        let mut dq = VecDeque::with_capacity(4);
        dq.extend([1u8, 2, 3, 4]);
        dq.pop_front();
        dq.push_back(5);
        round_trip(dq);
    }

    #[test]
    fn hash_maps_save_in_key_order() {
        let encode = |keys: &[u32]| {
            let map: HashMap<u32, u8> = keys.iter().map(|&k| (k, k as u8)).collect();
            let mut w = SnapWriter::new();
            map.save(&mut w);
            w.into_bytes()
        };
        assert_eq!(encode(&[5, 1, 9, 3]), encode(&[9, 3, 5, 1]));
    }

    #[derive(Debug, PartialEq)]
    enum Shape {
        Dot,
        Line(u8, u16),
        Rect { w: u32, h: u32 },
    }
    snap_enum!(Shape, "unknown shape tag" {
        0 => Dot,
        1 => Line(a, b),
        2 => Rect { w, h },
    });

    #[derive(Debug, PartialEq, Default)]
    struct Tagged {
        shapes: Vec<Shape>,
        area: u64,
        count: usize,
    }
    impl Tagged {
        fn recount(&mut self) -> Result<(), SnapError> {
            self.count = self.shapes.len();
            if self.area == 0 {
                return Err(SnapError::Bad("Tagged area is zero"));
            }
            Ok(())
        }
    }
    snap_value!(Tagged [b"TAGD"] { shapes, area; derived count } check recount);

    #[test]
    fn field_lists_round_trip_and_validate() {
        round_trip(Shape::Dot);
        round_trip(Shape::Line(3, 700));
        round_trip(Shape::Rect { w: 1, h: u32::MAX });
        assert_eq!(
            Shape::load(&mut SnapReader::new(&[3])),
            Err(SnapError::Bad("unknown shape tag"))
        );
        round_trip(Tagged {
            shapes: vec![Shape::Dot, Shape::Line(1, 2)],
            area: 9,
            count: 2,
        });
        let mut w = SnapWriter::new();
        Tagged::default().save(&mut w);
        let bytes = w.into_bytes();
        assert_eq!(
            Tagged::load(&mut SnapReader::new(&bytes)),
            Err(SnapError::Bad("Tagged area is zero"))
        );
        assert_eq!(
            Tagged::load(&mut SnapReader::new(b"XXXX")),
            Err(SnapError::Bad("Tagged section"))
        );
    }

    #[test]
    fn truncation_and_mismatch_are_clean_errors() {
        let mut w = SnapWriter::new();
        w.tag(b"AAAA");
        w.u32(1);
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes[..3]);
        assert_eq!(r.expect_tag(b"AAAA", "a"), Err(SnapError::Eof));
        let mut r = SnapReader::new(&bytes);
        assert_eq!(
            r.expect_tag(b"BBBB", "b section"),
            Err(SnapError::Bad("b section"))
        );
        let mut r = SnapReader::new(&bytes);
        r.expect_tag(b"AAAA", "a").unwrap();
        assert_eq!(r.u64(), Err(SnapError::Eof));
        // A corrupt huge length cannot allocate.
        let mut w = SnapWriter::new();
        w.u64(u64::MAX);
        w.u64(0);
        let huge = w.into_bytes();
        assert_eq!(SnapReader::new(&huge).bytes(), Err(SnapError::Eof));
        assert_eq!(
            Vec::<u64>::load(&mut SnapReader::new(&huge)),
            Err(SnapError::Eof)
        );
        assert_eq!(
            String::load(&mut SnapReader::new(&huge)),
            Err(SnapError::Eof)
        );
        assert!(HashMap::<u64, u64>::load(&mut SnapReader::new(&huge)).is_err());
        // A length that fits the remaining bytes but not the elements
        // reserves no more than those bytes before it runs dry.
        let mut w = SnapWriter::new();
        w.u64(8);
        w.u64(0);
        let short = w.into_bytes();
        assert_eq!(
            Vec::<u64>::load(&mut SnapReader::new(&short)),
            Err(SnapError::Eof)
        );
    }

    #[test]
    fn dram_and_divider_round_trip() {
        let mut d = Dram::new(64);
        d.write_u32(8, 0xdead_beef);
        let mut div = ClockDivider::new(1_000, 1_350);
        for _ in 0..7 {
            div.tick();
        }
        let mut w = SnapWriter::new();
        d.save_state(&mut w);
        div.save(&mut w);
        let bytes = w.into_bytes();

        let mut r = SnapReader::new(&bytes);
        let mut d2 = Dram::new(64);
        d2.load_state(&mut r).unwrap();
        assert_eq!(d2, d);
        let div2 = ClockDivider::load(&mut r).unwrap();
        assert_eq!(div2, div);
        r.finish().unwrap();
        // Continued ticks agree bit-for-bit.
        let (mut a, mut b) = (div, div2);
        for _ in 0..100 {
            assert_eq!(a.tick(), b.tick());
        }

        // Capacity mismatch is a clean error, and so is a ratio the
        // divider's constructor would have refused.
        let mut r = SnapReader::new(&bytes);
        let mut wrong = Dram::new(32);
        assert_eq!(
            wrong.load_state(&mut r),
            Err(SnapError::Bad("Dram.bytes length mismatch"))
        );
        let mut w = SnapWriter::new();
        (5u64, 0u64, 0u64).save(&mut w);
        let bytes = w.into_bytes();
        assert!(ClockDivider::load(&mut SnapReader::new(&bytes)).is_err());
    }

    fn saved(d: &Dram) -> Vec<u8> {
        let mut w = SnapWriter::new();
        d.save_state(&mut w);
        w.into_bytes()
    }

    /// Restores `bytes` into `d` and requires the stream to end there.
    fn load_all(d: &mut Dram, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        d.load_state(&mut r)?;
        r.finish()
    }

    /// Three extents over five blocks and a ragged tail: a byte at each end
    /// of block 0, one on each side of the 2|3 boundary (one run of two
    /// blocks), and the image's last byte in its partial block.
    const RAGGED: usize = 5 * 4096 + 100;

    fn sparse_dram() -> Dram {
        let mut d = Dram::new(RAGGED);
        for at in [0, 4095, 3 * 4096 - 1, 3 * 4096, RAGGED - 1] {
            d.write_u8(at as u32, 0xa5);
        }
        d
    }

    /// Each extent as `(offset, its bytes)`.
    fn flat_extents(d: &Dram) -> Vec<(usize, Vec<u8>)> {
        d.extents()
            .map(|(at, pages)| (at, pages.concat()))
            .collect()
    }

    #[test]
    fn dram_extents_are_the_maximal_non_zero_block_runs() {
        let spans = |d: &Dram| -> Vec<(usize, usize)> {
            flat_extents(d)
                .into_iter()
                .map(|(at, bytes)| (at, bytes.len()))
                .collect()
        };
        assert_eq!(spans(&Dram::new(RAGGED)), []);
        assert_eq!(spans(&Dram::new(0)), []);
        assert_eq!(
            spans(&sparse_dram()),
            [(0, 4096), (2 * 4096, 2 * 4096), (5 * 4096, 100)]
        );
        let mut full = Dram::new(RAGGED);
        full.write_bytes(0, &[1; RAGGED]);
        assert_eq!(spans(&full), [(0, RAGGED)]);
        let sparse = sparse_dram();
        for (at, bytes) in flat_extents(&sparse) {
            let mut image = vec![0; bytes.len()];
            sparse.read_into(at as u32, &mut image);
            assert_eq!(bytes, image);
        }
    }

    #[test]
    fn dram_restores_into_a_dirty_image_and_re_encodes_to_the_same_bytes() {
        for source in [sparse_dram(), Dram::new(RAGGED), Dram::new(0)] {
            let bytes = saved(&source);
            // Two length words plus, per extent, an offset and a length.
            let extents = flat_extents(&source);
            let stored: usize = extents.iter().map(|(_, b)| b.len()).sum();
            assert_eq!(bytes.len(), 4 + 16 + 16 * extents.len() + stored);
            // The target of a restore is not always a fresh machine: every
            // gap between extents has to read as zero, not as it was.
            let mut dirty = Dram::new(source.len());
            dirty.write_bytes(0, &vec![0xff; source.len()]);
            load_all(&mut dirty, &bytes).unwrap();
            assert_eq!(dirty, source);
            assert_eq!(saved(&dirty), bytes);
            for cut in 0..bytes.len() {
                let mut target = Dram::new(source.len());
                assert_eq!(load_all(&mut target, &bytes[..cut]), Err(SnapError::Eof));
            }
        }
    }

    #[test]
    fn hostile_dram_extents_are_typed_errors() {
        const LEN: usize = 4 * 4096;
        // A `DRAM` section over a `LEN`-byte image from `(offset, claimed
        // length, bytes present)` words, closed by `close`.
        let section = |extents: &[(u64, u64, usize)], close: Option<u64>| {
            let mut w = SnapWriter::new();
            w.tag(b"DRAM");
            w.usize(LEN);
            for &(offset, claimed, present) in extents {
                w.u64(offset);
                w.u64(claimed);
                w.raw(&vec![7; present]);
            }
            if let Some(close) = close {
                w.u64(close);
            }
            w.into_bytes()
        };
        let end = LEN as u64;
        let load = |bytes: &[u8]| load_all(&mut Dram::new(LEN), bytes);
        let bad = Err(SnapError::Bad("Dram extent out of order or out of range"));

        assert_eq!(
            load(&section(&[(0, 8, 8), (4096, 8, 8)], Some(end))),
            Ok(())
        );
        // Adjacent is in order; anything earlier is not.
        assert_eq!(load(&section(&[(0, 8, 8), (8, 8, 8)], Some(end))), Ok(()));
        assert_eq!(load(&section(&[(4096, 8, 8), (0, 8, 8)], Some(end))), bad);
        assert_eq!(load(&section(&[(0, 8, 8), (7, 8, 8)], Some(end))), bad);
        assert_eq!(load(&section(&[(0, 8, 8), (0, 8, 8)], Some(end))), bad);
        // Starting or ending past the image.
        assert_eq!(load(&section(&[(end + 1, 8, 8)], Some(end))), bad);
        assert_eq!(load(&section(&[(u64::MAX, 8, 8)], Some(end))), bad);
        assert_eq!(load(&section(&[(end - 4, 8, 8)], Some(end))), bad);
        // Empty.
        assert_eq!(load(&section(&[(64, 0, 0)], Some(end))), bad);
        // No terminator, and one that comes before the bytes do.
        assert_eq!(load(&section(&[(0, 8, 8)], None)), Err(SnapError::Eof));
        assert_eq!(
            load(&section(&[(end, 8, 8)], Some(end))),
            Err(SnapError::Bad("trailing bytes after snapshot"))
        );
        // A length larger than the bytes that remain, huge or off by one:
        // refused before anything is copied or reserved.
        for claimed in [u64::MAX, 1 << 40, 9 + 8] {
            assert_eq!(
                load(&section(&[(0, claimed, 8)], Some(end))),
                Err(SnapError::Eof)
            );
        }
        // A length the stream does hold but the image does not.
        assert_eq!(load(&section(&[(0, end + 1, LEN + 1)], Some(end))), bad);
    }
}
