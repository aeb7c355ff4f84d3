//! Versioned, crash-safe machine checkpoints.
//!
//! [`hb_core::Machine::save_checkpoint`] produces a deterministic byte
//! payload of the complete simulated state; this crate owns everything
//! around that payload — the on-disk file format, its integrity hash, the
//! version/config compatibility checks on restore, and the atomic write
//! discipline that makes a checkpoint either fully present or absent after
//! a crash.
//!
//! [`decode`] is the one parser: it checks a file's bytes and returns a
//! [`Checkpoint`] that borrows its config text and payload from them.
//! [`apply`] checks the config and restores a decoded checkpoint into a
//! machine; [`restore`] is the two in one step.
//!
//! # File format (`HBCKPT01`)
//!
//! ```text
//! offset  size  field
//! 0       8     magic "HBCKPT01"
//! 8       4     format version (u32 LE, currently 4)
//! 12      8+n   machine config canonical text (u64 LE length + UTF-8)
//! ..      8     machine cycle at capture (u64 LE)
//! ..      8+m   machine payload (u64 LE length + bytes)
//! ..      16    FNV-1a 128-bit hash of every preceding byte (LE)
//! ```
//!
//! The config travels as [`hb_core::MachineConfig::canonical_text`] — the
//! same canonical form job hashing uses — so "same config" means exactly
//! what it means everywhere else in the stack: every simulated-behavior
//! knob equal, host-only knobs (the park policy, profiling) free to differ.
//! That is what makes a checkpoint taken under the park policy restorable
//! under never-park with bit-identical continuation.
//!
//! Restore never panics: a wrong magic, an unknown version, a config
//! mismatch, a hash mismatch or a malformed payload each map to a distinct
//! [`CkptError`] variant.

#![forbid(unsafe_code)]

use hb_core::{Machine, MachineConfig};
use hb_mem::{fnv1a128, SnapError, SnapReader, SnapState, SnapWriter};
use std::fmt;
use std::path::Path;

/// Current checkpoint format version. It names the byte layout of the
/// machine payload, which follows from the snapshot field lists
/// (`hb_mem::snap`): any change to a list changes the layout and must bump
/// this. `tests/checkpoint.rs::payload_layout_is_pinned_to_ckpt_version`
/// digests a fixed machine's checkpoint so that such a change cannot ship
/// under the old number.
pub const CKPT_VERSION: u32 = 4;

/// File magic; the trailing digits track the container layout (the payload
/// inside is versioned separately by `CKPT_VERSION`).
pub const MAGIC: [u8; 8] = *b"HBCKPT01";

/// Why a checkpoint could not be written or restored.
#[derive(Debug)]
pub enum CkptError {
    /// The underlying file operation failed.
    Io(std::io::Error),
    /// The file does not start with the checkpoint magic.
    BadMagic,
    /// The file's format version is not one this binary reads.
    Version {
        /// Version found in the file.
        found: u32,
    },
    /// The checkpoint was captured under a different machine configuration
    /// (canonical texts differ); restoring it would silently misinterpret
    /// geometry-dependent state.
    ConfigMismatch {
        /// Canonical config text stored in the checkpoint.
        expected: String,
        /// Canonical config text of the machine restoring it.
        got: String,
    },
    /// The integrity hash does not match the contents (torn or tampered
    /// file).
    Corrupt,
    /// The container framing or the machine payload does not decode.
    Malformed(hb_mem::SnapError),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O: {e}"),
            CkptError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CkptError::Version { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} (this binary reads {CKPT_VERSION})"
                )
            }
            CkptError::ConfigMismatch { .. } => {
                write!(
                    f,
                    "checkpoint was captured under a different machine configuration"
                )
            }
            CkptError::Corrupt => write!(f, "checkpoint hash mismatch (corrupt file)"),
            CkptError::Malformed(e) => write!(f, "malformed checkpoint: {e}"),
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Io(e) => Some(e),
            CkptError::Malformed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> CkptError {
        CkptError::Io(e)
    }
}

impl From<hb_mem::SnapError> for CkptError {
    fn from(e: hb_mem::SnapError) -> CkptError {
        CkptError::Malformed(e)
    }
}

/// A decoded, integrity-checked checkpoint container, not yet applied to
/// a machine. It borrows the config text and payload from the file bytes.
#[derive(Debug, Clone, Copy)]
pub struct Checkpoint<'a> {
    /// Machine cycle at capture.
    pub cycle: u64,
    /// Canonical config text the capture ran under.
    pub config_text: &'a str,
    /// The machine payload ([`Machine::save_checkpoint`] bytes).
    pub payload: &'a [u8],
}

impl Checkpoint<'_> {
    /// Parses the config the checkpoint was captured under.
    ///
    /// # Errors
    ///
    /// The canonical-text parse error, verbatim.
    pub fn config(&self) -> Result<MachineConfig, String> {
        MachineConfig::from_canonical_text(self.config_text)
    }
}

/// Encodes the machine's current state as complete checkpoint-file bytes.
/// Deterministic: the same machine state always encodes to the same bytes,
/// so callers may content-address checkpoints by hashing the result.
pub fn encode(machine: &Machine) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.raw(&MAGIC);
    w.u32(CKPT_VERSION);
    w.str(&machine.config().canonical_text());
    w.u64(machine.cycle());
    // The payload is encoded in place, behind a length patched in after.
    let len_at = w.len();
    w.u64(0);
    machine.save_state(&mut w);
    let mut out = w.into_bytes();
    let payload_len = (out.len() - len_at - 8) as u64;
    out[len_at..len_at + 8].copy_from_slice(&payload_len.to_le_bytes());
    let hash = fnv1a128(&out);
    out.extend_from_slice(&hash.to_le_bytes());
    out
}

/// Decodes and integrity-checks checkpoint-file bytes without applying
/// them to a machine.
///
/// # Errors
///
/// [`CkptError::BadMagic`], [`CkptError::Version`], [`CkptError::Corrupt`]
/// or [`CkptError::Malformed`]; never a panic.
pub fn decode(bytes: &[u8]) -> Result<Checkpoint<'_>, CkptError> {
    if bytes.len() < MAGIC.len() + 4 + 16 {
        if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] != MAGIC {
            return Err(CkptError::BadMagic);
        }
        return Err(CkptError::Malformed(SnapError::Eof));
    }
    let (body, tail) = bytes.split_at(bytes.len() - 16);
    let mut r = SnapReader::new(body);
    if r.raw(MAGIC.len())? != MAGIC {
        return Err(CkptError::BadMagic);
    }
    // The version check precedes the hash check: a future format may hash
    // differently, and "unsupported version" is the more actionable error.
    let version = r.u32()?;
    if version != CKPT_VERSION {
        return Err(CkptError::Version { found: version });
    }
    let stored = u128::from_le_bytes(tail.try_into().expect("split 16 bytes off"));
    if fnv1a128(body) != stored {
        return Err(CkptError::Corrupt);
    }
    let ckpt = Checkpoint {
        config_text: r.str()?,
        cycle: r.u64()?,
        payload: r.bytes()?,
    };
    r.finish()?;
    Ok(ckpt)
}

/// Restores a decoded checkpoint into `machine`, verifying the config
/// first. Returns the restored cycle.
///
/// # Errors
///
/// [`CkptError::ConfigMismatch`] when the canonical config texts differ,
/// [`CkptError::Malformed`] when the payload does not decode (the machine
/// must then be discarded — it may be partially overwritten).
pub fn apply(machine: &mut Machine, ckpt: &Checkpoint<'_>) -> Result<u64, CkptError> {
    let got = machine.config().canonical_text();
    if got != ckpt.config_text {
        return Err(CkptError::ConfigMismatch {
            expected: ckpt.config_text.to_owned(),
            got,
        });
    }
    machine.restore_checkpoint(ckpt.payload)?;
    Ok(ckpt.cycle)
}

/// [`decode`] + [`apply`] in one step.
///
/// # Errors
///
/// Any [`CkptError`].
pub fn restore(machine: &mut Machine, bytes: &[u8]) -> Result<u64, CkptError> {
    apply(machine, &decode(bytes)?)
}

/// Replaces `path` atomically and durably: the content goes to a `.tmp`
/// sibling that is fsynced, the rename swaps it in, and the parent
/// directory is fsynced so the swap survives a power cut. Checkpoint files,
/// every file `hb-serve`'s store replaces and its campaign report are
/// written through it.
///
/// # Errors
///
/// Any file operation failure, including one `content` returns.
pub fn write_atomic(
    path: &Path,
    content: impl FnOnce(&mut std::fs::File) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let dir = path.parent().filter(|d| !d.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        content(&mut f)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    // rename() alone only orders the directory update in the page cache;
    // the parent directory must be fsynced for the new name to survive a
    // power cut.
    if let Some(dir) = dir {
        std::fs::File::open(dir)?.sync_all()?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::{CellDim, MachineConfig};
    use std::io::Write;

    fn tiny_cfg() -> MachineConfig {
        MachineConfig {
            cell_dim: CellDim { x: 2, y: 2 },
            ..MachineConfig::baseline_16x8()
        }
    }

    fn ticked_machine(cycles: u64) -> Machine {
        let mut m = Machine::new(tiny_cfg());
        for _ in 0..cycles {
            m.tick();
        }
        m
    }

    #[test]
    fn encode_decode_apply_round_trips() {
        let m = ticked_machine(37);
        let bytes = encode(&m);
        let ckpt = decode(&bytes).unwrap();
        assert_eq!(ckpt.cycle, 37);
        assert_eq!(ckpt.config_text, tiny_cfg().canonical_text());
        let mut twin = Machine::new(tiny_cfg());
        assert_eq!(apply(&mut twin, &ckpt).unwrap(), 37);
        assert_eq!(twin.cycle(), 37);
        // Re-encoding the restored machine reproduces the bytes exactly.
        assert_eq!(encode(&twin), bytes);
    }

    #[test]
    fn encoding_is_deterministic() {
        let a = encode(&ticked_machine(12));
        let b = encode(&ticked_machine(12));
        assert_eq!(a, b);
    }

    #[test]
    fn bad_magic_is_clean() {
        assert!(matches!(decode(b"NOTACKPT"), Err(CkptError::BadMagic)));
        assert!(matches!(decode(b"HB"), Err(CkptError::Malformed(_))));
        let mut bytes = encode(&ticked_machine(1));
        bytes[0] = b'X';
        assert!(matches!(decode(&bytes), Err(CkptError::BadMagic)));
    }

    #[test]
    fn unknown_version_is_clean() {
        let mut bytes = encode(&ticked_machine(1));
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            decode(&bytes),
            Err(CkptError::Version { found: 99 })
        ));
    }

    #[test]
    fn corruption_is_detected() {
        let mut bytes = encode(&ticked_machine(5));
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(decode(&bytes), Err(CkptError::Corrupt)));
        // Truncation inside the hash tail is Malformed/Corrupt, not a panic.
        let short = &encode(&ticked_machine(5))[..20];
        assert!(decode(short).is_err());
    }

    #[test]
    fn config_mismatch_is_clean() {
        let bytes = encode(&ticked_machine(9));
        let other_cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 2 },
            ..tiny_cfg()
        };
        let mut other = Machine::new(other_cfg);
        assert!(matches!(
            restore(&mut other, &bytes),
            Err(CkptError::ConfigMismatch { .. })
        ));
        // Host-only knobs are allowed to differ.
        let host_cfg = MachineConfig {
            event_core: false,
            ..tiny_cfg()
        };
        let mut host = Machine::new(host_cfg);
        assert_eq!(restore(&mut host, &bytes).unwrap(), 9);
    }

    #[test]
    fn file_round_trip_is_atomic() {
        let dir = std::env::temp_dir().join(format!("hb-ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("snap.ckpt");
        let m = ticked_machine(21);
        write_atomic(&path, |f| f.write_all(&encode(&m))).unwrap();
        assert!(
            !path.with_extension("tmp").exists(),
            "tmp must be renamed away"
        );
        let mut twin = Machine::new(tiny_cfg());
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(restore(&mut twin, &bytes).unwrap(), 21);
        assert_eq!(encode(&twin), encode(&m));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
