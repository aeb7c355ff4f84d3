//! HBM2 pseudo-channel DRAM model for HammerBlade-RS.
//!
//! The paper simulates four 16 GB stacks of HBM2 at 1.0 GHz (1 TB/s peak)
//! with DRAMSim3 attached to the RTL over DPI. This crate is the Rust
//! substitute: a cycle-level pseudo-channel timing model with banks,
//! row-buffer management, FR-FCFS scheduling and refresh, plus a plain byte
//! [`Dram`] backing store for functional data.
//!
//! Each HammerBlade Cell maps to one pseudo-channel ([`Hbm2Channel`]); the
//! per-channel stats reproduce the HBM2 utilization taxonomy of Figure 11:
//! *read*, *write*, *busy* (requests queued but no data transferring due to
//! DRAM timing) and *idle* (queue empty), with refresh cycles subtracted
//! from the denominator.
//!
//! As the bottom of the crate stack (no dependencies), this crate also
//! hosts the three codecs every layer above shares: [`snap`] (binary
//! checkpoints), [`text`] (the canonical texts results are hashed by) and
//! [`json`] (the one JSON parser, and flat-object records over it) — plus
//! [`fnv1a128`], the digest those forms are sealed and keyed with, and
//! [`WorkSet`], the ascending-order worklist the NoC and the Cell's
//! sequential phases walk instead of sweeping the machine, and [`IdMap`],
//! the id-ordered table of in-flight operations.
//!
//! # Examples
//!
//! ```
//! use hb_mem::{DramRequest, Hbm2Channel, Hbm2Config};
//!
//! let mut ch = Hbm2Channel::new(Hbm2Config::default());
//! ch.enqueue(DramRequest { id: 1, addr: 0x40, write: false });
//! let mut done = None;
//! for _ in 0..100 {
//!     ch.tick();
//!     if let Some(resp) = ch.pop_response() {
//!         done = Some(resp);
//!         break;
//!     }
//! }
//! assert_eq!(done.unwrap().id, 1);
//! ```

#![forbid(unsafe_code)]

mod channel;
mod clock;
mod idmap;
pub mod json;
pub mod snap;
mod storage;
pub mod text;
mod worklist;

pub use channel::{DramRequest, DramResponse, Hbm2Channel, Hbm2Config, Hbm2Stats};
pub use clock::ClockDivider;
pub use idmap::IdMap;
pub use snap::{Snap, SnapError, SnapReader, SnapState, SnapWriter};
pub use storage::Dram;
pub use worklist::WorkSet;

/// 128-bit FNV-1a over `bytes`: the checkpoint trailer, and (as 32 hex
/// digits) every job hash and store key.
pub fn fnv1a128(bytes: &[u8]) -> u128 {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut h = OFFSET;
    for &b in bytes {
        h ^= u128::from(b);
        h = h.wrapping_mul(PRIME);
    }
    h
}
