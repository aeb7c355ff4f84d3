//! On-chip networks for HammerBlade-RS.
//!
//! HammerBlade's NoC design is deliberately minimal: all core traffic rides
//! two physically separate *Half-Ruche* networks (one for requests with X→Y
//! dimension-ordered routing, one for responses with Y→X), every RISC-V
//! remote memory operation is a **single-flit packet**, tiles synchronize on
//! a 1-bit barrier network with the same Ruche topology, and cache banks
//! refill/evict over dedicated 1-D wormhole strip channels.
//!
//! This crate models all four:
//!
//! - [`Network`] — a cycle-level 2-D mesh optionally augmented with
//!   horizontal Ruche links ([`RucheFactor`]), with per-link utilization and
//!   bisection statistics (paper Figures 3 and 14).
//! - [`BarrierNetwork`] — the reconfigurable 1-bit HW barrier (Figure 4).
//! - [`StripChannel`] — the 1-D refill/evict channel along a cache-bank
//!   strip with skip links.
//!
//! # Examples
//!
//! ```
//! use hb_noc::{Coord, Network, NetworkConfig, Packet, RouteOrder};
//!
//! let mut net: Network<u32> = Network::new(NetworkConfig {
//!     width: 4,
//!     height: 4,
//!     ruche_factor: 0,
//!     order: RouteOrder::XThenY,
//!     fifo_depth: 2,
//!     link_occupancy: 1,
//! });
//! let src = Coord::new(0, 0);
//! let dst = Coord::new(3, 3);
//! net.inject(src, Packet { src, dst, payload: 42 });
//! let mut got = None;
//! for _ in 0..32 {
//!     net.tick();
//!     if let Some(p) = net.eject(dst) {
//!         got = Some(p);
//!         break;
//!     }
//! }
//! assert_eq!(got.unwrap().payload, 42);
//! ```

#![forbid(unsafe_code)]

mod barrier;
mod net;
mod strip;

pub use barrier::{BarrierConfig, BarrierNetwork, Dir};
pub use net::{
    Coord, LinkStats, Network, NetworkConfig, NetworkStats, Packet, Port, RetransmitEvent,
    RouteOrder, TickWork, MAX_FIFO_DEPTH, RETRY_PENALTY,
};
pub use strip::{StripChannel, StripConfig, StripStats, StripTransfer};

/// Ruche factor: how many tiles a horizontal Ruche link skips.
///
/// HammerBlade uses factor 3, which boosts peak bisection bandwidth 4× over
/// a plain 2-D mesh. Factor 0 means no Ruche links (plain mesh).
pub type RucheFactor = u8;
