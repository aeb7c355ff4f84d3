//! Last-level cache banks for HammerBlade-RS.
//!
//! HammerBlade's cache hierarchy is flat: independent cache banks embedded
//! in the tile array are the last level before DRAM, each mapped to an
//! exclusive slice of the address space (so there is no coherence problem by
//! construction). The banks implement the paper's key policies:
//!
//! - **Write-validate** (Jouppi): write misses allocate a line *without*
//!   fetching it from DRAM, tracking per-byte validity — eliminating
//!   unnecessary DRAM reads for kernels that write results in large blocks.
//! - **Non-blocking** operation with consolidated MSHRs: primary and
//!   secondary misses drain out of the network so later hits can proceed.
//! - **Remote atomics**: AMOs execute at the bank, providing chip-wide
//!   synchronization without coherence hardware.
//!
//! Both policies have ablation knobs ([`CacheConfig::write_validate`],
//! [`CacheConfig::blocking`]) used by the paper's Figure 10 study.
//!
//! # Examples
//!
//! ```
//! use hb_cache::{AccessKind, CacheBank, CacheConfig, CacheRequest};
//!
//! let mut bank = CacheBank::new(CacheConfig::default());
//! // A store miss under write-validate completes without DRAM traffic.
//! bank.try_accept(CacheRequest {
//!     id: 1,
//!     addr: 0x80,
//!     kind: AccessKind::Store,
//!     data: 0xdead_beef,
//!     width: 4,
//! });
//! for _ in 0..4 {
//!     bank.tick();
//! }
//! assert!(bank.pop_response().is_some());
//! assert!(bank.pop_mem_request().is_none());
//! ```

#![forbid(unsafe_code)]

mod bank;

pub use bank::{
    amo_op, AccessKind, CacheBank, CacheConfig, CacheRequest, CacheResponse, CacheStats,
    LineRequest, LineRequestKind, Stall,
};
