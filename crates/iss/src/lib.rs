//! `hb-iss` — a fast functional RV32IMAF instruction-set simulator.
//!
//! This is the repo's *golden model*: an architectural interpreter over the
//! same [`hb_isa`] decoder and operation semantics the cycle-level tile
//! uses, but with no pipeline, network, cache or timing state. It fills
//! three roles (see DESIGN.md §hb-iss):
//!
//! 1. **Oracle** — lockstep co-simulation retires the cycle-level tile
//!    against [`Hart`] instruction-by-instruction and reports the first
//!    architectural divergence.
//! 2. **Fast path** — `Machine::warmup_functional` in `hb-core` executes
//!    kernel init phases here (two to three orders of magnitude faster than
//!    cycle simulation, rvr-style) and injects the resulting state into
//!    tiles.
//! 3. **Fuzz reference** — [`fuzz::gen_sequence`] generates deterministic
//!    seeded legal instruction sequences run on both models.
//!
//! The interpreter core is allocation-free: [`Hart::step`] touches only the
//! register arrays and the pluggable [`Bus`]; the default [`SparseMem`] bus
//! allocates 4 KiB pages only on first write to a page.
//!
//! Memory is *pluggable*: the ISS does not know HammerBlade's PGAS layout.
//! `hb-core` provides a bus that translates EVAs exactly like a tile does
//! (SPM, CSRs, group SPM, DRAM); the plain [`SparseMem`] treats addresses
//! as one flat 32-bit space, which is what standalone interpreter runs and
//! unit tests want.

#![forbid(unsafe_code)]

pub mod fuzz;
mod hart;
mod mem;

pub use hart::{Hart, IssFault, IssStats, Step, StopReason};
pub use mem::{Bus, SparseMem, StoreEffect, PAGE_BYTES};
