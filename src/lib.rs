//! # HammerBlade-RS
//!
//! A cycle-level Rust reproduction of the HammerBlade open-source RISC-V
//! manycore (ISCA 2024). This facade crate re-exports the public API of the
//! workspace crates; see the README for an architecture overview and
//! `DESIGN.md` for the per-experiment index.
//!
//! The typical entry point is [`hb_core::Machine`]:
//!
//! ```
//! use hammerblade::core::{CellDim, MachineConfig};
//!
//! let config = MachineConfig::baseline_16x8();
//! assert_eq!(config.cell_dim, CellDim { x: 16, y: 8 });
//! ```

#![forbid(unsafe_code)]

/// Assembler with labels, relocation and pseudo-instructions.
pub use hb_asm as asm;
/// Non-blocking, write-validate last-level cache banks.
pub use hb_cache as cache;
/// Versioned, crash-safe machine checkpoints with deterministic replay.
pub use hb_ckpt as ckpt;
/// The HammerBlade tile, Cell and Machine: the paper's core contribution.
pub use hb_core as core;
/// Per-instruction energy model.
pub use hb_energy as energy;
/// Deterministic seeded fault injection plans and the AVF outcome
/// taxonomy (`hb-serve` fault campaigns classify against these).
pub use hb_fault as fault;
/// Hierarchical-manycore (ET-style) baseline model.
pub use hb_hier as hier;
/// RV32IMAF instruction set: encode/decode, registers, disassembly.
pub use hb_isa as isa;
/// Fast functional RV32IMAF golden model (ISS) for co-simulation,
/// fast-forward and differential fuzzing.
pub use hb_iss as iss;
/// The ten-benchmark parallel suite of Table I.
pub use hb_kernels as kernels;
/// HBM2 pseudo-channel DRAM timing model.
pub use hb_mem as mem;
/// On-chip networks: mesh, Ruche, barrier and refill channels.
pub use hb_noc as noc;
/// Cycle-windowed telemetry: sampler, Chrome-trace/NDJSON export, heatmaps.
pub use hb_obs as obs;
/// Deterministic guest-code profiler: basic-block stall attribution,
/// folded-stack (flamegraph) and `perf report`-style exports.
pub use hb_prof as prof;
/// Two-sided race checking: the static phase-conflict pass cross-validated
/// against the dynamic barrier-epoch sanitizer, plus the racy fixtures.
pub use hb_race as race;
/// Deterministic xoshiro256** PRNG used by tests and workload generators.
pub use hb_rng as rng;
/// Synthetic workload generators and golden reference kernels.
pub use hb_workloads as workloads;
