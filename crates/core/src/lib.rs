//! The HammerBlade Cellular Manycore simulator — the paper's primary
//! contribution, in Rust.
//!
//! A [`Machine`] is a set of [`Cell`]s: each Cell is a 2-D array of
//! [`Tile`]s (area-optimized RV32IMAF cores with scratchpads and icaches)
//! and two strips of last-level cache banks, all interconnected by two
//! Half-Ruche networks (requests X→Y, responses Y→X), a 1-bit hardware
//! barrier network and per-strip refill channels, backed by one HBM2
//! pseudo-channel per Cell.
//!
//! Kernels are RV32IMAF programs (built with [`hb_asm`]) executing in the
//! PGAS of [`pgas`]; the host API loads data into Cell DRAM, launches tile
//! groups and runs the cycle-level simulation to completion.
//!
//! # Examples
//!
//! A minimal kernel that writes its tile rank into DRAM:
//!
//! ```
//! use hb_asm::Assembler;
//! use hb_core::{pgas, CellDim, HbOps, Machine, MachineConfig};
//! use hb_isa::Gpr::*;
//!
//! // Keep the example fast: a 4x2 Cell.
//! let mut cfg = MachineConfig::baseline_16x8();
//! cfg.cell_dim = CellDim { x: 4, y: 2 };
//! let mut machine = Machine::new(cfg);
//!
//! // out[rank] = rank
//! let mut a = Assembler::new();
//! a.tg_rank(T0, T6); // t0 = rank
//! a.mv(A0, A0); // a0 = out pointer (launch argument)
//! a.slli(T1, T0, 2);
//! a.add(A0, A0, T1);
//! a.sw(T0, A0, 0);
//! a.fence();
//! a.ecall();
//! let program = std::sync::Arc::new(a.assemble(0)?);
//!
//! let out = machine.cell_mut(0).alloc(8 * 4, 64);
//! machine.launch(0, &program, &[pgas::local_dram(out)]);
//! machine.run(100_000).expect("kernel runs");
//! machine.cell_mut(0).flush_caches();
//! let results = machine.cell(0).dram().read_u32_slice(out, 8);
//! assert_eq!(results, (0..8).collect::<Vec<u32>>());
//! # Ok::<(), hb_asm::AsmError>(())
//! ```

#![forbid(unsafe_code)]

mod banknode;
mod cell;
mod config;
pub mod cosim;
pub mod diag;
pub mod func;
pub mod gprof;
mod icache;
mod kernel_util;
mod machine;
mod multicell;
pub mod observe;
mod payload;
pub mod pgas;
mod phase;
pub mod profile;
pub mod race;
mod sched;
mod stats;
mod tile;

pub use cell::{Cell, CellWork, GroupSpec, EJECT_PER_CYCLE};
pub use config::{CellDim, ConfigError, MachineConfig};
pub use cosim::{CosimChecker, CosimError, CosimReport, Divergence};
pub use diag::{FaultInfo, HangClass, HangReport};
pub use func::{FuncBus, IssTile, TileCtx, WarmupReport};
pub use gprof::{GuestProfile, PhaseProfile, UNMARKED};
pub use icache::ICache;
pub use kernel_util::HbOps;
pub use machine::{Machine, RunSummary, SimError};
pub use multicell::MultiCellEstimator;
pub use observe::{
    set_observer_factory, InjectKind, MachineObserver, ObsEvent, ObsKind, ObserverScope,
};
pub use payload::{NodeId, ReqKind, Request, RespKind, Response};
pub use pgas::{ipoly_hash, PgasMap, Target};
pub use phase::PhaseTimes;
pub use race::{AccessInfo, AccessKind, RaceChecker, RaceLoc, RaceReport};
pub use sched::Park;
pub use stats::{utilization_report, CoreStats, StallKind};
pub use tile::{GroupInfo, Tile};
