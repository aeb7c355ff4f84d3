//! RV32IMAF instruction set support for the HammerBlade-RS simulator.
//!
//! HammerBlade tiles execute a 32-bit RISC-V ISA with the integer (`I`),
//! multiply/divide (`M`), atomic (`A`) and single-precision floating-point
//! (`F`) extensions. This crate provides:
//!
//! - typed register names ([`Gpr`], [`Fpr`]) with the standard ABI mnemonics,
//!   and one index over both files ([`Reg`]),
//! - a structured [`Instr`] enum covering every instruction the simulator
//!   executes,
//! - binary [`encode`](Instr::encode) / [`decode`] round-tripping the real
//!   RV32 encodings, so program images stored in simulated DRAM are genuine
//!   RISC-V machine code,
//! - a disassembler via [`Instr`]'s `Display` implementation,
//! - the registers each instruction reads and writes ([`Instr::operands`]).
//!
//! # Examples
//!
//! ```
//! use hb_isa::{decode, Gpr, Instr, OpOp};
//!
//! let add = Instr::Op { op: OpOp::Add, rd: Gpr::A0, rs1: Gpr::A1, rs2: Gpr::A2 };
//! let word = add.encode();
//! assert_eq!(decode(word), Ok(add));
//! assert_eq!(add.to_string(), "add a0, a1, a2");
//! ```

#![forbid(unsafe_code)]

mod decode;
mod disasm;
mod encode;
mod instr;
mod operands;
mod reg;

pub use decode::{decode, DecodeError};
pub use instr::{AmoOp, BranchOp, FmaOp, FpCmp, FpOp, Instr, LoadWidth, OpImmOp, OpOp, StoreWidth};
pub use operands::{Operands, Reg};
pub use reg::{Fpr, Gpr, ParseRegError};

/// Size of one instruction in bytes. RV32 instructions are fixed 32-bit.
pub const INSTR_BYTES: u32 = 4;
