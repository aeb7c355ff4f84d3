//! A small RV32IMAF assembler for building HammerBlade kernel programs.
//!
//! Kernels in the paper are written in C/C++ and compiled with the RISC-V
//! GNU/LLVM toolchain. That toolchain is not available here, so this crate
//! provides a programmatic assembler: Rust code emits instructions through a
//! builder API with labels, forward references and the common
//! pseudo-instructions, and [`Assembler::assemble`] produces a [`Program`]
//! image of genuine RV32 machine words that the simulated tiles fetch and
//! decode.
//!
//! # Examples
//!
//! A loop summing the integers `1..=10`:
//!
//! ```
//! use hb_asm::Assembler;
//! use hb_isa::Gpr::*;
//!
//! let mut a = Assembler::new();
//! let loop_top = a.new_label();
//! a.li(T0, 10); // counter
//! a.li(T1, 0); // accumulator
//! a.bind(loop_top);
//! a.add(T1, T1, T0);
//! a.addi(T0, T0, -1);
//! a.bnez(T0, loop_top);
//! a.ecall(); // tile finished
//! let program = a.assemble(0)?;
//! assert_eq!(program.len(), 6);
//! # Ok::<(), hb_asm::AsmError>(())
//! ```

#![forbid(unsafe_code)]

mod builder;
mod parse;
mod program;

pub use builder::{Assembler, Label};
pub use parse::{parse, parse_with_base, ParseError};
pub use program::Program;

use std::fmt;

/// Errors produced while resolving labels and encoding a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmError {
    /// A label was referenced but never bound with [`Assembler::bind`].
    UnboundLabel { label: usize },
    /// A label was bound twice.
    RedefinedLabel { label: usize },
    /// A resolved branch offset does not fit the ±4 KiB B-type range.
    BranchOutOfRange { at_instr: usize, offset: i64 },
    /// A resolved jump offset does not fit the ±1 MiB J-type range.
    JumpOutOfRange { at_instr: usize, offset: i64 },
    /// An immediate operand does not fit its encoding field.
    ImmOutOfRange { what: &'static str, value: i64 },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmError::UnboundLabel { label } => write!(f, "label L{label} was never bound"),
            AsmError::RedefinedLabel { label } => write!(f, "label L{label} bound twice"),
            AsmError::BranchOutOfRange { at_instr, offset } => {
                write!(
                    f,
                    "branch at instruction {at_instr} has offset {offset} outside +/-4 KiB"
                )
            }
            AsmError::JumpOutOfRange { at_instr, offset } => {
                write!(
                    f,
                    "jump at instruction {at_instr} has offset {offset} outside +/-1 MiB"
                )
            }
            AsmError::ImmOutOfRange { what, value } => {
                write!(f, "immediate {value} does not fit {what}")
            }
        }
    }
}

impl std::error::Error for AsmError {}
