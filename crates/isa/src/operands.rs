//! Which registers an instruction reads and writes: the one statement of
//! it, which the tile's scoreboard and the linter's dataflow both read.

use crate::instr::{FpOp, Instr};
use crate::reg::{Fpr, Gpr};
use std::fmt;
use std::num::NonZeroU8;

/// A register of either file as one index: `x1`–`x31` are 1–31 and
/// `f0`–`f31` are 32–63, so a table over both files is one 64-entry array,
/// integer half first, and a set of registers is one `u64` mask. `x0` has
/// no index: it reads as zero and drops writes, so it is never an operand.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(NonZeroU8);

impl Reg {
    /// Entries in a table indexed by [`Reg::index`] (slot 0 is unused).
    pub const COUNT: usize = 64;

    /// An integer register; `None` for `x0`.
    #[inline]
    pub fn gpr(r: Gpr) -> Option<Reg> {
        NonZeroU8::new(r.index()).map(Reg)
    }

    /// A floating-point register.
    #[inline]
    pub fn fpr(r: Fpr) -> Reg {
        Reg(NonZeroU8::new(32 + r.index()).expect("an FP index is at least 32"))
    }

    /// The table index, below [`Reg::COUNT`].
    #[inline]
    pub fn index(self) -> usize {
        usize::from(self.0.get())
    }

    /// This register's bit in a register mask.
    #[inline]
    pub fn bit(self) -> u64 {
        1 << self.0.get()
    }

    /// The registers of a mask of [`Reg::bit`]s, lowest index first.
    pub fn in_mask(mask: u64) -> impl Iterator<Item = Reg> {
        let mut rest = mask & !1;
        std::iter::from_fn(move || {
            let i = NonZeroU8::new(rest.trailing_zeros() as u8).filter(|_| rest != 0)?;
            rest &= rest - 1;
            Some(Reg(i))
        })
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.get() {
            i @ 1..=31 => Gpr::from_index(i).fmt(f),
            i => Fpr::from_index(i - 32).fmt(f),
        }
    }
}

/// The registers one instruction names, `x0` left out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Operands {
    /// The registers read, in operand order (rs1, rs2, rs3); `None` for a
    /// field the instruction has no register in, does not read, or fills
    /// with `x0`.
    pub srcs: [Option<Reg>; 3],
    /// The register written.
    pub dst: Option<Reg>,
}

impl Operands {
    /// The sources as a register mask.
    pub fn uses(&self) -> u64 {
        self.srcs.iter().flatten().fold(0, |m, r| m | r.bit())
    }

    /// The destination as a register mask.
    pub fn defs(&self) -> u64 {
        self.dst.map_or(0, Reg::bit)
    }
}

impl Instr {
    /// The registers this instruction reads and writes.
    #[inline]
    pub fn operands(&self) -> Operands {
        let g = Reg::gpr;
        let f = |r| Some(Reg::fpr(r));
        let (dst, srcs) = match *self {
            Instr::Lui { rd, .. } | Instr::Auipc { rd, .. } | Instr::Jal { rd, .. } => {
                (g(rd), [None; 3])
            }
            Instr::Jalr { rd, rs1, .. }
            | Instr::Load { rd, rs1, .. }
            | Instr::OpImm { rd, rs1, .. }
            | Instr::LrW { rd, rs1, .. } => (g(rd), [g(rs1), None, None]),
            Instr::Branch { rs1, rs2, .. } | Instr::Store { rs1, rs2, .. } => {
                (None, [g(rs1), g(rs2), None])
            }
            Instr::Op { rd, rs1, rs2, .. }
            | Instr::Amo { rd, rs1, rs2, .. }
            | Instr::ScW { rd, rs1, rs2, .. } => (g(rd), [g(rs1), g(rs2), None]),
            Instr::Fence | Instr::Ecall | Instr::Ebreak => (None, [None; 3]),
            Instr::Flw { rd, rs1, .. } => (f(rd), [g(rs1), None, None]),
            Instr::Fsw { rs1, rs2, .. } => (None, [g(rs1), f(rs2), None]),
            // `fsqrt.s` encodes rs2 as zero and does not read it.
            Instr::FpOp {
                op: FpOp::Sqrt,
                rd,
                rs1,
                ..
            } => (f(rd), [f(rs1), None, None]),
            Instr::FpOp { rd, rs1, rs2, .. } => (f(rd), [f(rs1), f(rs2), None]),
            Instr::Fma {
                rd, rs1, rs2, rs3, ..
            } => (f(rd), [f(rs1), f(rs2), f(rs3)]),
            Instr::FpCmp { rd, rs1, rs2, .. } => (g(rd), [f(rs1), f(rs2), None]),
            Instr::FcvtWS { rd, rs1 } | Instr::FcvtWuS { rd, rs1 } | Instr::FmvXW { rd, rs1 } => {
                (g(rd), [f(rs1), None, None])
            }
            Instr::FcvtSW { rd, rs1 } | Instr::FcvtSWu { rd, rs1 } | Instr::FmvWX { rd, rs1 } => {
                (f(rd), [g(rs1), None, None])
            }
        };
        Operands { srcs, dst }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_two_files_share_one_index_space_without_x0() {
        assert_eq!(Reg::gpr(Gpr::Zero), None);
        let all: Vec<Reg> = Gpr::ALL[1..]
            .iter()
            .map(|&r| Reg::gpr(r).unwrap())
            .chain(Fpr::ALL.map(Reg::fpr))
            .collect();
        assert_eq!(
            all.iter().map(|r| r.index()).collect::<Vec<_>>(),
            (1..64).collect::<Vec<_>>()
        );
        let names: Vec<String> = all.iter().map(Reg::to_string).collect();
        assert_eq!(
            (names[0].as_str(), names[30].as_str(), names[31].as_str()),
            ("ra", "t6", "ft0")
        );
        assert_eq!(Reg::in_mask(u64::MAX).collect::<Vec<_>>(), all);
        assert_eq!(Reg::in_mask(1).count(), 0);
        assert_eq!(
            Reg::in_mask(Reg::fpr(Fpr::Fa1).bit()).collect::<Vec<_>>(),
            [Reg::fpr(Fpr::Fa1)]
        );
    }
}
