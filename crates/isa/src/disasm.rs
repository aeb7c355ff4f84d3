//! Disassembly: `Display` implementations producing standard RISC-V syntax.
//! An op of a table family prints its row's mnemonic.

use crate::instr::*;
use std::fmt;

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Lui { rd, imm } => write!(f, "lui {rd}, {:#x}", imm & 0xfffff),
            Instr::Auipc { rd, imm } => write!(f, "auipc {rd}, {:#x}", imm & 0xfffff),
            Instr::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Instr::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => write!(f, "{} {rs1}, {rs2}, {offset}", op.mnemonic()),
            Instr::Load {
                width,
                rd,
                rs1,
                offset,
            } => write!(f, "{} {rd}, {offset}({rs1})", width.mnemonic()),
            Instr::Store {
                width,
                rs1,
                rs2,
                offset,
            } => write!(f, "{} {rs2}, {offset}({rs1})", width.mnemonic()),
            Instr::OpImm { op, rd, rs1, imm } => write!(f, "{} {rd}, {rs1}, {imm}", op.mnemonic()),
            Instr::Op { op, rd, rs1, rs2 } => write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic()),
            Instr::Fence => f.write_str("fence"),
            Instr::Ecall => f.write_str("ecall"),
            Instr::Ebreak => f.write_str("ebreak"),
            Instr::Amo {
                op,
                rd,
                rs1,
                rs2,
                aq,
                rl,
            } => write!(f, "{}{} {rd}, {rs2}, ({rs1})", op.mnemonic(), aqrl(aq, rl)),
            Instr::LrW { rd, rs1, aq, rl } => write!(f, "lr.w{} {rd}, ({rs1})", aqrl(aq, rl)),
            Instr::ScW {
                rd,
                rs1,
                rs2,
                aq,
                rl,
            } => write!(f, "sc.w{} {rd}, {rs2}, ({rs1})", aqrl(aq, rl)),
            Instr::Flw { rd, rs1, offset } => write!(f, "flw {rd}, {offset}({rs1})"),
            Instr::Fsw { rs1, rs2, offset } => write!(f, "fsw {rs2}, {offset}({rs1})"),
            Instr::FpOp {
                op: FpOp::Sqrt,
                rd,
                rs1,
                ..
            } => write!(f, "{} {rd}, {rs1}", FpOp::Sqrt.mnemonic()),
            Instr::FpOp { op, rd, rs1, rs2 } => write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic()),
            Instr::Fma {
                op,
                rd,
                rs1,
                rs2,
                rs3,
            } => write!(f, "{} {rd}, {rs1}, {rs2}, {rs3}", op.mnemonic()),
            Instr::FpCmp { op, rd, rs1, rs2 } => write!(f, "{} {rd}, {rs1}, {rs2}", op.mnemonic()),
            Instr::FcvtWS { rd, rs1 } => write!(f, "fcvt.w.s {rd}, {rs1}"),
            Instr::FcvtWuS { rd, rs1 } => write!(f, "fcvt.wu.s {rd}, {rs1}"),
            Instr::FcvtSW { rd, rs1 } => write!(f, "fcvt.s.w {rd}, {rs1}"),
            Instr::FcvtSWu { rd, rs1 } => write!(f, "fcvt.s.wu {rd}, {rs1}"),
            Instr::FmvXW { rd, rs1 } => write!(f, "fmv.x.w {rd}, {rs1}"),
            Instr::FmvWX { rd, rs1 } => write!(f, "fmv.w.x {rd}, {rs1}"),
        }
    }
}

fn aqrl(aq: bool, rl: bool) -> &'static str {
    match (aq, rl) {
        (false, false) => "",
        (true, false) => ".aq",
        (false, true) => ".rl",
        (true, true) => ".aqrl",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::{Fpr::*, Gpr::*};

    #[test]
    fn disasm_formats() {
        let i = Instr::Op {
            op: OpOp::Add,
            rd: A0,
            rs1: A1,
            rs2: A2,
        };
        assert_eq!(i.to_string(), "add a0, a1, a2");
        let i = Instr::Load {
            width: LoadWidth::W,
            rd: T0,
            rs1: Sp,
            offset: -4,
        };
        assert_eq!(i.to_string(), "lw t0, -4(sp)");
        let i = Instr::Fma {
            op: FmaOp::Madd,
            rd: Fa0,
            rs1: Fa1,
            rs2: Fa2,
            rs3: Fa3,
        };
        assert_eq!(i.to_string(), "fmadd.s fa0, fa1, fa2, fa3");
        let i = Instr::Amo {
            op: AmoOp::Add,
            rd: A0,
            rs1: A2,
            rs2: A1,
            aq: true,
            rl: true,
        };
        assert_eq!(i.to_string(), "amoadd.w.aqrl a0, a1, (a2)");
    }
}
