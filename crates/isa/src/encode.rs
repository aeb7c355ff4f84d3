//! Binary encoding of [`Instr`] into 32-bit RV32 machine words.

use crate::instr::*;
use crate::reg::Gpr;

// Major opcodes (bits [6:0]).
pub(crate) const OPC_LUI: u32 = 0b011_0111;
pub(crate) const OPC_AUIPC: u32 = 0b001_0111;
pub(crate) const OPC_JAL: u32 = 0b110_1111;
pub(crate) const OPC_JALR: u32 = 0b110_0111;
pub(crate) const OPC_BRANCH: u32 = 0b110_0011;
pub(crate) const OPC_LOAD: u32 = 0b000_0011;
pub(crate) const OPC_STORE: u32 = 0b010_0011;
pub(crate) const OPC_OP_IMM: u32 = 0b001_0011;
pub(crate) const OPC_OP: u32 = 0b011_0011;
pub(crate) const OPC_MISC_MEM: u32 = 0b000_1111;
pub(crate) const OPC_SYSTEM: u32 = 0b111_0011;
pub(crate) const OPC_AMO: u32 = 0b010_1111;
pub(crate) const OPC_LOAD_FP: u32 = 0b000_0111;
pub(crate) const OPC_STORE_FP: u32 = 0b010_0111;
pub(crate) const OPC_OP_FP: u32 = 0b101_0011;

// funct5 of `lr.w`/`sc.w` within `AMO`; funct7 of the `OP-FP` forms that
// are not an [`FpOp`].
pub(crate) const F5_LR: u32 = 0b00010;
pub(crate) const F5_SC: u32 = 0b00011;
pub(crate) const F7_FCMP: u32 = 0b101_0000;
pub(crate) const F7_FCVT_W_S: u32 = 0b110_0000;
pub(crate) const F7_FCVT_S_W: u32 = 0b110_1000;
pub(crate) const F7_FMV_X_W: u32 = 0b111_0000;
pub(crate) const F7_FMV_W_X: u32 = 0b111_1000;

fn rd_bits(r: u8) -> u32 {
    (r as u32) << 7
}
fn rs1_bits(r: u8) -> u32 {
    (r as u32) << 15
}
fn rs2_bits(r: u8) -> u32 {
    (r as u32) << 20
}
fn funct3(f: u32) -> u32 {
    f << 12
}
fn funct7(f: u32) -> u32 {
    f << 25
}

/// The rounding-mode field for round to nearest, ties to even.
const RNE: u32 = 0b000;

fn r_type(opc: u32, f7: u32, f3: u32, d: u8, s1: u8, s2: u8) -> u32 {
    opc | rd_bits(d) | funct3(f3) | rs1_bits(s1) | rs2_bits(s2) | funct7(f7)
}

fn i_type(opc: u32, f3: u32, d: u8, s1: u8, imm: i32) -> u32 {
    debug_assert!(
        (-2048..2048).contains(&imm),
        "I-type imm out of range: {imm}"
    );
    opc | rd_bits(d) | funct3(f3) | rs1_bits(s1) | (((imm as u32) & 0xfff) << 20)
}

fn s_type(opc: u32, f3: u32, s1: u8, s2: u8, imm: i32) -> u32 {
    debug_assert!(
        (-2048..2048).contains(&imm),
        "S-type imm out of range: {imm}"
    );
    let imm = imm as u32;
    opc | funct3(f3)
        | rs1_bits(s1)
        | rs2_bits(s2)
        | ((imm & 0x1f) << 7)
        | (((imm >> 5) & 0x7f) << 25)
}

fn b_type(opc: u32, f3: u32, s1: u8, s2: u8, offset: i32) -> u32 {
    debug_assert!(
        (-4096..4096).contains(&offset) && offset % 2 == 0,
        "B-type offset out of range or misaligned: {offset}"
    );
    let imm = offset as u32;
    opc | funct3(f3)
        | rs1_bits(s1)
        | rs2_bits(s2)
        | (((imm >> 11) & 1) << 7)
        | (((imm >> 1) & 0xf) << 8)
        | (((imm >> 5) & 0x3f) << 25)
        | (((imm >> 12) & 1) << 31)
}

fn u_type(opc: u32, d: u8, imm: i32) -> u32 {
    debug_assert!(
        (-(1 << 19)..(1 << 19)).contains(&imm),
        "U-type imm out of range: {imm}"
    );
    opc | rd_bits(d) | (((imm as u32) & 0xf_ffff) << 12)
}

fn j_type(opc: u32, d: u8, offset: i32) -> u32 {
    debug_assert!(
        (-(1 << 20)..(1 << 20)).contains(&offset) && offset % 2 == 0,
        "J-type offset out of range or misaligned: {offset}"
    );
    let imm = offset as u32;
    opc | rd_bits(d)
        | (((imm >> 12) & 0xff) << 12)
        | (((imm >> 11) & 1) << 20)
        | (((imm >> 1) & 0x3ff) << 21)
        | (((imm >> 20) & 1) << 31)
}

fn op_fp(f7: u32, f3: u32, d: u8, s1: u8, s2: u8) -> u32 {
    r_type(OPC_OP_FP, f7, f3, d, s1, s2)
}

fn amo(f5: u32, aq: bool, rl: bool, rd: Gpr, rs1: Gpr, rs2: Gpr) -> u32 {
    let f7 = (f5 << 2) | (u32::from(aq) << 1) | u32::from(rl);
    r_type(OPC_AMO, f7, 0b010, rd.index(), rs1.index(), rs2.index())
}

impl Instr {
    /// Encodes this instruction into its 32-bit RV32 machine word.
    ///
    /// Floating-point arithmetic is encoded with the RNE rounding mode
    /// (`rm = 0b000`), the only mode the simulated core implements.
    ///
    /// # Panics
    ///
    /// Debug builds assert that immediates and offsets fit their encoding
    /// fields; release builds silently truncate out-of-range values, so the
    /// assembler validates ranges before calling this.
    pub fn encode(&self) -> u32 {
        match *self {
            Instr::Lui { rd, imm } => u_type(OPC_LUI, rd.index(), imm),
            Instr::Auipc { rd, imm } => u_type(OPC_AUIPC, rd.index(), imm),
            Instr::Jal { rd, offset } => j_type(OPC_JAL, rd.index(), offset),
            Instr::Jalr { rd, rs1, offset } => {
                i_type(OPC_JALR, 0b000, rd.index(), rs1.index(), offset)
            }
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => b_type(OPC_BRANCH, op.funct3(), rs1.index(), rs2.index(), offset),
            Instr::Load {
                width,
                rd,
                rs1,
                offset,
            } => i_type(OPC_LOAD, width.funct3(), rd.index(), rs1.index(), offset),
            Instr::Store {
                width,
                rs1,
                rs2,
                offset,
            } => s_type(OPC_STORE, width.funct3(), rs1.index(), rs2.index(), offset),
            Instr::OpImm { op, rd, rs1, imm } => {
                let imm = if op.is_shift() {
                    debug_assert!((0..32).contains(&imm), "shift amount out of range: {imm}");
                    (imm & 0x1f) | (op.funct7() << 5) as i32
                } else {
                    imm
                };
                i_type(OPC_OP_IMM, op.funct3(), rd.index(), rs1.index(), imm)
            }
            Instr::Op { op, rd, rs1, rs2 } => r_type(
                OPC_OP,
                op.funct7(),
                op.funct3(),
                rd.index(),
                rs1.index(),
                rs2.index(),
            ),
            Instr::Fence => OPC_MISC_MEM | (0b0000_1111_1111 << 20),
            Instr::Ecall => OPC_SYSTEM,
            Instr::Ebreak => OPC_SYSTEM | (1 << 20),
            Instr::Amo {
                op,
                rd,
                rs1,
                rs2,
                aq,
                rl,
            } => amo(op.funct5(), aq, rl, rd, rs1, rs2),
            Instr::LrW { rd, rs1, aq, rl } => amo(F5_LR, aq, rl, rd, rs1, Gpr::Zero),
            Instr::ScW {
                rd,
                rs1,
                rs2,
                aq,
                rl,
            } => amo(F5_SC, aq, rl, rd, rs1, rs2),
            Instr::Flw { rd, rs1, offset } => {
                i_type(OPC_LOAD_FP, 0b010, rd.index(), rs1.index(), offset)
            }
            Instr::Fsw { rs1, rs2, offset } => {
                s_type(OPC_STORE_FP, 0b010, rs1.index(), rs2.index(), offset)
            }
            Instr::FpOp { op, rd, rs1, rs2 } => {
                let rs2 = if op == FpOp::Sqrt { 0 } else { rs2.index() };
                let f3 = op.funct3().unwrap_or(RNE);
                op_fp(op.funct7(), f3, rd.index(), rs1.index(), rs2)
            }
            Instr::Fma {
                op,
                rd,
                rs1,
                rs2,
                rs3,
            } => {
                op.opcode()
                    | rd_bits(rd.index())
                    | rs1_bits(rs1.index())
                    | rs2_bits(rs2.index())
                    | ((rs3.index() as u32) << 27)
            }
            Instr::FpCmp { op, rd, rs1, rs2 } => {
                op_fp(F7_FCMP, op.funct3(), rd.index(), rs1.index(), rs2.index())
            }
            Instr::FcvtWS { rd, rs1 } => op_fp(F7_FCVT_W_S, RNE, rd.index(), rs1.index(), 0),
            Instr::FcvtWuS { rd, rs1 } => op_fp(F7_FCVT_W_S, RNE, rd.index(), rs1.index(), 1),
            Instr::FcvtSW { rd, rs1 } => op_fp(F7_FCVT_S_W, RNE, rd.index(), rs1.index(), 0),
            Instr::FcvtSWu { rd, rs1 } => op_fp(F7_FCVT_S_W, RNE, rd.index(), rs1.index(), 1),
            Instr::FmvXW { rd, rs1 } => op_fp(F7_FMV_X_W, 0, rd.index(), rs1.index(), 0),
            Instr::FmvWX { rd, rs1 } => op_fp(F7_FMV_W_X, 0, rd.index(), rs1.index(), 0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Gpr::*;

    /// Golden encodings checked by hand against the RISC-V unprivileged spec.
    #[test]
    fn golden_encodings() {
        // addi x1, x2, 100  -> imm=100(0x064), rs1=2, f3=0, rd=1, opc=0x13
        let i = Instr::OpImm {
            op: OpImmOp::Addi,
            rd: Ra,
            rs1: Sp,
            imm: 100,
        };
        assert_eq!(i.encode(), 0x0641_0093);

        // add x3, x4, x5
        let i = Instr::Op {
            op: OpOp::Add,
            rd: Gp,
            rs1: Tp,
            rs2: T0,
        };
        assert_eq!(i.encode(), 0x0052_01b3);

        // lw x6, 8(x7)
        let i = Instr::Load {
            width: LoadWidth::W,
            rd: T1,
            rs1: T2,
            offset: 8,
        };
        assert_eq!(i.encode(), 0x0083_a303);

        // sw x8, -4(x9)
        let i = Instr::Store {
            width: StoreWidth::W,
            rs1: S1,
            rs2: S0,
            offset: -4,
        };
        assert_eq!(i.encode(), 0xfe84_ae23);

        // beq x10, x11, 16
        let i = Instr::Branch {
            op: BranchOp::Eq,
            rs1: A0,
            rs2: A1,
            offset: 16,
        };
        assert_eq!(i.encode(), 0x00b5_0863);

        // jal x1, 2048
        let i = Instr::Jal {
            rd: Ra,
            offset: 2048,
        };
        assert_eq!(i.encode(), 0x0010_00ef);

        // lui x5, 0x12345
        let i = Instr::Lui {
            rd: T0,
            imm: 0x12345,
        };
        assert_eq!(i.encode(), 0x1234_52b7);

        // ecall / ebreak
        assert_eq!(Instr::Ecall.encode(), 0x0000_0073);
        assert_eq!(Instr::Ebreak.encode(), 0x0010_0073);

        // amoadd.w x10, x11, (x12)
        let i = Instr::Amo {
            op: AmoOp::Add,
            rd: A0,
            rs1: A2,
            rs2: A1,
            aq: false,
            rl: false,
        };
        assert_eq!(i.encode(), 0x00b6_252f);

        // mul x5, x6, x7
        let i = Instr::Op {
            op: OpOp::Mul,
            rd: T0,
            rs1: T1,
            rs2: T2,
        };
        assert_eq!(i.encode(), 0x0273_02b3);
    }

    #[test]
    fn srai_sets_funct7() {
        let i = Instr::OpImm {
            op: OpImmOp::Srai,
            rd: A0,
            rs1: A0,
            imm: 3,
        };
        assert_eq!(i.encode() >> 25, 0b010_0000);
        let i = Instr::OpImm {
            op: OpImmOp::Srli,
            rd: A0,
            rs1: A0,
            imm: 3,
        };
        assert_eq!(i.encode() >> 25, 0);
    }

    #[test]
    fn negative_branch_offset() {
        let i = Instr::Branch {
            op: BranchOp::Ne,
            rs1: A0,
            rs2: Zero,
            offset: -8,
        };
        // imm[12]=1 (sign), so bit 31 must be set.
        assert_eq!(i.encode() >> 31, 1);
    }
}
