//! Decoding of 32-bit RV32 machine words into [`Instr`].

use crate::encode::*;
use crate::instr::*;
use crate::reg::{Fpr, Gpr};
use std::fmt;

/// Error returned by [`decode`] for words that are not valid RV32IMAF
/// instructions understood by the HammerBlade core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    /// The offending machine word.
    pub word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

fn rd(w: u32) -> Gpr {
    Gpr::from_index(((w >> 7) & 0x1f) as u8)
}
fn rs1(w: u32) -> Gpr {
    Gpr::from_index(((w >> 15) & 0x1f) as u8)
}
fn rs2(w: u32) -> Gpr {
    Gpr::from_index(((w >> 20) & 0x1f) as u8)
}
fn frd(w: u32) -> Fpr {
    Fpr::from_index(((w >> 7) & 0x1f) as u8)
}
fn frs1(w: u32) -> Fpr {
    Fpr::from_index(((w >> 15) & 0x1f) as u8)
}
fn frs2(w: u32) -> Fpr {
    Fpr::from_index(((w >> 20) & 0x1f) as u8)
}
fn frs3(w: u32) -> Fpr {
    Fpr::from_index(((w >> 27) & 0x1f) as u8)
}
fn funct3(w: u32) -> u32 {
    (w >> 12) & 0x7
}
fn funct7(w: u32) -> u32 {
    w >> 25
}

/// Sign-extends the low `bits` bits of `v`.
fn sext(v: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((v << shift) as i32) >> shift
}

fn imm_i(w: u32) -> i32 {
    sext(w >> 20, 12)
}

fn imm_s(w: u32) -> i32 {
    sext(((w >> 25) << 5) | ((w >> 7) & 0x1f), 12)
}

fn imm_b(w: u32) -> i32 {
    let imm = (((w >> 31) & 1) << 12)
        | (((w >> 7) & 1) << 11)
        | (((w >> 25) & 0x3f) << 5)
        | (((w >> 8) & 0xf) << 1);
    sext(imm, 13)
}

fn imm_u(w: u32) -> i32 {
    sext(w >> 12, 20)
}

fn imm_j(w: u32) -> i32 {
    let imm = (((w >> 31) & 1) << 20)
        | (((w >> 12) & 0xff) << 12)
        | (((w >> 20) & 1) << 11)
        | (((w >> 21) & 0x3ff) << 1);
    sext(imm, 21)
}

/// The op of a family table whose fields `word` holds.
fn find<T: Copy>(all: &[T], word: u32, fields: impl Fn(&T) -> bool) -> Result<T, DecodeError> {
    all.iter().copied().find(fields).ok_or(DecodeError { word })
}

/// Decodes a 32-bit machine word into an [`Instr`].
///
/// The decoder accepts any rounding-mode field on floating-point arithmetic
/// (the core always rounds to nearest even) but otherwise requires exact
/// RV32IMAF encodings.
///
/// # Errors
///
/// Returns [`DecodeError`] if the word is not a supported instruction.
///
/// # Examples
///
/// ```
/// use hb_isa::{decode, Gpr, Instr, OpImmOp};
///
/// // addi x1, x2, 100
/// let instr = decode(0x0641_0093)?;
/// assert_eq!(
///     instr,
///     Instr::OpImm { op: OpImmOp::Addi, rd: Gpr::Ra, rs1: Gpr::Sp, imm: 100 }
/// );
/// # Ok::<(), hb_isa::DecodeError>(())
/// ```
pub fn decode(word: u32) -> Result<Instr, DecodeError> {
    let err = Err(DecodeError { word });
    let opc = word & 0x7f;
    let instr = match opc {
        OPC_LUI => Instr::Lui {
            rd: rd(word),
            imm: imm_u(word),
        },
        OPC_AUIPC => Instr::Auipc {
            rd: rd(word),
            imm: imm_u(word),
        },
        OPC_JAL => Instr::Jal {
            rd: rd(word),
            offset: imm_j(word),
        },
        OPC_JALR if funct3(word) == 0 => Instr::Jalr {
            rd: rd(word),
            rs1: rs1(word),
            offset: imm_i(word),
        },
        OPC_BRANCH => {
            let f3 = funct3(word);
            let op = find(&BranchOp::ALL, word, |op| op.funct3() == f3)?;
            Instr::Branch {
                op,
                rs1: rs1(word),
                rs2: rs2(word),
                offset: imm_b(word),
            }
        }
        OPC_LOAD => {
            let f3 = funct3(word);
            let width = find(&LoadWidth::ALL, word, |wd| wd.funct3() == f3)?;
            Instr::Load {
                width,
                rd: rd(word),
                rs1: rs1(word),
                offset: imm_i(word),
            }
        }
        OPC_STORE => {
            let f3 = funct3(word);
            let width = find(&StoreWidth::ALL, word, |wd| wd.funct3() == f3)?;
            Instr::Store {
                width,
                rs1: rs1(word),
                rs2: rs2(word),
                offset: imm_s(word),
            }
        }
        OPC_OP_IMM => {
            // A shift's funct7 sits where the others keep immediate bits.
            let (f3, f7) = (funct3(word), funct7(word));
            let op = find(&OpImmOp::ALL, word, |op| {
                op.funct3() == f3 && (!op.is_shift() || op.funct7() == f7)
            })?;
            let imm = if op.is_shift() {
                ((word >> 20) & 0x1f) as i32
            } else {
                imm_i(word)
            };
            Instr::OpImm {
                op,
                rd: rd(word),
                rs1: rs1(word),
                imm,
            }
        }
        OPC_OP => {
            let (f3, f7) = (funct3(word), funct7(word));
            let op = find(&OpOp::ALL, word, |op| {
                op.funct3() == f3 && op.funct7() == f7
            })?;
            Instr::Op {
                op,
                rd: rd(word),
                rs1: rs1(word),
                rs2: rs2(word),
            }
        }
        OPC_MISC_MEM => Instr::Fence,
        OPC_SYSTEM => match word >> 20 {
            0 => Instr::Ecall,
            1 => Instr::Ebreak,
            _ => return err,
        },
        OPC_AMO if funct3(word) == 0b010 => {
            let f7 = funct7(word);
            let f5 = f7 >> 2;
            let aq = (f7 >> 1) & 1 == 1;
            let rl = f7 & 1 == 1;
            match f5 {
                F5_LR if rs2(word) == Gpr::Zero => Instr::LrW {
                    rd: rd(word),
                    rs1: rs1(word),
                    aq,
                    rl,
                },
                F5_SC => Instr::ScW {
                    rd: rd(word),
                    rs1: rs1(word),
                    rs2: rs2(word),
                    aq,
                    rl,
                },
                _ => {
                    let op = find(&AmoOp::ALL, word, |op| op.funct5() == f5)?;
                    Instr::Amo {
                        op,
                        rd: rd(word),
                        rs1: rs1(word),
                        rs2: rs2(word),
                        aq,
                        rl,
                    }
                }
            }
        }
        OPC_LOAD_FP if funct3(word) == 0b010 => Instr::Flw {
            rd: frd(word),
            rs1: rs1(word),
            offset: imm_i(word),
        },
        OPC_STORE_FP if funct3(word) == 0b010 => Instr::Fsw {
            rs1: rs1(word),
            rs2: frs2(word),
            offset: imm_s(word),
        },
        OPC_OP_FP => decode_op_fp(word)?,
        // Any other word is an FMA or an error.
        _ => {
            let op = find(&FmaOp::ALL, word, |op| op.opcode() == opc)?;
            if (word >> 25) & 0x3 != 0 {
                return err; // fmt must be S (single precision)
            }
            Instr::Fma {
                op,
                rd: frd(word),
                rs1: frs1(word),
                rs2: frs2(word),
                rs3: frs3(word),
            }
        }
    };
    Ok(instr)
}

fn decode_op_fp(word: u32) -> Result<Instr, DecodeError> {
    let err = Err(DecodeError { word });
    let (f7, f3) = (funct7(word), funct3(word));
    let rs2_field = (word >> 20) & 0x1f;
    // An arithmetic op whose funct3 is the rounding mode takes any mode.
    let arith = find(&FpOp::ALL, word, |op| {
        op.funct7() == f7 && op.funct3().is_none_or(|want| want == f3)
    });
    if let Ok(op) = arith {
        if op == FpOp::Sqrt && rs2_field != 0 {
            return err;
        }
        return Ok(Instr::FpOp {
            op,
            rd: frd(word),
            rs1: frs1(word),
            rs2: frs2(word),
        });
    }
    let instr = match (f7, rs2_field) {
        (F7_FCMP, _) => Instr::FpCmp {
            op: find(&FpCmp::ALL, word, |op| op.funct3() == f3)?,
            rd: rd(word),
            rs1: frs1(word),
            rs2: frs2(word),
        },
        (F7_FCVT_W_S, 0) => Instr::FcvtWS {
            rd: rd(word),
            rs1: frs1(word),
        },
        (F7_FCVT_W_S, 1) => Instr::FcvtWuS {
            rd: rd(word),
            rs1: frs1(word),
        },
        (F7_FCVT_S_W, 0) => Instr::FcvtSW {
            rd: frd(word),
            rs1: rs1(word),
        },
        (F7_FCVT_S_W, 1) => Instr::FcvtSWu {
            rd: frd(word),
            rs1: rs1(word),
        },
        (F7_FMV_X_W, 0) if f3 == 0 => Instr::FmvXW {
            rd: rd(word),
            rs1: frs1(word),
        },
        (F7_FMV_W_X, 0) if f3 == 0 => Instr::FmvWX {
            rd: frd(word),
            rs1: rs1(word),
        },
        _ => return err,
    };
    Ok(instr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reg::Gpr::*;

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode(0x0000_0000).is_err());
        assert!(decode(0xffff_ffff).is_err());
        // Unsupported opcode (custom-0).
        assert!(decode(0x0000_000b).is_err());
    }

    #[test]
    fn decode_negative_immediates() {
        // addi a0, a0, -1
        let i = Instr::OpImm {
            op: OpImmOp::Addi,
            rd: A0,
            rs1: A0,
            imm: -1,
        };
        assert_eq!(decode(i.encode()), Ok(i));
        // lw t0, -64(sp)
        let i = Instr::Load {
            width: LoadWidth::W,
            rd: T0,
            rs1: Sp,
            offset: -64,
        };
        assert_eq!(decode(i.encode()), Ok(i));
        // jal ra, -1048576 (minimum J offset)
        let i = Instr::Jal {
            rd: Ra,
            offset: -(1 << 20),
        };
        assert_eq!(decode(i.encode()), Ok(i));
        // beq with minimum B offset
        let i = Instr::Branch {
            op: BranchOp::Eq,
            rs1: A0,
            rs2: A1,
            offset: -4096,
        };
        assert_eq!(decode(i.encode()), Ok(i));
    }

    #[test]
    fn decode_fence_ecall() {
        assert_eq!(decode(Instr::Fence.encode()), Ok(Instr::Fence));
        assert_eq!(decode(0x0000_0073), Ok(Instr::Ecall));
        assert_eq!(decode(0x0010_0073), Ok(Instr::Ebreak));
    }

    #[test]
    fn decode_lr_sc() {
        let i = Instr::LrW {
            rd: A0,
            rs1: A1,
            aq: true,
            rl: false,
        };
        assert_eq!(decode(i.encode()), Ok(i));
        let i = Instr::ScW {
            rd: A0,
            rs1: A1,
            rs2: A2,
            aq: false,
            rl: true,
        };
        assert_eq!(decode(i.encode()), Ok(i));
    }
}
