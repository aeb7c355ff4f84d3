//! The [`Assembler`] builder: instruction emitters, labels and pseudo-ops.

use crate::program::Program;
use crate::AsmError;
use hb_isa::{
    AmoOp, BranchOp, FmaOp, FpCmp, FpOp, Fpr, Gpr, Instr, LoadWidth, OpImmOp, OpOp, StoreWidth,
    INSTR_BYTES,
};

/// A code location that can be branched or jumped to.
///
/// Create with [`Assembler::new_label`], place with [`Assembler::bind`].
/// Labels may be referenced before they are bound (forward branches).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(pub(crate) usize);

/// One emitted item: either a finished instruction or one whose PC-relative
/// offset awaits label resolution.
#[derive(Debug, Clone, Copy)]
enum Item {
    Fixed(Instr),
    Branch {
        op: BranchOp,
        rs1: Gpr,
        rs2: Gpr,
        target: Label,
    },
    Jal {
        rd: Gpr,
        target: Label,
    },
}

/// Builder for RV32IMAF programs. See the [crate docs](crate) for an example.
///
/// All emit methods return `&mut Self` so instructions can be chained.
#[derive(Debug, Default)]
pub struct Assembler {
    items: Vec<Item>,
    /// label id -> instruction index it is bound to.
    labels: Vec<Option<usize>>,
    redefined: Option<usize>,
}

macro_rules! op_methods {
    ($($(#[$meta:meta])* $name:ident => $op:expr;)*) => {
        $(
            $(#[$meta])*
            pub fn $name(&mut self, rd: Gpr, rs1: Gpr, rs2: Gpr) -> &mut Self {
                self.emit(Instr::Op { op: $op, rd, rs1, rs2 })
            }
        )*
    };
}

macro_rules! op_imm_methods {
    ($($(#[$meta:meta])* $name:ident => $op:expr;)*) => {
        $(
            $(#[$meta])*
            pub fn $name(&mut self, rd: Gpr, rs1: Gpr, imm: i32) -> &mut Self {
                self.emit(Instr::OpImm { op: $op, rd, rs1, imm })
            }
        )*
    };
}

macro_rules! load_methods {
    ($($(#[$meta:meta])* $name:ident => $width:expr;)*) => {
        $(
            $(#[$meta])*
            pub fn $name(&mut self, rd: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
                self.emit(Instr::Load { width: $width, rd, rs1, offset })
            }
        )*
    };
}

macro_rules! store_methods {
    ($($(#[$meta:meta])* $name:ident => $width:expr;)*) => {
        $(
            $(#[$meta])*
            pub fn $name(&mut self, rs2: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
                self.emit(Instr::Store { width: $width, rs1, rs2, offset })
            }
        )*
    };
}

macro_rules! branch_methods {
    ($($(#[$meta:meta])* $name:ident => $op:expr;)*) => {
        $(
            $(#[$meta])*
            pub fn $name(&mut self, rs1: Gpr, rs2: Gpr, target: Label) -> &mut Self {
                self.branch($op, rs1, rs2, target)
            }
        )*
    };
}

macro_rules! amo_methods {
    ($($(#[$meta:meta])* $name:ident => $op:expr;)*) => {
        $(
            $(#[$meta])*
            /// Operand order follows assembly syntax: `rd, rs2, (rs1)`.
            pub fn $name(&mut self, rd: Gpr, rs2: Gpr, rs1: Gpr) -> &mut Self {
                self.emit(Instr::Amo { op: $op, rd, rs1, rs2, aq: false, rl: false })
            }
        )*
    };
}

macro_rules! fp_op_methods {
    ($($(#[$meta:meta])* $name:ident => $op:expr;)*) => {
        $(
            $(#[$meta])*
            pub fn $name(&mut self, rd: Fpr, rs1: Fpr, rs2: Fpr) -> &mut Self {
                self.emit(Instr::FpOp { op: $op, rd, rs1, rs2 })
            }
        )*
    };
}

macro_rules! fp_cmp_methods {
    ($($(#[$meta:meta])* $name:ident => $op:expr;)*) => {
        $(
            $(#[$meta])*
            pub fn $name(&mut self, rd: Gpr, rs1: Fpr, rs2: Fpr) -> &mut Self {
                self.emit(Instr::FpCmp { op: $op, rd, rs1, rs2 })
            }
        )*
    };
}

macro_rules! fma_methods {
    ($($(#[$meta:meta])* $name:ident => $op:expr;)*) => {
        $(
            $(#[$meta])*
            pub fn $name(&mut self, rd: Fpr, rs1: Fpr, rs2: Fpr, rs3: Fpr) -> &mut Self {
                self.emit(Instr::Fma { op: $op, rd, rs1, rs2, rs3 })
            }
        )*
    };
}

impl Assembler {
    /// Creates an empty assembler.
    pub fn new() -> Assembler {
        Assembler::default()
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no instructions have been emitted.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Emits an already-constructed [`Instr`].
    pub fn emit(&mut self, instr: Instr) -> &mut Self {
        self.items.push(Item::Fixed(instr));
        self
    }

    /// Allocates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the next emitted instruction.
    pub fn bind(&mut self, label: Label) -> &mut Self {
        if self.labels[label.0].is_some() {
            self.redefined.get_or_insert(label.0);
        }
        self.labels[label.0] = Some(self.items.len());
        self
    }

    /// Allocates and immediately binds a label (for backward branches).
    pub fn here(&mut self) -> Label {
        let l = self.new_label();
        self.bind(l);
        l
    }

    // ---- RV32I register-register and register-immediate ----

    op_methods! {
        /// `add rd, rs1, rs2`
        add => OpOp::Add;
        /// `sub rd, rs1, rs2`
        sub => OpOp::Sub;
        /// `sll rd, rs1, rs2`
        sll => OpOp::Sll;
        /// `slt rd, rs1, rs2`
        slt => OpOp::Slt;
        /// `sltu rd, rs1, rs2`
        sltu => OpOp::Sltu;
        /// `xor rd, rs1, rs2`
        xor => OpOp::Xor;
        /// `srl rd, rs1, rs2`
        srl => OpOp::Srl;
        /// `sra rd, rs1, rs2`
        sra => OpOp::Sra;
        /// `or rd, rs1, rs2`
        or => OpOp::Or;
        /// `and rd, rs1, rs2`
        and => OpOp::And;
        /// `mul rd, rs1, rs2` (M extension, 2-cycle latency on HB)
        mul => OpOp::Mul;
        /// `mulh rd, rs1, rs2`
        mulh => OpOp::Mulh;
        /// `mulhsu rd, rs1, rs2`
        mulhsu => OpOp::Mulhsu;
        /// `mulhu rd, rs1, rs2`
        mulhu => OpOp::Mulhu;
        /// `div rd, rs1, rs2` (iterative divider)
        div => OpOp::Div;
        /// `divu rd, rs1, rs2`
        divu => OpOp::Divu;
        /// `rem rd, rs1, rs2`
        rem => OpOp::Rem;
        /// `remu rd, rs1, rs2`
        remu => OpOp::Remu;
    }

    op_imm_methods! {
        /// `addi rd, rs1, imm`
        addi => OpImmOp::Addi;
        /// `slti rd, rs1, imm`
        slti => OpImmOp::Slti;
        /// `sltiu rd, rs1, imm`
        sltiu => OpImmOp::Sltiu;
        /// `xori rd, rs1, imm`
        xori => OpImmOp::Xori;
        /// `ori rd, rs1, imm`
        ori => OpImmOp::Ori;
        /// `andi rd, rs1, imm`
        andi => OpImmOp::Andi;
        /// `slli rd, rs1, shamt`
        slli => OpImmOp::Slli;
        /// `srli rd, rs1, shamt`
        srli => OpImmOp::Srli;
        /// `srai rd, rs1, shamt`
        srai => OpImmOp::Srai;
    }

    /// `lui rd, imm20`
    pub fn lui(&mut self, rd: Gpr, imm: i32) -> &mut Self {
        self.emit(Instr::Lui { rd, imm })
    }

    /// `auipc rd, imm20`
    pub fn auipc(&mut self, rd: Gpr, imm: i32) -> &mut Self {
        self.emit(Instr::Auipc { rd, imm })
    }

    // ---- Loads and stores ----

    load_methods! {
        /// `lw rd, offset(rs1)`
        lw => LoadWidth::W;
        /// `lh rd, offset(rs1)`
        lh => LoadWidth::H;
        /// `lhu rd, offset(rs1)`
        lhu => LoadWidth::Hu;
        /// `lb rd, offset(rs1)`
        lb => LoadWidth::B;
        /// `lbu rd, offset(rs1)`
        lbu => LoadWidth::Bu;
    }

    store_methods! {
        /// `sw rs2, offset(rs1)`
        sw => StoreWidth::W;
        /// `sh rs2, offset(rs1)`
        sh => StoreWidth::H;
        /// `sb rs2, offset(rs1)`
        sb => StoreWidth::B;
    }

    /// `flw rd, offset(rs1)`
    pub fn flw(&mut self, rd: Fpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.emit(Instr::Flw { rd, rs1, offset })
    }

    /// `fsw rs2, offset(rs1)`
    pub fn fsw(&mut self, rs2: Fpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.emit(Instr::Fsw { rs1, rs2, offset })
    }

    // ---- Control flow ----

    /// A branch of any op to `target`.
    pub(crate) fn branch(&mut self, op: BranchOp, rs1: Gpr, rs2: Gpr, target: Label) -> &mut Self {
        self.items.push(Item::Branch {
            op,
            rs1,
            rs2,
            target,
        });
        self
    }

    branch_methods! {
        /// `beq rs1, rs2, target`
        beq => BranchOp::Eq;
        /// `bne rs1, rs2, target`
        bne => BranchOp::Ne;
        /// `blt rs1, rs2, target`
        blt => BranchOp::Lt;
        /// `bge rs1, rs2, target`
        bge => BranchOp::Ge;
        /// `bltu rs1, rs2, target`
        bltu => BranchOp::Ltu;
        /// `bgeu rs1, rs2, target`
        bgeu => BranchOp::Geu;
    }

    /// `beqz rs1, target` — pseudo for `beq rs1, zero, target`.
    pub fn beqz(&mut self, rs1: Gpr, target: Label) -> &mut Self {
        self.beq(rs1, Gpr::Zero, target)
    }

    /// `bnez rs1, target` — pseudo for `bne rs1, zero, target`.
    pub fn bnez(&mut self, rs1: Gpr, target: Label) -> &mut Self {
        self.bne(rs1, Gpr::Zero, target)
    }

    /// `bgt rs1, rs2, target` — pseudo for `blt rs2, rs1, target`.
    pub fn bgt(&mut self, rs1: Gpr, rs2: Gpr, target: Label) -> &mut Self {
        self.blt(rs2, rs1, target)
    }

    /// `ble rs1, rs2, target` — pseudo for `bge rs2, rs1, target`.
    pub fn ble(&mut self, rs1: Gpr, rs2: Gpr, target: Label) -> &mut Self {
        self.bge(rs2, rs1, target)
    }

    /// `jal rd, target`
    pub fn jal(&mut self, rd: Gpr, target: Label) -> &mut Self {
        self.items.push(Item::Jal { rd, target });
        self
    }

    /// `j target` — pseudo for `jal zero, target`.
    pub fn j(&mut self, target: Label) -> &mut Self {
        self.jal(Gpr::Zero, target)
    }

    /// `call target` — pseudo for `jal ra, target`.
    pub fn call(&mut self, target: Label) -> &mut Self {
        self.jal(Gpr::Ra, target)
    }

    /// `jalr rd, offset(rs1)`
    pub fn jalr(&mut self, rd: Gpr, rs1: Gpr, offset: i32) -> &mut Self {
        self.emit(Instr::Jalr { rd, rs1, offset })
    }

    /// `ret` — pseudo for `jalr zero, 0(ra)`.
    pub fn ret(&mut self) -> &mut Self {
        self.jalr(Gpr::Zero, Gpr::Ra, 0)
    }

    // ---- System ----

    /// `nop`
    pub fn nop(&mut self) -> &mut Self {
        self.emit(Instr::NOP)
    }

    /// `fence` — drains the remote-request scoreboard on HB.
    pub fn fence(&mut self) -> &mut Self {
        self.emit(Instr::Fence)
    }

    /// `ecall` — signals "tile finished" to the HB simulator.
    pub fn ecall(&mut self) -> &mut Self {
        self.emit(Instr::Ecall)
    }

    /// `ebreak`
    pub fn ebreak(&mut self) -> &mut Self {
        self.emit(Instr::Ebreak)
    }

    // ---- Atomics ----

    amo_methods! {
        /// `amoswap.w rd, rs2, (rs1)`
        amoswap => AmoOp::Swap;
        /// `amoadd.w rd, rs2, (rs1)`
        amoadd => AmoOp::Add;
        /// `amoxor.w rd, rs2, (rs1)`
        amoxor => AmoOp::Xor;
        /// `amoand.w rd, rs2, (rs1)`
        amoand => AmoOp::And;
        /// `amoor.w rd, rs2, (rs1)`
        amoor => AmoOp::Or;
        /// `amomin.w rd, rs2, (rs1)`
        amomin => AmoOp::Min;
        /// `amomax.w rd, rs2, (rs1)`
        amomax => AmoOp::Max;
        /// `amominu.w rd, rs2, (rs1)`
        amominu => AmoOp::Minu;
        /// `amomaxu.w rd, rs2, (rs1)`
        amomaxu => AmoOp::Maxu;
    }

    // ---- Floating point ----

    fp_op_methods! {
        /// `fadd.s rd, rs1, rs2`
        fadd => FpOp::Add;
        /// `fsub.s rd, rs1, rs2`
        fsub => FpOp::Sub;
        /// `fmul.s rd, rs1, rs2`
        fmul => FpOp::Mul;
        /// `fdiv.s rd, rs1, rs2` (iterative unit)
        fdiv => FpOp::Div;
        /// `fsgnj.s rd, rs1, rs2`
        fsgnj => FpOp::Sgnj;
        /// `fsgnjn.s rd, rs1, rs2`
        fsgnjn => FpOp::Sgnjn;
        /// `fsgnjx.s rd, rs1, rs2`
        fsgnjx => FpOp::Sgnjx;
        /// `fmin.s rd, rs1, rs2`
        fmin => FpOp::Min;
        /// `fmax.s rd, rs1, rs2`
        fmax => FpOp::Max;
    }

    /// `fsqrt.s rd, rs1`
    pub fn fsqrt(&mut self, rd: Fpr, rs1: Fpr) -> &mut Self {
        self.emit(Instr::FpOp {
            op: FpOp::Sqrt,
            rd,
            rs1,
            rs2: Fpr::Ft0,
        })
    }

    /// `fmv.s rd, rs1` — pseudo for `fsgnj.s rd, rs1, rs1`.
    pub fn fmv(&mut self, rd: Fpr, rs1: Fpr) -> &mut Self {
        self.fsgnj(rd, rs1, rs1)
    }

    /// `fneg.s rd, rs1` — pseudo for `fsgnjn.s rd, rs1, rs1`.
    pub fn fneg(&mut self, rd: Fpr, rs1: Fpr) -> &mut Self {
        self.fsgnjn(rd, rs1, rs1)
    }

    /// `fabs.s rd, rs1` — pseudo for `fsgnjx.s rd, rs1, rs1`.
    pub fn fabs(&mut self, rd: Fpr, rs1: Fpr) -> &mut Self {
        self.fsgnjx(rd, rs1, rs1)
    }

    fma_methods! {
        /// `fmadd.s rd, rs1, rs2, rs3` — `rd = rs1*rs2 + rs3` (3-cycle fma)
        fmadd => FmaOp::Madd;
        /// `fmsub.s rd, rs1, rs2, rs3` — `rd = rs1*rs2 - rs3`
        fmsub => FmaOp::Msub;
        /// `fnmsub.s rd, rs1, rs2, rs3` — `rd = -(rs1*rs2) + rs3`
        fnmsub => FmaOp::Nmsub;
        /// `fnmadd.s rd, rs1, rs2, rs3` — `rd = -(rs1*rs2) - rs3`
        fnmadd => FmaOp::Nmadd;
    }

    fp_cmp_methods! {
        /// `feq.s rd, rs1, rs2`
        feq => FpCmp::Eq;
        /// `flt.s rd, rs1, rs2`
        flt => FpCmp::Lt;
        /// `fle.s rd, rs1, rs2`
        fle => FpCmp::Le;
    }

    /// `fcvt.w.s rd, rs1`
    pub fn fcvt_w_s(&mut self, rd: Gpr, rs1: Fpr) -> &mut Self {
        self.emit(Instr::FcvtWS { rd, rs1 })
    }

    /// `fcvt.wu.s rd, rs1`
    pub fn fcvt_wu_s(&mut self, rd: Gpr, rs1: Fpr) -> &mut Self {
        self.emit(Instr::FcvtWuS { rd, rs1 })
    }

    /// `fcvt.s.w rd, rs1`
    pub fn fcvt_s_w(&mut self, rd: Fpr, rs1: Gpr) -> &mut Self {
        self.emit(Instr::FcvtSW { rd, rs1 })
    }

    /// `fcvt.s.wu rd, rs1`
    pub fn fcvt_s_wu(&mut self, rd: Fpr, rs1: Gpr) -> &mut Self {
        self.emit(Instr::FcvtSWu { rd, rs1 })
    }

    /// `fmv.x.w rd, rs1`
    pub fn fmv_x_w(&mut self, rd: Gpr, rs1: Fpr) -> &mut Self {
        self.emit(Instr::FmvXW { rd, rs1 })
    }

    /// `fmv.w.x rd, rs1`
    pub fn fmv_w_x(&mut self, rd: Fpr, rs1: Gpr) -> &mut Self {
        self.emit(Instr::FmvWX { rd, rs1 })
    }

    // ---- Pseudo-instructions ----

    /// `li rd, value` — loads an arbitrary 32-bit constant using `lui`+`addi`
    /// (one instruction when the value fits 12 bits).
    pub fn li(&mut self, rd: Gpr, value: i32) -> &mut Self {
        if (-2048..2048).contains(&value) {
            return self.addi(rd, Gpr::Zero, value);
        }
        // Split into upper 20 and lower 12 bits, compensating for the
        // sign-extension of the addi immediate.
        let lo = (value << 20) >> 20;
        let hi = value.wrapping_sub(lo) >> 12;
        // Map hi into the signed 20-bit range the encoder expects.
        let hi = (hi << 12) >> 12;
        self.lui(rd, hi);
        if lo != 0 {
            self.addi(rd, rd, lo);
        }
        self
    }

    /// `li` for an unsigned 32-bit constant (e.g. a PGAS address).
    pub fn li_u(&mut self, rd: Gpr, value: u32) -> &mut Self {
        self.li(rd, value as i32)
    }

    /// Loads an f32 constant into `rd` via an integer register.
    ///
    /// Emits `li scratch, bits; fmv.w.x rd, scratch`.
    pub fn lif(&mut self, rd: Fpr, scratch: Gpr, value: f32) -> &mut Self {
        self.li_u(scratch, value.to_bits());
        self.fmv_w_x(rd, scratch)
    }

    /// `mv rd, rs1` — pseudo for `addi rd, rs1, 0`.
    pub fn mv(&mut self, rd: Gpr, rs1: Gpr) -> &mut Self {
        self.addi(rd, rs1, 0)
    }

    /// `not rd, rs1` — pseudo for `xori rd, rs1, -1`.
    pub fn not(&mut self, rd: Gpr, rs1: Gpr) -> &mut Self {
        self.xori(rd, rs1, -1)
    }

    /// `neg rd, rs1` — pseudo for `sub rd, zero, rs1`.
    pub fn neg(&mut self, rd: Gpr, rs1: Gpr) -> &mut Self {
        self.sub(rd, Gpr::Zero, rs1)
    }

    /// `seqz rd, rs1` — pseudo for `sltiu rd, rs1, 1`.
    pub fn seqz(&mut self, rd: Gpr, rs1: Gpr) -> &mut Self {
        self.sltiu(rd, rs1, 1)
    }

    /// `snez rd, rs1` — pseudo for `sltu rd, zero, rs1`.
    pub fn snez(&mut self, rd: Gpr, rs1: Gpr) -> &mut Self {
        self.sltu(rd, Gpr::Zero, rs1)
    }

    // ---- Assembly ----

    /// Resolves all labels and encodes the program, placing the first
    /// instruction at byte address `base_pc`.
    ///
    /// # Errors
    ///
    /// Returns an [`AsmError`] when a label is unbound or redefined, when a
    /// resolved offset does not fit its encoding, or when an immediate
    /// operand of a directly-emitted instruction does not fit its field.
    pub fn assemble(&self, base_pc: u32) -> Result<Program, AsmError> {
        if let Some(label) = self.redefined {
            return Err(AsmError::RedefinedLabel { label });
        }
        let resolve = |target: Label, at: usize| -> Result<i64, AsmError> {
            let bound = self.labels[target.0].ok_or(AsmError::UnboundLabel { label: target.0 })?;
            Ok((bound as i64 - at as i64) * i64::from(INSTR_BYTES))
        };
        let mut instrs = Vec::with_capacity(self.items.len());
        for (at, item) in self.items.iter().enumerate() {
            let instr = match *item {
                Item::Fixed(i) => {
                    check_encodable(&i, at)?;
                    i
                }
                Item::Branch {
                    op,
                    rs1,
                    rs2,
                    target,
                } => {
                    let offset = resolve(target, at)?;
                    if !(-4096..4096).contains(&offset) {
                        return Err(AsmError::BranchOutOfRange {
                            at_instr: at,
                            offset,
                        });
                    }
                    Instr::Branch {
                        op,
                        rs1,
                        rs2,
                        offset: offset as i32,
                    }
                }
                Item::Jal { rd, target } => {
                    let offset = resolve(target, at)?;
                    if !(-(1 << 20)..(1 << 20)).contains(&offset) {
                        return Err(AsmError::JumpOutOfRange {
                            at_instr: at,
                            offset,
                        });
                    }
                    Instr::Jal {
                        rd,
                        offset: offset as i32,
                    }
                }
            };
            instrs.push(instr);
        }
        Ok(Program::from_instrs(base_pc, instrs))
    }
}

/// Rejects instructions whose immediate operands cannot be encoded, so that
/// `assemble` fails loudly instead of `encode` truncating bits (release
/// builds skip the encoder's debug assertions).
fn check_encodable(instr: &Instr, at: usize) -> Result<(), AsmError> {
    let imm12 = |what, value: i32| {
        if (-2048..2048).contains(&value) {
            Ok(())
        } else {
            Err(AsmError::ImmOutOfRange {
                what,
                value: i64::from(value),
            })
        }
    };
    match *instr {
        Instr::Lui { imm, .. } | Instr::Auipc { imm, .. } => {
            if (-(1 << 19)..1 << 19).contains(&imm) {
                Ok(())
            } else {
                Err(AsmError::ImmOutOfRange {
                    what: "a 20-bit upper immediate",
                    value: i64::from(imm),
                })
            }
        }
        Instr::OpImm { op, imm, .. } if op.is_shift() => {
            if (0..32).contains(&imm) {
                Ok(())
            } else {
                Err(AsmError::ImmOutOfRange {
                    what: "a 5-bit shift amount",
                    value: i64::from(imm),
                })
            }
        }
        Instr::OpImm { imm, .. } => imm12("a 12-bit immediate", imm),
        Instr::Load { offset, .. } | Instr::Flw { offset, .. } => {
            imm12("a 12-bit load offset", offset)
        }
        Instr::Store { offset, .. } | Instr::Fsw { offset, .. } => {
            imm12("a 12-bit store offset", offset)
        }
        Instr::Jalr { offset, .. } => imm12("a 12-bit jalr offset", offset),
        Instr::Branch { offset, .. } => {
            if !(-4096..4096).contains(&offset) || offset % i32::try_from(INSTR_BYTES).unwrap() != 0
            {
                Err(AsmError::BranchOutOfRange {
                    at_instr: at,
                    offset: i64::from(offset),
                })
            } else {
                Ok(())
            }
        }
        Instr::Jal { offset, .. } => {
            if !(-(1 << 20)..1 << 20).contains(&offset)
                || offset % i32::try_from(INSTR_BYTES).unwrap() != 0
            {
                Err(AsmError::JumpOutOfRange {
                    at_instr: at,
                    offset: i64::from(offset),
                })
            } else {
                Ok(())
            }
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_isa::Gpr::*;

    #[test]
    fn forward_and_backward_branches_resolve() {
        let mut a = Assembler::new();
        let fwd = a.new_label();
        a.nop();
        let back = a.here();
        a.beq(A0, A1, fwd); // at index 1, fwd at 3 -> offset +8
        a.j(back); // at index 2, back at 1 -> offset -4
        a.bind(fwd);
        a.ecall();
        let p = a.assemble(0).unwrap();
        assert_eq!(
            p.instr_at(4).unwrap(),
            Instr::Branch {
                op: hb_isa::BranchOp::Eq,
                rs1: A0,
                rs2: A1,
                offset: 8
            }
        );
        assert_eq!(
            p.instr_at(8).unwrap(),
            Instr::Jal {
                rd: Zero,
                offset: -4
            }
        );
    }

    #[test]
    fn unbound_label_errors() {
        let mut a = Assembler::new();
        let l = a.new_label();
        a.j(l);
        assert_eq!(a.assemble(0), Err(AsmError::UnboundLabel { label: 0 }));
    }

    #[test]
    fn redefined_label_errors() {
        let mut a = Assembler::new();
        let l = a.new_label();
        a.bind(l);
        a.nop();
        a.bind(l);
        assert_eq!(a.assemble(0), Err(AsmError::RedefinedLabel { label: 0 }));
    }

    #[test]
    fn branch_out_of_range_errors() {
        let mut a = Assembler::new();
        let far = a.new_label();
        a.beqz(A0, far);
        for _ in 0..2000 {
            a.nop();
        }
        a.bind(far);
        a.ecall();
        assert!(matches!(
            a.assemble(0),
            Err(AsmError::BranchOutOfRange { .. })
        ));
    }

    #[test]
    fn li_round_trips_any_constant() {
        // Exhaustive-ish check across tricky boundaries.
        let cases = [
            0i32,
            1,
            -1,
            2047,
            2048,
            -2048,
            -2049,
            0x7fff_ffff,
            -0x8000_0000,
            0x0000_0800,
            0x7fff_f800,
            0x1234_5678,
            -0x1234_5678,
            0x0008_0000,
            (0xdead_beef_u32) as i32,
        ];
        for &v in &cases {
            let mut a = Assembler::new();
            a.li(T0, v);
            a.ecall();
            let p = a.assemble(0).unwrap();
            // Interpret the li sequence.
            let mut reg = 0i32;
            for instr in p.instrs() {
                match *instr {
                    Instr::Lui { imm, .. } => reg = imm << 12,
                    Instr::OpImm {
                        op: OpImmOp::Addi,
                        imm,
                        ..
                    } => reg = reg.wrapping_add(imm),
                    Instr::Ecall => break,
                    other => panic!("unexpected instruction in li expansion: {other}"),
                }
            }
            assert_eq!(reg, v, "li {v:#x} materialized {reg:#x}");
        }
    }

    #[test]
    fn chaining_builds_programs() {
        let mut a = Assembler::new();
        a.li(A0, 5).li(A1, 7).add(A2, A0, A1).ecall();
        let p = a.assemble(0x1000).unwrap();
        assert_eq!(p.base(), 0x1000);
        assert_eq!(p.len(), 4);
    }
}
