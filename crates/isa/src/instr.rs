//! Structured representation of the RV32IMAF instruction set.

use crate::reg::{Fpr, Gpr};

/// Conditional branch comparison, funct3 of the `BRANCH` opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// `beq` — branch if equal.
    Eq,
    /// `bne` — branch if not equal.
    Ne,
    /// `blt` — branch if less than (signed).
    Lt,
    /// `bge` — branch if greater or equal (signed).
    Ge,
    /// `bltu` — branch if less than (unsigned).
    Ltu,
    /// `bgeu` — branch if greater or equal (unsigned).
    Geu,
}

impl BranchOp {
    /// Every operation variant, in a fixed order (useful for exercisers).
    pub const ALL: [BranchOp; 6] = [
        BranchOp::Eq,
        BranchOp::Ne,
        BranchOp::Lt,
        BranchOp::Ge,
        BranchOp::Ltu,
        BranchOp::Geu,
    ];

    /// One row per variant, in declaration order: mnemonic, funct3.
    const ROWS: [(&'static str, u32); 6] = [
        ("beq", 0b000),
        ("bne", 0b001),
        ("blt", 0b100),
        ("bge", 0b101),
        ("bltu", 0b110),
        ("bgeu", 0b111),
    ];

    /// The assembly mnemonic, e.g. `beq`.
    pub fn mnemonic(self) -> &'static str {
        Self::ROWS[self as usize].0
    }

    pub(crate) fn funct3(self) -> u32 {
        Self::ROWS[self as usize].1
    }

    /// Evaluates the branch condition on two register values.
    pub fn taken(self, a: u32, b: u32) -> bool {
        match self {
            BranchOp::Eq => a == b,
            BranchOp::Ne => a != b,
            BranchOp::Lt => (a as i32) < (b as i32),
            BranchOp::Ge => (a as i32) >= (b as i32),
            BranchOp::Ltu => a < b,
            BranchOp::Geu => a >= b,
        }
    }
}

/// Width/signedness of an integer load, funct3 of the `LOAD` opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadWidth {
    /// `lb` — load byte, sign-extended.
    B,
    /// `lh` — load halfword, sign-extended.
    H,
    /// `lw` — load word.
    W,
    /// `lbu` — load byte, zero-extended.
    Bu,
    /// `lhu` — load halfword, zero-extended.
    Hu,
}

impl LoadWidth {
    /// Every operation variant, in a fixed order (useful for exercisers).
    pub const ALL: [LoadWidth; 5] = [
        LoadWidth::B,
        LoadWidth::H,
        LoadWidth::W,
        LoadWidth::Bu,
        LoadWidth::Hu,
    ];

    /// One row per variant, in declaration order: mnemonic, funct3.
    const ROWS: [(&'static str, u32); 5] = [
        ("lb", 0b000),
        ("lh", 0b001),
        ("lw", 0b010),
        ("lbu", 0b100),
        ("lhu", 0b101),
    ];

    /// The assembly mnemonic, e.g. `lw`.
    pub fn mnemonic(self) -> &'static str {
        Self::ROWS[self as usize].0
    }

    pub(crate) fn funct3(self) -> u32 {
        Self::ROWS[self as usize].1
    }

    /// Number of bytes transferred: funct3's low two bits are its log2.
    pub fn bytes(self) -> u32 {
        1 << (self.funct3() & 0b11)
    }
}

/// Width of an integer store, funct3 of the `STORE` opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreWidth {
    /// `sb` — store byte.
    B,
    /// `sh` — store halfword.
    H,
    /// `sw` — store word.
    W,
}

impl StoreWidth {
    /// Every operation variant, in a fixed order (useful for exercisers).
    pub const ALL: [StoreWidth; 3] = [StoreWidth::B, StoreWidth::H, StoreWidth::W];

    /// One row per variant, in declaration order: mnemonic, funct3.
    const ROWS: [(&'static str, u32); 3] = [("sb", 0b000), ("sh", 0b001), ("sw", 0b010)];

    /// The assembly mnemonic, e.g. `sw`.
    pub fn mnemonic(self) -> &'static str {
        Self::ROWS[self as usize].0
    }

    pub(crate) fn funct3(self) -> u32 {
        Self::ROWS[self as usize].1
    }

    /// Number of bytes transferred: funct3 is its log2.
    pub fn bytes(self) -> u32 {
        1 << self.funct3()
    }
}

/// Register-immediate ALU operation (`OP-IMM` opcode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpImmOp {
    /// `addi`
    Addi,
    /// `slti` — set if less than immediate (signed).
    Slti,
    /// `sltiu`
    Sltiu,
    /// `xori`
    Xori,
    /// `ori`
    Ori,
    /// `andi`
    Andi,
    /// `slli` — shift amount in the low 5 immediate bits.
    Slli,
    /// `srli`
    Srli,
    /// `srai`
    Srai,
}

impl OpImmOp {
    /// Every operation variant, in a fixed order (useful for exercisers).
    pub const ALL: [OpImmOp; 9] = [
        OpImmOp::Addi,
        OpImmOp::Slti,
        OpImmOp::Sltiu,
        OpImmOp::Xori,
        OpImmOp::Ori,
        OpImmOp::Andi,
        OpImmOp::Slli,
        OpImmOp::Srli,
        OpImmOp::Srai,
    ];

    /// One row per variant, in declaration order: mnemonic, funct3, and
    /// the funct7 above a shift's 5-bit amount (0 for the others).
    const ROWS: [(&'static str, u32, u32); 9] = [
        ("addi", 0b000, 0),
        ("slti", 0b010, 0),
        ("sltiu", 0b011, 0),
        ("xori", 0b100, 0),
        ("ori", 0b110, 0),
        ("andi", 0b111, 0),
        ("slli", 0b001, 0b000_0000),
        ("srli", 0b101, 0b000_0000),
        ("srai", 0b101, 0b010_0000),
    ];

    /// The assembly mnemonic, e.g. `addi`.
    pub fn mnemonic(self) -> &'static str {
        Self::ROWS[self as usize].0
    }

    pub(crate) fn funct3(self) -> u32 {
        Self::ROWS[self as usize].1
    }

    pub(crate) fn funct7(self) -> u32 {
        Self::ROWS[self as usize].2
    }

    /// Whether this is a shift (immediate restricted to 0..32).
    pub fn is_shift(self) -> bool {
        matches!(self, OpImmOp::Slli | OpImmOp::Srli | OpImmOp::Srai)
    }

    /// Evaluates the operation.
    pub fn eval(self, a: u32, imm: i32) -> u32 {
        let b = imm as u32;
        match self {
            OpImmOp::Addi => a.wrapping_add(b),
            OpImmOp::Slti => u32::from((a as i32) < imm),
            OpImmOp::Sltiu => u32::from(a < b),
            OpImmOp::Xori => a ^ b,
            OpImmOp::Ori => a | b,
            OpImmOp::Andi => a & b,
            OpImmOp::Slli => a.wrapping_shl(b & 0x1f),
            OpImmOp::Srli => a.wrapping_shr(b & 0x1f),
            OpImmOp::Srai => ((a as i32).wrapping_shr(b & 0x1f)) as u32,
        }
    }
}

/// Register-register ALU operation (`OP` opcode), including the M extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpOp {
    /// `add`
    Add,
    /// `sub`
    Sub,
    /// `sll`
    Sll,
    /// `slt`
    Slt,
    /// `sltu`
    Sltu,
    /// `xor`
    Xor,
    /// `srl`
    Srl,
    /// `sra`
    Sra,
    /// `or`
    Or,
    /// `and`
    And,
    /// `mul` (M extension)
    Mul,
    /// `mulh`
    Mulh,
    /// `mulhsu`
    Mulhsu,
    /// `mulhu`
    Mulhu,
    /// `div`
    Div,
    /// `divu`
    Divu,
    /// `rem`
    Rem,
    /// `remu`
    Remu,
}

impl OpOp {
    /// Every operation variant, in a fixed order (useful for exercisers).
    pub const ALL: [OpOp; 18] = [
        OpOp::Add,
        OpOp::Sub,
        OpOp::Sll,
        OpOp::Slt,
        OpOp::Sltu,
        OpOp::Xor,
        OpOp::Srl,
        OpOp::Sra,
        OpOp::Or,
        OpOp::And,
        OpOp::Mul,
        OpOp::Mulh,
        OpOp::Mulhsu,
        OpOp::Mulhu,
        OpOp::Div,
        OpOp::Divu,
        OpOp::Rem,
        OpOp::Remu,
    ];

    /// One row per variant, in declaration order: mnemonic, funct3, funct7.
    const ROWS: [(&'static str, u32, u32); 18] = [
        ("add", 0b000, 0b000_0000),
        ("sub", 0b000, 0b010_0000),
        ("sll", 0b001, 0b000_0000),
        ("slt", 0b010, 0b000_0000),
        ("sltu", 0b011, 0b000_0000),
        ("xor", 0b100, 0b000_0000),
        ("srl", 0b101, 0b000_0000),
        ("sra", 0b101, 0b010_0000),
        ("or", 0b110, 0b000_0000),
        ("and", 0b111, 0b000_0000),
        ("mul", 0b000, 0b000_0001),
        ("mulh", 0b001, 0b000_0001),
        ("mulhsu", 0b010, 0b000_0001),
        ("mulhu", 0b011, 0b000_0001),
        ("div", 0b100, 0b000_0001),
        ("divu", 0b101, 0b000_0001),
        ("rem", 0b110, 0b000_0001),
        ("remu", 0b111, 0b000_0001),
    ];

    /// The assembly mnemonic, e.g. `add`.
    pub fn mnemonic(self) -> &'static str {
        Self::ROWS[self as usize].0
    }

    pub(crate) fn funct3(self) -> u32 {
        Self::ROWS[self as usize].1
    }

    pub(crate) fn funct7(self) -> u32 {
        Self::ROWS[self as usize].2
    }

    /// Whether this operation comes from the M extension.
    pub fn is_muldiv(self) -> bool {
        self.funct7() == 0b000_0001
    }

    /// Evaluates the operation with RISC-V semantics (including the
    /// divide-by-zero and overflow conventions of the M extension).
    pub fn eval(self, a: u32, b: u32) -> u32 {
        let (sa, sb) = (a as i32, b as i32);
        match self {
            OpOp::Add => a.wrapping_add(b),
            OpOp::Sub => a.wrapping_sub(b),
            OpOp::Sll => a.wrapping_shl(b & 0x1f),
            OpOp::Slt => u32::from(sa < sb),
            OpOp::Sltu => u32::from(a < b),
            OpOp::Xor => a ^ b,
            OpOp::Srl => a.wrapping_shr(b & 0x1f),
            OpOp::Sra => sa.wrapping_shr(b & 0x1f) as u32,
            OpOp::Or => a | b,
            OpOp::And => a & b,
            OpOp::Mul => a.wrapping_mul(b),
            OpOp::Mulh => (((sa as i64) * (sb as i64)) >> 32) as u32,
            OpOp::Mulhsu => (((sa as i64) * (b as i64)) >> 32) as u32,
            OpOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
            OpOp::Div => {
                if b == 0 {
                    u32::MAX
                } else if sa == i32::MIN && sb == -1 {
                    a
                } else {
                    (sa / sb) as u32
                }
            }
            OpOp::Divu => a.checked_div(b).unwrap_or(u32::MAX),
            OpOp::Rem => {
                if b == 0 {
                    a
                } else if sa == i32::MIN && sb == -1 {
                    0
                } else {
                    (sa % sb) as u32
                }
            }
            OpOp::Remu => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
        }
    }
}

/// Atomic memory operation (`AMO` opcode, A extension, 32-bit width).
///
/// HammerBlade executes these remotely at the cache banks, providing
/// chip-wide synchronization primitives without coherence hardware.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmoOp {
    /// `amoswap.w`
    Swap,
    /// `amoadd.w`
    Add,
    /// `amoxor.w`
    Xor,
    /// `amoand.w`
    And,
    /// `amoor.w`
    Or,
    /// `amomin.w` (signed)
    Min,
    /// `amomax.w` (signed)
    Max,
    /// `amominu.w`
    Minu,
    /// `amomaxu.w`
    Maxu,
}

impl AmoOp {
    /// Every operation variant, in a fixed order (useful for exercisers).
    pub const ALL: [AmoOp; 9] = [
        AmoOp::Swap,
        AmoOp::Add,
        AmoOp::Xor,
        AmoOp::And,
        AmoOp::Or,
        AmoOp::Min,
        AmoOp::Max,
        AmoOp::Minu,
        AmoOp::Maxu,
    ];

    /// One row per variant, in declaration order: mnemonic, funct5.
    const ROWS: [(&'static str, u32); 9] = [
        ("amoswap.w", 0b00001),
        ("amoadd.w", 0b00000),
        ("amoxor.w", 0b00100),
        ("amoand.w", 0b01100),
        ("amoor.w", 0b01000),
        ("amomin.w", 0b10000),
        ("amomax.w", 0b10100),
        ("amominu.w", 0b11000),
        ("amomaxu.w", 0b11100),
    ];

    /// The assembly mnemonic, e.g. `amoadd.w`.
    pub fn mnemonic(self) -> &'static str {
        Self::ROWS[self as usize].0
    }

    pub(crate) fn funct5(self) -> u32 {
        Self::ROWS[self as usize].1
    }

    /// Computes the new memory value from the old value and the operand.
    /// The AMO also returns the *old* value to the issuing core.
    pub fn apply(self, old: u32, operand: u32) -> u32 {
        match self {
            AmoOp::Swap => operand,
            AmoOp::Add => old.wrapping_add(operand),
            AmoOp::Xor => old ^ operand,
            AmoOp::And => old & operand,
            AmoOp::Or => old | operand,
            AmoOp::Min => (old as i32).min(operand as i32) as u32,
            AmoOp::Max => (old as i32).max(operand as i32) as u32,
            AmoOp::Minu => old.min(operand),
            AmoOp::Maxu => old.max(operand),
        }
    }
}

/// Two-operand floating-point computation (`OP-FP` opcode, F extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpOp {
    /// `fadd.s`
    Add,
    /// `fsub.s`
    Sub,
    /// `fmul.s`
    Mul,
    /// `fdiv.s`
    Div,
    /// `fsqrt.s` (rs2 ignored)
    Sqrt,
    /// `fsgnj.s`
    Sgnj,
    /// `fsgnjn.s`
    Sgnjn,
    /// `fsgnjx.s`
    Sgnjx,
    /// `fmin.s`
    Min,
    /// `fmax.s`
    Max,
}

impl FpOp {
    /// Every operation variant, in a fixed order (useful for exercisers).
    pub const ALL: [FpOp; 10] = [
        FpOp::Add,
        FpOp::Sub,
        FpOp::Mul,
        FpOp::Div,
        FpOp::Sqrt,
        FpOp::Sgnj,
        FpOp::Sgnjn,
        FpOp::Sgnjx,
        FpOp::Min,
        FpOp::Max,
    ];

    /// One row per variant, in declaration order: mnemonic, funct7, and
    /// funct3, which is `None` where the field is the rounding mode.
    const ROWS: [(&'static str, u32, Option<u32>); 10] = [
        ("fadd.s", 0b000_0000, None),
        ("fsub.s", 0b000_0100, None),
        ("fmul.s", 0b000_1000, None),
        ("fdiv.s", 0b000_1100, None),
        ("fsqrt.s", 0b010_1100, None),
        ("fsgnj.s", 0b001_0000, Some(0b000)),
        ("fsgnjn.s", 0b001_0000, Some(0b001)),
        ("fsgnjx.s", 0b001_0000, Some(0b010)),
        ("fmin.s", 0b001_0100, Some(0b000)),
        ("fmax.s", 0b001_0100, Some(0b001)),
    ];

    /// The assembly mnemonic, e.g. `fadd.s`.
    pub fn mnemonic(self) -> &'static str {
        Self::ROWS[self as usize].0
    }

    pub(crate) fn funct7(self) -> u32 {
        Self::ROWS[self as usize].1
    }

    pub(crate) fn funct3(self) -> Option<u32> {
        Self::ROWS[self as usize].2
    }

    /// Evaluates the operation on raw f32 bit patterns.
    pub fn eval(self, a: f32, b: f32) -> f32 {
        match self {
            FpOp::Add => a + b,
            FpOp::Sub => a - b,
            FpOp::Mul => a * b,
            FpOp::Div => a / b,
            FpOp::Sqrt => a.sqrt(),
            FpOp::Sgnj => f32::from_bits((a.to_bits() & 0x7fff_ffff) | (b.to_bits() & 0x8000_0000)),
            FpOp::Sgnjn => {
                f32::from_bits((a.to_bits() & 0x7fff_ffff) | (!b.to_bits() & 0x8000_0000))
            }
            FpOp::Sgnjx => f32::from_bits(a.to_bits() ^ (b.to_bits() & 0x8000_0000)),
            FpOp::Min => a.min(b),
            FpOp::Max => a.max(b),
        }
    }
}

/// Fused multiply-add family (`MADD`/`MSUB`/`NMSUB`/`NMADD` opcodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FmaOp {
    /// `fmadd.s` — `rs1*rs2 + rs3`
    Madd,
    /// `fmsub.s` — `rs1*rs2 - rs3`
    Msub,
    /// `fnmsub.s` — `-(rs1*rs2) + rs3`
    Nmsub,
    /// `fnmadd.s` — `-(rs1*rs2) - rs3`
    Nmadd,
}

impl FmaOp {
    /// Every operation variant, in a fixed order (useful for exercisers).
    pub const ALL: [FmaOp; 4] = [FmaOp::Madd, FmaOp::Msub, FmaOp::Nmsub, FmaOp::Nmadd];

    /// One row per variant, in declaration order: mnemonic, major opcode.
    const ROWS: [(&'static str, u32); 4] = [
        ("fmadd.s", 0b100_0011),
        ("fmsub.s", 0b100_0111),
        ("fnmsub.s", 0b100_1011),
        ("fnmadd.s", 0b100_1111),
    ];

    /// The assembly mnemonic, e.g. `fmadd.s`.
    pub fn mnemonic(self) -> &'static str {
        Self::ROWS[self as usize].0
    }

    pub(crate) fn opcode(self) -> u32 {
        Self::ROWS[self as usize].1
    }

    /// Evaluates the fused operation.
    pub fn eval(self, a: f32, b: f32, c: f32) -> f32 {
        match self {
            FmaOp::Madd => a.mul_add(b, c),
            FmaOp::Msub => a.mul_add(b, -c),
            FmaOp::Nmsub => (-a).mul_add(b, c),
            FmaOp::Nmadd => (-a).mul_add(b, -c),
        }
    }
}

/// A single decoded RV32IMAF instruction.
///
/// The enum is structured by encoding format rather than flat per-mnemonic,
/// which keeps encode/decode and the core's execute stage compact. Immediates
/// are stored as sign-extended `i32` semantic values (e.g. `Lui.imm` is the
/// 20-bit value *before* the implicit `<< 12`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `lui rd, imm` — load upper immediate (`rd = imm << 12`).
    Lui { rd: Gpr, imm: i32 },
    /// `auipc rd, imm` — add upper immediate to PC.
    Auipc { rd: Gpr, imm: i32 },
    /// `jal rd, offset` — jump and link. Offset is relative to this
    /// instruction and must be a multiple of 2 in ±1 MiB.
    Jal { rd: Gpr, offset: i32 },
    /// `jalr rd, offset(rs1)` — indirect jump and link.
    Jalr { rd: Gpr, rs1: Gpr, offset: i32 },
    /// Conditional branch, PC-relative offset in ±4 KiB.
    Branch {
        op: BranchOp,
        rs1: Gpr,
        rs2: Gpr,
        offset: i32,
    },
    /// Integer load `rd = mem[rs1 + offset]`.
    Load {
        width: LoadWidth,
        rd: Gpr,
        rs1: Gpr,
        offset: i32,
    },
    /// Integer store `mem[rs1 + offset] = rs2`.
    Store {
        width: StoreWidth,
        rs1: Gpr,
        rs2: Gpr,
        offset: i32,
    },
    /// Register-immediate ALU operation.
    OpImm {
        op: OpImmOp,
        rd: Gpr,
        rs1: Gpr,
        imm: i32,
    },
    /// Register-register ALU operation (including M extension).
    Op {
        op: OpOp,
        rd: Gpr,
        rs1: Gpr,
        rs2: Gpr,
    },
    /// `fence` — on HammerBlade, drains the remote-op scoreboard: the core
    /// stalls until every outstanding request has been acknowledged.
    Fence,
    /// `ecall` — the simulator treats this as "tile finished".
    Ecall,
    /// `ebreak` — simulator breakpoint/trap.
    Ebreak,
    /// Atomic memory operation `rd = amo(mem[rs1], rs2)` with
    /// acquire/release bits.
    Amo {
        op: AmoOp,
        rd: Gpr,
        rs1: Gpr,
        rs2: Gpr,
        aq: bool,
        rl: bool,
    },
    /// `lr.w rd, (rs1)` — load-reserved.
    LrW {
        rd: Gpr,
        rs1: Gpr,
        aq: bool,
        rl: bool,
    },
    /// `sc.w rd, rs2, (rs1)` — store-conditional.
    ScW {
        rd: Gpr,
        rs1: Gpr,
        rs2: Gpr,
        aq: bool,
        rl: bool,
    },
    /// `flw rd, offset(rs1)` — FP load word.
    Flw { rd: Fpr, rs1: Gpr, offset: i32 },
    /// `fsw rs2, offset(rs1)` — FP store word.
    Fsw { rs1: Gpr, rs2: Fpr, offset: i32 },
    /// Two-operand FP computation.
    FpOp {
        op: FpOp,
        rd: Fpr,
        rs1: Fpr,
        rs2: Fpr,
    },
    /// Fused multiply-add.
    Fma {
        op: FmaOp,
        rd: Fpr,
        rs1: Fpr,
        rs2: Fpr,
        rs3: Fpr,
    },
    /// FP compare writing an integer register: `feq.s`/`flt.s`/`fle.s`
    /// selected by `op` (only `Eq`/`Lt`/`Le` meaningful, see [`FpCmp`]).
    FpCmp {
        op: FpCmp,
        rd: Gpr,
        rs1: Fpr,
        rs2: Fpr,
    },
    /// `fcvt.w.s rd, rs1` — FP to signed int (round to nearest even).
    FcvtWS { rd: Gpr, rs1: Fpr },
    /// `fcvt.wu.s rd, rs1` — FP to unsigned int.
    FcvtWuS { rd: Gpr, rs1: Fpr },
    /// `fcvt.s.w rd, rs1` — signed int to FP.
    FcvtSW { rd: Fpr, rs1: Gpr },
    /// `fcvt.s.wu rd, rs1` — unsigned int to FP.
    FcvtSWu { rd: Fpr, rs1: Gpr },
    /// `fmv.x.w rd, rs1` — move FP bits to integer register.
    FmvXW { rd: Gpr, rs1: Fpr },
    /// `fmv.w.x rd, rs1` — move integer bits to FP register.
    FmvWX { rd: Fpr, rs1: Gpr },
}

/// Floating-point comparison kind for [`Instr::FpCmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpCmp {
    /// `feq.s`
    Eq,
    /// `flt.s`
    Lt,
    /// `fle.s`
    Le,
}

impl FpCmp {
    /// Every operation variant, in a fixed order (useful for exercisers).
    pub const ALL: [FpCmp; 3] = [FpCmp::Eq, FpCmp::Lt, FpCmp::Le];

    /// One row per variant, in declaration order: mnemonic, funct3.
    const ROWS: [(&'static str, u32); 3] = [("feq.s", 0b010), ("flt.s", 0b001), ("fle.s", 0b000)];

    /// The assembly mnemonic, e.g. `feq.s`.
    pub fn mnemonic(self) -> &'static str {
        Self::ROWS[self as usize].0
    }

    pub(crate) fn funct3(self) -> u32 {
        Self::ROWS[self as usize].1
    }

    /// Evaluates the comparison (quiet; NaN compares false).
    pub fn eval(self, a: f32, b: f32) -> bool {
        match self {
            FpCmp::Eq => a == b,
            FpCmp::Lt => a < b,
            FpCmp::Le => a <= b,
        }
    }
}

impl Instr {
    /// A canonical no-op (`addi zero, zero, 0`).
    pub const NOP: Instr = Instr::OpImm {
        op: OpImmOp::Addi,
        rd: Gpr::Zero,
        rs1: Gpr::Zero,
        imm: 0,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// The text parser finds an op by its mnemonic alone, so no two ops,
    /// in one family or across families, may share one.
    #[test]
    fn no_two_ops_share_a_mnemonic() {
        let all = [
            &BranchOp::ALL.map(BranchOp::mnemonic)[..],
            &LoadWidth::ALL.map(LoadWidth::mnemonic),
            &StoreWidth::ALL.map(StoreWidth::mnemonic),
            &OpImmOp::ALL.map(OpImmOp::mnemonic),
            &OpOp::ALL.map(OpOp::mnemonic),
            &AmoOp::ALL.map(AmoOp::mnemonic),
            &FpOp::ALL.map(FpOp::mnemonic),
            &FmaOp::ALL.map(FmaOp::mnemonic),
            &FpCmp::ALL.map(FpCmp::mnemonic),
        ]
        .concat();
        let unique: HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), all.len(), "a mnemonic names two ops: {all:?}");
    }
}
