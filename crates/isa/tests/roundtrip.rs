//! Randomized tests: every representable instruction encodes to a word that
//! decodes back to itself, and ALU semantics obey RISC-V identities.
//! Deterministically seeded (`hb_rng`) so failures replay exactly.

use hb_isa::*;
use hb_rng::Rng;

fn any_gpr(rng: &mut Rng) -> Gpr {
    Gpr::from_index(rng.range_u32(0, 32) as u8)
}

fn any_fpr(rng: &mut Rng) -> Fpr {
    Fpr::from_index(rng.range_u32(0, 32) as u8)
}

fn imm20(rng: &mut Rng) -> i32 {
    rng.range_i64(-(1 << 19), 1 << 19) as i32
}

fn imm12(rng: &mut Rng) -> i32 {
    rng.range_i64(-2048, 2048) as i32
}

/// Uniformly samples the full representable instruction space (with
/// encoding-legal immediates) — the same coverage the old proptest
/// strategy provided.
fn any_instr(rng: &mut Rng) -> Instr {
    match rng.index(25) {
        0 => Instr::Lui {
            rd: any_gpr(rng),
            imm: imm20(rng),
        },
        1 => Instr::Auipc {
            rd: any_gpr(rng),
            imm: imm20(rng),
        },
        2 => Instr::Jal {
            rd: any_gpr(rng),
            offset: imm20(rng) * 2,
        },
        3 => Instr::Jalr {
            rd: any_gpr(rng),
            rs1: any_gpr(rng),
            offset: imm12(rng),
        },
        4 => Instr::Branch {
            op: *rng.pick(&BranchOp::ALL),
            rs1: any_gpr(rng),
            rs2: any_gpr(rng),
            offset: imm12(rng) * 2,
        },
        5 => Instr::Load {
            width: *rng.pick(&LoadWidth::ALL),
            rd: any_gpr(rng),
            rs1: any_gpr(rng),
            offset: imm12(rng),
        },
        6 => Instr::Store {
            width: *rng.pick(&StoreWidth::ALL),
            rs1: any_gpr(rng),
            rs2: any_gpr(rng),
            offset: imm12(rng),
        },
        7 => {
            // Shift immediates are restricted to 0..32.
            let op = *rng.pick(&OpImmOp::ALL);
            let imm = match op {
                OpImmOp::Slli | OpImmOp::Srli | OpImmOp::Srai => rng.range_i64(0, 32) as i32,
                _ => imm12(rng),
            };
            Instr::OpImm {
                op,
                rd: any_gpr(rng),
                rs1: any_gpr(rng),
                imm,
            }
        }
        8 => Instr::Op {
            op: *rng.pick(&OpOp::ALL),
            rd: any_gpr(rng),
            rs1: any_gpr(rng),
            rs2: any_gpr(rng),
        },
        9 => Instr::Fence,
        10 => Instr::Ecall,
        11 => Instr::Ebreak,
        12 => Instr::Amo {
            op: *rng.pick(&AmoOp::ALL),
            rd: any_gpr(rng),
            rs1: any_gpr(rng),
            rs2: any_gpr(rng),
            aq: rng.chance(0.5),
            rl: rng.chance(0.5),
        },
        13 => Instr::LrW {
            rd: any_gpr(rng),
            rs1: any_gpr(rng),
            aq: rng.chance(0.5),
            rl: rng.chance(0.5),
        },
        14 => Instr::ScW {
            rd: any_gpr(rng),
            rs1: any_gpr(rng),
            rs2: any_gpr(rng),
            aq: rng.chance(0.5),
            rl: rng.chance(0.5),
        },
        15 => Instr::Flw {
            rd: any_fpr(rng),
            rs1: any_gpr(rng),
            offset: imm12(rng),
        },
        16 => Instr::Fsw {
            rs1: any_gpr(rng),
            rs2: any_fpr(rng),
            offset: imm12(rng),
        },
        17 => {
            // Sqrt canonicalizes rs2 to f0.
            let op = *rng.pick(&FpOp::ALL);
            let rs2 = if op == FpOp::Sqrt {
                Fpr::Ft0
            } else {
                any_fpr(rng)
            };
            Instr::FpOp {
                op,
                rd: any_fpr(rng),
                rs1: any_fpr(rng),
                rs2,
            }
        }
        18 => Instr::Fma {
            op: *rng.pick(&FmaOp::ALL),
            rd: any_fpr(rng),
            rs1: any_fpr(rng),
            rs2: any_fpr(rng),
            rs3: any_fpr(rng),
        },
        19 => Instr::FpCmp {
            op: *rng.pick(&FpCmp::ALL),
            rd: any_gpr(rng),
            rs1: any_fpr(rng),
            rs2: any_fpr(rng),
        },
        20 => Instr::FcvtWS {
            rd: any_gpr(rng),
            rs1: any_fpr(rng),
        },
        21 => Instr::FcvtWuS {
            rd: any_gpr(rng),
            rs1: any_fpr(rng),
        },
        22 => Instr::FcvtSW {
            rd: any_fpr(rng),
            rs1: any_gpr(rng),
        },
        23 => Instr::FcvtSWu {
            rd: any_fpr(rng),
            rs1: any_gpr(rng),
        },
        _ => {
            if rng.chance(0.5) {
                Instr::FmvXW {
                    rd: any_gpr(rng),
                    rs1: any_fpr(rng),
                }
            } else {
                Instr::FmvWX {
                    rd: any_fpr(rng),
                    rs1: any_gpr(rng),
                }
            }
        }
    }
}

/// decode(encode(i)) == i over the whole instruction space.
#[test]
fn encode_decode_round_trip() {
    let mut rng = Rng::seed_from_u64(0x150_0001);
    for _ in 0..4096 {
        let instr = any_instr(&mut rng);
        let word = instr.encode();
        assert_eq!(decode(word), Ok(instr), "round trip failed for {instr:?}");
    }
}

/// Disassembly never panics and never produces an empty string.
#[test]
fn disasm_total() {
    let mut rng = Rng::seed_from_u64(0x150_0002);
    for _ in 0..4096 {
        let instr = any_instr(&mut rng);
        assert!(!instr.to_string().is_empty());
    }
}

/// Decoding arbitrary words either fails or re-encodes to an equivalent
/// instruction (decode is a partial inverse of encode, modulo the
/// rounding-mode and fence-operand fields the core ignores).
#[test]
fn decode_is_partial_inverse() {
    let mut rng = Rng::seed_from_u64(0x150_0003);
    for _ in 0..65536 {
        let word = rng.next_u32();
        if let Ok(instr) = decode(word) {
            let reenc = instr.encode();
            assert_eq!(decode(reenc), Ok(instr), "word {word:#010x}");
        }
    }
}

/// `operands()` names exactly the registers the disassembly prints, `x0`
/// left out, with the destination printed first: the printer is written
/// per format and independently of the operand table, and `fsqrt.s` prints
/// no rs2.
#[test]
fn operands_are_the_registers_the_disassembly_names() {
    let mut rng = Rng::seed_from_u64(0x150_0008);
    for _ in 0..4096 {
        let instr = decode(any_instr(&mut rng).encode()).unwrap();
        let text = instr.to_string();
        let named: Vec<Reg> = text
            .split([' ', ',', '(', ')'])
            .skip(1)
            .filter_map(|t| match (t.parse::<Gpr>(), t.parse::<Fpr>()) {
                (Ok(r), _) => Reg::gpr(r),
                (_, Ok(r)) => Some(Reg::fpr(r)),
                _ => None,
            })
            .collect();
        let ops = instr.operands();
        let mut listed: Vec<Reg> = ops.srcs.iter().flatten().chain(&ops.dst).copied().collect();
        let mut printed = named.clone();
        for regs in [&mut listed, &mut printed] {
            regs.sort_unstable();
            regs.dedup();
        }
        assert_eq!(listed, printed, "`{text}`: {ops:?}");
        if let Some(rd) = ops.dst {
            assert_eq!(named[0], rd, "`{text}` prints its destination first");
        }
    }
}

/// M-extension division conventions.
#[test]
fn div_by_zero_conventions() {
    let mut rng = Rng::seed_from_u64(0x150_0004);
    for _ in 0..4096 {
        let a = rng.next_u32();
        assert_eq!(OpOp::Div.eval(a, 0), u32::MAX);
        assert_eq!(OpOp::Divu.eval(a, 0), u32::MAX);
        assert_eq!(OpOp::Rem.eval(a, 0), a);
        assert_eq!(OpOp::Remu.eval(a, 0), a);
    }
}

/// Division identity: a == div(a,b)*b + rem(a,b) for non-overflow cases.
#[test]
fn div_rem_identity() {
    let mut rng = Rng::seed_from_u64(0x150_0005);
    let mut checked = 0;
    while checked < 4096 {
        let a = rng.next_u32() as i32;
        let b = rng.next_u32() as i32;
        if b == 0 || (a == i32::MIN && b == -1) {
            continue;
        }
        let q = OpOp::Div.eval(a as u32, b as u32) as i32;
        let r = OpOp::Rem.eval(a as u32, b as u32) as i32;
        assert_eq!(q.wrapping_mul(b).wrapping_add(r), a, "a={a} b={b}");
        checked += 1;
    }
}

/// AMO min/max/and/or are idempotent on repeated application.
#[test]
fn amo_minmax_idempotent() {
    let mut rng = Rng::seed_from_u64(0x150_0006);
    for _ in 0..4096 {
        let (old, x) = (rng.next_u32(), rng.next_u32());
        for op in [
            AmoOp::Min,
            AmoOp::Max,
            AmoOp::Minu,
            AmoOp::Maxu,
            AmoOp::And,
            AmoOp::Or,
        ] {
            let once = op.apply(old, x);
            assert_eq!(op.apply(once, x), once, "{op:?} old={old:#x} x={x:#x}");
        }
    }
}

/// FNV-1a-64 over text, fed through `fmt::Write` so a digest over a
/// million `Debug` forms allocates nothing.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Every major opcode the decoder knows, so half the stream lands in a
/// real opcode and exercises its field checks.
const OPCODES: [u32; 19] = [
    0x37, 0x17, 0x6f, 0x67, 0x63, 0x03, 0x23, 0x13, 0x33, 0x0f, 0x73, 0x2f, 0x07, 0x27, 0x53, 0x43,
    0x47, 0x4b, 0x4f,
];

/// Decode accepts and rejects exactly the words it did when the digest
/// was recorded, and gives each accepted word the same instruction.
#[test]
fn decode_of_a_word_stream_is_pinned() {
    use std::fmt::Write;
    let mut rng = Rng::seed_from_u64(0x150_0007);
    let mut h = Fnv::new();
    for i in 0..1u32 << 20 {
        let mut word = rng.next_u32();
        if i % 2 == 1 {
            word = (word & !0x7f) | *rng.pick(&OPCODES);
        }
        h.bytes(&word.to_le_bytes());
        write!(h, "{:?}", decode(word)).unwrap();
    }
    assert_eq!(h.0, 0xe612_f6a5_e419_0b26, "decode digest moved");
}

/// `encode` gives every instruction of the `any_instr` stream the word it
/// did when the digest was recorded.
#[test]
fn encode_of_the_instruction_stream_is_pinned() {
    let mut rng = Rng::seed_from_u64(0x150_0008);
    let mut h = Fnv::new();
    for _ in 0..1 << 16 {
        h.bytes(&any_instr(&mut rng).encode().to_le_bytes());
    }
    assert_eq!(h.0, 0xa401_5ce0_7db9_120d, "encode digest moved");
}
