//! No-panic fuzzing of the instruction decoder with seeded `hb-rng` words:
//! a million uniform ones (nearly all of which stop at the opcode check),
//! then a million whose seven opcode bits are ones the ISA uses, so every
//! arm of `decode` sees random function, register and immediate fields.
//!
//! Property: every word yields `Ok` or a `DecodeError` — never a panic, no
//! allocation beyond the harness's slack — and every instruction that
//! comes out re-encodes to a word that decodes to an equal instruction
//! (the word need not be the input: `fence` ignores its ordering fields).

use hammerblade::isa::{decode, Instr};
use hammerblade::rng::Rng;

mod alloc_watch;
use alloc_watch::check;

fn feed(word: u32) -> Option<Instr> {
    let mut decoded = None;
    check(&format!("word {word:#010x}"), &[], || {
        decode(word).map(|instr| decoded = Some(instr))
    });
    let instr = decoded?;
    assert_eq!(
        decode(instr.encode()),
        Ok(instr),
        "{word:#010x} decoded to `{instr}`, which does not survive its own encoding"
    );
    Some(instr)
}

#[test]
fn random_words_decode_to_an_instruction_or_an_error() {
    let mut rng = Rng::seed_from_u64(0x7E87_0019);
    for _ in 0..1_000_000 {
        feed(rng.next_u32());
    }

    // The RV32IMAF major opcodes, each under random upper bits.
    const OPCODES: [u32; 19] = [
        0x37, 0x17, 0x6f, 0x67, 0x63, 0x03, 0x23, 0x13, 0x33, 0x0f, 0x73, 0x2f, 0x07, 0x27, 0x43,
        0x47, 0x4b, 0x4f, 0x53,
    ];
    let mut decoded = [0u32; OPCODES.len()];
    for _ in 0..1_000_000 {
        let pick = rng.index(OPCODES.len());
        let word = (rng.next_u32() & !0x7f) | OPCODES[pick];
        decoded[pick] += u32::from(feed(word).is_some());
    }
    for (opcode, n) in OPCODES.iter().zip(decoded) {
        assert!(n > 0, "no word under opcode {opcode:#04x} decoded");
    }
}
