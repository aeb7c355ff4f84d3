//! Round-trip: disassembling any shipped kernel and re-parsing the text
//! must reproduce the exact same machine words. This pins the disassembler
//! and the text parser to each other, and the text parser to the builder.

use hb_asm::{parse, parse_with_base, Assembler, Program};
use hb_isa::decode;
use hb_rng::Rng;

fn strip_listing(disasm: &str) -> String {
    // Each line is "{pc:08x}: {word:08x}  {instr}" — keep the mnemonic part.
    disasm
        .lines()
        .map(|line| {
            let (_, instr) = line
                .split_once(":")
                .unwrap_or_else(|| panic!("listing line without pc: `{line}`"));
            // Skip the word column (first token after the colon).
            instr
                .trim_start()
                .split_once(' ')
                .map_or("", |(_, rest)| rest)
                .trim()
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[track_caller]
fn round_trips(name: &str, program: &Program) {
    let text = strip_listing(&program.disassemble());
    let reparsed = parse_with_base(&text, program.base())
        .unwrap_or_else(|e| panic!("{name}: disassembly does not re-parse: {e}"));
    assert_eq!(
        reparsed.words(),
        program.words(),
        "{name}: reassembled words differ from the original"
    );
}

#[test]
fn all_kernels_round_trip_through_text() {
    for (name, kernel) in hb_kernels::kernels() {
        round_trips(name, &kernel.program());
    }
}

/// Every major opcode the decoder knows, so most of the stream decodes.
const OPCODES: [u32; 19] = [
    0x37, 0x17, 0x6f, 0x67, 0x63, 0x03, 0x23, 0x13, 0x33, 0x0f, 0x73, 0x2f, 0x07, 0x27, 0x53, 0x43,
    0x47, 0x4b, 0x4f,
];

/// The text front-end accepts exactly what the builder accepts: for every
/// instruction `decode` returns, parsing its disassembly gives what
/// emitting it through the builder gives, the same single instruction or
/// the same error text (a branch or jump offset that is not a multiple of
/// 4 is refused by both).
#[test]
fn parsing_the_disassembly_matches_the_builder() {
    let mut rng = Rng::seed_from_u64(0x45_0001);
    let mut checked = 0;
    for _ in 0..1 << 16 {
        let word = (rng.next_u32() & !0x7f) | *rng.pick(&OPCODES);
        let Ok(instr) = decode(word) else { continue };
        let text = instr.to_string();
        let parsed = parse(&text)
            .map(|p| p.instrs().to_vec())
            .map_err(|e| e.message);
        let mut a = Assembler::new();
        a.emit(instr);
        let built = a
            .assemble(0)
            .map(|p| p.instrs().to_vec())
            .map_err(|e| e.to_string());
        assert_eq!(parsed, built, "`{text}` from word {word:#010x}");
        if let Ok(instrs) = built {
            assert_eq!(instrs, [instr], "`{text}` from word {word:#010x}");
        }
        checked += 1;
    }
    assert!(checked > 1 << 14, "only {checked} words decoded");
}
