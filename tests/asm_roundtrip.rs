//! Round-trip: disassembling any shipped kernel and re-parsing the text
//! must reproduce the exact same machine words. This pins the disassembler
//! and the text parser to each other.

use hb_asm::{parse_with_base, Program};

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
