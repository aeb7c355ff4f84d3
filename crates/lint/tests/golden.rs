//! A differential pin beyond the shipped kernels: every diagnostic `lint`
//! reports and every pair `phase_conflicts` finds, over seeded `hb-iss`
//! fuzz programs and the racy fixtures, against a recorded golden text.
//!
//! A change to the analyses that moves any finding on these programs shows
//! up here as a line diff. On a mismatch the fresh text is written to
//! `CARGO_TARGET_TMPDIR/lint_golden.txt` for comparison; re-record the
//! golden only for a change whose moved findings are explained.

use hb_asm::{Assembler, Program};
use hb_core::pgas;
use hb_iss::fuzz::{gen_sequence, FuzzConfig};
use hb_lint::phases::phase_conflicts;
use hb_lint::{lint, LintConfig};
use std::fmt::Write;

const GOLDEN: &str = include_str!("golden_fuzz_fixtures.txt");

/// Seeds of the fuzz programs in the golden.
const SEEDS: std::ops::Range<u64> = 0..32;

fn fuzz_program(seed: u64) -> Program {
    let fuzz = FuzzConfig {
        len: 40,
        spm_base: 0x100,
        spm_len: 1024,
        dram_base: pgas::local_dram(0x1000),
        dram_len: 2048,
    };
    let mut a = Assembler::new();
    for i in gen_sequence(seed, &fuzz) {
        a.emit(i);
    }
    a.assemble(0).unwrap()
}

fn render(out: &mut String, title: &str, program: &Program, lc: &LintConfig) {
    writeln!(out, "== {title} ({} instrs)", program.len()).unwrap();
    for d in lint(program, lc) {
        writeln!(out, "{d}").unwrap();
    }
    for c in phase_conflicts(program, lc) {
        writeln!(
            out,
            "conflict {} at {:#x} / {} at {:#x}, phase {}, {}",
            c.kind_a.label(),
            c.pc_a,
            c.kind_b.label(),
            c.pc_b,
            c.phase,
            c.space
        )
        .unwrap();
    }
}

#[test]
fn fuzz_and_fixture_findings_match_the_golden() {
    let lc = LintConfig::default();
    let mut fresh = String::new();
    for seed in SEEDS {
        render(
            &mut fresh,
            &format!("fuzz seed {seed}"),
            &fuzz_program(seed),
            &lc,
        );
    }
    for f in hb_kernels::fixtures::all() {
        render(
            &mut fresh,
            &format!("fixture {}", f.name),
            &(f.build)(),
            &lc,
        );
    }
    if fresh != GOLDEN {
        let path = concat!(env!("CARGO_TARGET_TMPDIR"), "/lint_golden.txt");
        std::fs::write(path, &fresh).unwrap();
        let line = fresh
            .lines()
            .zip(GOLDEN.lines())
            .take_while(|(a, b)| a == b)
            .count();
        panic!(
            "lint findings differ from tests/golden_fuzz_fixtures.txt at line {}; \
             the fresh text is in {path}",
            line + 1
        );
    }
}
