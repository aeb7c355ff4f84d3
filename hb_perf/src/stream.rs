//! `stream_16x8`'s guest kernel: a DRAM-streaming running sum owned by the
//! benchmark, because no `hb-kernels` kernel keeps the HBM2 channel and
//! the NoC this busy with reads and writes side by side.
//!
//! Tile `r` of `T` walks input lines `r, r+T, r+2T, ...`. For each line it
//! issues the line's 16 word loads eight at a time (eight remote loads in
//! flight), adds them into a running sum, and stores that sum into word 0
//! of the output line with the same index. Every input line is read once
//! and every output line written once, so each is a cache miss whatever
//! the cache size; HBM2 reads >= lines is checked so a cache-resident
//! run cannot pass silently.

use hb_asm::{Assembler, Program};
use hb_core::{pgas, Machine, MachineConfig, SimError};
use hb_isa::Gpr::{self, *};
use hb_kernels::util::prologue;
use hb_lint::{AssembleChecked, LintConfig};
use hb_rng::Rng;
use std::sync::Arc;
use std::time::Instant;

const WORDS_PER_LINE: usize = 16;
const LINE_BYTES: u32 = 64;
/// The same budget `hb-kernels` gives its own kernels.
const CYCLE_BUDGET: u64 = 200_000_000;

/// Arguments: `a0` = input EVA, `a1` = output EVA, `a2` = line count.
fn program(cfg: &MachineConfig) -> Result<Program, String> {
    let mut a = Assembler::new();
    prologue(&mut a, S10, S11, T6);
    a.li(S0, 0); // running sum
    a.mv(S1, S10); // line = rank
    a.slli(S2, S11, 6); // byte stride between this tile's lines
    a.slli(T0, S10, 6);
    a.add(S3, A0, T0); // input cursor
    a.add(S4, A1, T0); // output cursor
    let top = a.new_label();
    let done = a.new_label();
    a.bind(top);
    a.bge(S1, A2, done);
    const REGS: [Gpr; 8] = [T0, T1, T2, T3, T4, T5, S5, S6];
    for half in 0..2 {
        for (i, &r) in REGS.iter().enumerate() {
            a.lw(r, S3, (half * 8 + i as i32) * 4);
        }
        for &r in &REGS {
            a.add(S0, S0, r);
        }
    }
    a.sw(S0, S4, 0);
    a.add(S3, S3, S2);
    a.add(S4, S4, S2);
    a.add(S1, S1, S11);
    a.j(top);
    a.bind(done);
    a.fence();
    a.ecall();
    a.assemble_checked(0, &LintConfig::for_machine(cfg))
        .map_err(|e| format!("stream kernel rejected: {e}"))
}

/// The running sums the kernel must produce, one per line.
fn expected(input: &[u32], tiles: usize) -> Vec<u32> {
    let lines = input.len() / WORDS_PER_LINE;
    let mut out = vec![0u32; lines];
    for rank in 0..tiles {
        let mut sum = 0u32;
        for line in (rank..lines).step_by(tiles) {
            let words = &input[line * WORDS_PER_LINE..(line + 1) * WORDS_PER_LINE];
            sum = words.iter().fold(sum, |s, &w| s.wrapping_add(w));
            out[line] = sum;
        }
    }
    out
}

/// What one validated stream run returns.
#[derive(Debug)]
pub struct StreamRun {
    pub cycles: u64,
    pub instrs: u64,
    /// When set-up (data, assembly, machine, DRAM load, launch) ended.
    pub launched: Instant,
}

/// Generates `lines` input lines from `seed`, runs the kernel on one
/// `cfg` Cell and checks every output word.
pub fn run(cfg: &MachineConfig, lines: usize, seed: u64) -> Result<StreamRun, String> {
    let mut rng = Rng::seed_from_u64(seed);
    let input: Vec<u32> = (0..lines * WORDS_PER_LINE)
        .map(|_| rng.next_u32())
        .collect();
    let expect = expected(&input, cfg.cell_dim.tiles());
    let program = Arc::new(program(cfg)?);

    let mut machine = Machine::new(cfg.clone());
    let bytes = lines as u32 * LINE_BYTES;
    let cell = machine.cell_mut(0);
    let src = cell.alloc(bytes, LINE_BYTES);
    let dst = cell.alloc(bytes, LINE_BYTES);
    cell.dram_mut().write_u32_slice(src, &input);
    machine.launch(
        0,
        &program,
        &[pgas::local_dram(src), pgas::local_dram(dst), lines as u32],
    );
    let launched = Instant::now();

    let summary = machine
        .run(CYCLE_BUDGET)
        .map_err(|e: SimError| format!("stream kernel failed: {e}"))?;
    machine.cell_mut(0).flush_caches();
    let cell = machine.cell(0);
    for (line, &want) in expect.iter().enumerate() {
        let got = cell.dram().read_u32(dst + line as u32 * LINE_BYTES);
        if got != want {
            return Err(format!(
                "stream mismatch at line {line}: sim {got:#x} vs host {want:#x}"
            ));
        }
    }
    let reads = cell.hbm_stats().reads;
    if reads < lines as u64 {
        return Err(format!(
            "stream ran cache-resident: {reads} HBM2 reads for {lines} input lines"
        ));
    }
    Ok(StreamRun {
        cycles: summary.cycles,
        instrs: summary.core.instrs,
        launched,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_core::CellDim;

    #[test]
    fn running_sums_follow_rank_stride() {
        // Two tiles, three lines: tile 0 owns lines 0 and 2, tile 1 line 1.
        let input: Vec<u32> = (0..48).collect();
        let line = |l: u32| (0..16).map(|w| l * 16 + w).sum::<u32>();
        assert_eq!(
            expected(&input, 2),
            vec![line(0), line(1), line(0) + line(2)]
        );
    }

    #[test]
    fn stream_validates_on_a_small_cell_and_misses_every_line() {
        let cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 2 },
            threads: 1,
            ..MachineConfig::baseline_16x8()
        };
        let run = run(&cfg, 64, 3).expect("stream run validates");
        assert!(run.cycles > 0 && run.instrs > 0);
        // A different seed changes data, never timing.
        assert_eq!(run.cycles, super::run(&cfg, 64, 4).unwrap().cycles);
    }
}
