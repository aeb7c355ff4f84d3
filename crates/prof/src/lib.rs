//! Guest-code profiler: basic-block attribution of the exact retired-PC
//! and stall-cycle histograms captured by
//! [`hb_core::gprof`](hb_core::GuestProfile).
//!
//! `hb-core` owns the capture (see `Machine::set_profile`): every tile
//! accumulates, per program phase, how many instructions retired at each
//! PC and how many stall cycles of each [`StallKind`] were spent there.
//! This crate owns the *analysis*: it maps those flat histograms onto the
//! basic-block CFG that `hb-lint` already builds for every kernel,
//! producing a ranked hot-block table and two exporters —
//!
//! - [`folded`]: folded-stack text (`kernel;phase;block count`), directly
//!   loadable by `flamegraph.pl` and Speedscope;
//! - [`summary`]: a `perf report`-style text table plus an NDJSON stream
//!   for scripting.
//!
//! Counts in both exporters are **cycles**, so a flamegraph's total width
//! is the machine's tile-cycles and stall frames nest under the block
//! that paid them. Everything here is a pure function of the captured
//! [`GuestProfile`], which is itself bit-identical across park policies;
//! the exporters iterate phases and blocks in their
//! deterministic stored order, so the rendered bytes are reproducible
//! across hosts and schedules.
//!
//! # Examples
//!
//! ```no_run
//! use hb_core::{Machine, MachineConfig};
//!
//! let mut machine = Machine::new(MachineConfig::baseline_16x8());
//! machine.set_profile(true);
//! # let program: std::sync::Arc<hb_asm::Program> = unimplemented!();
//! // ... launch `program` and run it ...
//! if let Some(run) = hb_prof::ProfRun::capture(&machine, program) {
//!     let analysis = hb_prof::Analysis::analyze("sgemm", &run);
//!     println!("{}", hb_prof::summary::report_text(&analysis, 10));
//! }
//! ```

#![forbid(unsafe_code)]

pub mod folded;
pub mod summary;

use hb_asm::Program;
use hb_core::{GuestProfile, Machine, StallKind, UNMARKED};
use hb_lint::cfg::Cfg;
use std::sync::Arc;

/// One profiled machine run: the program it executed, the folded guest
/// profile, and the machine cycle the capture closed at.
#[derive(Debug, Clone)]
pub struct ProfRun {
    /// The program the machine ran (profiles are per-image).
    pub program: Arc<Program>,
    /// The machine-wide guest profile.
    pub profile: GuestProfile,
    /// Machine cycle at capture.
    pub cycles: u64,
}

impl ProfRun {
    /// Reads the guest profile of `program` on `machine` as it stands now:
    /// the tiles running `program`, not those running anything else. The
    /// fold in [`Machine::guest_profile`] is owed-aware, so even a machine
    /// captured mid-kernel yields the counts of a never-parked run. `None`
    /// when profiling is off ([`Machine::set_profile`]) or no tile runs
    /// `program`.
    pub fn capture(machine: &Machine, program: Arc<Program>) -> Option<ProfRun> {
        Some(ProfRun {
            profile: machine.guest_profile(&program)?,
            program,
            cycles: machine.cycle(),
        })
    }
}

/// One basic block's profile: histogram counts summed over the block's
/// instruction range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockRow {
    /// Block index in the kernel's CFG (address order, 0 = entry).
    pub block: usize,
    /// Instruction index of the block's first instruction.
    pub start: usize,
    /// One past the instruction index of the block's last instruction.
    pub end: usize,
    /// Byte address of the block's first instruction.
    pub start_pc: u32,
    /// Instructions retired inside the block (= its execute cycles).
    pub retired: u64,
    /// Stall cycles attributed to the block, by [`StallKind`].
    pub stalls: [u64; StallKind::COUNT],
}

impl BlockRow {
    /// Total stall cycles attributed to the block.
    pub fn stall_cycles(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// Total tile-cycles spent in the block (execute + stall).
    pub fn cycles(&self) -> u64 {
        self.retired + self.stall_cycles()
    }

    /// Stable frame/row label (`blk_0x0040`), keyed by start address so
    /// it survives re-ranking and appears verbatim in every exporter.
    pub fn label(&self) -> String {
        format!("blk_{:#06x}", self.start_pc)
    }
}

/// One phase's per-block rows, in block (address) order.
#[derive(Debug, Clone)]
pub struct PhaseRows {
    /// The `MARK` value of the phase ([`UNMARKED`] before any mark).
    pub mark: u32,
    /// Rows for every block with nonzero activity, block index ascending.
    pub rows: Vec<BlockRow>,
}

/// Human name of a phase: `main` for the pre-mark default, `phaseN` for
/// marked phases. `;` never appears, so names are folded-stack safe.
pub fn phase_name(mark: u32) -> String {
    if mark == UNMARKED {
        "main".to_owned()
    } else {
        format!("phase{mark}")
    }
}

/// A profiled run mapped onto its basic-block CFG: per-phase block rows
/// plus a phase-summed ranking. Pure function of the [`ProfRun`]; all
/// orders are deterministic (phases as stored — unmarked first, then by
/// mark; blocks by address; ranking by cycles descending with address as
/// the tiebreak).
#[derive(Debug)]
pub struct Analysis {
    /// Kernel name, used as the flamegraph root frame.
    pub kernel: String,
    /// Machine cycles at capture.
    pub cycles: u64,
    /// Total instructions retired across all phases and blocks.
    pub retired: u64,
    /// Total stall cycles across all phases and blocks.
    pub stalled: u64,
    /// Per-phase block rows.
    pub phases: Vec<PhaseRows>,
    /// Phase-summed rows, hottest (most cycles) first.
    pub ranked: Vec<BlockRow>,
    program: Arc<Program>,
}

impl Analysis {
    /// Maps `run`'s histograms onto the basic blocks of its program.
    pub fn analyze(kernel: &str, run: &ProfRun) -> Analysis {
        let cfg = Cfg::build(&run.program);
        let block_rows = |retired: &[u64], stall_at: &dyn Fn(usize, usize) -> u64| {
            let mut rows = Vec::new();
            for (bi, b) in cfg.blocks.iter().enumerate() {
                let mut row = BlockRow {
                    block: bi,
                    start: b.start,
                    end: b.end,
                    start_pc: cfg.pc_of(b.start),
                    retired: 0,
                    stalls: [0; StallKind::COUNT],
                };
                for (i, &r) in retired.iter().enumerate().take(b.end).skip(b.start) {
                    row.retired += r;
                    for k in 0..StallKind::COUNT {
                        row.stalls[k] += stall_at(i, k);
                    }
                }
                if row.cycles() > 0 {
                    rows.push(row);
                }
            }
            rows
        };

        let phases: Vec<PhaseRows> = run
            .profile
            .phases
            .iter()
            .map(|p| PhaseRows {
                mark: p.mark,
                rows: block_rows(&p.retired, &|i, k| p.stalls[i * StallKind::COUNT + k]),
            })
            .collect();

        // Phase-summed ranking.
        let mut by_block: Vec<Option<BlockRow>> = vec![None; cfg.blocks.len()];
        for ph in &phases {
            for row in &ph.rows {
                match &mut by_block[row.block] {
                    Some(acc) => {
                        acc.retired += row.retired;
                        for (dst, src) in acc.stalls.iter_mut().zip(&row.stalls) {
                            *dst += src;
                        }
                    }
                    slot => *slot = Some(row.clone()),
                }
            }
        }
        let mut ranked: Vec<BlockRow> = by_block.into_iter().flatten().collect();
        ranked.sort_by(|a, b| b.cycles().cmp(&a.cycles()).then(a.start.cmp(&b.start)));

        Analysis {
            kernel: kernel.to_owned(),
            cycles: run.cycles,
            retired: run.profile.retired_total(),
            stalled: run.profile.stall_total(),
            phases,
            ranked,
            program: run.program.clone(),
        }
    }

    /// Total tile-cycles accounted to guest code (execute + stall); the
    /// denominator for every share in the exporters.
    pub fn tile_cycles(&self) -> u64 {
        self.retired + self.stalled
    }

    /// `row`'s share of [`Analysis::tile_cycles`] in basis points
    /// (0..=10000). Integer arithmetic, so exporters stay byte-stable.
    pub fn share_bp(&self, row: &BlockRow) -> u64 {
        match self.tile_cycles() {
            0 => 0,
            total => row.cycles() * 10_000 / total,
        }
    }

    /// `row`'s share of all retired instructions, in basis points.
    pub fn retired_share_bp(&self, row: &BlockRow) -> u64 {
        match self.retired {
            0 => 0,
            total => row.retired * 10_000 / total,
        }
    }

    /// Disassembly of the block's first instruction (an anchor for
    /// reading reports without a listing at hand).
    pub fn leader_disasm(&self, row: &BlockRow) -> String {
        self.program
            .instrs()
            .get(row.start)
            .map(|i| i.to_string())
            .unwrap_or_default()
    }

    /// The `n` hottest phase-summed rows.
    pub fn top(&self, n: usize) -> &[BlockRow] {
        &self.ranked[..self.ranked.len().min(n)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hb_asm::Assembler;
    use hb_core::{CellDim, HbOps, MachineConfig};
    use hb_isa::Gpr::*;

    /// Counted loop with a barrier: block structure is
    /// `[li] [loop body] [post + barrier + ecall]` (roughly).
    fn loop_kernel() -> Arc<Program> {
        let mut a = Assembler::new();
        a.li(T0, 8);
        let top = a.here();
        a.addi(T0, T0, -1);
        a.bnez(T0, top);
        a.barrier(T6);
        a.ecall();
        Arc::new(a.assemble(0).unwrap())
    }

    fn cfg_2x2() -> MachineConfig {
        MachineConfig {
            cell_dim: CellDim { x: 2, y: 2 },
            ..MachineConfig::baseline_16x8()
        }
    }

    fn run_loop_kernel(profile: bool) -> Option<ProfRun> {
        let mut machine = Machine::new(cfg_2x2());
        machine.set_profile(profile);
        let program = loop_kernel();
        machine.launch(0, &program, &[]);
        machine.run(100_000).unwrap();
        ProfRun::capture(&machine, program)
    }

    #[test]
    fn capture_reads_the_machine_and_analysis_ranks_the_loop() {
        let run = run_loop_kernel(true).unwrap();
        assert!(run.cycles > 0);
        // Each of the 4 tiles retires every instruction once, except the
        // 2-instruction loop body, which retires 8 times.
        let per_tile = (run.profile.instrs as u64 - 2) + 2 * 8;
        assert_eq!(run.profile.retired_total(), 4 * per_tile);

        let a = Analysis::analyze("loop", &run);
        assert_eq!(a.retired, 4 * per_tile);
        assert_eq!(a.tile_cycles(), a.retired + a.stalled);
        // The 2-instruction loop body dominates retires (the exit block
        // may out-cycle it here: barrier skew and end-of-run `done`
        // stalls land there, and the loop is only 16 instructions).
        let body = a.ranked.iter().find(|r| r.start == 1).expect("loop body");
        assert_eq!((body.start, body.end), (1, 3));
        assert_eq!(body.retired, 4 * 16);
        assert_eq!(a.leader_disasm(body), "addi t0, t0, -1");
        assert!(a.retired_share_bp(body) > 5_000, "{a:?}");
        // Shares are basis points of the full tile-cycle pie.
        let sum: u64 = a.ranked.iter().map(|r| a.share_bp(r)).sum();
        assert!(sum <= 10_000);
    }

    #[test]
    fn capture_declines_unprofiled_machines() {
        assert!(run_loop_kernel(false).is_none());
    }

    /// Two Cells running different programs: a capture folds the tiles
    /// running the program it is given and nothing else (folding the
    /// other Cell's histograms in, indexed by the wrong image, used to
    /// trip a debug assertion or miscount).
    #[test]
    fn capture_folds_only_the_tiles_running_the_program() {
        let short = {
            let mut a = Assembler::new();
            a.li(T0, 1);
            a.addi(T0, T0, 1);
            a.addi(T0, T0, 1);
            a.ecall();
            Arc::new(a.assemble(0).unwrap())
        };
        let long = {
            let mut a = Assembler::new();
            for _ in 0..40 {
                a.addi(T1, T1, 1);
            }
            a.ecall();
            Arc::new(a.assemble(0).unwrap())
        };
        assert_eq!((short.instrs().len(), long.instrs().len()), (4, 41));
        let mut machine = Machine::new(MachineConfig {
            num_cells: 2,
            ..cfg_2x2()
        });
        machine.set_profile(true);
        machine.launch(0, &short, &[]);
        machine.launch(1, &long, &[]);
        machine.run(100_000).unwrap();
        for (cell, program) in [(0, &short), (1, &long)] {
            let run = ProfRun::capture(&machine, program.clone()).unwrap();
            assert_eq!(run.profile.instrs, program.instrs().len());
            assert_eq!(
                run.profile.retired_total(),
                4 * program.instrs().len() as u64
            );
            let instrs = machine.cell(cell).core_stats().instrs;
            assert_eq!(run.profile.retired_total(), instrs, "cell {cell}");
        }
        assert!(ProfRun::capture(&machine, loop_kernel()).is_none());
    }
}
