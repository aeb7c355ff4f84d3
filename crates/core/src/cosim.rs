//! Lockstep co-simulation: the cycle-level tile checked against the
//! functional golden model, instruction by instruction.
//!
//! The cycle-level [`Tile`](crate::Tile) is a pipelined, scoreboarded,
//! network-coupled state machine; the [`hb_iss::Hart`] is a
//! few hundred lines of direct interpretation. Running them in lockstep —
//! the checker reads the tile's retire counter after every tick and steps
//! the ISS once per retire — catches any architectural disagreement at the
//! first diverging instruction instead of as a corrupted result buffer a
//! million cycles later.
//!
//! What is compared:
//!
//! * every retire: the PC of the retiring instruction;
//! * whenever the tile is quiescent (no outstanding remote operations, so
//!   no in-flight register fills): the full integer and FP register files;
//! * at the end of the run, after draining the network and flushing the
//!   caches: PC, both register files, the scratchpad, and all DRAM.
//!
//! A divergence produces a [`Divergence`] carrying the disassembled recent
//! retire history.

use crate::func::IssTile;
use crate::machine::{Machine, RunSummary, SimError};
use crate::stats::CoreStats;
use hb_isa::Instr;
use hb_mem::Dram;
use std::collections::VecDeque;
use std::fmt;

/// How many retires of context a [`Divergence`] carries.
const CONTEXT_DEPTH: usize = 12;

/// Cycles the post-run drain may take before giving up.
const DRAIN_BUDGET: u64 = 100_000;

/// First architectural disagreement between the tile and the ISS.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Core cycle of the diverging retire (or the final comparison).
    pub cycle: u64,
    /// PC at the divergence.
    pub pc: u32,
    /// What disagreed.
    pub what: String,
    /// Disassembled recent retire history, oldest first.
    pub context: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "cosim divergence at cycle {}, pc {:#010x}: {}",
            self.cycle, self.pc, self.what
        )?;
        write!(f, "recent retires (oldest first):\n{}", self.context)
    }
}

/// Why a co-simulated run stopped short.
#[derive(Debug)]
pub enum CosimError {
    /// The cycle-level simulation itself failed (fault or timeout).
    Sim(SimError),
    /// The two models disagreed.
    Diverged(Box<Divergence>),
    /// [`Machine::run_cosim`] checks exactly one running tile; this many
    /// were running.
    RunningTiles(usize),
}

impl fmt::Display for CosimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CosimError::Sim(e) => write!(f, "{e}"),
            CosimError::Diverged(d) => write!(f, "{d}"),
            CosimError::RunningTiles(n) => {
                write!(f, "cosim checks exactly one running tile, found {n}")
            }
        }
    }
}

impl std::error::Error for CosimError {}

impl From<SimError> for CosimError {
    fn from(e: SimError) -> CosimError {
        CosimError::Sim(e)
    }
}

/// Summary of a clean co-simulated run.
#[derive(Debug, Clone, Copy)]
pub struct CosimReport {
    /// Instructions checked in lockstep.
    pub instrs: u64,
    /// Full register-file comparisons performed.
    pub reg_compares: u64,
}

/// The lockstep oracle for one tile.
///
/// Create it *after* launching the kernel (it snapshots the launched
/// state), let it [`observe`](CosimChecker::observe) the machine after
/// every tick, and call [`CosimChecker::finish`] once the machine is done.
/// [`Machine::run_cosim`] wraps the whole protocol for the common
/// single-tile case.
#[derive(Debug)]
pub struct CosimChecker {
    iss: IssTile,
    cell: u8,
    xy: (u8, u8),
    /// The tile's pc and retire count at the last observation: the next
    /// retire is of the instruction at that pc.
    pc: u32,
    retired: u64,
    recent: VecDeque<(u64, u32, Instr)>,
    instrs: u64,
    reg_compares: u64,
}

impl CosimChecker {
    /// Snapshots tile `xy` of Cell `cell` (which must be launched) into a
    /// fresh golden model.
    pub fn new(machine: &Machine, cell: u8, xy: (u8, u8)) -> CosimChecker {
        let tile = machine.cell(cell).tile(xy.0, xy.1);
        CosimChecker {
            iss: IssTile::from_machine(machine, cell, xy),
            cell,
            xy,
            pc: tile.pc(),
            retired: tile.stats().instrs,
            recent: VecDeque::with_capacity(CONTEXT_DEPTH),
            instrs: 0,
            reg_compares: 0,
        }
    }

    /// Disassembled recent retire history, oldest first.
    pub fn context(&self) -> String {
        let mut out = String::new();
        for (cycle, pc, instr) in &self.recent {
            out.push_str(&format!("  [{cycle:>8}] {pc:08x}: {instr}\n"));
        }
        if out.is_empty() {
            out.push_str("  (no retires observed)\n");
        }
        out
    }

    fn diverge(&self, cycle: u64, pc: u32, what: String) -> Box<Divergence> {
        Box::new(Divergence {
            cycle,
            pc,
            what,
            context: self.context(),
        })
    }

    fn compare_regfiles(
        &mut self,
        machine: &Machine,
        cycle: u64,
        pc: u32,
    ) -> Result<(), Box<Divergence>> {
        let tile = machine.cell(self.cell).tile(self.xy.0, self.xy.1);
        self.reg_compares += 1;
        for i in 0..32 {
            let t = tile.arch_regs()[i];
            let s = self.iss.hart.regs[i];
            if t != s {
                return Err(self.diverge(
                    cycle,
                    pc,
                    format!("x{i} mismatch: tile={t:#010x} iss={s:#010x}"),
                ));
            }
            let tf = tile.arch_fregs()[i].to_bits();
            let sf = self.iss.hart.fregs[i].to_bits();
            if tf != sf {
                return Err(self.diverge(
                    cycle,
                    pc,
                    format!("f{i} mismatch: tile bits={tf:#010x} iss bits={sf:#010x}"),
                ));
            }
        }
        Ok(())
    }

    /// Reads the checked tile after a tick: if its retire counter moved
    /// on by one, steps the ISS once and compares. A tile retires at most
    /// one instruction per cycle, so call this after every tick.
    ///
    /// # Errors
    ///
    /// The first architectural disagreement, with disassembled context; a
    /// counter that moved by more than one retire since the last call.
    pub fn observe(&mut self, machine: &Machine) -> Result<(), Box<Divergence>> {
        let cell = machine.cell(self.cell);
        let tile = cell.tile(self.xy.0, self.xy.1);
        let (cycle, pc, instrs) = (cell.cycle(), self.pc, tile.stats().instrs);
        self.pc = tile.pc();
        if instrs == self.retired {
            return Ok(());
        }
        if instrs != self.retired + 1 {
            return Err(self.diverge(
                cycle,
                pc,
                format!(
                    "retire count moved from {} to {instrs} between two observations",
                    self.retired
                ),
            ));
        }
        self.retired = instrs;
        if self.iss.hart.pc != pc {
            return Err(self.diverge(
                cycle,
                pc,
                format!(
                    "pc mismatch: tile retired {pc:#010x}, iss expects {:#010x}",
                    self.iss.hart.pc
                ),
            ));
        }
        self.iss.bus.set_now(cycle);
        if let Err(f) = self.iss.hart.step(&self.iss.program, &mut self.iss.bus) {
            return Err(self.diverge(
                cycle,
                pc,
                format!("iss faulted where the tile retired: {f}"),
            ));
        }
        let instr = (self.iss.program.instr_at(pc)).expect("the iss just stepped this pc");
        if self.recent.len() == CONTEXT_DEPTH {
            self.recent.pop_front();
        }
        self.recent.push_back((cycle, pc, instr));
        self.instrs += 1;
        // Register files are only comparable when no remote fills are in
        // flight (the tile retires remote loads at issue and writes the
        // destination later).
        if tile.outstanding() == 0 {
            self.compare_regfiles(machine, cycle, pc)?;
        }
        Ok(())
    }

    /// Final full-state comparison: PC, register files, scratchpad and all
    /// DRAM. The machine must be done and flushed (`run_cosim` handles the
    /// draining and flushing).
    ///
    /// # Errors
    ///
    /// The first disagreement found.
    pub fn finish(mut self, machine: &Machine) -> Result<CosimReport, Box<Divergence>> {
        let cycle = machine.cycle();
        let tile = machine.cell(self.cell).tile(self.xy.0, self.xy.1);
        let pc = tile.pc();
        if self.iss.hart.pc != pc {
            return Err(self.diverge(
                cycle,
                pc,
                format!(
                    "final pc mismatch: tile {pc:#010x}, iss {:#010x}",
                    self.iss.hart.pc
                ),
            ));
        }
        self.compare_regfiles(machine, cycle, pc)?;
        let tile = machine.cell(self.cell).tile(self.xy.0, self.xy.1);
        let tile_spm = tile.spm();
        let iss_spm = self.iss.bus.spm(0);
        if let Some(off) = (0..tile_spm.len()).find(|&i| tile_spm[i] != iss_spm[i]) {
            return Err(self.diverge(
                cycle,
                pc,
                format!(
                    "SPM mismatch at offset {off:#x}: tile byte {:#04x}, iss byte {:#04x}",
                    tile_spm[off], iss_spm[off]
                ),
            ));
        }
        for (c, shadow) in self.iss.bus.dram.iter().enumerate() {
            let real = machine.cell(c as u8).dram();
            if real != shadow {
                let a = first_difference(real, shadow) & !3;
                return Err(self.diverge(
                    cycle,
                    pc,
                    format!(
                        "DRAM mismatch in cell {c} at {a:#010x}: tile word {:#010x}, iss word {:#010x}",
                        real.read_u32(a),
                        shadow.read_u32(a),
                    ),
                ));
            }
        }
        Ok(CosimReport {
            instrs: self.instrs,
            reg_compares: self.reg_compares,
        })
    }
}

/// The first byte address at which two unequal images of one length
/// differ.
fn first_difference(a: &Dram, b: &Dram) -> u32 {
    const CHUNK: usize = 4096;
    let (mut x, mut y) = ([0; CHUNK], [0; CHUNK]);
    (0..a.len())
        .step_by(CHUNK)
        .find_map(|at| {
            let n = CHUNK.min(a.len() - at);
            a.read_into(at as u32, &mut x[..n]);
            b.read_into(at as u32, &mut y[..n]);
            (0..n).find(|&i| x[i] != y[i]).map(|i| (at + i) as u32)
        })
        .expect("unequal images differ in a byte")
}

impl Machine {
    /// Runs the machine to completion with a lockstep golden-model check
    /// on its single running tile.
    ///
    /// Call after launching exactly one tile (a 1x1 tile group). The tile's
    /// every retire is checked against the ISS; at the end the caches are
    /// flushed and the full architectural state — registers, scratchpad,
    /// DRAM — must match bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`CosimError::RunningTiles`] unless exactly one tile is running,
    /// [`CosimError::Sim`] if the simulation faults or times out,
    /// [`CosimError::Diverged`] on the first disagreement.
    pub fn run_cosim(&mut self, max_cycles: u64) -> Result<(RunSummary, CosimReport), CosimError> {
        let dim = self.config().cell_dim;
        let running: Vec<(u8, (u8, u8))> = (0..self.num_cells() as u8)
            .flat_map(|c| (0..dim.y).flat_map(move |y| (0..dim.x).map(move |x| (c, (x, y)))))
            .filter(|&(c, (x, y))| self.cell(c).tile(x, y).is_running())
            .collect();
        let [(cell, xy)] = running[..] else {
            return Err(CosimError::RunningTiles(running.len()));
        };

        let mut checker = CosimChecker::new(self, cell, xy);

        let start = self.cycle();
        loop {
            // Fault first, mirroring `Machine::run`: a trap on the final
            // budgeted cycle must surface as a fault, not a timeout.
            if let Some(info) = (0..self.num_cells() as u8).find_map(|c| self.cell(c).fault()) {
                return Err(SimError::Fault(Box::new(info)).into());
            }
            if self.all_done() {
                break;
            }
            if self.cycle() - start >= max_cycles {
                let running = (0..self.num_cells() as u8)
                    .map(|c| self.cell(c).running_tiles())
                    .sum();
                return Err(SimError::Timeout {
                    cycles: self.cycle() - start,
                    running_tiles: running,
                    hang: None,
                }
                .into());
            }
            self.tick();
            checker.observe(self).map_err(CosimError::Diverged)?;
        }
        let cycles = self.cycle() - start;

        // Drain in-flight responses (stores issued right before ecall may
        // still be in the network) and flush the caches so DRAM holds the
        // architectural truth.
        let mut spare = 0;
        while self.cell(cell).tile(xy.0, xy.1).outstanding() > 0 {
            assert!(
                spare < DRAIN_BUDGET,
                "network failed to drain after completion"
            );
            self.tick();
            spare += 1;
        }
        self.flush_all_caches();

        let mut core = CoreStats::default();
        for c in 0..self.num_cells() as u8 {
            core += self.cell(c).core_stats();
        }
        let report = checker.finish(self).map_err(CosimError::Diverged)?;
        Ok((RunSummary { cycles, core }, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellDim, MachineConfig};
    use hb_asm::Assembler;
    use std::sync::Arc;

    /// A `w`x1 Cell; `launched` puts four nops and an ecall on every tile.
    fn machine(w: u8, launched: bool) -> Machine {
        let mut m = Machine::new(MachineConfig {
            cell_dim: CellDim { x: w, y: 1 },
            dram_bytes_per_cell: 1 << 16,
            ..MachineConfig::baseline_16x8()
        });
        if launched {
            let mut a = Assembler::new();
            for _ in 0..4 {
                a.nop();
            }
            a.ecall();
            m.launch(0, &Arc::new(a.assemble(0).unwrap()), &[]);
        }
        m
    }

    /// Ticks and observes until the checker objects.
    fn first_divergence(m: &mut Machine, checker: &mut CosimChecker) -> Box<Divergence> {
        while !m.all_done() {
            m.tick();
            if let Err(d) = checker.observe(m) {
                return d;
            }
        }
        panic!("the run must diverge");
    }

    #[test]
    fn a_tile_one_instruction_ahead_is_a_pc_mismatch() {
        let mut m = machine(1, true);
        let mut checker = CosimChecker::new(&m, 0, (0, 0));
        let t = m.cell(0).tile(0, 0);
        let (regs, fregs, pc, spm) = (*t.arch_regs(), *t.arch_fregs(), t.pc(), t.spm().to_vec());
        let tile = m.cell_mut(0).tile_mut(0, 0);
        tile.restore_arch_state(&regs, &fregs, pc + 4, &spm);
        let d = first_divergence(&mut m, &mut checker);
        assert!(d.what.starts_with("pc mismatch"), "{}", d.what);
    }

    #[test]
    fn an_observation_that_skips_two_retires_is_a_divergence() {
        let mut m = machine(1, true);
        let mut checker = CosimChecker::new(&m, 0, (0, 0));
        while m.cell(0).tile(0, 0).stats().instrs < 2 {
            m.tick();
        }
        let d = checker
            .observe(&m)
            .expect_err("two retires in one observation");
        assert!(d.what.contains("moved from 0 to 2"), "{}", d.what);
    }

    #[test]
    fn a_dram_byte_only_the_tile_wrote_names_its_word() {
        let mut m = machine(1, true);
        let mut checker = CosimChecker::new(&m, 0, (0, 0));
        while !m.all_done() {
            m.tick();
            checker.observe(&m).unwrap();
        }
        m.cell_mut(0).dram_mut().write_u8(0x5003, 0xab);
        let d = checker.finish(&m).expect_err("the images differ");
        assert_eq!(
            d.what,
            "DRAM mismatch in cell 0 at 0x00005000: tile word 0xab000000, iss word 0x00000000"
        );
    }

    #[test]
    fn run_cosim_wants_exactly_one_running_tile() {
        for (w, launched, running) in [(1, false, 0), (2, true, 2)] {
            match machine(w, launched).run_cosim(1000) {
                Err(CosimError::RunningTiles(n)) => assert_eq!(n, running),
                other => panic!("{running} running tiles: {other:?}"),
            }
        }
        let (_, report) = machine(1, true).run_cosim(1000).unwrap();
        assert_eq!(report.instrs, 5);
    }
}
