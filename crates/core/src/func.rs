//! Functional (ISS-backed) execution over HammerBlade's PGAS address map.
//!
//! [`hb_iss::Hart`] knows nothing about EVAs; this module supplies the
//! missing half: [`FuncBus`] translates every load/store/AMO exactly like a
//! cycle-level tile does — SPM bounds traps, CSR reads, group-SPM
//! redirection, DRAM banks — but applies them immediately instead of
//! issuing network requests. Three consumers build on it:
//!
//! * [`IssTile`] — a standalone functional copy of one launched tile, used
//!   by the throughput benchmark and the differential fuzzer.
//! * [`crate::cosim::CosimChecker`] — lockstep co-simulation oracle.
//! * [`crate::Machine::warmup_functional`] — fast-forward of kernel init
//!   phases.

use crate::machine::{Machine, SimError};
use crate::pgas::{csr, PgasMap, Target};
use crate::tile::{read_bytes, write_bytes, GroupInfo, Tile};
use hb_asm::Program;
use hb_isa::AmoOp;
use hb_iss::{Bus, Hart, IssFault, Step, StopReason, StoreEffect};
use hb_mem::Dram;
use hb_noc::Coord;
use std::sync::Arc;

/// Per-hart identity: everything the CSR file and the group-SPM
/// redirection need to know about "which tile am I".
#[derive(Debug, Clone, Copy)]
pub struct TileCtx {
    /// Tile coordinates within the Cell.
    pub xy: (u8, u8),
    /// Tile-group identity (CSRs).
    pub group: GroupInfo,
    /// Kernel arguments (ARG CSRs).
    pub args: [u32; 8],
}

/// A [`Bus`] with cycle-level-tile memory semantics over one Cell.
///
/// Holds the scratchpads of every modelled tile in the Cell (so group-SPM
/// accesses between them resolve), per-tile CSR identity, and one DRAM
/// image per Cell of the machine. Before stepping a hart, select its tile
/// with [`FuncBus::set_cur`]; feed the CYCLE CSR with [`FuncBus::set_now`].
#[derive(Debug)]
pub struct FuncBus {
    pgas: PgasMap,
    ctxs: Vec<TileCtx>,
    spms: Vec<Vec<u8>>,
    cur: usize,
    now: u64,
    /// The DRAM side of the address space, indexed by Cell id.
    pub dram: Vec<Dram>,
}

impl FuncBus {
    /// Builds a bus over `tiles` (context + initial SPM image pairs, all in
    /// the Cell `pgas` describes) and `dram`, every Cell's image in Cell-id
    /// order.
    pub fn new(pgas: PgasMap, tiles: Vec<(TileCtx, Vec<u8>)>, dram: Vec<Dram>) -> FuncBus {
        assert!(!tiles.is_empty(), "a FuncBus needs at least one tile");
        let (ctxs, spms) = tiles.into_iter().unzip();
        FuncBus {
            pgas,
            ctxs,
            spms,
            cur: 0,
            now: 0,
            dram,
        }
    }

    /// Selects which modelled tile issues subsequent accesses.
    pub fn set_cur(&mut self, idx: usize) {
        assert!(idx < self.ctxs.len());
        self.cur = idx;
    }

    /// Sets the value the CYCLE CSR reads (co-simulation forwards the
    /// cycle-level clock here so both models see identical time).
    pub fn set_now(&mut self, now: u64) {
        self.now = now;
    }

    /// The SPM image of modelled tile `idx`.
    pub fn spm(&self, idx: usize) -> &[u8] {
        &self.spms[idx]
    }

    /// The context of modelled tile `idx`.
    pub fn ctx(&self, idx: usize) -> &TileCtx {
        &self.ctxs[idx]
    }

    fn tile_index(&self, tile: Coord) -> Result<usize, String> {
        self.ctxs
            .iter()
            .position(|c| c.xy.0 == tile.x && c.xy.1 == tile.y)
            .ok_or_else(|| {
                format!(
                    "functional access to unmodelled tile ({},{})",
                    tile.x, tile.y
                )
            })
    }

    /// Mirror of the tile's CSR file.
    fn csr_read(&self, offset: u32) -> Option<u32> {
        let ctx = &self.ctxs[self.cur];
        Some(match offset {
            csr::TILE_X => u32::from(ctx.xy.0),
            csr::TILE_Y => u32::from(ctx.xy.1),
            csr::TG_X => u32::from(ctx.group.origin.0),
            csr::TG_Y => u32::from(ctx.group.origin.1),
            csr::TG_W => u32::from(ctx.group.dim.0),
            csr::TG_H => u32::from(ctx.group.dim.1),
            csr::TG_RANK => {
                let lx = u32::from(ctx.xy.0 - ctx.group.origin.0);
                let ly = u32::from(ctx.xy.1 - ctx.group.origin.1);
                ly * u32::from(ctx.group.dim.0) + lx
            }
            csr::TG_SIZE => u32::from(ctx.group.dim.0) * u32::from(ctx.group.dim.1),
            csr::TG_LIVE_RANK => ctx.group.live_rank,
            csr::TG_LIVE_SIZE => ctx.group.live_size,
            csr::TG_ADOPT => ctx.group.adopt,
            csr::CELL_W => u32::from(self.pgas.cell_w),
            csr::CELL_H => u32::from(self.pgas.cell_h),
            csr::CELL_ID => u32::from(self.pgas.cell_id),
            csr::NUM_CELLS => u32::from(self.pgas.num_cells),
            csr::CYCLE => self.now as u32,
            o if (csr::ARG0..csr::ARG0 + 32).contains(&o) => {
                ctx.args[((o - csr::ARG0) / 4) as usize]
            }
            _ => return None,
        })
    }

    fn spm_load(&self, idx: usize, offset: u32, width: u8, local: bool) -> Result<u32, String> {
        if offset + u32::from(width) > self.pgas.spm_bytes {
            if local {
                // The tile traps on a local overrun...
                return Err(format!("SPM load overrun at {offset:#x}"));
            }
            // ...but a remote tile's SPM service answers overruns with 0.
            return Ok(0);
        }
        Ok(read_bytes(&self.spms[idx], offset, width))
    }

    fn spm_store(
        &mut self,
        idx: usize,
        offset: u32,
        width: u8,
        data: u32,
        local: bool,
    ) -> Result<StoreEffect, String> {
        if offset + u32::from(width) > self.pgas.spm_bytes {
            if local {
                return Err(format!("SPM store overrun at {offset:#x}"));
            }
            // Remote overrun stores are dropped by the SPM service.
            return Ok(StoreEffect::Done);
        }
        write_bytes(&mut self.spms[idx], offset, width, data);
        Ok(StoreEffect::Done)
    }

    /// Reads a `width`-byte DRAM word of Cell `cell` at its local `addr`
    /// (from `eva`): refused, as the tile refuses it, if it leaves its
    /// cache line.
    fn dram_load(&self, eva: u32, cell: u8, addr: u32, width: u8) -> Result<u32, String> {
        self.pgas.check_line(eva, addr, width)?;
        let mut bytes = [0; 4];
        self.dram[cell as usize].read_into(addr, &mut bytes[..width as usize]);
        Ok(u32::from_le_bytes(bytes))
    }

    /// Writes the low `width` bytes of `data`, refused like
    /// [`dram_load`](Self::dram_load).
    fn dram_store(
        &mut self,
        eva: u32,
        cell: u8,
        addr: u32,
        width: u8,
        data: u32,
    ) -> Result<(), String> {
        self.pgas.check_line(eva, addr, width)?;
        self.dram[cell as usize].write_bytes(addr, &data.to_le_bytes()[..width as usize]);
        Ok(())
    }
}

impl Bus for FuncBus {
    fn load(&mut self, eva: u32, width: u8) -> Result<u32, String> {
        match self.pgas.translate(eva).map_err(|e| e.to_string())? {
            Target::LocalSpm { offset } => self.spm_load(self.cur, offset, width, true),
            Target::Csr { offset } => (self.csr_read(offset))
                .map(|word| csr::narrow(word, offset))
                .ok_or_else(|| format!("read of unknown CSR {offset:#x}")),
            Target::RemoteSpm { tile, offset } => {
                let own = self.ctxs[self.cur].xy;
                if tile == Coord::new(own.0, own.1) {
                    // Group space naming ourselves is a local access,
                    // including its trap-on-overrun behaviour.
                    return self.spm_load(self.cur, offset, width, true);
                }
                let idx = self.tile_index(tile)?;
                self.spm_load(idx, offset, width, false)
            }
            Target::Bank { cell, addr, .. } => self.dram_load(eva, cell, addr, width),
        }
    }

    fn store(&mut self, eva: u32, width: u8, data: u32) -> Result<StoreEffect, String> {
        match self.pgas.translate(eva).map_err(|e| e.to_string())? {
            Target::LocalSpm { offset } => self.spm_store(self.cur, offset, width, data, true),
            Target::Csr { offset } => match offset {
                csr::BARRIER => Ok(StoreEffect::Barrier),
                // Kernel-phase marker: architecturally a no-op, mirroring
                // the cycle-accurate tile.
                csr::MARK => Ok(StoreEffect::Done),
                _ => Err(format!("store to read-only CSR {offset:#x}")),
            },
            Target::RemoteSpm { tile, offset } => {
                let own = self.ctxs[self.cur].xy;
                if tile == Coord::new(own.0, own.1) {
                    return self.spm_store(self.cur, offset, width, data, true);
                }
                let idx = self.tile_index(tile)?;
                self.spm_store(idx, offset, width, data, false)
            }
            Target::Bank { cell, addr, .. } => {
                self.dram_store(eva, cell, addr, width, data)?;
                Ok(StoreEffect::Done)
            }
        }
    }

    fn amo(&mut self, eva: u32, op: AmoOp, data: u32) -> Result<u32, String> {
        match self.pgas.translate(eva).map_err(|e| e.to_string())? {
            Target::Bank { cell, addr, .. } => {
                let old = self.dram_load(eva, cell, addr, 4)?;
                self.dram_store(eva, cell, addr, 4, op.apply(old, data))?;
                Ok(old)
            }
            Target::RemoteSpm { tile, offset } => {
                // The tile sends group-space AMOs over the network even to
                // itself; the SPM service applies them (flags/mailboxes).
                let idx = self.tile_index(tile)?;
                if offset + 4 > self.pgas.spm_bytes {
                    return Err(format!("SPM AMO overrun at {offset:#x}"));
                }
                let old = read_bytes(&self.spms[idx], offset, 4);
                write_bytes(&mut self.spms[idx], offset, 4, op.apply(old, data));
                Ok(old)
            }
            _ => Err(format!("AMO to non-atomic space at {eva:#x}")),
        }
    }

    fn now(&self) -> u64 {
        self.now
    }
}

/// The architectural state of one launched tile, as the functional model
/// takes it over: identity, a hart holding its registers and PC, its SPM
/// image and its program.
struct TileSnap {
    ctx: TileCtx,
    hart: Hart,
    spm: Vec<u8>,
    program: Arc<Program>,
}

impl TileSnap {
    /// Reads tile `xy`, or `None` if it has no program loaded.
    fn read(tile: &Tile, xy: (u8, u8)) -> Option<TileSnap> {
        let mut hart = Hart::new();
        hart.regs = *tile.arch_regs();
        hart.fregs = *tile.arch_fregs();
        hart.pc = tile.pc();
        Some(TileSnap {
            ctx: TileCtx {
                xy,
                group: tile.group(),
                args: tile.args(),
            },
            hart,
            spm: tile.spm().to_vec(),
            program: tile.program()?.clone(),
        })
    }
}

/// A standalone functional copy of one launched tile: its own [`Hart`],
/// SPM image and copy of every Cell's DRAM. Running it never perturbs the
/// machine — this is what the throughput benchmark and the differential
/// fuzzer use.
#[derive(Debug)]
pub struct IssTile {
    /// The functional hart.
    pub hart: Hart,
    /// Its PGAS bus (SPM image index 0, the DRAM copy).
    pub bus: FuncBus,
    /// The kernel image.
    pub program: Arc<Program>,
}

impl IssTile {
    /// Copies tile `xy` of Cell `cell` — which must be launched — into a
    /// functional model: its registers, PC, SPM and every Cell's DRAM (a
    /// clone of the written pages).
    ///
    /// # Panics
    ///
    /// Panics if the tile has no program loaded.
    pub fn from_machine(machine: &Machine, cell: u8, xy: (u8, u8)) -> IssTile {
        let c = machine.cell(cell);
        let snap = TileSnap::read(c.tile(xy.0, xy.1), xy)
            .expect("IssTile::from_machine needs a launched tile");
        let dram = (0..machine.num_cells())
            .map(|c| machine.cell(c as u8).dram().clone())
            .collect();
        IssTile {
            hart: snap.hart,
            bus: FuncBus::new(*c.pgas(), vec![(snap.ctx, snap.spm)], dram),
            program: snap.program,
        }
    }

    /// Runs to `ecall` or until `max_instrs` retire. Barrier joins retire
    /// and continue (the 1x1-group semantics — a lone tile's barrier
    /// releases immediately).
    ///
    /// # Errors
    ///
    /// Propagates architectural faults from the hart.
    pub fn run(&mut self, max_instrs: u64) -> Result<StopReason, IssFault> {
        self.hart.run(&self.program, &mut self.bus, max_instrs)
    }
}

/// Outcome of [`Machine::warmup_functional`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WarmupReport {
    /// Tiles fast-forwarded.
    pub tiles: usize,
    /// Total instructions executed functionally.
    pub instrs: u64,
    /// Tiles parked at their first barrier join (they re-execute the join
    /// cycle-accurately after injection).
    pub at_barrier: usize,
    /// Tiles that ran all the way to `ecall` functionally.
    pub finished: usize,
    /// Tiles stopped by the per-tile instruction budget.
    pub out_of_budget: usize,
}

/// Runs each of `snaps`, the tiles `bus` models in order, to its first
/// barrier join, `ecall` or `budget` instructions, and leaves in each snap
/// the state to inject: the hart, its pc on the join store after a barrier
/// (the tile re-executes the join for real) and on the `ecall` after an
/// `ecall` (the tile re-executes it and finishes in one cycle), and the SPM
/// image, which the other tiles may have written.
fn warm_cell(
    bus: &mut FuncBus,
    snaps: &mut [TileSnap],
    budget: u64,
    report: &mut WarmupReport,
) -> Result<(), SimError> {
    for (idx, snap) in snaps.iter_mut().enumerate() {
        bus.set_cur(idx);
        let hart = &mut snap.hart;
        loop {
            if hart.stats.instrs >= budget {
                report.out_of_budget += 1;
                break;
            }
            let pc_before = hart.pc;
            match hart.step(&snap.program, bus) {
                Ok(Step::Retired) => {}
                Ok(Step::Barrier) => {
                    report.at_barrier += 1;
                    hart.pc = pc_before;
                    break;
                }
                Ok(Step::Ecall) => {
                    report.finished += 1;
                    break;
                }
                Err(f) => {
                    return Err(SimError::Fault(Box::new(crate::diag::FaultInfo::host(
                        format!(
                            "functional warmup of tile ({},{}) cell {}: {f}",
                            snap.ctx.xy.0, snap.ctx.xy.1, bus.pgas.cell_id
                        ),
                    ))));
                }
            }
        }
        report.tiles += 1;
        report.instrs += hart.stats.instrs;
    }
    for (idx, snap) in snaps.iter_mut().enumerate() {
        snap.spm = bus.spm(idx).to_vec();
    }
    Ok(())
}

impl Machine {
    /// Fast-forwards every launched tile through its kernel init phase on
    /// the functional model, then injects the resulting architectural
    /// state back into the cycle-level tiles.
    ///
    /// Each tile executes functionally — against its real SPM image and
    /// the machine's own DRAM, moved into the functional bus and back —
    /// until its first barrier join, `ecall`, or `max_instrs_per_tile`,
    /// whichever comes first. Tiles stopped at a barrier are injected with
    /// the PC of the join store so the barrier itself is executed
    /// cycle-accurately; a subsequent [`Machine::run`] then simulates only
    /// the post-init phases.
    ///
    /// Tiles run one after another, so the init phase up to the first
    /// barrier must be free of cross-tile data races (the usual contract
    /// for bulk-synchronous kernels; racy interleavings are undefined on
    /// the cycle-level machine too).
    ///
    /// # Errors
    ///
    /// [`SimError::Fault`] if a tile faults functionally or is not
    /// quiescent. The machine's DRAM may be partially written at that
    /// point; treat the fault as fatal to the run.
    pub fn warmup_functional(
        &mut self,
        max_instrs_per_tile: u64,
    ) -> Result<WarmupReport, SimError> {
        // Dirty cache lines would be invisible to the functional DRAM
        // accesses (and stale after injection): start clean.
        self.flush_all_caches();

        // Phase A: read the launched tiles' architectural state.
        let dim = self.config().cell_dim;
        let mut cells = Vec::new();
        for c in 0..self.num_cells() as u8 {
            let cell = self.cell(c);
            let mut snaps = Vec::new();
            for y in 0..dim.y {
                for x in 0..dim.x {
                    let tile = cell.tile(x, y);
                    if !tile.is_running() {
                        continue;
                    }
                    if tile.outstanding() > 0 {
                        return Err(SimError::Fault(Box::new(crate::diag::FaultInfo::host(
                            format!(
                            "warmup_functional needs quiescent tiles; ({x},{y}) has in-flight ops"
                        ),
                        ))));
                    }
                    snaps.push(TileSnap::read(tile, (x, y)).expect("running tile without program"));
                }
            }
            cells.push((*cell.pgas(), snaps));
        }

        // Phase B: run functionally on the machine's DRAM, which each
        // Cell's bus holds in turn and which goes back on every path.
        let mut report = WarmupReport::default();
        let mut dram: Vec<Dram> = (self.cells_mut().iter_mut())
            .map(|c| std::mem::replace(c.dram_mut(), Dram::new(0)))
            .collect();
        let warmed: Result<Vec<_>, SimError> = (cells.into_iter())
            .filter(|(_, snaps)| !snaps.is_empty())
            .map(|(pgas, mut snaps)| {
                let tiles = snaps.iter().map(|s| (s.ctx, s.spm.clone())).collect();
                let mut bus = FuncBus::new(pgas, tiles, std::mem::take(&mut dram));
                let ran = warm_cell(&mut bus, &mut snaps, max_instrs_per_tile, &mut report);
                dram = bus.dram;
                ran.map(|()| (pgas.cell_id, snaps))
            })
            .collect();
        for (cell, image) in self.cells_mut().iter_mut().zip(dram) {
            *cell.dram_mut() = image;
        }

        // Phase C: inject.
        for (c, snaps) in warmed? {
            for snap in snaps {
                let (x, y) = snap.ctx.xy;
                let hart = &snap.hart;
                let tile = self.cell_mut(c).tile_mut(x, y);
                tile.restore_arch_state(&hart.regs, &hart.fregs, hart.pc, &snap.spm);
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::pgas;

    fn bus_1x1() -> FuncBus {
        let pg = PgasMap::new(&MachineConfig::baseline_16x8(), 0);
        let ctx = TileCtx {
            xy: (0, 0),
            group: GroupInfo {
                origin: (0, 0),
                dim: (1, 1),
                barrier_id: 0,
                live_rank: 0,
                live_size: 1,
                adopt: crate::pgas::NO_ADOPTEE,
            },
            args: [7, 0, 0, 0, 0, 0, 0, 0],
        };
        let dram = vec![Dram::new(pg.dram_bytes as usize)];
        FuncBus::new(pg, vec![(ctx, vec![0; pg.spm_bytes as usize])], dram)
    }

    #[test]
    fn spm_and_dram_round_trip() {
        let mut bus = bus_1x1();
        bus.store(pgas::local_spm(16), 4, 0xabcd_0123).unwrap();
        assert_eq!(bus.load(pgas::local_spm(16), 4).unwrap(), 0xabcd_0123);
        bus.store(pgas::local_dram(64), 4, 99).unwrap();
        assert_eq!(bus.load(pgas::local_dram(64), 4).unwrap(), 99);
        assert_eq!(bus.amo(pgas::local_dram(64), AmoOp::Add, 1).unwrap(), 99);
        assert_eq!(bus.load(pgas::local_dram(64), 4).unwrap(), 100);
    }

    #[test]
    fn csr_reads_and_barrier_store() {
        let mut bus = bus_1x1();
        bus.set_now(1234);
        assert_eq!(bus.load(csr::ARG0, 4).unwrap(), 7);
        assert_eq!(bus.load(csr::CYCLE, 4).unwrap(), 1234);
        assert_eq!(bus.load(csr::TG_SIZE, 4).unwrap(), 1);
        assert_eq!(bus.store(csr::BARRIER, 4, 1).unwrap(), StoreEffect::Barrier);
        assert!(bus.store(csr::TILE_X, 4, 1).is_err(), "CSRs are read-only");
    }

    #[test]
    fn traps_match_tile_messages() {
        let mut bus = bus_1x1();
        let spm_bytes = 4096;
        let err = bus.load(pgas::local_spm(spm_bytes - 2), 4).unwrap_err();
        assert!(err.starts_with("SPM load overrun"), "{err}");
        let err = bus.amo(pgas::local_spm(0), AmoOp::Add, 1).unwrap_err();
        assert!(err.starts_with("AMO to non-atomic space"), "{err}");
    }

    #[test]
    fn own_tile_group_space_redirects_to_local() {
        let mut bus = bus_1x1();
        bus.store(pgas::group_spm(0, 0, 32), 4, 77).unwrap();
        assert_eq!(bus.load(pgas::local_spm(32), 4).unwrap(), 77);
    }

    /// A word that leaves its cache line — mid-window, and at the last two
    /// bytes of the window — faults the functional warmup as it traps the
    /// tile, and the machine keeps its DRAM.
    #[test]
    fn warmup_faults_on_a_word_across_a_cache_line() {
        use hb_asm::Assembler;
        use hb_isa::Gpr;
        let cfg = MachineConfig {
            cell_dim: crate::CellDim { x: 1, y: 1 },
            ..MachineConfig::baseline_16x8()
        };
        for offset in [cfg.line_bytes - 3, cfg.dram_bytes_per_cell - 2] {
            let mut m = Machine::new(cfg.clone());
            m.cell_mut(0).dram_mut().write_u32(0, 0x5eed);
            let mut a = Assembler::new();
            a.li(Gpr::T0, pgas::local_dram(offset) as i32);
            a.lw(Gpr::A0, Gpr::T0, 0);
            a.ecall();
            m.launch(0, &Arc::new(a.assemble(0).unwrap()), &[]);
            match m.warmup_functional(1000) {
                Err(SimError::Fault(info)) => {
                    assert!(
                        info.cause.contains("crosses its cache line"),
                        "{}",
                        info.cause
                    )
                }
                other => panic!("lw at DRAM offset {offset:#x}: {other:?}"),
            }
            let dram = m.cell(0).dram();
            assert_eq!(
                (dram.len(), dram.read_u32(0)),
                (cfg.dram_bytes_per_cell as usize, 0x5eed)
            );
        }
    }
}
