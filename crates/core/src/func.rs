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
//!
//! One intentional divergence from the tile: sub-word (`lb`/`lh`) reads of
//! CSR space are sign-extended here but not by the tile. Kernels read CSRs
//! with `lw`, where the two agree bit-for-bit.

use crate::machine::{Machine, SimError};
use crate::pgas::{csr, PgasMap, Target};
use crate::tile::GroupInfo;
use hb_asm::Program;
use hb_isa::AmoOp;
use hb_iss::{Bus, Hart, IssFault, StopReason, StoreEffect};
use hb_noc::Coord;
use std::sync::Arc;

fn read_bytes(buf: &[u8], offset: u32, width: u8) -> u32 {
    let o = offset as usize;
    let mut v = 0u32;
    for i in (0..width as usize).rev() {
        v = (v << 8) | u32::from(buf[o + i]);
    }
    v
}

fn write_bytes(buf: &mut [u8], offset: u32, width: u8, value: u32) {
    let o = offset as usize;
    for i in 0..width as usize {
        buf[o + i] = (value >> (8 * i)) as u8;
    }
}

/// DRAM backing for a [`FuncBus`]: either an owned snapshot
/// ([`SnapshotDram`]) or the machine's real DRAM ([`BorrowedDram`]).
pub trait DramStore {
    /// Reads `width` bytes at a Cell-local address.
    fn read(&mut self, cell: u8, addr: u32, width: u8) -> u32;
    /// Writes the low `width` bytes of `data`.
    fn write(&mut self, cell: u8, addr: u32, width: u8, data: u32);
    /// Applies an AMO, returning the old word.
    fn amo(&mut self, cell: u8, addr: u32, op: AmoOp, data: u32) -> u32 {
        let old = self.read(cell, addr, 4);
        self.write(cell, addr, 4, op.apply(old, data));
        old
    }
}

impl<D: DramStore + ?Sized> DramStore for &mut D {
    fn read(&mut self, cell: u8, addr: u32, width: u8) -> u32 {
        (**self).read(cell, addr, width)
    }
    fn write(&mut self, cell: u8, addr: u32, width: u8, data: u32) {
        (**self).write(cell, addr, width, data);
    }
}

/// A private copy of every Cell's DRAM contents.
///
/// Functional runs against a snapshot leave the machine untouched, and the
/// co-simulation checker compares its snapshot against the real DRAM after
/// the caches flush.
#[derive(Debug, Clone)]
pub struct SnapshotDram {
    cells: Vec<Vec<u8>>,
}

impl SnapshotDram {
    /// Copies the DRAM of every Cell in `machine`.
    pub fn from_machine(machine: &Machine) -> SnapshotDram {
        let cells = (0..machine.num_cells())
            .map(|c| {
                let dram = machine.cell(c as u8).dram();
                let mut image = vec![0; dram.len()];
                dram.read_into(0, &mut image);
                image
            })
            .collect();
        SnapshotDram { cells }
    }

    /// The snapshot of Cell `cell`.
    pub fn cell(&self, cell: u8) -> &[u8] {
        &self.cells[cell as usize]
    }
}

impl DramStore for SnapshotDram {
    fn read(&mut self, cell: u8, addr: u32, width: u8) -> u32 {
        read_bytes(&self.cells[cell as usize], addr, width)
    }
    fn write(&mut self, cell: u8, addr: u32, width: u8, data: u32) {
        write_bytes(&mut self.cells[cell as usize], addr, width, data);
    }
}

/// Direct mutable access to every Cell's real DRAM (fast-forward writes
/// kernel init state straight into the machine).
#[derive(Debug)]
pub struct BorrowedDram<'a> {
    cells: Vec<&'a mut hb_mem::Dram>,
}

impl<'a> BorrowedDram<'a> {
    /// Wraps mutable borrows of each Cell's DRAM, in Cell-id order.
    pub fn new(cells: Vec<&'a mut hb_mem::Dram>) -> BorrowedDram<'a> {
        BorrowedDram { cells }
    }
}

impl DramStore for BorrowedDram<'_> {
    fn read(&mut self, cell: u8, addr: u32, width: u8) -> u32 {
        let d = &self.cells[cell as usize];
        match width {
            1 => u32::from(d.read_u8(addr)),
            2 => u32::from(d.read_u16(addr)),
            _ => d.read_u32(addr),
        }
    }
    fn write(&mut self, cell: u8, addr: u32, width: u8, data: u32) {
        let d = &mut self.cells[cell as usize];
        match width {
            1 => d.write_u8(addr, data as u8),
            2 => d.write_u16(addr, data as u16),
            _ => d.write_u32(addr, data),
        }
    }
}

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
/// accesses between them resolve), per-tile CSR identity, and a pluggable
/// [`DramStore`]. Before stepping a hart, select its tile with
/// [`FuncBus::set_cur`]; feed the CYCLE CSR with [`FuncBus::set_now`].
#[derive(Debug)]
pub struct FuncBus<D> {
    pgas: PgasMap,
    ctxs: Vec<TileCtx>,
    spms: Vec<Vec<u8>>,
    cur: usize,
    now: u64,
    /// The DRAM side of the address space.
    pub dram: D,
}

impl<D: DramStore> FuncBus<D> {
    /// Builds a bus over `tiles` (context + initial SPM image pairs, all in
    /// the Cell `pgas` describes) and `dram`.
    pub fn new(pgas: PgasMap, tiles: Vec<(TileCtx, Vec<u8>)>, dram: D) -> FuncBus<D> {
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
}

impl<D: DramStore> Bus for FuncBus<D> {
    fn load(&mut self, addr: u32, width: u8) -> Result<u32, String> {
        match self.pgas.translate(addr).map_err(|e| e.to_string())? {
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
            Target::Bank { cell, addr, .. } => Ok(self.dram.read(cell, addr, width)),
        }
    }

    fn store(&mut self, addr: u32, width: u8, data: u32) -> Result<StoreEffect, String> {
        match self.pgas.translate(addr).map_err(|e| e.to_string())? {
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
                self.dram.write(cell, addr, width, data);
                Ok(StoreEffect::Done)
            }
        }
    }

    fn amo(&mut self, addr: u32, op: AmoOp, data: u32) -> Result<u32, String> {
        match self.pgas.translate(addr).map_err(|e| e.to_string())? {
            Target::Bank { cell, addr, .. } => Ok(self.dram.amo(cell, addr, op, data)),
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
            _ => Err(format!("AMO to non-atomic space at {addr:#x}")),
        }
    }

    fn now(&self) -> u64 {
        self.now
    }
}

/// A standalone functional copy of one launched tile: its own [`Hart`],
/// SPM image and DRAM snapshot. Running it never perturbs the machine —
/// this is what the throughput benchmark and the differential fuzzer use.
#[derive(Debug)]
pub struct IssTile {
    /// The functional hart.
    pub hart: Hart,
    /// Its PGAS bus (SPM image index 0, DRAM snapshot).
    pub bus: FuncBus<SnapshotDram>,
    /// The kernel image.
    pub program: Arc<Program>,
}

impl IssTile {
    /// Snapshots tile `xy` of Cell `cell` — which must be launched — into
    /// a functional model, copying its registers, PC, SPM and every Cell's
    /// DRAM.
    ///
    /// # Panics
    ///
    /// Panics if the tile has no program loaded.
    pub fn from_machine(machine: &Machine, cell: u8, xy: (u8, u8)) -> IssTile {
        let c = machine.cell(cell);
        let tile = c.tile(xy.0, xy.1);
        let program = tile
            .program()
            .expect("IssTile::from_machine needs a launched tile")
            .clone();
        let ctx = TileCtx {
            xy,
            group: tile.group(),
            args: tile.args(),
        };
        let bus = FuncBus::new(
            *c.pgas(),
            vec![(ctx, tile.spm().to_vec())],
            SnapshotDram::from_machine(machine),
        );
        let mut hart = Hart::new();
        hart.regs = *tile.arch_regs();
        hart.fregs = *tile.arch_fregs();
        hart.pc = tile.pc();
        IssTile { hart, bus, program }
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

struct TileSnap {
    cell: u8,
    xy: (u8, u8),
    regs: [u32; 32],
    fregs: [f32; 32],
    pc: u32,
    spm: Vec<u8>,
    ctx: TileCtx,
    program: Arc<Program>,
}

impl Machine {
    /// Fast-forwards every launched tile through its kernel init phase on
    /// the functional model, then injects the resulting architectural
    /// state back into the cycle-level tiles.
    ///
    /// Each tile executes functionally — against its real SPM image and
    /// the machine's real DRAM — until its first barrier join, `ecall`, or
    /// `max_instrs_per_tile`, whichever comes first. Tiles stopped at a
    /// barrier are injected with the PC of the join store so the barrier
    /// itself is executed cycle-accurately; a subsequent
    /// [`Machine::run`] then simulates only the post-init phases.
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

        // Phase A: snapshot the launched tiles' architectural state.
        let dim = self.config().cell_dim;
        let mut pgases = Vec::new();
        let mut snaps: Vec<Vec<TileSnap>> = Vec::new();
        for c in 0..self.num_cells() as u8 {
            let cell = self.cell(c);
            pgases.push(*cell.pgas());
            let mut cell_snaps = Vec::new();
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
                    cell_snaps.push(TileSnap {
                        cell: c,
                        xy: (x, y),
                        regs: *tile.arch_regs(),
                        fregs: *tile.arch_fregs(),
                        pc: tile.pc(),
                        spm: tile.spm().to_vec(),
                        ctx: TileCtx {
                            xy: (x, y),
                            group: tile.group(),
                            args: tile.args(),
                        },
                        program: tile
                            .program()
                            .expect("running tile without program")
                            .clone(),
                    });
                }
            }
            snaps.push(cell_snaps);
        }

        // Phase B: run functionally against the real DRAM.
        let mut report = WarmupReport::default();
        let mut results: Vec<TileSnap> = Vec::new();
        {
            let mut dram =
                BorrowedDram::new(self.cells_mut().iter_mut().map(|c| c.dram_mut()).collect());
            for (pgas, cell_snaps) in pgases.into_iter().zip(snaps) {
                if cell_snaps.is_empty() {
                    continue;
                }
                let tiles = cell_snaps.iter().map(|s| (s.ctx, s.spm.clone())).collect();
                let mut bus = FuncBus::new(pgas, tiles, &mut dram);
                for (idx, mut snap) in cell_snaps.into_iter().enumerate() {
                    bus.set_cur(idx);
                    let mut hart = Hart::new();
                    hart.regs = snap.regs;
                    hart.fregs = snap.fregs;
                    hart.pc = snap.pc;
                    let final_pc;
                    loop {
                        if hart.stats.instrs >= max_instrs_per_tile {
                            report.out_of_budget += 1;
                            final_pc = hart.pc;
                            break;
                        }
                        let pc_before = hart.pc;
                        match hart.step(&snap.program, &mut bus) {
                            Ok(hb_iss::Step::Retired) => {}
                            Ok(hb_iss::Step::Barrier) => {
                                // Park on the join store itself: the tile
                                // re-executes it and joins for real.
                                report.at_barrier += 1;
                                final_pc = pc_before;
                                break;
                            }
                            Ok(hb_iss::Step::Ecall) => {
                                // PC parks at the ecall; the tile will
                                // re-execute it and finish in one cycle.
                                report.finished += 1;
                                final_pc = hart.pc;
                                break;
                            }
                            Err(f) => {
                                return Err(SimError::Fault(Box::new(
                                    crate::diag::FaultInfo::host(format!(
                                        "functional warmup of tile ({},{}) cell {}: {f}",
                                        snap.xy.0, snap.xy.1, snap.cell
                                    )),
                                )));
                            }
                        }
                    }
                    report.tiles += 1;
                    report.instrs += hart.stats.instrs;
                    snap.regs = hart.regs;
                    snap.fregs = hart.fregs;
                    snap.pc = final_pc;
                    snap.spm.clear();
                    results.push(snap);
                }
                // Pull the (possibly cross-written) SPM images back out.
                let n = results.len();
                for (idx, snap) in results[n - bus_tiles(&bus)..].iter_mut().enumerate() {
                    snap.spm = bus.spm(idx).to_vec();
                }
            }
        }

        // Phase C: inject.
        for snap in &results {
            let tile = self.cell_mut(snap.cell).tile_mut(snap.xy.0, snap.xy.1);
            tile.restore_arch_state(&snap.regs, &snap.fregs, snap.pc, &snap.spm);
        }
        Ok(report)
    }
}

fn bus_tiles<D>(bus: &FuncBus<D>) -> usize {
    bus.ctxs.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use crate::pgas;

    fn bus_1x1() -> FuncBus<SnapshotDram> {
        let cfg = MachineConfig::baseline_16x8();
        let machine = Machine::new(cfg);
        let pg = *machine.cell(0).pgas();
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
        FuncBus::new(
            pg,
            vec![(ctx, vec![0; pg.spm_bytes as usize])],
            SnapshotDram::from_machine(&machine),
        )
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
}
