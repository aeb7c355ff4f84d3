//! Guest-code profiling: exact retired-PC histograms with per-PC
//! stall-cycle attribution.
//!
//! While [`Machine::set_profile`](crate::Machine::set_profile) is on, every
//! launched tile keeps a `TileProfile` of its program and records three
//! things as it executes:
//!
//! - **retires** — one count at the PC of every retired instruction,
//! - **stalls** — one count per stall cycle, at the PC the core was
//!   stalled on, bucketed by [`StallKind`],
//! - **phases** — the value of the last `MARK` CSR store, so histograms
//!   are kept per program phase (kernels that never mark accumulate into
//!   the single [`UNMARKED`] phase).
//!
//! The capture is exact, not sampled: `retired + stalled` summed over the
//! histogram equals the tile's cycle taxonomy. It is also deterministic by
//! construction — each tile writes only its own buffer, and the wake
//! list's bulk stall credits land on the same PC a never-parked tile would
//! have recorded cycle-by-cycle, because a parked tile's PC cannot change
//! while it is parked. Profiles are therefore bit-identical across both
//! park policies (`MachineConfig::event_core`).
//!
//! Folding ([`Machine::guest_profile`](crate::Machine::guest_profile)) is
//! the only aggregation step: the tiles running the profiled program merge
//! row-major into a [`GuestProfile`], with any still-outstanding stall
//! debt of parked tiles added virtually (the same owed-aware read the
//! stats accessors use) so a mid-run fold matches a never-parked run too.

use crate::stats::StallKind;
use hb_asm::Program;
use hb_isa::INSTR_BYTES;

/// Phase id used before the first `MARK` CSR store of a tile.
pub const UNMARKED: u32 = u32::MAX;

/// One phase's histograms: parallel arrays indexed by instruction index.
#[derive(Debug, Clone)]
struct PhaseHist {
    /// Instructions retired at each PC.
    retired: Vec<u64>,
    /// Stall cycles at each PC, `instr_index * StallKind::COUNT + kind`.
    stalls: Vec<u64>,
}

impl PhaseHist {
    fn new(len: usize) -> PhaseHist {
        PhaseHist {
            retired: vec![0; len],
            stalls: vec![0; len * StallKind::COUNT],
        }
    }
}

/// Per-tile capture buffer. Allocated by `Tile::launch` while profiling is
/// on; every record is two loads, one bounds check and one increment.
#[derive(Debug, Clone)]
pub(crate) struct TileProfile {
    base: u32,
    len: usize,
    /// Index into `phases` of the current phase.
    cur: usize,
    /// `(mark, histograms)` in first-seen order; re-marking an earlier
    /// phase resumes its existing histograms.
    phases: Vec<(u32, PhaseHist)>,
}

impl TileProfile {
    pub(crate) fn new(base: u32, len: usize) -> TileProfile {
        TileProfile {
            base,
            len,
            cur: 0,
            phases: vec![(UNMARKED, PhaseHist::new(len))],
        }
    }

    /// An empty buffer for `program`'s image.
    pub(crate) fn boxed(program: &Program) -> Box<TileProfile> {
        Box::new(TileProfile::new(program.base(), program.instrs().len()))
    }

    /// Whether this buffer counts `program`'s instructions.
    pub(crate) fn describes(&self, program: &Program) -> bool {
        (self.base, self.len) == (program.base(), program.instrs().len())
    }

    /// Instruction index of `pc`, if it lies inside the program image
    /// (trapped/wild PCs record nothing).
    #[inline]
    fn idx(&self, pc: u32) -> Option<usize> {
        let off = pc.wrapping_sub(self.base) as usize / INSTR_BYTES as usize;
        (pc >= self.base && off < self.len).then_some(off)
    }

    #[inline]
    pub(crate) fn record_retire(&mut self, pc: u32) {
        if let Some(i) = self.idx(pc) {
            self.phases[self.cur].1.retired[i] += 1;
        }
    }

    #[inline]
    pub(crate) fn record_stall(&mut self, pc: u32, kind: StallKind) {
        self.record_stall_n(pc, kind, 1);
    }

    #[inline]
    pub(crate) fn record_stall_n(&mut self, pc: u32, kind: StallKind, n: u64) {
        if let Some(i) = self.idx(pc) {
            self.phases[self.cur].1.stalls[i * StallKind::COUNT + kind as usize] += n;
        }
    }

    /// Switches the phase bucket (a `MARK` CSR store).
    pub(crate) fn set_phase(&mut self, mark: u32) {
        if let Some(i) = self.phases.iter().position(|(m, _)| *m == mark) {
            self.cur = i;
        } else {
            self.phases.push((mark, PhaseHist::new(self.len)));
            self.cur = self.phases.len() - 1;
        }
    }

    /// The phase currently accumulating.
    pub(crate) fn cur_mark(&self) -> u32 {
        self.phases[self.cur].0
    }

    /// After a decode: the current-phase index and every histogram length
    /// are what `record_*` index by.
    fn check_shape(&mut self) -> Result<(), hb_mem::SnapError> {
        use hb_mem::SnapError;
        if self.cur >= self.phases.len() {
            return Err(SnapError::Bad("TileProfile phase index out of range"));
        }
        let stalls = self.len.checked_mul(StallKind::COUNT);
        if (self.phases.iter())
            .any(|(_, h)| h.retired.len() != self.len || Some(h.stalls.len()) != stalls)
        {
            return Err(SnapError::Bad("TileProfile histogram length mismatch"));
        }
        Ok(())
    }
}

hb_mem::snap_value!(PhaseHist { retired, stalls });
hb_mem::snap_value!(TileProfile [b"PROF"] { base, len, cur, phases } check check_shape);

/// Histograms of one phase, folded across tiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseProfile {
    /// The `MARK` value that opened the phase ([`UNMARKED`] before any).
    pub mark: u32,
    /// Instructions retired at each PC (indexed by instruction index).
    pub retired: Vec<u64>,
    /// Stall cycles, `instr_index * StallKind::COUNT + kind as usize`.
    pub stalls: Vec<u64>,
}

impl PhaseProfile {
    /// Stall cycles of `kind` attributed to instruction `idx`.
    pub fn stall(&self, idx: usize, kind: StallKind) -> u64 {
        self.stalls[idx * StallKind::COUNT + kind as usize]
    }

    /// All stall cycles attributed to instruction `idx`.
    pub fn stall_cycles(&self, idx: usize) -> u64 {
        self.stalls[idx * StallKind::COUNT..(idx + 1) * StallKind::COUNT]
            .iter()
            .sum()
    }
}

/// A machine-wide guest-code profile: per-phase, per-PC retire and stall
/// histograms folded over every profiled tile, in a deterministic order
/// (phases sorted [`UNMARKED`]-first then by mark value; tiles row-major).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GuestProfile {
    /// Byte address of instruction 0.
    pub base: u32,
    /// Instructions in the program image.
    pub instrs: usize,
    /// Per-phase histograms.
    pub phases: Vec<PhaseProfile>,
}

impl GuestProfile {
    pub(crate) fn new(base: u32, instrs: usize) -> GuestProfile {
        GuestProfile {
            base,
            instrs,
            phases: Vec::new(),
        }
    }

    /// Byte address of instruction `idx`.
    pub fn pc_of(&self, idx: usize) -> u32 {
        self.base + (idx as u32) * INSTR_BYTES
    }

    /// Total instructions retired across all phases.
    pub fn retired_total(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.retired.iter().sum::<u64>())
            .sum()
    }

    /// Total stall cycles across all phases.
    pub fn stall_total(&self) -> u64 {
        self.phases
            .iter()
            .map(|p| p.stalls.iter().sum::<u64>())
            .sum()
    }

    /// The folded phase for `mark`, created in sorted position on first
    /// use ([`UNMARKED`] sorts first so the default phase leads).
    fn phase_mut(&mut self, mark: u32) -> &mut PhaseProfile {
        let key = |m: u32| if m == UNMARKED { None } else { Some(m) };
        let pos = self
            .phases
            .binary_search_by_key(&key(mark), |p| key(p.mark))
            .unwrap_or_else(|insert| {
                self.phases.insert(
                    insert,
                    PhaseProfile {
                        mark,
                        retired: vec![0; self.instrs],
                        stalls: vec![0; self.instrs * StallKind::COUNT],
                    },
                );
                insert
            });
        &mut self.phases[pos]
    }

    /// Accumulates one tile's buffer.
    pub(crate) fn merge_tile(&mut self, tp: &TileProfile) {
        debug_assert_eq!((tp.base, tp.len), (self.base, self.instrs));
        for (mark, hist) in &tp.phases {
            let phase = self.phase_mut(*mark);
            for (dst, src) in phase.retired.iter_mut().zip(&hist.retired) {
                *dst += src;
            }
            for (dst, src) in phase.stalls.iter_mut().zip(&hist.stalls) {
                *dst += src;
            }
        }
    }

    /// Adds stall debt a parked tile still owes (the virtual counterpart
    /// of `Tile::credit_stalls`, at the same unchanged PC).
    pub(crate) fn add_owed(&mut self, mark: u32, pc: u32, kind: StallKind, n: u64) {
        let off = pc.wrapping_sub(self.base) as usize / INSTR_BYTES as usize;
        if pc < self.base || off >= self.instrs {
            return;
        }
        self.phase_mut(mark).stalls[off * StallKind::COUNT + kind as usize] += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_are_bounds_guarded_and_phase_bucketed() {
        let mut tp = TileProfile::new(0x100, 4);
        tp.record_retire(0x100);
        tp.record_retire(0x10c);
        tp.record_retire(0x0fc); // below base: dropped
        tp.record_retire(0x110); // past the image: dropped
        tp.record_stall(0x104, StallKind::Barrier);
        tp.set_phase(7);
        tp.record_retire(0x100);
        tp.set_phase(UNMARKED); // resume the default phase
        tp.record_stall_n(0x104, StallKind::Barrier, 5);

        let mut gp = GuestProfile::new(0x100, 4);
        gp.merge_tile(&tp);
        assert_eq!(gp.phases.len(), 2);
        assert_eq!(gp.phases[0].mark, UNMARKED, "unmarked phase sorts first");
        assert_eq!(gp.phases[1].mark, 7);
        assert_eq!(gp.phases[0].retired, vec![1, 0, 0, 1]);
        assert_eq!(gp.phases[0].stall(1, StallKind::Barrier), 6);
        assert_eq!(gp.phases[1].retired, vec![1, 0, 0, 0]);
        assert_eq!(gp.retired_total(), 3);
        assert_eq!(gp.stall_total(), 6);
    }

    #[test]
    fn fold_is_order_independent_across_tiles() {
        let mut a = TileProfile::new(0, 2);
        a.set_phase(3);
        a.record_retire(0);
        let mut b = TileProfile::new(0, 2);
        b.set_phase(1);
        b.record_retire(4);

        let mut ab = GuestProfile::new(0, 2);
        ab.merge_tile(&a);
        ab.merge_tile(&b);
        let mut ba = GuestProfile::new(0, 2);
        ba.merge_tile(&b);
        ba.merge_tile(&a);
        assert_eq!(ab, ba);
        // Every tile opens the UNMARKED phase; it sorts first, then marks
        // ascending regardless of which tile introduced them.
        assert_eq!(
            ab.phases.iter().map(|p| p.mark).collect::<Vec<_>>(),
            vec![UNMARKED, 1, 3],
            "phases sort unmarked-first then by mark value"
        );
    }

    #[test]
    fn owed_debt_lands_on_the_parking_pc() {
        let mut gp = GuestProfile::new(0, 2);
        gp.add_owed(UNMARKED, 4, StallKind::Barrier, 10);
        gp.add_owed(UNMARKED, 8, StallKind::Barrier, 99); // out of image
        assert_eq!(gp.phases[0].stall(1, StallKind::Barrier), 10);
        assert_eq!(gp.stall_total(), 10);
    }
}
