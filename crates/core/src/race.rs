//! Dynamic barrier-epoch race sanitizer (the FastTrack idea specialized to
//! a BSP machine).
//!
//! HammerBlade kernels order cross-tile communication with exactly two
//! primitives: the `fence` instruction (drain my outstanding remote
//! operations) and the hardware barrier (everyone reached the join). That
//! collapses the general vector-clock problem to a single scalar per tile —
//! its **barrier epoch**, the number of barrier releases it has consumed.
//! Two accesses to the same shared word can race only if they carry the
//! same epoch and come from different tiles.
//!
//! While [`Machine::set_race_check`](crate::Machine::set_race_check) is on, every
//! shared-location access — remote stores and loads over the fabric, AMOs,
//! DRAM traffic, and local-SPM traffic (local SPM is remotely addressable,
//! so a neighbour's remote store can race with the owner's own load) — is
//! stamped `(tile, epoch, kind)` into the per-tile log that
//! [`RaceChecker`] folds into a shadow map. Same-epoch pairs touching the
//! same word from different tiles with at least one write are reported,
//! except AMO-vs-AMO pairs (atomics commute in the memory's FIFO and are
//! the sanctioned same-phase communication idiom).
//!
//! One subtlety: a barrier join issued with remote operations still
//! outstanding (`outstanding > 0` at the join store — the condition
//! `hb-lint` flags as `barrier-without-fence`) does *not* retire those
//! writes. The checker models this by re-stamping the tile's current-epoch
//! remote writes into the next epoch (`extended` accesses), so an unfenced
//! producer is caught racing with its phase-`p+1` consumer.
//!
//! Checking is read-only: the sanitizer never perturbs simulated state, so
//! cycle counts and DRAM contents are bit-identical with it on or off, and
//! reports are reproducible (logs are drained in cell-id then row-major
//! tile order every cycle).

use std::collections::{HashMap, HashSet};

/// Canonical identity of one shared 32-bit word.
///
/// Addresses are canonicalized past the EVA map, so the same physical word
/// reached through different windows (own-tile local window vs. a
/// neighbour's group-SPM window, local-DRAM vs. hashed-global window)
/// compares equal.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RaceLoc {
    /// A word of some tile's scratchpad (mesh coordinates within `cell`).
    Spm { cell: u8, x: u8, y: u8, word: u32 },
    /// A word of a DRAM bank.
    Dram { cell: u8, bank: u8, word: u32 },
}

impl RaceLoc {
    /// Human-readable form used in reports.
    pub fn render(&self) -> String {
        match *self {
            RaceLoc::Spm { cell, x, y, word } => {
                format!("spm cell {cell} tile ({x},{y}) +{word:#x}")
            }
            RaceLoc::Dram { cell, bank, word } => {
                format!("dram cell {cell} bank {bank} +{word:#x}")
            }
        }
    }
}

/// What an access did to the word.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AccessKind {
    Read,
    Write,
    /// Atomic read-modify-write; two AMOs never race with each other.
    Amo,
}

impl AccessKind {
    pub fn is_write(self) -> bool {
        !matches!(self, AccessKind::Read)
    }

    pub fn label(self) -> &'static str {
        match self {
            AccessKind::Read => "read",
            AccessKind::Write => "write",
            AccessKind::Amo => "amo",
        }
    }
}

/// One entry of a tile's race log, drained by the machine each cycle.
#[derive(Clone, Copy, Debug)]
pub(crate) enum TileRaceEvent {
    Access {
        cycle: u64,
        loc: RaceLoc,
        pc: u32,
        kind: AccessKind,
        /// `true` for credited fabric operations (remote store/load, AMO)
        /// whose completion a fence would wait for; only these leak past an
        /// unfenced barrier join.
        remote: bool,
    },
    /// The tile consumed a barrier release. `unfenced` records whether the
    /// join was issued with remote operations still outstanding.
    EpochEnd { unfenced: bool },
}

/// One side of a reported race.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessInfo {
    /// (cell, mesh-x, mesh-y) of the accessing tile.
    pub tile: (u8, u8, u8),
    pub pc: u32,
    pub kind: AccessKind,
    pub cycle: u64,
    /// The access happened in the previous epoch but leaked across an
    /// unfenced barrier join.
    pub extended: bool,
}

/// A same-epoch conflicting pair. `a` is the access the checker saw first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RaceReport {
    pub loc: RaceLoc,
    pub epoch: u32,
    pub a: AccessInfo,
    pub b: AccessInfo,
}

impl RaceReport {
    /// Renders the report, disassembling each side's PC through `disasm`
    /// (called with that side's tile identity).
    pub fn render(&self, mut disasm: impl FnMut((u8, u8, u8), u32) -> Option<String>) -> String {
        let side = |i: &AccessInfo, disasm: &mut dyn FnMut((u8, u8, u8), u32) -> Option<String>| {
            format!(
                "{} by cell {} tile ({},{}) at pc {:#x} [{}] cycle {}{}",
                i.kind.label(),
                i.tile.0,
                i.tile.1,
                i.tile.2,
                i.pc,
                disasm(i.tile, i.pc).unwrap_or_else(|| "?".to_owned()),
                i.cycle,
                if i.extended {
                    " (unfenced, leaked past barrier)"
                } else {
                    ""
                },
            )
        };
        format!(
            "race on {} in epoch {}:\n  {}\n  {}",
            self.loc.render(),
            self.epoch,
            side(&self.a, &mut disasm),
            side(&self.b, &mut disasm),
        )
    }
}

#[derive(Clone, Copy, Debug)]
struct Stored {
    tile: (u8, u8, u8),
    pc: u32,
    kind: AccessKind,
    cycle: u64,
    extended: bool,
}

/// One tile's not-yet-fenced remote writes, keyed `(loc, pc)`.
type PendingWrites = HashMap<(RaceLoc, u32), (AccessKind, u64)>;

#[derive(Debug)]
struct LocState {
    epoch: u32,
    accesses: Vec<Stored>,
}

/// The shadow map: folds per-tile logs into per-word access history and
/// reports conflicts.
///
/// Reports are deduplicated by `(pc, kind)` pair — a racy instruction pair
/// is reported once no matter how many words or tiles it races over — so
/// fixture kernels have exact, stable expected counts.
#[derive(Debug, Default)]
pub struct RaceChecker {
    epochs: HashMap<(u8, u8, u8), u32>,
    locs: HashMap<RaceLoc, LocState>,
    /// Remote writes of each tile's current epoch, deduplicated by
    /// `(loc, pc)`; re-stamped into the next epoch on an unfenced join.
    pending_writes: HashMap<(u8, u8, u8), PendingWrites>,
    seen: HashSet<(u32, AccessKind, u32, AccessKind)>,
    reports: Vec<RaceReport>,
}

impl RaceChecker {
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one tile's drained log into the shadow map.
    pub(crate) fn process(&mut self, tile: (u8, u8, u8), events: &[TileRaceEvent]) {
        for ev in events {
            match *ev {
                TileRaceEvent::Access {
                    cycle,
                    loc,
                    pc,
                    kind,
                    remote,
                } => {
                    let epoch = self.epochs.get(&tile).copied().unwrap_or(0);
                    self.record(
                        epoch,
                        loc,
                        Stored {
                            tile,
                            pc,
                            kind,
                            cycle,
                            extended: false,
                        },
                    );
                    if remote && kind.is_write() {
                        self.pending_writes
                            .entry(tile)
                            .or_default()
                            .insert((loc, pc), (kind, cycle));
                    }
                }
                TileRaceEvent::EpochEnd { unfenced } => {
                    let e = self.epochs.entry(tile).or_insert(0);
                    *e += 1;
                    let next = *e;
                    let pending = self
                        .pending_writes
                        .entry(tile)
                        .or_default()
                        .drain()
                        .collect::<Vec<_>>();
                    if unfenced {
                        // Deterministic replay order for the leaked writes.
                        let mut leaked = pending;
                        leaked.sort_by_key(|&((loc, pc), (_, cycle))| (cycle, pc, loc));
                        for ((loc, pc), (kind, cycle)) in leaked {
                            self.record(
                                next,
                                loc,
                                Stored {
                                    tile,
                                    pc,
                                    kind,
                                    cycle,
                                    extended: true,
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    fn record(&mut self, epoch: u32, loc: RaceLoc, acc: Stored) {
        let st = self.locs.entry(loc).or_insert(LocState {
            epoch,
            accesses: Vec::new(),
        });
        if st.epoch < epoch {
            st.accesses.clear();
            st.epoch = epoch;
        } else if st.epoch > epoch {
            // A lagging tile (epochs of independent groups are not
            // comparable); only same-epoch pairs are checked.
            return;
        }
        let incoming = AccessInfo {
            tile: acc.tile,
            pc: acc.pc,
            kind: acc.kind,
            cycle: acc.cycle,
            extended: acc.extended,
        };
        for prior in &st.accesses {
            if prior.tile == acc.tile {
                continue; // program order on one tile is never a race
            }
            if !(acc.kind.is_write() || prior.kind.is_write()) {
                continue;
            }
            if acc.kind == AccessKind::Amo && prior.kind == AccessKind::Amo {
                continue;
            }
            if self.seen.insert((prior.pc, prior.kind, acc.pc, acc.kind)) {
                self.reports.push(RaceReport {
                    loc,
                    epoch,
                    a: AccessInfo {
                        tile: prior.tile,
                        pc: prior.pc,
                        kind: prior.kind,
                        cycle: prior.cycle,
                        extended: prior.extended,
                    },
                    b: incoming,
                });
            }
        }
        // Deduplicate the stored history by (tile, pc, kind): repeats add
        // no new conflict pairs and this bounds the per-word scan.
        if !st
            .accesses
            .iter()
            .any(|a| a.tile == acc.tile && a.pc == acc.pc && a.kind == acc.kind)
        {
            st.accesses.push(acc);
        }
    }

    pub fn reports(&self) -> &[RaceReport] {
        &self.reports
    }

    /// Clears all shadow state (epochs, histories, dedup) for a fresh
    /// launch; accumulated reports are kept.
    pub fn reset(&mut self) {
        self.epochs.clear();
        self.locs.clear();
        self.pending_writes.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: (u8, u8, u8) = (0, 0, 1);
    const T1: (u8, u8, u8) = (0, 1, 1);
    const LOC: RaceLoc = RaceLoc::Dram {
        cell: 0,
        bank: 0,
        word: 0x40,
    };

    fn access(cycle: u64, pc: u32, kind: AccessKind, remote: bool) -> TileRaceEvent {
        TileRaceEvent::Access {
            cycle,
            loc: LOC,
            pc,
            kind,
            remote,
        }
    }

    #[test]
    fn same_epoch_write_write_conflicts() {
        let mut c = RaceChecker::new();
        c.process(T0, &[access(1, 0x10, AccessKind::Write, true)]);
        c.process(T1, &[access(2, 0x20, AccessKind::Write, true)]);
        assert_eq!(c.reports().len(), 1);
        let r = &c.reports()[0];
        assert_eq!(r.a.tile, T0);
        assert_eq!(r.b.tile, T1);
        assert_eq!(r.epoch, 0);
    }

    #[test]
    fn barrier_separates_epochs() {
        let mut c = RaceChecker::new();
        c.process(
            T0,
            &[
                access(1, 0x10, AccessKind::Write, true),
                TileRaceEvent::EpochEnd { unfenced: false },
            ],
        );
        c.process(T1, &[TileRaceEvent::EpochEnd { unfenced: false }]);
        c.process(T1, &[access(5, 0x20, AccessKind::Read, true)]);
        assert!(c.reports().is_empty());
    }

    #[test]
    fn unfenced_join_leaks_writes_into_next_epoch() {
        let mut c = RaceChecker::new();
        c.process(
            T0,
            &[
                access(1, 0x10, AccessKind::Write, true),
                TileRaceEvent::EpochEnd { unfenced: true },
            ],
        );
        c.process(T1, &[TileRaceEvent::EpochEnd { unfenced: false }]);
        c.process(T1, &[access(5, 0x20, AccessKind::Read, true)]);
        assert_eq!(c.reports().len(), 1);
        assert!(c.reports()[0].a.extended);
        assert_eq!(c.reports()[0].epoch, 1);
    }

    #[test]
    fn amo_amo_is_exempt_but_amo_store_is_not() {
        let mut c = RaceChecker::new();
        c.process(T0, &[access(1, 0x10, AccessKind::Amo, true)]);
        c.process(T1, &[access(2, 0x20, AccessKind::Amo, true)]);
        assert!(c.reports().is_empty());
        c.process(T1, &[access(3, 0x24, AccessKind::Write, true)]);
        assert_eq!(c.reports().len(), 1);
    }

    #[test]
    fn reads_never_conflict_and_pairs_dedup() {
        let mut c = RaceChecker::new();
        c.process(T0, &[access(1, 0x10, AccessKind::Read, true)]);
        c.process(T1, &[access(2, 0x20, AccessKind::Read, true)]);
        assert!(c.reports().is_empty());
        c.process(T0, &[access(3, 0x14, AccessKind::Write, true)]);
        c.process(T0, &[access(4, 0x14, AccessKind::Write, true)]);
        assert_eq!(c.reports().len(), 1); // one pair vs T1's read, deduped
    }
}
