//! The tile phase of [`Cell::tick`](crate::Cell::tick): one wake-list loop
//! that steps the tiles due this cycle, under one of two *park policies*.
//!
//! # Model
//!
//! The paper's workloads leave most of a 16x8 Cell barrier-parked,
//! scoreboard-blocked or riding out a multi-cycle penalty for long
//! stretches. After each step a tile reports a [`Park`] hint — either
//! `Awake` (step me again next cycle) or `Sleep` (skip me until cycle
//! `wake_at`, or until a wake event re-arms me). Under the *park* policy
//! ([`MachineConfig::event_core`](crate::MachineConfig::event_core) on, the
//! default) the hint is taken: a sleeping tile leaves the wake list and
//! owes exactly one stall of a constant [`StallKind`] per skipped cycle;
//! the debt is credited in bulk the next time it steps (or virtually, by
//! the owed-aware stats accessors on [`Cell`](crate::Cell)). Under the
//! *never-park* policy (`event_core` off) the same loop ignores the hints,
//! so every active tile is due every cycle and records its own stalls —
//! the every-tile-every-cycle reference the park hints are proved against:
//! every counter must come out bit-identical under both policies.
//!
//! # Why skipping is sound
//!
//! A tile only sleeps when *every* per-cycle effect of stepping it is
//! provably constant over the skipped window:
//!
//! - its inboxes, staging queue and combining latch are empty (a step
//!   would drain/serve nothing), and
//! - its next action is a stall of one fixed kind: `Done` / idle (it will
//!   never run again), `Barrier` (cleared only by the Cell's sync phase),
//!   `RemoteLoad` (cleared only by a response delivery), `Fence` with
//!   outstanding ops (ditto), or a timed penalty (`IcacheMiss`,
//!   `BranchMiss`, `Frozen`, ... — expires at a known cycle).
//!
//! Every event that could change that state runs through the Cell and
//! re-arms the tile *at the same cycle a never-parked tile would observe
//! it*: packet ejection and fabric staging in the network phase, barrier
//! release in the sync phase, and any host/fault mutation through
//! [`Cell::tile_mut`](crate::Cell::tile_mut). Spurious wakes are harmless —
//! the tile steps once, records the stall it would have recorded anyway,
//! and parks again.

use crate::phase::PhaseClock;
use crate::stats::StallKind;
use crate::tile::Tile;

/// Sentinel for "not parked" in [`TileSched::park_cycle`].
const NOT_PARKED: u64 = u64::MAX;

/// A tile's scheduling hint after one step: keep stepping it every cycle,
/// or skip it until a wake event (or `wake_at`, whichever comes first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Park {
    /// The tile may make progress next cycle: step it.
    Awake,
    /// The tile provably stalls every cycle until re-armed.
    Sleep {
        /// The stall a never-parked tile records per skipped cycle;
        /// `None` for idle/trapped tiles, which record nothing.
        kind: Option<StallKind>,
        /// First cycle the tile must step again on its own (`u64::MAX`
        /// when only an external event can unblock it).
        wake_at: u64,
    },
}

/// Per-Cell wake-list state, struct-of-arrays so the per-cycle scan only
/// touches two dense vectors (`asleep`, `wake_at`) in the common case.
#[derive(Debug)]
pub(crate) struct TileSched {
    asleep: Vec<bool>,
    wake_at: Vec<u64>,
    /// First cycle the tile has *not* been stepped for; [`NOT_PARKED`]
    /// when it owes nothing.
    park_cycle: Vec<u64>,
    park_kind: Vec<Option<StallKind>>,
    /// Scratch: indices of tiles to step this cycle.
    run_list: Vec<u32>,
    /// Scratch: the stepped tiles whose step left work for the sync or
    /// inject phase, in `run_list` order.
    with_work: Vec<u32>,
    stepped: u64,
    skipped: u64,
    rearms: u64,
}

impl TileSched {
    pub(crate) fn new(tiles: usize) -> TileSched {
        TileSched {
            asleep: vec![false; tiles],
            wake_at: vec![0; tiles],
            park_cycle: vec![NOT_PARKED; tiles],
            park_kind: vec![None; tiles],
            run_list: Vec::with_capacity(tiles),
            with_work: Vec::with_capacity(tiles),
            stepped: 0,
            skipped: 0,
            rearms: 0,
        }
    }

    /// Forgets all park state (a fresh launch); counters keep accumulating
    /// like the tile stats they sit beside.
    pub(crate) fn reset(&mut self) {
        self.asleep.fill(false);
        self.park_cycle.fill(NOT_PARKED);
        self.park_kind.fill(None);
    }

    /// Re-arms tile `i`: it will be stepped next cycle and credited its
    /// owed stalls. Cheap and idempotent — callers wake on any delivery or
    /// mutation without checking why the tile slept.
    pub(crate) fn wake(&mut self, i: usize) {
        if self.asleep[i] {
            self.asleep[i] = false;
            self.rearms += 1;
        }
    }

    /// Total wake-list re-arms so far (event wakes and timer expiries).
    /// Feeds the hang watchdog's progress signature: a quiescent-but-armed
    /// machine keeps re-arming and therefore keeps making "progress".
    pub(crate) fn rearms(&self) -> u64 {
        self.rearms
    }

    /// The tiles the latest [`run_cycle`](Self::run_cycle) stepped whose
    /// step left a barrier join, a trap or an outgoing packet
    /// ([`Tile::left_work`]), in ascending order: only a step raises a join,
    /// traps or fills an outbox, so these are the only stepped tiles the
    /// sync and inject phases must look into.
    pub(crate) fn with_work(&self) -> &[u32] {
        &self.with_work
    }

    /// `(stepped, skipped)` tile-tick counters.
    pub(crate) fn tick_counts(&self) -> (u64, u64) {
        (self.stepped, self.skipped)
    }

    /// Stalls tile `i` still owes at observation horizon `cycle` (the last
    /// completed Cell cycle), with the kind they carry. Used by the
    /// owed-aware `&self` stats accessors so telemetry, profiling and the
    /// run summary see never-park-identical counters without stepping
    /// anyone.
    pub(crate) fn owed(&self, i: usize, cycle: u64) -> Option<(StallKind, u64)> {
        let kind = self.park_kind[i]?;
        if self.park_cycle[i] == NOT_PARKED {
            return None;
        }
        match (cycle + 1).saturating_sub(self.park_cycle[i]) {
            0 => None,
            n => Some((kind, n)),
        }
    }

    /// Materializes every owed stall into the tiles' own counters and
    /// clears all park state. Called before relaunching, so no debt is
    /// stranded on tiles the next launch leaves inactive.
    pub(crate) fn settle(&mut self, tiles: &mut [Tile], cycle: u64) {
        for (i, tile) in tiles.iter_mut().enumerate() {
            if let Some((kind, n)) = self.owed(i, cycle) {
                tile.credit_stalls(kind, n);
            }
            self.asleep[i] = false;
            self.park_cycle[i] = NOT_PARKED;
            self.park_kind[i] = None;
        }
    }

    /// Runs one tile phase: wakes due sleepers, credits owed stalls, steps
    /// the wake list and, if `park`, takes each new park hint as its step
    /// returns it. With `park` off every active tile is due — a sleeper can
    /// then only come from a checkpoint captured under the park policy, and
    /// is woken and credited like any other. The build scan is billed to
    /// the clock's `sched` bucket; the steps and the hints they return, to
    /// `tiles`.
    pub(crate) fn run_cycle(
        &mut self,
        tiles: &mut [Tile],
        active: &[bool],
        now: u64,
        park: bool,
        clock: &mut impl PhaseClock,
    ) {
        // Build: scan the SoA state, wake due tiles, credit stall debt.
        self.run_list.clear();
        self.with_work.clear();
        for (i, &a) in active.iter().enumerate() {
            if !a {
                continue;
            }
            if self.asleep[i] {
                if park && self.wake_at[i] > now {
                    self.skipped += 1;
                    continue;
                }
                self.asleep[i] = false;
                self.rearms += 1;
            }
            if self.park_cycle[i] != NOT_PARKED {
                let owed = now.saturating_sub(self.park_cycle[i]);
                if owed > 0 {
                    if let Some(kind) = self.park_kind[i] {
                        tiles[i].credit_stalls(kind, owed);
                    }
                }
                self.park_cycle[i] = NOT_PARKED;
                self.park_kind[i] = None;
                tiles[i].push_obs(now, crate::observe::ObsKind::Wake);
            }
            self.run_list.push(i as u32);
        }
        clock.lap(|t| &mut t.sched);

        // Step only the wake list, and record each new park as it comes and
        // whether the tile, still in cache, left work for a later phase.
        for &i in &self.run_list {
            let i = i as usize;
            let hint = tiles[i].step(now);
            if tiles[i].left_work() {
                self.with_work.push(i as u32);
            }
            if let Park::Sleep { kind, wake_at } = hint {
                if park {
                    self.asleep[i] = true;
                    self.wake_at[i] = wake_at;
                    self.park_kind[i] = kind;
                    self.park_cycle[i] = now + 1;
                    tiles[i].push_obs(now, crate::observe::ObsKind::Park(kind));
                }
            }
        }
        self.stepped += self.run_list.len() as u64;
        clock.lap(|t| &mut t.tiles);
    }
}

// `run_list` and `with_work` are rebuilt every cycle (and read only until
// the next).
hb_mem::snap_state!(TileSched [b"SCHD"] {
    save: stepped, skipped, rearms;
    fixed: asleep, wake_at, park_cycle, park_kind;
    host: run_list, with_work;
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owed_counts_every_skipped_cycle_inclusive() {
        let mut s = TileSched::new(1);
        // Parked during cycle 10's tile phase: first skipped cycle is 11.
        s.asleep[0] = true;
        s.wake_at[0] = u64::MAX;
        s.park_cycle[0] = 11;
        s.park_kind[0] = Some(StallKind::Barrier);
        // Observed after cycle 10 completes: nothing owed yet.
        assert_eq!(s.owed(0, 10), None);
        // After cycle 15: cycles 11..=15 were skipped.
        assert_eq!(s.owed(0, 15), Some((StallKind::Barrier, 5)));
    }

    #[test]
    fn idle_tiles_owe_nothing() {
        let mut s = TileSched::new(1);
        s.asleep[0] = true;
        s.park_cycle[0] = 5;
        s.park_kind[0] = None; // trapped/idle: a stepped tile records no stall
        assert_eq!(s.owed(0, 100), None);
    }

    #[test]
    fn wake_is_idempotent_and_counts_rearms() {
        let mut s = TileSched::new(2);
        s.asleep[1] = true;
        s.wake(1);
        s.wake(1);
        s.wake(0); // already awake: no-op
        assert!(!s.asleep[1]);
        assert_eq!(s.rearms(), 1);
    }
}
