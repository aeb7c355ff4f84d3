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
//!
//! # What a build costs
//!
//! A parked tile costs the build nothing. The build walks bitmaps
//! ([`hb_mem::WorkSet`]) derived from the per-tile park state instead of
//! scanning it: the timed sleepers, only once the earliest `wake_at` has
//! come; one popcount per 64 tiles for the `skipped` count; and the active
//! tiles that are awake, one masked word at a time. The per-tile arrays stay
//! the checkpointed state, and the bitmaps are rebuilt from them after a
//! restore.

use crate::phase::PhaseClock;
use crate::stats::StallKind;
use crate::tile::Tile;
use hb_mem::{SnapError, WorkSet};

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

/// Per-Cell wake-list state. The park state proper is struct-of-arrays
/// (`asleep`, `wake_at`, `park_cycle`, `park_kind`, one entry per tile):
/// that is what a checkpoint holds. A build never scans it. It walks three
/// bitmaps derived from it instead, kept exact wherever `asleep` is
/// written: the Cell's active tiles, the asleep ones, and the asleep ones
/// with a finite `wake_at`.
#[derive(Debug)]
pub(crate) struct TileSched {
    asleep: Vec<bool>,
    wake_at: Vec<u64>,
    /// First cycle the tile has *not* been stepped for; [`NOT_PARKED`]
    /// when it owes nothing.
    park_cycle: Vec<u64>,
    park_kind: Vec<Option<StallKind>>,
    /// The Cell's active tiles (set at launch and after a restore).
    active: WorkSet,
    /// The tiles with `asleep` set.
    parked: WorkSet,
    /// The parked tiles a timer wakes: `wake_at` is finite.
    timed: WorkSet,
    /// No timed tile wakes before this cycle: the earliest `wake_at` in
    /// `timed`, or a lower bound on it once an event has woken that tile.
    next_wake: u64,
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
            active: WorkSet::new(tiles),
            parked: WorkSet::new(tiles),
            timed: WorkSet::new(tiles),
            next_wake: u64::MAX,
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
        self.forget_sleepers();
    }

    /// Clears the bitmaps of the asleep tiles.
    fn forget_sleepers(&mut self) {
        self.parked.clear();
        self.timed.clear();
        self.next_wake = u64::MAX;
    }

    /// Takes the Cell's active tiles, at a launch or after a restore.
    ///
    /// # Errors
    ///
    /// [`SnapError::Bad`] when a tile outside every group is asleep: only a
    /// step parks a tile, only active tiles step, and a launch wakes every
    /// tile, so no machine writes that state.
    pub(crate) fn set_active(&mut self, active: &[bool]) -> Result<(), SnapError> {
        self.active.clear();
        for i in (0..active.len()).filter(|&i| active[i]) {
            self.active.insert(i);
        }
        match self.parked.iter_and_not(&self.active).next() {
            Some(_) => Err(SnapError::Bad("wake list parks a tile outside every group")),
            None => Ok(()),
        }
    }

    /// After a restore: the bitmaps of the asleep tiles, from the arrays.
    fn check_restored(&mut self) -> Result<(), SnapError> {
        self.forget_sleepers();
        for i in (0..self.asleep.len()).filter(|&i| self.asleep[i]) {
            self.parked.insert(i);
            if self.wake_at[i] != u64::MAX {
                self.timed.insert(i);
                self.next_wake = self.next_wake.min(self.wake_at[i]);
            }
        }
        Ok(())
    }

    /// Whether the three bitmaps and the timer horizon agree with the
    /// arrays and with the Cell's `active` flags.
    fn bitmaps_are_exact(&self, active: &[bool]) -> bool {
        (0..self.asleep.len()).all(|i| {
            let timed = self.asleep[i] && self.wake_at[i] != u64::MAX;
            self.active.contains(i) == active[i]
                && self.parked.contains(i) == self.asleep[i]
                && self.timed.contains(i) == timed
                && (!timed || self.wake_at[i] >= self.next_wake)
        })
    }

    /// Re-arms tile `i`: it will be stepped next cycle and credited its
    /// owed stalls. Cheap and idempotent — callers wake on any delivery or
    /// mutation without checking why the tile slept.
    pub(crate) fn wake(&mut self, i: usize) {
        if self.asleep[i] {
            self.asleep[i] = false;
            self.parked.remove(i);
            self.timed.remove(i);
            self.rearms += 1;
        }
    }

    /// Takes a `Sleep` hint tile `i`'s step at cycle `now` returned.
    fn park(&mut self, i: usize, kind: Option<StallKind>, wake_at: u64, now: u64) {
        self.asleep[i] = true;
        self.parked.insert(i);
        if wake_at != u64::MAX {
            self.timed.insert(i);
            self.next_wake = self.next_wake.min(wake_at);
        }
        self.wake_at[i] = wake_at;
        self.park_kind[i] = kind;
        self.park_cycle[i] = now + 1;
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
        self.forget_sleepers();
    }

    /// Runs one tile phase: wakes due sleepers, credits owed stalls, steps
    /// the wake list and, if `park`, takes each new park hint as its step
    /// returns it. With `park` off every active tile is due — a sleeper can
    /// then only come from a checkpoint captured under the park policy, and
    /// is woken and credited like any other. The build is billed to the
    /// clock's `sched` bucket; the steps and the hints they return, to
    /// `tiles`. `active` is the Cell's own flags, which the bitmaps mirror.
    pub(crate) fn run_cycle(
        &mut self,
        tiles: &mut [Tile],
        active: &[bool],
        now: u64,
        park: bool,
        clock: &mut impl PhaseClock,
    ) {
        debug_assert!(
            self.bitmaps_are_exact(active),
            "a wake-list bitmap drifted from the park state"
        );
        self.build(tiles, now, park);
        clock.lap(|t| &mut t.sched);

        // Step only the wake list, and record each new park as it comes and
        // whether the tile, still in cache, left work for a later phase.
        for k in 0..self.run_list.len() {
            let i = self.run_list[k] as usize;
            let hint = tiles[i].step(now);
            if tiles[i].left_work() {
                self.with_work.push(i as u32);
            }
            if let Park::Sleep { kind, wake_at } = hint {
                if park {
                    self.park(i, kind, wake_at, now);
                    tiles[i].push_obs(now, crate::observe::ObsKind::Park(kind));
                }
            }
        }
        self.stepped += self.run_list.len() as u64;
        clock.lap(|t| &mut t.tiles);
    }

    /// The build: wakes the sleepers that are due — every one under
    /// never-park, the expired timers (looked at only once the horizon
    /// `next_wake` has come) under park — counts the active sleepers as
    /// skipped, and lists the active tiles that are awake, crediting each
    /// its owed stalls.
    fn build(&mut self, tiles: &mut [Tile], now: u64, park: bool) {
        self.run_list.clear();
        self.with_work.clear();
        if !park || now >= self.next_wake {
            // Under never-park every sleeper is due, under park every
            // expired timer; the timers left set the new horizon.
            self.next_wake = u64::MAX;
            let mut cursor = 0;
            while let Some(i) = (if park { &self.timed } else { &self.parked }).first_from(cursor) {
                cursor = i + 1;
                if park && self.wake_at[i] > now {
                    self.next_wake = self.next_wake.min(self.wake_at[i]);
                } else {
                    self.wake(i);
                }
            }
        }
        self.skipped += self.active.count_and(&self.parked) as u64;
        for i in self.active.iter_and_not(&self.parked) {
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
    }
}

// `run_list` and `with_work` are rebuilt every cycle (and read only until
// the next); the bitmaps and `next_wake` are derived from the arrays.
hb_mem::snap_state!(TileSched [b"SCHD"] {
    save: stepped, skipped, rearms;
    fixed: asleep, wake_at, park_cycle, park_kind;
    host: active, parked, timed, next_wake, run_list, with_work;
} check check_restored);

/// The dense build scan the bitmaps replaced, kept as the oracle of
/// `bitmap_build_matches_the_dense_scan`: every tile's `active` and `asleep`
/// flags, every cycle. It reads and writes only the arrays and counters.
#[cfg(test)]
impl TileSched {
    fn build_reference(&mut self, tiles: &mut [Tile], active: &[bool], now: u64, park: bool) {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CellDim, MachineConfig};
    use crate::pgas::PgasMap;
    use hb_mem::{SnapReader, SnapState, SnapWriter};
    use std::sync::Arc;

    /// The oracle for the bitmap build: two schedulers over two sets of
    /// tiles, one building from the bitmaps, one by the dense scan, driven
    /// through the same seeded parks (timed, untimed, already expired),
    /// event wakes, launches and restores — the bitmap side restored into a
    /// fresh scheduler from its own checkpoint — under both policies. Under
    /// never-park the parks stand for sleepers a checkpoint brought in. Run
    /// lists, `stepped`/`skipped`/`rearms`, every tile's credited stalls and
    /// the checkpointed arrays must agree after every build, and the
    /// bitmaps must equal their recount.
    #[test]
    fn bitmap_build_matches_the_dense_scan() {
        let cfg = Arc::new(MachineConfig {
            cell_dim: CellDim { x: 10, y: 7 },
            ..MachineConfig::baseline_16x8()
        });
        let n = cfg.cell_dim.tiles();
        let pgas = PgasMap::new(&cfg, 0);
        let tiles = || -> Vec<Tile> {
            (0..n)
                .map(|i| Tile::new(cfg.clone(), pgas, ((i % 10) as u8, (i / 10) as u8)))
                .collect()
        };
        let kinds = [
            None,
            Some(StallKind::Barrier),
            Some(StallKind::RemoteLoad),
            Some(StallKind::IcacheMiss),
        ];
        for park in [true, false] {
            for seed in 1..=3 {
                let mut rng = hb_rng::Rng::seed_from_u64(seed);
                let (mut fast, mut slow) = (TileSched::new(n), TileSched::new(n));
                let (mut fast_tiles, mut slow_tiles) = (tiles(), tiles());
                let mut active = vec![false; n];
                let (mut launches, mut restores, mut timer_wakes) = (0, 0, 0);
                for now in 1..=3000u64 {
                    let tag = format!("park {park}, seed {seed}, cycle {now}");
                    if now == 1 || rng.chance(0.003) {
                        fast.settle(&mut fast_tiles, now - 1);
                        slow.settle(&mut slow_tiles, now - 1);
                        fast.reset();
                        slow.reset();
                        let share = rng.f64();
                        active = (0..n).map(|_| rng.chance(share)).collect();
                        fast.set_active(&active).unwrap();
                        launches += 1;
                    }
                    if rng.chance(0.005) {
                        let mut w = SnapWriter::new();
                        fast.save_state(&mut w);
                        let bytes = w.into_bytes();
                        fast = TileSched::new(n);
                        fast.load_state(&mut SnapReader::new(&bytes)).unwrap();
                        fast.set_active(&active).unwrap();
                        restores += 1;
                    }
                    for _ in 0..rng.index(4) {
                        let i = rng.index(n);
                        fast.wake(i);
                        slow.wake(i);
                    }
                    let rearms = slow.rearms;
                    assert!(fast.bitmaps_are_exact(&active), "{tag}");
                    fast.build(&mut fast_tiles, now, park);
                    slow.build_reference(&mut slow_tiles, &active, now, park);
                    timer_wakes += slow.rearms - rearms;
                    assert_eq!(fast.run_list, slow.run_list, "{tag}");
                    let counters = |s: &TileSched| (s.stepped, s.skipped, s.rearms);
                    assert_eq!(counters(&fast), counters(&slow), "{tag}");
                    let arrays =
                        |s: &TileSched| (s.asleep.clone(), s.wake_at.clone(), s.park_cycle.clone());
                    assert!(arrays(&fast) == arrays(&slow), "{tag}");
                    assert_eq!(fast.park_kind, slow.park_kind, "{tag}");
                    for i in 0..n {
                        assert_eq!(fast_tiles[i].stats(), slow_tiles[i].stats(), "{tag}");
                    }
                    for s in [&mut fast, &mut slow] {
                        s.stepped += s.run_list.len() as u64;
                    }
                    for k in 0..fast.run_list.len() {
                        let i = fast.run_list[k] as usize;
                        if rng.chance(if park { 0.5 } else { 0.02 }) {
                            let kind = *rng.pick(&kinds);
                            let wake_at = match rng.index(4) {
                                0 => u64::MAX,
                                1 => now.saturating_sub(rng.below(3)),
                                _ => now + 1 + rng.below(40),
                            };
                            fast.park(i, kind, wake_at, now);
                            slow.park(i, kind, wake_at, now);
                        }
                    }
                }
                assert!(
                    launches > 3 && restores > 3 && timer_wakes > 100,
                    "seed {seed}"
                );
                assert!(!park || fast.skipped > fast.stepped, "seed {seed}");
            }
        }
    }

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
