//! Deterministic parallel execution engine for the tile phase of
//! [`Cell::tick`](crate::Cell::tick).
//!
//! # Execution model
//!
//! The Cell advances in bulk-synchronous (BSP) phases each core cycle (see
//! `DESIGN.md`, "Parallel execution"):
//!
//! 1. **network** — router pipelines advance; packets are ejected into
//!    per-tile/per-bank inboxes,
//! 2. **memory** — cache banks, refill strips and the HBM2 channel,
//! 3. **tiles** — every due tile executes one pipeline cycle
//!    ([`Tile::step`](crate::Tile::step)): icache, hazards, SPM, the
//!    remote-op scoreboard, inbox draining and outbox filling (which tiles
//!    are due is the wake list's business, see `crate::sched`),
//! 4. **sync** — barrier-network joins and releases,
//! 5. **inject** — tile/bank outboxes drain into the routers.
//!
//! During phase 3 a tile touches only its own state: inboxes were filled in
//! phase 1 (latched — nothing writes them again until the next cycle) and
//! outboxes are drained in phase 5, so the inbox/outbox pairs act as the
//! double buffers between the tile phase and the sequencing phases. Tiles
//! therefore step independently, and executing them on any number of worker
//! threads produces *bit-identical* architectural state, statistics and
//! network traffic to the single-threaded in-order schedule (verified by
//! `crates/core/tests/determinism.rs` across the whole kernel suite).
//!
//! [`TilePool`] is the persistent worker pool that runs phase 3: `threads-1`
//! long-lived `std::thread` workers plus the calling thread, each stepping a
//! contiguous shard of the cycle's wake list. Thread count comes from
//! [`MachineConfig::threads`](crate::MachineConfig::threads) (seeded from
//! the `HB_THREADS` environment variable).
//!
//! # One cycle body, two clocks
//!
//! [`Machine::tick`](crate::Machine::tick) and
//! [`Machine::tick_profiled`](crate::Machine::tick_profiled) run the same
//! generic cycle body; they differ only in the `PhaseClock` handed down
//! through the phases — `NoClock` compiles to nothing, `Stopwatch` bills
//! the wall-clock time between phase boundaries to [`PhaseTimes`].

use crate::sched::Park;
use crate::tile::Tile;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Wall-clock time spent in each BSP phase of [`Cell::tick`](crate::Cell::tick),
/// accumulated by [`Machine::tick_profiled`](crate::Machine::tick_profiled).
///
/// Used by the `sim_throughput` bench to report what fraction of a cycle is
/// spent in the (parallelizable) tile phase versus the sequential
/// network/memory sequencing — the Amdahl bound on tile-phase scaling.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTimes {
    /// Router pipelines + ejection into inboxes (+ inter-Cell fabric).
    pub network: Duration,
    /// Cache banks, refill strips, HBM2.
    pub memory: Duration,
    /// Tile execution (the parallel phase).
    pub tiles: Duration,
    /// Wake-list bookkeeping (due scan, stall catch-up, park application
    /// — see `crate::sched`), paid under either park policy. Kept out of
    /// `tiles` so the Amdahl tile-share report stays truthful about the
    /// parallelizable fraction.
    pub sched: Duration,
    /// Barrier joins/releases.
    pub sync: Duration,
    /// Outbox draining into the routers.
    pub inject: Duration,
}

impl PhaseTimes {
    /// Total accounted time.
    pub fn total(&self) -> Duration {
        self.network + self.memory + self.tiles + self.sched + self.sync + self.inject
    }

    /// Fraction of the accounted time spent in the tile phase.
    pub fn tile_share(&self) -> f64 {
        let total = self.total().as_secs_f64();
        if total <= 0.0 {
            0.0
        } else {
            self.tiles.as_secs_f64() / total
        }
    }
}

/// Marks the phase boundaries of one cycle (see the module docs). A
/// generic parameter of the cycle body, never a trait object: the untimed
/// instantiation must cost nothing.
pub(crate) trait PhaseClock {
    /// Bills the time since the previous lap (or the clock's start) to
    /// the bucket `bucket` selects.
    fn lap(&mut self, bucket: impl FnOnce(&mut PhaseTimes) -> &mut Duration);
}

/// The clock of [`Machine::tick`](crate::Machine::tick): measures nothing.
pub(crate) struct NoClock;

impl PhaseClock for NoClock {
    #[inline(always)]
    fn lap(&mut self, _: impl FnOnce(&mut PhaseTimes) -> &mut Duration) {}
}

/// The clock of [`Machine::tick_profiled`](crate::Machine::tick_profiled):
/// the only place the simulator core reads the host's wall clock.
pub(crate) struct Stopwatch<'a> {
    acc: &'a mut PhaseTimes,
    last: Instant,
}

impl<'a> Stopwatch<'a> {
    pub(crate) fn start(acc: &'a mut PhaseTimes) -> Self {
        Stopwatch {
            acc,
            last: Instant::now(),
        }
    }
}

impl PhaseClock for Stopwatch<'_> {
    fn lap(&mut self, bucket: impl FnOnce(&mut PhaseTimes) -> &mut Duration) {
        let now = Instant::now();
        *bucket(self.acc) += now - self.last;
        self.last = now;
    }
}

/// One shard of tile-stepping work handed to a worker: a range of
/// wake-list positions — step `tiles[list[pos]]` and write its park hint
/// to `parks[pos]` for each `pos` in `[start, end)`.
///
/// Raw pointers because workers are persistent (the borrow cannot be
/// expressed through the channel); safety rests on three invariants upheld
/// by [`TilePool::step_list`]: shard ranges are pairwise disjoint and
/// wake-list entries unique (so shards touch disjoint tiles), read-only
/// inputs are only read, and the caller blocks on the completion latch
/// before the borrows it took the pointers from end.
struct Shard {
    tiles: *mut Tile,
    list: *const u32,
    parks: *mut Park,
    start: usize,
    end: usize,
    now: u64,
}

// SAFETY: `Tile` is `Send` (all fields are owned or `Arc` of `Send + Sync`
// data) and `step_list` guarantees disjoint, latch-synchronized access.
unsafe impl Send for Shard {}

/// Countdown latch: the caller waits until every worker reports done.
#[derive(Debug, Default)]
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Latch {
    fn reset(&self, n: usize) {
        *self.remaining.lock().unwrap() = n;
    }

    fn count_down(&self) {
        let mut g = self.remaining.lock().unwrap();
        *g -= 1;
        if *g == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut g = self.remaining.lock().unwrap();
        while *g > 0 {
            g = self.done.wait(g).unwrap();
        }
    }
}

/// A persistent worker pool executing the tile phase across threads.
///
/// Created once per [`Machine`](crate::Machine) (shared by its Cells) and
/// reused every cycle; workers park on their channel between cycles, so the
/// steady-state cost per cycle is one send per worker plus the latch wait.
pub struct TilePool {
    senders: Vec<Sender<Shard>>,
    latch: Arc<Latch>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for TilePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TilePool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl TilePool {
    /// Builds a pool of `threads` total workers (the calling thread counts
    /// as one, so `threads - 1` OS threads are spawned). `threads <= 1`
    /// yields an empty pool that steps tiles inline.
    pub fn new(threads: usize) -> TilePool {
        let workers = threads.saturating_sub(1);
        let latch = Arc::new(Latch::default());
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = channel::<Shard>();
            let latch = latch.clone();
            let handle = std::thread::Builder::new()
                .name(format!("hb-tile-{w}"))
                .spawn(move || {
                    // Senders dropping (pool drop) ends the iterator.
                    for shard in rx {
                        // SAFETY: see `Shard` — [start, end) is disjoint
                        // from every other shard (including the caller's),
                        // and the caller keeps the backing allocations
                        // borrowed until the latch opens.
                        unsafe { run_list_range(&shard) }
                        latch.count_down();
                    }
                })
                .expect("spawn tile worker");
            senders.push(tx);
            handles.push(handle);
        }
        TilePool {
            senders,
            latch,
            handles,
        }
    }

    /// Builds a pool sized from the `HB_THREADS` environment variable
    /// (absent/unparsable → 1, i.e. an inline pool).
    pub fn from_env() -> TilePool {
        TilePool::new(threads_from_env())
    }

    /// Total worker count (spawned threads + the calling thread).
    pub fn threads(&self) -> usize {
        self.senders.len() + 1
    }

    /// Steps exactly the tiles named by `list` (the event scheduler's wake
    /// list), writing each tile's park hint to the matching position of
    /// `parks`, sharded across the pool by list position.
    ///
    /// Bit-identical to the inline loop: tiles share no mutable state
    /// during the step (see the module docs) and wake-list entries are
    /// unique, so shards touch disjoint tiles and disjoint `parks`
    /// positions, and shard assignment and thread interleaving cannot
    /// affect any per-tile result.
    ///
    /// # Panics
    ///
    /// Panics if `parks` is not the same length as `list`.
    pub(crate) fn step_list(&self, tiles: &mut [Tile], list: &[u32], parks: &mut [Park], now: u64) {
        assert_eq!(list.len(), parks.len());
        let len = list.len();
        let chunk = len.div_ceil(self.senders.len() + 1);
        if chunk == 0 {
            return;
        }
        // Shard `k` of the list. The calling thread takes shard 0 through
        // the same raw base pointers as the workers, so no `&mut` to a full
        // slice is live while they hold their sub-ranges.
        let (tiles, list, parks) = (tiles.as_mut_ptr(), list.as_ptr(), parks.as_mut_ptr());
        let shard = |k: usize| Shard {
            tiles,
            list,
            parks,
            start: (k * chunk).min(len),
            end: ((k + 1) * chunk).min(len),
            now,
        };
        self.latch.reset(self.senders.len());
        for (w, tx) in self.senders.iter().enumerate() {
            tx.send(shard(w + 1)).expect("tile worker alive");
        }
        // SAFETY: positions [0, chunk) are disjoint from every worker
        // shard, and list entries are unique tile indices.
        unsafe { run_list_range(&shard(0)) }
        self.latch.wait();
    }
}

/// Steps the wake-list tiles of one shard and records their park hints.
///
/// # Safety
///
/// `[start, end)` must be in bounds for `list` and `parks` and disjoint
/// from every concurrently running shard; `list[start..end]` must hold
/// unique, in-bounds tile indices (so tile access is disjoint across
/// shards); the backing borrows must outlive the call (guaranteed by the
/// pool's completion latch).
unsafe fn run_list_range(s: &Shard) {
    for pos in s.start..s.end {
        let t = &mut *s.tiles.add(*s.list.add(pos) as usize);
        t.step(s.now);
        *s.parks.add(pos) = t.park_hint(s.now);
    }
}

impl Drop for TilePool {
    fn drop(&mut self) {
        // Closing the channels ends each worker's receive loop.
        self.senders.clear();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Parses `HB_THREADS` (total tile-phase workers; absent or invalid → 1).
pub fn threads_from_env() -> usize {
    std::env::var("HB_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map_or(1, |n| n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_list_neither_deadlocks_nor_panics() {
        // Inline pool and an 8-worker pool, nothing due: no shard is sent
        // and the latch is never armed.
        for threads in [1, 8] {
            let pool = TilePool::new(threads);
            assert_eq!(pool.threads(), threads);
            pool.step_list(&mut [], &[], &mut [], 1);
            pool.step_list(&mut [], &[], &mut [], 2);
        }
    }

    #[test]
    fn more_threads_than_list_entries() {
        // 8 workers, 3 due tiles of 4 (tile 2 is not on the list): five
        // shards are empty, the latch must still open, and exactly the
        // listed tiles step and report a hint at their list position.
        let cfg = Arc::new(crate::MachineConfig {
            cell_dim: crate::CellDim { x: 4, y: 1 },
            threads: 1,
            ..crate::MachineConfig::baseline_16x8()
        });
        let pgas = *crate::Cell::new(cfg.clone(), 0).pgas();
        let mut a = hb_asm::Assembler::new();
        a.ecall();
        let program = Arc::new(a.assemble(0).unwrap());
        let info = crate::tile::GroupInfo {
            origin: (0, 0),
            dim: (4, 1),
            barrier_id: 0,
            live_rank: 0,
            live_size: 4,
            adopt: crate::pgas::NO_ADOPTEE,
        };
        let launched = || -> Vec<Tile> {
            (0..4)
                .map(|x| {
                    let mut t = Tile::new(cfg.clone(), pgas, (x, 0));
                    t.launch(program.clone(), &[], info);
                    t
                })
                .collect()
        };
        let list = [3, 0, 1];
        let mut inline = [Park::Awake; 3];
        TilePool::new(1).step_list(&mut launched(), &list, &mut inline, 1);

        let mut tiles = launched();
        let mut parks = [Park::Awake; 3];
        TilePool::new(8).step_list(&mut tiles, &list, &mut parks, 1);
        assert_eq!(parks, inline);
        let idle = *launched()[2].stats();
        for (i, t) in tiles.iter().enumerate() {
            assert_eq!(*t.stats() != idle, list.contains(&(i as u32)), "tile {i}");
        }
    }

    #[test]
    fn env_parsing_defaults_to_one() {
        // Only checks the parser contract on the current environment: the
        // result is always at least 1.
        assert!(threads_from_env() >= 1);
    }

    #[test]
    fn phase_times_shares() {
        let t = PhaseTimes {
            tiles: Duration::from_millis(75),
            network: Duration::from_millis(25),
            ..PhaseTimes::default()
        };
        assert!((t.tile_share() - 0.75).abs() < 1e-9);
        assert_eq!(PhaseTimes::default().tile_share(), 0.0);
    }
}
