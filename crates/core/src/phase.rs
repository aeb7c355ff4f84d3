//! The phases of one simulated cycle and the clock that times them.
//!
//! # Execution model
//!
//! The Cell advances in bulk-synchronous phases each core cycle (see
//! `DESIGN.md`, "Cycle model"):
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
//! double buffers between the tile phase and the sequencing phases. All of
//! it runs on the thread that ticks the [`Machine`](crate::Machine); host
//! parallelism is per job, one level up (`DESIGN.md`, "Host parallelism").
//!
//! # One cycle body, two clocks
//!
//! [`Machine::tick`](crate::Machine::tick) and
//! [`Machine::tick_profiled`](crate::Machine::tick_profiled) run the same
//! generic cycle body; they differ only in the `PhaseClock` handed down
//! through the phases — `NoClock` compiles to nothing, `Stopwatch` bills
//! the wall-clock time between phase boundaries to [`PhaseTimes`].

use std::time::{Duration, Instant};

/// Wall-clock time spent in each BSP phase of [`Cell::tick`](crate::Cell::tick),
/// accumulated by [`Machine::tick_profiled`](crate::Machine::tick_profiled).
///
/// Used by the `sim_throughput` bench and the `hb_perf` ledger to report
/// where the host time of a simulated cycle goes.
#[derive(Debug, Default, Clone, Copy)]
pub struct PhaseTimes {
    /// Router pipelines + ejection into inboxes (+ inter-Cell fabric).
    pub network: Duration,
    /// Cache banks, refill strips, HBM2.
    pub memory: Duration,
    /// Tile execution: [`Tile::step`](crate::Tile::step) on the run list,
    /// and taking the park hint each step returns.
    pub tiles: Duration,
    /// The wake list's build (timer wakes, the walk over the awake active
    /// tiles, stall catch-up — see `crate::sched`), paid under either park
    /// policy.
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

#[cfg(test)]
mod tests {
    use super::*;

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
