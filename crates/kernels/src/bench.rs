//! The [`Benchmark`] abstraction and the counter bundle figures draw from.

use hb_cache::CacheStats;
use hb_core::profile::CellProfile;
use hb_core::{CoreStats, Machine, MachineConfig, SimError};
use hb_mem::Hbm2Stats;
use hb_noc::LinkStats;

/// Input scale for a benchmark run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SizeClass {
    /// Seconds-long debug-mode runs; used by unit/integration tests.
    Tiny,
    /// Default benchmark scale (release mode).
    Small,
    /// Larger sweeps for the figure harnesses.
    Large,
}

/// Hardware counters gathered from one validated benchmark run.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Benchmark name.
    pub name: &'static str,
    /// Cycles from launch to the last `ecall`.
    pub cycles: u64,
    /// Aggregated per-core counters (Figure 11 top).
    pub core: CoreStats,
    /// HBM2 utilization (Figure 11 bottom).
    pub hbm: Hbm2Stats,
    /// Cache-bank counters.
    pub cache: CacheStats,
    /// Request-network bisection counters (Figure 14).
    pub bisection: LinkStats,
    /// Number of bisection links (normalization).
    pub bisection_links: usize,
    /// Work units completed (1.0 unless the kernel's problem size scales
    /// with the machine, e.g. Jacobi's grid); cross-configuration
    /// comparisons should compare `work_units / cycles`.
    pub work_units: f64,
    /// Full §III.D profile snapshot (heatmaps, per-bank tables,
    /// bottleneck diagnosis) of Cell 0.
    pub profile: CellProfile,
    /// Tile-phase ticks actually executed across all Cells — host-side
    /// scheduler work, not an architectural counter; it differs between
    /// park policies.
    pub ticks_stepped: u64,
    /// Tile-phase ticks the wake list elided (0 under never-park).
    pub ticks_skipped: u64,
}

impl BenchStats {
    /// Collects counters from Cell 0 of a finished machine.
    pub fn collect(name: &'static str, cycles: u64, machine: &Machine) -> BenchStats {
        let cell = machine.cell(0);
        let (ticks_stepped, ticks_skipped) = machine.tile_ticks();
        BenchStats {
            name,
            cycles,
            core: cell.core_stats(),
            hbm: *cell.hbm_stats(),
            cache: cell.cache_stats(),
            bisection: cell.request_bisection(),
            bisection_links: cell.request_bisection_links(),
            work_units: 1.0,
            profile: CellProfile::capture(cell),
            ticks_stepped,
            ticks_skipped,
        }
    }

    /// Share of tile-phase ticks the wake list skipped, in `[0, 1]` (0.0
    /// for a never-park run or an empty machine).
    pub fn skipped_share(&self) -> f64 {
        let total = self.ticks_stepped + self.ticks_skipped;
        if total == 0 {
            return 0.0;
        }
        self.ticks_skipped as f64 / total as f64
    }

    /// Sets the work-unit count (builder style).
    pub fn with_work(mut self, work_units: f64) -> BenchStats {
        self.work_units = work_units;
        self
    }

    /// Work per cycle, the machine-size-independent figure of merit.
    pub fn throughput(&self) -> f64 {
        self.work_units / self.cycles.max(1) as f64
    }

    /// Fraction of bisection-link cycle-slots carrying packets.
    pub fn bisection_utilization(&self) -> f64 {
        if self.cycles == 0 || self.bisection_links == 0 {
            return 0.0;
        }
        self.bisection.busy as f64 / (self.cycles as f64 * self.bisection_links as f64)
    }
}

/// A runnable, self-validating benchmark.
pub trait Benchmark: Sync {
    /// Short name (paper Table I).
    fn name(&self) -> &'static str;

    /// The Berkeley dwarf it covers.
    fn dwarf(&self) -> &'static str;

    /// Builds a machine with `cfg`, runs the kernel at `size`, validates
    /// the output against the golden reference and returns the counters.
    ///
    /// # Errors
    ///
    /// Propagates simulator faults/timeouts.
    ///
    /// # Panics
    ///
    /// Panics if the simulated output does not match the golden reference —
    /// a correctness bug, never acceptable in a benchmark result.
    fn run(&self, cfg: &MachineConfig, size: SizeClass) -> Result<BenchStats, SimError>;
}

/// Cycle budget scaled to the machine size (debug builds are ~50x slower
/// than the silicon, so budgets are generous).
pub fn cycle_budget(cfg: &MachineConfig) -> u64 {
    let _ = cfg;
    200_000_000
}
