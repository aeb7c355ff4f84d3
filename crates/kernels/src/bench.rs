//! The [`Benchmark`] abstraction and the counter bundle figures draw from.

use hb_asm::Program;
use hb_cache::CacheStats;
use hb_core::{CoreStats, Machine, MachineConfig, SimError};
use hb_mem::Hbm2Stats;
use hb_noc::LinkStats;
use std::sync::Arc;

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
    /// the output against the golden reference and returns the counters
    /// (for every suite kernel, [`run_on`] a fresh machine).
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

/// One kernel launch on a machine the caller built: the inputs are already
/// in Cell 0's Local DRAM, the program has not started.
pub struct Launch {
    /// The program every tile of Cell 0 runs.
    pub program: Arc<Program>,
    /// Launch arguments (`a0..`).
    pub args: Vec<u32>,
    /// See [`BenchStats::work_units`].
    pub work_units: f64,
    /// Compares Cell 0's flushed DRAM with the golden model. The model is
    /// computed in here, so a run that never validates (a fault job, a
    /// checkpoint capture) does not pay for it. Any machine holding this
    /// launch's DRAM layout will do, e.g. one restored from a checkpoint
    /// of the launched machine.
    ///
    /// # Panics
    ///
    /// Panics on a mismatch.
    pub check: Box<dyn FnOnce(&Machine)>,
}

/// A [`Benchmark`] that can be launched on a machine the caller owns, so
/// the caller can attach an observer, turn the race sanitizer or the
/// profiler on, install an injection plan, co-simulate or checkpoint
/// between the steps.
pub trait Kernel: Benchmark {
    /// The program [`prepare`](Kernel::prepare) launches, for the static
    /// passes (lint, race phases, disassembly).
    fn program(&self) -> Program;

    /// Allocates and fills the inputs at `size` in Cell 0 of `machine`
    /// (seeded: the same DRAM image on every call) and describes the launch.
    fn prepare(&self, machine: &mut Machine, size: SizeClass) -> Launch;
}

/// Cycle budget of a suite run (debug builds are ~50x slower than the
/// silicon, so it is generous).
pub const CYCLE_BUDGET: u64 = 200_000_000;

/// [`Kernel::prepare`], then the launch on Cell 0.
pub fn launch_on(machine: &mut Machine, kernel: &dyn Kernel, size: SizeClass) -> Launch {
    let launch = kernel.prepare(machine, size);
    machine.launch(0, &launch.program, &launch.args);
    launch
}

/// The one body of a suite run, on a machine the caller built: launch, run
/// to completion, flush, validate against the golden model, collect.
///
/// # Errors
///
/// Propagates simulator faults/timeouts.
///
/// # Panics
///
/// Panics if the simulated output does not match the golden reference.
pub fn run_on(
    machine: &mut Machine,
    kernel: &dyn Kernel,
    size: SizeClass,
) -> Result<BenchStats, SimError> {
    let launch = launch_on(machine, kernel, size);
    let summary = machine.run(CYCLE_BUDGET)?;
    machine.cell_mut(0).flush_caches();
    (launch.check)(machine);
    Ok(BenchStats::collect(kernel.name(), summary.cycles, machine).with_work(launch.work_units))
}

/// [`run_on`] a machine built from `cfg`: every suite kernel's
/// [`Benchmark::run`].
///
/// # Errors
///
/// As [`run_on`].
pub(crate) fn run_fresh(
    kernel: &dyn Kernel,
    cfg: &MachineConfig,
    size: SizeClass,
) -> Result<BenchStats, SimError> {
    run_on(&mut Machine::new(cfg.clone()), kernel, size)
}
