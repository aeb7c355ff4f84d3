//! Measuring a simulation from outside, through `hb_core`'s public hooks.
//!
//! Every job runs inside [`probe`], which installs a thread-local
//! `set_observer_factory` closure for its duration. Untraced, the closure
//! only stamps the instant `Machine::new` returned (the end of set-up) and
//! returns `None`, so no observer is attached and the machine runs its
//! ordinary `tick`. Traced, it attaches a [`PhaseObserver`] whose `sample`
//! (due at cycle 1) drives the machine with the public
//! `Machine::tick_profiled`, so kernels whose `execute` owns the machine
//! are traced without touching them; `finish` harvests the counters.

use hb_core::{Machine, MachineConfig, MachineObserver, PhaseTimes};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Cycles one `sample` call drives before handing control back to
/// `Machine::run`, which then re-checks its cycle budget and watchdog (a
/// hung fault-campaign job must still time out) and re-enters `sample` on
/// its next tick.
const CHUNK_CYCLES: u64 = 4096;

/// Exact simulated counts of one machine, read when it is dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    pub cycles: u64,
    pub instrs: u64,
    pub ticks_stepped: u64,
    pub ticks_skipped: u64,
    /// Σ `LinkStats::flits` over both networks' snapshots.
    pub flit_hops: u64,
    pub packets_ejected: u64,
    /// Cache hits + primary misses + write-validate fills.
    pub cache_accesses: u64,
    pub cache_misses: u64,
    /// Completed HBM2 reads + writes.
    pub dram_requests: u64,
    /// HBM2 cycles moving data or waiting on DRAM timing.
    pub hbm_busy_cycles: u64,
    /// HBM2 non-refresh cycles observed.
    pub hbm_cycles: u64,
}

impl std::ops::AddAssign for SimCounts {
    fn add_assign(&mut self, o: SimCounts) {
        self.cycles += o.cycles;
        self.instrs += o.instrs;
        self.ticks_stepped += o.ticks_stepped;
        self.ticks_skipped += o.ticks_skipped;
        self.flit_hops += o.flit_hops;
        self.packets_ejected += o.packets_ejected;
        self.cache_accesses += o.cache_accesses;
        self.cache_misses += o.cache_misses;
        self.dram_requests += o.dram_requests;
        self.hbm_busy_cycles += o.hbm_busy_cycles;
        self.hbm_cycles += o.hbm_cycles;
    }
}

impl SimCounts {
    /// Reads every counter of a (finished) machine.
    pub fn harvest(machine: &Machine) -> SimCounts {
        let mut c = SimCounts {
            cycles: machine.cycle(),
            ..SimCounts::default()
        };
        (c.ticks_stepped, c.ticks_skipped) = machine.tile_ticks();
        for id in 0..machine.num_cells() {
            let cell = machine.cell(id as u8);
            c.instrs += cell.core_stats().instrs;
            c.flit_hops += cell
                .request_net_snapshot()
                .iter()
                .chain(&cell.response_net_snapshot())
                .map(|l| l.flits)
                .sum::<u64>();
            c.packets_ejected += cell.net_ejected();
            let cache = cell.cache_stats();
            c.cache_accesses += cache.hits + cache.misses + cache.write_validate_fills;
            c.cache_misses += cache.misses;
            let hbm = cell.hbm_stats();
            c.dram_requests += hbm.reads + hbm.writes;
            c.hbm_busy_cycles += hbm.read_cycles + hbm.write_cycles + hbm.busy_cycles;
            c.hbm_cycles += hbm.denominator();
        }
        c
    }
}

/// One traced machine: when it simulated, where the host time went, and
/// what it simulated.
#[derive(Debug, Clone)]
pub struct SimSpan {
    /// First entry into `sample`.
    pub start: Instant,
    /// Last exit from `sample`.
    pub end: Instant,
    pub phases: PhaseTimes,
    pub counts: SimCounts,
}

/// What [`probe`] saw while a job ran.
#[derive(Debug, Default)]
pub struct Probe {
    /// When the job's first `Machine::new` returned.
    pub machine_built: Option<Instant>,
    /// One entry per machine that simulated at least one cycle (traced
    /// jobs only).
    pub sims: Vec<SimSpan>,
}

#[derive(Debug)]
struct PhaseObserver {
    probe: Arc<Mutex<Probe>>,
    due: u64,
    window: Option<(Instant, Instant)>,
    phases: PhaseTimes,
}

impl MachineObserver for PhaseObserver {
    fn sample(&mut self, machine: &mut Machine) {
        let entered = Instant::now();
        if self.window.is_none() {
            // Attaching an observer turned tile event capture on; nothing
            // drains those buffers here, so turn it back off.
            for id in 0..machine.num_cells() {
                machine.cell_mut(id as u8).set_observed(false);
            }
        }
        // Stop on the cycle the last tile finishes, as `Machine::run` does,
        // so a run is exactly as long traced as untraced. A trap is left
        // for `run` to find between chunks: a trapped run records no
        // cycle count, so nothing depends on where it stops.
        let stop = machine.cycle() + CHUNK_CYCLES;
        while machine.cycle() < stop && !machine.all_done() {
            machine.tick_profiled(&mut self.phases);
        }
        self.due = machine.cycle() + 1;
        let start = self.window.map_or(entered, |(start, _)| start);
        self.window = Some((start, Instant::now()));
    }

    fn next_due(&self) -> u64 {
        self.due
    }

    fn finish(&mut self, machine: &mut Machine) {
        let Some((start, end)) = self.window else {
            return; // built but never simulated (e.g. a functional run)
        };
        let span = SimSpan {
            start,
            end,
            phases: self.phases,
            counts: SimCounts::harvest(machine),
        };
        self.probe
            .lock()
            .expect("probe lock: no holder panics")
            .sims
            .push(span);
    }
}

/// Runs `job` on this thread with the observer factory installed and
/// returns what it saw. `traced = false` attaches nothing.
pub fn probe<R>(traced: bool, job: impl FnOnce() -> R) -> (R, Probe) {
    let shared = Arc::new(Mutex::new(Probe::default()));
    let seen = shared.clone();
    let scope = hb_core::set_observer_factory(move |_cfg: &MachineConfig| {
        let mut p = seen.lock().expect("probe lock: no holder panics");
        p.machine_built.get_or_insert_with(Instant::now);
        if !traced {
            return None;
        }
        Some(Box::new(PhaseObserver {
            probe: seen.clone(),
            due: 1,
            window: None,
            phases: PhaseTimes::default(),
        }) as Box<dyn MachineObserver>)
    });
    let out = job();
    drop(scope);
    let probe = std::mem::take(&mut *shared.lock().expect("probe lock: no holder panics"));
    (out, probe)
}

/// A named interval of one job. `busy_s` is set on the six phase rows,
/// which are sums of per-cycle slices rather than one interval; their
/// `start_s..end_s` is the enclosing `core.simulate`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Shared by every span of one job.
    pub trace: u32,
    pub name: &'static str,
    /// Index of the enclosing span in the span list, if any.
    pub parent: Option<usize>,
    pub start_s: f64,
    pub end_s: f64,
    pub busy_s: Option<f64>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.busy_s.unwrap_or(self.end_s - self.start_s)
    }
}

/// The benchmark's in-memory span list, written out with the report.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    next_trace: u32,
    pub list: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Spans {
        Spans {
            epoch: Instant::now(),
            next_trace: 0,
            list: Vec::new(),
        }
    }
}

impl Spans {
    pub fn new_trace(&mut self) -> u32 {
        self.next_trace += 1;
        self.next_trace
    }

    pub fn push(
        &mut self,
        trace: u32,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.list.push(Span {
            trace,
            name,
            parent,
            start_s: start.duration_since(self.epoch).as_secs_f64(),
            end_s: end.duration_since(self.epoch).as_secs_f64(),
            busy_s: None,
        });
        self.list.len() - 1
    }

    /// Records one traced machine as `core.simulate` with its six phase
    /// children; returns the index of `core.simulate`.
    pub fn push_sim(&mut self, trace: u32, parent: Option<usize>, sim: &SimSpan) -> usize {
        let at = self.push(trace, "core.simulate", parent, sim.start, sim.end);
        let p = &sim.phases;
        for (name, busy) in [
            ("core.phase_network", p.network),
            ("core.phase_memory", p.memory),
            ("core.phase_tiles", p.tiles),
            ("core.phase_sched", p.sched),
            ("core.phase_sync", p.sync),
            ("core.phase_inject", p.inject),
        ] {
            let child = self.push(trace, name, Some(at), sim.start, sim.end);
            self.list[child].busy_s = Some(busy.as_secs_f64());
        }
        at
    }

    /// A span's duration minus the part its children cover.
    pub fn self_seconds(&self, at: usize) -> f64 {
        let children: f64 = self
            .list
            .iter()
            .filter(|s| s.parent == Some(at))
            .map(Span::seconds)
            .sum();
        self.list[at].seconds() - children
    }
}
