//! The host-visible machine: one or more Cells plus the inter-Cell fabric
//! and the run loop.

use crate::cell::{Cell, GroupSpec};
use crate::config::MachineConfig;
use crate::diag::{FaultInfo, HangClass, HangReport};
use crate::payload::{Request, Response};
use crate::phase::{NoClock, PhaseClock, PhaseTimes, Stopwatch};
use crate::stats::CoreStats;
use hb_asm::Program;
use hb_fault::{Injection, Site};
use hb_mem::{Snap, SnapError, SnapState};
use hb_noc::{Coord, Packet, Port};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;

/// Hang-watchdog probe interval in core cycles: [`Machine::run`] samples
/// its progress signature this often and dates the last progress to the
/// last sample that differed, so a [`HangReport`] is accurate to one
/// window. A constant, not a configuration field: it decides how a fault
/// job's hang is described, so a value that varied would have to be hashed
/// — and nothing ever set it to anything else.
const WATCHDOG_WINDOW: u64 = 10_000;

/// Simulation-terminating errors.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A tile trapped (boxed: [`FaultInfo`] carries a disasm window).
    Fault(Box<FaultInfo>),
    /// The run exceeded its cycle budget.
    Timeout {
        /// Cycles executed before giving up.
        cycles: u64,
        /// Active tiles that had not retired `ecall`, for diagnosis.
        running_tiles: usize,
        /// The progress watchdog's classification of the hang.
        hang: Option<Box<HangReport>>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Fault(info) => write!(f, "tile fault: {info}"),
            SimError::Timeout {
                cycles,
                running_tiles,
                hang,
            } => {
                write!(f, "simulation did not finish in {cycles} cycles ({running_tiles} tiles still running)")?;
                if let Some(h) = hang {
                    write!(f, ": {h}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a completed kernel run.
#[derive(Debug, Clone)]
pub struct RunSummary {
    /// Core-clock cycles from launch to the last tile's `ecall`.
    pub cycles: u64,
    /// Aggregated core statistics over all Cells.
    pub core: CoreStats,
}

/// Inter-Cell traffic item.
#[derive(Debug)]
enum XItem {
    Req(Packet<Request>),
    Resp(Packet<Response>),
}

/// A bandwidth/latency model of the uniform network between Cells.
///
/// In silicon the Ruche network extends seamlessly across Cell boundaries;
/// in this simulator each Cell's network is modelled standalone (following
/// the paper's own multi-Cell methodology), and cross-Cell packets ride
/// this fabric: fixed per-hop latency plus a per-Cell per-cycle word budget
/// equal to the Cell-boundary link count.
#[derive(Debug)]
struct Fabric {
    latency: u64,
    words_per_cycle: usize,
    in_flight: VecDeque<(u64, u8, XItem)>,
}

impl Fabric {
    fn new(cfg: &MachineConfig) -> Fabric {
        // Eastward + westward crossings per boundary row, mesh + Ruche.
        let per_row = if cfg.ruche_factor > 0 {
            1 + cfg.ruche_factor as usize
        } else {
            1
        };
        Fabric {
            latency: u64::from(cfg.cell_dim.x),
            words_per_cycle: 2 * per_row * cfg.cell_dim.y as usize,
            in_flight: VecDeque::new(),
        }
    }
}

/// The complete simulated machine. See the crate docs for a walkthrough.
#[derive(Debug)]
pub struct Machine {
    cfg: Arc<MachineConfig>,
    cells: Vec<Cell>,
    fabric: Fabric,
    cycle: u64,
    /// Attached telemetry sink, if any (see [`crate::observe`]).
    observer: Option<Box<dyn crate::observe::MachineObserver>>,
    /// Next cycle at which the observer fires; `u64::MAX` when detached,
    /// so the unobserved hot loop pays exactly one always-false branch.
    obs_due: u64,
    /// Machine-level injections (everything but NoC link faults, which arm
    /// inside the networks), sorted by cycle.
    fault_plan: Vec<Injection>,
    /// Index of the next undelivered entry in `fault_plan`.
    fault_cursor: usize,
    /// Cycle of the next injection; `u64::MAX` with no plan installed, so
    /// the zero-injection hot loop pays exactly one always-false branch
    /// (the same pattern as `obs_due`).
    fault_due: u64,
    /// Dynamic race sanitizer shadow map (see [`crate::race`]); `None`
    /// unless [`Machine::set_race_check`] turned checking on, so the unchecked
    /// hot loop pays exactly one always-false branch (the same pattern as
    /// `obs_due`/`fault_due`).
    race: Option<Box<crate::race::RaceChecker>>,
}

impl Machine {
    /// Builds a machine from a configuration. It runs on whichever thread
    /// ticks it.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`](crate::ConfigError) message when
    /// `cfg` does not [validate](MachineConfig::validate): handing an
    /// impossible configuration to the simulator is a programming error.
    /// (Configurations read from outside the program are validated where
    /// they are decoded, [`MachineConfig::from_canonical_text`].)
    pub fn new(cfg: MachineConfig) -> Machine {
        cfg.validate()
            .unwrap_or_else(|e| panic!("invalid machine configuration: {e}"));
        let cfg = Arc::new(cfg);
        let cells: Vec<Cell> = (0..cfg.num_cells)
            .map(|i| Cell::new(cfg.clone(), i))
            .collect();
        let fabric = Fabric::new(&cfg);
        let mut machine = Machine {
            cfg,
            cells,
            fabric,
            cycle: 0,
            observer: None,
            obs_due: u64::MAX,
            fault_plan: Vec::new(),
            fault_cursor: 0,
            fault_due: u64::MAX,
            race: None,
        };
        if let Some(obs) = crate::observe::make_observer(&machine.cfg) {
            machine.attach_observer(obs);
        }
        machine
    }

    /// Turns the dynamic race sanitizer on or off (see [`crate::race`]).
    /// Every shared-location access (remote stores, AMOs, DRAM and SPM
    /// traffic) is then stamped `(tile, barrier-epoch, kind)` into a shadow
    /// map and same-epoch conflicting pairs are reported. Checking is
    /// read-only: simulated results are bit-identical with the sanitizer on
    /// or off. Turning it off discards all shadow state and accumulated
    /// reports.
    pub fn set_race_check(&mut self, on: bool) {
        for cell in &mut self.cells {
            cell.set_race_check(on);
        }
        self.race = if on {
            Some(Box::new(crate::race::RaceChecker::new()))
        } else {
            None
        };
    }

    /// Turns guest-code profiling on or off (see [`crate::gprof`]): a
    /// profiled tile keeps an exact retired-PC histogram and per-PC
    /// stall-cycle attribution of the program it launched, folded on
    /// demand by [`Machine::guest_profile`]. Profiling is read-only —
    /// cycles, memory and every architectural counter are bit-identical
    /// with it on or off — and with it off each record site pays one
    /// always-false branch.
    ///
    /// On, every tile that has launched and has no profile yet starts an
    /// empty one for its program, and every later launch starts a fresh
    /// one. So a call after a launch but before the first tick gives the
    /// same profile as a call before the launch. A call mid-run counts
    /// from there on, except that a tile parked across the call also bills
    /// the parked cycles before it. Turning it on again keeps the counts;
    /// off drops them. Like the sanitizer, the switch is host state and is
    /// not checkpointed: a restore takes the profiles the checkpoint
    /// carries, and the switch decides what later calls and launches do.
    pub fn set_profile(&mut self, on: bool) {
        for cell in &mut self.cells {
            cell.set_profile(on);
        }
    }

    /// Race reports accumulated so far (pending tile logs are drained
    /// first). Empty when the sanitizer is off.
    pub fn race_reports(&mut self) -> &[crate::race::RaceReport] {
        self.drain_races();
        self.race.as_ref().map_or(&[][..], |r| r.reports())
    }

    /// Renders every accumulated race report, one string per report, with
    /// both PCs disassembled against the involved tiles' loaded programs.
    pub fn render_races(&mut self) -> Vec<String> {
        self.drain_races();
        let Some(race) = self.race.take() else {
            return Vec::new();
        };
        let out = race
            .reports()
            .iter()
            .map(|r| {
                r.render(|tile, pc| {
                    self.cells[usize::from(tile.0)]
                        .tile(tile.1, tile.2)
                        .disasm_at(pc)
                })
            })
            .collect();
        self.race = Some(race);
        out
    }

    /// Out-of-line race-log drain, so the unchecked [`Machine::tick`] only
    /// pays the `race.is_some()` comparison. New reports additionally land
    /// as [`ObsKind::Race`](crate::observe::ObsKind) instant events on the
    /// second-accessing tile when telemetry is attached.
    #[cold]
    fn drain_races(&mut self) {
        let Some(mut race) = self.race.take() else {
            return;
        };
        let before = race.reports().len();
        for cell in &mut self.cells {
            cell.drain_race_logs(&mut race);
        }
        for i in before..race.reports().len() {
            let r = race.reports()[i];
            self.cells[usize::from(r.b.tile.0)]
                .tile_mut(r.b.tile.1, r.b.tile.2)
                .push_obs(r.b.cycle, crate::observe::ObsKind::Race);
        }
        self.race = Some(race);
    }

    /// Attaches a telemetry observer: it will be sampled whenever the
    /// machine cycle reaches its [`next_due`](crate::observe::MachineObserver::next_due),
    /// and finished (final partial window) on detach or drop. Tiles start
    /// recording instant events (marks, barrier joins, fence retires,
    /// faults). Replaces any previously attached observer without
    /// finishing it.
    pub fn attach_observer(&mut self, obs: Box<dyn crate::observe::MachineObserver>) {
        self.obs_due = obs.next_due();
        for cell in &mut self.cells {
            cell.set_observed(true);
        }
        self.observer = Some(obs);
    }

    /// Detaches the observer after flushing its final partial window.
    pub fn detach_observer(&mut self) -> Option<Box<dyn crate::observe::MachineObserver>> {
        let mut obs = self.observer.take()?;
        obs.finish(self);
        self.obs_due = u64::MAX;
        for cell in &mut self.cells {
            cell.set_observed(false);
        }
        Some(obs)
    }

    /// Whether a telemetry observer is attached.
    pub fn is_observed(&self) -> bool {
        self.observer.is_some()
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Number of Cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Cell accessor.
    pub fn cell(&self, id: u8) -> &Cell {
        &self.cells[id as usize]
    }

    /// Mutable Cell accessor.
    pub fn cell_mut(&mut self, id: u8) -> &mut Cell {
        &mut self.cells[id as usize]
    }

    /// Current core cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// All Cells, mutably (functional fast-forward borrows every DRAM).
    pub(crate) fn cells_mut(&mut self) -> &mut [Cell] {
        &mut self.cells
    }

    /// Resolves a Global-DRAM offset to its home `(cell, cell-local
    /// address)` using the chip-wide hash — the host-side counterpart of a
    /// tile's Global-DRAM access.
    ///
    /// # Panics
    ///
    /// Panics if `offset` exceeds the 30-bit Global-DRAM window.
    pub fn global_location(&self, offset: u32) -> (u8, u32) {
        assert!(offset < (1 << 30), "global offset exceeds the EVA window");
        match self.cells[0]
            .pgas()
            .translate(crate::pgas::global_dram(offset))
        {
            Ok(crate::pgas::Target::Bank { cell, addr, .. }) => (cell, addr),
            other => unreachable!("global EVA translated to {other:?}"),
        }
    }

    /// Host write of a word into Global-DRAM space.
    pub fn global_write_u32(&mut self, offset: u32, value: u32) {
        let (cell, addr) = self.global_location(offset);
        self.cells[cell as usize].dram_mut().write_u32(addr, value);
    }

    /// Host read of a word from Global-DRAM space (flush caches first if a
    /// kernel wrote it).
    pub fn global_read_u32(&self, offset: u32) -> u32 {
        let (cell, addr) = self.global_location(offset);
        self.cells[cell as usize].dram().read_u32(addr)
    }

    /// Flushes every Cell's caches (host-side result readback).
    pub fn flush_all_caches(&mut self) {
        for cell in &mut self.cells {
            cell.flush_caches();
        }
    }

    /// Convenience: launch on every tile of Cell `cell`.
    pub fn launch(&mut self, cell: u8, program: &Arc<Program>, args: &[u32]) {
        self.reset_race_epochs();
        self.cells[cell as usize].launch(program, args);
    }

    /// Convenience: launch tile groups on Cell `cell`.
    pub fn launch_groups(
        &mut self,
        cell: u8,
        program: &Arc<Program>,
        groups: &[(GroupSpec, Vec<u32>)],
    ) {
        self.reset_race_epochs();
        self.cells[cell as usize].launch_groups(program, groups);
    }

    /// A host launch is a synchronization point: drain what the previous
    /// kernel logged, then clear the shadow state (epochs, histories) so
    /// accesses of different launches never pair up. Reports accumulate.
    fn reset_race_epochs(&mut self) {
        if self.race.is_some() {
            self.drain_races();
            if let Some(r) = &mut self.race {
                r.reset();
            }
        }
    }

    /// Installs a fault-injection plan (see [`hb_fault`]). NoC link faults
    /// arm directly inside the target Cell's networks; every other site
    /// lands through a machine-level due list checked once per cycle, in
    /// after the Cells' phases — injection order is therefore deterministic.
    /// Replaces any previously installed plan.
    pub fn set_injection_plan(&mut self, plan: &hb_fault::InjectionPlan) {
        let mut rest = Vec::new();
        for inj in &plan.injections {
            if let Site::NocLink {
                cell,
                x,
                y,
                port,
                req,
            } = inj.site
            {
                let c = usize::from(cell) % self.cells.len();
                let at = Coord::new(x % self.cfg.net_width(), y % self.cfg.net_height());
                let port = Port::from_index(usize::from(port) % Port::COUNT);
                self.cells[c].schedule_link_fault(req, inj.cycle, at, port);
            } else {
                rest.push(*inj);
            }
        }
        rest.sort_by_key(|i| i.cycle);
        self.fault_due = rest.first().map_or(u64::MAX, |i| i.cycle);
        self.fault_plan = rest;
        self.fault_cursor = 0;
    }

    /// Advances the machine one core cycle.
    pub fn tick(&mut self) {
        self.tick_with(&mut NoClock);
    }

    /// Advances one core cycle while accumulating per-phase wall-clock time
    /// into `acc` (fabric time is accounted to the network phase) — the
    /// same cycle body as [`tick`](Self::tick), with a stopwatch for a
    /// clock. Feeds the benches' per-phase ledger rows and the tile phase's
    /// Amdahl bound.
    pub fn tick_profiled(&mut self, acc: &mut PhaseTimes) {
        self.tick_with(&mut Stopwatch::start(acc));
    }

    /// The one cycle body; `clock` is told where each phase ends.
    fn tick_with(&mut self, clock: &mut impl PhaseClock) {
        self.cycle += 1;
        for cell in &mut self.cells {
            cell.tick_with(clock);
        }
        self.tick_fabric();
        clock.lap(|t| &mut t.network);
        if self.cycle >= self.fault_due {
            self.inject_due();
        }
        if self.cycle >= self.obs_due {
            self.observe();
        }
        if self.race.is_some() {
            self.drain_races();
        }
    }

    /// Serializes the complete simulated state — every Cell, the inter-Cell
    /// fabric's in-flight items, the cycle counter, the remaining fault
    /// plan with its cursor, and (if an observer is attached and supports
    /// it) the observer's in-progress window — as one deterministic byte
    /// payload. The same machine state always encodes to the same bytes,
    /// so the checkpoint layer can content-hash snapshots.
    ///
    /// Host-side scaffolding is deliberately not serialized: the race
    /// sanitizer (its per-cycle logs are drained every tick, so they are
    /// empty here) and the profiling switch are both re-established by the
    /// host after restore. The tiles' telemetry capture switch keeps a
    /// byte in the payload, but a restore sets it from the restoring
    /// machine's observer, not from the bytes. Call this only at the
    /// end-of-cycle quiescent point: between `tick`s or `run`s.
    pub fn save_checkpoint(&self) -> Vec<u8> {
        let mut w = hb_mem::SnapWriter::new();
        self.save_state(&mut w);
        w.into_bytes()
    }

    /// Restores state captured by [`Machine::save_checkpoint`] into this
    /// machine. The machine must have been built from the *same*
    /// configuration (the checkpoint layer verifies that before calling
    /// here; this method additionally validates all geometry it decodes).
    /// If the payload carries an observer blob and an observer is attached,
    /// its window state is restored too, so the continued run's telemetry
    /// is identical to the uninterrupted run's.
    ///
    /// On error the machine may be partially overwritten and must be
    /// discarded; nothing panics.
    ///
    /// # Errors
    ///
    /// [`hb_mem::SnapError`] on truncation, layout mismatch or any
    /// geometry/config disagreement.
    pub fn restore_checkpoint(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = hb_mem::SnapReader::new(bytes);
        self.load_state(&mut r)?;
        r.finish()?;
        // Telemetry capture follows the host's observer, not the capture;
        // the observer (re-)attached by the host decides its own next due
        // cycle from the restored window state.
        for cell in &mut self.cells {
            cell.set_observed(self.observer.is_some());
        }
        if let Some(obs) = &self.observer {
            self.obs_due = obs.next_due();
        }
        Ok(())
    }

    /// The `extra` section of the machine's snapshot: the fault plan (its
    /// `hb-fault` sites sit below the codec and travel as their canonical
    /// text, the form job hashes already freeze) and the attached
    /// observer's in-progress window, if it keeps one.
    fn save_plan_and_observer(&self, w: &mut hb_mem::SnapWriter) {
        let plan: Vec<(u64, String)> = (self.fault_plan.iter())
            .map(|inj| (inj.cycle, inj.site.canonical()))
            .collect();
        plan.save(w);
        self.observer.as_ref().and_then(|o| o.snapshot()).save(w);
    }

    /// Decodes the fault plan and hands the observer blob to the attached
    /// observer (a machine restored without one drops it).
    fn load_plan_and_observer(&mut self, r: &mut hb_mem::SnapReader) -> Result<(), SnapError> {
        self.fault_plan = Vec::<(u64, String)>::load(r)?
            .into_iter()
            .map(|(cycle, site)| match Site::from_canonical(&site) {
                Ok(site) => Ok(Injection { cycle, site }),
                Err(_) => Err(SnapError::Bad("fault plan site does not parse")),
            })
            .collect::<Result<_, _>>()?;
        if r.bool()? {
            let blob = r.bytes()?;
            if let Some(obs) = &mut self.observer {
                obs.restore(blob)?;
            }
        }
        Ok(())
    }

    /// After a restore: the decoded indices point inside this machine.
    fn check_restored(&mut self) -> Result<(), SnapError> {
        if self.fault_cursor > self.fault_plan.len() {
            return Err(SnapError::Bad("fault cursor out of range"));
        }
        let cells = self.cells.len();
        if (self.fabric.in_flight.iter()).any(|&(_, dst, _)| usize::from(dst) >= cells) {
            return Err(SnapError::Bad("fabric destination out of range"));
        }
        Ok(())
    }

    /// Out-of-line injection dispatch: delivers every plan entry due at or
    /// before the current cycle. Runs after the Cells' phases and the
    /// fabric, so the flipped state is what the *next* cycle observes.
    #[cold]
    fn inject_due(&mut self) {
        while let Some(&inj) = self.fault_plan.get(self.fault_cursor) {
            if inj.cycle > self.cycle {
                break;
            }
            self.fault_cursor += 1;
            self.apply_injection(&inj);
        }
        self.fault_due = self
            .fault_plan
            .get(self.fault_cursor)
            .map_or(u64::MAX, |i| i.cycle);
    }

    /// Lands one injection. Out-of-range coordinates wrap rather than
    /// panic, so randomly drawn plans are always applicable.
    fn apply_injection(&mut self, inj: &Injection) {
        let cycle = self.cycle;
        let (w, h) = (self.cfg.cell_dim.x, self.cfg.cell_dim.y);
        let ncells = self.cells.len();
        match inj.site {
            Site::RegFile {
                cell,
                x,
                y,
                reg,
                bit,
            } => {
                self.cells[usize::from(cell) % ncells]
                    .tile_mut(x % w, y % h)
                    .inject_reg_flip(reg, bit, cycle);
            }
            Site::Spm {
                cell,
                x,
                y,
                word,
                bit,
            } => {
                self.cells[usize::from(cell) % ncells]
                    .tile_mut(x % w, y % h)
                    .inject_spm_flip(word, bit, cycle);
            }
            Site::IcacheLine { cell, x, y, line } => {
                self.cells[usize::from(cell) % ncells]
                    .tile_mut(x % w, y % h)
                    .inject_icache_invalidate(line, cycle);
            }
            Site::HbmStall { cell, window } => {
                self.cells[usize::from(cell) % ncells].inject_hbm_stall(u64::from(window), cycle);
            }
            Site::TileFreeze { cell, x, y, cycles } => {
                self.cells[usize::from(cell) % ncells]
                    .tile_mut(x % w, y % h)
                    .freeze(cycles, cycle);
            }
            // Link faults were partitioned out in `set_injection_plan`.
            Site::NocLink { .. } => unreachable!("link faults arm inside the networks"),
        }
    }

    /// Out-of-line observer dispatch, so the unobserved [`Machine::tick`]
    /// only pays the `obs_due` comparison.
    #[cold]
    fn observe(&mut self) {
        let Some(mut obs) = self.observer.take() else {
            self.obs_due = u64::MAX;
            return;
        };
        obs.sample(self);
        self.obs_due = obs.next_due();
        self.observer = Some(obs);
    }

    /// Fabric: collect outbound traffic (budgeted) and deliver due items.
    fn tick_fabric(&mut self) {
        for ci in 0..self.cells.len() {
            let mut budget = self.fabric.words_per_cycle;
            while budget > 0 {
                if let Some((dst, pkt)) = self.cells[ci].xreq_out.pop_front() {
                    self.fabric.in_flight.push_back((
                        self.cycle + self.fabric.latency,
                        dst,
                        XItem::Req(pkt),
                    ));
                    budget -= 1;
                    continue;
                }
                if let Some((dst, pkt)) = self.cells[ci].xresp_out.pop_front() {
                    self.fabric.in_flight.push_back((
                        self.cycle + self.fabric.latency,
                        dst,
                        XItem::Resp(pkt),
                    ));
                    budget -= 1;
                    continue;
                }
                break;
            }
        }
        while let Some(&(due, dst, _)) = self.fabric.in_flight.front() {
            if due > self.cycle {
                break;
            }
            let (_, _, item) = self.fabric.in_flight.pop_front().unwrap();
            match item {
                XItem::Req(pkt) => self.cells[dst as usize].deliver_remote_request(pkt),
                XItem::Resp(pkt) => self.cells[dst as usize].deliver_remote_response(pkt),
            }
        }
    }

    /// Whether every Cell's active tiles have finished.
    pub fn all_done(&self) -> bool {
        self.cells.iter().all(Cell::all_done)
    }

    /// Runs until every active tile finishes.
    ///
    /// # Errors
    ///
    /// [`SimError::Fault`] if any tile traps; [`SimError::Timeout`] if the
    /// kernel does not finish within `max_cycles`. Fault detection takes
    /// precedence: a kernel that traps on the final cycle of its budget (or
    /// whose trap stops its tile so the rest "finish") reports the fault,
    /// never a timeout or a bogus success. A timeout carries the progress
    /// watchdog's [`HangReport`] classifying *why* the run never finished.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunSummary, SimError> {
        let start = self.cycle;
        let mut wd_sig = self.progress_signature();
        let mut wd_progress_cycle = self.cycle;
        let mut wd_next = self.cycle + WATCHDOG_WINDOW;
        loop {
            if let Some(info) = self.cells.iter().find_map(Cell::fault) {
                return Err(SimError::Fault(Box::new(info)));
            }
            if self.all_done() {
                let mut core = CoreStats::default();
                for cell in &self.cells {
                    core += cell.core_stats();
                }
                return Ok(RunSummary {
                    cycles: self.cycle - start,
                    core,
                });
            }
            if self.cycle - start >= max_cycles {
                let running_tiles = self.cells.iter().map(Cell::running_tiles).sum();
                let sig = self.progress_signature();
                if sig != wd_sig {
                    wd_progress_cycle = self.cycle;
                }
                let hang = self.classify_hang(wd_progress_cycle, sig.0.saturating_sub(wd_sig.0));
                return Err(SimError::Timeout {
                    cycles: self.cycle - start,
                    running_tiles,
                    hang: Some(Box::new(hang)),
                });
            }
            if self.cycle >= wd_next {
                let sig = self.progress_signature();
                if sig != wd_sig {
                    wd_progress_cycle = self.cycle;
                    wd_sig = sig;
                }
                wd_next = self.cycle + WATCHDOG_WINDOW;
            }
            self.tick();
        }
    }

    /// A cheap forward-progress fingerprint: total retired instructions,
    /// total packets delivered by the Cell NoCs, and wake-list
    /// re-arms. The re-arm count keeps a legitimately all-parked machine —
    /// e.g. every tile asleep across an injected HBM stall window while
    /// deliveries keep re-arming them — from reading as zero progress and
    /// being misclassified as a livelock.
    fn progress_signature(&self) -> (u64, u64, u64) {
        let instrs = self.cells.iter().map(|c| c.core_stats().instrs).sum();
        let ejected = self.cells.iter().map(Cell::net_ejected).sum();
        let rearms = self.cells.iter().map(Cell::sched_rearms).sum();
        (instrs, ejected, rearms)
    }

    /// Tile-phase tick counts over all Cells since launch:
    /// `(stepped, skipped)`, where `skipped` counts tile-cycles the wake
    /// list elided (always 0 under the never-park policy).
    pub fn tile_ticks(&self) -> (u64, u64) {
        self.cells.iter().fold((0, 0), |(s, k), c| {
            let (cs, ck) = c.tile_ticks();
            (s + cs, k + ck)
        })
    }

    /// Folds the guest-code profile of `program` machine-wide (see
    /// [`crate::gprof`]): every profiled tile whose launched program is
    /// `program` (the same image, or an equal one), Cells in id order,
    /// tiles row-major, with the stall debt of still-parked tiles added
    /// virtually at their parking PC. Tiles running another program are
    /// left out: their histograms index a different image. Read-only and
    /// safe at any point of a run; `None` when no profiled tile runs
    /// `program` (see [`Machine::set_profile`]). Out of the hot path —
    /// profiling costs the simulation loop nothing beyond the tiles' own
    /// one-branch record sites.
    #[cold]
    pub fn guest_profile(&self, program: &Program) -> Option<crate::gprof::GuestProfile> {
        let mut gp = None;
        for cell in &self.cells {
            cell.fold_guest_profile(program, &mut gp);
        }
        gp
    }

    /// Classifies a hang at timeout. Precedence: tiles parked in a barrier
    /// dominate (they explain every downstream symptom), then a leaked
    /// scoreboard with drained networks, then packets stuck inside a NoC;
    /// anything else — including tiles frozen by injection — is a livelock.
    fn classify_hang(&self, last_progress_cycle: u64, recent_instrs: u64) -> HangReport {
        let (w, h) = (self.cfg.cell_dim.x, self.cfg.cell_dim.y);
        let mut waiting = Vec::new();
        for (ci, cell) in self.cells.iter().enumerate() {
            for y in 0..h {
                for x in 0..w {
                    if cell.tile(x, y).barrier_waiting {
                        waiting.push((ci, x, y));
                    }
                }
            }
        }
        let class = if waiting.is_empty() {
            let req: u64 = self.cells.iter().map(Cell::req_in_flight).sum();
            let resp: u64 = self.cells.iter().map(Cell::resp_in_flight).sum();
            let mut leaks = Vec::new();
            let mut frozen = Vec::new();
            for (ci, cell) in self.cells.iter().enumerate() {
                for y in 0..h {
                    for x in 0..w {
                        let t = cell.tile(x, y);
                        if !t.is_finished() && t.outstanding() > 0 {
                            leaks.push((ci, x, y, t.outstanding()));
                        }
                        if t.is_frozen() {
                            frozen.push((ci, x, y));
                        }
                    }
                }
            }
            if req == 0 && resp == 0 && !leaks.is_empty() {
                HangClass::ScoreboardLeak { tiles: leaks }
            } else if req + resp > 0 {
                HangClass::NocBackpressure {
                    req_in_flight: req,
                    resp_in_flight: resp,
                }
            } else {
                HangClass::Livelock {
                    recent_instrs,
                    frozen,
                }
            }
        } else {
            // The waiters' unfinished group members that never joined are
            // who everyone is waiting for.
            let mut missing = Vec::new();
            for &(ci, wx, wy) in &waiting {
                let g = self.cells[ci].tile(wx, wy).group();
                for y in g.origin.1..g.origin.1 + g.dim.1 {
                    for x in g.origin.0..g.origin.0 + g.dim.0 {
                        let t = self.cells[ci].tile(x, y);
                        let m = (ci, x, y);
                        if !t.is_finished() && !t.barrier_waiting && !missing.contains(&m) {
                            missing.push(m);
                        }
                    }
                }
            }
            HangClass::BarrierStall { waiting, missing }
        };
        HangReport {
            class,
            last_progress_cycle,
        }
    }
}

hb_mem::snap_enum!(XItem, "unknown fabric item tag" {
    0 => Req(pkt),
    1 => Resp(pkt),
});
hb_mem::snap_state!(Fabric [b"FABR"] {
    save: in_flight;
    host: latency, words_per_cycle;
});
// `fault_plan` and the `observer`'s window travel in the extra section. The
// rest of `host` is scaffolding the host re-establishes after a restore:
// the race sanitizer, whose per-cycle logs are drained every tick, so they
// are empty at a checkpoint.
hb_mem::snap_state!(Machine [b"MACH"] {
    save: cycle, fabric, fault_cursor, fault_due;
    fixed: cells;
    host: cfg, observer, obs_due, fault_plan, race;
} extra (save_plan_and_observer, load_plan_and_observer) check check_restored);

impl Drop for Machine {
    /// Flushes the observer's final partial window, so a telemetry store
    /// shared out-of-band sees the tail of a run whose machine is dropped
    /// without a [`detach_observer`](Machine::detach_observer).
    fn drop(&mut self) {
        if self.observer.is_some() {
            self.detach_observer();
        }
    }
}
