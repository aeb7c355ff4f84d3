//! A HammerBlade Cell: the unit of replication — a 2-D tile array, two
//! cache-bank strips, the request/response Ruche networks, the refill strip
//! channels, one HBM2 pseudo-channel and the hardware barrier networks.

use crate::banknode::BankNode;
use crate::config::MachineConfig;
use crate::payload::{Request, Response};
use crate::pgas::PgasMap;
use crate::phase::{NoClock, PhaseClock};
use crate::sched::TileSched;
use crate::stats::CoreStats;
use crate::tile::{GroupInfo, Tile};
use hb_asm::Program;
use hb_cache::{CacheBank, CacheConfig, CacheStats, LineRequestKind};
use hb_mem::{
    ClockDivider, Dram, DramRequest, Hbm2Channel, Hbm2Stats, IdMap, Snap, SnapError, WorkSet,
};
use hb_noc::{
    BarrierNetwork, Coord, LinkStats, Network, NetworkConfig, Packet, RouteOrder, StripChannel,
    TickWork,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// A rectangular tile group within a Cell (the paper's unit of thread
/// management and barrier synchronization).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSpec {
    /// Top-left tile of the group.
    pub origin: (u8, u8),
    /// Width and height in tiles.
    pub dim: (u8, u8),
}

impl GroupSpec {
    /// One group covering the whole Cell.
    pub fn whole_cell(cfg: &MachineConfig) -> GroupSpec {
        GroupSpec {
            origin: (0, 0),
            dim: (cfg.cell_dim.x, cfg.cell_dim.y),
        }
    }

    /// Splits the Cell into a grid of equally-sized groups.
    ///
    /// # Panics
    ///
    /// Panics if the Cell dimensions are not divisible by the group size.
    pub fn grid(cfg: &MachineConfig, gw: u8, gh: u8) -> Vec<GroupSpec> {
        assert_eq!(cfg.cell_dim.x % gw, 0);
        assert_eq!(cfg.cell_dim.y % gh, 0);
        let mut groups = Vec::new();
        for oy in (0..cfg.cell_dim.y).step_by(gh as usize) {
            for ox in (0..cfg.cell_dim.x).step_by(gw as usize) {
                groups.push(GroupSpec {
                    origin: (ox, oy),
                    dim: (gw, gh),
                });
            }
        }
        groups
    }
}

/// Packets a tile may receive from each network per cycle. Requests use it
/// as the `req_inbox` occupancy bound; responses as a hard per-cycle
/// ejection cap, so a burst of responses converging on one tile drains at
/// the latch rate instead of instantaneously (see `phase_network`).
pub const EJECT_PER_CYCLE: usize = 8;

/// An in-flight bank↔DRAM line operation.
#[derive(Debug)]
struct MemOp {
    bank: usize,
    line_addr: u32,
    write: bool,
    /// Fetched line contents (filled at HBM read completion, consumed at
    /// strip delivery).
    data: Option<Vec<u8>>,
}

/// Host-side work done by a Cell's sequential phases since construction:
/// how many elements each phase looked at, the exact and noise-free measure
/// of "a cycle costs its activity, not the machine". Not simulated state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellWork {
    /// Both NoCs' [`Network::tick`](hb_noc::Network::tick) work, summed.
    pub noc: TickWork,
    /// Nodes visited for ejection in the network phase (a tile or a bank
    /// with a request delivery and room in its inbox, a tile with a
    /// response delivery or a staged one).
    pub eject_nodes: u64,
    /// Tiles visited in the sync phase (join flags, barrier releases): the
    /// touched ones and the stepped ones whose step left work, not every
    /// stepped tile.
    pub sync_tiles: u64,
    /// Barrier-network nodes evaluated in the sync phase, over the barrier
    /// networks of the current launch.
    pub barrier_nodes: u64,
    /// Tiles and banks whose outboxes the inject phase visited.
    pub inject_nodes: u64,
    /// Cache banks (adapter and bank) ticked in the memory phase.
    pub bank_ticks: u64,
    /// Refill-strip channels ticked in the memory phase.
    pub strip_ticks: u64,
    /// HBM2 request-queue entries the channel's scheduler looked at
    /// ([`Hbm2Channel::entries_examined`]).
    pub hbm_entries: u64,
}

/// One Cell of the machine. Ticked by [`Machine`](crate::Machine) on the
/// core clock.
#[derive(Debug)]
pub struct Cell {
    cfg: Arc<MachineConfig>,
    /// This Cell's id.
    pub id: u8,
    pgas: PgasMap,
    tiles: Vec<Tile>,
    banks: Vec<BankNode>,
    req_net: Network<Request>,
    resp_net: Network<Response>,
    strip_to_mem: [StripChannel; 2],
    strip_from_mem: [StripChannel; 2],
    hbm: Hbm2Channel,
    hbm_clock: ClockDivider,
    dram: Dram,
    hbm_retry: VecDeque<DramRequest>,
    /// The memory clock: memory phases run, `flush_caches`' included. Banks
    /// and strips keep their own clocks, brought up to this one before they
    /// are ticked (see [`phase_memory`](Self::phase_memory)), and a bank's
    /// counters are read and saved settled to it.
    mem_cycle: u64,
    mem_ops: IdMap<u64, MemOp>,
    next_mem_id: u64,
    barriers: Vec<BarrierNetwork>,
    active: Vec<bool>,
    /// Wake-list scheduler running the tile phase (see [`crate::sched`]);
    /// [`MachineConfig::event_core`] selects its park policy.
    sched: TileSched,
    alloc_ptr: u32,
    cycle: u64,
    /// Requests bound for other Cells (drained by the inter-Cell fabric).
    pub xreq_out: VecDeque<(u8, Packet<Request>)>,
    /// Responses bound for other Cells.
    pub xresp_out: VecDeque<(u8, Packet<Response>)>,
    /// Worklists of the sequential phases (see DESIGN.md, "Cycle model").
    /// Each is a superset of the tiles (banks) its phase has work for, kept
    /// by the code that creates the work; all are derived state, marked
    /// full after a restore or a launch so the next cycle looks everywhere
    /// once.
    ///
    /// Tiles whose `resp_stage` may hold a fabric-staged response.
    staged: WorkSet,
    /// Tiles handed out by [`tile_mut`](Self::tile_mut) since the last sync
    /// phase: the host may have changed anything the phases read.
    touched: WorkSet,
    /// Tiles the inject phase left with a non-empty outbox.
    backlog: WorkSet,
    /// Banks whose response outbox may be non-empty.
    bank_out: WorkSet,
    /// The request-network nodes of the banks whose inbox is full, exactly:
    /// the network phase's ejection walk leaves them out. Unlike the
    /// worklists it is rebuilt, not marked full, after a restore; a launch
    /// leaves the banks' inboxes alone.
    inbox_full: WorkSet,
    /// Banks awake: the ones the memory phase ticks. A bank leaves when its
    /// next tick could only record a stall ([`BankNode::stall`]) and sleeps
    /// until something can end it.
    mem_live: WorkSet,
    /// Scratch: the tiles the current phase visits.
    visit: WorkSet,
    /// Scratch: the nodes with a request delivery this cycle.
    ready: Vec<Coord>,
    /// Scratch: tiles whose barrier release may be consumable this cycle.
    release_check: Vec<u32>,
    /// Group origin per barrier network (fixed at launch): maps a barrier
    /// node back to its tile.
    barrier_origin: Vec<(u8, u8)>,
    /// Whether some tile may hold a fault; `false` spares
    /// [`fault`](Self::fault) its scan.
    maybe_fault: bool,
    work: CellWork,
}

impl Cell {
    /// Builds an idle Cell of a configuration `Machine::new` has validated.
    pub fn new(cfg: Arc<MachineConfig>, id: u8) -> Cell {
        let pgas = PgasMap::new(&cfg, id);
        let mut tiles = Vec::with_capacity(cfg.cell_dim.tiles());
        for y in 0..cfg.cell_dim.y {
            for x in 0..cfg.cell_dim.x {
                tiles.push(Tile::new(cfg.clone(), pgas, (x, y)));
            }
        }
        let bank_cfg = CacheConfig {
            sets: cfg.cache_sets,
            ways: cfg.cache_ways,
            line_bytes: cfg.line_bytes,
            bank_shift: (cfg.banks_per_cell() as u32).trailing_zeros(),
            write_validate: cfg.write_validate,
            blocking: !cfg.non_blocking_cache,
            mshrs: cfg.cache_mshrs,
            ..CacheConfig::default()
        };
        let banks = (0..cfg.banks_per_cell())
            .map(|b| BankNode::new(CacheBank::new(bank_cfg), pgas.bank_coord(b)))
            .collect();
        let net_cfg = |order| NetworkConfig {
            width: cfg.net_width(),
            height: cfg.net_height(),
            ruche_factor: cfg.ruche_factor,
            order,
            fifo_depth: cfg.net_fifo_depth,
            link_occupancy: cfg.link_occupancy,
        };
        // Each strip serves one row of `cell_w` banks regardless of the
        // configured default.
        let strip_cfg = hb_noc::StripConfig {
            banks: cfg.cell_dim.x as usize,
            ..cfg.strip
        };
        let strip = || StripChannel::new(strip_cfg);
        let req_net = Network::new(net_cfg(RouteOrder::XThenY));
        Cell {
            id,
            pgas,
            tiles,
            banks,
            inbox_full: WorkSet::new(req_net.nodes()),
            req_net,
            resp_net: Network::new(net_cfg(RouteOrder::YThenX)),
            strip_to_mem: [strip(), strip()],
            strip_from_mem: [strip(), strip()],
            hbm: Hbm2Channel::new(cfg.hbm.clone()),
            hbm_clock: ClockDivider::new(u64::from(cfg.mem_freq_mhz), u64::from(cfg.core_freq_mhz)),
            dram: Dram::new(cfg.dram_bytes_per_cell as usize),
            hbm_retry: VecDeque::new(),
            mem_cycle: 0,
            mem_ops: IdMap::default(),
            next_mem_id: 0,
            barriers: Vec::new(),
            active: vec![false; cfg.cell_dim.tiles()],
            sched: TileSched::new(cfg.cell_dim.tiles()),
            alloc_ptr: 0,
            cycle: 0,
            xreq_out: VecDeque::new(),
            xresp_out: VecDeque::new(),
            staged: WorkSet::new(cfg.cell_dim.tiles()),
            touched: WorkSet::new(cfg.cell_dim.tiles()),
            backlog: WorkSet::new(cfg.cell_dim.tiles()),
            bank_out: WorkSet::new(cfg.banks_per_cell()),
            mem_live: WorkSet::new(cfg.banks_per_cell()),
            visit: WorkSet::new(cfg.cell_dim.tiles()),
            ready: Vec::new(),
            release_check: Vec::new(),
            barrier_origin: Vec::new(),
            maybe_fault: false,
            work: CellWork::default(),
            cfg,
        }
    }

    /// The Cell's PGAS map (coordinate helpers).
    pub fn pgas(&self) -> &PgasMap {
        &self.pgas
    }

    /// Current core cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Host access to this Cell's DRAM contents.
    pub fn dram(&self) -> &Dram {
        &self.dram
    }

    /// Mutable host access to this Cell's DRAM contents.
    pub fn dram_mut(&mut self) -> &mut Dram {
        &mut self.dram
    }

    /// Bump-allocates `size` bytes of Cell DRAM, aligned to `align`.
    ///
    /// # Panics
    ///
    /// Panics when the window is exhausted or `align` is not a power of two.
    pub fn alloc(&mut self, size: u32, align: u32) -> u32 {
        assert!(align.is_power_of_two());
        let base = (self.alloc_ptr + align - 1) & !(align - 1);
        assert!(
            base + size <= self.cfg.dram_bytes_per_cell,
            "cell DRAM window exhausted ({} + {size} bytes)",
            base
        );
        self.alloc_ptr = base + size;
        base
    }

    /// Tile accessor (x, y in tile coordinates).
    pub fn tile(&self, x: u8, y: u8) -> &Tile {
        &self.tiles[y as usize * self.cfg.cell_dim.x as usize + x as usize]
    }

    /// Mutable tile accessor. Re-arms the tile on the wake list: any host
    /// or fault-injection mutation may unblock it, and a spurious wake is
    /// harmless (the tile steps once, records the stall it would have
    /// recorded anyway, and parks again). For the same reason the tile goes
    /// on the phases' worklists: the caller may stage a response, raise a
    /// join, fill an outbox.
    pub fn tile_mut(&mut self, x: u8, y: u8) -> &mut Tile {
        let i = y as usize * self.cfg.cell_dim.x as usize + x as usize;
        self.sched.wake(i);
        self.staged.insert(i);
        self.touched.insert(i);
        &mut self.tiles[i]
    }

    /// Launches `program` on the given tile groups with per-group argument
    /// lists. Tiles outside every group stay idle.
    ///
    /// # Panics
    ///
    /// Panics if groups overlap or leave the Cell, or argument lists exceed
    /// 8 words.
    pub fn launch_groups(&mut self, program: &Arc<Program>, groups: &[(GroupSpec, Vec<u32>)]) {
        let (w, h) = (self.cfg.cell_dim.x, self.cfg.cell_dim.y);
        // Tiles still parked from a previous kernel owe stalls; settle the
        // debt into their (cumulative) stats before forgetting park state.
        self.sched.settle(&mut self.tiles, self.cycle);
        self.sched.reset();
        let mut owned = vec![false; w as usize * h as usize];
        self.barriers.clear();
        self.barrier_origin = groups.iter().map(|(g, _)| g.origin).collect();
        self.touched.insert_all();
        self.active = vec![false; w as usize * h as usize];
        for (gi, (g, args)) in groups.iter().enumerate() {
            assert!(
                g.origin.0 + g.dim.0 <= w && g.origin.1 + g.dim.1 <= h,
                "group leaves cell"
            );
            let mut barrier =
                BarrierNetwork::tree_for_group(g.dim.0, g.dim.1, self.cfg.ruche_factor);
            // Degraded mode: partition the group into live and
            // configured-dead members, bypass the dead ones in the barrier
            // tree, and pair each dead tile with a live adopter (row-major
            // on both sides) so kernels can redistribute its work.
            let mut live = Vec::new();
            let mut dead = Vec::new();
            for y in g.origin.1..g.origin.1 + g.dim.1 {
                for x in g.origin.0..g.origin.0 + g.dim.0 {
                    if self.cfg.disabled_tiles.contains(&(x, y)) {
                        dead.push((x, y));
                    } else {
                        live.push((x, y));
                    }
                }
            }
            assert!(
                dead.len() <= live.len(),
                "group has more disabled tiles than live ones"
            );
            for &(x, y) in &dead {
                barrier.bypass(Coord::new(x - g.origin.0, y - g.origin.1));
            }
            self.barriers.push(barrier);
            for y in g.origin.1..g.origin.1 + g.dim.1 {
                for x in g.origin.0..g.origin.0 + g.dim.0 {
                    let i = y as usize * w as usize + x as usize;
                    assert!(!owned[i], "tile ({x},{y}) in two groups");
                    owned[i] = true;
                    self.active[i] = true;
                    let live_pos = live.iter().position(|&p| p == (x, y));
                    let adopt = match live_pos {
                        Some(k) if k < dead.len() => {
                            let (dx, dy) = dead[k];
                            (u32::from(dx) << 8) | u32::from(dy)
                        }
                        _ => crate::pgas::NO_ADOPTEE,
                    };
                    let info = GroupInfo {
                        origin: g.origin,
                        dim: g.dim,
                        barrier_id: gi,
                        live_rank: live_pos.unwrap_or(0) as u32,
                        live_size: live.len() as u32,
                        adopt,
                    };
                    self.tiles[i].launch(program.clone(), args, info);
                    if live_pos.is_none() {
                        // Dead tiles stay addressable (their NI serves
                        // remote-SPM traffic) but never execute.
                        self.tiles[i].disable();
                    }
                }
            }
        }
        self.sched
            .set_active(&self.active)
            .expect("a launch wakes every tile");
        // A launch clears the faults of the tiles it covers, no others.
        self.maybe_fault = self.tiles.iter().any(|t| t.fault().is_some());
    }

    /// Launches `program` on every tile as a single Cell-wide group.
    pub fn launch(&mut self, program: &Arc<Program>, args: &[u32]) {
        let spec = GroupSpec::whole_cell(&self.cfg);
        self.launch_groups(program, &[(spec, args.to_vec())]);
    }

    /// Whether every active tile has finished.
    pub fn all_done(&self) -> bool {
        self.tiles
            .iter()
            .zip(&self.active)
            .all(|(t, &a)| !a || t.is_finished())
    }

    /// The first tile fault, if any, with tile attribution and a
    /// disassembled window around the faulting pc.
    pub fn fault(&self) -> Option<crate::diag::FaultInfo> {
        // A tile traps in its own step; the sync phase notes it. A tile the
        // host has touched since may have been stepped by hand.
        if !self.maybe_fault && self.touched.is_empty() {
            return None;
        }
        self.tiles.iter().find_map(|t| {
            t.fault().map(|(pc, cause)| match t.program() {
                Some(p) => crate::diag::FaultInfo::at_tile(self.id as usize, t.xy, pc, cause, p),
                None => crate::diag::FaultInfo::host(cause),
            })
        })
    }

    /// Number of active tiles that have not retired `ecall`. Tiles parked
    /// in a barrier, blocked on the scoreboard, frozen or faulted all
    /// count: a timeout diagnosis needs every tile that is not *done*, not
    /// just the ones still retiring instructions.
    pub fn running_tiles(&self) -> usize {
        self.tiles
            .iter()
            .zip(&self.active)
            .filter(|(t, &a)| a && !t.is_finished())
            .count()
    }

    /// Aggregated core statistics over active tiles. Owed-aware: stalls a
    /// sleeping tile would have recorded had it never parked, but has not
    /// yet been credited, are added virtually, so the aggregate is
    /// bit-identical under both park policies at any observation point.
    pub fn core_stats(&self) -> CoreStats {
        let mut agg = CoreStats::default();
        for (i, (t, &a)) in self.tiles.iter().zip(&self.active).enumerate() {
            if a {
                agg += *t.stats();
                if let Some((kind, n)) = self.sched.owed(i, self.cycle) {
                    agg.add_stall_n(kind, n);
                }
            }
        }
        agg
    }

    /// One tile's core statistics, owed-aware (see
    /// [`core_stats`](Self::core_stats)): every per-tile stats consumer
    /// (telemetry windows, profiles) must read through here rather than
    /// `tile(x, y).stats()` so skipped tiles report the counters they
    /// would have had they never parked.
    pub fn tile_stats(&self, x: u8, y: u8) -> CoreStats {
        let i = y as usize * self.cfg.cell_dim.x as usize + x as usize;
        let mut stats = *self.tiles[i].stats();
        if let Some((kind, n)) = self.sched.owed(i, self.cycle) {
            stats.add_stall_n(kind, n);
        }
        stats
    }

    /// Folds the guest-code profile of every active tile running `program`
    /// into `into` (creating it at the first such tile), row-major and
    /// owed-aware: stall debt of still-parked tiles is added virtually at
    /// their parking PC — the same policy-independent read
    /// [`core_stats`](Self::core_stats) performs — without touching any
    /// scheduler state.
    pub(crate) fn fold_guest_profile(
        &self,
        program: &Program,
        into: &mut Option<crate::gprof::GuestProfile>,
    ) {
        let runs = |p: &Arc<Program>| std::ptr::eq(&**p, program) || **p == *program;
        for (i, (t, &a)) in self.tiles.iter().zip(&self.active).enumerate() {
            if !a || !t.program().is_some_and(runs) {
                continue;
            }
            let Some(tp) = t.guest_prof() else { continue };
            let gp = into.get_or_insert_with(|| {
                crate::gprof::GuestProfile::new(program.base(), program.instrs().len())
            });
            gp.merge_tile(tp);
            if let Some((kind, n)) = self.sched.owed(i, self.cycle) {
                gp.add_owed(tp.cur_mark(), t.pc(), kind, n);
            }
        }
    }

    /// `(stepped, skipped)` tile-tick counters from the wake-list
    /// scheduler: how many per-tile steps actually ran versus how many the
    /// wake list elided. The never-park policy reports `(stepped, 0)`.
    pub fn tile_ticks(&self) -> (u64, u64) {
        self.sched.tick_counts()
    }

    /// Host work done by the sequential phases so far (see [`CellWork`]).
    pub fn work(&self) -> CellWork {
        let (req, resp) = (self.req_net.work(), self.resp_net.work());
        CellWork {
            noc: TickWork {
                latches: req.latches + resp.latches,
                routers: req.routers + resp.routers,
            },
            barrier_nodes: self.barriers.iter().map(BarrierNetwork::node_visits).sum(),
            hbm_entries: self.hbm.entries_examined(),
            ..self.work
        }
    }

    /// Wake-list re-arms performed by the scheduler (under the never-park
    /// policy only sleepers restored from a checkpoint are ever re-armed).
    /// A forward-progress signal: a machine that keeps re-arming tiles is
    /// quiescent-but-armed, not livelocked.
    pub fn sched_rearms(&self) -> u64 {
        self.sched.rearms()
    }

    /// HBM2 channel statistics.
    pub fn hbm_stats(&self) -> &Hbm2Stats {
        self.hbm.stats()
    }

    /// Aggregated cache-bank statistics, summed over
    /// [`bank_stats`](Self::bank_stats).
    pub fn cache_stats(&self) -> CacheStats {
        let mut agg = CacheStats::default();
        for s in (0..self.banks.len()).map(|b| self.bank_stats(b)) {
            agg.hits += s.hits;
            agg.misses += s.misses;
            agg.secondary_misses += s.secondary_misses;
            agg.write_validate_fills += s.write_validate_fills;
            agg.evictions += s.evictions;
            agg.writebacks += s.writebacks;
            agg.rejected_input += s.rejected_input;
            agg.rejected_mshr += s.rejected_mshr;
            agg.amos += s.amos;
            agg.idle_cycles += s.idle_cycles;
            agg.blocked_cycles += s.blocked_cycles;
        }
        agg
    }

    /// Turns telemetry event capture on or off for every tile (see
    /// [`crate::observe`]): events land in tile-local buffers during the
    /// tile phase and are drained at the window boundary, after the sync
    /// phase.
    pub fn set_observed(&mut self, on: bool) {
        for t in &mut self.tiles {
            t.set_observed(on);
        }
    }

    /// Turns race-sanitizer capture on or off for every tile (see
    /// [`crate::race`]). Like telemetry, capture is tile-local during the
    /// tile phase; logs are drained after sync.
    pub fn set_race_check(&mut self, on: bool) {
        for t in &mut self.tiles {
            t.set_race_check(on);
        }
    }

    /// Turns guest-code profiling on or off for every tile (see
    /// [`Machine::set_profile`](crate::Machine::set_profile)).
    pub(crate) fn set_profile(&mut self, on: bool) {
        for t in &mut self.tiles {
            t.set_profile(on);
        }
    }

    /// Drains every tile's race log into `checker`, in row-major tile
    /// order.
    pub fn drain_race_logs(&mut self, checker: &mut crate::race::RaceChecker) {
        let cell = self.id;
        for t in &mut self.tiles {
            let tile = t.xy;
            if t.race_log_mut().is_empty() {
                continue;
            }
            let events = std::mem::take(t.race_log_mut());
            checker.process((cell, tile.0, tile.1), &events);
            // Hand the allocation back to the tile.
            let mut events = events;
            events.clear();
            *t.race_log_mut() = events;
        }
    }

    /// Drains every tile's captured instant events into `out`, in
    /// deterministic row-major tile order, followed by NoC retransmit
    /// events attributed to the tile row nearest each link's router.
    pub fn drain_obs_events(&mut self, out: &mut Vec<crate::observe::ObsEvent>) {
        let cell = self.id;
        for t in &mut self.tiles {
            let tile = t.xy;
            out.extend(
                t.drain_obs_events()
                    .map(|(cycle, kind)| crate::observe::ObsEvent {
                        cycle,
                        cell,
                        tile,
                        kind,
                    }),
            );
        }
        let (w, h) = (self.cfg.cell_dim.x, self.cfg.cell_dim.y);
        for ev in self
            .req_net
            .drain_retransmit_events()
            .into_iter()
            .chain(self.resp_net.drain_retransmit_events())
        {
            // Router row 0 is the top bank strip; tile rows start at 1.
            let tile = (ev.at.x.min(w - 1), ev.at.y.saturating_sub(1).min(h - 1));
            out.push(crate::observe::ObsEvent {
                cycle: ev.cycle,
                cell,
                tile,
                kind: crate::observe::ObsKind::Retransmit,
            });
        }
    }

    /// Schedules a transient link fault (see [`hb_noc::Network`]): the next
    /// packet crossing the output link at (`at`, `port`) at or after
    /// `cycle` is corrupted in flight, detected, and replayed after
    /// [`hb_noc::RETRY_PENALTY`] cycles.
    pub fn schedule_link_fault(&mut self, req: bool, cycle: u64, at: Coord, port: hb_noc::Port) {
        if req {
            self.req_net.schedule_link_fault(cycle, at, port);
        } else {
            self.resp_net.schedule_link_fault(cycle, at, port);
        }
    }

    /// Injects an HBM channel stall window of `window` memory-clock cycles
    /// (see [`hb_mem::Hbm2Channel::stall_for`]); the telemetry instant is
    /// attributed to tile (0,0) of the Cell.
    pub fn inject_hbm_stall(&mut self, window: u64, cycle: u64) {
        self.hbm.stall_for(window);
        self.tiles[0].push_obs(
            cycle,
            crate::observe::ObsKind::Inject(crate::observe::InjectKind::Hbm),
        );
    }

    /// Packets currently inside the request network.
    pub fn req_in_flight(&self) -> u64 {
        self.req_net.in_flight()
    }

    /// Packets currently inside the response network.
    pub fn resp_in_flight(&self) -> u64 {
        self.resp_net.in_flight()
    }

    /// Total packets delivered by both NoCs so far (a cheap forward-progress
    /// signal for the hang watchdog).
    pub fn net_ejected(&self) -> u64 {
        self.req_net.stats().ejected + self.resp_net.stats().ejected
    }

    /// Link-level retransmits performed by both NoCs (injected faults that
    /// were detected and replayed).
    pub fn net_retransmits(&self) -> u64 {
        self.req_net.stats().retransmits + self.resp_net.stats().retransmits
    }

    /// Stats of one cache bank, as of the Cell's memory clock: a sleeping
    /// bank's skipped ticks are credited with the stall each would have
    /// recorded. The one read of the bank counters.
    pub fn bank_stats(&self, bank: usize) -> CacheStats {
        self.banks[bank].bank.stats_at(self.mem_cycle)
    }

    /// Request-network link stats for the output link at (`at`, `port`).
    pub fn request_link(&self, at: Coord, port: hb_noc::Port) -> LinkStats {
        self.req_net.link_stats(at, port)
    }

    /// Per-router cumulative request-network counters (ports summed),
    /// indexed row-major over the Cell's router grid — the cheap snapshot
    /// the telemetry sampler diffs each window.
    pub fn request_net_snapshot(&self) -> Vec<LinkStats> {
        self.req_net.snapshot()
    }

    /// Per-router cumulative response-network counters (ports summed).
    pub fn response_net_snapshot(&self) -> Vec<LinkStats> {
        self.resp_net.snapshot()
    }

    /// Request-network bisection stats at the Cell's vertical midline.
    pub fn request_bisection(&self) -> LinkStats {
        self.req_net.bisection_stats(self.cfg.net_width() / 2)
    }

    /// Number of links crossing the request-network bisection.
    pub fn request_bisection_links(&self) -> usize {
        self.req_net.bisection_link_count(self.cfg.net_width() / 2)
    }

    /// Host operation: flushes every cache bank's dirty lines into DRAM so
    /// results written through the write-validate caches become visible to
    /// [`dram`](Self::dram). Call after a kernel finishes, never mid-run.
    ///
    /// A run that was cut short (a trap, a timeout) can leave misses in
    /// flight, and a flush is only defined on a quiescent memory system:
    /// those are retired first by advancing the memory side alone — no
    /// tile or router steps, the cycle counter stands still.
    pub fn flush_caches(&mut self) {
        while self.banks.iter().any(|b| b.bank.outstanding_misses() > 0) {
            self.phase_memory();
        }
        for b in 0..self.banks.len() {
            for (line_addr, data, dirty) in self.banks[b].bank.flush_all() {
                self.dram.write_masked(line_addr, &data, dirty);
            }
        }
    }

    /// Delivers a request arriving from another Cell.
    pub fn deliver_remote_request(&mut self, pkt: Packet<Request>) {
        if let Some(b) = self.pgas.coord_to_bank(pkt.dst) {
            self.banks[b].inbox.push_back(pkt);
            self.note_inbox(b);
            self.wake_if_unpacks(b);
        } else if let Some((x, y)) = self.pgas.coord_to_tile(pkt.dst) {
            self.tile_mut(x, y).req_inbox.push_back(pkt);
        }
    }

    /// Delivers a response arriving from another Cell. Staged: the packet
    /// reaches the tile's `resp_inbox` on a later cycle, subject to the
    /// [`EJECT_PER_CYCLE`] delivery cap, so a cross-Cell response burst
    /// cannot exceed the latch rate a local response would observe.
    pub fn deliver_remote_response(&mut self, pkt: Packet<Response>) {
        if let Some((x, y)) = self.pgas.coord_to_tile(pkt.dst) {
            self.tile_mut(x, y).resp_stage.push_back(pkt);
        }
    }

    /// Advances the whole Cell one core-clock cycle.
    ///
    /// The cycle is a sequence of bulk-synchronous phases (see
    /// `crate::phase` for the model): network → memory → tiles → sync →
    /// inject. Tile inboxes/outboxes are written and drained in *different*
    /// phases, so they act as the double buffers between tile compute and
    /// the Cell plumbing.
    pub fn tick(&mut self) {
        self.tick_with(&mut NoClock);
    }

    /// The one cycle body; `clock` is told where each phase ends.
    pub(crate) fn tick_with(&mut self, clock: &mut impl PhaseClock) {
        #[cfg(test)]
        if reference::ENABLED.get() {
            return self.tick_reference();
        }
        self.cycle += 1;
        let now = self.cycle;
        self.phase_network();
        clock.lap(|t| &mut t.network);
        self.phase_memory();
        clock.lap(|t| &mut t.memory);
        // BSP phase 3 — every due tile executes one pipeline cycle.
        let park = self.cfg.event_core;
        self.sched
            .run_cycle(&mut self.tiles, &self.active, now, park, clock);
        self.phase_sync();
        clock.lap(|t| &mut t.sync);
        self.phase_inject();
        clock.lap(|t| &mut t.inject);
    }

    /// BSP phase 1 — networks advance, then ejection latches fill: requests
    /// to banks and tiles, responses to tiles. Delivery into a tile is
    /// rate-limited to [`EJECT_PER_CYCLE`] packets per network per cycle,
    /// matching the one-packet-per-cycle-per-port latch model (DESIGN.md,
    /// "Cycle model"): the request cap doubles as the inbox bound, the
    /// response cap throttles bursts that converge on one destination.
    fn phase_network(&mut self) {
        self.req_net.tick();
        self.resp_net.tick();
        let w = self.cfg.cell_dim.x as usize;
        // Requests: visit the nodes the network has a delivery for, less
        // the banks whose inbox is full: such a bank takes no packet, and
        // with none entering there is nothing to wake it for
        // (`wake_if_unpacks`).
        debug_assert!(self.inbox_full_is_exact(), "inbox_full drifted");
        self.ready.clear();
        self.ready
            .extend(self.req_net.ready_nodes_except(&self.inbox_full));
        self.work.eject_nodes += self.ready.len() as u64;
        for k in 0..self.ready.len() {
            let coord = self.ready[k];
            if let Some(b) = self.pgas.coord_to_bank(coord) {
                self.eject_requests_to_bank(b);
            } else if let Some((x, y)) = self.pgas.coord_to_tile(coord) {
                self.eject_requests_to_tile(y as usize * w + x as usize);
            }
        }
        // Responses: the tiles with a network delivery or a staged one.
        self.visit.union_with(&self.staged);
        for coord in self.resp_net.ready_nodes() {
            if let Some((x, y)) = self.pgas.coord_to_tile(coord) {
                self.visit.insert(y as usize * w + x as usize);
            }
        }
        let mut cursor = 0;
        while let Some(i) = self.visit.first_from(cursor) {
            cursor = i + 1;
            self.work.eject_nodes += 1;
            self.eject_responses_to_tile(i);
            if self.tiles[i].resp_stage.is_empty() {
                self.staged.remove(i);
            }
        }
        self.visit.clear();
    }

    /// Network phase, one bank: request packets into its inbox.
    fn eject_requests_to_bank(&mut self, b: usize) {
        let coord = self.banks[b].coord;
        while self.banks[b].can_take() {
            match self.req_net.eject(coord) {
                Some(pkt) => self.banks[b].inbox.push_back(pkt),
                None => break,
            }
        }
        self.note_inbox(b);
        self.wake_if_unpacks(b);
    }

    /// Keeps bank `b`'s `inbox_full` membership after its inbox changed.
    fn note_inbox(&mut self, b: usize) {
        let node = self.req_net.node_index(self.banks[b].coord);
        if self.banks[b].can_take() {
            self.inbox_full.remove(node);
        } else {
            self.inbox_full.insert(node);
        }
    }

    /// Whether `inbox_full` names exactly the banks with a full inbox.
    fn inbox_full_is_exact(&self) -> bool {
        let full = self.banks.iter().filter(|node| !node.can_take());
        let nodes = full.map(|node| self.req_net.node_index(node.coord));
        nodes.eq(self.inbox_full.iter())
    }

    /// Wakes bank `b` if its adapter can now unpack a packet: of what the
    /// network and inject phases do to a bank, a packet entering the inbox
    /// and room in the response outbox can end a sleeping bank's stall
    /// ([`BankNode::stall`]), and only by making that true.
    fn wake_if_unpacks(&mut self, b: usize) {
        if self.banks[b].unpacks() {
            self.mem_live.insert(b);
        }
    }

    /// Network phase, one tile: request packets into its bounded inbox.
    fn eject_requests_to_tile(&mut self, i: usize) {
        let (x, y) = self.tiles[i].xy;
        let coord = self.pgas.tile_coord(x, y);
        let mut delivered = false;
        while self.tiles[i].req_inbox.len() < EJECT_PER_CYCLE {
            match self.req_net.eject(coord) {
                Some(pkt) => {
                    self.tiles[i].req_inbox.push_back(pkt);
                    delivered = true;
                }
                None => break,
            }
        }
        // A delivery un-quiesces the tile: it must drain its inboxes on
        // this very cycle, exactly when a never-parked tile would.
        if delivered {
            self.sched.wake(i);
        }
    }

    /// Network phase, one tile: network responses, then fabric-staged ones,
    /// under one [`EJECT_PER_CYCLE`] budget.
    fn eject_responses_to_tile(&mut self, i: usize) {
        let (x, y) = self.tiles[i].xy;
        let coord = self.pgas.tile_coord(x, y);
        let mut ejected = 0;
        while ejected < EJECT_PER_CYCLE {
            match self.resp_net.eject(coord) {
                Some(pkt) => {
                    self.tiles[i].resp_inbox.push_back(pkt);
                    ejected += 1;
                }
                None => break,
            }
        }
        while ejected < EJECT_PER_CYCLE {
            match self.tiles[i].resp_stage.pop_front() {
                Some(pkt) => {
                    self.tiles[i].resp_inbox.push_back(pkt);
                    ejected += 1;
                }
                None => break,
            }
        }
        if ejected > 0 {
            self.sched.wake(i);
        }
    }

    /// BSP phase 2 — cache banks, refill strips and the HBM2 channel. A bank
    /// is ticked while it is in `mem_live`, a strip while it carries a
    /// transfer, each brought up to the memory clock first (DESIGN.md,
    /// "Event-driven core"); a bank whose next tick could only stall goes
    /// to sleep. The channel ticks on every memory-clock edge.
    fn phase_memory(&mut self) {
        #[cfg(test)]
        if reference::ENABLED.get() {
            return self.memory_reference();
        }
        self.mem_cycle += 1;
        let now = self.mem_cycle;
        let mut cursor = 0;
        while let Some(b) = self.mem_live.first_from(cursor) {
            cursor = b + 1;
            self.banks[b].bank.set_clock(now - 1);
            self.tick_bank(b);
            if let Some(stall) = self.banks[b].stall() {
                self.banks[b].bank.sleep(stall);
                self.mem_live.remove(b);
            }
        }
        for s in 0..2 {
            if self.strip_to_mem[s].pending() > 0 {
                self.strip_to_mem[s].set_clock(now - 1);
                self.tick_strip_to_mem(s);
            }
        }
        self.tick_hbm();
        for s in 0..2 {
            if self.strip_from_mem[s].pending() > 0 {
                self.strip_from_mem[s].set_clock(now - 1);
                self.tick_strip_from_mem(s);
            }
        }
    }

    /// Memory phase, one bank: adapter + bank pipeline, then its DRAM side.
    fn tick_bank(&mut self, b: usize) {
        self.work.bank_ticks += 1;
        let w = self.cfg.cell_dim.x as usize;
        self.banks[b].tick();
        self.note_inbox(b);
        if !self.banks[b].resp_outbox.is_empty() {
            self.bank_out.insert(b);
        }
        while let Some(lr) = self.banks[b].bank.pop_mem_request() {
            let id = self.next_mem_id;
            self.next_mem_id += 1;
            let (write, bytes) = match lr.kind {
                LineRequestKind::Fetch => (false, 8),
                LineRequestKind::Writeback { data, valid } => {
                    // Functional data lands in DRAM at enqueue time so a
                    // later fetch of the same line (FIFO-ordered on the
                    // strip) observes it; timing continues below.
                    self.dram.write_masked(lr.line_addr, &data, valid);
                    (true, 8 + self.cfg.line_bytes)
                }
            };
            self.mem_ops.insert(
                id,
                MemOp {
                    bank: b,
                    line_addr: lr.line_addr,
                    write,
                    data: None,
                },
            );
            self.strip_to_mem[usize::from(b >= w)].enqueue(hb_noc::StripTransfer {
                id,
                bank: b % w,
                bytes,
                write,
            });
        }
    }

    /// Memory phase, one strip channel toward memory: arrivals join the
    /// HBM2 retry queue.
    fn tick_strip_to_mem(&mut self, s: usize) {
        self.work.strip_ticks += 1;
        self.strip_to_mem[s].tick();
        while let Some(t) = self.strip_to_mem[s].pop_complete() {
            let op = self.mem_ops.get(t.id).expect("strip arrival without op");
            self.hbm_retry.push_back(DramRequest {
                id: t.id,
                addr: op.line_addr,
                write: op.write,
            });
        }
    }

    /// Memory phase, the HBM2 channel on its own clock: the retry queue
    /// drains into it, and a finished read rides a strip back to its bank.
    fn tick_hbm(&mut self) {
        if !self.hbm_clock.tick() {
            return;
        }
        let w = self.cfg.cell_dim.x as usize;
        while let Some(&req) = self.hbm_retry.front() {
            if self.hbm.enqueue(req) {
                self.hbm_retry.pop_front();
            } else {
                break;
            }
        }
        self.hbm.tick();
        while let Some(resp) = self.hbm.pop_response() {
            if resp.write {
                self.mem_ops.remove(resp.id);
            } else {
                let op = self.mem_ops.get_mut(resp.id).expect("unknown HBM response");
                let line = op.data.insert(vec![0; self.cfg.line_bytes as usize]);
                self.dram.read_into(op.line_addr, line);
                self.strip_from_mem[usize::from(op.bank >= w)].enqueue(hb_noc::StripTransfer {
                    id: resp.id,
                    bank: op.bank % w,
                    bytes: 8 + self.cfg.line_bytes,
                    write: false,
                });
            }
        }
    }

    /// Memory phase, one strip channel from memory: a refill completes into
    /// its bank, which is brought up to the memory clock and wakes.
    fn tick_strip_from_mem(&mut self, s: usize) {
        self.work.strip_ticks += 1;
        self.strip_from_mem[s].tick();
        while let Some(t) = self.strip_from_mem[s].pop_complete() {
            let op = self.mem_ops.remove(t.id).expect("refill without op");
            let data = op.data.expect("refill without data");
            let bank = &mut self.banks[op.bank].bank;
            bank.set_clock(self.mem_cycle);
            bank.complete_fetch(op.line_addr, &data);
            self.mem_live.insert(op.bank);
        }
    }

    /// BSP phase 4 — barrier joins and releases. Visits the tiles the host
    /// touched and the stepped tiles whose step left work
    /// ([`TileSched::with_work`]; only a step raises a join or traps); a
    /// release is consumed where the barrier network says one arrived, or
    /// where a tile just started waiting.
    fn phase_sync(&mut self) {
        let w = self.cfg.cell_dim.x as usize;
        self.release_check.clear();
        let mut cursor = 0;
        while let Some(i) = self.touched.first_from(cursor) {
            cursor = i + 1;
            self.visit.insert(i);
            self.release_check.push(i as u32);
            self.sync_tile(i);
        }
        self.touched.clear();
        for k in 0..self.sched.with_work().len() {
            let i = self.sched.with_work()[k] as usize;
            self.visit.insert(i);
            self.sync_tile(i);
        }
        for (barrier, &(ox, oy)) in self.barriers.iter_mut().zip(&self.barrier_origin) {
            barrier.tick();
            self.release_check.extend(
                barrier
                    .released_this_tick()
                    .map(|c| ((oy + c.y) as usize * w + (ox + c.x) as usize) as u32),
            );
        }
        self.work.sync_tiles += self.release_check.len() as u64;
        for k in 0..self.release_check.len() {
            self.consume_release(self.release_check[k] as usize);
        }
    }

    /// Sync phase, one touched tile or one stepped tile with work: notes a
    /// trap, forwards a raised join flag (a tile that just started waiting
    /// may find an earlier release still unconsumed, so it is checked for
    /// one).
    #[inline]
    fn sync_tile(&mut self, i: usize) {
        self.work.sync_tiles += 1;
        self.maybe_fault |= self.tiles[i].fault().is_some();
        if self.join_if_wanted(i) {
            self.release_check.push(i as u32);
        }
    }

    /// Tile `i`'s group barrier and its node there.
    fn barrier_node(&self, i: usize) -> (usize, Coord) {
        let g = self.tiles[i].group();
        let (x, y) = self.tiles[i].xy;
        (g.barrier_id, Coord::new(x - g.origin.0, y - g.origin.1))
    }

    /// Sync phase, one tile: forwards a raised join flag to its barrier.
    #[inline]
    fn join_if_wanted(&mut self, i: usize) -> bool {
        let wanted = self.tiles[i].wants_join;
        if wanted {
            self.tiles[i].wants_join = false;
            let (barrier, node) = self.barrier_node(i);
            self.barriers[barrier].join(node);
        }
        wanted
    }

    /// Sync phase, one tile: a waiting tile takes its release, if one came.
    fn consume_release(&mut self, i: usize) {
        if !(self.active[i] && self.tiles[i].barrier_waiting) {
            return;
        }
        let (barrier, node) = self.barrier_node(i);
        if self.barriers[barrier].is_released(node) {
            self.barriers[barrier].consume_release(node);
            self.tiles[i].barrier_waiting = false;
            self.tiles[i].race_epoch_end();
            // Barrier release re-arms the parked tile; it resumes on the
            // next cycle's tile phase, like a never-parked one.
            self.sched.wake(i);
        }
    }

    /// The `extra` section of the Cell's snapshot: the banks, the strips and
    /// `active`, encoded as the `fixed:` class would (each bank with its
    /// counters settled to `mem_cycle`, so a sleeping bank saves what an
    /// awake one would), then the program images.
    fn save_extra(&self, w: &mut hb_mem::SnapWriter) {
        w.usize(self.banks.len());
        for node in &self.banks {
            node.save_state_at(self.mem_cycle, w);
        }
        hb_mem::snap::save_fixed(&self.strip_to_mem[..], w);
        hb_mem::snap::save_fixed(&self.strip_from_mem[..], w);
        hb_mem::snap::save_fixed(&self.active[..], w);
        self.save_programs(w);
    }

    /// Decodes what [`save_extra`](Self::save_extra) wrote.
    fn load_extra(&mut self, r: &mut hb_mem::SnapReader) -> Result<(), SnapError> {
        use hb_mem::snap::load_fixed;
        load_fixed(&mut self.banks[..], r, "Cell.banks length mismatch")?;
        load_fixed(
            &mut self.strip_to_mem[..],
            r,
            "Cell.strip_to_mem length mismatch",
        )?;
        load_fixed(
            &mut self.strip_from_mem[..],
            r,
            "Cell.strip_from_mem length mismatch",
        )?;
        load_fixed(&mut self.active[..], r, "Cell.active length mismatch")?;
        self.load_programs(r)
    }

    /// The program images. Tiles launched from the same `Arc<Program>`
    /// share one image, so the stream carries a deduplicated table
    /// (identity is the pointer) and one index into it per tile.
    fn save_programs(&self, w: &mut hb_mem::SnapWriter) {
        let mut table: Vec<&Arc<Program>> = Vec::new();
        let indices: Vec<Option<u32>> = (self.tiles.iter())
            .map(|t| {
                let p = t.program()?;
                let at = table.iter().position(|q| Arc::ptr_eq(q, p));
                Some(at.unwrap_or_else(|| {
                    table.push(p);
                    table.len() - 1
                }) as u32)
            })
            .collect();
        w.usize(table.len());
        for p in table {
            w.u32(p.base());
            hb_mem::snap::save_fixed(p.words(), w);
        }
        indices.save(w);
    }

    /// Decodes the program table and re-attaches each tile's image, which
    /// a restored guest profile must describe.
    fn load_programs(&mut self, r: &mut hb_mem::SnapReader) -> Result<(), SnapError> {
        let programs = Vec::<(u32, Vec<u32>)>::load(r)?
            .into_iter()
            .map(|(base, words)| match Program::from_words(base, &words) {
                Ok(p) => Ok(Arc::new(p)),
                Err(_) => Err(SnapError::Bad("program word fails to decode")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let indices = Vec::<Option<u32>>::load(r)?;
        if indices.len() != self.tiles.len() {
            return Err(SnapError::Bad("Cell program index count mismatch"));
        }
        for (tile, idx) in self.tiles.iter_mut().zip(indices) {
            let image = idx.map(|i| programs.get(i as usize).cloned());
            let image = image.map(|p| p.ok_or(SnapError::Bad("program table index out of range")));
            tile.set_program(image.transpose()?);
            tile.check_profile()?;
        }
        Ok(())
    }

    /// After a restore: every in-flight line operation names a live bank,
    /// the read ones and the banks' outstanding fetches pair up one to one,
    /// and every barrier network lies inside the Cell; then the derived
    /// state — bank and strip clocks from the memory clock, `inbox_full`
    /// from the banks' inboxes, barrier origins from the tiles' group
    /// registers, every worklist full so the next cycle looks everywhere
    /// once.
    fn check_restored(&mut self) -> Result<(), SnapError> {
        if self.mem_ops.values().any(|op| op.bank >= self.banks.len()) {
            return Err(SnapError::Bad("mem op bank index out of range"));
        }
        let line_bytes = self.cfg.line_bytes as usize;
        let reads: Vec<&MemOp> = self.mem_ops.values().filter(|op| !op.write).collect();
        let awaited = |op: &&MemOp| {
            self.banks[op.bank].bank.awaits_fetch(op.line_addr)
                && op.data.as_ref().is_none_or(|line| line.len() == line_bytes)
        };
        if !reads.iter().all(awaited) {
            return Err(SnapError::Bad("mem op reads a line no MSHR awaits"));
        }
        let mut lines: Vec<(usize, u32)> = reads.iter().map(|op| (op.bank, op.line_addr)).collect();
        lines.sort_unstable();
        lines.dedup();
        let mshrs: usize = self.banks.iter().map(|b| b.bank.outstanding_misses()).sum();
        if lines.len() != reads.len() || reads.len() != mshrs {
            return Err(SnapError::Bad("MSHR without exactly one mem op"));
        }
        self.inbox_full.clear();
        for node in &mut self.banks {
            node.bank.set_clock(self.mem_cycle);
            if !node.can_take() {
                self.inbox_full.insert(self.req_net.node_index(node.coord));
            }
        }
        for strip in self.strip_to_mem.iter_mut().chain(&mut self.strip_from_mem) {
            strip.set_clock(self.mem_cycle);
        }
        self.barrier_origin = vec![(0, 0); self.barriers.len()];
        for (t, _) in self.tiles.iter().zip(&self.active).filter(|(_, &a)| a) {
            if let Some(origin) = self.barrier_origin.get_mut(t.group().barrier_id) {
                *origin = t.group().origin;
            }
        }
        let (w, h) = (self.cfg.cell_dim.x, self.cfg.cell_dim.y);
        let fits = |(b, &(ox, oy)): (&BarrierNetwork, &(u8, u8))| {
            u16::from(ox) + u16::from(b.width()) <= u16::from(w)
                && u16::from(oy) + u16::from(b.height()) <= u16::from(h)
        };
        if !self.barriers.iter().zip(&self.barrier_origin).all(fits) {
            return Err(SnapError::Bad("barrier network leaves the cell"));
        }
        self.sched.set_active(&self.active)?;
        self.staged.insert_all();
        self.touched.insert_all();
        self.backlog.insert_all();
        self.bank_out.insert_all();
        self.mem_live.insert_all();
        self.maybe_fault = true;
        Ok(())
    }

    /// BSP phase 5 — injections: tile and bank outboxes drain into the
    /// routers (cross-Cell traffic diverts to the fabric queues). Visits, in
    /// index order (the order the fabric queues are filled in), the tiles
    /// that can hold an outgoing packet — the stepped ones whose step left
    /// work, those the host touched, those left with a backlog — and the
    /// banks the memory phase saw with a response (one that room in its
    /// outbox lets unpack a packet wakes). A stepped tile without work was
    /// seen with both outboxes empty right after its step, and nothing
    /// since has filled them.
    fn phase_inject(&mut self) {
        // `visit` still names the touched tiles and the stepped ones with
        // work. It leaves `self` for the walk, which needs all of `self` per
        // tile.
        self.visit.union_with(&self.backlog);
        self.backlog.clear();
        let mut visit = std::mem::take(&mut self.visit);
        for i in visit.iter() {
            self.work.inject_nodes += 1;
            if self.tiles[i].req_outbox.is_empty() && self.tiles[i].resp_outbox.is_empty() {
                continue;
            }
            self.inject_from_tile(i);
            if !(self.tiles[i].req_outbox.is_empty() && self.tiles[i].resp_outbox.is_empty()) {
                self.backlog.insert(i);
            }
        }
        visit.clear();
        self.visit = visit;
        let mut cursor = 0;
        while let Some(b) = self.bank_out.first_from(cursor) {
            cursor = b + 1;
            self.work.inject_nodes += 1;
            self.inject_from_bank(b);
            self.wake_if_unpacks(b);
            if self.banks[b].resp_outbox.is_empty() {
                self.bank_out.remove(b);
            }
        }
    }

    /// Inject phase, one tile: its request outbox, then its response outbox.
    fn inject_from_tile(&mut self, i: usize) {
        let (x, y) = self.tiles[i].xy;
        let coord = self.pgas.tile_coord(x, y);
        let tile = &mut self.tiles[i];
        let (req, xreq) = (&mut self.req_net, &mut self.xreq_out);
        drain_outbox(&mut tile.req_outbox, self.id, coord, req, xreq);
        let (resp, xresp) = (&mut self.resp_net, &mut self.xresp_out);
        drain_outbox(&mut tile.resp_outbox, self.id, coord, resp, xresp);
    }

    /// Inject phase, one bank: its response outbox.
    fn inject_from_bank(&mut self, b: usize) {
        let bank = &mut self.banks[b];
        let (resp, xresp) = (&mut self.resp_net, &mut self.xresp_out);
        drain_outbox(&mut bank.resp_outbox, self.id, bank.coord, resp, xresp);
    }
}

/// Drains a node's outbox in order: packets for Cell `own` inject into
/// `net` at `coord` until its injection FIFO is full (the rest wait for the
/// next cycle); packets for other Cells divert to the `fabric` queue.
fn drain_outbox<P: Clone + std::fmt::Debug>(
    outbox: &mut VecDeque<(u8, Packet<P>)>,
    own: u8,
    coord: Coord,
    net: &mut Network<P>,
    fabric: &mut VecDeque<(u8, Packet<P>)>,
) {
    while let Some(&(cell, _)) = outbox.front() {
        if cell == own && !net.can_inject(coord) {
            break;
        }
        let (cell, pkt) = outbox.pop_front().expect("front was just read");
        if cell == own {
            net.inject(coord, pkt);
        } else {
            fabric.push_back((cell, pkt));
        }
    }
}

hb_mem::snap_value!(MemOp {
    bank,
    line_addr,
    write,
    data
});
hb_mem::snap_state!(Cell [b"CELL"] {
    save: cycle, alloc_ptr, req_net, resp_net, hbm, hbm_clock, dram, hbm_retry, mem_cycle,
        mem_ops, next_mem_id, barriers, sched, xreq_out, xresp_out;
    fixed: tiles;
    // `banks`, the strips and `active` are saved by `save_extra`.
    host: cfg, id, pgas, banks, strip_to_mem, strip_from_mem, active, staged, touched, backlog,
        bank_out, inbox_full, mem_live, visit, ready, release_check, barrier_origin, maybe_fault, work;
} extra (save_extra, load_extra) check check_restored);

/// The every-node, every-tile scans the worklists replaced, kept as the
/// oracle of `worklist_phases_match_the_full_scans`: the same per-node work
/// at ~290 nodes in the network phase, at every bank and strip every memory
/// cycle, at every tile twice in the sync phase, at every tile and every
/// bank in the inject phase. They read no worklist and skip no tick, so
/// every bank's and strip's own clock keeps pace with the Cell's by ticking.
#[cfg(test)]
mod reference {
    use super::*;

    thread_local! {
        /// While set, `Cell::tick` and `flush_caches` on this thread run the
        /// reference scans.
        pub(super) static ENABLED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    }

    impl Cell {
        pub(super) fn memory_reference(&mut self) {
            self.mem_cycle += 1;
            for b in 0..self.banks.len() {
                self.tick_bank(b);
            }
            for s in 0..2 {
                self.tick_strip_to_mem(s);
            }
            self.tick_hbm();
            for s in 0..2 {
                self.tick_strip_from_mem(s);
            }
        }

        /// Banks asleep with stall counts owed: their settled counters are
        /// ahead of the ones they hold.
        pub(super) fn owing_banks(&self) -> usize {
            let counts = |s: CacheStats| (s.rejected_input, s.rejected_mshr, s.blocked_cycles);
            (0..self.banks.len())
                .filter(|&b| counts(self.banks[b].bank.stats()) != counts(self.bank_stats(b)))
                .count()
        }

        pub(super) fn tick_reference(&mut self) {
            self.cycle += 1;
            self.maybe_fault = true;

            self.req_net.tick();
            self.resp_net.tick();
            for b in 0..self.banks.len() {
                self.eject_requests_to_bank(b);
            }
            for i in 0..self.tiles.len() {
                self.eject_requests_to_tile(i);
                self.eject_responses_to_tile(i);
            }

            self.memory_reference();
            let (now, park) = (self.cycle, self.cfg.event_core);
            (self.sched).run_cycle(&mut self.tiles, &self.active, now, park, &mut NoClock);

            for i in 0..self.tiles.len() {
                self.join_if_wanted(i);
            }
            for barrier in &mut self.barriers {
                barrier.tick();
            }
            for i in 0..self.tiles.len() {
                self.consume_release(i);
            }

            for i in 0..self.tiles.len() {
                self.inject_from_tile(i);
            }
            for b in 0..self.banks.len() {
                self.inject_from_bank(b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CellDim;
    use crate::payload::RespKind;

    fn small_cell() -> Cell {
        let cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 2 },
            ..MachineConfig::baseline_16x8()
        };
        Cell::new(Arc::new(cfg), 0)
    }

    /// Regression for the response-inbox unboundedness asymmetry: request
    /// ejection was capped but responses could land in `resp_inbox` at an
    /// unbounded per-cycle rate through the fabric path. A burst of N
    /// responses must now take at least N / EJECT_PER_CYCLE cycles to
    /// deliver, and no cycle may deliver more than EJECT_PER_CYCLE.
    #[test]
    fn response_burst_delivery_is_rate_limited() {
        let mut cell = small_cell();
        let dst = cell.pgas().tile_coord(0, 0);
        let n = 4 * EJECT_PER_CYCLE;
        for i in 0..n {
            cell.deliver_remote_response(Packet {
                src: dst,
                dst,
                payload: crate::payload::Response {
                    op_id: i as u32,
                    kind: RespKind::StoreAck,
                },
            });
        }
        // The tile is idle (never launched), so delivered responses
        // accumulate in its inbox where the per-cycle rate is observable.
        let mut prev = 0usize;
        let mut cycles = 0u64;
        while cell.tile(0, 0).resp_inbox.len() < n {
            cell.tick();
            cycles += 1;
            let len = cell.tile(0, 0).resp_inbox.len();
            assert!(
                len - prev <= EJECT_PER_CYCLE,
                "{} responses delivered in one cycle (cap {EJECT_PER_CYCLE})",
                len - prev
            );
            prev = len;
            assert!(cycles <= 4 * n as u64, "burst failed to deliver");
        }
        let floor = (n / EJECT_PER_CYCLE) as u64;
        assert!(
            cycles >= floor,
            "a {n}-response burst must take >= {floor} cycles, took {cycles}"
        );
    }

    /// The oracle for the Cell-side worklists: two 2-Cell machines in
    /// lockstep, one ticking the worklist phases, one the full scans they
    /// replaced (`reference`), under both park policies. The kernel makes
    /// every kind of work the worklists track — cross-Cell AMOs on one hot
    /// bank (fabric queues, staged responses, bank back-pressure), remote
    /// scratchpad stores converging on one tile per group (inbox bound,
    /// outbox backlog on parked tiles), a barrier per iteration in four
    /// groups, a load and a store to a new line every iteration (misses,
    /// write-validate fills or write-allocate fetches, evictions and
    /// writebacks through small banks, MSHR-full back-pressure) — over
    /// blocking and non-blocking banks, and the host adds its own: a freeze
    /// and a bogus response that traps a tile through `tile_mut`, an HBM2
    /// stall, a burst of loads into one bank behind a slow response network
    /// (the bank sleeps with a full outbox over its inbox), a `flush_caches`,
    /// a restore in place (over banks asleep with stall counts owed) and two
    /// into a fresh machine mid-run (one over a full inbox); some bank's
    /// full inbox keeps a waiting request out of the ejection walk. Checkpoint
    /// bytes, cache counters, tile-tick counts and the reported fault agree
    /// after every cycle.
    #[test]
    fn worklist_phases_match_the_full_scans() {
        use crate::kernel_util::HbOps;
        use hb_isa::Gpr::*;
        let mut a = hb_asm::Assembler::new();
        a.tg_rank(T0, T6);
        a.li(S0, 40);
        a.li(T2, 1);
        a.li_u(T3, crate::pgas::group_spm(0, 0, 256));
        a.slli(T5, T0, 11);
        a.add(A2, A2, T5);
        let top = a.here();
        a.amoadd(Zero, T2, A0);
        a.lw(T4, A1, 0);
        a.lw(T1, A2, 0);
        a.sw(T0, A2, 1024);
        a.addi(A2, A2, 64);
        a.sw(T0, T3, 0);
        a.sw(T0, T3, 4);
        a.sw(T0, T3, 8);
        a.barrier(T6);
        a.addi(S0, S0, -1);
        a.bnez(S0, top);
        a.fence();
        a.ecall();
        let program = Arc::new(a.assemble(0).unwrap());

        // (park policy, non-blocking banks, write-validate, MSHRs per bank,
        // cycles a packet holds a link)
        for (event_core, non_blocking_cache, write_validate, cache_mshrs, link_occupancy) in [
            (true, true, true, 1, 1),
            (false, false, false, 8, 1),
            (true, true, false, 2, 3),
        ] {
            let cfg = MachineConfig {
                cell_dim: CellDim { x: 4, y: 2 },
                num_cells: 2,
                dram_bytes_per_cell: 64 << 10,
                // Shallow FIFOs: tiles park in the barrier with stores
                // still waiting in their outbox for an injection slot.
                net_fifo_depth: 1,
                event_core,
                non_blocking_cache,
                write_validate,
                cache_mshrs,
                cache_sets: 4,
                cache_ways: 2,
                link_occupancy,
                ..MachineConfig::baseline_16x8()
            };
            let dram = crate::pgas::local_dram;
            let args = vec![crate::pgas::global_dram(64), dram(128), dram(4096)];
            let groups: Vec<_> = (GroupSpec::grid(&cfg, 2, 2).into_iter())
                .map(|g| (g, args.clone()))
                .collect();
            let build = || {
                let mut m = crate::Machine::new(cfg.clone());
                m.launch_groups(0, &program, &groups);
                m.launch_groups(1, &program, &groups);
                m
            };
            let (mut fast, mut slow) = (build(), build());
            let tag = format!("event_core {event_core}, {cache_mshrs} MSHRs");
            // Cycles some bank's inbox was full with a request waiting for
            // it in the network, and restores over such a bank.
            let (mut excluded, mut restored_full) = (0, 0);
            for cycle in 1..=3400u64 {
                for m in [&mut fast, &mut slow] {
                    match cycle {
                        40 => m.cell_mut(0).tile_mut(1, 0).freeze(60, cycle),
                        300 => m.cell_mut(0).inject_hbm_stall(80, cycle),
                        500 => {
                            let dst = m.cell(1).pgas().tile_coord(3, 1);
                            m.cell_mut(1).deliver_remote_response(Packet {
                                src: dst,
                                dst,
                                payload: crate::payload::Response {
                                    op_id: 0xdead,
                                    kind: RespKind::StoreAck,
                                },
                            });
                        }
                        620 => {
                            // Loads for the trapped tile, faster than a
                            // slow response network drains them: a bank
                            // sleeps with a full outbox over its inbox.
                            let cell = m.cell_mut(1);
                            let from = crate::payload::NodeId {
                                cell: 1,
                                coord: cell.pgas().tile_coord(3, 1),
                            };
                            let dst = cell.pgas().bank_coord(cell.pgas().bank_for(128));
                            for op_id in 0..24 {
                                let kind = crate::payload::ReqKind::Load {
                                    addr: 128,
                                    width: 4,
                                    count: 1,
                                };
                                let payload = Request { from, op_id, kind };
                                let src = from.coord;
                                cell.deliver_remote_request(Packet { src, dst, payload });
                            }
                        }
                        _ => {}
                    }
                }
                let full = |m: &crate::Machine| {
                    (0..2).filter(|&c| !m.cell(c).inbox_full.is_empty()).count()
                };
                if cycle == 580 {
                    // Sleeping banks save settled and restore awake, over
                    // their own stale sleep.
                    let owing = (0..2).map(|c| fast.cell(c).owing_banks()).sum::<usize>();
                    assert!(owing > 0, "no bank owes a stall at the restore ({tag})");
                    restored_full += full(&fast);
                    fast.restore_checkpoint(&fast.save_checkpoint()).unwrap();
                }
                if cycle == 630 {
                    // The burst at 620 left its bank's inbox full: a fresh
                    // machine restored from it must rebuild `inbox_full`.
                    restored_full += full(&fast);
                    let mut restored = crate::Machine::new(cfg.clone());
                    restored
                        .restore_checkpoint(&fast.save_checkpoint())
                        .unwrap();
                    fast = restored;
                }
                if cycle == 700 {
                    restored_full += full(&fast);
                    let mut restored = crate::Machine::new(cfg.clone());
                    restored
                        .restore_checkpoint(&fast.save_checkpoint())
                        .unwrap();
                    fast = restored;
                }
                if cycle == 900 {
                    fast.cell_mut(1).flush_caches();
                    reference::ENABLED.set(true);
                    slow.cell_mut(1).flush_caches();
                    reference::ENABLED.set(false);
                }
                excluded += (0..2)
                    .filter(|&c| {
                        let cell = fast.cell(c);
                        cell.req_net.ready_nodes().count()
                            > cell.req_net.ready_nodes_except(&cell.inbox_full).count()
                    })
                    .count();
                fast.tick();
                reference::ENABLED.set(true);
                slow.tick();
                reference::ENABLED.set(false);
                assert!(
                    fast.save_checkpoint() == slow.save_checkpoint(),
                    "state diverged at cycle {cycle} ({tag})"
                );
                assert_eq!(fast.tile_ticks(), slow.tile_ticks(), "cycle {cycle}");
                for c in 0..2 {
                    let (f, s) = (fast.cell(c), slow.cell(c));
                    assert_eq!(f.fault(), s.fault(), "cycle {cycle}");
                    assert_eq!(f.cache_stats(), s.cache_stats(), "cycle {cycle} ({tag})");
                    for (b, node) in s.banks.iter().enumerate() {
                        assert_eq!(node.bank.stats(), s.bank_stats(b), "bank {b} clock");
                    }
                }
            }
            // The run did what the test needs: traffic crossed the fabric,
            // barriers completed, the bogus response trapped its tile, banks
            // missed, wrote back and ran out of MSHRs, and the worklist
            // machine ticked fewer banks than the sweep.
            assert!(fast.cell(1).fault().is_some() && fast.cell(0).fault().is_none());
            assert!(fast.cell(0).all_done() && !fast.cell(1).all_done());
            let work = fast.cell(0).work();
            assert!(work.noc.latches > 0 && work.barrier_nodes > 0, "{work:?}");
            let (cache, hbm) = (fast.cell(0).cache_stats(), *fast.cell(0).hbm_stats());
            assert!(
                cache.writebacks > 0 && cache.blocked_cycles > 0,
                "{cache:?}"
            );
            assert!(cache.rejected_mshr > 0 || cache_mshrs == 8, "{cache:?}");
            assert!(hbm.reads > 0 && hbm.writes > 0, "{hbm:?}");
            assert!(work.bank_ticks < slow.cell(0).work().bank_ticks, "{tag}");
            assert!(excluded > 0 && restored_full > 0, "{tag}");
        }
    }

    /// The network phase costs deliveries, not waits: every tile's loads
    /// converge on one bank with a single MSHR, whose inbox then stays full
    /// while more requests wait for it in the network for most of the run,
    /// yet the ejection walk visits a node only to eject from it.
    #[test]
    fn a_full_bank_inbox_costs_no_ejection_visits() {
        use crate::kernel_util::HbOps;
        use hb_isa::Gpr::*;
        const LOADS: u32 = 32;
        let cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 2 },
            cache_mshrs: 1,
            ipoly_hashing: false,
            ..MachineConfig::baseline_16x8()
        };
        let mut m = crate::Machine::new(cfg.clone());
        // Lines 0, 8, 16, ... stripe onto one bank; tile `r` loads `LOADS`
        // of them from line `8 * LOADS * r` on, four per iteration.
        let stride = cfg.line_bytes * cfg.banks_per_cell() as u32;
        let tiles = cfg.cell_dim.tiles() as u32;
        let base = m.cell_mut(0).alloc(stride * LOADS * tiles, stride);
        let mut a = hb_asm::Assembler::new();
        a.tg_rank(T0, T6);
        a.slli(T0, T0, (stride * LOADS).trailing_zeros() as i32);
        a.add(A0, A0, T0);
        a.li(S0, LOADS as i32 / 4);
        a.li_u(T2, 4 * stride);
        let top = a.here();
        for (k, r) in [T1, T3, T4, T5].into_iter().enumerate() {
            a.lw(r, A0, k as i32 * stride as i32);
        }
        a.add(A0, A0, T2);
        a.addi(S0, S0, -1);
        a.bnez(S0, top);
        a.fence();
        a.ecall();
        let program = Arc::new(a.assemble(0).unwrap());
        m.launch(0, &program, &[crate::pgas::local_dram(base)]);
        let bank = m.cell(0).pgas().bank_for(base);
        let coord = m.cell(0).pgas().bank_coord(bank);
        let mut waits = 0;
        while !m.all_done() {
            m.tick();
            let cell = m.cell(0);
            let waiting = cell.req_net.ready_nodes().any(|c| c == coord);
            waits += u64::from(waiting && !cell.banks[bank].can_take());
        }
        let cell = m.cell(0);
        let work = cell.work();
        assert_eq!(cell.bank_stats(bank).misses, u64::from(LOADS * tiles));
        assert!(
            waits > m.cycle() / 2,
            "the inbox was full with a request waiting on {waits} of {} cycles",
            m.cycle()
        );
        assert!(
            work.eject_nodes <= cell.net_ejected(),
            "{} ejection visits for {} packets ejected ({waits} cycles waiting)",
            work.eject_nodes,
            cell.net_ejected()
        );
    }

    /// The memory phase costs refills, not stalled cycles: one tile's loads
    /// to distinct lines of one bank with a single MSHR keep that bank
    /// stalled nearly every cycle (`rejected_mshr` grows with the cycle
    /// count), yet it is ticked a few times per load — on arrivals and
    /// after refills — where a bank that never sleeps is ticked every
    /// stalled cycle.
    #[test]
    fn a_bank_stalled_on_its_mshrs_costs_ticks_per_refill_not_per_cycle() {
        use crate::kernel_util::HbOps;
        use hb_isa::Gpr::*;
        const LOADS: u64 = 64;
        let cfg = MachineConfig {
            cell_dim: CellDim { x: 4, y: 2 },
            cache_mshrs: 1,
            ipoly_hashing: false,
            ..MachineConfig::baseline_16x8()
        };
        let mut m = crate::Machine::new(cfg.clone());
        // Lines 0, 8, 16, ... stripe onto one bank: every load a primary
        // miss, four in flight per iteration.
        let stride = cfg.line_bytes * cfg.banks_per_cell() as u32;
        let base = m.cell_mut(0).alloc(stride * LOADS as u32, stride);
        let mut a = hb_asm::Assembler::new();
        a.tg_rank(T0, T6);
        let done = a.new_label();
        a.bnez(T0, done);
        a.li(S0, LOADS as i32 / 4);
        a.li_u(T2, 4 * stride);
        let top = a.here();
        for (k, r) in [T1, T3, T4, T5].into_iter().enumerate() {
            a.lw(r, A0, k as i32 * stride as i32);
        }
        a.add(A0, A0, T2);
        a.addi(S0, S0, -1);
        a.bnez(S0, top);
        a.bind(done);
        a.fence();
        a.ecall();
        let program = Arc::new(a.assemble(0).unwrap());
        m.launch(0, &program, &[crate::pgas::local_dram(base)]);
        let summary = m.run(1_000_000).unwrap();
        let (cell, bank) = (m.cell(0), m.cell(0).pgas().bank_for(base));
        let (work, stats) = (cell.work(), cell.bank_stats(bank));
        assert_eq!(stats.misses, LOADS, "{stats:?}");
        assert!(
            stats.rejected_mshr > summary.cycles / 2,
            "{stats:?} over {} cycles",
            summary.cycles
        );
        assert!(work.bank_ticks <= 3 * LOADS, "{work:?} for {LOADS} loads");
    }

    /// The memory phase costs requests, not banks (`CellWork::bank_ticks`,
    /// `strip_ticks`): an idle Cell ticks no bank and no strip, and one load
    /// that misses to DRAM ticks its bank twice (on arrival, and to answer
    /// after the refill) and each strip it rides for the transfer alone —
    /// where the every-bank sweep ticked all 32 banks and four strips every
    /// cycle of the round trip.
    #[test]
    fn one_dram_miss_costs_a_handful_of_bank_ticks() {
        use crate::payload::{NodeId, ReqKind, Request};
        let mut cell = Cell::new(Arc::new(MachineConfig::baseline_16x8()), 0);
        for _ in 0..1000 {
            cell.tick();
        }
        assert_eq!(cell.work(), CellWork::default());

        let addr = 0x1_0000;
        let bank = cell.pgas().bank_for(addr);
        let (src, dst) = (cell.pgas().tile_coord(0, 0), cell.pgas().bank_coord(bank));
        let from = NodeId {
            cell: 0,
            coord: src,
        };
        let kind = ReqKind::Load {
            addr,
            width: 4,
            count: 1,
        };
        let payload = Request {
            from,
            op_id: 1,
            kind,
        };
        cell.deliver_remote_request(Packet { src, dst, payload });
        let mut cycles = 0;
        while cell.tile(0, 0).resp_inbox.is_empty() {
            cell.tick();
            cycles += 1;
            assert!(cycles < 1000, "the load never came back");
        }
        let work = cell.work();
        assert_eq!(cell.bank_stats(bank).misses, 1);
        assert_eq!(work.bank_ticks, 2, "{work:?}");
        assert!(
            work.strip_ticks < cycles / 2,
            "{work:?} over {cycles} cycles"
        );
    }

    /// The phase split must not change what a cycle does: an idle Cell
    /// ticks without panicking and advances its cycle counter.
    #[test]
    fn idle_cell_ticks_through_phases() {
        let mut cell = small_cell();
        for _ in 0..32 {
            cell.tick();
        }
        assert_eq!(cell.cycle(), 32);
        assert!(cell.all_done());
    }
}
