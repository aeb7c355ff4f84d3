//! The HammerBlade tile: an area-optimized, single-issue, in-order RV32IMAF
//! core with a 4 KB scratchpad, 4 KB icache, static branch predictor,
//! non-blocking remote memory operations through a 63-entry scoreboard, and
//! Load Packet Compression — plus its network interface.
//!
//! The timing model is cycle-level: each [`Tile::step`] call advances one
//! core cycle, either retiring one instruction or recording exactly one
//! categorized stall cycle ([`StallKind`]). Result latencies are modelled
//! with per-register ready times (bypass-visible latency), remote operations
//! with pending bits cleared by response packets.

use crate::config::MachineConfig;
use crate::icache::ICache;
use crate::payload::{NodeId, ReqKind, Request, RespKind, Response};
use crate::pgas::{csr, PgasMap, Target};
use crate::sched::Park;
use crate::stats::{CoreStats, StallKind};
use crate::trace::{TraceEvent, TraceHandle};
use hb_asm::Program;
use hb_isa::{Fpr, Gpr, Instr};
use hb_noc::{Coord, Packet};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Destination of an in-flight remote load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dst {
    /// Integer register (x0 = discard).
    Int(Gpr),
    /// FP register.
    Fp(Fpr),
}

/// Book-keeping for one outstanding remote operation.
#[derive(Debug, Clone)]
enum PendingOp {
    /// A (possibly compressed) load: one destination per word.
    Load {
        dsts: Vec<Dst>,
        width: u8,
        signed: bool,
    },
    /// A posted store awaiting its scoreboard credit.
    Store,
    /// An atomic op returning the old value.
    Amo { rd: Gpr },
}

/// Load-packet-compression combining latch.
#[derive(Debug, Clone)]
struct Combine {
    dst_cell: u8,
    dst_coord: Coord,
    base_addr: u32,
    dsts: Vec<Dst>,
    op_id: u32,
    /// Flush deadline (cycles the latch may hold the packet).
    flush_at: u64,
}

/// Tile-group identity exposed through CSRs.
///
/// The `live_*` fields carry the degraded-mode view when the machine runs
/// with [`crate::MachineConfig::disabled_tiles`]: each tile's copy holds
/// its own rank among the *live* group members plus an optional dead tile
/// it adopts. With no disabled tiles they mirror `TG_RANK`/`TG_SIZE`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupInfo {
    /// Group origin within the Cell (tile coordinates).
    pub origin: (u8, u8),
    /// Group shape.
    pub dim: (u8, u8),
    /// Index of this group's barrier network in the Cell.
    pub barrier_id: usize,
    /// This tile's rank among live (non-disabled) group members, row-major.
    pub live_rank: u32,
    /// Number of live group members.
    pub live_size: u32,
    /// Packed Cell coordinates `(x << 8) | y` of the disabled tile this
    /// one adopts the work of, or [`crate::pgas::NO_ADOPTEE`].
    pub adopt: u32,
}

/// One HammerBlade tile (core + SPM + network interface).
#[derive(Debug)]
pub struct Tile {
    cfg: Arc<MachineConfig>,
    pgas: PgasMap,
    /// Tile coordinates within the Cell.
    pub xy: (u8, u8),
    group: GroupInfo,

    // Architectural state.
    regs: [u32; 32],
    fregs: [f32; 32],
    pc: u32,
    spm: Vec<u8>,
    args: [u32; 8],

    // Hazard tracking.
    int_ready: [u64; 32],
    fp_ready: [u64; 32],
    int_ready_kind: [StallKind; 32],
    fp_ready_kind: [StallKind; 32],
    int_pending: [bool; 32],
    fp_pending: [bool; 32],
    fpu_busy_until: u64,
    div_busy_until: u64,
    /// Hazard horizon: an upper bound on every `int_ready`/`fp_ready` entry
    /// and both `*_busy_until`s, so that with no remote operation
    /// outstanding and `now >= haz_until` no instruction can have a hazard
    /// and [`Tile::execute`] skips the check. Raised wherever those are
    /// written ([`Tile::raise_horizon`]), zeroed by [`Tile::launch`],
    /// re-derived after a restore ([`Tile::check_restored`]).
    haz_until: u64,
    penalty_until: u64,
    penalty_kind: StallKind,

    // Frontend.
    icache: ICache,
    program: Option<Arc<Program>>,

    // Remote-op scoreboard.
    outstanding: usize,
    next_op_id: u32,
    pending_ops: HashMap<u32, PendingOp>,
    blocking_on: Option<u32>,
    combine: Option<Combine>,

    // Network interface queues (drained/filled by the Cell).
    /// Requests this tile wants to send (cross-cell requests included;
    /// the Cell separates them).
    pub req_outbox: VecDeque<(u8, Packet<Request>)>,
    /// Responses to remote-SPM requests from other tiles.
    pub resp_outbox: VecDeque<(u8, Packet<Response>)>,
    /// Incoming remote-SPM requests.
    pub req_inbox: VecDeque<Packet<Request>>,
    /// Incoming responses for this tile's remote ops.
    pub resp_inbox: VecDeque<Packet<Response>>,
    /// Responses arriving from the inter-Cell fabric, staged so delivery
    /// into [`resp_inbox`](Self::resp_inbox) respects the per-cycle
    /// ejection cap (see [`crate::EJECT_PER_CYCLE`]).
    pub resp_stage: VecDeque<Packet<Response>>,

    // Barrier interface (handled by the Cell).
    /// Set when the core executed a barrier join this cycle.
    pub wants_join: bool,
    /// True while blocked in the barrier.
    pub barrier_waiting: bool,

    /// Execution state.
    running: bool,
    finished: bool,
    /// `(pc, cause)` of the trap, if the tile trapped.
    fault: Option<(u32, String)>,
    stats: CoreStats,
    trace: Option<TraceHandle>,
    last_cycle: u64,

    /// Telemetry capture (see [`crate::observe`]): when set, the rare
    /// event paths (mark stores, barrier joins, fence retires, faults)
    /// append to `obs_events`; the sampler drains the buffer each window.
    observed: bool,
    obs_events: Vec<(u64, crate::observe::ObsKind)>,

    /// Race-sanitizer capture (see [`crate::race`]): when set, every
    /// shared-location access appends an epoch-log entry; the machine
    /// drains the log each cycle into the [`crate::race::RaceChecker`].
    race_check: bool,
    race_log: Vec<crate::race::TileRaceEvent>,
    /// Captured at the barrier-join store: whether remote operations were
    /// still outstanding (an unfenced join lets writes leak into the next
    /// epoch).
    race_join_unfenced: bool,

    /// Guest-code profile capture (see [`crate::gprof`]): allocated at
    /// launch when [`MachineConfig::profile`](crate::MachineConfig) is
    /// set, `None` otherwise — every record site pays exactly one branch
    /// on the option when profiling is off.
    prof: Option<Box<crate::gprof::TileProfile>>,
}

const OUTBOX_CAP: usize = 4;

fn extend(value: u32, width: u8, signed: bool) -> u32 {
    match (width, signed) {
        (1, false) => value & 0xff,
        (1, true) => value as u8 as i8 as i32 as u32,
        (2, false) => value & 0xffff,
        (2, true) => value as u16 as i16 as i32 as u32,
        _ => value,
    }
}

fn read_bytes(buf: &[u8], offset: u32, width: u8) -> u32 {
    let o = offset as usize;
    let mut v = 0u32;
    for i in (0..width as usize).rev() {
        v = (v << 8) | u32::from(buf[o + i]);
    }
    v
}

fn write_bytes(buf: &mut [u8], offset: u32, width: u8, value: u32) {
    let o = offset as usize;
    for i in 0..width as usize {
        buf[o + i] = (value >> (8 * i)) as u8;
    }
}

/// Snapshot codecs of the `hb-isa` register names (`hb-isa` sits below the
/// codec, so its types cannot implement `Snap` themselves): the register
/// index, range-checked on load.
macro_rules! reg_codec {
    ($module:ident, $reg:ident) => {
        mod $module {
            use hb_mem::{SnapError, SnapReader, SnapWriter};

            pub(super) fn save(reg: &hb_isa::$reg, w: &mut SnapWriter) {
                w.u8(reg.index());
            }

            pub(super) fn load(r: &mut SnapReader) -> Result<hb_isa::$reg, SnapError> {
                match r.u8()? {
                    idx @ 0..=31 => Ok(hb_isa::$reg::from_index(idx)),
                    _ => Err(SnapError::Bad("register index out of range")),
                }
            }
        }
    };
}
reg_codec!(gpr, Gpr);
reg_codec!(fpr, Fpr);

hb_mem::snap_enum!(Dst, "unknown load destination tag" {
    0 => Int(rd [gpr]),
    1 => Fp(rd [fpr]),
});
hb_mem::snap_enum!(PendingOp, "unknown pending op tag" {
    0 => Load { dsts, width, signed },
    1 => Store,
    2 => Amo { rd [gpr] },
});
hb_mem::snap_value!(Combine {
    dst_cell,
    dst_coord,
    base_addr,
    dsts,
    op_id,
    flush_at
});
hb_mem::snap_value!(GroupInfo {
    origin,
    dim,
    barrier_id,
    live_rank,
    live_size,
    adopt
});
// `program` is restored by the Cell, which owns the deduplicated program
// table. The trace handle and the race-sanitizer log feed consumers that
// live outside the snapshot; the log is drained every cycle, so it is empty
// at any checkpoint boundary.
hb_mem::snap_state!(Tile [b"TILE"] {
    save: group, regs, fregs, pc, args, int_ready, fp_ready, int_ready_kind, fp_ready_kind,
        int_pending, fp_pending, fpu_busy_until, div_busy_until, penalty_until, penalty_kind,
        icache, outstanding, next_op_id, pending_ops, blocking_on, combine, req_outbox,
        resp_outbox, req_inbox, resp_inbox, resp_stage, wants_join, barrier_waiting, running,
        finished, fault, stats, last_cycle, observed, obs_events, prof;
    fixed: spm;
    host: cfg, pgas, xy, haz_until, program, trace, race_check, race_log, race_join_unfenced;
} check check_restored);

impl Tile {
    /// Creates an idle tile.
    pub fn new(cfg: Arc<MachineConfig>, pgas: PgasMap, xy: (u8, u8)) -> Tile {
        let spm = vec![0; cfg.spm_bytes as usize];
        let icache = ICache::new(cfg.icache_bytes);
        Tile {
            cfg,
            pgas,
            xy,
            group: GroupInfo {
                origin: (0, 0),
                dim: (1, 1),
                barrier_id: 0,
                live_rank: 0,
                live_size: 1,
                adopt: crate::pgas::NO_ADOPTEE,
            },
            regs: [0; 32],
            fregs: [0.0; 32],
            pc: 0,
            spm,
            args: [0; 8],
            int_ready: [0; 32],
            fp_ready: [0; 32],
            int_ready_kind: [StallKind::Bypass; 32],
            fp_ready_kind: [StallKind::Bypass; 32],
            int_pending: [false; 32],
            fp_pending: [false; 32],
            fpu_busy_until: 0,
            div_busy_until: 0,
            haz_until: 0,
            penalty_until: 0,
            penalty_kind: StallKind::IcacheMiss,
            icache,
            program: None,
            outstanding: 0,
            next_op_id: 0,
            pending_ops: HashMap::new(),
            blocking_on: None,
            combine: None,
            req_outbox: VecDeque::new(),
            resp_outbox: VecDeque::new(),
            req_inbox: VecDeque::new(),
            resp_inbox: VecDeque::new(),
            resp_stage: VecDeque::new(),
            wants_join: false,
            barrier_waiting: false,
            running: false,
            finished: false,
            fault: None,
            stats: CoreStats::default(),
            trace: None,
            last_cycle: 0,
            observed: false,
            obs_events: Vec::new(),
            race_check: false,
            race_log: Vec::new(),
            race_join_unfenced: false,
            prof: None,
        }
    }

    /// Installs a shared trace buffer (see [`crate::trace`]).
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = Some(trace);
    }

    /// Turns telemetry event capture on or off (off discards any
    /// undrained events).
    pub fn set_observed(&mut self, on: bool) {
        self.observed = on;
        if !on {
            self.obs_events.clear();
        }
    }

    /// Drains the captured `(cycle, kind)` instant events, oldest first.
    pub fn drain_obs_events(&mut self) -> std::vec::Drain<'_, (u64, crate::observe::ObsKind)> {
        self.obs_events.drain(..)
    }

    /// Turns race-sanitizer capture on or off (off discards any undrained
    /// log entries).
    pub fn set_race_check(&mut self, on: bool) {
        self.race_check = on;
        if !on {
            self.race_log.clear();
        }
    }

    /// The undrained race log (drained by the machine each cycle).
    pub(crate) fn race_log_mut(&mut self) -> &mut Vec<crate::race::TileRaceEvent> {
        &mut self.race_log
    }

    /// Appends a shared-location access to the race log. One always-false
    /// branch when the sanitizer is off.
    #[inline]
    fn push_race(
        &mut self,
        cycle: u64,
        loc: crate::race::RaceLoc,
        kind: crate::race::AccessKind,
        remote: bool,
    ) {
        if self.race_check {
            self.race_log.push(crate::race::TileRaceEvent::Access {
                cycle,
                loc,
                pc: self.pc,
                kind,
                remote,
            });
        }
    }

    /// Called by the Cell when this tile consumes a barrier release: closes
    /// the tile's current epoch in the race log.
    pub(crate) fn race_epoch_end(&mut self) {
        if self.race_check {
            self.race_log.push(crate::race::TileRaceEvent::EpochEnd {
                unfenced: self.race_join_unfenced,
            });
        }
        self.race_join_unfenced = false;
    }

    /// Disassembles the instruction at `pc` of the loaded program, if any.
    pub fn disasm_at(&self, pc: u32) -> Option<String> {
        self.program
            .as_ref()
            .and_then(|p| p.instr_at(pc))
            .map(|i| i.to_string())
    }

    /// Launches the kernel: resets every per-kernel field — architectural
    /// registers, hazard and scoreboard state, barrier flags, run state —
    /// loads `args` into `a0..a7` (and the ARG CSRs) and points the PC at
    /// the program base, so nothing the previous kernel left half-done (a
    /// barrier join, an outstanding remote op, a divide in flight) is
    /// blamed on this one.
    ///
    /// What deliberately survives: the scratchpad contents and the icache
    /// tags (kernels hand data over through the SPM, and a relaunch of the
    /// same code starts warm, as on the hardware), the cumulative `stats`,
    /// the trace handle, the telemetry and race-log buffers, `last_cycle`
    /// (the clock does not restart), `next_op_id` (so a response to a dead
    /// kernel's operation cannot alias a live one — it traps as "unknown
    /// op" instead of landing in a register) and the network-interface
    /// queues, whose packets are the Cell's to deliver. An injected freeze
    /// also stays: it is a fault of the tile, not state of the kernel it
    /// interrupted. The guest profile is re-allocated, sized by `program`.
    pub fn launch(&mut self, program: Arc<Program>, args: &[u32], group: GroupInfo) {
        assert!(args.len() <= 8, "at most 8 kernel arguments");
        self.regs = [0; 32];
        self.fregs = [0.0; 32];
        self.int_ready = [0; 32];
        self.fp_ready = [0; 32];
        self.int_pending = [false; 32];
        self.fp_pending = [false; 32];
        self.fpu_busy_until = 0;
        self.div_busy_until = 0;
        self.haz_until = 0;
        if self.penalty_kind != StallKind::Frozen {
            self.penalty_until = 0;
        }
        self.outstanding = 0;
        self.pending_ops.clear();
        self.wants_join = false;
        self.barrier_waiting = false;
        self.race_join_unfenced = false;
        self.args = [0; 8];
        for (i, &a) in args.iter().enumerate() {
            self.args[i] = a;
            self.regs[Gpr::A0.index() as usize + i] = a;
        }
        // Stack at the top of the scratchpad.
        self.regs[Gpr::Sp.index() as usize] = self.cfg.spm_bytes;
        self.pc = program.base();
        self.prof = self.cfg.profile.then(|| {
            Box::new(crate::gprof::TileProfile::new(
                program.base(),
                program.instrs().len(),
            ))
        });
        self.program = Some(program);
        self.group = group;
        self.running = true;
        self.finished = false;
        self.fault = None;
        self.blocking_on = None;
        self.combine = None;
    }

    /// Whether the tile has executed `ecall` (kernel complete).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Whether the tile is executing.
    pub fn is_running(&self) -> bool {
        self.running
    }

    /// The `(pc, cause)` of the trap, if the tile trapped.
    pub fn fault(&self) -> Option<(u32, &str)> {
        self.fault.as_ref().map(|(pc, cause)| (*pc, cause.as_str()))
    }

    /// Outstanding remote operations (scoreboard occupancy).
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Execution statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// This tile's group info.
    pub fn group(&self) -> GroupInfo {
        self.group
    }

    /// Reads a word from the scratchpad (host/debug access).
    pub fn spm_read_u32(&self, offset: u32) -> u32 {
        read_bytes(&self.spm, offset, 4)
    }

    /// Writes a word to the scratchpad (host/debug access).
    pub fn spm_write_u32(&mut self, offset: u32, value: u32) {
        write_bytes(&mut self.spm, offset, 4, value);
    }

    /// Reads an integer register (debug).
    pub fn reg(&self, r: Gpr) -> u32 {
        self.regs[r.index() as usize]
    }

    /// Reads an FP register (debug).
    pub fn freg(&self, r: Fpr) -> f32 {
        self.fregs[r.index() as usize]
    }

    /// The whole integer register file (functional snapshot).
    pub fn arch_regs(&self) -> &[u32; 32] {
        &self.regs
    }

    /// The whole FP register file (functional snapshot).
    pub fn arch_fregs(&self) -> &[f32; 32] {
        &self.fregs
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// The full scratchpad image.
    pub fn spm(&self) -> &[u8] {
        &self.spm
    }

    /// The loaded program, if launched.
    pub fn program(&self) -> Option<&Arc<Program>> {
        self.program.as_ref()
    }

    /// Re-attaches the program image after a restore (see
    /// `Cell::load_programs`).
    pub(crate) fn set_program(&mut self, program: Option<Arc<Program>>) {
        self.program = program;
    }

    /// Kernel arguments as loaded at launch (ARG CSRs).
    pub fn args(&self) -> [u32; 8] {
        self.args
    }

    /// Overwrites the architectural state — registers, PC, scratchpad —
    /// with a functionally-computed snapshot (fast-forward injection).
    ///
    /// Clears all hazard/scoreboard timing state; the caller must only
    /// inject while the tile is quiescent (no outstanding remote ops), which
    /// [`crate::Machine::warmup_functional`] guarantees by running before
    /// the first cycle.
    ///
    /// # Panics
    ///
    /// Panics if the tile has outstanding remote operations or `spm` does
    /// not match the configured scratchpad size.
    pub fn restore_arch_state(&mut self, regs: &[u32; 32], fregs: &[f32; 32], pc: u32, spm: &[u8]) {
        assert_eq!(
            self.outstanding, 0,
            "cannot inject state over in-flight remote ops"
        );
        assert_eq!(spm.len(), self.spm.len(), "SPM image size mismatch");
        self.regs = *regs;
        self.fregs = *fregs;
        self.pc = pc;
        self.spm.copy_from_slice(spm);
        self.int_ready = [0; 32];
        self.fp_ready = [0; 32];
        self.int_pending = [false; 32];
        self.fp_pending = [false; 32];
        self.wants_join = false;
        self.barrier_waiting = false;
        self.blocking_on = None;
        self.combine = None;
    }

    /// Marks this tile as configured-dead: it stays addressable (its NI
    /// keeps serving remote-SPM traffic and its barrier node is bypassed by
    /// the Cell) but never executes an instruction. Called after
    /// [`Tile::launch`] for tiles in
    /// [`crate::MachineConfig::disabled_tiles`].
    pub fn disable(&mut self) {
        self.running = false;
        self.finished = true;
    }

    /// Whether the tile is currently frozen by an injected fault.
    pub fn is_frozen(&self) -> bool {
        self.penalty_kind == StallKind::Frozen && self.penalty_until > self.last_cycle
    }

    /// Appends an instant event if telemetry capture is on (used by the
    /// Cell for events it attributes to this tile, e.g. HBM stalls).
    pub(crate) fn push_obs(&mut self, cycle: u64, kind: crate::observe::ObsKind) {
        if self.observed {
            self.obs_events.push((cycle, kind));
        }
    }

    fn note_inject(&mut self, cycle: u64, kind: crate::observe::InjectKind) {
        self.push_obs(cycle, crate::observe::ObsKind::Inject(kind));
    }

    /// Injects a single-bit flip into an integer register. Flips aimed at
    /// `x0` are masked by the hardwired zero; returns whether the flip
    /// landed in architectural state.
    pub fn inject_reg_flip(&mut self, reg: u8, bit: u8, cycle: u64) -> bool {
        let r = usize::from(reg) % 32;
        if r == 0 {
            return false;
        }
        self.regs[r] ^= 1 << (bit % 32);
        self.note_inject(cycle, crate::observe::InjectKind::Reg);
        true
    }

    /// Injects a single-bit flip into one scratchpad word (word index wraps
    /// to the SPM size).
    pub fn inject_spm_flip(&mut self, word: u16, bit: u8, cycle: u64) {
        let nwords = self.spm.len() / 4;
        let off = (usize::from(word) % nwords) as u32 * 4;
        let v = read_bytes(&self.spm, off, 4) ^ (1 << (bit % 32));
        write_bytes(&mut self.spm, off, 4, v);
        self.note_inject(cycle, crate::observe::InjectKind::Spm);
    }

    /// Injects a detected icache parity flip: the line is invalidated, so
    /// the next fetch of it refills (one extra miss, never corruption).
    pub fn inject_icache_invalidate(&mut self, line: u16, cycle: u64) {
        self.icache.invalidate_line(usize::from(line));
        self.note_inject(cycle, crate::observe::InjectKind::Icache);
    }

    /// Freezes the core for `cycles` (or forever, for
    /// [`hb_fault::FREEZE_FOREVER`]-style `u64::MAX`): the pipeline stalls
    /// as [`StallKind::Frozen`] but the network interface keeps serving
    /// remote-SPM traffic, like a clock-gated core behind a live NI.
    pub fn freeze(&mut self, cycles: u64, now: u64) {
        self.penalty_until = now.saturating_add(cycles);
        self.penalty_kind = StallKind::Frozen;
        self.note_inject(now, crate::observe::InjectKind::Freeze);
    }

    fn stall(&mut self, kind: StallKind) {
        self.stats.add_stall(kind);
        if let Some(p) = &mut self.prof {
            p.record_stall(self.pc, kind);
        }
    }

    /// Bulk stall catch-up from the wake list: the tile slept `n` cycles
    /// during which a never-parked tile would have recorded one stall of
    /// `kind` each (see `crate::sched`). The PC cannot have moved since
    /// the tile parked, so attributing the whole span to the current PC
    /// reproduces the cycle-by-cycle attribution.
    pub(crate) fn credit_stalls(&mut self, kind: StallKind, n: u64) {
        self.stats.add_stall_n(kind, n);
        if let Some(p) = &mut self.prof {
            p.record_stall_n(self.pc, kind, n);
        }
    }

    /// The guest-code profile buffer, when profiling is configured and the
    /// tile has launched.
    pub(crate) fn guest_prof(&self) -> Option<&crate::gprof::TileProfile> {
        self.prof.as_deref()
    }

    fn trap(&mut self, msg: String) {
        if let Some(t) = &self.trace {
            t.push(TraceEvent::Fault {
                cycle: self.last_cycle,
                tile: self.xy,
                message: msg.clone(),
            });
        }
        if self.observed {
            self.obs_events
                .push((self.last_cycle, crate::observe::ObsKind::Fault));
        }
        self.fault = Some((self.pc, msg));
        self.running = false;
    }

    fn write_int(&mut self, rd: Gpr, value: u32) {
        if rd != Gpr::Zero {
            self.regs[rd.index() as usize] = value;
        }
    }

    /// Keeps `haz_until` above a ready/busy time that was just written.
    fn raise_horizon(&mut self, until: u64) {
        self.haz_until = self.haz_until.max(until);
    }

    /// After a restore: re-derives the hazard horizon, which is not in the
    /// stream, from the ready and busy times that are.
    fn check_restored(&mut self) -> Result<(), hb_mem::SnapError> {
        let ready = self.int_ready.iter().chain(&self.fp_ready).copied().max();
        self.haz_until = ready
            .unwrap_or(0)
            .max(self.fpu_busy_until)
            .max(self.div_busy_until);
        Ok(())
    }

    fn set_int_latency(&mut self, rd: Gpr, now: u64, lat: u64, kind: StallKind) {
        if rd != Gpr::Zero && lat > 1 {
            self.int_ready[rd.index() as usize] = now + lat;
            self.int_ready_kind[rd.index() as usize] = kind;
            self.raise_horizon(now + lat);
        }
    }

    fn set_fp_latency(&mut self, rd: Fpr, now: u64, lat: u64, kind: StallKind) {
        if lat > 1 {
            self.fp_ready[rd.index() as usize] = now + lat;
            self.fp_ready_kind[rd.index() as usize] = kind;
            self.raise_horizon(now + lat);
        }
    }

    /// Checks an integer source register; returns the stall cause if it is
    /// not yet usable.
    fn int_hazard(&self, r: Gpr, now: u64) -> Option<StallKind> {
        let i = r.index() as usize;
        if self.int_pending[i] {
            return Some(StallKind::RemoteLoad);
        }
        if self.int_ready[i] > now {
            return Some(self.int_ready_kind[i]);
        }
        None
    }

    fn fp_hazard(&self, r: Fpr, now: u64) -> Option<StallKind> {
        let i = r.index() as usize;
        if self.fp_pending[i] {
            return Some(StallKind::RemoteLoad);
        }
        if self.fp_ready[i] > now {
            return Some(self.fp_ready_kind[i]);
        }
        None
    }

    /// Processes all arrived responses: fills registers, releases the
    /// scoreboard.
    fn drain_responses(&mut self, now: u64) {
        while let Some(pkt) = self.resp_inbox.pop_front() {
            let resp = pkt.payload;
            let Some(op) = self.pending_ops.remove(&resp.op_id) else {
                self.trap(format!("response for unknown op {}", resp.op_id));
                return;
            };
            match (op, resp.kind) {
                (
                    PendingOp::Load {
                        dsts,
                        width,
                        signed,
                    },
                    RespKind::Load { data, count },
                ) => {
                    debug_assert_eq!(dsts.len(), count as usize);
                    for (i, dst) in dsts.iter().enumerate() {
                        let v = extend(data[i], width, signed);
                        match *dst {
                            Dst::Int(rd) => {
                                self.write_int(rd, v);
                                self.int_pending[rd.index() as usize] = false;
                            }
                            Dst::Fp(rd) => {
                                self.fregs[rd.index() as usize] = f32::from_bits(v);
                                self.fp_pending[rd.index() as usize] = false;
                            }
                        }
                        self.outstanding -= 1;
                    }
                }
                (PendingOp::Store, RespKind::StoreAck) => {
                    self.outstanding -= 1;
                }
                (PendingOp::Amo { rd }, RespKind::AmoOld { data }) => {
                    self.write_int(rd, data);
                    self.int_pending[rd.index() as usize] = false;
                    self.outstanding -= 1;
                }
                (op, kind) => {
                    self.trap(format!("mismatched response {kind:?} for {op:?}"));
                    return;
                }
            }
            if self.blocking_on == Some(resp.op_id) {
                self.blocking_on = None;
            }
            let _ = now;
        }
    }

    /// Services one incoming remote-SPM request per cycle.
    fn service_spm_request(&mut self) {
        if self.resp_outbox.len() >= OUTBOX_CAP {
            return;
        }
        let Some(pkt) = self.req_inbox.pop_front() else {
            return;
        };
        let req = pkt.payload;
        let kind = match req.kind {
            ReqKind::Load { addr, width, count } => {
                let mut data = [0u32; 4];
                for (i, slot) in data.iter_mut().enumerate().take(count as usize) {
                    let a = addr + (i as u32) * u32::from(width);
                    *slot = if a + u32::from(width) > self.cfg.spm_bytes {
                        0
                    } else {
                        read_bytes(&self.spm, a, width)
                    };
                }
                RespKind::Load { data, count }
            }
            ReqKind::Store { addr, width, data } => {
                if addr + u32::from(width) <= self.cfg.spm_bytes {
                    write_bytes(&mut self.spm, addr, width, data);
                }
                RespKind::StoreAck
            }
            ReqKind::Amo { addr, op, data } => {
                // AMOs on scratchpads are allowed for flags/mailboxes. The
                // issuing tile traps an overrun; one that arrives anyway
                // (a corrupted packet) reads as zero and writes nothing,
                // like the loads and stores above.
                let old = if addr + 4 > self.cfg.spm_bytes {
                    0
                } else {
                    let old = read_bytes(&self.spm, addr, 4);
                    write_bytes(&mut self.spm, addr, 4, op.apply(old, data));
                    old
                };
                RespKind::AmoOld { data: old }
            }
        };
        let resp = Response {
            op_id: req.op_id,
            kind,
        };
        self.resp_outbox.push_back((
            req.from.cell,
            Packet {
                src: pkt.dst,
                dst: req.from.coord,
                payload: resp,
            },
        ));
    }

    fn flush_combine(&mut self) {
        let Some(c) = self.combine.take() else {
            return;
        };
        let count = c.dsts.len() as u8;
        if count > 1 {
            self.stats.lpc_merged += u64::from(count) - 1;
        }
        let req = Request {
            from: NodeId {
                cell: self.pgas.cell_id,
                coord: self.pgas.tile_coord(self.xy.0, self.xy.1),
            },
            op_id: c.op_id,
            kind: ReqKind::Load {
                addr: c.base_addr,
                width: 4,
                count,
            },
        };
        self.req_outbox.push_back((
            c.dst_cell,
            Packet {
                src: self.pgas.tile_coord(self.xy.0, self.xy.1),
                dst: c.dst_coord,
                payload: req,
            },
        ));
        self.stats.remote_requests += 1;
    }

    /// Issues a remote word load, possibly merging into the combining
    /// latch. Returns `false` if it must retry (no scoreboard/queue space).
    #[allow(clippy::too_many_arguments)]
    fn issue_remote_load(
        &mut self,
        now: u64,
        cell: u8,
        coord: Coord,
        addr: u32,
        width: u8,
        signed: bool,
        dst: Dst,
    ) -> bool {
        if self.outstanding >= self.cfg.max_outstanding {
            return false;
        }
        // Try to merge into the combining latch.
        if self.cfg.load_packet_compression && width == 4 {
            if let Some(c) = &mut self.combine {
                let next = c.base_addr + 4 * c.dsts.len() as u32;
                if c.dst_cell == cell && c.dst_coord == coord && next == addr && c.dsts.len() < 4 {
                    c.dsts.push(dst);
                    c.flush_at = now + 2;
                    let op_id = c.op_id;
                    match self.pending_ops.get_mut(&op_id) {
                        Some(PendingOp::Load { dsts, .. }) => dsts.push(dst),
                        _ => unreachable!("combine latch without pending op"),
                    }
                    self.mark_pending(dst);
                    self.outstanding += 1;
                    return true;
                }
            }
            self.flush_combine();
            if self.req_outbox.len() >= OUTBOX_CAP {
                return false;
            }
            let op_id = self.alloc_op_id();
            self.pending_ops.insert(
                op_id,
                PendingOp::Load {
                    dsts: vec![dst],
                    width,
                    signed,
                },
            );
            self.combine = Some(Combine {
                dst_cell: cell,
                dst_coord: coord,
                base_addr: addr,
                dsts: vec![dst],
                op_id,
                flush_at: now + 2,
            });
            self.mark_pending(dst);
            self.outstanding += 1;
            return true;
        }
        // Uncompressed path.
        self.flush_combine();
        if self.req_outbox.len() >= OUTBOX_CAP {
            return false;
        }
        let op_id = self.alloc_op_id();
        self.pending_ops.insert(
            op_id,
            PendingOp::Load {
                dsts: vec![dst],
                width,
                signed,
            },
        );
        self.send_request(
            cell,
            coord,
            op_id,
            ReqKind::Load {
                addr,
                width,
                count: 1,
            },
        );
        self.mark_pending(dst);
        self.outstanding += 1;
        true
    }

    fn mark_pending(&mut self, dst: Dst) {
        match dst {
            Dst::Int(rd) => {
                if rd != Gpr::Zero {
                    self.int_pending[rd.index() as usize] = true;
                }
            }
            Dst::Fp(rd) => self.fp_pending[rd.index() as usize] = true,
        }
    }

    fn alloc_op_id(&mut self) -> u32 {
        let id = self.next_op_id;
        self.next_op_id = self.next_op_id.wrapping_add(1);
        id
    }

    fn send_request(&mut self, cell: u8, coord: Coord, op_id: u32, kind: ReqKind) {
        let from = NodeId {
            cell: self.pgas.cell_id,
            coord: self.pgas.tile_coord(self.xy.0, self.xy.1),
        };
        self.req_outbox.push_back((
            cell,
            Packet {
                src: from.coord,
                dst: coord,
                payload: Request { from, op_id, kind },
            },
        ));
        if let Some(t) = &self.trace {
            t.push(TraceEvent::RemoteIssue {
                cycle: self.last_cycle,
                tile: self.xy,
                op_id,
                what: format!("{kind:?} -> cell {cell} {coord}"),
            });
        }
        self.stats.remote_requests += 1;
    }

    fn csr_read(&self, offset: u32, now: u64) -> Option<u32> {
        Some(match offset {
            csr::TILE_X => u32::from(self.xy.0),
            csr::TILE_Y => u32::from(self.xy.1),
            csr::TG_X => u32::from(self.group.origin.0),
            csr::TG_Y => u32::from(self.group.origin.1),
            csr::TG_W => u32::from(self.group.dim.0),
            csr::TG_H => u32::from(self.group.dim.1),
            csr::TG_RANK => {
                let lx = u32::from(self.xy.0 - self.group.origin.0);
                let ly = u32::from(self.xy.1 - self.group.origin.1);
                ly * u32::from(self.group.dim.0) + lx
            }
            csr::TG_SIZE => u32::from(self.group.dim.0) * u32::from(self.group.dim.1),
            csr::TG_LIVE_RANK => self.group.live_rank,
            csr::TG_LIVE_SIZE => self.group.live_size,
            csr::TG_ADOPT => self.group.adopt,
            csr::CELL_W => u32::from(self.pgas.cell_w),
            csr::CELL_H => u32::from(self.pgas.cell_h),
            csr::CELL_ID => u32::from(self.pgas.cell_id),
            csr::NUM_CELLS => u32::from(self.pgas.num_cells),
            csr::CYCLE => now as u32,
            o if (csr::ARG0..csr::ARG0 + 32).contains(&o) => {
                self.args[((o - csr::ARG0) / 4) as usize]
            }
            _ => return None,
        })
    }

    /// Advances the tile one core cycle and reports whether the wake list
    /// may skip it afterwards (the contract of the hint is on `park_hint`).
    pub fn step(&mut self, now: u64) -> Park {
        self.last_cycle = now;
        // Response draining and SPM servicing happen even while stalled.
        self.drain_responses(now);
        self.service_spm_request();

        // Flush an expired combining latch.
        if let Some(c) = &self.combine {
            if now >= c.flush_at {
                self.flush_combine();
            }
        }

        self.issue(now);
        self.park_hint(now)
    }

    /// The cycle's one issue slot: retires one instruction or records
    /// exactly one stall.
    fn issue(&mut self, now: u64) {
        if !self.running {
            if self.finished {
                self.stall(StallKind::Done);
            }
            return;
        }

        if self.barrier_waiting {
            self.stall(StallKind::Barrier);
            return;
        }

        if self.blocking_on.is_some() {
            self.stall(StallKind::RemoteLoad);
            return;
        }

        if now < self.penalty_until {
            self.stall(self.penalty_kind);
            return;
        }

        // Fetch.
        if !self.icache.access(self.pc) {
            self.stats.icache_misses += 1;
            self.penalty_until = now + self.cfg.icache_miss_latency;
            self.penalty_kind = StallKind::IcacheMiss;
            self.stall(StallKind::IcacheMiss);
            return;
        }
        let program = self.program.as_ref().expect("running tile without program");
        let Some(instr) = program.instr_at(self.pc) else {
            self.trap("pc outside program image".to_owned());
            return;
        };

        self.execute(instr, now);
    }

    /// Scheduling hint for the wake list's park policy (see `crate::sched`),
    /// computed by [`Tile::step`] once cycle `now`'s issue slot is spent:
    /// may the Cell skip this tile, and until when?
    ///
    /// The contract: a `Sleep { kind, wake_at }` promises that stepping
    /// the tile at every cycle in `(now, wake_at)` would drain nothing, serve
    /// nothing, and record exactly one stall of `kind` (none for `None`) —
    /// unless an external event re-arms the tile first, which the Cell
    /// guarantees happens on any delivery, barrier release or host/fault
    /// mutation. Anything not provably in that shape stays `Awake`.
    fn park_hint(&self, now: u64) -> Park {
        // Pending inbox/staged traffic or an armed combining latch needs
        // per-cycle service regardless of pipeline state.
        if !self.resp_inbox.is_empty()
            || !self.req_inbox.is_empty()
            || !self.resp_stage.is_empty()
            || self.combine.is_some()
        {
            return Park::Awake;
        }
        // A pending penalty window also bounds event-only sleeps: the tile
        // must step at expiry so `last_cycle` (and thus `is_frozen`) tracks
        // a never-parked tile's.
        let bound = |wake: u64| {
            if self.penalty_until > now {
                wake.min(self.penalty_until)
            } else {
                wake
            }
        };
        if !self.running {
            // Finished tiles stall `Done` forever; trapped/idle ones
            // record nothing. Both only act on deliveries.
            let kind = self.finished.then_some(StallKind::Done);
            return Park::Sleep {
                kind,
                wake_at: bound(u64::MAX),
            };
        }
        if self.barrier_waiting {
            return Park::Sleep {
                kind: Some(StallKind::Barrier),
                wake_at: bound(u64::MAX),
            };
        }
        if self.blocking_on.is_some() {
            return Park::Sleep {
                kind: Some(StallKind::RemoteLoad),
                wake_at: bound(u64::MAX),
            };
        }
        if self.penalty_until > now + 1 {
            return Park::Sleep {
                kind: Some(self.penalty_kind),
                wake_at: self.penalty_until,
            };
        }
        if self.penalty_until > now {
            // One remaining penalty cycle: skipping it saves nothing.
            return Park::Awake;
        }
        // The tile would fetch and (maybe) execute next cycle. It can only
        // be stuck until a response delivery if a response is due: pending
        // bits are set together with `outstanding += 1` and cleared with
        // the matching decrement, and a fence waits on `outstanding`
        // itself. With nothing in flight the fetch is not repeated here.
        if self.outstanding == 0 {
            debug_assert_eq!(self.stuck_on_remote(now), None);
            return Park::Awake;
        }
        match self.stuck_on_remote(now) {
            Some(kind) => Park::Sleep {
                kind: Some(kind),
                wake_at: u64::MAX,
            },
            None => Park::Awake,
        }
    }

    /// Peeks at the next issue slot: if the fetch hits and the instruction
    /// is provably stuck on a pending remote operand — or is a fence over
    /// outstanding ops — every cycle until a response delivery is a
    /// constant stall of the returned kind.
    fn stuck_on_remote(&self, now: u64) -> Option<StallKind> {
        let program = self.program.as_ref()?;
        if !self.icache.would_hit(self.pc) {
            return None;
        }
        let instr = program.instr_at(self.pc)?;
        if matches!(instr, Instr::Fence) {
            return (self.outstanding > 0).then_some(StallKind::Fence);
        }
        // `RemoteLoad` from `instr_hazard` can only come from a pending
        // bit (ready-kind arrays never hold it), the first-checked
        // blocking source stays first and pending until a response
        // delivery, and deliveries always wake — so the stall kind is
        // constant over the whole sleep.
        (self.instr_hazard(&instr, now + 1) == Some(StallKind::RemoteLoad))
            .then_some(StallKind::RemoteLoad)
    }

    /// Decodes hazards and executes one instruction (or records one stall).
    #[allow(clippy::too_many_lines)]
    fn execute(&mut self, instr: Instr, now: u64) {
        use Instr as I;

        // Source / structural hazard checks — only when something can be
        // in flight: a remote operation (pending bits) or a result or unit
        // not yet past the hazard horizon.
        if self.outstanding > 0 || now < self.haz_until {
            if let Some(kind) = self.instr_hazard(&instr, now) {
                self.stall(kind);
                return;
            }
        } else {
            debug_assert_eq!(self.instr_hazard(&instr, now), None);
        }

        // The compressor detects *consecutive* remote loads in the
        // instruction stream: any other instruction closes the combining
        // latch immediately.
        if !matches!(instr, Instr::Load { .. } | Instr::Flw { .. }) {
            self.flush_combine();
        }

        let mut next_pc = self.pc.wrapping_add(4);
        let mut fp_instr = false;

        match instr {
            I::Lui { rd, imm } => self.write_int(rd, (imm as u32) << 12),
            I::Auipc { rd, imm } => {
                self.write_int(rd, self.pc.wrapping_add((imm as u32) << 12));
            }
            I::Jal { rd, offset } => {
                self.write_int(rd, self.pc.wrapping_add(4));
                next_pc = self.pc.wrapping_add(offset as u32);
            }
            I::Jalr { rd, rs1, offset } => {
                let target = self.regs[rs1.index() as usize].wrapping_add(offset as u32) & !1;
                self.write_int(rd, self.pc.wrapping_add(4));
                next_pc = target;
                // Indirect targets are not captured by the icache-embedded
                // BTB: charge the misprediction penalty.
                self.penalty_until = now + self.cfg.branch_miss_penalty;
                self.penalty_kind = StallKind::BranchMiss;
                self.stats.branch_misses += 1;
            }
            I::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                self.stats.branches += 1;
                let taken = op.taken(
                    self.regs[rs1.index() as usize],
                    self.regs[rs2.index() as usize],
                );
                // Static BTFN: predict taken for backward targets.
                let predicted_taken = offset < 0;
                if taken {
                    next_pc = self.pc.wrapping_add(offset as u32);
                }
                if taken != predicted_taken {
                    self.stats.branch_misses += 1;
                    self.penalty_until = now + self.cfg.branch_miss_penalty;
                    self.penalty_kind = StallKind::BranchMiss;
                }
            }
            I::OpImm { op, rd, rs1, imm } => {
                let v = op.eval(self.regs[rs1.index() as usize], imm);
                self.write_int(rd, v);
            }
            I::Op { op, rd, rs1, rs2 } => {
                let a = self.regs[rs1.index() as usize];
                let b = self.regs[rs2.index() as usize];
                self.write_int(rd, op.eval(a, b));
                if op.is_muldiv() {
                    let lat = if matches!(
                        op,
                        hb_isa::OpOp::Div
                            | hb_isa::OpOp::Divu
                            | hb_isa::OpOp::Rem
                            | hb_isa::OpOp::Remu
                    ) {
                        self.div_busy_until = now + self.cfg.div_latency;
                        self.raise_horizon(self.div_busy_until);
                        self.cfg.div_latency
                    } else {
                        self.cfg.mul_latency
                    };
                    self.set_int_latency(rd, now, lat, StallKind::IntBusy);
                }
            }
            I::Fence => {
                if self.outstanding > 0 || self.combine.is_some() {
                    self.flush_combine();
                    self.stall(StallKind::Fence);
                    return;
                }
                if self.observed {
                    self.obs_events
                        .push((now, crate::observe::ObsKind::FenceRetire));
                }
            }
            I::Ecall => {
                self.flush_combine();
                self.running = false;
                self.finished = true;
                self.stats.instrs += 1;
                self.stats.int_cycles += 1;
                if let Some(p) = &mut self.prof {
                    p.record_retire(self.pc);
                }
                if let Some(t) = &self.trace {
                    t.push(TraceEvent::Retire {
                        cycle: now,
                        tile: self.xy,
                        pc: self.pc,
                        instr,
                    });
                }
                return;
            }
            I::Ebreak => {
                self.trap("ebreak".to_owned());
                return;
            }
            I::Load {
                width,
                rd,
                rs1,
                offset,
            } => {
                let addr = self.regs[rs1.index() as usize].wrapping_add(offset as u32);
                let signed = matches!(width, hb_isa::LoadWidth::B | hb_isa::LoadWidth::H);
                if !self.do_load(now, addr, width.bytes() as u8, signed, Dst::Int(rd)) {
                    return;
                }
            }
            I::Flw { rd, rs1, offset } => {
                let addr = self.regs[rs1.index() as usize].wrapping_add(offset as u32);
                if !self.do_load(now, addr, 4, false, Dst::Fp(rd)) {
                    return;
                }
            }
            I::Store {
                width,
                rs1,
                rs2,
                offset,
            } => {
                let addr = self.regs[rs1.index() as usize].wrapping_add(offset as u32);
                let data = self.regs[rs2.index() as usize];
                if !self.do_store(now, addr, width.bytes() as u8, data) {
                    return;
                }
            }
            I::Fsw { rs1, rs2, offset } => {
                let addr = self.regs[rs1.index() as usize].wrapping_add(offset as u32);
                let data = self.fregs[rs2.index() as usize].to_bits();
                if !self.do_store(now, addr, 4, data) {
                    return;
                }
            }
            I::Amo {
                op, rd, rs1, rs2, ..
            } => {
                let addr = self.regs[rs1.index() as usize];
                let data = self.regs[rs2.index() as usize];
                if !self.do_amo(now, addr, op, data, rd) {
                    return;
                }
            }
            I::LrW { .. } | I::ScW { .. } => {
                self.trap("lr/sc not supported; use AMOs".to_owned());
                return;
            }
            I::FpOp { op, rd, rs1, rs2 } => {
                fp_instr = true;
                let a = self.fregs[rs1.index() as usize];
                let b = self.fregs[rs2.index() as usize];
                self.fregs[rd.index() as usize] = op.eval(a, b);
                match op {
                    hb_isa::FpOp::Div => {
                        self.fpu_busy_until = now + self.cfg.fdiv_latency;
                        self.raise_horizon(self.fpu_busy_until);
                        self.set_fp_latency(rd, now, self.cfg.fdiv_latency, StallKind::FpBusy);
                    }
                    hb_isa::FpOp::Sqrt => {
                        self.fpu_busy_until = now + self.cfg.fsqrt_latency;
                        self.raise_horizon(self.fpu_busy_until);
                        self.set_fp_latency(rd, now, self.cfg.fsqrt_latency, StallKind::FpBusy);
                    }
                    hb_isa::FpOp::Mul => {
                        self.set_fp_latency(rd, now, self.cfg.fma_latency, StallKind::Bypass);
                    }
                    _ => self.set_fp_latency(rd, now, self.cfg.fp_latency, StallKind::Bypass),
                }
            }
            I::Fma {
                op,
                rd,
                rs1,
                rs2,
                rs3,
            } => {
                fp_instr = true;
                let a = self.fregs[rs1.index() as usize];
                let b = self.fregs[rs2.index() as usize];
                let c = self.fregs[rs3.index() as usize];
                self.fregs[rd.index() as usize] = op.eval(a, b, c);
                self.set_fp_latency(rd, now, self.cfg.fma_latency, StallKind::Bypass);
            }
            I::FpCmp { op, rd, rs1, rs2 } => {
                fp_instr = true;
                let a = self.fregs[rs1.index() as usize];
                let b = self.fregs[rs2.index() as usize];
                self.write_int(rd, u32::from(op.eval(a, b)));
                self.set_int_latency(rd, now, self.cfg.fp_latency, StallKind::Bypass);
            }
            I::FcvtWS { rd, rs1 } => {
                fp_instr = true;
                let v = self.fregs[rs1.index() as usize];
                self.write_int(rd, v as i32 as u32);
                self.set_int_latency(rd, now, self.cfg.fp_latency, StallKind::Bypass);
            }
            I::FcvtWuS { rd, rs1 } => {
                fp_instr = true;
                let v = self.fregs[rs1.index() as usize];
                self.write_int(rd, v as u32);
                self.set_int_latency(rd, now, self.cfg.fp_latency, StallKind::Bypass);
            }
            I::FcvtSW { rd, rs1 } => {
                fp_instr = true;
                let v = self.regs[rs1.index() as usize] as i32;
                self.fregs[rd.index() as usize] = v as f32;
                self.set_fp_latency(rd, now, self.cfg.fp_latency, StallKind::Bypass);
            }
            I::FcvtSWu { rd, rs1 } => {
                fp_instr = true;
                let v = self.regs[rs1.index() as usize];
                self.fregs[rd.index() as usize] = v as f32;
                self.set_fp_latency(rd, now, self.cfg.fp_latency, StallKind::Bypass);
            }
            I::FmvXW { rd, rs1 } => {
                fp_instr = true;
                self.write_int(rd, self.fregs[rs1.index() as usize].to_bits());
            }
            I::FmvWX { rd, rs1 } => {
                fp_instr = true;
                self.fregs[rd.index() as usize] = f32::from_bits(self.regs[rs1.index() as usize]);
            }
        }

        if let Some(t) = &self.trace {
            t.push(TraceEvent::Retire {
                cycle: now,
                tile: self.xy,
                pc: self.pc,
                instr,
            });
        }
        if let Some(p) = &mut self.prof {
            p.record_retire(self.pc);
        }
        self.pc = next_pc;
        self.stats.instrs += 1;
        if fp_instr {
            self.stats.fp_cycles += 1;
        } else {
            self.stats.int_cycles += 1;
        }
    }

    /// Checks all source and structural hazards for `instr`.
    fn instr_hazard(&self, instr: &Instr, now: u64) -> Option<StallKind> {
        use Instr as I;
        let int = |r: Gpr| self.int_hazard(r, now);
        let fp = |r: Fpr| self.fp_hazard(r, now);
        // Destination-pending (WAW on remote loads) also stalls.
        let int_dst = |r: Gpr| {
            if r != Gpr::Zero && self.int_pending[r.index() as usize] {
                Some(StallKind::RemoteLoad)
            } else {
                None
            }
        };
        let fp_dst = |r: Fpr| {
            if self.fp_pending[r.index() as usize] {
                Some(StallKind::RemoteLoad)
            } else {
                None
            }
        };
        match *instr {
            I::Lui { rd, .. } | I::Auipc { rd, .. } => int_dst(rd),
            I::Jal { rd, .. } => int_dst(rd),
            I::Jalr { rd, rs1, .. } => int(rs1).or_else(|| int_dst(rd)),
            I::Branch { rs1, rs2, .. } => int(rs1).or_else(|| int(rs2)),
            I::Load { rd, rs1, .. } => int(rs1).or_else(|| int_dst(rd)),
            I::Store { rs1, rs2, .. } => int(rs1).or_else(|| int(rs2)),
            I::OpImm { rd, rs1, .. } => int(rs1).or_else(|| int_dst(rd)),
            I::Op { op, rd, rs1, rs2 } => int(rs1).or_else(|| int(rs2)).or_else(|| int_dst(rd)).or(
                if op.is_muldiv() && self.div_busy_until > now {
                    Some(StallKind::IntBusy)
                } else {
                    None
                },
            ),
            I::Fence | I::Ecall | I::Ebreak => None,
            I::Amo { rd, rs1, rs2, .. } => int(rs1).or_else(|| int(rs2)).or_else(|| int_dst(rd)),
            I::LrW { rd, rs1, .. } => int(rs1).or_else(|| int_dst(rd)),
            I::ScW { rd, rs1, rs2, .. } => int(rs1).or_else(|| int(rs2)).or_else(|| int_dst(rd)),
            I::Flw { rd, rs1, .. } => int(rs1).or_else(|| fp_dst(rd)),
            I::Fsw { rs1, rs2, .. } => int(rs1).or_else(|| fp(rs2)),
            I::FpOp { op, rd, rs1, rs2 } => fp(rs1).or_else(|| fp(rs2)).or_else(|| fp_dst(rd)).or(
                if matches!(op, hb_isa::FpOp::Div | hb_isa::FpOp::Sqrt) && self.fpu_busy_until > now
                {
                    Some(StallKind::FpBusy)
                } else {
                    None
                },
            ),
            I::Fma {
                rd, rs1, rs2, rs3, ..
            } => fp(rs1)
                .or_else(|| fp(rs2))
                .or_else(|| fp(rs3))
                .or_else(|| fp_dst(rd)),
            I::FpCmp { rd, rs1, rs2, .. } => fp(rs1).or_else(|| fp(rs2)).or_else(|| int_dst(rd)),
            I::FcvtWS { rd, rs1 } | I::FcvtWuS { rd, rs1 } => int_dst(rd).or_else(|| fp(rs1)),
            I::FcvtSW { rd, rs1 } | I::FcvtSWu { rd, rs1 } => int(rs1).or_else(|| fp_dst(rd)),
            I::FmvXW { rd, rs1 } => fp(rs1).or_else(|| int_dst(rd)),
            I::FmvWX { rd, rs1 } => int(rs1).or_else(|| fp_dst(rd)),
        }
    }

    /// [`PgasMap::translate`] plus the one check that needs the access
    /// width: a DRAM access must sit inside one cache line, because a bank
    /// serves whole lines. Naturally aligned accesses never straddle, so
    /// only a corrupted address (fault injection) gets here — and must
    /// trap the tile, not index past the line in the bank.
    fn translate(&self, eva: u32, width: u8) -> Result<Target, String> {
        let target = self.pgas.translate(eva).map_err(|e| e.to_string())?;
        if let Target::Bank { addr, .. } = target {
            // `line_bytes` is a power of two (`CacheBank::new` asserts it).
            if (addr & (self.cfg.line_bytes - 1)) + u32::from(width) > self.cfg.line_bytes {
                return Err(format!(
                    "{width}-byte DRAM access at {eva:#x} crosses its cache line"
                ));
            }
        }
        Ok(target)
    }

    /// Executes a load; returns `false` when the instruction must retry
    /// (stall already recorded).
    fn do_load(&mut self, now: u64, eva: u32, width: u8, signed: bool, dst: Dst) -> bool {
        match self.translate(eva, width) {
            Err(e) => {
                self.trap(e);
                false
            }
            Ok(Target::LocalSpm { offset }) => {
                if offset + u32::from(width) > self.cfg.spm_bytes {
                    self.trap(format!("SPM load overrun at {offset:#x}"));
                    return false;
                }
                // Local SPM is remotely addressable (a neighbour's remote
                // store can land here), so local reads are race-relevant.
                self.push_race(
                    now,
                    crate::race::RaceLoc::Spm {
                        cell: self.pgas.cell_id,
                        x: self.xy.0,
                        y: self.xy.1,
                        word: offset & !3,
                    },
                    crate::race::AccessKind::Read,
                    false,
                );
                let v = extend(read_bytes(&self.spm, offset, width), width, signed);
                match dst {
                    Dst::Int(rd) => {
                        self.write_int(rd, v);
                        self.set_int_latency(
                            rd,
                            now,
                            self.cfg.spm_load_latency,
                            StallKind::LocalLoad,
                        );
                    }
                    Dst::Fp(rd) => {
                        self.fregs[rd.index() as usize] = f32::from_bits(v);
                        self.set_fp_latency(
                            rd,
                            now,
                            self.cfg.spm_load_latency,
                            StallKind::LocalLoad,
                        );
                    }
                }
                true
            }
            Ok(Target::Csr { offset }) => {
                let Some(v) = self.csr_read(offset, now) else {
                    self.trap(format!("read of unknown CSR {offset:#x}"));
                    return false;
                };
                match dst {
                    Dst::Int(rd) => self.write_int(rd, v),
                    Dst::Fp(rd) => self.fregs[rd.index() as usize] = f32::from_bits(v),
                }
                true
            }
            Ok(Target::RemoteSpm { tile, offset }) => {
                // Accessing our own SPM through the group space is local.
                if tile == Coord::new(self.xy.0, self.xy.1) {
                    return self.do_load(now, offset, width, signed, dst);
                }
                let coord = self.pgas.tile_coord(tile.x, tile.y);
                let ok =
                    self.remote_load(now, self.pgas.cell_id, coord, offset, width, signed, dst);
                if ok {
                    // Record only on issue; a credit stall retries the
                    // instruction and would double-count.
                    self.push_race(
                        now,
                        crate::race::RaceLoc::Spm {
                            cell: self.pgas.cell_id,
                            x: tile.x,
                            y: tile.y,
                            word: offset & !3,
                        },
                        crate::race::AccessKind::Read,
                        true,
                    );
                }
                ok
            }
            Ok(Target::Bank { cell, bank, addr }) => {
                let coord = self.pgas.bank_coord(bank);
                let ok = self.remote_load(now, cell, coord, addr, width, signed, dst);
                if ok {
                    self.push_race(
                        now,
                        crate::race::RaceLoc::Dram {
                            cell,
                            bank: bank as u8,
                            word: addr & !3,
                        },
                        crate::race::AccessKind::Read,
                        true,
                    );
                }
                ok
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn remote_load(
        &mut self,
        now: u64,
        cell: u8,
        coord: Coord,
        addr: u32,
        width: u8,
        signed: bool,
        dst: Dst,
    ) -> bool {
        if !self.issue_remote_load(now, cell, coord, addr, width, signed, dst) {
            self.stall(StallKind::RemoteCredit);
            return false;
        }
        if !self.cfg.non_blocking_loads {
            self.flush_combine();
            // Blocking: wait for this exact op before any further progress.
            self.blocking_on = Some(self.next_op_id.wrapping_sub(1));
        }
        true
    }

    fn do_store(&mut self, now: u64, eva: u32, width: u8, data: u32) -> bool {
        match self.translate(eva, width) {
            Err(e) => {
                self.trap(e);
                false
            }
            Ok(Target::LocalSpm { offset }) => {
                if offset + u32::from(width) > self.cfg.spm_bytes {
                    self.trap(format!("SPM store overrun at {offset:#x}"));
                    return false;
                }
                self.push_race(
                    now,
                    crate::race::RaceLoc::Spm {
                        cell: self.pgas.cell_id,
                        x: self.xy.0,
                        y: self.xy.1,
                        word: offset & !3,
                    },
                    crate::race::AccessKind::Write,
                    false,
                );
                write_bytes(&mut self.spm, offset, width, data);
                true
            }
            Ok(Target::Csr { offset }) => match offset {
                csr::BARRIER => {
                    if let Some(t) = &self.trace {
                        t.push(TraceEvent::BarrierJoin {
                            cycle: self.last_cycle,
                            tile: self.xy,
                        });
                    }
                    self.wants_join = true;
                    self.barrier_waiting = true;
                    // Joining with remote ops outstanding means their
                    // writes are not ordered before the release: the
                    // sanitizer extends them into the next epoch.
                    self.race_join_unfenced = self.outstanding > 0;
                    if self.observed {
                        self.obs_events
                            .push((now, crate::observe::ObsKind::BarrierJoin));
                    }
                    true
                }
                csr::MARK => {
                    // Architecturally a no-op: the store retires normally
                    // whether or not telemetry is listening, so marked
                    // kernels stay bit-identical with telemetry off.
                    if self.observed {
                        self.obs_events
                            .push((now, crate::observe::ObsKind::Mark(data)));
                    }
                    if let Some(p) = &mut self.prof {
                        p.set_phase(data);
                    }
                    true
                }
                _ => {
                    self.trap(format!("store to read-only CSR {offset:#x}"));
                    false
                }
            },
            Ok(Target::RemoteSpm { tile, offset }) => {
                if tile == Coord::new(self.xy.0, self.xy.1) {
                    return self.do_store(now, offset, width, data);
                }
                let coord = self.pgas.tile_coord(tile.x, tile.y);
                let ok = self.remote_store(now, self.pgas.cell_id, coord, offset, width, data);
                if ok {
                    self.push_race(
                        now,
                        crate::race::RaceLoc::Spm {
                            cell: self.pgas.cell_id,
                            x: tile.x,
                            y: tile.y,
                            word: offset & !3,
                        },
                        crate::race::AccessKind::Write,
                        true,
                    );
                }
                ok
            }
            Ok(Target::Bank { cell, bank, addr }) => {
                let coord = self.pgas.bank_coord(bank);
                let ok = self.remote_store(now, cell, coord, addr, width, data);
                if ok {
                    self.push_race(
                        now,
                        crate::race::RaceLoc::Dram {
                            cell,
                            bank: bank as u8,
                            word: addr & !3,
                        },
                        crate::race::AccessKind::Write,
                        true,
                    );
                }
                ok
            }
        }
    }

    fn remote_store(
        &mut self,
        _now: u64,
        cell: u8,
        coord: Coord,
        addr: u32,
        width: u8,
        data: u32,
    ) -> bool {
        self.flush_combine();
        if self.outstanding >= self.cfg.max_outstanding || self.req_outbox.len() >= OUTBOX_CAP {
            self.stall(StallKind::RemoteCredit);
            return false;
        }
        let op_id = self.alloc_op_id();
        self.pending_ops.insert(op_id, PendingOp::Store);
        self.send_request(cell, coord, op_id, ReqKind::Store { addr, width, data });
        self.outstanding += 1;
        true
    }

    fn do_amo(&mut self, now: u64, eva: u32, op: hb_isa::AmoOp, data: u32, rd: Gpr) -> bool {
        match self.translate(eva, 4) {
            Err(e) => {
                self.trap(e);
                false
            }
            Ok(Target::Bank { cell, bank, addr }) => {
                self.flush_combine();
                if self.outstanding >= self.cfg.max_outstanding
                    || self.req_outbox.len() >= OUTBOX_CAP
                {
                    self.stall(StallKind::RemoteCredit);
                    return false;
                }
                let op_id = self.alloc_op_id();
                self.pending_ops.insert(op_id, PendingOp::Amo { rd });
                let coord = self.pgas.bank_coord(bank);
                self.send_request(cell, coord, op_id, ReqKind::Amo { addr, op, data });
                if rd != Gpr::Zero {
                    self.int_pending[rd.index() as usize] = true;
                }
                self.outstanding += 1;
                if !self.cfg.non_blocking_loads {
                    self.blocking_on = Some(op_id);
                }
                self.push_race(
                    now,
                    crate::race::RaceLoc::Dram {
                        cell,
                        bank: bank as u8,
                        word: addr & !3,
                    },
                    crate::race::AccessKind::Amo,
                    true,
                );
                true
            }
            Ok(Target::RemoteSpm { tile, offset }) => {
                if offset + 4 > self.cfg.spm_bytes {
                    self.trap(format!("SPM AMO overrun at {offset:#x}"));
                    return false;
                }
                self.flush_combine();
                if self.outstanding >= self.cfg.max_outstanding
                    || self.req_outbox.len() >= OUTBOX_CAP
                {
                    self.stall(StallKind::RemoteCredit);
                    return false;
                }
                let op_id = self.alloc_op_id();
                self.pending_ops.insert(op_id, PendingOp::Amo { rd });
                let coord = self.pgas.tile_coord(tile.x, tile.y);
                self.send_request(
                    self.pgas.cell_id,
                    coord,
                    op_id,
                    ReqKind::Amo {
                        addr: offset,
                        op,
                        data,
                    },
                );
                if rd != Gpr::Zero {
                    self.int_pending[rd.index() as usize] = true;
                }
                self.outstanding += 1;
                if !self.cfg.non_blocking_loads {
                    self.blocking_on = Some(op_id);
                }
                self.push_race(
                    now,
                    crate::race::RaceLoc::Spm {
                        cell: self.pgas.cell_id,
                        x: tile.x,
                        y: tile.y,
                        word: offset & !3,
                    },
                    crate::race::AccessKind::Amo,
                    true,
                );
                true
            }
            Ok(_) => {
                self.trap(format!("AMO to non-atomic space at {eva:#x}"));
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile() -> Tile {
        let cfg = Arc::new(MachineConfig::baseline_16x8());
        let pgas = PgasMap {
            cell_id: 0,
            num_cells: cfg.num_cells,
            cell_w: cfg.cell_dim.x,
            cell_h: cfg.cell_dim.y,
            spm_bytes: cfg.spm_bytes,
            line_bytes: cfg.line_bytes,
            dram_bytes: cfg.dram_bytes_per_cell,
            ipoly: cfg.ipoly_hashing,
        };
        Tile::new(cfg, pgas, (0, 0))
    }

    #[test]
    fn tile_fits_in_1700_bytes() {
        // The two ready-kind arrays hold one byte per register
        // (`StallKind` is `repr(u8)`), not one word: 2096 -> 1656 bytes.
        let size = std::mem::size_of::<Tile>();
        assert!(size <= 1700, "Tile grew to {size} bytes");
    }

    #[test]
    fn out_of_range_amo_request_reads_zero_and_writes_nothing() {
        let mut t = tile();
        let spm_bytes = t.cfg.spm_bytes;
        t.spm_write_u32(spm_bytes - 4, 0xdead_beef);
        let here = t.pgas.tile_coord(0, 0);
        let from = NodeId {
            cell: 0,
            coord: t.pgas.tile_coord(1, 0),
        };
        t.req_inbox.push_back(Packet {
            src: from.coord,
            dst: here,
            payload: Request {
                from,
                op_id: 7,
                kind: ReqKind::Amo {
                    addr: spm_bytes - 2,
                    op: hb_isa::AmoOp::Add,
                    data: 1,
                },
            },
        });
        t.step(0);
        let (_, resp) = t.resp_outbox.pop_front().expect("the request is answered");
        assert_eq!(resp.payload.op_id, 7);
        assert!(matches!(resp.payload.kind, RespKind::AmoOld { data: 0 }));
        assert_eq!(t.spm_read_u32(spm_bytes - 4), 0xdead_beef);
    }
}
