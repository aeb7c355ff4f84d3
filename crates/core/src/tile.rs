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
use crate::race::{AccessKind, RaceLoc};
use crate::sched::Park;
use crate::stats::{CoreStats, StallKind};
use hb_asm::Program;
use hb_isa::{Fpr, Gpr, Instr, Reg};
use hb_mem::{IdMap, Snap, SnapError, SnapReader, SnapWriter};
use hb_noc::{Coord, Packet};
use std::collections::VecDeque;
use std::sync::Arc;

/// Destination of an in-flight remote load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dst {
    /// Integer register (x0 = discard).
    Int(Gpr),
    /// FP register.
    Fp(Fpr),
}

impl Dst {
    fn reg(self) -> Option<Reg> {
        match self {
            Dst::Int(rd) => Reg::gpr(rd),
            Dst::Fp(rd) => Some(Reg::fpr(rd)),
        }
    }
}

/// The destinations of one remote load, one per word, held inline: a
/// compressed load packet carries at most four words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Dsts {
    len: u8,
    items: [Dst; 4],
}

impl Dsts {
    fn one(dst: Dst) -> Dsts {
        Dsts {
            len: 1,
            items: [dst; 4],
        }
    }

    fn push(&mut self, dst: Dst) {
        self.items[usize::from(self.len)] = dst;
        self.len += 1;
    }

    fn as_slice(&self) -> &[Dst] {
        &self.items[..usize::from(self.len)]
    }
}

/// Encoded as a `Vec<Dst>`: a `u64` length, then the destinations.
impl Snap for Dsts {
    fn save(&self, w: &mut SnapWriter) {
        w.usize(self.as_slice().len());
        Dst::save_slice(self.as_slice(), w);
    }

    fn load(r: &mut SnapReader) -> Result<Dsts, SnapError> {
        let n = r.usize()?;
        if !(1..=4).contains(&n) {
            return Err(SnapError::Bad("load destination count out of range"));
        }
        let mut dsts = Dsts::one(Dst::load(r)?);
        for _ in 1..n {
            dsts.push(Dst::load(r)?);
        }
        Ok(dsts)
    }
}

/// Book-keeping for one outstanding remote operation.
#[derive(Debug, Clone, Copy)]
enum PendingOp {
    /// A (possibly compressed) load: one destination per word.
    Load { dsts: Dsts, width: u8, signed: bool },
    /// A posted store awaiting its scoreboard credit.
    Store,
    /// An atomic op returning the old value.
    Amo { rd: Gpr },
    /// An op of an earlier launch whose response had not arrived when the
    /// tile was relaunched: the response is dropped when it comes.
    Abandoned,
}

/// Load-packet-compression combining latch.
#[derive(Debug, Clone)]
struct Combine {
    dst_cell: u8,
    dst_coord: Coord,
    base_addr: u32,
    dsts: Dsts,
    op_id: u32,
    /// Flush deadline (cycles the latch may hold the packet).
    flush_at: u64,
}

/// Where a data access lands (see [`Tile::resolve`]).
enum Access {
    /// This tile's own scratchpad, named directly or through group space.
    Spm { offset: u32, loc: RaceLoc },
    /// One of this tile's CSRs.
    Csr { offset: u32 },
    /// An endpoint behind the network — a cache bank or another tile's
    /// scratchpad — at network coordinate `coord` of Cell `cell`, with the
    /// endpoint-local byte address that goes in the request.
    Remote {
        cell: u8,
        coord: Coord,
        addr: u32,
        loc: RaceLoc,
    },
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

    // Hazard tracking, one entry per `hb_isa::Reg` index (integer half
    // first): the cycle a result becomes visible and the stall it causes
    // until then, and whether a remote load or AMO will write the register.
    ready: [u64; Reg::COUNT],
    ready_kind: [StallKind; Reg::COUNT],
    pending: [bool; Reg::COUNT],
    fpu_busy_until: u64,
    div_busy_until: u64,
    /// Hazard horizon: an upper bound on every `ready` entry
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
    pending_ops: IdMap<u32, PendingOp>,
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

    /// Guest-code profiling switch (see
    /// [`Machine::set_profile`](crate::Machine::set_profile)).
    profile: bool,
    /// Guest-code profile capture (see [`crate::gprof`]): allocated for
    /// the launched program while `profile` is set, `None` otherwise —
    /// every record site pays exactly one branch on the option when
    /// profiling is off.
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

/// Reads a `width`-byte little-endian word of a scratchpad image.
pub(crate) fn read_bytes(buf: &[u8], offset: u32, width: u8) -> u32 {
    let o = offset as usize;
    let mut v = 0u32;
    for i in (0..width as usize).rev() {
        v = (v << 8) | u32::from(buf[o + i]);
    }
    v
}

/// Writes the low `width` bytes of `value` into a scratchpad image.
pub(crate) fn write_bytes(buf: &mut [u8], offset: u32, width: u8, value: u32) {
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
    3 => Abandoned,
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
// table. The race-sanitizer log feeds a consumer that lives outside the
// snapshot; it is drained every cycle, so it is empty at any checkpoint
// boundary. The sanitizer, profiler and telemetry switches are the host's
// to set: `observed` keeps its byte in the stream, but the machine
// overwrites it after a load with whether it has an observer attached.
hb_mem::snap_state!(Tile [b"TILE"] {
    save: group, regs, fregs, pc, args, ready, ready_kind, pending, fpu_busy_until,
        div_busy_until, penalty_until, penalty_kind, icache, outstanding, next_op_id,
        pending_ops, blocking_on, combine, req_outbox, resp_outbox, req_inbox, resp_inbox,
        resp_stage, wants_join, barrier_waiting, running, finished, fault, stats, last_cycle,
        observed, obs_events, prof;
    fixed: spm;
    host: cfg, pgas, xy, haz_until, program, race_check, race_log, race_join_unfenced,
        profile;
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
            ready: [0; Reg::COUNT],
            ready_kind: [StallKind::Bypass; Reg::COUNT],
            pending: [false; Reg::COUNT],
            fpu_busy_until: 0,
            div_busy_until: 0,
            haz_until: 0,
            penalty_until: 0,
            penalty_kind: StallKind::IcacheMiss,
            icache,
            program: None,
            outstanding: 0,
            next_op_id: 0,
            pending_ops: IdMap::default(),
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
            last_cycle: 0,
            observed: false,
            obs_events: Vec::new(),
            race_check: false,
            race_log: Vec::new(),
            race_join_unfenced: false,
            profile: false,
            prof: None,
        }
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

    /// Turns guest-code profiling on or off (see
    /// [`Machine::set_profile`](crate::Machine::set_profile)): on, a
    /// launched tile without a profile starts an empty one for its
    /// program; off drops the profile.
    pub(crate) fn set_profile(&mut self, on: bool) {
        self.profile = on;
        if !on {
            self.prof = None;
        } else if self.prof.is_none() {
            self.prof = self
                .program
                .as_deref()
                .map(crate::gprof::TileProfile::boxed);
        }
    }

    /// After a restore, once the Cell has re-attached the program image: a
    /// restored guest profile counts that image's instructions.
    pub(crate) fn check_profile(&self) -> Result<(), hb_mem::SnapError> {
        match (&self.prof, &self.program) {
            (None, _) => Ok(()),
            (Some(tp), Some(p)) if tp.describes(p) => Ok(()),
            _ => Err(hb_mem::SnapError::Bad(
                "guest profile does not match the tile's program",
            )),
        }
    }

    /// The undrained race log (drained by the machine each cycle).
    pub(crate) fn race_log_mut(&mut self) -> &mut Vec<crate::race::TileRaceEvent> {
        &mut self.race_log
    }

    /// Appends a shared-location access to the race log. One always-false
    /// branch when the sanitizer is off.
    #[inline]
    fn push_race(&mut self, cycle: u64, loc: RaceLoc, kind: AccessKind, remote: bool) {
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
    /// the telemetry and race-log buffers, `last_cycle` (the clock does
    /// not restart), `next_op_id` (so a response to a dead kernel's
    /// operation cannot alias a live one — it traps as "unknown op" instead
    /// of landing in a register) and the network-interface queues, whose
    /// packets are the Cell's to deliver. An injected freeze
    /// also stays: it is a fault of the tile, not state of the kernel it
    /// interrupted. The guest profile starts afresh for `program` while
    /// profiling is on.
    pub fn launch(&mut self, program: Arc<Program>, args: &[u32], group: GroupInfo) {
        assert!(args.len() <= 8, "at most 8 kernel arguments");
        self.regs = [0; 32];
        self.fregs = [0.0; 32];
        self.ready = [0; Reg::COUNT];
        self.pending = [false; Reg::COUNT];
        self.fpu_busy_until = 0;
        self.div_busy_until = 0;
        self.haz_until = 0;
        if self.penalty_kind != StallKind::Frozen {
            self.penalty_until = 0;
        }
        self.outstanding = 0;
        // A relaunch over a kernel cut short (a timeout) finds its ops still
        // in flight, in a network, a bank or another Cell. They keep their
        // ids so that their responses, when they come, are recognised and
        // dropped; the op held in the combining latch was never sent.
        if let Some(c) = self.combine.take() {
            self.pending_ops.remove(c.op_id);
        }
        (self.pending_ops.values_mut()).for_each(|op| *op = PendingOp::Abandoned);
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
        self.prof = self
            .profile
            .then(|| crate::gprof::TileProfile::boxed(&program));
        self.program = Some(program);
        self.group = group;
        self.running = true;
        self.finished = false;
        self.fault = None;
        self.blocking_on = None;
    }

    /// Whether the tile has executed `ecall` (kernel complete).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Whether the last step left work for the Cell's sync phase (a
    /// barrier join, a trap) or inject phase (a packet to send).
    pub(crate) fn left_work(&self) -> bool {
        self.wants_join
            || self.fault.is_some()
            || !self.req_outbox.is_empty()
            || !self.resp_outbox.is_empty()
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
        self.ready = [0; Reg::COUNT];
        self.pending = [false; Reg::COUNT];
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

    /// Appends an instant event if telemetry capture is on: the one write
    /// site of the tile's own events and of those the Cell or the machine
    /// attributes to it (HBM stalls, races).
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

    /// The guest-code profile buffer, when profiling is on and the tile
    /// has launched.
    pub(crate) fn guest_prof(&self) -> Option<&crate::gprof::TileProfile> {
        self.prof.as_deref()
    }

    fn trap(&mut self, msg: String) {
        self.push_obs(self.last_cycle, crate::observe::ObsKind::Fault);
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
        let ready = self.ready.iter().copied().max();
        self.haz_until = ready
            .unwrap_or(0)
            .max(self.fpu_busy_until)
            .max(self.div_busy_until);
        Ok(())
    }

    /// A result written at `now` becomes visible `lat` cycles later; until
    /// then a reader stalls as `kind`.
    fn set_latency(&mut self, rd: impl Into<Option<Reg>>, now: u64, lat: u64, kind: StallKind) {
        if let Some(rd) = rd.into().filter(|_| lat > 1) {
            self.ready[rd.index()] = now + lat;
            self.ready_kind[rd.index()] = kind;
            self.raise_horizon(now + lat);
        }
    }

    /// Processes all arrived responses: fills registers, releases the
    /// scoreboard.
    fn drain_responses(&mut self) {
        while let Some(pkt) = self.resp_inbox.pop_front() {
            let resp = pkt.payload;
            let Some(op) = self.pending_ops.remove(resp.op_id) else {
                self.trap(format!("response for unknown op {}", resp.op_id));
                return;
            };
            match (op, resp.kind) {
                (PendingOp::Abandoned, _) => {}
                (
                    PendingOp::Load {
                        dsts,
                        width,
                        signed,
                    },
                    RespKind::Load { data, count },
                ) => {
                    debug_assert_eq!(dsts.len, count);
                    for (i, &dst) in dsts.as_slice().iter().enumerate() {
                        self.retire_remote(dst, extend(data[i], width, signed));
                    }
                }
                (PendingOp::Store, RespKind::StoreAck) => {
                    self.outstanding -= 1;
                }
                (PendingOp::Amo { rd }, RespKind::AmoOld { data }) => {
                    self.retire_remote(Dst::Int(rd), data);
                }
                (op, kind) => {
                    self.trap(format!("mismatched response {kind:?} for {op:?}"));
                    return;
                }
            }
            if self.blocking_on == Some(resp.op_id) {
                self.blocking_on = None;
            }
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

    /// Sends the held load packet, if any.
    fn flush_combine(&mut self) {
        let Some(c) = self.combine.take() else {
            return;
        };
        let count = c.dsts.len;
        if count > 1 {
            self.stats.lpc_merged += u64::from(count) - 1;
        }
        let kind = ReqKind::Load {
            addr: c.base_addr,
            width: 4,
            count,
        };
        self.send_request(c.dst_cell, c.dst_coord, c.op_id, kind);
    }

    /// Writes a loaded value to its destination register.
    fn write_dst(&mut self, dst: Dst, value: u32) {
        match dst {
            Dst::Int(rd) => self.write_int(rd, value),
            Dst::Fp(rd) => self.fregs[rd.index() as usize] = f32::from_bits(value),
        }
    }

    fn set_pending(&mut self, dst: Dst, pending: bool) {
        if let Some(rd) = dst.reg() {
            self.pending[rd.index()] = pending;
        }
    }

    /// One response word lands: fills the register, releases its pending bit
    /// and its scoreboard credit.
    fn retire_remote(&mut self, dst: Dst, value: u32) {
        self.write_dst(dst, value);
        self.set_pending(dst, false);
        self.outstanding -= 1;
    }

    /// The way every remote operation enters the scoreboard: it takes a
    /// credit and an outbox slot, or the instruction retries as one
    /// `RemoteCredit` stall (`None`). A held load packet leaves first, once
    /// the credit is certain, so requests reach the outbox in program order;
    /// only a load can find one, because `execute` closes the latch ahead of
    /// every other instruction. In blocking mode the tile then waits for
    /// this operation's response, unless it is a posted store. Sending the
    /// request under the returned id — or holding it in the combining latch
    /// — is the caller's.
    fn issue_remote(&mut self, op: PendingOp) -> Option<u32> {
        let credit = self.outstanding < self.cfg.max_outstanding;
        if credit {
            self.flush_combine();
        }
        if !credit || self.req_outbox.len() >= OUTBOX_CAP {
            self.stall(StallKind::RemoteCredit);
            return None;
        }
        let op_id = self.next_op_id;
        self.next_op_id = op_id.wrapping_add(1);
        if !self.cfg.non_blocking_loads && !matches!(op, PendingOp::Store) {
            self.blocking_on = Some(op_id);
        }
        self.pending_ops.insert(op_id, op);
        self.outstanding += 1;
        Some(op_id)
    }

    /// Issues a remote load; `false` when it must retry. With Load Packet
    /// Compression a word load is held in the combining latch for up to two
    /// cycles, so that a load of the next word of the same endpoint can ride
    /// in its packet (up to four). A blocking load waits for its own
    /// response, so it is never held.
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
        let hold = self.cfg.load_packet_compression && self.cfg.non_blocking_loads && width == 4;
        if let Some(c) = &mut self.combine {
            let next = c.base_addr + 4 * u32::from(c.dsts.len);
            if hold
                && self.outstanding < self.cfg.max_outstanding
                && (c.dst_cell, c.dst_coord, next) == (cell, coord, addr)
                && c.dsts.len < 4
            {
                c.dsts.push(dst);
                c.flush_at = now + 2;
                match self.pending_ops.get_mut(c.op_id) {
                    Some(PendingOp::Load { dsts, .. }) => dsts.push(dst),
                    _ => unreachable!("combine latch without pending op"),
                }
                self.outstanding += 1;
                self.set_pending(dst, true);
                return true;
            }
        }
        let op = PendingOp::Load {
            dsts: Dsts::one(dst),
            width,
            signed,
        };
        let Some(op_id) = self.issue_remote(op) else {
            return false;
        };
        if hold {
            self.combine = Some(Combine {
                dst_cell: cell,
                dst_coord: coord,
                base_addr: addr,
                dsts: Dsts::one(dst),
                op_id,
                flush_at: now + 2,
            });
        } else {
            let kind = ReqKind::Load {
                addr,
                width,
                count: 1,
            };
            self.send_request(cell, coord, op_id, kind);
        }
        self.set_pending(dst, true);
        true
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
        self.drain_responses();
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
        if self.penalty_until > now + 2 {
            return Park::Sleep {
                kind: Some(self.penalty_kind),
                wake_at: self.penalty_until,
            };
        }
        if self.penalty_until > now {
            // At most one penalty stall left (the default branch miss): a
            // sleep would skip at most one step, and parking, waking and
            // crediting it cost more than the step it saves.
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
        // bit (`ready_kind` never holds it), the first-checked
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
                    self.set_latency(Reg::gpr(rd), now, lat, StallKind::IntBusy);
                }
            }
            I::Fence => {
                if self.outstanding > 0 || self.combine.is_some() {
                    self.flush_combine();
                    self.stall(StallKind::Fence);
                    return;
                }
                self.push_obs(now, crate::observe::ObsKind::FenceRetire);
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
                let fd = Reg::fpr(rd);
                match op {
                    hb_isa::FpOp::Div => {
                        self.fpu_busy_until = now + self.cfg.fdiv_latency;
                        self.raise_horizon(self.fpu_busy_until);
                        self.set_latency(fd, now, self.cfg.fdiv_latency, StallKind::FpBusy);
                    }
                    hb_isa::FpOp::Sqrt => {
                        self.fpu_busy_until = now + self.cfg.fsqrt_latency;
                        self.raise_horizon(self.fpu_busy_until);
                        self.set_latency(fd, now, self.cfg.fsqrt_latency, StallKind::FpBusy);
                    }
                    hb_isa::FpOp::Mul => {
                        self.set_latency(fd, now, self.cfg.fma_latency, StallKind::Bypass);
                    }
                    _ => self.set_latency(fd, now, self.cfg.fp_latency, StallKind::Bypass),
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
                self.set_latency(Reg::fpr(rd), now, self.cfg.fma_latency, StallKind::Bypass);
            }
            I::FpCmp { op, rd, rs1, rs2 } => {
                fp_instr = true;
                let a = self.fregs[rs1.index() as usize];
                let b = self.fregs[rs2.index() as usize];
                self.write_int(rd, u32::from(op.eval(a, b)));
                self.set_latency(Reg::gpr(rd), now, self.cfg.fp_latency, StallKind::Bypass);
            }
            I::FcvtWS { rd, rs1 } => {
                fp_instr = true;
                let v = self.fregs[rs1.index() as usize];
                self.write_int(rd, v as i32 as u32);
                self.set_latency(Reg::gpr(rd), now, self.cfg.fp_latency, StallKind::Bypass);
            }
            I::FcvtWuS { rd, rs1 } => {
                fp_instr = true;
                let v = self.fregs[rs1.index() as usize];
                self.write_int(rd, v as u32);
                self.set_latency(Reg::gpr(rd), now, self.cfg.fp_latency, StallKind::Bypass);
            }
            I::FcvtSW { rd, rs1 } => {
                fp_instr = true;
                let v = self.regs[rs1.index() as usize] as i32;
                self.fregs[rd.index() as usize] = v as f32;
                self.set_latency(Reg::fpr(rd), now, self.cfg.fp_latency, StallKind::Bypass);
            }
            I::FcvtSWu { rd, rs1 } => {
                fp_instr = true;
                let v = self.regs[rs1.index() as usize];
                self.fregs[rd.index() as usize] = v as f32;
                self.set_latency(Reg::fpr(rd), now, self.cfg.fp_latency, StallKind::Bypass);
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

    /// The stall `instr` takes this cycle, if any: a source that is not yet
    /// written (in operand order), then a destination a remote load or AMO
    /// will still write, then a busy divider or FP divide/sqrt unit.
    fn instr_hazard(&self, instr: &Instr, now: u64) -> Option<StallKind> {
        let ops = instr.operands();
        for r in ops.srcs.into_iter().flatten() {
            if self.pending[r.index()] {
                return Some(StallKind::RemoteLoad);
            }
            if self.ready[r.index()] > now {
                return Some(self.ready_kind[r.index()]);
            }
        }
        if ops.dst.is_some_and(|r| self.pending[r.index()]) {
            return Some(StallKind::RemoteLoad);
        }
        match *instr {
            Instr::Op { op, .. } if op.is_muldiv() && self.div_busy_until > now => {
                Some(StallKind::IntBusy)
            }
            Instr::FpOp {
                op: hb_isa::FpOp::Div | hb_isa::FpOp::Sqrt,
                ..
            } if self.fpu_busy_until > now => Some(StallKind::FpBusy),
            _ => None,
        }
    }

    /// Where a data access lands, or why the tile must trap on it: the PGAS
    /// decision of paper Fig. 5, made once per access and only here.
    ///
    /// Past [`PgasMap::translate`] this is: a DRAM access must sit inside one
    /// cache line, because a bank serves whole lines (naturally aligned
    /// accesses never straddle, so only a corrupted address gets here — and
    /// must trap the tile, not index past the line in the bank); a tile that
    /// names itself through group space is served by its own scratchpad like
    /// a local access; and an access its issuer can see running off the end
    /// of a scratchpad traps. An AMO is the exception to both scratchpad
    /// rules. It is atomic only at the endpoint that orders all traffic to
    /// its word — a bank, or a scratchpad's network interface — so it takes
    /// the network even to the issuing tile and has no local form; and where
    /// a scratchpad answers an overrunning load or store with zero and no
    /// write, it cannot apply part of an AMO, so the issuer checks that too.
    fn resolve(&self, eva: u32, width: u8, kind: AccessKind) -> Result<Access, String> {
        let amo = kind == AccessKind::Amo;
        let own = Coord::new(self.xy.0, self.xy.1);
        let (tile, offset) = match self.pgas.translate(eva).map_err(|e| e.to_string())? {
            Target::Bank { cell, bank, addr } => {
                self.pgas.check_line(eva, addr, width)?;
                return Ok(Access::Remote {
                    cell,
                    coord: self.pgas.bank_coord(bank),
                    addr,
                    loc: RaceLoc::Dram {
                        cell,
                        bank: bank as u8,
                        word: addr & !3,
                    },
                });
            }
            Target::RemoteSpm { tile, offset } => (tile, offset),
            _ if amo => return Err(format!("AMO to non-atomic space at {eva:#x}")),
            Target::Csr { offset } => return Ok(Access::Csr { offset }),
            Target::LocalSpm { offset } => (own, offset),
        };
        let local = tile == own && !amo;
        if (local || amo) && offset + u32::from(width) > self.cfg.spm_bytes {
            let what = match kind {
                AccessKind::Read => "load",
                AccessKind::Write => "store",
                AccessKind::Amo => "AMO",
            };
            return Err(format!("SPM {what} overrun at {offset:#x}"));
        }
        let cell = self.pgas.cell_id;
        let loc = RaceLoc::Spm {
            cell,
            x: tile.x,
            y: tile.y,
            word: offset & !3,
        };
        Ok(if local {
            Access::Spm { offset, loc }
        } else {
            Access::Remote {
                cell,
                coord: self.pgas.tile_coord(tile.x, tile.y),
                addr: offset,
                loc,
            }
        })
    }

    /// Executes a load; returns `false` when the instruction must retry
    /// (stall already recorded).
    fn do_load(&mut self, now: u64, eva: u32, width: u8, signed: bool, dst: Dst) -> bool {
        let value = match self.resolve(eva, width, AccessKind::Read) {
            Err(e) => {
                self.trap(e);
                return false;
            }
            Ok(Access::Spm { offset, loc }) => {
                // Local SPM is remotely addressable (a neighbour's remote
                // store can land here), so local reads are race-relevant.
                self.push_race(now, loc, AccessKind::Read, false);
                let lat = self.cfg.spm_load_latency;
                self.set_latency(dst.reg(), now, lat, StallKind::LocalLoad);
                extend(read_bytes(&self.spm, offset, width), width, signed)
            }
            Ok(Access::Csr { offset }) => match self.csr_read(offset, now) {
                // A sub-word load reads the addressed bytes of the word.
                Some(word) => extend(csr::narrow(word, offset), width, signed),
                None => {
                    self.trap(format!("read of unknown CSR {offset:#x}"));
                    return false;
                }
            },
            Ok(Access::Remote {
                cell,
                coord,
                addr,
                loc,
            }) => {
                let ok = self.remote_load(now, cell, coord, addr, width, signed, dst);
                if ok {
                    // Record only on issue; a credit stall retries the
                    // instruction and would double-count.
                    self.push_race(now, loc, AccessKind::Read, true);
                }
                return ok;
            }
        };
        self.write_dst(dst, value);
        true
    }

    fn do_store(&mut self, now: u64, eva: u32, width: u8, data: u32) -> bool {
        match self.resolve(eva, width, AccessKind::Write) {
            Err(e) => {
                self.trap(e);
                false
            }
            Ok(Access::Spm { offset, loc }) => {
                self.push_race(now, loc, AccessKind::Write, false);
                write_bytes(&mut self.spm, offset, width, data);
                true
            }
            Ok(Access::Csr { offset }) => match offset {
                csr::BARRIER => {
                    self.wants_join = true;
                    self.barrier_waiting = true;
                    // Joining with remote ops outstanding means their
                    // writes are not ordered before the release: the
                    // sanitizer extends them into the next epoch.
                    self.race_join_unfenced = self.outstanding > 0;
                    self.push_obs(now, crate::observe::ObsKind::BarrierJoin);
                    true
                }
                csr::MARK => {
                    // Architecturally a no-op: the store retires normally
                    // whether or not telemetry is listening, so marked
                    // kernels stay bit-identical with telemetry off.
                    self.push_obs(now, crate::observe::ObsKind::Mark(data));
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
            Ok(Access::Remote {
                cell,
                coord,
                addr,
                loc,
            }) => {
                let Some(op_id) = self.issue_remote(PendingOp::Store) else {
                    return false;
                };
                self.send_request(cell, coord, op_id, ReqKind::Store { addr, width, data });
                self.push_race(now, loc, AccessKind::Write, true);
                true
            }
        }
    }

    fn do_amo(&mut self, now: u64, eva: u32, op: hb_isa::AmoOp, data: u32, rd: Gpr) -> bool {
        match self.resolve(eva, 4, AccessKind::Amo) {
            Err(e) => {
                self.trap(e);
                false
            }
            Ok(Access::Remote {
                cell,
                coord,
                addr,
                loc,
            }) => {
                let Some(op_id) = self.issue_remote(PendingOp::Amo { rd }) else {
                    return false;
                };
                self.send_request(cell, coord, op_id, ReqKind::Amo { addr, op, data });
                self.set_pending(Dst::Int(rd), true);
                self.push_race(now, loc, AccessKind::Amo, true);
                true
            }
            Ok(Access::Spm { .. } | Access::Csr { .. }) => {
                unreachable!("resolve gives an AMO the network or an error")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tile() -> Tile {
        let cfg = Arc::new(MachineConfig::baseline_16x8());
        let pgas = PgasMap::new(&cfg, 0);
        Tile::new(cfg, pgas, (0, 0))
    }

    /// The data-access matrix: every kind of memory instruction against
    /// every kind of address. One tile, one instruction, the outcome read
    /// straight off the tile — a local effect, the request packet with its
    /// destination, or the exact trap — and the same outcome from the
    /// functional bus.
    #[test]
    fn every_access_kind_lands_where_the_address_says() {
        use crate::func::{FuncBus, TileCtx};
        use hb_isa::{AmoOp, LoadWidth, StoreWidth};
        use hb_iss::{Bus, StoreEffect};

        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Kind {
            Load { signed: bool, fp: bool },
            Store { fp: bool },
            Amo,
        }
        /// What one access must do. `Own(offset)`: served by the tile's own
        /// scratchpad. `Net`: one request to `coord` of `cell` carrying
        /// `addr`. `Reads(value)`: a CSR read. `Joins`/`Retires`: the two
        /// writable CSRs.
        #[derive(Debug, Clone, PartialEq)]
        enum Expect {
            Own(u32),
            Net { cell: u8, coord: Coord, addr: u32 },
            Reads(u32),
            Joins,
            Retires,
            Trap(String),
        }
        use Expect::{Joins, Net, Own, Reads, Retires, Trap};

        let cfg = Arc::new(MachineConfig {
            num_cells: 2,
            ..MachineConfig::baseline_16x8()
        });
        let pg = PgasMap::new(&cfg, 0);
        let (me, other) = ((2u8, 3u8), (5u8, 1u8));
        let (spm_bytes, line, window) = (cfg.spm_bytes, cfg.line_bytes, cfg.dram_bytes_per_cell);
        let image: Vec<u8> = (0..spm_bytes).map(|i| (i * 7 + 0x83) as u8).collect();
        let group = Tile::new(cfg.clone(), pg, me).group();

        let ops: [(&str, Kind, u8); 9] = [
            (
                "lb",
                Kind::Load {
                    signed: true,
                    fp: false,
                },
                1,
            ),
            (
                "lh",
                Kind::Load {
                    signed: true,
                    fp: false,
                },
                2,
            ),
            (
                "lw",
                Kind::Load {
                    signed: false,
                    fp: false,
                },
                4,
            ),
            (
                "flw",
                Kind::Load {
                    signed: false,
                    fp: true,
                },
                4,
            ),
            ("sb", Kind::Store { fp: false }, 1),
            ("sh", Kind::Store { fp: false }, 2),
            ("sw", Kind::Store { fp: false }, 4),
            ("fsw", Kind::Store { fp: true }, 4),
            ("amoadd.w", Kind::Amo, 4),
        ];

        // Expectation helpers shared by the rows.
        let non_atomic = |eva: u32| Trap(format!("AMO to non-atomic space at {eva:#x}"));
        let to_tile = |(x, y): (u8, u8), addr: u32| Net {
            cell: pg.cell_id,
            coord: pg.tile_coord(x, y),
            addr,
        };
        let to_bank = |eva: u32| match pg.translate(eva) {
            Ok(Target::Bank { cell, bank, addr }) => Net {
                cell,
                coord: pg.bank_coord(bank),
                addr,
            },
            other => panic!("{eva:#x} is not DRAM: {other:?}"),
        };
        let overrun = |kind: Kind, offset: u32| {
            let what = match kind {
                Kind::Load { .. } => "load",
                Kind::Store { .. } => "store",
                Kind::Amo => "AMO",
            };
            Trap(format!("SPM {what} overrun at {offset:#x}"))
        };
        let csr_row = |eva: u32, load: Expect, store: Expect| {
            move |kind: Kind, _: u8| match kind {
                Kind::Load { .. } => load.clone(),
                Kind::Store { .. } => store.clone(),
                Kind::Amo => Trap(format!("AMO to non-atomic space at {eva:#x}")),
            }
        };
        // An access of `width` bytes at `eva`, `room` bytes before the end
        // of its cache line.
        let crosses = |eva: u32, room: u8, width: u8| {
            if width <= room {
                to_bank(eva)
            } else {
                Trap(format!(
                    "{width}-byte DRAM access at {eva:#x} crosses its cache line"
                ))
            }
        };
        let unknown = |eva: u32| Trap(format!("read of unknown CSR {eva:#x}"));
        let read_only = |eva: u32| Trap(format!("store to read-only CSR {eva:#x}"));

        type Row<'a> = (&'a str, u32, Box<dyn Fn(Kind, u8) -> Expect + 'a>);
        let last = spm_bytes - 1;
        let own_alias = crate::pgas::group_spm(me.0, me.1, 0x40);
        let rows: Vec<Row> = vec![
            (
                "local SPM",
                0x40,
                Box::new(|kind, _| match kind {
                    Kind::Amo => non_atomic(0x40),
                    _ => Own(0x40),
                }),
            ),
            (
                "own tile through group space",
                own_alias,
                Box::new(|kind, _| match kind {
                    // An AMO takes the network even to its own tile.
                    Kind::Amo => to_tile(me, 0x40),
                    _ => Own(0x40),
                }),
            ),
            (
                "another tile's SPM",
                crate::pgas::group_spm(other.0, other.1, 0x40),
                Box::new(|_, _| to_tile(other, 0x40)),
            ),
            (
                "Local DRAM",
                crate::pgas::local_dram(0x1040),
                Box::new(|_, _| to_bank(crate::pgas::local_dram(0x1040))),
            ),
            (
                "Group DRAM of the other Cell",
                crate::pgas::group_dram(1, 0x2080),
                Box::new(|_, _| to_bank(crate::pgas::group_dram(1, 0x2080))),
            ),
            (
                "Global DRAM",
                crate::pgas::global_dram(0x12340),
                Box::new(|_, _| to_bank(crate::pgas::global_dram(0x12340))),
            ),
            (
                "read-only CSR",
                csr::TILE_X,
                Box::new(csr_row(
                    csr::TILE_X,
                    Reads(u32::from(me.0)),
                    read_only(csr::TILE_X),
                )),
            ),
            (
                "BARRIER CSR",
                csr::BARRIER,
                Box::new(csr_row(csr::BARRIER, unknown(csr::BARRIER), Joins)),
            ),
            (
                "MARK CSR",
                csr::MARK,
                Box::new(csr_row(csr::MARK, unknown(csr::MARK), Retires)),
            ),
            (
                "unknown CSR",
                0x10f0,
                Box::new(csr_row(0x10f0, unknown(0x10f0), read_only(0x10f0))),
            ),
            (
                "bad EVA",
                0x2000,
                Box::new(|_, _| Trap("EVA 0x00002000 does not map to any resource".to_owned())),
            ),
            (
                "last byte of the local SPM",
                last,
                Box::new(|kind, width| match kind {
                    Kind::Amo => non_atomic(last),
                    _ if width == 1 => Own(last),
                    _ => overrun(kind, last),
                }),
            ),
            (
                "last byte of the own SPM through group space",
                crate::pgas::group_spm(me.0, me.1, last),
                Box::new(|kind, width| match kind {
                    _ if width == 1 => Own(last),
                    _ => overrun(kind, last),
                }),
            ),
            (
                "last byte of another tile's SPM",
                crate::pgas::group_spm(other.0, other.1, last),
                Box::new(|kind, _| match kind {
                    // Its owner answers a load or store that overruns; only
                    // the issuer can refuse an AMO.
                    Kind::Amo => overrun(kind, last),
                    _ => to_tile(other, last),
                }),
            ),
            (
                "last byte of a DRAM cache line",
                crate::pgas::local_dram(line - 1),
                Box::new(|_, width| crosses(crate::pgas::local_dram(line - 1), 1, width)),
            ),
            (
                "last two bytes of the DRAM window",
                crate::pgas::local_dram(window - 2),
                Box::new(|_, width| crosses(crate::pgas::local_dram(window - 2), 2, width)),
            ),
        ];

        let (base, rd, src) = (Gpr::A0, Gpr::A1, Gpr::A2);
        let (frd, fsrc) = (Fpr::from_index(1), Fpr::from_index(2));
        let data = 0xfeed_c0de_u32;
        for (row, eva, expect) in &rows {
            for &(name, kind, width) in &ops {
                let what = format!("{name} at {row} ({eva:#x})");
                let expect = expect(kind, width);

                // The tile.
                let mut t = Tile::new(cfg.clone(), pg, me);
                t.spm.copy_from_slice(&image);
                t.regs[base.index() as usize] = *eva;
                t.regs[src.index() as usize] = data;
                t.fregs[fsrc.index() as usize] = f32::from_bits(data);
                let instr = match (kind, width) {
                    (Kind::Load { fp: true, .. }, _) => Instr::Flw {
                        rd: frd,
                        rs1: base,
                        offset: 0,
                    },
                    (Kind::Load { .. }, _) => Instr::Load {
                        width: [LoadWidth::B, LoadWidth::H, LoadWidth::W][width as usize / 2],
                        rd,
                        rs1: base,
                        offset: 0,
                    },
                    (Kind::Store { fp: true }, _) => Instr::Fsw {
                        rs1: base,
                        rs2: fsrc,
                        offset: 0,
                    },
                    (Kind::Store { .. }, _) => Instr::Store {
                        width: [StoreWidth::B, StoreWidth::H, StoreWidth::W][width as usize / 2],
                        rs1: base,
                        rs2: src,
                        offset: 0,
                    },
                    (Kind::Amo, _) => Instr::Amo {
                        op: AmoOp::Add,
                        rd,
                        rs1: base,
                        rs2: src,
                        aq: false,
                        rl: false,
                    },
                };
                t.execute(instr, 0);
                t.flush_combine(); // a held word load leaves now
                let sent: Vec<_> = t.req_outbox.drain(..).collect();
                let loaded = match kind {
                    Kind::Load { fp: true, .. } => t.fregs[frd.index() as usize].to_bits(),
                    _ => t.regs[rd.index() as usize],
                };
                let spm_changed = t.spm != image;
                let got = match (t.fault(), sent.as_slice()) {
                    (Some((_, cause)), []) => Trap(cause.to_owned()),
                    (None, [(cell, pkt)]) => {
                        assert_eq!(pkt.src, pg.tile_coord(me.0, me.1), "{what}");
                        assert_eq!(pkt.payload.from.coord, pkt.src, "{what}");
                        assert_eq!(t.outstanding(), 1, "{what}");
                        let addr = match (kind, pkt.payload.kind) {
                            (
                                Kind::Load { .. },
                                ReqKind::Load {
                                    addr,
                                    width: w,
                                    count: 1,
                                },
                            ) if w == width => addr,
                            (
                                Kind::Store { .. },
                                ReqKind::Store {
                                    addr,
                                    width: w,
                                    data: d,
                                },
                            ) if (w, d) == (width, data) => addr,
                            (
                                Kind::Amo,
                                ReqKind::Amo {
                                    addr,
                                    op: AmoOp::Add,
                                    data: d,
                                },
                            ) if d == data => addr,
                            (_, req) => panic!("{what}: wrong request {req:?}"),
                        };
                        Net {
                            cell: *cell,
                            coord: pkt.dst,
                            addr,
                        }
                    }
                    (None, []) if t.wants_join && t.barrier_waiting => Joins,
                    (None, []) => match (&expect, kind) {
                        (Own(offset), Kind::Load { signed, .. }) => {
                            let raw = read_bytes(&image, *offset, width);
                            assert_eq!(loaded, extend(raw, width, signed), "{what}");
                            Own(*offset)
                        }
                        (Own(offset), _) => {
                            let mut after = image.clone();
                            write_bytes(&mut after, *offset, width, data);
                            assert_eq!(t.spm, after, "{what}");
                            Own(*offset)
                        }
                        (_, Kind::Load { .. }) => Reads(loaded),
                        _ => Retires,
                    },
                    (fault, sent) => panic!("{what}: fault {fault:?} and packets {sent:?}"),
                };
                assert_eq!(got, expect, "{what}");
                let retired = u64::from(!matches!(got, Trap(_)));
                assert_eq!(t.stats().instrs, retired, "{what}");
                if !matches!(got, Net { .. }) {
                    assert_eq!(t.outstanding(), 0, "{what}");
                }
                if !matches!((&got, kind), (Own(_), Kind::Store { .. })) {
                    assert!(!spm_changed, "{what}: scratchpad written");
                }

                // The functional bus, with both tiles modelled.
                let ctx = |xy| TileCtx {
                    xy,
                    group,
                    args: [0; 8],
                };
                let tiles = vec![(ctx(me), image.clone()), (ctx(other), image.clone())];
                let dram = vec![hb_mem::Dram::new(window as usize); 2];
                let mut bus = FuncBus::new(pg, tiles, dram);
                let said = match kind {
                    Kind::Load { signed, .. } => match bus.load(*eva, width) {
                        Ok(raw) if matches!(got, Own(_) | Reads(_)) => {
                            assert_eq!(extend(raw, width, signed), loaded, "{what}: bus value");
                            Ok(())
                        }
                        other => other.map(|_| ()),
                    },
                    Kind::Store { .. } => match bus.store(*eva, width, data) {
                        Ok(effect) => {
                            assert_eq!(effect == StoreEffect::Barrier, got == Joins, "{what}");
                            assert_eq!(bus.spm(0), t.spm(), "{what}: bus scratchpad");
                            Ok(())
                        }
                        Err(e) => Err(e),
                    },
                    Kind::Amo => bus.amo(*eva, AmoOp::Add, data).map(|_| ()),
                };
                match (&got, said) {
                    (Trap(cause), Err(e)) => assert_eq!(&e, cause, "{what}: bus trap"),
                    (Trap(cause), Ok(())) => panic!("{what}: tile traps ({cause}), bus does not"),
                    (_, Err(e)) => panic!("{what}: bus traps ({e}), tile does not"),
                    (_, Ok(())) => {}
                }
            }
        }
    }

    #[test]
    fn tile_fits_in_1700_bytes() {
        // The ready-kind array holds one byte per register
        // (`StallKind` is `repr(u8)`), not one word: 2096 -> 1656 bytes.
        let size = std::mem::size_of::<Tile>();
        assert!(size <= 1700, "Tile grew to {size} bytes");
    }

    #[test]
    fn a_penalty_parks_only_when_the_sleep_skips_two_steps() {
        let branch_miss_at = |penalty| {
            let cfg = Arc::new(MachineConfig {
                branch_miss_penalty: penalty,
                ..MachineConfig::baseline_16x8()
            });
            let mut t = Tile::new(cfg.clone(), PgasMap::new(&cfg, 0), (0, 0));
            t.running = true;
            // Taken forward: the static predictor said not taken.
            let beq = Instr::Branch {
                op: hb_isa::BranchOp::Eq,
                rs1: Gpr::Zero,
                rs2: Gpr::Zero,
                offset: 8,
            };
            t.execute(beq, 10);
            assert_eq!(t.stats().branch_misses, 1);
            t.park_hint(10)
        };
        // One stall left (cycle 11): stepping it is cheaper than parking.
        assert_eq!(branch_miss_at(2), Park::Awake);
        // Two (cycles 11 and 12): sleep until the penalty ends.
        let sleep = Park::Sleep {
            kind: Some(StallKind::BranchMiss),
            wake_at: 13,
        };
        assert_eq!(branch_miss_at(3), sleep);
    }

    /// The scoreboard's inline destinations and id-ordered table keep the
    /// wire form of the `Vec` and the map they replaced: a tile with a
    /// four-word combined load in the latch checkpoints, restores and
    /// checkpoints again to the same bytes, and the restored tile retires
    /// the response into all four registers.
    #[test]
    fn a_combined_load_in_flight_round_trips_its_checkpoint() {
        use hb_isa::LoadWidth;
        use hb_mem::SnapState;

        let cfg = Arc::new(MachineConfig::baseline_16x8());
        let pg = PgasMap::new(&cfg, 0);
        let (me, other) = ((2u8, 3u8), (5u8, 1u8));
        let mut t = Tile::new(cfg.clone(), pg, me);
        t.regs[Gpr::A0.index() as usize] = crate::pgas::group_spm(other.0, other.1, 0x40);
        let (a1, a2, f1, f2) = (Gpr::A1, Gpr::A2, Fpr::from_index(1), Fpr::from_index(2));
        let load = |rd, offset| Instr::Load {
            width: LoadWidth::W,
            rd,
            rs1: Gpr::A0,
            offset,
        };
        let flw = |rd, offset| Instr::Flw {
            rd,
            rs1: Gpr::A0,
            offset,
        };
        for instr in [load(a1, 0), flw(f1, 4), load(a2, 8), flw(f2, 12)] {
            t.execute(instr, 0);
        }
        assert_eq!(t.outstanding(), 4);
        assert!(t.req_outbox.is_empty(), "the packet is held in the latch");
        let held = t.combine.as_ref().expect("the latch holds the load").dsts;
        let want = [Dst::Int(a1), Dst::Fp(f1), Dst::Int(a2), Dst::Fp(f2)];
        assert_eq!(held.as_slice(), want);
        let encode = |f: &dyn Fn(&mut SnapWriter)| {
            let mut w = SnapWriter::new();
            f(&mut w);
            w.into_bytes()
        };
        assert_eq!(
            encode(&|w| held.save(w)),
            encode(&|w| want.to_vec().save(w))
        );

        let bytes = encode(&|w| t.save_state(w));
        let mut back = Tile::new(cfg, pg, me);
        back.load_state(&mut SnapReader::new(&bytes)).unwrap();
        assert_eq!(encode(&|w| back.save_state(w)), bytes);

        back.flush_combine();
        let (_, pkt) = back.req_outbox.pop_front().expect("the held packet leaves");
        let op_id = pkt.payload.op_id;
        assert!(matches!(pkt.payload.kind, ReqKind::Load { count: 4, .. }));
        let data = [11, 22, 33, 44];
        back.resp_inbox.push_back(Packet {
            src: pkt.dst,
            dst: pkt.src,
            payload: Response {
                op_id,
                kind: RespKind::Load { data, count: 4 },
            },
        });
        back.drain_responses();
        assert_eq!(back.fault(), None);
        assert_eq!(back.outstanding(), 0);
        assert_eq!((back.reg(a1), back.reg(a2)), (11, 33));
        assert_eq!((back.freg(f1).to_bits(), back.freg(f2).to_bits()), (22, 44));
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
